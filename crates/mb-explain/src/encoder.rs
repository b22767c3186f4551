//! Dictionary encoding of attribute values.
//!
//! MacroBase points carry categorical attributes as strings (device ID,
//! firmware version, ...). The itemset miners work over dense `u32` item
//! ids, so the explanation layer interns each distinct (attribute column,
//! value) pair once and translates back when rendering explanations to users.
//!
//! For large batches, [`encode_batch_parallel`] shards the encode pass across
//! the work-stealing pool: each shard interns misses into a private local
//! dictionary, and the locals merge into the shared [`AttributeEncoder`] the
//! same way the sketches merge — except the merge is ordered by each value's
//! first occurrence in the input, so the assigned item ids (and therefore
//! every downstream count, tree, and explanation) are *identical* to what a
//! serial [`AttributeEncoder::encode_point`] loop would have produced.

use crate::items::ItemBatch;
use mb_fpgrowth::Item;
use std::collections::HashMap;

/// A decoded attribute: which column it came from and its string value.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AttributeValue {
    /// Index of the attribute column in the point schema.
    pub column: usize,
    /// The attribute's categorical value.
    pub value: String,
}

impl AttributeValue {
    /// Create an attribute value.
    pub fn new(column: usize, value: impl Into<String>) -> Self {
        AttributeValue {
            column,
            value: value.into(),
        }
    }
}

impl std::fmt::Display for AttributeValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "attr{}={}", self.column, self.value)
    }
}

/// FNV-1a over the column index and the value bytes. Fixed constants — the
/// hash is a pure function of the key, so two encoders built from the same
/// stream are identical, thread count notwithstanding.
fn key_hash(column: usize, value: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in (column as u64).to_le_bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    for &b in value.as_bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Open-addressing index from key hash to item id, resolved against the
/// encoder's `reverse` table. Keys are *not* stored here — the interned
/// `AttributeValue` in `reverse` is the single allocation per distinct
/// value, and probes compare the cached hash before touching the strings.
#[derive(Debug, Clone, Default)]
struct IndexTable {
    /// `(hash, item)` slots; `Item::MAX` marks an empty slot. Capacity is a
    /// power of two (zero when empty).
    slots: Vec<(u64, Item)>,
    len: usize,
}

const EMPTY_SLOT: Item = Item::MAX;

impl IndexTable {
    fn find(&self, hash: u64, mut eq: impl FnMut(Item) -> bool) -> Option<Item> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = (hash as usize) & mask;
        loop {
            let (h, item) = self.slots[i];
            if item == EMPTY_SLOT {
                return None;
            }
            if h == hash && eq(item) {
                return Some(item);
            }
            i = (i + 1) & mask;
        }
    }

    /// Insert a hash/item pair known to be absent, growing at 7/8 load.
    fn insert(&mut self, hash: u64, item: Item) {
        if self.slots.is_empty() || (self.len + 1) * 8 > self.slots.len() * 7 {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = (hash as usize) & mask;
        while self.slots[i].1 != EMPTY_SLOT {
            i = (i + 1) & mask;
        }
        self.slots[i] = (hash, item);
        self.len += 1;
    }

    fn grow(&mut self) {
        let new_cap = (self.slots.len() * 2).max(16);
        let old = std::mem::replace(&mut self.slots, vec![(0, EMPTY_SLOT); new_cap]);
        let mask = new_cap - 1;
        for (h, item) in old {
            if item != EMPTY_SLOT {
                let mut i = (h as usize) & mask;
                while self.slots[i].1 != EMPTY_SLOT {
                    i = (i + 1) & mask;
                }
                self.slots[i] = (h, item);
            }
        }
    }
}

/// Bidirectional mapping between attribute values and dense item ids.
///
/// The forward direction is an open-addressing hash index resolved against
/// the `reverse` table, so the hot path — encoding a value already in the
/// dictionary — allocates nothing and never builds a temporary key: it
/// hashes the borrowed `&str`, probes, and compares in place. Each distinct
/// value is allocated exactly once, when first interned.
#[derive(Debug, Clone, Default)]
pub struct AttributeEncoder {
    index: IndexTable,
    reverse: Vec<AttributeValue>,
    /// Optional human-readable column names for display.
    column_names: Vec<String>,
}

impl AttributeEncoder {
    /// Create an empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an encoder with named columns (used when rendering).
    pub fn with_column_names(names: Vec<String>) -> Self {
        AttributeEncoder {
            column_names: names,
            ..Self::default()
        }
    }

    /// Intern one (column, value) pair, returning its item id.
    pub fn encode(&mut self, column: usize, value: &str) -> Item {
        let hash = key_hash(column, value);
        let reverse = &self.reverse;
        if let Some(item) = self.index.find(hash, |item| {
            let av = &reverse[item as usize];
            av.column == column && av.value == value
        }) {
            return item;
        }
        let item = self.reverse.len() as Item;
        self.reverse.push(AttributeValue {
            column,
            value: value.to_owned(),
        });
        self.index.insert(hash, item);
        item
    }

    /// Encode all attributes of one point (one value per column, in order).
    pub fn encode_point(&mut self, attributes: &[String]) -> Vec<Item> {
        attributes
            .iter()
            .enumerate()
            .map(|(column, value)| self.encode(column, value))
            .collect()
    }

    /// Encode one point's attributes into a caller-owned scratch buffer
    /// (cleared first), so per-point streaming paths reuse one allocation.
    pub fn encode_point_into(&mut self, attributes: &[String], out: &mut Vec<Item>) {
        out.clear();
        out.extend(
            attributes
                .iter()
                .enumerate()
                .map(|(column, value)| self.encode(column, value)),
        );
    }

    /// Look up an item id without interning; `None` if never seen.
    pub fn lookup(&self, column: usize, value: &str) -> Option<Item> {
        let hash = key_hash(column, value);
        let reverse = &self.reverse;
        self.index.find(hash, |item| {
            let av = &reverse[item as usize];
            av.column == column && av.value == value
        })
    }

    /// Decode an item id back to its attribute value.
    pub fn decode(&self, item: Item) -> Option<&AttributeValue> {
        self.reverse.get(item as usize)
    }

    /// Decode a whole itemset into human-readable `column=value` strings.
    pub fn describe(&self, items: &[Item]) -> Vec<String> {
        items
            .iter()
            .map(|&item| match self.decode(item) {
                Some(av) => {
                    let column_name = self
                        .column_names
                        .get(av.column)
                        .cloned()
                        .unwrap_or_else(|| format!("attr{}", av.column));
                    format!("{}={}", column_name, av.value)
                }
                None => format!("<unknown item {item}>"),
            })
            .collect()
    }

    /// Number of distinct attribute values interned so far.
    pub fn cardinality(&self) -> usize {
        self.reverse.len()
    }

    /// The configured column names (may be empty).
    pub fn column_names(&self) -> &[String] {
        &self.column_names
    }
}

/// One shard's private output from the parallel encode pass: a columnar
/// transaction batch with provisional item ids, plus the dictionary entries
/// the shard minted (each with the global row index of its first
/// occurrence).
struct ShardEncode {
    batch: ItemBatch,
    /// Minted entries in local-id order; `.1` is the first global row index
    /// at which the shard saw the value.
    minted: Vec<(AttributeValue, usize)>,
}

/// Encode `rows` into one columnar [`ItemBatch`] in parallel shards on
/// `pool`, interning any new attribute values into `encoder`.
///
/// Each shard reads the pre-existing dictionary lock-free (shared
/// reference) and mints provisional ids for misses in a private local
/// dictionary. The shard dictionaries then merge into `encoder` ordered by
/// first occurrence (row, then column), which makes the id assignment —
/// and hence the returned batch — byte-identical to a serial
/// [`AttributeEncoder::encode_point`] loop over `rows`, for any shard count
/// and any thread interleaving. Finally the provisional ids are rewritten
/// to their merged ids, again in parallel, over the flat item arrays.
pub fn encode_batch_parallel<R>(
    encoder: &mut AttributeEncoder,
    pool: &mb_pool::Pool,
    rows: &[R],
    num_shards: usize,
) -> ItemBatch
where
    R: AsRef<[String]> + Sync,
{
    let base = encoder.cardinality() as Item;
    let num_shards = num_shards.clamp(1, rows.len().max(1));
    let shard_size = rows.len().div_ceil(num_shards).max(1);

    // Scatter: encode each shard against the frozen global dictionary plus
    // a private dictionary for misses. Provisional ids for misses start at
    // `base`, so "miss" is recognizable downstream as `id >= base`.
    let shard_inputs: Vec<(usize, &[R])> = rows
        .chunks(shard_size)
        .enumerate()
        .map(|(i, chunk)| (i * shard_size, chunk))
        .collect();
    let frozen = &*encoder;
    let mut shards: Vec<ShardEncode> = pool.map_vec(shard_inputs, |(offset, shard_rows)| {
        let mut local = AttributeEncoder::new();
        let mut first_rows: Vec<usize> = Vec::new();
        let columns = shard_rows.first().map_or(0, |r| r.as_ref().len());
        let mut batch = ItemBatch::with_capacity(shard_rows.len(), columns);
        for (row_in_shard, row) in shard_rows.iter().enumerate() {
            for (column, value) in row.as_ref().iter().enumerate() {
                if let Some(item) = frozen.lookup(column, value) {
                    batch.push_item(item);
                    continue;
                }
                let before = local.cardinality();
                let provisional = local.encode(column, value);
                if local.cardinality() > before {
                    first_rows.push(offset + row_in_shard);
                }
                batch.push_item(base + provisional);
            }
            batch.finish_row();
        }
        // The local dictionary's reverse table is exactly the minted values
        // in provisional-id order.
        let minted = local.reverse.into_iter().zip(first_rows).collect();
        ShardEncode { batch, minted }
    });

    // Merge dictionaries: dedupe the minted values across shards keeping the
    // earliest occurrence, then intern into `encoder` ordered by (first row,
    // column) — exactly the order a serial pass discovers values in. (Two
    // distinct new values can share a row only in distinct columns, so the
    // order is total.)
    let mut first_seen: HashMap<&AttributeValue, usize> = HashMap::new();
    for shard in &shards {
        for (key, row) in &shard.minted {
            first_seen
                .entry(key)
                .and_modify(|earliest| *earliest = (*earliest).min(*row))
                .or_insert(*row);
        }
    }
    let mut ordered: Vec<(&AttributeValue, usize)> =
        first_seen.iter().map(|(&key, &row)| (key, row)).collect(); // mb-lint: allow(hashmap-order-hazard) -- sorted by (first row, column) on the next line, a unique key
    ordered.sort_by_key(|&(key, row)| (row, key.column));
    for (key, _) in &ordered {
        encoder.encode(key.column, &key.value);
    }

    // Gather: rewrite each shard's provisional ids to merged ids in
    // parallel over the flat item arrays, then concatenate the shard
    // batches in shard (= row) order.
    let remaps: Vec<Vec<Item>> = shards
        .iter()
        .map(|shard| {
            shard
                .minted
                .iter()
                .map(|(key, _)| {
                    encoder
                        .lookup(key.column, &key.value)
                        .expect("merged dictionary entry missing")
                })
                .collect()
        })
        .collect();
    let shard_work: Vec<(ShardEncode, &Vec<Item>)> = shards.drain(..).zip(remaps.iter()).collect();
    let rewritten: Vec<ItemBatch> = pool.map_vec(shard_work, |(mut shard, remap)| {
        for item in shard.batch.items_mut() {
            if *item >= base {
                *item = remap[(*item - base) as usize];
            }
        }
        shard.batch
    });
    let mut out = ItemBatch::with_capacity(
        rows.len(),
        rewritten.iter().map(ItemBatch::num_items).sum::<usize>() / rows.len().max(1) + 1,
    );
    for shard in &rewritten {
        out.append(shard);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_is_idempotent() {
        let mut enc = AttributeEncoder::new();
        let a = enc.encode(0, "iPhone6");
        let b = enc.encode(0, "iPhone6");
        assert_eq!(a, b);
        assert_eq!(enc.cardinality(), 1);
    }

    #[test]
    fn same_value_different_columns_are_distinct() {
        let mut enc = AttributeEncoder::new();
        let a = enc.encode(0, "42");
        let b = enc.encode(1, "42");
        assert_ne!(a, b);
        assert_eq!(enc.cardinality(), 2);
    }

    #[test]
    fn round_trip_decode() {
        let mut enc = AttributeEncoder::new();
        let item = enc.encode(2, "v2.26.3");
        let decoded = enc.decode(item).unwrap();
        assert_eq!(decoded.column, 2);
        assert_eq!(decoded.value, "v2.26.3");
        assert_eq!(enc.decode(999), None);
    }

    #[test]
    fn encode_point_assigns_columns_in_order() {
        let mut enc = AttributeEncoder::new();
        let items = enc.encode_point(&["B264".to_string(), "2.26.3".to_string()]);
        assert_eq!(items.len(), 2);
        assert_eq!(enc.decode(items[0]).unwrap().column, 0);
        assert_eq!(enc.decode(items[1]).unwrap().column, 1);
    }

    #[test]
    fn describe_uses_column_names() {
        let mut enc = AttributeEncoder::with_column_names(vec![
            "device_type".to_string(),
            "app_version".to_string(),
        ]);
        let items = enc.encode_point(&["B264".to_string(), "2.26.3".to_string()]);
        let described = enc.describe(&items);
        assert_eq!(described, vec!["device_type=B264", "app_version=2.26.3"]);
    }

    #[test]
    fn describe_falls_back_without_names() {
        let mut enc = AttributeEncoder::new();
        let item = enc.encode(3, "x");
        assert_eq!(enc.describe(&[item]), vec!["attr3=x"]);
        assert_eq!(enc.describe(&[57]), vec!["<unknown item 57>"]);
    }

    #[test]
    fn lookup_does_not_intern() {
        let enc = AttributeEncoder::new();
        assert_eq!(enc.lookup(0, "nope"), None);
        assert_eq!(enc.cardinality(), 0);
    }

    /// A mixed-cardinality workload where most values recur across shard
    /// boundaries and some are unique to one shard.
    fn attribute_rows(n: usize) -> Vec<Vec<String>> {
        (0..n)
            .map(|i| {
                vec![
                    format!("device_{}", i % 37),
                    format!("version_{}", i % 5),
                    format!("row_tag_{}", i / 50),
                ]
            })
            .collect()
    }

    fn serial_reference(rows: &[Vec<String>]) -> (AttributeEncoder, Vec<Vec<Item>>) {
        let mut enc = AttributeEncoder::new();
        let txns = rows.iter().map(|row| enc.encode_point(row)).collect();
        (enc, txns)
    }

    #[test]
    fn parallel_encode_reproduces_serial_ids_exactly() {
        let rows = attribute_rows(2_000);
        let (serial_enc, serial_txns) = serial_reference(&rows);
        let pool = mb_pool::Pool::new(4);
        for shards in [1usize, 2, 3, 7, 16] {
            let mut enc = AttributeEncoder::new();
            let txns = encode_batch_parallel(&mut enc, &pool, &rows, shards).to_rows();
            assert_eq!(txns, serial_txns, "transactions diverged at {shards} shards");
            assert_eq!(enc.cardinality(), serial_enc.cardinality());
            for item in 0..enc.cardinality() as Item {
                assert_eq!(
                    enc.decode(item),
                    serial_enc.decode(item),
                    "dictionary diverged at item {item} with {shards} shards"
                );
            }
        }
    }

    #[test]
    fn parallel_encode_respects_preexisting_entries() {
        let rows = attribute_rows(500);
        // Pre-intern a few values (as the streaming path may have done);
        // their ids must survive and the serial/parallel tails must agree.
        let mut serial_enc = AttributeEncoder::new();
        serial_enc.encode(0, "device_3");
        serial_enc.encode(2, "row_tag_0");
        let mut parallel_enc = serial_enc.clone();
        let serial_txns: Vec<Vec<Item>> =
            rows.iter().map(|row| serial_enc.encode_point(row)).collect();
        let pool = mb_pool::Pool::new(3);
        let parallel_txns = encode_batch_parallel(&mut parallel_enc, &pool, &rows, 5).to_rows();
        assert_eq!(parallel_txns, serial_txns);
        assert_eq!(parallel_enc.cardinality(), serial_enc.cardinality());
        assert_eq!(parallel_enc.lookup(0, "device_3"), Some(0));
    }

    #[test]
    fn parallel_encode_handles_empty_and_tiny_inputs() {
        let pool = mb_pool::Pool::new(2);
        let mut enc = AttributeEncoder::new();
        let empty: Vec<Vec<String>> = Vec::new();
        assert!(encode_batch_parallel(&mut enc, &pool, &empty, 8).is_empty());
        assert_eq!(enc.cardinality(), 0);

        let one = vec![vec!["a".to_string(), "b".to_string()]];
        let txns = encode_batch_parallel(&mut enc, &pool, &one, 8).to_rows();
        assert_eq!(txns, vec![vec![0, 1]]);
        assert_eq!(enc.cardinality(), 2);
    }

    #[test]
    fn parallel_encode_keeps_column_names() {
        let pool = mb_pool::Pool::new(2);
        let mut enc = AttributeEncoder::with_column_names(vec![
            "device_type".to_string(),
            "app_version".to_string(),
        ]);
        let rows = vec![
            vec!["B264".to_string(), "2.26.3".to_string()],
            vec!["B101".to_string(), "2.26.3".to_string()],
        ];
        let txns = encode_batch_parallel(&mut enc, &pool, &rows, 2).to_rows();
        assert_eq!(
            enc.describe(&txns[0]),
            vec!["device_type=B264", "app_version=2.26.3"]
        );
    }
}
