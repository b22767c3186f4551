//! Batch explanation: MacroBase's outlier-aware strategy (Algorithm 2) and
//! the naïve two-sided FPGrowth baseline it is compared against (Section 6.3).
//!
//! The optimized strategy exploits the cardinality imbalance between classes:
//! outliers are (by construction) ~1% of the stream, so it first finds
//! attribute values supported *in the outliers*, prunes them by risk ratio
//! using a single counting pass over the inliers restricted to those
//! candidates, mines combinations only over the outliers, and finally makes
//! one more restricted pass over the inliers to compute combination risk
//! ratios. The naïve baseline instead mines both classes in full.
//!
//! The two inlier passes are the only steps that touch every row, and their
//! results are count vectors indexed by candidate (or combination) position.
//! Counts merge by addition, so [`BatchExplainer::explain_labeled`] scatters
//! both passes over contiguous row ranges on a pool and sums the per-range
//! vectors: partitions exchange two small count vectors instead of their
//! rows. Every batch row weighs 1, so each range counts in `u64` and the sum
//! is the exact integer a serial in-order `f64` accumulation reaches (below
//! 2^53), which makes the result bit-identical at any partition count.

use crate::items::ItemBatch;
use crate::partition::ExplainState;
use crate::risk_ratio::{risk_ratio_from_totals, Explanation, ExplanationStats};
use crate::ExplanationConfig;
use mb_fpgrowth::fptree::FpTree;
use mb_fpgrowth::{FrequentItemset, Item};
use mb_pool::Pool;
use std::collections::HashMap;

/// Reusable per-task buffers for the per-row counting steps.
#[derive(Default)]
struct RowScratch {
    /// A row's items restricted to the surviving candidates, sorted.
    items: Vec<Item>,
    /// The count positions one row contributes to, each at most once.
    hits: Vec<usize>,
}

/// Stage 1b's per-row step: the positions in `candidates` (sorted item ids)
/// of the distinct candidate items present in `row`.
fn candidate_hits(row: &[Item], candidates: &[Item], scratch: &mut RowScratch) {
    let hits = &mut scratch.hits;
    hits.clear();
    hits.extend(
        row.iter()
            .filter_map(|item| candidates.binary_search(item).ok()),
    );
    hits.sort_unstable();
    hits.dedup();
}

/// Stage 3's per-row step: the positions in `combos` of the combinations
/// wholly contained in `row`, testing only items in `surviving` (sorted).
fn combination_hits(
    row: &[Item],
    surviving: &[Item],
    combos: &[&FrequentItemset],
    scratch: &mut RowScratch,
) {
    let RowScratch { items, hits } = scratch;
    hits.clear();
    items.clear();
    items.extend(
        row.iter()
            .copied()
            .filter(|item| surviving.binary_search(item).is_ok()),
    );
    if items.is_empty() {
        return;
    }
    items.sort_unstable();
    hits.extend(combos.iter().enumerate().filter_map(|(pos, combo)| {
        combo
            .items
            .iter()
            .all(|item| items.binary_search(item).is_ok())
            .then_some(pos)
    }));
}

/// Where Algorithm 2's two inlier counting passes read their rows: the one
/// body of [`BatchExplainer`] runs over either source.
trait InlierRows {
    /// For each position reported by `hits` on an inlier row, the total
    /// weight of the inlier rows reporting it (`width` positions).
    fn count<H>(&self, width: usize, hits: H) -> Vec<f64>
    where
        H: Fn(&[Item], &mut RowScratch) + Sync;
}

/// Weighted transactions, counted serially in transaction order.
impl InlierRows for [(&[Item], f64)] {
    fn count<H>(&self, width: usize, hits: H) -> Vec<f64>
    where
        H: Fn(&[Item], &mut RowScratch) + Sync,
    {
        let mut counts = vec![0.0; width];
        let mut scratch = RowScratch::default();
        for (transaction, weight) in self {
            hits(transaction, &mut scratch);
            for &pos in &scratch.hits {
                counts[pos] += weight;
            }
        }
        counts
    }
}

/// The unlabeled rows of a columnar batch, counted as one pool task per
/// contiguous row range; each range returns exact `u64` counts and the
/// vectors are summed.
struct ScatteredInliers<'a> {
    pool: &'a Pool,
    rows: &'a ItemBatch,
    labels: &'a [bool],
    partitions: usize,
}

impl InlierRows for ScatteredInliers<'_> {
    fn count<H>(&self, width: usize, hits: H) -> Vec<f64>
    where
        H: Fn(&[Item], &mut RowScratch) + Sync,
    {
        let partials: Vec<Vec<u64>> =
            self.pool
                .map_vec(self.rows.row_ranges(self.partitions), |range| {
                    let mut counts = vec![0u64; width];
                    let mut scratch = RowScratch::default();
                    for r in range {
                        if self.labels[r] {
                            continue;
                        }
                        hits(self.rows.row(r), &mut scratch);
                        for &pos in &scratch.hits {
                            counts[pos] += 1;
                        }
                    }
                    counts
                });
        let mut total = vec![0u64; width];
        for partial in partials {
            for (sum, count) in total.iter_mut().zip(partial) {
                *sum += count;
            }
        }
        total.into_iter().map(|count| count as f64).collect()
    }
}

/// The outlier-aware batch explainer (Algorithm 2).
#[derive(Debug, Clone)]
pub struct BatchExplainer {
    config: ExplanationConfig,
}

impl BatchExplainer {
    /// Create an explainer with the given thresholds.
    pub fn new(config: ExplanationConfig) -> Self {
        BatchExplainer { config }
    }

    /// Produce explanations for a batch of outlier and inlier transactions
    /// (each transaction is one point's encoded attribute items).
    pub fn explain(&self, outliers: &[Vec<Item>], inliers: &[Vec<Item>]) -> Vec<Explanation> {
        let weighted_outliers: Vec<(&[Item], f64)> =
            outliers.iter().map(|t| (t.as_slice(), 1.0)).collect();
        let weighted_inliers: Vec<(&[Item], f64)> =
            inliers.iter().map(|t| (t.as_slice(), 1.0)).collect();
        self.explain_weighted(
            &weighted_outliers,
            weighted_inliers.as_slice(),
            outliers.len() as f64,
            inliers.len() as f64,
        )
    }

    /// Produce explanations for one columnar batch of encoded rows, where
    /// `labels[r]` says whether row `r` was labeled an outlier. Every row
    /// counts toward its class total (attribute-less rows included), exactly
    /// as [`explain`](BatchExplainer::explain) over split transaction lists.
    ///
    /// The steps over the outlier rows (single counts, FP-growth, the
    /// combination list) run on the calling thread in row order. The two
    /// inlier counting passes run on `pool`, one task per contiguous range
    /// of [`ItemBatch::row_ranges`]`(partitions)`, and exchange only count
    /// vectors. The result is bit-identical to
    /// [`explain`](BatchExplainer::explain) at every partition count and
    /// pool width.
    ///
    /// # Panics
    ///
    /// If `labels` is shorter than `rows`.
    pub fn explain_labeled(
        &self,
        pool: &Pool,
        rows: &ItemBatch,
        labels: &[bool],
        partitions: usize,
    ) -> Vec<Explanation> {
        let outliers: Vec<(&[Item], f64)> = labels[..rows.len()]
            .iter()
            .enumerate()
            .filter(|&(_, &outlier)| outlier)
            .map(|(r, _)| (rows.row(r), 1.0))
            .collect();
        let total_outliers = outliers.len() as f64;
        let total_inliers = (rows.len() - outliers.len()) as f64;
        let inliers = ScatteredInliers {
            pool,
            rows,
            labels,
            partitions,
        };
        self.explain_weighted(&outliers, &inliers, total_outliers, total_inliers)
    }

    /// Produce explanations from pre-render state — typically the merge of
    /// per-partition [`ExplainState`]s. Support and risk-ratio thresholds
    /// are applied to the *merged* counts, so the result is identical to
    /// explaining the concatenated partitions in one shot (no string-level
    /// union, no per-partition pruning).
    pub fn explain_state(&self, state: &ExplainState) -> Vec<Explanation> {
        let outliers = state.outlier_transactions();
        let inliers = state.inlier_transactions();
        let weighted_outliers: Vec<(&[Item], f64)> =
            outliers.iter().map(|(t, w)| (t.as_slice(), *w)).collect();
        let weighted_inliers: Vec<(&[Item], f64)> =
            inliers.iter().map(|(t, w)| (t.as_slice(), *w)).collect();
        self.explain_weighted(
            &weighted_outliers,
            weighted_inliers.as_slice(),
            state.total_outliers(),
            state.total_inliers(),
        )
    }

    /// The outlier-aware strategy over weighted, possibly pre-aggregated
    /// outlier transactions and an [`InlierRows`] source. `total_outliers`/
    /// `total_inliers` are passed explicitly because attribute-less points
    /// count toward class totals without appearing as transactions.
    fn explain_weighted<I: InlierRows + ?Sized>(
        &self,
        outliers: &[(&[Item], f64)],
        inliers: &I,
        total_outliers: f64,
        total_inliers: f64,
    ) -> Vec<Explanation> {
        self.explain_weighted_impl(outliers, inliers, total_outliers, total_inliers, true)
    }

    /// `explain_weighted` with the risk-ratio-ceiling pruning made optional so
    /// tests can pin pruned ≡ unpruned. The ceiling for a (combination of)
    /// attribute value(s) with outlier support `s` is its risk ratio assuming
    /// zero inlier occurrences — `risk_ratio_from_totals(s, 0, to, ti)` —
    /// which bounds the actual ratio from above and is nondecreasing in `s`.
    /// Anything whose ceiling misses `min_risk_ratio` would be discarded by
    /// the final actual-ratio filter anyway, so pruning on the ceiling (at
    /// candidate selection and inside FP-growth, where extension support can
    /// only shrink) is output-identical by construction.
    fn explain_weighted_impl<I: InlierRows + ?Sized>(
        &self,
        outliers: &[(&[Item], f64)],
        inliers: &I,
        total_outliers: f64,
        total_inliers: f64,
        prune: bool,
    ) -> Vec<Explanation> {
        if total_outliers <= 0.0 {
            return Vec::new();
        }
        let min_outlier_count = (self.config.min_support * total_outliers).max(1.0);
        let min_risk_ratio = self.config.min_risk_ratio;
        let ceiling = |support: f64| {
            risk_ratio_from_totals(support, 0.0, total_outliers, total_inliers) >= min_risk_ratio
        };

        // Stage 1a: count single attribute values over the (small) outlier
        // set. Per-item occurrences are gathered and aggregated by a stable
        // sort over (item, weight) pairs — within one item, weights still sum
        // in transaction order, so weighted totals are bit-identical to a
        // map-based accumulation.
        let mut outlier_pairs: Vec<(Item, f64)> = Vec::new();
        let mut seen: Vec<Item> = Vec::new();
        for (transaction, weight) in outliers {
            seen.clear();
            seen.extend_from_slice(transaction);
            seen.sort_unstable();
            seen.dedup();
            for &item in &seen {
                outlier_pairs.push((item, *weight));
            }
        }
        outlier_pairs.sort_by_key(|&(item, _)| item);
        let mut outlier_singles: Vec<(Item, f64)> = Vec::new();
        for (item, weight) in outlier_pairs {
            match outlier_singles.last_mut() {
                Some(last) if last.0 == item => last.1 += weight,
                _ => outlier_singles.push((item, weight)),
            }
        }
        // Candidates stay sorted by item id, so every later membership test
        // is a binary search over this small vector — no hashing anywhere on
        // the inlier-scan hot path.
        let candidates: Vec<(Item, f64)> = outlier_singles
            .iter()
            .copied()
            .filter(|&(_, count)| count >= min_outlier_count && (!prune || ceiling(count)))
            .collect();
        if candidates.is_empty() {
            return Vec::new();
        }
        let candidate_items: Vec<Item> = candidates.iter().map(|&(item, _)| item).collect();

        // Stage 1b: one pass over the inliers counting ONLY the supported
        // candidates (this is the cardinality-aware pruning).
        let candidate_inlier_counts = inliers.count(candidates.len(), |row, scratch| {
            candidate_hits(row, &candidate_items, scratch)
        });

        // Stage 1c: filter candidates by single-item risk ratio (sorted
        // order is preserved).
        let surviving: Vec<Item> = candidates
            .iter()
            .enumerate()
            .filter(|&(pos, &(_, ao))| {
                risk_ratio_from_totals(
                    ao,
                    candidate_inlier_counts[pos],
                    total_outliers,
                    total_inliers,
                ) >= self.config.min_risk_ratio
            })
            .map(|(_, &(item, _))| item)
            .collect();
        if surviving.is_empty() {
            return Vec::new();
        }

        // Stage 2: mine combinations over the outliers restricted to the
        // surviving attribute values.
        let filtered_outliers: Vec<(Vec<Item>, f64)> = outliers
            .iter()
            .map(|(t, weight)| {
                (
                    t.iter()
                        .copied()
                        .filter(|item| surviving.binary_search(item).is_ok())
                        .collect::<Vec<Item>>(),
                    *weight,
                )
            })
            .filter(|(items, _)| !items.is_empty())
            .collect();
        let tree = FpTree::from_weighted_transactions(&filtered_outliers, min_outlier_count);
        let mined: Vec<FrequentItemset> = if prune {
            tree.mine_with_bound(min_outlier_count, self.config.max_combination_size, ceiling)
        } else {
            tree.mine(min_outlier_count, self.config.max_combination_size)
        };

        // Stage 3: compute risk ratios; combinations (size >= 2) need one more
        // restricted pass over the inliers to obtain their inlier counts,
        // accumulated positionally alongside `combos`.
        let combos: Vec<&FrequentItemset> = mined.iter().filter(|m| m.len() >= 2).collect();
        let combo_inlier_counts = if combos.is_empty() {
            Vec::new()
        } else {
            inliers.count(combos.len(), |row, scratch| {
                combination_hits(row, &surviving, &combos, scratch)
            })
        };

        let mut explanations = Vec::new();
        let mut combo_pos = 0;
        for itemset in &mined {
            let ai = if itemset.len() == 1 {
                candidate_items
                    .binary_search(&itemset.items[0])
                    .map(|pos| candidate_inlier_counts[pos])
                    .unwrap_or(0.0)
            } else {
                let count = combo_inlier_counts[combo_pos];
                combo_pos += 1;
                count
            };
            let stats = ExplanationStats::from_counts(
                itemset.support,
                ai,
                total_outliers,
                total_inliers,
            );
            if stats.risk_ratio >= self.config.min_risk_ratio {
                explanations.push(Explanation::new(itemset.items.clone(), stats));
            }
        }
        explanations
    }
}

/// The naïve baseline: mine outliers AND inliers in full with FPGrowth, then
/// join the results to compute risk ratios (Section 6.3 / "FP" in Table 5).
/// Functionally it reports the same high-risk-ratio combinations, but it
/// spends most of its time mining inlier patterns that are discarded.
pub fn naive_fpgrowth_explain(
    outliers: &[Vec<Item>],
    inliers: &[Vec<Item>],
    config: &ExplanationConfig,
) -> Vec<Explanation> {
    let total_outliers = outliers.len() as f64;
    let total_inliers = inliers.len() as f64;
    if outliers.is_empty() {
        return Vec::new();
    }
    let min_outlier_count = (config.min_support * total_outliers).max(1.0);

    // Mine the outlier side.
    let outlier_tree = FpTree::from_transactions(outliers, min_outlier_count);
    let outlier_sets = outlier_tree.mine(min_outlier_count, config.max_combination_size);

    // Mine the inlier side in full at the same *relative* support — the
    // wasted work the optimized strategy avoids.
    let min_inlier_count = (config.min_support * total_inliers).max(1.0);
    let inlier_tree = FpTree::from_transactions(inliers, min_inlier_count);
    let inlier_sets = inlier_tree.mine(min_inlier_count, config.max_combination_size);
    let inlier_counts: HashMap<Vec<Item>, f64> = inlier_sets
        .into_iter()
        .map(|s| (s.items, s.support))
        .collect();

    let mut explanations = Vec::new();
    for itemset in outlier_sets {
        let ai = inlier_counts.get(&itemset.items).copied().unwrap_or(0.0);
        let stats =
            ExplanationStats::from_counts(itemset.support, ai, total_outliers, total_inliers);
        if stats.risk_ratio >= config.min_risk_ratio {
            explanations.push(Explanation::new(itemset.items, stats));
        }
    }
    explanations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::risk_ratio::rank_explanations;

    /// Build a synthetic workload where outliers are dominated by the
    /// attribute pair (1, 2) (e.g. device type B264 + app version 2.26.3)
    /// while inliers draw attributes from a wide pool.
    fn planted_workload(
        n_outliers: usize,
        n_inliers: usize,
        planted_fraction: f64,
    ) -> (Vec<Vec<Item>>, Vec<Vec<Item>>) {
        let planted = (n_outliers as f64 * planted_fraction) as usize;
        let mut outliers = Vec::with_capacity(n_outliers);
        for i in 0..n_outliers {
            if i < planted {
                outliers.push(vec![1, 2, 100 + (i % 10) as Item]);
            } else {
                outliers.push(vec![
                    10 + (i % 5) as Item,
                    20 + (i % 7) as Item,
                    100 + (i % 10) as Item,
                ]);
            }
        }
        let mut inliers = Vec::with_capacity(n_inliers);
        for i in 0..n_inliers {
            inliers.push(vec![
                10 + (i % 5) as Item,
                20 + (i % 7) as Item,
                100 + (i % 10) as Item,
            ]);
        }
        (outliers, inliers)
    }

    #[test]
    fn empty_outliers_yield_no_explanations() {
        let explainer = BatchExplainer::new(ExplanationConfig::default());
        assert!(explainer.explain(&[], &[vec![1, 2]]).is_empty());
    }

    #[test]
    fn finds_planted_combination() {
        let (outliers, inliers) = planted_workload(1_000, 50_000, 0.8);
        let explainer = BatchExplainer::new(ExplanationConfig::new(0.01, 3.0));
        let mut explanations = explainer.explain(&outliers, &inliers);
        rank_explanations(&mut explanations);
        assert!(!explanations.is_empty());
        // The planted pair must be reported with a very high risk ratio (it
        // never occurs among inliers, but 20% of outliers lack it, so the
        // ratio is large and finite).
        let pair = explanations.iter().find(|e| e.items == vec![1, 2]);
        assert!(pair.is_some(), "pair not found in {explanations:?}");
        let pair = pair.unwrap();
        assert!(pair.stats.risk_ratio > 100.0);
        assert!((pair.stats.outlier_support - 0.8).abs() < 0.01);
        // Common attributes (100..110 appear in both classes equally) must NOT
        // be reported.
        assert!(explanations
            .iter()
            .all(|e| e.items.iter().all(|&i| i < 100)));
    }

    #[test]
    fn risk_ratio_threshold_filters_common_attributes() {
        // Attribute 7 occurs in 100% of outliers but also 100% of inliers: it
        // has overwhelming support yet a risk ratio near 1 and must be pruned.
        let outliers: Vec<Vec<Item>> = (0..100).map(|_| vec![7, 1]).collect();
        let inliers: Vec<Vec<Item>> = (0..10_000).map(|i| vec![7, (i % 50 + 10) as Item]).collect();
        let explainer = BatchExplainer::new(ExplanationConfig::new(0.01, 3.0));
        let explanations = explainer.explain(&outliers, &inliers);
        assert!(explanations.iter().any(|e| e.items == vec![1]));
        assert!(!explanations.iter().any(|e| e.items == vec![7]));
        // And the pair {1, 7} is only reported if every subset passes; item 7
        // fails the single-item ratio test, so the pair is not explored.
        assert!(!explanations.iter().any(|e| e.items == vec![1, 7]));
    }

    #[test]
    fn support_threshold_filters_rare_combinations() {
        let mut outliers: Vec<Vec<Item>> = (0..1_000).map(|_| vec![1]).collect();
        outliers.push(vec![55]); // a single occurrence, below 1% support
        let inliers: Vec<Vec<Item>> = (0..10_000).map(|i| vec![(i % 50 + 100) as Item]).collect();
        let explainer = BatchExplainer::new(ExplanationConfig::new(0.01, 3.0));
        let explanations = explainer.explain(&outliers, &inliers);
        assert!(explanations.iter().any(|e| e.items == vec![1]));
        assert!(!explanations.iter().any(|e| e.items == vec![55]));
    }

    #[test]
    fn max_combination_size_is_respected() {
        let outliers: Vec<Vec<Item>> = (0..100).map(|_| vec![1, 2, 3, 4]).collect();
        let inliers: Vec<Vec<Item>> = (0..1_000).map(|i| vec![(i % 20 + 10) as Item]).collect();
        let explainer =
            BatchExplainer::new(ExplanationConfig::new(0.01, 3.0).with_max_combination_size(2));
        let explanations = explainer.explain(&outliers, &inliers);
        assert!(explanations.iter().all(|e| e.items.len() <= 2));
        assert!(explanations.iter().any(|e| e.items.len() == 2));
    }

    #[test]
    fn agrees_with_naive_baseline_on_planted_workload() {
        let (outliers, inliers) = planted_workload(500, 5_000, 0.6);
        let config = ExplanationConfig::new(0.05, 3.0);
        let explainer = BatchExplainer::new(config);
        let mut optimized = explainer.explain(&outliers, &inliers);
        let mut naive = naive_fpgrowth_explain(&outliers, &inliers, &config);
        rank_explanations(&mut optimized);
        rank_explanations(&mut naive);
        // Both must report the planted pair and its two members at the top.
        for explanations in [&optimized, &naive] {
            assert!(explanations.iter().any(|e| e.items == vec![1]));
            assert!(explanations.iter().any(|e| e.items == vec![2]));
            assert!(explanations.iter().any(|e| e.items == vec![1, 2]));
        }
        // And the optimized strategy reports no combination the naive one
        // misses (it may legitimately report a superset because the naive
        // baseline only counts inlier combinations above the inlier support
        // threshold).
        let naive_keys: std::collections::HashSet<&Vec<Item>> =
            naive.iter().map(|e| &e.items).collect();
        let optimized_with_finite_rr = optimized
            .iter()
            .filter(|e| e.stats.risk_ratio.is_finite())
            .count();
        let overlap = optimized
            .iter()
            .filter(|e| naive_keys.contains(&e.items))
            .count();
        assert!(overlap >= optimized_with_finite_rr.min(naive.len()));
    }

    fn assert_same_explanations(mut a: Vec<Explanation>, mut b: Vec<Explanation>) {
        rank_explanations(&mut a);
        rank_explanations(&mut b);
        assert_eq!(
            a.len(),
            b.len(),
            "explanation sets differ in size: {a:?} vs {b:?}"
        );
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.items, y.items);
            assert!((x.stats.outlier_count - y.stats.outlier_count).abs() < 1e-9);
            assert!((x.stats.inlier_count - y.stats.inlier_count).abs() < 1e-9);
            let same_ratio = (x.stats.risk_ratio - y.stats.risk_ratio).abs() < 1e-9
                || (x.stats.risk_ratio.is_infinite() && y.stats.risk_ratio.is_infinite());
            assert!(same_ratio, "risk ratios differ: {x:?} vs {y:?}");
        }
    }

    #[test]
    fn explain_state_is_exactly_explain() {
        let (outliers, inliers) = planted_workload(1_000, 20_000, 0.8);
        let explainer = BatchExplainer::new(ExplanationConfig::new(0.01, 3.0));
        let mut state = ExplainState::new();
        for t in &outliers {
            state.observe(t, true);
        }
        for t in &inliers {
            state.observe(t, false);
        }
        assert_same_explanations(
            explainer.explain_state(&state),
            explainer.explain(&outliers, &inliers),
        );
    }

    #[test]
    fn merged_partition_states_reproduce_one_shot_explanations() {
        use mb_sketch::Mergeable;
        let (outliers, inliers) = planted_workload(1_000, 20_000, 0.7);
        let explainer = BatchExplainer::new(ExplanationConfig::new(0.01, 3.0));
        // Scatter the classified stream over 4 partition states round-robin,
        // so per-partition supports are well below the global threshold.
        let mut states: Vec<ExplainState> = (0..4).map(|_| ExplainState::new()).collect();
        for (i, t) in outliers.iter().enumerate() {
            states[i % 4].observe(t, true);
        }
        for (i, t) in inliers.iter().enumerate() {
            states[i % 4].observe(t, false);
        }
        let mut merged = states.remove(0);
        for state in states {
            merged.merge(state);
        }
        assert_same_explanations(
            explainer.explain_state(&merged),
            explainer.explain(&outliers, &inliers),
        );
    }

    #[test]
    fn explain_state_on_empty_state_is_empty() {
        let explainer = BatchExplainer::new(ExplanationConfig::default());
        assert!(explainer.explain_state(&ExplainState::new()).is_empty());
    }

    #[test]
    fn degenerate_all_points_identical_reports_nothing() {
        // Every point (and there are no inliers) carries the same attributes:
        // there is no comparison group, so nothing is reportable.
        let outliers: Vec<Vec<Item>> = (0..100).map(|_| vec![1, 2]).collect();
        let explainer = BatchExplainer::new(ExplanationConfig::new(0.1, 3.0));
        let explanations = explainer.explain(&outliers, &[]);
        assert!(explanations.is_empty());
    }

    #[test]
    fn explain_labeled_is_exactly_explain() {
        let (outliers, inliers) = planted_workload(1_000, 20_000, 0.8);
        // Interleave the classes into one columnar batch the way an executor
        // would see them, with a label predicate recovering the class.
        let mut batch = ItemBatch::new();
        let mut labels = Vec::new();
        let (mut oi, mut ii) = (0usize, 0usize);
        while oi < outliers.len() || ii < inliers.len() {
            if oi < outliers.len() {
                batch.push_row(&outliers[oi]);
                labels.push(true);
                oi += 1;
            }
            for _ in 0..20 {
                if ii < inliers.len() {
                    batch.push_row(&inliers[ii]);
                    labels.push(false);
                    ii += 1;
                }
            }
        }
        let explainer = BatchExplainer::new(ExplanationConfig::new(0.01, 3.0));
        assert_same_explanations(
            explainer.explain_labeled(&Pool::new(2), &batch, &labels, 4),
            explainer.explain(&outliers, &inliers),
        );
    }

    /// Pools of width 1 and 3, shared by the bit-identity tests.
    fn pools() -> &'static [Pool; 2] {
        static POOLS: std::sync::OnceLock<[Pool; 2]> = std::sync::OnceLock::new();
        POOLS.get_or_init(|| [Pool::new(1), Pool::new(3)])
    }

    /// `explain_labeled` at partitions 1..=8 on both pools must equal
    /// `explain` over the same rows split by label: same explanations in
    /// the same order, every stats field equal bit for bit.
    fn check_labeled_bit_identity(
        explainer: &BatchExplainer,
        rows: &ItemBatch,
        labels: &[bool],
    ) -> Result<(), String> {
        let (mut outliers, mut inliers) = (Vec::new(), Vec::new());
        for (row, &outlier) in rows.iter().zip(labels) {
            if outlier {
                outliers.push(row.to_vec());
            } else {
                inliers.push(row.to_vec());
            }
        }
        let reference = explainer.explain(&outliers, &inliers);
        let bits = |s: &ExplanationStats| {
            [
                s.outlier_count,
                s.inlier_count,
                s.outlier_support,
                s.risk_ratio,
                s.total_outliers,
                s.total_inliers,
            ]
            .map(f64::to_bits)
        };
        for pool in pools() {
            for partitions in 1..=8 {
                let labeled = explainer.explain_labeled(pool, rows, labels, partitions);
                let same = labeled.len() == reference.len()
                    && labeled
                        .iter()
                        .zip(&reference)
                        .all(|(a, b)| a.items == b.items && bits(&a.stats) == bits(&b.stats));
                if !same {
                    return Err(format!(
                        "{} threads, {partitions} partitions: {labeled:?} != {reference:?}",
                        pool.num_threads()
                    ));
                }
            }
        }
        Ok(())
    }

    #[test]
    fn explain_labeled_is_bit_identical_on_edge_batches() {
        let explainer = BatchExplainer::new(ExplanationConfig::new(0.05, 2.0));
        let (outliers, inliers) = planted_workload(40, 400, 0.7);
        let planted: ItemBatch = outliers.iter().chain(&inliers).cloned().collect();
        let mut planted_labels = vec![true; outliers.len()];
        planted_labels.resize(planted.len(), false);
        let varied: ItemBatch = (0..300u32)
            .map(|i| match i % 4 {
                0 => Vec::new(),
                1 => vec![i % 7, i % 7, 20 + i % 3],
                _ => vec![i % 7, 20 + i % 3],
            })
            .collect();
        let varied_labels: Vec<bool> = (0..300).map(|i| i % 7 == 3).collect();
        let cases: [(&str, ItemBatch, Vec<bool>); 6] = [
            ("empty batch", ItemBatch::new(), Vec::new()),
            ("all inliers", varied.clone(), vec![false; varied.len()]),
            ("all outliers", varied.clone(), vec![true; varied.len()]),
            (
                "attribute-less rows",
                (0..50).map(|_| Vec::new()).collect(),
                (0..50).map(|i| i % 5 == 0).collect(),
            ),
            ("duplicate items within rows", varied, varied_labels),
            ("planted pair", planted, planted_labels),
        ];
        for (name, rows, labels) in &cases {
            if let Err(message) = check_labeled_bit_identity(&explainer, rows, labels) {
                panic!("{name}: {message}");
            }
        }
    }

    mod labeled_props {
        use super::*;
        use proptest::prelude::*;

        const MAX_ROWS: usize = 150;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            // Random rows (empty ones and repeated items included), a random
            // outlier share from none to all, and up to 40 appended rows
            // carrying a planted pair, nine in ten of them outliers: the
            // partitioned explain must be bit-identical to the serial one at
            // every partition count.
            #[test]
            fn partitioned_explain_labeled_equals_explain(
                rows in prop::collection::vec(prop::collection::vec(0u32..10, 0..6), 0..MAX_ROWS),
                draws in prop::collection::vec(0u8..100, MAX_ROWS + 40..MAX_ROWS + 41),
                outlier_percent in 0u8..101,
                planted in 0usize..40,
                min_support in 0.01f64..0.5,
                min_risk_ratio in 1.0f64..10.0,
            ) {
                let explainer = BatchExplainer::new(
                    ExplanationConfig::new(min_support, min_risk_ratio),
                );
                let mut batch: ItemBatch = rows.into_iter().collect();
                let mut labels: Vec<bool> = (0..batch.len())
                    .map(|r| draws[r] < outlier_percent)
                    .collect();
                for i in 0..planted {
                    batch.push_row(&[1, 2, (i % 3) as Item]);
                    labels.push(draws[MAX_ROWS + i] < 90);
                }
                check_labeled_bit_identity(&explainer, &batch, &labels)?;
            }
        }
    }

    #[test]
    fn pruned_equals_unpruned_on_planted_workload() {
        let (outliers, inliers) = planted_workload(1_000, 50_000, 0.8);
        let explainer = BatchExplainer::new(ExplanationConfig::new(0.01, 3.0));
        let wo: Vec<(&[Item], f64)> = outliers.iter().map(|t| (t.as_slice(), 1.0)).collect();
        let wi: Vec<(&[Item], f64)> = inliers.iter().map(|t| (t.as_slice(), 1.0)).collect();
        let (to, ti) = (outliers.len() as f64, inliers.len() as f64);
        assert_same_explanations(
            explainer.explain_weighted_impl(&wo, wi.as_slice(), to, ti, true),
            explainer.explain_weighted_impl(&wo, wi.as_slice(), to, ti, false),
        );
    }

    mod pruning_props {
        use super::*;
        use proptest::prelude::*;

        fn transactions(
            max_len: usize,
            universe: Item,
            max_txns: usize,
        ) -> impl Strategy<Value = Vec<Vec<Item>>> {
            prop::collection::vec(
                prop::collection::vec(0..universe, 0..max_len + 1),
                0..max_txns + 1,
            )
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            // The risk-ratio-ceiling pruning (candidate pre-filter + bounded
            // FP-growth descent) must be output-identical to the unpruned
            // pipeline on arbitrary transaction sets and thresholds.
            #[test]
            fn pruned_explanations_equal_unpruned(
                outliers in transactions(5, 12, 40),
                inliers in transactions(5, 12, 200),
                min_support in 0.01f64..0.5,
                min_risk_ratio in 1.0f64..10.0,
            ) {
                let explainer = BatchExplainer::new(
                    ExplanationConfig::new(min_support, min_risk_ratio),
                );
                let wo: Vec<(&[Item], f64)> =
                    outliers.iter().map(|t| (t.as_slice(), 1.0)).collect();
                let wi: Vec<(&[Item], f64)> =
                    inliers.iter().map(|t| (t.as_slice(), 1.0)).collect();
                let (to, ti) = (outliers.len() as f64, inliers.len() as f64);
                let pruned = explainer.explain_weighted_impl(&wo, wi.as_slice(), to, ti, true);
                let unpruned = explainer.explain_weighted_impl(&wo, wi.as_slice(), to, ti, false);
                assert_same_explanations(pruned, unpruned);
            }
        }
    }

    #[test]
    fn outliers_without_inliers_partial_support_is_reported() {
        // Half the outliers carry item 1; with no inliers the unexposed group
        // is the other outliers, so the risk ratio is finite but > 1 only if
        // the exposed rate exceeds the unexposed rate - here every exposed
        // point is an outlier and so is every unexposed one, giving ratio 1
        // and therefore no explanation. Add inliers lacking the item to get a
        // reportable ratio.
        let mut outliers: Vec<Vec<Item>> = (0..50).map(|_| vec![1, 2]).collect();
        outliers.extend((0..50).map(|_| vec![3, 4]));
        let inliers: Vec<Vec<Item>> = (0..1000).map(|_| vec![3, 4]).collect();
        let explainer = BatchExplainer::new(ExplanationConfig::new(0.1, 3.0));
        let explanations = explainer.explain(&outliers, &inliers);
        assert!(explanations.iter().any(|e| e.items == vec![1, 2]));
        assert!(!explanations.iter().any(|e| e.items == vec![3, 4]));
    }
}
