//! Measurement helpers shared by every workload: the benchmark's one clock,
//! order statistics, report digests and comparisons, and process memory.

use macrobase_core::types::MdpReport;
use std::collections::BTreeSet;
use std::time::Instant;

/// The benchmark's only clock read. Every span in this package starts here,
/// so the timing source is one line to audit.
pub fn now() -> Instant {
    Instant::now() // mb-lint: allow(no-adhoc-clock) -- the benchmark times calls into the program from outside it
}

/// Build a workload's inputs five times, keeping the last build, and
/// return it with the median build time in seconds. The median keeps one
/// slow build from moving `setup_s`; the repeats make work moved into
/// set-up show.
pub fn timed_setup<T>(mut build: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(5);
    let mut built = None;
    for _ in 0..5 {
        drop(built.take());
        let start = now();
        built = Some(build());
        times.push(secs_since(start));
    }
    let built = built.unwrap_or_else(build);
    (built, median(&times))
}

/// Seconds since `start`.
pub fn secs_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Milliseconds since `start`.
pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Nanoseconds since `start`.
pub fn ns_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e9
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) with linear interpolation between order
/// statistics; `NaN` for no samples. Infinite samples (rejected requests)
/// sort last and propagate into the quantiles they reach.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi || sorted[lo] == sorted[hi] {
        return sorted[lo];
    }
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median (see [`quantile`]).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Group `(kind, value)` samples by kind and return each kind's median,
/// in kind order. Report latencies are summarised over these: the host's
/// speed swings by up to 2x for seconds at a time, and a per-kind median
/// over a whole run shrugs that off where a pooled tail does not.
pub fn kind_medians<K: Ord>(samples: impl IntoIterator<Item = (K, f64)>) -> Vec<f64> {
    let mut kinds: std::collections::BTreeMap<K, Vec<f64>> = std::collections::BTreeMap::new();
    for (kind, value) in samples {
        kinds.entry(kind).or_default().push(value);
    }
    kinds.values().map(|v| median(v)).collect()
}

/// The `q`-quantile of a log₂-bucketed histogram snapshot, interpolated
/// linearly inside the bucket that holds it and capped at the recorded
/// maximum. Milliseconds; `NaN` when empty.
pub fn histogram_quantile_ms(h: &mb_obs::HistogramSnapshot, q: f64) -> f64 {
    if h.count == 0 {
        return f64::NAN;
    }
    let rank = q.clamp(0.0, 1.0) * h.count as f64;
    let mut seen = 0.0;
    for &(exp, count) in &h.buckets {
        let next = seen + count as f64;
        if next >= rank {
            let lo = (1u64 << exp) as f64;
            let hi = ((1u64 << exp) as f64 * 2.0).min(h.max_ns as f64).max(lo);
            let within = if count == 0 {
                0.0
            } else {
                (rank - seen) / count as f64
            };
            return (lo + (hi - lo) * within) / 1e6;
        }
        seen = next;
    }
    h.max_ns as f64 / 1e6
}

/// Peak resident set size of this process in MiB (`VmHWM`), `NaN` where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return f64::NAN;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// A fixed benchmark-side CPU kernel (sort 200K floats, hash 4 MiB),
/// independent of the program under test: its time tracks the host's
/// speed. Returns the median of `reps` timings in milliseconds.
pub fn calibration_ms(reps: usize) -> f64 {
    let mut times = Vec::with_capacity(reps + 1);
    for _ in 0..=reps {
        let start = now();
        let mut rng = mb_stats::rand_ext::SplitMix64::new(0xca1b);
        let mut values: Vec<f64> = (0..200_000).map(|_| rng.next_f64()).collect();
        values.sort_by(|a, b| a.total_cmp(b));
        let bytes: Vec<u8> = (0..4 << 20)
            .map(|i: u32| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        std::hint::black_box((values[values.len() / 2], fnv64(&bytes)));
        times.push(ms_since(start));
    }
    // The first repetition pays for page faults; it is not host speed.
    median(&times[1..])
}

/// 64-bit FNV-1a.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// A report's wire bytes (the `core::wire` encoding the server also
/// speaks), so "byte-equal" means equal on the wire.
pub fn report_bytes(report: &MdpReport) -> String {
    macrobase_core::wire::report_to_string(report)
}

/// The report with its trace removed, as wire bytes.
pub fn untraced_bytes(report: &MdpReport) -> String {
    let mut copy = report.clone();
    copy.trace = None;
    report_bytes(&copy)
}

/// The top-`k` explanations as order-free attribute combinations.
pub fn top_k(report: &MdpReport, k: usize) -> BTreeSet<Vec<String>> {
    report
        .explanations
        .iter()
        .take(k)
        .map(|e| {
            let mut combo = e.attributes.clone();
            combo.sort();
            combo
        })
        .collect()
}

/// Jaccard similarity of two explanation sets (1 when both are empty).
pub fn jaccard(a: &BTreeSet<Vec<String>>, b: &BTreeSet<Vec<String>>) -> f64 {
    let union = a.union(b).count();
    if union == 0 {
        return 1.0;
    }
    a.intersection(b).count() as f64 / union as f64
}

/// Whether any of the top-`k` explanations names an attribute value that
/// ends with `=<value>` for one of `planted`.
pub fn planted_in_top(report: &MdpReport, planted: &[String], k: usize) -> bool {
    report.explanations.iter().take(k).any(|e| {
        e.attributes.iter().any(|attr| {
            planted
                .iter()
                .any(|p| attr.rsplit_once('=').is_some_and(|(_, v)| v == p))
        })
    })
}

/// Tallies operations and the output checks they fail. Every failure is
/// printed to stderr (the first few in full) and counted once per
/// operation.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    /// Record one operation; `problem` is `None` when every check passed.
    pub fn op(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(problem) = problem {
            self.failed += 1;
            if self.failed <= 20 {
                eprintln!("check failed: {problem}");
            }
        }
    }

    /// Fold another tally in.
    pub fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Share of attempted operations that passed every check.
    pub fn ok_share(&self) -> f64 {
        if self.attempted == 0 {
            return f64::NAN;
        }
        (self.attempted - self.failed) as f64 / self.attempted as f64
    }
}

/// One named metric value.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
}

/// An ordered set of metrics; later `set`s of the same name overwrite.
/// Units live with the metric lists in `main.rs`.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        match self.0.iter_mut().find(|m| m.name == name) {
            Some(m) => m.value = value,
            None => self.0.push(Metric {
                name: name.to_string(),
                value,
            }),
        }
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.0.iter().find(|m| m.name == name)
    }

    /// Copy in every metric of `other` this set does not have yet.
    pub fn fill_from(&mut self, other: &Metrics) {
        for m in &other.0 {
            if self.get(&m.name).is_none() {
                self.0.push(m.clone());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_like_numpy_linear() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&[1.0, f64::INFINITY], 1.0), f64::INFINITY);
        assert!(quantile(&[], 0.5).is_nan());
        assert_eq!(
            kind_medians([("b", 5.0), ("a", 1.0), ("b", 7.0), ("a", 3.0), ("b", 6.0)]),
            vec![2.0, 6.0]
        );
    }

    #[test]
    fn histogram_quantile_stays_inside_its_bucket() {
        let mut h = mb_obs::LatencyHistogram::new();
        for ns in [1_000_000u64, 1_100_000, 1_200_000, 3_000_000] {
            h.record_ns(ns);
        }
        let snap = h.snapshot("x");
        let p50 = histogram_quantile_ms(&snap, 0.5);
        assert!((0.524..=2.1).contains(&p50), "{p50}");
        assert!(histogram_quantile_ms(&snap, 1.0) <= 3.0 + 1e-9);
    }

    #[test]
    fn jaccard_and_checks() {
        let a: BTreeSet<Vec<String>> = [vec!["x".to_string()]].into_iter().collect();
        let b: BTreeSet<Vec<String>> = BTreeSet::new();
        assert_eq!(jaccard(&a, &a), 1.0);
        assert_eq!(jaccard(&a, &b), 0.0);
        assert_eq!(jaccard(&b, &b), 1.0);
        let mut c = Checks::default();
        c.op(None);
        c.op(Some("bad".to_string()));
        assert_eq!((c.attempted, c.failed), (2, 1));
        assert_eq!(c.ok_share(), 0.5);
    }
}
