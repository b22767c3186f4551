//! The batch workloads: one-shot MDP with explanation over the Table 2
//! shapes.
//!
//! * `batch_univariate` — the six simple views plus the EC and FC complex
//!   views (one metric, five and six attributes). Every query runs three
//!   ways: `execute` over a point slice, `execute_ingest` from a
//!   `CsvIngestor` reading the same rows as in-memory CSV, and the
//!   coordinated executor at one partition per pool worker. MAD training is
//!   cheap here, so ingest, flatten, encode, score, explain and FP-growth
//!   carry the time.
//! * `batch_mcd` — the four multivariate complex views (LC, TC, AC, MC),
//!   one-shot over a slice. FastMCD training dominates.

use crate::util::{self, Checks, Metrics};
use macrobase_core::operator::CsvIngestor;
use macrobase_core::query::{AnalysisConfig, Executor, MdpQuery};
use macrobase_core::types::{MdpReport, Point};
use mb_classify::batch::{BatchClassifier, BatchClassifierConfig};
use mb_explain::batch::BatchExplainer;
use mb_explain::encoder::{encode_batch_parallel, AttributeEncoder};
use mb_explain::risk_ratio::{rank_explanations, risk_ratio_from_totals};
use mb_explain::{ExplainState, ExplanationConfig, Mergeable};
use mb_fpgrowth::fptree::FpTree;
use mb_fpgrowth::Item;
use mb_ingest::csv::CsvQuery;
use mb_ingest::datasets::{generate_dataset, simple_query_view, DatasetId, DatasetScale};
use mb_obs::{stage, ObsConfig, QueryTrace};
use std::collections::{BTreeMap, BTreeSet};

/// Which batch workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    Univariate,
    Mcd,
}

impl Family {
    /// `(dataset, complex view?)` for every query of the workload.
    fn shapes(self) -> Vec<(DatasetId, bool)> {
        match self {
            Family::Univariate => {
                let mut shapes: Vec<(DatasetId, bool)> =
                    DatasetId::all().into_iter().map(|id| (id, false)).collect();
                shapes.push((DatasetId::Campaign, true));
                shapes.push((DatasetId::Disburse, true));
                shapes
            }
            Family::Mcd => vec![
                (DatasetId::Liquor, true),
                (DatasetId::Telecom, true),
                (DatasetId::Accidents, true),
                (DatasetId::Cmt, true),
            ],
        }
    }

    /// Paper row counts are divided by this. Sized so one pass over every
    /// query and execution path takes well under a second, giving a
    /// measured window of many passes.
    fn divisor(self, probe: bool) -> usize {
        match (self, probe) {
            (Family::Univariate, false) => 200,
            (Family::Univariate, true) => 2_000,
            (Family::Mcd, false) => 1_000,
            (Family::Mcd, true) => 10_000,
        }
    }

    /// Independently drawn datasets per shape. FastMCD's work depends on
    /// how fast its C-steps converge on the particular rows, which varies
    /// from draw to draw, so the MCD workload averages three draws.
    fn copies(self, probe: bool) -> u64 {
        match (self, probe) {
            (Family::Mcd, false) => 3,
            _ => 1,
        }
    }

    /// The execution paths each query runs.
    fn ways(self) -> &'static [Way] {
        match self {
            Family::Univariate => &[Way::Slice, Way::Csv, Way::Coordinated],
            Family::Mcd => &[Way::Slice],
        }
    }
}

/// The scale line of the run fingerprint.
pub fn scale(family: Family) -> String {
    format!(
        "paper rows / {}; {} shapes x {} draws x {} paths",
        family.divisor(false),
        family.shapes().len(),
        family.copies(false),
        family.ways().len()
    )
}

/// How a query reaches the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Way {
    Slice,
    Csv,
    Coordinated,
}

impl Way {
    fn name(self) -> &'static str {
        match self {
            Way::Slice => "slice",
            Way::Csv => "csv",
            Way::Coordinated => "coordinated",
        }
    }
}

/// Rows handed to the engine per `CsvIngestor` batch.
const CSV_BATCH_ROWS: usize = 4_096;

/// Explanation thresholds of the paper's Table 2 runs.
fn explanation() -> ExplanationConfig {
    ExplanationConfig::new(0.001, 3.0)
}

fn analysis(traced: bool) -> AnalysisConfig {
    AnalysisConfig {
        explanation: explanation(),
        obs: if traced {
            ObsConfig::enabled()
        } else {
            ObsConfig::default()
        },
        ..AnalysisConfig::default()
    }
}

/// One query's input, in both forms the engine accepts.
struct Query {
    name: String,
    points: Vec<Point>,
    csv: String,
    csv_query: CsvQuery,
    dim: usize,
    /// Attribute values the generator planted on the anomalous rows.
    planted: Vec<String>,
}

fn to_csv(points: &[Point]) -> (String, CsvQuery) {
    let dim = points.first().map_or(0, |p| p.metrics.len());
    let attrs = points.first().map_or(0, |p| p.attributes.len());
    let metric_columns: Vec<String> = (0..dim).map(|i| format!("m{i}")).collect();
    let attribute_columns: Vec<String> = (0..attrs).map(|i| format!("a{i}")).collect();
    let mut csv = String::with_capacity(points.len() * (12 * dim + 10 * attrs));
    csv.push_str(
        &metric_columns
            .iter()
            .chain(&attribute_columns)
            .cloned()
            .collect::<Vec<_>>()
            .join(","),
    );
    csv.push('\n');
    for p in points {
        let fields: Vec<String> = p
            .metrics
            .iter()
            .map(|m| format!("{m}"))
            .chain(p.attributes.iter().cloned())
            .collect();
        csv.push_str(&fields.join(","));
        csv.push('\n');
    }
    (csv, CsvQuery::new(metric_columns, attribute_columns))
}

fn build_queries(family: Family, seed: u64, probe: bool) -> Vec<Query> {
    let scale = DatasetScale {
        divisor: family.divisor(probe),
    };
    let mut datasets = BTreeMap::new();
    let mut queries = Vec::new();
    let copies = family.copies(probe);
    for copy in 0..copies {
        for (id, complex) in family.shapes() {
            let dataset = datasets
                .entry((id.query_prefix(), copy))
                .or_insert_with(|| {
                    generate_dataset(id, scale, seed.wrapping_add(copy.wrapping_mul(0x9E37_79B9)))
                });
            let records = if complex {
                dataset.records.clone()
            } else {
                simple_query_view(dataset)
            };
            let points: Vec<Point> = records
                .into_iter()
                .map(|r| Point::new(r.metrics, r.attributes))
                .collect();
            let planted = dataset
                .planted_attributes
                .iter()
                .filter(|(col, _)| complex || *col == 0)
                .map(|(_, value)| value.clone())
                .collect();
            let (csv, csv_query) = to_csv(&points);
            let view = if complex { "C" } else { "S" };
            queries.push(Query {
                name: if copies > 1 {
                    format!("{}{view}#{copy}", id.query_prefix())
                } else {
                    format!("{}{view}", id.query_prefix())
                },
                dim: points.first().map_or(0, |p| p.metrics.len()),
                points,
                csv,
                csv_query,
                planted,
            });
        }
    }
    queries
}

fn execute(query: &Query, way: Way, traced: bool) -> Result<MdpReport, String> {
    let mut mdp = MdpQuery::new(analysis(traced));
    let result = match way {
        Way::Slice => mdp.execute(&Executor::OneShot, &query.points),
        Way::Coordinated => mdp.execute(&Executor::Coordinated { partitions: 0 }, &query.points),
        Way::Csv => {
            let mut source =
                CsvIngestor::new(query.csv.as_bytes(), &query.csv_query, CSV_BATCH_ROWS)
                    .map_err(|e| e.to_string())?;
            mdp.execute_ingest(&Executor::OneShot, &mut source)
        }
    };
    result.map_err(|e| e.to_string())
}

/// End-to-end run: whole passes over every query and path until the
/// window closes.
pub fn run(family: Family, seed: u64, seconds: f64) -> (Metrics, Checks) {
    let (queries, setup_s) = util::timed_setup(|| build_queries(family, seed, false));
    let mut checks = Checks::default();
    let mut latencies = Vec::new();
    let mut reference: Vec<Option<(String, BTreeSet<Vec<String>>)>> = vec![None; queries.len()];
    let mut pass_rates = Vec::new();
    let mut agreement = Vec::new();
    let start = util::now();
    while util::secs_since(start) < seconds {
        let mut rows = 0usize;
        let mut busy = 0.0;
        for (qi, query) in queries.iter().enumerate() {
            for &way in family.ways() {
                let t = util::now();
                let result = std::hint::black_box(execute(query, way, false));
                let elapsed = util::secs_since(t);
                busy += elapsed;
                rows += query.points.len();
                latencies.push(((qi, way.name()), elapsed * 1e3));
                let report = match result {
                    Ok(report) => report,
                    Err(e) => {
                        checks.op(Some(format!("{} {}: {e}", query.name, way.name())));
                        continue;
                    }
                };
                let bytes = util::report_bytes(&report);
                let top = util::top_k(&report, 10);
                let (expected, expected_top) = match &reference[qi] {
                    Some(r) => r,
                    None => reference[qi].insert((bytes.clone(), top.clone())),
                };
                // Every report after the first is compared with the first
                // slice report of its query: other paths and later passes.
                if pass_rates.len() + usize::from(way != Way::Slice) > 0 {
                    agreement.push(util::jaccard(expected_top, &top));
                }
                let mut problem = None;
                if bytes != *expected {
                    problem = Some(format!(
                        "{} {}: report differs from the first slice report",
                        query.name,
                        way.name()
                    ));
                } else if way == Way::Slice && !util::planted_in_top(&report, &query.planted, 3) {
                    problem = Some(format!(
                        "{}: planted {:?} not in the top 3 explanations",
                        query.name, query.planted
                    ));
                }
                checks.op(problem);
            }
        }
        pass_rates.push(rows as f64 / busy);
    }
    let kind_medians = util::kind_medians(latencies);
    let mut metrics = Metrics::default();
    metrics.set("rows_per_s", util::median(&pass_rates));
    metrics.set("report_p50_ms", util::median(&kind_medians));
    metrics.set("report_p90_ms", util::quantile(&kind_medians, 0.9));
    metrics.set(
        "explain_agreement",
        agreement.iter().sum::<f64>() / agreement.len() as f64,
    );
    metrics.set("ok_share", checks.ok_share());
    metrics.set("setup_s", setup_s);
    metrics.set("peak_rss_mb", util::peak_rss_mb());
    println!(
        "{} passes (rows/s min {:.0} median {:.0} max {:.0}), {} report kinds, {} agreement samples",
        pass_rates.len(),
        pass_rates.iter().copied().fold(f64::INFINITY, f64::min),
        util::median(&pass_rates),
        pass_rates.iter().copied().fold(0.0, f64::max),
        kind_medians.len(),
        agreement.len()
    );
    (metrics, checks)
}

/// Sums of stage wall times (ns) and rows over a set of traces.
#[derive(Default)]
struct StageSums {
    ns: BTreeMap<String, f64>,
    rows: f64,
    root_ns: f64,
    calls: f64,
    counters: BTreeMap<String, f64>,
}

impl StageSums {
    fn add(&mut self, trace: &QueryTrace, rows: usize, root_ns: f64) {
        for s in &trace.stages {
            *self.ns.entry(s.stage.clone()).or_default() += s.wall_ns as f64;
        }
        for (name, value) in &trace.counters {
            *self.counters.entry(name.clone()).or_default() += *value as f64;
        }
        self.rows += rows as f64;
        self.root_ns += root_ns;
        self.calls += 1.0;
    }

    fn stage(&self, name: &str) -> f64 {
        self.ns.get(name).copied().unwrap_or(0.0)
    }

    fn staged(&self) -> f64 {
        self.ns.values().sum()
    }
}

/// What replaying one query's explanation layer through public calls
/// measured.
struct Replay {
    dictionary_items: f64,
    tree_nodes: f64,
    mine_ms: f64,
    itemsets: f64,
    explanations: f64,
    /// Merging per-partition explanation states, when the workload runs
    /// the coordinated executor.
    merge_ms: Option<f64>,
}

/// Labels from the public batch classifier — the same fit → score →
/// threshold sequence the engine runs. Returns labels and the cutoff.
fn replay_labels<E: mb_stats::Estimator>(
    estimator: E,
    flat: &[f64],
    dim: usize,
) -> Result<(Vec<bool>, Option<f64>), String> {
    let config = BatchClassifierConfig {
        target_percentile: AnalysisConfig::default().target_percentile,
        training_sample_size: None,
    };
    let mut classifier = BatchClassifier::new(estimator, config);
    let labels = classifier
        .classify_batch_flat(flat, dim)
        .map_err(|e| e.to_string())?
        .iter()
        .map(|c| c.label.is_outlier())
        .collect();
    Ok((labels, classifier.threshold().map(|t| t.cutoff())))
}

/// Replay the classify → encode → explain-state → FP-growth path of one
/// slice query through the layers' public entry points, and check that it
/// reproduces the engine's labels and explanations. With `partitions`, the
/// coordinated executor's gather step is replayed too: per-partition
/// states over contiguous row ranges, merged, then explained.
fn replay(query: &Query, report: &MdpReport, partitions: Option<usize>) -> Result<Replay, String> {
    let flat: Vec<f64> = query
        .points
        .iter()
        .flat_map(|p| p.metrics.iter().copied())
        .collect();
    let (labels, cutoff) = if query.dim == 1 {
        replay_labels(mb_stats::mad::MadEstimator::new(), &flat, query.dim)?
    } else {
        replay_labels(
            mb_stats::mcd::McdEstimator::with_defaults(),
            &flat,
            query.dim,
        )?
    };
    let outliers = labels.iter().filter(|l| **l).count();
    if outliers != report.num_outliers || cutoff != report.score_cutoff {
        return Err(format!(
            "{}: replayed labels ({outliers} outliers, cutoff {cutoff:?}) differ from the report ({}, {:?})",
            query.name, report.num_outliers, report.score_cutoff
        ));
    }

    let mut encoder = AttributeEncoder::new();
    let rows: Vec<&[String]> = query
        .points
        .iter()
        .map(|p| p.attributes.as_slice())
        .collect();
    let batch = encode_batch_parallel(
        &mut encoder,
        mb_pool::global(),
        &rows,
        macrobase_core::default_num_partitions(),
    );
    let mut state = ExplainState::new();
    for (row, items) in batch.iter().enumerate() {
        state.observe(items, labels[row]);
    }
    let config = explanation();
    let mut explained = BatchExplainer::new(config).explain_state(&state);
    rank_explanations(&mut explained);
    let same = explained.len() == report.explanations.len()
        && explained.iter().zip(&report.explanations).all(|(e, r)| {
            e.items == r.items && e.stats == r.stats && encoder.describe(&e.items) == r.attributes
        });
    if !same {
        return Err(format!(
            "{}: replayed explanations ({}) differ from the report ({})",
            query.name,
            explained.len(),
            report.explanations.len()
        ));
    }

    // The FP-growth stage mines the outlier rows restricted to the values
    // that survived the single-item risk-ratio filter, which are exactly
    // the single-item explanations.
    let total_outliers = state.total_outliers();
    let total_inliers = state.total_inliers();
    let min_count = (config.min_support * total_outliers).max(1.0);
    let mut surviving: Vec<Item> = explained
        .iter()
        .filter(|e| e.items.len() == 1)
        .map(|e| e.items[0])
        .collect();
    surviving.sort_unstable();
    let transactions: Vec<(Vec<Item>, f64)> = batch
        .iter()
        .enumerate()
        .filter(|(row, _)| labels[*row])
        .map(|(_, items)| {
            let kept: Vec<Item> = items
                .iter()
                .copied()
                .filter(|i| surviving.binary_search(i).is_ok())
                .collect();
            (kept, 1.0)
        })
        .filter(|(items, _)| !items.is_empty())
        .collect();
    let start = util::now();
    let tree = FpTree::from_weighted_transactions(&transactions, min_count);
    let mined = tree.mine_with_bound(min_count, config.max_combination_size, |support| {
        risk_ratio_from_totals(support, 0.0, total_outliers, total_inliers) >= config.min_risk_ratio
    });
    let mine_ms = util::ms_since(start);
    let mined_sets: BTreeSet<Vec<Item>> = mined
        .iter()
        .map(|m| {
            let mut items = m.items.clone();
            items.sort_unstable();
            items
        })
        .collect();
    let all_mined = explained.iter().all(|e| {
        let mut items = e.items.clone();
        items.sort_unstable();
        mined_sets.contains(&items)
    });
    if !all_mined {
        return Err(format!(
            "{}: an explanation is missing from the replayed FP-growth itemsets",
            query.name
        ));
    }
    let merge_ms = match partitions {
        None => None,
        Some(parts) => {
            let chunk = batch.len().div_ceil(parts.max(1)).max(1);
            let states: Vec<ExplainState> = (0..batch.len())
                .step_by(chunk)
                .map(|first| {
                    let mut state = ExplainState::new();
                    let rows = first..(first + chunk).min(batch.len());
                    for (row, &label) in labels.iter().enumerate().take(rows.end).skip(first) {
                        state.observe(batch.row(row), label);
                    }
                    state
                })
                .collect();
            let start = util::now();
            let mut merged = ExplainState::new();
            for state in states {
                merged.merge(state);
            }
            let ms = util::ms_since(start);
            let mut from_merged = BatchExplainer::new(config).explain_state(&merged);
            rank_explanations(&mut from_merged);
            let same = from_merged.len() == explained.len()
                && from_merged
                    .iter()
                    .zip(&explained)
                    .all(|(a, b)| a.items == b.items && a.stats == b.stats);
            if !same {
                return Err(format!(
                    "{}: explaining merged partition states differs from one state",
                    query.name
                ));
            }
            Some(ms)
        }
    };
    Ok(Replay {
        merge_ms,
        dictionary_items: encoder.cardinality() as f64,
        tree_nodes: tree.node_count() as f64,
        mine_ms,
        itemsets: mined.len() as f64,
        explanations: explained.len() as f64,
    })
}

/// Traced run: every query and path untraced then traced (five rounds,
/// alternating order, for the tracing overhead), stage splits from the
/// traces, and the explanation layer replayed through public calls.
pub fn trace(family: Family, seed: u64, probe: bool) -> (Metrics, Checks) {
    let queries = build_queries(family, seed, probe);
    let mut checks = Checks::default();
    let mut sums: BTreeMap<&'static str, StageSums> = BTreeMap::new();
    let mut mad = StageSums::default();
    let mut mcd = StageSums::default();
    let (mut plain_ns, mut traced_ns) = (0.0, 0.0);
    let rounds = if probe { 1 } else { 5 };
    let mut slice_reports = Vec::new();
    for round in 0..rounds {
        for (qi, query) in queries.iter().enumerate() {
            for &way in family.ways() {
                let run = |traced: bool| {
                    let t = util::now();
                    let result = execute(query, way, traced);
                    (result, util::ns_since(t))
                };
                let ((plain, plain_t), (traced, traced_t)) = if round % 2 == 0 {
                    let p = run(false);
                    (p, run(true))
                } else {
                    let t = run(true);
                    (run(false), t)
                };
                plain_ns += plain_t;
                traced_ns += traced_t;
                let (plain, traced) = match (plain, traced) {
                    (Ok(p), Ok(t)) => (p, t),
                    (Err(e), _) | (_, Err(e)) => {
                        checks.op(Some(format!("{} {}: {e}", query.name, way.name())));
                        continue;
                    }
                };
                let Some(trace) = traced.trace.as_ref() else {
                    checks.op(Some(format!(
                        "{} {}: traced report has no trace",
                        query.name,
                        way.name()
                    )));
                    continue;
                };
                if util::untraced_bytes(&traced) != util::report_bytes(&plain) {
                    checks.op(Some(format!(
                        "{} {}: traced report differs from the untraced one once the trace is removed",
                        query.name,
                        way.name()
                    )));
                    continue;
                }
                checks.op(None);
                if round > 0 {
                    continue;
                }
                sums.entry(way.name())
                    .or_default()
                    .add(trace, query.points.len(), traced_t);
                if way == Way::Slice {
                    let per_estimator = if query.dim == 1 { &mut mad } else { &mut mcd };
                    per_estimator.add(trace, query.points.len(), traced_t);
                    slice_reports.push((qi, plain));
                }
            }
        }
    }

    let mut replays = Vec::new();
    for (qi, report) in &slice_reports {
        let partitions = family
            .ways()
            .contains(&Way::Coordinated)
            .then(macrobase_core::default_num_partitions);
        match replay(&queries[*qi], report, partitions) {
            Ok(r) => {
                checks.op(None);
                replays.push(r);
            }
            Err(e) => checks.op(Some(e)),
        }
    }

    for (way, s) in &sums {
        let shares: Vec<String> =
            s.ns.iter()
                .map(|(stage, ns)| format!("{stage} {:.1}%", ns / s.root_ns * 100.0))
                .collect();
        println!("{way}: share of wall time {}", shares.join(", "));
    }
    let mut m = Metrics::default();
    let empty = StageSums::default();
    let slice = sums.get("slice").unwrap_or(&empty);
    let all_root: f64 = sums.values().map(|s| s.root_ns).sum();
    let all_staged: f64 = sums.values().map(|s| s.staged()).sum();
    m.set(
        "core.flatten_ns_per_row",
        slice.stage("flatten") / slice.rows,
    );
    if let Some(csv) = sums.get("csv") {
        m.set(
            "core.ingest_ns_per_row",
            csv.stage(stage::INGEST) / csv.rows,
        );
    }
    // The coordinated trace folds its gather into the explain span, so the
    // merge is timed on the replay. A trace that does record a merge span
    // takes precedence.
    let merges: Vec<f64> = replays.iter().filter_map(|r| r.merge_ms).collect();
    match sums.get("coordinated") {
        Some(c) if c.stage(stage::MERGE) > 0.0 => {
            m.set("core.merge_ms", c.stage(stage::MERGE) / c.calls / 1e6)
        }
        _ if !merges.is_empty() => m.set(
            "core.merge_ms",
            merges.iter().sum::<f64>() / merges.len() as f64,
        ),
        _ => {}
    }
    m.set(
        "core.unattributed_share",
        (all_root - all_staged) / all_root,
    );
    m.set("encode.ns_per_row", slice.stage(stage::ENCODE) / slice.rows);
    m.set(
        "explain.ms",
        slice.stage(stage::EXPLAIN) / slice.calls / 1e6,
    );
    m.set("score.ns_per_row", slice.stage(stage::SCORE) / slice.rows);
    m.set("train.share", slice.stage(stage::TRAIN) / slice.root_ns);
    if mad.calls > 0.0 {
        m.set("train.mad_ns_per_row", mad.stage(stage::TRAIN) / mad.rows);
    }
    if mcd.calls > 0.0 {
        m.set("train.mcd_ms", mcd.stage(stage::TRAIN) / mcd.calls / 1e6);
    }
    let pool_calls: f64 = sums.values().map(|s| s.calls).sum();
    for (metric, counter) in [
        ("pool.tasks", "pool_tasks"),
        ("pool.steals", "pool_steals"),
        ("pool.idle_parks", "pool_idle_parks"),
        ("pool.injector_pops", "pool_injector_pops"),
    ] {
        let total: f64 = sums
            .values()
            .map(|s| s.counters.get(counter).copied().unwrap_or(0.0))
            .sum();
        m.set(metric, total / pool_calls);
    }
    let n = replays.len() as f64;
    let mean = |f: fn(&Replay) -> f64| replays.iter().map(f).sum::<f64>() / n;
    m.set("encode.dictionary_items", mean(|r| r.dictionary_items));
    m.set("explain.explanations", mean(|r| r.explanations));
    m.set(
        "explain.useful_ratio",
        replays.iter().map(|r| r.explanations).sum::<f64>()
            / replays.iter().map(|r| r.itemsets).sum::<f64>(),
    );
    m.set("fpgrowth.tree_nodes", mean(|r| r.tree_nodes));
    m.set("fpgrowth.mine_ms", mean(|r| r.mine_ms));
    m.set("fpgrowth.itemsets", mean(|r| r.itemsets));
    m.set(
        "obs.overhead_pct",
        (traced_ns - plain_ns) / plain_ns * 100.0,
    );
    (m, checks)
}
