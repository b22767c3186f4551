//! The `ews_stream` workload: exponentially weighted streaming (EWS)
//! sessions over single-attribute and multi-attribute univariate streams.
//!
//! Each stream spans several decay periods and is fed to a session from
//! `MdpQuery::into_streaming` in fixed-size batches, with `report()` called
//! at a fixed point cadence, so writes and reads interleave as in a live
//! monitor. Single-attribute sessions run the ADR classifier and AMC
//! sketches fast; the five-attribute sessions also grow M-CPS trees, whose
//! reports are the slow reads. Stream lengths are set so the two kinds take
//! comparable observe time.

use crate::util::{self, Checks, Metrics};
use macrobase_core::query::{AnalysisConfig, MdpQuery, StreamingOptions};
use macrobase_core::types::{MdpReport, Point};
use mb_classify::streaming::{StreamingClassifier, StreamingClassifierConfig};
use mb_classify::Label;
use mb_explain::encoder::AttributeEncoder;
use mb_explain::risk_ratio::rank_explanations;
use mb_explain::streaming::{StreamingExplainer, StreamingExplainerConfig};
use mb_explain::ExplanationConfig;
use mb_obs::{stage, ObsConfig};
use mb_stats::rand_ext::{normal, SplitMix64, Zipf};

/// Points per `feed` call.
const FEED_BATCH: usize = 1_000;

/// One generated stream and the session knobs it runs under.
struct Stream {
    name: String,
    points: Vec<Point>,
    multi: bool,
    planted: Vec<String>,
    options: StreamingOptions,
    /// Points between `report()` calls.
    report_every: usize,
}

/// Stream shapes: `(name, points, attribute cardinalities, decay period,
/// report cadence)`. The planted anomaly sits on value `bad` of the first
/// attribute (and of the second, for multi-attribute streams). A report's
/// cost depends on which combinations the draw happens to make frequent,
/// so the 5-attribute load is spread over eight short streams rather than
/// a few long ones; their latency figures then do not hinge on one draw.
fn shapes(probe: bool) -> Vec<(String, usize, Vec<usize>, u64, usize)> {
    let div = if probe { 10 } else { 1 };
    let mut shapes = vec![
        (
            "single_a".to_string(),
            150_000 / div,
            vec![500],
            30_000 / div as u64,
            10_000 / div,
        ),
        (
            "single_b".to_string(),
            150_000 / div,
            vec![2_000],
            30_000 / div as u64,
            10_000 / div,
        ),
    ];
    for m in 0..if probe { 2 } else { 8 } {
        let cards = if m % 2 == 0 {
            vec![500, 30, 20, 8, 40]
        } else {
            vec![300, 50, 12, 6, 25]
        };
        shapes.push((format!("multi_{m}"), 10_000, cards, 2_000, 1_000));
    }
    shapes
}

/// The scale line of the run fingerprint.
pub fn scale() -> String {
    shapes(false)
        .iter()
        .map(|(name, n, cards, period, every)| {
            format!(
                "{name}: {n} points x {} attrs, decay every {period}, report every {every}",
                cards.len()
            )
        })
        .collect::<Vec<_>>()
        .join("; ")
}

fn explanation() -> ExplanationConfig {
    ExplanationConfig::new(0.01, 3.0)
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

/// ~1% anomalous readings, 80% of which carry the planted value(s);
/// attribute values are Zipf-skewed like production metadata.
fn generate(seed: u64, probe: bool) -> Vec<Stream> {
    shapes(probe)
        .into_iter()
        .enumerate()
        .map(|(i, (name, n, cards, period, every))| {
            let mut rng = SplitMix64::new(seed).split(i as u64 + 1);
            let zipfs: Vec<Zipf> = cards.iter().map(|&c| Zipf::new(c, 1.1)).collect();
            let planted_cols = cards.len().min(2);
            let points = (0..n)
                .map(|_| {
                    let anomalous = rng.next_f64() < 0.01;
                    let planted = anomalous && rng.next_f64() < 0.8;
                    let metric = if anomalous {
                        normal(&mut rng, 90.0, 5.0)
                    } else {
                        normal(&mut rng, 12.0, 3.0)
                    };
                    let attributes = zipfs
                        .iter()
                        .enumerate()
                        .map(|(col, z)| {
                            if planted && col < planted_cols {
                                format!("c{col}_bad")
                            } else {
                                format!("c{col}_{}", z.sample(&mut rng))
                            }
                        })
                        .collect();
                    Point::new(vec![metric], attributes)
                })
                .collect();
            Stream {
                name,
                points,
                multi: cards.len() > 1,
                planted: (0..planted_cols).map(|c| format!("c{c}_bad")).collect(),
                options: StreamingOptions {
                    decay_period: period,
                    seed: seed ^ 0xE75,
                    ..StreamingOptions::default()
                },
                report_every: every,
            }
        })
        .collect()
}

/// What one session over a stream produced.
struct SessionRun {
    /// Outliers labelled in each fed batch.
    batch_outliers: Vec<u64>,
    /// `(points seen, report, latency ms)` at every cadence point, the
    /// final report last.
    reports: Vec<(usize, MdpReport, f64)>,
    /// Wall time of every feed and report call, seconds.
    wall_s: f64,
}

fn run_session(stream: &Stream, traced: bool) -> Result<SessionRun, String> {
    let mut session = MdpQuery::new(analysis(traced))
        .into_streaming(&stream.options)
        .map_err(|e| e.to_string())?;
    let mut out = SessionRun {
        batch_outliers: Vec::new(),
        reports: Vec::new(),
        wall_s: 0.0,
    };
    let mut seen = 0;
    for batch in stream.points.chunks(FEED_BATCH) {
        let t = util::now();
        let outliers = session.feed(batch).map_err(|e| e.to_string())?;
        out.wall_s += util::secs_since(t);
        out.batch_outliers.push(outliers);
        let before = seen;
        seen += batch.len();
        if seen / stream.report_every > before / stream.report_every || seen == stream.points.len()
        {
            let t = util::now();
            let report = std::hint::black_box(session.report());
            let ms = util::ms_since(t);
            out.wall_s += ms / 1e3;
            out.reports.push((seen, report, ms));
        }
    }
    Ok(out)
}

/// Reports taken once the session has seen a full decay period must rank
/// a planted value in their top 3; earlier ones may still be warming up.
fn check_report(stream: &Stream, seen: usize, report: &MdpReport) -> Option<String> {
    (seen as u64 >= stream.options.decay_period
        && !util::planted_in_top(report, &stream.planted, 3))
    .then(|| {
        format!(
            "{} at {seen} points: planted {:?} not in the top 3 explanations",
            stream.name, stream.planted
        )
    })
}

/// End-to-end run: passes of fresh sessions over every stream until the
/// window closes.
pub fn run(seed: u64, seconds: f64) -> (Metrics, Checks) {
    let (streams, setup_s) = util::timed_setup(|| generate(seed, false));
    let mut checks = Checks::default();
    let mut first: Vec<Option<(Vec<u64>, String)>> = vec![None; streams.len()];
    let mut agreement = Vec::new();
    let mut report_ms = Vec::new();
    let mut pass_rates = Vec::new();
    let start = util::now();
    while util::secs_since(start) < seconds {
        let (mut points, mut wall) = (0usize, 0.0);
        for (si, stream) in streams.iter().enumerate() {
            let run = match run_session(stream, false) {
                Ok(run) => run,
                Err(e) => {
                    checks.op(Some(format!("{}: {e}", stream.name)));
                    continue;
                }
            };
            points += stream.points.len();
            wall += run.wall_s;
            let Some((_, last, _)) = run.reports.last() else {
                checks.op(Some(format!("{}: no report", stream.name)));
                continue;
            };
            let final_bytes = util::report_bytes(last);
            let expected = match &first[si] {
                Some(f) => f,
                None => {
                    let oneshot = MdpQuery::new(analysis(false))
                        .execute(&macrobase_core::query::Executor::OneShot, &stream.points);
                    match oneshot {
                        Ok(r) => agreement
                            .push(util::jaccard(&util::top_k(last, 10), &util::top_k(&r, 10))),
                        Err(e) => checks.op(Some(format!("{} one-shot: {e}", stream.name))),
                    }
                    first[si].insert((run.batch_outliers.clone(), final_bytes.clone()))
                }
            };
            for (b, outliers) in run.batch_outliers.iter().enumerate() {
                let differs = expected.0.get(b) != Some(outliers);
                checks.op(differs.then(|| {
                    format!(
                        "{} batch {b}: labels differ from the first pass",
                        stream.name
                    )
                }));
            }
            for (r, (seen, report, ms)) in run.reports.iter().enumerate() {
                if stream.multi {
                    report_ms.push(((si, r), *ms));
                }
                checks.op(check_report(stream, *seen, report));
            }
            checks.op((final_bytes != expected.1)
                .then(|| format!("{}: final report differs from the first pass", stream.name)));
        }
        pass_rates.push(points as f64 / wall);
    }
    let latencies = util::kind_medians(report_ms.iter().copied());
    println!(
        "{} passes (rows/s min {:.0} median {:.0} max {:.0}), {} multi-attribute reports of {} kinds, agreement over {} streams",
        pass_rates.len(),
        pass_rates.iter().copied().fold(f64::INFINITY, f64::min),
        util::median(&pass_rates),
        pass_rates.iter().copied().fold(0.0, f64::max),
        report_ms.len(),
        latencies.len(),
        agreement.len()
    );
    let mut m = Metrics::default();
    m.set("rows_per_s", util::median(&pass_rates));
    m.set("report_p50_ms", util::median(&latencies));
    m.set("report_p90_ms", util::quantile(&latencies, 0.9));
    m.set(
        "explain_agreement",
        agreement.iter().sum::<f64>() / agreement.len() as f64,
    );
    m.set("ok_share", checks.ok_share());
    m.set("setup_s", setup_s);
    m.set("peak_rss_mb", util::peak_rss_mb());
    (m, checks)
}

/// Per-layer time the component replay measured, summed over streams.
#[derive(Default)]
struct Layers {
    points: f64,
    classify_ns: f64,
    retrain_ns: f64,
    retrains: f64,
    encode_ns: f64,
    observe_ns: f64,
    boundary_ns: f64,
    boundaries: f64,
    explain_ns: f64,
    explains: f64,
}

/// Replay one session through the EWS layers' public entry points —
/// `StreamingClassifier::observe`, `AttributeEncoder::encode_point_into`,
/// `StreamingExplainer::{observe, on_window_boundary, explain}` — with the
/// knobs `MdpQuery::into_streaming` derives, timing each call. The replay
/// must reproduce the session's labels and explanations.
fn replay(stream: &Stream, session: &SessionRun, layers: &mut Layers) -> Result<(), String> {
    let options = &stream.options;
    let analysis = analysis(false);
    let config = StreamingClassifierConfig {
        input_reservoir_size: options.reservoir_size,
        score_reservoir_size: options.reservoir_size,
        decay_rate: options.decay_rate,
        retrain_period: options.retrain_period,
        target_percentile: analysis.target_percentile,
        threshold_refresh_period: (options.retrain_period / 10).max(1),
        warmup_points: 100,
        seed: options.seed,
    };
    let mut classifier = StreamingClassifier::new(mb_stats::mad::MadEstimator::new(), config)
        .map_err(|e| e.to_string())?;
    let mut explainer = StreamingExplainer::new(StreamingExplainerConfig {
        explanation: analysis.explanation,
        decay_rate: options.decay_rate,
        amc_stable_size: options.reservoir_size,
        amc_maintenance_period: options.reservoir_size as u64,
    });
    let mut encoder = AttributeEncoder::new();
    let mut items = Vec::new();
    let mut since_decay = 0u64;
    let mut seen = 0usize;
    let mut reports = session.reports.iter();
    for (b, batch) in stream.points.chunks(FEED_BATCH).enumerate() {
        let mut outliers = 0u64;
        for point in batch {
            let t0 = util::now();
            let label = classifier.observe(&point.metrics).label;
            let t1 = util::now();
            let classify = (t1 - t0).as_nanos() as f64;
            layers.classify_ns += classify;
            if classifier.points_since_retrain() == 0 {
                layers.retrain_ns += classify;
                layers.retrains += 1.0;
            }
            encoder.encode_point_into(&point.attributes, &mut items);
            let t2 = util::now();
            layers.encode_ns += (t2 - t1).as_nanos() as f64;
            explainer.observe(&items, label == Label::Outlier);
            layers.observe_ns += util::ns_since(t2);
            outliers += u64::from(label == Label::Outlier);
            since_decay += 1;
            if since_decay >= options.decay_period {
                since_decay = 0;
                let t = util::now();
                classifier.on_period_boundary();
                explainer.on_window_boundary();
                layers.boundary_ns += util::ns_since(t);
                layers.boundaries += 1.0;
            }
        }
        layers.points += batch.len() as f64;
        if session.batch_outliers.get(b) != Some(&outliers) {
            return Err(format!("{} batch {b}: replayed labels differ", stream.name));
        }
        seen += batch.len();
        if seen / stream.report_every > (seen - batch.len()) / stream.report_every
            || seen == stream.points.len()
        {
            let t = util::now();
            let mut explained = explainer.explain();
            rank_explanations(&mut explained);
            if stream.multi {
                layers.explain_ns += util::ns_since(t);
                layers.explains += 1.0;
            }
            let Some((_, report, _)) = reports.next() else {
                return Err(format!("{}: replay took more reports", stream.name));
            };
            let same = explained.len() == report.explanations.len()
                && explained.iter().zip(&report.explanations).all(|(e, r)| {
                    e.items == r.items
                        && e.stats == r.stats
                        && encoder.describe(&e.items) == r.attributes
                });
            if !same {
                return Err(format!(
                    "{} at {seen} points: replayed explanations differ from the report",
                    stream.name
                ));
            }
        }
    }
    Ok(())
}

/// Traced run: each stream once untraced and once traced (tracing
/// overhead, trace-free equality), then replayed layer by layer.
pub fn trace(seed: u64, probe: bool) -> (Metrics, Checks) {
    let streams = generate(seed, probe);
    let mut checks = Checks::default();
    let mut layers = Layers::default();
    let (mut plain_s, mut traced_s, mut observe_s) = (0.0, 0.0, 0.0);
    for (si, stream) in streams.iter().enumerate() {
        let order = if si % 2 == 0 {
            [false, true]
        } else {
            [true, false]
        };
        let mut runs = order.map(|traced| run_session(stream, traced));
        if order[0] {
            runs.swap(0, 1);
        }
        let [plain, traced] = runs;
        let (plain, traced) = match (plain, traced) {
            (Ok(p), Ok(t)) => (p, t),
            (Err(e), _) | (_, Err(e)) => {
                checks.op(Some(format!("{}: {e}", stream.name)));
                continue;
            }
        };
        plain_s += plain.wall_s;
        traced_s += traced.wall_s;
        let equal = plain.reports.len() == traced.reports.len()
            && plain
                .reports
                .iter()
                .zip(&traced.reports)
                .all(|(p, t)| util::report_bytes(&p.1) == util::untraced_bytes(&t.1));
        checks.op((!equal).then(|| {
            format!(
                "{}: traced reports differ from the untraced ones once the trace is removed",
                stream.name
            )
        }));
        let observe_ns = traced
            .reports
            .last()
            .and_then(|(_, r, _)| r.trace.as_ref())
            .and_then(|t| t.stage(stage::SCORE))
            .map_or(0, |s| s.wall_ns);
        observe_s += observe_ns as f64 / 1e9;
        let report_s: f64 = traced.reports.iter().map(|(_, _, ms)| ms / 1e3).sum();
        println!(
            "{}: {} points, observe {:.3} s, {} reports {:.3} s",
            stream.name,
            stream.points.len(),
            observe_ns as f64 / 1e9,
            traced.reports.len(),
            report_s
        );
        checks.op(replay(stream, &plain, &mut layers).err());
    }
    let mut m = Metrics::default();
    m.set(
        "ews.classify_ns_per_point",
        layers.classify_ns / layers.points,
    );
    m.set("ews.retrain_ms", layers.retrain_ns / layers.retrains / 1e6);
    m.set("ews.encode_ns_per_point", layers.encode_ns / layers.points);
    m.set(
        "ews.explain_observe_ns_per_point",
        layers.observe_ns / layers.points,
    );
    m.set(
        "ews.window_boundary_ms",
        layers.boundary_ns / layers.boundaries / 1e6,
    );
    m.set("ews.explain_ms", layers.explain_ns / layers.explains / 1e6);
    m.set("core.unattributed_share", (traced_s - observe_s) / traced_s);
    m.set("obs.overhead_pct", (traced_s - plain_s) / plain_s * 100.0);
    (m, checks)
}
