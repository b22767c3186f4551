//! The `serve_mixed` workload: an open loop at one fixed offered rate into
//! an in-process `mb_serve::Server`, every request going through
//! `mb_serve::handle_line` so JSON decode and encode count.
//!
//! One-shot jobs come from the scenario corpus (`standard_corpus(1)`) and
//! from quickstart-shaped device × version datasets drawn from the seed.
//! A fixed share of jobs repeats an earlier dataset and configuration,
//! which the model cache serves without training; every other job is a
//! dataset the cache has not seen (a base dataset with its first reading
//! moved, which changes the data fingerprint). Beside the jobs, one
//! streaming session per pool worker is fed fixed-size batches on a fixed
//! cadence, with a `poll` for its report every few batches.
//!
//! Two generator threads, never more than the pool width: the submitter
//! sends jobs and session feeds when they fall due, and the collector
//! polls jobs until they finish. Job latency runs from the moment a job
//! was due, so a stalled submitter charges its wait to the jobs behind it.

use crate::util::{self, Checks, Metrics};
use macrobase_core::query::{AnalysisConfig, Executor, MdpQuery, StreamingOptions};
use macrobase_core::types::{MdpReport, Point};
use macrobase_core::wire::{
    analysis_to_json, executor_to_json, point_to_json, points_to_json, report_from_json,
    report_to_json,
};
use mb_explain::ExplanationConfig;
use mb_obs::ObsConfig;
use mb_scenario::standard_corpus;
use mb_serve::{handle_line, ServeConfig, Server};
use mb_stats::rand_ext::{normal, SplitMix64};
use serde_json::Value;
use std::collections::BTreeMap;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Offered one-shot job rate, jobs per second. Decoding a submit request
/// takes about 13 ms on the submitting thread (2-core x86-64 host), which
/// caps the mix near 75 jobs/s. At 40 jobs/s a few seconds of host
/// slowness left the submitter behind, and every job due while it caught
/// up was charged the backlog, so the loop runs at 20 jobs/s: the
/// submitter is busy about a quarter of the time and catches up quickly.
const JOBS_PER_S: f64 = 20.0;
/// Of every `REPEAT_CYCLE` consecutive jobs of one base dataset, these
/// positions repeat an earlier job of that dataset (40% of its jobs); the
/// rest are datasets the cache has not seen. A fixed pattern rather than
/// a coin flip: a cache hit skips training, which for the larger corpus
/// datasets is most of a job, so a dataset whose hit share drifted near
/// one half would have a latency median that flips between the two.
const REPEAT_POSITIONS: [usize; 2] = [1, 3];
const REPEAT_CYCLE: usize = 5;
/// Quickstart-shaped base datasets drawn from the seed.
const QUICKSTART_BASES: usize = 16;
/// Points in the smallest quickstart-shaped dataset; each next one is
/// `QUICKSTART_STEP` larger, so job costs spread evenly instead of
/// clustering, and latency percentiles do not sit on a gap between
/// clusters.
const QUICKSTART_POINTS: usize = 1_000;
const QUICKSTART_STEP: usize = 500;
/// Points per session `feed`.
const FEED_POINTS: usize = 200;
/// Milliseconds between feeds of one session.
const FEED_PERIOD_MS: f64 = 20.0;
/// A session's report is read after every this many feeds.
const REPORT_EVERY_FEEDS: usize = 20;
/// Distinct pre-encoded feed batches per session, replayed cyclically.
const FEED_BATCHES: usize = 64;
/// Equal slices of the run that `rows_per_s` takes its median over.
const WINDOWS: usize = 5;

/// The scale line of the run fingerprint.
pub fn scale() -> String {
    format!(
        "{JOBS_PER_S} jobs/s offered, {}/{REPEAT_CYCLE} repeats, corpus x1 + {QUICKSTART_BASES} quickstart datasets of {QUICKSTART_POINTS}+{QUICKSTART_STEP}i points; {} sessions fed {FEED_POINTS} points every {FEED_PERIOD_MS} ms",
        REPEAT_POSITIONS.len(),
        sessions()
    )
}

fn sessions() -> usize {
    mb_pool::global().num_threads()
}

/// A dataset and configuration jobs are drawn from.
struct Base {
    name: String,
    analysis: AnalysisConfig,
    points: Vec<Point>,
    /// `"op":"submit"` request text after the id, up to the first point.
    head: String,
    /// The JSON of every point after the first, with its leading comma.
    tail: String,
    planted: Vec<String>,
}

/// A job stream entry: which base, and which variant of its first reading
/// (variant 0 is the base itself).
type Key = (usize, u64);

struct Session {
    id: String,
    open: String,
    feeds: Vec<String>,
    batches: Vec<Vec<Point>>,
    analysis: AnalysisConfig,
    options: StreamingOptions,
    planted: Vec<String>,
}

struct Inputs {
    bases: Vec<Base>,
    sessions: Vec<Session>,
}

/// A quickstart-shaped stream: power readings tagged device type × app
/// version; ~20% of (B264, 2.26.3) readings drain abnormally.
fn quickstart_points(rng: &mut SplitMix64, n: usize) -> Vec<Point> {
    const DEVICES: [&str; 5] = ["B101", "B150", "B264", "B302", "B404"];
    const VERSIONS: [&str; 3] = ["2.25.0", "2.26.3", "2.27.1"];
    (0..n)
        .map(|_| {
            let device = DEVICES[rng.next_below(DEVICES.len())];
            let version = VERSIONS[rng.next_below(VERSIONS.len())];
            let affected = device == "B264" && version == "2.26.3";
            let power = if affected && rng.next_f64() < 0.2 {
                normal(rng, 95.0, 5.0)
            } else {
                normal(rng, 12.0, 3.0)
            };
            Point::new(vec![power], vec![device.to_string(), version.to_string()])
        })
        .collect()
}

fn quickstart_analysis() -> AnalysisConfig {
    AnalysisConfig {
        explanation: ExplanationConfig::new(0.01, 3.0),
        attribute_names: vec!["device_type".to_string(), "app_version".to_string()],
        ..AnalysisConfig::default()
    }
}

fn base(name: String, analysis: AnalysisConfig, points: Vec<Point>, planted: Vec<String>) -> Base {
    let executor = executor_to_json(&Executor::OneShot);
    let head = format!(
        r#""analysis":{},"executor":{executor},"points":["#,
        analysis_to_json(&analysis)
    );
    let tail: String = points[1..]
        .iter()
        .map(|p| format!(",{}", point_to_json(p)))
        .collect();
    Base {
        name,
        analysis,
        points,
        head,
        tail,
        planted,
    }
}

fn build_inputs(seed: u64) -> Inputs {
    let mut rng = SplitMix64::new(seed ^ 0x5e7e);
    let mut bases = Vec::new();
    for scenario in standard_corpus(1) {
        let generated = scenario.generate();
        let planted = generated
            .truth
            .guilty_attributes
            .iter()
            .flatten()
            .filter_map(|a| a.rsplit_once('=').map(|(_, v)| v.to_string()))
            .collect();
        bases.push(base(
            scenario.name().to_string(),
            scenario.analysis(),
            generated.points,
            planted,
        ));
    }
    for i in 0..QUICKSTART_BASES {
        let points = quickstart_points(&mut rng, QUICKSTART_POINTS + i * QUICKSTART_STEP);
        bases.push(base(
            format!("quickstart_{i}"),
            quickstart_analysis(),
            points,
            vec!["B264".to_string(), "2.26.3".to_string()],
        ));
    }
    let options = StreamingOptions {
        decay_period: 20_000,
        seed: seed ^ 0x5e55,
        ..StreamingOptions::default()
    };
    let analysis = quickstart_analysis();
    let sessions = (0..sessions())
        .map(|s| {
            let id = format!("session_{s}");
            let batches: Vec<Vec<Point>> = (0..FEED_BATCHES)
                .map(|_| quickstart_points(&mut rng, FEED_POINTS))
                .collect();
            let feeds = batches
                .iter()
                .map(|b| {
                    format!(
                        r#"{{"op":"feed","id":"{id}","points":{}}}"#,
                        points_to_json(b)
                    )
                })
                .collect();
            let open = format!(
                r#"{{"op":"submit","id":"{id}","analysis":{},"executor":{}}}"#,
                analysis_to_json(&analysis),
                executor_to_json(&Executor::Streaming {
                    options: options.clone()
                })
            );
            Session {
                id,
                open,
                feeds,
                batches,
                analysis: analysis.clone(),
                options: options.clone(),
                planted: vec!["B264".to_string(), "2.26.3".to_string()],
            }
        })
        .collect();
    Inputs { bases, sessions }
}

/// The first reading of `key`'s dataset: the base's, moved by the variant.
fn first_point(bases: &[Base], key: Key) -> Point {
    let mut p = bases[key.0].points[0].clone();
    p.metrics[0] += key.1 as f64 * 1e-3;
    p
}

fn submit_line(bases: &[Base], id: &str, key: Key) -> String {
    let b = &bases[key.0];
    format!(
        r#"{{"op":"submit","id":"{id}",{}{}{}]}}"#,
        b.head,
        point_to_json(&first_point(bases, key)),
        b.tail
    )
}

/// A scheduled job.
struct Job {
    key: Key,
    /// Due time, seconds after the start of the run.
    offset: f64,
}

/// The job stream in submission order: base datasets in turn, each
/// repeating a seed-chosen earlier variant of itself at
/// `REPEAT_POSITIONS` of every `REPEAT_CYCLE` of its jobs.
fn schedule(seed: u64, bases: usize, seconds: f64, rate: f64) -> Vec<Job> {
    let mut rng = SplitMix64::new(seed ^ 0x10b5);
    let mut next_variant = vec![0u64; bases];
    let n = (seconds * rate).ceil() as usize;
    (0..n)
        .map(|i| {
            let b = i % bases;
            let repeat = REPEAT_POSITIONS.contains(&((i / bases) % REPEAT_CYCLE));
            let variant = if repeat {
                rng.next_below(next_variant[b] as usize) as u64
            } else {
                next_variant[b] += 1;
                next_variant[b] - 1
            };
            Job {
                key: (b, variant),
                offset: i as f64 / rate,
            }
        })
        .collect()
}

fn parse(line: &str) -> Result<Value, String> {
    serde_json::from_str(line).map_err(|e| format!("unparseable response {e}"))
}

fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    v.as_object().and_then(|m| m.get(key))
}

fn is_ok(v: &Value) -> bool {
    matches!(field(v, "ok"), Some(Value::Bool(true)))
}

/// A submitted job handed from the submitter to the collector.
struct Submitted {
    id: String,
    key: Key,
    due: Instant,
}

/// Everything one open-loop run observed.
#[derive(Default)]
struct LoopResult {
    /// `(base dataset, due → done ms)` of every job; failures are infinite.
    job_ms: Vec<(usize, f64)>,
    lateness_ms: Vec<f64>,
    submit_ms: Vec<f64>,
    poll_done_ms: Vec<f64>,
    feed_ms: Vec<f64>,
    /// `(seconds into the run, ms)` of every submit, result poll and feed.
    busy: Vec<(f64, f64)>,
    /// `(seconds into the run, rows)` of every finished job and feed.
    rows: Vec<(f64, usize)>,
    /// `(seconds into the run, cumulative worker execution ms)` samples.
    exec: Vec<(f64, f64)>,
    queue_depth_max: f64,
    rejected: u64,
    /// First served report of every key, as wire text.
    served: BTreeMap<Key, String>,
    /// Feeds sent per session, in order (batch index).
    fed: Vec<Vec<usize>>,
    checks: Checks,
}

/// The collector's side: poll jobs until they finish, record their
/// latencies and check every served report. It blocks while no job is
/// out, and otherwise waits at most a millisecond on the oldest job.
fn collect(
    server: &Server,
    inputs: &Inputs,
    start: Instant,
    window: Duration,
    rx: &mpsc::Receiver<Submitted>,
    out: &mut LoopResult,
) {
    let mut outstanding: Vec<Submitted> = Vec::new();
    let drain_deadline = start + window + Duration::from_secs(60);
    let at = |t: Instant| t.saturating_duration_since(start).as_secs_f64();
    loop {
        if outstanding.is_empty() {
            match rx.recv() {
                Ok(job) => outstanding.push(job),
                Err(mpsc::RecvError) => break,
            }
        }
        outstanding.extend(rx.try_iter());
        if util::now() > drain_deadline {
            for job in outstanding.drain(..) {
                out.job_ms.push((job.key.0, f64::INFINITY));
                out.checks.op(Some(format!(
                    "{}: not finished 60 s after the window",
                    job.id
                )));
            }
            continue;
        }
        // Block briefly on the oldest job, then sweep the rest without
        // waiting.
        let mut i = 0;
        while i < outstanding.len() {
            let wait_ms = if i == 0 { 1 } else { 0 };
            let request = format!(
                r#"{{"op":"poll","id":"{}","wait_ms":{wait_ms}}}"#,
                outstanding[i].id
            );
            let t = util::now();
            let response = handle_line(server, &request);
            let done_at = util::now();
            let value = match parse(&response) {
                Ok(v) => v,
                Err(e) => {
                    out.job_ms.push((outstanding[i].key.0, f64::INFINITY));
                    out.checks.op(Some(format!("{}: {e}", outstanding[i].id)));
                    outstanding.remove(i);
                    continue;
                }
            };
            let state = field(&value, "state").and_then(Value::as_str).unwrap_or("");
            if state == "queued" || state == "running" {
                i += 1;
                continue;
            }
            let job = outstanding.remove(i);
            if state == "done" {
                let poll_ms = (done_at - t).as_secs_f64() * 1e3;
                out.job_ms
                    .push((job.key.0, (done_at - job.due).as_secs_f64() * 1e3));
                out.poll_done_ms.push(poll_ms);
                out.busy.push((at(done_at), poll_ms));
                out.rows
                    .push((at(done_at), inputs.bases[job.key.0].points.len()));
                let served = field(&value, "report").map(Value::to_string);
                let problem = match served {
                    None => Some(format!("{}: done without a report", job.id)),
                    Some(text) => match out.served.get(&job.key) {
                        Some(first) if *first != text => Some(format!(
                            "{}: report differs from the first job of its dataset",
                            job.id
                        )),
                        Some(_) => None,
                        None => {
                            out.served.insert(job.key, text);
                            None
                        }
                    },
                };
                out.checks.op(problem);
            } else {
                out.job_ms.push((job.key.0, f64::INFINITY));
                out.checks.op(Some(format!("{}: {response}", job.id)));
            }
            let closed = handle_line(server, &format!(r#"{{"op":"close","id":"{}"}}"#, job.id));
            if !parse(&closed).map(|v| is_ok(&v)).unwrap_or(false) {
                out.checks.op(Some(format!("{} close: {closed}", job.id)));
            }
        }
    }
}

/// Session reports taken after a full decay period must rank a planted
/// value in their top 3.
fn session_problem(session: &Session, feeds: usize, report: &MdpReport) -> Option<String> {
    let seen = (feeds * FEED_POINTS) as u64;
    (seen >= session.options.decay_period && !util::planted_in_top(report, &session.planted, 3))
        .then(|| {
            format!(
                "{} after {feeds} feeds: planted value not in the top 3",
                session.id
            )
        })
}

/// The submitter's side of one open-loop run. Dropping it tells the
/// collector that no more jobs come.
struct Submitter<'a> {
    server: &'a Server,
    inputs: &'a Inputs,
    start: Instant,
    tx: mpsc::Sender<Submitted>,
    traced: bool,
}

impl Submitter<'_> {
    /// Send every job and session feed when it falls due, in due order,
    /// from this one thread, so request decoding never competes with
    /// another client call for a core.
    fn drive(&self, jobs: &[Job], window: Duration, out: &mut LoopResult) {
        let (server, inputs, start) = (self.server, self.inputs, self.start);
        let period = Duration::from_secs_f64(FEED_PERIOD_MS / 1e3);
        let n_sessions = inputs.sessions.len();
        // Sessions are staggered so their feeds do not coincide.
        let mut next_feed: Vec<Instant> = (0..n_sessions)
            .map(|s| start + period.mul_f64(s as f64 / n_sessions as f64))
            .collect();
        out.fed = vec![Vec::new(); n_sessions];
        let end = start + window;
        let at = |t: Instant| t.saturating_duration_since(start).as_secs_f64();
        let slice = window.as_secs_f64() / WINDOWS as f64;
        let mut next_sample = 1;
        let mut next_job = 0;
        loop {
            // Worker execution time is only visible in the server's totals;
            // sample it at every slice boundary for `rows_per_s`.
            if next_sample < WINDOWS && at(util::now()) >= slice * next_sample as f64 {
                out.exec
                    .push((slice * next_sample as f64 - 1e-9, exec_total_ms(server)));
                next_sample += 1;
            }
            let feed = (0..n_sessions)
                .filter(|&s| next_feed[s] < end)
                .min_by_key(|&s| next_feed[s]);
            let job_due = jobs
                .get(next_job)
                .map(|job| start + Duration::from_secs_f64(job.offset));
            match (feed, job_due) {
                (Some(s), due) if due.is_none_or(|due| next_feed[s] < due) => {
                    sleep_until(next_feed[s]);
                    next_feed[s] += period;
                    self.feed(s, out);
                }
                (_, Some(due)) => {
                    sleep_until(due);
                    let ok = self.submit(next_job, &jobs[next_job], out);
                    next_job += 1;
                    if !ok {
                        break;
                    }
                }
                (_, None) => break,
            }
        }
    }

    /// Feed session `s` its next batch, and read its report every
    /// `REPORT_EVERY_FEEDS` feeds.
    fn feed(&self, s: usize, out: &mut LoopResult) {
        let (server, session, start) = (self.server, &self.inputs.sessions[s], self.start);
        let batch = out.fed[s].len() % FEED_BATCHES;
        let t = util::now();
        let response = handle_line(server, &session.feeds[batch]);
        let ms = util::ms_since(t);
        let at = t.saturating_duration_since(start).as_secs_f64();
        out.feed_ms.push(ms);
        out.busy.push((at, ms));
        let ok = parse(&response).map(|v| is_ok(&v)).unwrap_or(false);
        out.checks
            .op((!ok).then(|| format!("{} feed: {response}", session.id)));
        if !ok {
            return;
        }
        out.rows.push((at, FEED_POINTS));
        out.fed[s].push(batch);
        if out.fed[s].len().is_multiple_of(REPORT_EVERY_FEEDS) {
            let response =
                handle_line(server, &format!(r#"{{"op":"poll","id":"{}"}}"#, session.id));
            let problem = match parse(&response)
                .ok()
                .and_then(|v| field(&v, "report").map(report_from_json))
            {
                Some(Ok(report)) => session_problem(session, out.fed[s].len(), &report),
                _ => Some(format!("{} report: {response}", session.id)),
            };
            out.checks.op(problem);
        }
    }

    /// Submit job `i` and hand it to the collector; false once the collector
    /// is gone.
    fn submit(&self, i: usize, job: &Job, out: &mut LoopResult) -> bool {
        let (server, inputs, start) = (self.server, self.inputs, self.start);
        let due = start + Duration::from_secs_f64(job.offset);
        let id = format!("job_{i}");
        let line = submit_line(&inputs.bases, &id, job.key);
        let t = util::now();
        out.lateness_ms.push((t - due).as_secs_f64() * 1e3);
        let response = handle_line(server, &line);
        let ms = util::ms_since(t);
        out.submit_ms.push(ms);
        out.busy
            .push((t.saturating_duration_since(start).as_secs_f64(), ms));
        if self.traced {
            // Queue depth right after admission, where it peaks.
            if let Some(depth) = server.stats().gauge("queue_depth") {
                out.queue_depth_max = out.queue_depth_max.max(depth);
            }
        }
        if !parse(&response).map(|v| is_ok(&v)).unwrap_or(false) {
            out.rejected += 1;
            out.job_ms.push((job.key.0, f64::INFINITY));
            out.checks.op(Some(format!("{id} submit: {response}")));
            return true;
        }
        let submitted = Submitted {
            id,
            key: job.key,
            due,
        };
        if self.tx.send(submitted).is_err() {
            out.checks.op(Some("collector stopped early".to_string()));
            return false;
        }
        true
    }
}

fn sleep_until(t: Instant) {
    let now = util::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// Run the open loop for `seconds` against a fresh server.
fn open_loop(inputs: &Inputs, seed: u64, seconds: f64, traced: bool) -> (Server, LoopResult) {
    let workers = mb_pool::global().num_threads();
    let server = Server::start(ServeConfig {
        workers,
        ..ServeConfig::default()
    });
    let mut out = LoopResult::default();
    let mut submitter = LoopResult::default();
    for session in &inputs.sessions {
        let response = handle_line(&server, &session.open);
        let ok = parse(&response).map(|v| is_ok(&v)).unwrap_or(false);
        submitter
            .checks
            .op((!ok).then(|| format!("{} open: {response}", session.id)));
    }
    let jobs = schedule(seed, inputs.bases.len(), seconds, JOBS_PER_S);
    let window = Duration::from_secs_f64(seconds);
    let (tx, rx) = mpsc::channel();
    let start = util::now() + Duration::from_millis(5);
    let server_ref = &server;
    // mb-lint: allow(no-adhoc-threads) -- the load generator is the client side: a submitter and a collector thread, while the server's work runs on its own workers and the pool
    std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            let mut collected = LoopResult::default();
            collect(server_ref, inputs, start, window, &rx, &mut collected);
            collected
        });
        let client = Submitter {
            server: &server,
            inputs,
            start,
            tx,
            traced,
        };
        client.drive(&jobs, window, &mut submitter);
        drop(client);
        match collector.join() {
            Ok(collected) => out = collected,
            Err(_) => submitter
                .checks
                .op(Some("collector thread panicked".to_string())),
        }
    });
    out.exec = submitter.exec;
    out.exec.push((f64::INFINITY, exec_total_ms(&server)));
    out.job_ms.extend(submitter.job_ms);
    out.busy.extend(submitter.busy);
    out.rows.extend(submitter.rows);
    out.lateness_ms = submitter.lateness_ms;
    out.submit_ms = submitter.submit_ms;
    out.feed_ms = submitter.feed_ms;
    out.fed = submitter.fed;
    out.queue_depth_max = submitter.queue_depth_max;
    out.rejected = submitter.rejected;
    out.checks.absorb(submitter.checks);
    (server, out)
}

/// After the window: every distinct served report must be byte-equal to
/// a standalone run of the same query over the points as built (so the
/// server's decode of them must be exact), and every session's final report
/// to a standalone session fed the same batches. Returns the top-10
/// Jaccard of each served report against its standalone twin.
fn verify(server: &Server, inputs: &Inputs, out: &mut LoopResult) -> Vec<f64> {
    let mut agreement = Vec::new();
    for (key, served) in &out.served {
        let base = &inputs.bases[key.0];
        let mut points = base.points.clone();
        points[0] = first_point(&inputs.bases, *key);
        let problem =
            match MdpQuery::new(base.analysis.clone()).execute(&Executor::OneShot, &points) {
                Ok(standalone) => {
                    let text = report_to_json(&standalone).to_string();
                    let served_report = parse(served).ok().and_then(|v| report_from_json(&v).ok());
                    if let Some(r) = &served_report {
                        agreement.push(util::jaccard(
                            &util::top_k(r, 10),
                            &util::top_k(&standalone, 10),
                        ));
                    }
                    if text != *served {
                        Some(format!(
                            "{} variant {}: served report differs from standalone",
                            base.name, key.1
                        ))
                    } else if key.1 == 0 && !util::planted_in_top(&standalone, &base.planted, 3) {
                        Some(format!(
                            "{}: planted {:?} not in the top 3",
                            base.name, base.planted
                        ))
                    } else {
                        None
                    }
                }
                Err(e) => Some(format!("{} standalone: {e}", base.name)),
            };
        out.checks.op(problem);
    }
    for (s, session) in inputs.sessions.iter().enumerate() {
        let response = handle_line(server, &format!(r#"{{"op":"poll","id":"{}"}}"#, session.id));
        let served = parse(&response)
            .ok()
            .and_then(|v| field(&v, "report").map(Value::to_string));
        let standalone = MdpQuery::new(session.analysis.clone())
            .into_streaming(&session.options)
            .and_then(|mut standalone| {
                for &b in &out.fed[s] {
                    standalone.feed(&session.batches[b])?;
                }
                Ok(report_to_json(&standalone.report()).to_string())
            });
        let problem = match (served, standalone) {
            (Some(served), Ok(expected)) if served == expected => None,
            (Some(_), Ok(_)) => Some(format!(
                "{}: served session report differs from standalone",
                session.id
            )),
            (None, _) => Some(format!("{} final poll: {response}", session.id)),
            (_, Err(e)) => Some(format!("{} standalone: {e}", session.id)),
        };
        out.checks.op(problem);
    }
    agreement
}

/// Total execution time of finished jobs on the server's workers.
fn exec_total_ms(server: &Server) -> f64 {
    server
        .stats()
        .histogram("exec_ns")
        .map_or(0.0, |h| h.sum_ns() as f64 / 1e6)
}

/// Busy time of the serve path in milliseconds: request decode and
/// admission, job execution on the workers, result polls, session feeds.
fn busy_split_ms(server: &Server, out: &LoopResult) -> [f64; 4] {
    [
        out.submit_ms.iter().sum::<f64>(),
        exec_total_ms(server),
        out.poll_done_ms.iter().sum::<f64>(),
        out.feed_ms.iter().sum::<f64>(),
    ]
}

/// Rows of finished jobs and feeds per busy second of the serve path,
/// taken as the median over `WINDOWS` equal slices of the run: a burst of
/// host slowness lands in one slice and leaves the median alone.
fn windowed_rows_per_s(out: &LoopResult, seconds: f64) -> f64 {
    let slice = |t: f64| ((t / seconds * WINDOWS as f64).max(0.0) as usize).min(WINDOWS - 1);
    let mut rows = [0.0; WINDOWS];
    let mut busy = [0.0; WINDOWS];
    for &(t, r) in &out.rows {
        rows[slice(t)] += r as f64;
    }
    for &(t, ms) in &out.busy {
        busy[slice(t)] += ms;
    }
    let mut before = 0.0;
    for &(t, total) in &out.exec {
        busy[slice(t)] += total - before;
        before = total;
    }
    let rates: Vec<f64> = rows.iter().zip(&busy).map(|(r, b)| r / b * 1e3).collect();
    util::median(&rates)
}

/// End-to-end run.
pub fn run(seed: u64, seconds: f64) -> (Metrics, Checks) {
    let (inputs, setup_s) = util::timed_setup(|| build_inputs(seed));
    let (server, mut out) = open_loop(&inputs, seed, seconds, false);
    let agreement = verify(&server, &inputs, &mut out);
    drop(server);
    let latencies = util::kind_medians(out.job_ms.iter().copied());
    println!(
        "{} jobs over {} datasets ({} distinct jobs), {} feeds, submitter lateness p99 {:.3} ms",
        out.job_ms.len(),
        latencies.len(),
        out.served.len(),
        out.feed_ms.len(),
        util::quantile(&out.lateness_ms, 0.99)
    );
    let mut m = Metrics::default();
    m.set("rows_per_s", windowed_rows_per_s(&out, seconds));
    m.set("report_p50_ms", util::median(&latencies));
    m.set("report_p90_ms", util::quantile(&latencies, 0.9));
    m.set(
        "explain_agreement",
        agreement.iter().sum::<f64>() / agreement.len() as f64,
    );
    m.set("ok_share", out.checks.ok_share());
    m.set("setup_s", setup_s);
    m.set("peak_rss_mb", util::peak_rss_mb());
    (m, out.checks)
}

/// Traced run: the same open loop with the server's own histograms and
/// benchmark-side wire spans, plus a closed-loop standalone pass over the
/// base datasets untraced and traced for the tracing overhead.
pub fn trace(seed: u64, seconds: f64, probe: bool) -> (Metrics, Checks) {
    let inputs = build_inputs(seed);
    // A probe still runs two rounds of the datasets, so its second round
    // repeats jobs and loads the cache.
    let seconds = if probe { 2.5 } else { seconds };
    let (server, mut out) = open_loop(&inputs, seed, seconds, true);
    verify(&server, &inputs, &mut out);
    let stats = server.stats();
    let split = busy_split_ms(&server, &out);
    drop(server);
    let busy: f64 = split.iter().sum();
    println!(
        "serve busy time: submit {:.1}%, exec {:.1}%, poll {:.1}%, feed {:.1}%",
        split[0] / busy * 100.0,
        split[1] / busy * 100.0,
        split[2] / busy * 100.0,
        split[3] / busy * 100.0
    );
    let mut checks = std::mem::take(&mut out.checks);
    let mut m = Metrics::default();
    let hist = |name: &str, q: f64| {
        stats.histogram(name).map_or(f64::NAN, |h| {
            util::histogram_quantile_ms(&h.snapshot(name), q)
        })
    };
    m.set("serve.queue_wait_p50_ms", hist("queue_wait_ns", 0.5));
    m.set("serve.queue_wait_p99_ms", hist("queue_wait_ns", 0.99));
    m.set("serve.exec_p50_ms", hist("exec_ns", 0.5));
    m.set("serve.exec_p99_ms", hist("exec_ns", 0.99));
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    m.set("serve.wire_submit_ms", mean(&out.submit_ms));
    m.set("serve.wire_poll_ms", mean(&out.poll_done_ms));
    let hits = stats.counter("cache_hits") as f64;
    let misses = stats.counter("cache_misses") as f64;
    m.set("serve.cache_hit_ratio", hits / (hits + misses));
    m.set("serve.cache_lookups", hits + misses);
    m.set(
        "serve.model_trainings",
        stats.counter("model_trainings") as f64,
    );
    m.set("serve.feed_ms", mean(&out.feed_ms));
    m.set("serve.queue_depth_max", out.queue_depth_max);
    m.set("serve.rejected", out.rejected as f64);
    m.set(
        "gen.lateness_p99_ms",
        util::quantile(&out.lateness_ms, 0.99),
    );

    // Standalone closed loop over the base datasets: traced reports must
    // equal untraced ones once the trace is removed.
    let (mut plain_ns, mut traced_ns, mut root_ns, mut staged_ns) = (0.0, 0.0, 0.0, 0.0);
    for round in 0..if probe { 1 } else { 5 } {
        for b in &inputs.bases {
            let run = |traced: bool| {
                let analysis = AnalysisConfig {
                    obs: if traced {
                        ObsConfig::enabled()
                    } else {
                        ObsConfig::default()
                    },
                    ..b.analysis.clone()
                };
                let t = util::now();
                let report = MdpQuery::new(analysis).execute(&Executor::OneShot, &b.points);
                (report, util::ns_since(t))
            };
            let ((plain, p_ns), (traced, t_ns)) = if round % 2 == 0 {
                let p = run(false);
                (p, run(true))
            } else {
                let t = run(true);
                (run(false), t)
            };
            plain_ns += p_ns;
            traced_ns += t_ns;
            let problem = match (plain, traced) {
                (Ok(p), Ok(t)) => {
                    root_ns += t_ns;
                    staged_ns += t.trace.as_ref().map_or(0, |tr| tr.total_stage_ns()) as f64;
                    (util::untraced_bytes(&t) != util::report_bytes(&p)).then(|| {
                        format!(
                            "{}: traced report differs once the trace is removed",
                            b.name
                        )
                    })
                }
                (Err(e), _) | (_, Err(e)) => Some(format!("{}: {e}", b.name)),
            };
            checks.op(problem);
        }
    }
    m.set("core.unattributed_share", (root_ns - staged_ns) / root_ns);
    m.set(
        "obs.overhead_pct",
        (traced_ns - plain_ns) / plain_ns * 100.0,
    );
    (m, checks)
}
