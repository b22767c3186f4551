//! MacroBase-RS benchmark: one command, four workloads, end-to-end metrics
//! from untraced runs and per-layer metrics from a separate traced run.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload batch_univariate --seed 1 --seconds 15 --trace 0
//! ```
//!
//! `--workload all` runs every workload in one process. Every run checks
//! the program's outputs; the last stdout line is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`, and the exit code is
//! non-zero when any output check failed. See `README.md` for what each
//! workload loads and which metric each layer should move.

mod batch;
mod ews;
mod serve;
mod util;

use std::path::Path;
use util::{Checks, Metrics};

/// The workloads, in the order `--workload all` runs them.
const WORKLOADS: [&str; 4] = ["batch_univariate", "batch_mcd", "ews_stream", "serve_mixed"];

/// Metrics every untraced run prints: `(name, unit, higher_is_better)`.
const END_TO_END: [(&str, &str, bool); 7] = [
    ("rows_per_s", "rows/s", true),
    ("report_p50_ms", "ms", false),
    ("report_p90_ms", "ms", false),
    ("explain_agreement", "ratio", true),
    ("ok_share", "ratio", true),
    ("setup_s", "s", false),
    ("peak_rss_mb", "MiB", false),
];

/// Metrics every traced run prints: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("core.flatten_ns_per_row", "ns"),
    ("core.ingest_ns_per_row", "ns"),
    ("core.merge_ms", "ms"),
    ("core.unattributed_share", "ratio"),
    ("encode.ns_per_row", "ns"),
    ("encode.dictionary_items", "count"),
    ("explain.ms", "ms"),
    ("explain.explanations", "count"),
    ("explain.useful_ratio", "ratio"),
    ("fpgrowth.tree_nodes", "count"),
    ("fpgrowth.mine_ms", "ms"),
    ("fpgrowth.itemsets", "count"),
    ("train.mad_ns_per_row", "ns"),
    ("score.ns_per_row", "ns"),
    ("train.mcd_ms", "ms"),
    ("train.share", "ratio"),
    ("pool.tasks", "count"),
    ("pool.steals", "count"),
    ("pool.idle_parks", "count"),
    ("pool.injector_pops", "count"),
    ("ews.classify_ns_per_point", "ns"),
    ("ews.retrain_ms", "ms"),
    ("ews.encode_ns_per_point", "ns"),
    ("ews.explain_observe_ns_per_point", "ns"),
    ("ews.window_boundary_ms", "ms"),
    ("ews.explain_ms", "ms"),
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.queue_wait_p99_ms", "ms"),
    ("serve.exec_p50_ms", "ms"),
    ("serve.exec_p99_ms", "ms"),
    ("serve.wire_submit_ms", "ms"),
    ("serve.wire_poll_ms", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.cache_lookups", "count"),
    ("serve.model_trainings", "count"),
    ("serve.feed_ms", "ms"),
    ("serve.queue_depth_max", "count"),
    ("serve.rejected", "count"),
    ("gen.lateness_p99_ms", "ms"),
    ("obs.overhead_pct", "%"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => {
                args.seed = value
                    .parse()
                    .map_err(|_| format!("--seed must be an unsigned integer, got {value:?}"))?
            }
            "--seconds" => {
                args.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds must be positive, got {value:?}"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all, got {:?}",
            WORKLOADS.join(", "),
            args.workload
        ));
    }
    Ok(args)
}

/// Run one workload: end-to-end metrics untraced, or per-layer metrics
/// traced. Traced runs measure every layer the workload loads on the
/// workload itself; any layer it bypasses is measured on a short probe of
/// the workload that loads it, so every traced run reports every layer.
fn run_workload(name: &str, seed: u64, seconds: f64, trace: bool) -> (Metrics, Checks) {
    if !trace {
        return match name {
            "batch_univariate" => batch::run(batch::Family::Univariate, seed, seconds),
            "batch_mcd" => batch::run(batch::Family::Mcd, seed, seconds),
            "ews_stream" => ews::run(seed, seconds),
            _ => serve::run(seed, seconds),
        };
    }
    let traced = |w: &str, probe: bool| match w {
        "batch_univariate" => batch::trace(batch::Family::Univariate, seed, probe),
        "batch_mcd" => batch::trace(batch::Family::Mcd, seed, probe),
        "ews_stream" => ews::trace(seed, probe),
        _ => serve::trace(seed, seconds, probe),
    };
    let (mut metrics, mut checks) = traced(name, false);
    for other in WORKLOADS.iter().filter(|w| **w != name) {
        if PER_LAYER.iter().all(|(m, _)| metrics.get(m).is_some()) {
            break;
        }
        let (probe, probe_checks) = traced(other, true);
        let filled: Vec<&str> = probe
            .0
            .iter()
            .filter(|m| metrics.get(&m.name).is_none())
            .map(|m| m.name.as_str())
            .collect();
        if !filled.is_empty() {
            println!("probe {other}: {}", filled.join(", "));
        }
        metrics.fill_from(&probe);
        checks.absorb(probe_checks);
    }
    (metrics, checks)
}

/// The git commit of the checkout, read from `.git` without running git;
/// `none` outside a repository.
fn git_commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "none".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(commit) = std::fs::read_to_string(git.join(reference)) {
        return commit.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "none".to_string())
}

/// FNV-1a over every Rust source and manifest of the repository's crates,
/// in sorted path order: identifies the measured code where no git
/// metadata exists.
fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
                out.push(path);
            }
        }
    }
    let mut files = Vec::new();
    for top in ["crates", "src", "vendor"] {
        walk(&root.join(top), &mut files);
    }
    files.push(root.join("Cargo.toml"));
    files.sort();
    let mut bytes = Vec::new();
    for file in &files {
        if let (Ok(rel), Ok(content)) = (file.strip_prefix(root), std::fs::read(file)) {
            bytes.extend_from_slice(rel.to_string_lossy().as_bytes());
            bytes.extend_from_slice(&content);
        }
    }
    format!("{:016x}", util::fnv64(&bytes))
}

/// JSON string literal (the fingerprint fields are plain ASCII, but a
/// path or compiler string could carry a quote).
fn json_str(s: &str) -> String {
    serde_json::Value::String(s.to_string()).to_string()
}

/// A number with every digit Rust's shortest round-trip formatting gives;
/// `null` for a value that could not be measured.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn print_fingerprint(args: &Args) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .unwrap_or(Path::new("."));
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let scale = match args.workload.as_str() {
        "all" => WORKLOADS
            .iter()
            .map(|w| scale_of(w))
            .collect::<Vec<_>>()
            .join("; "),
        w => scale_of(w),
    };
    println!(
        "{{\"fingerprint\": {{\"nproc\": {nproc}, \"pool_width\": {}, \"rustc\": {}, \"commit\": {}, \"source_digest\": {}, \"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"scale\": {}}}}}",
        mb_pool::global().num_threads(),
        json_str(env!("MB_PERFBENCH_RUSTC")),
        json_str(&git_commit(root)),
        json_str(&source_digest(root)),
        json_str(&args.workload),
        args.seed,
        json_num(args.seconds),
        u8::from(args.trace),
        json_str(&scale),
    );
}

fn scale_of(workload: &str) -> String {
    match workload {
        "batch_univariate" => batch::scale(batch::Family::Univariate),
        "batch_mcd" => batch::scale(batch::Family::Mcd),
        "ews_stream" => ews::scale(),
        _ => serve::scale(),
    }
}

/// Print the human table and return the result object's `metrics` body.
fn render(prefix: &str, metrics: &Metrics, wanted: &[(&str, &str, Option<bool>)]) -> Vec<String> {
    let mut body = Vec::new();
    for (name, unit, better) in wanted {
        let value = metrics.get(name).map_or(f64::NAN, |m| m.value);
        let direction = match better {
            Some(true) => " (higher is better)",
            Some(false) => " (lower is better)",
            None => "",
        };
        println!("{prefix}{name:<34} {value:>16.6} {unit}{direction}");
        body.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(&format!("{prefix}{name}")),
            json_num(value),
            json_str(unit)
        ));
    }
    body
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!(
                "usage: mb-perfbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    print_fingerprint(&args);
    let wanted: Vec<(&str, &str, Option<bool>)> = if args.trace {
        PER_LAYER.iter().map(|(n, u)| (*n, *u, None)).collect()
    } else {
        END_TO_END
            .iter()
            .map(|(n, u, b)| (*n, *u, Some(*b)))
            .collect()
    };
    let selected: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let calibration_before = util::calibration_ms(5);
    let mut checks = Checks::default();
    let mut body = Vec::new();
    for workload in &selected {
        let (metrics, workload_checks) =
            run_workload(workload, args.seed, args.seconds, args.trace);
        let prefix = if selected.len() > 1 {
            format!("{workload}/")
        } else {
            String::new()
        };
        println!(
            "workload {workload}: {} operations, {} failed",
            workload_checks.attempted, workload_checks.failed
        );
        let rendered = render(&prefix, &metrics, &wanted);
        if rendered.iter().any(|m| m.contains("\"value\": null")) {
            checks.op(Some(format!("{workload} left a metric unmeasured")));
        }
        body.extend(rendered);
        checks.absorb(workload_checks);
    }
    println!(
        "calibration kernel: {calibration_before:.3} ms before, {:.3} ms after",
        util::calibration_ms(5)
    );
    let correct = checks.failed == 0 && checks.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.attempted.max(1),
        checks.failed,
        body.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
