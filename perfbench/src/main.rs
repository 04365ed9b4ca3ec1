//! `perfbench`: the end-to-end and per-layer benchmark of the
//! local-decision sweeps, the sweep daemon and distributed dispatch.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each invocation runs one workload in this process — `xl-sweep`,
//! `gmr-sweep`, `serve-jobs` or `dispatch-xl` — through the library's
//! public API, checks every operation's report against a pinned digest,
//! and prints one JSON object as the last line of standard output.  With
//! `--trace 0` it holds the end-to-end metrics; with `--trace 1` the run is
//! split into an untraced and a traced phase of 40% each plus replay
//! probes, and the object holds the per-layer metrics.  Spans are written to
//! `.bench_out/trace-<workload>-seed<n>.jsonl`.  Scratch files live under
//! `.bench_tmp/`, which is removed at exit.

mod dispatch;
mod pinned;
mod probe;
mod serve;
mod stats;
mod sweep;
mod trace;

use ld_runner::scenarios::{Section2SweepXl, Section3Sweep};
use ld_runner::Scenario;
use pinned::Verifier;
use stats::{closed_loop, median, tail, OpResult, Phase, Window};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;
use sweep::SweepSpec;
use trace::Tracer;

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 4] = ["xl-sweep", "gmr-sweep", "serve-jobs", "dispatch-xl"];

/// End-to-end metrics and units, printed by every untraced run.
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("cells_per_s", "1/s"),
    ("cpu_us_per_cell", "us"),
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("ok_ratio", "ratio"),
];

/// Per-layer metrics and units, printed by every traced run.  A layer a
/// workload does not pass through reads 0 and is listed as not applicable
/// in the run record.
const PER_LAYER: [(&str, &str); 30] = [
    ("plan.ms", "ms"),
    ("cell.count", "count"),
    ("cell.ms_p50", "ms"),
    ("cell.ms_p99", "ms"),
    ("shard.ms_p50", "ms"),
    ("write.ms", "ms"),
    ("write.bytes", "bytes"),
    ("ckpt.ms", "ms"),
    ("ckpt.bytes", "bytes"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_ratio", "ratio"),
    ("ball.ns_per_extract", "ns"),
    ("ball.nodes_per_extract", "count"),
    ("canon.kernel_calls", "count"),
    ("canon.kernel_share", "ratio"),
    ("canon.ns_per_code", "ns"),
    ("decide.ms", "ms"),
    ("gmr.build_ms", "ms"),
    ("serve.submit_ms_p50", "ms"),
    ("serve.ttfb_ms_p50", "ms"),
    ("serve.tail_ms_p50", "ms"),
    ("serve.report_bytes", "bytes"),
    ("dispatch.shard_rtt_ms_p50", "ms"),
    ("dispatch.bytes", "bytes"),
    ("dispatch.reassigned", "count"),
    ("dispatch.stale_rejected", "count"),
    ("dispatch.worker_failures", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("host.steal_ratio", "ratio"),
];

/// Set-up repetitions; `setup_s` is the median of the quiet ones.
const SETUP_REPS: usize = 21;

/// A run that outlives this is abandoned (exit 3, no result).
const WATCHDOG: Duration = Duration::from_secs(170);

/// Scratch files of all runs live under this directory of the checkout.
const TMP_ROOT: &str = ".bench_tmp";

/// Traces are written under this directory of the checkout.
const OUT_ROOT: &str = ".bench_out";

/// What every workload needs to know about the run.
pub struct Ctx {
    /// The run's seed: picks each operation's inputs.
    pub seed: u64,
    /// Length of the measured phase, seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Smoke-test sizes.
    pub tiny: bool,
    /// The run's scratch directory.
    pub dir: PathBuf,
    /// The pinned report digests.
    pub verifier: Verifier,
}

impl Ctx {
    /// Times `once` over the set-up repetitions and keeps those the
    /// hypervisor stole no CPU time from (or, on a busy host, the
    /// least-stolen half), as the quiet windows of a phase are chosen.
    pub fn repeat_setup(
        &self,
        mut once: impl FnMut() -> Result<f64, String>,
    ) -> Result<Vec<f64>, String> {
        let reps = if self.tiny { 3 } else { SETUP_REPS };
        let mut timed = Vec::with_capacity(reps);
        for _ in 0..reps {
            let before = stats::host_ticks().0;
            let seconds = once()?;
            timed.push((stats::host_ticks().0 - before, seconds));
        }
        timed.sort_by_key(|&(stolen, _)| stolen);
        let calm = timed.iter().take_while(|&&(stolen, _)| stolen == 0).count();
        timed.truncate(calm.max(reps.div_ceil(2)));
        Ok(timed.into_iter().map(|(_, seconds)| seconds).collect())
    }

    /// The time a traced run gives each replay probe, seconds.
    pub fn probe_seconds(&self) -> f64 {
        (self.seconds * 0.15).max(0.05)
    }
}

/// Everything a workload measured.
pub struct Measured {
    /// Set-up repetitions, seconds.
    pub setup: Vec<f64>,
    /// Verdicts of the untimed warm-up operations.
    pub warm: Vec<bool>,
    /// The untraced closed-loop phase.
    pub phase: Phase,
    /// The traced phase (traced runs only).
    pub traced: Option<Phase>,
    /// The traced phase's spans (traced runs only).
    pub tracer: Option<Tracer>,
    /// Per-layer metrics the workload derived (traced runs only).
    pub layers: Vec<(&'static str, f64)>,
}

/// Runs a workload's closed loop: one warm-up operation per client, then
/// the untraced phase for the whole run, or, in a traced run, an untraced
/// and a traced phase of 40% of the run each.
pub fn drive<U, T>(ctx: &Ctx, setup: Vec<f64>, clients: usize, untraced: U, traced: T) -> Measured
where
    U: Fn(usize, u64) -> OpResult + Sync,
    T: Fn(usize, u64, &Tracer) -> OpResult + Sync,
{
    let warm = (0..clients).map(|c| untraced(c, 0).ok).collect();
    if !ctx.trace {
        let phase = closed_loop(clients, ctx.seconds, &untraced);
        return Measured {
            setup,
            warm,
            phase,
            traced: None,
            tracer: None,
            layers: Vec::new(),
        };
    }
    let phase = closed_loop(clients, ctx.seconds * 0.4, &untraced);
    let tracer = Tracer::new();
    let traced = closed_loop(clients, ctx.seconds * 0.4, |c, j| traced(c, j, &tracer));
    Measured {
        setup,
        warm,
        phase,
        traced: Some(traced),
        tracer: Some(tracer),
        layers: Vec::new(),
    }
}

/// Runs `workload` with its scratch files under `ctx.dir`.
fn measure(workload: &str, ctx: &Ctx) -> Result<Measured, String> {
    let sweep =
        |scenario: &'static dyn Scenario, full: usize, tiny: usize, shard_size: usize| SweepSpec {
            scenario,
            max_n: if ctx.tiny { tiny } else { full },
            threads: 2,
            shard_size,
        };
    match workload {
        "xl-sweep" => sweep::measure(&sweep(&Section2SweepXl, 2048, 64, 16), 1, ctx),
        // One cell per shard spreads the 14 cells of a round over both
        // worker threads, so every round keeps both CPUs busy.  On a 2-vCPU
        // host a round on one thread ran in a fast or a slow host mode, and
        // a run's median round time flipped between the two from run to run.
        "gmr-sweep" => sweep::measure(&sweep(&Section3Sweep, 128, 24, 1), 1, ctx),
        "serve-jobs" => serve::measure(ctx),
        "dispatch-xl" => dispatch::measure(ctx),
        other => Err(format!("unknown workload '{other}'")),
    }
}

/// The result of one run: operations attempted and failed, and metrics.
pub struct Outcome {
    /// Operations attempted (warm-up and measured).
    pub attempted: u64,
    /// Operations that errored or failed verification.
    pub failed: u64,
    /// `(name, value, unit)` in the order `BENCHMARK.json` lists them.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Metrics this workload has no layer for (they read 0).
    pub not_applicable: Vec<&'static str>,
    /// The percentile `job_p90_ms` reports (lower when the run holds
    /// fewer than ten operations beyond its 90th percentile).
    pub tail_percentile: f64,
    /// Windows the end-to-end metrics were taken over, of all windows.
    pub quiet_windows: (usize, usize),
}

impl Outcome {
    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn json(&self) -> String {
        let mut metrics = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed
        )
    }
}

/// Derives the printed metrics from what the workload measured.
fn outcome(measured: &Measured, trace: bool, steal: f64) -> Outcome {
    let phases = std::iter::once(&measured.phase).chain(measured.traced.as_ref());
    let (mut attempted, mut failed) = (measured.warm.len() as u64, 0u64);
    failed += measured.warm.iter().filter(|ok| !**ok).count() as u64;
    for phase in phases {
        attempted += phase.ops().count() as u64;
        failed += phase.failed();
    }
    let quiet = measured.phase.quiet();
    let latencies: Vec<f64> = quiet
        .iter()
        .flat_map(|w| w.ops.iter().map(|op| op.latency))
        .collect();
    let p90 = tail(&latencies, 90.0);
    let values: Vec<(&str, f64)> = if trace {
        let overhead = measured.traced.as_ref().map_or(0.0, |t| {
            stats::ratio(median(&t.latencies()), median(&measured.phase.latencies()))
        });
        let mut layers = measured.layers.clone();
        layers.push(("trace.overhead_ratio", overhead));
        layers.push(("host.steal_ratio", steal));
        layers
    } else {
        let per_window =
            |f: &dyn Fn(&Window) -> f64| median(&quiet.iter().map(|w| f(w)).collect::<Vec<_>>());
        let cpu: f64 = quiet.iter().map(|w| w.cpu).sum();
        let cells: u64 = quiet.iter().map(|w| w.cells()).sum();
        vec![
            ("setup_s", median(&measured.setup)),
            ("cells_per_s", per_window(&|w| w.cells() as f64 / w.seconds)),
            ("cpu_us_per_cell", stats::ratio(cpu * 1e6, cells as f64)),
            (
                "jobs_per_s",
                per_window(&|w| w.ops.len() as f64 / w.seconds),
            ),
            ("job_p50_ms", median(&latencies) * 1e3),
            ("job_p90_ms", p90.value * 1e3),
            ("peak_rss_mb", stats::peak_rss_mib()),
            (
                "ok_ratio",
                stats::ratio((attempted - failed) as f64, attempted as f64),
            ),
        ]
    };
    let wanted: &[(&'static str, &'static str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut not_applicable = Vec::new();
    let metrics = wanted
        .iter()
        .map(|&(name, unit)| {
            let value = values
                .iter()
                .rev()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| *v);
            if value.is_none() {
                not_applicable.push(name);
            }
            (name, value.unwrap_or(0.0), unit)
        })
        .collect();
    Outcome {
        attempted,
        failed,
        metrics,
        not_applicable,
        tail_percentile: p90.percentile,
        quiet_windows: (quiet.len(), measured.phase.windows.len()),
    }
}

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <xl-sweep|gmr-sweep|serve-jobs|dispatch-xl> \
--seed <n> --seconds <s> --trace <0|1>";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = value()?,
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if !WORKLOADS.contains(&parsed.workload.as_str()) {
        return Err(format!("unknown workload '{}'", parsed.workload));
    }
    Ok(parsed)
}

/// Removes the run's scratch directory (and its parent, once empty).
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}\n{USAGE}");
            return ExitCode::from(64);
        }
    };
    let dir = Path::new(TMP_ROOT).join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("perfbench: creating {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    let scratch = ScratchDir(dir.clone());
    let watchdog_dir = dir.clone();
    std::thread::spawn(move || {
        std::thread::sleep(WATCHDOG);
        eprintln!("perfbench: run exceeded {WATCHDOG:?}; abandoning it");
        let _ = std::fs::remove_dir_all(watchdog_dir);
        std::process::exit(3);
    });
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        tiny: false,
        dir,
        verifier: Verifier::pinned(),
    };
    let ticks = stats::host_ticks();
    let measured = measure(&args.workload, &ctx);
    let steal = stats::steal_ratio(ticks, stats::host_ticks());
    drop(scratch);
    let measured = match measured {
        Ok(measured) => measured,
        Err(message) => {
            eprintln!("perfbench: {}: {message}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let result = outcome(&measured, args.trace, steal);
    let record = run_record(&args, &measured, &result, steal);
    for (name, value, unit) in &result.metrics {
        eprintln!("  {name:<28} {value:>14.6} {unit}");
    }
    if let Some(tracer) = &measured.tracer {
        if let Err(message) = write_trace(&args, &record, tracer) {
            eprintln!("perfbench: {message}");
            return ExitCode::FAILURE;
        }
    }
    println!("# run {record}");
    println!("{}", result.json());
    ExitCode::SUCCESS
}

/// The run record: what produced the numbers and on what host.
fn run_record(args: &Args, measured: &Measured, result: &Outcome, steal: f64) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let sources = stats::source_digest(&[Path::new("crates"), Path::new("perfbench/src")]);
    let commit = stats::git_commit().unwrap_or_else(|| "none".to_string());
    let not_applicable: Vec<String> = result
        .not_applicable
        .iter()
        .map(|n| format!("\"{n}\""))
        .collect();
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
\"nproc\": {nproc}, \"commit\": \"{commit}\", \"sources_fnv\": \"{sources:016x}\", \
\"host_steal_ratio\": {steal}, \"ops\": {}, \"quiet_windows\": [{}, {}], \
\"job_p90_percentile\": {}, \"not_applicable\": [{}]}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        measured.phase.ops().count(),
        result.quiet_windows.0,
        result.quiet_windows.1,
        result.tail_percentile,
        not_applicable.join(", ")
    )
}

/// Writes the run record and every span to the trace file.
fn write_trace(args: &Args, record: &str, tracer: &Tracer) -> Result<(), String> {
    let path = Path::new(OUT_ROOT).join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
    std::fs::create_dir_all(OUT_ROOT).map_err(|e| format!("creating {OUT_ROOT}: {e}"))?;
    let body = format!("{record}\n{}", trace::render(&tracer.spans()));
    std::fs::write(&path, body).map_err(|e| format!("writing {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ld_runner::json::Json;

    /// A tiny-size context with its own scratch directory.
    fn tiny_ctx(test: &str, name: &str, trace: bool, verifier: Verifier) -> (Ctx, ScratchDir) {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("..")
            .join(TMP_ROOT)
            .join(format!(
                "{test}-{name}-{}-{}",
                u8::from(trace),
                std::process::id()
            ));
        std::fs::create_dir_all(&dir).expect("scratch directory");
        let ctx = Ctx {
            seed: 3,
            seconds: 0.5,
            trace,
            tiny: true,
            dir: dir.clone(),
            verifier,
        };
        (ctx, ScratchDir(dir))
    }

    /// Parses a result line into `(correct, {name: (value, unit)})`.
    fn parse(line: &str) -> (bool, Vec<(String, f64, String)>) {
        let doc = Json::parse(line).expect("the result line is JSON");
        let correct = doc.get("correct").and_then(Json::as_bool).expect("correct");
        assert!(doc
            .get("attempted")
            .and_then(Json::as_u64)
            .is_some_and(|a| a >= 1));
        assert!(doc.get("failed").and_then(Json::as_u64).is_some());
        let Some(Json::Obj(metrics)) = doc.get("metrics") else {
            panic!("metrics must be an object: {line}");
        };
        let metrics = metrics
            .iter()
            .map(|(name, metric)| {
                let value = match metric.get("value") {
                    Some(Json::F64(v)) => *v,
                    Some(Json::U64(v)) => *v as f64,
                    Some(Json::I64(v)) => *v as f64,
                    other => panic!("{name}: value {other:?}"),
                };
                let unit = metric.get("unit").and_then(Json::as_str).expect("unit");
                (name.clone(), value, unit.to_string())
            })
            .collect();
        (correct, metrics)
    }

    #[test]
    fn every_workload_prints_every_metric_with_its_unit_at_tiny_size() {
        for workload in WORKLOADS {
            for trace in [false, true] {
                let (ctx, _scratch) = tiny_ctx("metrics", workload, trace, Verifier::pinned());
                let measured = measure(workload, &ctx).expect("tiny run");
                let result = outcome(&measured, trace, 0.0);
                let (correct, metrics) = parse(&result.json());
                assert!(correct, "{workload}: {}", result.json());
                let wanted: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
                assert_eq!(metrics.len(), wanted.len(), "{workload}");
                for ((name, value, unit), (want_name, want_unit)) in metrics.iter().zip(wanted) {
                    assert_eq!((name.as_str(), unit.as_str()), (*want_name, *want_unit));
                    assert!(
                        value.is_finite() && *value >= 0.0,
                        "{workload} {name} = {value}"
                    );
                }
                if !trace {
                    let ok = metrics
                        .iter()
                        .find(|m| m.0 == "ok_ratio")
                        .expect("ok_ratio");
                    assert_eq!(ok.1, 1.0, "{workload}");
                    for (name, value, _) in &metrics {
                        assert!(*value > 0.0, "{workload}: {name} must never read 0");
                    }
                }
            }
        }
    }

    #[test]
    fn a_wrong_digest_drops_ok_ratio() {
        for workload in WORKLOADS {
            let (ctx, _scratch) = tiny_ctx("digest", workload, false, Verifier::corrupted());
            let measured = measure(workload, &ctx).expect("tiny run");
            let result = outcome(&measured, false, 0.0);
            let (correct, metrics) = parse(&result.json());
            assert!(!correct, "{workload}");
            let ok = metrics
                .iter()
                .find(|m| m.0 == "ok_ratio")
                .expect("ok_ratio");
            assert_eq!(ok.1, 0.0, "{workload}: no report may verify");
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_the_printed_metrics() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str, field: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .expect(key)
                .iter()
                .map(|entry| {
                    entry
                        .get(field)
                        .and_then(Json::as_str)
                        .expect(field)
                        .to_string()
                })
                .collect()
        };
        assert_eq!(listed("workloads", "name"), WORKLOADS);
        for (key, wanted) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let names: Vec<&str> = wanted.iter().map(|m| m.0).collect();
            let units: Vec<&str> = wanted.iter().map(|m| m.1).collect();
            assert_eq!(listed(key, "name"), names);
            assert_eq!(listed(key, "unit"), units);
        }
    }
}
