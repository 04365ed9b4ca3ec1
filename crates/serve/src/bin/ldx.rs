//! `ldx` — list, run, resume, diff, analyze, and serve experiment sweeps.
//!
//! ```text
//! ldx list [--json]
//! ldx run <scenario> | --file <scenario.json>
//!                    [--max-n N] [--threads T] [--seed S] [--radius R]
//!                    [--node-budget N] [--view-budget N] [--shard-size N]
//!                    [--out FILE.json] [--csv FILE.csv] [--bench-json FILE]
//!                    [--deterministic] [--max-shards N]
//! ldx resume <report.json> [--file <scenario.json>] [--threads T]
//!                          [--bench-json FILE] [--max-shards N]
//! ldx diff <a.json> <b.json>
//! ldx analyze [--deny-all] [--json] [--root DIR]
//! ldx serve [--addr HOST:PORT] [--spool DIR] [--workers N]
//! ldx submit <scenario> | --file <scenario.json>
//!                       [--addr HOST:PORT] [--priority P] [--wait] [--out FILE]
//!                       [config flags as for run]
//! ldx dispatch <scenario> [--workers N | --worker HOST:PORT ...] [--out FILE]
//!                         [--lease-ms MS] [--batch N] [--max-attempts N]
//!                         [--bench-json FILE] [config flags as for run]
//! ldx shutdown [--addr HOST:PORT]
//! ```
//!
//! `run`, `resume` and `dispatch` write nothing but the report (and its
//! checkpoint and CSV) unless asked: `--bench-json FILE` adds the flat
//! perf snapshot of a completed run.  `--no-bench-json` is accepted and
//! ignored, so older scripts keep parsing.
//!
//! `run` executes the named scenario through the **streaming sharded
//! pipeline**: cells are executed shard by shard and appended to the JSON
//! report (schema `ld-runner/report/v3`) as they complete, so peak memory
//! is bounded by the shard window, not the sweep — and a checkpoint
//! sidecar (`<report>.ckpt`) records every flushed shard.  A killed run
//! therefore loses at most one shard of work: `resume` verifies the
//! report prefix against the checkpoint digest and continues, producing a
//! file byte-identical to an uninterrupted run.  With `--deterministic`
//! the report omits every timing- and parallelism-dependent field, so runs
//! differing only in `--threads` (or in where they were killed) must
//! produce byte-identical files — CI diffs exactly that.  `diff` compares
//! any two persisted reports (any schema version: v1, v2 or v3) cell by
//! cell.  The process exits nonzero when any cell fails or panics, and
//! after an incomplete (`--max-shards`-limited) run.
//!
//! `serve` starts the long-running daemon (`ld-serve`): a priority job
//! queue over the same streaming pipeline, with per-job spool files so a
//! killed daemon resumes in-flight jobs on restart.  `submit` and
//! `shutdown` are thin HTTP clients for it.
//!
//! `dispatch` runs one sweep *distributed*: the shard layout is split
//! across N worker daemons (spawned locally with `--workers N`, or
//! already-running ones named with repeated `--worker HOST:PORT`) under
//! time-bounded, epoch-fenced leases, and the verified results are merged
//! into a report byte-identical to `ldx run --deterministic` — including
//! when workers are killed mid-sweep (their shards reassign with capped
//! exponential backoff).  See `docs/FAULTS.md`.
//!
//! Everything `ldx` prints to standard output goes through one writer
//! (`out!`/`outln!`).  A reader that closes the pipe early
//! (`ldx run … | head -1`, `ldx list | true`) ends the output, not the
//! command: `ldx` finishes its work — the report and any `--bench-json`
//! snapshot are still written — and exits with the status it would have
//! had.  Any other standard-output error is reported once on stderr.
//!
//! Invalid sweep configurations exit with the typed `ConfigError` codes
//! (65 zero-max-n, 66 radius-too-large, 67 zero-shard-size); generic usage
//! errors exit 64; operational failures exit 1.  The daemon's `400`
//! bodies carry the same `token`/`exit_code` mapping, and `submit`
//! propagates them.

use ld_runner::json::Json;
use ld_runner::stream::{self, Checkpoint, StreamOptions, StreamSummary};
use ld_runner::{
    scenarios, ConfigError, DslError, ReportSummary, Scenario, ScenarioDoc, SweepConfig,
};
use ld_serve::client;
use ld_serve::{DispatchOptions, JobSpec, ServeOptions, Server};
use std::io::BufRead;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
// ld-analyze: allow(D002, reason = "CLI status lines report real elapsed wall time")
use std::time::{Duration, Instant};

/// The one writer behind `out!` and `outln!`: standard output until a
/// write fails, then nothing (see the module docs).
fn write_stdout(args: std::fmt::Arguments<'_>) {
    use std::io::Write;
    use std::sync::atomic::{AtomicBool, Ordering};
    static CLOSED: AtomicBool = AtomicBool::new(false);
    if CLOSED.load(Ordering::Relaxed) {
        return;
    }
    if let Err(error) = std::io::stdout().lock().write_fmt(args) {
        CLOSED.store(true, Ordering::Relaxed);
        if error.kind() != std::io::ErrorKind::BrokenPipe {
            eprintln!("ldx: writing to standard output: {error}");
        }
    }
}

/// `print!` through [`write_stdout`].
macro_rules! out {
    ($($arg:tt)*) => {
        write_stdout(format_args!($($arg)*))
    };
}

/// `println!` through [`write_stdout`].
macro_rules! outln {
    ($($arg:tt)*) => {
        write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// The default daemon address shared by `serve`, `submit` and `shutdown`.
const DEFAULT_ADDR: &str = "127.0.0.1:7117";

/// Decodes a daemon response body as JSON.
fn parse_response(response: &client::Response) -> Result<Json, CliError> {
    Json::parse(&response.text()).map_err(|e| CliError::Message(format!("bad response body: {e}")))
}

/// A CLI failure with its exit code.
enum CliError {
    /// A generic usage/parse error (exit 64).
    Usage(String),
    /// An operational failure (exit 1).
    Message(String),
    /// A typed configuration error (exit 65–67, see [`ConfigError`]).
    Config(ConfigError),
    /// A typed scenario-document error (exit 64/66/68, see [`DslError`]).
    Dsl(DslError),
    /// A server-provided exit code (e.g. from a `400` body).
    Exit {
        /// The exit code to use.
        code: u8,
        /// The message to print.
        message: String,
    },
}

impl From<String> for CliError {
    fn from(message: String) -> CliError {
        CliError::Message(message)
    }
}

impl CliError {
    fn exit_code(&self) -> u8 {
        match self {
            CliError::Usage(_) => 64,
            CliError::Message(_) => 1,
            CliError::Config(e) => e.exit_code(),
            CliError::Dsl(e) => e.exit_code(),
            CliError::Exit { code, .. } => *code,
        }
    }

    fn message(&self) -> String {
        match self {
            CliError::Usage(m) | CliError::Message(m) | CliError::Exit { message: m, .. } => {
                m.clone()
            }
            CliError::Config(e) => format!("{e} [{}]", e.token()),
            CliError::Dsl(e) => format!("{e} [{}]", e.token()),
        }
    }
}

fn usage() -> String {
    let mut out = String::from(
        "usage:\n  ldx list [--json]\n  ldx run <scenario> | --file <scenario.json>\n                     [--max-n N] [--threads T] [--seed S] [--radius R]\n                     [--node-budget N] [--view-budget N] [--shard-size N]\n                     [--out FILE.json] [--csv FILE.csv] [--bench-json FILE]\n                     [--deterministic] [--max-shards N]\n  ldx resume <report.json> [--file <scenario.json>] [--threads T]\n             [--bench-json FILE] [--max-shards N]\n  ldx diff <a.json> <b.json>\n  ldx analyze [--deny-all] [--json] [--root DIR]\n  ldx serve [--addr HOST:PORT] [--spool DIR] [--workers N]\n  ldx submit <scenario> | --file <scenario.json>\n             [--addr HOST:PORT] [--priority P] [--wait] [--out FILE]\n             [config flags as for run]\n  ldx dispatch <scenario> [--workers N | --worker HOST:PORT ...] [--out FILE]\n               [--lease-ms MS] [--batch N] [--max-attempts N]\n               [--bench-json FILE] [config flags as for run]\n  ldx shutdown [--addr HOST:PORT]\n\nscenario documents (--file) follow docs/DSL.md, schema ld-runner/scenario/v1\n\nscenarios:\n",
    );
    out.push_str(&scenario_lines());
    out
}

/// One `  <name> <description>` line per built-in scenario.
fn scenario_lines() -> String {
    scenarios::all()
        .iter()
        .map(|scenario| format!("  {:<20} {}\n", scenario.name(), scenario.description()))
        .collect()
}

struct RunArgs {
    scenario: Option<String>,
    file: Option<PathBuf>,
    config: SweepConfig,
    out: Option<PathBuf>,
    csv: Option<PathBuf>,
    bench_json: Option<PathBuf>,
    deterministic: bool,
    max_shards: Option<usize>,
}

/// Applies one `--max-n`-style sweep-config flag; returns `Ok(false)` when
/// the flag is not a config flag (the caller handles it).
fn parse_config_flag(
    config: &mut SweepConfig,
    flag: &str,
    iter: &mut std::slice::Iter<'_, String>,
) -> Result<bool, String> {
    let mut value = |name: &str| {
        iter.next()
            .map(String::as_str)
            .ok_or_else(|| format!("{name} expects a value"))
            .map(str::to_string)
    };
    match flag {
        "--max-n" => {
            config.max_n = value("--max-n")?
                .parse()
                .map_err(|e| format!("--max-n: {e}"))?;
        }
        "--threads" => {
            config.threads = value("--threads")?
                .parse()
                .map_err(|e| format!("--threads: {e}"))?;
            if config.threads == 0 {
                return Err("--threads must be at least 1".to_string());
            }
        }
        "--seed" => {
            config.seed = value("--seed")?
                .parse()
                .map_err(|e| format!("--seed: {e}"))?;
        }
        "--radius" => {
            config.radius = Some(
                value("--radius")?
                    .parse()
                    .map_err(|e| format!("--radius: {e}"))?,
            );
        }
        "--node-budget" => {
            config.node_budget = Some(
                value("--node-budget")?
                    .parse()
                    .map_err(|e| format!("--node-budget: {e}"))?,
            );
        }
        "--view-budget" => {
            config.view_budget = Some(
                value("--view-budget")?
                    .parse()
                    .map_err(|e| format!("--view-budget: {e}"))?,
            );
        }
        "--shard-size" => {
            config.shard_size = value("--shard-size")?
                .parse()
                .map_err(|e| format!("--shard-size: {e}"))?;
        }
        _ => return Ok(false),
    }
    Ok(true)
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, CliError> {
    let mut iter = args.iter();
    let mut run = RunArgs {
        scenario: None,
        file: None,
        config: SweepConfig::default(),
        out: None,
        csv: None,
        bench_json: None,
        deterministic: false,
        max_shards: None,
    };
    while let Some(flag) = iter.next() {
        if !flag.starts_with("--") {
            if run.scenario.is_some() {
                return Err(CliError::Usage(format!(
                    "run: unexpected extra argument '{flag}'"
                )));
            }
            run.scenario = Some(flag.clone());
            continue;
        }
        if parse_config_flag(&mut run.config, flag, &mut iter).map_err(CliError::Usage)? {
            continue;
        }
        let mut value = |name: &str| {
            iter.next()
                .map(String::as_str)
                .ok_or_else(|| CliError::Usage(format!("{name} expects a value")))
                .map(str::to_string)
        };
        match flag.as_str() {
            "--file" => run.file = Some(PathBuf::from(value("--file")?)),
            "--max-shards" => {
                run.max_shards = Some(
                    value("--max-shards")?
                        .parse()
                        .map_err(|e| CliError::Usage(format!("--max-shards: {e}")))?,
                );
            }
            "--out" => run.out = Some(PathBuf::from(value("--out")?)),
            "--csv" => run.csv = Some(PathBuf::from(value("--csv")?)),
            "--bench-json" => run.bench_json = Some(PathBuf::from(value("--bench-json")?)),
            "--no-bench-json" => {}
            "--deterministic" => run.deterministic = true,
            other => return Err(CliError::Usage(format!("unknown flag {other}"))),
        }
    }
    match (&run.scenario, &run.file) {
        (None, None) => {
            return Err(CliError::Usage(
                "run: name a scenario or pass --file <scenario.json>".to_string(),
            ))
        }
        (Some(_), Some(_)) => {
            return Err(CliError::Usage(
                "run: a scenario name and --file are mutually exclusive".to_string(),
            ))
        }
        _ => {}
    }
    run.config.validate().map_err(CliError::Config)?;
    Ok(run)
}

/// Resolves a run target to a boxed scenario: a registry name, or a DSL
/// document loaded from `--file` (typed [`DslError`] exit codes on any
/// defect, including an unreadable path).
fn resolve_scenario(
    scenario: Option<&String>,
    file: Option<&PathBuf>,
) -> Result<Box<dyn Scenario>, CliError> {
    match (scenario, file) {
        (Some(name), None) => scenarios::find(name)
            .ok_or_else(|| CliError::Usage(format!("unknown scenario '{name}'\n\n{}", usage()))),
        (None, Some(path)) => Ok(Box::new(
            ScenarioDoc::load_file(path).map_err(CliError::Dsl)?,
        )),
        _ => Err(CliError::Usage(
            "name a scenario or pass --file <scenario.json>".to_string(),
        )),
    }
}

/// Prints a sweep's outcome.  A dispatched sweep ran on worker daemons,
/// which own their canonical-view caches, so it prints no cache line.
fn print_summary(summary: &StreamSummary, dispatched: bool) {
    outln!(
        "{}: {} cells in {} shard(s) on {} {} in {:.2?}{}",
        summary.scenario,
        summary.cell_count,
        summary.shard_count,
        summary.workers,
        if dispatched {
            "worker daemon(s)"
        } else {
            "thread(s)"
        },
        summary.total_wall,
        if summary.cells_run < summary.cell_count && summary.completed {
            format!(
                " ({} restored from checkpoint)",
                summary.cell_count - summary.cells_run
            )
        } else {
            String::new()
        }
    );
    outln!(
        "  passed {}  failed {}  panicked {}  budget-exhausted {}",
        summary.passed,
        summary.failed,
        summary.panicked,
        summary.exhausted
    );
    if !dispatched {
        outln!(
            "  canonical-view cache: {} hits, {} misses, hit rate {:.1}%",
            summary.cache.hits,
            summary.cache.misses,
            100.0 * summary.cache.hit_rate()
        );
    }
    for (id, what) in &summary.failures {
        outln!("  FAIL {id} -> {what}");
    }
    if !summary.completed {
        outln!(
            "  INTERRUPTED after {}/{} shards — continue with `ldx resume`",
            summary.shards_written,
            summary.shard_count
        );
    }
}

/// Writes the perf snapshot of a completed run to the `--bench-json` path,
/// if one was given, and reports whether the run succeeded.
fn finish(summary: &StreamSummary, bench_json: Option<&Path>) -> Result<bool, CliError> {
    if let Some(bench) = bench_json.filter(|_| summary.completed) {
        std::fs::write(bench, summary.bench_snapshot_json())
            .map_err(|e| format!("writing perf snapshot {}: {e}", bench.display()))?;
        outln!("  perf snapshot: {}", bench.display());
    }
    Ok(summary.completed && summary.failed == 0 && summary.panicked == 0)
}

fn cmd_run(args: &[String]) -> Result<bool, CliError> {
    let run = parse_run_args(args)?;
    let scenario = resolve_scenario(run.scenario.as_ref(), run.file.as_ref())?;
    let out = run
        .out
        .unwrap_or_else(|| PathBuf::from(format!("ldx-{}.json", scenario.name())));
    let opts = StreamOptions {
        deterministic: run.deterministic,
        max_shards: run.max_shards,
        csv: run.csv.clone(),
    };
    let summary = stream::run(scenario.as_ref(), &run.config, &out, &opts)?;
    print_summary(&summary, false);
    outln!("  report: {}", out.display());
    if let Some(csv) = &run.csv {
        outln!("  csv: {}", csv.display());
    }
    finish(&summary, run.bench_json.as_deref())
}

fn cmd_resume(args: &[String]) -> Result<bool, CliError> {
    let mut iter = args.iter();
    let report = PathBuf::from(
        iter.next()
            .ok_or_else(|| CliError::Usage("resume: missing report path".to_string()))?,
    );
    let mut threads = None;
    let mut bench_json: Option<PathBuf> = None;
    let mut max_shards = None;
    let mut file: Option<PathBuf> = None;
    while let Some(flag) = iter.next() {
        let mut value = |name: &str| {
            iter.next()
                .map(String::as_str)
                .ok_or_else(|| CliError::Usage(format!("{name} expects a value")))
                .map(str::to_string)
        };
        match flag.as_str() {
            "--file" => file = Some(PathBuf::from(value("--file")?)),
            "--threads" => {
                let t: usize = value("--threads")?
                    .parse()
                    .map_err(|e| CliError::Usage(format!("--threads: {e}")))?;
                if t == 0 {
                    return Err(CliError::Usage("--threads must be at least 1".to_string()));
                }
                threads = Some(t);
            }
            "--max-shards" => {
                max_shards = Some(
                    value("--max-shards")?
                        .parse()
                        .map_err(|e| CliError::Usage(format!("--max-shards: {e}")))?,
                );
            }
            "--bench-json" => bench_json = Some(PathBuf::from(value("--bench-json")?)),
            "--no-bench-json" => {}
            other => return Err(CliError::Usage(format!("unknown flag {other}"))),
        }
    }
    // Peek at the checkpoint so configuration errors exit with their typed
    // codes before any file is touched; a missing/corrupt checkpoint falls
    // through to stream::resume's own diagnostics.
    if let Ok(text) = std::fs::read_to_string(Checkpoint::path_for(&report)) {
        if let Ok(ckpt) = Checkpoint::parse(&text) {
            let mut config = ckpt.config;
            if let Some(t) = threads {
                config.threads = t;
            }
            config.validate().map_err(CliError::Config)?;
        }
    }
    // A DSL-defined sweep cannot be re-planned from the registry; `--file`
    // re-loads its document and resumes against that.
    let summary = match &file {
        Some(path) => {
            let doc = ScenarioDoc::load_file(path).map_err(CliError::Dsl)?;
            stream::resume_with_scenario(&report, threads, max_shards, &doc)?
        }
        None => stream::resume(&report, threads, max_shards)?,
    };
    print_summary(&summary, false);
    outln!("  report: {}", report.display());
    finish(&summary, bench_json.as_deref())
}

/// Compares two persisted reports (any schema version) and prints what
/// differs.  Returns `true` when they are equivalent.
fn cmd_diff(args: &[String]) -> Result<bool, CliError> {
    let [a_path, b_path] = args else {
        return Err(CliError::Usage(
            "diff: expected exactly two report paths".to_string(),
        ));
    };
    let read = |path: &String| -> Result<ReportSummary, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        ReportSummary::from_json(&text).map_err(|e| format!("parsing {path}: {e}"))
    };
    let a = read(a_path)?;
    let b = read(b_path)?;
    let mut differences: Vec<String> = Vec::new();
    let mut field = |name: &str, left: String, right: String| {
        if left != right {
            differences.push(format!("{name}: {left} != {right}"));
        }
    };
    field("scenario", a.scenario.clone(), b.scenario.clone());
    field("max_n", a.max_n.to_string(), b.max_n.to_string());
    field("seed", a.seed.to_string(), b.seed.to_string());
    field(
        "radius",
        format!("{:?}", a.radius),
        format!("{:?}", b.radius),
    );
    field(
        "node_budget",
        format!("{:?}", a.node_budget),
        format!("{:?}", b.node_budget),
    );
    field(
        "view_budget",
        format!("{:?}", a.view_budget),
        format!("{:?}", b.view_budget),
    );
    field(
        "cell_count",
        a.cell_count.to_string(),
        b.cell_count.to_string(),
    );
    field("passed", a.passed.to_string(), b.passed.to_string());
    field("failed", a.failed.to_string(), b.failed.to_string());
    field("panicked", a.panicked.to_string(), b.panicked.to_string());
    field(
        "exhausted",
        a.exhausted.to_string(),
        b.exhausted.to_string(),
    );
    if a.cells.len() != b.cells.len() {
        differences.push(format!(
            "cells array length: {} != {}",
            a.cells.len(),
            b.cells.len()
        ));
    }
    const SHOWN: usize = 10;
    let mut cell_differences = 0usize;
    for (i, (ca, cb)) in a.cells.iter().zip(&b.cells).enumerate() {
        if ca != cb {
            cell_differences += 1;
            if cell_differences <= SHOWN {
                let what = if ca.id != cb.id {
                    format!("'{}' != '{}'", ca.id, cb.id)
                } else {
                    format!(
                        "'{}': verdict {:?}/{:?}, pass {}/{}, seed {}/{}",
                        ca.id, ca.verdict, cb.verdict, ca.pass, cb.pass, ca.seed, cb.seed
                    )
                };
                differences.push(format!("cell {i}: {what}"));
            }
        }
    }
    if cell_differences > SHOWN {
        differences.push(format!(
            "... and {} more differing cells",
            cell_differences - SHOWN
        ));
    }
    if a.schema != b.schema {
        outln!(
            "note: comparing across schemas ({} vs {})",
            a.schema,
            b.schema
        );
    }
    if differences.is_empty() {
        outln!(
            "reports are equivalent: {} cells, {} passed, {} failed, {} panicked",
            a.cell_count,
            a.passed,
            a.failed,
            a.panicked
        );
        Ok(true)
    } else {
        for difference in &differences {
            outln!("DIFF {difference}");
        }
        Ok(false)
    }
}

/// `ldx analyze [--deny-all] [--json] [--root DIR]` — the repo-invariant
/// lint pass (rules D001–D005, see `docs/ANALYZE_RULES.md`).  Prints
/// findings and suppressions; with `--deny-all` any unsuppressed finding
/// fails the process, which is what CI gates on.
fn cmd_analyze(args: &[String]) -> Result<bool, CliError> {
    let mut deny_all = false;
    let mut json = false;
    let mut root: Option<PathBuf> = None;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        match flag.as_str() {
            "--deny-all" => deny_all = true,
            "--json" => json = true,
            "--root" => {
                root = Some(PathBuf::from(iter.next().ok_or_else(|| {
                    CliError::Usage("--root expects a value".to_string())
                })?));
            }
            other => return Err(CliError::Usage(format!("analyze: unknown flag {other}"))),
        }
    }
    let root = match root {
        Some(root) => root,
        None => workspace_root().map_err(CliError::Message)?,
    };
    let analysis = ld_analyze::analyze_root(&root)?;
    if json {
        out!("{}", analysis.to_json());
    } else {
        for finding in &analysis.findings {
            outln!(
                "{}:{}: {} {}",
                finding.file,
                finding.line,
                finding.rule.id(),
                finding.message
            );
        }
        for sup in &analysis.suppressed {
            outln!(
                "{}:{}: {} suppressed: {}",
                sup.file,
                sup.line,
                sup.rule.id(),
                sup.reason
            );
        }
        outln!(
            "ldx analyze: {} finding(s), {} suppressed, {} files scanned",
            analysis.findings.len(),
            analysis.suppressed.len(),
            analysis.files_scanned
        );
    }
    Ok(analysis.is_clean() || !deny_all)
}

/// Ascends from the current directory to the first `Cargo.toml` declaring
/// a `[workspace]` — the root `ldx analyze` scans by default.
fn workspace_root() -> Result<PathBuf, String> {
    let mut dir = std::env::current_dir().map_err(|e| format!("current dir: {e}"))?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Ok(dir);
            }
        }
        if !dir.pop() {
            return Err(
                "no workspace Cargo.toml above the current directory; pass --root".to_string(),
            );
        }
    }
}

/// `ldx serve`: bind, announce, run until drained.
fn cmd_serve(args: &[String]) -> Result<bool, CliError> {
    let mut options = ServeOptions {
        addr: DEFAULT_ADDR.to_string(),
        spool: PathBuf::from("ldx-spool"),
        workers: 2,
    };
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = |name: &str| {
            iter.next()
                .map(String::as_str)
                .ok_or_else(|| CliError::Usage(format!("{name} expects a value")))
                .map(str::to_string)
        };
        match flag.as_str() {
            "--addr" => options.addr = value("--addr")?,
            "--spool" => options.spool = PathBuf::from(value("--spool")?),
            "--workers" => {
                options.workers = value("--workers")?
                    .parse()
                    .map_err(|e| CliError::Usage(format!("--workers: {e}")))?;
                if options.workers == 0 {
                    return Err(CliError::Usage("--workers must be at least 1".to_string()));
                }
            }
            other => return Err(CliError::Usage(format!("serve: unknown flag {other}"))),
        }
    }
    let server = Server::bind(&options)?;
    // The address line goes first on stdout (line-buffered, so it flushes
    // immediately): scripts bind `--addr 127.0.0.1:0` and parse the
    // ephemeral port from here.
    outln!("ld-serve listening on {}", server.local_addr());
    outln!(
        "  spool: {}  workers: {}",
        options.spool.display(),
        options.workers
    );
    server.run()?;
    outln!("ld-serve drained");
    Ok(true)
}

/// `ldx submit`: POST a job spec; with `--wait`, follow it to a terminal
/// state and download the report.
fn cmd_submit(args: &[String]) -> Result<bool, CliError> {
    let mut iter = args.iter();
    let mut scenario: Option<String> = None;
    let mut file: Option<PathBuf> = None;
    let mut spec = JobSpec::new("");
    let mut addr = DEFAULT_ADDR.to_string();
    let mut wait = false;
    let mut out: Option<PathBuf> = None;
    while let Some(flag) = iter.next() {
        if !flag.starts_with("--") {
            if scenario.is_some() {
                return Err(CliError::Usage(format!(
                    "submit: unexpected extra argument '{flag}'"
                )));
            }
            scenario = Some(flag.clone());
            continue;
        }
        if parse_config_flag(&mut spec.config, flag, &mut iter).map_err(CliError::Usage)? {
            continue;
        }
        let mut value = |name: &str| {
            iter.next()
                .map(String::as_str)
                .ok_or_else(|| CliError::Usage(format!("{name} expects a value")))
                .map(str::to_string)
        };
        match flag.as_str() {
            "--file" => file = Some(PathBuf::from(value("--file")?)),
            "--addr" => addr = value("--addr")?,
            "--priority" => {
                spec.priority = value("--priority")?
                    .parse()
                    .map_err(|e| CliError::Usage(format!("--priority: {e}")))?;
            }
            "--wait" => wait = true,
            "--out" => out = Some(PathBuf::from(value("--out")?)),
            other => return Err(CliError::Usage(format!("submit: unknown flag {other}"))),
        }
    }
    // Resolve the submission target exactly like `run`: a registry name,
    // or a DSL document shipped inline (the daemon re-validates it).
    let scenario = match (scenario, &file) {
        (Some(name), None) => name,
        (None, Some(path)) => {
            let doc = ScenarioDoc::load_file(path).map_err(CliError::Dsl)?;
            spec.scenario_doc = Some(doc.to_json());
            doc.name().to_string()
        }
        (None, None) => {
            return Err(CliError::Usage(
                "submit: name a scenario or pass --file <scenario.json>".to_string(),
            ))
        }
        (Some(_), Some(_)) => {
            return Err(CliError::Usage(
                "submit: a scenario name and --file are mutually exclusive".to_string(),
            ))
        }
    };
    spec.scenario = scenario.clone();
    let body = spec.to_json().render_compact();
    let response = client::request(&addr, "POST", "/jobs", Some(&body))?;
    let json = parse_response(&response)?;
    if response.status != 201 {
        let code = json
            .get("exit_code")
            .and_then(ld_runner::json::Json::as_u64)
            .map_or(1, |c| u8::try_from(c).unwrap_or(1));
        let message = json
            .get("message")
            .and_then(ld_runner::json::Json::as_str)
            .unwrap_or("submission rejected")
            .to_string();
        return Err(CliError::Exit {
            code,
            message: format!("submit: {} ({message})", response.status),
        });
    }
    let id = json
        .get("id")
        .and_then(ld_runner::json::Json::as_u64)
        .ok_or_else(|| "submit: response without a job id".to_string())?;
    outln!("job {id} queued on {addr} (priority {})", spec.priority);
    if !wait {
        outln!("  status: GET http://{addr}/jobs/{id}");
        return Ok(true);
    }
    let waited = Instant::now();
    let out = out.unwrap_or_else(|| PathBuf::from(format!("ldx-{scenario}-job{id}.json")));
    if let Err(e) = download_report(&addr, id, &out) {
        // Only a completed job's report is kept.
        let _ = std::fs::remove_file(&out);
        return Err(e);
    }
    outln!("job {id} completed in {:.2?}", waited.elapsed());
    outln!("  report: {}", out.display());
    Ok(true)
}

/// Streams job `id`'s report tail into `out`, then checks the job
/// completed.  The daemon ends the tail cleanly once the job is terminal,
/// so one status request afterwards tells completed from failed/canceled.
/// A queued job sends nothing until a worker claims it, so the socket
/// waits as long as the queue ahead of it does; a stalled job's tail is
/// dropped mid-body and fails the read.
fn download_report(addr: &str, id: u64, out: &std::path::Path) -> Result<(), CliError> {
    let report = format!("/jobs/{id}/report");
    let (status, headers, reader) = client::open_stream(addr, "GET", &report, None, Duration::MAX)?;
    if status != 200 || !client::is_chunked(&headers) {
        return Err(CliError::Message(format!("GET {report} answered {status}")));
    }
    let mut file =
        std::fs::File::create(out).map_err(|e| format!("creating {}: {e}", out.display()))?;
    std::io::copy(&mut client::ChunkedReader::new(reader), &mut file)
        .map_err(|e| format!("job {id}: reading {report}: {e}"))?;
    let status = client::request(addr, "GET", &format!("/jobs/{id}"), None)?;
    let json = parse_response(&status)?;
    let state = json
        .get("state")
        .and_then(ld_runner::json::Json::as_str)
        .unwrap_or("unknown");
    if state != "completed" {
        let message = json
            .get("message")
            .and_then(ld_runner::json::Json::as_str)
            .unwrap_or("no message");
        return Err(CliError::Message(format!("job {id} {state}: {message}")));
    }
    Ok(())
}

/// A worker daemon this process spawned for `ldx dispatch --workers N`.
///
/// The stdout pipe is kept open for the child's lifetime so its status
/// prints never hit a closed pipe; the temp spool is removed on stop.
struct LocalWorker {
    child: std::process::Child,
    stdout: std::io::BufReader<std::process::ChildStdout>,
    addr: String,
    spool: PathBuf,
}

/// Spawns `count` single-worker `ldx serve` daemons on ephemeral ports,
/// parsing each one's announced address from its first stdout line.
fn spawn_local_workers(count: usize) -> Result<Vec<LocalWorker>, CliError> {
    let exe = std::env::current_exe()
        .map_err(|e| CliError::Message(format!("dispatch: locating own binary: {e}")))?;
    let mut workers: Vec<LocalWorker> = Vec::with_capacity(count);
    for index in 0..count {
        let spool =
            std::env::temp_dir().join(format!("ldx-dispatch-{}-w{index}", std::process::id()));
        let spawned = std::process::Command::new(&exe)
            .args([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--workers",
                "1",
                "--spool",
            ])
            .arg(&spool)
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::null())
            .spawn();
        let mut child = match spawned {
            Ok(child) => child,
            Err(e) => {
                stop_local_workers(workers);
                return Err(CliError::Message(format!(
                    "dispatch: spawning worker {index}: {e}"
                )));
            }
        };
        let Some(pipe) = child.stdout.take() else {
            let _ = child.kill();
            stop_local_workers(workers);
            return Err(CliError::Message(
                "dispatch: worker spawned without a stdout pipe".to_string(),
            ));
        };
        let mut stdout = std::io::BufReader::new(pipe);
        let mut line = String::new();
        let addr = match stdout.read_line(&mut line) {
            Ok(_) => line
                .trim()
                .strip_prefix("ld-serve listening on ")
                .map(str::to_string),
            Err(_) => None,
        };
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            let _ = std::fs::remove_dir_all(&spool);
            stop_local_workers(workers);
            return Err(CliError::Message(format!(
                "dispatch: worker {index} did not announce an address (got {:?})",
                line.trim()
            )));
        };
        workers.push(LocalWorker {
            child,
            stdout,
            addr,
            spool,
        });
    }
    Ok(workers)
}

/// Drains and reaps spawned workers; best-effort on every step so a dead
/// child never masks the dispatch outcome.
fn stop_local_workers(workers: Vec<LocalWorker>) {
    for mut worker in workers {
        let _ = client::request(&worker.addr, "POST", "/shutdown", None);
        let mut exited = false;
        for _ in 0..50 {
            if matches!(worker.child.try_wait(), Ok(Some(_))) {
                exited = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        if !exited {
            let _ = worker.child.kill();
            let _ = worker.child.wait();
        }
        drop(worker.stdout);
        let _ = std::fs::remove_dir_all(&worker.spool);
    }
}

/// `ldx dispatch`: split one sweep across worker daemons and merge the
/// results into a report byte-identical to `ldx run --deterministic`.
fn cmd_dispatch(args: &[String]) -> Result<bool, CliError> {
    let mut iter = args.iter();
    let scenario = iter
        .next()
        .ok_or_else(|| CliError::Usage("dispatch: missing scenario name".to_string()))?
        .clone();
    let mut config = SweepConfig::default();
    let mut out: Option<PathBuf> = None;
    let mut spawn_count = 4usize;
    let mut worker_addrs: Vec<String> = Vec::new();
    let mut lease_ms = 30_000u64;
    let mut batch = 2usize;
    let mut max_attempts = 4u32;
    let mut bench_json: Option<PathBuf> = None;
    while let Some(flag) = iter.next() {
        if parse_config_flag(&mut config, flag, &mut iter).map_err(CliError::Usage)? {
            continue;
        }
        let mut value = |name: &str| {
            iter.next()
                .map(String::as_str)
                .ok_or_else(|| CliError::Usage(format!("{name} expects a value")))
                .map(str::to_string)
        };
        match flag.as_str() {
            "--out" => out = Some(PathBuf::from(value("--out")?)),
            "--workers" => {
                spawn_count = value("--workers")?
                    .parse()
                    .map_err(|e| CliError::Usage(format!("--workers: {e}")))?;
                if spawn_count == 0 {
                    return Err(CliError::Usage("--workers must be at least 1".to_string()));
                }
            }
            "--worker" => worker_addrs.push(value("--worker")?),
            "--lease-ms" => {
                lease_ms = value("--lease-ms")?
                    .parse()
                    .map_err(|e| CliError::Usage(format!("--lease-ms: {e}")))?;
                if lease_ms == 0 {
                    return Err(CliError::Usage("--lease-ms must be at least 1".to_string()));
                }
            }
            "--batch" => {
                batch = value("--batch")?
                    .parse()
                    .map_err(|e| CliError::Usage(format!("--batch: {e}")))?;
                if batch == 0 {
                    return Err(CliError::Usage("--batch must be at least 1".to_string()));
                }
            }
            "--max-attempts" => {
                max_attempts = value("--max-attempts")?
                    .parse()
                    .map_err(|e| CliError::Usage(format!("--max-attempts: {e}")))?;
                if max_attempts == 0 {
                    return Err(CliError::Usage(
                        "--max-attempts must be at least 1".to_string(),
                    ));
                }
            }
            "--bench-json" => bench_json = Some(PathBuf::from(value("--bench-json")?)),
            "--no-bench-json" => {}
            other => return Err(CliError::Usage(format!("dispatch: unknown flag {other}"))),
        }
    }
    config.validate().map_err(CliError::Config)?;
    let out = out.unwrap_or_else(|| PathBuf::from(format!("ldx-dispatch-{scenario}.json")));
    // Address mode targets already-running daemons; spawn mode brings up
    // local single-worker daemons on ephemeral ports and tears them down.
    let spawned = if worker_addrs.is_empty() {
        let workers = spawn_local_workers(spawn_count)?;
        worker_addrs = workers.iter().map(|w| w.addr.clone()).collect();
        workers
    } else {
        Vec::new()
    };
    let mut options = DispatchOptions::new(scenario, &out);
    options.config = config;
    options.workers = worker_addrs;
    options.lease = Duration::from_millis(lease_ms);
    options.batch = batch;
    options.max_attempts = max_attempts;
    let result = ld_serve::dispatch(&options);
    stop_local_workers(spawned);
    let (summary, stats) = result?;
    print_summary(&summary, true);
    outln!("  report: {}", out.display());
    outln!(
        "  dispatch: {} worker(s), {} shard(s) reassigned, {} stale result(s) rejected, {} worker failure(s)",
        summary.workers, stats.reassigned, stats.stale_rejected, stats.worker_failures
    );
    finish(&summary, bench_json.as_deref())
}

/// `ldx shutdown`: ask the daemon to drain.
fn cmd_shutdown(args: &[String]) -> Result<bool, CliError> {
    let mut addr = DEFAULT_ADDR.to_string();
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        match flag.as_str() {
            "--addr" => {
                addr = iter
                    .next()
                    .ok_or_else(|| CliError::Usage("--addr expects a value".to_string()))?
                    .clone();
            }
            other => return Err(CliError::Usage(format!("shutdown: unknown flag {other}"))),
        }
    }
    let response = client::request(&addr, "POST", "/shutdown", None)?;
    if response.status == 200 {
        outln!("ld-serve on {addr} is draining");
        Ok(true)
    } else {
        Err(CliError::Message(format!(
            "shutdown: {} ({})",
            response.status,
            response.text().trim()
        )))
    }
}

/// `ldx list [--json]`.
fn cmd_list(args: &[String]) -> Result<bool, CliError> {
    match args {
        [] => out!("{}", scenario_lines()),
        [flag] if flag == "--json" => out!("{}", scenarios::listing_json().render()),
        _ => return Err(CliError::Usage("list: only --json is accepted".to_string())),
    }
    Ok(true)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("list") => cmd_list(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("resume") => cmd_resume(&args[1..]),
        Some("diff") => cmd_diff(&args[1..]),
        Some("analyze") => cmd_analyze(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("submit") => cmd_submit(&args[1..]),
        Some("dispatch") => cmd_dispatch(&args[1..]),
        Some("shutdown") => cmd_shutdown(&args[1..]),
        Some("--help" | "-h" | "help") => {
            out!("{}", usage());
            return ExitCode::SUCCESS;
        }
        _ => {
            eprint!("{}", usage());
            return ExitCode::from(64);
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(error) => {
            eprintln!("ldx: {}", error.message());
            ExitCode::from(error.exit_code())
        }
    }
}
