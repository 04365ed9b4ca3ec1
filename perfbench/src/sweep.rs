//! The sweep workloads (`xl-sweep`, `gmr-sweep`) and the traced sweep
//! pipeline the other workloads replay their sweeps through.
//!
//! Untraced rounds call `ld_runner::stream::run`.  Traced rounds rebuild
//! the same pipeline from the library's public pieces — `Scenario::plan`,
//! `PlannedCell::run` with `executor::cell_seed`, `ReportStream` and
//! `Checkpoint::render_shard` — with a span around each call, and write
//! byte-identical reports.

use crate::pinned::{Verifier, SWEEP_SEEDS};
use crate::probe::{self, ProbeTotals};
use crate::stats::{median, ratio, tail, OpResult};
use crate::trace::{self, Log, Span, Tracer};
use crate::{drive, Ctx, Measured};
use ld_local::cache::CacheStats;
use ld_runner::cell::CellResult;
use ld_runner::executor::cell_seed;
use ld_runner::report::summary_json;
use ld_runner::stream::{self, Checkpoint, ReportStream, ShardLayout, ShardRecord, StreamOptions};
use ld_runner::{PlannedCell, Scenario, SweepConfig};
use std::collections::BTreeMap;
use std::fs::{self, File};
use std::io::Write;
use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// One sweep: a scenario at a size on a number of worker threads.
pub struct SweepSpec {
    /// The built-in scenario.
    pub scenario: &'static dyn Scenario,
    /// `SweepConfig::max_n`.
    pub max_n: usize,
    /// `SweepConfig::threads`.
    pub threads: usize,
    /// `SweepConfig::shard_size`.
    pub shard_size: usize,
}

impl SweepSpec {
    /// The sweep's configuration under `seed`.
    pub fn config(&self, seed: u64) -> SweepConfig {
        SweepConfig {
            max_n: self.max_n,
            threads: self.threads,
            shard_size: self.shard_size,
            seed,
            ..SweepConfig::default()
        }
    }

    /// The scenario's name.
    pub fn name(&self) -> &str {
        self.scenario.name()
    }
}

/// Counters of one traced round.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundCounts {
    /// Cells run.
    pub cells: u64,
    /// Report bytes written.
    pub write_bytes: u64,
    /// Checkpoint bytes written.
    pub ckpt_bytes: u64,
    /// The plan's merged cache counters.
    pub cache: CacheStats,
}

/// Runs a sweep workload: set-ups, then `clients` closed-loop users, each
/// running rounds with a fresh plan (cold caches) and its report written to
/// the run's temp dir.
pub fn measure(spec: &SweepSpec, clients: usize, ctx: &Ctx) -> Result<Measured, String> {
    let path = |c: usize| ctx.dir.join(format!("round-{c}.json"));
    let setup = ctx.repeat_setup(|| setup_once(spec, &spec.config(SWEEP_SEEDS[0]), &path(0)))?;
    let seed_of = |c: usize, j: u64| {
        SWEEP_SEEDS[((ctx.seed + c as u64 + j) % SWEEP_SEEDS.len() as u64) as usize]
    };
    let counts = Mutex::new(Vec::new());
    let mut run = drive(
        ctx,
        setup,
        clients,
        |c, j| stream_round(spec, &spec.config(seed_of(c, j)), &path(c), &ctx.verifier),
        |c, j, tracer| {
            let run_id = ((c as u64) << 32) | (j + 1);
            traced_round(
                spec,
                &spec.config(seed_of(c, j)),
                &path(c),
                tracer,
                run_id,
                &ctx.verifier,
            )
            .map(|(op, round)| {
                counts
                    .lock()
                    .expect("no client panics holding the counts")
                    .push(round);
                op
            })
            .unwrap_or_else(failed_op)
        },
    );
    if let Some(tracer) = &run.tracer {
        let counts = counts.into_inner().expect("clients joined");
        run.layers = sweep_layers(&tracer.spans(), &counts);
        let probe = probe_for(spec, ctx)?;
        run.layers.extend(probe.layers());
    }
    Ok(run)
}

/// The replay probe matching a sweep's cell families.
pub fn probe_for(spec: &SweepSpec, ctx: &Ctx) -> Result<ProbeTotals, String> {
    let config = spec.config(SWEEP_SEEDS[0]);
    let plan = spec.scenario.plan(&config)?;
    let budget = ctx.probe_seconds();
    match spec.name() {
        "section3-sweep" => probe::gmr(spec.max_n, budget),
        _ => probe::section2(&plan, budget),
    }
}

/// An operation that errored before it produced a report.
pub fn failed_op(message: String) -> OpResult {
    eprintln!("perfbench: operation failed: {message}");
    OpResult {
        latency: Duration::ZERO,
        cells: 0,
        ok: false,
    }
}

/// One set-up repetition: `Scenario::plan` plus creating the report (with
/// its header) and the checkpoint sidecar.
fn setup_once(spec: &SweepSpec, config: &SweepConfig, path: &Path) -> Result<f64, String> {
    let started = Instant::now();
    let plan = spec.scenario.plan(config)?;
    let files = begin_files(spec.name(), config, plan.cells.len(), path)?;
    let elapsed = started.elapsed().as_secs_f64();
    drop(files);
    remove_report(path);
    Ok(elapsed)
}

/// One untraced round through `stream::run`, verified against its pin.
fn stream_round(
    spec: &SweepSpec,
    config: &SweepConfig,
    path: &Path,
    verifier: &Verifier,
) -> OpResult {
    let options = StreamOptions {
        deterministic: true,
        ..StreamOptions::default()
    };
    let started = Instant::now();
    let outcome = stream::run(spec.scenario, config, path, &options);
    let latency = started.elapsed();
    let result = match outcome {
        Ok(summary) => OpResult {
            latency,
            cells: summary.cell_count as u64,
            ok: summary.completed && verify_file(verifier, spec.name(), config, path),
        },
        Err(message) => failed_op(message),
    };
    remove_report(path);
    result
}

/// Whether the report at `path` matches its pinned digest.
pub fn verify_file(verifier: &Verifier, scenario: &str, config: &SweepConfig, path: &Path) -> bool {
    fs::read(path).is_ok_and(|bytes| verifier.check(scenario, config, &bytes))
}

/// Removes a report and its checkpoint sidecar, if present.
pub fn remove_report(path: &Path) {
    let _ = fs::remove_file(path);
    let _ = fs::remove_file(Checkpoint::path_for(path));
}

/// Creates the report with its header and the checkpoint with its header.
fn begin_files(
    scenario: &str,
    config: &SweepConfig,
    cell_count: usize,
    path: &Path,
) -> Result<(ReportStream<File>, File, PathBuf), String> {
    let io = |e: std::io::Error| format!("{}: {e}", path.display());
    let stream =
        ReportStream::begin(File::create(path).map_err(io)?, scenario, config).map_err(io)?;
    let checkpoint = Checkpoint {
        scenario: scenario.to_string(),
        deterministic: true,
        config: config.clone(),
        cell_count,
        shard_count: ShardLayout::new(cell_count, config.shard_size).shard_count(),
        header_offset: stream.offset(),
        header_digest: stream.digest(),
        shards: Vec::new(),
    };
    let ckpt_path = Checkpoint::path_for(path);
    let mut ckpt = File::create(&ckpt_path).map_err(io)?;
    ckpt.write_all(checkpoint.render_header().as_bytes())
        .and_then(|()| ckpt.flush())
        .map_err(io)?;
    Ok((stream, ckpt, ckpt_path))
}

/// Runs one planned cell the way the executor does: the seed derived from
/// the global index, panics isolated into the outcome.
fn run_cell(cell: &PlannedCell, index: usize, config: &SweepConfig) -> CellResult {
    let seed = cell_seed(config.seed, index);
    let started = Instant::now();
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| (cell.run)(seed))).map_err(|payload| {
        payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string())
    });
    CellResult {
        spec: cell.spec.clone(),
        seed,
        outcome,
        wall: started.elapsed(),
    }
}

/// One traced round: the streaming pipeline rebuilt from public calls,
/// spans around each, and the report verified against its pin.
pub fn traced_round(
    spec: &SweepSpec,
    config: &SweepConfig,
    path: &Path,
    tracer: &Tracer,
    run: u64,
    verifier: &Verifier,
) -> Result<(OpResult, RoundCounts), String> {
    let mut log = Log::new(Some(tracer));
    let started = Instant::now();
    let root = log.begin();
    let plan = log.span("plan", root.id, run, || spec.scenario.plan(config))?;
    let layout = ShardLayout::new(plan.cells.len(), config.shard_size);
    let (mut stream, mut ckpt, ckpt_path) = log.span("write", root.id, run, || {
        begin_files(spec.name(), config, plan.cells.len(), path)
    })?;
    let io = |e: std::io::Error| format!("{}: {e}", path.display());
    let mut counts = RoundCounts::default();
    let mut tally = [0usize; 4]; // passed, failed, panicked, exhausted
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, Vec<CellResult>)>();
    let workers = config.threads.clamp(1, layout.shard_count().max(1));
    thread::scope(|scope| -> Result<(), String> {
        for _ in 0..workers {
            let (tx, next, plan) = (tx.clone(), &next, &plan);
            scope.spawn(move || {
                let mut log = Log::new(Some(tracer));
                loop {
                    let shard = next.fetch_add(1, Ordering::Relaxed);
                    if shard >= layout.shard_count() {
                        break;
                    }
                    let open = log.begin();
                    let cells: Vec<CellResult> = layout
                        .shard_range(shard)
                        .map(|index| {
                            let cell = log.begin();
                            let result = run_cell(&plan.cells[index], index, config);
                            log.end(cell, "cell", open.id, run);
                            result
                        })
                        .collect();
                    log.end(open, "shard", root.id, run);
                    if tx.send((shard, cells)).is_err() {
                        break;
                    }
                }
            });
        }
        drop(tx);
        let mut pending = BTreeMap::new();
        let mut next_write = 0usize;
        for (shard, cells) in rx {
            pending.insert(shard, cells);
            while let Some(cells) = pending.remove(&next_write) {
                let before = stream.offset();
                log.span("write", root.id, run, || stream.write_cells(&cells))
                    .map_err(io)?;
                counts.write_bytes += stream.offset() - before;
                let mut record = ShardRecord {
                    shard: next_write,
                    cells: cells.len(),
                    passed: 0,
                    failed: 0,
                    panicked: 0,
                    exhausted: 0,
                    end_offset: stream.offset(),
                    digest: stream.digest(),
                    elapsed_micros: started.elapsed().as_micros() as u64,
                    cache: plan.cache_stats(),
                    wall_micros: cells.iter().map(|c| c.wall.as_micros() as u64).collect(),
                };
                for cell in &cells {
                    let slot = if cell.passed() {
                        &mut record.passed
                    } else if cell.panicked() {
                        &mut record.panicked
                    } else {
                        &mut record.failed
                    };
                    *slot += 1;
                    record.exhausted += usize::from(cell.exhausted());
                }
                for (total, add) in tally.iter_mut().zip([
                    record.passed,
                    record.failed,
                    record.panicked,
                    record.exhausted,
                ]) {
                    *total += add;
                }
                let line = Checkpoint::render_shard(&record);
                log.span("ckpt", root.id, run, || {
                    ckpt.write_all(line.as_bytes()).and_then(|()| ckpt.flush())
                })
                .map_err(io)?;
                counts.ckpt_bytes += line.len() as u64;
                next_write += 1;
            }
        }
        Ok(())
    })?;
    let summary = summary_json(plan.cells.len(), tally[0], tally[1], tally[2], tally[3]);
    let before = stream.offset();
    log.span("write", root.id, run, || stream.finish(summary, None))
        .map_err(io)?;
    drop(ckpt);
    fs::remove_file(&ckpt_path).map_err(io)?;
    let latency = started.elapsed();
    log.end(root, "round", 0, run);
    let report_bytes = fs::metadata(path).map_or(0, |m| m.len());
    counts.write_bytes += report_bytes.saturating_sub(before);
    counts.cells = plan.cells.len() as u64;
    counts.cache = plan.cache_stats();
    let ok = verify_file(verifier, spec.name(), config, path);
    remove_report(path);
    Ok((
        OpResult {
            latency,
            cells: counts.cells,
            ok,
        },
        counts,
    ))
}

/// The per-layer metrics of traced sweep rounds.
pub fn sweep_layers(spans: &[Span], rounds: &[RoundCounts]) -> Vec<(&'static str, f64)> {
    let cells = trace::durations(spans, "cell");
    let per_round = |f: fn(&RoundCounts) -> u64| {
        median(&rounds.iter().map(|r| f(r) as f64).collect::<Vec<_>>())
    };
    let hits = per_round(|r| r.cache.hits);
    let misses = per_round(|r| r.cache.misses);
    vec![
        ("plan.ms", median(&trace::durations(spans, "plan"))),
        ("cell.count", per_round(|r| r.cells)),
        ("cell.ms_p50", median(&cells)),
        ("cell.ms_p99", tail(&cells, 99.0).value),
        ("shard.ms_p50", median(&trace::durations(spans, "shard"))),
        ("write.ms", median(&trace::per_run_totals(spans, "write"))),
        ("write.bytes", per_round(|r| r.write_bytes)),
        ("ckpt.ms", median(&trace::per_run_totals(spans, "ckpt"))),
        ("ckpt.bytes", per_round(|r| r.ckpt_bytes)),
        ("cache.hits", hits),
        ("cache.misses", misses),
        ("cache.hit_ratio", ratio(hits, hits + misses)),
    ]
}
