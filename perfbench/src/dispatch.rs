//! The `dispatch-xl` workload: `ld_serve::dispatch` of the xl-sweep plan
//! over two in-process worker daemons (one job worker each) on loopback.
//!
//! Untraced dispatches call the library coordinator.  Traced dispatches
//! drive the same `POST /shards` protocol from the benchmark — leases from
//! `LeaseTable`, batches through `client::open_stream`, the merge through
//! `ReportStream::write_rendered_cells` — with a span around each batch, so
//! shard round trips and transferred bytes become visible.

use crate::pinned::{Verifier, SWEEP_SEEDS};
use crate::serve::Daemon;
use crate::stats::{median, tail, OpResult};
use crate::sweep::{self, failed_op, SweepSpec};
use crate::trace::{self, Log, Tracer};
use crate::{drive, Ctx, Measured};
use ld_runner::json::Json;
use ld_runner::report::summary_json;
use ld_runner::stream::{fnv1a, Checkpoint, ReportStream, ShardLayout, ShardRecord, FNV_OFFSET};
use ld_runner::{scenarios::Section2SweepXl, SweepConfig};
use ld_serve::client::{self, is_chunked, ChunkedReader};
use ld_serve::lease::{LeasePolicy, LeaseTable};
use ld_serve::server::SHARDS_SCHEMA;
use ld_serve::{dispatch, DispatchOptions, DispatchStats, JobSpec};
use std::collections::BTreeMap;
use std::fs::{self, File};
use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::sync::{mpsc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Worker daemons.
const WORKERS: usize = 2;

/// Shards per lease, as `ldx dispatch` defaults.
const BATCH: usize = 2;

/// One verified shard as a worker returned it.
struct Shard {
    index: usize,
    fragments: Vec<String>,
    counts: [usize; 4],
    wall_micros: Vec<u64>,
}

/// What a traced dispatch saw beyond its operation result.
struct Transfer {
    /// Bytes the workers sent.
    bytes: usize,
    /// Bytes of the merged report.
    report_bytes: u64,
    /// Bytes of checkpoint lines written.
    ckpt_bytes: u64,
    /// Worker-reported cell wall times, ms.
    cell_ms: Vec<f64>,
    /// Worker-reported shard wall times (sum of their cells), ms.
    shard_ms: Vec<f64>,
}

/// The `dispatch-xl` workload.
pub fn measure(ctx: &Ctx) -> Result<Measured, String> {
    let spec = SweepSpec {
        scenario: &Section2SweepXl,
        max_n: if ctx.tiny { 64 } else { 2048 },
        threads: WORKERS,
        shard_size: SweepConfig::default().shard_size,
    };
    let mut spools = 0usize;
    let mut start_workers = || -> Result<Vec<Daemon>, String> {
        (0..WORKERS)
            .map(|_| {
                spools += 1;
                Daemon::start(ctx.dir.join(format!("worker-{spools}")), 1)
            })
            .collect()
    };
    let setup = ctx.repeat_setup(|| {
        let started = Instant::now();
        let daemons = start_workers()?;
        spec.scenario.plan(&spec.config(SWEEP_SEEDS[0]))?;
        let elapsed = started.elapsed().as_secs_f64();
        stop_all(daemons)?;
        Ok(elapsed)
    })?;
    let daemons = start_workers()?;
    let addrs: Vec<String> = daemons.iter().map(|d| d.addr.clone()).collect();
    let out = ctx.dir.join("dispatch.json");
    let seed_of = |j: u64| SWEEP_SEEDS[((ctx.seed + j) % SWEEP_SEEDS.len() as u64) as usize];
    let faults = Mutex::new(DispatchStats::default());
    let transfers = Mutex::new(Vec::new());
    let mut run = drive(
        ctx,
        setup,
        1,
        |_, j| {
            let config = spec.config(seed_of(j));
            coordinated(&spec, &config, &addrs, &out, &ctx.verifier)
                .map(|(op, stats)| {
                    let mut total = faults.lock().expect("one client");
                    total.reassigned += stats.reassigned;
                    total.stale_rejected += stats.stale_rejected;
                    total.worker_failures += stats.worker_failures;
                    op
                })
                .unwrap_or_else(failed_op)
        },
        |_, j, tracer| {
            let config = spec.config(seed_of(j));
            traced(&spec, &config, &addrs, &out, &ctx.verifier, tracer, j + 1)
                .map(|(op, transfer)| {
                    transfers.lock().expect("one client").push(transfer);
                    op
                })
                .unwrap_or_else(failed_op)
        },
    );
    let stopped = stop_all(daemons);
    if let Some(tracer) = &run.tracer {
        let spans = tracer.spans();
        let transfers = transfers.into_inner().expect("clients joined");
        let walls: Vec<f64> = transfers
            .iter()
            .flat_map(|t| t.cell_ms.iter().copied())
            .collect();
        let shards: Vec<f64> = transfers
            .iter()
            .flat_map(|t| t.shard_ms.iter().copied())
            .collect();
        let of = |f: fn(&Transfer) -> f64| median(&transfers.iter().map(f).collect::<Vec<_>>());
        let faults = faults.into_inner().expect("clients joined");
        run.layers = vec![
            ("plan.ms", median(&trace::durations(&spans, "plan"))),
            ("cell.count", spec_cells(&spec)? as f64),
            ("cell.ms_p50", median(&walls)),
            ("cell.ms_p99", tail(&walls, 99.0).value),
            ("shard.ms_p50", median(&shards)),
            ("write.ms", median(&trace::per_run_totals(&spans, "write"))),
            ("write.bytes", of(|t| t.report_bytes as f64)),
            ("ckpt.ms", median(&trace::per_run_totals(&spans, "ckpt"))),
            ("ckpt.bytes", of(|t| t.ckpt_bytes as f64)),
            (
                "dispatch.shard_rtt_ms_p50",
                median(&trace::durations(&spans, "shards")),
            ),
            ("dispatch.bytes", of(|t| t.bytes as f64)),
            ("dispatch.reassigned", faults.reassigned as f64),
            ("dispatch.stale_rejected", faults.stale_rejected as f64),
            ("dispatch.worker_failures", faults.worker_failures as f64),
        ];
        run.layers.extend(sweep::probe_for(&spec, ctx)?.layers());
    }
    stopped?;
    Ok(run)
}

/// Cells the xl-sweep plan holds.
fn spec_cells(spec: &SweepSpec) -> Result<usize, String> {
    Ok(spec
        .scenario
        .plan(&spec.config(SWEEP_SEEDS[0]))?
        .cells
        .len())
}

fn stop_all(daemons: Vec<Daemon>) -> Result<(), String> {
    daemons.into_iter().try_for_each(Daemon::stop)
}

/// One dispatch through the library coordinator, verified against the
/// xl-sweep pin.
fn coordinated(
    spec: &SweepSpec,
    config: &SweepConfig,
    workers: &[String],
    out: &Path,
    verifier: &Verifier,
) -> Result<(OpResult, DispatchStats), String> {
    let options = DispatchOptions {
        config: config.clone(),
        workers: workers.to_vec(),
        ..DispatchOptions::new(spec.name(), out)
    };
    let started = Instant::now();
    let (summary, stats) = dispatch(&options)?;
    let latency = started.elapsed();
    let ok = summary.completed && sweep::verify_file(verifier, spec.name(), config, out);
    sweep::remove_report(out);
    let cells = summary.cell_count as u64;
    Ok((OpResult { latency, cells, ok }, stats))
}

/// One dispatch driven from the benchmark over `POST /shards`, with spans
/// around planning, each batch, each merge write and each checkpoint line.
fn traced(
    spec: &SweepSpec,
    config: &SweepConfig,
    workers: &[String],
    out: &Path,
    verifier: &Verifier,
    tracer: &Tracer,
    run: u64,
) -> Result<(OpResult, Transfer), String> {
    let mut log = Log::new(Some(tracer));
    let started = Instant::now();
    let root = log.begin();
    let plan = log.span("plan", root.id, run, || spec.scenario.plan(config))?;
    let layout = ShardLayout::new(plan.cells.len(), config.shard_size);
    let shard_count = layout.shard_count();
    let io = |e: std::io::Error| format!("{}: {e}", out.display());
    let mut stream =
        ReportStream::begin(File::create(out).map_err(io)?, spec.name(), config).map_err(io)?;
    let ckpt_path = Checkpoint::path_for(out);
    let mut ckpt = File::create(&ckpt_path).map_err(io)?;
    let header = Checkpoint {
        scenario: spec.name().to_string(),
        deterministic: true,
        config: config.clone(),
        cell_count: plan.cells.len(),
        shard_count,
        header_offset: stream.offset(),
        header_digest: stream.digest(),
        shards: Vec::new(),
    };
    ckpt.write_all(header.render_header().as_bytes())
        .map_err(io)?;
    drop(plan);

    let table = Mutex::new(LeaseTable::new(shard_count, LeasePolicy::default()));
    let (tx, rx) = mpsc::channel::<Result<Shard, String>>();
    let received = Mutex::new(0usize);
    let mut tally = [0usize; 4];
    let (mut cell_ms, mut shard_ms, mut ckpt_bytes) = (Vec::new(), Vec::new(), 0u64);
    thread::scope(|scope| -> Result<(), String> {
        for addr in workers {
            let (tx, table, received) = (tx.clone(), &table, &received);
            scope.spawn(move || {
                let mut log = Log::new(Some(tracer));
                loop {
                    let lease = {
                        let mut table = table.lock().expect("no worker panics holding the table");
                        let now = started.elapsed().as_millis() as u64;
                        table.acquire(addr, now, BATCH)
                    };
                    let Some(lease) = lease else { break };
                    let body = JobSpec {
                        config: config.clone(),
                        ..JobSpec::new(spec.name())
                    }
                    .to_json()
                    .set("schema", SHARDS_SCHEMA)
                    .set("epoch", lease.epoch)
                    .set("first_shard", lease.shards.start)
                    .set("stop_shard", lease.shards.end)
                    .render_compact();
                    let open = log.begin();
                    let batch = shard_batch(addr, &body, lease.epoch);
                    log.end(open, "shards", root.id, run);
                    let items: Vec<Result<Shard, String>> = match batch {
                        Ok((shards, bytes)) => {
                            *received
                                .lock()
                                .expect("no worker panics holding the counter") += bytes;
                            let mut table =
                                table.lock().expect("no worker panics holding the table");
                            for shard in &shards {
                                table.complete(shard.index, lease.epoch);
                            }
                            shards.into_iter().map(Ok).collect()
                        }
                        Err(message) => vec![Err(message)],
                    };
                    let failed = items.iter().any(Result::is_err);
                    for item in items {
                        if tx.send(item).is_err() || failed {
                            return;
                        }
                    }
                }
            });
        }
        drop(tx);
        let mut pending = BTreeMap::new();
        let mut next = 0usize;
        for shard in rx {
            let shard = shard?;
            pending.insert(shard.index, shard);
            while let Some(shard) = pending.remove(&next) {
                log.span("write", root.id, run, || {
                    stream.write_rendered_cells(&shard.fragments)
                })
                .map_err(io)?;
                for (total, add) in tally.iter_mut().zip(shard.counts) {
                    *total += add;
                }
                cell_ms.extend(shard.wall_micros.iter().map(|&w| w as f64 / 1e3));
                shard_ms.push(shard.wall_micros.iter().sum::<u64>() as f64 / 1e3);
                let record = ShardRecord {
                    shard: next,
                    cells: shard.fragments.len(),
                    passed: shard.counts[0],
                    failed: shard.counts[1],
                    panicked: shard.counts[2],
                    exhausted: shard.counts[3],
                    end_offset: stream.offset(),
                    digest: stream.digest(),
                    elapsed_micros: started.elapsed().as_micros() as u64,
                    cache: Default::default(),
                    wall_micros: shard.wall_micros,
                };
                let line = Checkpoint::render_shard(&record);
                log.span("ckpt", root.id, run, || ckpt.write_all(line.as_bytes()))
                    .map_err(io)?;
                ckpt_bytes += line.len() as u64;
                next += 1;
            }
        }
        if next == shard_count {
            Ok(())
        } else {
            Err(format!("dispatch merged {next} of {shard_count} shards"))
        }
    })?;
    let cells: usize = tally.iter().take(3).sum();
    let summary = summary_json(cells, tally[0], tally[1], tally[2], tally[3]);
    log.span("write", root.id, run, || stream.finish(summary, None))
        .map_err(io)?;
    drop(ckpt);
    fs::remove_file(&ckpt_path).map_err(io)?;
    let latency = started.elapsed();
    log.end(root, "dispatch", 0, run);
    let report_bytes = fs::metadata(out).map_or(0, |m| m.len());
    let ok = sweep::verify_file(verifier, spec.name(), config, out);
    sweep::remove_report(out);
    let bytes = received.into_inner().expect("workers joined");
    Ok((
        OpResult {
            latency,
            cells: cells as u64,
            ok,
        },
        Transfer {
            bytes,
            report_bytes,
            ckpt_bytes,
            cell_ms,
            shard_ms,
        },
    ))
}

/// Sends one `POST /shards` batch and reads its shard lines, checking each
/// line's epoch and fragment digest.  Returns the shards and the bytes
/// read.
fn shard_batch(addr: &str, body: &str, epoch: u64) -> Result<(Vec<Shard>, usize), String> {
    let (status, headers, reader) =
        client::open_stream(addr, "POST", "/shards", Some(body), Duration::from_secs(30))?;
    if status != 200 || !is_chunked(&headers) {
        return Err(format!("{addr}: POST /shards answered {status}"));
    }
    let mut lines = BufReader::new(ChunkedReader::new(reader));
    let (mut shards, mut bytes, mut line) = (Vec::new(), 0usize, String::new());
    loop {
        line.clear();
        let n = lines
            .read_line(&mut line)
            .map_err(|e| format!("{addr}: reading shard lines: {e}"))?;
        if n == 0 {
            break;
        }
        bytes += n;
        if line.trim().is_empty() {
            continue;
        }
        let doc = Json::parse(&line)?;
        let number = |key: &str| {
            doc.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("{addr}: shard line without '{key}'"))
        };
        if number("epoch")? != epoch {
            return Err(format!("{addr}: shard line from another lease"));
        }
        let fragments: Vec<String> = doc
            .get("cells")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("{addr}: shard line without cells"))?
            .iter()
            .filter_map(|c| c.as_str().map(str::to_string))
            .collect();
        let digest = fragments
            .iter()
            .fold(FNV_OFFSET, |h, f| fnv1a(h, f.as_bytes()));
        if digest != number("digest")? {
            return Err(format!("{addr}: shard digest mismatch"));
        }
        let wall_micros: Vec<u64> = doc
            .get("wall_micros")
            .and_then(Json::as_arr)
            .map(|walls| walls.iter().filter_map(Json::as_u64).collect())
            .unwrap_or_default();
        shards.push(Shard {
            index: number("shard")? as usize,
            fragments,
            counts: [
                number("passed")? as usize,
                number("failed")? as usize,
                number("panicked")? as usize,
                number("exhausted")? as usize,
            ],
            wall_micros,
        });
    }
    Ok((shards, bytes))
}
