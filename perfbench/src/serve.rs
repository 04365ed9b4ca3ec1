//! The `serve-jobs` workload and the in-process daemons both serving
//! workloads run.
//!
//! Two closed-loop clients each submit a small `section2-sweep` job with
//! `POST /jobs`, read `GET /jobs/<id>/report` to the end of its chunked
//! tail, check the report against its pin and purge the job.  Job sizes
//! and sweep seeds are drawn per job from the run's seed.

use crate::pinned::{Verifier, SWEEP_SEEDS};
use crate::stats::{median, OpResult};
use crate::sweep::{self, failed_op, RoundCounts, SweepSpec};
use crate::trace::{self, Log, Tracer};
use crate::{drive, Ctx, Measured};
use ld_runner::json::Json;
use ld_runner::scenarios::Section2Sweep;
use ld_runner::SweepConfig;
use ld_serve::client::{self, ChunkedReader};
use ld_serve::{JobSpec, ServeOptions, Server};
use std::io::Read;
use std::path::PathBuf;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// The scenario every job runs.
const JOB_SCENARIO: &str = "section2-sweep";

/// Per-read socket timeout of the clients.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// A running in-process daemon.
pub struct Daemon {
    /// `host:port` it listens on.
    pub addr: String,
    handle: JoinHandle<Result<(), String>>,
}

impl Daemon {
    /// Binds a daemon on an ephemeral loopback port over `spool` (opened
    /// and scanned by the bind) and starts it on its own thread.
    pub fn start(spool: PathBuf, workers: usize) -> Result<Daemon, String> {
        let server = Server::bind(&ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            spool,
            workers,
        })?;
        let addr = server.local_addr().to_string();
        let handle = thread::spawn(move || server.run());
        Ok(Daemon { addr, handle })
    }

    /// Drains the daemon with `POST /shutdown` and joins it.
    pub fn stop(self) -> Result<(), String> {
        let answer = client::request(&self.addr, "POST", "/shutdown", None);
        let joined = self
            .handle
            .join()
            .map_err(|_| "daemon thread panicked".to_string())?;
        answer.and(joined)
    }
}

/// The `serve-jobs` workload.
pub fn measure(ctx: &Ctx) -> Result<Measured, String> {
    let sizes: &[usize] = if ctx.tiny { &[16, 24] } else { &[32, 48, 64] };
    let mut spools = 0usize;
    let mut next_spool = || {
        spools += 1;
        ctx.dir.join(format!("spool-{spools}"))
    };
    let setup = ctx.repeat_setup(|| {
        let started = Instant::now();
        let daemon = Daemon::start(next_spool(), 2)?;
        let listing = client::request(&daemon.addr, "GET", "/scenarios", None)?;
        let elapsed = started.elapsed().as_secs_f64();
        daemon.stop()?;
        if listing.status == 200 {
            Ok(elapsed)
        } else {
            Err(format!("GET /scenarios answered {}", listing.status))
        }
    })?;
    let daemon = Daemon::start(next_spool(), 2)?;
    let job = |c: usize, j: u64| {
        let mut h = ctx.seed
            ^ (c as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ j.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h = (h ^ (h >> 31)).wrapping_mul(0x94d0_49bb_1331_11eb);
        SweepConfig {
            max_n: sizes[(h % sizes.len() as u64) as usize],
            threads: 1,
            seed: SWEEP_SEEDS[((h >> 32) % SWEEP_SEEDS.len() as u64) as usize],
            ..SweepConfig::default()
        }
    };
    let report_bytes = std::sync::Mutex::new(Vec::new());
    let mut run = drive(
        ctx,
        setup,
        2,
        |c, j| {
            run_job(&daemon.addr, &job(c, j), &ctx.verifier, None, 0)
                .map_or_else(failed_op, |(op, _)| op)
        },
        |c, j, tracer| {
            let run_id = ((c as u64) << 32) | (j + 1);
            run_job(
                &daemon.addr,
                &job(c, j),
                &ctx.verifier,
                Some(tracer),
                run_id,
            )
            .map(|(op, bytes)| {
                report_bytes
                    .lock()
                    .expect("clients do not panic")
                    .push(bytes as f64);
                op
            })
            .unwrap_or_else(failed_op)
        },
    );
    let stopped = daemon.stop();
    if let Some(tracer) = &run.tracer {
        let spans = tracer.spans();
        run.layers = vec![
            (
                "serve.submit_ms_p50",
                median(&trace::durations(&spans, "submit")),
            ),
            (
                "serve.ttfb_ms_p50",
                median(&trace::durations(&spans, "ttfb")),
            ),
            (
                "serve.tail_ms_p50",
                median(&trace::durations(&spans, "tail")),
            ),
            (
                "serve.report_bytes",
                median(&report_bytes.into_inner().expect("clients joined")),
            ),
        ];
        run.layers.extend(replay_jobs(ctx, sizes, tracer)?);
    }
    stopped?;
    Ok(run)
}

/// One job: submit, tail the report to its end, verify, purge.  Returns
/// the operation and the report's size.
fn run_job(
    addr: &str,
    config: &SweepConfig,
    verifier: &Verifier,
    tracer: Option<&Tracer>,
    run: u64,
) -> Result<(OpResult, usize), String> {
    let mut log = Log::new(tracer);
    let body = JobSpec {
        config: config.clone(),
        ..JobSpec::new(JOB_SCENARIO)
    }
    .to_json()
    .render_compact();
    let started = Instant::now();
    let root = log.begin();
    let submitted = log.span("submit", root.id, run, || {
        client::request(addr, "POST", "/jobs", Some(&body))
    })?;
    if submitted.status != 201 {
        return Err(format!(
            "POST /jobs answered {}: {}",
            submitted.status,
            submitted.text()
        ));
    }
    let id = Json::parse(&submitted.text())?
        .get("id")
        .and_then(Json::as_u64)
        .ok_or("POST /jobs answer without an id")?;
    let path = format!("/jobs/{id}/report");
    let first = log.begin();
    let (status, _, reader) = client::open_stream(addr, "GET", &path, None, READ_TIMEOUT)?;
    if status != 200 {
        return Err(format!("GET {path} answered {status}"));
    }
    let mut tail = ChunkedReader::new(reader);
    let mut report = Vec::new();
    let mut buffer = [0u8; 64 * 1024];
    let mut tail_open = None;
    loop {
        let n = tail
            .read(&mut buffer)
            .map_err(|e| format!("reading {path}: {e}"))?;
        if n == 0 {
            break;
        }
        if tail_open.is_none() {
            log.end(first, "ttfb", root.id, run);
            tail_open = Some(log.begin());
        }
        report.extend_from_slice(&buffer[..n]);
    }
    if let Some(open) = tail_open {
        log.end(open, "tail", root.id, run);
    }
    let latency = started.elapsed();
    log.end(root, "job", 0, run);
    let ok = verifier.check(JOB_SCENARIO, config, &report);
    let cells = summary_cell_count(&report);
    let purged = client::request(addr, "DELETE", &format!("/jobs/{id}"), None)?;
    if purged.status != 200 {
        return Err(format!("DELETE /jobs/{id} answered {}", purged.status));
    }
    Ok((OpResult { latency, cells, ok }, report.len()))
}

/// The `cell_count` of a report's trailing summary (0 when absent).
fn summary_cell_count(report: &[u8]) -> u64 {
    const KEY: &str = "\"cell_count\": ";
    let text = std::str::from_utf8(report).unwrap_or("");
    text.rfind(KEY)
        .map(|at| &text[at + KEY.len()..])
        .and_then(|rest| rest.split(|c: char| !c.is_ascii_digit()).next())
        .and_then(|digits| digits.parse().ok())
        .unwrap_or(0)
}

/// Replays each job size through the traced sweep pipeline, for the layers
/// a job runs inside the daemon (plan, cells, writer, checkpoint, cache).
fn replay_jobs(
    ctx: &Ctx,
    sizes: &[usize],
    tracer: &Tracer,
) -> Result<Vec<(&'static str, f64)>, String> {
    let path = ctx.dir.join("replay.json");
    let started = Instant::now();
    let mut rounds: Vec<RoundCounts> = Vec::new();
    let mut run = 0u64;
    while run < sizes.len() as u64 || started.elapsed().as_secs_f64() < ctx.probe_seconds() {
        let spec = SweepSpec {
            scenario: &Section2Sweep,
            max_n: sizes[(run % sizes.len() as u64) as usize],
            threads: 1,
            shard_size: SweepConfig::default().shard_size,
        };
        let config = spec.config(SWEEP_SEEDS[0]);
        run += 1;
        let run_id = (1 << 40) | run;
        let (op, counts) =
            sweep::traced_round(&spec, &config, &path, tracer, run_id, &ctx.verifier)?;
        if !op.ok {
            return Err(format!(
                "replayed {JOB_SCENARIO} at max_n {} does not match its pin",
                spec.max_n
            ));
        }
        rounds.push(counts);
    }
    Ok(sweep::sweep_layers(&tracer.spans(), &rounds))
}
