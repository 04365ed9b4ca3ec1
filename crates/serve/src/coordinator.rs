//! The dispatch coordinator: fault-tolerant distributed sweeps over the
//! `POST /shards` worker protocol.
//!
//! [`dispatch`] plans a scenario locally, splits the plan's
//! [`ShardLayout`] across N running `ld-serve` daemons, and merges the
//! returned per-shard cell fragments into one `ld-runner/report/v3`
//! document that is **byte-identical** to a single-process
//! `ldx run --deterministic` of the same config.  That identity holds by
//! construction, not by luck:
//!
//! * Workers never randomise anything — per-cell seeds derive from global
//!   cell indices ([`ld_runner::stream::execute_shard`]), so a shard computes the
//!   same fragments wherever it runs, however many times it is retried.
//! * The coordinator writes fragments strictly in shard order through
//!   [`ReportStream::write_rendered_cells`], the exact path a local run
//!   uses, and appends the same `.ckpt` records a local run would — so a
//!   killed *coordinator* is recoverable too.
//! * Every transported shard carries an FNV-1a digest over its fragment
//!   bytes, recomputed and cross-checked on arrival: a torn or corrupted
//!   response is a worker failure, never a corrupt report.
//!
//! Fault tolerance is lease-based (see [`crate::lease`]): shards are
//! granted under time-bounded leases with heartbeat renewal (every
//! received chunk renews), a worker that crashes / stalls / partitions
//! has its shards expire back to pending and reassigned elsewhere with
//! capped exponential backoff, and a presumed-dead worker that later
//! answers is fenced off by epoch — its stale results are counted and
//! dropped, not merged.  A shard that exceeds its retry budget aborts
//! the sweep (poison-pill detection); losing *every* worker aborts too.

use crate::client::{is_chunked, ChunkedReader, RetryPolicy};
use crate::job::JobSpec;
use crate::lease::{Assignment, Completion, LeasePolicy, LeaseTable};
use crate::server::SHARDS_SCHEMA;
use ld_local::cache::CacheStats;
use ld_runner::json::Json;
use ld_runner::stream::{
    fnv1a, Checkpoint, ReportStream, ShardLayout, ShardRecord, StreamSummary, FNV_OFFSET,
};
use ld_runner::{scenarios, SweepConfig};
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Condvar, Mutex};
use std::thread;
// ld-analyze: allow(D002, reason = "lease clocks and wall timings only; report bytes are deterministic and never read the clock")
use std::time::{Duration, Instant};

/// How the merge loop paces its lease-expiry sweeps while waiting for
/// results.
const MERGE_TICK: Duration = Duration::from_millis(50);

/// The longest an idle coordinator-side worker thread waits before
/// re-asking the lease table.  A release or the end of the dispatch wakes
/// it at once; only lease expiry, which is time-based, needs the timeout.
const IDLE_POLL: Duration = Duration::from_millis(20);

/// What to dispatch and how aggressively to retry it.
#[derive(Debug, Clone)]
pub struct DispatchOptions {
    /// Scenario name.
    pub scenario: String,
    /// The sweep configuration (fully determines the report bytes).
    pub config: SweepConfig,
    /// Where the merged report is written.
    pub out: PathBuf,
    /// Worker daemon addresses (`host:port`), one coordinator thread each.
    pub workers: Vec<String>,
    /// Lease duration; also the per-read socket timeout, so a stalled
    /// socket surfaces no later than the lease it would strand.
    pub lease: Duration,
    /// Maximum shards granted per lease.
    pub batch: usize,
    /// Per-shard failed-attempt budget before the sweep aborts.
    pub max_attempts: u32,
    /// Backoff policy for a worker's failed batches; a worker exceeding
    /// `retry.attempts` consecutive failures is abandoned.
    pub retry: RetryPolicy,
}

impl DispatchOptions {
    /// Defaults for `scenario` writing to `out`, with no workers yet.
    pub fn new(scenario: impl Into<String>, out: impl Into<PathBuf>) -> Self {
        DispatchOptions {
            scenario: scenario.into(),
            config: SweepConfig::default(),
            out: out.into(),
            workers: Vec::new(),
            lease: Duration::from_secs(30),
            batch: 2,
            max_attempts: 4,
            retry: RetryPolicy::default(),
        }
    }
}

/// What fault handling did during a dispatch (all zero on a clean run).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DispatchStats {
    /// Shards returned to pending by lease expiry or connection loss.
    pub reassigned: usize,
    /// Results dropped by epoch fencing (stale workers, duplicates).
    pub stale_rejected: usize,
    /// Failed worker batches (transport errors, digest mismatches).
    pub worker_failures: usize,
}

/// One verified shard result, as the merge loop consumes it.
#[derive(Debug)]
struct ShardOutput {
    shard: usize,
    fragments: Vec<String>,
    passed: usize,
    failed: usize,
    panicked: usize,
    exhausted: usize,
    wall_micros: Vec<u64>,
    failures: Vec<(String, String)>,
}

/// Shared state between the merge loop and the per-worker threads.
struct Dispatcher {
    options: DispatchOptions,
    table: Mutex<LeaseTable>,
    /// Wakes idle worker threads parked beside `table`: notified when
    /// shards are released back to pending and when `done` is set.
    idle: Condvar,
    done: AtomicBool,
    origin: Instant,
    reassigned: AtomicUsize,
    stale_rejected: AtomicUsize,
    worker_failures: AtomicUsize,
}

/// Runs a distributed sweep; see the module docs.  Returns the same
/// [`StreamSummary`] a local run would (cache counters are zero — the
/// workers own their caches) plus the fault-handling tally.
///
/// # Errors
///
/// Returns a message when planning fails, no workers are given, every
/// worker is lost, a shard exhausts its retry budget, or report I/O
/// fails.  The partial report and its checkpoint are left on disk.
pub fn dispatch(options: &DispatchOptions) -> Result<(StreamSummary, DispatchStats), String> {
    options.config.validate().map_err(|e| e.to_string())?;
    if options.workers.is_empty() {
        return Err("dispatch needs at least one worker address".to_string());
    }
    let scenario = scenarios::find(&options.scenario)
        .ok_or_else(|| format!("unknown scenario '{}'", options.scenario))?;
    let plan = scenario.plan(&options.config)?;
    let layout = ShardLayout::new(plan.cells.len(), options.config.shard_size);
    let shard_count = layout.shard_count();

    let file = File::create(&options.out)
        .map_err(|e| format!("creating {}: {e}", options.out.display()))?;
    let stream = ReportStream::begin(file, &options.scenario, &options.config)
        .map_err(|e| format!("writing {}: {e}", options.out.display()))?;
    let ckpt_path = Checkpoint::path_for(&options.out);
    let checkpoint = Checkpoint {
        scenario: options.scenario.clone(),
        deterministic: true,
        config: options.config.clone(),
        cell_count: plan.cells.len(),
        shard_count,
        header_offset: stream.offset(),
        header_digest: stream.digest(),
        shards: Vec::new(),
    };
    let mut ckpt_file =
        File::create(&ckpt_path).map_err(|e| format!("creating {}: {e}", ckpt_path.display()))?;
    ckpt_file
        .write_all(checkpoint.render_header().as_bytes())
        .and_then(|()| ckpt_file.flush())
        .map_err(|e| format!("writing {}: {e}", ckpt_path.display()))?;

    let policy = LeasePolicy {
        lease_ms: options.lease.as_millis().max(1) as u64,
        max_attempts: options.max_attempts,
    };
    let dispatcher = Dispatcher {
        options: options.clone(),
        table: Mutex::new(LeaseTable::new(shard_count, policy)),
        idle: Condvar::new(),
        done: AtomicBool::new(false),
        origin: Instant::now(),
        reassigned: AtomicUsize::new(0),
        stale_rejected: AtomicUsize::new(0),
        worker_failures: AtomicUsize::new(0),
    };

    let (tx, rx) = mpsc::channel::<ShardOutput>();
    let merged = thread::scope(|scope| {
        for addr in &dispatcher.options.workers {
            let tx = tx.clone();
            let dispatcher = &dispatcher;
            scope.spawn(move || dispatcher.worker_loop(addr, &tx));
        }
        drop(tx);
        let merged = dispatcher.merge(&rx, stream, &mut ckpt_file, shard_count);
        // Unblock every worker thread before the scope joins them.  The
        // flag is set under the table lock idle threads check it under,
        // so the notify cannot slip between their check and their park.
        {
            let _table = dispatcher.lock_table();
            dispatcher.done.store(true, Ordering::SeqCst);
        }
        dispatcher.idle.notify_all();
        merged
    });
    let merged = merged?;

    std::fs::remove_file(&ckpt_path)
        .map_err(|e| format!("removing {}: {e}", ckpt_path.display()))?;
    let stats = DispatchStats {
        reassigned: dispatcher.reassigned.load(Ordering::SeqCst),
        stale_rejected: dispatcher.stale_rejected.load(Ordering::SeqCst),
        worker_failures: dispatcher.worker_failures.load(Ordering::SeqCst),
    };
    let total_wall = dispatcher.origin.elapsed();
    let summary = StreamSummary {
        scenario: options.scenario.clone(),
        config: options.config.clone(),
        cell_count: plan.cells.len(),
        cells_run: plan.cells.len(),
        passed: merged.passed,
        failed: merged.failed,
        panicked: merged.panicked,
        exhausted: merged.exhausted,
        shards_written: shard_count,
        shard_count,
        completed: true,
        total_wall,
        cumulative_wall: total_wall,
        cache: CacheStats::default(),
        cumulative_cache: CacheStats::default(),
        failures: merged.failures,
    };
    Ok((summary, stats))
}

/// The merge loop's accumulated totals.
struct MergedTotals {
    passed: usize,
    failed: usize,
    panicked: usize,
    exhausted: usize,
    failures: Vec<(String, String)>,
}

impl Dispatcher {
    /// Milliseconds since dispatch start — the lease table's clock.
    fn now_ms(&self) -> u64 {
        self.origin.elapsed().as_millis() as u64
    }

    fn lock_table(&self) -> std::sync::MutexGuard<'_, LeaseTable> {
        // A panic while holding this lock aborts the dispatch anyway;
        // recover the guard so the other threads fail loudly, not silently.
        match self.table.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// One coordinator-side thread per worker address: acquire a batch,
    /// stream it, repeat — with capped exponential backoff on failures
    /// and abandonment after `retry.attempts` consecutive ones.
    fn worker_loop(&self, addr: &str, tx: &mpsc::Sender<ShardOutput>) {
        let retry = self.options.retry;
        let mut consecutive = 0u32;
        let mut backoff = retry.backoff();
        loop {
            if self.done.load(Ordering::SeqCst) {
                return;
            }
            let assignment = {
                let mut table = self.lock_table();
                let expired = table.expire(self.now_ms());
                self.reassigned.fetch_add(expired.len(), Ordering::SeqCst);
                if table.all_done() {
                    return;
                }
                let assignment = table.acquire(addr, self.now_ms(), self.options.batch);
                if assignment.is_none() && !self.done.load(Ordering::SeqCst) {
                    // Everything is leased out: park until a release or
                    // the end of the dispatch, or until an expiry may
                    // hand work back.  (The relocked guard is dropped
                    // at once, poisoned or not.)
                    let _ = self.idle.wait_timeout(table, IDLE_POLL);
                }
                assignment
            };
            let Some(assignment) = assignment else {
                continue;
            };
            match self.run_batch(addr, &assignment, tx) {
                Ok(()) => {
                    consecutive = 0;
                    backoff = retry.backoff();
                }
                Err(_message) => {
                    let released = self.lock_table().release(addr, assignment.epoch);
                    self.idle.notify_all();
                    self.reassigned.fetch_add(released.len(), Ordering::SeqCst);
                    self.worker_failures.fetch_add(1, Ordering::SeqCst);
                    consecutive += 1;
                    if consecutive >= retry.attempts.max(1) {
                        // The worker is gone; its shards are already back
                        // in the pool for the survivors.
                        return;
                    }
                    if let Some(delay) = backoff.next() {
                        thread::sleep(delay);
                    }
                }
            }
        }
    }

    /// Streams one leased batch from `addr`, verifying and fencing each
    /// returned shard.  Any irregularity — transport error, non-200, bad
    /// framing, digest mismatch, early EOF — is one worker failure; the
    /// caller releases whatever the batch did not complete.
    fn run_batch(
        &self,
        addr: &str,
        assignment: &Assignment,
        tx: &mpsc::Sender<ShardOutput>,
    ) -> Result<(), String> {
        let body = shards_body(&self.options.scenario, &self.options.config, assignment);
        let read_timeout = self.options.lease.max(Duration::from_secs(1));
        let (status, headers, reader) =
            crate::client::open_stream(addr, "POST", "/shards", Some(&body), read_timeout)?;
        if status != 200 {
            return Err(format!("{addr}: /shards answered {status}"));
        }
        if !is_chunked(&headers) {
            return Err(format!("{addr}: /shards response is not chunked"));
        }
        let mut lines = BufReader::new(ChunkedReader::new(reader));
        let mut delivered = 0usize;
        let mut line = String::new();
        loop {
            line.clear();
            let n = lines
                .read_line(&mut line)
                .map_err(|e| format!("{addr}: reading shard stream: {e}"))?;
            if n == 0 {
                break;
            }
            if line.trim().is_empty() {
                continue;
            }
            let (epoch, output) = parse_shard_line(&line)?;
            if epoch != assignment.epoch {
                return Err(format!(
                    "{addr}: shard {} echoed epoch {epoch}, lease is epoch {}",
                    output.shard, assignment.epoch
                ));
            }
            if !assignment.shards.contains(&output.shard) {
                return Err(format!(
                    "{addr}: returned shard {} outside its batch {:?}",
                    output.shard, assignment.shards
                ));
            }
            // Every received chunk is a heartbeat: renew before judging.
            let verdict = {
                let mut table = self.lock_table();
                table.renew(addr, assignment.epoch, self.now_ms());
                table.complete(output.shard, assignment.epoch)
            };
            match verdict {
                Completion::Accepted => {
                    delivered += 1;
                    if tx.send(output).is_err() {
                        // The merge loop is gone (abort path); stop early.
                        return Ok(());
                    }
                }
                Completion::Stale => {
                    self.stale_rejected.fetch_add(1, Ordering::SeqCst);
                }
            }
        }
        if delivered < assignment.shards.len() {
            return Err(format!(
                "{addr}: stream ended after {delivered} of {} shards",
                assignment.shards.len()
            ));
        }
        Ok(())
    }

    /// Receives verified shard results and writes them to the report and
    /// checkpoint strictly in shard order, expiring leases on every tick.
    fn merge<W: Write>(
        &self,
        rx: &mpsc::Receiver<ShardOutput>,
        mut stream: ReportStream<W>,
        ckpt_file: &mut File,
        shard_count: usize,
    ) -> Result<MergedTotals, String> {
        let out = &self.options.out;
        let mut buffer: BTreeMap<usize, ShardOutput> = BTreeMap::new();
        let mut next_shard = 0usize;
        let mut totals = MergedTotals {
            passed: 0,
            failed: 0,
            panicked: 0,
            exhausted: 0,
            failures: Vec::new(),
        };
        while next_shard < shard_count {
            match rx.recv_timeout(MERGE_TICK) {
                Ok(output) => {
                    buffer.insert(output.shard, output);
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    // Every worker thread has exited; drain what arrived.
                    while let Some(output) = buffer.remove(&next_shard) {
                        self.write_shard(&mut stream, ckpt_file, &output, &mut totals)?;
                        next_shard += 1;
                    }
                    if next_shard < shard_count {
                        return Err(format!(
                            "all {} worker(s) failed with {} of {shard_count} shards merged",
                            self.options.workers.len(),
                            next_shard
                        ));
                    }
                    break;
                }
            }
            while let Some(output) = buffer.remove(&next_shard) {
                self.write_shard(&mut stream, ckpt_file, &output, &mut totals)?;
                next_shard += 1;
            }
            let exhausted = {
                let mut table = self.lock_table();
                let expired = table.expire(self.now_ms());
                self.reassigned.fetch_add(expired.len(), Ordering::SeqCst);
                table.exhausted()
            };
            if let Some(shard) = exhausted {
                return Err(format!(
                    "shard {shard} failed more than {} times; aborting the sweep \
                     (partial report and checkpoint left at {})",
                    self.options.max_attempts,
                    out.display()
                ));
            }
        }
        let summary = ld_runner::report::summary_json(
            stream.cells_written(),
            totals.passed,
            totals.failed,
            totals.panicked,
            totals.exhausted,
        );
        stream
            .finish(summary, None)
            .map_err(|e| format!("writing {}: {e}", out.display()))?;
        Ok(totals)
    }

    /// Appends one accepted shard to the report and the checkpoint.
    fn write_shard<W: Write>(
        &self,
        stream: &mut ReportStream<W>,
        ckpt_file: &mut File,
        output: &ShardOutput,
        totals: &mut MergedTotals,
    ) -> Result<(), String> {
        stream
            .write_rendered_cells(&output.fragments)
            .map_err(|e| format!("writing {}: {e}", self.options.out.display()))?;
        let record = ShardRecord {
            shard: output.shard,
            cells: output.fragments.len(),
            passed: output.passed,
            failed: output.failed,
            panicked: output.panicked,
            exhausted: output.exhausted,
            end_offset: stream.offset(),
            digest: stream.digest(),
            elapsed_micros: self.origin.elapsed().as_micros() as u64,
            // Workers own their canonical-view caches; the coordinator
            // has none to report.
            cache: CacheStats::default(),
            wall_micros: output.wall_micros.clone(),
        };
        ckpt_file
            .write_all(Checkpoint::render_shard(&record).as_bytes())
            .and_then(|()| ckpt_file.flush())
            .map_err(|e| format!("writing checkpoint for {}: {e}", self.options.out.display()))?;
        totals.passed += output.passed;
        totals.failed += output.failed;
        totals.panicked += output.panicked;
        totals.exhausted += output.exhausted;
        totals.failures.extend(output.failures.iter().cloned());
        Ok(())
    }
}

/// The `POST /shards` request body for one assignment.
fn shards_body(scenario: &str, config: &SweepConfig, assignment: &Assignment) -> String {
    let spec = JobSpec {
        scenario: scenario.to_string(),
        priority: 0,
        config: config.clone(),
        scenario_doc: None,
    };
    spec.to_json()
        .set("schema", SHARDS_SCHEMA)
        .set("epoch", assignment.epoch)
        .set("first_shard", assignment.shards.start)
        .set("stop_shard", assignment.shards.end)
        .render_compact()
}

/// Parses and integrity-checks one worker result line; returns the echoed
/// epoch alongside the output.
///
/// # Errors
///
/// Returns a message on structural problems or a digest mismatch (the
/// fragments do not hash to the digest the worker computed at execution
/// time — bytes were torn or reordered in transit).
fn parse_shard_line(line: &str) -> Result<(u64, ShardOutput), String> {
    let json = Json::parse(line).map_err(|e| format!("bad shard line: {e}"))?;
    let number = |key: &str| {
        json.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("shard line missing integer '{key}'"))
    };
    let strings = |key: &str| -> Result<Vec<String>, String> {
        json.get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("shard line missing array '{key}'"))?
            .iter()
            .map(|v| {
                v.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| format!("non-string entry in '{key}'"))
            })
            .collect()
    };
    let shard = number("shard")? as usize;
    let epoch = number("epoch")?;
    let digest = number("digest")?;
    let fragments = strings("cells")?;
    let mut check = FNV_OFFSET;
    for fragment in &fragments {
        check = fnv1a(check, fragment.as_bytes());
    }
    if check != digest {
        return Err(format!(
            "shard {shard}: fragment digest {check:#018x} does not match reported {digest:#018x}"
        ));
    }
    let wall_micros = json
        .get("wall_micros")
        .and_then(Json::as_arr)
        .ok_or("shard line missing array 'wall_micros'")?
        .iter()
        .map(|v| v.as_u64().ok_or("non-integer entry in 'wall_micros'"))
        .collect::<Result<Vec<u64>, _>>()?;
    let failures = json
        .get("failures")
        .and_then(Json::as_arr)
        .ok_or("shard line missing array 'failures'")?
        .iter()
        .map(|pair| {
            let pair = pair.as_arr().ok_or("failure entry is not a pair")?;
            match pair {
                [id, what] => Ok((
                    id.as_str().ok_or("failure id is not a string")?.to_string(),
                    what.as_str()
                        .ok_or("failure message is not a string")?
                        .to_string(),
                )),
                _ => Err("failure entry is not a pair".to_string()),
            }
        })
        .collect::<Result<Vec<(String, String)>, String>>()?;
    Ok((
        epoch,
        ShardOutput {
            shard,
            fragments,
            passed: number("passed")? as usize,
            failed: number("failed")? as usize,
            panicked: number("panicked")? as usize,
            exhausted: number("exhausted")? as usize,
            wall_micros,
            failures,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_for(fragments: &[&str], digest: u64) -> String {
        let mut json = Json::object()
            .set("shard", 3u64)
            .set("epoch", 7u64)
            .set("digest", digest)
            .set("passed", 1u64)
            .set("failed", 1u64)
            .set("panicked", 0u64)
            .set("exhausted", 0u64)
            .set("wall_micros", Json::array([5u64, 9u64]))
            .set(
                "failures",
                Json::Arr(vec![Json::array(["cell-b", "verdict mismatch"])]),
            );
        json = json.set(
            "cells",
            Json::Arr(
                fragments
                    .iter()
                    .map(|f| Json::Str((*f).to_string()))
                    .collect(),
            ),
        );
        json.render_compact()
    }

    #[test]
    fn shard_lines_round_trip_with_digest_verification() {
        let fragments = ["{\n      \"id\": \"cell-a\"\n    }", "{\"id\":\"cell-b\"}"];
        let digest = fragments
            .iter()
            .fold(FNV_OFFSET, |h, f| fnv1a(h, f.as_bytes()));
        let (epoch, output) = parse_shard_line(&line_for(&fragments, digest)).expect("parse");
        assert_eq!(epoch, 7);
        assert_eq!(output.shard, 3);
        assert_eq!(output.fragments.len(), 2);
        assert_eq!(output.fragments[0], fragments[0]);
        assert_eq!(output.passed, 1);
        assert_eq!(output.wall_micros, vec![5, 9]);
        assert_eq!(
            output.failures,
            vec![("cell-b".to_string(), "verdict mismatch".to_string())]
        );
    }

    #[test]
    fn corrupted_fragments_fail_the_digest_cross_check() {
        let fragments = ["{\"id\":\"cell-a\"}"];
        let err = parse_shard_line(&line_for(&fragments, 0xdead_beef)).expect_err("mismatch");
        assert!(err.contains("digest"), "{err}");
    }

    #[test]
    fn shards_bodies_carry_the_wire_schema_and_range() {
        let assignment = Assignment {
            worker: "127.0.0.1:7117".to_string(),
            epoch: 12,
            shards: 4..9,
        };
        let body = shards_body("section2-sweep", &SweepConfig::default(), &assignment);
        let json = Json::parse(&body).expect("parse");
        assert_eq!(
            json.get("schema").and_then(Json::as_str),
            Some(SHARDS_SCHEMA)
        );
        assert_eq!(json.get("epoch").and_then(Json::as_u64), Some(12));
        assert_eq!(json.get("first_shard").and_then(Json::as_u64), Some(4));
        assert_eq!(json.get("stop_shard").and_then(Json::as_u64), Some(9));
        assert!(json.get("config").is_some());
    }
}
