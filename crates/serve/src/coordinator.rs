//! The dispatch coordinator: fault-tolerant distributed sweeps over the
//! `POST /shards` worker protocol.
//!
//! [`dispatch`] plans a scenario locally, splits the plan's
//! [`ShardLayout`] across N running `ld-serve` daemons, and merges the
//! returned shards into one `ld-runner/report/v3` document that is
//! **byte-identical** to a single-process `ldx run --deterministic` of the
//! same config.  The remote leases are the second *shard source* of the
//! sweep driver (the local pipeline is the first); the coordinator owns
//! only what is remote — the lease table, the per-worker batch streams
//! and the in-order merge loop — and writes through the driver's one
//! sink.  So the identity holds by construction, not by luck:
//!
//! * Workers never randomise anything — per-cell seeds derive from global
//!   cell indices ([`ld_runner::stream::execute_shard`]), so a shard computes the
//!   same fragments wherever it runs, however many times it is retried.
//! * The merge loop appends shards strictly in shard order to a
//!   [`ReportSink`], the writer `ldx run` and `ldx resume` use, so the
//!   report, its `.ckpt` records and the summary are a local run's — and
//!   a killed dispatch (coordinator or every worker) resumes with
//!   `ldx resume` like any interrupted local run.
//! * Every transported shard carries an FNV-1a digest over its fragment
//!   bytes and is checked against the plan's shard size on arrival
//!   (`crate::shards`): a torn, corrupted or mis-sized response is a
//!   worker failure, never a corrupt report.
//!
//! Fault tolerance is lease-based (see [`crate::lease`]): shards are
//! granted under time-bounded leases with heartbeat renewal (every
//! received chunk renews), a worker that crashes / stalls / partitions
//! has its shards expire back to pending and reassigned elsewhere with
//! capped exponential backoff, and a presumed-dead worker that later
//! answers is fenced off by epoch — its stale results are counted and
//! dropped, not merged.  A shard that exceeds its retry budget aborts
//! the sweep (poison-pill detection); losing *every* worker aborts too.

use crate::client::{self, is_chunked, keeps_alive, ChunkedReader, ExchangeError, RetryPolicy};
use crate::lease::{Assignment, Completion, LeasePolicy, LeaseTable};
use crate::shards;
use ld_local::cache::CacheStats;
use ld_runner::stream::{ReportSink, ShardCells, ShardLayout, StreamSummary};
use ld_runner::{scenarios, RealIo, SweepConfig};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::net::TcpStream;
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

/// Shared state between the merge loop and the per-worker threads.
struct Dispatcher {
    options: DispatchOptions,
    layout: ShardLayout,
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
/// workers own their caches — and `workers` counts the worker daemons)
/// plus the fault-handling tally.
///
/// # Errors
///
/// Returns a message when planning fails, no workers are given, every
/// worker is lost, a shard exhausts its retry budget, or report I/O
/// fails.  The partial report and its checkpoint are left on disk, and
/// `ldx resume` finishes them locally.
pub fn dispatch(options: &DispatchOptions) -> Result<(StreamSummary, DispatchStats), String> {
    options.config.validate().map_err(|e| e.to_string())?;
    if options.workers.is_empty() {
        return Err("dispatch needs at least one worker address".to_string());
    }
    let scenario = scenarios::find(&options.scenario)
        .ok_or_else(|| format!("unknown scenario '{}'", options.scenario))?;
    let cell_count = scenario.plan(&options.config)?.cells.len();
    let mut sink = ReportSink::create(
        &RealIo,
        &options.out,
        &options.scenario,
        &options.config,
        cell_count,
        true,
    )?;

    let policy = LeasePolicy {
        lease_ms: options.lease.as_millis().max(1) as u64,
        max_attempts: options.max_attempts,
    };
    let layout = ShardLayout::new(cell_count, options.config.shard_size);
    let dispatcher = Dispatcher {
        options: options.clone(),
        layout,
        table: Mutex::new(LeaseTable::new(layout.shard_count(), policy)),
        idle: Condvar::new(),
        done: AtomicBool::new(false),
        origin: Instant::now(),
        reassigned: AtomicUsize::new(0),
        stale_rejected: AtomicUsize::new(0),
        worker_failures: AtomicUsize::new(0),
    };

    let (tx, rx) = mpsc::channel::<ShardCells>();
    let merged = thread::scope(|scope| {
        for addr in &dispatcher.options.workers {
            let tx = tx.clone();
            let dispatcher = &dispatcher;
            scope.spawn(move || dispatcher.worker_loop(addr, &tx));
        }
        drop(tx);
        let merged = dispatcher.merge(&rx, &mut sink);
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
    merged?;
    let summary = sink.finish(options.workers.len())?;
    let stats = DispatchStats {
        reassigned: dispatcher.reassigned.load(Ordering::SeqCst),
        stale_rejected: dispatcher.stale_rejected.load(Ordering::SeqCst),
        worker_failures: dispatcher.worker_failures.load(Ordering::SeqCst),
    };
    Ok((summary, stats))
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
    fn worker_loop(&self, addr: &str, tx: &mpsc::Sender<ShardCells>) {
        let retry = self.options.retry;
        let mut consecutive = 0u32;
        let mut backoff = retry.backoff();
        // The kept-alive connection to this worker, so one worker-side
        // plan serves every lease; dropped on any failure.
        let mut connection = None;
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
            match self.run_batch(addr, &mut connection, &assignment, tx) {
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
    /// framing, digest or shard-size mismatch, early EOF — is one worker
    /// failure; the caller releases whatever the batch did not complete.
    ///
    /// The batch goes out over `connection` when it holds one, else over a
    /// fresh connection.  The connection is put back only after a response
    /// the worker promised to keep alive was read to its end; a failure or
    /// an early return drops it, so no half-read body is ever reused.
    fn run_batch(
        &self,
        addr: &str,
        connection: &mut Option<BufReader<TcpStream>>,
        assignment: &Assignment,
        tx: &mpsc::Sender<ShardCells>,
    ) -> Result<(), String> {
        let body = shards::request_body(&self.options.scenario, &self.options.config, assignment);
        let (mut reader, status, headers) = self.send(addr, connection.take(), &body)?;
        if status != 200 {
            return Err(format!("{addr}: /shards answered {status}"));
        }
        if !is_chunked(&headers) {
            return Err(format!("{addr}: /shards response is not chunked"));
        }
        let mut lines = BufReader::new(ChunkedReader::new(&mut reader));
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
            let (epoch, output) = shards::parse_line(&line, self.layout)?;
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
        if keeps_alive(&headers) {
            *connection = Some(reader);
        }
        Ok(())
    }

    /// Sends one `POST /shards` body to `addr` and reads the response head,
    /// over `reused` when given.  A reused connection that ends before the
    /// first response byte — the worker closed it while idle, after its
    /// read timeout — is replaced by one fresh connection before the send
    /// counts as a failure.
    #[allow(clippy::type_complexity)]
    fn send(
        &self,
        addr: &str,
        reused: Option<BufReader<TcpStream>>,
        body: &str,
    ) -> Result<(BufReader<TcpStream>, u16, Vec<(String, String)>), String> {
        let post = |reader: &mut BufReader<TcpStream>| {
            client::exchange(reader, addr, "POST", "/shards", Some(body), true)
        };
        if let Some(mut reader) = reused {
            match post(&mut reader) {
                Ok((status, headers)) => return Ok((reader, status, headers)),
                Err(ExchangeError::Unanswered(_)) => {}
                Err(e) => return Err(format!("{addr}: {e}")),
            }
        }
        let read_timeout = self.options.lease.max(Duration::from_secs(1));
        let mut reader = client::connect(addr, read_timeout)?;
        let (status, headers) = post(&mut reader).map_err(|e| format!("{addr}: {e}"))?;
        Ok((reader, status, headers))
    }

    /// Receives verified shards and appends them to `sink` strictly in
    /// shard order, expiring leases on every tick.
    fn merge(
        &self,
        rx: &mpsc::Receiver<ShardCells>,
        sink: &mut ReportSink<'_>,
    ) -> Result<(), String> {
        let shard_count = self.layout.shard_count();
        let mut buffer: BTreeMap<usize, ShardCells> = BTreeMap::new();
        loop {
            let received = rx.recv_timeout(MERGE_TICK);
            let disconnected = matches!(received, Err(mpsc::RecvTimeoutError::Disconnected));
            if let Ok(cells) = received {
                buffer.insert(cells.shard, cells);
            }
            while let Some(cells) = buffer.remove(&sink.next_shard()) {
                // Workers own their canonical-view caches; the coordinator
                // has none to report.
                sink.append(&cells, CacheStats::default())?;
            }
            let merged = sink.next_shard();
            if merged == shard_count {
                return Ok(());
            }
            if disconnected {
                // Every worker thread has exited with shards still missing.
                return Err(format!(
                    "all {} worker(s) failed with {merged} of {shard_count} shards merged",
                    self.options.workers.len()
                ));
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
                    self.options.out.display()
                ));
            }
        }
    }
}
