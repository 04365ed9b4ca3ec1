//! The daemon: TCP accept loop, worker pool, endpoint routing, drain.
//!
//! # Endpoints
//!
//! | Method/path              | Behaviour                                            |
//! |--------------------------|------------------------------------------------------|
//! | `GET /scenarios`         | `ld_runner::scenarios::listing_json` verbatim        |
//! | `POST /jobs`             | submit a [`JobSpec`] body → `201` + status JSON      |
//! | `GET /jobs`              | all jobs, id order                                   |
//! | `GET /jobs/<id>`         | one job's status                                     |
//! | `GET /jobs/<id>/report`  | chunked live tail of the report until terminal       |
//! | `DELETE /jobs/<id>`      | cancel (queued) / purge (terminal); `409` if running |
//! | `POST /shards`           | execute a shard range for a dispatch coordinator     |
//! | `POST /shutdown`         | graceful drain: finish accepted jobs, then exit      |
//!
//! Submission errors answer `400` with `{"error", "exit_code", "message"}`
//! where `error`/`exit_code` reuse the `ConfigError` token/exit-code
//! mapping of `ldx run`, so an HTTP client and a CLI user see one
//! vocabulary.
//!
//! # Drain and kill
//!
//! `POST /shutdown` stops admissions (`503`), closes the queue (workers
//! finish everything already accepted, flushing checkpoints as always) and
//! wakes the accept loop; [`Server::run`] then joins the workers and
//! returns.  A *hard* kill (SIGTERM/SIGKILL/power loss) at any instant is
//! equally safe — that is the spool's job, not a signal handler's: every
//! in-flight job has a checkpoint sidecar, and a daemon restarted over the
//! same spool resumes it through `ld_runner::stream::resume`,
//! byte-identically.  (Pure-std Rust under `#![forbid(unsafe_code)]`
//! cannot install signal handlers, so crash-safety by construction is the
//! design, not a fallback — see `crates/serve/DESIGN.md`.)

use crate::http::{self, ChunkedWriter, Request};
use crate::job::{JobRecord, JobSpec, JobState, SubmitError};
use crate::queue::{JobQueue, JobTable};
use crate::shards;
pub use crate::shards::SHARDS_SCHEMA;
use crate::spool::{RecoveredState, Spool};
use ld_runner::json::Json;
use ld_runner::stream::{self, StreamOptions};
use ld_runner::{scenarios, Scenario, ScenarioDoc};
use std::io::{BufReader, Read, Seek};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;
// ld-analyze: allow(D002, reason = "report-tail stall clock only; job execution and report bytes never read the clock")
use std::time::Instant;

/// How long `GET /jobs/<id>/report` lets a *running* job go without a
/// single new report byte before giving up on it as stalled.  Time spent
/// queued does not count.
const TAIL_STALL_TIMEOUT: Duration = Duration::from_secs(60);

/// How often the report tail forwards a running job's new bytes.  State
/// changes (the claim, the terminal transition) wake the tail at once.
const TAIL_POLL: Duration = Duration::from_millis(5);

/// Per-connection socket read timeout (slow peers must not pin handler
/// threads forever).
const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// What `ldx serve` passes down.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Bind address (`host:port`; port 0 picks an ephemeral one).
    pub addr: String,
    /// Spool directory (created if missing, scanned for recovery).
    pub spool: PathBuf,
    /// Worker threads executing jobs.
    pub workers: usize,
}

/// Everything the handlers and workers share.
struct Shared {
    spool: Spool,
    queue: JobQueue,
    table: JobTable,
    next_id: AtomicU64,
    draining: AtomicBool,
    addr: SocketAddr,
    workers: usize,
}

/// A bound (but not yet running) daemon.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds the listener, opens the spool and recovers every persisted
    /// job: completed/failed jobs re-enter the table as records,
    /// in-flight ones (checkpoint present) re-queue on the resume path,
    /// and never-started ones re-queue from scratch.
    ///
    /// # Errors
    ///
    /// Returns a message when the bind, the spool, or recovery fails.
    pub fn bind(options: &ServeOptions) -> Result<Server, String> {
        let listener = TcpListener::bind(&options.addr)
            .map_err(|e| format!("binding {}: {e}", options.addr))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("local addr: {e}"))?;
        let spool = Spool::open(options.spool.clone())?;
        let queue = JobQueue::new();
        let table = JobTable::new();
        let mut next_id = 1;
        for recovered in spool.scan()? {
            next_id = next_id.max(recovered.id + 1);
            let mut record = JobRecord::queued(recovered.spec);
            match recovered.state {
                RecoveredState::Completed => record.state = JobState::Completed,
                RecoveredState::Failed(message) => {
                    record.state = JobState::Failed;
                    record.message = Some(message);
                }
                RecoveredState::Resumable => {
                    record.resume = true;
                    queue.push(record.spec.priority, recovered.id);
                }
                RecoveredState::Queued => {
                    queue.push(record.spec.priority, recovered.id);
                }
            }
            table.insert(recovered.id, record);
        }
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                spool,
                queue,
                table,
                next_id: AtomicU64::new(next_id),
                draining: AtomicBool::new(false),
                addr,
                workers: options.workers.max(1),
            }),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Runs the daemon: spawns the worker pool, accepts connections until
    /// a drain is requested, then joins the workers (which finish every
    /// accepted job first) and returns.
    ///
    /// # Errors
    ///
    /// Returns a message when a worker thread panicked.
    pub fn run(self) -> Result<(), String> {
        let Server { listener, shared } = self;
        let workers: Vec<thread::JoinHandle<()>> = (0..shared.workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        for connection in listener.incoming() {
            if shared.draining.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = connection else { continue };
            let shared = Arc::clone(&shared);
            thread::spawn(move || handle_connection(&shared, stream));
        }
        let mut failed = 0usize;
        for worker in workers {
            if worker.join().is_err() {
                failed += 1;
            }
        }
        if failed > 0 {
            return Err(format!("{failed} worker thread(s) panicked"));
        }
        Ok(())
    }
}

/// One worker: claim jobs until the queue closes and drains.
fn worker_loop(shared: &Shared) {
    while let Some(id) = shared.queue.pop() {
        // Exactly-once claim: a concurrent DELETE may have canceled the
        // job between our pop and this transition.
        if !shared
            .table
            .transition(id, JobState::Queued, JobState::Running)
        {
            continue;
        }
        execute_job(shared, id);
    }
}

/// Runs one claimed job through the streaming pipeline and publishes its
/// terminal state.
fn execute_job(shared: &Shared, id: u64) {
    let Some(record) = shared.table.get(id) else {
        return;
    };
    let spec = record.spec;
    let report_path = shared.spool.report_path(id);
    // Always deterministic: report bytes must depend only on the spec, so
    // `GET /jobs/<id>/report` is byte-identical to `ldx run --deterministic`
    // with the same config — and resume-after-kill reproduces them exactly.
    let options = StreamOptions {
        deterministic: true,
        max_shards: None,
        csv: None,
    };
    let resume = shared.spool.ckpt_path(id).exists();
    // DSL-backed jobs re-parse the spec's document (validated at
    // submission, persisted in the spool) instead of the registry; the
    // resume path hands the parsed scenario to the checkpoint machinery the
    // same way.
    let scenario: Result<Box<dyn Scenario>, String> = match &spec.scenario_doc {
        Some(doc) => ScenarioDoc::parse(doc)
            .map(|doc| Box::new(doc) as Box<dyn Scenario>)
            .map_err(|e| format!("invalid scenario document in spool: {e}")),
        None => scenarios::find(&spec.scenario)
            .ok_or_else(|| format!("unknown scenario '{}'", spec.scenario)),
    };
    let outcome = scenario.and_then(|scenario| {
        if resume {
            stream::resume_with_scenario(
                &report_path,
                Some(spec.config.threads),
                None,
                scenario.as_ref(),
            )
        } else {
            stream::run(scenario.as_ref(), &spec.config, &report_path, &options)
        }
    });
    match outcome {
        Ok(summary) if summary.completed => {
            shared
                .table
                .transition(id, JobState::Running, JobState::Completed);
        }
        Ok(_) => {
            fail_job(shared, id, "sweep stopped before completion".to_string());
        }
        Err(message) => fail_job(shared, id, message),
    }
}

/// Publishes a failure: message first, then the exactly-once transition.
fn fail_job(shared: &Shared, id: u64, message: String) {
    shared.spool.write_error(id, &message);
    shared.table.set_message(id, message);
    shared
        .table
        .transition(id, JobState::Running, JobState::Failed);
}

/// One connection: read a request, route it, answer, close.
fn handle_connection(shared: &Shared, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let Ok(reader_stream) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(reader_stream);
    let mut writer = stream;
    match http::read_request(&mut reader) {
        Ok(Some(request)) => route(shared, &request, &mut writer),
        Ok(None) => {}
        Err(e) => {
            let body = Json::object()
                .set("error", "malformed-request")
                .set("message", e.to_string());
            let _ = http::write_json(&mut writer, 400, &body);
        }
    }
}

/// Dispatches one request to its handler.
fn route(shared: &Shared, request: &Request, writer: &mut TcpStream) {
    let segments = request.path_segments();
    let respond = |writer: &mut TcpStream, status: u16, body: &Json| {
        let _ = http::write_json(writer, status, body);
    };
    match (request.method.as_str(), segments.as_slice()) {
        ("GET", ["scenarios"]) => respond(writer, 200, &scenarios::listing_json()),
        ("POST", ["jobs"]) => match submit(shared, &request.body) {
            Ok((id, record)) => respond(writer, 201, &status_json(id, &record)),
            Err(e) => respond(writer, e.status(), &e.body()),
        },
        ("GET", ["jobs"]) => {
            let jobs: Vec<Json> = shared
                .table
                .snapshot()
                .iter()
                .map(|(id, record)| status_json(*id, record))
                .collect();
            let body = Json::object()
                .set("schema", "ld-serve/jobs/v1")
                .set("draining", shared.draining.load(Ordering::SeqCst))
                .set("jobs", Json::Arr(jobs));
            respond(writer, 200, &body);
        }
        ("GET", ["jobs", id]) => {
            match parse_id(id).and_then(|id| shared.table.get(id).map(|r| (id, r))) {
                Some((id, record)) => respond(writer, 200, &status_json(id, &record)),
                None => respond(writer, 404, &not_found()),
            }
        }
        ("GET", ["jobs", id, "report"]) => match parse_id(id) {
            Some(id) if shared.table.get(id).is_some() => stream_report(shared, id, writer),
            _ => respond(writer, 404, &not_found()),
        },
        ("DELETE", ["jobs", id]) => match parse_id(id) {
            Some(id) => cancel(shared, id, writer),
            None => respond(writer, 404, &not_found()),
        },
        ("POST", ["shards"]) => run_shards_request(shared, &request.body, writer),
        ("POST", ["shutdown"]) => {
            respond(writer, 200, &Json::object().set("draining", true));
            shared.draining.store(true, Ordering::SeqCst);
            shared.queue.close();
            // Self-wake: the accept loop is parked in `accept`; one
            // loopback connection lets it observe the drain flag.
            let _ = TcpStream::connect(shared.addr);
        }
        _ => respond(writer, 404, &not_found()),
    }
}

/// `POST /jobs`: parse, validate (typed), persist, enqueue.
fn submit(shared: &Shared, body: &[u8]) -> Result<(u64, JobRecord), SubmitError> {
    if shared.draining.load(Ordering::SeqCst) {
        return Err(SubmitError::Draining);
    }
    let text = std::str::from_utf8(body)
        .map_err(|_| SubmitError::Malformed("body is not UTF-8".to_string()))?;
    let json = Json::parse(text).map_err(SubmitError::Malformed)?;
    let spec = JobSpec::from_json(&json)?;
    match &spec.scenario_doc {
        // Inline DSL document: validate it now (typed rejection at the
        // door), and require its declared name to match the spec's so every
        // status/report surface agrees on what ran.
        Some(doc) => {
            let parsed = ld_runner::ScenarioDoc::parse(doc).map_err(SubmitError::Dsl)?;
            if parsed.name() != spec.scenario {
                return Err(SubmitError::Malformed(format!(
                    "scenario_doc is named '{}' but the spec says '{}'",
                    parsed.name(),
                    spec.scenario
                )));
            }
        }
        None => {
            if scenarios::find(&spec.scenario).is_none() {
                return Err(SubmitError::UnknownScenario(spec.scenario));
            }
        }
    }
    spec.config.validate().map_err(SubmitError::Config)?;
    let id = shared.next_id.fetch_add(1, Ordering::SeqCst);
    shared
        .spool
        .write_spec(id, &spec)
        .map_err(|e| SubmitError::Malformed(e.to_string()))?;
    let record = JobRecord::queued(spec);
    shared.table.insert(id, record.clone());
    if !shared.queue.push(record.spec.priority, id) {
        // The queue closed between the drain check and the push.
        shared.table.remove(id);
        shared.spool.remove_job(id);
        return Err(SubmitError::Draining);
    }
    Ok((id, record))
}

/// `POST /shards`: execute shards `first_shard..stop_shard` of a scenario
/// plan and stream one compact-JSON result line per shard, each sent as
/// its own chunk.  The coordinator treats chunk arrival as the worker's
/// heartbeat, cross-checks each line's `digest` by recomputing it over the
/// carried cell fragments, and fences stale lines by `epoch` — this
/// handler just echoes the epoch it was given.  A worker never writes
/// report files for dispatched shards; all merging happens coordinator-side.
fn run_shards_request(shared: &Shared, body: &[u8], writer: &mut TcpStream) {
    let respond = |writer: &mut TcpStream, status: u16, body: &Json| {
        let _ = http::write_json(writer, status, body);
    };
    if shared.draining.load(Ordering::SeqCst) {
        let e = SubmitError::Draining;
        respond(writer, e.status(), &e.body());
        return;
    }
    let request = match shards::parse_request(body) {
        Ok(request) => request,
        Err(e) => {
            respond(writer, e.status(), &e.body());
            return;
        }
    };
    let Some(scenario) = scenarios::find(&request.spec.scenario) else {
        let e = SubmitError::UnknownScenario(request.spec.scenario);
        respond(writer, e.status(), &e.body());
        return;
    };
    if let Err(e) = request.spec.config.validate() {
        let e = SubmitError::Config(e);
        respond(writer, e.status(), &e.body());
        return;
    }
    let config = request.spec.config;
    let plan = match scenario.plan(&config) {
        Ok(plan) => plan,
        Err(message) => {
            let body = Json::object()
                .set("error", "plan-failed")
                .set("message", message);
            respond(writer, 400, &body);
            return;
        }
    };
    let layout = stream::ShardLayout::new(plan.cells.len(), config.shard_size);
    if request.first_shard >= request.stop_shard || request.stop_shard > layout.shard_count() {
        let body = Json::object().set("error", "bad-shard-range").set(
            "message",
            format!(
                "shard range {}..{} outside the plan's 0..{}",
                request.first_shard,
                request.stop_shard,
                layout.shard_count()
            ),
        );
        respond(writer, 400, &body);
        return;
    }
    if http::write_chunked_head(writer, "application/json").is_err() {
        return;
    }
    let mut chunks = ChunkedWriter::new(writer);
    for shard in request.first_shard..request.stop_shard {
        let cells = stream::execute_shard(&plan.cells, &config, layout, shard);
        let line = shards::render_line(&cells, request.epoch);
        if chunks.chunk(line.as_bytes()).is_err() {
            // The coordinator hung up (lease expired, or it finished with
            // results from elsewhere): abandon the rest of the batch.
            return;
        }
    }
    let _ = chunks.finish();
}

/// `DELETE /jobs/<id>`: cancel a queued job, purge a terminal one, refuse
/// a running one.
fn cancel(shared: &Shared, id: u64, writer: &mut TcpStream) {
    let respond = |writer: &mut TcpStream, status: u16, body: &Json| {
        let _ = http::write_json(writer, status, body);
    };
    match shared.table.get(id) {
        None => respond(writer, 404, &not_found()),
        Some(record) if record.state == JobState::Queued => {
            shared.queue.try_remove(id);
            if shared
                .table
                .transition(id, JobState::Queued, JobState::Canceled)
            {
                shared.spool.remove_job(id);
                respond(
                    writer,
                    200,
                    &Json::object().set("id", id).set("state", "canceled"),
                );
            } else {
                // A worker won the claim race; the job is running now.
                respond(
                    writer,
                    409,
                    &Json::object().set("error", "running").set("id", id),
                );
            }
        }
        Some(record) if record.state == JobState::Running => respond(
            writer,
            409,
            &Json::object().set("error", "running").set("id", id),
        ),
        Some(_) => {
            shared.table.remove(id);
            shared.spool.remove_job(id);
            respond(
                writer,
                200,
                &Json::object().set("id", id).set("state", "purged"),
            );
        }
    }
}

/// What the report tail does after one pass over the report file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TailStep {
    /// The job may still write: park until the table changes or the next
    /// poll, then pass again.
    Continue,
    /// The job was terminal before this pass read the file to EOF, so the
    /// bytes sent are the whole report: end the body cleanly.
    Done,
    /// The report cannot be vouched complete (the job stalled, or its
    /// record vanished): drop the connection without the terminating
    /// chunk, so the client sees a truncated body rather than a short
    /// complete one.
    Abort,
}

/// Decides one pass of the report tail.  `state` is the job's state read
/// *before* the pass read the report to EOF, and `progressed` whether that
/// read found new bytes.  `stalled_since` is the stall clock: it runs only
/// while the job is `Running` without new bytes, and is cleared otherwise.
fn tail_step(
    state: Option<JobState>,
    progressed: bool,
    stalled_since: &mut Option<Instant>,
    now: Instant,
) -> TailStep {
    match state {
        None => TailStep::Abort,
        Some(state) if state.is_terminal() => TailStep::Done,
        Some(JobState::Running) if !progressed => {
            let since = *stalled_since.get_or_insert(now);
            if now.duration_since(since) > TAIL_STALL_TIMEOUT {
                TailStep::Abort
            } else {
                TailStep::Continue
            }
        }
        Some(_) => {
            *stalled_since = None;
            TailStep::Continue
        }
    }
}

/// `GET /jobs/<id>/report`: chunk out the report file as it grows, until
/// the job is terminal and fully delivered.
///
/// The report file is append-only while a job runs (truncation happens
/// only inside restart recovery, before the daemon accepts connections),
/// so tailing a byte prefix is always consistent.  Each pass reads the
/// job state *first*, then the file to EOF: workers flush every report
/// byte before the terminal transition, and the table lock orders that
/// transition before our read, so a pass that started terminal has sent
/// the whole report.  Between passes the tail parks on the table version
/// it read, so the terminal transition wakes it at once.
fn stream_report(shared: &Shared, id: u64, writer: &mut TcpStream) {
    if http::write_chunked_head(writer, "application/json").is_err() {
        return;
    }
    let path = shared.spool.report_path(id);
    let mut file: Option<std::fs::File> = None;
    let mut buffer = vec![0u8; 64 * 1024];
    let mut chunks = ChunkedWriter::new(writer);
    let mut stalled_since = None;
    loop {
        let (version, state) = shared.table.version_and_state(id);
        if file.is_none() {
            file = std::fs::File::open(&path).ok();
            if let Some(f) = &mut file {
                // A recovered-then-restarted job may already have bytes;
                // start from the beginning regardless.
                let _ = f.rewind();
            }
        }
        let mut progressed = false;
        if let Some(f) = &mut file {
            loop {
                match f.read(&mut buffer) {
                    Ok(0) => break,
                    Ok(n) => {
                        if chunks.chunk(&buffer[..n]).is_err() {
                            return;
                        }
                        progressed = true;
                    }
                    // A report we cannot read is not one we can vouch for.
                    Err(_) => return,
                }
            }
        }
        match tail_step(state, progressed, &mut stalled_since, Instant::now()) {
            TailStep::Continue => shared.table.wait_changed(version, TAIL_POLL),
            TailStep::Done => break,
            TailStep::Abort => return,
        }
    }
    let _ = chunks.finish();
}

/// Parses a decimal job id path segment.
fn parse_id(segment: &str) -> Option<u64> {
    segment.parse().ok()
}

/// The status document of one job.
fn status_json(id: u64, record: &JobRecord) -> Json {
    Json::object()
        .set("id", id)
        .set("scenario", record.spec.scenario.as_str())
        .set("priority", record.spec.priority)
        .set("state", record.state.as_str())
        .set(
            "message",
            record
                .message
                .as_ref()
                .map_or(Json::Null, |m| Json::Str(m.clone())),
        )
        .set("resume", record.resume)
        .set("report", format!("/jobs/{id}/report"))
}

/// The shared 404 body.
fn not_found() -> Json {
    Json::object().set("error", "not-found")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_json_carries_the_wire_fields() {
        let mut record = JobRecord::queued(JobSpec::new("section2-sweep"));
        record.state = JobState::Failed;
        record.message = Some("boom".to_string());
        let json = status_json(3, &record);
        assert_eq!(json.get("id").and_then(Json::as_u64), Some(3));
        assert_eq!(json.get("state").and_then(Json::as_str), Some("failed"));
        assert_eq!(json.get("message").and_then(Json::as_str), Some("boom"));
        assert_eq!(
            json.get("report").and_then(Json::as_str),
            Some("/jobs/3/report")
        );
    }

    #[test]
    fn tail_waits_while_queued_without_running_the_stall_clock() {
        let now = Instant::now();
        let mut stalled = Some(now);
        let later = now + TAIL_STALL_TIMEOUT * 2;
        assert_eq!(
            tail_step(Some(JobState::Queued), false, &mut stalled, later),
            TailStep::Continue
        );
        assert_eq!(stalled, None, "queue time never counts as a stall");
    }

    #[test]
    fn tail_continues_while_running_and_progressing() {
        let now = Instant::now();
        let mut stalled = Some(now);
        let later = now + TAIL_STALL_TIMEOUT * 2;
        assert_eq!(
            tail_step(Some(JobState::Running), true, &mut stalled, later),
            TailStep::Continue
        );
        assert_eq!(stalled, None, "new bytes reset the stall clock");
        assert_eq!(
            tail_step(Some(JobState::Running), false, &mut stalled, later),
            TailStep::Continue
        );
        assert_eq!(stalled, Some(later), "the first idle pass starts it");
    }

    #[test]
    fn tail_ends_cleanly_on_every_terminal_state() {
        for state in [JobState::Completed, JobState::Failed, JobState::Canceled] {
            for progressed in [false, true] {
                let mut stalled = None;
                assert_eq!(
                    tail_step(Some(state), progressed, &mut stalled, Instant::now()),
                    TailStep::Done,
                    "{state:?} progressed={progressed}"
                );
            }
        }
    }

    #[test]
    fn tail_aborts_when_the_record_is_purged() {
        let mut stalled = None;
        assert_eq!(
            tail_step(None, false, &mut stalled, Instant::now()),
            TailStep::Abort
        );
    }

    #[test]
    fn tail_aborts_a_running_job_idle_past_the_stall_timeout() {
        let start = Instant::now();
        let mut stalled = None;
        let running = Some(JobState::Running);
        assert_eq!(
            tail_step(running, false, &mut stalled, start),
            TailStep::Continue
        );
        assert_eq!(
            tail_step(running, false, &mut stalled, start + TAIL_STALL_TIMEOUT),
            TailStep::Continue,
            "exactly at the timeout is not yet a stall"
        );
        assert_eq!(
            tail_step(
                running,
                false,
                &mut stalled,
                start + TAIL_STALL_TIMEOUT + Duration::from_millis(1)
            ),
            TailStep::Abort
        );
    }

    #[test]
    fn parse_id_accepts_only_decimals() {
        assert_eq!(parse_id("42"), Some(42));
        assert_eq!(parse_id("job-000042"), None);
        assert_eq!(parse_id(""), None);
    }
}
