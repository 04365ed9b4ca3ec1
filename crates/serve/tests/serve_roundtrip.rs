//! End-to-end daemon tests.
//!
//! 1. In-process: bind a [`Server`] on an ephemeral port, exercise every
//!    endpoint, and byte-compare a streamed report against `stream::run`
//!    with the identical config — the service must add a delivery channel,
//!    not a new report dialect.
//! 2. Process-level: spawn the real `ldx serve`, SIGTERM it mid-job (the
//!    daemon installs no signal handler, so this is a hard kill), restart
//!    it over the same spool, and demand the recovered job finish
//!    byte-identically through checkpoint resume.

use ld_runner::json::Json;
use ld_runner::stream::{self, StreamOptions};
use ld_runner::{scenarios, SweepConfig};
use ld_serve::{client, JobSpec, ServeOptions, Server};
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ld-serve-rt-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Renders the deterministic reference report for `scenario`/`config` the
/// way `ldx run --deterministic` would.
fn reference_bytes(scenario: &str, config: &SweepConfig, out: &std::path::Path) -> Vec<u8> {
    let scenario = scenarios::find(scenario).expect("known scenario");
    let opts = StreamOptions {
        deterministic: true,
        max_shards: None,
        csv: None,
    };
    let summary = stream::run(scenario.as_ref(), config, out, &opts).expect("reference run");
    assert!(summary.completed, "reference run must complete");
    std::fs::read(out).expect("read reference report")
}

/// Submits `spec`, live-tails its report until the job is terminal, checks
/// that it completed, and returns the job id and the delivered bytes.
fn run_job(addr: &str, spec: &JobSpec) -> (u64, Vec<u8>) {
    let submitted = client::request(
        addr,
        "POST",
        "/jobs",
        Some(&spec.to_json().render_compact()),
    )
    .expect("POST job");
    assert_eq!(submitted.status, 201, "body: {}", submitted.text());
    let submitted = Json::parse(&submitted.text()).expect("json");
    let id = submitted.get("id").and_then(Json::as_u64).expect("job id");

    // Live-tail the report while the job runs; the stream ends only after
    // the job is terminal and fully delivered.
    let report =
        client::request(addr, "GET", &format!("/jobs/{id}/report"), None).expect("GET report");
    assert_eq!(report.status, 200);
    assert_eq!(report.header("transfer-encoding"), Some("chunked"));

    let status = client::request(addr, "GET", &format!("/jobs/{id}"), None).expect("GET status");
    let status = Json::parse(&status.text()).expect("json");
    assert_eq!(
        status.get("state").and_then(Json::as_str),
        Some("completed"),
        "message: {:?}",
        status.get("message")
    );
    (id, report.body)
}

#[test]
fn endpoints_roundtrip_and_report_bytes_match_ldx_run() {
    let dir = temp_dir("inproc");
    let server = Server::bind(&ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        spool: dir.join("spool"),
        workers: 2,
    })
    .expect("bind");
    let addr = server.local_addr().to_string();
    let daemon = std::thread::spawn(move || server.run());

    // The scenario listing is the same document `ldx list --json` prints.
    let listing = client::request(&addr, "GET", "/scenarios", None).expect("GET /scenarios");
    assert_eq!(listing.status, 200);
    let listing = Json::parse(&listing.text()).expect("listing json");
    assert_eq!(
        listing.get("schema").and_then(Json::as_str),
        Some("ld-runner/scenarios/v1")
    );

    // Rejections: malformed JSON, unknown scenario, invalid config — the
    // latter carrying the `ldx run` exit-code mapping.
    let bad = client::request(&addr, "POST", "/jobs", Some("{")).expect("POST malformed");
    assert_eq!(bad.status, 400);
    let unknown = client::request(
        &addr,
        "POST",
        "/jobs",
        Some("{\"scenario\": \"no-such-sweep\"}"),
    )
    .expect("POST unknown");
    assert_eq!(unknown.status, 400);
    assert_eq!(
        Json::parse(&unknown.text())
            .expect("json")
            .get("error")
            .and_then(Json::as_str),
        Some("unknown-scenario")
    );
    let invalid = client::request(
        &addr,
        "POST",
        "/jobs",
        Some("{\"scenario\": \"section2-sweep\", \"config\": {\"max_n\": 0}}"),
    )
    .expect("POST invalid");
    assert_eq!(invalid.status, 400);
    let invalid = Json::parse(&invalid.text()).expect("json");
    assert_eq!(
        invalid.get("error").and_then(Json::as_str),
        Some("zero-max-n")
    );
    assert_eq!(invalid.get("exit_code").and_then(Json::as_u64), Some(65));

    let missing = client::request(&addr, "GET", "/jobs/999", None).expect("GET missing");
    assert_eq!(missing.status, 404);

    // A real submission.
    let mut spec = JobSpec::new("section2-sweep");
    spec.config.max_n = 24;
    spec.config.shard_size = 8;
    spec.config.threads = 2;
    let (id, report) = run_job(&addr, &spec);
    let reference = reference_bytes("section2-sweep", &spec.config, &dir.join("reference.json"));
    assert_eq!(
        report, reference,
        "streamed report must byte-match `ldx run --deterministic`"
    );

    // More jobs through the same daemon: one of another size, then the
    // first spec again.  Each job plans its own caches, so every report
    // still byte-matches its `ldx run` reference whatever ran before it.
    let mut other = spec.clone();
    other.config.max_n = 40;
    let (_, other_report) = run_job(&addr, &other);
    let other_reference = reference_bytes(
        "section2-sweep",
        &other.config,
        &dir.join("reference-40.json"),
    );
    assert_ne!(
        other_reference, reference,
        "the two sizes plan different sweeps"
    );
    assert_eq!(other_report, other_reference, "second job, max_n 40");
    let (_, again) = run_job(&addr, &spec);
    assert_eq!(again, reference, "the first spec, submitted again");

    // The jobs index sees it too.
    let index = client::request(&addr, "GET", "/jobs", None).expect("GET /jobs");
    let index = Json::parse(&index.text()).expect("json");
    let jobs = index
        .get("jobs")
        .and_then(Json::as_arr)
        .expect("jobs array");
    assert!(jobs
        .iter()
        .any(|j| j.get("id").and_then(Json::as_u64) == Some(id)));

    // Purge the terminal job, then drain.
    let purged =
        client::request(&addr, "DELETE", &format!("/jobs/{id}"), None).expect("DELETE job");
    assert_eq!(purged.status, 200);
    let gone = client::request(&addr, "GET", &format!("/jobs/{id}"), None).expect("GET purged");
    assert_eq!(gone.status, 404);

    let drain = client::request(&addr, "POST", "/shutdown", None).expect("POST shutdown");
    assert_eq!(drain.status, 200);
    daemon
        .join()
        .expect("daemon thread")
        .expect("daemon drained cleanly");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Spawns `ldx serve` on an ephemeral port and parses the announced
/// address.  The returned reader keeps the stdout pipe open — closing it
/// would turn the daemon's own prints into broken-pipe panics.
fn spawn_daemon(spool: &std::path::Path) -> (Child, String, BufReader<std::process::ChildStdout>) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_ldx"))
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--spool",
            &spool.to_string_lossy(),
            "--workers",
            "1",
        ])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn ldx serve");
    let stdout = child.stdout.take().expect("daemon stdout");
    let mut reader = BufReader::new(stdout);
    let mut line = String::new();
    reader.read_line(&mut line).expect("read announce line");
    let addr = line
        .trim()
        .rsplit(' ')
        .next()
        .expect("announce line has an address")
        .to_string();
    assert!(
        line.starts_with("ld-serve listening on "),
        "unexpected announce line '{line}'"
    );
    (child, addr, reader)
}

fn sigterm(child: &mut Child) {
    if child.try_wait().expect("poll daemon").is_none() {
        let termed = Command::new("kill")
            .args(["-TERM", &child.id().to_string()])
            .status()
            .expect("send SIGTERM");
        assert!(termed.success(), "kill -TERM failed");
        let _ = child.wait();
    }
}

#[test]
fn sigterm_mid_job_then_restart_resumes_byte_identically() {
    // The same sweep the CLI kill-resume test interrupts: big enough that
    // a kill reliably lands mid-run with 4-cell shards.
    let config = SweepConfig {
        max_n: 1024,
        threads: 2,
        shard_size: 4,
        ..SweepConfig::default()
    };
    let scenario = "section2-sweep-xl";

    let reference_dir = temp_dir("ref");
    let reference = reference_bytes(scenario, &config, &reference_dir.join("reference.json"));

    let mut spec = JobSpec::new(scenario);
    spec.config = config;
    let body = spec.to_json().render_compact();

    let mut interrupted = None;
    for attempt in 0..5 {
        let spool = temp_dir(&format!("kill-{attempt}"));
        let (mut child, addr, _stdout) = spawn_daemon(&spool);
        let submitted = client::request(&addr, "POST", "/jobs", Some(&body)).expect("POST job");
        assert_eq!(submitted.status, 201, "body: {}", submitted.text());
        let id = Json::parse(&submitted.text())
            .expect("json")
            .get("id")
            .and_then(Json::as_u64)
            .expect("job id");
        let ckpt = spool.join(format!("job-{id:06}.json.ckpt"));

        // Wait for real checkpointed progress, then kill hard.
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let lines = std::fs::read_to_string(&ckpt).map_or(0, |text| text.lines().count());
            if lines >= 4 {
                break;
            }
            if child.try_wait().expect("poll daemon").is_some() || Instant::now() > deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        sigterm(&mut child);
        if ckpt.exists() {
            interrupted = Some((spool, id));
            break;
        }
        // The job finished before the signal landed; fresh spool, retry.
        let _ = std::fs::remove_dir_all(&spool);
    }
    let (spool, id) = interrupted.expect("could not interrupt a job mid-run");

    // Restart over the same spool: recovery re-queues the checkpointed job
    // on the resume path and the worker finishes it.
    let (mut child, addr, _stdout) = spawn_daemon(&spool);
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let status =
            client::request(&addr, "GET", &format!("/jobs/{id}"), None).expect("GET status");
        let status = Json::parse(&status.text()).expect("json");
        let state = status
            .get("state")
            .and_then(Json::as_str)
            .map(str::to_string);
        match state.as_deref() {
            Some("completed") => {
                assert_eq!(
                    status.get("resume").and_then(Json::as_bool),
                    Some(true),
                    "the job must have come back through recovery"
                );
                break;
            }
            Some("failed") | Some("canceled") => {
                panic!(
                    "recovered job ended as {state:?}: {:?}",
                    status.get("message")
                );
            }
            _ => {
                assert!(
                    Instant::now() < deadline,
                    "recovered job did not complete in time (state {state:?})"
                );
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }
    let report =
        client::request(&addr, "GET", &format!("/jobs/{id}/report"), None).expect("GET report");
    assert_eq!(report.status, 200);
    assert_eq!(
        report.body, reference,
        "post-kill report must byte-match the uninterrupted reference"
    );
    assert!(
        !spool.join(format!("job-{id:06}.json.ckpt")).exists(),
        "checkpoint must be removed on completion"
    );

    let drain = client::request(&addr, "POST", "/shutdown", None).expect("POST shutdown");
    assert_eq!(drain.status, 200);
    let status = child.wait().expect("daemon exit");
    assert!(status.success(), "drained daemon must exit cleanly");

    let _ = std::fs::remove_dir_all(&spool);
    let _ = std::fs::remove_dir_all(&reference_dir);
}
