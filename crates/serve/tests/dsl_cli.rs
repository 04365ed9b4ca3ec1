//! End-to-end conformance for the scenario-DSL surface of `ldx` and the
//! daemon: `ldx run --file` must reproduce the builtin's report bytes,
//! defective documents must exit with their typed codes, and `POST /jobs`
//! must accept (and validate) embedded scenario documents.

use ld_runner::json::Json;
use ld_runner::stream::{self, StreamOptions};
use ld_runner::{Scenario, ScenarioDoc, SweepConfig};
use ld_serve::{client, JobSpec, ServeOptions, Server};
use std::path::PathBuf;
use std::process::Command;

/// The committed re-expression of `section2-sweep`, resolved relative to
/// this crate so the test runs from any working directory.
fn committed_scenario(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../scenarios")
        .join(name)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ld-dsl-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn ldx() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ldx"))
}

const RUN_FLAGS: &[&str] = &[
    "--max-n",
    "24",
    "--threads",
    "2",
    "--deterministic",
    "--no-bench-json",
];

#[test]
fn run_file_reproduces_the_builtin_report_bytes() {
    let dir = temp_dir("run-file");
    let builtin_out = dir.join("builtin.json");
    let doc_out = dir.join("doc.json");

    let status = ldx()
        .arg("run")
        .arg("section2-sweep")
        .args(RUN_FLAGS)
        .args(["--out", builtin_out.to_str().unwrap()])
        .status()
        .expect("spawn ldx");
    assert!(status.success(), "builtin run failed");

    let status = ldx()
        .arg("run")
        .args([
            "--file",
            committed_scenario("section2-sweep.json").to_str().unwrap(),
        ])
        .args(RUN_FLAGS)
        .args(["--out", doc_out.to_str().unwrap()])
        .status()
        .expect("spawn ldx");
    assert!(status.success(), "--file run failed");

    let builtin_bytes = std::fs::read(&builtin_out).unwrap();
    let doc_bytes = std::fs::read(&doc_out).unwrap();
    assert_eq!(
        doc_bytes, builtin_bytes,
        "ldx run --file produced different report bytes than the builtin"
    );

    // And `ldx diff` agrees the reports are identical.
    let diff = ldx()
        .arg("diff")
        .arg(&builtin_out)
        .arg(&doc_out)
        .output()
        .expect("spawn ldx diff");
    assert!(
        diff.status.success(),
        "ldx diff disagrees: {}",
        String::from_utf8_lossy(&diff.stdout)
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn run_missing_file_exits_64_and_names_the_path() {
    let path = "/nonexistent/definitely-not-a-scenario.json";
    let output = ldx()
        .args(["run", "--file", path])
        .output()
        .expect("spawn ldx");
    assert_eq!(
        output.status.code(),
        Some(64),
        "unreadable file must exit 64"
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains(path), "stderr must name the path: {stderr}");
    assert!(
        stderr.contains("unreadable-scenario-file"),
        "stderr must carry the typed token: {stderr}"
    );
}

#[test]
fn run_defective_documents_exit_with_their_typed_codes() {
    let dir = temp_dir("defective");
    let cases: &[(&str, &str, i32, &str)] = &[
        (
            "unknown-field.json",
            r#"{"schema": "ld-runner/scenario/v1", "name": "x", "surprise": 1,
                "workloads": [{"kind": "paths"}]}"#,
            68,
            "unknown-field",
        ),
        (
            "bad-schema.json",
            r#"{"schema": "ld-runner/scenario/v0", "name": "x",
                "workloads": [{"kind": "paths"}]}"#,
            68,
            "scenario-schema",
        ),
        ("not-json.json", "{ this is not json", 68, "scenario-parse"),
        (
            "radius-too-large.json",
            r#"{"schema": "ld-runner/scenario/v1", "name": "x",
                "workloads": [{"kind": "paths", "radius": 9}]}"#,
            66,
            "radius-too-large",
        ),
    ];
    for (file, text, code, token) in cases {
        let path = dir.join(file);
        std::fs::write(&path, text).unwrap();
        let output = ldx()
            .args(["run", "--file", path.to_str().unwrap()])
            .output()
            .expect("spawn ldx");
        assert_eq!(
            output.status.code(),
            Some(*code),
            "{file}: wrong exit code, stderr: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains(token),
            "{file}: stderr must carry [{token}]: {stderr}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn run_requires_a_scenario_name_xor_a_file() {
    let neither = ldx().arg("run").output().expect("spawn ldx");
    assert_eq!(neither.status.code(), Some(64));
    let both = ldx()
        .args(["run", "section2-sweep", "--file", "x.json"])
        .output()
        .expect("spawn ldx");
    assert_eq!(both.status.code(), Some(64));
}

/// The entries of the checkout root: each name, and for a file its length
/// and modification time.
fn root_listing() -> Vec<(String, Option<(u64, std::time::SystemTime)>)> {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut listing: Vec<_> = std::fs::read_dir(root)
        .unwrap()
        .map(|entry| {
            let entry = entry.unwrap();
            let meta = entry.metadata().unwrap();
            let file = meta
                .is_file()
                .then(|| (meta.len(), meta.modified().unwrap()));
            (entry.file_name().to_string_lossy().into_owned(), file)
        })
        .collect();
    listing.sort();
    listing
}

/// `ldx run` writes its report and nothing else: the perf snapshot goes
/// only to an explicit `--bench-json` path, and no file in the root of the
/// checkout the binary was built from is created, removed or rewritten.
#[test]
fn default_run_leaves_the_checkout_root_unchanged() {
    let before = root_listing();
    let dir = temp_dir("bench-json");
    let status = ldx()
        .args(["run", "section2-sweep", "--max-n", "24", "--threads", "1"])
        .args(["--out", "report.json"])
        .current_dir(&dir)
        .status()
        .expect("spawn ldx");
    assert!(status.success(), "default run failed");
    assert_eq!(root_listing(), before, "ldx run changed the checkout root");
    let mut written: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    written.sort();
    assert_eq!(written, ["report.json"]);

    // The opt-in flag writes the snapshot where it is told to.
    let bench = dir.join("bench.json");
    let status = ldx()
        .args(["run", "section2-sweep", "--max-n", "24", "--threads", "1"])
        .args(["--out", "report.json", "--bench-json", "bench.json"])
        .current_dir(&dir)
        .status()
        .expect("spawn ldx");
    assert!(status.success(), "--bench-json run failed");
    let snapshot = Json::parse(&std::fs::read_to_string(&bench).unwrap()).unwrap();
    assert_eq!(
        snapshot.get("scenario").and_then(Json::as_str),
        Some("section2-sweep")
    );
    assert_eq!(root_listing(), before, "ldx run changed the checkout root");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn help_prints_the_usage_to_stdout_and_exits_0() {
    for flag in ["--help", "-h", "help"] {
        let output = ldx().arg(flag).output().expect("spawn ldx");
        assert_eq!(output.status.code(), Some(0), "ldx {flag}");
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(stdout.starts_with("usage:\n"), "ldx {flag}: {stdout}");
        assert!(stdout.contains("  section3-sweep "), "ldx {flag}: {stdout}");
        assert!(output.stderr.is_empty(), "ldx {flag} wrote to stderr");
    }
}

#[test]
fn unknown_or_missing_subcommands_print_the_usage_to_stderr_and_exit_64() {
    for args in [&["frobnicate"][..], &["--halp"], &[]] {
        let output = ldx().args(args).output().expect("spawn ldx");
        assert_eq!(output.status.code(), Some(64), "ldx {args:?}");
        assert!(output.stdout.is_empty(), "ldx {args:?} wrote to stdout");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.starts_with("usage:\n"), "ldx {args:?}: {stderr}");
    }
}

#[test]
fn list_prints_only_the_scenario_lines() {
    let output = ldx().arg("list").output().expect("spawn ldx");
    assert_eq!(output.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&output.stdout);
    let names: Vec<&str> = stdout
        .lines()
        .map(|line| line.split_whitespace().next().unwrap_or(""))
        .collect();
    let expected: Vec<String> = ld_runner::scenarios::all()
        .iter()
        .map(|s| s.name().to_string())
        .collect();
    assert_eq!(names, expected, "ldx list: {stdout}");
    assert!(!stdout.contains("usage:"), "ldx list: {stdout}");

    let json = ldx().args(["list", "--json"]).output().expect("spawn ldx");
    assert_eq!(json.status.code(), Some(0));
    assert_eq!(
        String::from_utf8_lossy(&json.stdout),
        ld_runner::scenarios::listing_json().render()
    );
}

/// `POST /jobs` with an embedded scenario document: accepted, executed,
/// and the delivered report byte-matches a local run of the same
/// document; defective documents are rejected with the DSL token and
/// exit-code mapping.
#[test]
fn server_accepts_and_validates_scenario_documents() {
    let dir = temp_dir("serve-doc");
    let server = Server::bind(&ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        spool: dir.join("spool"),
        workers: 2,
    })
    .expect("bind");
    let addr = server.local_addr().to_string();
    let daemon = std::thread::spawn(move || server.run());

    let doc_text =
        std::fs::read_to_string(committed_scenario("new-families.json")).expect("read scenario");
    let doc = ScenarioDoc::from_text(&doc_text).expect("committed scenario parses");

    // The local reference: stream the same document with the same config.
    let config = SweepConfig {
        max_n: 24,
        threads: 2,
        shard_size: 8,
        ..SweepConfig::default()
    };
    let reference_path = dir.join("reference.json");
    let opts = StreamOptions {
        deterministic: true,
        max_shards: None,
        csv: None,
    };
    let summary = stream::run(&doc, &config, &reference_path, &opts).expect("reference run");
    assert!(summary.completed);
    let reference = std::fs::read(&reference_path).expect("read reference");

    // Submit the document.
    let mut spec = JobSpec::new(doc.name());
    spec.scenario_doc = Some(doc.to_json());
    spec.config = config.clone();
    let submitted = client::request(
        &addr,
        "POST",
        "/jobs",
        Some(&spec.to_json().render_compact()),
    )
    .expect("POST job");
    assert_eq!(submitted.status, 201, "body: {}", submitted.text());
    let id = Json::parse(&submitted.text())
        .expect("json")
        .get("id")
        .and_then(Json::as_u64)
        .expect("job id");
    let report =
        client::request(&addr, "GET", &format!("/jobs/{id}/report"), None).expect("GET report");
    assert_eq!(report.status, 200);
    assert_eq!(
        report.body, reference,
        "served DSL report diverges from the local run"
    );

    // A document whose name disagrees with the spec is refused.
    let mut mismatched = JobSpec::new("some-other-name");
    mismatched.scenario_doc = Some(doc.to_json());
    let refused = client::request(
        &addr,
        "POST",
        "/jobs",
        Some(&mismatched.to_json().render_compact()),
    )
    .expect("POST mismatched");
    assert_eq!(refused.status, 400);

    // A defective document is refused with the DSL token and exit code.
    let mut defective = JobSpec::new("x");
    defective.scenario_doc = Some(Json::object().set("schema", "wrong"));
    let rejected = client::request(
        &addr,
        "POST",
        "/jobs",
        Some(&defective.to_json().render_compact()),
    )
    .expect("POST defective");
    assert_eq!(rejected.status, 400);
    let body = Json::parse(&rejected.text()).expect("json");
    assert_eq!(
        body.get("error").and_then(Json::as_str),
        Some("scenario-schema")
    );
    assert_eq!(body.get("exit_code").and_then(Json::as_u64), Some(68));

    let down = client::request(&addr, "POST", "/shutdown", None).expect("POST shutdown");
    assert_eq!(down.status, 200);
    daemon.join().expect("daemon thread").expect("daemon exit");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `ldx submit --file` against a spawned daemon: the full CLI path — file
/// → embedded document → spool → worker → report — delivers the same
/// bytes as a local `ldx run --file`.
#[test]
fn submit_file_roundtrips_through_the_daemon() {
    let dir = temp_dir("submit-file");
    let server = Server::bind(&ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        spool: dir.join("spool"),
        workers: 2,
    })
    .expect("bind");
    let addr = server.local_addr().to_string();
    let daemon = std::thread::spawn(move || server.run());

    let scenario = committed_scenario("section2-sweep.json");
    let local_out = dir.join("local.json");
    let status = ldx()
        .arg("run")
        .args(["--file", scenario.to_str().unwrap()])
        .args(RUN_FLAGS)
        .args(["--out", local_out.to_str().unwrap()])
        .status()
        .expect("spawn ldx run");
    assert!(status.success());

    // `submit` takes config flags only (`--deterministic`/`--no-bench-json`
    // are run-local; the daemon always streams deterministically).
    let fetched_out = dir.join("fetched.json");
    let output = ldx()
        .arg("submit")
        .args(["--file", scenario.to_str().unwrap()])
        .args(["--max-n", "24", "--threads", "2"])
        .args([
            "--addr",
            &addr,
            "--wait",
            "--out",
            fetched_out.to_str().unwrap(),
        ])
        .output()
        .expect("spawn ldx submit");
    assert!(
        output.status.success(),
        "submit failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert_eq!(
        std::fs::read(&fetched_out).unwrap(),
        std::fs::read(&local_out).unwrap(),
        "submitted DSL report diverges from the local run"
    );

    let down = client::request(&addr, "POST", "/shutdown", None).expect("POST shutdown");
    assert_eq!(down.status, 200);
    daemon.join().expect("daemon thread").expect("daemon exit");
    let _ = std::fs::remove_dir_all(&dir);
}
