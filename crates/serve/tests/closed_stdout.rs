//! `ldx` with a standard output nobody reads: a reader that closed the
//! pipe (`ldx list | true`, `ldx run … | head -1`) must end the output
//! quietly, not panic with "failed printing to stdout" and exit 101.

#![cfg(unix)]

use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, Stdio};

/// Runs `ldx args…` with its standard output a pipe whose read end is
/// already closed, and returns its exit code and standard error.
///
/// `ldx` is started through `sh`, which waits for one line on its standard
/// input before it `exec`s `ldx`; the read end is dropped before that line
/// is sent, so `ldx`'s first write always meets a closed pipe.
fn run_with_closed_stdout(args: &[&str]) -> (Option<i32>, String) {
    let mut child = Command::new("sh")
        .arg("-c")
        .arg(r#"read _ && exec "$@""#)
        .arg("sh")
        .arg(env!("CARGO_BIN_EXE_ldx"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn sh");
    drop(child.stdout.take());
    let mut stdin = child.stdin.take().expect("piped stdin");
    stdin.write_all(b"go\n").expect("release the child");
    drop(stdin);
    let output = child.wait_with_output().expect("wait for ldx");
    (
        output.status.code(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

#[test]
fn list_with_a_closed_stdout_exits_quietly() {
    for args in [&["list"][..], &["list", "--json"][..]] {
        let (code, stderr) = run_with_closed_stdout(args);
        assert!(!stderr.contains("panicked"), "ldx {args:?}: {stderr}");
        assert_ne!(code, Some(101), "ldx {args:?} panicked: {stderr}");
        assert_eq!(code, Some(0), "ldx {args:?}: {stderr}");
        assert!(stderr.is_empty(), "ldx {args:?}: {stderr}");
    }
}

#[test]
fn run_with_a_closed_stdout_still_writes_its_report() {
    let dir = std::env::temp_dir().join(format!("ld-closed-stdout-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let out: PathBuf = dir.join("pyramid.json");
    let (code, stderr) = run_with_closed_stdout(&[
        "run",
        "pyramid-sweep",
        "--deterministic",
        "--out",
        out.to_str().unwrap(),
    ]);
    let report = std::fs::read_to_string(&out);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(code, Some(0), "{stderr}");
    assert!(report.expect("the report is written").contains("\"cells\""));
}
