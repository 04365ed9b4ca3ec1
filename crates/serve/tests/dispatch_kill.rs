//! Distributed dispatch under worker loss: spawn four real single-worker
//! `ldx serve` daemons, dispatch one sweep across them, SIGKILL one daemon
//! once the dispatch has merged a few shards, and byte-compare the merged
//! report against a single-process deterministic run.
//!
//! This is the integration proof of the lease/epoch-fencing design: the
//! killed worker's leased shards must be reassigned (connection loss or
//! lease expiry — whichever surfaces first) and the merged report must be
//! indistinguishable from one produced with no failure at all.  The kill
//! is timed by the dispatch's own checkpoint, not by the clock, so it
//! lands mid-sweep however fast the cells run, and the test asserts that
//! fault handling actually ran.
//!
//! A dispatch that loses *every* worker fails, but its report prefix and
//! checkpoint are the local driver's own: the second test kills the only
//! worker, expects the dispatch to fail, then finishes the report with
//! `stream::resume` and byte-compares it with a single-process run.

use ld_runner::stream::{self, Checkpoint, StreamOptions};
use ld_runner::{scenarios, SweepConfig};
use ld_serve::{DispatchOptions, RetryPolicy};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Shards the dispatch must have merged before the victim is killed.
const KILL_AFTER_SHARDS: usize = 2;

/// Shards that must still be unmerged at the kill: more than the four
/// workers can hold under lease at once (two shards each), so the
/// survivors cannot finish the sweep without the victim's share.
const SHARDS_LEFT_AT_KILL: usize = 16;

struct Worker {
    child: Child,
    // Held open so the daemon's status prints never hit a closed pipe.
    _stdout: BufReader<ChildStdout>,
    addr: String,
    spool: PathBuf,
}

fn spawn_worker(tag: &str, index: usize) -> Worker {
    let spool = std::env::temp_dir().join(format!("ldx-dk-{tag}-{}-w{index}", std::process::id()));
    let mut child = Command::new(env!("CARGO_BIN_EXE_ldx"))
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "1",
            "--spool",
        ])
        .arg(&spool)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn ldx serve");
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout pipe"));
    let mut line = String::new();
    stdout.read_line(&mut line).expect("read announce line");
    let addr = line
        .trim()
        .strip_prefix("ld-serve listening on ")
        .unwrap_or_else(|| panic!("unexpected announce line: {line:?}"))
        .to_string();
    Worker {
        child,
        _stdout: stdout,
        addr,
        spool,
    }
}

fn stop_workers(workers: Vec<Worker>) {
    for mut worker in workers {
        let _ = worker.child.kill();
        let _ = worker.child.wait();
        let _ = std::fs::remove_dir_all(&worker.spool);
    }
}

/// `(merged shards, total shards)` from a dispatch checkpoint: the header
/// line carries the shard count, and each further line is one merged
/// shard.
fn checkpoint_progress(ckpt: &Path) -> Option<(usize, usize)> {
    let text = std::fs::read_to_string(ckpt).ok()?;
    let checkpoint = Checkpoint::parse(&text).ok()?;
    Some((checkpoint.shards.len(), checkpoint.shard_count))
}

fn config() -> SweepConfig {
    SweepConfig {
        max_n: 2048,
        threads: 2,
        shard_size: 4,
        ..SweepConfig::default()
    }
}

#[test]
fn dispatch_with_a_sigkilled_worker_byte_matches_single_process() {
    let dir = std::env::temp_dir();
    let reference_path = dir.join(format!("ldx-dk-ref-{}.json", std::process::id()));
    let dispatched_path = dir.join(format!("ldx-dk-dist-{}.json", std::process::id()));

    let scenario = scenarios::find("section2-sweep-xl").expect("scenario");
    let opts = StreamOptions {
        deterministic: true,
        max_shards: None,
        csv: None,
    };
    stream::run(scenario.as_ref(), &config(), &reference_path, &opts).expect("reference run");
    let reference = std::fs::read(&reference_path).expect("reference bytes");

    let mut workers: Vec<Worker> = (0..4).map(|i| spawn_worker("kill", i)).collect();
    let mut options = DispatchOptions::new("section2-sweep-xl", &dispatched_path);
    options.config = config();
    options.workers = workers.iter().map(|w| w.addr.clone()).collect();
    // A short lease keeps the reassignment path fast even if the dead
    // worker's socket lingers instead of erroring out.
    options.lease = Duration::from_secs(2);

    // SIGKILL the first daemon once a few shards are merged: abrupt
    // process death, no drain, no goodbye — its in-flight batch and its
    // share of the remaining shards must go to the survivors.
    let mut victim = workers.remove(0);
    let ckpt = Checkpoint::path_for(&dispatched_path);
    let finished = Arc::new(AtomicBool::new(false));
    let killer = {
        let finished = Arc::clone(&finished);
        std::thread::spawn(move || {
            let mut killed_at = None;
            while !finished.load(Ordering::Acquire) {
                if let Some((merged, total)) = checkpoint_progress(&ckpt) {
                    if merged >= KILL_AFTER_SHARDS {
                        victim.child.kill().expect("SIGKILL the victim daemon");
                        killed_at = Some((merged, total));
                        break;
                    }
                }
                std::thread::sleep(Duration::from_micros(500));
            }
            (victim, killed_at)
        })
    };

    let result = ld_serve::dispatch(&options);
    finished.store(true, Ordering::Release);
    let (victim, killed_at) = killer.join().expect("killer thread");
    workers.push(victim);
    stop_workers(workers);

    let (summary, stats) = result.expect("dispatch must survive a killed worker");
    assert!(summary.completed, "dispatch summary must be complete");
    let (merged, total) = killed_at.expect("the dispatch finished before the kill");
    assert!(
        merged + SHARDS_LEFT_AT_KILL <= total,
        "the kill landed after {merged} of {total} shards: too late to prove anything"
    );
    assert!(
        stats.worker_failures + stats.reassigned >= 1,
        "the killed worker went unnoticed (stats: {stats:?})"
    );
    let dispatched = std::fs::read(&dispatched_path).expect("dispatched bytes");
    assert_eq!(
        dispatched, reference,
        "merged report must byte-match the single-process run \
         (stats: {stats:?})"
    );

    let _ = std::fs::remove_file(&reference_path);
    let _ = std::fs::remove_file(&dispatched_path);
}

#[test]
fn dispatch_that_loses_every_worker_resumes_to_the_single_process_bytes() {
    let dir = std::env::temp_dir();
    let reference_path = dir.join(format!("ldx-dk-lost-ref-{}.json", std::process::id()));
    let dispatched_path = dir.join(format!("ldx-dk-lost-{}.json", std::process::id()));

    let scenario = scenarios::find("section2-sweep-xl").expect("scenario");
    let single = SweepConfig {
        threads: 1,
        ..config()
    };
    let opts = StreamOptions {
        deterministic: true,
        max_shards: None,
        csv: None,
    };
    stream::run(scenario.as_ref(), &single, &reference_path, &opts).expect("reference run");
    let reference = std::fs::read(&reference_path).expect("reference bytes");

    let mut worker = spawn_worker("lost", 0);
    let mut options = DispatchOptions::new("section2-sweep-xl", &dispatched_path);
    options.config = config();
    options.workers = vec![worker.addr.clone()];
    options.lease = Duration::from_secs(2);
    // Give up on the dead worker quickly: the test is about what the
    // failed dispatch leaves behind, not about how long it retries.
    options.retry = RetryPolicy {
        attempts: 2,
        base: Duration::from_millis(10),
        cap: Duration::from_millis(50),
    };

    let ckpt = Checkpoint::path_for(&dispatched_path);
    let finished = Arc::new(AtomicBool::new(false));
    let killer = {
        let finished = Arc::clone(&finished);
        let ckpt = ckpt.clone();
        std::thread::spawn(move || {
            let mut killed_at = None;
            while !finished.load(Ordering::Acquire) {
                if let Some((merged, total)) = checkpoint_progress(&ckpt) {
                    if merged >= KILL_AFTER_SHARDS {
                        worker.child.kill().expect("SIGKILL the only worker");
                        killed_at = Some((merged, total));
                        break;
                    }
                }
                std::thread::sleep(Duration::from_micros(500));
            }
            (worker, killed_at)
        })
    };

    let result = ld_serve::dispatch(&options);
    finished.store(true, Ordering::Release);
    let (worker, killed_at) = killer.join().expect("killer thread");
    stop_workers(vec![worker]);

    let (merged, total) = killed_at.expect("the dispatch finished before the kill");
    let err = result.expect_err("a dispatch with no worker left must fail");
    let (left_merged, left_total) = checkpoint_progress(&ckpt).expect("checkpoint left behind");
    assert_eq!(left_total, total);
    assert!(
        left_merged >= merged && left_merged < total,
        "{left_merged} of {total} shards checkpointed after: {err}"
    );

    let resumed = stream::resume(&dispatched_path, Some(1), None).expect("resume");
    assert!(resumed.completed);
    assert!(
        resumed.cells_run < resumed.cell_count,
        "the dispatched shards must be kept, not re-run"
    );
    assert!(!ckpt.exists(), "resume removes the checkpoint");
    let resumed_bytes = std::fs::read(&dispatched_path).expect("resumed bytes");
    assert!(
        resumed_bytes == reference,
        "the resumed dispatch must byte-match the single-process run"
    );

    let _ = std::fs::remove_file(&reference_path);
    let _ = std::fs::remove_file(&dispatched_path);
}
