//! Differential conformance for the committed DSL re-expressions: the
//! scenario documents under `scenarios/` must produce reports
//! **byte-identical** to the built-in scenarios they re-express, at every
//! thread count.  The reference is the built-in's `threads: 1` stream run,
//! whose shards run in turn on the calling thread.
//!
//! This is the contract that makes the DSL trustworthy: a committed
//! `.json` file is not "approximately" the built-in sweep, it *is* the
//! built-in sweep, byte for byte.  (CI re-checks the same equivalence
//! end-to-end through the `ldx` binary.)

use ld_runner::stream::{self, Checkpoint, StreamOptions};
use ld_runner::{scenarios, Scenario, ScenarioDoc, SweepConfig};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

const SECTION2_DOC: &str = include_str!("../../scenarios/section2-sweep.json");
const SECTION2_R3_DOC: &str = include_str!("../../scenarios/section2-sweep-r3.json");
const NEW_FAMILIES_DOC: &str = include_str!("../../scenarios/new-families.json");

const DETERMINISTIC: StreamOptions = StreamOptions {
    deterministic: true,
    max_shards: None,
    csv: None,
};

fn temp_path(tag: &str) -> PathBuf {
    static UNIQUE: AtomicU64 = AtomicU64::new(0);
    let n = UNIQUE.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "ld-tests-dsl-{}-{tag}-{n}.json",
        std::process::id()
    ))
}

fn cleanup(path: &PathBuf) {
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(Checkpoint::path_for(path));
}

/// The sized-down configs the differential runs use: `section2-sweep` at
/// the streaming suite's 24-node envelope, `section2-sweep-r3` under the
/// budget CI pins for the r3 golden report.
fn config(max_n: usize, threads: usize) -> SweepConfig {
    SweepConfig {
        max_n,
        threads,
        seed: 0xd51,
        shard_size: 4,
        ..SweepConfig::default()
    }
}

fn r3_config(threads: usize) -> SweepConfig {
    SweepConfig {
        node_budget: Some(2_000_000),
        ..config(128, threads)
    }
}

/// Streams `scenario` under `config` as a deterministic report and returns
/// its bytes.
fn streamed(scenario: &dyn Scenario, config: &SweepConfig, tag: &str) -> String {
    let path = temp_path(tag);
    let summary = stream::run(scenario, config, &path, &DETERMINISTIC)
        .unwrap_or_else(|e| panic!("{tag}: {e}"));
    assert!(summary.completed, "{tag}");
    let bytes = std::fs::read_to_string(&path).unwrap();
    cleanup(&path);
    bytes
}

/// Byte-compares the DSL document against its built-in at thread counts 1
/// and 4.
fn assert_byte_identical(
    doc_text: &str,
    builtin_name: &str,
    make_config: &dyn Fn(usize) -> SweepConfig,
) {
    let doc = ScenarioDoc::from_text(doc_text).expect("committed scenario parses");
    assert_eq!(doc.name(), builtin_name);
    let builtin = scenarios::find(builtin_name).expect("builtin is registered");

    let reference = streamed(builtin.as_ref(), &make_config(1), builtin_name);
    for threads in [1, 4] {
        assert_eq!(
            streamed(
                &doc,
                &make_config(threads),
                &format!("{builtin_name}-t{threads}")
            ),
            reference,
            "{builtin_name} at {threads} threads: streamed DSL bytes diverge from the builtin"
        );
    }
}

#[test]
fn committed_section2_doc_is_byte_identical_to_the_builtin() {
    assert_byte_identical(SECTION2_DOC, "section2-sweep", &|threads| {
        config(24, threads)
    });
}

#[test]
fn committed_r3_doc_is_byte_identical_to_the_builtin() {
    assert_byte_identical(SECTION2_R3_DOC, "section2-sweep-r3", &r3_config);
}

/// The new-families document has no built-in twin; its contract is
/// determinism — identical bytes across thread counts — plus a clean
/// verdict sheet.
#[test]
fn new_families_doc_is_deterministic_across_threads_and_paths() {
    let doc = ScenarioDoc::from_text(NEW_FAMILIES_DOC).expect("committed scenario parses");
    let cfg = |threads| SweepConfig {
        max_n: 40,
        threads,
        seed: 0xfa0,
        shard_size: 4,
        ..SweepConfig::default()
    };
    let path = temp_path("new-families-t1");
    let summary = stream::run(&doc, &cfg(1), &path, &DETERMINISTIC).unwrap();
    assert_eq!(summary.failed, 0, "new-families cells must pass");
    assert_eq!(summary.panicked, 0);
    let reference = std::fs::read_to_string(&path).unwrap();
    cleanup(&path);
    assert_eq!(
        streamed(&doc, &cfg(4), "new-families-t4"),
        reference,
        "new-families at 4 threads diverges"
    );
}

/// A DSL-backed sweep interrupted mid-run resumes through
/// `resume_with_scenario` and finishes with the same bytes as an
/// uninterrupted run — the property that lets `ldx resume --file` and the
/// server's resume path accept documents.
#[test]
fn interrupted_dsl_sweeps_resume_to_identical_bytes() {
    let doc = ScenarioDoc::from_text(SECTION2_DOC).expect("committed scenario parses");
    let reference = streamed(&doc, &config(24, 1), "section2-reference");
    let path = temp_path("section2-resume");
    let partial = StreamOptions {
        max_shards: Some(2),
        ..DETERMINISTIC
    };
    let summary = stream::run(&doc, &config(24, 2), &path, &partial).unwrap();
    assert!(!summary.completed, "two shards must not finish the sweep");
    assert!(Checkpoint::path_for(&path).exists());
    let resumed = stream::resume_with_scenario(&path, Some(2), None, &doc).unwrap();
    assert!(resumed.completed);
    assert_eq!(
        std::fs::read_to_string(&path).unwrap(),
        reference,
        "resumed DSL sweep diverges from the uninterrupted reference"
    );
    cleanup(&path);
}

/// Resuming under a *different* document is refused by name — the
/// checkpoint names the scenario it belongs to.
#[test]
fn resume_refuses_a_mismatched_document() {
    let doc = ScenarioDoc::from_text(SECTION2_DOC).expect("committed scenario parses");
    let other = ScenarioDoc::from_text(NEW_FAMILIES_DOC).expect("committed scenario parses");
    let path = temp_path("section2-mismatch");
    let partial = StreamOptions {
        max_shards: Some(1),
        ..DETERMINISTIC
    };
    let summary = stream::run(&doc, &config(24, 1), &path, &partial).unwrap();
    assert!(!summary.completed);
    let err = stream::resume_with_scenario(&path, Some(1), None, &other)
        .expect_err("a mismatched document must be refused");
    assert!(
        err.contains("does not match"),
        "error should explain the name mismatch: {err}"
    );
    cleanup(&path);
}
