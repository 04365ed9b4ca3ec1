//! Differential conformance for the sweep driver: for **every** built-in
//! scenario, the streamed report is byte-identical at every thread count
//! and across a mid-sweep interruption plus resume, and equals the
//! committed fixtures and pinned digests below.
//!
//! The reference is a `threads: 1` stream run: with one effective worker
//! the driver runs shards in turn on the calling thread, with no channel,
//! claim gate or reordering buffer, so every pipelined run is checked
//! against the plain sequential loop.

use ld_runner::stream::{self, Checkpoint, StreamOptions};
use ld_runner::{executor, scenarios, Scenario, SweepConfig};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn temp_path(tag: &str) -> PathBuf {
    static UNIQUE: AtomicU64 = AtomicU64::new(0);
    let n = UNIQUE.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "ld-tests-stream-{}-{tag}-{n}.json",
        std::process::id()
    ))
}

fn cleanup(path: &PathBuf) {
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(Checkpoint::path_for(path));
}

fn config(threads: usize) -> SweepConfig {
    SweepConfig {
        max_n: 24,
        threads,
        seed: 0xd1ff,
        shard_size: 4,
        ..SweepConfig::default()
    }
}

const DETERMINISTIC: StreamOptions = StreamOptions {
    deterministic: true,
    max_shards: None,
    csv: None,
};

/// Streams `scenario` under `config` as a deterministic report and returns
/// its bytes.
fn streamed(scenario: &dyn Scenario, config: &SweepConfig, tag: &str) -> String {
    let path = temp_path(tag);
    let summary = stream::run(scenario, config, &path, &DETERMINISTIC)
        .unwrap_or_else(|e| panic!("{}: {e}", scenario.name()));
    assert!(summary.completed, "{}", scenario.name());
    assert!(
        !Checkpoint::path_for(&path).exists(),
        "{}: checkpoint must be removed after completion",
        scenario.name()
    );
    let bytes = std::fs::read_to_string(&path).unwrap();
    cleanup(&path);
    bytes
}

#[test]
fn streaming_matches_in_memory_for_every_scenario_at_every_thread_count() {
    for scenario in scenarios::all() {
        let name = scenario.name();
        let reference = streamed(scenario.as_ref(), &config(1), &format!("{name}-t1"));
        for threads in [2, 8] {
            assert_eq!(
                streamed(
                    scenario.as_ref(),
                    &config(threads),
                    &format!("{name}-t{threads}")
                ),
                reference,
                "{name} at {threads} threads: streamed bytes diverge from the one-worker run"
            );
        }
        // The in-memory sink of the same driver renders the same bytes.
        let in_memory = executor::execute(scenario.as_ref(), &config(2))
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            in_memory.deterministic_json(),
            reference,
            "{name}: the in-memory report diverges from the streamed file"
        );
    }
}

#[test]
fn interrupted_and_resumed_sweeps_match_for_every_scenario() {
    for scenario in scenarios::all() {
        let reference = streamed(
            scenario.as_ref(),
            &config(1),
            &format!("{}-reference", scenario.name()),
        );
        let path = temp_path(&format!("{}-resume", scenario.name()));
        let partial = stream::run(
            scenario.as_ref(),
            &config(2),
            &path,
            &StreamOptions {
                deterministic: true,
                max_shards: Some(1),
                csv: None,
            },
        )
        .unwrap_or_else(|e| panic!("{}: {e}", scenario.name()));
        if !partial.completed {
            // Resume on a different thread count than the interrupted run.
            let resumed = stream::resume(&path, Some(3), None)
                .unwrap_or_else(|e| panic!("{}: {e}", scenario.name()));
            assert!(resumed.completed, "{}", scenario.name());
            assert_eq!(
                resumed.cell_count,
                partial.cell_count,
                "{}",
                scenario.name()
            );
        }
        let streamed = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            streamed,
            reference,
            "{}: kill + resume diverges from an uninterrupted run",
            scenario.name()
        );
        cleanup(&path);
    }
}

/// Full (perf-bearing) reports differ between runs only inside the `perf`
/// section: a two-worker streamed file, a one-worker streamed file and the
/// in-memory rendering carry the same schema, cells and summary.
#[test]
fn full_streamed_reports_carry_an_equivalent_deterministic_core() {
    use ld_runner::ReportSummary;
    let scenario = scenarios::find("section2-sweep-xl").unwrap();
    let full_run = |threads: usize| {
        let path = temp_path(&format!("full-perf-t{threads}"));
        let summary = stream::run(
            scenario.as_ref(),
            &config(threads),
            &path,
            &StreamOptions::default(),
        )
        .unwrap();
        assert!(summary.completed);
        let text = std::fs::read_to_string(&path).unwrap();
        cleanup(&path);
        assert!(text.contains("\"perf\": {"));
        ReportSummary::from_json(&text).unwrap()
    };
    let reference = full_run(1);
    assert_eq!(full_run(2), reference);
    let in_memory = executor::execute(scenario.as_ref(), &config(2)).unwrap();
    assert_eq!(
        ReportSummary::from_json(&in_memory.to_json()).unwrap(),
        reference
    );
}

/// `tests/fixtures/section3-sweep-128.json` is the committed output of
/// `ldx run section3-sweep --max-n 128 --deterministic`.  The streamed
/// report must reproduce it byte for byte at every thread count, at one
/// cell per shard (perfbench's `gmr-sweep` shape, where every cell that
/// shares a `G(M, r)` instance can run on another worker), and across a
/// run stopped after a few shards and finished by `stream::resume` (whose
/// fresh plan never runs the checkpointed cells).  So any change to how
/// `G(M, r)` is built, shared or decided that moves a verdict, a metric or
/// a seed fails here.
#[test]
fn section3_sweep_matches_the_committed_fixture() {
    let fixture = std::fs::read_to_string(format!(
        "{}/fixtures/section3-sweep-128.json",
        env!("CARGO_MANIFEST_DIR")
    ))
    .unwrap();
    let scenario = scenarios::find("section3-sweep").unwrap();
    let config = |threads: usize, shard_size: usize| SweepConfig {
        max_n: 128,
        threads,
        shard_size,
        ..SweepConfig::default()
    };
    // The report's `config` object records the shard size; nothing else
    // depends on it.
    let expected = |shard_size: usize| {
        let recorded = "\"shard_size\": 16";
        assert_eq!(fixture.matches(recorded).count(), 1);
        fixture.replace(recorded, &format!("\"shard_size\": {shard_size}"))
    };
    for (threads, shard_size) in [(1, 16), (2, 16), (1, 1), (2, 1)] {
        let path = temp_path(&format!("section3-fixture-t{threads}-s{shard_size}"));
        let summary = stream::run(
            scenario.as_ref(),
            &config(threads, shard_size),
            &path,
            &DETERMINISTIC,
        )
        .unwrap();
        assert!(summary.completed);
        let streamed = std::fs::read_to_string(&path).unwrap();
        cleanup(&path);
        assert_eq!(
            streamed,
            expected(shard_size),
            "section3-sweep at {threads} threads, {shard_size} cells per shard, \
             diverges from the committed fixture"
        );
    }
    for stop_after in [1, 5, 12] {
        let path = temp_path(&format!("section3-fixture-resume-{stop_after}"));
        let partial = stream::run(
            scenario.as_ref(),
            &config(2, 1),
            &path,
            &StreamOptions {
                deterministic: true,
                max_shards: Some(stop_after),
                csv: None,
            },
        )
        .unwrap();
        assert!(!partial.completed);
        let resumed = stream::resume(&path, Some(2), None).unwrap();
        assert!(resumed.completed);
        assert_eq!(resumed.cells_run, partial.cell_count - stop_after);
        let streamed = std::fs::read_to_string(&path).unwrap();
        cleanup(&path);
        assert_eq!(
            streamed,
            expected(1),
            "section3-sweep stopped after {stop_after} shards and resumed \
             diverges from the committed fixture"
        );
    }
}

/// `tests/fixtures/randomized-sweep-xl-512.json` is the committed output of
/// `ldx run randomized-sweep-xl --max-n 512 --deterministic`.  Every rung
/// of the machine ladder runs Corollary 1's randomised decider for 16
/// trials, so a decider that moves one verdict, or one draw of its random
/// stream, at any machine speed fails here.
#[test]
fn randomized_sweep_xl_512_matches_the_committed_fixture() {
    let fixture = std::fs::read_to_string(format!(
        "{}/fixtures/randomized-sweep-xl-512.json",
        env!("CARGO_MANIFEST_DIR")
    ))
    .unwrap();
    let scenario = scenarios::find("randomized-sweep-xl").unwrap();
    for threads in [1, 2] {
        let config = SweepConfig {
            max_n: 512,
            threads,
            ..SweepConfig::default()
        };
        let path = temp_path(&format!("randomized-xl-fixture-t{threads}"));
        let summary = stream::run(scenario.as_ref(), &config, &path, &DETERMINISTIC).unwrap();
        assert!(summary.completed);
        let streamed = std::fs::read_to_string(&path).unwrap();
        cleanup(&path);
        assert_eq!(
            streamed, fixture,
            "randomized-sweep-xl at {threads} threads diverges from the committed fixture"
        );
    }
}

/// `ldx-section2-sweep.json` at the repository root is the README's
/// sample report: the output of `ldx run section2-sweep --max-n 64
/// --deterministic`.  A two-worker stream run must reproduce it byte for
/// byte, so the sample cannot drift from what the sweep reports.
#[test]
fn section2_sweep_sample_matches_the_committed_report() {
    let sample = std::fs::read_to_string(format!(
        "{}/../ldx-section2-sweep.json",
        env!("CARGO_MANIFEST_DIR")
    ))
    .unwrap();
    let scenario = scenarios::find("section2-sweep").unwrap();
    let config = SweepConfig {
        max_n: 64,
        threads: 2,
        ..SweepConfig::default()
    };
    assert_eq!(
        streamed(scenario.as_ref(), &config, "section2-sample"),
        sample,
        "section2-sweep --max-n 64 diverges from the committed sample report"
    );
}

/// FNV-1a 64 digest of the deterministic `section2-sweep-xl --max-n 512`
/// report (112 580 bytes, too large to commit as a fixture).  Any change to
/// view enumeration, ball extraction or budget accounting that moves a
/// report byte of the benchmarked XL sweep fails here.
const SECTION2_XL_512_DIGEST: u64 = 0x05af_cf4f_3a75_7154;

#[test]
fn section2_sweep_xl_matches_the_pinned_digest() {
    let scenario = scenarios::find("section2-sweep-xl").unwrap();
    for threads in [1, 2] {
        let config = SweepConfig {
            max_n: 512,
            threads,
            ..SweepConfig::default()
        };
        let path = temp_path(&format!("section2-xl-digest-t{threads}"));
        let summary = stream::run(scenario.as_ref(), &config, &path, &DETERMINISTIC).unwrap();
        assert!(summary.completed);
        assert_eq!(summary.failed, 0, "failed cells at {threads} threads");
        let streamed = std::fs::read(&path).unwrap();
        cleanup(&path);
        assert_eq!(streamed.len(), 112_580, "report size at {threads} threads");
        assert_eq!(
            stream::fnv1a(stream::FNV_OFFSET, &streamed),
            SECTION2_XL_512_DIGEST,
            "section2-sweep-xl at {threads} threads diverges from the pinned digest"
        );
    }
}

/// FNV-1a 64 digest of the deterministic `section2-sweep-xl --max-n 512
/// --node-budget 3000` report (106 574 bytes): 75 of its 204 cells exhaust
/// the node cap, many of them inside a run of shift-certified centres, so
/// the exact exhaustion points of the enumeration are pinned here.
const SECTION2_XL_512_NODE_3000_DIGEST: u64 = 0x1ea0_7633_48a9_75f7;

#[test]
fn section2_sweep_xl_under_an_exhausting_node_budget_matches_the_pinned_digest() {
    let scenario = scenarios::find("section2-sweep-xl").unwrap();
    for threads in [1, 2] {
        let config = SweepConfig {
            max_n: 512,
            threads,
            node_budget: Some(3_000),
            ..SweepConfig::default()
        };
        let path = temp_path(&format!("section2-xl-node-3000-t{threads}"));
        let summary = stream::run(scenario.as_ref(), &config, &path, &DETERMINISTIC).unwrap();
        assert!(summary.completed);
        assert_eq!(summary.failed, 0, "failed cells at {threads} threads");
        assert_eq!(
            summary.exhausted, 75,
            "exhausted cells at {threads} threads"
        );
        let streamed = std::fs::read(&path).unwrap();
        cleanup(&path);
        assert_eq!(streamed.len(), 106_574, "report size at {threads} threads");
        assert_eq!(
            stream::fnv1a(stream::FNV_OFFSET, &streamed),
            SECTION2_XL_512_NODE_3000_DIGEST,
            "section2-sweep-xl --node-budget 3000 at {threads} threads diverges from the pinned digest"
        );
    }
}

/// `(scenario, max_n, report bytes, FNV-1a 64 digest)` of the deterministic
/// reports of the scenarios whose cells run decision loops (`run_local`,
/// `run_oblivious`, `run_randomized`) and have no committed fixture.  A
/// change to view extraction or to a decider that moves one verdict, or
/// one draw of a randomised decider's stream, moves these bytes.
const DECISION_LOOP_DIGESTS: [(&str, usize, usize, u64); 4] = [
    ("randomized-sweep", 128, 4_352, 0xee35_9533_d4ea_830a),
    ("relationship-table", 128, 1_771, 0x8f44_54d1_6851_e5ab),
    ("pyramid-sweep", 128, 5_055, 0xfec9_7720_8560_2f53),
    ("randomized-sweep-xl", 32, 4_352, 0x7081_2815_c969_e0bf),
];

#[test]
fn decision_loop_scenarios_match_their_pinned_digests() {
    for (name, max_n, len, digest) in DECISION_LOOP_DIGESTS {
        let scenario = scenarios::find(name).unwrap();
        for threads in [1, 2] {
            let config = SweepConfig {
                max_n,
                threads,
                ..SweepConfig::default()
            };
            let path = temp_path(&format!("{name}-digest-t{threads}"));
            let summary = stream::run(scenario.as_ref(), &config, &path, &DETERMINISTIC).unwrap();
            assert!(summary.completed, "{name}");
            let streamed = std::fs::read(&path).unwrap();
            cleanup(&path);
            let got = stream::fnv1a(stream::FNV_OFFSET, &streamed);
            assert_eq!(
                streamed.len(),
                len,
                "{name} report size at {threads} threads"
            );
            assert_eq!(
                got, digest,
                "{name} at {threads} threads diverges from the pinned digest"
            );
        }
    }
}
