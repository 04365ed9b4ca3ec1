//! The runner's core contract: a sweep's deterministic report is a pure
//! function of (scenario, seed, max_n).  Thread count, scheduling order and
//! cache state must never leak into it.
//!
//! Each reference is a `threads: 1` run, which executes its shards in turn
//! on the calling thread; every multi-worker run goes through the pipelined
//! driver (claim gate, bounded channel, in-order writer).

use local_decision::runner::{executor, scenarios, SweepConfig};

fn config(threads: usize) -> SweepConfig {
    SweepConfig {
        max_n: 48,
        threads,
        seed: 0xdecade,
        // Small shards, so even a short sweep spans several of them and
        // the multi-worker runs really interleave.
        shard_size: 4,
        ..SweepConfig::default()
    }
}

#[test]
fn parallel_section2_report_is_byte_identical_to_sequential() {
    let sequential = executor::execute(&scenarios::Section2Sweep, &config(1)).unwrap();
    let reference = sequential.deterministic_json();
    assert!(sequential.cells.len() >= 100, "{}", sequential.cells.len());

    for threads in [2, 4, 8] {
        let parallel = executor::execute(&scenarios::Section2Sweep, &config(threads)).unwrap();
        assert_eq!(
            reference,
            parallel.deterministic_json(),
            "threads = {threads} must reproduce the sequential report byte for byte"
        );
    }
}

#[test]
fn reports_depend_on_the_master_seed_only_through_cells() {
    // Same seed twice: identical. Different seed: shuffled-id cells change
    // their per-cell seeds, so the documents differ.
    let a = executor::execute(&scenarios::Section2Sweep, &config(2)).unwrap();
    let b = executor::execute(&scenarios::Section2Sweep, &config(2)).unwrap();
    assert_eq!(a.deterministic_json(), b.deterministic_json());

    let other = SweepConfig {
        seed: 1,
        ..config(2)
    };
    let c = executor::execute(&scenarios::Section2Sweep, &other).unwrap();
    assert_ne!(a.deterministic_json(), c.deterministic_json());
}

#[test]
fn every_builtin_scenario_is_parallel_deterministic() {
    for scenario in scenarios::all() {
        let small = SweepConfig {
            max_n: 24,
            threads: 1,
            seed: 5,
            shard_size: 2,
            ..SweepConfig::default()
        };
        let sequential = executor::execute(scenario.as_ref(), &small).unwrap();
        let parallel = executor::execute(
            scenario.as_ref(),
            &SweepConfig {
                threads: 4,
                ..small
            },
        )
        .unwrap();
        assert_eq!(
            sequential.deterministic_json(),
            parallel.deterministic_json(),
            "scenario {} must be parallel-deterministic",
            scenario.name()
        );
    }
}
