//! Per-cell execution and the in-memory sweep entry point.
//!
//! [`execute`] runs a whole sweep into a [`RunReport`] through the same
//! sharded driver as `ldx run` ([`crate::stream`]); this module owns what
//! every driver shares per cell:
//!
//! 1. **Index-derived seeds** ([`cell_seed`]): each cell's seed is a
//!    SplitMix64 mix of the master seed and the cell *index*, never of the
//!    worker that happens to run it.
//! 2. **Panic isolation**: a panicking cell is caught with
//!    [`std::panic::catch_unwind`] and recorded as an error outcome; the
//!    sweep keeps going.
//! 3. **Worker clamping**: the worker count is clamped to the shard count
//!    and to the machine's available parallelism.  More workers than
//!    hardware threads cannot make a CPU-bound sweep faster; they only add
//!    spawn cost, context switching and lock pressure on the shared view
//!    caches.  Results are identical for any worker count, so
//!    `--threads N` output never depends on the machine.

use crate::cell::CellResult;
use crate::report::RunReport;
use crate::scenario::{PlannedCell, Scenario, SweepConfig};
use crate::stream::{self, ShardLayout};
use std::panic::AssertUnwindSafe;
// ld-analyze: allow(D002, reason = "wall-clock timings are reporting-only; no control flow depends on them")
use std::time::Instant;

/// Derives the seed of cell `index` from the master seed: SplitMix64 over
/// the pair, so neighbouring indices get statistically independent streams
/// and the mapping is stable across thread counts, platforms and runs.
pub fn cell_seed(master: u64, index: usize) -> u64 {
    let mut z = master ^ (index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Plans `scenario` under `config` and executes every cell, on
/// `config.threads` workers, collecting the results in memory.
///
/// This is the in-memory sink of the one sweep driver: the cells run
/// through [`stream::run_shards`](crate::stream), exactly as `ldx run`
/// streams them to a file, and each shard's results are appended in shard
/// order.  So the report's deterministic bytes equal the streamed file's.
///
/// # Errors
///
/// Propagates configuration errors ([`SweepConfig::validate`]) and planning
/// failures; execution itself cannot fail (cell panics are captured into
/// the report).
pub fn execute(scenario: &dyn Scenario, config: &SweepConfig) -> Result<RunReport, String> {
    config.validate().map_err(|e| e.to_string())?;
    let plan = scenario.plan(config)?;
    let layout = ShardLayout::new(plan.cells.len(), config.shard_size);
    let stats_before = plan.cache_stats();
    let started = Instant::now();
    let mut cells = Vec::with_capacity(plan.cells.len());
    let workers = stream::run_shards(
        &plan.cells,
        config,
        layout,
        0,
        layout.shard_count(),
        &mut |_, shard| {
            cells.extend(shard);
            Ok(())
        },
    )?;
    let total_wall = started.elapsed();
    let cache = plan.cache_stats().since(&stats_before);
    Ok(RunReport::new(
        scenario.name(),
        config.clone(),
        cells,
        workers,
        total_wall,
        cache,
    ))
}

/// Runs one cell: derives its seed from the *global* cell index, catches
/// panics, records wall time.  Every shard the driver runs, locally or on
/// a `POST /shards` worker, runs its cells through here, which is what
/// makes a resumed or dispatched sweep's cells byte-identical to an
/// uninterrupted one's.
pub(crate) fn run_cell(cell: &PlannedCell, index: usize, config: &SweepConfig) -> CellResult {
    let seed = cell_seed(config.seed, index);
    let started = Instant::now();
    let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| (cell.run)(seed)))
        .map_err(|payload| panic_message(payload.as_ref()));
    CellResult {
        spec: cell.spec.clone(),
        seed,
        outcome,
        wall: started.elapsed(),
    }
}

/// Worker threads actually worth spawning for `requested` threads over
/// `cells` cells: bounded by the cell count and by hardware parallelism.
/// The hardware probe is cached — `available_parallelism` re-reads cgroup
/// state on every call, which is measurable at per-sweep granularity.
pub(crate) fn effective_workers(requested: usize, cells: usize) -> usize {
    static HARDWARE: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    let hardware = *HARDWARE
        .get_or_init(|| std::thread::available_parallelism().map_or(usize::MAX, usize::from));
    requested.min(cells).min(hardware).max(1)
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "cell panicked".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::{CellOutcome, CellSpec};
    use crate::scenario::Plan;

    struct CountingScenario;

    impl Scenario for CountingScenario {
        fn name(&self) -> &str {
            "counting"
        }
        fn description(&self) -> &str {
            "test scenario: cells echo their seed"
        }
        fn plan(&self, config: &SweepConfig) -> Result<Plan, String> {
            let mut plan = Plan::new();
            for i in 0..config.max_n {
                let spec = CellSpec::new(format!("cell/{i}"), [("i", i.to_string())]);
                plan.push(spec, move |seed| {
                    if i == 13 {
                        panic!("unlucky cell {i}");
                    }
                    CellOutcome::new("ok", true).with_metric("seed_low", (seed % 1024) as f64)
                });
            }
            Ok(plan)
        }
    }

    fn config(threads: usize) -> SweepConfig {
        SweepConfig {
            max_n: 40,
            threads,
            seed: 99,
            ..SweepConfig::default()
        }
    }

    #[test]
    fn seeds_are_stable_and_spread() {
        let a = cell_seed(1, 0);
        let b = cell_seed(1, 1);
        assert_ne!(a, b);
        assert_eq!(cell_seed(1, 7), cell_seed(1, 7));
        assert_ne!(cell_seed(1, 7), cell_seed(2, 7));
    }

    #[test]
    fn parallel_results_match_sequential_in_order_and_content() {
        let sequential = execute(&CountingScenario, &config(1)).unwrap();
        for threads in [2, 4, 16] {
            let parallel = execute(&CountingScenario, &config(threads)).unwrap();
            assert_eq!(sequential.cells.len(), parallel.cells.len());
            for (s, p) in sequential.cells.iter().zip(&parallel.cells) {
                assert_eq!(s.spec, p.spec);
                assert_eq!(s.seed, p.seed);
                assert_eq!(s.outcome, p.outcome);
            }
            assert_eq!(
                sequential.deterministic_json(),
                parallel.deterministic_json()
            );
        }
    }

    #[test]
    fn panics_are_isolated_and_recorded() {
        let report = execute(&CountingScenario, &config(4)).unwrap();
        assert_eq!(report.panicked(), 1);
        assert_eq!(report.passed(), 39);
        let failed = &report.cells[13];
        assert_eq!(failed.outcome.as_ref().unwrap_err(), "unlucky cell 13");
    }

    #[test]
    fn effective_workers_is_clamped_by_cells_and_hardware() {
        // Zero requested still yields one worker.
        assert_eq!(effective_workers(0, 10), 1);
        // The cell count caps the workers whatever was requested.
        assert!(effective_workers(64, 2) <= 2);
        assert_eq!(effective_workers(64, 0), 1);
        // Hardware caps an oversubscribed request; requesting fewer than the
        // hardware offers is honoured exactly.
        let hardware = std::thread::available_parallelism().map_or(usize::MAX, usize::from);
        assert!(effective_workers(1024, 1024) <= hardware);
        assert_eq!(effective_workers(1, 1024), 1);
        if hardware >= 2 {
            assert_eq!(effective_workers(2, 1024), 2);
        }
    }

    #[test]
    fn more_threads_than_cells_is_fine() {
        let report = execute(
            &CountingScenario,
            &SweepConfig {
                max_n: 3,
                threads: 64,
                seed: 5,
                ..SweepConfig::default()
            },
        )
        .unwrap();
        assert_eq!(report.cells.len(), 3);
    }
}
