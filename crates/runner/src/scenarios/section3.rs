//! `section3-sweep`: the computability separation, swept over the machine
//! zoo.
//!
//! Cells cover the execution-table family `G(M, r)`: the two-stage
//! identifier-reading decider must match ground truth machine by machine,
//! and fuel-bounded Id-oblivious candidates must err somewhere on the zoo
//! (Theorem 2's mechanised content).  Oblivious verdicts are evaluated
//! directly on every node: a candidate's verdict is one comparison against
//! the machine's halting profile, cheaper than hashing the view to look it
//! up in a verdict memo.
//!
//! One plan builds each machine's `G(M, r)` once.  The id cell of machine
//! `i` and every candidate cell decide the same instance, so the plan's
//! [`InstanceStore`] builds it for whichever of them runs first, lends it to
//! the rest, and drops it when the last of them is done.  Planning builds
//! nothing, and the store lives and dies with its plan.

use crate::cell::{CellOutcome, CellSpec};
use crate::scenario::{Plan, Scenario, SweepConfig};
use ld_constructions::fragments::FragmentSource;
use ld_constructions::section3::Section3Label;
use ld_deciders::section3::{gmr_input, FuelBoundedObliviousCandidate, TwoStageIdDecider};
use ld_local::{decision, Input};
use ld_turing::zoo::{self, MachineSpec};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

const SOURCE: FragmentSource = FragmentSource::WindowsAndDecoys;
const RADIUS: u32 = 1;
const FUEL: u64 = 10_000;

/// The Section 3 sweep scenario.
pub struct Section3Sweep;

fn halting_zoo(max_n: usize) -> Vec<MachineSpec> {
    // `max_n` scales the zoo breadth: slow machines produce tall execution
    // tables, so a small budget keeps to the quick ones.
    let budget = max_n as u64;
    let mut machines: Vec<MachineSpec> = zoo::output_zero_zoo()
        .into_iter()
        .chain(zoo::output_one_zoo())
        .filter(|spec| spec.truth.steps().is_some_and(|steps| steps <= budget))
        .collect();
    machines.sort_by(|a, b| a.machine.name().cmp(b.machine.name()));
    machines
}

/// The zoo's `G(M, r)` inputs for one plan, built on first use and released
/// after their last planned consumer.
///
/// Every instance has the same number of planned consumers: its id cell
/// plus each candidate cell.  A cell that runs again after the release (a
/// re-executed shard) rebuilds the instance and drops it once done, so the
/// store is never wrong, only occasionally less thrifty.
struct InstanceStore {
    machines: Vec<MachineSpec>,
    slots: Vec<Mutex<Slot>>,
    /// Instances built so far, rebuilds included.
    builds: AtomicUsize,
}

struct Slot {
    input: Option<Arc<Input<Section3Label>>>,
    consumers_left: usize,
}

impl InstanceStore {
    fn new(machines: Vec<MachineSpec>, consumers: usize) -> Self {
        let slots = machines
            .iter()
            .map(|_| {
                Mutex::new(Slot {
                    input: None,
                    consumers_left: consumers,
                })
            })
            .collect();
        InstanceStore {
            machines,
            slots,
            builds: AtomicUsize::new(0),
        }
    }

    fn slot(&self, index: usize) -> MutexGuard<'_, Slot> {
        // A panicking build leaves the slot empty, which is a valid state.
        self.slots[index]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Runs `decide` on machine `index`'s input, building it if no cell has
    /// yet (concurrent callers wait for that one build), and counts the
    /// call as one of the instance's consumers.
    fn decide<R>(&self, index: usize, decide: impl FnOnce(&Input<Section3Label>) -> R) -> R {
        let input = {
            let mut slot = self.slot(index);
            Arc::clone(slot.input.get_or_insert_with(|| {
                self.builds.fetch_add(1, Ordering::Relaxed);
                let input = gmr_input(&self.machines[index].machine, RADIUS, FUEL, SOURCE)
                    .expect("zoo machines halt within the sweep fuel");
                Arc::new(input)
            }))
        };
        let out = decide(&input);
        let mut slot = self.slot(index);
        slot.consumers_left = slot.consumers_left.saturating_sub(1);
        if slot.consumers_left == 0 {
            slot.input = None;
        }
        out
    }
}

fn id_decider_cell(plan: &mut Plan, store: &Arc<InstanceStore>, index: usize) {
    let spec_m = &store.machines[index];
    let expect = if spec_m.in_l0() { "accept" } else { "reject" };
    let name = spec_m.machine.name().to_string();
    let spec = CellSpec::new(
        format!("gmr/machine={name}/alg=two-stage-id"),
        [
            ("family", "gmr".to_string()),
            ("machine", name),
            ("alg", "two-stage-id".to_string()),
            ("expect", expect.to_string()),
        ],
    );
    let store = Arc::clone(store);
    plan.push(spec, move |_seed| {
        let (accepted, nodes) = store.decide(index, |input| {
            let accepted = decision::run_local(input, &TwoStageIdDecider::new(FUEL)).accepted();
            (accepted, input.node_count())
        });
        let verdict = if accepted { "accept" } else { "reject" };
        CellOutcome::new(verdict, verdict == expect).with_metric("nodes", nodes as f64)
    });
}

fn candidate_cell(plan: &mut Plan, store: &Arc<InstanceStore>, fuel: u64) {
    let spec = CellSpec::new(
        format!("gmr/candidate-fuel={fuel}"),
        [
            ("family", "gmr".to_string()),
            ("alg", format!("oblivious-fuel-{fuel}")),
            ("expect", "errs".to_string()),
        ],
    );
    let store = Arc::clone(store);
    plan.push(spec, move |_seed| {
        let candidate = FuelBoundedObliviousCandidate::new(fuel);
        let mut errors = 0usize;
        for (index, spec_m) in store.machines.iter().enumerate() {
            let accepted = store.decide(index, |input| {
                decision::run_oblivious(input, &candidate).accepted()
            });
            if accepted != spec_m.in_l0() {
                errors += 1;
            }
        }
        // A fuel-starved candidate cannot tell long tables from decoys; it
        // must err somewhere on a zoo whose running times exceed its fuel.
        let verdict = if errors > 0 { "errs" } else { "decides" };
        CellOutcome::new(verdict, verdict == "errs")
            .with_metric("errors", errors as f64)
            .with_metric("machines", store.machines.len() as f64)
    });
}

/// Plans the sweep and returns the plan's instance store beside it.
fn plan_with_store(config: &SweepConfig) -> Result<(Plan, Arc<InstanceStore>), String> {
    let machines = halting_zoo(config.max_n);
    if machines.is_empty() {
        return Err(format!(
            "max_n = {} admits no zoo machine (the quickest halts in 1 step)",
            config.max_n
        ));
    }
    // The "must err" expectation only holds when the zoo actually contains
    // a machine outrunning the candidate's fuel.
    let fuels: Vec<u64> = [1u64, 2, 4]
        .into_iter()
        .filter(|&fuel| {
            machines
                .iter()
                .any(|m| m.truth.steps().is_some_and(|steps| steps > fuel))
        })
        .collect();
    let store = Arc::new(InstanceStore::new(machines, 1 + fuels.len()));
    let mut plan = Plan::new();
    for index in 0..store.machines.len() {
        id_decider_cell(&mut plan, &store, index);
    }
    for fuel in fuels {
        candidate_cell(&mut plan, &store, fuel);
    }
    Ok((plan, store))
}

impl Scenario for Section3Sweep {
    fn name(&self) -> &str {
        "section3-sweep"
    }

    fn description(&self) -> &str {
        "Execution-table family G(M,r) over the machine zoo: id decider vs fuel-bounded candidates"
    }

    fn plan(&self, config: &SweepConfig) -> Result<Plan, String> {
        plan_with_store(config).map(|(plan, _)| plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor;
    use ld_local::cache::CacheStats;

    #[test]
    fn sweep_confirms_theorem_2_on_the_quick_zoo() {
        let config = SweepConfig {
            max_n: 24,
            threads: 2,
            seed: 9,
            ..SweepConfig::default()
        };
        let report = executor::execute(&Section3Sweep, &config).unwrap();
        assert!(report.cells.len() >= 5);
        assert_eq!(report.panicked(), 0);
        assert_eq!(
            report.failed(),
            0,
            "failing cells: {:?}",
            report
                .cells
                .iter()
                .filter(|c| !c.passed())
                .map(|c| c.spec.id.clone())
                .collect::<Vec<_>>()
        );
        // No cell consults a view cache: the candidates' verdicts are
        // cheaper to recompute than to look up.
        assert_eq!(report.cache, CacheStats::default());
    }

    /// `section3-sweep` planned through [`plan_with_store`], keeping a
    /// handle on the last plan's store.
    struct Observed(Mutex<Option<Arc<InstanceStore>>>);

    impl Scenario for Observed {
        fn name(&self) -> &str {
            Section3Sweep.name()
        }

        fn description(&self) -> &str {
            Section3Sweep.description()
        }

        fn plan(&self, config: &SweepConfig) -> Result<Plan, String> {
            let (plan, store) = plan_with_store(config)?;
            *self.0.lock().unwrap() = Some(store);
            Ok(plan)
        }
    }

    #[test]
    fn each_instance_is_built_once_and_released_after_its_last_consumer() {
        use crate::stream::{self, Checkpoint, StreamOptions};
        for threads in [1, 2] {
            let config = SweepConfig {
                max_n: 128,
                threads,
                shard_size: 1,
                ..SweepConfig::default()
            };
            let (_, store) = plan_with_store(&config).unwrap();
            assert_eq!(store.builds.load(Ordering::Relaxed), 0, "planning builds");

            let observed = Observed(Mutex::new(None));
            let path = std::env::temp_dir().join(format!(
                "ld-runner-section3-store-{}-t{threads}.json",
                std::process::id()
            ));
            let summary =
                stream::run(&observed, &config, &path, &StreamOptions::default()).unwrap();
            let _ = std::fs::remove_file(Checkpoint::path_for(&path));
            let _ = std::fs::remove_file(&path);
            assert!(summary.completed);
            assert_eq!(summary.failed + summary.panicked, 0);

            let store = observed.0.lock().unwrap().take().unwrap();
            assert_eq!(
                store.builds.load(Ordering::Relaxed),
                store.machines.len(),
                "{threads} threads: every machine is built exactly once"
            );
            for (index, slot) in store.slots.iter().enumerate() {
                let slot = slot.lock().unwrap();
                assert!(
                    slot.input.is_none(),
                    "instance {index} outlives its consumers"
                );
                assert_eq!(slot.consumers_left, 0, "instance {index}");
            }
        }
    }

    #[test]
    fn a_consumer_after_the_release_rebuilds_and_drops_again() {
        let store = InstanceStore::new(halting_zoo(2), 1);
        let nodes = |store: &InstanceStore| store.decide(0, Input::node_count);
        let first = nodes(&store);
        assert!(store.slot(0).input.is_none());
        assert_eq!(nodes(&store), first);
        assert!(store.slot(0).input.is_none());
        assert_eq!(store.builds.load(Ordering::Relaxed), 2);
    }
}
