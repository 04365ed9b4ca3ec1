//! The Section 3 deciders answer from a machine's halting profile, not by
//! simulating the machine at every node.
//!
//! - **Profile.** For every zoo machine, halting or not, and for a machine
//!   that halts beyond the profile cap, `SharedMachine::halted_within(b)`
//!   equals the output `run(b)` reports, for every budget `b` up to the
//!   cap and for budgets above it.
//! - **Deciders.** Each of the five Section 3 deciders gives the verdict
//!   vector of a reference that calls `run(b)` at every node, with the same
//!   seeds, on the `G(M, r)` zoo instances and on promise cycles, under
//!   identifier assignments whose budgets fall below, across and above the
//!   profile cap.

use local_decision::constructions::section3::promise::{self as machine_promise, MachineLabel};
use local_decision::deciders::randomized::{
    random_budget, RandomizedGmrDecider, RandomizedPromiseDecider,
};
use local_decision::deciders::section3::{gmr_input, PromiseHaltingDecider};
use local_decision::local::algorithm::RandomizedObliviousAlgorithm;
use local_decision::local::decision::run_randomized;
use local_decision::prelude::*;
use local_decision::turing::shared::PROFILE_CAP;
use local_decision::turing::{RunOutcome, SharedMachine};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// The output `run(budget)` reports, if the machine halts within it.
fn run_output(machine: &TuringMachine, budget: u64) -> Option<Symbol> {
    match machine.run(budget) {
        RunOutcome::Halted(halt) => Some(halt.output),
        RunOutcome::OutOfFuel(_) => None,
    }
}

/// A machine that halts after more than [`PROFILE_CAP`] steps, so its
/// profile is empty and budgets above the cap take the fallback: it marks
/// both ends of a `k`-cell stretch, then fills the stretch one cell per
/// round trip (about `k²` steps) and halts on the right marker.
fn slow_halter(k: u8) -> TuringMachine {
    use local_decision::turing::{Direction::*, State};
    let (back, forth) = (State(k + 1), State(k + 2));
    let mut b = TuringMachine::builder(format!("zigzag{k}"), k + 3, 4);
    b.rule(State(0), Symbol(0), Symbol(2), Right, State(1));
    for i in 1..k {
        b.rule(State(i), Symbol(0), Symbol(0), Right, State(i + 1));
    }
    b.rule(State(k), Symbol(0), Symbol(3), Left, back);
    b.rule(back, Symbol(0), Symbol(0), Left, back);
    b.rule(back, Symbol(1), Symbol(1), Left, back);
    b.rule(back, Symbol(2), Symbol(2), Right, forth);
    b.rule(forth, Symbol(1), Symbol(1), Right, forth);
    b.rule(forth, Symbol(0), Symbol(1), Left, back);
    b.build().unwrap()
}

#[test]
fn profile_agrees_with_run_at_every_budget() {
    let zoo = zoo::full_zoo();
    assert!(zoo.iter().any(|spec| !spec.truth.halts()));
    let slow = slow_halter(80);
    let slow_steps = slow.running_time(1 << 20).unwrap();
    assert!(slow_steps > PROFILE_CAP && slow_steps < 4 * PROFILE_CAP);
    let machines = zoo.into_iter().map(|spec| spec.machine).chain([slow]);
    for machine in machines {
        let shared = SharedMachine::new(machine.clone());
        let name = machine.name();
        for budget in 0..=PROFILE_CAP {
            assert_eq!(
                shared.halted_within(budget),
                run_output(&machine, budget),
                "{name} at budget {budget}"
            );
        }
        for budget in [
            PROFILE_CAP + 1,
            PROFILE_CAP + 17,
            2 * PROFILE_CAP,
            slow_steps - 1,
            slow_steps,
            slow_steps + 1,
            4 * PROFILE_CAP + 3,
        ] {
            assert_eq!(
                shared.halted_within(budget),
                run_output(&machine, budget),
                "{name} at budget {budget} (above the cap)"
            );
        }
    }
}

/// Theorem 2's two-stage decider as it was before the profile: the same
/// structure stage, then `run(min(Id(v), cap))` at every node.
struct RunTwoStage(u64);

impl LocalAlgorithm<Section3Label> for RunTwoStage {
    fn name(&self) -> &str {
        "reference-two-stage"
    }

    fn radius(&self) -> usize {
        1
    }

    fn evaluate(&self, view: ViewRef<'_, Section3Label>) -> Verdict {
        let center = view.center_label();
        let structure_ok = view.nodes().all(|v| {
            let l = view.label(v);
            l.machine == center.machine && l.r == center.r && l.x_mod3 < 3 && l.y_mod3 < 3
        });
        if !structure_ok {
            return Verdict::No;
        }
        nonzero_output(&center.machine, view.center_id().min(self.0))
    }
}

/// The fuel-bounded candidate, simulating at every node.
struct RunCandidate(u64);

impl ObliviousAlgorithm<Section3Label> for RunCandidate {
    fn name(&self) -> &str {
        "reference-candidate"
    }

    fn radius(&self) -> usize {
        1
    }

    fn evaluate(&self, view: ObliviousViewRef<'_, Section3Label>) -> Verdict {
        nonzero_output(&view.center_label().machine, self.0)
    }
}

/// The promise decider, simulating at every node.
struct RunPromise(u64);

impl LocalAlgorithm<MachineLabel> for RunPromise {
    fn name(&self) -> &str {
        "reference-promise"
    }

    fn radius(&self) -> usize {
        0
    }

    fn evaluate(&self, view: ViewRef<'_, MachineLabel>) -> Verdict {
        halts(&view.center_label().machine, view.center_id().min(self.0))
    }
}

/// Corollary 1's randomised decider, simulating at every node.
struct RunRandomizedGmr(u64);

impl RandomizedObliviousAlgorithm<Section3Label> for RunRandomizedGmr {
    fn name(&self) -> &str {
        "reference-randomised-gmr"
    }

    fn radius(&self) -> usize {
        1
    }

    fn evaluate(
        &self,
        view: ObliviousViewRef<'_, Section3Label>,
        rng: &mut dyn RngCore,
    ) -> Verdict {
        nonzero_output(&view.center_label().machine, random_budget(rng, self.0))
    }
}

/// The randomised promise decider, simulating at every node.
struct RunRandomizedPromise(u64);

impl RandomizedObliviousAlgorithm<MachineLabel> for RunRandomizedPromise {
    fn name(&self) -> &str {
        "reference-randomised-promise"
    }

    fn radius(&self) -> usize {
        0
    }

    fn evaluate(&self, view: ObliviousViewRef<'_, MachineLabel>, rng: &mut dyn RngCore) -> Verdict {
        halts(&view.center_label().machine, random_budget(rng, self.0))
    }
}

fn nonzero_output(machine: &TuringMachine, budget: u64) -> Verdict {
    match machine.run(budget) {
        RunOutcome::Halted(halt) if halt.output != Symbol(0) => Verdict::No,
        _ => Verdict::Yes,
    }
}

fn halts(machine: &TuringMachine, budget: u64) -> Verdict {
    match machine.run(budget) {
        RunOutcome::Halted(_) => Verdict::No,
        RunOutcome::OutOfFuel(_) => Verdict::Yes,
    }
}

/// Identifier assignments whose budgets sit below, across and above the
/// profile cap.
fn id_assignments(n: usize, seed: u64) -> Vec<IdAssignment> {
    vec![
        IdAssignment::consecutive(n),
        IdAssignment::consecutive_from(n, PROFILE_CAP - (n as u64) / 2),
        IdAssignment::shuffled(n, &mut StdRng::seed_from_u64(seed)),
        IdAssignment::random_unbounded(n, &mut StdRng::seed_from_u64(seed)),
    ]
}

fn assert_randomized_verdicts<L, A, B>(input: &Input<L>, decider: &A, reference: &B, what: &str)
where
    A: RandomizedObliviousAlgorithm<L>,
    B: RandomizedObliviousAlgorithm<L>,
{
    for seed in 0..8 {
        let got = run_randomized(input, decider, &mut StdRng::seed_from_u64(seed));
        let want = run_randomized(input, reference, &mut StdRng::seed_from_u64(seed));
        assert_eq!(got.verdicts(), want.verdicts(), "{what}, seed {seed}");
    }
}

#[test]
fn gmr_deciders_match_per_node_simulation() {
    let machines = zoo::output_zero_zoo()
        .into_iter()
        .chain(zoo::output_one_zoo());
    for (seed, spec) in (0u64..).zip(machines) {
        let name = spec.machine.name().to_string();
        let labeled = gmr_input(&spec.machine, 1, 10_000, FragmentSource::WindowsAndDecoys)
            .unwrap()
            .labeled()
            .clone();
        let n = labeled.node_count();
        for ids in id_assignments(n, seed) {
            let input = Input::new(labeled.clone(), ids).unwrap();
            for cap in [3, 10_000] {
                assert_eq!(
                    decision::run_local(&input, &TwoStageIdDecider::new(cap)).verdicts(),
                    decision::run_local(&input, &RunTwoStage(cap)).verdicts(),
                    "{name}: two-stage decider, cap {cap}"
                );
            }
        }
        let input = Input::with_consecutive_ids(labeled).unwrap();
        for fuel in [0, 1, 2, 4, 7, 100, PROFILE_CAP + 1] {
            assert_eq!(
                decision::run_oblivious(&input, &FuelBoundedObliviousCandidate::new(fuel))
                    .verdicts(),
                decision::run_oblivious(&input, &RunCandidate(fuel)).verdicts(),
                "{name}: candidate with fuel {fuel}"
            );
        }
        for cap in [4, 1 << 20] {
            assert_randomized_verdicts(
                &input,
                &RandomizedGmrDecider::new(cap),
                &RunRandomizedGmr(cap),
                &format!("{name}: randomised decider, cap {cap}"),
            );
        }
    }
}

#[test]
fn promise_deciders_match_per_node_simulation() {
    for (seed, spec) in (0u64..).zip(zoo::full_zoo()) {
        let name = spec.machine.name().to_string();
        let shortest = spec.truth.steps().map_or(3, |steps| steps.max(3) as usize);
        for n in [shortest, shortest + 9] {
            let labeled = machine_promise::instance(&spec.machine, n).unwrap();
            for ids in id_assignments(n, seed) {
                let input = Input::new(labeled.clone(), ids).unwrap();
                for cap in [2, 100_000] {
                    assert_eq!(
                        decision::run_local(&input, &PromiseHaltingDecider::new(cap)).verdicts(),
                        decision::run_local(&input, &RunPromise(cap)).verdicts(),
                        "{name} on {n} nodes: promise decider, cap {cap}"
                    );
                }
            }
            let input = Input::with_consecutive_ids(labeled).unwrap();
            for cap in [4, 1 << 16] {
                assert_randomized_verdicts(
                    &input,
                    &RandomizedPromiseDecider::new(cap),
                    &RunRandomizedPromise(cap),
                    &format!("{name} on {n} nodes: randomised promise decider, cap {cap}"),
                );
            }
        }
    }
}
