//! Deciders for the Section 3 construction (computability).

use ld_constructions::fragments::FragmentSource;
use ld_constructions::section3::{
    build_gmr, neighborhood_generator, promise::MachineLabel, Section3Label,
};

use ld_local::{
    decision, IdAssignment, Input, LocalAlgorithm, ObliviousAlgorithm, ObliviousViewRef, Verdict,
    ViewRef,
};
use ld_turing::{zoo::MachineSpec, SharedMachine, Symbol, TuringMachine};

/// The Section 3 verdict rule shared by the two-stage decider, the
/// fuel-bounded candidates and Corollary 1's randomised decider: reject iff
/// `M` is seen to halt within `budget` steps with a non-zero output.  The
/// machine handle answers from its halting profile, so a decision loop
/// simulates `M` once per instance, not once per node.
pub(crate) fn rejects_on_nonzero_output(machine: &SharedMachine, budget: u64) -> Verdict {
    match machine.halted_within(budget) {
        Some(output) if output != Symbol(0) => Verdict::No,
        _ => Verdict::Yes,
    }
}

/// The promise problem's verdict rule: reject iff `M` is seen to halt
/// within `budget` steps.
pub(crate) fn rejects_on_halting(machine: &SharedMachine, budget: u64) -> Verdict {
    if machine.halted_within(budget).is_some() {
        Verdict::No
    } else {
        Verdict::Yes
    }
}

/// The two-stage identifier-reading decider of Theorem 2 (`P ∈ LD` under
/// (C)).
///
/// Stage 1 is the local structural test (property (P2)); here it checks that
/// every visible node announces the same `(M, r)` and that the mod-3
/// orientation of neighbouring cells is consistent (the full Appendix A
/// verifier is approximated — the exact global membership test lives in
/// `ld_constructions::section3::GmrOutputsZeroProperty`).
///
/// Stage 2 simulates `M` for `Id(v)` steps (capped at `fuel_cap` so that the
/// experiments terminate; the cap plays the role of the unbounded identifier
/// magnitude of the paper).  If the simulation finishes and the output is
/// not 0, the node rejects.
#[derive(Debug, Clone)]
pub struct TwoStageIdDecider {
    fuel_cap: u64,
}

impl TwoStageIdDecider {
    /// Creates the decider with the given simulation cap.
    pub fn new(fuel_cap: u64) -> Self {
        TwoStageIdDecider { fuel_cap }
    }

    fn structure_ok(view: ViewRef<'_, Section3Label>) -> bool {
        // Stage 1 (pragmatic subset of (P2)): every visible node announces
        // the same machine and locality parameter, and the mod-3 coordinates
        // are in range.  The exact global structure test is
        // `ld_constructions::section3::GmrOutputsZeroProperty`.
        let center = view.center_label();
        view.nodes().all(|v| {
            let l = view.label(v);
            l.machine == center.machine && l.r == center.r && l.x_mod3 < 3 && l.y_mod3 < 3
        })
    }
}

impl LocalAlgorithm<Section3Label> for TwoStageIdDecider {
    fn name(&self) -> &str {
        "section3-two-stage-id-decider"
    }

    fn radius(&self) -> usize {
        1
    }

    fn evaluate(&self, view: ViewRef<'_, Section3Label>) -> Verdict {
        if !Self::structure_ok(view) {
            return Verdict::No;
        }
        let budget = view.center_id().min(self.fuel_cap);
        rejects_on_nonzero_output(&view.center_label().machine, budget)
    }
}

/// A fuel-bounded Id-oblivious candidate decider: simulate `M` for a fixed
/// number of steps and reject when it is seen to halt with a non-zero
/// output.
///
/// Without identifiers there is no instance-dependent handle on `M`'s
/// running time, so for every fixed fuel there is a machine in `L₁` that the
/// candidate wrongly accepts — the executable face of `P ∉ LD*`.
#[derive(Debug, Clone)]
pub struct FuelBoundedObliviousCandidate {
    name: String,
    fuel: u64,
}

impl FuelBoundedObliviousCandidate {
    /// Creates the candidate with the given fixed simulation fuel.
    pub fn new(fuel: u64) -> Self {
        FuelBoundedObliviousCandidate {
            name: format!("oblivious-fuel-{fuel}"),
            fuel,
        }
    }

    /// The fixed fuel budget.
    pub fn fuel(&self) -> u64 {
        self.fuel
    }
}

impl ObliviousAlgorithm<Section3Label> for FuelBoundedObliviousCandidate {
    fn name(&self) -> &str {
        &self.name
    }

    fn radius(&self) -> usize {
        1
    }

    fn evaluate(&self, view: ObliviousViewRef<'_, Section3Label>) -> Verdict {
        rejects_on_nonzero_output(&view.center_label().machine, self.fuel)
    }
}

/// Builds the experiment input for one machine: `G(M, r)` with consecutive
/// identifiers (so some identifier is at least the run time, as guaranteed
/// by property (P1): the table alone has `(s+1)²` nodes).
///
/// # Errors
///
/// Propagates construction errors (in particular when `M` does not halt
/// within `fuel`).
pub fn gmr_input(
    machine: &TuringMachine,
    r: u32,
    fuel: u64,
    source: FragmentSource,
) -> ld_constructions::Result<Input<Section3Label>> {
    let instance = build_gmr(machine, r, fuel, source)?;
    let n = instance.labeled().node_count();
    Input::new(instance.into_labeled(), IdAssignment::consecutive(n))
        .map_err(ld_constructions::ConstructionError::from)
}

/// The paper's separation algorithm `R`: given an Id-oblivious candidate
/// `A*` with horizon `t = r` and a machine `N`, compute the neighbourhood
/// set `B(N, r)` and accept `N` iff `A*` accepts every view in it.
///
/// If `A*` really decided `P`, this procedure would separate `L₀` from `L₁`,
/// which is impossible; [`separation_harness`] exhibits the failure on the
/// machine zoo.
///
/// # Errors
///
/// Propagates construction errors.
pub fn separation_algorithm<A>(
    candidate: &A,
    machine: &TuringMachine,
    r: u32,
    source: FragmentSource,
) -> ld_constructions::Result<bool>
where
    A: ObliviousAlgorithm<Section3Label>,
{
    let views = neighborhood_generator(machine, r, source)?;
    Ok(views
        .iter()
        .all(|v| candidate.evaluate(v.as_view()).is_yes()))
}

/// The outcome of running the separation harness on a machine zoo.
#[derive(Debug, Clone, Default)]
pub struct SeparationReport {
    /// Machines in `L₀` wrongly rejected by the candidate-driven separator.
    pub rejected_l0: Vec<String>,
    /// Machines in `L₁` wrongly accepted by the candidate-driven separator.
    pub accepted_l1: Vec<String>,
}

impl SeparationReport {
    /// `true` when the candidate failed to separate the zoo (which Lemma 1
    /// says must happen for every computable candidate once the zoo is rich
    /// enough).
    pub fn candidate_fails(&self) -> bool {
        !self.rejected_l0.is_empty() || !self.accepted_l1.is_empty()
    }
}

/// Runs the separation algorithm over a machine zoo and reports on which
/// machines the candidate-driven separator errs.
///
/// # Errors
///
/// Propagates construction errors.
pub fn separation_harness<A>(
    candidate: &A,
    zoo: &[MachineSpec],
    r: u32,
    source: FragmentSource,
) -> ld_constructions::Result<SeparationReport>
where
    A: ObliviousAlgorithm<Section3Label>,
{
    let mut report = SeparationReport::default();
    for spec in zoo {
        let accepted = separation_algorithm(candidate, &spec.machine, r, source)?;
        if spec.in_l0() && !accepted {
            report.rejected_l0.push(spec.machine.name().to_string());
        }
        if spec.in_l1() && accepted {
            report.accepted_l1.push(spec.machine.name().to_string());
        }
    }
    Ok(report)
}

/// The identifier-reading decider for the Section 3 *promise problem* `R`:
/// simulate `M` for `Id(v)` steps and reject if it halts.  Under the promise
/// (the cycle is at least as long as `M`'s running time) some node has a
/// large enough identifier to finish the simulation.
#[derive(Debug, Clone)]
pub struct PromiseHaltingDecider {
    fuel_cap: u64,
}

impl PromiseHaltingDecider {
    /// Creates the decider with a safety cap on simulation length.
    pub fn new(fuel_cap: u64) -> Self {
        PromiseHaltingDecider { fuel_cap }
    }
}

impl LocalAlgorithm<MachineLabel> for PromiseHaltingDecider {
    fn name(&self) -> &str {
        "section3-promise-id-decider"
    }

    fn radius(&self) -> usize {
        0
    }

    fn evaluate(&self, view: ViewRef<'_, MachineLabel>) -> Verdict {
        let budget = view.center_id().min(self.fuel_cap);
        rejects_on_halting(&view.center_label().machine, budget)
    }
}

/// Runs the Theorem 2 experiment over a machine zoo: the two-stage decider
/// must accept `G(M, r)` exactly when `M` outputs 0, and every fuel-bounded
/// oblivious candidate must err on some machine whose running time exceeds
/// its fuel.  Returns `(id_decider_correct, failing_candidates)`.
///
/// Each halting machine's `G(M, r)` is built once and decided by the
/// identifier-reading decider and by every candidate that has not yet erred.
///
/// # Errors
///
/// Propagates construction errors.
pub fn theorem2_experiment(
    zoo: &[MachineSpec],
    r: u32,
    fuel: u64,
    source: FragmentSource,
    candidate_fuels: &[u64],
) -> ld_constructions::Result<(bool, Vec<u64>)> {
    let id_decider = TwoStageIdDecider::new(fuel);
    let candidates: Vec<FuelBoundedObliviousCandidate> = candidate_fuels
        .iter()
        .map(|&candidate_fuel| FuelBoundedObliviousCandidate::new(candidate_fuel))
        .collect();
    let mut id_correct = true;
    let mut errs = vec![false; candidates.len()];
    for spec in zoo.iter().filter(|s| s.truth.halts()) {
        let input = gmr_input(&spec.machine, r, fuel, source)?;
        if decision::run_local(&input, &id_decider).accepted() != spec.in_l0() {
            id_correct = false;
        }
        for (candidate, errs) in candidates.iter().zip(&mut errs) {
            if !*errs && decision::run_oblivious(&input, candidate).accepted() != spec.in_l0() {
                *errs = true;
            }
        }
    }
    let failing = candidate_fuels
        .iter()
        .zip(errs)
        .filter_map(|(&candidate_fuel, errs)| errs.then_some(candidate_fuel))
        .collect();
    Ok((id_correct, failing))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ld_graph::NodeId;
    use ld_turing::zoo;

    const SOURCE: FragmentSource = FragmentSource::WindowsAndDecoys;

    #[test]
    fn two_stage_decider_is_correct_on_small_zoo() {
        let decider = TwoStageIdDecider::new(10_000);
        for spec in [
            zoo::halts_with_output(2, Symbol(0)),
            zoo::halts_with_output(2, Symbol(1)),
            zoo::halts_with_output(5, Symbol(0)),
            zoo::halts_with_output(5, Symbol(1)),
        ] {
            let input = gmr_input(&spec.machine, 1, 10_000, SOURCE).unwrap();
            let accepted = decision::run_local(&input, &decider).accepted();
            assert_eq!(accepted, spec.in_l0(), "machine {}", spec.machine.name());
        }
    }

    #[test]
    fn rejecting_node_has_a_large_identifier() {
        let spec = zoo::halts_with_output(3, Symbol(1));
        let decider = TwoStageIdDecider::new(10_000);
        let input = gmr_input(&spec.machine, 1, 10_000, SOURCE).unwrap();
        let decision = decision::run_local(&input, &decider);
        assert!(!decision.accepted());
        let steps = spec.truth.steps().unwrap();
        for v in decision.rejecting_nodes() {
            assert!(
                input.id(v) >= steps,
                "node {v} rejected with id {}",
                input.id(v)
            );
        }
    }

    #[test]
    fn structure_stage_rejects_mismatched_labels() {
        let spec_a = zoo::halts_with_output(2, Symbol(0));
        let spec_b = zoo::halts_with_output(3, Symbol(0));
        let decider = TwoStageIdDecider::new(10_000);
        let instance = build_gmr(&spec_a.machine, 1, 100, SOURCE).unwrap();
        let mut corrupted = instance.into_labeled();
        corrupted.label_mut(NodeId(0)).machine = SharedMachine::new(spec_b.machine.clone());
        let n = corrupted.node_count();
        let input = Input::new(corrupted, IdAssignment::consecutive(n)).unwrap();
        assert!(!decision::run_local(&input, &decider).accepted());
    }

    #[test]
    fn fuel_bounded_candidates_fail_on_long_runners() {
        // A candidate with fuel 4 cannot see the halting of a machine that
        // runs for 6 steps, so it wrongly accepts G(M, r) for an L1 machine.
        let long_l1 = zoo::halts_with_output(5, Symbol(1));
        let candidate = FuelBoundedObliviousCandidate::new(4);
        assert_eq!(candidate.fuel(), 4);
        let input = gmr_input(&long_l1.machine, 1, 10_000, SOURCE).unwrap();
        assert!(decision::run_oblivious(&input, &candidate).accepted());
        // Yet the same candidate is fine on short machines — the failure is
        // intrinsically about the missing bound on the running time.
        let short_l1 = zoo::halts_with_output(1, Symbol(1));
        let input = gmr_input(&short_l1.machine, 1, 10_000, SOURCE).unwrap();
        assert!(!decision::run_oblivious(&input, &candidate).accepted());
    }

    #[test]
    fn separation_harness_defeats_every_fuel_bounded_candidate() {
        let zoo_machines = vec![
            zoo::halts_with_output(2, Symbol(0)),
            zoo::halts_with_output(9, Symbol(1)),
        ];
        let candidate = FuelBoundedObliviousCandidate::new(5);
        let report = separation_harness(&candidate, &zoo_machines, 1, SOURCE).unwrap();
        assert!(report.candidate_fails());
        assert!(report
            .accepted_l1
            .contains(&zoo_machines[1].machine.name().to_string()));
    }

    #[test]
    fn separation_algorithm_halts_on_nonhalting_machines() {
        let candidate = FuelBoundedObliviousCandidate::new(5);
        let spec = zoo::infinite_loop();
        // The point of property (P3): the separator halts even here.
        let accepted = separation_algorithm(&candidate, &spec.machine, 1, SOURCE).unwrap();
        assert!(accepted);
    }

    #[test]
    fn theorem2_experiment_summary() {
        let zoo_machines = vec![
            zoo::halts_with_output(1, Symbol(0)),
            zoo::halts_with_output(6, Symbol(1)),
        ];
        let (id_ok, failing) =
            theorem2_experiment(&zoo_machines, 1, 10_000, SOURCE, &[2, 100]).unwrap();
        assert!(id_ok);
        // The fuel-2 candidate misses the 7-step L1 machine; the fuel-100
        // candidate happens to be correct on this tiny zoo.
        assert_eq!(failing, vec![2]);
    }

    #[test]
    fn promise_decider_handles_both_sides() {
        let decider = PromiseHaltingDecider::new(100_000);
        let halting = zoo::halts_with_output(6, Symbol(1));
        let forever = zoo::infinite_loop();
        let no = ld_constructions::section3::promise::instance(&halting.machine, 12).unwrap();
        let yes = ld_constructions::section3::promise::instance(&forever.machine, 12).unwrap();
        let no_input = Input::new(no, IdAssignment::consecutive(12)).unwrap();
        let yes_input = Input::new(yes, IdAssignment::consecutive(12)).unwrap();
        assert!(!decision::run_local(&no_input, &decider).accepted());
        assert!(decision::run_local(&yes_input, &decider).accepted());
    }
}
