//! The generic Id-oblivious simulation `A*` (Section 1, "Id-oblivious
//! simulation").
//!
//! Given an identifier-reading algorithm `A`, the paper defines the
//! Id-oblivious algorithm `A*` that outputs `no` at a node iff *some* local
//! identifier assignment makes `A` output `no` on the same (Id-free) view.
//! Under (¬B, ¬C) this simulation is exact and shows LD\* = LD; under (B) or
//! (C) the paper proves no such simulation can exist in general.
//!
//! The search over "all assignments `Id' : V(G') → N`" ranges over an
//! infinite domain, which is exactly why `A*` need not be computable.  The
//! executable version here is parameterised by a finite identifier universe
//! `0..universe` (documented substitution, `DESIGN.md` §2): with a universe
//! of at least `f(n)` it is exact for bounded-identifier inputs, and the
//! experiments show how its verdicts flip as the universe grows — the
//! mechanism behind both separations.

use crate::algorithm::{LocalAlgorithm, ObliviousAlgorithm, Verdict};
use crate::view::ObliviousViewRef;

/// The truncated Id-oblivious simulation `A*` of an identifier-reading
/// algorithm.
///
/// `evaluate` outputs [`Verdict::No`] iff some injective assignment of
/// identifiers from `0..universe` to the nodes of the view makes the inner
/// algorithm output `No`.
#[derive(Debug, Clone)]
pub struct ObliviousSimulation<A> {
    name: String,
    inner: A,
    universe: u64,
}

impl<A> ObliviousSimulation<A> {
    /// Wraps `inner`, searching identifier assignments drawn from
    /// `0..universe`.
    pub fn new(inner: A, universe: u64) -> Self {
        let name = format!("oblivious-simulation[universe {universe}]");
        ObliviousSimulation {
            name,
            inner,
            universe,
        }
    }

    /// The identifier universe bound used by the search.
    pub fn universe(&self) -> u64 {
        self.universe
    }

    /// The wrapped algorithm.
    pub fn inner(&self) -> &A {
        &self.inner
    }
}

impl<L, A: LocalAlgorithm<L>> ObliviousAlgorithm<L> for ObliviousSimulation<A> {
    fn name(&self) -> &str {
        &self.name
    }

    fn radius(&self) -> usize {
        self.inner.radius()
    }

    fn evaluate(&self, view: ObliviousViewRef<'_, L>) -> Verdict {
        let k = view.node_count();
        if (self.universe as u128) < k as u128 {
            // Not enough identifiers to label the view at all: no assignment
            // exists, hence no rejecting assignment exists.
            return Verdict::Yes;
        }
        let mut assignment: Vec<u64> = vec![0; k];
        let mut used = vec![false; self.universe as usize];
        if search_rejecting_assignment(&self.inner, view, &mut assignment, &mut used, 0) {
            Verdict::No
        } else {
            Verdict::Yes
        }
    }
}

fn search_rejecting_assignment<L, A: LocalAlgorithm<L>>(
    inner: &A,
    view: ObliviousViewRef<'_, L>,
    assignment: &mut Vec<u64>,
    used: &mut Vec<bool>,
    position: usize,
) -> bool {
    if position == assignment.len() {
        // The assignment is overlaid on the borrowed view: no copy of the
        // view per assignment tried.
        return inner.evaluate(view.with_ids(assignment)).is_no();
    }
    for candidate in 0..used.len() as u64 {
        if used[candidate as usize] {
            continue;
        }
        used[candidate as usize] = true;
        assignment[position] = candidate;
        if search_rejecting_assignment(inner, view, assignment, used, position + 1) {
            used[candidate as usize] = false;
            return true;
        }
        used[candidate as usize] = false;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::FnLocal;
    use crate::decision::{run_local, run_oblivious};
    use crate::ids::IdAssignment;
    use crate::input::Input;
    use crate::view::ViewRef;
    use ld_graph::{generators, LabeledGraph};

    /// The max-id based "small graph" decider: accept iff no identifier
    /// `>= threshold` is visible.  With bounded identifiers this decides
    /// "n < threshold-ish" — the mechanism of Section 2.
    fn small_id_decider(threshold: u64) -> FnLocal<impl Fn(ViewRef<u8>) -> Verdict> {
        FnLocal::new("ids-below-threshold", 1, move |view: ViewRef<u8>| {
            Verdict::from_bool(view.max_id().unwrap_or(0) < threshold)
        })
    }

    fn cycle_input(n: usize) -> Input<u8> {
        let lg = LabeledGraph::uniform(generators::cycle(n), 0u8);
        Input::new(lg, IdAssignment::consecutive(n)).unwrap()
    }

    #[test]
    fn simulation_rejects_iff_some_assignment_rejects() {
        let inner = small_id_decider(10);
        // Universe 5: no assignment can reach id 10, so A* always accepts.
        let accepting = ObliviousSimulation::new(inner, 5);
        let input = cycle_input(6);
        assert!(run_oblivious(&input, &accepting).accepted());

        // Universe 50: some assignment places an id >= 10 in the view, so A*
        // rejects everywhere.
        let inner = small_id_decider(10);
        let rejecting = ObliviousSimulation::new(inner, 50);
        assert!(!run_oblivious(&input, &rejecting).accepted());
        assert_eq!(rejecting.universe(), 50);
        assert!(ObliviousAlgorithm::<u8>::name(&rejecting).contains("universe"));
    }

    #[test]
    fn simulation_with_tiny_universe_accepts_vacuously() {
        let inner = small_id_decider(1);
        let sim = ObliviousSimulation::new(inner, 2);
        // Radius-1 views of a cycle have 3 nodes > universe 2: vacuous accept.
        let input = cycle_input(8);
        assert!(run_oblivious(&input, &sim).accepted());
    }

    #[test]
    fn simulation_is_conservative_with_respect_to_the_inner_algorithm() {
        // Whenever the inner algorithm rejects the *actual* input (with ids
        // drawn from the universe), the simulation also rejects — it searches
        // a superset of assignments.
        let input = cycle_input(5);
        let inner = small_id_decider(4);
        assert!(!run_local(&input, &inner).accepted());
        let sim = ObliviousSimulation::new(small_id_decider(4), 5);
        assert!(!run_oblivious(&input, &sim).accepted());
    }

    #[test]
    fn simulation_verdict_is_invariant_under_id_reassignment() {
        // The defining feature of an Id-oblivious algorithm: reassigning the
        // identifiers of the input does not change any node's output.
        let sim = ObliviousSimulation::new(small_id_decider(6), 8);
        let input_a = cycle_input(6);
        let input_b = input_a
            .with_ids(IdAssignment::consecutive_from(6, 40))
            .unwrap();
        let a = run_oblivious(&input_a, &sim);
        let b = run_oblivious(&input_b, &sim);
        assert_eq!(a.verdicts(), b.verdicts());
    }
}
