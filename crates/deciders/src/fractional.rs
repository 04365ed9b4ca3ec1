//! Fractional-colouring verification (Bousquet–Esperet–Pirot, arXiv
//! 2012.01752): the first decider family beyond the source paper's own
//! sections.
//!
//! A fractional `(p:q)`-colouring assigns every node a set of exactly `q`
//! colours from `0..p` (a `u64` bitmask) with adjacent sets disjoint.  The
//! property is locally checkable at radius 1 — each node verifies its own
//! set and its disjointness from every neighbour's — so the Id-oblivious
//! [`FractionalVerifier`] decides it in the paper's `LD*` sense.  Odd
//! cycles are the canonical instance family: `C_{2k+1}` admits the
//! `(2k+1 : k)`-colouring built by [`yes_instance`] and nothing denser,
//! and [`no_instance`] plants a single adjacent overlap that exactly one
//! edge's endpoints can see.

use ld_graph::{generators, LabeledGraph};
use ld_local::property::FractionalColoring;
use ld_local::{ObliviousAlgorithm, ObliviousViewRef, Verdict};

/// The radius-1 Id-oblivious verifier for fractional `(p:q)`-colouring:
/// accept iff the centre's colour set is well-formed and disjoint from
/// every neighbour's.  The conjunction of all verdicts equals
/// [`Property::contains`](ld_local::property::Property::contains) for
/// [`FractionalColoring`] — pinned by `check_decides_oblivious`
/// in this module's tests.
#[derive(Debug, Clone, Copy)]
pub struct FractionalVerifier {
    property: FractionalColoring,
}

impl FractionalVerifier {
    /// Verifier for `(colors : set_size)`-colourings.
    pub fn new(colors: u32, set_size: u32) -> Self {
        FractionalVerifier {
            property: FractionalColoring::new(colors, set_size),
        }
    }

    /// The property this verifier decides.
    pub fn property(&self) -> FractionalColoring {
        self.property
    }
}

impl ObliviousAlgorithm<u64> for FractionalVerifier {
    fn name(&self) -> &str {
        "fractional-coloring-verifier"
    }

    fn radius(&self) -> usize {
        1
    }

    fn evaluate(&self, view: ObliviousViewRef<'_, u64>) -> Verdict {
        let center = *view.center_label();
        if !self.property.well_formed(center) {
            return Verdict::No;
        }
        let disjoint = view
            .neighbors_of_center()
            .all(|v| center & view.label(v) == 0);
        Verdict::from_bool(disjoint)
    }
}

/// The canonical `(2k+1 : k)`-colouring of the odd cycle `C_{2k+1}`:
/// vertex `i` gets the `k` consecutive colours `{ik, …, ik + k − 1}` mod
/// `2k+1`.  Adjacent windows start `k` apart on a `(2k+1)`-circle, so they
/// never overlap — a yes-instance of `(2k+1 : k)`-colouring, and the
/// densest one an odd cycle admits.
///
/// # Errors
///
/// Returns a message when `k` is 0 (no colour sets) or above 31 (the
/// `2k+1` colours no longer fit a `u64` bitmask).
pub fn yes_instance(k: u32) -> Result<LabeledGraph<u64>, String> {
    if k == 0 || k > 31 {
        return Err(format!("fractional cycles need 1 <= k <= 31 (got {k})"));
    }
    let p = u64::from(2 * k + 1);
    let labels: Vec<u64> = (0..p)
        .map(|i| {
            (0..u64::from(k)).fold(0u64, |set, offset| {
                set | 1 << ((i * u64::from(k) + offset) % p)
            })
        })
        .collect();
    LabeledGraph::new(generators::cycle(p as usize), labels)
        .map_err(|e| format!("fractional cycle construction: {e}"))
}

/// The yes-instance with vertex 0's window `{0, …, k−1}` nudged to
/// `{1, …, k}`: still a well-formed set, now meeting vertex 1's window
/// `{k, …, 2k−1}` in exactly `{k}` while staying disjoint from vertex
/// `2k`'s window `{k+1, …, 2k}` — so the violation is visible to the
/// radius-1 views centred at 0 and 1 and to no other node.
///
/// # Errors
///
/// Same domain as [`yes_instance`].
pub fn no_instance(k: u32) -> Result<LabeledGraph<u64>, String> {
    let yes = yes_instance(k)?;
    let mut labels = yes.labels().to_vec();
    labels[0] = (labels[0] & !1) | (1 << k);
    LabeledGraph::new(yes.graph().clone(), labels)
        .map_err(|e| format!("fractional cycle construction: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ld_local::decision::{check_decides_oblivious, run_oblivious};
    use ld_local::property::Property;
    use ld_local::{IdAssignment, Input};

    #[test]
    fn canonical_coloring_is_a_yes_instance() {
        for k in [1u32, 2, 5, 31] {
            let yes = yes_instance(k).unwrap();
            let property = FractionalColoring::new(2 * k + 1, k);
            assert!(property.contains(&yes), "k = {k}");
            let verifier = FractionalVerifier::new(2 * k + 1, k);
            let input = Input::new(yes, IdAssignment::consecutive(2 * k as usize + 1)).unwrap();
            assert!(run_oblivious(&input, &verifier).accepted(), "k = {k}");
        }
    }

    #[test]
    fn corrupted_instance_is_rejected_locally() {
        let no = no_instance(3).unwrap();
        let property = FractionalColoring::new(7, 3);
        assert!(!property.contains(&no));
        let verifier = FractionalVerifier::new(7, 3);
        let input = Input::new(no, IdAssignment::consecutive(7)).unwrap();
        let decision = run_oblivious(&input, &verifier);
        assert!(!decision.accepted());
        // The defect is the {0, 1} edge: exactly its endpoints reject.
        assert_eq!(decision.rejecting_nodes().len(), 2);
    }

    #[test]
    fn verifier_decides_the_property_on_assorted_labelings() {
        let verifier = FractionalVerifier::new(5, 2);
        let property = verifier.property();
        // Exhausting all labelings of C_5 is too big; a seeded spread of
        // mostly-invalid and occasionally-valid colourings exercises both
        // verdicts.
        let inputs: Vec<Input<u64>> = (0u64..64)
            .map(|seed| {
                let labels: Vec<u64> = (0..5)
                    .map(|i| (seed.rotate_left(i * 13) % 32) | u64::from(i == 0))
                    .collect();
                let labeled = LabeledGraph::new(generators::cycle(5), labels).unwrap();
                Input::new(labeled, IdAssignment::consecutive(5)).unwrap()
            })
            .chain([Input::new(yes_instance(2).unwrap(), IdAssignment::consecutive(5)).unwrap()])
            .collect();
        let report = check_decides_oblivious(&property, &verifier, &inputs);
        assert!(report.all_correct(), "errors: {:?}", report.errors);
    }

    #[test]
    fn out_of_range_k_is_rejected() {
        assert!(yes_instance(0).is_err());
        assert!(yes_instance(32).is_err());
        assert!(no_instance(0).is_err());
    }
}
