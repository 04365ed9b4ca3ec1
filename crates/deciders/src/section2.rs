//! Deciders for the Section 2 construction (bounded identifiers).

use ld_constructions::section2::{promise::CycleParamLabel, Coord, Section2Label, Section2Params};
use ld_local::enumeration::{coverage, distinct_oblivious_views_of};
use ld_local::{
    decision, IdAssignment, IdBound, Input, LocalAlgorithm, ObliviousAlgorithm, ObliviousViewRef,
    Verdict, ViewRef,
};
use std::collections::BTreeSet;

/// The Id-oblivious structure verifier: accepts exactly the locally
/// consistent Section 2 instances, i.e. it decides `P' = P ∪ {T_r}` (this is
/// the paper's "`P' ∈ LD*`" direction).
///
/// Each node checks, within radius 1:
///
/// * every visible node announces the same parameter `r`;
/// * a coordinate node's neighbourhood is exactly its layered-tree
///   neighbourhood (restricted to the instance), with missing tree
///   neighbours excused only by adjacency to a pivot;
/// * a pivot node sees exactly the border of a legal depth-`r` subtree of
///   the depth-`R(r)` tree.
#[derive(Debug, Clone)]
pub struct StructureVerifier {
    params: Section2Params,
}

impl StructureVerifier {
    /// Wraps the construction parameters.
    pub fn new(params: Section2Params) -> Self {
        StructureVerifier { params }
    }

    fn check_coordinate_node(&self, view: ObliviousViewRef<'_, Section2Label>, c: Coord) -> bool {
        let depth = self.params.big_depth();
        if c.y > depth || c.x >= (1u64 << c.y) {
            return false;
        }
        let mut neighbor_coords = BTreeSet::new();
        let mut pivot_neighbors = 0usize;
        for u in view.neighbors_of_center() {
            let label = view.label(u);
            if label.r != self.params.r() {
                return false;
            }
            match label.coord {
                Some(nc) => {
                    if !neighbor_coords.insert(nc) {
                        return false; // duplicate coordinate among neighbours
                    }
                }
                None => pivot_neighbors += 1,
            }
        }
        if pivot_neighbors > 1 {
            return false;
        }
        let expected = Section2Params::tree_neighbors(c, depth);
        // Every neighbour's coordinate must be an expected tree neighbour.
        if !neighbor_coords.iter().all(|nc| expected.contains(nc)) {
            return false;
        }
        // Every expected tree neighbour must be present, unless this node is
        // a border node of a small instance (excused by the pivot edge).
        let missing = expected.iter().any(|e| !neighbor_coords.contains(e));
        if missing && pivot_neighbors == 0 {
            return false;
        }
        true
    }

    fn check_pivot_node(&self, view: ObliviousViewRef<'_, Section2Label>) -> bool {
        let depth = self.params.big_depth();
        let r = self.params.r();
        let mut border = BTreeSet::new();
        for u in view.neighbors_of_center() {
            let label = view.label(u);
            if label.r != r {
                return false;
            }
            match label.coord {
                Some(c) => {
                    if !border.insert(c) {
                        return false;
                    }
                }
                None => return false, // a pivot adjacent to a pivot
            }
        }
        if border.is_empty() {
            return false;
        }
        // Candidate roots: ancestors (within r levels) of any border node.
        let mut candidates = BTreeSet::new();
        for c in &border {
            for k in 0..=r.min(c.y) {
                candidates.insert(Coord::new(c.x >> k, c.y - k));
            }
        }
        candidates.into_iter().any(|root| {
            root.y + r <= depth
                && root.x < (1u64 << root.y)
                && self
                    .params
                    .border_coords(root)
                    .into_iter()
                    .collect::<BTreeSet<_>>()
                    == border
        })
    }
}

impl ObliviousAlgorithm<Section2Label> for StructureVerifier {
    fn name(&self) -> &str {
        "section2-structure-verifier"
    }

    fn radius(&self) -> usize {
        1
    }

    fn evaluate(&self, view: ObliviousViewRef<'_, Section2Label>) -> Verdict {
        let label = view.center_label();
        if label.r != self.params.r() {
            return Verdict::No;
        }
        let ok = match label.coord {
            Some(c) => self.check_coordinate_node(view, c),
            None => self.check_pivot_node(view),
        };
        Verdict::from_bool(ok)
    }
}

/// The identifier-reading decider for `P` (the paper's "`P ∈ LD`"
/// direction): run the structure verifier, and additionally reject when the
/// node's own identifier is at least `R(r)` — which, under assumption (B),
/// can only happen in instances far larger than any small instance, i.e. in
/// `T_r`.
#[derive(Debug, Clone)]
pub struct IdBasedDecider {
    verifier: StructureVerifier,
    threshold: u64,
}

impl IdBasedDecider {
    /// Wraps the construction parameters.
    pub fn new(params: Section2Params) -> Self {
        let threshold = u64::from(params.big_depth());
        IdBasedDecider {
            verifier: StructureVerifier::new(params),
            threshold,
        }
    }

    /// The rejection threshold `R(r)`.
    pub fn threshold(&self) -> u64 {
        self.threshold
    }
}

impl LocalAlgorithm<Section2Label> for IdBasedDecider {
    fn name(&self) -> &str {
        "section2-id-decider"
    }

    fn radius(&self) -> usize {
        1
    }

    fn evaluate(&self, view: ViewRef<'_, Section2Label>) -> Verdict {
        if view.center_id() >= self.threshold {
            return Verdict::No;
        }
        self.verifier.evaluate(view.without_ids())
    }
}

/// Builds inputs for the Section 2 experiment: every sampled small instance
/// followed by the large instance `T_r` **as the last element** (callers
/// such as the runner's relationship-table scenario rely on this ordering),
/// each with identifiers respecting assumption (B) (consecutive
/// identifiers, which always satisfy `Id(v) < f(n)` for the monotone bounds
/// used here).
///
/// # Errors
///
/// Propagates construction errors.
pub fn experiment_inputs(
    params: &Section2Params,
    max_small: usize,
) -> ld_constructions::Result<Vec<Input<Section2Label>>> {
    let mut inputs = Vec::new();
    for small in params.sample_small_instances(max_small)? {
        let n = small.node_count();
        inputs.push(
            Input::new(small, IdAssignment::consecutive(n))
                .map_err(ld_constructions::ConstructionError::from)?,
        );
    }
    let large = params.large_instance()?;
    let n = large.node_count();
    inputs.push(
        Input::new(large, IdAssignment::consecutive(n))
            .map_err(ld_constructions::ConstructionError::from)?,
    );
    Ok(inputs)
}

/// The Figure 1 indistinguishability measurement (experiment E2): the
/// fraction of radius-`t` views of `T_r` that already occur in the sampled
/// small instances.  The paper's `P ∉ LD*` argument is precisely that this
/// coverage reaches 1 for `r ≫ t` — so any Id-oblivious algorithm accepting
/// all of `H_r` also accepts `T_r`.
///
/// # Errors
///
/// Propagates construction errors.
pub fn large_instance_view_coverage(
    params: &Section2Params,
    radius: usize,
    max_small: usize,
) -> ld_constructions::Result<f64> {
    let large_views = distinct_oblivious_views_of(&params.large_instance()?, radius);
    let mut small_views = Vec::new();
    for small in params.sample_small_instances(max_small)? {
        small_views.extend(distinct_oblivious_views_of(&small, radius));
    }
    Ok(coverage(&large_views, &small_views))
}

/// Checks that a candidate Id-oblivious algorithm cannot decide `P`: if it
/// accepts every sampled small instance it must also accept `T_r` (because
/// of the view coverage above), and accepting `T_r` is an error.  Returns
/// `true` when the candidate indeed fails on some instance of the family.
///
/// # Errors
///
/// Propagates construction errors.
pub fn oblivious_candidate_fails<A>(
    params: &Section2Params,
    candidate: &A,
    max_small: usize,
) -> ld_constructions::Result<bool>
where
    A: ObliviousAlgorithm<Section2Label>,
{
    for small in params.sample_small_instances(max_small)? {
        let n = small.node_count();
        let input = Input::new(small, IdAssignment::consecutive(n))
            .map_err(ld_constructions::ConstructionError::from)?;
        if !decision::run_oblivious(&input, candidate).accepted() {
            // Rejecting a yes-instance is already an error.
            return Ok(true);
        }
    }
    let large = params.large_instance()?;
    let n = large.node_count();
    let input = Input::new(large, IdAssignment::consecutive(n))
        .map_err(ld_constructions::ConstructionError::from)?;
    // Accepting the large instance (a no-instance of P) is an error.
    Ok(decision::run_oblivious(&input, candidate).accepted())
}

/// The identifier-reading decider for the Section 2 *promise problem*: a
/// node rejects iff its identifier is at least `f(r)`, which can never
/// happen in the `r`-cycle but does happen in the `f(r)`-cycle for the
/// identifier assignments used by the experiments (consecutive identifiers
/// starting at 1).
#[derive(Debug, Clone)]
pub struct PromiseIdDecider {
    bound: IdBound,
}

impl PromiseIdDecider {
    /// Wraps the bound function `f`.
    pub fn new(bound: IdBound) -> Self {
        PromiseIdDecider { bound }
    }
}

impl LocalAlgorithm<CycleParamLabel> for PromiseIdDecider {
    fn name(&self) -> &str {
        "section2-promise-id-decider"
    }

    fn radius(&self) -> usize {
        0
    }

    fn evaluate(&self, view: ViewRef<'_, CycleParamLabel>) -> Verdict {
        let r = view.center_label().r;
        Verdict::from_bool(view.center_id() < self.bound.apply(r))
    }
}

/// Demonstrates that the two promise instances are Id-obliviously
/// indistinguishable at radius `t`: every radius-`t` view of the
/// `f(r)`-cycle occurs in the `r`-cycle and vice versa (provided `r > 2t`).
///
/// # Errors
///
/// Propagates construction errors.
pub fn promise_views_indistinguishable(
    r: u64,
    bound: &IdBound,
    radius: usize,
    max_nodes: u64,
) -> ld_constructions::Result<bool> {
    let yes = ld_constructions::section2::promise::yes_instance(r)?;
    let no = ld_constructions::section2::promise::no_instance(r, bound, max_nodes)?;
    let yes_views = distinct_oblivious_views_of(&yes, radius);
    let no_views = distinct_oblivious_views_of(&no, radius);
    Ok(coverage(&no_views, &yes_views) == 1.0 && coverage(&yes_views, &no_views) == 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ld_constructions::section2::{SmallInstancesProperty, SmallOrLargeProperty};
    use ld_graph::NodeId;
    use ld_local::algorithm::AlwaysYes;
    use ld_local::decision::{check_decides, check_decides_oblivious};
    use ld_local::property::Property;

    fn params() -> Section2Params {
        Section2Params::new(1, IdBound::identity_plus(2)).unwrap()
    }

    #[test]
    fn structure_verifier_decides_p_prime_on_the_family() {
        let params = params();
        let verifier = StructureVerifier::new(params.clone());
        let property = SmallOrLargeProperty::new(params.clone());
        let inputs = experiment_inputs(&params, 12).unwrap();
        let report = check_decides_oblivious(&property, &verifier, &inputs);
        assert!(report.all_correct(), "errors: {:?}", report.errors);
    }

    #[test]
    fn structure_verifier_rejects_corrupted_instances() {
        let params = params();
        let verifier = StructureVerifier::new(params.clone());
        // Corrupt a small instance by changing a coordinate.
        let mut small = params.small_instance(Coord::new(0, 2)).unwrap();
        *small.label_mut(NodeId(1)) = Section2Label {
            r: 1,
            coord: Some(Coord::new(3, 6)),
        };
        let n = small.node_count();
        let input = Input::new(small, IdAssignment::consecutive(n)).unwrap();
        assert!(!decision::run_oblivious(&input, &verifier).accepted());

        // A uniform path with pivot labels everywhere is rejected.
        let junk = ld_graph::LabeledGraph::uniform(
            ld_graph::generators::path(5),
            Section2Label { r: 1, coord: None },
        );
        let input = Input::new(junk, IdAssignment::consecutive(5)).unwrap();
        assert!(!decision::run_oblivious(&input, &verifier).accepted());
    }

    #[test]
    fn id_decider_decides_p_with_bounded_identifiers() {
        let params = params();
        let decider = IdBasedDecider::new(params.clone());
        assert_eq!(decider.threshold(), u64::from(params.big_depth()));
        let property = SmallInstancesProperty::new(params.clone());
        let inputs = experiment_inputs(&params, 12).unwrap();
        // Consecutive identifiers satisfy (B): in small instances all ids are
        // below R(r); in the large instance some id reaches R(r).
        let report = check_decides(&property, &decider, &inputs);
        assert!(report.all_correct(), "errors: {:?}", report.errors);
    }

    #[test]
    fn large_instance_views_are_partially_covered_by_small_instances() {
        // With r = t = 1 the coverage is necessarily partial (the paper's
        // full-coverage claim needs r >> t); the measured values for larger
        // r are recorded by experiment E2 / EXPERIMENTS.md.
        let params = params();
        let c = large_instance_view_coverage(&params, 1, usize::MAX).unwrap();
        assert!(c > 0.0 && c <= 1.0, "coverage = {c}");
        // Coverage can only improve when more structure fits inside the
        // small instances, i.e. when the view radius shrinks.
        let c0 = large_instance_view_coverage(&params, 0, usize::MAX).unwrap();
        assert!(c0 >= c, "radius-0 coverage {c0} < radius-1 coverage {c}");
    }

    #[test]
    fn every_oblivious_candidate_in_the_harness_fails() {
        let params = params();
        // The always-yes candidate accepts T_r: failure.
        assert!(oblivious_candidate_fails(&params, &AlwaysYes, 8).unwrap());
        // The structure verifier for P' also accepts T_r: failure as a
        // decider for P.
        let verifier = StructureVerifier::new(params.clone());
        assert!(oblivious_candidate_fails(&params, &verifier, 8).unwrap());
        // The truncated Id-oblivious simulation of the Id-based decider
        // accepts everything when its identifier universe is small (it can
        // never exhibit an id >= R(r)): failure again.
        let simulated = ld_local::simulation::ObliviousSimulation::new(
            IdBasedDecider::new(params.clone()),
            u64::from(params.big_depth()).min(6),
        );
        assert!(oblivious_candidate_fails(&params, &simulated, 4).unwrap());
    }

    #[test]
    fn promise_problem_id_decider_and_indistinguishability() {
        let bound = IdBound::linear(3, 0);
        let r = 7u64;
        let decider = PromiseIdDecider::new(bound.clone());
        let yes = ld_constructions::section2::promise::yes_instance(r).unwrap();
        let no = ld_constructions::section2::promise::no_instance(r, &bound, 10_000).unwrap();
        let property = ld_constructions::section2::promise::AnnouncedLengthProperty;
        assert!(property.contains(&yes));
        assert!(!property.contains(&no));

        // Identifiers start at 1 so that the f(r)-cycle contains an id >= f(r).
        let yes_input = Input::new(yes, IdAssignment::consecutive_from(r as usize, 1)).unwrap();
        let no_input = Input::new(
            no,
            IdAssignment::consecutive_from(bound.apply(r) as usize, 1),
        )
        .unwrap();
        assert!(decision::run_local(&yes_input, &decider).accepted());
        assert!(!decision::run_local(&no_input, &decider).accepted());

        // At radius 2 with r = 7 > 2*2 the two cycles are Id-obliviously
        // indistinguishable.
        assert!(promise_views_indistinguishable(r, &bound, 2, 10_000).unwrap());
    }
}
