//! Borrowed views against owned views.
//!
//! The decision loops hand algorithms a [`ViewRef`] / [`ObliviousViewRef`]
//! read in place from a `BallExtractor`'s BFS scratch and the input's own
//! label and identifier slices.  Two properties make that invisible:
//!
//! - **Accessors.** For every node at radii `0..=3` the scratch-backed view
//!   equals `Input::view(v, t)` read through `as_view()` (the identity
//!   mapping onto an owned graph) in every accessor: node order, labels,
//!   identifiers, distances, neighbours, spheres, and the materialised
//!   value.  The graphs are the shared adversarial families of
//!   `ld_tests::strategies` plus the Section 2/3 constructions.
//! - **Verdicts.** `run_local`, `run_oblivious` and `run_randomized` (same
//!   seed) give the verdict vector of a loop that builds an owned view per
//!   node, for every decider in `ld-deciders` and `ld-local`.

use ld_tests::strategies::{build_case, COLOUR_MODES, FAMILY_COUNT};
use local_decision::constructions::pyramid::Pyramid;
use local_decision::constructions::section2::promise;
use local_decision::constructions::section3::promise as machine_promise;
use local_decision::deciders::fractional::{self, FractionalVerifier};
use local_decision::deciders::randomized::{RandomizedGmrDecider, RandomizedPromiseDecider};
use local_decision::deciders::section2::{experiment_inputs, PromiseIdDecider};
use local_decision::deciders::section3::{gmr_input, PromiseHaltingDecider};
use local_decision::graph::BallExtractor;
use local_decision::local::algorithm::{
    AlwaysNo, AlwaysYes, OrderInvariantAlgorithm, OrderInvariantAsLocal,
    RandomizedObliviousAlgorithm,
};
use local_decision::local::simulation::ObliviousSimulation;
use local_decision::local::ObliviousAsLocal;
use local_decision::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Debug;

const MAX_RADIUS: usize = 3;

/// Seeds per `(family, colour mode)` pair of the shared strategies.
const SEEDS: u64 = 4;

/// The shared adversarial families as inputs with shuffled identifiers.
/// Family 5 is disconnected by design, so connectivity is not checked:
/// its balls stop at a component boundary.
fn strategy_inputs() -> Vec<Input<u8>> {
    let mut inputs = Vec::new();
    for family in 0..FAMILY_COUNT {
        for mode in 0..COLOUR_MODES {
            for seed in 0..SEEDS {
                let case = build_case(family, mode, seed);
                let n = case.graph.node_count();
                let labeled = LabeledGraph::new(case.graph, case.labels).unwrap();
                let ids = IdAssignment::shuffled(n, &mut StdRng::seed_from_u64(seed));
                inputs.push(Input::new_unchecked_connectivity(labeled, ids).unwrap());
            }
        }
    }
    inputs
}

/// Asserts that two Id-oblivious views agree in every accessor.
fn assert_same_oblivious<L: PartialEq + Debug>(
    got: ObliviousViewRef<'_, L>,
    want: ObliviousViewRef<'_, L>,
    context: &str,
) {
    assert_eq!(got.node_count(), want.node_count(), "{context}");
    assert_eq!(got.center(), want.center(), "{context}");
    assert_eq!(got.radius(), want.radius(), "{context}");
    assert_eq!(
        got.nodes().collect::<Vec<_>>(),
        want.nodes().collect::<Vec<_>>(),
        "{context}"
    );
    assert_eq!(got.center_label(), want.center_label(), "{context}");
    assert_eq!(
        got.labels().collect::<Vec<_>>(),
        want.labels().collect::<Vec<_>>(),
        "{context}"
    );
    assert_eq!(
        got.neighbors_of_center().collect::<Vec<_>>(),
        want.neighbors_of_center().collect::<Vec<_>>(),
        "{context}"
    );
    for v in want.nodes() {
        assert_eq!(got.label(v), want.label(v), "{context}, {v}");
        assert_eq!(got.distance(v), want.distance(v), "{context}, {v}");
        assert_eq!(
            got.neighbors(v).collect::<Vec<_>>(),
            want.neighbors(v).collect::<Vec<_>>(),
            "{context}, neighbours of {v}"
        );
    }
    for d in 0..=want.radius() + 1 {
        assert_eq!(
            got.sphere(d).collect::<Vec<_>>(),
            want.sphere(d).collect::<Vec<_>>(),
            "{context}, sphere {d}"
        );
    }
}

/// Asserts that two views with identifiers agree in every accessor.
fn assert_same_view<L: PartialEq + Debug>(
    got: ViewRef<'_, L>,
    want: ViewRef<'_, L>,
    context: &str,
) {
    assert_same_oblivious(got.without_ids(), want.without_ids(), context);
    assert_eq!(got.center_id(), want.center_id(), "{context}");
    assert_eq!(got.max_id(), want.max_id(), "{context}");
    assert_eq!(
        got.ids().collect::<Vec<_>>(),
        want.ids().collect::<Vec<_>>(),
        "{context}"
    );
    for v in want.nodes() {
        assert_eq!(got.id(v), want.id(v), "{context}, {v}");
    }
}

/// Checks every node of `input` at radii `0..=MAX_RADIUS`: the scratch
/// view against the owned view's borrow, the owned view against one
/// assembled from `Graph::ball` with distances recomputed by BFS, and the
/// materialised scratch views against the owned values.
fn check_every_view<L: Clone + PartialEq + Debug>(input: &Input<L>, name: &str) {
    let mut extractor = BallExtractor::new();
    for v in input.graph().nodes() {
        for radius in 0..=MAX_RADIUS {
            let context = format!("{name}, node {v}, radius {radius}");
            let owned = input.view(v, radius);
            let ball = input.graph().ball(v, radius);
            let from_ball = View::from_parts(
                ball.graph().clone(),
                ball.center(),
                radius,
                ball.mapping()
                    .iter()
                    .map(|&u| input.label(u).clone())
                    .collect(),
                ball.mapping().iter().map(|&u| input.id(u)).collect(),
            );
            assert_eq!(owned, from_ball, "{context}");

            let scanned = input.view_in(&mut extractor, v, radius);
            assert_same_view(scanned, owned.as_view(), &context);
            assert_eq!(scanned.to_owned(), owned, "{context}");

            let owned_oblivious = input.oblivious_view(v, radius);
            let scanned = input.oblivious_view_in(&mut extractor, v, radius);
            assert_same_oblivious(scanned, owned_oblivious.as_view(), &context);
            assert_same_oblivious(scanned, owned.as_view().without_ids(), &context);
            assert_eq!(scanned.to_owned(), owned_oblivious, "{context}");
        }
    }
}

#[test]
fn scratch_views_match_owned_views_on_the_strategy_families() {
    for (i, input) in strategy_inputs().iter().enumerate() {
        check_every_view(input, &format!("strategy input {i}"));
    }
}

#[test]
fn scratch_views_match_owned_views_on_the_paper_constructions() {
    let params = Section2Params::new(1, IdBound::identity_plus(2)).unwrap();
    for (i, input) in experiment_inputs(&params, 4).unwrap().iter().enumerate() {
        check_every_view(input, &format!("section 2 instance {i}"));
    }
    let bound = IdBound::linear(3, 0);
    for labeled in [
        promise::yes_instance(5).unwrap(),
        promise::no_instance(5, &bound, 1_000).unwrap(),
    ] {
        let n = labeled.node_count();
        let input = Input::new(labeled, IdAssignment::consecutive_from(n, 1)).unwrap();
        check_every_view(&input, "section 2 promise cycle");
    }
    let machine = zoo::halts_with_output(3, Symbol(1)).machine;
    for r in [1, 2] {
        let input = gmr_input(&machine, r, 1_000, FragmentSource::WindowsAndDecoys).unwrap();
        check_every_view(&input, &format!("G(M, {r})"));
    }
    let labeled = machine_promise::instance(&machine, 9).unwrap();
    check_every_view(
        &Input::with_consecutive_ids(labeled).unwrap(),
        "section 3 promise cycle",
    );
    let pyramid = Pyramid::new(3).unwrap();
    check_every_view(
        &Input::with_consecutive_ids(pyramid.labeled().clone()).unwrap(),
        "pyramid h=3",
    );
}

/// The reference loops: one owned view per node, read through `as_view()`.
fn owned_local<L: Clone, A: LocalAlgorithm<L>>(input: &Input<L>, algorithm: &A) -> Vec<Verdict> {
    let radius = algorithm.radius();
    input
        .graph()
        .nodes()
        .map(|v| algorithm.evaluate(input.view(v, radius).as_view()))
        .collect()
}

fn owned_oblivious<L: Clone, A: ObliviousAlgorithm<L>>(
    input: &Input<L>,
    algorithm: &A,
) -> Vec<Verdict> {
    let radius = algorithm.radius();
    input
        .graph()
        .nodes()
        .map(|v| algorithm.evaluate(input.oblivious_view(v, radius).as_view()))
        .collect()
}

fn owned_randomized<L: Clone, A: RandomizedObliviousAlgorithm<L>>(
    input: &Input<L>,
    algorithm: &A,
    seed: u64,
) -> Vec<Verdict> {
    let radius = algorithm.radius();
    let mut rng = StdRng::seed_from_u64(seed);
    input
        .graph()
        .nodes()
        .map(|v| algorithm.evaluate(input.oblivious_view(v, radius).as_view(), &mut rng))
        .collect()
}

fn check_local<L: Clone, A: LocalAlgorithm<L>>(input: &Input<L>, algorithm: &A) {
    assert_eq!(
        decision::run_local(input, algorithm).verdicts(),
        owned_local(input, algorithm),
        "{}",
        algorithm.name()
    );
}

fn check_oblivious<L: Clone, A: ObliviousAlgorithm<L>>(input: &Input<L>, algorithm: &A) {
    assert_eq!(
        decision::run_oblivious(input, algorithm).verdicts(),
        owned_oblivious(input, algorithm),
        "{}",
        algorithm.name()
    );
}

fn check_randomized<L: Clone, A: RandomizedObliviousAlgorithm<L>>(input: &Input<L>, algorithm: &A) {
    for seed in 0..4 {
        let mut rng = StdRng::seed_from_u64(seed);
        assert_eq!(
            decision::run_randomized(input, algorithm, &mut rng).verdicts(),
            owned_randomized(input, algorithm, seed),
            "{} seed {seed}",
            algorithm.name()
        );
    }
}

/// Accept iff the centre holds the largest rank in its view.
struct RankTop(usize);

impl<L> OrderInvariantAlgorithm<L> for RankTop {
    fn name(&self) -> &str {
        "rank-top"
    }

    fn radius(&self) -> usize {
        self.0
    }

    fn evaluate_ranked(&self, view: ViewRef<'_, L>) -> Verdict {
        Verdict::from_bool(Some(view.center_id()) == view.max_id())
    }
}

#[test]
fn ld_local_algorithms_decide_the_same_on_borrowed_views() {
    for input in strategy_inputs() {
        check_oblivious(&input, &AlwaysYes);
        check_oblivious(&input, &AlwaysNo);
        for radius in 0..=MAX_RADIUS {
            // Reads every accessor a decider can reach, so a neighbour out
            // of order or a wrong distance changes the verdict.
            let structural =
                FnOblivious::new("structure-digest", radius, |view: ObliviousViewRef<u8>| {
                    let mut acc = u64::from(*view.center_label());
                    for v in view.nodes() {
                        acc = acc.wrapping_mul(31).wrapping_add(u64::from(*view.label(v)));
                        acc = acc.wrapping_mul(31).wrapping_add(view.distance(v) as u64);
                        for (i, u) in view.neighbors(v).enumerate() {
                            acc = acc
                                .wrapping_mul(31)
                                .wrapping_add((i * 7 + u.index()) as u64);
                        }
                    }
                    for d in 0..=view.radius() {
                        acc = acc
                            .wrapping_mul(31)
                            .wrapping_add(view.sphere(d).count() as u64);
                    }
                    Verdict::from_bool(acc % 3 != 0)
                });
            check_oblivious(&input, &structural);
            check_local(&input, &ObliviousAsLocal(structural));
            let with_ids = FnLocal::new("id-digest", radius, |view: ViewRef<u8>| {
                let mut acc = view.center_id();
                for v in view.nodes() {
                    acc = acc.wrapping_mul(31).wrapping_add(view.id(v));
                }
                Verdict::from_bool(acc % 3 != 0 && view.max_id() >= Some(view.center_id()))
            });
            check_local(&input, &with_ids);
            check_local(&input, &OrderInvariantAsLocal(RankTop(radius)));
        }
    }
}

#[test]
fn id_oblivious_simulation_decides_the_same_on_borrowed_views() {
    let inner = FnLocal::new("ids-below-4", 1, |view: ViewRef<u8>| {
        Verdict::from_bool(view.max_id().unwrap_or(0) < 4)
    });
    for n in [3, 5, 8] {
        let labeled = LabeledGraph::uniform(generators::cycle(n), 0u8);
        let input = Input::with_consecutive_ids(labeled).unwrap();
        for universe in [2, 4, 6] {
            check_oblivious(&input, &ObliviousSimulation::new(inner.clone(), universe));
        }
    }
}

#[test]
fn section2_deciders_decide_the_same_on_borrowed_views() {
    let params = Section2Params::new(1, IdBound::identity_plus(2)).unwrap();
    let verifier = StructureVerifier::new(params.clone());
    let id_decider = IdBasedDecider::new(params.clone());
    for input in experiment_inputs(&params, 8).unwrap() {
        check_oblivious(&input, &verifier);
        check_local(&input, &id_decider);
        check_local(&input, &ObliviousAsLocal(verifier.clone()));
    }
    let bound = IdBound::linear(3, 0);
    let decider = PromiseIdDecider::new(bound.clone());
    for r in [5u64, 7] {
        for labeled in [
            promise::yes_instance(r).unwrap(),
            promise::no_instance(r, &bound, 1_000).unwrap(),
        ] {
            let n = labeled.node_count();
            let input = Input::new(labeled, IdAssignment::consecutive_from(n, 1)).unwrap();
            check_local(&input, &decider);
        }
    }
}

#[test]
fn section3_and_randomised_deciders_decide_the_same_on_borrowed_views() {
    for (steps, output) in [(2, Symbol(0)), (3, Symbol(1)), (5, Symbol(1))] {
        let machine = zoo::halts_with_output(steps, output).machine;
        let input = gmr_input(&machine, 1, 10_000, FragmentSource::WindowsAndDecoys).unwrap();
        check_local(&input, &TwoStageIdDecider::new(10_000));
        for fuel in [1, 4, 100] {
            check_oblivious(&input, &FuelBoundedObliviousCandidate::new(fuel));
        }
        check_randomized(&input, &RandomizedGmrDecider::new(1 << 20));

        let labeled = machine_promise::instance(&machine, 12).unwrap();
        let input = Input::with_consecutive_ids(labeled).unwrap();
        check_local(&input, &PromiseHaltingDecider::new(100_000));
        check_randomized(&input, &RandomizedPromiseDecider::new(1 << 16));
    }
    let forever = zoo::infinite_loop().machine;
    let input =
        Input::with_consecutive_ids(machine_promise::instance(&forever, 12).unwrap()).unwrap();
    check_local(&input, &PromiseHaltingDecider::new(100_000));
    check_randomized(&input, &RandomizedPromiseDecider::new(1 << 16));
}

#[test]
fn fractional_verifier_decides_the_same_on_borrowed_views() {
    for k in [1u32, 2, 3, 5] {
        let verifier = FractionalVerifier::new(2 * k + 1, k);
        for labeled in [
            fractional::yes_instance(k).unwrap(),
            fractional::no_instance(k).unwrap(),
        ] {
            check_oblivious(&Input::with_consecutive_ids(labeled).unwrap(), &verifier);
        }
    }
}
