//! Decision semantics: running a local algorithm on every node of an input
//! and aggregating the per-node verdicts, plus correctness checking against a
//! property and Monte-Carlo estimation for randomised deciders.
//!
//! The loops hand each node's view to the algorithm as a borrowed
//! [`ViewRef`](crate::ViewRef) / [`ObliviousViewRef`](crate::ObliviousViewRef)
//! ([`Input::view_in`]): one [`BallExtractor`] runs the node's bounded BFS,
//! and the view reads the extractor's scratch, the input's labels and its
//! identifiers in place, so no graph, label vector or identifier vector is
//! built per node.  Nodes are visited in node order, so a randomised
//! algorithm draws from its stream in that order.  Views stay owned in two
//! places, both of which need values: [`run_oblivious_cached`], whose memo
//! is keyed by the exact view, and view enumeration
//! ([`crate::enumeration`]), whose results outlive the extractor.

use crate::algorithm::{LocalAlgorithm, ObliviousAlgorithm, RandomizedObliviousAlgorithm, Verdict};
use crate::cache::ViewCache;
use crate::input::Input;
use crate::property::Property;
use ld_graph::{BallExtractor, NodeId};
use rand::Rng;
use std::hash::Hash;

/// The global outcome of running a decision algorithm on an input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionOutcome {
    /// Every node output `yes`.
    Accept,
    /// At least one node output `no`.
    Reject,
}

/// The per-node verdicts of one run, plus the aggregated outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decision {
    algorithm: String,
    verdicts: Vec<Verdict>,
}

impl Decision {
    /// Assembles a decision from per-node verdicts.
    pub fn new(algorithm: impl Into<String>, verdicts: Vec<Verdict>) -> Self {
        Decision {
            algorithm: algorithm.into(),
            verdicts,
        }
    }

    /// Name of the algorithm that produced this decision.
    pub fn algorithm(&self) -> &str {
        &self.algorithm
    }

    /// The per-node verdicts, in node order.
    pub fn verdicts(&self) -> &[Verdict] {
        &self.verdicts
    }

    /// The aggregated outcome.
    pub fn outcome(&self) -> DecisionOutcome {
        if self.accepted() {
            DecisionOutcome::Accept
        } else {
            DecisionOutcome::Reject
        }
    }

    /// `true` iff every node said `yes` (the input is accepted).
    pub fn accepted(&self) -> bool {
        self.verdicts.iter().all(|v| v.is_yes())
    }

    /// The nodes that said `no`.
    pub fn rejecting_nodes(&self) -> Vec<NodeId> {
        self.verdicts
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.is_no().then_some(NodeId::from(i)))
            .collect()
    }
}

/// Runs a (possibly identifier-reading) local algorithm on every node.
pub fn run_local<L, A: LocalAlgorithm<L> + ?Sized>(input: &Input<L>, algorithm: &A) -> Decision {
    let radius = algorithm.radius();
    let mut extractor = BallExtractor::new();
    let verdicts = input
        .graph()
        .nodes()
        .map(|v| algorithm.evaluate(input.view_in(&mut extractor, v, radius)))
        .collect();
    Decision::new(algorithm.name(), verdicts)
}

/// Runs an Id-oblivious algorithm on every node.
pub fn run_oblivious<L, A: ObliviousAlgorithm<L> + ?Sized>(
    input: &Input<L>,
    algorithm: &A,
) -> Decision {
    let radius = algorithm.radius();
    let mut extractor = BallExtractor::new();
    let verdicts = input
        .graph()
        .nodes()
        .map(|v| algorithm.evaluate(input.oblivious_view_in(&mut extractor, v, radius)))
        .collect();
    Decision::new(algorithm.name(), verdicts)
}

/// Runs an Id-oblivious algorithm on every node, memoizing verdicts in a
/// shared [`ViewCache`] so each structural view class is evaluated once.
///
/// The verdicts are identical to [`run_oblivious`] for any deterministic
/// algorithm whose [`name`](crate::algorithm::ObliviousAlgorithm::name)
/// uniquely determines its behaviour over the cache's lifetime: cache
/// entries are verified by exact view equality before reuse, but the
/// verdict memo is keyed per algorithm *name* (see [`ViewCache::verdict`]).
/// The payoff is in sweeps, where thousands of inputs of the same family
/// expose the same handful of view classes over and over, and only when
/// the algorithm costs more than a lookup: on `G(M, r)` with cheap
/// candidates the lookup costs about 5× the verdict it saves (measured
/// on [`ViewCache::verdict`]), so `section3-sweep` calls [`run_oblivious`].
///
/// This is the one decision loop that builds an owned
/// [`ObliviousView`](crate::ObliviousView) per node: the memo is keyed by
/// the exact view value.  The algorithm still reads it through
/// [`ObliviousView::as_view`](crate::ObliviousView::as_view).
pub fn run_oblivious_cached<L, A>(input: &Input<L>, algorithm: &A, cache: &ViewCache<L>) -> Decision
where
    L: Clone + Eq + Hash + Send + Sync,
    A: ObliviousAlgorithm<L> + ?Sized,
{
    let radius = algorithm.radius();
    let name = algorithm.name();
    let mut extractor = BallExtractor::new();
    let verdicts = input
        .graph()
        .nodes()
        .map(|v| {
            let view = input.oblivious_view_with(&mut extractor, v, radius);
            cache.verdict(name, &view, |view| algorithm.evaluate(view.as_view()))
        })
        .collect();
    Decision::new(name, verdicts)
}

/// Runs a randomised Id-oblivious algorithm on every node, drawing each
/// node's private randomness from `rng` in node order.
pub fn run_randomized<L, A: RandomizedObliviousAlgorithm<L> + ?Sized, R: Rng>(
    input: &Input<L>,
    algorithm: &A,
    rng: &mut R,
) -> Decision {
    let radius = algorithm.radius();
    let mut extractor = BallExtractor::new();
    let verdicts = input
        .graph()
        .nodes()
        .map(|v| algorithm.evaluate(input.oblivious_view_in(&mut extractor, v, radius), rng))
        .collect();
    Decision::new(algorithm.name(), verdicts)
}

/// The result of checking an algorithm against a property over a finite set
/// of inputs (the executable meaning of "A decides P" in the experiments).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CorrectnessReport {
    /// Indices of inputs on which the algorithm was correct.
    pub correct: Vec<usize>,
    /// `(input index, was a yes-instance, was accepted)` for every error.
    pub errors: Vec<(usize, bool, bool)>,
}

impl CorrectnessReport {
    /// `true` iff the algorithm was correct on every provided input.
    pub fn all_correct(&self) -> bool {
        self.errors.is_empty()
    }

    /// Number of inputs checked.
    pub fn total(&self) -> usize {
        self.correct.len() + self.errors.len()
    }
}

/// Checks a local algorithm against a property on a finite family of inputs:
/// yes-instances must be accepted, no-instances rejected.
pub fn check_decides<L: Clone, P, A>(
    property: &P,
    algorithm: &A,
    inputs: &[Input<L>],
) -> CorrectnessReport
where
    P: Property<L> + ?Sized,
    A: LocalAlgorithm<L> + ?Sized,
{
    check_with(
        inputs,
        |input| property.contains(input.labeled()),
        |input| run_local(input, algorithm).accepted(),
    )
}

/// Checks an Id-oblivious algorithm against a property on a finite family of
/// inputs.
pub fn check_decides_oblivious<L: Clone, P, A>(
    property: &P,
    algorithm: &A,
    inputs: &[Input<L>],
) -> CorrectnessReport
where
    P: Property<L> + ?Sized,
    A: ObliviousAlgorithm<L> + ?Sized,
{
    check_with(
        inputs,
        |input| property.contains(input.labeled()),
        |input| run_oblivious(input, algorithm).accepted(),
    )
}

fn check_with<L>(
    inputs: &[Input<L>],
    expected: impl Fn(&Input<L>) -> bool,
    accepted: impl Fn(&Input<L>) -> bool,
) -> CorrectnessReport {
    let mut report = CorrectnessReport::default();
    for (i, input) in inputs.iter().enumerate() {
        let want = expected(input);
        let got = accepted(input);
        if want == got {
            report.correct.push(i);
        } else {
            report.errors.push((i, want, got));
        }
    }
    report
}

/// Monte-Carlo estimate of the acceptance probability of a randomised
/// Id-oblivious algorithm on one input: the fraction of `trials` in which
/// *every* node said `yes`.
///
/// For a `(p, q)`-decider (Section 3.3) the estimate should be at least `p`
/// on yes-instances and at most `1 - q` on no-instances.
pub fn estimate_acceptance<L, A, R>(
    input: &Input<L>,
    algorithm: &A,
    trials: usize,
    rng: &mut R,
) -> f64
where
    L: Clone,
    A: RandomizedObliviousAlgorithm<L> + ?Sized,
    R: Rng,
{
    if trials == 0 {
        return 0.0;
    }
    let mut accepted = 0usize;
    for _ in 0..trials {
        if run_randomized(input, algorithm, rng).accepted() {
            accepted += 1;
        }
    }
    accepted as f64 / trials as f64
}

/// Monte-Carlo estimate of the pair `(p, q)` of a randomised decider over a
/// family of inputs classified by `property`: `p` is the worst-case
/// acceptance probability over yes-instances and `q` the worst-case rejection
/// probability over no-instances.
pub fn estimate_pq<L, P, A, R>(
    property: &P,
    algorithm: &A,
    inputs: &[Input<L>],
    trials: usize,
    rng: &mut R,
) -> (f64, f64)
where
    L: Clone,
    P: Property<L> + ?Sized,
    A: RandomizedObliviousAlgorithm<L> + ?Sized,
    R: Rng,
{
    let mut p = 1.0f64;
    let mut q = 1.0f64;
    for input in inputs {
        let accept_rate = estimate_acceptance(input, algorithm, trials, rng);
        if property.contains(input.labeled()) {
            p = p.min(accept_rate);
        } else {
            q = q.min(1.0 - accept_rate);
        }
    }
    (p, q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::{FnLocal, FnOblivious};
    use crate::ids::IdAssignment;
    use crate::property::ProperColoring;
    use crate::view::{ObliviousViewRef, ViewRef};
    use ld_graph::{generators, LabeledGraph};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn colored_cycle(labels: Vec<u32>) -> Input<u32> {
        let n = labels.len();
        let lg = LabeledGraph::new(generators::cycle(n), labels).unwrap();
        Input::new(lg, IdAssignment::consecutive(n)).unwrap()
    }

    fn coloring_checker() -> FnOblivious<impl Fn(ObliviousViewRef<u32>) -> Verdict> {
        FnOblivious::new("proper-3-colouring", 1, |view: ObliviousViewRef<u32>| {
            let mine = *view.center_label();
            let ok = mine < 3
                && view
                    .neighbors_of_center()
                    .all(|u| *view.label(u) != mine && *view.label(u) < 3);
            Verdict::from_bool(ok)
        })
    }

    #[test]
    fn decision_aggregation() {
        let d = Decision::new("x", vec![Verdict::Yes, Verdict::No, Verdict::Yes]);
        assert!(!d.accepted());
        assert_eq!(d.outcome(), DecisionOutcome::Reject);
        assert_eq!(d.rejecting_nodes(), vec![NodeId(1)]);
        assert_eq!(d.algorithm(), "x");
        let all_yes = Decision::new("y", vec![Verdict::Yes; 3]);
        assert_eq!(all_yes.outcome(), DecisionOutcome::Accept);
    }

    #[test]
    fn oblivious_coloring_decider_is_correct_on_cycles() {
        let algorithm = coloring_checker();
        let yes = colored_cycle(vec![0, 1, 2, 0, 1, 2]);
        let no = colored_cycle(vec![0, 0, 1, 2, 1, 2]);
        assert!(run_oblivious(&yes, &algorithm).accepted());
        let rejection = run_oblivious(&no, &algorithm);
        assert!(!rejection.accepted());
        // The two monochromatic-edge endpoints are exactly the rejecting nodes.
        assert_eq!(rejection.rejecting_nodes(), vec![NodeId(0), NodeId(1)]);
    }

    #[test]
    fn cached_run_matches_uncached() {
        let algorithm = coloring_checker();
        let cache = ViewCache::new();
        let inputs = vec![
            colored_cycle(vec![0, 1, 2, 0, 1, 2]),
            colored_cycle(vec![0, 0, 1, 2, 1, 2]),
            colored_cycle((0..30).map(|i| i % 3).collect()),
        ];
        for input in &inputs {
            let plain = run_oblivious(input, &algorithm);
            let cached = run_oblivious_cached(input, &algorithm, &cache);
            assert_eq!(plain.verdicts(), cached.verdicts());
        }
        let stats = cache.stats();
        assert!(stats.hits > 0, "repeated view classes must hit the cache");
        assert!(stats.hit_rate() > 0.5, "hit rate {}", stats.hit_rate());
    }

    #[test]
    fn check_decides_reports_errors() {
        let property = ProperColoring::new(3);
        let algorithm = coloring_checker();
        let inputs = vec![
            colored_cycle(vec![0, 1, 2, 0, 1, 2]), // yes
            colored_cycle(vec![0, 0, 0, 0]),       // no
            colored_cycle(vec![0, 1, 0, 1]),       // yes
        ];
        let report = check_decides_oblivious(&property, &algorithm, &inputs);
        assert!(report.all_correct());
        assert_eq!(report.total(), 3);

        // An always-yes algorithm errs exactly on the no-instance.
        let lazy = FnOblivious::new("lazy", 0, |_: ObliviousViewRef<u32>| Verdict::Yes);
        let report = check_decides_oblivious(&property, &lazy, &inputs);
        assert!(!report.all_correct());
        assert_eq!(report.errors, vec![(1, false, true)]);
    }

    #[test]
    fn check_decides_with_identifier_reading_algorithm() {
        // Accept iff the maximum identifier visible anywhere is below 100:
        // correctness depends on the assignment, exercising the LD-side path.
        let property = crate::property::FnProperty::new("small-graph", |g: &LabeledGraph<u32>| {
            g.node_count() <= 10
        });
        let algorithm = FnLocal::new("id-below-100", 0, |view: ViewRef<u32>| {
            Verdict::from_bool(view.center_id() < 100)
        });
        let small = colored_cycle(vec![0, 1, 2, 0, 1, 2]);
        let report = check_decides(&property, &algorithm, &[small]);
        assert!(report.all_correct());
    }

    #[test]
    fn randomized_estimation_brackets_deterministic_behaviour() {
        struct CoinFlip;
        impl RandomizedObliviousAlgorithm<u32> for CoinFlip {
            fn name(&self) -> &str {
                "coin"
            }
            fn radius(&self) -> usize {
                0
            }
            fn evaluate(
                &self,
                _view: ObliviousViewRef<u32>,
                rng: &mut dyn rand::RngCore,
            ) -> Verdict {
                Verdict::from_bool(rng.next_u32() % 2 == 0)
            }
        }
        let input = colored_cycle(vec![0, 1, 2]);
        let mut rng = StdRng::seed_from_u64(1);
        let acceptance = estimate_acceptance(&input, &CoinFlip, 400, &mut rng);
        // Three fair coins must all come up heads: probability 1/8.
        assert!(
            acceptance > 0.04 && acceptance < 0.25,
            "acceptance = {acceptance}"
        );
        assert_eq!(estimate_acceptance(&input, &CoinFlip, 0, &mut rng), 0.0);
    }

    #[test]
    fn estimate_pq_separates_yes_and_no_instances() {
        struct AlwaysAccept;
        impl RandomizedObliviousAlgorithm<u32> for AlwaysAccept {
            fn name(&self) -> &str {
                "accept"
            }
            fn radius(&self) -> usize {
                0
            }
            fn evaluate(
                &self,
                _view: ObliviousViewRef<u32>,
                _rng: &mut dyn rand::RngCore,
            ) -> Verdict {
                Verdict::Yes
            }
        }
        let property = ProperColoring::new(3);
        let inputs = vec![
            colored_cycle(vec![0, 1, 2, 0, 1, 2]),
            colored_cycle(vec![0, 0, 0, 0]),
        ];
        let mut rng = StdRng::seed_from_u64(2);
        let (p, q) = estimate_pq(&property, &AlwaysAccept, &inputs, 10, &mut rng);
        assert_eq!(p, 1.0);
        assert_eq!(q, 0.0);
    }
}
