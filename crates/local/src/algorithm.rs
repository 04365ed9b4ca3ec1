//! Algorithm traits: local, Id-oblivious, order-invariant and randomised
//! deciders.

use crate::view::{ObliviousViewRef, ViewRef};
use rand::RngCore;
use std::fmt;

/// The per-node output of a decision algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Verdict {
    /// The node accepts.
    Yes,
    /// The node rejects; a single `No` rejects the whole input.
    No,
}

impl Verdict {
    /// Returns `true` for [`Verdict::Yes`].
    pub fn is_yes(self) -> bool {
        matches!(self, Verdict::Yes)
    }

    /// Returns `true` for [`Verdict::No`].
    pub fn is_no(self) -> bool {
        matches!(self, Verdict::No)
    }

    /// Converts a boolean condition into a verdict (`true` → `Yes`).
    pub fn from_bool(ok: bool) -> Verdict {
        if ok {
            Verdict::Yes
        } else {
            Verdict::No
        }
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Yes => write!(f, "yes"),
            Verdict::No => write!(f, "no"),
        }
    }
}

/// A deterministic local algorithm with constant horizon: a function of the
/// radius-`t` view *including identifiers* (the class behind LD).
///
/// Views are passed as borrowed, `Copy` [`ViewRef`]s: reading a label, an
/// identifier or a neighbour costs a lookup, and an algorithm that needs an
/// owned value asks for [`ViewRef::to_owned`].
pub trait LocalAlgorithm<L> {
    /// A short human-readable name for reports.
    fn name(&self) -> &str;

    /// The local horizon `t`.
    fn radius(&self) -> usize;

    /// The output of the algorithm at a node with the given view.
    fn evaluate(&self, view: ViewRef<'_, L>) -> Verdict;
}

/// A deterministic **Id-oblivious** local algorithm: a function of the
/// radius-`t` view *without identifiers* (the class behind LD\*).
pub trait ObliviousAlgorithm<L> {
    /// A short human-readable name for reports.
    fn name(&self) -> &str;

    /// The local horizon `t`.
    fn radius(&self) -> usize;

    /// The output of the algorithm at a node with the given oblivious view.
    fn evaluate(&self, view: ObliviousViewRef<'_, L>) -> Verdict;
}

/// An order-invariant algorithm (the OI model of the related-work section):
/// it may use the identifiers, but only their *relative order*; the adapter
/// [`OrderInvariantAsLocal`] enforces this by replacing each identifier with
/// its rank inside the view before evaluation.
pub trait OrderInvariantAlgorithm<L> {
    /// A short human-readable name for reports.
    fn name(&self) -> &str;

    /// The local horizon `t`.
    fn radius(&self) -> usize;

    /// The output at a node whose view carries rank-normalised identifiers
    /// (`0..k` in the order of the original identifiers).
    fn evaluate_ranked(&self, view: ViewRef<'_, L>) -> Verdict;
}

/// A randomised Id-oblivious algorithm: each node additionally reads a
/// private stream of random bits (Section 3.3 / Corollary 1).
pub trait RandomizedObliviousAlgorithm<L> {
    /// A short human-readable name for reports.
    fn name(&self) -> &str;

    /// The local horizon `t`.
    fn radius(&self) -> usize;

    /// The output of the algorithm at a node with the given oblivious view
    /// and private randomness.
    fn evaluate(&self, view: ObliviousViewRef<'_, L>, rng: &mut dyn RngCore) -> Verdict;
}

/// Adapter running an Id-oblivious algorithm in the full LOCAL model by
/// simply ignoring the identifiers (dropped on the borrow, nothing is
/// copied).  This is the trivial inclusion LD\* ⊆ LD.
#[derive(Debug, Clone)]
pub struct ObliviousAsLocal<A>(pub A);

impl<L, A: ObliviousAlgorithm<L>> LocalAlgorithm<L> for ObliviousAsLocal<A> {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn radius(&self) -> usize {
        self.0.radius()
    }

    fn evaluate(&self, view: ViewRef<'_, L>) -> Verdict {
        self.0.evaluate(view.without_ids())
    }
}

/// Adapter running an order-invariant algorithm in the full LOCAL model by
/// rank-normalising the identifiers of every view before evaluation, which
/// guarantees order-invariance by construction.  The ranks are overlaid on
/// the borrowed view; only the rank vector is allocated.
#[derive(Debug, Clone)]
pub struct OrderInvariantAsLocal<A>(pub A);

impl<L, A: OrderInvariantAlgorithm<L>> LocalAlgorithm<L> for OrderInvariantAsLocal<A> {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn radius(&self) -> usize {
        self.0.radius()
    }

    fn evaluate(&self, view: ViewRef<'_, L>) -> Verdict {
        let mut sorted: Vec<u64> = view.ids().collect();
        sorted.sort_unstable();
        let ranks: Vec<u64> = view
            .ids()
            // ld-analyze: allow(D004, reason = "invariant: sorted is a sorted copy of the same ids, so every id is found")
            .map(|id| sorted.binary_search(&id).expect("id is present") as u64)
            .collect();
        self.0.evaluate_ranked(view.with_ids(&ranks))
    }
}

/// A [`LocalAlgorithm`] defined by a closure — the quickest way to express
/// one-off algorithms in tests, examples and benchmarks.
#[derive(Clone)]
pub struct FnLocal<F> {
    name: String,
    radius: usize,
    f: F,
}

impl<F> FnLocal<F> {
    /// Wraps `f` as a local algorithm with the given name and horizon.
    pub fn new(name: impl Into<String>, radius: usize, f: F) -> Self {
        FnLocal {
            name: name.into(),
            radius,
            f,
        }
    }
}

impl<F> fmt::Debug for FnLocal<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FnLocal")
            .field("name", &self.name)
            .field("radius", &self.radius)
            .finish()
    }
}

impl<L, F: Fn(ViewRef<'_, L>) -> Verdict> LocalAlgorithm<L> for FnLocal<F> {
    fn name(&self) -> &str {
        &self.name
    }

    fn radius(&self) -> usize {
        self.radius
    }

    fn evaluate(&self, view: ViewRef<'_, L>) -> Verdict {
        (self.f)(view)
    }
}

/// An [`ObliviousAlgorithm`] defined by a closure.
#[derive(Clone)]
pub struct FnOblivious<F> {
    name: String,
    radius: usize,
    f: F,
}

impl<F> FnOblivious<F> {
    /// Wraps `f` as an Id-oblivious algorithm with the given name and
    /// horizon.
    pub fn new(name: impl Into<String>, radius: usize, f: F) -> Self {
        FnOblivious {
            name: name.into(),
            radius,
            f,
        }
    }
}

impl<F> fmt::Debug for FnOblivious<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FnOblivious")
            .field("name", &self.name)
            .field("radius", &self.radius)
            .finish()
    }
}

impl<L, F: Fn(ObliviousViewRef<'_, L>) -> Verdict> ObliviousAlgorithm<L> for FnOblivious<F> {
    fn name(&self) -> &str {
        &self.name
    }

    fn radius(&self) -> usize {
        self.radius
    }

    fn evaluate(&self, view: ObliviousViewRef<'_, L>) -> Verdict {
        (self.f)(view)
    }
}

/// The constant-yes Id-oblivious algorithm (a useful degenerate baseline).
#[derive(Debug, Clone, Copy, Default)]
pub struct AlwaysYes;

impl<L> ObliviousAlgorithm<L> for AlwaysYes {
    fn name(&self) -> &str {
        "always-yes"
    }

    fn radius(&self) -> usize {
        0
    }

    fn evaluate(&self, _view: ObliviousViewRef<'_, L>) -> Verdict {
        Verdict::Yes
    }
}

/// The constant-no Id-oblivious algorithm (a useful degenerate baseline).
#[derive(Debug, Clone, Copy, Default)]
pub struct AlwaysNo;

impl<L> ObliviousAlgorithm<L> for AlwaysNo {
    fn name(&self) -> &str {
        "always-no"
    }

    fn radius(&self) -> usize {
        0
    }

    fn evaluate(&self, _view: ObliviousViewRef<'_, L>) -> Verdict {
        Verdict::No
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::IdAssignment;
    use crate::input::Input;
    use ld_graph::{generators, LabeledGraph, NodeId};

    fn input_with_ids(ids: Vec<u64>) -> Input<u8> {
        let n = ids.len();
        let lg = LabeledGraph::uniform(generators::path(n), 0u8);
        Input::new(lg, IdAssignment::new(ids).unwrap()).unwrap()
    }

    #[test]
    fn verdict_helpers() {
        assert!(Verdict::Yes.is_yes());
        assert!(Verdict::No.is_no());
        assert_eq!(Verdict::from_bool(true), Verdict::Yes);
        assert_eq!(Verdict::from_bool(false), Verdict::No);
        assert_eq!(Verdict::Yes.to_string(), "yes");
        assert_eq!(Verdict::No.to_string(), "no");
    }

    #[test]
    fn fn_wrappers_expose_metadata() {
        let local = FnLocal::new("check", 2, |_: ViewRef<u8>| Verdict::Yes);
        assert_eq!(LocalAlgorithm::<u8>::name(&local), "check");
        assert_eq!(LocalAlgorithm::<u8>::radius(&local), 2);
        assert!(format!("{local:?}").contains("check"));

        let oblivious = FnOblivious::new("ob", 1, |_: ObliviousViewRef<u8>| Verdict::No);
        assert_eq!(ObliviousAlgorithm::<u8>::name(&oblivious), "ob");
        assert!(format!("{oblivious:?}").contains("ob"));
    }

    #[test]
    fn oblivious_as_local_ignores_ids() {
        // An algorithm that answers Yes iff the centre label is 0.
        let oblivious = FnOblivious::new("label-zero", 0, |v: ObliviousViewRef<u8>| {
            Verdict::from_bool(*v.center_label() == 0)
        });
        let local = ObliviousAsLocal(oblivious);
        let a = input_with_ids(vec![5, 6, 7]).view(NodeId(1), 0);
        let b = input_with_ids(vec![100, 200, 300]).view(NodeId(1), 0);
        assert_eq!(local.evaluate(a.as_view()), local.evaluate(b.as_view()));
        assert_eq!(local.evaluate(a.as_view()), Verdict::Yes);
    }

    #[test]
    fn order_invariant_adapter_normalises_ranks() {
        // Accept iff the centre holds the largest identifier in its radius-1
        // view; this is order-invariant by definition.
        let oi = OrderInvariantAsLocal(RankTop);
        let small = input_with_ids(vec![1, 2, 0]);
        let large = input_with_ids(vec![100, 900, 3]);
        // Same relative order (middle node has the max) in both inputs.
        assert_eq!(
            oi.evaluate(small.view(NodeId(1), 1).as_view()),
            Verdict::Yes
        );
        assert_eq!(
            oi.evaluate(large.view(NodeId(1), 1).as_view()),
            Verdict::Yes
        );
        assert_eq!(oi.evaluate(small.view(NodeId(0), 1).as_view()), Verdict::No);
    }

    struct RankTop;

    impl OrderInvariantAlgorithm<u8> for RankTop {
        fn name(&self) -> &str {
            "rank-top"
        }

        fn radius(&self) -> usize {
            1
        }

        fn evaluate_ranked(&self, view: ViewRef<u8>) -> Verdict {
            let max = view.max_id().unwrap_or(0);
            Verdict::from_bool(view.center_id() == max)
        }
    }

    #[test]
    fn constant_baselines() {
        let input = input_with_ids(vec![0, 1]);
        let v = input.oblivious_view(NodeId(0), 0);
        assert_eq!(
            ObliviousAlgorithm::<u8>::evaluate(&AlwaysYes, v.as_view()),
            Verdict::Yes
        );
        assert_eq!(
            ObliviousAlgorithm::<u8>::evaluate(&AlwaysNo, v.as_view()),
            Verdict::No
        );
        assert_eq!(ObliviousAlgorithm::<u8>::radius(&AlwaysYes), 0);
        assert_eq!(ObliviousAlgorithm::<u8>::name(&AlwaysNo), "always-no");
    }
}
