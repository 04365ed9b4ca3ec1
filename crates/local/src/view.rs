//! Local views: what a node sees within its horizon, with or without
//! identifiers.
//!
//! Algorithms read views in a borrowed form, [`ViewRef`] and
//! [`ObliviousViewRef`]: `Copy` values that borrow the ball (a [`BallRef`]),
//! the labels and the identifiers from where they already live.  In the
//! decision loops ([`crate::decision`]) that is the extractor's BFS scratch
//! and the input's label and identifier slices, so evaluating a node builds
//! nothing.  The owned forms [`View`] and [`ObliviousView`] are values —
//! they key the [`crate::cache::ViewCache`] memo, are what view enumeration
//! returns and what neighbourhood generators synthesise — and lend the same
//! borrowed form through `as_view()`, with the identity mapping.  A
//! borrowed view is materialised only by an explicit `to_owned()`.

use ld_graph::ball::Ball;
use ld_graph::canon::{centered_canonical_code, CanonicalCode};
use ld_graph::iso::{are_compatible_isomorphic, centered_wl_hash, color_of};
use ld_graph::{BallNeighbors, BallRef, CanonScratch, Graph, NodeId};
use std::hash::{Hash, Hasher};

/// A borrowed Id-oblivious radius-`t` view: the ball `B(v, t)` and the
/// labels of its nodes, in ball-local numbering (centre first, then by
/// `(distance, original id)` for an extracted ball).  An
/// [`ObliviousAlgorithm`](crate::ObliviousAlgorithm) is a function of this
/// value.
#[derive(Debug)]
pub struct ObliviousViewRef<'a, L> {
    ball: BallRef<'a>,
    /// Labels indexed by the nodes of the graph the ball was read from.
    labels: &'a [L],
}

impl<L> Clone for ObliviousViewRef<'_, L> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<L> Copy for ObliviousViewRef<'_, L> {}

impl<'a, L> ObliviousViewRef<'a, L> {
    /// Pairs a ball with labels indexed by the nodes of the graph it was
    /// read from.
    pub(crate) fn new(ball: BallRef<'a>, labels: &'a [L]) -> Self {
        ObliviousViewRef { ball, labels }
    }

    /// The centre node, in view-local numbering.
    pub fn center(&self) -> NodeId {
        self.ball.center()
    }

    /// The radius the view was extracted with.
    pub fn radius(&self) -> usize {
        self.ball.radius()
    }

    /// Number of nodes in the view.
    pub fn node_count(&self) -> usize {
        self.ball.node_count()
    }

    /// The view-local nodes, in view-local order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        self.ball.nodes()
    }

    /// The label of view-local node `v`.
    pub fn label(&self, v: NodeId) -> &'a L {
        &self.labels[self.ball.original(v).index()]
    }

    /// The centre's label.
    pub fn center_label(&self) -> &'a L {
        self.label(self.center())
    }

    /// All labels, in view-local order.
    pub fn labels(&self) -> impl Iterator<Item = &'a L> + 'a {
        let view = *self;
        self.nodes().map(move |v| view.label(v))
    }

    /// Distance of view-local node `v` from the centre.
    pub fn distance(&self, v: NodeId) -> usize {
        self.ball.distance(v)
    }

    /// The view-local neighbours of `v` in the view's (induced) graph, in
    /// increasing view-local order.
    pub fn neighbors(&self, v: NodeId) -> BallNeighbors<'a> {
        self.ball.neighbors(v)
    }

    /// The view-local nodes adjacent to the centre.
    pub fn neighbors_of_center(&self) -> BallNeighbors<'a> {
        self.ball.neighbors(self.center())
    }

    /// The view-local nodes at exactly distance `d` from the centre.
    pub fn sphere(&self, d: usize) -> impl Iterator<Item = NodeId> + 'a {
        self.ball.sphere(d)
    }

    /// Overlays identifiers, given in view-local node order, without
    /// copying the view: the Id-oblivious simulation `A*` tries many
    /// hypothetical assignments on one view this way.
    pub fn with_ids(self, ids: &'a [u64]) -> ViewRef<'a, L> {
        debug_assert_eq!(ids.len(), self.node_count());
        ViewRef {
            view: self,
            ids: Ids::Local(ids),
        }
    }

    /// Materialises the view: the induced graph, distances and cloned
    /// labels, equal to the [`ObliviousView`] extracted for the same node.
    pub fn to_owned(self) -> ObliviousView<L>
    where
        L: Clone,
    {
        let labels = self.labels().cloned().collect();
        ObliviousView::from_ball(self.ball.to_ball(), labels)
    }
}

/// Where a [`ViewRef`]'s identifiers live.
#[derive(Debug, Clone, Copy)]
enum Ids<'a> {
    /// Indexed like the labels, by the nodes of the graph the ball was read
    /// from.
    ByNode(&'a [u64]),
    /// An overlay in view-local node order.
    Local(&'a [u64]),
}

/// A borrowed radius-`t` view **with identifiers**: an
/// [`ObliviousViewRef`] plus the identifier of every node.  A
/// [`LocalAlgorithm`](crate::LocalAlgorithm) is a function of this value.
#[derive(Debug)]
pub struct ViewRef<'a, L> {
    view: ObliviousViewRef<'a, L>,
    ids: Ids<'a>,
}

impl<L> Clone for ViewRef<'_, L> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<L> Copy for ViewRef<'_, L> {}

impl<'a, L> ViewRef<'a, L> {
    /// Pairs a ball with labels and identifiers, both indexed by the nodes
    /// of the graph the ball was read from.
    pub(crate) fn new(ball: BallRef<'a>, labels: &'a [L], ids: &'a [u64]) -> Self {
        ViewRef {
            view: ObliviousViewRef::new(ball, labels),
            ids: Ids::ByNode(ids),
        }
    }

    /// The centre node, in view-local numbering.
    pub fn center(&self) -> NodeId {
        self.view.center()
    }

    /// The radius the view was extracted with.
    pub fn radius(&self) -> usize {
        self.view.radius()
    }

    /// Number of nodes in the view.
    pub fn node_count(&self) -> usize {
        self.view.node_count()
    }

    /// The view-local nodes, in view-local order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        self.view.nodes()
    }

    /// The label of view-local node `v`.
    pub fn label(&self, v: NodeId) -> &'a L {
        self.view.label(v)
    }

    /// The centre's label.
    pub fn center_label(&self) -> &'a L {
        self.view.center_label()
    }

    /// All labels, in view-local order.
    pub fn labels(&self) -> impl Iterator<Item = &'a L> + 'a {
        self.view.labels()
    }

    /// Distance of view-local node `v` from the centre.
    pub fn distance(&self, v: NodeId) -> usize {
        self.view.distance(v)
    }

    /// The view-local neighbours of `v` in the view's (induced) graph, in
    /// increasing view-local order.
    pub fn neighbors(&self, v: NodeId) -> BallNeighbors<'a> {
        self.view.neighbors(v)
    }

    /// The view-local nodes adjacent to the centre.
    pub fn neighbors_of_center(&self) -> BallNeighbors<'a> {
        self.view.neighbors_of_center()
    }

    /// The view-local nodes at exactly distance `d` from the centre.
    pub fn sphere(&self, d: usize) -> impl Iterator<Item = NodeId> + 'a {
        self.view.sphere(d)
    }

    /// The identifier of view-local node `v`.
    pub fn id(&self, v: NodeId) -> u64 {
        match self.ids {
            Ids::ByNode(ids) => ids[self.view.ball.original(v).index()],
            Ids::Local(ids) => ids[v.index()],
        }
    }

    /// The centre's identifier.
    pub fn center_id(&self) -> u64 {
        self.id(self.center())
    }

    /// All identifiers, in view-local order.
    pub fn ids(&self) -> impl Iterator<Item = u64> + 'a {
        let view = *self;
        self.nodes().map(move |v| view.id(v))
    }

    /// The largest identifier visible in the view.
    pub fn max_id(&self) -> Option<u64> {
        self.ids().max()
    }

    /// The same view with the identifiers dropped — a borrow, nothing is
    /// copied.
    pub fn without_ids(self) -> ObliviousViewRef<'a, L> {
        self.view
    }

    /// The same view with its identifiers replaced by `ids`, given in
    /// view-local node order (nothing is copied).
    pub fn with_ids(self, ids: &'a [u64]) -> ViewRef<'a, L> {
        self.view.with_ids(ids)
    }

    /// Materialises the view: the induced graph, distances, cloned labels
    /// and identifiers, equal to the [`View`] extracted for the same node.
    pub fn to_owned(self) -> View<L>
    where
        L: Clone,
    {
        let labels = self.labels().cloned().collect();
        let ids = self.ids().collect();
        View::from_ball(self.view.ball.to_ball(), labels, ids)
    }
}

/// The radius-`t` view of a node in an input `(G, x, Id)` as a value: the
/// induced subgraph on `B(v, t)` with the labels **and identifiers** of its
/// nodes.  Algorithms read it through [`View::as_view`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct View<L> {
    graph: Graph,
    center: NodeId,
    radius: usize,
    distances: Vec<usize>,
    labels: Vec<L>,
    ids: Vec<u64>,
}

/// Distances from `center` to every node of `graph` (`usize::MAX` where
/// unreachable).
fn distances_from(graph: &Graph, center: NodeId) -> Vec<usize> {
    graph
        .bfs_distances(center)
        // ld-analyze: allow(D004, reason = "caller contract: the view is constructed around one of its own nodes")
        .expect("center must be a node of the view graph")
        .reachable()
        .fold(vec![usize::MAX; graph.node_count()], |mut acc, (v, d)| {
            acc[v.index()] = d;
            acc
        })
}

impl<L> View<L> {
    /// Assembles a view from a ball plus labels and identifiers in ball-local
    /// node order.
    pub(crate) fn from_ball(ball: Ball, labels: Vec<L>, ids: Vec<u64>) -> Self {
        debug_assert_eq!(ball.node_count(), labels.len());
        debug_assert_eq!(ball.node_count(), ids.len());
        let (graph, center, radius, _mapping, distances) = ball.into_parts();
        View {
            center,
            radius,
            graph,
            distances,
            labels,
            ids,
        }
    }

    /// Builds a view directly from parts (used by neighbourhood generators
    /// that synthesise views which are not extracted from a concrete input).
    pub fn from_parts(
        graph: Graph,
        center: NodeId,
        radius: usize,
        labels: Vec<L>,
        ids: Vec<u64>,
    ) -> Self {
        View {
            distances: distances_from(&graph, center),
            graph,
            center,
            radius,
            labels,
            ids,
        }
    }

    /// The borrowed form algorithms read, with the identity mapping onto
    /// this view's own graph.
    pub fn as_view(&self) -> ViewRef<'_, L> {
        ViewRef {
            view: ObliviousViewRef::new(
                BallRef::whole(&self.graph, self.center, self.radius, &self.distances),
                &self.labels,
            ),
            ids: Ids::ByNode(&self.ids),
        }
    }

    /// The view's graph (the induced subgraph on the ball).
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The centre node, in view-local numbering.
    pub fn center(&self) -> NodeId {
        self.center
    }

    /// The radius the view was extracted with.
    pub fn radius(&self) -> usize {
        self.radius
    }

    /// Number of nodes in the view.
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// All labels in view-local node order.
    pub fn labels(&self) -> &[L] {
        &self.labels
    }

    /// All identifiers in view-local node order.
    pub fn ids(&self) -> &[u64] {
        &self.ids
    }
}

impl<L: Eq + Hash> View<L> {
    /// Centre-, label- and identifier-preserving isomorphism: the relation
    /// under which a local algorithm *must* produce equal outputs.
    pub fn indistinguishable_from(&self, other: &View<L>) -> bool {
        if self.radius != other.radius {
            return false;
        }
        are_compatible_isomorphic(
            &self.graph,
            &other.graph,
            |u, v| {
                self.labels[u.index()] == other.labels[v.index()]
                    && self.ids[u.index()] == other.ids[v.index()]
            },
            &[(self.center, other.center)],
        )
    }

    /// A hash that is invariant under view isomorphism (used to bucket views
    /// before exact comparison).  Retained as the cheap heuristic behind the
    /// pairwise oracle path; the engine itself uses [`View::canonical_code`].
    pub fn canonical_key(&self) -> u64 {
        let colors: Vec<u64> = self
            .graph
            .nodes()
            .map(|v| color_of(&(color_of(&self.labels[v.index()]), self.ids[v.index()])))
            .collect();
        centered_wl_hash(&self.graph, self.center, &colors)
    }

    /// A **total** canonical invariant: two views have equal codes iff they
    /// are [`indistinguishable_from`](View::indistinguishable_from) each
    /// other.  Labels and identifiers enter the code through a 64-bit hash,
    /// so the "iff" carries the usual content-hash caveat (a `2⁻⁶⁴`-order
    /// collision of distinct label/id pairs could merge two views); graph
    /// structure, centre and radius are embedded exactly.
    pub fn canonical_code(&self) -> CanonicalCode {
        let colors: Vec<u64> = self
            .graph
            .nodes()
            .map(|v| color_of(&(color_of(&self.labels[v.index()]), self.ids[v.index()])))
            .collect();
        centered_canonical_code(&self.graph, self.center, &colors).with_tag(self.radius as u64)
    }

    /// [`View::canonical_code`] served from a caller-held kernel scratch —
    /// byte-identical output, but bulk call sites skip the per-call
    /// thread-local lookup and reuse one warmed [`CanonScratch`] across a
    /// whole batch of views.
    pub fn canonical_code_in(&self, scratch: &mut CanonScratch) -> CanonicalCode {
        let colors: Vec<u64> = self
            .graph
            .nodes()
            .map(|v| color_of(&(color_of(&self.labels[v.index()]), self.ids[v.index()])))
            .collect();
        scratch
            .centered_code(&self.graph, self.center, &colors)
            .with_tag(self.radius as u64)
    }
}

/// The Id-oblivious radius-`t` view as a value: the same information as
/// [`View`] minus the identifiers.  Algorithms read it through
/// [`ObliviousView::as_view`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObliviousView<L> {
    graph: Graph,
    center: NodeId,
    radius: usize,
    distances: Vec<usize>,
    labels: Vec<L>,
}

impl<L> ObliviousView<L> {
    /// Assembles an oblivious view from an extracted ball plus labels in
    /// ball-local node order, reusing the ball's graph and distances.
    pub(crate) fn from_ball(ball: Ball, labels: Vec<L>) -> Self {
        debug_assert_eq!(ball.node_count(), labels.len());
        let (graph, center, radius, _mapping, distances) = ball.into_parts();
        ObliviousView {
            graph,
            center,
            radius,
            distances,
            labels,
        }
    }

    /// Builds an oblivious view directly from parts (used by neighbourhood
    /// generators).
    pub fn from_parts(graph: Graph, center: NodeId, radius: usize, labels: Vec<L>) -> Self {
        ObliviousView {
            distances: distances_from(&graph, center),
            graph,
            center,
            radius,
            labels,
        }
    }

    /// The borrowed form algorithms read, with the identity mapping onto
    /// this view's own graph.
    pub fn as_view(&self) -> ObliviousViewRef<'_, L> {
        ObliviousViewRef::new(
            BallRef::whole(&self.graph, self.center, self.radius, &self.distances),
            &self.labels,
        )
    }

    /// The view's graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The centre node, in view-local numbering.
    pub fn center(&self) -> NodeId {
        self.center
    }

    /// The radius the view was extracted with.
    pub fn radius(&self) -> usize {
        self.radius
    }

    /// Number of nodes in the view.
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// All labels in view-local node order.
    pub fn labels(&self) -> &[L] {
        &self.labels
    }
}

impl<L: Eq + Hash> ObliviousView<L> {
    /// Centre- and label-preserving isomorphism (identifiers ignored): the
    /// relation under which an Id-oblivious algorithm must produce equal
    /// outputs.
    pub fn indistinguishable_from(&self, other: &ObliviousView<L>) -> bool {
        if self.radius != other.radius {
            return false;
        }
        are_compatible_isomorphic(
            &self.graph,
            &other.graph,
            |u, v| self.labels[u.index()] == other.labels[v.index()],
            &[(self.center, other.center)],
        )
    }

    /// A hash invariant under oblivious-view isomorphism.  Retained as the
    /// bucketing heuristic behind the pairwise oracle path; the engine
    /// itself uses [`ObliviousView::canonical_code`].
    pub fn canonical_key(&self) -> u64 {
        let colors: Vec<u64> = self
            .graph
            .nodes()
            .map(|v| color_of(&self.labels[v.index()]))
            .collect();
        centered_wl_hash(&self.graph, self.center, &colors)
    }

    /// A **total** canonical invariant: two oblivious views have equal codes
    /// iff they are
    /// [`indistinguishable_from`](ObliviousView::indistinguishable_from)
    /// each other (labels enter through a 64-bit hash — see
    /// [`View::canonical_code`] for the collision caveat).  Dedup and
    /// coverage reduce to hash-set operations on these codes.
    pub fn canonical_code(&self) -> CanonicalCode {
        let colors: Vec<u64> = self
            .graph
            .nodes()
            .map(|v| color_of(&self.labels[v.index()]))
            .collect();
        centered_canonical_code(&self.graph, self.center, &colors).with_tag(self.radius as u64)
    }

    /// [`ObliviousView::canonical_code`] served from a caller-held kernel
    /// scratch ([`CanonScratch`]) — byte-identical output; the enumeration
    /// loops and the [`crate::cache::ViewCache`] batch path thread one
    /// scratch through every view of a cell so scratch setup amortises
    /// across the batch.
    pub fn canonical_code_in(&self, scratch: &mut CanonScratch) -> CanonicalCode {
        let colors: Vec<u64> = self
            .graph
            .nodes()
            .map(|v| color_of(&self.labels[v.index()]))
            .collect();
        scratch
            .centered_code(&self.graph, self.center, &colors)
            .with_tag(self.radius as u64)
    }
}

/// Hashing agrees with `Eq` (distances are a pure function of graph and
/// centre, so omitting them keeps the contract) — this lets exact-identical
/// views key hash maps, the addressing scheme of [`crate::cache::ViewCache`]
/// and the exact-dedup prepass of [`crate::enumeration`].
impl<L: Hash> Hash for ObliviousView<L> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.graph.hash(state);
        self.center.hash(state);
        self.radius.hash(state);
        self.labels.hash(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::IdAssignment;
    use crate::input::Input;
    use ld_graph::{generators, LabeledGraph};

    fn cycle_input(n: usize, start_id: u64) -> Input<u8> {
        let lg = LabeledGraph::uniform(generators::cycle(n), 0u8);
        Input::new(lg, IdAssignment::consecutive_from(n, start_id)).unwrap()
    }

    #[test]
    fn views_in_long_cycles_are_oblivious_indistinguishable() {
        // Radius-2 views in a 10-cycle and a 30-cycle look identical without
        // identifiers — the basic indistinguishability the paper exploits.
        let a = cycle_input(10, 0).oblivious_view(NodeId(3), 2);
        let b = cycle_input(30, 0).oblivious_view(NodeId(17), 2);
        assert!(a.indistinguishable_from(&b));
        assert_eq!(a.canonical_key(), b.canonical_key());
    }

    #[test]
    fn identifier_differences_break_full_view_indistinguishability() {
        let a = cycle_input(10, 0).view(NodeId(3), 2);
        let b = cycle_input(10, 100).view(NodeId(3), 2);
        assert!(!a.indistinguishable_from(&b));
        let (a, b) = (a.as_view().without_ids(), b.as_view().without_ids());
        assert!(a.to_owned().indistinguishable_from(&b.to_owned()));
    }

    #[test]
    fn same_input_same_node_is_indistinguishable_from_itself() {
        let input = cycle_input(12, 40);
        let a = input.view(NodeId(5), 3);
        let b = input.view(NodeId(5), 3);
        assert!(a.indistinguishable_from(&b));
        assert_eq!(a.canonical_key(), b.canonical_key());
    }

    #[test]
    fn view_accessors() {
        let input = cycle_input(8, 0);
        let owned = input.view(NodeId(0), 2);
        let view = owned.as_view();
        assert_eq!(view.radius(), 2);
        assert_eq!(view.node_count(), 5);
        assert_eq!(view.sphere(2).count(), 2);
        assert_eq!(view.neighbors_of_center().count(), 2);
        assert_eq!(view.max_id(), owned.ids().iter().copied().max());
        assert_eq!(view.distance(view.center()), 0);
        let oblivious = view.without_ids();
        assert_eq!(oblivious.sphere(1).count(), 2);
        assert_eq!(oblivious.distance(oblivious.center()), 0);
        assert_eq!(oblivious.neighbors_of_center().count(), 2);
        assert_eq!(oblivious.to_owned(), input.oblivious_view(NodeId(0), 2));
    }

    #[test]
    fn scanned_views_materialise_to_the_extracted_values() {
        let lg = LabeledGraph::from_fn(generators::grid(4, 5), |v| v.index() as u8);
        let input = Input::new(lg, IdAssignment::consecutive_from(20, 7)).unwrap();
        let mut extractor = ld_graph::BallExtractor::new();
        for v in input.graph().nodes() {
            for radius in 0..=3 {
                let ball = input.graph().ball(v, radius);
                let view = input.view_in(&mut extractor, v, radius);
                let owned = view.to_owned();
                assert_eq!(owned.graph(), ball.graph());
                assert_eq!(owned.center(), ball.center());
                let labels: Vec<u8> = ball.mapping().iter().map(|u| u.index() as u8).collect();
                assert_eq!(owned.labels(), &labels[..]);
                let ids: Vec<u64> = ball
                    .mapping()
                    .iter()
                    .map(|u| u.index() as u64 + 7)
                    .collect();
                assert_eq!(owned.ids(), &ids[..]);
            }
        }
    }

    #[test]
    fn scratch_codes_are_byte_identical_to_plain_codes() {
        let mut scratch = CanonScratch::new();
        let input = cycle_input(12, 40);
        for v in [NodeId(0), NodeId(5)] {
            for radius in 0..3 {
                let full = input.view(v, radius);
                assert_eq!(
                    full.canonical_code_in(&mut scratch).as_slice(),
                    full.canonical_code().as_slice()
                );
                let oblivious = input.oblivious_view(v, radius);
                assert_eq!(
                    oblivious.canonical_code_in(&mut scratch).as_slice(),
                    oblivious.canonical_code().as_slice()
                );
            }
        }
    }

    #[test]
    fn radius_mismatch_is_distinguishable() {
        let input = cycle_input(12, 0);
        let a = input.oblivious_view(NodeId(0), 2);
        let b = input.oblivious_view(NodeId(0), 3);
        assert!(!a.indistinguishable_from(&b));
    }

    #[test]
    fn with_ids_roundtrip() {
        let input = cycle_input(6, 0);
        let oblivious = input.oblivious_view(NodeId(2), 1);
        let ids = [7, 8, 9];
        let full = oblivious.as_view().with_ids(&ids);
        assert_eq!(full.ids().collect::<Vec<_>>(), ids);
        assert_eq!(full.center_id(), 7);
        assert_eq!(full.node_count(), 3);
        let reranked = input.view(NodeId(2), 1);
        let overlaid = reranked.as_view().with_ids(&[2, 1, 0]);
        assert_eq!(overlaid.max_id(), Some(2));
        assert_eq!(overlaid.to_owned().ids(), &[2, 1, 0]);
    }

    #[test]
    fn from_parts_builds_consistent_views() {
        let g = generators::path(3);
        let view = View::from_parts(g.clone(), NodeId(1), 1, vec!['a', 'b', 'c'], vec![5, 6, 7]);
        assert_eq!(view.as_view().distance(NodeId(0)), 1);
        assert_eq!(*view.as_view().center_label(), 'b');
        let ob = ObliviousView::from_parts(g, NodeId(1), 1, vec!['a', 'b', 'c']);
        assert_eq!(ob.as_view().distance(NodeId(2)), 1);
    }
}
