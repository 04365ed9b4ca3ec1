//! Inputs `(G, x, Id)` of the local-decision model.

use crate::error::LocalError;
use crate::ids::IdAssignment;
use crate::view::{ObliviousView, ObliviousViewRef, View, ViewRef};
use crate::Result;
use ld_graph::{BallExtractor, BallRef, Graph, LabeledGraph, NodeId};

/// An input `(G, x, Id)`: a connected labelled graph together with a
/// one-to-one identifier assignment.
///
/// The paper works under the promise that inputs are connected (Section 1,
/// "Assumptions"), because otherwise the distinction between bounded and
/// unbounded identifiers collapses; [`Input::new`] therefore rejects
/// disconnected graphs.  Use [`Input::new_unchecked_connectivity`] for
/// deliberately malformed experiment inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Input<L> {
    labeled: LabeledGraph<L>,
    ids: IdAssignment,
}

impl<L> Input<L> {
    /// Builds an input, checking identifier consistency and connectivity.
    ///
    /// # Errors
    ///
    /// Returns an error if the identifier count does not match the node
    /// count, or the graph is disconnected.
    pub fn new(labeled: LabeledGraph<L>, ids: IdAssignment) -> Result<Self> {
        if labeled.node_count() != ids.len() {
            return Err(LocalError::IdentifierCountMismatch {
                nodes: labeled.node_count(),
                ids: ids.len(),
            });
        }
        if !labeled.graph().is_connected() {
            return Err(LocalError::DisconnectedInput);
        }
        Ok(Input { labeled, ids })
    }

    /// Builds an input without the connectivity check (the identifier count
    /// is still validated).
    ///
    /// # Errors
    ///
    /// Returns an error if the identifier count does not match the node
    /// count.
    pub fn new_unchecked_connectivity(labeled: LabeledGraph<L>, ids: IdAssignment) -> Result<Self> {
        if labeled.node_count() != ids.len() {
            return Err(LocalError::IdentifierCountMismatch {
                nodes: labeled.node_count(),
                ids: ids.len(),
            });
        }
        Ok(Input { labeled, ids })
    }

    /// Convenience: wraps a labelled graph with consecutive identifiers
    /// `Id(v) = v`.
    ///
    /// # Errors
    ///
    /// Returns an error if the graph is disconnected.
    pub fn with_consecutive_ids(labeled: LabeledGraph<L>) -> Result<Self> {
        let n = labeled.node_count();
        Input::new(labeled, IdAssignment::consecutive(n))
    }

    /// The labelled graph `(G, x)`.
    pub fn labeled(&self) -> &LabeledGraph<L> {
        &self.labeled
    }

    /// The underlying graph `G`.
    pub fn graph(&self) -> &Graph {
        self.labeled.graph()
    }

    /// The identifier assignment `Id`.
    pub fn ids(&self) -> &IdAssignment {
        &self.ids
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.labeled.node_count()
    }

    /// The label `x(v)`.
    pub fn label(&self, v: NodeId) -> &L {
        self.labeled.label(v)
    }

    /// The identifier `Id(v)`.
    pub fn id(&self, v: NodeId) -> u64 {
        self.ids.id(v)
    }

    /// Replaces the identifier assignment, keeping the labelled graph — the
    /// re-assignment operation at the heart of the Id-oblivious definition.
    ///
    /// # Errors
    ///
    /// Returns an error if the new assignment does not cover every node.
    pub fn with_ids(&self, ids: IdAssignment) -> Result<Self>
    where
        L: Clone,
    {
        if self.node_count() != ids.len() {
            return Err(LocalError::IdentifierCountMismatch {
                nodes: self.node_count(),
                ids: ids.len(),
            });
        }
        Ok(Input {
            labeled: self.labeled.clone(),
            ids,
        })
    }

    /// The radius-`radius` view of node `v`, including identifiers, read in
    /// place: the ball is the extractor's BFS scratch, the labels and
    /// identifiers are this input's own.  Nothing is materialised — this is
    /// what the decision loops hand to algorithms.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn view_in<'a>(
        &'a self,
        extractor: &'a mut BallExtractor,
        v: NodeId,
        radius: usize,
    ) -> ViewRef<'a, L> {
        ViewRef::new(
            self.ball_in(extractor, v, radius),
            self.labeled.labels(),
            self.ids.ids(),
        )
    }

    /// The Id-oblivious radius-`radius` view of node `v`, read in place
    /// (see [`Input::view_in`]).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn oblivious_view_in<'a>(
        &'a self,
        extractor: &'a mut BallExtractor,
        v: NodeId,
        radius: usize,
    ) -> ObliviousViewRef<'a, L> {
        ObliviousViewRef::new(self.ball_in(extractor, v, radius), self.labeled.labels())
    }

    fn ball_in<'a>(
        &'a self,
        extractor: &'a mut BallExtractor,
        v: NodeId,
        radius: usize,
    ) -> BallRef<'a> {
        extractor
            .scan(self.graph(), v, radius)
            // ld-analyze: allow(D004, reason = "caller contract: v must be a node of this input's graph")
            .expect("view node must exist")
    }

    /// Extracts the radius-`radius` view of node `v`, including identifiers,
    /// as an owned value.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn view(&self, v: NodeId, radius: usize) -> View<L>
    where
        L: Clone,
    {
        self.view_in(&mut BallExtractor::new(), v, radius)
            .to_owned()
    }

    /// Extracts the Id-oblivious radius-`radius` view of node `v` as an
    /// owned value.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn oblivious_view(&self, v: NodeId, radius: usize) -> ObliviousView<L>
    where
        L: Clone,
    {
        self.oblivious_view_with(&mut BallExtractor::new(), v, radius)
    }

    /// [`Input::oblivious_view`] with a caller-provided [`BallExtractor`], so
    /// loops that need owned views (a memo key) reuse the extraction
    /// scratch buffers instead of re-allocating them per node.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn oblivious_view_with(
        &self,
        extractor: &mut BallExtractor,
        v: NodeId,
        radius: usize,
    ) -> ObliviousView<L>
    where
        L: Clone,
    {
        self.oblivious_view_in(extractor, v, radius).to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ld_graph::generators;

    fn labeled_cycle(n: usize) -> LabeledGraph<usize> {
        LabeledGraph::from_fn(generators::cycle(n), ld_graph::NodeId::index)
    }

    #[test]
    fn new_validates_count_and_connectivity() {
        let lg = labeled_cycle(5);
        assert!(Input::new(lg.clone(), IdAssignment::consecutive(4)).is_err());
        assert!(Input::new(lg, IdAssignment::consecutive(5)).is_ok());

        let disconnected = LabeledGraph::uniform(
            ld_graph::Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap(),
            0u8,
        );
        assert!(matches!(
            Input::new(disconnected.clone(), IdAssignment::consecutive(4)),
            Err(LocalError::DisconnectedInput)
        ));
        assert!(
            Input::new_unchecked_connectivity(disconnected, IdAssignment::consecutive(4)).is_ok()
        );
    }

    #[test]
    fn accessors_expose_labels_and_ids() {
        let input = Input::new(labeled_cycle(4), IdAssignment::consecutive_from(4, 100)).unwrap();
        assert_eq!(input.node_count(), 4);
        assert_eq!(*input.label(NodeId(2)), 2);
        assert_eq!(input.id(NodeId(2)), 102);
        assert_eq!(input.graph().edge_count(), 4);
    }

    #[test]
    fn with_ids_keeps_labels() {
        let input = Input::with_consecutive_ids(labeled_cycle(4)).unwrap();
        let renumbered = input
            .with_ids(IdAssignment::consecutive_from(4, 50))
            .unwrap();
        assert_eq!(*renumbered.label(NodeId(1)), 1);
        assert_eq!(renumbered.id(NodeId(1)), 51);
        assert!(input.with_ids(IdAssignment::consecutive(3)).is_err());
    }

    #[test]
    fn views_carry_labels_and_ids_from_the_ball() {
        let input = Input::new(labeled_cycle(8), IdAssignment::consecutive_from(8, 10)).unwrap();
        let view = input.view(NodeId(0), 2);
        assert_eq!(view.node_count(), 5);
        let mut extractor = BallExtractor::new();
        for view in [view.as_view(), input.view_in(&mut extractor, NodeId(0), 2)] {
            assert_eq!(*view.center_label(), 0);
            assert_eq!(view.center_id(), 10);
            // Every node of the view keeps its original label/id pairing.
            for v in view.nodes() {
                assert_eq!(*view.label(v) as u64 + 10, view.id(v));
            }
        }
        let oblivious = input.oblivious_view(NodeId(0), 2);
        assert_eq!(oblivious.node_count(), 5);
        assert_eq!(*oblivious.as_view().center_label(), 0);
    }
}
