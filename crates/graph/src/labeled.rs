//! Labelled graphs `(G, x)`: a graph together with a local input `x(v)` per
//! node, exactly as in Section 1.2 of the paper.

use crate::graph::{Graph, NodeId};
use crate::{GraphError, Result};

/// A labelled graph `(G, x)` where each node `v` carries a local input
/// `x(v)` of type `L`.
///
/// Labelled graph *properties* (collections of labelled graphs closed under
/// isomorphism) are defined in the `ld-local` crate; this type is only the
/// carrier.
///
/// # Example
///
/// ```
/// use ld_graph::{generators, LabeledGraph};
///
/// // A 2-coloured 4-cycle.
/// let g = generators::cycle(4);
/// let lg = LabeledGraph::new(g, vec![0u8, 1, 0, 1])?;
/// assert_eq!(*lg.label(ld_graph::NodeId(2)), 0);
/// # Ok::<(), ld_graph::GraphError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabeledGraph<L> {
    graph: Graph,
    labels: Vec<L>,
}

impl<L> LabeledGraph<L> {
    /// Wraps a graph with one label per node.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::LabelCountMismatch`] if `labels.len()` differs
    /// from the number of nodes.
    pub fn new(graph: Graph, labels: Vec<L>) -> Result<Self> {
        if graph.node_count() != labels.len() {
            return Err(GraphError::LabelCountMismatch {
                nodes: graph.node_count(),
                labels: labels.len(),
            });
        }
        Ok(LabeledGraph { graph, labels })
    }

    /// Labels every node with the same (cloned) label.
    pub fn uniform(graph: Graph, label: L) -> Self
    where
        L: Clone,
    {
        let labels = vec![label; graph.node_count()];
        LabeledGraph { graph, labels }
    }

    /// Labels node `v` by calling `f(v)`.
    pub fn from_fn(graph: Graph, mut f: impl FnMut(NodeId) -> L) -> Self {
        let labels = graph.nodes().map(&mut f).collect();
        LabeledGraph { graph, labels }
    }

    /// The underlying unlabelled graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The label of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn label(&self, v: NodeId) -> &L {
        &self.labels[v.index()]
    }

    /// The label of node `v`, or `None` if out of range.
    pub fn get_label(&self, v: NodeId) -> Option<&L> {
        self.labels.get(v.index())
    }

    /// All labels in node order.
    pub fn labels(&self) -> &[L] {
        &self.labels
    }

    /// Mutable access to the label of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn label_mut(&mut self, v: NodeId) -> &mut L {
        &mut self.labels[v.index()]
    }

    /// Number of nodes (same as the underlying graph).
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// Iterator over `(node, label)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &L)> {
        self.graph
            .nodes()
            .map(move |v| (v, &self.labels[v.index()]))
    }

    /// Applies `f` to every label, producing a relabelled copy of the same
    /// graph.
    pub fn map_labels<M>(&self, mut f: impl FnMut(NodeId, &L) -> M) -> LabeledGraph<M> {
        LabeledGraph {
            graph: self.graph.clone(),
            labels: self
                .graph
                .nodes()
                .map(|v| f(v, &self.labels[v.index()]))
                .collect(),
        }
    }

    /// Destructures into the graph and the label vector.
    pub fn into_parts(self) -> (Graph, Vec<L>) {
        (self.graph, self.labels)
    }

    /// Induced labelled subgraph on `nodes` (labels cloned), together with
    /// the mapping from new ids to original ids.
    ///
    /// # Errors
    ///
    /// Returns an error if any node is out of range.
    pub fn induced_subgraph(&self, nodes: &[NodeId]) -> Result<(LabeledGraph<L>, Vec<NodeId>)>
    where
        L: Clone,
    {
        let (sub, mapping) = self.graph.induced_subgraph(nodes)?;
        let labels = mapping
            .iter()
            .map(|&v| self.labels[v.index()].clone())
            .collect();
        Ok((LabeledGraph { graph: sub, labels }, mapping))
    }

    /// Disjoint union of two labelled graphs; returns the offset of the
    /// second graph's nodes.
    pub fn disjoint_union(&self, other: &LabeledGraph<L>) -> (LabeledGraph<L>, usize)
    where
        L: Clone,
    {
        let (graph, offset) = self.graph.disjoint_union(&other.graph);
        let mut labels = self.labels.clone();
        labels.extend(other.labels.iter().cloned());
        (LabeledGraph { graph, labels }, offset)
    }
}

impl<L> AsRef<Graph> for LabeledGraph<L> {
    fn as_ref(&self) -> &Graph {
        &self.graph
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn new_rejects_wrong_label_count() {
        let g = generators::cycle(4);
        assert!(matches!(
            LabeledGraph::new(g, vec![1u8, 2]),
            Err(GraphError::LabelCountMismatch {
                nodes: 4,
                labels: 2
            })
        ));
    }

    #[test]
    fn uniform_and_from_fn_labels() {
        let g = generators::path(3);
        let lg = LabeledGraph::uniform(g.clone(), "x");
        assert!(lg.iter().all(|(_, l)| *l == "x"));
        let lg2 = LabeledGraph::from_fn(g, |v| v.index() * 10);
        assert_eq!(*lg2.label(NodeId(2)), 20);
    }

    #[test]
    fn map_labels_preserves_structure() {
        let g = generators::cycle(5);
        let lg = LabeledGraph::from_fn(g, super::super::graph::NodeId::index);
        let doubled = lg.map_labels(|_, &l| l * 2);
        assert_eq!(doubled.graph().edge_count(), 5);
        assert_eq!(*doubled.label(NodeId(3)), 6);
    }

    #[test]
    fn induced_subgraph_carries_labels() {
        let g = generators::path(4);
        let lg = LabeledGraph::new(g, vec!['a', 'b', 'c', 'd']).unwrap();
        let (sub, mapping) = lg.induced_subgraph(&[NodeId(1), NodeId(2)]).unwrap();
        assert_eq!(sub.labels(), &['b', 'c']);
        assert_eq!(mapping, vec![NodeId(1), NodeId(2)]);
        assert_eq!(sub.graph().edge_count(), 1);
    }

    #[test]
    fn disjoint_union_concatenates_labels() {
        let a = LabeledGraph::uniform(generators::path(2), 1u32);
        let b = LabeledGraph::uniform(generators::path(3), 2u32);
        let (u, offset) = a.disjoint_union(&b);
        assert_eq!(offset, 2);
        assert_eq!(u.labels(), &[1, 1, 2, 2, 2]);
        assert_eq!(u.graph().edge_count(), 3);
    }

    #[test]
    fn label_mut_and_get_label() {
        let mut lg = LabeledGraph::uniform(generators::path(2), 0u8);
        *lg.label_mut(NodeId(1)) = 9;
        assert_eq!(lg.get_label(NodeId(1)), Some(&9));
        assert_eq!(lg.get_label(NodeId(7)), None);
    }

    #[test]
    fn into_parts_roundtrip() {
        let lg = LabeledGraph::uniform(generators::cycle(3), 7u8);
        let (g, labels) = lg.into_parts();
        assert_eq!(g.node_count(), labels.len());
    }
}
