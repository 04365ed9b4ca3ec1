//! Port numberings and edge orientations (the PO model of the related-work
//! discussion).
//!
//! The paper compares the Id-oblivious model against the stronger OI
//! (order-invariant) and PO (port numbering + orientation) models.  We ship a
//! small PO substrate so the crate can express those baselines and so the
//! experiment suite can demonstrate the classical PO-impossible tasks the
//! paper mentions (orienting the edges; 2-colouring a 1-regular graph).

use crate::graph::{csr_offset, Graph, NodeId};
use crate::{GraphError, Result};

/// A port numbering: every node numbers its incident edges `0..deg(v)`.
///
/// Stored in [`Graph`]'s compressed-sparse-row layout: node `v`'s
/// neighbours, ordered by port number, are `ports[offsets[v]..offsets[v + 1]]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortNumbering {
    offsets: Vec<u32>,
    ports: Vec<NodeId>,
}

impl PortNumbering {
    /// The canonical port numbering: ports follow increasing neighbour id.
    pub fn canonical(graph: &Graph) -> Self {
        Self::from_rows(graph.nodes().map(|v| graph.neighbors(v)))
    }

    /// Builds a port numbering from an explicit neighbour ordering per node.
    ///
    /// # Errors
    ///
    /// Returns an error if the ordering of some node is not a permutation of
    /// its neighbourhood in `graph`.
    pub fn from_orderings(graph: &Graph, orderings: Vec<Vec<NodeId>>) -> Result<Self> {
        if orderings.len() != graph.node_count() {
            return Err(GraphError::InvalidParameter {
                reason: format!(
                    "expected {} orderings, got {}",
                    graph.node_count(),
                    orderings.len()
                ),
            });
        }
        for (v, order) in orderings.iter().enumerate() {
            let mut got = order.clone();
            got.sort_unstable();
            if !graph.neighbors(NodeId::from(v)).eq(got) {
                return Err(GraphError::InvalidParameter {
                    reason: format!(
                        "ordering of node {v} is not a permutation of its neighbourhood"
                    ),
                });
            }
        }
        Ok(Self::from_rows(orderings))
    }

    fn from_rows<R: IntoIterator<Item = NodeId>>(rows: impl IntoIterator<Item = R>) -> Self {
        let mut offsets = vec![0];
        let mut ports = Vec::new();
        for row in rows {
            ports.extend(row);
            offsets.push(csr_offset(ports.len()));
        }
        PortNumbering { offsets, ports }
    }

    /// The neighbours of `v` in port order, if `v` is a node.
    fn row(&self, v: NodeId) -> Option<&[NodeId]> {
        let end = *self.offsets.get(v.index() + 1)?;
        Some(&self.ports[self.offsets[v.index()] as usize..end as usize])
    }

    /// Number of ports (degree) of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a node.
    pub fn degree(&self, v: NodeId) -> usize {
        self.row(v).expect("port numbering covers every node").len()
    }

    /// The neighbour reached through port `port` of node `v`, if any.
    pub fn neighbor(&self, v: NodeId, port: usize) -> Option<NodeId> {
        self.row(v).and_then(|p| p.get(port)).copied()
    }

    /// The port of `v` that leads to `u`, if they are adjacent.
    pub fn port_to(&self, v: NodeId, u: NodeId) -> Option<usize> {
        self.row(v).and_then(|p| p.iter().position(|&w| w == u))
    }
}

/// An orientation assigns a direction to every edge of a graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Orientation {
    /// Directed edges `(tail, head)`, one per undirected edge, sorted.
    arcs: Vec<(NodeId, NodeId)>,
}

impl Orientation {
    /// Orients every edge from its smaller endpoint to its larger endpoint.
    pub fn from_lower_to_higher(graph: &Graph) -> Self {
        let arcs = graph.edges().collect();
        Orientation { arcs }
    }

    /// Builds an orientation from explicit arcs.
    ///
    /// # Errors
    ///
    /// Returns an error unless the arcs orient each edge of `graph` exactly
    /// once.
    pub fn from_arcs(graph: &Graph, arcs: Vec<(NodeId, NodeId)>) -> Result<Self> {
        if arcs.len() != graph.edge_count() {
            return Err(GraphError::InvalidParameter {
                reason: format!("expected {} arcs, got {}", graph.edge_count(), arcs.len()),
            });
        }
        let mut seen: Vec<(NodeId, NodeId)> = Vec::with_capacity(arcs.len());
        for &(u, v) in &arcs {
            if !graph.has_edge(u, v) {
                return Err(GraphError::InvalidParameter {
                    reason: format!("arc ({u}, {v}) does not correspond to an edge"),
                });
            }
            let key = if u < v { (u, v) } else { (v, u) };
            if seen.contains(&key) {
                return Err(GraphError::InvalidParameter {
                    reason: format!("edge {{{u}, {v}}} oriented twice"),
                });
            }
            seen.push(key);
        }
        let mut arcs = arcs;
        arcs.sort_unstable();
        Ok(Orientation { arcs })
    }

    /// All arcs `(tail, head)`.
    pub fn arcs(&self) -> &[(NodeId, NodeId)] {
        &self.arcs
    }

    /// Returns `true` if the edge `{u, v}` is oriented from `u` to `v`.
    pub fn is_oriented(&self, u: NodeId, v: NodeId) -> bool {
        self.arcs.binary_search(&(u, v)).is_ok()
    }

    /// Out-degree of `v` under this orientation.
    pub fn out_degree(&self, v: NodeId) -> usize {
        self.arcs.iter().filter(|&&(tail, _)| tail == v).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn canonical_ports_follow_neighbor_order() {
        let g = generators::star(3);
        let p = PortNumbering::canonical(&g);
        assert_eq!(p.degree(NodeId(0)), 3);
        assert_eq!(p.neighbor(NodeId(0), 0), Some(NodeId(1)));
        assert_eq!(p.neighbor(NodeId(0), 2), Some(NodeId(3)));
        assert_eq!(p.neighbor(NodeId(0), 3), None);
        assert_eq!(p.port_to(NodeId(1), NodeId(0)), Some(0));
    }

    #[test]
    fn from_orderings_validates_permutations() {
        let g = generators::path(3);
        let ok = PortNumbering::from_orderings(
            &g,
            vec![vec![NodeId(1)], vec![NodeId(2), NodeId(0)], vec![NodeId(1)]],
        );
        assert!(ok.is_ok());
        assert_eq!(ok.unwrap().neighbor(NodeId(1), 0), Some(NodeId(2)));

        let bad = PortNumbering::from_orderings(
            &g,
            vec![vec![NodeId(1)], vec![NodeId(0)], vec![NodeId(1)]],
        );
        assert!(bad.is_err());
        let wrong_len = PortNumbering::from_orderings(&g, vec![vec![NodeId(1)]]);
        assert!(wrong_len.is_err());
    }

    #[test]
    fn lower_to_higher_orientation() {
        let g = generators::cycle(4);
        let o = Orientation::from_lower_to_higher(&g);
        assert_eq!(o.arcs().len(), 4);
        assert!(o.is_oriented(NodeId(0), NodeId(1)));
        assert!(!o.is_oriented(NodeId(1), NodeId(0)));
        assert_eq!(o.out_degree(NodeId(0)), 2);
    }

    #[test]
    fn from_arcs_validation() {
        let g = generators::path(3);
        let ok = Orientation::from_arcs(&g, vec![(NodeId(1), NodeId(0)), (NodeId(1), NodeId(2))]);
        assert!(ok.is_ok());
        assert_eq!(ok.unwrap().out_degree(NodeId(1)), 2);

        let not_edge =
            Orientation::from_arcs(&g, vec![(NodeId(0), NodeId(2)), (NodeId(1), NodeId(2))]);
        assert!(not_edge.is_err());
        let doubled =
            Orientation::from_arcs(&g, vec![(NodeId(0), NodeId(1)), (NodeId(1), NodeId(0))]);
        assert!(doubled.is_err());
        let wrong_count = Orientation::from_arcs(&g, vec![(NodeId(0), NodeId(1))]);
        assert!(wrong_count.is_err());
    }
}
