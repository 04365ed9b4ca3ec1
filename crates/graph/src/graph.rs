//! Simple undirected graphs in compressed-sparse-row form.

use crate::error::GraphError;
use crate::Result;
use std::fmt;

/// Identifier of a node *position* inside a [`Graph`].
///
/// This is a structural index (`0..node_count()`), **not** the numerical
/// identifier `Id(v)` of the LOCAL model — those are assigned separately by
/// the `ld-local` crate precisely because the paper studies what happens when
/// they are reassigned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Returns the node index as a `usize` for indexing into per-node arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<usize> for NodeId {
    fn from(value: usize) -> Self {
        NodeId(value as u32)
    }
}

impl From<NodeId> for usize {
    fn from(value: NodeId) -> Self {
        value.index()
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A finite simple undirected graph.
///
/// Nodes are the integers `0..n`; edges are unordered pairs of distinct
/// nodes.  Adjacency is stored in compressed-sparse-row (CSR) form — one
/// `offsets` array and one `targets` array for the whole graph — and every
/// row is kept sorted so that neighbourhood iteration is deterministic.
/// Determinism matters because local views are compared up to isomorphism
/// and hashed into canonical forms.
///
/// # Layout invariants
///
/// * `offsets` has `n + 1` entries, starts at 0, never decreases and ends
///   at `targets.len()`;
/// * row `v` is `targets[offsets[v]..offsets[v + 1]]`: the neighbours of
///   `v`, strictly increasing, in range and never `v` itself;
/// * rows are symmetric — `w` is in row `v` exactly when `v` is in row
///   `w` — so `targets` holds `2m` entries and `edge_count` is half its
///   length.
///
/// The layout determines the graph, so structurally equal graphs compare
/// (and hash) equal however they were built.  Graphs are built in one bulk
/// pass — [`Graph::from_edges`], the [`generators`](crate::generators), or
/// the whole-graph operations below; there is no edge-at-a-time insertion.
///
/// # Example
///
/// ```
/// use ld_graph::{Graph, NodeId};
///
/// let g = Graph::from_edges(3, [(0, 1), (2, 1)])?;
/// let (a, b, c) = (NodeId(0), NodeId(1), NodeId(2));
/// assert_eq!(g.degree(b)?, 2);
/// assert!(g.neighbors(b).eq([a, c]));
/// assert!(g.has_edge(a, b));
/// assert!(!g.has_edge(a, c));
/// # Ok::<(), ld_graph::GraphError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Graph {
    offsets: Vec<u32>,
    targets: Vec<NodeId>,
}

impl Default for Graph {
    fn default() -> Self {
        Graph::new()
    }
}

impl Graph {
    /// Creates an empty graph with no nodes.
    pub fn new() -> Self {
        Graph::with_nodes(0)
    }

    /// Creates a graph with `n` isolated nodes.
    pub fn with_nodes(n: usize) -> Self {
        Graph {
            offsets: vec![0; n + 1],
            targets: Vec::new(),
        }
    }

    /// Builds a graph on `n` nodes row by row: `fill(v, row)` pushes the
    /// neighbours of `v` (in any order) onto `row`, which is then sorted in
    /// place.  The rows must describe a simple undirected graph — in range,
    /// loop-free, duplicate-free and symmetric — which debug builds check.
    pub(crate) fn from_rows(n: usize, mut fill: impl FnMut(usize, &mut Vec<NodeId>)) -> Self {
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        let mut targets = Vec::new();
        for v in 0..n {
            let start = targets.len();
            fill(v, &mut targets);
            targets[start..].sort_unstable();
            offsets.push(csr_offset(targets.len()));
        }
        Graph::from_csr(offsets, targets)
    }

    /// Adopts CSR arrays that already meet the layout invariants (sorted,
    /// in-range, loop-free, symmetric rows), which debug builds check.
    pub(crate) fn from_csr(offsets: Vec<u32>, targets: Vec<NodeId>) -> Self {
        let g = Graph { offsets, targets };
        debug_assert!(g.offsets.first() == Some(&0));
        debug_assert!(g.offsets.last() == Some(&csr_offset(g.targets.len())));
        debug_assert!(g.nodes().all(|v| {
            let row = g.row(v);
            row.windows(2).all(|w| w[0] < w[1]) && row.iter().all(|&w| w != v && g.has_edge(w, v))
        }));
        g
    }

    /// Builds a graph with `n` nodes from an edge list, in one pass: count
    /// degrees, scatter both orientations of every edge, sort each row.
    ///
    /// # Errors
    ///
    /// Returns an error for the first offending edge in input order: an
    /// endpoint out of range ([`GraphError::NodeOutOfRange`], `u` checked
    /// before `v`), a self-loop, or an edge that repeats an earlier one in
    /// either orientation ([`GraphError::DuplicateEdge`] with the repeat's
    /// own orientation).
    pub fn from_edges<I>(n: usize, edges: I) -> Result<Self>
    where
        I: IntoIterator<Item = (usize, usize)>,
    {
        let edges: Vec<(usize, usize)> = edges.into_iter().collect();
        let mut targets = vec![NodeId(0); csr_offset(2 * edges.len()) as usize];
        // Degrees land one slot to the right; the exclusive prefix sum then
        // leaves `offsets[u + 1]` at the start of row `u`, and scattering
        // advances it to the row's end, which is where row `u + 1` starts.
        let mut offsets = vec![0u32; n + 1];
        for &(u, v) in &edges {
            if u >= n || v >= n || u == v {
                return Err(first_edge_error(n, &edges));
            }
            offsets[u + 1] += 1;
            offsets[v + 1] += 1;
        }
        let mut start = 0;
        for slot in &mut offsets[1..] {
            let degree = *slot;
            *slot = start;
            start += degree;
        }
        for &(u, v) in &edges {
            for (from, to) in [(u, v), (v, u)] {
                let slot = &mut offsets[from + 1];
                targets[*slot as usize] = NodeId::from(to);
                *slot += 1;
            }
        }
        for w in offsets.windows(2) {
            let row = &mut targets[w[0] as usize..w[1] as usize];
            row.sort_unstable();
            if row.windows(2).any(|pair| pair[0] == pair[1]) {
                return Err(first_edge_error(n, &edges));
            }
        }
        Ok(Graph { offsets, targets })
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.targets.len() / 2
    }

    /// Returns `true` if the graph has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.node_count() == 0
    }

    /// Checks that `v` is a valid node of this graph.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] when it is not.
    pub fn check_node(&self, v: NodeId) -> Result<()> {
        if v.index() < self.node_count() {
            Ok(())
        } else {
            Err(GraphError::NodeOutOfRange {
                node: v.index(),
                node_count: self.node_count(),
            })
        }
    }

    /// The sorted neighbour row of `v`.  Panics if `v` is out of range.
    #[inline]
    pub(crate) fn row(&self, v: NodeId) -> &[NodeId] {
        let v = v.index();
        &self.targets[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }

    /// Returns `true` if the edge `{u, v}` is present.
    ///
    /// Out-of-range endpoints simply yield `false`.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        u.index() < self.node_count() && self.row(u).binary_search(&v).is_ok()
    }

    /// Degree of node `v`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] if `v` is not a node.
    pub fn degree(&self, v: NodeId) -> Result<usize> {
        self.check_node(v)?;
        Ok(self.row(v).len())
    }

    /// Iterator over the neighbours of `v` in increasing order.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range; use [`Graph::check_node`] first when the
    /// node id comes from untrusted input.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> NeighborIter<'_> {
        NeighborIter {
            inner: self.row(v).iter(),
        }
    }

    /// The nodes that do not *shift* onto their successor, ascending: every
    /// `x` for which `x + 1` is not a node, `same(x)` is false, or row
    /// `x + 1` is not row `x` with every entry plus one.  The last node is
    /// always listed.  One pass over the CSR arrays, `O(n + m)`.
    ///
    /// View enumeration passes "`x` and `x + 1` carry equal labels" as
    /// `same`: the nodes between two breaks are then translates of each
    /// other, and so are the balls around them (`ld_local::enumeration`).
    ///
    /// ```
    /// use ld_graph::generators;
    ///
    /// // Rows 1..=n-3 of a cycle are [x - 1, x + 1]; rows 0 and n-1 wrap.
    /// assert_eq!(generators::cycle(8).shift_breaks(|_| true), [0, 6, 7]);
    /// assert_eq!(generators::path(8).shift_breaks(|x| x != 3), [0, 3, 6, 7]);
    /// ```
    pub fn shift_breaks(&self, mut same: impl FnMut(usize) -> bool) -> Vec<usize> {
        let Some(last) = self.node_count().checked_sub(1) else {
            return Vec::new();
        };
        let mut breaks = Vec::new();
        let (mut start, mut mid) = (0, self.offsets[1] as usize);
        for x in 0..last {
            let end = self.offsets[x + 2] as usize;
            let (here, next) = (&self.targets[start..mid], &self.targets[mid..end]);
            if !same(x)
                || here.len() != next.len()
                || here.iter().zip(next).any(|(p, q)| q.0 != p.0 + 1)
            {
                breaks.push(x);
            }
            (start, mid) = (mid, end);
        }
        breaks.push(last);
        breaks
    }

    /// Iterator over all nodes.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count()).map(NodeId::from)
    }

    /// Iterator over all edges `{u, v}` with `u < v`, ordered by `u` and
    /// then by `v`.
    pub fn edges(&self) -> EdgeIter<'_> {
        EdgeIter {
            graph: self,
            u: 0,
            pos: 0,
        }
    }

    fn degrees(&self) -> impl Iterator<Item = usize> + '_ {
        self.offsets.windows(2).map(|w| (w[1] - w[0]) as usize)
    }

    /// Maximum degree of the graph (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        self.degrees().max().unwrap_or(0)
    }

    /// Minimum degree of the graph (0 for the empty graph).
    pub fn min_degree(&self) -> usize {
        self.degrees().min().unwrap_or(0)
    }

    /// Returns the induced subgraph on `nodes` together with the mapping from
    /// new node ids to original node ids.
    ///
    /// Duplicate entries in `nodes` are ignored; the order of first
    /// occurrence determines the new numbering.
    ///
    /// # Errors
    ///
    /// Returns an error if any listed node is out of range.
    pub fn induced_subgraph(&self, nodes: &[NodeId]) -> Result<(Graph, Vec<NodeId>)> {
        let mut mapping: Vec<NodeId> = Vec::with_capacity(nodes.len());
        let mut position = vec![u32::MAX; self.node_count()];
        for &v in nodes {
            self.check_node(v)?;
            if position[v.index()] == u32::MAX {
                position[v.index()] = mapping.len() as u32;
                mapping.push(v);
            }
        }
        let sub = Graph::from_rows(mapping.len(), |new_u, row| {
            row.extend(
                self.row(mapping[new_u])
                    .iter()
                    .map(|w| position[w.index()])
                    .filter(|&new_w| new_w != u32::MAX)
                    .map(NodeId),
            );
        });
        Ok((sub, mapping))
    }

    /// Returns the disjoint union of `self` and `other`, together with the
    /// offset at which `other`'s nodes start in the result.
    pub fn disjoint_union(&self, other: &Graph) -> (Graph, usize) {
        let mut g = self.clone();
        let offset = g.append(other);
        (g, offset)
    }

    /// Appends a disjoint copy of `other` in place and returns the offset at
    /// which its nodes start.  Gluing `k` pieces this way costs their total
    /// size, where folding [`Graph::disjoint_union`] would re-copy the
    /// growing graph `k` times.
    pub fn append(&mut self, other: &Graph) -> usize {
        let offset = self.node_count();
        let base = csr_offset(self.targets.len());
        // The new total bounds every shifted offset below it.
        csr_offset(self.targets.len() + other.targets.len());
        self.offsets
            .extend(other.offsets[1..].iter().map(|&o| base + o));
        self.targets.extend(
            other
                .targets
                .iter()
                .map(|w| NodeId::from(w.index() + offset)),
        );
        offset
    }

    /// Degree sequence in non-increasing order (useful as a cheap isomorphism
    /// invariant).
    pub fn degree_sequence(&self) -> Vec<usize> {
        let mut degrees: Vec<usize> = self.degrees().collect();
        degrees.sort_unstable_by(|a, b| b.cmp(a));
        degrees
    }

    /// Relabels the graph by the permutation `perm`, where `perm[old] = new`.
    ///
    /// # Errors
    ///
    /// Returns an error if `perm` is not a permutation of `0..n`.
    pub fn relabel(&self, perm: &[usize]) -> Result<Graph> {
        let n = self.node_count();
        if perm.len() != n {
            return Err(GraphError::InvalidParameter {
                reason: format!(
                    "permutation length {} does not match node count {}",
                    perm.len(),
                    n
                ),
            });
        }
        let mut inverse = vec![usize::MAX; n];
        for (old, &new) in perm.iter().enumerate() {
            if new >= n || inverse[new] != usize::MAX {
                return Err(GraphError::InvalidParameter {
                    reason: "relabel argument is not a permutation".to_string(),
                });
            }
            inverse[new] = old;
        }
        Ok(Graph::from_rows(n, |new_u, row| {
            row.extend(
                self.row(NodeId::from(inverse[new_u]))
                    .iter()
                    .map(|w| NodeId::from(perm[w.index()])),
            );
        }))
    }
}

/// A CSR offset: the graph stores `2m` targets behind `u32` offsets.
pub(crate) fn csr_offset(len: usize) -> u32 {
    u32::try_from(len).expect("a graph holds fewer than 2^32 adjacency entries")
}

/// The error [`Graph::from_edges`] reports for `edges`, which are known to
/// hold an offending edge: the first one in input order.
fn first_edge_error(n: usize, edges: &[(usize, usize)]) -> GraphError {
    let mut seen = std::collections::BTreeSet::new();
    for &(u, v) in edges {
        for node in [u, v] {
            if node >= n {
                return GraphError::NodeOutOfRange {
                    node,
                    node_count: n,
                };
            }
        }
        if u == v {
            return GraphError::SelfLoop { node: u };
        }
        if !seen.insert((u.min(v), u.max(v))) {
            return GraphError::DuplicateEdge { u, v };
        }
    }
    unreachable!("first_edge_error is only called on an invalid edge list")
}

/// Iterator over the neighbours of a node, returned by [`Graph::neighbors`].
#[derive(Debug, Clone)]
pub struct NeighborIter<'a> {
    inner: std::slice::Iter<'a, NodeId>,
}

impl<'a> Iterator for NeighborIter<'a> {
    type Item = NodeId;

    fn next(&mut self) -> Option<Self::Item> {
        self.inner.next().copied()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl<'a> ExactSizeIterator for NeighborIter<'a> {}

/// Iterator over the edges of a graph, returned by [`Graph::edges`].
#[derive(Debug, Clone)]
pub struct EdgeIter<'a> {
    graph: &'a Graph,
    u: usize,
    pos: usize,
}

impl<'a> Iterator for EdgeIter<'a> {
    type Item = (NodeId, NodeId);

    fn next(&mut self) -> Option<Self::Item> {
        while self.u < self.graph.node_count() {
            let list = self.graph.row(NodeId::from(self.u));
            while self.pos < list.len() {
                let v = list[self.pos];
                self.pos += 1;
                if self.u < v.index() {
                    return Some((NodeId::from(self.u), v));
                }
            }
            self.u += 1;
            self.pos = 0;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        Graph::from_edges(3, [(0, 1), (1, 2), (0, 2)]).unwrap()
    }

    #[test]
    fn empty_graph_has_no_nodes_or_edges() {
        let g = Graph::new();
        assert!(g.is_empty());
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.max_degree(), 0);
    }

    #[test]
    fn from_edges_fills_both_rows() {
        let g = triangle();
        assert_eq!(g.degree(NodeId(0)).unwrap(), 2);
        assert_eq!(g.degree(NodeId(1)).unwrap(), 2);
        assert_eq!(g.degree(NodeId(2)).unwrap(), 2);
        assert_eq!(g.edge_count(), 3);
        assert!(g.has_edge(NodeId(2), NodeId(0)));
    }

    #[test]
    fn self_loop_rejected() {
        assert_eq!(
            Graph::from_edges(2, [(0, 1), (1, 1)]),
            Err(GraphError::SelfLoop { node: 1 })
        );
    }

    #[test]
    fn duplicate_edge_rejected() {
        assert_eq!(
            Graph::from_edges(2, [(0, 1), (1, 0)]),
            Err(GraphError::DuplicateEdge { u: 1, v: 0 })
        );
        assert_eq!(
            Graph::from_edges(3, [(0, 1), (1, 2), (0, 1)]),
            Err(GraphError::DuplicateEdge { u: 0, v: 1 })
        );
    }

    #[test]
    fn out_of_range_edge_rejected() {
        assert!(matches!(
            Graph::from_edges(2, [(0, 5)]),
            Err(GraphError::NodeOutOfRange {
                node: 5,
                node_count: 2
            })
        ));
        // The first offending edge in input order wins, `u` before `v`.
        assert_eq!(
            Graph::from_edges(3, [(0, 1), (7, 5), (1, 0)]),
            Err(GraphError::NodeOutOfRange {
                node: 7,
                node_count: 3
            })
        );
        assert_eq!(
            Graph::from_edges(3, [(0, 1), (1, 0), (7, 5)]),
            Err(GraphError::DuplicateEdge { u: 1, v: 0 })
        );
    }

    #[test]
    fn csr_layout_invariants_hold() {
        let g = Graph::from_edges(6, [(4, 1), (0, 5), (1, 0), (3, 1)]).unwrap();
        assert_eq!(g.offsets, vec![0, 2, 5, 5, 6, 7, 8]);
        assert_eq!(g.targets.len(), 2 * g.edge_count());
        let rows: Vec<Vec<u32>> = g
            .nodes()
            .map(|v| g.row(v).iter().map(|w| w.0).collect())
            .collect();
        assert_eq!(
            rows,
            vec![vec![1, 5], vec![0, 3, 4], vec![], vec![1], vec![1], vec![0]]
        );
        assert_eq!(Graph::new().offsets, vec![0]);
        assert_eq!(Graph::default(), Graph::from_edges(0, []).unwrap());
        assert_eq!(Graph::with_nodes(3), Graph::from_edges(3, []).unwrap());
    }

    #[test]
    fn neighbors_are_sorted() {
        let g = Graph::from_edges(5, [(2, 4), (2, 0), (2, 3), (2, 1)]).unwrap();
        let ns: Vec<_> = g.neighbors(NodeId(2)).collect();
        assert_eq!(ns, vec![NodeId(0), NodeId(1), NodeId(3), NodeId(4)]);
    }

    #[test]
    fn edges_iterate_each_edge_once() {
        let g = triangle();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(
            edges,
            vec![
                (NodeId(0), NodeId(1)),
                (NodeId(0), NodeId(2)),
                (NodeId(1), NodeId(2)),
            ]
        );
    }

    #[test]
    fn induced_subgraph_keeps_internal_edges_only() {
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]).unwrap();
        let (sub, mapping) = g
            .induced_subgraph(&[NodeId(0), NodeId(1), NodeId(3)])
            .unwrap();
        assert_eq!(sub.node_count(), 3);
        assert_eq!(sub.edge_count(), 1);
        assert!(sub.has_edge(NodeId(0), NodeId(1)));
        assert_eq!(mapping, vec![NodeId(0), NodeId(1), NodeId(3)]);
    }

    #[test]
    fn induced_subgraph_ignores_duplicates() {
        let g = triangle();
        let (sub, mapping) = g
            .induced_subgraph(&[NodeId(1), NodeId(1), NodeId(2)])
            .unwrap();
        assert_eq!(sub.node_count(), 2);
        assert_eq!(mapping, vec![NodeId(1), NodeId(2)]);
    }

    #[test]
    fn disjoint_union_offsets_second_graph() {
        let g = triangle();
        let h = Graph::from_edges(2, [(0, 1)]).unwrap();
        let (u, offset) = g.disjoint_union(&h);
        assert_eq!(offset, 3);
        assert_eq!(u.node_count(), 5);
        assert_eq!(u.edge_count(), 4);
        assert!(u.has_edge(NodeId(3), NodeId(4)));
        assert!(!u.has_edge(NodeId(2), NodeId(3)));
    }

    #[test]
    fn append_in_place_matches_disjoint_union() {
        let h = Graph::from_edges(2, [(0, 1)]).unwrap();
        let mut g = triangle();
        assert_eq!(g.append(&h), 3);
        assert_eq!(g.append(&triangle()), 5);
        let (u, _) = triangle().disjoint_union(&h);
        let (u, offset) = u.disjoint_union(&triangle());
        assert_eq!(offset, 5);
        assert_eq!(g.node_count(), 8);
        assert_eq!(g.edge_count(), 7);
        assert_eq!(g, u, "offsets and targets must match");
        assert!(g.has_edge(NodeId(5), NodeId(7)));
    }

    #[test]
    fn relabel_by_rotation_preserves_structure() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        let perm = vec![1, 2, 3, 0];
        let h = g.relabel(&perm).unwrap();
        assert_eq!(h.edge_count(), 3);
        assert!(h.has_edge(NodeId(1), NodeId(2)));
        assert!(h.has_edge(NodeId(2), NodeId(3)));
        assert!(h.has_edge(NodeId(3), NodeId(0)));
    }

    #[test]
    fn relabel_rejects_non_permutation() {
        let g = triangle();
        assert!(g.relabel(&[0, 0, 1]).is_err());
        assert!(g.relabel(&[0, 1]).is_err());
        assert!(g.relabel(&[0, 1, 5]).is_err());
    }

    #[test]
    fn degree_sequence_is_sorted_descending() {
        let g = Graph::from_edges(4, [(0, 1), (0, 2), (0, 3)]).unwrap();
        assert_eq!(g.degree_sequence(), vec![3, 1, 1, 1]);
    }
}
