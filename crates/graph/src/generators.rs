//! Deterministic generators for every graph family used by the paper, plus a
//! few random generators used in tests and benchmarks.
//!
//! The families directly referenced by the paper:
//!
//! * **cycles** — both promise problems (Section 2 and Section 3) live on
//!   `n`-cycles;
//! * **complete binary trees / layered trees** — the Section 2 separation
//!   (`T_r`, `H_r`, Figure 1);
//! * **square grids** — Turing-machine execution tables (Section 3,
//!   Figure 2);
//! * **layered quadtree pyramids** — the Appendix A gadget that makes grids
//!   locally checkable (Figure 3).

use crate::graph::{csr_offset, Graph, NodeId};
use crate::{GraphError, Result};
use rand::Rng;
use std::collections::BTreeSet;

/// Path on `n` nodes `0 - 1 - ... - n-1`.  `path(0)` is the empty graph.
pub fn path(n: usize) -> Graph {
    ring(n, false)
}

/// Cycle on `n >= 3` nodes; for `n <= 2` this falls back to a path, which
/// keeps small-parameter sweeps total.
pub fn cycle(n: usize) -> Graph {
    ring(n, n >= 3)
}

/// The `n`-path, closed by the edge `{n-1, 0}` when `closed` (`n >= 3`),
/// written straight into CSR arrays: the end rows, then `[i - 1, i + 1]`
/// for every inner node, already sorted.
fn ring(n: usize, closed: bool) -> Graph {
    if n < 2 {
        return Graph::with_nodes(n);
    }
    let last = n - 1;
    let mut offsets = Vec::with_capacity(n + 1);
    let mut targets = Vec::with_capacity(2 * n);
    offsets.push(0);
    targets.push(NodeId(1));
    if closed {
        targets.push(NodeId::from(last));
    }
    offsets.push(csr_offset(targets.len()));
    for i in 1..last {
        targets.extend([NodeId::from(i - 1), NodeId::from(i + 1)]);
        offsets.push(csr_offset(targets.len()));
    }
    if closed {
        targets.push(NodeId(0));
    }
    targets.push(NodeId::from(last - 1));
    offsets.push(csr_offset(targets.len()));
    Graph::from_csr(offsets, targets)
}

/// Complete graph on `n` nodes.
pub fn complete(n: usize) -> Graph {
    Graph::from_rows(n, |u, row| {
        row.extend((0..n).filter(|&v| v != u).map(NodeId::from));
    })
}

/// Star with one centre (node 0) and `leaves` leaves.
pub fn star(leaves: usize) -> Graph {
    Graph::from_edges(leaves + 1, (1..=leaves).map(|leaf| (0, leaf)))
        .expect("star edges are simple")
}

/// `width x height` grid graph; node `(x, y)` has index `y * width + x`.
///
/// Two nodes are adjacent when their Euclidean distance is 1, exactly as the
/// paper defines the execution-table grid.
pub fn grid(width: usize, height: usize) -> Graph {
    Graph::from_rows(width * height, |here, row| {
        let (x, y) = (here % width, here / width);
        if y > 0 {
            row.push(NodeId::from(here - width));
        }
        if x > 0 {
            row.push(NodeId::from(here - 1));
        }
        if x + 1 < width {
            row.push(NodeId::from(here + 1));
        }
        if y + 1 < height {
            row.push(NodeId::from(here + width));
        }
    })
}

/// Index of grid node `(x, y)` in the graph returned by [`grid`].
pub fn grid_index(width: usize, x: usize, y: usize) -> NodeId {
    NodeId::from(y * width + x)
}

/// `width x height` torus: a grid with wrap-around edges in both dimensions.
/// Locally (for radius below `min(width, height) / 2 - 1`) it is
/// indistinguishable from a grid interior — the paper uses exactly this fact
/// to motivate the quadtree gadget of Appendix A.
pub fn torus(width: usize, height: usize) -> Result<Graph> {
    if width < 3 || height < 3 {
        return Err(GraphError::InvalidParameter {
            reason: format!("torus requires both dimensions >= 3, got {width}x{height}"),
        });
    }
    let mut edges = BTreeSet::new();
    for y in 0..height {
        for x in 0..width {
            let here = y * width + x;
            edges.insert(normalised(here, y * width + (x + 1) % width));
            edges.insert(normalised(here, ((y + 1) % height) * width + x));
        }
    }
    Graph::from_edges(width * height, edges)
}

/// Complete binary tree of depth `depth` (a single node for depth 0).
///
/// Level `y` (`0 <= y <= depth`) holds `2^y` nodes; node `(x, y)` has index
/// [`binary_tree_index`]`(x, y)`.
pub fn complete_binary_tree(depth: u32) -> Graph {
    Graph::from_edges(binary_tree_node_count(depth), binary_tree_edges(depth))
        .expect("tree edges are simple")
}

/// The parent-child edges of [`complete_binary_tree`]`(depth)`.
fn binary_tree_edges(depth: u32) -> impl Iterator<Item = (usize, usize)> {
    (1..=depth).flat_map(|y| {
        (0..(1u64 << y)).map(move |x| {
            (
                binary_tree_index(x / 2, y - 1).index(),
                binary_tree_index(x, y).index(),
            )
        })
    })
}

/// Number of nodes of a complete binary tree of depth `depth`.
pub fn binary_tree_node_count(depth: u32) -> usize {
    (1usize << (depth + 1)) - 1
}

/// Index of the node at horizontal position `x` on level `y` of a complete
/// binary tree (or layered tree): levels are stored consecutively, so the
/// index is `2^y - 1 + x`.
pub fn binary_tree_index(x: u64, y: u32) -> NodeId {
    NodeId::from(((1u64 << y) - 1 + x) as usize)
}

/// Layered complete binary tree of depth `depth` (Section 2 of the paper):
/// a complete binary tree where, additionally, the nodes of each level are
/// connected by a path in the natural left-to-right order.
pub fn layered_tree(depth: u32) -> Graph {
    let level_paths = (1..=depth).flat_map(|y| {
        (1..(1u64 << y)).map(move |x| {
            (
                binary_tree_index(x - 1, y).index(),
                binary_tree_index(x, y).index(),
            )
        })
    });
    Graph::from_edges(
        binary_tree_node_count(depth),
        binary_tree_edges(depth).chain(level_paths),
    )
    .expect("level-path edges are simple and new")
}

/// Coordinates `(x, y)` of every node of [`layered_tree`]`(depth)`, indexed
/// by node id.  Used by the Section 2 construction, whose labels carry these
/// coordinates.
pub fn layered_tree_coordinates(depth: u32) -> Vec<(u64, u32)> {
    let mut coords = Vec::with_capacity(binary_tree_node_count(depth));
    for y in 0..=depth {
        for x in 0..(1u64 << y) {
            coords.push((x, y));
        }
    }
    coords
}

/// A layered quadtree pyramid over a `2^h x 2^h` base grid (Appendix A,
/// Figure 3).
///
/// Levels are numbered `z = 0..=h`; level `z` is a square grid on
/// `2^(h-z) x 2^(h-z)` nodes and every node `(x, y, z)` with `z < h` is also
/// connected to its quadtree parent `(floor(x/2), floor(y/2), z + 1)`.
///
/// Returns the graph together with the `(x, y, z)` coordinate of each node.
///
/// The paper indexes nodes from 1 and connects `(x, y, z)` to
/// `(ceil(x/2), ceil(y/2), z+1)`; with 0-based coordinates the same parent is
/// `(floor(x/2), floor(y/2), z+1)`.
pub fn quadtree_pyramid(h: u32) -> (Graph, Vec<(usize, usize, u32)>) {
    let mut coords = Vec::new();
    let mut level_offset = Vec::with_capacity(h as usize + 2);
    let mut total = 0usize;
    for z in 0..=h {
        level_offset.push(total);
        let side = 1usize << (h - z);
        for y in 0..side {
            for x in 0..side {
                coords.push((x, y, z));
            }
        }
        total += side * side;
    }
    level_offset.push(total);

    let index = |x: usize, y: usize, z: u32| -> usize {
        let side = 1usize << (h - z);
        level_offset[z as usize] + y * side + x
    };

    let mut edges = BTreeSet::new();
    for &(x, y, z) in &coords {
        let side = 1usize << (h - z);
        let here = index(x, y, z);
        if x + 1 < side {
            edges.insert((here, index(x + 1, y, z)));
        }
        if y + 1 < side {
            edges.insert((here, index(x, y + 1, z)));
        }
        if z < h {
            edges.insert((here, index(x / 2, y / 2, z + 1)));
        }
    }
    let g = Graph::from_edges(total, edges).expect("pyramid edges are simple");
    (g, coords)
}

/// Erdős–Rényi `G(n, p)` random graph.
pub fn random_gnp<R: Rng + ?Sized>(n: usize, p: f64, rng: &mut R) -> Graph {
    let mut edges = Vec::new();
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.gen_bool(p.clamp(0.0, 1.0)) {
                edges.push((u, v));
            }
        }
    }
    Graph::from_edges(n, edges).expect("gnp edges are generated once")
}

/// Uniformly random labelled tree on `n` nodes via a random Prüfer-like
/// attachment process (each node `i >= 1` attaches to a uniformly random
/// earlier node).
pub fn random_attachment_tree<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Graph {
    Graph::from_edges(n, attachment_tree_edges(n, rng)).expect("attachment edges are simple")
}

/// The edges `(parent, i)` of [`random_attachment_tree`], drawn in order.
fn attachment_tree_edges<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Vec<(usize, usize)> {
    (1..n).map(|i| (rng.gen_range(0..i), i)).collect()
}

/// A connected random graph: a random attachment tree plus `extra_edges`
/// additional uniformly random non-edges (or fewer if the graph saturates).
pub fn random_connected<R: Rng + ?Sized>(n: usize, extra_edges: usize, rng: &mut R) -> Graph {
    let mut edges = attachment_tree_edges(n, rng);
    let mut present: BTreeSet<(usize, usize)> = edges.iter().copied().collect();
    let mut added = 0;
    let mut attempts = 0;
    let max_attempts = extra_edges.saturating_mul(20) + 100;
    while n >= 2 && added < extra_edges && attempts < max_attempts {
        attempts += 1;
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u == v {
            continue;
        }
        if present.insert(normalised(u, v)) {
            edges.push((u, v));
            added += 1;
        }
    }
    Graph::from_edges(n, edges).expect("endpoints are in range, distinct and new")
}

/// Random `d`-regular graph on `n` nodes via the pairing (configuration)
/// model: half-edges are shuffled into a perfect matching, rejecting and
/// reshuffling whenever the matching produces a loop or parallel edge.  The
/// rejection probability is bounded away from 1 for fixed `d`, so a handful
/// of restarts suffice; a generous deterministic cap keeps the generator
/// total.
///
/// # Errors
///
/// `InvalidParameter` when `n * d` is odd (no `d`-regular graph exists),
/// `d >= n` (simple graphs cap degree at `n - 1`), or the pairing fails to
/// simplify within the restart cap (not observed for the swept parameters).
pub fn random_regular<R: Rng + ?Sized>(n: usize, d: usize, rng: &mut R) -> Result<Graph> {
    if n * d % 2 != 0 {
        return Err(GraphError::InvalidParameter {
            reason: format!("no {d}-regular graph on {n} nodes: n*d must be even"),
        });
    }
    if d >= n && !(n == 0 && d == 0) {
        return Err(GraphError::InvalidParameter {
            reason: format!("degree {d} needs at least {} nodes (got {n})", d + 1),
        });
    }
    if d == 0 {
        return Ok(Graph::with_nodes(n));
    }
    // Half-edge i belongs to node i / d; a shuffle of the half-edges read
    // off in consecutive pairs is a uniform perfect matching on them.
    let mut stubs: Vec<usize> = (0..n * d).map(|i| i / d).collect();
    const MAX_RESTARTS: usize = 1_000;
    for _ in 0..MAX_RESTARTS {
        for i in (1..stubs.len()).rev() {
            stubs.swap(i, rng.gen_range(0..=i));
        }
        let mut edges = BTreeSet::new();
        let simple = stubs
            .chunks_exact(2)
            .all(|pair| pair[0] != pair[1] && edges.insert(normalised(pair[0], pair[1])));
        if simple {
            return Graph::from_edges(n, edges);
        }
    }
    Err(GraphError::InvalidParameter {
        reason: format!("pairing model failed to produce a simple {d}-regular graph on {n} nodes"),
    })
}

/// Power-law graph via preferential attachment (Barabási–Albert): the seed
/// is the complete graph on `m + 1` nodes, and each later node attaches to
/// `m` distinct existing nodes chosen proportionally to their degree — so
/// every node has degree at least `m` and the degree distribution develops
/// the heavy tail the DSL's power-law property cells sweep.
///
/// # Errors
///
/// `InvalidParameter` when `m == 0` (the graph would be edgeless and
/// disconnected) or `n < m + 1` (smaller than its own seed clique).
pub fn preferential_attachment<R: Rng + ?Sized>(n: usize, m: usize, rng: &mut R) -> Result<Graph> {
    if m == 0 {
        return Err(GraphError::InvalidParameter {
            reason: "preferential attachment needs m >= 1".to_string(),
        });
    }
    if n < m + 1 {
        return Err(GraphError::InvalidParameter {
            reason: format!("preferential attachment needs n >= m + 1 (got n = {n}, m = {m})"),
        });
    }
    let mut edges = Vec::with_capacity(m * (m + 1) / 2 + (n - m - 1) * m);
    // One entry per half-edge endpoint: sampling it uniformly is sampling a
    // node proportionally to its degree.
    let mut endpoints: Vec<usize> = Vec::with_capacity(2 * edges.capacity());
    for u in 0..=m {
        for v in (u + 1)..=m {
            edges.push((u, v));
            endpoints.push(u);
            endpoints.push(v);
        }
    }
    for node in (m + 1)..n {
        let mut targets: Vec<usize> = Vec::with_capacity(m);
        while targets.len() < m {
            let target = endpoints[rng.gen_range(0..endpoints.len())];
            if !targets.contains(&target) {
                targets.push(target);
            }
        }
        for target in targets {
            edges.push((node, target));
            endpoints.push(node);
            endpoints.push(target);
        }
    }
    Graph::from_edges(n, edges)
}

/// Circulant graph `C_n(offsets)`: node `i` is adjacent to `i ± o (mod n)`
/// for every offset `o`.  With offsets coprime-ish to `n` (e.g. `{1, k}`
/// with `k ~ sqrt(n)`) these are the classic bounded-degree expander-like
/// constructions: vertex-transitive, diameter `O(n / max_offset +
/// max_offset)`, degree at most `2 * offsets.len()`.
///
/// # Errors
///
/// `InvalidParameter` when `offsets` is empty, or an offset is `0` (a
/// self-loop) or `>= n` (aliases a smaller offset, so the requested degree
/// is unrealisable).
pub fn circulant(n: usize, offsets: &[usize]) -> Result<Graph> {
    if offsets.is_empty() {
        return Err(GraphError::InvalidParameter {
            reason: "circulant graphs need at least one offset".to_string(),
        });
    }
    for &o in offsets {
        if o == 0 || o >= n {
            return Err(GraphError::InvalidParameter {
                reason: format!("circulant offset {o} is outside 1..{n}"),
            });
        }
    }
    // An offset of exactly n/2 meets itself from both sides; the edge set
    // keeps the graph simple.
    let edges: BTreeSet<(usize, usize)> = (0..n)
        .flat_map(|i| offsets.iter().map(move |&o| normalised(i, (i + o) % n)))
        .collect();
    Graph::from_edges(n, edges)
}

/// The undirected edge `{u, v}` as the ordered pair `(min, max)`.
fn normalised(u: usize, v: usize) -> (usize, usize) {
    (u.min(v), u.max(v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn path_counts() {
        let g = path(6);
        assert_eq!(g.node_count(), 6);
        assert_eq!(g.edge_count(), 5);
        assert!(g.is_tree());
        assert_eq!(path(0).node_count(), 0);
        assert_eq!(path(1).edge_count(), 0);
    }

    #[test]
    fn cycle_counts_and_regularity() {
        let g = cycle(7);
        assert_eq!(g.edge_count(), 7);
        assert!(g.is_regular(2));
        assert!(g.is_connected());
        // Degenerate sizes fall back to paths.
        assert_eq!(cycle(2).edge_count(), 1);
        assert_eq!(cycle(1).edge_count(), 0);
    }

    #[test]
    fn paths_and_cycles_match_a_from_edges_reference() {
        for n in 0..=64usize {
            let path_edges = (1..n).map(|i| (i - 1, i));
            let reference_path = Graph::from_edges(n, path_edges.clone()).unwrap();
            let closing = (n >= 3).then(|| (n - 1, 0));
            let reference_cycle = Graph::from_edges(n, path_edges.chain(closing)).unwrap();
            for (built, reference) in [(path(n), reference_path), (cycle(n), reference_cycle)] {
                assert_eq!(built, reference, "n = {n}");
                assert_eq!(built.edge_count(), reference.edge_count(), "n = {n}");
                for u in reference.nodes() {
                    assert!(
                        built.neighbors(u).eq(reference.neighbors(u)),
                        "n = {n}, {u}"
                    );
                    for v in reference.nodes() {
                        assert_eq!(built.has_edge(u, v), reference.has_edge(u, v));
                    }
                }
            }
        }
    }

    #[test]
    fn complete_graph_edge_count() {
        assert_eq!(complete(5).edge_count(), 10);
        assert!(complete(5).is_regular(4));
    }

    #[test]
    fn star_has_centre_of_full_degree() {
        let g = star(6);
        assert_eq!(g.degree(NodeId(0)).unwrap(), 6);
        assert!(g.is_tree());
    }

    #[test]
    fn grid_structure() {
        let g = grid(4, 3);
        assert_eq!(g.node_count(), 12);
        assert_eq!(g.edge_count(), 3 * 3 + 4 * 2);
        assert_eq!(g.degree(grid_index(4, 0, 0)).unwrap(), 2);
        assert_eq!(g.degree(grid_index(4, 1, 1)).unwrap(), 4);
        assert!(g.is_connected());
    }

    #[test]
    fn torus_is_4_regular() {
        let g = torus(4, 5).unwrap();
        assert!(g.is_regular(4));
        assert_eq!(g.node_count(), 20);
        assert!(torus(2, 5).is_err());
    }

    #[test]
    fn complete_binary_tree_structure() {
        let g = complete_binary_tree(3);
        assert_eq!(g.node_count(), 15);
        assert!(g.is_tree());
        assert_eq!(g.degree(binary_tree_index(0, 0)).unwrap(), 2);
        // Leaves have degree 1.
        assert_eq!(g.degree(binary_tree_index(5, 3)).unwrap(), 1);
    }

    #[test]
    fn layered_tree_adds_level_paths() {
        let depth = 3;
        let tree = complete_binary_tree(depth);
        let layered = layered_tree(depth);
        // Level y >= 1 contributes 2^y - 1 extra path edges.
        let extra: usize = (1..=depth).map(|y| (1usize << y) - 1).sum();
        assert_eq!(layered.edge_count(), tree.edge_count() + extra);
        // Interior level node: parent + 2 children + 2 level neighbours.
        assert_eq!(layered.degree(binary_tree_index(1, 2)).unwrap(), 5);
    }

    #[test]
    fn layered_tree_coordinates_match_indexing() {
        let coords = layered_tree_coordinates(3);
        assert_eq!(coords.len(), binary_tree_node_count(3));
        for (i, &(x, y)) in coords.iter().enumerate() {
            assert_eq!(binary_tree_index(x, y).index(), i);
        }
    }

    #[test]
    fn quadtree_pyramid_level_sizes() {
        let (g, coords) = quadtree_pyramid(2);
        // Levels: 4x4 + 2x2 + 1x1 = 21 nodes.
        assert_eq!(g.node_count(), 21);
        assert_eq!(coords.len(), 21);
        assert!(g.is_connected());
        let top_count = coords.iter().filter(|&&(_, _, z)| z == 2).count();
        assert_eq!(top_count, 1);
        // Each level-0 node has exactly one parent edge, so total edges are
        // grid edges (2*4*3 at level 0, 2*2*1 at level 1, none at the apex)
        // plus 16 + 4 parent edges.
        assert_eq!(g.edge_count(), 24 + 4 + 16 + 4);
    }

    #[test]
    fn quadtree_pyramid_parents_are_quadrants() {
        let (g, coords) = quadtree_pyramid(2);
        // Find node (3, 3, 0) and check it is adjacent to (1, 1, 1).
        let find = |x, y, z| NodeId::from(coords.iter().position(|&c| c == (x, y, z)).unwrap());
        assert!(g.has_edge(find(3, 3, 0), find(1, 1, 1)));
        assert!(g.has_edge(find(1, 1, 1), find(0, 0, 2)));
    }

    #[test]
    fn random_generators_produce_connected_graphs() {
        let mut rng = StdRng::seed_from_u64(7);
        let t = random_attachment_tree(40, &mut rng);
        assert!(t.is_tree());
        let c = random_connected(30, 15, &mut rng);
        assert!(c.is_connected());
        assert!(c.edge_count() >= 29);
        let gnp = random_gnp(20, 0.5, &mut rng);
        assert_eq!(gnp.node_count(), 20);
    }

    #[test]
    fn random_gnp_extremes() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(random_gnp(10, 0.0, &mut rng).edge_count(), 0);
        assert_eq!(random_gnp(10, 1.0, &mut rng).edge_count(), 45);
    }

    #[test]
    fn random_regular_is_regular_and_simple() {
        let mut rng = StdRng::seed_from_u64(11);
        for (n, d) in [(8, 3), (20, 4), (21, 4), (6, 5), (10, 0)] {
            let g = random_regular(n, d, &mut rng).unwrap();
            assert_eq!(g.node_count(), n);
            assert!(g.is_regular(d), "n = {n}, d = {d}");
            assert_eq!(g.edge_count(), n * d / 2);
        }
    }

    #[test]
    fn random_regular_rejects_impossible_parameters() {
        let mut rng = StdRng::seed_from_u64(11);
        assert!(random_regular(7, 3, &mut rng).is_err(), "odd n*d");
        assert!(random_regular(4, 4, &mut rng).is_err(), "d >= n");
        assert!(random_regular(4, 5, &mut rng)
            .unwrap_err()
            .to_string()
            .contains("degree 5"));
    }

    #[test]
    fn preferential_attachment_bounds_and_connectivity() {
        let mut rng = StdRng::seed_from_u64(5);
        let m = 2;
        let g = preferential_attachment(60, m, &mut rng).unwrap();
        assert_eq!(g.node_count(), 60);
        assert!(g.is_connected());
        // Seed clique edges plus m per later node.
        assert_eq!(g.edge_count(), m * (m + 1) / 2 + (60 - m - 1) * m);
        for v in 0..60 {
            assert!(g.degree(NodeId::from(v)).unwrap() >= m);
        }
        assert!(preferential_attachment(10, 0, &mut rng).is_err());
        assert!(preferential_attachment(2, 2, &mut rng).is_err());
    }

    #[test]
    fn circulant_structure() {
        let g = circulant(12, &[1, 5]).unwrap();
        assert!(g.is_regular(4));
        assert!(g.is_connected());
        assert!(g.has_edge(NodeId(0), NodeId(5)));
        // C_n({1}) is the n-cycle.
        let ring = circulant(9, &[1]).unwrap();
        assert_eq!(ring.edge_count(), 9);
        assert!(ring.is_regular(2));
        // The half-way offset meets itself: degree drops to 3, still simple.
        let moebius = circulant(8, &[1, 4]).unwrap();
        assert!(moebius.is_regular(3));
        assert!(circulant(5, &[]).is_err());
        assert!(circulant(5, &[0]).is_err());
        assert!(circulant(5, &[5]).is_err());
    }
}
