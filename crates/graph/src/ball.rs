//! Radius-`t` balls `B(v, t)`: the induced subgraph a LOCAL algorithm can see.

use crate::graph::{Graph, NodeId};
use crate::Result;

/// The restriction of a graph to the ball `B(v, t)` of radius `t` around a
/// centre node, as used in the definition of a local algorithm (Section 1.2).
///
/// The ball keeps track of:
///
/// * the induced subgraph on the nodes within distance `t` of the centre,
/// * which node of that subgraph is the centre,
/// * the mapping from ball-local node ids back to the original graph, and
/// * the distance of every ball node from the centre (within the original
///   graph; since shortest paths to nodes at distance `<= t` stay inside the
///   ball, this equals the in-ball distance).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ball {
    graph: Graph,
    center: NodeId,
    radius: usize,
    mapping: Vec<NodeId>,
    distances: Vec<usize>,
}

impl Ball {
    /// The induced subgraph of the ball.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The centre node, in ball-local numbering.
    pub fn center(&self) -> NodeId {
        self.center
    }

    /// The radius this ball was extracted with.
    pub fn radius(&self) -> usize {
        self.radius
    }

    /// Maps a ball-local node id back to the node id in the original graph.
    ///
    /// # Panics
    ///
    /// Panics if `local` is not a node of the ball.
    pub fn original(&self, local: NodeId) -> NodeId {
        self.mapping[local.index()]
    }

    /// The full local-to-original mapping, indexed by ball-local node id.
    pub fn mapping(&self) -> &[NodeId] {
        &self.mapping
    }

    /// Distance from the centre to a ball-local node.
    ///
    /// # Panics
    ///
    /// Panics if `local` is not a node of the ball.
    pub fn distance_from_center(&self, local: NodeId) -> usize {
        self.distances[local.index()]
    }

    /// Number of nodes in the ball.
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// The ball-local node ids at exactly distance `d` from the centre.
    pub fn sphere(&self, d: usize) -> Vec<NodeId> {
        self.graph
            .nodes()
            .filter(|v| self.distances[v.index()] == d)
            .collect()
    }

    /// Returns `true` if the ball reaches its full radius, i.e. some node is
    /// at distance exactly `radius` from the centre.  When this is `false`
    /// the centre already sees the whole connected component.
    pub fn is_saturated(&self) -> bool {
        self.distances.contains(&self.radius)
    }
}

impl Ball {
    /// Decomposes the ball into its parts `(graph, center, radius, mapping,
    /// distances)` without cloning — used by the view layer to build views
    /// in place.
    pub fn into_parts(self) -> (Graph, NodeId, usize, Vec<NodeId>, Vec<usize>) {
        (
            self.graph,
            self.center,
            self.radius,
            self.mapping,
            self.distances,
        )
    }
}

impl Graph {
    /// Extracts the ball `B(v, t)`: the induced subgraph on all nodes within
    /// distance `radius` of `center`.
    ///
    /// # Panics
    ///
    /// Panics if `center` is out of range; call [`Graph::check_node`] first
    /// for untrusted input.
    pub fn ball(&self, center: NodeId, radius: usize) -> Ball {
        self.try_ball(center, radius)
            .expect("center node must exist")
    }

    /// Fallible variant of [`Graph::ball`]: a single bounded breadth-first
    /// pass (the BFS stops expanding at distance `radius` instead of
    /// traversing the whole graph twice).  Callers extracting many balls
    /// should reuse a [`BallExtractor`] to amortise the scratch buffers.
    ///
    /// # Errors
    ///
    /// Returns an error if `center` is out of range.
    pub fn try_ball(&self, center: NodeId, radius: usize) -> Result<Ball> {
        BallExtractor::new().extract(self, center, radius)
    }
}

/// Reusable scratch state for ball extraction.
///
/// Extracting `B(v, t)` needs per-node distance and position arrays plus a
/// frontier; allocating them anew for every node of a sweep made
/// [`Graph::try_ball`] the dominant allocator in view enumeration.  A
/// `BallExtractor` owns those buffers and resets only the entries it touched
/// (the ball members), so extracting all `n` balls of a graph performs `O(n)`
/// scratch work total instead of `O(n²)`:
///
/// ```
/// use ld_graph::{generators, BallExtractor, NodeId};
///
/// let g = generators::cycle(32);
/// let mut extractor = BallExtractor::new();
/// for v in g.nodes() {
///     let ball = extractor.extract(&g, v, 2).unwrap();
///     assert_eq!(ball.node_count(), 5);
/// }
/// ```
///
/// The produced [`Ball`] is identical (same ball-local numbering: sorted by
/// `(distance, original id)`) to the one returned by [`Graph::ball`].
#[derive(Debug, Default)]
pub struct BallExtractor {
    /// Distance from the current centre, `u32::MAX` = untouched.
    dist: Vec<u32>,
    /// Ball-local position of an original node, `u32::MAX` = untouched.
    position: Vec<u32>,
    /// Members of the current ball in `(distance, original id)` order; also
    /// the exact set of touched `dist`/`position` entries.
    members: Vec<NodeId>,
    /// `(center, radius)` of the BFS currently in the scratch buffers.
    current: Option<(NodeId, usize)>,
    /// Index into `members` where the deepest completed layer begins — the
    /// frontier a later [`BallExtractor::extend_current`] resumes from.
    frontier_start: usize,
    /// Distance of that deepest layer from the centre.
    depth: u32,
}

/// Sentinel for "not reached / not in ball" in the scratch arrays.
const UNSEEN: u32 = u32::MAX;

impl BallExtractor {
    /// Creates an extractor with empty scratch buffers (they grow to the
    /// largest graph seen and are then reused).
    pub fn new() -> Self {
        BallExtractor::default()
    }

    /// Runs the bounded BFS for `B(center, radius)`, leaving `members` in
    /// `(distance, original id)` order and `dist`/`position` populated for
    /// exactly the members.
    fn bounded_bfs(&mut self, graph: &Graph, center: NodeId, radius: usize) -> Result<()> {
        self.begin_bfs(graph, center)?;
        let complete = self.advance_bfs(graph, center, radius, usize::MAX);
        debug_assert!(complete, "an uncapped BFS always completes");
        Ok(())
    }

    /// Resets the scratch buffers and seeds a fresh BFS at `center`.
    fn begin_bfs(&mut self, graph: &Graph, center: NodeId) -> Result<()> {
        // Invalidate first: a failed extraction must not leave the previous
        // ball claimable through `materialize_current`.
        self.current = None;
        graph.check_node(center)?;
        let n = graph.node_count();
        if self.dist.len() < n {
            self.dist.resize(n, UNSEEN);
            self.position.resize(n, UNSEEN);
        }
        // Reset exactly the entries the previous extraction touched.
        for &v in &self.members {
            self.dist[v.index()] = UNSEEN;
            self.position[v.index()] = UNSEEN;
        }
        self.members.clear();
        self.dist[center.index()] = 0;
        self.members.push(center);
        self.frontier_start = 0;
        self.depth = 0;
        Ok(())
    }

    /// Advances the BFS in the scratch buffers out to distance `radius`,
    /// admitting at most `max_nodes` ball members.  Layer by layer; each
    /// layer is sorted by original id before it is appended, so `members`
    /// ends up in the same `(distance, id)` order the two-pass extraction
    /// produced.
    ///
    /// Returns `false` — leaving the extractor invalidated for
    /// materialisation but safe to reuse — when the ball has (or already
    /// had, for an extension that grows nothing) more than `max_nodes`
    /// nodes.  The decision point is deterministic: the BFS rejects upfront
    /// if the current members already exceed the cap, and otherwise stops
    /// the moment it would admit node `max_nodes + 1`.
    fn advance_bfs(
        &mut self,
        graph: &Graph,
        center: NodeId,
        radius: usize,
        max_nodes: usize,
    ) -> bool {
        // The upfront check keeps extensions honest: a saturated ball that
        // gains no nodes at a larger radius must still count against the
        // cap exactly as a fresh extraction of the same ball would.
        if self.members.len() > max_nodes {
            self.current = None;
            return false;
        }
        while self.depth < radius as u32 && self.frontier_start < self.members.len() {
            let layer_end = self.members.len();
            for i in self.frontier_start..layer_end {
                let u = self.members[i];
                for v in graph.neighbors(u) {
                    if self.dist[v.index()] == UNSEEN {
                        if self.members.len() >= max_nodes {
                            // Budget exhausted.  `members` still lists every
                            // touched scratch entry, so the next `begin_bfs`
                            // resets cleanly; only materialisation is off.
                            self.current = None;
                            return false;
                        }
                        self.dist[v.index()] = self.depth + 1;
                        self.members.push(v);
                    }
                }
            }
            self.members[layer_end..].sort_unstable();
            self.frontier_start = layer_end;
            self.depth += 1;
        }

        // (Re-)derive ball-local positions; extension appends members, so
        // positions of earlier members are unchanged by recomputation.
        for (local, &orig) in self.members.iter().enumerate() {
            self.position[orig.index()] = local as u32;
        }
        self.current = Some((center, radius));
        true
    }

    /// Extracts `B(center, radius)` from `graph`, reusing this extractor's
    /// scratch buffers.
    ///
    /// # Errors
    ///
    /// Returns an error if `center` is out of range.
    pub fn extract(&mut self, graph: &Graph, center: NodeId, radius: usize) -> Result<Ball> {
        self.bounded_bfs(graph, center, radius)?;
        Ok(self.materialize(graph, center, radius))
    }

    /// Budget-aware variant of [`BallExtractor::extract`]: extracts
    /// `B(center, radius)` only if it has at most `max_nodes` nodes, and
    /// returns `None` — without materialising anything — the moment the
    /// bounded BFS would admit node `max_nodes + 1` (a cap of 0 therefore
    /// rejects every ball).
    ///
    /// This is how radius-3 sweeps stay inside a work budget: a handful of
    /// dense centres cannot blow up a cell whose other balls are small.
    /// After `None`, the extractor is immediately reusable (the failed BFS's
    /// scratch is reclaimed by the next call) but
    /// [`BallExtractor::materialize_current`] is invalidated.
    ///
    /// # Errors
    ///
    /// Returns an error if `center` is out of range.
    pub fn extract_within(
        &mut self,
        graph: &Graph,
        center: NodeId,
        radius: usize,
        max_nodes: usize,
    ) -> Result<Option<Ball>> {
        self.begin_bfs(graph, center)?;
        if !self.advance_bfs(graph, center, radius, max_nodes) {
            return Ok(None);
        }
        Ok(Some(self.materialize(graph, center, radius)))
    }

    /// Extends the BFS currently in the scratch buffers out to a larger
    /// `radius` **without restarting it**: only the new spheres are
    /// traversed, so sweeping one centre through radii `1, 2, 3` costs one
    /// radius-3 BFS total instead of three overlapping ones.  `graph` must
    /// be the graph of the last extraction on this extractor.
    ///
    /// After extending, [`BallExtractor::materialize_current`] and
    /// [`BallExtractor::current_exact_key`] describe the enlarged ball.
    ///
    /// ```
    /// use ld_graph::{generators, BallExtractor, NodeId};
    ///
    /// let g = generators::cycle(32);
    /// let mut extractor = BallExtractor::new();
    /// extractor.extract(&g, NodeId(0), 1).unwrap();
    /// for radius in 2..=3 {
    ///     extractor.extend_current(&g, radius);
    ///     assert_eq!(
    ///         extractor.materialize_current(&g),
    ///         g.ball(NodeId(0), radius)
    ///     );
    /// }
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if no extraction has run (or the last one was exhausted or
    /// failed), or if `radius` is smaller than the current radius.
    pub fn extend_current(&mut self, graph: &Graph, radius: usize) {
        let complete = self.extend_current_within(graph, radius, usize::MAX);
        debug_assert!(complete, "an uncapped extension always completes");
    }

    /// Budget-aware [`BallExtractor::extend_current`]: returns `false` —
    /// invalidating the current ball — when the extension would push the
    /// ball past `max_nodes` total nodes.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`BallExtractor::extend_current`].
    pub fn extend_current_within(
        &mut self,
        graph: &Graph,
        radius: usize,
        max_nodes: usize,
    ) -> bool {
        let (center, current_radius) = self
            .current
            .expect("extend_current requires a prior complete extraction");
        assert!(
            radius >= current_radius,
            "extend_current cannot shrink the radius ({current_radius} -> {radius})"
        );
        self.advance_bfs(graph, center, radius, max_nodes)
    }

    /// Number of nodes reached by the BFS currently in the scratch buffers
    /// (the ball size after a successful `extract*` / `exact_key*` /
    /// `extend_current*` call) — the quantity budget accounting charges.
    pub fn current_node_count(&self) -> usize {
        self.members.len()
    }

    /// The original ids of the ball currently in the scratch buffers, in
    /// ball-local `(distance, original id)` order — valid after a
    /// successful `extract*` / `exact_key*` / `extend_current*` call, for
    /// the graph of that call.
    pub fn current_members(&self) -> &[NodeId] {
        &self.members
    }

    /// Builds the [`Ball`] for the most recent [`BallExtractor::exact_key`]
    /// or [`BallExtractor::extract`] call on this extractor, without
    /// re-running the BFS.  `graph` must be the same graph that call was
    /// made with — the scratch buffers index into it.
    ///
    /// This is the second half of the fingerprint-then-materialise dedup
    /// pattern: probe with `exact_key`, and only pay for ball construction
    /// when the layout turned out to be new.
    ///
    /// # Panics
    ///
    /// Panics if no extraction has run yet, or (typically, as an index
    /// panic) if `graph` is not the graph of the last extraction.
    pub fn materialize_current(&self, graph: &Graph) -> Ball {
        let (center, radius) = self
            .current
            .expect("materialize_current requires a prior exact_key/extract call");
        self.materialize(graph, center, radius)
    }

    /// Builds the [`Ball`] for the BFS currently held in the scratch
    /// buffers.  `graph`, `center` and `radius` must be the arguments of
    /// that BFS.
    fn materialize(&self, graph: &Graph, center: NodeId, radius: usize) -> Ball {
        // Induced subgraph on the members, in member order, written
        // straight into CSR rows.
        let sub = Graph::from_rows(self.members.len(), |new_u, row| {
            row.extend(
                graph
                    .neighbors(self.members[new_u])
                    .map(|orig_v| self.position[orig_v.index()])
                    .filter(|&new_v| new_v != UNSEEN)
                    .map(NodeId),
            );
        });

        let distances = self
            .members
            .iter()
            .map(|&v| self.dist[v.index()] as usize)
            .collect();
        Ball {
            graph: sub,
            center: NodeId::from(self.position[center.index()] as usize),
            radius,
            mapping: self.members.clone(),
            distances,
        }
    }

    /// Writes a compact **exact fingerprint** of `B(center, radius)` into
    /// `key` — computed from the BFS scratch alone, without materialising
    /// the [`Ball`] (no induced subgraph, no mapping/distance vectors).
    ///
    /// Two (graph, centre, radius, labelling) combinations produce equal
    /// keys iff the extracted balls would be equal as values (same
    /// ball-local graph, centre and per-node `label_word`s): structure,
    /// centre and radius are encoded exactly, and node labels enter through
    /// the caller-supplied `label_word`, which must be injective up to the
    /// caller's tolerance (a 64-bit label hash carries the usual content-hash
    /// caveat).  Dedup pipelines use this to skip ball construction for
    /// already-seen layouts.
    ///
    /// The caller owns `key`: it is cleared and refilled, so one buffer
    /// serves every centre of a sweep.  Probe a seen-set with
    /// `key.as_slice()` and clone the key only when the layout is new.
    /// `label_word` is called once per ball member, so callers fingerprinting
    /// many balls of one graph should hash each label once up front and
    /// look the word up here.
    ///
    /// # Errors
    ///
    /// Returns an error if `center` is out of range.
    pub fn exact_key(
        &mut self,
        graph: &Graph,
        center: NodeId,
        radius: usize,
        key: &mut Vec<u64>,
        label_word: impl FnMut(NodeId) -> u64,
    ) -> Result<()> {
        self.bounded_bfs(graph, center, radius)?;
        self.current_exact_key(graph, key, label_word);
        Ok(())
    }

    /// Budget-aware [`BallExtractor::exact_key`]: fingerprints
    /// `B(center, radius)` into `key` only if it has at most `max_nodes`
    /// nodes, and returns `false` — leaving `key` empty — the moment the
    /// bounded BFS would admit node `max_nodes + 1`: the dedup analogue of
    /// [`BallExtractor::extract_within`].
    ///
    /// # Errors
    ///
    /// Returns an error if `center` is out of range.
    pub fn exact_key_within(
        &mut self,
        graph: &Graph,
        center: NodeId,
        radius: usize,
        max_nodes: usize,
        key: &mut Vec<u64>,
        label_word: impl FnMut(NodeId) -> u64,
    ) -> Result<bool> {
        key.clear();
        self.begin_bfs(graph, center)?;
        if !self.advance_bfs(graph, center, radius, max_nodes) {
            return Ok(false);
        }
        self.current_exact_key(graph, key, label_word);
        Ok(true)
    }

    /// Writes the exact fingerprint (see [`BallExtractor::exact_key`]) of
    /// the BFS currently in the scratch buffers into the caller-owned `key`,
    /// without re-running it.  Combined with
    /// [`BallExtractor::extend_current`] this fingerprints one centre at
    /// several radii for the cost of a single BFS.  `graph` must be the
    /// graph of the last extraction.
    ///
    /// # Panics
    ///
    /// Panics if no extraction has run yet (or the last one was exhausted or
    /// failed).
    pub fn current_exact_key(
        &self,
        graph: &Graph,
        key: &mut Vec<u64>,
        mut label_word: impl FnMut(NodeId) -> u64,
    ) {
        let (center, radius) = self
            .current
            .expect("current_exact_key requires a prior complete extraction");
        let n = self.members.len();
        key.clear();
        key.push(n as u64);
        key.push(radius as u64);
        key.push(u64::from(self.position[center.index()]));
        key.extend(self.members.iter().map(|&orig| label_word(orig)));
        for (new_u, &orig_u) in self.members.iter().enumerate() {
            let from = key.len();
            for orig_v in graph.neighbors(orig_u) {
                let new_v = self.position[orig_v.index()];
                if new_v != UNSEEN && (new_u as u32) < new_v {
                    key.push(new_u as u64 * n as u64 + u64::from(new_v));
                }
            }
            // Neighbour iteration is in original-id order; sort each node's
            // edge section into ball-local order so value-equal balls always
            // produce equal keys.
            key[from..].sort_unstable();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn ball_of_radius_zero_is_the_single_node() {
        let g = generators::cycle(6);
        let b = g.ball(NodeId(2), 0);
        assert_eq!(b.node_count(), 1);
        assert_eq!(b.center(), NodeId(0));
        assert_eq!(b.original(NodeId(0)), NodeId(2));
        assert!(!b.is_saturated() || b.radius() == 0 && b.node_count() == 1);
    }

    #[test]
    fn ball_in_cycle_is_a_path() {
        let g = generators::cycle(10);
        let b = g.ball(NodeId(0), 3);
        assert_eq!(b.node_count(), 7);
        assert_eq!(b.graph().edge_count(), 6);
        assert!(b.graph().is_tree());
        assert_eq!(b.distance_from_center(b.center()), 0);
        assert_eq!(b.sphere(3).len(), 2);
        assert!(b.is_saturated());
    }

    #[test]
    fn ball_larger_than_graph_sees_everything() {
        let g = generators::cycle(5);
        let b = g.ball(NodeId(1), 10);
        assert_eq!(b.node_count(), 5);
        assert_eq!(b.graph().edge_count(), 5);
        assert!(!b.is_saturated());
    }

    #[test]
    fn ball_wrapping_around_cycle_has_the_cycle_edge() {
        // In a 5-cycle a radius-2 ball around node 0 contains every node and
        // hence every edge, unlike in a long cycle where it is a path.
        let g = generators::cycle(5);
        let b = g.ball(NodeId(0), 2);
        assert_eq!(b.graph().edge_count(), 5);
    }

    #[test]
    fn ball_distances_match_graph_distances() {
        let g = generators::grid(5, 5);
        let center = generators::grid_index(5, 2, 2);
        let b = g.ball(center, 2);
        for v in b.graph().nodes() {
            let orig = b.original(v);
            let d = g.distance(center, orig).unwrap().unwrap();
            assert_eq!(d, b.distance_from_center(v));
            assert!(d <= 2);
        }
        // Radius-2 ball in the grid interior is the 13-node diamond.
        assert_eq!(b.node_count(), 13);
    }

    #[test]
    fn try_ball_rejects_bad_center() {
        let g = generators::path(3);
        assert!(g.try_ball(NodeId(9), 1).is_err());
    }

    /// Reference two-pass extraction (the pre-`BallExtractor` pipeline),
    /// kept as a differential oracle for the single-pass implementation.
    fn two_pass_ball(g: &Graph, center: NodeId, radius: usize) -> Ball {
        let all_distances = g.bfs_distances(center).unwrap();
        let members = g.nodes_within(center, radius).unwrap();
        let (graph, mapping) = g.induced_subgraph(&members).unwrap();
        let distances = mapping
            .iter()
            .map(|&orig| all_distances.get(orig).unwrap())
            .collect();
        let center_local = mapping.iter().position(|&orig| orig == center).unwrap();
        Ball {
            graph,
            center: NodeId::from(center_local),
            radius,
            mapping,
            distances,
        }
    }

    #[test]
    fn single_pass_extraction_matches_two_pass_reference() {
        let graphs = [
            generators::cycle(12),
            generators::grid(5, 4),
            generators::star(6),
            generators::complete(5),
            generators::path(9),
        ];
        let mut extractor = BallExtractor::new();
        for g in &graphs {
            for v in g.nodes() {
                for radius in 0..4 {
                    let fast = extractor.extract(g, v, radius).unwrap();
                    let reference = two_pass_ball(g, v, radius);
                    assert_eq!(fast, reference, "graph {g:?}, v {v}, radius {radius}");
                }
            }
        }
    }

    #[test]
    fn extractor_reuse_across_graphs_of_different_sizes() {
        let mut extractor = BallExtractor::new();
        let big = generators::grid(6, 6);
        let small = generators::cycle(5);
        let b1 = extractor.extract(&big, NodeId(14), 2).unwrap();
        let s = extractor.extract(&small, NodeId(0), 1).unwrap();
        let b2 = extractor.extract(&big, NodeId(14), 2).unwrap();
        assert_eq!(b1, b2);
        assert_eq!(s.node_count(), 3);
        assert!(extractor.extract(&small, NodeId(9), 1).is_err());
    }

    /// Label word for the key tests: node parity, so distinct centres
    /// often share a layout and the "equal keys iff equal balls" check has
    /// both outcomes to test.
    fn parity(u: NodeId) -> u64 {
        u.index() as u64 % 2
    }

    /// The key a brand-new extractor (and a brand-new buffer) produces.
    fn fresh_key(g: &Graph, v: NodeId, radius: usize) -> Vec<u64> {
        let mut key = Vec::new();
        BallExtractor::new()
            .exact_key(g, v, radius, &mut key, parity)
            .unwrap();
        key
    }

    /// Asserts that `key` equals a key in `seen` exactly when `ball` equals
    /// that key's ball as a value (same ball-local graph, centre, radius
    /// and labels), then records the pair.
    fn check_against_seen(seen: &mut Vec<(Vec<u64>, Ball)>, key: &[u64], ball: Ball) {
        let labels = |b: &Ball| b.mapping().iter().map(|&u| parity(u)).collect::<Vec<_>>();
        for (other_key, other_ball) in seen.iter() {
            let value_equal = ball.graph() == other_ball.graph()
                && ball.center() == other_ball.center()
                && ball.radius() == other_ball.radius()
                && labels(&ball) == labels(other_ball);
            assert_eq!(
                key == other_key.as_slice(),
                value_equal,
                "{ball:?} vs {other_ball:?}"
            );
        }
        seen.push((key.to_vec(), ball));
    }

    /// Runs a budgeted fingerprint that exhausts part-way through its BFS,
    /// through the shared extractor and buffer, so the next extraction has
    /// to reset a half-touched scratch.
    fn exhaust(extractor: &mut BallExtractor, g: &Graph, v: NodeId, key: &mut Vec<u64>) {
        let center = NodeId::from((v.index() + 1) % g.node_count());
        assert!(!extractor
            .exact_key_within(g, center, 3, 3, key, parity)
            .unwrap());
        assert!(key.is_empty(), "an exhausted fingerprint leaves no key");
    }

    #[test]
    fn exact_key_agrees_with_ball_value_equality() {
        // One extractor and one key buffer across graphs that grow and
        // shrink, radii 0..=3, with an exhausted fingerprint before every
        // extraction: each key must match a fresh extractor's, and keys must
        // be equal exactly when the balls are equal as values.
        let graphs = [
            generators::grid(5, 5),
            generators::cycle(9),
            generators::path(5),
            generators::grid(6, 6),
            generators::star(4),
        ];
        let mut extractor = BallExtractor::new();
        let mut key = Vec::new();
        let mut seen: Vec<(Vec<u64>, Ball)> = Vec::new();
        for g in &graphs {
            for v in g.nodes() {
                for radius in 0..=3 {
                    exhaust(&mut extractor, g, v, &mut key);
                    extractor.exact_key(g, v, radius, &mut key, parity).unwrap();
                    assert_eq!(key, fresh_key(g, v, radius), "{g:?}, {v}, radius {radius}");
                    check_against_seen(&mut seen, &key, g.ball(v, radius));
                }
            }
        }
    }

    #[test]
    fn materialize_current_matches_extract_after_exact_key() {
        let g = generators::grid(4, 4);
        let mut extractor = BallExtractor::new();
        for v in g.nodes() {
            let mut key = Vec::new();
            extractor
                .exact_key(&g, v, 2, &mut key, |u| u.index() as u64)
                .unwrap();
            let from_scratch = extractor.materialize_current(&g);
            let reference = g.ball(v, 2);
            assert_eq!(extractor.current_members(), reference.mapping());
            assert_eq!(from_scratch, reference);
        }
    }

    #[test]
    #[should_panic(expected = "requires a prior")]
    fn materialize_current_requires_an_extraction() {
        let g = generators::cycle(4);
        BallExtractor::new().materialize_current(&g);
    }

    #[test]
    #[should_panic(expected = "requires a prior")]
    fn failed_extraction_invalidates_materialize_current() {
        let g = generators::cycle(4);
        let mut extractor = BallExtractor::new();
        extractor.extract(&g, NodeId(0), 1).unwrap();
        assert!(extractor
            .exact_key(&g, NodeId(9), 1, &mut Vec::new(), |_| 0)
            .is_err());
        // The previous ball must not be claimable for the failed call.
        extractor.materialize_current(&g);
    }

    #[test]
    fn extend_current_matches_fresh_extraction_at_every_radius() {
        let graphs = [
            generators::cycle(12),
            generators::grid(5, 5),
            generators::star(6),
            generators::path(9),
            generators::complete(5),
        ];
        let mut incremental = BallExtractor::new();
        let mut fresh = BallExtractor::new();
        let mut key = Vec::new();
        let mut seen: Vec<(Vec<u64>, Ball)> = Vec::new();
        for g in &graphs {
            for v in g.nodes() {
                exhaust(&mut incremental, g, v, &mut key);
                incremental.extract(g, v, 0).unwrap();
                for radius in 0..=3 {
                    if radius > 0 {
                        incremental.extend_current(g, radius);
                    }
                    let extended = incremental.materialize_current(g);
                    let reference = fresh.extract(g, v, radius).unwrap();
                    assert_eq!(extended, reference, "graph {g:?}, v {v}, radius {radius}");
                    incremental.current_exact_key(g, &mut key, parity);
                    assert_eq!(key, fresh_key(g, v, radius), "{g:?}, {v}, radius {radius}");
                    check_against_seen(&mut seen, &key, extended);
                }
            }
        }
    }

    #[test]
    fn extract_within_admits_exact_fit_and_rejects_one_more() {
        let g = generators::grid(5, 5);
        let center = generators::grid_index(5, 2, 2);
        // The radius-2 interior diamond has 13 nodes.
        let mut extractor = BallExtractor::new();
        let fit = extractor.extract_within(&g, center, 2, 13).unwrap();
        assert_eq!(fit.unwrap().node_count(), 13);
        let reject = extractor.extract_within(&g, center, 2, 12).unwrap();
        assert!(reject.is_none());
        // Exhaustion is deterministic and leaves the extractor reusable.
        assert!(extractor
            .extract_within(&g, center, 2, 12)
            .unwrap()
            .is_none());
        let again = extractor.extract(&g, center, 2).unwrap();
        assert_eq!(again, g.ball(center, 2));
    }

    #[test]
    fn exact_key_within_agrees_with_exact_key_when_unexhausted() {
        let g = generators::grid(4, 4);
        let mut a = BallExtractor::new();
        let mut b = BallExtractor::new();
        for v in g.nodes() {
            let (mut unbudgeted, mut budgeted) = (Vec::new(), Vec::new());
            a.exact_key(&g, v, 2, &mut unbudgeted, |u| u.index() as u64)
                .unwrap();
            assert!(b
                .exact_key_within(&g, v, 2, usize::MAX, &mut budgeted, |u| u.index() as u64)
                .unwrap());
            assert_eq!(budgeted, unbudgeted);
            assert_eq!(b.current_node_count(), unbudgeted[0] as usize);
        }
    }

    #[test]
    #[should_panic(expected = "requires a prior")]
    fn exhausted_extraction_invalidates_extension() {
        let g = generators::complete(6);
        let mut extractor = BallExtractor::new();
        assert!(extractor
            .extract_within(&g, NodeId(0), 1, 3)
            .unwrap()
            .is_none());
        extractor.extend_current(&g, 2);
    }

    #[test]
    fn budgeted_extension_reports_exhaustion_at_the_larger_radius_only() {
        let g = generators::cycle(20);
        let mut extractor = BallExtractor::new();
        extractor.extract(&g, NodeId(0), 1).unwrap();
        // Radius-2 ball has 5 nodes: a cap of 5 fits, 4 does not.
        assert!(extractor.extend_current_within(&g, 2, 5));
        assert_eq!(extractor.current_node_count(), 5);
        extractor.extract(&g, NodeId(0), 1).unwrap();
        assert!(!extractor.extend_current_within(&g, 2, 4));
    }

    #[test]
    fn saturated_extension_still_honours_the_cap() {
        // In a 5-cycle the radius-2 ball is already the whole graph; an
        // extension to radius 3 adds no nodes, but a cap below the ball
        // size must reject it exactly as a fresh extraction would.
        let g = generators::cycle(5);
        let mut extractor = BallExtractor::new();
        extractor.extract(&g, NodeId(0), 2).unwrap();
        assert_eq!(extractor.current_node_count(), 5);
        assert!(!extractor.extend_current_within(&g, 3, 4));
        // With a fitting cap the saturated extension succeeds.
        extractor.extract(&g, NodeId(0), 2).unwrap();
        assert!(extractor.extend_current_within(&g, 3, 5));
    }

    #[test]
    fn into_parts_roundtrips() {
        let g = generators::cycle(10);
        let ball = g.ball(NodeId(0), 2);
        let expected_mapping = ball.mapping().to_vec();
        let (graph, center, radius, mapping, distances) = ball.into_parts();
        assert_eq!(graph.node_count(), 5);
        assert_eq!(radius, 2);
        assert_eq!(mapping, expected_mapping);
        assert_eq!(distances[center.index()], 0);
    }

    #[test]
    fn sphere_partition_covers_ball() {
        let g = generators::grid(6, 6);
        let b = g.ball(generators::grid_index(6, 0, 0), 3);
        let total: usize = (0..=3).map(|d| b.sphere(d).len()).sum();
        assert_eq!(total, b.node_count());
    }
}
