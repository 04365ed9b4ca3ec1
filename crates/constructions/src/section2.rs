//! Section 2: the bounded-identifier separation.
//!
//! Under assumption (B) identifiers are bounded by `f(n)`, so a large
//! identifier *leaks a lower bound on `n`*.  The paper turns this into a
//! separation LD ≠ LD\* with the following family (Figure 1):
//!
//! * `T_r` — a **layered** complete binary tree of depth `R(r) = f(2^{r+1}+1)`
//!   whose nodes are labelled `(r, x, y)` with their coordinates;
//! * `H_r` — all "small" instances `H⁺`: an induced layered depth-`r`
//!   subtree `H ≤_r T_r` together with a *pivot* node adjacent to every
//!   border node of `H`;
//! * `P = ⋃_r H_r` (the yes-instances) and `P' = P ∪ {T_r}` (the locally
//!   checkable promise).
//!
//! `P' ∈ LD*`, `P ∈ LD` (reject `T_r` because it must contain an identifier
//! `≥ R(r)`), but `P ∉ LD*` because every local view of `T_r` already occurs
//! in some small instance.  The bound function `f` is injected as an
//! [`IdBound`] so experiments can sweep it (see `DESIGN.md` §2).

use crate::error::ConstructionError;
use crate::Result;
use ld_graph::{generators, Graph, LabeledGraph, NodeId};
use ld_local::hashing::{FxHashMap, FxHashSet};
use ld_local::{IdBound, Property};

/// A position in a layered complete binary tree: `x` is the horizontal index
/// within level `y` (`0 <= x < 2^y`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Coord {
    /// Horizontal position within the level.
    pub x: u64,
    /// Level (depth), with the root at `y = 0`.
    pub y: u32,
}

impl Coord {
    /// Convenience constructor.
    pub fn new(x: u64, y: u32) -> Self {
        Coord { x, y }
    }
}

/// The node label of the Section 2 construction: the parameter `r` plus the
/// node's coordinates; the pivot node of a small instance carries no
/// coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Section2Label {
    /// The locality parameter `r` (shared by every node of an instance).
    pub r: u32,
    /// Coordinates in the layered tree, or `None` for the pivot.
    pub coord: Option<Coord>,
}

/// How a labelled graph relates to the Section 2 family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstanceClass {
    /// A small instance `H⁺ ∈ H_r` (a yes-instance of `P`).
    Small,
    /// The large instance `T_r` (a yes-instance of `P'` but a no-instance of
    /// `P`).
    Large,
    /// Anything else (a no-instance of both `P` and `P'`).
    Invalid,
}

/// Parameters of the Section 2 construction: the locality parameter `r`, the
/// identifier bound `f`, and a safety cap on the depth of materialised trees.
#[derive(Debug, Clone)]
pub struct Section2Params {
    r: u32,
    bound: IdBound,
    max_depth: u32,
}

impl Section2Params {
    /// Default cap on the depth of trees that will actually be built
    /// (a depth-`d` layered tree has `2^{d+1} - 1` nodes).
    pub const DEFAULT_MAX_DEPTH: u32 = 20;

    /// Creates parameters with the default depth cap.
    ///
    /// # Errors
    ///
    /// Returns an error if `R(r) = f(2^{r+1} + 1)` exceeds the depth cap or
    /// is not strictly larger than `r` (the construction needs room for
    /// small instances inside the large one).
    pub fn new(r: u32, bound: IdBound) -> Result<Self> {
        Self::with_max_depth(r, bound, Self::DEFAULT_MAX_DEPTH)
    }

    /// Creates parameters with an explicit depth cap.
    ///
    /// # Errors
    ///
    /// See [`Section2Params::new`].
    pub fn with_max_depth(r: u32, bound: IdBound, max_depth: u32) -> Result<Self> {
        let params = Section2Params {
            r,
            bound,
            max_depth,
        };
        let depth = params.big_depth_unchecked();
        if depth > u64::from(max_depth) {
            return Err(ConstructionError::InstanceTooLarge {
                reason: format!(
                    "R(r) = f(2^(r+1)+1) = {depth} exceeds the depth cap {max_depth}; choose a slower-growing bound"
                ),
            });
        }
        if depth <= u64::from(r) {
            return Err(ConstructionError::InvalidParameter {
                reason: format!("R(r) = {depth} must exceed r = {r}"),
            });
        }
        Ok(params)
    }

    /// The locality parameter `r`.
    pub fn r(&self) -> u32 {
        self.r
    }

    /// The depth cap beyond which instances are refused.
    pub fn max_depth(&self) -> u32 {
        self.max_depth
    }

    /// The identifier bound `f`.
    pub fn bound(&self) -> &IdBound {
        &self.bound
    }

    /// The threshold `2^{r+1} + 1` (one more than the number of nodes of a
    /// small instance).
    pub fn threshold(&self) -> u64 {
        (1u64 << (self.r + 1)) + 1
    }

    /// The depth `R(r) = f(2^{r+1} + 1)` of the large instance.
    pub fn big_depth(&self) -> u32 {
        self.big_depth_unchecked() as u32
    }

    fn big_depth_unchecked(&self) -> u64 {
        self.bound.apply(self.threshold())
    }

    /// Number of nodes of the large instance `T_r`.
    pub fn large_instance_size(&self) -> usize {
        (1usize << (self.big_depth() + 1)) - 1
    }

    /// Number of nodes of a small instance `H⁺` (including the pivot).
    pub fn small_instance_size(&self) -> usize {
        1usize << (self.r + 1)
    }

    /// The expected neighbours of coordinate `c` in the infinite layered tree
    /// truncated to depth `depth`: parent, children, and same-level path
    /// neighbours.
    pub fn tree_neighbors(c: Coord, depth: u32) -> Vec<Coord> {
        let mut out = Vec::with_capacity(5);
        if c.y > 0 {
            out.push(Coord::new(c.x / 2, c.y - 1));
            if c.x > 0 {
                out.push(Coord::new(c.x - 1, c.y));
            }
            if c.x + 1 < (1u64 << c.y) {
                out.push(Coord::new(c.x + 1, c.y));
            }
        }
        if c.y < depth {
            out.push(Coord::new(2 * c.x, c.y + 1));
            out.push(Coord::new(2 * c.x + 1, c.y + 1));
        }
        out
    }

    /// Builds the large instance `T_r`: a layered tree of depth `R(r)` with
    /// coordinate labels.
    ///
    /// # Errors
    ///
    /// Returns an error if the tree would exceed the depth cap (checked at
    /// construction of the parameters, so in practice this is infallible).
    pub fn large_instance(&self) -> Result<LabeledGraph<Section2Label>> {
        let depth = self.big_depth();
        let graph = generators::layered_tree(depth);
        let coords = generators::layered_tree_coordinates(depth);
        let r = self.r;
        let labeled = LabeledGraph::from_fn(graph, |v| Section2Label {
            r,
            coord: Some(Coord::new(coords[v.index()].0, coords[v.index()].1)),
        });
        Ok(labeled)
    }

    /// The roots `(x0, y0)` at which a small instance can be anchored:
    /// every node of `T_r` at depth `y0 <= R(r) - r`.
    pub fn small_instance_roots(&self) -> Vec<Coord> {
        let depth = self.big_depth();
        let mut roots = Vec::new();
        for y in 0..=(depth - self.r) {
            for x in 0..(1u64 << y) {
                roots.push(Coord::new(x, y));
            }
        }
        roots
    }

    /// The coordinates of the induced layered depth-`r` subtree rooted at
    /// `root`.
    pub fn subtree_coords(&self, root: Coord) -> Vec<Coord> {
        let mut coords = Vec::with_capacity(self.small_instance_size() - 1);
        for dy in 0..=self.r {
            let level = root.y + dy;
            let start = root.x << dy;
            for x in start..start + (1u64 << dy) {
                coords.push(Coord::new(x, level));
            }
        }
        coords
    }

    /// The border nodes of the subtree rooted at `root`: nodes with a
    /// neighbour in `T_r` outside the subtree.
    pub fn border_coords(&self, root: Coord) -> Vec<Coord> {
        let depth = self.big_depth();
        let members: FxHashSet<Coord> = self.subtree_coords(root).into_iter().collect();
        let mut border: Vec<Coord> = members
            .iter()
            .copied()
            .filter(|&c| {
                Self::tree_neighbors(c, depth)
                    .into_iter()
                    .any(|n| !members.contains(&n))
            })
            .collect();
        border.sort_unstable();
        border
    }

    /// Builds the small instance `H⁺` anchored at `root`: the induced
    /// layered depth-`r` subtree plus a pivot adjacent to every border node.
    ///
    /// # Errors
    ///
    /// Returns an error if `root` is not a valid anchor (too deep or out of
    /// range).
    pub fn small_instance(&self, root: Coord) -> Result<LabeledGraph<Section2Label>> {
        let depth = self.big_depth();
        if root.y + self.r > depth || root.x >= (1u64 << root.y) {
            return Err(ConstructionError::InvalidParameter {
                reason: format!(
                    "root ({}, {}) cannot anchor a depth-{} subtree of a depth-{depth} tree",
                    root.x, root.y, self.r
                ),
            });
        }
        let coords = self.subtree_coords(root);
        let index: FxHashMap<Coord, usize> = coords
            .iter()
            .copied()
            .enumerate()
            .map(|(i, c)| (c, i))
            .collect();
        let pivot = coords.len();
        let mut edges = Vec::new();
        for (i, &c) in coords.iter().enumerate() {
            for n in Self::tree_neighbors(c, depth) {
                if let Some(&j) = index.get(&n) {
                    if i < j {
                        edges.push((i, j));
                    }
                }
            }
        }
        edges.extend(self.border_coords(root).iter().map(|b| (index[b], pivot)));
        let graph = Graph::from_edges(coords.len() + 1, edges)?;
        let r = self.r;
        let mut labels: Vec<Section2Label> = coords
            .iter()
            .map(|&c| Section2Label { r, coord: Some(c) })
            .collect();
        labels.push(Section2Label { r, coord: None });
        Ok(LabeledGraph::new(graph, labels)?)
    }

    /// Builds at most `max` small instances, anchored at the first roots in
    /// breadth-first order (deterministic; used by experiments that cannot
    /// afford the whole family).
    ///
    /// # Errors
    ///
    /// Propagates errors from [`Section2Params::small_instance`].
    pub fn sample_small_instances(&self, max: usize) -> Result<Vec<LabeledGraph<Section2Label>>> {
        self.small_instance_roots()
            .into_iter()
            .take(max)
            .map(|root| self.small_instance(root))
            .collect()
    }

    /// Classifies a labelled graph as a small instance, the large instance,
    /// or neither.
    pub fn classify(&self, lg: &LabeledGraph<Section2Label>) -> InstanceClass {
        if lg.node_count() == 0 {
            return InstanceClass::Invalid;
        }
        if lg.labels().iter().any(|l| l.r != self.r) {
            return InstanceClass::Invalid;
        }
        let depth = self.big_depth();
        let pivots: Vec<NodeId> = lg
            .iter()
            .filter_map(|(v, l)| l.coord.is_none().then_some(v))
            .collect();
        // Map coordinates to nodes, rejecting duplicates and invalid coords.
        let mut coord_of: FxHashMap<Coord, NodeId> = FxHashMap::default();
        for (v, l) in lg.iter() {
            if let Some(c) = l.coord {
                if c.y > depth || c.x >= (1u64 << c.y) {
                    return InstanceClass::Invalid;
                }
                if coord_of.insert(c, v).is_some() {
                    return InstanceClass::Invalid;
                }
            }
        }
        match pivots.as_slice() {
            [] => self.classify_large(lg, &coord_of),
            [pivot] => self.classify_small(lg, &coord_of, *pivot),
            _ => InstanceClass::Invalid,
        }
    }

    fn classify_large(
        &self,
        lg: &LabeledGraph<Section2Label>,
        coord_of: &FxHashMap<Coord, NodeId>,
    ) -> InstanceClass {
        let depth = self.big_depth();
        if lg.node_count() != self.large_instance_size() {
            return InstanceClass::Invalid;
        }
        // All coordinates of the depth-R tree must be present (counts match
        // and coordinates are distinct, so presence follows), and every
        // node's neighbourhood must be exactly its tree neighbourhood.
        for (&c, &v) in coord_of {
            let mut expected: Vec<NodeId> = Self::tree_neighbors(c, depth)
                .into_iter()
                .filter_map(|n| coord_of.get(&n).copied())
                .collect();
            expected.sort_unstable();
            let mut actual: Vec<NodeId> = lg.graph().neighbors(v).collect();
            actual.sort_unstable();
            if expected.len() != Self::tree_neighbors(c, depth).len() || expected != actual {
                return InstanceClass::Invalid;
            }
        }
        InstanceClass::Large
    }

    fn classify_small(
        &self,
        lg: &LabeledGraph<Section2Label>,
        coord_of: &FxHashMap<Coord, NodeId>,
        pivot: NodeId,
    ) -> InstanceClass {
        let depth = self.big_depth();
        if lg.node_count() != self.small_instance_size() {
            return InstanceClass::Invalid;
        }
        // Find the root: the unique shallowest coordinate.
        let Some(&min_y) = coord_of.keys().map(|c| &c.y).min() else {
            return InstanceClass::Invalid;
        };
        let roots: Vec<Coord> = coord_of.keys().copied().filter(|c| c.y == min_y).collect();
        let [root] = roots.as_slice() else {
            return InstanceClass::Invalid;
        };
        let root = *root;
        if root.y + self.r > depth {
            return InstanceClass::Invalid;
        }
        // The coordinate set must be exactly the depth-r subtree below root.
        let expected_coords = self.subtree_coords(root);
        if expected_coords.len() != coord_of.len()
            || expected_coords.iter().any(|c| !coord_of.contains_key(c))
        {
            return InstanceClass::Invalid;
        }
        let border: FxHashSet<Coord> = self.border_coords(root).into_iter().collect();
        // Check every coordinate node's neighbourhood: its in-subtree tree
        // neighbours, plus the pivot iff it is a border node.
        for (&c, &v) in coord_of {
            let mut expected: Vec<NodeId> = Self::tree_neighbors(c, depth)
                .into_iter()
                .filter_map(|n| coord_of.get(&n).copied())
                .collect();
            if border.contains(&c) {
                expected.push(pivot);
            }
            expected.sort_unstable();
            let mut actual: Vec<NodeId> = lg.graph().neighbors(v).collect();
            actual.sort_unstable();
            if expected != actual {
                return InstanceClass::Invalid;
            }
        }
        // The pivot must be adjacent to exactly the border nodes.
        let mut pivot_neighbors: Vec<NodeId> = lg.graph().neighbors(pivot).collect();
        pivot_neighbors.sort_unstable();
        let mut expected_pivot: Vec<NodeId> = border.iter().map(|c| coord_of[c]).collect();
        expected_pivot.sort_unstable();
        if pivot_neighbors != expected_pivot {
            return InstanceClass::Invalid;
        }
        InstanceClass::Small
    }
}

/// The property `P = ⋃_r H_r` (for the fixed `r` of the parameters): the
/// small instances are the yes-instances.
#[derive(Debug, Clone)]
pub struct SmallInstancesProperty {
    params: Section2Params,
}

impl SmallInstancesProperty {
    /// Wraps the parameters.
    pub fn new(params: Section2Params) -> Self {
        SmallInstancesProperty { params }
    }

    /// The underlying parameters.
    pub fn params(&self) -> &Section2Params {
        &self.params
    }
}

impl Property<Section2Label> for SmallInstancesProperty {
    fn name(&self) -> &str {
        "section2-P (small instances)"
    }

    fn contains(&self, labeled: &LabeledGraph<Section2Label>) -> bool {
        self.params.classify(labeled) == InstanceClass::Small
    }
}

/// The property `P' = P ∪ {T_r}`: small or large instances.
#[derive(Debug, Clone)]
pub struct SmallOrLargeProperty {
    params: Section2Params,
}

impl SmallOrLargeProperty {
    /// Wraps the parameters.
    pub fn new(params: Section2Params) -> Self {
        SmallOrLargeProperty { params }
    }

    /// The underlying parameters.
    pub fn params(&self) -> &Section2Params {
        &self.params
    }
}

impl Property<Section2Label> for SmallOrLargeProperty {
    fn name(&self) -> &str {
        "section2-P' (small or large instances)"
    }

    fn contains(&self, labeled: &LabeledGraph<Section2Label>) -> bool {
        self.params.classify(labeled) != InstanceClass::Invalid
    }
}

/// The illustrative promise problem of Section 2: the input is an `n`-cycle
/// whose every node carries the constant label `r`; under the promise
/// `n ∈ {r, f(r)}`, the yes-instances are those with `n = r`.
pub mod promise {
    use super::*;

    /// The constant label of the promise-problem cycles.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub struct CycleParamLabel {
        /// The announced cycle length `r`.
        pub r: u64,
    }

    /// Builds the yes-instance: an `r`-cycle labelled `r`.
    ///
    /// # Errors
    ///
    /// Returns an error if `r < 3`.
    pub fn yes_instance(r: u64) -> Result<LabeledGraph<CycleParamLabel>> {
        if r < 3 {
            return Err(ConstructionError::InvalidParameter {
                reason: format!("a cycle needs at least 3 nodes, got r = {r}"),
            });
        }
        Ok(LabeledGraph::uniform(
            generators::cycle(r as usize),
            CycleParamLabel { r },
        ))
    }

    /// Builds the no-instance: an `f(r)`-cycle labelled `r`.
    ///
    /// # Errors
    ///
    /// Returns an error if `f(r) < 3`, if `f(r) = r` (the bound must grow),
    /// or if `f(r)` exceeds `max_nodes`.
    pub fn no_instance(
        r: u64,
        bound: &IdBound,
        max_nodes: u64,
    ) -> Result<LabeledGraph<CycleParamLabel>> {
        let n = bound.apply(r);
        if n < 3 || n == r {
            return Err(ConstructionError::InvalidParameter {
                reason: format!("f(r) = {n} must be at least 3 and different from r = {r}"),
            });
        }
        if n > max_nodes {
            return Err(ConstructionError::InstanceTooLarge {
                reason: format!("f(r) = {n} exceeds the cap of {max_nodes} nodes"),
            });
        }
        Ok(LabeledGraph::uniform(
            generators::cycle(n as usize),
            CycleParamLabel { r },
        ))
    }

    /// The promise-problem property: the graph is a cycle whose length
    /// matches the announced label `r`.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct AnnouncedLengthProperty;

    impl Property<CycleParamLabel> for AnnouncedLengthProperty {
        fn name(&self) -> &str {
            "section2-promise (n = r)"
        }

        fn contains(&self, labeled: &LabeledGraph<CycleParamLabel>) -> bool {
            let n = labeled.node_count() as u64;
            labeled.graph().is_regular(2)
                && labeled.graph().is_connected()
                && labeled.labels().iter().all(|l| l.r == n)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> Section2Params {
        // f(n) = n + 2 keeps R(r) = 2^{r+1} + 3 small enough to materialise.
        Section2Params::new(1, IdBound::identity_plus(2)).unwrap()
    }

    #[test]
    fn parameter_validation() {
        assert!(Section2Params::new(1, IdBound::identity_plus(2)).is_ok());
        // Exponential bound explodes past the depth cap immediately.
        assert!(matches!(
            Section2Params::new(2, IdBound::exponential()),
            Err(ConstructionError::InstanceTooLarge { .. })
        ));
        // A constant bound <= r is rejected.
        let tiny = IdBound::from_table("const", vec![1, 1, 1, 1, 1, 1, 1, 1, 1, 1]).unwrap();
        assert!(Section2Params::new(3, tiny).is_err());
    }

    #[test]
    fn derived_quantities() {
        let p = params();
        assert_eq!(p.r(), 1);
        assert_eq!(p.threshold(), 5);
        assert_eq!(p.big_depth(), 7);
        assert_eq!(p.large_instance_size(), 255);
        assert_eq!(p.small_instance_size(), 4);
        assert_eq!(p.bound().apply(5), 7);
    }

    #[test]
    fn large_instance_is_a_layered_tree_and_classifies_large() {
        let p = params();
        let t = p.large_instance().unwrap();
        assert_eq!(t.node_count(), 255);
        assert!(t.graph().is_connected());
        assert_eq!(p.classify(&t), InstanceClass::Large);
        assert!(SmallOrLargeProperty::new(p.clone()).contains(&t));
        assert!(!SmallInstancesProperty::new(p).contains(&t));
    }

    #[test]
    fn small_instances_classify_small() {
        let p = params();
        for root in [
            Coord::new(0, 0),
            Coord::new(0, 3),
            Coord::new(5, 4),
            Coord::new(63, 6),
        ] {
            let h = p.small_instance(root).unwrap();
            assert_eq!(h.node_count(), 4, "depth-1 subtree plus pivot");
            assert!(h.graph().is_connected());
            assert_eq!(p.classify(&h), InstanceClass::Small, "root {root:?}");
            assert!(SmallInstancesProperty::new(p.clone()).contains(&h));
            assert!(SmallOrLargeProperty::new(p.clone()).contains(&h));
        }
    }

    #[test]
    fn small_instance_rejects_invalid_roots() {
        let p = params();
        assert!(p.small_instance(Coord::new(0, 7)).is_err()); // too deep
        assert!(p.small_instance(Coord::new(9, 2)).is_err()); // x out of range
    }

    #[test]
    fn root_count_matches_formula() {
        let p = params();
        // Roots live on levels 0..=R-r = 0..=6: 2^7 - 1 of them.
        assert_eq!(p.small_instance_roots().len(), 127);
        assert_eq!(p.sample_small_instances(5).unwrap().len(), 5);
    }

    #[test]
    fn border_structure_of_a_root_anchored_instance() {
        let p = params();
        // Root at the very top: only the bottom level is border (it has
        // children outside), so the pivot has degree 2.
        let h = p.small_instance(Coord::new(0, 0)).unwrap();
        let pivot = h
            .iter()
            .find_map(|(v, l)| l.coord.is_none().then_some(v))
            .unwrap();
        assert_eq!(h.graph().degree(pivot).unwrap(), 2);

        // An interior root: the root has a parent and level neighbours
        // outside, so every node of H is a border node and the pivot has
        // degree 3 (= 2^{r+1} - 1).
        let h = p.small_instance(Coord::new(5, 4)).unwrap();
        let pivot = h
            .iter()
            .find_map(|(v, l)| l.coord.is_none().then_some(v))
            .unwrap();
        assert_eq!(h.graph().degree(pivot).unwrap(), 3);
    }

    #[test]
    fn corrupted_instances_are_invalid() {
        let p = params();
        // Wrong r.
        let t = p.large_instance().unwrap();
        let wrong_r = t.map_labels(|_, l| Section2Label { r: l.r + 1, ..*l });
        assert_eq!(p.classify(&wrong_r), InstanceClass::Invalid);

        // Duplicate coordinate.
        let mut h = p.small_instance(Coord::new(0, 2)).unwrap();
        let first_coord = h.label(NodeId(0)).coord;
        *h.label_mut(NodeId(1)) = Section2Label {
            r: 1,
            coord: first_coord,
        };
        assert_eq!(p.classify(&h), InstanceClass::Invalid);

        // Two pivots.
        let mut h = p.small_instance(Coord::new(0, 2)).unwrap();
        *h.label_mut(NodeId(0)) = Section2Label { r: 1, coord: None };
        assert_eq!(p.classify(&h), InstanceClass::Invalid);

        // Extra edge inside a small instance.
        let h = p.small_instance(Coord::new(0, 0)).unwrap();
        let (graph, labels) = h.into_parts();
        // Nodes 1 and 2 are the two children (siblings on the level path are
        // already adjacent), so connect node 0 to the pivot instead.
        let pivot = NodeId::from(labels.iter().position(|l| l.coord.is_none()).unwrap());
        let mut edges: Vec<(usize, usize)> =
            graph.edges().map(|(u, v)| (u.index(), v.index())).collect();
        if !graph.has_edge(NodeId(0), pivot) {
            edges.push((0, pivot.index()));
        }
        let graph = Graph::from_edges(graph.node_count(), edges).unwrap();
        let tampered = LabeledGraph::new(graph, labels).unwrap();
        assert_eq!(p.classify(&tampered), InstanceClass::Invalid);

        // A plain path is invalid.
        let path = LabeledGraph::uniform(generators::path(4), Section2Label { r: 1, coord: None });
        assert_eq!(p.classify(&path), InstanceClass::Invalid);
    }

    #[test]
    fn promise_instances_and_property() {
        let bound = IdBound::linear(3, 0);
        let yes = promise::yes_instance(5).unwrap();
        assert_eq!(yes.node_count(), 5);
        let no = promise::no_instance(5, &bound, 10_000).unwrap();
        assert_eq!(no.node_count(), 15);
        let property = promise::AnnouncedLengthProperty;
        assert!(property.contains(&yes));
        assert!(!property.contains(&no));
        assert!(promise::yes_instance(2).is_err());
        assert!(promise::no_instance(5, &IdBound::identity_plus(0), 10_000).is_err());
        assert!(promise::no_instance(5, &bound, 10).is_err());
    }
}
