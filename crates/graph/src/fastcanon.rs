//! Word-parallel canonicalisation kernel for balls of at most 64 nodes.
//!
//! Every ball the paper's sweeps canonicalise is tiny — a radius-3 ball in
//! a grid has 25 nodes, in a cycle 7 — so the canonical-code hot path in
//! [`crate::canon`] spends its time not on asymptotics but on memory
//! traffic: neighbour-row walking, per-branch partition clones, and
//! per-node AHU code vectors.  This module is a drop-in kernel
//! for the **≤ 64 node regime** that runs the *same algorithms* over flat
//! word-parallel state:
//!
//! * adjacency is 64 [`u64` bitset rows](CanonScratch), so neighbour
//!   iteration is bit scanning, ball membership is a mask test, and the
//!   interchangeability prune compares whole neighbourhoods with two word
//!   ops instead of walking sorted lists;
//! * refinement partitions, permutations and BFS queues are fixed arrays —
//!   an individualisation branch copies 256 bytes instead of cloning a
//!   `Vec`;
//! * AHU subtree codes are replaced by order-isomorphic integer ranks
//!   (the oracle's length-prefixed codes are prefix-free, so rank
//!   comparison reproduces code comparison exactly — see
//!   `rooted_tree_perm`), replacing the per-node `Vec<Vec<u64>>` of the
//!   general path with one flat child arena and a 64-entry rank array;
//! * all of the above lives in one reusable [`CanonScratch`] (one per
//!   worker thread, or one per call site via
//!   [`CanonScratch::canonicalize_batch`]), so a warmed-up scratch performs
//!   **zero allocations per call** beyond the returned code itself.
//!
//! # Byte-identical to the oracle
//!
//! The kernel is *not* a second canonical form: it mirrors the exact
//! orderings of [`crate::canon`] — the `(centre, colour)` initial
//! partition, the signature ranks of colour refinement, the
//! first-smallest-cell branching rule, the AHU child order, and the
//! `[n, m, centre | colours | sorted edges]` encode layout — so for every
//! input it produces **the same bytes** as the slow path.  The two places
//! the implementations may order intermediate values differently (unstable
//! sorts over refinement signatures, tie-breaks between equal AHU child
//! codes) provably cannot change the emitted code: refinement ranks depend
//! only on signature equivalence classes, and equal AHU codes mean
//! isomorphic coloured subtrees whose encode contributions are identical.
//! Bit-scanning a row visits neighbours in ascending node order, matching
//! the sorted adjacency lists the oracle iterates.
//!
//! The original path stays intact as the **differential oracle**
//! ([`crate::canon::canonical_code_oracle`],
//! [`crate::canon::centered_canonical_code_oracle`]);
//! `tests/tests/fastcanon_differential.rs` proptests random trees, grids,
//! cycles, GMR balls and colourings through both and asserts code-for-code
//! equality.  Setting `LD_CANON_FALLBACK=1` in the environment forces every
//! dispatch onto the oracle path (read once per process), which CI uses to
//! byte-diff whole sweep reports against kernel-enabled runs.

use crate::canon::{self, CanonicalCode};
use crate::graph::{Graph, NodeId};
use std::cell::RefCell;
use std::sync::OnceLock;

/// Largest graph the bitset kernel accepts: one node per bit of a `u64`
/// adjacency row.  Larger graphs dispatch to the oracle path.
pub const MAX_NODES: usize = 64;

/// Parent sentinel in the tree path (valid nodes are `0..64`).
const NO_PARENT: u8 = u8::MAX;

/// Whether the kernel can canonicalise this graph at all: `1..=64` nodes.
/// (The empty graph is handled by the shared header fast path in
/// [`crate::canon`] before any kernel dispatch.)
pub fn supports(graph: &Graph) -> bool {
    (1..=MAX_NODES).contains(&graph.node_count())
}

/// Whether `LD_CANON_FALLBACK` forces the oracle path for this process.
///
/// Any non-empty value other than `"0"` disables the kernel.  The
/// environment is read once and cached: sweep determinism must not depend
/// on mid-run environment mutation.
pub fn fallback_forced() -> bool {
    static FORCED: OnceLock<bool> = OnceLock::new();
    *FORCED.get_or_init(|| parse_fallback(std::env::var("LD_CANON_FALLBACK").ok().as_deref()))
}

/// Pure parse behind [`fallback_forced`]: unset, empty and `"0"` keep the
/// kernel on; everything else forces the oracle.
fn parse_fallback(value: Option<&str>) -> bool {
    value.is_some_and(|v| !v.is_empty() && v != "0")
}

/// Whether a [`crate::canon::canonical_code`] call on this graph will run
/// on the bitset kernel: small enough *and* the fallback is not forced.
pub fn accelerates(graph: &Graph) -> bool {
    supports(graph) && !fallback_forced()
}

thread_local! {
    /// One warmed-up scratch per worker thread for the non-batched entry
    /// points ([`crate::canon::canonical_code`] and friends).
    static SCRATCH: RefCell<CanonScratch> = RefCell::new(CanonScratch::new());
}

/// Canonical form via this thread's shared scratch (the dispatch target of
/// [`crate::canon::canonical_code`]).  Reentrant calls — impossible today,
/// but cheap to tolerate — fall back to a fresh scratch.
pub(crate) fn thread_form(graph: &Graph, center: Option<NodeId>, colors: &[u64]) -> CanonicalCode {
    SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => scratch.form(graph, center, colors),
        Err(_) => CanonScratch::new().form(graph, center, colors),
    })
}

/// How many times this thread's shared scratch has run the bitset kernel
/// (oracle fallbacks do not count).  Thread-local, so concurrently running
/// tests cannot perturb each other's dispatch assertions.  Test-only: view
/// enumeration canonicalises through its own [`CanonScratch`], whose
/// [`CanonScratch::kernel_calls`] is the production counter.
#[cfg(test)]
pub(crate) fn thread_kernel_calls() -> u64 {
    SCRATCH.with(|cell| cell.try_borrow().map_or(0, |s| s.kernel_calls()))
}

/// Reusable scratch state for the bitset kernel: adjacency rows, BFS and
/// refinement arrays, the AHU child arena, and the output buffers.
///
/// Create one per worker (or lean on the crate's per-thread instance via
/// [`crate::canon::canonical_code`]) and feed it many graphs; after the
/// first few calls every buffer has reached its high-water mark and calls
/// allocate nothing but the returned [`CanonicalCode`].
pub struct CanonScratch {
    // -- loaded per graph by `prepare` -------------------------------------
    /// Bit `u` of `rows[v]` set iff `{v, u}` is an edge.
    rows: [u64; MAX_NODES],
    /// Node count of the loaded graph.
    n: usize,
    /// Edge count of the loaded graph.
    m: usize,
    /// Whether the loaded graph is a tree (dispatches AHU vs search).
    tree: bool,
    /// Bitset-kernel invocations (dispatch introspection for tests).
    calls: u64,
    // -- tree path ---------------------------------------------------------
    /// BFS parent of each node under the current rooting.
    parent: [u8; MAX_NODES],
    /// BFS visit order under the current rooting.
    bfs: [u8; MAX_NODES],
    /// Start of each node's ordered-children run in `child_arena`.
    child_start: [u8; MAX_NODES],
    /// Number of children of each node.
    child_len: [u8; MAX_NODES],
    /// Ordered children of every node, packed back-to-back.
    child_arena: Vec<u8>,
    /// Preorder walk stack.
    stack: Vec<u8>,
    /// Leaf-stripping frontier for tree-centre computation.
    layer: Vec<u8>,
    /// Next leaf-stripping frontier.
    next_layer: Vec<u8>,
    /// The canonical permutation produced by the current rooting.
    perm: [u32; MAX_NODES],
    // -- search path -------------------------------------------------------
    /// Flat refinement-signature buffer (neighbour cell ids, sorted).
    sig_data: Vec<u32>,
    /// Node order under the current signature sort.
    order: [u8; MAX_NODES],
    // -- output ------------------------------------------------------------
    /// Best (lexicographically least) code found so far.
    best: Vec<u64>,
    /// Whether `best` holds a candidate yet.
    best_set: bool,
    /// Encode buffer for the candidate under evaluation.
    candidate: Vec<u64>,
    /// Batch output storage for [`CanonScratch::canonicalize_batch`].
    batch: Vec<CanonicalCode>,
}

impl Default for CanonScratch {
    fn default() -> Self {
        Self::new()
    }
}

impl CanonScratch {
    /// A fresh scratch.  Buffers grow to their steady-state sizes over the
    /// first few calls and are reused forever after.
    pub fn new() -> Self {
        CanonScratch {
            rows: [0; MAX_NODES],
            n: 0,
            m: 0,
            tree: false,
            calls: 0,
            parent: [NO_PARENT; MAX_NODES],
            bfs: [0; MAX_NODES],
            child_start: [0; MAX_NODES],
            child_len: [0; MAX_NODES],
            child_arena: Vec::new(),
            stack: Vec::new(),
            layer: Vec::new(),
            next_layer: Vec::new(),
            perm: [0; MAX_NODES],
            sig_data: Vec::new(),
            order: [0; MAX_NODES],
            best: Vec::new(),
            best_set: false,
            candidate: Vec::new(),
            batch: Vec::new(),
        }
    }

    /// How many times this scratch has run the bitset kernel.  Calls that
    /// dispatched to the oracle (graph too large, or `LD_CANON_FALLBACK`
    /// set) do not count — the 63/64/65-node seam tests pin routing with
    /// this counter.
    pub fn kernel_calls(&self) -> u64 {
        self.calls
    }

    /// Canonical code of a coloured graph — byte-identical to
    /// [`crate::canon::canonical_code`], served from this scratch.
    ///
    /// # Panics
    ///
    /// Panics if `colors.len() != graph.node_count()`.
    pub fn code(&mut self, graph: &Graph, colors: &[u64]) -> CanonicalCode {
        self.form(graph, None, colors)
    }

    /// Centred canonical code — byte-identical to
    /// [`crate::canon::centered_canonical_code`], served from this scratch.
    ///
    /// # Panics
    ///
    /// Panics if `center` is out of range or `colors.len() !=
    /// graph.node_count()`.
    pub fn centered_code(
        &mut self,
        graph: &Graph,
        center: NodeId,
        colors: &[u64],
    ) -> CanonicalCode {
        self.form(graph, Some(center), colors)
    }

    /// Canonicalises many centres of one coloured graph, amortising the
    /// adjacency-row load and tree check across the whole batch.  Entry `i`
    /// of the returned slice is the centred code of `centers[i]`,
    /// byte-identical to [`crate::canon::centered_canonical_code`]; the
    /// slice borrows scratch storage and is valid until the next call.
    ///
    /// # Panics
    ///
    /// Panics if any centre is out of range or `colors.len() !=
    /// graph.node_count()`.
    pub fn canonicalize_batch(
        &mut self,
        graph: &Graph,
        colors: &[u64],
        centers: &[NodeId],
    ) -> &[CanonicalCode] {
        let n = graph.node_count();
        assert_eq!(n, colors.len(), "one colour per node is required");
        self.batch.clear();
        if supports(graph) && !fallback_forced() {
            self.prepare(graph);
            for &c in centers {
                assert!(c.index() < n, "center must be a node of the graph");
                let code = self.form_prepared(Some(c), colors);
                self.batch.push(code);
            }
        } else {
            for &c in centers {
                self.batch.push(canon::oracle_form(graph, Some(c), colors));
            }
        }
        &self.batch
    }

    /// Full dispatch: run the kernel when the graph is in the ≤ 64 regime
    /// and the fallback is not forced, otherwise delegate to the oracle.
    pub(crate) fn form(
        &mut self,
        graph: &Graph,
        center: Option<NodeId>,
        colors: &[u64],
    ) -> CanonicalCode {
        let n = graph.node_count();
        assert_eq!(n, colors.len(), "one colour per node is required");
        if let Some(c) = center {
            assert!(c.index() < n, "center must be a node of the graph");
        }
        if !supports(graph) || fallback_forced() {
            return canon::oracle_form(graph, center, colors);
        }
        self.prepare(graph);
        self.form_prepared(center, colors)
    }

    /// Loads a supported graph into the bitset rows and caches its edge
    /// count and tree-ness (shared by every centre of a batch).
    fn prepare(&mut self, graph: &Graph) {
        let n = graph.node_count();
        debug_assert!(supports(graph), "caller checked the ≤64-node regime");
        self.n = n;
        self.m = graph.edge_count();
        self.rows[..n].fill(0);
        for v in graph.nodes() {
            let mut row = 0u64;
            for u in graph.neighbors(v) {
                row |= 1 << u.index();
            }
            self.rows[v.index()] = row;
        }
        // Tree check without the traversal allocations of
        // `Graph::is_tree`: a non-empty graph (guaranteed by `supports`)
        // is a tree iff it has exactly n − 1 edges and the bitset BFS
        // closure from node 0 reaches every node.
        self.tree = self.m + 1 == n && {
            let full = if n == MAX_NODES { !0 } else { (1u64 << n) - 1 };
            let mut seen = 1u64;
            let mut frontier = 1u64;
            while frontier != 0 {
                let mut next = 0u64;
                let mut w = frontier;
                while w != 0 {
                    let v = w.trailing_zeros() as usize;
                    w &= w - 1;
                    next |= self.rows[v];
                }
                frontier = next & !seen;
                seen |= next;
            }
            seen == full
        };
    }

    /// Runs the kernel on the loaded graph (dispatch already resolved).
    fn form_prepared(&mut self, center: Option<NodeId>, colors: &[u64]) -> CanonicalCode {
        self.calls += 1;
        self.best_set = false;
        let center = center.map(|c| c.index() as u32);
        if self.tree {
            self.tree_code(center, colors);
        } else {
            self.search_code(center, colors);
        }
        debug_assert!(self.best_set, "every kernel run emits at least one leaf");
        CanonicalCode::from_words(self.best.clone())
    }

    /// Keeps the lexicographically least encode seen this run: swaps
    /// `candidate` into `best` when it improves (mirrors the oracle's
    /// `best <= code` test without allocating).
    fn commit_candidate(&mut self) {
        if !self.best_set || self.candidate < self.best {
            std::mem::swap(&mut self.best, &mut self.candidate);
            self.best_set = true;
        }
    }

    // -- tree path (rank-based AHU) ----------------------------------------

    /// Mirror of the oracle's `tree_code`: root at the centre (or at the 1–2
    /// graph centres), canonise each rooting, keep the least encode.
    fn tree_code(&mut self, center: Option<u32>, colors: &[u64]) {
        let mut roots = [0u8; 2];
        let root_count = match center {
            Some(c) => {
                roots[0] = c as u8;
                1
            }
            None => self.tree_centers(&mut roots),
        };
        for &root in roots.iter().take(root_count) {
            self.rooted_tree_perm(root, colors);
            encode_into(
                &mut self.candidate,
                &self.rows,
                self.n,
                self.m,
                center,
                colors,
                &self.perm,
            );
            self.commit_candidate();
        }
    }

    /// The 1 or 2 tree centres by leaf stripping (popcount degrees, bitset
    /// frontiers).  Fills `roots` and returns how many there are.
    fn tree_centers(&mut self, roots: &mut [u8; 2]) -> usize {
        let n = self.n;
        if n == 1 {
            roots[0] = 0;
            return 1;
        }
        // Reuse `perm` as the degree array to avoid a dedicated buffer.
        let mut degree = [0u8; MAX_NODES];
        self.layer.clear();
        for (v, d) in degree.iter_mut().enumerate().take(n) {
            *d = self.rows[v].count_ones() as u8;
            if *d <= 1 {
                self.layer.push(v as u8);
            }
        }
        let mut remaining = n;
        while remaining > 2 {
            remaining -= self.layer.len();
            self.next_layer.clear();
            for i in 0..self.layer.len() {
                let leaf = self.layer[i] as usize;
                degree[leaf] = 0;
                let mut w = self.rows[leaf];
                while w != 0 {
                    let u = w.trailing_zeros() as usize;
                    w &= w - 1;
                    if degree[u] > 0 {
                        degree[u] -= 1;
                        if degree[u] == 1 {
                            self.next_layer.push(u as u8);
                        }
                    }
                }
            }
            std::mem::swap(&mut self.layer, &mut self.next_layer);
        }
        roots[0] = self.layer[0];
        let count = self.layer.len().min(2);
        if count == 2 {
            roots[1] = self.layer[1];
        }
        count
    }

    /// Mirror of the oracle's `rooted_tree_perm` — BFS rooting, AHU
    /// canonisation, preorder positions in child code order — but with the
    /// oracle's packed subtree codes replaced by **order-isomorphic integer
    /// ranks**, which removes the O(n·depth) arena copying entirely.
    ///
    /// Why ranks reproduce the oracle's order exactly: the oracle's subtree
    /// code is `[len, colour, child codes in sorted order]` with
    /// `len = 2·subtree_size`, so codes are *prefix-free* (a code's first
    /// word determines its total length, hence one code can only prefix an
    /// identical one).  For prefix-free components, lexicographic comparison
    /// of concatenations equals lexicographic comparison of the component
    /// tuples.  Comparing two codes therefore resolves as: subtree size
    /// first (the leading `len` word), then colour, then the child codes
    /// pairwise.  Processing size classes in ascending order and assigning
    /// each distinct `(colour, sorted child ranks)` signature the next rank
    /// — children, being strictly smaller, are already ranked — yields
    /// `rank(a) < rank(b) ⟺ code(a) < code(b)` by induction, and equal
    /// signatures share a rank so equal subtrees stay interchangeable.
    /// (Slice-exhaustion ties between distinct parents cannot occur: a
    /// strict prefix of equal child ranks would force the remaining
    /// children to have subtree size 0.)
    ///
    /// Tie order between equal-rank children is free — equal ranks mean
    /// isomorphic coloured subtrees, whose encode contributions are
    /// identical — so every sort may be unstable.
    fn rooted_tree_perm(&mut self, root: u8, colors: &[u64]) {
        let n = self.n;
        let CanonScratch {
            rows,
            parent,
            bfs,
            child_start,
            child_len,
            child_arena,
            stack,
            perm,
            ..
        } = self;

        // BFS rooting: bit scanning visits neighbours in ascending node
        // order, exactly as the oracle's sorted adjacency lists do.
        parent[..n].fill(NO_PARENT);
        let mut seen: u64 = 1 << root;
        bfs[0] = root;
        let mut len = 1usize;
        let mut head = 0usize;
        while head < len {
            let u = bfs[head];
            head += 1;
            let mut w = rows[u as usize] & !seen;
            while w != 0 {
                let v = w.trailing_zeros() as u8;
                w &= w - 1;
                seen |= 1 << v;
                parent[v as usize] = u;
                bfs[len] = v;
                len += 1;
            }
        }
        debug_assert_eq!(len, n, "tree is connected");

        // Subtree sizes, bottom-up over the BFS order.
        let mut size = [1u8; MAX_NODES];
        for i in (1..len).rev() {
            let v = bfs[i] as usize;
            size[parent[v] as usize] += size[v];
        }

        // Children of every node, packed back-to-back (ascending by id for
        // now; each run is re-sorted by rank once its children are ranked).
        child_arena.clear();
        for v in 0..n {
            child_start[v] = child_arena.len() as u8;
            let mut count = 0u8;
            let mut w = rows[v];
            while w != 0 {
                let u = w.trailing_zeros() as u8;
                w &= w - 1;
                if parent[u as usize] == v as u8 {
                    child_arena.push(u);
                    count += 1;
                }
            }
            child_len[v] = count;
        }

        // Rank assignment: counting-sort nodes into ascending subtree-size
        // classes, then order each class by (colour, child ranks).
        let mut rank = [0u32; MAX_NODES];
        let mut class_start = [0u8; MAX_NODES + 1];
        for v in 0..n {
            class_start[size[v] as usize] += 1;
        }
        let mut acc = 0u8;
        for slot in class_start.iter_mut().take(n + 1).skip(1) {
            let count = *slot;
            *slot = acc;
            acc += count;
        }
        let mut class_end = class_start;
        let mut by_size = [0u8; MAX_NODES];
        for (v, &s) in size.iter().enumerate().take(n) {
            let s = s as usize;
            by_size[class_end[s] as usize] = v as u8;
            class_end[s] += 1;
        }
        let mut next_rank = 0u32;
        let mut new_group = [false; MAX_NODES];
        for s in 1..=n {
            let lo = class_start[s] as usize;
            let hi = class_end[s] as usize;
            if lo == hi {
                continue;
            }
            // Children first: sort each member's child run by rank, so the
            // preorder walk below visits smallest-code subtrees first.
            for &member in by_size.iter().take(hi).skip(lo) {
                let v = member as usize;
                let cs = child_start[v] as usize;
                let ce = cs + child_len[v] as usize;
                child_arena[cs..ce].sort_unstable_by_key(|&c| rank[c as usize]);
            }
            let ord = |a: u8, b: u8| {
                let key = |v: u8| {
                    let v = v as usize;
                    let cs = child_start[v] as usize;
                    (colors[v], &child_arena[cs..cs + child_len[v] as usize])
                };
                let (color_a, kids_a) = key(a);
                let (color_b, kids_b) = key(b);
                color_a.cmp(&color_b).then_with(|| {
                    kids_a
                        .iter()
                        .map(|&c| rank[c as usize])
                        .cmp(kids_b.iter().map(|&c| rank[c as usize]))
                })
            };
            by_size[lo..hi].sort_unstable_by(|&a, &b| ord(a, b));
            for i in lo + 1..hi {
                new_group[i] = ord(by_size[i - 1], by_size[i]).is_ne();
            }
            for i in lo..hi {
                if new_group[i] {
                    next_rank += 1;
                }
                rank[by_size[i] as usize] = next_rank;
                new_group[i] = false;
            }
            next_rank += 1;
        }

        // Preorder walk in canonical (rank-ascending) child order.
        stack.clear();
        stack.push(root);
        let mut next = 0u32;
        while let Some(v) = stack.pop() {
            perm[v as usize] = next;
            next += 1;
            let s = child_start[v as usize] as usize;
            let l = child_len[v as usize] as usize;
            // Reverse push so the smallest-code child is visited first.
            for j in (s..s + l).rev() {
                stack.push(child_arena[j]);
            }
        }
    }

    // -- search path (refinement + branch-and-bound over arrays) -----------

    /// Mirror of the oracle's `search_code`: initial `(centre, colour)`
    /// partition, then refinement with individualisation branching.
    fn search_code(&mut self, center: Option<u32>, colors: &[u64]) {
        let n = self.n;
        // The keys include the node id, so they are unique and an unstable
        // sort is deterministic.
        let mut keyed = [(0u64, 0u64, 0u8); MAX_NODES];
        for v in 0..n {
            let centered = u64::from(center == Some(v as u32));
            keyed[v] = (centered, colors[v], v as u8);
        }
        keyed[..n].sort_unstable();
        let mut cells = [0u32; MAX_NODES];
        let mut rank = 0u32;
        for i in 0..n {
            if i > 0 && (keyed[i].0, keyed[i].1) != (keyed[i - 1].0, keyed[i - 1].1) {
                rank += 1;
            }
            cells[keyed[i].2 as usize] = rank;
        }
        self.refine_and_branch(center, colors, cells);
    }

    /// Mirror of the oracle's `refine_and_branch`, with the partition in a
    /// fixed array (branching copies 256 bytes, no allocation) and the
    /// target cell handled as a bit mask.
    fn refine_and_branch(&mut self, center: Option<u32>, colors: &[u64], mut cells: [u32; 64]) {
        let n = self.n;
        self.refine(&mut cells);
        let mut cell_count = 0usize;
        for &c in &cells[..n] {
            cell_count = cell_count.max(c as usize + 1);
        }
        if cell_count == n {
            // Discrete: the partition is the canonical labelling candidate.
            encode_into(
                &mut self.candidate,
                &self.rows,
                n,
                self.m,
                center,
                colors,
                &cells,
            );
            self.commit_candidate();
            return;
        }

        // First smallest non-singleton cell (strict `<` keeps the first of
        // equal sizes, matching the oracle's `min_by_key((size, id))`).
        let mut sizes = [0u32; MAX_NODES];
        for &c in &cells[..n] {
            sizes[c as usize] += 1;
        }
        let mut target = usize::MAX;
        let mut target_size = u32::MAX;
        for (c, &size) in sizes[..cell_count].iter().enumerate() {
            if size > 1 && size < target_size {
                target = c;
                target_size = size;
            }
        }
        let mut members: u64 = 0;
        for (v, &c) in cells.iter().enumerate().take(n) {
            if c as usize == target {
                members |= 1 << v;
            }
        }
        let branch_once = interchangeable(&self.rows, members);
        let fresh = cell_count as u32;
        let mut w = members;
        while w != 0 {
            let v = w.trailing_zeros() as usize;
            w &= w - 1;
            let mut next = cells;
            next[v] = fresh;
            self.refine_and_branch(center, colors, next);
            if branch_once {
                break;
            }
        }
    }

    /// Rank-identical mirror of the oracle's `refine`: split cells by the
    /// sorted multiset of neighbouring cell ids until stable.
    ///
    /// The oracle sorts all `n` nodes by `(cells[v], signature)` and
    /// numbers the groups `0, 1, …` in that order.  Because `cells[v]` is
    /// the leading key, that order is exactly: cells in ascending id, and
    /// within each cell its members ordered (and split) by signature — so
    /// this version processes cells independently via one counting-sort
    /// bucket pass.  A node in a *singleton* cell can never tie or swap
    /// with any other node (its leading key is unique), so its signature
    /// is not materialised at all; in the deep branches of the search,
    /// where most cells are already discrete, a round costs only the few
    /// non-singleton cells instead of all `n` nodes.  Within a cell the
    /// sort is unstable, which is rank-safe: ranks depend only on
    /// signature equivalence classes, never on which tied node comes
    /// first.
    fn refine(&mut self, cells: &mut [u32; 64]) {
        let n = self.n;
        let CanonScratch {
            rows,
            sig_data,
            order,
            ..
        } = self;
        let mut cell_count = 0usize;
        for &c in &cells[..n] {
            cell_count = cell_count.max(c as usize + 1);
        }
        loop {
            // Bucket nodes by cell id: after this, `order` holds cell 0's
            // members, then cell 1's, …, each run ascending by node id.
            let mut starts = [0u8; MAX_NODES + 1];
            for &c in &cells[..n] {
                starts[c as usize + 1] += 1;
            }
            for c in 0..cell_count {
                starts[c + 1] += starts[c];
            }
            let mut pos = starts;
            for (v, &c) in cells.iter().enumerate().take(n) {
                let c = c as usize;
                order[pos[c] as usize] = v as u8;
                pos[c] += 1;
            }

            sig_data.clear();
            let mut sig_off = [0u32; MAX_NODES];
            let mut sig_len = [0u8; MAX_NODES];
            let mut next = [0u32; MAX_NODES];
            let mut rank = 0u32;
            for c in 0..cell_count {
                let lo = starts[c] as usize;
                let hi = starts[c + 1] as usize;
                if hi - lo == 1 {
                    next[order[lo] as usize] = rank;
                    rank += 1;
                    continue;
                }
                for &member in order.iter().take(hi).skip(lo) {
                    let v = member as usize;
                    let from = sig_data.len();
                    let mut w = rows[v];
                    while w != 0 {
                        let u = w.trailing_zeros() as usize;
                        w &= w - 1;
                        sig_data.push(cells[u]);
                    }
                    sig_data[from..].sort_unstable();
                    sig_off[v] = from as u32;
                    sig_len[v] = (sig_data.len() - from) as u8;
                }
                let sig = |v: u8| {
                    let v = v as usize;
                    let s = sig_off[v] as usize;
                    &sig_data[s..s + sig_len[v] as usize]
                };
                order[lo..hi].sort_unstable_by(|&a, &b| sig(a).cmp(sig(b)));
                next[order[lo] as usize] = rank;
                for i in lo + 1..hi {
                    if sig(order[i]) != sig(order[i - 1]) {
                        rank += 1;
                    }
                    next[order[i] as usize] = rank;
                }
                rank += 1;
            }
            cells[..n].copy_from_slice(&next[..n]);
            let next_count = rank as usize;
            if next_count == cell_count || next_count == n {
                return;
            }
            cell_count = next_count;
        }
    }
}

/// `true` when every pair of member nodes is swapped by an automorphism:
/// the induced subgraph on the member mask is complete or empty, and all
/// members share one neighbourhood outside the mask.  Word-op mirror of the
/// oracle's `interchangeable` (a row masked by `!members` *is* the outside
/// neighbour set; popcount against `members` is the inside degree).
fn interchangeable(rows: &[u64; 64], members: u64) -> bool {
    let first = members.trailing_zeros() as usize;
    let member_count = members.count_ones();
    let first_inside = (rows[first] & members).count_ones();
    if first_inside != 0 && first_inside != member_count - 1 {
        return false;
    }
    let first_outside = rows[first] & !members;
    let mut w = members & (members - 1);
    while w != 0 {
        let v = w.trailing_zeros() as usize;
        w &= w - 1;
        if (rows[v] & members).count_ones() != first_inside || rows[v] & !members != first_outside {
            return false;
        }
    }
    true
}

/// Mirror of the oracle's `encode`, writing into a reusable buffer: the
/// `[n, m, centre]` header, colours in canonical order, then the edge words
/// `a·n + b` (a < b, canonical numbering) sorted in place at the buffer
/// tail — no intermediate edge vector.
fn encode_into(
    out: &mut Vec<u64>,
    rows: &[u64; 64],
    n: usize,
    m: usize,
    center: Option<u32>,
    colors: &[u64],
    perm: &[u32; 64],
) {
    out.clear();
    out.reserve(3 + n + m);
    out.push(n as u64);
    out.push(m as u64);
    out.push(center.map_or(canon::NO_CENTER, |c| u64::from(perm[c as usize])));
    out.resize(3 + n, 0);
    for (old, &color) in colors.iter().enumerate() {
        out[3 + perm[old] as usize] = color;
    }
    for u in 0..n {
        // Bits above `u`: each edge once, as the oracle's edge iterator.
        let mut w = if u + 1 < MAX_NODES {
            rows[u] & (!0u64 << (u + 1))
        } else {
            0
        };
        while w != 0 {
            let v = w.trailing_zeros() as usize;
            w &= w - 1;
            let a = perm[u].min(perm[v]);
            let b = perm[u].max(perm[v]);
            out.push(u64::from(a) * n as u64 + u64::from(b));
        }
    }
    out[3 + n..].sort_unstable();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canon::{canonical_code_oracle, centered_canonical_code_oracle};
    use crate::generators;

    fn uniform(n: usize) -> Vec<u64> {
        vec![0; n]
    }

    fn varied(n: usize) -> Vec<u64> {
        (0..n as u64).map(|i| i % 3).collect()
    }

    #[test]
    fn parse_fallback_accepts_only_meaningful_values() {
        assert!(!parse_fallback(None));
        assert!(!parse_fallback(Some("")));
        assert!(!parse_fallback(Some("0")));
        assert!(parse_fallback(Some("1")));
        assert!(parse_fallback(Some("true")));
        assert!(parse_fallback(Some("yes")));
    }

    #[test]
    fn supports_is_the_64_node_boundary() {
        assert!(!supports(&Graph::new()));
        assert!(supports(&generators::path(1)));
        assert!(supports(&generators::path(63)));
        assert!(supports(&generators::path(64)));
        assert!(!supports(&generators::path(65)));
    }

    #[test]
    fn kernel_matches_oracle_on_structured_families() {
        let mut scratch = CanonScratch::new();
        let graphs = [
            generators::path(1),
            generators::path(9),
            generators::cycle(5),
            generators::cycle(64),
            generators::star(7),
            generators::grid(3, 4),
            generators::grid(8, 8),
            generators::complete(6),
            generators::complete_binary_tree(4),
            generators::torus(4, 4).unwrap(),
        ];
        for g in &graphs {
            let n = g.node_count();
            for colors in [uniform(n), varied(n)] {
                assert_eq!(
                    scratch.form(g, None, &colors).as_slice(),
                    canonical_code_oracle(g, &colors).as_slice(),
                    "uncentred mismatch on {n}-node graph"
                );
                for c in [0, n / 2, n - 1] {
                    let c = NodeId::from(c);
                    assert_eq!(
                        scratch.form(g, Some(c), &colors).as_slice(),
                        centered_canonical_code_oracle(g, c, &colors).as_slice(),
                        "centred mismatch on {n}-node graph at {c:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn kernel_matches_oracle_on_disconnected_graphs() {
        let mut scratch = CanonScratch::new();
        let (g, _) = generators::cycle(5).disjoint_union(&generators::path(4));
        let (h, _) = generators::cycle(3).disjoint_union(&generators::cycle(3));
        for g in [&g, &h, &Graph::with_nodes(2)] {
            let n = g.node_count();
            assert_eq!(
                scratch.form(g, None, &varied(n)).as_slice(),
                canonical_code_oracle(g, &varied(n)).as_slice()
            );
        }
    }

    #[test]
    fn batch_codes_equal_per_call_codes() {
        let mut scratch = CanonScratch::new();
        let g = generators::grid(5, 5);
        let colors = varied(g.node_count());
        let centers: Vec<NodeId> = g.nodes().collect();
        let batch: Vec<CanonicalCode> = scratch.canonicalize_batch(&g, &colors, &centers).to_vec();
        assert_eq!(batch.len(), centers.len());
        for (i, &c) in centers.iter().enumerate() {
            assert_eq!(
                batch[i].as_slice(),
                centered_canonical_code_oracle(&g, c, &colors).as_slice()
            );
        }
    }

    #[test]
    fn seam_63_64_routes_to_the_kernel_and_65_falls_back() {
        if fallback_forced() {
            // Under LD_CANON_FALLBACK the routing assertions are moot; code
            // equality is covered by the byte-diffed CI smoke instead.
            return;
        }
        let mut scratch = CanonScratch::new();
        for n in [63usize, 64] {
            let g = generators::path(n);
            let before = scratch.kernel_calls();
            let code = scratch.centered_code(&g, NodeId(0), &uniform(n));
            assert_eq!(
                scratch.kernel_calls(),
                before + 1,
                "{n} nodes must route to the kernel"
            );
            assert_eq!(
                code.as_slice(),
                centered_canonical_code_oracle(&g, NodeId(0), &uniform(n)).as_slice()
            );
        }
        let g = generators::path(65);
        let before = scratch.kernel_calls();
        let code = scratch.centered_code(&g, NodeId(0), &uniform(65));
        assert_eq!(scratch.kernel_calls(), before, "65 nodes must fall back");
        assert_eq!(
            code.as_slice(),
            centered_canonical_code_oracle(&g, NodeId(0), &uniform(65)).as_slice()
        );
    }

    #[test]
    fn codes_are_identical_across_the_seam_for_isomorphic_inputs() {
        // A 64-node graph and its relabelling canonicalise identically no
        // matter which side computes which: kernel(g) == oracle(relabel(g)).
        let mut scratch = CanonScratch::new();
        for n in [63usize, 64] {
            let g = generators::cycle(n);
            let perm: Vec<usize> = (0..n).rev().collect();
            let h = g.relabel(&perm).unwrap();
            assert_eq!(
                scratch.form(&g, None, &uniform(n)).as_slice(),
                canonical_code_oracle(&h, &uniform(n)).as_slice()
            );
        }
    }

    #[test]
    fn repeated_calls_reuse_buffers() {
        // Not a real allocation counter (no global allocator hooks in this
        // workspace), but the arena capacities must reach a fixed point.
        let mut scratch = CanonScratch::new();
        let g = generators::grid(6, 6);
        let colors = uniform(36);
        for _ in 0..3 {
            scratch.form(&g, Some(NodeId(7)), &colors);
        }
        let best = scratch.best.capacity();
        let sig = scratch.sig_data.capacity();
        for _ in 0..16 {
            scratch.form(&g, Some(NodeId(7)), &colors);
        }
        assert_eq!(scratch.best.capacity(), best);
        assert_eq!(scratch.sig_data.capacity(), sig);
    }
}
