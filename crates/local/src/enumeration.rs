//! Enumeration of local views up to isomorphism.
//!
//! Indistinguishability arguments ("every `t`-neighbourhood of the
//! no-instance already occurs in some yes-instance") become *executable* once
//! we can enumerate the distinct views of a graph.  This module collects
//! views and deduplicates them up to centred label-preserving isomorphism.
//!
//! Deduplication is driven by [`ObliviousView::canonical_code`], a **total**
//! invariant: two views share a code iff they are indistinguishable.  Both
//! dedup and coverage are therefore plain hash-set operations — no pairwise
//! isomorphism tests.  Because extracted balls are numbered deterministically
//! (by `(distance, original id)`), structurally identical views of a swept
//! family are usually *exactly* equal as values, so an exact-equality prepass
//! collapses most of the input before any canonicalisation runs at all.
//!
//! That prepass is allocation-free per centre.  Each enumeration hashes
//! every node's label once into a word table (not once per ball the node
//! appears in), fingerprints each ball into one reused key buffer
//! ([`BallExtractor::exact_key_within`] writes into a caller-owned
//! `Vec<u64>`), probes the seen-set with `key.as_slice()`, and clones the
//! key only for a layout it has not seen — a handful per graph in the
//! self-similar sweeps, against one probe per centre.
//!
//! Most centres of a swept family need no search at all.  Call node `x`
//! **shift-equal** when `x + 1` is a node with `x`'s label word (labels
//! enter the exact key only as words, so equal labels always qualify) and
//! `x + 1`'s neighbour row is `x`'s row with every entry plus one.
//! `runs[x]` counts the consecutive shift-equal nodes starting at `x` (one
//! backward `O(n + m)` pass).
//!
//! *Shift certificate.* Let `K` be the least `runs[u]` over the members `u`
//! of `B(v, t)`.  Then for every `j ≤ K` the map `u ↦ u + j` carries
//! `B(v, t)` onto `B(v + j, t)`.  Each member is `j` shift-equal steps from
//! its image, so its row shifts by `j`; by induction on BFS layers, layer
//! `d + 1` of `v + j` is layer `d + 1` of `v` plus `j`.  The shift is
//! monotone, so the `(distance, original id)` order inside each layer, and
//! with it the ball-local numbering, the induced edges and the label words,
//! all carry over: `B(v + j, t)` has `v`'s exact key and size.
//!
//! *Budget argument.* The enumeration searches `v`, then skips the next
//! `K` centres.  Each is charged the searched ball's size and exhausts
//! exactly when that size exceeds the remaining node cap, which is the
//! verdict its own bounded BFS would reach.  Its layout is already seen,
//! so it touches neither the view cap nor the first-occurrence order.  A
//! cycle or path needs `2t + 3` searches instead of `n`; a grid row skips
//! every column more than `t` from the side columns.  Uncertified centres
//! take the per-centre search unchanged.
//!
//! The seed pipeline — bucket by the Weisfeiler–Leman `canonical_key`, then
//! confirm by backtracking isomorphism — is retained as
//! [`distinct_oblivious_views_pairwise`], the differential-test oracle for
//! the canonical-code engine (and the honest baseline in the benchmarks).
//!
//! Radius-3 workloads additionally get **work budgets**
//! ([`EnumerationBudget`]) — deterministic node/view caps whose exhaustion
//! is an explicit outcome ([`BudgetUsage`]), not a wall-time surprise — and
//! an **incremental multi-radius profile**
//! ([`distinct_views_by_radius_cached`]) that extends each node's BFS from
//! radius to radius instead of re-running it.

use crate::cache::ViewCache;
use crate::hashing::{FxBuildHasher, FxHashMap, FxHashSet};
use crate::view::ObliviousView;
use ld_graph::canon::CanonicalCode;
use ld_graph::{BallExtractor, CanonScratch, Graph, LabeledGraph, NodeId};
use std::hash::{BuildHasher, Hash};
use std::sync::Arc;

/// A work budget for view enumeration: caps on the total number of ball
/// nodes visited and on the number of distinct views materialised.
///
/// Radius-3 balls are where naive enumeration blows up combinatorially — a
/// single dense centre can dominate a whole sweep cell.  Budgets make that
/// failure mode an explicit, deterministic *outcome* ([`BudgetUsage`] with
/// `exhausted = true`) instead of a wall-time surprise: enumeration stops
/// the moment either cap would be crossed, at a point that depends only on
/// the input graph and the budget, never on timing or thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnumerationBudget {
    /// Total ball-node visits allowed across the enumeration (each ball
    /// charges its node count at every radius it is fingerprinted at).
    pub max_nodes: u64,
    /// Distinct views the enumeration may materialise before stopping.
    pub max_views: u64,
}

impl EnumerationBudget {
    /// No caps: enumeration always runs to completion.
    pub const UNLIMITED: EnumerationBudget = EnumerationBudget {
        max_nodes: u64::MAX,
        max_views: u64::MAX,
    };

    /// A budget with the given node cap and no view cap.
    pub fn nodes(max_nodes: u64) -> Self {
        EnumerationBudget {
            max_nodes,
            ..Self::UNLIMITED
        }
    }

    /// A budget with the given view cap and no node cap.
    pub fn views(max_views: u64) -> Self {
        EnumerationBudget {
            max_views,
            ..Self::UNLIMITED
        }
    }

    /// What is left of this budget after `spent` — the budget to hand the
    /// next enumeration when one logical cell runs several (saturating at
    /// zero, so an overdrawn budget exhausts immediately).
    #[must_use]
    pub fn after(&self, spent: &BudgetUsage) -> Self {
        EnumerationBudget {
            max_nodes: self.max_nodes.saturating_sub(spent.nodes_visited),
            max_views: self.max_views.saturating_sub(spent.views_materialized),
        }
    }

    /// A generous deterministic default budget for a sweep cell over
    /// instances of at most `max_n` nodes at view radius `radius` — the
    /// safety net the large-N ("XL") scenarios run every cell under when no
    /// explicit budget was configured.
    ///
    /// The node allowance is `max_n` balls of at most `(2·radius + 1)²`
    /// nodes each (the radius-`radius` ball bound in every grid-or-sparser
    /// family the paper sweeps), charged across up to `8·(radius + 1)`
    /// enumeration passes (multi-instance coverage cells, incremental
    /// profiles and their differential re-checks); the view allowance is 16
    /// distinct views per node.  Both are an order of magnitude above what
    /// the swept families actually spend, so exhaustion under this budget
    /// means a cell is genuinely pathological — it stops deterministically
    /// instead of stalling the shard.
    pub fn scaled(max_n: usize, radius: usize) -> Self {
        let ball = ((2 * radius + 1) * (2 * radius + 1)) as u64;
        let passes = 8 * (radius as u64 + 1);
        EnumerationBudget {
            max_nodes: (max_n as u64)
                .saturating_mul(ball)
                .saturating_mul(passes)
                .max(1 << 16),
            max_views: (max_n as u64).saturating_mul(16).max(1 << 12),
        }
    }
}

impl Default for EnumerationBudget {
    fn default() -> Self {
        Self::UNLIMITED
    }
}

/// What a budgeted enumeration spent, and whether it ran out.
///
/// `exhausted = true` means the returned views are a *prefix* of the full
/// answer (complete for every node processed before the cap); the partial
/// result is still deterministic for a fixed input and budget.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BudgetUsage {
    /// Ball nodes visited (summed over every fingerprinted ball).  A centre
    /// is charged its ball size whether its ball is searched or certified
    /// equal to an earlier centre's by a shift (see the module docs), so the
    /// count does not depend on which centres were searched.
    pub nodes_visited: u64,
    /// Distinct views materialised.
    pub views_materialized: u64,
    /// `true` when a cap stopped the enumeration before completion.
    pub exhausted: bool,
}

impl BudgetUsage {
    /// Accumulates another enumeration's spend into this one (counters add;
    /// exhaustion is sticky).
    pub fn absorb(&mut self, other: &BudgetUsage) {
        self.nodes_visited += other.nodes_visited;
        self.views_materialized += other.views_materialized;
        self.exhausted |= other.exhausted;
    }
}

/// Collects the Id-oblivious radius-`radius` view of every node of a
/// labelled graph (identifiers are irrelevant, so none are needed).
pub fn collect_oblivious_views<L: Clone>(
    labeled: &LabeledGraph<L>,
    radius: usize,
) -> Vec<ObliviousView<L>> {
    let mut extractor = BallExtractor::new();
    labeled
        .graph()
        .nodes()
        .map(|v| {
            let ball = extractor
                .extract(labeled.graph(), v, radius)
                // ld-analyze: allow(D004, reason = "invariant: v iterates over this graph's own nodes")
                .expect("node comes from the graph itself");
            let labels = ball
                .mapping()
                .iter()
                .map(|&orig| labeled.label(orig).clone())
                .collect();
            ObliviousView::from_ball(ball, labels)
        })
        .collect()
}

/// Deduplicates oblivious views up to centred, label-preserving isomorphism:
/// the first occurrence of each canonical code is kept, in input order.
pub fn distinct_oblivious_views<L: Clone + Eq + Hash>(
    views: Vec<ObliviousView<L>>,
) -> Vec<ObliviousView<L>> {
    // Exact-equality prepass: balls are numbered deterministically, so
    // repeated views of a self-similar family are usually equal as values
    // and never need canonicalising more than once.  One kernel scratch
    // serves every canonicalisation of the batch.
    let mut scratch = CanonScratch::new();
    let mut exact_seen: FxHashSet<ObliviousView<L>> = FxHashSet::default();
    let mut codes: FxHashSet<CanonicalCode> = FxHashSet::default();
    let mut result = Vec::new();
    for view in views {
        if exact_seen.contains(&view) {
            continue;
        }
        if codes.insert(view.canonical_code_in(&mut scratch)) {
            result.push(view.clone());
        }
        exact_seen.insert(view);
    }
    result
}

/// Convenience: the distinct oblivious views of a labelled graph.
///
/// Equivalent to `distinct_oblivious_views(collect_oblivious_views(..))`
/// but cheaper: each node's ball is first fingerprinted in place via
/// [`BallExtractor::exact_key_within`], so the view (graph, labels, distances) is
/// only materialised for the first node of each exact ball layout —
/// self-similar families collapse before any allocation happens.
pub fn distinct_oblivious_views_of<L: Clone + Eq + Hash>(
    labeled: &LabeledGraph<L>,
    radius: usize,
) -> Vec<ObliviousView<L>> {
    distinct_oblivious_views_of_budgeted(labeled, radius, EnumerationBudget::UNLIMITED).0
}

/// The 64-bit Fx hash of every node's label, indexed by node: the
/// `label_word`s every exact-key fingerprint in this module uses, computed
/// once per graph instead of once per ball a node appears in.
fn label_words<L: Hash>(labeled: &LabeledGraph<L>) -> Vec<u64> {
    let build = FxBuildHasher::default();
    labeled
        .labels()
        .iter()
        .map(|label| build.hash_one(label))
        .collect()
}

/// `runs[x]`: the number of consecutive shift-equal nodes starting at `x`,
/// where `x` is shift-equal when `x + 1` is a node with `x`'s label word
/// whose neighbour row is `x`'s row with every entry plus one (the shift
/// certificate of the module docs).  One backward pass, `O(n + m)`.
fn shift_runs(graph: &Graph, words: &[u64]) -> Vec<usize> {
    let n = graph.node_count();
    let row = |x: usize| graph.neighbors(NodeId::from(x));
    let mut runs = vec![0; n];
    for x in (0..n.saturating_sub(1)).rev() {
        let (here, next) = (row(x), row(x + 1));
        let shift_equal = words[x] == words[x + 1]
            && here.len() == next.len()
            && here.zip(next).all(|(p, q)| q.index() == p.index() + 1);
        if shift_equal {
            runs[x] = runs[x + 1] + 1;
        }
    }
    runs
}

/// Budgeted body shared by every `distinct_oblivious_views_of*` variant.
/// With [`EnumerationBudget::UNLIMITED`] it is exactly the unbudgeted
/// pipeline; otherwise it stops — deterministically — the moment a ball
/// would cross the node cap or a new layout would cross the view cap.
/// Centres covered by a shift certificate (module docs) are charged
/// without a search.
fn distinct_of_budgeted_impl<L: Clone + Eq + Hash>(
    labeled: &LabeledGraph<L>,
    radius: usize,
    budget: EnumerationBudget,
    mut code_of: impl FnMut(&ObliviousView<L>, &mut CanonScratch) -> Arc<CanonicalCode>,
) -> (Vec<ObliviousView<L>>, BudgetUsage) {
    let graph = labeled.graph();
    let words = label_words(labeled);
    let mut extractor = BallExtractor::new();
    let mut scratch = CanonScratch::new();
    let mut key = Vec::new();
    let mut exact_seen: FxHashSet<Vec<u64>> = FxHashSet::default();
    let mut codes: FxHashSet<Arc<CanonicalCode>> = FxHashSet::default();
    let mut result = Vec::new();
    let mut usage = BudgetUsage::default();
    let runs = shift_runs(graph, &words);
    // Centres the last searched ball still certifies, and that ball's size.
    let mut certified = 0;
    let mut ball_size = 0;
    for v in graph.nodes() {
        let remaining = budget.max_nodes.saturating_sub(usage.nodes_visited);
        if remaining == 0 {
            usage.exhausted = true;
            break;
        }
        if certified > 0 {
            // A translate of the searched centre: same size, and its exact
            // key is already in `exact_seen`.
            certified -= 1;
            if ball_size > remaining {
                usage.exhausted = true;
                break;
            }
            usage.nodes_visited += ball_size;
            continue;
        }
        let cap = usize::try_from(remaining).unwrap_or(usize::MAX);
        let fits = extractor
            .exact_key_within(graph, v, radius, cap, &mut key, |u| words[u.index()])
            // ld-analyze: allow(D004, reason = "invariant: v iterates over this graph's own nodes")
            .expect("node comes from the graph itself");
        if !fits {
            usage.exhausted = true;
            break;
        }
        ball_size = extractor.current_node_count() as u64;
        certified = extractor
            .current_members()
            .iter()
            .map(|u| runs[u.index()])
            .min()
            .unwrap_or(0);
        usage.nodes_visited += ball_size;
        if exact_seen.contains(key.as_slice()) {
            continue;
        }
        if usage.views_materialized >= budget.max_views {
            usage.exhausted = true;
            break;
        }
        exact_seen.insert(key.clone());
        // New layout: materialise the ball from the BFS scratch the
        // fingerprint just populated — no second traversal.
        let ball = extractor.materialize_current(graph);
        let labels = ball
            .mapping()
            .iter()
            .map(|&orig| labeled.label(orig).clone())
            .collect();
        let view = ObliviousView::from_ball(ball, labels);
        usage.views_materialized += 1;
        if codes.insert(code_of(&view, &mut scratch)) {
            result.push(view);
        }
    }
    (result, usage)
}

/// Budget-aware [`distinct_oblivious_views_of`]: enumeration stops — with
/// `exhausted = true` in the returned [`BudgetUsage`] — the moment a ball
/// would cross the budget's node cap or a new layout would cross its view
/// cap.  The stop point is a pure function of the input and the budget, so
/// capped enumerations are as reproducible as complete ones; the returned
/// views are the complete answer for every node processed before the cap.
pub fn distinct_oblivious_views_of_budgeted<L: Clone + Eq + Hash>(
    labeled: &LabeledGraph<L>,
    radius: usize,
    budget: EnumerationBudget,
) -> (Vec<ObliviousView<L>>, BudgetUsage) {
    distinct_of_budgeted_impl(labeled, radius, budget, |view, scratch| {
        Arc::new(view.canonical_code_in(scratch))
    })
}

/// [`distinct_oblivious_views_of_budgeted`], with canonical codes served
/// from a shared [`ViewCache`].
pub fn distinct_oblivious_views_of_budgeted_cached<L: Clone + Eq + Hash + Send + Sync>(
    labeled: &LabeledGraph<L>,
    radius: usize,
    cache: &ViewCache<L>,
    budget: EnumerationBudget,
) -> (Vec<ObliviousView<L>>, BudgetUsage) {
    distinct_of_budgeted_impl(labeled, radius, budget, |view, scratch| {
        cache.canonical_code_in(view, scratch)
    })
}

/// The distinct oblivious views of a labelled graph at **every** radius
/// `0..=max_radius`, in one incremental pass: each node's BFS is run once
/// and *extended* from radius to radius ([`BallExtractor::extend_current`]),
/// so the radius-3 profile costs one radius-3 extraction per node instead
/// of four overlapping ones.  Entry `r` of the returned vector holds the
/// distinct views at radius `r`.
///
/// The budget is shared across all radii (each ball charges its node count
/// at every radius it is fingerprinted at); on exhaustion the per-radius
/// results already gathered are returned with `exhausted = true`.
pub fn distinct_views_by_radius_cached<L: Clone + Eq + Hash + Send + Sync>(
    labeled: &LabeledGraph<L>,
    max_radius: usize,
    cache: &ViewCache<L>,
    budget: EnumerationBudget,
) -> (Vec<Vec<ObliviousView<L>>>, BudgetUsage) {
    let graph = labeled.graph();
    let words = label_words(labeled);
    let mut extractor = BallExtractor::new();
    let mut scratch = CanonScratch::new();
    let mut key = Vec::new();
    let mut exact_seen: Vec<FxHashSet<Vec<u64>>> = vec![FxHashSet::default(); max_radius + 1];
    let mut codes: Vec<FxHashSet<Arc<CanonicalCode>>> = vec![FxHashSet::default(); max_radius + 1];
    let mut results: Vec<Vec<ObliviousView<L>>> = vec![Vec::new(); max_radius + 1];
    let mut usage = BudgetUsage::default();
    'nodes: for v in graph.nodes() {
        for radius in 0..=max_radius {
            let remaining = budget.max_nodes.saturating_sub(usage.nodes_visited);
            if remaining == 0 {
                usage.exhausted = true;
                break 'nodes;
            }
            let cap = usize::try_from(remaining).unwrap_or(usize::MAX);
            let fits = if radius == 0 {
                extractor
                    .exact_key_within(graph, v, 0, cap, &mut key, |u| words[u.index()])
                    // ld-analyze: allow(D004, reason = "invariant: v iterates over this graph's own nodes")
                    .expect("node comes from the graph itself")
            } else {
                let fits = extractor.extend_current_within(graph, radius, cap);
                if fits {
                    extractor.current_exact_key(graph, &mut key, |u| words[u.index()]);
                }
                fits
            };
            if !fits {
                usage.exhausted = true;
                break 'nodes;
            }
            usage.nodes_visited += extractor.current_node_count() as u64;
            if exact_seen[radius].contains(key.as_slice()) {
                // Seen layout at this radius — but keep extending: the same
                // centre can still contribute new views at larger radii.
                continue;
            }
            if usage.views_materialized >= budget.max_views {
                usage.exhausted = true;
                break 'nodes;
            }
            exact_seen[radius].insert(key.clone());
            let ball = extractor.materialize_current(graph);
            let labels = ball
                .mapping()
                .iter()
                .map(|&orig| labeled.label(orig).clone())
                .collect();
            let view = ObliviousView::from_ball(ball, labels);
            usage.views_materialized += 1;
            if codes[radius].insert(cache.canonical_code_in(&view, &mut scratch)) {
                results[radius].push(view);
            }
        }
    }
    (results, usage)
}

/// The seed deduplication pipeline — Weisfeiler–Leman bucketing followed by
/// pairwise backtracking isomorphism — retained verbatim as the
/// differential-test oracle for the canonical-code engine.
pub fn distinct_oblivious_views_pairwise<L: Clone + Eq + Hash>(
    views: Vec<ObliviousView<L>>,
) -> Vec<ObliviousView<L>> {
    let mut buckets: FxHashMap<u64, Vec<ObliviousView<L>>> = FxHashMap::default();
    let mut result = Vec::new();
    for view in views {
        let key = view.canonical_key();
        let bucket = buckets.entry(key).or_default();
        if bucket
            .iter()
            .all(|seen| !seen.indistinguishable_from(&view))
        {
            bucket.push(view.clone());
            result.push(view);
        }
    }
    result
}

/// The coverage of `targets` by `family`: the fraction of views in `targets`
/// that occur (up to isomorphism) in `family`.  Experiment E2 reports this
/// number for the interior views of `T_r` against the views of the
/// yes-instances `H_r`: the paper's indistinguishability argument corresponds
/// to coverage 1.0.
pub fn coverage<L: Clone + Eq + Hash>(
    targets: &[ObliviousView<L>],
    family: &[ObliviousView<L>],
) -> f64 {
    if targets.is_empty() {
        return 1.0;
    }
    // Memoize by exact view value within the call: self-similar families
    // repeat the same ball layouts many times over.
    let mut scratch = CanonScratch::new();
    let mut memo: FxHashMap<&ObliviousView<L>, CanonicalCode> = FxHashMap::default();
    for view in family.iter().chain(targets.iter()) {
        memo.entry(view)
            .or_insert_with(|| view.canonical_code_in(&mut scratch));
    }
    let family_codes: FxHashSet<&CanonicalCode> = family.iter().map(|v| &memo[v]).collect();
    let covered = targets
        .iter()
        .filter(|t| family_codes.contains(&memo[t]))
        .count();
    covered as f64 / targets.len() as f64
}

/// [`coverage`], with canonical codes served from a shared [`ViewCache`].
/// The result is identical to [`coverage`]: equal codes mean isomorphic
/// views, so membership in the family's code set is exactly occurrence up to
/// isomorphism.
pub fn coverage_cached<L: Clone + Eq + Hash + Send + Sync>(
    targets: &[ObliviousView<L>],
    family: &[ObliviousView<L>],
    cache: &ViewCache<L>,
) -> f64 {
    if targets.is_empty() {
        return 1.0;
    }
    let mut scratch = CanonScratch::new();
    let family_codes: FxHashSet<Arc<CanonicalCode>> = family
        .iter()
        .map(|v| cache.canonical_code_in(v, &mut scratch))
        .collect();
    let covered = targets
        .iter()
        .filter(|t| family_codes.contains(&cache.canonical_code_in(t, &mut scratch)))
        .count();
    covered as f64 / targets.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::IdAssignment;
    use crate::input::Input;
    use ld_graph::generators;

    fn uniform_cycle(n: usize) -> LabeledGraph<u8> {
        LabeledGraph::uniform(generators::cycle(n), 0u8)
    }

    #[test]
    fn long_cycle_has_a_single_distinct_interior_view() {
        // Every radius-2 view of a 20-cycle is a path of 5 nodes centred in
        // the middle: exactly one distinct view.
        let views = distinct_oblivious_views_of(&uniform_cycle(20), 2);
        assert_eq!(views.len(), 1);
    }

    #[test]
    fn path_views_depend_on_distance_to_the_ends() {
        // In a long path, radius-1 views: end node (degree 1) and interior
        // node (degree 2) — two distinct views.
        let path = LabeledGraph::uniform(generators::path(10), 0u8);
        let views = distinct_oblivious_views_of(&path, 1);
        assert_eq!(views.len(), 2);
        // Radius-2: end, next-to-end, interior — three distinct views.
        let views = distinct_oblivious_views_of(&path, 2);
        assert_eq!(views.len(), 3);
    }

    #[test]
    fn labels_refine_view_classes() {
        let g = generators::cycle(12);
        let alternating = LabeledGraph::from_fn(g, |v| (v.index() % 2) as u8);
        // With alternating labels there are two distinct radius-1 views
        // (centre labelled 0 or 1).
        let views = distinct_oblivious_views_of(&alternating, 1);
        assert_eq!(views.len(), 2);
    }

    #[test]
    fn cycle_views_cover_longer_cycle_views() {
        // The distinct radius-2 views of a 30-cycle are covered by those of a
        // 10-cycle (and vice versa): the paradigmatic indistinguishability.
        let small = distinct_oblivious_views_of(&uniform_cycle(10), 2);
        let large = distinct_oblivious_views_of(&uniform_cycle(30), 2);
        assert_eq!(coverage(&large, &small), 1.0);
        assert_eq!(coverage(&small, &large), 1.0);
        // A 5-cycle's radius-2 view (the whole cycle) is NOT covered by long
        // cycle views.
        let tiny = distinct_oblivious_views_of(&uniform_cycle(5), 2);
        assert_eq!(coverage(&tiny, &large), 0.0);
    }

    #[test]
    fn canonical_engine_matches_pairwise_oracle() {
        // The new engine and the seed bucket-then-backtrack pipeline must
        // select identical representatives in identical order.
        for labeled in [
            uniform_cycle(20),
            LabeledGraph::uniform(generators::path(9), 0u8),
            LabeledGraph::from_fn(generators::cycle(12), |v| (v.index() % 3) as u8),
            LabeledGraph::uniform(generators::grid(4, 5), 0u8),
            LabeledGraph::uniform(generators::complete(5), 0u8),
        ] {
            for radius in 0..3 {
                let views = collect_oblivious_views(&labeled, radius);
                let engine = distinct_oblivious_views(views.clone());
                let oracle = distinct_oblivious_views_pairwise(views);
                assert_eq!(engine, oracle, "radius {radius}");
            }
        }
    }

    #[test]
    fn collect_views_with_ids_returns_one_view_per_node() {
        let lg = uniform_cycle(8);
        let input = Input::new(lg, IdAssignment::consecutive(8)).unwrap();
        let mut extractor = BallExtractor::new();
        let views: Vec<_> = input
            .graph()
            .nodes()
            .map(|v| input.view_in(&mut extractor, v, 1).to_owned())
            .collect();
        assert_eq!(views.len(), 8);
        // With distinct identifiers every view is distinguishable from every
        // other (different centre ids).
        for (i, a) in views.iter().enumerate() {
            for (j, b) in views.iter().enumerate() {
                assert_eq!(i == j, a.indistinguishable_from(b), "views {i} vs {j}");
                assert_eq!(
                    i == j,
                    a.canonical_code() == b.canonical_code(),
                    "codes {i} vs {j}"
                );
            }
        }
    }

    #[test]
    fn scaled_budget_is_generous_and_monotone() {
        let small = EnumerationBudget::scaled(8, 1);
        // Floors keep tiny sweeps from being budget-bound at all.
        assert_eq!(small.max_nodes, 1 << 16);
        assert_eq!(small.max_views, 1 << 12);
        let xl = EnumerationBudget::scaled(512, 3);
        assert!(xl.max_nodes >= 512 * 49 * 8);
        assert!(xl.max_views >= 512 * 16);
        // Monotone in both knobs, and saturating rather than overflowing.
        assert!(xl.max_nodes > EnumerationBudget::scaled(256, 3).max_nodes);
        assert!(xl.max_nodes > EnumerationBudget::scaled(512, 2).max_nodes);
        let huge = EnumerationBudget::scaled(usize::MAX, 3);
        assert_eq!(huge.max_nodes, u64::MAX);
    }

    #[test]
    fn unlimited_budget_reproduces_the_unbudgeted_enumeration() {
        for labeled in [
            uniform_cycle(20),
            LabeledGraph::uniform(generators::grid(5, 4), 0u8),
            LabeledGraph::from_fn(generators::cycle(12), |v| (v.index() % 3) as u8),
        ] {
            for radius in 0..4 {
                let plain = distinct_oblivious_views_of(&labeled, radius);
                let (budgeted, usage) = distinct_oblivious_views_of_budgeted(
                    &labeled,
                    radius,
                    EnumerationBudget::UNLIMITED,
                );
                assert_eq!(plain, budgeted, "radius {radius}");
                assert!(!usage.exhausted);
                assert!(usage.nodes_visited >= labeled.node_count() as u64);
            }
        }
    }

    #[test]
    fn node_cap_exhaustion_is_deterministic_and_yields_a_prefix() {
        let labeled = LabeledGraph::uniform(generators::grid(6, 6), 0u8);
        let (full, full_usage) =
            distinct_oblivious_views_of_budgeted(&labeled, 3, EnumerationBudget::UNLIMITED);
        assert!(!full_usage.exhausted);
        let tight = EnumerationBudget::nodes(full_usage.nodes_visited / 2);
        let (capped_a, usage_a) = distinct_oblivious_views_of_budgeted(&labeled, 3, tight);
        let (capped_b, usage_b) = distinct_oblivious_views_of_budgeted(&labeled, 3, tight);
        assert!(usage_a.exhausted);
        assert_eq!(usage_a, usage_b, "exhaustion point must be reproducible");
        assert_eq!(capped_a, capped_b);
        assert!(capped_a.len() <= full.len());
        // The capped result is a prefix of the full result.
        assert_eq!(capped_a[..], full[..capped_a.len()]);
        // A budget of exactly what the full run spent completes it.
        let (exact, exact_usage) = distinct_oblivious_views_of_budgeted(
            &labeled,
            3,
            EnumerationBudget::nodes(full_usage.nodes_visited),
        );
        assert!(!exact_usage.exhausted);
        assert_eq!(exact, full);
    }

    #[test]
    fn view_cap_stops_materialisation() {
        let path = LabeledGraph::uniform(generators::path(12), 0u8);
        // A long path has 4 distinct radius-3 view classes but more exact
        // ball layouts; cap materialisation at 2.
        let (views, usage) =
            distinct_oblivious_views_of_budgeted(&path, 3, EnumerationBudget::views(2));
        assert!(usage.exhausted);
        assert_eq!(usage.views_materialized, 2);
        assert!(views.len() <= 2);
        let cache = ViewCache::new();
        let (cached_views, cached_usage) = distinct_oblivious_views_of_budgeted_cached(
            &path,
            3,
            &cache,
            EnumerationBudget::views(2),
        );
        assert_eq!(views, cached_views);
        assert_eq!(usage, cached_usage);
    }

    #[test]
    fn by_radius_profile_matches_per_radius_enumeration() {
        let cache = ViewCache::new();
        for labeled in [
            uniform_cycle(20),
            LabeledGraph::uniform(generators::path(12), 0u8),
            LabeledGraph::uniform(generators::grid(5, 5), 0u8),
            LabeledGraph::from_fn(generators::cycle(12), |v| (v.index() % 2) as u8),
        ] {
            let (profile, usage) =
                distinct_views_by_radius_cached(&labeled, 3, &cache, EnumerationBudget::UNLIMITED);
            assert!(!usage.exhausted);
            assert_eq!(profile.len(), 4);
            for (radius, views) in profile.iter().enumerate() {
                let reference = distinct_oblivious_views_of(&labeled, radius);
                assert_eq!(views, &reference, "radius {radius}");
            }
        }
    }

    #[test]
    fn by_radius_profile_never_overshoots_the_node_cap() {
        // Saturated balls gain no nodes at larger radii but still charge
        // their size; the charge must stay within the cap (a cap of 67 on
        // cycle(5), whose full profile costs 70, must exhaust).
        let cache = ViewCache::new();
        let labeled = uniform_cycle(5);
        let (_, full) =
            distinct_views_by_radius_cached(&labeled, 3, &cache, EnumerationBudget::UNLIMITED);
        assert_eq!(full.nodes_visited, 70);
        for cap in [67u64, 69, 14] {
            let (_, usage) =
                distinct_views_by_radius_cached(&labeled, 3, &cache, EnumerationBudget::nodes(cap));
            assert!(usage.exhausted, "cap {cap}");
            assert!(usage.nodes_visited <= cap, "cap {cap}: {usage:?}");
        }
    }

    #[test]
    fn by_radius_profile_exhausts_deterministically() {
        let cache = ViewCache::new();
        let labeled = LabeledGraph::uniform(generators::grid(6, 6), 0u8);
        let budget = EnumerationBudget::nodes(200);
        let (profile_a, usage_a) = distinct_views_by_radius_cached(&labeled, 3, &cache, budget);
        let (profile_b, usage_b) = distinct_views_by_radius_cached(&labeled, 3, &cache, budget);
        assert!(usage_a.exhausted);
        assert_eq!(usage_a, usage_b);
        assert_eq!(profile_a, profile_b);
    }

    #[test]
    fn coverage_of_empty_target_set_is_total() {
        let family = distinct_oblivious_views_of(&uniform_cycle(6), 1);
        assert_eq!(coverage::<u8>(&[], &family), 1.0);
        let cache = ViewCache::new();
        assert_eq!(coverage_cached::<u8>(&[], &family, &cache), 1.0);
    }

    #[test]
    fn cached_enumeration_matches_uncached() {
        let cache = ViewCache::new();
        for labeled in [
            uniform_cycle(20),
            LabeledGraph::uniform(ld_graph::generators::path(9), 0u8),
            LabeledGraph::from_fn(generators::cycle(12), |v| (v.index() % 2) as u8),
        ] {
            for radius in 0..3 {
                let plain = distinct_oblivious_views_of(&labeled, radius);
                let (cached, usage) = distinct_oblivious_views_of_budgeted_cached(
                    &labeled,
                    radius,
                    &cache,
                    EnumerationBudget::UNLIMITED,
                );
                assert_eq!(plain, cached);
                assert!(!usage.exhausted);
            }
        }
        assert!(cache.stats().hits > 0, "repeat views must hit the cache");
    }

    #[test]
    fn cached_coverage_matches_uncached() {
        let cache = ViewCache::new();
        let small = distinct_oblivious_views_of(&uniform_cycle(10), 2);
        let large = distinct_oblivious_views_of(&uniform_cycle(30), 2);
        let tiny = distinct_oblivious_views_of(&uniform_cycle(5), 2);
        for (targets, family) in [(&large, &small), (&small, &large), (&tiny, &large)] {
            assert_eq!(
                coverage(targets, family),
                coverage_cached(targets, family, &cache)
            );
        }
    }
}
