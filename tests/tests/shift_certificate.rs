//! The shift certificate in view enumeration, checked against a per-centre
//! reference.
//!
//! `distinct_oblivious_views_of*` searches a centre's ball only when no
//! earlier search certifies it: if every member `u` of `B(v, t)` starts a
//! run of at least `K` shift-equal nodes (same label as `u + 1`, and
//! `u + 1`'s neighbour row is `u`'s plus one), the next `K` centres are
//! translates of `v` and are charged `|B(v, t)|` without a search.  Three
//! properties make that invisible:
//!
//! - **Enumeration.** Views, their order and [`BudgetUsage`] equal those
//!   of a loop that extracts every centre's ball, under unlimited budgets,
//!   under every view cap from 0 up to the full spend, and under every node
//!   cap from 0 up to the full spend (on larger graphs, one cap on each
//!   side of every point where the outcome changes).
//! - **Profile.** The radius profile `0..=t`
//!   (`distinct_views_by_radius_cached`) equals a loop that extracts every
//!   centre at every radius in turn, under the same budgets; one certified
//!   run covers all of a centre's radii.
//! - **Lemma.** For every certified pair `(v, v + j)`, the exact layout
//!   keys of the two balls are equal.
//!
//! The graphs are the shared adversarial families of
//! `ld_tests::strategies`, plus circulants, tori, periodic labellings, the
//! short cycles and paths of `3..=2t+3` nodes where balls wrap, and cycles
//! of promise-cell size.

use ld_tests::strategies::{build_case, COLOUR_MODES, FAMILY_COUNT};
use local_decision::graph::BallExtractor;
use local_decision::local::cache::ViewCache;
use local_decision::local::{BudgetUsage, EnumerationBudget};
use local_decision::prelude::*;
use std::collections::HashSet;

const MAX_RADIUS: usize = 3;

/// One centre of the per-centre reference, in centre order: its view
/// (every centre's ball is extracted), whether its exact layout is new,
/// and whether its view is new up to isomorphism, both against every
/// earlier centre.
struct Centre {
    view: ObliviousView<u8>,
    new_layout: bool,
    new_view: bool,
}

fn per_centre(labeled: &LabeledGraph<u8>, radius: usize) -> Vec<Centre> {
    let mut exact_seen = HashSet::new();
    let mut codes = HashSet::new();
    enumeration::collect_oblivious_views(labeled, radius)
        .into_iter()
        .map(|view| {
            let new_layout = exact_seen.insert(view.clone());
            let new_view = new_layout && codes.insert(view.canonical_code());
            Centre {
                view,
                new_layout,
                new_view,
            }
        })
        .collect()
}

/// The reference enumeration under `budget`, over `steps` in order: each
/// step is a centre's ball at the radius of its layer.  Every step is
/// charged its ball size, a new layout is charged one view, and the first
/// step that does not fit stops the walk.
fn reference<'a>(
    steps: impl IntoIterator<Item = (usize, &'a Centre)>,
    layers: usize,
    budget: EnumerationBudget,
) -> (Vec<Vec<ObliviousView<u8>>>, BudgetUsage) {
    let mut usage = BudgetUsage::default();
    let mut result = vec![Vec::new(); layers];
    for (layer, centre) in steps {
        let size = centre.view.node_count() as u64;
        if size > budget.max_nodes - usage.nodes_visited {
            usage.exhausted = true;
            break;
        }
        usage.nodes_visited += size;
        if !centre.new_layout {
            continue;
        }
        if usage.views_materialized >= budget.max_views {
            usage.exhausted = true;
            break;
        }
        usage.views_materialized += 1;
        if centre.new_view {
            result[layer].push(centre.view.clone());
        }
    }
    (result, usage)
}

/// The reference at one radius: every centre in order.
fn reference_at(
    centres: &[Centre],
    budget: EnumerationBudget,
) -> (Vec<ObliviousView<u8>>, BudgetUsage) {
    let (mut views, usage) = reference(centres.iter().map(|c| (0, c)), 1, budget);
    (views.pop().unwrap(), usage)
}

/// The steps of the radius profile `0..=t`, `by_radius[r]` holding every
/// centre at radius `r`: centre by centre, each at every radius in order.
fn profile_steps(by_radius: &[Vec<Centre>]) -> impl Iterator<Item = (usize, &Centre)> {
    let n = by_radius[0].len();
    (0..n).flat_map(move |v| by_radius.iter().enumerate().map(move |(r, c)| (r, &c[v])))
}

/// The reference radius profile: [`reference`] over [`profile_steps`].
fn profile_reference(
    by_radius: &[Vec<Centre>],
    budget: EnumerationBudget,
) -> (Vec<Vec<ObliviousView<u8>>>, BudgetUsage) {
    reference(profile_steps(by_radius), by_radius.len(), budget)
}

/// `runs[x]`, restated from the definition: the number of consecutive
/// shift-equal nodes starting at `x`.
fn shift_runs(labeled: &LabeledGraph<u8>) -> Vec<usize> {
    let graph = labeled.graph();
    let n = graph.node_count();
    let shift_equal = |x: usize| {
        let (a, b) = (NodeId::from(x), NodeId::from(x + 1));
        let shifted: Vec<usize> = graph.neighbors(a).map(|u| u.index() + 1).collect();
        let next: Vec<usize> = graph.neighbors(b).map(NodeId::index).collect();
        labeled.label(a) == labeled.label(b) && shifted == next
    };
    let mut runs = vec![0; n];
    for x in (0..n.saturating_sub(1)).rev() {
        if shift_equal(x) {
            runs[x] = runs[x + 1] + 1;
        }
    }
    runs
}

fn exact_key(
    extractor: &mut BallExtractor,
    labeled: &LabeledGraph<u8>,
    v: usize,
    radius: usize,
) -> Vec<u64> {
    let mut key = Vec::new();
    extractor
        .exact_key(labeled.graph(), NodeId::from(v), radius, &mut key, |u| {
            u64::from(*labeled.label(u))
        })
        .unwrap();
    key
}

/// Checks the lemma at every centre and returns how many centres the
/// enumeration searches: after each searched centre `v`, the next
/// `K = min runs[u]` over `B(v, t)` are certified.
fn check_lemma(labeled: &LabeledGraph<u8>, radius: usize, what: &str) -> usize {
    let runs = shift_runs(labeled);
    let n = labeled.node_count();
    // `Graph::shift_breaks` lists exactly the nodes that start no run.
    let label = |x: usize| labeled.label(NodeId::from(x));
    assert_eq!(
        labeled.graph().shift_breaks(|x| label(x) == label(x + 1)),
        (0..n).filter(|&x| runs[x] == 0).collect::<Vec<_>>(),
        "{what}: shift breaks"
    );
    let mut extractor = BallExtractor::new();
    let (mut v, mut searched) = (0, 0);
    while v < n {
        let key = exact_key(&mut extractor, labeled, v, radius);
        let k = extractor
            .current_members()
            .iter()
            .map(|u| runs[u.index()])
            .min()
            .unwrap();
        for j in 1..=k {
            assert_eq!(
                exact_key(&mut extractor, labeled, v + j, radius),
                key,
                "{what}, radius {radius}: centre {} is certified by {v} (K = {k})",
                v + j
            );
        }
        searched += 1;
        v += k + 1;
    }
    searched
}

/// Node caps to try against a reference whose full run spends `full`,
/// walking `steps` in order.  The reference's outcome changes only where
/// the cap crosses the running charge `S_k` after some step `k`, so the
/// caps `S_k - 1` and `S_k` (and 0) reach every outcome, inside certified
/// runs too; small runs try every cap outright.
fn node_caps<'a>(steps: impl IntoIterator<Item = &'a Centre>, full: u64) -> Vec<u64> {
    if full <= 64 {
        return (0..=full).collect();
    }
    let mut caps = vec![0];
    let mut spent = 0;
    for centre in steps {
        spent += centre.view.node_count() as u64;
        caps.extend([spent - 1, spent]);
    }
    caps
}

/// Every public entry point into the enumeration, against the reference.
fn check_enumeration(labeled: &LabeledGraph<u8>, radius: usize, what: &str) {
    let cache = ViewCache::new();
    let centres = per_centre(labeled, radius);
    let (full, full_usage) = reference_at(&centres, EnumerationBudget::UNLIMITED);
    assert!(!full_usage.exhausted);
    assert_eq!(
        enumeration::distinct_oblivious_views_of(labeled, radius),
        full,
        "{what}, radius {radius}"
    );
    assert_eq!(
        enumeration::distinct_oblivious_views_of_budgeted_cached(
            labeled,
            radius,
            &cache,
            EnumerationBudget::UNLIMITED
        ),
        (full.clone(), full_usage),
        "{what}, radius {radius} (cached)"
    );
    assert_eq!(
        enumeration::distinct_oblivious_views_of_budgeted(
            labeled,
            radius,
            EnumerationBudget::UNLIMITED
        ),
        (full, full_usage),
        "{what}, radius {radius} (budgeted)"
    );
    // The capped runs share one cache, so each layout is canonicalised
    // once; the cached and uncached variants share the enumeration body.
    let budgets = node_caps(&centres, full_usage.nodes_visited)
        .into_iter()
        .map(EnumerationBudget::nodes)
        .chain((0..=full_usage.views_materialized).map(EnumerationBudget::views));
    for budget in budgets {
        assert_eq!(
            enumeration::distinct_oblivious_views_of_budgeted_cached(
                labeled, radius, &cache, budget,
            ),
            reference_at(&centres, budget),
            "{what}, radius {radius}, {budget:?}"
        );
    }
}

/// The radius profile `0..=max_radius` against its reference: under an
/// unlimited budget, every view cap, and a node cap on each side of every
/// (centre, radius) charge.
fn check_profile(labeled: &LabeledGraph<u8>, max_radius: usize, what: &str) {
    let cache = ViewCache::new();
    let by_radius: Vec<Vec<Centre>> = (0..=max_radius)
        .map(|radius| per_centre(labeled, radius))
        .collect();
    let (full, full_usage) = profile_reference(&by_radius, EnumerationBudget::UNLIMITED);
    assert!(!full_usage.exhausted);
    for (radius, views) in full.iter().enumerate() {
        assert_eq!(
            views,
            &enumeration::distinct_oblivious_views_of(labeled, radius),
            "{what}: the reference profile at radius {radius}"
        );
    }
    let steps = profile_steps(&by_radius).map(|(_, centre)| centre);
    let budgets = std::iter::once(EnumerationBudget::UNLIMITED)
        .chain(
            node_caps(steps, full_usage.nodes_visited)
                .into_iter()
                .map(EnumerationBudget::nodes),
        )
        .chain((0..=full_usage.views_materialized).map(EnumerationBudget::views));
    for budget in budgets {
        assert_eq!(
            enumeration::distinct_views_by_radius_cached(labeled, max_radius, &cache, budget),
            profile_reference(&by_radius, budget),
            "{what}, profile 0..={max_radius}, {budget:?}"
        );
    }
}

fn check(labeled: &LabeledGraph<u8>, what: &str) {
    for radius in 0..=MAX_RADIUS {
        check_lemma(labeled, radius, what);
        check_enumeration(labeled, radius, what);
    }
    check_profile(labeled, MAX_RADIUS, what);
}

#[test]
fn strategy_families_match_the_per_centre_reference() {
    for family in 0..FAMILY_COUNT {
        for mode in 0..COLOUR_MODES {
            let case = build_case(family, mode, 0);
            let labeled = LabeledGraph::new(case.graph, case.labels).unwrap();
            check(&labeled, &format!("family {family}, mode {mode}"));
        }
    }
}

#[test]
fn circulants_and_tori_match_the_per_centre_reference() {
    for (n, offset) in [(9, 2), (13, 3), (20, 4), (24, 5)] {
        let graph = generators::circulant(n, &[1, offset]).unwrap();
        for period in [1, 2, 3] {
            let labeled = LabeledGraph::from_fn(graph.clone(), |v| (v.index() % period) as u8);
            check(
                &labeled,
                &format!("circulant({n}, [1, {offset}]) period {period}"),
            );
        }
    }
    for (w, h) in [(3, 3), (4, 5), (9, 4)] {
        let graph = generators::torus(w, h).unwrap();
        for period in [1, 2] {
            let labeled = LabeledGraph::from_fn(graph.clone(), |v| (v.index() % period) as u8);
            check(&labeled, &format!("torus({w}, {h}) period {period}"));
        }
    }
}

#[test]
fn periodic_labellings_match_the_per_centre_reference() {
    // `v % p` gives neighbours different labels (no runs for p >= 2);
    // blocks of p equal labels keep the runs inside each block.
    for n in [12, 30] {
        for period in 1..=4 {
            let residue = |v: NodeId| (v.index() % period) as u8;
            let block = |v: NodeId| (v.index() / period % 2) as u8;
            for (kind, label) in [
                ("residue", &residue as &dyn Fn(NodeId) -> u8),
                ("block", &block),
            ] {
                let cycle = LabeledGraph::from_fn(generators::cycle(n), label);
                check(&cycle, &format!("cycle({n}) {kind} period {period}"));
                let path = LabeledGraph::from_fn(generators::path(n), label);
                check(&path, &format!("path({n}) {kind} period {period}"));
            }
        }
    }
    for (w, h) in [(12, 3), (5, 6)] {
        for period in 1..=3 {
            let columns =
                LabeledGraph::from_fn(generators::grid(w, h), |v| (v.index() % w % period) as u8);
            check(&columns, &format!("grid({w}, {h}) column period {period}"));
            let rows =
                LabeledGraph::from_fn(generators::grid(w, h), |v| (v.index() / w % period) as u8);
            check(&rows, &format!("grid({w}, {h}) row period {period}"));
        }
    }
    // A single odd label breaks the runs through it, nowhere else.
    let marked = LabeledGraph::from_fn(generators::cycle(25), |v| u8::from(v.index() == 11));
    check(&marked, "cycle(25) with one marked node");
}

#[test]
fn short_cycles_and_paths_match_the_per_centre_reference() {
    for t in 0..=MAX_RADIUS {
        for n in 3..=2 * t + 3 {
            for (name, graph) in [
                ("cycle", generators::cycle(n)),
                ("path", generators::path(n)),
            ] {
                let labeled = LabeledGraph::uniform(graph, 0u8);
                let what = format!("{name}({n})");
                assert_eq!(check_lemma(&labeled, t, &what), n, "{what}, radius {t}");
                check_enumeration(&labeled, t, &what);
                check_profile(&labeled, t, &what);
            }
        }
    }
}

#[test]
fn long_cycles_and_paths_need_2t_plus_3_searches() {
    for t in 0..=MAX_RADIUS {
        for n in [2 * t + 4, 2 * t + 5, 40, 257] {
            for (name, graph) in [
                ("cycle", generators::cycle(n)),
                ("path", generators::path(n)),
            ] {
                let labeled = LabeledGraph::uniform(graph, 0u8);
                let what = format!("{name}({n})");
                assert_eq!(
                    check_lemma(&labeled, t, &what),
                    2 * t + 3,
                    "{what}, radius {t}"
                );
                if n <= 40 {
                    check_enumeration(&labeled, t, &what);
                    check_profile(&labeled, t, &what);
                }
            }
        }
    }
}

#[test]
fn promise_size_cycles_match_the_per_centre_reference() {
    // A promise cell compares an r-cycle with an f(r)-cycle; r = 170
    // against 510 is one of the swept pairs.  Each needs 2t + 3 searches,
    // so almost every node cap lands inside a certified run.
    for n in [170, 510] {
        let labeled = LabeledGraph::uniform(generators::cycle(n), 0u8);
        let what = format!("cycle({n})");
        assert_eq!(check_lemma(&labeled, MAX_RADIUS, &what), 2 * MAX_RADIUS + 3);
        check_enumeration(&labeled, MAX_RADIUS, &what);
        check_profile(&labeled, MAX_RADIUS, &what);
    }
}

#[test]
fn grid_rows_skip_the_columns_away_from_the_sides() {
    // In a w-column grid, (x, y) and (x + 1, y) have shifted rows for
    // 1 <= x <= w - 3, so a radius-t ball is certified for the columns
    // t + 1 ..= w - 3 - t: each row searches 2t + 3 centres when w > 2t + 3.
    for t in 0..=MAX_RADIUS {
        for (w, h) in [(2 * t + 4, 3), (20, 4)] {
            let labeled = LabeledGraph::uniform(generators::grid(w, h), 0u8);
            let what = format!("grid({w}, {h})");
            assert_eq!(
                check_lemma(&labeled, t, &what),
                h * (2 * t + 3),
                "{what}, radius {t}"
            );
        }
    }
}
