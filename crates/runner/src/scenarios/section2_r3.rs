//! `section2-sweep-r3`: the Section 2 view machinery at radius 3, budgeted.
//!
//! Radius 3 is where the paper's view-based separations get interesting —
//! and where naive per-radius extraction blows up combinatorially.  This
//! scenario is the radius-3 coverage-cell family the roadmap called for,
//! built on the budget-aware enumeration layer:
//!
//! * **Paths** — the smallest family with a closed-form distinct-view count
//!   (`radius + 1` classes once `n >= 2·radius + 2`), swept across sizes,
//!   plus cross-size coverage cells asserting the paradigmatic
//!   indistinguishability at radius 3.
//! * **Grids** — no closed form; instead each cell differentially checks
//!   the *incremental* multi-radius profile
//!   ([`distinct_views_by_radius_cached`], one extended BFS per node)
//!   against independent per-radius enumeration.
//! * **Layered trees** — Section 2 labels carry absolute coordinates, so
//!   every node of a small instance is labelled distinctly and the
//!   radius-3 distinct-view count must equal the node count exactly.
//! * **Promise cycles** — the yes/no pair is indistinguishable at radius
//!   `t` exactly when the announced length reaches `2t + 2`.
//!
//! Every cell runs under the sweep's [`SweepConfig::enumeration_budget`]:
//! exhaustion is reported (`budget.exhausted` in the v2 report schema) as
//! an explicit outcome rather than failing the cell, so a tight `--node-
//! budget` produces a clean, deterministic partial sweep instead of a
//! wall-time surprise.

use crate::cell::{CellOutcome, CellSpec};
use crate::scenario::{Plan, Scenario, SweepConfig};
use ld_constructions::section2::{Section2Label, Section2Params};
use ld_graph::{generators, LabeledGraph};
use ld_local::cache::ViewCache;
use ld_local::enumeration::{
    distinct_oblivious_views_of_budgeted_cached, distinct_views_by_radius_cached, EnumerationBudget,
};
use ld_local::IdBound;
use std::sync::Arc;

use super::coverage_pair;

/// How many small-instance roots the tree-family coverage cells sample
/// (also the DSL `layered-tree-views` stanza's `max-roots` default).
pub(crate) const MAX_ROOTS: usize = 8;

/// Step between swept path sizes (keeps the family to ~16 cells at the
/// default `max_n`; also the DSL `paths` stanza's `step` default).
pub(crate) const PATH_STEP: usize = 8;

/// The radius-3 Section 2 sweep scenario.
pub struct Section2SweepR3;

/// A uniform 0-labelled graph, the label regime of the structural families.
fn uniform(graph: ld_graph::Graph) -> LabeledGraph<u8> {
    LabeledGraph::uniform(graph, 0u8)
}

/// Distinct radius-`radius` views of an `n`-node path: one class per
/// distance-to-the-nearer-end in `0..radius`, plus the interior class —
/// `radius + 1` in total once both ends are out of a single view's reach.
fn expected_path_views(n: usize, radius: usize) -> Option<usize> {
    (n >= 2 * radius + 2).then_some(radius + 1)
}

/// Plans the closed-form path family: one distinct-view-count cell per
/// swept size, `step` apart.  Shared with `section2-sweep-xl`, which sweeps
/// the same family at larger sizes and strides.
pub(crate) fn path_cells(
    plan: &mut Plan,
    cache: &Arc<ViewCache<u8>>,
    config: &SweepConfig,
    radius: usize,
    budget: EnumerationBudget,
    step: usize,
) {
    let mut n = 2 * radius + 2;
    while n <= config.max_n {
        let expected = expected_path_views(n, radius).expect("n starts at 2*radius + 2");
        let spec = CellSpec::new(
            format!("path/n={n}/radius={radius}/alg=distinct-views"),
            [
                ("family", "path".to_string()),
                ("n", n.to_string()),
                ("radius", radius.to_string()),
                ("alg", "distinct-views".to_string()),
                ("expect", format!("views={expected}")),
            ],
        );
        let cache = cache.clone();
        plan.push(spec, move |_seed| {
            let labeled = uniform(generators::path(n));
            let (views, usage) =
                distinct_oblivious_views_of_budgeted_cached(&labeled, radius, &cache, budget);
            if usage.exhausted {
                return CellOutcome::new("exhausted", true).with_budget(usage);
            }
            let verdict = format!("views={}", views.len());
            CellOutcome::new(verdict, views.len() == expected)
                .with_metric("nodes", n as f64)
                .with_metric("distinct_views", views.len() as f64)
                .with_budget(usage)
        });
        n += step.max(1);
    }
}

/// Plans the cross-size path coverage cells (the paradigmatic
/// indistinguishability).  Shared with `section2-sweep-xl`.
pub(crate) fn path_coverage_cells(
    plan: &mut Plan,
    cache: &Arc<ViewCache<u8>>,
    config: &SweepConfig,
    radius: usize,
    budget: EnumerationBudget,
) {
    let small = 2 * radius + 2;
    let large = config.max_n;
    let mid = (small + large) / 2;
    let mut pairs = vec![(small, large)];
    if mid > small {
        pairs.push((mid, large));
    }
    for (a, b) in pairs {
        if a >= b {
            continue;
        }
        let spec = CellSpec::new(
            format!("path-coverage/small={a}/large={b}/radius={radius}"),
            [
                ("family", "path".to_string()),
                ("small", a.to_string()),
                ("large", b.to_string()),
                ("radius", radius.to_string()),
                ("expect", "indistinguishable".to_string()),
            ],
        );
        let cache = cache.clone();
        plan.push(spec, move |_seed| {
            let small = uniform(generators::path(a));
            let large = uniform(generators::path(b));
            // Both paths are long enough that every view of one occurs in
            // the other: the paradigmatic indistinguishability, at radius 3.
            let (forward, backward, usage) =
                match coverage_pair(&small, &large, radius, &cache, budget) {
                    Ok(result) => result,
                    Err(usage) => return CellOutcome::new("exhausted", true).with_budget(usage),
                };
            let merged = forward == 1.0 && backward == 1.0;
            let verdict = if merged {
                "indistinguishable"
            } else {
                "distinguishable"
            };
            CellOutcome::new(verdict, merged)
                .with_metric("coverage_large_in_small", forward)
                .with_metric("coverage_small_in_large", backward)
                .with_budget(usage)
        });
    }
}

/// Plans the grid incremental-profile differential cells.  Shared with
/// `section2-sweep-xl`.
pub(crate) fn grid_profile_cells(
    plan: &mut Plan,
    cache: &Arc<ViewCache<u8>>,
    config: &SweepConfig,
    radius: usize,
    budget: EnumerationBudget,
) {
    let mut side = 3usize;
    while side * side <= config.max_n {
        let spec = CellSpec::new(
            format!("grid-profile/side={side}/radius={radius}"),
            [
                ("family", "grid".to_string()),
                ("side", side.to_string()),
                ("radius", radius.to_string()),
                ("alg", "incremental-profile".to_string()),
                ("expect", "profile-agrees".to_string()),
            ],
        );
        let cache = cache.clone();
        plan.push(spec, move |_seed| {
            let labeled = uniform(generators::grid(side, side));
            // One incrementally-extended BFS per node, all radii at once …
            let (profile, mut usage) =
                distinct_views_by_radius_cached(&labeled, radius, &cache, budget);
            if usage.exhausted {
                return CellOutcome::new("exhausted", true).with_budget(usage);
            }
            // … differentially checked against a fresh enumeration per
            // radius (grids have no closed-form view count at radius 3).
            let mut agrees = true;
            for (r, views) in profile.iter().enumerate() {
                let (reference, spent) = distinct_oblivious_views_of_budgeted_cached(
                    &labeled,
                    r,
                    &cache,
                    budget.after(&usage),
                );
                usage.absorb(&spent);
                if usage.exhausted {
                    return CellOutcome::new("exhausted", true).with_budget(usage);
                }
                agrees &= views == &reference;
            }
            let verdict = if agrees {
                "profile-agrees"
            } else {
                "profile-diverges"
            };
            let top = profile.last().map_or(0, Vec::len);
            CellOutcome::new(verdict, agrees)
                .with_metric("nodes", (side * side) as f64)
                .with_metric("distinct_views_top_radius", top as f64)
                .with_budget(usage)
        });
        side += 2;
    }
}

/// Plans the distinctly-labelled layered-tree cells.  Shared with
/// `section2-sweep-xl`.
pub(crate) fn tree_family_cells(
    plan: &mut Plan,
    cache: &Arc<ViewCache<Section2Label>>,
    config: &SweepConfig,
    radius: usize,
    budget: EnumerationBudget,
    max_roots: usize,
) -> Result<(), String> {
    let params = Section2Params::new(1, IdBound::identity_plus(2))
        .map_err(|e| format!("section 2 parameters: {e}"))?;
    if params.small_instance_size() > config.max_n {
        return Ok(());
    }
    let roots = params.small_instance_roots();
    for (index, &root) in roots.iter().take(max_roots).enumerate() {
        let r = params.r();
        let spec = CellSpec::new(
            format!("tree/r={r}/distinct-views/instance={index}/radius={radius}"),
            [
                ("family", "layered-tree".to_string()),
                ("r", r.to_string()),
                ("instance", index.to_string()),
                ("radius", radius.to_string()),
                ("expect", "views=nodes".to_string()),
            ],
        );
        let params = params.clone();
        let cache = cache.clone();
        plan.push(spec, move |_seed| {
            let instance = params
                .small_instance(root)
                .expect("sampled roots anchor valid instances");
            let (views, usage) =
                distinct_oblivious_views_of_budgeted_cached(&instance, radius, &cache, budget);
            if usage.exhausted {
                return CellOutcome::new("exhausted", true).with_budget(usage);
            }
            // Section 2 labels carry absolute coordinates, so every node of
            // an instance is labelled distinctly — each centre's view is
            // distinguishable from every other's at any radius, and the
            // distinct-view count must equal the node count exactly.
            let nodes = instance.node_count();
            let ok = views.len() == nodes;
            CellOutcome::new(if ok { "views=nodes" } else { "views-collapsed" }, ok)
                .with_metric("nodes", nodes as f64)
                .with_metric("distinct_views", views.len() as f64)
                .with_budget(usage)
        });
    }
    Ok(())
}

/// Plans the promise-cycle yes/no view cells.  Shared with
/// `section2-sweep-xl`.
pub(crate) fn promise_cells(
    plan: &mut Plan,
    config: &SweepConfig,
    radius: usize,
    budget: EnumerationBudget,
) {
    let bound = IdBound::linear(3, 0);
    let max_r = (config.max_n as u64) / 3;
    for r in 3..=max_r {
        super::promise_views_cell(plan, budget, radius, r, &bound);
    }
}

/// Plans the five radius-3 families in order (paths `path_step` apart,
/// path coverage, grid profiles, layered trees, promise cycles), every
/// cell under `budget`.  `section2-sweep-r3` and `section2-sweep-xl` differ
/// only in the budget and the path stride they pass.
pub(crate) fn plan_radius3_families(
    config: &SweepConfig,
    budget: EnumerationBudget,
    path_step: usize,
) -> Result<Plan, String> {
    let radius = config.radius_or(3);
    let mut plan = Plan::new();
    let structural_cache = plan.share_cache::<u8>();
    let tree_cache = plan.share_cache::<Section2Label>();

    path_cells(
        &mut plan,
        &structural_cache,
        config,
        radius,
        budget,
        path_step,
    );
    path_coverage_cells(&mut plan, &structural_cache, config, radius, budget);
    grid_profile_cells(&mut plan, &structural_cache, config, radius, budget);
    tree_family_cells(&mut plan, &tree_cache, config, radius, budget, MAX_ROOTS)?;
    promise_cells(&mut plan, config, radius, budget);

    if plan.cells.is_empty() {
        return Err(format!(
            "max_n = {} leaves no radius-{radius} cell; paths need {} nodes and \
             promise cycles need 9",
            config.max_n,
            2 * radius + 2
        ));
    }
    Ok(plan)
}

impl Scenario for Section2SweepR3 {
    fn name(&self) -> &str {
        "section2-sweep-r3"
    }

    fn description(&self) -> &str {
        "Radius-3 coverage cells: paths, grids, layered trees and promise cycles, under work budgets"
    }

    fn plan(&self, config: &SweepConfig) -> Result<Plan, String> {
        plan_radius3_families(config, config.enumeration_budget(), PATH_STEP)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor;

    #[test]
    fn default_budget_plans_a_rich_radius3_sweep() {
        let plan = Section2SweepR3.plan(&SweepConfig::default()).unwrap();
        assert!(plan.cells.len() >= 60, "{} cells", plan.cells.len());
        assert_eq!(plan.caches.len(), 2);
    }

    #[test]
    fn radius3_sweep_passes_without_budget_pressure() {
        let config = SweepConfig {
            max_n: 48,
            threads: 2,
            seed: 7,
            ..SweepConfig::default()
        };
        let report = executor::execute(&Section2SweepR3, &config).unwrap();
        assert_eq!(report.panicked(), 0);
        assert_eq!(
            report.failed(),
            0,
            "failing cells: {:?}",
            report
                .cells
                .iter()
                .filter(|c| !c.passed())
                .map(|c| c.spec.id.clone())
                .collect::<Vec<_>>()
        );
        assert_eq!(report.exhausted(), 0);
        assert!(report.cache_hit_rate() > 0.0);
    }

    #[test]
    fn tight_node_budget_exhausts_cells_deterministically() {
        let config = SweepConfig {
            max_n: 48,
            threads: 1,
            seed: 7,
            node_budget: Some(64),
            ..SweepConfig::default()
        };
        let a = executor::execute(&Section2SweepR3, &config).unwrap();
        let b = executor::execute(&Section2SweepR3, &config).unwrap();
        assert!(a.exhausted() > 0, "a 64-node budget must exhaust r3 cells");
        assert_eq!(a.failed(), 0, "exhaustion is an outcome, not a failure");
        assert_eq!(a.deterministic_json(), b.deterministic_json());
    }

    #[test]
    fn radius_override_is_honoured() {
        let config = SweepConfig {
            max_n: 24,
            radius: Some(1),
            ..SweepConfig::default()
        };
        let report = executor::execute(&Section2SweepR3, &config).unwrap();
        assert_eq!(report.failed() + report.panicked(), 0);
        // Radius-1 paths have exactly 2 distinct views.
        let cell = report
            .cells
            .iter()
            .find(|c| c.spec.id.starts_with("path/") && c.spec.param("radius") == Some("1"))
            .expect("radius-1 path cells planned");
        assert_eq!(
            cell.outcome.as_ref().unwrap().metric("distinct_views"),
            Some(2.0)
        );
    }

    #[test]
    fn tiny_size_budget_is_rejected_with_a_message() {
        let err = match Section2SweepR3.plan(&SweepConfig {
            max_n: 3,
            ..SweepConfig::default()
        }) {
            Err(message) => message,
            Ok(plan) => panic!("expected a planning error, got {} cells", plan.cells.len()),
        };
        assert!(err.contains("max_n"));
    }
}
