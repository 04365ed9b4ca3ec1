//! `section2-sweep`: the bounded-identifier separation, swept.
//!
//! Cells cover the layered-tree family `H_r` / `T_r` (every sampled small
//! instance × identifier regime × algorithm), the large instance and the
//! Figure 1 view-coverage measurement when `max_n` affords them, and the
//! promise problem on cycles across a size range.  View enumeration runs
//! through the plan's canonical-view caches — the small instances are all
//! isomorphic to each other, so virtually every ball the sweep
//! canonicalises after the first instance is a cache hit.  Verdicts are
//! computed directly: the structure verifier reads only the centre's
//! neighbourhood, and a verdict memo keyed on the whole owned view
//! measured no faster than evaluating it (see "Cache sharding" in
//! `crates/runner/DESIGN.md`).

use crate::cell::{CellOutcome, CellSpec};
use crate::scenario::{Plan, Scenario, SweepConfig};
use ld_constructions::section2::promise;
use ld_constructions::section2::{Coord, Section2Label, Section2Params};
use ld_deciders::section2::{IdBasedDecider, PromiseIdDecider, StructureVerifier};
use ld_local::cache::ViewCache;
use ld_local::enumeration::{
    coverage_cached, distinct_oblivious_views_of_budgeted_cached, EnumerationBudget,
};
use ld_local::{decision, IdAssignment, IdBound, Input};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Identifier regimes swept per instance.
const REGIMES: [&str; 3] = ["consecutive", "shifted", "shuffled"];

/// How many small-instance roots to sweep (the family has hundreds; they are
/// pairwise isomorphic, so a bounded sample exercises every view class).
/// Also the DSL `section2-trees` stanza's `max-roots` default.
pub(crate) const MAX_ROOTS: usize = 32;

/// Shift applied by the `shifted` regime; far above `R(r)` for the swept
/// parameters, so it deliberately violates assumption (B)'s spirit and flips
/// the Id-based decider to rejection.
const SHIFT: u64 = 100;

/// The Section 2 sweep scenario.
pub struct Section2Sweep;

fn ids_for(regime: &str, n: usize, seed: u64) -> IdAssignment {
    match regime {
        "consecutive" => IdAssignment::consecutive(n),
        "shifted" => IdAssignment::consecutive_from(n, SHIFT),
        "shuffled" => {
            let mut rng = StdRng::seed_from_u64(seed);
            IdAssignment::shuffled(n, &mut rng)
        }
        other => panic!("unknown id regime {other}"),
    }
}

#[allow(clippy::too_many_arguments)]
fn tree_cell(
    plan: &mut Plan,
    params: &Section2Params,
    cache: &Arc<ViewCache<Section2Label>>,
    budget: EnumerationBudget,
    instance_kind: &str,
    root: Option<Coord>,
    regime: &'static str,
    algorithm: &'static str,
    expect: &'static str,
) {
    let r = params.r();
    let root_token = root.map_or("-".to_string(), |c| format!("{}.{}", c.x, c.y));
    let spec = CellSpec::new(
        format!("tree/r={r}/{instance_kind}={root_token}/ids={regime}/alg={algorithm}"),
        [
            ("family", "layered-tree".to_string()),
            ("r", r.to_string()),
            ("instance", instance_kind.to_string()),
            ("root", root_token),
            ("ids", regime.to_string()),
            ("alg", algorithm.to_string()),
            ("expect", expect.to_string()),
        ],
    );
    let params = params.clone();
    let cache = cache.clone();
    plan.push(spec, move |seed| {
        let labeled = match root {
            Some(root) => params.small_instance(root),
            None => params.large_instance(),
        }
        .expect("swept parameters construct valid instances");
        let n = labeled.node_count();
        let input = Input::new(labeled, ids_for(regime, n, seed))
            .expect("section 2 instances are connected with distinct ids");
        let accepted = match algorithm {
            "verifier" => {
                decision::run_oblivious(&input, &StructureVerifier::new(params.clone())).accepted()
            }
            "id-decider" => {
                decision::run_local(&input, &IdBasedDecider::new(params.clone())).accepted()
            }
            other => panic!("unknown algorithm {other}"),
        };
        let verdict = if accepted { "accept" } else { "reject" };
        let (views, usage) =
            distinct_oblivious_views_of_budgeted_cached(input.labeled(), 1, &cache, budget);
        // The decider's verdict is complete whatever the budget did, so the
        // pass judgement always stands; only the view-count metric depends
        // on the budgeted enumeration and is omitted when truncated (the
        // attached usage still records the exhaustion).
        let outcome = CellOutcome::new(verdict, verdict == expect).with_metric("nodes", n as f64);
        if usage.exhausted {
            return outcome.with_budget(usage);
        }
        outcome
            .with_metric("distinct_views_r1", views.len() as f64)
            .with_budget(usage)
    });
}

fn coverage_cell(
    plan: &mut Plan,
    params: &Section2Params,
    cache: &Arc<ViewCache<Section2Label>>,
    budget: EnumerationBudget,
    radius: usize,
    max_roots: usize,
) {
    let r = params.r();
    let spec = CellSpec::new(
        format!("tree/r={r}/figure1-coverage/radius={radius}"),
        [
            ("family", "layered-tree".to_string()),
            ("r", r.to_string()),
            ("instance", "coverage".to_string()),
            ("radius", radius.to_string()),
            ("expect", "covered>0".to_string()),
        ],
    );
    let params = params.clone();
    let cache = cache.clone();
    plan.push(spec, move |_seed| {
        let large = params
            .large_instance()
            .expect("swept parameters construct valid instances");
        let (large_views, mut usage) =
            distinct_oblivious_views_of_budgeted_cached(&large, radius, &cache, budget);
        let mut small_views = Vec::new();
        for small in params
            .sample_small_instances(max_roots)
            .expect("swept parameters construct valid instances")
        {
            if usage.exhausted {
                break;
            }
            let (views, spent) = distinct_oblivious_views_of_budgeted_cached(
                &small,
                radius,
                &cache,
                budget.after(&usage),
            );
            usage.absorb(&spent);
            small_views.extend(views);
        }
        if usage.exhausted {
            // An exhausted budget is an explicit outcome: the coverage
            // measurement is incomplete, so no pass/fail claim is made.
            return CellOutcome::new("exhausted", true).with_budget(usage);
        }
        let covered = coverage_cached(&large_views, &small_views, &cache);
        CellOutcome::new(
            if covered > 0.0 {
                "covered>0"
            } else {
                "uncovered"
            },
            covered > 0.0,
        )
        .with_metric("coverage", covered)
        .with_metric("large_views", large_views.len() as f64)
        .with_budget(usage)
    });
}

fn promise_cells(
    plan: &mut Plan,
    budget: EnumerationBudget,
    radius: usize,
    r: u64,
    bound: &IdBound,
) {
    for (instance, expect) in [("yes", "accept"), ("no", "reject")] {
        let spec = CellSpec::new(
            format!("promise/r={r}/instance={instance}/alg=promise-id-decider"),
            [
                ("family", "cycle".to_string()),
                ("r", r.to_string()),
                ("instance", instance.to_string()),
                ("alg", "promise-id-decider".to_string()),
                ("expect", expect.to_string()),
            ],
        );
        let bound = bound.clone();
        plan.push(spec, move |_seed| {
            let labeled = match instance {
                "yes" => promise::yes_instance(r),
                _ => promise::no_instance(r, &bound, 1 << 20),
            }
            .expect("promise cycles construct for swept r");
            let n = labeled.node_count();
            // Identifiers start at 1 so the long cycle exhibits an id >= f(r).
            let input = Input::new(labeled, IdAssignment::consecutive_from(n, 1))
                .expect("cycles are connected with distinct ids");
            let accepted =
                decision::run_local(&input, &PromiseIdDecider::new(bound.clone())).accepted();
            let verdict = if accepted { "accept" } else { "reject" };
            CellOutcome::new(verdict, verdict == expect).with_metric("nodes", n as f64)
        });
    }

    // The radius-t ball of an n-cycle is a path (the same view the long
    // cycle shows) exactly when n >= 2t + 2; shorter cycles see themselves.
    super::promise_views_cell(plan, budget, radius, r, bound);
}

/// Plans the layered-tree portion of `section2-sweep`: every sampled small
/// instance × identifier regime × algorithm, then — when `max_n` affords the
/// large instance — the large-instance cells and the Figure-1 coverage
/// measurement at every radius up to `coverage_radius`.  Shared with the
/// scenario DSL's `section2-trees` stanza (see [`crate::dsl`]); returns the
/// small-instance node count for empty-plan diagnostics.
pub(crate) fn layered_tree_cells(
    plan: &mut Plan,
    cache: &Arc<ViewCache<Section2Label>>,
    config: &SweepConfig,
    max_roots: usize,
    coverage_radius: usize,
) -> Result<usize, String> {
    let budget = config.enumeration_budget();
    let params = Section2Params::new(1, IdBound::identity_plus(2))
        .map_err(|e| format!("section 2 parameters: {e}"))?;

    if params.small_instance_size() <= config.max_n {
        let roots: Vec<Coord> = params
            .small_instance_roots()
            .into_iter()
            .take(max_roots)
            .collect();
        for &root in &roots {
            for regime in REGIMES {
                // The structure verifier ignores identifiers: small
                // instances are locally consistent under every regime.
                tree_cell(
                    plan,
                    &params,
                    cache,
                    budget,
                    "small",
                    Some(root),
                    regime,
                    "verifier",
                    "accept",
                );
                // The Id-based decider also rejects when any id reaches
                // R(r); the shifted regime plants such ids everywhere.
                let expect = if regime == "shifted" {
                    "reject"
                } else {
                    "accept"
                };
                tree_cell(
                    plan,
                    &params,
                    cache,
                    budget,
                    "small",
                    Some(root),
                    regime,
                    "id-decider",
                    expect,
                );
            }
        }
    }

    if params.large_instance_size() <= config.max_n {
        for regime in REGIMES {
            // T_r is locally consistent (it is in P'), so the oblivious
            // verifier accepts it — the heart of "P not in LD*".
            tree_cell(
                plan, &params, cache, budget, "large", None, regime, "verifier", "accept",
            );
            // With n = |T_r| nodes, every regime hands some node an id
            // >= R(r), so the Id-based decider rejects.
            tree_cell(
                plan,
                &params,
                cache,
                budget,
                "large",
                None,
                regime,
                "id-decider",
                "reject",
            );
        }
        // Figure-1 coverage at every radius up to the sweep radius
        // (default 1; `--radius` raises it — radius 3 is where the
        // budgeted radius-3 machinery earns its keep).
        for radius in 0..=coverage_radius {
            coverage_cell(plan, &params, cache, budget, radius, max_roots);
        }
    }

    Ok(params.small_instance_size())
}

/// Plans the promise-cycle portion of `section2-sweep`: the yes/no decision
/// cells plus the indistinguishability views cell, for every `r` whose
/// no-instance (`3r`-cycle) fits `max_n`.  Shared with the scenario DSL's
/// `section2-promise` stanza.
pub(crate) fn promise_decider_cells(plan: &mut Plan, config: &SweepConfig, views_radius: usize) {
    let budget = config.enumeration_budget();
    // Promise cycles: the no-instance is the f(r) = 3r cycle, so the
    // pair fits the budget exactly when 3r <= max_n.
    let bound = IdBound::linear(3, 0);
    let max_r = (config.max_n as u64) / 3;
    for r in 3..=max_r {
        promise_cells(plan, budget, views_radius, r, &bound);
    }
}

impl Scenario for Section2Sweep {
    fn name(&self) -> &str {
        "section2-sweep"
    }

    fn description(&self) -> &str {
        "Layered-tree family and promise cycles: id regimes x algorithms x sizes, with cached views"
    }

    fn plan(&self, config: &SweepConfig) -> Result<Plan, String> {
        let mut plan = Plan::new();
        let tree_cache = plan.share_cache::<Section2Label>();

        let small_size = layered_tree_cells(
            &mut plan,
            &tree_cache,
            config,
            MAX_ROOTS,
            config.radius_or(1),
        )?;
        promise_decider_cells(&mut plan, config, config.radius_or(2));

        if plan.cells.is_empty() {
            return Err(format!(
                "max_n = {} leaves no section 2 cell; the smallest instances need {} nodes",
                config.max_n,
                small_size.min(9)
            ));
        }
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor;

    #[test]
    fn default_budget_plans_a_rich_sweep() {
        let plan = Section2Sweep.plan(&SweepConfig::default()).unwrap();
        assert!(plan.cells.len() >= 100, "{} cells", plan.cells.len());
        assert_eq!(plan.caches.len(), 1);
    }

    #[test]
    fn sweep_passes_and_hits_the_cache() {
        let config = SweepConfig {
            max_n: 30,
            threads: 1,
            seed: 41,
            ..SweepConfig::default()
        };
        let report = executor::execute(&Section2Sweep, &config).unwrap();
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
        assert!(report.cache_hit_rate() > 0.0);
    }

    #[test]
    fn tiny_budget_is_rejected_with_a_message() {
        let config = SweepConfig {
            max_n: 3,
            threads: 1,
            seed: 1,
            ..SweepConfig::default()
        };
        let err = match Section2Sweep.plan(&config) {
            Err(message) => message,
            Ok(plan) => panic!("expected a planning error, got {} cells", plan.cells.len()),
        };
        assert!(err.contains("max_n"));
    }
}
