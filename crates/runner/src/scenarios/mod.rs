//! The built-in scenarios and their registry.

mod pyramid;
mod randomized;
mod randomized_xl;
mod section2;
mod section2_r3;
mod section2_xl;
mod section3;
mod table;

pub(crate) use section2::{layered_tree_cells, promise_decider_cells, MAX_ROOTS as TREE_MAX_ROOTS};
pub(crate) use section2_r3::{
    grid_profile_cells, path_cells, path_coverage_cells, promise_cells as promise_views_only_cells,
    tree_family_cells, MAX_ROOTS as R3_TREE_MAX_ROOTS, PATH_STEP,
};

pub use pyramid::PyramidSweep;
pub use randomized::RandomizedSweep;
pub use randomized_xl::RandomizedSweepXl;
pub use section2::Section2Sweep;
pub use section2_r3::Section2SweepR3;
pub use section2_xl::Section2SweepXl;
pub use section3::Section3Sweep;
pub use table::RelationshipTable;

use crate::cell::{CellOutcome, CellSpec};
use crate::scenario::{Plan, Scenario};
use ld_constructions::section2::promise;
use ld_graph::canon::CanonicalCode;
use ld_graph::LabeledGraph;
use ld_local::cache::ViewCache;
use ld_local::enumeration::{
    coverage_cached, distinct_codes_of_budgeted, distinct_oblivious_views_of_budgeted_cached,
    EnumerationBudget,
};
use ld_local::hashing::FxHashSet;
use ld_local::{BudgetUsage, IdBound};
use std::hash::Hash;
use std::sync::Arc;

/// Enumerates two instances under one shared budget — skipping the second
/// entirely once the first exhausts, so no capped work is thrown away — and
/// measures their bidirectional view coverage.  `Err` carries the usage of
/// an exhausted run; `Ok` is `(coverage of b in a, coverage of a in b,
/// usage)`.  Shared by every scenario cell that compares two instances'
/// views (promise-cycle pairs, path coverage).
#[allow(clippy::type_complexity)]
pub(crate) fn coverage_pair<L: Clone + Eq + Hash + Send + Sync>(
    a: &LabeledGraph<L>,
    b: &LabeledGraph<L>,
    radius: usize,
    cache: &ViewCache<L>,
    budget: EnumerationBudget,
) -> Result<(f64, f64, BudgetUsage), BudgetUsage> {
    let (a_views, mut usage) =
        distinct_oblivious_views_of_budgeted_cached(a, radius, cache, budget);
    if usage.exhausted {
        return Err(usage);
    }
    let (b_views, spent) =
        distinct_oblivious_views_of_budgeted_cached(b, radius, cache, budget.after(&usage));
    usage.absorb(&spent);
    if usage.exhausted {
        return Err(usage);
    }
    let forward = coverage_cached(&b_views, &a_views, cache);
    let backward = coverage_cached(&a_views, &b_views, cache);
    Ok((forward, backward, usage))
}

/// The share of `targets` that `family` holds: [`coverage_cached`] over
/// two sets of distinct views, given by their canonical codes.
fn code_coverage(
    targets: &FxHashSet<Arc<CanonicalCode>>,
    family: &FxHashSet<Arc<CanonicalCode>>,
) -> f64 {
    if targets.is_empty() {
        return 1.0;
    }
    let covered = targets.iter().filter(|code| family.contains(*code)).count();
    covered as f64 / targets.len() as f64
}

/// Plans the promise-cycle *views* cell shared by `section2-sweep` and
/// `section2-sweep-r3`: the yes-instance (`r`-cycle) and no-instance
/// (`f(r)`-cycle) are indistinguishable at view radius `t` exactly when
/// `r >= 2t + 2` — the radius-`t` ball of an `n`-cycle is a path (the view
/// the long cycle shows) iff `n >= 2t + 2`; shorter cycles see themselves
/// whole.
///
/// The cell keeps no canonical-view cache.  Every node of both instances
/// carries `CycleParamLabel { r }`, so no view of one cell can equal a view
/// of another, and each instance shows one or two distinct views: the cell
/// compares the two instances' sets of canonical codes directly.
pub(crate) fn promise_views_cell(
    plan: &mut Plan,
    budget: EnumerationBudget,
    radius: usize,
    r: u64,
    bound: &IdBound,
) {
    let expect = if r >= 2 * radius as u64 + 2 {
        "indistinguishable"
    } else {
        "distinguishable"
    };
    let spec = CellSpec::new(
        format!("promise/r={r}/views/radius={radius}"),
        [
            ("family", "cycle".to_string()),
            ("r", r.to_string()),
            ("instance", "views".to_string()),
            ("radius", radius.to_string()),
            ("expect", expect.to_string()),
        ],
    );
    let bound = bound.clone();
    plan.push(spec, move |_seed| {
        let yes = promise::yes_instance(r).expect("promise cycles construct for swept r");
        let no =
            promise::no_instance(r, &bound, 1 << 20).expect("promise cycles construct for swept r");
        let (yes_codes, mut usage) = distinct_codes_of_budgeted(&yes, radius, budget);
        if usage.exhausted {
            return CellOutcome::new("exhausted", true).with_budget(usage);
        }
        let (no_codes, spent) = distinct_codes_of_budgeted(&no, radius, budget.after(&usage));
        usage.absorb(&spent);
        if usage.exhausted {
            return CellOutcome::new("exhausted", true).with_budget(usage);
        }
        let (forward, backward) = (
            code_coverage(&no_codes, &yes_codes),
            code_coverage(&yes_codes, &no_codes),
        );
        let merged = forward == 1.0 && backward == 1.0;
        let verdict = if merged {
            "indistinguishable"
        } else {
            "distinguishable"
        };
        CellOutcome::new(verdict, verdict == expect)
            .with_metric("coverage_no_in_yes", forward)
            .with_metric("coverage_yes_in_no", backward)
            .with_budget(usage)
    });
}

/// Every built-in scenario, in `ldx list` order.
pub fn all() -> Vec<Box<dyn Scenario>> {
    vec![
        Box::new(Section2Sweep),
        Box::new(Section2SweepR3),
        Box::new(Section2SweepXl),
        Box::new(Section3Sweep),
        Box::new(PyramidSweep),
        Box::new(RandomizedSweep),
        Box::new(RandomizedSweepXl),
        Box::new(RelationshipTable),
    ]
}

/// Looks a scenario up by its `ldx` name.
pub fn find(name: &str) -> Option<Box<dyn Scenario>> {
    all().into_iter().find(|s| s.name() == name)
}

/// The machine-readable registry listing shared by `ldx list --json` and
/// the service's `GET /scenarios` endpoint: one `{name, description}`
/// object per scenario, in `ldx list` order.
pub fn listing_json() -> crate::json::Json {
    use crate::json::Json;
    Json::object().set("schema", "ld-runner/scenarios/v1").set(
        "scenarios",
        Json::Arr(
            all()
                .iter()
                .map(|s| {
                    Json::object()
                        .set("name", s.name())
                        .set("description", s.description())
                })
                .collect(),
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_complete_and_unique() {
        let scenarios = all();
        assert_eq!(scenarios.len(), 8);
        let mut names: Vec<&str> = scenarios.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 8);
        assert!(find("section2-sweep").is_some());
        assert!(find("section2-sweep-r3").is_some());
        assert!(find("section2-sweep-xl").is_some());
        assert!(find("randomized-sweep-xl").is_some());
        assert!(find("no-such-scenario").is_none());
    }

    #[test]
    fn descriptions_are_one_liners() {
        for scenario in all() {
            assert!(!scenario.description().is_empty());
            assert!(!scenario.description().contains('\n'));
        }
    }

    #[test]
    fn listing_json_mirrors_the_registry_and_round_trips() {
        let rendered = listing_json().render();
        let parsed = crate::json::Json::parse(&rendered).expect("listing must parse");
        assert_eq!(
            parsed.get("schema").and_then(crate::json::Json::as_str),
            Some("ld-runner/scenarios/v1")
        );
        let entries = parsed
            .get("scenarios")
            .and_then(crate::json::Json::as_arr)
            .expect("scenarios array");
        let registry = all();
        assert_eq!(entries.len(), registry.len());
        for (entry, scenario) in entries.iter().zip(&registry) {
            assert_eq!(
                entry.get("name").and_then(crate::json::Json::as_str),
                Some(scenario.name())
            );
            assert_eq!(
                entry.get("description").and_then(crate::json::Json::as_str),
                Some(scenario.description())
            );
        }
    }
}
