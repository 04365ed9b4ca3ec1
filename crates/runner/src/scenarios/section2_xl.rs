//! `section2-sweep-xl`: the Section 2 radius-3 families at large N.
//!
//! Same cell families as `section2-sweep-r3` — closed-form paths,
//! cross-size path coverage, grid incremental-profile differentials,
//! distinctly-labelled layered trees and promise cycles — but sized for the
//! streaming pipeline's headroom: the default sweep is `--max-n 512`
//! (hundreds of cells, grids up to 22×22, promise cycles past length 500),
//! the path stride scales with `max_n` so the family stays dense without
//! planning thousands of near-identical cells, and **every** cell runs
//! under a budget: the explicit `--node-budget`/`--view-budget` when given,
//! otherwise the scenario default [`EnumerationBudget::scaled`], so a
//! pathological cell exhausts deterministically instead of stalling its
//! shard.  Exhaustion under the scaled default would itself be a finding —
//! the acceptance sweep completes with zero exhausted cells.

use super::section2_r3::plan_radius3_families;
use crate::scenario::{Plan, Scenario, SweepConfig};
use ld_local::enumeration::EnumerationBudget;

/// The swept path sizes step `max_n / XL_PATH_STRIDE_DIVISOR` apart (at
/// least 8), keeping the path family at roughly sixteen cells whatever the
/// scale.
const XL_PATH_STRIDE_DIVISOR: usize = 16;

/// The large-N Section 2 sweep scenario.
pub struct Section2SweepXl;

impl Scenario for Section2SweepXl {
    fn name(&self) -> &str {
        "section2-sweep-xl"
    }

    fn description(&self) -> &str {
        "Large-N radius-3 Section 2 families (paths, grids, trees, promise cycles), budget-capped by default"
    }

    fn plan(&self, config: &SweepConfig) -> Result<Plan, String> {
        let budget = config
            .enumeration_budget_or(EnumerationBudget::scaled(config.max_n, config.radius_or(3)));
        let step = (config.max_n / XL_PATH_STRIDE_DIVISOR).max(8);
        plan_radius3_families(config, budget, step)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor;

    #[test]
    fn xl_plan_covers_every_family_at_512() {
        let config = SweepConfig {
            max_n: 512,
            ..SweepConfig::default()
        };
        let plan = Section2SweepXl.plan(&config).unwrap();
        assert!(plan.cells.len() >= 150, "{} cells", plan.cells.len());
        assert_eq!(plan.caches.len(), 2);
        for family in [
            "path/",
            "path-coverage/",
            "grid-profile/",
            "tree/",
            "promise/",
        ] {
            assert!(
                plan.cells.iter().any(|c| c.spec.id.starts_with(family)),
                "no {family} cells planned"
            );
        }
        // Grids reach 22×22 and promise cycles pass length 500 at this
        // scale — the envelope the streaming pipeline exists for.
        assert!(plan
            .cells
            .iter()
            .any(|c| c.spec.id.contains("grid-profile/side=21")));
        assert!(plan
            .cells
            .iter()
            .any(|c| c.spec.id.contains("promise/r=170")));
    }

    #[test]
    fn xl_cells_always_carry_a_budget_record() {
        let config = SweepConfig {
            max_n: 48,
            threads: 2,
            ..SweepConfig::default()
        };
        let report = executor::execute(&Section2SweepXl, &config).unwrap();
        assert_eq!(report.failed() + report.panicked(), 0);
        assert_eq!(report.exhausted(), 0, "the scaled default must be generous");
        for cell in &report.cells {
            let outcome = cell.outcome.as_ref().unwrap();
            assert!(
                outcome.budget.is_some(),
                "{} ran without a budget record",
                cell.spec.id
            );
        }
    }

    #[test]
    fn explicit_budget_flags_override_the_scaled_default() {
        let config = SweepConfig {
            max_n: 48,
            node_budget: Some(64),
            ..SweepConfig::default()
        };
        let a = executor::execute(&Section2SweepXl, &config).unwrap();
        let b = executor::execute(&Section2SweepXl, &config).unwrap();
        assert!(a.exhausted() > 0, "a 64-node budget must exhaust XL cells");
        assert_eq!(a.failed(), 0, "exhaustion is an outcome, not a failure");
        assert_eq!(a.deterministic_json(), b.deterministic_json());
    }

    #[test]
    fn tiny_size_budget_is_rejected_with_a_message() {
        let err = match Section2SweepXl.plan(&SweepConfig {
            max_n: 3,
            ..SweepConfig::default()
        }) {
            Err(message) => message,
            Ok(plan) => panic!("expected a planning error, got {} cells", plan.cells.len()),
        };
        assert!(err.contains("max_n"));
    }
}
