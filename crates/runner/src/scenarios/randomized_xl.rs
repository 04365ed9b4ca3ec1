//! `randomized-sweep-xl`: Corollary 1 at scale, through the budgeted
//! enumeration path.
//!
//! The base `randomized-sweep` estimates one acceptance rate per cell and
//! stops there.  The XL variant widens the machine ladder (speeds up to
//! `k = 32` at the default `--max-n 128`, `k = 128` at `--max-n 512`) and
//! makes each cell also
//! *measure* the instance it decided: the distinct radius-1 oblivious
//! views of the GMR execution-table graph, enumerated through the budgeted
//! path ([`distinct_oblivious_views_of_budgeted_cached`]) against a cache
//! shared across the whole sweep.  That pins two facts per cell — the
//! randomised decider's one-sided error *and* the view-collapse that makes
//! the table family hard for Id-oblivious deciders (distinct views grow
//! with the window alphabet, not with `n`) — while exercising exactly the
//! budget plumbing the streaming pipeline relies on for large cells.
//! Cells run under the explicit sweep budget when given, otherwise under
//! the scenario-default [`EnumerationBudget::scaled`].

use crate::cell::{CellOutcome, CellSpec};
use crate::scenario::{Plan, Scenario, SweepConfig};
use ld_constructions::fragments::FragmentSource;
use ld_constructions::section3::Section3Label;
use ld_deciders::randomized::{failure_probability_bound, RandomizedGmrDecider};
use ld_deciders::section3::gmr_input;
use ld_local::cache::ViewCache;
use ld_local::decision;
use ld_local::enumeration::{distinct_oblivious_views_of_budgeted_cached, EnumerationBudget};
use ld_turing::zoo;
use ld_turing::Symbol;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

const SOURCE: FragmentSource = FragmentSource::WindowsAndDecoys;
const TRIALS: usize = 16;
const CAP: u64 = 1 << 20;

/// The machine-speed ladder: `k`-step walkers up to the `max_n` gate
/// (`4k <= max_n`, always keeping the two quickest).
const SPEEDS: [u8; 8] = [2, 4, 8, 16, 24, 32, 64, 128];

/// The large-N randomised-decider sweep scenario.
pub struct RandomizedSweepXl;

fn xl_cell(
    plan: &mut Plan,
    cache: &Arc<ViewCache<Section3Label>>,
    budget: EnumerationBudget,
    k: u8,
    instance: &'static str,
) {
    let spec = CellSpec::new(
        format!("randomized-xl/k={k}/instance={instance}"),
        [
            ("family", "gmr".to_string()),
            ("k", k.to_string()),
            ("instance", instance.to_string()),
            ("alg", "randomized-gmr+budgeted-views".to_string()),
            ("trials", TRIALS.to_string()),
            (
                "expect",
                if instance == "yes" {
                    "always-accepted"
                } else {
                    "sometimes-rejected"
                }
                .to_string(),
            ),
        ],
    );
    let cache = cache.clone();
    plan.push(spec, move |seed| {
        let output = Symbol(if instance == "yes" { 0 } else { 1 });
        let machine = zoo::halts_with_output(k, output);
        let input = gmr_input(&machine.machine, 1, 10_000, SOURCE)
            .expect("halts_with_output machines halt within fuel");
        let mut rng = StdRng::seed_from_u64(seed);
        let decider = RandomizedGmrDecider::new(CAP);
        let rate = decision::estimate_acceptance(&input, &decider, TRIALS, &mut rng);
        let n = input.node_count();

        // The budgeted enumeration path: measure the instance's distinct
        // radius-1 views under the cell budget.  Exhaustion is an explicit
        // outcome, never a stall.
        let (views, usage) =
            distinct_oblivious_views_of_budgeted_cached(input.labeled(), 1, &cache, budget);
        if usage.exhausted {
            return CellOutcome::new("exhausted", true)
                .with_metric("acceptance_rate", rate)
                .with_budget(usage);
        }

        let (verdict, rate_ok) = if instance == "yes" {
            // One-sided error: every trial on a yes-instance must accept.
            (
                if rate == 1.0 {
                    "always-accepted"
                } else {
                    "sometimes-rejected"
                },
                rate == 1.0,
            )
        } else {
            // A no-instance must be caught at least once in the trials
            // (the per-trial slip probability is far below 1/TRIALS here).
            (
                if rate < 1.0 {
                    "sometimes-rejected"
                } else {
                    "always-accepted"
                },
                rate < 1.0,
            )
        };
        // Execution tables wallpaper the same windows: the distinct-view
        // count must collapse far below the node count.
        let views_collapse = views.len() < n;
        CellOutcome::new(verdict, rate_ok && views_collapse)
            .with_metric("acceptance_rate", rate)
            .with_metric("nodes", n as f64)
            .with_metric("distinct_views", views.len() as f64)
            .with_metric("failure_bound", failure_probability_bound(n))
            .with_budget(usage)
    });
}

impl Scenario for RandomizedSweepXl {
    fn name(&self) -> &str {
        "randomized-sweep-xl"
    }

    fn description(&self) -> &str {
        "Corollary 1 at scale: Monte-Carlo acceptance plus budgeted view enumeration per GMR instance"
    }

    fn plan(&self, config: &SweepConfig) -> Result<Plan, String> {
        let budget = config.enumeration_budget_or(EnumerationBudget::scaled(config.max_n, 1));
        let mut plan = Plan::new();
        let cache = plan.share_cache::<Section3Label>();
        let ks: Vec<u8> = SPEEDS
            .into_iter()
            .enumerate()
            .filter(|&(i, k)| i < 2 || usize::from(k) * 4 <= config.max_n)
            .map(|(_, k)| k)
            .collect();
        for k in ks {
            xl_cell(&mut plan, &cache, budget, k, "yes");
            xl_cell(&mut plan, &cache, budget, k, "no");
        }
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor;

    #[test]
    fn xl_ladder_scales_with_max_n() {
        let small = RandomizedSweepXl
            .plan(&SweepConfig {
                max_n: 16,
                ..SweepConfig::default()
            })
            .unwrap();
        assert_eq!(small.cells.len(), 4); // only the always-kept k = 2, 4
        let xl = RandomizedSweepXl
            .plan(&SweepConfig {
                max_n: 512,
                ..SweepConfig::default()
            })
            .unwrap();
        assert_eq!(xl.cells.len(), 16); // the full ladder, both instances
        assert_eq!(xl.caches.len(), 1);
    }

    #[test]
    fn rates_and_view_collapse_hold_across_the_ladder() {
        let config = SweepConfig {
            max_n: 64,
            threads: 2,
            seed: 2026,
            ..SweepConfig::default()
        };
        let report = executor::execute(&RandomizedSweepXl, &config).unwrap();
        assert!(report.cells.len() >= 8);
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
        assert_eq!(report.exhausted(), 0, "the scaled default must be generous");
        for cell in &report.cells {
            let outcome = cell.outcome.as_ref().unwrap();
            assert!(outcome.budget.is_some(), "{}", cell.spec.id);
            assert!(
                outcome.metric("distinct_views").unwrap() < outcome.metric("nodes").unwrap(),
                "{} views did not collapse",
                cell.spec.id
            );
        }
    }

    #[test]
    fn tight_view_budget_exhausts_deterministically() {
        let config = SweepConfig {
            max_n: 16,
            seed: 7,
            view_budget: Some(2),
            ..SweepConfig::default()
        };
        let a = executor::execute(&RandomizedSweepXl, &config).unwrap();
        let b = executor::execute(&RandomizedSweepXl, &config).unwrap();
        assert!(a.exhausted() > 0, "a 2-view budget must exhaust GMR cells");
        assert_eq!(a.failed(), 0);
        assert_eq!(a.deterministic_json(), b.deterministic_json());
    }
}
