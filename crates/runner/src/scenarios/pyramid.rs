//! `pyramid-sweep`: the quadtree-pyramid workload.
//!
//! Pyramids are the paper's example of a family whose structure is locally
//! verifiable; the sweep checks structural integrity per height and
//! enumerates distinct views per radius through the shared cache (pyramid
//! levels are self-similar, so view classes repeat heavily across heights).

use crate::cell::{CellOutcome, CellSpec};
use crate::scenario::{Plan, Scenario, SweepConfig};
use ld_constructions::pyramid::{Pyramid, PyramidLabel};
use ld_local::cache::ViewCache;
use ld_local::enumeration::{distinct_oblivious_views_of_budgeted_cached, EnumerationBudget};
use std::sync::Arc;

/// The pyramid sweep scenario.
pub struct PyramidSweep;

fn structure_cell(plan: &mut Plan, h: u32) {
    let spec = CellSpec::new(
        format!("pyramid/h={h}/structure"),
        [
            ("family", "pyramid".to_string()),
            ("h", h.to_string()),
            ("check", "structure".to_string()),
            ("expect", "valid".to_string()),
        ],
    );
    plan.push(spec, move |_seed| {
        let pyramid = Pyramid::new(h).expect("swept heights construct");
        let valid = pyramid.verify_structure();
        CellOutcome::new(if valid { "valid" } else { "invalid" }, valid)
            .with_metric("nodes", pyramid.labeled().node_count() as f64)
            .with_metric("corner_distance", pyramid.corner_distance() as f64)
    });
}

fn views_cell(plan: &mut Plan, cache: &Arc<ViewCache<PyramidLabel>>, h: u32, radius: usize) {
    let spec = CellSpec::new(
        format!("pyramid/h={h}/views/radius={radius}"),
        [
            ("family", "pyramid".to_string()),
            ("h", h.to_string()),
            ("check", "views".to_string()),
            ("radius", radius.to_string()),
            ("expect", "enumerated".to_string()),
        ],
    );
    let cache = cache.clone();
    plan.push(spec, move |_seed| {
        let pyramid = Pyramid::new(h).expect("swept heights construct");
        let (views, _) = distinct_oblivious_views_of_budgeted_cached(
            pyramid.labeled(),
            radius,
            &cache,
            EnumerationBudget::UNLIMITED,
        );
        CellOutcome::new("enumerated", !views.is_empty())
            .with_metric("distinct_views", views.len() as f64)
            .with_metric("nodes", pyramid.labeled().node_count() as f64)
    });
}

impl Scenario for PyramidSweep {
    fn name(&self) -> &str {
        "pyramid-sweep"
    }

    fn description(&self) -> &str {
        "Quadtree pyramids: structural verification and cached view enumeration per height/radius"
    }

    fn plan(&self, config: &SweepConfig) -> Result<Plan, String> {
        let mut plan = Plan::new();
        let cache = plan.share_cache::<PyramidLabel>();
        for h in 1u32.. {
            let Ok(pyramid) = Pyramid::new(h) else { break };
            if pyramid.labeled().node_count() > config.max_n {
                break;
            }
            structure_cell(&mut plan, h);
            for radius in 0..=2usize {
                views_cell(&mut plan, &cache, h, radius);
            }
        }
        if plan.cells.is_empty() {
            return Err(format!(
                "max_n = {} cannot fit the height-1 pyramid ({} nodes)",
                config.max_n,
                Pyramid::new(1).map_or(5, |p| p.labeled().node_count())
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
    fn pyramids_verify_and_enumerate() {
        let config = SweepConfig {
            max_n: 100,
            threads: 2,
            seed: 4,
            ..SweepConfig::default()
        };
        let report = executor::execute(&PyramidSweep, &config).unwrap();
        assert!(report.cells.len() >= 8, "{} cells", report.cells.len());
        assert_eq!(report.panicked(), 0);
        assert_eq!(report.failed(), 0);
        assert!(report.cache_hit_rate() > 0.0);
    }
}
