//! Scenario specs: declarative descriptions of whole experiment sweeps.
//!
//! A [`Scenario`] turns a [`SweepConfig`] into a [`Plan`]: a list of cells,
//! each paired with a closure that executes it, plus handles to the
//! canonical-view caches the cells share.  Every cache is born with its
//! plan and dropped with it; no cache outlives a sweep or is shared between
//! two plans, whether the plan runs under `ldx run`, a daemon job or the
//! `POST /shards` leases of one dispatch connection.  The executor (see [`crate::executor`]) is
//! scenario-agnostic; all domain knowledge lives in the plans.

use crate::cell::{CellOutcome, CellSpec};
use ld_local::cache::{CacheStats, ViewCache};
use ld_local::enumeration::EnumerationBudget;
use std::hash::Hash;
use std::sync::Arc;

/// The largest view radius any sweep may request.  Radius-4 balls of the
/// swept families are already large enough that enumeration cost is
/// dominated by canonicalisation of near-whole-graph views; nothing in the
/// paper needs them, and several scenario builders assume small radii, so
/// an oversized `--radius` is a configuration error, not a sweep.
pub const MAX_RADIUS: usize = 3;

/// A structurally invalid [`SweepConfig`]: the typed planning-time errors
/// that used to surface as silent empty plans or scenario-builder panics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// `max_n == 0`: no scenario can plan a cell with a zero size budget.
    ZeroMaxN,
    /// `radius > MAX_RADIUS`: the requested view radius is outside the
    /// supported envelope.
    RadiusTooLarge {
        /// The rejected radius.
        radius: usize,
    },
    /// `shard_size == 0`: the streaming pipeline cannot partition a plan
    /// into empty shards.
    ZeroShardSize,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroMaxN => write!(f, "max_n must be at least 1 (got 0)"),
            ConfigError::RadiusTooLarge { radius } => write!(
                f,
                "radius {radius} exceeds the supported maximum of {MAX_RADIUS}"
            ),
            ConfigError::ZeroShardSize => write!(f, "shard_size must be at least 1 (got 0)"),
        }
    }
}

impl std::error::Error for ConfigError {}

impl ConfigError {
    /// A stable, machine-readable identifier for the variant.  `ldx` prints
    /// it alongside the message, and `ld-serve` returns it as the `error`
    /// field of HTTP 400 bodies, so clients can dispatch on the token
    /// without parsing prose.
    pub fn token(&self) -> &'static str {
        match self {
            ConfigError::ZeroMaxN => "zero-max-n",
            ConfigError::RadiusTooLarge { .. } => "radius-too-large",
            ConfigError::ZeroShardSize => "zero-shard-size",
        }
    }

    /// The process exit code `ldx run` / `ldx resume` terminate with for
    /// this variant.  The range starts past 64 (`EX_USAGE`, which `ldx`
    /// keeps for argument-parsing failures) so each configuration defect is
    /// distinguishable in scripts; `ld-serve` embeds the same code in 400
    /// bodies so a client can exit with it verbatim.
    pub fn exit_code(&self) -> u8 {
        match self {
            ConfigError::ZeroMaxN => 65,
            ConfigError::RadiusTooLarge { .. } => 66,
            ConfigError::ZeroShardSize => 67,
        }
    }
}

/// Configuration shared by every sweep: the instance-size budget, the
/// parallelism level, the master seed from which all per-cell seeds are
/// derived, and the per-cell work budgets that keep radius-3 cells bounded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepConfig {
    /// The scenario-interpreted size budget.  Sweeps over instance families
    /// plan no cell whose instance would exceed this many nodes; scenarios
    /// with other natural scale knobs (zoo breadth, machine speed) scale
    /// those instead, and the fixed four-cell `relationship-table` ignores
    /// it.
    pub max_n: usize,
    /// Worker threads (`1` = the sequential reference path).
    pub threads: usize,
    /// Master seed; per-cell seeds are a pure function of it and the cell
    /// index.
    pub seed: u64,
    /// Optional override of the scenario's natural view radius.  Scenarios
    /// that sweep views interpret it through [`SweepConfig::radius_or`];
    /// scenarios with no radius knob ignore it.
    pub radius: Option<usize>,
    /// Per-cell cap on ball-node visits during view enumeration (`None` =
    /// unlimited).  Exhaustion is a deterministic, explicitly reported cell
    /// outcome, not a failure — see `crates/runner/DESIGN.md`.
    pub node_budget: Option<u64>,
    /// Per-cell cap on materialised views (`None` = unlimited).
    pub view_budget: Option<u64>,
    /// Cells per shard for the streaming pipeline (see [`crate::stream`]).
    /// Shards are the unit of work claiming, result buffering and
    /// checkpointing; the value never affects *cell* records — only how
    /// much of the sweep is in flight at once.  It is recorded in the
    /// report's `config` object (like `seed`), so byte-comparing two
    /// deterministic reports requires the same shard size, as every CI
    /// diff and the resume path use.
    pub shard_size: usize,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            max_n: 128,
            threads: 1,
            seed: 0x1d_2013,
            radius: None,
            node_budget: None,
            view_budget: None,
            shard_size: 16,
        }
    }
}

impl SweepConfig {
    /// Checks the configuration for structural validity before any scenario
    /// sees it.  Every sweep entry point ([`crate::executor::execute`], the
    /// streaming pipeline, `ldx`) validates first, so scenario builders can
    /// assume `max_n >= 1`, `radius <= MAX_RADIUS` and `shard_size >= 1`.
    ///
    /// # Errors
    ///
    /// Returns the typed [`ConfigError`] describing the first violated
    /// constraint.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.max_n == 0 {
            return Err(ConfigError::ZeroMaxN);
        }
        if let Some(radius) = self.radius {
            if radius > MAX_RADIUS {
                return Err(ConfigError::RadiusTooLarge { radius });
            }
        }
        if self.shard_size == 0 {
            return Err(ConfigError::ZeroShardSize);
        }
        Ok(())
    }

    /// The sweep radius: the explicit `--radius` override when given, the
    /// scenario's natural default otherwise.
    pub fn radius_or(&self, default: usize) -> usize {
        self.radius.unwrap_or(default)
    }

    /// The per-cell enumeration budget this configuration implies
    /// (unlimited in every dimension left `None`).
    pub fn enumeration_budget(&self) -> EnumerationBudget {
        EnumerationBudget {
            max_nodes: self.node_budget.unwrap_or(u64::MAX),
            max_views: self.view_budget.unwrap_or(u64::MAX),
        }
    }

    /// The per-cell budget with a scenario-supplied default: an explicit
    /// `--node-budget` / `--view-budget` always wins, but when neither was
    /// set, `default` caps the cell instead of "unlimited".  The XL
    /// scenarios pass [`EnumerationBudget::scaled`] here so large-N cells
    /// are never uncapped.
    pub fn enumeration_budget_or(&self, default: EnumerationBudget) -> EnumerationBudget {
        if self.node_budget.is_none() && self.view_budget.is_none() {
            default
        } else {
            self.enumeration_budget()
        }
    }
}

/// The executable form of one cell: its spec plus the closure that runs it.
pub struct PlannedCell {
    /// The declarative spec (everything reports record about the cell's
    /// parameters).
    pub spec: CellSpec,
    /// Executes the cell.  Receives the per-cell seed; must be deterministic
    /// in (spec, seed).  May panic — the executor isolates panics.
    pub run: Box<dyn Fn(u64) -> CellOutcome + Send + Sync>,
}

impl PlannedCell {
    /// Pairs a spec with its executor closure.
    pub fn new(spec: CellSpec, run: impl Fn(u64) -> CellOutcome + Send + Sync + 'static) -> Self {
        PlannedCell {
            spec,
            run: Box::new(run),
        }
    }
}

/// Anything that can report canonical-view-cache counters.  Lets a plan
/// expose caches of different label types uniformly.
pub trait CacheStatsSource: Send + Sync {
    /// Current counters.
    fn stats(&self) -> CacheStats;
}

impl<L: Send + Sync> CacheStatsSource for ViewCache<L> {
    fn stats(&self) -> CacheStats {
        ViewCache::stats(self)
    }
}

/// A fully expanded sweep, ready for the executor.
pub struct Plan {
    /// The cells, in planning order (which is also report order).
    pub cells: Vec<PlannedCell>,
    /// The shared caches the cells consult, for hit-rate reporting.  One
    /// entry per label family the scenario touches.
    pub caches: Vec<Arc<dyn CacheStatsSource>>,
}

impl Plan {
    /// An empty plan.
    pub fn new() -> Self {
        Plan {
            cells: Vec::new(),
            caches: Vec::new(),
        }
    }

    /// Creates an empty cache for this plan's cells to share, registers it
    /// for stats reporting and returns it for cell closures to capture.
    ///
    /// Every call builds a fresh cache: the plan's cells share it, and it
    /// is dropped with the plan and the last cell closure that captured it.
    pub fn share_cache<L>(&mut self) -> Arc<ViewCache<L>>
    where
        L: Clone + Eq + Hash + Send + Sync + 'static,
    {
        let cache = Arc::new(ViewCache::new());
        self.caches.push(cache.clone());
        cache
    }

    /// Adds a cell.
    pub fn push(
        &mut self,
        spec: CellSpec,
        run: impl Fn(u64) -> CellOutcome + Send + Sync + 'static,
    ) {
        self.cells.push(PlannedCell::new(spec, run));
    }

    /// The merged counters of every registered cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.caches
            .iter()
            .fold(CacheStats::default(), |acc, c| acc.merged(&c.stats()))
    }
}

impl Default for Plan {
    fn default() -> Self {
        Self::new()
    }
}

/// A named, declarative experiment sweep.
///
/// Implementations expand a [`SweepConfig`] into a [`Plan`]; they hold no
/// per-run state themselves, so one scenario value can plan any number of
/// sweeps.
pub trait Scenario: Sync {
    /// The stable name `ldx` addresses the scenario by (kebab-case).
    ///
    /// Borrowed from the scenario value (not `'static`): built-in scenarios
    /// return literals, while file-defined scenarios (see [`crate::dsl`])
    /// return names owned by the parsed document.
    fn name(&self) -> &str;

    /// One-line human description for `ldx list`.
    fn description(&self) -> &str;

    /// Expands the scenario into concrete cells under `config`.
    ///
    /// # Errors
    ///
    /// Returns a message when the configuration cannot produce a valid plan
    /// (construction failures, impossible parameter ranges).
    fn plan(&self, config: &SweepConfig) -> Result<Plan, String>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellOutcome;

    #[test]
    fn plan_accumulates_cells_and_caches() {
        let mut plan = Plan::new();
        let cache = plan.share_cache::<u8>();
        plan.push(CellSpec::new("a", []), move |_seed| {
            let _ = cache.stats();
            CellOutcome::new("ok", true)
        });
        assert_eq!(plan.cells.len(), 1);
        assert_eq!(plan.caches.len(), 1);
        assert_eq!(plan.cache_stats(), CacheStats::default());
        let outcome = (plan.cells[0].run)(7);
        assert!(outcome.pass);
    }

    #[test]
    fn default_config_is_the_documented_one() {
        let config = SweepConfig::default();
        assert_eq!(config.max_n, 128);
        assert_eq!(config.threads, 1);
        assert_eq!(config.radius, None);
        assert_eq!(config.node_budget, None);
        assert_eq!(config.view_budget, None);
        assert_eq!(config.shard_size, 16);
    }

    #[test]
    fn validation_rejects_degenerate_configs_with_typed_errors() {
        assert_eq!(SweepConfig::default().validate(), Ok(()));
        let zero_n = SweepConfig {
            max_n: 0,
            ..SweepConfig::default()
        };
        assert_eq!(zero_n.validate(), Err(ConfigError::ZeroMaxN));
        let wide = SweepConfig {
            radius: Some(4),
            ..SweepConfig::default()
        };
        assert_eq!(
            wide.validate(),
            Err(ConfigError::RadiusTooLarge { radius: 4 })
        );
        assert!(wide
            .validate()
            .unwrap_err()
            .to_string()
            .contains("radius 4"));
        let in_range = SweepConfig {
            radius: Some(MAX_RADIUS),
            ..SweepConfig::default()
        };
        assert_eq!(in_range.validate(), Ok(()));
        let no_shards = SweepConfig {
            shard_size: 0,
            ..SweepConfig::default()
        };
        assert_eq!(no_shards.validate(), Err(ConfigError::ZeroShardSize));
    }

    #[test]
    fn config_errors_map_to_distinct_exit_codes_and_tokens() {
        let variants = [
            ConfigError::ZeroMaxN,
            ConfigError::RadiusTooLarge { radius: 9 },
            ConfigError::ZeroShardSize,
        ];
        let codes: Vec<u8> = variants.iter().map(ConfigError::exit_code).collect();
        let tokens: Vec<&str> = variants.iter().map(ConfigError::token).collect();
        assert_eq!(codes, vec![65, 66, 67]);
        assert_eq!(
            tokens,
            vec!["zero-max-n", "radius-too-large", "zero-shard-size"]
        );
        for code in &codes {
            assert!(*code > 64, "codes stay clear of EX_USAGE and below");
        }
    }

    #[test]
    fn two_plans_never_share_a_cache() {
        use ld_graph::{generators, LabeledGraph};
        use ld_local::enumeration::distinct_oblivious_views_of_budgeted_cached;

        let mut plan_a = Plan::new();
        let mut plan_b = Plan::new();
        let a = plan_a.share_cache::<u8>();
        let b = plan_b.share_cache::<u8>();
        assert!(!Arc::ptr_eq(&a, &b), "each plan builds its own cache");
        // Warming one plan's cache leaves the other cold.
        let cycle = LabeledGraph::uniform(generators::cycle(12), 0u8);
        distinct_oblivious_views_of_budgeted_cached(&cycle, 2, &a, EnumerationBudget::UNLIMITED);
        assert!(plan_a.cache_stats().misses > 0);
        assert_eq!(plan_b.cache_stats(), CacheStats::default());
        // A second cache of the same label type in one plan is fresh too.
        let c = plan_a.share_cache::<u8>();
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(c.stats(), CacheStats::default());
    }

    #[test]
    fn budget_and_radius_helpers() {
        let config = SweepConfig::default();
        assert_eq!(config.radius_or(3), 3);
        assert_eq!(config.enumeration_budget(), EnumerationBudget::UNLIMITED);
        let capped = SweepConfig {
            radius: Some(2),
            node_budget: Some(1_000),
            view_budget: Some(50),
            ..SweepConfig::default()
        };
        assert_eq!(capped.radius_or(3), 2);
        let budget = capped.enumeration_budget();
        assert_eq!(budget.max_nodes, 1_000);
        assert_eq!(budget.max_views, 50);
    }
}
