//! # ld-runner — experiment orchestration for the local-decision workspace
//!
//! The paper's experiments (and the GKS-game line of follow-up work) live
//! and die by parameter sweeps: family × size × radius × identifier regime ×
//! algorithm, thousands of cells at a time.  This crate turns the hand-rolled
//! example binaries into declarative, parallel, machine-readable sweeps:
//!
//! * **Scenario specs** ([`scenario`]) — a [`Scenario`] expands a
//!   [`SweepConfig`] into a [`Plan`]: one closure per fully determined
//!   parameter cell.  Built-ins in [`scenarios`] cover the Section 2
//!   layered trees, the Section 3 execution tables, pyramids, the
//!   randomised decider, and the summary table.
//! * **One sweep driver** ([`stream`]) — the plan is partitioned into
//!   deterministic shards; workers feed a bounded channel to a single
//!   writer that emits shards in index order, so peak memory is O(shard
//!   window), not O(plan).  Per-cell seeds derive from the cell *index*
//!   and panics are isolated per cell ([`executor`]), so `--threads 8`
//!   reports are byte-equal to `--threads 1` reports.  The driver feeds
//!   two sinks: [`stream::run`] appends schema-`v3` cells to a report file
//!   and records every flushed shard in a `.ckpt` sidecar, so a killed
//!   sweep resumes from its last shard ([`stream::resume`]) and
//!   byte-matches an uninterrupted run; [`executor::execute`] collects the
//!   same shards into an in-memory [`RunReport`].  The large-N scenarios
//!   (`section2-sweep-xl` at 512+ nodes, `randomized-sweep-xl`) ride on
//!   the streaming headroom, with scenario-default budgets
//!   (`EnumerationBudget::scaled`) capping every cell.
//! * **Shared canonical-view caches** (`ld_local::cache`, one per label
//!   type per plan, threaded through the view enumerations and the
//!   Section 2 verifier's decisions) — the hot path of every indistinguishability harness,
//!   computed once per structural class per sweep.
//! * **Work budgets** — the Section 2 scenarios run their view-enumerating
//!   cells under the sweep's [`SweepConfig::enumeration_budget`] (node/view
//!   caps); exhaustion is a deterministic, explicitly reported *outcome*
//!   ([`CellOutcome::budget`]), which is what lets the radius-3 scenario
//!   (`section2-sweep-r3`) sweep `--max-n 128` safely.  Scenarios without a
//!   budget knob ignore the caps, as `relationship-table` ignores `max_n`.
//! * **Reporters** ([`report`]) — JSON run records (schema
//!   `ld-runner/report/v3`: header, append-only `cells` stream, trailing
//!   summary), all written by the one [`stream::ReportStream`] writer,
//!   CSV rows for `ldx run --csv`, the flat perf snapshot `ldx run --bench-json` writes, and a
//!   version-compatible reader ([`summary`]) that parses v3 and the legacy
//!   v2/v1 documents alike — which is what `ldx diff` compares any two
//!   persisted reports with.
//!
//! The `ldx` binary (`crates/serve/src/bin/ldx.rs`, in `ld-serve`) lists,
//! runs, resumes and diffs sweeps by name:
//!
//! ```text
//! ldx list
//! ldx run section2-sweep --max-n 128 --threads 8
//! ldx run section2-sweep-xl --max-n 512 --deterministic
//! ldx resume ldx-section2-sweep-xl.json
//! ldx diff ldx-section2-sweep-xl.json archived-run.json
//! ```
//!
//! # Example
//!
//! ```
//! use ld_runner::{executor, scenarios, SweepConfig};
//!
//! let config = SweepConfig { max_n: 16, threads: 2, seed: 1, ..SweepConfig::default() };
//! let report = executor::execute(&scenarios::PyramidSweep, &config).unwrap();
//! assert_eq!(report.panicked(), 0);
//! let json = report.to_json();
//! assert!(json.starts_with("{"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cell;
pub mod dsl;
pub mod executor;
pub mod json;
pub mod report;
pub mod scenario;
pub mod scenarios;
pub mod spool_io;
pub mod stream;
pub mod summary;

pub use cell::{CellOutcome, CellResult, CellSpec};
pub use dsl::{DslError, ScenarioDoc};
pub use report::RunReport;
pub use scenario::{with_cache_pool, ConfigError, Plan, PlannedCell, Scenario, SweepConfig};
pub use spool_io::{FaultIo, RealIo, SpoolFile, SpoolIo};
pub use stream::{StreamOptions, StreamSummary};
pub use summary::{CellSummary, ReportSummary};
