//! Machine-readable run records.
//!
//! One in-memory sweep ([`crate::executor::execute`]) produces one
//! [`RunReport`], which renders two ways:
//!
//! * [`RunReport::to_json`] — the full record: config, every cell (params,
//!   seed, verdict, metrics), and a `perf` section (wall times, thread
//!   count, cache hit rate).
//! * [`RunReport::deterministic_json`] — the same record *minus* everything
//!   timing- or parallelism-dependent.  Two runs of the same scenario with
//!   the same seed and `max_n` must agree on it byte for byte, whatever the
//!   thread count — the determinism harness asserts exactly this.
//!
//! The current schema is `ld-runner/report/v3`: a header (schema, scenario,
//! config), the `cells` array in cell-index order, and a trailing `summary`
//! object — summary *after* cells, so the document can be written as an
//! append-only stream without buffering the sweep.  The free functions in
//! this module ([`config_json`], [`cell_json`], [`summary_json`],
//! [`perf_json`], [`csv_header`], [`csv_row`]) build the fragments, and
//! [`ReportStream`] is the one writer that assembles them: `ldx run`
//! streams a report file through it, and a [`RunReport`] renders through it
//! into memory.  `ldx run --csv` writes [`csv_header`] and one [`csv_row`]
//! per cell beside the JSON report.
//! [`crate::summary::ReportSummary`] reads v3 plus the legacy v2 and v1
//! documents back.

use crate::cell::CellResult;
use crate::json::Json;
use crate::scenario::SweepConfig;
use crate::stream::ReportStream;
use ld_local::cache::CacheStats;
use std::time::Duration;

/// The complete record of one executed sweep.
#[derive(Debug)]
pub struct RunReport {
    /// Scenario name.
    pub scenario: String,
    /// The configuration the sweep ran under.
    pub config: SweepConfig,
    /// Per-cell results, in planning order.
    pub cells: Vec<CellResult>,
    /// Workers that ran the cells: `config.threads` clamped to the shard
    /// count and the hardware, as `perf.threads` records it.
    pub workers: usize,
    /// Wall-clock time of the whole sweep.
    pub total_wall: Duration,
    /// Canonical-view-cache counters accumulated during this run.
    pub cache: CacheStats,
}

impl RunReport {
    /// Assembles a report (used by the executor).
    pub fn new(
        scenario: &str,
        config: SweepConfig,
        cells: Vec<CellResult>,
        workers: usize,
        total_wall: Duration,
        cache: CacheStats,
    ) -> Self {
        RunReport {
            scenario: scenario.to_string(),
            config,
            cells,
            workers,
            total_wall,
            cache,
        }
    }

    /// Number of cells that completed with a matching verdict.
    pub fn passed(&self) -> usize {
        self.cells.iter().filter(|c| c.passed()).count()
    }

    /// Number of cells that completed with a verdict that missed its
    /// expectation.
    pub fn failed(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| !c.passed() && !c.panicked())
            .count()
    }

    /// Number of cells that panicked.
    pub fn panicked(&self) -> usize {
        self.cells.iter().filter(|c| c.panicked()).count()
    }

    /// Number of cells that completed but had their work budget exhausted
    /// (an explicit outcome, counted separately from failures).
    pub fn exhausted(&self) -> usize {
        self.cells.iter().filter(|c| c.exhausted()).count()
    }

    /// The cache hit rate over this run.
    pub fn cache_hit_rate(&self) -> f64 {
        self.cache.hit_rate()
    }

    /// Renders the deterministic document (no timings, no thread count, no
    /// cache counters): identical across thread counts and machines for a
    /// fixed (scenario, seed, max_n, radius, budgets), and byte-identical
    /// to the file `ldx run --deterministic` streams for the same sweep.
    ///
    /// Schema `ld-runner/report/v3`; see `crates/runner/DESIGN.md` for the
    /// v2 → v3 migration notes, and [`crate::summary::ReportSummary`] for a
    /// reader that accepts all three schema versions.
    pub fn deterministic_json(&self) -> String {
        self.render(None)
    }

    /// Renders the full report: the deterministic document plus a `perf`
    /// section.
    pub fn to_json(&self) -> String {
        let walls: Vec<u64> = self
            .cells
            .iter()
            .map(|c| c.wall.as_micros() as u64)
            .collect();
        self.render(Some(perf_json(
            self.workers,
            self.total_wall,
            &walls,
            &self.cache,
        )))
    }

    /// Writes the document through [`ReportStream`], the one v3 renderer.
    fn render(&self, perf: Option<Json>) -> String {
        let summary = summary_json(
            self.cells.len(),
            self.passed(),
            self.failed(),
            self.panicked(),
            self.exhausted(),
        );
        let written =
            ReportStream::begin(Vec::new(), &self.scenario, &self.config).and_then(|mut stream| {
                stream.write_cells(&self.cells)?;
                stream.finish(summary, perf)
            });
        written
            .ok()
            .and_then(|bytes| String::from_utf8(bytes).ok())
            // ld-analyze: allow(D004, reason = "invariant: writing into a Vec<u8> cannot fail, and every fragment is a Rust string")
            .expect("an in-memory report renders as UTF-8")
    }
}

/// The schema identifier this reporter (and the streaming writer) emits.
pub const SCHEMA: &str = "ld-runner/report/v3";

/// The `config` object of a v3 document: the deterministic sweep knobs,
/// with unset options rendered as `null`.
pub fn config_json(config: &SweepConfig) -> Json {
    let optional_u64 = |v: Option<u64>| v.map_or(Json::Null, Json::U64);
    Json::object()
        .set("max_n", config.max_n)
        .set("seed", config.seed)
        .set(
            "radius",
            config.radius.map_or(Json::Null, |r| Json::U64(r as u64)),
        )
        .set("node_budget", optional_u64(config.node_budget))
        .set("view_budget", optional_u64(config.view_budget))
        .set("shard_size", config.shard_size)
}

/// The deterministic record of one cell (no timing).
pub fn cell_json(cell: &CellResult) -> Json {
    let mut obj = Json::object()
        .set("id", cell.spec.id.as_str())
        .set(
            "params",
            Json::Obj(
                cell.spec
                    .params
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::from(v.as_str())))
                    .collect(),
            ),
        )
        .set("seed", cell.seed);
    match &cell.outcome {
        Ok(outcome) => {
            obj = obj
                .set("status", "completed")
                .set("verdict", outcome.verdict.as_str())
                .set("pass", outcome.pass)
                .set(
                    "metrics",
                    Json::Obj(
                        outcome
                            .metrics
                            .iter()
                            .map(|(k, v)| (k.clone(), Json::F64(*v)))
                            .collect(),
                    ),
                );
            // Budgeted cells report their spend and whether they were cut
            // off; unbudgeted cells omit the key.
            if let Some(budget) = outcome.budget {
                obj = obj.set(
                    "budget",
                    Json::object()
                        .set("exhausted", budget.exhausted)
                        .set("nodes_visited", budget.nodes_visited)
                        .set("views_materialized", budget.views_materialized),
                );
            }
        }
        Err(message) => {
            obj = obj.set("status", "panicked").set("error", message.as_str());
        }
    }
    obj
}

/// The trailing `summary` object of a v3 document.
pub fn summary_json(
    cell_count: usize,
    passed: usize,
    failed: usize,
    panicked: usize,
    exhausted: usize,
) -> Json {
    Json::object()
        .set("cell_count", cell_count)
        .set("passed", passed)
        .set("failed", failed)
        .set("panicked", panicked)
        .set("exhausted", exhausted)
}

/// The `perf` object of a full (non-deterministic) report.
pub fn perf_json(threads: usize, total_wall: Duration, walls: &[u64], cache: &CacheStats) -> Json {
    Json::object()
        .set("threads", threads)
        .set("total_wall_micros", total_wall.as_micros() as u64)
        .set(
            "cells_per_second",
            if total_wall.as_secs_f64() > 0.0 {
                walls.len() as f64 / total_wall.as_secs_f64()
            } else {
                0.0
            },
        )
        .set(
            "cell_wall_micros",
            Json::Arr(walls.iter().map(|&w| Json::U64(w)).collect()),
        )
        .set(
            "cache",
            Json::object()
                .set("hits", cache.hits)
                .set("misses", cache.misses)
                .set("entries", cache.entries)
                .set("hit_rate", cache.hit_rate()),
        )
}

/// The CSV header row of `ldx run --csv`; `with_wall` adds the
/// non-deterministic `wall_micros` column.
pub fn csv_header(with_wall: bool) -> String {
    let mut out = String::from("scenario,cell,seed,status,verdict,pass,params,metrics,budget");
    if with_wall {
        out.push_str(",wall_micros");
    }
    out.push('\n');
    out
}

/// One CSV row for `cell`, newline-terminated.
pub fn csv_row(scenario: &str, cell: &CellResult, with_wall: bool) -> String {
    let params = cell
        .spec
        .params
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect::<Vec<_>>()
        .join(";");
    let (status, verdict, pass, metrics, budget) = match &cell.outcome {
        Ok(outcome) => (
            "completed",
            outcome.verdict.clone(),
            outcome.pass.to_string(),
            outcome
                .metrics
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect::<Vec<_>>()
                .join(";"),
            outcome.budget.map_or(String::new(), |b| {
                format!(
                    "exhausted={};nodes_visited={};views_materialized={}",
                    b.exhausted, b.nodes_visited, b.views_materialized
                )
            }),
        ),
        Err(message) => (
            "panicked",
            message.replace('\n', " "),
            "false".to_string(),
            String::new(),
            String::new(),
        ),
    };
    let mut out = format!(
        "{},{},{},{},{},{},{},{},{}",
        scenario,
        csv_field(&cell.spec.id),
        cell.seed,
        status,
        csv_field(&verdict),
        pass,
        csv_field(&params),
        csv_field(&metrics),
        csv_field(&budget),
    );
    if with_wall {
        out.push_str(&format!(",{}", cell.wall.as_micros()));
    }
    out.push('\n');
    out
}

/// Quotes a CSV field when it contains separators or quotes.
fn csv_field(raw: &str) -> String {
    if raw.contains([',', '"', '\n']) {
        format!("\"{}\"", raw.replace('"', "\"\""))
    } else {
        raw.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::{CellOutcome, CellSpec};

    fn sample_report() -> RunReport {
        use ld_local::enumeration::BudgetUsage;
        let cells = vec![
            CellResult {
                spec: CellSpec::new("a/one", [("n", "8".to_string())]),
                seed: 11,
                outcome: Ok(CellOutcome::new("accept", true).with_metric("views", 2.0)),
                wall: Duration::from_micros(50),
            },
            CellResult {
                spec: CellSpec::new("a/two", [("n", "9".to_string())]),
                seed: 12,
                outcome: Err("boom, with comma".to_string()),
                wall: Duration::from_micros(60),
            },
            CellResult {
                spec: CellSpec::new("a/three", [("n", "10".to_string())]),
                seed: 13,
                outcome: Ok(
                    CellOutcome::new("exhausted", true).with_budget(BudgetUsage {
                        nodes_visited: 512,
                        views_materialized: 9,
                        exhausted: true,
                    }),
                ),
                wall: Duration::from_micros(70),
            },
        ];
        RunReport::new(
            "sample",
            SweepConfig {
                max_n: 16,
                threads: 4,
                seed: 3,
                node_budget: Some(512),
                ..SweepConfig::default()
            },
            cells,
            4,
            Duration::from_millis(2),
            CacheStats {
                hits: 3,
                misses: 1,
                entries: 1,
            },
        )
    }

    #[test]
    fn json_contains_cells_and_perf() {
        let report = sample_report();
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"ld-runner/report/v3\""));
        assert!(json.contains("\"verdict\": \"accept\""));
        assert!(json.contains("\"status\": \"panicked\""));
        assert!(json.contains("\"hit_rate\": 0.75"));
        assert!(json.contains("\"threads\": 4"));
        assert!(json.contains("\"node_budget\": 512"));
        assert!(json.contains("\"view_budget\": null"));
        assert!(json.contains("\"shard_size\": 16"));
        assert!(json.contains("\"nodes_visited\": 512"));
        assert!(json.contains("\"exhausted\": 1"));
        // v3 layout: the summary object trails the cells array, so the
        // document is writable as an append-only stream.
        let cells_at = json.find("\"cells\": [").unwrap();
        let summary_at = json.find("\"summary\": {").unwrap();
        assert!(summary_at > cells_at);
    }

    #[test]
    fn deterministic_json_excludes_timing_and_threads() {
        let report = sample_report();
        let json = report.deterministic_json();
        assert!(!json.contains("wall"));
        assert!(!json.contains("threads"));
        assert!(!json.contains("hit_rate"));
        assert!(json.contains("\"seed\": 3"));
    }

    #[test]
    fn counters() {
        let report = sample_report();
        assert_eq!(report.passed(), 2);
        assert_eq!(report.failed(), 0);
        assert_eq!(report.panicked(), 1);
        assert_eq!(report.exhausted(), 1);
        assert_eq!(report.cache_hit_rate(), 0.75);
    }

    /// The sample report's three cells as a plannable scenario, so the CSV
    /// tests drive the shipped `ldx run --csv` path: a stream run with
    /// [`StreamOptions::csv`](crate::stream::StreamOptions::csv) set.
    struct SampleScenario;

    impl crate::scenario::Scenario for SampleScenario {
        fn name(&self) -> &str {
            "sample"
        }
        fn description(&self) -> &str {
            "test scenario: the sample report's cells"
        }
        fn plan(&self, _config: &SweepConfig) -> Result<crate::scenario::Plan, String> {
            use ld_local::enumeration::BudgetUsage;
            let mut plan = crate::scenario::Plan::new();
            plan.push(CellSpec::new("a/one", [("n", "8".to_string())]), |_| {
                CellOutcome::new("accept", true).with_metric("views", 2.0)
            });
            plan.push(CellSpec::new("a/two", [("n", "9".to_string())]), |_| {
                panic!("boom, with comma")
            });
            plan.push(CellSpec::new("a/three", [("n", "10".to_string())]), |_| {
                CellOutcome::new("exhausted", true).with_budget(BudgetUsage {
                    nodes_visited: 512,
                    views_materialized: 9,
                    exhausted: true,
                })
            });
            Ok(plan)
        }
    }

    /// Streams [`SampleScenario`] on `threads` workers, one cell per shard,
    /// and returns the CSV file it wrote.
    fn streamed_csv(threads: usize, deterministic: bool) -> String {
        use crate::stream::{self, Checkpoint, StreamOptions};
        let tag = format!(
            "ld-runner-report-{}-t{threads}-d{}",
            std::process::id(),
            u8::from(deterministic)
        );
        let report = std::env::temp_dir().join(format!("{tag}.json"));
        let csv = std::env::temp_dir().join(format!("{tag}.csv"));
        let config = SweepConfig {
            max_n: 16,
            threads,
            seed: 3,
            shard_size: 1,
            ..SweepConfig::default()
        };
        let options = StreamOptions {
            deterministic,
            csv: Some(csv.clone()),
            ..StreamOptions::default()
        };
        let summary = stream::run(&SampleScenario, &config, &report, &options).unwrap();
        assert!(summary.completed);
        let text = std::fs::read_to_string(&csv).unwrap();
        for path in [report.clone(), csv, Checkpoint::path_for(&report)] {
            let _ = std::fs::remove_file(path);
        }
        text
    }

    #[test]
    fn csv_has_one_row_per_cell_and_quotes_commas() {
        let csv = streamed_csv(2, false);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 4, "{csv}");
        assert!(lines[0].starts_with("scenario,cell,seed"));
        assert!(lines[0].ends_with(",budget,wall_micros"));
        assert!(lines[1].starts_with("sample,a/one,"));
        assert!(lines[1].contains("views=2"));
        assert!(lines[2].contains(",panicked,\"boom, with comma\","));
        assert!(lines[3].contains("exhausted=true;nodes_visited=512"));
    }

    #[test]
    fn deterministic_csv_has_no_wall_column() {
        let csv = streamed_csv(1, true);
        assert!(!csv.contains("wall"));
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].ends_with(",budget"));
        // The deterministic CSV is identical whatever the worker count.
        assert_eq!(csv, streamed_csv(4, true));
    }
}
