//! Reading reports back: a version-compatible summary of a persisted run.
//!
//! `ldx` has been writing deterministic run records since schema
//! `ld-runner/report/v1`.  v2 added the budget/outcome model (per-cell
//! `budget` objects, an `exhausted` summary counter, and
//! `radius`/`node_budget`/`view_budget` in the config) without changing any
//! v1 field; v3 restructured the document for streaming — the counters
//! moved from the top level into a trailing `summary` object (written
//! *after* the cells, so the file is an append-only stream) and the config
//! gained `shard_size`.  [`ReportSummary::from_json`] reads **all three**
//! versions, mapping fields an older schema lacks to their defaults, so
//! tooling that compares runs across schema bumps — trend dashboards,
//! `ldx diff`, CI gates over archived reports — needs no per-version code.
//!
//! The reader accepts the deterministic document and the full `to_json`
//! report alike (the `perf` section is simply ignored).

use crate::json::Json;
use ld_local::enumeration::BudgetUsage;

/// The schema identifier of PR 2's legacy reports.
pub const SCHEMA_V1: &str = "ld-runner/report/v1";
/// The schema identifier of the budgeted (pre-streaming) reports.
pub const SCHEMA_V2: &str = "ld-runner/report/v2";
/// The streaming schema identifier written by this version of the runner.
pub const SCHEMA_V3: &str = "ld-runner/report/v3";

/// One cell of a persisted report.
#[derive(Debug, Clone, PartialEq)]
pub struct CellSummary {
    /// The cell's stable identifier.
    pub id: String,
    /// The per-cell seed the executor derived.
    pub seed: u64,
    /// `"completed"` or `"panicked"`.
    pub status: String,
    /// The verdict token, for completed cells.
    pub verdict: Option<String>,
    /// Whether the verdict matched expectation (`false` for panics).
    pub pass: bool,
    /// The budget record, for budgeted v2 cells (`None` in v1 documents and
    /// for unbudgeted cells).
    pub budget: Option<BudgetUsage>,
}

/// A persisted run report, read back version-compatibly.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportSummary {
    /// The schema the document declared ([`SCHEMA_V1`] or [`SCHEMA_V2`]).
    pub schema: String,
    /// Scenario name.
    pub scenario: String,
    /// The sweep's size budget.
    pub max_n: u64,
    /// The master seed.
    pub seed: u64,
    /// The radius override, when one was set (always `None` in v1).
    pub radius: Option<u64>,
    /// The per-cell node budget, when one was set (always `None` in v1).
    pub node_budget: Option<u64>,
    /// The per-cell view budget, when one was set (always `None` in v1).
    pub view_budget: Option<u64>,
    /// The streaming shard size (always `None` in v1/v2, which predate the
    /// sharded pipeline).
    pub shard_size: Option<u64>,
    /// Summary counters, as recorded in the document.
    pub cell_count: u64,
    /// Cells that completed with a matching verdict.
    pub passed: u64,
    /// Cells that completed with a mismatched verdict.
    pub failed: u64,
    /// Cells that panicked.
    pub panicked: u64,
    /// Cells whose work budget was exhausted (`0` in v1 documents, which
    /// predate budgets).
    pub exhausted: u64,
    /// Per-cell records, in report order.
    pub cells: Vec<CellSummary>,
}

/// A required field of a known type, with a path-ish error message.
fn required_u64(doc: &Json, key: &str) -> Result<u64, String> {
    doc.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing or non-integer field '{key}'"))
}

/// An optional integer field: absent keys and explicit `null` both read as
/// `None` (v1 documents omit the key entirely; v2 writes `null`).
fn optional_u64(doc: &Json, key: &str) -> Option<u64> {
    doc.get(key).and_then(Json::as_u64)
}

fn parse_cell(cell: &Json) -> Result<CellSummary, String> {
    let id = cell
        .get("id")
        .and_then(Json::as_str)
        .ok_or("cell missing 'id'")?
        .to_string();
    let status = cell
        .get("status")
        .and_then(Json::as_str)
        .ok_or("cell missing 'status'")?
        .to_string();
    let budget = match cell.get("budget") {
        Some(budget) => Some(BudgetUsage {
            nodes_visited: required_u64(budget, "nodes_visited")?,
            views_materialized: required_u64(budget, "views_materialized")?,
            exhausted: budget
                .get("exhausted")
                .and_then(Json::as_bool)
                .ok_or("budget missing 'exhausted'")?,
        }),
        None => None,
    };
    Ok(CellSummary {
        seed: required_u64(cell, "seed")?,
        verdict: cell.get("verdict").and_then(Json::as_str).map(String::from),
        pass: cell.get("pass").and_then(Json::as_bool).unwrap_or(false),
        id,
        status,
        budget,
    })
}

impl ReportSummary {
    /// Parses a persisted report (deterministic or full), accepting both
    /// the v1 and v2 schemas.
    ///
    /// # Errors
    ///
    /// Returns a message on malformed JSON, an unknown schema identifier,
    /// or a missing required field.
    pub fn from_json(text: &str) -> Result<ReportSummary, String> {
        let doc = Json::parse(text)?;
        let schema = doc
            .get("schema")
            .and_then(Json::as_str)
            .ok_or("missing 'schema'")?
            .to_string();
        if schema != SCHEMA_V1 && schema != SCHEMA_V2 && schema != SCHEMA_V3 {
            return Err(format!("unknown report schema '{schema}'"));
        }
        let config = doc.get("config").ok_or("missing 'config'")?;
        // v1/v2 carry the counters at the top level; v3 nests them in a
        // trailing `summary` object.  Either way the names are identical.
        let counters = if schema == SCHEMA_V3 {
            doc.get("summary").ok_or("missing 'summary'")?
        } else {
            &doc
        };
        let cells = doc
            .get("cells")
            .and_then(Json::as_arr)
            .ok_or("missing 'cells'")?
            .iter()
            .map(parse_cell)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ReportSummary {
            scenario: doc
                .get("scenario")
                .and_then(Json::as_str)
                .ok_or("missing 'scenario'")?
                .to_string(),
            max_n: required_u64(config, "max_n")?,
            seed: required_u64(config, "seed")?,
            radius: optional_u64(config, "radius"),
            node_budget: optional_u64(config, "node_budget"),
            view_budget: optional_u64(config, "view_budget"),
            shard_size: optional_u64(config, "shard_size"),
            cell_count: required_u64(counters, "cell_count")?,
            passed: required_u64(counters, "passed")?,
            failed: required_u64(counters, "failed")?,
            panicked: required_u64(counters, "panicked")?,
            // v1 predates budgets: absent means no cell could have been
            // budgeted, so zero is exact, not a guess.
            exhausted: optional_u64(counters, "exhausted").unwrap_or(0),
            schema,
            cells,
        })
    }

    /// `true` when the document used the legacy v1 schema.
    pub fn is_v1(&self) -> bool {
        self.schema == SCHEMA_V1
    }

    /// The numeric schema version (1, 2 or 3).
    pub fn schema_version(&self) -> u32 {
        match self.schema.as_str() {
            s if s == SCHEMA_V1 => 1,
            s if s == SCHEMA_V2 => 2,
            _ => 3,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::{CellOutcome, CellResult, CellSpec};
    use crate::report::RunReport;
    use crate::scenario::SweepConfig;
    use ld_local::cache::CacheStats;
    use std::time::Duration;

    /// A verbatim v1 document, as PR 2's reporter wrote it.
    const V1_REPORT: &str = r#"{
  "schema": "ld-runner/report/v1",
  "scenario": "section2-sweep",
  "config": {
    "max_n": 24,
    "seed": 1905683
  },
  "cell_count": 2,
  "passed": 1,
  "failed": 0,
  "panicked": 1,
  "cells": [
    {
      "id": "tree/r=1/small=0.0/ids=consecutive/alg=verifier",
      "params": {
        "family": "layered-tree"
      },
      "seed": 12157922279433856850,
      "status": "completed",
      "verdict": "accept",
      "pass": true,
      "metrics": {
        "nodes": 4
      }
    },
    {
      "id": "tree/r=1/small=0.1/ids=consecutive/alg=verifier",
      "params": {},
      "seed": 3,
      "status": "panicked",
      "error": "boom"
    }
  ]
}
"#;

    #[test]
    fn v1_reports_still_parse() {
        let summary = ReportSummary::from_json(V1_REPORT).unwrap();
        assert!(summary.is_v1());
        assert_eq!(summary.scenario, "section2-sweep");
        assert_eq!(summary.max_n, 24);
        assert_eq!(summary.seed, 1905683);
        assert_eq!(summary.radius, None);
        assert_eq!(summary.node_budget, None);
        assert_eq!(summary.exhausted, 0);
        assert_eq!(summary.cells.len(), 2);
        assert_eq!(summary.cells[0].seed, 12157922279433856850);
        assert_eq!(summary.cells[0].verdict.as_deref(), Some("accept"));
        assert!(summary.cells[0].pass);
        assert_eq!(summary.cells[0].budget, None);
        assert_eq!(summary.cells[1].status, "panicked");
        assert!(!summary.cells[1].pass);
    }

    /// A verbatim v2 document, as PR 4's reporter wrote it (counters at the
    /// top level, no `shard_size`).
    const V2_REPORT: &str = r#"{
  "schema": "ld-runner/report/v2",
  "scenario": "section2-sweep-r3",
  "config": {
    "max_n": 16,
    "seed": 1905683,
    "radius": 3,
    "node_budget": 512,
    "view_budget": null
  },
  "cell_count": 1,
  "passed": 1,
  "failed": 0,
  "panicked": 0,
  "exhausted": 1,
  "cells": [
    {
      "id": "a/one",
      "params": {
        "n": "8"
      },
      "seed": 11,
      "status": "completed",
      "verdict": "exhausted",
      "pass": true,
      "metrics": {},
      "budget": {
        "exhausted": true,
        "nodes_visited": 512,
        "views_materialized": 9
      }
    }
  ]
}
"#;

    #[test]
    fn v2_reports_still_parse() {
        let summary = ReportSummary::from_json(V2_REPORT).unwrap();
        assert_eq!(summary.schema, SCHEMA_V2);
        assert_eq!(summary.schema_version(), 2);
        assert_eq!(summary.radius, Some(3));
        assert_eq!(summary.node_budget, Some(512));
        assert_eq!(summary.view_budget, None);
        assert_eq!(summary.shard_size, None);
        assert_eq!(summary.exhausted, 1);
        let budget = summary.cells[0].budget.unwrap();
        assert!(budget.exhausted);
        assert_eq!(budget.nodes_visited, 512);
    }

    #[test]
    fn v3_reports_roundtrip_through_the_reader() {
        let cells = vec![CellResult {
            spec: CellSpec::new("a/one", [("n", "8".to_string())]),
            seed: 11,
            outcome: Ok(
                CellOutcome::new("exhausted", true).with_budget(BudgetUsage {
                    nodes_visited: 512,
                    views_materialized: 9,
                    exhausted: true,
                }),
            ),
            wall: Duration::from_micros(50),
        }];
        let report = RunReport::new(
            "sample",
            SweepConfig {
                max_n: 16,
                radius: Some(3),
                node_budget: Some(512),
                ..SweepConfig::default()
            },
            cells,
            1,
            Duration::from_millis(1),
            CacheStats::default(),
        );
        // Both renderings parse; the perf section is ignored.
        for text in [report.deterministic_json(), report.to_json()] {
            let summary = ReportSummary::from_json(&text).unwrap();
            assert_eq!(summary.schema, SCHEMA_V3);
            assert_eq!(summary.schema_version(), 3);
            assert_eq!(summary.radius, Some(3));
            assert_eq!(summary.node_budget, Some(512));
            assert_eq!(summary.view_budget, None);
            assert_eq!(summary.shard_size, Some(16));
            assert_eq!(summary.cell_count, 1);
            assert_eq!(summary.passed, 1);
            assert_eq!(summary.exhausted, 1);
            let budget = summary.cells[0].budget.unwrap();
            assert!(budget.exhausted);
            assert_eq!(budget.nodes_visited, 512);
            assert_eq!(budget.views_materialized, 9);
        }
    }

    #[test]
    fn unknown_schema_and_malformed_documents_are_rejected() {
        assert!(ReportSummary::from_json("{}").is_err());
        assert!(ReportSummary::from_json("not json").is_err());
        let unknown = V1_REPORT.replace("report/v1", "report/v999");
        let err = ReportSummary::from_json(&unknown).unwrap_err();
        assert!(err.contains("v999"), "{err}");
        let truncated = V1_REPORT.replace("\"cell_count\": 2,", "");
        let err = ReportSummary::from_json(&truncated).unwrap_err();
        assert!(err.contains("cell_count"), "{err}");
    }
}
