//! Golden-file conformance: one logical run, persisted in every report
//! schema the runner has ever written, must read back identically wherever
//! the schemas overlap.
//!
//! The fixtures under `tests/fixtures/` are committed artifacts: v1 is what
//! PR 2's reporter wrote, v2 what PR 4's wrote, v3 what the streaming
//! writer writes today.  `ReportSummary::from_json` is the single reader
//! for all of them — these tests are the contract that a schema bump never
//! silently reinterprets archived experiment data.

use ld_runner::summary::{ReportSummary, SCHEMA_V1, SCHEMA_V2, SCHEMA_V3};

fn fixture(name: &str) -> String {
    let path = format!("{}/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"))
}

fn parsed(name: &str) -> ReportSummary {
    ReportSummary::from_json(&fixture(name)).unwrap_or_else(|e| panic!("parsing {name}: {e}"))
}

#[test]
fn all_three_schema_fixtures_parse() {
    assert_eq!(parsed("report-v1.json").schema, SCHEMA_V1);
    assert_eq!(parsed("report-v2.json").schema, SCHEMA_V2);
    assert_eq!(parsed("report-v3.json").schema, SCHEMA_V3);
}

#[test]
fn overlapping_fields_read_identically_across_all_versions() {
    let v1 = parsed("report-v1.json");
    let v2 = parsed("report-v2.json");
    let v3 = parsed("report-v3.json");
    for (version, summary) in [("v1", &v1), ("v2", &v2), ("v3", &v3)] {
        assert_eq!(summary.scenario, "fixture-sweep", "{version}");
        assert_eq!(summary.max_n, 16, "{version}");
        assert_eq!(summary.seed, 99, "{version}");
        assert_eq!(summary.cell_count, 3, "{version}");
        assert_eq!(summary.passed, 2, "{version}");
        assert_eq!(summary.failed, 0, "{version}");
        assert_eq!(summary.panicked, 1, "{version}");
        assert_eq!(summary.cells.len(), 3, "{version}");
        for (a, b) in summary.cells.iter().zip(&v3.cells) {
            assert_eq!(a.id, b.id, "{version}");
            assert_eq!(a.seed, b.seed, "{version}");
            assert_eq!(a.status, b.status, "{version}");
            assert_eq!(a.verdict, b.verdict, "{version}");
            assert_eq!(a.pass, b.pass, "{version}");
        }
    }
}

#[test]
fn newer_fields_degrade_to_their_documented_defaults_in_older_schemas() {
    let v1 = parsed("report-v1.json");
    let v2 = parsed("report-v2.json");
    let v3 = parsed("report-v3.json");
    // v1 predates budgets entirely.
    assert_eq!(v1.radius, None);
    assert_eq!(v1.node_budget, None);
    assert_eq!(v1.exhausted, 0);
    assert!(v1.cells.iter().all(|c| c.budget.is_none()));
    // v2 and v3 agree on the whole budget layer.
    for (version, summary) in [("v2", &v2), ("v3", &v3)] {
        assert_eq!(summary.radius, Some(3), "{version}");
        assert_eq!(summary.node_budget, Some(500), "{version}");
        assert_eq!(summary.view_budget, None, "{version}");
        assert_eq!(summary.exhausted, 1, "{version}");
    }
    assert_eq!(v2.cells[2].budget, v3.cells[2].budget);
    assert!(v3.cells[2].budget.unwrap().exhausted);
    // Only v3 knows the streaming shard size.
    assert_eq!(v1.shard_size, None);
    assert_eq!(v2.shard_size, None);
    assert_eq!(v3.shard_size, Some(2));
}

/// The v3 fixture is not just parseable — it is byte-for-byte what the
/// current in-memory reporter renders for the same run, which pins the
/// writer's format (field order, indentation, number formatting) as well
/// as the reader's tolerance.
#[test]
fn v3_fixture_is_exactly_what_the_reporter_renders() {
    use ld_runner::cell::{CellOutcome, CellResult, CellSpec};
    use ld_runner::{RunReport, SweepConfig};
    use local_decision::local::cache::CacheStats;
    use local_decision::local::enumeration::BudgetUsage;
    use std::time::Duration;

    let cells = vec![
        CellResult {
            spec: CellSpec::new(
                "fixture/one",
                [("family", "path".to_string()), ("n", "8".to_string())],
            ),
            seed: 101,
            outcome: Ok(CellOutcome::new("accept", true).with_metric("nodes", 8.0)),
            wall: Duration::from_micros(10),
        },
        CellResult {
            spec: CellSpec::new("fixture/two", []),
            seed: 102,
            outcome: Err("boom".to_string()),
            wall: Duration::from_micros(20),
        },
        CellResult {
            spec: CellSpec::new("fixture/three", [("n", "12".to_string())]),
            seed: 103,
            outcome: Ok(
                CellOutcome::new("exhausted", true).with_budget(BudgetUsage {
                    nodes_visited: 500,
                    views_materialized: 4,
                    exhausted: true,
                }),
            ),
            wall: Duration::from_micros(30),
        },
    ];
    let report = RunReport::new(
        "fixture-sweep",
        SweepConfig {
            max_n: 16,
            seed: 99,
            radius: Some(3),
            node_budget: Some(500),
            shard_size: 2,
            ..SweepConfig::default()
        },
        cells,
        1,
        Duration::from_millis(1),
        CacheStats::default(),
    );
    assert_eq!(report.deterministic_json(), fixture("report-v3.json"));
}
