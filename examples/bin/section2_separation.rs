//! The Section 2 separation (bounded identifiers), as a runner sweep.
//!
//! The hand-rolled experiment this binary used to be is now the
//! `section2-sweep` scenario of `ld-runner`: layered-tree instances ×
//! identifier regimes × algorithms, plus the promise-problem cycles across
//! a size range.  `executor::execute` runs it on the same sharded driver as
//! `ldx run`, on every available core, and collects the cells in memory.
//! This binary prints the headline verdicts the paper's Section 2
//! establishes and writes the full machine-readable record to
//! `ldx-section2-sweep.json` in the system temporary directory (the path is
//! printed).
//!
//! Run with `cargo run -p ld-examples --bin section2_separation`.

use local_decision::prelude::*;
use local_decision::runner::RunReport;

fn count(
    report: &RunReport,
    filter: impl Fn(&local_decision::runner::CellResult) -> bool,
) -> (usize, usize) {
    let cells: Vec<_> = report.cells.iter().filter(|c| filter(c)).collect();
    (cells.iter().filter(|c| c.passed()).count(), cells.len())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== Section 2: separation under bounded identifiers (runner sweep) ==");
    let config = SweepConfig {
        max_n: 64,
        threads: std::thread::available_parallelism().map_or(1, usize::from),
        ..SweepConfig::default()
    };
    let report = sweep_executor::execute(&scenarios::Section2Sweep, &config)?;

    let (verifier_ok, verifier_total) = count(&report, |c| c.spec.param("alg") == Some("verifier"));
    println!(
        "\nP' in LD*: the Id-oblivious structure verifier accepts every locally\n\
         consistent instance under every identifier regime: {verifier_ok}/{verifier_total} cells"
    );

    let (id_ok, id_total) = count(&report, |c| c.spec.param("alg") == Some("id-decider"));
    println!(
        "P  in LD : the Id-based decider (reject when Id(v) >= R(r)) matches its\n\
         expectation on every instance x regime: {id_ok}/{id_total} cells"
    );
    println!(
        "P  not in LD*: the `shifted` regime cells show the decider's verdict flips\n\
         with the identifier assignment — no Id-oblivious algorithm can do that."
    );

    let (promise_ok, promise_total) = count(&report, |c| {
        c.spec.param("family") == Some("cycle") && c.spec.param("instance") != Some("views")
    });
    println!(
        "\nPromise problem (n-cycle labelled r, n in {{r, 3r}}): {promise_ok}/{promise_total} \
         decider cells correct"
    );
    for cell in report.cells.iter().filter(|c| {
        c.spec.param("instance") == Some("views") && c.spec.param("family") == Some("cycle")
    }) {
        if let Ok(outcome) = &cell.outcome {
            println!(
                "  r = {:>2}: radius-2 views {} (coverage no-in-yes: {:.2})",
                cell.spec.param("r").unwrap_or("?"),
                outcome.verdict,
                outcome.metric("coverage_no_in_yes").unwrap_or(0.0),
            );
        }
    }

    println!(
        "\nsweep: {} cells, {} passed, cache hit rate {:.1}%, wall {:.2?} on {} threads",
        report.cells.len(),
        report.passed(),
        100.0 * report.cache_hit_rate(),
        report.total_wall,
        report.config.threads
    );
    let path = std::env::temp_dir().join("ldx-section2-sweep.json");
    std::fs::write(&path, report.to_json())?;
    println!("full report: {}", path.display());

    if report.failed() + report.panicked() > 0 {
        return Err(format!(
            "{} cells failed, {} panicked",
            report.failed(),
            report.panicked()
        )
        .into());
    }
    Ok(())
}
