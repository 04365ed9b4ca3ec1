//! Reproduces the Section 1.1 relationship table between LD and LD*, as a
//! runner scenario.
//!
//! The four model combinations (B / ¬B) × (C / ¬C) are the four cells of
//! the `relationship-table` scenario; each runs its witnessing experiment
//! (Section 2 trees for (B), the Section 3 zoo for (C), the simulation `A*`
//! for the free quadrant) and the sharded sweep driver runs them in parallel.
//!
//! Run with `cargo run -p ld-examples --bin relationship_table`.

use local_decision::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = SweepConfig {
        threads: 4,
        // One cell per shard, so the four quadrants can run on different
        // workers (the default shard holds 16 cells).
        shard_size: 1,
        ..SweepConfig::default()
    };
    let report = sweep_executor::execute(&scenarios::RelationshipTable, &config)?;

    let verdict = |quadrant: &str| -> &'static str {
        report
            .cells
            .iter()
            .find(|c| c.spec.param("quadrant") == Some(quadrant))
            .and_then(|c| c.outcome.as_ref().ok())
            .and_then(|o| o.metric("separated"))
            .map_or("??", |separated| if separated > 0.0 { "!=" } else { "==" })
    };

    println!("Relationship between LD* and LD (paper, Section 1.1):");
    println!();
    println!("            (C) computable      (~C) arbitrary");
    println!(
        "  (B)       LD* {} LD           LD* {} LD",
        verdict("B-C"),
        verdict("B-notC")
    );
    println!(
        "  (~B)      LD* {} LD           LD* {} LD",
        verdict("notB-C"),
        verdict("notB-notC")
    );
    println!();
    println!("Witnesses: (B) the Section 2 layered-tree family; (C) the Section 3");
    println!("execution-table family; (~B, ~C) the Id-oblivious simulation A*.");
    println!(
        "sweep: {}/{} cells as the paper states, in {:.2?}",
        report.passed(),
        report.cells.len(),
        report.total_wall
    );

    if report.failed() + report.panicked() > 0 {
        return Err("some table cell disagrees with the paper".into());
    }
    Ok(())
}
