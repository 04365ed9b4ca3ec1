//! Quickstart: local decision of classic labelled-graph properties.
//!
//! Builds a few labelled graphs, runs Id-oblivious deciders for "proper
//! 3-colouring" and "maximal independent set" (the paper's own introductory
//! examples of locally decidable properties), and shows how a single bad
//! node is caught.
//!
//! Run with `cargo run -p ld-examples --bin quickstart`.

use local_decision::local::property::{MaximalIndependentSet, ProperColoring};
use local_decision::prelude::*;

fn coloring_checker() -> impl ObliviousAlgorithm<u32> {
    FnOblivious::new("proper-3-colouring", 1, |view: ObliviousViewRef<u32>| {
        let mine = *view.center_label();
        let ok = mine < 3
            && view
                .neighbors_of_center()
                .all(|u| *view.label(u) != mine && *view.label(u) < 3);
        Verdict::from_bool(ok)
    })
}

fn mis_checker() -> impl ObliviousAlgorithm<u8> {
    FnOblivious::new(
        "maximal-independent-set",
        1,
        |view: ObliviousViewRef<u8>| {
            let mine = *view.center_label();
            if mine > 1 {
                return Verdict::No;
            }
            let independent = mine == 0 || view.neighbors_of_center().all(|u| *view.label(u) == 0);
            let dominated = mine == 1 || view.neighbors_of_center().any(|u| *view.label(u) == 1);
            Verdict::from_bool(independent && dominated)
        },
    )
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== local-decision quickstart ==");

    // A properly 3-coloured ring and a broken colouring.
    let good = LabeledGraph::new(generators::cycle(9), vec![0u32, 1, 2, 0, 1, 2, 0, 1, 2])?;
    let mut bad_labels = good.labels().to_vec();
    bad_labels[4] = bad_labels[3];
    let bad = LabeledGraph::new(generators::cycle(9), bad_labels)?;

    let property = ProperColoring::new(3);
    let checker = coloring_checker();
    for (name, labeled) in [("good colouring", good), ("broken colouring", bad)] {
        let is_member = property.contains(&labeled);
        let input = Input::with_consecutive_ids(labeled)?;
        let decision = decision::run_oblivious(&input, &checker);
        println!(
            "{name:<18} in-property={is_member:<5} accepted={:<5} rejecting-nodes={:?}",
            decision.accepted(),
            decision.rejecting_nodes()
        );
    }

    // A maximal independent set on a grid and one that misses a node.
    let grid = generators::grid(5, 4);
    let mis = LabeledGraph::from_fn(grid.clone(), |v| {
        let (x, y) = (v.index() % 5, v.index() / 5);
        u8::from((x + y) % 2 == 0)
    });
    let not_maximal = LabeledGraph::uniform(grid, 0u8);
    let property = MaximalIndependentSet;
    let checker = mis_checker();
    for (name, labeled) in [("checkerboard MIS", mis), ("empty set", not_maximal)] {
        let is_member = property.contains(&labeled);
        let input = Input::with_consecutive_ids(labeled)?;
        let decision = decision::run_oblivious(&input, &checker);
        println!(
            "{name:<18} in-property={is_member:<5} accepted={:<5}",
            decision.accepted()
        );
    }

    println!("\nBoth properties are decided without ever reading an identifier —");
    println!("the paper asks when that is *not* possible; see the other examples.");
    Ok(())
}
