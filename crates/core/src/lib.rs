//! # local-decision
//!
//! A reproduction of Fraigniaud, Göös, Korman and Suomela,
//! *"What can be decided locally without identifiers?"* (PODC 2013,
//! arXiv:1302.2570), as a reusable Rust library.
//!
//! The paper asks whether unique node identifiers add power to
//! **distributed local decision**: constant-time algorithms in the LOCAL
//! model where every node outputs `yes`/`no` and the network is accepted iff
//! all nodes accept.  The answer depends on two model switches — bounded
//! identifiers (B) and computable node algorithms (C) — and this workspace
//! reproduces all four cells of the paper's summary table, both witness
//! constructions, and the randomised corollary.
//!
//! This crate is a facade: it re-exports the component crates under stable
//! names so that applications can depend on a single crate.
//!
//! | module | contents |
//! |--------|----------|
//! | [`graph`] | graph substrate: simple graphs, labelled graphs, balls `B(v,t)`, isomorphism, generators |
//! | [`turing`] | Turing-machine substrate: machines, execution tables, window rules, machine zoo |
//! | [`local`] | the LOCAL model: inputs `(G,x,Id)`, views, algorithm traits, decision semantics, the Id-oblivious simulation `A*` |
//! | [`constructions`] | the paper's witness families: Section 2 layered trees, Section 3 `G(M,r)`, pyramids, promise problems |
//! | [`deciders`] | the paper's algorithms: Id-based deciders, Id-oblivious verifiers, the separation harness, the randomised decider |
//! | [`runner`] | experiment orchestration: scenario specs, the sharded sweep driver (to a report file or an in-memory report), per-plan canonical-view caches, JSON/CSV reports; the `ldx` CLI over it lives in `ld-serve` |
//!
//! # Quickstart
//!
//! ```
//! use local_decision::local::{decision, FnOblivious, Input, Verdict, ObliviousViewRef};
//! use local_decision::graph::{generators, LabeledGraph};
//!
//! // Decide "proper 3-colouring" on a cycle, without identifiers.
//! let labeled = LabeledGraph::new(generators::cycle(6), vec![0u32, 1, 2, 0, 1, 2])?;
//! let input = Input::with_consecutive_ids(labeled)?;
//! let checker = FnOblivious::new("3-colouring", 1, |view: ObliviousViewRef<u32>| {
//!     let mine = *view.center_label();
//!     Verdict::from_bool(mine < 3 && view.neighbors_of_center().all(|u| *view.label(u) != mine))
//! });
//! assert!(decision::run_oblivious(&input, &checker).accepted());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! # Running whole sweeps
//!
//! Experiments at scale go through the runner: pick a scenario, set the
//! budget, and execute on as many threads as you like — reports are
//! byte-identical whatever the thread count, and repeated ball
//! canonicalisation is served by the shared view cache.
//!
//! ```
//! use local_decision::runner::{executor, scenarios, SweepConfig};
//!
//! let config = SweepConfig { max_n: 16, threads: 2, seed: 1, ..SweepConfig::default() };
//! let report = executor::execute(&scenarios::PyramidSweep, &config)?;
//! assert_eq!(report.failed() + report.panicked(), 0);
//! println!("{}", report.to_json());
//! # Ok::<(), String>(())
//! ```
//!
//! The same sweeps are available from the command line via the `ldx` binary
//! (`cargo run --release -p ld-serve --bin ldx -- list`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ld_constructions as constructions;
pub use ld_deciders as deciders;
pub use ld_graph as graph;
pub use ld_local as local;
pub use ld_runner as runner;
pub use ld_turing as turing;

/// The most commonly used items, re-exported flat for convenience.
pub mod prelude {
    pub use ld_constructions::fragments::FragmentSource;
    pub use ld_constructions::section2::{Section2Label, Section2Params};
    pub use ld_constructions::section3::{build_gmr, Section3Label};
    pub use ld_deciders::randomized::RandomizedGmrDecider;
    pub use ld_deciders::section2::{IdBasedDecider, StructureVerifier};
    pub use ld_deciders::section3::{FuelBoundedObliviousCandidate, TwoStageIdDecider};
    pub use ld_graph::{generators, Graph, LabeledGraph, NodeId};
    pub use ld_local::{
        decision, enumeration, CacheStats, FnLocal, FnOblivious, IdAssignment, IdBound, Input,
        LocalAlgorithm, ObliviousAlgorithm, ObliviousView, ObliviousViewRef, Property, Verdict,
        View, ViewCache, ViewRef,
    };
    pub use ld_runner::{executor as sweep_executor, scenarios, SweepConfig};
    pub use ld_turing::{zoo, Symbol, TuringMachine};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_are_usable_together() {
        // Build the Section 2 experiment end to end through the facade only.
        let params = Section2Params::new(1, IdBound::identity_plus(2)).unwrap();
        let decider = IdBasedDecider::new(params.clone());
        let large = params.large_instance().unwrap();
        let n = large.node_count();
        let input = Input::new(large, IdAssignment::consecutive(n)).unwrap();
        assert!(!decision::run_local(&input, &decider).accepted());

        // And the Section 3 experiment.
        let spec = zoo::halts_with_output(2, Symbol(1));
        let instance =
            build_gmr(&spec.machine, 1, 1_000, FragmentSource::WindowsAndDecoys).unwrap();
        let n = instance.labeled().node_count();
        let input = Input::new(instance.into_labeled(), IdAssignment::consecutive(n)).unwrap();
        assert!(!decision::run_local(&input, &TwoStageIdDecider::new(1_000)).accepted());
        assert!(decision::run_oblivious(&input, &FuelBoundedObliviousCandidate::new(1)).accepted());
    }
}
