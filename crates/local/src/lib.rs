//! The LOCAL model and distributed local decision, as defined in Section 1.2
//! of Fraigniaud, Göös, Korman and Suomela, *"What can be decided locally
//! without identifiers?"* (PODC 2013).
//!
//! # Model
//!
//! An *input* is a triple `(G, x, Id)` where `(G, x)` is a connected labelled
//! graph and `Id : V(G) → N` is a one-to-one identifier assignment
//! ([`Input`]).  A *local algorithm* with horizon `t` maps the radius-`t`
//! view of each node to `yes`/`no` ([`LocalAlgorithm`], [`View`]); it
//! *decides* a labelled-graph property `P` when yes-instances make every node
//! say `yes` and no-instances make at least one node say `no`
//! ([`decision`]).
//!
//! The paper's central distinction is between algorithms that may read the
//! identifiers and **Id-oblivious** algorithms, whose output is invariant
//! under re-assignment of identifiers ([`ObliviousAlgorithm`],
//! [`ObliviousView`]).  The two model switches studied by the paper are also
//! first-class here:
//!
//! * assumption **(B)** — identifiers bounded by a function `f(n)` of the
//!   network size — is represented by [`IdBound`] and the bounded identifier
//!   generators in [`ids`];
//! * assumption **(C)** — computable node algorithms — is discussed in the
//!   crate documentation of `ld-deciders`; in code every algorithm is
//!   trivially computable, and the *un*computable objects of the paper are
//!   replaced by injected oracles (see `DESIGN.md` §2).
//!
//! The crate also provides the machinery the impossibility arguments need:
//! enumeration of views up to isomorphism ([`enumeration`]) — including
//! budget-aware variants whose node/view caps exhaust deterministically
//! ([`EnumerationBudget`], [`BudgetUsage`]) and an incremental
//! multi-radius profile for radius-3 workloads — the generic
//! Id-oblivious simulation `A*` of the paper's introduction
//! ([`simulation`]), a synchronous message-passing engine equivalent to the
//! view semantics ([`engine`]), randomised `(p, q)`-deciders
//! ([`RandomizedObliviousAlgorithm`], [`decision::estimate_pq`]), and a
//! shared lock-sharded canonical-view cache that de-duplicates the repeated
//! ball canonicalisation within one sweep plan ([`cache`]).  View
//! comparison is driven by total canonical codes
//! ([`ObliviousView::canonical_code`], backed by `ld_graph::canon`): equal
//! code ⇔ indistinguishable view, so enumeration and coverage are hash-set
//! operations rather than pairwise isomorphism tests.
//!
//! # Example
//!
//! ```
//! use ld_graph::{generators, LabeledGraph};
//! use ld_local::{decision, IdAssignment, FnOblivious, Input, Verdict};
//!
//! // "Proper 2-colouring" of a 4-cycle, decided Id-obliviously with radius 1.
//! let graph = generators::cycle(4);
//! let labeled = LabeledGraph::new(graph, vec![0u8, 1, 0, 1])?;
//! let input = Input::new(labeled, IdAssignment::consecutive(4))?;
//!
//! let algorithm = FnOblivious::new("proper-2-colouring", 1, |view: ld_local::ObliviousViewRef<u8>| {
//!     let mine = *view.center_label();
//!     let ok = view
//!         .neighbors_of_center()
//!         .all(|u| *view.label(u) != mine && *view.label(u) < 2);
//!     if ok && mine < 2 { Verdict::Yes } else { Verdict::No }
//! });
//!
//! assert!(decision::run_oblivious(&input, &algorithm).accepted());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algorithm;
pub mod cache;
pub mod decision;
pub mod engine;
pub mod enumeration;
pub mod error;
pub mod hashing;
pub mod ids;
pub mod input;
pub mod property;
pub mod simulation;
pub mod view;

pub use algorithm::{
    FnLocal, FnOblivious, LocalAlgorithm, ObliviousAlgorithm, ObliviousAsLocal,
    OrderInvariantAlgorithm, OrderInvariantAsLocal, RandomizedObliviousAlgorithm, Verdict,
};
pub use cache::{CacheStats, ViewCache};
pub use decision::{Decision, DecisionOutcome};
pub use enumeration::{BudgetUsage, EnumerationBudget};
pub use error::LocalError;
pub use ids::{IdAssignment, IdBound};
pub use input::Input;
pub use property::Property;
pub use view::{ObliviousView, ObliviousViewRef, View, ViewRef};

/// Convenient result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, LocalError>;
