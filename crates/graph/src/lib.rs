//! Graph substrate for the *local decision* reproduction of
//! Fraigniaud, Göös, Korman and Suomela, *"What can be decided locally
//! without identifiers?"* (PODC 2013).
//!
//! The paper's constructions are all concrete families of **simple
//! undirected labelled graphs**: cycles, layered binary trees, Turing-machine
//! execution grids, and layered quadtree pyramids.  The LOCAL model on top of
//! them needs exactly three graph-theoretic services:
//!
//! 1. building and inspecting graphs ([`Graph`], [`LabeledGraph`]),
//! 2. extracting the radius-`t` ball `B(v, t)` around a node ([`Ball`],
//!    [`Graph::ball`]) — this is the "view" a constant-time distributed
//!    algorithm sees.  Bulk consumers use a [`BallExtractor`], which
//!    amortises scratch across extractions, *extends* a ball from radius
//!    to radius without re-traversing
//!    ([`BallExtractor::extend_current`]), and enforces node caps
//!    mid-BFS ([`BallExtractor::extract_within`]) so radius-3 sweeps stay
//!    inside explicit work budgets, and
//! 3. comparing such views up to (label-preserving, centre-preserving)
//!    isomorphism so that *indistinguishability* arguments can be executed
//!    mechanically — exactly via the backtracking tests in [`iso`], and in
//!    bulk via the total canonical codes in [`canon`] (equal code ⇔
//!    isomorphic view), which turn deduplication into hash-set insertion.
//!    Balls of at most 64 nodes — every ball the paper's sweeps produce —
//!    are canonicalised by the word-parallel bitset kernel in
//!    [`fastcanon`], which emits byte-identical codes from `u64` adjacency
//!    rows and a reusable [`CanonScratch`]; the original path remains the
//!    differential oracle ([`canon::canonical_code_oracle`]) and the
//!    fallback for larger graphs (or for every graph when
//!    `LD_CANON_FALLBACK=1` is set).
//!
//! The crate also ships deterministic [`generators`] for every graph family
//! used by the paper, plus [`ports`] (port numberings and orientations) for
//! the related PO model discussed in the paper's related-work section.
//!
//! # Example
//!
//! ```
//! use ld_graph::{generators, Graph};
//!
//! let cycle: Graph = generators::cycle(8);
//! assert_eq!(cycle.node_count(), 8);
//! assert_eq!(cycle.edge_count(), 8);
//! assert!(cycle.is_connected());
//!
//! // The radius-2 ball around node 0 in an 8-cycle is a path on 5 nodes.
//! let ball = cycle.ball(ld_graph::NodeId(0), 2);
//! assert_eq!(ball.graph().node_count(), 5);
//! assert_eq!(ball.graph().edge_count(), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ball;
pub mod canon;
pub mod error;
pub mod fastcanon;
pub mod generators;
pub mod graph;
pub mod iso;
pub mod labeled;
pub mod ports;
pub mod traversal;

pub use ball::{Ball, BallExtractor, BallNeighbors, BallRef};
pub use canon::{canonical_code, centered_canonical_code, CanonicalCode};
pub use error::GraphError;
pub use fastcanon::CanonScratch;
pub use graph::{EdgeIter, Graph, NeighborIter, NodeId};
pub use labeled::LabeledGraph;
pub use ports::{Orientation, PortNumbering};

/// Convenient result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, GraphError>;
