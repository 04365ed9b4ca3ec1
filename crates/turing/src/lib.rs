//! Turing-machine substrate for the *local decision* reproduction of
//! Fraigniaud, Göös, Korman and Suomela (PODC 2013).
//!
//! Section 3 of the paper embeds the **execution table** of a Turing machine
//! `M` into a labelled graph `G(M, r)` so that
//!
//! * an algorithm that can read large identifiers can locally re-simulate `M`
//!   long enough to learn its output, while
//! * an Id-oblivious algorithm only ever sees *syntactically possible* table
//!   fragments and therefore learns nothing it could not compute itself —
//!   deciding the property would amount to separating the computably
//!   inseparable languages `L₀ = {M : M outputs 0}` and
//!   `L₁ = {M : M outputs 1}`.
//!
//! This crate provides everything those constructions need:
//!
//! * a deterministic single-tape machine model ([`TuringMachine`]) with
//!   fuel-bounded execution ([`TuringMachine::run`]),
//! * a shared machine handle for node labels ([`SharedMachine`]) that
//!   answers "halts within `b` steps?" from one simulation,
//! * execution tables as labelled grids ([`ExecutionTable`]) including
//!   truncated tables for machines that may not halt (needed by the paper's
//!   neighbourhood generator `B`),
//! * the **local window rules** that make a table locally checkable
//!   ([`window`]), and
//! * a machine zoo with known ground truth ([`zoo`]), standing in for the
//!   undecidable sets `L₀`, `L₁` in the experiments (see `DESIGN.md` §2 for
//!   the substitution argument).
//!
//! # Example
//!
//! ```
//! use ld_turing::{zoo, RunOutcome};
//!
//! let spec = zoo::halts_with_output(5, ld_turing::Symbol(0));
//! match spec.machine.run(1_000) {
//!     RunOutcome::Halted(halt) => {
//!         assert_eq!(halt.output, ld_turing::Symbol(0));
//!         assert!(halt.steps >= 5);
//!     }
//!     RunOutcome::OutOfFuel(_) => unreachable!("the zoo machine halts"),
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod encode;
pub mod error;
pub mod machine;
pub mod shared;
pub mod table;
pub mod window;
pub mod zoo;

pub use encode::{decode_machine, encode_machine};
pub use error::TuringError;
pub use machine::{
    Configuration, Direction, HaltInfo, RunOutcome, State, Symbol, Transition, TuringMachine,
    TuringMachineBuilder,
};
pub use shared::SharedMachine;
pub use table::{Cell, ExecutionTable};

/// Convenient result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, TuringError>;
