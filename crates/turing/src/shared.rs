//! A shared machine handle for node labels.
//!
//! The Section 3 constructions put the same machine into every node label,
//! and their deciders only ever ask one question of it: "does `M` halt
//! within `b` steps, and with which output?".  [`SharedMachine`] holds one
//! copy of the machine behind an `Arc`, hashes as a content digest computed
//! once, and answers that question from a halting profile computed at most
//! once per handle, so a decision loop over `n` nodes simulates `M` once,
//! not `n` times.

use crate::machine::{Direction, RunOutcome, Symbol, TuringMachine};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

/// The simulation length the halting profile covers.  Budgets up to the
/// cap, and any budget on a machine that halts within it, are answered by a
/// comparison; a larger budget on a machine still running at the cap falls
/// back to a fresh [`TuringMachine::run`].
pub const PROFILE_CAP: u64 = 1 << 12;

/// A machine shared by every label that carries it.
///
/// Cloning is a refcount bump.  `Eq` compares pointers first and contents
/// second, `Hash` writes a content digest computed at construction, and
/// `Debug` prints the machine, so a label holding a `SharedMachine`
/// compares, hashes and prints as if it held its own copy, without walking
/// the transition table each time.  The handle dereferences to the machine.
#[derive(Clone)]
pub struct SharedMachine(Arc<Inner>);

struct Inner {
    machine: TuringMachine,
    digest: u64,
    /// `Some((steps, output))` if the machine halts within
    /// [`PROFILE_CAP`] steps, `None` if it is still running there.
    profile: OnceLock<Option<(u64, Symbol)>>,
}

impl SharedMachine {
    /// Wraps `machine`, computing its content digest.
    pub fn new(machine: TuringMachine) -> Self {
        let digest = content_digest(&machine);
        SharedMachine(Arc::new(Inner {
            machine,
            digest,
            profile: OnceLock::new(),
        }))
    }

    /// The output of the machine if it halts within `budget` steps from the
    /// blank tape, `None` otherwise: exactly what
    /// `self.run(budget).halted().map(|h| h.output)` returns.
    ///
    /// The first call simulates the machine for at most [`PROFILE_CAP`]
    /// steps; later calls with a budget the profile covers compare numbers.
    pub fn halted_within(&self, budget: u64) -> Option<Symbol> {
        let profile = self
            .0
            .profile
            .get_or_init(|| match self.0.machine.run(PROFILE_CAP) {
                RunOutcome::Halted(halt) => Some((halt.steps, halt.output)),
                RunOutcome::OutOfFuel(_) => None,
            });
        match *profile {
            Some((steps, output)) => (steps <= budget).then_some(output),
            None if budget <= PROFILE_CAP => None,
            None => self.0.machine.run(budget).halted().map(|halt| halt.output),
        }
    }
}

impl Deref for SharedMachine {
    type Target = TuringMachine;

    fn deref(&self) -> &TuringMachine {
        &self.0.machine
    }
}

impl PartialEq for SharedMachine {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
            || (self.0.digest == other.0.digest && self.0.machine == other.0.machine)
    }
}

impl Eq for SharedMachine {}

impl Hash for SharedMachine {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.0.digest);
    }
}

impl fmt::Debug for SharedMachine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.0.machine, f)
    }
}

/// FNV-1a 64 over the machine's name, dimensions and transition table, so
/// equal machines get equal digests.
fn content_digest(machine: &TuringMachine) -> u64 {
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &byte in bytes {
            digest = (digest ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    eat(&(machine.name().len() as u64).to_le_bytes());
    eat(machine.name().as_bytes());
    eat(&[machine.num_states(), machine.num_symbols()]);
    for transition in machine.raw_transitions() {
        match transition {
            None => eat(&[0]),
            Some(t) => {
                let direction = match t.direction {
                    Direction::Left => 1,
                    Direction::Right => 2,
                    Direction::Stay => 3,
                };
                eat(&[direction, t.write.0, t.next_state.0]);
            }
        }
    }
    digest
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(machine: &SharedMachine) -> u64 {
        let mut hasher = DefaultHasher::new();
        machine.hash(&mut hasher);
        hasher.finish()
    }

    #[test]
    fn equal_contents_compare_and_hash_equal_across_handles() {
        let a = SharedMachine::new(zoo::halts_with_output(3, Symbol(1)).machine);
        let b = SharedMachine::new(zoo::halts_with_output(3, Symbol(1)).machine);
        let c = SharedMachine::new(zoo::halts_with_output(3, Symbol(0)).machine);
        assert_eq!(a, a.clone());
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
        assert_ne!(a, c);
        assert_eq!(format!("{a:?}"), format!("{:?}", *a));
    }

    #[test]
    fn profile_answers_small_and_large_budgets() {
        let halting = SharedMachine::new(zoo::halts_with_output(5, Symbol(1)).machine);
        assert_eq!(halting.halted_within(5), None);
        assert_eq!(halting.halted_within(6), Some(Symbol(1)));
        assert_eq!(halting.halted_within(u64::MAX), Some(Symbol(1)));
        let forever = SharedMachine::new(zoo::infinite_loop().machine);
        assert_eq!(forever.halted_within(PROFILE_CAP), None);
        assert_eq!(forever.halted_within(PROFILE_CAP + 7), None);
    }
}
