//! Corollary 1: the randomised Id-oblivious decider.
//!
//! An Id-oblivious algorithm cannot learn `n` from identifiers, but each
//! node can privately generate a *large number with decent probability*: it
//! tosses a fair coin until the first head, after `ℓ_v` tosses, and sets
//! `n_v = 4^{ℓ_v}`.  The probability that **no** node reaches `n_v ≥ n` is at
//! most `(1 − 1/√n)^n = o(1)`, so with high probability some node can finish
//! simulating `M` for `n_v` steps — replacing the large identifier of the
//! deterministic Section 3 decider.  This yields a `(1, 1 − o(1))`-decider
//! for the property `P = {G(M, r) : M outputs 0}`.

use crate::section3::{rejects_on_halting, rejects_on_nonzero_output};
use ld_constructions::section3::{promise::MachineLabel, Section3Label};
use ld_local::{ObliviousViewRef, RandomizedObliviousAlgorithm, Verdict};
use rand::RngCore;

/// Draws `ℓ` fair-coin tosses until the first head and returns `4^ℓ`
/// (saturating, and capped by `cap`).
pub fn random_budget(rng: &mut dyn RngCore, cap: u64) -> u64 {
    let mut tosses = 0u32;
    // Count tails until the first head.
    while rng.next_u32() & 1 == 0 {
        tosses += 1;
        if tosses >= 32 {
            break;
        }
    }
    4u64.saturating_pow(tosses).min(cap)
}

/// The randomised Id-oblivious decider for the Section 3 property: simulate
/// `M` for a random budget `n_v = 4^{ℓ_v}` steps and reject iff it is seen
/// to halt with a non-zero output.
///
/// * Yes-instances (`M` outputs 0) are accepted with probability 1: no
///   simulation, however long, reveals a non-zero output.
/// * No-instances are rejected with probability `1 − (1 − 1/√n)^n = 1 − o(1)`
///   because some node's budget exceeds `M`'s running time w.h.p.
#[derive(Debug, Clone)]
pub struct RandomizedGmrDecider {
    cap: u64,
}

impl RandomizedGmrDecider {
    /// Creates the decider; `cap` bounds the simulation budget so that
    /// experiments terminate (the paper's decider has no cap, and the cap is
    /// irrelevant as long as it exceeds the running times in the zoo).
    pub fn new(cap: u64) -> Self {
        RandomizedGmrDecider { cap }
    }
}

impl RandomizedObliviousAlgorithm<Section3Label> for RandomizedGmrDecider {
    fn name(&self) -> &str {
        "corollary1-randomised-decider"
    }

    fn radius(&self) -> usize {
        1
    }

    fn evaluate(
        &self,
        view: ObliviousViewRef<'_, Section3Label>,
        rng: &mut dyn RngCore,
    ) -> Verdict {
        let budget = random_budget(rng, self.cap);
        rejects_on_nonzero_output(&view.center_label().machine, budget)
    }
}

/// The same randomised trick applied to the Section 3 promise problem
/// (reject iff the labelled machine is seen to halt within the random
/// budget) — used to compare randomness against identifiers on the simplest
/// possible instance family.
#[derive(Debug, Clone)]
pub struct RandomizedPromiseDecider {
    cap: u64,
}

impl RandomizedPromiseDecider {
    /// Creates the decider with a budget cap.
    pub fn new(cap: u64) -> Self {
        RandomizedPromiseDecider { cap }
    }
}

impl RandomizedObliviousAlgorithm<MachineLabel> for RandomizedPromiseDecider {
    fn name(&self) -> &str {
        "randomised-promise-decider"
    }

    fn radius(&self) -> usize {
        0
    }

    fn evaluate(&self, view: ObliviousViewRef<'_, MachineLabel>, rng: &mut dyn RngCore) -> Verdict {
        let budget = random_budget(rng, self.cap);
        rejects_on_halting(&view.center_label().machine, budget)
    }
}

/// The paper's failure-probability bound `(1 − 1/√n)^n` for a graph on `n`
/// nodes: the probability that no node draws a budget of at least `n`.
pub fn failure_probability_bound(n: usize) -> f64 {
    if n == 0 {
        return 0.0;
    }
    let n_f = n as f64;
    (1.0 - 1.0 / n_f.sqrt()).powf(n_f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::section3::gmr_input;
    use ld_constructions::fragments::FragmentSource;
    use ld_local::decision::{estimate_acceptance, run_randomized};
    use ld_turing::{zoo, Symbol};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn random_budget_is_a_power_of_four_up_to_cap() {
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..200 {
            let b = random_budget(&mut rng, 1 << 20);
            assert!(b >= 1);
            assert!(b.is_power_of_two() || b == 1 << 20);
            // Powers of 4 have an even number of trailing zeros.
            if b < 1 << 20 {
                assert_eq!(b.trailing_zeros() % 2, 0);
            }
        }
    }

    #[test]
    fn yes_instances_are_always_accepted() {
        let spec = zoo::halts_with_output(3, Symbol(0));
        let input = gmr_input(&spec.machine, 1, 10_000, FragmentSource::WindowsAndDecoys).unwrap();
        let decider = RandomizedGmrDecider::new(1 << 20);
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..20 {
            assert!(run_randomized(&input, &decider, &mut rng).accepted());
        }
    }

    #[test]
    fn no_instances_are_rejected_with_high_probability() {
        let spec = zoo::halts_with_output(3, Symbol(1));
        let input = gmr_input(&spec.machine, 1, 10_000, FragmentSource::WindowsAndDecoys).unwrap();
        let decider = RandomizedGmrDecider::new(1 << 20);
        let mut rng = StdRng::seed_from_u64(11);
        let acceptance = estimate_acceptance(&input, &decider, 60, &mut rng);
        // The machine halts after 4 steps; a node rejects unless its budget
        // is below 4, i.e. unless it tossed a head immediately (prob 1/2) —
        // and the instance has dozens of nodes, so acceptance is ~0.
        assert!(acceptance < 0.05, "acceptance = {acceptance}");
    }

    #[test]
    fn promise_problem_randomised_decider() {
        let halting = zoo::halts_with_output(6, Symbol(1));
        let forever = zoo::infinite_loop();
        let no = ld_constructions::section3::promise::instance(&halting.machine, 16).unwrap();
        let yes = ld_constructions::section3::promise::instance(&forever.machine, 16).unwrap();
        let no_input = ld_local::Input::with_consecutive_ids(no).unwrap();
        let yes_input = ld_local::Input::with_consecutive_ids(yes).unwrap();
        let decider = RandomizedPromiseDecider::new(1 << 16);
        let mut rng = StdRng::seed_from_u64(3);
        assert!(estimate_acceptance(&yes_input, &decider, 30, &mut rng) == 1.0);
        assert!(estimate_acceptance(&no_input, &decider, 60, &mut rng) < 0.2);
    }

    #[test]
    fn failure_bound_shrinks_with_n() {
        assert_eq!(failure_probability_bound(0), 0.0);
        let small = failure_probability_bound(4);
        let medium = failure_probability_bound(100);
        let large = failure_probability_bound(10_000);
        assert!(small > medium && medium > large);
        assert!(large < 1e-40);
    }
}
