//! `section3-sweep`: the computability separation, swept over the machine
//! zoo.
//!
//! Cells cover the execution-table family `G(M, r)`: the two-stage
//! identifier-reading decider must match ground truth machine by machine,
//! and fuel-bounded Id-oblivious candidates must err somewhere on the zoo
//! (Theorem 2's mechanised content).  Oblivious verdicts are evaluated
//! directly on every node: a candidate's verdict is at most a few machine
//! steps, cheaper than hashing the view to look it up in a verdict memo.

use crate::cell::{CellOutcome, CellSpec};
use crate::scenario::{Plan, Scenario, SweepConfig};
use ld_constructions::fragments::FragmentSource;
use ld_deciders::section3::{gmr_input, FuelBoundedObliviousCandidate, TwoStageIdDecider};
use ld_local::decision;
use ld_turing::zoo::{self, MachineSpec};

const SOURCE: FragmentSource = FragmentSource::WindowsAndDecoys;
const RADIUS: u32 = 1;
const FUEL: u64 = 10_000;

/// The Section 3 sweep scenario.
pub struct Section3Sweep;

fn halting_zoo(max_n: usize) -> Vec<MachineSpec> {
    // `max_n` scales the zoo breadth: slow machines produce tall execution
    // tables, so a small budget keeps to the quick ones.
    let budget = max_n as u64;
    let mut machines: Vec<MachineSpec> = zoo::output_zero_zoo()
        .into_iter()
        .chain(zoo::output_one_zoo())
        .filter(|spec| spec.truth.steps().is_some_and(|steps| steps <= budget))
        .collect();
    machines.sort_by(|a, b| a.machine.name().cmp(b.machine.name()));
    machines
}

fn id_decider_cell(plan: &mut Plan, spec_m: &MachineSpec) {
    let expect = if spec_m.in_l0() { "accept" } else { "reject" };
    let name = spec_m.machine.name().to_string();
    let spec = CellSpec::new(
        format!("gmr/machine={name}/alg=two-stage-id"),
        [
            ("family", "gmr".to_string()),
            ("machine", name),
            ("alg", "two-stage-id".to_string()),
            ("expect", expect.to_string()),
        ],
    );
    let machine = spec_m.machine.clone();
    plan.push(spec, move |_seed| {
        let input = gmr_input(&machine, RADIUS, FUEL, SOURCE)
            .expect("zoo machines halt within the sweep fuel");
        let accepted = decision::run_local(&input, &TwoStageIdDecider::new(FUEL)).accepted();
        let verdict = if accepted { "accept" } else { "reject" };
        CellOutcome::new(verdict, verdict == expect).with_metric("nodes", input.node_count() as f64)
    });
}

fn candidate_cell(plan: &mut Plan, machines: &[MachineSpec], fuel: u64) {
    let spec = CellSpec::new(
        format!("gmr/candidate-fuel={fuel}"),
        [
            ("family", "gmr".to_string()),
            ("alg", format!("oblivious-fuel-{fuel}")),
            ("expect", "errs".to_string()),
        ],
    );
    let machines = machines.to_vec();
    plan.push(spec, move |_seed| {
        let candidate = FuelBoundedObliviousCandidate::new(fuel);
        let mut errors = 0usize;
        for spec_m in &machines {
            let input = gmr_input(&spec_m.machine, RADIUS, FUEL, SOURCE)
                .expect("zoo machines halt within the sweep fuel");
            let accepted = decision::run_oblivious(&input, &candidate).accepted();
            if accepted != spec_m.in_l0() {
                errors += 1;
            }
        }
        // A fuel-starved candidate cannot tell long tables from decoys; it
        // must err somewhere on a zoo whose running times exceed its fuel.
        let verdict = if errors > 0 { "errs" } else { "decides" };
        CellOutcome::new(verdict, verdict == "errs")
            .with_metric("errors", errors as f64)
            .with_metric("machines", machines.len() as f64)
    });
}

impl Scenario for Section3Sweep {
    fn name(&self) -> &str {
        "section3-sweep"
    }

    fn description(&self) -> &str {
        "Execution-table family G(M,r) over the machine zoo: id decider vs fuel-bounded candidates"
    }

    fn plan(&self, config: &SweepConfig) -> Result<Plan, String> {
        let machines = halting_zoo(config.max_n);
        if machines.is_empty() {
            return Err(format!(
                "max_n = {} admits no zoo machine (the quickest halts in 1 step)",
                config.max_n
            ));
        }
        let mut plan = Plan::new();
        for spec_m in &machines {
            id_decider_cell(&mut plan, spec_m);
        }
        for fuel in [1u64, 2, 4] {
            // The "must err" expectation only holds when the zoo actually
            // contains a machine outrunning the candidate's fuel.
            let outrun = machines
                .iter()
                .any(|m| m.truth.steps().is_some_and(|steps| steps > fuel));
            if outrun {
                candidate_cell(&mut plan, &machines, fuel);
            }
        }
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor;
    use ld_local::cache::CacheStats;

    #[test]
    fn sweep_confirms_theorem_2_on_the_quick_zoo() {
        let config = SweepConfig {
            max_n: 24,
            threads: 2,
            seed: 9,
            ..SweepConfig::default()
        };
        let report = executor::execute(&Section3Sweep, &config).unwrap();
        assert!(report.cells.len() >= 5);
        assert_eq!(report.panicked(), 0);
        assert_eq!(
            report.failed(),
            0,
            "failing cells: {:?}",
            report
                .cells
                .iter()
                .filter(|c| !c.passed())
                .map(|c| c.spec.id.clone())
                .collect::<Vec<_>>()
        );
        // No cell consults a view cache: the candidates' verdicts are
        // cheaper to recompute than to look up.
        assert_eq!(report.cache, CacheStats::default());
    }
}
