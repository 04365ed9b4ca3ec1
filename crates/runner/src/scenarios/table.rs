//! `relationship-table`: the Section 1.1 summary table as four cells.
//!
//! Each cell of the (B / ¬B) × (C / ¬C) table is one sweep cell running its
//! witnessing experiment: the Section 2 layered trees for (B), the
//! Section 3 zoo for (C), and the Id-oblivious simulation `A*` for the free
//! quadrant where identifiers provably add nothing.

use crate::cell::{CellOutcome, CellSpec};
use crate::scenario::{Plan, Scenario, SweepConfig};
use ld_constructions::fragments::FragmentSource;
use ld_constructions::section2::{Section2Params, SmallInstancesProperty};
use ld_deciders::section2::{self as s2, IdBasedDecider, StructureVerifier};
use ld_deciders::section3 as s3;
use ld_graph::{generators, LabeledGraph};
use ld_local::decision::{self, check_decides};
use ld_local::simulation::ObliviousSimulation;
use ld_local::{FnLocal, IdBound, Input, Verdict, ViewRef};
use ld_turing::{zoo, Symbol};
use std::sync::{Arc, OnceLock};

const MAX_SMALL: usize = 8;

/// The relationship-table scenario.
pub struct RelationshipTable;

fn section2_separates() -> bool {
    let params =
        Section2Params::new(1, IdBound::identity_plus(2)).expect("the r = 1 parameters are valid");
    let inputs = s2::experiment_inputs(&params, MAX_SMALL).expect("the r = 1 family constructs");
    let id_ok = check_decides(
        &SmallInstancesProperty::new(params.clone()),
        &IdBasedDecider::new(params.clone()),
        &inputs,
    )
    .all_correct();
    // The oblivious verifier fails as a decider for P: it must accept every
    // small instance yet also accepts T_r — which `experiment_inputs`
    // documents to be the last element.
    let verifier = StructureVerifier::new(params.clone());
    let verdicts: Vec<bool> = inputs
        .iter()
        .map(|input| decision::run_oblivious(input, &verifier).accepted())
        .collect();
    let (large_accepted, smalls) = verdicts.split_last().expect("inputs are nonempty");
    let oblivious_fails = smalls.iter().any(|accepted| !accepted) || *large_accepted;
    id_ok && oblivious_fails
}

fn section3_separates() -> bool {
    let machines = vec![
        zoo::halts_with_output(1, Symbol(0)),
        zoo::halts_with_output(6, Symbol(1)),
    ];
    let (id_ok, failing) =
        s3::theorem2_experiment(&machines, 1, 10_000, FragmentSource::WindowsAndDecoys, &[2])
            .expect("the quick zoo constructs");
    id_ok && !failing.is_empty()
}

fn free_quadrant_agrees() -> bool {
    // (¬B, ¬C): the Id-oblivious simulation A* reproduces the inner
    // Id-reading algorithm's decision, so no separation arises.
    let inner = FnLocal::new("ids-below-1000", 1, |view: ViewRef<u8>| {
        Verdict::from_bool(view.max_id().unwrap_or(0) < 1_000)
    });
    let simulated = ObliviousSimulation::new(inner, 8);
    let labeled = LabeledGraph::uniform(generators::cycle(8), 0u8);
    let input = Input::with_consecutive_ids(labeled).expect("cycles are connected");
    decision::run_oblivious(&input, &simulated).accepted()
}

/// The two expensive witnessing experiments, computed at most once per plan
/// and shared by every quadrant cell that needs them (the B-C quadrant
/// conjoins both; rerunning them there would double the sweep's work).
/// `OnceLock` keeps the sharing deterministic: whichever cell runs first
/// computes the same value any other order would.
struct SharedWitnesses {
    section2: OnceLock<bool>,
    section3: OnceLock<bool>,
}

impl SharedWitnesses {
    fn section2(&self) -> bool {
        *self.section2.get_or_init(section2_separates)
    }

    fn section3(&self) -> bool {
        *self.section3.get_or_init(section3_separates)
    }
}

fn table_cell(
    plan: &mut Plan,
    witnesses: &Arc<SharedWitnesses>,
    quadrant: &'static str,
    needs_b: bool,
    needs_c: bool,
    expect: &'static str,
) {
    let spec = CellSpec::new(
        format!("table/{quadrant}"),
        [
            ("quadrant", quadrant.to_string()),
            ("bounded_ids", needs_b.to_string()),
            ("computable", needs_c.to_string()),
            ("expect", expect.to_string()),
        ],
    );
    let witnesses = witnesses.clone();
    plan.push(spec, move |_seed| {
        let separated = match (needs_b, needs_c) {
            // Both switches on: either witness family separates.
            (true, true) => witnesses.section2() && witnesses.section3(),
            (true, false) => witnesses.section2(),
            (false, true) => witnesses.section3(),
            (false, false) => !free_quadrant_agrees(),
        };
        let verdict = if separated { "LD* != LD" } else { "LD* == LD" };
        CellOutcome::new(verdict, verdict == expect)
            .with_metric("separated", if separated { 1.0 } else { 0.0 })
    });
}

impl Scenario for RelationshipTable {
    fn name(&self) -> &str {
        "relationship-table"
    }

    fn description(&self) -> &str {
        "The Section 1.1 (B/~B) x (C/~C) summary table, one witnessing experiment per quadrant"
    }

    fn plan(&self, _config: &SweepConfig) -> Result<Plan, String> {
        let mut plan = Plan::new();
        let witnesses = Arc::new(SharedWitnesses {
            section2: OnceLock::new(),
            section3: OnceLock::new(),
        });
        table_cell(&mut plan, &witnesses, "B-C", true, true, "LD* != LD");
        table_cell(&mut plan, &witnesses, "B-notC", true, false, "LD* != LD");
        table_cell(&mut plan, &witnesses, "notB-C", false, true, "LD* != LD");
        table_cell(
            &mut plan,
            &witnesses,
            "notB-notC",
            false,
            false,
            "LD* == LD",
        );
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor;

    #[test]
    fn all_four_quadrants_come_out_as_the_paper_states() {
        let report = executor::execute(&RelationshipTable, &SweepConfig::default()).unwrap();
        assert_eq!(report.cells.len(), 4);
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
    }
}
