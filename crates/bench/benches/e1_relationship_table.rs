//! Experiment E1 — the Section 1.1 relationship table.
//!
//! For each of the four cells (B / ¬B) × (C / ¬C) the harness runs the
//! witnessing construction and prints the verdict (`LD* != LD` or
//! `LD* == LD`), then benchmarks the end-to-end cell evaluation.

use criterion::{criterion_group, criterion_main, Criterion};
use local_decision::prelude::*;
use std::time::Duration;

fn cell_b(params: &Section2Params) -> bool {
    // (B, *): the Section 2 witness — the Id-based decider is correct on the
    // family while the always-yes oblivious baseline (and every candidate in
    // the harness) fails.
    let id_ok = {
        let decider = IdBasedDecider::new(params.clone());
        let property =
            local_decision::constructions::section2::SmallInstancesProperty::new(params.clone());
        let inputs = ld_section2_inputs(params, 6);
        decision::check_decides(&property, &decider, &inputs).all_correct()
    };
    let oblivious_fails = local_decision::deciders::section2::oblivious_candidate_fails(
        params,
        &StructureVerifier::new(params.clone()),
        6,
    )
    .unwrap();
    id_ok && oblivious_fails
}

fn ld_section2_inputs(params: &Section2Params, max_small: usize) -> Vec<Input<Section2Label>> {
    local_decision::deciders::section2::experiment_inputs(params, max_small).unwrap()
}

fn cell_c() -> bool {
    // (¬B, C): the Section 3 witness — the two-stage Id decider is correct on
    // the zoo, every fuel-bounded oblivious candidate errs.
    let zoo_machines = vec![
        zoo::halts_with_output(1, Symbol(0)),
        zoo::halts_with_output(6, Symbol(1)),
    ];
    let (id_ok, failing) = local_decision::deciders::section3::theorem2_experiment(
        &zoo_machines,
        1,
        10_000,
        FragmentSource::WindowsAndDecoys,
        &[2],
    )
    .unwrap();
    id_ok && failing == vec![2]
}

fn cell_not_b_not_c() -> bool {
    // (¬B, ¬C): the Id-oblivious simulation A* reproduces the verdicts of an
    // identifier-reading algorithm, i.e. LD* == LD in this cell.
    let inner = FnLocal::new("ids-below-1000", 1, |view: ViewRef<u8>| {
        Verdict::from_bool(view.max_id().unwrap_or(0) < 1_000)
    });
    let simulated = local_decision::local::simulation::ObliviousSimulation::new(inner, 8);
    let labeled = LabeledGraph::uniform(generators::cycle(8), 0u8);
    let input = Input::with_consecutive_ids(labeled).unwrap();
    decision::run_oblivious(&input, &simulated).accepted()
}

fn print_table(params: &Section2Params) {
    let b = cell_b(params);
    let c = cell_c();
    let free = cell_not_b_not_c();
    eprintln!("E1: relationship between LD* and LD (paper, Section 1.1)");
    eprintln!("            (C)            (~C)");
    eprintln!(
        "  (B)    LD* {} LD     LD* {} LD",
        if b && c { "!=" } else { "??" },
        if b { "!=" } else { "??" }
    );
    eprintln!(
        "  (~B)   LD* {} LD     LD* {} LD",
        if c { "!=" } else { "??" },
        if free { "==" } else { "??" }
    );
}

fn bench(c: &mut Criterion) {
    let params = Section2Params::new(1, IdBound::identity_plus(2)).unwrap();
    print_table(&params);
    let mut group = c.benchmark_group("e1_relationship_table");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(800));
    group.bench_function("cell_B_section2", |b| b.iter(|| cell_b(&params)));
    group.bench_function("cell_C_section3", |b| b.iter(cell_c));
    group.bench_function("cell_notB_notC_simulation", |b| b.iter(cell_not_b_not_c));
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
