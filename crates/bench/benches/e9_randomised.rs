//! Experiments E9–E10 — Corollary 1 (the randomised Id-oblivious decider)
//! and the Id-oblivious simulation `A*`.

use criterion::{criterion_group, criterion_main, Criterion};
use local_decision::deciders::randomized::{failure_probability_bound, RandomizedGmrDecider};
use local_decision::deciders::section3 as s3;
use local_decision::local::simulation::ObliviousSimulation;
use local_decision::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

const SOURCE: FragmentSource = FragmentSource::WindowsAndDecoys;

fn print_cor1_series() {
    eprintln!("E9: Corollary 1 — randomised Id-oblivious decider on G(M, r)");
    eprintln!("  machine          n(nodes)  acceptance(yes-instance)  acceptance(no-instance)  (1-1/sqrt(n))^n");
    let mut rng = StdRng::seed_from_u64(2024);
    let decider = RandomizedGmrDecider::new(1 << 20);
    for k in [2u8, 4, 8] {
        let yes_spec = zoo::halts_with_output(k, Symbol(0));
        let no_spec = zoo::halts_with_output(k, Symbol(1));
        let yes_input = s3::gmr_input(&yes_spec.machine, 1, 10_000, SOURCE).unwrap();
        let no_input = s3::gmr_input(&no_spec.machine, 1, 10_000, SOURCE).unwrap();
        let n = yes_input.node_count();
        let yes_rate = decision::estimate_acceptance(&yes_input, &decider, 40, &mut rng);
        let no_rate = decision::estimate_acceptance(&no_input, &decider, 40, &mut rng);
        eprintln!(
            "  {:<16} {n:>8}  {yes_rate:>23.3}  {no_rate:>22.3}  {:.3e}",
            yes_spec.machine.name(),
            failure_probability_bound(n)
        );
    }
}

fn print_astar_series() {
    eprintln!("E10: Id-oblivious simulation A* (universe sweep) on the max-id decider");
    eprintln!("  universe  accepts-8-cycle");
    for universe in [4u64, 8, 16, 32] {
        let inner = FnLocal::new("ids-below-16", 1, |view: ViewRef<u8>| {
            Verdict::from_bool(view.max_id().unwrap_or(0) < 16)
        });
        let simulated = ObliviousSimulation::new(inner, universe);
        let labeled = LabeledGraph::uniform(generators::cycle(8), 0u8);
        let input = Input::with_consecutive_ids(labeled).unwrap();
        let accepted = decision::run_oblivious(&input, &simulated).accepted();
        eprintln!("  {universe:>8}  {accepted}");
    }
}

fn bench(c: &mut Criterion) {
    print_cor1_series();
    print_astar_series();

    let mut group = c.benchmark_group("e9_e10_randomised_and_simulation");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(800));
    let spec = zoo::halts_with_output(3, Symbol(1));
    let input = s3::gmr_input(&spec.machine, 1, 10_000, SOURCE).unwrap();
    let decider = RandomizedGmrDecider::new(1 << 20);
    group.bench_function("randomised_decider_one_run", |b| {
        let mut rng = StdRng::seed_from_u64(7);
        b.iter(|| decision::run_randomized(&input, &decider, &mut rng).accepted());
    });
    group.bench_function("astar_simulation_universe8_cycle8", |b| {
        let inner = FnLocal::new("ids-below-16", 1, |view: ViewRef<u8>| {
            Verdict::from_bool(view.max_id().unwrap_or(0) < 16)
        });
        let simulated = ObliviousSimulation::new(inner, 8);
        let labeled = LabeledGraph::uniform(generators::cycle(8), 0u8);
        let cycle_input = Input::with_consecutive_ids(labeled).unwrap();
        b.iter(|| decision::run_oblivious(&cycle_input, &simulated).accepted());
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
