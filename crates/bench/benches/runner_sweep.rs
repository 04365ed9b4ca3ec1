//! Benchmark of `ld_runner::executor::execute`, the in-memory sink of the
//! sharded sweep driver: the Section 2 sweep at several thread counts, with
//! a machine-readable snapshot written to `BENCH_runner_sweep.json`.

use criterion::{criterion_group, criterion_main, Criterion};
use ld_bench::perf;
use ld_runner::{executor, scenarios, SweepConfig};
use std::time::Duration;

fn config(threads: usize) -> SweepConfig {
    SweepConfig {
        max_n: 48,
        threads,
        seed: 7,
        ..SweepConfig::default()
    }
}

fn write_perf_snapshot() {
    use std::time::Instant;
    let thread_counts = [1usize, 2, 4, 8];
    // Thread-count records are measured *round-robin*, not in sequential
    // blocks: one timed run of every config per round.  Slow monotone drift
    // within the process (allocator growth, frequency scaling) then biases
    // every thread count equally instead of penalising whichever config
    // happens to be measured last.
    for &threads in &thread_counts {
        let _ = executor::execute(&scenarios::Section2Sweep, &config(threads));
    }
    const ROUNDS: u64 = 120;
    let mut totals = vec![0u128; thread_counts.len()];
    for _ in 0..ROUNDS {
        for (slot, &threads) in thread_counts.iter().enumerate() {
            let started = Instant::now();
            std::hint::black_box(
                executor::execute(&scenarios::Section2Sweep, &config(threads))
                    .unwrap()
                    .passed(),
            );
            totals[slot] += started.elapsed().as_nanos();
        }
    }
    let mut records: Vec<perf::BenchRecord> = thread_counts
        .iter()
        .zip(totals)
        .map(|(&threads, total)| perf::BenchRecord {
            name: format!("section2_sweep_threads/{threads}"),
            mean_nanos: total / u128::from(ROUNDS),
            iterations: ROUNDS,
        })
        .collect();
    records.push(perf::measure("pyramid_sweep_threads/2", 2, || {
        executor::execute(&scenarios::PyramidSweep, &config(2))
            .unwrap()
            .passed()
    }));
    match perf::write_bench_json("runner_sweep", &records) {
        Ok(path) => eprintln!("runner: perf snapshot written to {}", path.display()),
        Err(e) => eprintln!("runner: could not write perf snapshot: {e}"),
    }
}

fn bench(c: &mut Criterion) {
    write_perf_snapshot();

    let mut group = c.benchmark_group("runner_sweep");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(800));
    for threads in [1usize, 4] {
        group.bench_function(format!("section2_sweep_threads_{threads}"), |b| {
            b.iter(|| {
                executor::execute(&scenarios::Section2Sweep, &config(threads))
                    .unwrap()
                    .passed()
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
