//! Experiment E13 — streaming sharded sweep execution: the pipeline the
//! large-N scenarios run on.
//!
//! Measures, on the XL scenarios at several scales:
//!
//! * **streaming execution** — the sharded pipeline writing the report
//!   incrementally, at one and at several worker threads;
//! * **writer throughput** — the incremental v3 writer alone, on synthetic
//!   pre-computed cells, isolating serialisation from cell execution;
//! * **checkpoint overhead** — a streaming run with per-shard checkpoint
//!   lines against the same run with shard size equal to the plan (one
//!   flush), bounding what crash-safety costs.
//!
//! Alongside the Criterion output it writes the machine-readable
//! `BENCH_e13_streaming.json` snapshot at the repo root.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ld_runner::report::summary_json;
use ld_runner::stream::{self, Checkpoint, ReportStream, StreamOptions};
use ld_runner::{scenarios, CellOutcome, CellResult, CellSpec, SweepConfig};
use std::path::{Path, PathBuf};
use std::time::Duration;

fn config(max_n: usize, threads: usize, shard_size: usize) -> SweepConfig {
    SweepConfig {
        max_n,
        threads,
        seed: 0xe13,
        shard_size,
        ..SweepConfig::default()
    }
}

fn temp_report(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ld-bench-e13-{}-{tag}.json", std::process::id()))
}

fn cleanup(path: &Path) {
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(Checkpoint::path_for(path));
}

/// Executes the scenario through the streaming pipeline and returns the
/// cells written.
fn streamed_cells(scenario: &str, config: &SweepConfig, path: &Path) -> usize {
    let scenario = scenarios::find(scenario).expect("benchmarked scenarios are registered");
    let summary = stream::run(
        scenario.as_ref(),
        config,
        path,
        &StreamOptions {
            deterministic: true,
            ..StreamOptions::default()
        },
    )
    .expect("benchmark sweep runs");
    assert!(summary.completed && summary.failed == 0);
    summary.cell_count
}

/// Synthetic pre-computed cells: writer throughput without cell cost.
fn synthetic_cells(count: usize) -> Vec<CellResult> {
    (0..count)
        .map(|i| CellResult {
            spec: CellSpec::new(
                format!("synthetic/cell={i}"),
                [("family", "synthetic".to_string()), ("i", i.to_string())],
            ),
            seed: 0x9e37 ^ i as u64,
            outcome: Ok(CellOutcome::new("accept", true)
                .with_metric("nodes", i as f64)
                .with_metric("coverage", 1.0)),
            wall: Duration::from_micros(i as u64),
        })
        .collect()
}

fn write_synthetic(cells: &[CellResult], shard: usize, config: &SweepConfig) -> usize {
    let mut stream = ReportStream::begin(Vec::new(), "synthetic", config).expect("vec sink");
    for chunk in cells.chunks(shard) {
        stream.write_cells(chunk).expect("vec sink");
    }
    let bytes = stream
        .finish(summary_json(cells.len(), cells.len(), 0, 0, 0), None)
        .expect("vec sink");
    bytes.len()
}

/// Machine-readable counterpart of the Criterion output, written to
/// `BENCH_e13_streaming.json`.
fn write_perf_snapshot() {
    use ld_bench::perf;
    let mut records = Vec::new();

    for &max_n in &[128usize, 512] {
        for &threads in &[1usize, 4] {
            let cfg = config(max_n, threads, 16);
            let path = temp_report(&format!("run-{max_n}-{threads}"));
            records.push(perf::measure(
                format!("xl_streaming/{max_n}x{threads}t"),
                3,
                || streamed_cells("section2-sweep-xl", &cfg, &path),
            ));
            cleanup(&path);
        }
    }

    // Writer throughput on pre-computed cells.
    let cells = synthetic_cells(4096);
    let cfg = config(4096, 1, 16);
    records.push(perf::measure("stream_writer_synthetic/4096", 5, || {
        write_synthetic(&cells, 16, &cfg)
    }));

    // Checkpoint overhead: many small shards (many flush+ckpt cycles)
    // against one whole-plan shard (one flush) on the same sweep.
    for (label, shard_size) in [("shard4", 4usize), ("shard_whole", usize::MAX / 2)] {
        let cfg = config(256, 2, shard_size);
        let path = temp_report(label);
        records.push(perf::measure(format!("xl_ckpt_{label}/256x2t"), 3, || {
            streamed_cells("section2-sweep-xl", &cfg, &path)
        }));
        cleanup(&path);
    }

    match perf::write_bench_json("e13_streaming", &records) {
        Ok(path) => eprintln!("E13: perf snapshot written to {}", path.display()),
        Err(e) => eprintln!("E13: could not write perf snapshot: {e}"),
    }
}

fn bench(c: &mut Criterion) {
    write_perf_snapshot();

    let mut group = c.benchmark_group("e13_streaming");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(800));

    for &threads in &[1usize, 4] {
        let cfg = config(128, threads, 16);
        let path = temp_report(&format!("crit-{threads}"));
        group.bench_with_input(BenchmarkId::new("streaming", threads), &cfg, |b, cfg| {
            b.iter(|| streamed_cells("section2-sweep-xl", cfg, &path));
        });
        cleanup(&path);
    }

    let cells = synthetic_cells(1024);
    let cfg = config(1024, 1, 16);
    group.bench_function("writer_synthetic_1024", |b| {
        b.iter(|| write_synthetic(&cells, 16, &cfg));
    });

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
