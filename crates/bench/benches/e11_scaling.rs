//! Experiment E11 — engineering ablations not present in the paper:
//! ball-extraction and view-enumeration scaling, fragment-collection growth,
//! and the view-function engine versus the message-passing round engine.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use local_decision::constructions::fragments::{FragmentCollection, FragmentSource};
use local_decision::local::engine;
use local_decision::prelude::*;
use std::time::Duration;

fn print_fragment_growth() {
    eprintln!("E11: fragment-collection size |C(M, r)| by source (machine = right-forever)");
    eprintln!("  r   windows  windows+decoys  exhaustive(cap 200k)");
    let machine = zoo::infinite_loop().machine;
    // Radii beyond 1 blow up the exhaustive enumeration; keep the table to
    // the one row that terminates quickly.
    let r = 1u32;
    let windows = FragmentCollection::build(&machine, r, FragmentSource::TableWindows)
        .unwrap()
        .len();
    let decoys = FragmentCollection::build(&machine, r, FragmentSource::WindowsAndDecoys)
        .unwrap()
        .len();
    let exhaustive =
        FragmentCollection::build(&machine, r, FragmentSource::Exhaustive { cap: 200_000 })
            .map_or_else(|_| "cap exceeded".to_string(), |c| c.len().to_string());
    eprintln!("  {r}   {windows:>7}  {decoys:>14}  {exhaustive:>12}");
}

fn print_engine_equivalence() {
    eprintln!("E11: view-function engine vs message-passing round engine (grid 12x12, radius 2)");
    let labeled = LabeledGraph::from_fn(generators::grid(12, 12), |v| (v.index() % 5) as u8);
    let input = Input::with_consecutive_ids(labeled).unwrap();
    let algorithm = FnLocal::new("label-sum-even", 2, |view: ViewRef<u8>| {
        Verdict::from_bool(view.labels().map(|&l| l as u32).sum::<u32>() % 2 == 0)
    });
    let direct = decision::run_local(&input, &algorithm);
    let flooded = engine::run_with_engine(&input, &algorithm);
    eprintln!(
        "  identical verdicts: {}",
        direct.verdicts() == flooded.verdicts()
    );
}

/// The seed extraction pipeline, reconstructed from the retained public
/// APIs exactly as the pre-canonicalisation `collect_oblivious_views` did
/// it: `Graph::ball` (then a two-pass BFS) per node, a clone of the ball
/// graph, and `ObliviousView::from_parts` (which re-derives distances with
/// another BFS).
fn seed_collect<L: Clone>(
    labeled: &LabeledGraph<L>,
    radius: usize,
) -> Vec<local_decision::local::ObliviousView<L>> {
    labeled
        .graph()
        .nodes()
        .map(|v| {
            let ball = labeled.graph().ball(v, radius);
            let labels: Vec<L> = ball
                .mapping()
                .iter()
                .map(|&orig| labeled.label(orig).clone())
                .collect();
            local_decision::local::ObliviousView::from_parts(
                ball.graph().clone(),
                ball.center(),
                radius,
                labels,
            )
        })
        .collect()
}

/// Machine-readable counterpart of the Criterion output: measures the same
/// hot paths with a plain timed loop and writes `BENCH_e11_scaling.json` at
/// the repo root, so the perf trajectory is tracked in-tree.
fn write_perf_snapshot() {
    use ld_bench::perf;
    let mut records = Vec::new();

    for &n in &[64usize, 256, 1024] {
        let labeled = LabeledGraph::uniform(generators::cycle(n), 0u8);
        let input = Input::with_consecutive_ids(labeled).unwrap();
        records.push(perf::measure(
            format!("ball_extraction_cycle/{n}"),
            20,
            || input.view(NodeId(0), 3),
        ));
    }

    for &side in &[6usize, 10] {
        let labeled = LabeledGraph::uniform(generators::grid(side, side), 0u8);
        records.push(perf::measure(
            format!("distinct_views_grid_radius1/{side}"),
            3,
            || enumeration::distinct_oblivious_views_of(&labeled, 1).len(),
        ));
        let cache = local_decision::local::cache::ViewCache::new();
        records.push(perf::measure(
            format!("distinct_views_grid_radius1_cached/{side}"),
            3,
            || enumeration::distinct_oblivious_views_of_cached(&labeled, 1, &cache).len(),
        ));
    }

    // The canonical-form engine vs the seed path, on the radius-2 grid
    // point: `distinct_views_grid_radius2` dedups by total canonical codes
    // (hash-set insertion over in-place ball fingerprints), `…_seedpath`
    // reconstructs the seed pipeline end to end from the retained public
    // APIs — two-pass ball extraction with a graph clone and a re-derived
    // BFS (`seed_collect` below), then WL `canonical_key` bucketing plus
    // pairwise backtracking isomorphism
    // (`distinct_oblivious_views_pairwise`, the differential-test oracle).
    {
        let side = 10usize;
        let labeled = LabeledGraph::uniform(generators::grid(side, side), 0u8);
        records.push(perf::measure(
            format!("distinct_views_grid_radius2/{side}"),
            3,
            || enumeration::distinct_oblivious_views_of(&labeled, 2).len(),
        ));
        records.push(perf::measure(
            format!("distinct_views_grid_radius2_seedpath/{side}"),
            3,
            || enumeration::distinct_oblivious_views_pairwise(seed_collect(&labeled, 2)).len(),
        ));
        // Per-view canonicalisation cost: the total canonical code vs the
        // WL bucketing hash it replaces on the hot path.
        let interior = labeled
            .graph()
            .nodes()
            .map(|v| {
                let ball = labeled.graph().ball(v, 2);
                let labels = vec![0u8; ball.node_count()];
                let center = ball.center();
                ObliviousView::from_parts(ball.graph().clone(), center, 2, labels)
            })
            .max_by_key(local_decision::prelude::ObliviousView::node_count)
            .expect("grid has nodes");
        records.push(perf::measure("canonical_code_grid_view", 20, || {
            interior.canonical_code()
        }));
        records.push(perf::measure("canonical_key_grid_view", 20, || {
            interior.canonical_key()
        }));

        // The bitset kernel vs the retained oracle on the same ≤64-node
        // ball: `canonical_code_grid_view` above dispatches to the kernel
        // (thread-local scratch), `…_oracle` runs the original
        // individualisation–refinement path, `…_scratch` reuses one
        // explicit scratch, and the batch pair canonicalises every centre
        // of the ball in one call vs one oracle call per centre.
        use local_decision::graph::canon::centered_canonical_code_oracle;
        use local_decision::graph::CanonScratch;
        let ball_graph = interior.graph().clone();
        let colors = vec![0u64; ball_graph.node_count()];
        let center = interior.center();
        records.push(perf::measure("canonical_code_grid_view_oracle", 20, || {
            centered_canonical_code_oracle(&ball_graph, center, &colors)
        }));
        let mut scratch = CanonScratch::new();
        records.push(perf::measure(
            "canonical_code_grid_view_scratch",
            20,
            || scratch.centered_code(&ball_graph, center, &colors),
        ));
        let centers: Vec<NodeId> = ball_graph.nodes().collect();
        let mut batch_scratch = CanonScratch::new();
        records.push(perf::measure(
            "canonical_batch_grid_ball_kernel",
            20,
            || {
                batch_scratch
                    .canonicalize_batch(&ball_graph, &colors, &centers)
                    .len()
            },
        ));
        records.push(perf::measure(
            "canonical_batch_grid_ball_oracle",
            20,
            || {
                centers
                    .iter()
                    .map(|&c| centered_canonical_code_oracle(&ball_graph, c, &colors))
                    .collect::<Vec<_>>()
                    .len()
            },
        ));
    }

    let labeled = LabeledGraph::from_fn(generators::grid(16, 16), |v| (v.index() % 5) as u8);
    let input = Input::with_consecutive_ids(labeled).unwrap();
    let algorithm = FnLocal::new("label-sum-even", 2, |view: ViewRef<u8>| {
        Verdict::from_bool(view.labels().map(|&l| l as u32).sum::<u32>() % 2 == 0)
    });
    records.push(perf::measure("engine_view_function_grid16", 3, || {
        decision::run_local(&input, &algorithm).accepted()
    }));

    match perf::write_bench_json("e11_scaling", &records) {
        Ok(path) => eprintln!("E11: perf snapshot written to {}", path.display()),
        Err(e) => eprintln!("E11: could not write perf snapshot: {e}"),
    }
}

fn bench(c: &mut Criterion) {
    print_fragment_growth();
    print_engine_equivalence();
    write_perf_snapshot();

    let mut group = c.benchmark_group("e11_scaling");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(800));

    for &n in &[64usize, 256, 1024] {
        let labeled = LabeledGraph::uniform(generators::cycle(n), 0u8);
        let input = Input::with_consecutive_ids(labeled).unwrap();
        group.bench_with_input(BenchmarkId::new("ball_extraction_cycle", n), &n, |b, _| {
            b.iter(|| input.view(NodeId(0), 3));
        });
    }

    for &side in &[6usize, 10, 14] {
        let labeled = LabeledGraph::uniform(generators::grid(side, side), 0u8);
        group.bench_with_input(
            BenchmarkId::new("distinct_views_grid_radius1", side),
            &side,
            |b, _| b.iter(|| enumeration::distinct_oblivious_views_of(&labeled, 1).len()),
        );
    }

    {
        let labeled = LabeledGraph::uniform(generators::grid(10, 10), 0u8);
        group.bench_function("distinct_views_grid_radius2_canonical", |b| {
            b.iter(|| enumeration::distinct_oblivious_views_of(&labeled, 2).len());
        });
        group.bench_function("distinct_views_grid_radius2_seedpath", |b| {
            b.iter(|| {
                enumeration::distinct_oblivious_views_pairwise(seed_collect(&labeled, 2)).len()
            });
        });
    }

    let labeled = LabeledGraph::from_fn(generators::grid(16, 16), |v| (v.index() % 5) as u8);
    let input = Input::with_consecutive_ids(labeled).unwrap();
    let algorithm = FnLocal::new("label-sum-even", 2, |view: ViewRef<u8>| {
        Verdict::from_bool(view.labels().map(|&l| l as u32).sum::<u32>() % 2 == 0)
    });
    group.bench_function("engine_view_function_grid16", |b| {
        b.iter(|| decision::run_local(&input, &algorithm).accepted());
    });
    group.bench_function("engine_message_passing_grid16", |b| {
        b.iter(|| engine::run_with_engine(&input, &algorithm).accepted());
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
