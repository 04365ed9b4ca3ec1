//! Replay probes for the layers that run inside a cell closure.
//!
//! A cell is one opaque closure, so ball extraction, canonicalisation,
//! decider evaluation and execution-table construction cannot be timed
//! from outside it.  The probes rebuild the workload's own instances with
//! the public constructors and feed them through the same public entry
//! points — `BallExtractor::extract`, `CanonScratch::centered_code`,
//! `ViewCache::canonical_code_in`, `gmr_input`, `decision::run_local` and
//! `decision::run_oblivious_cached` — timing each layer over whole batches.

use crate::stats::{median, ratio};
use ld_constructions::fragments::FragmentSource;
use ld_constructions::section2::{promise, Section2Params};
use ld_deciders::section3::{gmr_input, FuelBoundedObliviousCandidate, TwoStageIdDecider};
use ld_graph::{generators, Ball, BallExtractor, CanonScratch, LabeledGraph};
use ld_local::cache::ViewCache;
use ld_local::{decision, IdBound, ObliviousView};
use ld_runner::Plan;
use ld_turing::zoo;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::hint::black_box;
use std::time::Instant;

/// `section3-sweep`'s view radius, fuel and fragment source.
const GMR_RADIUS: u32 = 1;
const GMR_FUEL: u64 = 10_000;
const GMR_SOURCE: FragmentSource = FragmentSource::WindowsAndDecoys;

/// Centres probed per Section 2 family and pass: instances are sampled
/// evenly across the family's sizes to stay under it.
const FAMILY_CENTRES: usize = 30_000;

/// Most passes a probe repeats.
const MAX_PASSES: usize = 9;

/// Work and time of one probe pass.
#[derive(Debug, Default, Clone, Copy)]
struct Pass {
    extracts: u64,
    extract_ns: u64,
    ball_nodes: u64,
    codes: u64,
    code_ns: u64,
    lookups: u64,
    kernel_calls: u64,
    decide_ns: u64,
    build_ns: u64,
}

/// The passes of one probe.
pub struct ProbeTotals {
    passes: Vec<Pass>,
}

impl ProbeTotals {
    /// Per-layer metrics: the median over passes of each rate or total.
    pub fn layers(&self) -> Vec<(&'static str, f64)> {
        let over =
            |f: &dyn Fn(&Pass) -> f64| median(&self.passes.iter().map(f).collect::<Vec<_>>());
        vec![
            (
                "ball.ns_per_extract",
                over(&|p| ratio(p.extract_ns as f64, p.extracts as f64)),
            ),
            (
                "ball.nodes_per_extract",
                over(&|p| ratio(p.ball_nodes as f64, p.extracts as f64)),
            ),
            ("canon.kernel_calls", over(&|p| p.kernel_calls as f64)),
            (
                "canon.kernel_share",
                over(&|p| ratio(p.kernel_calls as f64, p.lookups as f64)),
            ),
            (
                "canon.ns_per_code",
                over(&|p| ratio(p.code_ns as f64, p.codes as f64)),
            ),
            ("decide.ms", over(&|p| p.decide_ns as f64 / 1e6)),
            ("gmr.build_ms", over(&|p| p.build_ns as f64 / 1e6)),
        ]
    }
}

/// Runs `pass` at least once and then until `seconds` have passed.
fn passes(
    seconds: f64,
    mut pass: impl FnMut(&mut Prober) -> Result<(), String>,
) -> Result<ProbeTotals, String> {
    let started = Instant::now();
    let mut totals = ProbeTotals { passes: Vec::new() };
    let mut prober = Prober {
        extractor: BallExtractor::new(),
        scratch: CanonScratch::new(),
        pass: Pass::default(),
    };
    while totals.passes.is_empty()
        || (totals.passes.len() < MAX_PASSES && started.elapsed().as_secs_f64() < seconds)
    {
        prober.pass = Pass::default();
        pass(&mut prober)?;
        totals.passes.push(prober.pass);
    }
    Ok(totals)
}

/// Reusable probe state: one extractor and one kernel scratch, as a sweep
/// worker holds.
struct Prober {
    extractor: BallExtractor,
    scratch: CanonScratch,
    pass: Pass,
}

impl Prober {
    /// Extracts every centre's ball, canonicalises each, then looks each
    /// view up in `cache`.
    fn graph<L>(&mut self, graph: &LabeledGraph<L>, radius: usize, cache: &ViewCache<L>)
    where
        L: Clone + Eq + Hash + Send + Sync,
    {
        let started = Instant::now();
        let balls: Vec<Ball> = graph
            .graph()
            .nodes()
            .map(|v| {
                self.extractor
                    .extract(graph.graph(), v, radius)
                    .expect("every centre is a node of its own graph")
            })
            .collect();
        self.pass.extract_ns += started.elapsed().as_nanos() as u64;
        self.pass.extracts += balls.len() as u64;
        self.pass.ball_nodes += balls.iter().map(|b| b.node_count() as u64).sum::<u64>();

        let labels: Vec<Vec<L>> = balls
            .iter()
            .map(|b| {
                b.mapping()
                    .iter()
                    .map(|&u| graph.label(u).clone())
                    .collect()
            })
            .collect();
        let colors: Vec<Vec<u64>> = labels
            .iter()
            .map(|ls| {
                ls.iter()
                    .map(|l| {
                        let mut hasher = DefaultHasher::new();
                        l.hash(&mut hasher);
                        hasher.finish()
                    })
                    .collect()
            })
            .collect();
        let started = Instant::now();
        for (ball, colors) in balls.iter().zip(&colors) {
            black_box(
                self.scratch
                    .centered_code(ball.graph(), ball.center(), colors),
            );
        }
        self.pass.code_ns += started.elapsed().as_nanos() as u64;
        self.pass.codes += balls.len() as u64;

        let before = self.scratch.kernel_calls();
        for (ball, labels) in balls.into_iter().zip(labels) {
            let (ball_graph, center, radius, _, _) = ball.into_parts();
            let view = ObliviousView::from_parts(ball_graph, center, radius, labels);
            black_box(cache.canonical_code_in(&view, &mut self.scratch));
            self.pass.lookups += 1;
        }
        self.pass.kernel_calls += self.scratch.kernel_calls() - before;
    }
}

/// The Section 2 radius-3 instances a plan's cells build, by label type.
#[derive(Default)]
struct Section2Instances {
    plain: Vec<(LabeledGraph<u8>, usize)>,
    trees: Vec<(
        LabeledGraph<ld_constructions::section2::Section2Label>,
        usize,
    )>,
    cycles: Vec<(LabeledGraph<promise::CycleParamLabel>, usize)>,
}

/// One instance a Section 2 cell builds, before it is built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Instance {
    Path(usize),
    Grid(usize),
    Tree(usize),
    Cycle(u64),
}

impl Instance {
    fn nodes(self) -> usize {
        match self {
            Instance::Path(n) => n,
            Instance::Grid(side) => side * side,
            Instance::Tree(_) => 64,
            Instance::Cycle(r) => 4 * r as usize,
        }
    }

    fn family(self) -> usize {
        match self {
            Instance::Path(_) => 0,
            Instance::Grid(_) => 1,
            Instance::Tree(_) => 2,
            Instance::Cycle(_) => 3,
        }
    }
}

/// Reads the instances of `section2-sweep-xl`-style cells (path, grid,
/// layered-tree and promise-cycle families) off the plan's cell specs and
/// builds an even sample of each family.
fn section2_instances(plan: &Plan) -> Result<Section2Instances, String> {
    let mut wanted: Vec<(Instance, usize)> = Vec::new();
    for cell in &plan.cells {
        let spec = &cell.spec;
        let number = |key: &str| spec.param(key).and_then(|v| v.parse::<usize>().ok());
        let radius = number("radius").unwrap_or(3);
        let found: Vec<Instance> = match spec.param("family") {
            Some("path") => [number("n"), number("small"), number("large")]
                .into_iter()
                .flatten()
                .map(Instance::Path)
                .collect(),
            Some("grid") => number("side").map(Instance::Grid).into_iter().collect(),
            Some("layered-tree") => number("instance").map(Instance::Tree).into_iter().collect(),
            Some("cycle") => number("r")
                .map(|r| Instance::Cycle(r as u64))
                .into_iter()
                .collect(),
            _ => Vec::new(),
        };
        for instance in found {
            if !wanted.contains(&(instance, radius)) {
                wanted.push((instance, radius));
            }
        }
    }
    let mut stride = [1usize; 4];
    for (family, step) in stride.iter_mut().enumerate() {
        let total: usize = wanted
            .iter()
            .filter(|(i, _)| i.family() == family)
            .map(|(i, _)| i.nodes())
            .sum();
        *step = total.div_ceil(FAMILY_CENTRES).max(1);
    }
    let params = Section2Params::new(1, IdBound::identity_plus(2)).map_err(|e| e.to_string())?;
    let roots = params.small_instance_roots();
    let bound = IdBound::linear(3, 0);
    let mut seen = [0usize; 4];
    let mut built = Section2Instances::default();
    for (instance, radius) in wanted {
        let family = instance.family();
        seen[family] += 1;
        if (seen[family] - 1) % stride[family] != 0 {
            continue;
        }
        let err = |e: ld_constructions::ConstructionError| e.to_string();
        match instance {
            Instance::Path(n) => built
                .plain
                .push((LabeledGraph::uniform(generators::path(n), 0), radius)),
            Instance::Grid(side) => built.plain.push((
                LabeledGraph::uniform(generators::grid(side, side), 0),
                radius,
            )),
            Instance::Tree(index) => {
                let root = *roots.get(index).ok_or("tree instance out of range")?;
                built
                    .trees
                    .push((params.small_instance(root).map_err(err)?, radius));
            }
            Instance::Cycle(r) => {
                built
                    .cycles
                    .push((promise::yes_instance(r).map_err(err)?, radius));
                built.cycles.push((
                    promise::no_instance(r, &bound, 1 << 20).map_err(err)?,
                    radius,
                ));
            }
        }
    }
    Ok(built)
}

/// Probes the Section 2 instances of `plan` for about `seconds`.
pub fn section2(plan: &Plan, seconds: f64) -> Result<ProbeTotals, String> {
    let instances = section2_instances(plan)?;
    passes(seconds, |prober| {
        let plain = ViewCache::new();
        for (graph, radius) in &instances.plain {
            prober.graph(graph, *radius, &plain);
        }
        let trees = ViewCache::new();
        for (graph, radius) in &instances.trees {
            prober.graph(graph, *radius, &trees);
        }
        let cycles = ViewCache::new();
        for (graph, radius) in &instances.cycles {
            prober.graph(graph, *radius, &cycles);
        }
        Ok(())
    })
}

/// Probes `section3-sweep`'s execution tables for about `seconds`: the
/// zoo machines it sweeps at `max_n`, built with `gmr_input`, decided by
/// the identifier decider and the fuel-bounded candidates, and fed through
/// the ball and canon probes.
pub fn gmr(max_n: usize, seconds: f64) -> Result<ProbeTotals, String> {
    let machines: Vec<_> = zoo::output_zero_zoo()
        .into_iter()
        .chain(zoo::output_one_zoo())
        .filter(|m| m.truth.steps().is_some_and(|steps| steps <= max_n as u64))
        .collect();
    passes(seconds, |prober| {
        let started = Instant::now();
        let inputs = machines
            .iter()
            .map(|m| gmr_input(&m.machine, GMR_RADIUS, GMR_FUEL, GMR_SOURCE))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        prober.pass.build_ns += started.elapsed().as_nanos() as u64;

        let verdicts = ViewCache::new();
        let started = Instant::now();
        for input in &inputs {
            black_box(decision::run_local(input, &TwoStageIdDecider::new(GMR_FUEL)).accepted());
            for fuel in [1u64, 2, 4] {
                let candidate = FuelBoundedObliviousCandidate::new(fuel);
                black_box(decision::run_oblivious_cached(input, &candidate, &verdicts).accepted());
            }
        }
        prober.pass.decide_ns += started.elapsed().as_nanos() as u64;

        let codes = ViewCache::new();
        for input in &inputs {
            prober.graph(input.labeled(), GMR_RADIUS as usize, &codes);
        }
        Ok(())
    })
}
