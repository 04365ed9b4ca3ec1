//! The declarative scenario DSL: file-defined sweeps, no recompile.
//!
//! A scenario document is a JSON object (parsed with the in-repo
//! [`crate::json::Json`] reader) that composes graph family × size ladder ×
//! radius × id-regime × budgets × decider into a [`Plan`], loadable via
//! `ldx run --file <scenario.json>` and submittable to `ld-serve` daemons.
//! The parsed [`ScenarioDoc`] implements [`Scenario`], so every downstream
//! layer — the executor, the streaming pipeline, checkpoint resume, the
//! service spool — treats it exactly like a built-in module.
//!
//! The load-bearing contract: the committed `scenarios/section2-sweep.json`
//! and `scenarios/section2-sweep-r3.json` re-express those built-ins
//! *byte-identically* — their stanzas call the same `pub(crate)` planners
//! the built-in modules call, so the cell order, specs and outcomes cannot
//! diverge.  `tests/tests/dsl_differential.rs` and a CI byte-diff smoke pin
//! it.
//!
//! Every malformed document maps to a typed [`DslError`] carrying a stable
//! token and a process exit code, extending the [`ConfigError`] ladder
//! (`ldx` prints the token; `ld-serve` embeds it in HTTP 400 bodies).
//!
//! [`ConfigError`]: crate::scenario::ConfigError

use crate::cell::{CellOutcome, CellSpec};
use crate::json::Json;
use crate::scenario::{Plan, Scenario, SweepConfig, MAX_RADIUS};
use crate::scenarios;
use ld_constructions::section2::Section2Label;
use ld_deciders::fractional::{self, FractionalVerifier};
use ld_graph::{generators, Graph, LabeledGraph};
use ld_local::cache::ViewCache;
use ld_local::enumeration::distinct_oblivious_views_of_budgeted_cached;
use ld_local::property::{FractionalColoring, Property};
use ld_local::{decision, FnOblivious, IdAssignment, Input, ObliviousViewRef, Verdict};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;
use std::sync::Arc;

/// The schema tag every scenario document must carry.
pub const SCHEMA: &str = "ld-runner/scenario/v1";

/// Restart cap for the connected-graph rejection loop of the random
/// families (a fresh derived seed per attempt; deterministic in the cell
/// seed).
const CONNECT_RETRIES: u64 = 64;

/// A structurally invalid scenario document: the typed parse- and
/// plan-time errors of the scenario DSL.  Like
/// [`ConfigError`](crate::scenario::ConfigError), every variant carries a
/// stable token and an exit code so scripts and HTTP clients can dispatch
/// without parsing prose.
#[derive(Debug, Clone, PartialEq)]
pub enum DslError {
    /// The `--file` path does not exist or cannot be read.
    Unreadable {
        /// The offending path, verbatim.
        path: String,
        /// The underlying I/O error.
        detail: String,
    },
    /// The file is not valid JSON.
    Parse {
        /// The JSON reader's message.
        detail: String,
    },
    /// The document's `schema` field is missing or not [`SCHEMA`].
    Schema {
        /// What the document declared (or `"(absent)"`).
        found: String,
    },
    /// A required field is absent.
    MissingField {
        /// Where (e.g. `"document"`, `"workload 2 (sweep)"`).
        context: String,
        /// The missing field.
        field: String,
    },
    /// A field is present but malformed (wrong type, out-of-range value).
    InvalidField {
        /// Where the field lives.
        context: String,
        /// The offending field.
        field: String,
        /// What was wrong with it.
        detail: String,
    },
    /// A field no stanza of this kind defines — the typed rejection that
    /// keeps typos from silently planning the default sweep.
    UnknownField {
        /// Where the field appeared.
        context: String,
        /// The unrecognised field.
        field: String,
    },
    /// A workload stanza kind the DSL does not define.
    UnknownWorkload {
        /// The unrecognised kind.
        kind: String,
    },
    /// A graph family the DSL does not define.
    UnknownFamily {
        /// The unrecognised family.
        family: String,
    },
    /// A decider the DSL does not define.
    UnknownDecider {
        /// The unrecognised decider.
        decider: String,
    },
    /// An identifier regime the DSL does not define.
    UnknownIdRegime {
        /// The unrecognised regime.
        regime: String,
    },
    /// A size ladder with impossible bounds (`from == 0`, `to < from`,
    /// `step == 0`, or a family-specific range violation).
    LadderBounds {
        /// What was wrong with the ladder.
        detail: String,
    },
    /// A stanza radius above [`MAX_RADIUS`] — same envelope, token and
    /// exit code as the config-level check.
    RadiusTooLarge {
        /// The rejected radius.
        radius: usize,
    },
    /// The document defines no workloads, so no plan could ever be built.
    EmptyWorkloads,
}

impl std::fmt::Display for DslError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DslError::Unreadable { path, detail } => {
                write!(f, "cannot read scenario file {path}: {detail}")
            }
            DslError::Parse { detail } => write!(f, "scenario file is not valid JSON: {detail}"),
            DslError::Schema { found } => {
                write!(
                    f,
                    "unsupported scenario schema {found:?} (expected {SCHEMA:?})"
                )
            }
            DslError::MissingField { context, field } => {
                write!(f, "{context}: missing required field {field:?}")
            }
            DslError::InvalidField {
                context,
                field,
                detail,
            } => write!(f, "{context}: invalid field {field:?}: {detail}"),
            DslError::UnknownField { context, field } => {
                write!(f, "{context}: unknown field {field:?}")
            }
            DslError::UnknownWorkload { kind } => write!(f, "unknown workload kind {kind:?}"),
            DslError::UnknownFamily { family } => write!(f, "unknown graph family {family:?}"),
            DslError::UnknownDecider { decider } => write!(f, "unknown decider {decider:?}"),
            DslError::UnknownIdRegime { regime } => write!(f, "unknown id regime {regime:?}"),
            DslError::LadderBounds { detail } => write!(f, "invalid ladder: {detail}"),
            DslError::RadiusTooLarge { radius } => write!(
                f,
                "radius {radius} exceeds the supported maximum of {MAX_RADIUS}"
            ),
            DslError::EmptyWorkloads => write!(f, "scenario defines no workloads"),
        }
    }
}

impl std::error::Error for DslError {}

impl DslError {
    /// A stable, machine-readable identifier for the variant, in the style
    /// of [`ConfigError::token`](crate::scenario::ConfigError::token).
    pub fn token(&self) -> &'static str {
        match self {
            DslError::Unreadable { .. } => "unreadable-scenario-file",
            DslError::Parse { .. } => "scenario-parse",
            DslError::Schema { .. } => "scenario-schema",
            DslError::MissingField { .. } => "missing-field",
            DslError::InvalidField { .. } => "invalid-field",
            DslError::UnknownField { .. } => "unknown-field",
            DslError::UnknownWorkload { .. } => "unknown-workload",
            DslError::UnknownFamily { .. } => "unknown-family",
            DslError::UnknownDecider { .. } => "unknown-decider",
            DslError::UnknownIdRegime { .. } => "unknown-id-regime",
            DslError::LadderBounds { .. } => "ladder-bounds",
            DslError::RadiusTooLarge { .. } => "radius-too-large",
            DslError::EmptyWorkloads => "empty-workloads",
        }
    }

    /// The process exit code `ldx` terminates with for this variant.
    /// Unreadable files are usage errors (`64`, the path was wrong);
    /// an oversized radius shares `66` with the config-level check; every
    /// other document defect exits `68`, extending the `ConfigError` ladder
    /// (`65`–`67`) without colliding with it.
    pub fn exit_code(&self) -> u8 {
        match self {
            DslError::Unreadable { .. } => 64,
            DslError::RadiusTooLarge { .. } => 66,
            _ => 68,
        }
    }
}

/// The identifier regimes a `sweep` stanza may request — the same three
/// the built-in Section 2 sweep exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IdRegime {
    /// Identifiers `0..n` in node order.
    Consecutive,
    /// Identifiers `100..100+n`: deliberately large, in the spirit of the
    /// built-in `shifted` regime.
    Shifted,
    /// A seeded random permutation of `0..n`.
    Shuffled,
}

impl IdRegime {
    fn parse(token: &str) -> Result<IdRegime, DslError> {
        match token {
            "consecutive" => Ok(IdRegime::Consecutive),
            "shifted" => Ok(IdRegime::Shifted),
            "shuffled" => Ok(IdRegime::Shuffled),
            other => Err(DslError::UnknownIdRegime {
                regime: other.to_string(),
            }),
        }
    }

    fn token(&self) -> &'static str {
        match self {
            IdRegime::Consecutive => "consecutive",
            IdRegime::Shifted => "shifted",
            IdRegime::Shuffled => "shuffled",
        }
    }

    /// Mirrors the built-in Section 2 regimes (`shifted` starts at 100).
    fn assignment(&self, n: usize, seed: u64) -> IdAssignment {
        match self {
            IdRegime::Consecutive => IdAssignment::consecutive(n),
            IdRegime::Shifted => IdAssignment::consecutive_from(n, 100),
            IdRegime::Shuffled => {
                let mut rng = StdRng::seed_from_u64(seed);
                IdAssignment::shuffled(n, &mut rng)
            }
        }
    }
}

/// The deciders a `sweep` stanza may run over its family × ladder grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decider {
    /// The radius-1 degree-profile verifier: accept iff the centre's degree
    /// matches the family's invariant (paths ≤ 2, cycles = 2, `d`-regular
    /// = `d`, power-law ≥ `m`, circulants = their offset degree).
    DegreeProfile,
    /// A metric-only cell: count distinct oblivious views at the stanza
    /// radius under the sweep budget.
    DistinctViews,
}

impl Decider {
    fn parse(token: &str) -> Result<Decider, DslError> {
        match token {
            "degree-profile" => Ok(Decider::DegreeProfile),
            "distinct-views" => Ok(Decider::DistinctViews),
            other => Err(DslError::UnknownDecider {
                decider: other.to_string(),
            }),
        }
    }

    fn token(&self) -> &'static str {
        match self {
            Decider::DegreeProfile => "degree-profile",
            Decider::DistinctViews => "distinct-views",
        }
    }
}

/// The graph families a `sweep` stanza may draw instances from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Family {
    /// `n`-node paths.
    Path,
    /// `n`-node cycles (sizes below 3 are skipped).
    Cycle,
    /// Connected random `degree`-regular graphs (pairing model; sizes with
    /// `n·degree` odd or `degree >= n` are skipped).
    RandomRegular {
        /// The uniform degree (at least 2, so connectivity is reachable).
        degree: usize,
    },
    /// Power-law graphs via preferential attachment (sizes below
    /// `attach + 1` are skipped).
    PowerLaw {
        /// Edges per arriving node (the minimum degree).
        attach: usize,
    },
    /// Circulant graphs `C_n(offsets)` — deterministic bounded-degree
    /// expander-like constructions (sizes ≤ the largest offset are
    /// skipped).
    Circulant {
        /// The connection offsets; their gcd must be 1 so every swept size
        /// is connected.
        offsets: Vec<usize>,
    },
}

impl Family {
    fn token(&self) -> &'static str {
        match self {
            Family::Path => "path",
            Family::Cycle => "cycle",
            Family::RandomRegular { .. } => "random-regular",
            Family::PowerLaw { .. } => "power-law",
            Family::Circulant { .. } => "circulant",
        }
    }

    /// Can this family produce a (connected, simple) instance at size `n`?
    /// Unplannable ladder entries are skipped, the same convention the
    /// built-ins use for sizes that do not fit `max_n`.
    fn plannable(&self, n: usize) -> bool {
        match self {
            Family::Path => n >= 1,
            Family::Cycle => n >= 3,
            Family::RandomRegular { degree } => n * degree % 2 == 0 && *degree < n,
            Family::PowerLaw { attach } => n > *attach,
            Family::Circulant { offsets } => offsets.iter().all(|&o| o < n),
        }
    }

    /// Builds a connected instance, deterministically in `(n, seed)`.
    /// Random families redraw with derived seeds until connected; `None`
    /// after [`CONNECT_RETRIES`] failures (practically unreachable for the
    /// admitted parameters).
    fn build(&self, n: usize, seed: u64) -> Option<Graph> {
        match self {
            Family::Path => Some(generators::path(n)),
            Family::Cycle => Some(generators::cycle(n)),
            Family::RandomRegular { degree } => {
                for attempt in 0..CONNECT_RETRIES {
                    let mut rng =
                        StdRng::seed_from_u64(seed ^ attempt.wrapping_mul(0x9e37_79b9_7f4a_7c15));
                    // Plannability rules out parameter errors, but the
                    // pairing model can still exhaust its internal restart
                    // cap at high degree — count that as a failed attempt,
                    // not a panic.
                    let Ok(graph) = generators::random_regular(n, *degree, &mut rng) else {
                        continue;
                    };
                    if graph.is_connected() {
                        return Some(graph);
                    }
                }
                None
            }
            Family::PowerLaw { attach } => {
                let mut rng = StdRng::seed_from_u64(seed);
                Some(
                    generators::preferential_attachment(n, *attach, &mut rng)
                        // ld-analyze: allow(D004, reason = "invariant: plannable() admits only n > attach, the generator's whole domain")
                        .expect("plannable sizes satisfy the generator's domain"),
                )
            }
            Family::Circulant { offsets } => Some(
                generators::circulant(n, offsets)
                    // ld-analyze: allow(D004, reason = "invariant: parse-time checks (non-empty, nonzero, gcd 1) plus plannable() keep offsets in the generator's domain")
                    .expect("plannable sizes satisfy the generator's domain"),
            ),
        }
    }

    /// The degree-profile invariant: does a centre of degree `deg` in an
    /// `n`-node instance look locally consistent with this family?
    fn degree_ok(&self, n: usize, deg: usize) -> bool {
        match self {
            Family::Path => deg <= 2,
            Family::Cycle => deg == 2,
            Family::RandomRegular { degree } => deg == *degree,
            Family::PowerLaw { attach } => deg >= *attach,
            Family::Circulant { offsets } => {
                let mut neighbors: Vec<usize> = offsets
                    .iter()
                    .flat_map(|&o| [o % n, (n - o % n) % n])
                    .collect();
                neighbors.sort_unstable();
                neighbors.dedup();
                deg == neighbors.len()
            }
        }
    }

    fn to_json(&self) -> Json {
        let doc = Json::object().set("kind", self.token());
        match self {
            Family::Path | Family::Cycle => doc,
            Family::RandomRegular { degree } => doc.set("degree", *degree),
            Family::PowerLaw { attach } => doc.set("attach", *attach),
            Family::Circulant { offsets } => {
                doc.set("offsets", Json::array(offsets.iter().copied()))
            }
        }
    }
}

/// An inclusive arithmetic size ladder: `from, from + step, … <= to`
/// (additionally clipped to `--max-n` at plan time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ladder {
    /// First size.
    pub from: usize,
    /// Inclusive upper bound.
    pub to: usize,
    /// Stride (at least 1).
    pub step: usize,
}

impl Ladder {
    fn validate(&self) -> Result<(), DslError> {
        if self.from == 0 {
            return Err(DslError::LadderBounds {
                detail: "from must be at least 1".to_string(),
            });
        }
        if self.to < self.from {
            return Err(DslError::LadderBounds {
                detail: format!("to = {} is below from = {}", self.to, self.from),
            });
        }
        if self.step == 0 {
            return Err(DslError::LadderBounds {
                detail: "step must be at least 1".to_string(),
            });
        }
        Ok(())
    }

    fn values(&self) -> impl Iterator<Item = usize> {
        (self.from..=self.to).step_by(self.step)
    }

    fn to_json(self) -> Json {
        Json::object()
            .set("from", self.from)
            .set("to", self.to)
            .set("step", self.step)
    }
}

/// One workload stanza: a named cell-planning recipe plus its parameters.
/// The `section2-*`, `paths`, `path-coverage`, `grid-profile`,
/// `layered-tree-views` and `promise-views` stanzas call the *same*
/// `pub(crate)` planners as the built-in scenarios, which is what makes the
/// committed re-expressions byte-identical; `sweep` and
/// `fractional-coloring` open the new families.
///
/// Every stanza `radius` is a *default*, resolved through
/// [`SweepConfig::radius_or`] — an explicit `--radius` still overrides it,
/// exactly as it overrides the built-ins' natural radii.
#[derive(Debug, Clone, PartialEq)]
pub enum Workload {
    /// The `section2-sweep` layered-tree portion.
    Section2Trees {
        /// Small-instance sample size.
        max_roots: usize,
        /// Default coverage radius.
        radius: usize,
    },
    /// The `section2-sweep` promise-cycle portion (decision + views).
    Section2Promise {
        /// Default views radius.
        radius: usize,
    },
    /// The closed-form path family of `section2-sweep-r3`.
    Paths {
        /// Default view radius.
        radius: usize,
        /// Stride between swept sizes.
        step: usize,
    },
    /// The cross-size path coverage cells of `section2-sweep-r3`.
    PathCoverage {
        /// Default view radius.
        radius: usize,
    },
    /// The grid incremental-profile differential cells of
    /// `section2-sweep-r3`.
    GridProfile {
        /// Default view radius.
        radius: usize,
    },
    /// The distinctly-labelled layered-tree cells of `section2-sweep-r3`.
    LayeredTreeViews {
        /// Default view radius.
        radius: usize,
        /// Small-instance sample size.
        max_roots: usize,
    },
    /// The promise-cycle views cells of `section2-sweep-r3`.
    PromiseViews {
        /// Default view radius.
        radius: usize,
    },
    /// A family × ladder × id-regime × decider grid over the new graph
    /// families.
    Sweep {
        /// The instance family.
        family: Family,
        /// The size ladder.
        ladder: Ladder,
        /// Default view radius for the distinct-views metric.
        radius: usize,
        /// Identifier regime.
        ids: IdRegime,
        /// The decider to run per cell.
        decider: Decider,
    },
    /// The fractional `(2k+1 : k)`-colouring family on odd cycles
    /// (arXiv 2012.01752), laddered over `k`.
    FractionalColoring {
        /// The ladder over `k` (clamped to `1..=31` at parse time).
        ladder: Ladder,
    },
}

impl Workload {
    fn kind(&self) -> &'static str {
        match self {
            Workload::Section2Trees { .. } => "section2-trees",
            Workload::Section2Promise { .. } => "section2-promise",
            Workload::Paths { .. } => "paths",
            Workload::PathCoverage { .. } => "path-coverage",
            Workload::GridProfile { .. } => "grid-profile",
            Workload::LayeredTreeViews { .. } => "layered-tree-views",
            Workload::PromiseViews { .. } => "promise-views",
            Workload::Sweep { .. } => "sweep",
            Workload::FractionalColoring { .. } => "fractional-coloring",
        }
    }

    fn to_json(&self) -> Json {
        let doc = Json::object().set("kind", self.kind());
        match self {
            Workload::Section2Trees { max_roots, radius } => {
                doc.set("max-roots", *max_roots).set("radius", *radius)
            }
            Workload::Section2Promise { radius } => doc.set("radius", *radius),
            Workload::Paths { radius, step } => doc.set("radius", *radius).set("step", *step),
            Workload::PathCoverage { radius } | Workload::GridProfile { radius } => {
                doc.set("radius", *radius)
            }
            Workload::LayeredTreeViews { radius, max_roots } => {
                doc.set("radius", *radius).set("max-roots", *max_roots)
            }
            Workload::PromiseViews { radius } => doc.set("radius", *radius),
            Workload::Sweep {
                family,
                ladder,
                radius,
                ids,
                decider,
            } => doc
                .set("family", family.to_json())
                .set("ladder", ladder.to_json())
                .set("radius", *radius)
                .set("ids", ids.token())
                .set("decider", decider.token()),
            Workload::FractionalColoring { ladder } => doc.set("ladder", ladder.to_json()),
        }
    }

    fn plan_into(
        &self,
        plan: &mut Plan,
        caches: &mut DslCaches,
        config: &SweepConfig,
    ) -> Result<(), String> {
        let budget = config.enumeration_budget();
        match self {
            Workload::Section2Trees { max_roots, radius } => {
                let cache = caches.tree(plan);
                scenarios::layered_tree_cells(
                    plan,
                    &cache,
                    config,
                    *max_roots,
                    config.radius_or(*radius),
                )?;
            }
            Workload::Section2Promise { radius } => {
                scenarios::promise_decider_cells(plan, config, config.radius_or(*radius));
            }
            Workload::Paths { radius, step } => {
                let cache = caches.structural(plan);
                scenarios::path_cells(
                    plan,
                    &cache,
                    config,
                    config.radius_or(*radius),
                    budget,
                    *step,
                );
            }
            Workload::PathCoverage { radius } => {
                let cache = caches.structural(plan);
                scenarios::path_coverage_cells(
                    plan,
                    &cache,
                    config,
                    config.radius_or(*radius),
                    budget,
                );
            }
            Workload::GridProfile { radius } => {
                let cache = caches.structural(plan);
                scenarios::grid_profile_cells(
                    plan,
                    &cache,
                    config,
                    config.radius_or(*radius),
                    budget,
                );
            }
            Workload::LayeredTreeViews { radius, max_roots } => {
                let cache = caches.tree(plan);
                scenarios::tree_family_cells(
                    plan,
                    &cache,
                    config,
                    config.radius_or(*radius),
                    budget,
                    *max_roots,
                )?;
            }
            Workload::PromiseViews { radius } => {
                scenarios::promise_views_only_cells(
                    plan,
                    config,
                    config.radius_or(*radius),
                    budget,
                );
            }
            Workload::Sweep {
                family,
                ladder,
                radius,
                ids,
                decider,
            } => {
                let cache = caches.structural(plan);
                sweep_cells(
                    plan,
                    &cache,
                    config,
                    family,
                    ladder,
                    config.radius_or(*radius),
                    *ids,
                    *decider,
                );
            }
            Workload::FractionalColoring { ladder } => {
                fractional_cells(plan, config, ladder);
            }
        }
        Ok(())
    }
}

/// Lazily shared caches, one per label family, registered with the plan on
/// first use — which reproduces the built-ins' cache registration order
/// when a document re-expresses one (the r3 doc touches `u8` before
/// `Section2Label`).  Promise-cycle stanzas register none: each of their
/// view cells owns a cache for its own run (see
/// `scenarios::promise_views_cell`).
#[derive(Default)]
struct DslCaches {
    structural: Option<Arc<ViewCache<u8>>>,
    tree: Option<Arc<ViewCache<Section2Label>>>,
}

impl DslCaches {
    fn structural(&mut self, plan: &mut Plan) -> Arc<ViewCache<u8>> {
        self.structural
            .get_or_insert_with(|| plan.share_cache())
            .clone()
    }

    fn tree(&mut self, plan: &mut Plan) -> Arc<ViewCache<Section2Label>> {
        self.tree.get_or_insert_with(|| plan.share_cache()).clone()
    }
}

/// Plans a `sweep` stanza: one cell per plannable ladder size within
/// `max_n`.
#[allow(clippy::too_many_arguments)]
fn sweep_cells(
    plan: &mut Plan,
    cache: &Arc<ViewCache<u8>>,
    config: &SweepConfig,
    family: &Family,
    ladder: &Ladder,
    radius: usize,
    ids: IdRegime,
    decider: Decider,
) {
    let budget = config.enumeration_budget();
    for n in ladder.values() {
        if n > config.max_n || !family.plannable(n) {
            continue;
        }
        let mut params = vec![
            ("family", family.token().to_string()),
            ("n", n.to_string()),
            ("radius", radius.to_string()),
            ("ids", ids.token().to_string()),
            ("alg", decider.token().to_string()),
        ];
        match family {
            Family::RandomRegular { degree } => params.push(("degree", degree.to_string())),
            Family::PowerLaw { attach } => params.push(("attach", attach.to_string())),
            Family::Circulant { offsets } => params.push((
                "offsets",
                offsets
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join("+"),
            )),
            _ => {}
        }
        params.push((
            "expect",
            match decider {
                Decider::DegreeProfile => "accept".to_string(),
                Decider::DistinctViews => "views<=n".to_string(),
            },
        ));
        let spec = CellSpec::new(
            format!(
                "dsl/{}/n={n}/radius={radius}/ids={}/alg={}",
                family.token(),
                ids.token(),
                decider.token()
            ),
            params,
        );
        let family = family.clone();
        let cache = cache.clone();
        plan.push(spec, move |seed| {
            let Some(graph) = family.build(n, seed) else {
                return CellOutcome::new("disconnected", false);
            };
            let labeled = LabeledGraph::uniform(graph, 0u8);
            match decider {
                Decider::DegreeProfile => {
                    let input = Input::new(labeled, ids.assignment(n, seed))
                        // ld-analyze: allow(D004, reason = "invariant: build() retries until connected and every id regime permutes 0..n")
                        .expect("built instances are connected with distinct ids");
                    let check = family.clone();
                    let verifier =
                        FnOblivious::new("degree-profile", 1, move |view: ObliviousViewRef<u8>| {
                            Verdict::from_bool(
                                check.degree_ok(n, view.neighbors_of_center().count()),
                            )
                        });
                    let accepted = decision::run_oblivious(&input, &verifier).accepted();
                    let verdict = if accepted { "accept" } else { "reject" };
                    let (views, usage) = distinct_oblivious_views_of_budgeted_cached(
                        input.labeled(),
                        radius,
                        &cache,
                        budget,
                    );
                    // The verifier's verdict is complete whatever the budget
                    // did; only the view-count metric is truncation-prone.
                    let outcome = CellOutcome::new(verdict, verdict == "accept")
                        .with_metric("nodes", n as f64);
                    if usage.exhausted {
                        return outcome.with_budget(usage);
                    }
                    outcome
                        .with_metric("distinct_views", views.len() as f64)
                        .with_budget(usage)
                }
                Decider::DistinctViews => {
                    let (views, usage) = distinct_oblivious_views_of_budgeted_cached(
                        &labeled, radius, &cache, budget,
                    );
                    if usage.exhausted {
                        return CellOutcome::new("exhausted", true).with_budget(usage);
                    }
                    // Distinct views are classes of centres, so the count
                    // can never exceed the node count.
                    CellOutcome::new(format!("views={}", views.len()), views.len() <= n)
                        .with_metric("nodes", n as f64)
                        .with_metric("distinct_views", views.len() as f64)
                        .with_budget(usage)
                }
            }
        });
    }
}

/// Plans a `fractional-coloring` stanza: a yes/no decision pair per ladder
/// `k` whose odd cycle `C_{2k+1}` fits `max_n`, each cross-checked against
/// the global [`FractionalColoring`] property.
fn fractional_cells(plan: &mut Plan, config: &SweepConfig, ladder: &Ladder) {
    for k in ladder.values() {
        let n = 2 * k + 1;
        if n > config.max_n {
            continue;
        }
        for (instance, expect) in [("yes", "accept"), ("no", "reject")] {
            let spec = CellSpec::new(
                format!("fractional/k={k}/instance={instance}/alg=fractional-verifier"),
                [
                    ("family", "odd-cycle".to_string()),
                    ("k", k.to_string()),
                    ("p", n.to_string()),
                    ("q", k.to_string()),
                    ("instance", instance.to_string()),
                    ("alg", "fractional-verifier".to_string()),
                    ("expect", expect.to_string()),
                ],
            );
            plan.push(spec, move |_seed| {
                let k = k as u32;
                let labeled = match instance {
                    "yes" => fractional::yes_instance(k),
                    _ => fractional::no_instance(k),
                }
                // ld-analyze: allow(D004, reason = "invariant: parse() rejects fractional ladders past 31, the constructor's whole domain")
                .expect("parse-time ladder bounds keep k in 1..=31");
                let property = FractionalColoring::new(2 * k + 1, k);
                let globally_valid = property.contains(&labeled);
                let input = Input::new(labeled, IdAssignment::consecutive(n))
                    // ld-analyze: allow(D004, reason = "invariant: yes/no instances are odd cycles, connected with consecutive distinct ids")
                    .expect("odd cycles are connected with distinct ids");
                let verifier = FractionalVerifier::new(2 * k + 1, k);
                let accepted = decision::run_oblivious(&input, &verifier).accepted();
                // The radius-1 verifier must agree with the global property
                // on every instance — a divergence fails the cell outright.
                if accepted != globally_valid {
                    return CellOutcome::new("decider-diverges", false)
                        .with_metric("nodes", n as f64);
                }
                let verdict = if accepted { "accept" } else { "reject" };
                CellOutcome::new(verdict, verdict == expect).with_metric("nodes", n as f64)
            });
        }
    }
}

/// A parsed scenario document: a name, a description and a list of
/// workload stanzas.  Implements [`Scenario`], so it plugs into every
/// sweep entry point the built-ins use.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioDoc {
    name: String,
    description: String,
    node_budget: Option<u64>,
    view_budget: Option<u64>,
    workloads: Vec<Workload>,
}

impl ScenarioDoc {
    /// Reads and parses a scenario file.
    ///
    /// # Errors
    ///
    /// [`DslError::Unreadable`] (naming the path) when the file cannot be
    /// read; otherwise whatever [`ScenarioDoc::from_text`] reports.
    pub fn load_file(path: &Path) -> Result<ScenarioDoc, DslError> {
        let text = std::fs::read_to_string(path).map_err(|e| DslError::Unreadable {
            path: path.display().to_string(),
            detail: e.to_string(),
        })?;
        ScenarioDoc::from_text(&text)
    }

    /// Parses a scenario document from JSON text.
    ///
    /// # Errors
    ///
    /// [`DslError::Parse`] when the text is not JSON; otherwise whatever
    /// [`ScenarioDoc::parse`] reports.
    pub fn from_text(text: &str) -> Result<ScenarioDoc, DslError> {
        let json = Json::parse(text).map_err(|detail| DslError::Parse { detail })?;
        ScenarioDoc::parse(&json)
    }

    /// Parses a scenario document from an already-parsed [`Json`] value.
    /// Total on arbitrary values: every defect maps to a typed [`DslError`]
    /// (the no-panic property the DSL fuzz suite pins).
    ///
    /// # Errors
    ///
    /// The [`DslError`] describing the first defect encountered.
    pub fn parse(json: &Json) -> Result<ScenarioDoc, DslError> {
        let fields = expect_obj(json, "document")?;
        let mut name = None;
        let mut description = String::new();
        let mut node_budget = None;
        let mut view_budget = None;
        let mut workloads = None;
        let mut schema = None;
        for (key, value) in fields {
            match key.as_str() {
                "schema" => schema = Some(expect_str(value, "document", "schema")?.to_string()),
                "name" => {
                    let text = expect_str(value, "document", "name")?;
                    if text.is_empty() {
                        return Err(DslError::InvalidField {
                            context: "document".to_string(),
                            field: "name".to_string(),
                            detail: "must not be empty".to_string(),
                        });
                    }
                    name = Some(text.to_string());
                }
                "description" => {
                    description = expect_str(value, "document", "description")?.to_string();
                }
                "node-budget" => node_budget = Some(expect_u64(value, "document", "node-budget")?),
                "view-budget" => view_budget = Some(expect_u64(value, "document", "view-budget")?),
                "workloads" => match value {
                    Json::Arr(items) => {
                        let mut parsed = Vec::with_capacity(items.len());
                        for (index, item) in items.iter().enumerate() {
                            parsed.push(parse_workload(item, index)?);
                        }
                        workloads = Some(parsed);
                    }
                    _ => {
                        return Err(DslError::InvalidField {
                            context: "document".to_string(),
                            field: "workloads".to_string(),
                            detail: "must be an array of workload stanzas".to_string(),
                        })
                    }
                },
                other => {
                    return Err(DslError::UnknownField {
                        context: "document".to_string(),
                        field: other.to_string(),
                    })
                }
            }
        }
        match schema.as_deref() {
            Some(SCHEMA) => {}
            found => {
                return Err(DslError::Schema {
                    found: found.unwrap_or("(absent)").to_string(),
                })
            }
        }
        let name = name.ok_or_else(|| DslError::MissingField {
            context: "document".to_string(),
            field: "name".to_string(),
        })?;
        let workloads = workloads.ok_or(DslError::EmptyWorkloads)?;
        if workloads.is_empty() {
            return Err(DslError::EmptyWorkloads);
        }
        Ok(ScenarioDoc {
            name,
            description,
            node_budget,
            view_budget,
            workloads,
        })
    }

    /// Renders the document in canonical form: every field explicit
    /// (defaults included), fixed key order.  `parse(to_json(doc)) == doc`
    /// for every valid document — the fixed point the round-trip proptests
    /// pin.
    pub fn to_json(&self) -> Json {
        let mut doc = Json::object()
            .set("schema", SCHEMA)
            .set("name", self.name.as_str())
            .set("description", self.description.as_str());
        if let Some(budget) = self.node_budget {
            doc = doc.set("node-budget", budget);
        }
        if let Some(budget) = self.view_budget {
            doc = doc.set("view-budget", budget);
        }
        doc.set(
            "workloads",
            Json::Arr(self.workloads.iter().map(Workload::to_json).collect()),
        )
    }

    /// The workload stanzas, in plan order.
    pub fn workloads(&self) -> &[Workload] {
        &self.workloads
    }
}

impl Scenario for ScenarioDoc {
    fn name(&self) -> &str {
        &self.name
    }

    fn description(&self) -> &str {
        &self.description
    }

    fn plan(&self, config: &SweepConfig) -> Result<Plan, String> {
        // Document-level budgets are defaults: explicit --node-budget /
        // --view-budget flags always win.  A document with no budgets plans
        // under the exact config the built-ins see — which is what keeps
        // the committed re-expressions byte-identical.
        let mut effective = config.clone();
        if effective.node_budget.is_none() {
            effective.node_budget = self.node_budget;
        }
        if effective.view_budget.is_none() {
            effective.view_budget = self.view_budget;
        }
        let mut plan = Plan::new();
        let mut caches = DslCaches::default();
        for workload in &self.workloads {
            workload.plan_into(&mut plan, &mut caches, &effective)?;
        }
        if plan.cells.is_empty() {
            return Err(format!(
                "max_n = {} leaves no cell in any of the {} workloads of scenario {:?}",
                effective.max_n,
                self.workloads.len(),
                self.name
            ));
        }
        Ok(plan)
    }
}

fn expect_obj<'a>(json: &'a Json, context: &str) -> Result<&'a [(String, Json)], DslError> {
    match json {
        Json::Obj(fields) => Ok(fields),
        _ => Err(DslError::InvalidField {
            context: context.to_string(),
            field: "(value)".to_string(),
            detail: "must be an object".to_string(),
        }),
    }
}

fn expect_str<'a>(json: &'a Json, context: &str, field: &str) -> Result<&'a str, DslError> {
    json.as_str().ok_or_else(|| DslError::InvalidField {
        context: context.to_string(),
        field: field.to_string(),
        detail: "must be a string".to_string(),
    })
}

fn expect_u64(json: &Json, context: &str, field: &str) -> Result<u64, DslError> {
    json.as_u64().ok_or_else(|| DslError::InvalidField {
        context: context.to_string(),
        field: field.to_string(),
        detail: "must be an unsigned integer".to_string(),
    })
}

fn expect_usize(json: &Json, context: &str, field: &str) -> Result<usize, DslError> {
    let value = expect_u64(json, context, field)?;
    usize::try_from(value).map_err(|_| DslError::InvalidField {
        context: context.to_string(),
        field: field.to_string(),
        detail: format!("{value} does not fit usize"),
    })
}

fn expect_radius(json: &Json, context: &str) -> Result<usize, DslError> {
    let radius = expect_usize(json, context, "radius")?;
    if radius > MAX_RADIUS {
        return Err(DslError::RadiusTooLarge { radius });
    }
    Ok(radius)
}

fn parse_ladder(json: &Json, context: &str) -> Result<Ladder, DslError> {
    let fields = expect_obj(json, context)?;
    let mut from = None;
    let mut to = None;
    let mut step = 1usize;
    for (key, value) in fields {
        match key.as_str() {
            "from" => from = Some(expect_usize(value, context, "from")?),
            "to" => to = Some(expect_usize(value, context, "to")?),
            "step" => step = expect_usize(value, context, "step")?,
            other => {
                return Err(DslError::UnknownField {
                    context: format!("{context} ladder"),
                    field: other.to_string(),
                })
            }
        }
    }
    let ladder = Ladder {
        from: from.ok_or_else(|| DslError::MissingField {
            context: context.to_string(),
            field: "from".to_string(),
        })?,
        to: to.ok_or_else(|| DslError::MissingField {
            context: context.to_string(),
            field: "to".to_string(),
        })?,
        step,
    };
    ladder.validate()?;
    Ok(ladder)
}

fn parse_family(json: &Json, context: &str) -> Result<Family, DslError> {
    let fields = match json {
        // A bare string names a parameter-free family.
        Json::Str(token) => {
            return match token.as_str() {
                "path" => Ok(Family::Path),
                "cycle" => Ok(Family::Cycle),
                other => Err(DslError::UnknownFamily {
                    family: other.to_string(),
                }),
            }
        }
        _ => expect_obj(json, context)?,
    };
    let mut kind = None;
    let mut degree = None;
    let mut attach = None;
    let mut offsets = None;
    for (key, value) in fields {
        match key.as_str() {
            "kind" => kind = Some(expect_str(value, context, "kind")?.to_string()),
            "degree" => degree = Some(expect_usize(value, context, "degree")?),
            "attach" => attach = Some(expect_usize(value, context, "attach")?),
            "offsets" => match value {
                Json::Arr(items) => {
                    let mut parsed = Vec::with_capacity(items.len());
                    for item in items {
                        parsed.push(expect_usize(item, context, "offsets")?);
                    }
                    offsets = Some(parsed);
                }
                _ => {
                    return Err(DslError::InvalidField {
                        context: context.to_string(),
                        field: "offsets".to_string(),
                        detail: "must be an array of offsets".to_string(),
                    })
                }
            },
            other => {
                return Err(DslError::UnknownField {
                    context: format!("{context} family"),
                    field: other.to_string(),
                })
            }
        }
    }
    let kind = kind.ok_or_else(|| DslError::MissingField {
        context: context.to_string(),
        field: "kind".to_string(),
    })?;
    let reject_param = |field: &str, present: bool| {
        if present {
            Err(DslError::UnknownField {
                context: format!("{context} family ({kind})"),
                field: field.to_string(),
            })
        } else {
            Ok(())
        }
    };
    match kind.as_str() {
        "path" | "cycle" => {
            reject_param("degree", degree.is_some())?;
            reject_param("attach", attach.is_some())?;
            reject_param("offsets", offsets.is_some())?;
            Ok(if kind == "path" {
                Family::Path
            } else {
                Family::Cycle
            })
        }
        "random-regular" => {
            reject_param("attach", attach.is_some())?;
            reject_param("offsets", offsets.is_some())?;
            let degree = degree.ok_or_else(|| DslError::MissingField {
                context: context.to_string(),
                field: "degree".to_string(),
            })?;
            if degree < 2 {
                return Err(DslError::InvalidField {
                    context: context.to_string(),
                    field: "degree".to_string(),
                    detail: "must be at least 2 (degree-0/1 graphs are never connected)"
                        .to_string(),
                });
            }
            Ok(Family::RandomRegular { degree })
        }
        "power-law" => {
            reject_param("degree", degree.is_some())?;
            reject_param("offsets", offsets.is_some())?;
            let attach = attach.ok_or_else(|| DslError::MissingField {
                context: context.to_string(),
                field: "attach".to_string(),
            })?;
            if attach == 0 {
                return Err(DslError::InvalidField {
                    context: context.to_string(),
                    field: "attach".to_string(),
                    detail: "must be at least 1".to_string(),
                });
            }
            Ok(Family::PowerLaw { attach })
        }
        "circulant" => {
            reject_param("degree", degree.is_some())?;
            reject_param("attach", attach.is_some())?;
            let offsets = offsets.ok_or_else(|| DslError::MissingField {
                context: context.to_string(),
                field: "offsets".to_string(),
            })?;
            if offsets.is_empty() || offsets.contains(&0) {
                return Err(DslError::InvalidField {
                    context: context.to_string(),
                    field: "offsets".to_string(),
                    detail: "must be a non-empty array of nonzero offsets".to_string(),
                });
            }
            // gcd(offsets) == 1 guarantees C_n(offsets) is connected for
            // *every* ladder size, so connectivity is checkable here rather
            // than cell by cell.
            let gcd = offsets.iter().copied().fold(0usize, gcd);
            if gcd != 1 {
                return Err(DslError::InvalidField {
                    context: context.to_string(),
                    field: "offsets".to_string(),
                    detail: format!("gcd is {gcd}; offsets with gcd 1 keep every size connected"),
                });
            }
            Ok(Family::Circulant { offsets })
        }
        other => Err(DslError::UnknownFamily {
            family: other.to_string(),
        }),
    }
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

fn parse_workload(json: &Json, index: usize) -> Result<Workload, DslError> {
    let outer_context = format!("workload {index}");
    let fields = expect_obj(json, &outer_context)?;
    let kind = fields
        .iter()
        .find(|(key, _)| key == "kind")
        .map(|(_, value)| expect_str(value, &outer_context, "kind"))
        .transpose()?
        .ok_or_else(|| DslError::MissingField {
            context: outer_context.clone(),
            field: "kind".to_string(),
        })?;
    let context = format!("workload {index} ({kind})");

    // Collect the stanza's fields, rejecting any a stanza of this kind does
    // not define.
    let mut radius = None;
    let mut step = None;
    let mut max_roots = None;
    let mut family = None;
    let mut ladder = None;
    let mut ids = None;
    let mut decider = None;
    let allowed: &[&str] = match kind {
        "section2-trees" => &["kind", "max-roots", "radius"],
        "section2-promise" | "path-coverage" | "grid-profile" | "promise-views" => {
            &["kind", "radius"]
        }
        "paths" => &["kind", "radius", "step"],
        "layered-tree-views" => &["kind", "radius", "max-roots"],
        "sweep" => &["kind", "family", "ladder", "radius", "ids", "decider"],
        "fractional-coloring" => &["kind", "ladder"],
        other => {
            return Err(DslError::UnknownWorkload {
                kind: other.to_string(),
            })
        }
    };
    for (key, value) in fields {
        if !allowed.contains(&key.as_str()) {
            return Err(DslError::UnknownField {
                context: context.clone(),
                field: key.to_string(),
            });
        }
        match key.as_str() {
            "kind" => {}
            "radius" => radius = Some(expect_radius(value, &context)?),
            "step" => {
                let parsed = expect_usize(value, &context, "step")?;
                if parsed == 0 {
                    return Err(DslError::InvalidField {
                        context: context.clone(),
                        field: "step".to_string(),
                        detail: "must be at least 1".to_string(),
                    });
                }
                step = Some(parsed);
            }
            "max-roots" => {
                let parsed = expect_usize(value, &context, "max-roots")?;
                if parsed == 0 {
                    return Err(DslError::InvalidField {
                        context: context.clone(),
                        field: "max-roots".to_string(),
                        detail: "must be at least 1".to_string(),
                    });
                }
                max_roots = Some(parsed);
            }
            "family" => family = Some(parse_family(value, &context)?),
            "ladder" => ladder = Some(parse_ladder(value, &context)?),
            "ids" => ids = Some(IdRegime::parse(expect_str(value, &context, "ids")?)?),
            "decider" => decider = Some(Decider::parse(expect_str(value, &context, "decider")?)?),
            _ => unreachable!("allowed fields are matched exhaustively"),
        }
    }

    let require_ladder = |ladder: Option<Ladder>| {
        ladder.ok_or_else(|| DslError::MissingField {
            context: context.clone(),
            field: "ladder".to_string(),
        })
    };
    Ok(match kind {
        "section2-trees" => Workload::Section2Trees {
            max_roots: max_roots.unwrap_or(scenarios::TREE_MAX_ROOTS),
            radius: radius.unwrap_or(1),
        },
        "section2-promise" => Workload::Section2Promise {
            radius: radius.unwrap_or(2),
        },
        "paths" => Workload::Paths {
            radius: radius.unwrap_or(3),
            step: step.unwrap_or(scenarios::PATH_STEP),
        },
        "path-coverage" => Workload::PathCoverage {
            radius: radius.unwrap_or(3),
        },
        "grid-profile" => Workload::GridProfile {
            radius: radius.unwrap_or(3),
        },
        "layered-tree-views" => Workload::LayeredTreeViews {
            radius: radius.unwrap_or(3),
            max_roots: max_roots.unwrap_or(scenarios::R3_TREE_MAX_ROOTS),
        },
        "promise-views" => Workload::PromiseViews {
            radius: radius.unwrap_or(3),
        },
        "sweep" => Workload::Sweep {
            family: family.ok_or_else(|| DslError::MissingField {
                context: context.clone(),
                field: "family".to_string(),
            })?,
            ladder: require_ladder(ladder)?,
            radius: radius.unwrap_or(1),
            ids: ids.unwrap_or(IdRegime::Consecutive),
            decider: decider.unwrap_or(Decider::DegreeProfile),
        },
        "fractional-coloring" => {
            let ladder = require_ladder(ladder)?;
            // k indexes odd cycles C_{2k+1} with (2k+1)-colour bitmask
            // labels; a u64 caps k at 31.
            if ladder.to > 31 {
                return Err(DslError::LadderBounds {
                    detail: format!(
                        "fractional-coloring k reaches {} but colour sets are u64 bitmasks (k <= 31)",
                        ladder.to
                    ),
                });
            }
            Workload::FractionalColoring { ladder }
        }
        _ => unreachable!("unknown kinds rejected above"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::{Section2Sweep, Section2SweepR3};

    /// The committed re-expressions, compiled in so plan-shape equivalence
    /// is pinned at unit level (execution byte-identity lives in the
    /// ld-tests differential suite and CI).
    const SECTION2_DOC: &str = include_str!("../../../scenarios/section2-sweep.json");
    const SECTION2_R3_DOC: &str = include_str!("../../../scenarios/section2-sweep-r3.json");
    const NEW_FAMILIES_DOC: &str = include_str!("../../../scenarios/new-families.json");

    fn assert_same_plan_shape(doc: &ScenarioDoc, builtin: &dyn Scenario, config: &SweepConfig) {
        let dsl_plan = doc.plan(config).unwrap();
        let builtin_plan = builtin.plan(config).unwrap();
        assert_eq!(dsl_plan.cells.len(), builtin_plan.cells.len());
        assert_eq!(dsl_plan.caches.len(), builtin_plan.caches.len());
        for (a, b) in dsl_plan.cells.iter().zip(&builtin_plan.cells) {
            assert_eq!(a.spec.id, b.spec.id);
            assert_eq!(a.spec.params, b.spec.params);
        }
    }

    #[test]
    fn committed_section2_doc_matches_the_builtin_plan() {
        let doc = ScenarioDoc::from_text(SECTION2_DOC).unwrap();
        assert_eq!(doc.name(), "section2-sweep");
        for max_n in [24, 128] {
            let config = SweepConfig {
                max_n,
                ..SweepConfig::default()
            };
            assert_same_plan_shape(&doc, &Section2Sweep, &config);
        }
        // The radius override flows through the stanza defaults too.
        let config = SweepConfig {
            radius: Some(2),
            ..SweepConfig::default()
        };
        assert_same_plan_shape(&doc, &Section2Sweep, &config);
    }

    #[test]
    fn committed_r3_doc_matches_the_builtin_plan() {
        let doc = ScenarioDoc::from_text(SECTION2_R3_DOC).unwrap();
        assert_eq!(doc.name(), "section2-sweep-r3");
        for max_n in [24, 48, 128] {
            let config = SweepConfig {
                max_n,
                node_budget: Some(2_000_000),
                ..SweepConfig::default()
            };
            assert_same_plan_shape(&doc, &Section2SweepR3, &config);
        }
    }

    #[test]
    fn committed_new_families_doc_plans_and_passes() {
        let doc = ScenarioDoc::from_text(NEW_FAMILIES_DOC).unwrap();
        let config = SweepConfig {
            max_n: 40,
            ..SweepConfig::default()
        };
        let report = crate::executor::execute(&doc, &config).unwrap();
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
        for family in [
            "dsl/random-regular/",
            "dsl/power-law/",
            "dsl/circulant/",
            "fractional/",
        ] {
            assert!(
                report.cells.iter().any(|c| c.spec.id.starts_with(family)),
                "no {family} cells planned"
            );
        }
    }

    #[test]
    fn canonical_render_is_a_parse_fixed_point() {
        for text in [SECTION2_DOC, SECTION2_R3_DOC, NEW_FAMILIES_DOC] {
            let doc = ScenarioDoc::from_text(text).unwrap();
            let rendered = doc.to_json().render();
            let reparsed = ScenarioDoc::from_text(&rendered).unwrap();
            assert_eq!(doc, reparsed);
            assert_eq!(rendered, reparsed.to_json().render());
        }
    }

    #[test]
    fn typed_errors_cover_the_defect_catalogue() {
        let base = |workloads: &str| {
            format!(
                r#"{{"schema": "ld-runner/scenario/v1", "name": "t", "workloads": {workloads}}}"#
            )
        };
        let cases: Vec<(DslError, String)> = vec![
            (
                DslError::Parse {
                    detail: String::new(),
                },
                "not json".to_string(),
            ),
            (
                DslError::Schema {
                    found: String::new(),
                },
                r#"{"schema": "nope/v9", "name": "t", "workloads": [{"kind": "paths"}]}"#
                    .to_string(),
            ),
            (
                DslError::Schema {
                    found: String::new(),
                },
                r#"{"name": "t", "workloads": [{"kind": "paths"}]}"#.to_string(),
            ),
            (
                DslError::MissingField {
                    context: String::new(),
                    field: String::new(),
                },
                r#"{"schema": "ld-runner/scenario/v1", "workloads": [{"kind": "paths"}]}"#
                    .to_string(),
            ),
            (
                DslError::UnknownField {
                    context: String::new(),
                    field: String::new(),
                },
                r#"{"schema": "ld-runner/scenario/v1", "name": "t", "surprise": 1, "workloads": [{"kind": "paths"}]}"#
                    .to_string(),
            ),
            (DslError::EmptyWorkloads, base("[]")),
            (
                DslError::UnknownWorkload { kind: String::new() },
                base(r#"[{"kind": "mystery"}]"#),
            ),
            (
                DslError::UnknownField {
                    context: String::new(),
                    field: String::new(),
                },
                base(r#"[{"kind": "paths", "surprise": 1}]"#),
            ),
            (
                DslError::RadiusTooLarge { radius: 0 },
                base(r#"[{"kind": "paths", "radius": 4}]"#),
            ),
            (
                DslError::UnknownFamily { family: String::new() },
                base(r#"[{"kind": "sweep", "family": "klein-bottle", "ladder": {"from": 4, "to": 8}}]"#),
            ),
            (
                DslError::UnknownDecider { decider: String::new() },
                base(
                    r#"[{"kind": "sweep", "family": "path", "ladder": {"from": 4, "to": 8}, "decider": "oracle"}]"#,
                ),
            ),
            (
                DslError::UnknownIdRegime { regime: String::new() },
                base(
                    r#"[{"kind": "sweep", "family": "path", "ladder": {"from": 4, "to": 8}, "ids": "sorted"}]"#,
                ),
            ),
            (
                DslError::LadderBounds { detail: String::new() },
                base(r#"[{"kind": "sweep", "family": "path", "ladder": {"from": 9, "to": 8}}]"#),
            ),
            (
                DslError::LadderBounds { detail: String::new() },
                base(r#"[{"kind": "fractional-coloring", "ladder": {"from": 1, "to": 40}}]"#),
            ),
            (
                DslError::InvalidField {
                    context: String::new(),
                    field: String::new(),
                    detail: String::new(),
                },
                base(r#"[{"kind": "sweep", "family": {"kind": "circulant", "offsets": [2, 4]}, "ladder": {"from": 6, "to": 12}}]"#),
            ),
            (
                DslError::MissingField {
                    context: String::new(),
                    field: String::new(),
                },
                base(r#"[{"kind": "sweep", "family": {"kind": "random-regular"}, "ladder": {"from": 6, "to": 12}}]"#),
            ),
        ];
        for (expected, text) in cases {
            let err = ScenarioDoc::from_text(&text).unwrap_err();
            assert_eq!(
                std::mem::discriminant(&err),
                std::mem::discriminant(&expected),
                "input {text:?} produced {err:?}"
            );
            assert!(err.exit_code() >= 64);
            assert!(!err.token().is_empty());
        }
    }

    #[test]
    fn unreadable_file_error_names_the_path() {
        let err = ScenarioDoc::load_file(Path::new("/no/such/scenario.json")).unwrap_err();
        assert_eq!(err.token(), "unreadable-scenario-file");
        assert_eq!(err.exit_code(), 64);
        assert!(err.to_string().contains("/no/such/scenario.json"));
    }

    #[test]
    fn error_tokens_and_exit_codes_are_stable() {
        let variants = [
            DslError::Unreadable {
                path: String::new(),
                detail: String::new(),
            },
            DslError::Parse {
                detail: String::new(),
            },
            DslError::Schema {
                found: String::new(),
            },
            DslError::MissingField {
                context: String::new(),
                field: String::new(),
            },
            DslError::InvalidField {
                context: String::new(),
                field: String::new(),
                detail: String::new(),
            },
            DslError::UnknownField {
                context: String::new(),
                field: String::new(),
            },
            DslError::UnknownWorkload {
                kind: String::new(),
            },
            DslError::UnknownFamily {
                family: String::new(),
            },
            DslError::UnknownDecider {
                decider: String::new(),
            },
            DslError::UnknownIdRegime {
                regime: String::new(),
            },
            DslError::LadderBounds {
                detail: String::new(),
            },
            DslError::RadiusTooLarge { radius: 4 },
            DslError::EmptyWorkloads,
        ];
        let mut tokens: Vec<&str> = variants.iter().map(DslError::token).collect();
        for variant in &variants {
            let code = variant.exit_code();
            assert!(
                code == 64 || code == 66 || code == 68,
                "{variant:?} -> {code}"
            );
        }
        assert_eq!(
            DslError::RadiusTooLarge { radius: 4 }.exit_code(),
            crate::scenario::ConfigError::RadiusTooLarge { radius: 4 }.exit_code(),
            "the radius envelope maps to one exit code however it is hit"
        );
        tokens.sort_unstable();
        tokens.dedup();
        assert_eq!(tokens.len(), variants.len(), "tokens must be distinct");
    }

    #[test]
    fn budgets_compose_with_flag_overrides() {
        let text = r#"{
            "schema": "ld-runner/scenario/v1",
            "name": "budgeted",
            "node-budget": 64,
            "workloads": [{"kind": "paths"}]
        }"#;
        let doc = ScenarioDoc::from_text(text).unwrap();
        let config = SweepConfig {
            max_n: 48,
            ..SweepConfig::default()
        };
        // The document budget exhausts radius-3 path cells.
        let report = crate::executor::execute(&doc, &config).unwrap();
        assert!(report.exhausted() > 0);
        // An explicit flag wins over the document default.
        let generous = SweepConfig {
            node_budget: Some(u64::MAX),
            ..config
        };
        let report = crate::executor::execute(&doc, &generous).unwrap();
        assert_eq!(report.exhausted(), 0);
    }

    #[test]
    fn deep_nesting_is_rejected_not_overflowed() {
        let mut text = String::new();
        for _ in 0..4_000 {
            text.push('[');
        }
        let err = ScenarioDoc::from_text(&text).unwrap_err();
        assert_eq!(err.token(), "scenario-parse");
    }
}
