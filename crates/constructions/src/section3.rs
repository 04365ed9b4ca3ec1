//! Section 3: the computability separation.
//!
//! The graph `G(M, r)` consists of
//!
//! * the **execution table** `T` of a halting machine `M`, laid out as a
//!   labelled square grid whose top-left node is the *pivot*, and
//! * a **fragment collection** `C(M, r)` of syntactically possible table
//!   fragments, each glued to the pivot along its *non-natural* borders.
//!
//! The property `P = {G(M, r) : M outputs 0}` is decidable with identifiers
//! (a node with a large identifier can finish simulating `M`) but not
//! Id-obliviously (that would separate the computably inseparable languages
//! `L₀`, `L₁`).  This module also implements the neighbourhood generator `B`
//! of property (P3), which produces the `r`-views of `G(N, r)` for *any*
//! machine `N`, halting or not.

use crate::error::ConstructionError;
use crate::fragments::{FragmentCollection, FragmentSource};
use crate::Result;
use ld_graph::{generators, Graph, LabeledGraph, NodeId};
use ld_local::enumeration::{collect_oblivious_views, distinct_oblivious_views};
use ld_local::{ObliviousView, Property};
use ld_turing::{Cell, ExecutionTable, RunOutcome, SharedMachine, Symbol, TuringMachine};

/// The node label of `G(M, r)`: every node is a cell of some table or
/// fragment, carrying the machine, the locality parameter, the
/// orientation-giving coordinates modulo 3, and the cell contents.
///
/// Deliberately, the label does **not** say whether the node belongs to the
/// real execution table or to a fragment — that is the whole point of the
/// obfuscation.
///
/// Every label of one instance points at the same [`SharedMachine`], so
/// cloning a label (as every view extraction does) is a refcount bump.
/// Labels compare equal exactly when their contents do (the handle's `Eq`
/// tries the pointer first), hash the machine as a digest computed once
/// per instance, and print as if each held its own copy.  Deciders ask the
/// handle whether `M` halts within a budget, which simulates `M` once per
/// instance rather than once per node.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Section3Label {
    /// The machine `M` whose execution is embedded (shared by every node).
    pub machine: SharedMachine,
    /// The locality parameter `r` (shared by every node).
    pub r: u32,
    /// Column coordinate modulo 3 (supplies the local orientation).
    pub x_mod3: u8,
    /// Row coordinate modulo 3 (supplies the local orientation).
    pub y_mod3: u8,
    /// The table cell stored at this node.
    pub cell: Cell,
}

/// The graph `G(M, r)` together with bookkeeping used by experiments.
#[derive(Debug, Clone)]
pub struct GmrInstance {
    labeled: LabeledGraph<Section3Label>,
    pivot: NodeId,
    table_side: usize,
    table_nodes: usize,
    fragment_count: usize,
}

impl GmrInstance {
    /// The labelled graph `G(M, r)`.
    pub fn labeled(&self) -> &LabeledGraph<Section3Label> {
        &self.labeled
    }

    /// Consumes the instance, returning the labelled graph.
    pub fn into_labeled(self) -> LabeledGraph<Section3Label> {
        self.labeled
    }

    /// The pivot node (the top-left cell of the execution table).
    pub fn pivot(&self) -> NodeId {
        self.pivot
    }

    /// Side length of the execution table (`s + 1` for run time `s`).
    pub fn table_side(&self) -> usize {
        self.table_side
    }

    /// Number of nodes belonging to the execution table.
    pub fn table_nodes(&self) -> usize {
        self.table_nodes
    }

    /// Number of glued fragments.
    pub fn fragment_count(&self) -> usize {
        self.fragment_count
    }
}

/// Builds `G(M, r)` for a machine that halts within `fuel` steps.
///
/// # Errors
///
/// Returns [`ConstructionError::MachineDidNotHalt`] if the machine does not
/// halt within `fuel` steps, and propagates fragment-collection errors.
pub fn build_gmr(
    machine: &TuringMachine,
    r: u32,
    fuel: u64,
    source: FragmentSource,
) -> Result<GmrInstance> {
    let table = ExecutionTable::of_halting(machine, fuel)
        .map_err(|_| ConstructionError::MachineDidNotHalt { fuel })?;
    let fragments = FragmentCollection::build(machine, r, source)?;
    assemble(machine, r, &table, &fragments)
}

/// Assembles the glued graph from an arbitrary table prefix and fragment
/// collection.  Used both by [`build_gmr`] (exact table) and by the
/// neighbourhood generator (truncated table).
fn assemble(
    machine: &TuringMachine,
    r: u32,
    table: &ExecutionTable,
    fragments: &FragmentCollection,
) -> Result<GmrInstance> {
    let shared = SharedMachine::new(machine.clone());
    let side = table.height();
    let width = table.width();
    let variants: Vec<(&ExecutionTable, Vec<BorderChoice>)> = fragments
        .fragments()
        .iter()
        .map(|fragment| (fragment, border_variants(machine, fragment)))
        .collect();
    let node_count = width * side
        + variants
            .iter()
            .map(|(fragment, choices)| choices.len() * fragment.width() * fragment.height())
            .sum::<usize>();
    let mut graph = generators::grid(width, side);
    let mut labels: Vec<Section3Label> = Vec::with_capacity(node_count);
    for y in 0..side {
        for x in 0..width {
            labels.push(Section3Label {
                machine: shared.clone(),
                r,
                x_mod3: (x % 3) as u8,
                y_mod3: (y % 3) as u8,
                cell: table.cell(y, x)?,
            });
        }
    }
    let pivot = generators::grid_index(width, 0, 0);
    let table_nodes = width * side;

    // Fragment nodes glued to the pivot, added in one rebuild at the end
    // (each appended copy lists its border nodes once).
    let mut glued: Vec<usize> = Vec::new();
    let mut fragment_count = 0usize;
    for (fragment, choices) in &variants {
        for border_choice in choices {
            fragment_count += 1;
            let fside = fragment.height();
            let offset = graph.append(&generators::grid(fragment.width(), fside));
            for y in 0..fside {
                for x in 0..fragment.width() {
                    labels.push(Section3Label {
                        machine: shared.clone(),
                        r,
                        x_mod3: (x % 3) as u8,
                        y_mod3: (y % 3) as u8,
                        cell: fragment.cell(y, x)?,
                    });
                }
            }
            glued.extend(
                border_choice
                    .non_natural_nodes(fragment.width(), fside)
                    .into_iter()
                    .map(|(x, y)| offset + y * fragment.width() + x),
            );
        }
    }
    let graph = Graph::from_edges(
        graph.node_count(),
        graph
            .edges()
            .map(|(u, v)| (u.index(), v.index()))
            .chain(glued.into_iter().map(|node| (node, pivot.index()))),
    )?;
    debug_assert_eq!(
        labels.len(),
        node_count,
        "the label vector is sized exactly"
    );
    let labeled = LabeledGraph::new(graph, labels)?;
    Ok(GmrInstance {
        labeled,
        pivot,
        table_side: side,
        table_nodes,
        fragment_count,
    })
}

/// Which borders of a fragment are treated as non-natural (and hence glued to
/// the pivot).  The top border is never natural.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BorderChoice {
    /// The left column is non-natural.
    pub left: bool,
    /// The right column is non-natural.
    pub right: bool,
    /// The bottom row is non-natural.
    pub bottom: bool,
}

impl BorderChoice {
    /// The grid coordinates `(x, y)` of all nodes on non-natural borders
    /// (top row always included).
    pub fn non_natural_nodes(&self, width: usize, height: usize) -> Vec<(usize, usize)> {
        let mut nodes = Vec::new();
        for x in 0..width {
            nodes.push((x, 0));
            if self.bottom && height > 1 {
                nodes.push((x, height - 1));
            }
        }
        for y in 1..height.saturating_sub(1) {
            if self.left {
                nodes.push((0, y));
            }
            if self.right && width > 1 {
                nodes.push((width - 1, y));
            }
        }
        nodes.sort_unstable();
        nodes.dedup();
        nodes
    }
}

/// Classifies the borders of a fragment and returns the gluing variants.
///
/// Following the paper: the left (right) column is *natural* if the head
/// never crosses that edge; the bottom row is natural if it holds no head in
/// a non-halting state; the top row is never natural.  If the non-natural
/// borders would be disconnected (only top and bottom non-natural), the
/// fragment is replaced by two variants in which the left and right borders
/// are interpreted as non-natural in turn.
pub fn border_variants(machine: &TuringMachine, fragment: &ExecutionTable) -> Vec<BorderChoice> {
    let left_natural = column_is_natural(machine, fragment, 0);
    let right_natural = column_is_natural(machine, fragment, fragment.width() - 1);
    let bottom_natural = bottom_is_natural(machine, fragment);
    let choice = BorderChoice {
        left: !left_natural,
        right: !right_natural,
        bottom: !bottom_natural,
    };
    if choice.bottom && !choice.left && !choice.right && fragment.height() > 2 {
        // Connectivity fix from the paper: split into two variants.
        vec![
            BorderChoice {
                left: true,
                ..choice
            },
            BorderChoice {
                right: true,
                ..choice
            },
        ]
    } else {
        vec![choice]
    }
}

fn column_is_natural(machine: &TuringMachine, fragment: &ExecutionTable, col: usize) -> bool {
    for row in 0..fragment.height() {
        let cell = fragment.cell(row, col).expect("column index is in range");
        if let Some(state) = cell.head {
            // A head on this column that moves off the fragment's edge means
            // the column cannot be the tape boundary / an untouched edge.
            if let Some(t) = machine.transition(state, cell.symbol) {
                let moves_out = (col == 0 && t.direction == ld_turing::Direction::Left)
                    || (col + 1 == fragment.width() && t.direction == ld_turing::Direction::Right);
                if moves_out {
                    return false;
                }
            }
            // A head that appears on this column without a visible source in
            // the previous row entered from outside the fragment.
            if row > 0 {
                let above = fragment.cell(row - 1, col).expect("row-1 is in range");
                let inner_col = if col == 0 { 1 } else { col - 1 };
                let inner = fragment
                    .cell(row - 1, inner_col)
                    .expect("inner column in range");
                let fed_from_above = above.head.is_some();
                let fed_from_inner = inner.head.is_some();
                if !fed_from_above && !fed_from_inner {
                    return false;
                }
            }
        }
    }
    true
}

fn bottom_is_natural(machine: &TuringMachine, fragment: &ExecutionTable) -> bool {
    let last = fragment.height() - 1;
    for col in 0..fragment.width() {
        let cell = fragment.cell(last, col).expect("bottom row is in range");
        if let Some(state) = cell.head {
            if !machine.halts_on(state, cell.symbol) {
                return false;
            }
        }
    }
    true
}

/// The neighbourhood generator `B(N, r)` of property (P3): it halts on every
/// machine `N` (halting or not) and outputs a finite set of distinct
/// `r`-views such that, if `N` halts, every `r`-view of `G(N, r)` is among
/// them.
///
/// Implementation per Appendix-free Section 3.2: build the `4r x 4r`
/// truncated table `T_{4r}`, glue `C(N, r)` to its pivot, and collect the
/// `r`-views that avoid the bottom row of `T_{4r}`.
///
/// # Errors
///
/// Propagates fragment-collection and assembly errors.
pub fn neighborhood_generator(
    machine: &TuringMachine,
    r: u32,
    source: FragmentSource,
) -> Result<Vec<ObliviousView<Section3Label>>> {
    let extent = (4 * 3 * r as usize).max(4);
    let table = ExecutionTable::truncated(machine, extent, extent);
    let fragments = FragmentCollection::build(machine, r, source)?;
    let instance = assemble(machine, r, &table, &fragments)?;
    let bottom_row_start = (extent - 1) * extent;
    let bottom_row: Vec<NodeId> = (bottom_row_start..extent * extent)
        .map(NodeId::from)
        .collect();
    let radius = r as usize;
    let views = collect_oblivious_views(instance.labeled(), radius);
    let filtered: Vec<ObliviousView<Section3Label>> = instance
        .labeled()
        .graph()
        .nodes()
        .zip(views)
        .filter(|(center, _)| {
            let ball = instance.labeled().graph().ball(*center, radius);
            !ball.mapping().iter().any(|orig| bottom_row.contains(orig))
        })
        .map(|(_, view)| view)
        .collect();
    Ok(distinct_oblivious_views(filtered))
}

/// The property `P = {G(M, r) : M halts and outputs 0}` of Theorem 2.
///
/// Membership runs the machine encoded in the labels for at most `fuel`
/// steps (the executable stand-in for the undecidable definition; see
/// `DESIGN.md` §2) and compares the instance against the canonical
/// `G(M, r)` produced by [`build_gmr`] with the same fragment source.
#[derive(Debug, Clone)]
pub struct GmrOutputsZeroProperty {
    fuel: u64,
    source: FragmentSource,
}

impl GmrOutputsZeroProperty {
    /// Creates the property with the given simulation fuel and fragment
    /// source (both must match the generator used to build instances).
    pub fn new(fuel: u64, source: FragmentSource) -> Self {
        GmrOutputsZeroProperty { fuel, source }
    }
}

impl Property<Section3Label> for GmrOutputsZeroProperty {
    fn name(&self) -> &str {
        "section3-P (G(M,r) with M outputting 0)"
    }

    fn contains(&self, labeled: &LabeledGraph<Section3Label>) -> bool {
        let Some(first) = labeled.labels().first() else {
            return false;
        };
        let machine = &first.machine;
        let r = first.r;
        if labeled
            .labels()
            .iter()
            .any(|l| l.machine != *machine || l.r != r)
        {
            return false;
        }
        let RunOutcome::Halted(halt) = machine.run(self.fuel) else {
            return false;
        };
        if halt.output != Symbol(0) {
            return false;
        }
        match build_gmr(machine, r, self.fuel, self.source) {
            Ok(instance) => instance.labeled() == labeled,
            Err(_) => false,
        }
    }
}

/// The illustrative promise problem `R` of Section 3: cycles labelled with a
/// Turing machine `M`; yes-instances are those where `M` runs forever, and
/// the promise guarantees that on no-instances the cycle is at least as long
/// as `M`'s running time.
pub mod promise {
    use super::*;

    /// The constant label of the promise-problem cycles.  Every node holds
    /// the same [`SharedMachine`], so the cycle stores one machine and the
    /// deciders simulate it once.
    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    pub struct MachineLabel {
        /// The machine every node is told about.
        pub machine: SharedMachine,
    }

    /// Builds a promise instance: an `n`-cycle labelled with `machine`.
    ///
    /// # Errors
    ///
    /// Returns an error if `n < 3`, or if the machine halts within
    /// `max(n, 10_000)` steps but `n` is smaller than its running time
    /// (which would violate the promise).
    pub fn instance(machine: &TuringMachine, n: usize) -> Result<LabeledGraph<MachineLabel>> {
        if n < 3 {
            return Err(ConstructionError::InvalidParameter {
                reason: format!("a cycle needs at least 3 nodes, got {n}"),
            });
        }
        if let RunOutcome::Halted(halt) = machine.run((n as u64).max(10_000)) {
            if (halt.steps as usize) > n {
                return Err(ConstructionError::InvalidParameter {
                    reason: format!(
                        "promise violated: the machine halts in {} steps but the cycle has only {n} nodes",
                        halt.steps
                    ),
                });
            }
        }
        Ok(LabeledGraph::uniform(
            generators::cycle(n),
            MachineLabel {
                machine: SharedMachine::new(machine.clone()),
            },
        ))
    }

    /// The promise-problem property: yes iff the labelled machine does *not*
    /// halt within `fuel` steps (the executable stand-in for "runs forever").
    #[derive(Debug, Clone, Copy)]
    pub struct RunsForeverProperty {
        /// Simulation budget used as the stand-in for non-halting.
        pub fuel: u64,
    }

    impl Property<MachineLabel> for RunsForeverProperty {
        fn name(&self) -> &str {
            "section3-promise (M runs forever)"
        }

        fn contains(&self, labeled: &LabeledGraph<MachineLabel>) -> bool {
            let Some(first) = labeled.labels().first() else {
                return false;
            };
            if labeled.labels().iter().any(|l| l.machine != first.machine) {
                return false;
            }
            matches!(first.machine.run(self.fuel), RunOutcome::OutOfFuel(_))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ld_turing::zoo;

    #[test]
    fn gmr_embeds_the_execution_table() {
        let spec = zoo::halts_with_output(3, Symbol(0));
        let instance = build_gmr(&spec.machine, 1, 100, FragmentSource::WindowsAndDecoys).unwrap();
        let side = spec.truth.steps().unwrap() as usize + 1;
        assert_eq!(instance.table_side(), side);
        assert_eq!(instance.table_nodes(), side * side);
        assert!(instance.fragment_count() > 0);
        assert!(instance.labeled().graph().is_connected());
        // Property (P1): the table cells appear verbatim as the first
        // side*side labels, and the head trajectory is the walker's diagonal.
        let labeled = instance.labeled();
        let table = ExecutionTable::of_halting(&spec.machine, 100).unwrap();
        for y in 0..side {
            for x in 0..side {
                let node = generators::grid_index(side, x, y);
                assert_eq!(labeled.label(node).cell, table.cell(y, x).unwrap());
            }
        }
    }

    /// The assembly `build_gmr` used before in-place appends and shared
    /// machines: one `disjoint_union` per fragment variant, one machine copy
    /// per label.  Kept here only as the differential reference.
    fn assemble_by_union(
        machine: &TuringMachine,
        r: u32,
        table: &ExecutionTable,
        fragments: &FragmentCollection,
    ) -> LabeledGraph<Section3Label> {
        let label = |x: usize, y: usize, cell: Cell| Section3Label {
            machine: SharedMachine::new(machine.clone()),
            r,
            x_mod3: (x % 3) as u8,
            y_mod3: (y % 3) as u8,
            cell,
        };
        let (side, width) = (table.height(), table.width());
        let mut graph = generators::grid(width, side);
        let mut labels = Vec::new();
        for y in 0..side {
            for x in 0..width {
                labels.push(label(x, y, table.cell(y, x).unwrap()));
            }
        }
        let pivot = generators::grid_index(width, 0, 0).index();
        let mut glue = Vec::new();
        for fragment in fragments.fragments() {
            for border_choice in border_variants(machine, fragment) {
                let (fwidth, fside) = (fragment.width(), fragment.height());
                let (merged, offset) = graph.disjoint_union(&generators::grid(fwidth, fside));
                graph = merged;
                for y in 0..fside {
                    for x in 0..fwidth {
                        labels.push(label(x, y, fragment.cell(y, x).unwrap()));
                    }
                }
                for (x, y) in border_choice.non_natural_nodes(fwidth, fside) {
                    glue.push((pivot, offset + y * fwidth + x));
                }
            }
        }
        let edges = graph.edges().map(|(u, v)| (u.index(), v.index()));
        let graph = Graph::from_edges(graph.node_count(), edges.chain(glue)).unwrap();
        LabeledGraph::new(graph, labels).unwrap()
    }

    #[test]
    fn build_gmr_matches_the_fold_by_disjoint_union_assembly() {
        let source = FragmentSource::WindowsAndDecoys;
        let machines = zoo::output_zero_zoo()
            .into_iter()
            .chain(zoo::output_one_zoo())
            .filter(|spec| spec.truth.steps().is_some_and(|steps| steps <= 128));
        let mut checked = 0;
        for spec in machines {
            let instance = build_gmr(&spec.machine, 1, 10_000, source).unwrap();
            let table = ExecutionTable::of_halting(&spec.machine, 10_000).unwrap();
            let fragments = FragmentCollection::build(&spec.machine, 1, source).unwrap();
            let reference = assemble_by_union(&spec.machine, 1, &table, &fragments);
            assert_eq!(
                instance.labeled(),
                &reference,
                "{}: graph or labels differ",
                spec.machine.name()
            );
            checked += 1;
        }
        assert!(checked >= 10, "only {checked} zoo machines checked");
    }

    #[test]
    fn gmr_pivot_is_the_high_degree_top_left_corner() {
        let spec = zoo::halts_with_output(2, Symbol(1));
        let instance = build_gmr(&spec.machine, 1, 100, FragmentSource::WindowsAndDecoys).unwrap();
        let pivot_degree = instance.labeled().graph().degree(instance.pivot()).unwrap();
        // The pivot is adjacent to its two grid neighbours plus at least one
        // non-natural border node per glued fragment variant.
        assert!(pivot_degree > 2 + instance.fragment_count() / 2);
    }

    #[test]
    fn build_gmr_requires_halting() {
        let spec = zoo::infinite_loop();
        assert!(matches!(
            build_gmr(&spec.machine, 1, 200, FragmentSource::TableWindows),
            Err(ConstructionError::MachineDidNotHalt { fuel: 200 })
        ));
    }

    #[test]
    fn border_variants_cover_the_connectivity_fix() {
        let spec = zoo::halts_with_output(1, Symbol(0));
        // A fully blank fragment: no head anywhere, so left/right/bottom are
        // all natural and only the top is glued.
        let blank = ExecutionTable::from_rows(vec![vec![Cell::blank(); 3]; 3]).unwrap();
        let variants = border_variants(&spec.machine, &blank);
        assert_eq!(variants.len(), 1);
        assert!(!variants[0].left && !variants[0].right && !variants[0].bottom);
        assert_eq!(
            variants[0].non_natural_nodes(3, 3),
            vec![(0, 0), (1, 0), (2, 0)]
        );

        // A fragment whose bottom row holds a running head but whose side
        // columns are untouched: the bottom is non-natural while left and
        // right are natural, so the paper's connectivity fix produces two
        // variants (left non-natural, right non-natural).
        let running_head_bottom = ExecutionTable::from_rows(vec![
            vec![Cell::blank(), Cell::blank(), Cell::blank()],
            vec![Cell::blank(), Cell::blank(), Cell::blank()],
            vec![
                Cell::blank(),
                Cell::with_head(Symbol(0), ld_turing::State(0)),
                Cell::blank(),
            ],
        ])
        .unwrap();
        let variants = border_variants(&spec.machine, &running_head_bottom);
        assert_eq!(variants.len(), 2);
        assert!(variants.iter().all(|v| v.bottom));
        assert!(variants.iter().any(|v| v.left) && variants.iter().any(|v| v.right));
    }

    #[test]
    fn neighborhood_generator_halts_on_nonhalting_machines() {
        let spec = zoo::infinite_loop();
        let views =
            neighborhood_generator(&spec.machine, 1, FragmentSource::WindowsAndDecoys).unwrap();
        assert!(!views.is_empty());
    }

    #[test]
    fn neighborhood_generator_covers_gmr_views_for_halting_machines() {
        // Property (P3): if the machine halts, every r-view of G(M, r)
        // appears in B(M, r).
        let spec = zoo::halts_with_output(2, Symbol(0));
        let source = FragmentSource::WindowsAndDecoys;
        let generated = neighborhood_generator(&spec.machine, 1, source).unwrap();
        let instance = build_gmr(&spec.machine, 1, 100, source).unwrap();
        let actual = ld_local::enumeration::distinct_oblivious_views_of(instance.labeled(), 1);
        let coverage = ld_local::enumeration::coverage(&actual, &generated);
        // With the default windows-and-decoys source the coverage is partial
        // (the exact (P3) statement needs the exhaustive fragment source);
        // experiment E5 reports the measured coverage for both sources.
        assert!(
            coverage > 0.2,
            "B(M, r) should cover a substantial share of the views of G(M, r); coverage = {coverage}"
        );
    }

    #[test]
    fn outputs_zero_property_accepts_and_rejects() {
        let source = FragmentSource::WindowsAndDecoys;
        let property = GmrOutputsZeroProperty::new(500, source);
        let zero = zoo::halts_with_output(2, Symbol(0));
        let one = zoo::halts_with_output(2, Symbol(1));
        let g_zero = build_gmr(&zero.machine, 1, 500, source).unwrap();
        let g_one = build_gmr(&one.machine, 1, 500, source).unwrap();
        assert!(property.contains(g_zero.labeled()));
        assert!(!property.contains(g_one.labeled()));
        // A corrupted instance (one cell flipped) is rejected.
        let mut corrupted = g_zero.labeled().clone();
        let target = NodeId(1);
        corrupted.label_mut(target).cell = Cell::symbol(Symbol(1));
        assert!(!property.contains(&corrupted));
    }

    #[test]
    fn promise_instances_and_property() {
        let halting = zoo::halts_with_output(4, Symbol(1));
        let forever = zoo::infinite_loop();
        let yes = promise::instance(&forever.machine, 8).unwrap();
        let no = promise::instance(&halting.machine, 8).unwrap();
        let property = promise::RunsForeverProperty { fuel: 10_000 };
        assert!(property.contains(&yes));
        assert!(!property.contains(&no));
        // Promise violation: cycle shorter than the running time.
        assert!(promise::instance(&zoo::halts_with_output(30, Symbol(0)).machine, 5).is_err());
        assert!(promise::instance(&forever.machine, 2).is_err());
    }
}
