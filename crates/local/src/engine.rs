//! A synchronous message-passing engine for the LOCAL model.
//!
//! Section 1.2 of the paper notes that a local algorithm with horizon `t` is
//! equivalent to a distributed algorithm running `t ± 1` synchronous rounds
//! in which every node forwards everything it knows.  This module implements
//! that *networked state machine* semantics directly — each node starts
//! knowing only itself and floods its knowledge for `t` rounds — and the
//! tests (plus experiment E11) verify it reconstructs exactly the radius-`t`
//! views produced by the direct ball-extraction of [`crate::Input::view`].

use crate::algorithm::LocalAlgorithm;
use crate::decision::Decision;
use crate::input::Input;
use crate::view::View;
use ld_graph::NodeId;

/// The knowledge a node has accumulated after some number of rounds: the set
/// of nodes it has heard about, by original node id, with the round at which
/// each was first heard of.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Knowledge {
    /// `heard[u] = Some(round)` iff node `u` was first heard of in `round`.
    heard: Vec<Option<usize>>,
}

impl Knowledge {
    fn new(n: usize, myself: NodeId) -> Self {
        let mut heard = vec![None; n];
        heard[myself.index()] = Some(0);
        Knowledge { heard }
    }

    /// The nodes known so far, in increasing node order.
    pub fn known_nodes(&self) -> Vec<NodeId> {
        self.heard
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.map(|_| NodeId::from(i)))
            .collect()
    }

    /// The round at which `u` was first heard of, if at all.
    pub fn first_heard(&self, u: NodeId) -> Option<usize> {
        self.heard.get(u.index()).copied().flatten()
    }
}

/// Runs `rounds` synchronous flooding rounds on the input's graph and returns
/// the per-node knowledge.
///
/// In each round every node sends everything it knows to all neighbours; the
/// round counter at which a node is first heard of equals its graph distance,
/// which is the invariant the tests check.
pub fn flood_knowledge<L>(input: &Input<L>, rounds: usize) -> Vec<Knowledge> {
    let graph = input.graph();
    let n = graph.node_count();
    let mut knowledge: Vec<Knowledge> = graph.nodes().map(|v| Knowledge::new(n, v)).collect();
    for round in 1..=rounds {
        // Snapshot of who-knows-whom before this round (synchronous model).
        let snapshot: Vec<Vec<NodeId>> = knowledge.iter().map(Knowledge::known_nodes).collect();
        for v in graph.nodes() {
            for u in graph.neighbors(v) {
                for &w in &snapshot[u.index()] {
                    let entry = &mut knowledge[v.index()].heard[w.index()];
                    if entry.is_none() {
                        *entry = Some(round);
                    }
                }
            }
        }
    }
    knowledge
}

/// Reconstructs the radius-`radius` view of node `v` from the knowledge
/// gathered by [`flood_knowledge`], i.e. purely through message passing.
pub fn view_from_flooding<L: Clone>(
    input: &Input<L>,
    knowledge: &[Knowledge],
    v: NodeId,
    radius: usize,
) -> View<L> {
    let members: Vec<NodeId> = knowledge[v.index()]
        .known_nodes()
        .into_iter()
        .filter(|&u| {
            knowledge[v.index()]
                .first_heard(u)
                .is_some_and(|heard| heard <= radius)
        })
        .collect();
    let (subgraph, mapping) = input
        .graph()
        .induced_subgraph(&members)
        // ld-analyze: allow(D004, reason = "invariant: members come from this graph's own knowledge sets")
        .expect("known nodes are valid");
    let labels = mapping
        .iter()
        .map(|&orig| input.label(orig).clone())
        .collect();
    let ids = mapping.iter().map(|&orig| input.id(orig)).collect();
    let center = mapping
        .iter()
        .position(|&orig| orig == v)
        // ld-analyze: allow(D004, reason = "invariant: v is in members because first_heard(v) == 0 <= radius")
        .expect("a node always knows itself");
    View::from_parts(subgraph, NodeId::from(center), radius, labels, ids)
}

/// Runs a local algorithm through the message-passing engine: flood for
/// `algorithm.radius()` rounds, reconstruct every node's view from its
/// knowledge, and evaluate.  Produces the same decision as
/// [`crate::decision::run_local`].
pub fn run_with_engine<L: Clone, A: LocalAlgorithm<L> + ?Sized>(
    input: &Input<L>,
    algorithm: &A,
) -> Decision {
    let radius = algorithm.radius();
    let knowledge = flood_knowledge(input, radius);
    let verdicts = input
        .graph()
        .nodes()
        .map(|v| algorithm.evaluate(view_from_flooding(input, &knowledge, v, radius).as_view()))
        .collect();
    Decision::new(algorithm.name(), verdicts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::{FnLocal, Verdict};
    use crate::decision::run_local;
    use crate::ids::IdAssignment;
    use ld_graph::{generators, LabeledGraph};

    fn grid_input() -> Input<u8> {
        let lg = LabeledGraph::from_fn(generators::grid(5, 4), |v| (v.index() % 3) as u8);
        Input::new(lg, IdAssignment::consecutive_from(20, 7)).unwrap()
    }

    #[test]
    fn flooding_round_equals_graph_distance() {
        let input = grid_input();
        let rounds = 4;
        let knowledge = flood_knowledge(&input, rounds);
        for v in input.graph().nodes() {
            for u in input.graph().nodes() {
                let d = input.graph().distance(v, u).unwrap();
                let heard = knowledge[v.index()].first_heard(u);
                match d {
                    Some(d) if d <= rounds => assert_eq!(heard, Some(d)),
                    _ => assert_eq!(heard, None),
                }
            }
        }
    }

    #[test]
    fn flooded_views_match_ball_extraction() {
        let input = grid_input();
        for radius in 0..=3 {
            let knowledge = flood_knowledge(&input, radius);
            for v in input.graph().nodes() {
                let direct = input.view(v, radius);
                let flooded = view_from_flooding(&input, &knowledge, v, radius);
                assert!(
                    direct.indistinguishable_from(&flooded),
                    "views differ at node {v} radius {radius}"
                );
            }
        }
    }

    #[test]
    fn engine_decision_matches_direct_decision() {
        let input = grid_input();
        let algorithm = FnLocal::new("sum-of-labels-even", 2, |view: crate::ViewRef<u8>| {
            let sum: u32 = view.labels().map(|&l| l as u32).sum();
            Verdict::from_bool(sum % 2 == 0)
        });
        let direct = run_local(&input, &algorithm);
        let engine = run_with_engine(&input, &algorithm);
        assert_eq!(direct.verdicts(), engine.verdicts());
    }

    #[test]
    fn zero_rounds_means_every_node_knows_only_itself() {
        let input = grid_input();
        let knowledge = flood_knowledge(&input, 0);
        for v in input.graph().nodes() {
            assert_eq!(knowledge[v.index()].known_nodes(), vec![v]);
        }
    }
}
