//! Property-based tests for the canonicalisation layer every
//! indistinguishability harness (and now the runner's shared view cache)
//! rests on: `canonical_key` and `indistinguishable_from` must be invariant
//! under node relabelings and under label-preserving port permutations
//! (re-orderings of each node's adjacency list).

use local_decision::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// A seeded random connected labelled graph with a distinguished centre.
fn arbitrary_view_parts() -> impl Strategy<Value = (Graph, Vec<u8>, usize, usize)> {
    (3usize..=14, 0usize..=10, any::<u64>(), 0usize..3).prop_map(|(n, extra, seed, radius)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = generators::random_connected(n, extra, &mut rng);
        let labels: Vec<u8> = (0..n).map(|_| rng.gen_range(0u8..3)).collect();
        let center = rng.gen_range(0..n);
        (graph, labels, center, radius)
    })
}

/// A random permutation of `0..n` derived from `seed`.
fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..n).collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xabcd_ef01);
    perm.shuffle(&mut rng);
    perm
}

/// Rebuilds `graph` from its edges listed in a shuffled order: the same
/// abstract graph, built from a permuted edge list.
fn permute_ports(graph: &Graph, seed: u64) -> Graph {
    let mut edges: Vec<(NodeId, NodeId)> = graph.edges().collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5ca1_ab1e);
    edges.shuffle(&mut rng);
    // Flipping endpoints permutes the input further without changing the
    // edge set.
    let edges = edges.into_iter().map(|(u, v)| {
        if rng.gen_bool(0.5) {
            (v.index(), u.index())
        } else {
            (u.index(), v.index())
        }
    });
    Graph::from_edges(graph.node_count(), edges).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Relabeling the nodes of a view (and mapping centre, labels and ids
    /// along) never changes `canonical_key` or distinguishability.
    #[test]
    fn canonical_key_invariant_under_node_relabeling(
        parts in arbitrary_view_parts(),
        seed in any::<u64>(),
    ) {
        let (graph, labels, center, radius) = parts;
        let n = graph.node_count();
        let ids: Vec<u64> = (0..n as u64).map(|i| 100 + 7 * i).collect();
        let view = View::from_parts(
            graph.clone(), NodeId::from(center), radius, labels.clone(), ids.clone(),
        );

        // perm[old] = new index, matching Graph::relabel's convention.
        let perm = permutation(n, seed);
        let relabeled = graph.relabel(&perm).unwrap();
        let mut new_labels = vec![0u8; n];
        let mut new_ids = vec![0u64; n];
        for old in 0..n {
            new_labels[perm[old]] = labels[old];
            new_ids[perm[old]] = ids[old];
        }
        let relabeled_view = View::from_parts(
            relabeled, NodeId::from(perm[center]), radius, new_labels.clone(), new_ids,
        );

        prop_assert_eq!(view.canonical_key(), relabeled_view.canonical_key());
        prop_assert!(view.indistinguishable_from(&relabeled_view));

        let oblivious = view.as_view().without_ids().to_owned();
        let relabeled_oblivious = relabeled_view.as_view().without_ids().to_owned();
        prop_assert_eq!(oblivious.canonical_key(), relabeled_oblivious.canonical_key());
        prop_assert!(oblivious.indistinguishable_from(&relabeled_oblivious));
    }

    /// Re-ordering every node's ports (adjacency lists) while keeping node
    /// names and labels fixed never changes `canonical_key` or
    /// distinguishability.
    #[test]
    fn canonical_key_invariant_under_port_permutation(
        parts in arbitrary_view_parts(),
        seed in any::<u64>(),
    ) {
        let (graph, labels, center, radius) = parts;
        let permuted = permute_ports(&graph, seed);
        prop_assert_eq!(graph.node_count(), permuted.node_count());
        prop_assert_eq!(graph.edge_count(), permuted.edge_count());

        let a = ObliviousView::from_parts(
            graph, NodeId::from(center), radius, labels.clone(),
        );
        let b = ObliviousView::from_parts(
            permuted, NodeId::from(center), radius, labels,
        );
        prop_assert_eq!(a.canonical_key(), b.canonical_key());
        prop_assert!(a.indistinguishable_from(&b));
    }

    /// Distinct centres in an asymmetric position, or distinct labels, do
    /// change the key with overwhelming probability — the key is not a
    /// constant.  (Sanity check that the invariance tests test something.)
    #[test]
    fn canonical_key_depends_on_labels(parts in arbitrary_view_parts()) {
        let (graph, labels, center, radius) = parts;
        let a = ObliviousView::from_parts(
            graph.clone(), NodeId::from(center), radius, labels.clone(),
        );
        let mut flipped = labels;
        flipped[center] = flipped[center].wrapping_add(1) % 3;
        let b = ObliviousView::from_parts(graph, NodeId::from(center), radius, flipped);
        prop_assert_ne!(a.canonical_key(), b.canonical_key());
        prop_assert!(!a.indistinguishable_from(&b));
    }
}
