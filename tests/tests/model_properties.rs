//! Property-based integration tests on the model invariants that every
//! component of the reproduction relies on.

use local_decision::local::engine;
use local_decision::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn arbitrary_connected_graph() -> impl Strategy<Value = Graph> {
    // A seeded random connected graph: node count 2..=24, extra edges 0..=20.
    (2usize..=24, 0usize..=20, any::<u64>()).prop_map(|(n, extra, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        generators::random_connected(n, extra, &mut rng)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Ball extraction agrees with BFS distances on arbitrary connected
    /// graphs, for every node and several radii.
    #[test]
    fn balls_match_bfs_distances(graph in arbitrary_connected_graph(), radius in 0usize..4) {
        for v in graph.nodes() {
            let ball = graph.ball(v, radius);
            for u in ball.graph().nodes() {
                let orig = ball.original(u);
                let d = graph.distance(v, orig).unwrap().unwrap();
                prop_assert_eq!(d, ball.distance_from_center(u));
                prop_assert!(d <= radius);
            }
            // Every node within the radius is in the ball.
            let within = graph.nodes_within(v, radius).unwrap();
            prop_assert_eq!(within.len(), ball.node_count());
        }
    }

    /// The message-passing engine reconstructs exactly the views that direct
    /// ball extraction produces — the LOCAL-model equivalence of Section 1.2.
    #[test]
    fn flooding_reconstructs_views(graph in arbitrary_connected_graph(), radius in 0usize..3) {
        let n = graph.node_count();
        let labeled = LabeledGraph::from_fn(graph, |v| (v.index() % 7) as u8);
        let input = Input::new(labeled, IdAssignment::consecutive_from(n, 5)).unwrap();
        let knowledge = engine::flood_knowledge(&input, radius);
        for v in input.graph().nodes() {
            let direct = input.view(v, radius);
            let flooded = engine::view_from_flooding(&input, &knowledge, v, radius);
            prop_assert!(direct.indistinguishable_from(&flooded));
        }
    }

    /// Id-oblivious verdicts are invariant under identifier reassignment on
    /// arbitrary inputs — the defining property of LD*.
    #[test]
    fn oblivious_algorithms_ignore_ids(graph in arbitrary_connected_graph(), seed in any::<u64>()) {
        let n = graph.node_count();
        let labeled = LabeledGraph::from_fn(graph, |v| (v.index() % 3) as u8);
        let algorithm = FnOblivious::new("degree-parity", 1, |view: ObliviousViewRef<u8>| {
            Verdict::from_bool((view.neighbors_of_center().count() + *view.center_label() as usize) % 2 == 0)
        });
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Input::new(labeled.clone(), IdAssignment::consecutive(n)).unwrap();
        let b = Input::new(labeled, IdAssignment::shuffled(n, &mut rng)).unwrap();
        let da = decision::run_oblivious(&a, &algorithm);
        let db = decision::run_oblivious(&b, &algorithm);
        prop_assert_eq!(da.verdicts(), db.verdicts());
    }

    /// Distinct-view enumeration is sound: every enumerated view really
    /// occurs, and every node's view is represented.
    #[test]
    fn view_enumeration_covers_all_nodes(graph in arbitrary_connected_graph()) {
        let labeled = LabeledGraph::from_fn(graph, |v| (v.index() % 2) as u8);
        let all = enumeration::collect_oblivious_views(&labeled, 1);
        let distinct = enumeration::distinct_oblivious_views_of(&labeled, 1);
        prop_assert!(distinct.len() <= all.len());
        prop_assert!((enumeration::coverage(&all, &distinct) - 1.0).abs() < f64::EPSILON);
        prop_assert!((enumeration::coverage(&distinct, &all) - 1.0).abs() < f64::EPSILON);
    }

    /// Turing-machine execution tables are valid run prefixes and their
    /// windows are locally consistent fragments (the invariant behind the
    /// Section 3 construction).
    #[test]
    fn execution_tables_are_locally_consistent(k in 0u8..20, output in 0u8..2) {
        let spec = zoo::halts_with_output(k, Symbol(output));
        let table = local_decision::turing::ExecutionTable::of_halting(&spec.machine, 1_000).unwrap();
        prop_assert!(table.is_valid_run_prefix(&spec.machine));
        let side = 3.min(table.height());
        for row in 0..=table.height() - side {
            for col in 0..=table.width() - side {
                let window = table.window(row, col, side).unwrap();
                prop_assert!(window.is_locally_consistent_fragment(&spec.machine));
            }
        }
    }

    /// Machine encoding round-trips exactly.
    #[test]
    fn machine_codec_roundtrips(k in 0u8..30, output in 0u8..2) {
        let spec = zoo::halts_with_output(k, Symbol(output));
        let bytes = local_decision::turing::encode_machine(&spec.machine);
        let decoded = local_decision::turing::decode_machine(&bytes).unwrap();
        prop_assert_eq!(decoded, spec.machine);
    }

    /// The identifier bound's inverse is the paper's f^{-1}: the smallest j
    /// with f(j) >= i.
    #[test]
    fn id_bound_inverse_is_minimal(a in 1u64..5, b in 0u64..10, i in 0u64..500) {
        let f = IdBound::linear(a, b);
        let j = f.inverse(i);
        prop_assert!(f.apply(j) >= i);
        if j > 0 {
            prop_assert!(f.apply(j - 1) < i);
        }
    }
}
