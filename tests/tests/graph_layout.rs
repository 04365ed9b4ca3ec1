//! Differential tests for `Graph`'s compressed-sparse-row layout.
//!
//! Every graph operation is checked against the obvious model: a
//! `BTreeSet<(u, v)>` of normalised edges (`u < v`).  A graph agrees with
//! its model when
//!
//! - every row (`neighbors(v)`) is strictly increasing, loop-free and
//!   symmetric (`w ∈ N(v)` ⇔ `v ∈ N(w)`), and equals the model's row;
//! - `degree` is the row length and `edge_count` is half the degree sum,
//!   i.e. half the stored targets;
//! - `edges()` yields exactly the model in its iteration order (by `u`,
//!   then by `v`).
//!
//! Inputs come from the shared [`ld_tests::strategies`] families.  The
//! seeded random generators are additionally pinned by FNV digests of
//! their edge lists, so a construction change that altered the RNG
//! sequence or the edges drawn fails here.

use ld_tests::strategies::adversarial_ball;
use local_decision::graph::{generators, BallExtractor, Graph, GraphError, NodeId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

type Model = BTreeSet<(usize, usize)>;

fn normalised(u: usize, v: usize) -> (usize, usize) {
    (u.min(v), u.max(v))
}

fn model_of(edges: impl IntoIterator<Item = (usize, usize)>) -> Model {
    edges.into_iter().map(|(u, v)| normalised(u, v)).collect()
}

/// Asserts that `g` has `n` nodes and exactly the edges of `model`, laid
/// out in strictly increasing, symmetric rows.
fn assert_layout(g: &Graph, n: usize, model: &Model) {
    assert_eq!(g.node_count(), n);
    let mut rows: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    for &(u, v) in model {
        assert!(u < v && v < n, "model edge ({u}, {v}) out of range");
        rows[u].push(NodeId::from(v));
        rows[v].push(NodeId::from(u));
    }
    let mut degree_sum = 0;
    for v in g.nodes() {
        let row: Vec<NodeId> = g.neighbors(v).collect();
        assert!(
            row.windows(2).all(|w| w[0] < w[1]),
            "{v}: row not increasing"
        );
        for &w in &row {
            assert_ne!(w, v, "{v}: self-loop");
            assert!(g.neighbors(w).any(|x| x == v), "{v}-{w}: not symmetric");
        }
        let mut expected = rows[v.index()].clone();
        expected.sort_unstable();
        assert_eq!(row, expected, "{v}: row differs from the model");
        assert_eq!(g.degree(v).unwrap(), row.len());
        assert_eq!(g.neighbors(v).len(), row.len());
        degree_sum += row.len();
    }
    assert_eq!(g.edge_count() * 2, degree_sum);
    assert_eq!(g.edge_count(), model.len());
    let edges: Vec<(usize, usize)> = g.edges().map(|(u, v)| (u.index(), v.index())).collect();
    assert!(edges.iter().copied().eq(model.iter().copied()));
    for &(u, v) in model {
        assert!(g.has_edge(NodeId::from(u), NodeId::from(v)));
        assert!(g.has_edge(NodeId::from(v), NodeId::from(u)));
    }
    assert!(!g.has_edge(NodeId::from(n), NodeId(0)));
}

fn model(g: &Graph) -> Model {
    model_of(g.edges().map(|(u, v)| (u.index(), v.index())))
}

/// The first error the old edge-at-a-time build reported: endpoints are
/// range-checked `u` first, then loops, then repeats of an earlier edge in
/// either orientation.
fn model_error(n: usize, edges: &[(usize, usize)]) -> Option<GraphError> {
    let mut seen = Model::new();
    for &(u, v) in edges {
        for node in [u, v] {
            if node >= n {
                return Some(GraphError::NodeOutOfRange {
                    node,
                    node_count: n,
                });
            }
        }
        if u == v {
            return Some(GraphError::SelfLoop { node: u });
        }
        if !seen.insert(normalised(u, v)) {
            return Some(GraphError::DuplicateEdge { u, v });
        }
    }
    None
}

/// `g`'s edges in a seeded random order, each in a random orientation.
fn shuffled_edges(g: &Graph, rng: &mut StdRng) -> Vec<(usize, usize)> {
    let mut edges: Vec<(usize, usize)> = g
        .edges()
        .map(|(u, v)| {
            if rng.gen_bool(0.5) {
                (v.index(), u.index())
            } else {
                (u.index(), v.index())
            }
        })
        .collect();
    for i in (1..edges.len()).rev() {
        edges.swap(i, rng.gen_range(0..=i));
    }
    edges
}

/// FNV-1a 64 over a graph's node count and its `edges()` list.
fn edge_digest(graphs: &[Graph]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut feed = |word: u32| {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for g in graphs {
        feed(g.node_count() as u32);
        for (u, v) in g.edges() {
            feed(u.0);
            feed(v.0);
        }
    }
    hash
}

#[test]
fn deterministic_generators_match_their_definitions() {
    // Every size below 12, then sampled sizes up to 2048 (the promise
    // cycles of the XL sweep reach that far); `complete` stops at 64.
    let sampled = [
        12, 13, 31, 64, 100, 255, 256, 257, 1000, 1023, 1024, 2047, 2048,
    ];
    for n in (0..12).chain(sampled) {
        let path = model_of((1..n).map(|i| (i - 1, i)));
        assert_layout(&generators::path(n), n, &path);
        let mut cycle = path.clone();
        if n >= 3 {
            cycle.insert((0, n - 1));
        }
        assert_layout(&generators::cycle(n), n, &cycle);
        // `path` and `cycle` write their CSR arrays directly; the layout
        // must equal the general edge-list build's.
        for (built, edges) in [(generators::path(n), &path), (generators::cycle(n), &cycle)] {
            assert_eq!(built, Graph::from_edges(n, edges.iter().copied()).unwrap());
        }
        if n <= 64 {
            assert_layout(
                &generators::complete(n),
                n,
                &model_of((0..n).flat_map(|u| (u + 1..n).map(move |v| (u, v)))),
            );
        }
        assert_layout(
            &generators::star(n),
            n + 1,
            &model_of((1..=n).map(|v| (0, v))),
        );
    }
    for (w, h) in [(0, 0), (1, 1), (1, 5), (5, 1), (4, 3), (8, 8)] {
        let mut grid = Model::new();
        let mut torus = Model::new();
        for y in 0..h {
            for x in 0..w {
                let here = y * w + x;
                if x + 1 < w {
                    grid.insert((here, here + 1));
                }
                if y + 1 < h {
                    grid.insert((here, here + w));
                }
                torus.insert(normalised(here, y * w + (x + 1) % w));
                torus.insert(normalised(here, ((y + 1) % h) * w + x));
            }
        }
        assert_layout(&generators::grid(w, h), w * h, &grid);
        if w >= 3 && h >= 3 {
            assert_layout(&generators::torus(w, h).unwrap(), w * h, &torus);
        }
    }
    for depth in 0..6u32 {
        let n = generators::binary_tree_node_count(depth);
        let coords = generators::layered_tree_coordinates(depth);
        let tree = model_of(coords.iter().filter(|c| c.1 > 0).map(|&(x, y)| {
            (
                generators::binary_tree_index(x / 2, y - 1).index(),
                generators::binary_tree_index(x, y).index(),
            )
        }));
        assert_layout(&generators::complete_binary_tree(depth), n, &tree);
        let mut layered = tree.clone();
        layered.extend(coords.iter().filter(|c| c.0 > 0).map(|&(x, y)| {
            (
                generators::binary_tree_index(x - 1, y).index(),
                generators::binary_tree_index(x, y).index(),
            )
        }));
        assert_layout(&generators::layered_tree(depth), n, &layered);
    }
    for h in 0..4u32 {
        let (g, coords) = generators::quadtree_pyramid(h);
        let index = |c: (usize, usize, u32)| coords.iter().position(|&d| d == c).unwrap();
        let mut pyramid = Model::new();
        for (i, &(x, y, z)) in coords.iter().enumerate() {
            let side = 1usize << (h - z);
            if x + 1 < side {
                pyramid.insert(normalised(i, index((x + 1, y, z))));
            }
            if y + 1 < side {
                pyramid.insert(normalised(i, index((x, y + 1, z))));
            }
            if z < h {
                pyramid.insert(normalised(i, index((x / 2, y / 2, z + 1))));
            }
        }
        assert_layout(&g, coords.len(), &pyramid);
    }
    for (n, offsets) in [(5, &[1][..]), (8, &[1, 4]), (12, &[1, 5]), (9, &[2, 7])] {
        let circulant =
            model_of((0..n).flat_map(|i| offsets.iter().map(move |&o| normalised(i, (i + o) % n))));
        assert_layout(&generators::circulant(n, offsets).unwrap(), n, &circulant);
    }
}

#[test]
fn seeded_random_generators_draw_the_pinned_edges() {
    let mut rng = StdRng::seed_from_u64(0x6c61_796f_7574);
    let connected: Vec<Graph> = (0..24)
        .map(|i| generators::random_connected(2 + i, i % 9, &mut rng))
        .collect();
    let regular: Vec<Graph> = [(8, 3), (20, 4), (21, 4), (6, 5), (16, 2), (30, 3)]
        .into_iter()
        .map(|(n, d)| generators::random_regular(n, d, &mut rng).unwrap())
        .collect();
    let attachment: Vec<Graph> = [(4, 1), (12, 2), (40, 3), (60, 2)]
        .into_iter()
        .map(|(n, m)| generators::preferential_attachment(n, m, &mut rng).unwrap())
        .collect();
    let circulant: Vec<Graph> = [
        (9, vec![1]),
        (8, vec![1, 4]),
        (12, vec![1, 5, 7]),
        (40, vec![1, 3, 37]),
    ]
    .into_iter()
    .map(|(n, offsets)| generators::circulant(n, &offsets).unwrap())
    .collect();
    for family in [&connected, &regular, &attachment, &circulant] {
        for g in family {
            assert_layout(g, g.node_count(), &model(g));
        }
    }
    assert_eq!(edge_digest(&connected), 0x8c05_d14c_7041_b563);
    assert_eq!(edge_digest(&regular), 0xe529_c8b3_ca17_1924);
    assert_eq!(edge_digest(&attachment), 0x13a0_be24_d4e2_68c6);
    assert_eq!(edge_digest(&circulant), 0x6ccd_7b8a_bd90_1dd0);
}

#[test]
fn from_edges_reports_the_first_offending_edge() {
    let cases: [(usize, Vec<(usize, usize)>); 7] = [
        (3, vec![(0, 1), (1, 3)]),
        (3, vec![(0, 1), (4, 3)]),
        (3, vec![(0, 1), (2, 2), (1, 5)]),
        (3, vec![(0, 1), (1, 0), (2, 2)]),
        (4, vec![(0, 1), (2, 3), (3, 2), (0, 1)]),
        (4, vec![(2, 3), (0, 1), (0, 1), (1, 9)]),
        (4, vec![(2, 3), (0, 7), (0, 1), (1, 0)]),
    ];
    for (n, edges) in cases {
        let expected = model_error(n, &edges).expect("every case has an offending edge");
        assert_eq!(
            Graph::from_edges(n, edges.clone()),
            Err(expected),
            "{edges:?}"
        );
    }
    assert_eq!(
        Graph::from_edges(2, [(0, 1), (1, 0)]),
        Err(GraphError::DuplicateEdge { u: 1, v: 0 })
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `from_edges` over any edge order and orientation rebuilds the same
    /// graph, and the family graph itself agrees with its own model.
    #[test]
    fn from_edges_is_order_and_orientation_blind(case in adversarial_ball(), seed in any::<u64>()) {
        let g = &case.graph;
        let n = g.node_count();
        let m = model(g);
        assert_layout(g, n, &m);
        let mut rng = StdRng::seed_from_u64(seed);
        let rebuilt = Graph::from_edges(n, shuffled_edges(g, &mut rng)).unwrap();
        assert_layout(&rebuilt, n, &m);
        prop_assert_eq!(&rebuilt, g);
    }

    /// Planting one bad edge (out of range, loop, or a repeat in either
    /// orientation) anywhere in a valid list fails with exactly the error
    /// of the first offending edge in input order.
    #[test]
    fn from_edges_errors_match_the_model(case in adversarial_ball(), seed in any::<u64>()) {
        let g = &case.graph;
        let n = g.node_count();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut edges = shuffled_edges(g, &mut rng);
        for _ in 0..rng.gen_range(1..=2usize) {
            let bad = match rng.gen_range(0..4) {
                0 => (rng.gen_range(0..n + 2), n + rng.gen_range(0..3)),
                1 => (n + rng.gen_range(0..3), rng.gen_range(0..n)),
                2 => {
                    let v = rng.gen_range(0..n);
                    (v, v)
                }
                _ => match edges.get(rng.gen_range(0..edges.len().max(1))) {
                    Some(&(u, v)) if rng.gen_bool(0.5) => (v, u),
                    Some(&e) => e,
                    None => (0, 0),
                },
            };
            let at = rng.gen_range(0..=edges.len());
            edges.insert(at, bad);
        }
        let expected = model_error(n, &edges).expect("a bad edge was planted");
        prop_assert_eq!(Graph::from_edges(n, edges), Err(expected));
    }

    /// `append` and `disjoint_union` shift the second graph's model by the
    /// first graph's node count.
    #[test]
    fn append_and_union_shift_the_model(a in adversarial_ball(), b in adversarial_ball()) {
        let (x, y) = (&a.graph, &b.graph);
        let offset = x.node_count();
        let mut union = model(x);
        union.extend(model(y).into_iter().map(|(u, v)| (u + offset, v + offset)));
        let n = offset + y.node_count();
        let (joined, at) = x.disjoint_union(y);
        prop_assert_eq!(at, offset);
        assert_layout(&joined, n, &union);
        let mut appended = x.clone();
        prop_assert_eq!(appended.append(y), offset);
        assert_layout(&appended, n, &union);
        prop_assert_eq!(&appended, &joined);
    }

    /// `induced_subgraph` keeps exactly the model edges between selected
    /// nodes, renumbered by first occurrence; `relabel` maps the model
    /// through the permutation.
    #[test]
    fn induced_subgraph_and_relabel_map_the_model(case in adversarial_ball(), seed in any::<u64>()) {
        let g = &case.graph;
        let n = g.node_count();
        let m = model(g);
        let mut rng = StdRng::seed_from_u64(seed);
        let picks: Vec<NodeId> = (0..rng.gen_range(0..=n + 3))
            .map(|_| NodeId::from(rng.gen_range(0..n)))
            .collect();
        let (sub, mapping) = g.induced_subgraph(&picks).unwrap();
        let mut position = vec![usize::MAX; n];
        for (new, orig) in mapping.iter().enumerate() {
            prop_assert_eq!(position[orig.index()], usize::MAX);
            position[orig.index()] = new;
        }
        prop_assert!(picks.iter().all(|v| position[v.index()] != usize::MAX));
        let sub_model = model_of(
            m.iter()
                .filter(|&&(u, v)| position[u] != usize::MAX && position[v] != usize::MAX)
                .map(|&(u, v)| (position[u], position[v])),
        );
        assert_layout(&sub, mapping.len(), &sub_model);

        let mut perm: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            perm.swap(i, rng.gen_range(0..=i));
        }
        let relabeled = g.relabel(&perm).unwrap();
        assert_layout(&relabeled, n, &model_of(m.iter().map(|&(u, v)| (perm[u], perm[v]))));
    }

    /// A materialised ball is the induced subgraph on its members, in BFS
    /// order, whether it comes from `extract` or `materialize_current`.
    #[test]
    fn materialized_balls_are_induced_on_their_members(case in adversarial_ball(), radius in 0usize..4) {
        let g = &case.graph;
        let m = model(g);
        let mut extractor = BallExtractor::new();
        for center in g.nodes() {
            let ball = extractor.extract(g, center, radius).unwrap();
            let current = extractor.materialize_current(g);
            prop_assert_eq!(&current, &ball);
            let mut position = vec![usize::MAX; g.node_count()];
            for (new, orig) in ball.mapping().iter().enumerate() {
                position[orig.index()] = new;
            }
            let ball_model = model_of(
                m.iter()
                    .filter(|&&(u, v)| position[u] != usize::MAX && position[v] != usize::MAX)
                    .map(|&(u, v)| (position[u], position[v])),
            );
            assert_layout(ball.graph(), ball.mapping().len(), &ball_model);
        }
    }
}
