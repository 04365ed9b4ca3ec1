//! Closed-form work counts for the benchmarked XL sweep.
//!
//! Budget accounting charges every fingerprinted ball its node count, so a
//! cell's `nodes_visited` is a pure function of the family, the instance
//! size and the radius.  These tests pin that function against every
//! matching cell of `section2-sweep-xl`: any change to ball extraction or
//! view enumeration that visits a different number of nodes — or charges
//! them differently — fails here, independently of timing.

use ld_runner::{executor, scenarios, CellResult, SweepConfig};

/// The deterministic cells of `section2-sweep-xl` at `--max-n 512`.
fn xl_cells() -> Vec<CellResult> {
    let scenario = scenarios::find("section2-sweep-xl").unwrap();
    let config = SweepConfig {
        max_n: 512,
        threads: 2,
        ..SweepConfig::default()
    };
    executor::execute(scenario.as_ref(), &config).unwrap().cells
}

fn param(cell: &CellResult, key: &str) -> u64 {
    cell.spec
        .param(key)
        .unwrap_or_else(|| panic!("{}: no `{key}` param", cell.spec.id))
        .parse()
        .unwrap()
}

fn nodes_visited(cell: &CellResult) -> u64 {
    let outcome = cell.outcome.as_ref().unwrap();
    let usage = outcome
        .budget
        .unwrap_or_else(|| panic!("{}: no budget usage", cell.spec.id));
    assert!(!usage.exhausted, "{}", cell.spec.id);
    usage.nodes_visited
}

/// A promise-views cell fingerprints B(v, 3) at every centre of the
/// r-cycle (min(r, 7) nodes each) and of the 3r-node f(r)-cycle (7 nodes
/// each, since 3r ≥ 9): `nodes_visited = r·min(r, 7) + 21r`.
fn promise_nodes(r: u64) -> u64 {
    r * r.min(7) + 21 * r
}

/// A path cell fingerprints B(i, t) at every node i of the n-path, which
/// reaches min(i, t) nodes to the left and min(n−1−i, t) to the right.
fn path_nodes(n: u64, t: u64) -> u64 {
    (0..n).map(|i| 1 + i.min(t) + (n - 1 - i).min(t)).sum()
}

/// |B(v, t)| for the node v = (x, y) of the side×side grid: the lattice
/// points of the square within L1 distance t, counted column by column —
/// column x + dx keeps the rows within t − |dx| of y.
fn grid_ball(side: i64, x: i64, y: i64, t: i64) -> u64 {
    (-t..=t)
        .filter(|dx| (0..side).contains(&(x + dx)))
        .map(|dx| {
            let reach = t - dx.abs();
            ((y + reach).min(side - 1) - (y - reach).max(0) + 1) as u64
        })
        .sum()
}

/// A grid-profile cell charges every ball B(v, t), t = 0..=3, twice: once
/// in the incremental profile and once in the per-radius re-check it is
/// compared against.
fn grid_profile_nodes(side: u64) -> u64 {
    let side = side as i64;
    let balls: u64 = (0..=3)
        .flat_map(|t| (0..side * side).map(move |v| grid_ball(side, v % side, v / side, t)))
        .sum();
    2 * balls
}

#[test]
fn closed_forms_agree_with_the_reference_values() {
    // Anchors read off the report: the r = 3 promise cell, the n = 8 path
    // cell and the side-3 grid-profile cell, and the r = 682 promise and
    // side-45 grid-profile cells of the --max-n 2048 sweep.
    assert_eq!(promise_nodes(3), 72);
    assert_eq!(promise_nodes(682), 19_096);
    assert_eq!(path_nodes(8, 3), 44);
    assert_eq!(path_nodes(40, 3), 268);
    assert_eq!(grid_profile_nodes(3), 360);
    assert_eq!(grid_profile_nodes(45), 171_048);
}

#[test]
fn xl_sweep_work_counts_match_the_closed_forms() {
    let cells = xl_cells();
    let (mut promise, mut paths, mut grids) = (0, 0, 0);
    for cell in &cells {
        let id = &cell.spec.id;
        if id.starts_with("promise/") && cell.spec.param("instance") == Some("views") {
            assert_eq!(param(cell, "radius"), 3, "{id}");
            let r = param(cell, "r");
            assert_eq!(nodes_visited(cell), promise_nodes(r), "{id}");
            promise += 1;
        } else if id.starts_with("path/") {
            let (n, t) = (param(cell, "n"), param(cell, "radius"));
            assert_eq!(nodes_visited(cell), path_nodes(n, t), "{id}");
            paths += 1;
        } else if id.starts_with("grid-profile/") {
            assert_eq!(param(cell, "radius"), 3, "{id}");
            let side = param(cell, "side");
            assert_eq!(nodes_visited(cell), grid_profile_nodes(side), "{id}");
            grids += 1;
        }
    }
    assert_eq!(promise, 168, "promise-views cells at --max-n 512");
    assert_eq!(paths, 16, "path cells at --max-n 512");
    assert_eq!(grids, 10, "grid-profile cells at --max-n 512");
}
