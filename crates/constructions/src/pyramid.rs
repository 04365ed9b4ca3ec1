//! Appendix A: layered quadtree pyramids (Figure 3).
//!
//! A square grid is not locally checkable on its own — a torus looks the
//! same from every radius-`r` view.  The paper therefore attaches a
//! *pyramid-shaped layered quadtree* on top of every grid: the extra levels
//! give each grid a unique apex and make the overall structure verifiable
//! from constant-radius views.  This module builds labelled pyramids,
//! verifies their structure, and measures the distance contraction they
//! introduce (the reason the fragments of the pyramidal construction must be
//! `2^{3r}` wide).

use crate::error::ConstructionError;
use crate::Result;
use ld_graph::{generators, LabeledGraph, NodeId};

/// The label of a pyramid node: its coordinates within its level and its
/// level (0 = the base grid, `h` = the apex).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PyramidLabel {
    /// Column within the level.
    pub x: u32,
    /// Row within the level.
    pub y: u32,
    /// Level (`0` = base grid, `h` = apex).
    pub z: u32,
}

/// A labelled quadtree pyramid over a `2^h x 2^h` base grid.
#[derive(Debug, Clone)]
pub struct Pyramid {
    labeled: LabeledGraph<PyramidLabel>,
    height: u32,
}

impl Pyramid {
    /// Builds the pyramid of height `h` (base side `2^h`).
    ///
    /// # Errors
    ///
    /// Returns an error if `h > 12` (the base alone would exceed 16 million
    /// nodes).
    pub fn new(h: u32) -> Result<Self> {
        if h > 12 {
            return Err(ConstructionError::InstanceTooLarge {
                reason: format!("pyramid height {h} implies a 2^{h} x 2^{h} base grid"),
            });
        }
        let (graph, coords) = generators::quadtree_pyramid(h);
        let labeled = LabeledGraph::from_fn(graph, |v| {
            let (x, y, z) = coords[v.index()];
            PyramidLabel {
                x: x as u32,
                y: y as u32,
                z,
            }
        });
        Ok(Pyramid { labeled, height: h })
    }

    /// The labelled pyramid graph.
    pub fn labeled(&self) -> &LabeledGraph<PyramidLabel> {
        &self.labeled
    }

    /// The pyramid height `h`.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// The unique apex node (level `h`).
    pub fn apex(&self) -> NodeId {
        self.labeled
            .iter()
            .find_map(|(v, l)| (l.z == self.height).then_some(v))
            .expect("every pyramid has an apex")
    }

    /// The node at base-grid coordinates `(x, y)`.
    pub fn base_node(&self, x: u32, y: u32) -> Option<NodeId> {
        self.labeled
            .iter()
            .find_map(|(v, l)| (l.z == 0 && l.x == x && l.y == y).then_some(v))
    }

    /// Verifies the structural invariants the local checker of Appendix A
    /// relies on: level sizes halve, every non-apex node has exactly one
    /// parent one level up at the quadrant coordinates, and level `z` is a
    /// `2^(h-z)` grid.
    pub fn verify_structure(&self) -> bool {
        let h = self.height;
        // Level sizes.
        for z in 0..=h {
            let expected = 1usize << (2 * (h - z));
            let count = self.labeled.iter().filter(|(_, l)| l.z == z).count();
            if count != expected {
                return false;
            }
        }
        // Parent edges.
        for (v, l) in self.labeled.iter() {
            if l.z < h {
                let parent_ok = self.labeled.graph().neighbors(v).any(|u| {
                    let p = self.labeled.label(u);
                    p.z == l.z + 1 && p.x == l.x / 2 && p.y == l.y / 2
                });
                if !parent_ok {
                    return false;
                }
            }
            // In-level grid edges: neighbours at the same level differ by 1
            // in exactly one coordinate.
            for u in self.labeled.graph().neighbors(v) {
                let o = self.labeled.label(u);
                if o.z == l.z {
                    let dx = l.x.abs_diff(o.x);
                    let dy = l.y.abs_diff(o.y);
                    if dx + dy != 1 {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Distance between two opposite corners of the base grid, *through* the
    /// pyramid.  The pyramid contracts the `2 (2^h - 1)` grid distance to
    /// `O(h)`, which is why the pyramidal fragments must have height `3r`
    /// to fool an `r`-local algorithm (Appendix A).
    pub fn corner_distance(&self) -> usize {
        let side = 1u32 << self.height;
        let a = self.base_node(0, 0).expect("corner exists");
        let b = self.base_node(side - 1, side - 1).expect("corner exists");
        self.labeled
            .graph()
            .distance(a, b)
            .expect("nodes are valid")
            .expect("pyramid is connected")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_pyramids_verify_structure() {
        for h in 0..=4 {
            let p = Pyramid::new(h).unwrap();
            assert!(p.verify_structure(), "height {h}");
            assert_eq!(p.height(), h);
            assert_eq!(
                p.labeled().node_count(),
                (0..=h).map(|z| 1usize << (2 * (h - z))).sum::<usize>()
            );
        }
        assert!(Pyramid::new(13).is_err());
    }

    #[test]
    fn apex_is_unique_and_reachable() {
        let p = Pyramid::new(3).unwrap();
        let apex = p.apex();
        assert_eq!(p.labeled().label(apex).z, 3);
        assert!(p.labeled().graph().is_connected());
    }

    #[test]
    fn corner_distance_is_logarithmic_not_linear() {
        let p = Pyramid::new(4).unwrap();
        let through_pyramid = p.corner_distance();
        let grid_distance = 2 * ((1usize << 4) - 1);
        assert!(through_pyramid <= 2 * 4 + 2, "got {through_pyramid}");
        assert!(through_pyramid < grid_distance);
    }

    #[test]
    fn corrupting_a_label_breaks_verification() {
        let p = Pyramid::new(2).unwrap();
        let mut labeled = p.labeled().clone();
        let apex = p.apex();
        labeled.label_mut(apex).z = 0;
        let corrupted = Pyramid { labeled, height: 2 };
        assert!(!corrupted.verify_structure());
    }

    #[test]
    fn base_node_lookup() {
        let p = Pyramid::new(2).unwrap();
        assert!(p.base_node(3, 3).is_some());
        assert!(p.base_node(4, 0).is_none());
    }
}
