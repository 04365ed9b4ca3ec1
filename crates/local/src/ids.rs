//! Identifier assignments `Id : V(G) → N` and the bound function `f` of
//! assumption (B).

use crate::error::LocalError;
use crate::hashing::FxHashSet;
use crate::Result;
use rand::seq::SliceRandom;
use rand::Rng;
use std::fmt;
use std::sync::Arc;

/// A one-to-one assignment of numerical identifiers to the nodes `0..n` of a
/// graph.
///
/// The whole point of the paper is that the *choice* of this assignment can
/// carry information (namely about `n`), so the crate provides several
/// explicit generators: consecutive, shuffled, bounded (assumption (B)),
/// unbounded, and adversarial assignments placing a chosen value at a chosen
/// node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IdAssignment {
    ids: Vec<u64>,
}

impl IdAssignment {
    /// Wraps an explicit identifier vector.
    ///
    /// # Errors
    ///
    /// Returns an error if two nodes receive the same identifier.
    pub fn new(ids: Vec<u64>) -> Result<Self> {
        let mut seen = FxHashSet::with_capacity_and_hasher(ids.len(), Default::default());
        for &id in &ids {
            if !seen.insert(id) {
                return Err(LocalError::DuplicateIdentifier { id });
            }
        }
        Ok(IdAssignment { ids })
    }

    /// The consecutive assignment `Id(v) = v` on `n` nodes.
    pub fn consecutive(n: usize) -> Self {
        IdAssignment {
            ids: (0..n as u64).collect(),
        }
    }

    /// The consecutive assignment starting at `start`.
    pub fn consecutive_from(n: usize, start: u64) -> Self {
        IdAssignment {
            ids: (start..start + n as u64).collect(),
        }
    }

    /// A uniformly random permutation of `0..n` (bounded by `n`, the smallest
    /// possible bound).
    pub fn shuffled<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Self {
        let mut ids: Vec<u64> = (0..n as u64).collect();
        ids.shuffle(rng);
        IdAssignment { ids }
    }

    /// `n` distinct identifiers drawn uniformly from `0..bound` (assumption
    /// (B): every identifier is strictly below `bound = f(n)`).
    ///
    /// # Errors
    ///
    /// Returns [`LocalError::BoundTooSmall`] if `bound < n`.
    pub fn random_bounded<R: Rng + ?Sized>(n: usize, bound: u64, rng: &mut R) -> Result<Self> {
        if bound < n as u64 {
            return Err(LocalError::BoundTooSmall { bound, needed: n });
        }
        // Floyd's algorithm for a uniform distinct sample.
        let mut chosen = FxHashSet::with_capacity_and_hasher(n, Default::default());
        for j in (bound - n as u64)..bound {
            let candidate = rng.gen_range(0..=j);
            if !chosen.insert(candidate) {
                chosen.insert(j);
            }
        }
        let mut ids: Vec<u64> = chosen.into_iter().collect();
        ids.shuffle(rng);
        Ok(IdAssignment { ids })
    }

    /// `n` distinct identifiers drawn from a huge range (a stand-in for
    /// assumption (¬B): identifiers unbounded as a function of `n`).
    pub fn random_unbounded<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Self {
        let mut seen = FxHashSet::with_capacity_and_hasher(n, Default::default());
        let mut ids = Vec::with_capacity(n);
        while ids.len() < n {
            let candidate = rng.gen::<u64>() >> 1;
            if seen.insert(candidate) {
                ids.push(candidate);
            }
        }
        IdAssignment { ids }
    }

    /// A consecutive assignment with one adversarially placed identifier:
    /// node `node` receives `value`, everyone else receives small distinct
    /// identifiers.
    ///
    /// # Errors
    ///
    /// Returns an error if `value < n - 1` would collide with the small
    /// identifiers.
    pub fn with_distinguished(n: usize, node: usize, value: u64) -> Result<Self> {
        if (value as u128) < (n as u128).saturating_sub(1) {
            return Err(LocalError::InvalidParameter {
                reason: format!("distinguished value {value} collides with the consecutive block"),
            });
        }
        let mut ids = Vec::with_capacity(n);
        let mut next = 0u64;
        for v in 0..n {
            if v == node {
                ids.push(value);
            } else {
                ids.push(next);
                next += 1;
            }
        }
        IdAssignment::new(ids)
    }

    /// Number of nodes covered.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Returns `true` if the assignment covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The identifier of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= len()`.
    pub fn id(&self, v: ld_graph::NodeId) -> u64 {
        self.ids[v.index()]
    }

    /// All identifiers in node order.
    pub fn ids(&self) -> &[u64] {
        &self.ids
    }

    /// The largest identifier in use (`None` for an empty assignment).
    pub fn max_id(&self) -> Option<u64> {
        self.ids.iter().copied().max()
    }

    /// Checks assumption (B): every identifier is strictly below `bound`.
    ///
    /// # Errors
    ///
    /// Returns [`LocalError::IdentifierAboveBound`] for the first violation.
    pub fn check_bound(&self, bound: u64) -> Result<()> {
        for &id in &self.ids {
            if id >= bound {
                return Err(LocalError::IdentifierAboveBound { id, bound });
            }
        }
        Ok(())
    }

    /// Applies a permutation of the *nodes* (`perm[old] = new`) so that the
    /// assignment follows a relabelled graph.
    pub fn permuted_nodes(&self, perm: &[usize]) -> Result<Self> {
        if perm.len() != self.ids.len() {
            return Err(LocalError::InvalidParameter {
                reason: "permutation length does not match assignment length".to_string(),
            });
        }
        let mut ids = vec![0u64; self.ids.len()];
        for (old, &new) in perm.iter().enumerate() {
            if new >= ids.len() {
                return Err(LocalError::InvalidParameter {
                    reason: "permutation entry out of range".to_string(),
                });
            }
            ids[new] = self.ids[old];
        }
        IdAssignment::new(ids)
    }
}

/// The bound function `f` of assumption (B): identifiers in a graph on `n`
/// nodes are strictly below `f(n)`.
///
/// The paper's Section 2 construction only needs `f` to be monotone — it can
/// even be uncomputable under (¬C).  Experiments inject concrete choices: a
/// linear `f`, an exponential `f`, or a lookup-table "oracle" standing in for
/// an uncomputable bound (see `DESIGN.md` §2).
#[derive(Clone)]
pub struct IdBound {
    name: String,
    f: Arc<dyn Fn(u64) -> u64 + Send + Sync>,
}

impl IdBound {
    /// Wraps an arbitrary monotone function.  Monotonicity is the caller's
    /// responsibility; [`IdBound::inverse`] assumes it.
    pub fn new(name: impl Into<String>, f: impl Fn(u64) -> u64 + Send + Sync + 'static) -> Self {
        IdBound {
            name: name.into(),
            f: Arc::new(f),
        }
    }

    /// The identity-plus-`c` bound `f(n) = n + c` (the tightest useful bound).
    pub fn identity_plus(c: u64) -> Self {
        IdBound::new(format!("n+{c}"), move |n| n.saturating_add(c))
    }

    /// The linear bound `f(n) = a * n + b`.
    pub fn linear(a: u64, b: u64) -> Self {
        IdBound::new(format!("{a}n+{b}"), move |n| {
            n.saturating_mul(a).saturating_add(b)
        })
    }

    /// The polynomial bound `f(n) = n^k` (saturating).
    pub fn power(k: u32) -> Self {
        IdBound::new(format!("n^{k}"), move |n| n.saturating_pow(k))
    }

    /// The exponential bound `f(n) = 2^n` (saturating at `u64::MAX`).
    pub fn exponential() -> Self {
        IdBound::new("2^n", |n| {
            1u64.checked_shl(n.min(63) as u32).unwrap_or(u64::MAX)
        })
    }

    /// A lookup-table bound: `f(n) = table[min(n, len-1)]`, playing the role
    /// of an arbitrary (possibly uncomputable) oracle in experiments.
    ///
    /// The table must be non-decreasing; this is checked eagerly.
    pub fn from_table(name: impl Into<String>, table: Vec<u64>) -> Result<Self> {
        if table.is_empty() {
            return Err(LocalError::InvalidParameter {
                reason: "empty bound table".to_string(),
            });
        }
        if table.windows(2).any(|w| w[0] > w[1]) {
            return Err(LocalError::InvalidParameter {
                reason: "bound table must be non-decreasing".to_string(),
            });
        }
        Ok(IdBound::new(name, move |n| {
            let idx = (n as usize).min(table.len() - 1);
            table[idx]
        }))
    }

    /// The name of the bound (for reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Evaluates `f(n)`.
    pub fn apply(&self, n: u64) -> u64 {
        (self.f)(n)
    }

    /// The paper's `f⁻¹(i)`: the smallest `j` such that `f(j) >= i` — the
    /// size a network must have before identifier `i` may legally appear.
    ///
    /// Computed by binary search over `j`, assuming monotone `f`.
    pub fn inverse(&self, i: u64) -> u64 {
        if self.apply(0) >= i {
            return 0;
        }
        let mut lo = 0u64;
        let mut hi = 1u64;
        while self.apply(hi) < i {
            lo = hi;
            match hi.checked_mul(2) {
                Some(next) => hi = next,
                None => {
                    hi = u64::MAX;
                    break;
                }
            }
        }
        while lo + 1 < hi {
            let mid = lo + (hi - lo) / 2;
            if self.apply(mid) >= i {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        hi
    }
}

impl fmt::Debug for IdBound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("IdBound").field("name", &self.name).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ld_graph::NodeId;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn new_rejects_duplicates() {
        assert!(matches!(
            IdAssignment::new(vec![1, 2, 1]),
            Err(LocalError::DuplicateIdentifier { id: 1 })
        ));
        assert!(IdAssignment::new(vec![5, 2, 9]).is_ok());
    }

    #[test]
    fn consecutive_assignments() {
        let a = IdAssignment::consecutive(4);
        assert_eq!(a.ids(), &[0, 1, 2, 3]);
        assert_eq!(a.max_id(), Some(3));
        let b = IdAssignment::consecutive_from(3, 10);
        assert_eq!(b.ids(), &[10, 11, 12]);
        assert_eq!(b.id(NodeId(2)), 12);
    }

    #[test]
    fn shuffled_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = IdAssignment::shuffled(20, &mut rng);
        let mut ids = a.ids().to_vec();
        ids.sort_unstable();
        assert_eq!(ids, (0..20).collect::<Vec<u64>>());
    }

    #[test]
    fn random_bounded_respects_bound_and_distinctness() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..20 {
            let a = IdAssignment::random_bounded(10, 15, &mut rng).unwrap();
            assert_eq!(a.len(), 10);
            assert!(a.check_bound(15).is_ok());
            let mut ids = a.ids().to_vec();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), 10);
        }
        assert!(matches!(
            IdAssignment::random_bounded(10, 5, &mut rng),
            Err(LocalError::BoundTooSmall { .. })
        ));
    }

    #[test]
    fn random_unbounded_is_distinct() {
        let mut rng = StdRng::seed_from_u64(5);
        let a = IdAssignment::random_unbounded(50, &mut rng);
        let mut ids = a.ids().to_vec();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 50);
    }

    #[test]
    fn distinguished_assignment_places_value() {
        let a = IdAssignment::with_distinguished(5, 2, 1_000).unwrap();
        assert_eq!(a.id(NodeId(2)), 1_000);
        assert_eq!(a.max_id(), Some(1_000));
        assert!(IdAssignment::with_distinguished(5, 0, 2).is_err());
    }

    #[test]
    fn check_bound_reports_violations() {
        let a = IdAssignment::new(vec![0, 1, 99]).unwrap();
        assert!(matches!(
            a.check_bound(50),
            Err(LocalError::IdentifierAboveBound { id: 99, bound: 50 })
        ));
        assert!(a.check_bound(100).is_ok());
    }

    #[test]
    fn permuted_nodes_moves_ids_with_nodes() {
        let a = IdAssignment::new(vec![10, 20, 30]).unwrap();
        let p = a.permuted_nodes(&[2, 0, 1]).unwrap();
        assert_eq!(p.ids(), &[20, 30, 10]);
        assert!(a.permuted_nodes(&[0, 1]).is_err());
        assert!(a.permuted_nodes(&[0, 1, 7]).is_err());
    }

    #[test]
    fn bound_functions_and_inverse() {
        let f = IdBound::linear(3, 1);
        assert_eq!(f.apply(4), 13);
        assert_eq!(f.inverse(13), 4);
        assert_eq!(f.inverse(14), 5);
        assert_eq!(f.inverse(0), 0);

        let g = IdBound::exponential();
        assert_eq!(g.apply(10), 1024);
        assert_eq!(g.inverse(1024), 10);
        assert_eq!(g.inverse(1025), 11);

        let h = IdBound::identity_plus(2);
        assert_eq!(h.apply(7), 9);
        assert_eq!(h.inverse(9), 7);

        let p = IdBound::power(2);
        assert_eq!(p.apply(9), 81);
        assert_eq!(p.inverse(80), 9);
    }

    #[test]
    fn table_bound_checks_monotonicity() {
        assert!(IdBound::from_table("t", vec![]).is_err());
        assert!(IdBound::from_table("t", vec![3, 2]).is_err());
        let t = IdBound::from_table("oracle", vec![1, 4, 9, 100]).unwrap();
        assert_eq!(t.apply(2), 9);
        assert_eq!(t.apply(50), 100);
        assert_eq!(t.inverse(9), 2);
    }

    #[test]
    fn bound_debug_contains_name() {
        let f = IdBound::power(3);
        assert!(format!("{f:?}").contains("n^3"));
        assert_eq!(f.name(), "n^3");
    }
}
