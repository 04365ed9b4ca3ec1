//! A shared, lock-sharded cache of canonical view data.
//!
//! Every indistinguishability harness in this workspace spends its time
//! canonicalising balls: [`ObliviousView::canonical_code`] runs a
//! refinement (plus, for non-tree views, a branch-and-bound search) over the
//! view graph, and verdict evaluation re-derives the same answer for
//! structurally identical views over and over (all interior nodes of a long
//! cycle, all coordinate nodes of a layered tree, …).  A [`ViewCache`]
//! computes each of these once per structural class and serves every
//! subsequent occurrence from memory.
//!
//! A cache lives as long as the sweep plan that builds it (see
//! `ld_runner::Plan::share_cache`): nothing is shared across plans, so a
//! run's memory and hit counters depend on that run alone.
//!
//! # Soundness
//!
//! Entries are keyed by the **exact view value** in a hash map (`ObliviousView`
//! implements `Hash`/`Eq` over graph, centre, radius and labels), so a lookup
//! can only ever return data computed from an identical view — there is no
//! fingerprint-collision case to verify against, which is what let this
//! module shed the verified-equality bucket machinery it used to carry.
//! Cached runs are bit-identical to uncached runs for any deterministic
//! algorithm.
//!
//! # Concurrency
//!
//! Entries live in a fixed set of `RwLock`-protected shards selected by the
//! view's hash.  The hot path of a warmed-up sweep is read-only and takes
//! shard locks in *shared* mode, so concurrent workers hitting the same
//! handful of view classes — the common case in the self-similar families
//! this repo sweeps — no longer serialise on a mutex (the convoy that made
//! 2–4-thread sweeps slower than sequential ones).  Hit/miss counters are
//! plain atomics and may be read at any time via [`ViewCache::stats`].
//!
//! The cache is generic over [`interleave::SyncFacade`]: production code
//! uses the default [`StdSync`] parameter (plain `std::sync`, zero
//! overhead), while the model suite instantiates `interleave::ModelSync`
//! and exhaustively explores worker interleavings to check the publication
//! invariant — every structural class creates its entry **exactly once**,
//! and every concurrent lookup observes the same canonical code.

use crate::algorithm::Verdict;
use crate::hashing::{FxHashMap, FxHasher};
use crate::view::ObliviousView;
use interleave::{AtomicU64Api, RwLockApi, StdSync, SyncFacade};
use ld_graph::canon::CanonicalCode;
use ld_graph::CanonScratch;
use std::hash::{Hash, Hasher};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Default number of independent shards.  A power of two so the shard
/// index is a mask; 64 keeps write contention negligible for any realistic
/// thread count (reads are shared and contend only with writes).
const SHARDS: usize = 64;

/// A snapshot of cache effectiveness counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compute and insert.
    pub misses: u64,
    /// Number of stored entries (canonical codes plus memoized verdicts).
    pub entries: u64,
}

impl CacheStats {
    /// The fraction of lookups served from the cache (`0.0` when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// The counter-wise sum of two snapshots (for multi-cache sweeps).
    #[must_use]
    pub fn merged(&self, other: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            entries: self.entries + other.entries,
        }
    }
}

/// Everything memoized for one exact view value.
#[derive(Default)]
struct ClassEntry {
    /// The view's total canonical code, once computed.  Shared via `Arc` so
    /// cache hits hand out a reference-count bump, not a `Vec` clone.
    code: Option<Arc<CanonicalCode>>,
    /// Verdicts memoized per algorithm name.
    verdicts: Vec<(String, Verdict)>,
}

/// One lock-protected shard: exact views mapped to their memoized data.
type Shard<L> = FxHashMap<ObliviousView<L>, ClassEntry>;

/// A shared canonical-view cache, safe to use from many threads at once.
///
/// One cache serves one label type `L`; a sweep touching several label
/// families keeps one cache per family and merges their [`CacheStats`].
///
/// The second parameter selects the synchronisation family and defaults to
/// the production [`StdSync`]; only the model suite names it explicitly.
pub struct ViewCache<L: Send + Sync, S: SyncFacade = StdSync> {
    shards: Vec<S::RwLock<Shard<L>>>,
    hits: S::AtomicU64,
    misses: S::AtomicU64,
    entries: S::AtomicU64,
}

impl<L: Send + Sync> Default for ViewCache<L> {
    fn default() -> Self {
        Self::new()
    }
}

impl<L: Send + Sync> ViewCache<L> {
    /// Creates an empty cache with the production shard count.
    ///
    /// (Defined for the default `StdSync` family only, so plain
    /// `ViewCache::new()` call sites never face an ambiguous facade;
    /// model tests use [`ViewCache::with_shards`] and name their facade.)
    pub fn new() -> Self {
        Self::with_shards(SHARDS)
    }
}

impl<L: Send + Sync, S: SyncFacade> ViewCache<L, S> {
    /// Creates an empty cache over `shards` independent shards.
    ///
    /// `shards` must be a power of two no larger than 64 (the shard index
    /// is taken from hash bits 51..57 — see `ViewCache::shard_of`).
    /// Production uses [`ViewCache::new`]; the model suite shrinks to two
    /// shards so schedule exploration actually exercises shard sharing.
    pub fn with_shards(shards: usize) -> Self {
        assert!(
            shards.is_power_of_two() && shards <= 64,
            "shard count must be a power of two <= 64, got {shards}"
        );
        ViewCache {
            shards: (0..shards)
                .map(|_| S::RwLock::new(FxHashMap::default()))
                .collect(),
            hits: S::AtomicU64::new(0),
            misses: S::AtomicU64::new(0),
            entries: S::AtomicU64::new(0),
        }
    }

    /// A snapshot of the hit/miss/entry counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.entries.load(Ordering::Relaxed),
        }
    }
}

impl<L: Clone + Eq + Hash + Send + Sync, S: SyncFacade> ViewCache<L, S> {
    /// The shard a view lives in.  Any hash works; the view's own `Hash`
    /// impl is exact, so identical views always land in the same shard.
    fn shard_of(&self, view: &ObliviousView<L>) -> &S::RwLock<Shard<L>> {
        let mut hasher = FxHasher::default();
        view.hash(&mut hasher);
        // Multiplicative hashes concentrate entropy in the high bits, but
        // the very top 7 bits are hashbrown's control-byte tag (h2) for the
        // shard's inner map — deriving the shard from them would leave every
        // key in a shard sharing its tag, degrading probe filtering.  Take
        // bits 51..57 instead: still high-entropy, disjoint from h2.
        &self.shards[(hasher.finish() >> 51) as usize & (self.shards.len() - 1)]
    }

    /// Reads memoized data for `view` under the shard's *shared* lock.
    /// The facade lock recovers from poison (shard data is
    /// complete-or-absent, so a panic elsewhere must not cascade into
    /// unrelated lookups — that would break the executor's
    /// panic-isolation contract).  Never runs user code.
    fn read<T>(
        &self,
        view: &ObliviousView<L>,
        extract: impl FnOnce(&ClassEntry) -> Option<T>,
    ) -> Option<T> {
        let shard = self.shard_of(view).read();
        shard.get(view).and_then(extract)
    }

    /// Stores computed data with `write` into the entry for `view`,
    /// creating the entry on first sight.  Never runs user code under the
    /// lock.
    fn store(&self, view: &ObliviousView<L>, write: impl FnOnce(&mut ClassEntry)) {
        let mut shard = self.shard_of(view).write();
        let entry = shard.entry(view.clone()).or_insert_with(|| {
            self.entries.fetch_add(1, Ordering::Relaxed);
            ClassEntry::default()
        });
        write(entry);
    }

    /// [`ObliviousView::canonical_code`], computed once per exact view value
    /// and shared out of the cache afterwards (hits are allocation-free:
    /// the returned `Arc` hashes and compares as the code itself).
    ///
    /// Misses are computed on a caller-held bitset-kernel scratch
    /// ([`CanonScratch`]): the enumeration loops thread one scratch through
    /// every view of a cell, so a cold cell canonicalises with zero
    /// per-view scratch allocation.  The kernel's output is byte-identical
    /// to the oracle's.  The canonicalisation runs *outside* the shard
    /// lock, so concurrent workers never serialize on it; two workers
    /// racing on the same fresh class both compute the (identical) code and
    /// one insert wins.
    pub fn canonical_code_in(
        &self,
        view: &ObliviousView<L>,
        scratch: &mut CanonScratch,
    ) -> Arc<CanonicalCode> {
        if let Some(code) = self.read(view, |e| e.code.clone()) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return code;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let code = Arc::new(view.canonical_code_in(scratch));
        let stored = code.clone();
        self.store(view, move |entry| {
            entry.code.get_or_insert(stored);
        });
        code
    }

    /// The verdict of the named deterministic algorithm on `view`, computed
    /// once per exact view value and served from memory afterwards.
    ///
    /// `evaluate` must be a pure function of the view value (the defining
    /// property of an Id-oblivious algorithm), and `algorithm` must uniquely
    /// determine that function for this cache's lifetime: the memo is keyed
    /// on the *name*, so two differently parameterised algorithms sharing a
    /// name would silently serve each other's verdicts.  Scenarios that
    /// sweep an algorithm's parameters must fold the parameters into the
    /// name or use one cache per parameterisation.
    ///
    /// `evaluate` runs outside the shard lock: a panicking algorithm
    /// poisons nothing, and concurrent workers never serialize on slow
    /// evaluations.
    ///
    /// The memo pays only when `evaluate` costs more than hashing and
    /// comparing the whole view.  On the execution-table graphs `G(M, r)`
    /// it does not: every label carries the machine, and the fuel-bounded
    /// candidates' verdicts are a few machine steps.  Deciding the 11
    /// `section3-sweep` zoo machines with the three candidates took
    /// 110–180 ms through this memo and 13–35 ms without it on a 2-vCPU
    /// virtual machine, so the lookup costs about 5× the verdict it saves.
    pub fn verdict(
        &self,
        algorithm: &str,
        view: &ObliviousView<L>,
        evaluate: impl FnOnce(&ObliviousView<L>) -> Verdict,
    ) -> Verdict {
        let memoized = self.read(view, |e| {
            e.verdicts
                .iter()
                .find(|(name, _)| name == algorithm)
                .map(|(_, verdict)| *verdict)
        });
        if let Some(verdict) = memoized {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return verdict;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let verdict = evaluate(view);
        self.store(view, |entry| {
            if !entry.verdicts.iter().any(|(name, _)| name == algorithm) {
                entry.verdicts.push((algorithm.to_string(), verdict));
            }
        });
        verdict
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::Verdict;
    use ld_graph::{generators, LabeledGraph};

    fn cycle_views(n: usize, radius: usize) -> Vec<ObliviousView<u8>> {
        let labeled = LabeledGraph::uniform(generators::cycle(n), 0u8);
        crate::enumeration::collect_oblivious_views(&labeled, radius)
    }

    #[test]
    fn canonical_code_matches_uncached_and_hits_on_repeats() {
        let cache = ViewCache::new();
        let mut scratch = CanonScratch::new();
        let views = cycle_views(16, 2);
        for view in &views {
            assert_eq!(
                *cache.canonical_code_in(view, &mut scratch),
                view.canonical_code()
            );
        }
        let stats = cache.stats();
        // The 16 interior views of a cycle fall into at most two ball-local
        // layouts (the wrap-around edge flips the BFS neighbour order), so
        // nearly every lookup is a hit.
        assert_eq!(stats.hits + stats.misses, 16);
        assert!(stats.entries <= 2, "entries = {}", stats.entries);
        assert!(stats.hit_rate() > 0.8, "hit rate {}", stats.hit_rate());
    }

    #[test]
    fn verdict_memoization_evaluates_once_per_class() {
        let cache = ViewCache::new();
        let views = cycle_views(12, 1);
        let mut evaluations = 0usize;
        for view in &views {
            let verdict = cache.verdict("even-degree", view, |v| {
                evaluations += 1;
                Verdict::from_bool(v.as_view().neighbors_of_center().count() % 2 == 0)
            });
            assert_eq!(verdict, Verdict::Yes);
        }
        assert_eq!(evaluations, 1);
        // A different algorithm name is a fresh memo slot.
        let verdict = cache.verdict("always-no", &views[0], |_| Verdict::No);
        assert_eq!(verdict, Verdict::No);
        assert_eq!(
            cache.verdict("even-degree", &views[0], |_| Verdict::No),
            Verdict::Yes
        );
    }

    #[test]
    fn distinct_structures_do_not_collide() {
        let cache = ViewCache::new();
        let mut scratch = CanonScratch::new();
        let path = LabeledGraph::uniform(generators::path(9), 0u8);
        let views = crate::enumeration::collect_oblivious_views(&path, 2);
        for view in &views {
            assert_eq!(
                *cache.canonical_code_in(view, &mut scratch),
                view.canonical_code()
            );
        }
        // End, next-to-end and interior views are distinct isomorphism
        // classes; mirror-image layouts may double a class structurally, but
        // the cache must still collapse far below one entry per node.
        let entries = cache.stats().entries;
        assert!((3..=5).contains(&entries), "entries = {entries}");
    }

    #[test]
    fn batched_scratch_path_is_byte_identical_to_the_unbatched_path() {
        // The cache computes misses on a caller-held kernel scratch; every
        // code it serves, cold or warm, must be byte-identical to the
        // unbatched `ObliviousView::canonical_code`.
        let mut scratch = CanonScratch::new();
        let cache = ViewCache::new();
        let mut views = cycle_views(16, 2);
        views.extend(crate::enumeration::collect_oblivious_views(
            &LabeledGraph::uniform(generators::grid(5, 4), 0u8),
            2,
        ));
        for view in &views {
            let batched = cache.canonical_code_in(view, &mut scratch);
            assert_eq!(batched.as_slice(), view.canonical_code().as_slice());
        }
        // A second pass is served entirely from the entries the first
        // published, with the same bytes.
        let cold = cache.stats();
        for view in &views {
            assert_eq!(
                cache.canonical_code_in(view, &mut scratch).as_slice(),
                view.canonical_code().as_slice()
            );
        }
        let warm = cache.stats();
        assert_eq!(
            warm.misses, cold.misses,
            "published entries must serve hits"
        );
        assert_eq!(warm.entries, cold.entries);
        assert_eq!(warm.hits, cold.hits + views.len() as u64);
    }

    #[test]
    fn verdicts_after_batch_warming_match_the_unbatched_path() {
        let mut scratch = CanonScratch::new();
        let cache = ViewCache::new();
        let views = cycle_views(12, 1);
        for view in &views {
            cache.canonical_code_in(view, &mut scratch);
        }
        // Verdict memoization is unaffected by which path published the
        // code entry: same verdicts, evaluated once per class.
        let mut evaluations = 0usize;
        for view in &views {
            let verdict = cache.verdict("even-degree", view, |v| {
                evaluations += 1;
                Verdict::from_bool(v.as_view().neighbors_of_center().count() % 2 == 0)
            });
            assert_eq!(verdict, Verdict::Yes);
        }
        assert_eq!(evaluations, 1);
    }

    #[test]
    fn labels_refine_the_key() {
        let cache = ViewCache::new();
        let g = generators::cycle(8);
        let a = LabeledGraph::uniform(g.clone(), 0u8);
        let b = LabeledGraph::uniform(g, 1u8);
        let va = crate::enumeration::collect_oblivious_views(&a, 1);
        let vb = crate::enumeration::collect_oblivious_views(&b, 1);
        let mut scratch = CanonScratch::new();
        cache.canonical_code_in(&va[0], &mut scratch);
        cache.canonical_code_in(&vb[0], &mut scratch);
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn stats_merge_and_hit_rate() {
        let a = CacheStats {
            hits: 10,
            misses: 2,
            entries: 2,
        };
        let b = CacheStats {
            hits: 4,
            misses: 1,
            entries: 2,
        };
        let m = a.merged(&b);
        assert_eq!(m.hits, 14);
        assert_eq!(m.misses, 3);
        assert_eq!(m.entries, 4);
        assert_eq!(b.hit_rate(), 0.8);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn panicking_evaluation_does_not_poison_the_cache() {
        let cache = ViewCache::new();
        let views = cycle_views(8, 1);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.verdict("exploder", &views[0], |_| panic!("cell blew up"))
        }));
        assert!(panicked.is_err());
        // The cache must keep serving the same shard afterwards — a
        // panicking sweep cell must not cascade into unrelated cells.
        assert_eq!(
            cache.verdict("fine", &views[0], |_| Verdict::Yes),
            Verdict::Yes
        );
        assert_eq!(
            *cache.canonical_code_in(&views[0], &mut CanonScratch::new()),
            views[0].canonical_code()
        );
        // And the exploding algorithm memoized nothing.
        assert_eq!(
            cache.verdict("exploder", &views[0], |_| Verdict::No),
            Verdict::No
        );
    }

    /// Model suite: two workers race `canonical_code` on the same two
    /// fresh classes (in opposite orders) under every schedule the
    /// explorer reaches — the cache must publish each class's entry
    /// exactly once and serve every lookup the same canonical code, no
    /// matter how shard-lock acquisitions and counter updates interleave.
    #[test]
    fn model_concurrent_publication_is_exactly_once() {
        use interleave::ModelSync;

        // Two structurally distinct radius-1 views of a path: an end view
        // (degree-1 centre) and an interior view (degree-2 centre).
        let labeled = LabeledGraph::uniform(generators::path(5), 0u8);
        let views = crate::enumeration::collect_oblivious_views(&labeled, 1);
        let a = views[0].clone();
        let code_a = a.canonical_code();
        let b = views
            .iter()
            .find(|v| v.canonical_code() != code_a)
            .expect("a 5-path has at least two view classes at radius 1")
            .clone();
        let code_b = b.canonical_code();

        let report = interleave::model_with(interleave::Config::with_max_schedules(2000), || {
            // Two shards, so distinct classes can both share and split
            // shards depending on their hashes — either way the invariant
            // must hold.
            let cache: ViewCache<u8, ModelSync> = ViewCache::with_shards(2);
            let worker_fns: Vec<_> = [
                [(&a, &code_a), (&b, &code_b)],
                [(&b, &code_b), (&a, &code_a)],
            ]
            .into_iter()
            .map(|order| {
                let cache = &cache;
                move || {
                    let mut scratch = CanonScratch::new();
                    for (view, expected) in order {
                        assert_eq!(
                            *cache.canonical_code_in(view, &mut scratch),
                            *expected,
                            "racing lookup observed a wrong canonical code"
                        );
                    }
                }
            })
            .collect();
            ModelSync::scope_workers(worker_fns, || ());
            let stats = cache.stats();
            assert_eq!(
                stats.entries, 2,
                "each class must publish its entry exactly once"
            );
            assert_eq!(stats.hits + stats.misses, 4);
            assert!(stats.misses >= 2, "both classes start cold");
        });
        assert!(
            report.schedules >= 1000,
            "expected >=1000 distinct schedules, explored {}",
            report.schedules
        );
    }

    #[test]
    fn cache_is_shareable_across_threads() {
        let cache = ViewCache::new();
        let views = cycle_views(32, 2);
        std::thread::scope(|scope| {
            let cache = &cache;
            for chunk in views.chunks(8) {
                scope.spawn(move || {
                    let mut scratch = CanonScratch::new();
                    for view in chunk {
                        assert_eq!(
                            *cache.canonical_code_in(view, &mut scratch),
                            view.canonical_code()
                        );
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, 32);
        assert!(stats.entries <= 2, "entries = {}", stats.entries);
    }
}
