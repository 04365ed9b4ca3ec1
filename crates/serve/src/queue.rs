//! The priority job queue and the exactly-once job-state table.
//!
//! Both types are generic over the [`interleave::SyncFacade`] trait bundle:
//! the server instantiates the default [`StdSync`] family (plain
//! `std::sync`, fully inlined), while the `model_*` suite below
//! instantiates `interleave::ModelSync` and exhaustively explores worker
//! interleavings — the same discipline `ld_runner::stream`'s claim gate and
//! `ld_local::cache` follow.
//!
//! Invariants the model suite pins down:
//!
//! * **Priority-ordered dequeue.**  [`JobQueue::pop`] removes the
//!   highest-priority entry (ties broken by submission order) under the
//!   state mutex, so with no concurrent pushes the global pop sequence is
//!   exactly the priority order, whatever the worker interleaving.
//! * **No lost wakeups.**  The worker gate is a while-guarded condvar wait;
//!   a push's `notify_one` can never slip between a worker's emptiness
//!   check and its park (and spurious wakeups, which `ModelSync` injects,
//!   only re-run the guard).  A lost wakeup would surface as a deadlock,
//!   which the explorer detects.
//! * **Exactly-once delivery and transitions.**  Each pushed job id is
//!   handed to exactly one popper, and [`JobTable::transition`] moves a job
//!   between two named states exactly once even when a cancel races a
//!   worker's claim.
//! * **Tails wake on every change.**  A report tail parked in
//!   [`JobTable::wait_changed`] before a worker's `Running → Completed`
//!   always wakes and observes the terminal state: the version check and
//!   the park happen under the lock every transition bumps the version
//!   under.  The model has no clock, so the park's timeout cannot mask a
//!   lost wakeup — it would deadlock the explorer.

use crate::job::{JobRecord, JobState};
use interleave::{CondvarApi, MutexApi, StdSync, SyncFacade};
use std::collections::BTreeMap;
use std::time::Duration;

/// One queued entry: scheduling key plus the job id it resolves to.
#[derive(Debug, Clone, Copy)]
struct Entry {
    priority: u64,
    seq: u64,
    job: u64,
}

/// The mutex-protected queue state.
struct QueueState {
    entries: Vec<Entry>,
    next_seq: u64,
    closed: bool,
}

/// A blocking priority queue of job ids.
///
/// `pop` blocks while the queue is empty and open; [`JobQueue::close`]
/// starts the drain: remaining entries are still handed out, after which
/// every `pop` returns `None` and workers exit.
pub struct JobQueue<S: SyncFacade = StdSync> {
    state: S::Mutex<QueueState>,
    ready: S::Condvar,
}

impl<S: SyncFacade> Default for JobQueue<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S: SyncFacade> JobQueue<S> {
    /// An empty, open queue.
    pub fn new() -> Self {
        JobQueue {
            state: S::Mutex::new(QueueState {
                entries: Vec::new(),
                next_seq: 0,
                closed: false,
            }),
            ready: S::Condvar::new(),
        }
    }

    /// Enqueues `job` at `priority` and wakes one waiting worker.  Returns
    /// `false` (without enqueueing) once the queue is closed.
    pub fn push(&self, priority: u64, job: u64) -> bool {
        {
            let mut state = self.state.lock();
            if state.closed {
                return false;
            }
            let seq = state.next_seq;
            state.next_seq += 1;
            state.entries.push(Entry { priority, seq, job });
        }
        self.ready.notify_one();
        true
    }

    /// Blocks until an entry is available (or the queue is closed and
    /// drained) and removes the best one: highest priority first, ties in
    /// submission order.  Returns `None` only when closed and empty.
    pub fn pop(&self) -> Option<u64> {
        let mut state = self.state.lock();
        loop {
            if let Some(index) = best_index(&state.entries) {
                let entry = state.entries.swap_remove(index);
                return Some(entry.job);
            }
            if state.closed {
                return None;
            }
            // While-guarded wait: a spurious (or stale) wakeup just re-runs
            // the emptiness check above.
            state = self.ready.wait(state);
        }
    }

    /// Removes `job` if it is still queued.  Returns whether it was.
    pub fn try_remove(&self, job: u64) -> bool {
        let mut state = self.state.lock();
        let before = state.entries.len();
        state.entries.retain(|entry| entry.job != job);
        state.entries.len() != before
    }

    /// Entries currently waiting.
    pub fn len(&self) -> usize {
        self.state.lock().entries.len()
    }

    /// Whether no entries are waiting.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Closes the queue: rejects further pushes, lets `pop` drain what
    /// remains, and wakes every parked worker so they can observe the
    /// close.
    pub fn close(&self) {
        self.state.lock().closed = true;
        self.ready.notify_all();
    }
}

/// The index of the best entry: maximal `(priority, Reverse(seq))`.
fn best_index(entries: &[Entry]) -> Option<usize> {
    let mut best: Option<usize> = None;
    for (index, entry) in entries.iter().enumerate() {
        let better = match best {
            None => true,
            Some(b) => {
                let current = &entries[b];
                (entry.priority, std::cmp::Reverse(entry.seq))
                    > (current.priority, std::cmp::Reverse(current.seq))
            }
        };
        if better {
            best = Some(index);
        }
    }
    best
}

/// The table's mutex-protected state: the records plus a version that
/// every insert, transition and removal bumps.
struct Jobs {
    records: BTreeMap<u64, JobRecord>,
    version: u64,
}

/// The shared job-state table: id → [`JobRecord`], with exactly-once state
/// transitions.
///
/// Keys live in a `BTreeMap` so listings iterate in id (submission) order
/// deterministically.  Every change a report tail could be waiting for —
/// insert, transition, removal — bumps a version counter and wakes the
/// `changed` condvar, so a tail parked in [`JobTable::wait_changed`]
/// wakes on a job's terminal transition.
pub struct JobTable<S: SyncFacade = StdSync> {
    jobs: S::Mutex<Jobs>,
    changed: S::Condvar,
}

impl<S: SyncFacade> Default for JobTable<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S: SyncFacade> JobTable<S> {
    /// An empty table.
    pub fn new() -> Self {
        JobTable {
            jobs: S::Mutex::new(Jobs {
                records: BTreeMap::new(),
                version: 0,
            }),
            changed: S::Condvar::new(),
        }
    }

    /// Bumps the version (the caller holds the lock) and wakes every
    /// parked [`JobTable::wait_changed`].
    fn publish(&self, jobs: &mut Jobs) {
        jobs.version += 1;
        self.changed.notify_all();
    }

    /// Inserts (or replaces) the record for `id`.
    pub fn insert(&self, id: u64, record: JobRecord) {
        let mut jobs = self.jobs.lock();
        jobs.records.insert(id, record);
        self.publish(&mut jobs);
    }

    /// A snapshot of the record for `id`.
    pub fn get(&self, id: u64) -> Option<JobRecord> {
        self.jobs.lock().records.get(&id).cloned()
    }

    /// The table version and the state of `id`, read under one lock hold.
    /// Pass the version to [`JobTable::wait_changed`] to park until the
    /// table moves on from this snapshot.
    pub fn version_and_state(&self, id: u64) -> (u64, Option<JobState>) {
        let jobs = self.jobs.lock();
        (jobs.version, jobs.records.get(&id).map(|r| r.state))
    }

    /// Parks until the version moves past `seen` or `timeout` elapses,
    /// whichever is first.  A spurious wakeup may return early with the
    /// version unchanged; callers re-read the table either way.
    pub fn wait_changed(&self, seen: u64, timeout: Duration) {
        let jobs = self.jobs.lock();
        // Checked under the lock every publisher bumps the version under,
        // so a change cannot slip between this check and the park.
        if jobs.version == seen {
            drop(self.changed.wait_timeout(jobs, timeout));
        }
    }

    /// Moves `id` from `from` to `to` — but only if it is currently in
    /// `from`, all under one lock hold.  Exactly one of several racing
    /// transitions out of the same state wins; every loser observes
    /// `false` and must not act on the job.
    pub fn transition(&self, id: u64, from: JobState, to: JobState) -> bool {
        let mut jobs = self.jobs.lock();
        match jobs.records.get_mut(&id) {
            Some(record) if record.state == from => {
                record.state = to;
                self.publish(&mut jobs);
                true
            }
            _ => false,
        }
    }

    /// Records a failure message on `id` (kept across the
    /// `Running → Failed` transition).
    pub fn set_message(&self, id: u64, message: impl Into<String>) {
        if let Some(record) = self.jobs.lock().records.get_mut(&id) {
            record.message = Some(message.into());
        }
    }

    /// Removes the record for `id`.
    pub fn remove(&self, id: u64) -> Option<JobRecord> {
        let mut jobs = self.jobs.lock();
        let removed = jobs.records.remove(&id);
        if removed.is_some() {
            self.publish(&mut jobs);
        }
        removed
    }

    /// All records, in id order.
    pub fn snapshot(&self) -> Vec<(u64, JobRecord)> {
        self.jobs
            .lock()
            .records
            .iter()
            .map(|(id, record)| (*id, record.clone()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobSpec;
    use interleave::{AtomicBoolApi, AtomicUsizeApi, Config, ModelSync};
    use std::sync::atomic::Ordering;

    #[test]
    fn pops_follow_priority_then_submission_order() {
        let queue: JobQueue = JobQueue::new();
        assert!(queue.push(1, 11));
        assert!(queue.push(3, 33));
        assert!(queue.push(2, 22));
        assert!(queue.push(3, 34));
        assert_eq!(queue.len(), 4);
        queue.close();
        assert!(!queue.push(9, 99), "closed queue rejects pushes");
        let drained: Vec<u64> = std::iter::from_fn(|| queue.pop()).collect();
        assert_eq!(drained, vec![33, 34, 22, 11]);
        assert!(queue.is_empty());
    }

    #[test]
    fn try_remove_unqueues_exactly_the_named_job() {
        let queue: JobQueue = JobQueue::new();
        queue.push(0, 1);
        queue.push(0, 2);
        assert!(queue.try_remove(1));
        assert!(!queue.try_remove(1), "already removed");
        queue.close();
        assert_eq!(queue.pop(), Some(2));
        assert_eq!(queue.pop(), None);
    }

    #[test]
    fn table_transitions_are_guarded_by_current_state() {
        let table: JobTable = JobTable::new();
        table.insert(1, JobRecord::queued(JobSpec::new("section2-sweep")));
        assert!(table.transition(1, JobState::Queued, JobState::Running));
        assert!(
            !table.transition(1, JobState::Queued, JobState::Canceled),
            "the job already left Queued"
        );
        table.set_message(1, "boom");
        assert!(table.transition(1, JobState::Running, JobState::Failed));
        let record = table.get(1).expect("record");
        assert_eq!(record.state, JobState::Failed);
        assert_eq!(record.message.as_deref(), Some("boom"));
        assert!(table.get(2).is_none());
        assert_eq!(table.snapshot().len(), 1);
    }

    /// Model: with all entries pushed up front, two racing workers must
    /// observe exactly the priority order (ties by submission), and every
    /// job is delivered exactly once — under ≥1000 explored schedules.
    #[test]
    fn model_priority_dequeue_is_ordered_under_all_schedules() {
        type MMutex<T> = <ModelSync as SyncFacade>::Mutex<T>;
        let report = interleave::model_with(Config::with_max_schedules(4000), || {
            let queue: JobQueue<ModelSync> = JobQueue::new();
            queue.push(1, 101);
            queue.push(3, 301);
            queue.push(2, 201);
            queue.push(3, 302);
            queue.close();
            let order: MMutex<Vec<u64>> = MMutex::new(Vec::new());
            let worker = || loop {
                // Hold the log across the pop so each recorded entry is the
                // job popped at that instant — the queue itself serializes
                // pops, but two workers could otherwise append out of pop
                // order.  Never blocks: everything is pushed and closed.
                let mut log = order.lock();
                let Some(job) = queue.pop() else { break };
                log.push(job);
            };
            ModelSync::scope_workers(vec![worker, worker], || ());
            // Each pop takes the global best, so the order is deterministic
            // whatever the schedule.
            assert_eq!(*order.lock(), vec![301, 302, 201, 101]);
        });
        assert!(
            report.schedules >= 1000,
            "expected >=1000 schedules, explored {}",
            report.schedules
        );
    }

    /// Model: workers park on the condvar *before* the producer pushes.  A
    /// lost wakeup (notify slipping between guard check and park) would
    /// deadlock, which the explorer detects; spurious wakeups are injected
    /// and must only re-run the while guard.
    #[test]
    fn model_worker_gate_loses_no_wakeups() {
        type MMutex<T> = <ModelSync as SyncFacade>::Mutex<T>;
        let report = interleave::model_with(Config::with_max_schedules(4000), || {
            let queue: JobQueue<ModelSync> = JobQueue::new();
            let got: MMutex<Vec<u64>> = MMutex::new(Vec::new());
            let consumer = || {
                if let Some(job) = queue.pop() {
                    got.lock().push(job);
                }
            };
            ModelSync::scope_workers(vec![consumer, consumer], || {
                queue.push(0, 7);
                queue.push(0, 8);
            });
            let mut delivered = got.lock().clone();
            delivered.sort_unstable();
            assert_eq!(delivered, vec![7, 8], "each job delivered exactly once");
        });
        // The park/notify state space is larger than the schedule budget, so
        // exploration is a (deterministic) prefix rather than exhaustive —
        // the floor below is the contract.
        assert!(
            report.schedules >= 1000,
            "expected >=1000 schedules, explored {}",
            report.schedules
        );
        assert!(
            report.spurious_injected > 0,
            "the explorer must have injected spurious wakeups"
        );
    }

    /// Model: report tails parked in `wait_changed` before the worker's
    /// `Running → Completed` always wake and observe the terminal state.
    /// An unrelated insert wakes them once early; they must re-park on the
    /// fresh version.  Under the model a timeout is just a wakeup, so a
    /// lost notify would deadlock the explorer instead of hiding behind
    /// the poll interval.
    #[test]
    fn model_tail_wakes_on_terminal_transition() {
        type MMutex<T> = <ModelSync as SyncFacade>::Mutex<T>;
        let report = interleave::model_with(Config::with_max_schedules(4000), || {
            let table: JobTable<ModelSync> = JobTable::new();
            table.insert(1, JobRecord::queued(JobSpec::new("section2-sweep")));
            let seen: MMutex<Vec<JobState>> = MMutex::new(Vec::new());
            // The report tail's loop: snapshot, stop on terminal, else park
            // on that snapshot's version.
            let tail = || loop {
                let (version, state) = table.version_and_state(1);
                if let Some(state) = state.filter(|s| s.is_terminal()) {
                    seen.lock().push(state);
                    return;
                }
                table.wait_changed(version, Duration::from_millis(5));
            };
            ModelSync::scope_workers(vec![tail, tail], || {
                assert!(table.transition(1, JobState::Queued, JobState::Running));
                table.insert(2, JobRecord::queued(JobSpec::new("section2-sweep")));
                assert!(table.transition(1, JobState::Running, JobState::Completed));
            });
            assert_eq!(
                *seen.lock(),
                vec![JobState::Completed, JobState::Completed],
                "both tails end on the terminal state"
            );
        });
        assert!(
            report.schedules >= 1000,
            "expected >=1000 schedules, explored {}",
            report.schedules
        );
        assert!(
            report.spurious_injected > 0,
            "the explorer must have injected spurious wakeups"
        );
    }

    /// Model: a cancel racing a worker's claim resolves each job-state
    /// transition exactly once, and the one-shot `AtomicBool::swap` claim
    /// admits exactly one claimant.
    #[test]
    fn model_job_state_transitions_are_exactly_once() {
        type MBool = <ModelSync as SyncFacade>::AtomicBool;
        type MCount = <ModelSync as SyncFacade>::AtomicUsize;
        let report = interleave::model_with(Config::with_max_schedules(4000), || {
            let table: JobTable<ModelSync> = JobTable::new();
            table.insert(1, JobRecord::queued(JobSpec::new("section2-sweep")));
            let claims = MCount::new(0);
            let done = MBool::new(false);
            let finishers = MCount::new(0);
            let claim_worker = || {
                // A worker claiming the queued job for execution.
                if table.transition(1, JobState::Queued, JobState::Running) {
                    claims.fetch_add(1, Ordering::SeqCst);
                }
            };
            let cancel_worker = || {
                // A DELETE handler racing the claim.
                if table.transition(1, JobState::Queued, JobState::Canceled) {
                    claims.fetch_add(1, Ordering::SeqCst);
                }
                // And a one-shot completion flag raced by two publishers.
                if !done.swap(true, Ordering::SeqCst) {
                    finishers.fetch_add(1, Ordering::SeqCst);
                }
            };
            let second_finisher = || {
                if !done.swap(true, Ordering::SeqCst) {
                    finishers.fetch_add(1, Ordering::SeqCst);
                }
            };
            ModelSync::scope_workers(
                vec![
                    Box::new(claim_worker) as Box<dyn FnOnce() + Send>,
                    Box::new(cancel_worker),
                    Box::new(second_finisher),
                ],
                || (),
            );
            assert_eq!(
                claims.load(Ordering::SeqCst),
                1,
                "exactly one transition out of Queued may win"
            );
            assert_eq!(
                finishers.load(Ordering::SeqCst),
                1,
                "exactly one publisher may claim the done flag"
            );
            let state = table.get(1).map(|r| r.state);
            assert!(
                state == Some(JobState::Running) || state == Some(JobState::Canceled),
                "the job ends claimed or canceled, never both/neither"
            );
        });
        // Three workers over two racy primitives outgrow the schedule
        // budget; the floor below is the contract, not exhaustiveness.
        assert!(
            report.schedules >= 1000,
            "expected >=1000 schedules, explored {}",
            report.schedules
        );
    }
}
