//! The serving layer's one engine interface and its contention-free
//! runtime: per-worker request lanes, work stealing, and batch affinity.
//!
//! ## One query body per engine
//!
//! [`EngineWorker::run_query`]`(query, Option<&Weights>, k, l)` is the only
//! place an engine plans and runs a query: [`crate::server::ServerWorker`]
//! and [`crate::shard::ShardedWorker`] each write it once.  Every
//! handle-level entry point is a provided method of [`ServeEngine`] over
//! that body — [`ServeEngine::search_weighted`],
//! [`ServeEngine::search_batch`] / [`ServeEngine::search_batch_weighted`]
//! (scoped threads, atomic chunk claiming) and [`ServeEngine::serve`] (a
//! [`ServeRuntime`] fed from a channel) — so a default-weight query and an
//! overridden one, one-off or batched or queued, do the same work in the
//! same order on either engine.
//!
//! ## The runtime
//!
//! * **Per-worker lanes.**  Each worker owns a bounded-contention lane
//!   (`Mutex<VecDeque>` touched by one producer round-robin step and one
//!   consumer in the common case).  Submission round-robins across lanes,
//!   so producers and workers almost never collide on a lock — a single
//!   shared `mpsc` receiver behind a mutex, the original serve loop, made
//!   2 threads *lose* to 1.
//! * **Work stealing.**  A worker whose own lane runs dry steals the
//!   oldest job from the currently **longest** lane (lane depths are
//!   advertised in atomics, so victim selection never takes a lock).
//!   Tail latency stops depending on which lane a burst happened to land
//!   in.
//! * **Batch affinity.**  A [`ServeRuntime::submit_batch`] call lands on
//!   one lane as a single job unit: its queries run back-to-back on one
//!   worker's warm scratch instead of interleaving with unrelated
//!   requests — and a steal moves the *whole* unit, never a slice of it.
//! * **Drain-on-shutdown.**  [`ServeRuntime::shutdown`] wakes every
//!   worker and joins them only after all lanes are empty: every
//!   submitted request gets exactly one reply, pinned by the stress test
//!   in `tests/serving.rs`.
//!
//! ## Why bit-identity survives work stealing
//!
//! A served query's result is a pure function of `(snapshot, query,
//! weights, k, l)` — the per-query RNG seed is a serving constant and the
//! scratch state is reset per search ([`crate::server`]'s contract).
//! Stealing only changes *which* worker runs a query, never the work the
//! query performs, so replies are bit-identical to serial execution in
//! any interleaving.  The same argument covers the sharded engine: a
//! [`crate::shard::ShardedWorker`] searches its shards in a fixed order
//! whichever runtime worker drives it.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use must_vector::{MultiQuery, Weights};

use crate::search::SearchOutcome;
use crate::server::{ServeReply, ServeRequest};
use crate::MustError;

/// A serving snapshot the runtime can drive: cheaply cloneable (the clone
/// is an `Arc` bump), shareable across threads, and able to mint a
/// reusable per-thread worker.  The handle-level conveniences — weighted
/// one-off search, batch fan-out and the blocking serve loop — are written
/// once here, over [`ServeEngine::serve_worker`] and
/// [`EngineWorker::run_query`], for both [`crate::server::MustServer`]
/// and [`crate::shard::ShardedServer`].
pub trait ServeEngine: Clone + Send + Sync + 'static {
    /// The per-thread search state (scratch buffers survive across
    /// queries; the snapshot itself is shared, never copied).
    type Worker<'a>: EngineWorker
    where
        Self: 'a;

    /// Mints a worker bound to this snapshot.
    fn serve_worker(&self) -> Self::Worker<'_>;

    /// One-off top-`k` search under a per-query weight override: the same
    /// frozen snapshot and graph, but the joint similarity is
    /// `sum_k w_k^2 IP_k` for the caller's `weights` — equivalent (ids
    /// identical, similarities to float tolerance) to a snapshot frozen
    /// with `weights` as its defaults, pinned by
    /// `crates/core/tests/weighted_search.rs`.
    ///
    /// # Errors
    /// Propagates weight-arity and query/corpus mismatches;
    /// [`MustError::Config`] for `k = 0`.
    fn search_weighted(
        &self,
        query: &MultiQuery,
        weights: &Weights,
        k: usize,
        l: usize,
    ) -> Result<SearchOutcome, MustError> {
        self.serve_worker().run_query(query, Some(weights), k, l)
    }

    /// Searches `queries` under the snapshot's default weights with
    /// `threads` scoped workers (clamped to `[1, queries.len()]`, one
    /// reusable worker each, atomic chunk claiming) and returns outcomes
    /// in input order, bit-identical for every thread count.  Per-query
    /// errors are returned in their slot.
    #[must_use]
    fn search_batch(
        &self,
        queries: &[MultiQuery],
        k: usize,
        l: usize,
        threads: usize,
    ) -> Vec<Result<SearchOutcome, MustError>> {
        fan_out_batch(self, queries, None, k, l, threads)
    }

    /// [`ServeEngine::search_batch`] under one weight override for the
    /// whole batch — the weight-churn serving path: switching `weights`
    /// between batches costs nothing beyond the per-query evaluator each
    /// search already builds.
    #[must_use]
    fn search_batch_weighted(
        &self,
        queries: &[MultiQuery],
        weights: &Weights,
        k: usize,
        l: usize,
        threads: usize,
    ) -> Vec<Result<SearchOutcome, MustError>> {
        fan_out_batch(self, queries, Some(weights), k, l, threads)
    }

    /// Blocking request/reply serve loop: pumps `requests` into a
    /// [`ServeRuntime`] of `threads` workers, sending one [`ServeReply`]
    /// per request on `replies`, and returns the number served once the
    /// request channel is closed and drained.  Replies may interleave;
    /// correlate by [`ServeRequest::id`].  For weighted requests, batch
    /// affinity or lane counters, drive a [`ServeRuntime`] directly.
    #[must_use]
    fn serve(
        &self,
        requests: Receiver<ServeRequest>,
        replies: Sender<ServeReply>,
        threads: usize,
    ) -> usize {
        let runtime = ServeRuntime::start(self, threads, replies);
        for req in requests {
            runtime.submit(req);
        }
        runtime.shutdown()
    }
}

/// The one operation every serving path needs from an engine's worker:
/// plan and run a query under the snapshot's default weights or a
/// per-request override.  Each engine writes this body once; every entry
/// point — one-off, batch, serve loop, runtime — calls it.
pub trait EngineWorker {
    /// Runs one query; `weights: None` means the snapshot's defaults.
    ///
    /// # Errors
    /// Propagates per-query validation errors (arity/dimension
    /// mismatches, non-finite query components, `k = 0`); the runtime
    /// forwards them in the reply rather than tearing anything down.
    fn run_query(
        &mut self,
        query: &MultiQuery,
        weights: Option<&Weights>,
        k: usize,
        l: usize,
    ) -> Result<SearchOutcome, MustError>;
}

/// The batch fan-out behind [`ServeEngine::search_batch`] and
/// [`ServeEngine::search_batch_weighted`]: `threads` is clamped to
/// `[1, queries.len()]` and each scoped thread mints one reusable worker.
///
/// Work is distributed by **atomic chunk claiming**, not static slices:
/// workers repeatedly claim the next `~n/(4·threads)` queries off a
/// shared cursor until the batch is exhausted.  Static contiguous chunks
/// (`n.div_ceil(threads)` each) left the last worker with up to
/// `n/threads` extra queries on ragged batches — e.g. 17 queries over 4
/// threads ran as 5+5+5+2, with two workers idle while the tail drained.
/// Claiming bounds the imbalance to a single small chunk.
///
/// Each worker records `(original index, outcome)` pairs and the results
/// are scattered back by index afterwards, so outcomes come back in input
/// order and — because per-query work is deterministic and only *which*
/// worker runs a query changes — results are bit-identical for every
/// thread count and every claiming interleaving.
fn fan_out_batch<E: ServeEngine>(
    engine: &E,
    queries: &[MultiQuery],
    weights: Option<&Weights>,
    k: usize,
    l: usize,
    threads: usize,
) -> Vec<Result<SearchOutcome, MustError>> {
    let n = queries.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = threads.max(1).min(n);
    if threads == 1 {
        let mut worker = engine.serve_worker();
        return queries.iter().map(|q| worker.run_query(q, weights, k, l)).collect();
    }
    // ~4 chunks per worker: small enough to level a ragged tail, large
    // enough that the shared cursor is touched rarely.
    let chunk = (n.div_ceil(4 * threads)).max(1);
    let cursor = AtomicUsize::new(0);
    let mut out: Vec<Option<Result<SearchOutcome, MustError>>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let cursor = &cursor;
                scope.spawn(move || {
                    let mut worker = engine.serve_worker();
                    let mut ran: Vec<(usize, Result<SearchOutcome, MustError>)> = Vec::new();
                    loop {
                        let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                        if start >= n {
                            break;
                        }
                        let end = (start + chunk).min(n);
                        for (off, q) in queries[start..end].iter().enumerate() {
                            ran.push((start + off, worker.run_query(q, weights, k, l)));
                        }
                    }
                    ran
                })
            })
            .collect();
        for handle in handles {
            for (i, outcome) in handle.join().expect("batch worker panicked") {
                out[i] = Some(outcome);
            }
        }
    });
    out.into_iter().map(|x| x.expect("every index claimed exactly once")).collect()
}

/// One queued query: the request plus an optional weight override.
struct Unit {
    id: u64,
    query: MultiQuery,
    weights: Option<Weights>,
    k: usize,
    l: usize,
}

impl Unit {
    fn from_request(req: ServeRequest, weights: Option<Weights>) -> Self {
        Self { id: req.id, query: req.query, weights, k: req.k, l: req.l }
    }
}

/// One lane entry: a single query or a whole batch (the affinity unit —
/// it is queued, stolen, and executed as one piece).
enum Job {
    Single(Unit),
    Batch(Vec<Unit>),
}

impl Job {
    fn units(&self) -> usize {
        match self {
            Self::Single(_) => 1,
            Self::Batch(b) => b.len(),
        }
    }
}

/// One worker's lane plus its lightweight counters.  `depth` mirrors the
/// queued unit count so victim selection and [`ServeRuntime::lane_depths`]
/// never touch the queue lock.
struct Lane {
    queue: Mutex<VecDeque<Job>>,
    depth: AtomicUsize,
    executed: AtomicU64,
    stolen: AtomicU64,
}

impl Lane {
    fn new() -> Self {
        Self {
            queue: Mutex::new(VecDeque::new()),
            depth: AtomicUsize::new(0),
            executed: AtomicU64::new(0),
            stolen: AtomicU64::new(0),
        }
    }

    fn push(&self, job: Job) {
        let units = job.units();
        let mut q = self.queue.lock().expect("lane poisoned");
        q.push_back(job);
        // Under the lock, so depth never over-reports against the queue.
        // SeqCst: paired with the parking handshake in `next_job` (see
        // the store-buffer argument there).
        self.depth.fetch_add(units, Ordering::SeqCst);
    }

    fn pop(&self) -> Option<Job> {
        let mut q = self.queue.lock().expect("lane poisoned");
        let job = q.pop_front()?;
        self.depth.fetch_sub(job.units(), Ordering::Release);
        Some(job)
    }
}

struct Shared {
    lanes: Vec<Lane>,
    shutdown: AtomicBool,
    /// Workers currently parked; producers skip the wake lock entirely
    /// while this is zero (the loaded steady state).
    sleepers: AtomicUsize,
    wake_lock: Mutex<()>,
    wake: Condvar,
}

impl Shared {
    /// Wakes parked workers after a push; free when nobody sleeps.
    /// SeqCst load: paired with the parking handshake in `next_job`
    /// (see the store-buffer argument there).
    fn notify(&self) {
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            let _guard = self.wake_lock.lock().expect("wake lock poisoned");
            self.wake.notify_all();
        }
    }

    /// Picks the deepest lane other than `me` (ties toward the lowest
    /// index) without taking any lock; `None` when all are empty.
    fn longest_other_lane(&self, me: usize) -> Option<usize> {
        let mut best = None;
        let mut best_depth = 0;
        for (i, lane) in self.lanes.iter().enumerate() {
            if i == me {
                continue;
            }
            let d = lane.depth.load(Ordering::Acquire);
            if d > best_depth {
                best_depth = d;
                best = Some(i);
            }
        }
        best
    }

    /// Dequeues the next job for worker `me`: own lane first, then steal
    /// from the longest other lane.  Returns `None` only after shutdown
    /// once every lane is drained.
    fn next_job(&self, me: usize) -> Option<Job> {
        // A scan that races the shutdown flag proves nothing: a producer
        // may push and then set the flag *between* our empty scan and
        // our flag load.  So `None` is only returned when a scan that
        // *started after* observing `shutdown` comes up empty — that
        // observation (Acquire) happens-after every pre-shutdown push
        // (which the Release store in `begin_shutdown` orders behind),
        // so the post-observation scan cannot miss a drainable job.
        let mut saw_shutdown = false;
        loop {
            if let Some(job) = self.lanes[me].pop() {
                return Some(job);
            }
            if let Some(victim) = self.longest_other_lane(me) {
                if let Some(job) = self.lanes[victim].pop() {
                    self.lanes[me].stolen.fetch_add(job.units() as u64, Ordering::Relaxed);
                    return Some(job);
                }
                // Someone else drained the victim first; rescan.
                continue;
            }
            if saw_shutdown {
                // Empty scan performed entirely after seeing the flag:
                // every lane is truly drained.
                return None;
            }
            if self.shutdown.load(Ordering::Acquire) {
                saw_shutdown = true;
                continue;
            }
            // Park until a producer pushes or shutdown begins.  The
            // sleepers counter and `notify` form a store-buffer pair
            // (producer: push depth, load sleepers; worker: add
            // sleepers, load depth) — SeqCst on those four accesses
            // guarantees at least one side sees the other, so either
            // the producer notifies (under `wake_lock`, which we hold
            // until `wait` — the notify cannot slip between our recheck
            // and the wait) or our recheck sees the pushed depth and we
            // skip the wait.  Hence the untimed wait: no lost wake-ups,
            // and an idle runtime burns no CPU on periodic polling.
            self.sleepers.fetch_add(1, Ordering::SeqCst);
            let guard = self.wake_lock.lock().expect("wake lock poisoned");
            let must_recheck = self.shutdown.load(Ordering::Acquire)
                || self.lanes.iter().any(|l| l.depth.load(Ordering::SeqCst) > 0);
            if !must_recheck {
                drop(self.wake.wait(guard).expect("wake lock poisoned"));
            }
            self.sleepers.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// A snapshot of the runtime's per-worker counters, for observability
/// (the `serve_runtime` example prints them live).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuntimeCounters {
    /// Queued (not yet started) query units per lane.
    pub lane_depths: Vec<usize>,
    /// Query units each worker has completed.
    pub executed: Vec<u64>,
    /// Query units each worker obtained by stealing from another lane.
    pub stolen: Vec<u64>,
}

/// The contention-free serve loop: a fixed pool of workers, one lane
/// each, driven by any number of producer threads through `&self`
/// submission.  See the module docs for the design and the determinism
/// argument.
///
/// Replies flow to the `Sender<ServeReply>` given at [`ServeRuntime::start`];
/// a dropped receiver is tolerated (remaining requests still drain, their
/// replies are discarded).
pub struct ServeRuntime {
    shared: Arc<Shared>,
    next_lane: AtomicUsize,
    handles: Vec<JoinHandle<()>>,
}

impl ServeRuntime {
    /// Starts `workers` worker threads (clamped to at least 1) over a
    /// serving snapshot.  Each worker clones the engine handle (an `Arc`
    /// bump) and keeps one reusable [`ServeEngine::Worker`] for its whole
    /// lifetime — no per-request or per-batch thread spawning.
    #[must_use]
    pub fn start<E: ServeEngine>(engine: &E, workers: usize, replies: Sender<ServeReply>) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            lanes: (0..workers).map(|_| Lane::new()).collect(),
            shutdown: AtomicBool::new(false),
            sleepers: AtomicUsize::new(0),
            wake_lock: Mutex::new(()),
            wake: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|me| {
                let shared = Arc::clone(&shared);
                let engine = engine.clone();
                let replies = replies.clone();
                std::thread::spawn(move || {
                    let mut worker = engine.serve_worker();
                    while let Some(job) = shared.next_job(me) {
                        let units = job.units() as u64;
                        match job {
                            Job::Single(u) => run_unit(&mut worker, u, &replies),
                            Job::Batch(batch) => {
                                for u in batch {
                                    run_unit(&mut worker, u, &replies);
                                }
                            }
                        }
                        shared.lanes[me].executed.fetch_add(units, Ordering::Relaxed);
                    }
                })
            })
            .collect();
        Self { shared, next_lane: AtomicUsize::new(0), handles }
    }

    /// Number of worker threads (and lanes).
    #[must_use]
    pub fn workers(&self) -> usize {
        self.shared.lanes.len()
    }

    /// Submits one request under the snapshot's default weights
    /// (round-robin lane placement).
    pub fn submit(&self, req: ServeRequest) {
        self.push(Job::Single(Unit::from_request(req, None)));
    }

    /// Submits one request under a per-request weight override.
    pub fn submit_weighted(&self, req: ServeRequest, weights: Weights) {
        self.push(Job::Single(Unit::from_request(req, Some(weights))));
    }

    /// Submits a batch as **one affinity unit** under the snapshot's
    /// default weights (`weights: None`) or one override for the whole
    /// batch: all its queries run back-to-back on a single worker
    /// (whichever owns — or steals — the unit), never interleaved with
    /// other traffic.
    pub fn submit_batch(&self, reqs: Vec<ServeRequest>, weights: Option<Weights>) {
        if reqs.is_empty() {
            return;
        }
        let units: Vec<Unit> =
            reqs.into_iter().map(|r| Unit::from_request(r, weights.clone())).collect();
        self.push(Job::Batch(units));
    }

    fn push(&self, job: Job) {
        let lane = self.next_lane.fetch_add(1, Ordering::Relaxed) % self.shared.lanes.len();
        self.shared.lanes[lane].push(job);
        self.shared.notify();
    }

    /// Current counters: lane depths, executed units, and steal counts
    /// per worker.
    #[must_use]
    pub fn counters(&self) -> RuntimeCounters {
        RuntimeCounters {
            lane_depths: self
                .shared
                .lanes
                .iter()
                .map(|l| l.depth.load(Ordering::Acquire))
                .collect(),
            executed: self
                .shared
                .lanes
                .iter()
                .map(|l| l.executed.load(Ordering::Relaxed))
                .collect(),
            stolen: self.shared.lanes.iter().map(|l| l.stolen.load(Ordering::Relaxed)).collect(),
        }
    }

    /// Queued (not yet started) query units per lane.
    #[must_use]
    pub fn lane_depths(&self) -> Vec<usize> {
        self.counters().lane_depths
    }

    /// Stops accepting the calling thread's submissions, drains every
    /// lane (workers keep stealing until all lanes are empty), joins the
    /// workers, and returns the total number of query units served.
    /// Every request submitted before this call gets exactly one reply.
    #[must_use]
    pub fn shutdown(mut self) -> usize {
        self.begin_shutdown();
        for h in self.handles.drain(..) {
            h.join().expect("runtime worker panicked");
        }
        self.shared.lanes.iter().map(|l| l.executed.load(Ordering::Relaxed)).sum::<u64>() as usize
    }

    fn begin_shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Release);
        let _guard = self.shared.wake_lock.lock().expect("wake lock poisoned");
        self.shared.wake.notify_all();
    }
}

impl Drop for ServeRuntime {
    /// Dropping without [`ServeRuntime::shutdown`] still drains and joins
    /// (so tests and panicking callers never leak detached workers).
    fn drop(&mut self) {
        self.begin_shutdown();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn run_unit<W: EngineWorker>(worker: &mut W, unit: Unit, replies: &Sender<ServeReply>) {
    let outcome = worker.run_query(&unit.query, unit.weights.as_ref(), unit.k, unit.l);
    // The caller may have stopped listening; keep draining regardless.
    let _ = replies.send(ServeReply { id: unit.id, outcome });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::{Must, MustBuildOptions};
    use crate::server::MustServer;
    use must_vector::{MultiVectorSet, VectorSetBuilder};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn server(n: usize) -> MustServer {
        let mut rng = StdRng::seed_from_u64(7);
        let mut m0 = VectorSetBuilder::new(8, n);
        let mut m1 = VectorSetBuilder::new(4, n);
        for _ in 0..n {
            let v0: Vec<f32> = (0..8).map(|_| rng.random::<f32>() - 0.5).collect();
            let v1: Vec<f32> = (0..4).map(|_| rng.random::<f32>() - 0.5).collect();
            m0.push_normalized(&v0).unwrap();
            m1.push_normalized(&v1).unwrap();
        }
        let set = MultiVectorSet::new(vec![m0.finish(), m1.finish()]).unwrap();
        let must =
            Must::build(set, Weights::uniform(2), MustBuildOptions::default()).unwrap();
        MustServer::freeze(must)
    }

    fn self_query(srv: &MustServer, id: u32) -> MultiQuery {
        MultiQuery::full(vec![
            srv.objects().modality(0).get(id).to_vec(),
            srv.objects().modality(1).get(id).to_vec(),
        ])
    }

    #[test]
    fn runtime_answers_singles_and_batches_exactly_once() {
        let srv = server(120);
        let (tx, rx) = std::sync::mpsc::channel();
        let rt = ServeRuntime::start(&srv, 3, tx);
        assert_eq!(rt.workers(), 3);
        for i in 0..10u64 {
            rt.submit(ServeRequest { id: i, query: self_query(&srv, i as u32), k: 1, l: 40 });
        }
        let batch: Vec<ServeRequest> = (10..20u64)
            .map(|i| ServeRequest { id: i, query: self_query(&srv, i as u32), k: 1, l: 40 })
            .collect();
        rt.submit_batch(batch, None);
        assert_eq!(rt.shutdown(), 20);
        let mut seen = [false; 20];
        for rep in rx.iter() {
            assert!(
                !std::mem::replace(&mut seen[rep.id as usize], true),
                "duplicate reply for id {}",
                rep.id
            );
            let out = rep.outcome.unwrap();
            assert_eq!(out.results[0].0, rep.id as u32, "self-query resolves to itself");
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn weighted_submission_matches_direct_weighted_search() {
        let srv = server(100);
        let w = Weights::from_squared(vec![0.8, 0.2]).unwrap();
        let q = self_query(&srv, 33);
        let expect = srv.search_weighted(&q, &w, 5, 40).unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        let rt = ServeRuntime::start(&srv, 2, tx);
        rt.submit_weighted(ServeRequest { id: 0, query: q, k: 5, l: 40 }, w);
        assert_eq!(rt.shutdown(), 1);
        let rep = rx.recv().unwrap();
        let out = rep.outcome.unwrap();
        assert_eq!(out.results, expect.results);
        assert_eq!(out.stats, expect.stats);
    }

    #[test]
    fn counters_account_for_every_unit() {
        let srv = server(80);
        let (tx, rx) = std::sync::mpsc::channel();
        let rt = ServeRuntime::start(&srv, 4, tx);
        for i in 0..40u64 {
            rt.submit(ServeRequest {
                id: i,
                query: self_query(&srv, (i % 80) as u32),
                k: 1,
                l: 30,
            });
        }
        let served = rt.shutdown();
        assert_eq!(served, 40);
        assert_eq!(rx.iter().count(), 40);
    }

    #[test]
    fn dropped_reply_receiver_still_drains() {
        let srv = server(60);
        let (tx, rx) = std::sync::mpsc::channel();
        drop(rx);
        let rt = ServeRuntime::start(&srv, 2, tx);
        for i in 0..8u64 {
            rt.submit(ServeRequest { id: i, query: self_query(&srv, i as u32), k: 1, l: 30 });
        }
        assert_eq!(rt.shutdown(), 8, "replies are discarded, requests still served");
    }

    /// Regression for the shutdown-drain race: with a single worker
    /// (nowhere to steal from), a push followed at once by `shutdown()`
    /// can land exactly between the worker's empty scan and its flag
    /// load.  The worker must rescan after observing the flag rather
    /// than abandon the queued request.
    #[test]
    fn submit_then_immediate_shutdown_never_drops() {
        let srv = server(60);
        for i in 0..200u64 {
            let (tx, rx) = std::sync::mpsc::channel();
            let rt = ServeRuntime::start(&srv, 1, tx);
            rt.submit(ServeRequest {
                id: i,
                query: self_query(&srv, (i % 60) as u32),
                k: 1,
                l: 30,
            });
            assert_eq!(rt.shutdown(), 1, "iteration {i}: shutdown dropped the queued request");
            assert_eq!(rx.recv().unwrap().id, i);
        }
    }

    #[test]
    fn immediate_shutdown_serves_nothing_and_does_not_hang() {
        let srv = server(50);
        let (tx, _rx) = std::sync::mpsc::channel();
        let rt = ServeRuntime::start(&srv, 3, tx);
        assert_eq!(rt.shutdown(), 0);
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        let srv = server(50);
        let (tx, rx) = std::sync::mpsc::channel();
        let rt = ServeRuntime::start(&srv, 0, tx);
        assert_eq!(rt.workers(), 1);
        rt.submit(ServeRequest { id: 9, query: self_query(&srv, 9), k: 1, l: 30 });
        assert_eq!(rt.shutdown(), 1);
        assert_eq!(rx.recv().unwrap().id, 9);
    }
}
