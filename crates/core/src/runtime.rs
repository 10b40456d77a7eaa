//! The serving layer's one engine interface and its runtime: one shared
//! queue, a fixed pool of workers, batch affinity, and panic isolation.
//!
//! ## One query body per engine
//!
//! [`EngineWorker::run_query`]`(query, Option<&Weights>, k, l)` is the only
//! place an engine plans and runs a query: [`crate::server::ServerWorker`]
//! and [`crate::shard::ShardedWorker`] each write it once.  Every
//! handle-level entry point is a provided method of [`ServeEngine`] over
//! that body — [`ServeEngine::search_weighted`],
//! [`ServeEngine::search_batch`] / [`ServeEngine::search_batch_weighted`]
//! (one [`must_graph::par::par_map_with`] fork–join) and
//! [`ServeEngine::serve`] (a [`ServeRuntime`] fed from a channel) — so a
//! default-weight query and an overridden one, one-off or batched or
//! queued, do the same work in the same order on either engine.  The
//! runtime's [`ServeRuntime::start`] is the layer's one long-lived thread
//! pool; a batch is a fork–join.
//!
//! ## The runtime
//!
//! * **One queue.**  Every submission appends one job to a single
//!   `Mutex<VecDeque>`; an idle worker waits on a `Condvar` and takes the
//!   oldest job.  Workers and producers read the queue, the waiting count
//!   and the shutdown flag under the same lock, so no wake-up can be lost
//!   and an idle runtime burns no CPU; a producer signals only when a
//!   worker is waiting.
//! * **Batch affinity.**  A [`ServeRuntime::submit_batch`] call is one job:
//!   its queries run back-to-back on one worker's warm scratch, never
//!   interleaved with other traffic.
//! * **Panic isolation.**  A query that panics inside the engine is
//!   answered with [`MustError::Panicked`], and its worker carries on with
//!   a freshly minted engine worker: the panic costs that query's reply
//!   and nothing else.  [`ServeEngine::search_batch`] isolates its queries
//!   the same way.
//! * **Drain-on-shutdown.**  [`ServeRuntime::shutdown`] sets the flag under
//!   the queue lock and wakes every worker; a worker exits only when it
//!   finds the queue empty with the flag set, so every request submitted
//!   before it gets exactly one reply — pinned by the stress test in
//!   `tests/serving.rs` and the seeded fault schedules in
//!   `crates/core/tests/runtime_faults.rs`.
//!
//! ## Why bit-identity survives any worker count
//!
//! A served query's result is a pure function of `(snapshot, query,
//! weights, k, l)` — the per-query RNG seed is a serving constant and the
//! scratch state is reset per search ([`crate::server`]'s contract).  The
//! runtime only changes *which* worker runs a query, never the work the
//! query performs, so replies are bit-identical to serial execution in any
//! interleaving.  The same argument covers the sharded engine: a
//! [`crate::shard::ShardedWorker`] searches its shards in a fixed order
//! whichever runtime worker drives it.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
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
    /// errors are returned in their slot; so is a query that panicked, as
    /// [`MustError::Panicked`].
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
    /// affinity or counters, drive a [`ServeRuntime`] directly.
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

/// Runs one query on `worker`, turning a panic inside the engine into
/// [`MustError::Panicked`] for this query alone.  The worker is minted
/// afresh after a panic, since the unwound search may have left its
/// scratch half-written; on the normal path this costs nothing.
fn run_isolated<'e, E: ServeEngine>(
    engine: &'e E,
    worker: &mut E::Worker<'e>,
    query: &MultiQuery,
    weights: Option<&Weights>,
    k: usize,
    l: usize,
) -> Result<SearchOutcome, MustError> {
    match catch_unwind(AssertUnwindSafe(|| worker.run_query(query, weights, k, l))) {
        Ok(outcome) => outcome,
        Err(payload) => {
            *worker = engine.serve_worker();
            Err(MustError::Panicked(panic_message(payload.as_ref())))
        }
    }
}

/// The message of a `panic!` payload (a `&str` or a `String`).
fn panic_message(payload: &(dyn Any + Send)) -> String {
    match (payload.downcast_ref::<&str>(), payload.downcast_ref::<String>()) {
        (Some(msg), _) => (*msg).to_owned(),
        (None, Some(msg)) => msg.clone(),
        (None, None) => "panic with a non-string payload".to_owned(),
    }
}

/// The batch fan-out behind [`ServeEngine::search_batch`] and
/// [`ServeEngine::search_batch_weighted`]: one
/// [`must_graph::par::par_map_with`] call, each of its workers minting one
/// reusable engine worker and claiming chunks of `~n/(4·threads)` queries
/// off a shared cursor, so a ragged batch leaves at most one small chunk
/// of imbalance.  Outcomes come back in input order and — because
/// per-query work is deterministic and only *which* worker runs a query
/// changes — bit-identical for every thread count and every claiming
/// interleaving.  Every query runs through [`run_isolated`], so a
/// panicking query fills its own slot and no worker dies.
fn fan_out_batch<E: ServeEngine>(
    engine: &E,
    queries: &[MultiQuery],
    weights: Option<&Weights>,
    k: usize,
    l: usize,
    threads: usize,
) -> Vec<Result<SearchOutcome, MustError>> {
    must_graph::par::par_map_with(queries.len(), threads, || engine.serve_worker(), |worker, i| {
        run_isolated(engine, worker, &queries[i], weights, k, l)
    })
}

/// One submission: a single query or a whole batch, which one worker runs
/// back-to-back.  Each request carries its optional weight override.
type Job = Vec<(ServeRequest, Option<Weights>)>;

/// Everything workers wait on, under one lock.
#[derive(Default)]
struct Queue {
    /// Jobs in arrival order.
    jobs: VecDeque<Job>,
    /// Query units in `jobs`.
    queued: usize,
    /// Workers blocked on [`Shared::ready`]; a producer signals only when
    /// one is.
    waiting: usize,
    shutdown: bool,
}

struct Shared {
    queue: Mutex<Queue>,
    ready: Condvar,
    /// Query units each worker has completed.
    executed: Vec<AtomicU64>,
}

impl Shared {
    /// The queue lock.  Queries run outside it and nothing inside it can
    /// panic, so it is never poisoned.
    fn lock(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().expect("runtime queue poisoned")
    }

    /// Dequeues the oldest job, waiting while the queue is empty; `None`
    /// once shutdown has begun and the queue is drained.
    fn next_job(&self) -> Option<Job> {
        let mut queue = self.lock();
        loop {
            if let Some(job) = queue.jobs.pop_front() {
                queue.queued -= job.len();
                return Some(job);
            }
            if queue.shutdown {
                return None;
            }
            queue.waiting += 1;
            queue = self.ready.wait(queue).expect("runtime queue poisoned");
            queue.waiting -= 1;
        }
    }
}

/// A snapshot of the runtime's counters, for observability (the
/// `serve_runtime` example prints them live).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuntimeCounters {
    /// Queued (not yet started) query units: one entry, the one queue.
    pub lane_depths: Vec<usize>,
    /// Query units each worker has completed.
    pub executed: Vec<u64>,
    /// Always empty: one queue leaves nothing to steal.  Kept, like the
    /// one-entry `lane_depths`, for callers written against per-worker
    /// lanes (the repo benchmark's `core.runtime.*` metrics).
    pub stolen: Vec<u64>,
}

/// The serve loop: a fixed pool of workers over one shared queue, driven
/// by any number of producer threads through `&self` submission.  See the
/// module docs for the design and the determinism argument.
///
/// Replies flow to the `Sender<ServeReply>` given at [`ServeRuntime::start`];
/// a dropped receiver is tolerated (remaining requests still drain, their
/// replies are discarded).
pub struct ServeRuntime {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl ServeRuntime {
    /// Starts `workers` worker threads (clamped to at least 1) over a
    /// serving snapshot.  Each worker clones the engine handle (an `Arc`
    /// bump) and keeps one reusable [`ServeEngine::Worker`] for its whole
    /// lifetime — no per-request or per-batch thread spawning.
    #[must_use]
    #[allow(clippy::disallowed_methods)] // the serving layer's one long-lived pool
    pub fn start<E: ServeEngine>(engine: &E, workers: usize, replies: Sender<ServeReply>) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue::default()),
            ready: Condvar::new(),
            executed: (0..workers).map(|_| AtomicU64::new(0)).collect(),
        });
        let handles = (0..workers)
            .map(|me| {
                let shared = Arc::clone(&shared);
                let engine = engine.clone();
                let replies = replies.clone();
                std::thread::spawn(move || {
                    let mut worker = engine.serve_worker();
                    while let Some(job) = shared.next_job() {
                        let units = job.len() as u64;
                        for (req, weights) in job {
                            let outcome =
                                run_isolated(&engine, &mut worker, &req.query, weights.as_ref(), req.k, req.l);
                            // The caller may have stopped listening; keep draining regardless.
                            let _ = replies.send(ServeReply { id: req.id, outcome });
                        }
                        shared.executed[me].fetch_add(units, Ordering::Relaxed);
                    }
                })
            })
            .collect();
        Self { shared, handles }
    }

    /// Number of worker threads.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.shared.executed.len()
    }

    /// Submits one request under the snapshot's default weights.
    pub fn submit(&self, req: ServeRequest) {
        self.push(vec![(req, None)]);
    }

    /// Submits one request under a per-request weight override.
    pub fn submit_weighted(&self, req: ServeRequest, weights: Weights) {
        self.push(vec![(req, Some(weights))]);
    }

    /// Submits a batch as **one job** under the snapshot's default weights
    /// (`weights: None`) or one override for the whole batch: all its
    /// queries run back-to-back on a single worker, never interleaved
    /// with other traffic.
    pub fn submit_batch(&self, reqs: Vec<ServeRequest>, weights: Option<Weights>) {
        if reqs.is_empty() {
            return;
        }
        self.push(reqs.into_iter().map(|r| (r, weights.clone())).collect());
    }

    fn push(&self, job: Job) {
        let mut queue = self.shared.lock();
        queue.queued += job.len();
        queue.jobs.push_back(job);
        let wake = queue.waiting > 0;
        drop(queue);
        if wake {
            self.shared.ready.notify_one();
        }
    }

    /// Current counters: the queue depth and executed units per worker.
    #[must_use]
    pub fn counters(&self) -> RuntimeCounters {
        RuntimeCounters {
            lane_depths: self.lane_depths(),
            executed: self.shared.executed.iter().map(|e| e.load(Ordering::Relaxed)).collect(),
            stolen: Vec::new(),
        }
    }

    /// Queued (not yet started) query units, as a one-entry list: the
    /// runtime has one queue.
    #[must_use]
    pub fn lane_depths(&self) -> Vec<usize> {
        vec![self.shared.lock().queued]
    }

    /// Begins shutdown, lets the workers drain the queue, joins them, and
    /// returns the total number of query units served.  Every request
    /// submitted before this call gets exactly one reply.
    #[must_use]
    pub fn shutdown(mut self) -> usize {
        self.begin_shutdown();
        for h in self.handles.drain(..) {
            h.join().expect("a worker panicked outside a query");
        }
        self.shared.executed.iter().map(|e| e.load(Ordering::Relaxed)).sum::<u64>() as usize
    }

    fn begin_shutdown(&self) {
        self.shared.lock().shutdown = true;
        self.shared.ready.notify_all();
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::{Must, MustBuildOptions};
    use crate::server::MustServer;
    use must_vector::{FusedRows, VectorSetBuilder};
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
        let set = FusedRows::new(vec![m0.finish(), m1.finish()]).unwrap();
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
        // One queue, one executed count per worker, nothing to steal.
        let c = rt.counters();
        assert_eq!((c.lane_depths.len(), c.executed.len(), c.stolen.len()), (1, 4, 0));
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

    /// A push followed at once by `shutdown()` is still served: a worker
    /// never sees the shutdown flag without the request queued before it.
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
