//! The serve runtime and the batch fan-out under a seeded fault engine: a
//! test-only [`ServeEngine`] whose worker answers, errs, panics or sleeps
//! as a pure function of `(seed, request id)`, driven by randomised submit /
//! submit_weighted / submit_batch schedules from several producers and
//! shut down either at once or after the last reply.  Over hundreds of
//! seeds:
//!
//! * every submitted id is answered exactly once, with the fault its id
//!   selects (so `submitted = replied_ok + replied_err`): a panicking
//!   query costs its own reply, as [`MustError::Panicked`], and nothing
//!   else — the worker behind it serves on with a fresh engine worker;
//! * `shutdown()` returns and counts every unit;
//! * no queued unit is left behind once every reply is in.
#![allow(clippy::disallowed_methods)] // simulates concurrent clients

use std::collections::HashMap;
use std::sync::mpsc;
use std::time::Duration;

use must_core::runtime::{EngineWorker, ServeEngine, ServeRuntime};
use must_core::search::SearchOutcome;
use must_core::server::{ServeReply, ServeRequest};
use must_core::MustError;
use must_vector::{MultiQuery, Weights};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// What the fault engine does with one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fault {
    Answer,
    Err,
    Panic,
    Sleep,
}

/// The fault request `id` meets under `seed`: one in eight errs, one in
/// eight panics, one in eight sleeps before answering, the rest answer at
/// once.
fn fault(seed: u64, id: u64) -> Fault {
    let mut rng = StdRng::seed_from_u64(seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    match rng.random_range(0..8u32) {
        0 => Fault::Err,
        1 => Fault::Panic,
        2 => Fault::Sleep,
        _ => Fault::Answer,
    }
}

/// The similarity an answer carries: whether the request had an override.
fn sim(weighted: bool) -> f32 {
    if weighted {
        2.0
    } else {
        1.0
    }
}

#[derive(Clone)]
struct FaultEngine {
    seed: u64,
}

struct FaultWorker {
    seed: u64,
    /// Set just before a panic: a worker that served on after one would
    /// answer with a stale error instead of its fault.
    unwound: bool,
}

impl ServeEngine for FaultEngine {
    type Worker<'a> = FaultWorker;

    fn serve_worker(&self) -> FaultWorker {
        FaultWorker { seed: self.seed, unwound: false }
    }
}

impl EngineWorker for FaultWorker {
    fn run_query(
        &mut self,
        query: &MultiQuery,
        weights: Option<&Weights>,
        _k: usize,
        _l: usize,
    ) -> Result<SearchOutcome, MustError> {
        let id = query.slot(0).expect("one slot")[0] as u64;
        let answer = || SearchOutcome {
            results: vec![(id as u32, sim(weights.is_some()))],
            stats: Default::default(),
            kernel_evals: 0,
            secs: 0.0,
        };
        if self.unwound {
            return Err(MustError::Config("served by a worker that panicked".into()));
        }
        match fault(self.seed, id) {
            Fault::Answer => Ok(answer()),
            Fault::Err => Err(MustError::Config(format!("fault {id}"))),
            Fault::Panic => {
                self.unwound = true;
                panic!("fault {id}")
            }
            Fault::Sleep => {
                std::thread::sleep(Duration::from_micros(50));
                Ok(answer())
            }
        }
    }
}

/// The request id rides in the query's one component (exact in f32 for
/// every id these tests use).
fn request(id: u64) -> ServeRequest {
    ServeRequest { id, query: MultiQuery::full(vec![vec![id as f32]]), k: 1, l: 1 }
}

/// Checks one reply against the fault its id selects.
fn check(seed: u64, rep: &ServeReply, weighted: bool) {
    let id = rep.id;
    match (fault(seed, id), &rep.outcome) {
        (Fault::Answer | Fault::Sleep, Ok(out)) => {
            assert_eq!(out.results, [(id as u32, sim(weighted))], "seed {seed} id {id}");
        }
        (Fault::Err, Err(MustError::Config(msg))) | (Fault::Panic, Err(MustError::Panicked(msg))) => {
            assert_eq!(*msg, format!("fault {id}"), "seed {seed}");
        }
        (f, other) => panic!("seed {seed} id {id}: fault {f:?} answered {other:?}"),
    }
}

/// One producer's submissions: singles (default or overridden) and
/// batches of 0–4 requests, ids `1000·p + j`.
enum Op {
    Single(u64, bool),
    Batch(Vec<u64>, bool),
}

#[test]
fn seeded_fault_schedules_answer_every_request_exactly_once() {
    let w = Weights::from_squared(vec![1.0]).unwrap();
    for seed in 0..300u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let workers = rng.random_range(1..5usize);
        let producers = rng.random_range(1..4u64);
        let wait_for_replies: bool = rng.random();
        let mut expect: HashMap<u64, bool> = HashMap::new();
        let plans: Vec<Vec<Op>> = (0..producers)
            .map(|p| {
                let mut next = 1000 * p;
                let mut id = || {
                    next += 1;
                    next
                };
                (0..rng.random_range(0..12u32))
                    .map(|_| {
                        let weighted: bool = rng.random();
                        if rng.random_range(0..5u32) < 3 {
                            let i = id();
                            expect.insert(i, weighted);
                            Op::Single(i, weighted)
                        } else {
                            let ids: Vec<u64> = (0..rng.random_range(0..5u32)).map(|_| id()).collect();
                            for &i in &ids {
                                expect.insert(i, weighted);
                            }
                            Op::Batch(ids, weighted)
                        }
                    })
                    .collect()
            })
            .collect();
        let total = expect.len();

        let (tx, rx) = mpsc::channel();
        let runtime = ServeRuntime::start(&FaultEngine { seed }, workers, tx);
        std::thread::scope(|scope| {
            for plan in &plans {
                let (runtime, w) = (&runtime, &w);
                scope.spawn(move || {
                    for op in plan {
                        match op {
                            Op::Single(id, false) => runtime.submit(request(*id)),
                            Op::Single(id, true) => runtime.submit_weighted(request(*id), w.clone()),
                            Op::Batch(ids, weighted) => runtime.submit_batch(
                                ids.iter().map(|&id| request(id)).collect(),
                                weighted.then(|| w.clone()),
                            ),
                        }
                    }
                });
            }
        });
        let mut replies = Vec::with_capacity(total);
        if wait_for_replies {
            for _ in 0..total {
                let rep = rx
                    .recv_timeout(Duration::from_secs(10))
                    .unwrap_or_else(|e| panic!("seed {seed}: a request got no reply ({e})"));
                replies.push(rep);
            }
            assert!(
                runtime.lane_depths().iter().all(|&d| d == 0),
                "seed {seed}: units left queued after every reply came in"
            );
        }
        assert_eq!(runtime.shutdown(), total, "seed {seed}: shutdown counts every unit");
        replies.extend(rx.iter());

        assert_eq!(replies.len(), total, "seed {seed}: one reply per request");
        for rep in &replies {
            let weighted = expect.remove(&rep.id).unwrap_or_else(|| {
                panic!("seed {seed}: reply for id {} twice or never submitted", rep.id)
            });
            check(seed, rep, weighted);
        }
    }
}

#[test]
fn seeded_fault_batches_fill_every_slot() {
    let w = Weights::from_squared(vec![1.0]).unwrap();
    for seed in 0..100u64 {
        let engine = FaultEngine { seed };
        let n = (seed % 37) as usize;
        let queries: Vec<MultiQuery> = (0..n as u64).map(|id| request(id).query).collect();
        for threads in [1, 2, 3, 4] {
            for weighted in [false, true] {
                let outs = if weighted {
                    engine.search_batch_weighted(&queries, &w, 1, 1, threads)
                } else {
                    engine.search_batch(&queries, 1, 1, threads)
                };
                assert_eq!(outs.len(), n, "seed {seed} threads {threads}");
                for (id, outcome) in outs.into_iter().enumerate() {
                    check(seed, &ServeReply { id: id as u64, outcome }, weighted);
                }
            }
        }
    }
}
