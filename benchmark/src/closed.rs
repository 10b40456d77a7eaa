//! The closed loop (`clients` callers, each owning one reusable engine
//! worker and issuing its next query only after the previous one
//! returned) and the untimed recall pass.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use must_core::recall_at;
use must_core::runtime::{EngineWorker, ServeEngine};
use must_core::search::SearchOutcome;
use must_vector::{MultiQuery, ObjectId, Weights};

use crate::inputs::{SetUp, K, L};

/// What one timed window observed.
pub struct Window {
    /// Operations completed (failed ones included).
    pub ops: usize,
    pub failed: usize,
    /// From the common start to the last caller's return.
    pub secs: f64,
    /// Per-operation latency as the caller saw it, ascending (ns).
    pub lat_ns: Vec<u64>,
}

/// One closed-loop window of `window` length: every caller times each
/// call from just before it to just after its return, so scorer
/// construction and result assembly are inside the latency.
pub fn window<E: ServeEngine + Sync>(
    engine: &E,
    queries: &[MultiQuery],
    clients: usize,
    window: Duration,
) -> Window {
    let barrier = Barrier::new(clients);
    let per_client: Vec<(Vec<u64>, usize, f64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let barrier = &barrier;
                scope.spawn(move || {
                    // Worker construction (the O(n) visited stamps) stays
                    // outside the window, as a long-lived caller's would.
                    let mut worker = engine.serve_worker();
                    let mut lat = Vec::with_capacity(1 << 16);
                    let mut failed = 0usize;
                    // Callers start a fraction of the query set apart, so
                    // they never walk the same rows in lock-step.
                    let mut i = c * queries.len() / clients;
                    barrier.wait();
                    let start = Instant::now();
                    while start.elapsed() < window {
                        let t = Instant::now();
                        let out = worker.run_query(&queries[i], None, K, L);
                        lat.push(t.elapsed().as_nanos() as u64);
                        failed += usize::from(out.is_err());
                        i = (i + 1) % queries.len();
                    }
                    (lat, failed, start.elapsed().as_secs_f64())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop caller panicked"))
            .collect()
    });
    let mut lat_ns = Vec::new();
    let (mut failed, mut secs) = (0, 0.0f64);
    for (lat, f, s) in per_client {
        lat_ns.extend(lat);
        failed += f;
        secs = secs.max(s);
    }
    lat_ns.sort_unstable();
    Window {
        ops: lat_ns.len(),
        failed,
        secs,
        lat_ns,
    }
}

/// Runs query `i` of the set-up under the weights it carries.
pub fn run_query<W: EngineWorker>(
    worker: &mut W,
    setup: &SetUp,
    overrides: &[Weights],
    i: usize,
) -> SearchOutcome {
    worker
        .run_query(&setup.queries[i], setup.weights_of(i, overrides), K, L)
        .expect("workload queries are well-formed")
}

/// Mean recall@10 of `outcomes` against the exact joint oracle.
pub fn recall(outcomes: &[SearchOutcome], ground_truth: &[Vec<ObjectId>]) -> f64 {
    let sum: f64 = outcomes
        .iter()
        .zip(ground_truth)
        .map(|(out, truth)| {
            let ids: Vec<ObjectId> = out.results.iter().map(|r| r.0).collect();
            recall_at(&ids, truth, K)
        })
        .sum();
    sum / outcomes.len() as f64
}

/// One deterministic, untimed, single-thread pass over every query:
/// the outcomes recall is scored on (never inside a timed region).
pub fn full_pass<E: ServeEngine>(
    engine: &E,
    setup: &SetUp,
    overrides: &[Weights],
) -> Vec<SearchOutcome> {
    let mut worker = engine.serve_worker();
    (0..setup.queries.len())
        .map(|i| run_query(&mut worker, setup, overrides, i))
        .collect()
}
