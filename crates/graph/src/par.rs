//! Minimal data-parallel helpers over scoped std threads.
//!
//! The paper builds indexes with 64 threads and searches with 1
//! (Appendix F); we mirror that with std scoped threads instead of pulling
//! in a work-stealing runtime — construction is embarrassingly parallel
//! over vertex ranges.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};

/// Number of worker threads to use for index construction: the available
/// parallelism, capped by the `MUST_BUILD_THREADS` environment variable if
/// set.
pub fn build_threads() -> usize {
    let avail = std::thread::available_parallelism().map_or(1, usize::from);
    match std::env::var("MUST_BUILD_THREADS").ok().and_then(|v| v.parse::<usize>().ok()) {
        Some(t) if t > 0 => t.min(avail),
        _ => avail,
    }
}

/// Runs `f(i)` for every `i in 0..n`, producing a `Vec` of results, using
/// `threads` workers over contiguous chunks.  Deterministic output order.
pub fn par_map<T: Send, F: Fn(usize) -> T + Sync>(n: usize, threads: usize, f: F) -> Vec<T> {
    par_map_with(n, threads, || (), |(), i| f(i))
}

/// [`par_map`] with per-worker scratch: every worker calls `init` once and
/// hands the state to each `f(&mut state, i)` of its chunk, so an `O(n)`
/// buffer (a [`crate::search::VisitedSet`]) is allocated once per worker,
/// not once per item.  `f`'s result must not depend on what earlier items
/// left in the state — which worker, and so which state, an index meets
/// depends on `threads`.
pub fn par_map_with<S, T: Send>(
    n: usize,
    threads: usize,
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, usize) -> T + Sync,
) -> Vec<T> {
    if n == 0 {
        return Vec::new();
    }
    let threads = threads.max(1).min(n);
    if threads == 1 {
        let mut state = init();
        return (0..n).map(|i| f(&mut state, i)).collect();
    }
    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let chunk = n.div_ceil(threads);
    std::thread::scope(|scope| {
        for (t, slot) in out.chunks_mut(chunk).enumerate() {
            let (init, f) = (&init, &f);
            scope.spawn(move || {
                let mut state = init();
                let base = t * chunk;
                for (off, s) in slot.iter_mut().enumerate() {
                    *s = Some(f(&mut state, base + off));
                }
            });
        }
    });
    out.into_iter().map(|x| x.expect("all slots filled")).collect()
}

/// Shared state for a [`wave_pool`] — start/finish rendezvous for one pool
/// of persistent workers executing a sequence of parallel phases.
struct WaveShared {
    ctl: Mutex<WaveCtl>,
    start: Condvar,
    counter: AtomicUsize,
    chunk: AtomicUsize,
    fin: Mutex<usize>,
    fin_cv: Condvar,
    panicked: AtomicBool,
}

struct WaveCtl {
    epoch: u64,
    n: usize,
    shutdown: bool,
}

impl WaveShared {
    fn new() -> Self {
        Self {
            ctl: Mutex::new(WaveCtl { epoch: 0, n: 0, shutdown: false }),
            start: Condvar::new(),
            counter: AtomicUsize::new(0),
            chunk: AtomicUsize::new(1),
            fin: Mutex::new(0),
            fin_cv: Condvar::new(),
            panicked: AtomicBool::new(false),
        }
    }
}

/// Handle passed to the `driver` closure of [`wave_pool`]: each
/// [`WaveRunner::run`] dispatches one parallel phase to the persistent
/// workers (the calling thread participates as worker 0) and returns when
/// every item has been processed.
pub struct WaveRunner<'a> {
    shared: &'a WaveShared,
    worker: &'a (dyn Fn(usize, usize) + Sync),
    threads: usize,
}

impl WaveRunner<'_> {
    /// Runs `worker(worker_id, item)` for every `item in 0..n` across the
    /// pool, blocking until all items are done.  Items are claimed in
    /// chunks through an atomic counter, so skewed per-item costs balance;
    /// callers must not depend on *which* worker sees an item — only that
    /// each item runs exactly once per call.
    ///
    /// # Panics
    /// Propagates (as a panic on the calling thread) any panic raised by
    /// the worker closure on a pool thread.
    pub fn run(&self, n: usize) {
        if n == 0 {
            return;
        }
        let spawned = self.threads - 1;
        if spawned == 0 {
            for i in 0..n {
                (self.worker)(0, i);
            }
            return;
        }
        self.shared.counter.store(0, Ordering::Relaxed);
        self.shared.chunk.store((n / (self.threads * 8)).max(1), Ordering::Relaxed);
        *self.shared.fin.lock().expect("fin lock") = 0;
        {
            let mut ctl = self.shared.ctl.lock().expect("ctl lock");
            ctl.epoch += 1;
            ctl.n = n;
        }
        self.shared.start.notify_all();
        claim_items(self.shared, n, 0, self.worker);
        let mut fin = self.shared.fin.lock().expect("fin lock");
        while *fin < spawned {
            fin = self.shared.fin_cv.wait(fin).expect("fin wait");
        }
        drop(fin);
        assert!(
            !self.shared.panicked.load(Ordering::Relaxed),
            "wave_pool worker panicked"
        );
    }
}

fn claim_items(shared: &WaveShared, n: usize, w: usize, worker: &(dyn Fn(usize, usize) + Sync)) {
    let chunk = shared.chunk.load(Ordering::Relaxed);
    loop {
        let start = shared.counter.fetch_add(chunk, Ordering::Relaxed);
        if start >= n {
            return;
        }
        for i in start..(start + chunk).min(n) {
            worker(w, i);
        }
    }
}

fn wave_worker_loop(shared: &WaveShared, w: usize, worker: &(dyn Fn(usize, usize) + Sync)) {
    let mut seen = 0u64;
    loop {
        let n = {
            let mut ctl = shared.ctl.lock().expect("ctl lock");
            while ctl.epoch == seen && !ctl.shutdown {
                ctl = shared.start.wait(ctl).expect("ctl wait");
            }
            if ctl.shutdown {
                return;
            }
            seen = ctl.epoch;
            ctl.n
        };
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            claim_items(shared, n, w, worker);
        }));
        if caught.is_err() {
            shared.panicked.store(true, Ordering::Relaxed);
        }
        let mut fin = shared.fin.lock().expect("fin lock");
        *fin += 1;
        shared.fin_cv.notify_all();
    }
}

/// Signals shutdown to the pool workers even if the driver unwinds, so the
/// enclosing scope's implicit join can never deadlock.
struct WaveShutdown<'a>(&'a WaveShared);

impl Drop for WaveShutdown<'_> {
    fn drop(&mut self) {
        let mut ctl = self.0.ctl.lock().unwrap_or_else(PoisonError::into_inner);
        ctl.shutdown = true;
        drop(ctl);
        self.0.start.notify_all();
    }
}

/// A persistent scoped worker pool for wave-structured algorithms: spawn
/// `threads - 1` workers **once**, then run many short parallel phases
/// against them without re-spawning per phase (an HNSW build runs 2 phases
/// per wave × ~40 waves; spawning ~80 × T threads would dominate small
/// builds).
///
/// `worker(worker_id, item)` is the single phase body for the whole pool's
/// lifetime — multi-phase algorithms dispatch on shared state (e.g. an
/// `AtomicUsize` phase tag captured by the closure).  `driver` receives a
/// [`WaveRunner`] and interleaves `run(n)` calls (parallel phases) with
/// plain serial code; between `run`s the workers park on a condvar, so the
/// driver has exclusive access to anything the phases share.
///
/// With `threads == 1` no threads are spawned and `run` degenerates to a
/// sequential loop — the degenerate pool is how thread-count-invariant
/// algorithms get tested against their parallel selves.
pub fn wave_pool<R>(
    threads: usize,
    worker: &(impl Fn(usize, usize) + Sync),
    driver: impl FnOnce(&WaveRunner<'_>) -> R,
) -> R {
    let threads = threads.max(1);
    let shared = WaveShared::new();
    let worker: &(dyn Fn(usize, usize) + Sync) = worker;
    if threads == 1 {
        let runner = WaveRunner { shared: &shared, worker, threads: 1 };
        return driver(&runner);
    }
    std::thread::scope(|scope| {
        for w in 1..threads {
            let shared = &shared;
            scope.spawn(move || wave_worker_loop(shared, w, worker));
        }
        let _guard = WaveShutdown(&shared);
        let runner = WaveRunner { shared: &shared, worker, threads };
        driver(&runner)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn par_map_preserves_order() {
        let v = par_map(1000, 7, |i| i * 2);
        assert_eq!(v.len(), 1000);
        for (i, x) in v.iter().enumerate() {
            assert_eq!(*x, i * 2);
        }
    }

    #[test]
    fn par_map_with_builds_one_state_per_worker() {
        for threads in [1, 3] {
            let states = AtomicUsize::new(0);
            let init = || {
                states.fetch_add(1, Ordering::Relaxed);
                0usize
            };
            // Every item sees the state its worker's earlier items left.
            let seen = par_map_with(90, threads, init, |calls, i| {
                *calls += 1;
                (i, *calls)
            });
            assert_eq!(states.load(Ordering::Relaxed), threads);
            for (i, (idx, calls)) in seen.into_iter().enumerate() {
                assert_eq!((idx, calls), (i, i % (90 / threads) + 1), "threads {threads}");
            }
        }
    }

    #[test]
    fn par_map_handles_edge_cases() {
        assert!(par_map(0, 4, |i| i).is_empty());
        assert_eq!(par_map(1, 4, |i| i + 1), vec![1]);
        assert_eq!(par_map(5, 1, |i| i), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn build_threads_is_positive() {
        assert!(build_threads() >= 1);
    }

    #[test]
    fn wave_pool_runs_every_item_once_per_phase() {
        for threads in [1, 2, 4] {
            let marks: Vec<AtomicU64> = (0..500).map(|_| AtomicU64::new(0)).collect();
            let worker = |_w: usize, i: usize| {
                marks[i].fetch_add(1, Ordering::Relaxed);
            };
            wave_pool(threads, &worker, |pool| {
                for phase in 1..=4u64 {
                    pool.run(500);
                    // Between runs the driver has the pool parked: every
                    // item must have been hit exactly `phase` times.
                    for (i, m) in marks.iter().enumerate() {
                        assert_eq!(m.load(Ordering::Relaxed), phase, "item {i} T={threads}");
                    }
                }
                pool.run(0); // empty phase is a no-op
            });
        }
    }

    #[test]
    fn wave_pool_phases_see_prior_serial_writes() {
        // The driver mutates shared state between phases; workers must
        // observe it (the condvar rendezvous is the synchronisation edge).
        let bias = Mutex::new(0u64);
        let out: Vec<AtomicU64> = (0..256).map(|_| AtomicU64::new(0)).collect();
        let worker = |_w: usize, i: usize| {
            let b = *bias.lock().expect("bias");
            out[i].store(b + i as u64, Ordering::Relaxed);
        };
        wave_pool(4, &worker, |pool| {
            for round in 0..3u64 {
                *bias.lock().expect("bias") = round * 1_000;
                pool.run(256);
                for (i, o) in out.iter().enumerate() {
                    assert_eq!(o.load(Ordering::Relaxed), round * 1_000 + i as u64);
                }
            }
        });
    }
}
