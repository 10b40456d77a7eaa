//! The one fork–join map every parallel phase runs on.
//!
//! The paper builds indexes with 64 threads and searches with 1
//! (Appendix F); we mirror that with std scoped threads instead of pulling
//! in a work-stealing runtime — construction is embarrassingly parallel
//! over vertex ranges.  Every build phase (NN-descent rounds, candidate
//! acquisition, neighbour selection, each parallel phase of an HNSW wave)
//! and the batch fan-out of the serving layer
//! (`must_core::runtime::ServeEngine::search_batch`) is one
//! [`par_map_with`] call; `std::thread::scope` appears nowhere else in
//! this crate or in `must-core` (their `clippy.toml` enforces it).

use std::sync::atomic::{AtomicUsize, Ordering};

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

/// Runs `f(i)` for every `i in 0..n` on `threads` workers and returns the
/// results in index order (see [`par_map_with`]).
pub fn par_map<T: Send, F: Fn(usize) -> T + Sync>(n: usize, threads: usize, f: F) -> Vec<T> {
    par_map_with(n, threads, || (), |(), i| f(i))
}

/// Runs `f(&mut state, i)` for every `i in 0..n` on `min(threads, n)`
/// scoped workers and returns the results in index order.
///
/// Every worker calls `init` once and hands its state to each item it
/// runs, so an `O(n)` buffer (a [`crate::search::SearchScratch`]) is
/// allocated once per worker, not once per item.  Workers claim chunks of
/// `⌈n / (4·threads)⌉` items off one atomic cursor until none are left:
/// small enough to level a ragged or skewed tail, large enough that the
/// cursor is touched rarely.  Which worker, and so which state, an item
/// meets therefore varies from run to run — `f`'s result must not depend
/// on what earlier items left in the state.
///
/// # Panics
/// A panic inside `f` or `init` resumes on the caller with its own
/// payload (the first worker's, in worker order, if several panic).
pub fn par_map_with<S, T: Send>(
    n: usize,
    threads: usize,
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, usize) -> T + Sync,
) -> Vec<T> {
    if n == 0 {
        return Vec::new();
    }
    let threads = threads.clamp(1, n);
    if threads == 1 {
        let mut state = init();
        return (0..n).map(|i| f(&mut state, i)).collect();
    }
    let chunk = n.div_ceil(4 * threads);
    let cursor = AtomicUsize::new(0);
    let work = || {
        let mut state = init();
        let mut ran = Vec::new();
        loop {
            let start = cursor.fetch_add(chunk, Ordering::Relaxed);
            if start >= n {
                return ran;
            }
            ran.extend((start..(start + chunk).min(n)).map(|i| (i, f(&mut state, i))));
        }
    };
    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    // The one fork point of the build and batch paths.
    #[allow(clippy::disallowed_methods)]
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads).map(|_| scope.spawn(work)).collect();
        for worker in workers {
            let ran = worker.join().unwrap_or_else(|payload| std::panic::resume_unwind(payload));
            for (i, x) in ran {
                out[i] = Some(x);
            }
        }
    });
    out.into_iter().map(|x| x.expect("every index claimed exactly once")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

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
        for threads in [1, 2, 3, 4, 7] {
            for n in [0, 1, 17, 90, 1000] {
                let states = AtomicUsize::new(0);
                let runs: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                let init = || states.fetch_add(1, Ordering::Relaxed);
                let out = par_map_with(n, threads, init, |_, i| {
                    runs[i].fetch_add(1, Ordering::Relaxed);
                    i
                });
                let case = format!("threads {threads}, n {n}");
                assert_eq!(out, (0..n).collect::<Vec<_>>(), "{case}: index order");
                assert!(runs.iter().all(|r| r.load(Ordering::Relaxed) == 1), "{case}: each item once");
                assert_eq!(states.load(Ordering::Relaxed), threads.min(n), "{case}: one state per worker");
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
    fn a_panicking_item_resumes_with_its_own_payload() {
        for threads in [1, 4] {
            let caught = std::panic::catch_unwind(|| {
                par_map(100, threads, |i| if i == 37 { panic!("item 37 failed") } else { i })
            });
            let payload = caught.expect_err("item 37 panics");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"item 37 failed"), "threads {threads}");
        }
    }

    #[test]
    fn build_threads_is_positive() {
        assert!(build_threads() >= 1);
    }
}
