//! Driving the serve runtime.
//!
//! **Open loop** ([`segment`]): a generator walks a fixed-rate virtual
//! schedule (request `i` is *due* at `i / rate`) and submits into the
//! runtime; a collector blocks on the reply channel and stamps every
//! reply.  Latency runs from the *due* time, so a late generator or a
//! backed-up lane charges its delay to the requests it held up.
//!
//! **In-flight loop** ([`in_flight_window`]): one caller keeps a fixed
//! number of requests outstanding — submit, and on every reply submit the
//! next.  Closed, so a stall of the host costs one sample instead of a
//! queue of them; this is the loop whose numbers repeat on a 2-vCPU
//! virtual machine, and the one the end-to-end metrics come from.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use must_core::runtime::{ServeEngine, ServeRuntime};
use must_core::{ServeReply, ServeRequest};
use must_vector::Weights;

use crate::closed::Window;
use crate::inputs::{SetUp, K, L};

/// When request `i` of a schedule with `interval_ns` between arrivals is
/// due, in ns after the schedule's start.
pub fn due_ns(i: usize, interval_ns: f64) -> u64 {
    (i as f64 * interval_ns) as u64
}

/// Client-observed latency of a request: reply time minus *due* time
/// (not send time).  A generator that sent late has already delayed the
/// request, and that delay is the client's to bear.
pub fn latency_ns(reply_ns: u64, i: usize, interval_ns: f64) -> u64 {
    reply_ns.saturating_sub(due_ns(i, interval_ns))
}

/// What one open-loop segment observed.
pub struct Segment {
    pub sent: usize,
    /// Requests that errored, got no reply, or got more than one.
    pub failed: usize,
    /// Due→reply latency per request id (ns); 0 where no reply came.
    pub lat_ns: Vec<u64>,
    /// Latency minus the engine's own `SearchOutcome::secs`: queueing,
    /// hand-off, scorer construction and the reply channel (ns).
    pub nonservice_ns: Vec<u64>,
    /// How late each send was against its due time (ns).
    pub late_ns: Vec<u64>,
    /// Schedule start to last reply.
    pub wall_secs: f64,
    /// Deepest lane the generator saw (sampled every 64 sends).
    pub lane_depth_max: usize,
    pub stolen: u64,
    /// Wall clock of `ServeRuntime::shutdown` (drain + join).
    pub drain_secs: f64,
}

struct Collected {
    reply_ns: Vec<u64>,
    service_ns: Vec<u64>,
    unique_ok: usize,
    last_ns: u64,
}

fn collect(rx: mpsc::Receiver<ServeReply>, t0: Instant, n: usize) -> Collected {
    let mut c = Collected {
        reply_ns: vec![0; n],
        service_ns: vec![0; n],
        unique_ok: 0,
        last_ns: 0,
    };
    let mut seen = vec![false; n];
    // Ends when the runtime's workers have exited and dropped their
    // senders, i.e. after `shutdown` drained every lane.
    for rep in rx {
        let now = t0.elapsed().as_nanos() as u64;
        c.last_ns = now;
        let id = rep.id as usize;
        let first = id < n && !std::mem::replace(&mut seen[id], true);
        match (first, rep.outcome) {
            (true, Ok(out)) => {
                c.unique_ok += 1;
                c.reply_ns[id] = now;
                c.service_ns[id] = (out.secs * 1e9) as u64;
            }
            // A duplicate voids the request it duplicates; an error or an
            // unknown id never counted.
            (false, _) if id < n && c.reply_ns[id] != 0 => {
                c.unique_ok -= 1;
                c.reply_ns[id] = 0;
            }
            _ => {}
        }
    }
    c
}

/// Offers `n` requests at `rate` per second (`f64::INFINITY` submits the
/// whole backlog at once) to `workers` runtime workers, cycling the
/// set-up's queries under the weights each carries.
pub fn segment<E: ServeEngine>(
    engine: &E,
    setup: &SetUp,
    overrides: &[Weights],
    workers: usize,
    rate: f64,
    n: usize,
) -> Segment {
    let interval_ns = 1e9 / rate;
    let (tx, rx) = mpsc::channel();
    let runtime = ServeRuntime::start(engine, workers, tx);
    let t0 = Instant::now();
    let collector = std::thread::spawn(move || collect(rx, t0, n));
    let mut late_ns = Vec::with_capacity(n);
    let mut lane_depth_max = 0;
    for i in 0..n {
        let due = due_ns(i, interval_ns);
        let mut now = t0.elapsed().as_nanos() as u64;
        while now < due {
            // Sleep-paced, never spinning: the generator shares the host
            // with the workers it is loading.
            std::thread::sleep(Duration::from_nanos(due - now));
            now = t0.elapsed().as_nanos() as u64;
        }
        late_ns.push(now - due);
        submit(&runtime, setup, overrides, i);
        if i % 64 == 0 {
            let deepest = runtime.lane_depths().into_iter().max().unwrap_or(0);
            lane_depth_max = lane_depth_max.max(deepest);
        }
    }
    let stolen = runtime.counters().stolen.iter().sum();
    let t = Instant::now();
    let served = runtime.shutdown();
    let drain_secs = t.elapsed().as_secs_f64();
    let c = collector.join().expect("collector panicked");
    let lat_ns: Vec<u64> = c
        .reply_ns
        .iter()
        .enumerate()
        .map(|(i, &r)| {
            if r == 0 {
                0
            } else {
                latency_ns(r, i, interval_ns).max(1)
            }
        })
        .collect();
    let nonservice_ns = lat_ns
        .iter()
        .zip(&c.service_ns)
        .map(|(l, s)| l.saturating_sub(*s))
        .collect();
    // `served` counts executed units; a unit executed without a unique,
    // successful reply is a failure all the same.
    let failed = n - c.unique_ok.min(served);
    Segment {
        sent: n,
        failed,
        lat_ns,
        nonservice_ns,
        late_ns,
        wall_secs: c.last_ns as f64 / 1e9,
        lane_depth_max,
        stolen,
        drain_secs,
    }
}

/// Requests the in-flight loop keeps outstanding per runtime worker: one
/// being served and one queued behind it, so a worker never parks while
/// the caller is being scheduled.
const IN_FLIGHT_PER_WORKER: usize = 2;

/// Submits request `id`: query `id mod n` under the weights it carries.
pub fn submit(runtime: &ServeRuntime, setup: &SetUp, overrides: &[Weights], id: usize) {
    let qi = id % setup.queries.len();
    let req = ServeRequest {
        id: id as u64,
        query: setup.queries[qi].clone(),
        k: K,
        l: L,
    };
    match setup.weights_of(qi, overrides) {
        Some(w) => runtime.submit_weighted(req, w.clone()),
        None => runtime.submit(req),
    }
}

/// One window of the in-flight loop through `workers` runtime workers:
/// latency is submit→reply per request, throughput is replies per second.
pub fn in_flight_window<E: ServeEngine>(
    engine: &E,
    setup: &SetUp,
    overrides: &[Weights],
    workers: usize,
    window: Duration,
) -> Window {
    let (tx, rx) = mpsc::channel();
    let runtime = ServeRuntime::start(engine, workers, tx);
    let mut sent_ns: Vec<u64> = Vec::with_capacity(1 << 16);
    let mut lat_ns = Vec::with_capacity(1 << 16);
    let mut failed = 0;
    let start = Instant::now();
    for _ in 0..IN_FLIGHT_PER_WORKER * workers {
        sent_ns.push(start.elapsed().as_nanos() as u64);
        submit(&runtime, setup, overrides, sent_ns.len() - 1);
    }
    let mut outstanding = sent_ns.len();
    while outstanding > 0 {
        let rep = rx.recv().expect("runtime workers outlive their lanes");
        let now = start.elapsed().as_nanos() as u64;
        // `u64::MAX` marks a request already answered: a second reply to
        // it, like an error or an unknown id, is a failure.
        match sent_ns.get_mut(rep.id as usize) {
            Some(sent) if *sent != u64::MAX && rep.outcome.is_ok() => {
                lat_ns.push(now - *sent);
                *sent = u64::MAX;
            }
            _ => failed += 1,
        }
        outstanding -= 1;
        if start.elapsed() < window {
            sent_ns.push(start.elapsed().as_nanos() as u64);
            submit(&runtime, setup, overrides, sent_ns.len() - 1);
            outstanding += 1;
        }
    }
    let secs = start.elapsed().as_secs_f64();
    let served = runtime.shutdown();
    failed += sent_ns.len() - lat_ns.len().min(served);
    lat_ns.sort_unstable();
    Window {
        ops: sent_ns.len(),
        failed,
        secs,
        lat_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_runs_from_the_due_time() {
        let interval = 1000.0; // 1 µs between arrivals
        assert_eq!(due_ns(0, interval), 0);
        assert_eq!(due_ns(3, interval), 3000);
        // Request 3 was due at 3000 ns, sent 500 ns late, served in 200 ns:
        // the reply lands at 3700 and the client waited 700, not 200.
        assert_eq!(latency_ns(3700, 3, interval), 700);
        // A backlog submitted at once (rate = inf) is all due at 0.
        assert_eq!(due_ns(7, 1e9 / f64::INFINITY), 0);
        assert_eq!(latency_ns(42, 7, 0.0), 42);
    }

    #[test]
    fn collector_counts_each_request_once() {
        use must_core::search::SearchOutcome;
        use must_graph::SearchStats;
        let ok = |id| ServeReply {
            id,
            outcome: Ok(SearchOutcome {
                results: Vec::new(),
                stats: SearchStats::default(),
                kernel_evals: 0,
                secs: 1e-6,
            }),
        };
        let (tx, rx) = mpsc::channel();
        for rep in [ok(0), ok(1), ok(1), ok(9)] {
            tx.send(rep).unwrap();
        }
        tx.send(ServeReply {
            id: 2,
            outcome: Err(must_core::MustError::Config("x".into())),
        })
        .unwrap();
        drop(tx);
        let c = collect(rx, Instant::now(), 4);
        // 0 answered once; 1 duplicated (void); 2 errored; 3 never came;
        // 9 was never asked.
        assert_eq!(c.unique_ok, 1);
        assert!(c.reply_ns[0] > 0);
        assert_eq!(&c.reply_ns[1..], &[0, 0, 0]);
        assert_eq!(c.service_ns[0], 1000);
    }
}
