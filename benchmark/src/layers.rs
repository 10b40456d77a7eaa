//! The traced pass: per-layer numbers measured from outside, by driving
//! each layer's public functions the way the serving path does and
//! checking, query by query, that the pieces reassemble the product's own
//! answer bit for bit.
//!
//! Per query the engine's search is decomposed into spans —
//! `query → [route] → [shard →] scorer_build, walk → score, [rerank] →
//! [gather]` — and the layer table is folded from those spans.

use std::time::Instant;

use must_core::oracle::{MustQueryScorer, QuantizedQueryScorer};
use must_core::persist;
use must_core::runtime::{EngineWorker, ServeEngine, ServeRuntime};
use must_core::search::SearchOutcome;
use must_core::server::ServingIndex;
use must_core::shard::ShardedServer;
use must_core::{MustError, MustServer};
use must_graph::search::{beam_search_csr, SearchScratch};
use must_graph::{QueryScorer, SearchParams, SearchResult, SearchStats};
use must_vector::{kernels, MultiQuery, ObjectId, PartialIpVerdict, QuantizedRows, Weights};

use crate::closed;
use crate::inputs::{
    self, Engine, Host, Kind, SetUp, K, L, RATES, ROUTE_FAN_OUT, ROUTE_L_SHARD, SLO_US,
};
use crate::metrics::Values;
use crate::open;
use crate::stats::{mean, median, percentile, TAIL};
use crate::trace::{layer_totals, replay, RecordingScorer, ScoreCall, Trace};

/// `must_core::server`'s private per-query RNG seed for the CSR walk's
/// random pool fill.  Mirrored here so the walk can be driven from
/// outside; if the product's constant ever moves, the bit-identity check
/// below fails rather than the benchmark timing a different walk.
const SERVE_RNG_SEED: u64 = 0x5E7E_D05E_ED00;

/// A finding printed with the results; it does not fail the run.
pub type Findings = Vec<String>;

/// Operations whose outcome was checked, and how many failed.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
}

impl Tally {
    fn segment(&mut self, seg: open::Segment) -> open::Segment {
        self.attempted += seg.sent;
        self.failed += seg.failed;
        seg
    }
}

fn walk<S: QueryScorer>(
    index: &ServingIndex,
    scorer: &S,
    params: SearchParams,
    scratch: &mut SearchScratch,
) -> SearchResult {
    match index {
        ServingIndex::Csr(g) => beam_search_csr(g, scorer, params, scratch, SERVE_RNG_SEED),
        ServingIndex::Hnsw(h) => h.search_with_scratch(scorer, params, scratch),
    }
}

/// One unsharded snapshot (the engine itself, or one shard of it) plus
/// what probing it needs.
struct Unit<'a> {
    server: &'a MustServer,
    /// SQ8 codes for the kernel probes when the snapshot serves f32: the
    /// product path never touches them, the probes measure what scanning
    /// this corpus quantized would cost.
    probe_quant: Option<QuantizedRows>,
    scratch: SearchScratch,
    /// `Must::quantize`'s cost on this unit's rows (s).
    quantize_s: f64,
}

impl<'a> Unit<'a> {
    fn new(server: &'a MustServer) -> Self {
        let t = Instant::now();
        let quantized = server.objects().fused().quantize();
        let quantize_s = t.elapsed().as_secs_f64();
        let probe_quant = server.quant().is_none().then_some(quantized);
        let mut scratch = SearchScratch::default();
        scratch.reserve(server.len());
        Self {
            server,
            probe_quant,
            scratch,
            quantize_s,
        }
    }

    fn quant(&self) -> &QuantizedRows {
        self.server
            .quant()
            .or(self.probe_quant.as_ref())
            .expect("one of the two exists")
    }
}

/// The walk of one query on one unit: what the timed walk returned, and
/// (filled by the recording pass) the scorer calls it made.
struct WalkRecord {
    query: usize,
    unit: usize,
    walk_params: SearchParams,
    timed: SearchResult,
    calls: Vec<ScoreCall>,
}

/// What the decomposed search of one unit produced.
struct UnitOutcome {
    results: Vec<(ObjectId, f32)>,
    stats: SearchStats,
    fused_evals: u64,
    quant_evals: u64,
    /// Whether the exact re-rank changed the walk's own top-k.
    rerank_changed: bool,
}

/// Re-runs a timed walk with a recording scorer — outside every span —
/// and checks it retraces the timed walk exactly.
fn record_walk(
    units: &mut [Unit<'_>],
    rec: &mut WalkRecord,
    query: &MultiQuery,
    weights: &Weights,
) {
    let unit = &mut units[rec.unit];
    let (server, scratch) = (unit.server, &mut unit.scratch);
    let fused = server.objects().fused();
    let (again, calls) = match server.quant() {
        Some(q) => {
            let scorer =
                QuantizedQueryScorer::from_rows(q, query, weights, true).expect("valid query");
            let recording = RecordingScorer::new(&scorer);
            (
                walk(server.index(), &recording, rec.walk_params, scratch),
                recording.into_calls(),
            )
        }
        None => {
            let scorer =
                MustQueryScorer::from_rows(fused, query, weights, true).expect("valid query");
            let recording = RecordingScorer::new(&scorer);
            (
                walk(server.index(), &recording, rec.walk_params, scratch),
                recording.into_calls(),
            )
        }
    };
    assert_eq!(
        again, rec.timed,
        "recording walk diverged from the timed walk"
    );
    rec.calls = calls;
}

/// `ServerWorker::search_weighted_with_params`, stage by stage.
#[allow(clippy::too_many_arguments)]
fn decompose_unit(
    trace: &mut Trace,
    qid: u32,
    parent: &'static str,
    unit: &mut Unit<'_>,
    unit_idx: usize,
    query: &MultiQuery,
    weights: &Weights,
    params: SearchParams,
    records: &mut Vec<WalkRecord>,
) -> UnitOutcome {
    let server = unit.server;
    let fused = server.objects().fused();
    let index = server.index();
    let Some(quant) = server.quant() else {
        let t = trace.now_ns();
        let scorer = MustQueryScorer::from_rows(fused, query, weights, true).expect("valid query");
        trace.close(qid, "scorer_build", parent, t, 1);
        let t = trace.now_ns();
        let res = walk(index, &scorer, params, &mut unit.scratch);
        trace.close(qid, "walk", parent, t, res.stats.evaluated);
        let out = UnitOutcome {
            results: res.results.clone(),
            stats: res.stats,
            fused_evals: scorer.kernel_evals(),
            quant_evals: 0,
            rerank_changed: false,
        };
        records.push(WalkRecord {
            query: qid as usize,
            unit: unit_idx,
            walk_params: params,
            timed: res,
            calls: Vec::new(),
        });
        return out;
    };
    let t = trace.now_ns();
    let qscorer =
        QuantizedQueryScorer::from_rows(quant, query, weights, true).expect("valid query");
    let exact = MustQueryScorer::from_rows(fused, query, weights, false).expect("valid query");
    trace.close(qid, "scorer_build", parent, t, 2);
    let n = index.len();
    let rerank_k = params
        .k
        .saturating_mul(4)
        .min(n)
        .max(params.k.min(n))
        .max(1);
    let walk_params = SearchParams {
        k: rerank_k,
        l: params.l.max(rerank_k),
        random_init: params.random_init,
    };
    let t = trace.now_ns();
    let res = walk(index, &qscorer, walk_params, &mut unit.scratch);
    trace.close(qid, "walk", parent, t, res.stats.evaluated);
    let t = trace.now_ns();
    let mut pool: Vec<(u32, f32)> = res
        .results
        .iter()
        .map(|&(id, _)| (id, exact.score(id)))
        .collect();
    pool.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.0.cmp(&b.0))
    });
    pool.truncate(params.k);
    trace.close(qid, "rerank", parent, t, res.results.len() as u64);
    let rerank_changed =
        pool.iter()
            .map(|r| r.0)
            .ne(res.results.iter().take(params.k).map(|r| r.0));
    let out = UnitOutcome {
        results: pool,
        stats: res.stats,
        fused_evals: exact.kernel_evals(),
        quant_evals: qscorer.kernel_evals(),
        rerank_changed,
    };
    records.push(WalkRecord {
        query: qid as usize,
        unit: unit_idx,
        walk_params,
        timed: res,
        calls: Vec::new(),
    });
    out
}

/// `ShardedCore::route`, from the public summaries: the `fan_out` shards
/// with the highest weighted bound `Σ_k ω²_k (IP(q_k, c_k) + ‖q_k‖·r_k)`,
/// ascending.
fn route(
    server: &ShardedServer,
    query: &MultiQuery,
    weights: &Weights,
    fan_out: usize,
) -> Vec<usize> {
    let s = server.num_shards();
    if fan_out >= s {
        return (0..s).collect();
    }
    let rows = server.shard(0).objects().fused();
    let m = rows.num_modalities();
    let probes: Vec<(&[f32], f32)> = (0..m)
        .map(|k| {
            let q = query.slot(k).expect("workload queries are full");
            (q, kernels::ip(q, q).max(0.0).sqrt())
        })
        .collect();
    let mut terms = vec![0.0f32; m];
    let mut scored: Vec<(f32, usize)> = (0..s)
        .map(|i| {
            let summary = server.summary(i);
            for (k, term) in terms.iter_mut().enumerate() {
                let (q, norm) = probes[k];
                let (a, _) = rows.segment_bounds(k);
                *term =
                    kernels::ip(q, &summary.centroid()[a..a + q.len()]) + norm * summary.radii()[k];
            }
            (weights.weighted_sum(&terms), i)
        })
        .collect();
    scored.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
    let mut selected: Vec<usize> = scored
        .into_iter()
        .take(fan_out.max(1))
        .map(|(_, i)| i)
        .collect();
    selected.sort_unstable();
    selected
}

/// `ShardedCore::gather`: local→global ids, `(similarity desc, id asc)`,
/// closure-replica duplicates dropped, top `k`.
fn gather(
    server: &ShardedServer,
    per_shard: &[(usize, UnitOutcome)],
    k: usize,
) -> Vec<(ObjectId, f32)> {
    let mut results: Vec<(ObjectId, f32)> = Vec::new();
    for (s, out) in per_shard {
        let map = server.global_ids(*s);
        results.extend(
            out.results
                .iter()
                .map(|&(local, sim)| (map[local as usize], sim)),
        );
    }
    results.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    results.dedup_by(|a, b| a.0 == b.0);
    results.truncate(k);
    results
}

/// The decomposed search of one query: the engine-level outcome (summed
/// over the routed shards) and the units searched, in order.
fn decompose(
    trace: &mut Trace,
    engine: &Engine,
    units: &mut [Unit<'_>],
    qid: u32,
    query: &MultiQuery,
    weights: &Weights,
    records: &mut Vec<WalkRecord>,
) -> (UnitOutcome, Vec<usize>) {
    let root = trace.now_ns();
    let d = match engine {
        Engine::Single(_) => {
            let params = SearchParams::new(K, L);
            let out = decompose_unit(
                trace,
                qid,
                "query",
                &mut units[0],
                0,
                query,
                weights,
                params,
                records,
            );
            (out, vec![0])
        }
        Engine::Sharded(server) => {
            let t = trace.now_ns();
            let selected = route(server, query, weights, ROUTE_FAN_OUT);
            trace.close(qid, "route", "query", t, selected.len() as u64);
            let params = SearchParams::new(K, ROUTE_L_SHARD.max(K));
            let mut per_shard = Vec::with_capacity(selected.len());
            for &s in &selected {
                let t = trace.now_ns();
                let out = decompose_unit(
                    trace,
                    qid,
                    "shard",
                    &mut units[s],
                    s,
                    query,
                    weights,
                    params,
                    records,
                );
                trace.close(qid, "shard", "query", t, 1);
                per_shard.push((s, out));
            }
            let t = trace.now_ns();
            let results = gather(server, &per_shard, K);
            trace.close(qid, "gather", "query", t, results.len() as u64);
            let mut sum = UnitOutcome {
                results,
                stats: SearchStats::default(),
                fused_evals: 0,
                quant_evals: 0,
                rerank_changed: false,
            };
            for (_, out) in &per_shard {
                sum.stats.hops += out.stats.hops;
                sum.stats.evaluated += out.stats.evaluated;
                sum.stats.pruned += out.stats.pruned;
                sum.fused_evals += out.fused_evals;
                sum.quant_evals += out.quant_evals;
                sum.rerank_changed |= out.rerank_changed;
            }
            (sum, selected)
        }
    };
    trace.close(qid, "query", "", root, 1);
    d
}

/// Times the replay of one walk's calls on one unit (ns).
type ReplayOne<'f> = &'f dyn Fn(&Unit<'_>, &MultiQuery, &Weights, &[ScoreCall]) -> u64;

/// Replay totals of the bare evaluators (ns summed over every call).
struct Replayed {
    calls: u64,
    fused_ip_ns: u64,
    fused_pruned_ns: u64,
    quant_ip_ns: u64,
    quant_pruned_ns: u64,
}

fn timed(f: impl FnOnce() -> f32) -> u64 {
    let t = Instant::now();
    std::hint::black_box(f());
    t.elapsed().as_nanos() as u64
}

fn verdict(v: PartialIpVerdict) -> f32 {
    match v {
        PartialIpVerdict::Exact(x) => x,
        PartialIpVerdict::Pruned => 0.0,
    }
}

/// Replays every recorded walk: first against the product scorer the walk
/// was driven with (the `score` span, child of `walk`), then against the
/// bare f32 and SQ8 evaluators over the same candidate sequence.  Each
/// replay is its own pass over all walks, so that — as in serving — a
/// query finds its rows evicted by the thousand queries in between rather
/// than warm from the replay just before.
fn replay_all(
    trace: &mut Trace,
    units: &[Unit<'_>],
    setup: &SetUp,
    overrides: &[Weights],
    records: &[WalkRecord],
) -> Replayed {
    for rec in records {
        let unit = &units[rec.unit];
        let query = &setup.queries[rec.query];
        let weights = setup.effective_weights(rec.query, overrides);
        let start = trace.now_ns();
        let busy = match unit.server.quant() {
            Some(q) => {
                let s =
                    QuantizedQueryScorer::from_rows(q, query, weights, true).expect("valid query");
                timed(|| replay(&s, &rec.calls))
            }
            None => {
                let fused = unit.server.objects().fused();
                let s =
                    MustQueryScorer::from_rows(fused, query, weights, true).expect("valid query");
                timed(|| replay(&s, &rec.calls))
            }
        };
        let end = trace.now_ns();
        trace.aggregated(
            rec.query as u32,
            "score",
            "walk",
            (start, end),
            busy,
            rec.calls.len() as u64,
        );
    }

    let threshold = |c: &ScoreCall| c.threshold.unwrap_or(f32::NEG_INFINITY);
    // One pass per evaluator entry point; `f` times one walk's replay.
    let pass = |f: ReplayOne<'_>| -> u64 {
        records
            .iter()
            .map(|rec| {
                let weights = setup.effective_weights(rec.query, overrides);
                f(
                    &units[rec.unit],
                    &setup.queries[rec.query],
                    weights,
                    &rec.calls,
                )
            })
            .sum()
    };
    Replayed {
        calls: records.iter().map(|rec| rec.calls.len() as u64).sum(),
        fused_ip_ns: pass(&|unit, query, weights, calls| {
            let e = unit
                .server
                .objects()
                .fused()
                .query(query, weights)
                .expect("valid query");
            timed(|| calls.iter().map(|c| e.ip(c.id)).sum())
        }),
        fused_pruned_ns: pass(&|unit, query, weights, calls| {
            let e = unit
                .server
                .objects()
                .fused()
                .query(query, weights)
                .expect("valid query");
            timed(|| {
                calls
                    .iter()
                    .map(|c| verdict(e.ip_pruned(c.id, threshold(c))))
                    .sum()
            })
        }),
        quant_ip_ns: pass(&|unit, query, weights, calls| {
            let e = unit.quant().query(query, weights).expect("valid query");
            timed(|| calls.iter().map(|c| e.ip(c.id)).sum())
        }),
        quant_pruned_ns: pass(&|unit, query, weights, calls| {
            let e = unit.quant().query(query, weights).expect("valid query");
            timed(|| {
                calls
                    .iter()
                    .map(|c| verdict(e.ip_pruned(c.id, threshold(c))))
                    .sum()
            })
        }),
    }
}

/// Mean ns per call of `f` over every query (one timer pair around the
/// whole loop).
fn per_query_ns(
    setup: &SetUp,
    overrides: &[Weights],
    mut f: impl FnMut(&MultiQuery, &Weights),
) -> f64 {
    let t = Instant::now();
    for (i, q) in setup.queries.iter().enumerate() {
        f(q, setup.effective_weights(i, overrides));
    }
    t.elapsed().as_nanos() as f64 / setup.queries.len() as f64
}

fn host_probes(v: &mut Values) {
    const COPY_BYTES: usize = 64 << 20;
    let src = vec![1u8; COPY_BYTES];
    let mut dst = vec![0u8; COPY_BYTES];
    let gbps: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            dst.copy_from_slice(std::hint::black_box(&src));
            std::hint::black_box(&mut dst);
            COPY_BYTES as f64 / t.elapsed().as_secs_f64() / 1e9
        })
        .collect();
    v.set("host.memcpy_gbps", median(&gbps));
    const PAIRS: u32 = 200_000;
    let t = Instant::now();
    let mut acc = 0u128;
    for _ in 0..PAIRS {
        acc += Instant::now().elapsed().as_nanos();
    }
    std::hint::black_box(acc);
    v.set(
        "host.timer_ns",
        t.elapsed().as_nanos() as f64 / f64::from(PAIRS),
    );
}

/// Sequential kernel throughput over the first unit's stored rows.
fn kernel_probes(v: &mut Values, unit: &Unit<'_>) {
    let rows = unit.server.objects().fused();
    let stride = rows.stride();
    let data = rows.raw_data();
    let query = data[..stride].to_vec();
    // Enough passes that the loop runs for milliseconds on any corpus.
    let passes = (4_000_000 / rows.len()).max(1);
    let t = Instant::now();
    let mut acc = 0.0f32;
    for _ in 0..passes {
        for row in data.chunks_exact(stride) {
            acc += kernels::ip(row, &query);
        }
    }
    std::hint::black_box(acc);
    let secs = t.elapsed().as_secs_f64();
    let scanned = (passes * rows.len()) as f64;
    v.set("vector.kernels.ip_seq_ns_per_row", secs * 1e9 / scanned);
    v.set(
        "vector.kernels.ip_seq_gbps",
        scanned * (stride * 4) as f64 / secs / 1e9,
    );
    let t = Instant::now();
    let mut acc = 0.0f32;
    for _ in 0..passes {
        for id in 0..rows.len() as ObjectId {
            for k in 0..rows.num_modalities() {
                acc += kernels::l2_sq(rows.segment(id, k), rows.segment(0, k));
            }
        }
    }
    std::hint::black_box(acc);
    let calls = scanned * rows.num_modalities() as f64;
    v.set(
        "vector.kernels.l2_sq_seg_ns",
        t.elapsed().as_secs_f64() * 1e9 / calls,
    );
}

/// Unloaded request→reply time through a one-worker runtime, per query
/// (ns), for the first `n` queries.
fn unloaded_ns<E: ServeEngine>(
    engine: &E,
    setup: &SetUp,
    overrides: &[Weights],
    n: usize,
) -> Vec<f64> {
    let (tx, rx) = std::sync::mpsc::channel();
    let runtime = ServeRuntime::start(engine, 1, tx);
    let lat = (0..n)
        .map(|i| {
            let t = Instant::now();
            open::submit(&runtime, setup, overrides, i);
            let rep = rx.recv().expect("runtime replies");
            let ns = t.elapsed().as_nanos() as f64;
            assert_eq!(rep.id, i as u64);
            rep.outcome.expect("workload queries are well-formed");
            ns
        })
        .collect();
    assert_eq!(runtime.shutdown(), n);
    lat
}

fn sorted(mut v: Vec<u64>) -> Vec<u64> {
    v.sort_unstable();
    v
}

/// Median and tail of a segment's due→reply latencies (µs).
fn segment_p50_p99(seg: &open::Segment) -> (f64, f64) {
    let lat = sorted(seg.lat_ns.iter().copied().filter(|&l| l > 0).collect());
    (
        percentile(&lat, 50.0) as f64 / 1e3,
        percentile(&lat, TAIL) as f64 / 1e3,
    )
}

fn slo_miss_frac(seg: &open::Segment) -> f64 {
    // A request without a reply misses any limit.
    let missed = seg
        .lat_ns
        .iter()
        .filter(|&&l| l == 0 || l as f64 / 1e3 > SLO_US)
        .count();
    missed as f64 / seg.sent as f64
}

/// The runtime layer.  Every engine gets the unloaded hand-off cost and
/// the drain time; only the open workload runs through the runtime on its
/// product path, so only it reports the rate ladder.
#[allow(clippy::too_many_arguments)]
fn runtime_probes<E: ServeEngine>(
    v: &mut Values,
    engine: &E,
    setup: &SetUp,
    overrides: &[Weights],
    host: &Host,
    direct_ns: &[f64],
    seconds: f64,
    tally: &mut Tally,
) {
    let n = setup.queries.len().min(256);
    let via_runtime = unloaded_ns(engine, setup, overrides, n);
    tally.attempted += n;
    v.set(
        "core.runtime.idle_overhead_us",
        (mean(&via_runtime) - mean(&direct_ns[..n])) / 1e3,
    );
    let burst = tally.segment(open::segment(
        engine,
        setup,
        overrides,
        host.workers,
        f64::INFINITY,
        n,
    ));
    v.set("core.runtime.shutdown_drain_ms", burst.drain_secs * 1e3);

    if setup.spec.kind != Kind::Open {
        // Closed-loop callers bypass the runtime: what the client waits
        // for beyond the engine's own clock is scorer construction and
        // the return.
        let mut worker = engine.serve_worker();
        let nonservice = sorted(
            (0..setup.queries.len())
                .map(|i| {
                    let t = Instant::now();
                    let out = closed::run_query(&mut worker, setup, overrides, i);
                    (t.elapsed().as_nanos() as u64).saturating_sub((out.secs * 1e9) as u64)
                })
                .collect(),
        );
        v.set(
            "client.nonservice_us_p50",
            percentile(&nonservice, 50.0) as f64 / 1e3,
        );
        v.set(
            "client.nonservice_us_p99",
            percentile(&nonservice, TAIL) as f64 / 1e3,
        );
        for name in [
            "core.runtime.stolen_frac",
            "core.runtime.lane_depth_max",
            "open.r1.p50_x",
            "open.r1.p99_x",
            "open.r3.p50_x",
            "open.r3.p99_x",
            "open.r3.achieved_frac",
            "open.r2.slo_miss_frac",
            "open.r3.slo_miss_frac",
            "open.gen_late_p99_x",
            "open.weighted_p50_x",
        ] {
            v.set(name, 0.0);
        }
        return;
    }

    // The rate ladder: a quarter of the run's seconds at each rate.
    let [r1, r2, r3] = RATES.map(|rate| {
        tally.segment(open::segment(
            engine,
            setup,
            overrides,
            host.workers,
            rate,
            (rate * seconds / 4.0) as usize,
        ))
    });
    let (p50_2, p99_2) = segment_p50_p99(&r2);
    let (p50_1, p99_1) = segment_p50_p99(&r1);
    let (p50_3, p99_3) = segment_p50_p99(&r3);
    v.set("open.r1.p50_x", p50_1 / p50_2);
    v.set("open.r1.p99_x", p99_1 / p99_2);
    v.set("open.r3.p50_x", p50_3 / p50_2);
    v.set("open.r3.p99_x", p99_3 / p99_2);
    v.set(
        "open.r3.achieved_frac",
        r3.sent as f64 / r3.wall_secs / RATES[2],
    );
    v.set("open.r2.slo_miss_frac", slo_miss_frac(&r2));
    v.set("open.r3.slo_miss_frac", slo_miss_frac(&r3));
    let late = sorted(r2.late_ns.clone());
    v.set(
        "open.gen_late_p99_x",
        percentile(&late, TAIL) as f64 / (1e9 / RATES[1]),
    );
    let by_kind = |weighted: bool| {
        let lat = sorted(
            r2.lat_ns
                .iter()
                .enumerate()
                .filter(|(i, &l)| {
                    l > 0 && setup.overrides[i % setup.queries.len()].is_some() == weighted
                })
                .map(|(_, &l)| l)
                .collect(),
        );
        percentile(&lat, 50.0) as f64
    };
    v.set("open.weighted_p50_x", by_kind(true) / by_kind(false));
    let nonservice = sorted(r2.nonservice_ns.clone());
    v.set(
        "client.nonservice_us_p50",
        percentile(&nonservice, 50.0) as f64 / 1e3,
    );
    v.set(
        "client.nonservice_us_p99",
        percentile(&nonservice, TAIL) as f64 / 1e3,
    );
    v.set(
        "core.runtime.stolen_frac",
        r2.stolen as f64 / r2.sent as f64,
    );
    v.set("core.runtime.lane_depth_max", r2.lane_depth_max as f64);
}

/// The serving layer's batch entry point and worker construction, then
/// the runtime layer, on either engine.
#[allow(clippy::too_many_arguments)]
fn serving_probes<E: ServeEngine>(
    v: &mut Values,
    engine: &E,
    search_batch: impl Fn(&[MultiQuery]) -> Vec<Result<SearchOutcome, MustError>>,
    setup: &SetUp,
    overrides: &[Weights],
    host: &Host,
    direct_ns: &[f64],
    seconds: f64,
    tally: &mut Tally,
) {
    let t = Instant::now();
    for chunk in setup.queries.chunks(64) {
        tally.failed += search_batch(chunk).iter().filter(|r| r.is_err()).count();
    }
    tally.attempted += setup.queries.len();
    v.set(
        "core.server.batch64_qps",
        setup.queries.len() as f64 / t.elapsed().as_secs_f64(),
    );
    let t = Instant::now();
    for _ in 0..32 {
        std::hint::black_box(engine.serve_worker());
    }
    v.set(
        "core.server.worker_new_us",
        t.elapsed().as_secs_f64() * 1e6 / 32.0,
    );
    runtime_probes(v, engine, setup, overrides, host, direct_ns, seconds, tally);
}

/// Offline-side layer numbers: the single-thread build reference (and the
/// thread-count invariance of the bundle), raw bundle load, freeze.
fn offline_probes(v: &mut Values, setup: &SetUp, seed: u64, host: &Host, ok: &mut bool) {
    let n = setup.spec.n_base as f64;
    v.set("graph.build_us_per_object", setup.times.build * 1e6 / n);
    let embedded = inputs::embed(&setup.spec, seed);
    let base = inputs::prefix(&embedded.all, setup.spec.n_base);
    let t = Instant::now();
    let mut built = inputs::build(&setup.spec, base, &setup.weights, 1);
    let t1 = t.elapsed().as_secs_f64();
    v.set("graph.build_t1_s", t1);
    v.set("graph.par.build_speedup", t1 / setup.times.build);
    if let (true, inputs::Built::Single(m)) = (setup.spec.quantized, &mut built) {
        m.quantize();
    }
    let t1_bundle = setup.bundle.with_extension("t1");
    inputs::save(&built, &t1_bundle);
    if inputs::hash_file(&t1_bundle) != inputs::hash_file(&setup.bundle) {
        eprintln!(
            "FAIL: the T=1 build's bundle differs from the T={} build's",
            host.build_threads
        );
        *ok = false;
    }
    let _ = std::fs::remove_file(&t1_bundle);

    let t = Instant::now();
    if setup.spec.shards > 0 {
        let loaded = persist::load_sharded(&setup.bundle).expect("bundle load");
        v.set("core.persist.load_must_s", t.elapsed().as_secs_f64());
        let t = Instant::now();
        std::hint::black_box(ShardedServer::freeze(loaded));
        v.set("core.server.freeze_s", t.elapsed().as_secs_f64());
    } else {
        let loaded = persist::load(&setup.bundle).expect("bundle load");
        v.set("core.persist.load_must_s", t.elapsed().as_secs_f64());
        let t = Instant::now();
        std::hint::black_box(MustServer::freeze(loaded));
        v.set("core.server.freeze_s", t.elapsed().as_secs_f64());
    }
    v.set("core.persist.save_s", setup.times.save);
    v.set("core.persist.bundle_bytes", setup.bundle_bytes as f64);
    v.set("data.embed_s", setup.times.embed);
    v.set("core.weights.learn_s", setup.times.learn);
    v.set("core.search.ground_truth_s", setup.times.ground_truth);
    v.set("setup.build_s", setup.times.build + setup.times.quantize);
    v.set("setup.persist_s", setup.times.save + setup.times.load);
    let parts = setup.times.embed
        + setup.times.learn
        + setup.times.ground_truth
        + setup.times.build
        + setup.times.quantize
        + setup.times.save
        + setup.times.load;
    if (setup.times.total - parts).abs() > 0.05 * setup.times.total {
        eprintln!(
            "FAIL: set-up parts sum to {parts:.3}s of {:.3}s",
            setup.times.total
        );
        *ok = false;
    }
}

/// What the traced pass returns.
pub struct Traced {
    pub values: Values,
    pub trace: Trace,
    pub attempted: usize,
    pub failed: usize,
    pub correct: bool,
    pub findings: Findings,
}

/// The traced pass over `engine` (for `build_mutate`: the post-insert
/// snapshot).  `outcomes` are the untraced product outcomes of the same
/// queries, `direct_ns` their call→return times on one thread.
pub fn run(
    setup: &SetUp,
    engine: &Engine,
    seed: u64,
    host: &Host,
    seconds: f64,
    outcomes: &[SearchOutcome],
    direct_ns: &[f64],
) -> Traced {
    let overrides = inputs::override_weights();
    let mut v = Values::default();
    let mut ok = true;
    let mut findings = Findings::new();
    // The decomposed queries are checked one by one below.
    let nq = setup.queries.len();
    let mut tally = Tally {
        attempted: nq,
        failed: 0,
    };

    let shards: Vec<&MustServer> = match engine {
        Engine::Single(s) => vec![s],
        Engine::Sharded(s) => (0..s.num_shards()).map(|i| s.shard(i)).collect(),
    };
    let mut units: Vec<Unit<'_>> = shards.into_iter().map(Unit::new).collect();
    host_probes(&mut v);
    kernel_probes(&mut v, &units[0]);
    v.set(
        "vector.quant.quantize_s",
        units.iter().map(|u| u.quantize_s).sum(),
    );
    let rows: usize = units.iter().map(|u| u.server.len()).sum();
    v.set(
        "vector.quant.bytes_per_object",
        units.iter().map(|u| u.quant().bytes()).sum::<usize>() as f64 / rows as f64,
    );

    // Decomposed pass, checked against the product's own outcomes.
    let mut trace = Trace::new();
    let mut records = Vec::new();
    let mut decomposed = Vec::with_capacity(nq);
    let mut routed = Vec::with_capacity(nq);
    for (i, query) in setup.queries.iter().enumerate() {
        let weights = setup.effective_weights(i, &overrides);
        let (d, searched) = decompose(
            &mut trace,
            engine,
            &mut units,
            i as u32,
            query,
            weights,
            &mut records,
        );
        let want = &outcomes[i];
        if d.results != want.results
            || d.stats != want.stats
            || d.fused_evals + d.quant_evals != want.kernel_evals
        {
            eprintln!("FAIL: query {i}: the outside-in decomposition is not the product's answer");
            tally.failed += 1;
        }
        decomposed.push(d);
        routed.push(searched);
    }
    let root_ns: u64 = trace
        .spans
        .iter()
        .filter(|s| s.span == "query")
        .map(|s| s.busy_ns)
        .sum();
    for rec in &mut records {
        let weights = setup.effective_weights(rec.query, &overrides);
        record_walk(&mut units, rec, &setup.queries[rec.query], weights);
    }
    let replayed = replay_all(&mut trace, &units, setup, &overrides, &records);
    let totals = layer_totals(&trace.spans);
    let busy = |name: &str| totals.get(name).map_or(0.0, |t| t.busy_ns as f64);
    let direct_total: f64 = direct_ns.iter().sum();
    let q = nq as f64;

    let evals = totals["score"].count as f64;
    assert_eq!(
        totals["score"].count,
        decomposed.iter().map(|d| d.stats.evaluated).sum::<u64>()
    );
    v.set("graph.walk_ns", busy("walk") / q);
    v.set("graph.walk_self_ns", totals["walk"].self_ns as f64 / q);
    v.set(
        "graph.walk_self_ns_per_eval",
        totals["walk"].self_ns as f64 / evals,
    );
    v.set(
        "graph.hops",
        decomposed.iter().map(|d| d.stats.hops).sum::<u64>() as f64 / q,
    );
    v.set("graph.evals", evals / q);
    v.set(
        "graph.pruned_frac",
        decomposed.iter().map(|d| d.stats.pruned).sum::<u64>() as f64 / evals,
    );
    v.set("core.oracle.score_ns_per_eval", busy("score") / evals);
    v.set(
        "vector.fused.kernel_evals_per_query",
        decomposed.iter().map(|d| d.fused_evals).sum::<u64>() as f64 / q,
    );
    v.set(
        "vector.quant.kernel_evals_per_query",
        decomposed.iter().map(|d| d.quant_evals).sum::<u64>() as f64 / q,
    );
    let calls = replayed.calls as f64;
    v.set(
        "vector.fused.ip_rand_ns_per_row",
        replayed.fused_ip_ns as f64 / calls,
    );
    v.set(
        "vector.fused.ip_pruned_rand_ns_per_row",
        replayed.fused_pruned_ns as f64 / calls,
    );
    v.set(
        "vector.quant.ip_rand_ns_per_row",
        replayed.quant_ip_ns as f64 / calls,
    );
    v.set(
        "vector.quant.ip_pruned_rand_ns_per_row",
        replayed.quant_pruned_ns as f64 / calls,
    );

    v.set("core.server.search_ns", direct_total / q);
    v.set("core.server.rerank_frac", busy("rerank") / direct_total);
    v.set(
        "core.server.rerank_changed_frac",
        decomposed.iter().filter(|d| d.rerank_changed).count() as f64 / q,
    );
    let covered =
        busy("scorer_build") + busy("walk") + busy("rerank") + busy("route") + busy("gather");
    let residual = 1.0 - covered / direct_total;
    v.set("core.server.residual_frac", residual);
    if residual.abs() > 0.10 {
        findings.push(format!(
            "residual_frac {residual:.3}: the traced stages do not add up to the product call within 10 %"
        ));
    }
    v.set(
        "trace.overhead_frac",
        (root_ns as f64 - direct_total) / direct_total,
    );
    v.set("trace.spans", trace.spans.len() as f64);

    // Construction costs, one layer at a time, on the first unit.
    let u0 = &units[0];
    let fused = u0.server.objects().fused();
    v.set(
        "vector.fused.query_build_ns",
        per_query_ns(setup, &overrides, |q, w| {
            std::hint::black_box(fused.query(q, w).expect("valid query"));
        }),
    );
    v.set(
        "vector.quant.query_build_ns",
        per_query_ns(setup, &overrides, |q, w| {
            std::hint::black_box(u0.quant().query(q, w).expect("valid query"));
        }),
    );
    v.set(
        "core.oracle.scorer_build_ns",
        per_query_ns(setup, &overrides, |q, w| {
            std::hint::black_box(
                MustQueryScorer::from_rows(fused, q, w, true).expect("valid query"),
            );
        }),
    );
    v.set(
        "core.oracle.qscorer_build_ns",
        per_query_ns(setup, &overrides, |q, w| {
            std::hint::black_box(
                QuantizedQueryScorer::from_rows(u0.quant(), q, w, true).expect("valid query"),
            );
        }),
    );

    match engine {
        Engine::Single(server) => {
            v.set("core.shard.self_frac", 0.0);
            v.set("core.shard.fanout_mean", 0.0);
            let batch = |chunk: &[MultiQuery]| server.search_batch(chunk, K, L, host.clients);
            serving_probes(
                &mut v, server, batch, setup, &overrides, host, direct_ns, seconds, &mut tally,
            );
        }
        Engine::Sharded(server) => {
            // The product's own per-shard calls on the routed shards: what
            // is left of the sharded call is route + gather + dedup.
            let params = SearchParams::new(K, ROUTE_L_SHARD.max(K));
            let mut workers: Vec<_> = (0..server.num_shards())
                .map(|s| server.shard(s).worker())
                .collect();
            let t = Instant::now();
            for (i, searched) in routed.iter().enumerate() {
                let weights = setup.effective_weights(i, &overrides);
                for &s in searched {
                    let out =
                        workers[s].search_weighted_with_params(&setup.queries[i], weights, params);
                    std::hint::black_box(out.expect("workload queries are well-formed"));
                }
            }
            let per_shard_ns = t.elapsed().as_nanos() as f64;
            v.set("core.shard.self_frac", 1.0 - per_shard_ns / direct_total);
            v.set(
                "core.shard.fanout_mean",
                routed.iter().map(Vec::len).sum::<usize>() as f64 / q,
            );
            let batch = |chunk: &[MultiQuery]| server.search_batch(chunk, K, L, host.clients);
            serving_probes(
                &mut v, server, batch, setup, &overrides, host, direct_ns, seconds, &mut tally,
            );
        }
    }
    drop(units);
    offline_probes(&mut v, setup, seed, host, &mut ok);

    let Tally { attempted, failed } = tally;
    Traced {
        values: v,
        trace,
        attempted,
        failed,
        correct: ok && failed == 0,
        findings,
    }
}

/// One single-thread untraced pass: the product outcomes and each call's
/// call→return time (ns).
pub fn direct_pass<E: ServeEngine>(engine: &E, setup: &SetUp) -> (Vec<SearchOutcome>, Vec<f64>) {
    let overrides = inputs::override_weights();
    let mut worker = engine.serve_worker();
    // Untimed warm-up over the same queries.
    for i in 0..setup.queries.len() {
        closed::run_query(&mut worker, setup, &overrides, i);
    }
    (0..setup.queries.len())
        .map(|i| {
            let t = Instant::now();
            let out = worker
                .run_query(&setup.queries[i], setup.weights_of(i, &overrides), K, L)
                .expect("workload queries are well-formed");
            (out, t.elapsed().as_nanos() as f64)
        })
        .unzip()
}
