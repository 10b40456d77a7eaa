//! Online-serving integration tests: one frozen snapshot, many threads,
//! results bit-identical to serial execution (the contract that makes the
//! concurrent query engine trustworthy), the offline→online round-trip
//! through the current binary bundle, and the [`ServeRuntime`] delivery
//! guarantees — every submitted request gets exactly one reply matching
//! the serial oracle bitwise, under producer concurrency, mixed
//! single/batch/weighted traffic, several workers, and shutdown drain.

use std::slice;
use std::sync::mpsc;

use must::core::search::{self, SearchOutcome};
use must::core::MustError;
use must::data::embed::embed_dataset;
use must::encoders::{ComposerKind, EncoderConfig, EncoderRegistry, LatentSpace, TargetEncoding, UnimodalKind};
use must::graph::GraphRecipe;
use must::prelude::*;
use must::vector::{VectorError, FUSED_LANE};

/// Embeds a small MIT-States-style corpus and returns its objects plus a
/// 64-query workload.
fn embedded_fixture() -> (FusedRows, Vec<MultiQuery>) {
    let ds = must::data::catalog::mit_states(0.05, 4242);
    let registry = EncoderRegistry::new(LatentSpace::DEFAULT, 4242);
    let config = EncoderConfig::new(
        TargetEncoding::Composed(ComposerKind::Clip),
        vec![UnimodalKind::Lstm],
    );
    let embedded = embed_dataset(&ds, &config, &registry);
    let queries: Vec<MultiQuery> =
        embedded.queries.iter().take(64).map(|q| q.query.clone()).collect();
    assert_eq!(queries.len(), 64, "fixture needs a full 64-query workload");
    (embedded.objects, queries)
}

/// The fixture's build options.
fn fixture_opts() -> MustBuildOptions {
    MustBuildOptions { gamma: 16, ..Default::default() }
}

/// Embeds the fixture corpus and returns a built `Must` plus the
/// 64-query workload.
fn built_fixture() -> (Must, Vec<MultiQuery>) {
    let (objects, queries) = embedded_fixture();
    let must = Must::build(objects, Weights::uniform(2), fixture_opts()).unwrap();
    (must, queries)
}

/// Same fixture, frozen for serving.
fn serving_fixture() -> (MustServer, Vec<MultiQuery>) {
    let (must, queries) = built_fixture();
    (MustServer::freeze(must), queries)
}

/// Build once, search the same 64-query workload from 8 threads and
/// serially: every thread must observe identical ranked ids, similarities,
/// and `SearchStats` per query.
#[test]
fn eight_threads_match_serial_bit_for_bit() {
    let (server, queries) = serving_fixture();
    let (k, l) = (10, 60);

    let mut worker = server.worker();
    let serial: Vec<_> = queries.iter().map(|q| worker.search(q, k, l).unwrap()).collect();

    std::thread::scope(|scope| {
        for t in 0..8 {
            let server = &server;
            let queries = &queries;
            let serial = &serial;
            scope.spawn(move || {
                let mut worker = server.worker();
                for (qi, (q, expect)) in queries.iter().zip(serial).enumerate() {
                    let got = worker.search(q, k, l).unwrap();
                    assert_eq!(got.results, expect.results, "thread {t} query {qi}: ids/sims");
                    assert_eq!(got.stats, expect.stats, "thread {t} query {qi}: stats");
                }
            });
        }
    });

    // The batch API fans the same workload internally; same contract.
    for threads in [2, 8] {
        let batch = server.search_batch(&queries, k, l, threads);
        for (qi, (got, expect)) in batch.into_iter().zip(&serial).enumerate() {
            let got = got.unwrap();
            assert_eq!(got.results, expect.results, "batch({threads}) query {qi}");
            assert_eq!(got.stats, expect.stats, "batch({threads}) query {qi}");
        }
    }
}

/// The serve loop answers a full stream across 8 workers with, per query,
/// exactly the serial outcome.
#[test]
fn serve_loop_matches_serial_outcomes() {
    let (server, queries) = serving_fixture();
    let (k, l) = (5, 40);
    let mut worker = server.worker();
    let serial: Vec<_> = queries.iter().map(|q| worker.search(q, k, l).unwrap()).collect();

    let (req_tx, req_rx) = mpsc::channel();
    let (rep_tx, rep_rx) = mpsc::channel();
    for (i, q) in queries.iter().enumerate() {
        req_tx.send(ServeRequest { id: i as u64, query: q.clone(), k, l }).unwrap();
    }
    drop(req_tx);
    let served = server.serve(req_rx, rep_tx, 8);
    assert_eq!(served, queries.len());

    let mut replies: Vec<ServeReply> = rep_rx.iter().collect();
    assert_eq!(replies.len(), queries.len());
    replies.sort_by_key(|r| r.id);
    for (i, rep) in replies.into_iter().enumerate() {
        assert_eq!(rep.id, i as u64);
        let out = rep.outcome.unwrap();
        assert_eq!(out.results, serial[i].results, "request {i}");
        assert_eq!(out.stats, serial[i].stats, "request {i}");
    }
}

/// Ragged batch sizes (e.g. 17 queries over 4 threads) must be
/// bit-identical to serial for every thread count: atomic chunk claiming
/// changes *which* worker runs a query, never the query's work.  The old
/// static split (5+5+5+2) also had to be correct, but its tail imbalance
/// hid behind the same assertion — this pins the claiming rewrite.
#[test]
fn ragged_batches_match_serial_for_any_thread_count() {
    let (server, queries) = serving_fixture();
    let (k, l) = (10, 60);
    let mut worker = server.worker();
    for n in [1usize, 2, 17, 23, 61] {
        let qs = &queries[..n];
        let serial: Vec<_> = qs.iter().map(|q| worker.search(q, k, l).unwrap()).collect();
        for threads in [2usize, 4, 7, 16] {
            let batch = server.search_batch(qs, k, l, threads);
            assert_eq!(batch.len(), n);
            for (qi, (got, expect)) in batch.into_iter().zip(&serial).enumerate() {
                let got = got.unwrap();
                assert_eq!(got.results, expect.results, "n={n} threads={threads} query {qi}");
                assert_eq!(got.stats, expect.stats, "n={n} threads={threads} query {qi}");
            }
        }
    }
}

/// The runtime stress pin: several producer threads submit an interleaved
/// mix of single, batch, and weight-overridden requests; every request id
/// must get **exactly one** reply, bit-identical to the serial oracle
/// under the same weights, and shutdown must drain the queue without
/// dropping or duplicating anything.
#[test]
fn runtime_stress_every_request_answered_exactly_once() {
    let (server, queries) = serving_fixture();
    let (k, l) = (5, 40);
    let override_w = Weights::from_squared(vec![0.7, 0.3]).unwrap();

    // Serial oracles: default weights and the override.
    let mut worker = server.worker();
    let oracle_default: Vec<_> =
        queries.iter().map(|q| worker.search(q, k, l).unwrap()).collect();
    let oracle_override: Vec<_> = queries
        .iter()
        .map(|q| worker.run_query(q, Some(&override_w), k, l).unwrap())
        .collect();

    // Request plan: id encodes (producer, sequence); the map records which
    // query index and weight regime each id must be answered under.
    const PRODUCERS: u64 = 4;
    const ROUNDS: usize = 6;
    let (rep_tx, rep_rx) = mpsc::channel();
    let runtime = ServeRuntime::start(&server, 3, rep_tx);
    let mut expect: std::collections::HashMap<u64, (usize, bool)> = std::collections::HashMap::new();
    for p in 0..PRODUCERS {
        for r in 0..ROUNDS as u64 {
            let base = p * 1_000 + r * 100;
            // One single, one weighted single, one 4-query batch, one
            // 4-query weighted batch per round, ids disjoint by plan.
            expect.insert(base, ((base as usize) % queries.len(), false));
            expect.insert(base + 1, ((base as usize + 7) % queries.len(), true));
            for j in 0..4u64 {
                expect.insert(base + 10 + j, ((base as usize + 13 + j as usize) % queries.len(), false));
                expect.insert(base + 20 + j, ((base as usize + 29 + j as usize) % queries.len(), true));
            }
        }
    }
    let total = expect.len();

    std::thread::scope(|scope| {
        for p in 0..PRODUCERS {
            let runtime = &runtime;
            let queries = &queries;
            let override_w = &override_w;
            scope.spawn(move || {
                for r in 0..ROUNDS as u64 {
                    let base = p * 1_000 + r * 100;
                    let req = |id: u64, qi: usize| ServeRequest {
                        id,
                        query: queries[qi % queries.len()].clone(),
                        k,
                        l,
                    };
                    runtime.submit(req(base, base as usize));
                    runtime.submit_weighted(req(base + 1, base as usize + 7), override_w.clone());
                    runtime.submit_batch(
                        (0..4u64).map(|j| req(base + 10 + j, base as usize + 13 + j as usize)).collect(),
                        None,
                    );
                    runtime.submit_batch(
                        (0..4u64).map(|j| req(base + 20 + j, base as usize + 29 + j as usize)).collect(),
                        Some(override_w.clone()),
                    );
                }
            });
        }
    });

    let served = runtime.shutdown();
    assert_eq!(served, total, "shutdown must drain the queue");

    let mut seen = std::collections::HashSet::new();
    let mut replies = 0usize;
    for rep in rep_rx.iter() {
        assert!(seen.insert(rep.id), "duplicate reply for id {}", rep.id);
        let (qi, weighted) = expect[&rep.id];
        let oracle = if weighted { &oracle_override[qi] } else { &oracle_default[qi] };
        let got = rep.outcome.unwrap();
        assert_eq!(got.results, oracle.results, "id {} (weighted={weighted})", rep.id);
        assert_eq!(got.stats, oracle.stats, "id {} (weighted={weighted})", rep.id);
        replies += 1;
    }
    assert_eq!(replies, total, "exactly one reply per submitted request");
}

/// Submitting a burst and shutting down immediately must still answer
/// everything: shutdown drains, it never drops.
#[test]
fn runtime_shutdown_drains_queued_backlog() {
    let (server, queries) = serving_fixture();
    let (rep_tx, rep_rx) = mpsc::channel();
    let runtime = ServeRuntime::start(&server, 2, rep_tx);
    let n = 200u64;
    for i in 0..n {
        runtime.submit(ServeRequest {
            id: i,
            query: queries[(i as usize) % queries.len()].clone(),
            k: 3,
            l: 30,
        });
    }
    // No waiting: the queue is still (mostly) full when shutdown begins.
    assert_eq!(runtime.shutdown() as u64, n);
    let mut ids: Vec<u64> = rep_rx.iter().map(|r| r.id).collect();
    ids.sort_unstable();
    assert_eq!(ids, (0..n).collect::<Vec<_>>());
}

/// A request for zero results is answered with one typed error, not a
/// worker panic: in the queue of a one-worker runtime the requests
/// behind it — single, weighted and inside the same batch — are answered
/// as if it had never been there, and `shutdown()` joins cleanly with the
/// full count.
#[test]
fn runtime_answers_k_zero_with_one_error_and_keeps_serving() {
    let (server, queries) = serving_fixture();
    let (k, l) = (5, 40);
    let override_w = Weights::from_squared(vec![0.7, 0.3]).unwrap();
    let mut worker = server.worker();
    assert!(matches!(worker.search(&queries[0], 0, l), Err(MustError::Config(_))));
    assert!(matches!(
        worker.run_query(&queries[0], Some(&override_w), 0, l),
        Err(MustError::Config(_))
    ));
    let oracle = worker.search(&queries[1], k, l).unwrap();
    let oracle_w = worker.run_query(&queries[1], Some(&override_w), k, l).unwrap();

    let (rep_tx, rep_rx) = mpsc::channel();
    let runtime = ServeRuntime::start(&server, 1, rep_tx);
    let req = |id: u64, k: usize| ServeRequest { id, query: queries[1].clone(), k, l };
    // Even ids ask for nothing; odd ids are ordinary requests.
    runtime.submit(req(0, 0));
    runtime.submit(req(1, k));
    runtime.submit_weighted(req(2, 0), override_w.clone());
    runtime.submit_weighted(req(3, k), override_w.clone());
    runtime.submit_batch(vec![req(5, k), req(4, 0), req(7, k)], None);
    assert_eq!(runtime.shutdown(), 7, "the error replies count as served; no worker died");

    let mut replies: Vec<ServeReply> = rep_rx.iter().collect();
    replies.sort_by_key(|r| r.id);
    assert_eq!(replies.iter().map(|r| r.id).collect::<Vec<_>>(), [0, 1, 2, 3, 4, 5, 7]);
    for rep in replies {
        match (rep.id % 2, rep.outcome) {
            (0, Err(MustError::Config(msg))) => assert!(msg.contains("k must be positive"), "{msg}"),
            (1, Ok(got)) => {
                let want = if rep.id == 3 { &oracle_w } else { &oracle };
                assert_eq!((got.results, got.stats), (want.results.clone(), want.stats), "id {}", rep.id);
            }
            (_, other) => panic!("id {}: {other:?}", rep.id),
        }
    }
}

/// Whether `result` is the typed refusal of a non-finite query component.
fn refused<T>(result: &Result<T, MustError>) -> bool {
    matches!(result, Err(MustError::Vector(VectorError::NotNormalisable)))
}

/// A NaN, +inf or −inf component, in a full query or a partial one, is
/// refused with a typed `MustError::Vector` on every path — instead of a
/// graph walk over poisoned scores returning `Ok` — and a runtime answers
/// it with that error and keeps serving the requests behind it.
#[test]
fn non_finite_queries_are_typed_errors_on_every_path() {
    let (objects, queries) = embedded_fixture();
    let row = |k: usize| objects.modality(k).get(7).to_vec();
    let poisoned = |k: usize, x: f32| {
        let mut v = row(k);
        v[0] = x;
        v
    };
    let bad: Vec<MultiQuery> = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY]
        .into_iter()
        .flat_map(|x| {
            [
                MultiQuery::full(vec![poisoned(0, x), row(1)]),
                MultiQuery::partial(vec![None, Some(poisoned(1, x))]),
            ]
        })
        .collect();
    let (k, l) = (10, 60);

    let build = || Must::build(objects.clone(), Weights::uniform(2), fixture_opts()).unwrap();
    let must = build();
    let mut quantized = build();
    quantized.quantize();
    let f32_server = MustServer::freeze(build());
    let sq8_server = MustServer::freeze(quantized);
    let routed = ShardedServer::freeze(
        ShardedMust::build(objects.clone(), Weights::uniform(2), fixture_opts(), ShardSpec::clustered(3))
            .unwrap(),
    )
    .with_routing(RoutePolicy::with_beam(2, 40));
    let mut routed_worker = routed.worker();
    for (i, q) in bad.iter().enumerate() {
        assert!(refused(&must.search(q, k, l)), "Must::search, query {i}");
        assert!(refused(&f32_server.search(q, k, l)), "f32 MustServer, query {i}");
        assert!(refused(&sq8_server.search(q, k, l)), "SQ8 MustServer, query {i}");
        assert!(refused(&routed_worker.search(q, k, l)), "routed ShardedWorker, query {i}");
    }

    // One worker, one queue: each refused request sits right before an
    // ordinary one, which must still get its serial answer.
    let (rep_tx, rep_rx) = mpsc::channel();
    let runtime = ServeRuntime::start(&sq8_server, 1, rep_tx);
    for (i, q) in bad.iter().enumerate() {
        let i = i as u64;
        runtime.submit(ServeRequest { id: 2 * i, query: q.clone(), k, l });
        runtime.submit(ServeRequest { id: 2 * i + 1, query: queries[i as usize].clone(), k, l });
    }
    assert_eq!(runtime.shutdown(), 2 * bad.len());
    for (id, outcome) in replies_by_id(rep_rx, 2 * bad.len()).into_iter().enumerate() {
        if id % 2 == 0 {
            assert!(refused(&outcome), "runtime reply {id}");
        } else {
            let want = sq8_server.search(&queries[id / 2], k, l).unwrap();
            let got = outcome.unwrap();
            assert_eq!((got.results, got.stats), (want.results, want.stats), "runtime reply {id}");
        }
    }
}

/// The typed error a malformed request must meet.
#[derive(Debug)]
enum Refusal {
    Vector(VectorError),
    Config,
}

impl Refusal {
    fn is<T>(&self, result: &Result<T, MustError>) -> bool {
        match (self, result) {
            (Self::Vector(want), Err(MustError::Vector(got))) => want == got,
            (Self::Config, Err(MustError::Config(_))) => true,
            _ => false,
        }
    }
}

/// One malformed request: a query, an optional weight override, `k`, and
/// the refusal it must meet on every path.
struct Malformed {
    what: &'static str,
    query: MultiQuery,
    weights: Option<Weights>,
    k: usize,
    want: Refusal,
}

/// The malformed-request table over a two-modality corpus: wrong slot
/// counts, overrides of the wrong arity, slots of the wrong length in each
/// modality (short, long, longer than the padded segment, supplied alone),
/// `k = 0`, and pairs of faults that pin which check speaks first.
fn malformed_requests(objects: &FusedRows) -> Vec<Malformed> {
    let dims = objects.dims().to_vec();
    assert_eq!(dims.len(), 2, "the table is written for two modalities");
    let row = |k: usize| objects.modality(k).get(7).to_vec();
    let resized = |k: usize, len: usize| {
        let mut v = row(k);
        v.resize(len, 0.25);
        v
    };
    let nan = |k: usize| {
        let mut v = row(k);
        v[0] = f32::NAN;
        v
    };
    let full = |a: Vec<f32>, b: Vec<f32>| MultiQuery::full(vec![a, b]);
    let arity = |weights| Refusal::Vector(VectorError::WeightArity { modalities: 2, weights });
    let length =
        |k: usize, got| Refusal::Vector(VectorError::DimensionMismatch { expected: dims[k], got });
    let case = |what, query, weights, k, want| Malformed { what, query, weights, k, want };
    let mut cases = vec![
        case("three slots", MultiQuery::full(vec![row(0), row(1), row(1)]), None, 10, arity(3)),
        case("one slot", MultiQuery::full(vec![row(0)]), None, 10, arity(1)),
        case("three weights", full(row(0), row(1)), Some(Weights::uniform(3)), 10, arity(3)),
        case("one weight", full(row(0), row(1)), Some(Weights::uniform(1)), 10, arity(1)),
        case("k = 0", full(row(0), row(1)), None, 0, Refusal::Config),
        case("k = 0 before the slot count", MultiQuery::full(vec![row(0)]), None, 0, Refusal::Config),
        case(
            "slot count before weight arity",
            MultiQuery::full(vec![row(0)]),
            Some(Weights::uniform(3)),
            10,
            arity(1),
        ),
        case(
            "weight arity before slot length",
            full(resized(0, dims[0] - 1), row(1)),
            Some(Weights::uniform(3)),
            10,
            arity(3),
        ),
        case(
            "slot 0's length before slot 1's finiteness",
            full(resized(0, dims[0] + 1), nan(1)),
            None,
            10,
            length(0, dims[0] + 1),
        ),
        case(
            "slot 0's finiteness before slot 1's length",
            full(nan(0), resized(1, dims[1] - 1)),
            None,
            10,
            Refusal::Vector(VectorError::NotNormalisable),
        ),
    ];
    for k in 0..2 {
        let padded = dims[k].next_multiple_of(FUSED_LANE);
        for len in [dims[k] - 1, dims[k] + 1, padded + 1] {
            let (a, b) = if k == 0 { (resized(0, len), row(1)) } else { (row(0), resized(1, len)) };
            cases.push(case("a wrong-length slot", full(a, b), None, 10, length(k, len)));
        }
        let mut alone = vec![None, None];
        alone[k] = Some(resized(k, dims[k] + 1));
        let (alone, want) = (MultiQuery::partial(alone), length(k, dims[k] + 1));
        cases.push(case("a wrong-length slot supplied alone", alone, None, 10, want));
    }
    let unweighted = Some(Weights::from_squared(vec![1.0, 0.0]).unwrap());
    let (query, want) = (full(row(0), resized(1, dims[1] + 1)), length(1, dims[1] + 1));
    cases.push(case("a wrong-length slot under a zero weight", query, unweighted, 10, want));
    cases
}

/// `case` through one served engine's worker and its batch path.
fn served<E: ServeEngine>(
    engine: &E,
    case: &Malformed,
    l: usize,
) -> [Result<SearchOutcome, MustError>; 2] {
    let (q, k, batch) = (&case.query, case.k, std::slice::from_ref(&case.query));
    let one = |out: Vec<_>| out.into_iter().next().expect("one query, one outcome");
    match &case.weights {
        None => [
            engine.serve_worker().run_query(q, None, k, l),
            one(engine.search_batch(batch, k, l, 1)),
        ],
        Some(w) => [
            engine.search_weighted(q, w, k, l),
            one(engine.search_batch_weighted(batch, w, k, l, 1)),
        ],
    }
}

/// Every malformed request of [`malformed_requests`] — wrong slot count,
/// wrong-arity override, wrong-length slot in either modality, `k = 0` —
/// gets the same typed error on every path: `Must::search` on f32 and SQ8,
/// both `MustServer`s, an S = 3 `ShardedServer` unrouted and routed,
/// a `ServeRuntime`, `Must::brute_force` and `exact_ground_truth`.  None
/// panics, none is answered.
#[test]
fn malformed_requests_are_typed_errors_on_every_path() {
    let (objects, queries) = embedded_fixture();
    let cases = malformed_requests(&objects);
    let l = 60;

    // `Must`'s own entry points are reached through the frozen servers'
    // `Deref`: a `MustServer` is the `Must` it froze.
    let build = || Must::build(objects.clone(), Weights::uniform(2), fixture_opts()).unwrap();
    let f32_server = MustServer::freeze(build());
    let mut quantized = build();
    quantized.quantize();
    let sq8_server = MustServer::freeze(quantized);
    let spec = ShardSpec::clustered(3);
    let sharded = ShardedServer::freeze(
        ShardedMust::build(objects.clone(), Weights::uniform(2), fixture_opts(), spec).unwrap(),
    );
    let routed = sharded.with_routing(RoutePolicy::with_beam(2, 40));
    let defaults = Weights::uniform(2);
    let rows = f32_server.objects();

    for case in &cases {
        let (q, w, k) = (&case.query, case.weights.as_ref(), case.k);
        let unit = |out: Result<SearchOutcome, MustError>| out.map(|_| ());
        let brute_force = match w {
            None => f32_server.brute_force(q, k),
            Some(w) => search::brute_force_search(rows, q, w, k, true),
        };
        let truth = search::exact_ground_truth(&objects, w.unwrap_or(&defaults), slice::from_ref(q), k);
        let mut outcomes = vec![
            ("f32 Must worker", unit(f32_server.worker().run_query(q, w, k, l))),
            ("SQ8 Must worker", unit(sq8_server.worker().run_query(q, w, k, l))),
            ("Must::brute_force", unit(brute_force)),
            ("exact_ground_truth", truth.map(|_| ())),
        ];
        if w.is_none() {
            outcomes.push(("f32 Must::search", unit(f32_server.search(q, k, l))));
            outcomes.push(("SQ8 Must::search", unit(sq8_server.search(q, k, l))));
        }
        for (path, out) in outcomes {
            assert!(case.want.is(&out), "{path}, {}: want {:?}, got {out:?}", case.what, case.want);
        }
        let engines: [(&str, [Result<SearchOutcome, MustError>; 2]); 4] = [
            ("f32 MustServer", served(&f32_server, case, l)),
            ("SQ8 MustServer", served(&sq8_server, case, l)),
            ("unrouted ShardedServer", served(&sharded, case, l)),
            ("routed ShardedServer", served(&routed, case, l)),
        ];
        for (path, outs) in engines {
            for out in outs {
                assert!(case.want.is(&out), "{path}, {}: want {:?}, got {out:?}", case.what, case.want);
            }
        }
    }

    runtime_refuses_and_serves_on("SQ8 runtime", &sq8_server, &cases, &queries, l);
    runtime_refuses_and_serves_on("routed runtime", &routed, &cases, &queries, l);
}

/// One `ServeRuntime` worker, one queue: each malformed request sits right
/// before an ordinary one; the first must meet its refusal and the second
/// still get its serial answer.
fn runtime_refuses_and_serves_on<E: ServeEngine>(
    name: &str,
    engine: &E,
    cases: &[Malformed],
    queries: &[MultiQuery],
    l: usize,
) {
    let (rep_tx, rep_rx) = mpsc::channel();
    let runtime = ServeRuntime::start(engine, 1, rep_tx);
    for (i, case) in cases.iter().enumerate() {
        let bad = ServeRequest { id: 2 * i as u64, query: case.query.clone(), k: case.k, l };
        match &case.weights {
            None => runtime.submit(bad),
            Some(w) => runtime.submit_weighted(bad, w.clone()),
        }
        runtime.submit(ServeRequest { id: 2 * i as u64 + 1, query: queries[i].clone(), k: 10, l });
    }
    assert_eq!(runtime.shutdown(), 2 * cases.len());
    let mut worker = engine.serve_worker();
    for (id, outcome) in replies_by_id(rep_rx, 2 * cases.len()).into_iter().enumerate() {
        let case = &cases[id / 2];
        if id % 2 == 0 {
            assert!(case.want.is(&outcome), "{name}, {}: got {outcome:?}", case.what);
        } else {
            let want = worker.run_query(&queries[id / 2], None, 10, l).unwrap();
            let got = outcome.unwrap();
            assert_eq!((got.results, got.stats), (want.results, want.stats), "{name} reply {id}");
        }
    }
}

/// A row of the wrong modality count or the wrong length is refused by
/// `Must::insert_object` (an SQ8-attached HNSW instance) and by
/// `ShardedMust::insert_object` with its typed error, and leaves no trace:
/// `len()` and the SQ8 row count stay put, and a well-formed insert after
/// the refusals gets the next id.
#[test]
fn malformed_inserts_are_typed_errors_and_leave_no_trace() {
    let (objects, _) = embedded_fixture();
    let dims = objects.dims().to_vec();
    let row = |k: usize| objects.modality(k).get(7).to_vec();
    let resized = |k: usize, len: usize| {
        let mut v = row(k);
        v.resize(len, 0.25);
        v
    };
    let bad: Vec<(Vec<Vec<f32>>, VectorError)> = vec![
        (vec![row(0)], VectorError::CardinalityMismatch { expected: 2, got: 1 }),
        (vec![row(0), row(1), row(1)], VectorError::CardinalityMismatch { expected: 2, got: 3 }),
        (
            vec![resized(0, dims[0] - 1), row(1)],
            VectorError::DimensionMismatch { expected: dims[0], got: dims[0] - 1 },
        ),
        (
            vec![row(0), resized(1, dims[1] + 1)],
            VectorError::DimensionMismatch { expected: dims[1], got: dims[1] + 1 },
        ),
    ];
    let opts = MustBuildOptions { recipe: GraphRecipe::Hnsw, ..fixture_opts() };

    let mut must = Must::build(objects.clone(), Weights::uniform(2), opts).unwrap();
    must.quantize();
    let n = must.len();
    for (rows, want) in &bad {
        match must.insert_object(rows) {
            Err(MustError::Vector(got)) => assert_eq!(&got, want, "Must::insert_object"),
            other => panic!("Must::insert_object: want {want:?}, got {other:?}"),
        }
        assert_eq!(must.len(), n, "Must::insert_object: refused row left a trace");
        assert_eq!(must.quant().map(|q| q.len()), Some(n), "SQ8 rows left a trace");
    }
    assert_eq!(must.insert_object(&[row(0), row(1)]).unwrap() as usize, n);

    let spec = ShardSpec::clustered(3);
    let mut sharded = ShardedMust::build(objects.clone(), Weights::uniform(2), opts, spec).unwrap();
    let n = sharded.len();
    for (rows, want) in &bad {
        match sharded.insert_object(rows) {
            Err(MustError::Vector(got)) => assert_eq!(&got, want, "ShardedMust::insert_object"),
            other => panic!("ShardedMust::insert_object: want {want:?}, got {other:?}"),
        }
        assert_eq!(sharded.len(), n, "ShardedMust::insert_object: refused row left a trace");
    }
    assert_eq!(sharded.insert_object(&[row(0), row(1)]).unwrap() as usize, n);
}

/// The SQ8 serving path — quantized Lemma-4 walk over the u8 codes,
/// then an exact f32 re-rank of the top `4·k` pool — must hold
/// Recall@10 within 0.005 of the f32 path on the committed corpus,
/// under the frozen default weights and a per-query override (codes
/// are weight-free, so one engine serves both).
#[test]
fn quantized_serving_recall_matches_f32_within_half_a_point() {
    let (must, queries) = built_fixture();
    let corpus = must.objects().clone();
    let f32_server = MustServer::freeze(must);

    let (mut quantized, _) = built_fixture();
    quantized.quantize();
    let quant_server = MustServer::freeze(quantized);
    assert!(quant_server.quant().is_some(), "freeze must carry the SQ8 engine");

    let (k, l) = (10, 100);
    let override_w = Weights::from_squared(vec![0.75, 0.25]).unwrap();
    for (case, w) in [Weights::uniform(2), override_w].into_iter().enumerate() {
        let gt = must::core::search::exact_ground_truth(&corpus, &w, &queries, k).unwrap();
        let recall_of = |server: &MustServer| -> f64 {
            let outs = if case == 0 {
                // The frozen default path (weights baked at build time).
                server.search_batch(&queries, k, l, 1)
            } else {
                server.search_batch_weighted(&queries, &w, k, l, 1)
            };
            let sum: f64 = outs
                .into_iter()
                .zip(&gt)
                .map(|(out, g)| {
                    let ids: Vec<must::vector::ObjectId> =
                        out.unwrap().results.iter().map(|r| r.0).collect();
                    recall_at(&ids, g, k)
                })
                .sum();
            sum / queries.len() as f64
        };
        let f32_recall = recall_of(&f32_server);
        let quant_recall = recall_of(&quant_server);
        assert!(
            quant_recall >= f32_recall - 0.005,
            "case {case}: quantized recall@10 {quant_recall:.4} trails the f32 path's \
             {f32_recall:.4} by more than 0.005"
        );
    }
}

/// The SQ8 prune is a pure shortcut: a row it discards is one the
/// approx-ranked pool would have refused.  Two SQ8 servers that differ
/// only in `prune` serve the same results, hops, evaluations and
/// `kernel_evals` on a layered and a flat graph, under the default weights
/// and an override; only `stats.pruned` may differ.
#[test]
fn sq8_pruning_never_changes_what_is_served() {
    let (objects, queries) = embedded_fixture();
    let override_w = Weights::from_squared(vec![0.7, 0.3]).unwrap();
    for recipe in [GraphRecipe::Hnsw, GraphRecipe::Fused] {
        let [on, off] = [true, false].map(|prune| {
            let opts = MustBuildOptions { recipe, ..fixture_opts() };
            let mut must = Must::build(objects.clone(), Weights::uniform(2), opts).unwrap();
            must.set_prune(prune);
            must.quantize();
            MustServer::freeze(must)
        });
        let mut pruned = 0;
        for weights in [None, Some(&override_w)] {
            let (mut a, mut b) = (on.worker(), off.worker());
            for (qi, q) in queries.iter().enumerate() {
                let x = a.run_query(q, weights, GOLDEN_K, GOLDEN_L).unwrap();
                let y = b.run_query(q, weights, GOLDEN_K, GOLDEN_L).unwrap();
                let what = format!("{recipe:?}, weights {weights:?}, query {qi}");
                assert_eq!(x.results, y.results, "{what}");
                assert_eq!((x.stats.hops, x.stats.evaluated), (y.stats.hops, y.stats.evaluated), "{what}");
                assert_eq!(x.kernel_evals, y.kernel_evals, "{what}");
                assert_eq!(y.stats.pruned, 0, "{what}");
                pruned += x.stats.pruned;
            }
        }
        assert!(pruned > 0, "{recipe:?}: the prune-on server never pruned; the test proves nothing");
    }
}

/// FNV-1a over a word stream, each word hashed as 8 little-endian bytes —
/// the golden-hash function of `must_graph`'s pins, which is test-only
/// there.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Appends one served outcome to a golden word stream: ids, similarity
/// bits, `SearchStats` and `kernel_evals` (never the clock).
fn push_outcome(words: &mut Vec<u64>, out: Result<SearchOutcome, MustError>) {
    let out = out.expect("golden workload queries are well-formed");
    words.push(out.results.len() as u64);
    for (id, sim) in out.results {
        words.extend([u64::from(id), u64::from(sim.to_bits())]);
    }
    words.extend([out.stats.hops, out.stats.evaluated, out.stats.pruned, out.kernel_evals]);
}

/// Drains `n` replies and returns their outcomes in request-id order.
fn replies_by_id(rx: mpsc::Receiver<ServeReply>, n: usize) -> Vec<Result<SearchOutcome, MustError>> {
    let mut replies: Vec<ServeReply> = rx.iter().collect();
    assert_eq!(replies.len(), n);
    replies.sort_by_key(|r| r.id);
    replies.into_iter().map(|r| r.outcome).collect()
}

const GOLDEN_K: usize = 10;
const GOLDEN_L: usize = 60;

/// The hash of every entry point of one engine, under the default weights
/// and an override, in a fixed order.  `search` is the engine's inherent
/// default-weight one-off search.
fn golden_hash<E: ServeEngine>(
    engine: &E,
    queries: &[MultiQuery],
    search: impl Fn(&MultiQuery) -> Result<SearchOutcome, MustError>,
) -> u64 {
    let words = &mut Vec::new();
    let (k, l) = (GOLDEN_K, GOLDEN_L);
    let n = queries.len();
    let override_w = Weights::from_squared(vec![0.7, 0.3]).unwrap();
    let req = |id: usize| ServeRequest { id: id as u64, query: queries[id % n].clone(), k, l };
    for weights in [None, Some(&override_w)] {
        for q in queries {
            push_outcome(words, match weights {
                Some(w) => engine.search_weighted(q, w, k, l),
                None => search(q),
            });
        }
        let mut worker = engine.serve_worker();
        for q in queries {
            push_outcome(words, worker.run_query(q, weights, k, l));
        }
        for threads in [1, 3] {
            let batch = match weights {
                Some(w) => engine.search_batch_weighted(queries, w, k, l, threads),
                None => engine.search_batch(queries, k, l, threads),
            };
            for out in batch {
                push_outcome(words, out);
            }
        }
        if weights.is_none() {
            let (req_tx, req_rx) = mpsc::channel();
            let (rep_tx, rep_rx) = mpsc::channel();
            for i in 0..n {
                req_tx.send(req(i)).unwrap();
            }
            drop(req_tx);
            assert_eq!(engine.serve(req_rx, rep_tx, 3), n);
            for out in replies_by_id(rep_rx, n) {
                push_outcome(words, out);
            }
        }
        let (rep_tx, rep_rx) = mpsc::channel();
        let runtime = ServeRuntime::start(engine, 3, rep_tx);
        for i in 0..n {
            match weights {
                None => runtime.submit(req(i)),
                Some(w) => runtime.submit_weighted(req(i), w.clone()),
            }
        }
        runtime.submit_batch((n..2 * n).map(req).collect(), weights.cloned());
        assert_eq!(runtime.shutdown(), 2 * n);
        for out in replies_by_id(rep_rx, 2 * n) {
            push_outcome(words, out);
        }
    }
    fnv1a(words.drain(..))
}

/// Golden pin over every served outcome — ids, similarity bits,
/// `SearchStats`, `kernel_evals` — from every entry point (one-off,
/// worker, batch at 1 and 3 threads, `serve`, `submit`,
/// `submit_weighted`, `submit_batch`) under the default weights and an
/// override, on four engines: `MustServer` over f32 rows and over SQ8
/// codes, and a clustered S = 3 `ShardedServer`, unrouted and routed —
/// one hash per engine, so a change can say which engine it moves.  The
/// one combined hash `0xEA18_EFD7_009A_BFCE` (taken on the parent of the
/// change that gave each engine one query body) was split into these on
/// 48e31f7.  The f32 and both sharded constants have not moved since.
/// The SQ8 one was `0xBFE8_3532_AA9E_8343` until the one-pass SQ8 scan
/// made it `0x729C_3F4B_FB2C_13DE`: `stats.pruned` and `kernel_evals`
/// moved (every candidate now scans every segment), while results, hops
/// and evaluations did not (`sq8_pruning_never_changes_what_is_served`
/// held on the parent too, apart from `kernel_evals`).
#[test]
fn served_outcomes_match_the_golden_hash() {
    let (objects, queries) = embedded_fixture();
    let build = || Must::build(objects.clone(), Weights::uniform(2), fixture_opts()).unwrap();
    let f32_server = MustServer::freeze(build());
    let mut quantized = build();
    quantized.quantize();
    let sq8_server = MustServer::freeze(quantized);
    let sharded = ShardedServer::freeze(
        ShardedMust::build(objects.clone(), Weights::uniform(2), fixture_opts(), ShardSpec::clustered(3))
            .unwrap(),
    );
    let routed = sharded.with_routing(RoutePolicy::with_beam(2, 40));

    let (k, l) = (GOLDEN_K, GOLDEN_L);
    let got = [
        golden_hash(&f32_server, &queries, |q| f32_server.search(q, k, l)),
        golden_hash(&sq8_server, &queries, |q| sq8_server.search(q, k, l)),
        golden_hash(&sharded, &queries, |q| sharded.search(q, k, l)),
        golden_hash(&routed, &queries, |q| routed.search(q, k, l)),
    ];
    let want = [0x672B_6653_E2B2_42E9, 0x729C_3F4B_FB2C_13DE, 0xFE80_912F_5ABB_3D60, 0x438C_FFC6_E076_F495];
    let names = ["f32 MustServer", "SQ8 MustServer", "S = 3 unrouted", "S = 3 routed"];
    let drifted: Vec<String> = (0..4)
        .filter(|&i| got[i] != want[i])
        .map(|i| format!("{}: {:#018X}", names[i], got[i]))
        .collect();
    assert!(drifted.is_empty(), "served outcomes drifted from the golden hash: {drifted:?}");
}

/// Golden pin over `Must::search` on an HNSW build without SQ8 codes:
/// ids, similarity bits, `SearchStats` and `kernel_evals`.  The constant
/// was taken through the old offline searcher, on the parent of the change
/// that made `Must::search` the serving body; HNSW draws no random pool
/// initialisation, so that change left it in place.
#[test]
fn offline_hnsw_search_matches_the_golden_hash() {
    let (objects, queries) = embedded_fixture();
    let opts = MustBuildOptions { recipe: GraphRecipe::Hnsw, ..fixture_opts() };
    let must = Must::build(objects, Weights::uniform(2), opts).unwrap();
    let words = &mut Vec::new();
    for q in &queries {
        push_outcome(words, must.search(q, GOLDEN_K, GOLDEN_L));
    }
    assert_eq!(fnv1a(words.drain(..)), 0x3423_4C5C_DC67_21F0);
}

/// One query body offline and online: for every graph recipe, with and
/// without SQ8 codes, `Must::search` and the server frozen from that same
/// instance return the same results, stats and `kernel_evals`.  On the
/// parent of the change that made a server an `Arc<Must>` this failed for
/// 13 of the 14 configurations, all but HNSW without codes: the offline
/// searcher drew a per-query random-init seed and ignored the codes.
#[test]
fn offline_and_served_answers_are_one_answer() {
    let (objects, queries) = embedded_fixture();
    let (k, l) = (GOLDEN_K, GOLDEN_L);
    for recipe in GraphRecipe::all() {
        for codes in [false, true] {
            let opts = MustBuildOptions { recipe, ..fixture_opts() };
            let mut must = Must::build(objects.clone(), Weights::uniform(2), opts).unwrap();
            if codes {
                must.quantize();
            }
            let offline: Vec<SearchOutcome> =
                queries.iter().map(|q| must.search(q, k, l).unwrap()).collect();
            let server = MustServer::freeze(must);
            for (qi, (q, want)) in queries.iter().zip(offline).enumerate() {
                let got = server.search(q, k, l).unwrap();
                assert_eq!(
                    (got.results, got.stats, got.kernel_evals),
                    (want.results, want.stats, want.kernel_evals),
                    "{recipe:?}, codes {codes}, query {qi}"
                );
            }
        }
    }
}

/// Tombstones survive `freeze` (Section IX): three deleted ids, one of
/// them a self-query anchor, never come back from any served entry point
/// — `search`, `search_batch` at 1 and 3 threads, `submit`, `submit_batch`
/// — on f32 rows or SQ8 codes.  Each returns `min(k, live n)` results, at
/// `k` past the live count too, and equals `Must::search` on the instance
/// before it was frozen.
#[test]
fn tombstones_are_filtered_on_every_served_path() {
    let (objects, _) = embedded_fixture();
    let n = objects.len();
    let anchor = 42u32;
    let dead = [anchor, 7, n as u32 - 1];
    let live = n - dead.len();
    let row = |k: usize, id: u32| objects.modality(k).get(id).to_vec();
    let self_query = |id: u32| MultiQuery::full(vec![row(0, id), row(1, id)]);
    let queries: Vec<MultiQuery> = [anchor, 7, 100, 300].map(self_query).into();
    let nq = queries.len();
    let cases = [(GOLDEN_K, GOLDEN_L), (live, live), (n + 5, n + 5)];
    for codes in [false, true] {
        let mut must = Must::build(objects.clone(), Weights::uniform(2), fixture_opts()).unwrap();
        if codes {
            must.quantize();
        }
        assert_eq!(must.search(&queries[0], 1, GOLDEN_L).unwrap().results[0].0, anchor);
        for id in dead {
            assert!(must.mark_deleted(id).unwrap());
        }
        let offline: Vec<Vec<SearchOutcome>> = cases
            .iter()
            .map(|&(k, l)| queries.iter().map(|q| must.search(q, k, l).unwrap()).collect())
            .collect();
        let server = MustServer::freeze(must);
        for (&(k, l), want) in cases.iter().zip(&offline) {
            let req =
                |id: usize| ServeRequest { id: id as u64, query: queries[id % nq].clone(), k, l };
            let (rep_tx, rep_rx) = mpsc::channel();
            let runtime = ServeRuntime::start(&server, 3, rep_tx);
            for i in 0..nq {
                runtime.submit(req(i));
            }
            runtime.submit_batch((nq..2 * nq).map(req).collect(), None);
            assert_eq!(runtime.shutdown(), 2 * nq);
            let mut submitted = replies_by_id(rep_rx, 2 * nq);
            let batched = submitted.split_off(nq);
            let paths = [
                ("search", queries.iter().map(|q| server.search(q, k, l)).collect()),
                ("search_batch(1)", server.search_batch(&queries, k, l, 1)),
                ("search_batch(3)", server.search_batch(&queries, k, l, 3)),
                ("submit", submitted),
                ("submit_batch", batched),
            ];
            for (path, outs) in paths {
                for (qi, (out, want)) in outs.into_iter().zip(want).enumerate() {
                    let what = format!("{path}, codes {codes}, k {k}, query {qi}");
                    let out = out.unwrap();
                    assert_eq!(out.results.len(), k.min(live), "{what}");
                    assert!(out.results.iter().all(|(id, _)| !dead.contains(id)), "{what}");
                    assert_eq!(
                        (out.results, out.stats, out.kernel_evals),
                        (want.results.clone(), want.stats, want.kernel_evals),
                        "{what}"
                    );
                }
            }
        }
    }
}

/// Deletions cost the walk only its live share (Section IX): a tombstone
/// routes the walk but takes no place in the pool, so deleting 10 / 25 /
/// 50 % of a 4 000-row HNSW corpus raises evaluations per query by at most
/// 1.2 / 1.5 / 2.2× the figure with nothing deleted — where widening the
/// beam by the deleted count made the walk a full scan — while every
/// answer still holds `k` live results and recall against the exact scan
/// of the live rows is no lower.  Counts only, no clocks.
#[test]
fn deletions_cost_the_walk_its_live_share() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let unit = |rng: &mut StdRng, d: usize| {
        let v: Vec<f32> = (0..d).map(|_| rng.random::<f32>() - 0.5).collect();
        let norm = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        v.into_iter().map(|x| x / norm).collect::<Vec<f32>>()
    };
    let (n, nq, k, l) = (4_000usize, 100, 10, 100);
    let mut rng = StdRng::seed_from_u64(17);
    let mut sets = [VectorSet::with_capacity(64, n), VectorSet::with_capacity(32, n)];
    for _ in 0..n {
        for (set, d) in sets.iter_mut().zip([64, 32]) {
            set.push(&unit(&mut rng, d)).unwrap();
        }
    }
    let objects = FusedRows::new(sets.into()).unwrap();
    let opts = MustBuildOptions { gamma: 16, recipe: GraphRecipe::Hnsw, ..Default::default() };
    let mut must = Must::build(objects, Weights::uniform(2), opts).unwrap();
    let queries: Vec<MultiQuery> =
        (0..nq).map(|_| MultiQuery::full(vec![unit(&mut rng, 64), unit(&mut rng, 32)])).collect();
    let mut doomed: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        doomed.swap(i, rng.random_range(0..i + 1));
    }
    let mut base: Option<(f64, f64)> = None;
    for (percent, bound) in [(0, 1.0), (10, 1.2), (25, 1.5), (50, 2.2)] {
        for &id in &doomed[..n * percent / 100] {
            must.mark_deleted(id).unwrap();
        }
        let (mut evals, mut hits) = (0u64, 0usize);
        for (qi, q) in queries.iter().enumerate() {
            let out = must.search(q, k, l).unwrap();
            assert_eq!(out.results.len(), k, "{percent} % deleted, query {qi}");
            assert!(out.results.iter().all(|&(id, _)| !must.is_deleted(id)));
            evals += out.stats.evaluated;
            let truth = must.brute_force(q, k).unwrap().results;
            hits += out.results.iter().filter(|r| truth.iter().any(|t| t.0 == r.0)).count();
        }
        let (evals, recall) = (evals as f64 / nq as f64, hits as f64 / (nq * k) as f64);
        let (base_evals, base_recall) = *base.get_or_insert((evals, recall));
        let ratio = evals / base_evals;
        assert!(ratio <= bound, "{percent} % deleted: {evals} evals per query, {ratio:.2}× the 0 % figure");
        assert!(recall >= base_recall, "{percent} % deleted: recall {recall} < {base_recall} at 0 %");
    }
}

/// Offline build → binary bundle on disk → `MustServer::load` → serving
/// results identical to the in-process freeze (the README quickstart
/// deployment path).
#[test]
fn bundle_load_serves_identically() {
    let (must, queries) = built_fixture();
    let dir = std::env::temp_dir().join("must-serving-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("snapshot-{}.mustb", std::process::id()));
    persist::save(&must, &path).unwrap();
    let server = MustServer::freeze(must);

    let loaded = MustServer::load(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    for (qi, q) in queries.iter().take(16).enumerate() {
        let a = server.search(q, 10, 60).unwrap();
        let b = loaded.search(q, 10, 60).unwrap();
        assert_eq!(a.results, b.results, "query {qi}");
        assert_eq!(a.stats, b.stats, "query {qi}");
    }
}

/// A request for `k = l = 2^40` is answered with every row, on every
/// entry point.  A search reserves room for its pool up front; capped at
/// the row count, a huge `k` or `l` no longer asks the allocator for
/// terabytes.  That failure is an abort, not a panic: no
/// `MustError::Panicked` can catch it, and it would end the process,
/// every serve worker included.
#[test]
fn a_huge_k_is_answered_on_every_entry_point() {
    use must::core::baselines::{mr_brute_force, JointEmbedding, MultiStreamedRetrieval};
    use must::graph::SearchScratch;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const N: usize = 64;
    const HUGE: usize = 1 << 40;
    let mut rng = StdRng::seed_from_u64(64);
    let sets = [8usize, 5].map(|d| {
        let mut b = VectorSetBuilder::new(d, N);
        for _ in 0..N {
            let v: Vec<f32> = (0..d).map(|_| rng.random::<f32>() - 0.5).collect();
            b.push_normalized(&v).unwrap();
        }
        b.finish()
    });
    let set = FusedRows::new(sets.into()).unwrap();
    let w = Weights::uniform(2);
    let q = MultiQuery::full((0..2).map(|m| set.modality(m).get(5).to_vec()).collect());
    let opts = |recipe| MustBuildOptions { gamma: 8, recipe, ..Default::default() };
    let every_row = |what: &str, got: usize| assert_eq!(got, N, "{what}");

    for recipe in [GraphRecipe::Fused, GraphRecipe::Hnsw] {
        for codes in [false, true] {
            let mut must = Must::build(set.clone(), w.clone(), opts(recipe)).unwrap();
            if codes {
                must.quantize();
            }
            let out = must.search(&q, HUGE, HUGE).unwrap();
            every_row(&format!("Must::search, {recipe:?}, codes {codes}"), out.results.len());
        }
    }
    let must = Must::build(set.clone(), w.clone(), opts(GraphRecipe::Fused)).unwrap();
    every_row("Must::brute_force", must.brute_force(&q, HUGE).unwrap().results.len());
    let scan = search::brute_force_search(&set, &q, &w, HUGE, true).unwrap();
    every_row("brute_force_search", scan.results.len());
    let truth = search::exact_ground_truth(&set, &w, slice::from_ref(&q), HUGE).unwrap();
    every_row("exact_ground_truth", truth[0].len());

    let server = MustServer::freeze(must);
    let batch = server.search_batch(slice::from_ref(&q), HUGE, HUGE, 1);
    every_row("MustServer::search_batch", batch[0].as_ref().unwrap().results.len());
    let (rep_tx, rep_rx) = mpsc::channel();
    let runtime = ServeRuntime::start(&server, 2, rep_tx);
    runtime.submit(ServeRequest { id: 0, query: q.clone(), k: HUGE, l: HUGE });
    assert_eq!(runtime.shutdown(), 1);
    let reply = rep_rx.recv().unwrap();
    every_row("ServeRuntime", reply.outcome.unwrap().results.len());

    let sharded = ShardedMust::build(set.clone(), w, opts(GraphRecipe::Fused), ShardSpec::clustered(2));
    let sharded = ShardedServer::freeze(sharded.unwrap());
    every_row("ShardedServer", sharded.search(&q, HUGE, HUGE).unwrap().results.len());
    let routed = sharded.with_routing(RoutePolicy::new(1)).search(&q, HUGE, HUGE).unwrap();
    assert!(!routed.results.is_empty() && routed.results.len() <= N, "routed ShardedServer");

    let mut scratch = SearchScratch::default();
    let mr = MultiStreamedRetrieval::build(&set, 8);
    every_row("MR", mr.search(&q, HUGE, HUGE, &mut scratch).unwrap().results.len());
    let je = JointEmbedding::build(&set, 8);
    every_row("JE", je.search(&q, HUGE, HUGE, &mut scratch).unwrap().len());
    every_row("mr_brute_force", mr_brute_force(&set, &q, HUGE, HUGE).0.len());
}
