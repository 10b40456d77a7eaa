//! Tie order: results are ranked by (similarity desc, id asc), a total
//! order, so an answer is a pure function of the query.  Ties are rare on
//! continuous data, so no golden hash sees them; these tests make them
//! certain.  The corpus holds pairs of bit-identical rows, each query is
//! one row of a pair, and every entry point must return the pair at the
//! top with equal similarity bits, lower id first: `Must::search` on f32
//! rows and on SQ8 codes, `MustServer`, `ShardedServer`'s gather,
//! `Must::brute_force`, `brute_force_search`, `exact_ground_truth` at
//! every query count from 1 to 9 (blocks of four and the remainder), and
//! `ServeRuntime`.  The single-modality exact top-k behind `MR--` and JE,
//! `must_core::search::modality_top_k`, is checked on a corpus of
//! repeated rows, where whole runs of ties straddle the `k` cut.  Every
//! path ranks through `must_graph::Pool` and `must_graph::answer_order`;
//! `scripts/mutants.sh` breaks each (`pool-tie-placement`,
//! `answer-order-id-reversed`) and this file must fail.

use std::sync::mpsc;

use must::core::baselines::{merge_candidates, mr_brute_force};
use must::core::search::{brute_force_search, exact_ground_truth, modality_top_k, SearchOutcome};
use must::prelude::*;
use must::vector::{kernels, ModalityView};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const N: usize = 400;
const DIMS: [usize; 2] = [24, 8];
const K: usize = 5;
const L: usize = 100;

/// `(lower id, higher id)`: each higher row is a bit-identical copy of
/// the lower one.
const PAIRS: [(u32, u32); 9] =
    [(3, 4), (10, 250), (31, 399), (57, 58), (90, 91), (120, 300), (150, 151), (200, 333), (260, 261)];

fn corpus() -> MultiVectorSet {
    let mut rng = StdRng::seed_from_u64(41);
    let mut raw: Vec<[Vec<f32>; 2]> = (0..N)
        .map(|_| DIMS.map(|d| (0..d).map(|_| rng.random::<f32>() - 0.5).collect()))
        .collect();
    for (lo, hi) in PAIRS {
        raw[hi as usize] = raw[lo as usize].clone();
    }
    let sets = (0..2)
        .map(|k| {
            let mut b = VectorSetBuilder::new(DIMS[k], N);
            for row in &raw {
                b.push_normalized(&row[k]).unwrap();
            }
            b.finish()
        })
        .collect();
    MultiVectorSet::new(sets).unwrap()
}

fn self_query(set: &MultiVectorSet, id: u32) -> MultiQuery {
    MultiQuery::full((0..2).map(|k| set.modality(k).get(id).to_vec()).collect())
}

/// One query per pair, each the lower row of its pair.
fn queries(set: &MultiVectorSet) -> Vec<MultiQuery> {
    PAIRS.iter().map(|&(lo, _)| self_query(set, lo)).collect()
}

fn opts() -> MustBuildOptions {
    MustBuildOptions { gamma: 16, ..Default::default() }
}

fn assert_pair_first(what: &str, results: &[(u32, f32)], (lo, hi): (u32, u32)) {
    assert!(results.len() >= 2, "{what}: {results:?}");
    let ((a, sa), (b, sb)) = (results[0], results[1]);
    assert_eq!((a, b), (lo, hi), "{what}: the tied pair comes back in id order");
    assert_eq!(sa.to_bits(), sb.to_bits(), "{what}: the pair ties bit for bit");
}

fn assert_outcomes(what: &str, outs: impl IntoIterator<Item = SearchOutcome>) {
    for (out, pair) in outs.into_iter().zip(PAIRS) {
        assert_pair_first(&format!("{what}, pair {pair:?}"), &out.results, pair);
    }
}

#[test]
fn exact_scans_return_ties_in_id_order() {
    let set = corpus();
    let w = Weights::new(vec![0.8, 0.5]).unwrap();
    let qs = queries(&set);
    for prune in [true, false] {
        let outs = qs.iter().map(|q| brute_force_search(set.fused(), q, &w, K, prune).unwrap());
        assert_outcomes(&format!("brute_force_search(prune {prune})"), outs);
    }
    let must = Must::build(set.clone(), w.clone(), opts()).unwrap();
    assert_outcomes("Must::brute_force", qs.iter().map(|q| must.brute_force(q, K).unwrap()));
    for count in 1..=qs.len() {
        let truth = exact_ground_truth(&set, &w, &qs[..count], K).unwrap();
        assert_eq!(truth.len(), count);
        for (ids, &(lo, hi)) in truth.iter().zip(&PAIRS) {
            assert_eq!(ids[..2], [lo, hi], "exact_ground_truth over {count} queries");
        }
    }
}

#[test]
fn walks_return_ties_in_id_order_on_f32_rows_and_sq8_codes() {
    let set = corpus();
    let qs = queries(&set);
    for codes in [false, true] {
        let mut must = Must::build(set.clone(), Weights::uniform(2), opts()).unwrap();
        if codes {
            must.quantize();
        }
        let what = |path: &str| format!("{path}, codes {codes}");
        assert_outcomes(&what("Must::search"), qs.iter().map(|q| must.search(q, K, L).unwrap()));
        let server = MustServer::freeze(must);
        assert_outcomes(&what("MustServer::search"), qs.iter().map(|q| server.search(q, K, L).unwrap()));

        let (rep_tx, rep_rx) = mpsc::channel();
        let runtime = ServeRuntime::start(&server, 2, rep_tx);
        for (i, q) in qs.iter().enumerate() {
            runtime.submit(ServeRequest { id: i as u64, query: q.clone(), k: K, l: L });
        }
        assert_eq!(runtime.shutdown(), qs.len());
        let mut replies: Vec<ServeReply> = rep_rx.iter().collect();
        replies.sort_by_key(|r| r.id);
        assert_outcomes(&what("ServeRuntime"), replies.into_iter().map(|r| r.outcome.unwrap()));
    }
}

#[test]
fn sharded_gather_returns_ties_in_id_order() {
    let set = corpus();
    let qs = queries(&set);
    for shards in [1usize, 2, 3] {
        let sharded =
            ShardedMust::build(set.clone(), Weights::uniform(2), opts(), ShardSpec::clustered(shards))
                .unwrap();
        let server = ShardedServer::freeze(sharded);
        let mut worker = server.worker();
        let outs = qs.iter().map(|q| worker.search(q, K, L).unwrap());
        assert_outcomes(&format!("ShardedServer S={shards}"), outs);
    }
}

/// The exact top-`k` of one modality by (similarity desc, id asc), by
/// sorting every row.
fn ranked_top_k(view: ModalityView<'_>, query: &[f32], k: usize) -> Vec<(u32, u32)> {
    let mut all: Vec<(u32, f32)> = view.iter().map(|(id, v)| (id, kernels::ip(v, query))).collect();
    all.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    all.into_iter().take(k).map(|(id, s)| (id, s.to_bits())).collect()
}

#[test]
fn single_modality_top_k_returns_ties_in_id_order() {
    // 200 rows over 7 directions per modality: every score repeats about
    // 28 times, so from k = 40 on a run of ties straddles the cut.
    const ROWS: usize = 200;
    let mut rng = StdRng::seed_from_u64(77);
    let dirs: Vec<[Vec<f32>; 2]> = (0..7)
        .map(|_| DIMS.map(|d| (0..d).map(|_| rng.random::<f32>() - 0.5).collect()))
        .collect();
    let picks: Vec<[usize; 2]> = (0..ROWS).map(|_| [0, 1].map(|_| rng.random_range(0..7))).collect();
    let sets = (0..2)
        .map(|k| {
            let mut b = VectorSetBuilder::new(DIMS[k], ROWS);
            for pick in &picks {
                b.push_normalized(&dirs[pick[k]][k]).unwrap();
            }
            b.finish()
        })
        .collect();
    let set = MultiVectorSet::new(sets).unwrap();
    let query = MultiQuery::full(
        DIMS.iter().map(|&d| (0..d).map(|_| rng.random::<f32>() - 0.5).collect()).collect(),
    );
    for k in [10, 25, 40, 64, 100, 150] {
        let mut per_modality = Vec::new();
        for m in 0..2 {
            let slot = query.slot(m).unwrap();
            let view = set.modality(m);
            let got: Vec<(u32, u32)> =
                modality_top_k(view, slot, k).into_iter().map(|(id, s)| (id, s.to_bits())).collect();
            let want = ranked_top_k(view, slot, k);
            assert_eq!(got, want, "modality_top_k, modality {m}, k = {k}");
            per_modality.push(want.into_iter().map(|(id, s)| (id, f32::from_bits(s))).collect());
        }
        assert_eq!(
            mr_brute_force(&set, &query, k, k),
            merge_candidates(&per_modality, k),
            "mr_brute_force, k = {k}"
        );
    }
}
