//! Tie order: results are ranked by (similarity desc, id asc), a total
//! order, so an answer is a pure function of the query.  Ties are rare on
//! continuous data, so no golden hash sees them; these tests make them
//! certain.  The corpus holds pairs of bit-identical rows, each query is
//! one row of a pair, and every entry point must return the pair at the
//! top with equal similarity bits, lower id first: `Must::search` on f32
//! rows and on SQ8 codes, `MustServer`, `ShardedServer`'s gather,
//! `Must::brute_force`, `brute_force_search`, `exact_ground_truth` at
//! every query count from 1 to 9 (blocks of four and the remainder), and
//! `ServeRuntime`.

use std::sync::mpsc;

use must::core::search::{brute_force_search, exact_ground_truth, SearchOutcome};
use must::prelude::*;
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
    for shards in [2usize, 3] {
        let sharded =
            ShardedMust::build(set.clone(), Weights::uniform(2), opts(), ShardSpec::clustered(shards))
                .unwrap();
        let server = ShardedServer::freeze(sharded);
        let mut worker = server.worker();
        let outs = qs.iter().map(|q| worker.search(q, K, L).unwrap());
        assert_outcomes(&format!("ShardedServer S={shards}"), outs);
    }
}
