//! One model for every engine.  The model scores every live row in f64,
//! straight from the modality views (`sum_k w_k^2 <q_k, o_k>` over the
//! supplied slots), and ranks by (similarity desc, id asc).  Every exact
//! path must return the model's top-`k`; every walk must return a
//! well-formed answer whose similarities are the model's.
//!
//! The inputs are the ones that break engines: 1–199 rows with duplicate
//! rows and zero or constant segments, 1–4 modalities whose dims are not
//! multiples of `FUSED_LANE`, zero weights, tombstones up to all but one
//! row, partial queries, `k` past the live count and `l` below `k`.
//!
//! Paths: `Must::search` and `MustServer::search` on f32 rows and on SQ8
//! codes, each over the CSR (`GraphRecipe::Fused`) and the HNSW index;
//! `brute_force_search`, `Must::brute_force` and `exact_ground_truth`; and
//! the per-modality exact top-k behind `MR--` and JE.
//!
//! Checks: ids unique, in range and live; results ordered by (similarity
//! desc, id asc); min(k, live n) of them; each similarity within `TOL` of
//! the model's, and after the SQ8 re-rank exactly the f32 row's.  At
//! `l >= n` an f32 walk scores every vertex it reaches, so on a graph
//! reachable from its entry it returns the exact top-`k`.

use std::collections::{HashMap, HashSet};

use must::core::index::MustIndex;
use must::core::search::{brute_force_search, exact_ground_truth, modality_top_k};
use must::graph::GraphRecipe;
use must::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Slack between an engine's f32 similarity and the model's f64 one.
const TOL: f64 = 1e-5;

/// One drawn instance: the corpus, its weights and tombstones, a few
/// queries and one `(k, l)`.
struct Instance {
    set: MultiVectorSet,
    weights: Weights,
    deleted: Vec<bool>,
    queries: Vec<MultiQuery>,
    k: usize,
    l: usize,
}

fn unit(rng: &mut StdRng, d: usize) -> Vec<f32> {
    let v: Vec<f32> = (0..d).map(|_| rng.random::<f32>() - 0.5).collect();
    let norm = v.iter().map(|x| x * x).sum::<f32>().sqrt().max(f32::MIN_POSITIVE);
    v.into_iter().map(|x| x / norm).collect()
}

fn instance(seed: u64) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.random_range(1..200usize);
    let m = rng.random_range(1..5usize);
    let dims: Vec<usize> = (0..m).map(|_| rng.random_range(1..20usize)).collect();
    let mut rows: Vec<Vec<Vec<f32>>> = Vec::with_capacity(n);
    for i in 0..n {
        if i > 0 && rng.random::<f32>() < 0.2 {
            let copy = rows[rng.random_range(0..i)].clone();
            rows.push(copy);
            continue;
        }
        let row = dims
            .iter()
            .map(|&d| match rng.random_range(0..10usize) {
                0 => vec![0.0; d],
                1 => vec![(1.0 / d as f32).sqrt(); d],
                _ => unit(&mut rng, d),
            })
            .collect();
        rows.push(row);
    }
    let sets = dims
        .iter()
        .enumerate()
        .map(|(k, &d)| {
            let mut s = VectorSet::with_capacity(d, n);
            for row in &rows {
                s.push(&row[k]).unwrap();
            }
            s
        })
        .collect();
    let set = MultiVectorSet::new(sets).unwrap();
    // Zero weights, but never all of them: `Weights::new` refuses all-zero
    // weights (every pair would tie, and no graph has anything to navigate
    // by), so one entry stays positive.
    let positive = rng.random_range(0..m);
    let omega = (0..m)
        .map(|k| {
            let zero = k != positive && rng.random::<f32>() < 0.25;
            if zero { 0.0 } else { 0.1 + 0.9 * rng.random::<f32>() }
        })
        .collect();
    let weights = Weights::new(omega).unwrap();

    // Tombstones in half the instances, up to all but one row.
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.random_range(0..i + 1));
    }
    let doomed = if rng.random::<f32>() < 0.5 { 0 } else { rng.random_range(0..n) };
    let mut deleted = vec![false; n];
    for &id in &order[..doomed] {
        deleted[id] = true;
    }

    let queries = (0..rng.random_range(1..7usize))
        .map(|_| {
            let keep = rng.random_range(0..m);
            let from = rng.random_range(0..n);
            let slots = (0..m)
                .map(|k| {
                    let supplied = k == keep || rng.random::<f32>() < 0.7;
                    let own = rng.random::<f32>() < 0.5;
                    supplied.then(|| if own { rows[from][k].clone() } else { unit(&mut rng, dims[k]) })
                })
                .collect();
            MultiQuery::partial(slots)
        })
        .collect();
    let k = rng.random_range(1..n + 4);
    let l = match rng.random::<f32>() < 0.5 {
        true => rng.random_range(1..n + 4),
        false => n + rng.random_range(0..3usize),
    };
    Instance { set, weights, deleted, queries, k, l }
}

/// The model: `(id, similarity)` of every row `live` accepts, ranked by
/// (similarity desc, id asc).  `modality` restricts it to one modality's
/// unweighted inner product.
fn model(
    inst: &Instance,
    q: &MultiQuery,
    modality: Option<usize>,
    live: impl Fn(u32) -> bool,
) -> Vec<(u32, f64)> {
    let dot = |a: &[f32], b: &[f32]| a.iter().zip(b).map(|(&x, &y)| x as f64 * y as f64).sum::<f64>();
    let mut all: Vec<(u32, f64)> = (0..inst.set.len() as u32)
        .filter(|&id| live(id))
        .map(|id| {
            let sim = (0..inst.set.num_modalities())
                .filter(|&k| modality.is_none_or(|m| m == k))
                .filter_map(|k| {
                    let slot = q.slot(k)?;
                    let w = if modality.is_some() { 1.0 } else { inst.weights.sq(k) as f64 };
                    Some(w * dot(inst.set.modality(k).get(id), slot))
                })
                .sum();
            (id, sim)
        })
        .collect();
    all.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    all
}

/// What an answer must be beyond well-formed (unique live ids, ranked,
/// each similarity the model's).
#[derive(Clone, Copy, PartialEq)]
enum Expect {
    /// The model's top-`k`: every row the model puts clearly above the
    /// answer's last similarity is in it.
    TopK,
    /// min(k, live n) results.
    Full,
    /// At most that many: a walk over a graph it cannot reach whole.
    Partial,
}

/// Checks `got` against the model's ranking `want` of the rows the
/// answer may hold.
fn check(
    what: &str,
    got: &[(u32, f32)],
    want: &[(u32, f64)],
    k: usize,
    expect: Expect,
) -> TestCaseResult {
    let count = k.min(want.len());
    if expect == Expect::Partial {
        prop_assert!(got.len() <= count, "{what}: {} results, at most {count} expected", got.len());
    } else {
        prop_assert_eq!(got.len(), count, "{}: result count", what);
    }
    let sims: HashMap<u32, f64> = want.iter().copied().collect();
    let mut seen = HashSet::new();
    for &(id, s) in got {
        prop_assert!(seen.insert(id), "{what}: id {id} returned twice");
        let model = sims.get(&id).copied();
        prop_assert!(model.is_some(), "{what}: id {id} is out of range or deleted");
        let model = model.unwrap_or_default();
        prop_assert!((s as f64 - model).abs() <= TOL, "{what}: id {id} scored {s}, model {model}");
    }
    for w in got.windows(2) {
        let ordered = w[0].1 > w[1].1 || (w[0].1 == w[1].1 && w[0].0 < w[1].0);
        prop_assert!(ordered, "{what}: {:?} ranked before {:?}", w[0], w[1]);
    }
    if let (Expect::TopK, Some(&(_, last))) = (expect, got.last()) {
        for &(id, s) in want.iter().take_while(|&&(_, s)| s > last as f64 + 2.0 * TOL) {
            prop_assert!(seen.contains(&id), "{what}: misses id {id} (model {s}, last {last})");
        }
    }
    Ok(())
}

/// Whether every walk reaches every vertex: the CSR graph from its seed,
/// HNSW's layer 0 from any vertex (the query's descent picks where the
/// layer-0 walk starts).
fn walks_reach_everything(index: &MustIndex) -> bool {
    let n = index.len();
    let (lists, starts): (Vec<&[u32]>, Vec<u32>) = match index {
        MustIndex::Csr(g) => ((0..n as u32).map(|v| g.neighbors(v)).collect(), vec![g.seed()]),
        MustIndex::Hnsw(h) => {
            ((0..n as u32).map(|v| h.neighbors(v, 0)).collect(), (0..n as u32).collect())
        }
    };
    starts.into_iter().all(|start| {
        let mut seen = vec![false; n];
        seen[start as usize] = true;
        let mut stack = vec![start];
        let mut reached = 1;
        while let Some(v) = stack.pop() {
            for &u in lists[v as usize] {
                if !std::mem::replace(&mut seen[u as usize], true) {
                    reached += 1;
                    stack.push(u);
                }
            }
        }
        reached == n
    })
}

fn bits(results: &[(u32, f32)]) -> Vec<(u32, u32)> {
    results.iter().map(|&(id, s)| (id, s.to_bits())).collect()
}

fn check_instance(seed: u64) -> Result<(), TestCaseError> {
    let inst = instance(seed);
    let (n, k, l) = (inst.set.len(), inst.k, inst.l);
    let rows = inst.set.fused();
    let w = &inst.weights;
    let live = |id: u32| !inst.deleted[id as usize];

    // The exact paths over every row.
    let truth = exact_ground_truth(&inst.set, w, &inst.queries, k).unwrap();
    for (qi, (q, gt)) in inst.queries.iter().zip(&truth).enumerate() {
        let want = model(&inst, q, None, |_| true);
        for prune in [true, false] {
            let out = brute_force_search(rows, q, w, k, prune).unwrap();
            let what = format!("brute_force_search(prune {prune}), query {qi}");
            check(&what, &out.results, &want, k, Expect::TopK)?;
            // The ground truth scans pruned; unpruned scores round apart.
            if prune {
                let ids: Vec<u32> = out.results.iter().map(|r| r.0).collect();
                prop_assert_eq!(&ids, gt, "exact_ground_truth, query {}", qi);
            }
        }
        for m in (0..inst.set.num_modalities()).filter(|&m| q.slot(m).is_some()) {
            let got = modality_top_k(inst.set.modality(m), q.slot(m).unwrap(), k);
            let want = model(&inst, q, Some(m), |_| true);
            check(&format!("modality_top_k({m}), query {qi}"), &got, &want, k, Expect::TopK)?;
        }
    }

    // The walks, and the exact scan over the live rows.
    for recipe in [GraphRecipe::Fused, GraphRecipe::Hnsw] {
        let opts = MustBuildOptions { gamma: 8, recipe, ..Default::default() };
        let built = Must::build(inst.set.clone(), w.clone(), opts).unwrap();
        let index = built.index().clone();
        let walk = match walks_reach_everything(&index) {
            true if l >= n => Expect::TopK,
            true => Expect::Full,
            false => Expect::Partial,
        };
        for codes in [false, true] {
            let mut must = Must::from_parts(inst.set.clone(), w.clone(), index.clone(), opts).unwrap();
            for id in (0..n as u32).filter(|&id| !live(id)) {
                must.mark_deleted(id).unwrap();
            }
            if codes {
                must.quantize();
            }
            let mut offline = Vec::new();
            for (qi, q) in inst.queries.iter().enumerate() {
                let what = |path: &str| format!("{path}, {recipe:?}, codes {codes}, query {qi}");
                let want = model(&inst, q, None, live);
                let out = must.search(q, k, l).unwrap();
                // The SQ8 walk ranks codes: exact only up to its re-rank.
                let expect = if codes && walk == Expect::TopK { Expect::Full } else { walk };
                check(&what("Must::search"), &out.results, &want, k, expect)?;
                let scan = must.brute_force(q, k).unwrap();
                check(&what("Must::brute_force"), &scan.results, &want, k, Expect::TopK)?;
                if codes {
                    let eval = rows.query(q, w).unwrap();
                    for &(id, s) in &out.results {
                        let what = what("SQ8 re-rank");
                        prop_assert_eq!(s.to_bits(), eval.ip(id).to_bits(), "{}: id {}", what, id);
                    }
                }
                offline.push(out.results);
            }
            let server = MustServer::freeze(must);
            for (qi, (q, offline)) in inst.queries.iter().zip(&offline).enumerate() {
                let out = server.search(q, k, l).unwrap();
                let what = format!("MustServer::search, {recipe:?}, codes {codes}, query {qi}");
                prop_assert_eq!(bits(&out.results), bits(offline), "{}", what);
            }
        }
    }
    Ok(())
}

proptest! {
    #[test]
    fn every_engine_answers_as_the_model(seed in any::<u64>()) {
        check_instance(seed)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(640))]
    /// Ten times the cases, drawn from a stream of their own (the seed
    /// derives from the test's name); CI runs it in release with
    /// `cargo test --release --test differential -- --ignored`.
    #[test]
    #[ignore = "640 cases: run in release"]
    fn every_engine_answers_as_the_model_640_cases(seed in any::<u64>()) {
        check_instance(seed)?;
    }
}
