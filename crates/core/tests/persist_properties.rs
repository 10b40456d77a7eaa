//! Property tests for bundle persistence: arbitrary small corpora × every
//! graph backend round-trip through `save` (v5) to bit-identical search
//! results; corrupt v7 bundles error; every written format stays mutable;
//! every truncated bundle is an `Io` error; no single flipped byte makes a
//! loader, or a search on what it loads, panic.

use must_core::framework::{Must, MustBuildOptions};
use must_core::{persist, MustError};
use must_graph::GraphRecipe;
use must_vector::{MultiQuery, MultiVectorSet, VectorSetBuilder, Weights};
use proptest::prelude::*;

/// Deterministic pseudo-random corpus from a seed: `n` objects, two
/// modalities of dimensionality `d0`/`d1`.
fn corpus(n: usize, d0: usize, d1: usize, seed: u64) -> MultiVectorSet {
    let mut rng = proptest::TestRng::new(seed);
    let mut m0 = VectorSetBuilder::new(d0, n);
    let mut m1 = VectorSetBuilder::new(d1, n);
    for _ in 0..n {
        // Shift off zero so every vector is normalisable.
        let v0: Vec<f32> = (0..d0).map(|_| rng.unit_f64() as f32 + 0.05).collect();
        let v1: Vec<f32> = (0..d1).map(|_| rng.unit_f64() as f32 + 0.05).collect();
        m0.push_normalized(&v0).unwrap();
        m1.push_normalized(&v1).unwrap();
    }
    MultiVectorSet::new(vec![m0.finish(), m1.finish()]).unwrap()
}

fn tmp(tag: &str, case: u64) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("must-persist-prop");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{tag}-{}-{case}.bundle", std::process::id()))
}

fn self_query(set: &MultiVectorSet, id: u32) -> MultiQuery {
    MultiQuery::full(vec![
        set.modality(0).get(id).to_vec(),
        set.modality(1).get(id).to_vec(),
    ])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn v2_round_trips_every_backend_to_identical_results(
        n in 24usize..72,
        d0 in 3usize..8,
        d1 in 2usize..5,
        recipe_idx in 0usize..7,
        seed in 1u64..1_000_000,
    ) {
        let recipe = GraphRecipe::all()[recipe_idx];
        let set = corpus(n, d0, d1, seed);
        let must = Must::build(
            set,
            Weights::new(vec![0.8, 0.5]).unwrap(),
            MustBuildOptions { gamma: 8, recipe, ..Default::default() },
        )
        .unwrap();
        let path = tmp("v2", seed ^ (n as u64) << 32 ^ recipe_idx as u64);
        persist::save(&must, &path).unwrap();
        let loaded = persist::load(&path).unwrap();
        std::fs::remove_file(&path).unwrap();

        prop_assert_eq!(loaded.objects().len(), must.objects().len());
        prop_assert_eq!(loaded.weights(), must.weights());
        for probe in 0..4u32 {
            let id = probe * (n as u32 / 4);
            let q = self_query(must.objects(), id);
            let a = must.search(&q, 3, 24).unwrap();
            let b = loaded.search(&q, 3, 24).unwrap();
            let what = format!("recipe {} query {}", recipe.label(), id);
            prop_assert_eq!((a.results, a.stats), (b.results, b.stats), "{}", what);
        }
    }
}

/// Byte offset of the v7 section table for an `m`-modality bundle:
/// magic (8) + version (4) + prune (1) + m (4) + dims (4·m) + lane (4)
/// + n (8) + n_sections (4).
fn v7_table_at(m: usize) -> usize {
    8 + 4 + 1 + 4 + 4 * m + 4 + 8 + 4
}

/// Corrupt v7 bundles must surface `MustError` — truncated offset
/// tables, overlapping / out-of-bounds / misaligned sections, lying
/// lengths and bytes after the index block all come back as `Config` or
/// `Io`, never a panic (the loader checks the whole table before it reads
/// a section, so a lying table is refused before any section is read).
#[test]
fn v7_corrupt_bundles_error_instead_of_panicking() {
    let set = corpus(30, 4, 3, 7);
    let mut must = Must::build(
        set,
        Weights::uniform(2),
        MustBuildOptions { gamma: 6, ..Default::default() },
    )
    .unwrap();
    must.quantize();
    let path = tmp("v7-good", 7);
    persist::save_quantized(&must, &path).unwrap();
    let good = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).unwrap();

    let table_at = v7_table_at(2);
    let check = |tag: &str, bytes: Vec<u8>| {
        let p = tmp(tag, 7);
        std::fs::write(&p, &bytes).unwrap();
        let err = match persist::load(&p) {
            Err(e) => e,
            Ok(_) => panic!("{tag}: corrupt bundle loaded successfully"),
        };
        std::fs::remove_file(&p).unwrap();
        assert!(
            matches!(err, MustError::Config(_) | MustError::Io(_)),
            "{tag}: unexpected error class {err:?}"
        );
        err
    };

    // Offset table cut mid-entry.
    check("v7-trunc-table", good[..table_at + 24].to_vec());
    // Sections extend past the end of the buffer (truncated body).
    check("v7-trunc-body", good[..good.len() - 64].to_vec());
    // Misaligned section offset (v7 sections start on 32-byte boundaries).
    let mut bad = good.clone();
    bad[table_at] = bad[table_at].wrapping_add(1);
    check("v7-misaligned", bad);
    // The index section moved 4 bytes later, with its table entry and the
    // padding before it rewritten to match: in bounds and overlap-free,
    // so only the alignment rule refuses it.
    let mut bad = good.clone();
    let entry = table_at + 5 * 16;
    let off = u64::from_le_bytes(bad[entry..entry + 8].try_into().unwrap());
    bad[entry..entry + 8].copy_from_slice(&(off + 4).to_le_bytes());
    let at = table_at + 6 * 16 + off as usize;
    bad.splice(at..at, [0u8; 4]);
    let err = check("v7-index-unaligned", bad);
    assert!(matches!(err, MustError::Config(_)), "v7-index-unaligned: {err:?}");
    // Four zero bytes after the index block, inside its section: the file
    // and the index entry's length both grow by 4, so only the
    // trailing-bytes check refuses it.
    let mut bad = good.clone();
    let len_at = table_at + 5 * 16 + 8;
    let len = u64::from_le_bytes(bad[len_at..len_at + 8].try_into().unwrap());
    bad[len_at..len_at + 8].copy_from_slice(&(len + 4).to_le_bytes());
    bad.extend_from_slice(&[0; 4]);
    let err = check("v7-index-trailing", bad);
    assert!(
        matches!(&err, MustError::Config(msg) if msg.contains("trailing")),
        "v7-index-trailing: {err:?}"
    );
    // Section 1 pulled back over section 0: overlap.
    let mut bad = good.clone();
    bad[table_at + 16..table_at + 24].copy_from_slice(&0u64.to_le_bytes());
    check("v7-overlap", bad);
    // Aligned but far out of bounds: the index section flies off the end.
    let mut bad = good.clone();
    let oob = ((good.len() as u64).div_ceil(32) * 32 + 64).to_le_bytes();
    bad[table_at + 5 * 16..table_at + 5 * 16 + 8].copy_from_slice(&oob);
    check("v7-oob", bad);
    // Lying length: the weights section claims 4 bytes instead of m·4.
    let mut bad = good.clone();
    bad[table_at + 2 * 16 + 8..table_at + 2 * 16 + 16].copy_from_slice(&4u64.to_le_bytes());
    check("v7-bad-len", bad);
    // Version stamped v7 on a v5 body: the table parse must fail loudly.
    let v5 = tmp("v5-body", 7);
    persist::save(&must, &v5).unwrap();
    let mut bytes = std::fs::read(&v5).unwrap();
    std::fs::remove_file(&v5).unwrap();
    bytes[8..12].copy_from_slice(&7u32.to_le_bytes());
    check("v7-v5-body", bytes);
}

/// The persisted matrix stays loadable *and mutable*: every single-shard
/// format (v5 binary, v7 quantized) plus the sharded container
/// round-trips, and bundles whose backend supports
/// dynamic insertion accept `insert_object` after loading — including
/// the v7 case, where the insert appends to the codes copied out of the
/// bundle.
#[test]
fn format_matrix_round_trips_and_loaded_bundles_stay_mutable() {
    let set = corpus(40, 4, 3, 11);
    let w = Weights::uniform(2);
    let new_row = vec![set.modality(0).get(0).to_vec(), set.modality(1).get(0).to_vec()];

    // v5 binary with a flat graph: insertion is rejected by policy, not
    // format.
    let flat = Must::build(
        set.clone(),
        w.clone(),
        MustBuildOptions { gamma: 6, ..Default::default() },
    )
    .unwrap();
    let p = tmp("matrix-v5-flat", 11);
    persist::save(&flat, &p).unwrap();
    let mut loaded = persist::load(&p).unwrap();
    std::fs::remove_file(&p).unwrap();
    assert_eq!(loaded.objects().len(), 40);
    assert!(matches!(loaded.insert_object(&new_row), Err(MustError::Config(_))));

    // v5 binary with HNSW: loads and keeps growing.
    let hnsw_opts =
        MustBuildOptions { gamma: 6, recipe: GraphRecipe::Hnsw, ..Default::default() };
    let hnsw = Must::build(set.clone(), w.clone(), hnsw_opts).unwrap();
    let p = tmp("matrix-v5", 11);
    persist::save(&hnsw, &p).unwrap();
    let mut loaded = persist::load(&p).unwrap();
    std::fs::remove_file(&p).unwrap();
    assert_eq!(loaded.insert_object(&new_row).unwrap(), 40);
    assert_eq!(loaded.objects().len(), 41);

    // v7 quantized with HNSW: load, then append to the loaded engine.
    let mut quantized = Must::build(set.clone(), w.clone(), hnsw_opts).unwrap();
    quantized.quantize();
    let p = tmp("matrix-v7", 11);
    persist::save_quantized(&quantized, &p).unwrap();
    let mut loaded = persist::load(&p).unwrap();
    std::fs::remove_file(&p).unwrap();
    let q = loaded.quant().expect("v7 restores the SQ8 engine");
    assert_eq!(Some(q), quantized.quant(), "codes, parameters and norms load as saved");
    assert_eq!(loaded.insert_object(&new_row).unwrap(), 40);
    let q = loaded.quant().unwrap();
    assert_eq!(q.len(), 41, "codes stay in lockstep with the corpus");
    let out = loaded.search(&self_query(loaded.objects(), 0), 3, 24).unwrap();
    assert_eq!(out.results.len(), 3);

    // Sharded container (v6): round-trips through its own loader.
    let sharded = must_core::shard::ShardedMust::build(
        set,
        w,
        MustBuildOptions { gamma: 6, ..Default::default() },
        must_core::shard::ShardSpec::clustered(2),
    )
    .unwrap();
    let p = tmp("matrix-sharded", 11);
    persist::save_sharded(&sharded, &p).unwrap();
    let loaded = persist::load_sharded(&p).unwrap();
    std::fs::remove_file(&p).unwrap();
    assert_eq!(loaded.num_shards(), sharded.num_shards());
    assert_eq!(loaded.len(), sharded.len());
}

/// Payload header length for `m` modalities: prune (1) + m (4) + dims
/// (4·m) + lane (4) + n (8).
fn header_len(m: usize) -> usize {
    1 + 4 + 4 * m + 4 + 8
}

/// Loads `bytes` through both loaders.  Each must return, not panic, and
/// whatever loads must answer one query (an `Err` answer is fine), routed
/// as well as unrouted when it is sharded.
fn load_flipped(path: &std::path::Path, bytes: &[u8], query: &MultiQuery) {
    use must_core::shard::{RoutePolicy, ShardedServer};
    std::fs::write(path, bytes).unwrap();
    if let Ok(must) = persist::load(path) {
        let _ = must.search(query, 3, 16);
    }
    if let Ok(sharded) = persist::load_sharded(path) {
        let server = ShardedServer::freeze(sharded);
        let _ = server.search(query, 3, 16);
        let _ = server.with_routing(RoutePolicy::new(1)).search(query, 3, 16);
    }
}

/// Every proper prefix of four bundles is an `Io` error from each loader
/// that reads its version.  Every byte of every header, the v7 section
/// table and the v6 manifest, flipped three ways, plus a seeded sample of
/// body bytes: `load` and `load_sharded` return `Ok` or `Err` and never
/// panic, and an `Ok` answers a query without panicking.  A flip that
/// reaches a panic names the bundle, the byte and the mask.
#[test]
fn byte_flips_never_panic_a_loader() {
    let set = corpus(30, 4, 3, 21);
    let w = Weights::new(vec![0.8, 0.5]).unwrap();
    let query = self_query(&set, 5);
    let opts = |recipe| MustBuildOptions { gamma: 6, recipe, ..Default::default() };
    let bytes_of = |tag: &str, save: &dyn Fn(&std::path::Path)| {
        let p = tmp(tag, 21);
        save(&p);
        let bytes = std::fs::read(&p).unwrap();
        std::fs::remove_file(&p).unwrap();
        bytes
    };
    let m = 2;
    let head = 12 + header_len(m);

    let csr = Must::build(set.clone(), w.clone(), opts(GraphRecipe::Fused)).unwrap();
    let hnsw = Must::build(set.clone(), w.clone(), opts(GraphRecipe::Hnsw)).unwrap();
    let v5_csr = bytes_of("flip-v5-csr", &|p| persist::save(&csr, p).unwrap());
    let v5_hnsw = bytes_of("flip-v5-hnsw", &|p| persist::save(&hnsw, p).unwrap());
    let v7 = bytes_of("flip-v7", &|p| persist::save_quantized(&hnsw, p).unwrap());
    let sharded = must_core::shard::ShardedMust::build(
        set.clone(),
        w.clone(),
        opts(GraphRecipe::Fused),
        must_core::shard::ShardSpec::clustered(2),
    )
    .unwrap();
    let v6 = bytes_of("flip-v6", &|p| persist::save_sharded(&sharded, p).unwrap());

    // The v6 manifest ends where the offset table (one u64 per shard, the
    // manifest's last field) says shard 0's payload starts; each payload
    // opens with its own header.
    let s = sharded.num_shards();
    let payload_at = |i: usize| {
        let at = v6_manifest_len(&sharded, m) - 8 * s + 8 * i;
        u64::from_le_bytes(v6[at..at + 8].try_into().unwrap()) as usize
    };
    assert_eq!(payload_at(0), v6_manifest_len(&sharded, m), "shard 0 follows the manifest");
    let mut v6_heads: Vec<usize> = (0..payload_at(0)).collect();
    v6_heads.extend((0..s).flat_map(|i| payload_at(i)..payload_at(i) + header_len(m)));

    let bundles: [(&str, &Vec<u8>, Vec<usize>); 4] = [
        ("v5 CSR", &v5_csr, (0..head).collect()),
        ("v5 HNSW", &v5_hnsw, (0..head).collect()),
        ("v7", &v7, (0..v7_table_at(m) + 16 * 6).collect()),
        ("v6 S=2", &v6, v6_heads),
    ];
    let path = tmp("flip", 21);
    // Every proper prefix is one more corruption, and a typed one: each
    // loader that reads the version fails with `Io` at the first missing
    // byte.  `load` refuses v6 by its version word instead, with a
    // `Config` pointing at `load_sharded`, once the preamble is whole.
    for (tag, good, _) in &bundles {
        for len in 0..good.len() {
            std::fs::write(&path, &good[..len]).unwrap();
            let single = persist::load(&path).map(drop);
            match single {
                Err(MustError::Config(msg)) if tag.starts_with("v6") && len >= 12 => {
                    assert!(msg.contains("load_sharded"), "{tag}: {len}-byte prefix: {msg}");
                }
                Err(MustError::Io(_)) if !tag.starts_with("v6") || len < 12 => {}
                other => panic!("{tag}: {len}-byte prefix, load: {other:?}"),
            }
            let sharded = persist::load_sharded(&path).map(drop);
            assert!(
                matches!(sharded, Err(MustError::Io(_))),
                "{tag}: {len}-byte prefix, load_sharded: {sharded:?}"
            );
        }
    }
    let mut rng = proptest::TestRng::new(0xF11B);
    for (tag, good, mut positions) in bundles {
        positions.extend((0..96).map(|_| (rng.unit_f64() * good.len() as f64) as usize));
        for &at in &positions {
            for mask in [0x01u8, 0x80, 0xFF] {
                let mut bad = good.clone();
                bad[at] ^= mask;
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    load_flipped(&path, &bad, &query);
                }));
                assert!(outcome.is_ok(), "{tag}: byte {at} ^ {mask:#04x} panicked");
            }
        }
    }
    std::fs::remove_file(&path).unwrap();
}

/// Byte length of a v6 bundle's preamble and manifest: preamble (12),
/// shard count (4), tag (1), the length-prefixed id maps, the
/// length-prefixed centroid and radii of every summary, the offsets.
fn v6_manifest_len(sharded: &must_core::shard::ShardedMust, m: usize) -> usize {
    let s = sharded.num_shards();
    let ids: usize = (0..s).map(|i| 8 + 4 * sharded.global_ids(i).len()).sum();
    let sums: usize =
        (0..s).map(|i| 8 + 4 * sharded.summary(i).centroid().len() + 8 + 4 * m).sum();
    12 + 4 + 1 + ids + sums + 8 * s
}
