//! Criterion microbenchmarks for the similarity kernels — the innermost
//! loops of the whole system (up to 90 % of search time per the paper).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use must_vector::kernels;

fn vectors(dim: usize) -> (Vec<f32>, Vec<f32>) {
    let a: Vec<f32> = (0..dim).map(|i| ((i * 37 + 11) as f32).sin()).collect();
    let b: Vec<f32> = (0..dim).map(|i| ((i * 53 + 7) as f32).cos()).collect();
    (a, b)
}

fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernels");
    for dim in [32usize, 64, 128, 256] {
        let (a, b) = vectors(dim);
        group.bench_with_input(BenchmarkId::new("ip", dim), &dim, |bch, _| {
            bch.iter(|| kernels::ip(black_box(&a), black_box(&b)))
        });
        group.bench_with_input(BenchmarkId::new("l2_sq", dim), &dim, |bch, _| {
            bch.iter(|| kernels::l2_sq(black_box(&a), black_box(&b)))
        });
    }
    group.finish();
}

/// Four pairs per pass: `kernels::ip4` against four `kernels::ip` calls
/// and `kernels::l2_sq4` against four `kernels::l2_sq` calls on the same
/// in-cache vectors, at the repo benchmark's segment widths (64, 32) and
/// their fused sum (96).  Reports ns per pair for both and their ratio —
/// the kernel half of what graph construction (`ip4`) and the exact scan
/// (`l2_sq4`, a row against four queries) gain by working four at a time.
fn bench_ip4(c: &mut Criterion) {
    four_per_pass(c, "ip4", "ip", kernels::ip4, kernels::ip);
    four_per_pass(c, "l2_sq4", "l2_sq", kernels::l2_sq4, kernels::l2_sq);
}

fn four_per_pass(
    c: &mut Criterion,
    quad_name: &str,
    one_name: &str,
    quad_kernel: impl Fn(&[f32], [&[f32]; 4]) -> [f32; 4],
    one_kernel: impl Fn(&[f32], &[f32]) -> f32,
) {
    use std::time::Instant;

    let mut group = c.benchmark_group(quad_name);
    let mut report: Vec<(usize, f64, f64)> = Vec::new();
    for dim in [32usize, 64, 96] {
        let (a, _) = vectors(dim);
        let bs: Vec<Vec<f32>> = (0..4)
            .map(|j| (0..dim).map(|i| ((i * 53 + j * 29 + 7) as f32).cos()).collect())
            .collect();
        let quad = || [bs[0].as_slice(), &bs[1], &bs[2], &bs[3]];
        group.bench_with_input(BenchmarkId::new(quad_name, dim), &dim, |bch, _| {
            bch.iter(|| quad_kernel(black_box(&a), black_box(quad())))
        });
        group.bench_with_input(BenchmarkId::new(format!("{one_name}_x4"), dim), &dim, |bch, _| {
            bch.iter(|| quad().map(|b| one_kernel(black_box(&a), black_box(b))))
        });

        // Direct interleaved timing so the bench output carries the numbers.
        let iters = 400_000u32;
        let mut acc = 0.0f32;
        let t0 = Instant::now();
        for _ in 0..iters {
            acc += quad_kernel(black_box(&a), black_box(quad())).iter().sum::<f32>();
        }
        let quad_ns = t0.elapsed().as_nanos() as f64 / f64::from(iters * 4);
        let t0 = Instant::now();
        for _ in 0..iters {
            acc += quad().map(|b| one_kernel(black_box(&a), black_box(b))).iter().sum::<f32>();
        }
        let one_ns = t0.elapsed().as_nanos() as f64 / f64::from(iters * 4);
        black_box(acc);
        report.push((dim, quad_ns, one_ns));
    }
    group.finish();
    for (dim, quad_ns, one_ns) in &report {
        eprintln!(
            "[kernels] four pairs per pass d={dim}: {quad_name} {quad_ns:.1} ns/pair, \
             {one_name} {one_ns:.1} ns/pair, {quad_name} / {one_name} = {:.2}x",
            quad_ns / one_ns
        );
    }
}

/// Fused-row vs per-modality joint similarity: `m` modality segments of
/// dimension `d` each, weights baked into the fused *query* row (stored
/// rows stay raw), against the old layout's loop of `m` separate `ip`
/// calls with per-modality weight multiplies.  Reports the speedup ratio
/// per `(m, d)` point.
fn bench_ip_prescaled_segments(c: &mut Criterion) {
    use must_vector::{FusedRows, VectorSetBuilder, Weights};
    use std::time::Instant;

    let mut group = c.benchmark_group("ip_prescaled_segments");
    let mut ratios: Vec<(usize, usize, f64)> = Vec::new();
    for m in [2usize, 3, 4] {
        for d in [64usize, 128] {
            // A small corpus so rows live in cache: this isolates the
            // kernel shape (one fused pass vs m dispatched passes), not
            // memory latency — the serving bench measures the cache side.
            let n = 256usize;
            let sets: Vec<_> = (0..m)
                .map(|k| {
                    let mut b = VectorSetBuilder::new(d, n);
                    for i in 0..n {
                        let v: Vec<f32> =
                            (0..d).map(|j| ((i * 31 + j * 7 + k * 13) as f32).sin()).collect();
                        b.push_normalized(&v).unwrap();
                    }
                    b.finish()
                })
                .collect();
            let w = Weights::new((0..m).map(|k| 0.4 + 0.2 * k as f32).collect()).unwrap();
            let fused = FusedRows::from_sets(&sets).unwrap();
            // The serving-path query row: omega^2 baked into the query
            // side only, stored rows stay raw.
            let mut qrow = fused.row(0).to_vec();
            for (k, &wsq) in w.squared().iter().enumerate() {
                let (start, end) = fused.segment_bounds(k);
                for x in &mut qrow[start..end] {
                    *x *= wsq;
                }
            }

            group.bench_with_input(BenchmarkId::new(format!("fused_m{m}"), d), &d, |bch, _| {
                let mut id = 0u32;
                bch.iter(|| {
                    id = (id + 1) % n as u32;
                    kernels::ip_prescaled_segments(black_box(fused.row(id)), black_box(&qrow))
                })
            });
            group.bench_with_input(
                BenchmarkId::new(format!("per_modality_m{m}"), d),
                &d,
                |bch, _| {
                    let mut id = 0u32;
                    bch.iter(|| {
                        id = (id + 1) % n as u32;
                        let id = black_box(id);
                        let mut sum = 0.0f32;
                        for (k, set) in sets.iter().enumerate() {
                            sum += w.sq(k) * kernels::ip(set.get(id), black_box(set.get(0)));
                        }
                        sum
                    })
                },
            );

            // Direct ratio measurement (same work, interleaved timing) so
            // the bench output carries the headline number.
            let iters = 200_000u32;
            let t0 = Instant::now();
            let mut acc = 0.0f32;
            for i in 0..iters {
                let id = i % n as u32;
                acc += kernels::ip_prescaled_segments(black_box(fused.row(id)), black_box(&qrow));
            }
            let fused_ns = t0.elapsed().as_nanos() as f64 / iters as f64;
            let t0 = Instant::now();
            for i in 0..iters {
                let id = i % n as u32;
                let mut sum = 0.0f32;
                for (k, set) in sets.iter().enumerate() {
                    sum += w.sq(k) * kernels::ip(set.get(id), black_box(set.get(0)));
                }
                acc += sum;
            }
            let loop_ns = t0.elapsed().as_nanos() as f64 / iters as f64;
            black_box(acc);
            ratios.push((m, d, loop_ns / fused_ns));
        }
    }
    group.finish();
    for (m, d, ratio) in &ratios {
        eprintln!(
            "[kernels] fused/per-modality ratio  m={m} d={d}: {ratio:.2}x \
             (fused row is one contiguous ip)"
        );
    }
}

/// SQ8 quantized scan: `kernels::ip_u8` over one segment's codes against
/// `kernels::ip` over the same segment in f32, at the repo benchmark's two
/// segment widths.  Reports ns/row for both and their ratio.
fn bench_sq8_scan(c: &mut Criterion) {
    use std::time::Instant;

    let mut group = c.benchmark_group("sq8_scan");
    let mut report: Vec<(usize, f64, f64)> = Vec::new();
    for dim in [64usize, 32] {
        let (q, row) = vectors(dim);
        let codes: Vec<u8> = (0..dim).map(|i| (i.wrapping_mul(89).wrapping_add(31)) as u8).collect();
        group.bench_with_input(BenchmarkId::new("ip_u8", dim), &dim, |bch, _| {
            bch.iter(|| kernels::ip_u8(black_box(&q), black_box(&codes)))
        });
        group.bench_with_input(BenchmarkId::new("ip_f32", dim), &dim, |bch, _| {
            bch.iter(|| kernels::ip(black_box(&q), black_box(&row)))
        });

        // Direct interleaved timing so the bench output carries the numbers.
        let iters = 400_000u32;
        let mut acc = 0.0f32;
        let t0 = Instant::now();
        for _ in 0..iters {
            acc += kernels::ip_u8(black_box(&q), black_box(&codes));
        }
        let u8_ns = t0.elapsed().as_nanos() as f64 / f64::from(iters);
        let t0 = Instant::now();
        for _ in 0..iters {
            acc += kernels::ip(black_box(&q), black_box(&row));
        }
        let f32_ns = t0.elapsed().as_nanos() as f64 / f64::from(iters);
        black_box(acc);
        report.push((dim, u8_ns, f32_ns));
    }
    group.finish();
    for (dim, u8_ns, f32_ns) in &report {
        eprintln!(
            "[kernels] sq8 scan d={dim}: ip_u8 {u8_ns:.1} ns/row, ip (f32) {f32_ns:.1} ns/row, \
             ip_u8 / ip = {:.2}x",
            u8_ns / f32_ns
        );
    }
    sq8_scan_out_of_cache();
}

/// What the SQ8 row layout buys where the scan actually runs: candidates
/// visited in a fixed shuffled order over engines larger than the cache
/// (65 536 rows of [64, 32]: 24 MiB of f32 rows, 8.5 MiB of SQ8 row
/// blocks), both evaluators walking every segment (threshold -inf).
fn sq8_scan_out_of_cache() {
    use must_vector::{FusedRows, MultiQuery, Weights};
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use std::time::Instant;

    let n = 65_536usize;
    let mut rows = FusedRows::from_raw_parts(vec![64, 32], Vec::new()).unwrap();
    let unit = |seed: usize, d: usize| {
        let mut v: Vec<f32> = (0..d).map(|j| ((seed + j * 7) as f32).sin()).collect();
        let _ = kernels::normalize(&mut v);
        v
    };
    for i in 0..n {
        rows.push_row(&[unit(i * 31, 64), unit(i * 17 + 5, 32)]).unwrap();
    }
    let quant = rows.quantize();
    let mut ids: Vec<u32> = (0..n as u32).collect();
    let mut rng = StdRng::seed_from_u64(0x5C4E);
    for i in (1..n).rev() {
        ids.swap(i, rng.random_range(0..i + 1));
    }
    let query = MultiQuery::full(vec![unit(3, 64), unit(11, 32)]);
    let w = Weights::new(vec![0.8, 0.33]).unwrap();
    let (fe, qe) = (rows.query(&query, &w).unwrap(), quant.query(&query, &w).unwrap());

    // Alternated passes, best of three each: the first pass also faults
    // the pages in.
    let (mut f32_ns, mut sq8_ns) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..3 {
        let t0 = Instant::now();
        for &id in &ids {
            black_box(fe.ip_pruned(black_box(id), f32::NEG_INFINITY));
        }
        f32_ns = f32_ns.min(t0.elapsed().as_nanos() as f64 / n as f64);
        let t0 = Instant::now();
        for &id in &ids {
            black_box(qe.ip_pruned(black_box(id), f32::NEG_INFINITY));
        }
        sq8_ns = sq8_ns.min(t0.elapsed().as_nanos() as f64 / n as f64);
    }
    eprintln!(
        "[kernels] sq8 scan out of cache, n={n} dims=[64, 32] shuffled ids: SQ8 ip_pruned \
         {sq8_ns:.1} ns/candidate ({} B/row), f32 ip_pruned {f32_ns:.1} ns/candidate ({} B/row), \
         SQ8 / f32 = {:.2}x",
        quant.bytes() / n,
        rows.bytes() / n,
        sq8_ns / f32_ns
    );
}

fn bench_joint(c: &mut Criterion) {
    use must_vector::{MultiQuery, MultiVectorSet, VectorSetBuilder, Weights};
    let n = 4096;
    let mut m0 = VectorSetBuilder::new(64, n);
    let mut m1 = VectorSetBuilder::new(32, n);
    for i in 0..n {
        let v0: Vec<f32> = (0..64).map(|j| ((i * 31 + j * 7) as f32).sin()).collect();
        let v1: Vec<f32> = (0..32).map(|j| ((i * 17 + j * 13) as f32).cos()).collect();
        m0.push_normalized(&v0).unwrap();
        m1.push_normalized(&v1).unwrap();
    }
    let set = MultiVectorSet::new(vec![m0.finish(), m1.finish()]).unwrap();
    let weights = Weights::new(vec![0.8, 0.33]).unwrap();
    let query = MultiQuery::full(vec![
        set.modality(0).get(0).to_vec(),
        set.modality(1).get(0).to_vec(),
    ]);
    let ev = set.fused().query(&query, &weights).unwrap();

    let mut group = c.benchmark_group("joint");
    group.bench_function("exact_ip", |b| {
        let mut id = 0u32;
        b.iter(|| {
            id = (id + 1) % n as u32;
            black_box(ev.ip(id))
        })
    });
    group.bench_function("pruned_ip_tight_threshold", |b| {
        let mut id = 0u32;
        b.iter(|| {
            id = (id + 1) % n as u32;
            black_box(ev.ip_pruned(id, 0.9))
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_kernels, bench_ip4, bench_ip_prescaled_segments, bench_sq8_scan, bench_joint
}
criterion_main!(benches);
