//! The serving runtime end to end: freeze a snapshot, start a
//! [`ServeRuntime`] with a few workers over its one queue, drive it from
//! several producer threads with a mixed stream of single, batch, and
//! weight-overridden requests, and watch the queue depth and each
//! worker's executed count while it runs.
//!
//! Run with `cargo run --release --example serve_runtime`.

use std::sync::mpsc;

use must::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ---- A small two-modality corpus and a frozen serving snapshot. ---
    let (dim_img, dim_txt, n) = (16, 8, 160);
    let mut m0 = VectorSetBuilder::new(dim_img, n);
    let mut m1 = VectorSetBuilder::new(dim_txt, n);
    let mut x = 0.37f32;
    for _ in 0..n {
        let img: Vec<f32> = (0..dim_img)
            .map(|_| {
                x = (x * 53.29).fract() + 0.01;
                x
            })
            .collect();
        let txt: Vec<f32> = (0..dim_txt)
            .map(|_| {
                x = (x * 53.29).fract() + 0.01;
                x
            })
            .collect();
        m0.push_normalized(&img)?;
        m1.push_normalized(&txt)?;
    }
    let objects = FusedRows::new(vec![m0.finish(), m1.finish()])?;
    let queries: Vec<MultiQuery> = (0..16u32)
        .map(|i| {
            let id = i * 9;
            MultiQuery::full(vec![
                objects.modality(0).get(id).to_vec(),
                objects.modality(1).get(id).to_vec(),
            ])
        })
        .collect();
    let must = Must::build(objects, Weights::uniform(2), MustBuildOptions::default())?;
    let server = MustServer::freeze(must);
    println!("snapshot: {n} objects, 2 modalities, frozen for serving");

    // ---- Start the runtime: 3 workers sharing one queue. --------------
    let (rep_tx, rep_rx) = mpsc::channel();
    let runtime = ServeRuntime::start(&server, 3, rep_tx);
    println!("runtime: {} workers started\n", runtime.workers());

    // ---- Several producers submit a mixed request stream. -------------
    // Each producer interleaves singles, a weight-overridden single, and
    // a batch (one job: its queries run back-to-back on one worker), every
    // other batch under the override too — `submit_batch` takes the
    // weights as an `Option`, `None` meaning the snapshot's defaults.
    const PRODUCERS: u64 = 4;
    const ROUNDS: u64 = 8;
    let heavy_img = Weights::from_squared(vec![0.8, 0.2])?;
    let mut submitted = 0usize;
    std::thread::scope(|scope| {
        for p in 0..PRODUCERS {
            let runtime = &runtime;
            let queries = &queries;
            let heavy_img = &heavy_img;
            scope.spawn(move || {
                for r in 0..ROUNDS {
                    let base = p * 1_000 + r * 10;
                    let req = |id: u64| ServeRequest {
                        id,
                        query: queries[(id as usize) % queries.len()].clone(),
                        k: 5,
                        l: 40,
                    };
                    runtime.submit(req(base));
                    runtime.submit_weighted(req(base + 1), heavy_img.clone());
                    let weights = (r % 2 == 1).then(|| heavy_img.clone());
                    runtime.submit_batch((2..6).map(|j| req(base + j)).collect(), weights);
                }
            });
        }
        // Meanwhile: sample the counters a few times while traffic flows.
        for tick in 0..3 {
            std::thread::sleep(std::time::Duration::from_millis(2));
            let c = runtime.counters();
            println!("tick {tick}: queued {:?}  executed {:?}", c.lane_depths, c.executed);
        }
    });
    submitted += (PRODUCERS * ROUNDS) as usize * 6; // 2 singles + 4-query batch

    // ---- Drain and inspect the counters. ------------------------------
    let pre = runtime.counters();
    println!("\npre-shutdown: queued {:?}  executed {:?}", pre.lane_depths, pre.executed);
    let served = runtime.shutdown();
    println!("shutdown: drained; served {served} query units (submitted {submitted})");

    let replies: Vec<ServeReply> = rep_rx.iter().collect();
    assert_eq!(replies.len(), submitted, "exactly one reply per request");
    let errors = replies.iter().filter(|r| r.outcome.is_err()).count();
    println!("replies: {} received, {errors} errors — exactly one per request", replies.len());
    Ok(())
}
