//! The measured phase of `build_mutate`: load the persisted bundle back
//! into a mutable `Must`, then insert objects one `insert_object` call at
//! a time (graph + f32 row + SQ8 codes), each call timed from outside.

use std::time::{Duration, Instant};

use must_core::{persist, Must, MustServer};

use crate::closed::Window;
use crate::inputs::SetUp;

fn load(setup: &SetUp) -> Must {
    let must = persist::load(&setup.bundle).expect("bundle load");
    assert!(
        must.quant().is_some(),
        "the v7 bundle carries its SQ8 codes"
    );
    must
}

/// One insert window: a fresh `Must` from the bundle, then inserts from
/// the tail pool until `window` has passed (or the pool is spent).
pub fn window(setup: &SetUp, window: Duration) -> Window {
    let mut must = load(setup);
    let pool = &setup.tail[setup.spec.tail_fixed..];
    let mut lat_ns = Vec::with_capacity(pool.len());
    let mut failed = 0;
    let start = Instant::now();
    for rows in pool {
        if start.elapsed() >= window {
            break;
        }
        let t = Instant::now();
        let inserted = must.insert_object(rows);
        lat_ns.push(t.elapsed().as_nanos() as u64);
        failed += usize::from(inserted.is_err());
    }
    let secs = start.elapsed().as_secs_f64();
    lat_ns.sort_unstable();
    Window {
        ops: lat_ns.len(),
        failed,
        secs,
        lat_ns,
    }
}

/// The snapshot recall is scored on: the bundle plus exactly the fixed
/// tail, frozen — the corpus the ground truth was computed over.
pub fn post_insert_server(setup: &SetUp) -> MustServer {
    let mut must = load(setup);
    for rows in &setup.tail[..setup.spec.tail_fixed] {
        must.insert_object(rows).expect("tail rows are well-formed");
    }
    assert_eq!(must.len(), setup.spec.n_base + setup.spec.tail_fixed);
    MustServer::freeze(must)
}
