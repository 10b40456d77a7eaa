//! Index persistence: serialise a built MUST instance (corpus + weights +
//! frozen graph) to disk and load it back without rebuilding — what a
//! deployment does between the offline build and online serving (Fig. 4's
//! offline/online split).
//!
//! The wire formats, newest first:
//!
//! * **Bundle v7** (current quantized format, [`save_quantized`]): an
//!   offset-table layout.  After the shared magic + version comes a fixed
//!   header (prune flag, dims, lane, cardinality, section count), then a
//!   table of `(offset, byte length)` pairs — offsets relative to the
//!   first byte after the table, each 32-byte aligned — and finally the
//!   six sections themselves: fused rows, segment norms, default weights,
//!   SQ8 codes, quantization parameters (`min`/`step`/`eps` per
//!   row-segment), and the index block.  [`load`] reads the whole body
//!   into one buffer and *borrows* the code section out of it zero-copy
//!   ([`must_vector::CodeStore`]); a later `insert_object` promotes the
//!   codes to an owned buffer (copy-on-write).
//! * **Bundle v6** (current sharded format, [`save_sharded`]): the v4
//!   manifest plus a **routing-summary section** (per shard: the fused
//!   centroid row and per-modality residual radii, each length-prefixed)
//!   between the id maps and the payload offset table.  Summaries load
//!   verbatim — they are *not* re-derivable after dynamic insertions,
//!   whose radius growth must survive a round-trip.
//! * **Bundle v5** (current single-shard format, [`save`]): the fused-row
//!   corpus block of v3
//!   — which has always held the **unscaled** rows; weights were never
//!   baked into storage on disk — followed by an explicit *segment-norms
//!   block* (`n · m` little-endian `f32`, `||o_k||^2` per row/modality)
//!   and the **default** [`Weights`] as their own block.  [`load`] hands
//!   rows + norms straight to [`FusedRows::from_raw_parts_with_norms`],
//!   so neither a per-modality re-copy nor a norms recomputation happens;
//!   the default weights merely seed the server's default path — any
//!   query may override them (`search_weighted`).
//! * **Bundle v3**: like v5 minus the norms block (norms are re-derived
//!   from the rows at load).  Still loadable; no longer written.
//! * **Bundle v2**: a length-prefixed little-endian binary layout — magic
//!   and version header, raw `f32` vector blocks per modality, and the
//!   index as flat arrays (CSR for flat-graph backends, the flattened
//!   layered form for HNSW).  Still loadable; no longer written.  See
//!   `DESIGN.md` §6 for the byte-level table of the binary versions.
//! * **Bundle v1** ([`save_json`]): the original JSON format, flat-graph
//!   backends only.  [`load`] sniffs the magic bytes and accepts all
//!   five single-shard formats (the sharded v4/v6 go through
//!   [`load_sharded`], which derives routing summaries for every
//!   pre-v6 bundle).
//!
//! I/O and (de)serialisation failures surface as [`MustError::Io`];
//! semantic problems (unsupported version, corpus/graph inconsistency)
//! as [`MustError::Config`].

use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;
use std::sync::Arc;

use must_graph::csr::CsrGraph;
use must_graph::hnsw::{Hnsw, HnswFlat};
use must_vector::{
    CodeStore, FusedRows, MultiVectorSet, QuantizedRows, SegParams, VectorSet, Weights, FUSED_LANE,
};
use serde::{Deserialize, Serialize};

use crate::framework::{Must, MustBuildOptions};
use crate::index::MustIndex;
use crate::shard::{ShardAssignment, ShardSummary, ShardedMust};
use crate::MustError;

/// The v1 on-disk bundle (JSON; kept loadable for existing deployments).
#[derive(Debug, Serialize, Deserialize)]
pub struct MustBundle {
    /// Format version.
    pub version: u32,
    /// The multi-vector corpus.
    pub objects: MultiVectorSet,
    /// The weights the index was built under.
    pub weights: Weights,
    /// The fused graph, frozen.
    pub graph: CsrGraph,
    /// Whether searches should prune (Lemma 4).
    pub prune: bool,
}

/// Version written by [`save_json`] (the legacy JSON path).
pub const BUNDLE_VERSION: u32 = 1;

/// Legacy binary version (per-modality corpus blocks); still loadable.
pub const BUNDLE_V2_VERSION: u32 = 2;

/// Legacy binary version (fused-row corpus block, no norms block); still
/// loadable.
pub const BUNDLE_V3_VERSION: u32 = 3;

/// Legacy sharded version: a shard manifest (shard count, assignment,
/// per-shard id maps and byte offsets) followed by one v3 payload per
/// shard.  Still loadable (routing summaries are derived on load); no
/// longer written.
pub const BUNDLE_V4_VERSION: u32 = 4;

/// Version written by [`save`]: the v3 layout plus an explicit
/// segment-norms block between the fused rows and the default weights.
pub const BUNDLE_V5_VERSION: u32 = 5;

/// Version written by [`save_sharded`]: the v4 manifest plus a per-shard
/// routing-summary section (centroid row + residual radii) between the id
/// maps and the payload offset table.
pub const BUNDLE_V6_VERSION: u32 = 6;

/// Version written by [`save_quantized`]: an offset-table layout carrying
/// both the f32 fused rows *and* their SQ8 companion (codes + per-segment
/// quantization parameters), with every section 32-byte aligned so the
/// loader can borrow the code section zero-copy from one read buffer.
pub const BUNDLE_V7_VERSION: u32 = 7;

/// Magic bytes opening every binary bundle (v2, v3, v5, and the sharded
/// v4/v6); [`load`] uses them to tell the binary formats from v1 JSON.
pub const BUNDLE_V2_MAGIC: [u8; 8] = *b"MUSTBNDL";

/// Sanity cap on the shard count of a v4/v6 manifest.
const MAX_SHARDS: u64 = 1 << 16;

/// Number of sections in a v7 offset table (rows, norms, weights, codes,
/// quantization parameters, index).
const V7_SECTIONS: usize = 6;

/// Alignment (bytes) of every v7 section, relative to the first byte after
/// the offset table.
const V7_ALIGN: u64 = 32;

/// Index-block tag: flat graph in CSR form.
const INDEX_TAG_CSR: u8 = 0;
/// Index-block tag: layered HNSW in flattened form.
const INDEX_TAG_HNSW: u8 = 1;

/// Sanity cap on any length prefix (elements).  Decoders additionally
/// never pre-allocate more than [`MAX_PREALLOC`] elements up front, so a
/// corrupt header cannot trigger a huge allocation — memory grows only as
/// real bytes are decoded, and a truncated file fails at its first
/// missing byte.
const MAX_ELEMS: u64 = 1 << 31;

/// Upper bound on speculative `Vec` pre-allocation while decoding.
const MAX_PREALLOC: usize = 1 << 20;

fn io<E: std::fmt::Display>(ctx: &str) -> impl FnOnce(E) -> MustError + '_ {
    move |e| MustError::Io(format!("{ctx}: {e}"))
}

// ---------------------------------------------------------------------------
// Little-endian primitives.

fn wr_u8(w: &mut impl Write, v: u8) -> Result<(), MustError> {
    w.write_all(&[v]).map_err(io("write u8"))
}

fn wr_u32(w: &mut impl Write, v: u32) -> Result<(), MustError> {
    w.write_all(&v.to_le_bytes()).map_err(io("write u32"))
}

fn wr_u64(w: &mut impl Write, v: u64) -> Result<(), MustError> {
    w.write_all(&v.to_le_bytes()).map_err(io("write u64"))
}

/// Writes a 4-byte-word block through a shared chunk buffer.
fn wr_words<T: Copy>(
    w: &mut impl Write,
    vs: &[T],
    enc: impl Fn(T) -> [u8; 4],
) -> Result<(), MustError> {
    let mut buf = Vec::with_capacity(vs.len().min(1 << 16) * 4);
    for chunk in vs.chunks(1 << 16) {
        buf.clear();
        for &v in chunk {
            buf.extend_from_slice(&enc(v));
        }
        w.write_all(&buf).map_err(io("write block"))?;
    }
    Ok(())
}

/// Writes a length-prefixed `u32` array.
fn wr_u32s(w: &mut impl Write, vs: &[u32]) -> Result<(), MustError> {
    wr_u64(w, vs.len() as u64)?;
    wr_words(w, vs, u32::to_le_bytes)
}

fn rd_u8(r: &mut impl Read) -> Result<u8, MustError> {
    let mut b = [0u8; 1];
    r.read_exact(&mut b).map_err(io("read u8"))?;
    Ok(b[0])
}

fn rd_u32(r: &mut impl Read) -> Result<u32, MustError> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b).map_err(io("read u32"))?;
    Ok(u32::from_le_bytes(b))
}

fn rd_u64(r: &mut impl Read) -> Result<u64, MustError> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b).map_err(io("read u64"))?;
    Ok(u64::from_le_bytes(b))
}

fn checked_len(len: u64, what: &str) -> Result<usize, MustError> {
    if len >= MAX_ELEMS {
        return Err(MustError::Io(format!("corrupt {what} length {len}")));
    }
    Ok(len as usize)
}

/// Reads `len` 4-byte words, decoding each through `dec`.  Pre-allocation
/// is capped at [`MAX_PREALLOC`]: a corrupt length prefix costs at most
/// that much memory before the reader hits EOF and errors.
fn rd_words<T>(
    r: &mut impl Read,
    len: usize,
    what: &str,
    dec: impl Fn([u8; 4]) -> T,
) -> Result<Vec<T>, MustError> {
    let mut out = Vec::with_capacity(len.min(MAX_PREALLOC));
    let mut buf = vec![0u8; (1 << 16) * 4];
    let mut remaining = len;
    while remaining > 0 {
        let take = remaining.min(1 << 16);
        let bytes = &mut buf[..take * 4];
        r.read_exact(bytes).map_err(io(what))?;
        out.extend(bytes.chunks_exact(4).map(|c| dec([c[0], c[1], c[2], c[3]])));
        remaining -= take;
    }
    Ok(out)
}

fn rd_u32s(r: &mut impl Read, what: &str) -> Result<Vec<u32>, MustError> {
    let len = checked_len(rd_u64(r)?, what)?;
    rd_words(r, len, what, u32::from_le_bytes)
}

/// Writes a length-prefixed `f32` array (the v6 summary blocks).
fn wr_f32s(w: &mut impl Write, vs: &[f32]) -> Result<(), MustError> {
    wr_u64(w, vs.len() as u64)?;
    wr_words(w, vs, f32::to_le_bytes)
}

fn rd_f32s(r: &mut impl Read, what: &str) -> Result<Vec<f32>, MustError> {
    let len = checked_len(rd_u64(r)?, what)?;
    rd_words(r, len, what, f32::from_le_bytes)
}

// ---------------------------------------------------------------------------
// Bundle v2: save.

/// Neither wire format records tombstones: a bundle is a frozen snapshot
/// of what the index *serves*.  Persisting an instance with live
/// tombstones would silently resurrect the deleted objects on load, so
/// both save paths refuse it — rebuild (Section IX) before persisting.
fn reject_tombstones(must: &Must) -> Result<(), MustError> {
    if must.deleted_count() > 0 {
        return Err(MustError::Config(format!(
            "{} tombstoned object(s) cannot be persisted; rebuild the index first \
             (bundles are frozen snapshots, paper Section IX)",
            must.deleted_count()
        )));
    }
    Ok(())
}

/// Serialises `must` to `path` in the bundle-v5 binary format.  Every
/// backend is persistable: flat-graph indexes freeze to CSR arrays, HNSW
/// to its flattened layered form.  The corpus block is the raw unscaled
/// fused-row buffer (padding included) followed by its segment-norms
/// block, so [`load`] reconstructs the storage engine with two bulk reads
/// and no recomputation; the default weights travel as their own block,
/// never baked into the rows.
///
/// # Errors
/// [`MustError::Io`] for file-system and encoding failures;
/// [`MustError::Config`] if `must` carries live tombstones (bundles are
/// frozen snapshots — rebuild before persisting).
pub fn save(must: &Must, path: &Path) -> Result<(), MustError> {
    reject_tombstones(must)?;
    let file = std::fs::File::create(path)
        .map_err(|e| MustError::Io(format!("create {}: {e}", path.display())))?;
    let mut w = BufWriter::new(file);
    w.write_all(&BUNDLE_V2_MAGIC).map_err(io("write magic"))?;
    wr_u32(&mut w, BUNDLE_V5_VERSION)?;
    write_binary_body(must, &mut w, true)?;
    w.flush().map_err(io("flush"))?;
    Ok(())
}

/// Writes the v3 payload (everything after magic + version) — the shard
/// payload format of the v4 manifest, which pins its payloads to v3.
fn write_v3_body(must: &Must, w: &mut impl Write) -> Result<(), MustError> {
    write_binary_body(must, w, false)
}

/// Writes a binary payload (everything after magic + version): prune
/// flag, fused-row corpus block, the segment-norms block when
/// `with_norms` (v5), default weights, index block.
fn write_binary_body(must: &Must, w: &mut impl Write, with_norms: bool) -> Result<(), MustError> {
    wr_u8(w, must.prune() as u8)?;

    // Corpus: the raw (unscaled) fused rows, exactly as they sit in
    // memory — dims, lane width, then n·stride floats.
    let rows = must.objects().fused();
    wr_u32(w, rows.num_modalities() as u32)?;
    for &d in rows.dims() {
        wr_u32(w, d as u32)?;
    }
    wr_u32(w, FUSED_LANE as u32)?;
    wr_u64(w, rows.len() as u64)?;
    wr_words(w, rows.raw_data(), |x| x.to_le_bytes())?;

    // Segment norms (v5): n·m floats, length implied by the header.
    if with_norms {
        wr_words(w, rows.seg_norms(), |x| x.to_le_bytes())?;
    }

    // Default weights (raw omega; squared form is recomputed on load).
    wr_words(w, must.weights().raw(), |x| x.to_le_bytes())?;

    // Index block.
    write_index_block(must, w)
}

/// Writes the index block (tag byte + backend-specific arrays) — shared by
/// the v3/v5 body writer and the v7 index section.
fn write_index_block(must: &Must, w: &mut impl Write) -> Result<(), MustError> {
    match must.index() {
        MustIndex::Flat(g) => {
            let csr = CsrGraph::from_graph(g);
            wr_u8(w, INDEX_TAG_CSR)?;
            wr_u32(w, csr.seed())?;
            wr_u32s(w, csr.offsets())?;
            wr_u32s(w, csr.edges())?;
        }
        MustIndex::Hnsw(h) => {
            let flat = h.to_flat();
            wr_u8(w, INDEX_TAG_HNSW)?;
            wr_u32(w, flat.entry)?;
            wr_u32(w, flat.max_level)?;
            wr_u32(w, flat.m)?;
            wr_u32(w, flat.ef_construction)?;
            wr_u64(w, flat.rng_seed)?;
            wr_u32s(w, &flat.levels)?;
            wr_u32s(w, &flat.offsets)?;
            wr_u32s(w, &flat.edges)?;
        }
    }
    Ok(())
}

/// Reads the index block written by [`write_index_block`].
fn read_index_block(
    r: &mut impl Read,
) -> Result<(MustIndex, must_graph::GraphRecipe), MustError> {
    let tag = rd_u8(r)?;
    match tag {
        INDEX_TAG_CSR => {
            let seed = rd_u32(r)?;
            let offsets = rd_u32s(r, "CSR offsets")?;
            let edges = rd_u32s(r, "CSR edges")?;
            let csr = CsrGraph::from_parts(offsets, edges, seed)
                .map_err(|e| MustError::Config(format!("corrupt CSR block: {e}")))?;
            Ok((MustIndex::Flat(csr.to_graph()), must_graph::GraphRecipe::Fused))
        }
        INDEX_TAG_HNSW => {
            let entry = rd_u32(r)?;
            let max_level = rd_u32(r)?;
            let m_param = rd_u32(r)?;
            let ef_construction = rd_u32(r)?;
            let rng_seed = rd_u64(r)?;
            let levels = rd_u32s(r, "HNSW levels")?;
            let offsets = rd_u32s(r, "HNSW offsets")?;
            let edges = rd_u32s(r, "HNSW edges")?;
            let flat = HnswFlat {
                levels,
                offsets,
                edges,
                entry,
                max_level,
                m: m_param,
                ef_construction,
                rng_seed,
            };
            let h = Hnsw::from_flat(&flat)
                .map_err(|e| MustError::Config(format!("corrupt HNSW block: {e}")))?;
            Ok((MustIndex::Hnsw(h), must_graph::GraphRecipe::Hnsw))
        }
        other => Err(MustError::Config(format!("unknown index tag {other}"))),
    }
}

/// Serialises `must` to `path` in the legacy v1 JSON format.  Only
/// flat-graph backends are expressible in v1 (its schema predates the
/// HNSW layer export).
///
/// # Errors
/// [`MustError::Config`] for HNSW backends and live tombstones;
/// [`MustError::Io`] for file-system and serialisation failures.
pub fn save_json(must: &Must, path: &Path) -> Result<(), MustError> {
    reject_tombstones(must)?;
    let graph = must
        .index()
        .graph()
        .ok_or_else(|| MustError::Config("v1 JSON bundles cannot express HNSW; use save()".into()))?;
    let bundle = MustBundle {
        version: BUNDLE_VERSION,
        objects: must.objects().clone(),
        weights: must.weights().clone(),
        graph: CsrGraph::from_graph(graph),
        prune: must.prune(),
    };
    let file = std::fs::File::create(path)
        .map_err(|e| MustError::Io(format!("create {}: {e}", path.display())))?;
    let mut w = BufWriter::new(file);
    serde_json::to_writer(&mut w, &bundle).map_err(io("serialise"))?;
    w.flush().map_err(io("flush"))?;
    Ok(())
}

// ---------------------------------------------------------------------------
// Bundle v7: the quantized offset-table format.

/// Serialises `must` to `path` in the bundle-v7 format, carrying both the
/// exact f32 fused rows and their SQ8 companion engine.  Uses the engine
/// already attached via [`Must::quantize`] when present; otherwise
/// quantizes on the fly (the instance itself is not mutated).
///
/// The body is an offset table over six 32-byte-aligned sections (rows,
/// segment norms, default weights, codes, quantization parameters, index),
/// so [`load`] can slurp the file once and borrow the code section
/// zero-copy.  A v7 bundle loads into a [`Must`] that serves the
/// quantized-scan + exact-re-rank path out of the box.
///
/// # Errors
/// [`MustError::Io`] for file-system and encoding failures;
/// [`MustError::Config`] for live tombstones (bundles are frozen
/// snapshots) or a stale attached engine that no longer mirrors the
/// corpus.
pub fn save_quantized(must: &Must, path: &Path) -> Result<(), MustError> {
    reject_tombstones(must)?;
    let built;
    let quant = match must.quant() {
        Some(q) => q,
        None => {
            built = must.objects().fused().quantize();
            &built
        }
    };
    let rows = must.objects().fused();
    let (n, m, stride) = (rows.len(), rows.num_modalities(), rows.stride());
    if quant.len() != n || quant.dims() != rows.dims() {
        return Err(MustError::Config(
            "attached quantized engine does not mirror the corpus".into(),
        ));
    }

    // The index section is written through the shared block writer, so its
    // byte length is only known after serialising it once up front.
    let mut index_bytes = Vec::new();
    write_index_block(must, &mut index_bytes)?;

    // Flatten the quantization parameters: (min, step, eps) per
    // (row, modality), row-major.
    let mut qparams = Vec::with_capacity(n * m * 3);
    for p in quant.params() {
        qparams.extend_from_slice(&[p.min, p.step, p.eps]);
    }

    let lens: [u64; V7_SECTIONS] = [
        (n * stride * 4) as u64, // fused rows, f32
        (n * m * 4) as u64,      // segment norms, f32
        (m * 4) as u64,          // default weights, f32
        (n * stride) as u64,     // SQ8 codes, u8
        (n * m * 12) as u64,     // quantization parameters, 3 f32 each
        index_bytes.len() as u64,
    ];
    let mut offs = [0u64; V7_SECTIONS];
    let mut cursor = 0u64;
    for (off, len) in offs.iter_mut().zip(lens) {
        cursor = cursor.div_ceil(V7_ALIGN) * V7_ALIGN;
        *off = cursor;
        cursor += len;
    }

    let file = std::fs::File::create(path)
        .map_err(|e| MustError::Io(format!("create {}: {e}", path.display())))?;
    let mut w = BufWriter::new(file);
    w.write_all(&BUNDLE_V2_MAGIC).map_err(io("write magic"))?;
    wr_u32(&mut w, BUNDLE_V7_VERSION)?;
    wr_u8(&mut w, must.prune() as u8)?;
    wr_u32(&mut w, m as u32)?;
    for &d in rows.dims() {
        wr_u32(&mut w, d as u32)?;
    }
    wr_u32(&mut w, FUSED_LANE as u32)?;
    wr_u64(&mut w, n as u64)?;
    wr_u32(&mut w, V7_SECTIONS as u32)?;
    for (off, len) in offs.iter().zip(lens) {
        wr_u64(&mut w, *off)?;
        wr_u64(&mut w, len)?;
    }

    fn pad(w: &mut impl Write, gap: u64) -> Result<(), MustError> {
        const ZEROS: [u8; V7_ALIGN as usize] = [0u8; V7_ALIGN as usize];
        w.write_all(&ZEROS[..gap as usize]).map_err(io("write padding"))
    }
    let mut written = 0u64;
    pad(&mut w, offs[0] - written)?;
    wr_words(&mut w, rows.raw_data(), f32::to_le_bytes)?;
    written = offs[0] + lens[0];
    pad(&mut w, offs[1] - written)?;
    wr_words(&mut w, rows.seg_norms(), f32::to_le_bytes)?;
    written = offs[1] + lens[1];
    pad(&mut w, offs[2] - written)?;
    wr_words(&mut w, must.weights().raw(), f32::to_le_bytes)?;
    written = offs[2] + lens[2];
    pad(&mut w, offs[3] - written)?;
    w.write_all(quant.raw_codes()).map_err(io("write codes"))?;
    written = offs[3] + lens[3];
    pad(&mut w, offs[4] - written)?;
    wr_words(&mut w, &qparams, f32::to_le_bytes)?;
    written = offs[4] + lens[4];
    pad(&mut w, offs[5] - written)?;
    w.write_all(&index_bytes).map_err(io("write index"))?;
    w.flush().map_err(io("flush"))?;
    Ok(())
}

fn f32s_from_bytes(b: &[u8]) -> Vec<f32> {
    b.chunks_exact(4).map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]])).collect()
}

/// Reads a v7 payload (everything after magic + version) into a
/// ready-to-search [`Must`] with the SQ8 engine attached.  The whole body
/// is read into one buffer; the code section is *borrowed* out of it
/// zero-copy (copy-on-write: a later `insert_object` promotes it).
fn read_v7_body(r: &mut impl Read) -> Result<Must, MustError> {
    let mut bytes = Vec::new();
    r.read_to_end(&mut bytes).map_err(io("read v7 bundle"))?;
    let buf = Arc::new(bytes);
    let mut s: &[u8] = &buf;

    let prune = rd_u8(&mut s)? != 0;
    let m = checked_len(rd_u32(&mut s)? as u64, "modality count")?;
    if m == 0 {
        return Err(MustError::Config("bundle has no modalities".into()));
    }
    let mut dims = Vec::with_capacity(m.min(MAX_PREALLOC));
    for mi in 0..m {
        let dim = checked_len(rd_u32(&mut s)? as u64, "dimension")?;
        if dim == 0 {
            return Err(MustError::Config(format!("modality {mi} has zero dimension")));
        }
        dims.push(dim);
    }
    let lane = rd_u32(&mut s)? as usize;
    if lane != FUSED_LANE {
        return Err(MustError::Config(format!(
            "bundle written with fused lane {lane}, this build uses {FUSED_LANE}"
        )));
    }
    let stride: usize = dims.iter().map(|d| d.div_ceil(lane) * lane).sum();
    let n = checked_len(rd_u64(&mut s)?, "cardinality")?;
    n.checked_mul(stride)
        .filter(|t| (*t as u64) < MAX_ELEMS)
        .ok_or_else(|| MustError::Io("corrupt fused block size".into()))?;
    let n_sections = rd_u32(&mut s)? as usize;
    if n_sections != V7_SECTIONS {
        return Err(MustError::Config(format!(
            "v7 bundle declares {n_sections} sections (expected {V7_SECTIONS})"
        )));
    }
    // A truncated offset table fails right here with an I/O error.
    let mut table = [(0u64, 0u64); V7_SECTIONS];
    for entry in &mut table {
        *entry = (rd_u64(&mut s)?, rd_u64(&mut s)?);
    }
    let body_start = buf.len() - s.len();
    let body = &buf[body_start..];

    // Every section length is implied by the header; the table must agree.
    let expect: [u64; V7_SECTIONS] = [
        (n * stride * 4) as u64,
        (n * m * 4) as u64,
        (m * 4) as u64,
        (n * stride) as u64,
        (n * m * 12) as u64,
        table[5].1, // the index section is the only variable-length one
    ];
    let mut prev_end = 0u64;
    for (i, (&(off, len), &want)) in table.iter().zip(&expect).enumerate() {
        if len != want {
            return Err(MustError::Config(format!(
                "v7 section {i} holds {len} bytes (expected {want})"
            )));
        }
        if off % V7_ALIGN != 0 {
            return Err(MustError::Config(format!(
                "v7 section {i} offset {off} is not {V7_ALIGN}-byte aligned"
            )));
        }
        if off < prev_end {
            return Err(MustError::Config(format!(
                "v7 section {i} at offset {off} overlaps the previous section"
            )));
        }
        prev_end = off
            .checked_add(len)
            .ok_or_else(|| MustError::Config(format!("v7 section {i} offset overflows")))?;
    }
    if prev_end > body.len() as u64 {
        return Err(MustError::Io(format!(
            "v7 sections need {prev_end} bytes but only {} remain (truncated bundle)",
            body.len()
        )));
    }
    let sect = |i: usize| {
        let (off, len) = table[i];
        &body[off as usize..(off + len) as usize]
    };

    let data = f32s_from_bytes(sect(0));
    let norms = f32s_from_bytes(sect(1));
    let rows = FusedRows::from_raw_parts_with_norms(dims.clone(), data, norms.clone())
        .map_err(|e| MustError::Config(e.to_string()))?;
    let objects = MultiVectorSet::from_fused(rows);
    let weights = Weights::new(f32s_from_bytes(sect(2))).map_err(MustError::Vector)?;
    // The codes stay inside the read buffer: slice them zero-copy.
    let codes = CodeStore::shared(
        Arc::clone(&buf),
        body_start + table[3].0 as usize,
        table[3].1 as usize,
    )
    .map_err(|e| MustError::Config(format!("v7 code section: {e}")))?;
    let params: Vec<SegParams> = f32s_from_bytes(sect(4))
        .chunks_exact(3)
        .map(|c| SegParams { min: c[0], step: c[1], eps: c[2] })
        .collect();
    let quant = QuantizedRows::from_parts(dims, codes, params, norms)
        .map_err(|e| MustError::Config(format!("v7 quantized engine: {e}")))?;

    let mut ir = sect(5);
    let (index, recipe) = read_index_block(&mut ir)?;
    if !ir.is_empty() {
        return Err(MustError::Config(format!(
            "v7 index section has {} trailing byte(s)",
            ir.len()
        )));
    }

    let mut must = Must::from_parts(
        objects,
        weights,
        index,
        MustBuildOptions { prune, recipe, ..Default::default() },
    )?;
    must.attach_quant(quant)?;
    Ok(must)
}

// ---------------------------------------------------------------------------
// Load (both formats).

/// Loads a single-shard bundle from `path` into a ready-to-search
/// [`Must`], accepting the v7 quantized format, the v5/v3/v2 binary
/// formats, and legacy v1 JSON (sniffed via the magic bytes).  Sharded
/// v4/v6 bundles are rejected with a pointer at [`load_sharded`], which
/// accepts all of them.
///
/// # Errors
/// [`MustError::Io`] for file-system and decoding failures;
/// [`MustError::Config`] for unsupported versions and inconsistent
/// bundles.
pub fn load(path: &Path) -> Result<Must, MustError> {
    let file = std::fs::File::open(path)
        .map_err(|e| MustError::Io(format!("open {}: {e}", path.display())))?;
    let mut r = BufReader::new(file);
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic).map_err(io("read header"))?;
    if magic == BUNDLE_V2_MAGIC {
        let version = rd_u32(&mut r)?;
        if version == BUNDLE_V4_VERSION || version == BUNDLE_V6_VERSION {
            return Err(MustError::Config(format!(
                "bundle v{version} is sharded; load it via persist::load_sharded or \
                 ShardedServer::load"
            )));
        }
        if version == BUNDLE_V7_VERSION {
            return read_v7_body(&mut r);
        }
        return read_binary_body(&mut r, version);
    }
    // Not a binary bundle: re-parse the whole file as v1 JSON.
    drop(r);
    let file = std::fs::File::open(path)
        .map_err(|e| MustError::Io(format!("open {}: {e}", path.display())))?;
    let bundle: MustBundle =
        serde_json::from_reader(BufReader::new(file)).map_err(io("parse v1 JSON"))?;
    if bundle.version != BUNDLE_VERSION {
        return Err(MustError::Config(format!(
            "unsupported bundle version {} (expected {BUNDLE_VERSION})",
            bundle.version
        )));
    }
    if bundle.graph.len() != bundle.objects.len() {
        return Err(MustError::Config(format!(
            "bundle graph covers {} vertices but corpus has {} objects",
            bundle.graph.len(),
            bundle.objects.len()
        )));
    }
    Must::from_prebuilt(
        bundle.objects,
        bundle.weights,
        bundle.graph.to_graph(),
        MustBuildOptions { prune: bundle.prune, ..Default::default() },
    )
}

/// Reads a v2/v3/v5 payload (everything after magic + version) into a
/// ready-to-search [`Must`].
fn read_binary_body(r: &mut impl Read, version: u32) -> Result<Must, MustError> {
    if version != BUNDLE_V2_VERSION && version != BUNDLE_V3_VERSION && version != BUNDLE_V5_VERSION
    {
        return Err(MustError::Config(format!(
            "unsupported bundle version {version} (expected {BUNDLE_V2_VERSION}, \
             {BUNDLE_V3_VERSION}, or {BUNDLE_V5_VERSION})"
        )));
    }
    let prune = rd_u8(r)? != 0;

    let m = checked_len(rd_u32(r)? as u64, "modality count")?;
    if m == 0 {
        return Err(MustError::Config("bundle has no modalities".into()));
    }
    let objects = if version >= BUNDLE_V3_VERSION {
        // v3/v5: the corpus block *is* the fused-row buffer — read it in
        // one sweep and hand it to the engine, no per-modality re-copy.
        let mut dims = Vec::with_capacity(m.min(MAX_PREALLOC));
        for mi in 0..m {
            let dim = checked_len(rd_u32(r)? as u64, "dimension")?;
            if dim == 0 {
                return Err(MustError::Config(format!("modality {mi} has zero dimension")));
            }
            dims.push(dim);
        }
        let lane = rd_u32(r)? as usize;
        if lane != FUSED_LANE {
            return Err(MustError::Config(format!(
                "bundle written with fused lane {lane}, this build uses {FUSED_LANE}"
            )));
        }
        let stride: usize = dims.iter().map(|d| d.div_ceil(lane) * lane).sum();
        let n = checked_len(rd_u64(r)?, "cardinality")?;
        let total = n
            .checked_mul(stride)
            .filter(|t| (*t as u64) < MAX_ELEMS)
            .ok_or_else(|| MustError::Io("corrupt fused block size".into()))?;
        let data = rd_words(r, total, "fused row block", f32::from_le_bytes)?;
        let rows = if version == BUNDLE_V5_VERSION {
            // v5 carries the norms explicitly; adopt them verbatim.
            let norms = rd_words(r, n * m, "segment norm block", f32::from_le_bytes)?;
            FusedRows::from_raw_parts_with_norms(dims, data, norms)
        } else {
            // v3 predates the norms block; re-derive them from the rows.
            FusedRows::from_raw_parts(dims, data)
        }
        .map_err(|e| MustError::Config(e.to_string()))?;
        MultiVectorSet::from_fused(rows)
    } else {
        // v2: per-modality blocks, fused at load.
        let mut modalities = Vec::with_capacity(m.min(MAX_PREALLOC));
        for mi in 0..m {
            let dim = checked_len(rd_u32(r)? as u64, "dimension")?;
            if dim == 0 {
                return Err(MustError::Config(format!("modality {mi} has zero dimension")));
            }
            let n = checked_len(rd_u64(r)?, "cardinality")?;
            let total = n
                .checked_mul(dim)
                .filter(|t| (*t as u64) < MAX_ELEMS)
                .ok_or_else(|| MustError::Io("corrupt vector block size".into()))?;
            let data = rd_words(r, total, "vector block", f32::from_le_bytes)?;
            modalities.push(
                VectorSet::from_flat(dim, data).map_err(|e| MustError::Config(e.to_string()))?,
            );
        }
        MultiVectorSet::new(modalities).map_err(MustError::Vector)?
    };

    let omega = rd_words(r, m, "weights", f32::from_le_bytes)?;
    let weights = Weights::new(omega).map_err(MustError::Vector)?;

    let (index, recipe) = read_index_block(r)?;

    Must::from_parts(objects, weights, index, MustBuildOptions { prune, recipe, ..Default::default() })
}

// ---------------------------------------------------------------------------
// Bundle v4: the sharded manifest.

/// `Read` adapter that tracks the absolute byte position, so the v4 loader
/// can verify each shard payload starts exactly where the manifest says.
struct CountingReader<R> {
    inner: R,
    pos: u64,
}

impl<R: Read> Read for CountingReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.pos += n as u64;
        Ok(n)
    }
}

/// Serialises a [`ShardedMust`] to `path` in the bundle-v6 format: the
/// shared magic, version 6, then a **manifest** (shard count, assignment
/// tag, per-shard local→global id maps, per-shard routing summaries,
/// per-shard absolute byte offsets) followed by one v3 payload per shard.
/// Summaries are persisted verbatim rather than re-derived on load:
/// dynamic insertions widen a shard's residual radii around the *fixed*
/// build-time centroid, and that growth must survive a round-trip for
/// routed searches to keep finding the inserted objects.  A whole sharded
/// deployment round-trips through one file; [`load_sharded`] (and
/// [`crate::shard::ShardedServer::load`]) reads it back:
///
/// ```
/// use must_core::framework::MustBuildOptions;
/// use must_core::persist::{load_sharded, save_sharded};
/// use must_core::shard::{ShardSpec, ShardedMust};
/// use must_vector::{MultiVectorSet, VectorSetBuilder, Weights};
///
/// let mut m0 = VectorSetBuilder::new(4, 10);
/// for i in 0..10 {
///     m0.push_normalized(&[1.0, i as f32, 0.5, 0.25]).unwrap();
/// }
/// let objects = MultiVectorSet::new(vec![m0.finish()]).unwrap();
/// let sharded = ShardedMust::build(
///     objects, Weights::uniform(1), MustBuildOptions::default(), ShardSpec::new(2),
/// ).unwrap();
/// let path = std::env::temp_dir().join(format!("doc-v6-{}.mustb", std::process::id()));
/// save_sharded(&sharded, &path).unwrap();
/// let loaded = load_sharded(&path).unwrap();
/// std::fs::remove_file(&path).unwrap();
/// assert_eq!(loaded.num_shards(), 2);
/// assert_eq!(loaded.global_ids(0), sharded.global_ids(0));
/// assert_eq!(loaded.summary(1), sharded.summary(1));
/// ```
///
/// # Errors
/// [`MustError::Io`] for file-system and encoding failures;
/// [`MustError::Config`] if any shard carries live tombstones (bundles are
/// frozen snapshots — rebuild first, exactly as [`save`] requires).
pub fn save_sharded(sharded: &ShardedMust, path: &Path) -> Result<(), MustError> {
    write_sharded(sharded, path, BUNDLE_V6_VERSION)
}

/// [`save_sharded`] parametrised over the manifest version, so tests can
/// still produce v4 bundles and pin the legacy load path.
fn write_sharded(sharded: &ShardedMust, path: &Path, version: u32) -> Result<(), MustError> {
    use std::io::{Seek, SeekFrom};

    let s = sharded.num_shards();
    for i in 0..s {
        reject_tombstones(sharded.shard(i))?;
    }
    let file = std::fs::File::create(path)
        .map_err(|e| MustError::Io(format!("create {}: {e}", path.display())))?;
    let mut w = BufWriter::new(file);
    w.write_all(&BUNDLE_V2_MAGIC).map_err(io("write magic"))?;
    wr_u32(&mut w, version)?;
    wr_u32(&mut w, s as u32)?;
    wr_u8(&mut w, sharded.assignment().tag())?;
    for i in 0..s {
        wr_u32s(&mut w, sharded.global_ids(i))?;
    }
    if version >= BUNDLE_V6_VERSION {
        for i in 0..s {
            let summary = sharded.summary(i);
            wr_f32s(&mut w, summary.centroid())?;
            wr_f32s(&mut w, summary.radii())?;
        }
    }
    // Stream the payloads (the corpus-sized part of the bundle) straight
    // to the file — never a second in-memory copy — recording where each
    // lands, then seek back and patch the placeholder offset table.
    let offsets_at = w.stream_position().map_err(io("tell offsets"))?;
    for _ in 0..s {
        wr_u64(&mut w, 0)?;
    }
    let mut offsets = Vec::with_capacity(s);
    for i in 0..s {
        offsets.push(w.stream_position().map_err(io("tell payload"))?);
        write_v3_body(sharded.shard(i), &mut w)?;
    }
    w.seek(SeekFrom::Start(offsets_at)).map_err(io("seek to offsets"))?;
    for offset in offsets {
        wr_u64(&mut w, offset)?;
    }
    w.flush().map_err(io("flush"))?;
    Ok(())
}

/// Loads *any* bundle from `path` into a [`ShardedMust`]: the sharded
/// v6/v4 manifests directly (v6 adopts its persisted routing summaries;
/// v4 — and every pre-v6 format — derives them from the shard rows), and
/// every single-shard format (v5/v3/v2 binary, v1 JSON) as one shard with
/// the identity id map — so a sharded deployment can adopt existing
/// bundles without a rewrite.
///
/// # Errors
/// [`MustError::Io`] for file-system and decoding failures;
/// [`MustError::Config`] for unsupported versions, corrupt manifests
/// (bad assignment tag, overlapping id maps, payloads not at their
/// recorded offsets), and inconsistent shard payloads.
pub fn load_sharded(path: &Path) -> Result<ShardedMust, MustError> {
    let file = std::fs::File::open(path)
        .map_err(|e| MustError::Io(format!("open {}: {e}", path.display())))?;
    let mut r = CountingReader { inner: BufReader::new(file), pos: 0 };
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic).map_err(io("read header"))?;
    if magic == BUNDLE_V2_MAGIC {
        let version = rd_u32(&mut r)?;
        if version == BUNDLE_V4_VERSION || version == BUNDLE_V6_VERSION {
            return read_sharded_body(&mut r, version);
        }
    }
    // Any single-shard format: defer to `load` (which re-sniffs from the
    // start) and wrap the result as one shard covering ids 0..n.
    drop(r);
    let must = load(path)?;
    let n = must.objects().len() as u32;
    ShardedMust::from_parts(vec![must], vec![(0..n).collect()], ShardAssignment::RoundRobin)
}

/// Reads a v4/v6 manifest + payloads (everything after magic + version).
fn read_sharded_body(
    r: &mut CountingReader<impl Read>,
    version: u32,
) -> Result<ShardedMust, MustError> {
    let shard_count = u64::from(rd_u32(r)?);
    if shard_count == 0 || shard_count > MAX_SHARDS {
        return Err(MustError::Config(format!("corrupt shard count {shard_count}")));
    }
    let s = shard_count as usize;
    let assignment = ShardAssignment::from_tag(rd_u8(r)?)
        .ok_or_else(|| MustError::Config("unknown shard assignment tag".into()))?;
    let mut global_ids = Vec::with_capacity(s.min(MAX_PREALLOC));
    for _ in 0..s {
        global_ids.push(rd_u32s(r, "shard id map")?);
    }
    let summaries = if version >= BUNDLE_V6_VERSION {
        let mut summaries = Vec::with_capacity(s.min(MAX_PREALLOC));
        for _ in 0..s {
            let centroid = rd_f32s(r, "summary centroid")?;
            let radii = rd_f32s(r, "summary radii")?;
            summaries.push(ShardSummary::from_parts(centroid, radii)?);
        }
        Some(summaries)
    } else {
        None
    };
    let mut offsets = Vec::with_capacity(s.min(MAX_PREALLOC));
    for _ in 0..s {
        offsets.push(rd_u64(r)?);
    }
    let mut shards = Vec::with_capacity(s.min(MAX_PREALLOC));
    for (i, &offset) in offsets.iter().enumerate() {
        if r.pos != offset {
            return Err(MustError::Config(format!(
                "shard {i} payload recorded at byte {offset} but reader is at {}",
                r.pos
            )));
        }
        shards.push(read_binary_body(r, BUNDLE_V3_VERSION)?);
    }
    match summaries {
        Some(sums) => ShardedMust::from_parts_with_summaries(shards, global_ids, assignment, sums),
        // Pre-v6 bundles carry no summaries; derive them from the rows.
        None => ShardedMust::from_parts(shards, global_ids, assignment),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use must_graph::GraphRecipe;
    use must_vector::{MultiQuery, VectorSetBuilder};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn corpus(n: usize) -> MultiVectorSet {
        let mut rng = StdRng::seed_from_u64(13);
        let mut m0 = VectorSetBuilder::new(8, n);
        let mut m1 = VectorSetBuilder::new(4, n);
        for _ in 0..n {
            let v0: Vec<f32> = (0..8).map(|_| rng.random::<f32>() - 0.5).collect();
            let v1: Vec<f32> = (0..4).map(|_| rng.random::<f32>() - 0.5).collect();
            m0.push_normalized(&v0).unwrap();
            m1.push_normalized(&v1).unwrap();
        }
        MultiVectorSet::new(vec![m0.finish(), m1.finish()]).unwrap()
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("must-persist-test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}", std::process::id()))
    }

    fn assert_identical_searches(a: &Must, b: &Must, ids: &[u32]) {
        for &id in ids {
            let q = MultiQuery::full(vec![
                a.objects().modality(0).get(id).to_vec(),
                a.objects().modality(1).get(id).to_vec(),
            ]);
            let ra = a.search(&q, 5, 60).unwrap();
            let rb = b.search(&q, 5, 60).unwrap();
            assert_eq!(ra, rb, "loaded index must search identically (query {id})");
        }
    }

    #[test]
    fn binary_save_load_round_trip_preserves_search_results() {
        let set = corpus(200);
        let must =
            Must::build(set, Weights::new(vec![0.8, 0.4]).unwrap(), MustBuildOptions::default())
                .unwrap();
        let path = tmp("bundle-v2.mustb");
        save(&must, &path).unwrap();
        let loaded = load(&path).unwrap();
        assert_eq!(loaded.objects().len(), 200);
        assert_eq!(loaded.weights(), must.weights());
        assert_identical_searches(&must, &loaded, &[3, 77, 150]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn v1_json_save_load_round_trip_still_works() {
        let set = corpus(200);
        let must =
            Must::build(set, Weights::new(vec![0.8, 0.4]).unwrap(), MustBuildOptions::default())
                .unwrap();
        let path = tmp("bundle-v1.json");
        save_json(&must, &path).unwrap();
        let loaded = load(&path).unwrap();
        assert_eq!(loaded.objects().len(), 200);
        assert_eq!(loaded.weights(), must.weights());
        assert_identical_searches(&must, &loaded, &[3, 77, 150]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn hnsw_round_trips_through_v2_but_not_v1() {
        let set = corpus(120);
        let must = Must::build(
            set,
            Weights::uniform(2),
            MustBuildOptions { recipe: GraphRecipe::Hnsw, ..Default::default() },
        )
        .unwrap();
        // v1 JSON cannot express the layered form.
        assert!(matches!(save_json(&must, &tmp("hnsw-reject.json")), Err(MustError::Config(_))));
        // v2 binary round-trips it, preserving dynamic insertion support.
        let path = tmp("hnsw-v2.mustb");
        save(&must, &path).unwrap();
        let mut loaded = load(&path).unwrap();
        assert_identical_searches(&must, &loaded, &[5, 60, 119]);
        let new0: Vec<f32> = (0..8).map(|i| if i == 3 { 1.0 } else { 0.01 }).collect();
        let new1: Vec<f32> = (0..4).map(|i| if i == 2 { 1.0 } else { 0.01 }).collect();
        let id = loaded.insert_object(&[new0, new1]).unwrap();
        assert_eq!(id, 120, "reloaded HNSW stays dynamic");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn legacy_v3_bundles_still_load() {
        // `save` writes v5 now (rows + explicit norms block); a v3 bundle
        // (rows only, norms re-derived at load) must keep loading and
        // serving identically.  `write_v3_body` is exactly the payload the
        // old saver produced — it still backs every v4 shard payload.
        let set = corpus(110);
        let must =
            Must::build(set, Weights::new(vec![0.7, 0.6]).unwrap(), MustBuildOptions::default())
                .unwrap();
        let path = tmp("legacy-v3.mustb");
        {
            let file = std::fs::File::create(&path).unwrap();
            let mut w = BufWriter::new(file);
            w.write_all(&BUNDLE_V2_MAGIC).unwrap();
            wr_u32(&mut w, BUNDLE_V3_VERSION).unwrap();
            write_v3_body(&must, &mut w).unwrap();
            w.flush().unwrap();
        }
        let loaded = load(&path).unwrap();
        assert_eq!(loaded.objects().len(), 110);
        assert_eq!(loaded.weights(), must.weights());
        assert_eq!(
            loaded.objects().fused().seg_norms(),
            must.objects().fused().seg_norms(),
            "re-derived norms must equal the stored engine's"
        );
        assert_identical_searches(&must, &loaded, &[1, 55, 109]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn v5_round_trip_preserves_norms_and_weighted_serving() {
        let set = corpus(90);
        let must =
            Must::build(set, Weights::uniform(2), MustBuildOptions::default()).unwrap();
        let path = tmp("bundle-v5-weighted.mustb");
        save(&must, &path).unwrap();
        let loaded = load(&path).unwrap();
        assert_eq!(
            loaded.objects().fused().seg_norms(),
            must.objects().fused().seg_norms(),
            "v5 adopts the persisted norms verbatim"
        );
        // A weight override over the loaded snapshot serves exactly like
        // one over the in-memory original.
        let a = crate::server::MustServer::freeze(must);
        let b = crate::server::MustServer::freeze(loaded);
        let w = Weights::from_squared(vec![0.85, 0.15]).unwrap();
        for id in [0u32, 44, 89] {
            let q = MultiQuery::full(vec![
                a.objects().modality(0).get(id).to_vec(),
                a.objects().modality(1).get(id).to_vec(),
            ]);
            let ra = a.search_weighted(&q, &w, 5, 60).unwrap();
            let rb = b.search_weighted(&q, &w, 5, 60).unwrap();
            assert_eq!(ra.results, rb.results, "query {id}");
            assert_eq!(ra.stats, rb.stats, "query {id}");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn legacy_v2_bundles_still_load() {
        // `save` writes v3 now; hand-craft a v2 bundle (per-modality
        // corpus blocks) and check the sniffing loader still accepts it
        // and serves identical results.
        let set = corpus(120);
        let must =
            Must::build(set, Weights::new(vec![0.6, 0.9]).unwrap(), MustBuildOptions::default())
                .unwrap();
        let csr = CsrGraph::from_graph(must.index().graph().expect("flat backend"));
        let path = tmp("legacy-v2.mustb");
        {
            let file = std::fs::File::create(&path).unwrap();
            let mut w = BufWriter::new(file);
            w.write_all(&BUNDLE_V2_MAGIC).unwrap();
            wr_u32(&mut w, BUNDLE_V2_VERSION).unwrap();
            wr_u8(&mut w, must.prune() as u8).unwrap();
            let objects = must.objects();
            wr_u32(&mut w, objects.num_modalities() as u32).unwrap();
            for mi in 0..objects.num_modalities() {
                let m = objects.modality(mi);
                wr_u32(&mut w, m.dim() as u32).unwrap();
                wr_u64(&mut w, m.len() as u64).unwrap();
                let mut flat = Vec::with_capacity(m.len() * m.dim());
                for (_, v) in m.iter() {
                    flat.extend_from_slice(v);
                }
                wr_words(&mut w, &flat, |x: f32| x.to_le_bytes()).unwrap();
            }
            wr_words(&mut w, must.weights().raw(), |x: f32| x.to_le_bytes()).unwrap();
            wr_u8(&mut w, INDEX_TAG_CSR).unwrap();
            wr_u32(&mut w, csr.seed()).unwrap();
            wr_u32s(&mut w, csr.offsets()).unwrap();
            wr_u32s(&mut w, csr.edges()).unwrap();
            w.flush().unwrap();
        }
        let loaded = load(&path).unwrap();
        assert_eq!(loaded.objects().len(), 120);
        assert_eq!(loaded.weights(), must.weights());
        assert_identical_searches(&must, &loaded, &[1, 60, 119]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn v2_is_smaller_than_v1_json() {
        let set = corpus(300);
        let must = Must::build(set, Weights::uniform(2), MustBuildOptions::default()).unwrap();
        let p1 = tmp("size-v1.json");
        let p2 = tmp("size-v2.mustb");
        save_json(&must, &p1).unwrap();
        save(&must, &p2).unwrap();
        let s1 = std::fs::metadata(&p1).unwrap().len();
        let s2 = std::fs::metadata(&p2).unwrap().len();
        // v5 carries the explicit norms block (n·m floats) on top of the
        // rows, so the pin is 2x rather than the pre-norms 2.5x.
        assert!(
            s2 * 2 <= s1,
            "binary bundle must be at least 2x smaller than JSON: {s2} vs {s1}"
        );
        std::fs::remove_file(&p1).unwrap();
        std::fs::remove_file(&p2).unwrap();
    }

    #[test]
    fn corrupt_and_missing_files_error_cleanly() {
        let missing = std::env::temp_dir().join("must-definitely-missing.mustb");
        assert!(matches!(load(&missing), Err(MustError::Io(_))));
        let garbage = tmp("garbage.mustb");
        std::fs::write(&garbage, b"not json and not binary").unwrap();
        assert!(matches!(load(&garbage), Err(MustError::Io(_))));
        // A truncated v2 bundle fails as an I/O error, not a panic.
        let truncated = tmp("truncated.mustb");
        let mut bytes = BUNDLE_V2_MAGIC.to_vec();
        bytes.extend_from_slice(&BUNDLE_V2_VERSION.to_le_bytes());
        std::fs::write(&truncated, bytes).unwrap();
        assert!(matches!(load(&truncated), Err(MustError::Io(_))));
        // A v2 header with an absurd length prefix fails before allocating
        // — including exactly at the cap boundary.
        let huge = tmp("huge.mustb");
        for modality_count in [u32::MAX, 1u32 << 31] {
            let mut bytes = BUNDLE_V2_MAGIC.to_vec();
            bytes.extend_from_slice(&BUNDLE_V2_VERSION.to_le_bytes());
            bytes.push(1); // prune
            bytes.extend_from_slice(&modality_count.to_le_bytes());
            std::fs::write(&huge, bytes).unwrap();
            assert!(matches!(load(&huge), Err(MustError::Io(_))), "count {modality_count}");
        }
        // A plausible header whose *array* length prefix lies (claims far
        // more edges than the file holds) must hit EOF, not OOM: memory is
        // bounded by MAX_PREALLOC regardless of the claimed length.
        let lying = tmp("lying.mustb");
        let mut bytes = BUNDLE_V2_MAGIC.to_vec();
        bytes.extend_from_slice(&BUNDLE_V2_VERSION.to_le_bytes());
        bytes.push(1); // prune
        bytes.extend_from_slice(&1u32.to_le_bytes()); // one modality
        bytes.extend_from_slice(&2u32.to_le_bytes()); // dim 2
        bytes.extend_from_slice(&(1u64 << 29).to_le_bytes()); // n: a lie
        std::fs::write(&lying, bytes).unwrap();
        assert!(matches!(load(&lying), Err(MustError::Io(_))));
        for p in [garbage, truncated, huge, lying] {
            std::fs::remove_file(&p).unwrap();
        }
    }

    #[test]
    fn v7_round_trips_the_quantized_engine_zero_copy() {
        let set = corpus(150);
        let mut must = Must::build(
            set,
            Weights::new(vec![0.8, 0.4]).unwrap(),
            MustBuildOptions { recipe: GraphRecipe::Hnsw, ..Default::default() },
        )
        .unwrap();
        must.quantize();
        let path = tmp("bundle-v7.mustb");
        save_quantized(&must, &path).unwrap();
        let mut loaded = load(&path).unwrap();
        assert_eq!(loaded.objects().len(), 150);
        assert_eq!(loaded.weights(), must.weights());
        assert_eq!(
            loaded.objects().fused().seg_norms(),
            must.objects().fused().seg_norms(),
            "v7 adopts the persisted norms verbatim"
        );
        let (orig, thawed) = (must.quant().unwrap(), loaded.quant().unwrap());
        assert!(thawed.is_shared(), "v7 codes must borrow from the read buffer");
        assert_eq!(thawed.raw_codes(), orig.raw_codes());
        assert_eq!(thawed.params(), orig.params());
        assert_eq!(thawed.seg_norms(), orig.seg_norms());
        assert_identical_searches(&must, &loaded, &[3, 77, 149]);
        // Dynamic insertion after a zero-copy load promotes the shared
        // codes to an owned buffer (copy-on-write) and keeps the engines
        // in lockstep.
        let new0: Vec<f32> = (0..8).map(|i| if i == 1 { 1.0 } else { 0.02 }).collect();
        let new1: Vec<f32> = (0..4).map(|i| if i == 0 { 1.0 } else { 0.02 }).collect();
        let id = loaded.insert_object(&[new0, new1]).unwrap();
        assert_eq!(id, 150);
        let q = loaded.quant().unwrap();
        assert!(!q.is_shared(), "insertion must promote the borrowed codes");
        assert_eq!(q.len(), 151);
        std::fs::remove_file(&path).unwrap();
    }

    fn hnsw_quantized(n: usize) -> Must {
        let mut must = Must::build(
            corpus(n),
            Weights::new(vec![0.8, 0.4]).unwrap(),
            MustBuildOptions { recipe: GraphRecipe::Hnsw, ..Default::default() },
        )
        .unwrap();
        must.quantize();
        must
    }

    #[test]
    fn derived_code_norms_agree_across_every_construction_path() {
        // `||o_hat||^2` is in-memory state no bundle carries: quantizing
        // the rows, loading a v7 bundle (codes shared) and appending after
        // the copy-on-write promotion must all rebuild it identically —
        // equal engines (`PartialEq` covers the derived column) and
        // bit-identical quantized serving.
        let mut fresh = hnsw_quantized(150);
        let path = tmp("bundle-v7-derived.mustb");
        save_quantized(&fresh, &path).unwrap();
        let mut loaded = load(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert!(loaded.quant().unwrap().is_shared());
        assert_eq!(loaded.quant(), fresh.quant());

        let new0: Vec<f32> = (0..8).map(|i| if i == 1 { 1.0 } else { 0.02 }).collect();
        let new1: Vec<f32> = (0..4).map(|i| if i == 0 { 1.0 } else { 0.02 }).collect();
        for must in [&mut fresh, &mut loaded] {
            assert_eq!(must.insert_object(&[new0.clone(), new1.clone()]).unwrap(), 150);
        }
        assert!(!loaded.quant().unwrap().is_shared());
        assert_eq!(loaded.quant(), fresh.quant());
        assert_eq!(fresh.quant(), Some(&fresh.objects().fused().quantize()));

        use crate::server::MustServer;
        let (fresh, loaded) = (MustServer::freeze(fresh), MustServer::freeze(loaded));
        let w = Weights::from_squared(vec![0.3, 0.7]).unwrap();
        for id in [0u32, 3, 77, 149, 150] {
            let q = MultiQuery::full(vec![
                fresh.objects().modality(0).get(id).to_vec(),
                fresh.objects().modality(1).get(id).to_vec(),
            ]);
            let (a, b) = (fresh.search(&q, 5, 60).unwrap(), loaded.search(&q, 5, 60).unwrap());
            assert_eq!((a.results, a.stats), (b.results, b.stats), "query {id}");
            let a = fresh.search_weighted(&q, &w, 5, 60).unwrap();
            let b = loaded.search_weighted(&q, &w, 5, 60).unwrap();
            assert_eq!((a.results, a.stats), (b.results, b.stats), "weighted query {id}");
        }
    }

    #[test]
    fn v7_bundle_bytes_match_the_committed_golden_hash() {
        // FNV-1a (64-bit) of the v7 bundle of a fixed-seed 64-object
        // corpus, taken on the commit before `||o_hat||^2` became derived
        // state.  Format drift — a derived column leaking into the file,
        // a changed encoder, a reordered section — fails here instead of
        // in the repo benchmark's `inputs_fingerprint`.
        let path = tmp("bundle-v7-golden.mustb");
        save_quantized(&hnsw_quantized(64), &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let hash = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
        assert_eq!((bytes.len(), hash), (15_646, 0x41D2_D82C_9B4F_5ABC), "v7 bundle bytes drifted");
    }

    #[test]
    fn v7_saves_without_a_pre_attached_engine() {
        // `save_quantized` quantizes on the fly when the instance never
        // called `quantize()`; the bundle is byte-identical either way.
        let set = corpus(60);
        let mut with = Must::build(set, Weights::uniform(2), MustBuildOptions::default()).unwrap();
        let p_without = tmp("bundle-v7-fly.mustb");
        save_quantized(&with, &p_without).unwrap();
        with.quantize();
        let p_with = tmp("bundle-v7-pre.mustb");
        save_quantized(&with, &p_with).unwrap();
        assert_eq!(std::fs::read(&p_without).unwrap(), std::fs::read(&p_with).unwrap());
        let loaded = load(&p_without).unwrap();
        assert!(loaded.quant().is_some());
        for p in [p_without, p_with] {
            std::fs::remove_file(&p).unwrap();
        }
    }

    #[test]
    fn v7_loads_as_one_shard_through_the_sharded_loader() {
        let set = corpus(50);
        let must = Must::build(set, Weights::uniform(2), MustBuildOptions::default()).unwrap();
        let path = tmp("bundle-v7-sharded-compat.mustb");
        save_quantized(&must, &path).unwrap();
        let sharded = load_sharded(&path).unwrap();
        assert_eq!(sharded.num_shards(), 1);
        assert_eq!(sharded.len(), 50);
        assert!(sharded.shard(0).quant().is_some(), "the shard keeps its SQ8 engine");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn tombstoned_instances_refuse_to_persist() {
        let set = corpus(80);
        let mut must = Must::build(set, Weights::uniform(2), MustBuildOptions::default()).unwrap();
        assert!(must.mark_deleted(42));
        let path = tmp("tombstone.mustb");
        assert!(matches!(save(&must, &path), Err(MustError::Config(_))));
        assert!(matches!(save_json(&must, &path), Err(MustError::Config(_))));
        // Restoring the tombstone makes the instance persistable again.
        assert!(must.restore(42));
        save(&must, &path).unwrap();
        let loaded = load(&path).unwrap();
        assert_eq!(loaded.deleted_count(), 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn future_version_is_a_config_error() {
        let p = tmp("future.mustb");
        let mut bytes = BUNDLE_V2_MAGIC.to_vec();
        bytes.extend_from_slice(&99u32.to_le_bytes());
        std::fs::write(&p, bytes).unwrap();
        assert!(matches!(load(&p), Err(MustError::Config(_))));
        std::fs::remove_file(&p).unwrap();
    }

    // -----------------------------------------------------------------
    // Bundle v4 (sharded).

    use crate::shard::{ShardSpec, ShardedServer};

    fn assert_identical_sharded_searches(a: &ShardedServer, corpus: &MultiVectorSet, b: &ShardedServer, ids: &[u32]) {
        for &id in ids {
            let q = MultiQuery::full(vec![
                corpus.modality(0).get(id).to_vec(),
                corpus.modality(1).get(id).to_vec(),
            ]);
            let ra = a.search(&q, 5, 60).unwrap();
            let rb = b.search(&q, 5, 60).unwrap();
            assert_eq!(ra.results, rb.results, "query {id}");
            assert_eq!(ra.stats, rb.stats, "query {id}");
        }
    }

    #[test]
    fn sharded_bundle_v6_round_trips_every_backend() {
        let set = corpus(120);
        for recipe in GraphRecipe::all() {
            let sharded = ShardedMust::build(
                set.clone(),
                Weights::new(vec![0.8, 0.4]).unwrap(),
                MustBuildOptions { gamma: 8, recipe, ..Default::default() },
                ShardSpec::hashed(3),
            )
            .unwrap();
            let path = tmp(&format!("bundle-v6-{}.mustb", recipe.label()));
            save_sharded(&sharded, &path).unwrap();
            let loaded = load_sharded(&path).unwrap();
            assert_eq!(loaded.num_shards(), 3, "{}", recipe.label());
            assert_eq!(loaded.len(), 120, "{}", recipe.label());
            assert_eq!(loaded.assignment(), ShardAssignment::Hash);
            for s in 0..3 {
                assert_eq!(loaded.global_ids(s), sharded.global_ids(s), "{}", recipe.label());
                // v6 carries the summaries verbatim.
                assert_eq!(loaded.summary(s), sharded.summary(s), "{}", recipe.label());
            }
            let direct = ShardedServer::freeze(sharded);
            let thawed = ShardedServer::freeze(loaded);
            assert_identical_sharded_searches(&direct, &set, &thawed, &[2, 61, 119]);
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn legacy_v4_bundles_load_with_derived_summaries() {
        let set = corpus(96);
        let sharded = ShardedMust::build(
            set.clone(),
            Weights::new(vec![0.8, 0.4]).unwrap(),
            MustBuildOptions::default(),
            ShardSpec::new(3),
        )
        .unwrap();
        let path = tmp("bundle-v4-legacy.mustb");
        write_sharded(&sharded, &path, BUNDLE_V4_VERSION).unwrap();
        let loaded = load_sharded(&path).unwrap();
        assert_eq!(loaded.num_shards(), 3);
        for s in 0..3 {
            // A v4 manifest has no summary section; the loader derives
            // summaries from the rows, matching a fresh build's exactly.
            assert_eq!(loaded.summary(s), sharded.summary(s));
        }
        let direct = ShardedServer::freeze(sharded);
        let thawed = ShardedServer::freeze(loaded);
        assert_identical_sharded_searches(&direct, &set, &thawed, &[0, 47, 95]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn single_shard_formats_load_as_one_shard() {
        // v3 binary, v2 is covered by the hand-crafted fixture above, and
        // v1 JSON must all come up as a 1-shard deployment with the
        // identity id map.
        let set = corpus(90);
        let must =
            Must::build(set, Weights::new(vec![0.6, 0.9]).unwrap(), MustBuildOptions::default())
                .unwrap();
        let p3 = tmp("sharded-compat-v3.mustb");
        save(&must, &p3).unwrap();
        let p1 = tmp("sharded-compat-v1.json");
        save_json(&must, &p1).unwrap();
        for p in [&p3, &p1] {
            let sharded = load_sharded(p).unwrap();
            assert_eq!(sharded.num_shards(), 1);
            assert_eq!(sharded.len(), 90);
            let want: Vec<u32> = (0..90).collect();
            assert_eq!(sharded.global_ids(0), &want[..]);
            // Pre-v6 bundles carry no summaries: the loader derives one
            // from the rows, identical to computing it directly.
            let derived = crate::shard::ShardSummary::compute(sharded.shard(0).objects().fused());
            assert_eq!(sharded.summary(0), &derived);
            std::fs::remove_file(p).unwrap();
        }
    }

    #[test]
    fn v6_reload_preserves_dynamic_insertion_and_grown_radii() {
        let set = corpus(80);
        let mut sharded = ShardedMust::build(
            set,
            Weights::uniform(2),
            MustBuildOptions { recipe: GraphRecipe::Hnsw, ..Default::default() },
            ShardSpec::new(2),
        )
        .unwrap();
        // Insert *before* saving: the target shard's radii grow around the
        // fixed centroid, and v6 must persist that growth verbatim (a
        // re-derivation on load would recentre and shrink it).
        sharded.insert_object(&[vec![1.0; 8], vec![1.0; 4]]).unwrap();
        let path = tmp("bundle-v6-hnsw-insert.mustb");
        save_sharded(&sharded, &path).unwrap();
        let mut loaded = load_sharded(&path).unwrap();
        for s in 0..2 {
            assert_eq!(loaded.summary(s), sharded.summary(s), "shard {s}");
        }
        let id = loaded
            .insert_object(&[vec![1.0; 8], vec![1.0; 4]])
            .expect("reloaded HNSW shards stay dynamic");
        assert_eq!(id, 81, "global ids keep growing densely after reload");
        assert_eq!(loaded.len(), 82);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn single_shard_loader_rejects_sharded_bundles_with_a_pointer() {
        let set = corpus(40);
        let sharded = ShardedMust::build(
            set,
            Weights::uniform(2),
            MustBuildOptions::default(),
            ShardSpec::new(2),
        )
        .unwrap();
        for version in [BUNDLE_V4_VERSION, BUNDLE_V6_VERSION] {
            let path = tmp(&format!("bundle-v{version}-reject.mustb"));
            write_sharded(&sharded, &path, version).unwrap();
            let Err(err) = load(&path) else { panic!("load() must reject v{version}") };
            assert!(err.to_string().contains("load_sharded"), "{err}");
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn corrupt_v4_manifests_error_cleanly() {
        // Unknown assignment tag.
        let bad_tag = tmp("v4-bad-tag.mustb");
        let mut bytes = BUNDLE_V2_MAGIC.to_vec();
        bytes.extend_from_slice(&BUNDLE_V4_VERSION.to_le_bytes());
        bytes.extend_from_slice(&1u32.to_le_bytes()); // one shard
        bytes.push(9); // no such assignment
        std::fs::write(&bad_tag, &bytes).unwrap();
        assert!(matches!(load_sharded(&bad_tag), Err(MustError::Config(_))));

        // A manifest whose payload offset lies must be rejected before any
        // payload parse.
        let set = corpus(30);
        let sharded = ShardedMust::build(
            set,
            Weights::uniform(2),
            MustBuildOptions::default(),
            ShardSpec::new(2),
        )
        .unwrap();
        let bad_offset = tmp("v4-bad-offset.mustb");
        write_sharded(&sharded, &bad_offset, BUNDLE_V4_VERSION).unwrap();
        let mut bytes = std::fs::read(&bad_offset).unwrap();
        // First offset lives right after: magic(8) + version(4) + count(4)
        // + tag(1) + two id maps (8 + 4*15 each).
        let off_pos = 8 + 4 + 4 + 1 + 2 * (8 + 4 * 15);
        bytes[off_pos] ^= 0xFF;
        std::fs::write(&bad_offset, &bytes).unwrap();
        let Err(err) = load_sharded(&bad_offset) else { panic!("lying offset must fail") };
        assert!(matches!(err, MustError::Config(_)), "{err}");
        assert!(err.to_string().contains("payload"), "{err}");

        // A v6 summary block holding a NaN must be rejected by the summary
        // validator, not crash the router later.  The centroid starts
        // right after the same manifest prefix as above, plus the
        // centroid's own u64 length prefix.
        let bad_summary = tmp("v6-bad-summary.mustb");
        save_sharded(&sharded, &bad_summary).unwrap();
        let mut bytes = std::fs::read(&bad_summary).unwrap();
        let centroid_pos = 8 + 4 + 4 + 1 + 2 * (8 + 4 * 15) + 8;
        bytes[centroid_pos..centroid_pos + 4].copy_from_slice(&f32::NAN.to_le_bytes());
        std::fs::write(&bad_summary, &bytes).unwrap();
        let Err(err) = load_sharded(&bad_summary) else { panic!("NaN summary must fail") };
        assert!(matches!(err, MustError::Config(_)), "{err}");
        assert!(err.to_string().contains("summary"), "{err}");

        // Zero shards.
        let zero = tmp("v4-zero-shards.mustb");
        let mut bytes = BUNDLE_V2_MAGIC.to_vec();
        bytes.extend_from_slice(&BUNDLE_V4_VERSION.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        std::fs::write(&zero, &bytes).unwrap();
        assert!(matches!(load_sharded(&zero), Err(MustError::Config(_))));

        for p in [bad_tag, bad_offset, bad_summary, zero] {
            std::fs::remove_file(&p).unwrap();
        }
    }
}
