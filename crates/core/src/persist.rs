//! Index persistence: serialise a built MUST instance (corpus + weights +
//! index) to disk and load it back without rebuilding — what a deployment
//! does between the offline build and online serving (Fig. 4's
//! offline/online split).
//!
//! The loaders read exactly the three formats the savers write; every
//! bundle opens with [`BUNDLE_V2_MAGIC`] and a version word:
//!
//! * **Bundle v5** (single shard, [`save`]): a stream — the payload header
//!   (prune flag, dims, lane, cardinality), the **unscaled** fused rows
//!   (weights are never baked into storage), an explicit *segment-norms
//!   block* (`n · m` little-endian `f32`, `||o_k||^2` per row/modality),
//!   the **default** [`Weights`], and the index block (CSR arrays for
//!   flat-graph backends, the flattened layered form for HNSW).  [`load`]
//!   hands rows + norms straight to
//!   [`FusedRows::from_raw_parts_with_norms`], so neither a per-modality
//!   re-copy nor a norms recomputation happens; the default weights merely
//!   seed the server's default path — any query may override them
//!   (`search_weighted`).
//! * **Bundle v6** (sharded, [`save_sharded`]): a manifest — shard count,
//!   assignment tag, per-shard id maps, a **routing-summary section** (per
//!   shard: the fused centroid row and per-modality residual radii, each
//!   length-prefixed), per-shard payload offsets — followed by one payload
//!   per shard: the v5 stream minus its norms block (norms are re-derived
//!   from the rows at load).  Summaries load verbatim — they are *not*
//!   re-derivable after dynamic insertions, whose radius growth must
//!   survive a round-trip.
//! * **Bundle v7** (single shard, quantized, [`save_quantized`]): an
//!   offset-table layout.  After the same payload header comes a section
//!   count, then a table of `(offset, byte length)` pairs — offsets
//!   relative to the first byte after the table, each 32-byte aligned —
//!   and finally the six sections themselves: fused rows, segment norms,
//!   default weights, SQ8 codes, quantization parameters
//!   (`min`/`step`/`eps` per row-segment), and the index block.  [`load`]
//!   checks that the table is the layout the header implies, then streams
//!   the sections in table order, skipping the padding, and copies the
//!   codes and parameters into the SQ8 engine's row blocks: no buffer ever
//!   holds the file.
//!
//! One codec serves all three: a payload is a header and an ordered list of
//! sections, and a format is the subset it carries, back to back or behind
//! v7's table.  One writer loop and one reader loop handle every payload.
//!
//! [`load`] reads v5 and v7; [`load_sharded`] reads all three (a
//! single-shard bundle comes up as one shard).  Versions 1–4 (v1 JSON, the
//! per-modality v2, a stand-alone v3, the summary-less v4 manifest) were
//! retired in PR 17 and are refused with a typed error, as is anything
//! that does not open with the magic.  See `DESIGN.md` §7 for the
//! byte-level table.
//!
//! I/O and decoding failures — a truncated file among them, at its first
//! missing byte — surface as [`MustError::Io`]; semantic problems
//! (unsupported version, corpus/graph inconsistency) as
//! [`MustError::Config`].

use std::borrow::Cow;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

use must_graph::csr::CsrGraph;
use must_graph::hnsw::{Hnsw, HnswFlat};
use must_graph::GraphRecipe;
use must_vector::{FusedRows, Layout, MultiVectorSet, QuantizedRows, SegParams, Weights, FUSED_LANE};

use crate::framework::{Must, MustBuildOptions};
use crate::index::MustIndex;
use crate::shard::{ShardSummary, ShardedMust};
use crate::MustError;

/// Version written by [`save`]: fused rows, an explicit segment-norms
/// block, the default weights, the index block.
pub const BUNDLE_V5_VERSION: u32 = 5;

/// Version written by [`save_sharded`]: a manifest (id maps, per-shard
/// routing summaries, payload offsets) followed by one norms-less payload
/// per shard.
pub const BUNDLE_V6_VERSION: u32 = 6;

/// Version written by [`save_quantized`]: an offset-table layout carrying
/// both the f32 fused rows *and* their SQ8 companion (codes + per-segment
/// quantization parameters), every section 32-byte aligned.
pub const BUNDLE_V7_VERSION: u32 = 7;

/// Magic bytes opening every bundle (the name dates from the first binary
/// format); a file that does not start with them is refused unread.
pub const BUNDLE_V2_MAGIC: [u8; 8] = *b"MUSTBNDL";

/// Bytes before the first payload byte: magic + version word.
const PREAMBLE: usize = 12;

/// What every refusal to read a file ends with.
const READS: &str = "this build reads bundle v5, v6 (sharded) and v7; v1-v4 are retired";

/// The v6 manifest's assignment byte.  Membership is always clustered,
/// written as 2; 0 (round-robin) and 1 (hash), written by older builds, are
/// accepted and ignored, since loading never depended on how a corpus was
/// split.
const V6_CLUSTERED_TAG: u8 = 2;

/// Sanity cap on the shard count of a v6 manifest.
const MAX_SHARDS: u64 = 1 << 16;

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

fn checked_len(len: u64, what: &str) -> Result<usize, MustError> {
    if len >= MAX_ELEMS {
        return Err(MustError::Io(format!("corrupt {what} length {len}")));
    }
    Ok(len as usize)
}

// ---------------------------------------------------------------------------
// Little-endian primitives, and the one reader.

fn wr_u8(w: &mut impl Write, v: u8) -> Result<(), MustError> {
    w.write_all(&[v]).map_err(io("write u8"))
}

fn wr_u32(w: &mut impl Write, v: u32) -> Result<(), MustError> {
    w.write_all(&v.to_le_bytes()).map_err(io("write u32"))
}

fn wr_u64(w: &mut impl Write, v: u64) -> Result<(), MustError> {
    w.write_all(&v.to_le_bytes()).map_err(io("write u64"))
}

/// Writes a stream of 4-byte words through one chunk buffer of at most
/// 256 KiB.
fn wr_words<T>(
    w: &mut impl Write,
    vs: impl IntoIterator<Item = T>,
    enc: impl Fn(T) -> [u8; 4],
) -> Result<(), MustError> {
    const CHUNK: usize = 1 << 18;
    let vs = vs.into_iter();
    let mut buf = Vec::with_capacity(vs.size_hint().0.saturating_mul(4).min(CHUNK));
    for v in vs {
        buf.extend_from_slice(&enc(v));
        if buf.len() == CHUNK {
            w.write_all(&buf).map_err(io("write block"))?;
            buf.clear();
        }
    }
    w.write_all(&buf).map_err(io("write block"))
}

/// Writes a length-prefixed `u32` array: `8 + 4 · len` bytes.
fn wr_u32s(w: &mut impl Write, vs: &[u32]) -> Result<(), MustError> {
    wr_u64(w, vs.len() as u64)?;
    wr_words(w, vs.iter().copied(), u32::to_le_bytes)
}

/// Writes a length-prefixed `f32` array (the v6 summary blocks).
fn wr_f32s(w: &mut impl Write, vs: &[f32]) -> Result<(), MustError> {
    wr_u64(w, vs.len() as u64)?;
    wr_words(w, vs.iter().copied(), f32::to_le_bytes)
}

/// The little-endian reader every loader reads through.  It counts the
/// bytes it has consumed, so v7 can skip to each section's offset and v6
/// can check that each payload starts where its manifest says.
struct Reader<R> {
    inner: R,
    pos: u64,
}

impl<R: Read> Reader<R> {
    fn fill(&mut self, buf: &mut [u8], what: &str) -> Result<(), MustError> {
        self.inner.read_exact(buf).map_err(io(what))?;
        self.pos += buf.len() as u64;
        Ok(())
    }

    fn le<const N: usize>(&mut self, what: &str) -> Result<[u8; N], MustError> {
        let mut b = [0u8; N];
        self.fill(&mut b, what)?;
        Ok(b)
    }

    fn u8(&mut self) -> Result<u8, MustError> {
        Ok(self.le::<1>("read u8")?[0])
    }

    fn u32(&mut self) -> Result<u32, MustError> {
        self.le("read u32").map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> Result<u64, MustError> {
        self.le("read u64").map(u64::from_le_bytes)
    }

    /// Reads `len` elements of `W` bytes each, decoding each through
    /// `dec`.  Pre-allocation is capped at [`MAX_PREALLOC`]: a corrupt
    /// length costs at most that much memory before the reader hits EOF
    /// and errors.
    fn block<const W: usize, T>(
        &mut self,
        len: usize,
        what: &str,
        dec: impl Fn([u8; W]) -> T,
    ) -> Result<Vec<T>, MustError> {
        let mut out = Vec::with_capacity(len.min(MAX_PREALLOC));
        let mut buf = vec![0u8; len.min(1 << 16) * W];
        let mut remaining = len;
        while remaining > 0 {
            let take = remaining.min(1 << 16);
            let bytes = &mut buf[..take * W];
            self.fill(bytes, what)?;
            out.extend(bytes.as_chunks::<W>().0.iter().map(|&c| dec(c)));
            remaining -= take;
        }
        Ok(out)
    }

    /// Reads a `u64`-length-prefixed block of 4-byte words.
    fn array<T>(&mut self, what: &str, dec: impl Fn([u8; 4]) -> T) -> Result<Vec<T>, MustError> {
        let len = checked_len(self.u64()?, what)?;
        self.block(len, what, dec)
    }
}

// ---------------------------------------------------------------------------
// The payload: a header and one ordered list of sections.

/// The payload sections, in file order: the unscaled fused rows (padding
/// included), the segment norms, the default weights (raw ω), the SQ8
/// codes, the SQ8 `(min, step, eps)` per row and modality, and the index
/// block.  A format carries a subset, in this order; every length but the
/// index block's is implied by the payload header ([`spans`]).
#[derive(Clone, Copy)]
enum Section {
    Rows,
    Norms,
    Omega,
    Codes,
    Params,
    Index,
}
use Section::{Codes, Index, Norms, Omega, Params, Rows};

/// A payload layout: its sections, and whether v7's offset table precedes
/// them (each then 32-byte aligned after it) or they follow the header
/// back to back.
struct Format {
    sections: &'static [Section],
    table: bool,
}

const V5: Format = Format { sections: &[Rows, Norms, Omega, Index], table: false };
/// A v6 shard payload: v5's without the norms, which load re-derives.
const V6_SHARD: Format = Format { sections: &[Rows, Omega, Index], table: false };
const V7: Format = Format { sections: &[Rows, Norms, Omega, Codes, Params, Index], table: true };

/// The payload header: prune flag, modality count and dims, lane width,
/// cardinality — the shape of the fused-row buffer exactly as it sits in
/// memory — with the row stride it implies.
struct Header {
    prune: bool,
    dims: Vec<usize>,
    n: usize,
    stride: usize,
}

impl Header {
    /// Reads the header [`write_payload`] writes.  Every count is capped
    /// before anything is sized from it, and `n · stride` is known to fit.
    fn read(r: &mut Reader<impl Read>) -> Result<Self, MustError> {
        let prune = r.u8()? != 0;
        let m = checked_len(r.u32()? as u64, "modality count")?;
        if m == 0 {
            return Err(MustError::Config("bundle has no modalities".into()));
        }
        let mut dims = Vec::with_capacity(m.min(MAX_PREALLOC));
        for mi in 0..m {
            let dim = checked_len(r.u32()? as u64, "dimension")?;
            if dim == 0 {
                return Err(MustError::Config(format!("modality {mi} has zero dimension")));
            }
            dims.push(dim);
        }
        let lane = r.u32()? as usize;
        if lane != FUSED_LANE {
            return Err(MustError::Config(format!(
                "bundle written with fused lane {lane}, this build uses {FUSED_LANE}"
            )));
        }
        let stride = Layout::new(dims.clone()).expect("dims checked non-empty and non-zero").stride();
        let n = checked_len(r.u64()?, "cardinality")?;
        n.checked_mul(stride)
            .filter(|t| (*t as u64) < MAX_ELEMS)
            .ok_or_else(|| MustError::Io("corrupt fused block size".into()))?;
        Ok(Header { prune, dims, n, stride })
    }
}

/// Each section's `(offset, byte length)` in `format`, relative to the
/// first section byte: back to back, or 32-byte aligned behind a table.
/// Every length follows from `header`, but the index block's, `index`.
fn spans(header: &Header, format: &Format, index: u64) -> Vec<(u64, u64)> {
    let (n, m, stride) = (header.n as u64, header.dims.len() as u64, header.stride as u64);
    let align = if format.table { V7_ALIGN } else { 1 };
    let mut end = 0u64;
    let spans = format.sections.iter().map(|section| {
        let len = match section {
            Rows => 4 * n * stride,
            Norms => 4 * n * m,
            Omega => 4 * m,
            Codes => n * stride,
            Params => 12 * n * m,
            Index => index,
        };
        let off = end.next_multiple_of(align);
        end = off.saturating_add(len);
        (off, len)
    });
    spans.collect()
}

/// The index block a payload ends with: a flat graph's CSR arrays, or
/// HNSW's flattened layers.
enum IndexBlock<'a> {
    Csr(&'a CsrGraph),
    Hnsw(HnswFlat),
}

impl IndexBlock<'_> {
    fn of(must: &Must) -> IndexBlock<'_> {
        match must.index() {
            MustIndex::Csr(csr) => IndexBlock::Csr(csr),
            MustIndex::Hnsw(h) => IndexBlock::Hnsw(h.to_flat()),
        }
    }

    /// The bytes [`Self::write`] writes, from the block's shape alone: the
    /// tag byte, the fixed fields, and `8 + 4 · len` per array.
    fn byte_len(&self) -> u64 {
        let array = |vs: &[u32]| 8 + 4 * vs.len() as u64;
        match self {
            IndexBlock::Csr(csr) => 1 + 4 + array(csr.offsets()) + array(csr.edges()),
            IndexBlock::Hnsw(flat) => {
                1 + 4 * 4 + 8 + array(&flat.levels) + array(&flat.offsets) + array(&flat.edges)
            }
        }
    }

    /// Writes the block: tag byte, then the backend's fields and arrays.
    fn write(&self, w: &mut impl Write) -> Result<(), MustError> {
        match self {
            IndexBlock::Csr(csr) => {
                wr_u8(w, INDEX_TAG_CSR)?;
                wr_u32(w, csr.seed())?;
                wr_u32s(w, csr.offsets())?;
                wr_u32s(w, csr.edges())?;
            }
            IndexBlock::Hnsw(flat) => {
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
}

/// Reads the index block [`IndexBlock::write`] writes.
fn read_index_block(r: &mut Reader<impl Read>) -> Result<(MustIndex, GraphRecipe), MustError> {
    let tag = r.u8()?;
    match tag {
        INDEX_TAG_CSR => {
            let seed = r.u32()?;
            let offsets = r.array("CSR offsets", u32::from_le_bytes)?;
            let edges = r.array("CSR edges", u32::from_le_bytes)?;
            let csr = CsrGraph::from_parts(offsets, edges, seed)
                .map_err(|e| MustError::Config(format!("corrupt CSR block: {e}")))?;
            Ok((MustIndex::Csr(csr), GraphRecipe::Fused))
        }
        INDEX_TAG_HNSW => {
            // Field initialisers run in source order: the wire order.
            let flat = HnswFlat {
                entry: r.u32()?,
                max_level: r.u32()?,
                m: r.u32()?,
                ef_construction: r.u32()?,
                rng_seed: r.u64()?,
                levels: r.array("HNSW levels", u32::from_le_bytes)?,
                offsets: r.array("HNSW offsets", u32::from_le_bytes)?,
                edges: r.array("HNSW edges", u32::from_le_bytes)?,
            };
            let h = Hnsw::from_flat(&flat)
                .map_err(|e| MustError::Config(format!("corrupt HNSW block: {e}")))?;
            Ok((MustIndex::Hnsw(h), GraphRecipe::Hnsw))
        }
        other => Err(MustError::Config(format!("unknown index tag {other}"))),
    }
}

/// Writes `must`'s payload in `format`: the header, v7's offset table when
/// the format has one, then each section, padded to its offset.  `quant`
/// supplies the codes and parameters of a format that carries them.
fn write_payload(
    w: &mut impl Write,
    must: &Must,
    quant: Option<&QuantizedRows>,
    format: &Format,
) -> Result<(), MustError> {
    let rows = must.objects().fused();
    let (n, m, stride) = (rows.len(), rows.num_modalities(), rows.stride());
    let header = Header { prune: must.prune(), dims: rows.dims().to_vec(), n, stride };
    // The one length the header does not imply follows from the index's shape.
    let index = IndexBlock::of(must);
    let spans = spans(&header, format, index.byte_len());

    wr_u8(w, header.prune as u8)?;
    wr_u32(w, m as u32)?;
    for &d in &header.dims {
        wr_u32(w, d as u32)?;
    }
    wr_u32(w, FUSED_LANE as u32)?;
    wr_u64(w, n as u64)?;
    if format.table {
        wr_u32(w, spans.len() as u32)?;
        for &(off, len) in &spans {
            wr_u64(w, off)?;
            wr_u64(w, len)?;
        }
    }
    let engine = || quant.expect("a format with codes is written with its SQ8 engine");
    let mut end = 0;
    for (&section, &(off, len)) in format.sections.iter().zip(&spans) {
        let pad = [0u8; V7_ALIGN as usize];
        w.write_all(&pad[..(off - end) as usize]).map_err(io("write padding"))?;
        end = off + len;
        match section {
            Rows => wr_words(w, rows.raw_data().iter().copied(), f32::to_le_bytes)?,
            Norms => wr_words(w, rows.seg_norms().iter().copied(), f32::to_le_bytes)?,
            Omega => wr_words(w, must.weights().raw().iter().copied(), f32::to_le_bytes)?,
            Codes => {
                let quant = engine();
                for id in 0..n as u32 {
                    w.write_all(quant.row_codes(id)).map_err(io("write codes"))?;
                }
            }
            Params => {
                let quant = engine();
                let params = (0..n as u32).flat_map(|id| (0..m).map(move |k| quant.seg_params(id, k)));
                wr_words(w, params.flat_map(|p| [p.min, p.step, p.eps]), f32::to_le_bytes)?;
            }
            Index => index.write(w)?,
        }
    }
    Ok(())
}

/// Reads one payload of `format` and assembles it into a ready-to-search
/// [`Must`].  v7's table is checked in full before any section is read;
/// sections are checked against each other only once all are in, so a
/// truncated payload is always an I/O error.
fn read_payload(r: &mut Reader<impl Read>, format: &Format) -> Result<Must, MustError> {
    let header = Header::read(r)?;
    let table = if format.table { read_table(r, &header, format)? } else { Vec::new() };
    let Header { prune, dims, n, stride } = header;
    let (m, base) = (dims.len(), r.pos);
    let (mut data, mut norms, mut omega, mut codes, mut params, mut index) =
        (Vec::new(), None, Vec::new(), None, Vec::new(), None);
    for (i, &section) in format.sections.iter().enumerate() {
        let span = table.get(i).copied();
        if let Some((off, _)) = span {
            // The checked table leaves fewer than 32 bytes of padding.
            let pad = (off.checked_add(base).and_then(|at| at.checked_sub(r.pos)))
                .filter(|&pad| pad < V7_ALIGN)
                .ok_or_else(|| MustError::Config(format!("v7 section {i} is out of place")))?;
            r.fill(&mut [0; V7_ALIGN as usize][..pad as usize], "v7 padding")?;
        }
        match (section, span) {
            (Rows, _) => data = r.block(n * stride, "fused row block", f32::from_le_bytes)?,
            (Norms, _) => norms = Some(r.block(n * m, "segment norm block", f32::from_le_bytes)?),
            (Omega, _) => omega = r.block(m, "weights", f32::from_le_bytes)?,
            (Codes, _) => codes = Some(r.block(n * stride, "SQ8 codes", |[b]: [u8; 1]| b)?),
            (Params, _) => params = r.block(3 * n * m, "SQ8 parameters", f32::from_le_bytes)?,
            (Index, None) => index = Some(read_index_block(r)?),
            (Index, Some((_, len))) => {
                // v7 bounds the block by its section, and it must fill it;
                // nothing follows it, so `r.pos` is not read again.
                let mut section = Reader { inner: (&mut r.inner).take(len), pos: r.pos };
                index = Some(read_index_block(&mut section)?);
                let trailing = section.inner.limit();
                if trailing > 0 {
                    let msg = format!("v7 index section has {trailing} trailing byte(s)");
                    return Err(MustError::Config(msg));
                }
            }
        }
    }

    // Assembly: the f32 engine (persisted norms adopted verbatim, absent
    // ones derived), the default weights, the index, and the SQ8 engine
    // when codes came with them.
    let rows = match norms {
        Some(norms) => FusedRows::from_raw_parts_with_norms(dims.clone(), data, norms),
        None => FusedRows::from_raw_parts(dims.clone(), data),
    }
    .map_err(|e| MustError::Config(e.to_string()))?;
    let weights = Weights::new(omega).map_err(MustError::Vector)?;
    let (index, recipe) = index.expect("every format carries an index block");
    let mut must = Must::from_parts(
        MultiVectorSet::from_fused(rows),
        weights,
        index,
        MustBuildOptions { recipe, ..Default::default() },
    )?;
    must.set_prune(prune);
    if let Some(codes) = codes {
        let params: Vec<SegParams> =
            params.chunks_exact(3).map(|c| SegParams { min: c[0], step: c[1], eps: c[2] }).collect();
        let quant = QuantizedRows::from_parts(dims, &codes, &params)
            .map_err(|e| MustError::Config(format!("v7 quantized engine: {e}")))?;
        must.attach_quant(quant)?;
    }
    Ok(must)
}

/// Reads v7's offset table and checks it before any section is read: it
/// must be the layout [`spans`] derives from the header and the index
/// length — every other length, 32-byte alignment, order, no overlap.  A
/// truncated table fails here with an I/O error.
fn read_table(
    r: &mut Reader<impl Read>,
    header: &Header,
    format: &Format,
) -> Result<Vec<(u64, u64)>, MustError> {
    let (count, want) = (r.u32()? as usize, format.sections.len());
    if count != want {
        return Err(MustError::Config(format!(
            "v7 bundle declares {count} sections (expected {want})"
        )));
    }
    let mut table = Vec::with_capacity(count);
    for _ in 0..count {
        table.push((r.u64()?, r.u64()?));
    }
    let want = spans(header, format, table[count - 1].1);
    match (0..count).find(|&i| table[i] != want[i]) {
        Some(i) => Err(MustError::Config(format!(
            "v7 section {i} has (offset, length) {:?}, the header implies {:?}",
            table[i], want[i]
        ))),
        None => Ok(table),
    }
}

// ---------------------------------------------------------------------------
// Save.

/// No format records tombstones: a bundle is a frozen snapshot of what the
/// index *serves*.  Persisting an instance with live tombstones would
/// silently resurrect the deleted objects on load, so every save path
/// refuses it — rebuild (Section IX) before persisting.
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

/// Creates `path` and writes the preamble: magic + `version`.
fn create(path: &Path, version: u32) -> Result<BufWriter<std::fs::File>, MustError> {
    let file = std::fs::File::create(path)
        .map_err(|e| MustError::Io(format!("create {}: {e}", path.display())))?;
    let mut w = BufWriter::new(file);
    w.write_all(&BUNDLE_V2_MAGIC).map_err(io("write magic"))?;
    wr_u32(&mut w, version)?;
    Ok(w)
}

/// Serialises `must` to `path` in the bundle-v5 binary format.  Every
/// backend is persistable: flat-graph indexes as their CSR arrays, HNSW
/// in its flattened layered form.  The corpus block is the raw unscaled
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
    let mut w = create(path, BUNDLE_V5_VERSION)?;
    write_payload(&mut w, must, None, &V5)?;
    w.flush().map_err(io("flush"))
}

/// Serialises `must` to `path` in the bundle-v7 format, carrying both the
/// exact f32 fused rows and their SQ8 companion engine.  Uses the engine
/// already attached via [`Must::quantize`] when present; otherwise
/// quantizes on the fly (the instance itself is not mutated).
///
/// The body is an offset table over six 32-byte-aligned sections (rows,
/// segment norms, default weights, codes, quantization parameters, index),
/// which [`load`] checks in full before it streams the sections in.  A v7
/// bundle loads into a [`Must`] that serves the quantized-scan +
/// exact-re-rank path out of the box.
///
/// # Errors
/// [`MustError::Io`] for file-system and encoding failures;
/// [`MustError::Config`] for live tombstones (bundles are frozen
/// snapshots) or a stale attached engine that no longer mirrors the
/// corpus.
pub fn save_quantized(must: &Must, path: &Path) -> Result<(), MustError> {
    reject_tombstones(must)?;
    let rows = must.objects().fused();
    let quant = must.quant().map_or_else(|| Cow::Owned(rows.quantize()), Cow::Borrowed);
    if quant.len() != rows.len() || quant.layout() != rows.layout() {
        return Err(MustError::Config(
            "attached quantized engine does not mirror the corpus".into(),
        ));
    }
    let mut w = create(path, BUNDLE_V7_VERSION)?;
    write_payload(&mut w, must, Some(&quant), &V7)?;
    w.flush().map_err(io("flush"))
}

// ---------------------------------------------------------------------------
// Load.

/// Opens `path` and reads magic + version, leaving the reader at the
/// first payload byte.  Anything that is not a bundle — too short for the
/// preamble, or not starting with the magic (a v1 JSON file starts with
/// `{`) — is refused here, before a single length is read.
fn open_bundle(path: &Path) -> Result<(Reader<BufReader<std::fs::File>>, u32), MustError> {
    let file = std::fs::File::open(path)
        .map_err(|e| MustError::Io(format!("open {}: {e}", path.display())))?;
    let mut r = BufReader::new(file);
    let refuse = |why: String| MustError::Io(format!("{}: {why}; {READS}", path.display()));
    let mut head = [0u8; PREAMBLE];
    r.read_exact(&mut head).map_err(|e| refuse(format!("no bundle header ({e})")))?;
    if head[..8] != BUNDLE_V2_MAGIC {
        return Err(refuse("not a MUST bundle (bad magic)".into()));
    }
    let version = u32::from_le_bytes([head[8], head[9], head[10], head[11]]);
    Ok((Reader { inner: r, pos: PREAMBLE as u64 }, version))
}

/// Reads the payload of a single-shard bundle of `version`.
fn read_single(r: &mut Reader<impl Read>, version: u32) -> Result<Must, MustError> {
    match version {
        BUNDLE_V5_VERSION => read_payload(r, &V5),
        BUNDLE_V7_VERSION => read_payload(r, &V7),
        BUNDLE_V6_VERSION => Err(MustError::Config(
            "bundle v6 is sharded; load it via persist::load_sharded or ShardedServer::load"
                .into(),
        )),
        other => Err(MustError::Config(format!("unsupported bundle version {other}: {READS}"))),
    }
}

/// Loads a single-shard bundle (v5, or v7 with its SQ8 engine) from `path`
/// into a ready-to-search [`Must`].  A sharded v6 bundle is rejected with
/// a pointer at [`load_sharded`], which reads all three formats.
///
/// # Errors
/// [`MustError::Io`] for file-system and decoding failures and for files
/// that are not bundles; [`MustError::Config`] for unsupported (retired
/// or future) versions and inconsistent bundles.
pub fn load(path: &Path) -> Result<Must, MustError> {
    let (mut r, version) = open_bundle(path)?;
    read_single(&mut r, version)
}

// ---------------------------------------------------------------------------
// Bundle v6: the sharded manifest.

/// Serialises a [`ShardedMust`] to `path` in the bundle-v6 format: the
/// shared magic, version 6, then a **manifest** (shard count, assignment
/// tag, per-shard local→global id maps, per-shard routing summaries,
/// per-shard absolute byte offsets) followed by one norms-less stream
/// payload per shard.  Summaries are persisted verbatim rather than
/// re-derived on load: dynamic insertions widen a shard's residual radii
/// around the *fixed* build-time centroid, and that growth must survive a
/// round-trip for routed searches to keep finding the inserted objects.  A
/// whole sharded deployment round-trips through one file;
/// [`load_sharded`] (and [`crate::shard::ShardedServer::load`]) reads it
/// back:
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
///     objects, Weights::uniform(1), MustBuildOptions::default(), ShardSpec::clustered(2),
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
    use std::io::{Seek, SeekFrom};

    let s = sharded.num_shards();
    for i in 0..s {
        reject_tombstones(sharded.shard(i))?;
    }
    let mut w = create(path, BUNDLE_V6_VERSION)?;
    wr_u32(&mut w, s as u32)?;
    wr_u8(&mut w, V6_CLUSTERED_TAG)?;
    for i in 0..s {
        wr_u32s(&mut w, sharded.global_ids(i))?;
    }
    for i in 0..s {
        let summary = sharded.summary(i);
        wr_f32s(&mut w, summary.centroid())?;
        wr_f32s(&mut w, summary.radii())?;
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
        write_payload(&mut w, sharded.shard(i), None, &V6_SHARD)?;
    }
    w.seek(SeekFrom::Start(offsets_at)).map_err(io("seek to offsets"))?;
    for offset in offsets {
        wr_u64(&mut w, offset)?;
    }
    w.flush().map_err(io("flush"))
}

/// Loads *any* bundle from `path` into a [`ShardedMust`]: a sharded v6
/// manifest directly, adopting its persisted routing summaries, and a
/// single-shard v5 / v7 bundle as one shard with the identity id map and a
/// summary derived from its rows — so a sharded deployment can adopt
/// single-shard bundles without a rewrite.
///
/// # Errors
/// [`MustError::Io`] for file-system and decoding failures and for files
/// that are not bundles; [`MustError::Config`] for unsupported (retired
/// or future) versions, corrupt manifests (bad assignment tag,
/// overlapping id maps, payloads not at their recorded offsets), and
/// inconsistent shard payloads.
pub fn load_sharded(path: &Path) -> Result<ShardedMust, MustError> {
    let (mut r, version) = open_bundle(path)?;
    if version == BUNDLE_V6_VERSION {
        return read_sharded_body(&mut r);
    }
    let must = read_single(&mut r, version)?;
    let n = must.objects().len() as u32;
    ShardedMust::from_parts(vec![must], vec![(0..n).collect()])
}

/// Reads a v6 manifest + payloads (everything after magic + version).
fn read_sharded_body(r: &mut Reader<impl Read>) -> Result<ShardedMust, MustError> {
    let shard_count = u64::from(r.u32()?);
    if shard_count == 0 || shard_count > MAX_SHARDS {
        return Err(MustError::Config(format!("corrupt shard count {shard_count}")));
    }
    let s = shard_count as usize;
    if r.u8()? > V6_CLUSTERED_TAG {
        return Err(MustError::Config("unknown shard assignment tag".into()));
    }
    let mut global_ids = Vec::with_capacity(s.min(MAX_PREALLOC));
    for _ in 0..s {
        global_ids.push(r.array("shard id map", u32::from_le_bytes)?);
    }
    let mut summaries = Vec::with_capacity(s.min(MAX_PREALLOC));
    for _ in 0..s {
        let centroid = r.array("summary centroid", f32::from_le_bytes)?;
        let radii = r.array("summary radii", f32::from_le_bytes)?;
        summaries.push(ShardSummary::from_parts(centroid, radii)?);
    }
    let offsets = r.block(s, "shard payload offsets", u64::from_le_bytes)?;
    let mut shards = Vec::with_capacity(s.min(MAX_PREALLOC));
    for (i, &offset) in offsets.iter().enumerate() {
        if r.pos != offset {
            return Err(MustError::Config(format!(
                "shard {i} payload recorded at byte {offset} but reader is at {}",
                r.pos
            )));
        }
        shards.push(read_payload(r, &V6_SHARD)?);
    }
    ShardedMust::from_parts_with_summaries(shards, global_ids, summaries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::ServeEngine;
    use crate::server::MustServer;
    use crate::shard::{ShardSpec, ShardedServer};
    use must_graph::GraphRecipe;
    use must_vector::{MultiQuery, VectorError, VectorSetBuilder};
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

    fn build(n: usize, weights: Weights, recipe: GraphRecipe) -> Must {
        Must::build(corpus(n), weights, MustBuildOptions { recipe, ..Default::default() }).unwrap()
    }

    fn build_sharded(n: usize, weights: Weights, spec: ShardSpec) -> ShardedMust {
        ShardedMust::build(corpus(n), weights, MustBuildOptions::default(), spec).unwrap()
    }

    fn hnsw_quantized(n: usize) -> Must {
        let mut must = build(n, Weights::new(vec![0.8, 0.4]).unwrap(), GraphRecipe::Hnsw);
        must.quantize();
        must
    }

    /// An object to insert after a reload: one hot coordinate per modality.
    fn new_object(hot0: usize, hot1: usize) -> [Vec<f32>; 2] {
        let row = |dim: usize, hot: usize| (0..dim).map(|i| if i == hot { 1.0 } else { 0.02 }).collect();
        [row(8, hot0), row(4, hot1)]
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("must-persist-test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}", std::process::id()))
    }

    /// Runs `write` on a scratch path, hands the file to `read`, removes it.
    fn via_file<T>(
        name: &str,
        write: impl FnOnce(&Path) -> Result<(), MustError>,
        read: impl FnOnce(&Path) -> T,
    ) -> T {
        let path = tmp(name);
        write(&path).unwrap();
        let out = read(&path);
        std::fs::remove_file(&path).unwrap();
        out
    }

    /// What both loaders make of a file holding `bytes`.
    fn load_bytes(name: &str, bytes: &[u8]) -> [Result<(), MustError>; 2] {
        via_file(
            name,
            |p| std::fs::write(p, bytes).map_err(io("write fixture")),
            |p| [load(p).map(drop), load_sharded(p).map(drop)],
        )
    }

    fn preamble(version: u32) -> Vec<u8> {
        [&BUNDLE_V2_MAGIC[..], &version.to_le_bytes()].concat()
    }

    fn self_query(set: &MultiVectorSet, id: u32) -> MultiQuery {
        MultiQuery::full(vec![set.modality(0).get(id).to_vec(), set.modality(1).get(id).to_vec()])
    }

    fn assert_identical_searches(a: &Must, b: &Must, ids: &[u32]) {
        for &id in ids {
            let q = self_query(a.objects(), id);
            let ra = a.search(&q, 5, 60).unwrap();
            let rb = b.search(&q, 5, 60).unwrap();
            assert_eq!(
                (ra.results, ra.stats),
                (rb.results, rb.stats),
                "loaded index must search identically (query {id})"
            );
        }
    }

    #[test]
    fn binary_save_load_round_trip_preserves_search_results() {
        let must = build(200, Weights::new(vec![0.8, 0.4]).unwrap(), GraphRecipe::Fused);
        let loaded = via_file("bundle-v5.mustb", |p| save(&must, p), |p| load(p).unwrap());
        assert_eq!(loaded.objects().len(), 200);
        assert_eq!(loaded.weights(), must.weights());
        assert_identical_searches(&must, &loaded, &[3, 77, 150]);
    }

    /// The name dates from the v2 / v1 pair; what it pins is that the
    /// layered form round-trips through `save` and stays dynamic.
    #[test]
    fn hnsw_round_trips_through_v2_but_not_v1() {
        let must = build(120, Weights::uniform(2), GraphRecipe::Hnsw);
        let mut loaded = via_file("hnsw-v5.mustb", |p| save(&must, p), |p| load(p).unwrap());
        assert_identical_searches(&must, &loaded, &[5, 60, 119]);
        let id = loaded.insert_object(&new_object(3, 2)).unwrap();
        assert_eq!(id, 120, "reloaded HNSW stays dynamic");
    }

    #[test]
    fn v5_round_trip_preserves_norms_and_weighted_serving() {
        let must = build(90, Weights::uniform(2), GraphRecipe::Fused);
        let loaded = via_file("bundle-v5-weighted.mustb", |p| save(&must, p), |p| load(p).unwrap());
        assert_eq!(
            loaded.objects().fused().seg_norms(),
            must.objects().fused().seg_norms(),
            "v5 adopts the persisted norms verbatim"
        );
        // A weight override over the loaded snapshot serves exactly like
        // one over the in-memory original.
        let (a, b) = (MustServer::freeze(must), MustServer::freeze(loaded));
        let w = Weights::from_squared(vec![0.85, 0.15]).unwrap();
        for id in [0u32, 44, 89] {
            let q = self_query(a.objects(), id);
            let ra = a.search_weighted(&q, &w, 5, 60).unwrap();
            let rb = b.search_weighted(&q, &w, 5, 60).unwrap();
            assert_eq!((ra.results, ra.stats), (rb.results, rb.stats), "query {id}");
        }
    }

    #[test]
    fn corrupt_and_missing_files_error_cleanly() {
        let missing = std::env::temp_dir().join("must-definitely-missing.mustb");
        assert!(matches!(load(&missing), Err(MustError::Io(_))));
        let v5 = |tail: &[u8]| [&preamble(BUNDLE_V5_VERSION)[..], tail].concat();
        let one_modality = |n: u64| {
            let mut tail = vec![1u8]; // prune
            for word in [1u32, 2, FUSED_LANE as u32] {
                tail.extend_from_slice(&word.to_le_bytes()); // m, dim, lane
            }
            [&tail[..], &n.to_le_bytes()].concat()
        };
        let cases: [(&str, Vec<u8>); 6] = [
            ("garbage", b"neither magic nor a version".to_vec()),
            // A truncated bundle fails as an I/O error, not a panic.
            ("truncated", v5(&[])),
            // An absurd length prefix fails before allocating — including
            // exactly at the cap boundary.
            ("huge m", v5(&[&[1u8][..], &u32::MAX.to_le_bytes()].concat())),
            ("m at the cap", v5(&[&[1u8][..], &(1u32 << 31).to_le_bytes()].concat())),
            ("n·stride at the cap", v5(&one_modality(1 << 28))),
            // A plausible header whose cardinality lies (claims far more
            // rows than the file holds) must hit EOF, not OOM: memory is
            // bounded by MAX_PREALLOC regardless of the claimed length.
            ("lying n", v5(&one_modality(1 << 27))),
        ];
        for (what, bytes) in cases {
            for got in load_bytes("corrupt.mustb", &bytes) {
                assert!(matches!(got, Err(MustError::Io(_))), "{what}: {got:?}");
            }
        }
    }

    #[test]
    fn v7_round_trips_the_quantized_engine() {
        let must = hnsw_quantized(150);
        let mut loaded =
            via_file("bundle-v7.mustb", |p| save_quantized(&must, p), |p| load(p).unwrap());
        assert_eq!(loaded.objects().len(), 150);
        assert_eq!(loaded.weights(), must.weights());
        assert_eq!(
            loaded.objects().fused().seg_norms(),
            must.objects().fused().seg_norms(),
            "v7 adopts the persisted norms verbatim"
        );
        // Codes and parameters: `PartialEq` is over the blocks.
        assert_eq!(loaded.quant(), must.quant());
        assert_identical_searches(&must, &loaded, &[3, 77, 149]);
        // Dynamic insertion after a load keeps the engines in lockstep.
        assert_eq!(loaded.insert_object(&new_object(1, 0)).unwrap(), 150);
        assert_eq!(loaded.quant().unwrap().len(), 151);
    }

    #[test]
    fn v7_bundle_with_a_shrunk_radius_is_refused() {
        // The scan's prune guarantee rests on every stored `eps`, and a v7
        // bundle has no checksum: one radius overwritten by 0.0 must fail
        // the load, not serve unsound prunes.
        let must = hnsw_quantized(80);
        let good = via_file("bundle-v7-eps.mustb", |p| save_quantized(&must, p), |p| {
            std::fs::read(p).unwrap()
        });
        let p = must.quant().unwrap().seg_params(5, 1);
        let triple: Vec<u8> = [p.min, p.step, p.eps].iter().flat_map(|x| x.to_le_bytes()).collect();
        let at = good.windows(12).position(|w| w == &triple[..]).expect("the triple is in the file");
        let mut bad = good.clone();
        bad[at + 8..at + 12].copy_from_slice(&0.0f32.to_le_bytes());
        for got in load_bytes("bundle-v7-eps-bad.mustb", &bad) {
            let Err(MustError::Config(msg)) = got else { panic!("{got:?}") };
            assert!(msg.contains("row 5 modality 1"), "{msg}");
        }
        for got in load_bytes("bundle-v7-eps-good.mustb", &good) {
            assert!(got.is_ok(), "{got:?}");
        }
    }

    /// The name dates from when `||o_hat||^2` was derived in-memory
    /// state; what it pins is that every way of building the engine
    /// agrees.
    #[test]
    fn derived_code_norms_agree_across_every_construction_path() {
        // Quantizing the rows, loading a v7 bundle and appending to either
        // must all build the same engine — equal row blocks — and
        // bit-identical quantized serving.
        let mut fresh = hnsw_quantized(150);
        let mut loaded =
            via_file("bundle-v7-derived.mustb", |p| save_quantized(&fresh, p), |p| load(p).unwrap());
        assert_eq!(loaded.quant(), fresh.quant());

        for must in [&mut fresh, &mut loaded] {
            assert_eq!(must.insert_object(&new_object(1, 0)).unwrap(), 150);
        }
        assert_eq!(loaded.quant(), fresh.quant());
        assert_eq!(fresh.quant(), Some(&fresh.objects().fused().quantize()));

        let (fresh, loaded) = (MustServer::freeze(fresh), MustServer::freeze(loaded));
        let w = Weights::from_squared(vec![0.3, 0.7]).unwrap();
        for id in [0u32, 3, 77, 149, 150] {
            let q = self_query(fresh.objects(), id);
            let (a, b) = (fresh.search(&q, 5, 60).unwrap(), loaded.search(&q, 5, 60).unwrap());
            assert_eq!((a.results, a.stats), (b.results, b.stats), "query {id}");
            let a = fresh.search_weighted(&q, &w, 5, 60).unwrap();
            let b = loaded.search_weighted(&q, &w, 5, 60).unwrap();
            assert_eq!((a.results, a.stats), (b.results, b.stats), "weighted query {id}");
        }
    }

    /// Three inserts onto a 150-object instance.
    fn grow(must: &mut Must) {
        for (i, (hot0, hot1)) in [(1, 0), (5, 3), (7, 2)].into_iter().enumerate() {
            assert_eq!(must.insert_object(&new_object(hot0, hot1)).unwrap(), 150 + i as u32);
        }
    }

    #[test]
    fn refused_inserts_leave_no_trace() {
        use VectorError::NotNormalisable;
        let read = |p: &Path| std::fs::read(p).unwrap();
        let mut must = hnsw_quantized(150);
        let before = via_file("bundle-v7-refused-a.mustb", |p| save_quantized(&must, p), read);
        let [good0, good1] = new_object(1, 0);
        let with = |i: usize, x: f32| {
            let mut row = good0.clone();
            row[i] = x;
            row
        };
        let cardinality = |got| VectorError::CardinalityMismatch { expected: 2, got };
        let hostile: [(&str, Vec<Vec<f32>>, VectorError); 6] = [
            ("one modality", vec![good0.clone()], cardinality(1)),
            ("three modalities", vec![good0.clone(), good1.clone(), good1.clone()], cardinality(3)),
            (
                "short second row",
                vec![good0.clone(), good1[..3].to_vec()],
                VectorError::DimensionMismatch { expected: 4, got: 3 },
            ),
            ("NaN component", vec![with(2, f32::NAN), good1.clone()], NotNormalisable),
            ("infinite component", vec![with(2, f32::INFINITY), good1.clone()], NotNormalisable),
            // The first row validates; the refusal comes from the second.
            ("zero-norm row", vec![good0.clone(), vec![0.0; 4]], NotNormalisable),
        ];
        for (what, rows, want) in hostile {
            match must.insert_object(&rows) {
                Err(MustError::Vector(got)) => assert_eq!(got, want, "{what}"),
                other => panic!("{what}: {other:?}"),
            }
            let lens = (must.len(), must.quant().unwrap().len(), must.index().len());
            assert_eq!(lens, (150, 150, 150), "{what}");
            let after = via_file("bundle-v7-refused-b.mustb", |p| save_quantized(&must, p), read);
            assert!(after == before, "{what}: the refused insert changed the bundle");
        }

        // Valid inserts after the refusals land as if nothing had been
        // refused: the bundle of a from-scratch twin, byte for byte.
        grow(&mut must);
        let resaved = via_file("bundle-v7-refused-c.mustb", |p| save_quantized(&must, p), read);
        let mut scratch = build(150, Weights::new(vec![0.8, 0.4]).unwrap(), GraphRecipe::Hnsw);
        grow(&mut scratch);
        let twin = via_file("bundle-v7-refused-d.mustb", |p| save_quantized(&scratch, p), read);
        assert!(resaved == twin);
    }

    #[test]
    fn v7_resaved_after_inserts_matches_quantizing_the_grown_corpus() {
        // save_quantized -> load -> three inserts -> save_quantized must
        // write byte for byte what quantizing the grown corpus from scratch
        // writes: appended rows encode exactly like bulk-quantized ones.
        let read = |p: &Path| std::fs::read(p).unwrap();
        let mut loaded = via_file(
            "bundle-v7-resave-a.mustb",
            |p| save_quantized(&hnsw_quantized(150), p),
            |p| load(p).unwrap(),
        );
        grow(&mut loaded);
        assert_eq!(loaded.quant().unwrap().len(), 153);
        let resaved = via_file("bundle-v7-resave-b.mustb", |p| save_quantized(&loaded, p), read);

        // Never quantized in memory: `save_quantized` quantizes all 153
        // rows on the fly.
        let mut scratch = build(150, Weights::new(vec![0.8, 0.4]).unwrap(), GraphRecipe::Hnsw);
        grow(&mut scratch);
        assert!(scratch.quant().is_none());
        let from_scratch = via_file("bundle-v7-resave-c.mustb", |p| save_quantized(&scratch, p), read);
        assert_eq!(resaved, from_scratch);
    }

    #[test]
    fn v7_loaded_then_grown_matches_a_never_persisted_twin() {
        // A load restores every neighbour list with its occlusion split
        // unknown, so each list's first re-prune runs the full pass where
        // the never-saved twin reuses the split its build recorded.  After
        // 500 inserts (every fifth a copy of a stored row, so similarities
        // tie) both must hold the same graph and write the same bundle.
        let read = |p: &Path| std::fs::read(p).unwrap();
        let mut twin = hnsw_quantized(150);
        let mut loaded = via_file("bundle-v7-twin-a.mustb", |p| save_quantized(&twin, p), |p| load(p).unwrap());
        let mut rng = StdRng::seed_from_u64(0x7317);
        for i in 0..500u32 {
            let object = if i % 5 == 4 {
                let id = rng.random_range(0..twin.len() as u32);
                [0, 1].map(|k| twin.objects().modality(k).get(id).to_vec())
            } else {
                [8, 4].map(|dim| (0..dim).map(|_| rng.random::<f32>() - 0.5).collect())
            };
            assert_eq!(loaded.insert_object(&object).unwrap(), twin.insert_object(&object).unwrap());
        }
        let flat = |must: &Must| match must.index() {
            MustIndex::Hnsw(h) => h.to_flat(),
            MustIndex::Csr(_) => panic!("an HNSW instance"),
        };
        assert!(flat(&loaded) == flat(&twin), "the loaded instance grew another graph");
        let resaved = via_file("bundle-v7-twin-b.mustb", |p| save_quantized(&loaded, p), read);
        let never_saved = via_file("bundle-v7-twin-c.mustb", |p| save_quantized(&twin, p), read);
        assert!(resaved == never_saved);
    }

    #[test]
    fn index_block_length_follows_from_its_shape() {
        for recipe in [GraphRecipe::Fused, GraphRecipe::Hnsw] {
            let must = build(70, Weights::uniform(2), recipe);
            let block = IndexBlock::of(&must);
            let mut bytes = Vec::new();
            block.write(&mut bytes).unwrap();
            assert_eq!(block.byte_len(), bytes.len() as u64, "{recipe:?}");
        }
    }

    #[test]
    fn v7_bundle_bytes_match_the_committed_golden_hash() {
        // Every writer, not only v7 (the name predates the v5 / v6 rows):
        // FNV-1a (64-bit) of each bundle of a fixed-seed 64-object corpus.
        // The v7 hash was taken on the commit before `||o_hat||^2` became
        // derived state, the v5 / v6 hashes on 56b65b4, the last commit
        // whose flat indexes were adjacency lists.  Format drift — a
        // derived column leaking into the file, a changed encoder, a
        // reordered section — fails here instead of in the repo
        // benchmark's `inputs_fingerprint`.
        let weights = || Weights::new(vec![0.8, 0.4]).unwrap();
        let flat = build(64, weights(), GraphRecipe::Fused);
        let hnsw = hnsw_quantized(64);
        let sharded = build_sharded(64, weights(), ShardSpec::clustered(2));
        type Writer<'a> = &'a dyn Fn(&Path) -> Result<(), MustError>;
        let cases: [(&str, Writer<'_>, (usize, u64)); 4] = [
            ("v5 flat", &|p| save(&flat, p), (6_662, 0x721B_7A2C_7ACF_9CE5)),
            ("v5 HNSW", &|p| save(&hnsw, p), (12_962, 0xF831_2DAD_3D4B_6077)),
            ("v6 clustered S=2", &|p| save_sharded(&sharded, p), (6_261, 0xD39B_BFE2_AEFC_654D)),
            ("v7 HNSW", &|p| save_quantized(&hnsw, p), (15_646, 0x41D2_D82C_9B4F_5ABC)),
        ];
        for (what, write, want) in cases {
            let bytes = via_file("bundle-golden.mustb", write, |p| std::fs::read(p).unwrap());
            let hash = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
            });
            assert_eq!((bytes.len(), hash), want, "{what} bundle bytes drifted: {hash:#018X}");
        }
    }

    #[test]
    fn v7_saves_without_a_pre_attached_engine() {
        // `save_quantized` quantizes on the fly when the instance never
        // called `quantize()`; the bundle is byte-identical either way.
        let mut must = build(60, Weights::uniform(2), GraphRecipe::Fused);
        let read = |p: &Path| (std::fs::read(p).unwrap(), load(p).unwrap());
        let (on_the_fly, loaded) = via_file("bundle-v7-fly.mustb", |p| save_quantized(&must, p), read);
        assert!(loaded.quant().is_some());
        must.quantize();
        let (attached, _) = via_file("bundle-v7-pre.mustb", |p| save_quantized(&must, p), read);
        assert_eq!(on_the_fly, attached);
    }

    #[test]
    fn v7_loads_as_one_shard_through_the_sharded_loader() {
        let must = build(50, Weights::uniform(2), GraphRecipe::Fused);
        let sharded = via_file(
            "bundle-v7-sharded-compat.mustb",
            |p| save_quantized(&must, p),
            |p| load_sharded(p).unwrap(),
        );
        assert_eq!(sharded.num_shards(), 1);
        assert_eq!(sharded.len(), 50);
        assert!(sharded.shard(0).quant().is_some(), "the shard keeps its SQ8 engine");
    }

    #[test]
    fn tombstoned_instances_refuse_to_persist() {
        let mut must = build(80, Weights::uniform(2), GraphRecipe::Fused);
        assert!(must.mark_deleted(42).unwrap());
        let path = tmp("tombstone.mustb");
        assert!(matches!(save(&must, &path), Err(MustError::Config(_))));
        assert!(matches!(save_quantized(&must, &path), Err(MustError::Config(_))));
        assert!(!path.exists(), "rejected saves must not leave files behind");
        // Restoring the tombstone makes the instance persistable again.
        assert!(must.restore(42).unwrap());
        let loaded = via_file("tombstone.mustb", |p| save(&must, p), |p| load(p).unwrap());
        assert_eq!(loaded.deleted_count(), 0);
    }

    #[test]
    fn future_version_is_a_config_error() {
        // A version this build does not read — from the future, or one of
        // the retired v1–v4 — is refused by both loaders before anything
        // after the version word is looked at: the all-ones tail would
        // have been a shard count, a modality count or a length prefix.
        for version in [99u32, 2, 3, 4] {
            let bytes = [preamble(version), vec![0xFF; 64]].concat();
            for got in load_bytes("refused-version.mustb", &bytes) {
                let Err(MustError::Config(msg)) = got else { panic!("v{version}: {got:?}") };
                assert!(["v5", "v6", "v7"].iter().all(|v| msg.contains(v)), "v{version}: {msg}");
            }
        }
        // So is a file that is not a bundle at all: v1 was JSON, and a
        // file may end before its version word.
        let v1_json = br#"{"version":1,"objects":{"modalities":[]},"prune":true}"#;
        for bytes in [&v1_json[..], &b"MUS"[..]] {
            for got in load_bytes("refused-file.mustb", bytes) {
                let Err(MustError::Io(msg)) = got else { panic!("{bytes:?}: {got:?}") };
                assert!(["v5", "v6", "v7"].iter().all(|v| msg.contains(v)), "{msg}");
            }
        }
    }

    // -----------------------------------------------------------------
    // Bundle v6 (sharded).

    #[test]
    fn sharded_bundle_v6_round_trips_every_backend() {
        let set = corpus(120);
        for recipe in GraphRecipe::all() {
            let sharded = ShardedMust::build(
                set.clone(),
                Weights::new(vec![0.8, 0.4]).unwrap(),
                MustBuildOptions { gamma: 8, recipe, ..Default::default() },
                ShardSpec::clustered(3),
            )
            .unwrap();
            let loaded = via_file(
                &format!("bundle-v6-{}.mustb", recipe.label()),
                |p| save_sharded(&sharded, p),
                |p| load_sharded(p).unwrap(),
            );
            assert_eq!(loaded.num_shards(), 3, "{}", recipe.label());
            assert_eq!(loaded.len(), 120, "{}", recipe.label());
            for s in 0..3 {
                assert_eq!(loaded.global_ids(s), sharded.global_ids(s), "{}", recipe.label());
                // v6 carries the summaries verbatim.
                assert_eq!(loaded.summary(s), sharded.summary(s), "{}", recipe.label());
            }
            let direct = ShardedServer::freeze(sharded);
            let thawed = ShardedServer::freeze(loaded);
            for id in [2u32, 61, 119] {
                let q = self_query(&set, id);
                let (a, b) = (direct.search(&q, 5, 60).unwrap(), thawed.search(&q, 5, 60).unwrap());
                assert_eq!((a.results, a.stats), (b.results, b.stats), "query {id}");
            }
        }
    }

    #[test]
    fn single_shard_formats_load_as_one_shard() {
        // Both single-shard formats must come up as a 1-shard deployment
        // with the identity id map.
        let must = build(90, Weights::new(vec![0.6, 0.9]).unwrap(), GraphRecipe::Fused);
        type Writer<'a> = &'a dyn Fn(&Path) -> Result<(), MustError>;
        let writers: [(&str, Writer<'_>); 2] =
            [("v5", &|p| save(&must, p)), ("v7", &|p| save_quantized(&must, p))];
        for (what, write) in writers {
            let sharded = via_file("sharded-compat.mustb", write, |p| load_sharded(p).unwrap());
            assert_eq!(sharded.num_shards(), 1, "{what}");
            assert_eq!(sharded.len(), 90, "{what}");
            let want: Vec<u32> = (0..90).collect();
            assert_eq!(sharded.global_ids(0), &want[..], "{what}");
            // Single-shard bundles carry no summaries: the loader derives
            // one from the rows, identical to computing it directly.
            let derived = ShardSummary::compute(sharded.shard(0).objects().fused());
            assert_eq!(sharded.summary(0), &derived, "{what}");
        }
    }

    #[test]
    fn v6_reload_preserves_dynamic_insertion_and_grown_radii() {
        let mut sharded = ShardedMust::build(
            corpus(80),
            Weights::uniform(2),
            MustBuildOptions { recipe: GraphRecipe::Hnsw, ..Default::default() },
            ShardSpec::clustered(2),
        )
        .unwrap();
        // Insert *before* saving: the target shard's radii grow around the
        // fixed centroid, and v6 must persist that growth verbatim (a
        // re-derivation on load would recentre and shrink it).
        sharded.insert_object(&[vec![1.0; 8], vec![1.0; 4]]).unwrap();
        let mut loaded = via_file(
            "bundle-v6-hnsw-insert.mustb",
            |p| save_sharded(&sharded, p),
            |p| load_sharded(p).unwrap(),
        );
        for s in 0..2 {
            assert_eq!(loaded.summary(s), sharded.summary(s), "shard {s}");
        }
        let id = loaded
            .insert_object(&[vec![1.0; 8], vec![1.0; 4]])
            .expect("reloaded HNSW shards stay dynamic");
        assert_eq!(id, 81, "global ids keep growing densely after reload");
        assert_eq!(loaded.len(), 82);
    }

    #[test]
    fn single_shard_loader_rejects_sharded_bundles_with_a_pointer() {
        let sharded = build_sharded(40, Weights::uniform(2), ShardSpec::clustered(2));
        let got = via_file("bundle-v6-reject.mustb", |p| save_sharded(&sharded, p), load);
        let Err(err) = got else { panic!("load() must reject v6") };
        assert!(err.to_string().contains("load_sharded"), "{err}");
    }

    /// The name dates from the v4 manifest; v6 kept its layout and added
    /// the summary section, so the same corruptions apply.
    #[test]
    fn corrupt_v4_manifests_error_cleanly() {
        let sharded = build_sharded(30, Weights::uniform(2), ShardSpec::clustered(2));
        let good = via_file("v6-good.mustb", |p| save_sharded(&sharded, p), |p| std::fs::read(p).unwrap());
        // The summary section starts after magic + version + count(4) +
        // tag(1) + two length-prefixed id maps; each summary is two
        // length-prefixed f32 arrays, and the offset table follows.
        let summaries_at =
            PREAMBLE + 4 + 1 + (0..2).map(|i| 8 + 4 * sharded.global_ids(i).len()).sum::<usize>();
        let summary_bytes =
            |s: &ShardSummary| 8 + 4 * s.centroid().len() + 8 + 4 * s.radii().len();
        let offsets_at = summaries_at + (0..2).map(|i| summary_bytes(sharded.summary(i))).sum::<usize>();
        let patched = |at: usize, with: &[u8]| {
            let mut bytes = good.clone();
            bytes[at..at + with.len()].copy_from_slice(with);
            bytes
        };
        let manifest = |tail: &[u8]| [&preamble(BUNDLE_V6_VERSION)[..], tail].concat();
        let cases: [(&str, Vec<u8>, &str); 4] = [
            ("one shard, assignment tag 9", manifest(&[1, 0, 0, 0, 9]), "assignment"),
            ("zero shards", manifest(&[0; 4]), "shard count"),
            // A manifest whose payload offset lies must be rejected before
            // any payload parse.
            ("lying offset", patched(offsets_at, &[good[offsets_at] ^ 0xFF]), "payload"),
            // A NaN in a summary must be rejected by the summary
            // validator, not crash the router later (the first centroid
            // follows its own u64 length prefix).
            ("NaN centroid", patched(summaries_at + 8, &f32::NAN.to_le_bytes()), "summary"),
        ];
        for (what, bytes, names) in cases {
            let [_, got] = load_bytes("v6-corrupt.mustb", &bytes);
            let Err(MustError::Config(msg)) = got else { panic!("{what}: {got:?}") };
            assert!(msg.contains(names), "{what}: {msg}");
        }
        // Tags 0 (round-robin) and 1 (hash), written by older builds, load
        // and are ignored: the tag byte follows the shard count.
        assert_eq!(good[PREAMBLE + 4], V6_CLUSTERED_TAG);
        for tag in [0u8, 1] {
            let bytes = patched(PREAMBLE + 4, &[tag]);
            let write = |p: &Path| std::fs::write(p, &bytes).map_err(io("write fixture"));
            let loaded = via_file("v6-old-tag.mustb", write, load_sharded)
                .unwrap_or_else(|e| panic!("tag {tag}: {e}"));
            assert_eq!(loaded.global_ids(1), sharded.global_ids(1), "tag {tag}");
        }
    }
}
