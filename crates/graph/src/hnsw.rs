//! HNSW (Malkov & Yashunin, TPAMI 2020): the layered small-world graph used
//! as one of the pluggable backends in the paper's Fig. 10 ablation.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::par;
use crate::pool::answer_order;
use crate::search::{expand, NodeScorer, SearchParams, SearchResult, SearchScratch, SearchStats};
use crate::select::unoccluded;
use crate::{QueryScorer, SimilarityOracle};

/// Maximum wave length for the wave-scheduled build: bounds transient
/// candidate memory and keeps the frozen prefix a large fraction of the
/// graph each node searches against (at the cap, a wave is at most a third
/// of the committed prefix).
const WAVE_MAX: usize = 65_536;

/// HNSW construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct HnswParams {
    /// Max neighbours per vertex on layers > 0 (`M`); layer 0 allows `2M`.
    pub m: usize,
    /// Construction beam width (`efConstruction`).
    pub ef_construction: usize,
    /// RNG seed for level assignment.
    pub rng_seed: u64,
}

impl Default for HnswParams {
    fn default() -> Self {
        Self { m: 16, ef_construction: 100, rng_seed: 0x45F }
    }
}

/// Largest accepted `M`: keeps the slab strides far from overflow, and a
/// list's length (at most `2M`) inside the low half of its length word.
const MAX_M: usize = 4096;

/// A list's length word is `[len | kept << 16]` (DESIGN.md §13): its
/// length, and its occlusion split — how many leading entries the
/// occlusion rule kept the last time the list was selected in answer
/// order.  `SPLIT_UNKNOWN` in the high half means no such record.
const LEN_MASK: u32 = 0xFFFF;
const SPLIT_UNKNOWN: u32 = 0xFFFF;

/// [`Hnsw::from_flat`] refuses a header `M` that sizes the slabs beyond
/// `SLAB_WORDS_UNCHECKED` words (64 MiB) *and* `MAX_SLAB_SLACK` times the
/// words its lists fill: `keepPrunedConnections` keeps built graphs far
/// denser, so only a corrupt header asks for that much more than it brought.
const SLAB_WORDS_UNCHECKED: usize = 1 << 24;
const MAX_SLAB_SLACK: usize = 64;

/// A built HNSW index.
///
/// The graph lives in two append-only fixed-stride slabs that build, insert
/// and search all run on (DESIGN.md, "Graph storage and the hop loop"): a
/// node's level is known when it is pushed, so neither slab ever moves a
/// list, and a list is re-pruned in place.
#[derive(Debug, Clone)]
pub struct Hnsw {
    /// Layer-0 slab, stride `2M + 1`: `[len | kept << 16, nb_0 .. nb_{2M-1}]`
    /// per node — the list of `v` is one address computation and one miss
    /// away.
    base: Vec<u32>,
    /// Upper-layer slab, stride `M + 1`: one `[len | kept << 16, nb_0 ..
    /// nb_{M-1}]` block per `(node, layer >= 1)`, a node's blocks contiguous
    /// with layer 1 first.
    upper: Vec<u32>,
    /// `upper_at[v]..upper_at[v + 1]` are node `v`'s blocks in `upper`
    /// (`n + 1` entries); their count is the node's top layer.
    upper_at: Vec<u32>,
    entry: u32,
    max_level: usize,
    params: HnswParams,
}

/// The layered graph flattened into length-prefixed arrays — the form a
/// persistence layer serialises (the index block of bundles v5, v6 and
/// v7) and a deployment reloads without rebuilding.
///
/// Lists are laid out node-major, layer-minor: node 0's layers
/// `0..=levels[0]`, then node 1's, and so on.  `offsets` is a CSR index
/// over that list sequence (`offsets.len() == total_lists + 1`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HnswFlat {
    /// Top layer each node participates in (`levels.len() == n`).
    pub levels: Vec<u32>,
    /// CSR offsets over the flattened `(node, layer)` neighbour lists.
    pub offsets: Vec<u32>,
    /// Concatenated neighbour lists.
    pub edges: Vec<u32>,
    /// Entry vertex at the top layer.
    pub entry: u32,
    /// Top layer of the hierarchy.
    pub max_level: u32,
    /// Construction parameter `M` (needed so dynamic insertion keeps
    /// working after a reload).
    pub m: u32,
    /// Construction beam width `efConstruction`.
    pub ef_construction: u32,
    /// Level-assignment RNG seed.
    pub rng_seed: u64,
}

/// A deferred back-edge batch for one `(node, layer)` whose list would
/// overflow its cap: re-pruned read-only in the parallel phase, applied
/// serially after it.
struct BackGroup {
    nb: u32,
    layer: u32,
    adds: Vec<u32>,
}

/// A neighbour list and its occlusion split: the first `.1` entries are
/// the ones the occlusion rule kept, the rest `keepPrunedConnections` fills.
type Selected = (Vec<u32>, usize);

/// Where a selection candidate stands against its list's last occlusion
/// split: which pairs [`heuristic_select`] must score to decide it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Origin {
    /// No record: tested against everything kept so far.
    New,
    /// Kept by the last pass: tested only against members kept now that
    /// were not kept then.
    Kept,
    /// A fill of the last pass: occluded, unscored, until some `Kept`
    /// member loses its place; then tested as `New`.
    Fill,
}

/// Draws one node's level from `rng` (exponential with mean `1 / ln M`).
fn draw_level(rng: &mut StdRng, m: usize) -> usize {
    let ml = 1.0 / (m as f64).ln().max(f64::MIN_POSITIVE);
    let u: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
    ((-u.ln() * ml).floor() as usize).min(24)
}

/// Draws the level of every node from one seeded RNG stream — shared by
/// both build paths so level assignment is identical by construction.
fn assign_levels(n: usize, params: &HnswParams) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(params.rng_seed);
    (0..n).map(|_| draw_level(&mut rng, params.m)).collect()
}

impl Hnsw {
    /// Builds the index with the wave-scheduled parallel algorithm on the
    /// default worker budget ([`par::build_threads`]).
    ///
    /// The output is a pure function of `(oracle, params)` — the wave
    /// schedule is derived from node ids alone, so the graph is
    /// byte-identical for every thread count (see [`Self::build_with_threads`]).
    pub fn build<O: SimilarityOracle>(oracle: &O, params: HnswParams) -> Self {
        Self::build_with_threads(oracle, params, par::build_threads())
    }

    /// Builds the index with `threads` workers using the wave schedule.
    ///
    /// Nodes are partitioned into geometrically growing waves by node id
    /// (`len = clamp(start/3, 1, 65536)` — thread-count independent, so a
    /// wave is never more than a third of its frozen prefix).
    /// Every node in a wave runs its greedy descent + per-layer beam
    /// search + neighbour selection concurrently against the **frozen**
    /// graph of all earlier waves; the resulting edges are then committed
    /// serially in ascending node id with the same selection and pruning
    /// rules the sequential path used.  Back-edge lists that overflow
    /// their cap are re-pruned in a second parallel phase (read-only,
    /// per-list) and applied serially.  Each parallel phase is one
    /// [`par::par_map_with`] call over `&self` and each serial one runs on
    /// `&mut self` between them, so no phase ever reads state another
    /// concurrent task writes and the build takes no lock: the result is
    /// byte-identical across thread counts, including `threads == 1`.
    pub fn build_with_threads<O: SimilarityOracle>(
        oracle: &O,
        params: HnswParams,
        threads: usize,
    ) -> Self {
        let n = oracle.len();
        assert!(n > 0, "cannot index an empty object set");
        let mut index = Self::with_levels(&assign_levels(n, &params), params);
        let mut start = 1usize;
        while start < n {
            let len = (start / 3).clamp(1, WAVE_MAX).min(n - start);
            // (A) every node of the wave against the frozen prefix; each
            // worker keeps one search scratch for the phase.
            let selected = par::par_map_with(len, threads, SearchScratch::default, |scratch, item| {
                index.candidates(oracle, (start + item) as u32, scratch)
            });
            // (B) serial commit in ascending node id.
            let pending = index.commit(start as u32, selected);
            // (C) re-prune every overflowing list read-only, (D) apply.
            let pruned = par::par_map_with(pending.len(), threads, SearchScratch::default, |scratch, g| {
                index.reprune(oracle, &pending[g], scratch)
            });
            for (g, (list, split)) in pending.iter().zip(pruned) {
                index.set_neighbors(g.nb, g.layer as usize, &list, Some(split));
            }
            start += len;
        }
        index
    }

    /// Dynamically inserts a new vertex (Section IX of the paper: HNSW
    /// "adeptly handles dynamic updates by incrementally inserting data
    /// points").  `node` must equal the current `len()` — the oracle must
    /// already know the new point.  The caller provides the search
    /// scratch, so a stream of inserts allocates (and zeroes) the `O(n)`
    /// visited stamps once instead of per node.
    pub fn insert_new<O: SimilarityOracle>(
        &mut self,
        oracle: &O,
        node: u32,
        level_seed: u64,
        scratch: &mut SearchScratch,
    ) {
        assert_eq!(node as usize, self.len(), "insert ids must be dense");
        assert!(oracle.len() > node as usize, "oracle must cover the new point");
        let mut rng = StdRng::seed_from_u64(level_seed ^ node as u64);
        let level = draw_level(&mut rng, self.params.m);
        self.push_node(level);
        self.insert(oracle, node, scratch);
    }

    /// Number of indexed objects.
    #[must_use]
    pub fn len(&self) -> usize {
        self.upper_at.len() - 1
    }

    /// Whether the index holds no objects.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The slabs' real heap footprint in bytes: every node pays its full
    /// layer-0 stride (`2M + 1` words) and `M + 1` words per upper layer
    /// whether or not the lists are full, plus one offset word.
    #[must_use]
    pub fn bytes(&self) -> usize {
        (self.base.len() + self.upper.len() + self.upper_at.len()) * std::mem::size_of::<u32>()
    }

    /// Entry vertex at the top layer.
    #[must_use]
    pub fn entry(&self) -> u32 {
        self.entry
    }

    /// Top layer of the hierarchy.
    #[must_use]
    pub fn max_level(&self) -> usize {
        self.max_level
    }

    /// Neighbour list of `node` on `layer` (empty above the node's top
    /// layer), in the order construction produced it.
    #[inline]
    #[must_use]
    pub fn neighbors(&self, node: u32, layer: usize) -> &[u32] {
        let slab = if layer == 0 { &self.base } else { &self.upper };
        self.block(node, layer)
            .map_or(&[], |at| &slab[at.start + 1..=at.start + (slab[at.start] & LEN_MASK) as usize])
    }

    /// Flattens the layered adjacency into [`HnswFlat`] for persistence.
    pub fn to_flat(&self) -> HnswFlat {
        let levels: Vec<u32> = self.upper_at.windows(2).map(|w| w[1] - w[0]).collect();
        let mut offsets = vec![0u32];
        let mut edges = Vec::new();
        for (node, &level) in levels.iter().enumerate() {
            for layer in 0..=level as usize {
                edges.extend_from_slice(self.neighbors(node as u32, layer));
                offsets.push(edges.len() as u32);
            }
        }
        HnswFlat {
            levels,
            offsets,
            edges,
            entry: self.entry,
            max_level: self.max_level as u32,
            m: self.params.m as u32,
            ef_construction: self.params.ef_construction as u32,
            rng_seed: self.params.rng_seed,
        }
    }

    /// Rebuilds the layered index from its flattened form, validating
    /// structural consistency (offsets monotone, entry on the top layer,
    /// every list within its layer's degree cap and naming only nodes that
    /// reach its layer) before anything is written into a slab.
    ///
    /// # Errors
    /// A human-readable description of the first inconsistency found.
    pub fn from_flat(flat: &HnswFlat) -> Result<Self, String> {
        let n = flat.levels.len();
        if n == 0 {
            return Err("empty HNSW snapshot".into());
        }
        let total_lists: usize = flat.levels.iter().map(|&l| l as usize + 1).sum();
        if flat.offsets.len() != total_lists + 1 {
            return Err(format!(
                "offset table has {} entries, expected {}",
                flat.offsets.len(),
                total_lists + 1
            ));
        }
        if flat.offsets[0] != 0 || *flat.offsets.last().expect("non-empty") as usize != flat.edges.len()
        {
            return Err("offset table does not span the edge array".into());
        }
        if flat.offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err("offset table is not monotone".into());
        }
        if flat.levels.get(flat.entry as usize).is_none_or(|&l| l < flat.max_level) {
            return Err("entry vertex out of range or below the top layer".into());
        }
        if flat.m == 0 || flat.m as usize > MAX_M {
            return Err(format!("M must be in 1..={MAX_M}, got {}", flat.m));
        }
        if u32::try_from(total_lists - n).is_err() {
            return Err("too many upper-layer lists".into());
        }
        let params = HnswParams {
            m: flat.m as usize,
            ef_construction: flat.ef_construction as usize,
            rng_seed: flat.rng_seed,
        };
        let cap = |layer: usize| if layer == 0 { params.m * 2 } else { params.m };
        let levels: Vec<usize> = flat.levels.iter().map(|&l| l as usize).collect();
        let layers = levels.iter().enumerate().flat_map(|(node, &level)| (0..=level).map(move |l| (node, l)));
        for ((node, layer), w) in layers.clone().zip(flat.offsets.windows(2)) {
            let list = &flat.edges[w[0] as usize..w[1] as usize];
            if list.len() > cap(layer) {
                return Err(format!("node {node} layer {layer} holds {} neighbours, cap {}", list.len(), cap(layer)));
            }
            // A layer-`layer` list names only nodes on that layer: a later
            // insert back-links through it into the target's own list there.
            for &e in list {
                match levels.get(e as usize) {
                    None => return Err(format!("node {node} layer {layer}: edge target {e} out of range")),
                    Some(&top) if top < layer => {
                        return Err(format!("node {node} layer {layer} names node {e}, whose top layer is {top}"))
                    }
                    Some(_) => {}
                }
            }
        }
        // The slabs are sized from `M` alone, so a header must not ask for
        // strides out of all proportion to the lists that came with it.
        let slab_words = n * (cap(0) + 1) + (total_lists - n) * (cap(1) + 1);
        if slab_words > SLAB_WORDS_UNCHECKED && slab_words / MAX_SLAB_SLACK > flat.edges.len() + total_lists {
            return Err(format!("M = {} sizes the slabs at {slab_words} words for {total_lists} lists", flat.m));
        }
        let mut index = Self::with_levels(&levels, params);
        for ((node, layer), w) in layers.zip(flat.offsets.windows(2)) {
            index.set_neighbors(node as u32, layer, &flat.edges[w[0] as usize..w[1] as usize], None);
        }
        index.entry = flat.entry;
        index.max_level = flat.max_level as usize;
        Ok(index)
    }

    /// An edgeless index over nodes with the given top layers, entry at
    /// node 0.
    fn with_levels(levels: &[usize], params: HnswParams) -> Self {
        assert!(params.m <= MAX_M, "M must be at most {MAX_M}");
        let max_level = levels.first().copied().unwrap_or(0);
        let mut index =
            Self { base: Vec::new(), upper: Vec::new(), upper_at: vec![0], entry: 0, max_level, params };
        index.base.reserve_exact(levels.len() * (index.cap(0) + 1));
        index.upper.reserve_exact(levels.iter().sum::<usize>() * (index.cap(1) + 1));
        levels.iter().for_each(|&level| index.push_node(level));
        index
    }

    /// Appends one edgeless node with top layer `level`; both slabs only
    /// ever grow at the end.
    fn push_node(&mut self, level: usize) {
        let blocks = *self.upper_at.last().expect("n + 1 entries") + level as u32;
        self.upper_at.push(blocks);
        self.base.resize(self.base.len() + self.cap(0) + 1, 0);
        self.upper.resize(blocks as usize * (self.cap(1) + 1), 0);
    }

    /// Top layer of `node`.
    fn level(&self, node: u32) -> usize {
        (self.upper_at[node as usize + 1] - self.upper_at[node as usize]) as usize
    }

    /// Degree cap of `layer`: `2M` on layer 0, `M` above.  A list's block
    /// is its length word plus this many slots — the slab stride.
    #[inline]
    fn cap(&self, layer: usize) -> usize {
        if layer == 0 { self.params.m * 2 } else { self.params.m }
    }

    /// Where block `(node, layer)` — `[len, nb_0 ..]`, one full stride —
    /// sits in its slab (`base` for layer 0, `upper` above); `None` above
    /// the node's top layer.
    #[inline]
    fn block(&self, node: u32, layer: usize) -> Option<std::ops::Range<usize>> {
        let index = if layer == 0 {
            node as usize
        } else {
            let index = self.upper_at[node as usize] as usize + layer - 1;
            if index >= self.upper_at[node as usize + 1] as usize {
                return None;
            }
            index
        };
        let stride = self.cap(layer) + 1;
        Some(index * stride..(index + 1) * stride)
    }

    fn block_mut(&mut self, node: u32, layer: usize) -> &mut [u32] {
        let at = self.block(node, layer).expect("layer within the node's levels");
        if layer == 0 { &mut self.base[at] } else { &mut self.upper[at] }
    }

    /// The occlusion split of list `(node, layer)`; `None` when unknown.
    /// A list never written is empty, and its split of 0 is exact.
    fn split(&self, node: u32, layer: usize) -> Option<usize> {
        let slab = if layer == 0 { &self.base } else { &self.upper };
        let at = self.block(node, layer).expect("layer within the node's levels");
        Some((slab[at.start] >> 16) as usize).filter(|&kept| kept != SPLIT_UNKNOWN as usize)
    }

    /// Overwrites list `(node, layer)` in place, with its occlusion split
    /// when the occlusion rule selected it in answer order.  The block is
    /// one stride long, so an over-long list panics instead of crossing
    /// into the next.
    fn set_neighbors(&mut self, node: u32, layer: usize, list: &[u32], split: Option<usize>) {
        let block = self.block_mut(node, layer);
        block[1..=list.len()].copy_from_slice(list);
        block[0] = list.len() as u32 | split.map_or(SPLIT_UNKNOWN, |kept| kept as u32) << 16;
    }

    /// Appends `adds` to list `(node, layer)` when the result fits its cap
    /// (its split becomes unknown: no pass ranked the appended entries);
    /// otherwise leaves the list untouched and returns `false`.
    fn try_extend(&mut self, node: u32, layer: usize, adds: &[u32]) -> bool {
        let block = self.block_mut(node, layer);
        let len = (block[0] & LEN_MASK) as usize;
        let Some(room) = block.get_mut(1 + len..1 + len + adds.len()) else { return false };
        room.copy_from_slice(adds);
        block[0] = (len + adds.len()) as u32 | SPLIT_UNKNOWN << 16;
        true
    }

    /// Phase B of a wave: commits the forward lists nodes `start..` selected
    /// in phase A in ascending node id, appends the back edges that fit, and
    /// returns the `(neighbour, layer)` groups whose lists would overflow —
    /// for the caller to re-prune (phase C) and apply (phase D).
    fn commit(&mut self, start: u32, selected: impl IntoIterator<Item = Vec<Vec<u32>>>) -> Vec<BackGroup> {
        let mut requests: Vec<(u32, u32, u32)> = Vec::new();
        for (node, lists) in (start..).zip(selected) {
            for (l, list) in lists.iter().enumerate() {
                requests.extend(list.iter().map(|&nb| (nb, l as u32, node)));
                self.set_neighbors(node, l, list, None);
            }
            let level = self.level(node);
            if level > self.max_level {
                (self.max_level, self.entry) = (level, node);
            }
        }
        requests.sort_unstable();
        let mut pending = Vec::new();
        for group in requests.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
            let (nb, layer, _) = group[0];
            let adds: Vec<u32> = group.iter().map(|r| r.2).collect();
            if !self.try_extend(nb, layer as usize, &adds) {
                pending.push(BackGroup { nb, layer, adds });
            }
        }
        pending
    }

    /// Phase C for one group: scores `current ∪ additions` as one batch
    /// (in that order — the transient over-cap entries live in `scratch`,
    /// never in the slab), sorts best first with ties by id, and re-runs
    /// the selection — scoring, under a known split, only the pairs whose
    /// verdict can differ from the pass that wrote the list (DESIGN §13).
    fn reprune<O: SimilarityOracle>(&self, oracle: &O, g: &BackGroup, scratch: &mut SearchScratch) -> Selected {
        let scored = self.rescore(oracle, g, scratch);
        heuristic_select(oracle, g.nb, scored.iter().copied(), self.cap(g.layer as usize))
    }

    /// `current ∪ additions` of one group scored against its owner, in
    /// answer order, each marked with where it stands against the list's
    /// split.
    fn rescore<O: SimilarityOracle>(
        &self,
        oracle: &O,
        g: &BackGroup,
        scratch: &mut SearchScratch,
    ) -> Vec<(u32, f32, Origin)> {
        let layer = g.layer as usize;
        let current = self.neighbors(g.nb, layer);
        let split = self.split(g.nb, layer);
        let SearchScratch { fresh: ids, scores, .. } = scratch;
        ids.clear();
        ids.extend_from_slice(current);
        ids.extend_from_slice(&g.adds);
        scores.resize(ids.len(), 0.0);
        oracle.sims(g.nb, ids, scores);
        let origin = |i: usize| match split {
            Some(kept) if i < kept => Origin::Kept,
            Some(_) if i < current.len() => Origin::Fill,
            _ => Origin::New,
        };
        let mut scored: Vec<(u32, f32, Origin)> =
            ids.iter().zip(scores.iter()).enumerate().map(|(i, (&id, &s))| (id, s, origin(i))).collect();
        scored.sort_unstable_by(|a, b| answer_order(&(a.0, a.1), &(b.0, b.1)));
        scored
    }

    /// Sequential insertion of `node` (already pushed): a wave of one.
    fn insert<O: SimilarityOracle>(&mut self, oracle: &O, node: u32, scratch: &mut SearchScratch) {
        let selected = self.candidates(oracle, node, scratch);
        for g in self.commit(node, [selected]) {
            let (list, split) = self.reprune(oracle, &g, scratch);
            self.set_neighbors(g.nb, g.layer as usize, &list, Some(split));
        }
    }

    /// ef=1 greedy walk from the entry vertex down through `layers` (top
    /// first); returns where it stopped and that vertex's score.
    fn descend<S: QueryScorer + ?Sized>(
        &self,
        scorer: &S,
        layers: impl Iterator<Item = usize>,
        stats: &mut SearchStats,
    ) -> (u32, f32) {
        let mut ep = self.entry;
        let mut ep_sim = scorer.score(ep);
        stats.evaluated += 1;
        for l in layers {
            loop {
                let from = ep;
                for &nb in self.neighbors(from, l) {
                    stats.evaluated += 1;
                    let s = scorer.score(nb);
                    if s > ep_sim {
                        (ep, ep_sim) = (nb, s);
                    }
                }
                stats.hops += 1;
                if ep == from {
                    break;
                }
            }
        }
        (ep, ep_sim)
    }

    /// Beam search of width `ef` on one layer from `(ep, ep_sim)`; the
    /// result is left in `scratch.pool`, best first.
    fn search_layer<S: QueryScorer + ?Sized>(
        &self,
        scorer: &S,
        (ep, ep_sim): (u32, f32),
        layer: usize,
        ef: usize,
        scratch: &mut SearchScratch,
        stats: &mut SearchStats,
    ) {
        scratch.pool.reset(ef, self.len());
        scratch.visited.reset(self.len());
        scratch.visited.mark(ep);
        scratch.pool.admit(ep, ep_sim, scorer.is_live(ep));
        expand(|v| self.neighbors(v, layer), scorer, scratch, stats);
    }

    /// The read-only half of one node's insertion: greedy descent from the
    /// entry through the layers above its own, then per-layer beam search +
    /// neighbour selection down to layer 0.  Returns the selected forward
    /// list per layer (`result[l]`, `l <= level(node).min(max_level)`); nothing in
    /// the graph is mutated, which is what lets a whole wave of nodes run
    /// this concurrently against the frozen prefix.
    fn candidates<O: SimilarityOracle>(
        &self,
        oracle: &O,
        node: u32,
        scratch: &mut SearchScratch,
    ) -> Vec<Vec<u32>> {
        // `sim(node, ·)` through the query seam: construction runs the
        // hop loop searches run, but its scorer never prunes, so each
        // hop's unseen neighbours are scored as one batch instead of
        // warmed and scored one at a time.
        let scorer = NodeScorer { oracle, node, scored: None };
        let mut stats = SearchStats::default();
        let level = self.level(node);
        let mut ep = self.descend(&scorer, (level + 1..=self.max_level).rev(), &mut stats);
        let top = level.min(self.max_level);
        let mut out = vec![Vec::new(); top + 1];
        for l in (0..=top).rev() {
            self.search_layer(&scorer, ep, l, self.params.ef_construction, scratch, &mut stats);
            let cands = scratch.pool.top_k(self.params.ef_construction);
            let new = cands.iter().map(|&(id, s)| (id, s, Origin::New));
            out[l] = heuristic_select(oracle, node, new, self.cap(l)).0;
            ep = cands[0];
        }
        out
    }

    /// Algorithm 2 for `scorer` with caller-provided scratch (visited
    /// stamps + result pool), so a query batch's steady state allocates
    /// nothing — the serving layer's per-worker entry point.
    pub fn search_with_scratch<S: QueryScorer + ?Sized>(
        &self,
        scorer: &S,
        params: SearchParams,
        scratch: &mut SearchScratch,
    ) -> SearchResult {
        let mut stats = SearchStats::default();
        // Descend to layer 1 greedily, then beam layer 0 with the caller's
        // pool size and pruning hook.
        let ep = self.descend(scorer, (1..=self.max_level).rev(), &mut stats);
        self.search_layer(scorer, ep, 0, params.l, scratch, &mut stats);
        SearchResult { results: scratch.pool.ranked(params.k), stats }
    }
}

/// HNSW's neighbour-selection heuristic — the same occlusion rule as MRNG,
/// expressed on scored candidates in answer order — returning the list and
/// how many of its leading entries the rule kept.
///
/// Each candidate's [`Origin`] says which pairs decide it; the verdicts are
/// those of testing every candidate against everything kept before it
/// (DESIGN §13 has the proof), which is what an all-`New` list does.
fn heuristic_select<O: SimilarityOracle>(
    oracle: &O,
    owner: u32,
    candidates: impl Iterator<Item = (u32, f32, Origin)> + Clone,
    cap: usize,
) -> Selected {
    let mut kept: Vec<u32> = Vec::with_capacity(cap);
    // Members kept now that the last pass did not keep (tracked only when
    // some candidate has a record), and whether a member it kept has lost
    // its place.
    let reuse = candidates.clone().any(|c| c.2 != Origin::New);
    let mut newcomers: Vec<u32> = Vec::new();
    let mut flipped = false;
    for (id, sim, origin) in candidates.clone() {
        if id == owner {
            continue;
        }
        if kept.len() >= cap {
            break;
        }
        let keep = match origin {
            Origin::Kept => {
                let keep = unoccluded(oracle, id, sim, &newcomers);
                flipped |= !keep;
                keep
            }
            Origin::Fill if !flipped => false,
            Origin::Fill | Origin::New => unoccluded(oracle, id, sim, &kept),
        };
        if keep {
            kept.push(id);
            if reuse && origin != Origin::Kept {
                newcomers.push(id);
            }
        }
    }
    let split = kept.len();
    // Fill up with closest skipped candidates if the heuristic was too
    // aggressive (standard keepPrunedConnections behaviour).
    if kept.len() < cap {
        for (id, ..) in candidates {
            if id == owner || kept.contains(&id) {
                continue;
            }
            kept.push(id);
            if kept.len() >= cap {
                break;
            }
        }
    }
    (kept, split)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::GridOracle;
    use crate::FnScorer;

    #[test]
    fn hnsw_finds_near_neighbors_on_grid() {
        let oracle = GridOracle::new(12);
        let index = Hnsw::build(&oracle, HnswParams { m: 8, ef_construction: 32, rng_seed: 3 });
        let mut hits = 0;
        let mut scratch = SearchScratch::default();
        let total = 28;
        for t in 0..total {
            let target = (t * 7) as u32 % oracle.len() as u32;
            let scorer = FnScorer(|id| oracle.sim(id, target));
            let res = index.search_with_scratch(&scorer, SearchParams::seed_only(1, 16), &mut scratch);
            if res.results[0].0 == target {
                hits += 1;
            }
        }
        assert!(hits as f64 / total as f64 > 0.9, "recall {hits}/{total}");
    }

    #[test]
    fn hierarchy_has_multiple_levels_for_large_n() {
        let oracle = GridOracle::new(20); // 400 points
        let index = Hnsw::build(&oracle, HnswParams { m: 6, ef_construction: 24, rng_seed: 1 });
        assert!(index.max_level() >= 1, "400 points should produce > 1 layer");
        assert_eq!(index.len(), 400);
        assert!(index.bytes() > 0);
    }

    #[test]
    fn degree_caps_hold_on_upper_layers() {
        let oracle = GridOracle::new(15);
        let m = 5;
        let index = Hnsw::build(&oracle, HnswParams { m, ef_construction: 24, rng_seed: 7 });
        for (node, &top) in index.to_flat().levels.iter().enumerate() {
            for level in 0..=top as usize {
                let nbrs = index.neighbors(node as u32, level);
                let cap = if level == 0 { m * 2 } else { m };
                assert!(nbrs.len() <= cap, "node {node} level {level}: {}", nbrs.len());
            }
            assert!(index.neighbors(node as u32, top as usize + 1).is_empty());
        }
    }

    #[test]
    fn flat_round_trip_preserves_structure_and_search() {
        let oracle = GridOracle::new(14);
        let index = Hnsw::build(&oracle, HnswParams { m: 6, ef_construction: 32, rng_seed: 9 });
        let flat = index.to_flat();
        assert_eq!(flat.levels.len(), index.len());
        let back = Hnsw::from_flat(&flat).unwrap();
        assert_eq!(back.to_flat(), flat);
        assert_eq!(back.entry(), index.entry());
        assert_eq!(back.max_level(), index.max_level());
        let mut scratch = SearchScratch::default();
        for target in [0u32, 41, 97, 195] {
            let scorer = FnScorer(|id| oracle.sim(id, target));
            let params = SearchParams::seed_only(3, 20);
            let a = index.search_with_scratch(&scorer, params, &mut scratch);
            let b = back.search_with_scratch(&scorer, params, &mut scratch);
            assert_eq!(a.results, b.results, "target {target}");
        }
    }

    #[test]
    fn from_flat_rejects_corrupt_snapshots() {
        let oracle = GridOracle::new(6);
        let index = Hnsw::build(&oracle, HnswParams { m: 4, ef_construction: 16, rng_seed: 2 });
        let good = index.to_flat();
        let mut bad = good.clone();
        bad.edges[0] = 10_000; // target out of range
        assert!(Hnsw::from_flat(&bad).is_err());
        let mut bad = good.clone();
        bad.offsets.pop();
        assert!(Hnsw::from_flat(&bad).is_err());
        let mut bad = good.clone();
        bad.entry = 9_999;
        assert!(Hnsw::from_flat(&bad).is_err());
        let mut bad = good.clone();
        bad.levels.push(0); // phantom node with no lists
        assert!(Hnsw::from_flat(&bad).is_err());
        // A level that disagrees with the offset table (one list too few).
        let mut bad = good.clone();
        bad.levels[0] += 1;
        assert!(Hnsw::from_flat(&bad).is_err());
        let mut bad = good;
        bad.m = 0;
        assert!(Hnsw::from_flat(&bad).is_err());
    }

    #[test]
    fn from_flat_rejects_lists_longer_than_their_stride() {
        // Three nodes, nodes 0 and 1 on layers 0..=1, M = 1: caps are 2
        // and 1.
        let flat = |layer0: &[u32], layer1: &[u32]| {
            let mut edges = layer0.to_vec();
            edges.extend_from_slice(layer1);
            let (a, b) = (layer0.len() as u32, edges.len() as u32);
            HnswFlat {
                levels: vec![1, 1, 0],
                offsets: vec![0, a, b, b, b, b],
                edges,
                entry: 0,
                max_level: 1,
                m: 1,
                ef_construction: 8,
                rng_seed: 0,
            }
        };
        let ok = Hnsw::from_flat(&flat(&[1, 2], &[1])).unwrap();
        assert_eq!(ok.neighbors(0, 0), &[1, 2]);
        assert_eq!(ok.neighbors(0, 1), &[1]);
        assert!(ok.neighbors(1, 0).is_empty() && ok.neighbors(1, 1).is_empty());
        let err = Hnsw::from_flat(&flat(&[1, 2, 1], &[1])).unwrap_err();
        assert!(err.contains("layer 0") && err.contains("cap 2"), "{err}");
        let err = Hnsw::from_flat(&flat(&[1, 2], &[1, 2])).unwrap_err();
        assert!(err.contains("layer 1") && err.contains("cap 1"), "{err}");
    }

    #[test]
    fn from_flat_rejects_a_list_naming_a_node_below_its_layer() {
        // Four nodes, M = 2; node 0 alone reaches layer 1.  Moving one
        // offset turns node 0's layer-0 tail into its layer-1 list `[1]`,
        // and node 1 has no layer-1 list to take the insert's back-link.
        let flat = |offsets: Vec<u32>| HnswFlat {
            levels: vec![1, 0, 0, 0],
            offsets,
            edges: vec![2, 3, 1, 0, 0, 0],
            entry: 0,
            max_level: 1,
            m: 2,
            ef_construction: 8,
            rng_seed: 0,
        };
        let ok = Hnsw::from_flat(&flat(vec![0, 3, 3, 4, 5, 6])).unwrap();
        assert!(ok.neighbors(0, 1).is_empty());
        let err = Hnsw::from_flat(&flat(vec![0, 2, 3, 4, 5, 6])).unwrap_err();
        assert!(err.contains("layer 1 names node 1"), "{err}");
    }

    #[test]
    fn from_flat_rejects_a_header_m_out_of_proportion_to_its_lists() {
        // One neighbour per node: honest under M = 4, a ~1 GiB slab request
        // under M = 4096 — refused before anything is allocated.
        let n = 32_768u32;
        let mut flat = HnswFlat {
            levels: vec![0; n as usize],
            offsets: (0..=n).collect(),
            edges: (0..n).map(|v| (v + 1) % n).collect(),
            entry: 0,
            max_level: 0,
            m: 4,
            ef_construction: 8,
            rng_seed: 0,
        };
        assert_eq!(Hnsw::from_flat(&flat).unwrap().neighbors(7, 0), &[8]);
        flat.m = MAX_M as u32;
        let err = Hnsw::from_flat(&flat).unwrap_err();
        assert!(err.contains("M = 4096"), "{err}");
        // The same header over a handful of nodes is small in absolute terms
        // and loads: a tiny corpus under a large M is legitimate.
        flat.levels.truncate(4);
        flat.offsets.truncate(5);
        flat.edges = vec![1, 2, 3, 0];
        assert_eq!(Hnsw::from_flat(&flat).unwrap().neighbors(3, 0), &[0]);
    }

    /// FNV-1a of a snapshot: header words, then levels, offsets and edges.
    fn flat_hash(flat: &HnswFlat) -> u64 {
        let head = [
            u64::from(flat.entry),
            u64::from(flat.max_level),
            u64::from(flat.m),
            u64::from(flat.ef_construction),
            flat.rng_seed,
            flat.levels.len() as u64,
            flat.offsets.len() as u64,
            flat.edges.len() as u64,
        ];
        let body = flat.levels.iter().chain(&flat.offsets).chain(&flat.edges).map(|&x| u64::from(x));
        crate::testutil::fnv1a(head.into_iter().chain(body))
    }

    #[test]
    fn build_and_insert_reproduce_the_nested_vec_layout() {
        // (rng_seed, built, grown): hashes taken on the last commit that
        // stored the graph as nested `Vec`s (7c10633), so the slab build
        // and insert are pinned to that representation's output rather
        // than to themselves.  The integer grid is tie-heavy on purpose.
        const GOLDEN: [(u64, u64, u64); 3] = [
            (0x3, 0x03b3_f048_f858_ff86, 0x5351_8c6d_571a_872b),
            (0x9, 0xf8e3_3a48_1d17_e245, 0xe0a0_55c8_ff40_4598),
            (0x45F, 0x15cf_f028_e027_10e6, 0x9bbf_d3fa_63e4_4ffb),
        ];
        let full = GridOracle::new(24);
        let n0 = full.len() - 64;
        let prefix = GridOracle { pts: full.pts[..n0].to_vec() };
        for (rng_seed, built, grown) in GOLDEN {
            let params = HnswParams { m: 6, ef_construction: 40, rng_seed };
            for t in [1usize, 2, 4] {
                let mut index = Hnsw::build_with_threads(&prefix, params, t);
                assert_eq!(flat_hash(&index.to_flat()), built, "seed {rng_seed:#x} T={t}");
                // A fresh scratch per insert and one reused across all 64
                // must grow the same graph.
                let mut scratch = SearchScratch::default();
                for node in n0..full.len() {
                    if t == 1 {
                        index.insert_new(&full, node as u32, 0x1A5E, &mut SearchScratch::default());
                    } else {
                        index.insert_new(&full, node as u32, 0x1A5E, &mut scratch);
                    }
                }
                assert_eq!(flat_hash(&index.to_flat()), grown, "seed {rng_seed:#x} T={t} + 64");
                let cloned = index.clone();
                assert_eq!(cloned.to_flat(), index.to_flat());
            }
        }
    }

    #[test]
    fn wave_build_is_thread_count_invariant() {
        let oracle = crate::testutil::RandOracle::new(2_000, 12, 0xBEEF);
        let flats: Vec<HnswFlat> = [1usize, 2, 4]
            .iter()
            .map(|&t| {
                Hnsw::build_with_threads(
                    &oracle,
                    HnswParams { m: 10, ef_construction: 48, rng_seed: 11 },
                    t,
                )
                .to_flat()
            })
            .collect();
        assert_eq!(flats[0], flats[1], "T=1 vs T=2");
        assert_eq!(flats[0], flats[2], "T=1 vs T=4");
        // And the default entry point is the T-invariant algorithm.
        let via_default =
            Hnsw::build(&oracle, HnswParams { m: 10, ef_construction: 48, rng_seed: 11 }).to_flat();
        assert_eq!(flats[0], via_default);
    }

    #[test]
    fn wave_build_recall_floor_against_the_exact_answer() {
        // Recall@10 of the wave build against the exact oracle at beam 64.
        // The floor is the recall measured on 48e31f7 (1.0000, equal to the
        // sequential-insertion build deleted then) less 0.005.
        let oracle = crate::testutil::RandOracle::new(4_000, 12, 0x5EED);
        let params = HnswParams { m: 12, ef_construction: 80, rng_seed: 5 };
        let wave = Hnsw::build_with_threads(&oracle, params, 2);
        let mut hits = 0usize;
        let mut scratch = SearchScratch::default();
        for q in 0..200u32 {
            let target = (q * 19) % oracle.len() as u32;
            let exact = oracle.exact_top_k(target, 10);
            let scorer = FnScorer(|id| oracle.sim(id, target));
            let res = wave.search_with_scratch(&scorer, SearchParams::seed_only(10, 64), &mut scratch);
            hits += res.results.iter().filter(|(id, _)| exact.contains(id)).count();
        }
        let recall = hits as f64 / 2_000.0;
        assert!(recall >= 0.995, "wave-build recall@10 {recall:.4} fell below the 0.995 floor");
    }

    #[test]
    fn wave_build_respects_degree_caps_and_round_trips() {
        let oracle = crate::testutil::RandOracle::new(1_500, 8, 7);
        let m = 6;
        let index = Hnsw::build_with_threads(
            &oracle,
            HnswParams { m, ef_construction: 32, rng_seed: 3 },
            4,
        );
        let flat = index.to_flat();
        for (node, &top) in flat.levels.iter().enumerate() {
            for level in 0..=top as usize {
                let nbrs = index.neighbors(node as u32, level);
                let cap = if level == 0 { m * 2 } else { m };
                assert!(nbrs.len() <= cap, "node {node} level {level}: {}", nbrs.len());
                for &nb in nbrs {
                    assert_ne!(nb, node as u32, "self edge at node {node}");
                    assert!((nb as usize) < index.len());
                }
            }
        }
        assert_eq!(Hnsw::from_flat(&flat).unwrap().to_flat(), flat);
    }

    /// Phases C and D of one wave with every re-prune checked against the
    /// full pass over the same scored candidates (list and kept count);
    /// returns how many of them reused a split.
    fn apply_checked<O: SimilarityOracle>(index: &mut Hnsw, oracle: &O, pending: &[BackGroup]) -> usize {
        let mut scratch = SearchScratch::default();
        let mut reused = 0;
        let pruned: Vec<Selected> = pending
            .iter()
            .map(|g| {
                let scored = index.rescore(oracle, g, &mut scratch);
                reused += usize::from(scored.iter().any(|c| c.2 != Origin::New));
                let full = scored.iter().map(|&(id, s, _)| (id, s, Origin::New));
                let want = heuristic_select(oracle, g.nb, full, index.cap(g.layer as usize));
                let got = index.reprune(oracle, g, &mut scratch);
                assert_eq!(got, want, "re-prune of node {} layer {} + {:?}", g.nb, g.layer, g.adds);
                got
            })
            .collect();
        for (g, (list, split)) in pending.iter().zip(pruned) {
            index.set_neighbors(g.nb, g.layer as usize, &list, Some(split));
        }
        reused
    }

    /// [`Hnsw::build_with_threads`] with its re-prunes checked.
    fn build_checked<O: SimilarityOracle>(oracle: &O, params: HnswParams, threads: usize) -> (Hnsw, usize) {
        let n = oracle.len();
        let mut index = Hnsw::with_levels(&assign_levels(n, &params), params);
        let (mut start, mut reused) = (1, 0);
        while start < n {
            let len = (start / 3).clamp(1, WAVE_MAX).min(n - start);
            let selected = par::par_map_with(len, threads, SearchScratch::default, |scratch, item| {
                index.candidates(oracle, (start + item) as u32, scratch)
            });
            let pending = index.commit(start as u32, selected);
            reused += apply_checked(&mut index, oracle, &pending);
            start += len;
        }
        (index, reused)
    }

    /// [`Hnsw::insert_new`] with its re-prunes checked.
    fn insert_checked<O: SimilarityOracle>(index: &mut Hnsw, oracle: &O, node: u32, level_seed: u64) -> usize {
        let level = draw_level(&mut StdRng::seed_from_u64(level_seed ^ node as u64), index.params.m);
        index.push_node(level);
        let selected = index.candidates(oracle, node, &mut SearchScratch::default());
        let pending = index.commit(node, [selected]);
        apply_checked(index, oracle, &pending)
    }

    /// One seeded insert stream: small-integer points (exact, often tied
    /// similarities) with duplicated rows, a prefix built by waves at
    /// T ∈ {1, 2, 4} or restored by `from_flat` (round-tripped, or lists
    /// drawn at random, self edges and repeats included), then inserts.
    /// Every re-prune is checked against the full pass, and the checked
    /// build and inserts against the real ones.
    fn check_insert_stream(seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.random_range(48..160usize);
        let mut pts: Vec<(f32, f32)> = Vec::with_capacity(n);
        for _ in 0..n {
            let pt = if !pts.is_empty() && rng.random_range(0..5u32) == 0 {
                pts[rng.random_range(0..pts.len())]
            } else {
                (rng.random_range(0..13u32) as f32 - 6.0, rng.random_range(0..13u32) as f32 - 6.0)
            };
            pts.push(pt);
        }
        let full = GridOracle { pts };
        let n0 = rng.random_range(n / 3..2 * n / 3);
        let prefix = GridOracle { pts: full.pts[..n0].to_vec() };
        let m = rng.random_range(2..6usize);
        let params = HnswParams { m, ef_construction: rng.random_range(m..25), rng_seed: rng.random() };
        let threads = [1, 2, 4][rng.random_range(0..3usize)];
        let (mut index, mut reused) = build_checked(&prefix, params, threads);
        assert_eq!(index.to_flat(), Hnsw::build_with_threads(&prefix, params, threads).to_flat(), "seed {seed}");
        match rng.random_range(0..3u32) {
            0 => {}
            1 => index = Hnsw::from_flat(&index.to_flat()).unwrap(),
            _ => {
                let mut offsets = vec![0u32];
                let mut edges = Vec::new();
                for _ in 0..n0 {
                    let len = rng.random_range(0..2 * m + 1);
                    edges.extend((0..len).map(|_| rng.random_range(0..n0 as u32)));
                    offsets.push(edges.len() as u32);
                }
                let flat =
                    HnswFlat { levels: vec![0; n0], offsets, edges, entry: 0, max_level: 0, ..index.to_flat() };
                index = Hnsw::from_flat(&flat).unwrap();
            }
        }
        let mut twin = index.clone();
        let level_seed = rng.random();
        let mut scratch = SearchScratch::default();
        for node in n0 as u32..n as u32 {
            reused += insert_checked(&mut index, &full, node, level_seed);
            twin.insert_new(&full, node, level_seed, &mut scratch);
        }
        assert_eq!(index.to_flat(), twin.to_flat(), "seed {seed}");
        assert!(reused > 0, "seed {seed}: no re-prune reused a split");
    }

    proptest::proptest! {
        #[test]
        fn split_reusing_reprune_equals_the_full_pass(seed in proptest::prelude::any::<u64>()) {
            check_insert_stream(seed);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(640))]
        /// Ten times the cases, drawn from a stream of their own (the seed
        /// derives from the test's name); CI runs it in release with
        /// `cargo test --release -p must-graph --lib hnsw:: -- --ignored`.
        #[test]
        #[ignore = "640 cases: run in release"]
        fn split_reusing_reprune_equals_the_full_pass_640_cases(seed in proptest::prelude::any::<u64>()) {
            check_insert_stream(seed);
        }
    }

    #[test]
    fn a_fill_resurrected_by_an_add_can_occlude_a_later_kept_member() {
        // Owner o = 0 and five neighbours (sim = -d²): the first pass keeps
        // a and b and fills with f and g, both occluded by a.  Then add x
        // occludes a; f, no longer occluded, comes back, and occludes b —
        // which x alone does not occlude, so checking old-kept members
        // against adds only would keep b.
        let (o, a, b, f, g, x) = (0, 1, 2, 3, 4, 5);
        let pts = vec![(0.0, 0.0), (1.0, 0.0), (0.3, -2.0), (1.2, -1.2), (2.2, 0.3), (0.5, 0.5)];
        let oracle = GridOracle { pts };
        let flat = HnswFlat {
            levels: vec![0; 6],
            offsets: vec![0, 3, 3, 3, 3, 3, 3],
            edges: vec![a, b, f],
            entry: 0,
            max_level: 0,
            m: 2,
            ef_construction: 8,
            rng_seed: 0,
        };
        let mut index = Hnsw::from_flat(&flat).unwrap();
        let group = |add: u32| BackGroup { nb: o, layer: 0, adds: vec![add] };
        // Restored: the split is unknown and the full pass runs.
        assert_eq!(apply_checked(&mut index, &oracle, &[group(g)]), 0);
        assert_eq!((index.neighbors(o, 0), index.split(o, 0)), (&[a, b, f, g][..], Some(2)));
        assert_eq!(apply_checked(&mut index, &oracle, &[group(x)]), 1);
        assert_eq!((index.neighbors(o, 0), index.split(o, 0)), (&[x, f, a, b][..], Some(2)));
    }

    #[test]
    fn writes_that_rank_no_list_leave_its_split_unknown() {
        let oracle = GridOracle::new(4);
        let mut index = Hnsw::from_flat(&Hnsw::build(&oracle, HnswParams { m: 2, ..HnswParams::default() }).to_flat())
            .unwrap();
        assert!((0..16).all(|v| index.split(v, 0).is_none()), "from_flat");
        index.set_neighbors(5, 0, &[4, 6], Some(1));
        assert_eq!(index.split(5, 0), Some(1));
        assert!(index.try_extend(5, 0, &[1]));
        assert_eq!((index.neighbors(5, 0), index.split(5, 0)), (&[4, 6, 1][..], None), "try_extend");
        index.set_neighbors(5, 0, &[4], Some(1));
        // Node 5's forward list (its back edges may overflow; not applied).
        index.commit(5, [vec![vec![6, 9]]]);
        assert_eq!((index.neighbors(5, 0), index.split(5, 0)), (&[6, 9][..], None), "commit");
    }

    #[test]
    fn search_results_sorted_and_k_sized() {
        let oracle = GridOracle::new(10);
        let index = Hnsw::build(&oracle, HnswParams::default());
        let scorer = FnScorer(|id| oracle.sim(id, 55));
        let params = SearchParams::seed_only(5, 20);
        let res = index.search_with_scratch(&scorer, params, &mut SearchScratch::default());
        assert_eq!(res.results.len(), 5);
        for w in res.results.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }
}
