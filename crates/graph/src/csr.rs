//! Compressed sparse-row form of a built graph: two flat arrays instead of
//! `n` heap-allocated neighbour lists.  Roughly halves index memory and
//! removes per-vertex pointer chasing on the search hot path — the one
//! form a flat graph is returned, searched and persisted in, served or
//! under construction.

/// A frozen graph in CSR layout plus the fixed search seed (component ④)
/// — the output of Algorithm 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrGraph {
    /// `offsets[v]..offsets[v+1]` indexes `edges` for vertex `v`.
    offsets: Vec<u32>,
    /// Concatenated neighbour lists.
    edges: Vec<u32>,
    seed: u32,
}

impl CsrGraph {
    /// Freezes construction's adjacency lists (`lists[v]` = out-neighbours
    /// of `v`, in order) and the seed vertex.
    ///
    /// # Panics
    /// When `lists` is empty or `seed` is not one of its vertices.
    #[must_use]
    pub fn from_lists(lists: &[Vec<u32>], seed: u32) -> Self {
        assert!(!lists.is_empty(), "graph must not be empty");
        assert!((seed as usize) < lists.len(), "seed out of range");
        let mut offsets = Vec::with_capacity(lists.len() + 1);
        let mut edges = Vec::with_capacity(lists.iter().map(Vec::len).sum());
        offsets.push(0);
        for list in lists {
            edges.extend_from_slice(list);
            offsets.push(edges.len() as u32);
        }
        Self { offsets, edges, seed }
    }

    /// Reassembles a CSR graph from its raw arrays (the binary-bundle load
    /// path), validating structural consistency.
    ///
    /// # Errors
    /// A human-readable description of the first inconsistency found.
    pub fn from_parts(offsets: Vec<u32>, edges: Vec<u32>, seed: u32) -> Result<Self, String> {
        if offsets.len() < 2 {
            return Err("offset table must cover at least one vertex".into());
        }
        if offsets[0] != 0 || *offsets.last().expect("non-empty") as usize != edges.len() {
            return Err("offset table does not span the edge array".into());
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err("offset table is not monotone".into());
        }
        let n = offsets.len() - 1;
        if edges.iter().any(|&e| e as usize >= n) {
            return Err("edge target out of range".into());
        }
        if seed as usize >= n {
            return Err("seed vertex out of range".into());
        }
        Ok(Self { offsets, edges, seed })
    }

    /// The raw CSR offset array (`len() + 1` entries).
    #[inline]
    #[must_use]
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// The raw concatenated edge array.
    #[inline]
    #[must_use]
    pub fn edges(&self) -> &[u32] {
        &self.edges
    }

    /// Number of vertices.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether the graph has no vertices.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Out-neighbours of `v`.
    #[inline]
    #[must_use]
    pub fn neighbors(&self, v: u32) -> &[u32] {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        &self.edges[lo..hi]
    }

    /// The fixed search seed.
    #[inline]
    #[must_use]
    pub fn seed(&self) -> u32 {
        self.seed
    }

    /// Total directed edges.
    #[must_use]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Maximum out-degree.
    #[must_use]
    pub fn max_degree(&self) -> usize {
        self.offsets.windows(2).map(|w| (w[1] - w[0]) as usize).max().unwrap_or(0)
    }

    /// Memory footprint in bytes: `4·(n+1) + 4·edges`.
    #[must_use]
    pub fn bytes(&self) -> usize {
        (self.offsets.len() + self.edges.len()) * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::PipelineBuilder;
    use crate::testutil::GridOracle;

    fn built() -> CsrGraph {
        let oracle = GridOracle::new(10);
        PipelineBuilder { gamma: 6, threads: 1, ..Default::default() }.build(&oracle).0
    }

    /// Adjacency lists with every degree from 0 to 3.
    fn lists() -> Vec<Vec<u32>> {
        vec![vec![1, 2, 3], vec![], vec![0], vec![2, 0]]
    }

    #[test]
    fn round_trip_preserves_structure() {
        let lists = lists();
        let csr = CsrGraph::from_lists(&lists, 3);
        assert_eq!(csr.len(), lists.len());
        assert_eq!(csr.num_edges(), 6);
        assert_eq!(csr.seed(), 3);
        for (v, list) in lists.iter().enumerate() {
            assert_eq!(csr.neighbors(v as u32), &list[..]);
        }
        assert_eq!(csr.offsets(), &[0, 3, 3, 4, 6]);
        assert_eq!(csr.edges(), &[1, 2, 3, 0, 2, 0]);
    }

    #[test]
    fn csr_is_smaller_than_adjacency() {
        let csr = built();
        let lists: Vec<Vec<u32>> = (0..csr.len() as u32).map(|v| csr.neighbors(v).to_vec()).collect();
        let adjacency = csr.num_edges() * std::mem::size_of::<u32>()
            + lists.len() * std::mem::size_of::<Vec<u32>>();
        assert!(csr.bytes() <= adjacency);
        assert_eq!(CsrGraph::from_lists(&lists, csr.seed()), csr);
    }

    #[test]
    fn from_parts_round_trips_and_rejects_corruption() {
        let csr = built();
        let back = CsrGraph::from_parts(
            csr.offsets().to_vec(),
            csr.edges().to_vec(),
            csr.seed(),
        )
        .unwrap();
        assert_eq!(back, csr);
        assert!(CsrGraph::from_parts(vec![0], vec![], 0).is_err(), "no vertices");
        assert!(CsrGraph::from_parts(vec![0, 2], vec![1], 0).is_err(), "span mismatch");
        assert!(CsrGraph::from_parts(vec![0, 1], vec![7], 0).is_err(), "target range");
        assert!(CsrGraph::from_parts(vec![0, 0], vec![], 5).is_err(), "seed range");
    }
}
