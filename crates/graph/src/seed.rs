//! Component ④ — seed preprocessing (Line 18 of Algorithm 1).

use crate::par::par_map;
use crate::SimilarityOracle;

/// The fixed search seed: the vertex nearest the centroid of all virtual
/// points (the medoid, Line 18 of Algorithm 1).
pub fn choose_seed<O: SimilarityOracle>(oracle: &O, threads: usize) -> u32 {
    let n = oracle.len();
    assert!(n > 0, "cannot seed an empty graph");
    let sims = par_map(n, threads, |o| oracle.sim_to_centroid(o as u32));
    sims.iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i as u32)
        .expect("non-empty")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{GridOracle, LineOracle};

    #[test]
    fn medoid_of_line_is_the_middle() {
        let oracle = LineOracle(101);
        assert_eq!(choose_seed(&oracle, 2), 50);
    }

    #[test]
    fn medoid_of_grid_is_central() {
        let oracle = GridOracle::new(5);
        let seed = choose_seed(&oracle, 1);
        assert_eq!(oracle.pts[seed as usize], (2.0, 2.0));
    }
}
