//! Component ③ — neighbour selection strategies (Lines 11–17 of
//! Algorithm 1 and the equivalents from NSSG and Vamana).
//!
//! All strategies take the owning vertex `o` and a candidate list sorted by
//! descending similarity to `o`, and return the selected neighbour ids.

use crate::nndescent::Neighbor;
use crate::SimilarityOracle;

/// Which selection strategy component ③ uses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SelectionStrategy {
    /// Keep the `gamma` most similar candidates (KGraph).
    TopGamma,
    /// The MRNG rule used by the paper's fused index and NSG
    /// (Lines 11–17): keep `v` iff `IP(o, v) > IP(u, v)` for every
    /// already-kept `u` — guaranteeing pairwise angles >= 60° (Lemma 2).
    Mrng,
    /// NSSG's angle-based rule: keep `v` iff the angle `u-o-v` is at least
    /// `min_angle_deg` for every kept `u`.
    Nssg {
        /// Minimum pairwise neighbour angle in degrees (NSSG uses 60).
        min_angle_deg: f32,
    },
    /// Vamana's alpha-relaxed rule (RobustPrune): keep `v` iff
    /// `d(o, v) < alpha * d(u, v)` for every kept `u`; `alpha > 1` keeps
    /// longer-range edges.
    Vamana {
        /// Distance-relaxation factor (DiskANN uses 1.2).
        alpha: f32,
    },
}

/// Euclidean distance between two vertices derived from oracle
/// similarities: `d^2(a,b) = sim(a,a) + sim(b,b) - 2 sim(a,b)`.
#[inline]
fn distance<O: SimilarityOracle>(oracle: &O, a: u32, b: u32) -> f32 {
    (oracle.self_sim(a) + oracle.self_sim(b) - 2.0 * oracle.sim(a, b)).max(0.0).sqrt()
}

/// The MRNG / HNSW occlusion test: whether `sim`, the candidate `id`'s
/// similarity to the owning vertex, beats `sim(u, id)` for every kept `u`.
/// The kept list is scored four ids per [`SimilarityOracle::sims`] call
/// (as `sim(id, u)`, the same bits by symmetry) and checked in order, so
/// the verdict is the one-pair-at-a-time loop's; a chunk that holds an
/// occluder may score up to three pairs that loop would have skipped.
pub(crate) fn unoccluded<O: SimilarityOracle>(oracle: &O, id: u32, sim: f32, kept: &[u32]) -> bool {
    let mut sims = [0.0f32; 4];
    kept.chunks(4).all(|chunk| {
        let sims = &mut sims[..chunk.len()];
        oracle.sims(id, chunk, sims);
        sims.iter().all(|&s| sim > s)
    })
}

/// Applies `strategy` to the candidates of vertex `o`, returning at most
/// `gamma` neighbour ids.
///
/// `candidates` must be sorted by descending similarity to `o` and must not
/// contain `o` itself.
pub fn select_neighbors<O: SimilarityOracle>(
    oracle: &O,
    o: u32,
    candidates: &[Neighbor],
    gamma: usize,
    strategy: SelectionStrategy,
) -> Vec<u32> {
    debug_assert!(candidates.windows(2).all(|w| w[0].sim >= w[1].sim));
    match strategy {
        SelectionStrategy::TopGamma => candidates.iter().take(gamma).map(|n| n.id).collect(),
        SelectionStrategy::Mrng => {
            let mut kept: Vec<u32> = Vec::with_capacity(gamma);
            for &cand in candidates {
                if kept.len() >= gamma {
                    break;
                }
                // Keep v iff it is more similar to o than to every kept u.
                if unoccluded(oracle, cand.id, cand.sim, &kept) {
                    kept.push(cand.id);
                }
            }
            kept
        }
        SelectionStrategy::Nssg { min_angle_deg } => {
            let cos_max = min_angle_deg.to_radians().cos();
            let mut kept: Vec<Neighbor> = Vec::with_capacity(gamma);
            for &cand in candidates {
                if kept.len() >= gamma {
                    break;
                }
                let d_ov = distance(oracle, o, cand.id);
                let ok = kept.iter().all(|u| {
                    let d_ou = distance(oracle, o, u.id);
                    let d_uv = distance(oracle, u.id, cand.id);
                    if d_ov <= f32::EPSILON || d_ou <= f32::EPSILON {
                        return false; // coincident points: reject duplicates
                    }
                    // Law of cosines at vertex o.
                    let cos = (d_ou * d_ou + d_ov * d_ov - d_uv * d_uv) / (2.0 * d_ou * d_ov);
                    cos <= cos_max + 1e-6
                });
                if ok {
                    kept.push(cand);
                }
            }
            kept.into_iter().map(|n| n.id).collect()
        }
        SelectionStrategy::Vamana { alpha } => {
            let mut kept: Vec<Neighbor> = Vec::with_capacity(gamma);
            for &cand in candidates {
                if kept.len() >= gamma {
                    break;
                }
                let d_ov = distance(oracle, o, cand.id);
                let ok = kept
                    .iter()
                    .all(|u| d_ov < alpha * distance(oracle, u.id, cand.id));
                if ok {
                    kept.push(cand);
                }
            }
            kept.into_iter().map(|n| n.id).collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nndescent::{exact_knn_sample, Neighbor};
    use crate::testutil::GridOracle;

    fn candidates_for<O: SimilarityOracle>(oracle: &O, o: u32, count: usize) -> Vec<Neighbor> {
        exact_knn_sample(oracle, &[o], count, 1).pop().unwrap()
    }

    #[test]
    fn top_gamma_truncates() {
        let oracle = GridOracle::new(5);
        let cands = candidates_for(&oracle, 12, 10);
        let sel = select_neighbors(&oracle, 12, &cands, 4, SelectionStrategy::TopGamma);
        assert_eq!(sel.len(), 4);
        assert_eq!(sel, cands[..4].iter().map(|n| n.id).collect::<Vec<_>>());
    }

    #[test]
    fn mrng_always_keeps_the_closest_candidate() {
        let oracle = GridOracle::new(6);
        for o in [0u32, 7, 20, 35] {
            let cands = candidates_for(&oracle, o, 12);
            let sel = select_neighbors(&oracle, o, &cands, 6, SelectionStrategy::Mrng);
            assert!(!sel.is_empty());
            assert_eq!(sel[0], cands[0].id, "closest candidate must survive MRNG");
        }
    }

    #[test]
    fn mrng_diversifies_directions_on_grid() {
        // For the centre of a 5x5 grid, MRNG must not keep two neighbours in
        // the same direction (e.g. (2,3) and (2,4)): the nearer one occludes
        // the farther.
        let oracle = GridOracle::new(5);
        let centre = 12; // (2, 2)
        let cands = candidates_for(&oracle, centre, 24);
        let sel = select_neighbors(&oracle, centre, &cands, 24, SelectionStrategy::Mrng);
        let coords: Vec<(f32, f32)> = sel.iter().map(|&id| oracle.pts[id as usize]).collect();
        assert!(
            !(coords.contains(&(2.0, 3.0)) && coords.contains(&(2.0, 4.0))),
            "occluded same-direction neighbour kept: {coords:?}"
        );
        // The four axis neighbours at distance 1 are mutually >= 60 deg apart
        // and must all be kept.
        for want in [(1.0, 2.0), (3.0, 2.0), (2.0, 1.0), (2.0, 3.0)] {
            assert!(coords.contains(&want), "missing direct neighbour {want:?}");
        }
    }

    #[test]
    fn lemma2_mrng_pairwise_angles_at_least_60_degrees() {
        let oracle = GridOracle::new(7);
        for o in 0..oracle.len() as u32 {
            let cands = candidates_for(&oracle, o, 20);
            let sel = select_neighbors(&oracle, o, &cands, 20, SelectionStrategy::Mrng);
            let (ox, oy) = oracle.pts[o as usize];
            for (i, &u) in sel.iter().enumerate() {
                for &v in &sel[i + 1..] {
                    let (ux, uy) = oracle.pts[u as usize];
                    let (vx, vy) = oracle.pts[v as usize];
                    let du = ((ux - ox), (uy - oy));
                    let dv = ((vx - ox), (vy - oy));
                    let cos = (du.0 * dv.0 + du.1 * dv.1)
                        / ((du.0 * du.0 + du.1 * du.1).sqrt()
                            * (dv.0 * dv.0 + dv.1 * dv.1).sqrt());
                    assert!(
                        cos <= 0.5 + 1e-4,
                        "angle below 60 deg at {o}: neighbours {u}, {v} (cos = {cos})"
                    );
                }
            }
        }
    }

    #[test]
    fn nssg_with_60_degrees_matches_spirit_of_mrng() {
        let oracle = GridOracle::new(5);
        let cands = candidates_for(&oracle, 12, 24);
        let nssg = select_neighbors(
            &oracle,
            12,
            &cands,
            24,
            SelectionStrategy::Nssg { min_angle_deg: 60.0 },
        );
        // Must keep the closest and diversify.
        assert_eq!(nssg[0], cands[0].id);
        assert!(nssg.len() >= 4);
    }

    #[test]
    fn vamana_alpha_keeps_more_edges_than_mrng() {
        let oracle = GridOracle::new(8);
        let mut total_mrng = 0;
        let mut total_vamana = 0;
        for o in 0..oracle.len() as u32 {
            let cands = candidates_for(&oracle, o, 16);
            total_mrng +=
                select_neighbors(&oracle, o, &cands, 16, SelectionStrategy::Mrng).len();
            total_vamana += select_neighbors(
                &oracle,
                o,
                &cands,
                16,
                SelectionStrategy::Vamana { alpha: 1.4 },
            )
            .len();
        }
        assert!(
            total_vamana >= total_mrng,
            "alpha > 1 must relax pruning: vamana {total_vamana} vs mrng {total_mrng}"
        );
    }

    #[test]
    fn gamma_caps_every_strategy() {
        let oracle = GridOracle::new(6);
        let cands = candidates_for(&oracle, 14, 30);
        for strat in [
            SelectionStrategy::TopGamma,
            SelectionStrategy::Mrng,
            SelectionStrategy::Nssg { min_angle_deg: 45.0 },
            SelectionStrategy::Vamana { alpha: 2.0 },
        ] {
            assert!(select_neighbors(&oracle, 14, &cands, 3, strat).len() <= 3);
        }
    }
}
