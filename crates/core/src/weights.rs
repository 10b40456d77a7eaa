//! The vector-weight-learning model (Section VI of the paper).
//!
//! The model is `m` scalars — the modality weights `omega_i`.  Training
//! data are anchors (queries) paired with their true objects; negatives are
//! the corpus objects most similar to the anchor *under the current
//! weights* (hard negatives, Eq. 5), or random objects for the Fig. 9
//! ablation.  The contrastive loss (Eq. 6)
//!
//! ```text
//! L = mean_p -log( e^{IP(p,p+)} / (e^{IP(p,p+)} + sum_neg e^{IP(p,p-)}) )
//! ```
//!
//! has a closed-form gradient in the squared weights `u_i = omega_i^2`
//! because `IP(p, o) = sum_i u_i * s_i(p, o)` (Lemma 1):
//! `dL/du_i = mean_p [ sum_j pi_j s_i(p, j) - s_i(p, p+) ]` with `pi` the
//! softmax over `{p+} ∪ N-`, and `dL/domega_i = 2 omega_i dL/du_i`.
//!
//! The per-modality similarities `s_i(p, o)` are weight-independent, so we
//! precompute them once; every epoch (mining + gradient + recall tracking)
//! is then a cheap scan, matching the paper's observation that the model
//! trains in seconds while the embedding models train for hours.
//!
//! # What runs in parallel, and why the thread count cannot show
//!
//! Two loops run under `must_graph::par::par_map` on `build_threads()`
//! workers, both over anchors.  *The table*: every `s_i(p, o)` is an inner
//! product of inputs, so who computes it is immaterial.  *The epoch*: an
//! anchor's mined negatives, softmax, loss term and `m` gradient terms are a
//! pure function of its table columns and the epoch's `u`; the workers
//! return them per anchor and share nothing.  Everything whose order could
//! show stays serial: the sampler's and the random negatives' draws come
//! off one RNG stream in anchor order *before* the parallel part, and the
//! per-anchor terms are added into `grad_u`, the loss and the hit count in
//! anchor order afterwards, so each floating-point sum rounds exactly as
//! the single loop's did.  `omega`, the loss curve and the recall curve are
//! therefore bit-identical at every thread count — pinned by tests at 1, 2
//! and 4 workers, and against hashes taken before the loops were split.

use std::time::Instant;

use must_graph::{par, Pool};
use must_vector::{kernels, FusedRows, MultiQuery, ObjectId, Weights};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Learning rate of the omega step (paper: 0.002; our loss is averaged per
/// anchor so a larger rate converges in fewer epochs).
const LR: f32 = 0.08;

/// Training hyper-parameters.
#[derive(Debug, Clone)]
pub struct WeightLearnConfig {
    /// Gradient-descent epochs (the paper trains for 700 iterations).
    pub epochs: usize,
    /// Number of negative examples `|N-|` per anchor (Fig. 13 sweeps
    /// 1..10; 10 by default).
    pub num_negatives: usize,
    /// Hard negatives (Eq. 5, mined by exact search under current weights)
    /// vs. uniform random negatives (the Fig. 9 ablation).
    pub hard_negatives: bool,
    /// Cap on the number of anchors used (subsampled deterministically).
    pub max_anchors: usize,
    /// Cap on the mining-corpus size (positives are always included).
    pub mining_corpus: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for WeightLearnConfig {
    fn default() -> Self {
        Self {
            epochs: 300,
            num_negatives: 10,
            hard_negatives: true,
            max_anchors: 512,
            mining_corpus: 8192,
            seed: 0x3E16,
        }
    }
}

/// Per-epoch training diagnostics (the curves of Figs. 9 and 13).
#[derive(Debug, Clone, Default)]
pub struct TrainingCurve {
    /// Mean contrastive loss per epoch.
    pub loss: Vec<f64>,
    /// Top-1 recall of the positive under current weights, per epoch.
    pub recall: Vec<f64>,
}

/// The trained model output.
#[derive(Debug, Clone)]
pub struct LearnedWeights {
    /// The learned weights.
    pub weights: Weights,
    /// Training curves.
    pub curve: TrainingCurve,
    /// Wall-clock training time in seconds.
    pub train_secs: f64,
}

/// The weight learner with precomputed per-modality similarities.
pub struct WeightLearner {
    m: usize,
    /// `sims[a][i * corpus_len + o]` = `s_i(anchor_a, corpus_o)`: one
    /// contiguous column per (anchor, modality), which mining streams.
    sims: Vec<Vec<f32>>,
    corpus_len: usize,
    /// Index (into the mining corpus) of each anchor's positive.
    positives: Vec<usize>,
}

/// What one anchor adds to an epoch's recall, loss and `dL/du`.
struct AnchorTerms {
    hit: bool,
    loss: f64,
    grad_u: Vec<f64>,
}

impl WeightLearner {
    /// Precomputes similarities between `anchors` (query + positive object
    /// id) and a mining corpus sampled from `set`.
    #[must_use]
    pub fn new(
        set: &FusedRows,
        anchors: &[(&MultiQuery, ObjectId)],
        config: &WeightLearnConfig,
    ) -> Self {
        let m = set.num_modalities();
        let mut rng = StdRng::seed_from_u64(config.seed);

        // Deterministic anchor subsample.
        let mut anchor_idx: Vec<usize> = (0..anchors.len()).collect();
        if anchors.len() > config.max_anchors {
            for i in 0..anchor_idx.len() {
                let j = rng.random_range(i..anchor_idx.len());
                anchor_idx.swap(i, j);
            }
            anchor_idx.truncate(config.max_anchors);
        }

        // Mining corpus: every positive + random fill.  Membership is a
        // bitmap and the ids are sorted once, after the last draw.
        let mut in_corpus = vec![false; set.len()];
        let mut is_new = |id: ObjectId| !std::mem::replace(&mut in_corpus[id as usize], true);
        let mut corpus: Vec<ObjectId> =
            anchor_idx.iter().map(|&a| anchors[a].1).filter(|&id| is_new(id)).collect();
        while corpus.len() < config.mining_corpus.min(set.len()) {
            let id = rng.random_range(0..set.len() as u32);
            if is_new(id) {
                corpus.push(id);
            }
        }
        corpus.sort_unstable();

        let corpus_len = corpus.len();
        let positives = anchor_idx
            .iter()
            .map(|&a| corpus.binary_search(&anchors[a].1).expect("positive is in corpus"))
            .collect();
        // Every table entry is one independent inner product: four corpus
        // rows per `ip4` pass, bit for bit `ip_to`'s values.
        let sims = par::par_map(anchor_idx.len(), par::build_threads(), |ai| {
            let query = anchors[anchor_idx[ai]].0;
            let mut columns = vec![0.0f32; m * corpus_len];
            for i in 0..m {
                let Some(slot) = query.slot(i) else { continue };
                let view = set.modality(i);
                let column = &mut columns[i * corpus_len..(i + 1) * corpus_len];
                let (quads, rest) = corpus.as_chunks::<4>();
                let (out_quads, out_rest) = column.as_chunks_mut::<4>();
                for (quad, out) in quads.iter().zip(out_quads) {
                    *out = kernels::ip4(slot, quad.map(|obj| view.get(obj)));
                }
                for (&obj, out) in rest.iter().zip(out_rest) {
                    *out = view.ip_to(obj, slot);
                }
            }
            columns
        });
        Self { m, sims, corpus_len, positives }
    }

    /// Number of anchors retained.
    #[must_use]
    pub fn num_anchors(&self) -> usize {
        self.positives.len()
    }

    /// `s_i(anchor, obj)`.
    #[inline]
    fn s(&self, anchor: usize, obj: usize, i: usize) -> f32 {
        self.sims[anchor][i * self.corpus_len + obj]
    }

    /// Joint similarity of `(anchor, obj)` under squared weights `u`.
    #[inline]
    fn joint(&self, anchor: usize, obj: usize, u: &[f32]) -> f32 {
        u.iter().enumerate().map(|(i, w)| self.s(anchor, obj, i) * w).sum()
    }

    /// Mines the `k` corpus objects most similar to `anchor` under `u`
    /// (Eq. 5 — the top-k result objects `R`), best first.
    fn mine_top_k(&self, anchor: usize, u: &[f32], k: usize) -> Vec<usize> {
        const BLOCK: usize = 256;
        let n = self.corpus_len;
        let columns = &self.sims[anchor];
        let mut pool = Pool::new(k, n);
        // The pool's threshold: once it is full, nearly every object fails
        // this one comparison and touches nothing else.
        let mut bar = f32::NEG_INFINITY;
        let mut scores = [0.0f32; BLOCK];
        for base in (0..n).step_by(BLOCK) {
            // `joint` for a block of objects, one column at a time: the
            // same products added in the same order from the same `-0.0`
            // `Iterator::sum` starts at, in vector lanes.
            let scores = &mut scores[..BLOCK.min(n - base)];
            scores.fill(-0.0);
            for (i, w) in u.iter().enumerate() {
                let column = &columns[i * n + base..][..scores.len()];
                for (s, c) in scores.iter_mut().zip(column) {
                    *s += c * w;
                }
            }
            for (o, &s) in (base as ObjectId..).zip(scores.iter()) {
                if s > bar || !pool.is_full() {
                    pool.insert(o, s);
                    bar = pool.threshold();
                }
            }
        }
        pool.entries().iter().map(|e| e.id as usize).collect()
    }

    /// One anchor's share of an epoch under squared weights `u`: mine,
    /// softmax over `{p+} ∪ N-`, loss and gradient terms.  `drawn` holds the
    /// anchor's random negatives; `None` mines the hard ones (Eq. 5).
    fn anchor_terms(
        &self,
        a: usize,
        u: &[f32],
        num_negatives: usize,
        drawn: Option<&[usize]>,
    ) -> AnchorTerms {
        let pos = self.positives[a];
        // Recall tracking needs the argmax even in random mode.
        let top = self.mine_top_k(a, u, if drawn.is_some() { 1 } else { num_negatives + 1 });
        let hit = top.first() == Some(&pos);
        let mined: Vec<usize>;
        let negatives = match drawn {
            Some(drawn) => drawn,
            None => {
                mined = top
                    .into_iter()
                    .filter(|&o| o != pos)
                    .take(num_negatives)
                    .collect();
                &mined
            }
        };

        // Softmax over {pos} ∪ negatives (Eq. 6), with the usual
        // max-shift for numerical stability.
        let s_pos = self.joint(a, pos, u);
        let s_negs: Vec<f32> = negatives.iter().map(|&o| self.joint(a, o, u)).collect();
        let max = s_negs.iter().copied().fold(s_pos, f32::max);
        let e_pos = ((s_pos - max) as f64).exp();
        let e_negs: Vec<f64> = s_negs.iter().map(|&s| ((s - max) as f64).exp()).collect();
        let denom = e_pos + e_negs.iter().sum::<f64>();

        // Gradient: sum_j pi_j s_i(j) - s_i(pos).
        let pi_pos = e_pos / denom;
        let grad_u = (0..self.m)
            .map(|i| {
                let mut g = (pi_pos - 1.0) * self.s(a, pos, i) as f64;
                for (e, &o) in e_negs.iter().zip(negatives) {
                    g += (e / denom) * self.s(a, o, i) as f64;
                }
                g
            })
            .collect();
        AnchorTerms { hit, loss: -(e_pos / denom).ln(), grad_u }
    }

    /// Trains the model, returning learned weights and curves.
    pub fn train(&self, config: &WeightLearnConfig) -> LearnedWeights {
        self.train_on(config, par::build_threads())
    }

    /// [`WeightLearner::train`] on `threads` workers; the outcome is the
    /// same for every `threads` (module docs).
    fn train_on(&self, config: &WeightLearnConfig, threads: usize) -> LearnedWeights {
        let t0 = Instant::now();
        let m = self.m;
        let n_anchors = self.positives.len();
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0x77);

        // Random initialisation around uniform (paper: random init).
        let mut omega: Vec<f32> = (0..m)
            .map(|_| (1.0 / m as f32).sqrt() * (0.5 + rng.random::<f32>()))
            .collect();
        let mut curve = TrainingCurve::default();

        if n_anchors == 0 {
            return LearnedWeights {
                weights: Weights::uniform(m),
                curve,
                train_secs: t0.elapsed().as_secs_f64(),
            };
        }

        for _epoch in 0..config.epochs {
            let u: Vec<f32> = omega.iter().map(|w| w * w).collect();
            // Random negatives come off the one RNG stream in anchor order,
            // before any anchor is worked on.
            let drawn: Option<Vec<Vec<usize>>> = (!config.hard_negatives).then(|| {
                (self.positives.iter())
                    .map(|&pos| {
                        (0..config.num_negatives)
                            .map(|_| loop {
                                let o = rng.random_range(0..self.corpus_len);
                                if o != pos {
                                    break o;
                                }
                            })
                            .collect()
                    })
                    .collect()
            });
            let terms = par::par_map(n_anchors, threads, |a| {
                let drawn = drawn.as_ref().map(|d| d[a].as_slice());
                self.anchor_terms(a, &u, config.num_negatives, drawn)
            });

            // Folded in anchor order: the sums round as a serial loop's do.
            let mut grad_u = vec![0.0f64; m];
            let mut loss_sum = 0.0f64;
            let mut hits = 0usize;
            for t in &terms {
                hits += usize::from(t.hit);
                loss_sum += t.loss;
                for (gu, g) in grad_u.iter_mut().zip(&t.grad_u) {
                    *gu += g;
                }
            }

            // omega step: dL/domega_i = 2 omega_i dL/du_i.
            for i in 0..m {
                let g = (grad_u[i] / n_anchors as f64) as f32 * 2.0 * omega[i];
                omega[i] = (omega[i] - LR * g).clamp(1e-3, 8.0);
            }
            curve.loss.push(loss_sum / n_anchors as f64);
            curve.recall.push(hits as f64 / n_anchors as f64);
        }

        LearnedWeights {
            weights: Weights::new(omega).expect("clamped weights are valid"),
            curve,
            train_secs: t0.elapsed().as_secs_f64(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use must_vector::VectorSetBuilder;

    /// A corpus where modality 1 (text) is discriminative and modality 0
    /// (image) is noisy/confusing: the learner must upweight modality 1.
    fn discriminative_text_setup() -> (FusedRows, Vec<(MultiQuery, ObjectId)>) {
        let n = 64;
        let dim0 = 8;
        let dim1 = 8;
        let mut rng = StdRng::seed_from_u64(5);
        let mut m0 = VectorSetBuilder::new(dim0, n);
        let mut m1 = VectorSetBuilder::new(dim1, n);
        let mut texts = Vec::new();
        for _ in 0..n {
            // Image vectors nearly collapse onto one direction (ambiguous).
            let mut img = vec![0.0f32; dim0];
            img[0] = 1.0;
            for x in img.iter_mut() {
                *x += rng.random::<f32>() * 0.05;
            }
            // Text vectors are well-spread (discriminative).
            let mut txt = vec![0.0f32; dim1];
            for x in txt.iter_mut() {
                *x = rng.random::<f32>() * 2.0 - 1.0;
            }
            m0.push_normalized(&img).unwrap();
            m1.push_normalized(&txt).unwrap();
            texts.push(txt);
        }
        let set = FusedRows::new(vec![m0.finish(), m1.finish()]).unwrap();
        // Anchors: queries whose text equals the positive's text.
        let mut anchors = Vec::new();
        for pos in 0..24u32 {
            let img_slot = set.modality(0).get(pos).to_vec();
            let txt_slot = set.modality(1).get(pos).to_vec();
            anchors.push((MultiQuery::full(vec![img_slot, txt_slot]), pos));
        }
        (set, anchors)
    }

    fn as_refs(anchors: &[(MultiQuery, ObjectId)]) -> Vec<(&MultiQuery, ObjectId)> {
        anchors.iter().map(|(q, p)| (q, *p)).collect()
    }

    fn learn_weights(
        set: &FusedRows,
        anchors: &[(&MultiQuery, ObjectId)],
        config: &WeightLearnConfig,
    ) -> LearnedWeights {
        WeightLearner::new(set, anchors, config).train(config)
    }

    #[test]
    fn learner_upweights_the_discriminative_modality() {
        let (set, anchors) = discriminative_text_setup();
        let config = WeightLearnConfig { epochs: 120, ..WeightLearnConfig::default() };
        let out = learn_weights(&set, &as_refs(&anchors), &config);
        let w = out.weights;
        assert!(
            w.sq(1) > w.sq(0),
            "text must outweigh ambiguous image: {:?}",
            w.squared()
        );
        // Training must improve recall to (near) 1 on this easy setup.
        let final_recall = *out.curve.recall.last().unwrap();
        assert!(final_recall > 0.9, "final recall {final_recall}");
    }

    #[test]
    fn loss_decreases_over_training() {
        let (set, anchors) = discriminative_text_setup();
        let config = WeightLearnConfig { epochs: 80, ..WeightLearnConfig::default() };
        let out = learn_weights(&set, &as_refs(&anchors), &config);
        let first = out.curve.loss[..5].iter().sum::<f64>() / 5.0;
        let last = out.curve.loss[out.curve.loss.len() - 5..].iter().sum::<f64>() / 5.0;
        assert!(last < first, "loss must decrease: {first} -> {last}");
    }

    #[test]
    fn hard_negatives_converge_at_least_as_fast_as_random() {
        let (set, anchors) = discriminative_text_setup();
        let refs = as_refs(&anchors);
        let epochs = 60;
        let hard = learn_weights(
            &set,
            &refs,
            &WeightLearnConfig { epochs, hard_negatives: true, ..Default::default() },
        );
        let random = learn_weights(
            &set,
            &refs,
            &WeightLearnConfig { epochs, hard_negatives: false, ..Default::default() },
        );
        // Compare mean recall over the first third of training.
        let third = epochs / 3;
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let r_hard = mean(&hard.curve.recall[..third]);
        let r_random = mean(&random.curve.recall[..third]);
        assert!(
            r_hard + 0.05 >= r_random,
            "hard negatives should not converge slower: {r_hard} vs {r_random}"
        );
    }

    #[test]
    fn gradient_matches_finite_differences() {
        // Pin the analytic gradient against numerical differentiation of
        // the loss in u-space on a tiny instance.
        let (set, anchors) = discriminative_text_setup();
        let refs = as_refs(&anchors[..4]);
        let config = WeightLearnConfig {
            num_negatives: 3,
            hard_negatives: false,
            seed: 9,
            ..Default::default()
        };
        let learner = WeightLearner::new(&set, &refs, &config);
        // Fixed negatives for the check.
        let negatives: Vec<Vec<usize>> = (0..learner.num_anchors())
            .map(|a| (0..3).map(|j| (a * 7 + j * 11 + 1) % learner.corpus_len).collect())
            .collect();
        let loss = |u: &[f32]| -> f64 {
            let mut total = 0.0;
            for (a, negs) in negatives.iter().enumerate() {
                let pos = learner.positives[a];
                let s_pos = learner.joint(a, pos, u) as f64;
                let mut denom = s_pos.exp();
                for &o in negs {
                    denom += (learner.joint(a, o, u) as f64).exp();
                }
                total += -(s_pos.exp() / denom).ln();
            }
            total / learner.num_anchors() as f64
        };
        let u = [0.4f32, 0.7];
        // Analytic gradient in u.
        let mut grad = [0.0f64; 2];
        for (a, negs) in negatives.iter().enumerate() {
            let pos = learner.positives[a];
            let s_pos = learner.joint(a, pos, &u) as f64;
            let e_pos = s_pos.exp();
            let e_negs: Vec<f64> = negs
                .iter()
                .map(|&o| (learner.joint(a, o, &u) as f64).exp())
                .collect();
            let denom = e_pos + e_negs.iter().sum::<f64>();
            for (i, gr) in grad.iter_mut().enumerate() {
                let mut g = (e_pos / denom - 1.0) * learner.s(a, pos, i) as f64;
                for (e, &o) in e_negs.iter().zip(negs) {
                    g += (e / denom) * learner.s(a, o, i) as f64;
                }
                *gr += g / learner.num_anchors() as f64;
            }
        }
        // Numerical gradient.
        let h = 1e-3f32;
        for i in 0..2 {
            let mut up = u;
            up[i] += h;
            let mut dn = u;
            dn[i] -= h;
            let num = (loss(&up) - loss(&dn)) / (2.0 * h as f64);
            assert!(
                (num - grad[i]).abs() < 1e-3,
                "grad[{i}]: analytic {} vs numeric {num}",
                grad[i]
            );
        }
    }

    #[test]
    fn empty_anchor_set_falls_back_to_uniform() {
        let (set, _) = discriminative_text_setup();
        let out = learn_weights(&set, &[], &WeightLearnConfig::default());
        assert_eq!(out.weights, Weights::uniform(2));
    }

    /// FNV-1a over ω bits, the loss-curve bits and the recall-curve bits.
    fn outcome_hash(out: &LearnedWeights) -> u64 {
        let omega = out.weights.raw().iter().map(|w| u64::from(w.to_bits()));
        let curves = out.curve.loss.iter().chain(&out.curve.recall).map(|x| x.to_bits());
        omega.chain(curves).flat_map(u64::to_le_bytes).fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    #[test]
    fn learned_weights_and_curves_are_the_golden_ones() {
        // Hashes taken on c251044 (row-major table, serial epoch, re-sorting
        // sampler): the column table and the parallel epoch must reproduce
        // its ω, loss curve and recall curve bit for bit.
        let (set, anchors) = discriminative_text_setup();
        let refs = as_refs(&anchors);
        let base = WeightLearnConfig { epochs: 60, ..Default::default() };
        // The last row makes the sampler subsample anchors and stop its
        // corpus fill short of the whole set.
        let cases = [
            (WeightLearnConfig { hard_negatives: true, ..base.clone() }, 0xe591_1590_1396_50c3u64),
            (WeightLearnConfig { hard_negatives: false, ..base.clone() }, 0x426d_4c47_6e5d_bb8e),
            (WeightLearnConfig { max_anchors: 16, mining_corpus: 40, ..base }, 0x72cc_83f5_60ba_eaad),
        ];
        for (config, want) in cases {
            let out = learn_weights(&set, &refs, &config);
            assert_eq!(outcome_hash(&out), want, "{config:?}");
        }
    }

    #[test]
    fn outcome_does_not_depend_on_the_worker_count() {
        let (set, anchors) = discriminative_text_setup();
        let refs = as_refs(&anchors);
        for hard_negatives in [true, false] {
            let config = WeightLearnConfig { epochs: 30, hard_negatives, ..Default::default() };
            let learner = WeightLearner::new(&set, &refs, &config);
            let outcome = |threads| {
                let out = learner.train_on(&config, threads);
                (out.weights, out.curve.loss, out.curve.recall)
            };
            let serial = outcome(1);
            for threads in [2, 4] {
                assert_eq!(outcome(threads), serial, "{threads} workers, hard = {hard_negatives}");
            }
        }
    }

    #[test]
    fn training_is_deterministic() {
        let (set, anchors) = discriminative_text_setup();
        let refs = as_refs(&anchors);
        let config = WeightLearnConfig { epochs: 30, ..Default::default() };
        let a = learn_weights(&set, &refs, &config);
        let b = learn_weights(&set, &refs, &config);
        assert_eq!(a.weights, b.weights);
        assert_eq!(a.curve.loss, b.curve.loss);
    }
}
