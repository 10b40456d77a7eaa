//! The weight-learning ablations on ImageText1M: Figs. 9 and 13 — loss and
//! top-1 recall per epoch under different negative-sampling settings.

use must_core::weights::{LearnedWeights, WeightLearnConfig, WeightLearner};
use must_data::embed::{embed_dataset, EmbeddedDataset};
use must_vector::{MultiQuery, ObjectId};

use crate::report::{Artefact, Figure};

/// An ImageText1M corpus of `n` objects, embedded; every query is an anchor.
fn embedded_image_text(n: usize) -> EmbeddedDataset {
    let ds = must_data::catalog::image_text(n, 400, crate::DATASET_SEED);
    crate::banner(&ds);
    let registry = crate::registry();
    embed_dataset(&ds, &crate::efficiency::semisynthetic_config(), &registry)
}

/// Trains under `config` and adds the run's `{tag}:loss` and `{tag}:recall`
/// curves to `fig`.
fn train_curves(
    fig: &mut Figure,
    tag: &str,
    embedded: &EmbeddedDataset,
    config: &WeightLearnConfig,
) -> LearnedWeights {
    let anchors: Vec<(&MultiQuery, ObjectId)> =
        embedded.queries.iter().map(|q| (&q.query, q.anchor)).collect();
    let learner = WeightLearner::new(&embedded.objects, &anchors, config);
    let out = learner.train(config);
    let loss: Vec<(f64, f64)> =
        out.curve.loss.iter().enumerate().map(|(e, l)| (e as f64, *l)).collect();
    let recall: Vec<(f64, f64)> =
        out.curve.recall.iter().enumerate().map(|(e, r)| (e as f64, *r)).collect();
    fig.push_series(&format!("{tag}:loss"), loss);
    fig.push_series(&format!("{tag}:recall"), recall);
    out
}

/// Fig. 9 — vector-weight-learning ablation: hard negatives (Eq. 5) vs
/// random negatives — loss and top-1 recall per epoch on ImageText1M.
pub fn fig9_negatives(scale: f64) -> Vec<Artefact> {
    let embedded = embedded_image_text((40_000.0 * scale) as usize);

    let mut fig = Figure::new(
        "Fig. 9",
        "Weight learning with hard vs random negatives on ImageText1M",
        "epoch",
        "loss / recall",
    );
    for (hard, tag) in [(true, "hard"), (false, "random")] {
        let config = WeightLearnConfig {
            epochs: if hard { 200 } else { 500 },
            hard_negatives: hard,
            ..Default::default()
        };
        let out = train_curves(&mut fig, tag, &embedded, &config);
        println!(
            "[{tag}] learned weights (squared): {:?}  final recall {:.3}  train {:.1}s",
            out.weights.squared(),
            out.curve.recall.last().unwrap_or(&0.0),
            out.train_secs
        );
    }
    vec![Artefact::Figure(fig)]
}

/// Fig. 13 — effect of the number of negative examples `|N-|` on the
/// weight-learning model (loss and recall curves, ImageText1M).
pub fn fig13_num_negatives(scale: f64) -> Vec<Artefact> {
    let embedded = embedded_image_text((30_000.0 * scale) as usize);

    let mut fig = Figure::new(
        "Fig. 13",
        "Effect of the number of negatives |N-| on weight learning",
        "epoch",
        "loss / recall",
    );
    for n_neg in [1usize, 2, 4, 6, 8, 10] {
        let config = WeightLearnConfig {
            epochs: 150,
            num_negatives: n_neg,
            ..Default::default()
        };
        let out = train_curves(&mut fig, &format!("|N-|={n_neg}"), &embedded, &config);
        println!(
            "|N-| = {n_neg:>2}: final loss {:.4}, final recall {:.3}",
            out.curve.loss.last().unwrap_or(&0.0),
            out.curve.recall.last().unwrap_or(&0.0)
        );
    }
    vec![Artefact::Figure(fig)]
}
