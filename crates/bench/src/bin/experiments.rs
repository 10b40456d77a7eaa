//! Regenerates the paper's tables and figures into `EXPERIMENTS-out/`
//! (`MUST_OUT_DIR` overrides): `experiments` runs all of [`EXPERIMENTS`]
//! in order, `experiments <name>...` only the named ones.  Honours
//! `MUST_SCALE` to shrink or grow the datasets.  Exit code 1 when any
//! experiment panicked or could not write an artefact (the others still
//! run), 2 on an unknown name or a malformed `MUST_SCALE`.

use std::process::ExitCode;

use must_bench::experiments::*;
use must_bench::report::Artefact;

/// Name, what it reproduces, and the experiment: scale in, artefacts out.
type Experiment = (&'static str, &'static str, fn(f64) -> Vec<Artefact>);

const EXPERIMENTS: &[Experiment] = &[
    ("tab3_accuracy_mitstates", "Tab. III", tab3_accuracy_mitstates),
    ("tab4_accuracy_celeba", "Tab. IV", tab4_accuracy_celeba),
    ("tab5_accuracy_shopping", "Tab. V", tab5_accuracy_shopping),
    ("tab6_accuracy_mscoco", "Tab. VI", tab6_accuracy_mscoco),
    ("fig5_case_study", "Fig. 5", fig5_case_study),
    ("fig6_qps_recall", "Fig. 6", fig6_qps_recall),
    ("tab7_fig7_scalability", "Tab. VII, Fig. 7", tab7_fig7_scalability),
    ("tab8_modalities", "Tab. VIII", tab8_modalities),
    ("fig8_topk", "Fig. 8", fig8_topk),
    ("sec8f_weight_generalization", "Sec. VIII-F", sec8f_weight_generalization),
    ("tab9_user_weights", "Tab. IX", tab9_user_weights),
    ("tab10_19_20_single_modality", "Tabs. X, XIX, XX", tab10_19_20_single_modality),
    ("fig9_negatives", "Fig. 9", fig9_negatives),
    ("fig10_graph_ablation", "Fig. 10", fig10_graph_ablation),
    ("fig11_neighbors", "Fig. 11", fig11_neighbors),
    ("tab11_graph_quality", "Tab. XI", tab11_graph_quality),
    ("tab12_l_param", "Tab. XII", tab12_l_param),
    ("fig13_num_negatives", "Fig. 13", fig13_num_negatives),
    ("fig14_15_gamma", "Figs. 14-15", fig14_15_gamma),
    ("tab13_18_learned_weights", "Tabs. XIII-XVIII", tab13_18_learned_weights),
    ("tab21_shopping_bottoms", "Tab. XXI", tab21_shopping_bottoms),
];

fn main() -> ExitCode {
    let wanted: Vec<String> = std::env::args().skip(1).collect();
    if let Some(unknown) = wanted.iter().find(|w| EXPERIMENTS.iter().all(|e| e.0 != *w)) {
        eprintln!("unknown experiment {unknown:?}; the experiments are:");
        for (name, paper, _) in EXPERIMENTS {
            eprintln!("  {name}  ({paper})");
        }
        return ExitCode::from(2);
    }
    let scale = match must_bench::scale() {
        Ok(scale) => scale,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };

    let mut ran = 0;
    let mut failures = Vec::new();
    for &(name, paper, run) in EXPERIMENTS {
        if !wanted.is_empty() && wanted.iter().all(|w| w != name) {
            continue;
        }
        eprintln!("\n===== running {name} ({paper}) =====");
        let t0 = std::time::Instant::now();
        let outcome = std::panic::catch_unwind(|| run(scale))
            .map_err(|_| "panicked".to_string())
            .and_then(|artefacts| {
                artefacts
                    .iter()
                    .try_for_each(Artefact::emit)
                    .map_err(|e| format!("artefact not written: {e}"))
            });
        eprintln!("===== {name} finished in {:.1}s =====", t0.elapsed().as_secs_f64());
        ran += 1;
        if let Err(why) = outcome {
            failures.push(format!("{name}: {why}"));
        }
    }
    if failures.is_empty() {
        let dir = must_bench::out_dir().unwrap_or_default();
        eprintln!("\nAll {ran} experiments completed; artefacts in {}/.", dir.display());
        ExitCode::SUCCESS
    } else {
        eprintln!("\nFAILED experiments: {failures:#?}");
        ExitCode::FAILURE
    }
}
