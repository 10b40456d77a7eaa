//! The efficiency experiments (real indexes, single-threaded search, see
//! [`crate::efficiency`]): Figs. 6–8, 10, 14–15 and Tabs. VII, XI, XII.

use std::time::Instant;

use must_core::oracle::JointOracle;
use must_core::{Must, MustBuildOptions};
use must_data::embed::embed_dataset;
use must_data::LatentDataset;
use must_graph::pipeline::{CandidateStrategy, PipelineBuilder};
use must_graph::quality::graph_quality;
use must_graph::select::SelectionStrategy;
use must_graph::GraphRecipe;
use must_vector::Weights;

use crate::efficiency::{
    build_mr, mr_brute_point, mr_sweep, must_brute_point, must_sweep, prepare, to_series,
    EffSetup, MR_LS, MUST_LS,
};
use crate::report::{f4, Artefact, Figure, Table};
use crate::DATASET_SEED;

fn qps_recall_figure(tag: &str, ds: &LatentDataset) -> Artefact {
    crate::banner(ds);
    let setup = prepare(ds, 10, MustBuildOptions::default());
    let mut fig = Figure::new(
        &format!("Fig. 6{tag}"),
        &format!("QPS vs Recall@10(10) on {}", ds.name),
        "Recall@10(10)",
        "QPS",
    );
    fig.push_series("MUST", to_series(&must_sweep(&setup, MUST_LS)));
    let bf = must_brute_point(&setup);
    fig.push_series("MUST--", vec![(bf.recall, bf.qps)]);
    let mr = build_mr(&setup);
    fig.push_series("MR", to_series(&mr_sweep(&setup, &mr, MR_LS)));
    let mr_bf = mr_brute_point(&setup, 1000);
    fig.push_series("MR--", vec![(mr_bf.recall, mr_bf.qps)]);
    Artefact::Figure(fig)
}

/// Fig. 6 — efficiency: QPS vs Recall@10(10) for MUST, MUST--, MR and
/// MR-- on the three million-scale datasets (scaled per DESIGN.md §1).
pub fn fig6_qps_recall(scale: f64) -> Vec<Artefact> {
    let n = (40_000.0 * scale) as usize;
    let seed = DATASET_SEED;
    vec![
        qps_recall_figure("a", &must_data::catalog::image_text(n, 400, seed)),
        qps_recall_figure("b", &must_data::catalog::audio_text(n, 400, seed)),
        qps_recall_figure("c", &must_data::catalog::video_text(n, 400, seed)),
    ]
}

/// Tab. VII's MUST cell: the response time, marked `*` with the recall
/// reached when no pool size cleared the title's 0.99 bar.
fn tab7_must_cell(ms: f64, recall: f64) -> String {
    if recall > 0.99 {
        format!("{ms:.2}")
    } else {
        format!("*{ms:.2} (recall {})", f4(recall))
    }
}

/// Tab. VII + Fig. 7 — scalability in data volume n:
/// response time of MUST-- vs MUST at Recall@10(10) > 0.99 (Tab. VII),
/// and build time / index size of MUST vs MR (Fig. 7).
pub fn tab7_fig7_scalability(scale: f64) -> Vec<Artefact> {
    let volumes: Vec<usize> = [10_000usize, 20_000, 40_000, 80_000, 160_000]
        .iter()
        .map(|&n| ((n as f64 * scale) as usize).max(1_000))
        .collect();

    let mut time_table = Table::new(
        "Tab. VII",
        "Response time (ms/query) of MUST-- vs MUST at Recall@10(10) > 0.99",
        &["n", "MUST-- (ms)", "MUST (ms)", "reduction"],
    );
    let mut build_fig = Figure::new("Fig. 7a", "Build time vs data volume", "n", "build secs");
    let mut size_fig = Figure::new("Fig. 7b", "Index size vs data volume", "n", "index MB");
    let (mut must_build, mut mr_build) = (Vec::new(), Vec::new());
    let (mut must_size, mut mr_size) = (Vec::new(), Vec::new());

    for &n in &volumes {
        let ds = must_data::catalog::deep_image_text(n, 200, DATASET_SEED);
        crate::banner(&ds);
        let setup = prepare(&ds, 10, MustBuildOptions::default());

        // Tab. VII: find the smallest l whose recall clears 0.99 and time
        // it; when none does the largest l stands in, marked as a miss.
        let mut reached = must_sweep(&setup, &[40])[0];
        for l in [80usize, 160, 320, 640, 1280, 2560, 5120] {
            if reached.recall > 0.99 {
                break;
            }
            reached = must_sweep(&setup, &[l])[0];
        }
        let must_ms = 1000.0 / reached.qps;
        let bf = must_brute_point(&setup);
        let bf_ms = 1000.0 / bf.qps;
        time_table.push_row(vec![
            n.to_string(),
            format!("{bf_ms:.2}"),
            tab7_must_cell(must_ms, reached.recall),
            format!("-{:.1}%", (1.0 - must_ms / bf_ms) * 100.0),
        ]);

        // Fig. 7: build time + index size for MUST and MR.
        let report = setup.must.report();
        must_build.push((n as f64, report.build_secs));
        must_size.push((n as f64, report.index_bytes as f64 / (1024.0 * 1024.0)));
        let t0 = Instant::now();
        let mr = build_mr(&setup);
        mr_build.push((n as f64, t0.elapsed().as_secs_f64()));
        mr_size.push((n as f64, mr.index_bytes() as f64 / (1024.0 * 1024.0)));
    }

    build_fig.push_series("MUST", must_build);
    build_fig.push_series("MR", mr_build);
    size_fig.push_series("MUST", must_size);
    size_fig.push_series("MR", mr_size);
    vec![Artefact::Table(time_table), Artefact::Figure(build_fig), Artefact::Figure(size_fig)]
}

/// Fig. 8 — effect of the number of results k (1, 50, 100) on
/// ImageText1M: QPS vs Recall@k(k) for MUST and MR.
pub fn fig8_topk(scale: f64) -> Vec<Artefact> {
    let n = (40_000.0 * scale) as usize;
    let ds = must_data::catalog::image_text(n, 400, DATASET_SEED);
    crate::banner(&ds);

    let mut figs = Vec::new();
    for (tag, k) in [("a", 1usize), ("b", 50), ("c", 100)] {
        let setup = prepare(&ds, k, MustBuildOptions::default());
        let mut fig = Figure::new(
            &format!("Fig. 8{tag}"),
            &format!("QPS vs Recall@{k}({k}) on ImageText1M"),
            &format!("Recall@{k}({k})"),
            "QPS",
        );
        let ls: Vec<usize> = MUST_LS.iter().map(|&l| l.max(k)).collect();
        fig.push_series("MUST", to_series(&must_sweep(&setup, &ls)));
        let mr = build_mr(&setup);
        // MR needs candidates >= k per channel; sweep upwards from there.
        let mr_ls: Vec<usize> = [1usize, 3, 10, 30, 100]
            .iter()
            .map(|m| (k * m).max(10))
            .collect();
        fig.push_series("MR", to_series(&mr_sweep(&setup, &mr, &mr_ls)));
        figs.push(Artefact::Figure(fig));
    }
    figs
}

/// Fig. 10 — ablations on ImageText1M:
/// (a) construction time across proximity-graph backends,
/// (b) QPS vs recall across backends,
/// (c) the multi-vector computation optimisation (Lemma 4) on/off.
pub fn fig10_graph_ablation(scale: f64) -> Vec<Artefact> {
    let n = (30_000.0 * scale) as usize;
    let ds = must_data::catalog::image_text(n, 300, DATASET_SEED);
    crate::banner(&ds);

    // One shared setup provides weights + ground truth; per-recipe builds
    // reuse the same corpus/workload through rebuilds.
    let base = prepare(&ds, 10, MustBuildOptions::default());

    let mut build_table = Table::new(
        "Fig. 10a",
        "Index construction time across proximity graphs",
        &["Graph", "Build time (s)", "Index size (MB)"],
    );
    let mut search_fig = Figure::new(
        "Fig. 10b",
        "QPS vs Recall@10(10) across graph backends",
        "Recall@10(10)",
        "QPS",
    );

    for recipe in GraphRecipe::all() {
        let must = Must::build(
            base.must.objects().clone(),
            base.weights.clone(),
            MustBuildOptions { recipe, ..Default::default() },
        )
        .expect("build");
        let report = must.report().clone();
        build_table.push_row(vec![
            recipe.label().into(),
            format!("{:.2}", report.build_secs),
            format!("{:.1}", report.index_bytes as f64 / (1024.0 * 1024.0)),
        ]);
        // Swap the built index into a setup clone for the sweep.
        let setup = EffSetup {
            must,
            queries: base.queries.clone(),
            ground_truth: base.ground_truth.clone(),
            k: base.k,
            weights: base.weights.clone(),
        };
        search_fig.push_series(
            &format!("MUST-{}", recipe.label()),
            to_series(&must_sweep(&setup, MUST_LS)),
        );
    }

    // (c) Lemma-4 pruning on/off on the fused index.
    let mut prune_fig = Figure::new(
        "Fig. 10c",
        "Multi-vector computation optimisation (Lemma 4)",
        "Recall@10(10)",
        "QPS",
    );
    let mut setup = prepare(&ds, 10, MustBuildOptions::default());
    prune_fig.push_series("w. optimization", to_series(&must_sweep(&setup, MUST_LS)));
    setup.must.set_prune(false);
    prune_fig.push_series("w/o optimization", to_series(&must_sweep(&setup, MUST_LS)));
    vec![Artefact::Table(build_table), Artefact::Figure(search_fig), Artefact::Figure(prune_fig)]
}

/// Tab. XI — graph quality vs number of NNDescent iterations (epsilon) on
/// the three large datasets.
pub fn tab11_graph_quality(scale: f64) -> Vec<Artefact> {
    let n = (20_000.0 * scale) as usize;
    let seed = DATASET_SEED;
    let registry = crate::registry();
    let config = crate::efficiency::semisynthetic_config();

    let mut table = Table::new(
        "Tab. XI",
        "Graph quality under different numbers of NNDescent iterations",
        &["# Iterations", "ImageText1M", "AudioText1M", "VideoText1M"],
    );
    let datasets = [
        must_data::catalog::image_text(n, 50, seed),
        must_data::catalog::audio_text(n, 50, seed),
        must_data::catalog::video_text(n, 50, seed),
    ];
    let embedded: Vec<_> =
        datasets.iter().map(|ds| embed_dataset(ds, &config, &registry)).collect();

    let uniform = Weights::uniform(2);
    for eps in 1..=3usize {
        let mut row = vec![eps.to_string()];
        for e in &embedded {
            let oracle = JointOracle::new(&e.objects, &uniform).unwrap();
            // Measure the *initialisation* component's quality: top-gamma
            // lists straight out of NNDescent (no pruning afterwards).
            let builder = PipelineBuilder {
                gamma: 10,
                init_iterations: eps,
                candidates: CandidateStrategy::InitOnly,
                selection: SelectionStrategy::TopGamma,
                connectivity: false,
                ..PipelineBuilder::default()
            };
            let (graph, _) = builder.build(&oracle);
            let q = graph_quality(&oracle, &graph, 10, 200, 7);
            row.push(f4(q));
        }
        table.push_row(row);
    }
    vec![Artefact::Table(table)]
}

/// Tab. XII — the result-pool size l: recall and response time trade-off
/// (Appendix I) on ImageText1M.
pub fn tab12_l_param(scale: f64) -> Vec<Artefact> {
    let n = (40_000.0 * scale) as usize;
    let ds = must_data::catalog::image_text(n, 300, DATASET_SEED);
    crate::banner(&ds);
    let setup = prepare(&ds, 10, MustBuildOptions::default());

    let mut table = Table::new(
        "Tab. XII",
        "Search performance under different values of l (gamma = 30)",
        &["l", "Recall@10(10)", "Response time (ms)"],
    );
    for point in must_sweep(&setup, &[100, 200, 400, 700, 1000, 1500, 2000, 4000]) {
        table.push_row(vec![
            point.l.to_string(),
            f4(point.recall),
            format!("{:.2}", 1000.0 / point.qps),
        ]);
    }
    vec![Artefact::Table(table)]
}

/// Figs. 14–15 — the maximum-neighbour bound gamma: index size, build
/// time, recall and response time (Appendix H) on ImageText1M.
pub fn fig14_15_gamma(scale: f64) -> Vec<Artefact> {
    let n = (30_000.0 * scale) as usize;
    let ds = must_data::catalog::image_text(n, 300, DATASET_SEED);
    crate::banner(&ds);

    let mut table = Table::new(
        "Fig. 14 15",
        "Effect of gamma on index and search (l = 4000-equivalent pool)",
        &["gamma", "Index size (MB)", "Build time (s)", "Recall@10(10)", "Response (ms)"],
    );
    for gamma in [10usize, 20, 30, 40, 50] {
        let setup = prepare(&ds, 10, MustBuildOptions { gamma, ..Default::default() });
        let report = setup.must.report().clone();
        let pts = must_sweep(&setup, &[1000]);
        table.push_row(vec![
            gamma.to_string(),
            format!("{:.1}", report.index_bytes as f64 / (1024.0 * 1024.0)),
            format!("{:.2}", report.build_secs),
            format!("{:.4}", pts[0].recall),
            format!("{:.2}", 1000.0 / pts[0].qps),
        ]);
    }
    vec![Artefact::Table(table)]
}

#[cfg(test)]
mod tests {
    #[test]
    fn tab7_marks_a_row_that_missed_the_recall_bar() {
        assert_eq!(super::tab7_must_cell(1.234, 0.9951), "1.23");
        assert_eq!(super::tab7_must_cell(1.234, 0.99), "*1.23 (recall 0.9900)");
        assert_eq!(super::tab7_must_cell(20.0, 0.8125), "*20.00 (recall 0.8125)");
    }
}
