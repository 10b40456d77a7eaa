//! The `experiments` runner: its table of names, three clock-free
//! experiments against the text the 21-binary harness produced at
//! `MUST_SCALE=0.02`, the paper's shape claims those tables carry, and the
//! binary's exit codes.

use std::process::{Command, Output};

use must_bench::experiments::{
    sec8f_weight_generalization, tab11_graph_quality, tab9_user_weights,
};
use must_bench::report::{Artefact, Table};

const SCALE: f64 = 0.02;

/// The one table an experiment returned.
fn only_table(artefacts: Vec<Artefact>) -> Table {
    match <[Artefact; 1]>::try_from(artefacts) {
        Ok([Artefact::Table(table)]) => table,
        other => panic!("expected exactly one table, got {other:?}"),
    }
}

/// Column `col` of `table`, parsed.
fn column(table: &Table, col: usize) -> Vec<f64> {
    table.rows.iter().map(|row| row[col].parse().expect("numeric cell")).collect()
}

fn non_decreasing(xs: &[f64]) -> bool {
    xs.windows(2).all(|w| w[0] <= w[1])
}

fn experiments(args: &[&str], scale: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .env("MUST_SCALE", scale)
        .env("MUST_OUT_DIR", env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("the experiments binary runs")
}

#[test]
fn unknown_name_exits_2_listing_the_21_experiments_in_run_all_order() {
    let out = experiments(&["tab9_user_weights", "tab99_nothing"], "0.02");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "nothing may run when a name is unknown");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("\"tab99_nothing\""), "{stderr}");
    let listed: Vec<&str> = stderr
        .lines()
        .filter_map(|line| line.strip_prefix("  "))
        .map(|line| line.split_whitespace().next().unwrap())
        .collect();
    // The parent's `run_all.rs` list, verbatim.
    assert_eq!(
        listed,
        [
            "tab3_accuracy_mitstates",
            "tab4_accuracy_celeba",
            "tab5_accuracy_shopping",
            "tab6_accuracy_mscoco",
            "fig5_case_study",
            "fig6_qps_recall",
            "tab7_fig7_scalability",
            "tab8_modalities",
            "fig8_topk",
            "sec8f_weight_generalization",
            "tab9_user_weights",
            "tab10_19_20_single_modality",
            "fig9_negatives",
            "fig10_graph_ablation",
            "fig11_neighbors",
            "tab11_graph_quality",
            "tab12_l_param",
            "fig13_num_negatives",
            "fig14_15_gamma",
            "tab13_18_learned_weights",
            "tab21_shopping_bottoms",
        ]
    );
}

#[test]
fn malformed_scale_exits_2_before_anything_runs() {
    for scale in ["0,5", "0", "abc"] {
        let out = experiments(&["tab9_user_weights"], scale);
        assert_eq!(out.status.code(), Some(2), "MUST_SCALE={scale}");
        assert!(out.stdout.is_empty());
        assert!(String::from_utf8(out.stderr).unwrap().contains("MUST_SCALE"));
    }
}

#[test]
fn an_artefact_that_cannot_be_written_fails_the_experiment() {
    // A path under a regular file: the output directory cannot be created.
    let under_a_file = std::env::current_exe().unwrap().join("out");
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .arg("tab9_user_weights")
        .env("MUST_SCALE", "0.02")
        .env("MUST_OUT_DIR", under_a_file)
        .output()
        .expect("the experiments binary runs");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("tab9_user_weights: artefact not written"), "{stderr}");
}

/// Tab. IX (§VIII-F, Fig. 4(g)): raising ω₀² moves the returned object
/// towards the query in modality 0 and away from it in modality 1.
#[test]
fn tab9_matches_the_parent_and_follows_the_user_weights() {
    let table = only_table(tab9_user_weights(SCALE));
    assert_eq!(
        table.render(),
        [
            "== Tab. IX: Effect of different user-defined weights (q = query, r = returned) ==",
            "w0^2  w1^2  IP(q0, r0)  IP(q1, r1)",
            "----------------------------------",
            "0.5   0.5   0.4969      0.8344    ",
            "0.6   0.4   0.5056      0.8244    ",
            "0.7   0.3   0.5131      0.8113    ",
            "0.8   0.2   0.5141      0.8086    ",
            "0.9   0.1   0.5278      0.7208    ",
            "",
        ]
        .join("\n")
    );
    assert_eq!(column(&table, 0), [0.5, 0.6, 0.7, 0.8, 0.9]);
    assert!(non_decreasing(&column(&table, 2)), "IP(q0, r0) must not fall as w0^2 grows");
    let ip1: Vec<f64> = column(&table, 3).iter().map(|x| -x).collect();
    assert!(non_decreasing(&ip1), "IP(q1, r1) must not rise as w0^2 grows");
}

/// Tab. XI (Appendix G): graph quality does not fall with more NNDescent
/// iterations, on any of the three datasets.
#[test]
fn tab11_matches_the_parent_and_quality_grows_with_iterations() {
    let table = only_table(tab11_graph_quality(SCALE));
    assert_eq!(
        table.render(),
        [
            "== Tab. XI: Graph quality under different numbers of NNDescent iterations ==",
            "# Iterations  ImageText1M  AudioText1M  VideoText1M",
            "---------------------------------------------------",
            "1             0.5319       0.5239       0.5202     ",
            "2             0.9061       0.9239       0.9252     ",
            "3             0.9724       0.9828       0.9779     ",
            "",
        ]
        .join("\n")
    );
    for dataset in 1..=3 {
        assert!(non_decreasing(&column(&table, dataset)), "{}", table.headers[dataset]);
    }
}

#[test]
fn sec8f_matches_the_parent() {
    let table = only_table(sec8f_weight_generalization(SCALE));
    assert_eq!(
        table.render(),
        [
            "== Sec. VIII-F: Recall@1 with the same fixed weights on both query cases ==",
            "Query case                                              Recall@1(1)  queries",
            "----------------------------------------------------------------------------",
            "Case 2: text describes a new state                      0.5778       45     ",
            "Case 1: text describes the present state (class match)  0.0000       45     ",
            "",
        ]
        .join("\n")
    );
}
