//! The accuracy experiments (exact search throughout, see
//! [`crate::accuracy`]): Tabs. III–VI, VIII–X, XIII–XXI, Figs. 5 and 11,
//! §VIII-F.

use must_core::baselines::mr_brute_force;
use must_core::search::{brute_force_search, modality_top_k};
use must_core::weights::WeightLearnConfig;
use must_core::{Must, MustBuildOptions};
use must_data::catalog::ShoppingCategory;
use must_data::embed::EmbeddedQuery;
use must_data::{LatentDataset, ObjectLabels};
use must_encoders::{
    Composer, ComposerKind, EncoderConfig, EncoderRegistry, Latent, TargetEncoding, UnimodalKind,
};
use must_vector::{kernels, MultiQuery, Weights};

use crate::accuracy::{
    accuracy_table, prepare, run_mr, run_must_learned, run_single_modality, Framework, RowSpec,
};
use crate::report::{f4, Artefact, Figure, Table};
use crate::DATASET_SEED;

/// The rows of an accuracy table: JE under each of `je`, then MR and MUST
/// under each of `both`.
fn framework_rows(je: &[EncoderConfig], both: &[EncoderConfig]) -> Vec<RowSpec> {
    [(Framework::Je, je), (Framework::Mr, both), (Framework::Must, both)]
        .into_iter()
        .flat_map(|(fw, configs)| configs.iter().map(move |c| RowSpec::new(fw, c.clone())))
        .collect()
}

/// JE's configurations: each of `composers` over the auxiliary encoders `aux`.
fn composed(composers: &[ComposerKind], aux: &[UnimodalKind]) -> Vec<EncoderConfig> {
    composers
        .iter()
        .map(|&c| EncoderConfig::new(TargetEncoding::Composed(c), aux.to_vec()))
        .collect()
}

/// The encoder configurations MR and MUST run under on MIT-States
/// (Tab. III; Tab. XIII reports their learned weights).
fn mit_states_configs() -> Vec<EncoderConfig> {
    use ComposerKind::*;
    use UnimodalKind::*;
    let ind = TargetEncoding::Independent;
    let comp = TargetEncoding::Composed;
    vec![
        EncoderConfig::new(ind(ResNet17), vec![Lstm]),
        EncoderConfig::new(ind(ResNet50), vec![Lstm]),
        EncoderConfig::new(ind(ResNet17), vec![Transformer]),
        EncoderConfig::new(ind(ResNet50), vec![Transformer]),
        EncoderConfig::new(comp(Tirg), vec![Lstm]),
        EncoderConfig::new(comp(Tirg), vec![Transformer]),
        EncoderConfig::new(comp(Clip), vec![Lstm]),
        EncoderConfig::new(comp(Clip), vec![Transformer]),
    ]
}

/// … on CelebA (Tabs. IV, XIV): face image + structured attribute text.
fn celeba_configs() -> Vec<EncoderConfig> {
    use ComposerKind::*;
    use UnimodalKind::*;
    vec![
        EncoderConfig::new(TargetEncoding::Independent(ResNet17), vec![Encoding]),
        EncoderConfig::new(TargetEncoding::Independent(ResNet50), vec![Encoding]),
        EncoderConfig::new(TargetEncoding::Composed(Tirg), vec![Encoding]),
        EncoderConfig::new(TargetEncoding::Composed(Clip), vec![Encoding]),
    ]
}

/// … on Shopping, either category (Tabs. V, XV, XXI).
fn shopping_configs() -> Vec<EncoderConfig> {
    let aux = vec![UnimodalKind::Encoding];
    vec![
        EncoderConfig::new(TargetEncoding::Independent(UnimodalKind::ResNet17), aux.clone()),
        EncoderConfig::new(TargetEncoding::Composed(ComposerKind::Tirg), aux),
    ]
}

/// … on MS-COCO (Tabs. VI, XVI).
fn ms_coco_configs() -> Vec<EncoderConfig> {
    use UnimodalKind::*;
    let aux = vec![ResNet50, Gru]; // second image + text
    vec![
        EncoderConfig::new(TargetEncoding::Composed(ComposerKind::Mpc), aux.clone()),
        EncoderConfig::new(TargetEncoding::Independent(ResNet50), aux),
    ]
}

/// Tab. III — search accuracy on MIT-States across frameworks and encoder
/// combinations.
pub fn tab3_accuracy_mitstates(scale: f64) -> Vec<Artefact> {
    let je = composed(&[ComposerKind::Tirg, ComposerKind::Clip], &[UnimodalKind::Lstm]);
    let table = accuracy_table(
        "Tab. III",
        "Search accuracy on MIT-States",
        &must_data::catalog::mit_states(scale, DATASET_SEED),
        &framework_rows(&je, &mit_states_configs()),
        &[1, 5, 10],
        500,
    );
    vec![Artefact::Table(table)]
}

/// Tab. IV — search accuracy on CelebA (face image + structured attribute
/// text).
pub fn tab4_accuracy_celeba(scale: f64) -> Vec<Artefact> {
    let je = composed(&[ComposerKind::Tirg, ComposerKind::Clip], &[UnimodalKind::Encoding]);
    let table = accuracy_table(
        "Tab. IV",
        "Search accuracy on CelebA",
        &must_data::catalog::celeba(scale, DATASET_SEED),
        &framework_rows(&je, &celeba_configs()),
        &[1, 5, 10],
        500,
    );
    vec![Artefact::Table(table)]
}

/// Tabs. V and XXI: one Shopping category.
fn shopping_accuracy(id: &str, category: ShoppingCategory, scale: f64) -> Vec<Artefact> {
    let je = composed(&[ComposerKind::Tirg], &[UnimodalKind::Encoding]);
    let ds = must_data::catalog::shopping(category, scale, DATASET_SEED);
    let title = format!("Search accuracy on {}", ds.name);
    let rows = framework_rows(&je, &shopping_configs());
    let table = accuracy_table(id, &title, &ds, &rows, &[1, 5, 10], 500);
    vec![Artefact::Table(table)]
}

/// Tab. V — search accuracy on Shopping (T-shirt category).
pub fn tab5_accuracy_shopping(scale: f64) -> Vec<Artefact> {
    shopping_accuracy("Tab. V", ShoppingCategory::TShirt, scale)
}

/// Tab. VI — search accuracy on MS-COCO (three modalities: target image,
/// second reference image, text; recall reported at k = 10/50/100).
pub fn tab6_accuracy_mscoco(scale: f64) -> Vec<Artefact> {
    let je = composed(&[ComposerKind::Mpc], &[UnimodalKind::ResNet50, UnimodalKind::Gru]);
    let table = accuracy_table(
        "Tab. VI",
        "Search accuracy on MS-COCO",
        &must_data::catalog::ms_coco(scale, DATASET_SEED),
        &framework_rows(&je, &ms_coco_configs()),
        &[10, 50, 100],
        800,
    );
    vec![Artefact::Table(table)]
}

/// Tab. XXI — search accuracy on Shopping (Bottoms category), the appendix
/// companion of Tab. V.
pub fn tab21_shopping_bottoms(scale: f64) -> Vec<Artefact> {
    shopping_accuracy("Tab. XXI", ShoppingCategory::Bottoms, scale)
}

fn describe(labels: &[ObjectLabels], id: u32, want: ObjectLabels) -> String {
    let l = labels[id as usize];
    let mark = if l.class == want.class && l.attr == want.attr { " <-- ground truth cell" } else { "" };
    format!("object {id:>6}  class {:>4}  attr {:>4}{mark}", l.class, l.attr)
}

/// Fig. 5 — case study on MIT-States: top-5 results of MUST, MR and JE for
/// one "change state" query, with ground-truth labels shown (the textual
/// analogue of the paper's image grid).
pub fn fig5_case_study(scale: f64) -> Vec<Artefact> {
    let ds = must_data::catalog::mit_states(scale, DATASET_SEED);
    crate::banner(&ds);
    let registry = crate::registry();
    // Best encoders per Tab. III: CLIP for JE, CLIP+LSTM for MR and MUST.
    let config = EncoderConfig::new(
        TargetEncoding::Composed(ComposerKind::Clip),
        vec![UnimodalKind::Lstm],
    );
    let prepared = prepare(&ds, &config, &registry);
    let learned = prepared.learn(&WeightLearnConfig::default());
    let objects = &prepared.embedded.objects;

    let q = prepared
        .eval_queries()
        .next()
        .expect("workload is non-empty");
    println!(
        "Query: reference object class {} in attr {}, text asks for attr {} (anchor = object {})",
        q.want.class,
        ds.labels[q.anchor as usize].attr,
        q.want.attr,
        q.anchor
    );
    println!("(the real query shows e.g. fresh cheese + \"change state to moldy\")\n");

    // MUST: weighted joint top-5.
    let must_top5 = |q: &EmbeddedQuery| -> Vec<u32> {
        let out =
            brute_force_search(objects, &q.query, &learned.weights, 5, true).unwrap();
        out.results.iter().map(|r| r.0).collect()
    };
    // MR: per-modality candidates + merge.
    let mr_top5 = |q: &EmbeddedQuery| -> Vec<u32> { mr_brute_force(objects, &q.query, 5, 500).0 };
    // JE: composition vector over the target modality.
    let je_top5 = |q: &EmbeddedQuery| -> Vec<u32> {
        let top = modality_top_k(objects.modality(0), q.query.slot(0).unwrap(), 5);
        top.iter().map(|r| r.0).collect()
    };

    for (heading, top5) in [
        (format!("(a) MUST  (weights^2 = {:?})", learned.weights.squared()), must_top5(q)),
        (format!("\n(b) {}", Framework::Mr.label()), mr_top5(q)),
        (format!("\n(c) {}", Framework::Je.label()), je_top5(q)),
    ] {
        println!("{heading}");
        for id in top5 {
            println!("    {}", describe(&prepared.embedded.labels, id, q.want));
        }
    }

    // Artefact: per-framework hit counts over a query sample.
    let mut fig = Figure::new(
        "Fig. 5",
        "Top-5 ground-truth-cell hits per framework (100-query sample)",
        "framework (0 = MUST, 1 = MR, 2 = JE)",
        "mean hits in top-5",
    );
    let mut sums = [0.0f64; 3];
    let mut n = 0;
    for q in prepared.eval_queries().take(100) {
        let hit = |ids: &[u32]| {
            ids.iter()
                .filter(|&&id| {
                    let l = prepared.embedded.labels[id as usize];
                    l.class == q.want.class && l.attr == q.want.attr
                })
                .count() as f64
        };
        sums[0] += hit(&must_top5(q));
        sums[1] += hit(&mr_top5(q));
        sums[2] += hit(&je_top5(q));
        n += 1;
    }
    fig.push_series(
        "hits",
        sums.iter().enumerate().map(|(i, s)| (i as f64, s / n as f64)).collect(),
    );
    vec![Artefact::Figure(fig)]
}

/// Tab. VIII — recall vs number of modalities (m = 2, 3, 4) on CelebA+:
/// the paper's scalability-in-m experiment.
pub fn tab8_modalities(scale: f64) -> Vec<Artefact> {
    let registry = crate::registry();
    let mut table = Table::new(
        "Tab. VIII",
        "Recall@1(1) with different numbers of modalities on CelebA+",
        &["Framework", "m=2", "m=3", "m=4"],
    );
    let mut mr_row = vec![Framework::Mr.label().to_string()];
    let mut must_row = vec![Framework::Must.label().to_string()];
    for m in 2..=4usize {
        let ds = must_data::catalog::celeba_plus(m, scale, DATASET_SEED);
        crate::banner(&ds);
        // CLIP + Encoding (+ ResNet17 + ResNet50) as in Tab. XVII.
        let mut aux = vec![UnimodalKind::Encoding];
        if m >= 3 {
            aux.push(UnimodalKind::ResNet17);
        }
        if m >= 4 {
            aux.push(UnimodalKind::ResNet50);
        }
        let config = EncoderConfig::new(TargetEncoding::Composed(ComposerKind::Clip), aux);
        let prepared = prepare(&ds, &config, &registry);
        let mr = run_mr(&prepared, &[1], 500);
        let must = run_must_learned(&prepared, &[1], &WeightLearnConfig::default());
        mr_row.push(f4(mr.recalls[0]));
        must_row.push(f4(must.recalls[0]));
    }
    table.push_row(mr_row);
    table.push_row(must_row);
    vec![Artefact::Table(table)]
}

/// §VIII-F — learned-weight generalisation: a query whose text
/// describes something *not* in the reference image (Case 2: "change
/// state to X") and one whose text describes what *is* in the image
/// (Case 1: "keep the current state") are executed with the *same* fixed
/// learned weights; the weights generalise because they encode modality
/// importance, not content.
pub fn sec8f_weight_generalization(scale: f64) -> Vec<Artefact> {
    let ds = must_data::catalog::mit_states(scale, DATASET_SEED);
    crate::banner(&ds);
    let registry = crate::registry();
    let config = EncoderConfig::new(
        TargetEncoding::Composed(ComposerKind::Clip),
        vec![UnimodalKind::Lstm],
    );
    let prepared = prepare(&ds, &config, &registry);
    let learned = prepared.learn(&WeightLearnConfig::default());
    // The learned configuration weights the query side of the unscaled
    // storage, not an engine rebuild (the same seam `search_weighted`
    // serves online).
    let (rows, weights) = (&prepared.embedded.objects, &learned.weights);
    println!("fixed learned weights^2 = {:?}\n", learned.weights.squared());

    // Rebuild Case-1 variants of evaluation queries: text describes the
    // reference's *own* attribute instead of a new one.
    let composer = registry.composer(ComposerKind::Clip);
    let lstm = registry.unimodal(UnimodalKind::Lstm);
    use must_encoders::Embedder;

    let mut table = Table::new(
        "Sec. VIII-F",
        "Recall@1 with the same fixed weights on both query cases",
        &["Query case", "Recall@1(1)", "queries"],
    );
    let (mut recall2, mut recall1, mut n) = (0.0f64, 0.0f64, 0usize);
    for (qi, q) in ds.queries.iter().enumerate().skip(prepared.train.len()).take(300) {
        let eq = &prepared.embedded.queries[qi];
        // Case 2 (original): text asks for a *different* attribute.
        let out2 = brute_force_search(rows, &eq.query, weights, 1, true).unwrap();
        if out2.results.first().map(|r| r.0) == Some(q.anchor) {
            recall2 += 1.0;
        }
        // Case 1: text re-describes the reference's own state; the correct
        // answer is then the object matching (class, reference attr).
        let reference = q.latents[0].as_ref().unwrap().clone();
        let space = ds.space;
        let ref_attr_desc = Latent::descriptive(space.class_dims, reference.attr_part(&space));
        let slot0 = composer.compose(&[&reference, &ref_attr_desc]);
        let slot1 = lstm.embed(&ref_attr_desc);
        let q1 = MultiQuery::full(vec![slot0, slot1]);
        let out1 = brute_force_search(rows, &q1, weights, 1, true).unwrap();
        // Ground truth for case 1: nearest object with the reference's
        // class; accept any object of the anchor's class.
        if let Some((top, _)) = out1.results.first() {
            if prepared.embedded.labels[*top as usize].class == q.want.class {
                recall1 += 1.0;
            }
        }
        n += 1;
    }
    let n_f = n.max(1) as f64;
    table.push_row(vec![
        "Case 2: text describes a new state".into(),
        f4(recall2 / n_f),
        n.to_string(),
    ]);
    table.push_row(vec![
        "Case 1: text describes the present state (class match)".into(),
        f4(recall1 / n_f),
        n.to_string(),
    ]);
    vec![Artefact::Table(table)]
}

/// Tab. IX — effect of user-defined weights on MIT-States: increasing
/// `omega_0^2` makes the returned objects more similar to the query in
/// modality 0, at the cost of modality 1 (the customisation property of
/// Fig. 4(g), Option 2).
///
/// The whole sweep runs over **one** unscaled fused-row engine: each
/// weight setting is a [`Weights`] the exact scan bakes into the query
/// row — no per-setting engine rebuild.
pub fn tab9_user_weights(scale: f64) -> Vec<Artefact> {
    let ds = must_data::catalog::mit_states(scale, DATASET_SEED);
    crate::banner(&ds);
    let registry = crate::registry();
    let config = EncoderConfig::new(
        TargetEncoding::Composed(ComposerKind::Clip),
        vec![UnimodalKind::Lstm],
    );
    let prepared = prepare(&ds, &config, &registry);
    let objects = &prepared.embedded.objects;

    let mut table = Table::new(
        "Tab. IX",
        "Effect of different user-defined weights (q = query, r = returned)",
        &["w0^2", "w1^2", "IP(q0, r0)", "IP(q1, r1)"],
    );
    for w0_sq in [0.5f32, 0.6, 0.7, 0.8, 0.9] {
        let w1_sq = 1.0 - w0_sq;
        let weights = Weights::from_squared(vec![w0_sq, w1_sq]).unwrap();
        let (mut sim0, mut sim1, mut n) = (0.0f64, 0.0f64, 0usize);
        for q in prepared.eval_queries().take(300) {
            let out = brute_force_search(objects, &q.query, &weights, 1, true)
                .expect("valid query");
            let Some(&(top, _)) = out.results.first() else { continue };
            let (Some(s0), Some(s1)) = (q.query.slot(0), q.query.slot(1)) else { continue };
            sim0 += kernels::ip(s0, objects.modality(0).get(top)) as f64;
            sim1 += kernels::ip(s1, objects.modality(1).get(top)) as f64;
            n += 1;
        }
        let n = n.max(1) as f64;
        table.push_row(vec![
            format!("{w0_sq:.1}"),
            format!("{w1_sq:.1}"),
            f4(sim0 / n),
            f4(sim1 / n),
        ]);
    }
    vec![Artefact::Table(table)]
}

/// One Tabs. X/XIX/XX row: recall at 1/5/10 of queries that supply only
/// `modality` (0 = target, 1 = auxiliary), embedded by `encoder`.
fn single_modality_row(
    table: &mut Table,
    ds: &LatentDataset,
    registry: &EncoderRegistry,
    config: &EncoderConfig,
    modality: usize,
    encoder: UnimodalKind,
) {
    let prepared = prepare(ds, config, registry);
    let run = run_single_modality(&prepared, &[1, 5, 10], modality);
    let mut row = vec![
        ds.name.clone(),
        if modality == 0 { "Target" } else { "Auxiliary" }.into(),
        encoder.label().into(),
    ];
    row.extend(run.recalls.iter().map(|r| f4(*r)));
    table.push_row(row);
}

fn single_modality_rows(
    table: &mut Table,
    ds: &LatentDataset,
    registry: &EncoderRegistry,
    target_encoders: &[UnimodalKind],
    aux_encoder: UnimodalKind,
) {
    crate::banner(ds);
    for &te in target_encoders {
        let config = EncoderConfig::new(TargetEncoding::Independent(te), vec![aux_encoder]);
        single_modality_row(table, ds, registry, &config, 0, te);
    }
    // Auxiliary-only row (encoder choice for the target slot is irrelevant).
    let config =
        EncoderConfig::new(TargetEncoding::Independent(target_encoders[0]), vec![aux_encoder]);
    single_modality_row(table, ds, registry, &config, 1, aux_encoder);
}

/// Tabs. X, XIX, XX — accuracy when queries supply only one modality:
/// target only (Tab. XIX) or auxiliary only (Tab. XX) on MIT-States,
/// CelebA and Shopping; Tab. X is the MIT-States slice.
pub fn tab10_19_20_single_modality(scale: f64) -> Vec<Artefact> {
    let registry = crate::registry();
    let seed = DATASET_SEED;
    let mut table = Table::new(
        "Tab. X XIX XX",
        "Search accuracy with a single query modality",
        &["Dataset", "Modality", "Encoder", "Recall@1(1)", "Recall@5(1)", "Recall@10(1)"],
    );

    use UnimodalKind::*;
    let mit = must_data::catalog::mit_states(scale, seed);
    single_modality_rows(&mut table, &mit, &registry, &[ResNet17, ResNet50], Lstm);
    // Tab. X also reports the Transformer auxiliary row on MIT-States.
    let config = EncoderConfig::new(TargetEncoding::Independent(ResNet17), vec![Transformer]);
    single_modality_row(&mut table, &mit, &registry, &config, 1, Transformer);

    let celeba = must_data::catalog::celeba(scale, seed);
    single_modality_rows(&mut table, &celeba, &registry, &[ResNet17, ResNet50], Encoding);

    let shopping = must_data::catalog::shopping(ShoppingCategory::TShirt, scale, seed);
    single_modality_rows(&mut table, &shopping, &registry, &[ResNet17], Encoding);

    vec![Artefact::Table(table)]
}

/// Fig. 11 — neighbour visualisation on CelebA: the top-3 neighbours of an
/// object in MUST's fused index balance both modalities, while MR's
/// per-modality indexes only consider one modality each.
pub fn fig11_neighbors(scale: f64) -> Vec<Artefact> {
    let scale = scale * 0.5; // a smaller corpus is plenty here
    let ds = must_data::catalog::celeba(scale, DATASET_SEED);
    crate::banner(&ds);
    let registry = crate::registry();
    let config = EncoderConfig::new(
        TargetEncoding::Composed(ComposerKind::Clip),
        vec![UnimodalKind::Encoding],
    );
    let prepared = prepare(&ds, &config, &registry);
    let learned = prepared.learn(&WeightLearnConfig::default());
    let objects = prepared.embedded.objects.clone();

    let must = Must::build(objects, learned.weights.clone(), MustBuildOptions::default()).unwrap();

    let vertex = 100u32;
    let objects = must.objects();
    println!(
        "Object {vertex}: class {} attr {}\n",
        prepared.embedded.labels[vertex as usize].class,
        prepared.embedded.labels[vertex as usize].attr
    );

    println!("MUST fused-index neighbours (top 3) — per-modality + joint similarity:");
    let graph = must.index().graph().expect("fused recipe is flat");
    for &nb in graph.neighbors(vertex).iter().take(3) {
        let ips = [0, 1].map(|k| objects.modality_ip(vertex, nb, k));
        let joint = objects.joint_ip(vertex, nb, must.weights()).unwrap();
        println!(
            "   object {nb:>6}  sim(m0) = {:.4}  sim(m1) = {:.4}  joint = {:.4}",
            ips[0], ips[1], joint
        );
    }

    // MR's per-modality graphs: rebuild them individually to inspect.
    for mi in 0..objects.num_modalities() {
        use must_core::baselines::SingleModalityOracle;
        use must_graph::GraphRecipe;
        let oracle = SingleModalityOracle::new(objects.modality(mi));
        let (graph, _) = GraphRecipe::Fused.pipeline(30, 0xF19).unwrap().build(&oracle);
        println!("\nMR modality-{mi} index neighbours (top 3):");
        for &nb in graph.neighbors(vertex).iter().take(3) {
            let ips = [0, 1].map(|k| objects.modality_ip(vertex, nb, k));
            println!("   object {nb:>6}  sim(m0) = {:.4}  sim(m1) = {:.4}", ips[0], ips[1]);
        }
    }
    Vec::new()
}

fn learn_row(
    table: &mut Table,
    ds: &LatentDataset,
    config: &EncoderConfig,
    registry: &EncoderRegistry,
) {
    let prepared = prepare(ds, config, registry);
    let learned = prepared.learn(&WeightLearnConfig::default());
    let squared: Vec<String> =
        learned.weights.squared().iter().map(|w| format!("{w:.4}")).collect();
    table.push_row(vec![
        ds.name.clone(),
        config.label(),
        squared.join(", "),
        format!("{:.1}s", learned.train_secs),
    ]);
}

/// Tabs. XIII–XVIII — the learned weights (squared) per dataset and
/// encoder configuration (Appendix K).
pub fn tab13_18_learned_weights(scale: f64) -> Vec<Artefact> {
    let seed = DATASET_SEED;
    let registry = crate::registry();
    let mut table = Table::new(
        "Tab. XIII-XVIII",
        "Learned weights (squared, modality order) per dataset and encoder",
        &["Dataset", "Encoder", "w^2 (per modality)", "Train time"],
    );

    use UnimodalKind::*;
    // Semi-synthetic datasets (Tab. XVIII).
    let n = (20_000.0 * scale) as usize;
    let semisynthetic = || vec![crate::efficiency::semisynthetic_config()];
    for (ds, configs) in [
        (must_data::catalog::mit_states(scale, seed), mit_states_configs()),
        (must_data::catalog::celeba(scale, seed), celeba_configs()),
        (must_data::catalog::shopping(ShoppingCategory::TShirt, scale, seed), shopping_configs()),
        (must_data::catalog::ms_coco(scale, seed), ms_coco_configs()),
        (
            must_data::catalog::celeba_plus(4, scale, seed),
            vec![EncoderConfig::new(
                TargetEncoding::Composed(ComposerKind::Clip),
                vec![Encoding, ResNet17, ResNet50],
            )],
        ),
        (must_data::catalog::image_text(n, 300, seed), semisynthetic()),
        (must_data::catalog::audio_text(n, 300, seed), semisynthetic()),
        (must_data::catalog::video_text(n, 300, seed), semisynthetic()),
        (must_data::catalog::deep_image_text(n, 300, seed), semisynthetic()),
    ] {
        for config in &configs {
            learn_row(&mut table, &ds, config, &registry);
        }
    }

    vec![Artefact::Table(table)]
}
