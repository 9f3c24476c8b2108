//! The experiment implementations, one per paper artefact.
//!
//! Every function prints progress to stderr, returns the result tables, and
//! writes TSVs under `target/experiments/`.

use supa::SupaVariant;
use supa_baselines::fig4_baselines;
use supa_eval::{
    disturbance_protocol, dynamic_link_prediction, link_prediction, mean_pair_distance, tsne_2d,
    RankingEvaluator, SplitRatios, TsneConfig,
};

use crate::harness::{
    eval_context, experiments_dir, fmt4, fmt_secs, make_dataset, make_method, make_supa,
    make_supa_variant, ConventionalSupa, HarnessConfig, Table, ALL_METHOD_NAMES, DATASET_NAMES,
    FIG4_METHOD_NAMES,
};

fn evaluator(cfg: &HarnessConfig) -> RankingEvaluator {
    if cfg.quick {
        RankingEvaluator::sampled(50, cfg.seed)
    } else {
        RankingEvaluator::full()
    }
}

fn datasets_for(cfg: &HarnessConfig, full: &[&str], quick: &[&str]) -> Vec<String> {
    let names = if cfg.quick { quick } else { full };
    names.iter().map(|s| s.to_string()).collect()
}

/// Writes `BENCH_<name>.json`. Only a full run may replace the checked-in
/// artifact at the repo root; a `--quick` run's numbers are not comparable
/// with it, so they land beside the TSVs in [`experiments_dir`] instead.
fn write_bench_json(cfg: &HarnessConfig, name: &str, json: &str) {
    let dir = if cfg.quick {
        experiments_dir()
    } else {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
    };
    let path = dir.join(format!("BENCH_{name}.json"));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, json)) {
        Ok(()) => eprintln!("[{name}] wrote {}", path.display()),
        Err(e) => eprintln!("[{name}] could not write {}: {e}", path.display()),
    }
}

/// Tables V and VI: link prediction, seventeen methods × six datasets.
pub fn tables_5_6(cfg: &HarnessConfig) -> Vec<Table> {
    let datasets = datasets_for(cfg, &DATASET_NAMES, &["UCI", "Taobao"]);
    let ev = evaluator(cfg);

    let mut header5 = vec!["Method".to_string()];
    let mut header6 = vec!["Method".to_string()];
    let mut header_t = vec!["Method".to_string()];
    for d in &datasets {
        header5.push(format!("{d} H@20"));
        header5.push(format!("{d} H@50"));
        header6.push(format!("{d} NDCG"));
        header6.push(format!("{d} MRR"));
        header_t.push(format!("{d} train"));
    }
    let mut t5 = Table::new("Table V — link prediction H@K", header5);
    let mut t6 = Table::new("Table VI — link prediction NDCG@10 / MRR", header6);
    let mut tt = Table::new("Training time per cell (auxiliary)", header_t);

    // Pre-build contexts once per dataset.
    let contexts: Vec<_> = datasets
        .iter()
        .map(|name| {
            let d = make_dataset(name, cfg);
            let ctx = eval_context(&d);
            (d, ctx)
        })
        .collect();

    for method_name in ALL_METHOD_NAMES {
        let mut row5 = vec![method_name.to_string()];
        let mut row6 = vec![method_name.to_string()];
        let mut rowt = vec![method_name.to_string()];
        for (d, ctx) in &contexts {
            eprintln!("[table5/6] {} on {}", method_name, d.name);
            let mut m = make_method(method_name, d, cfg);
            let res = link_prediction(ctx, m.as_mut(), &ev, SplitRatios::default());
            row5.push(fmt4(res.metrics.hit20()));
            row5.push(fmt4(res.metrics.hit50()));
            row6.push(fmt4(res.metrics.ndcg10()));
            row6.push(fmt4(res.metrics.mrr()));
            rowt.push(fmt_secs(res.train_secs));
        }
        t5.push(row5);
        t6.push(row6);
        tt.push(rowt);
    }
    t5.save_tsv("table5_hitrate.tsv").ok();
    t6.save_tsv("table6_ndcg_mrr.tsv").ok();
    tt.save_tsv("table5_train_time.tsv").ok();
    vec![t5, t6, tt]
}

/// Figures 4 and 5: dynamic link prediction on MovieLens (ten temporal
/// slices) and the cumulative running time.
pub fn figs_4_5(cfg: &HarnessConfig) -> Vec<Table> {
    let d = make_dataset("MovieLens", cfg);
    let ctx = eval_context(&d);
    let ev = evaluator(cfg);
    let n_slices = 10;

    let mut header = vec!["Method".to_string()];
    for step in 1..n_slices {
        header.push(format!("S{step} H@50"));
    }
    header.push("total time".to_string());
    let mut t4 = Table::new(
        "Figure 4 — dynamic link prediction on MovieLens (H@50)",
        header.clone(),
    );
    let mut t4m = Table::new(
        "Figure 4 — dynamic link prediction on MovieLens (MRR)",
        header,
    );
    let mut t5 = Table::new(
        "Figure 5 — total (re)training time of dynamic link prediction",
        vec!["Method".into(), "total train secs".into()],
    );

    for name in FIG4_METHOD_NAMES {
        eprintln!("[fig4/5] {name}");
        let mut m = make_method(name, &d, cfg);
        let steps = dynamic_link_prediction(&ctx, m.as_mut(), &ev, n_slices);
        let total: f64 = steps.iter().map(|s| s.train_secs).sum();
        let mut row_h = vec![name.to_string()];
        let mut row_m = vec![name.to_string()];
        for s in &steps {
            row_h.push(fmt4(s.metrics.hit50()));
            row_m.push(fmt4(s.metrics.mrr()));
        }
        row_h.push(fmt_secs(total));
        row_m.push(fmt_secs(total));
        t4.push(row_h);
        t4m.push(row_m);
        t5.push(vec![name.to_string(), fmt_secs(total)]);
    }
    // The paper's fig4/fig5 baseline set is fixed; sanity-check it here so
    // registry drift fails loudly.
    assert_eq!(fig4_baselines(&d, cfg.seed).len(), 6);
    t4.save_tsv("fig4_dynamic_h50.tsv").ok();
    t4m.save_tsv("fig4_dynamic_mrr.tsv").ok();
    t5.save_tsv("fig5_running_time.tsv").ok();
    vec![t4, t4m, t5]
}

/// Figure 6: robustness to neighbourhood disturbance (η sweep, MovieLens).
pub fn fig_6(cfg: &HarnessConfig) -> Vec<Table> {
    let d = make_dataset("MovieLens", cfg);
    let ctx = eval_context(&d);
    let ev = evaluator(cfg);
    let etas: Vec<Option<usize>> = if cfg.quick {
        vec![Some(5), Some(20), None]
    } else {
        vec![Some(5), Some(10), Some(20), Some(50), Some(100), None]
    };

    let mut header = vec!["Method".to_string()];
    for eta in &etas {
        header.push(match eta {
            Some(e) => format!("η={e} H@50"),
            None => "η=∞ H@50".to_string(),
        });
    }
    for eta in &etas {
        header.push(match eta {
            Some(e) => format!("η={e} MRR"),
            None => "η=∞ MRR".to_string(),
        });
    }
    let mut t = Table::new("Figure 6 — robustness to neighbourhood disturbance", header);

    for name in FIG4_METHOD_NAMES {
        eprintln!("[fig6] {name}");
        let mut m = make_method(name, &d, cfg);
        let res = disturbance_protocol(&ctx, m.as_mut(), &ev, SplitRatios::default(), &etas);
        let mut row = vec![name.to_string()];
        for r in &res {
            row.push(fmt4(r.metrics.hit50()));
        }
        for r in &res {
            row.push(fmt4(r.metrics.mrr()));
        }
        t.push(row);
    }
    t.save_tsv("fig6_disturbance.tsv").ok();
    vec![t]
}

/// Table VII: contribution of the losses and effectiveness of InsLearn.
pub fn table_7(cfg: &HarnessConfig) -> Vec<Table> {
    let datasets = datasets_for(cfg, &DATASET_NAMES, &["Taobao"]);
    let ev = evaluator(cfg);

    let mut header = vec!["Variant".to_string()];
    for d in &datasets {
        header.push(format!("{d} H@50"));
        header.push(format!("{d} MRR"));
    }
    let mut t = Table::new("Table VII — loss ablation and InsLearn", header);

    let mut variants: Vec<(String, SupaVariant)> = SupaVariant::loss_grid()
        .into_iter()
        .map(|(n, v)| (n.to_string(), v))
        .collect();
    variants.push(("SUPA".to_string(), SupaVariant::full()));

    let contexts: Vec<_> = datasets
        .iter()
        .map(|name| {
            let d = make_dataset(name, cfg);
            let ctx = eval_context(&d);
            (d, ctx)
        })
        .collect();

    for (vname, variant) in &variants {
        eprintln!("[table7] {vname}");
        let mut row = vec![vname.clone()];
        for (d, ctx) in &contexts {
            let mut m = make_supa_variant(d, *variant, vname, cfg);
            let res = link_prediction(ctx, &mut m, &ev, SplitRatios::default());
            row.push(fmt4(res.metrics.hit50()));
            row.push(fmt4(res.metrics.mrr()));
        }
        t.push(row);
    }
    // SUPA_{w/o Ins}: conventional multi-epoch training.
    {
        eprintln!("[table7] SUPA_w/o_Ins");
        let mut row = vec!["SUPA_w/o_Ins".to_string()];
        let epochs = if cfg.quick { 1 } else { 4 };
        for (d, ctx) in &contexts {
            let mut m = ConventionalSupa::new(make_supa(d, cfg), epochs);
            let res = link_prediction(ctx, &mut m, &ev, SplitRatios::default());
            row.push(fmt4(res.metrics.hit50()));
            row.push(fmt4(res.metrics.mrr()));
        }
        t.push(row);
    }
    t.save_tsv("table7_loss_ablation.tsv").ok();
    vec![t]
}

/// Table VIII: benefits of modelling multiplex heterogeneity and streaming
/// dynamics (Taobao + Kuaishou).
pub fn table_8(cfg: &HarnessConfig) -> Vec<Table> {
    let datasets = datasets_for(cfg, &["Taobao", "Kuaishou"], &["Taobao"]);
    let ev = evaluator(cfg);

    let mut header = vec!["Variant".to_string()];
    for d in &datasets {
        header.push(format!("{d} H@50"));
        header.push(format!("{d} MRR"));
    }
    let mut t = Table::new("Table VIII — heterogeneity/dynamics ablation", header);

    let mut variants: Vec<(String, SupaVariant)> = SupaVariant::structure_grid()
        .into_iter()
        .map(|(n, v)| (n.to_string(), v))
        .collect();
    variants.push(("SUPA".to_string(), SupaVariant::full()));

    let contexts: Vec<_> = datasets
        .iter()
        .map(|name| {
            let d = make_dataset(name, cfg);
            let ctx = eval_context(&d);
            (d, ctx)
        })
        .collect();

    for (vname, variant) in &variants {
        eprintln!("[table8] {vname}");
        let mut row = vec![vname.clone()];
        for (d, ctx) in &contexts {
            let mut m = make_supa_variant(d, *variant, vname, cfg);
            let res = link_prediction(ctx, &mut m, &ev, SplitRatios::default());
            row.push(fmt4(res.metrics.hit50()));
            row.push(fmt4(res.metrics.mrr()));
        }
        t.push(row);
    }
    t.save_tsv("table8_structure_ablation.tsv").ok();
    vec![t]
}

/// Figure 7: scalability — average per-batch retraining time and H@50 as
/// `S_batch` grows (MovieLens).
pub fn fig_7(cfg: &HarnessConfig) -> Vec<Table> {
    let d = make_dataset("MovieLens", cfg);
    let ctx = eval_context(&d);
    let ev = evaluator(cfg);
    let sizes: Vec<usize> = if cfg.quick {
        vec![64, 512, 4096]
    } else {
        vec![32, 128, 512, 1024, 4096, 8192, 32768]
    };

    let mut t = Table::new(
        "Figure 7 — scalability over S_batch",
        vec![
            "S_batch".into(),
            "batches".into(),
            "avg secs/batch".into(),
            "edges/sec".into(),
            "H@50".into(),
            "MRR".into(),
        ],
    );
    for &s in &sizes {
        eprintln!("[fig7] S_batch = {s}");
        let mut il = cfg.inslearn();
        il.batch_size = s;
        let mut m = make_supa(&d, cfg).with_inslearn(il);
        let res = link_prediction(&ctx, &mut m, &ev, SplitRatios::default());
        let (train, _, _) = SplitRatios::default().split(ctx.edges());
        let n_batches = train.len().div_ceil(s);
        let per_batch = res.train_secs / n_batches as f64;
        let eps = train.len() as f64 / res.train_secs;
        t.push(vec![
            s.to_string(),
            n_batches.to_string(),
            format!("{per_batch:.4}"),
            format!("{eps:.0}"),
            fmt4(res.metrics.hit50()),
            fmt4(res.metrics.mrr()),
        ]);
    }
    t.save_tsv("fig7_scalability.tsv").ok();
    vec![t]
}

/// Figure 8: sensitivity of the GNN and workflow hyper-parameters.
pub fn fig_8(cfg: &HarnessConfig) -> Vec<Table> {
    let datasets = datasets_for(cfg, &["UCI", "Last.fm", "Taobao"], &["Taobao"]);
    let ev = evaluator(cfg);

    struct Sweep {
        param: &'static str,
        values: Vec<f64>,
    }
    let sweeps = if cfg.quick {
        vec![
            Sweep {
                param: "d",
                values: vec![16.0, 32.0],
            },
            Sweep {
                param: "k",
                values: vec![1.0, 5.0],
            },
        ]
    } else {
        vec![
            Sweep {
                param: "d",
                values: vec![16.0, 32.0, 64.0, 128.0],
            },
            Sweep {
                param: "k",
                values: vec![1.0, 3.0, 5.0, 10.0, 20.0],
            },
            Sweep {
                param: "l",
                values: vec![1.0, 2.0, 3.0, 5.0, 10.0],
            },
            Sweep {
                param: "N_neg",
                values: vec![1.0, 3.0, 5.0, 7.0],
            },
            Sweep {
                param: "g(tau)",
                values: vec![0.1, 0.2, 0.3, 0.5, 0.9],
            },
            Sweep {
                param: "N_iter",
                values: vec![2.0, 4.0, 8.0, 16.0, 30.0],
            },
            Sweep {
                param: "I_valid",
                values: vec![1.0, 2.0, 4.0, 8.0, 16.0],
            },
            Sweep {
                param: "S_valid",
                values: vec![30.0, 60.0, 100.0, 150.0],
            },
            Sweep {
                param: "mu",
                values: vec![0.0, 1.0, 3.0, 5.0],
            },
            Sweep {
                param: "S_batch",
                values: vec![16.0, 32.0, 128.0, 512.0, 1024.0, 4096.0],
            },
        ]
    };

    let mut header = vec!["param".to_string(), "value".to_string()];
    for d in &datasets {
        header.push(format!("{d} H@50"));
        header.push(format!("{d} MRR"));
    }
    let mut t = Table::new("Figure 8 — parameter sensitivity", header);

    let contexts: Vec<_> = datasets
        .iter()
        .map(|name| {
            let d = make_dataset(name, cfg);
            let ctx = eval_context(&d);
            (d, ctx)
        })
        .collect();

    for sweep in &sweeps {
        for &v in &sweep.values {
            eprintln!("[fig8] {} = {}", sweep.param, v);
            let mut row = vec![sweep.param.to_string(), format!("{v}")];
            for (d, ctx) in &contexts {
                let mut scfg = cfg.supa_config();
                let mut il = cfg.inslearn();
                match sweep.param {
                    "d" => scfg.dim = v as usize,
                    "k" => scfg.num_walks = v as usize,
                    "l" => scfg.walk_length = v as usize,
                    "N_neg" => scfg.n_neg = v as usize,
                    "g(tau)" => scfg.tau = supa::decay::tau_for_g(v),
                    "N_iter" => il.n_iter = v as usize,
                    "I_valid" => il.valid_interval = v as usize,
                    "S_valid" => il.valid_size = v as usize,
                    "mu" => il.patience = v as usize,
                    "S_batch" => il.batch_size = v as usize,
                    _ => unreachable!(),
                }
                let mut m = supa::Supa::from_dataset(d, scfg, cfg.seed)
                    .expect("valid metapaths")
                    .with_inslearn(il);
                let res = link_prediction(ctx, &mut m, &ev, SplitRatios::default());
                row.push(fmt4(res.metrics.hit50()));
                row.push(fmt4(res.metrics.mrr()));
            }
            t.push(row);
        }
    }
    t.save_tsv("fig8_sensitivity.tsv").ok();
    vec![t]
}

/// Figure 9: t-SNE embedding visualisation of 20 test user–item pairs on
/// Taobao, plus the mean within-pair distance statistic `d̄`.
pub fn fig_9(cfg: &HarnessConfig) -> Vec<Table> {
    let d = make_dataset("Taobao", cfg);
    let ctx = eval_context(&d);
    let ev = evaluator(cfg);
    let (_, _, test) = SplitRatios::default().split(ctx.edges());

    // 20 distinct test user–item pairs.
    let mut pairs = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for e in test {
        if seen.insert((e.src, e.dst)) {
            pairs.push(*e);
        }
        if pairs.len() == 20 {
            break;
        }
    }

    let methods = if cfg.quick {
        vec!["SUPA", "node2vec"]
    } else {
        vec![
            "node2vec",
            "GATNE",
            "LightGCN",
            "MB-GMN",
            "EvolveGCN",
            "SUPA",
        ]
    };
    let repeats = if cfg.quick { 3 } else { 100 };

    let mut t = Table::new(
        "Figure 9 — t-SNE mean within-pair distance d̄ on Taobao (lower = truer pairs closer)",
        vec!["Method".into(), "d̄".into()],
    );
    let mut coords_table = Table::new(
        "Figure 9 — t-SNE coordinates (first repeat)",
        vec![
            "Method".into(),
            "pair".into(),
            "role".into(),
            "x".into(),
            "y".into(),
        ],
    );

    for name in methods {
        eprintln!("[fig9] {name}");
        let mut m = make_method(name, &d, cfg);
        let _ = link_prediction(&ctx, m.as_mut(), &ev, SplitRatios::default());
        // Collect 40 embeddings (user then item per pair), L2-normalised:
        // every method scores by dot products, so angular geometry is the
        // comparable quantity; normalisation is applied uniformly.
        let normalise = |mut v: Vec<f32>| {
            let n: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
            if n > 0.0 {
                v.iter_mut().for_each(|x| *x /= n);
            }
            v
        };
        let mut points: Vec<Vec<f32>> = Vec::with_capacity(2 * pairs.len());
        for e in &pairs {
            let eu = m
                .embedding(e.src, e.relation)
                .unwrap_or_else(|| vec![0.0; 8]);
            let evv = m
                .embedding(e.dst, e.relation)
                .unwrap_or_else(|| vec![0.0; 8]);
            points.push(normalise(eu));
            points.push(normalise(evv));
        }
        let pair_idx: Vec<(usize, usize)> = (0..pairs.len()).map(|i| (2 * i, 2 * i + 1)).collect();
        let mut total = 0.0;
        let mut first_coords = None;
        for rep in 0..repeats {
            let coords = tsne_2d(
                &points,
                &TsneConfig {
                    seed: cfg.seed.wrapping_add(rep as u64),
                    iterations: if cfg.quick { 100 } else { 400 },
                    ..Default::default()
                },
            );
            total += mean_pair_distance(&coords, &pair_idx);
            if rep == 0 {
                first_coords = Some(coords);
            }
        }
        t.push(vec![name.to_string(), fmt4(total / repeats as f64)]);
        if let Some(coords) = first_coords {
            for (pi, &(a, b)) in pair_idx.iter().enumerate() {
                for (role, idx) in [("user", a), ("item", b)] {
                    coords_table.push(vec![
                        name.to_string(),
                        pi.to_string(),
                        role.to_string(),
                        format!("{:.3}", coords[idx].0),
                        format!("{:.3}", coords[idx].1),
                    ]);
                }
            }
        }
    }
    t.save_tsv("fig9_pair_distance.tsv").ok();
    coords_table.save_tsv("fig9_coordinates.tsv").ok();
    if let Ok(svg) = fig9_svg(&coords_table) {
        eprintln!("[fig9] SVG written to {}", svg.display());
    }
    vec![t, coords_table]
}

/// Extra analysis (beyond the paper): cold-start segmentation and catalogue
/// coverage. Buckets test users by training degree; reports per-bucket H@50
/// plus coverage@20 / Gini@20 of each method's top-K lists.
pub fn coldstart(cfg: &HarnessConfig) -> Vec<Table> {
    let datasets = datasets_for(cfg, &["Taobao", "Kuaishou"], &["Taobao"]);
    let methods: &[&str] = if cfg.quick {
        &["SUPA", "LightGCN"]
    } else {
        &["SUPA", "MeLU", "LightGCN", "DeepWalk", "DyHATR"]
    };
    let ev = evaluator(cfg);
    let thresholds = [3usize, 10];

    let mut header = vec!["Dataset".to_string(), "Method".to_string()];
    header.push("H@50 deg 0-2".into());
    header.push("H@50 deg 3-9".into());
    header.push("H@50 deg 10+".into());
    header.push("coverage@20".into());
    header.push("Gini@20".into());
    let mut t = Table::new(
        "Cold-start segmentation and catalogue coverage (extra analysis)",
        header,
    );

    for ds in &datasets {
        let d = make_dataset(ds, cfg);
        let ctx = eval_context(&d);
        let (train, _, test) = SplitRatios::default().split(ctx.edges());
        let g = ctx.graph_with(train, None);
        // Coverage sample: up to 200 users with ≥1 training edge, and the
        // most common destination type as the catalogue.
        let user_ty = g.node_type(test[0].src);
        let item_ty = g.node_type(test[0].dst);
        let users: Vec<supa_graph::NodeId> = g
            .nodes_of_type(user_ty)
            .iter()
            .copied()
            .filter(|&u| g.degree(u) > 0)
            .take(200)
            .collect();
        let items = g.nodes_of_type(item_ty);
        let rel = test[0].relation;

        for name in methods {
            eprintln!("[coldstart] {name} on {ds}");
            let mut m = make_method(name, &d, cfg);
            m.fit(&g, train);
            let segs = supa_eval::evaluate_segmented(&ev, &g, m.as_ref(), test, &thresholds);
            let cov = supa_eval::coverage_at_k(m.as_ref(), &users, items, rel, 20);
            let mut row = vec![ds.clone(), name.to_string()];
            for s in &segs {
                row.push(if s.metrics.is_empty() {
                    "-".to_string()
                } else {
                    fmt4(s.metrics.hit50())
                });
            }
            row.push(fmt4(cov.coverage));
            row.push(fmt4(cov.gini));
            t.push(row);
        }
    }
    t.save_tsv("coldstart_coverage.tsv").ok();
    vec![t]
}

/// The significance stars of Tables V/VI: SUPA vs the strongest baselines
/// over repeated seeds, Welch t-test at p < 0.01 (paper's `*`).
pub fn significance(cfg: &HarnessConfig) -> Vec<Table> {
    let datasets = datasets_for(cfg, &["Taobao", "Kuaishou"], &["Taobao"]);
    let rivals: &[&str] = if cfg.quick {
        &["LightGCN"]
    } else {
        &["LightGCN", "HybridGNN", "DyHATR"]
    };
    let n_seeds = if cfg.quick { 3 } else { 4 };
    let ev = evaluator(cfg);

    let mut t = Table::new(
        "Significance — SUPA vs strongest baselines (Welch t-test over seeds, H@50)",
        vec![
            "Dataset".into(),
            "Baseline".into(),
            "SUPA mean".into(),
            "Baseline mean".into(),
            "p-value".into(),
            "p<0.01".into(),
        ],
    );

    for ds in &datasets {
        // Per-seed H@50 for SUPA and each rival (same seeds for both arms).
        let mut supa_scores = Vec::new();
        let mut rival_scores: Vec<Vec<f64>> = vec![Vec::new(); rivals.len()];
        for s in 0..n_seeds {
            let mut seeded = *cfg;
            seeded.seed = cfg.seed.wrapping_add(101 * s as u64);
            let d = make_dataset(ds, &seeded);
            let ctx = eval_context(&d);
            eprintln!("[sig] {ds} seed {}", seeded.seed);
            let mut m = make_supa(&d, &seeded);
            supa_scores.push(
                link_prediction(&ctx, &mut m, &ev, SplitRatios::default())
                    .metrics
                    .hit50(),
            );
            for (k, rv) in rivals.iter().enumerate() {
                let mut m = make_method(rv, &d, &seeded);
                rival_scores[k].push(
                    link_prediction(&ctx, m.as_mut(), &ev, SplitRatios::default())
                        .metrics
                        .hit50(),
                );
            }
        }
        for (k, rv) in rivals.iter().enumerate() {
            let r = supa_eval::welch_t_test(&supa_scores, &rival_scores[k]);
            let (ms, _) = supa_eval::mean_std(&supa_scores);
            let (mr, _) = supa_eval::mean_std(&rival_scores[k]);
            t.push(vec![
                ds.clone(),
                rv.to_string(),
                fmt4(ms),
                fmt4(mr),
                format!("{:.4}", r.p_value),
                if r.p_value < 0.01 { "*" } else { "" }.to_string(),
            ]);
        }
    }
    t.save_tsv("significance.tsv").ok();
    vec![t]
}

/// Workspace throughput benchmark (PR 3 parallel execution layer): ingest
/// (the per-event sample→update→propagate pipeline via `train_pass`),
/// evaluation ranking, and closed-loop serving — each measured at
/// `workers = 1` (exact serial) and `workers = 4` (conflict-aware event
/// micro-batching / deterministic evaluation fan-out) — plus a query-phase
/// serving comparison of the brute-force scan against `supa-ann` retrieval
/// on a paper-scale catalog (quick mode: harness scale).
///
/// A shard sweep (`shards ∈ {1, 2, 4}`, the N-way user-sharded engine)
/// rides along, recording ingest rate, cached/uncached query QPS, and the
/// probe digest — which the sweep asserts is invariant across shard
/// counts ≥ 2 (shards = 1 is the exact serial path, see
/// `tests/sharding.rs`).
///
/// Besides the usual table/TSV, writes machine-readable
/// `BENCH_throughput.json` at the repo root with worker counts, shard
/// counts, and the machine's available parallelism in the metadata. Rates
/// are machine-dependent; the result *values* are not (see
/// `tests/parallel.rs` and `tests/sharding.rs`).
pub fn throughput(cfg: &HarnessConfig) -> Vec<Table> {
    use std::time::Instant;
    use supa_serve::{run_closed_loop, LoadConfig, ServeConfig};

    const WORKERS: [usize; 2] = [1, 4];
    let d = make_dataset("Taobao", cfg);
    let holdout = (d.edges.len() / 5).max(1);
    let split = d.edges.len() - holdout;
    let (train, test) = d.edges.split_at(split);
    let mut g_train = d.prototype.clone();
    g_train.reserve_for_stream(train);
    for e in train {
        g_train
            .add_edge(e.src, e.dst, e.relation, e.time)
            .expect("dataset edges are schema-valid");
    }
    let g_full = d.full_graph();

    let mut t = Table::new(
        "Throughput — train / eval / serve at workers 1 and 4",
        vec![
            "leg".into(),
            "workers".into(),
            "rate".into(),
            "secs".into(),
            "detail".into(),
        ],
    );

    // --- training ingest -------------------------------------------------
    let mut train_runs = Vec::new();
    let mut scorer_model = None;
    for &w in &WORKERS {
        let mut m = make_supa(&d, cfg).with_workers(w);
        m.resolve_time_scale(&g_train);
        let t0 = Instant::now();
        let loss = m.train_pass(&g_train, train);
        let secs = t0.elapsed().as_secs_f64().max(1e-9);
        let eps = train.len() as f64 / secs;
        eprintln!("[throughput] train workers={w}: {eps:.0} events/s (loss {loss:.4})");
        t.push(vec![
            "train".into(),
            w.to_string(),
            format!("{eps:.0} ev/s"),
            fmt_secs(secs),
            format!("loss {loss:.4}"),
        ]);
        train_runs.push((w, eps, secs));
        if w == 1 {
            scorer_model = Some(m);
        }
    }
    let model = scorer_model.expect("serial train run present");

    // --- evaluation ranking ----------------------------------------------
    let ev = evaluator(cfg);
    let total_candidates: f64 = if cfg.quick {
        (test.len() * 50) as f64
    } else {
        test.iter()
            .map(|e| g_full.nodes_of_type(g_full.node_type(e.dst)).len() as f64)
            .sum()
    };
    let mut eval_runs = Vec::new();
    for &w in &WORKERS {
        let t0 = Instant::now();
        let acc = ev.evaluate_parallel(&g_full, &model, test, w);
        let secs = t0.elapsed().as_secs_f64().max(1e-9);
        let qps = test.len() as f64 / secs;
        let cps = total_candidates / secs;
        eprintln!(
            "[throughput] eval workers={w}: {qps:.0} q/s, {cps:.0} cand/s (mrr {:.4})",
            acc.mrr()
        );
        t.push(vec![
            "eval".into(),
            w.to_string(),
            format!("{qps:.0} q/s"),
            fmt_secs(secs),
            format!("{cps:.0} cand/s"),
        ]);
        eval_runs.push((w, qps, cps, secs));
    }

    // --- closed-loop serving ---------------------------------------------
    let mut serve_runs = Vec::new();
    for &w in &WORKERS {
        let m = make_supa(&d, cfg);
        let report = run_closed_loop(
            &d,
            m,
            ServeConfig {
                train_batch: 64,
                workers: w,
                ..ServeConfig::default()
            },
            LoadConfig {
                readers: 2,
                top_k: 10,
                queries_per_reader: if cfg.quick { 100 } else { 400 },
                seed: cfg.seed,
                warmup_per_reader: 8,
                verify: false,
                metrics_dump: None,
                ..LoadConfig::default()
            },
        )
        .expect("closed-loop serving");
        let mt = &report.metrics;
        eprintln!(
            "[throughput] serve workers={w}: {:.0} qps (cached {:.0} / uncached {:.0}), \
             p50 {:.0}µs, p99 {:.0}µs",
            mt.qps, mt.cached_qps, mt.uncached_qps, mt.p50_us, mt.p99_us
        );
        t.push(vec![
            "serve".into(),
            w.to_string(),
            format!(
                "{:.0} qps (c {:.0} / u {:.0})",
                mt.qps, mt.cached_qps, mt.uncached_qps
            ),
            "-".into(),
            format!(
                "p50 {:.0}µs p99 {:.0}µs (uncached p50 {:.0}µs)",
                mt.p50_us, mt.p99_us, mt.uncached_p50_us
            ),
        ]);
        serve_runs.push((
            w,
            mt.qps,
            mt.cached_qps,
            mt.uncached_qps,
            mt.p50_us,
            mt.p99_us,
            mt.cached_p50_us,
            mt.uncached_p50_us,
            mt.events_applied,
        ));
    }

    // --- sharded closed-loop serving -------------------------------------
    // Shard sweep at the default worker count: the N-way user-sharded
    // engine against the same replay. Ingest rate divides events applied by
    // the run's wall clock (the query phase overlaps ingest, so this is a
    // floor). The probe digest is pinned invariant across shard counts ≥ 2.
    const SHARDS: [usize; 3] = [1, 2, 4];
    let mut shard_runs = Vec::new();
    for &s in &SHARDS {
        let m = make_supa(&d, cfg);
        let t0 = Instant::now();
        let report = run_closed_loop(
            &d,
            m,
            ServeConfig {
                train_batch: 64,
                shards: s,
                ..ServeConfig::default()
            },
            LoadConfig {
                readers: 2,
                top_k: 10,
                queries_per_reader: if cfg.quick { 100 } else { 400 },
                seed: cfg.seed,
                warmup_per_reader: 8,
                verify: false,
                metrics_dump: None,
                ..LoadConfig::default()
            },
        )
        .expect("sharded closed-loop serving");
        let secs = t0.elapsed().as_secs_f64().max(1e-9);
        let mt = &report.metrics;
        let ingest_eps = mt.events_applied as f64 / secs;
        eprintln!(
            "[throughput] serve shards={s}: {ingest_eps:.0} ev/s ingest, {:.0} qps \
             (cached {:.0} / uncached {:.0}), digest {:#018x}",
            mt.qps, mt.cached_qps, mt.uncached_qps, report.digest
        );
        t.push(vec![
            "serve-sharded".into(),
            format!("s={s}"),
            format!("{ingest_eps:.0} ev/s"),
            fmt_secs(secs),
            format!(
                "{:.0} qps (c {:.0} / u {:.0}), digest {:#018x}",
                mt.qps, mt.cached_qps, mt.uncached_qps, report.digest
            ),
        ]);
        shard_runs.push((
            s,
            ingest_eps,
            mt.qps,
            mt.cached_qps,
            mt.uncached_qps,
            report.digest,
            mt.events_applied,
        ));
    }
    // shards = 1 is the serial path (per-event α); every N ≥ 2 pins one
    // result (per-wave α) — so 2 and 4 must agree exactly.
    assert!(
        shard_runs[1..].windows(2).all(|w| w[0].5 == w[1].5),
        "probe digest must be invariant across shard counts >= 2"
    );

    // --- ANN query path: brute-force scan vs supa-ann retrieval ----------
    // Query-phase-only comparison at serve workers = 1. The closed-loop QPS
    // above folds ingest and index construction into its wall clock, which
    // hides the per-query win; here we ingest a bounded event prefix, flush,
    // and then time nothing but a single-threaded query sweep against the
    // published epoch. Full runs use the paper-scale Taobao catalog
    // (≥ 10 000 items) so the beam is genuinely sub-linear; quick mode keeps
    // the harness scale. Recall@10 of the ANN leg is audited untimed against
    // the exact ranking of the same snapshot.
    let ann_scale = if cfg.quick {
        cfg.scale
    } else {
        cfg.scale.max(1.0)
    };
    let ann_events = if cfg.quick { 600 } else { 2000 };
    let ann_queries = if cfg.quick { 150 } else { 1000 };
    let ann_opts = supa_serve::AnnOptions {
        guard_every: 0, // audited below instead; keeps the timed loop pure
        seed: cfg.seed,
        ..supa_serve::AnnOptions::default()
    };
    let mut da = supa_datasets::taobao(ann_scale, cfg.seed.wrapping_add(4));
    da.edges.truncate(ann_events);
    let mut ann_runs = Vec::new(); // (label, qps, p50, p99, recall, catalog)
    struct AnnIndexStats {
        groups: usize,
        live_bytes: usize,
        shared_bytes: usize,
        shared_us: u64,
        per_rel_bytes: usize,
        per_rel_us: u64,
        publish_last_us: u64,
        refresh_batch: u64,
        ef_search: u64,
        ef_margin: u64,
    }
    let mut ann_index_stats: Option<AnnIndexStats> = None;
    for ann_on in [false, true] {
        let label = if ann_on { "ann" } else { "brute" };
        let model = supa::Supa::from_dataset(&da, cfg.supa_config(), cfg.seed)
            .expect("dataset metapaths validate")
            .with_inslearn(supa::InsLearnConfig {
                batch_size: 1024,
                ..supa::InsLearnConfig::fast()
            });
        let handle = supa_serve::ServeEngine::start(
            da.prototype.clone(),
            model,
            ServeConfig {
                train_batch: 256,
                workers: 1,
                ann: ann_on.then(|| ann_opts.clone()),
                ..ServeConfig::default()
            },
        )
        .expect("serve engine starts");
        for &e in &da.edges {
            handle.ingest(e).expect("schema-valid event");
        }
        handle.flush().expect("flush");

        // Distinct (user, relation) pairs so the result cache cannot serve
        // repeats; both legs sweep the identical sequence. Queries come from
        // users observed in the ingested stream — the serving population.
        // (A user with no events still carries its random initialisation;
        // its "exact top-10" is noise, not a retrieval target.)
        let schema = da.prototype.schema();
        let mut warm: Vec<supa_graph::NodeId> = da.edges.iter().map(|e| e.src).collect();
        warm.sort_unstable();
        warm.dedup();
        let users_of: Vec<Vec<supa_graph::NodeId>> = (0..schema.num_relations())
            .map(|r| {
                let src_type = schema
                    .relation(supa_graph::RelationId(r as u16))
                    .unwrap()
                    .src_type;
                warm.iter()
                    .copied()
                    .filter(|&u| da.prototype.node_type(u) == src_type)
                    .collect()
            })
            .collect();
        let mut pairs = Vec::new();
        'fill: loop {
            for (r, users) in users_of.iter().enumerate() {
                if users.is_empty() {
                    continue;
                }
                let rel = supa_graph::RelationId(r as u16);
                pairs.push((users[pairs.len() % users.len()], rel));
                if pairs.len() >= ann_queries {
                    break 'fill;
                }
            }
        }
        let catalog = (0..schema.num_relations())
            .map(|r| handle.candidates(supa_graph::RelationId(r as u16)).len())
            .max()
            .unwrap_or(0);

        let mut lat_ns: Vec<u64> = Vec::with_capacity(pairs.len());
        let sweep0 = Instant::now();
        for &(u, r) in &pairs {
            let t0 = Instant::now();
            std::hint::black_box(handle.query(u, r, 10));
            lat_ns.push(t0.elapsed().as_nanos() as u64);
        }
        let secs = sweep0.elapsed().as_secs_f64().max(1e-9);
        lat_ns.sort_unstable();
        let q = |p: f64| lat_ns[(lat_ns.len() - 1).min((p * lat_ns.len() as f64) as usize)];
        let (p50, p99) = (q(0.50) as f64 / 1e3, q(0.99) as f64 / 1e3);
        let qps = pairs.len() as f64 / secs;

        // Untimed recall audit: re-issue each query (cache-hit, identical
        // answer at the same epoch) and compare against the exact top-10.
        let recall = if ann_on {
            use supa_eval::{top_k_scored, RecallAccumulator};
            let snap = handle.snapshot();
            let mut acc = RecallAccumulator::default();
            for &(u, r) in &pairs {
                let res = handle.query(u, r, 10);
                let exact = top_k_scored(&snap.scorer, u, handle.candidates(r), r, 10);
                acc.push(&exact, &res.items);
            }
            acc.mean()
        } else {
            1.0
        };

        // Index economics: the published epoch holds one shared *base*
        // index per destination-type group, while the pre-collapse layout
        // held one *composite* index per relation. Rebuild both layouts
        // from the same snapshot with identical construction parameters so
        // the artefact reports each one's build cost and memory, alongside
        // the live publish/refresh counters of the serving engine.
        if ann_on {
            use supa_ann::{AnnConfig, HnswIndex};
            use supa_replica::retrieval::{Catalog, GroupIndexes};
            let snap = handle.snapshot();
            let ann = snap.ann.as_ref().expect("ann epoch published");
            let catalog = Catalog::new(&da.prototype);
            let num_groups = catalog.groups().len();
            let mut live_bytes = 0usize;
            let mut seen = vec![false; num_groups];
            for (r, &g) in catalog.group_of().iter().enumerate() {
                let rel = supa_graph::RelationId(r as u16);
                if let Some(i) = ann.index(rel) {
                    if !seen[g] {
                        seen[g] = true;
                        live_bytes += i.memory_bytes();
                    }
                }
            }
            let acfg = AnnConfig {
                m: ann_opts.m,
                ef_construction: ann_opts.ef_construction,
                seed: ann_opts.seed,
            };
            let t0 = Instant::now();
            let shared = GroupIndexes::build(acfg.clone(), &snap.scorer, catalog.groups().to_vec());
            let shared_bytes: usize = shared
                .indexes()
                .iter()
                .flatten()
                .map(HnswIndex::memory_bytes)
                .sum();
            let shared_us = t0.elapsed().as_micros() as u64;
            let mut buf = Vec::new();
            let t0 = Instant::now();
            let mut per_rel_bytes = 0usize;
            for r in 0..schema.num_relations() {
                let rel = supa_graph::RelationId(r as u16);
                let cands = handle.candidates(rel);
                if cands.is_empty() {
                    continue;
                }
                snap.scorer.composite_into(cands[0], rel, &mut buf);
                let mut idx = HnswIndex::new(buf.len(), acfg.clone());
                for &v in cands {
                    snap.scorer.composite_into(v, rel, &mut buf);
                    idx.insert(v.0, &buf);
                }
                per_rel_bytes += idx.memory_bytes();
            }
            let per_rel_us = t0.elapsed().as_micros() as u64;
            let m = handle.metrics();
            eprintln!(
                "[throughput] ann index: {} relation(s) -> {num_groups} group(s), \
                 shared {shared_bytes} B in {shared_us}µs vs per-relation \
                 {per_rel_bytes} B in {per_rel_us}µs (publish {}µs, refresh {})",
                schema.num_relations(),
                m.ann_publish_last_us,
                m.ann_refresh_batch,
            );
            ann_index_stats = Some(AnnIndexStats {
                groups: num_groups,
                live_bytes,
                shared_bytes,
                shared_us,
                per_rel_bytes,
                per_rel_us,
                publish_last_us: m.ann_publish_last_us,
                refresh_batch: m.ann_refresh_batch,
                ef_search: m.ann_ef_search,
                ef_margin: m.ann_ef_margin,
            });
        }
        handle.shutdown();

        eprintln!(
            "[throughput] query/{label}: {qps:.0} qps, p50 {p50:.0}µs, p99 {p99:.0}µs, \
             recall@10 {recall:.4} ({catalog} items)"
        );
        t.push(vec![
            format!("query-{label}"),
            "1".into(),
            format!("{qps:.0} qps"),
            fmt_secs(secs),
            format!("p50 {p50:.0}µs p99 {p99:.0}µs recall {recall:.4}"),
        ]);
        ann_runs.push((label, qps, p50, p99, recall, catalog));
    }

    // --- machine-readable artefact (placed by `write_bench_json`) --------
    let jarr = |items: Vec<String>| format!("[\n    {}\n  ]", items.join(",\n    "));
    let train_json = jarr(
        train_runs
            .iter()
            .map(|(w, eps, secs)| {
                format!("{{\"workers\": {w}, \"events_per_sec\": {eps:.1}, \"secs\": {secs:.4}}}")
            })
            .collect(),
    );
    let eval_json = jarr(
        eval_runs
            .iter()
            .map(|(w, qps, cps, secs)| {
                format!(
                    "{{\"workers\": {w}, \"queries_per_sec\": {qps:.1}, \
                     \"candidates_per_sec\": {cps:.1}, \"secs\": {secs:.4}}}"
                )
            })
            .collect(),
    );
    let serve_json = jarr(
        serve_runs
            .iter()
            .map(|(w, qps, cqps, uqps, p50, p99, cp50, up50, applied)| {
                format!(
                    "{{\"workers\": {w}, \"qps\": {qps:.1}, \"cached_qps\": {cqps:.1}, \
                     \"uncached_qps\": {uqps:.1}, \"p50_us\": {p50:.1}, \
                     \"p99_us\": {p99:.1}, \"cached_p50_us\": {cp50:.1}, \
                     \"uncached_p50_us\": {up50:.1}, \"events_applied\": {applied}}}"
                )
            })
            .collect(),
    );
    let shards_json = jarr(
        shard_runs
            .iter()
            .map(|(s, eps, qps, cqps, uqps, digest, applied)| {
                format!(
                    "{{\"shards\": {s}, \"ingest_events_per_sec\": {eps:.1}, \
                     \"qps\": {qps:.1}, \"cached_qps\": {cqps:.1}, \
                     \"uncached_qps\": {uqps:.1}, \"probe_digest\": \"{digest:#018x}\", \
                     \"events_applied\": {applied}}}"
                )
            })
            .collect(),
    );
    let ann_legs = jarr(
        ann_runs
            .iter()
            .map(|(label, qps, p50, p99, recall, _)| {
                format!(
                    "{{\"mode\": \"{label}\", \"workers\": 1, \"qps\": {qps:.1}, \
                     \"p50_us\": {p50:.1}, \"p99_us\": {p99:.1}, \
                     \"recall_at_10\": {recall:.4}}}"
                )
            })
            .collect(),
    );
    let ann_catalog = ann_runs.first().map_or(0, |r| r.5);
    let ann_index_json = match ann_index_stats {
        Some(s) => {
            let ratio = s.per_rel_bytes as f64 / (s.shared_bytes.max(1)) as f64;
            format!(
                "{{\"relations\": {}, \"groups\": {}, \
                 \"live_bytes\": {}, \"shared_base_bytes\": {}, \
                 \"per_relation_bytes\": {}, \"bytes_ratio\": {ratio:.2}, \
                 \"shared_build_us\": {}, \
                 \"per_relation_build_us\": {}, \
                 \"publish_last_us\": {}, \"refresh_batch\": {}, \
                 \"effective_ef_search\": {}, \"effective_ef_margin\": {}}}",
                da.prototype.schema().num_relations(),
                s.groups,
                s.live_bytes,
                s.shared_bytes,
                s.per_rel_bytes,
                s.shared_us,
                s.per_rel_us,
                s.publish_last_us,
                s.refresh_batch,
                s.ef_search,
                s.ef_margin,
            )
        }
        None => "null".to_string(),
    };
    let ann_json = format!(
        "{{\n    \"dataset\": \"Taobao\",\n    \"scale\": {ann_scale},\n    \
         \"catalog_items\": {ann_catalog},\n    \"events\": {},\n    \
         \"queries\": {ann_queries},\n    \"ef_search\": {},\n    \
         \"ef_margin\": {},\n    \"query_phase_only\": true,\n    \
         \"index\": {ann_index_json},\n    \"legs\": {ann_legs}\n  }}",
        da.edges.len(),
        ann_opts.ef_search,
        ann_opts.ef_margin,
    );
    let json = format!(
        "{{\n  \"benchmark\": \"throughput\",\n  \"dataset\": \"{}\",\n  \
         \"scale\": {},\n  \"seed\": {},\n  \"quick\": {},\n  \
         \"workers_measured\": [1, 4],\n  \"shards_measured\": [1, 2, 4],\n  \
         \"nproc\": {},\n  \
         \"train_events\": {},\n  \"test_edges\": {},\n  \
         \"train\": {},\n  \"eval\": {},\n  \"serve\": {},\n  \
         \"sharded_serve\": {},\n  \"ann\": {}\n}}\n",
        d.name,
        cfg.scale,
        cfg.seed,
        cfg.quick,
        supa_par::available_workers(),
        train.len(),
        test.len(),
        train_json,
        eval_json,
        serve_json,
        shards_json,
        ann_json,
    );
    write_bench_json(cfg, "throughput", &json);
    t.save_tsv("throughput.tsv").ok();
    vec![t]
}

/// Shard-key study: how local is the splitmix64 source-user shard key?
///
/// Replays a stream, sampling each event's training footprint (endpoints ∪
/// walk steps ∪ negatives — exactly the conflict set the wave builder
/// marks) via `Supa::event_touched_nodes`, then reports for
/// `N ∈ {2, 4, 8, 16}`: the fraction of events whose footprint crosses
/// shards, the fraction of touched rows owned by a foreign shard, and the
/// ownership balance (max/mean events per shard). Cross-shard events are
/// the ones the sharded engine must train in one global order, so these
/// rates are the empirical justification for the source-user key (see
/// DESIGN.md §15).
///
/// Besides the usual table/TSV, writes machine-readable
/// `BENCH_shardkey.json` at the repo root. The statistics are
/// deterministic for a fixed dataset, scale, and seed.
pub fn shardkey(cfg: &HarnessConfig) -> Vec<Table> {
    use supa_par::{shard_of, ShardStats};

    const SHARD_COUNTS: [usize; 4] = [2, 4, 8, 16];
    let mut d = make_dataset("Taobao", cfg);
    if cfg.quick {
        d.edges.truncate(2_000);
    }
    let g = d.full_graph();
    let mut m = make_supa(&d, cfg);
    m.resolve_time_scale(&g);

    // Sample every event's footprint once; the per-N statistics reuse it.
    eprintln!("[shardkey] sampling {} event footprints", d.edges.len());
    let footprints: Vec<(u32, Vec<u32>)> = d
        .edges
        .iter()
        .map(|e| (e.src.0, m.event_touched_nodes(&g, e)))
        .collect();
    let mean_footprint = footprints.iter().map(|(_, t)| t.len() as f64).sum::<f64>()
        / (footprints.len().max(1)) as f64;

    let mut t = Table::new(
        "Shard-key study — source-user splitmix64 locality",
        vec![
            "shards".into(),
            "cross-event rate".into(),
            "foreign-touch rate".into(),
            "ownership max/mean".into(),
            "events".into(),
        ],
    );
    let mut rows = Vec::new();
    for &n in &SHARD_COUNTS {
        let mut stats = ShardStats::default();
        let mut owned = vec![0u64; n];
        for (src, touched) in &footprints {
            let owner = shard_of(*src, n);
            owned[owner] += 1;
            stats.record(owner, touched.iter().map(|&x| shard_of(x, n)));
        }
        let mean_owned = footprints.len() as f64 / n as f64;
        let balance = owned.iter().copied().max().unwrap_or(0) as f64 / mean_owned.max(1e-9);
        eprintln!(
            "[shardkey] N={n}: cross {:.4}, foreign touches {:.4}, balance {balance:.3}",
            stats.cross_rate(),
            stats.foreign_touch_rate(),
        );
        t.push(vec![
            n.to_string(),
            fmt4(stats.cross_rate()),
            fmt4(stats.foreign_touch_rate()),
            format!("{balance:.3}"),
            stats.events.to_string(),
        ]);
        rows.push((n, stats, balance, owned));
    }

    // --- machine-readable artefact (placed by `write_bench_json`) --------
    let jarr = |items: Vec<String>| format!("[\n    {}\n  ]", items.join(",\n    "));
    let rows_json = jarr(
        rows.iter()
            .map(|(n, stats, balance, owned)| {
                let owned_json = owned
                    .iter()
                    .map(u64::to_string)
                    .collect::<Vec<_>>()
                    .join(", ");
                format!(
                    "{{\"shards\": {n}, \"cross_event_rate\": {:.4}, \
                     \"foreign_touch_rate\": {:.4}, \"events\": {}, \
                     \"touches\": {}, \"ownership_max_over_mean\": {balance:.4}, \
                     \"owned_events\": [{owned_json}]}}",
                    stats.cross_rate(),
                    stats.foreign_touch_rate(),
                    stats.events,
                    stats.touches,
                )
            })
            .collect(),
    );
    let json = format!(
        "{{\n  \"benchmark\": \"shardkey\",\n  \"dataset\": \"{}\",\n  \
         \"scale\": {},\n  \"seed\": {},\n  \"quick\": {},\n  \
         \"events\": {},\n  \"mean_footprint_nodes\": {mean_footprint:.2},\n  \
         \"shard_counts\": [2, 4, 8, 16],\n  \"rows\": {rows_json}\n}}\n",
        d.name,
        cfg.scale,
        cfg.seed,
        cfg.quick,
        footprints.len(),
    );
    write_bench_json(cfg, "shardkey", &json);
    t.save_tsv("shardkey.tsv").ok();
    vec![t]
}

/// Overload robustness benchmark (admission-control PR): times a quiet
/// closed-loop replay to calibrate the sustainable ingest rate, then
/// offers a 2× open-loop Poisson burst under each shedding policy and
/// records shed counts per priority class, the degradation ladder's peak
/// and recovery, achieved rate, and exact query tail latency. `block` runs
/// as the contrast row: it sheds nothing but its achieved rate sags to the
/// sustainable rate (backpressure), which is exactly the trade the
/// shedding policies exist to escape.
///
/// Besides the usual table/TSV, writes machine-readable
/// `BENCH_overload.json` at the repo root. Rates and latencies are
/// machine-dependent; shed/ladder *behavior* under a genuine 2× burst is
/// not (see `tests/overload.rs`).
pub fn overload(cfg: &HarnessConfig) -> Vec<Table> {
    use std::time::{Duration, Instant};
    use supa_serve::{
        run_closed_loop, run_open_loop, AdmissionOptions, LoadConfig, OpenLoopConfig, ServeConfig,
        ShedPolicy,
    };

    const FACTOR: f64 = 2.0;
    let mut d = make_dataset("Taobao", cfg);
    if cfg.quick {
        d.edges.truncate(2_000);
    }
    let serve_cfg = |policy: ShedPolicy| ServeConfig {
        train_batch: 64,
        queue_capacity: 256,
        admission: AdmissionOptions {
            policy,
            ..AdmissionOptions::default()
        },
        ..ServeConfig::default()
    };

    // Calibrate: a quiet closed-loop replay (block policy, no readers)
    // bounds the sustainable ingest rate; the burst offers FACTOR times it.
    let t0 = Instant::now();
    let cal = run_closed_loop(
        &d,
        make_supa(&d, cfg),
        serve_cfg(ShedPolicy::Block),
        LoadConfig {
            readers: 0,
            queries_per_reader: 0,
            seed: cfg.seed,
            verify: false,
            ..LoadConfig::default()
        },
    )
    .expect("calibration replay");
    let cal_secs = t0.elapsed().as_secs_f64().max(1e-6);
    let sustainable = (cal.events_offered as f64 / cal_secs).max(1.0);
    let rate = sustainable * FACTOR;
    eprintln!(
        "[overload] ~{sustainable:.0} ev/s sustainable, bursting at {rate:.0} ev/s ({FACTOR}×)"
    );

    let mut t = Table::new(
        "Overload — 2× open-loop burst per shedding policy",
        vec![
            "policy".into(),
            "achieved".into(),
            "shed".into(),
            "resampled".into(),
            "ladder".into(),
            "p99".into(),
            "torn".into(),
        ],
    );
    let mut runs = Vec::new();
    for policy in [
        ShedPolicy::Block,
        ShedPolicy::DropOldest,
        ShedPolicy::SampleOneInK,
    ] {
        let report = run_open_loop(
            &d,
            make_supa(&d, cfg),
            serve_cfg(policy),
            LoadConfig {
                readers: 2,
                seed: cfg.seed,
                verify: true,
                ..LoadConfig::default()
            },
            OpenLoopConfig {
                arrival_rate: rate,
                events: d.edges.len(),
                recovery_timeout: Duration::from_secs(15),
            },
        )
        .expect("open-loop burst");
        let m = &report.metrics;
        eprintln!(
            "[overload] {policy}: ~{:.0} ev/s achieved, {} shed, {} resampled, \
             ladder max {} final {}, p99 {:.0}µs",
            report.achieved_rate,
            m.events_shed(),
            m.events_resampled,
            m.degradation_max,
            report.final_level,
            report.query_p99_us,
        );
        t.push(vec![
            policy.to_string(),
            format!("{:.0} ev/s", report.achieved_rate),
            format!(
                "{} (l {} / n {} / h {})",
                m.events_shed(),
                m.events_shed_low,
                m.events_shed_normal,
                m.events_shed_high
            ),
            m.events_resampled.to_string(),
            format!("max {} final {}", m.degradation_max, report.final_level),
            format!("{:.0}µs", report.query_p99_us),
            m.torn_reads.to_string(),
        ]);
        runs.push((policy, report));
    }

    // --- machine-readable artefact (placed by `write_bench_json`) --------
    let jarr = |items: Vec<String>| format!("[\n    {}\n  ]", items.join(",\n    "));
    let runs_json = jarr(
        runs.iter()
            .map(|(policy, r)| {
                let m = &r.metrics;
                format!(
                    "{{\"policy\": \"{policy}\", \"offered\": {}, \
                     \"achieved_rate\": {:.1}, \"events_shed\": {}, \
                     \"shed_low\": {}, \"shed_normal\": {}, \"shed_high\": {}, \
                     \"events_resampled\": {}, \"degradation_max\": {}, \
                     \"final_level\": {}, \"queries\": {}, \"p50_us\": {:.1}, \
                     \"p99_us\": {:.1}, \"torn_reads\": {}}}",
                    r.events_offered,
                    r.achieved_rate,
                    m.events_shed(),
                    m.events_shed_low,
                    m.events_shed_normal,
                    m.events_shed_high,
                    m.events_resampled,
                    m.degradation_max,
                    r.final_level,
                    r.queries,
                    r.query_p50_us,
                    r.query_p99_us,
                    m.torn_reads,
                )
            })
            .collect(),
    );
    let json = format!(
        "{{\n  \"benchmark\": \"overload\",\n  \"dataset\": \"{}\",\n  \
         \"scale\": {},\n  \"seed\": {},\n  \"quick\": {},\n  \
         \"events\": {},\n  \"sustainable_rate\": {sustainable:.1},\n  \
         \"offered_rate\": {rate:.1},\n  \"overload_factor\": {FACTOR},\n  \
         \"queue_capacity\": 256,\n  \"runs\": {runs_json}\n}}\n",
        d.name,
        cfg.scale,
        cfg.seed,
        cfg.quick,
        d.edges.len(),
    );
    write_bench_json(cfg, "overload", &json);
    t.save_tsv("overload.tsv").ok();
    vec![t]
}

/// Replication: delta wire economy and read scaling.
///
/// Part 1 replays the stream with segment publication and sizes the frames:
/// mean/max delta bytes per epoch against the full-baseline bytes (the
/// ratio is what makes per-epoch deltas shippable at all), plus the mean
/// apply cost per delta on a cold replica.
///
/// Part 2 runs the writer under query load with 0, 1, and 2 TCP replicas
/// attached from epoch 0; once each replica has caught up (clean EOF) it
/// answers its own query batch, and the aggregate of writer + replica QPS
/// is the multi-process read-scaling curve.
///
/// Besides the usual table/TSV, writes machine-readable
/// `BENCH_replication.json` at the repo root. Byte counts and epoch counts
/// are deterministic for a seeded run; QPS and timing are machine-dependent
/// (bit-identity of replica answers is asserted in `tests/replication.rs`,
/// not here).
pub fn replication(cfg: &HarnessConfig) -> Vec<Table> {
    use std::time::Instant;
    use supa::delta::{decode_frame, Frame};
    use supa_graph::{NodeId, RelationId};
    use supa_replica::{replay_segment, run_tcp, PublishOptions, Replica};
    use supa_serve::{run_closed_loop, LoadConfig, ServeConfig};

    let mut d = make_dataset("Taobao", cfg);
    if cfg.quick {
        d.edges.truncate(2_000);
    }
    // Wire economy is a ratio of full-graph bytes to touched-set bytes, so
    // it needs the paper-scale node population: at bench scales the item
    // floor (1 400) makes the graph so small that one 64-event epoch
    // touches most rows. Only the stream length is truncated for speed.
    let economy_scale = cfg.scale.max(1.0);
    let mut econ = make_dataset(
        "Taobao",
        &HarnessConfig {
            scale: economy_scale,
            ..*cfg
        },
    );
    econ.edges.truncate(if cfg.quick { 1_000 } else { 2_000 });
    // Publication cadence for the economy run. Delta bytes scale with the
    // rows an epoch touches, so the economy of the wire format is a
    // function of how often the writer publishes: small epochs ship small
    // deltas. 8 events/epoch is the fine-grained end of the cadence.
    let economy_train_batch = 8usize;
    let load = |readers: usize| LoadConfig {
        readers,
        queries_per_reader: if cfg.quick { 200 } else { 500 },
        seed: cfg.seed,
        verify: false,
        ..LoadConfig::default()
    };
    let replica_queries = if cfg.quick { 500 } else { 2_000 };

    // Query mix for the replica side: every (relation, source node) pair
    // universe, cycled — the same shape the serving load generator uses.
    let pairs: Vec<(NodeId, RelationId)> = {
        let schema = d.prototype.schema();
        let mut pairs = Vec::new();
        for r in 0..schema.num_relations() {
            let rel = RelationId(r as u16);
            let users = d
                .prototype
                .nodes_of_type(schema.relation(rel).unwrap().src_type);
            for &u in users.iter().take(64) {
                pairs.push((u, rel));
            }
        }
        pairs
    };

    // --- part 1: frame economy over the segment transport ---------------
    let seg_path = std::env::temp_dir().join(format!("supa-bench-replication-{}.seg", cfg.seed));
    let _ = std::fs::remove_file(&seg_path);
    let report = run_closed_loop(
        &econ,
        make_supa(&econ, cfg),
        ServeConfig {
            train_batch: economy_train_batch,
            replication: Some(PublishOptions {
                segment: Some(seg_path.clone()),
                ..PublishOptions::default()
            }),
            ..ServeConfig::default()
        },
        load(0),
    )
    .expect("segment-publishing replay");
    let buf = std::fs::read(&seg_path).expect("segment file");
    let (mut baseline_bytes, mut delta_bytes, mut max_delta, mut epochs) = (0u64, 0u64, 0u64, 0u64);
    let mut pos = 0usize;
    while pos < buf.len() {
        let (frame, consumed) = decode_frame(&buf[pos..]).expect("well-formed segment");
        match frame {
            Frame::Baseline(_) => baseline_bytes = consumed as u64,
            Frame::Delta(_) => {
                delta_bytes += consumed as u64;
                max_delta = max_delta.max(consumed as u64);
                epochs += 1;
            }
        }
        pos += consumed;
    }
    let mean_delta = delta_bytes as f64 / (epochs.max(1)) as f64;
    let ratio = baseline_bytes as f64 / mean_delta.max(1.0);
    let t0 = Instant::now();
    let mut cold = Replica::new(econ.prototype.clone(), None);
    replay_segment(&seg_path, &mut cold).expect("cold replay");
    let apply_us = t0.elapsed().as_secs_f64() * 1e6 / (epochs.max(1)) as f64;
    let _ = std::fs::remove_file(&seg_path);
    eprintln!(
        "[replication] {} epochs: baseline {} B, mean delta {:.0} B (max {}), \
         {ratio:.1}× smaller, cold apply {apply_us:.0} µs/epoch",
        epochs, baseline_bytes, mean_delta, max_delta
    );
    if ratio < 10.0 {
        eprintln!("[replication] WARNING: delta/baseline ratio below the 10× target");
    }

    // --- part 2: aggregate QPS with 0/1/2 replicas -----------------------
    let mut t = Table::new(
        "Replication — read scaling, writer + R replicas",
        vec![
            "replicas".into(),
            "writer qps".into(),
            "replica qps".into(),
            "aggregate".into(),
            "catchup".into(),
        ],
    );
    let mut scaling = Vec::new();
    for replicas in [0usize, 1, 2] {
        // Pre-bind to learn a free port, then let the engine take it; the
        // replicas' connect loop retries through the hand-off window.
        let addr = {
            let probe = std::net::TcpListener::bind("127.0.0.1:0").expect("probe bind");
            probe.local_addr().expect("probe addr").to_string()
        };
        let replication = (replicas > 0).then(|| PublishOptions {
            tcp_addr: Some(addr.clone()),
            wait_subscribers: replicas,
            ..PublishOptions::default()
        });
        let model = make_supa(&d, cfg);
        let (writer_report, replica_stats) = std::thread::scope(|scope| {
            let tails: Vec<_> = (0..replicas)
                .map(|_| {
                    let addr = &addr;
                    let d = &d;
                    let pairs = &pairs;
                    scope.spawn(move || {
                        let mut replica = Replica::new(d.prototype.clone(), None);
                        run_tcp(addr, &mut replica, 4).expect("replica tail");
                        let caught_up = Instant::now();
                        let t0 = Instant::now();
                        for i in 0..replica_queries {
                            let (user, rel) = pairs[i % pairs.len()];
                            std::hint::black_box(replica.query(user, rel, 10));
                        }
                        let qps = replica_queries as f64 / t0.elapsed().as_secs_f64().max(1e-9);
                        (qps, caught_up, replica.counters)
                    })
                })
                .collect();
            let report = run_closed_loop(
                &d,
                model,
                ServeConfig {
                    train_batch: 64,
                    replication,
                    ..ServeConfig::default()
                },
                load(2),
            )
            .expect("writer under query load");
            let writer_done = Instant::now();
            let stats: Vec<(f64, f64, u64)> = tails
                .into_iter()
                .map(|h| {
                    let (qps, caught_up, counters) = h.join().expect("replica thread");
                    let catchup_ms = caught_up
                        .saturating_duration_since(writer_done)
                        .as_secs_f64()
                        * 1e3;
                    assert_eq!(counters.crc_failures, 0, "clean run must not tear frames");
                    (qps, catchup_ms, counters.deltas_applied)
                })
                .collect();
            (report, stats)
        });
        let writer_qps = writer_report.metrics.qps;
        let replica_qps = replica_stats.iter().fold(0.0f64, |acc, &(q, _, _)| acc + q);
        let catchup_ms = replica_stats
            .iter()
            .map(|&(_, c, _)| c)
            .fold(0.0f64, f64::max);
        eprintln!(
            "[replication] {replicas} replicas: writer {writer_qps:.0} qps + \
             replicas {replica_qps:.0} qps = {:.0} aggregate, catchup ≤{catchup_ms:.0} ms",
            writer_qps + replica_qps
        );
        t.push(vec![
            replicas.to_string(),
            format!("{writer_qps:.0}"),
            format!("{replica_qps:.0}"),
            format!("{:.0}", writer_qps + replica_qps),
            format!("{catchup_ms:.0} ms"),
        ]);
        scaling.push((replicas, writer_qps, replica_qps, catchup_ms, replica_stats));
    }

    // --- machine-readable artefact (placed by `write_bench_json`) --------
    let jarr = |items: Vec<String>| format!("[\n    {}\n  ]", items.join(",\n    "));
    let scaling_json = jarr(
        scaling
            .iter()
            .map(|(replicas, writer_qps, replica_qps, catchup_ms, stats)| {
                let per_replica = stats
                    .iter()
                    .map(|&(q, _, deltas)| {
                        format!("{{\"qps\": {q:.1}, \"deltas_applied\": {deltas}}}")
                    })
                    .collect::<Vec<_>>()
                    .join(", ");
                format!(
                    "{{\"replicas\": {replicas}, \"writer_qps\": {writer_qps:.1}, \
                     \"replica_qps\": {replica_qps:.1}, \"aggregate_qps\": {:.1}, \
                     \"max_catchup_ms\": {catchup_ms:.1}, \"per_replica\": [{per_replica}]}}",
                    writer_qps + replica_qps,
                )
            })
            .collect(),
    );
    let json = format!(
        "{{\n  \"benchmark\": \"replication\",\n  \"dataset\": \"{}\",\n  \
         \"scale\": {},\n  \"seed\": {},\n  \"quick\": {},\n  \
         \"economy_scale\": {economy_scale},\n  \
         \"economy_nodes\": {},\n  \
         \"economy_train_batch\": {economy_train_batch},\n  \
         \"events\": {},\n  \"epochs\": {epochs},\n  \
         \"events_applied\": {},\n  \
         \"baseline_bytes\": {baseline_bytes},\n  \
         \"mean_delta_bytes\": {mean_delta:.1},\n  \
         \"max_delta_bytes\": {max_delta},\n  \
         \"total_delta_bytes\": {delta_bytes},\n  \
         \"baseline_to_mean_delta_ratio\": {ratio:.2},\n  \
         \"cold_apply_us_per_epoch\": {apply_us:.1},\n  \
         \"scaling\": {scaling_json}\n}}\n",
        d.name,
        cfg.scale,
        cfg.seed,
        cfg.quick,
        econ.num_nodes(),
        econ.edges.len(),
        report.metrics.events_applied,
    );
    write_bench_json(cfg, "replication", &json);
    t.save_tsv("replication.tsv").ok();
    vec![t]
}

/// Streaming-ingestion benchmark: writes a generator dataset to a TSV dump
/// on disk, then replays that same dump through the materialised path
/// (`load_tsv` → closed loop) and the streaming path (`scan_tsv` →
/// `run_streamed_closed_loop`), asserting the probe digests are
/// bit-identical. Emits `BENCH_ingest.json` at the repo root with both
/// legs' events/s and the streaming path's bounded-memory proxy: the
/// interner's peak resident bytes plus the ingest-queue bound, against the
/// materialised leg's O(events) edge buffer.
pub fn ingest(cfg: &HarnessConfig) -> Vec<Table> {
    use std::time::Instant;
    use supa_graph::TemporalEdge;
    use supa_ingest::{scan_tsv, IngestOptions};
    use supa_serve::{run_closed_loop, run_streamed_closed_loop, LoadConfig, ServeConfig};

    let mut d = make_dataset("Taobao", cfg);
    if cfg.quick {
        d.edges.truncate(2_000);
    }
    let dump = std::env::temp_dir().join(format!("supa-bench-ingest-{}.tsv", cfg.seed));
    // The streamed dataset is named after the dump's file stem, and the
    // model builder keys a tweak off the dataset name — give the
    // materialised leg the same name so both legs build the same model.
    let stem = dump
        .file_stem()
        .and_then(|s| s.to_str())
        .expect("utf-8 stem")
        .to_string();
    {
        let f = std::fs::File::create(&dump).expect("create dump");
        let mut w = std::io::BufWriter::new(f);
        supa_datasets::save_tsv(&d, &mut w).expect("write dump");
    }
    let dump_bytes = std::fs::metadata(&dump).expect("dump metadata").len();
    let serve = || ServeConfig {
        train_batch: 64,
        ..ServeConfig::default()
    };
    let load = || LoadConfig {
        readers: 2,
        queries_per_reader: if cfg.quick { 100 } else { 400 },
        seed: cfg.seed,
        verify: false,
        ..LoadConfig::default()
    };

    // --- materialised leg: load_tsv buffers every edge, then replays -----
    let t0 = Instant::now();
    let md = {
        let f = std::fs::File::open(&dump).expect("open dump");
        supa_datasets::load_tsv(&stem, std::io::BufReader::new(f)).expect("load_tsv")
    };
    let load_secs = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let mrep =
        run_closed_loop(&md, make_supa(&md, cfg), serve(), load()).expect("materialised replay");
    let mat_secs = t0.elapsed().as_secs_f64().max(1e-9);
    let mat_eps = mrep.events_offered as f64 / (mat_secs + load_secs);

    // --- streamed leg: edges go disk → ingest queue, never a Vec ---------
    let t0 = Instant::now();
    let scan = scan_tsv(&dump, &IngestOptions::default()).expect("scan dump");
    let scan_secs = t0.elapsed().as_secs_f64();
    let (sd, mut stream) = scan.into_stream().expect("open stream");
    let t0 = Instant::now();
    let srep = run_streamed_closed_loop(&sd, make_supa(&sd, cfg), serve(), load(), &mut stream)
        .expect("streamed replay");
    let stream_secs = t0.elapsed().as_secs_f64().max(1e-9);
    let stream_eps = srep.events_offered as f64 / (stream_secs + scan_secs);
    let st = stream.stats();
    let _ = std::fs::remove_file(&dump);

    assert_eq!(
        mrep.digest, srep.digest,
        "streamed replay must reproduce the materialised probe digest"
    );
    assert_eq!(mrep.events_offered, srep.events_offered, "same event count");

    let edge_bytes = (md.edges.len() * std::mem::size_of::<TemporalEdge>()) as u64;
    let queue_bytes =
        (ServeConfig::default().queue_capacity * std::mem::size_of::<TemporalEdge>()) as u64;
    let stream_resident = st.interner.peak_mem_bytes + queue_bytes;
    eprintln!(
        "[ingest] {} events ({dump_bytes} B on disk): materialised {mat_eps:.0} ev/s \
         (load {load_secs:.2}s + replay {mat_secs:.2}s, {edge_bytes} B buffered), \
         streamed {stream_eps:.0} ev/s (scan {scan_secs:.2}s + replay {stream_secs:.2}s, \
         {stream_resident} B resident), digest {:#018x}",
        srep.events_offered, srep.digest
    );

    let mut t = Table::new(
        "Streaming ingestion — materialised vs streamed replay of one dump",
        vec![
            "leg".into(),
            "events/s".into(),
            "resident bytes".into(),
            "digest".into(),
        ],
    );
    t.push(vec![
        "materialised".into(),
        format!("{mat_eps:.0}"),
        edge_bytes.to_string(),
        format!("{:#018x}", mrep.digest),
    ]);
    t.push(vec![
        "streamed".into(),
        format!("{stream_eps:.0}"),
        stream_resident.to_string(),
        format!("{:#018x}", srep.digest),
    ]);

    let json = format!(
        "{{\n  \"benchmark\": \"ingest\",\n  \"dataset\": \"{}\",\n  \
         \"scale\": {},\n  \"seed\": {},\n  \"quick\": {},\n  \
         \"events\": {},\n  \"dump_bytes\": {dump_bytes},\n  \
         \"digest\": \"{:#018x}\",\n  \"digests_equal\": true,\n  \
         \"materialised\": {{\"events_per_s\": {mat_eps:.1}, \
         \"load_secs\": {load_secs:.3}, \"replay_secs\": {mat_secs:.3}, \
         \"edge_buffer_bytes\": {edge_bytes}}},\n  \
         \"streamed\": {{\"events_per_s\": {stream_eps:.1}, \
         \"scan_secs\": {scan_secs:.3}, \"replay_secs\": {stream_secs:.3}, \
         \"resident_bytes\": {stream_resident}, \
         \"interner_peak_bytes\": {}, \"interner_spills\": {}, \
         \"queue_bound_bytes\": {queue_bytes}, \
         \"lines\": {}, \"malformed\": {}}}\n}}\n",
        d.name,
        cfg.scale,
        cfg.seed,
        cfg.quick,
        srep.events_offered,
        srep.digest,
        st.interner.peak_mem_bytes,
        st.interner.spills,
        st.lines,
        st.malformed,
    );
    write_bench_json(cfg, "ingest", &json);
    t.save_tsv("ingest.tsv").ok();
    vec![t]
}

/// Renders the Figure 9 scatter (user-item pairs joined by lines) as an SVG
/// per method, mirroring the paper's visual.
pub fn fig9_svg(coords: &Table) -> std::io::Result<std::path::PathBuf> {
    use std::io::Write;
    // Group rows by method: (method, pair, role, x, y).
    let mut by_method: std::collections::BTreeMap<String, Vec<(usize, f64, f64)>> =
        Default::default();
    for row in &coords.rows {
        let pair: usize = row[1].parse().unwrap_or(0);
        let x: f64 = row[3].parse().unwrap_or(0.0);
        let y: f64 = row[4].parse().unwrap_or(0.0);
        by_method
            .entry(row[0].clone())
            .or_default()
            .push((pair, x, y));
    }
    let path = experiments_dir().join("fig9_visualisation.svg");
    std::fs::create_dir_all(experiments_dir())?;
    let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
    let panel = 260.0;
    let cols = 3usize;
    let rows_n = by_method.len().div_ceil(cols);
    writeln!(
        f,
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{}" height="{}" font-family="sans-serif">"#,
        panel * cols as f64,
        panel * rows_n as f64 + 20.0
    )?;
    for (idx, (method, pts)) in by_method.iter().enumerate() {
        let ox = panel * (idx % cols) as f64;
        let oy = panel * (idx / cols) as f64 + 20.0;
        // Normalise into the panel with a margin.
        let (mut xmin, mut xmax, mut ymin, mut ymax) = (f64::MAX, f64::MIN, f64::MAX, f64::MIN);
        for &(_, x, y) in pts {
            xmin = xmin.min(x);
            xmax = xmax.max(x);
            ymin = ymin.min(y);
            ymax = ymax.max(y);
        }
        let sx = (panel - 40.0) / (xmax - xmin).max(1e-9);
        let sy = (panel - 40.0) / (ymax - ymin).max(1e-9);
        let px = |x: f64| ox + 20.0 + (x - xmin) * sx;
        let py = |y: f64| oy + 20.0 + (y - ymin) * sy;
        writeln!(
            f,
            r#"<text x="{}" y="{}" font-size="13">{}</text>"#,
            ox + 10.0,
            oy - 5.0,
            method
        )?;
        // Pair lines then points (user red, item green, the paper's colours).
        let mut pairs: std::collections::BTreeMap<usize, Vec<(f64, f64)>> = Default::default();
        for &(pair, x, y) in pts {
            pairs.entry(pair).or_default().push((px(x), py(y)));
        }
        for ends in pairs.values() {
            if ends.len() == 2 {
                writeln!(
                    f,
                    r#"<line x1="{:.1}" y1="{:.1}" x2="{:.1}" y2="{:.1}" stroke="gray" stroke-width="0.7"/>"#,
                    ends[0].0, ends[0].1, ends[1].0, ends[1].1
                )?;
                writeln!(
                    f,
                    r#"<circle cx="{:.1}" cy="{:.1}" r="3" fill="crimson"/>"#,
                    ends[0].0, ends[0].1
                )?;
                writeln!(
                    f,
                    r#"<circle cx="{:.1}" cy="{:.1}" r="3" fill="seagreen"/>"#,
                    ends[1].0, ends[1].1
                )?;
            }
        }
    }
    writeln!(f, "</svg>")?;
    Ok(path)
}

/// Runs every experiment in paper order.
pub fn run_all(cfg: &HarnessConfig) -> Vec<Table> {
    let mut out = Vec::new();
    out.extend(tables_5_6(cfg));
    out.extend(figs_4_5(cfg));
    out.extend(fig_6(cfg));
    out.extend(table_7(cfg));
    out.extend(table_8(cfg));
    out.extend(fig_7(cfg));
    out.extend(fig_8(cfg));
    out.extend(fig_9(cfg));
    out.extend(significance(cfg));
    out.extend(coldstart(cfg));
    eprintln!("TSV outputs in {}", experiments_dir().display());
    out
}
