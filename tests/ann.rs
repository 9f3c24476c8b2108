//! Integration tests for the `supa-ann` serving path: recall@K against the
//! brute-force ranking, exactness of re-scored answers, determinism of the
//! dirty-node index refresh, epoch-consistent verification, and the
//! brute-force fallback for beams that cover the whole catalog.

use supa_datasets::{taobao, Dataset};
use supa_eval::{top_k_scored, RecallAccumulator};
use supa_graph::RelationId;
use supa_serve::{AnnOptions, CheckpointOptions, ServeConfig, ServeEngine, ServeHandle};

mod common;
use common::{fast_model, query_pairs};

/// Serves the whole event stream with ANN enabled and flushes, leaving the
/// final epoch published.
fn serve_all(d: &Dataset, seed: u64, ann: AnnOptions) -> ServeHandle {
    let handle = ServeEngine::start(
        d.prototype.clone(),
        fast_model(d, seed),
        ServeConfig {
            train_batch: 64,
            keep_history: 1_000_000,
            ann: Some(ann),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    for &e in &d.edges {
        handle.ingest(e).unwrap();
    }
    handle.flush().unwrap();
    handle
}

/// ANN answers must recover ≥ 95% of the brute-force top-10 in aggregate,
/// and every score they return must be bit-identical to the exact γ of that
/// item — the index only proposes candidates, it never invents scores.
#[test]
fn ann_serving_recall_meets_floor_against_brute_force() {
    let d = taobao(0.05, 23);
    let handle = serve_all(
        &d,
        23,
        AnnOptions {
            guard_every: 1, // guard every ANN answer: full-coverage metric
            ..AnnOptions::default()
        },
    );

    let snap = handle.snapshot();
    let mut acc = RecallAccumulator::default();
    for (user, rel) in query_pairs(&d, 60) {
        let res = handle.query(user, rel, 10);
        assert_eq!(res.epoch, snap.epoch);
        let exact = top_k_scored(&snap.scorer, user, handle.candidates(rel), rel, 10);
        for &(item, score) in &res.items {
            assert_eq!(
                score.to_bits(),
                snap.scorer.gamma(user, item, rel).to_bits(),
                "user {} rel {}: ANN score for item {} is not the exact γ",
                user.0,
                rel.0,
                item.0
            );
        }
        acc.push(&exact, &res.items);
    }
    assert!(acc.mean() >= 0.95, "recall@10 = {}", acc.mean());

    let m = handle.metrics();
    assert!(m.ann_queries > 0, "queries should have used the index");
    assert!(
        m.ann_guard_checks > 0,
        "guard_every=1 must check every answer"
    );
    assert!(m.ann_recall >= 0.95, "guard recall {}", m.ann_recall);
    handle.shutdown();
}

/// Two identical runs must produce bit-identical ANN answers and identical
/// index fingerprints, and every answer must verify against the epoch it
/// claims — the dirty-node refresh is deterministic and the retained
/// history re-runs the same ANN path.
#[test]
fn ann_serving_is_deterministic_and_epoch_verifiable() {
    let d = taobao(0.02, 29);
    let pairs = query_pairs(&d, 30);

    let run = |verify: bool| {
        let handle = serve_all(&d, 29, AnnOptions::default());
        let mut answers = Vec::new();
        for &(user, rel) in &pairs {
            let res = handle.query(user, rel, 10);
            if verify {
                assert_eq!(
                    handle.verify(user, rel, 10, &res),
                    Some(true),
                    "user {} rel {}: ANN answer failed epoch verification",
                    user.0,
                    rel.0
                );
            }
            answers.push((
                res.epoch,
                res.items
                    .iter()
                    .map(|&(v, s)| (v, s.to_bits()))
                    .collect::<Vec<_>>(),
            ));
        }
        let snap = handle.snapshot();
        let ann = snap.ann.as_ref().expect("ANN epoch published");
        let fingerprints: Vec<Option<u64>> = (0..d.prototype.schema().num_relations())
            .map(|r| ann.index(RelationId(r as u16)).map(|i| i.fingerprint()))
            .collect();
        let report = handle.shutdown();
        assert_eq!(report.metrics.torn_reads, 0);
        (answers, fingerprints)
    };

    let (answers_a, prints_a) = run(true);
    let (answers_b, prints_b) = run(false);
    assert_eq!(answers_a, answers_b, "ANN answers must be bit-reproducible");
    assert_eq!(
        prints_a, prints_b,
        "index fingerprints must be reproducible"
    );
    assert!(
        prints_a.iter().any(Option::is_some),
        "at least one relation should carry an index"
    );
}

/// After training, the incrementally-refreshed shared-base index must hold
/// the *current* base vector (`h_long + h_short`) of every candidate: an
/// exact scan over its stored vectors must rank items identically to
/// freshly recomputing `⟨composite_u, base_v⟩` from the published scorer.
#[test]
fn dirty_node_refresh_keeps_index_vectors_current() {
    let d = taobao(0.02, 37);
    let handle = serve_all(&d, 37, AnnOptions::default());
    let snap = handle.snapshot();
    let ann = snap.ann.as_ref().expect("ANN epoch published");
    assert!(
        snap.epoch > 1,
        "stream should have published multiple epochs (got {})",
        snap.epoch
    );

    let mut query = Vec::new();
    let mut base = Vec::new();
    for (user, rel) in query_pairs(&d, 20) {
        let Some(index) = ann.index(rel) else {
            continue;
        };
        snap.scorer.composite_into(user, rel, &mut query);
        let mut stored: Vec<u32> = index.brute_force(&query, 10);
        // Ground truth with *fresh* base vectors, same dot-product ranking
        // (score desc, id asc) the index's exact scan uses: any stale stored
        // vector diverges the two rankings.
        let mut scored: Vec<(f32, u32)> = handle
            .candidates(rel)
            .iter()
            .map(|&v| {
                snap.scorer.base_into(v, &mut base);
                let s: f32 = query.iter().zip(&base).map(|(a, b)| a * b).sum();
                (s, v.0)
            })
            .collect();
        scored.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        let mut exact: Vec<u32> = scored.iter().take(10).map(|&(_, v)| v).collect();
        stored.sort_unstable();
        exact.sort_unstable();
        assert_eq!(
            stored, exact,
            "user {} rel {}: stored vectors diverge from the published scorer",
            user.0, rel.0
        );
    }
    handle.shutdown();
}

/// Relations landing on the same destination type must share one base
/// index — same object, same fingerprint — so index memory for Taobao's
/// four user→item relations is that of *one* index, not four.
#[test]
fn relations_with_one_destination_type_share_one_index() {
    let d = taobao(0.02, 53);
    let schema = d.prototype.schema().clone();
    let (group_of, num_groups) = schema.dst_type_groups();
    assert_eq!(num_groups, 1, "taobao relations all land on Item");
    assert!(group_of.len() >= 2, "need several relations to share");

    let handle = serve_all(&d, 53, AnnOptions::default());
    let snap = handle.snapshot();
    let ann = snap.ann.as_ref().expect("ANN epoch published");
    let first = ann
        .index(RelationId(0))
        .expect("relation 0 carries an index");
    for r in 1..schema.num_relations() {
        let other = ann
            .index(RelationId(r as u16))
            .expect("every relation shares the group index");
        assert_eq!(
            first.fingerprint(),
            other.fingerprint(),
            "relation {r} must share relation 0's base index"
        );
        assert!(std::ptr::eq(first, other), "shared, not duplicated");
    }
    // Serving through the shared index still returns exact γ scores.
    let snap = handle.snapshot();
    for (user, rel) in query_pairs(&d, 12) {
        let res = handle.query(user, rel, 10);
        for &(item, score) in &res.items {
            assert_eq!(
                score.to_bits(),
                snap.scorer.gamma(user, item, rel).to_bits()
            );
        }
    }
    handle.shutdown();
}

/// Checkpoint v3 round-trip: a resumed engine must restore the serialized
/// index set bit-identically (the incrementally-maintained structure, which
/// a rebuild could not reproduce) and answer queries byte-identically to
/// the writer that saved it. A checkpoint *without* an index section (saved
/// by a non-ANN run) must fall back to a rebuild and still serve exact
/// scores — never silently corrupt state.
#[test]
fn persisted_index_resume_restores_bit_identical_indexes() {
    let d = taobao(0.02, 47);
    let pairs = query_pairs(&d, 24);
    let dir = std::env::temp_dir().join(format!("supa-ann-it-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let ckpt = |resume: bool| CheckpointOptions {
        dir: dir.clone(),
        every: 4,
        keep: 3,
        resume,
    };
    let serve = |ann: Option<AnnOptions>, resume: bool| {
        let handle = ServeEngine::start(
            d.prototype.clone(),
            fast_model(&d, 47),
            ServeConfig {
                train_batch: 64,
                keep_history: 4,
                ann,
                checkpoint: Some(ckpt(resume)),
                ..ServeConfig::default()
            },
        )
        .unwrap();
        if !resume {
            for &e in &d.edges {
                handle.ingest(e).unwrap();
            }
            handle.flush().unwrap();
        }
        handle
    };
    let fingerprints = |handle: &ServeHandle| -> Vec<Option<u64>> {
        let snap = handle.snapshot();
        let ann = snap.ann.as_ref().expect("ANN epoch published");
        (0..d.prototype.schema().num_relations())
            .map(|r| ann.index(RelationId(r as u16)).map(|i| i.fingerprint()))
            .collect()
    };

    // Writer run: train, then shut down (publishes, then checkpoints the
    // fresh masters into the v3 index section).
    let writer = serve(Some(AnnOptions::default()), false);
    let prints_saved = fingerprints(&writer);
    let answers_saved: Vec<Vec<(u32, u32)>> = pairs
        .iter()
        .map(|&(user, rel)| {
            writer
                .query(user, rel, 10)
                .items
                .iter()
                .map(|&(v, s)| (v.0, s.to_bits()))
                .collect()
        })
        .collect();
    writer.shutdown();

    // Resumed run: no events — epoch 0 must already carry the restored
    // indexes, bit-identical to the saved (incrementally-maintained) ones.
    let resumed = serve(Some(AnnOptions::default()), true);
    let prints_restored = fingerprints(&resumed);
    assert_eq!(
        prints_saved, prints_restored,
        "restored index fingerprints must pin the saved structure"
    );
    for (&(user, rel), saved) in pairs.iter().zip(&answers_saved) {
        let got: Vec<(u32, u32)> = resumed
            .query(user, rel, 10)
            .items
            .iter()
            .map(|&(v, s)| (v.0, s.to_bits()))
            .collect();
        assert_eq!(
            &got, saved,
            "user {} rel {}: resumed probe digest",
            user.0, rel.0
        );
    }
    resumed.shutdown();

    // Fallback: a non-ANN run's checkpoint has no index section; resuming
    // *with* ANN must rebuild (from the restored embeddings) and keep
    // serving exact scores.
    let dir2 = std::env::temp_dir().join(format!("supa-ann-it-noindex-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir2);
    let plain = ServeEngine::start(
        d.prototype.clone(),
        fast_model(&d, 47),
        ServeConfig {
            train_batch: 64,
            checkpoint: Some(CheckpointOptions {
                dir: dir2.clone(),
                every: 4,
                keep: 3,
                resume: false,
            }),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    for &e in &d.edges {
        plain.ingest(e).unwrap();
    }
    plain.shutdown();
    let fallback = ServeEngine::start(
        d.prototype.clone(),
        fast_model(&d, 47),
        ServeConfig {
            train_batch: 64,
            ann: Some(AnnOptions::default()),
            checkpoint: Some(CheckpointOptions {
                dir: dir2.clone(),
                every: 4,
                keep: 3,
                resume: true,
            }),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let snap = fallback.snapshot();
    assert!(snap.ann.is_some(), "fallback must rebuild, not disable ANN");
    for &(user, rel) in pairs.iter().take(8) {
        let res = fallback.query(user, rel, 10);
        for &(item, score) in &res.items {
            assert_eq!(
                score.to_bits(),
                snap.scorer.gamma(user, item, rel).to_bits()
            );
        }
    }
    fallback.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&dir2);
}

/// A beam as wide as the catalog cannot beat the scan, so the engine must
/// fall back to exact brute force: answers bit-match the exact ranking and
/// the ANN query counter stays at zero.
#[test]
fn catalog_wide_beam_falls_back_to_exact_scoring() {
    let d = taobao(0.01, 43);
    let handle = serve_all(
        &d,
        43,
        AnnOptions {
            ef_search: usize::MAX,
            ..AnnOptions::default()
        },
    );
    let snap = handle.snapshot();
    for (user, rel) in query_pairs(&d, 12) {
        let res = handle.query(user, rel, 10);
        let exact = top_k_scored(&snap.scorer, user, handle.candidates(rel), rel, 10);
        assert_eq!(res.items.len(), exact.len());
        for (a, b) in res.items.iter().zip(&exact) {
            assert_eq!(a.0, b.0);
            assert_eq!(a.1.to_bits(), b.1.to_bits());
        }
    }
    let report = handle.shutdown();
    assert_eq!(
        report.metrics.ann_queries, 0,
        "fallback must skip the index"
    );
    assert_eq!(report.metrics.ann_guard_checks, 0);
}

/// The engine rejects unusable ANN configurations at startup instead of
/// silently disabling the guard (a NaN floor compares false forever) or
/// searching with an empty beam.
#[test]
fn engine_rejects_invalid_ann_options() {
    let d = taobao(0.005, 41);
    for (opts, needle) in [
        (
            AnnOptions {
                min_recall: f64::NAN,
                ..AnnOptions::default()
            },
            "min_recall",
        ),
        (
            AnnOptions {
                min_recall: 1.5,
                ..AnnOptions::default()
            },
            "min_recall",
        ),
        (
            AnnOptions {
                ef_search: 0,
                ..AnnOptions::default()
            },
            "ef_search",
        ),
    ] {
        let err = ServeEngine::start(
            d.prototype.clone(),
            fast_model(&d, 41),
            ServeConfig {
                ann: Some(opts),
                ..ServeConfig::default()
            },
        )
        .err()
        .expect("invalid ANN options must be rejected");
        assert!(err.to_string().contains(needle), "{err}");
    }
}
