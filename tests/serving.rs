//! Integration tests for the `supa-serve` online serving subsystem:
//! epoch consistency under concurrent load, bit-identical online/offline
//! training, strict-policy fault stops, and kill-and-resume recovery via
//! the fault-injection harness.

use std::sync::atomic::{AtomicU64, Ordering};

use supa::CheckpointManager;
use supa_bench::faults;
use supa_datasets::taobao;
use supa_eval::top_k_scored;
use supa_graph::{QuarantinePolicy, StreamGuard, TemporalEdge};
use supa_serve::{CheckpointOptions, ServeConfig, ServeEngine, StopCause};

mod common;
use common::{fast_model, query_pairs};

/// Readers running concurrently with the writer must only ever observe
/// results attributable to one published epoch — re-scoring a result
/// against the snapshot of the epoch it claims must match bit-for-bit.
#[test]
fn concurrent_queries_are_epoch_consistent() {
    let d = taobao(0.02, 31);
    let model = fast_model(&d, 31);
    let handle = ServeEngine::start(
        d.prototype.clone(),
        model,
        ServeConfig {
            train_batch: 64,
            keep_history: 1_000_000, // retain every epoch: all claims verifiable
            ..ServeConfig::default()
        },
    )
    .unwrap();

    let pairs = query_pairs(&d, 40);
    let verified = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for reader in 0..4usize {
            let handle = &handle;
            let pairs = &pairs;
            let verified = &verified;
            scope.spawn(move || {
                for i in 0..200usize {
                    let (user, rel) = pairs[(reader * 53 + i) % pairs.len()];
                    let result = handle.query(user, rel, 10);
                    match handle.verify(user, rel, 10, &result) {
                        Some(true) => {
                            verified.fetch_add(1, Ordering::Relaxed);
                        }
                        Some(false) => panic!(
                            "torn read: user {} rel {} claimed epoch {} but does not match it",
                            user.0, rel.0, result.epoch
                        ),
                        None => panic!("epoch {} missing from history", result.epoch),
                    }
                }
            });
        }
        for &e in &d.edges {
            handle.ingest(e).unwrap();
        }
    });

    let report = handle.shutdown();
    assert_eq!(verified.load(Ordering::Relaxed), 4 * 200);
    assert_eq!(report.metrics.torn_reads, 0);
    assert!(
        report.metrics.epochs_published > 1,
        "training should have published epochs concurrently with the queries"
    );
    assert!(matches!(report.stop, StopCause::Shutdown));
}

/// Serving N events and querying must be bit-identical to the offline path:
/// the same guard filtering, the same chunked `fit_incremental` calls over
/// the same graph state, then `top_k_scored` against the final state.
#[test]
fn online_serving_matches_offline_fit_incremental() {
    const CHUNK: usize = 64;
    let d = taobao(0.02, 17);
    let n_events = 1000.min(d.edges.len());
    let events = &d.edges[..n_events];

    // Online: serve the events with the cache disabled (so post-flush
    // queries always hit the final snapshot).
    let handle = ServeEngine::start(
        d.prototype.clone(),
        fast_model(&d, 17),
        ServeConfig {
            train_batch: CHUNK,
            cache_capacity: 0,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    for &e in events {
        handle.ingest(e).unwrap();
    }
    handle.flush().unwrap();

    // Offline: identical chunk loop on this thread.
    use supa_eval::Recommender;
    let mut model = fast_model(&d, 17);
    let mut g = d.prototype.clone();
    let mut guard = StreamGuard::new(QuarantinePolicy::Skip);
    let mut admitted: Vec<TemporalEdge> = Vec::new();
    let mut chunk: Vec<TemporalEdge> = Vec::new();
    for &e in events {
        if let Some(adm) = guard.admit(&g, e).unwrap() {
            g.add_edge(adm.src, adm.dst, adm.relation, adm.time)
                .unwrap();
            admitted.push(adm);
            chunk.push(adm);
            if chunk.len() == CHUNK {
                model.fit_incremental(&g, &chunk);
                chunk.clear();
            }
        }
    }
    if !chunk.is_empty() {
        model.fit_incremental(&g, &chunk);
    }
    let offline = model.export_serving_snapshot();

    for (user, rel) in query_pairs(&d, 25) {
        let online = handle.query(user, rel, 10);
        let expect = top_k_scored(&offline, user, handle.candidates(rel), rel, 10);
        assert_eq!(online.items.len(), expect.len());
        for (a, b) in online.items.iter().zip(&expect) {
            assert_eq!(a.0, b.0, "user {} rel {}: item mismatch", user.0, rel.0);
            assert_eq!(
                a.1.to_bits(),
                b.1.to_bits(),
                "user {} rel {}: score not bit-identical",
                user.0,
                rel.0
            );
        }
    }

    let report = handle.shutdown();
    assert_eq!(report.metrics.events_ingested, admitted.len() as u64);
    assert_eq!(report.metrics.events_applied, admitted.len() as u64);
}

/// Under the strict policy, the first malformed event stops ingest; what
/// trained before the fault stays queryable.
#[test]
fn strict_policy_stops_ingest_but_keeps_serving() {
    let d = taobao(0.01, 13);
    let (dirty, injected) = faults::inject_bad_events(&d.edges, 0.02, 99);
    assert!(injected > 0);
    let handle = ServeEngine::start(
        d.prototype.clone(),
        fast_model(&d, 13),
        ServeConfig {
            train_batch: 32,
            policy: QuarantinePolicy::Strict,
            ..ServeConfig::default()
        },
    )
    .unwrap();

    let mut closed = false;
    for &e in &dirty {
        if handle.ingest(e).is_err() {
            closed = true;
            break;
        }
    }
    // What trained before the fault is still published and queryable.
    let (user, rel) = query_pairs(&d, 1)[0];
    let result = handle.query(user, rel, 5);
    assert_eq!(result.items.len(), 5);
    let report = handle.shutdown();
    match report.stop {
        StopCause::Fault(err) => {
            assert!(closed || report.metrics.events_ingested > 0);
            assert!(err.position < dirty.len() as u64);
        }
        other => panic!("expected a strict-policy fault stop, got {other:?}"),
    }
}

/// Kill the engine mid-serve, corrupt the newest checkpoint, and resume:
/// the engine must warm-start from the older valid checkpoint, replay the
/// stream prefix without retraining, and continue serving to completion.
#[test]
fn kill_and_resume_recovers_from_corrupt_checkpoint() {
    let d = taobao(0.02, 41);
    let dir = std::env::temp_dir().join("supa-serve-kill-resume");
    let _ = std::fs::remove_dir_all(&dir);

    let ckpt = |resume: bool| CheckpointOptions {
        dir: dir.clone(),
        every: 2,
        keep: 4,
        resume,
    };
    let serve_cfg = |resume: bool| ServeConfig {
        train_batch: 32,
        checkpoint: Some(ckpt(resume)),
        ..ServeConfig::default()
    };

    // Phase 1: serve a prefix, then crash (kill = no final checkpoint).
    let first = 400.min(d.edges.len());
    let handle =
        ServeEngine::start(d.prototype.clone(), fast_model(&d, 41), serve_cfg(false)).unwrap();
    for &e in &d.edges[..first] {
        handle.ingest(e).unwrap();
    }
    handle.flush().unwrap();
    let report = handle.kill();
    assert!(matches!(report.stop, StopCause::Killed));

    let mgr = CheckpointManager::new(&dir, 4).unwrap();
    let ckpts = mgr.list().unwrap();
    assert!(
        ckpts.len() >= 2,
        "expected ≥2 checkpoints after {first} events, found {}",
        ckpts.len()
    );
    // Corrupt the newest checkpoint's payload.
    let newest = &ckpts.last().unwrap().1;
    faults::corrupt_file(newest, 256, 0xFF).unwrap();

    // Resume must skip the corrupt file and load the older valid one.
    let mut probe = fast_model(&d, 41);
    let outcome = mgr.resume(&mut probe).unwrap();
    let (loaded_path, consumed) = outcome.loaded.expect("an older valid checkpoint");
    assert_ne!(&loaded_path, newest);
    assert!(consumed > 0 && consumed < first as u64);
    assert!(outcome.skipped.iter().any(|(p, _)| p == newest));

    // Phase 2: restart with resume, replay the stream from position 0,
    // and serve through to the end.
    let handle =
        ServeEngine::start(d.prototype.clone(), fast_model(&d, 41), serve_cfg(true)).unwrap();
    for &e in &d.edges {
        handle.ingest(e).unwrap();
    }
    handle.flush().unwrap();
    let (user, rel) = query_pairs(&d, 1)[0];
    let result = handle.query(user, rel, 10);
    assert_eq!(result.items.len(), 10);
    assert!(result.epoch > 0, "post-resume serving must publish epochs");
    let report = handle.shutdown();
    assert!(matches!(report.stop, StopCause::Shutdown));
    assert_eq!(
        report.metrics.events_ingested, report.metrics.events_applied,
        "flush + shutdown must leave no staleness"
    );
    assert!(report.metrics.events_ingested >= first as u64);

    let _ = std::fs::remove_dir_all(&dir);
}
