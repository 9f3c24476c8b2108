//! Integration tests for the N-way user-sharded serving engine: shards = 1
//! is bit-identical to the flag-omitted default engine and every shard
//! count ≥ 2 pins one deterministic result, sharded serving is
//! bit-identical to the offline `with_shards` chunk loop, concurrent reads
//! stay epoch-consistent across shards, a flush stays bounded while another
//! thread keeps producing, and a shard that dies during epoch publication
//! surfaces an error naming the shard.

use std::sync::atomic::{AtomicU64, Ordering};

use supa::InsLearnConfig;
use supa_datasets::taobao;
use supa_eval::top_k_scored;
use supa_graph::{QuarantinePolicy, StreamGuard, TemporalEdge};
use supa_serve::{run_closed_loop, ClosedCause, LoadConfig, ServeConfig, ServeEngine, StopCause};

mod common;
use common::{fast_model, query_pairs};

/// The pinned determinism claims, mirroring the `--workers` contract:
/// `shards = 1` is bit-identical to the unsharded default engine; every
/// shard count ≥ 2 yields one pinned result (2 == 4, repeat-run stable) —
/// how a wave's gradient work is split drops out of the result. The N ≥ 2
/// result may differ from serial only in per-wave (vs per-event) `α`
/// freezing, but admission and training tallies agree everywhere.
#[test]
fn probe_digest_is_pinned_per_shard_regime() {
    let d = taobao(0.02, 23);
    // `None` = the untouched default config: the cheap guard that an
    // explicit `shards = 1` can never drift from it.
    let mut runs = Vec::new();
    for shards in [None, Some(1usize), Some(2), Some(4), Some(4)] {
        let mut cfg = ServeConfig {
            train_batch: 64,
            ..ServeConfig::default()
        };
        if let Some(s) = shards {
            cfg.shards = s;
        }
        let report = run_closed_loop(
            &d,
            fast_model(&d, 23),
            cfg,
            LoadConfig {
                readers: 0,
                queries_per_reader: 0,
                seed: 23,
                verify: false,
                ..LoadConfig::default()
            },
        )
        .unwrap();
        assert!(matches!(report.stop, StopCause::Shutdown));
        runs.push((
            shards,
            report.digest,
            report.metrics.events_ingested,
            report.metrics.events_applied,
        ));
    }
    let (_, default_digest, ingested0, applied0) = runs[0];
    assert!(applied0 > 0, "the replay must train");
    assert_eq!(
        runs[1].1, default_digest,
        "--shards 1 must be bit-identical to the unsharded default engine"
    );
    assert_eq!(
        runs[2].1, runs[3].1,
        "shards=2 and shards=4 must pin one deterministic result"
    );
    assert_eq!(runs[3].1, runs[4].1, "shards=4 must be repeat-run stable");
    for &(shards, _, ingested, applied) in &runs[1..] {
        let s = shards.unwrap();
        assert_eq!(ingested, ingested0, "shards={s}: admission diverged");
        assert_eq!(applied, applied0, "shards={s}: training tally diverged");
    }
}

/// Sharded serving (N = 2) must stay bit-identical to the offline model
/// path: the same guard filtering, the same chunked `fit_incremental`
/// calls (in the wave-frozen regime via `with_shards`) over the same graph
/// state, then `top_k_scored` against the final state — the queue order is
/// the stream order.
#[test]
fn sharded_serving_matches_offline_fit_incremental() {
    const CHUNK: usize = 64;
    let d = taobao(0.02, 17);
    let n_events = 1000.min(d.edges.len());
    let events = &d.edges[..n_events];

    // Online, two shards, cache disabled (post-flush queries always hit
    // the final snapshot).
    let handle = ServeEngine::start(
        d.prototype.clone(),
        fast_model(&d, 17),
        ServeConfig {
            train_batch: CHUNK,
            cache_capacity: 0,
            shards: 2,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    for &e in events {
        handle.ingest(e).unwrap();
    }
    handle.flush().unwrap();

    // Offline: identical chunk loop on this thread, same training regime.
    use supa_eval::Recommender;
    let mut model = fast_model(&d, 17).with_shards(2);
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

/// Readers running concurrently with four writer shards must only ever
/// observe results attributable to one published (composed) epoch —
/// re-scoring a result against the snapshot of the epoch it claims must
/// match bit-for-bit. Zero torn reads, zero unverifiable claims.
#[test]
fn concurrent_sharded_queries_are_epoch_consistent() {
    let d = taobao(0.02, 31);
    let model = fast_model(&d, 31);
    let handle = ServeEngine::start(
        d.prototype.clone(),
        model,
        ServeConfig {
            train_batch: 64,
            shards: 4,
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

/// `flush()` absorbs exactly the events queued when the writer takes the
/// control message, so a second thread that never stops producing cannot
/// hold it open, and everything the flushing thread enqueued beforehand is
/// in the epoch the flush publishes. The flusher's one event is the only
/// one naming its user, so that user's base vector moves iff the event was
/// trained. The producer offers valid events (each pass over the stream is
/// shifted past the previous one) until the flush returns; the cap only
/// turns a regression into a failure instead of a hang.
#[test]
fn flush_is_bounded_under_a_concurrent_producer() {
    const CAP: usize = 200_000;
    let d = taobao(0.02, 37);
    let mine = *d.edges.last().unwrap();
    let filler: Vec<TemporalEdge> = d
        .edges
        .iter()
        .copied()
        .filter(|e| e.src != mine.src)
        .collect();
    let span = mine.time + 1.0;
    for shards in [1usize, 4] {
        let handle = ServeEngine::start(
            d.prototype.clone(),
            // No validation hold-out: every admitted event trains.
            fast_model(&d, 37).with_inslearn(InsLearnConfig {
                valid_size: 0,
                ..InsLearnConfig::fast()
            }),
            ServeConfig {
                train_batch: 64,
                queue_capacity: 64,
                cache_capacity: 0,
                // Clamp: the flusher's event keeps its place in the stream
                // whatever the producer has already pushed past it.
                policy: QuarantinePolicy::Clamp,
                shards,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let base = |epoch: &supa_serve::EpochSnapshot| {
            let mut row = Vec::new();
            epoch.scorer.base_into(mine.src, &mut row);
            row
        };
        let before = base(&handle.snapshot());
        let flushed = std::sync::atomic::AtomicBool::new(false);
        let producing = std::sync::Barrier::new(2);
        let offered = std::thread::scope(|scope| {
            let producer = scope.spawn(|| {
                let mut offered = 0usize;
                while offered < CAP && !flushed.load(Ordering::SeqCst) {
                    let mut e = filler[offered % filler.len()];
                    e.time += span * (offered / filler.len()) as f64;
                    handle.ingest(e).unwrap();
                    offered += 1;
                    if offered == 2 * 64 {
                        producing.wait();
                    }
                }
                offered
            });
            // The producer has filled the queue at least once by now.
            producing.wait();
            handle.ingest(mine).unwrap();
            handle.flush().unwrap();
            let published = handle.snapshot();
            flushed.store(true, Ordering::SeqCst);
            assert_ne!(
                before,
                base(&published),
                "shards={shards}: the flush epoch must reflect the flusher's event"
            );
            producer.join().unwrap()
        });
        assert!(
            offered < CAP,
            "shards={shards}: flush only returned once the producer gave up"
        );
        assert!(matches!(handle.shutdown().stop, StopCause::Shutdown));
    }
}

/// Kill one shard mid-publication (the `panic_shard` seam): producers must
/// see `EngineClosed` with the panic cause, and the final report's stop
/// cause must carry a message naming the shard that died.
#[test]
fn killed_shard_stops_ingest_with_named_error() {
    let d = taobao(0.02, 29);
    let handle = ServeEngine::start(
        d.prototype.clone(),
        fast_model(&d, 29),
        ServeConfig {
            train_batch: 32,
            shards: 4,
            panic_shard: Some(1),
            ..ServeConfig::default()
        },
    )
    .unwrap();

    // The first full chunk publishes, which fires the seam; ingest then
    // closes with the panic cause.
    let mut closed = None;
    for &e in &d.edges {
        if let Err(err) = handle.ingest(e) {
            closed = Some(err);
            break;
        }
    }
    let err = closed.expect("shard 1 dies at the first publication, closing ingest");
    assert_eq!(err.cause, ClosedCause::Panic);

    match handle.shutdown().stop {
        StopCause::Panicked(msg) => assert!(
            msg.contains("shard 1"),
            "the stop cause must name the dead shard, got: {msg}"
        ),
        other => panic!("expected a panic stop naming shard 1, got {other:?}"),
    }
}
