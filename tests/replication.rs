//! Integration tests for `supa-replica` epoch-delta replication: a replica
//! bootstrapped from a baseline frame and advanced purely by deltas must
//! answer top-K queries *bit-identically* to the writer at the same epoch,
//! over both the append-only segment transport and the TCP stream, with and
//! without ANN retrieval — and corrupt, torn, or gapped streams must produce
//! named errors and counted resyncs, never a panic or a silently divergent
//! replica.

use std::path::PathBuf;

use supa::delta::{decode_frame, encode_baseline, Frame, GuardState, WireError};
use supa_datasets::{taobao, Dataset};
use supa_graph::{NodeId, RelationId};
use supa_replica::{replay_segment, run_tcp, AnnParams, PublishOptions, Replica};
use supa_serve::{AnnOptions, ServeConfig, ServeEngine, ServeHandle};

mod common;
use common::fast_model;

/// Query-side sample: `(user, relation)` pairs valid under the schema.
fn query_pairs(d: &Dataset, n: usize) -> Vec<(NodeId, RelationId)> {
    let schema = d.prototype.schema();
    let mut pairs = Vec::new();
    'outer: loop {
        for r in 0..schema.num_relations() {
            let rel = RelationId(r as u16);
            let users = d
                .prototype
                .nodes_of_type(schema.relation(rel).unwrap().src_type);
            if users.is_empty() {
                continue;
            }
            pairs.push((users[pairs.len() % users.len()], rel));
            if pairs.len() >= n {
                break 'outer;
            }
        }
    }
    pairs
}

/// A fresh path for one test's segment file (removed on entry so reruns
/// start clean).
fn segment_path(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("supa-replication-{name}.seg"));
    let _ = std::fs::remove_file(&path);
    path
}

/// Serves the whole stream with replication to `segment`, flushes, and
/// returns the handle (cache disabled so queries read the final snapshot).
fn serve_with_segment(
    d: &Dataset,
    seed: u64,
    segment: PathBuf,
    ann: Option<AnnOptions>,
) -> ServeHandle {
    serve_sharded_with_segment(d, seed, segment, ann, 1)
}

/// [`serve_with_segment`] on a `shards`-way sharded writer.
fn serve_sharded_with_segment(
    d: &Dataset,
    seed: u64,
    segment: PathBuf,
    ann: Option<AnnOptions>,
    shards: usize,
) -> ServeHandle {
    let handle = ServeEngine::start(
        d.prototype.clone(),
        fast_model(d, seed),
        ServeConfig {
            train_batch: 64,
            cache_capacity: 0,
            ann,
            shards,
            replication: Some(PublishOptions {
                segment: Some(segment),
                ..PublishOptions::default()
            }),
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

/// Collects the writer's post-flush answers for `pairs` as `(item, bits)`.
fn writer_answers(
    handle: &ServeHandle,
    pairs: &[(NodeId, RelationId)],
    k: usize,
) -> Vec<Vec<(NodeId, u32)>> {
    pairs
        .iter()
        .map(|&(user, rel)| {
            handle
                .query(user, rel, k)
                .items
                .iter()
                .map(|&(v, s)| (v, s.to_bits()))
                .collect()
        })
        .collect()
}

/// Asserts the replica answers `pairs` byte-identically to `expect`.
fn assert_replica_matches(
    replica: &mut Replica,
    pairs: &[(NodeId, RelationId)],
    k: usize,
    expect: &[Vec<(NodeId, u32)>],
) {
    for (&(user, rel), want) in pairs.iter().zip(expect) {
        let got: Vec<(NodeId, u32)> = replica
            .query(user, rel, k)
            .iter()
            .map(|&(v, s)| (v, s.to_bits()))
            .collect();
        assert_eq!(
            &got, want,
            "user {} rel {}: replica answer diverges from the writer",
            user.0, rel.0
        );
    }
}

/// Replaying the writer's segment file must reproduce the writer's serving
/// state bit-for-bit: same top-K ids, same score bits, for every probe.
#[test]
fn segment_replay_answers_bit_identically_to_writer() {
    let d = taobao(0.02, 51);
    let path = segment_path("bitident");
    let handle = serve_with_segment(&d, 51, path.clone(), None);

    let pairs = query_pairs(&d, 30);
    let expect = writer_answers(&handle, &pairs, 10);
    let writer_epoch = handle.snapshot().epoch;
    let report = handle.shutdown();
    assert!(report.metrics.deltas_published > 0);
    assert!(report.metrics.delta_publish_errors == 0);

    let mut replica = Replica::new(d.prototype.clone(), None);
    replay_segment(&path, &mut replica).unwrap();
    assert!(replica.bootstrapped());
    // Shutdown publishes one final (possibly empty) epoch after the flush.
    assert!(replica.epoch() >= writer_epoch);
    assert_eq!(replica.counters.baselines_applied, 1);
    assert!(replica.counters.deltas_applied > 0);
    assert!(replica.counters.bytes_applied > 0);
    assert_eq!(replica.counters.crc_failures, 0);
    assert_eq!(replica.counters.gaps, 0);
    assert_eq!(replica.counters.resyncs, 0);
    assert_eq!(replica.counters.torn_tail, 0);

    assert_replica_matches(&mut replica, &pairs, 10, &expect);
    let _ = std::fs::remove_file(&path);
}

/// With ANN on both sides, a replica that bootstraps from the epoch-0
/// baseline builds structurally identical indexes and mirrors the writer's
/// per-epoch dirty refresh, so even ANN-served answers are bit-identical.
/// A sharded writer's index set partitions the catalog per shard, which a
/// replica (shard-topology-agnostic, one full-catalog index per group)
/// refuses by name and rebuilds: top-K membership may then differ from the
/// writer's, but every score is still Eq. 15 on the replicated state.
#[test]
fn ann_segment_replica_matches_writer_ann_answers() {
    for (shards, adoptions, rebuilds) in [(1, 1, 0), (2, 0, 1)] {
        let d = taobao(0.02, 53);
        let path = segment_path(&format!("ann-{shards}"));
        let ann = Some(AnnOptions::default());
        let handle = serve_sharded_with_segment(&d, 53, path.clone(), ann, shards);

        let pairs = query_pairs(&d, 30);
        let expect = writer_answers(&handle, &pairs, 10);
        let report = handle.shutdown();
        assert!(
            report.metrics.ann_queries > 0,
            "the writer should have served through the index"
        );

        let mut replica = Replica::new(d.prototype.clone(), Some(AnnParams::default()));
        replay_segment(&path, &mut replica).unwrap();
        // The segment head is the epoch-0 baseline, which carries the
        // writer's serialized index set: an unsharded one must be adopted,
        // not rebuilt.
        let c = replica.counters;
        assert_eq!(c.index_adoptions, adoptions, "shards {shards}: index carry");
        assert_eq!(c.index_rebuilds, rebuilds, "shards {shards}");
        if shards == 1 {
            assert_replica_matches(&mut replica, &pairs, 10, &expect);
        } else {
            for (&(user, rel), want) in pairs.iter().zip(&expect) {
                let got = replica.query(user, rel, 10);
                let snap = replica.snapshot().unwrap();
                let exact = |v: NodeId, bits: u32| snap.gamma(user, v, rel).to_bits() == bits;
                assert_eq!(got.len(), 10);
                assert!(got.iter().all(|&(v, s)| exact(v, s.to_bits())));
                // Same state as the writer: its scores are the replica's.
                assert!(want.iter().all(|&(v, bits)| exact(v, bits)));
            }
        }
        let _ = std::fs::remove_file(&path);
    }
}

/// A replica tailing the TCP stream (attached mid-stream, so bootstrapped
/// from a catch-up baseline) must converge to the writer's exact state and
/// see a clean EOF when the writer shuts down.
#[test]
fn tcp_replica_converges_to_writer_state() {
    let d = taobao(0.02, 57);
    let handle = ServeEngine::start(
        d.prototype.clone(),
        fast_model(&d, 57),
        ServeConfig {
            train_batch: 64,
            cache_capacity: 0,
            replication: Some(PublishOptions {
                tcp_addr: Some("127.0.0.1:0".into()),
                ..PublishOptions::default()
            }),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = handle
        .replication_addr()
        .expect("TCP publishing must expose its bound address")
        .to_string();

    let pairs = query_pairs(&d, 30);
    let (expect, replica) = std::thread::scope(|scope| {
        let tail = scope.spawn(|| {
            let mut replica = Replica::new(d.prototype.clone(), None);
            run_tcp(&addr, &mut replica, 4).unwrap();
            replica
        });
        for &e in &d.edges {
            handle.ingest(e).unwrap();
        }
        handle.flush().unwrap();
        let expect = writer_answers(&handle, &pairs, 10);
        handle.shutdown();
        (expect, tail.join().unwrap())
    });

    assert!(replica.bootstrapped());
    assert!(replica.counters.baselines_applied >= 1);
    assert_eq!(replica.counters.crc_failures, 0);
    let mut replica = replica;
    assert_replica_matches(&mut replica, &pairs, 10, &expect);
}

/// `wait_subscribers` holds the writer at epoch 0 until the replica has
/// attached, so even over TCP the replica receives the epoch-0 baseline and
/// its ANN indexes stay structurally bit-identical to the writer's.
#[test]
fn tcp_replica_with_ann_matches_writer_from_epoch_zero() {
    let d = taobao(0.02, 59);
    // Build the model before spawning the replica so its connect-retry
    // budget is spent waiting on the bind, not on warm-start training.
    let model = fast_model(&d, 59);
    // Pick a free port up front: the engine blocks in `start` until the
    // subscriber attaches, so the replica must know the address first.
    let addr = {
        let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        probe.local_addr().unwrap().to_string()
    };

    let pairs = query_pairs(&d, 30);
    let (expect, replica) = std::thread::scope(|scope| {
        let tail = scope.spawn(|| {
            let mut replica = Replica::new(d.prototype.clone(), Some(AnnParams::default()));
            run_tcp(&addr, &mut replica, 0).unwrap();
            replica
        });
        let handle = ServeEngine::start(
            d.prototype.clone(),
            model,
            ServeConfig {
                train_batch: 64,
                cache_capacity: 0,
                ann: Some(AnnOptions::default()),
                replication: Some(PublishOptions {
                    tcp_addr: Some(addr.clone()),
                    wait_subscribers: 1,
                    ..PublishOptions::default()
                }),
                ..ServeConfig::default()
            },
        )
        .unwrap();
        for &e in &d.edges {
            handle.ingest(e).unwrap();
        }
        handle.flush().unwrap();
        let expect = writer_answers(&handle, &pairs, 10);
        handle.shutdown();
        (expect, tail.join().unwrap())
    });

    assert_eq!(replica.counters.baselines_applied, 1);
    assert_eq!(replica.counters.resyncs, 0);
    // Attached at epoch 0, so the baseline carried the writer's serialized
    // indexes and the replica adopted them bit-identically.
    assert_eq!(replica.counters.index_adoptions, 1, "epoch-0 index carry");
    assert_eq!(replica.counters.index_rebuilds, 0);
    let mut replica = replica;
    assert_replica_matches(&mut replica, &pairs, 10, &expect);
}

/// Frame boundaries of a segment file, as `(offset, len)` pairs.
fn frame_offsets(buf: &[u8]) -> Vec<(usize, usize)> {
    let mut offsets = Vec::new();
    let mut pos = 0;
    while pos < buf.len() {
        let (_, consumed) = decode_frame(&buf[pos..]).expect("segment should be well-formed");
        offsets.push((pos, consumed));
        pos += consumed;
    }
    offsets
}

/// A writer killed mid-append leaves at most one torn frame at the tail;
/// replay must apply everything before it and stop cleanly, counting it.
#[test]
fn torn_tail_frame_ends_segment_replay_cleanly() {
    let d = taobao(0.01, 61);
    let path = segment_path("torn");
    serve_with_segment(&d, 61, path.clone(), None).shutdown();

    let buf = std::fs::read(&path).unwrap();
    let offsets = frame_offsets(&buf);
    assert!(offsets.len() >= 3, "need several frames to tear the last");
    let (last_pos, last_len) = *offsets.last().unwrap();
    std::fs::write(&path, &buf[..last_pos + last_len - 7]).unwrap();

    let mut replica = Replica::new(d.prototype.clone(), None);
    replay_segment(&path, &mut replica).unwrap();
    assert_eq!(replica.counters.torn_tail, 1);
    assert_eq!(replica.counters.crc_failures, 0);
    assert_eq!(
        replica.counters.deltas_applied as usize,
        offsets.len() - 2,
        "every whole delta before the torn tail must have applied"
    );
    let _ = std::fs::remove_file(&path);
}

/// A bit flip inside a mid-file delta is caught by the CRC and skipped; the
/// epoch gap that skipping creates has no later baseline to resync from, so
/// replay must surface the named gap error — never apply the corrupt frame,
/// never bridge the gap silently.
#[test]
fn bit_flip_without_resync_point_is_a_named_gap_error() {
    let d = taobao(0.01, 67);
    let path = segment_path("bitflip");
    serve_with_segment(&d, 67, path.clone(), None).shutdown();

    let mut buf = std::fs::read(&path).unwrap();
    let offsets = frame_offsets(&buf);
    assert!(offsets.len() >= 4, "need a mid-file delta to corrupt");
    // Corrupt the second delta (frame 2: baseline, delta, delta, ...), well
    // past its magic and length prefix so the CRC is what catches it.
    let (pos, _) = offsets[2];
    buf[pos + 30] ^= 0x40;
    std::fs::write(&path, &buf).unwrap();

    let mut replica = Replica::new(d.prototype.clone(), None);
    let err = replay_segment(&path, &mut replica).unwrap_err();
    assert!(
        matches!(err, WireError::EpochGap { .. }),
        "expected an epoch-gap error after skipping the corrupt frame, got {err}"
    );
    assert_eq!(replica.counters.crc_failures, 1);
    assert_eq!(replica.counters.gaps, 1);
    assert_eq!(replica.counters.deltas_applied, 1);
    let _ = std::fs::remove_file(&path);
}

/// With a later baseline available, the same corruption heals: the corrupt
/// frame is skipped, the gap detected, and the replica resyncs from the
/// baseline to the writer's exact final state.
#[test]
fn corruption_resyncs_from_a_later_baseline() {
    let d = taobao(0.01, 71);
    let path = segment_path("resync");
    let handle = serve_with_segment(&d, 71, path.clone(), None);
    let pairs = query_pairs(&d, 20);
    let expect = writer_answers(&handle, &pairs, 10);
    let final_snapshot = handle.snapshot();
    handle.shutdown();

    let mut buf = std::fs::read(&path).unwrap();
    let offsets = frame_offsets(&buf);
    assert!(offsets.len() >= 4, "need a mid-file delta to corrupt");
    let (pos, _) = offsets[2];
    buf[pos + 30] ^= 0x40;
    // Append a recovery baseline at the writer's final state, as a periodic
    // re-baselining job (or a fresh checkpoint export) would.
    buf.extend_from_slice(&encode_baseline(
        final_snapshot.epoch,
        &final_snapshot.scorer,
        GuardState::default(),
    ));
    std::fs::write(&path, &buf).unwrap();

    let mut replica = Replica::new(d.prototype.clone(), None);
    replay_segment(&path, &mut replica).unwrap();
    assert_eq!(replica.counters.crc_failures, 1);
    assert_eq!(replica.counters.gaps, 1);
    assert_eq!(replica.counters.resyncs, 1);
    assert_eq!(replica.counters.baselines_applied, 2);
    assert_eq!(replica.epoch(), final_snapshot.epoch);
    assert_replica_matches(&mut replica, &pairs, 10, &expect);
    let _ = std::fs::remove_file(&path);
}

/// A delta with no preceding baseline is a protocol violation, not a state
/// to guess around: applying it must fail with the named layout error and
/// leave the replica un-bootstrapped.
#[test]
fn delta_before_baseline_is_a_named_error() {
    let d = taobao(0.01, 73);
    let model = fast_model(&d, 73);
    let snapshot = model.export_serving_snapshot();
    let delta = snapshot.extract_delta(1, 0, &[0, 1, 2], Vec::new(), GuardState::default());

    let mut replica = Replica::new(d.prototype.clone(), None);
    let err = replica.apply(&Frame::Delta(delta)).unwrap_err();
    assert!(
        matches!(err, WireError::LayoutMismatch(_)),
        "expected a layout error, got {err}"
    );
    assert!(!replica.bootstrapped());

    // The same frame arriving through a segment file surfaces the same
    // error from the replay loop.
    let path = segment_path("headless");
    let headless = snapshot.extract_delta(1, 0, &[0], Vec::new(), GuardState::default());
    std::fs::write(&path, headless.encode()).unwrap();
    let err = replay_segment(&path, &mut replica).unwrap_err();
    assert!(matches!(err, WireError::LayoutMismatch(_)), "got {err}");
    let _ = std::fs::remove_file(&path);
}
