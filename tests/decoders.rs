//! Decoder robustness across every persisted and wire format: checkpoints
//! v2 and v3, a delta and a baseline replication frame, a `SUPANN01` index
//! and a `SUPANNS1` index set. Every proper prefix of a valid encoding must
//! be refused as a named truncation, and seeded single-byte flips as a
//! named error — never a panic, never a silently different value.
//!
//! Two kinds of bytes carry no check a flip could fail: the `SUPANNS1`
//! set's two stamps, which no reader reads, and each index's
//! `ef_construction`, which its fingerprint does not cover (it shapes only
//! later inserts). A flip there may decode; it must then decode to the
//! same index structure.

use std::io::ErrorKind;
use std::ops::Range;

use supa::delta::{decode_frame, encode_baseline_with_index, GuardState, WireError};
use supa::{Supa, SupaConfig};
use supa_ann::{decode_index_set, encode_index_set, AnnConfig, AnnIoError, HnswIndex};
use supa_datasets::taobao;
use supa_rng::{check, SplitMix64};

/// Seeded flips per CRC-guarded format: any flip there fails the CRC, so a
/// sample shows that every check runs. The index formats have no CRC;
/// they get about one flip per byte.
const FLIPS: u64 = 200;

fn model() -> (Supa, supa_datasets::Dataset) {
    let d = taobao(0.01, 7);
    let cfg = SupaConfig {
        dim: 4,
        ..SupaConfig::small()
    };
    (Supa::from_dataset(&d, cfg, 7).unwrap(), d)
}

/// An index over `n` rows of a fixed integer sequence at ids `0, 2, 4, …`.
fn index(n: u32, seed: u64) -> HnswIndex {
    let mut seq = SplitMix64(seed);
    let mut idx = HnswIndex::new(4, AnnConfig::default());
    for id in 0..n {
        let row: Vec<f32> = (0..4)
            .map(|_| (seq.next_u64() % 2_001) as f32 * 1e-3 - 1.0)
            .collect();
        idx.insert(id * 2, &row);
    }
    idx
}

/// A one-partition set with a hole, its bytes, and the byte ranges no
/// check covers: the stamps and each inner index's `ef_construction`.
fn index_set() -> (Vec<u8>, Vec<Range<usize>>) {
    let (a, b) = (index(60, 1), index(40, 2));
    let bytes = encode_index_set(&[&[Some(a.clone()), None, Some(b)]], [64, 32]);
    // Magic, stamps, partition count, group count; then the first group's
    // flag and length ahead of its index, whose ef_construction follows
    // its magic, dim and m.
    let first = 8 + 16 + 8 + 8 + 1 + 8;
    let second = first + a.to_bytes().len() + 1 + 1 + 8;
    let ef = |at: usize| at + 24..at + 32;
    (bytes, vec![8..24, ef(first), ef(second)])
}

/// Flips one seeded byte of `bytes` in each of `cases` cases and hands the
/// flipped copy, with the position, to `decode`.
fn flips(bytes: &[u8], cases: u64, mut decode: impl FnMut(&[u8], usize)) {
    check(cases, |case| {
        let pos = case.rng.random_range(0..bytes.len());
        let mask = case.rng.random_range(1..=255u8);
        let mut bad = bytes.to_vec();
        bad[pos] ^= mask;
        decode(&bad, pos);
    });
}

#[test]
fn checkpoints_refuse_every_prefix_and_flip_by_name() {
    let (m, _) = model();
    let index = index_set().0;
    let (mut v2, mut v3) = (Vec::new(), Vec::new());
    m.save_checkpoint(&mut v2, 77, None).unwrap();
    m.save_checkpoint(&mut v3, 78, Some(&index)).unwrap();
    let (mut probe, _) = model();
    for (version, bytes) in [(2, &v2), (3, &v3)] {
        let before = probe.state().h_long.data().to_vec();
        for cut in 0..bytes.len() {
            let err = probe.load_checkpoint(&bytes[..cut]).unwrap_err();
            assert_eq!(
                err.kind(),
                ErrorKind::UnexpectedEof,
                "v{version} cut {cut}: {err}"
            );
        }
        flips(bytes, FLIPS, |bad, pos| {
            let err = probe.load_checkpoint(bad).unwrap_err();
            assert!(
                matches!(
                    err.kind(),
                    ErrorKind::InvalidData | ErrorKind::UnexpectedEof
                ),
                "v{version} flip at {pos}: {err}"
            );
        });
        // Every refused load left the model as it was.
        assert!(probe.state().h_long.data() == before.as_slice());
        let (meta, got) = probe.load_checkpoint(bytes).unwrap();
        assert_eq!(meta.version, version);
        assert_eq!(got.is_some(), version == 3);
    }
}

#[test]
fn frames_refuse_every_prefix_and_flip_by_name() {
    let (m, d) = model();
    let snap = m.export_serving_snapshot();
    let touched: Vec<u32> = (0..snap.num_nodes() as u32).step_by(50).collect();
    let guard = GuardState {
        level: 1,
        events_shed: 3,
        events_quarantined: 2,
    };
    let delta = snap
        .extract_delta(5, 4, &touched, d.edges[..20].to_vec(), guard)
        .encode();
    let baseline = encode_baseline_with_index(5, &snap, guard, Some(&index_set().0));
    for (kind, bytes) in [("delta", &delta), ("baseline", &baseline)] {
        for cut in 0..bytes.len() {
            let err = decode_frame(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, WireError::Truncated),
                "{kind} cut {cut}: {err}"
            );
        }
        flips(bytes, FLIPS, |bad, pos| {
            let err = decode_frame(bad).unwrap_err();
            assert!(
                matches!(
                    err,
                    WireError::WrongMagic
                        | WireError::Truncated
                        | WireError::CrcMismatch { .. }
                        | WireError::ImplausibleLength(_)
                        | WireError::LayoutMismatch(_)
                ),
                "{kind} flip at {pos}: {err}"
            );
        });
        assert_eq!(decode_frame(bytes).unwrap().1, bytes.len());
    }
}

/// An `AnnIoError` a corrupt input may name.
fn named(err: &AnnIoError) -> bool {
    matches!(
        err,
        AnnIoError::Truncated
            | AnnIoError::BadMagic
            | AnnIoError::Corrupt(_)
            | AnnIoError::FingerprintMismatch { .. }
    )
}

#[test]
fn an_index_refuses_every_prefix_and_flip_by_name() {
    let idx = index(80, 3);
    let bytes = idx.to_bytes();
    for cut in 0..bytes.len() {
        let err = HnswIndex::from_bytes(&bytes[..cut]).unwrap_err();
        assert_eq!(err, AnnIoError::Truncated, "cut {cut}");
    }
    let unchecked = 24..32;
    flips(
        &bytes,
        2 * bytes.len() as u64,
        |bad, pos| match HnswIndex::from_bytes(bad) {
            Err(err) => assert!(named(&err), "flip at {pos}: {err}"),
            Ok(back) => {
                assert!(unchecked.contains(&pos), "flip at {pos} decoded");
                assert_eq!(back.fingerprint(), idx.fingerprint(), "flip at {pos}");
            }
        },
    );
}

#[test]
fn an_index_set_refuses_every_prefix_and_flip_by_name() {
    let (bytes, unchecked) = index_set();
    let prints = |set: &[Vec<Option<HnswIndex>>]| -> Vec<Option<u64>> {
        set.iter()
            .flatten()
            .map(|i| i.as_ref().map(HnswIndex::fingerprint))
            .collect()
    };
    let want = prints(&decode_index_set(&bytes).unwrap());
    for cut in 0..bytes.len() {
        let err = decode_index_set(&bytes[..cut]).unwrap_err();
        assert_eq!(err, AnnIoError::Truncated, "cut {cut}");
    }
    flips(
        &bytes,
        bytes.len() as u64,
        |bad, pos| match decode_index_set(bad) {
            Err(err) => assert!(named(&err), "flip at {pos}: {err}"),
            Ok(back) => {
                assert!(
                    unchecked.iter().any(|r| r.contains(&pos)),
                    "flip at {pos} decoded"
                );
                assert_eq!(prints(&back), want, "flip at {pos}");
            }
        },
    );
}
