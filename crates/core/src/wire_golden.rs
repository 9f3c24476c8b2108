//! Golden wire bytes: a 64-bit hash of one encoded v2 checkpoint, one v3
//! checkpoint with a small index blob, one delta frame and one baseline
//! frame, each pinned. Any byte the codecs write differently — a field
//! order, a width, an endianness, a CRC — fails here, however the encoder
//! is restructured.
//!
//! The same fixture's first-layout (`v001`) frames are checked in under
//! `tests/data/`, as the `v001` writer wrote them: the delta whole, and the
//! baseline without its six value tables (1.1 MB of rows the fixture model
//! regenerates), which the test splices back in before hashing. Both must
//! hash to the values pinned while `v001` was the written layout, and both
//! must decode and apply to the same bits as the current frames.
//!
//! The fixture is a Taobao-0.02 model whose state is then overwritten from
//! a fixed integer sequence (splitmix64), and whose delta carries synthetic
//! events. Table shapes come from the dataset's node counts, which do not
//! depend on its random stream.

use supa_datasets::taobao;
use supa_embed::RowState;
use supa_graph::{NodeId, RelationId, TemporalEdge};
use supa_rng::SplitMix64;

use crate::config::SupaConfig;
use crate::delta::{
    decode_frame, encode_baseline_with_index, v001, BaselineFrame, DeltaFrame, Frame, GuardState,
    WireError,
};
use crate::model::{AdamScalar, Supa};
use crate::serving::ServingSnapshot;

/// A value in `[-scale, scale]` on a 1e-4 grid.
fn grid(seq: &mut SplitMix64, scale: f32) -> f32 {
    ((seq.next_u64() % 20_001) as f32 - 10_000.0) * 1e-4 * scale
}

fn row(seq: &mut SplitMix64, dim: usize, scale: f32) -> Vec<f32> {
    (0..dim).map(|_| grid(seq, scale)).collect()
}

/// FNV-1a, 64-bit: stable across platforms and toolchains.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01B3)
    })
}

fn golden_model() -> Supa {
    let d = taobao(0.02, 7);
    let mut m = Supa::from_dataset(&d, SupaConfig::small(), 7).unwrap();
    let mut seq = SplitMix64(27);
    let st = m.state_mut_for_tests();
    let tables = [&mut st.h_long, &mut st.h_short]
        .into_iter()
        .chain(st.ctx.iter_mut());
    for t in tables {
        let dim = t.dim();
        for i in 0..t.len() {
            let values = row(&mut seq, dim, 0.5);
            let m1 = row(&mut seq, dim, 1e-2);
            let v2: Vec<f32> = row(&mut seq, dim, 1e-3).iter().map(|x| x.abs()).collect();
            let step = (seq.next_u64() % 64) as u32;
            t.set_row_state(
                i,
                RowState {
                    values: &values,
                    m: &m1,
                    v: &v2,
                    t: step,
                },
            );
        }
    }
    for a in &mut st.alpha {
        let value = grid(&mut seq, 1.0) as f64;
        let m1 = grid(&mut seq, 1e-2) as f64;
        let v2 = grid(&mut seq, 1e-3).abs() as f64;
        *a = AdamScalar::from_raw_parts(value, m1, v2, (seq.next_u64() % 64) as u32);
    }
    m
}

fn index_blob() -> Vec<u8> {
    (0u32..300).map(|x| (x * 7 % 251) as u8).collect()
}

/// The fixture delta's touched rows: every 23rd node.
fn golden_touched(m: &Supa) -> Vec<u32> {
    (0..m.state().h_long.len() as u32).step_by(23).collect()
}

/// The fixture delta's synthetic events.
fn golden_events() -> Vec<TemporalEdge> {
    (0u32..64)
        .map(|i| {
            TemporalEdge::new(
                NodeId(i % 120),
                NodeId(120 + i * 37 % 1_400),
                RelationId((i % 4) as u16),
                1_000.0 + i as f64 * 0.5,
            )
        })
        .collect()
}

const GOLDEN_GUARD: GuardState = GuardState {
    level: 1,
    events_shed: 5,
    events_quarantined: 2,
};

/// The fixture's delta (epoch 9 on 8) and baseline (epoch 9, with the
/// index blob) frames as the current writer encodes them.
fn golden_frames(m: &Supa) -> (Vec<u8>, Vec<u8>) {
    let snap = m.export_serving_snapshot();
    let delta = snap
        .extract_delta(9, 8, &golden_touched(m), golden_events(), GOLDEN_GUARD)
        .encode();
    let baseline = encode_baseline_with_index(9, &snap, GOLDEN_GUARD, Some(&index_blob()));
    (delta, baseline)
}

/// The four hashes, in the order v2 checkpoint, v3 checkpoint, delta
/// frame, baseline frame.
fn golden_hashes() -> [u64; 4] {
    let m = golden_model();
    let index = index_blob();
    let mut v2 = Vec::new();
    m.save_checkpoint(&mut v2, 4242, None).unwrap();
    let mut v3 = Vec::new();
    m.save_checkpoint(&mut v3, 4242, Some(&index)).unwrap();
    let (delta, baseline) = golden_frames(&m);
    [v2, v3, delta, baseline].map(|b| fnv1a64(&b))
}

#[test]
fn encoded_checkpoints_and_frames_match_the_golden_bytes() {
    let got = golden_hashes();
    let want: [u64; 4] = [
        0xf2dc_1d6f_d74a_49c2,
        0x55b2_29d2_5eb5_9f2e,
        0xf5e2_32e1_a431_22ed,
        0xc186_32f4_5bd3_dba2,
    ];
    for (what, (g, w)) in [
        "v2 checkpoint",
        "v3 checkpoint",
        "delta frame",
        "baseline frame",
    ]
    .into_iter()
    .zip(got.iter().zip(&want))
    {
        assert_eq!(
            g, w,
            "{what} bytes drifted: hash {g:#018x}, pinned {w:#018x}"
        );
    }
}

/// The `v001` delta frame of the fixture, as the `v001` writer wrote it.
const V001_DELTA: &[u8] = include_bytes!("../../../tests/data/golden_delta_v001.bin");
/// The `v001` baseline frame of the fixture with its value tables cut out:
/// the 45 header bytes, the `h_short` flag, then the guard, index section
/// and CRC.
const V001_BASELINE_WITHOUT_TABLES: &[u8] =
    include_bytes!("../../../tests/data/golden_baseline_v001_without_tables.bin");
/// What the `v001` writer's delta and baseline frames of the fixture
/// hashed to while `v001` was the layout it wrote.
const V001_HASHES: [u64; 2] = [0xca28_1f30_c4a4_9caf, 0xb614_7a29_0d27_8bdd];

/// The checked-in `v001` baseline with the fixture model's `h_long`,
/// `h_short` and `ctx` tables spliced back in.
fn v001_baseline(m: &Supa) -> Vec<u8> {
    let (head, rest) = V001_BASELINE_WITHOUT_TABLES.split_at(45);
    let (flag, tail) = rest.split_at(1);
    let s = m.state();
    let bytes = |t: &supa_embed::EmbeddingTable| -> Vec<u8> {
        t.data().iter().flat_map(|x| x.to_le_bytes()).collect()
    };
    let mut out = head.to_vec();
    out.extend(bytes(&s.h_long));
    out.extend_from_slice(flag);
    out.extend(bytes(&s.h_short));
    for t in &s.ctx {
        out.extend(bytes(t));
    }
    out.extend_from_slice(tail);
    out
}

#[test]
fn checked_in_v001_frames_are_the_v001_writers_bytes() {
    let m = golden_model();
    let baseline = v001_baseline(&m);
    assert_eq!(
        [fnv1a64(V001_DELTA), fnv1a64(&baseline)],
        V001_HASHES,
        "the checked-in v001 frames are not the bytes the v001 writer wrote"
    );
    // The test-only v001 encoders write the same bytes, so the generated
    // compatibility tests drive the decoder with real v001 frames.
    let delta = v001::encode_delta(
        &m,
        9,
        8,
        &golden_touched(&m),
        &golden_events(),
        GOLDEN_GUARD,
    );
    assert!(delta == V001_DELTA, "v001::encode_delta drifted");
    let encoded = v001::encode_baseline(&m, 9, GOLDEN_GUARD, Some(&index_blob()));
    assert!(encoded == baseline, "v001::encode_baseline drifted");
}

fn decode_delta(bytes: &[u8]) -> DeltaFrame {
    match decode_frame(bytes).unwrap() {
        (Frame::Delta(d), n) if n == bytes.len() => d,
        other => panic!("expected one delta frame, got {other:?}"),
    }
}

fn decode_baseline(bytes: &[u8]) -> BaselineFrame {
    match decode_frame(bytes).unwrap() {
        (Frame::Baseline(b), n) if n == bytes.len() => b,
        other => panic!("expected one baseline frame, got {other:?}"),
    }
}

fn snapshot_bits(s: &ServingSnapshot) -> Vec<u32> {
    let mut out = vec![s.dim as u32, s.no_forget as u32, s.shared_context as u32];
    for t in std::iter::once(&s.base).chain(&s.comp) {
        out.push(t.len() as u32);
        out.extend(t.data().iter().map(|x| x.to_bits()));
    }
    out
}

#[test]
fn v001_frames_decode_and_apply_to_the_v002_bits() {
    let m = golden_model();
    let (delta, baseline) = golden_frames(&m);
    let (old, new) = (decode_delta(V001_DELTA), decode_delta(&delta));
    let bits = |rows: &[f32]| rows.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&old.base), bits(&new.base));
    assert_eq!(old.comp.len(), new.comp.len());
    for (a, b) in old.comp.iter().zip(&new.comp) {
        assert_eq!(bits(a), bits(b));
    }
    assert!(
        old == new,
        "the decoded v001 delta differs from the v002 one"
    );
    // Applied to a snapshot of another model of the same shape, both
    // frames leave the same bits.
    let d = taobao(0.02, 7);
    let other = Supa::from_dataset(&d, SupaConfig::small(), 8).unwrap();
    let (mut a, mut b) = (
        other.export_serving_snapshot(),
        other.export_serving_snapshot(),
    );
    a.apply_delta(&old).unwrap();
    b.apply_delta(&new).unwrap();
    assert_eq!(snapshot_bits(&a), snapshot_bits(&b));

    let (old, new) = (
        decode_baseline(&v001_baseline(&m)),
        decode_baseline(&baseline),
    );
    let exported = m.export_serving_snapshot();
    assert_eq!(snapshot_bits(&old.snapshot), snapshot_bits(&exported));
    assert_eq!(snapshot_bits(&new.snapshot), snapshot_bits(&exported));
    assert_eq!((old.epoch, old.guard), (new.epoch, new.guard));
    assert_eq!(old.index, new.index);
    // The current layout stores one table fewer than v001 carried.
    assert_eq!(
        V001_DELTA.len() - delta.len(),
        golden_touched(&m).len() * 32 * 4 + 1
    );
    assert!(baseline.len() < v001_baseline(&m).len());
}

#[test]
fn malformed_v001_bytes_are_named_errors() {
    let m = golden_model();
    for frame in [V001_DELTA.to_vec(), v001_baseline(&m)] {
        for cut in [13, 21, 40, frame.len() / 2, frame.len() - 1] {
            let err = decode_frame(&frame[..cut]).unwrap_err();
            assert!(matches!(err, WireError::Truncated), "cut {cut}: {err:?}");
        }
        for pos in [21, 50, frame.len() / 3, frame.len() - 5] {
            let mut b = frame.clone();
            b[pos] ^= 0x04;
            let err = decode_frame(&b).unwrap_err();
            assert!(
                matches!(err, WireError::CrcMismatch { .. }),
                "flip at {pos}: {err:?}"
            );
        }
    }
}
