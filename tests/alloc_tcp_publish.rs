//! The allocation-volume gate for one delta publish with TCP configured.
//!
//! A counting global allocator sums the *bytes* every allocation and
//! reallocation asks for. A `DeltaPublisher` with a TCP address keeps the
//! newest epoch's snapshot for subscribers that attach mid-stream; it must
//! share that snapshot with its owner instead of copying it, so a publish
//! of a small touched set asks for less than 1 % of a snapshot's bytes —
//! the delta frame — whether or not anyone is subscribed. Once the next
//! epoch is published, the previous snapshot is unshared again, which is
//! what lets the serving writer recycle it.
//!
//! A binary of its own, holding one test, for the same reason as
//! `tests/alloc.rs`: the global allocator and its counters are process-wide
//! state.

use std::sync::Arc;

use supa::delta::GuardState;
use supa::{InsLearnConfig, ServingSnapshot, Supa, SupaConfig};
use supa_datasets::taobao;
use supa_replica::{DeltaPublisher, PublishOptions};

#[path = "common/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{counted, CountingAlloc};

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// An epoch's record around its snapshot, as the serving engine keeps one:
/// the publisher shares whatever wraps a snapshot.
struct Epoch(ServingSnapshot);

impl AsRef<ServingSnapshot> for Epoch {
    fn as_ref(&self) -> &ServingSnapshot {
        &self.0
    }
}

/// Bytes of a snapshot's value tables — the base table and one composite
/// table per context table — at `d` `f32`s per row and table.
fn snapshot_bytes(m: &Supa) -> usize {
    let s = m.state();
    (1 + s.ctx.len()) * s.h_long.len() * s.h_long.dim() * size_of::<f32>()
}

#[test]
fn a_tcp_publish_shares_the_snapshot_instead_of_copying_it() {
    let d = taobao(1.0, 7);
    let g = d.full_graph();
    let mut m = Supa::from_dataset(&d, SupaConfig::small(), 7).unwrap();
    let cfg = InsLearnConfig {
        batch_size: 1024,
        ..InsLearnConfig::fast()
    };
    let opts = PublishOptions {
        tcp_addr: Some("127.0.0.1:0".into()),
        ..PublishOptions::default()
    };
    let first = Arc::new(Epoch(m.export_serving_snapshot()));
    let mut publisher =
        DeltaPublisher::start(&opts, 0, first.clone(), GuardState::default(), None).unwrap();
    assert!(publisher.bound_addr().is_some());

    // A small touched set, so the delta frame itself stays far under the
    // gate and only a snapshot copy could cross it.
    let touched: Vec<u32> = (0..m.state().h_long.len() as u32).step_by(997).collect();
    let mut epoch_snapshots = vec![first];
    for epoch in 1..=3u64 {
        m.train_inslearn(
            &g,
            &d.edges[64 * epoch as usize..64 * (epoch as usize + 1)],
            &cfg,
        );
        let snap = Arc::new(Epoch(m.export_serving_snapshot()));
        let (published, allocated) = counted(|| {
            publisher.publish(
                epoch,
                epoch - 1,
                snap.clone(),
                &touched,
                Vec::new(),
                GuardState::default(),
            )
        });
        assert!(published.unwrap() > 0);
        let bytes = allocated.bytes;
        let full = snapshot_bytes(&m);
        assert!(
            bytes * 100 < full,
            "publish {epoch} with TCP configured allocated {bytes} B, not under 1 % of the \
             {full} B snapshot: it must share the snapshot, not copy it"
        );
        epoch_snapshots.push(snap);
    }
    // The publisher holds only the newest epoch's snapshot: every older one
    // is unshared and can be recycled, the newest one is not.
    let newest = epoch_snapshots.pop().unwrap();
    for (epoch, snap) in epoch_snapshots.into_iter().enumerate() {
        assert!(
            Arc::try_unwrap(snap).is_ok(),
            "epoch {epoch}'s snapshot is still shared after a newer publish"
        );
    }
    assert_eq!(Arc::strong_count(&newest), 2);
    // Nor does anything keep it once the publisher is gone.
    drop(publisher);
    assert_eq!(Arc::strong_count(&newest), 1);
}
