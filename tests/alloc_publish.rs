//! The allocation-volume gate for one recycled snapshot publish.
//!
//! A counting global allocator sums the *bytes* every allocation and
//! reallocation asks for. After a warm 64-event InsLearn chunk on the full
//! Taobao graph, `export_serving_snapshot_into` must bring a retired
//! snapshot up to date asking for less than 1 % of a snapshot's bytes: it
//! rewrites the touched rows in the snapshot's own buffers. A fresh
//! `export_serving_snapshot` copies every table and fails this by name.
//!
//! A binary of its own, holding one test, for the same reason as
//! `tests/alloc.rs`: the global allocator and its counters are process-wide
//! state.

use supa::{InsLearnConfig, ServingSnapshot, Supa, SupaConfig, Touched};
use supa_datasets::taobao;

#[path = "common/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{counted, CountingAlloc};

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Bytes of a snapshot's value tables — the base table and one composite
/// table per context table — at `d` `f32`s per row and table.
fn snapshot_bytes(m: &Supa) -> usize {
    let s = m.state();
    let tables = 1 + s.ctx.len();
    tables * s.h_long.len() * s.h_long.dim() * size_of::<f32>()
}

#[test]
fn a_recycled_publish_allocates_under_a_hundredth_of_a_snapshot() {
    let d = taobao(1.0, 7);
    let g = d.full_graph();
    let mut m = Supa::from_dataset(&d, SupaConfig::small(), 7).unwrap();
    // The serving profile the ledger measures.
    let cfg = InsLearnConfig {
        batch_size: 1024,
        ..InsLearnConfig::fast()
    };
    m.enable_touch_tracking();
    m.train_inslearn(&g, &d.edges[..64], &cfg);
    let mut snap: ServingSnapshot = m.export_serving_snapshot();
    m.take_touched();
    m.train_inslearn(&g, &d.edges[64..128], &cfg);
    let mut touched = Touched::default();
    m.take_touched_into(&mut touched);
    assert!(!touched.nodes.is_empty());

    let (patched, allocated) = counted(|| m.export_serving_snapshot_into(&mut snap, &touched));
    let bytes = allocated.bytes;
    assert!(
        patched,
        "the snapshot was exported by this model, no bypass since"
    );
    assert!(
        snap == m.export_serving_snapshot(),
        "the patch must equal a fresh export"
    );
    let full = snapshot_bytes(&m);
    assert!(
        bytes * 100 < full,
        "export_serving_snapshot_into allocated {bytes} B, not under 1 % of the {full} B \
         snapshot: it must patch the touched rows in place"
    );
    // The gate tells the two apart: a fresh export asks for every byte.
    let fresh = counted(|| m.export_serving_snapshot()).1.bytes;
    assert!(
        fresh * 100 >= full,
        "export_serving_snapshot allocated only {fresh} B of the {full} B snapshot"
    );
}
