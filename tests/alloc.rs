//! The zero-allocation gate for the sample → update → propagate hot path.
//!
//! A counting global allocator wraps `System`; after a warm-up pass fills
//! every pooled buffer ([`supa::Supa`]'s scratch, the graph's adjacency
//! arena, the negative samplers), training further events — including
//! inserting them into the graph — must perform **zero** heap allocations.
//!
//! This binary holds exactly one test: the global allocator and its
//! counters are process-wide state, so no other test may run beside it.

use supa::{Supa, SupaConfig};
use supa_datasets::taobao;

#[path = "common/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{counted, CountingAlloc};

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_training_is_allocation_free() {
    let d = taobao(0.02, 7);
    let mut g = d.prototype.clone();
    // Pre-size the adjacency arena for the whole stream (zero relocations).
    g.reserve_for_stream(&d.edges);
    let mut m = Supa::from_dataset(&d, SupaConfig::small(), 7).unwrap();
    let g_full = d.full_graph();
    m.resolve_time_scale(&g_full);
    m.rebuild_negative_samplers(&g_full);

    // Warm-up: the first half of the stream grows every pooled buffer to
    // its steady-state capacity.
    let half = d.edges.len() / 2;
    assert!(half > 100, "fixture too small to be meaningful");
    for e in &d.edges[..half] {
        m.train_edge(&g, e);
        g.add_edge(e.src, e.dst, e.relation, e.time).unwrap();
    }

    // Counted: train + insert the second half. Walks, negatives, gradient
    // rows, Adam updates, and adjacency inserts must all reuse warm memory.
    let (loss, allocated) = counted(|| {
        let mut loss = 0.0;
        for e in &d.edges[half..] {
            loss += m.train_edge(&g, e).total();
            g.add_edge(e.src, e.dst, e.relation, e.time).unwrap();
        }
        loss
    });
    let allocs = allocated.calls;

    assert!(loss.is_finite() && loss > 0.0, "training must do real work");
    assert_eq!(
        allocs,
        0,
        "steady-state training made {allocs} heap allocations over {} events",
        d.edges.len() - half
    );
}
