//! The allocation-volume gate for one warm InsLearn chunk.
//!
//! A counting global allocator sums the *bytes* every allocation and
//! reallocation asks for. After one warm-up chunk, a second 64-event
//! `train_inslearn` call must ask for less than ⅛ of the model state's
//! bytes: InsLearn's rollback journals the rows a pass writes and its
//! health probe scans only those rows, so nothing in a warm chunk copies
//! the model. A whole-state clone per chunk fails this by name.
//!
//! A tighter bound sees the call's sampler thread: at most the bytes a
//! warm chunk asked for when training sampled inline, plus what starting
//! the sampler thread costs. Both were measured on this test's chunk
//! (rustc 1.95): 1 952 B inline, and 7 992 B with the sampler thread, so
//! 6 040 B for its spawn, its two bounded channels of eight block slots
//! and its shared cursor. 72 B of that is the test harness's output
//! capture, which a spawned thread inherits (`--nocapture` reads
//! 7 920 B). The block arenas themselves come warm from the model's
//! scratch: a mutation that allocated one fresh arena per call read
//! 30 524 B here, and one per block 600 356 B.
//!
//! A binary of its own, holding one test, for the same reason as
//! `tests/alloc.rs`: the global allocator and its counters are process-wide
//! state.

use supa::{InsLearnConfig, Supa, SupaConfig, SupaState};
use supa_datasets::taobao;

#[path = "common/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{counted, CountingAlloc};

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// What the warm chunk asked for while training sampled inline.
const INLINE_CHUNK_BYTES: usize = 1_952;

/// What a training call's sampler thread adds: its spawn, its channels
/// and its shared cursor (see the module docs).
const SAMPLER_THREAD_BYTES: usize = 6_040;

/// Bytes of the learnable state: per row, `d` values and two `d`-wide Adam
/// moments of `f32`, plus a `u32` step count.
fn state_bytes(s: &SupaState) -> usize {
    [&s.h_long, &s.h_short]
        .into_iter()
        .chain(&s.ctx)
        .map(|t| t.len() * (3 * t.dim() * size_of::<f32>() + size_of::<u32>()))
        .sum()
}

#[test]
fn a_warm_chunk_allocates_under_an_eighth_of_the_state() {
    let d = taobao(1.0, 7);
    let g = d.full_graph();
    let mut m = Supa::from_dataset(&d, SupaConfig::small(), 7).unwrap();
    // The serving profile the ledger measures.
    let cfg = InsLearnConfig {
        batch_size: 1024,
        ..InsLearnConfig::fast()
    };
    m.train_inslearn(&g, &d.edges[..64], &cfg);

    let (report, allocated) = counted(|| m.train_inslearn(&g, &d.edges[64..128], &cfg));
    let bytes = allocated.bytes;

    assert_eq!(report.batches, 1);
    assert!(
        report.validations > 0,
        "the chunk must validate: {report:?}"
    );
    let state = state_bytes(m.state());
    assert!(
        bytes * 8 < state,
        "a warm 64-event chunk allocated {bytes} B, not under ⅛ of the {state} B state"
    );
    assert!(
        bytes <= INLINE_CHUNK_BYTES + SAMPLER_THREAD_BYTES,
        "a warm 64-event chunk allocated {bytes} B, more than {INLINE_CHUNK_BYTES} B \
         inline plus {SAMPLER_THREAD_BYTES} B for the sampler thread"
    );
}
