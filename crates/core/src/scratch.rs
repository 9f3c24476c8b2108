//! Reusable scratch state for the sample → update → propagate hot path.
//!
//! Every per-event buffer the training loop needs lives here, owned by
//! [`crate::Supa`] and threaded through the hot functions by value (via
//! `std::mem::take`, so the borrow checker sees disjoint borrows of the
//! model and its scratch). After the first few events warm the capacities,
//! the steady-state per-event path performs **zero heap allocations** — a
//! claim enforced by a counting global allocator in `tests/alloc.rs`.
//!
//! Contract for code on the hot path:
//!
//! - *clear, don't drop*: buffers are `clear()`ed (length to zero) and
//!   refilled; capacity is never released;
//! - *bounded shapes*: per-event sizes are bounded by the config
//!   (`2·k` walks of ≤ `l` hops, `2·N_neg` negatives, ≤ `ROWS_BOUND`
//!   gradient rows), so capacities converge after warm-up —
//!   [`SupaScratch::prepare`] pre-reserves them all up front;
//! - *no transient collections*: anything previously built per event
//!   (walk `Vec`s, gradient row `Vec`s, the wave-builder `HashSet`) has a
//!   pooled equivalent here.

use supa_graph::{FlatWalks, TemporalEdge, WalkStep};

use crate::config::SupaConfig;
use crate::event::{EventGrads, EventLoss};

/// Walk-index / negative-index ranges of one event inside a [`SampleArena`].
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SampleMeta {
    /// Walk-index range (into the arena's `walks`) for the source endpoint.
    pub walks_u: (u32, u32),
    /// Walk-index range for the destination endpoint.
    pub walks_v: (u32, u32),
    /// Index range into `negs`: negatives contrasted against `h*_u`.
    pub negs_u: (u32, u32),
    /// Index range into `negs`: negatives contrasted against `h*_v`.
    pub negs_v: (u32, u32),
}

/// Flat storage for the stochastic choices of one *or many* events: all
/// walks in one [`FlatWalks`], all negatives in one `Vec`, with per-event
/// [`SampleMeta`] ranges. `train_edge` holds one event at a time; a training
/// pass samples all of its events into it up front.
#[derive(Debug, Clone, Default)]
pub(crate) struct SampleArena {
    pub walks: FlatWalks,
    pub negs: Vec<u32>,
    pub events: Vec<SampleMeta>,
}

impl SampleArena {
    /// Drops all events, keeping allocations.
    pub fn clear(&mut self) {
        self.walks.clear();
        self.negs.clear();
        self.events.clear();
    }

    /// Negatives of event `idx` contrasted against `h*_u`.
    #[inline]
    pub fn negs_u(&self, idx: usize) -> &[u32] {
        let (lo, hi) = self.events[idx].negs_u;
        &self.negs[lo as usize..hi as usize]
    }

    /// Negatives of event `idx` contrasted against `h*_v`.
    #[inline]
    pub fn negs_v(&self, idx: usize) -> &[u32] {
        let (lo, hi) = self.events[idx].negs_v;
        &self.negs[lo as usize..hi as usize]
    }

    /// Iterates the step slices of a walk-index range.
    #[inline]
    pub fn walk_steps(&self, range: (u32, u32)) -> impl Iterator<Item = &[WalkStep]> + '_ {
        (range.0 as usize..range.1 as usize).map(|i| self.walks.steps_of(i))
    }
}

/// Working buffers for one event's loss + gradient computation (the pure
/// `&self` part of the hot path, so it can run on worker threads too).
#[derive(Debug, Default)]
pub(crate) struct GradScratch {
    /// `h*` of the two endpoints (Eq. 5).
    pub hstar_u: Vec<f32>,
    pub hstar_v: Vec<f32>,
    /// `∂L/∂h*` accumulators.
    pub grad_hstar_u: Vec<f32>,
    pub grad_hstar_v: Vec<f32>,
    /// `h^r = ½(h* + c^r)` of the two endpoints (Eq. 6).
    pub hr_u: Vec<f32>,
    pub hr_v: Vec<f32>,
    /// The event's sparse gradient bundle (pooled rows).
    pub grads: EventGrads,
    /// The event's loss, stashed here so a wave can compute first and apply
    /// in order without a side allocation.
    pub loss: EventLoss,
}

/// A stamp-based node mark set: `O(1)` insert/query, `O(1)` *clear* (bump
/// the epoch), no hashing, no per-wave allocation — replaces the wave
/// builder's `HashSet<u32>`.
#[derive(Debug, Clone, Default)]
pub(crate) struct NodeMarks {
    stamp: Vec<u32>,
    epoch: u32,
}

impl NodeMarks {
    /// Grows the stamp table to cover node ids `< n`.
    pub fn ensure_len(&mut self, n: usize) {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
        }
    }

    /// Empties the set (constant time; the rare epoch wrap rewrites stamps).
    pub fn clear(&mut self) {
        self.epoch = match self.epoch.checked_add(1) {
            Some(e) => e,
            None => {
                self.stamp.fill(0);
                1
            }
        };
    }

    #[inline]
    pub fn mark(&mut self, v: u32) {
        self.stamp[v as usize] = self.epoch;
    }

    #[inline]
    pub fn is_marked(&self, v: u32) -> bool {
        self.stamp[v as usize] == self.epoch
    }
}

/// All reusable hot-path state of one model (see module docs).
#[derive(Debug, Default)]
pub(crate) struct SupaScratch {
    /// Frozen stochastic choices (one event for `train_edge`, a whole pass
    /// for `train_pass`).
    pub arena: SampleArena,
    /// Staging buffer for `NegativeSampler::sample_many` (which clears its
    /// output) before appending into the arena's flat `negs`.
    pub neg_tmp: Vec<u32>,
    /// Loss/gradient working buffers for `train_edge` / `edge_loss`.
    pub work: GradScratch,
    /// Per-event gradient scratches of the current wave; grows to the
    /// longest wave seen (one in the serial regime).
    pub wave: Vec<GradScratch>,
    /// Touched-node staging for the wave builder.
    pub touched: Vec<u32>,
    /// Wave occupancy marks (replaces the per-wave `HashSet`).
    pub marks: NodeMarks,
}

impl SupaScratch {
    /// Upper bound on distinct gradient rows one event can produce:
    /// `h^L`/`h^S` of both endpoints, `c^r` of both endpoints, one `c`
    /// row per walk hop, one per negative.
    fn rows_bound(cfg: &SupaConfig) -> usize {
        6 + 2 * cfg.num_walks * cfg.walk_length + 2 * cfg.n_neg
    }

    /// Pre-reserves every buffer for the shapes `cfg` implies, so the warm
    /// path never grows a capacity. Idempotent and cheap once warm.
    pub fn prepare(&mut self, cfg: &SupaConfig) {
        let dim = cfg.dim;
        self.arena.walks.reserve(2 * cfg.num_walks, cfg.walk_length);
        self.arena.negs.reserve(2 * cfg.n_neg);
        if self.arena.events.capacity() == 0 {
            self.arena.events.reserve(1);
        }
        self.neg_tmp.reserve(cfg.n_neg);
        self.touched
            .reserve(2 + 2 * cfg.num_walks * cfg.walk_length + 2 * cfg.n_neg);
        for b in [
            &mut self.work.hstar_u,
            &mut self.work.hstar_v,
            &mut self.work.grad_hstar_u,
            &mut self.work.grad_hstar_v,
            &mut self.work.hr_u,
            &mut self.work.hr_v,
        ] {
            b.reserve(dim);
        }
        self.work.grads.prepare(Self::rows_bound(cfg), dim);
    }
}

/// `touched_nodes` over arena-resident samples: every node id whose
/// embedding rows event `idx` can read *or* write — the endpoints, every
/// walk-step node, and every negative. Two events with disjoint touched
/// sets commute exactly (only the `α` drift scalars are shared — the
/// wave-frozen regime freezes those per wave).
pub(crate) fn touched_nodes(e: &TemporalEdge, arena: &SampleArena, idx: usize, out: &mut Vec<u32>) {
    out.clear();
    out.push(e.src.0);
    out.push(e.dst.0);
    let m = arena.events[idx];
    for range in [m.walks_u, m.walks_v] {
        for steps in arena.walk_steps(range) {
            for step in steps {
                out.push(step.node.0);
            }
        }
    }
    out.extend_from_slice(arena.negs_u(idx));
    out.extend_from_slice(arena.negs_v(idx));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_marks_epoch_clear_is_constant_time() {
        let mut m = NodeMarks::default();
        m.ensure_len(10);
        m.clear();
        m.mark(3);
        m.mark(7);
        assert!(m.is_marked(3) && m.is_marked(7) && !m.is_marked(4));
        m.clear();
        assert!(!m.is_marked(3) && !m.is_marked(7));
        m.mark(4);
        assert!(m.is_marked(4));
        // Wrap-around safety.
        m.epoch = u32::MAX;
        m.clear();
        assert_eq!(m.epoch, 1);
        assert!(!m.is_marked(4));
    }

    #[test]
    fn sample_arena_clear_keeps_capacity() {
        let mut a = SampleArena::default();
        a.negs.extend_from_slice(&[1, 2, 3]);
        a.events.push(SampleMeta::default());
        let neg_cap = a.negs.capacity();
        a.clear();
        assert_eq!(a.negs.capacity(), neg_cap);
        assert!(a.events.is_empty());
    }
}
