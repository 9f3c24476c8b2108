//! Per-edge training: the sample → update → propagate step.
//!
//! For each new edge `(u, v, r, t)` this module implements the full forward
//! pass (Eq. 5–12) and the hand-derived analytic gradients for every touched
//! parameter: the endpoints' long/short-term memories, the context
//! embeddings of the endpoints, influenced nodes and negatives, and the
//! node-type drift scalars `α_o`. Gradients are verified against central
//! finite differences in this module's tests.
//!
//! The whole step runs on reusable buffers from [`crate::scratch`]: walks
//! land in a flat [`supa_graph::FlatWalks`] arena, negatives in a flat pool,
//! and gradients in pooled rows — once warm, training one event allocates
//! nothing (enforced by `tests/alloc.rs` with a counting global allocator).

use rand::RngExt;
use supa_graph::{Dmhg, TemporalEdge, WalkConfig};

use crate::decay::{filter, g_decay, g_decay_prime, log_sigmoid, sigmoid, sigmoid_prime};
use crate::model::Supa;
use crate::scratch::{touched_nodes, GradScratch, SampleArena};

/// The three loss components of one event (Eq. 13).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EventLoss {
    /// Interaction loss `L_inter` (Eq. 7).
    pub inter: f64,
    /// Propagation loss `L_prop` (Eq. 10).
    pub prop: f64,
    /// Negative-sampling loss `L_neg` (Eq. 12).
    pub neg: f64,
}

impl EventLoss {
    /// `L = L_inter + L_prop + L_neg`.
    pub fn total(&self) -> f64 {
        self.inter + self.prop + self.neg
    }
}

/// Which embedding table a gradient row belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    Long,
    Short,
    /// `.0` carries the (already collapsed) context-table index.
    Ctx(usize),
}

/// One pooled gradient row: its key plus a grad buffer that keeps its
/// allocation across events.
#[derive(Debug, Default)]
struct GradRow {
    kind: Option<(Kind, u32)>,
    grad: Vec<f32>,
}

/// Sparse gradient bundle for one event. Rows are pooled: [`EventGrads::clear`]
/// resets the live count without dropping any buffer, and
/// [`EventGrads::prepare`] pre-allocates the per-event worst case so the
/// warm path never grows.
#[derive(Debug, Default)]
pub(crate) struct EventGrads {
    rows: Vec<GradRow>,
    live: usize,
    alpha: Vec<(usize, f64)>,
}

impl EventGrads {
    /// Accumulates `scale · vec` into the (kind, node) row.
    pub(crate) fn add(&mut self, kind: Kind, node: u32, scale: f32, vec: &[f32]) {
        if scale == 0.0 {
            return;
        }
        for row in &mut self.rows[..self.live] {
            if row.kind == Some((kind, node)) {
                for (gi, &vi) in row.grad.iter_mut().zip(vec) {
                    *gi += scale * vi;
                }
                return;
            }
        }
        if self.live == self.rows.len() {
            self.rows.push(GradRow::default());
        }
        let row = &mut self.rows[self.live];
        self.live += 1;
        row.kind = Some((kind, node));
        row.grad.clear();
        row.grad.extend(vec.iter().map(|&vi| scale * vi));
    }

    pub(crate) fn add_alpha(&mut self, idx: usize, grad: f64) {
        for (i, g) in &mut self.alpha {
            if *i == idx {
                *g += grad;
                return;
            }
        }
        self.alpha.push((idx, grad));
    }

    /// Drops the event's rows, keeping every allocation warm.
    pub(crate) fn clear(&mut self) {
        self.live = 0;
        self.alpha.clear();
    }

    /// The live rows, in insertion order.
    pub(crate) fn iter_rows(&self) -> impl Iterator<Item = (Kind, u32, &[f32])> {
        self.rows[..self.live].iter().map(|r| {
            let (kind, node) = r.kind.expect("live row always has a key");
            (kind, node, r.grad.as_slice())
        })
    }

    /// The `α` gradients, in insertion order.
    pub(crate) fn alpha(&self) -> &[(usize, f64)] {
        &self.alpha
    }

    /// Pre-allocates `rows` pooled rows of `dim` capacity (plus the two
    /// possible `α` slots) so `add` never allocates once warm.
    pub(crate) fn prepare(&mut self, rows: usize, dim: usize) {
        if self.rows.len() < rows {
            self.rows.reserve(rows - self.rows.len());
            while self.rows.len() < rows {
                self.rows.push(GradRow {
                    kind: None,
                    grad: Vec::with_capacity(dim),
                });
            }
        }
        self.alpha.reserve(2);
    }
}

/// The smallest float strictly greater than `x` (finite positives only).
#[inline]
fn f64_next_up(x: f64) -> f64 {
    f64::from_bits(x.to_bits() + 1)
}

/// Below this many events per worker a wave is processed inline: spawning
/// scoped threads costs tens of microseconds, which only pays off when each
/// worker gets a meaningful slice of gradient work.
const MIN_EVENTS_PER_WORKER: usize = 8;

impl Supa {
    /// Draws one event's stochastic choices into `arena`: `k` walks per
    /// endpoint over the influenced graph (§III-B), and `N_neg` negatives
    /// per flow from the *counterpart* node type's `deg^{0.75}` distribution.
    /// Returns the event's index within the arena.
    ///
    /// Edges established up to and *including* `t` are walkable (the cutoff
    /// is the next float above `t`): simultaneous edges — in particular every
    /// edge of a static graph, where all timestamps coincide (§III-A) —
    /// belong to the influenced graph, while strictly-future edges never do.
    /// In streaming use the event edge itself is not yet inserted.
    ///
    /// The RNG draw sequence is identical for any arena state, so batching
    /// many events into one arena samples exactly what per-event arenas
    /// would.
    pub(crate) fn sample_event_into(
        &mut self,
        g: &Dmhg,
        e: &TemporalEdge,
        arena: &mut SampleArena,
        neg_tmp: &mut Vec<u32>,
    ) -> usize {
        let cfg = WalkConfig {
            num_walks: self.cfg.num_walks,
            walk_length: self.cfg.walk_length,
            neighbor_cap: None,
            before: Some(f64_next_up(e.time)),
        };
        let w0 = arena.walks.num_walks() as u32;
        let nu = self
            .walker
            .sample_walks_into(g, e.src, &cfg, &mut self.rng, &mut arena.walks)
            as u32;
        let nv = self
            .walker
            .sample_walks_into(g, e.dst, &cfg, &mut self.rng, &mut arena.walks)
            as u32;
        let n0 = arena.negs.len() as u32;
        let mut n1 = n0;
        let mut n2 = n0;
        if self.variant.use_neg {
            let ty_v = g.node_type(e.dst).index();
            let ty_u = g.node_type(e.src).index();
            if let Some(s) = &self.neg_samplers[ty_v] {
                s.sample_many(self.cfg.n_neg, e.dst.0, &mut self.rng, neg_tmp);
                arena.negs.extend_from_slice(neg_tmp);
            }
            n1 = arena.negs.len() as u32;
            if let Some(s) = &self.neg_samplers[ty_u] {
                s.sample_many(self.cfg.n_neg, e.src.0, &mut self.rng, neg_tmp);
                arena.negs.extend_from_slice(neg_tmp);
            }
            n2 = arena.negs.len() as u32;
        }
        arena.events.push(crate::scratch::SampleMeta {
            walks_u: (w0, w0 + nu),
            walks_v: (w0 + nu, w0 + nu + nv),
            negs_u: (n0, n1),
            negs_v: (n1, n2),
        });
        arena.events.len() - 1
    }

    /// Deterministic loss + analytic gradients for event `idx` of the arena,
    /// computed into `ws` (a pure read of the model, so waves of events can
    /// run this concurrently against frozen state). `ws.grads` holds the
    /// result; all other `ws` buffers are intermediates.
    pub(crate) fn grads_into(
        &self,
        g: &Dmhg,
        e: &TemporalEdge,
        arena: &SampleArena,
        idx: usize,
        ws: &mut GradScratch,
    ) -> EventLoss {
        let t = e.time;
        let r_ctx = self.ctx_idx(e.relation);
        let meta_u = self.target_parts_into(g, e.src, t, &mut ws.hstar_u);
        let meta_v = self.target_parts_into(g, e.dst, t, &mut ws.hstar_v);
        let dim = self.cfg.dim;

        let mut loss = EventLoss::default();
        ws.grads.clear();
        ws.grad_hstar_u.clear();
        ws.grad_hstar_u.resize(dim, 0.0);
        ws.grad_hstar_v.clear();
        ws.grad_hstar_v.resize(dim, 0.0);

        // ---- interaction loss (Eq. 6–7) --------------------------------
        if self.variant.use_inter {
            let c_u = self.state.ctx[r_ctx].row(e.src.index());
            let c_v = self.state.ctx[r_ctx].row(e.dst.index());
            ws.hr_u.clear();
            ws.hr_u
                .extend(ws.hstar_u.iter().zip(c_u).map(|(&h, &c)| 0.5 * (h + c)));
            ws.hr_v.clear();
            ws.hr_v
                .extend(ws.hstar_v.iter().zip(c_v).map(|(&h, &c)| 0.5 * (h + c)));
            let s: f32 = ws.hr_u.iter().zip(&ws.hr_v).map(|(a, b)| a * b).sum();
            loss.inter = -log_sigmoid(s as f64);
            let ds = (sigmoid(s as f64) - 1.0) as f32;
            // ∂L/∂h*_u = ½·ds·h_v^r ; ∂L/∂c_u^r = ½·ds·h_v^r (and symmetric).
            for k in 0..dim {
                ws.grad_hstar_u[k] += 0.5 * ds * ws.hr_v[k];
                ws.grad_hstar_v[k] += 0.5 * ds * ws.hr_u[k];
            }
            ws.grads.add(Kind::Ctx(r_ctx), e.src.0, 0.5 * ds, &ws.hr_v);
            ws.grads.add(Kind::Ctx(r_ctx), e.dst.0, 0.5 * ds, &ws.hr_u);
        }

        let m = arena.events[idx];

        // ---- propagation loss (Eq. 8–10) --------------------------------
        if self.variant.use_prop {
            let grads = &mut ws.grads;
            for (range, hstar, grad_hstar) in [
                (m.walks_u, &ws.hstar_u, &mut ws.grad_hstar_u),
                (m.walks_v, &ws.hstar_v, &mut ws.grad_hstar_v),
            ] {
                for steps in arena.walk_steps(range) {
                    let mut a = 1.0f64; // cumulative attenuation along the path
                    for step in steps {
                        if !self.variant.no_decay {
                            let de = ((t - step.edge_time) / self.time_scale).max(0.0);
                            a *= filter(de, self.cfg.tau) * g_decay(de);
                            if a <= 0.0 {
                                break; // termination: flow stops at outdated edges
                            }
                        }
                        let z_ctx = self.ctx_idx(step.relation);
                        let c_z = self.state.ctx[z_ctx].row(step.node.index());
                        let dot: f32 = c_z.iter().zip(hstar.iter()).map(|(a, b)| a * b).sum();
                        let s = a * dot as f64; // c_z · d where d = a·h*
                        loss.prop += -log_sigmoid(s);
                        let coef = ((sigmoid(s) - 1.0) * a) as f32;
                        grads.add(Kind::Ctx(z_ctx), step.node.0, coef, hstar);
                        for k in 0..dim {
                            grad_hstar[k] += coef * c_z[k];
                        }
                    }
                }
            }
        }

        // ---- negative-sampling loss (Eq. 12) ----------------------------
        if self.variant.use_neg {
            let grads = &mut ws.grads;
            for (negs, hstar, grad_hstar, positive) in [
                (
                    arena.negs_u(idx),
                    &ws.hstar_u,
                    &mut ws.grad_hstar_u,
                    e.dst.0,
                ),
                (
                    arena.negs_v(idx),
                    &ws.hstar_v,
                    &mut ws.grad_hstar_v,
                    e.src.0,
                ),
            ] {
                for &i in negs {
                    if i == positive {
                        // A tiny universe can collide the negative with the
                        // true counterpart; skip rather than fight L_inter.
                        continue;
                    }
                    let c_i = self.state.ctx[r_ctx].row(i as usize);
                    let s: f32 = c_i.iter().zip(hstar.iter()).map(|(a, b)| a * b).sum();
                    loss.neg += -log_sigmoid(-s as f64);
                    let coef = sigmoid(s as f64) as f32;
                    grads.add(Kind::Ctx(r_ctx), i, coef, hstar);
                    for k in 0..dim {
                        grad_hstar[k] += coef * c_i[k];
                    }
                }
            }
        }

        // ---- backprop h* → (h^L, h^S, α) (Eq. 5) -------------------------
        for (node, meta, grad_hstar) in [
            (e.src, meta_u, &ws.grad_hstar_u),
            (e.dst, meta_v, &ws.grad_hstar_v),
        ] {
            ws.grads.add(Kind::Long, node.0, 1.0, grad_hstar);
            if !self.variant.no_forget {
                ws.grads
                    .add(Kind::Short, node.0, meta.forget as f32, grad_hstar);
                // ∂L/∂α = (∂L/∂h*)·h^S · g'(x)·Δ·σ'(α)
                let hs = self.state.h_short.row(node.index());
                let dot: f64 = grad_hstar
                    .iter()
                    .zip(hs)
                    .map(|(&g, &h)| (g * h) as f64)
                    .sum();
                let alpha_val = self.state.alpha[meta.alpha_idx].value;
                let dalpha = dot * g_decay_prime(meta.x) * meta.delta * sigmoid_prime(alpha_val);
                ws.grads.add_alpha(meta.alpha_idx, dalpha);
            }
        }

        loss
    }

    /// Applies a gradient bundle with per-row Adam (and Adam on the `α`s).
    ///
    /// The event's importance weight scales the *learning rate*, not the
    /// gradient: Adam's `m̂/√v̂` step is invariant to gradient scale, so an
    /// lr scale is the only knob that actually applies `w×` the update mass
    /// (the basis of sample-1-in-k shedding's unbiased reweighting). With
    /// the default weight of exactly `1.0` the product is bit-identical to
    /// the unweighted rate.
    pub(crate) fn apply_grads(&mut self, grads: &EventGrads) {
        let lr = self.cfg.learning_rate * self.event_weight;
        if let Some(log) = &mut self.touch_log {
            log.extend(grads.iter_rows().map(|(_, node, _)| node));
        }
        for (kind, node, g) in grads.iter_rows() {
            let node = node as usize;
            match kind {
                Kind::Long => self.state.h_long.adam_step_row(node, g, lr),
                Kind::Short => self.state.h_short.adam_step_row(node, g, lr),
                Kind::Ctx(i) => self.state.ctx[i].adam_step_row(node, g, lr),
            }
        }
        for &(idx, g) in grads.alpha() {
            self.state.alpha[idx].step(g, lr as f64);
        }
    }

    /// One full SUPA training step on a new edge (the graph must already
    /// contain the event's past; edges at `time ≥ e.time` are never walked).
    ///
    /// Steady state, this performs no heap allocation: samples, walks,
    /// negatives, and gradient rows all live in the model's [`SupaScratch`]
    /// pools (see `tests/alloc.rs`).
    ///
    /// [`SupaScratch`]: crate::scratch::SupaScratch
    pub fn train_edge(&mut self, g: &Dmhg, e: &TemporalEdge) -> EventLoss {
        self.ensure_capacity(g.num_nodes());
        if self.variant.use_neg && self.neg_samplers.iter().all(Option::is_none) {
            self.rebuild_negative_samplers(g);
        }
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.prepare(&self.cfg);
        scratch.arena.clear();
        let idx = self.sample_event_into(g, e, &mut scratch.arena, &mut scratch.neg_tmp);
        let loss = self.grads_into(g, e, &scratch.arena, idx, &mut scratch.work);
        self.apply_grads(&scratch.work.grads);
        self.scratch = scratch;
        loss
    }

    /// Evaluation-only loss of an edge (no parameter updates); used by the
    /// tests and by diagnostics.
    pub fn edge_loss(&mut self, g: &Dmhg, e: &TemporalEdge) -> EventLoss {
        self.ensure_capacity(g.num_nodes());
        if self.variant.use_neg && self.neg_samplers.iter().all(Option::is_none) {
            self.rebuild_negative_samplers(g);
        }
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.prepare(&self.cfg);
        scratch.arena.clear();
        let idx = self.sample_event_into(g, e, &mut scratch.arena, &mut scratch.neg_tmp);
        let loss = self.grads_into(g, e, &scratch.arena, idx, &mut scratch.work);
        self.scratch = scratch;
        loss
    }

    /// Trains an entire (time-sorted) edge slice once, returning the mean
    /// total loss. Shuffles nothing — the stream order *is* the curriculum.
    /// Exactly [`Supa::train_pass_weighted`] with no weights.
    pub fn train_pass(&mut self, g: &Dmhg, edges: &[TemporalEdge]) -> f64 {
        self.train_pass_weighted(g, edges, None)
    }

    /// The one training pass. Event `i`'s parameter update (the applied
    /// Adam step, see [`Supa::apply_grads`]) is scaled by `weights[i]`;
    /// `None` is weight `1.0` for every event, which is bit-identical to an
    /// unweighted step. A shedding sampler that admits 1-in-`k` events and
    /// trains the survivors with weight `k` preserves the stream's expected
    /// update mass.
    ///
    /// The pass is four phases, the same in both digest regimes:
    ///
    /// 1. **Sampling is serial.** Every event's walks and negatives are drawn
    ///    up front in stream order into one [`SampleArena`]; sampling reads
    ///    no embedding state, so the RNG stream is what per-event
    ///    [`Supa::train_edge`] calls would draw.
    /// 2. **Waves are contiguous.** In the *serial* regime (`workers = 1` and
    ///    `shards = 1`) every wave is one event, so the pass is bit-identical
    ///    to a `train_edge` loop. In the *wave-frozen* regime (`workers ≥ 2`
    ///    or `shards ≥ 2`) a wave is the maximal run of consecutive events
    ///    whose touched-node sets (endpoints ∪ walk steps ∪ negatives) are
    ///    pairwise disjoint — tracked with a stamp-based mark set, no
    ///    per-wave hashing or allocation. Within a wave the events' sparse
    ///    row reads/writes land on disjoint rows, so their updates commute
    ///    exactly; only the shared `α` drift scalars are read frozen per
    ///    wave instead of per event, which is the whole difference between
    ///    the two regimes.
    /// 3. **Gradients are pure reads** against the frozen pre-wave state,
    ///    reassembled by event index, so *any* partition of a wave yields
    ///    the same bits. Long waves are split into contiguous chunks by
    ///    [`supa_par::WorkerPool::map`]; waves with fewer than
    ///    [`MIN_EVENTS_PER_WORKER`] events per worker run inline on pooled
    ///    buffers.
    /// 4. **Application is serial**, in event order — per-row Adam, the `α`
    ///    scalars, and the touch log all see the stream order.
    ///
    /// The regime is a function of configuration alone. The host's core
    /// count only caps how many threads phase 3 spawns — never which bits
    /// come out.
    pub fn train_pass_weighted(
        &mut self,
        g: &Dmhg,
        edges: &[TemporalEdge],
        weights: Option<&[f32]>,
    ) -> f64 {
        if let Some(w) = weights {
            assert_eq!(
                edges.len(),
                w.len(),
                "train_pass_weighted: one weight per event"
            );
        }
        if edges.is_empty() {
            return 0.0;
        }
        // Preamble, once per pass (equivalent to `train_edge`'s per-event
        // preamble: capacity depends only on the graph, and the sampler
        // rebuild only triggers when all samplers are absent).
        self.ensure_capacity(g.num_nodes());
        if self.variant.use_neg && self.neg_samplers.iter().all(Option::is_none) {
            self.rebuild_negative_samplers(g);
        }
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.prepare(&self.cfg);
        scratch.arena.clear();

        let fan_out = self.workers.max(self.shards);
        let frozen = fan_out >= 2;
        // Phase 1 — draw all stochastic choices serially, in stream order.
        for e in edges {
            self.sample_event_into(g, e, &mut scratch.arena, &mut scratch.neg_tmp);
        }
        // The core count is only asked for when there is fan-out to clamp:
        // the query reads cgroup files, which the serial path must not pay
        // once per chunk.
        let mut pool = supa_par::WorkerPool::new(1);
        if frozen {
            pool = supa_par::WorkerPool::new(fan_out.min(supa_par::available_workers()));
            scratch.marks.ensure_len(g.num_nodes());
        }
        let mut total = 0.0;
        let mut start = 0usize;
        while start < edges.len() {
            // Phase 2 — one event, or (wave-frozen) extend the wave while
            // touched sets stay disjoint.
            let mut end = start;
            if frozen {
                scratch.marks.clear();
                while end < edges.len() {
                    touched_nodes(&edges[end], &scratch.arena, end, &mut scratch.touched);
                    if end > start && scratch.touched.iter().any(|&n| scratch.marks.is_marked(n)) {
                        break;
                    }
                    for &n in &scratch.touched {
                        scratch.marks.mark(n);
                    }
                    end += 1;
                }
            } else {
                end += 1;
            }

            // Phase 3 — pure-read gradients against the pre-wave state.
            let wave = end - start;
            while scratch.wave.len() < wave {
                scratch.wave.push(GradScratch::default());
            }
            if wave < pool.workers() * MIN_EVENTS_PER_WORKER {
                for (k, ws) in scratch.wave[..wave].iter_mut().enumerate() {
                    ws.loss = self.grads_into(g, &edges[start + k], &scratch.arena, start + k, ws);
                }
            } else {
                let arena = &scratch.arena;
                let this: &Supa = self;
                let computed = pool.map(&edges[start..end], |k, e| {
                    let mut ws = GradScratch::default();
                    ws.loss = this.grads_into(g, e, arena, start + k, &mut ws);
                    ws
                });
                for (slot, ws) in scratch.wave.iter_mut().zip(computed) {
                    *slot = ws;
                }
            }

            // Phase 4 — serial, in-order application.
            for (k, ws) in scratch.wave[..wave].iter().enumerate() {
                self.event_weight = weights.map_or(1.0, |w| w[start + k]);
                total += ws.loss.total();
                self.apply_grads(&ws.grads);
            }
            start = end;
        }
        self.event_weight = 1.0;
        self.scratch = scratch;
        total / edges.len() as f64
    }

    /// Samples `e`'s walks and negatives — advancing the model RNG exactly
    /// as training would — and returns the event's touched row ids
    /// (endpoints ∪ walk steps ∪ negatives). This is the conflict
    /// footprint the wave builder marks; the shard-key study (`expt
    /// shardkey`) replays a stream through it to measure how often an
    /// event's footprint escapes the shard owning its source user.
    pub fn event_touched_nodes(&mut self, g: &Dmhg, e: &TemporalEdge) -> Vec<u32> {
        self.ensure_capacity(g.num_nodes());
        if self.variant.use_neg && self.neg_samplers.iter().all(Option::is_none) {
            self.rebuild_negative_samplers(g);
        }
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.prepare(&self.cfg);
        scratch.arena.clear();
        let idx = self.sample_event_into(g, e, &mut scratch.arena, &mut scratch.neg_tmp);
        touched_nodes(e, &scratch.arena, idx, &mut scratch.touched);
        let out = scratch.touched.clone();
        self.scratch = scratch;
        out
    }

    /// Exposes the internal RNG for protocol-level sampling decisions.
    pub(crate) fn rng_u64(&mut self) -> u64 {
        self.rng.random()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SupaConfig;
    use crate::variants::SupaVariant;
    use supa_graph::{GraphSchema, MetapathSchema, NodeId, RelationId, RelationSet};

    /// A tiny deterministic fixture: one user, three items, two relations.
    struct Fix {
        g: Dmhg,
        u0: NodeId,
        i2: NodeId,
        r0: RelationId,
        metapaths: Vec<MetapathSchema>,
        schema: GraphSchema,
    }

    fn fixture() -> Fix {
        let mut s = GraphSchema::new();
        let user = s.add_node_type("User");
        let item = s.add_node_type("Item");
        let r0 = s.add_relation("R0", user, item);
        let _r1 = s.add_relation("R1", user, item);
        let mut g = Dmhg::new(s.clone());
        let u0 = g.add_node(user);
        let u1 = g.add_node(user);
        let i0 = g.add_node(item);
        let i1 = g.add_node(item);
        let i2 = g.add_node(item);
        g.add_edge(u0, i0, r0, 1.0).unwrap();
        g.add_edge(u0, i1, r0, 2.0).unwrap();
        g.add_edge(u1, i0, r0, 3.0).unwrap();
        let rels = RelationSet::single(r0);
        let metapaths =
            vec![MetapathSchema::new(vec![user, item, user], vec![rels, rels]).unwrap()];
        Fix {
            g,
            u0,
            i2,
            r0,
            metapaths,
            schema: s,
        }
    }

    fn small_cfg() -> SupaConfig {
        SupaConfig {
            dim: 6,
            num_walks: 2,
            walk_length: 3,
            n_neg: 2,
            time_scale: 1.0,
            weight_decay: 0.0, // keep FD checks clean
            ..SupaConfig::small()
        }
    }

    fn model(f: &Fix, variant: SupaVariant) -> Supa {
        let mut m = Supa::new(
            &f.schema,
            f.g.num_nodes(),
            f.metapaths.clone(),
            small_cfg(),
            variant,
            99,
        )
        .unwrap();
        m.rebuild_negative_samplers(&f.g);
        m
    }

    #[test]
    fn losses_are_positive_and_respect_variant_flags() {
        let f = fixture();
        let e = TemporalEdge::new(f.u0, f.i2, f.r0, 10.0);
        let mut m = model(&f, SupaVariant::full());
        let l = m.edge_loss(&f.g, &e);
        assert!(l.inter > 0.0 && l.prop > 0.0 && l.neg > 0.0);
        assert!(l.total() > l.inter);

        let mut m = model(&f, SupaVariant::losses(true, false, false));
        let l = m.edge_loss(&f.g, &e);
        assert!(l.inter > 0.0);
        assert_eq!(l.prop, 0.0);
        assert_eq!(l.neg, 0.0);
    }

    #[test]
    fn training_reduces_the_event_loss() {
        let f = fixture();
        let e = TemporalEdge::new(f.u0, f.i2, f.r0, 10.0);
        let mut m = model(&f, SupaVariant::full());
        let before = m.edge_loss(&f.g, &e).total();
        for _ in 0..60 {
            m.train_edge(&f.g, &e);
        }
        let after = m.edge_loss(&f.g, &e).total();
        assert!(after < before, "{after} !< {before}");
    }

    #[test]
    fn training_raises_the_pair_score() {
        let f = fixture();
        let e = TemporalEdge::new(f.u0, f.i2, f.r0, 10.0);
        let mut m = model(&f, SupaVariant::full());
        let before = m.gamma(f.u0, f.i2, f.r0);
        for _ in 0..80 {
            m.train_edge(&f.g, &e);
        }
        assert!(m.gamma(f.u0, f.i2, f.r0) > before);
    }

    /// Central finite differences against the analytic gradients for every
    /// parameter class, under the full variant.
    #[test]
    fn analytic_gradients_match_finite_differences() {
        let f = fixture();
        let e = TemporalEdge::new(f.u0, f.i2, f.r0, 10.0);
        let mut m = model(&f, SupaVariant::full());
        let mut arena = SampleArena::default();
        let mut neg_tmp = Vec::new();
        let idx = m.sample_event_into(&f.g, &e, &mut arena, &mut neg_tmp);
        let mut ws = GradScratch::default();
        m.grads_into(&f.g, &e, &arena, idx, &mut ws);
        // Snapshot the analytic gradients before re-running the loss.
        let rows: Vec<(Kind, u32, Vec<f32>)> = ws
            .grads
            .iter_rows()
            .map(|(k, n, g)| (k, n, g.to_vec()))
            .collect();
        let alphas: Vec<(usize, f64)> = ws.grads.alpha().to_vec();

        let eps = 5e-3f32;
        let tol = 3e-2f64;
        let find = |kind: Kind, node: u32| -> Option<&Vec<f32>> {
            rows.iter()
                .find(|(k, n, _)| *k == kind && *n == node)
                .map(|(_, _, g)| g)
        };

        // Check h^L, h^S of u0, and c^{r0} of i2 (the interactive item).
        for (kind, node) in [
            (Kind::Long, f.u0.0),
            (Kind::Short, f.u0.0),
            (Kind::Ctx(0), f.i2.0),
            (Kind::Long, f.i2.0),
        ] {
            let analytic = find(kind, node).cloned().unwrap_or_default();
            for k in 0..m.cfg.dim {
                let bump = |m: &mut Supa, delta: f32| match kind {
                    Kind::Long => m.state.h_long.row_mut(node as usize)[k] += delta,
                    Kind::Short => m.state.h_short.row_mut(node as usize)[k] += delta,
                    Kind::Ctx(i) => m.state.ctx[i].row_mut(node as usize)[k] += delta,
                };
                bump(&mut m, eps);
                let up = m.grads_into(&f.g, &e, &arena, idx, &mut ws).total();
                bump(&mut m, -2.0 * eps);
                let down = m.grads_into(&f.g, &e, &arena, idx, &mut ws).total();
                bump(&mut m, eps);
                let numeric = (up - down) / (2.0 * eps as f64);
                let a = analytic.get(k).copied().unwrap_or(0.0) as f64;
                let denom = a.abs().max(numeric.abs()).max(1.0);
                assert!(
                    ((a - numeric) / denom).abs() < tol,
                    "{kind:?} node {node} dim {k}: analytic {a} vs numeric {numeric}"
                );
            }
        }

        // Check α for the user type.
        let alpha_idx = 0usize;
        let analytic_alpha = alphas
            .iter()
            .find(|(i, _)| *i == alpha_idx)
            .map(|(_, g)| *g)
            .unwrap_or(0.0);
        let eps_a = 1e-4f64;
        m.state.alpha[alpha_idx].value += eps_a;
        let up = m.grads_into(&f.g, &e, &arena, idx, &mut ws).total();
        m.state.alpha[alpha_idx].value -= 2.0 * eps_a;
        let down = m.grads_into(&f.g, &e, &arena, idx, &mut ws).total();
        m.state.alpha[alpha_idx].value += eps_a;
        let numeric = (up - down) / (2.0 * eps_a);
        let denom = analytic_alpha.abs().max(numeric.abs()).max(1e-3);
        assert!(
            ((analytic_alpha - numeric) / denom).abs() < 0.05,
            "α: analytic {analytic_alpha} vs numeric {numeric}"
        );
    }

    #[test]
    fn no_decay_variant_ignores_edge_age() {
        let f = fixture();
        // An event so late that every walked edge is outdated (Δ ≫ τ).
        let e = TemporalEdge::new(f.u0, f.i2, f.r0, 1.0e6);
        let mut full = model(&f, SupaVariant::full());
        let mut nd = model(&f, SupaVariant::nd());
        let lf = full.edge_loss(&f.g, &e);
        let lnd = nd.edge_loss(&f.g, &e);
        // Full SUPA terminates all flows (τ ≈ 25 in scaled units) → no prop
        // loss; SUPA_nd keeps propagating.
        assert_eq!(lf.prop, 0.0, "termination filter must stop stale flows");
        assert!(lnd.prop > 0.0);
    }

    #[test]
    fn negatives_are_never_the_positive_node() {
        let f = fixture();
        let e = TemporalEdge::new(f.u0, f.i2, f.r0, 10.0);
        let mut m = model(&f, SupaVariant::full());
        let mut arena = SampleArena::default();
        let mut neg_tmp = Vec::new();
        for _ in 0..50 {
            arena.clear();
            let idx = m.sample_event_into(&f.g, &e, &mut arena, &mut neg_tmp);
            // With three items the sampler can always exclude the positive;
            // the two-user universe may collide (handled by the loss skip).
            assert!(arena.negs_u(idx).iter().all(|&i| i != f.i2.0));
            // Counterpart typing: negs_u are items (ids ≥ 2 in this fixture).
            assert!(arena.negs_u(idx).iter().all(|&i| i >= 2));
            assert!(arena.negs_v(idx).iter().all(|&i| i < 2));
        }
    }

    #[test]
    fn train_pass_returns_mean_loss() {
        let f = fixture();
        let mut m = model(&f, SupaVariant::full());
        let edges = vec![
            TemporalEdge::new(f.u0, f.i2, f.r0, 10.0),
            TemporalEdge::new(f.u0, f.i2, f.r0, 11.0),
        ];
        let mean = m.train_pass(&f.g, &edges);
        assert!(mean > 0.0);
        assert_eq!(m.train_pass(&f.g, &[]), 0.0);
    }

    #[test]
    fn touch_tracking_logs_updated_rows() {
        let f = fixture();
        let e = TemporalEdge::new(f.u0, f.i2, f.r0, 10.0);
        let mut m = model(&f, SupaVariant::full());
        // Disabled by default: training logs nothing.
        m.train_edge(&f.g, &e);
        assert!(m.take_touched().is_empty());
        m.enable_touch_tracking();
        m.train_edge(&f.g, &e);
        let touched = m.take_touched();
        // Both endpoints receive gradients; the log is sorted and deduped.
        assert!(touched.contains(&f.u0.0));
        assert!(touched.contains(&f.i2.0));
        assert!(touched.windows(2).all(|w| w[0] < w[1]));
        // Drained: a second take is empty until more training happens.
        assert!(m.take_touched().is_empty());
        m.train_edge(&f.g, &e);
        assert!(!m.take_touched().is_empty());
    }

    #[test]
    fn grad_accumulator_merges_duplicate_rows_and_pools_buffers() {
        let mut g = EventGrads::default();
        g.add(Kind::Long, 3, 1.0, &[1.0, 2.0]);
        g.add(Kind::Long, 3, 0.5, &[2.0, 2.0]);
        g.add(Kind::Short, 3, 1.0, &[1.0, 1.0]);
        {
            let rows: Vec<_> = g.iter_rows().collect();
            assert_eq!(rows.len(), 2);
            assert_eq!(rows[0].2, [2.0, 3.0].as_slice());
        }
        g.add_alpha(0, 1.0);
        g.add_alpha(0, 0.25);
        g.add_alpha(1, 3.0);
        assert_eq!(g.alpha(), &[(0, 1.25), (1, 3.0)]);
        // clear() retires the rows but keeps their buffers pooled.
        g.clear();
        assert_eq!(g.iter_rows().count(), 0);
        assert!(g.alpha().is_empty());
        g.add(Kind::Long, 9, 2.0, &[4.0, 5.0, 6.0]);
        let rows: Vec<_> = g.iter_rows().collect();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].1, 9);
        assert_eq!(rows[0].2, [8.0, 10.0, 12.0].as_slice());
    }

    /// After `prepare`, a worst-case event's worth of `add` calls performs
    /// no row pushes beyond the pool.
    #[test]
    fn prepared_grads_never_grow_the_row_pool() {
        let mut g = EventGrads::default();
        g.prepare(8, 4);
        let pooled = g.rows.len();
        assert_eq!(pooled, 8);
        for node in 0..8u32 {
            g.add(Kind::Ctx(0), node, 1.0, &[1.0, 2.0, 3.0, 4.0]);
        }
        assert_eq!(g.rows.len(), pooled, "adds within bound reuse the pool");
        g.clear();
        g.add(Kind::Long, 0, 1.0, &[1.0]);
        assert_eq!(g.rows.len(), pooled);
        assert_eq!(g.iter_rows().count(), 1);
    }
}
