//! The SUPA model state and construction.
//!
//! State per node (paper §III-C): a long-term memory `h^L`, a short-term
//! memory `h^S`, and one context embedding `c^r` per relation — all
//! learnable rows in [`EmbeddingTable`]s. Per node *type* there is one
//! scalar drift parameter `α_o` (through a sigmoid it scales how fast the
//! short-term memory is forgotten). Everything trains with per-row lazy
//! Adam.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use supa_datasets::Dataset;
use supa_embed::{EmbeddingTable, NegativeSampler};
use supa_graph::{
    Dmhg, GraphError, GraphSchema, MetapathSchema, MetapathWalker, NodeId, RelationId, Timestamp,
};

use crate::config::SupaConfig;
use crate::decay::{g_decay, sigmoid};
use crate::variants::SupaVariant;

/// A scalar parameter with its own Adam state (used for the `α_o`s).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdamScalar {
    /// Current value.
    pub value: f64,
    m: f64,
    v: f64,
    t: u32,
}

impl AdamScalar {
    /// A fresh scalar.
    pub fn new(value: f64) -> Self {
        AdamScalar {
            value,
            m: 0.0,
            v: 0.0,
            t: 0,
        }
    }

    /// Decomposes into `(value, m, v, t)` for checkpointing.
    pub(crate) fn raw_parts(&self) -> (f64, f64, f64, u32) {
        (self.value, self.m, self.v, self.t)
    }

    /// Rebuilds from checkpointed parts.
    pub(crate) fn from_raw_parts(value: f64, m: f64, v: f64, t: u32) -> Self {
        AdamScalar { value, m, v, t }
    }

    /// One Adam step.
    pub fn step(&mut self, grad: f64, lr: f64) {
        const B1: f64 = 0.9;
        const B2: f64 = 0.999;
        const EPS: f64 = 1e-8;
        self.t += 1;
        self.m = B1 * self.m + (1.0 - B1) * grad;
        self.v = B2 * self.v + (1.0 - B2) * grad * grad;
        let mhat = self.m / (1.0 - B1.powi(self.t as i32));
        let vhat = self.v / (1.0 - B2.powi(self.t as i32));
        self.value -= lr * mhat / (vhat.sqrt() + EPS);
    }
}

/// The complete learnable state of a SUPA model — snapshot/restore this for
/// InsLearn's best-model rollback.
#[derive(Debug, Clone)]
pub struct SupaState {
    /// Long-term memories `h^L` (n × d).
    pub h_long: EmbeddingTable,
    /// Short-term memories `h^S` (n × d).
    pub h_short: EmbeddingTable,
    /// Context embeddings `c^r`, one table per relation (or a single shared
    /// table under `SUPA_se`).
    pub ctx: Vec<EmbeddingTable>,
    /// Node-type drift parameters `α_o` (a single entry under `SUPA_sn`).
    pub alpha: Vec<AdamScalar>,
}

impl SupaState {
    /// Whether every parameter is finite and every embedding magnitude is
    /// at most `max_abs` — the divergence guard's health probe (`max_abs`
    /// should be finite; NaN/±∞ entries always fail the check through
    /// [`EmbeddingTable::max_abs_value`] reporting ∞).
    pub fn is_healthy(&self, max_abs: f32) -> bool {
        if !self.alpha.iter().all(|a| a.value.is_finite()) {
            return false;
        }
        [&self.h_long, &self.h_short]
            .into_iter()
            .chain(self.ctx.iter())
            .all(|t| t.max_abs_value() <= max_abs)
    }
}

/// The scalar pieces of a node's target embedding (Eq. 5) — everything the
/// analytic gradients need besides the `h*` vector itself, which the hot
/// path writes into a reusable scratch buffer.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TargetMeta {
    /// The forget factor `g(σ(α)·Δ)`.
    pub forget: f64,
    /// The decay input `x = σ(α)·Δ`.
    pub x: f64,
    /// The scaled inactive interval `Δ_V`.
    pub delta: f64,
    /// Index into `state.alpha`.
    pub alpha_idx: usize,
}

/// [`TargetMeta`] plus an owned `h*` vector — the allocating convenience
/// form, used by the white-box tests.
#[cfg(test)]
#[derive(Debug, Clone)]
pub(crate) struct TargetParts {
    /// `h* = h^L + h^S · g(σ(α)·Δ)` (or `h^L` under `no_forget`).
    pub hstar: Vec<f32>,
    /// The forget factor `g(σ(α)·Δ)`.
    pub forget: f64,
    /// The scaled inactive interval `Δ_V`.
    pub delta: f64,
}

/// The SUPA model (see the crate docs for the architecture overview).
pub struct Supa {
    pub(crate) cfg: SupaConfig,
    pub(crate) variant: SupaVariant,
    pub(crate) state: SupaState,
    pub(crate) walker: MetapathWalker,
    /// Per node type: a `deg^{0.75}` negative sampler (rebuilt per batch).
    pub(crate) neg_samplers: Vec<Option<NegativeSampler>>,
    pub(crate) rng: SmallRng,
    pub(crate) time_scale: f64,
    pub(crate) seed: u64,
    pub(crate) num_node_types: usize,
    pub(crate) inslearn_cfg: crate::inslearn::InsLearnConfig,
    /// When `Some`, every node id whose embedding row receives a gradient is
    /// appended here (the serving layer's cache-invalidation feed). `None`
    /// costs nothing on the training path.
    pub(crate) touch_log: Option<Vec<u32>>,
    /// Gradient fan-out requested for `train_pass`. `1` (the default) with
    /// `shards = 1` is the serial digest regime; `≥ 2` selects the
    /// wave-frozen regime (see [`Supa::set_workers`]).
    pub(crate) workers: usize,
    /// Serving shard count. `≥ 2` selects the wave-frozen regime exactly as
    /// `workers ≥ 2` does and requests the same fan-out (see
    /// [`Supa::set_shards`]).
    pub(crate) shards: usize,
    /// Importance weight applied to the *next* event's parameter update.
    /// Scales the Adam step (the learning rate), not the raw gradient:
    /// Adam's `m̂/√v̂` normalisation is scale-invariant in the gradient, so
    /// only an lr scale actually moves `w×` the update mass. `1.0` outside
    /// weighted passes; see `Supa::train_pass_weighted`.
    pub(crate) event_weight: f32,
    /// Per node type: `(node count, total degree)` observed at the last
    /// negative-sampler rebuild, for the degree-delta refresh gate.
    pub(crate) sampler_stats: Vec<(usize, f64)>,
    /// Reusable hot-path buffers: sample arena, gradient pools, wave marks.
    /// Taken by value (`std::mem::take`) around each training step so the
    /// steady-state path allocates nothing; never serialized.
    pub(crate) scratch: crate::scratch::SupaScratch,
    name: String,
}

impl Supa {
    /// Builds an untrained model over a graph schema.
    ///
    /// `n_nodes` is the initial node-universe size (tables grow on demand);
    /// `metapaths` is the predefined schema set `P⃗`.
    pub fn new(
        schema: &GraphSchema,
        n_nodes: usize,
        metapaths: Vec<MetapathSchema>,
        cfg: SupaConfig,
        variant: SupaVariant,
        seed: u64,
    ) -> Result<Self, GraphError> {
        cfg.validate();
        let walker = MetapathWalker::new(metapaths, schema)?;
        let mut rng = SmallRng::seed_from_u64(seed);
        let n_ctx = if variant.shared_context {
            1
        } else {
            schema.num_relations().max(1)
        };
        let n_alpha = if variant.shared_alpha {
            1
        } else {
            schema.num_node_types().max(1)
        };
        let mk = |rng: &mut SmallRng| {
            EmbeddingTable::new(n_nodes, cfg.dim, cfg.init_scale, rng)
                .with_weight_decay(cfg.weight_decay)
        };
        let state = SupaState {
            h_long: mk(&mut rng),
            h_short: mk(&mut rng),
            ctx: (0..n_ctx).map(|_| mk(&mut rng)).collect(),
            alpha: (0..n_alpha)
                .map(|_| AdamScalar::new(cfg.alpha_init))
                .collect(),
        };
        let initial_time_scale = if cfg.time_scale > 0.0 {
            cfg.time_scale
        } else {
            1.0
        };
        Ok(Supa {
            cfg,
            variant,
            state,
            walker,
            neg_samplers: vec![None; schema.num_node_types()],
            rng,
            // An explicit config scale applies immediately; auto mode stays
            // at 1.0 until `resolve_time_scale` sees a graph.
            time_scale: initial_time_scale,
            seed,
            num_node_types: schema.num_node_types(),
            inslearn_cfg: crate::inslearn::InsLearnConfig::default(),
            touch_log: None,
            workers: 1,
            shards: 1,
            event_weight: 1.0,
            sampler_stats: vec![(0, 0.0); schema.num_node_types()],
            scratch: crate::scratch::SupaScratch::default(),
            name: "SUPA".to_string(),
        })
    }

    /// Convenience constructor from a packaged [`Dataset`].
    pub fn from_dataset(d: &Dataset, cfg: SupaConfig, seed: u64) -> Result<Self, GraphError> {
        Self::new(
            d.prototype.schema(),
            d.prototype.num_nodes(),
            d.metapaths.clone(),
            cfg,
            SupaVariant::full(),
            seed,
        )
    }

    /// Same, with an explicit ablation variant.
    pub fn from_dataset_variant(
        d: &Dataset,
        cfg: SupaConfig,
        variant: SupaVariant,
        seed: u64,
    ) -> Result<Self, GraphError> {
        Self::new(
            d.prototype.schema(),
            d.prototype.num_nodes(),
            d.metapaths.clone(),
            cfg,
            variant,
            seed,
        )
    }

    /// Overrides the display name (used for ablation variants in tables).
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// The model's display name.
    pub fn display_name(&self) -> &str {
        &self.name
    }

    /// The hyper-parameters.
    pub fn config(&self) -> &SupaConfig {
        &self.cfg
    }

    /// The ablation variant.
    pub fn variant(&self) -> &SupaVariant {
        &self.variant
    }

    /// Immutable access to the learnable state.
    pub fn state(&self) -> &SupaState {
        &self.state
    }

    /// Mutable state access for white-box tests.
    #[doc(hidden)]
    pub fn state_mut_for_tests(&mut self) -> &mut SupaState {
        &mut self.state
    }

    /// Snapshot the full learnable state (InsLearn `Φ_best ← Φ`).
    pub fn snapshot(&self) -> SupaState {
        self.state.clone()
    }

    /// Restore a snapshot (InsLearn `Φ ← Φ_best`).
    pub fn restore(&mut self, s: SupaState) {
        self.state = s;
    }

    /// Starts recording the node ids touched by training updates (see
    /// [`Supa::take_touched`]). Idempotent; keeps an existing log.
    pub fn enable_touch_tracking(&mut self) {
        if self.touch_log.is_none() {
            self.touch_log = Some(Vec::new());
        }
    }

    /// Drains the touch log: the sorted, deduplicated node ids whose
    /// embedding rows received a gradient since the last drain.
    ///
    /// The log is a *superset* of the rows that ended up changed: InsLearn's
    /// best-model rollback can revert an update, but only of rows that were
    /// themselves logged, so invalidating every logged row is always sound
    /// for a serving cache. Empty (and free) unless
    /// [`Supa::enable_touch_tracking`] was called.
    pub fn take_touched(&mut self) -> Vec<u32> {
        match &mut self.touch_log {
            Some(log) => {
                let mut t = std::mem::take(log);
                t.sort_unstable();
                t.dedup();
                t
            }
            None => Vec::new(),
        }
    }

    /// The active time scale divisor.
    pub fn time_scale(&self) -> f64 {
        self.time_scale
    }

    /// Resolves the time scale: explicit config wins, otherwise
    /// `max_time/100` so typical intervals land where `g(·)` has slope.
    pub fn resolve_time_scale(&mut self, g: &Dmhg) {
        self.time_scale = if self.cfg.time_scale > 0.0 {
            self.cfg.time_scale
        } else {
            (g.max_time() / 100.0).max(1e-9)
        };
    }

    /// Grows the embedding tables to cover `n_nodes` (streaming growth).
    pub fn ensure_capacity(&mut self, n_nodes: usize) {
        self.state.h_long.ensure_len(n_nodes, &mut self.rng);
        self.state.h_short.ensure_len(n_nodes, &mut self.rng);
        for t in &mut self.state.ctx {
            t.ensure_len(n_nodes, &mut self.rng);
        }
    }

    /// Sets the gradient fan-out of [`Supa::train_pass`] (and hence InsLearn
    /// and the serving writer). Together with [`Supa::set_shards`] it also
    /// selects the digest regime, from configuration alone: `workers = 1`
    /// and `shards = 1` train serially, bit-identical to a
    /// [`Supa::train_edge`] loop; `workers ≥ 2` or `shards ≥ 2` freeze the
    /// `α` drift scalars per conflict-free wave and give one deterministic
    /// result for every such setting on every host — the core count only
    /// caps how many threads are spawned. `0` resolves to the machine's
    /// available parallelism *here*, so it is the one setting whose regime
    /// depends on the host (serial on a single core).
    pub fn set_workers(&mut self, workers: usize) {
        self.workers = supa_par::effective_workers(workers).max(1);
    }

    /// Builder-style [`Supa::set_workers`].
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.set_workers(workers);
        self
    }

    /// The configured training worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Tells the trainer how many shards the serving engine runs. The
    /// trainer itself is one sequential update stream — sharding partitions
    /// guards, caches, metrics and ANN maintenance, not training — so the
    /// count only matters as `≥ 2`: it selects the wave-frozen regime and
    /// requests that much gradient fan-out, exactly like `workers ≥ 2` (see
    /// [`Supa::set_workers`]); every shard count `≥ 2` therefore yields the
    /// same bits as every worker count `≥ 2`. `0` is read as `1`.
    pub fn set_shards(&mut self, shards: usize) {
        self.shards = shards.max(1);
    }

    /// Builder-style [`Supa::set_shards`].
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.set_shards(shards);
        self
    }

    /// The configured training shard count.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Relative total-degree drift above which a per-type negative sampler
    /// is considered stale and rebuilt by `refresh_negative_samplers`. The
    /// sampling weights are `deg^{0.75}`, so a 25 % mass shift bounds the
    /// per-node weight error well inside the noise of negative sampling.
    const SAMPLER_REFRESH_REL_DELTA: f64 = 0.25;

    /// Rebuilds the per-type `deg^{0.75}` negative samplers from the current
    /// graph, unconditionally.
    pub fn rebuild_negative_samplers(&mut self, g: &Dmhg) {
        for ty in 0..self.num_node_types {
            self.rebuild_sampler_for_type(g, ty);
        }
    }

    /// Rebuilds negative samplers *incrementally*: a type's alias table is
    /// reconstructed only when it is missing, its node population changed,
    /// or its total degree drifted by more than
    /// [`Self::SAMPLER_REFRESH_REL_DELTA`] relatively since the last build.
    /// The gate itself is a cheap O(nodes) sum — the saving is skipping the
    /// alias-table construction on the per-chunk hot path of InsLearn.
    pub fn refresh_negative_samplers(&mut self, g: &Dmhg) {
        for ty in 0..self.num_node_types {
            let nodes = g.nodes_of_type(supa_graph::NodeTypeId(ty as u16));
            if nodes.is_empty() {
                self.neg_samplers[ty] = None;
                self.sampler_stats[ty] = (0, 0.0);
                continue;
            }
            let (last_n, last_deg) = self.sampler_stats[ty];
            let stale = self.neg_samplers[ty].is_none() || nodes.len() != last_n || {
                let total_deg: f64 = nodes.iter().map(|&n| g.degree(n) as f64).sum();
                (total_deg - last_deg).abs() > Self::SAMPLER_REFRESH_REL_DELTA * last_deg.max(1.0)
            };
            if stale {
                self.rebuild_sampler_for_type(g, ty);
            }
        }
    }

    /// Rebuilds one type's sampler and records its refresh-gate statistics.
    fn rebuild_sampler_for_type(&mut self, g: &Dmhg, ty: usize) {
        let nodes = g.nodes_of_type(supa_graph::NodeTypeId(ty as u16));
        if nodes.is_empty() {
            self.neg_samplers[ty] = None;
            self.sampler_stats[ty] = (0, 0.0);
            return;
        }
        let ids: Vec<u32> = nodes.iter().map(|n| n.0).collect();
        let degs: Vec<f64> = nodes.iter().map(|&n| g.degree(n) as f64).collect();
        self.sampler_stats[ty] = (nodes.len(), degs.iter().sum());
        self.neg_samplers[ty] = Some(NegativeSampler::new(ids, &degs, self.cfg.neg_power));
    }

    /// Index into the context tables for relation `r` (shared-context aware).
    #[inline]
    pub(crate) fn ctx_idx(&self, r: RelationId) -> usize {
        if self.variant.shared_context {
            0
        } else {
            r.index()
        }
    }

    /// Index into `alpha` for node type `ty` (shared-alpha aware).
    #[inline]
    pub(crate) fn alpha_idx(&self, ty_index: usize) -> usize {
        if self.variant.shared_alpha {
            0
        } else {
            ty_index
        }
    }

    /// Computes Eq. 5 for one node at event time `t` against graph `g`,
    /// writing `h*` into the caller's reusable buffer (no allocation once
    /// the buffer has `dim` capacity).
    ///
    /// `Δ_V` is read from the graph: the time since the node's latest
    /// interaction strictly before `t` (or since stream start for fresh
    /// nodes), divided by the time scale.
    pub(crate) fn target_parts_into(
        &self,
        g: &Dmhg,
        node: NodeId,
        t: Timestamp,
        hstar: &mut Vec<f32>,
    ) -> TargetMeta {
        let ty = g.node_type(node).index();
        let alpha_idx = self.alpha_idx(ty);
        let last = g
            .neighbors_before(node, t)
            .last()
            .map(|n| n.time)
            .unwrap_or(0.0);
        let delta = ((t - last) / self.time_scale).max(0.0);
        let hl = self.state.h_long.row(node.index());
        hstar.clear();
        if self.variant.no_forget {
            hstar.extend_from_slice(hl);
            return TargetMeta {
                forget: 0.0,
                x: 0.0,
                delta,
                alpha_idx,
            };
        }
        let x = sigmoid(self.state.alpha[alpha_idx].value) * delta;
        let forget = g_decay(x);
        let hs = self.state.h_short.row(node.index());
        hstar.extend(hl.iter().zip(hs).map(|(&l, &s)| l + s * forget as f32));
        TargetMeta {
            forget,
            x,
            delta,
            alpha_idx,
        }
    }

    /// Allocating convenience form of [`Supa::target_parts_into`].
    #[cfg(test)]
    pub(crate) fn target_parts(&self, g: &Dmhg, node: NodeId, t: Timestamp) -> TargetParts {
        let mut hstar = Vec::new();
        let meta = self.target_parts_into(g, node, t, &mut hstar);
        TargetParts {
            hstar,
            forget: meta.forget,
            delta: meta.delta,
        }
    }

    /// The readout embedding of Eq. 14: `h_v^r = ½(h^L + h^S + c^r)`
    /// (without the short-term memory under `no_forget`).
    pub fn final_embedding(&self, node: NodeId, r: RelationId) -> Vec<f32> {
        let i = node.index();
        let hl = self.state.h_long.row(i);
        let c = self.state.ctx[self.ctx_idx(r)].row(i);
        if self.variant.no_forget {
            hl.iter().zip(c).map(|(&l, &cc)| 0.5 * (l + cc)).collect()
        } else {
            let hs = self.state.h_short.row(i);
            hl.iter()
                .zip(hs)
                .zip(c)
                .map(|((&l, &s), &cc)| 0.5 * (l + s + cc))
                .collect()
        }
    }

    /// Eq. 15: `γ(u, v, r) = h_u^rᵀ h_v^r`, fused (no allocation).
    pub fn gamma(&self, u: NodeId, v: NodeId, r: RelationId) -> f32 {
        let (ui, vi) = (u.index(), v.index());
        let cidx = self.ctx_idx(r);
        let (hl_u, hl_v) = (self.state.h_long.row(ui), self.state.h_long.row(vi));
        let (c_u, c_v) = (self.state.ctx[cidx].row(ui), self.state.ctx[cidx].row(vi));
        let mut s = 0.0f32;
        if self.variant.no_forget {
            for k in 0..hl_u.len() {
                s += (hl_u[k] + c_u[k]) * (hl_v[k] + c_v[k]);
            }
        } else {
            let (hs_u, hs_v) = (self.state.h_short.row(ui), self.state.h_short.row(vi));
            for k in 0..hl_u.len() {
                s += (hl_u[k] + hs_u[k] + c_u[k]) * (hl_v[k] + hs_v[k] + c_v[k]);
            }
        }
        0.25 * s
    }

    /// Top-K recommendation excluding items the user has already interacted
    /// with (the standard serving filter).
    pub fn top_k_unseen(
        &self,
        g: &Dmhg,
        u: NodeId,
        candidates: &[NodeId],
        r: RelationId,
        k: usize,
    ) -> Vec<(NodeId, f32)> {
        let seen: std::collections::HashSet<NodeId> =
            g.neighbors(u).iter().map(|n| n.node).collect();
        let mut scored: Vec<(NodeId, f32)> = candidates
            .iter()
            .filter(|v| !seen.contains(v))
            .map(|&v| (v, self.gamma(u, v, r)))
            .collect();
        scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        scored.truncate(k);
        scored
    }

    /// Top-K recommendation: the K candidates with the highest `γ(u, ·, r)`.
    pub fn top_k(
        &self,
        u: NodeId,
        candidates: &[NodeId],
        r: RelationId,
        k: usize,
    ) -> Vec<(NodeId, f32)> {
        let mut scored: Vec<(NodeId, f32)> = candidates
            .iter()
            .map(|&v| (v, self.gamma(u, v, r)))
            .collect();
        scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        scored.truncate(k);
        scored
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use supa_datasets::taobao;

    fn model() -> (Supa, Dataset) {
        let d = taobao(0.02, 3);
        let m = Supa::from_dataset(&d, SupaConfig::small(), 3).unwrap();
        (m, d)
    }

    #[test]
    fn construction_sizes_state_correctly() {
        let (m, d) = model();
        assert_eq!(m.state().h_long.len(), d.num_nodes());
        assert_eq!(m.state().ctx.len(), 4, "one context table per relation");
        assert_eq!(m.state().alpha.len(), 2, "one α per node type");
        assert_eq!(m.display_name(), "SUPA");
    }

    #[test]
    fn shared_variants_collapse_tables() {
        let d = taobao(0.02, 3);
        let m = Supa::from_dataset_variant(&d, SupaConfig::small(), SupaVariant::s(), 3).unwrap();
        assert_eq!(m.state().ctx.len(), 1);
        assert_eq!(m.state().alpha.len(), 1);
        assert_eq!(m.ctx_idx(RelationId(3)), 0);
        assert_eq!(m.alpha_idx(1), 0);
    }

    #[test]
    fn adam_scalar_descends() {
        let mut a = AdamScalar::new(2.0);
        for _ in 0..300 {
            a.step(2.0 * a.value, 0.05); // d/dα α² = 2α
        }
        assert!(a.value.abs() < 0.05, "α = {}", a.value);
    }

    #[test]
    fn gamma_matches_final_embedding_dot() {
        let (m, d) = model();
        let schema = d.prototype.schema();
        let user_ty = schema.node_type_by_name("User").unwrap();
        let item_ty = schema.node_type_by_name("Item").unwrap();
        let u = d.prototype.nodes_of_type(user_ty)[0];
        let v = d.prototype.nodes_of_type(item_ty)[0];
        let r = RelationId(0);
        let eu = m.final_embedding(u, r);
        let ev = m.final_embedding(v, r);
        let want: f32 = eu.iter().zip(&ev).map(|(a, b)| a * b).sum();
        assert!((m.gamma(u, v, r) - want).abs() < 1e-5);
    }

    #[test]
    fn target_parts_forget_more_after_longer_gaps() {
        let (mut m, d) = model();
        let g = d.full_graph();
        m.resolve_time_scale(&g);
        let schema = d.prototype.schema();
        let user_ty = schema.node_type_by_name("User").unwrap();
        // Find an active user.
        let u = *g
            .nodes_of_type(user_ty)
            .iter()
            .find(|&&u| g.degree(u) > 2)
            .unwrap();
        let t_last = g.last_interaction_time(u).unwrap();
        let soon = m.target_parts(&g, u, t_last + 1.0);
        let late = m.target_parts(&g, u, t_last + 1e6);
        assert!(soon.forget > late.forget);
        assert!(late.delta > soon.delta);
    }

    #[test]
    fn no_forget_variant_drops_short_term() {
        let d = taobao(0.02, 3);
        let m = Supa::from_dataset_variant(&d, SupaConfig::small(), SupaVariant::nf(), 3).unwrap();
        let g = d.full_graph();
        let u = NodeId(0);
        let parts = m.target_parts(&g, u, g.max_time() + 1.0);
        assert_eq!(parts.hstar, m.state().h_long.row(0));
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let (mut m, _) = model();
        let snap = m.snapshot();
        // Mutate state.
        m.state.h_long.row_mut(0)[0] += 1.0;
        m.state.alpha[0].step(1.0, 0.1);
        assert_ne!(m.state.h_long.row(0)[0], snap.h_long.row(0)[0]);
        m.restore(snap.clone());
        assert_eq!(m.state.h_long.row(0)[0], snap.h_long.row(0)[0]);
        assert_eq!(m.state.alpha[0], snap.alpha[0]);
    }

    #[test]
    fn top_k_orders_by_gamma() {
        let (m, d) = model();
        let schema = d.prototype.schema();
        let item_ty = schema.node_type_by_name("Item").unwrap();
        let items = d.prototype.nodes_of_type(item_ty);
        let u = NodeId(0);
        let top = m.top_k(u, items, RelationId(0), 5);
        assert_eq!(top.len(), 5);
        for w in top.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
        // Top-1 really is the max.
        let best = items
            .iter()
            .map(|&v| m.gamma(u, v, RelationId(0)))
            .fold(f32::NEG_INFINITY, f32::max);
        assert_eq!(top[0].1, best);
    }

    #[test]
    fn top_k_unseen_filters_history() {
        let (m, d) = model();
        let g = d.full_graph();
        let schema = d.prototype.schema();
        let item_ty = schema.node_type_by_name("Item").unwrap();
        let items = d.prototype.nodes_of_type(item_ty);
        // Pick an active user.
        let user_ty = schema.node_type_by_name("User").unwrap();
        let u = *g
            .nodes_of_type(user_ty)
            .iter()
            .find(|&&u| g.degree(u) > 3)
            .unwrap();
        let seen: std::collections::HashSet<_> = g.neighbors(u).iter().map(|n| n.node).collect();
        let recs = m.top_k_unseen(&g, u, items, RelationId(0), 20);
        assert!(!recs.is_empty());
        for (v, _) in &recs {
            assert!(!seen.contains(v), "recommended an already-seen item");
        }
    }

    #[test]
    fn time_scale_resolution() {
        let (mut m, d) = model();
        let g = d.full_graph();
        m.resolve_time_scale(&g);
        assert!((m.time_scale() - g.max_time() / 100.0).abs() < 1e-9);
        // Explicit scale wins.
        let mut cfg = SupaConfig::small();
        cfg.time_scale = 7.0;
        let mut m2 = Supa::from_dataset(&d, cfg, 3).unwrap();
        m2.resolve_time_scale(&g);
        assert_eq!(m2.time_scale(), 7.0);
    }

    #[test]
    fn sampler_refresh_gates_on_degree_drift_and_matches_full_rebuild() {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let d = taobao(0.05, 7);
        let half = d.edges.len() / 2;
        let mut g = d.prototype.clone();
        for e in &d.edges[..half] {
            g.add_edge(e.src, e.dst, e.relation, e.time).unwrap();
        }
        let mut m = Supa::from_dataset(&d, SupaConfig::small(), 3).unwrap();
        m.refresh_negative_samplers(&g); // first call always builds
        assert!(m.neg_samplers.iter().any(Option::is_some));
        let stats_after_build = m.sampler_stats.clone();

        // Tiny drift (one edge ≪ the 25 % gate): the refresh must skip the
        // rebuild, leaving the recorded build statistics untouched.
        let mut g2 = g.clone();
        let e = &d.edges[half];
        g2.add_edge(e.src, e.dst, e.relation, e.time).unwrap();
        m.refresh_negative_samplers(&g2);
        assert_eq!(
            m.sampler_stats, stats_after_build,
            "a one-edge drift must not trigger a rebuild"
        );

        // Large drift (total degree doubles): the refresh rebuilds, and the
        // refreshed samplers draw the exact same negative sequence as an
        // unconditional full rebuild — the distributions match.
        let g_full = d.full_graph();
        m.refresh_negative_samplers(&g_full);
        assert_ne!(m.sampler_stats, stats_after_build);
        let mut fresh = Supa::from_dataset(&d, SupaConfig::small(), 3).unwrap();
        fresh.rebuild_negative_samplers(&g_full);
        for ty in 0..m.num_node_types {
            match (&m.neg_samplers[ty], &fresh.neg_samplers[ty]) {
                (Some(a), Some(b)) => {
                    let mut ra = SmallRng::seed_from_u64(42);
                    let mut rb = SmallRng::seed_from_u64(42);
                    let (mut oa, mut ob) = (Vec::new(), Vec::new());
                    a.sample_many(500, u32::MAX, &mut ra, &mut oa);
                    b.sample_many(500, u32::MAX, &mut rb, &mut ob);
                    assert_eq!(oa, ob, "type {ty}");
                }
                (None, None) => {}
                _ => panic!("sampler presence mismatch for type {ty}"),
            }
        }
    }

    #[test]
    fn ensure_capacity_grows_all_tables() {
        let (mut m, d) = model();
        let n = d.num_nodes();
        m.ensure_capacity(n + 10);
        assert_eq!(m.state().h_long.len(), n + 10);
        assert_eq!(m.state().h_short.len(), n + 10);
        for t in &m.state().ctx {
            assert_eq!(t.len(), n + 10);
        }
    }
}
