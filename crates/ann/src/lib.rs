//! # supa-ann — deterministic incremental ANN retrieval for SUPA serving
//!
//! A hierarchical navigable-small-world (HNSW-style) index over item
//! embedding vectors, specialised for the serving path of this workspace:
//!
//! - **Inner-product similarity.** SUPA's Eq. 15 readout is
//!   `γ(u, v, r) = 0.25 · ⟨e_u, e_v⟩` over per-relation *composite* vectors
//!   (`h_long + h_short + ctx_r`), so maximum-inner-product search over the
//!   composite item vectors ranks exactly like γ. The index returns
//!   *candidates only*; callers re-score them exactly, so any returned
//!   score is bit-identical to the brute-force path.
//! - **Determinism.** Layer assignment is a pure function of
//!   `(seed, external id)` — independent of insertion order — and every
//!   traversal breaks score ties by ascending id using [`f32::total_cmp`].
//!   Two indexes built by the same operation sequence are structurally
//!   identical, and [`HnswIndex::search_into`] is a pure function of the
//!   index state. [`HnswIndex::fingerprint`] digests the full structure so
//!   tests can pin bit-determinism.
//! - **Incremental updates.** [`HnswIndex::update`] re-links a single dirty
//!   node in `O(ef_construction · log n)` — the serving engine refreshes
//!   only the items touched by a training chunk between epochs instead of
//!   rebuilding the index. A row whose bits equal the stored row is left
//!   alone: no unlink, no hole repair, no re-link. Most of a chunk's touched
//!   items moved only in rows the index does not store, so a refresh costs
//!   in proportion to the vectors that actually moved.
//! - **Symmetric links.** Neighbor lists are kept bidirectional (a prune
//!   that drops `a → b` also drops `b → a`), which makes unlinking a dirty
//!   node exact: its neighbors are the only nodes pointing back at it.
//! - **Flat link storage.** Every neighbor list lives in a fixed-width run
//!   of one of two flat arrays (layer 0, and the layers above it), so
//!   cloning an index — what each published serving epoch does — is a
//!   handful of `memcpy`s, and dropping one is a handful of frees.
//!
//! Vectors are plain `&[f32]` rows. The crate's two dependencies are the
//! workspace's byte codec (`supa_embed::codec`), which every persisted
//! index goes through, and `supa_rng::SplitMix64`, the layer-assignment
//! hash.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use supa_embed::codec::{put_f32s, put_u32, put_u32s, put_u64, Reader, Truncated};
use supa_rng::SplitMix64;

#[cfg(test)]
mod golden;

/// Hard cap on layer height; with per-layer probability `1/m ≤ 1/2`, sixteen
/// layers cover indexes far beyond any catalog this workspace serves.
const MAX_LEVEL: usize = 16;

/// Cap on [`AnnConfig::m`]. Every node owns a full-width run of
/// `2m + PRUNE_SLACK + 1` layer-0 links, so the bound keeps a header's `m`
/// from sizing the link arena far beyond the data behind it; graph indexes
/// use m in the tens.
const MAX_M: usize = 1 << 10;

/// Construction/search knobs for [`HnswIndex`].
#[derive(Debug, Clone, PartialEq)]
pub struct AnnConfig {
    /// Max neighbors per node on layers ≥ 1 (layer 0 keeps `2m`); between
    /// 2 and 1024.
    pub m: usize,
    /// Beam width while linking a node (higher = better graphs, slower
    /// inserts).
    pub ef_construction: usize,
    /// Seed for the per-id layer assignment.
    pub seed: u64,
}

impl Default for AnnConfig {
    fn default() -> Self {
        AnnConfig {
            m: 16,
            ef_construction: 128,
            seed: 7,
        }
    }
}

/// How far a neighbor list may overflow its cap before the diversity
/// reselection in [`HnswIndex::prune`] runs. Reselection costs O(cap²)
/// dot products; triggering it on every single-link overflow (one per
/// backlink of every insert) would dominate insert/update time. Letting the
/// list run `PRUNE_SLACK` entries hot amortises that cost ~8× at the price
/// of slightly longer neighbor scans, and every list still prunes back down
/// to its cap.
const PRUNE_SLACK: usize = 8;

/// Neighbor lists of one kind of layer (layer 0, or every layer above it)
/// in one flat array of fixed-width runs, plus a length column. A run holds
/// `cap + PRUNE_SLACK + 1` entries: a list rests at no more than
/// `cap + PRUNE_SLACK` (a node being linked starts empty, since nothing
/// reaches it before it is linked, and picks at most `cap`; hole repair
/// fills only below `cap`), and the `+ 1` is the one backlink
/// [`HnswIndex::link_with`] pushes before [`HnswIndex::prune`] trims it.
/// Entries past a run's length are always zero, so two arenas holding the
/// same lists are equal array for array.
#[derive(Debug, PartialEq)]
struct Runs {
    stride: usize,
    links: Vec<u32>,
    len: Vec<u32>,
}

impl Runs {
    fn new(cap: usize) -> Runs {
        Runs {
            stride: cap + PRUNE_SLACK + 1,
            links: Vec::new(),
            len: Vec::new(),
        }
    }

    /// Appends an empty run.
    fn add(&mut self) {
        self.links.resize(self.links.len() + self.stride, 0);
        self.len.push(0);
    }

    fn get(&self, run: usize) -> &[u32] {
        let at = run * self.stride;
        &self.links[at..at + self.len[run] as usize]
    }

    fn push(&mut self, run: usize, slot: u32) {
        let n = self.len[run] as usize;
        assert!(n < self.stride, "neighbor list overflows its run");
        self.links[run * self.stride + n] = slot;
        self.len[run] += 1;
    }

    /// Replaces the list with `list`, zeroing the vacated tail.
    fn set(&mut self, run: usize, list: &[u32]) {
        assert!(list.len() <= self.stride, "neighbor list overflows its run");
        let at = run * self.stride;
        let old = self.len[run] as usize;
        self.links[at..at + list.len()].copy_from_slice(list);
        if old > list.len() {
            self.links[at + list.len()..at + old].fill(0);
        }
        self.len[run] = list.len() as u32;
    }

    /// Removes every `slot` from the list, order kept.
    fn remove(&mut self, run: usize, slot: u32) {
        let at = run * self.stride;
        let list = &mut self.links[at..at + self.len[run] as usize];
        let mut kept = 0;
        for i in 0..list.len() {
            let n = list[i];
            if n != slot {
                list[kept] = n;
                kept += 1;
            }
        }
        list[kept..].fill(0);
        self.len[run] = kept as u32;
    }

    fn bytes(&self) -> usize {
        (self.links.len() + self.len.len()) * 4
    }
}

impl Clone for Runs {
    fn clone(&self) -> Runs {
        Runs {
            stride: self.stride,
            links: self.links.clone(),
            len: self.len.clone(),
        }
    }

    fn clone_from(&mut self, src: &Runs) {
        self.stride = src.stride;
        self.links.clone_from(&src.links);
        self.len.clone_from(&src.len);
    }
}

/// Every neighbor list of an index, kept symmetric. `runs[0]` holds layer
/// 0, one run per slot at index `slot`; `runs[1]` holds every layer above
/// it, slot `s`'s layer `l ≥ 1` at run `upper_at[s] + l - 1` (a node's
/// upper runs are consecutive). Runs are allocated in slot order, so an
/// index and its decoded copy are equal.
#[derive(Debug, PartialEq)]
struct LinkArena {
    runs: [Runs; 2],
    /// Per slot, where its upper runs start in `runs[1]` (it has `level`).
    upper_at: Vec<u32>,
}

impl LinkArena {
    fn new(m: usize) -> LinkArena {
        LinkArena {
            runs: [Runs::new(m * 2), Runs::new(m)],
            upper_at: Vec::new(),
        }
    }

    /// Room for `n` more slots' layer-0 runs.
    fn reserve(&mut self, n: usize) {
        let base = &mut self.runs[0];
        base.links.reserve_exact(n * base.stride);
        base.len.reserve_exact(n);
        self.upper_at.reserve_exact(n);
    }

    /// Allocates the empty lists of a new slot on layers `0..=level`.
    fn add_slot(&mut self, level: usize) {
        self.runs[0].add();
        self.upper_at.push(self.runs[1].len.len() as u32);
        for _ in 0..level {
            self.runs[1].add();
        }
    }

    /// Which array holds `(slot, layer)`, and at which run.
    #[inline]
    fn locate(&self, slot: u32, layer: usize) -> (usize, usize) {
        if layer == 0 {
            (0, slot as usize)
        } else {
            (1, self.upper_at[slot as usize] as usize + layer - 1)
        }
    }

    /// The run width of `layer`.
    fn stride(&self, layer: usize) -> usize {
        self.runs[layer.min(1)].stride
    }

    #[inline]
    fn get(&self, slot: u32, layer: usize) -> &[u32] {
        let (kind, run) = self.locate(slot, layer);
        self.runs[kind].get(run)
    }

    fn push(&mut self, slot: u32, layer: usize, n: u32) {
        let (kind, run) = self.locate(slot, layer);
        self.runs[kind].push(run, n);
    }

    fn set(&mut self, slot: u32, layer: usize, list: &[u32]) {
        let (kind, run) = self.locate(slot, layer);
        self.runs[kind].set(run, list);
    }

    fn remove(&mut self, slot: u32, layer: usize, n: u32) {
        let (kind, run) = self.locate(slot, layer);
        self.runs[kind].remove(run, n);
    }

    /// Takes `slot`'s list on `layer` out, leaving it empty.
    fn take(&mut self, slot: u32, layer: usize) -> Vec<u32> {
        let list = self.get(slot, layer).to_vec();
        self.set(slot, layer, &[]);
        list
    }

    fn bytes(&self) -> usize {
        self.runs[0].bytes() + self.runs[1].bytes() + self.upper_at.len() * 4
    }
}

impl Clone for LinkArena {
    fn clone(&self) -> LinkArena {
        LinkArena {
            runs: self.runs.clone(),
            upper_at: self.upper_at.clone(),
        }
    }

    fn clone_from(&mut self, src: &LinkArena) {
        self.runs.clone_from(&src.runs);
        self.upper_at.clone_from(&src.upper_at);
    }
}

/// Whether two rows hold the same bits (so `-0.0` and `0.0` differ).
fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

#[inline]
fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut s = 0.0f32;
    for k in 0..a.len() {
        s += a[k] * b[k];
    }
    s
}

/// A `(score, slot)` pair with the total, deterministic ordering used
/// everywhere in the index: higher score first, ties broken by *ascending*
/// slot. `Ord::max` on two distinct hits is therefore unambiguous even for
/// equal scores, and NaN orders below every real score via `total_cmp`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Hit {
    score: f32,
    slot: u32,
}

impl Eq for Hit {}

impl Ord for Hit {
    fn cmp(&self, other: &Self) -> Ordering {
        self.score
            .total_cmp(&other.score)
            .then_with(|| other.slot.cmp(&self.slot))
    }
}

impl PartialOrd for Hit {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Reusable buffers for [`HnswIndex::search_into`]. Once warm, a search
/// allocates nothing; serving readers keep one per thread.
#[derive(Debug, Default)]
pub struct SearchScratch {
    /// Expansion frontier (max-heap: best candidate first).
    cand: BinaryHeap<Hit>,
    /// Current best set (min-heap via `Reverse`: worst kept hit on top).
    best: BinaryHeap<std::cmp::Reverse<Hit>>,
    /// Per-slot visited stamps (`stamp` marks this search's generation).
    visited: Vec<u32>,
    stamp: u32,
    /// Result ids, best first.
    out: Vec<u32>,
    /// Entry points carried between layers during insert.
    entries: Vec<u32>,
}

impl SearchScratch {
    fn begin(&mut self, slots: usize) {
        self.cand.clear();
        self.best.clear();
        if self.visited.len() < slots {
            self.visited.resize(slots, 0);
        }
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            // u32 wrap: stale stamps could collide, so reset the marks.
            self.visited.iter_mut().for_each(|v| *v = 0);
            self.stamp = 1;
        }
    }

    #[inline]
    fn visit(&mut self, slot: u32) -> bool {
        let seen = self.visited[slot as usize] == self.stamp;
        self.visited[slot as usize] = self.stamp;
        !seen
    }
}

/// A deterministic, incrementally-updatable HNSW index over inner-product
/// similarity. External ids are `u32` (the workspace's node ids).
///
/// `clone_from` copies into the target's existing buffers, so refreshing a
/// retired copy of an index of the same size allocates nothing.
#[derive(Debug, PartialEq)]
pub struct HnswIndex {
    cfg: AnnConfig,
    dim: usize,
    /// External id per slot (slots are never freed; `update` reuses them).
    ids: Vec<u32>,
    /// Layer height per slot (a node exists on layers `0..=levels[slot]`).
    levels: Vec<u8>,
    /// Row-major vectors, one `dim`-row per slot.
    vectors: Vec<f32>,
    /// Neighbor slots per `(slot, layer)`, kept symmetric.
    links: LinkArena,
    /// External id → slot.
    slot_of: std::collections::HashMap<u32, u32>,
    /// Slot of the current top entry point (the highest-level node).
    entry: Option<u32>,
}

impl Clone for HnswIndex {
    fn clone(&self) -> HnswIndex {
        HnswIndex {
            cfg: self.cfg.clone(),
            dim: self.dim,
            ids: self.ids.clone(),
            levels: self.levels.clone(),
            vectors: self.vectors.clone(),
            links: self.links.clone(),
            slot_of: self.slot_of.clone(),
            entry: self.entry,
        }
    }

    fn clone_from(&mut self, src: &HnswIndex) {
        self.cfg.clone_from(&src.cfg);
        self.dim = src.dim;
        self.ids.clone_from(&src.ids);
        self.levels.clone_from(&src.levels);
        self.vectors.clone_from(&src.vectors);
        self.links.clone_from(&src.links);
        self.slot_of.clone_from(&src.slot_of);
        self.entry = src.entry;
    }
}

impl HnswIndex {
    /// An empty index over `dim`-dimensional vectors.
    pub fn new(dim: usize, cfg: AnnConfig) -> Self {
        assert!(dim > 0, "vector dimension must be positive");
        assert!((2..=MAX_M).contains(&cfg.m), "m must be in 2..=1024");
        assert!(cfg.ef_construction >= 1, "ef_construction must be positive");
        HnswIndex {
            links: LinkArena::new(cfg.m),
            cfg,
            dim,
            ids: Vec::new(),
            levels: Vec::new(),
            vectors: Vec::new(),
            slot_of: std::collections::HashMap::new(),
            entry: None,
        }
    }

    /// An empty index with room for `n` items, so inserting them allocates
    /// no larger buffer and leaves no smaller one behind.
    pub fn with_capacity(dim: usize, cfg: AnnConfig, n: usize) -> Self {
        let mut idx = HnswIndex::new(dim, cfg);
        idx.ids.reserve_exact(n);
        idx.levels.reserve_exact(n);
        idx.vectors.reserve_exact(n * dim);
        idx.links.reserve(n);
        idx.slot_of.reserve(n);
        idx
    }

    /// Number of indexed items.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the index holds no items.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Vector dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Whether `id` is indexed.
    pub fn contains(&self, id: u32) -> bool {
        self.slot_of.contains_key(&id)
    }

    /// The layer height assigned to `id` — a pure function of
    /// `(cfg.seed, id)`, so a node keeps its level across updates and
    /// rebuilds (the determinism contract's first leg).
    pub fn level_for(&self, id: u32) -> usize {
        // SplitMix64's full 64-bit avalanche lands consecutive ids on
        // independent layer draws.
        let mut h = SplitMix64(self.cfg.seed ^ ((id as u64) << 1 | 1)).next_u64();
        let mut level = 0usize;
        while level < MAX_LEVEL && (h as usize).is_multiple_of(self.cfg.m) {
            level += 1;
            h = SplitMix64(h).next_u64();
        }
        level
    }

    #[inline]
    fn vec_of(&self, slot: u32) -> &[f32] {
        let i = slot as usize * self.dim;
        &self.vectors[i..i + self.dim]
    }

    #[inline]
    fn cap(&self, layer: usize) -> usize {
        if layer == 0 {
            self.cfg.m * 2
        } else {
            self.cfg.m
        }
    }

    /// Inserts `id` with `vector`, or re-links it in place if already
    /// present (then identical to [`HnswIndex::update`]).
    pub fn insert(&mut self, id: u32, vector: &[f32]) {
        assert_eq!(vector.len(), self.dim, "vector dimension mismatch");
        if let Some(&slot) = self.slot_of.get(&id) {
            if same_bits(self.vec_of(slot), vector) {
                return;
            }
            self.unlink(slot);
            let i = slot as usize * self.dim;
            self.vectors[i..i + self.dim].copy_from_slice(vector);
            self.link(slot);
            return;
        }
        let slot = self.ids.len() as u32;
        let level = self.level_for(id);
        self.ids.push(id);
        self.levels.push(level as u8);
        self.vectors.extend_from_slice(vector);
        self.links.add_slot(level);
        self.slot_of.insert(id, slot);
        self.link(slot);
    }

    /// Replaces `id`'s vector and repairs its links — the dirty-node refresh
    /// the serving engine runs between epochs. Inserts if absent; a no-op
    /// when `vector` is bit-identical to the stored row.
    pub fn update(&mut self, id: u32, vector: &[f32]) {
        self.insert(id, vector);
    }

    /// Batched dirty-set refresh: updates every `(ids[j], vectors[j·dim..])`
    /// pair in one graph-repair pass. `ids` must be strictly ascending
    /// (sorted and deduplicated — the serving engine's touched-set order);
    /// `vectors` is row-major with one `dim` row per id. Absent ids are
    /// inserted. Returns how many ids were linked: the inserted ones plus
    /// those whose row moved.
    ///
    /// A present id whose row is bit-identical to the stored one (compared
    /// by `to_bits`, so `-0.0` against `0.0` counts as moved) is dropped
    /// from the batch before anything else happens: no unlink, no hole
    /// repair, no re-link. The serving engine stages every item a training
    /// chunk touched, and most of them moved only in rows the index does
    /// not store; a batch mixing such rows with moved ones therefore equals
    /// the batch of its moved rows alone. The other ids go through the
    /// repair pass. Compared to calling [`HnswIndex::update`] per id, the
    /// batch:
    ///
    /// 1. **Unlinks the whole touched set first** (symmetric removals only),
    ///    recording hole-repair work instead of running it inline;
    /// 2. **Amortises hole repair** — orphans that are themselves in the
    ///    touched set are skipped entirely (their re-link rebuilds their
    ///    lists anyway), and each surviving orphan is patched once against
    ///    the post-removal graph;
    /// 3. **Re-links with one shared beam scratch** in ascending-id order,
    ///    so the per-update allocation of frontier/visited buffers is paid
    ///    once per epoch, not once per touched node.
    ///
    /// A batch of one is bit-identical to a serial [`HnswIndex::update`] of
    /// the same id. Larger batches are deterministic (a pure function of the
    /// prior index state and the batch), but intentionally *not* structurally
    /// identical to the serial sequence: deferring repair changes which
    /// replacement links are chosen, never whether the graph stays navigable
    /// — recall parity is pinned by tests, exact structure is not.
    pub fn update_batch(&mut self, ids: &[u32], vectors: &[f32]) -> usize {
        assert_eq!(
            vectors.len(),
            ids.len() * self.dim,
            "update_batch: vectors must hold one row per id"
        );
        debug_assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "update_batch ids must be strictly ascending"
        );
        // Phase 1: allocate slots for new ids, copy every moved vector in
        // place, drop the unchanged ones.
        let mut slots: Vec<u32> = Vec::with_capacity(ids.len());
        for (j, &id) in ids.iter().enumerate() {
            let v = &vectors[j * self.dim..(j + 1) * self.dim];
            let slot = match self.slot_of.get(&id) {
                Some(&slot) => {
                    let i = slot as usize * self.dim;
                    let stored = &mut self.vectors[i..i + self.dim];
                    if same_bits(stored, v) {
                        continue;
                    }
                    stored.copy_from_slice(v);
                    slot
                }
                None => {
                    let slot = self.ids.len() as u32;
                    let level = self.level_for(id);
                    self.ids.push(id);
                    self.levels.push(level as u8);
                    self.vectors.extend_from_slice(v);
                    self.links.add_slot(level);
                    self.slot_of.insert(id, slot);
                    slot
                }
            };
            slots.push(slot);
        }
        if slots.is_empty() {
            return 0;
        }
        let mut touched = vec![false; self.ids.len()];
        for &s in &slots {
            touched[s as usize] = true;
        }
        // Phase 2: bulk unlink — symmetric removals only, repair deferred.
        struct RepairJob {
            layer: u32,
            /// Orphaned neighbors outside the touched set, in list order.
            orphans: Vec<u32>,
            /// The removed node's full neighbor list: the replacement pool.
            candidates: Vec<u32>,
        }
        let mut jobs: Vec<RepairJob> = Vec::new();
        for &slot in &slots {
            for layer in 0..=self.levels[slot as usize] as usize {
                let neighbors = self.links.take(slot, layer);
                for &n in &neighbors {
                    self.links.remove(n, layer, slot);
                }
                let orphans: Vec<u32> = neighbors
                    .iter()
                    .copied()
                    .filter(|&n| !touched[n as usize])
                    .collect();
                if !orphans.is_empty() {
                    jobs.push(RepairJob {
                        layer: layer as u32,
                        orphans,
                        candidates: neighbors,
                    });
                }
            }
        }
        // Entry fallback once for the whole batch, not per touched node.
        if let Some(e) = self.entry {
            if touched[e as usize] {
                self.entry = (0..self.ids.len())
                    .filter(|&s| !touched[s])
                    .max_by_key(|&s| (self.levels[s], std::cmp::Reverse(self.ids[s])))
                    .map(|s| s as u32);
            }
        }
        // Phase 3: deferred hole repair against the post-removal graph.
        // Deficits and partner room are evaluated now, so an orphan that
        // lost links to several touched nodes is patched once, and partners
        // inside the touched set are skipped (their re-link refills them).
        for job in &jobs {
            let layer = job.layer as usize;
            let cap = self.cap(layer);
            for &n in &job.orphans {
                let deficit = cap.saturating_sub(self.links.get(n, layer).len());
                if deficit == 0 {
                    continue;
                }
                let base = {
                    let i = n as usize * self.dim;
                    &self.vectors[i..i + self.dim]
                };
                let mut cands: Vec<Hit> = job
                    .candidates
                    .iter()
                    .filter(|&&m| {
                        m != n
                            && !touched[m as usize]
                            && self.links.get(m, layer).len() < cap
                            && !self.links.get(n, layer).contains(&m)
                    })
                    .map(|&m| Hit {
                        score: dot(base, {
                            let i = m as usize * self.dim;
                            &self.vectors[i..i + self.dim]
                        }),
                        slot: m,
                    })
                    .collect();
                cands.sort_unstable_by(|a, b| b.cmp(a));
                for h in cands.into_iter().take(deficit) {
                    self.links.push(n, layer, h.slot);
                    self.links.push(h.slot, layer, n);
                }
            }
        }
        // Phase 4: re-link in ascending-id order with one shared beam.
        let mut scratch = SearchScratch::default();
        for &slot in &slots {
            self.link_with(slot, &mut scratch);
        }
        slots.len()
    }

    /// Removes `slot` from every neighbor list pointing at it (exact, thanks
    /// to link symmetry) and clears its own lists, then repairs the holes:
    /// each orphaned neighbor whose list dropped below its cap is offered the
    /// removed node's *other* neighbors (best-scoring first) as replacement
    /// links. Without this, repeated dirty-node updates thin the lists of
    /// every node near an update site and beam recall decays epoch over
    /// epoch — the graph loses exactly the edges that made the region
    /// navigable. If `slot` was the entry point, the highest remaining node
    /// (ties: lowest id) takes over.
    fn unlink(&mut self, slot: u32) {
        for layer in 0..=self.levels[slot as usize] as usize {
            let neighbors = self.links.take(slot, layer);
            for &n in &neighbors {
                self.links.remove(n, layer, slot);
            }
            let cap = self.cap(layer);
            for &n in &neighbors {
                let deficit = cap.saturating_sub(self.links.get(n, layer).len());
                if deficit == 0 {
                    continue;
                }
                let base = {
                    let i = n as usize * self.dim;
                    &self.vectors[i..i + self.dim]
                };
                let mut cands: Vec<Hit> = neighbors
                    .iter()
                    .filter(|&&m| {
                        // Only pair with neighbors that also have room:
                        // repair must not trigger overflow pruning of its
                        // own (the prune/repair cascade dominates update
                        // cost), and a full list has no hole to patch.
                        m != n
                            && self.links.get(m, layer).len() < cap
                            && !self.links.get(n, layer).contains(&m)
                    })
                    .map(|&m| Hit {
                        score: dot(base, {
                            let i = m as usize * self.dim;
                            &self.vectors[i..i + self.dim]
                        }),
                        slot: m,
                    })
                    .collect();
                cands.sort_unstable_by(|a, b| b.cmp(a));
                for h in cands.into_iter().take(deficit) {
                    self.links.push(n, layer, h.slot);
                    self.links.push(h.slot, layer, n);
                }
            }
        }
        if self.entry == Some(slot) {
            self.entry = self
                .ids
                .iter()
                .enumerate()
                .filter(|&(s, _)| s as u32 != slot)
                .max_by_key(|&(s, _)| (self.levels[s], std::cmp::Reverse(self.ids[s])))
                .map(|(s, _)| s as u32);
        }
    }

    /// Links `slot` into the graph with a fresh scratch (single-update
    /// path). The batch path shares one scratch via
    /// [`HnswIndex::link_with`].
    fn link(&mut self, slot: u32) {
        let mut scratch = SearchScratch::default();
        self.link_with(slot, &mut scratch);
    }

    /// Links `slot` into the graph: greedy descent through layers above its
    /// level, then beam search + top-`cap` selection on each of its layers.
    /// `scratch` is only reused storage — the result is identical to linking
    /// with a fresh scratch.
    fn link_with(&mut self, slot: u32, scratch: &mut SearchScratch) {
        let level = self.levels[slot as usize] as usize;
        let Some(entry) = self.entry else {
            self.entry = Some(slot);
            return;
        };
        let entry_level = self.levels[entry as usize] as usize;
        let q = {
            // Borrow dance: the query vector aliases `self`, so copy it out
            // once (dim is small; this is an insert, not the query path).
            self.vec_of(slot).to_vec()
        };
        let mut ep = entry;
        for layer in ((level + 1)..=entry_level).rev() {
            ep = self.greedy_step(&q, ep, layer);
        }
        scratch.entries.clear();
        scratch.entries.push(ep);
        for layer in (0..=level.min(entry_level)).rev() {
            let entries = scratch.entries.clone();
            self.search_layer(&q, &entries, self.cfg.ef_construction, layer, scratch);
            // Drain best-first: the heap pops worst-first, so reverse.
            let mut found: Vec<Hit> = Vec::with_capacity(scratch.best.len());
            while let Some(std::cmp::Reverse(h)) = scratch.best.pop() {
                found.push(h);
            }
            found.reverse();
            let cap = self.cap(layer);
            let chosen = self.select_diverse(&found, slot, cap);
            for &n in &chosen {
                self.links.push(slot, layer, n);
                self.links.push(n, layer, slot);
                self.prune(n, layer);
            }
            scratch.entries.clear();
            scratch.entries.extend(chosen.iter().copied());
            if scratch.entries.is_empty() {
                scratch.entries.push(ep);
            }
        }
        if level > entry_level {
            self.entry = Some(slot);
        }
    }

    /// Neighbor-diversity selection (the HNSW paper's Algorithm 4, adapted
    /// to inner-product scores): walk `found` best-first and keep a
    /// candidate only if it scores higher against the query than against
    /// every neighbor already chosen — plain top-`cap` selection links a
    /// tight cluster to itself and leaves the region unreachable from
    /// outside. Skipped candidates backfill in score order if the diverse
    /// set comes up short of `cap`.
    fn select_diverse(&self, found: &[Hit], slot: u32, cap: usize) -> Vec<u32> {
        let mut chosen: Vec<u32> = Vec::with_capacity(cap);
        let mut skipped: Vec<u32> = Vec::new();
        for h in found {
            if h.slot == slot {
                continue;
            }
            if chosen.len() >= cap {
                break;
            }
            let diverse = chosen.iter().all(|&s| {
                dot(self.vec_of(h.slot), self.vec_of(s)).total_cmp(&h.score) == Ordering::Less
            });
            if diverse {
                chosen.push(h.slot);
            } else {
                skipped.push(h.slot);
            }
        }
        for s in skipped {
            if chosen.len() >= cap {
                break;
            }
            chosen.push(s);
        }
        chosen
    }

    /// If `slot`'s list on `layer` overflows its cap, re-select its
    /// neighbors with the same diversity heuristic the insert path uses
    /// (so overflow pruning cannot collapse a node's links back into one
    /// cluster) and symmetrically drop the rest.
    fn prune(&mut self, slot: u32, layer: usize) {
        let cap = self.cap(layer);
        if self.links.get(slot, layer).len() <= cap + PRUNE_SLACK {
            return;
        }
        let base = self.vec_of(slot);
        let mut scored: Vec<Hit> = self
            .links
            .get(slot, layer)
            .iter()
            .map(|&n| Hit {
                score: dot(base, {
                    let i = n as usize * self.dim;
                    &self.vectors[i..i + self.dim]
                }),
                slot: n,
            })
            .collect();
        scored.sort_unstable_by(|a, b| b.cmp(a));
        let keep = self.select_diverse(&scored, slot, cap);
        let dropped: Vec<u32> = scored
            .iter()
            .map(|h| h.slot)
            .filter(|s| !keep.contains(s))
            .collect();
        self.links.set(slot, layer, &keep);
        for d in dropped {
            self.links.remove(d, layer, slot);
        }
    }

    /// One layer of greedy descent: repeatedly move to the best-scoring
    /// neighbor, ties broken by ascending slot. The move target is strictly
    /// greater in `(score, ascending-id)` order, so the walk terminates.
    fn greedy_step(&self, q: &[f32], mut cur: u32, layer: usize) -> u32 {
        let mut cur_score = dot(q, self.vec_of(cur));
        loop {
            let mut moved = false;
            for &n in self.links.get(cur, layer) {
                let s = dot(q, self.vec_of(n));
                let better = match s.total_cmp(&cur_score) {
                    Ordering::Greater => true,
                    Ordering::Equal => n < cur,
                    Ordering::Less => false,
                };
                if better {
                    cur = n;
                    cur_score = s;
                    moved = true;
                }
            }
            if !moved {
                return cur;
            }
        }
    }

    /// Beam search on one layer: expands the frontier best-first, keeping
    /// the `ef` best visited nodes in `scratch.best`.
    fn search_layer(
        &self,
        q: &[f32],
        entries: &[u32],
        ef: usize,
        layer: usize,
        scratch: &mut SearchScratch,
    ) {
        scratch.begin(self.ids.len());
        for &ep in entries {
            if scratch.visit(ep) {
                let h = Hit {
                    score: dot(q, self.vec_of(ep)),
                    slot: ep,
                };
                scratch.cand.push(h);
                scratch.best.push(std::cmp::Reverse(h));
            }
        }
        while scratch.best.len() > ef {
            scratch.best.pop();
        }
        while let Some(c) = scratch.cand.pop() {
            let worst = scratch.best.peek().map(|r| r.0);
            if scratch.best.len() >= ef && worst.is_some_and(|w| c < w) {
                break;
            }
            for &n in self.links.get(c.slot, layer) {
                if !scratch.visit(n) {
                    continue;
                }
                let h = Hit {
                    score: dot(q, self.vec_of(n)),
                    slot: n,
                };
                let worst = scratch.best.peek().map(|r| r.0);
                if scratch.best.len() < ef || worst.is_some_and(|w| h > w) {
                    scratch.cand.push(h);
                    scratch.best.push(std::cmp::Reverse(h));
                    while scratch.best.len() > ef {
                        scratch.best.pop();
                    }
                }
            }
        }
    }

    /// Approximate top candidates for `query`: descends the layers greedily,
    /// beam-searches layer 0 with width `max(ef, k)`, and writes the visited
    /// best external ids into `scratch.out`, best score first (ties by
    /// ascending id). Returns the ids as a slice borrowing the scratch.
    ///
    /// Callers re-score the returned candidates *exactly*, so the index only
    /// has to get membership right, not scores — with `ef ≥ k` and a healthy
    /// graph, recall@k is typically well above 0.95 (the serving layer's
    /// recall guard measures it continuously).
    pub fn search_into<'a>(
        &self,
        query: &[f32],
        k: usize,
        ef: usize,
        scratch: &'a mut SearchScratch,
    ) -> &'a [u32] {
        assert_eq!(query.len(), self.dim, "query dimension mismatch");
        scratch.out.clear();
        let Some(entry) = self.entry else {
            return &scratch.out;
        };
        if k == 0 {
            return &scratch.out;
        }
        let ef = ef.max(k).max(1);
        let mut ep = entry;
        for layer in (1..=self.levels[entry as usize] as usize).rev() {
            ep = self.greedy_step(query, ep, layer);
        }
        self.search_layer(query, &[ep], ef, 0, scratch);
        let mut found: Vec<Hit> = Vec::with_capacity(scratch.best.len());
        while let Some(std::cmp::Reverse(h)) = scratch.best.pop() {
            found.push(h);
        }
        for h in found.iter().rev() {
            scratch.out.push(self.ids[h.slot as usize]);
        }
        &scratch.out
    }

    /// Allocating convenience wrapper over [`HnswIndex::search_into`].
    pub fn search(&self, query: &[f32], k: usize, ef: usize) -> Vec<u32> {
        let mut scratch = SearchScratch::default();
        self.search_into(query, k, ef, &mut scratch).to_vec()
    }

    /// FNV-1a digest of the entire structure — ids, levels, links, entry,
    /// and the exact vector bits. Equal fingerprints mean bit-identical
    /// indexes; the determinism tests pin this across rebuilds.
    pub fn fingerprint(&self) -> u64 {
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        eat(&(self.dim as u64).to_le_bytes());
        eat(&self.entry.map(|e| e as u64 + 1).unwrap_or(0).to_le_bytes());
        for (slot, &id) in self.ids.iter().enumerate() {
            eat(&id.to_le_bytes());
            eat(&[self.levels[slot]]);
            for layer in 0..=self.levels[slot] as usize {
                let list = self.links.get(slot as u32, layer);
                eat(&(list.len() as u32).to_le_bytes());
                for &n in list {
                    eat(&n.to_le_bytes());
                }
            }
        }
        for v in &self.vectors {
            eat(&v.to_bits().to_le_bytes());
        }
        h
    }

    /// Estimated resident bytes of the index: vector slab, id/level columns,
    /// the link arena (every run at full width, lengths and offsets), and
    /// the id→slot map. Used by benches to report index memory (the
    /// shared-base layout's ÷R headline).
    pub fn memory_bytes(&self) -> usize {
        self.vectors.len() * 4          // vector slab
            + self.ids.len() * (4 + 1)  // ids + levels
            + self.links.bytes()        // link arena
            + self.slot_of.len() * 16 // id → slot entries (approx)
    }

    /// Exact brute-force top-`k` ids over the indexed vectors (reference for
    /// recall measurement in tests and benches).
    pub fn brute_force(&self, query: &[f32], k: usize) -> Vec<u32> {
        let mut scored: Vec<Hit> = (0..self.ids.len() as u32)
            .map(|s| Hit {
                score: dot(query, self.vec_of(s)),
                slot: s,
            })
            .collect();
        scored.sort_unstable_by(|a, b| b.cmp(a));
        scored
            .iter()
            .take(k)
            .map(|h| self.ids[h.slot as usize])
            .collect()
    }
}

/// On-disk framing magic for a serialized [`HnswIndex`].
const SERDE_MAGIC: &[u8; 8] = b"SUPANN01";

/// Implausibility bounds for deserialization: a header claiming more than
/// these is corruption, not a real index (prevents attacker/bitrot-sized
/// allocations before any data is read).
const MAX_ITEMS: u64 = 1 << 31;
const MAX_DIM: u64 = 1 << 20;

/// Errors from [`HnswIndex::from_bytes`] and [`decode_index_set`].
/// Decoding never panics and never yields a structurally invalid index:
/// every failure is one of these named cases.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnnIoError {
    /// The input ended before a field, or a count declared more bytes than
    /// remain.
    Truncated,
    /// The input does not start with the `SUPANN01` (or `SUPANNS1`) magic.
    BadMagic,
    /// Structural validation failed (bounds, counts, duplicate ids, …).
    Corrupt(&'static str),
    /// The structure decoded, but its recomputed fingerprint does not match
    /// the stored one — bit rot inside otherwise-plausible data.
    FingerprintMismatch { stored: u64, computed: u64 },
}

impl std::fmt::Display for AnnIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnnIoError::Truncated => write!(f, "ann index truncated: {Truncated}"),
            AnnIoError::BadMagic => write!(f, "ann index: bad magic (not a SUPANN01 stream)"),
            AnnIoError::Corrupt(what) => write!(f, "ann index corrupt: {what}"),
            AnnIoError::FingerprintMismatch { stored, computed } => write!(
                f,
                "ann index fingerprint mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
        }
    }
}

impl std::error::Error for AnnIoError {}

impl From<Truncated> for AnnIoError {
    fn from(_: Truncated) -> Self {
        AnnIoError::Truncated
    }
}

/// Persistence: the full structure — config, vector slab, neighbor lists,
/// id↔slot map (implicit in slot order), entry point — is serialized
/// little-endian with the fingerprint as a trailer, so a restored index is
/// bit-identical to the saved one and verifiably so. Checkpoint v3 and
/// replication baseline frames carry these bytes opaquely.
impl HnswIndex {
    /// Every neighbor list in persisted order: slot by slot, layer 0 up to
    /// the slot's level.
    fn lists(&self) -> impl Iterator<Item = &[u32]> + '_ {
        self.levels
            .iter()
            .enumerate()
            .flat_map(move |(slot, &level)| {
                (0..=level as usize).map(move |layer| self.links.get(slot as u32, layer))
            })
    }

    /// Serializes the index into one exactly-sized buffer. Layout (all
    /// little-endian):
    ///
    /// ```text
    /// "SUPANN01" | dim u64 | m u64 | ef_construction u64 | seed u64
    ///           | entry+1 u64 | n u64
    ///           | ids   n×u32
    ///           | levels n×u8
    ///           | links  per slot: per layer (levels[slot]+1 of them):
    ///                      len u32, then len×u32 neighbor slots
    ///           | vectors n·dim×f32 (bit patterns)
    ///           | fingerprint u64
    /// ```
    pub fn to_bytes(&self) -> Vec<u8> {
        let n = self.ids.len();
        let link_words: usize = self.lists().map(|list| 1 + list.len()).sum();
        let len = 8 + 6 * 8 + 5 * n + 4 * link_words + 4 * self.vectors.len() + 8;
        let mut out = Vec::with_capacity(len);
        out.extend_from_slice(SERDE_MAGIC);
        for v in [
            self.dim as u64,
            self.cfg.m as u64,
            self.cfg.ef_construction as u64,
            self.cfg.seed,
            self.entry.map_or(0, |e| e as u64 + 1),
            n as u64,
        ] {
            put_u64(&mut out, v);
        }
        put_u32s(&mut out, &self.ids);
        out.extend_from_slice(&self.levels);
        for list in self.lists() {
            put_u32(&mut out, list.len() as u32);
            put_u32s(&mut out, list);
        }
        put_f32s(&mut out, &self.vectors);
        put_u64(&mut out, self.fingerprint());
        debug_assert_eq!(out.len(), len, "index bytes sized wrong");
        out
    }

    /// Deserializes an index written by [`HnswIndex::to_bytes`], rejecting
    /// trailing bytes. Structure (bounds, counts, levels, duplicate ids) is
    /// validated and then the stored fingerprint against a recomputation —
    /// a decode that returns `Ok` is bit-identical to the index that was
    /// saved, never silently corrupt.
    pub fn from_bytes(bytes: &[u8]) -> Result<HnswIndex, AnnIoError> {
        let mut r = Reader::new(bytes);
        let idx = HnswIndex::decode(&mut r)?;
        if !r.is_empty() {
            return Err(AnnIoError::Corrupt("trailing bytes after index"));
        }
        Ok(idx)
    }

    /// Every count is checked against its bound, and [`Reader`] checks it
    /// against the bytes that remain, before anything is allocated for it.
    fn decode(r: &mut Reader<'_>) -> Result<HnswIndex, AnnIoError> {
        if r.take(8)? != SERDE_MAGIC {
            return Err(AnnIoError::BadMagic);
        }
        let dim = r.u64()?;
        let m = r.u64()?;
        let ef_construction = r.u64()?;
        let seed = r.u64()?;
        let entry = r.u64()?;
        let n = r.u64()?;
        if dim == 0 || dim > MAX_DIM {
            return Err(AnnIoError::Corrupt("implausible dimension"));
        }
        if !(2..=MAX_M as u64).contains(&m) || !(1..=MAX_DIM).contains(&ef_construction) {
            return Err(AnnIoError::Corrupt("implausible config"));
        }
        if n > MAX_ITEMS {
            return Err(AnnIoError::Corrupt("implausible item count"));
        }
        let (dim, n) = (dim as usize, n as usize);
        if entry > n as u64 {
            return Err(AnnIoError::Corrupt("entry point out of bounds"));
        }
        if entry == 0 && n > 0 || entry > 0 && n == 0 {
            return Err(AnnIoError::Corrupt(
                "entry point inconsistent with item count",
            ));
        }
        let cfg = AnnConfig {
            m: m as usize,
            ef_construction: ef_construction as usize,
            seed,
        };
        let mut idx = HnswIndex::new(dim, cfg);
        idx.ids = r.u32s(n)?;
        idx.levels = r.take(n)?.to_vec();
        // Levels are a pure function of (seed, m, id), so a level that
        // disagrees is corruption of the level, the id or the config —
        // the config lies outside the fingerprint.
        if idx
            .ids
            .iter()
            .zip(&idx.levels)
            .any(|(&id, &l)| l as usize != idx.level_for(id))
        {
            return Err(AnnIoError::Corrupt(
                "level differs from the seed's assignment",
            ));
        }
        for slot in 0..n as u32 {
            let level = idx.levels[slot as usize] as usize;
            idx.links.add_slot(level);
            for layer in 0..=level {
                let len = r.u32()? as usize;
                if len > n {
                    return Err(AnnIoError::Corrupt("neighbor list longer than index"));
                }
                // A list at rest leaves its run's last entry free for the
                // backlink a later link pushes before pruning.
                if len >= idx.links.stride(layer) {
                    return Err(AnnIoError::Corrupt("neighbor list longer than its run"));
                }
                for _ in 0..len {
                    let s = r.u32()?;
                    if s as usize >= n {
                        return Err(AnnIoError::Corrupt("neighbor slot out of bounds"));
                    }
                    idx.links.push(slot, layer, s);
                }
            }
        }
        idx.vectors = r.f32s(n.saturating_mul(dim))?;
        let stored = r.u64()?;
        idx.slot_of.reserve(n);
        for (slot, &id) in idx.ids.iter().enumerate() {
            if idx.slot_of.insert(id, slot as u32).is_some() {
                return Err(AnnIoError::Corrupt("duplicate external id"));
            }
        }
        idx.entry = entry.checked_sub(1).map(|e| e as u32);
        let computed = idx.fingerprint();
        if computed != stored {
            return Err(AnnIoError::FingerprintMismatch { stored, computed });
        }
        Ok(idx)
    }
}

/// Framing magic for a serialized index *set* (the serving layer's
/// partition-major `[partition][group]` family of indexes).
const SET_MAGIC: &[u8; 8] = b"SUPANNS1";

/// One partition's family of per-destination-group indexes. A `None` slot means
/// the group had no candidates when the set was published.
pub type IndexSet = Vec<Option<HnswIndex>>;

/// Implausibility bound on the outer set dimensions: more partitions or groups
/// than this is corruption, not a real deployment.
const MAX_SET_AXIS: u64 = 1 << 12;

/// Serializes a partition-major set of optional indexes. The serving layer
/// writes exactly one partition; the outer axis stays so that sets written
/// with several still decode. The inner indexes use the
/// [`HnswIndex::to_bytes`] format, each guarded by its own fingerprint
/// trailer. The two `stamps` are written as given (the serving layer
/// passes its configured `ef_search`/`ef_margin`, so the set's bytes stay
/// what they were when a beam-width tuner resumed from them); nothing
/// reads them back, and [`decode_index_set`] skips them.
///
/// ```text
/// "SUPANNS1" | stamp0 u64 | stamp1 u64 | n_partitions u64
///           | per partition: n_groups u64,
///                        per group: present u8 (0/1),
///                                   if 1: len u64 + index bytes
/// ```
pub fn encode_index_set(partitions: &[&[Option<HnswIndex>]], stamps: [u64; 2]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(SET_MAGIC);
    put_u64(&mut out, stamps[0]);
    put_u64(&mut out, stamps[1]);
    put_u64(&mut out, partitions.len() as u64);
    for groups in partitions {
        put_u64(&mut out, groups.len() as u64);
        for index in groups.iter() {
            match index {
                Some(idx) => {
                    out.push(1);
                    let bytes = idx.to_bytes();
                    put_u64(&mut out, bytes.len() as u64);
                    out.extend_from_slice(&bytes);
                }
                None => out.push(0),
            }
        }
    }
    out
}

/// Deserializes an index set written by [`encode_index_set`], validating the
/// outer framing and every inner index (structure + fingerprint). Trailing
/// garbage is rejected, so adopting a decoded set is all-or-nothing — a
/// caller either gets the exact saved family or a named error and rebuilds.
pub fn decode_index_set(bytes: &[u8]) -> Result<Vec<IndexSet>, AnnIoError> {
    let mut r = Reader::new(bytes);
    if r.take(8)? != SET_MAGIC {
        return Err(AnnIoError::BadMagic);
    }
    // The two stamps: written, never read.
    r.take(16)?;
    let n_partitions = r.u64()?;
    if n_partitions > MAX_SET_AXIS {
        return Err(AnnIoError::Corrupt("implausible partition count"));
    }
    let mut partitions = Vec::with_capacity(n_partitions as usize);
    for _ in 0..n_partitions {
        let n_groups = r.u64()?;
        if n_groups > MAX_SET_AXIS {
            return Err(AnnIoError::Corrupt("implausible group count"));
        }
        let mut groups = Vec::with_capacity(n_groups as usize);
        for _ in 0..n_groups {
            groups.push(match r.u8()? {
                0 => None,
                1 => Some(HnswIndex::from_bytes(r.section()?)?),
                _ => return Err(AnnIoError::Corrupt("index presence flag out of range")),
            });
        }
        partitions.push(groups);
    }
    if !r.is_empty() {
        return Err(AnnIoError::Corrupt("trailing bytes after index set"));
    }
    Ok(partitions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use supa_rng::SmallRng;

    fn random_vectors(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|_| (0..dim).map(|_| rng.random_range(-1.0..1.0f32)).collect())
            .collect()
    }

    fn build(vectors: &[Vec<f32>], cfg: AnnConfig) -> HnswIndex {
        let mut idx = HnswIndex::new(vectors[0].len(), cfg);
        for (i, v) in vectors.iter().enumerate() {
            idx.insert(i as u32, v);
        }
        idx
    }

    fn recall(idx: &HnswIndex, queries: &[Vec<f32>], k: usize, ef: usize) -> f64 {
        let mut scratch = SearchScratch::default();
        let (mut hit, mut want) = (0usize, 0usize);
        for q in queries {
            let exact = idx.brute_force(q, k);
            let approx = idx.search_into(q, k, ef, &mut scratch);
            want += exact.len().min(k);
            hit += exact
                .iter()
                .take(k)
                .filter(|id| approx[..approx.len().min(ef)].contains(id))
                .count();
        }
        hit as f64 / want.max(1) as f64
    }

    #[test]
    fn empty_and_tiny_indexes_answer() {
        let idx = HnswIndex::new(4, AnnConfig::default());
        assert!(idx.is_empty());
        assert!(idx.search(&[0.0; 4], 5, 10).is_empty());

        let mut idx = HnswIndex::new(2, AnnConfig::default());
        idx.insert(42, &[1.0, 0.0]);
        assert_eq!(idx.search(&[1.0, 0.0], 3, 8), vec![42]);
        assert!(idx.search(&[1.0, 0.0], 0, 8).is_empty());
    }

    #[test]
    fn recall_is_high_on_random_vectors() {
        let vectors = random_vectors(2_000, 16, 11);
        let idx = build(&vectors, AnnConfig::default());
        let queries = random_vectors(100, 16, 99);
        let r = recall(&idx, &queries, 10, 64);
        assert!(r >= 0.95, "recall@10 {r:.3} < 0.95");
    }

    #[test]
    fn construction_and_search_are_bit_deterministic() {
        let vectors = random_vectors(600, 8, 3);
        let a = build(&vectors, AnnConfig::default());
        let b = build(&vectors, AnnConfig::default());
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a, b);
        let queries = random_vectors(20, 8, 5);
        let mut sa = SearchScratch::default();
        let mut sb = SearchScratch::default();
        for q in &queries {
            assert_eq!(
                a.search_into(q, 10, 40, &mut sa),
                b.search_into(q, 10, 40, &mut sb)
            );
        }
    }

    #[test]
    fn levels_are_a_pure_function_of_seed_and_id() {
        let idx = HnswIndex::new(4, AnnConfig::default());
        let other = HnswIndex::new(9, AnnConfig::default());
        for id in 0..2_000u32 {
            assert_eq!(idx.level_for(id), other.level_for(id));
        }
        // Levels follow a geometric-ish distribution: most nodes at 0,
        // some above, none at the cap.
        let above: usize = (0..2_000u32).filter(|&i| idx.level_for(i) > 0).count();
        assert!(above > 20 && above < 600, "{above} nodes above layer 0");
    }

    #[test]
    fn updates_keep_the_index_searchable_and_deterministic() {
        let mut vectors = random_vectors(800, 8, 17);
        let mut idx = build(&vectors, AnnConfig::default());
        // Dirty refresh: move 10% of the vectors, update in ascending id
        // order (the serving engine's touched-set order).
        let moved = random_vectors(80, 8, 18);
        for (j, v) in moved.iter().enumerate() {
            let id = (j * 10) as u32;
            vectors[id as usize] = v.clone();
            idx.update(id, v);
        }
        assert_eq!(idx.len(), 800);
        let queries = random_vectors(50, 8, 19);
        let r = recall(&idx, &queries, 10, 64);
        assert!(r >= 0.95, "post-update recall@10 {r:.3} < 0.95");

        // The same update sequence on a fresh build lands on the same bits.
        let mut again = build(&random_vectors(800, 8, 17), AnnConfig::default());
        for (j, v) in moved.iter().enumerate() {
            again.update((j * 10) as u32, v);
        }
        assert_eq!(idx.fingerprint(), again.fingerprint());
    }

    #[test]
    fn links_stay_symmetric_and_capped() {
        let vectors = random_vectors(500, 8, 23);
        let mut idx = build(
            &vectors,
            AnnConfig {
                m: 4,
                ..AnnConfig::default()
            },
        );
        for (j, v) in random_vectors(50, 8, 24).iter().enumerate() {
            idx.update((j * 7) as u32, v);
        }
        for slot in 0..idx.ids.len() as u32 {
            for layer in 0..=idx.levels[slot as usize] as usize {
                let list = idx.links.get(slot, layer);
                assert!(
                    list.len() <= idx.cap(layer) + PRUNE_SLACK,
                    "slot {slot} layer {layer}: {} links over the pruning bound",
                    list.len()
                );
                for &n in list {
                    assert!(
                        idx.links.get(n, layer).contains(&slot),
                        "asymmetric link {slot} -> {n} on layer {layer}"
                    );
                }
            }
        }
    }

    #[test]
    fn search_prefers_the_true_nearest_for_clustered_data() {
        // Two well-separated clusters: a query near one cluster's center
        // must return members of that cluster.
        let dim = 8;
        let mut vectors = Vec::new();
        for i in 0..200 {
            let mut v = vec![0.0f32; dim];
            v[0] = 10.0 + (i as f32) * 1e-3;
            vectors.push(v);
        }
        for i in 0..200 {
            let mut v = vec![0.0f32; dim];
            v[1] = 10.0 + (i as f32) * 1e-3;
            vectors.push(v);
        }
        let idx = build(&vectors, AnnConfig::default());
        let mut q = vec![0.0f32; dim];
        q[1] = 1.0;
        for id in idx.search(&q, 5, 32) {
            assert!(
                id >= 200,
                "cluster-0 item {id} returned for a cluster-1 query"
            );
        }
    }

    /// Row-major concatenation helper for `update_batch`.
    fn rows(vs: &[Vec<f32>]) -> Vec<f32> {
        vs.iter().flat_map(|v| v.iter().copied()).collect()
    }

    #[test]
    fn update_of_a_never_inserted_id_inserts_it() {
        let vectors = random_vectors(100, 8, 51);
        let mut idx = build(&vectors, AnnConfig::default());
        assert!(!idx.contains(7_000));
        let v = random_vectors(1, 8, 52).remove(0);
        idx.update(7_000, &v);
        assert!(idx.contains(7_000));
        assert_eq!(idx.len(), 101);
        assert!(idx.search(&v, 5, 32).contains(&7_000));
        // Same through the batch path.
        let mut idx2 = build(&vectors, AnnConfig::default());
        idx2.update_batch(&[7_000], &v);
        assert_eq!(idx.fingerprint(), idx2.fingerprint());
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let vectors = random_vectors(300, 8, 53);
        let mut idx = build(&vectors, AnnConfig::default());
        let before = idx.fingerprint();
        idx.update_batch(&[], &[]);
        assert_eq!(idx.fingerprint(), before);
        // An empty index accepts an empty batch too.
        let mut empty = HnswIndex::new(8, AnnConfig::default());
        empty.update_batch(&[], &[]);
        assert!(empty.is_empty());
    }

    #[test]
    fn batch_of_one_is_bit_identical_to_a_serial_update() {
        let vectors = random_vectors(500, 8, 55);
        let mut serial = build(&vectors, AnnConfig::default());
        let mut batched = build(&vectors, AnnConfig::default());
        let moved = random_vectors(40, 8, 56);
        for (j, v) in moved.iter().enumerate() {
            let id = (j * 11) as u32;
            serial.update(id, v);
            batched.update_batch(&[id], v);
            assert_eq!(
                serial.fingerprint(),
                batched.fingerprint(),
                "batch-of-1 diverged at update {j}"
            );
        }
        assert_eq!(serial, batched);
    }

    #[test]
    fn unchanged_rows_are_a_no_op() {
        let vectors = random_vectors(400, 8, 81);
        let mut idx = build(&vectors, AnnConfig::default());
        let before = idx.clone();
        let ids: Vec<u32> = (0..400).step_by(3).collect();
        let same: Vec<Vec<f32>> = ids.iter().map(|&i| vectors[i as usize].clone()).collect();
        assert_eq!(idx.update_batch(&ids, &rows(&same)), 0);
        for id in [0u32, 17, 399] {
            idx.update(id, &vectors[id as usize]);
            idx.insert(id, &vectors[id as usize]);
        }
        assert_eq!(idx.fingerprint(), before.fingerprint());
        assert_eq!(idx, before);
        // Bits, not values: -0.0 replacing 0.0 is a move.
        let mut zero = vectors[5].clone();
        zero[0] = 0.0;
        idx.update(5, &zero);
        zero[0] = -0.0;
        assert_eq!(idx.update_batch(&[5], &zero), 1);
    }

    #[test]
    fn mixed_batch_equals_the_batch_of_its_moved_rows() {
        let vectors = random_vectors(500, 8, 83);
        let mut mixed = build(&vectors, AnnConfig::default());
        let mut moved_only = mixed.clone();
        let fresh = random_vectors(500, 8, 84);
        // Every fourth staged id moves, one id is new; the rest are stored
        // rows staged again unchanged.
        let (mut all, mut moved) = ((Vec::new(), Vec::new()), (Vec::new(), Vec::new()));
        for id in (1..500u32).step_by(2).chain([9_000]) {
            let row = if id % 4 == 1 || id == 9_000 {
                moved.0.push(id);
                moved.1.extend_from_slice(&fresh[id as usize % 500]);
                &fresh[id as usize % 500]
            } else {
                &vectors[id as usize]
            };
            all.0.push(id);
            all.1.extend_from_slice(row);
        }
        assert_eq!(mixed.update_batch(&all.0, &all.1), moved.0.len());
        assert_eq!(moved_only.update_batch(&moved.0, &moved.1), moved.0.len());
        assert_eq!(mixed.fingerprint(), moved_only.fingerprint());
        assert_eq!(mixed, moved_only);
    }

    #[test]
    fn a_long_mostly_unchanged_refresh_stream_keeps_rebuild_recall() {
        // 600 epochs shaped like a serving refresh: each stages ~280 ids,
        // of which ~3 % moved (a small step, as one training chunk moves a
        // row) and the rest are staged unchanged. The maintained graph must
        // answer as well as a fresh build over the final vectors.
        let seed = 0x5EED_0034u64;
        println!("long refresh stream seed {seed:#x}");
        let (n, dim, epochs) = (2_000usize, 16usize, 600usize);
        let cfg = AnnConfig {
            ef_construction: 64,
            ..AnnConfig::default()
        };
        let mut vectors = random_vectors(n, dim, seed);
        let mut idx = build(&vectors, cfg.clone());
        let mut rng = SmallRng::seed_from_u64(seed);
        let (mut ids, mut flat) = (Vec::new(), Vec::new());
        let mut relinked = 0usize;
        for _ in 0..epochs {
            ids.clear();
            flat.clear();
            for id in 0..n as u32 {
                if rng.random_range(0..n) < 280 {
                    ids.push(id);
                }
            }
            for &id in &ids {
                let v = &mut vectors[id as usize];
                if rng.random_range(0..100) < 3 {
                    for x in v.iter_mut() {
                        *x += rng.random_range(-0.2..0.2f32);
                    }
                }
                flat.extend_from_slice(v);
            }
            relinked += idx.update_batch(&ids, &flat);
        }
        let staged = 280 * epochs;
        assert!(
            relinked > staged / 50 && relinked < staged / 20,
            "seed {seed:#x}: {relinked} of ~{staged} staged ids re-linked"
        );
        let rebuilt = build(&vectors, cfg);
        let queries = random_vectors(400, dim, seed + 1);
        let (kept, fresh) = (
            recall(&idx, &queries, 10, 16),
            recall(&rebuilt, &queries, 10, 16),
        );
        println!("recall@10 maintained {kept:.4}, rebuilt {fresh:.4}");
        assert!(
            kept >= fresh - 0.01,
            "seed {seed:#x}: maintained recall@10 {kept:.4} < rebuilt {fresh:.4} - 0.01"
        );
    }

    #[test]
    fn clone_from_lands_on_an_equal_index() {
        let source = build(&random_vectors(300, 8, 87), AnnConfig::default());
        // Retired copies of a smaller, a larger and an equal-sized index.
        for n in [100, 500, 300] {
            let mut retired = build(&random_vectors(n, 8, 88), AnnConfig::default());
            retired.clone_from(&source);
            assert_eq!(retired, source);
            assert_eq!(retired.fingerprint(), source.fingerprint());
        }
    }

    #[test]
    fn decode_rejects_a_list_longer_than_its_run() {
        let vectors = random_vectors(60, 4, 85);
        let idx = build(&vectors, AnnConfig::default());
        // Slot 0's layer-0 length follows the header, the ids and levels.
        let at = 8 + 6 * 8 + 60 * 4 + 60;
        let stride = (2 * 16 + PRUNE_SLACK + 1) as u32;
        // A full run leaves no room for the next link's backlink.
        for len in [stride, stride + 1] {
            let mut bytes = idx.to_bytes();
            bytes[at..at + 4].copy_from_slice(&len.to_le_bytes());
            assert!(matches!(
                HnswIndex::from_bytes(&bytes),
                Err(AnnIoError::Corrupt("neighbor list longer than its run"))
            ));
        }
    }

    #[test]
    fn whole_catalog_batch_keeps_the_index_searchable() {
        // Touched set == entire catalog: every node is unlinked, the entry
        // point falls back to None, and the re-link pass rebuilds the graph
        // from scratch — recall and determinism must survive.
        let n = 600;
        let vectors = random_vectors(n, 8, 57);
        let mut idx = build(&vectors, AnnConfig::default());
        let replaced = random_vectors(n, 8, 58);
        let ids: Vec<u32> = (0..n as u32).collect();
        idx.update_batch(&ids, &rows(&replaced));
        assert_eq!(idx.len(), n);
        let queries = random_vectors(50, 8, 59);
        let r = recall(&idx, &queries, 10, 64);
        assert!(r >= 0.95, "whole-catalog batch recall@10 {r:.3} < 0.95");
        // Bit-determinism: the same batch on a fresh build lands on the
        // same structure.
        let mut again = build(&random_vectors(n, 8, 57), AnnConfig::default());
        again.update_batch(&ids, &rows(&replaced));
        assert_eq!(idx.fingerprint(), again.fingerprint());
    }

    #[test]
    fn batch_and_serial_updates_have_recall_parity_on_a_seeded_stream() {
        // Replay the same seeded dirty-stream through per-id updates and
        // through one batch per "epoch": the structures legitimately differ
        // (deferred repair picks different patch links), but both must hold
        // the same vectors and keep recall at the contract floor.
        let n = 800;
        let base = random_vectors(n, 8, 61);
        let mut serial = build(&base, AnnConfig::default());
        let mut batched = build(&base, AnnConfig::default());
        for epoch in 0..5u64 {
            let moved = random_vectors(60, 8, 100 + epoch);
            let ids: Vec<u32> = (0..60)
                .map(|j| ((j * 13 + epoch as usize) % n) as u32)
                .collect();
            let mut sorted: Vec<(u32, &Vec<f32>)> = ids.iter().copied().zip(moved.iter()).collect();
            sorted.sort_unstable_by_key(|&(id, _)| id);
            sorted.dedup_by_key(|&mut (id, _)| id);
            for &(id, v) in &sorted {
                serial.update(id, v);
            }
            let ids: Vec<u32> = sorted.iter().map(|&(id, _)| id).collect();
            let flat: Vec<f32> = sorted
                .iter()
                .flat_map(|&(_, v)| v.iter().copied())
                .collect();
            batched.update_batch(&ids, &flat);
        }
        let queries = random_vectors(60, 8, 62);
        for q in &queries {
            // Same vectors stored: exact scans agree bit-for-bit.
            assert_eq!(serial.brute_force(q, 10), batched.brute_force(q, 10));
        }
        let rs = recall(&serial, &queries, 10, 64);
        let rb = recall(&batched, &queries, 10, 64);
        assert!(rs >= 0.95, "serial recall@10 {rs:.3} < 0.95");
        assert!(rb >= 0.95, "batched recall@10 {rb:.3} < 0.95");
    }

    #[test]
    fn persist_roundtrip_is_bit_identical() {
        let vectors = random_vectors(400, 8, 63);
        let mut idx = build(&vectors, AnnConfig::default());
        for (j, v) in random_vectors(30, 8, 64).iter().enumerate() {
            idx.update((j * 9) as u32, v);
        }
        let bytes = idx.to_bytes();
        let restored = HnswIndex::from_bytes(&bytes).expect("roundtrip decodes");
        assert_eq!(idx, restored);
        assert_eq!(idx.fingerprint(), restored.fingerprint());
        let queries = random_vectors(20, 8, 65);
        let mut sa = SearchScratch::default();
        let mut sb = SearchScratch::default();
        for q in &queries {
            assert_eq!(
                idx.search_into(q, 10, 48, &mut sa),
                restored.search_into(q, 10, 48, &mut sb)
            );
        }
        // Empty index round-trips too.
        let empty = HnswIndex::new(8, AnnConfig::default());
        let back = HnswIndex::from_bytes(&empty.to_bytes()).unwrap();
        assert!(back.is_empty());
        assert_eq!(empty.fingerprint(), back.fingerprint());
    }

    #[test]
    fn persist_rejects_corruption_with_named_errors() {
        let vectors = random_vectors(200, 8, 67);
        let idx = build(&vectors, AnnConfig::default());
        let bytes = idx.to_bytes();

        // Wrong magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(
            HnswIndex::from_bytes(&bad),
            Err(AnnIoError::BadMagic)
        ));

        // Truncation anywhere is a named truncation.
        assert!(matches!(
            HnswIndex::from_bytes(&bytes[..bytes.len() / 2]),
            Err(AnnIoError::Truncated)
        ));

        // A flipped bit inside the vector slab decodes structurally but
        // fails the fingerprint — never a silent corruption.
        let mut rot = bytes.clone();
        let slab_byte = rot.len() - 12; // inside the last vector row
        rot[slab_byte] ^= 0x01;
        assert!(matches!(
            HnswIndex::from_bytes(&rot),
            Err(AnnIoError::FingerprintMismatch { .. })
        ));

        // Trailing garbage is rejected.
        let mut long = bytes.clone();
        long.push(0);
        assert!(matches!(
            HnswIndex::from_bytes(&long),
            Err(AnnIoError::Corrupt(_))
        ));
    }

    #[test]
    fn index_set_round_trips_with_holes_and_stamps() {
        let a = build(&random_vectors(150, 8, 70), AnnConfig::default());
        let b = build(&random_vectors(90, 8, 71), AnnConfig::default());
        let set = [[Some(a.clone()), None], [None, Some(b.clone())]];
        let bytes = encode_index_set(&[&set[0], &set[1]], [96, 32]);
        // The stamps are written as given, after the magic.
        assert_eq!(bytes[8..16], 96u64.to_le_bytes());
        assert_eq!(bytes[16..24], 32u64.to_le_bytes());
        let back = decode_index_set(&bytes).expect("set decodes");
        assert_eq!(back.len(), 2);
        assert_eq!(back[0][0].as_ref().unwrap().fingerprint(), a.fingerprint());
        assert!(back[0][1].is_none());
        assert!(back[1][0].is_none());
        assert_eq!(back[1][1].as_ref().unwrap().fingerprint(), b.fingerprint());
        // Empty set (no partitions) round-trips too.
        let empty = decode_index_set(&encode_index_set(&[], [0, 0])).unwrap();
        assert!(empty.is_empty());
    }

    #[test]
    fn index_set_rejects_corruption_with_named_errors() {
        let a = build(&random_vectors(60, 4, 72), AnnConfig::default());
        let bytes = encode_index_set(&[&[Some(a)]], [64, 16]);
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(decode_index_set(&bad), Err(AnnIoError::BadMagic)));
        assert!(matches!(
            decode_index_set(&bytes[..bytes.len() - 5]),
            Err(AnnIoError::Truncated)
        ));
        // A presence flag outside {0, 1} is named, not interpreted.
        let mut flag = bytes.clone();
        flag[8 + 8 + 8 + 8 + 8] = 7; // magic + stamps + n_partitions + n_groups
        assert!(matches!(
            decode_index_set(&flag),
            Err(AnnIoError::Corrupt(_))
        ));
        // Inner-index bit rot surfaces as the inner fingerprint error.
        let mut rot = bytes.clone();
        let n = rot.len();
        rot[n - 12] ^= 0x01;
        assert!(matches!(
            decode_index_set(&rot),
            Err(AnnIoError::FingerprintMismatch { .. })
        ));
        // Trailing garbage is all-or-nothing rejected.
        let mut long = bytes.clone();
        long.push(0);
        assert!(matches!(
            decode_index_set(&long),
            Err(AnnIoError::Corrupt(_))
        ));
    }
}
