//! Writer-side upkeep of the shared-base ANN indexes: the per-shard masters
//! the writer refreshes between epochs ([`AnnMaster`]), the frozen copy each
//! epoch publishes ([`AnnEpoch`]) and the recall-guard auto-tuner
//! ([`AnnTuner`]). The candidate layout, the index build / refresh / adoption
//! and the query rule itself are [`supa_replica::retrieval`]'s, shared with
//! every replica.

use std::sync::Arc;

use supa::ServingSnapshot;
use supa_ann::HnswIndex;
use supa_graph::{NodeId, RelationId};
use supa_replica::retrieval::{Catalog, GroupIndexes};

use crate::engine::AnnOptions;
use crate::metrics::ServeMetrics;

/// The shared-base ANN indexes of one published epoch, shard-major:
/// `indexes[shard][group]`, where a *group* is a set of relations whose
/// edges land on the same destination node type
/// ([`supa_graph::GraphSchema::dst_type_groups`]). Relations in one group
/// have identical candidate sets, and the indexed base vectors
/// (`h_long + h_short`) carry no relation term — so one index serves every
/// relation of the group, cutting index memory and refresh work by the
/// group size. Unsharded epochs have exactly one shard holding the full
/// per-group indexes.
#[derive(Debug)]
pub struct AnnEpoch {
    indexes: Vec<Vec<Option<HnswIndex>>>,
    /// Relation → group: which shared index answers each relation.
    group_of: Vec<usize>,
    /// The effective query beam width when this epoch was published. Epochs
    /// stamp the values in force so a query (and any later `verify` replay)
    /// is a pure function of the epoch it hits, even while the auto-tuner
    /// moves the live values between epochs.
    ef_search: usize,
    /// The effective beam margin at publication (see [`AnnOptions::ef_margin`]).
    ef_margin: usize,
}

impl AnnEpoch {
    /// Shard 0's shared-base index answering `rel` (`None` when that shard
    /// owns no candidates of the relation's group). On an unsharded epoch
    /// this is *the* index over the full catalog; sharded readers use
    /// [`AnnEpoch::shard_indexes`] to query every shard's partition.
    /// Relations with the same destination type return the *same* index.
    pub fn index(&self, rel: RelationId) -> Option<&HnswIndex> {
        let g = *self.group_of.get(rel.index())?;
        self.indexes.first()?.get(g)?.as_ref()
    }

    /// Every shard's index answering `rel`, in shard order (shards owning no
    /// candidates of the relation's group are skipped). The shards partition
    /// the catalog, so the yielded indexes cover disjoint item sets.
    pub fn shard_indexes(&self, rel: RelationId) -> impl Iterator<Item = &HnswIndex> {
        let g = self.group_of.get(rel.index()).copied();
        self.indexes
            .iter()
            .filter_map(move |shard| shard.get(g?).and_then(Option::as_ref))
    }

    /// The effective `ef_search` stamped at publication.
    pub fn ef_search(&self) -> usize {
        self.ef_search
    }

    /// The effective `ef_margin` stamped at publication.
    pub fn ef_margin(&self) -> usize {
        self.ef_margin
    }
}

/// Writer-owned master copies of the per-shard, per-group indexes.
/// Between epochs only the nodes the training interval touched are
/// re-inserted; `freeze` then clones the masters into an immutable
/// [`AnnEpoch`] for publication. Also owns the *effective* beam widths
/// (the configured values, possibly moved by the auto-tuner) that get
/// stamped into each published epoch.
pub(crate) struct AnnMaster {
    /// One partition per shard, owning `shard_of(item) == shard`.
    pub(crate) shards: Vec<GroupIndexes>,
    group_of: Vec<usize>,
    pub(crate) ef_search: usize,
    pub(crate) ef_margin: usize,
    tuner: Option<AnnTuner>,
}

impl AnnMaster {
    /// Builds `shards` per-shard index sets partitioning every group's
    /// candidate list by owning shard.
    pub(crate) fn build(
        opts: &AnnOptions,
        scorer: &ServingSnapshot,
        catalog: &Catalog,
        shards: usize,
    ) -> AnnMaster {
        let config = opts.params().config();
        let shards = (0..shards)
            .map(|s| GroupIndexes::build(config.clone(), scorer, owned_by(catalog, shards, s)))
            .collect();
        AnnMaster::new(opts, catalog, shards, [0, 0])
    }

    /// `stamps` are the effective beam widths a checkpoint saved (zero for a
    /// fresh build). An auto-tuned engine resumes where the tuner left off,
    /// floored at the configured base; a static configuration ignores them
    /// so behaviour stays exactly the configured one.
    fn new(
        opts: &AnnOptions,
        catalog: &Catalog,
        shards: Vec<GroupIndexes>,
        stamps: [u64; 2],
    ) -> AnnMaster {
        let floor = if opts.auto_tune { stamps } else { [0, 0] };
        AnnMaster {
            shards,
            group_of: catalog.group_of().to_vec(),
            ef_search: opts.ef_search.max(floor[0] as usize),
            ef_margin: opts.ef_margin.max(floor[1] as usize),
            tuner: opts.auto_tune.then(|| AnnTuner::new(opts)),
        }
    }

    /// Serializes every shard's index set (with the effective beam widths as
    /// stamps) for the checkpoint's opaque index section.
    pub(crate) fn to_bytes(&self) -> Vec<u8> {
        let stamps = [self.ef_search as u64, self.ef_margin as u64];
        supa_ann::encode_index_set(&self.index_sets(), stamps)
    }

    /// Reconstructs the master from a checkpoint's index section instead of
    /// rebuilding, after validating that the persisted layout matches what
    /// this engine would build: same shard count and, per shard, the checks
    /// of [`GroupIndexes::adopt`]. Any mismatch is a named error — the
    /// caller falls back to a rebuild, never to silently wrong indexes.
    pub(crate) fn restore(
        opts: &AnnOptions,
        scorer: &ServingSnapshot,
        catalog: &Catalog,
        shards: usize,
        bytes: &[u8],
    ) -> Result<AnnMaster, String> {
        let (sets, stamps) = supa_ann::decode_index_set(bytes).map_err(|e| e.to_string())?;
        if sets.len() != shards {
            return Err(format!(
                "checkpoint index set has {} shard(s), engine runs {shards}",
                sets.len()
            ));
        }
        let mut built = Vec::with_capacity(shards);
        for (s, set) in sets.into_iter().enumerate() {
            let adopted = GroupIndexes::adopt(scorer.dim(), owned_by(catalog, shards, s), set);
            built.push(adopted.map_err(|why| format!("shard {s} {why}"))?);
        }
        Ok(AnnMaster::new(opts, catalog, built, stamps))
    }

    /// A copy of every shard's per-group indexes, shard-major.
    fn index_sets(&self) -> Vec<Vec<Option<HnswIndex>>> {
        self.shards.iter().map(|s| s.indexes().to_vec()).collect()
    }

    /// Freezes the current masters into a publishable epoch.
    pub(crate) fn freeze(&self) -> Arc<AnnEpoch> {
        Arc::new(AnnEpoch {
            indexes: self.index_sets(),
            group_of: self.group_of.clone(),
            ef_search: self.ef_search,
            ef_margin: self.ef_margin,
        })
    }

    /// Runs the auto-tuner (when enabled) against the guard counters that
    /// accumulated in `metrics` since its last qualifying interval. See
    /// [`AnnTuner`].
    pub(crate) fn tune(&mut self, metrics: &[ServeMetrics]) {
        use std::sync::atomic::Ordering::Relaxed;
        let Some(tuner) = &mut self.tuner else { return };
        let mut checks = 0u64;
        let mut expected = 0u64;
        let mut matched = 0u64;
        for m in metrics {
            checks += m.ann_guard_checks.load(Relaxed);
            expected += m.ann_guard_expected.load(Relaxed);
            matched += m.ann_guard_matched.load(Relaxed);
        }
        let d_checks = checks.saturating_sub(tuner.seen_checks);
        if d_checks < TUNE_MIN_CHECKS {
            // Not enough fresh evidence; leave the counters unconsumed so
            // sparse guard traffic accumulates toward the threshold.
            return;
        }
        let d_expected = expected.saturating_sub(tuner.seen_expected);
        let d_matched = matched.saturating_sub(tuner.seen_matched);
        tuner.seen_checks = checks;
        tuner.seen_expected = expected;
        tuner.seen_matched = matched;
        let recall = if d_expected == 0 {
            1.0
        } else {
            d_matched as f64 / d_expected as f64
        };
        if recall < tuner.min_recall {
            tuner.calm = 0;
            let cap_ef = tuner.base_ef.saturating_mul(TUNE_MAX_SCALE);
            let cap_margin = tuner
                .base_margin
                .max(TUNE_MIN_STEP)
                .saturating_mul(TUNE_MAX_SCALE);
            self.ef_search = (self.ef_search + (self.ef_search / 2).max(TUNE_MIN_STEP)).min(cap_ef);
            self.ef_margin =
                (self.ef_margin + (self.ef_margin / 2).max(TUNE_MIN_STEP)).min(cap_margin);
        } else if recall >= tuner.min_recall + TUNE_HEADROOM {
            tuner.calm += 1;
            if tuner.calm >= TUNE_CALM_INTERVALS {
                tuner.calm = 0;
                // A quarter of the way back toward base, always at least one
                // step so the walk terminates at base instead of stalling
                // just above it.
                let step_down = |cur: usize, base: usize| {
                    if cur > base {
                        (cur - ((cur - base) / 4).max(1)).max(base)
                    } else {
                        base
                    }
                };
                self.ef_search = step_down(self.ef_search, tuner.base_ef);
                self.ef_margin = step_down(self.ef_margin, tuner.base_margin);
            }
        } else {
            tuner.calm = 0;
        }
    }
}

/// Shard `s` of `n`'s partition of every group's candidate list.
fn owned_by(catalog: &Catalog, n: usize, s: usize) -> Vec<Vec<NodeId>> {
    catalog.owned_groups(|item| supa_par::shard_of(item.0, n) == s)
}

/// Writer-side hysteresis for the effective beam widths, driven by the
/// recall guard's counters (accumulated by readers, read at each publish).
///
/// - **Up**: an interval with at least [`TUNE_MIN_CHECKS`] guard checks and
///   interval recall below the floor widens both `ef_search` and
///   `ef_margin` by ~1.5× (capped at [`TUNE_MAX_SCALE`]× the configured
///   base).
/// - **Down**: [`TUNE_CALM_INTERVALS`] consecutive qualifying intervals
///   with recall at least [`TUNE_HEADROOM`] above the floor step both
///   widths a quarter of the way back toward the configured base (never
///   below it).
///
/// Intervals with fewer than [`TUNE_MIN_CHECKS`] fresh checks are skipped
/// without consuming the counters, so sparse guard traffic accumulates
/// until a judgement is statistically worth making.
struct AnnTuner {
    base_ef: usize,
    base_margin: usize,
    min_recall: f64,
    seen_checks: u64,
    seen_expected: u64,
    seen_matched: u64,
    calm: u32,
}

/// Minimum fresh guard checks before the tuner judges an interval.
const TUNE_MIN_CHECKS: u64 = 4;
/// Recall headroom above the floor that counts as a calm interval.
const TUNE_HEADROOM: f64 = 0.02;
/// Consecutive calm intervals before stepping the widths back down.
const TUNE_CALM_INTERVALS: u32 = 3;
/// Cap on the widths: this multiple of the configured base.
const TUNE_MAX_SCALE: usize = 8;
/// Smallest widening step, so tiny configured widths still move.
const TUNE_MIN_STEP: usize = 8;

impl AnnTuner {
    fn new(opts: &AnnOptions) -> AnnTuner {
        AnnTuner {
            base_ef: opts.ef_search,
            base_margin: opts.ef_margin,
            min_recall: opts.min_recall,
            seen_checks: 0,
            seen_expected: 0,
            seen_matched: 0,
            calm: 0,
        }
    }
}
