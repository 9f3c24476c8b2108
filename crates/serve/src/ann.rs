//! Writer-side upkeep of the shared-base ANN indexes: the masters the
//! writer refreshes between epochs ([`AnnMaster`]) and the frozen copy each
//! epoch publishes ([`AnnEpoch`]). The candidate layout, the index build /
//! refresh / adoption and the query rule itself are
//! [`supa_replica::retrieval`]'s, shared with every replica.

use std::sync::Arc;

use supa::ServingSnapshot;
use supa_ann::HnswIndex;
use supa_graph::RelationId;
use supa_replica::retrieval::{adopt_index_set, Catalog, GroupIndexes};

use crate::engine::AnnOptions;

/// The shared-base ANN indexes of one published epoch, one per *group*: a
/// set of relations whose edges land on the same destination node type
/// ([`supa_graph::GraphSchema::dst_type_groups`]). Relations in one group
/// have identical candidate sets, and the indexed base vectors
/// (`h_long + h_short`) carry no relation term — so one index serves every
/// relation of the group, cutting index memory and refresh work by the
/// group size.
#[derive(Debug)]
pub struct AnnEpoch {
    indexes: Vec<Option<HnswIndex>>,
    /// Relation → group: which shared index answers each relation.
    group_of: Vec<usize>,
    /// The query beam width stamped at publication, so a query (and any
    /// later `verify` replay) reads its beam from the epoch it hits.
    ef_search: usize,
    /// The beam margin stamped at publication (see [`AnnOptions::ef_margin`]).
    ef_margin: usize,
}

impl AnnEpoch {
    /// The shared-base index answering `rel` (`None` when the relation's
    /// group has no candidates). Relations with the same destination type
    /// return the *same* index.
    pub fn index(&self, rel: RelationId) -> Option<&HnswIndex> {
        let g = *self.group_of.get(rel.index())?;
        self.indexes.get(g)?.as_ref()
    }

    /// The `ef_search` stamped at publication.
    pub fn ef_search(&self) -> usize {
        self.ef_search
    }

    /// The `ef_margin` stamped at publication.
    pub fn ef_margin(&self) -> usize {
        self.ef_margin
    }
}

/// Writer-owned master copies of the per-group indexes.
/// Between epochs only the nodes the training interval touched are
/// re-inserted; `freeze` then copies the masters into an immutable
/// [`AnnEpoch`] for publication, reusing a retired epoch's buffers when it
/// is handed one. Also holds the configured beam widths that get stamped
/// into each published epoch.
pub(crate) struct AnnMaster {
    pub(crate) indexes: GroupIndexes,
    group_of: Vec<usize>,
    pub(crate) ef_search: usize,
    pub(crate) ef_margin: usize,
}

impl AnnMaster {
    /// Builds one index per group over the group's whole candidate list.
    pub(crate) fn build(
        opts: &AnnOptions,
        scorer: &ServingSnapshot,
        catalog: &Catalog,
    ) -> AnnMaster {
        let config = opts.params().config();
        let indexes = GroupIndexes::build(config, scorer, catalog.groups().to_vec());
        AnnMaster::new(opts, catalog, indexes)
    }

    fn new(opts: &AnnOptions, catalog: &Catalog, indexes: GroupIndexes) -> AnnMaster {
        AnnMaster {
            indexes,
            group_of: catalog.group_of().to_vec(),
            ef_search: opts.ef_search,
            ef_margin: opts.ef_margin,
        }
    }

    /// Serializes the index set for the checkpoint's opaque index section,
    /// as one partition. The configured beam widths fill the set's two
    /// stamps, which no reader reads back; they stay so that the set's
    /// bytes do not move.
    pub(crate) fn to_bytes(&self) -> Vec<u8> {
        let stamps = [self.ef_search as u64, self.ef_margin as u64];
        supa_ann::encode_index_set(&[self.indexes.indexes()], stamps)
    }

    /// Reconstructs the master from a checkpoint's index section instead of
    /// rebuilding, after the checks of [`adopt_index_set`]. Any mismatch is
    /// a named error — the caller falls back to a rebuild, never to
    /// silently wrong indexes. The configured beam widths are the ones in
    /// force.
    pub(crate) fn restore(
        opts: &AnnOptions,
        scorer: &ServingSnapshot,
        catalog: &Catalog,
        bytes: &[u8],
    ) -> Result<AnnMaster, String> {
        let indexes = adopt_index_set(scorer.dim(), catalog, bytes)?;
        Ok(AnnMaster::new(opts, catalog, indexes))
    }

    /// Freezes the current masters into a publishable epoch. Given a
    /// retired epoch no reader holds, copies into its indexes' buffers
    /// instead of allocating fresh ones (the layout is fixed at start, so
    /// every group lines up).
    pub(crate) fn freeze(&self, recycled: Option<AnnEpoch>) -> Arc<AnnEpoch> {
        let epoch = match recycled {
            Some(mut epoch) => {
                epoch.indexes.clone_from_slice(self.indexes.indexes());
                epoch
            }
            None => AnnEpoch {
                indexes: self.indexes.indexes().to_vec(),
                group_of: self.group_of.clone(),
                ef_search: self.ef_search,
                ef_margin: self.ef_margin,
            },
        };
        Arc::new(epoch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use supa::{Supa, SupaConfig};
    use supa_datasets::taobao;
    use supa_rng::SplitMix64;

    /// FNV-1a, 64-bit: stable across platforms and toolchains.
    fn fnv1a64(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0100_0000_01B3)
        })
    }

    /// A Taobao-0.01 catalog and a snapshot whose base rows come from a
    /// fixed integer sequence (splitmix64), so the pinned bytes do not
    /// depend on the model's seeded initialisation.
    fn golden_fixture() -> (Catalog, ServingSnapshot) {
        let d = taobao(0.01, 7);
        let mut m = Supa::from_dataset(&d, SupaConfig::small(), 7).unwrap();
        let mut seq = SplitMix64(34);
        let st = m.state_mut_for_tests();
        for t in [&mut st.h_long, &mut st.h_short] {
            for i in 0..t.len() {
                for x in t.row_mut(i) {
                    *x = ((seq.next_u64() % 20_001) as f32 - 10_000.0) * 1e-4;
                }
            }
        }
        (Catalog::new(&d.prototype), m.export_serving_snapshot())
    }

    /// The persisted index section of a default build is pinned: the hash
    /// was taken when the engine could still split its indexes into several
    /// partitions, and the one-partition bytes it wrote must not move.
    #[test]
    fn persisted_index_set_bytes_are_pinned() {
        let (catalog, snap) = golden_fixture();
        let bytes = AnnMaster::build(&AnnOptions::default(), &snap, &catalog).to_bytes();
        assert_eq!(bytes.len(), 384_629);
        assert_eq!(fnv1a64(&bytes), 0x8cbf_284a_6379_3505);
    }

    /// The one-partition set that build writes adopts, fingerprints
    /// verified, and freezes into the same indexes.
    #[test]
    fn a_written_index_set_restores_bit_for_bit() {
        let (catalog, snap) = golden_fixture();
        let opts = AnnOptions::default();
        let built = AnnMaster::build(&opts, &snap, &catalog);
        let restored = AnnMaster::restore(&opts, &snap, &catalog, &built.to_bytes()).unwrap();
        let prints = |m: &AnnMaster| -> Vec<Option<u64>> {
            let epoch = m.freeze(None);
            let print = |i: &Option<HnswIndex>| i.as_ref().map(HnswIndex::fingerprint);
            epoch.indexes.iter().map(print).collect()
        };
        assert_eq!(prints(&restored), prints(&built));
        assert!(prints(&built).iter().all(Option::is_some));
        assert_eq!(restored.to_bytes(), built.to_bytes());
    }
}
