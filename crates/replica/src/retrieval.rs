//! The retrieval core the writer's serving engine and every replica share:
//! which items are candidates for a relation ([`Catalog`]), which shared-base
//! index answers it, how that index follows the model and how a persisted
//! one is adopted ([`GroupIndexes`], [`adopt_index_set`]), and the
//! ANN-or-brute query rule with its exact re-score ([`retrieve`]).
//!
//! "Same epoch ⇒ byte-identical answers" on writer and replica holds because
//! both call this one module — there is no second copy of the layout, the
//! refresh loop, the adoption check or the beam formula to keep in step.

use supa::ServingSnapshot;
use supa_ann::{decode_index_set, AnnConfig, HnswIndex, SearchScratch};
use supa_eval::{top_k_scored_with, TopKScratch};
use supa_graph::{Dmhg, NodeId, RelationId};

/// The candidate layout of a node universe: relations whose edges land on
/// the same destination node type form one *group*
/// ([`supa_graph::GraphSchema::dst_type_groups`]) sharing one candidate list
/// and one shared-base index. A pure function of the schema and the node
/// set, both fixed at start, so the writer, its replicas and a resumed
/// process all derive the identical layout.
#[derive(Debug)]
pub struct Catalog {
    group_of: Vec<usize>,
    /// One candidate list per group, ascending and duplicate-free.
    groups: Vec<Vec<NodeId>>,
}

impl Catalog {
    /// Derives the layout of `graph`'s schema and nodes.
    pub fn new(graph: &Dmhg) -> Catalog {
        let schema = graph.schema();
        let (group_of, num_groups) = schema.dst_type_groups();
        let mut groups: Vec<Vec<NodeId>> = Vec::with_capacity(num_groups);
        for ((rel, spec), &g) in schema.relations().zip(&group_of) {
            // Groups are numbered in order of first appearance.
            if g < groups.len() {
                continue;
            }
            let mut list = graph.nodes_of_type(spec.dst_type).to_vec();
            list.sort_unstable();
            // The graph hands out each node of a type exactly once; a
            // duplicate would double-score (and double-index) an item.
            assert!(
                list.windows(2).all(|w| w[0] < w[1]),
                "duplicate candidate items for relation {rel:?}"
            );
            groups.push(list);
        }
        Catalog { group_of, groups }
    }

    /// Candidate items for `rel` — every node of its destination type,
    /// ascending and duplicate-free (empty for an undeclared relation).
    pub fn candidates(&self, rel: RelationId) -> &[NodeId] {
        let group = self.group_of.get(rel.index());
        group.map_or(&[], |&g| &self.groups[g])
    }

    /// Relation → group (which shared index answers it), by relation id.
    pub fn group_of(&self) -> &[usize] {
        &self.group_of
    }

    /// Every group's full candidate list, indexed by group.
    pub fn groups(&self) -> &[Vec<NodeId>] {
        &self.groups
    }
}

/// The shared-base indexes: one HNSW index per group over the
/// relation-independent base vectors (`h_long + h_short`) of the items the
/// index set *owns* — every candidate, on the writer and on a replica —
/// plus the owned lists that filter refreshes.
#[derive(Debug)]
pub struct GroupIndexes {
    indexes: Vec<Option<HnswIndex>>,
    owned: Vec<Vec<NodeId>>,
    stage: Stage,
}

/// Refresh staging: one group's touched ∩ owned ids and their base rows,
/// handed to `HnswIndex::update_batch` in one call, which drops the ids
/// whose base row did not move and re-links the rest with amortized hole
/// repair.
#[derive(Debug, Default)]
struct Stage {
    ids: Vec<u32>,
    rows: Vec<f32>,
}

impl GroupIndexes {
    /// Builds one index per non-empty owned list, inserting in ascending-id
    /// order — the one insertion order, so two builds over the same snapshot
    /// are structurally bit-identical wherever they run.
    pub fn build(
        config: AnnConfig,
        scorer: &ServingSnapshot,
        owned: Vec<Vec<NodeId>>,
    ) -> GroupIndexes {
        let indexes = owned
            .iter()
            .map(|items| {
                (!items.is_empty()).then(|| {
                    let mut index =
                        HnswIndex::with_capacity(scorer.dim(), config.clone(), items.len());
                    for &item in items {
                        index.insert(item.0, scorer.base_row(item));
                    }
                    index
                })
            })
            .collect();
        GroupIndexes {
            indexes,
            owned,
            stage: Stage::default(),
        }
    }

    /// Re-inserts every touched *owned* item with its new base vector, one
    /// `update_batch` per group. `touched` and the owned lists are ascending,
    /// so the staged batch is too — the batch protocol's requirement — and
    /// the refreshed index is deterministic. Most touched items moved only in a
    /// context row, which the index does not store, and the index leaves
    /// those alone. Returns how many staged (id, group) entries were
    /// re-linked and how many were skipped as unchanged.
    pub fn refresh(&mut self, scorer: &ServingSnapshot, touched: &[u32]) -> (usize, usize) {
        let Stage { ids, rows } = &mut self.stage;
        let (mut relinked, mut unchanged) = (0, 0);
        for (index, owned) in self.indexes.iter_mut().zip(&self.owned) {
            let Some(index) = index else { continue };
            ids.clear();
            rows.clear();
            for &id in touched {
                if owned.binary_search(&NodeId(id)).is_ok() {
                    ids.push(id);
                    rows.extend_from_slice(scorer.base_row(NodeId(id)));
                }
            }
            let linked = index.update_batch(ids, rows);
            relinked += linked;
            unchanged += ids.len() - linked;
        }
        (relinked, unchanged)
    }

    /// Adopts a decoded index set in place of a build, after checking it
    /// against the layout this index set would build: the same group count
    /// and, per group, the model's dimension, the owned item count, and an
    /// index exactly where the owned list is non-empty. Decoding verified
    /// every index's fingerprint, so an adopted set is bit-identical to the
    /// saved one. A mismatch is a named reason: the caller builds instead.
    pub fn adopt(
        dim: usize,
        owned: Vec<Vec<NodeId>>,
        set: Vec<Option<HnswIndex>>,
    ) -> Result<GroupIndexes, String> {
        if set.len() != owned.len() {
            return Err(format!(
                "index set has {} group(s), schema derives {}",
                set.len(),
                owned.len()
            ));
        }
        for (g, (index, own)) in set.iter().zip(&owned).enumerate() {
            let why = match index {
                Some(ix) if ix.dim() != dim => {
                    format!("index dim {} != model dim {dim}", ix.dim())
                }
                Some(ix) if ix.len() != own.len() => format!(
                    "index holds {} item(s), candidate set has {}",
                    ix.len(),
                    own.len()
                ),
                None if !own.is_empty() => {
                    format!("index missing for {} candidate(s)", own.len())
                }
                _ => continue,
            };
            return Err(format!("group {g}: {why}"));
        }
        Ok(GroupIndexes {
            indexes: set,
            owned,
            stage: Stage::default(),
        })
    }

    /// The per-group indexes (`None` where a group has no candidate).
    pub fn indexes(&self) -> &[Option<HnswIndex>] {
        &self.indexes
    }
}

/// Decodes a persisted `SUPANNS1` index set (every fingerprint verified)
/// and adopts it against `catalog`'s full candidate lists. The format keeps
/// an outer partition axis; an index set must carry exactly one partition —
/// an older multi-partition set is refused by name, and the caller
/// rebuilds.
pub fn adopt_index_set(
    dim: usize,
    catalog: &Catalog,
    bytes: &[u8],
) -> Result<GroupIndexes, String> {
    let sets = decode_index_set(bytes).map_err(|e| e.to_string())?;
    let [set] = <[_; 1]>::try_from(sets).map_err(|sets: Vec<_>| {
        let n = sets.len();
        format!("index set has {n} partition(s), one is required")
    })?;
    GroupIndexes::adopt(dim, catalog.groups().to_vec(), set)
}

/// Reusable buffers for [`retrieve`] (beam search, survivors, top-K): once
/// warm, `retrieve` allocates nothing.
#[derive(Debug, Default)]
pub struct Scratch {
    search: SearchScratch,
    cand: Vec<NodeId>,
    topk: TopKScratch,
}

/// Top-`k` of `user` under `rel`: the whole ANN-or-brute rule, a pure
/// function of its arguments. Returns the ranked items (borrowing `scratch`)
/// and whether the ANN arm answered.
///
/// `index` answers `rel`'s group (`None` when serving exactly). The beam is
/// `max(ef_search, k) + ef_margin`; the margin buys back the candidate-side
/// context term the shared-base ranking omits. An index only pays off when
/// that beam is narrower than the catalog, so `k = 0`, tiny catalogs and a
/// group without an index take the exact scan of `candidates`. Otherwise
/// the index is beam-searched with the user's composite vector and the
/// survivors are re-scored by the same [`top_k_scored_with`] as the scan:
/// scores and tie-breaks are bit-identical to brute force, only
/// *membership* can differ.
#[allow(clippy::too_many_arguments)]
pub fn retrieve<'a>(
    snapshot: &ServingSnapshot,
    candidates: &[NodeId],
    index: Option<&HnswIndex>,
    ef_search: usize,
    ef_margin: usize,
    user: NodeId,
    rel: RelationId,
    k: usize,
    scratch: &'a mut Scratch,
) -> (&'a [(NodeId, f32)], bool) {
    let ef = ef_search.max(k).saturating_add(ef_margin);
    let ann = k > 0 && ef < candidates.len() && index.is_some();
    let pool = match index {
        Some(index) if ann => {
            let query = snapshot.composite_row(user, rel);
            let found = index.search_into(query, ef, ef, &mut scratch.search);
            scratch.cand.clear();
            scratch.cand.extend(found.iter().map(|&id| NodeId(id)));
            &scratch.cand
        }
        _ => candidates,
    };
    let items = top_k_scored_with(snapshot, user, pool, rel, k, &mut scratch.topk);
    (items, ann)
}

#[cfg(test)]
mod tests {
    use super::*;
    use supa::{Supa, SupaConfig};
    use supa_datasets::taobao;
    use supa_eval::top_k_scored;

    /// Small construction parameters: these tests pin structure, not recall.
    fn config() -> AnnConfig {
        AnnConfig {
            m: 8,
            ef_construction: 32,
            seed: 7,
        }
    }

    /// Taobao's catalog (four User→Item relations, one group) and the
    /// snapshot of a freshly initialised model over it.
    fn fixture(seed: u64) -> (Catalog, ServingSnapshot) {
        let d = taobao(0.01, 11);
        let model = Supa::from_dataset(&d, SupaConfig::small(), seed).unwrap();
        (Catalog::new(&d.prototype), model.export_serving_snapshot())
    }

    fn fingerprints(ix: &GroupIndexes) -> Vec<Option<u64>> {
        let print = |i: &Option<HnswIndex>| i.as_ref().map(HnswIndex::fingerprint);
        ix.indexes().iter().map(print).collect()
    }

    #[test]
    fn adopt_names_the_reason_for_every_layout_mismatch() {
        let (catalog, snap) = fixture(3);
        let full = catalog.groups().to_vec();
        let built = GroupIndexes::build(config(), &snap, full.clone());
        let set = || built.indexes().to_vec();
        let dim = snap.dim();
        let mut short = full.clone();
        short[0].pop();
        let empty = vec![Vec::new(); full.len()];
        let mut holed = set();
        holed[0] = None;
        let mut extra = set();
        extra.push(None);
        for (what, dim, owned, set, reason) in [
            ("wrong dim", dim + 1, full.clone(), set(), "index dim"),
            ("wrong item count", dim, short, set(), "index holds"),
            (
                "index for an empty group",
                dim,
                empty,
                set(),
                "candidate set has 0",
            ),
            ("missing index", dim, full.clone(), holed, "index missing"),
            ("wrong group count", dim, full.clone(), extra, "group(s)"),
        ] {
            let why = GroupIndexes::adopt(dim, owned, set).expect_err(what);
            assert!(why.contains(reason), "{what}: {why}");
        }
        let adopted = GroupIndexes::adopt(dim, full, set()).expect("the built layout adopts");
        assert_eq!(fingerprints(&adopted), fingerprints(&built));
    }

    /// A one-partition set adopts with its fingerprints; an older
    /// two-partition set (two halves of the catalog) is refused by name.
    #[test]
    fn adopt_index_set_takes_one_partition_and_refuses_two() {
        let (catalog, snap) = fixture(4);
        let whole = GroupIndexes::build(config(), &snap, catalog.groups().to_vec());
        let bytes = supa_ann::encode_index_set(&[whole.indexes()], [40, 12]);
        let adopted = adopt_index_set(snap.dim(), &catalog, &bytes).unwrap();
        assert_eq!(fingerprints(&adopted), fingerprints(&whole));

        let halves = [0, 1].map(|s| {
            let half = catalog
                .groups()
                .iter()
                .map(|g| g.iter().copied().filter(|c| c.0 % 2 == s).collect());
            GroupIndexes::build(config(), &snap, half.collect())
        });
        let bytes =
            supa_ann::encode_index_set(&halves.each_ref().map(GroupIndexes::indexes), [0, 0]);
        let why = adopt_index_set(snap.dim(), &catalog, &bytes).unwrap_err();
        assert!(why.contains("2 partition(s)"), "{why}");
    }

    #[test]
    fn retrieve_picks_the_arm_and_always_scores_exactly() {
        let (catalog, snap) = fixture(5);
        // Taobao numbers its users first: node 0 is a user.
        let (rel, user) = (RelationId(0), NodeId(0));
        let cands = catalog.candidates(rel);
        assert!(
            cands.len() > 64,
            "fixture catalog must exceed the test beams"
        );
        let whole = GroupIndexes::build(config(), &snap, catalog.groups().to_vec());
        let one = || whole.indexes()[0].as_ref();
        let brute = top_k_scored(&snap, user, cands, rel, 10);
        let mut scratch = Scratch::default();

        let (items, ann) = retrieve(&snap, cands, one(), 8, 4, user, rel, 0, &mut scratch);
        assert!(items.is_empty() && !ann, "k = 0 answers nothing, exactly");
        for (what, ef_search, ef_margin) in [
            ("beam = catalog", cands.len(), 0),
            ("margin overflows", 8, usize::MAX),
        ] {
            let (items, ann) = retrieve(
                &snap,
                cands,
                one(),
                ef_search,
                ef_margin,
                user,
                rel,
                10,
                &mut scratch,
            );
            assert!(!ann && items == brute, "{what}: must be the exact scan");
        }
        let (items, ann) = retrieve(&snap, cands, None, 8, 4, user, rel, 10, &mut scratch);
        assert!(!ann && items == brute, "no index: must be the exact scan");

        // ANN arm: every returned score is Eq. 15 on the snapshot, bit for
        // bit — whatever the membership.
        let exact = |items: &[(NodeId, f32)]| {
            items
                .iter()
                .all(|&(v, s)| s.to_bits() == snap.gamma(user, v, rel).to_bits())
        };
        let (items, ann) = retrieve(&snap, cands, one(), 8, 4, user, rel, 10, &mut scratch);
        assert!(ann && items.len() == 10 && exact(items));
        assert!(items.windows(2).all(|w| w[0].1 >= w[1].1), "best first");
    }

    /// Writer ≡ replica by construction: the same build and the same
    /// refreshes give the same index, bit for bit.
    #[test]
    fn equal_builds_and_refreshes_give_equal_fingerprints() {
        let (catalog, snap) = fixture(7);
        let (_, moved) = fixture(8);
        let full = || catalog.groups().to_vec();
        let mut a = GroupIndexes::build(config(), &snap, full());
        let mut b = GroupIndexes::build(config(), &snap, full());
        let before = fingerprints(&a);
        assert_eq!(before, fingerprints(&b));
        let items = catalog.candidates(RelationId(0));
        let touched: Vec<u32> = items.iter().step_by(7).map(|v| v.0).collect();
        for batch in [&touched[..], &touched[..3], &[0, u32::MAX][..]] {
            let n = a.refresh(&moved, batch);
            assert_eq!(n, b.refresh(&moved, batch));
            assert_eq!(fingerprints(&a), fingerprints(&b));
        }
        let after = fingerprints(&a);
        assert_ne!(before, after, "the refresh must have moved vectors");
        // Stage every candidate: the stepped ones again unchanged, the rest
        // moved. Only the moved ones are re-linked, on both sides alike.
        let every: Vec<u32> = items.iter().map(|v| v.0).collect();
        let n = a.refresh(&moved, &every);
        assert_eq!(n, (every.len() - touched.len(), touched.len()));
        assert_eq!(n, b.refresh(&moved, &every));
        assert_eq!(fingerprints(&a), fingerprints(&b));
        // Nothing moved since: a full re-stage is a no-op.
        let prints = fingerprints(&a);
        assert_eq!(a.refresh(&moved, &every), (0, every.len()));
        assert_eq!(fingerprints(&a), prints);
        assert_ne!(prints, after);
    }
}
