//! Reader-side replica: applies baseline/delta frames to a local serving
//! snapshot + ANN indexes and answers top-K queries through
//! [`crate::retrieval`] — the module the writer's serving path calls too, so
//! answers at the same epoch are bit-identical.

use std::io::BufReader;
use std::net::TcpStream;
use std::path::Path;
use std::time::Duration;

use supa::delta::{decode_frame, read_frame, Frame, WireError, MAGIC_BASELINE, MAGIC_DELTA};
use supa::ServingSnapshot;
use supa_ann::{decode_index_set, AnnConfig};
use supa_graph::{Dmhg, NodeId, RelationId};

use crate::retrieval::{retrieve, Catalog, GroupIndexes, Scratch};

/// The ANN parameters writer and replica share; the writer's `AnnOptions`
/// takes its defaults from here. `m`, `ef_construction` and `seed` must be
/// equal on both sides for bit-identical index structure
/// (`ef_search`/`ef_margin` only shape queries, not the index).
#[derive(Debug, Clone)]
pub struct AnnParams {
    /// Max neighbors per node on upper index layers.
    pub m: usize,
    /// Beam width while inserting/refreshing index nodes.
    pub ef_construction: usize,
    /// Query beam width (clamped to ≥ k per query).
    pub ef_search: usize,
    /// Extra beam width recovering the candidate-side per-relation context
    /// term the shared-base ranking omits (see the writer's `ef_margin`).
    pub ef_margin: usize,
    /// Seed for deterministic level assignment.
    pub seed: u64,
}

impl Default for AnnParams {
    fn default() -> Self {
        AnnParams {
            m: 16,
            ef_construction: 128,
            ef_search: 64,
            ef_margin: 32,
            seed: 7,
        }
    }
}

impl AnnParams {
    /// The index-construction part of the parameters.
    pub fn config(&self) -> AnnConfig {
        AnnConfig {
            m: self.m,
            ef_construction: self.ef_construction,
            seed: self.seed,
        }
    }
}

/// Replication counters a replica accumulates while tailing a stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplicaCounters {
    /// Baseline frames applied (initial bootstrap + resyncs).
    pub baselines_applied: u64,
    /// Delta frames applied.
    pub deltas_applied: u64,
    /// Wire bytes of applied frames.
    pub bytes_applied: u64,
    /// Edge events appended to the local graph.
    pub events_appended: u64,
    /// Frames rejected by CRC/framing (torn or corrupt).
    pub crc_failures: u64,
    /// Epoch-chain gaps detected.
    pub gaps: u64,
    /// Resyncs performed (TCP reconnect or segment scan to a baseline).
    pub resyncs: u64,
    /// A segment replay ended on a torn tail frame (writer died mid-append).
    pub torn_tail: u64,
    /// Baselines whose embedded ANN index set was adopted verbatim (rebuild
    /// skipped, fingerprints verified during decode).
    pub index_adoptions: u64,
    /// Baselines that forced a local index rebuild (no embedded index, or
    /// an embedded set whose layout didn't match this replica's).
    pub index_rebuilds: u64,
}

/// A read replica: local graph + snapshot + ANN indexes, advanced purely by
/// replication frames.
pub struct Replica {
    graph: Dmhg,
    /// The candidate layout, derived from the same fixed node universe as
    /// the writer's.
    catalog: Catalog,
    snapshot: Option<ServingSnapshot>,
    epoch: u64,
    ann: Option<AnnParams>,
    /// The shared-base indexes over the full catalog (one partition owning
    /// everything); `None` until a baseline arrives or when serving exactly.
    indexes: Option<GroupIndexes>,
    scratch: Scratch,
    /// Stream counters (public: the CLI bridges these into serve metrics).
    pub counters: ReplicaCounters,
}

impl Replica {
    /// Creates an empty replica over the writer's node universe (`graph` is
    /// typically the dataset prototype — same schema and nodes, no edges).
    /// Queries return nothing until a baseline frame arrives.
    pub fn new(graph: Dmhg, ann: Option<AnnParams>) -> Replica {
        Replica {
            catalog: Catalog::new(&graph),
            graph,
            snapshot: None,
            epoch: 0,
            ann,
            indexes: None,
            scratch: Scratch::default(),
            counters: ReplicaCounters::default(),
        }
    }

    /// The epoch of the last applied frame (0 before any baseline).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether a baseline has been applied yet.
    pub fn bootstrapped(&self) -> bool {
        self.snapshot.is_some()
    }

    /// The current snapshot, if bootstrapped.
    pub fn snapshot(&self) -> Option<&ServingSnapshot> {
        self.snapshot.as_ref()
    }

    /// Candidate items for a relation (all nodes of its destination type).
    pub fn candidates(&self, rel: RelationId) -> &[NodeId] {
        self.catalog.candidates(rel)
    }

    /// Applies one frame. Baselines always apply (they *are* the resync
    /// mechanism); deltas must chain onto the current epoch or the call
    /// fails with [`WireError::EpochGap`] without touching any state.
    pub fn apply(&mut self, frame: &Frame) -> Result<(), WireError> {
        match frame {
            Frame::Baseline(b) => {
                let n = b.snapshot.num_nodes();
                let fits = |list: &Vec<NodeId>| list.last().is_none_or(|max| max.index() < n);
                if !self.catalog.groups().iter().all(fits) {
                    return Err(WireError::LayoutMismatch(
                        "baseline smaller than local node universe",
                    ));
                }
                self.snapshot = Some(b.snapshot.clone());
                self.epoch = b.epoch;
                if let Some(params) = &self.ann {
                    let owned = || self.catalog.groups().to_vec();
                    // A set that does not match this replica's layout is
                    // reported and rebuilt — never silently adopted.
                    let adopted = b
                        .index
                        .as_deref()
                        .map(|bytes| adopt_set(b.snapshot.dim(), owned(), bytes))
                        .transpose()
                        .unwrap_or_else(|why| {
                            eprintln!(
                                "supa-replica: baseline ann index rejected ({why}); \
                                 rebuilding indexes"
                            );
                            None
                        });
                    self.indexes = Some(match adopted {
                        Some(indexes) => {
                            self.counters.index_adoptions += 1;
                            indexes
                        }
                        // Built in the writer's initial-build order, so an
                        // epoch-0 bootstrap is still bit-identical; after a
                        // mid-stream resync the structure may differ from the
                        // writer's refreshed one, which only top-K membership
                        // can show (scores stay exact).
                        None => {
                            self.counters.index_rebuilds += 1;
                            GroupIndexes::build(params.config(), &b.snapshot, owned())
                        }
                    });
                }
                self.counters.baselines_applied += 1;
                Ok(())
            }
            Frame::Delta(d) => {
                let Some(snapshot) = self.snapshot.as_mut() else {
                    return Err(WireError::LayoutMismatch("delta before any baseline"));
                };
                if d.parent != self.epoch {
                    return Err(WireError::EpochGap {
                        expected: self.epoch,
                        got: d.parent,
                    });
                }
                snapshot.apply_delta(d)?;
                for e in &d.events {
                    if self
                        .graph
                        .add_edge(e.src, e.dst, e.relation, e.time)
                        .is_ok()
                    {
                        self.counters.events_appended += 1;
                    }
                }
                // The writer's per-epoch refresh, over the frame's dirty list.
                if let Some(indexes) = &mut self.indexes {
                    indexes.refresh(snapshot, &d.ann_dirty);
                }
                self.epoch = d.epoch;
                self.counters.deltas_applied += 1;
                Ok(())
            }
        }
    }

    /// Answers a top-K query against the replica's current epoch by the
    /// shared rule ([`retrieve`]): through the group's index when one applies
    /// and the exact scan otherwise, survivors re-scored exactly — so same
    /// epoch ⇒ byte-identical ids and scores as the writer.
    pub fn query(&mut self, user: NodeId, rel: RelationId, k: usize) -> Vec<(NodeId, f32)> {
        let Some(snapshot) = &self.snapshot else {
            return Vec::new();
        };
        let index = self
            .indexes
            .as_ref()
            .zip(self.catalog.group_of().get(rel.index()))
            .and_then(|(ix, &g)| ix.indexes()[g].as_ref());
        let p = self.ann.as_ref();
        let (items, _) = retrieve(
            snapshot,
            self.catalog.candidates(rel),
            index.into_iter(),
            p.map_or(0, |p| p.ef_search),
            p.map_or(0, |p| p.ef_margin),
            user,
            rel,
            k,
            &mut self.scratch,
        );
        items.to_vec()
    }
}

/// Decodes a baseline's embedded index set (every fingerprint verified) and
/// adopts it against `owned`. A sharded writer's set partitions the catalog
/// per shard; a replica keeps one full-catalog index per group, so only an
/// unsharded (single-partition) set is structurally adoptable.
fn adopt_set(dim: usize, owned: Vec<Vec<NodeId>>, bytes: &[u8]) -> Result<GroupIndexes, String> {
    let (sets, _stamps) = decode_index_set(bytes).map_err(|e| e.to_string())?;
    let [set] = <[_; 1]>::try_from(sets).map_err(|sets: Vec<_>| {
        let n = sets.len();
        format!("index set has {n} partition(s), a replica holds one")
    })?;
    GroupIndexes::adopt(dim, owned, set)
}

/// Scans `buf` from `from` for the next frame magic (either kind).
fn next_magic(buf: &[u8], from: usize) -> Option<usize> {
    let window = 13;
    if buf.len() < window {
        return None;
    }
    (from..=buf.len() - window)
        .find(|&i| &buf[i..i + window] == MAGIC_DELTA || &buf[i..i + window] == MAGIC_BASELINE)
}

/// Scans `buf` from `from` for the next *baseline* magic (resync point).
fn next_baseline(buf: &[u8], from: usize) -> Option<usize> {
    let window = 13;
    if buf.len() < window {
        return None;
    }
    (from..=buf.len() - window).find(|&i| &buf[i..i + window] == MAGIC_BASELINE)
}

/// Replays a segment file into `replica`.
///
/// Corrupt frames (CRC/magic/length) are counted and skipped by scanning to
/// the next frame magic; the epoch gap that skipping creates is then healed
/// by scanning to the next *baseline* frame (a resync) — if the segment has
/// none, the gap is returned as the named error so the caller knows the
/// replica needs a fresh checkpoint, rather than silently serving stale
/// state. A torn tail (writer died mid-append) ends the replay cleanly with
/// the `torn_tail` counter set.
pub fn replay_segment(path: &Path, replica: &mut Replica) -> Result<(), WireError> {
    let buf = std::fs::read(path)?;
    let mut pos = 0usize;
    while pos < buf.len() {
        match decode_frame(&buf[pos..]) {
            Ok((frame, consumed)) => match replica.apply(&frame) {
                Ok(()) => {
                    replica.counters.bytes_applied += consumed as u64;
                    pos += consumed;
                }
                Err(WireError::EpochGap { expected, got }) => {
                    replica.counters.gaps += 1;
                    match next_baseline(&buf, pos + consumed) {
                        Some(next) => {
                            replica.counters.resyncs += 1;
                            pos = next;
                        }
                        None => return Err(WireError::EpochGap { expected, got }),
                    }
                }
                Err(err) => return Err(err),
            },
            Err(WireError::Truncated) => {
                // Only a tail can truncate a slice that runs to EOF.
                replica.counters.torn_tail += 1;
                return Ok(());
            }
            Err(
                WireError::CrcMismatch { .. }
                | WireError::WrongMagic
                | WireError::ImplausibleLength(_),
            ) => {
                replica.counters.crc_failures += 1;
                match next_magic(&buf, pos + 1) {
                    Some(next) => pos = next,
                    None => return Ok(()),
                }
            }
            Err(err) => return Err(err),
        }
    }
    Ok(())
}

/// Tails a writer's TCP delta stream until the writer closes it.
///
/// Every (re)connection starts with a baseline from the publisher, so a
/// reconnect *is* the resync protocol: CRC failures, torn frames, and epoch
/// gaps all tear the connection down, tick their counters, and reconnect up
/// to `max_resyncs` times. Returns cleanly when the writer shuts the stream
/// at a frame boundary.
pub fn run_tcp(addr: &str, replica: &mut Replica, max_resyncs: usize) -> Result<(), WireError> {
    let mut resyncs_left = max_resyncs;
    loop {
        let stream = connect_with_retry(addr)?;
        let mut reader = BufReader::new(stream);
        let disconnect = loop {
            match read_frame(&mut reader) {
                Ok(Some(frame)) => {
                    // Frame sizes are re-derived from the encoding; close
                    // enough for lag/bytes accounting without re-encoding.
                    match replica.apply(&frame) {
                        Ok(()) => {
                            replica.counters.bytes_applied += frame.encode().len() as u64;
                        }
                        Err(WireError::EpochGap { .. }) => {
                            replica.counters.gaps += 1;
                            break None;
                        }
                        Err(err) => break Some(err),
                    }
                }
                Ok(None) => return Ok(()),
                Err(WireError::CrcMismatch { .. } | WireError::Truncated) => {
                    replica.counters.crc_failures += 1;
                    break None;
                }
                Err(err) => break Some(err),
            }
        };
        if let Some(err) = disconnect {
            return Err(err);
        }
        if resyncs_left == 0 {
            return Err(WireError::LayoutMismatch("resync budget exhausted"));
        }
        resyncs_left -= 1;
        replica.counters.resyncs += 1;
    }
}

/// Connects with retries so a replica may be started moments before its
/// writer finishes binding the publish socket.
fn connect_with_retry(addr: &str) -> Result<TcpStream, WireError> {
    let mut last = None;
    for _ in 0..200 {
        match TcpStream::connect(addr) {
            Ok(s) => return Ok(s),
            Err(e) => {
                last = Some(e);
                std::thread::sleep(Duration::from_millis(25));
            }
        }
    }
    Err(WireError::Io(last.unwrap_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::TimedOut, "connect retries exhausted")
    })))
}
