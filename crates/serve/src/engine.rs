//! The serving engine: one writer thread drains a bounded event queue
//! through a [`StreamGuard`] into incremental InsLearn updates, publishing
//! epoch-versioned [`ServingSnapshot`]s that reader threads score against.
//!
//! # Concurrency model
//!
//! - **Ingest** is one bounded MPMC channel, for every shard count: queue
//!   order *is* the global event order. Under the default
//!   [`ShedPolicy::Block`] producers block when the writer falls behind
//!   (backpressure, never unbounded growth). The other shedding policies
//!   trade completeness for bounded producer latency — see
//!   [`crate::admission`] for the degradation ladder that decides *when*
//!   events are shed and [`AdmissionOptions`] for the knobs.
//! - **Control** (flush/shutdown/kill) travels on a separate unbounded
//!   channel, so it can never be shed and never waits behind a full queue;
//!   before honoring a control message the writer drains exactly the events
//!   that were queued when it dequeued the message, so control never
//!   overtakes data and a busy producer cannot hold a flush open.
//! - **Training** is single-writer: the writer thread exclusively owns the
//!   graph, the model, the guard, and the checkpoint manager. No lock is
//!   ever held during training.
//! - **Publication** swaps an `Arc<EpochSnapshot>` behind a
//!   `parking_lot::RwLock`. Readers clone the `Arc` under a read lock held
//!   for nanoseconds and then score lock-free against an immutable snapshot,
//!   so a query can never observe a half-written embedding table — results
//!   are torn-free *by construction*, and every answer is attributable to
//!   exactly one published epoch. Shedding never touches this path: a
//!   degraded engine drops *ingest* work, never read consistency.
//! - **Verification**: the last [`ServeConfig::keep_history`] snapshots are
//!   retained so a result claiming epoch `e` can be re-scored against the
//!   actual epoch-`e` tables and compared bit-for-bit.
//! - **Retrieval** — which items are candidates, which index answers a
//!   relation, how wide the beam is and how survivors are re-scored — is not
//!   decided here: queries, `verify` and the recall guard all call
//!   `supa_replica::retrieval`, the code every replica runs too. The
//!   writer-side index masters, the per-epoch freeze and the recall
//!   auto-tuner live in `crate::ann`.
//!
//! # Sharding ([`ServeConfig::shards`])
//!
//! The engine is partitioned by the owning shard of each event's *source
//! user* (`supa_par::shard_of`, a splitmix64 hash, so ownership is
//! host-independent): each shard gets its own [`StreamGuard`], admission
//! ladder, metrics block, and query cache, and the unsharded engine is the
//! one-shard case of the same code. Sharding does not touch transport or
//! training order: every event travels the one ingest queue, the writer
//! derives the owning shard from the event it dequeues, and each shard's
//! ladder watches a per-shard in-flight counter (incremented on enqueue,
//! decremented on dequeue or eviction) against its share of the queue
//! capacity. Epoch publication is a two-phase barrier: per-shard ANN
//! refreshes run (in parallel where cores allow) to the common epoch number,
//! then one composed [`EpochSnapshot`] is swapped in atomically — readers
//! can never observe two shards at different epochs. `shards = 1` trains in
//! the serial digest regime and any `N ≥ 2` in the wave-frozen one
//! (`Supa::set_shards`): one pinned, deterministic result independent of N
//! and of the host's core count.

use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::mpsc as std_mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel;
use parking_lot::{Mutex, RwLock};
use supa::{CheckpointManager, ServingSnapshot, Supa, TrainOptions};
use supa_eval::RecallAccumulator;
use supa_graph::{
    Dmhg, EventPriority, NodeId, QuarantineError, QuarantinePolicy, QuarantineReport, RelationId,
    StreamGuard, TemporalEdge,
};

use supa::delta::GuardState;
use supa_replica::retrieval::{retrieve, Catalog, GroupIndexes, Scratch};
use supa_replica::{AnnParams, DeltaPublisher, PublishOptions};

use crate::admission::{AdmissionCtl, AdmissionOptions, DegradeLevel, ShedPolicy};
pub use crate::ann::AnnEpoch;
use crate::ann::AnnMaster;
use crate::cache::QueryCache;
use crate::metrics::{MetricsReport, ServeMetrics};

thread_local! {
    /// Per-reader retrieval buffers for the query and verify paths:
    /// concurrent readers each keep their own, so scoring allocates nothing
    /// once warm and readers never serialise on a shared buffer.
    static SCRATCH: std::cell::RefCell<Scratch> = std::cell::RefCell::new(Scratch::default());
}

/// Checkpointing behaviour for a serving engine (all via PR 1's
/// [`CheckpointManager`]: atomic writes, CRC validation, rotation).
#[derive(Debug, Clone)]
pub struct CheckpointOptions {
    /// Directory checkpoints are written to.
    pub dir: std::path::PathBuf,
    /// Save a checkpoint every this many trained chunks (clamped to ≥ 1).
    pub every: usize,
    /// How many checkpoints to retain.
    pub keep: usize,
    /// Warm-start from the newest valid checkpoint before serving. The
    /// checkpoint's stream position tells the writer how many admitted
    /// events to replay into the graph without retraining.
    pub resume: bool,
}

impl CheckpointOptions {
    /// Checkpoints in `dir` every 8 chunks, keeping 3, no resume.
    pub fn new(dir: impl Into<std::path::PathBuf>) -> Self {
        CheckpointOptions {
            dir: dir.into(),
            every: 8,
            keep: 3,
            resume: false,
        }
    }
}

/// Tuning for the approximate-nearest-neighbor serving path
/// ([`ServeConfig::ann`]).
///
/// When enabled, each published epoch carries *shared-base* [`HnswIndex`]es:
/// one index per destination-type group (relations whose edges land on the
/// same node type share one candidate set and therefore one index) over the
/// relation-independent base vectors `h_long + h_short`. A query beams the
/// group's index with its composite vector, widened by [`AnnOptions::ef_margin`]
/// to absorb the candidate-side `ctx_r` term the base ranking omits, then
/// re-scores the surviving candidates *exactly* — so every returned score is
/// bit-identical to what the brute-force path would assign; only membership
/// of the top-K can differ, and the recall guard meters exactly that.
#[derive(Debug, Clone)]
pub struct AnnOptions {
    /// Query beam width (clamped to ≥ k per query). Larger means higher
    /// recall and more exact re-scores per query.
    pub ef_search: usize,
    /// Extra beam width on top of `ef_search`. The shared-base index ranks
    /// by `⟨composite_u, base_v⟩`, which differs from the served score by
    /// the candidate's per-relation context term; the margin keeps enough
    /// extra candidates in the beam for the exact re-score to recover the
    /// true top-K.
    pub ef_margin: usize,
    /// Max neighbors per node on upper index layers (layer 0 keeps `2·m`).
    pub m: usize,
    /// Beam width while inserting/refreshing index nodes.
    pub ef_construction: usize,
    /// Re-score one in `guard_every` ANN-served queries against the full
    /// candidate set and record recall@K (0 disables the guard). The guard
    /// only *observes* — it never substitutes the exact answer — so query
    /// results stay a pure function of the published epoch and `verify`
    /// remains an exact torn-read check.
    pub guard_every: u64,
    /// Recall floor: a guard check below this tallies a breach in metrics.
    pub min_recall: f64,
    /// Let the writer nudge the effective `ef_search`/`ef_margin` up when
    /// the recall guard sustains breaches and back toward the configured
    /// base once recall is comfortably above the floor. The effective
    /// values are stamped into each published epoch, so queries (and
    /// `verify` replays) stay a pure function of the epoch they hit.
    /// Requires `guard_every > 0`. Off by default: the static configuration
    /// remains bit-identical to previous releases.
    pub auto_tune: bool,
    /// Seed for the index's deterministic level assignment.
    pub seed: u64,
}

impl Default for AnnOptions {
    /// The shared [`AnnParams`] defaults (so a default writer and a default
    /// replica agree by construction) plus the guard's own.
    fn default() -> Self {
        let p = AnnParams::default();
        AnnOptions {
            ef_search: p.ef_search,
            ef_margin: p.ef_margin,
            m: p.m,
            ef_construction: p.ef_construction,
            guard_every: 64,
            min_recall: 0.95,
            auto_tune: false,
            seed: p.seed,
        }
    }
}

impl AnnOptions {
    /// The part of the options a replica must mirror.
    pub(crate) fn params(&self) -> AnnParams {
        AnnParams {
            m: self.m,
            ef_construction: self.ef_construction,
            ef_search: self.ef_search,
            ef_margin: self.ef_margin,
            seed: self.seed,
        }
    }
}

/// Tuning knobs for [`ServeEngine::start`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Ingest queue capacity; must be ≥ 1 ([`ServeEngine::start`] rejects 0
    /// with a named error). What happens when it fills is the admission
    /// policy's call ([`ServeConfig::admission`]): `block` producers, or
    /// shed.
    pub queue_capacity: usize,
    /// Admitted events per training chunk (one `fit_incremental` call;
    /// clamped ≥ 1). Smaller chunks mean fresher embeddings, larger chunks
    /// mean higher ingest throughput. Under overload the degradation ladder
    /// may temporarily widen chunks by [`AdmissionOptions::chunk_scale`].
    pub train_batch: usize,
    /// Publish a snapshot every this many trained chunks (clamped ≥ 1).
    pub snapshot_every: usize,
    /// Admission policy for malformed events.
    pub policy: QuarantinePolicy,
    /// Max cached top-K results (0 disables the cache).
    pub cache_capacity: usize,
    /// How many published snapshots to retain for epoch-consistency
    /// verification (clamped ≥ 1; the current snapshot is always retained).
    pub keep_history: usize,
    /// Optional checkpointing (see [`CheckpointOptions`]).
    pub checkpoint: Option<CheckpointOptions>,
    /// Worker threads for the writer's training passes (conflict-aware event
    /// micro-batching inside the single-writer model; `1` = exact serial
    /// training, `0` = machine parallelism). Only the gradient computation
    /// fans out — ingest, admission, and publication stay single-writer.
    pub workers: usize,
    /// Approximate top-K serving via per-epoch ANN indexes (`None` = exact
    /// brute-force scoring of the full candidate list on every query).
    pub ann: Option<AnnOptions>,
    /// Overload admission control: shedding policy, priority classes, and
    /// the degradation-ladder detector. The default ([`ShedPolicy::Block`])
    /// is bit-identical to the pre-admission engine.
    pub admission: AdmissionOptions,
    /// Epoch-delta replication: publish every epoch's touched set to a TCP
    /// stream and/or an append-only segment file (`None` = no replication).
    pub replication: Option<PublishOptions>,
    /// Writer shards (clamped ≥ 1 by validation; 0 is rejected with a named
    /// error). `1` is the unsharded engine, bit-identical to every prior
    /// release. `N ≥ 2` partitions guarding, admission, caching, metrics,
    /// and ANN maintenance by the owning shard of each event's source user;
    /// ingest order and training stay one sequential stream — see the module
    /// docs.
    pub shards: usize,
    /// Test seam: panic the writer thread after absorbing this many events,
    /// exercising the panic-propagation path (`EngineClosed` with a
    /// [`ClosedCause::Panic`] cause). Never set in production.
    #[doc(hidden)]
    pub panic_after: Option<u64>,
    /// Test seam: panic this shard's task during the next epoch publication,
    /// exercising the kill-one-shard path (producers get `EngineClosed` with
    /// [`ClosedCause::Panic`]; the stop cause names the shard). Never set in
    /// production.
    #[doc(hidden)]
    pub panic_shard: Option<usize>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_capacity: 1024,
            train_batch: 64,
            snapshot_every: 1,
            policy: QuarantinePolicy::Skip,
            cache_capacity: 4096,
            keep_history: 8,
            checkpoint: None,
            workers: 1,
            ann: None,
            admission: AdmissionOptions::default(),
            replication: None,
            shards: 1,
            panic_after: None,
            panic_shard: None,
        }
    }
}

/// One published embedding state, tagged with its epoch number.
#[derive(Debug)]
pub struct EpochSnapshot {
    /// 0 for the warm-start state, incremented per publication.
    pub epoch: u64,
    /// The frozen scorer (bit-identical to the model at publication time).
    pub scorer: ServingSnapshot,
    /// Shared-base ANN indexes frozen with the scorer (`None` when ANN
    /// serving is disabled). Retained with the snapshot in the history ring
    /// so `verify` re-runs the *identical* retrieval path of the epoch a
    /// result claims.
    pub ann: Option<Arc<AnnEpoch>>,
}

/// Writer-exit codes for [`Shared::closed`]. `OPEN` means the writer is
/// (as far as anyone knows) still consuming.
const OPEN: u8 = 0;
const CLOSED_SHUTDOWN: u8 = 1;
const CLOSED_FAULT: u8 = 2;
const CLOSED_PANIC: u8 = 3;
const CLOSED_KILLED: u8 = 4;

/// State shared between the writer thread and all reader threads.
///
/// The per-shard vectors (`caches`, `metrics`, `admission`) always have
/// exactly [`Shared::shards`] entries; an unsharded engine is the
/// one-element case, and `shard_of(_, 1) == 0` makes every routed access
/// hit element 0 — identical to the pre-sharding engine.
struct Shared {
    current: RwLock<Arc<EpochSnapshot>>,
    history: Mutex<std::collections::VecDeque<Arc<EpochSnapshot>>>,
    /// Per-shard query caches, keyed by the owning shard of the queried
    /// user, so cache capacity and eviction pressure partition with the
    /// users.
    caches: Vec<QueryCache>,
    /// Per-shard counters; engine-level facts (`epochs_published`, delta
    /// counters) live on shard 0. Reports merge all shards.
    metrics: Vec<ServeMetrics>,
    /// Writer shard count (≥ 1).
    shards: usize,
    /// Per-shard events in flight on the ingest queue: a producer counts
    /// its event *before* sending (so the count can never dip below zero),
    /// and whoever takes the event off the queue — the writer, or a
    /// drop-oldest producer evicting it — uncounts it. This is the occupancy
    /// each shard's ladder observes.
    in_flight: Vec<AtomicUsize>,
    /// The candidate layout. The node universe is fixed at start — the
    /// guard rejects events naming unknown nodes — so it never changes.
    catalog: Catalog,
    /// ANN serving configuration (readers need `ef_search` and the guard
    /// cadence); `None` when serving exactly.
    ann_opts: Option<AnnOptions>,
    /// Per-shard overload detectors and ladder state; `None` under
    /// [`ShedPolicy::Block`] (detector off, classic backpressure, zero
    /// hot-path overhead).
    admission: Option<Vec<AdmissionCtl>>,
    /// Why the writer stopped (`OPEN` while it runs). Written exactly once:
    /// by the writer on a clean exit, or by its panic guard. Producers that
    /// keep a queue receiver alive (drop-oldest) poll this instead of
    /// relying on channel disconnection.
    closed: AtomicU8,
}

impl Shared {
    /// The closed-cause for producer-facing errors. Racing a writer that
    /// has stopped but not yet stored its code resolves as `Shutdown`.
    fn closed_cause(&self) -> ClosedCause {
        match self.closed.load(Ordering::SeqCst) {
            CLOSED_FAULT => ClosedCause::Fault,
            CLOSED_PANIC => ClosedCause::Panic,
            CLOSED_KILLED => ClosedCause::Killed,
            _ => ClosedCause::Shutdown,
        }
    }

    /// The metrics block of the shard owning `node`.
    fn metrics_of(&self, node: u32) -> &ServeMetrics {
        &self.metrics[supa_par::shard_of(node, self.shards)]
    }

    /// The query cache of the shard owning `node`.
    fn cache_of(&self, node: u32) -> &QueryCache {
        &self.caches[supa_par::shard_of(node, self.shards)]
    }

    /// Engine-wide staleness: Σ ingested − Σ applied across shards.
    fn staleness(&self) -> u64 {
        let ingested: u64 = self
            .metrics
            .iter()
            .map(|m| m.events_ingested.load(Ordering::Relaxed))
            .sum();
        let applied: u64 = self
            .metrics
            .iter()
            .map(|m| m.events_applied.load(Ordering::Relaxed))
            .sum();
        ingested.saturating_sub(applied)
    }

    /// Engine-wide shed tally across shards and priority classes.
    fn total_shed(&self) -> u64 {
        self.metrics.iter().map(|m| m.events_shed()).sum()
    }

    /// Engine-wide quarantine tally across shards.
    fn total_quarantined(&self) -> u64 {
        self.metrics
            .iter()
            .map(|m| m.events_quarantined.load(Ordering::Relaxed))
            .sum()
    }

    /// The worst (highest) degradation level across shard ladders; 0 under
    /// the block policy.
    fn max_level(&self) -> u8 {
        self.admission.as_ref().map_or(0, |ctls| {
            ctls.iter().map(|c| c.level().as_u8()).max().unwrap_or(0)
        })
    }

    /// All shards' counters folded into one engine-level block.
    fn merged_metrics(&self) -> ServeMetrics {
        let merged = ServeMetrics::default();
        for m in &self.metrics {
            merged.merge_from(m);
        }
        merged
    }
}

/// Sets [`Shared::closed`] to `Panic` if the writer unwinds without storing
/// a clean exit code. Declared as the writer's *first* local so it drops
/// after every other local but before the function's channel-receiver
/// parameters — producers blocked on the queue observe the disconnect only
/// after the cause is already published.
struct PanicFlag(Arc<Shared>);

impl Drop for PanicFlag {
    fn drop(&mut self) {
        let _ =
            self.0
                .closed
                .compare_exchange(OPEN, CLOSED_PANIC, Ordering::SeqCst, Ordering::SeqCst);
    }
}

/// A ranked answer, attributable to one published epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// The epoch of the snapshot that produced `items`.
    pub epoch: u64,
    /// Top-K `(item, score)` pairs, best first, ties broken by id.
    pub items: Vec<(NodeId, f32)>,
}

/// Why the engine stopped consuming events.
#[derive(Debug)]
pub enum StopCause {
    /// Clean shutdown (or all producers hung up).
    Shutdown,
    /// [`ServeHandle::kill`] — simulated crash, no final flush/checkpoint.
    Killed,
    /// A malformed event under [`QuarantinePolicy::Strict`].
    Fault(QuarantineError),
    /// The writer thread panicked; the payload message is preserved so the
    /// operator sees *what* died, not just that ingest stopped.
    Panicked(String),
}

/// Final report returned by [`ServeHandle::shutdown`].
#[derive(Debug)]
pub struct ServeReport {
    /// Admission tally over the whole run.
    pub quarantine: QuarantineReport,
    /// Serving counters and latency summary.
    pub metrics: MetricsReport,
    /// Why the writer stopped.
    pub stop: StopCause,
    /// Admitted events at shutdown (= checkpointed stream position).
    pub events_admitted: u64,
}

/// Control messages; events travel on their own bounded channel so control
/// can never be shed and never waits behind a full queue.
enum Ctrl {
    Flush(std_mpsc::Sender<()>),
    Shutdown,
    Kill,
}

/// Why an [`EngineClosed`] producer error happened — a panicked writer is a
/// different operational event than a strict-policy stop or a clean
/// shutdown, and callers (and the `supa serve` exit message) tell them
/// apart by this cause.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClosedCause {
    /// Clean shutdown (or the handle was dropped).
    Shutdown,
    /// A malformed event stopped ingest under [`QuarantinePolicy::Strict`].
    Fault,
    /// The writer thread panicked.
    Panic,
    /// [`ServeHandle::kill`] simulated a crash.
    Killed,
}

/// The ingest channel closed: the writer stopped for [`EngineClosed::cause`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineClosed {
    /// Why the writer stopped accepting events.
    pub cause: ClosedCause,
}

impl std::fmt::Display for EngineClosed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let why = match self.cause {
            ClosedCause::Shutdown => "writer shut down",
            ClosedCause::Fault => "strict quarantine policy stopped ingest",
            ClosedCause::Panic => "writer thread panicked",
            ClosedCause::Killed => "writer was killed",
        };
        write!(f, "serving engine is no longer accepting events ({why})")
    }
}

impl std::error::Error for EngineClosed {}

struct WriterExit {
    quarantine: QuarantineReport,
    stop: StopCause,
    events_admitted: u64,
}

/// Handle to a running serving engine. `ingest`/`query` take `&self`, so a
/// single handle can be shared by reference across producer and reader
/// threads; `shutdown`/`kill` consume it.
pub struct ServeHandle {
    /// The one bounded ingest queue: `(event, importance weight)`.
    data_tx: channel::Sender<(TemporalEdge, f32)>,
    ctrl_tx: channel::Sender<Ctrl>,
    /// Drop-oldest eviction: a second receiver on the data queue so a
    /// producer facing a full queue can pop the oldest event itself. Only
    /// the drop-oldest policy holds one — for the other policies the writer
    /// keeps the sole receiver, preserving send-fails-when-writer-dies
    /// disconnect semantics.
    evict_rx: Option<channel::Receiver<(TemporalEdge, f32)>>,
    shared: Arc<Shared>,
    writer: Option<JoinHandle<WriterExit>>,
    started: Instant,
    /// Bound address of the delta publisher's TCP listener (`None` without
    /// TCP replication). With port 0 this is how callers learn the port.
    replication_addr: Option<std::net::SocketAddr>,
}

/// Builder entry point: spawn the writer thread and return a handle.
pub struct ServeEngine;

impl ServeEngine {
    /// Starts serving `model` over `graph` (the node universe and schema;
    /// typically a dataset's prototype plus any warm-start edges).
    ///
    /// If checkpoint resume is configured, the newest valid checkpoint is
    /// loaded *before* the first snapshot is published, and the checkpoint's
    /// stream position tells the writer how many admitted events to replay
    /// into the graph without retraining (the restored embeddings already
    /// reflect them).
    ///
    /// Rejects invalid configuration with a named `InvalidInput` error:
    /// ANN options out of range, a zero-capacity queue, a zero sampling
    /// divisor, or an empty priority map.
    pub fn start(graph: Dmhg, mut model: Supa, cfg: ServeConfig) -> std::io::Result<ServeHandle> {
        if let Some(ann) = &cfg.ann {
            if !ann.min_recall.is_finite() || !(0.0..=1.0).contains(&ann.min_recall) {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    format!(
                        "ann min_recall must be a finite value in [0, 1], got {}",
                        ann.min_recall
                    ),
                ));
            }
            if ann.ef_search == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    "ann ef_search must be at least 1",
                ));
            }
            if ann.auto_tune && ann.guard_every == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    "ann auto_tune requires the recall guard (guard_every > 0)",
                ));
            }
        }
        if cfg.shards == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "shards must be at least 1 (got 0); use 1 for the unsharded engine",
            ));
        }
        // Each shard's admission ladder watches its share of the queue
        // capacity, which must still be able to hold an event.
        let lane_capacity = cfg.queue_capacity.div_ceil(cfg.shards);
        cfg.admission.validate(lane_capacity).map_err(|e| {
            std::io::Error::new(std::io::ErrorKind::InvalidInput, format!("admission: {e}"))
        })?;
        model.enable_touch_tracking();
        model.set_workers(cfg.workers);
        model.set_shards(cfg.shards);

        let mut manager = None;
        let mut resume_skip = 0u64;
        let mut resume_index: Option<Vec<u8>> = None;
        let mut resumed = false;
        if let Some(ck) = &cfg.checkpoint {
            let mgr = CheckpointManager::new(&ck.dir, ck.keep)?;
            if ck.resume {
                let (outcome, index) = mgr.resume_with_index(&mut model)?;
                if let Some((_, events)) = outcome.loaded {
                    resume_skip = events;
                    resume_index = index;
                    resumed = true;
                }
            }
            manager = Some(mgr);
        }

        let catalog = Catalog::new(&graph);
        let scorer = model.export_serving_snapshot();
        let ann_master = cfg.ann.as_ref().map(|opts| {
            if let Some(bytes) = resume_index.as_deref() {
                match AnnMaster::restore(opts, &scorer, &catalog, cfg.shards, bytes) {
                    Ok(master) => {
                        eprintln!(
                            "supa-serve: ann indexes restored from checkpoint \
                             ({} shard(s) x {} group(s), fingerprints verified)",
                            cfg.shards,
                            catalog.groups().len()
                        );
                        return master;
                    }
                    // Named fallback: a checkpoint whose index section does
                    // not match this engine's layout is reported and
                    // rebuilt — never silently adopted.
                    Err(why) => eprintln!(
                        "supa-serve: checkpoint ann index rejected ({why}); rebuilding indexes"
                    ),
                }
            } else if resumed {
                eprintln!("supa-serve: checkpoint carries no ann index; rebuilding indexes");
            }
            AnnMaster::build(opts, &scorer, &catalog, cfg.shards)
        });
        let initial = Arc::new(EpochSnapshot {
            epoch: 0,
            scorer,
            ann: ann_master.as_ref().map(AnnMaster::freeze),
        });
        // Replication starts against the epoch-0 state: the segment file
        // opens with a full baseline, and `wait_subscribers` holds the
        // engine here until the required TCP replicas have attached — those
        // replicas adopt (or rebuild to) the writer's epoch-0 ANN state and
        // stay structurally bit-identical through incremental refreshes.
        // The epoch-0 baseline carries the serialized index set so replica
        // cold-start can skip the O(n·ef_c·log n) rebuild.
        let publisher = match &cfg.replication {
            Some(opts) => {
                let index_bytes = ann_master.as_ref().map(AnnMaster::to_bytes);
                Some(DeltaPublisher::start(
                    opts,
                    0,
                    &initial.scorer,
                    GuardState::default(),
                    index_bytes.as_deref(),
                )?)
            }
            None => None,
        };
        let replication_addr = publisher.as_ref().and_then(DeltaPublisher::bound_addr);
        let admission = (cfg.admission.policy != ShedPolicy::Block).then(|| {
            (0..cfg.shards)
                .map(|_| AdmissionCtl::new(cfg.admission.clone(), lane_capacity, cfg.train_batch))
                .collect()
        });
        let caches = (0..cfg.shards)
            .map(|_| QueryCache::new(cfg.cache_capacity.div_ceil(cfg.shards)))
            .collect();
        let shared = Arc::new(Shared {
            current: RwLock::new(initial.clone()),
            history: Mutex::new(std::collections::VecDeque::from([initial])),
            caches,
            metrics: (0..cfg.shards).map(|_| ServeMetrics::default()).collect(),
            shards: cfg.shards,
            in_flight: (0..cfg.shards).map(|_| AtomicUsize::new(0)).collect(),
            catalog,
            ann_opts: cfg.ann.clone(),
            admission,
            closed: AtomicU8::new(OPEN),
        });

        let (ctrl_tx, ctrl_rx) = channel::unbounded();
        let writer_shared = shared.clone();
        let (data_tx, data_rx) = channel::bounded(cfg.queue_capacity);
        let evict_rx = (cfg.admission.policy == ShedPolicy::DropOldest).then(|| data_rx.clone());
        let writer = std::thread::Builder::new()
            .name("supa-serve-writer".into())
            .spawn(move || {
                writer_loop(
                    data_rx,
                    ctrl_rx,
                    writer_shared,
                    graph,
                    model,
                    manager,
                    resume_skip,
                    ann_master,
                    publisher,
                    cfg,
                )
            })?;

        Ok(ServeHandle {
            data_tx,
            ctrl_tx,
            evict_rx,
            shared,
            writer: Some(writer),
            started: Instant::now(),
            replication_addr,
        })
    }
}

struct Writer {
    shared: Arc<Shared>,
    graph: Dmhg,
    model: Supa,
    /// One guard per shard, so quarantine state (dedup windows, order
    /// tracking) partitions with the users; the unsharded engine is the
    /// one-guard case. The final report merges all of them.
    guards: Vec<StreamGuard>,
    manager: Option<CheckpointManager>,
    ann: Option<AnnMaster>,
    publisher: Option<DeltaPublisher>,
    /// Events absorbed into the graph since the last publish — the
    /// adjacency part of the next delta frame.
    interval_events: Vec<TemporalEdge>,
    /// Whether the ANN masters reflect the model's current embeddings
    /// (true right after a publish, false once training has moved the model
    /// past the last refresh). Only a *fresh* master may be serialized into
    /// a checkpoint — a stale one would resume with index vectors behind
    /// the restored embeddings.
    ann_fresh: bool,
    cfg: ServeConfig,
    pending: Vec<TemporalEdge>,
    /// Per-event importance weights, aligned with `pending`. Maintained only
    /// under 1-in-k sampling (`weighted`); every other policy trains the
    /// exact unweighted path.
    pending_w: Vec<f32>,
    weighted: bool,
    admitted: u64,
    resume_skip: u64,
    epoch: u64,
    chunks: u64,
}

/// How often an otherwise idle writer ticks the overload detectors, so the
/// ladder recovers after a burst even if no further event or query arrives.
const LADDER_TICK: Duration = Duration::from_millis(2);

/// The writer thread: one loop for every shard count. It owns the graph,
/// the model and one guard per shard, and consumes the ingest queue in
/// order — that order is the global event order.
#[allow(clippy::too_many_arguments)]
fn writer_loop(
    data_rx: channel::Receiver<(TemporalEdge, f32)>,
    ctrl_rx: channel::Receiver<Ctrl>,
    shared: Arc<Shared>,
    graph: Dmhg,
    model: Supa,
    manager: Option<CheckpointManager>,
    resume_skip: u64,
    ann: Option<AnnMaster>,
    publisher: Option<DeltaPublisher>,
    cfg: ServeConfig,
) -> WriterExit {
    // First local: drops last, after `w` and friends but before the channel
    // receivers (function parameters drop after all locals), so a panicking
    // writer publishes its cause before producers see the disconnect.
    let _panic_flag = PanicFlag(shared.clone());
    let guards = (0..cfg.shards)
        .map(|_| StreamGuard::new(cfg.policy))
        .collect();
    let weighted = shared
        .admission
        .as_ref()
        .is_some_and(|c| c[0].policy() == ShedPolicy::SampleOneInK);
    // Under `block` there is no ladder to tick: a plain blocking receive.
    let ladder = shared.admission.is_some();
    let mut w = Writer {
        shared,
        graph,
        model,
        guards,
        manager,
        ann,
        publisher,
        interval_events: Vec::new(),
        ann_fresh: true,
        cfg,
        pending: Vec::new(),
        pending_w: Vec::new(),
        weighted,
        admitted: 0,
        resume_skip,
        epoch: 0,
        chunks: 0,
    };

    // Control is the first arm so that a `select!` which polls its arms in
    // order (the offline crossbeam stand-in does) cannot let a saturated
    // data queue starve a flush; `on_ctrl` absorbs the queued data first
    // either way, so control still never overtakes data.
    let stop = loop {
        let stop = if ladder {
            crossbeam::select! {
                recv(ctrl_rx) -> msg => w.on_ctrl(msg, &data_rx),
                recv(data_rx) -> msg => w.on_event(msg),
                default(LADDER_TICK) => w.on_tick(),
            }
        } else {
            crossbeam::select! {
                recv(ctrl_rx) -> msg => w.on_ctrl(msg, &data_rx),
                recv(data_rx) -> msg => w.on_event(msg),
            }
        };
        if let Some(stop) = stop {
            break stop;
        }
    };

    writer_exit(w, stop)
}

/// Publishes the writer's stop cause and merges the per-shard quarantine
/// reports into the exit summary.
fn writer_exit(w: Writer, stop: StopCause) -> WriterExit {
    let code = match &stop {
        StopCause::Shutdown => CLOSED_SHUTDOWN,
        StopCause::Killed => CLOSED_KILLED,
        StopCause::Fault(_) => CLOSED_FAULT,
        StopCause::Panicked(_) => CLOSED_PANIC,
    };
    w.shared.closed.store(code, Ordering::SeqCst);

    let mut quarantine = QuarantineReport::default();
    for g in w.guards {
        quarantine.merge(g.into_report());
    }
    WriterExit {
        quarantine,
        stop,
        events_admitted: w.admitted,
    }
}

impl Writer {
    /// One message from the ingest queue. A disconnect means every producer
    /// hung up: final train/publish/checkpoint.
    fn on_event(
        &mut self,
        msg: Result<(TemporalEdge, f32), channel::RecvError>,
    ) -> Option<StopCause> {
        match msg {
            Ok((edge, weight)) => {
                let s = self.dequeued(&edge);
                self.observe_shard(s);
                self.handle_event(s, edge, weight)
            }
            Err(_) => Some(self.finish()),
        }
    }

    /// One control message, honored only after the events queued ahead of
    /// it have been absorbed.
    fn on_ctrl(
        &mut self,
        msg: Result<Ctrl, channel::RecvError>,
        data_rx: &channel::Receiver<(TemporalEdge, f32)>,
    ) -> Option<StopCause> {
        if let Some(stop) = self.drain(data_rx) {
            return Some(stop);
        }
        match msg {
            Ok(Ctrl::Flush(ack)) => {
                self.train_pending();
                self.publish();
                let _ = ack.send(());
                None
            }
            Ok(Ctrl::Shutdown) | Err(_) => Some(self.finish()),
            // Simulated crash. Events enqueued before the kill were still
            // absorbed (they preceded it in program order) but nothing is
            // flushed, published, or checkpointed.
            Ok(Ctrl::Kill) => Some(StopCause::Killed),
        }
    }

    /// Idle tick: every shard's detector sees the current occupancy.
    fn on_tick(&self) -> Option<StopCause> {
        for s in 0..self.guards.len() {
            self.observe_shard(s);
        }
        None
    }

    /// Clean stop: train the partial chunk, publish, checkpoint.
    fn finish(&mut self) -> StopCause {
        self.train_pending();
        self.publish();
        self.save_checkpoint();
        StopCause::Shutdown
    }

    /// Uncounts an event just taken off the queue; returns its owning shard.
    fn dequeued(&self, edge: &TemporalEdge) -> usize {
        let s = supa_par::shard_of(edge.src.0, self.guards.len());
        self.shared.in_flight[s].fetch_sub(1, Ordering::Relaxed);
        s
    }

    /// Feeds shard `s`'s overload detector one (occupancy, staleness)
    /// observation. Occupancy is the shard's in-flight count; staleness is
    /// the engine-wide lag (training consumes one global order, so lag is a
    /// shared fact).
    fn observe_shard(&self, s: usize) {
        if let Some(ctls) = &self.shared.admission {
            ctls[s].observe(
                self.shared.in_flight[s].load(Ordering::Relaxed),
                self.shared.staleness(),
                &self.shared.metrics[s],
            );
        }
    }

    /// Guards and absorbs one dequeued event of shard `s`; `Some` stops the
    /// loop (strict-policy fault).
    fn handle_event(&mut self, s: usize, edge: TemporalEdge, weight: f32) -> Option<StopCause> {
        match self.guards[s].admit(&self.graph, edge) {
            Ok(Some(e)) => {
                self.absorb(e, weight);
                None
            }
            Ok(None) => {
                self.shared.metrics[s]
                    .events_quarantined
                    .fetch_add(1, Ordering::Relaxed);
                None
            }
            // Strict policy: stop consuming. Whatever trained so far stays
            // published; producers see EngineClosed.
            Err(err) => Some(StopCause::Fault(err)),
        }
    }

    /// Absorbs exactly the events that are queued right now — the ones
    /// enqueued before the control message being honored. Later arrivals
    /// wait for the main loop, so a producer that keeps the queue non-empty
    /// cannot hold a flush open. (A drop-oldest producer may evict some of
    /// them first; the queue then runs dry early.)
    fn drain(&mut self, data_rx: &channel::Receiver<(TemporalEdge, f32)>) -> Option<StopCause> {
        for _ in 0..data_rx.len() {
            let Ok((edge, weight)) = data_rx.try_recv() else {
                break;
            };
            let s = self.dequeued(&edge);
            if let Some(stop) = self.handle_event(s, edge, weight) {
                return Some(stop);
            }
        }
        None
    }

    /// The training-chunk size currently in force: the configured batch,
    /// widened by the ladder's chunk scale once any shard's ladder is at
    /// level 1 or higher.
    fn effective_batch(&self) -> usize {
        let base = self.cfg.train_batch.max(1);
        match &self.shared.admission {
            Some(ctls) if ctls.iter().any(|c| c.level() >= DegradeLevel::WideChunks) => {
                base.saturating_mul(ctls[0].chunk_scale())
            }
            _ => base,
        }
    }

    /// Handles one admitted event: insert into the graph, then either count
    /// it as already applied (checkpoint replay) or queue it for training
    /// with its importance weight.
    fn absorb(&mut self, e: TemporalEdge, weight: f32) {
        use std::sync::atomic::Ordering::Relaxed;
        let m = self.shared.metrics_of(e.src.0);
        // `admit` validated everything `add_edge` checks; a failure here is
        // a logic bug, but serving must not panic — quarantine instead.
        if self
            .graph
            .add_edge(e.src, e.dst, e.relation, e.time)
            .is_err()
        {
            m.events_quarantined.fetch_add(1, Relaxed);
            return;
        }
        self.admitted += 1;
        m.events_ingested.fetch_add(1, Relaxed);
        if self.publisher.is_some() {
            self.interval_events.push(e);
        }
        if let Some(limit) = self.cfg.panic_after {
            if self.admitted >= limit {
                panic!("injected writer fault after {limit} events");
            }
        }
        if self.admitted <= self.resume_skip {
            // Replay: the restored embeddings already reflect this event.
            m.events_applied.fetch_add(1, Relaxed);
            return;
        }
        self.pending.push(e);
        if self.weighted {
            self.pending_w.push(weight);
        }
        if self.pending.len() >= self.effective_batch() {
            self.train_pending();
            if self
                .chunks
                .is_multiple_of(self.cfg.snapshot_every.max(1) as u64)
            {
                self.publish();
            }
            if let Some(every) = self.cfg.checkpoint.as_ref().map(|c| c.every.max(1) as u64) {
                if self.chunks.is_multiple_of(every) {
                    self.save_checkpoint();
                }
            }
        }
    }

    /// Trains the pending chunk (if any) with one InsLearn call, yielding
    /// the scheduler between training iterations.
    ///
    /// The call is bit-identical to `fit_incremental` — the per-iteration
    /// hook is passive, drawing no randomness and touching no state — but
    /// the yields bound reader tail latency: on a machine with fewer cores
    /// than threads, one chunk's InsLearn refresh (up to `n_iter` passes
    /// plus validations) is a tens-of-milliseconds CPU burst that starves
    /// every runnable reader, and that starvation lands directly in the
    /// query p99. Yielding once per pass caps a reader's wait at roughly
    /// one `train_pass` over the chunk.
    ///
    /// Under 1-in-k sampling the chunk carries per-event weights (k for
    /// resampled survivors, 1 otherwise) so the surviving events' updates
    /// preserve the stream's expected gradient mass; every other policy
    /// passes no weights (weight 1.0 for every event).
    fn train_pending(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let cfg = self.model.inslearn_config().clone();
        let mut yield_hook = |_: &mut Supa, _: u64| std::thread::yield_now();
        let weights = self.weighted.then_some(self.pending_w.as_slice());
        self.model
            .train_inslearn_ft(
                &self.graph,
                &self.pending,
                &cfg,
                TrainOptions {
                    iter_hook: Some(&mut yield_hook),
                    weights,
                    ..TrainOptions::default()
                },
            )
            // No checkpoint manager is passed, so no I/O can fail.
            .expect("training without checkpointing performs no I/O");
        // Attribute each applied event to its owning shard so per-shard
        // staleness stays meaningful.
        for e in &self.pending {
            self.shared
                .metrics_of(e.src.0)
                .events_applied
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
        self.pending.clear();
        self.pending_w.clear();
        self.chunks += 1;
        // The model moved; the ANN masters are now behind until the next
        // publish refreshes the touched set.
        self.ann_fresh = false;
    }

    /// Writes a checkpoint. When the ANN masters are fresh (no training
    /// since the last publish — always true at shutdown, which publishes
    /// first) the serialized index set rides along in the v3 format so a
    /// resume skips the rebuild; a stale master is simply omitted and the
    /// resume rebuilds, never restores wrong vectors.
    fn save_checkpoint(&mut self) {
        let Some(mgr) = &mut self.manager else { return };
        match &self.ann {
            Some(master) if self.ann_fresh => {
                let _ = mgr.save_with_index(&self.model, self.admitted, &master.to_bytes());
            }
            _ => {
                let _ = mgr.save(&self.model, self.admitted);
            }
        }
    }

    /// Phase 1 of the epoch barrier: every shard refreshes its ANN partition
    /// to the common epoch number. Shards own disjoint item ids, so the
    /// per-shard refreshes are independent — they run on scoped threads when
    /// the host has cores to spare and serially otherwise, with bit-identical
    /// results either way. A shard task that panics (the `panic_shard` test
    /// seam, or a real fault) is re-raised on the writer thread after every
    /// other shard has been joined, so the panic path is identical to any
    /// other writer panic: cause published, producers see `EngineClosed`.
    fn publish_phase1(
        &mut self,
        scorer: &ServingSnapshot,
        touched: &[u32],
    ) -> (Option<Arc<AnnEpoch>>, u64) {
        let seam = self.cfg.panic_shard;
        let epoch = self.epoch;
        let Some(master) = &mut self.ann else {
            // ANN disabled: nothing to refresh, but the fault seam still
            // fires so the kill-one-shard path is testable without an index.
            if let Some(s) = seam {
                if s < self.shared.shards {
                    panic!(
                        "injected shard fault: shard {s} failed during epoch {epoch} publication"
                    );
                }
            }
            return (None, 0);
        };
        let shard_task = |s: usize, sa: &mut GroupIndexes| -> usize {
            if seam == Some(s) {
                panic!("injected shard fault: shard {s} failed during epoch {epoch} publication");
            }
            sa.refresh(scorer, touched)
        };
        let mut refreshed = 0u64;
        if master.shards.len() == 1 || supa_par::available_workers() == 1 {
            for (s, sa) in master.shards.iter_mut().enumerate() {
                refreshed += shard_task(s, sa) as u64;
            }
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = master
                    .shards
                    .iter_mut()
                    .enumerate()
                    .map(|(s, sa)| scope.spawn(move || shard_task(s, sa)))
                    .collect();
                let mut first_panic = None;
                for h in handles {
                    match h.join() {
                        Ok(n) => refreshed += n as u64,
                        Err(payload) => {
                            first_panic.get_or_insert(payload);
                        }
                    }
                }
                if let Some(payload) = first_panic {
                    std::panic::resume_unwind(payload);
                }
            });
        }
        (Some(master.freeze()), refreshed)
    }

    /// Publishes the current model state as a new epoch — refreshing the ANN
    /// indexes for exactly the nodes the interval touched (phase 1, the
    /// per-shard barrier) — then composes and swaps in a single
    /// [`EpochSnapshot`] (phase 2) and invalidates the touched neighborhood
    /// in every shard's query cache. Readers always observe all shards at
    /// the same epoch: the composed snapshot is the only thing published.
    fn publish(&mut self) {
        use std::sync::atomic::Ordering::Relaxed;
        self.epoch += 1;
        let scorer = self.model.export_serving_snapshot();
        let mut touched = self.model.take_touched();
        // The batched ANN refresh, the delta extraction, and cache
        // invalidation all assume an ascending duplicate-free touched set;
        // `take_touched` guarantees it, and a violation is a logic bug.
        debug_assert!(
            touched.windows(2).all(|w| w[0] < w[1]),
            "touched set must be ascending and duplicate-free"
        );
        if !touched.windows(2).all(|w| w[0] < w[1]) {
            touched.sort_unstable();
            touched.dedup();
        }
        if let Some(master) = &mut self.ann {
            master.tune(&self.shared.metrics);
        }
        let phase1_start = Instant::now();
        let (ann, refreshed) = self.publish_phase1(&scorer, &touched);
        if let Some(master) = &self.ann {
            let us = u64::try_from(phase1_start.elapsed().as_micros()).unwrap_or(u64::MAX);
            let m = &self.shared.metrics[0];
            m.ann_publish_us.fetch_add(us, Relaxed);
            m.ann_publish_last_us.store(us, Relaxed);
            m.ann_refresh_batch.store(refreshed, Relaxed);
            m.ann_ef_search.store(master.ef_search as u64, Relaxed);
            m.ann_ef_margin.store(master.ef_margin as u64, Relaxed);
        }
        // The masters now reflect the published model state; a checkpoint
        // written before the next training chunk may carry them.
        self.ann_fresh = true;
        if let Some(publisher) = &mut self.publisher {
            let m = &self.shared.metrics[0];
            let guard = GuardState {
                level: self.shared.max_level(),
                events_shed: self.shared.total_shed(),
                events_quarantined: self.shared.total_quarantined(),
            };
            let events = std::mem::take(&mut self.interval_events);
            // Replication publishes from the composed epoch: one delta frame
            // carries the whole engine's touched set, so replicas stay
            // shard-topology-agnostic.
            match publisher.publish(self.epoch, self.epoch - 1, &scorer, &touched, events, guard) {
                Ok(bytes) => {
                    m.deltas_published.fetch_add(1, Ordering::Relaxed);
                    m.delta_bytes_published.fetch_add(bytes, Ordering::Relaxed);
                }
                // A full disk must not take down serving; the failure is
                // visible as a publish-error count and a replica gap.
                Err(_) => {
                    m.delta_publish_errors.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        let snap = Arc::new(EpochSnapshot {
            epoch: self.epoch,
            scorer,
            ann,
        });
        {
            let mut h = self.shared.history.lock();
            h.push_back(snap.clone());
            // +1: the ring also holds the current snapshot.
            while h.len() > self.cfg.keep_history.max(1) + 1 {
                h.pop_front();
            }
        }
        *self.shared.current.write() = snap;
        self.shared.metrics[0]
            .epochs_published
            .store(self.epoch, std::sync::atomic::Ordering::Relaxed);
        for cache in &self.shared.caches {
            cache.invalidate_touched(&touched);
        }
    }
}

impl Shared {
    /// Scores `user` against `rel`'s candidates under `snap` by the shared
    /// rule ([`retrieve`]) and returns the ranked items plus whether the ANN
    /// arm answered; `ann = None` is always the exact scan (exact serving,
    /// and the recall guard's ground truth). A pure function of `snap`,
    /// which is what lets `verify` re-run it against historical epochs: the
    /// beam uses the epoch's *stamped* widths, not the live options, so an
    /// old epoch replays its exact beam even after the auto-tuner moved on.
    fn score(
        &self,
        snap: &EpochSnapshot,
        ann: Option<&AnnEpoch>,
        user: NodeId,
        rel: RelationId,
        k: usize,
    ) -> (Vec<(NodeId, f32)>, bool) {
        SCRATCH.with(|s| {
            let scratch = &mut *s.borrow_mut();
            let (items, ann_used) = retrieve(
                &snap.scorer,
                self.catalog.candidates(rel),
                ann.into_iter().flat_map(|a| a.shard_indexes(rel)),
                ann.map_or(0, AnnEpoch::ef_search),
                ann.map_or(0, AnnEpoch::ef_margin),
                user,
                rel,
                k,
                scratch,
            );
            (items.to_vec(), ann_used)
        })
    }
}

impl ServeHandle {
    /// Enqueues one raw event through the admission layer of its owning
    /// shard.
    ///
    /// Under the default `block` policy this blocks while the queue is full
    /// (backpressure) — bit-identical to the pre-admission engine. The
    /// shedding policies consult the shard's degradation ladder instead and
    /// may drop the event (or an older queued one); every shed is tallied in
    /// [`ServeMetrics`]. Errors once the writer has stopped, with the
    /// stop's [`ClosedCause`].
    pub fn ingest(&self, edge: TemporalEdge) -> Result<(), EngineClosed> {
        use std::sync::atomic::Ordering::Relaxed;
        let s = supa_par::shard_of(edge.src.0, self.shared.shards);
        let Some(ctls) = &self.shared.admission else {
            // Block policy: plain backpressure send, no detector on the path.
            return self.send_data(s, edge, 1.0);
        };
        let ctl = &ctls[s];
        let m = &self.shared.metrics[s];
        let queued = &self.shared.in_flight[s];
        let level = ctl.observe(queued.load(Relaxed), self.shared.staleness(), m);
        let prio = ctl.classify(edge.relation);
        match ctl.policy() {
            // Unreachable in practice (`admission` is `None` under block),
            // but backpressure is the only sensible meaning regardless.
            ShedPolicy::Block => self.send_data(s, edge, 1.0),
            ShedPolicy::SampleOneInK => {
                if !AdmissionCtl::shed_eligible(level, prio) {
                    self.send_data(s, edge, 1.0)
                } else if ctl.sample_admit(prio) {
                    // The survivor speaks for its whole 1-in-k window:
                    // weight k keeps the expected update mass unbiased.
                    m.events_resampled.fetch_add(1, Relaxed);
                    self.send_data(s, edge, ctl.sample_k() as f32)
                } else {
                    m.count_shed(prio, queued.load(Relaxed));
                    Ok(())
                }
            }
            ShedPolicy::DropOldest => {
                match self.counted(s, || self.data_tx.try_send((edge, 1.0))) {
                    Ok(()) => Ok(()),
                    Err(channel::TrySendError::Disconnected(_)) => Err(self.closed_error()),
                    Err(channel::TrySendError::Full((edge, w))) => {
                        if level == DegradeLevel::ShedAll {
                            // Uniform shedding: evict the oldest queued event
                            // (whichever shard owns it) to make room for the
                            // newest.
                            let evict = self
                                .evict_rx
                                .as_ref()
                                .expect("drop-oldest keeps an eviction receiver");
                            if let Ok((old, _)) = evict.try_recv() {
                                let victim = supa_par::shard_of(old.src.0, self.shared.shards);
                                let left = self.shared.in_flight[victim].fetch_sub(1, Relaxed) - 1;
                                self.shared.metrics[victim]
                                    .count_shed(ctl.classify(old.relation), left);
                            }
                            self.send_data(s, edge, w)
                        } else if level == DegradeLevel::ShedLow && prio == EventPriority::Low {
                            // Priority shedding: the incoming low-value event
                            // is the one that loses.
                            m.count_shed(prio, queued.load(Relaxed));
                            Ok(())
                        } else {
                            self.send_data(s, edge, w)
                        }
                    }
                }
            }
        }
    }

    /// Runs `send` with one more event counted in flight on shard `s`; a
    /// failed send uncounts it. Counting first means the writer's decrement
    /// can never race ahead of the increment.
    fn counted<E>(&self, s: usize, send: impl FnOnce() -> Result<(), E>) -> Result<(), E> {
        let queued = &self.shared.in_flight[s];
        queued.fetch_add(1, Ordering::Relaxed);
        send().inspect_err(|_| {
            queued.fetch_sub(1, Ordering::Relaxed);
        })
    }

    /// Blocking send that stays correct when this handle holds an eviction
    /// receiver: the queue can then never disconnect while the handle
    /// lives, so a dead writer is detected via [`Shared::closed`] instead
    /// (polled between short send timeouts).
    fn send_data(&self, s: usize, edge: TemporalEdge, weight: f32) -> Result<(), EngineClosed> {
        self.counted(s, || {
            if self.evict_rx.is_none() {
                return self
                    .data_tx
                    .send((edge, weight))
                    .map_err(|_| self.closed_error());
            }
            let mut item = (edge, weight);
            loop {
                if self.shared.closed.load(Ordering::SeqCst) != OPEN {
                    return Err(self.closed_error());
                }
                match self.data_tx.send_timeout(item, Duration::from_millis(20)) {
                    Ok(()) => return Ok(()),
                    Err(channel::SendTimeoutError::Timeout(it)) => item = it,
                    Err(channel::SendTimeoutError::Disconnected(_)) => {
                        return Err(self.closed_error())
                    }
                }
            }
        })
    }

    fn closed_error(&self) -> EngineClosed {
        EngineClosed {
            cause: self.shared.closed_cause(),
        }
    }

    /// The degradation-ladder level currently in force — the worst shard's
    /// level when sharded (0 = full service; always 0 under the `block`
    /// policy).
    pub fn degradation_level(&self) -> u8 {
        self.shared.max_level()
    }

    /// Trains any partial chunk, publishes a snapshot, and returns once the
    /// writer has processed everything enqueued before this call.
    pub fn flush(&self) -> Result<(), EngineClosed> {
        let (ack_tx, ack_rx) = std_mpsc::channel();
        self.ctrl_tx
            .send(Ctrl::Flush(ack_tx))
            .map_err(|_| self.closed_error())?;
        ack_rx.recv().map_err(|_| self.closed_error())
    }

    /// Answers a top-K query against the current snapshot (or the cache).
    ///
    /// `user` is scored against every node of `rel`'s destination type;
    /// scores use the same Eq. 15 readout as the offline model, so serving
    /// results are bit-identical to offline scoring of the same state.
    pub fn query(&self, user: NodeId, rel: RelationId, k: usize) -> QueryResult {
        use std::sync::atomic::Ordering::Relaxed;
        let t0 = Instant::now();
        let m = self.shared.metrics_of(user.0);
        m.queries.fetch_add(1, Relaxed);

        if let Some((epoch, items)) = self.shared.cache_of(user.0).get(user.0, rel.0, k) {
            m.cache_hits.fetch_add(1, Relaxed);
            let dt = t0.elapsed();
            m.latency.record(dt);
            m.latency_hit.record(dt);
            return QueryResult { epoch, items };
        }

        let result = self.score_fresh(user, rel, k, true);
        let dt = t0.elapsed();
        m.latency.record(dt);
        m.latency_miss.record(dt);
        result
    }

    /// Answers a query without touching metrics. Load generators call this
    /// from each reader thread before metering begins: the first query per
    /// thread pays one-off costs (thread-local scratch allocation, faulting
    /// the embedding tables into cache) that would otherwise land in the
    /// metered tail as a multi-millisecond p99 outlier.
    pub fn warm_query(&self, user: NodeId, rel: RelationId, k: usize) -> QueryResult {
        if let Some((epoch, items)) = self.shared.cache_of(user.0).get(user.0, rel.0, k) {
            return QueryResult { epoch, items };
        }
        self.score_fresh(user, rel, k, false)
    }

    /// Scores against the current snapshot and fills the cache. `metered`
    /// queries additionally tick the ANN counters and, one in
    /// [`AnnOptions::guard_every`] ANN-served answers, the recall guard.
    fn score_fresh(&self, user: NodeId, rel: RelationId, k: usize, metered: bool) -> QueryResult {
        let snap = self.shared.current.read().clone();
        let (items, ann_used) = self.shared.score(&snap, snap.ann.as_deref(), user, rel, k);
        if metered && ann_used {
            self.recall_guard(&snap, user, rel, k, &items);
        }
        self.shared
            .cache_of(user.0)
            .put(user.0, rel.0, k, snap.epoch, items.clone());
        QueryResult {
            epoch: snap.epoch,
            items,
        }
    }

    /// Ticks the ANN query counter and, every `guard_every`-th ANN answer,
    /// re-scores the query exactly and tallies recall@K. Observation only:
    /// the served `items` are never replaced, so results stay bit-reproducible
    /// from the epoch snapshot whether or not this query was guarded.
    fn recall_guard(
        &self,
        snap: &EpochSnapshot,
        user: NodeId,
        rel: RelationId,
        k: usize,
        items: &[(NodeId, f32)],
    ) {
        use std::sync::atomic::Ordering::Relaxed;
        let m = self.shared.metrics_of(user.0);
        let nth = m.ann_queries.fetch_add(1, Relaxed) + 1;
        let Some(opts) = &self.shared.ann_opts else {
            return;
        };
        if opts.guard_every == 0 || !nth.is_multiple_of(opts.guard_every) {
            return;
        }
        let (exact, _) = self.shared.score(snap, None, user, rel, k);
        let mut acc = RecallAccumulator::default();
        acc.push(&exact, items);
        m.ann_guard_checks.fetch_add(1, Relaxed);
        m.ann_guard_expected.fetch_add(acc.expected, Relaxed);
        m.ann_guard_matched.fetch_add(acc.matched, Relaxed);
        m.record_guard_recall(acc.mean());
        if acc.mean() < opts.min_recall {
            m.ann_guard_breaches.fetch_add(1, Relaxed);
        }
    }

    /// Re-runs the retrieval path (ANN or exact — whichever served it)
    /// against the retained snapshot of the epoch `result` claims and
    /// compares bit-for-bit. Returns `None` if that epoch has aged out of
    /// the history ring, `Some(true)` if consistent. A `Some(false)` (torn
    /// read) is also tallied in the metrics.
    pub fn verify(
        &self,
        user: NodeId,
        rel: RelationId,
        k: usize,
        result: &QueryResult,
    ) -> Option<bool> {
        let snap = {
            let h = self.shared.history.lock();
            h.iter().find(|s| s.epoch == result.epoch).cloned()?
        };
        let (expect, _) = self.shared.score(&snap, snap.ann.as_deref(), user, rel, k);
        let ok = expect.len() == result.items.len()
            && expect
                .iter()
                .zip(&result.items)
                .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits());
        if !ok {
            self.shared
                .metrics_of(user.0)
                .torn_reads
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
        Some(ok)
    }

    /// The currently published snapshot.
    pub fn snapshot(&self) -> Arc<EpochSnapshot> {
        self.shared.current.read().clone()
    }

    /// Point-in-time metrics over the serving wall-clock so far. When
    /// sharded, the per-shard counters are merged (saturating sums; gauges
    /// take the worst shard; latency histograms merge bucket-wise).
    pub fn metrics(&self) -> MetricsReport {
        self.shared.merged_metrics().report(self.started.elapsed())
    }

    /// The merged metrics as one JSON line, followed by a `"shards":[...]`
    /// array with each shard's own report (one element when unsharded), so
    /// `--metrics-dump` streams expose the per-shard breakdown.
    pub fn metrics_json(&self) -> String {
        let elapsed = self.started.elapsed();
        let mut s = self.shared.merged_metrics().report(elapsed).to_json();
        s.pop();
        s.push_str(",\"shards\":[");
        for (i, m) in self.shared.metrics.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&m.report(elapsed).to_json());
        }
        s.push_str("]}");
        s
    }

    /// The metrics block streaming-ingest counters are published to
    /// (shard 0, which also holds the other engine-level facts). The
    /// streaming reader lives outside the engine, so it writes its line /
    /// byte / interner tallies here and they surface in [`Self::metrics`]
    /// alongside everything else.
    pub fn ingest_metrics(&self) -> &ServeMetrics {
        &self.shared.metrics[0]
    }

    /// Bound address of the delta publisher's TCP listener, if epoch-delta
    /// replication over TCP is enabled ([`ServeConfig::replication`]).
    pub fn replication_addr(&self) -> Option<std::net::SocketAddr> {
        self.replication_addr
    }

    /// Candidate items for a relation (all nodes of its destination type).
    pub fn candidates(&self, rel: RelationId) -> &[NodeId] {
        self.shared.catalog.candidates(rel)
    }

    /// Clean shutdown: trains the partial chunk, publishes, writes a final
    /// checkpoint (if configured), joins the writer, and reports.
    pub fn shutdown(self) -> ServeReport {
        self.stop_with(Ctrl::Shutdown)
    }

    /// Simulated crash: the writer exits immediately — no final flush, no
    /// final checkpoint. Used by the fault-injection tests.
    pub fn kill(self) -> ServeReport {
        self.stop_with(Ctrl::Kill)
    }

    fn stop_with(mut self, msg: Ctrl) -> ServeReport {
        let _ = self.ctrl_tx.send(msg);
        let exit = match self.writer.take().expect("writer joined once").join() {
            Ok(exit) => exit,
            // A panicked writer is reported, not re-thrown: the shutdown
            // caller gets a report whose stop cause carries the panic
            // message, matching the EngineClosed cause producers saw.
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<&'static str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "writer thread panicked".to_string());
                WriterExit {
                    quarantine: QuarantineReport::default(),
                    stop: StopCause::Panicked(msg),
                    events_admitted: self
                        .shared
                        .metrics
                        .iter()
                        .map(|m| m.events_ingested.load(std::sync::atomic::Ordering::Relaxed))
                        .sum(),
                }
            }
        };
        ServeReport {
            quarantine: exit.quarantine,
            metrics: self.shared.merged_metrics().report(self.started.elapsed()),
            stop: exit.stop,
            events_admitted: exit.events_admitted,
        }
    }
}

impl Drop for ServeHandle {
    fn drop(&mut self) {
        if let Some(writer) = self.writer.take() {
            let _ = self.ctrl_tx.send(Ctrl::Shutdown);
            let _ = writer.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use supa::SupaConfig;
    use supa_datasets::taobao;

    /// Every path that takes an event off the queue — dequeue into training,
    /// quarantine, drop-oldest eviction, the drain before shutdown or kill —
    /// uncounts it, so no shard's in-flight counter leaks.
    #[test]
    fn in_flight_counters_return_to_zero_after_shutdown_and_kill() {
        let d = taobao(0.01, 5);
        // Every event twice: the repeat is quarantined as a duplicate.
        let events: Vec<TemporalEdge> = d.edges.iter().flat_map(|&e| [e, e]).collect();
        for (kill, policy) in [(false, ShedPolicy::DropOldest), (true, ShedPolicy::Block)] {
            let handle = ServeEngine::start(
                d.prototype.clone(),
                Supa::from_dataset(&d, SupaConfig::small(), 5).unwrap(),
                ServeConfig {
                    train_batch: 32,
                    queue_capacity: 8,
                    shards: 4,
                    admission: AdmissionOptions {
                        policy,
                        escalate_window: 1,
                        lag_chunks: 1,
                        ..AdmissionOptions::default()
                    },
                    ..ServeConfig::default()
                },
            )
            .unwrap();
            for &e in &events {
                handle.ingest(e).unwrap();
            }
            let shared = handle.shared.clone();
            let report = if kill {
                handle.kill()
            } else {
                handle.shutdown()
            };
            assert!(report.metrics.events_quarantined > 0, "{policy}");
            assert_eq!(
                report.metrics.events_shed() > 0,
                policy == ShedPolicy::DropOldest,
                "{policy}: only drop-oldest sheds, and this burst must"
            );
            let left: Vec<usize> = shared
                .in_flight
                .iter()
                .map(|n| n.load(Ordering::SeqCst))
                .collect();
            assert_eq!(left, [0; 4], "{policy}");
        }
    }
}
