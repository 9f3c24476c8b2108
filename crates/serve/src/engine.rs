//! The serving engine: one writer thread drains a bounded event queue
//! through a [`StreamGuard`] into incremental InsLearn updates, publishing
//! epoch-versioned [`ServingSnapshot`]s that reader threads score against.
//!
//! # Concurrency model
//!
//! - **Ingest** is one bounded queue: queue order *is* the event
//!   order training consumes. Under the default
//!   [`ShedPolicy::Block`] producers block when the writer falls behind
//!   (backpressure, never unbounded growth). The other shedding policies
//!   trade completeness for bounded producer latency — see
//!   [`crate::admission`] for the degradation ladder that decides *when*
//!   events are shed and [`AdmissionOptions`] for the knobs.
//! - **Control** (flush/shutdown/kill) travels on the same queue's
//!   unbounded control lane (`crate::queue`), so it can never be shed,
//!   never waits behind a full queue and is received ahead of queued data;
//!   before honoring a control message the writer drains exactly the events
//!   that were queued when it dequeued the message, so control never
//!   overtakes data and a busy producer cannot hold a flush open.
//! - **Training** is single-writer: the writer thread exclusively owns the
//!   graph, the model, the guard, and the checkpoint manager. No lock is
//!   ever held during training.
//! - **Publication** swaps an `Arc<EpochSnapshot>` behind a
//!   `std::sync::RwLock`. Readers clone the `Arc` under a read lock held
//!   for nanoseconds and then score lock-free against an immutable snapshot,
//!   so a query can never observe a half-written embedding table — results
//!   are torn-free *by construction*, and every answer is attributable to
//!   exactly one published epoch. Shedding never touches this path: a
//!   degraded engine drops *ingest* work, never read consistency.
//! - **Verification**: the last [`ServeConfig::keep_history`] snapshots are
//!   retained so a result claiming epoch `e` can be re-scored against the
//!   actual epoch-`e` tables and compared bit-for-bit. Older epochs are
//!   unverifiable: `verify` answers `None` and counts `verify_aged_out`.
//! - **Double-buffered publication**: the history ring holds
//!   `keep_history + 1` snapshots (current included), and that is the
//!   writer's whole snapshot memory — two at the default depth of 1. A
//!   publish takes the retiring snapshot out of a full ring and, unless a
//!   reader still holds it, patches it in place with only the rows touched
//!   in the epochs since, and of each only the tables its writes hit
//!   ([`Supa::export_serving_snapshot_into`]), instead of copying every
//!   table; otherwise it exports fresh.
//! - **Retrieval** — which items are candidates, which index answers a
//!   relation, how wide the beam is and how survivors are re-scored — is not
//!   decided here: queries, `verify` and the recall guard all call
//!   `supa_replica::retrieval`, the code every replica runs too. The
//!   writer-side index masters and the per-epoch freeze live in
//!   `crate::ann`.

use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::mpsc as std_mpsc;
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use supa::{CheckpointManager, ServingSnapshot, Supa, Touched, TrainOptions};
use supa_eval::RecallAccumulator;
use supa_graph::{
    Dmhg, EventPriority, NodeId, QuarantineError, QuarantinePolicy, QuarantineReport, RelationId,
    StreamGuard, TemporalEdge,
};

use supa::delta::GuardState;
use supa_replica::retrieval::{retrieve, Catalog, Scratch};
use supa_replica::{AnnParams, DeltaPublisher, PublishOptions};

use crate::admission::{AdmissionCtl, AdmissionOptions, DegradeLevel, ShedPolicy};
pub use crate::ann::AnnEpoch;
use crate::ann::AnnMaster;
use crate::cache::QueryCache;
use crate::metrics::{MetricsReport, ServeMetrics};
use crate::queue::{lock, two_lane, Producer, Receiver, Recv, SendError};

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
/// When enabled, each published epoch carries *shared-base* [`HnswIndex`](supa_ann::HnswIndex)es:
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
    /// How many published snapshots to retain, besides the current one, for
    /// epoch-consistency verification (clamped ≥ 1). The writer holds
    /// `keep_history + 1` snapshots, so memory grows by one full copy of
    /// the embedding values per step, and a result whose epoch is older
    /// than that is unverifiable ([`ServeHandle::verify`] answers `None`).
    /// The default, 1, keeps the current and the previous epoch.
    pub keep_history: usize,
    /// Optional checkpointing (see [`CheckpointOptions`]).
    pub checkpoint: Option<CheckpointOptions>,
    /// Must be `1`; [`ServeEngine::start`] rejects any other value by name.
    /// Training has one regime, the serial pass. The field stays only for
    /// the benchmark's setup (`perfbench/src/setup.rs`), which sets it and
    /// changes only with the benchmark; ROADMAP item 4(a) deletes it.
    #[doc(hidden)]
    pub workers: usize,
    /// Must be `1`; [`ServeEngine::start`] rejects any other value by name.
    /// The engine has one guard, one admission ladder, one cache and one
    /// set of ANN indexes. The field stays only for the benchmark's setup
    /// (`perfbench/src/setup.rs`), which sets it and changes only with the
    /// benchmark; ROADMAP item 4(a) deletes it.
    #[doc(hidden)]
    pub shards: usize,
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
    /// Test seam: panic the writer thread after absorbing this many events,
    /// exercising the panic-propagation path (`EngineClosed` with a
    /// [`ClosedCause::Panic`] cause). Never set in production.
    #[doc(hidden)]
    pub panic_after: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_capacity: 1024,
            train_batch: 64,
            snapshot_every: 1,
            policy: QuarantinePolicy::Skip,
            cache_capacity: 4096,
            keep_history: 1,
            checkpoint: None,
            workers: 1,
            shards: 1,
            ann: None,
            admission: AdmissionOptions::default(),
            replication: None,
            panic_after: None,
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

/// The delta publisher shares an epoch's snapshot through this, holding
/// the same allocation as the history ring.
impl AsRef<ServingSnapshot> for EpochSnapshot {
    fn as_ref(&self) -> &ServingSnapshot {
        &self.scorer
    }
}

/// Writer-exit codes for [`Shared::closed`]. `OPEN` means the writer is
/// (as far as anyone knows) still consuming.
const OPEN: u8 = 0;
const CLOSED_SHUTDOWN: u8 = 1;
const CLOSED_FAULT: u8 = 2;
const CLOSED_PANIC: u8 = 3;
const CLOSED_KILLED: u8 = 4;

/// State shared between the writer thread and all reader threads.
struct Shared {
    current: RwLock<Arc<EpochSnapshot>>,
    history: Mutex<std::collections::VecDeque<Arc<EpochSnapshot>>>,
    cache: QueryCache,
    metrics: ServeMetrics,
    /// Events in flight on the ingest queue: a producer counts its event
    /// *before* sending (so the count can never dip below zero), and whoever
    /// takes the event off the queue — the writer, or a drop-oldest producer
    /// evicting it — uncounts it. This is the occupancy the ladder observes.
    in_flight: AtomicUsize,
    /// The candidate layout. The node universe is fixed at start — the
    /// guard rejects events naming unknown nodes — so it never changes.
    catalog: Catalog,
    /// ANN serving configuration (readers need `ef_search` and the guard
    /// cadence); `None` when serving exactly.
    ann_opts: Option<AnnOptions>,
    /// The overload detector and ladder state; `None` under
    /// [`ShedPolicy::Block`] (detector off, classic backpressure, zero
    /// hot-path overhead).
    admission: Option<AdmissionCtl>,
    /// Why the writer stopped (`OPEN` while it runs). Written exactly once:
    /// by the writer on a clean exit, or by its panic guard, before the
    /// queue disconnects; producers read it to name the cause.
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

    /// The published snapshot.
    fn current(&self) -> Arc<EpochSnapshot> {
        self.current
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// The degradation level in force; 0 under the block policy.
    fn level(&self) -> u8 {
        self.admission.as_ref().map_or(0, |c| c.level().as_u8())
    }
}

/// Sets [`Shared::closed`] to `Panic` if the writer unwinds without storing
/// a clean exit code. Declared as the writer's *first* local so it drops
/// after every other local but before the function's queue-receiver
/// parameter — producers blocked on the queue observe the disconnect only
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

/// What the data lane carries: an event and its importance weight.
type Ingest = (TemporalEdge, f32);

/// Control messages; events travel on the queue's bounded data lane, so
/// control can never be shed and never waits behind a full queue.
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

/// The ingest queue closed: the writer stopped for [`EngineClosed::cause`].
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
    /// The one ingest queue: control messages, and `(event, importance
    /// weight)` on its bounded data lane.
    queue: Producer<Ctrl, Ingest>,
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
    /// ANN options out of range, a worker or shard count other than 1, a
    /// zero-capacity queue, a zero sampling divisor, or an empty priority
    /// map.
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
        }
        if cfg.workers != 1 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!(
                    "workers must be 1 (got {}); training has one serial regime",
                    cfg.workers
                ),
            ));
        }
        if cfg.shards != 1 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!(
                    "shards must be 1 (got {}); the engine has one shard",
                    cfg.shards
                ),
            ));
        }
        cfg.admission.validate(cfg.queue_capacity).map_err(|e| {
            std::io::Error::new(std::io::ErrorKind::InvalidInput, format!("admission: {e}"))
        })?;
        model.enable_touch_tracking();

        let mut manager = None;
        let mut resume_skip = 0u64;
        let mut resume_index: Option<Vec<u8>> = None;
        let mut resumed = false;
        if let Some(ck) = &cfg.checkpoint {
            let mgr = CheckpointManager::new(&ck.dir, ck.keep)?;
            if ck.resume {
                let outcome = mgr.resume(&mut model)?;
                if let Some((_, events)) = outcome.loaded {
                    resume_skip = events;
                    resume_index = outcome.index;
                    resumed = true;
                }
            }
            manager = Some(mgr);
        }

        let catalog = Catalog::new(&graph);
        let scorer = model.export_serving_snapshot();
        // Epoch 1's touched list must start here: a recycled epoch-0
        // snapshot is patched from it.
        model.take_touched();
        let ann_master = cfg.ann.as_ref().map(|opts| {
            if let Some(bytes) = resume_index.as_deref() {
                match AnnMaster::restore(opts, &scorer, &catalog, bytes) {
                    Ok(master) => {
                        eprintln!(
                            "supa-serve: ann indexes restored from checkpoint \
                             ({} group(s), fingerprints verified)",
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
            AnnMaster::build(opts, &scorer, &catalog)
        });
        let initial = Arc::new(EpochSnapshot {
            epoch: 0,
            scorer,
            ann: ann_master.as_ref().map(|m| m.freeze(None)),
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
                    initial.clone(),
                    GuardState::default(),
                    index_bytes.as_deref(),
                )?)
            }
            None => None,
        };
        let replication_addr = publisher.as_ref().and_then(DeltaPublisher::bound_addr);
        let admission = (cfg.admission.policy != ShedPolicy::Block)
            .then(|| AdmissionCtl::new(cfg.admission.clone(), cfg.queue_capacity, cfg.train_batch));
        let shared = Arc::new(Shared {
            current: RwLock::new(initial.clone()),
            history: Mutex::new(std::collections::VecDeque::from([initial])),
            cache: QueryCache::new(cfg.cache_capacity),
            metrics: ServeMetrics::default(),
            in_flight: AtomicUsize::new(0),
            catalog,
            ann_opts: cfg.ann.clone(),
            admission,
            closed: AtomicU8::new(OPEN),
        });

        let writer_shared = shared.clone();
        let (queue, rx) = two_lane(cfg.queue_capacity);
        let writer = std::thread::Builder::new()
            .name("supa-serve-writer".into())
            .spawn(move || {
                writer_loop(
                    rx,
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
            queue,
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
    guard: StreamGuard,
    manager: Option<CheckpointManager>,
    ann: Option<AnnMaster>,
    publisher: Option<DeltaPublisher>,
    /// Events absorbed into the graph since the last publish — the
    /// adjacency part of the next delta frame.
    interval_events: Vec<TemporalEdge>,
    /// Touched lists of recent epochs, oldest first. While a publish
    /// exports, they are the last `keep_history` epochs' lists, which with
    /// the publishing epoch's own cover every row changed since the
    /// retiring snapshot, and the tables each change hit; the publish then
    /// appends its list, and the next one reuses the oldest's buffers.
    recent_touched: std::collections::VecDeque<Touched>,
    /// Their union, bits ORed per node: the rows a recycled snapshot is
    /// patched with.
    patch: Touched,
    /// The ANN indexes of the snapshot `export` just recycled, refilled by
    /// the next freeze.
    retired_ann: Option<AnnEpoch>,
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

/// Whole microseconds since `start`, saturating, for the `*_us` counters.
fn elapsed_us(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// The writer thread. It owns the graph, the model and the guard, and
/// consumes the ingest queue in order — that order is the event order.
#[allow(clippy::too_many_arguments)]
fn writer_loop(
    rx: Receiver<Ctrl, Ingest>,
    shared: Arc<Shared>,
    graph: Dmhg,
    model: Supa,
    manager: Option<CheckpointManager>,
    resume_skip: u64,
    ann: Option<AnnMaster>,
    publisher: Option<DeltaPublisher>,
    cfg: ServeConfig,
) -> WriterExit {
    // First local: drops last, after `w` and friends but before the queue
    // receiver (function parameters drop after all locals), so a panicking
    // writer publishes its cause before producers see the disconnect.
    let _panic_flag = PanicFlag(shared.clone());
    let guard = StreamGuard::new(cfg.policy);
    let weighted = shared
        .admission
        .as_ref()
        .is_some_and(|c| c.policy() == ShedPolicy::SampleOneInK);
    // Under `block` there is no ladder to tick: a plain blocking receive.
    let tick = shared.admission.is_some().then_some(LADDER_TICK);
    let mut w = Writer {
        shared,
        graph,
        model,
        guard,
        manager,
        ann,
        publisher,
        interval_events: Vec::new(),
        recent_touched: std::collections::VecDeque::new(),
        patch: Touched::default(),
        retired_ann: None,
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

    let stop = loop {
        let stop = match rx.recv(tick) {
            Recv::Ctrl(msg) => w.on_ctrl(msg, &rx),
            Recv::Data((edge, weight)) => w.on_event(edge, weight),
            Recv::Timeout => w.on_tick(),
            // Every producer hung up: final train/publish/checkpoint.
            Recv::Disconnected => Some(w.finish()),
        };
        if let Some(stop) = stop {
            break stop;
        }
    };

    writer_exit(w, stop)
}

/// Publishes the writer's stop cause and summarises the run.
fn writer_exit(w: Writer, stop: StopCause) -> WriterExit {
    let code = match &stop {
        StopCause::Shutdown => CLOSED_SHUTDOWN,
        StopCause::Killed => CLOSED_KILLED,
        StopCause::Fault(_) => CLOSED_FAULT,
        StopCause::Panicked(_) => CLOSED_PANIC,
    };
    w.shared.closed.store(code, Ordering::SeqCst);

    WriterExit {
        quarantine: w.guard.into_report(),
        stop,
        events_admitted: w.admitted,
    }
}

impl Writer {
    /// One event from the ingest queue.
    fn on_event(&mut self, edge: TemporalEdge, weight: f32) -> Option<StopCause> {
        self.dequeued();
        self.observe();
        self.handle_event(edge, weight)
    }

    /// One control message, honored only after the events queued ahead of
    /// it have been absorbed.
    fn on_ctrl(&mut self, msg: Ctrl, rx: &Receiver<Ctrl, Ingest>) -> Option<StopCause> {
        if let Some(stop) = self.drain(rx) {
            return Some(stop);
        }
        match msg {
            Ctrl::Flush(ack) => {
                self.train_pending();
                self.publish();
                let _ = ack.send(());
                None
            }
            Ctrl::Shutdown => Some(self.finish()),
            // Simulated crash. Events enqueued before the kill were still
            // absorbed (they preceded it in program order) but nothing is
            // flushed, published, or checkpointed.
            Ctrl::Kill => Some(StopCause::Killed),
        }
    }

    /// Idle tick: the detector sees the current occupancy.
    fn on_tick(&self) -> Option<StopCause> {
        self.observe();
        None
    }

    /// Clean stop: train the partial chunk, publish, checkpoint.
    fn finish(&mut self) -> StopCause {
        self.train_pending();
        self.publish();
        self.save_checkpoint();
        StopCause::Shutdown
    }

    /// Uncounts an event just taken off the queue.
    fn dequeued(&self) {
        self.shared.in_flight.fetch_sub(1, Ordering::Relaxed);
    }

    /// Feeds the overload detector one (occupancy, staleness) observation.
    fn observe(&self) {
        if let Some(ctl) = &self.shared.admission {
            ctl.observe(
                self.shared.in_flight.load(Ordering::Relaxed),
                self.shared.metrics.staleness(),
                &self.shared.metrics,
            );
        }
    }

    /// Guards and absorbs one dequeued event; `Some` stops the loop
    /// (strict-policy fault).
    fn handle_event(&mut self, edge: TemporalEdge, weight: f32) -> Option<StopCause> {
        match self.guard.admit(&self.graph, edge) {
            Ok(Some(e)) => {
                self.absorb(e, weight);
                None
            }
            Ok(None) => {
                self.shared
                    .metrics
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
    fn drain(&mut self, rx: &Receiver<Ctrl, Ingest>) -> Option<StopCause> {
        for (edge, weight) in rx.drain() {
            self.dequeued();
            if let Some(stop) = self.handle_event(edge, weight) {
                return Some(stop);
            }
        }
        None
    }

    /// The training-chunk size currently in force: the configured batch,
    /// widened by the ladder's chunk scale once the ladder is at level 1 or
    /// higher.
    fn effective_batch(&self) -> usize {
        let base = self.cfg.train_batch.max(1);
        match &self.shared.admission {
            Some(ctl) if ctl.level() >= DegradeLevel::WideChunks => {
                base.saturating_mul(ctl.chunk_scale())
            }
            _ => base,
        }
    }

    /// Handles one admitted event: insert into the graph, then either count
    /// it as already applied (checkpoint replay) or queue it for training
    /// with its importance weight.
    fn absorb(&mut self, e: TemporalEdge, weight: f32) {
        use std::sync::atomic::Ordering::Relaxed;
        let m = &self.shared.metrics;
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
    /// the scheduler between training iterations, and counts the call's
    /// rollbacks, divergence rollbacks, early stops and the time its
    /// trainer waited for sampled events.
    ///
    /// The call is bit-identical to `fit_incremental` — the per-iteration
    /// hook is passive, drawing no randomness and touching neither the
    /// samplers nor any state — but the yields bound reader tail latency:
    /// on a machine with fewer cores than threads, one chunk's InsLearn
    /// refresh (up to `n_iter` passes plus validations) is a
    /// tens-of-milliseconds CPU burst that starves every runnable reader,
    /// and that starvation lands directly in the query p99. Yielding once
    /// per pass caps a reader's wait at roughly one `train_pass` over the
    /// chunk.
    ///
    /// The call runs one more thread for its duration: the sampler that
    /// draws the next passes' walks and negatives while this one applies
    /// gradients (`Supa::train_pass_weighted`). On two cores it takes the
    /// one the write-only workloads left idle; on one it time-slices with
    /// the writer, and the yield per pass hands it the CPU too.
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
        let (report, _) = self
            .model
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
        let m = &self.shared.metrics;
        for (counter, n) in [
            (&m.inslearn_rollbacks, report.rollbacks),
            (
                &m.inslearn_divergence_rollbacks,
                report.divergence_rollbacks,
            ),
            (&m.inslearn_early_stops, report.early_stops),
            (
                &m.inslearn_sample_wait_us,
                report.sample_wait.as_micros() as usize,
            ),
        ] {
            counter.fetch_add(n as u64, Ordering::Relaxed);
        }
        m.events_applied
            .fetch_add(self.pending.len() as u64, Ordering::Relaxed);
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
    /// resume rebuilds, never restores wrong vectors. A failed save (full
    /// disk, vanished directory) must not take down serving; it is counted
    /// in `checkpoint_errors`.
    fn save_checkpoint(&mut self) {
        let Some(mgr) = &mut self.manager else { return };
        let start = Instant::now();
        let saved = match &self.ann {
            Some(master) if self.ann_fresh => {
                mgr.save_with_index(&self.model, self.admitted, &master.to_bytes())
            }
            _ => mgr.save(&self.model, self.admitted),
        };
        let m = &self.shared.metrics;
        m.checkpoint_save_us
            .fetch_add(elapsed_us(start), Ordering::Relaxed);
        if saved.is_err() {
            m.checkpoint_errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The snapshot of the model's current state for the epoch being
    /// published, whose touched list is `touched`. A full ring gives up its
    /// oldest snapshot; if no reader still holds it, it is patched with the
    /// rows and tables touched since it was exported (its own epoch's list
    /// excluded), else a fresh one is exported. Either way the ring keeps
    /// room for exactly the snapshot returned.
    fn export(&mut self, touched: &Touched) -> ServingSnapshot {
        use std::sync::atomic::Ordering::Relaxed;
        let start = Instant::now();
        let depth = self.cfg.keep_history.max(1);
        let retiring = {
            let mut h = lock(&self.shared.history);
            // +1: the ring also holds the current snapshot.
            if h.len() > depth {
                h.pop_front()
            } else {
                None
            }
        };
        let m = &self.shared.metrics;
        let recycled = retiring.and_then(|s| Arc::try_unwrap(s).ok());
        let (scorer, patched) = match recycled {
            Some(EpochSnapshot {
                mut scorer, ann, ..
            }) => {
                self.retired_ann = ann.and_then(|a| Arc::try_unwrap(a).ok());
                self.patch.clone_from(touched);
                for list in &self.recent_touched {
                    self.patch.merge(list);
                }
                let patched = self
                    .model
                    .export_serving_snapshot_into(&mut scorer, &self.patch);
                (scorer, patched)
            }
            None => (self.model.export_serving_snapshot(), false),
        };
        let copied = if patched {
            self.patch.nodes.len()
        } else {
            m.snapshot_full_exports.fetch_add(1, Relaxed);
            scorer.num_nodes()
        };
        m.snapshot_rows_copied.fetch_add(copied as u64, Relaxed);
        m.snapshot_export_us.fetch_add(elapsed_us(start), Relaxed);
        scorer
    }

    /// Publishes the current model state as a new epoch — refreshing the ANN
    /// indexes for exactly the nodes the interval touched — then swaps in
    /// the new [`EpochSnapshot`] and invalidates the touched neighborhood in
    /// the query cache.
    fn publish(&mut self) {
        use std::sync::atomic::Ordering::Relaxed;
        self.epoch += 1;
        // The list that leaves the ring of recent epochs holds this one's.
        let mut list = if self.recent_touched.len() > self.cfg.keep_history.max(1) {
            self.recent_touched.pop_front().unwrap_or_default()
        } else {
            Touched::default()
        };
        self.model.take_touched_into(&mut list);
        // The batched ANN refresh, the delta extraction, and cache
        // invalidation all assume an ascending duplicate-free touched set;
        // `take_touched_into` guarantees it, and a violation is a logic bug.
        debug_assert!(
            list.nodes.windows(2).all(|w| w[0] < w[1]),
            "touched set must be ascending and duplicate-free"
        );
        let scorer = self.export(&list);
        let touched = &list.nodes;
        let m = &self.shared.metrics;
        let ann = self.ann.as_mut().map(|master| {
            let start = Instant::now();
            let (relinked, unchanged) = master.indexes.refresh(&scorer, touched);
            let frozen = master.freeze(self.retired_ann.take());
            let us = elapsed_us(start);
            m.ann_publish_us.fetch_add(us, Relaxed);
            m.ann_publish_last_us.store(us, Relaxed);
            m.ann_refresh_batch.store(relinked as u64, Relaxed);
            m.ann_refresh_unchanged.fetch_add(unchanged as u64, Relaxed);
            m.ann_ef_search.store(master.ef_search as u64, Relaxed);
            m.ann_ef_margin.store(master.ef_margin as u64, Relaxed);
            frozen
        });
        // The masters now reflect the published model state; a checkpoint
        // written before the next training chunk may carry them.
        self.ann_fresh = true;
        let snap = Arc::new(EpochSnapshot {
            epoch: self.epoch,
            scorer,
            ann,
        });
        if let Some(publisher) = &mut self.publisher {
            let guard = GuardState {
                level: self.shared.level(),
                events_shed: m.events_shed(),
                events_quarantined: m.events_quarantined.load(Relaxed),
            };
            let events = std::mem::take(&mut self.interval_events);
            let start = Instant::now();
            let published = publisher.publish(
                self.epoch,
                self.epoch - 1,
                snap.clone(),
                touched,
                events,
                guard,
            );
            m.delta_publish_us
                .fetch_add(elapsed_us(start), Ordering::Relaxed);
            match published {
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
        lock(&self.shared.history).push_back(snap.clone());
        *self
            .shared
            .current
            .write()
            .unwrap_or_else(PoisonError::into_inner) = snap;
        m.epochs_published.store(self.epoch, Relaxed);
        self.shared.cache.invalidate_touched(touched);
        self.recent_touched.push_back(list);
    }
}

impl Shared {
    /// Scores `user` against `rel`'s candidates under `snap` by the shared
    /// rule ([`retrieve`]) and returns the ranked items plus whether the ANN
    /// arm answered; `ann = None` is always the exact scan (exact serving,
    /// and the recall guard's ground truth). A pure function of `snap`,
    /// which is what lets `verify` re-run it against historical epochs: the
    /// beam uses the epoch's stamped widths, not the live options.
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
                ann.and_then(|a| a.index(rel)),
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
    /// Enqueues one raw event through the admission layer.
    ///
    /// Under the default `block` policy this blocks while the queue is full
    /// (backpressure) — bit-identical to the pre-admission engine. The
    /// shedding policies consult the degradation ladder instead and
    /// may drop the event (or an older queued one); every shed is tallied in
    /// [`ServeMetrics`]. Errors once the writer has stopped, with the
    /// stop's [`ClosedCause`].
    pub fn ingest(&self, edge: TemporalEdge) -> Result<(), EngineClosed> {
        use std::sync::atomic::Ordering::Relaxed;
        let Some(ctl) = &self.shared.admission else {
            // Block policy: plain backpressure send, no detector on the path.
            return self.send_data(edge, 1.0);
        };
        let m = &self.shared.metrics;
        let queued = &self.shared.in_flight;
        let level = ctl.observe(queued.load(Relaxed), m.staleness(), m);
        let prio = ctl.classify(edge.relation);
        match ctl.policy() {
            // Unreachable in practice (`admission` is `None` under block),
            // but backpressure is the only sensible meaning regardless.
            ShedPolicy::Block => self.send_data(edge, 1.0),
            ShedPolicy::SampleOneInK => {
                if !AdmissionCtl::shed_eligible(level, prio) {
                    self.send_data(edge, 1.0)
                } else if ctl.sample_admit(prio) {
                    // The survivor speaks for its whole 1-in-k window:
                    // weight k keeps the expected update mass unbiased.
                    m.events_resampled.fetch_add(1, Relaxed);
                    self.send_data(edge, ctl.sample_k() as f32)
                } else {
                    m.count_shed(prio, queued.load(Relaxed));
                    Ok(())
                }
            }
            ShedPolicy::DropOldest => {
                match self.counted(|| self.queue.send((edge, 1.0), Some(Duration::ZERO))) {
                    Ok(()) => Ok(()),
                    Err(SendError::Disconnected(_)) => Err(self.closed_error()),
                    Err(SendError::Full((edge, w))) => {
                        if level == DegradeLevel::ShedAll {
                            // Uniform shedding: evict the oldest queued event
                            // to make room for the newest.
                            if let Some((old, _)) = self.queue.evict_oldest() {
                                let left = queued.fetch_sub(1, Relaxed) - 1;
                                m.count_shed(ctl.classify(old.relation), left);
                            }
                            self.send_data(edge, w)
                        } else if level == DegradeLevel::ShedLow && prio == EventPriority::Low {
                            // Priority shedding: the incoming low-value event
                            // is the one that loses.
                            m.count_shed(prio, queued.load(Relaxed));
                            Ok(())
                        } else {
                            self.send_data(edge, w)
                        }
                    }
                }
            }
        }
    }

    /// Runs `send` with one more event counted in flight; a failed send
    /// uncounts it. Counting first means the writer's decrement can never
    /// race ahead of the increment.
    fn counted<E>(&self, send: impl FnOnce() -> Result<(), E>) -> Result<(), E> {
        let queued = &self.shared.in_flight;
        queued.fetch_add(1, Ordering::Relaxed);
        send().inspect_err(|_| {
            queued.fetch_sub(1, Ordering::Relaxed);
        })
    }

    /// Blocking send: waits while the queue is full, and fails once the
    /// writer has stopped.
    fn send_data(&self, edge: TemporalEdge, weight: f32) -> Result<(), EngineClosed> {
        self.counted(|| self.queue.send((edge, weight), None))
            .map_err(|_| self.closed_error())
    }

    fn closed_error(&self) -> EngineClosed {
        EngineClosed {
            cause: self.shared.closed_cause(),
        }
    }

    /// The degradation-ladder level currently in force (0 = full service;
    /// always 0 under the `block` policy).
    pub fn degradation_level(&self) -> u8 {
        self.shared.level()
    }

    /// Trains any partial chunk, publishes a snapshot, and returns once the
    /// writer has processed everything enqueued before this call.
    pub fn flush(&self) -> Result<(), EngineClosed> {
        let (ack_tx, ack_rx) = std_mpsc::channel();
        self.queue
            .send_ctrl(Ctrl::Flush(ack_tx))
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
        let m = &self.shared.metrics;
        m.queries.fetch_add(1, Relaxed);

        if let Some((epoch, items)) = self.shared.cache.get(user.0, rel.0, k) {
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
        if let Some((epoch, items)) = self.shared.cache.get(user.0, rel.0, k) {
            return QueryResult { epoch, items };
        }
        self.score_fresh(user, rel, k, false)
    }

    /// Scores against the current snapshot and fills the cache. `metered`
    /// queries additionally tick the ANN counters and, one in
    /// [`AnnOptions::guard_every`] ANN-served answers, the recall guard.
    fn score_fresh(&self, user: NodeId, rel: RelationId, k: usize, metered: bool) -> QueryResult {
        let snap = self.shared.current();
        let (items, ann_used) = self.shared.score(&snap, snap.ann.as_deref(), user, rel, k);
        if metered && ann_used {
            self.recall_guard(&snap, user, rel, k, &items);
        }
        self.shared
            .cache
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
        let m = &self.shared.metrics;
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
    /// the history ring (tallied as `verify_aged_out`), `Some(true)` if
    /// consistent. A `Some(false)` (torn read) is also tallied in the
    /// metrics.
    pub fn verify(
        &self,
        user: NodeId,
        rel: RelationId,
        k: usize,
        result: &QueryResult,
    ) -> Option<bool> {
        let found = {
            let h = lock(&self.shared.history);
            h.iter().find(|s| s.epoch == result.epoch).cloned()
        };
        let Some(snap) = found else {
            self.shared
                .metrics
                .verify_aged_out
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            return None;
        };
        let (expect, _) = self.shared.score(&snap, snap.ann.as_deref(), user, rel, k);
        let ok = expect.len() == result.items.len()
            && expect
                .iter()
                .zip(&result.items)
                .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits());
        if !ok {
            self.shared
                .metrics
                .torn_reads
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
        Some(ok)
    }

    /// The currently published snapshot.
    pub fn snapshot(&self) -> Arc<EpochSnapshot> {
        self.shared.current()
    }

    /// Point-in-time metrics over the serving wall-clock so far.
    pub fn metrics(&self) -> MetricsReport {
        self.shared.metrics.report(self.started.elapsed())
    }

    /// The metrics as one JSON line, for `--metrics-dump` streams.
    pub fn metrics_json(&self) -> String {
        self.metrics().to_json()
    }

    /// The metrics block streaming-ingest counters are published to. The
    /// streaming reader lives outside the engine, so it writes its line /
    /// byte / interner tallies here and they surface in [`Self::metrics`]
    /// alongside everything else.
    pub fn ingest_metrics(&self) -> &ServeMetrics {
        &self.shared.metrics
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
        let _ = self.queue.send_ctrl(msg);
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
                    events_admitted: self.shared.metrics.events_ingested.load(Ordering::Relaxed),
                }
            }
        };
        ServeReport {
            quarantine: exit.quarantine,
            metrics: self.metrics(),
            stop: exit.stop,
            events_admitted: exit.events_admitted,
        }
    }
}

impl Drop for ServeHandle {
    fn drop(&mut self) {
        if let Some(writer) = self.writer.take() {
            let _ = self.queue.send_ctrl(Ctrl::Shutdown);
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
    /// uncounts it, so the in-flight counter does not leak.
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
            assert_eq!(shared.in_flight.load(Ordering::SeqCst), 0, "{policy}");
        }
    }
}
