//! # supa-serve — concurrent online recommendation serving for SUPA
//!
//! SUPA's promise is *instant* representation learning: one edge event
//! updates the embeddings in `O((k·l + N_neg)·d)`. This crate turns that
//! into a serving system:
//!
//! ```text
//!            ingest                north star: readers never block on
//!  producers ──────▶ admission ──▶ bounded   training, never see torn state
//!                    control        queue
//!               (shed policy ×       │
//!                degradation    writer thread ── StreamGuard (admit / clamp
//!                ladder)             │            │            / quarantine)
//!                                    │            ▼
//!                                    │      Dmhg + Supa ── fit_incremental
//!                                    │            │            per chunk
//!                                    ▼            ▼
//!                          CheckpointManager  Arc<EpochSnapshot> ──▶ readers
//!                          (periodic, atomic)     swap │               │
//!                                                      ▼               ▼
//!                                             touched-set cache  top_k(user,
//!                                             invalidation          r, k)
//! ```
//!
//! - [`engine::ServeEngine`] — start serving; [`engine::ServeHandle`] —
//!   ingest events, query top-K, verify epoch consistency, shut down.
//! - [`admission`] — overload control in front of the writer: shedding
//!   policies (`block` / `drop-oldest` / `sample-1-in-k` with unbiased
//!   reweighting), per-relation event priorities, and an occupancy/lag
//!   detector that climbs an explicit degradation ladder and recovers with
//!   hysteresis. The default `block` policy is bit-identical to classic
//!   backpressure.
//! - [`engine::AnnOptions`] — optional sub-linear retrieval: each epoch
//!   carries shared-base `supa-ann` HNSW indexes, one per destination node
//!   type (only touched nodes are re-inserted between epochs); queries
//!   beam-search the index, re-score candidates exactly, and a sampling
//!   recall guard meters recall@K against brute force without perturbing
//!   results. The layout, the index upkeep and the query rule are
//!   `supa_replica::retrieval`, shared with every replica.
//! - [`cache::QueryCache`] — per-user result cache invalidated by the
//!   rows each training chunk actually touched (SUPA's propagate step).
//! - [`metrics::ServeMetrics`] — QPS, p50/p99 latency, cache hit rate,
//!   staleness (admitted events not yet trained into published state),
//!   shed counts per priority class, and the degradation-level gauge.
//!   Each counter is one row of a table in `metrics.rs` that drives the
//!   shard merge, the report, the `--metrics-dump` JSON and the
//!   [`prom`] exposition; adding one is a one-line change.
//! - [`loadgen::run_closed_loop`] — seeded replay + query traffic with a
//!   reproducible result digest, used by `serve_bench` and CI;
//!   [`loadgen::run_open_loop`] — Poisson-arrival overload traffic that
//!   does *not* slow the producer down when the engine lags, for proving
//!   shed behavior and tail-latency bounds.
//!
//! ```
//! use supa::{Supa, SupaConfig};
//! use supa_datasets::taobao;
//! use supa_serve::{LoadConfig, ServeConfig, run_closed_loop};
//!
//! let data = taobao(0.01, 7);
//! let model = Supa::from_dataset(&data, SupaConfig::small(), 7).unwrap();
//! let load = LoadConfig { readers: 2, queries_per_reader: 20, ..LoadConfig::default() };
//! let report = run_closed_loop(&data, model, ServeConfig::default(), load).unwrap();
//! assert_eq!(report.metrics.torn_reads, 0);
//! ```

pub mod admission;
mod ann;
pub mod cache;
pub mod engine;
pub mod loadgen;
pub mod metrics;
pub mod prom;

pub use admission::{AdmissionOptions, DegradeLevel, ShedPolicy};
pub use cache::QueryCache;
pub use engine::{
    AnnEpoch, AnnOptions, CheckpointOptions, ClosedCause, EngineClosed, EpochSnapshot, QueryResult,
    ServeConfig, ServeEngine, ServeHandle, ServeReport, StopCause,
};
pub use loadgen::{
    probe_digest, run_closed_loop, run_open_loop, run_streamed_closed_loop, EventSource,
    LoadConfig, LoadReport, OpenLoopConfig, OpenLoopReport,
};
pub use metrics::{LatencyHistogram, MetricsReport, ServeMetrics};
pub use prom::PromServer;
