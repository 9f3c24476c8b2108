//! `perfbench` — the repo's performance ledger: four named workloads run
//! against the real `ServeEngine` from outside (end-to-end metrics, tracing
//! off) and replayed stage by stage on one thread (per-layer metrics, one
//! span per call into a layer). See `README.md`.

pub mod compare;
pub mod engine_run;
pub mod json;
pub mod metrics;
pub mod replay;
pub mod report;
pub mod run;
pub mod setup;
pub mod stats;
pub mod trace;
pub mod workload;
