//! # supa-replica — epoch-delta replication for multi-process read scaling
//!
//! SUPA's instant-update training touches only a small node set per event,
//! so the state change between two published serving epochs is a compact
//! *delta*: the touched embedding rows, the absorbed edge events, and the
//! ANN dirty list. This crate replicates those deltas from one writer
//! process to any number of read replicas:
//!
//! - [`DeltaPublisher`] (writer side) serializes every published epoch as a
//!   `SUPADELTAv001` frame (see `supa::delta`) to a length-prefixed TCP
//!   stream and/or an append-only segment file. New TCP subscribers first
//!   receive a `SUPABASEv0001` full-snapshot baseline, atomically paired
//!   with the delta chain that follows it, so a replica never observes a
//!   gap on a healthy connection.
//! - [`Replica`] (reader side) applies baselines and deltas to a local
//!   [`supa::ServingSnapshot`] + shared-base ANN indexes and answers top-K
//!   queries, so *same epoch ⇒ byte-identical ids and scores*.
//! - [`retrieval`] is why that holds: the candidate layout, the index
//!   build / refresh / adoption and the ANN-or-brute query rule live there
//!   once, and the writer's serving engine (`supa-serve`) calls the same
//!   code.
//! - [`run_tcp`] / [`replay_segment`] drive a replica from either
//!   transport, turning torn frames (CRC failures) and epoch-chain gaps
//!   into counted resyncs — a fresh baseline over TCP, a scan to the next
//!   baseline frame in a segment — never a panic and never a silently
//!   divergent replica.

mod publisher;
mod replica;
pub mod retrieval;

pub use publisher::{DeltaPublisher, PublishOptions};
pub use replica::{replay_segment, run_tcp, AnnParams, Replica, ReplicaCounters};
