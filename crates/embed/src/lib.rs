//! # supa-embed — embedding storage and skip-gram machinery
//!
//! Shared substrate for every shallow-embedding model in this reproduction:
//! SUPA's long/short-term memories and context embeddings, and the
//! DeepWalk/LINE/node2vec/GATNE/NetWalk/DyHNE family of baselines.
//!
//! Contents:
//! - [`EmbeddingTable`]: contiguous `n × d` `f32` storage with per-row
//!   ("lazy") Adam state — only rows touched by an event pay optimiser cost,
//!   which is what makes SUPA's per-edge updates cheap;
//! - [`AliasTable`]: Vose's alias method for O(1) weighted sampling;
//! - [`NegativeSampler`]: the skip-gram noise distribution
//!   `P_neg(v) ∝ deg(v)^{3/4}`;
//! - [`sgns`]: skip-gram-with-negative-sampling updates used by the
//!   random-walk baselines;
//! - [`vecmath`]: the small slice kernels everything else builds on;
//! - [`codec`]: the bounds-checked little-endian slice codec behind every
//!   table blob, checkpoint, replication frame and persisted ANN index.

pub mod alias;
pub mod codec;
pub mod negative;
pub mod sgns;
pub mod table;
pub mod vecmath;

pub use alias::AliasTable;
pub use negative::NegativeSampler;
pub use table::{EmbeddingTable, EmbeddingValues, RowState};
