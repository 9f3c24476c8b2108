//! Offline serde stand-in: the derive macros expand to nothing and the
//! traits are inert markers; nothing in this workspace serializes via serde.

pub use serde_derive::{Deserialize, Serialize};

pub trait Serialize {}

pub trait Deserialize<'de>: Sized {}
