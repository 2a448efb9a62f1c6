//! # ocpt-storage — the shared stable-storage substrate
//!
//! Models the network file server the paper keeps pointing at: one shared
//! resource every process must eventually write checkpoints to.
//!
//! * [`StorageServer`] — a deterministic processor-sharing queue: `k`
//!   concurrent writers each get `1/k` of the bandwidth. Contention =
//!   measurable stall, exactly the quantity the paper's design minimises.
//! * [`CheckpointStore`] — what is durably stored, per `(process, csn)`,
//!   with recovery-line computation and garbage collection.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod server;
pub mod store;

pub use server::{Completion, StorageConfig, StorageServer};
pub use store::{CheckpointStore, StoredCheckpoint};
