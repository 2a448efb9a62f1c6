//! # ocpt-runtime — the OCPT protocol on real threads
//!
//! The simulator (`ocpt-harness`) proves properties deterministically; this
//! crate shows the same sans-io state machine is not simulator-bound. Each
//! process is an OS thread driving the simulator's own
//! [`ocpt_harness::Host`] — the one interpreter of the protocol's actions
//! and of when a checkpoint is durable — over a thread backend: envelopes
//! travel as encoded bytes over `std::sync::mpsc` channels (so the
//! `ocpt_core::wire` codec is exercised for real), timers are wall-clock
//! deadlines, durable checkpoints land in one mutex-guarded
//! [`ocpt_storage::CheckpointStore`], and a mutex-guarded
//! [`ocpt_causality::GlobalObserver`] checks Theorem 2 against genuine
//! thread interleavings. No faults, recovery or trace yet.
//!
//! ```no_run
//! use ocpt_runtime::Cluster;
//! use ocpt_core::OcptConfig;
//! use ocpt_sim::ProcessId;
//! use std::time::Duration;
//!
//! let cluster = Cluster::start(4, OcptConfig::default());
//! cluster.send_app(ProcessId(0), ProcessId(1), 1024);
//! cluster.checkpoint(ProcessId(0));
//! cluster.wait_for_round(1, Duration::from_secs(5)).unwrap();
//! cluster.shutdown();
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cluster;
mod node;
pub mod sync;

pub use cluster::{Cluster, ClusterError};
