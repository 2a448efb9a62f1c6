//! # ocpt-core — optimistic checkpointing with selective message logging
//!
//! The primary contribution of Jiang & Manivannan (IPDPS 2007): a
//! quasi-synchronous checkpointing algorithm in which **every checkpoint
//! belongs to a consistent global checkpoint**, no process blocks, no
//! checkpoint is forced before processing a received message, and stable
//! storage writes are naturally staggered.
//!
//! A checkpoint is `C_{i,k} = CT_{i,k} ∪ logSet_{i,k}`: a *tentative*
//! state snapshot taken optimistically plus the log of every message sent
//! or received until the checkpoint is *finalized*. Knowledge of who has
//! taken a tentative checkpoint spreads via piggybacks `(csn, stat,
//! tentSet)` on application messages; a process finalizes when it learns
//! everyone has taken one (or that somebody already finalized). A
//! timer-driven `CK_BGN`/`CK_REQ`/`CK_END` control layer guarantees
//! convergence when application traffic is too sparse.
//!
//! ## Architecture
//!
//! [`OcptProcess`] is a **sans-io state machine**: handlers consume one
//! event (application send/receive, control message, timer) and append
//! [`ProtoAction`]s for the driver to execute — the one action vocabulary
//! every algorithm in the workspace speaks through [`CheckpointProtocol`].
//! The process also decides when its checkpoint's bytes are written
//! (the flush and write policies, [`policy`]). The same type runs on the
//! deterministic simulator (`ocpt-harness`) and on OS threads
//! (`ocpt-runtime`).
//!
//! ```
//! use ocpt_core::{OcptConfig, OcptProcess, ProtoAction};
//! use ocpt_sim::{MsgId, ProcessId};
//!
//! let mut p0 = OcptProcess::new(ProcessId(0), 2, OcptConfig::default());
//! let mut p1 = OcptProcess::new(ProcessId(1), 2, OcptConfig::default());
//! let mut out = Vec::new();
//!
//! // P0 initiates a consistent global checkpoint.
//! assert!(p0.initiate_checkpoint(&mut out));
//! // Its next message carries the news...
//! let payload = ocpt_core::AppPayload { id: 1, len: 64 };
//! let pb = p0.on_app_send(ProcessId(1), MsgId(0), payload);
//! out.clear();
//! // ...and P1, on receipt, takes its own tentative checkpoint; with
//! // N = 2 it immediately knows everyone has, so it finalizes.
//! p1.on_app_receive(ProcessId(0), MsgId(0), payload, &pb, &mut out).expect("accepted");
//! assert!(out.contains(&ProtoAction::Complete { seq: 1 }));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod api;
pub mod config;
pub mod control;
pub mod error;
pub mod log;
pub mod piggyback;
pub mod policy;
pub mod protocol;
pub mod recovery;
pub mod snapshot;
pub mod strategy;
pub mod types;
pub mod wire;

pub use api::{wire_cost, CheckpointProtocol, EnvTelemetry, ProtoAction};
pub use config::{ControlTopology, FlushPolicy, OcptConfig, WritePolicy};
pub use error::ProtocolError;
pub use log::{Direction, EntryKind, LogEntry, MessageLog};
pub use piggyback::Piggyback;
pub use protocol::OcptProcess;
pub use recovery::{plan_recovery, replay, RecoveryError, RecoveryPlan};
pub use snapshot::AppSnapshot;
pub use strategy::{LogDecision, LogWindow, LoggingKind, LoggingStrategy, ReplayPlan};
pub use types::{Csn, Status, TentSet};
pub use wire::{
    decode_envelope, encode_envelope, AppPayload, CtrlKind, CtrlMsg, Envelope, WireError,
};
