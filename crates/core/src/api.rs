//! The driver-facing protocol abstraction — the one action vocabulary.
//!
//! Every checkpointing algorithm in this repository — the paper's OCPT
//! ([`crate::OcptProcess`]) and the five comparators in `ocpt-baselines` —
//! implements [`CheckpointProtocol`]: a sans-io state machine whose
//! handlers append [`ProtoAction`]s for the driver (simulator harness or
//! threaded runtime) to execute. This is what lets the experiments run
//! *all* algorithms on the identical substrate with identical workloads,
//! which is the whole point of a controlled comparison.
//!
//! ## Receive phases
//!
//! Arrival is split in two so that both checkpoint-before-processing (CIC
//! forced checkpoints) and checkpoint-after-processing (the paper's
//! algorithm, §1: "a process can first process the received message and
//! then take checkpoint") can be expressed:
//!
//! 1. [`CheckpointProtocol::on_arrival`] — runs before the application
//!    sees anything; may emit snapshots (forced checkpoints, marker
//!    handling). Returns the payload to deliver, if any.
//! 2. the driver processes the payload (records the receive event);
//! 3. [`CheckpointProtocol::after_delivery`] — runs after processing;
//!    OCPT's §3.4.3 case analysis lives here.

use ocpt_metrics::Counters;
use ocpt_sim::{MsgId, ProcessId, SimDuration};

use crate::log::MessageLog;
use crate::wire::AppPayload;

/// An effect for the driver to execute.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProtoAction<Env> {
    /// Snapshot the application state *now* into in-memory slot `seq`.
    Snapshot {
        /// Checkpoint identifier (sequence number / snapshot id / index).
        seq: u64,
    },
    /// The consistency cut of checkpoint `seq` sits at the current local
    /// application-event position minus `back`. Baselines emit this with
    /// their snapshot; OCPT emits it at finalization (the cut of
    /// `C_{i,k}` is the finalization event `CFE_{i,k}`, and `back = 1`
    /// when the trigger message was excluded from the log).
    MarkCut {
        /// Checkpoint identifier.
        seq: u64,
        /// Events to step back from the current position.
        back: u32,
    },
    /// Write the in-memory state snapshot `seq` to stable storage.
    FlushState {
        /// Checkpoint identifier.
        seq: u64,
    },
    /// Write auxiliary checkpoint data (message logs, channel state).
    FlushExtra {
        /// Checkpoint identifier.
        seq: u64,
        /// Bytes to charge the storage server with.
        bytes: u64,
        /// The actual log content, when the algorithm has one worth
        /// persisting for replay (OCPT's `logSet`); `None` for baselines
        /// whose aux data we only account by size.
        log: Option<MessageLog>,
    },
    /// Checkpoint `seq` is locally complete (committed / finalized).
    Complete {
        /// Checkpoint identifier.
        seq: u64,
    },
    /// Send a protocol envelope to `dst`.
    Send {
        /// Destination.
        dst: ProcessId,
        /// Envelope (application wrapper or algorithm control message).
        env: Env,
    },
    /// Arm a timer; the driver calls [`CheckpointProtocol::on_timer`] with
    /// `tag` when it fires. Re-arming a live `tag` replaces it.
    SetTimer {
        /// Owner-chosen discriminator.
        tag: u64,
        /// Delay from now.
        delay: SimDuration,
    },
    /// Cancel the timer with `tag`.
    CancelTimer {
        /// The tag passed to `SetTimer`.
        tag: u64,
    },
    /// A forced checkpoint was taken before the current message could be
    /// processed (communication-induced checkpointing). The driver charges
    /// the response-time penalty measured in experiment E8.
    ForcedBeforeProcessing {
        /// The forced checkpoint's identifier.
        seq: u64,
    },
}

/// How the flight recorder should classify an envelope: a stable event
/// code (e.g. `"ctrl.ck_bgn"`) and the checkpoint round (csn / snapshot
/// id) the envelope belongs to, when it belongs to one. Returned by
/// [`CheckpointProtocol::env_telemetry`]; consumed by the drivers when
/// recording `CtrlSend`/`CtrlRecv`/`AppSend` trace events (DESIGN.md §8).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EnvTelemetry {
    /// Stable machine-readable event code; `None` means "use the trace
    /// kind's default code" (anonymous traffic).
    pub code: Option<&'static str>,
    /// Checkpoint round the envelope carries or belongs to.
    pub seq: Option<u64>,
}

impl EnvTelemetry {
    /// Classified traffic: a code and the round it belongs to.
    pub fn coded(code: &'static str, seq: u64) -> Self {
        EnvTelemetry { code: Some(code), seq: Some(seq) }
    }

    /// Traffic that belongs to round `seq` but needs no special code
    /// (e.g. an application message piggybacking its sender's csn).
    pub fn in_round(seq: u64) -> Self {
        EnvTelemetry { code: None, seq: Some(seq) }
    }
}

/// A sans-io checkpointing protocol instance (one per process).
pub trait CheckpointProtocol {
    /// The envelope type this protocol puts on the wire.
    type Env: Clone + std::fmt::Debug;

    /// Algorithm name for reports.
    fn name(&self) -> &'static str;

    /// Whether the algorithm requires FIFO channels (Chandy–Lamport and
    /// derivatives do; the paper's algorithm does not, §2.1).
    fn needs_fifo(&self) -> bool {
        false
    }

    /// May the application send right now? Blocking coordinated protocols
    /// (Koo–Toueg) return `false` between tentative and commit; the driver
    /// defers workload sends and accounts the blocked time.
    fn can_send_app(&self) -> bool {
        true
    }

    /// Wrap an outgoing application payload into an envelope.
    fn wrap_app(
        &mut self,
        dst: ProcessId,
        msg_id: MsgId,
        payload: AppPayload,
        out: &mut Vec<ProtoAction<Self::Env>>,
    ) -> Self::Env;

    /// Phase 1 of receive: before the application processes anything.
    /// Returns the application payload to deliver, or `None` for pure
    /// control traffic. `Err` signals a protocol invariant violation.
    fn on_arrival(
        &mut self,
        src: ProcessId,
        msg_id: MsgId,
        env: Self::Env,
        out: &mut Vec<ProtoAction<Self::Env>>,
    ) -> Result<Option<AppPayload>, String>;

    /// Phase 2 of receive: after the application processed the payload
    /// returned by [`Self::on_arrival`].
    fn after_delivery(
        &mut self,
        src: ProcessId,
        msg_id: MsgId,
        payload: AppPayload,
        out: &mut Vec<ProtoAction<Self::Env>>,
    ) -> Result<(), String> {
        let _ = (src, msg_id, payload, out);
        Ok(())
    }

    /// The driver's periodic checkpoint trigger ("take a checkpoint once
    /// every interval"). Coordinator-based algorithms act only on the
    /// coordinator; others act everywhere.
    fn initiate(&mut self, out: &mut Vec<ProtoAction<Self::Env>>);

    /// A timer armed via [`ProtoAction::SetTimer`] fired.
    fn on_timer(&mut self, tag: u64, out: &mut Vec<ProtoAction<Self::Env>>) {
        let _ = (tag, out);
    }

    /// Whether every checkpoint also writes a [`ProtoAction::FlushExtra`]
    /// that may come after its [`ProtoAction::Complete`]: OCPT's message
    /// log, the last write of a checkpoint whose state was flushed early.
    /// A driver records such a checkpoint durable only once that write is
    /// in. The baselines issue every write before `Complete`.
    fn logs_after_complete(&self) -> bool {
        false
    }

    /// A stable-storage write for checkpoint `seq` became durable.
    fn on_storage_done(&mut self, seq: u64, out: &mut Vec<ProtoAction<Self::Env>>) {
        let _ = (seq, out);
    }

    /// Reset this instance to the protocol state it would hold right after
    /// finalizing the consistent global checkpoint `line` — the rollback
    /// half of recovery. Algorithms without live-recovery support return
    /// `Err` (the harness then refuses to continue past a crash).
    fn restore_from_line(&mut self, line: u64) -> Result<(), String> {
        let _ = line;
        Err(format!("{}: live recovery not supported", self.name()))
    }

    /// Envelope used to re-inject a logged in-transit payload during
    /// recovery (the sender's state already contains the send event, so
    /// the message is replayed by the recovery layer, not re-executed).
    fn replay_envelope(&self, payload: AppPayload) -> Option<Self::Env> {
        let _ = payload;
        None
    }

    /// Bytes `env` occupies on the wire (headers + piggyback + payload).
    fn env_wire_bytes(&self, env: &Self::Env) -> u64;

    /// Classify `env` for the flight recorder (event code + checkpoint
    /// round). The default classifies nothing; protocols with structured
    /// envelopes override this so control waves become traceable spans.
    fn env_telemetry(&self, env: &Self::Env) -> EnvTelemetry {
        let _ = env;
        EnvTelemetry::default()
    }

    /// Protocol event counters.
    fn stats(&self) -> &Counters;
}

/// Wire sizes every algorithm charges, in the framing of
/// [`crate::wire`]: a baseline's envelope costs what an OCPT envelope with
/// the same piggyback would.
pub mod wire_cost {
    use crate::wire::{APP_FIXED_BYTES, CTRL_FIXED_BYTES, ENV_HEADER_BYTES};

    /// Envelope header bytes (version + discriminant + n as u32).
    pub const HEADER: u64 = ENV_HEADER_BYTES as u64;
    /// Fixed application fields (payload id + len).
    pub const APP_FIXED: u64 = APP_FIXED_BYTES as u64;
    /// A small control message (kind + seq).
    pub const CTRL: u64 = HEADER + CTRL_FIXED_BYTES as u64;

    /// App envelope cost with `piggyback` extra bytes.
    pub fn app(payload_len: u32, piggyback: u64) -> u64 {
        HEADER + APP_FIXED + piggyback + payload_len as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::piggyback::Piggyback;
    use crate::types::{Status, TentSet};
    use crate::wire::{CtrlKind, CtrlMsg, Envelope};

    #[test]
    fn wire_cost_app() {
        assert_eq!(wire_cost::app(100, 8), 6 + 12 + 8 + 100);
        assert_eq!(wire_cost::CTRL, 15);
    }

    #[test]
    fn envelopes_cost_what_wire_cost_charges() {
        let pb = Piggyback::new(3, Status::Tentative, TentSet::singleton(5, ProcessId(2)));
        let app = Envelope::App { pb: pb.clone(), payload: AppPayload { id: 9, len: 100 } };
        assert_eq!(app.wire_bytes(), wire_cost::app(100, pb.wire_bytes() as u64));
        let ctrl = Envelope::Ctrl(CtrlMsg { kind: CtrlKind::CkReq, csn: 3 });
        assert_eq!(ctrl.wire_bytes(), wire_cost::CTRL);
    }

    #[test]
    fn actions_compare() {
        let a: ProtoAction<u8> = ProtoAction::Snapshot { seq: 1 };
        assert_eq!(a.clone(), a);
        assert_ne!(a, ProtoAction::Complete { seq: 1 });
    }
}
