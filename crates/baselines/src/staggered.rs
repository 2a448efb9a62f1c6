//! Vaidya's staggered consistent checkpointing \[11\].
//!
//! The coordinated-but-staggered middle ground the paper compares itself
//! to (§4). A consistent line is fixed with a Chandy–Lamport-style marker
//! flood (*logical* checkpoints taken immediately, in memory), but the
//! *physical* writes to stable storage are serialised by a token that
//! walks `P_0 → P_1 → … → P_{N-1}`: a process writes only when it holds
//! the token, and forwards it when its write is durable. At most one
//! checkpoint write is in flight at any time, eliminating contention — at
//! the price of a long completion tail and extra control messages, which
//! is the trade-off E1/E2 quantify against OCPT's approach.
//!
//! Simplification vs. \[11\]: Vaidya converts logical to physical
//! checkpoints with message logging between the two; we charge the
//! recorded channel state with the physical write. The storage behaviour
//! (serialised writes on a consistent line) — the property under study —
//! is preserved.

use ocpt_core::{wire_cost, AppPayload, CheckpointProtocol, EnvTelemetry, ProtoAction};
use ocpt_metrics::Counters;
use ocpt_sim::{MsgId, ProcessId};

/// Envelope for staggered-checkpointing runs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StagEnv {
    /// Application message.
    App {
        /// The payload.
        payload: AppPayload,
    },
    /// Consistent-line marker (CL-style; requires FIFO).
    Marker {
        /// Round id.
        seq: u64,
    },
    /// The write token: holder may write its physical checkpoint.
    Token {
        /// Round id.
        seq: u64,
    },
}

/// One process's staggered-checkpointing state.
#[derive(Debug)]
pub struct Staggered {
    id: ProcessId,
    n: usize,
    seq: u64,
    /// Logical checkpoint taken for the current round.
    logical_taken: bool,
    /// Physical write issued and we must forward the token when durable.
    writing: bool,
    /// Marker bookkeeping (channel state recording, as in CL).
    awaiting: Vec<bool>,
    awaiting_count: usize,
    recording: bool,
    channel_bytes: u64,
    /// Token arrived before the logical checkpoint (possible with slow
    /// markers): hold it until the logical checkpoint is taken.
    token_pending: bool,
    stats: Counters,
}

impl Staggered {
    /// A new instance for process `id` of `n`.
    pub fn new(id: ProcessId, n: usize) -> Self {
        assert!(n >= 2);
        Staggered {
            id,
            n,
            seq: 0,
            logical_taken: false,
            writing: false,
            awaiting: vec![false; n],
            awaiting_count: 0,
            recording: false,
            channel_bytes: 0,
            token_pending: false,
            stats: Counters::new(),
        }
    }

    fn record_logical(
        &mut self,
        seq: u64,
        skip_from: Option<ProcessId>,
        out: &mut Vec<ProtoAction<StagEnv>>,
    ) {
        self.seq = seq;
        self.logical_taken = true;
        self.recording = true;
        self.channel_bytes = 0;
        self.stats.inc("ckpt.taken");
        // Logical checkpoint: snapshot in memory, NO storage write yet.
        out.push(ProtoAction::Snapshot { seq });
        out.push(ProtoAction::MarkCut { seq, back: 0 });
        for p in ProcessId::all(self.n).filter(|p| *p != self.id) {
            self.stats.inc("ctrl.marker_sent");
            out.push(ProtoAction::Send { dst: p, env: StagEnv::Marker { seq } });
        }
        self.awaiting_count = 0;
        for p in ProcessId::all(self.n) {
            let waiting = p != self.id && Some(p) != skip_from;
            self.awaiting[p.index()] = waiting;
            self.awaiting_count += usize::from(waiting);
        }
        if self.awaiting_count == 0 {
            self.recording = false;
        }
        if self.token_pending {
            self.token_pending = false;
            self.start_physical_write(out);
        }
    }

    fn start_physical_write(&mut self, out: &mut Vec<ProtoAction<StagEnv>>) {
        debug_assert!(self.logical_taken);
        self.writing = true;
        self.stats.inc("ckpt.physical_write");
        out.push(ProtoAction::FlushState { seq: self.seq });
        if self.channel_bytes > 0 {
            out.push(ProtoAction::FlushExtra {
                seq: self.seq,
                bytes: self.channel_bytes,
                log: None,
            });
        }
    }
}

impl CheckpointProtocol for Staggered {
    type Env = StagEnv;

    fn name(&self) -> &'static str {
        "staggered"
    }

    fn needs_fifo(&self) -> bool {
        true
    }

    fn wrap_app(
        &mut self,
        _dst: ProcessId,
        _msg_id: MsgId,
        payload: AppPayload,
        _out: &mut Vec<ProtoAction<StagEnv>>,
    ) -> StagEnv {
        self.stats.inc("app.sent");
        StagEnv::App { payload }
    }

    fn on_arrival(
        &mut self,
        src: ProcessId,
        _msg_id: MsgId,
        env: StagEnv,
        out: &mut Vec<ProtoAction<StagEnv>>,
    ) -> Result<Option<AppPayload>, String> {
        match env {
            StagEnv::App { payload } => {
                self.stats.inc("app.received");
                if self.recording && self.awaiting[src.index()] {
                    self.channel_bytes += payload.len as u64;
                    self.stats.inc("log.channel_msgs");
                }
                Ok(Some(payload))
            }
            StagEnv::Marker { seq } => {
                self.stats.inc("ctrl.marker_received");
                if seq > self.seq {
                    if seq != self.seq + 1 {
                        return Err(format!(
                            "{}: marker skips to {seq} from {}",
                            self.id, self.seq
                        ));
                    }
                    self.record_logical(seq, Some(src), out);
                } else if seq == self.seq && self.recording && self.awaiting[src.index()] {
                    self.awaiting[src.index()] = false;
                    self.awaiting_count -= 1;
                    if self.awaiting_count == 0 {
                        self.recording = false;
                    }
                }
                Ok(None)
            }
            StagEnv::Token { seq } => {
                self.stats.inc("ctrl.token_received");
                if seq != self.seq && seq != self.seq + 1 {
                    return Err(format!("{}: token for round {seq} at {}", self.id, self.seq));
                }
                if seq == self.seq + 1 {
                    // Token outran the marker (non-FIFO across different
                    // channels): take the logical checkpoint now.
                    self.record_logical(seq, None, out);
                    self.token_pending = false;
                    self.start_physical_write(out);
                } else if self.logical_taken && !self.writing {
                    self.start_physical_write(out);
                } else {
                    self.token_pending = true;
                }
                Ok(None)
            }
        }
    }

    fn on_storage_done(&mut self, seq: u64, out: &mut Vec<ProtoAction<StagEnv>>) {
        if !self.writing || seq != self.seq {
            return;
        }
        self.writing = false;
        self.logical_taken = false;
        out.push(ProtoAction::Complete { seq });
        // Pass the token on; the last process completes the round.
        let next = self.id.0 + 1;
        if (next as usize) < self.n {
            self.stats.inc("ctrl.token_sent");
            out.push(ProtoAction::Send { dst: ProcessId(next), env: StagEnv::Token { seq } });
        }
    }

    fn initiate(&mut self, out: &mut Vec<ProtoAction<StagEnv>>) {
        if self.id != ProcessId::P0 {
            return;
        }
        if self.logical_taken || self.writing {
            self.stats.inc("ckpt.initiation_skipped");
            return;
        }
        let seq = self.seq + 1;
        self.record_logical(seq, None, out);
        // P0 is first in the stagger order: write immediately.
        self.start_physical_write(out);
    }

    fn env_wire_bytes(&self, env: &StagEnv) -> u64 {
        match env {
            StagEnv::App { payload } => wire_cost::app(payload.len, 0),
            _ => wire_cost::CTRL,
        }
    }

    fn env_telemetry(&self, env: &StagEnv) -> EnvTelemetry {
        match env {
            StagEnv::App { .. } => EnvTelemetry::default(),
            StagEnv::Marker { seq } => EnvTelemetry::coded("ctrl.marker", *seq),
            StagEnv::Token { seq } => EnvTelemetry::coded("ctrl.token", *seq),
        }
    }

    fn stats(&self) -> &Counters {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pl(len: u32) -> AppPayload {
        AppPayload { id: 1, len }
    }

    #[test]
    fn p0_takes_logical_and_writes_first() {
        let mut s = Staggered::new(ProcessId(0), 3);
        let mut out = Vec::new();
        s.initiate(&mut out);
        assert!(out.contains(&ProtoAction::Snapshot { seq: 1 }));
        assert!(out.contains(&ProtoAction::FlushState { seq: 1 }));
        let markers = out
            .iter()
            .filter(|a| matches!(a, ProtoAction::Send { env: StagEnv::Marker { .. }, .. }))
            .count();
        assert_eq!(markers, 2);
    }

    #[test]
    fn token_forwarded_only_after_durable_write() {
        let mut s = Staggered::new(ProcessId(0), 3);
        let mut out = Vec::new();
        s.initiate(&mut out);
        out.clear();
        // Nothing forwarded yet.
        s.on_storage_done(1, &mut out);
        assert!(out.contains(&ProtoAction::Complete { seq: 1 }));
        assert!(
            out.contains(&ProtoAction::Send { dst: ProcessId(1), env: StagEnv::Token { seq: 1 } })
        );
    }

    #[test]
    fn marker_then_token_writes_once() {
        let mut s = Staggered::new(ProcessId(1), 3);
        let mut out = Vec::new();
        s.on_arrival(ProcessId(0), MsgId(0), StagEnv::Marker { seq: 1 }, &mut out).unwrap();
        // Logical only: no flush yet.
        assert!(!out.iter().any(|a| matches!(a, ProtoAction::FlushState { .. })));
        out.clear();
        s.on_arrival(ProcessId(0), MsgId(1), StagEnv::Token { seq: 1 }, &mut out).unwrap();
        assert!(out.contains(&ProtoAction::FlushState { seq: 1 }));
        out.clear();
        s.on_storage_done(1, &mut out);
        assert!(
            out.contains(&ProtoAction::Send { dst: ProcessId(2), env: StagEnv::Token { seq: 1 } })
        );
    }

    #[test]
    fn token_before_marker_takes_checkpoint() {
        let mut s = Staggered::new(ProcessId(1), 3);
        let mut out = Vec::new();
        s.on_arrival(ProcessId(0), MsgId(0), StagEnv::Token { seq: 1 }, &mut out).unwrap();
        assert!(out.contains(&ProtoAction::Snapshot { seq: 1 }));
        assert!(out.contains(&ProtoAction::FlushState { seq: 1 }));
    }

    #[test]
    fn last_process_does_not_forward() {
        let mut s = Staggered::new(ProcessId(2), 3);
        let mut out = Vec::new();
        s.on_arrival(ProcessId(0), MsgId(0), StagEnv::Marker { seq: 1 }, &mut out).unwrap();
        s.on_arrival(ProcessId(1), MsgId(1), StagEnv::Token { seq: 1 }, &mut out).unwrap();
        out.clear();
        s.on_storage_done(1, &mut out);
        assert!(out.contains(&ProtoAction::Complete { seq: 1 }));
        assert!(!out.iter().any(|a| matches!(a, ProtoAction::Send { .. })));
    }

    #[test]
    fn channel_state_flushed_with_physical_write() {
        let mut s = Staggered::new(ProcessId(1), 3);
        let mut out = Vec::new();
        s.on_arrival(ProcessId(0), MsgId(0), StagEnv::Marker { seq: 1 }, &mut out).unwrap();
        s.on_arrival(ProcessId(2), MsgId(1), StagEnv::App { payload: pl(40) }, &mut out).unwrap();
        out.clear();
        s.on_arrival(ProcessId(0), MsgId(2), StagEnv::Token { seq: 1 }, &mut out).unwrap();
        assert!(out.iter().any(|a| matches!(a, ProtoAction::FlushExtra { bytes: 40, .. })));
    }

    #[test]
    fn app_passthrough_and_metadata() {
        let mut s = Staggered::new(ProcessId(1), 3);
        let mut out = Vec::new();
        let d = s
            .on_arrival(ProcessId(0), MsgId(0), StagEnv::App { payload: pl(7) }, &mut out)
            .unwrap();
        assert_eq!(d, Some(pl(7)));
        assert!(s.needs_fifo());
        assert_eq!(s.name(), "staggered");
    }
}
