//! Chandy–Lamport distributed snapshots \[3\], iterated for periodic
//! checkpointing.
//!
//! The classical algorithm: the coordinator records its state and floods a
//! marker on every channel; each process records its own state on first
//! marker receipt, relays markers, and records the state of channel `c` as
//! the messages arriving on `c` between its own recording and `c`'s
//! marker. Requires **FIFO channels**.
//!
//! For the contention comparison (E1) the salient behaviour is that every
//! process writes its state to stable storage **when it records** — i.e.
//! all within one marker-flood round-trip of each other — which is exactly
//! the clustered-write pattern the paper's algorithm exists to avoid.

use ocpt_core::{wire_cost, AppPayload, CheckpointProtocol, EnvTelemetry, ProtoAction};
use ocpt_metrics::Counters;
use ocpt_sim::{MsgId, ProcessId};

/// Envelope for Chandy–Lamport runs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClEnv {
    /// Application message (no piggyback — CL adds none).
    App {
        /// The payload.
        payload: AppPayload,
    },
    /// Snapshot marker.
    Marker {
        /// Snapshot instance id.
        seq: u64,
    },
}

/// One process's Chandy–Lamport state.
#[derive(Debug)]
pub struct ChandyLamport {
    id: ProcessId,
    n: usize,
    /// Declared state-image size (storage charge for a snapshot).
    state_bytes: u64,
    /// Current snapshot instance.
    seq: u64,
    /// Recording in progress: channels still awaiting a marker.
    awaiting: Vec<bool>,
    awaiting_count: usize,
    recording: bool,
    /// Bytes of channel state recorded during the current snapshot.
    channel_bytes: u64,
    stats: Counters,
}

impl ChandyLamport {
    /// A new instance for process `id` of `n`.
    pub fn new(id: ProcessId, n: usize, state_bytes: u64) -> Self {
        assert!(n >= 2);
        ChandyLamport {
            id,
            n,
            state_bytes,
            seq: 0,
            awaiting: vec![false; n],
            awaiting_count: 0,
            recording: false,
            channel_bytes: 0,
            stats: Counters::new(),
        }
    }

    /// Declared state size (used by drivers for storage accounting).
    pub fn state_bytes(&self) -> u64 {
        self.state_bytes
    }

    /// Record local state for snapshot `seq` and flood markers.
    fn record_local(
        &mut self,
        seq: u64,
        skip_marker_from: Option<ProcessId>,
        out: &mut Vec<ProtoAction<ClEnv>>,
    ) {
        self.seq = seq;
        self.recording = true;
        self.channel_bytes = 0;
        self.stats.inc("ckpt.taken");
        out.push(ProtoAction::Snapshot { seq });
        out.push(ProtoAction::MarkCut { seq, back: 0 });
        // CL writes the recorded state immediately — the clustered write.
        out.push(ProtoAction::FlushState { seq });
        for p in ProcessId::all(self.n).filter(|p| *p != self.id) {
            self.stats.inc("ctrl.marker_sent");
            out.push(ProtoAction::Send { dst: p, env: ClEnv::Marker { seq } });
        }
        self.awaiting_count = 0;
        for p in ProcessId::all(self.n) {
            let waiting = p != self.id && Some(p) != skip_marker_from;
            self.awaiting[p.index()] = waiting;
            self.awaiting_count += usize::from(waiting);
        }
        if self.awaiting_count == 0 {
            self.complete(out);
        }
    }

    fn complete(&mut self, out: &mut Vec<ProtoAction<ClEnv>>) {
        self.recording = false;
        out.push(ProtoAction::FlushExtra { seq: self.seq, bytes: self.channel_bytes, log: None });
        out.push(ProtoAction::Complete { seq: self.seq });
    }
}

impl CheckpointProtocol for ChandyLamport {
    type Env = ClEnv;

    fn name(&self) -> &'static str {
        "chandy-lamport"
    }

    fn needs_fifo(&self) -> bool {
        true
    }

    fn wrap_app(
        &mut self,
        _dst: ProcessId,
        _msg_id: MsgId,
        payload: AppPayload,
        _out: &mut Vec<ProtoAction<ClEnv>>,
    ) -> ClEnv {
        self.stats.inc("app.sent");
        ClEnv::App { payload }
    }

    fn on_arrival(
        &mut self,
        src: ProcessId,
        _msg_id: MsgId,
        env: ClEnv,
        out: &mut Vec<ProtoAction<ClEnv>>,
    ) -> Result<Option<AppPayload>, String> {
        match env {
            ClEnv::Marker { seq } => {
                self.stats.inc("ctrl.marker_received");
                if seq > self.seq {
                    // First marker of a new snapshot: record now; the
                    // channel from `src` is empty by FIFO.
                    if seq != self.seq + 1 {
                        return Err(format!(
                            "{}: marker seq {seq} skips ahead of {}",
                            self.id, self.seq
                        ));
                    }
                    self.record_local(seq, Some(src), out);
                } else if seq == self.seq && self.recording && self.awaiting[src.index()] {
                    self.awaiting[src.index()] = false;
                    self.awaiting_count -= 1;
                    if self.awaiting_count == 0 {
                        self.complete(out);
                    }
                }
                // Stale markers (seq < self.seq) are ignored.
                Ok(None)
            }
            ClEnv::App { payload } => {
                self.stats.inc("app.received");
                if self.recording && self.awaiting[src.index()] {
                    // Part of channel `src → self`'s state.
                    self.channel_bytes += payload.len as u64;
                    self.stats.inc("log.channel_msgs");
                }
                Ok(Some(payload))
            }
        }
    }

    fn initiate(&mut self, out: &mut Vec<ProtoAction<ClEnv>>) {
        // Coordinator-initiated; non-coordinators ignore the periodic tick.
        if self.id != ProcessId::P0 {
            return;
        }
        if self.recording {
            self.stats.inc("ckpt.initiation_skipped");
            return;
        }
        let seq = self.seq + 1;
        self.record_local(seq, None, out);
    }

    fn env_wire_bytes(&self, env: &ClEnv) -> u64 {
        match env {
            ClEnv::App { payload } => wire_cost::app(payload.len, 0),
            ClEnv::Marker { .. } => wire_cost::CTRL,
        }
    }

    fn env_telemetry(&self, env: &ClEnv) -> EnvTelemetry {
        match env {
            ClEnv::App { .. } => EnvTelemetry::default(),
            ClEnv::Marker { seq } => EnvTelemetry::coded("ctrl.marker", *seq),
        }
    }

    fn stats(&self) -> &Counters {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pl(id: u64, len: u32) -> AppPayload {
        AppPayload { id, len }
    }

    #[test]
    fn coordinator_initiates_and_floods_markers() {
        let mut cl = ChandyLamport::new(ProcessId(0), 3, 1024);
        let mut out = Vec::new();
        cl.initiate(&mut out);
        assert!(out.contains(&ProtoAction::Snapshot { seq: 1 }));
        assert!(out.contains(&ProtoAction::FlushState { seq: 1 }));
        let markers: Vec<_> = out
            .iter()
            .filter(|a| matches!(a, ProtoAction::Send { env: ClEnv::Marker { seq: 1 }, .. }))
            .collect();
        assert_eq!(markers.len(), 2);
    }

    #[test]
    fn non_coordinator_ignores_initiate() {
        let mut cl = ChandyLamport::new(ProcessId(1), 3, 1024);
        let mut out = Vec::new();
        cl.initiate(&mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn first_marker_triggers_recording() {
        let mut cl = ChandyLamport::new(ProcessId(1), 3, 1024);
        let mut out = Vec::new();
        let r = cl.on_arrival(ProcessId(0), MsgId(0), ClEnv::Marker { seq: 1 }, &mut out).unwrap();
        assert!(r.is_none());
        assert!(out.contains(&ProtoAction::Snapshot { seq: 1 }));
        // Awaits marker only from P2 (P0's channel is empty by FIFO).
        assert_eq!(cl.awaiting_count, 1);
        // Marker from P2 completes the snapshot.
        out.clear();
        cl.on_arrival(ProcessId(2), MsgId(1), ClEnv::Marker { seq: 1 }, &mut out).unwrap();
        assert!(out.contains(&ProtoAction::Complete { seq: 1 }));
    }

    #[test]
    fn channel_state_recorded_between_record_and_marker() {
        let mut cl = ChandyLamport::new(ProcessId(1), 3, 1024);
        let mut out = Vec::new();
        cl.on_arrival(ProcessId(0), MsgId(0), ClEnv::Marker { seq: 1 }, &mut out).unwrap();
        out.clear();
        // App message from P2 (marker outstanding) → channel state.
        let d = cl
            .on_arrival(ProcessId(2), MsgId(1), ClEnv::App { payload: pl(1, 64) }, &mut out)
            .unwrap();
        assert_eq!(d, Some(pl(1, 64)));
        // App message from P0 (marker already received) → not recorded.
        cl.on_arrival(ProcessId(0), MsgId(2), ClEnv::App { payload: pl(2, 32) }, &mut out).unwrap();
        out.clear();
        cl.on_arrival(ProcessId(2), MsgId(3), ClEnv::Marker { seq: 1 }, &mut out).unwrap();
        let extra = out
            .iter()
            .find_map(|a| match a {
                ProtoAction::FlushExtra { bytes, .. } => Some(*bytes),
                _ => None,
            })
            .unwrap();
        assert_eq!(extra, 64);
    }

    #[test]
    fn iterated_snapshots_increment_seq() {
        let mut cl = ChandyLamport::new(ProcessId(0), 2, 1024);
        let mut out = Vec::new();
        cl.initiate(&mut out);
        out.clear();
        cl.on_arrival(ProcessId(1), MsgId(0), ClEnv::Marker { seq: 1 }, &mut out).unwrap();
        assert!(out.contains(&ProtoAction::Complete { seq: 1 }));
        out.clear();
        cl.initiate(&mut out);
        assert!(out.contains(&ProtoAction::Snapshot { seq: 2 }));
    }

    #[test]
    fn overlapping_initiation_skipped() {
        let mut cl = ChandyLamport::new(ProcessId(0), 3, 1024);
        let mut out = Vec::new();
        cl.initiate(&mut out);
        out.clear();
        cl.initiate(&mut out);
        assert!(out.is_empty());
        assert_eq!(cl.stats().get("ckpt.initiation_skipped"), 1);
    }

    #[test]
    fn marker_skip_is_error() {
        let mut cl = ChandyLamport::new(ProcessId(1), 3, 1024);
        let mut out = Vec::new();
        assert!(cl.on_arrival(ProcessId(0), MsgId(0), ClEnv::Marker { seq: 2 }, &mut out).is_err());
    }

    #[test]
    fn stale_marker_ignored() {
        let mut cl = ChandyLamport::new(ProcessId(1), 3, 1024);
        let mut out = Vec::new();
        cl.on_arrival(ProcessId(0), MsgId(0), ClEnv::Marker { seq: 1 }, &mut out).unwrap();
        cl.on_arrival(ProcessId(2), MsgId(1), ClEnv::Marker { seq: 1 }, &mut out).unwrap();
        out.clear();
        cl.on_arrival(ProcessId(0), MsgId(2), ClEnv::Marker { seq: 1 }, &mut out).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn wire_bytes() {
        let cl = ChandyLamport::new(ProcessId(0), 3, 1024);
        assert_eq!(cl.env_wire_bytes(&ClEnv::Marker { seq: 1 }), wire_cost::CTRL);
        assert_eq!(cl.env_wire_bytes(&ClEnv::App { payload: pl(1, 100) }), wire_cost::app(100, 0));
        assert!(cl.needs_fifo());
    }
}
