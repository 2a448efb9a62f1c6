//! Koo–Toueg blocking coordinated checkpointing \[5\].
//!
//! Two-phase commit over checkpoints: the coordinator takes a tentative
//! checkpoint and asks everyone to do the same; participants take the
//! checkpoint, **block application sends**, and ack; once all acks are in
//! the coordinator commits and everyone unblocks. We implement the
//! all-process variant (the original restricts requests to dependency
//! sets; with the dense workloads of the evaluation the dependency set is
//! almost always everyone, and the all-process variant is the canonical
//! "synchronous checkpointing" the paper argues against in §1).
//!
//! Two costs the experiments surface: (1) *blocking* — the application
//! cannot send between tentative and commit (E2); (2) *clustered storage
//! writes* — all processes write their state in phase 1 (E1).

use ocpt_core::{wire_cost, AppPayload, CheckpointProtocol, EnvTelemetry, ProtoAction};
use ocpt_metrics::Counters;
use ocpt_sim::{MsgId, ProcessId};

/// Envelope for Koo–Toueg runs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum KtEnv {
    /// Application message.
    App {
        /// The payload.
        payload: AppPayload,
    },
    /// Coordinator → participant: take tentative checkpoint `seq`.
    TakeTentative {
        /// Checkpoint round.
        seq: u64,
    },
    /// Participant → coordinator: tentative checkpoint `seq` taken.
    Ack {
        /// Checkpoint round.
        seq: u64,
    },
    /// Coordinator → participant: make checkpoint `seq` permanent.
    Commit {
        /// Checkpoint round.
        seq: u64,
    },
}

/// One process's Koo–Toueg state.
#[derive(Debug)]
pub struct KooToueg {
    id: ProcessId,
    n: usize,
    seq: u64,
    /// Blocked between tentative and commit.
    blocked: bool,
    /// Coordinator only: acks still outstanding for the current round.
    acks_pending: usize,
    stats: Counters,
}

impl KooToueg {
    /// A new instance for process `id` of `n`.
    pub fn new(id: ProcessId, n: usize) -> Self {
        assert!(n >= 2);
        KooToueg { id, n, seq: 0, blocked: false, acks_pending: 0, stats: Counters::new() }
    }

    fn take_tentative(&mut self, seq: u64, out: &mut Vec<ProtoAction<KtEnv>>) {
        self.seq = seq;
        self.blocked = true;
        self.stats.inc("ckpt.taken");
        out.push(ProtoAction::Snapshot { seq });
        out.push(ProtoAction::MarkCut { seq, back: 0 });
        // Synchronous write in phase 1 — every process does this at once.
        out.push(ProtoAction::FlushState { seq });
    }
}

impl CheckpointProtocol for KooToueg {
    type Env = KtEnv;

    fn name(&self) -> &'static str {
        "koo-toueg"
    }

    fn can_send_app(&self) -> bool {
        !self.blocked
    }

    fn wrap_app(
        &mut self,
        _dst: ProcessId,
        _msg_id: MsgId,
        payload: AppPayload,
        _out: &mut Vec<ProtoAction<KtEnv>>,
    ) -> KtEnv {
        debug_assert!(!self.blocked, "driver must respect can_send_app");
        self.stats.inc("app.sent");
        KtEnv::App { payload }
    }

    fn on_arrival(
        &mut self,
        _src: ProcessId,
        _msg_id: MsgId,
        env: KtEnv,
        out: &mut Vec<ProtoAction<KtEnv>>,
    ) -> Result<Option<AppPayload>, String> {
        match env {
            KtEnv::App { payload } => {
                self.stats.inc("app.received");
                Ok(Some(payload))
            }
            KtEnv::TakeTentative { seq } => {
                self.stats.inc("ctrl.received");
                if seq != self.seq + 1 {
                    return Err(format!("{}: unexpected round {seq} at {}", self.id, self.seq));
                }
                self.take_tentative(seq, out);
                self.stats.inc("ctrl.ack_sent");
                out.push(ProtoAction::Send { dst: ProcessId::P0, env: KtEnv::Ack { seq } });
                Ok(None)
            }
            KtEnv::Ack { seq } => {
                self.stats.inc("ctrl.received");
                if self.id != ProcessId::P0 || seq != self.seq {
                    return Err(format!("{}: stray ack for round {seq}", self.id));
                }
                self.acks_pending -= 1;
                if self.acks_pending == 0 {
                    // Phase 2: commit everywhere.
                    for p in ProcessId::all(self.n).filter(|p| *p != self.id) {
                        self.stats.inc("ctrl.commit_sent");
                        out.push(ProtoAction::Send { dst: p, env: KtEnv::Commit { seq } });
                    }
                    self.blocked = false;
                    out.push(ProtoAction::Complete { seq });
                }
                Ok(None)
            }
            KtEnv::Commit { seq } => {
                self.stats.inc("ctrl.received");
                if seq != self.seq {
                    return Err(format!("{}: commit for wrong round {seq}", self.id));
                }
                self.blocked = false;
                out.push(ProtoAction::Complete { seq });
                Ok(None)
            }
        }
    }

    fn initiate(&mut self, out: &mut Vec<ProtoAction<KtEnv>>) {
        if self.id != ProcessId::P0 {
            return;
        }
        if self.blocked {
            self.stats.inc("ckpt.initiation_skipped");
            return;
        }
        let seq = self.seq + 1;
        self.take_tentative(seq, out);
        self.acks_pending = self.n - 1;
        for p in ProcessId::all(self.n).filter(|p| *p != self.id) {
            self.stats.inc("ctrl.request_sent");
            out.push(ProtoAction::Send { dst: p, env: KtEnv::TakeTentative { seq } });
        }
    }

    fn env_wire_bytes(&self, env: &KtEnv) -> u64 {
        match env {
            KtEnv::App { payload } => wire_cost::app(payload.len, 0),
            _ => wire_cost::CTRL,
        }
    }

    fn env_telemetry(&self, env: &KtEnv) -> EnvTelemetry {
        match env {
            KtEnv::App { .. } => EnvTelemetry::default(),
            KtEnv::TakeTentative { seq } => EnvTelemetry::coded("ctrl.take_tentative", *seq),
            KtEnv::Ack { seq } => EnvTelemetry::coded("ctrl.ack", *seq),
            KtEnv::Commit { seq } => EnvTelemetry::coded("ctrl.commit", *seq),
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
    fn full_round_unblocks_everyone() {
        let n = 3;
        let mut c = KooToueg::new(ProcessId(0), n);
        let mut p1 = KooToueg::new(ProcessId(1), n);
        let mut p2 = KooToueg::new(ProcessId(2), n);
        let mut out = Vec::new();

        c.initiate(&mut out);
        assert!(!c.can_send_app(), "coordinator blocks in phase 1");
        let reqs: Vec<ProcessId> = out
            .iter()
            .filter_map(|a| match a {
                ProtoAction::Send { dst, env: KtEnv::TakeTentative { seq: 1 } } => Some(*dst),
                _ => None,
            })
            .collect();
        assert_eq!(reqs.len(), 2);
        out.clear();

        // Participants take tentative checkpoints, block and ack.
        p1.on_arrival(ProcessId(0), MsgId(0), KtEnv::TakeTentative { seq: 1 }, &mut out).unwrap();
        assert!(!p1.can_send_app());
        assert!(out.contains(&ProtoAction::FlushState { seq: 1 }));
        out.clear();
        p2.on_arrival(ProcessId(0), MsgId(1), KtEnv::TakeTentative { seq: 1 }, &mut out).unwrap();
        out.clear();

        // Coordinator collects acks; after the last it commits.
        c.on_arrival(ProcessId(1), MsgId(2), KtEnv::Ack { seq: 1 }, &mut out).unwrap();
        assert!(out.is_empty(), "no commit until all acks");
        c.on_arrival(ProcessId(2), MsgId(3), KtEnv::Ack { seq: 1 }, &mut out).unwrap();
        assert!(c.can_send_app());
        assert!(out.contains(&ProtoAction::Complete { seq: 1 }));
        let commits = out
            .iter()
            .filter(|a| matches!(a, ProtoAction::Send { env: KtEnv::Commit { seq: 1 }, .. }))
            .count();
        assert_eq!(commits, 2);
        out.clear();

        p1.on_arrival(ProcessId(0), MsgId(4), KtEnv::Commit { seq: 1 }, &mut out).unwrap();
        assert!(p1.can_send_app());
        assert!(out.contains(&ProtoAction::Complete { seq: 1 }));
    }

    #[test]
    fn app_messages_pass_through() {
        let mut p = KooToueg::new(ProcessId(1), 2);
        let mut out = Vec::new();
        let d =
            p.on_arrival(ProcessId(0), MsgId(0), KtEnv::App { payload: pl(9) }, &mut out).unwrap();
        assert_eq!(d, Some(pl(9)));
        assert!(out.is_empty());
    }

    #[test]
    fn initiate_skipped_while_in_progress() {
        let mut c = KooToueg::new(ProcessId(0), 2);
        let mut out = Vec::new();
        c.initiate(&mut out);
        out.clear();
        c.initiate(&mut out);
        assert!(out.is_empty());
        assert_eq!(c.stats().get("ckpt.initiation_skipped"), 1);
    }

    #[test]
    fn protocol_violations_are_errors() {
        let mut p = KooToueg::new(ProcessId(1), 3);
        let mut out = Vec::new();
        // Round skip.
        assert!(p
            .on_arrival(ProcessId(0), MsgId(0), KtEnv::TakeTentative { seq: 2 }, &mut out)
            .is_err());
        // Ack at a non-coordinator.
        assert!(p.on_arrival(ProcessId(2), MsgId(1), KtEnv::Ack { seq: 0 }, &mut out).is_err());
        // Commit for wrong round.
        assert!(p.on_arrival(ProcessId(0), MsgId(2), KtEnv::Commit { seq: 5 }, &mut out).is_err());
    }

    #[test]
    fn wire_bytes_and_metadata() {
        let p = KooToueg::new(ProcessId(0), 4);
        assert_eq!(p.env_wire_bytes(&KtEnv::Ack { seq: 1 }), wire_cost::CTRL);
        assert_eq!(p.env_wire_bytes(&KtEnv::App { payload: pl(50) }), wire_cost::app(50, 0));
        assert_eq!(p.name(), "koo-toueg");
        assert!(!p.needs_fifo());
    }
}
