//! When a checkpoint's bytes reach stable storage, and the driver-facing
//! side of [`OcptProcess`].
//!
//! The paper leaves the write moment to the process: "processes are able
//! to choose their convenient time for writing the tentative checkpoints
//! … to stable storage" (§1). Two policies place it: [`FlushPolicy`] for
//! the tentative state between `CT_{i,k}` and finalization, and
//! [`WritePolicy`] for the finalized checkpoint after the decision. Both
//! run on the process's own timers, so [`OcptProcess`] implements
//! [`CheckpointProtocol`] itself and every driver executes the same
//! [`ProtoAction`]s.
//!
//! Timer tags are `csn * 4 + kind`: kind 0 is the convergence timer
//! (Fig. 4), 1 the early flush of the tentative state, 2 the deferred
//! finalize write.

use ocpt_metrics::Counters;
use ocpt_sim::{MsgId, ProcessId, SimDuration};

use crate::api::{CheckpointProtocol, EnvTelemetry, ProtoAction};
use crate::config::{FlushPolicy, WritePolicy};
use crate::log::MessageLog;
use crate::piggyback::Piggyback;
use crate::protocol::{OcptProcess, Out};
use crate::types::{Csn, Status, TentSet};
use crate::wire::{AppPayload, CtrlKind, Envelope};

const CONVERGENCE: u64 = 0;
const FLUSH: u64 = 1;
const WRITE: u64 = 2;

/// Tag of the convergence timer guarding checkpoint `csn`.
pub(crate) fn conv_tag(csn: Csn) -> u64 {
    csn * 4 + CONVERGENCE
}

impl OcptProcess {
    /// Arm the convergence timer for the current csn (Fig. 4).
    pub(crate) fn arm_convergence_timer(&mut self, out: &mut Out) {
        self.timer_armed = true;
        self.stats_mut().inc("timer.set");
        let delay = self.config().convergence_timeout;
        out.push(ProtoAction::SetTimer { tag: conv_tag(self.csn()), delay });
    }

    /// Cancel the convergence timer if it is armed. An armed timer always
    /// guards the current csn: the csn only moves on through a
    /// finalization, which cancels it.
    pub(crate) fn cancel_convergence_timer(&mut self, out: &mut Out) {
        if self.timer_armed {
            self.timer_armed = false;
            out.push(ProtoAction::CancelTimer { tag: conv_tag(self.csn()) });
        }
    }

    /// The flush policy at `CT_{i,csn}`: write the tentative state now, at
    /// finalization, or after a jittered delay.
    pub(crate) fn schedule_state_flush(&mut self, out: &mut Out) {
        let csn = self.csn();
        let policy = self.config().flush_policy;
        match policy {
            FlushPolicy::Eager => {
                self.state_flushed_for = Some(csn);
                out.push(ProtoAction::FlushState { seq: csn });
            }
            FlushPolicy::Lazy => {}
            FlushPolicy::Jittered { max_delay } => {
                let delay = self.rng.uniform_duration(SimDuration::ZERO, max_delay);
                self.flush_timer_for = Some(csn);
                out.push(ProtoAction::SetTimer { tag: csn * 4 + FLUSH, delay });
            }
        }
    }

    /// The finalize decision for the current csn: the cut and the content
    /// of the checkpoint are fixed here, and the storage writes land per
    /// the write policy.
    pub(crate) fn commit(&mut self, log: MessageLog, trigger_excluded: bool, out: &mut Out) {
        let csn = self.csn();
        if self.flush_timer_for.take().is_some() {
            out.push(ProtoAction::CancelTimer { tag: csn * 4 + FLUSH });
        }
        out.push(ProtoAction::MarkCut { seq: csn, back: u32::from(trigger_excluded) });
        out.push(ProtoAction::Complete { seq: csn });
        let policy = self.config().finalize_write;
        let delay = match policy {
            WritePolicy::Immediate => SimDuration::ZERO,
            WritePolicy::Jittered { window } => {
                self.rng.uniform_duration(SimDuration::ZERO, window)
            }
            WritePolicy::Phased { window } => window * self.id().0 as u64 / self.n() as u64,
        };
        if delay.is_zero() {
            self.write_checkpoint(csn, log, out);
        } else {
            self.deferred_writes.push((csn, log));
            out.push(ProtoAction::SetTimer { tag: csn * 4 + WRITE, delay });
        }
    }

    /// Issue the storage writes of a finalized checkpoint: the tentative
    /// state (unless an early flush already covered it) and the frozen log.
    fn write_checkpoint(&mut self, csn: Csn, log: MessageLog, out: &mut Out) {
        if self.state_flushed_for != Some(csn) {
            self.state_flushed_for = Some(csn);
            out.push(ProtoAction::FlushState { seq: csn });
        }
        // Durable size of the frozen log exactly as `MessageLog::encode`
        // lays it out, the extended strategies' window/clock header
        // included.
        let bytes = log.encoded_len();
        out.push(ProtoAction::FlushExtra { seq: csn, bytes, log: Some(log) });
    }
}

impl CheckpointProtocol for OcptProcess {
    type Env = Envelope;

    fn name(&self) -> &'static str {
        "ocpt"
    }

    fn wrap_app(
        &mut self,
        dst: ProcessId,
        msg_id: MsgId,
        payload: AppPayload,
        _out: &mut Out,
    ) -> Envelope {
        let pb = self.on_app_send(dst, msg_id, payload);
        Envelope::App { pb, payload }
    }

    fn on_arrival(
        &mut self,
        src: ProcessId,
        _msg_id: MsgId,
        env: Envelope,
        out: &mut Out,
    ) -> Result<Option<AppPayload>, String> {
        match env {
            Envelope::Ctrl(cm) => {
                self.on_ctrl_receive(src, cm, out).map_err(|e| e.to_string())?;
                Ok(None)
            }
            Envelope::App { pb, payload } => {
                // The paper processes the message first (§3.4.3); the case
                // analysis runs in `after_delivery`.
                debug_assert!(self.arrived.is_none(), "overlapping deliveries");
                self.arrived = Some(pb);
                Ok(Some(payload))
            }
        }
    }

    fn after_delivery(
        &mut self,
        src: ProcessId,
        msg_id: MsgId,
        payload: AppPayload,
        out: &mut Out,
    ) -> Result<(), String> {
        let pb = self.arrived.take().expect("after_delivery without on_arrival");
        self.on_app_receive(src, msg_id, payload, &pb, out).map_err(|e| e.to_string())
    }

    fn initiate(&mut self, out: &mut Out) {
        // One checkpoint per interval: a round this process joined since
        // the last tick counts as this interval's.
        if self.csn() == self.csn_at_last_tick {
            self.initiate_checkpoint(out);
        }
        self.csn_at_last_tick = self.csn();
    }

    fn on_timer(&mut self, tag: u64, out: &mut Out) {
        let csn = tag / 4;
        match tag % 4 {
            CONVERGENCE => self.on_convergence_timer(csn, out),
            FLUSH => {
                if self.flush_timer_for == Some(csn)
                    && self.status() == Status::Tentative
                    && self.csn() == csn
                    && self.state_flushed_for != Some(csn)
                {
                    self.flush_timer_for = None;
                    self.state_flushed_for = Some(csn);
                    out.push(ProtoAction::FlushState { seq: csn });
                }
            }
            WRITE => {
                if let Some(i) = self.deferred_writes.iter().position(|(c, _)| *c == csn) {
                    let (_, log) = self.deferred_writes.swap_remove(i);
                    self.write_checkpoint(csn, log, out);
                }
            }
            _ => unreachable!("unknown OCPT timer tag {tag}"),
        }
    }

    fn logs_after_complete(&self) -> bool {
        true
    }

    fn restore_from_line(&mut self, line: u64) -> Result<(), String> {
        self.restore(line);
        Ok(())
    }

    fn replay_envelope(&self, payload: AppPayload) -> Option<Envelope> {
        // The restored sender sits just after CFE(i, line): Normal status,
        // csn = line — exactly what it would have piggybacked had the
        // message been in flight across the recovery line.
        let pb = Piggyback::new(self.csn(), Status::Normal, TentSet::empty(self.n()));
        Some(Envelope::App { pb, payload })
    }

    fn env_wire_bytes(&self, env: &Envelope) -> u64 {
        env.wire_bytes()
    }

    fn env_telemetry(&self, env: &Envelope) -> EnvTelemetry {
        match env {
            Envelope::Ctrl(cm) => {
                let code = match cm.kind {
                    CtrlKind::CkBgn => "ctrl.ck_bgn",
                    CtrlKind::CkReq => "ctrl.ck_req",
                    CtrlKind::CkEnd => "ctrl.ck_end",
                    CtrlKind::CkGrpDone => "ctrl.ck_grp_done",
                };
                EnvTelemetry::coded(code, cm.csn)
            }
            Envelope::App { pb, .. } => EnvTelemetry::in_round(pb.csn),
        }
    }

    fn stats(&self) -> &Counters {
        OcptProcess::stats(self)
    }
}

/// The convergence timer `initiate_checkpoint` arms for `csn` under the
/// default timeout.
#[cfg(test)]
pub(crate) fn conv_timer(csn: Csn) -> ProtoAction<Envelope> {
    let delay = crate::config::OcptConfig::default().convergence_timeout;
    ProtoAction::SetTimer { tag: conv_tag(csn), delay }
}

/// The checkpoint log `out` writes, with its csn, if it writes one.
#[cfg(test)]
pub(crate) fn written_log(out: &Out) -> Option<(Csn, &MessageLog)> {
    out.iter().find_map(|a| match a {
        ProtoAction::FlushExtra { seq, log: Some(log), .. } => Some((*seq, log)),
        _ => None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OcptConfig;
    use crate::wire::CtrlMsg;

    fn process(i: u32, n: usize, policy: FlushPolicy) -> OcptProcess {
        // Immediate finalize writes keep these unit tests synchronous; the
        // deferred policies get their own tests below.
        let cfg = OcptConfig {
            flush_policy: policy,
            finalize_write: WritePolicy::Immediate,
            ..OcptConfig::default()
        };
        OcptProcess::seeded(ProcessId(i), n, cfg, 42)
    }

    fn pl() -> AppPayload {
        AppPayload { id: 1, len: 32 }
    }

    const ACCEPTED: &str = "the paper's case analysis accepts this delivery";

    #[test]
    fn eager_policy_flushes_at_take() {
        let mut a = process(0, 4, FlushPolicy::Eager);
        let mut out = Vec::new();
        a.initiate(&mut out);
        assert!(out.contains(&ProtoAction::Snapshot { seq: 1 }));
        assert!(out.contains(&ProtoAction::FlushState { seq: 1 }));
    }

    #[test]
    fn lazy_policy_flushes_at_finalize() {
        let mut a0 = process(0, 2, FlushPolicy::Lazy);
        let mut a1 = process(1, 2, FlushPolicy::Lazy);
        let mut out = Vec::new();
        a0.initiate(&mut out);
        assert!(!out.iter().any(|x| matches!(x, ProtoAction::FlushState { .. })));
        let env = a0.wrap_app(ProcessId(1), MsgId(0), pl(), &mut out);
        out.clear();
        // P1 receives: with N=2 it finalizes immediately — state + log flushed.
        let d = a1.on_arrival(ProcessId(0), MsgId(0), env, &mut out).expect(ACCEPTED);
        assert_eq!(d, Some(pl()));
        a1.after_delivery(ProcessId(0), MsgId(0), pl(), &mut out).expect(ACCEPTED);
        assert!(out.contains(&ProtoAction::FlushState { seq: 1 }));
        assert!(out.iter().any(|x| matches!(x, ProtoAction::FlushExtra { seq: 1, .. })));
        assert!(out.contains(&ProtoAction::Complete { seq: 1 }));
    }

    #[test]
    fn jittered_policy_sets_flush_timer_then_flushes() {
        let mut a =
            process(2, 4, FlushPolicy::Jittered { max_delay: SimDuration::from_millis(10) });
        let mut out = Vec::new();
        a.initiate(&mut out);
        let tag = out
            .iter()
            .find_map(|x| match x {
                ProtoAction::SetTimer { tag, .. } if tag % 4 == FLUSH => Some(*tag),
                _ => None,
            })
            .expect("flush timer armed");
        out.clear();
        a.on_timer(tag, &mut out);
        assert_eq!(out, vec![ProtoAction::FlushState { seq: 1 }]);
        // Firing again is a no-op.
        out.clear();
        a.on_timer(tag, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn mark_cut_back_one_when_trigger_excluded() {
        // P1 tentative; P0 (finalized, normal, same csn) sends M → case 3b:
        // finalize excluding M → MarkCut back = 1.
        let mut a1 = process(1, 3, FlushPolicy::Lazy);
        let mut out = Vec::new();
        a1.initiate(&mut out);
        out.clear();
        let pb = Piggyback::new(1, Status::Normal, TentSet::empty(3));
        let env = Envelope::App { pb, payload: pl() };
        a1.on_arrival(ProcessId(0), MsgId(7), env, &mut out).expect(ACCEPTED);
        a1.after_delivery(ProcessId(0), MsgId(7), pl(), &mut out).expect(ACCEPTED);
        assert!(out.contains(&ProtoAction::MarkCut { seq: 1, back: 1 }));
    }

    #[test]
    fn mark_cut_back_zero_when_trigger_included() {
        // N=2 allPSet path includes the trigger.
        let mut a0 = process(0, 2, FlushPolicy::Lazy);
        let mut a1 = process(1, 2, FlushPolicy::Lazy);
        let mut out = Vec::new();
        a0.initiate(&mut out);
        let env = a0.wrap_app(ProcessId(1), MsgId(0), pl(), &mut out);
        out.clear();
        a1.on_arrival(ProcessId(0), MsgId(0), env, &mut out).expect(ACCEPTED);
        a1.after_delivery(ProcessId(0), MsgId(0), pl(), &mut out).expect(ACCEPTED);
        assert!(out.contains(&ProtoAction::MarkCut { seq: 1, back: 0 }));
    }

    #[test]
    fn phased_write_policy_defers_finalize_writes() {
        let cfg = OcptConfig {
            flush_policy: FlushPolicy::Lazy,
            finalize_write: WritePolicy::Phased { window: SimDuration::from_millis(400) },
            ..OcptConfig::default()
        };
        let mut a0 = OcptProcess::seeded(ProcessId(0), 2, cfg, 1);
        let mut a1 = OcptProcess::seeded(ProcessId(1), 2, cfg, 1);
        let mut out = Vec::new();
        a0.initiate(&mut out);
        let env = a0.wrap_app(ProcessId(1), MsgId(0), pl(), &mut out);
        out.clear();
        a1.on_arrival(ProcessId(0), MsgId(0), env, &mut out).expect(ACCEPTED);
        a1.after_delivery(ProcessId(0), MsgId(0), pl(), &mut out).expect(ACCEPTED);
        // Finalize decision is visible immediately...
        assert!(out.contains(&ProtoAction::Complete { seq: 1 }));
        // ...but the writes are deferred behind a timer (P1 offset = 200ms).
        assert!(!out.iter().any(|x| matches!(x, ProtoAction::FlushState { .. })));
        let tag = out
            .iter()
            .find_map(|x| match x {
                ProtoAction::SetTimer { tag, delay } if tag % 4 == WRITE => {
                    assert_eq!(*delay, SimDuration::from_millis(200));
                    Some(*tag)
                }
                _ => None,
            })
            .expect("deferred write timer");
        out.clear();
        a1.on_timer(tag, &mut out);
        assert!(out.contains(&ProtoAction::FlushState { seq: 1 }));
        assert!(out.iter().any(|x| matches!(x, ProtoAction::FlushExtra { seq: 1, .. })));
        // Timer re-fire is a no-op.
        out.clear();
        a1.on_timer(tag, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn phased_write_p0_writes_immediately() {
        let cfg = OcptConfig {
            flush_policy: FlushPolicy::Lazy,
            finalize_write: WritePolicy::Phased { window: SimDuration::from_millis(400) },
            ..OcptConfig::default()
        };
        // P0's phase offset is 0 → writes at the decision.
        let mut a0 = OcptProcess::seeded(ProcessId(0), 2, cfg, 1);
        let mut a1 = OcptProcess::seeded(ProcessId(1), 2, cfg, 1);
        let mut out = Vec::new();
        a1.initiate(&mut out);
        let env = a1.wrap_app(ProcessId(0), MsgId(0), pl(), &mut out);
        out.clear();
        a0.on_arrival(ProcessId(1), MsgId(0), env, &mut out).expect(ACCEPTED);
        a0.after_delivery(ProcessId(1), MsgId(0), pl(), &mut out).expect(ACCEPTED);
        assert!(out.contains(&ProtoAction::FlushState { seq: 1 }));
    }

    #[test]
    fn ctrl_messages_translate_to_sends() {
        let mut a = process(2, 4, FlushPolicy::Lazy);
        let mut out = Vec::new();
        a.initiate(&mut out);
        out.clear();
        // Convergence timer fires → CK_BGN to P0.
        a.on_timer(conv_tag(1), &mut out);
        assert!(out
            .iter()
            .any(|x| matches!(x, ProtoAction::Send { dst: ProcessId(0), env: Envelope::Ctrl(_) })));
    }

    #[test]
    fn wire_bytes_delegate() {
        let a = process(0, 4, FlushPolicy::Lazy);
        let env = Envelope::Ctrl(CtrlMsg { kind: CtrlKind::CkBgn, csn: 1 });
        assert_eq!(a.env_wire_bytes(&env), env.wire_bytes());
    }

    #[test]
    fn trait_object_compatible_metadata() {
        let a = process(0, 4, FlushPolicy::Lazy);
        assert_eq!(a.name(), "ocpt");
        assert!(!a.needs_fifo());
        assert!(a.can_send_app());
    }
}
