//! The control-message extension (paper §3.5.1, Fig. 4) — the *generalized
//! checkpointing algorithm*.
//!
//! The basic algorithm converges only if application traffic happens to
//! spread status knowledge everywhere; otherwise a tentative checkpoint can
//! sit unfinalized forever (the paper's *convergence problem*). The fix:
//!
//! 1. a timer armed at every tentative checkpoint; on expiry the process
//!    sends `CK_BGN` to `P_0` (suppressed when a smaller-id process is
//!    known to be tentative — §3.5.1 case 1);
//! 2. `P_0` circulates a `CK_REQ` token that makes every process take the
//!    tentative checkpoint, skipping processes already known tentative
//!    (§3.5.1 case 2);
//! 3. when the token returns, `P_0` broadcasts `CK_END`, upon which
//!    everyone finalizes (paper Theorem 1: the generalized algorithm
//!    converges).
//!
//! The timer is cancelled when the checkpoint finalizes or when any
//! control message carrying the current sequence number arrives.
//!
//! ## Hierarchical waves
//!
//! The flat ring is O(N) per round — both the token walk and `P_0`'s
//! `CK_END` fan-out — which caps practical system size. When
//! [`crate::config::ControlTopology`] resolves to a group size, processes
//! shard into contiguous id groups and the wave becomes two-tier:
//!
//! * members alarm their **group leader** (`CK_BGN`), leaders escalate to
//!   `P_0` (both tiers keep the §3.5.1 smaller-id suppression rule);
//! * `P_0` starts one `CK_REQ` ring **per group** (token stays inside the
//!   group); a completed ring is reported to `P_0` as `CK_GRP_DONE`;
//! * once every group reported, `P_0` sends `CK_END` to the leaders, who
//!   relay it to their members.
//!
//! No process sends more than O(group size + #groups) control messages
//! per round; with the default `⌈√N⌉` group size that is O(√N). The flat
//! ring remains both the small-N fast path and the differential oracle —
//! a flat and a grouped run converge on the same recovery line.

use ocpt_sim::ProcessId;

use crate::api::ProtoAction;
use crate::error::ProtocolError;
use crate::protocol::{OcptProcess, Out};
use crate::types::{Csn, Status};
use crate::wire::{CtrlKind, CtrlMsg, Envelope};

impl OcptProcess {
    /// The convergence timer for checkpoint `csn` fired (Fig. 4, "When the
    /// timer for finalizing the tentative checkpoint on P_i expires").
    pub(crate) fn on_convergence_timer(&mut self, csn: Csn, out: &mut Out) {
        // Stale or already-resolved timers are ignored.
        if self.status() != Status::Tentative || self.csn() != csn {
            return;
        }
        self.timer_armed = false;
        self.stats_mut().inc("timer.expired");
        if self.hier_group_size().is_some() {
            self.on_timer_hier(csn, out);
            return;
        }
        if self.id() == ProcessId::P0 {
            // P_0 initiates CK_REQ messages directly.
            self.forward_ck_req(out);
        } else {
            if self.config().optimized_control {
                // [OCPT §3.5.1] case 1 (CK_BGN suppression): if some P_j
                // with j < i is known tentative,
                // that process (or a smaller one) will notify P_0.
                if let Some(min) = self.tent_set().min() {
                    if min < self.id() {
                        self.stats_mut().inc("ctrl.bgn_suppressed");
                        return;
                    }
                }
            }
            self.stats_mut().inc("ctrl.bgn_sent");
            send_ctrl(out, ProcessId::P0, CtrlMsg { kind: CtrlKind::CkBgn, csn });
        }
    }

    /// `forwardCheckpointRequest(P_i, CM)` from Fig. 4.
    ///
    /// Chooses the next hop for the `CK_REQ` token:
    /// * a process that has already finalized forwards straight to `P_0`
    ///   (§3.5.1 case 2, "If it has finalized this checkpoint, it forwards
    ///   the message to P_0 directly");
    /// * with the skip optimization, the first `P_k` (`k > i`) *not* known
    ///   tentative; if all higher ids are known tentative, `P_0`;
    /// * without it, simply `P_{i+1}` (wrapping to `P_0`).
    ///
    /// If the chosen hop is `P_0` and we *are* `P_0`, the ring is complete:
    /// broadcast `CK_END` and finalize.
    pub(crate) fn forward_ck_req(&mut self, out: &mut Out) {
        // [OCPT §3.5.1] case 2 (CK_REQ skipping): route the ring token past
        // processes already known tentative.
        let csn = self.csn();
        let dst = if self.status() == Status::Normal {
            ProcessId::P0
        } else if self.config().optimized_control {
            self.tent_set().first_absent_above(self.id()).unwrap_or(ProcessId::P0)
        } else {
            ProcessId((self.id().0 + 1) % self.n() as u32)
        };
        self.ck_req_sent_for = Some(csn);
        if dst == ProcessId::P0 && self.id() == ProcessId::P0 {
            // Ring closed at the coordinator without leaving it.
            self.complete_ring(out);
            return;
        }
        self.stats_mut().inc("ctrl.req_sent");
        send_ctrl(out, dst, CtrlMsg { kind: CtrlKind::CkReq, csn });
    }

    /// `P_0` learned that every process has taken the tentative checkpoint:
    /// broadcast `CK_END` (once) and finalize its own checkpoint.
    fn complete_ring(&mut self, out: &mut Out) {
        debug_assert_eq!(self.id(), ProcessId::P0);
        if self.ck_end_sent_for != Some(self.csn()) {
            self.broadcast_ck_end(out);
        }
        if self.status() == Status::Tentative {
            self.finalize(out);
        }
    }

    /// Broadcast `CK_END(csn)` along the control topology (once per round).
    ///
    /// Flat: to every other process (Fig. 4). Hierarchical: `P_0` sends to
    /// the other group leaders plus its own group-0 members; a leader
    /// relays to its members only. The relay is what keeps suppression
    /// starvation-free in the two-tier wave — whenever a leader finalizes
    /// `csn` its members hear `CK_END(csn)`, so a stale alarm at an
    /// already-advanced leader can be ignored safely.
    pub(crate) fn broadcast_ck_end(&mut self, out: &mut Out) {
        let csn = self.csn();
        if self.ck_end_sent_for == Some(csn) {
            return;
        }
        self.ck_end_sent_for = Some(csn);
        let me = self.id();
        let cm = CtrlMsg { kind: CtrlKind::CkEnd, csn };
        let fanout;
        if self.hier_group_size().is_none() {
            for dst in ProcessId::all(self.n()).filter(|d| *d != me) {
                send_ctrl(out, dst, cm);
            }
            fanout = self.n() as u64 - 1;
        } else {
            let mut sent = 0u64;
            if me == ProcessId::P0 {
                for g in 1..self.num_groups() {
                    send_ctrl(out, self.leader_of(g), cm);
                    sent += 1;
                }
            }
            if self.is_group_leader() {
                let g = self.group_of(me);
                for id in (me.0 + 1)..self.group_end(g) {
                    send_ctrl(out, ProcessId(id), cm);
                    sent += 1;
                }
            }
            fanout = sent;
        }
        self.stats_mut().add("ctrl.end_sent", fanout);
    }

    /// A control message arrived (Fig. 4, "When P_i receives CM from P_j").
    pub fn on_ctrl_receive(
        &mut self,
        src: ProcessId,
        cm: CtrlMsg,
        out: &mut Vec<ProtoAction<Envelope>>,
    ) -> Result<(), ProtocolError> {
        let _ = src;
        self.stats_mut().inc("ctrl.received");

        // Timer cancellation rule: "the timer is canceled when … it
        // receives a CM with sequence number equal to that of its current
        // tentative checkpoint."
        if self.status() == Status::Tentative && cm.csn == self.csn() {
            self.cancel_convergence_timer(out);
        }

        if self.hier_group_size().is_some() {
            return self.on_ctrl_receive_hier(src, cm, out);
        }

        if cm.csn == self.csn() + 1 {
            if cm.kind == CtrlKind::CkEnd {
                // P_0 can only finalize csn+1 after we took tentative csn+1.
                return Err(ProtocolError::CkEndAhead {
                    at: self.id(),
                    ours: self.csn(),
                    theirs: cm.csn,
                });
            }
            // The sender is already at csn+1, so checkpoint csn is fully
            // taken everywhere: finalize ours (if pending), join the new
            // one, and keep the token moving. The timer for the new
            // tentative checkpoint is not armed: this very message is a CM
            // carrying its sequence number, which would cancel it on the
            // spot (Fig. 4's cancellation rule).
            if self.status() == Status::Tentative {
                self.finalize(out);
            }
            self.take_tentative(out, false);
            self.forward_ck_req(out);
            return Ok(());
        }

        if cm.csn == self.csn() {
            match cm.kind {
                CtrlKind::CkBgn => {
                    if self.status() == Status::Tentative {
                        if self.ck_req_sent_for == Some(cm.csn) {
                            return Ok(()); // dedupe (Fig. 4)
                        }
                        self.forward_ck_req(out);
                    } else {
                        // Already finalized: tell everyone (handles the
                        // suppression starvation case).
                        self.broadcast_ck_end(out);
                    }
                }
                CtrlKind::CkReq => {
                    if self.id() == ProcessId::P0 {
                        self.complete_ring(out);
                    } else if self.ck_req_sent_for != Some(cm.csn) {
                        self.forward_ck_req(out);
                    }
                }
                CtrlKind::CkEnd => {
                    if self.status() == Status::Tentative {
                        self.finalize(out);
                    }
                }
                CtrlKind::CkGrpDone => {
                    // Only the hierarchical wave emits these; a flat ring
                    // receiving one is misconfiguration, not corruption.
                    self.stats_mut().inc("ctrl.misrouted_ignored");
                }
            }
            return Ok(());
        }

        if cm.csn < self.csn() {
            // Stale control message from a past checkpoint — ignore.
            self.stats_mut().inc("ctrl.stale_ignored");
            return Ok(());
        }

        // cm.csn > csn + 1: impossible under reliable channels.
        Err(ProtocolError::CtrlCsnJump { at: self.id(), ours: self.csn(), theirs: cm.csn })
    }

    /// Timer expiry under the hierarchical topology: members alarm their
    /// group leader, leaders alarm `P_0`, `P_0` starts the global wave.
    /// The §3.5.1 suppression rule applies *within each tier*: a member
    /// stays quiet when a smaller-id member of its own group is known
    /// tentative; a leader stays quiet when a smaller-id *leader* is.
    fn on_timer_hier(&mut self, csn: Csn, out: &mut Out) {
        if self.id() == ProcessId::P0 {
            self.start_global_wave(out);
        } else if self.is_group_leader() {
            if self.config().optimized_control {
                let g = self.group_of(self.id());
                for g2 in 0..g {
                    if self.tent_set().contains(self.leader_of(g2)) {
                        // That leader (or a smaller one) will alarm P_0.
                        self.stats_mut().inc("ctrl.bgn_suppressed");
                        return;
                    }
                }
            }
            self.stats_mut().inc("ctrl.bgn_sent");
            send_ctrl(out, ProcessId::P0, CtrlMsg { kind: CtrlKind::CkBgn, csn });
        } else {
            let leader = self.leader_of(self.group_of(self.id()));
            if self.config().optimized_control
                && self.tent_set().min_in(leader.0, self.id().0).is_some()
            {
                // A smaller-id tentative member of this group (possibly
                // the leader itself) will raise the alarm.
                self.stats_mut().inc("ctrl.bgn_suppressed");
                return;
            }
            self.stats_mut().inc("ctrl.bgn_sent");
            send_ctrl(out, leader, CtrlMsg { kind: CtrlKind::CkBgn, csn });
        }
    }

    /// The hierarchical counterpart of the Fig. 4 receive handler. The
    /// csn normalization (one-ahead / current / stale / jump) is identical
    /// to the flat ring; only the kind × role dispatch differs.
    fn on_ctrl_receive_hier(
        &mut self,
        src: ProcessId,
        cm: CtrlMsg,
        out: &mut Out,
    ) -> Result<(), ProtocolError> {
        if cm.csn == self.csn() + 1 {
            if cm.kind == CtrlKind::CkEnd {
                return Err(ProtocolError::CkEndAhead {
                    at: self.id(),
                    ours: self.csn(),
                    theirs: cm.csn,
                });
            }
            // The sender is already at csn+1, so checkpoint csn is fully
            // taken everywhere: finalize ours (if pending), join the new
            // round, then handle the message at the now-current csn.
            if self.status() == Status::Tentative {
                self.finalize(out);
            }
            self.take_tentative(out, false);
        } else if cm.csn < self.csn() {
            self.stats_mut().inc("ctrl.stale_ignored");
            return Ok(());
        } else if cm.csn > self.csn() + 1 {
            return Err(ProtocolError::CtrlCsnJump {
                at: self.id(),
                ours: self.csn(),
                theirs: cm.csn,
            });
        }

        match cm.kind {
            CtrlKind::CkBgn => {
                if self.id() == ProcessId::P0 {
                    if self.status() == Status::Tentative {
                        self.start_global_wave(out);
                    } else {
                        // Already finalized: answer reactively so the
                        // alarmer (and everyone under us) can finalize.
                        self.broadcast_ck_end(out);
                    }
                } else if self.is_group_leader() {
                    if self.status() == Status::Tentative {
                        self.escalate_ck_bgn(out);
                    } else {
                        // Finalized: relay CK_END down to our members.
                        self.broadcast_ck_end(out);
                    }
                } else {
                    self.stats_mut().inc("ctrl.misrouted_ignored");
                }
            }
            CtrlKind::CkReq => {
                if self.is_group_leader() {
                    // Either our ring token came home, or we already
                    // finalized (the group is trivially covered): report
                    // the group done. Otherwise start/continue our ring.
                    if self.ck_req_sent_for == Some(self.csn()) || self.status() == Status::Normal {
                        self.report_group_done(out);
                    } else {
                        self.forward_ck_req_in_group(out);
                    }
                } else if self.status() == Status::Normal {
                    // §3.5.1 case 2 analog: a finalized member hands the
                    // token straight back to its leader.
                    let leader = self.leader_of(self.group_of(self.id()));
                    self.stats_mut().inc("ctrl.req_sent");
                    send_ctrl(out, leader, CtrlMsg { kind: CtrlKind::CkReq, csn: self.csn() });
                } else if self.ck_req_sent_for != Some(self.csn()) {
                    self.forward_ck_req_in_group(out);
                }
            }
            CtrlKind::CkEnd => {
                if self.status() == Status::Tentative {
                    // Leaders relay to their members inside finalize
                    // (finalize_excluding broadcasts for P_0 and leaders).
                    self.finalize(out);
                }
            }
            CtrlKind::CkGrpDone => {
                if self.id() == ProcessId::P0 {
                    let g = self.group_of(src);
                    self.mark_group_done(g, out);
                } else {
                    self.stats_mut().inc("ctrl.misrouted_ignored");
                }
            }
        }
        Ok(())
    }

    /// `P_0` launches the two-tier wave (once per round): `CK_REQ` to the
    /// leader of every other group, then its own group-0 ring.
    fn start_global_wave(&mut self, out: &mut Out) {
        debug_assert_eq!(self.id(), ProcessId::P0);
        let csn = self.csn();
        if self.ck_req_sent_for == Some(csn) {
            return; // wave already launched for this round
        }
        for g in 1..self.num_groups() {
            self.stats_mut().inc("ctrl.req_sent");
            send_ctrl(out, self.leader_of(g), CtrlMsg { kind: CtrlKind::CkReq, csn });
        }
        // Our own group-0 ring (sets ck_req_sent_for).
        self.forward_ck_req_in_group(out);
    }

    /// The intra-group analog of [`Self::forward_ck_req`]: the token walks
    /// the member ids of this group (skipping known tentatives under the
    /// §3.5.1 case 2 optimization) and returns to the leader. A leader
    /// whose members are all known tentative closes the ring on the spot.
    fn forward_ck_req_in_group(&mut self, out: &mut Out) {
        let csn = self.csn();
        let g = self.group_of(self.id());
        let leader = self.leader_of(g);
        let end = self.group_end(g);
        let dst = if self.config().optimized_control {
            self.tent_set().first_absent_in(self.id().0 + 1, end).unwrap_or(leader)
        } else if self.id().0 + 1 < end {
            ProcessId(self.id().0 + 1)
        } else {
            leader
        };
        self.ck_req_sent_for = Some(csn);
        if dst == self.id() {
            // We are the leader and every member is already known
            // tentative: the ring closes without leaving us.
            self.report_group_done(out);
            return;
        }
        self.stats_mut().inc("ctrl.req_sent");
        send_ctrl(out, dst, CtrlMsg { kind: CtrlKind::CkReq, csn });
    }

    /// A leader's group ring completed for the current csn: tell `P_0`
    /// (once). `P_0` reporting its own group records it directly.
    fn report_group_done(&mut self, out: &mut Out) {
        if self.id() == ProcessId::P0 {
            self.mark_group_done(0, out);
            return;
        }
        let csn = self.csn();
        if self.grp_done_sent_for == Some(csn) {
            return;
        }
        self.grp_done_sent_for = Some(csn);
        self.stats_mut().inc("ctrl.grp_done_sent");
        send_ctrl(out, ProcessId::P0, CtrlMsg { kind: CtrlKind::CkGrpDone, csn });
    }

    /// `P_0` bookkeeping: group `group`'s ring completed for the current
    /// csn. When every group has reported, the round ends — `CK_END` goes
    /// out along the hierarchy (the analog of [`Self::complete_ring`]).
    fn mark_group_done(&mut self, group: u32, out: &mut Out) {
        debug_assert_eq!(self.id(), ProcessId::P0);
        let csn = self.csn();
        let num = self.num_groups() as usize;
        if !matches!(&self.groups_done, Some((c, _, _)) if *c == csn) {
            self.groups_done = Some((csn, vec![false; num], 0));
        }
        let (_, done, count) = self.groups_done.get_or_insert_with(|| (csn, vec![false; num], 0));
        if !done[group as usize] {
            done[group as usize] = true;
            *count += 1;
        }
        let all_done = *count as usize == num;
        if all_done {
            self.broadcast_ck_end(out);
            if self.status() == Status::Tentative {
                self.finalize(out);
            }
        }
    }

    /// A leader learned (via a member's `CK_BGN`) that the round is not
    /// converging: escalate to `P_0`, once per round.
    fn escalate_ck_bgn(&mut self, out: &mut Out) {
        let csn = self.csn();
        if self.ck_bgn_sent_for == Some(csn) {
            return;
        }
        self.ck_bgn_sent_for = Some(csn);
        self.stats_mut().inc("ctrl.bgn_sent");
        send_ctrl(out, ProcessId::P0, CtrlMsg { kind: CtrlKind::CkBgn, csn });
    }
}

fn send_ctrl(out: &mut Out, dst: ProcessId, cm: CtrlMsg) {
    out.push(ProtoAction::Send { dst, env: Envelope::Ctrl(cm) });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{OcptConfig, WritePolicy};
    use crate::policy::{conv_tag, conv_timer, written_log};
    use crate::wire::AppPayload;
    use ocpt_sim::MsgId;

    fn p(i: u32) -> ProcessId {
        ProcessId(i)
    }

    fn proc_with(i: u32, n: usize, cfg: OcptConfig) -> OcptProcess {
        OcptProcess::new(p(i), n, cfg)
    }

    fn proc(i: u32, n: usize) -> OcptProcess {
        proc_with(i, n, OcptConfig::default())
    }

    fn ctrl_sends(out: &Out) -> Vec<(ProcessId, CtrlMsg)> {
        out.iter()
            .filter_map(|a| match a {
                ProtoAction::Send { dst, env: Envelope::Ctrl(cm) } => Some((*dst, *cm)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn tentative_checkpoint_arms_timer() {
        let mut q = proc(1, 4);
        let mut out = Vec::new();
        q.initiate_checkpoint(&mut out);
        assert!(out.contains(&conv_timer(1)));
    }

    #[test]
    fn timer_expiry_sends_ck_bgn_to_p0() {
        let mut q = proc(2, 4);
        let mut out = Vec::new();
        q.initiate_checkpoint(&mut out);
        out.clear();
        q.on_convergence_timer(1, &mut out);
        assert_eq!(ctrl_sends(&out), vec![(p(0), CtrlMsg { kind: CtrlKind::CkBgn, csn: 1 })]);
    }

    #[test]
    fn stale_timer_ignored() {
        let mut q = proc(2, 4);
        let mut out = Vec::new();
        q.initiate_checkpoint(&mut out);
        out.clear();
        q.on_convergence_timer(0, &mut out); // old csn
        assert!(out.is_empty());
    }

    #[test]
    fn ck_bgn_suppressed_when_smaller_id_known() {
        let mut q = proc(2, 4);
        let mut out = Vec::new();
        q.initiate_checkpoint(&mut out);
        // Learn that P1 is tentative via an app message.
        let pb = crate::piggyback::Piggyback::new(
            1,
            Status::Tentative,
            crate::types::TentSet::singleton(4, p(1)),
        );
        q.on_app_receive(p(1), MsgId(1), AppPayload { id: 1, len: 0 }, &pb, &mut out)
            .expect("scripted Fig. 4/5 replay step must be accepted");
        out.clear();
        q.on_convergence_timer(1, &mut out);
        assert!(ctrl_sends(&out).is_empty(), "CK_BGN must be suppressed");
        assert_eq!(q.stats().get("ctrl.bgn_suppressed"), 1);
    }

    #[test]
    fn naive_mode_never_suppresses() {
        let mut q = proc_with(2, 4, OcptConfig::naive_control());
        let mut out = Vec::new();
        q.initiate_checkpoint(&mut out);
        let pb = crate::piggyback::Piggyback::new(
            1,
            Status::Tentative,
            crate::types::TentSet::singleton(4, p(1)),
        );
        q.on_app_receive(p(1), MsgId(1), AppPayload { id: 1, len: 0 }, &pb, &mut out)
            .expect("scripted Fig. 4/5 replay step must be accepted");
        out.clear();
        q.on_convergence_timer(1, &mut out);
        assert_eq!(ctrl_sends(&out).len(), 1);
    }

    #[test]
    fn p0_timer_starts_req_ring() {
        let mut q = proc(0, 4);
        let mut out = Vec::new();
        q.initiate_checkpoint(&mut out);
        out.clear();
        q.on_convergence_timer(1, &mut out);
        // P0 knows only itself tentative → token goes to P1.
        assert_eq!(ctrl_sends(&out), vec![(p(1), CtrlMsg { kind: CtrlKind::CkReq, csn: 1 })]);
    }

    #[test]
    fn req_skip_optimization_skips_known_tentatives() {
        let mut q = proc(0, 5);
        let mut out = Vec::new();
        q.initiate_checkpoint(&mut out);
        // P0 learns P1 and P2 are tentative.
        let mut ts = crate::types::TentSet::singleton(5, p(1));
        ts.insert(p(2));
        let pb = crate::piggyback::Piggyback::new(1, Status::Tentative, ts);
        q.on_app_receive(p(1), MsgId(1), AppPayload { id: 1, len: 0 }, &pb, &mut out)
            .expect("scripted Fig. 4/5 replay step must be accepted");
        out.clear();
        q.on_convergence_timer(1, &mut out);
        // Token skips P1, P2 and lands on P3.
        assert_eq!(ctrl_sends(&out), vec![(p(3), CtrlMsg { kind: CtrlKind::CkReq, csn: 1 })]);
    }

    #[test]
    fn naive_req_walks_the_full_ring() {
        let mut q = proc_with(0, 5, OcptConfig::naive_control());
        let mut out = Vec::new();
        q.initiate_checkpoint(&mut out);
        let mut ts = crate::types::TentSet::singleton(5, p(1));
        ts.insert(p(2));
        let pb = crate::piggyback::Piggyback::new(1, Status::Tentative, ts);
        q.on_app_receive(p(1), MsgId(1), AppPayload { id: 1, len: 0 }, &pb, &mut out)
            .expect("scripted Fig. 4/5 replay step must be accepted");
        out.clear();
        q.on_convergence_timer(1, &mut out);
        assert_eq!(ctrl_sends(&out), vec![(p(1), CtrlMsg { kind: CtrlKind::CkReq, csn: 1 })]);
    }

    #[test]
    fn ck_req_one_ahead_takes_checkpoint_and_forwards() {
        // P2 is normal at csn 0; CK_REQ(1) arrives.
        let mut q = proc(2, 4);
        let mut out = Vec::new();
        q.on_ctrl_receive(p(1), CtrlMsg { kind: CtrlKind::CkReq, csn: 1 }, &mut out)
            .expect("scripted Fig. 4/5 replay step must be accepted");
        assert_eq!(q.csn(), 1);
        assert_eq!(q.status(), Status::Tentative);
        // Forwards to P3 (knows only itself).
        assert_eq!(ctrl_sends(&out), vec![(p(3), CtrlMsg { kind: CtrlKind::CkReq, csn: 1 })]);
        // No timer armed: this CM would cancel it immediately.
        assert!(!out.contains(&conv_timer(1)));
    }

    #[test]
    fn ck_req_one_ahead_finalizes_pending_first() {
        // P2 tentative at csn 1; CK_REQ(2) arrives → finalize 1, take 2.
        let mut q = proc(2, 4);
        let mut out = Vec::new();
        q.initiate_checkpoint(&mut out);
        out.clear();
        q.on_ctrl_receive(p(1), CtrlMsg { kind: CtrlKind::CkReq, csn: 2 }, &mut out)
            .expect("scripted Fig. 4/5 replay step must be accepted");
        assert_eq!(q.csn(), 2);
        assert!(out.iter().any(|a| matches!(a, ProtoAction::Complete { seq: 1 })));
        assert!(out.iter().any(|a| matches!(a, ProtoAction::Snapshot { seq: 2 })));
    }

    #[test]
    fn last_process_returns_token_to_p0() {
        let mut q = proc(3, 4);
        let mut out = Vec::new();
        q.on_ctrl_receive(p(2), CtrlMsg { kind: CtrlKind::CkReq, csn: 1 }, &mut out)
            .expect("scripted Fig. 4/5 replay step must be accepted");
        assert_eq!(ctrl_sends(&out), vec![(p(0), CtrlMsg { kind: CtrlKind::CkReq, csn: 1 })]);
    }

    #[test]
    fn p0_on_token_return_broadcasts_end_and_finalizes() {
        let mut q = proc(0, 4);
        let mut out = Vec::new();
        q.initiate_checkpoint(&mut out);
        out.clear();
        q.on_ctrl_receive(p(3), CtrlMsg { kind: CtrlKind::CkReq, csn: 1 }, &mut out)
            .expect("scripted Fig. 4/5 replay step must be accepted");
        let sends = ctrl_sends(&out);
        let ends: Vec<_> = sends.iter().filter(|(_, cm)| cm.kind == CtrlKind::CkEnd).collect();
        assert_eq!(ends.len(), 3); // P1, P2, P3
        assert!(out.iter().any(|a| matches!(a, ProtoAction::Complete { seq: 1 })));
        assert_eq!(q.status(), Status::Normal);
        // A second token return must not re-broadcast.
        out.clear();
        q.on_ctrl_receive(p(2), CtrlMsg { kind: CtrlKind::CkReq, csn: 1 }, &mut out)
            .expect("scripted Fig. 4/5 replay step must be accepted");
        assert!(ctrl_sends(&out).is_empty());
    }

    #[test]
    fn ck_end_finalizes_tentative() {
        let mut q = proc(2, 4);
        let mut out = Vec::new();
        q.initiate_checkpoint(&mut out);
        out.clear();
        q.on_ctrl_receive(p(0), CtrlMsg { kind: CtrlKind::CkEnd, csn: 1 }, &mut out)
            .expect("scripted Fig. 4/5 replay step must be accepted");
        assert_eq!(q.status(), Status::Normal);
        assert!(out.iter().any(|a| matches!(a, ProtoAction::Complete { seq: 1 })));
        // Duplicate CK_END is harmless.
        out.clear();
        q.on_ctrl_receive(p(0), CtrlMsg { kind: CtrlKind::CkEnd, csn: 1 }, &mut out)
            .expect("scripted Fig. 4/5 replay step must be accepted");
        assert!(out.is_empty());
    }

    #[test]
    fn ctrl_with_current_csn_cancels_timer() {
        let mut q = proc(2, 4);
        let mut out = Vec::new();
        q.initiate_checkpoint(&mut out);
        out.clear();
        q.on_ctrl_receive(p(1), CtrlMsg { kind: CtrlKind::CkReq, csn: 1 }, &mut out)
            .expect("scripted Fig. 4/5 replay step must be accepted");
        assert!(out.contains(&ProtoAction::CancelTimer { tag: conv_tag(1) }));
    }

    #[test]
    fn ck_bgn_at_finalized_p0_rebroadcasts_end() {
        // P0 finalized csn 1 (normal). A late CK_BGN(1) arrives: P0 must
        // answer with CK_END so the sender can finalize (§3.5.1 case 1 fix).
        let mut q = proc_with(0, 3, OcptConfig::naive_control());
        let mut out = Vec::new();
        q.initiate_checkpoint(&mut out);
        // Learn everyone took it → finalize.
        let mut ts = crate::types::TentSet::singleton(3, p(1));
        ts.insert(p(2));
        let pb = crate::piggyback::Piggyback::new(1, Status::Tentative, ts);
        q.on_app_receive(p(1), MsgId(1), AppPayload { id: 1, len: 0 }, &pb, &mut out)
            .expect("scripted Fig. 4/5 replay step must be accepted");
        assert_eq!(q.status(), Status::Normal);
        out.clear();
        q.on_ctrl_receive(p(2), CtrlMsg { kind: CtrlKind::CkBgn, csn: 1 }, &mut out)
            .expect("scripted Fig. 4/5 replay step must be accepted");
        let ends = ctrl_sends(&out);
        assert_eq!(ends.len(), 2);
        assert!(ends.iter().all(|(_, cm)| cm.kind == CtrlKind::CkEnd));
    }

    #[test]
    fn duplicate_ck_bgn_deduped_by_req_guard() {
        let mut q = proc(0, 4);
        let mut out = Vec::new();
        q.initiate_checkpoint(&mut out);
        out.clear();
        q.on_ctrl_receive(p(2), CtrlMsg { kind: CtrlKind::CkBgn, csn: 1 }, &mut out)
            .expect("scripted Fig. 4/5 replay step must be accepted");
        assert_eq!(ctrl_sends(&out).len(), 1);
        out.clear();
        q.on_ctrl_receive(p(3), CtrlMsg { kind: CtrlKind::CkBgn, csn: 1 }, &mut out)
            .expect("scripted Fig. 4/5 replay step must be accepted");
        assert!(ctrl_sends(&out).is_empty(), "second CK_BGN must not fork the ring");
    }

    #[test]
    fn p0_finalize_broadcasts_ck_end_by_default() {
        // Default config: optimized_control = true. P0 finalizing
        // via app traffic still broadcasts CK_END.
        let mut q = proc(0, 2);
        let mut out = Vec::new();
        q.initiate_checkpoint(&mut out);
        let pb = crate::piggyback::Piggyback::new(
            1,
            Status::Tentative,
            crate::types::TentSet::singleton(2, p(1)),
        );
        out.clear();
        q.on_app_receive(p(1), MsgId(1), AppPayload { id: 1, len: 0 }, &pb, &mut out)
            .expect("scripted Fig. 4/5 replay step must be accepted");
        assert_eq!(q.status(), Status::Normal);
        let sends = ctrl_sends(&out);
        assert_eq!(sends, vec![(p(1), CtrlMsg { kind: CtrlKind::CkEnd, csn: 1 })]);
    }

    #[test]
    fn stale_ctrl_ignored_and_jump_is_error() {
        let mut q = proc(2, 4);
        let mut out = Vec::new();
        q.initiate_checkpoint(&mut out); // csn 1
        out.clear();
        q.on_ctrl_receive(p(0), CtrlMsg { kind: CtrlKind::CkEnd, csn: 0 }, &mut out)
            .expect("scripted Fig. 4/5 replay step must be accepted");
        assert!(out.is_empty());
        let e = q
            .on_ctrl_receive(p(0), CtrlMsg { kind: CtrlKind::CkReq, csn: 5 }, &mut out)
            .unwrap_err();
        assert!(matches!(e, ProtocolError::CtrlCsnJump { .. }));
        let e = q
            .on_ctrl_receive(p(0), CtrlMsg { kind: CtrlKind::CkEnd, csn: 2 }, &mut out)
            .unwrap_err();
        assert!(matches!(e, ProtocolError::CkEndAhead { .. }));
    }

    /// Full replay of paper Figure 5: P1 initiates, traffic is too sparse,
    /// control messages converge the checkpoint.
    #[test]
    fn fig5_walkthrough() {
        let n = 4;
        let mut procs: Vec<OcptProcess> = (0..4).map(|i| proc(i as u32, n)).collect();
        let mut out = Vec::new();
        let pl = AppPayload { id: 0, len: 0 };

        // P1 takes CT_{1,1} and sends M2 to P2.
        procs[1].initiate_checkpoint(&mut out);
        out.clear();
        let pb = procs[1].on_app_send(p(2), MsgId(2), pl);
        procs[2]
            .on_app_receive(p(1), MsgId(2), pl, &pb, &mut out)
            .expect("scripted Fig. 4/5 replay step must be accepted");
        assert_eq!(procs[2].status(), Status::Tentative);
        out.clear();

        // P2 replies (M3), which is how P1 learns P2 has taken CT_{2,1} —
        // the knowledge the paper's narrative relies on when P1 later
        // skips P2 in the CK_REQ ring.
        let pb = procs[2].on_app_send(p(1), MsgId(3), pl);
        procs[1]
            .on_app_receive(p(2), MsgId(3), pl, &pb, &mut out)
            .expect("scripted Fig. 4/5 replay step must be accepted");
        assert_eq!(procs[1].tent_set().len(), 2); // {P1, P2}
        out.clear();

        // P2's timer would fire but is suppressed (knows P1 < P2).
        procs[2].on_convergence_timer(1, &mut out);
        assert!(ctrl_sends(&out).is_empty());
        out.clear();

        // P1's timer fires → CK_BGN to P0.
        procs[1].on_convergence_timer(1, &mut out);
        assert_eq!(ctrl_sends(&out), vec![(p(0), CtrlMsg { kind: CtrlKind::CkBgn, csn: 1 })]);
        out.clear();

        // P0 receives CK_BGN(1): one ahead → takes CT_{0,1}, forwards
        // CK_REQ to P1 (it knows only itself).
        procs[0]
            .on_ctrl_receive(p(1), CtrlMsg { kind: CtrlKind::CkBgn, csn: 1 }, &mut out)
            .expect("scripted Fig. 4/5 replay step must be accepted");
        assert_eq!(procs[0].status(), Status::Tentative);
        assert_eq!(ctrl_sends(&out), vec![(p(1), CtrlMsg { kind: CtrlKind::CkReq, csn: 1 })]);
        out.clear();

        // P1 receives CK_REQ(1): knows P2 is tentative → skips to P3.
        procs[1]
            .on_ctrl_receive(p(0), CtrlMsg { kind: CtrlKind::CkReq, csn: 1 }, &mut out)
            .expect("scripted Fig. 4/5 replay step must be accepted");
        assert_eq!(ctrl_sends(&out), vec![(p(3), CtrlMsg { kind: CtrlKind::CkReq, csn: 1 })]);
        out.clear();

        // P3 receives CK_REQ(1): one ahead → takes CT_{3,1}, returns token
        // to P0.
        procs[3]
            .on_ctrl_receive(p(1), CtrlMsg { kind: CtrlKind::CkReq, csn: 1 }, &mut out)
            .expect("scripted Fig. 4/5 replay step must be accepted");
        assert_eq!(procs[3].status(), Status::Tentative);
        assert_eq!(ctrl_sends(&out), vec![(p(0), CtrlMsg { kind: CtrlKind::CkReq, csn: 1 })]);
        out.clear();

        // P0 gets the token back: finalizes C_{0,1} and broadcasts CK_END.
        procs[0]
            .on_ctrl_receive(p(3), CtrlMsg { kind: CtrlKind::CkReq, csn: 1 }, &mut out)
            .expect("scripted Fig. 4/5 replay step must be accepted");
        assert_eq!(procs[0].status(), Status::Normal);
        let ends = ctrl_sends(&out);
        assert_eq!(ends.iter().filter(|(_, cm)| cm.kind == CtrlKind::CkEnd).count(), 3);
        out.clear();

        // CK_END reaches P1, P2, P3 → all finalize checkpoint 1.
        for i in [1usize, 2, 3] {
            procs[i]
                .on_ctrl_receive(p(0), CtrlMsg { kind: CtrlKind::CkEnd, csn: 1 }, &mut out)
                .expect("scripted Fig. 4/5 replay step must be accepted");
            assert_eq!(procs[i].status(), Status::Normal, "P{i} finalized");
            assert!(out.iter().any(|a| matches!(a, ProtoAction::Complete { seq: 1 })));
            out.clear();
        }
        for q in &procs {
            assert_eq!(q.csn(), 1);
            assert_eq!(q.stats().get("ckpt.finalized"), 1);
        }
    }

    // ---- hierarchical (two-tier) wave -------------------------------

    /// N = 9, groups of 3: {0,1,2} {3,4,5} {6,7,8}; leaders 0, 3, 6.
    fn hier_cfg() -> OcptConfig {
        OcptConfig {
            control_topology: crate::config::ControlTopology::Grouped { group_size: 3 },
            ..OcptConfig::default()
        }
    }

    fn hier_proc(i: u32) -> OcptProcess {
        proc_with(i, 9, hier_cfg())
    }

    #[test]
    fn hier_member_alarms_its_leader() {
        let mut q = hier_proc(4);
        let mut out = Vec::new();
        q.initiate_checkpoint(&mut out);
        out.clear();
        q.on_convergence_timer(1, &mut out);
        assert_eq!(ctrl_sends(&out), vec![(p(3), CtrlMsg { kind: CtrlKind::CkBgn, csn: 1 })]);
    }

    #[test]
    fn hier_member_suppressed_by_smaller_group_mate() {
        let mut q = hier_proc(5);
        let mut out = Vec::new();
        q.initiate_checkpoint(&mut out);
        let pb = crate::piggyback::Piggyback::new(
            1,
            Status::Tentative,
            crate::types::TentSet::singleton(9, p(4)),
        );
        q.on_app_receive(p(4), MsgId(1), AppPayload { id: 1, len: 0 }, &pb, &mut out)
            .expect("scripted hier replay step must be accepted");
        out.clear();
        q.on_convergence_timer(1, &mut out);
        assert!(ctrl_sends(&out).is_empty(), "CK_BGN must be suppressed inside the group");
        assert_eq!(q.stats().get("ctrl.bgn_suppressed"), 1);
    }

    #[test]
    fn hier_member_not_suppressed_by_other_group() {
        // P4 knows P1 (group 0) is tentative — irrelevant to its own
        // group, so it still alarms its leader.
        let mut q = hier_proc(4);
        let mut out = Vec::new();
        q.initiate_checkpoint(&mut out);
        let pb = crate::piggyback::Piggyback::new(
            1,
            Status::Tentative,
            crate::types::TentSet::singleton(9, p(1)),
        );
        q.on_app_receive(p(1), MsgId(1), AppPayload { id: 1, len: 0 }, &pb, &mut out)
            .expect("scripted hier replay step must be accepted");
        out.clear();
        q.on_convergence_timer(1, &mut out);
        assert_eq!(ctrl_sends(&out), vec![(p(3), CtrlMsg { kind: CtrlKind::CkBgn, csn: 1 })]);
    }

    #[test]
    fn hier_leader_escalates_once() {
        let mut q = hier_proc(3);
        let mut out = Vec::new();
        q.on_ctrl_receive(p(4), CtrlMsg { kind: CtrlKind::CkBgn, csn: 1 }, &mut out)
            .expect("scripted hier replay step must be accepted");
        assert_eq!(q.status(), Status::Tentative, "one-ahead CK_BGN makes the leader join");
        assert_eq!(ctrl_sends(&out), vec![(p(0), CtrlMsg { kind: CtrlKind::CkBgn, csn: 1 })]);
        out.clear();
        q.on_ctrl_receive(p(5), CtrlMsg { kind: CtrlKind::CkBgn, csn: 1 }, &mut out)
            .expect("scripted hier replay step must be accepted");
        assert!(ctrl_sends(&out).is_empty(), "second member alarm must not re-escalate");
    }

    #[test]
    fn hier_leader_suppressed_by_smaller_leader() {
        let mut q = hier_proc(6);
        let mut out = Vec::new();
        q.initiate_checkpoint(&mut out);
        let pb = crate::piggyback::Piggyback::new(
            1,
            Status::Tentative,
            crate::types::TentSet::singleton(9, p(3)),
        );
        q.on_app_receive(p(3), MsgId(1), AppPayload { id: 1, len: 0 }, &pb, &mut out)
            .expect("scripted hier replay step must be accepted");
        out.clear();
        q.on_convergence_timer(1, &mut out);
        assert!(ctrl_sends(&out).is_empty(), "leader CK_BGN suppressed by smaller leader");
    }

    #[test]
    fn hier_p0_wave_fans_out_to_leaders_and_own_ring() {
        let mut q = hier_proc(0);
        let mut out = Vec::new();
        q.initiate_checkpoint(&mut out);
        out.clear();
        q.on_convergence_timer(1, &mut out);
        let sends = ctrl_sends(&out);
        // CK_REQ to leaders P3 and P6, plus the group-0 ring token to P1.
        let mut dsts: Vec<u32> = sends.iter().map(|(d, _)| d.0).collect();
        dsts.sort_unstable();
        assert_eq!(dsts, vec![1, 3, 6]);
        assert!(sends.iter().all(|(_, cm)| cm.kind == CtrlKind::CkReq && cm.csn == 1));
        // A duplicate alarm must not launch a second wave.
        out.clear();
        q.on_ctrl_receive(p(3), CtrlMsg { kind: CtrlKind::CkBgn, csn: 1 }, &mut out)
            .expect("scripted hier replay step must be accepted");
        assert!(ctrl_sends(&out).is_empty());
    }

    #[test]
    fn hier_group_ring_returns_to_leader_then_reports() {
        // Leader P3 gets the wave token: ring P3 → P4 → P5 → P3, then
        // CK_GRP_DONE to P0.
        let mut l = hier_proc(3);
        let mut m4 = hier_proc(4);
        let mut m5 = hier_proc(5);
        let mut out = Vec::new();
        l.on_ctrl_receive(p(0), CtrlMsg { kind: CtrlKind::CkReq, csn: 1 }, &mut out)
            .expect("scripted hier replay step must be accepted");
        assert_eq!(ctrl_sends(&out), vec![(p(4), CtrlMsg { kind: CtrlKind::CkReq, csn: 1 })]);
        out.clear();
        m4.on_ctrl_receive(p(3), CtrlMsg { kind: CtrlKind::CkReq, csn: 1 }, &mut out)
            .expect("scripted hier replay step must be accepted");
        assert_eq!(ctrl_sends(&out), vec![(p(5), CtrlMsg { kind: CtrlKind::CkReq, csn: 1 })]);
        out.clear();
        m5.on_ctrl_receive(p(4), CtrlMsg { kind: CtrlKind::CkReq, csn: 1 }, &mut out)
            .expect("scripted hier replay step must be accepted");
        assert_eq!(ctrl_sends(&out), vec![(p(3), CtrlMsg { kind: CtrlKind::CkReq, csn: 1 })]);
        out.clear();
        l.on_ctrl_receive(p(5), CtrlMsg { kind: CtrlKind::CkReq, csn: 1 }, &mut out)
            .expect("scripted hier replay step must be accepted");
        assert_eq!(ctrl_sends(&out), vec![(p(0), CtrlMsg { kind: CtrlKind::CkGrpDone, csn: 1 })]);
        // The report is deduplicated.
        out.clear();
        l.on_ctrl_receive(p(5), CtrlMsg { kind: CtrlKind::CkReq, csn: 1 }, &mut out)
            .expect("scripted hier replay step must be accepted");
        assert!(ctrl_sends(&out).is_empty());
    }

    #[test]
    fn hier_p0_ends_round_after_all_groups_report() {
        let mut q = hier_proc(0);
        let mut out = Vec::new();
        q.initiate_checkpoint(&mut out);
        out.clear();
        q.on_convergence_timer(1, &mut out); // launch the wave
        out.clear();
        // Own ring returns.
        q.on_ctrl_receive(p(2), CtrlMsg { kind: CtrlKind::CkReq, csn: 1 }, &mut out)
            .expect("scripted hier replay step must be accepted");
        assert!(ctrl_sends(&out).is_empty(), "1/3 groups done — no CK_END yet");
        q.on_ctrl_receive(p(3), CtrlMsg { kind: CtrlKind::CkGrpDone, csn: 1 }, &mut out)
            .expect("scripted hier replay step must be accepted");
        assert!(ctrl_sends(&out).is_empty(), "2/3 groups done — no CK_END yet");
        q.on_ctrl_receive(p(6), CtrlMsg { kind: CtrlKind::CkGrpDone, csn: 1 }, &mut out)
            .expect("scripted hier replay step must be accepted");
        let sends = ctrl_sends(&out);
        let mut dsts: Vec<u32> =
            sends.iter().filter(|(_, cm)| cm.kind == CtrlKind::CkEnd).map(|(d, _)| d.0).collect();
        dsts.sort_unstable();
        // CK_END to its own members (1, 2) and the other leaders (3, 6).
        assert_eq!(dsts, vec![1, 2, 3, 6]);
        assert_eq!(q.status(), Status::Normal);
        // A late duplicate report must not re-broadcast.
        out.clear();
        q.on_ctrl_receive(p(3), CtrlMsg { kind: CtrlKind::CkGrpDone, csn: 1 }, &mut out)
            .expect("scripted hier replay step must be accepted");
        assert!(ctrl_sends(&out).is_empty());
    }

    #[test]
    fn hier_leader_relays_ck_end_to_members() {
        let mut q = hier_proc(6);
        let mut out = Vec::new();
        q.initiate_checkpoint(&mut out);
        out.clear();
        q.on_ctrl_receive(p(0), CtrlMsg { kind: CtrlKind::CkEnd, csn: 1 }, &mut out)
            .expect("scripted hier replay step must be accepted");
        assert_eq!(q.status(), Status::Normal);
        let mut dsts: Vec<u32> = ctrl_sends(&out).iter().map(|(d, _)| d.0).collect();
        dsts.sort_unstable();
        assert_eq!(dsts, vec![7, 8], "leader must relay CK_END to its members");
    }

    /// End-to-end two-tier wave: P4 alarms, the wave reaches all 9
    /// processes, everyone finalizes csn 1 — and nobody's control fan-out
    /// exceeds O(group size + #groups).
    #[test]
    fn hier_wave_converges_all_nine() {
        let n = 9;
        let mut procs: Vec<OcptProcess> = (0..n as u32).map(hier_proc).collect();
        let mut out = Vec::new();
        procs[4].initiate_checkpoint(&mut out);
        out.clear();
        procs[4].on_convergence_timer(1, &mut out);
        let mut queue: Vec<(ProcessId, ProcessId, CtrlMsg)> =
            ctrl_sends(&out).into_iter().map(|(d, cm)| (p(4), d, cm)).collect();
        let mut hops = 0u32;
        while let Some((src, dst, cm)) = queue.pop() {
            hops += 1;
            assert!(hops < 200, "wave must terminate");
            out.clear();
            procs[dst.0 as usize]
                .on_ctrl_receive(src, cm, &mut out)
                .expect("scripted hier replay step must be accepted");
            queue.extend(ctrl_sends(&out).into_iter().map(|(d, m)| (dst, d, m)));
        }
        for (i, q) in procs.iter().enumerate() {
            assert_eq!(q.csn(), 1, "P{i} csn");
            assert_eq!(q.status(), Status::Normal, "P{i} finalized");
            // Per-process fan-out bound: 2·(group size + #groups) — here
            // P0's worst case is 3 CK_REQ + 4 CK_END = 7. With the √N
            // grouping this is O(√N), vs the flat ring's O(N).
            let sent = q.stats().get("ctrl.req_sent")
                + q.stats().get("ctrl.bgn_sent")
                + q.stats().get("ctrl.grp_done_sent")
                + q.stats().get("ctrl.end_sent");
            assert!(sent <= 2 * (3 + 3), "P{i} sent {sent} control messages");
            if i == 0 {
                assert_eq!(sent, 7, "P0: 3 CK_REQ + 4 CK_END");
            }
        }
    }

    #[test]
    fn finalize_log_excludes_nothing_on_ctrl_path() {
        // Messages logged before CK_END must all be flushed.
        let cfg = OcptConfig { finalize_write: WritePolicy::Immediate, ..OcptConfig::default() };
        let mut q = proc_with(2, 4, cfg);
        let mut out = Vec::new();
        q.initiate_checkpoint(&mut out);
        q.on_app_send(p(3), MsgId(10), AppPayload { id: 1, len: 8 });
        out.clear();
        q.on_ctrl_receive(p(0), CtrlMsg { kind: CtrlKind::CkEnd, csn: 1 }, &mut out)
            .expect("scripted Fig. 4/5 replay step must be accepted");
        let (csn, log) = written_log(&out).expect("the finalized log is written");
        assert_eq!(csn, 1);
        assert_eq!(log.len(), 1);
        assert_eq!(log.entries()[0].msg_id, MsgId(10));
    }
}
