//! The OCPT state machine — basic algorithm (paper §3.4, Fig. 3).
//!
//! One [`OcptProcess`] per process. Handlers mirror the paper:
//!
//! * [`OcptProcess::initiate_checkpoint`] — §3.4.1, any `Normal` process
//!   may take a tentative checkpoint and thereby initiate consistent
//!   global checkpoint collection;
//! * [`OcptProcess::on_app_send`] — §3.4.2, piggyback `(csn, stat,
//!   tentSet)` and log the sent message while `Tentative`;
//! * [`OcptProcess::on_app_receive`] — §3.4.3, the full case analysis,
//!   with the provably-impossible sub-cases surfaced as
//!   [`ProtocolError`]s;
//! * finalization — §3.4.4, triggered when `tentSet = allPSet` or when a
//!   message reveals a peer already finalized.
//!
//! The control-message extension (Fig. 4) lives in [`crate::control`] as a
//! second `impl` block on the same type; the storage policies and the
//! driver-facing [`crate::CheckpointProtocol`] impl live in
//! [`crate::policy`].
//!
//! The type is sans-io: handlers mutate local state and append
//! [`ProtoAction`]s; they never block, never read clocks, never touch
//! sockets.

use ocpt_causality::VClock;
use ocpt_metrics::Counters;
use ocpt_sim::{MsgId, ProcessId, SimRng};

use crate::api::ProtoAction;
use crate::config::OcptConfig;
use crate::error::ProtocolError;
use crate::log::{Direction, LogEntry, MessageLog};
use crate::piggyback::Piggyback;
use crate::strategy::{LogDecision, LogWindow};
use crate::types::{Csn, Status, TentSet};
use crate::wire::{AppPayload, Envelope};

/// The action buffer every handler appends to.
pub(crate) type Out = Vec<ProtoAction<Envelope>>;

/// The per-process OCPT protocol state machine.
// [OCPT §3.3] csn_i, stat_i, tentSet_i, logSet_i — the paper's per-process
// data structures, held verbatim by this struct.
#[derive(Clone, Debug)]
pub struct OcptProcess {
    id: ProcessId,
    n: usize,
    cfg: OcptConfig,
    /// `csn_i` — sequence number of the current checkpoint.
    csn: Csn,
    /// `stat_i`.
    status: Status,
    /// `tentSet_i`.
    tent_set: TentSet,
    /// `logSet_i` — messages logged since the current tentative checkpoint
    /// (since the last finalization under continuous-window strategies).
    log: MessageLog,
    /// Local vector clock, maintained and piggybacked only when the
    /// configured logging strategy asks for it (causal-compressed).
    clock: Option<VClock>,
    /// Whether the convergence timer is armed (mirrors the driver's timer).
    pub(crate) timer_armed: bool,
    /// `CK_REQ(csn)` already forwarded for this csn (Fig. 4 dedupe guard).
    pub(crate) ck_req_sent_for: Option<Csn>,
    /// `CK_END(csn)` already broadcast for this csn (Fig. 4 dedupe guard).
    pub(crate) ck_end_sent_for: Option<Csn>,
    /// Hierarchical only: `CK_BGN(csn)` already escalated to `P_0` by this
    /// group leader.
    pub(crate) ck_bgn_sent_for: Option<Csn>,
    /// Hierarchical only: `CK_GRP_DONE(csn)` already reported to `P_0` by
    /// this group leader.
    pub(crate) grp_done_sent_for: Option<Csn>,
    /// Hierarchical only, `P_0` only: which groups reported their ring
    /// complete for the csn in `.0` (`.2` counts set entries).
    pub(crate) groups_done: Option<(Csn, Vec<bool>, u32)>,
    /// Resolved control sharding: `Some(group_size)` when this system runs
    /// hierarchical waves, `None` for the paper's flat ring.
    hier_group_size: Option<u32>,
    /// Piggyback of the application message between `on_arrival` and
    /// `after_delivery` (the paper processes the message first, §3.4.3).
    pub(crate) arrived: Option<Piggyback>,
    /// csn whose tentative state has been (or is being) flushed.
    pub(crate) state_flushed_for: Option<Csn>,
    /// csn with a pending jittered-flush timer.
    pub(crate) flush_timer_for: Option<Csn>,
    /// Finalized logs whose writes wait on the write policy's timer.
    pub(crate) deferred_writes: Vec<(Csn, MessageLog)>,
    /// csn at the previous scheduled tick: a tick initiates only if no
    /// round has touched this process since — the paper's "no process
    /// takes more than one checkpoint in any time interval of t seconds"
    /// (§1).
    pub(crate) csn_at_last_tick: Csn,
    /// Draws the jittered flush and write delays.
    pub(crate) rng: SimRng,
    stats: Counters,
}

impl OcptProcess {
    /// A process `id` in a system of `n`, in `Normal` status with the
    /// initial checkpoint (sequence number 0) conceptually taken. Its
    /// jitter draws come from seed 0; a driver with a run seed uses
    /// [`Self::seeded`].
    pub fn new(id: ProcessId, n: usize, cfg: OcptConfig) -> Self {
        Self::seeded(id, n, cfg, 0)
    }

    /// [`Self::new`] drawing the jittered flush and write delays from
    /// `seed`'s stream for this process.
    pub fn seeded(id: ProcessId, n: usize, cfg: OcptConfig, seed: u64) -> Self {
        assert!(n >= 2, "need at least two processes");
        assert!(id.index() < n, "pid out of range");
        cfg.validate().expect("invalid OcptConfig");
        OcptProcess {
            id,
            n,
            cfg,
            csn: 0,
            status: Status::Normal,
            tent_set: TentSet::empty(n),
            log: MessageLog::new(),
            clock: cfg.logging.strategy().uses_clock().then(|| VClock::zero(n)),
            timer_armed: false,
            ck_req_sent_for: None,
            ck_end_sent_for: None,
            ck_bgn_sent_for: None,
            grp_done_sent_for: None,
            groups_done: None,
            hier_group_size: cfg.control_topology.group_size(n),
            arrived: None,
            state_flushed_for: None,
            flush_timer_for: None,
            deferred_writes: Vec::new(),
            csn_at_last_tick: 0,
            rng: SimRng::derive(seed, 0x0C97_4F1C ^ id.0 as u64),
            stats: Counters::new(),
        }
    }

    /// Roll back to the consistent global checkpoint `S_line`: `Normal`
    /// status, sequence number `line`, empty log and fresh counters —
    /// exactly the protocol state a process has right after its
    /// finalization event `CFE_{i,line}`, which is where the restored
    /// application state sits. The jitter stream continues where it was.
    pub(crate) fn restore(&mut self, line: Csn) {
        let rng = self.rng.clone();
        *self = OcptProcess {
            csn: line,
            csn_at_last_tick: line,
            rng,
            ..OcptProcess::new(self.id, self.n, self.cfg)
        };
        self.stats.inc("recovery.restored");
    }

    // ---- accessors ----

    /// This process's id.
    pub fn id(&self) -> ProcessId {
        self.id
    }

    /// Number of processes in the system.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Current checkpoint sequence number `csn_i`.
    pub fn csn(&self) -> Csn {
        self.csn
    }

    /// Current status `stat_i`.
    pub fn status(&self) -> Status {
        self.status
    }

    /// Current tentative process set `tentSet_i`.
    pub fn tent_set(&self) -> &TentSet {
        &self.tent_set
    }

    /// The live (unfinalized) message log.
    pub fn log(&self) -> &MessageLog {
        &self.log
    }

    /// The local vector clock (`Some` only under causal-compressed
    /// logging).
    pub fn clock(&self) -> Option<&VClock> {
        self.clock.as_ref()
    }

    /// Protocol event counters.
    pub fn stats(&self) -> &Counters {
        &self.stats
    }

    pub(crate) fn stats_mut(&mut self) -> &mut Counters {
        &mut self.stats
    }

    /// The configuration in force.
    pub fn config(&self) -> &OcptConfig {
        &self.cfg
    }

    // ---- hierarchical group geometry (control sharding) ----

    /// `Some(group_size)` when this system runs hierarchical control
    /// waves; `None` for the paper's flat ring.
    pub fn hier_group_size(&self) -> Option<u32> {
        self.hier_group_size
    }

    /// Number of groups under the resolved sharding (1 when flat).
    pub fn num_groups(&self) -> u32 {
        match self.hier_group_size {
            Some(s) => (self.n as u32).div_ceil(s),
            None => 1,
        }
    }

    /// The group a process belongs to (groups are contiguous id ranges).
    pub(crate) fn group_of(&self, pid: ProcessId) -> u32 {
        pid.0 / self.hier_group_size.expect("group_of requires hierarchical mode")
    }

    /// The leader (smallest id) of a group.
    pub(crate) fn leader_of(&self, group: u32) -> ProcessId {
        ProcessId(group * self.hier_group_size.expect("leader_of requires hierarchical mode"))
    }

    /// One-past-the-end id of a group.
    pub(crate) fn group_end(&self, group: u32) -> u32 {
        let s = self.hier_group_size.expect("group_end requires hierarchical mode");
        ((group + 1) * s).min(self.n as u32)
    }

    /// Whether this process leads its group (`P_0` leads group 0 *and*
    /// coordinates the leaders).
    pub(crate) fn is_group_leader(&self) -> bool {
        match self.hier_group_size {
            Some(s) => self.id.0 % s == 0,
            None => false,
        }
    }

    // ---- [OCPT §3.4.1] initiation ----

    /// Attempt a scheduled basic checkpoint. Returns `true` if a tentative
    /// checkpoint was taken; a `Tentative` process skips (it "is allowed to
    /// take another tentative checkpoint only after finalizing the already
    /// taken tentative checkpoint").
    pub fn initiate_checkpoint(&mut self, out: &mut Vec<ProtoAction<Envelope>>) -> bool {
        if self.status == Status::Tentative {
            self.stats.inc("ckpt.initiation_skipped");
            return false;
        }
        self.take_tentative(out, true);
        true
    }

    /// `takeTentativeCheckpoint(i)` from Fig. 3. `arm_timer` is false when
    /// the caller immediately knows the ring is already running (Fig. 4's
    /// cancellation rule would cancel it in the same breath).
    pub(crate) fn take_tentative(&mut self, out: &mut Out, arm_timer: bool) {
        debug_assert_eq!(self.status, Status::Normal, "cannot take tentative while tentative");
        self.csn += 1;
        self.status = Status::Tentative;
        self.tent_set = TentSet::singleton(self.n, self.id);
        match self.cfg.logging.strategy().window() {
            // The paper: logSet_i := ∅ at every tentative checkpoint.
            LogWindow::TentativeOnly => self.log = MessageLog::new(),
            // Continuous strategies keep the Normal-era entries (their
            // effects are inside CT) and mark where the replay window —
            // the part replayed on top of CT — begins.
            LogWindow::Continuous => self.log.mark_replay_start(),
        }
        self.stats.inc("ckpt.tentative");
        out.push(ProtoAction::Snapshot { seq: self.csn });
        self.schedule_state_flush(out);
        if arm_timer && self.cfg.control_messages {
            self.arm_convergence_timer(out);
        }
    }

    // ---- [OCPT §3.4.2] sending: piggyback (csn, stat, tentSet); log the
    // sent message as the configured strategy directs (the paper: full
    // payload while Tentative) ----

    /// Called for every outgoing application message. Returns the
    /// piggyback to attach; logs the sent message as the configured
    /// [`crate::strategy::LoggingStrategy`] directs.
    pub fn on_app_send(&mut self, dst: ProcessId, msg_id: MsgId, payload: AppPayload) -> Piggyback {
        self.log_event(Direction::Sent, dst, msg_id, payload);
        self.stats.inc("app.sent");
        let clock = self.clock.as_mut().map(|c| {
            c.tick(self.id);
            c.clone()
        });
        Piggyback { csn: self.csn, stat: self.status, tent_set: self.tent_set.clone(), clock }
    }

    // ---- [OCPT §3.4.3] receiving: process the message first, then the
    // case analysis (1)–(4) ----

    /// Called for every incoming application message, *after* the driver
    /// has processed it application-wise ("it processes the message first
    /// and then takes the following actions").
    pub fn on_app_receive(
        &mut self,
        src: ProcessId,
        msg_id: MsgId,
        payload: AppPayload,
        pb: &Piggyback,
        out: &mut Vec<ProtoAction<Envelope>>,
    ) -> Result<(), ProtocolError> {
        self.stats.inc("app.received");
        // Causal-compressed only: snapshot the clock *before* this receive
        // touches it. If M triggers a finalization that excludes M (cases
        // 3b/2c), the cut steps one event back — the sealed cut clock must
        // not contain M's receive, mirroring the observer oracle's
        // excluded-trigger convention.
        let pre_clock = self.clock.clone();
        if let Some(c) = &mut self.clock {
            if let Some(sent) = &pb.clock {
                c.merge(sent);
            }
            c.tick(self.id);
        }
        // Fig. 3 logs every message received while tentative (and the
        // continuous strategies log in Normal status too); the trigger is
        // subtracted below where the paper requires `logSet_i - {M}`.
        self.log_event(Direction::Received, src, msg_id, payload);
        match (self.status, pb.stat) {
            // Case (1): both normal — nobody knows of a new initiation.
            (Status::Normal, Status::Normal) => {
                if pb.csn > self.csn {
                    // The sender finalized a csn we never took: impossible
                    // (analogue of sub-case (3c) for a normal receiver).
                    return Err(ProtocolError::FinalizedAhead {
                        at: self.id,
                        ours: self.csn,
                        theirs: pb.csn,
                    });
                }
                Ok(())
            }

            // Case (4): sender tentative, we are normal.
            (Status::Normal, Status::Tentative) => {
                if pb.csn <= self.csn {
                    // (4a): we already finalized that one.
                    Ok(())
                } else if pb.csn == self.csn + 1 {
                    // (4b): first news of a new initiation — take a
                    // tentative checkpoint and adopt the sender's knowledge.
                    self.take_tentative(out, true);
                    self.tent_set.merge(&pb.tent_set);
                    // If that already completes allPSet (small systems),
                    // finalize immediately — §3.4.4's condition holds.
                    self.maybe_finalize_full(out);
                    Ok(())
                } else {
                    // (4c) = (2d): impossible.
                    Err(ProtocolError::AppCsnJump {
                        at: self.id,
                        ours: self.csn,
                        theirs: pb.csn,
                        subcase: "4c",
                    })
                }
            }

            // Case (3): sender normal (has finalized), we are tentative.
            (Status::Tentative, Status::Normal) => {
                if pb.csn < self.csn {
                    // (3a): stale — stays in the log, no other action.
                    Ok(())
                } else if pb.csn == self.csn {
                    // (3b): the sender finalized C_{j,csn}, so every
                    // process has taken a tentative checkpoint with our
                    // csn. Finalize, excluding M (`logSet_i - {M}`); the
                    // sealed cut clock predates M for the same reason.
                    let trigger = self.log.take(msg_id);
                    self.finalize_at_cut(true, pre_clock, out);
                    self.relog_trigger(trigger);
                    Ok(())
                } else {
                    // (3c): impossible.
                    self.log.exclude(msg_id);
                    Err(ProtocolError::FinalizedAhead {
                        at: self.id,
                        ours: self.csn,
                        theirs: pb.csn,
                    })
                }
            }

            // Case (2): both tentative.
            (Status::Tentative, Status::Tentative) => {
                if pb.csn < self.csn {
                    // (2a): we already finalized checkpoint pb.csn.
                    Ok(())
                } else if pb.csn == self.csn {
                    // (2b): same global checkpoint — pool knowledge.
                    self.tent_set.merge(&pb.tent_set);
                    self.maybe_finalize_full(out);
                    Ok(())
                } else if pb.csn == self.csn + 1 {
                    // (2c): sender finalized csn_i and already started the
                    // next one. Finalize ours (excluding M; cut clock
                    // predates M), then join the new initiation — M's
                    // receive precedes the new CT, so a carried-over
                    // trigger lands before the new replay window.
                    let trigger = self.log.take(msg_id);
                    self.finalize_at_cut(true, pre_clock, out);
                    self.relog_trigger(trigger);
                    self.take_tentative(out, true);
                    self.tent_set.merge(&pb.tent_set);
                    self.maybe_finalize_full(out);
                    Ok(())
                } else {
                    // (2d): impossible.
                    self.log.exclude(msg_id);
                    Err(ProtocolError::AppCsnJump {
                        at: self.id,
                        ours: self.csn,
                        theirs: pb.csn,
                        subcase: "2d",
                    })
                }
            }
        }
    }

    /// Consult the configured strategy for one message event and log what
    /// it asks for. The paper's policy: full payload, both directions,
    /// only while `Tentative`.
    fn log_event(&mut self, dir: Direction, peer: ProcessId, msg_id: MsgId, payload: AppPayload) {
        let counter = match (self.cfg.logging.strategy().decide(dir, self.status), dir) {
            (LogDecision::Skip, Direction::Sent) => return,
            (LogDecision::Skip, Direction::Received) => return,
            (LogDecision::Payload, Direction::Sent) => {
                self.log.push(LogEntry::payload(dir, peer, msg_id, payload));
                "log.sent"
            }
            (LogDecision::Payload, Direction::Received) => {
                self.log.push(LogEntry::payload(dir, peer, msg_id, payload));
                "log.received"
            }
            (LogDecision::Determinant, Direction::Sent) => {
                self.log.push(LogEntry::determinant(dir, peer, msg_id, payload));
                "log.sent_det"
            }
            (LogDecision::Determinant, Direction::Received) => {
                self.log.push(LogEntry::determinant(dir, peer, msg_id, payload));
                "log.received_det"
            }
        };
        self.stats.inc(counter);
    }

    /// Re-log a finalization trigger that `take` removed: under a
    /// continuous-window strategy the excluded message still belongs in
    /// the *next* epoch's log (its receive is on the far side of the cut).
    fn relog_trigger(&mut self, trigger: Option<LogEntry>) {
        if self.cfg.logging.strategy().window() == LogWindow::Continuous {
            if let Some(e) = trigger {
                self.log.push(e);
            }
        }
    }

    /// §3.4.4: finalize if `tentSet_i = allPSet`.
    // [OCPT §3.4.4] finalization predicate: tentSet_i = allPSet, or word
    // from an already-finalized / already-advanced sender.
    pub(crate) fn maybe_finalize_full(&mut self, out: &mut Out) {
        if self.status == Status::Tentative && self.tent_set.is_full() {
            self.finalize(out);
        }
    }

    /// Finalize with no excluded trigger (control path / allPSet path).
    pub(crate) fn finalize(&mut self, out: &mut Out) {
        let cut = self.clock.clone();
        self.finalize_at_cut(false, cut, out);
    }

    /// Finalize the current tentative checkpoint: freeze the log, return
    /// to `Normal`, cancel the timer, mark the cut and hand the checkpoint
    /// to the write policy, and (when configured) have `P_0` broadcast
    /// `CK_END` so suppressed processes cannot starve.
    ///
    /// `trigger_excluded` is set when the receipt of `M` triggered the
    /// finalization and `M` was removed from the log (`logSet_i - {M}`,
    /// sub-cases (3b)/(2c)): the cut then sits one event back, before
    /// `receive(M)` — the paper's `CFE_{i,k} -hb-> receive(M)` ordering in
    /// Theorem 2 Case 2 — and `cut` is the pre-receive clock. The sealed
    /// clock gets one extra own-component tick — the checkpoint is itself
    /// a local event, the same convention the observer oracle uses, so two
    /// checkpoints compare as ordered *iff* a message crosses the cut
    /// (Theorem 2). `cut` is `None` unless causal-compressed logging is
    /// configured.
    fn finalize_at_cut(&mut self, trigger_excluded: bool, cut: Option<VClock>, out: &mut Out) {
        debug_assert_eq!(self.status, Status::Tentative, "finalize requires tentative status");
        self.status = Status::Normal;
        self.stats.inc("ckpt.finalized");
        if let Some(mut c) = cut {
            c.tick(self.id);
            self.log.set_clock(c);
        }
        self.stats.add("log.flushed_msgs", self.log.len() as u64);
        self.stats.add("log.flushed_bytes", self.log.flush_bytes());
        self.cancel_convergence_timer(out);
        let log = std::mem::take(&mut self.log);
        self.commit(log, trigger_excluded, out);
        // Flat: P_0 broadcasts CK_END to everyone. Hierarchical: P_0
        // notifies the leaders (plus its own group), and every finalizing
        // leader relays to its members — the "leaders exchange CK_END
        // summaries" link that keeps suppressed members from starving.
        if self.cfg.control_messages
            && self.cfg.optimized_control
            && (self.id == ProcessId::P0
                || (self.hier_group_size.is_some() && self.is_group_leader()))
        {
            self.broadcast_ck_end(out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WritePolicy;
    use crate::policy::written_log;

    fn payload(id: u64) -> AppPayload {
        AppPayload { id, len: 100 }
    }

    fn proc(i: u32, n: usize) -> OcptProcess {
        // Plain-basic config (no control messages) keeps these unit tests
        // focused on Fig. 3; Fig. 4 is tested in `control`. Immediate
        // writes put the finalized log in the same action batch.
        let cfg = OcptConfig { finalize_write: WritePolicy::Immediate, ..OcptConfig::basic_only() };
        OcptProcess::new(ProcessId(i), n, cfg)
    }

    fn pb_of(p: &OcptProcess) -> Piggyback {
        Piggyback::new(p.csn(), p.status(), p.tent_set().clone())
    }

    #[test]
    fn initial_state_matches_paper() {
        let p = proc(1, 4);
        assert_eq!(p.csn(), 0);
        assert_eq!(p.status(), Status::Normal);
        assert!(p.tent_set().is_empty());
        assert!(p.log().is_empty());
    }

    #[test]
    fn initiation_takes_tentative_once() {
        let mut p = proc(0, 4);
        let mut out = Vec::new();
        assert!(p.initiate_checkpoint(&mut out));
        assert_eq!(p.csn(), 1);
        assert_eq!(p.status(), Status::Tentative);
        assert!(p.tent_set().contains(ProcessId(0)));
        assert_eq!(p.tent_set().len(), 1);
        assert_eq!(out, vec![ProtoAction::Snapshot { seq: 1 }]);
        // While tentative, a second initiation is refused (§3.4).
        out.clear();
        assert!(!p.initiate_checkpoint(&mut out));
        assert!(out.is_empty());
        assert_eq!(p.stats().get("ckpt.initiation_skipped"), 1);
    }

    #[test]
    fn send_logs_only_while_tentative() {
        let mut p = proc(0, 3);
        let pb = p.on_app_send(ProcessId(1), MsgId(1), payload(1));
        assert_eq!(pb.stat, Status::Normal);
        assert!(p.log().is_empty());
        let mut out = Vec::new();
        p.initiate_checkpoint(&mut out);
        let pb = p.on_app_send(ProcessId(1), MsgId(2), payload(2));
        assert_eq!(pb.stat, Status::Tentative);
        assert_eq!(pb.csn, 1);
        assert!(pb.tent_set.contains(ProcessId(0)));
        assert_eq!(p.log().len(), 1);
        assert_eq!(p.log().entries()[0].dir, Direction::Sent);
    }

    #[test]
    fn send_path_never_deep_clones_tent_set() {
        // The per-send piggyback is a refcount bump of tentSet storage —
        // the grid engine's hot-path guarantee.
        let mut p = proc(0, 256);
        let mut out = Vec::new();
        p.initiate_checkpoint(&mut out);
        let before = TentSet::deep_copies();
        let mut last = None;
        for id in 1..=1000u64 {
            last = Some(p.on_app_send(ProcessId(1), MsgId(id), payload(id)));
        }
        assert_eq!(TentSet::deep_copies(), before, "send path deep-cloned tentSet");
        let pb = last.expect("a piggybacked send was captured above");
        assert!(
            TentSet::shares_storage(&pb.tent_set, p.tent_set()),
            "piggyback must share the process's tentSet storage"
        );
    }

    #[test]
    fn case1_normal_normal_is_noop() {
        let mut receiver = proc(1, 3);
        let sender = proc(0, 3);
        let mut out = Vec::new();
        let pb = pb_of(&sender);
        receiver
            .on_app_receive(ProcessId(0), MsgId(1), payload(1), &pb, &mut out)
            .expect("paper §3.4.3 case analysis must accept this delivery");
        assert!(out.is_empty());
        assert_eq!(receiver.status(), Status::Normal);
        assert!(receiver.log().is_empty());
    }

    #[test]
    fn case4b_first_news_takes_tentative_and_merges() {
        let mut sender = proc(0, 3);
        let mut receiver = proc(1, 3);
        let mut out = Vec::new();
        sender.initiate_checkpoint(&mut out);
        let pb = sender.on_app_send(ProcessId(1), MsgId(1), payload(1));
        out.clear();
        receiver
            .on_app_receive(ProcessId(0), MsgId(1), payload(1), &pb, &mut out)
            .expect("paper §3.4.3 case analysis must accept this delivery");
        assert_eq!(receiver.csn(), 1);
        assert_eq!(receiver.status(), Status::Tentative);
        // tentSet = {P0} ∪ {P1}.
        assert!(receiver.tent_set().contains(ProcessId(0)));
        assert!(receiver.tent_set().contains(ProcessId(1)));
        assert_eq!(receiver.tent_set().len(), 2);
        assert_eq!(out, vec![ProtoAction::Snapshot { seq: 1 }]);
        // M itself is NOT in the new log: it was received before CT_{1,1}.
        assert!(receiver.log().is_empty());
    }

    #[test]
    fn case4b_two_process_system_finalizes_immediately() {
        // With N = 2, receiving the initiator's message completes allPSet.
        let mut sender = proc(0, 2);
        let mut receiver = proc(1, 2);
        let mut out = Vec::new();
        sender.initiate_checkpoint(&mut out);
        let pb = sender.on_app_send(ProcessId(1), MsgId(1), payload(1));
        out.clear();
        receiver
            .on_app_receive(ProcessId(0), MsgId(1), payload(1), &pb, &mut out)
            .expect("paper §3.4.3 case analysis must accept this delivery");
        assert_eq!(receiver.status(), Status::Normal);
        assert_eq!(
            out[..4],
            [
                ProtoAction::Snapshot { seq: 1 },
                ProtoAction::MarkCut { seq: 1, back: 0 },
                ProtoAction::Complete { seq: 1 },
                ProtoAction::FlushState { seq: 1 },
            ]
        );
        assert_eq!(written_log(&out), Some((1, &MessageLog::new())));
    }

    #[test]
    fn case4a_stale_tentative_sender_ignored() {
        // Receiver already at csn 2 (normal); sender still tentative at 1.
        let mut receiver = proc(1, 3);
        receiver.csn = 2;
        let pb = Piggyback::new(1, Status::Tentative, TentSet::singleton(3, ProcessId(0)));
        let mut out = Vec::new();
        receiver
            .on_app_receive(ProcessId(0), MsgId(9), payload(9), &pb, &mut out)
            .expect("paper §3.4.3 case analysis must accept this delivery");
        assert!(out.is_empty());
        assert_eq!(receiver.status(), Status::Normal);
    }

    #[test]
    fn case2b_merges_and_finalizes_when_full() {
        let n = 3;
        let mut p = proc(2, n);
        let mut out = Vec::new();
        p.initiate_checkpoint(&mut out);
        out.clear();
        // Peer P1 knows {P0, P1}.
        let mut ts = TentSet::singleton(n, ProcessId(1));
        ts.insert(ProcessId(0));
        let pb = Piggyback::new(1, Status::Tentative, ts);
        p.on_app_receive(ProcessId(1), MsgId(5), payload(5), &pb, &mut out)
            .expect("paper §3.4.3 case analysis must accept this delivery");
        // tentSet now full → finalize, and M (id 5) is INCLUDED in the log.
        assert_eq!(p.status(), Status::Normal);
        let (csn, log) = written_log(&out).expect("finalize writes the log");
        assert_eq!(csn, 1);
        assert_eq!(log.len(), 1);
        assert_eq!(log.entries()[0].msg_id, MsgId(5));
    }

    #[test]
    fn case2b_partial_knowledge_keeps_logging() {
        let n = 4;
        let mut p = proc(3, n);
        let mut out = Vec::new();
        p.initiate_checkpoint(&mut out);
        out.clear();
        let pb = Piggyback::new(1, Status::Tentative, TentSet::singleton(n, ProcessId(1)));
        p.on_app_receive(ProcessId(1), MsgId(5), payload(5), &pb, &mut out)
            .expect("paper §3.4.3 case analysis must accept this delivery");
        assert_eq!(p.status(), Status::Tentative);
        assert!(out.is_empty());
        assert_eq!(p.log().len(), 1);
        assert_eq!(p.tent_set().len(), 2); // {P1, P3}
    }

    #[test]
    fn case3b_finalize_excludes_trigger() {
        let n = 3;
        let mut p = proc(1, n);
        let mut out = Vec::new();
        p.initiate_checkpoint(&mut out);
        // Log some traffic first.
        p.on_app_send(ProcessId(2), MsgId(7), payload(7));
        out.clear();
        // P0 has finalized csn 1 (status normal, csn 1).
        let pb = Piggyback::new(1, Status::Normal, TentSet::empty(n));
        p.on_app_receive(ProcessId(0), MsgId(8), payload(8), &pb, &mut out)
            .expect("paper §3.4.3 case analysis must accept this delivery");
        assert_eq!(p.status(), Status::Normal);
        let (_, log) = written_log(&out).expect("finalize");
        // M8 excluded, M7 (sent) retained — exactly the paper's Fig. 2
        // treatment of M8/M9.
        assert_eq!(log.len(), 1);
        assert_eq!(log.entries()[0].msg_id, MsgId(7));
    }

    #[test]
    fn case3a_stale_normal_sender_logged_no_action() {
        let n = 3;
        let mut p = proc(1, n);
        let mut out = Vec::new();
        p.initiate_checkpoint(&mut out); // csn 1
        p.csn = 2; // simulate being at a later checkpoint
        out.clear();
        let pb = Piggyback::new(1, Status::Normal, TentSet::empty(n));
        p.on_app_receive(ProcessId(0), MsgId(9), payload(9), &pb, &mut out)
            .expect("paper §3.4.3 case analysis must accept this delivery");
        assert!(out.is_empty());
        assert_eq!(p.status(), Status::Tentative);
        assert_eq!(p.log().len(), 1); // M stays in the log
    }

    #[test]
    fn case2c_finalize_then_join_new_initiation() {
        let n = 3;
        let mut p = proc(1, n);
        let mut out = Vec::new();
        p.initiate_checkpoint(&mut out); // csn 1, tentative
        p.on_app_send(ProcessId(0), MsgId(3), payload(3));
        out.clear();
        // Sender P2 is tentative at csn 2 — it finalized 1 already.
        let pb = Piggyback::new(2, Status::Tentative, TentSet::singleton(n, ProcessId(2)));
        p.on_app_receive(ProcessId(2), MsgId(4), payload(4), &pb, &mut out)
            .expect("paper §3.4.3 case analysis must accept this delivery");
        // Finalized csn 1 excluding M4, then took tentative csn 2.
        assert_eq!(p.csn(), 2);
        assert_eq!(p.status(), Status::Tentative);
        assert_eq!(out[0], ProtoAction::MarkCut { seq: 1, back: 1 });
        assert_eq!(out[1], ProtoAction::Complete { seq: 1 });
        assert_eq!(out[4], ProtoAction::Snapshot { seq: 2 });
        let (csn, log) = written_log(&out).expect("C_1 is written");
        assert_eq!(csn, 1);
        assert_eq!(log.len(), 1);
        assert_eq!(log.entries()[0].msg_id, MsgId(3));
        // New tentSet = {P1} ∪ {P2}.
        assert_eq!(p.tent_set().len(), 2);
        // New log does not contain M4.
        assert!(p.log().is_empty());
    }

    #[test]
    fn case2a_stale_both_tentative_logged_only() {
        let n = 3;
        let mut p = proc(1, n);
        let mut out = Vec::new();
        p.initiate_checkpoint(&mut out);
        p.csn = 3; // ahead of the sender
        out.clear();
        let pb = Piggyback::new(2, Status::Tentative, TentSet::singleton(n, ProcessId(0)));
        p.on_app_receive(ProcessId(0), MsgId(1), payload(1), &pb, &mut out)
            .expect("paper §3.4.3 case analysis must accept this delivery");
        assert!(out.is_empty());
        assert_eq!(p.log().len(), 1);
        assert_eq!(p.tent_set().len(), 1); // NOT merged for stale csn
    }

    #[test]
    fn impossible_cases_are_errors() {
        let n = 3;
        // (2d): both tentative, jump of 2.
        let mut p = proc(1, n);
        let mut out = Vec::new();
        p.initiate_checkpoint(&mut out);
        let pb = Piggyback::new(3, Status::Tentative, TentSet::singleton(n, ProcessId(0)));
        let e = p.on_app_receive(ProcessId(0), MsgId(1), payload(1), &pb, &mut out).unwrap_err();
        assert!(matches!(e, ProtocolError::AppCsnJump { subcase: "2d", .. }));

        // (3c): sender normal ahead of tentative us.
        let mut p = proc(1, n);
        let mut out = Vec::new();
        p.initiate_checkpoint(&mut out);
        let pb = Piggyback::new(2, Status::Normal, TentSet::empty(n));
        let e = p.on_app_receive(ProcessId(0), MsgId(1), payload(1), &pb, &mut out).unwrap_err();
        assert!(matches!(e, ProtocolError::FinalizedAhead { .. }));

        // (4c): we normal, sender tentative two ahead.
        let mut p = proc(1, n);
        let mut out = Vec::new();
        let pb = Piggyback::new(2, Status::Tentative, TentSet::singleton(n, ProcessId(0)));
        let e = p.on_app_receive(ProcessId(0), MsgId(1), payload(1), &pb, &mut out).unwrap_err();
        assert!(matches!(e, ProtocolError::AppCsnJump { subcase: "4c", .. }));

        // Case (1) analogue: both normal, sender ahead.
        let mut p = proc(1, n);
        let mut out = Vec::new();
        let pb = Piggyback::new(1, Status::Normal, TentSet::empty(n));
        let e = p.on_app_receive(ProcessId(0), MsgId(1), payload(1), &pb, &mut out).unwrap_err();
        assert!(matches!(e, ProtocolError::FinalizedAhead { .. }));
    }

    #[test]
    fn stats_track_log_flush() {
        let mut p = proc(0, 2);
        let mut out = Vec::new();
        p.initiate_checkpoint(&mut out);
        p.on_app_send(ProcessId(1), MsgId(1), payload(1));
        // P1 tentative at same csn with full knowledge.
        let mut ts = TentSet::singleton(2, ProcessId(1));
        ts.insert(ProcessId(0));
        let pb = Piggyback::new(1, Status::Tentative, ts);
        p.on_app_receive(ProcessId(1), MsgId(2), payload(2), &pb, &mut out)
            .expect("paper §3.4.3 case analysis must accept this delivery");
        assert_eq!(p.stats().get("ckpt.finalized"), 1);
        assert_eq!(p.stats().get("log.flushed_msgs"), 2); // sent M1 + recv M2
        assert!(p.stats().get("log.flushed_bytes") > 0);
    }

    /// Full four-process replay of paper Figure 2, message for message.
    ///
    /// P0 initiates; M2 spreads it to P1; M4 to P2; M3 to P3; M5 closes
    /// P2's knowledge (finalize, log {M5, M6}); M7 finalizes P1; M8
    /// finalizes P3 (M8 excluded); M9 finalizes P0 (M9 excluded).
    #[test]
    fn fig2_walkthrough() {
        let n = 4;
        let mut p: Vec<OcptProcess> = (0..4).map(|i| proc(i, n)).collect();
        let mut out = Vec::new();
        let pl = payload(0);

        // M1: P3 -> P2 before any checkpoint: plain case (1).
        let pb = p[3].on_app_send(ProcessId(2), MsgId(1), pl);
        p[2].on_app_receive(ProcessId(3), MsgId(1), pl, &pb, &mut out)
            .expect("paper §3.4.3 case analysis must accept this delivery");
        assert!(out.is_empty());

        // P0 initiates: CT_{0,1}.
        p[0].initiate_checkpoint(&mut out);
        out.clear();

        // M2: P0 -> P1. P1 takes CT_{1,1}.
        let pb = p[0].on_app_send(ProcessId(1), MsgId(2), pl);
        p[1].on_app_receive(ProcessId(0), MsgId(2), pl, &pb, &mut out)
            .expect("paper §3.4.3 case analysis must accept this delivery");
        assert_eq!(p[1].status(), Status::Tentative);
        assert_eq!(p[1].tent_set().len(), 2); // {P0,P1}
        out.clear();

        // M4: P1 -> P2. P2 takes CT_{2,1} and learns {P0,P1,P2}.
        let pb = p[1].on_app_send(ProcessId(2), MsgId(4), pl);
        p[2].on_app_receive(ProcessId(1), MsgId(4), pl, &pb, &mut out)
            .expect("paper §3.4.3 case analysis must accept this delivery");
        assert_eq!(p[2].status(), Status::Tentative);
        assert_eq!(p[2].tent_set().len(), 3);
        out.clear();

        // M3: P1 -> P3. P3 takes CT_{3,1} and learns {P0,P1,P3}.
        let pb = p[1].on_app_send(ProcessId(3), MsgId(3), pl);
        p[3].on_app_receive(ProcessId(1), MsgId(3), pl, &pb, &mut out)
            .expect("paper §3.4.3 case analysis must accept this delivery");
        assert_eq!(p[3].status(), Status::Tentative);
        assert_eq!(p[3].tent_set().len(), 3);
        out.clear();

        // M6: P2 -> P3, sent now but delivered late (channels have
        // arbitrary delays and need not be FIFO, §2.1). P2 logs it as sent.
        let pb6 = p[2].on_app_send(ProcessId(3), MsgId(6), pl);
        assert_eq!(p[2].log().len(), 1);

        // M5: P3 -> P2. P2 learns P3 took it → full set → finalizes with
        // log {M5, M6-sent, M4? no: M4 was received before CT_{2,1}}.
        let pb5 = p[3].on_app_send(ProcessId(2), MsgId(5), pl);
        p[2].on_app_receive(ProcessId(3), MsgId(5), pl, &pb5, &mut out)
            .expect("paper §3.4.3 case analysis must accept this delivery");
        assert_eq!(p[2].status(), Status::Normal);
        let (csn, log) = written_log(&out).map(|(c, l)| (c, l.clone())).expect("P2 finalizes");
        assert_eq!(csn, 1);
        // C_{2,1} log = {M6 (sent), M5 (received)} — matches the paper's
        // C_{2,1} = CT_{2,1} ∪ {M5, M6}.
        let ids: Vec<u64> = log.entries().iter().map(|e| e.msg_id.0).collect();
        assert_eq!(ids, vec![6, 5]);
        out.clear();

        // M7: P2 (now normal, csn 1) -> P1: case (3b), P1 finalizes
        // excluding M7.
        let pb7 = p[2].on_app_send(ProcessId(1), MsgId(7), pl);
        assert_eq!(pb7.stat, Status::Normal);
        p[1].on_app_receive(ProcessId(2), MsgId(7), pl, &pb7, &mut out)
            .expect("paper §3.4.3 case analysis must accept this delivery");
        assert_eq!(p[1].status(), Status::Normal);
        let (_, log1) = written_log(&out).map(|(c, l)| (c, l.clone())).expect("P1 finalizes");
        assert!(log1.entries().iter().all(|e| e.msg_id != MsgId(7)), "M7 excluded");
        out.clear();

        // M8: P1 (normal) -> P3: P3 finalizes excluding M8.
        let pb8 = p[1].on_app_send(ProcessId(3), MsgId(8), pl);
        p[3].on_app_receive(ProcessId(1), MsgId(8), pl, &pb8, &mut out)
            .expect("paper §3.4.3 case analysis must accept this delivery");
        assert_eq!(p[3].status(), Status::Normal);
        let (_, log3) = written_log(&out).map(|(c, l)| (c, l.clone())).expect("P3 finalizes");
        assert!(log3.entries().iter().all(|e| e.msg_id != MsgId(8)), "M8 excluded");
        out.clear();

        // M9: P3 (normal) -> P0: P0 finalizes excluding M9.
        let pb9 = p[3].on_app_send(ProcessId(0), MsgId(9), pl);
        p[0].on_app_receive(ProcessId(3), MsgId(9), pl, &pb9, &mut out)
            .expect("paper §3.4.3 case analysis must accept this delivery");
        assert_eq!(p[0].status(), Status::Normal);
        let (_, log0) = written_log(&out).map(|(c, l)| (c, l.clone())).expect("P0 finalizes");
        assert!(log0.entries().iter().all(|e| e.msg_id != MsgId(9)), "M9 excluded");
        out.clear();

        // M6 finally arrives at P3, which has already finalized csn 1:
        // sub-case (4a), processed with no checkpoint action.
        p[3].on_app_receive(ProcessId(2), MsgId(6), pl, &pb6, &mut out)
            .expect("paper §3.4.3 case analysis must accept this delivery");
        assert!(out.is_empty());
        assert_eq!(p[3].status(), Status::Normal);

        // All four processes finalized checkpoint 1 — S_1 is complete.
        for q in &p {
            assert_eq!(q.csn(), 1);
            assert_eq!(q.status(), Status::Normal);
            assert_eq!(q.stats().get("ckpt.finalized"), 1);
        }
    }
}
