//! The omniscient observer: records every application-level event of a run
//! and checks collected global checkpoints for consistency.
//!
//! The observer is *outside* the system model — it sees everything
//! instantly, which no real process can. Protocol code never reads it; the
//! harness feeds it and the tests interrogate it. This is how we turn the
//! paper's Theorem 2 ("finalized checkpoints with equal sequence number form
//! a consistent global checkpoint") into a machine-checked property.
//!
//! # What it costs
//!
//! Whether a message is an orphan of `S_k` is a function of two event
//! positions, so a message is one 48-byte [`Copy`] row in a flat table
//! sorted by id, and judging a cut is one linear scan of that table. The
//! O(N) sender clock the second oracle needs is read exactly once, at the
//! matching receive, so it lives in a recycled slab slot only while the
//! message is in flight: clock memory is (peak in-flight messages) × N
//! words plus the 2 N² words of per-process clocks, not (all messages) × N.
//! The feed methods panic — in release builds too — on an event stream no
//! execution can produce (duplicate send, receive of an unknown message, a
//! `csn` finalized twice): every published number comes from a release
//! build, and an absorbed harness bug would be a silently weaker oracle.

use ocpt_sim::{MsgId, ProcessId, SimTime};

use crate::cut::Cut;
use crate::vclock::{checkpoint_set_consistent, VClock};

/// Where one endpoint of a message sits in a process's local event order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EventPos {
    /// Process on which the event occurred.
    pub pid: ProcessId,
    /// Zero-based index in that process's application-event sequence.
    pub idx: u64,
}

/// The receiving side of a message: a message either still holds its
/// sender's clock or has a receive position, never both.
#[derive(Clone, Copy, Debug)]
enum FarEnd {
    /// Not yet received; the sender's clock right after the send event
    /// waits in `GlobalObserver::flight[slot]`.
    InFlight { slot: u32 },
    /// Received at this position; the slot went back to the free list.
    Received(EventPos),
}

/// Observed endpoints of one application message.
#[derive(Clone, Copy, Debug)]
struct MsgRow {
    id: MsgId,
    send: EventPos,
    far: FarEnd,
}

impl MsgRow {
    fn recv(&self) -> Option<EventPos> {
        match self.far {
            FarEnd::InFlight { .. } => None,
            FarEnd::Received(pos) => Some(pos),
        }
    }
}

/// One finalized checkpoint of one process, as the oracle saw it.
///
/// Kept in a per-process `Vec` sorted by `csn` — checkpoint sequence
/// numbers are dense and per-process lookups dominate, so this replaces
/// three `HashMap<(ProcessId, u64), _>` tables (position, clock, time)
/// with a single binary-searched record table and no per-entry hashing.
#[derive(Clone, Debug)]
struct CkptRecord {
    csn: u64,
    pos: u64,
    clock: VClock,
    time: SimTime,
}

/// An orphan message with respect to some cut: received inside, sent outside.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Orphan {
    /// The offending message.
    pub msg: MsgId,
    /// Its send endpoint.
    pub send: EventPos,
    /// Its receive endpoint.
    pub recv: EventPos,
}

/// A message in transit across a cut: sent inside, received outside (or
/// never). Not an inconsistency, but recovery must be able to regenerate it
/// — the paper's sent-message logging exists for exactly this.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InTransit {
    /// The message.
    pub msg: MsgId,
    /// Its send endpoint.
    pub send: EventPos,
}

/// Verdict for one global checkpoint `S_k`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CutReport {
    /// The checkpoint sequence number.
    pub csn: u64,
    /// Orphan messages (must be empty for consistency).
    pub orphans: Vec<Orphan>,
    /// In-transit messages (allowed; must be covered by sender logs).
    pub in_transit: Vec<InTransit>,
}

impl CutReport {
    /// True iff the global checkpoint is consistent (no orphans).
    pub fn is_consistent(&self) -> bool {
        self.orphans.is_empty()
    }
}

/// The observer. Feed it every application send/receive and every
/// checkpoint-finalization cut position; then ask it to judge each `S_k`.
#[derive(Debug)]
pub struct GlobalObserver {
    n: usize,
    /// Next local application-event index per process.
    next_idx: Vec<u64>,
    /// Vector clock per process (oracle #2).
    clocks: Vec<VClock>,
    /// Clock of each process *before* its most recent event — needed for
    /// checkpoint cuts that step one event back (OCPT's excluded trigger).
    prev_clocks: Vec<VClock>,
    /// One row per message, sorted by id, so that every iteration
    /// (`judge_cut`, `messages`) walks in `MsgId` order — the reports this
    /// observer produces feed byte-identity-pinned output, so iteration
    /// order must be a function of the run, never of arrival order. The
    /// simulator's ids ascend, with holes (control messages draw from the
    /// same counter and never come here), which makes a send a `push`; a
    /// receive binary-searches for its row. Ids that arrive out of order
    /// (the threaded runtime's `pid << 40 | seq`) pay a sorted insert.
    msgs: Vec<MsgRow>,
    /// Sender clocks of the messages in flight, indexed by
    /// `FarEnd::InFlight::slot`. Never shrinks: it holds as many clocks as
    /// were ever in flight at once.
    flight: Vec<VClock>,
    /// Slots of `flight` whose message has been received.
    free: Vec<u32>,
    /// Finalized checkpoints per process, sorted by `csn`.
    ckpts: Vec<Vec<CkptRecord>>,
}

impl GlobalObserver {
    /// An observer for `n` processes. Allocates the 2 `n²` words of
    /// per-process clocks up front — the one cost that grows faster than
    /// the run.
    pub fn new(n: usize) -> Self {
        GlobalObserver {
            n,
            next_idx: vec![0; n],
            clocks: (0..n).map(|_| VClock::zero(n)).collect(),
            prev_clocks: (0..n).map(|_| VClock::zero(n)).collect(),
            msgs: Vec::new(),
            flight: Vec::new(),
            free: Vec::new(),
            ckpts: vec![Vec::new(); n],
        }
    }

    /// The checkpoint record of `(pid, csn)`, if finalized.
    fn ckpt(&self, pid: ProcessId, csn: u64) -> Option<&CkptRecord> {
        let table = &self.ckpts[pid.index()];
        table.binary_search_by_key(&csn, |r| r.csn).ok().map(|i| &table[i])
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Record a send event at `pid`; returns its local index. The sender's
    /// clock is retained internally until the matching receive.
    ///
    /// An id above every earlier one is a `push`. Any other id is inserted
    /// at its sorted position, which moves every row above it: a caller
    /// whose ids do not ascend pays O(messages) per send, O(messages²) for
    /// the run (the threaded runtime's `pid << 40 | seq` over 8 senders:
    /// 20 000 messages 0.10 s, 200 000 messages 16 s).
    ///
    /// # Panics
    /// If `msg` was already sent.
    pub fn on_send(&mut self, pid: ProcessId, msg: MsgId) -> u64 {
        let idx = self.bump(pid);
        // clone_from reuses the previous snapshot's allocation: no per-event
        // Vec allocation on this (hot) path.
        self.prev_clocks[pid.index()].clone_from(&self.clocks[pid.index()]);
        self.clocks[pid.index()].tick(pid);
        let at = match self.msgs.last() {
            Some(last) if last.id >= msg => match self.msgs.binary_search_by_key(&msg, |r| r.id) {
                Ok(_) => panic!("duplicate send for {msg:?}"),
                Err(i) => i,
            },
            _ => self.msgs.len(),
        };
        let clock = &self.clocks[pid.index()];
        let slot = match self.free.pop() {
            Some(slot) => {
                self.flight[slot as usize].clone_from(clock);
                slot
            }
            None => {
                self.flight.push(clock.clone());
                u32::try_from(self.flight.len() - 1).expect("more than u32::MAX messages in flight")
            }
        };
        self.msgs.insert(
            at,
            MsgRow { id: msg, send: EventPos { pid, idx }, far: FarEnd::InFlight { slot } },
        );
        idx
    }

    /// Record a receive event at `pid` of message `msg`; returns the local
    /// index. The clock merge uses the clock retained at `on_send`.
    ///
    /// # Panics
    /// If `msg` was never sent or was already received — either is a
    /// harness bug.
    pub fn on_recv(&mut self, pid: ProcessId, msg: MsgId) -> u64 {
        let idx = self.bump(pid);
        self.prev_clocks[pid.index()].clone_from(&self.clocks[pid.index()]);
        let Ok(at) = self.msgs.binary_search_by_key(&msg, |r| r.id) else {
            panic!("receive of unknown message {msg:?}");
        };
        let FarEnd::InFlight { slot } = self.msgs[at].far else {
            panic!("duplicate receive for {msg:?}");
        };
        self.clocks[pid.index()].merge(&self.flight[slot as usize]);
        self.clocks[pid.index()].tick(pid);
        self.free.push(slot);
        self.msgs[at].far = FarEnd::Received(EventPos { pid, idx });
        idx
    }

    /// Record that `pid` finalized its checkpoint `csn` with the cut sitting
    /// at `pos` local events (i.e. the restored state contains exactly the
    /// first `pos` application events of `pid`).
    ///
    /// # Panics
    /// If `pos` is neither the current event count nor one less (a cut
    /// placed just before the most recent event — the paper's
    /// excluded-trigger finalization), or `pid` already finalized `csn`.
    pub fn on_finalize(&mut self, pid: ProcessId, csn: u64, pos: u64, at: SimTime) {
        // The oracle clock of a checkpoint at position `pos`: we tick the
        // local component so two checkpoints at identical positions on
        // different processes stay concurrent, matching the "checkpoint is
        // a local event" convention. [OCPT §2.2]
        let cur = self.next_idx[pid.index()];
        assert!(pos == cur || pos + 1 == cur, "cut must be at or one before the present");
        let mut clock = if pos == cur {
            self.clocks[pid.index()].clone()
        } else {
            self.prev_clocks[pid.index()].clone()
        };
        clock.tick(pid);
        let table = &mut self.ckpts[pid.index()];
        match table.binary_search_by_key(&csn, |r| r.csn) {
            Ok(_) => panic!("{pid} finalized csn {csn} twice"),
            Err(i) => table.insert(i, CkptRecord { csn, pos, clock, time: at }),
        }
    }

    fn bump(&mut self, pid: ProcessId) -> u64 {
        let idx = self.next_idx[pid.index()];
        self.next_idx[pid.index()] += 1;
        idx
    }

    /// Current local event counts (useful for building ad-hoc cuts).
    pub fn positions(&self) -> Vec<u64> {
        self.next_idx.clone()
    }

    /// Sequence numbers for which **all** `n` processes have finalized.
    pub fn complete_csns(&self) -> Vec<u64> {
        // Intersect the per-process (sorted) csn sequences, seeded from the
        // process with the fewest finalizations.
        let Some(smallest) = self.ckpts.iter().min_by_key(|t| t.len()) else {
            return Vec::new();
        };
        smallest
            .iter()
            .map(|r| r.csn)
            .filter(|&csn| ProcessId::all(self.n).all(|pid| self.ckpt(pid, csn).is_some()))
            .collect()
    }

    /// The cut induced by `S_csn`, if complete.
    pub fn cut_of(&self, csn: u64) -> Option<Cut> {
        let mut cut = Cut::empty(self.n);
        for pid in ProcessId::all(self.n) {
            cut.set(pid, self.ckpt(pid, csn)?.pos);
        }
        Some(cut)
    }

    /// Judge an arbitrary cut against the recorded messages.
    pub fn judge_cut(&self, csn: u64, cut: &Cut) -> CutReport {
        let mut orphans = Vec::new();
        let mut in_transit = Vec::new();
        for row in &self.msgs {
            let (msg, send) = (row.id, row.send);
            let sent_inside = cut.contains(send.pid, send.idx);
            match row.recv().filter(|recv| cut.contains(recv.pid, recv.idx)) {
                Some(recv) if !sent_inside => orphans.push(Orphan { msg, send, recv }),
                None if sent_inside => in_transit.push(InTransit { msg, send }),
                _ => {}
            }
        }
        // `msgs` is sorted by id, so both lists are too.
        debug_assert!(orphans.windows(2).all(|w| w[0].msg < w[1].msg));
        debug_assert!(in_transit.windows(2).all(|w| w[0].msg < w[1].msg));
        CutReport { csn, orphans, in_transit }
    }

    /// Judge the global checkpoint `S_csn` (must be complete).
    ///
    /// Returns `None` if some process has not finalized `csn`.
    pub fn judge(&self, csn: u64) -> Option<CutReport> {
        let cut = self.cut_of(csn)?;
        Some(self.judge_cut(csn, &cut))
    }

    /// Oracle #2: are the vector clocks of `S_csn` pairwise concurrent?
    ///
    /// Agreement between [`Self::judge`] and this check is itself asserted
    /// by property tests.
    pub fn vclock_consistent(&self, csn: u64) -> Option<bool> {
        let clocks: Vec<&VClock> = ProcessId::all(self.n)
            .map(|pid| Some(&self.ckpt(pid, csn)?.clock))
            .collect::<Option<_>>()?;
        Some(checkpoint_set_consistent(&clocks))
    }

    /// When `pid` finalized `csn` (reporting).
    pub fn finalize_time(&self, pid: ProcessId, csn: u64) -> Option<SimTime> {
        self.ckpt(pid, csn).map(|r| r.time)
    }

    /// Total number of observed application messages.
    pub fn message_count(&self) -> usize {
        self.msgs.len()
    }

    /// All messages with their endpoints (receive endpoint `None` while in
    /// flight), sorted by id. Used by the rollback/domino analysis.
    pub fn messages(&self) -> Vec<(MsgId, EventPos, Option<EventPos>)> {
        self.msgs.iter().map(|r| (r.id, r.send, r.recv())).collect()
    }

    /// The recorded checkpoint cut positions of one process, sorted by
    /// sequence number: `(csn, position)`.
    pub fn checkpoints_of(&self, pid: ProcessId) -> Vec<(u64, u64)> {
        self.ckpts[pid.index()].iter().map(|r| (r.csn, r.pos)).collect()
    }

    /// What one message costs for the life of the run, in bytes (cost pin).
    #[doc(hidden)]
    pub const MESSAGE_ROW_BYTES: usize = std::mem::size_of::<MsgRow>();

    /// How many sender clocks the slab holds — the peak number of messages
    /// that were in flight at once (cost pin).
    #[doc(hidden)]
    pub fn flight_clocks(&self) -> usize {
        self.flight.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> ProcessId {
        ProcessId(i)
    }

    /// Reconstructs paper Figure 1: S1 consistent, S2 has orphan M5.
    ///
    /// Three processes; M5 is sent by P1 *after* its S2 checkpoint position
    /// but received by P2 *before* its S2 checkpoint position.
    #[test]
    fn fig1_consistent_and_inconsistent_cuts() {
        let mut o = GlobalObserver::new(3);
        // M1: P0 -> P1 early.
        o.on_send(p(0), MsgId(1));
        o.on_recv(p(1), MsgId(1));
        // S1 cut: after those events on P0/P1, before anything on P2.
        let s1 = Cut::from_positions(vec![1, 1, 0]);
        // M5: P1 -> P2.
        o.on_send(p(1), MsgId(5));
        o.on_recv(p(2), MsgId(5));
        // S2 cut: P1 cut before send(M5) would be pos 1; but we cut P1 at 1
        // (send M5 is event idx 1, outside) and P2 at 1 (recv M5 inside).
        let s2 = Cut::from_positions(vec![1, 1, 1]);
        let r1 = o.judge_cut(1, &s1);
        assert!(r1.is_consistent());
        let r2 = o.judge_cut(2, &s2);
        assert!(!r2.is_consistent());
        assert_eq!(r2.orphans.len(), 1);
        assert_eq!(r2.orphans[0].msg, MsgId(5));
    }

    #[test]
    fn in_transit_detected_but_consistent() {
        let mut o = GlobalObserver::new(2);
        o.on_send(p(0), MsgId(1));
        // Cut: send inside, receive hasn't happened yet.
        let cut = Cut::from_positions(vec![1, 0]);
        let r = o.judge_cut(0, &cut);
        assert!(r.is_consistent());
        assert_eq!(r.in_transit.len(), 1);
        // Receive later, outside the cut — still in transit w.r.t. the cut.
        o.on_recv(p(1), MsgId(1));
        let r = o.judge_cut(0, &cut);
        assert!(r.is_consistent());
        assert_eq!(r.in_transit.len(), 1);
    }

    #[test]
    fn finalize_completion_tracking() {
        let mut o = GlobalObserver::new(2);
        o.on_finalize(p(0), 1, 0, SimTime::ZERO);
        assert!(o.judge(1).is_none());
        assert!(o.complete_csns().is_empty());
        o.on_finalize(p(1), 1, 0, SimTime::from_nanos(5));
        assert_eq!(o.complete_csns(), vec![1]);
        let r = o.judge(1).unwrap();
        assert!(r.is_consistent());
        assert_eq!(o.finalize_time(p(1), 1), Some(SimTime::from_nanos(5)));
    }

    #[test]
    fn vclock_oracle_agrees_on_simple_case() {
        let mut o = GlobalObserver::new(2);
        // P0 sends M; P1 receives; P1 then finalizes *after* the receive
        // while P0 finalizes *before* the send — orphan.
        o.on_finalize(p(0), 1, 0, SimTime::ZERO);
        o.on_send(p(0), MsgId(1));
        o.on_recv(p(1), MsgId(1));
        o.on_finalize(p(1), 1, 1, SimTime::ZERO);
        let r = o.judge(1).unwrap();
        assert!(!r.is_consistent());
        assert_eq!(o.vclock_consistent(1), Some(false));
    }

    #[test]
    fn vclock_oracle_consistent_case() {
        let mut o = GlobalObserver::new(2);
        o.on_send(p(0), MsgId(1));
        o.on_recv(p(1), MsgId(1));
        // Both finalize after everything — consistent.
        o.on_finalize(p(0), 1, 1, SimTime::ZERO);
        o.on_finalize(p(1), 1, 1, SimTime::ZERO);
        let r = o.judge(1).unwrap();
        assert!(r.is_consistent());
        assert_eq!(o.vclock_consistent(1), Some(true));
    }

    // The feed checks are `assert!`s: published numbers come from release
    // builds, where a `debug_assert!` would absorb a harness bug silently.

    #[test]
    #[should_panic(expected = "duplicate send")]
    fn duplicate_send_panics() {
        let mut o = GlobalObserver::new(2);
        o.on_send(p(0), MsgId(7));
        o.on_send(p(1), MsgId(7));
    }

    #[test]
    #[should_panic(expected = "receive of unknown message")]
    fn receive_of_unknown_message_panics() {
        let mut o = GlobalObserver::new(2);
        o.on_send(p(0), MsgId(1));
        o.on_recv(p(1), MsgId(2));
    }

    #[test]
    #[should_panic(expected = "duplicate receive")]
    fn duplicate_receive_panics() {
        let mut o = GlobalObserver::new(2);
        o.on_send(p(0), MsgId(1));
        o.on_recv(p(1), MsgId(1));
        o.on_recv(p(1), MsgId(1));
    }

    #[test]
    #[should_panic(expected = "finalized csn 1 twice")]
    fn double_finalize_panics() {
        let mut o = GlobalObserver::new(2);
        o.on_finalize(p(0), 1, 0, SimTime::ZERO);
        o.on_finalize(p(0), 1, 0, SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "cut must be at or one before the present")]
    fn stale_cut_position_panics() {
        let mut o = GlobalObserver::new(2);
        o.on_send(p(0), MsgId(1));
        o.on_send(p(0), MsgId(2));
        o.on_finalize(p(0), 1, 0, SimTime::ZERO);
    }

    #[test]
    fn message_count() {
        let mut o = GlobalObserver::new(2);
        o.on_send(p(0), MsgId(1));
        o.on_recv(p(1), MsgId(1));
        o.on_send(p(1), MsgId(2));
        assert_eq!(o.message_count(), 2);
    }
}
