//! Property tests for the consistency oracle: cuts built from valid
//! delivery prefixes are always consistent; cuts that cut a message
//! backwards are always flagged; the vector-clock view agrees with the cut
//! view on checkpoint sets; and the observer's flat message table, in-flight
//! clock slab and O(N²) clock verdict give exactly the reports of
//! [`Reference`], the observer they replaced.

use std::collections::{BTreeMap, HashMap};

use ocpt_causality::{
    checkpoint_set_consistent, pairwise_consistent, Cut, CutReport, EventPos, GlobalObserver,
    InTransit, Orphan, VClock,
};
use ocpt_sim::{MsgId, ProcessId, SimTime};
use proptest::prelude::*;

/// The observer as it was before the flat table: a `BTreeMap` of records
/// that each keep the sender's whole clock for the life of the run, and a
/// clock verdict that clones the `N` clocks and compares all pairs in full.
/// Kept as the oracle's oracle — the differential tests below feed it and
/// [`GlobalObserver`] the same events and demand equal answers.
struct Reference {
    n: usize,
    next_idx: Vec<u64>,
    clocks: Vec<VClock>,
    prev_clocks: Vec<VClock>,
    msgs: BTreeMap<MsgId, RefMsg>,
    /// `(csn, pos, clock)` per process, in finalization order.
    ckpts: Vec<Vec<(u64, u64, VClock)>>,
}

struct RefMsg {
    send: EventPos,
    recv: Option<EventPos>,
    send_clock: VClock,
}

impl Reference {
    fn new(n: usize) -> Self {
        Reference {
            n,
            next_idx: vec![0; n],
            clocks: (0..n).map(|_| VClock::zero(n)).collect(),
            prev_clocks: (0..n).map(|_| VClock::zero(n)).collect(),
            msgs: BTreeMap::new(),
            ckpts: vec![Vec::new(); n],
        }
    }

    fn bump(&mut self, pid: ProcessId) -> u64 {
        let idx = self.next_idx[pid.index()];
        self.next_idx[pid.index()] += 1;
        idx
    }

    fn on_send(&mut self, pid: ProcessId, msg: MsgId) -> u64 {
        let idx = self.bump(pid);
        self.prev_clocks[pid.index()] = self.clocks[pid.index()].clone();
        self.clocks[pid.index()].tick(pid);
        let rec = RefMsg {
            send: EventPos { pid, idx },
            recv: None,
            send_clock: self.clocks[pid.index()].clone(),
        };
        assert!(self.msgs.insert(msg, rec).is_none(), "test fed a duplicate send");
        idx
    }

    fn on_recv(&mut self, pid: ProcessId, msg: MsgId) -> u64 {
        let idx = self.bump(pid);
        self.prev_clocks[pid.index()] = self.clocks[pid.index()].clone();
        let rec = self.msgs.get_mut(&msg).expect("test fed a receive without a send");
        self.clocks[pid.index()].merge(&rec.send_clock);
        self.clocks[pid.index()].tick(pid);
        rec.recv = Some(EventPos { pid, idx });
        idx
    }

    fn on_finalize(&mut self, pid: ProcessId, csn: u64, pos: u64) {
        let cur = self.next_idx[pid.index()];
        let mut clock = if pos == cur {
            self.clocks[pid.index()].clone()
        } else {
            self.prev_clocks[pid.index()].clone()
        };
        clock.tick(pid);
        self.ckpts[pid.index()].push((csn, pos, clock));
    }

    fn ckpt(&self, pid: ProcessId, csn: u64) -> Option<&(u64, u64, VClock)> {
        self.ckpts[pid.index()].iter().find(|c| c.0 == csn)
    }

    fn complete_csns(&self) -> Vec<u64> {
        let mut all: Vec<u64> = self.ckpts[0].iter().map(|c| c.0).collect();
        all.retain(|&csn| ProcessId::all(self.n).all(|pid| self.ckpt(pid, csn).is_some()));
        all.sort_unstable();
        all
    }

    fn judge_cut(&self, csn: u64, cut: &Cut) -> CutReport {
        let mut orphans = Vec::new();
        let mut in_transit = Vec::new();
        for (msg, rec) in &self.msgs {
            let send = rec.send;
            let sent_inside = cut.contains(send.pid, send.idx);
            match rec.recv {
                Some(recv) => {
                    let recvd_inside = cut.contains(recv.pid, recv.idx);
                    if recvd_inside && !sent_inside {
                        orphans.push(Orphan { msg: *msg, send, recv });
                    } else if sent_inside && !recvd_inside {
                        in_transit.push(InTransit { msg: *msg, send });
                    }
                }
                None => {
                    if sent_inside {
                        in_transit.push(InTransit { msg: *msg, send });
                    }
                }
            }
        }
        CutReport { csn, orphans, in_transit }
    }

    fn judge(&self, csn: u64) -> Option<CutReport> {
        let mut cut = Cut::empty(self.n);
        for pid in ProcessId::all(self.n) {
            cut.set(pid, self.ckpt(pid, csn)?.1);
        }
        Some(self.judge_cut(csn, &cut))
    }

    fn vclock_consistent(&self, csn: u64) -> Option<bool> {
        let mut clocks = Vec::with_capacity(self.n);
        for pid in ProcessId::all(self.n) {
            clocks.push(self.ckpt(pid, csn)?.2.clone());
        }
        Some(pairwise_consistent(&clocks))
    }

    fn messages(&self) -> Vec<(MsgId, EventPos, Option<EventPos>)> {
        self.msgs.iter().map(|(id, r)| (*id, r.send, r.recv)).collect()
    }

    fn checkpoints_of(&self, pid: ProcessId) -> Vec<(u64, u64)> {
        let mut v: Vec<(u64, u64)> = self.ckpts[pid.index()].iter().map(|c| (c.0, c.1)).collect();
        v.sort_unstable();
        v
    }
}

/// A random but *valid* execution: each op sends a fresh message from a
/// random process, delivers a random in-flight one (so channels are not
/// FIFO, and whatever is still in flight at the end is never delivered), or
/// has a process finalize its next checkpoint at or one before the present.
#[derive(Clone, Debug)]
enum Op {
    Send { from: u32, to_off: u32 },
    Deliver(usize),
    Finalize { who: u32, back: bool },
}

fn send_op() -> impl Strategy<Value = Op> {
    (any::<u32>(), any::<u32>()).prop_map(|(f, t)| Op::Send { from: f, to_off: t })
}

fn deliver_op() -> impl Strategy<Value = Op> {
    any::<prop::sample::Index>().prop_map(|i| Op::Deliver(i.index(usize::MAX)))
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(prop_oneof![send_op(), deliver_op()], 1..200)
}

/// [`ops`] with finalizations interleaved at random points. Sends and
/// deliveries are listed twice so that checkpoints have traffic between them.
fn ops_with_checkpoints() -> impl Strategy<Value = Vec<Op>> {
    let finalize = (any::<u32>(), any::<bool>()).prop_map(|(who, back)| Op::Finalize { who, back });
    prop::collection::vec(
        prop_oneof![send_op(), deliver_op(), send_op(), deliver_op(), finalize],
        1..300,
    )
}

/// How the `k`-th send of an execution is named.
#[derive(Clone, Copy, Debug)]
enum Ids {
    /// `base + k`: every send is a `push`.
    Ascending { base: u64 },
    /// `base + 2k`: in order but with holes, as the simulator's ids are
    /// (control messages draw from the same counter).
    Strided { base: u64 },
    /// Every send sorts in front of all earlier ones.
    Descending,
    /// `pid << 40 | seq`, the threaded runtime's ids.
    PerSender,
}

impl Ids {
    fn name(self, k: u64, src: usize, sent_by_src: u64) -> MsgId {
        match self {
            Ids::Ascending { base } => MsgId(base + k),
            Ids::Strided { base } => MsgId(base + 2 * k),
            Ids::Descending => MsgId((1 << 32) - k),
            Ids::PerSender => MsgId((src as u64) << 40 | sent_by_src),
        }
    }
}

/// One execution fed to both observers.
struct Run {
    obs: GlobalObserver,
    reference: Reference,
    /// The cut of everything that has happened, after each op.
    prefixes: Vec<Cut>,
    /// Name of the `k`-th send.
    sent: Vec<MsgId>,
    /// One past the highest `csn` any process finalized.
    csn_end: u64,
}

fn replay(n: usize, ops: &[Op], ids: Ids) -> Run {
    let mut obs = GlobalObserver::new(n);
    let mut reference = Reference::new(n);
    let mut flight: Vec<(ProcessId, MsgId)> = Vec::new();
    let mut sent = Vec::new();
    let mut sent_by = vec![0u64; n];
    let mut next_csn = vec![1u64; n];
    let mut prefixes = Vec::new();
    for op in ops {
        match op {
            Op::Send { from, to_off } => {
                let src = (*from as usize) % n;
                let dst = (src + 1 + (*to_off as usize) % (n - 1)) % n;
                let id = ids.name(sent.len() as u64, src, sent_by[src]);
                sent.push(id);
                sent_by[src] += 1;
                let idx = obs.on_send(ProcessId(src as u32), id);
                assert_eq!(idx, reference.on_send(ProcessId(src as u32), id));
                flight.push((ProcessId(dst as u32), id));
            }
            Op::Deliver(i) => {
                if flight.is_empty() {
                    continue;
                }
                let (dst, id) = flight.swap_remove(i % flight.len());
                let idx = obs.on_recv(dst, id);
                assert_eq!(idx, reference.on_recv(dst, id));
            }
            Op::Finalize { who, back } => {
                let pid = ProcessId(*who % n as u32);
                let cur = obs.positions()[pid.index()];
                let pos = if *back { cur.saturating_sub(1) } else { cur };
                let csn = next_csn[pid.index()];
                next_csn[pid.index()] += 1;
                obs.on_finalize(pid, csn, pos, SimTime::from_nanos(csn));
                reference.on_finalize(pid, csn, pos);
            }
        }
        prefixes.push(Cut::from_positions(obs.positions()));
    }
    let csn_end = next_csn.into_iter().max().unwrap_or(1);
    Run { obs, reference, prefixes, sent, csn_end }
}

/// Every question the harness asks, answered identically by both observers.
fn assert_same_answers(run: &Run) -> TestCaseResult {
    let Run { obs, reference, .. } = run;
    prop_assert_eq!(obs.messages(), reference.messages());
    prop_assert_eq!(obs.message_count(), reference.msgs.len());
    prop_assert_eq!(obs.complete_csns(), reference.complete_csns());
    for pid in ProcessId::all(obs.n()) {
        prop_assert_eq!(obs.checkpoints_of(pid), reference.checkpoints_of(pid));
    }
    // One past the end: a `csn` nobody finalized is `None` on both sides.
    for csn in 0..=run.csn_end {
        let report = obs.judge(csn);
        prop_assert_eq!(&report, &reference.judge(csn), "judge({csn})");
        let by_clock = obs.vclock_consistent(csn);
        prop_assert_eq!(by_clock, reference.vclock_consistent(csn), "vclock_consistent({csn})");
        // The two oracles also agree with each other, on cuts that random
        // finalization makes inconsistent as often as not.
        prop_assert_eq!(report.map(|r| r.is_consistent()), by_clock, "oracles disagree on S_{csn}");
    }
    if let Some(cut) = run.prefixes.last() {
        prop_assert_eq!(obs.judge_cut(0, cut), reference.judge_cut(0, cut));
    }
    Ok(())
}

/// `report` with every message renamed to its send ordinal and re-sorted:
/// what the report says, independent of how the messages were named.
fn by_send_order(report: Option<CutReport>, sent: &[MsgId]) -> Option<CutReport> {
    let ordinal: HashMap<MsgId, u64> = sent.iter().zip(0..).map(|(id, k)| (*id, k)).collect();
    let mut report = report?;
    for o in &mut report.orphans {
        o.msg = MsgId(ordinal[&o.msg]);
    }
    for t in &mut report.in_transit {
        t.msg = MsgId(ordinal[&t.msg]);
    }
    report.orphans.sort_by_key(|o| o.msg);
    report.in_transit.sort_by_key(|t| t.msg);
    Some(report)
}

/// A set of `n` clocks in which every member knows strictly more about its
/// own process than anyone else does — the shape of a consistent `S_k`.
fn self_dominant(n: usize, noise: &[u64]) -> Vec<VClock> {
    (0..n)
        .map(|i| {
            let mut v: Vec<u64> = (0..n).map(|j| noise[(i * n + j) % noise.len()] % 5).collect();
            v[i] = 5 + noise[i % noise.len()] % 3;
            VClock::from_components(v)
        })
        .collect()
}

proptest! {
    /// Every executed prefix of a valid execution is a consistent cut:
    /// a message can only have been received after it was sent, so no
    /// prefix can contain a receive without its send.
    #[test]
    fn executed_prefixes_are_consistent(n in 2usize..8, ops in ops()) {
        let Run { obs, prefixes, .. } = replay(n, &ops, Ids::Ascending { base: 0 });
        for (i, cut) in prefixes.iter().enumerate() {
            let rep = obs.judge_cut(i as u64, cut);
            prop_assert!(rep.is_consistent(), "prefix {i} inconsistent: {:?}", rep.orphans);
        }
    }

    /// Cutting the sender strictly before a delivered message's send while
    /// keeping the receiver at the end is always flagged as an orphan.
    #[test]
    fn backward_message_cuts_are_flagged(n in 2usize..6, ops in ops()) {
        let Run { obs, .. } = replay(n, &ops, Ids::Ascending { base: 0 });
        let full = Cut::from_positions(obs.positions());
        for (_, send, recv) in obs.messages() {
            let Some(recv) = recv else { continue };
            let mut cut = full.clone();
            cut.set(send.pid, send.idx); // exclude the send event
            if cut.contains(recv.pid, recv.idx) {
                let rep = obs.judge_cut(0, &cut);
                prop_assert!(!rep.is_consistent(), "orphan not flagged");
            }
        }
    }

    /// The vector-clock oracle and the cut oracle agree on checkpoint sets
    /// placed at executed-prefix positions.
    #[test]
    fn oracles_agree_on_prefix_checkpoints(n in 2usize..6, ops in ops()) {
        let Run { mut obs, prefixes, .. } = replay(n, &ops, Ids::Ascending { base: 0 });
        // Finalize a "checkpoint" for everyone at the final prefix.
        let Some(cut) = prefixes.last() else { return Ok(()) };
        for pid in ProcessId::all(n) {
            obs.on_finalize(pid, 1, cut.get(pid), SimTime::ZERO);
        }
        let by_cut = obs.judge(1).unwrap().is_consistent();
        let by_clock = obs.vclock_consistent(1).unwrap();
        prop_assert!(by_cut, "executed prefix must be consistent");
        prop_assert_eq!(by_cut, by_clock);
    }

    /// `complete_csns` reports exactly the rounds every process finalized.
    #[test]
    fn complete_csns_requires_everyone(n in 2usize..6, full_rounds in 0u64..4, partial in 0u64..3) {
        let mut obs = GlobalObserver::new(n);
        for k in 1..=full_rounds {
            for pid in ProcessId::all(n) {
                obs.on_finalize(pid, k, 0, SimTime::ZERO);
            }
        }
        // A few rounds missing one process.
        for k in 0..partial {
            for pid in ProcessId::all(n).skip(1) {
                obs.on_finalize(pid, full_rounds + 1 + k, 0, SimTime::ZERO);
            }
        }
        let complete = obs.complete_csns();
        prop_assert_eq!(complete.len() as u64, full_rounds);
        for (i, k) in complete.iter().enumerate() {
            prop_assert_eq!(*k, i as u64 + 1);
        }
    }

    /// Random executions — non-FIFO delivery, messages never delivered,
    /// checkpoints at `pos = cur` and `pos = cur − 1` at random points, many
    /// `csn`s, consistent and inconsistent — get the same verdicts, element
    /// for element, from the flat-table observer and from [`Reference`].
    #[test]
    fn flat_table_observer_matches_the_reference(n in 2usize..6, base in 0u64..1000, ops in ops_with_checkpoints()) {
        assert_same_answers(&replay(n, &ops, Ids::Ascending { base }))?;
    }

    /// Ids that arrive with holes, in descending order or interleaved per
    /// sender take the sorted-insert and binary-search paths: still equal to
    /// the reference, and — once messages are renamed to their send order —
    /// equal to what the same execution reports under ascending ids.
    #[test]
    fn reports_do_not_depend_on_id_arrival_order(n in 2usize..6, base in 0u64..1000, ops in ops_with_checkpoints()) {
        let ascending = replay(n, &ops, Ids::Ascending { base: 0 });
        for ids in [Ids::Strided { base }, Ids::Descending, Ids::PerSender] {
            let run = replay(n, &ops, ids);
            assert_same_answers(&run)?;
            for csn in 0..=run.csn_end {
                prop_assert_eq!(
                    by_send_order(run.obs.judge(csn), &run.sent),
                    ascending.obs.judge(csn),
                    "{ids:?}: judge({csn})"
                );
                prop_assert_eq!(run.obs.vclock_consistent(csn), ascending.obs.vclock_consistent(csn));
            }
        }
    }

    /// The O(N²) clock verdict is `pairwise_consistent`, exactly: on random
    /// clock sets (small components, so ordered and `Equal` pairs are
    /// common; any shape), on sets where the shortcut fires, and on such
    /// sets spoiled by a deliberate `Equal` or `Before` pair.
    #[test]
    fn clock_shortcut_equals_the_pairwise_definition(
        len in 1usize..7,
        arity in 1usize..7,
        noise in prop::collection::vec(0u64..1000, 49),
        spoil in 0usize..4,
        a in 0usize..7,
        b in 0usize..7,
    ) {
        let raw: Vec<VClock> = (0..len)
            .map(|i| VClock::from_components((0..arity).map(|j| noise[i * 7 + j] % 3).collect()))
            .collect();
        prop_assert_eq!(checkpoint_set_consistent(&raw), pairwise_consistent(&raw));

        let mut set = self_dominant(len, &noise);
        let (a, b) = (a % len, b % len);
        match spoil {
            // Untouched: the shortcut answers, and the answer is "consistent".
            0 => prop_assert!(checkpoint_set_consistent(&set)),
            // `Equal` is allowed by the definition; the shortcut must not
            // turn "not strictly dominant" into "inconsistent".
            1 => {
                set[b] = set[a].clone();
                prop_assert!(checkpoint_set_consistent(&set));
            }
            // `a` happened before `b`: `b` has seen all of `a` and moved on.
            2 if a != b => {
                set[b] = set[a].clone();
                set[b].tick(ProcessId(b as u32));
                prop_assert!(!checkpoint_set_consistent(&set));
            }
            // One component raised to a tie with its owner's.
            _ if a != b => {
                let owner = set[a].get(ProcessId(a as u32));
                set[b].set(ProcessId(a as u32), owner);
            }
            _ => {}
        }
        let refs: Vec<&VClock> = set.iter().collect();
        prop_assert_eq!(checkpoint_set_consistent(&refs), pairwise_consistent(&set));
    }
}

/// What the oracle costs, pinned without a clock: a message is at most 48
/// bytes for the life of the run, and sender clocks are held only for what
/// is in flight — 50 000 messages through a window of `W` leave `W` clocks.
#[test]
fn message_rows_are_small_and_clocks_live_only_in_flight() {
    const N: usize = 8;
    const W: usize = 16;
    const { assert!(GlobalObserver::MESSAGE_ROW_BYTES <= 48, "a message row outgrew 48 bytes") };
    let mut obs = GlobalObserver::new(N);
    let mut flight: Vec<(ProcessId, MsgId)> = Vec::new();
    let mut lcg = 42u64;
    for k in 0..50_000u64 {
        lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let src = (lcg >> 33) as usize % N;
        let dst = (src + 1 + (lcg >> 40) as usize % (N - 1)) % N;
        if flight.len() == W {
            let (to, id) = flight.swap_remove((lcg >> 20) as usize % W);
            obs.on_recv(to, id);
        }
        obs.on_send(ProcessId(src as u32), MsgId(k));
        flight.push((ProcessId(dst as u32), MsgId(k)));
    }
    assert_eq!(obs.message_count(), 50_000);
    assert!(obs.flight_clocks() <= W, "{} clocks held for a window of {W}", obs.flight_clocks());
}
