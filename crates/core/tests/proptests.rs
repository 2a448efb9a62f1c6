//! Property tests for the core protocol building blocks, plus a
//! state-machine fuzzer that drives a cluster of `OcptProcess` instances
//! through randomly ordered deliveries (no simulator involved) and checks
//! the protocol's own invariants at every step.

use ocpt_core::{
    decode_envelope, encode_envelope, AppPayload, CheckpointProtocol, CtrlKind, CtrlMsg, Direction,
    Envelope, LogEntry, MessageLog, OcptConfig, OcptProcess, Piggyback, ProtoAction, Status,
    TentSet,
};
use ocpt_sim::{MsgId, ProcessId};
use proptest::prelude::*;

// ---------- TentSet algebra ----------

fn tentset_strategy(n: usize) -> impl Strategy<Value = TentSet> {
    prop::collection::vec(0..n as u32, 0..n).prop_map(move |ids| {
        let mut s = TentSet::empty(n);
        for i in ids {
            s.insert(ProcessId(i));
        }
        s
    })
}

proptest! {
    #[test]
    fn tentset_merge_is_union_commutative_idempotent(
        n in 1usize..200,
        seed_a in prop::collection::vec(0u32..200, 0..32),
        seed_b in prop::collection::vec(0u32..200, 0..32),
    ) {
        let mk = |ids: &[u32]| {
            let mut s = TentSet::empty(n);
            for &i in ids {
                if (i as usize) < n {
                    s.insert(ProcessId(i));
                }
            }
            s
        };
        let a = mk(&seed_a);
        let b = mk(&seed_b);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(&ab, &ba, "commutative");
        let mut aa = ab.clone();
        aa.merge(&ab);
        prop_assert_eq!(&aa, &ab, "idempotent");
        // Union contains both operands.
        for p in a.iter().chain(b.iter()) {
            prop_assert!(ab.contains(p));
        }
        // Cardinality sane.
        prop_assert!(ab.len() >= a.len().max(b.len()));
        prop_assert!(ab.len() <= n);
    }

    #[test]
    fn tentset_bytes_round_trip(n in 1usize..300, s in (1usize..300).prop_flat_map(tentset_strategy)) {
        // (Generator may produce a set over a different n; rebuild over n.)
        let mut set = TentSet::empty(n);
        for p in s.iter() {
            if p.index() < n {
                set.insert(p);
            }
        }
        let d = TentSet::from_bytes(n, &set.to_bytes()).expect("round trip");
        prop_assert_eq!(d, set);
    }

    /// The control wave's two scans — `min_in` (CK_BGN suppression) and
    /// `first_absent_in` (CK_REQ routing) — agree with a linear scan over
    /// any `[lo, hi)`, including empty ranges, ranges past the universe
    /// and ranges that cross word boundaries.
    #[test]
    fn ranged_scans_match_linear_scan(
        n in 1usize..200,
        s in (1usize..200).prop_flat_map(tentset_strategy),
        lo in 0u32..220,
        hi in 0u32..220,
    ) {
        let mut set = TentSet::empty(n);
        for p in s.iter() {
            if p.index() < n {
                set.insert(p);
            }
        }
        let ids = || (lo..hi.min(n as u32)).map(ProcessId);
        prop_assert_eq!(set.min_in(lo, hi), ids().find(|&q| set.contains(q)));
        prop_assert_eq!(set.first_absent_in(lo, hi), ids().find(|&q| !set.contains(q)));
    }

    // ---------- Wire codec ----------

    #[test]
    fn envelope_codec_round_trips(
        n in 2usize..200,
        csn in any::<u64>(),
        tentative in any::<bool>(),
        payload_id in any::<u64>(),
        payload_len in 0u32..4096,
        members in prop::collection::vec(0u32..200, 0..16),
    ) {
        let mut ts = TentSet::empty(n);
        for m in members {
            if (m as usize) < n {
                ts.insert(ProcessId(m));
            }
        }
        let status = if tentative { Status::Tentative } else { Status::Normal };
        let app = Envelope::App {
            pb: Piggyback::new(csn, status, ts),
            payload: AppPayload { id: payload_id, len: payload_len },
        };
        let ctrl = Envelope::Ctrl(CtrlMsg { kind: CtrlKind::CkReq, csn });
        for env in [app, ctrl] {
            // Exhaustive over both enums the envelope codec carries: a new
            // variant fails to compile here until this round trip covers it.
            match &env {
                Envelope::App { pb, .. } => match pb.stat {
                    Status::Normal | Status::Tentative => {}
                },
                Envelope::Ctrl(_) => {}
            }
            let enc = encode_envelope(&env, n);
            prop_assert_eq!(enc.len() as u64, env.wire_bytes());
            let (dec, dn) = decode_envelope(enc).expect("wire round-trip must decode");
            prop_assert_eq!(dec, env);
            prop_assert_eq!(dn, n);
        }
    }

    #[test]
    fn envelope_decoder_never_panics_on_garbage(data in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = decode_envelope(bytes::Bytes::from(data));
    }

    #[test]
    fn message_log_round_trips(entries in prop::collection::vec(
        (any::<bool>(), 0u32..64, any::<u64>(), any::<u64>(), 0u32..2048), 0..64)
    ) {
        let mut log = MessageLog::new();
        for (sent, peer, msg, pid, len) in entries {
            log.push(LogEntry::payload(if sent { Direction::Sent } else { Direction::Received }, ProcessId(peer), MsgId(msg), AppPayload { id: pid, len }));
        }
        let dec = MessageLog::decode(log.encode()).expect("round trip");
        prop_assert_eq!(dec, log);
    }

    #[test]
    fn log_decoder_never_panics_on_garbage(data in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = MessageLog::decode(bytes::Bytes::from(data));
    }
}

// ---------- Adaptive wire encodings (differential) ----------

/// Universes on both sides of the u16→u32 id-width boundary, paired with
/// sets built from a handful of intervals plus scattered singletons — the
/// structure that lets each of the three representations win somewhere.
fn universe_and_set() -> impl Strategy<Value = (usize, TentSet)> {
    prop_oneof![17usize..1_000, 65_530usize..66_000].prop_flat_map(|n| {
        let runs = prop::collection::vec((0..n as u32, 1u32..64), 0..6);
        let singles = prop::collection::vec(0..n as u32, 0..12);
        let set = (runs, singles).prop_map(move |(runs, singles)| {
            let mut s = TentSet::empty(n);
            for (start, len) in runs {
                for i in start..(start + len).min(n as u32) {
                    s.insert(ProcessId(i));
                }
            }
            for i in singles {
                s.insert(ProcessId(i));
            }
            s
        });
        (Just(n), set)
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// Differential: the sparse and run encodings must decode to exactly
    /// the set the dense bitmap (the reference representation) decodes to,
    /// and the adaptive pick must be the smallest of the three.
    #[test]
    fn forced_encodings_agree_with_dense_reference(ns in universe_and_set()) {
        let (n, s) = ns;
        let dense = s.encode_dense();
        let sparse = s.encode_sparse();
        let runs = s.encode_runs();
        let reference = TentSet::from_bytes(n, &dense).expect("dense decodes");
        prop_assert_eq!(&reference, &s);
        for enc in [&sparse, &runs] {
            let d = TentSet::from_bytes(n, enc).expect("forced encoding decodes");
            prop_assert_eq!(&d, &reference);
        }
        // The adaptive choice self-reports its size and is never beaten.
        let adaptive = s.to_bytes();
        prop_assert_eq!(adaptive.len(), s.wire_bytes());
        prop_assert!(adaptive.len() <= dense.len().min(sparse.len()).min(runs.len()));
        // `from_wire` consumes exactly the encoded bytes, even with junk
        // appended (the envelope decoder relies on this).
        let mut framed = adaptive.clone();
        framed.extend_from_slice(&[0xAB; 7]);
        let (d, used) = TentSet::from_wire(n, &framed).expect("framed decode");
        prop_assert_eq!(used, adaptive.len());
        prop_assert_eq!(d, s);
    }

    /// Merging two sets that each took a wire round-trip gives the same
    /// union as merging in memory — the encodings are lossless under the
    /// protocol's one algebraic operation.
    #[test]
    fn merge_commutes_with_wire_round_trip(
        na in universe_and_set(),
        ids in prop::collection::vec(any::<u32>(), 0..24),
    ) {
        let (n, a) = na;
        let mut b = TentSet::empty(n);
        for i in ids {
            b.insert(ProcessId(i % n as u32));
        }
        let mut in_memory = a.clone();
        in_memory.merge(&b);
        let mut via_wire = TentSet::from_bytes(n, &a.to_bytes()).expect("a decodes");
        via_wire.merge(&TentSet::from_bytes(n, &b.to_bytes()).expect("b decodes"));
        prop_assert_eq!(via_wire, in_memory);
    }

    /// An unknown tag byte or a truncated body is rejected, never
    /// misinterpreted.
    #[test]
    fn corrupted_tag_and_truncation_rejected(
        ns in universe_and_set(),
        bad_tag in 3u8..=255,
    ) {
        let (n, s) = ns;
        let good = s.to_bytes();
        let mut corrupted = good.clone();
        corrupted[0] = bad_tag;
        prop_assert!(TentSet::from_bytes(n, &corrupted).is_none(), "unknown tag accepted");
        prop_assert!(
            TentSet::from_bytes(n, &good[..good.len() - 1]).is_none(),
            "truncated body accepted"
        );
    }
}

// ---------- State-machine fuzz ----------

/// A network-less random scheduler: messages sit in a bag; each step either
/// delivers a random in-flight message, makes a random process send to a
/// random peer, initiates a checkpoint at a random process, or fires a
/// pending timer. Invariants checked throughout:
///
/// * no handler returns a protocol error (the "impossible" paper sub-cases
///   stay impossible under arbitrary reordering);
/// * `csn` values stay within 1 of each other across processes that are
///   `Normal` (global checkpoints advance in lock-step);
/// * at quiescence with timers flushed, every process is `Normal` and all
///   share the same `csn` (Theorem 1 in miniature).
#[derive(Debug)]
enum Op {
    Deliver(usize),
    Send { from: u32, to_off: u32 },
    Initiate(u32),
    FireTimer(u32),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<prop::sample::Index>()).prop_map(|i| Op::Deliver(i.index(usize::MAX))),
        (any::<u32>(), any::<u32>()).prop_map(|(f, t)| Op::Send { from: f, to_off: t }),
        any::<u32>().prop_map(Op::Initiate),
        any::<u32>().prop_map(Op::FireTimer),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn random_schedules_never_reach_impossible_cases(
        n in 2usize..7,
        ops in prop::collection::vec(op_strategy(), 1..400),
    ) {
        let cfg = OcptConfig::default();
        let mut procs: Vec<OcptProcess> =
            (0..n).map(|i| OcptProcess::new(ProcessId(i as u32), n, cfg)).collect();
        // In-flight messages: (src, dst, msg_id, payload, piggyback).
        let mut flight: Vec<(ProcessId, ProcessId, MsgId, AppPayload, Piggyback)> = Vec::new();
        // Armed timers per process, by tag.
        let mut timers: Vec<Vec<u64>> = vec![Vec::new(); n];
        let mut next_msg = 0u64;
        let mut out = Vec::new();

        // Control messages travel in their own bag so delivery can pick
        // either kind.
        let mut ctrl_flight: Vec<(ProcessId, ProcessId, ocpt_core::CtrlMsg)> = Vec::new();

        let exec = |actions: Vec<ProtoAction<Envelope>>,
                        pid: usize,
                        ctrl_flight: &mut Vec<(ProcessId, ProcessId, ocpt_core::CtrlMsg)>,
                        timers: &mut Vec<Vec<u64>>| {
            for a in actions {
                match a {
                    ProtoAction::Send { dst, env: Envelope::Ctrl(cm) } => {
                        ctrl_flight.push((ProcessId(pid as u32), dst, cm));
                    }
                    ProtoAction::SetTimer { tag, .. } if !timers[pid].contains(&tag) => {
                        timers[pid].push(tag);
                    }
                    ProtoAction::CancelTimer { tag } => timers[pid].retain(|&t| t != tag),
                    _ => {}
                }
            }
        };

        for op in &ops {
            match op {
                Op::Deliver(i) => {
                    let total = flight.len() + ctrl_flight.len();
                    if total == 0 {
                        continue;
                    }
                    let k = i % total;
                    if k < flight.len() {
                        let (src, dst, id, payload, pb) = flight.swap_remove(k);
                        let r = procs[dst.index()]
                            .on_app_receive(src, id, payload, &pb, &mut out);
                        prop_assert!(r.is_ok(), "app receive error: {:?}", r);
                        let actions: Vec<_> = std::mem::take(&mut out);
                        exec(actions, dst.index(), &mut ctrl_flight, &mut timers);
                    } else {
                        let (src, dst, cm) = ctrl_flight.swap_remove(k - flight.len());
                        let r = procs[dst.index()].on_ctrl_receive(src, cm, &mut out);
                        prop_assert!(r.is_ok(), "ctrl receive error: {:?}", r);
                        let actions: Vec<_> = std::mem::take(&mut out);
                        exec(actions, dst.index(), &mut ctrl_flight, &mut timers);
                    }
                }
                Op::Send { from, to_off } => {
                    let src = (*from as usize) % n;
                    let dst = (src + 1 + (*to_off as usize) % (n - 1)) % n;
                    let id = MsgId(next_msg);
                    next_msg += 1;
                    let payload = AppPayload { id: id.0, len: 64 };
                    let pb = procs[src].on_app_send(ProcessId(dst as u32), id, payload);
                    flight.push((ProcessId(src as u32), ProcessId(dst as u32), id, payload, pb));
                }
                Op::Initiate(p) => {
                    let pid = (*p as usize) % n;
                    procs[pid].initiate_checkpoint(&mut out);
                    let actions: Vec<_> = std::mem::take(&mut out);
                    exec(actions, pid, &mut ctrl_flight, &mut timers);
                }
                Op::FireTimer(p) => {
                    let pid = (*p as usize) % n;
                    if let Some(tag) = timers[pid].pop() {
                        procs[pid].on_timer(tag, &mut out);
                        let actions: Vec<_> = std::mem::take(&mut out);
                        exec(actions, pid, &mut ctrl_flight, &mut timers);
                    }
                }
            }
            // Lock-step invariant: csn values never drift by more than 1.
            let min = procs.iter().map(|p| p.csn()).min().expect("nonempty process set");
            let max = procs.iter().map(|p| p.csn()).max().expect("nonempty process set");
            prop_assert!(max - min <= 1, "csn drift: {min}..{max}");
        }

        // Quiesce: deliver everything and fire all timers until stable.
        for _ in 0..10_000 {
            if let Some((src, dst, id, payload, pb)) = flight.pop() {
                let r = procs[dst.index()].on_app_receive(src, id, payload, &pb, &mut out);
                prop_assert!(r.is_ok());
                let actions: Vec<_> = std::mem::take(&mut out);
                exec(actions, dst.index(), &mut ctrl_flight, &mut timers);
            } else if let Some((src, dst, cm)) = ctrl_flight.pop() {
                let r = procs[dst.index()].on_ctrl_receive(src, cm, &mut out);
                prop_assert!(r.is_ok());
                let actions: Vec<_> = std::mem::take(&mut out);
                exec(actions, dst.index(), &mut ctrl_flight, &mut timers);
            } else if let Some(pid) = (0..n).find(|&i| !timers[i].is_empty()) {
                let tag = timers[pid].pop().expect("timer armed before firing");
                procs[pid].on_timer(tag, &mut out);
                let actions: Vec<_> = std::mem::take(&mut out);
                exec(actions, pid, &mut ctrl_flight, &mut timers);
            } else {
                break;
            }
        }
        prop_assert!(flight.is_empty() && ctrl_flight.is_empty(), "did not quiesce");

        // Theorem 1 in miniature: everyone Normal at the same csn.
        for p in &procs {
            prop_assert_eq!(p.status(), Status::Normal, "{} stuck tentative", p.id());
        }
        let csn0 = procs[0].csn();
        for p in &procs {
            prop_assert_eq!(p.csn(), csn0, "csn disagreement at quiescence");
        }
    }
}
