//! Per-round critical-path analysis over the span layer.
//!
//! For every checkpoint round the longest causal chain is
//! trigger → `CK_BGN` → wave propagation → storage writes → last
//! finalize; its length is exactly the round span (first event of the
//! round anywhere → last event anywhere). This module partitions that
//! length into non-overlapping phases:
//!
//! * **trigger** — round start → first control event (the local
//!   tentative checkpoint that set the wave off);
//! * **wave** — first → last control event of the round (`CK_BGN`
//!   through convergence; ring hops on the flat topology, group rings
//!   plus the leader ring when hierarchical);
//! * **finalize** — last control event → round end (quiescence:
//!   processes finishing checkpoints after the wave converged), with the
//!   portion covered by stable-storage writes attributed to **storage**
//!   (the union of write windows clipped to the finalize phase, so the
//!   four numbers always sum to the round total).
//!
//! Rounds without control traffic attribute everything past the trigger
//! to finalize. Ring hops (`ctrl_recv` count) and `CK_GRP_DONE` tier
//! reports are carried as counts; any `ctrl.ck_grp_done` event marks the
//! round hierarchical. Everything derives from `at`/`pid`/`kind`/`code`/
//! `seq` — the `detail` string is never parsed.
//!
//! [`CritReport::to_folded`] emits the folded-stack text format
//! (`frame;frame value` per line) consumed by inferno / speedscope
//! flame-graph tooling; values are nanoseconds of virtual time.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use ocpt_sim::TraceKind;

use crate::record::TraceFile;
use crate::span::{derive_spans, SpanKind};

/// The phase decomposition of one checkpoint round's critical path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RoundPath {
    /// Checkpoint round.
    pub seq: u64,
    /// Round start, nanoseconds of virtual time.
    pub start_ns: u64,
    /// Full critical-path length (round span), nanoseconds.
    pub total_ns: u64,
    /// Round start → first control event.
    pub trigger_ns: u64,
    /// First → last control event of the round.
    pub wave_ns: u64,
    /// Portion of the finalize phase covered by stable-storage writes.
    pub storage_ns: u64,
    /// Finalize phase remainder (quiescence not covered by writes).
    pub finalize_ns: u64,
    /// Control deliveries in the round (ring hops across all tiers).
    pub ring_hops: u64,
    /// `CK_GRP_DONE` tier reports (0 on the flat ring).
    pub grp_done: u64,
    /// Whether the wave ran the two-tier hierarchical topology.
    pub hierarchical: bool,
    /// Process whose checkpoint finalized last (the chain's tail), when
    /// any checkpoint closed.
    pub slowest_pid: Option<u32>,
    /// Whether every checkpoint of the round finalized in the trace.
    pub closed: bool,
}

/// Critical paths for every round of a trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CritReport {
    /// Algorithm name from the trace header.
    pub algo: String,
    /// Process count from the trace header.
    pub n: usize,
    /// Seed from the trace header.
    pub seed: u64,
    /// One entry per round, ascending by `seq`.
    pub rounds: Vec<RoundPath>,
}

/// Sum of a set of intervals clipped to `[lo, hi]`, counting overlap
/// once (interval union).
fn union_within(mut windows: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    windows.retain(|&(s, e)| e > lo && s < hi);
    for w in &mut windows {
        w.0 = w.0.max(lo);
        w.1 = w.1.min(hi);
    }
    windows.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = lo;
    for (s, e) in windows {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

/// Analyze every round's critical path.
pub fn critical_path(f: &TraceFile) -> CritReport {
    let spans = derive_spans(&f.recs);
    // Per-round raw material the span layer doesn't carry: hop and tier
    // counts, and the storage-write interval set.
    let mut hops: BTreeMap<u64, u64> = BTreeMap::new();
    let mut grp_done: BTreeMap<u64, u64> = BTreeMap::new();
    for r in &f.recs {
        let Some(seq) = r.seq else { continue };
        if r.kind == TraceKind::CtrlRecv {
            *hops.entry(seq).or_default() += 1;
        }
        if r.code == "ctrl.ck_grp_done" {
            *grp_done.entry(seq).or_default() += 1;
        }
    }

    let mut rounds = Vec::new();
    for (i, round) in spans.iter().enumerate() {
        if round.kind != SpanKind::Round {
            continue;
        }
        let seq = round.seq.expect("round spans carry their seq");
        let wave = spans
            .iter()
            .find(|s| s.kind == SpanKind::Wave && s.parent == Some(i))
            .map(|s| (s.start, s.end));
        let total = round.end - round.start;
        let (trigger, wave_ns, fin_start) = match wave {
            Some((ws, we)) => (ws.saturating_sub(round.start), we - ws, we.max(round.start)),
            None => (0, 0, round.start),
        };
        let writes: Vec<(u64, u64)> = spans
            .iter()
            .filter(|s| s.kind == SpanKind::StorageWrite && s.seq == Some(seq) && s.closed)
            .map(|s| (s.start, s.end))
            .collect();
        let storage = union_within(writes, fin_start, round.end);
        let finalize = (round.end - fin_start).saturating_sub(storage);
        let slowest = spans
            .iter()
            .filter(|s| s.kind == SpanKind::Checkpoint && s.parent == Some(i) && s.closed)
            .max_by_key(|s| (s.end, s.pid))
            .and_then(|s| s.pid);
        rounds.push(RoundPath {
            seq,
            start_ns: round.start,
            total_ns: total,
            trigger_ns: trigger,
            wave_ns,
            storage_ns: storage,
            finalize_ns: finalize,
            ring_hops: hops.get(&seq).copied().unwrap_or(0),
            grp_done: grp_done.get(&seq).copied().unwrap_or(0),
            hierarchical: grp_done.get(&seq).copied().unwrap_or(0) > 0,
            slowest_pid: slowest,
            closed: round.closed,
        });
    }
    CritReport { algo: f.meta.algo.clone(), n: f.meta.n, seed: f.meta.seed, rounds }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

impl CritReport {
    /// Human rendering: one phase-budget line per round plus a slowest
    /// phase summary. Deterministic text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "critical path: algo={} n={} seed={} rounds={}",
            self.algo,
            self.n,
            self.seed,
            self.rounds.len()
        );
        let _ = writeln!(
            out,
            "  {:>5} {:>10} {:>10} {:>10} {:>10} {:>10} {:>5} {:>8} {}",
            "round",
            "total_ms",
            "trigger",
            "wave",
            "storage",
            "finalize",
            "hops",
            "topology",
            "slowest"
        );
        for r in &self.rounds {
            let open = if r.closed { "" } else { " (open)" };
            let _ = writeln!(
                out,
                "  {:>5} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>5} {:>8} {}{}",
                r.seq,
                ms(r.total_ns),
                ms(r.trigger_ns),
                ms(r.wave_ns),
                ms(r.storage_ns),
                ms(r.finalize_ns),
                r.ring_hops,
                if r.hierarchical { "grouped" } else { "flat" },
                r.slowest_pid.map(|p| format!("P{p}")).unwrap_or_else(|| "-".into()),
                open,
            );
        }
        if let Some(worst) = self.rounds.iter().max_by_key(|r| (r.total_ns, r.seq)) {
            let phases = [
                ("trigger", worst.trigger_ns),
                ("wave", worst.wave_ns),
                ("storage", worst.storage_ns),
                ("finalize", worst.finalize_ns),
            ];
            let (name, ns) = phases.iter().max_by_key(|(_, ns)| *ns).copied().expect("four phases");
            let _ = writeln!(
                out,
                "  longest round: #{} ({:.3} ms), dominated by {} ({:.3} ms)",
                worst.seq,
                ms(worst.total_ns),
                name,
                ms(ns),
            );
        }
        out
    }

    /// Folded-stack flame text: `frames value` per line, values in
    /// nanoseconds of virtual time. Frame roots are `round#<seq>`; the
    /// phase children partition each round exactly, so the format feeds
    /// straight into inferno / speedscope.
    pub fn to_folded(&self) -> String {
        let mut out = String::new();
        for r in &self.rounds {
            let frames = [
                ("trigger", r.trigger_ns),
                ("wave", r.wave_ns),
                ("finalize;storage", r.storage_ns),
                ("finalize", r.finalize_ns),
            ];
            for (name, ns) in frames {
                if ns > 0 {
                    let _ = writeln!(out, "round#{};{name} {ns}", r.seq);
                }
            }
            if r.total_ns == 0 {
                let _ = writeln!(out, "round#{} 0", r.seq);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use ocpt_sim::TraceKind::*;

    use crate::record::{Rec, TraceMeta};

    use super::*;

    fn rec(at: u64, pid: u32, kind: TraceKind, code: &str, seq: Option<u64>) -> Rec {
        Rec { at, pid, kind, code: code.into(), seq, detail: String::new() }
    }

    fn file(recs: Vec<Rec>) -> TraceFile {
        TraceFile { meta: TraceMeta { algo: "ocpt".into(), n: 2, seed: 7 }, recs }
    }

    fn round() -> TraceFile {
        file(vec![
            rec(10, 0, TentativeCkpt, "ckpt.tentative", Some(1)),
            rec(20, 0, CtrlSend, "ctrl.ck_bgn", Some(1)),
            rec(30, 1, CtrlRecv, "ctrl.ck_bgn", Some(1)),
            rec(35, 1, TentativeCkpt, "ckpt.tentative", Some(1)),
            rec(40, 1, CtrlSend, "ctrl.ck_end", Some(1)),
            rec(50, 0, CtrlRecv, "ctrl.ck_end", Some(1)),
            rec(60, 0, StorageStart, "storage.start", Some(1)),
            rec(80, 0, StorageDone, "storage.done", Some(1)),
            rec(90, 0, FinalizeCkpt, "ckpt.finalize", Some(1)),
            rec(100, 1, FinalizeCkpt, "ckpt.finalize", Some(1)),
        ])
    }

    #[test]
    fn phases_partition_the_round() {
        let rep = critical_path(&round());
        assert_eq!(rep.rounds.len(), 1);
        let r = &rep.rounds[0];
        assert_eq!(r.total_ns, 90, "round span 10 → 100");
        assert_eq!(r.trigger_ns, 10, "10 → first ctrl at 20");
        assert_eq!(r.wave_ns, 30, "ctrl 20 → 50");
        assert_eq!(r.storage_ns, 20, "write [60, 80] inside finalize");
        assert_eq!(r.finalize_ns, 30, "50 → 100 minus the write");
        assert_eq!(r.trigger_ns + r.wave_ns + r.storage_ns + r.finalize_ns, r.total_ns);
        assert_eq!(r.ring_hops, 2);
        assert!(!r.hierarchical);
        assert_eq!(r.slowest_pid, Some(1));
        assert!(r.closed);
    }

    #[test]
    fn grp_done_marks_hierarchical() {
        let mut f = round();
        f.recs.insert(5, rec(45, 1, CtrlSend, "ctrl.ck_grp_done", Some(1)));
        let rep = critical_path(&f);
        let r = &rep.rounds[0];
        assert!(r.hierarchical);
        assert_eq!(r.grp_done, 1);
    }

    #[test]
    fn round_without_wave_is_all_finalize() {
        let f = file(vec![
            rec(10, 0, TentativeCkpt, "ckpt.tentative", Some(2)),
            rec(90, 0, FinalizeCkpt, "ckpt.finalize", Some(2)),
        ]);
        let r = &critical_path(&f).rounds[0];
        assert_eq!((r.trigger_ns, r.wave_ns), (0, 0));
        assert_eq!(r.storage_ns + r.finalize_ns, r.total_ns);
    }

    #[test]
    fn folded_output_feeds_flame_tools() {
        let folded = critical_path(&round()).to_folded();
        for line in folded.lines() {
            let (frames, value) = line.rsplit_once(' ').expect("frame value");
            assert!(frames.starts_with("round#1"), "{line}");
            assert!(value.parse::<u64>().is_ok(), "{line}");
        }
        assert!(folded.contains("round#1;finalize;storage 20"));
        let total: u64 =
            folded.lines().map(|l| l.rsplit_once(' ').unwrap().1.parse::<u64>().unwrap()).sum();
        assert_eq!(total, 90, "folded self-times sum to the round span");
    }

    #[test]
    fn render_names_the_longest_round() {
        let s = critical_path(&round()).render();
        assert!(s.contains("critical path: algo=ocpt n=2 seed=7 rounds=1"), "{s}");
        assert!(s.contains("longest round: #1"), "{s}");
        assert!(s.contains("flat"), "{s}");
    }
}
