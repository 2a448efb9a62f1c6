//! Causal spans: intervals derived from the flat event stream.
//!
//! The paper's argument is about *intervals*, not instants — how long a
//! checkpoint round takes to converge, how long a control wave runs, how
//! storage writes overlap. `derive_spans` reconstructs those intervals
//! from a recorded event stream (no extra instrumentation: the flat
//! events carry enough structure via their `kind`/`seq` fields).
//!
//! Span kinds and their parent links:
//!
//! * **Round** — checkpoint round `seq`, globally: first event of the
//!   round anywhere → last event of the round anywhere. No parent.
//!   Application sends and receives carry the sender's csn, so they feed
//!   the window too: a round's total is roughly the checkpoint interval,
//!   not its protocol activity. A `seq` carried by application traffic
//!   alone — the messages sent before anyone's first checkpoint are
//!   tagged `seq` 0 — is not a round. A round with control or storage
//!   events but no finalized checkpoint is one, and stays open.
//! * **Wave** — the control traffic of round `seq` (`CK_BGN` →
//!   convergence): first → last control event carrying the round.
//!   Parent: the round.
//! * **Checkpoint** — process `pid`'s checkpoint `seq`: tentative →
//!   finalize. Parent: the round. Open (unfinalized at end of trace)
//!   checkpoints are marked `closed: false`.
//! * **StorageWrite** — one stable-storage write: the k-th
//!   `storage_start` of `(pid, seq)` → the k-th `storage_done`.
//!   Parent: the checkpoint.
//! * **Outage** — `crash` → `recover` on one process; open if the
//!   process never recovered. No parent (an outage is not caused by a
//!   checkpoint round).

use std::collections::BTreeMap;

use ocpt_sim::TraceKind;

use crate::record::Rec;

/// What interval a [`Span`] describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanKind {
    /// A checkpoint round, globally (all processes).
    Round,
    /// The control wave of one round.
    Wave,
    /// One process's checkpoint interval (tentative → finalize).
    Checkpoint,
    /// One stable-storage write (start → durable).
    StorageWrite,
    /// One crash/recovery episode.
    Outage,
}

impl SpanKind {
    /// Stable lowercase name (used in summaries).
    pub const fn name(self) -> &'static str {
        match self {
            SpanKind::Round => "round",
            SpanKind::Wave => "wave",
            SpanKind::Checkpoint => "checkpoint",
            SpanKind::StorageWrite => "storage_write",
            SpanKind::Outage => "outage",
        }
    }
}

/// A causal interval in a run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// What this interval is.
    pub kind: SpanKind,
    /// Owning process, for per-process spans (`None` for global ones).
    pub pid: Option<u32>,
    /// Checkpoint round, for round-scoped spans.
    pub seq: Option<u64>,
    /// Start, nanoseconds of virtual time.
    pub start: u64,
    /// End, nanoseconds of virtual time. For open spans this is the last
    /// contributing event seen.
    pub end: u64,
    /// Index of the enclosing span in the returned vector, if any.
    pub parent: Option<usize>,
    /// Whether the closing event was observed (`false`: the trace ended
    /// mid-interval — e.g. a checkpoint never finalized).
    pub closed: bool,
    /// Number of events that contributed to this span.
    pub events: usize,
}

impl Span {
    /// Span duration in nanoseconds.
    pub fn nanos(&self) -> u64 {
        self.end - self.start
    }

    /// Span duration in (virtual) seconds.
    pub fn secs(&self) -> f64 {
        self.nanos() as f64 / 1e9
    }
}

#[derive(Debug, Default)]
struct Window {
    start: u64,
    end: u64,
    events: usize,
    closed: bool,
}

impl Window {
    fn feed(&mut self, at: u64) {
        if self.events == 0 {
            self.start = at;
        }
        self.end = self.end.max(at);
        self.events += 1;
    }
}

/// Derive every span from a time-ordered event stream. The output order
/// is deterministic: rounds ascending by `seq`, each followed by its wave
/// and its checkpoints (ascending by pid) with their storage writes, then
/// outages (ascending by pid, then time).
pub fn derive_spans(recs: &[Rec]) -> Vec<Span> {
    // Pass 1: windows. A round's flag records whether anything but
    // application traffic carried its `seq`.
    let mut rounds: BTreeMap<u64, (Window, bool)> = BTreeMap::new();
    let mut waves: BTreeMap<u64, Window> = BTreeMap::new();
    let mut ckpts: BTreeMap<(u32, u64), Window> = BTreeMap::new();
    let mut writes: BTreeMap<(u32, u64), Vec<Window>> = BTreeMap::new();
    let mut outages: BTreeMap<u32, Vec<Window>> = BTreeMap::new();

    for r in recs {
        match r.kind {
            TraceKind::Crash => {
                let w = outages.entry(r.pid).or_default();
                let mut win = Window::default();
                win.feed(r.at);
                w.push(win);
                continue;
            }
            TraceKind::Recover => {
                if let Some(win) =
                    outages.entry(r.pid).or_default().iter_mut().rev().find(|w| !w.closed)
                {
                    win.feed(r.at);
                    win.closed = true;
                }
                continue;
            }
            _ => {}
        }
        let Some(seq) = r.seq else { continue };
        let (round, protocol) = rounds.entry(seq).or_default();
        round.feed(r.at);
        *protocol |= !matches!(r.kind, TraceKind::AppSend | TraceKind::AppRecv);
        match r.kind {
            TraceKind::CtrlSend | TraceKind::CtrlRecv => waves.entry(seq).or_default().feed(r.at),
            TraceKind::TentativeCkpt => {
                ckpts.entry((r.pid, seq)).or_default().feed(r.at);
            }
            TraceKind::FinalizeCkpt => {
                let w = ckpts.entry((r.pid, seq)).or_default();
                w.feed(r.at);
                w.closed = true;
            }
            TraceKind::StorageStart => {
                let v = writes.entry((r.pid, seq)).or_default();
                let mut win = Window::default();
                win.feed(r.at);
                v.push(win);
            }
            TraceKind::StorageDone => {
                if let Some(win) =
                    writes.entry((r.pid, seq)).or_default().iter_mut().find(|w| !w.closed)
                {
                    win.feed(r.at);
                    win.closed = true;
                }
            }
            _ => {}
        }
    }

    // Checkpoint rounds close when every checkpoint in them closed.
    // Pass 2: assemble with parent indices.
    let mut out = Vec::new();
    for (&seq, (round, _)) in rounds.iter().filter(|(_, (_, protocol))| *protocol) {
        let members: Vec<&Window> =
            ckpts.iter().filter(|((_, s), _)| *s == seq).map(|(_, w)| w).collect();
        let round_idx = out.len();
        out.push(Span {
            kind: SpanKind::Round,
            pid: None,
            seq: Some(seq),
            start: round.start,
            end: round.end,
            parent: None,
            closed: !members.is_empty() && members.iter().all(|w| w.closed),
            events: round.events,
        });
        if let Some(w) = waves.get(&seq) {
            out.push(Span {
                kind: SpanKind::Wave,
                pid: None,
                seq: Some(seq),
                start: w.start,
                end: w.end,
                parent: Some(round_idx),
                closed: true,
                events: w.events,
            });
        }
        for (&(pid, _), w) in ckpts.iter().filter(|((_, s), _)| *s == seq) {
            let ckpt_idx = out.len();
            out.push(Span {
                kind: SpanKind::Checkpoint,
                pid: Some(pid),
                seq: Some(seq),
                start: w.start,
                end: w.end,
                parent: Some(round_idx),
                closed: w.closed,
                events: w.events,
            });
            for win in writes.get(&(pid, seq)).map_or(&[][..], |v| v.as_slice()) {
                out.push(Span {
                    kind: SpanKind::StorageWrite,
                    pid: Some(pid),
                    seq: Some(seq),
                    start: win.start,
                    end: win.end,
                    parent: Some(ckpt_idx),
                    closed: win.closed,
                    events: win.events,
                });
            }
        }
    }
    for (&pid, wins) in &outages {
        for w in wins {
            out.push(Span {
                kind: SpanKind::Outage,
                pid: Some(pid),
                seq: None,
                start: w.start,
                end: w.end,
                parent: None,
                closed: w.closed,
                events: w.events,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use ocpt_sim::TraceKind::*;

    use super::*;

    fn rec(at: u64, pid: u32, kind: TraceKind, seq: Option<u64>) -> Rec {
        Rec { at, pid, kind, code: kind.name().into(), seq, detail: String::new() }
    }

    #[test]
    fn full_round_produces_nested_spans() {
        let recs = vec![
            rec(10, 0, TentativeCkpt, Some(1)),
            rec(12, 0, CtrlSend, Some(1)),
            rec(20, 1, CtrlRecv, Some(1)),
            rec(21, 1, TentativeCkpt, Some(1)),
            rec(30, 0, StorageStart, Some(1)),
            rec(40, 0, StorageDone, Some(1)),
            rec(50, 0, FinalizeCkpt, Some(1)),
            rec(55, 1, FinalizeCkpt, Some(1)),
        ];
        let spans = derive_spans(&recs);
        let round = &spans[0];
        assert_eq!(round.kind, SpanKind::Round);
        assert_eq!((round.start, round.end), (10, 55));
        assert!(round.closed);

        let wave = &spans[1];
        assert_eq!(wave.kind, SpanKind::Wave);
        assert_eq!((wave.start, wave.end), (12, 20));
        assert_eq!(wave.parent, Some(0));

        let c0 = spans.iter().position(|s| s.kind == SpanKind::Checkpoint && s.pid == Some(0));
        let c0 = c0.expect("P0 checkpoint span");
        assert_eq!((spans[c0].start, spans[c0].end), (10, 50));
        let write = spans.iter().find(|s| s.kind == SpanKind::StorageWrite).unwrap();
        assert_eq!((write.start, write.end, write.parent), (30, 40, Some(c0)));
        assert!(write.closed);
        assert!((write.secs() - 1e-8).abs() < 1e-12);
    }

    #[test]
    fn unfinalized_checkpoint_is_open() {
        let recs = vec![rec(5, 0, TentativeCkpt, Some(3))];
        let spans = derive_spans(&recs);
        assert!(!spans[0].closed, "round open");
        let c = spans.iter().find(|s| s.kind == SpanKind::Checkpoint).unwrap();
        assert!(!c.closed);
    }

    #[test]
    fn app_traffic_alone_is_not_a_round() {
        let recs = vec![
            rec(1, 0, AppSend, Some(0)),
            rec(2, 1, AppRecv, Some(0)),
            rec(3, 0, AppSend, Some(2)),
            rec(5, 1, CtrlSend, Some(2)),
        ];
        let spans = derive_spans(&recs);
        let rounds: Vec<&Span> = spans.iter().filter(|s| s.kind == SpanKind::Round).collect();
        assert_eq!(rounds.len(), 1, "seq 0 carried only application traffic");
        // A wave without a finalized checkpoint stays visible as open; the
        // application send tagged with its seq widens its window.
        assert_eq!((rounds[0].seq, rounds[0].start, rounds[0].closed), (Some(2), 3, false));
    }

    #[test]
    fn outages_pair_crash_and_recover() {
        let recs =
            vec![rec(100, 2, Crash, None), rec(200, 2, Recover, None), rec(300, 2, Crash, None)];
        let spans = derive_spans(&recs);
        let outs: Vec<&Span> = spans.iter().filter(|s| s.kind == SpanKind::Outage).collect();
        assert_eq!(outs.len(), 2);
        assert_eq!((outs[0].start, outs[0].end, outs[0].closed), (100, 200, true));
        assert_eq!((outs[1].start, outs[1].end, outs[1].closed), (300, 300, false));
    }

    #[test]
    fn storage_writes_pair_in_order() {
        let recs = vec![
            rec(1, 0, TentativeCkpt, Some(1)),
            rec(2, 0, StorageStart, Some(1)),
            rec(3, 0, StorageStart, Some(1)),
            rec(4, 0, StorageDone, Some(1)),
            rec(9, 0, StorageDone, Some(1)),
        ];
        let spans = derive_spans(&recs);
        let ws: Vec<&Span> = spans.iter().filter(|s| s.kind == SpanKind::StorageWrite).collect();
        assert_eq!(ws.len(), 2);
        assert_eq!((ws[0].start, ws[0].end), (2, 4));
        assert_eq!((ws[1].start, ws[1].end), (3, 9));
    }

    #[test]
    fn empty_stream_yields_no_spans() {
        assert!(derive_spans(&[]).is_empty());
    }
}
