//! Analysis over parsed traces: `summary`, `diff`, `grep`.
//!
//! These are the library halves of the `ocpt trace` subcommand; they are
//! kept here (not in the CLI crate) so tests and other tools can call
//! them directly on [`TraceFile`]s.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use ocpt_sim::{TraceKind, TRACE_KINDS};

use crate::record::{Rec, TraceFile};
use crate::span::{derive_spans, SpanKind};

fn fmt_time(nanos: u64) -> String {
    format!("{:.6}s", nanos as f64 / 1e9)
}

/// One line of human-readable rendering for an event (used by `grep`,
/// `diff` context, and tests; stable format).
pub fn render_rec(r: &Rec) -> String {
    let seq = r.seq.map(|s| format!("#{s}")).unwrap_or_default();
    let kind = r.kind.name();
    format!("{:>12} P{:<3} {:<16} {kind}{seq} {}", fmt_time(r.at), r.pid, r.code, r.detail)
}

fn span_stats(out: &mut String, label: &str, secs: &[f64]) {
    if secs.is_empty() {
        let _ = writeln!(out, "  {label}: none");
        return;
    }
    let sum: f64 = secs.iter().sum();
    let max = secs.iter().cloned().fold(f64::MIN, f64::max);
    let _ = writeln!(
        out,
        "  {label}: {} (mean {:.6}s, max {:.6}s)",
        secs.len(),
        sum / secs.len() as f64,
        max
    );
}

/// Render a per-kind / per-process / per-span summary of a trace.
pub fn summary(f: &TraceFile) -> String {
    let mut out = String::new();
    let horizon = f.recs.last().map_or(0, |r| r.at);
    let _ = writeln!(
        out,
        "trace: algo={} n={} seed={} events={} span=[0, {}]",
        f.meta.algo,
        f.meta.n,
        f.meta.seed,
        f.recs.len(),
        fmt_time(horizon)
    );

    let _ = writeln!(out, "events by kind:");
    let mut by_kind = [0u64; TRACE_KINDS.len()];
    for r in &f.recs {
        by_kind[r.kind as usize] += 1;
    }
    // Fixed kind order (not alphabetical): reads like the lifecycle.
    for k in TRACE_KINDS {
        let c = by_kind[k as usize];
        if c > 0 {
            let _ = writeln!(out, "  {:<16} {c}", k.name());
        }
    }

    let _ = writeln!(out, "events by process:");
    let mut by_pid: BTreeMap<u32, u64> = BTreeMap::new();
    for r in &f.recs {
        *by_pid.entry(r.pid).or_default() += 1;
    }
    for (pid, c) in &by_pid {
        let _ = writeln!(out, "  P{pid:<4} {c}");
    }

    let spans = derive_spans(&f.recs);
    let closed_secs = |kind: SpanKind| -> Vec<f64> {
        spans.iter().filter(|s| s.kind == kind && s.closed).map(|s| s.secs()).collect()
    };
    let _ = writeln!(out, "spans:");
    span_stats(&mut out, "rounds (complete)", &closed_secs(SpanKind::Round));
    span_stats(&mut out, "control waves", &closed_secs(SpanKind::Wave));
    span_stats(&mut out, "checkpoints (finalized)", &closed_secs(SpanKind::Checkpoint));
    span_stats(&mut out, "storage writes", &closed_secs(SpanKind::StorageWrite));
    span_stats(&mut out, "outages", &closed_secs(SpanKind::Outage));
    let open = spans.iter().filter(|s| !s.closed).count();
    if open > 0 {
        let _ = writeln!(out, "  open at end of trace: {open}");
    }
    out
}

/// Result of comparing two traces.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DiffReport {
    /// Headers and every event agree.
    Identical,
    /// The headers disagree (different run provenance); events were not
    /// compared.
    MetaDiffers(String),
    /// The event streams diverge.
    Diverged {
        /// Index (0-based, into the event list) of the first divergence.
        index: usize,
        /// Rendered context: the last `context` common events, then the
        /// two sides of the divergence.
        rendering: String,
    },
}

impl DiffReport {
    /// True when the traces were byte-equivalent.
    pub fn is_identical(&self) -> bool {
        matches!(self, DiffReport::Identical)
    }
}

/// Compare two traces event-by-event; on divergence, show the last
/// `context` common events and both sides' next events.
pub fn diff(a: &TraceFile, b: &TraceFile, context: usize) -> DiffReport {
    if a.meta != b.meta {
        return DiffReport::MetaDiffers(format!(
            "headers differ: algo={} n={} seed={}  vs  algo={} n={} seed={}",
            a.meta.algo, a.meta.n, a.meta.seed, b.meta.algo, b.meta.n, b.meta.seed
        ));
    }
    let common = a.recs.iter().zip(&b.recs).take_while(|(x, y)| x == y).count();
    if common == a.recs.len() && common == b.recs.len() {
        return DiffReport::Identical;
    }
    let mut out = String::new();
    let _ = writeln!(out, "first divergence at event {common}:");
    let from = common.saturating_sub(context);
    for r in &a.recs[from..common] {
        let _ = writeln!(out, "    {}", render_rec(r));
    }
    match a.recs.get(common) {
        Some(r) => {
            let _ = writeln!(out, "  A {}", render_rec(r));
        }
        None => {
            let _ = writeln!(out, "  A <end of trace: {} events>", a.recs.len());
        }
    }
    match b.recs.get(common) {
        Some(r) => {
            let _ = writeln!(out, "  B {}", render_rec(r));
        }
        None => {
            let _ = writeln!(out, "  B <end of trace: {} events>", b.recs.len());
        }
    }
    DiffReport::Diverged { index: common, rendering: out }
}

/// Event filter for [`grep`]. Unset fields match everything.
#[derive(Clone, Debug, Default)]
pub struct GrepFilter {
    /// Only events on this process.
    pub pid: Option<u32>,
    /// Only events of this kind.
    pub kind: Option<TraceKind>,
    /// Only events whose code starts with this prefix (e.g. `"ctrl."`).
    pub code_prefix: Option<String>,
    /// Only events at or after this virtual time (nanoseconds).
    pub from_nanos: Option<u64>,
    /// Only events strictly before this virtual time (nanoseconds).
    pub to_nanos: Option<u64>,
}

impl GrepFilter {
    /// Does `r` pass this filter?
    pub fn matches(&self, r: &Rec) -> bool {
        self.pid.map_or(true, |p| r.pid == p)
            && self.kind.map_or(true, |k| r.kind == k)
            && self.code_prefix.as_deref().map_or(true, |c| r.code.starts_with(c))
            && self.from_nanos.map_or(true, |t| r.at >= t)
            && self.to_nanos.map_or(true, |t| r.at < t)
    }
}

/// Select the events of `f` that pass `filter`, in stream order.
pub fn grep<'a>(f: &'a TraceFile, filter: &GrepFilter) -> Vec<&'a Rec> {
    f.recs.iter().filter(|r| filter.matches(r)).collect()
}

#[cfg(test)]
mod tests {
    use ocpt_sim::TraceKind::*;

    use crate::record::TraceMeta;

    use super::*;

    fn rec(at: u64, pid: u32, kind: TraceKind, code: &str, seq: Option<u64>) -> Rec {
        Rec { at, pid, kind, code: code.into(), seq, detail: "d".into() }
    }

    fn file(recs: Vec<Rec>) -> TraceFile {
        TraceFile { meta: TraceMeta { algo: "ocpt".into(), n: 2, seed: 1 }, recs }
    }

    fn sample() -> TraceFile {
        file(vec![
            rec(1_000, 0, TentativeCkpt, "ckpt.tentative", Some(1)),
            rec(2_000, 0, CtrlSend, "ctrl.ck_bgn", Some(1)),
            rec(3_000, 1, CtrlRecv, "ctrl.ck_bgn", Some(1)),
            rec(4_000, 1, FinalizeCkpt, "ckpt.finalize", Some(1)),
            rec(5_000, 0, FinalizeCkpt, "ckpt.finalize", Some(1)),
        ])
    }

    #[test]
    fn summary_counts_and_spans() {
        let s = summary(&sample());
        assert!(s.contains("algo=ocpt n=2 seed=1 events=5"));
        assert!(s.contains("finalize_ckpt    2"));
        assert!(s.contains("P0    3"));
        assert!(s.contains("rounds (complete): 1"));
        assert!(s.contains("control waves: 1"));
    }

    #[test]
    fn diff_detects_perturbation() {
        let a = sample();
        let mut b = sample();
        b.recs[2].at += 1;
        match diff(&a, &b, 2) {
            DiffReport::Diverged { index, rendering } => {
                assert_eq!(index, 2);
                assert!(rendering.contains("A "));
                assert!(rendering.contains("B "));
                assert!(rendering.contains("ctrl.ck_bgn"));
            }
            other => panic!("expected divergence, got {other:?}"),
        }
        assert_eq!(diff(&a, &sample(), 2), DiffReport::Identical);
    }

    #[test]
    fn diff_handles_truncation_and_meta() {
        let a = sample();
        let mut b = sample();
        b.recs.pop();
        match diff(&a, &b, 1) {
            DiffReport::Diverged { index, rendering } => {
                assert_eq!(index, 4);
                assert!(rendering.contains("<end of trace: 4 events>"));
            }
            other => panic!("{other:?}"),
        }
        let mut c = sample();
        c.meta.seed = 9;
        assert!(matches!(diff(&a, &c, 1), DiffReport::MetaDiffers(_)));
    }

    #[test]
    fn grep_filters_compose() {
        let f = sample();
        let all = grep(&f, &GrepFilter::default());
        assert_eq!(all.len(), 5);
        let ctrl =
            grep(&f, &GrepFilter { code_prefix: Some("ctrl.".into()), ..GrepFilter::default() });
        assert_eq!(ctrl.len(), 2);
        let windowed = grep(
            &f,
            &GrepFilter {
                pid: Some(0),
                from_nanos: Some(2_000),
                to_nanos: Some(5_000),
                ..GrepFilter::default()
            },
        );
        assert_eq!(windowed.len(), 1);
        assert_eq!(windowed[0].kind, CtrlSend);
        let kinded = grep(&f, &GrepFilter { kind: Some(FinalizeCkpt), ..GrepFilter::default() });
        assert_eq!(kinded.len(), 2);
    }

    #[test]
    fn render_is_stable() {
        let r = rec(2_000, 3, Note, "recovery.line", None);
        assert_eq!(render_rec(&r), "   0.000002s P3   recovery.line    note d");
    }
}
