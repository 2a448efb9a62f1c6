//! Execution tracing: the flight recorder's event source.
//!
//! Traces serve three purposes: (1) the paper-figure scenario tests assert
//! on exact event sequences, (2) the examples render a space-time diagram
//! like the paper's Figures 2 and 5 so a human can eyeball a run, and
//! (3) `ocpt-telemetry` derives causal spans and the versioned JSONL
//! export (DESIGN.md §8) from the recorded stream.
//!
//! Every [`TraceEvent`] carries, besides its time/process/kind triple, a
//! stable machine-readable `code` (e.g. `"ctrl.ck_bgn"`) and, when the
//! event belongs to a checkpoint round, that round's sequence number
//! `seq`. The free-form `detail` string is for human eyes only — JSONL
//! consumers key off `kind`/`code`/`seq` and never parse prose.

use std::fmt::Write as _;

use crate::id::ProcessId;
use crate::time::SimTime;

/// Category of a traced occurrence.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TraceKind {
    /// An application message was sent.
    AppSend,
    /// An application message was received and processed.
    AppRecv,
    /// A control message was sent (CK_BGN / CK_REQ / CK_END, markers, …).
    CtrlSend,
    /// A control message was received.
    CtrlRecv,
    /// A tentative checkpoint was taken (state saved optimistically).
    TentativeCkpt,
    /// A checkpoint was finalized (tentative + log flushed / made permanent).
    FinalizeCkpt,
    /// A stable-storage write started.
    StorageStart,
    /// A stable-storage write became durable.
    StorageDone,
    /// The process crashed.
    Crash,
    /// The process restarted and recovered.
    Recover,
    /// Algorithm-specific note. Notes must carry a structured `code`
    /// (use [`Trace::note`]); the detail is auxiliary.
    Note,
}

/// Every kind, in a fixed order (used by summaries and schema docs).
pub const TRACE_KINDS: [TraceKind; 11] = [
    TraceKind::AppSend,
    TraceKind::AppRecv,
    TraceKind::CtrlSend,
    TraceKind::CtrlRecv,
    TraceKind::TentativeCkpt,
    TraceKind::FinalizeCkpt,
    TraceKind::StorageStart,
    TraceKind::StorageDone,
    TraceKind::Crash,
    TraceKind::Recover,
    TraceKind::Note,
];

impl TraceKind {
    fn glyph(self) -> char {
        match self {
            TraceKind::AppSend => '>',
            TraceKind::AppRecv => '<',
            TraceKind::CtrlSend => '}',
            TraceKind::CtrlRecv => '{',
            TraceKind::TentativeCkpt => 'T',
            TraceKind::FinalizeCkpt => 'F',
            TraceKind::StorageStart => 'w',
            TraceKind::StorageDone => 'W',
            TraceKind::Crash => 'X',
            TraceKind::Recover => 'R',
            TraceKind::Note => '*',
        }
    }

    /// The stable schema name of this kind — the `kind` field of every
    /// JSONL trace line. Never rename these: they are part of the
    /// versioned `ocpt-trace` schema (DESIGN.md §8).
    pub const fn name(self) -> &'static str {
        match self {
            TraceKind::AppSend => "app_send",
            TraceKind::AppRecv => "app_recv",
            TraceKind::CtrlSend => "ctrl_send",
            TraceKind::CtrlRecv => "ctrl_recv",
            TraceKind::TentativeCkpt => "tentative_ckpt",
            TraceKind::FinalizeCkpt => "finalize_ckpt",
            TraceKind::StorageStart => "storage_start",
            TraceKind::StorageDone => "storage_done",
            TraceKind::Crash => "crash",
            TraceKind::Recover => "recover",
            TraceKind::Note => "note",
        }
    }

    /// Inverse of [`Self::name`] (used by the JSONL parser and the
    /// `ocpt trace grep --kind` filter).
    pub fn from_name(name: &str) -> Option<TraceKind> {
        Some(match name {
            "app_send" => TraceKind::AppSend,
            "app_recv" => TraceKind::AppRecv,
            "ctrl_send" => TraceKind::CtrlSend,
            "ctrl_recv" => TraceKind::CtrlRecv,
            "tentative_ckpt" => TraceKind::TentativeCkpt,
            "finalize_ckpt" => TraceKind::FinalizeCkpt,
            "storage_start" => TraceKind::StorageStart,
            "storage_done" => TraceKind::StorageDone,
            "crash" => TraceKind::Crash,
            "recover" => TraceKind::Recover,
            "note" => TraceKind::Note,
            _ => return None,
        })
    }

    /// The default event code recorded when the producer has nothing more
    /// specific to say (protocols that expose richer envelopes override
    /// this with e.g. `"ctrl.ck_bgn"`).
    pub const fn default_code(self) -> &'static str {
        match self {
            TraceKind::AppSend => "app.send",
            TraceKind::AppRecv => "app.recv",
            TraceKind::CtrlSend => "ctrl.send",
            TraceKind::CtrlRecv => "ctrl.recv",
            TraceKind::TentativeCkpt => "ckpt.tentative",
            TraceKind::FinalizeCkpt => "ckpt.finalize",
            TraceKind::StorageStart => "storage.start",
            TraceKind::StorageDone => "storage.done",
            TraceKind::Crash => "fault.crash",
            TraceKind::Recover => "fault.recover",
            TraceKind::Note => "note",
        }
    }
}

/// One traced occurrence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// When it happened.
    pub at: SimTime,
    /// Which process it happened on.
    pub pid: ProcessId,
    /// Category.
    pub kind: TraceKind,
    /// Stable machine-readable code within the kind (e.g.
    /// `"ctrl.ck_bgn"`, `"recovery.resend"`). Schema field `code`.
    pub code: &'static str,
    /// Checkpoint sequence number (csn) this event belongs to, when it
    /// belongs to one. Schema field `seq` (omitted when `None`).
    pub seq: Option<u64>,
    /// Free-form human-oriented detail (message names, byte counts, …).
    /// Never parsed by tooling.
    pub detail: String,
}

/// An append-only trace. Disabled traces cost one branch per record call.
#[derive(Debug, Default)]
pub struct Trace {
    enabled: bool,
    events: Vec<TraceEvent>,
}

impl Trace {
    /// A recording trace.
    pub fn enabled() -> Self {
        Trace { enabled: true, events: Vec::new() }
    }

    /// A trace that drops everything (for large benchmark runs).
    pub fn disabled() -> Self {
        Trace { enabled: false, events: Vec::new() }
    }

    /// Whether recording is on.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Record one occurrence with the kind's default code and no sequence
    /// number (no-op when disabled).
    pub fn record(
        &mut self,
        at: SimTime,
        pid: ProcessId,
        kind: TraceKind,
        detail: impl Into<String>,
    ) {
        self.record_coded(at, pid, kind, kind.default_code(), None, detail);
    }

    /// Record one occurrence belonging to checkpoint round `seq`.
    pub fn record_seq(
        &mut self,
        at: SimTime,
        pid: ProcessId,
        kind: TraceKind,
        seq: u64,
        detail: impl Into<String>,
    ) {
        self.record_coded(at, pid, kind, kind.default_code(), Some(seq), detail);
    }

    /// Record one fully-specified occurrence (no-op when disabled). This
    /// is the only path that appends; the other `record*` methods and
    /// [`Self::note`] delegate here.
    pub fn record_coded(
        &mut self,
        at: SimTime,
        pid: ProcessId,
        kind: TraceKind,
        code: &'static str,
        seq: Option<u64>,
        detail: impl Into<String>,
    ) {
        if self.enabled {
            self.events.push(TraceEvent { at, pid, kind, code, seq, detail: detail.into() });
        }
    }

    /// Lazy variant of [`Self::record`]: the detail closure runs only
    /// when recording is on, so hot paths never pay for `format!` of a
    /// detail string that a disabled trace would drop. (Benchmark and
    /// experiment runs disable tracing; this keeps their dispatch loop
    /// allocation-free.)
    #[inline]
    pub fn record_with(
        &mut self,
        at: SimTime,
        pid: ProcessId,
        kind: TraceKind,
        detail: impl FnOnce() -> String,
    ) {
        if self.enabled {
            self.record_coded(at, pid, kind, kind.default_code(), None, detail());
        }
    }

    /// Lazy variant of [`Self::record_seq`] (see [`Self::record_with`]).
    #[inline]
    pub fn record_seq_with(
        &mut self,
        at: SimTime,
        pid: ProcessId,
        kind: TraceKind,
        seq: u64,
        detail: impl FnOnce() -> String,
    ) {
        if self.enabled {
            self.record_coded(at, pid, kind, kind.default_code(), Some(seq), detail());
        }
    }

    /// Lazy variant of [`Self::record_coded`] (see [`Self::record_with`]).
    #[inline]
    pub fn record_coded_with(
        &mut self,
        at: SimTime,
        pid: ProcessId,
        kind: TraceKind,
        code: &'static str,
        seq: Option<u64>,
        detail: impl FnOnce() -> String,
    ) {
        if self.enabled {
            self.record_coded(at, pid, kind, code, seq, detail());
        }
    }

    /// Record an algorithm-specific note. Notes are structured: `code` is
    /// the stable machine-readable label (`"recovery.rollback"`, …) and
    /// `detail` is auxiliary prose that consumers never parse.
    pub fn note(
        &mut self,
        at: SimTime,
        pid: ProcessId,
        code: &'static str,
        detail: impl Into<String>,
    ) {
        self.record_coded(at, pid, TraceKind::Note, code, None, detail);
    }

    /// All recorded events, in record order (which is time order, since the
    /// simulator records as it dispatches).
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Events on one process.
    pub fn for_process(&self, pid: ProcessId) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(move |e| e.pid == pid)
    }

    /// Events of one kind.
    pub fn of_kind(&self, kind: TraceKind) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(move |e| e.kind == kind)
    }

    /// Render a compact ASCII space-time diagram: one row per process, one
    /// column per recorded event (columns are globally time-ordered). This
    /// intentionally mirrors the look of the paper's Figures 2 and 5.
    pub fn ascii_diagram(&self, n: usize) -> String {
        let cols = self.events.len();
        let mut rows = vec![vec!['-'; cols]; n];
        for (c, e) in self.events.iter().enumerate() {
            if e.pid.index() < n {
                rows[e.pid.index()][c] = e.kind.glyph();
            }
        }
        let mut out = String::new();
        for (i, row) in rows.iter().enumerate() {
            let _ = write!(out, "P{i:<3}|");
            out.extend(row.iter());
            out.push('\n');
        }
        let _ = writeln!(
            out,
            "legend: > send  < recv  }} ctrl-send  {{ ctrl-recv  T tentative  F finalize  w flush-start  W durable  X crash  R recover"
        );
        out
    }

    /// Render a proper space-time diagram as an SVG document: one
    /// horizontal lifeline per process, events as glyphs placed at their
    /// true (virtual) times — the publishable version of the paper's
    /// Figures 2 and 5.
    pub fn to_svg(&self, n: usize) -> String {
        const ROW_H: f64 = 42.0;
        const LEFT: f64 = 56.0;
        const WIDTH: f64 = 960.0;
        const TOP: f64 = 28.0;
        let t_max = self.events.iter().map(|e| e.at.as_nanos()).max().unwrap_or(1).max(1);
        let x = |t: SimTime| LEFT + (WIDTH - LEFT - 20.0) * t.as_nanos() as f64 / t_max as f64;
        let y = |p: ProcessId| TOP + ROW_H * p.index() as f64 + ROW_H / 2.0;
        let height = TOP + ROW_H * n as f64 + 34.0;
        let mut s = String::new();
        let _ = write!(
            s,
            r#"<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{height}" font-family="monospace" font-size="11">"#
        );
        let _ = write!(s, r#"<rect width="100%" height="100%" fill="white"/>"#);
        for p in (0..n).map(|i| ProcessId(i as u32)) {
            let yy = y(p);
            let _ = write!(
                s,
                r##"<line x1="{LEFT}" y1="{yy}" x2="{}" y2="{yy}" stroke="#888"/><text x="8" y="{}">{p}</text>"##,
                WIDTH - 16.0,
                yy + 4.0
            );
        }
        for e in &self.events {
            if e.pid.index() >= n {
                continue;
            }
            let (color, r) = match e.kind {
                TraceKind::TentativeCkpt => ("#e8a33d", 6.0),
                TraceKind::FinalizeCkpt => ("#2e7d32", 6.0),
                TraceKind::StorageStart | TraceKind::StorageDone => ("#7b1fa2", 3.5),
                TraceKind::CtrlSend | TraceKind::CtrlRecv => ("#c62828", 3.0),
                TraceKind::Crash => ("#000000", 7.0),
                TraceKind::Recover => ("#1565c0", 7.0),
                _ => ("#90a4ae", 2.0),
            };
            let _ = write!(
                s,
                r#"<circle cx="{:.1}" cy="{:.1}" r="{r}" fill="{color}"><title>{} {} {} {}</title></circle>"#,
                x(e.at),
                y(e.pid),
                e.at,
                e.pid,
                e.code,
                svg_escape(&e.detail),
            );
        }
        let _ = write!(
            s,
            r#"<text x="{LEFT}" y="{}">orange=tentative green=finalize purple=storage red=control grey=app  t∈[0,{}]</text>"#,
            height - 12.0,
            SimTime::from_nanos(t_max)
        );
        s.push_str("</svg>");
        s
    }

    /// A line-per-event textual log (stable format, used in tests/examples).
    pub fn render_log(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            let seq = e.seq.map(|s| format!("#{s}")).unwrap_or_default();
            let _ = writeln!(
                out,
                "{:>12}  {:<4} {:<16} {}{} {}",
                e.at.to_string(),
                e.pid.to_string(),
                e.code,
                e.kind.name(),
                seq,
                e.detail
            );
        }
        out
    }
}

fn svg_escape(s: &str) -> String {
    s.replace('&', "&amp;").replace('<', "&lt;").replace('>', "&gt;")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn svg_contains_lifelines_and_events() {
        let mut t = Trace::enabled();
        t.record_seq(SimTime::from_millis(1), ProcessId(0), TraceKind::TentativeCkpt, 1, "CT(1)");
        t.record_seq(SimTime::from_millis(2), ProcessId(1), TraceKind::FinalizeCkpt, 1, "C(1)");
        t.record(SimTime::from_millis(3), ProcessId(1), TraceKind::AppSend, "M<1>&x");
        let svg = t.to_svg(2);
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>"));
        assert_eq!(svg.matches("<line").count(), 2, "one lifeline per process");
        assert_eq!(svg.matches("<circle").count(), 3);
        assert!(svg.contains("M&lt;1&gt;&amp;x"), "detail must be escaped");
    }

    #[test]
    fn svg_of_empty_trace_is_valid() {
        let t = Trace::enabled();
        let svg = t.to_svg(3);
        assert!(svg.starts_with("<svg") && svg.ends_with("</svg>"));
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::disabled();
        t.record(SimTime::ZERO, ProcessId(0), TraceKind::AppSend, "M1");
        t.note(SimTime::ZERO, ProcessId(0), "x", "y");
        assert!(t.events().is_empty());
        assert!(!t.is_enabled());
    }

    #[test]
    fn enabled_trace_records_in_order() {
        let mut t = Trace::enabled();
        t.record(SimTime::from_nanos(1), ProcessId(0), TraceKind::AppSend, "M1");
        t.record(SimTime::from_nanos(2), ProcessId(1), TraceKind::AppRecv, "M1");
        assert_eq!(t.events().len(), 2);
        assert_eq!(t.events()[1].detail, "M1");
        assert_eq!(t.events()[0].code, "app.send");
        assert_eq!(t.events()[0].seq, None);
        assert_eq!(t.for_process(ProcessId(1)).count(), 1);
        assert_eq!(t.of_kind(TraceKind::AppSend).count(), 1);
    }

    #[test]
    fn record_seq_and_coded_carry_structure() {
        let mut t = Trace::enabled();
        t.record_seq(SimTime::from_nanos(5), ProcessId(2), TraceKind::TentativeCkpt, 7, "CT(7)");
        t.record_coded(
            SimTime::from_nanos(6),
            ProcessId(2),
            TraceKind::CtrlSend,
            "ctrl.ck_bgn",
            Some(7),
            "-> P0",
        );
        assert_eq!(t.events()[0].seq, Some(7));
        assert_eq!(t.events()[0].code, "ckpt.tentative");
        assert_eq!(t.events()[1].code, "ctrl.ck_bgn");
    }

    #[test]
    fn notes_are_structured() {
        let mut t = Trace::enabled();
        t.note(SimTime::from_millis(5), ProcessId(2), "recovery.rollback", "to S_3");
        let e = &t.events()[0];
        assert_eq!(e.kind, TraceKind::Note);
        assert_eq!(e.code, "recovery.rollback");
        assert_eq!(e.detail, "to S_3");
    }

    #[test]
    fn kind_names_round_trip() {
        for k in TRACE_KINDS {
            assert_eq!(TraceKind::from_name(k.name()), Some(k), "{}", k.name());
        }
        assert_eq!(TraceKind::from_name("nope"), None);
    }

    #[test]
    fn ascii_diagram_shape() {
        let mut t = Trace::enabled();
        t.record_seq(SimTime::from_nanos(1), ProcessId(0), TraceKind::TentativeCkpt, 1, "CT01");
        t.record_seq(SimTime::from_nanos(2), ProcessId(1), TraceKind::FinalizeCkpt, 1, "C11");
        let d = t.ascii_diagram(2);
        let lines: Vec<&str> = d.lines().collect();
        assert!(lines[0].starts_with("P0"));
        assert!(lines[0].contains('T'));
        assert!(lines[1].contains('F'));
    }

    #[test]
    fn render_log_contains_details() {
        let mut t = Trace::enabled();
        t.note(SimTime::from_millis(5), ProcessId(2), "hello.code", "hello");
        let log = t.render_log();
        assert!(log.contains("P2"));
        assert!(log.contains("hello.code"));
        assert!(log.contains("hello"));
    }
}
