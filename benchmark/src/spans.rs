//! In-memory spans around calls into the program's public API.
//!
//! The traced pass wraps every call the benchmark makes into a layer in a
//! span (name, start, end, the span that caused it); the untraced pass
//! uses a recorder that is switched off and records nothing. Spans stay in
//! memory and are written out once, when the benchmark ends.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `harness.run`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Self time of span `i`: its duration minus the part its direct children
/// cover.
pub fn self_ns(spans: &[Span], i: usize) -> u64 {
    let children: u64 = spans.iter().filter(|s| s.parent == Some(i)).map(Span::nanos).sum();
    spans[i].nanos().saturating_sub(children)
}

/// Span recorder; a switched-off recorder runs the closures and keeps
/// nothing.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder that keeps spans (traced pass).
    pub fn on() -> Self {
        Recorder { origin: Instant::now(), enabled: true, spans: Vec::new(), open: Vec::new() }
    }

    /// A recorder that keeps nothing (untraced pass).
    pub fn off() -> Self {
        Recorder { enabled: false, ..Recorder::on() }
    }

    /// Run `f` inside a span called `name`. Nested calls become children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Everything recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total seconds spent in spans called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans.iter().filter(|s| s.name == name).map(Span::nanos).sum::<u64>() as f64 * 1e-9
    }

    /// Write every span as one JSON object per line:
    /// `{name, start_ns, end_ns, parent, self_ns, workload}`.
    pub fn write_jsonl(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"self_ns\":{},\"workload\":\"{}\"}}",
                s.name,
                s.start_ns,
                s.end_ns,
                parent,
                self_ns(&self.spans, i),
                workload
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 50, 90, Some(0)),
            span("a.inner", 15, 25, Some(1)),
        ];
        assert_eq!(self_ns(&spans, 0), 100 - 30 - 40);
        assert_eq!(self_ns(&spans, 1), 30 - 10, "grandchildren count against their parent only");
        assert_eq!(self_ns(&spans, 2), 40);
        assert_eq!(self_ns(&spans, 3), 10);
    }

    #[test]
    fn nesting_records_parents_and_off_records_nothing() {
        let mut rec = Recorder::on();
        let v = rec.span("outer", |r| r.span("inner", |_| 7));
        assert_eq!(v, 7);
        let s = rec.spans();
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].name, s[0].parent), ("outer", None));
        assert_eq!((s[1].name, s[1].parent), ("inner", Some(0)));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert!(rec.total_s("inner") <= rec.total_s("outer"));

        let mut off = Recorder::off();
        assert_eq!(off.span("outer", |r| r.span("inner", |_| 7)), 7);
        assert!(off.spans().is_empty());
    }
}
