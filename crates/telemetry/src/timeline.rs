//! Sim-time metric timelines folded out of a recorded trace.
//!
//! The flight recorder captures *events*; this module turns them into
//! *series* — piecewise-constant gauges sampled on a fixed bucket grid so
//! any two runs (or the same run under different `--jobs` / scheduler
//! kernels) can be compared bucket by bucket. Everything here derives
//! from the structured fields only (`at` / `pid` / `kind` / `code` /
//! `seq`); the free-form `detail` string is never parsed, per the schema
//! contract in `DESIGN.md` §8.
//!
//! Bucketing rule: the horizon `[0, last event]` is divided into
//! `buckets` equal windows of `ceil(horizon / buckets)` nanoseconds (one
//! nanosecond minimum). Each gauge series is sampled at every bucket's
//! *end* instant; the `events` series instead counts the events whose
//! timestamp falls inside the bucket (rate, not gauge). Both are pure
//! functions of the trace bytes, so the rendering and the JSON are
//! byte-identical whenever the traces are.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use ocpt_metrics::StepSeries;
use ocpt_sim::TraceKind;

use crate::json::Obj;
use crate::record::TraceFile;

/// Schema name stamped into [`Timeline::to_json`].
pub const TIMELINE_SCHEMA: &str = "ocpt-timeline";
/// Schema version stamped into [`Timeline::to_json`].
pub const TIMELINE_VERSION: u64 = 1;

/// Default bucket count for the CLI rendering.
pub const DEFAULT_BUCKETS: usize = 60;

/// One named series sampled on the bucket grid.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SeriesRow {
    /// Stable series name (see [`timeline`] for the catalogue).
    pub name: &'static str,
    /// One sample per bucket (gauge value at bucket end, or event count
    /// within the bucket for the `events` series).
    pub values: Vec<i64>,
    /// Largest instantaneous value the underlying series ever reached
    /// (may exceed every sample: peaks between sample points count).
    pub peak: i64,
}

/// A trace folded into fixed-bucket series.
#[derive(Clone, Debug, PartialEq)]
pub struct Timeline {
    /// Algorithm name from the trace header.
    pub algo: String,
    /// Process count from the trace header.
    pub n: usize,
    /// Seed from the trace header.
    pub seed: u64,
    /// Bucket width, nanoseconds of virtual time.
    pub bucket_ns: u64,
    /// Timestamp of the last event (the sampled horizon).
    pub horizon_ns: u64,
    /// The series, in fixed catalogue order.
    pub series: Vec<SeriesRow>,
}

/// Sample a [`StepSeries`] at the end instant of each of `buckets`
/// windows of `bucket_ns` (gauge semantics: the value in force at that
/// instant).
fn sample(s: &StepSeries, buckets: usize, bucket_ns: u64) -> Vec<i64> {
    let pts = s.points();
    let mut out = Vec::with_capacity(buckets);
    let mut i = 0usize;
    let mut current = 0i64;
    for b in 0..buckets {
        let t = (b as u64 + 1).saturating_mul(bucket_ns);
        while i < pts.len() && pts[i].0 <= t {
            current = pts[i].1;
            i += 1;
        }
        out.push(current);
    }
    out
}

/// Fold a parsed trace into its timeline. The series catalogue, in
/// output order:
///
/// * `events` — events recorded per bucket (activity rate);
/// * `in_flight_app` — application messages sent but not yet received;
/// * `in_flight_ctrl` — control messages sent but not yet received;
/// * `tentative_open` — tentative checkpoints not yet finalized;
/// * `storage_active` — stable-storage writes in progress;
/// * `durable_writes` — cumulative completed stable-storage writes;
/// * `wave_depth` — control waves concurrently open (a round's wave
///   opens at its first control event and closes at its last);
/// * `down` — processes currently crashed.
pub fn timeline(f: &TraceFile, buckets: usize) -> Timeline {
    let buckets = buckets.max(1);
    let horizon_ns = f.recs.last().map_or(0, |r| r.at);
    let bucket_ns =
        (horizon_ns / buckets as u64 + u64::from(horizon_ns % buckets as u64 != 0)).max(1);

    let mut events = vec![0i64; buckets];
    let mut in_flight_app = StepSeries::new();
    let mut in_flight_ctrl = StepSeries::new();
    let mut tentative_open = StepSeries::new();
    let mut storage_active = StepSeries::new();
    let mut durable_writes = StepSeries::new();
    let mut down = StepSeries::new();
    // Wave windows first (a wave's depth contribution spans first → last
    // control event of its round, which needs a full pass to know).
    let mut waves: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    for r in &f.recs {
        if matches!(r.kind, TraceKind::CtrlSend | TraceKind::CtrlRecv) {
            if let Some(seq) = r.seq {
                let w = waves.entry(seq).or_insert((r.at, r.at));
                w.1 = w.1.max(r.at);
            }
        }
    }

    for r in &f.recs {
        let b = ((r.at / bucket_ns) as usize).min(buckets - 1);
        events[b] += 1;
        match r.kind {
            TraceKind::AppSend => in_flight_app.add(r.at, 1),
            TraceKind::AppRecv => in_flight_app.add(r.at, -1),
            TraceKind::CtrlSend => in_flight_ctrl.add(r.at, 1),
            TraceKind::CtrlRecv => in_flight_ctrl.add(r.at, -1),
            TraceKind::TentativeCkpt => tentative_open.add(r.at, 1),
            TraceKind::FinalizeCkpt => tentative_open.add(r.at, -1),
            TraceKind::StorageStart => storage_active.add(r.at, 1),
            TraceKind::StorageDone => {
                storage_active.add(r.at, -1);
                durable_writes.add(r.at, 1);
            }
            TraceKind::Crash => down.add(r.at, 1),
            TraceKind::Recover => down.add(r.at, -1),
            TraceKind::Note => {}
        }
    }
    let mut wave_depth = StepSeries::new();
    let mut edges: Vec<(u64, i64)> = Vec::with_capacity(waves.len() * 2);
    for (start, end) in waves.values() {
        edges.push((*start, 1));
        edges.push((*end, -1));
    }
    edges.sort_unstable();
    for (t, d) in edges {
        wave_depth.add(t, d);
    }

    let events_peak = events.iter().copied().max().unwrap_or(0);
    let gauge = |name: &'static str, s: &StepSeries| SeriesRow {
        name,
        values: sample(s, buckets, bucket_ns),
        peak: s.peak(),
    };
    Timeline {
        algo: f.meta.algo.clone(),
        n: f.meta.n,
        seed: f.meta.seed,
        bucket_ns,
        horizon_ns,
        series: vec![
            SeriesRow { name: "events", values: events, peak: events_peak },
            gauge("in_flight_app", &in_flight_app),
            gauge("in_flight_ctrl", &in_flight_ctrl),
            gauge("tentative_open", &tentative_open),
            gauge("storage_active", &storage_active),
            gauge("durable_writes", &durable_writes),
            gauge("wave_depth", &wave_depth),
            gauge("down", &down),
        ],
    }
}

/// Scale a sample against the row peak into one of ten glyph levels.
fn glyph(v: i64, peak: i64) -> char {
    const LEVELS: [char; 9] = ['.', ':', '-', '=', '+', 'x', 'X', '#', '@'];
    if v <= 0 || peak <= 0 {
        return ' ';
    }
    let idx = ((v as f64 / peak as f64) * LEVELS.len() as f64).ceil() as usize;
    LEVELS[idx.clamp(1, LEVELS.len()) - 1]
}

impl Timeline {
    /// Human rendering: one sparkline row per series against its own
    /// peak, plus the bucket geometry. Deterministic text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "timeline: algo={} n={} seed={} horizon={:.6}s bucket={:.6}s",
            self.algo,
            self.n,
            self.seed,
            self.horizon_ns as f64 / 1e9,
            self.bucket_ns as f64 / 1e9,
        );
        let _ = writeln!(out, "scale: each row is scaled to its own peak ('@' = peak, ' ' = 0)");
        for row in &self.series {
            let line: String = row.values.iter().map(|&v| glyph(v, row.peak)).collect();
            let _ = writeln!(out, "  {:<16} |{line}| peak {}", row.name, row.peak);
        }
        out
    }

    /// The versioned `ocpt-timeline` v1 JSON object (one line). Samples
    /// are packed as a space-separated string per series, keeping the
    /// document inside the schema subset `json::parse_object` accepts
    /// (no arrays).
    pub fn to_json(&self) -> String {
        let mut o = Obj::new()
            .str("schema", TIMELINE_SCHEMA)
            .u64("version", TIMELINE_VERSION)
            .str("algo", &self.algo)
            .u64("n", self.n as u64)
            .u64("seed", self.seed)
            .u64("horizon_ns", self.horizon_ns)
            .u64("bucket_ns", self.bucket_ns)
            .u64("buckets", self.series.first().map_or(0, |s| s.values.len()) as u64);
        for row in &self.series {
            let mut packed = String::new();
            for (i, v) in row.values.iter().enumerate() {
                if i > 0 {
                    packed.push(' ');
                }
                let _ = write!(packed, "{v}");
            }
            let series =
                Obj::new().u64("peak", row.peak.max(0) as u64).str("samples", &packed).finish();
            o = o.raw(row.name, &series);
        }
        o.finish() + "\n"
    }
}

#[cfg(test)]
mod tests {
    use ocpt_sim::TraceKind::*;

    use crate::record::{Rec, TraceMeta};

    use super::*;

    fn rec(at: u64, pid: u32, kind: TraceKind, seq: Option<u64>) -> Rec {
        Rec { at, pid, kind, code: kind.name().into(), seq, detail: String::new() }
    }

    fn file(recs: Vec<Rec>) -> TraceFile {
        TraceFile { meta: TraceMeta { algo: "ocpt".into(), n: 2, seed: 7 }, recs }
    }

    #[test]
    fn gauges_follow_sends_and_receives() {
        let f = file(vec![
            rec(0, 0, AppSend, None),
            rec(10, 0, AppSend, None),
            rec(50, 1, AppRecv, None),
            rec(100, 1, AppRecv, None),
        ]);
        let t = timeline(&f, 10);
        assert_eq!(t.bucket_ns, 10);
        let app = &t.series[1];
        assert_eq!(app.name, "in_flight_app");
        assert_eq!(app.peak, 2);
        // Bucket ends at 10,20,...,100: two in flight until t=50, one
        // until t=100, zero at the horizon.
        assert_eq!(app.values[0], 2);
        assert_eq!(app.values[4], 1);
        assert_eq!(app.values[9], 0);
        let ev = &t.series[0];
        assert_eq!(ev.values.iter().sum::<i64>(), 4);
    }

    #[test]
    fn wave_depth_spans_first_to_last_ctrl_event() {
        let f = file(vec![
            rec(0, 0, TentativeCkpt, Some(1)),
            rec(10, 0, CtrlSend, Some(1)),
            rec(30, 1, CtrlRecv, Some(1)),
            rec(90, 0, FinalizeCkpt, Some(1)),
            rec(100, 1, FinalizeCkpt, Some(1)),
        ]);
        let t = timeline(&f, 10);
        let wave = t.series.iter().find(|s| s.name == "wave_depth").unwrap();
        assert_eq!(wave.peak, 1);
        assert_eq!(wave.values[1], 1, "open inside [10, 30)");
        assert_eq!(wave.values[4], 0, "closed after the last ctrl event");
    }

    #[test]
    fn empty_trace_folds_to_flat_zeroes() {
        let t = timeline(&file(vec![]), 5);
        assert_eq!(t.horizon_ns, 0);
        assert_eq!(t.bucket_ns, 1);
        for row in &t.series {
            assert_eq!(row.values.len(), 5);
            assert!(row.values.iter().all(|&v| v == 0), "{}", row.name);
        }
        assert!(t.render().contains("timeline: algo=ocpt"));
    }

    #[test]
    fn json_is_versioned_and_parseable() {
        let f = file(vec![rec(5, 0, AppSend, None), rec(9, 1, AppRecv, None)]);
        let j = timeline(&f, 4).to_json();
        assert!(j.starts_with("{\"schema\":\"ocpt-timeline\",\"version\":1,"));
        let fields = crate::json::parse_object(j.trim_end()).expect("timeline JSON parses");
        let get = |k: &str| fields.iter().find(|(n, _)| n == k).map(|(_, v)| v);
        assert_eq!(get("buckets").and_then(|v| v.as_u64()), Some(4));
        // horizon 9ns / 4 buckets → 3ns buckets sampled at t = 3,6,9,12:
        // nothing in flight at 3, the t=5 send at 6, closed by the t=9 recv.
        let app = get("in_flight_app").expect("series present");
        assert_eq!(app.get("samples").and_then(|v| v.as_str()), Some("0 1 0 0"));
    }
}
