//! The `ocpt-health` report: one page of vital signs for a recorded run.
//!
//! Everything here is computed from the structured trace fields only
//! (`at`/`pid`/`kind`/`code`/`seq` — the `detail` string is never
//! parsed), so the report is a pure function of the trace bytes:
//! byte-identical across `--jobs` counts and scheduler kernels whenever
//! the traces are. The JSON document is versioned (`ocpt-health` v1) and
//! stays inside the schema subset `json::parse_object` accepts.
//!
//! Field groups (see `DESIGN.md` for the field-by-field schema):
//!
//! * **rounds** — started / complete / open counts plus round-latency
//!   percentiles over closed round spans (log-bucketed
//!   [`ocpt_metrics::Histogram`], ≤ 2× relative error, p0/p100 exact);
//! * **waves** — control-wave durations and fan-out: control sends per
//!   process (max and mean), ring hops, `CK_GRP_DONE` tier reports;
//! * **storage** — write counts and durations;
//! * **gaps** — what the trace left dangling: unreceived messages,
//!   unfinalized checkpoints, unfinished writes, processes still down,
//!   and the recovery counters (`recovery.resend*` events: re-sent
//!   in-transit messages vs. ones no log could regenerate).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use ocpt_metrics::Histogram;
use ocpt_sim::{TraceKind, TRACE_KINDS};

use crate::json::Obj;
use crate::record::TraceFile;
use crate::span::{derive_spans, SpanKind};

/// Schema name stamped into [`Health::to_json`].
pub const HEALTH_SCHEMA: &str = "ocpt-health";
/// Schema version stamped into [`Health::to_json`].
pub const HEALTH_VERSION: u64 = 1;

/// Latency percentiles over one span population, nanoseconds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LatencyStats {
    /// Closed spans measured.
    pub count: u64,
    /// Median (bucketed, ≤ 2× relative error).
    pub p50_ns: u64,
    /// 90th percentile (bucketed).
    pub p90_ns: u64,
    /// 99th percentile (bucketed).
    pub p99_ns: u64,
    /// Exact maximum.
    pub max_ns: u64,
}

impl LatencyStats {
    fn over(durations: impl Iterator<Item = u64>) -> LatencyStats {
        let mut h = Histogram::new();
        for d in durations {
            h.record(d);
        }
        LatencyStats {
            count: h.count(),
            p50_ns: h.try_quantile(0.5).unwrap_or(0),
            p90_ns: h.try_quantile(0.9).unwrap_or(0),
            p99_ns: h.try_quantile(0.99).unwrap_or(0),
            max_ns: h.try_quantile(1.0).unwrap_or(0),
        }
    }

    fn json(&self) -> String {
        Obj::new()
            .u64("count", self.count)
            .u64("p50_ns", self.p50_ns)
            .u64("p90_ns", self.p90_ns)
            .u64("p99_ns", self.p99_ns)
            .u64("max_ns", self.max_ns)
            .finish()
    }
}

/// The health report for one recorded run.
#[derive(Clone, Debug, PartialEq)]
pub struct Health {
    /// Algorithm name from the trace header.
    pub algo: String,
    /// Process count from the trace header.
    pub n: usize,
    /// Seed from the trace header.
    pub seed: u64,
    /// Events in the trace.
    pub events: u64,
    /// Timestamp of the last event.
    pub horizon_ns: u64,
    /// Rounds with any protocol event (a `seq` carried only by
    /// application traffic is not a round; see [`crate::span`]).
    pub rounds_started: u64,
    /// Rounds whose every checkpoint finalized.
    pub rounds_complete: u64,
    /// Round-latency percentiles over complete rounds.
    pub round_latency: LatencyStats,
    /// Control-wave durations.
    pub wave_latency: LatencyStats,
    /// Stable-storage write durations.
    pub storage_latency: LatencyStats,
    /// Largest number of control sends by any single process.
    pub ctrl_fanout_max: u64,
    /// Mean control sends per process that sent any.
    pub ctrl_fanout_mean: f64,
    /// Control deliveries (ring hops across all rounds and tiers).
    pub ring_hops: u64,
    /// `CK_GRP_DONE` tier reports (> 0 marks a hierarchical run).
    pub grp_done: u64,
    /// Application messages sent but never received in the trace.
    pub app_unreceived: u64,
    /// Tentative checkpoints never finalized.
    pub tentative_open: u64,
    /// Storage writes started but not completed.
    pub writes_open: u64,
    /// Crashes recorded.
    pub crashes: u64,
    /// Processes still down at the end of the trace.
    pub down_at_end: u64,
    /// In-transit messages re-sent from a sender log during recovery
    /// (`recovery.resend` events).
    pub resends: u64,
    /// In-transit messages no sender log could regenerate
    /// (`recovery.resend_unavailable` events) — lost on recovery.
    pub lost_in_transit: u64,
}

/// Compute the health report of a parsed trace.
pub fn health(f: &TraceFile) -> Health {
    let spans = derive_spans(&f.recs);
    let closed = |kind: SpanKind| {
        spans.iter().filter(move |s| s.kind == kind && s.closed).map(|s| s.nanos())
    };
    let rounds_started = spans.iter().filter(|s| s.kind == SpanKind::Round).count() as u64;
    let rounds_complete =
        spans.iter().filter(|s| s.kind == SpanKind::Round && s.closed).count() as u64;

    let mut kind_counts = [0u64; TRACE_KINDS.len()];
    let mut ctrl_sends_by_pid: BTreeMap<u32, u64> = BTreeMap::new();
    let mut grp_done = 0u64;
    let mut resends = 0u64;
    let mut lost = 0u64;
    for r in &f.recs {
        kind_counts[r.kind as usize] += 1;
        if r.kind == TraceKind::CtrlSend {
            *ctrl_sends_by_pid.entry(r.pid).or_default() += 1;
        }
        if r.code == "ctrl.ck_grp_done" {
            grp_done += 1;
        }
        if r.code == "recovery.resend" {
            resends += 1;
        }
        if r.code == "recovery.resend_unavailable" {
            lost += 1;
        }
    }
    let count = |k: TraceKind| kind_counts[k as usize];
    let fanout_max = ctrl_sends_by_pid.values().copied().max().unwrap_or(0);
    let fanout_mean = if ctrl_sends_by_pid.is_empty() {
        0.0
    } else {
        ctrl_sends_by_pid.values().sum::<u64>() as f64 / ctrl_sends_by_pid.len() as f64
    };

    Health {
        algo: f.meta.algo.clone(),
        n: f.meta.n,
        seed: f.meta.seed,
        events: f.recs.len() as u64,
        horizon_ns: f.recs.last().map_or(0, |r| r.at),
        rounds_started,
        rounds_complete,
        round_latency: LatencyStats::over(
            spans.iter().filter(|s| s.kind == SpanKind::Round && s.closed).map(|s| s.nanos()),
        ),
        wave_latency: LatencyStats::over(closed(SpanKind::Wave)),
        storage_latency: LatencyStats::over(closed(SpanKind::StorageWrite)),
        ctrl_fanout_max: fanout_max,
        ctrl_fanout_mean: fanout_mean,
        ring_hops: count(TraceKind::CtrlRecv),
        grp_done,
        app_unreceived: count(TraceKind::AppSend).saturating_sub(count(TraceKind::AppRecv)),
        tentative_open: spans.iter().filter(|s| s.kind == SpanKind::Checkpoint && !s.closed).count()
            as u64,
        writes_open: spans.iter().filter(|s| s.kind == SpanKind::StorageWrite && !s.closed).count()
            as u64,
        crashes: count(TraceKind::Crash),
        down_at_end: count(TraceKind::Crash).saturating_sub(count(TraceKind::Recover)),
        resends,
        lost_in_transit: lost,
    }
}

fn fmt_ms(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1e6)
}

impl Health {
    /// Overall verdict: `true` when nothing is dangling — every started
    /// round completed, no open checkpoints/writes, nobody still down,
    /// and recovery lost nothing in transit.
    pub fn is_green(&self) -> bool {
        self.rounds_started == self.rounds_complete
            && self.tentative_open == 0
            && self.writes_open == 0
            && self.down_at_end == 0
            && self.lost_in_transit == 0
    }

    /// The versioned `ocpt-health` v1 JSON document (one line).
    pub fn to_json(&self) -> String {
        let rounds = Obj::new()
            .u64("started", self.rounds_started)
            .u64("complete", self.rounds_complete)
            .u64("open", self.rounds_started - self.rounds_complete)
            .raw("latency", &self.round_latency.json())
            .finish();
        let control = Obj::new()
            .u64("fanout_max", self.ctrl_fanout_max)
            .f64("fanout_mean", self.ctrl_fanout_mean)
            .u64("ring_hops", self.ring_hops)
            .u64("grp_done", self.grp_done)
            .raw("wave_latency", &self.wave_latency.json())
            .finish();
        let storage = Obj::new().raw("write_latency", &self.storage_latency.json()).finish();
        let gaps = Obj::new()
            .u64("app_unreceived", self.app_unreceived)
            .u64("tentative_open", self.tentative_open)
            .u64("writes_open", self.writes_open)
            .u64("crashes", self.crashes)
            .u64("down_at_end", self.down_at_end)
            .u64("resends", self.resends)
            .u64("lost_in_transit", self.lost_in_transit)
            .finish();
        Obj::new()
            .str("schema", HEALTH_SCHEMA)
            .u64("version", HEALTH_VERSION)
            .str("algo", &self.algo)
            .u64("n", self.n as u64)
            .u64("seed", self.seed)
            .u64("events", self.events)
            .u64("horizon_ns", self.horizon_ns)
            .str("verdict", if self.is_green() { "green" } else { "attention" })
            .raw("rounds", &rounds)
            .raw("control", &control)
            .raw("storage", &storage)
            .raw("gaps", &gaps)
            .finish()
            + "\n"
    }

    /// Human rendering. Deterministic text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "health: algo={} n={} seed={} events={} horizon={:.6}s",
            self.algo,
            self.n,
            self.seed,
            self.events,
            self.horizon_ns as f64 / 1e9,
        );
        let _ = writeln!(
            out,
            "verdict: {}",
            if self.is_green() { "green (nothing dangling)" } else { "attention (see gaps)" }
        );
        let lat = |l: &LatencyStats| {
            format!(
                "count {} p50 {}ms p90 {}ms p99 {}ms max {}ms",
                l.count,
                fmt_ms(l.p50_ns),
                fmt_ms(l.p90_ns),
                fmt_ms(l.p99_ns),
                fmt_ms(l.max_ns)
            )
        };
        let _ = writeln!(
            out,
            "rounds: {} started, {} complete, {} open",
            self.rounds_started,
            self.rounds_complete,
            self.rounds_started - self.rounds_complete
        );
        let _ = writeln!(out, "  round latency   {}", lat(&self.round_latency));
        let _ = writeln!(out, "  wave latency    {}", lat(&self.wave_latency));
        let _ = writeln!(out, "  write latency   {}", lat(&self.storage_latency));
        let _ = writeln!(
            out,
            "control: fan-out max {} mean {:.2}, ring hops {}, grp_done {} ({})",
            self.ctrl_fanout_max,
            self.ctrl_fanout_mean,
            self.ring_hops,
            self.grp_done,
            if self.grp_done > 0 { "hierarchical" } else { "flat" },
        );
        let _ = writeln!(
            out,
            "gaps: {} unreceived msgs, {} open ckpts, {} open writes, {} crash(es), {} down at end",
            self.app_unreceived,
            self.tentative_open,
            self.writes_open,
            self.crashes,
            self.down_at_end,
        );
        let _ = writeln!(
            out,
            "recovery: {} in-transit re-sent, {} lost in transit",
            self.resends, self.lost_in_transit,
        );
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

    fn healthy() -> TraceFile {
        file(vec![
            rec(10, 0, TentativeCkpt, "ckpt.tentative", Some(1)),
            rec(20, 0, CtrlSend, "ctrl.ck_bgn", Some(1)),
            rec(30, 1, CtrlRecv, "ctrl.ck_bgn", Some(1)),
            rec(35, 1, TentativeCkpt, "ckpt.tentative", Some(1)),
            rec(60, 0, StorageStart, "storage.start", Some(1)),
            rec(80, 0, StorageDone, "storage.done", Some(1)),
            rec(90, 0, FinalizeCkpt, "ckpt.finalize", Some(1)),
            rec(100, 1, FinalizeCkpt, "ckpt.finalize", Some(1)),
        ])
    }

    #[test]
    fn green_run_reports_green() {
        let h = health(&healthy());
        assert!(h.is_green());
        assert_eq!((h.rounds_started, h.rounds_complete), (1, 1));
        assert_eq!(h.round_latency.count, 1);
        assert_eq!(h.round_latency.max_ns, 90, "p100 is the exact max");
        assert_eq!(h.ctrl_fanout_max, 1);
        assert_eq!(h.ring_hops, 1);
        assert!(h.render().contains("verdict: green"));
    }

    /// Application messages sent before the first checkpoint carry the
    /// sender's csn, 0; they are not a round that never closes.
    #[test]
    fn traffic_before_the_first_checkpoint_is_not_an_open_round() {
        let mut f = healthy();
        let early =
            [rec(1, 0, AppSend, "app.send", Some(0)), rec(4, 1, AppRecv, "app.recv", Some(0))];
        f.recs.splice(0..0, early);
        let h = health(&f);
        assert_eq!((h.rounds_started, h.rounds_complete), (1, 1));
        assert!(h.is_green(), "{}", h.render());
    }

    #[test]
    fn dangling_state_flips_the_verdict() {
        let mut f = healthy();
        f.recs.push(rec(110, 1, AppSend, "app.send", None));
        f.recs.push(rec(120, 0, Crash, "fault.crash", None));
        f.recs.push(rec(130, 1, Note, "recovery.resend_unavailable", None));
        let h = health(&f);
        assert!(!h.is_green());
        assert_eq!(h.app_unreceived, 1);
        assert_eq!(h.down_at_end, 1);
        assert_eq!(h.lost_in_transit, 1);
        assert!(h.render().contains("verdict: attention"));
    }

    #[test]
    fn json_is_versioned_and_parseable() {
        let j = health(&healthy()).to_json();
        assert!(j.starts_with("{\"schema\":\"ocpt-health\",\"version\":1,"));
        let fields = crate::json::parse_object(j.trim_end()).expect("health JSON parses");
        let get = |k: &str| fields.iter().find(|(n, _)| n == k).map(|(_, v)| v);
        assert_eq!(get("verdict").and_then(|v| v.as_str()), Some("green"));
        let rounds = get("rounds").expect("rounds group");
        assert_eq!(rounds.get("complete").and_then(|v| v.as_u64()), Some(1));
        assert_eq!(
            rounds.get("latency").and_then(|l| l.get("max_ns")).and_then(|v| v.as_u64()),
            Some(90)
        );
        let gaps = get("gaps").expect("gaps group");
        assert_eq!(gaps.get("lost_in_transit").and_then(|v| v.as_u64()), Some(0));
    }

    #[test]
    fn empty_trace_is_green_and_zeroed() {
        let h = health(&file(vec![]));
        assert!(h.is_green());
        assert_eq!(h.events, 0);
        assert_eq!(h.round_latency.count, 0);
        assert_eq!(h.round_latency.p50_ns, 0, "empty percentiles saturate to 0, no panic");
    }
}
