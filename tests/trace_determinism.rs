//! The flight recorder's core contract: a recorded trace is a pure
//! function of `(configuration, seed)`. The JSONL bytes must be
//! identical whichever worker thread ran the job (`--jobs 1` vs
//! `--jobs N`), and under either scheduler kernel (timing wheel vs
//! reference heap) — the scheduler is a performance substitution and
//! must not leak into the recorded history. A perturbed trace must be
//! caught by `trace diff` with an exact first-divergence index.

use std::collections::BTreeMap;

use ocpt::harness::experiments::{e3_control_messages, ExpParams};
use ocpt::prelude::*;
use ocpt::telemetry;

fn quick() -> ExpParams {
    ExpParams {
        n: 4,
        seed: 11,
        workload_ms: 800,
        msg_gap: SimDuration::from_millis(4),
        ckpt_interval: SimDuration::from_millis(250),
        state_bytes: 256 * 1024,
    }
}

fn sweep_grid() -> RunGrid {
    e3_control_messages(&[SimDuration::from_millis(3), SimDuration::from_millis(30)], quick())
}

/// Run the sweep with a sink and collect `{filename: bytes}` for every
/// artifact it wrote.
fn record(dir: &std::path::Path, jobs: usize, sched: SchedulerKind) -> BTreeMap<String, String> {
    let g = sweep_grid().with_scheduler(sched);
    let sink = TraceSink::new(dir, "e3").expect("create sink dir");
    g.run_with_sink(&GridOptions { jobs, replicates: 2 }, Some(&sink));
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(dir).expect("read sink dir") {
        let entry = entry.expect("dir entry");
        let name = entry.file_name().into_string().expect("utf-8 filename");
        out.insert(name, std::fs::read_to_string(entry.path()).expect("read artifact"));
    }
    std::fs::remove_dir_all(dir).ok();
    out
}

fn tmp(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("ocpt_trace_det_{}_{tag}", std::process::id()))
}

/// Blank out the two fields that legitimately vary with the scheduler
/// kernel: the provenance stamp and the wheel-only `arena_hwm` gauge.
fn normalize_metrics(bytes: &str) -> String {
    let s = bytes.replace("\"scheduler\":\"reference_heap\"", "\"scheduler\":\"wheel\"");
    let Some(start) = s.find("\"arena_hwm\":") else {
        return s;
    };
    let digits = start + "\"arena_hwm\":".len();
    let end =
        s[digits..].find(|c: char| !c.is_ascii_digit()).map(|i| digits + i).unwrap_or(s.len());
    format!("{}0{}", &s[..digits], &s[end..])
}

#[test]
fn trace_bytes_identical_across_jobs_and_schedulers() {
    let baseline = record(&tmp("base"), 1, SchedulerKind::Wheel);
    assert!(!baseline.is_empty(), "sink wrote nothing");
    // Every (cell, replicate) leaves both artifacts.
    let traces = baseline.keys().filter(|k| k.ends_with(".trace.jsonl")).count();
    let metrics = baseline.keys().filter(|k| k.ends_with(".metrics.json")).count();
    assert_eq!(traces, metrics);
    assert_eq!(traces, sweep_grid().cell_count() * 2, "one trace per (cell, replicate)");

    for (tag, jobs, sched) in [
        ("jobs4", 4, SchedulerKind::Wheel),
        ("heap1", 1, SchedulerKind::ReferenceHeap),
        ("heap4", 4, SchedulerKind::ReferenceHeap),
    ] {
        let other = record(&tmp(tag), jobs, sched);
        assert_eq!(
            baseline.keys().collect::<Vec<_>>(),
            other.keys().collect::<Vec<_>>(),
            "{tag}: artifact sets differ"
        );
        for (name, bytes) in &baseline {
            if name.ends_with(".trace.jsonl") {
                // Traces never mention the scheduler: byte-identical.
                assert_eq!(bytes, &other[name], "{tag}: {name} bytes diverged");
            } else {
                // Metrics stamp the scheduler as provenance, and
                // `arena_hwm` is a wheel-internal gauge (the reference
                // heap has no arena and reports 0); everything else must
                // agree bit for bit — including `peak_pending`, which is
                // defined identically for both kernels.
                let norm = normalize_metrics(&other[name]);
                assert_eq!(
                    &normalize_metrics(bytes),
                    &norm,
                    "{tag}: {name} diverged beyond the scheduler stamp"
                );
            }
        }
    }
}

#[test]
fn recorded_traces_are_schema_valid_and_spanful() {
    let arts = record(&tmp("valid"), 2, SchedulerKind::Wheel);
    for (name, bytes) in arts.iter().filter(|(n, _)| n.ends_with(".trace.jsonl")) {
        let f = telemetry::parse_jsonl(bytes).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(!f.recs.is_empty(), "{name}: empty trace");
        let spans = telemetry::derive_spans(&f.recs);
        assert!(
            spans.iter().any(|s| s.kind == telemetry::SpanKind::Checkpoint),
            "{name}: no checkpoint spans"
        );
    }
    for (name, bytes) in arts.iter().filter(|(n, _)| n.ends_with(".metrics.json")) {
        assert!(bytes.starts_with("{\"schema\":\"ocpt-metrics\",\"version\":2,"), "{name}");
        assert!(bytes.ends_with("}\n"), "{name}: not newline-terminated");
    }
}

/// The observatory rides on the same contract: timeline, critical-path,
/// flame and health outputs — human and JSON — are pure functions of the
/// recorded trace, so they must be byte-identical whichever `--jobs`
/// count or scheduler kernel produced it.
#[test]
fn observatory_outputs_identical_across_jobs_and_schedulers() {
    fn observe(arts: &BTreeMap<String, String>) -> BTreeMap<String, String> {
        let mut out = BTreeMap::new();
        for (name, bytes) in arts.iter().filter(|(n, _)| n.ends_with(".trace.jsonl")) {
            let f = telemetry::parse_jsonl(bytes).unwrap_or_else(|e| panic!("{name}: {e}"));
            let t = telemetry::timeline(&f, telemetry::DEFAULT_BUCKETS);
            let c = telemetry::critical_path(&f);
            let h = telemetry::health(&f);
            out.insert(format!("{name}.timeline"), t.render());
            out.insert(format!("{name}.timeline.json"), t.to_json());
            out.insert(format!("{name}.critpath"), c.render());
            out.insert(format!("{name}.flame"), c.to_folded());
            out.insert(format!("{name}.health"), h.render());
            out.insert(format!("{name}.health.json"), h.to_json());
        }
        out
    }
    let baseline = observe(&record(&tmp("obs_base"), 1, SchedulerKind::Wheel));
    assert!(!baseline.is_empty());
    for v in baseline.values() {
        assert!(!v.is_empty());
    }
    for (name, bytes) in baseline.iter().filter(|(n, _)| n.ends_with(".health.json")) {
        assert!(bytes.starts_with("{\"schema\":\"ocpt-health\",\"version\":1,"), "{name}");
    }
    for (tag, jobs, sched) in [
        ("obs_jobs4", 4, SchedulerKind::Wheel),
        ("obs_heap1", 1, SchedulerKind::ReferenceHeap),
        ("obs_heap4", 4, SchedulerKind::ReferenceHeap),
    ] {
        let other = observe(&record(&tmp(tag), jobs, sched));
        assert_eq!(baseline, other, "{tag}: observatory outputs diverged");
    }
}

#[test]
fn metrics_v2_round_trips_through_the_parser() {
    // The schema bump's contract: everything `metrics_json` writes —
    // floats, nested objects, counters — survives a parse and re-render
    // byte for byte, and the new memory-pressure gauges are present.
    fn render(fields: &[(String, telemetry::json::Value)]) -> String {
        use telemetry::json::{Obj, Value};
        let mut o = Obj::new();
        for (k, v) in fields {
            o = match v {
                Value::Str(s) => o.str(k, s),
                Value::UInt(u) => o.u64(k, *u),
                Value::F64(f) => o.f64(k, *f),
                Value::Obj(inner) => o.raw(k, &render(inner)),
                Value::Null => o.raw(k, "null"),
            };
        }
        o.finish()
    }
    let mut cfg = RunConfig::new(4, 29);
    cfg.workload_duration = SimDuration::from_millis(600);
    cfg.checkpoint_interval = SimDuration::from_millis(200);
    cfg.state_bytes = 64 * 1024;
    let m = run_checked(&Algo::ocpt(), cfg).metrics_json();
    let fields = telemetry::json::parse_object(m.trim_end()).expect("metrics v2 parses");
    let get = |k: &str| {
        fields.iter().find(|(n, _)| n == k).map(|(_, v)| v).unwrap_or_else(|| panic!("no {k}"))
    };
    assert_eq!(get("version").as_u64(), Some(2));
    assert!(get("peak_pending").as_u64().expect("peak_pending is an integer") > 0);
    assert!(get("arena_hwm").as_u64().expect("arena_hwm is an integer") > 0, "wheel run has arena");
    assert!(get("storage").get("mean_writers").and_then(|v| v.as_f64()).is_some());
    assert!(get("counters").as_obj().is_some_and(|c| !c.is_empty()));
    assert_eq!(render(&fields) + "\n", m, "parse → re-render must be the identity");
}

/// A fault-free selective run ends with nothing dangling, so its health
/// verdict is green — in particular, the application traffic before the
/// first checkpoint (tagged `seq` 0) is not counted as a round left open.
#[test]
fn fault_free_selective_run_reads_green() {
    let mut cfg = RunConfig::new(4, 42);
    cfg.workload_duration = SimDuration::from_millis(1_000);
    cfg.checkpoint_interval = SimDuration::from_millis(250);
    cfg.state_bytes = 256 * 1024;
    cfg.trace = true;
    let r = run_checked(&Algo::ocpt(), cfg);
    let f = telemetry::parse_jsonl(&r.trace_jsonl()).expect("own trace parses");
    assert!(f.recs.iter().any(|e| e.seq == Some(0)), "pre-checkpoint traffic is tagged seq 0");
    let h = telemetry::health(&f);
    assert!(h.rounds_started >= 3, "{}", h.render());
    assert!(h.is_green(), "{}", h.render());
}

#[test]
fn diff_pins_a_perturbed_event() {
    let mut cfg = RunConfig::new(3, 17);
    cfg.workload_duration = SimDuration::from_millis(500);
    cfg.checkpoint_interval = SimDuration::from_millis(200);
    cfg.state_bytes = 64 * 1024;
    cfg.trace = true;
    let r = run_checked(&Algo::ocpt(), cfg);
    let a = telemetry::parse_jsonl(&r.trace_jsonl()).expect("own trace parses");
    let mut b = a.clone();
    let victim = b.recs.len() / 2;
    b.recs[victim].at += 1;
    match telemetry::diff(&a, &b, 3) {
        telemetry::DiffReport::Diverged { index, rendering } => {
            assert_eq!(index, victim, "diff must name the exact perturbed event");
            assert!(rendering.contains("A "), "{rendering}");
            assert!(rendering.contains("B "), "{rendering}");
        }
        other => panic!("expected divergence, got {other:?}"),
    }
    assert!(telemetry::diff(&a, &a.clone(), 3).is_identical());
}
