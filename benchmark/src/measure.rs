//! The two passes over one workload.
//!
//! * [`untraced`] — set-up several times, then repetitions with the span
//!   recorder off: the end-to-end numbers.
//! * [`traced`] — after a discarded cold repetition, one repetition with
//!   every call into a layer in a span and one without (their ratio is the
//!   tracing overhead), the workload re-run with one switch flipped at a
//!   time, and the layer replays: the per-layer numbers and the ledger.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use ocpt_core::LoggingKind;
use ocpt_harness::Algo;

use crate::catalog::{self, MetricDef};
use crate::host;
use crate::replay;
use crate::spans::Recorder;
use crate::stats::{self, Spread};
use crate::workloads::{self, Checks, Plan, Rep, Scale, Toggle, Workload};

/// When the untraced pass stops repeating.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Limit {
    /// Repeat until this much host time has been measured, and at least
    /// three times (`--seconds`).
    Seconds(f64),
    /// Exactly this many repetitions (`--reps`).
    Reps(usize),
}

/// What to measure.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed every input derives from.
    pub seed: u64,
    /// Size of the timed repetitions.
    pub scale: Scale,
    /// When to stop repeating.
    pub limit: Limit,
}

/// One measured value.
#[derive(Clone, Debug)]
pub struct Value {
    /// Metric name (a `catalog` entry).
    pub name: &'static str,
    /// The value: a median when `spread` is set.
    pub value: f64,
    /// Min/max/count behind a host-time median.
    pub spread: Option<Spread>,
}

/// The outcome of one pass over one workload.
#[derive(Debug)]
pub struct Report {
    /// Metrics that apply to this workload, in catalog order.
    pub values: Vec<Value>,
    /// `sim_digest`: hash of the simulated statistics.
    pub digest: u64,
    /// Correctness checks over every repetition.
    pub checks: Checks,
    /// Lines for the reader that are not metrics.
    pub notes: Vec<String>,
}

impl Report {
    /// The value of `name`, if it applies to this workload.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|v| v.name == name).map(|v| v.value)
    }
}

/// One set-up: generate the inputs and run the discarded eighth-scale
/// warm-up. Returns the inputs for the timed repetitions.
fn set_up(o: &Options) -> Plan {
    let plan = workloads::plan(o.workload, o.seed, o.scale, None);
    let warm_up = workloads::plan(o.workload, o.seed, Scale::Eighth, None);
    std::hint::black_box(workloads::execute(o.workload, &warm_up, &mut Recorder::off()));
    plan
}

/// Fold `rep`'s checks into `checks` and compare its digest with the first
/// repetition's: simulated statistics must repeat exactly.
fn fold_checks(checks: &mut Checks, first_digest: u64, rep: &Rep) {
    checks.attempted += rep.checks.attempted;
    checks.failed += rep.checks.failed;
    checks.failures.extend(rep.checks.failures.iter().cloned());
    checks.check(rep.digest == first_digest, || {
        format!(
            "sim_digest {:016x} differs from the first repetition's {first_digest:016x}",
            rep.digest
        )
    });
}

/// The simulated metrics of `defs` that `rep` has.
fn simulated<'a>(rep: &'a Rep, defs: &'a [MetricDef]) -> impl Iterator<Item = Value> + 'a {
    defs.iter().filter_map(|m| {
        rep.sim.get(m.name).map(|v| Value { name: m.name, value: *v, spread: None })
    })
}

/// `checks_failed_share`: failed over attempted.
fn failed_share(checks: &Checks) -> Value {
    Value {
        name: "checks_failed_share",
        value: checks.failed as f64 / checks.attempted.max(1) as f64,
        spread: None,
    }
}

/// `app_msgs_per_s` from a repetition's message count and wall times. A
/// grid reports no message count, so `exp_grid` has no such rate.
fn app_rate(w: Workload, rep: &Rep, wall: Spread) -> Option<Value> {
    let app = *rep.sim.get("_app_msgs").filter(|_| w != Workload::ExpGrid)?;
    Some(Value {
        name: "app_msgs_per_s",
        value: app / wall.median,
        spread: Some(Spread {
            median: app / wall.median,
            min: app / wall.max,
            max: app / wall.min,
            k: wall.k,
        }),
    })
}

/// Scales host times to the reference host's base speed. That host runs up
/// to a fifth faster for seconds at a time (README, *Repeatability*), so
/// the speed probe runs before and after whatever is timed, and the time is
/// multiplied by the reference reading over the mean of the two.
struct SpeedProbe {
    before: f64,
    readings: Vec<f64>,
}

impl SpeedProbe {
    fn start() -> Self {
        let before = host::spin_s();
        SpeedProbe { before, readings: vec![before] }
    }

    /// Run `f`; return its result and the factor that scales a host time
    /// measured inside it.
    fn around<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64) {
        let out = f();
        let after = host::spin_s();
        let scale = host::SPIN_REFERENCE_S / ((self.before + after) / 2.0);
        self.before = after;
        self.readings.push(after);
        (out, scale)
    }
}

/// The untraced pass: the thirteen end-to-end metrics, where they apply.
pub fn untraced(o: &Options) -> Result<Report, String> {
    let mut probe = SpeedProbe::start();
    // Set up at least three times; short set-ups are repeated up to nine
    // times within two seconds so that their median holds still.
    let mut setup_s = Vec::new();
    let setting_up = Instant::now();
    let mut plan;
    loop {
        let ((p, raw_s), scale) = probe.around(|| {
            let t = Instant::now();
            (set_up(o), t.elapsed().as_secs_f64())
        });
        plan = p;
        setup_s.push(raw_s * scale);
        let n = setup_s.len();
        if n >= 3 && (n >= 9 || setting_up.elapsed() >= Duration::from_secs(2)) {
            break;
        }
    }

    let mut off = Recorder::off();
    let mut reps: Vec<Rep> = Vec::new();
    let mut walls = Vec::new();
    let measuring = Instant::now();
    loop {
        let (rep, scale) = probe.around(|| workloads::execute(o.workload, &plan, &mut off));
        walls.push(rep.wall_s * scale);
        reps.push(rep);
        let done = match o.limit {
            // Never fewer than three, so that the median is a repetition
            // that ran, not the mean of a fast and a slow one.
            Limit::Seconds(s) => reps.len() >= 3 && measuring.elapsed().as_secs_f64() >= s,
            Limit::Reps(k) => reps.len() >= k,
        };
        if done {
            break;
        }
    }

    let mut checks = Checks::default();
    for rep in &reps {
        fold_checks(&mut checks, reps[0].digest, rep);
    }
    let raw_walls: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
    let raw = stats::spread(&raw_walls).ok_or("no repetition was measured")?;
    let speed = stats::spread(&probe.readings).ok_or("no speed probe was read")?;
    let wall = stats::spread(&walls).ok_or("no repetition was measured")?;
    let setup = stats::spread(&setup_s).ok_or("no set-up was measured")?;
    let mut values = vec![
        Value { name: "setup_s", value: setup.median, spread: Some(setup) },
        Value { name: "wall_s", value: wall.median, spread: Some(wall) },
        Value { name: "peak_rss_mb", value: host::peak_rss_mb()?, spread: None },
    ];
    values.extend(simulated(&reps[0], catalog::END_TO_END));
    values.extend(app_rate(o.workload, &reps[0], wall));
    values.extend(simulated(&reps[0], catalog::END_TO_END_UNBOUNDED));
    values.push(failed_share(&checks));
    let notes = vec![
        format!("wall_s before scaling: median={} min={} max={} s", raw.median, raw.min, raw.max),
        format!(
            "speed probe: median={} min={} max={} s over {} readings, reference {} s",
            speed.median,
            speed.min,
            speed.max,
            speed.k,
            host::SPIN_REFERENCE_S
        ),
    ];
    Ok(Report { values, digest: reps[0].digest, checks, notes })
}

/// Host seconds `rec` spent inside the program's run entry points.
fn run_s(rec: &Recorder) -> f64 {
    rec.total_s("harness.run") + rec.total_s("harness.grid")
}

/// Run the workload once with `toggle` flipped; seconds in the run phase.
fn toggled_run_s(o: &Options, toggle: Toggle, rec: &mut Recorder) -> f64 {
    rec.span("toggle", |_| {
        let plan = workloads::plan(o.workload, o.seed, o.scale, Some(toggle));
        let mut inner = Recorder::on();
        std::hint::black_box(workloads::execute(o.workload, &plan, &mut inner));
        run_s(&inner)
    })
}

/// System size and logging strategies of a plan (for grids, of the base
/// configuration).
fn shape(plan: &Plan) -> (usize, Vec<LoggingKind>) {
    match plan {
        Plan::Runs(runs) => (
            runs[0].1.sim.n,
            runs.iter()
                .map(|(algo, _)| match algo {
                    Algo::Ocpt(c) => c.logging,
                    _ => LoggingKind::Selective,
                })
                .collect(),
        ),
        Plan::Grids(_, _, base) => (base.sim.n, vec![LoggingKind::Selective]),
    }
}

/// Per-layer values by metric name while the traced pass collects them.
#[derive(Default)]
struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    fn set(&mut self, name: &'static str, v: f64) {
        self.0.insert(name, v);
    }

    /// The value of `name`, 0 when the workload has none.
    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// Re-run the workload with one switch flipped at a time and price the
/// layer behind it by difference. For `exp_grid` also run the comparison
/// algorithms directly.
fn flip_switches(
    o: &Options,
    rep: &Rep,
    traced_run_s: f64,
    rec: &mut Recorder,
    m: &mut Layers,
) -> Result<(), String> {
    let heap_s = toggled_run_s(o, Toggle::HeapScheduler, rec);
    m.set("sim.sched.heap_over_wheel", heap_s / traced_run_s);
    if rep.sim.contains_key("causality.messages") {
        m.set("causality.observer_s", traced_run_s - toggled_run_s(o, Toggle::ObserverOff, rec));
    }
    if o.workload == Workload::Observatory {
        m.set("sim.trace.record_s", traced_run_s - toggled_run_s(o, Toggle::TraceOff, rec));
    }
    if o.workload != Workload::ExpGrid {
        return Ok(());
    }
    let grids_ms = rec.total_s("harness.grid") * 1e3;
    m.set("harness.grid.ms_per_run", grids_ms / m.get("harness.grid.runs"));
    m.set("harness.grid.speedup_jobs2", traced_run_s / toggled_run_s(o, Toggle::Jobs2, rec));
    for (algo, ms) in workloads::baseline_runs(o.seed, o.scale, rec) {
        let metric = catalog::find(&format!("baselines.{algo}_ms_per_run"))
            .ok_or_else(|| format!("no baselines metric for {algo}"))?;
        m.set(metric.name, ms);
    }
    Ok(())
}

/// Run each layer alone, fed the kind and amount of work `sizes` reports.
fn replay_layers(o: &Options, plan: &Plan, sizes: &BTreeMap<&'static str, f64>, m: &mut Layers) {
    let (n, kinds) = shape(plan);
    let size = |key: &str| sizes.get(key).copied().unwrap_or(0.0);
    let per_round = (size("_app_msgs") / size("_complete_rounds").max(1.0)).max(1.0) as u64;
    let depth = size("sim.peak_pending") as usize;
    m.set("sim.sched.replay_ns_per_event", replay::sched_ns_per_event(depth, n, o.seed));
    m.set("sim.net.replay_ns_per_send", replay::net_ns_per_send(n, o.seed));
    let requests = size("storage.requests");
    if requests > 0.0 {
        let (ns, advances) = replay::storage_per_write(
            size("storage_peak_writers") as usize,
            (size("storage.bytes") / requests) as u64,
        );
        m.set("storage.server.replay_ns_per_write", ns);
        m.set("storage.server.advance_calls_per_write", advances);
    }
    let per_kind: f64 =
        kinds.iter().map(|kind| replay::core_ns_per_app_msg(n, *kind, per_round, o.seed)).sum();
    m.set("core.msg.replay_ns_per_app_msg", per_kind / kinds.len() as f64);
    m.set("core.tentset.merge_ns", replay::tentset_merge_ns(n));
    m.set("core.tentset.wire_ns", replay::tentset_wire_ns(n));
    let per_log = size("core.log_flushed_msgs") / size("core.ckpt_finalized").max(1.0);
    let (append, encode, decode) = replay::log_ns(per_log as usize);
    m.set("core.log.append_ns", append);
    m.set("core.log.encode_ns_per_entry", encode);
    m.set("core.log.decode_ns_per_entry", decode);
    if sizes.contains_key("causality.messages") {
        m.set("causality.replay_ns_per_msg", replay::observer_ns_per_msg(n, per_round, o.seed));
    }
}

/// The ledger: each layer's replay or span time over the traced
/// repetition's wall time; what is left is the harness.
fn ledger(app_msgs: f64, wall_s: f64, m: &mut Layers) {
    let sends = app_msgs + m.get("core.ctrl_msgs");
    let layer_s = [
        (
            "ledger.sim_share",
            (m.get("sim.sched.replay_ns_per_event") * m.get("sim.events")
                + m.get("sim.net.replay_ns_per_send") * sends)
                * 1e-9
                + m.get("sim.trace.record_s"),
        ),
        (
            "ledger.storage_share",
            m.get("storage.server.replay_ns_per_write") * m.get("storage.requests") * 1e-9,
        ),
        (
            "ledger.core_share",
            (m.get("core.msg.replay_ns_per_app_msg") * app_msgs
                + m.get("core.log.encode_ns_per_entry") * m.get("core.log_flushed_msgs"))
                * 1e-9,
        ),
        (
            "ledger.causality_share",
            m.get("causality.observer_s").max(0.0) + m.get("causality.verify_s"),
        ),
        (
            "ledger.telemetry_share",
            ["to_jsonl", "parse", "spans", "critpath", "timeline", "health"]
                .iter()
                .map(|stage| m.get(&format!("telemetry.{stage}_s")))
                .sum(),
        ),
    ];
    let mut residual = 1.0;
    for (name, seconds) in layer_s {
        m.set(name, seconds / wall_s);
        residual -= seconds / wall_s;
    }
    m.set("harness.residual_share", residual);
}

/// The traced pass: every per-layer metric that applies, the ledger, and
/// the recorder holding the spans.
pub fn traced(o: &Options) -> Result<(Report, Recorder), String> {
    let w = o.workload;
    let mut rec = Recorder::on();
    let mut m = Layers::default();

    let plan = rec.span("setup", |_| set_up(o));
    // The first full-size repetition of a process pays the page faults of a
    // heap that has never been this large (up to a quarter of its wall
    // time); it is discarded so that the traced and the untraced repetition
    // are compared warm.
    let cold = rec.span("rep.cold", |_| workloads::execute(w, &plan, &mut Recorder::off()));
    let rep = rec.span("rep.traced", |rec| workloads::execute(w, &plan, rec));
    let plain = rec.span("rep.untraced", |_| workloads::execute(w, &plan, &mut Recorder::off()));
    m.set("trace_overhead_share", rep.wall_s / plain.wall_s - 1.0);

    // Counts the program reported, and the spans around its entry points:
    // a span called `x` is the metric `x_s`.
    for (name, v) in rep.sim.iter().filter(|(name, _)| !name.starts_with('_')) {
        m.set(name, *v);
    }
    m.set("sim.events_per_s", m.get("sim.events") / rep.wall_s);
    for def in catalog::PER_LAYER {
        let span = def.name.strip_suffix("_s").unwrap_or("");
        if rec.spans().iter().any(|s| s.name == span) {
            m.set(def.name, rec.total_s(span));
        }
    }

    let traced_run_s = run_s(&rec);
    flip_switches(o, &rep, traced_run_s, &mut rec, &mut m)?;
    rec.span("replay", |_| replay_layers(o, &plan, &rep.sim, &mut m));
    ledger(rep.sim.get("_app_msgs").copied().unwrap_or(0.0), rep.wall_s, &mut m);

    let mut checks = Checks::default();
    for r in [&cold, &rep, &plain] {
        fold_checks(&mut checks, cold.digest, r);
    }
    let wall_once = Spread { median: plain.wall_s, min: plain.wall_s, max: plain.wall_s, k: 1 };
    let mut values: Vec<Value> = simulated(&rep, catalog::END_TO_END).collect();
    values.extend(app_rate(w, &plain, wall_once));
    values.extend(simulated(&rep, catalog::END_TO_END_UNBOUNDED));
    values.push(failed_share(&checks));
    values.extend(
        catalog::PER_LAYER.iter().filter_map(|d| {
            m.0.get(d.name).map(|v| Value { name: d.name, value: *v, spread: None })
        }),
    );
    Ok((Report { values, digest: rep.digest, checks, notes: Vec::new() }, rec))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_speed_probe_scales_by_reference_over_the_mean_of_both_readings() {
        let mut probe = SpeedProbe::start();
        let before = probe.before;
        let (out, scale) = probe.around(|| 7);
        let after = probe.before;
        assert_eq!(out, 7);
        assert!(before > 0.0 && after > 0.0);
        assert_eq!(scale, host::SPIN_REFERENCE_S / ((before + after) / 2.0));
        assert_eq!(probe.readings, vec![before, after]);
    }
}
