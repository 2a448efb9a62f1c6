//! The six workloads: how each turns a seed into inputs for the program
//! (`plan`), and how one repetition drives the program's public API and
//! reads its results (`execute`).
//!
//! The benchmark is closed and batch: a workload is a fixed amount of
//! *simulated* traffic, the program receives only generated `RunConfig`s,
//! and a repetition is timed from the first call into the program to the
//! last result being dropped. Every call into a layer's public API sits in
//! a [`Recorder`] span; the untraced pass hands in a recorder that is off.

use std::collections::BTreeMap;
use std::time::Instant;

use ocpt_core::LoggingKind;
use ocpt_harness::experiments::{self as exp, ExpParams};
use ocpt_harness::{
    log_recovery_report, run, verify_restored_states, Algo, GridOptions, RunConfig, RunGrid,
    RunResult, WorkloadSpec,
};
use ocpt_sim::{Fault, FaultPlan, ProcessId, SchedulerKind, SimDuration, SimRng, SimTime};

use crate::spans::Recorder;
use crate::stats::{fnv1a, percentile, FNV_OFFSET};

/// One of the six workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// OCPT selective, N=64 flat mesh at 250 µs, observer and trace off.
    SteadyMesh,
    /// `scale_config(600)` for 700 ms: two synchronized rounds of 600 writers.
    RoundStorm,
    /// The mesh at 1 ms for 10 s with the consistency observer on.
    VerifiedMesh,
    /// All four logging strategies riding through a crash every ≈1.2 s.
    CrashReplay,
    /// N=32 mesh with trace on, then the whole telemetry pipeline.
    Observatory,
    /// The ten `exp_all` grids, two replicates, one job.
    ExpGrid,
}

/// How much of the workload to generate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The published size.
    Full,
    /// Roughly an eighth of the simulated traffic: the discarded warm-up
    /// inside every set-up, and the size the tests run at.
    Eighth,
}

/// A switch the traced pass flips to price one layer by difference.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Toggle {
    /// `RunConfig.observe = false` everywhere.
    ObserverOff,
    /// `RunConfig.trace = false` everywhere.
    TraceOff,
    /// The reference `BinaryHeap` scheduler instead of the timing wheel.
    HeapScheduler,
    /// Two grid workers instead of one (`exp_grid` only).
    Jobs2,
}

impl Workload {
    /// Every workload, in suite order (the order of `catalog::WORKLOADS`).
    pub const ALL: [Workload; 6] = [
        Workload::SteadyMesh,
        Workload::RoundStorm,
        Workload::VerifiedMesh,
        Workload::CrashReplay,
        Workload::Observatory,
        Workload::ExpGrid,
    ];

    /// Name as printed and as accepted by `--workload`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SteadyMesh => "steady_mesh",
            Workload::RoundStorm => "round_storm",
            Workload::VerifiedMesh => "verified_mesh",
            Workload::CrashReplay => "crash_replay",
            Workload::Observatory => "observatory",
            Workload::ExpGrid => "exp_grid",
        }
    }

    /// Parse a `--workload` value.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// The generated inputs of one workload.
pub enum Plan {
    /// Direct runs: `(algorithm, configuration)` in execution order.
    Runs(Vec<(Algo, RunConfig)>),
    /// Experiment grids, how to execute them, and the base configuration
    /// their cells vary, which is also run once directly.
    Grids(Vec<RunGrid>, GridOptions, Box<RunConfig>),
}

/// The shared mesh shape: uniform full mesh, 64 KiB process images.
fn mesh(n: usize, seed: u64, gap: SimDuration, interval_ms: u64, duration_ms: u64) -> RunConfig {
    let mut cfg = RunConfig::new(n, seed);
    cfg.workload = WorkloadSpec::uniform_mesh(gap);
    cfg.checkpoint_interval = SimDuration::from_millis(interval_ms);
    cfg.workload_duration = SimDuration::from_millis(duration_ms);
    cfg.state_bytes = 64 * 1024;
    cfg.sim =
        cfg.sim.with_horizon(SimDuration::from_millis(duration_ms) + SimDuration::from_secs(30));
    cfg
}

/// A ride-through crash of a rotating victim every ≈1.2 s (±100 ms drawn
/// from the seed), each down for 10 ms, none in the last simulated second.
fn crash_plan(n: usize, seed: u64, duration_ms: u64) -> FaultPlan {
    let mut rng = SimRng::derive(seed, 0xC4A5_11E5);
    let mut plan = FaultPlan::none();
    for k in 1.. {
        let at_ms = k * 1_200 - 100 + rng.next_u64_below(200);
        if at_ms + 1_000 > duration_ms {
            break;
        }
        plan = plan.with(Fault {
            pid: ProcessId(((k * 5 + seed) % n as u64) as u32),
            at: SimTime::from_millis(at_ms),
            down_for: Some(SimDuration::from_millis(10)),
        });
    }
    plan
}

/// `exp_all`'s non-quick parameters.
fn exp_all_params(seed: u64) -> ExpParams {
    ExpParams {
        n: 8,
        seed,
        workload_ms: 10_000,
        msg_gap: SimDuration::from_millis(5),
        ckpt_interval: SimDuration::from_secs(1),
        state_bytes: 2 * 1024 * 1024,
    }
}

/// The ten grids `exp_all` builds.
fn exp_all_grids(p: ExpParams) -> Vec<RunGrid> {
    let ns = [4, 8, 16, 32];
    let gaps = [2, 20, 200].map(SimDuration::from_millis);
    let timeouts = [125, 500].map(SimDuration::from_millis);
    let intervals = [250, 1_000].map(SimDuration::from_millis);
    let crash_ms = p.workload_ms * 3 / 4;
    vec![
        exp::e1_contention(&ns, p),
        exp::e2_overhead(&intervals, p),
        exp::e3_control_messages(&gaps, p),
        exp::e4_convergence(&gaps[..2], &timeouts, p),
        exp::e5_logging(&gaps[..2], p),
        exp::e6_piggyback(&ns, p),
        exp::e7_recovery(p, crash_ms),
        exp::e8_response_time(&gaps[..2], p),
        exp::e10_log_matrix(p, crash_ms, None),
        exp::a2_flush_policy(p),
    ]
}

/// Generate the inputs of `workload` from `seed`.
pub fn plan(workload: Workload, seed: u64, scale: Scale, toggle: Option<Toggle>) -> Plan {
    let eighth = scale == Scale::Eighth;
    let div = if eighth { 8 } else { 1 };
    let ocpt = Algo::ocpt();
    let mut plan = match workload {
        Workload::SteadyMesh => {
            let mut cfg = mesh(64, seed, SimDuration::from_micros(250), 500, 20_000 / div);
            cfg.observe = false;
            cfg.gc_old_checkpoints = true;
            Plan::Runs(vec![(ocpt, cfg)])
        }
        Workload::RoundStorm => {
            let mut cfg = exp::scale_config(600, seed);
            // Rounds are what this workload is made of, and their cost grows
            // faster than their number: one round is the eighth-scale size.
            // Rounds start near 200, 600 and 800 ms for every seed, so 700 ms
            // is two rounds with room on both sides.
            cfg.workload_duration = SimDuration::from_millis(if eighth { 450 } else { 700 });
            Plan::Runs(vec![(ocpt, cfg)])
        }
        Workload::VerifiedMesh => {
            Plan::Runs(vec![(ocpt, mesh(64, seed, SimDuration::from_millis(1), 500, 10_000 / div))])
        }
        Workload::CrashReplay => {
            let (n, duration_ms) = (16, 24_000 / div);
            let faults = crash_plan(n, seed, duration_ms);
            Plan::Runs(
                LoggingKind::ALL
                    .into_iter()
                    .map(|kind| {
                        let mut cfg = mesh(n, seed, SimDuration::from_millis(1), 250, duration_ms);
                        cfg.faults = faults.clone();
                        cfg.stop_on_crash = false;
                        (Algo::ocpt_logging(kind), cfg)
                    })
                    .collect(),
            )
        }
        Workload::Observatory => {
            let mut cfg = mesh(32, seed, SimDuration::from_millis(1), 500, 10_000 / div);
            cfg.trace = true;
            // With the observer on as well this run needs 800 MB.
            cfg.observe = false;
            Plan::Runs(vec![(ocpt, cfg)])
        }
        Workload::ExpGrid => {
            let p = exp_all_params(seed);
            let mut base = p.config();
            base.observe = false;
            Plan::Grids(
                exp_all_grids(p),
                GridOptions { jobs: 1, replicates: if eighth { 1 } else { 2 } },
                Box::new(base),
            )
        }
    };
    match (&mut plan, toggle) {
        (_, None) => {}
        (Plan::Runs(runs), Some(t)) => {
            for (_, cfg) in runs {
                match t {
                    Toggle::ObserverOff => cfg.observe = false,
                    Toggle::TraceOff => cfg.trace = false,
                    Toggle::HeapScheduler => cfg.scheduler = SchedulerKind::ReferenceHeap,
                    Toggle::Jobs2 => {}
                }
            }
        }
        (Plan::Grids(grids, opts, _), Some(t)) => match t {
            Toggle::HeapScheduler => {
                *grids = std::mem::take(grids)
                    .into_iter()
                    .map(|g| g.with_scheduler(SchedulerKind::ReferenceHeap))
                    .collect();
            }
            Toggle::Jobs2 => opts.jobs = 2,
            Toggle::ObserverOff | Toggle::TraceOff => {}
        },
    }
    plan
}

/// Correctness checks made and failed, with what failed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Checks {
    /// Checks made.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
}

impl Checks {
    /// Count `count` checks that passed.
    pub fn pass(&mut self, count: u64) {
        self.attempted += count;
    }

    /// Count one check, failed when `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }
}

/// What one repetition produced.
#[derive(Debug)]
pub struct Rep {
    /// Host seconds from the first call into the program to the last
    /// result being dropped.
    pub wall_s: f64,
    /// Hash of every run's `metrics_json()` (rendered tables for grids).
    pub digest: u64,
    /// Correctness checks.
    pub checks: Checks,
    /// Simulated statistics and counts by metric name, plus `_`-prefixed
    /// raw totals the per-layer pass needs. Pure functions of
    /// `(workload, seed)`.
    pub sim: BTreeMap<&'static str, f64>,
}

/// Accumulates simulated statistics over the runs of one repetition.
#[derive(Default)]
struct Census {
    /// Totals and maxima by metric name; `_`-prefixed keys are raw totals
    /// that only feed ratios and the per-layer pass.
    sums: BTreeMap<&'static str, f64>,
    round_latency_ms: Vec<f64>,
}

impl Census {
    fn add(&mut self, key: &'static str, v: f64) {
        *self.sums.entry(key).or_insert(0.0) += v;
    }

    fn max(&mut self, key: &'static str, v: f64) {
        let e = self.sums.entry(key).or_insert(v);
        *e = e.max(v);
    }

    fn get(&self, key: &str) -> f64 {
        self.sums.get(key).copied().unwrap_or(0.0)
    }

    fn absorb(&mut self, r: &RunResult) {
        let c = |name: &str| r.counters.get(name) as f64;
        self.add("_app_msgs", r.app_messages as f64);
        self.add("_piggyback_bytes", r.piggyback_bytes as f64);
        self.add("_complete_rounds", r.complete_rounds as f64);
        self.add("_bgn_suppressed", c("ctrl.bgn_suppressed"));
        self.add("sim.events", r.sim_events as f64);
        self.max("sim.peak_pending", r.peak_pending as f64);
        self.max("sim.arena_hwm", r.arena_hwm as f64);
        self.add("sim.clamped_events", r.clamped_events as f64);
        self.add("sim.msgs_lost_at_crash", r.messages_lost_at_crash as f64);
        self.add("sim.trace.events", r.trace.events().len() as f64);
        self.add("storage.requests", r.storage.total_requests as f64);
        self.add("storage.bytes", r.storage.total_bytes as f64);
        self.add("storage.contended_s", r.storage.contended_time.as_secs_f64());
        self.max("storage.write_latency_max_ms", r.storage.write_latency_max * 1e3);
        self.add("storage.gc_reclaimed", c("storage.gc_reclaimed"));
        self.max("storage_peak_writers", r.storage.peak_writers as f64);
        self.add("storage_stall_s", r.storage.total_stall.as_secs_f64());
        // Means are carried as weighted sums: latency by requests, writers
        // by simulated time.
        let requests = r.storage.total_requests as f64;
        self.add("_write_latency_ms_x_requests", r.storage.write_latency_mean * 1e3 * requests);
        self.add("_writers_x_makespan_s", r.storage.mean_writers * r.makespan.as_secs_f64());
        self.add("_makespan_s", r.makespan.as_secs_f64());
        self.add("core.ctrl_msgs", r.ctrl_messages as f64);
        self.add("core.ctrl_bytes", r.ctrl_bytes as f64);
        self.add("core.bgn_sent", c("ctrl.bgn_sent"));
        self.add("core.req_sent", c("ctrl.req_sent"));
        self.add("core.stale_ignored", c("ctrl.stale_ignored"));
        self.add("core.ckpt_tentative", c("ckpt.tentative"));
        self.add("core.ckpt_finalized", c("ckpt.finalized"));
        self.add("core.log_flushed_msgs", c("log.flushed_msgs"));
        self.add("core.log_flushed_bytes", c("log.flushed_bytes"));
        self.add("core.timers_set", c("timer.set"));
        self.add("harness.recoveries", c("recovery.performed"));
        self.add("harness.resent_msgs", c("recovery.resent_msgs"));
        self.add("harness.resend_unavailable", c("recovery.resend_unavailable"));
        self.add("harness.events_lost", c("recovery.events_lost"));
        self.add("harness.ckpts_invalidated", c("recovery.checkpoints_invalidated"));
        if let Some(obs) = &r.observer {
            self.add("causality.messages", obs.message_count() as f64);
        }
        self.round_latency_ms.extend(
            r.round_stats
                .iter()
                .filter(|s| s.completes == r.n)
                .map(|s| s.latency_ns() as f64 * 1e-6),
        );
    }

    /// Derive the ratios and hand the map over.
    fn finish(mut self) -> BTreeMap<&'static str, f64> {
        let app = self.get("_app_msgs");
        let suppressed = self.get("_bgn_suppressed");
        let ratios = [
            ("sim_events_per_app_msg", self.get("sim.events"), app),
            ("piggyback_bytes_per_msg", self.get("_piggyback_bytes"), app),
            ("durable_bytes_per_app_msg", self.get("storage.bytes"), app),
            ("ctrl_msgs_per_round", self.get("core.ctrl_msgs"), self.get("_complete_rounds")),
            (
                "storage.write_latency_mean_ms",
                self.get("_write_latency_ms_x_requests"),
                self.get("storage.requests"),
            ),
            ("storage.mean_writers", self.get("_writers_x_makespan_s"), self.get("_makespan_s")),
            ("core.bgn_suppressed_share", suppressed, suppressed + self.get("core.bgn_sent")),
        ];
        for (key, num, den) in ratios {
            if den > 0.0 {
                self.sums.insert(key, num / den);
            }
        }
        if let Some(p50) = percentile(&self.round_latency_ms, 0.5) {
            let max = self.round_latency_ms.iter().fold(0.0, |a: f64, b| a.max(*b));
            self.sums.insert("round_latency_ms_p50", p50);
            self.sums.insert("round_latency_ms_max", max);
        }
        self.sums
    }
}

/// The checks every direct run gets.
fn check_run(r: &RunResult, checks: &mut Checks) {
    checks.check(r.protocol_error.is_none(), || {
        format!("{}: protocol error {:?}", r.algo, r.protocol_error)
    });
    checks.check(r.counters.get("run.hit_horizon") == 0, || format!("{}: hit the horizon", r.algo));
}

/// Judge every complete `S_k` of `r` (Theorem 2) inside a span.
fn verify(rec: &mut Recorder, r: &RunResult, census: &mut Census, checks: &mut Checks) {
    match rec.span("causality.verify", |_| r.verify_consistency()) {
        Ok(judged) => {
            checks.pass(judged);
            census.add("causality.csns_judged", judged as f64);
        }
        Err(e) => checks.check(false, || format!("{}: {e}", r.algo)),
    }
}

/// Run one repetition of `plan` for `workload`.
pub fn execute(workload: Workload, plan: &Plan, rec: &mut Recorder) -> Rep {
    let mut census = Census::default();
    let mut checks = Checks::default();
    let mut digest = FNV_OFFSET;
    let deep_copies_before = ocpt_core::TentSet::deep_copies();
    let started = Instant::now();
    match plan {
        Plan::Runs(runs) => {
            for (algo, cfg) in runs {
                let strategy_span = match (workload, algo) {
                    (Workload::CrashReplay, Algo::Ocpt(c)) => match c.logging {
                        LoggingKind::Selective => "core.strategy.selective_wall",
                        LoggingKind::SenderBased => "core.strategy.sender_wall",
                        LoggingKind::ReceiverBased => "core.strategy.receiver_wall",
                        LoggingKind::CausalCompressed => "core.strategy.causal_wall",
                    },
                    _ => "harness.rep",
                };
                rec.span(strategy_span, |rec| {
                    let r = rec.span("harness.run", |_| run(algo, cfg.clone()));
                    check_run(&r, &mut checks);
                    census.absorb(&r);
                    digest = fnv1a(digest, r.metrics_json().as_bytes());
                    if r.observer.is_some() {
                        verify(rec, &r, &mut census, &mut checks);
                    }
                    match workload {
                        Workload::CrashReplay => replay_checks(rec, &r, &mut census, &mut checks),
                        Workload::Observatory => observe(rec, &r, &mut census),
                        _ => {}
                    }
                    rec.span("harness.drop", |_| drop(r));
                });
            }
        }
        Plan::Grids(grids, opts, base) => {
            for g in grids {
                let out = rec.span("harness.grid", |_| g.run(opts));
                digest = fnv1a(digest, out.table.render().as_bytes());
                census.add("harness.grid.runs", out.runs as f64);
                census.add("_grid_events", out.sim_events as f64);
            }
            // A grid hands back tables, not counters: this workload's
            // per-message statistics are those of one direct run of the
            // configuration the grids vary.
            let r = rec.span("harness.run", |_| run(&Algo::ocpt(), RunConfig::clone(base)));
            check_run(&r, &mut checks);
            census.absorb(&r);
            digest = fnv1a(digest, r.metrics_json().as_bytes());
        }
    }
    let wall_s = started.elapsed().as_secs_f64();
    census.add(
        "core.tentset_deep_copies",
        (ocpt_core::TentSet::deep_copies() - deep_copies_before) as f64,
    );
    let grid_events = census.get("_grid_events");
    let mut sim = census.finish();
    // Ratios are per message of the direct run; the event total is everyone's.
    *sim.entry("sim.events").or_insert(0.0) += grid_events;
    Rep { wall_s, digest, checks, sim }
}

/// `crash_replay`: restore every process at the recovery line and compare
/// with the ground truth, then cost the durable log.
fn replay_checks(rec: &mut Recorder, r: &RunResult, census: &mut Census, checks: &mut Checks) {
    let line = r.recovery_line;
    match rec.span("harness.restore_verify", |_| verify_restored_states(r, line)) {
        Ok(restored) => checks.pass(restored as u64),
        Err(e) => checks.check(false, || format!("{}: {e}", r.algo)),
    }
    match rec.span("harness.log_report", |_| log_recovery_report(r)) {
        Ok(report) if r.algo == "ocpt" => {
            checks.check(report.orphans == 0, || format!("selective: {} orphans", report.orphans));
            checks.check(report.lost_in_transit == 0, || {
                format!("selective: {} lost in transit", report.lost_in_transit)
            });
        }
        Ok(report) => {
            census.add("harness.gap_orphans", report.orphans as f64);
            census.add("harness.gap_lost_in_transit", report.lost_in_transit as f64);
        }
        Err(e) => checks.check(false, || format!("{}: {e}", r.algo)),
    }
}

/// `observatory`: export the trace and run every analysis over it.
fn observe(rec: &mut Recorder, r: &RunResult, census: &mut Census) {
    let text = rec.span("telemetry.to_jsonl", |_| r.trace_jsonl());
    let file = rec
        .span("telemetry.parse", |_| ocpt_telemetry::parse_jsonl(&text))
        .expect("the exporter's own output parses");
    let spans = rec.span("telemetry.spans", |_| ocpt_telemetry::derive_spans(&file.recs));
    let paths = rec.span("telemetry.critpath", |_| ocpt_telemetry::critical_path(&file));
    let timeline = rec.span("telemetry.timeline", |_| {
        ocpt_telemetry::timeline(&file, ocpt_telemetry::DEFAULT_BUCKETS)
    });
    let health = rec.span("telemetry.health", |_| ocpt_telemetry::health(&file));
    census.add("telemetry.jsonl_bytes", text.len() as f64);
    census.add("telemetry.bytes_per_event", text.len() as f64 / file.recs.len().max(1) as f64);
    census.add("telemetry.health_green", u8::from(health.is_green()).into());
    std::hint::black_box((spans, paths, timeline));
}

/// `baselines.*_ms_per_run`: each comparison algorithm run directly on the
/// grids' base configuration, three seeds each, median milliseconds.
pub fn baseline_runs(seed: u64, scale: Scale, rec: &mut Recorder) -> Vec<(&'static str, f64)> {
    let mut base = exp_all_params(seed);
    if scale == Scale::Eighth {
        base.workload_ms /= 8;
    }
    Algo::comparison_set()
        .into_iter()
        .map(|algo| {
            let ms: Vec<f64> = (0..3)
                .map(|i| {
                    let cfg = ExpParams { seed: seed + i, ..base }.config();
                    let t = Instant::now();
                    drop(rec.span("baselines.run", |_| run(&algo, cfg)));
                    t.elapsed().as_secs_f64() * 1e3
                })
                .collect();
            (algo.name(), crate::stats::median(&ms))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_match_the_catalog_order() {
        for (w, (name, _)) in Workload::ALL.into_iter().zip(crate::catalog::WORKLOADS) {
            assert_eq!(w.name(), *name);
            assert_eq!(Workload::parse(name), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn crash_plan_is_a_function_of_the_seed_and_validates() {
        let a = crash_plan(16, 7, 24_000);
        assert_eq!(a, crash_plan(16, 7, 24_000));
        assert_ne!(a, crash_plan(16, 8, 24_000));
        assert_eq!(a.faults().len(), 19);
        a.validate(16).expect("no overlapping down-times");
        assert!(a.faults().iter().all(|f| f.at <= SimTime::from_millis(23_000)));
    }

    #[test]
    fn toggles_reach_every_run_of_a_plan() {
        let Plan::Runs(runs) =
            plan(Workload::CrashReplay, 1, Scale::Eighth, Some(Toggle::ObserverOff))
        else {
            panic!("crash_replay is direct runs");
        };
        assert_eq!(runs.len(), 4);
        assert!(runs.iter().all(|(_, cfg)| !cfg.observe && !cfg.stop_on_crash));
        let Plan::Grids(grids, opts, base) =
            plan(Workload::ExpGrid, 1, Scale::Full, Some(Toggle::Jobs2))
        else {
            panic!("exp_grid is grids");
        };
        assert_eq!((grids.len(), opts.jobs, opts.replicates, base.sim.n), (10, 2, 2, 8));
    }
}
