//! The reconstructed evaluation (DESIGN.md §4): one function per
//! experiment declaring its [`RunGrid`], and the [`CATALOG`] that gives
//! each experiment its id and its one sweep per [`Scale`] — what
//! `ocpt exp <id>` executes and prints.
//!
//! The paper omitted its performance-evaluation section for space; these
//! experiments test the paper's *claims* (§Abstract, §1, §3.5.1) on the
//! simulated substrate, against the comparators of §4. Absolute numbers
//! are properties of the substrate parameters; the *shapes* — who
//! contends, whose control traffic vanishes, who blocks, who dominoes —
//! are the reproduction targets recorded in `EXPERIMENTS.md`.
//!
//! Every function returns a [`RunGrid`] rather than a finished table:
//! cells are declared in row order and executed by the grid engine with
//! whatever `--jobs`/`--replicates` the caller picks, and the output is
//! bit-identical however many workers run it (see `grid`).

use ocpt_core::LoggingKind;
use ocpt_metrics::{Quantiles, Table};
use ocpt_sim::{Fault, FaultPlan, ProcessId, SimDuration, SimTime};

use crate::algo::Algo;
use crate::analysis::{
    coordinated_rollback, domino_rollback, log_recovery_report, verify_restored_states,
    LogRecoveryReport,
};
use crate::grid::{ColFmt, GridOptions, RunGrid};
use crate::runner::{RunConfig, RunResult};
use crate::workload::WorkloadSpec;

use ColFmt::{Int, F2, F3};

/// Common experiment parameters.
#[derive(Clone, Copy, Debug)]
pub struct ExpParams {
    /// System size.
    pub n: usize,
    /// Master seed.
    pub seed: u64,
    /// Virtual seconds of workload per run.
    pub workload_ms: u64,
    /// Mean inter-send gap per process.
    pub msg_gap: SimDuration,
    /// Checkpoint initiation interval.
    pub ckpt_interval: SimDuration,
    /// Process image size in bytes.
    pub state_bytes: u64,
}

impl Default for ExpParams {
    fn default() -> Self {
        ExpParams {
            n: 8,
            seed: 42,
            workload_ms: 3_000,
            msg_gap: SimDuration::from_millis(5),
            ckpt_interval: SimDuration::from_millis(500),
            state_bytes: 1024 * 1024,
        }
    }
}

impl ExpParams {
    /// Build the base run configuration.
    pub fn config(&self) -> RunConfig {
        let mut cfg = RunConfig::new(self.n, self.seed);
        cfg.workload = WorkloadSpec::uniform_mesh(self.msg_gap);
        cfg.checkpoint_interval = self.ckpt_interval;
        cfg.state_bytes = self.state_bytes;
        cfg.workload_duration = SimDuration::from_millis(self.workload_ms);
        cfg.sim = cfg
            .sim
            .with_horizon(SimDuration::from_millis(self.workload_ms) + SimDuration::from_secs(30));
        cfg
    }
}

fn ms_label(d: SimDuration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e3)
}

fn to_ms(d: SimDuration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// State size that keeps storage utilisation `n·state/(interval·BW)` at a
/// fixed ~25% for the default 50 MB/s server. Contention experiments sweep
/// N at *constant utilisation*: past ρ = 1 the server saturates and every
/// algorithm contends by necessity, which measures overload, not write
/// scheduling.
pub fn scaled_state_bytes(n: usize, interval: SimDuration) -> u64 {
    let bw = 50.0 * 1024.0 * 1024.0;
    ((0.25 * bw * interval.as_secs_f64()) / n as f64) as u64
}

/// **E1 — stable-storage contention.** The paper's headline claim:
/// "prevents contention for network storage at the file server".
/// Sweeps N over every algorithm; reports peak and mean concurrent
/// writers, contended time and total stall.
pub fn e1_contention(ns: &[usize], base: ExpParams) -> RunGrid {
    let mut g = RunGrid::new(
        "E1: stable-storage contention vs N (peak/mean concurrent writers, stall)",
        &["algo", "n"],
        &[
            ("peak_writers", Int),
            ("mean_writers", F3),
            ("contended_ms", F2),
            ("stall_ms", F2),
            ("write_lat_ms", F2),
        ],
    );
    for &n in ns {
        for algo in Algo::comparison_set() {
            let p = ExpParams { n, state_bytes: scaled_state_bytes(n, base.ckpt_interval), ..base };
            g.cell(&[algo.name().into(), n.to_string()], algo, p.config(), |r| {
                vec![
                    r.storage.peak_writers as f64,
                    r.storage.mean_writers,
                    to_ms(r.storage.contended_time),
                    to_ms(r.storage.total_stall),
                    r.storage.write_latency_mean * 1e3,
                ]
            });
        }
    }
    g
}

/// **E2 — checkpointing overhead.** "reduces the checkpointing overhead":
/// blocked application time (Koo–Toueg), forced pre-processing delay
/// (CIC), storage stall, and checkpoint-round latency, per algorithm.
pub fn e2_overhead(intervals: &[SimDuration], base: ExpParams) -> RunGrid {
    let mut g = RunGrid::new(
        "E2: checkpointing overhead components per algorithm",
        &["algo", "interval_ms"],
        &[
            ("rounds", Int),
            ("blocked_ms", F2),
            ("forced_ms", F2),
            ("stall_ms", F2),
            ("round_latency_ms", F2),
        ],
    );
    for &iv in intervals {
        for algo in Algo::comparison_set() {
            let p = ExpParams {
                ckpt_interval: iv,
                state_bytes: base.state_bytes.min(scaled_state_bytes(base.n, iv)),
                ..base
            };
            g.cell(&[algo.name().into(), ms_label(iv)], algo, p.config(), |r| {
                vec![
                    r.complete_rounds as f64,
                    to_ms(r.blocked_time),
                    to_ms(r.forced_delay),
                    to_ms(r.storage.total_stall),
                    r.ckpt_latency.mean() * 1e3,
                ]
            });
        }
    }
    g
}

/// **E3 / A1 — control-message cost.** "limited amount of control
/// messages are generated only when necessary": CK_BGN/CK_REQ/CK_END per
/// completed round as the application message rate varies, for the
/// optimized and naive control layers.
pub fn e3_control_messages(gaps: &[SimDuration], base: ExpParams) -> RunGrid {
    let mut g = RunGrid::new(
        "E3/A1: OCPT control messages per completed round vs app message rate",
        &["variant", "msg_gap_ms"],
        &[
            ("rounds", Int),
            ("bgn/rnd", F2),
            ("req/rnd", F2),
            ("end/rnd", F2),
            ("timer_exp/rnd", F2),
        ],
    );
    for &gap in gaps {
        for algo in [Algo::ocpt(), Algo::ocpt_naive()] {
            let p = ExpParams { msg_gap: gap, ..base };
            // Aligned initiation: all processes take the tentative
            // checkpoint concurrently, so convergence genuinely depends on
            // knowledge spreading — the regime the control layer exists
            // for (with staggered phases, the initiator is effectively a
            // coordinator and CK_BGN is never needed).
            let mut cfg = p.config();
            cfg.stagger_initiation = false;
            g.cell(&[algo.name().into(), ms_label(gap)], algo, cfg, |r| {
                let rounds = r.complete_rounds.max(1) as f64;
                vec![
                    r.complete_rounds as f64,
                    r.counters.get("ctrl.bgn_sent") as f64 / rounds,
                    r.counters.get("ctrl.req_sent") as f64 / rounds,
                    r.counters.get("ctrl.end_sent") as f64 / rounds,
                    r.counters.get("timer.expired") as f64 / rounds,
                ]
            });
        }
    }
    g
}

/// **E4 / A3 — convergence latency.** Theorem 1 made quantitative: time
/// from a round's first tentative checkpoint to its last finalization, as
/// the message rate and the convergence timeout vary.
pub fn e4_convergence(gaps: &[SimDuration], timeouts: &[SimDuration], base: ExpParams) -> RunGrid {
    let mut g = RunGrid::new(
        "E4/A3: convergence latency vs app rate and timer",
        &["msg_gap_ms", "timeout_ms"],
        &[("rounds", Int), ("latency_mean_ms", F2), ("latency_max_ms", F2), ("timer_exp/rnd", F2)],
    );
    for &gap in gaps {
        for &to in timeouts {
            let ocfg = ocpt_core::OcptConfig { convergence_timeout: to, ..Default::default() };
            let p = ExpParams { msg_gap: gap, ..base };
            g.cell(&[ms_label(gap), ms_label(to)], Algo::Ocpt(ocfg), p.config(), |r| {
                let rounds = r.complete_rounds.max(1) as f64;
                vec![
                    r.complete_rounds as f64,
                    r.ckpt_latency.mean() * 1e3,
                    r.ckpt_latency.max() * 1e3,
                    r.counters.get("timer.expired") as f64 / rounds,
                ]
            });
        }
    }
    g
}

/// **E5 — selective-logging cost.** Bytes and messages logged per
/// checkpoint vs an always-log-everything scheme (classic message
/// logging), plus the volatile staging footprint.
pub fn e5_logging(gaps: &[SimDuration], base: ExpParams) -> RunGrid {
    let mut g = RunGrid::new(
        "E5: selective message logging vs full logging",
        &["msg_gap_ms"],
        &[
            ("rounds", Int),
            ("logged_msgs/rnd", F2),
            ("logged_kb/rnd", F2),
            ("full_log_kb/rnd", F2),
            ("selective_share", F3),
            ("staging_peak_mb", F2),
        ],
    );
    for &gap in gaps {
        let p = ExpParams { msg_gap: gap, ..base };
        g.cell(&[ms_label(gap)], Algo::ocpt(), p.config(), |r| {
            let rounds = r.complete_rounds.max(1) as f64;
            let logged_bytes = r.counters.get("log.flushed_bytes") as f64;
            // Full logging would persist every message (payload + metadata),
            // counted on both the sender and receiver side, as OCPT does
            // within its windows.
            let meta = ocpt_core::log::ENTRY_META_BYTES as f64;
            let full = 2.0 * (r.app_payload_bytes as f64 + r.app_messages as f64 * meta);
            vec![
                r.complete_rounds as f64,
                r.counters.get("log.flushed_msgs") as f64 / rounds,
                logged_bytes / rounds / 1024.0,
                full / rounds / 1024.0,
                logged_bytes / full.max(1.0),
                r.staging_peak as f64 / (1024.0 * 1024.0),
            ]
        });
    }
    g
}

/// **E6 — piggyback overhead.** Measured piggyback bytes per application
/// message vs N (the adaptive encoding: sparse id-list / interval runs /
/// dense bitmap, whichever is smallest), against the dense-bitmap formula
/// `8 + 1 + ⌈N/8⌉` a fixed encoding would pay, and the share of total
/// traffic the piggyback represents.
pub fn e6_piggyback(ns: &[usize], base: ExpParams) -> RunGrid {
    let mut g = RunGrid::new(
        "E6: piggyback overhead vs N",
        &["n"],
        &[("piggy_B/msg", F2), ("dense_B/msg", F2), ("piggy_share_of_traffic", F3)],
    );
    for &n in ns {
        let p = ExpParams { n, ..base };
        g.cell(&[n.to_string()], Algo::ocpt(), p.config(), move |r| {
            let per_msg = r.piggyback_bytes as f64 / r.app_messages.max(1) as f64;
            let theory = ocpt_core::Piggyback::dense_wire_bytes_for(n) as f64;
            let share = r.piggyback_bytes as f64
                / (r.app_payload_bytes + r.piggyback_bytes + r.ctrl_bytes).max(1) as f64;
            vec![per_msg, theory, share]
        });
    }
    g
}

/// **E7 — recovery and the domino effect.** Crash one process mid-run;
/// compare work lost under OCPT's coordinated rollback to `S_k` against
/// uncoordinated checkpointing's rollback-propagation fixpoint. Also
/// verifies OCPT's restored states byte-for-byte (CT + log replay);
/// `restored_verified` is `-` for baselines that make no such promise.
pub fn e7_recovery(base: ExpParams, crash_ms: u64) -> RunGrid {
    let mut g = RunGrid::new(
        "E7: rollback after a crash (domino effect)",
        &["algo"],
        &[
            ("events_total", Int),
            ("events_lost", Int),
            ("procs_rolled_back", Int),
            ("to_initial", Int),
            ("cascade_rounds", Int),
            ("restored_verified", Int),
        ],
    );
    let victim = ProcessId((base.n / 2) as u32);
    let faults =
        FaultPlan::single(victim, SimTime::from_millis(crash_ms), SimDuration::from_millis(10));
    for algo in [Algo::ocpt(), Algo::Uncoordinated] {
        let mut cfg = base.config();
        cfg.faults = faults.clone();
        cfg.stop_on_crash = true;
        let coordinated = matches!(algo, Algo::Ocpt(_));
        g.cell(&[algo.name().into()], algo, cfg, move |r| {
            let obs = r.observer.as_ref().expect("observer required for E7");
            let total: u64 = obs.positions().iter().sum();
            let (report, verified) = if coordinated {
                let line = r.recovery_line;
                let v = verify_restored_states(r, line)
                    .unwrap_or_else(|e| panic!("restore verification failed: {e}"));
                (coordinated_rollback(obs, line), v as f64)
            } else {
                (domino_rollback(obs, victim), f64::NAN)
            };
            vec![
                total as f64,
                report.events_lost as f64,
                report.processes_rolled_back as f64,
                report.rolled_to_initial as f64,
                report.cascade_rounds as f64,
                verified,
            ]
        });
    }
    g
}

/// **E8 — message response time.** "no checkpoint needs to be taken
/// before processing any received message": forced pre-processing
/// checkpoints and the delay they add, OCPT vs CIC.
pub fn e8_response_time(gaps: &[SimDuration], base: ExpParams) -> RunGrid {
    let mut g = RunGrid::new(
        "E8: forced checkpoints before message processing (response-time penalty)",
        &["algo", "msg_gap_ms"],
        &[
            ("delivered", Int),
            ("forced_ckpts", Int),
            ("forced_delay_ms", F2),
            ("avg_penalty_us/msg", F2),
        ],
    );
    for &gap in gaps {
        for algo in [Algo::ocpt(), Algo::Cic] {
            let p = ExpParams { msg_gap: gap, ..base };
            g.cell(&[algo.name().into(), ms_label(gap)], algo, p.config(), |r| {
                let delivered = r.counters.get("app.delivered").max(1);
                vec![
                    delivered as f64,
                    r.counters.get("ckpt.forced_before_processing") as f64,
                    to_ms(r.forced_delay),
                    r.forced_delay.as_secs_f64() * 1e6 / delivered as f64,
                ]
            });
        }
    }
    g
}

/// **A2 — storage write placement ablation.** The paper's contention
/// claim hinges on *when* checkpoints are written, not when they are
/// decided: eager/immediate placements recreate synchronous clustering;
/// jittered and pid-phased placements de-cluster it for free. The price
/// is recovery-line lag, which the table reports alongside.
pub fn a2_flush_policy(base: ExpParams) -> RunGrid {
    use ocpt_core::{FlushPolicy, WritePolicy};
    let mut g = RunGrid::new(
        "A2: OCPT write-placement ablation (tentative flush × finalize write)",
        &["policy"],
        &[
            ("peak_writers", Int),
            ("contended_ms", F2),
            ("stall_ms", F2),
            ("round_latency_ms", F2),
            ("recovery_line", Int),
            ("rounds", Int),
            ("staging_peak_mb", F2),
        ],
    );
    let window = SimDuration::from_millis(400.min(base.ckpt_interval.as_nanos() / 2_000_000));
    let policies: [(&str, FlushPolicy, WritePolicy); 4] = [
        ("eager+immediate", FlushPolicy::Eager, WritePolicy::Immediate),
        ("lazy+immediate", FlushPolicy::Lazy, WritePolicy::Immediate),
        ("lazy+jittered", FlushPolicy::Lazy, WritePolicy::Jittered { window }),
        ("lazy+phased", FlushPolicy::Lazy, WritePolicy::Phased { window }),
    ];
    for (name, flush, write) in policies {
        let ocfg = ocpt_core::OcptConfig {
            flush_policy: flush,
            finalize_write: write,
            ..Default::default()
        };
        g.cell(&[name.into()], Algo::Ocpt(ocfg), base.config(), |r| {
            vec![
                r.storage.peak_writers as f64,
                to_ms(r.storage.contended_time),
                to_ms(r.storage.total_stall),
                r.ckpt_latency.mean() * 1e3,
                r.recovery_line as f64,
                r.complete_rounds as f64,
                r.staging_peak as f64 / (1024.0 * 1024.0),
            ]
        });
    }
    g
}

/// The three E10 fault patterns, shared by [`e10_log_matrix`] and
/// [`health_matrix`] (so both tables describe the same schedules): a
/// **single** mid-run crash of `P_{n/2}`, a **correlated** crash of three
/// neighbours at the same instant, and a crash **during-finalize** — just
/// past the next checkpoint-interval boundary, while the round's phased
/// finalize writes are still in flight and the durable line lags.
pub fn e10_fault_patterns(base: &ExpParams, crash_ms: u64) -> Vec<(&'static str, FaultPlan)> {
    let n = base.n;
    let down = SimDuration::from_millis(10);
    let victim = |k: usize| ProcessId(((n / 2 + k) % n) as u32);
    let single = FaultPlan::single(victim(0), SimTime::from_millis(crash_ms), down);
    // Three processes die at the same instant — a rack failure. The line
    // and the analysis are unchanged mechanics; what moves is how much of
    // the durable log the strategies can still use.
    let correlated = (0..3).fold(FaultPlan::none(), |p, k| {
        p.with(Fault { pid: victim(k), at: SimTime::from_millis(crash_ms), down_for: Some(down) })
    });
    let iv_ms = base.ckpt_interval.as_nanos() / 1_000_000;
    let boundary_ms = (crash_ms / iv_ms + 1) * iv_ms + iv_ms / 20;
    let during_finalize = FaultPlan::single(victim(0), SimTime::from_millis(boundary_ms), down);
    vec![("single", single), ("correlated", correlated), ("during-finalize", during_finalize)]
}

/// **E10 — logging-strategy × fault-pattern matrix.** The four
/// [`ocpt_core::LoggingKind`]s under three fault shapes: a single mid-run
/// crash, a correlated three-node crash (same instant), and a crash landed
/// just inside the finalize write window (when the new round's writes are
/// still in flight, so the durable line lags a full round). Per cell: the
/// durable log footprint at the recovery line and the modeled replay cost
/// — locally replayed events, peer fetches, orphaned determinants and
/// in-transit losses (see [`crate::analysis::log_recovery_report`]).
///
/// The expected shape: *selective* pays a small windowed log with zero
/// gaps; *sender* buys in-transit immunity with a continuous log;
/// *receiver* logs the most bytes yet is the only one that loses
/// in-transit messages; *causal* shrinks the window to determinants and
/// pays for it in fetch round-trips and (when a send predates the window)
/// orphans.
///
/// `only` restricts the grid to a single strategy (the `--strategy` flag
/// of `ocpt exp`); `None` runs the full matrix.
pub fn e10_log_matrix(base: ExpParams, crash_ms: u64, only: Option<LoggingKind>) -> RunGrid {
    let mut g = RunGrid::new(
        "E10: logging strategy × fault pattern (durable log bytes vs replay cost)",
        &["strategy", "fault"],
        &[
            ("line", Int),
            ("log_kb", F2),
            ("replay_ms", F3),
            ("replayed", Int),
            ("fetched", Int),
            ("orphans", Int),
            ("lost_in_transit", Int),
        ],
    );
    strategy_fault_cells(&mut g, base, &e10_fault_patterns(&base, crash_ms), only, |_, rep| {
        vec![
            rep.line as f64,
            rep.log_bytes as f64 / 1024.0,
            rep.replay_time.as_secs_f64() * 1e3,
            rep.replayed_local as f64,
            rep.fetched as f64,
            rep.orphans as f64,
            rep.lost_in_transit as f64,
        ]
    });
    g
}

/// Declare the `strategy × fault` cells the two logging-lab grids share:
/// every [`LoggingKind`] (or just `only`) under each pattern, the run
/// stopping at the crash when the pattern has one, with `metrics` reading
/// the run and its recovery analysis at the durable line.
fn strategy_fault_cells(
    g: &mut RunGrid,
    base: ExpParams,
    patterns: &[(&'static str, FaultPlan)],
    only: Option<LoggingKind>,
    metrics: fn(&RunResult, &LogRecoveryReport) -> Vec<f64>,
) {
    for kind in LoggingKind::ALL {
        if only.is_some_and(|o| o != kind) {
            continue;
        }
        for (fault_name, faults) in patterns {
            let mut cfg = base.config();
            cfg.stop_on_crash = !faults.is_empty();
            cfg.faults = faults.clone();
            let labels = [kind.name().into(), (*fault_name).into()];
            g.cell(&labels, Algo::ocpt_logging(kind), cfg, move |r| {
                let rep = log_recovery_report(r)
                    .unwrap_or_else(|e| panic!("log recovery analysis failed: {e}"));
                metrics(r, &rep)
            });
        }
    }
}

/// One cell of the **E9 scale sweep**: system size `n` with traffic,
/// horizon and state size scaled so a run stays within a few hundred
/// thousand simulator events at any N — the sweep measures *per-process
/// protocol cost*, not raw event throughput.
///
/// The omniscient consistency observer is the one component that cannot
/// reach N = 100k, and what caps it is exactly one term: two dense vector
/// clocks per process, 2 N² words allocated by `GlobalObserver::new` —
/// 16 MB at N = 1 000, 160 GB at N = 100k — of which every message copies
/// and merges one. (Its per-message memory is a 48-byte row, and sender
/// clocks are held only while in flight.) It stays on at the small sizes,
/// where it verifies every collected checkpoint, and off above 1 000 — the
/// protocol code paths are identical either way, and the flat-vs-grouped
/// differential tests cover the large-N topology.
pub fn scale_config(n: usize, seed: u64) -> RunConfig {
    let (gap_ms, dur_ms) = match n {
        0..=1_000 => (10, 1_500),
        1_001..=20_000 => (50, 800),
        _ => (400, 400),
    };
    let mut cfg = RunConfig::new(n, seed);
    cfg.workload = WorkloadSpec::uniform_mesh(SimDuration::from_millis(gap_ms));
    cfg.checkpoint_interval = SimDuration::from_millis(200);
    cfg.workload_duration = SimDuration::from_millis(dur_ms);
    cfg.state_bytes = 1024;
    cfg.observe = n <= 1_000;
    cfg.sim = cfg.sim.with_horizon(SimDuration::from_secs(30));
    cfg
}

/// **E9 — protocol scaling.** Piggyback bytes per application message
/// under the adaptive tentSet encoding vs the dense `⌈N/8⌉` formula, and
/// control messages per collected round under the (Auto-selected)
/// topology: the flat ring up to 512 processes, `⌈√N⌉` groups beyond
/// (`group_size` is `-` on the flat ring). The trailing columns are what
/// the simulator paid for the cell: events per application message and,
/// of those events, the storage wakeups.
pub fn exp_scale(ns: &[usize], seed: u64) -> RunGrid {
    let mut g = RunGrid::new(
        "E9: scaling — adaptive piggyback + hierarchical control waves",
        &["n"],
        &[
            ("piggy_B/msg", F2),
            ("dense_B/msg", F2),
            ("savings_x", F2),
            ("ctrl/round", F2),
            ("rounds", Int),
            ("app_msgs", Int),
            ("ctrl_msgs", Int),
            ("group_size", Int),
            ("events/msg", F2),
            ("storage_wakeups", Int),
        ],
    );
    let topology = ocpt_core::OcptConfig::default().control_topology;
    for &n in ns {
        g.cell(&[n.to_string()], Algo::ocpt(), scale_config(n, seed), move |r| {
            assert!(r.complete_rounds >= 1, "n={n}: no round completed");
            let msgs = r.app_messages.max(1) as f64;
            let per_msg = r.piggyback_bytes as f64 / msgs;
            let dense = ocpt_core::Piggyback::dense_wire_bytes_for(n) as f64;
            let rounds = r.complete_rounds.max(1) as f64;
            vec![
                per_msg,
                dense,
                dense / per_msg.max(1.0),
                r.ctrl_messages as f64 / rounds,
                r.complete_rounds as f64,
                r.app_messages as f64,
                r.ctrl_messages as f64,
                topology.group_size(n).map_or(f64::NAN, f64::from),
                r.sim_events as f64 / msgs,
                r.event_census.storage_done as f64,
            ]
        });
    }
    g
}

/// **Health — per-strategy protocol health.** The four
/// [`ocpt_core::LoggingKind`]s under the fault-free baseline (`none`)
/// plus the three [`e10_fault_patterns`]: what the `ocpt-health` trace
/// report tracks per run, measured per strategy. Round latency is
/// reported as the count of globally complete rounds, their median and
/// their maximum — a run completes 3–9 rounds, which supports no higher
/// percentile; log growth and the gap counters come from
/// [`log_recovery_report`] at the run's durable line.
pub fn health_matrix(base: ExpParams, crash_ms: u64, only: Option<LoggingKind>) -> RunGrid {
    let mut g = RunGrid::new(
        "Health: logging strategy × fault pattern (round latency, log growth, gaps)",
        &["strategy", "fault"],
        &[
            ("rounds", Int),
            ("p50_ms", F3),
            ("max_ms", F3),
            ("line", Int),
            ("app_msgs", Int),
            ("log_B/msg", F2),
            ("orphans", Int),
            ("lost_in_transit", Int),
        ],
    );
    let mut patterns = vec![("none", FaultPlan::none())];
    patterns.extend(e10_fault_patterns(&base, crash_ms));
    strategy_fault_cells(&mut g, base, &patterns, only, |r, rep| {
        let mut latency = Quantiles::new();
        for s in r.round_stats.iter().filter(|s| s.completes == r.n) {
            latency.record(s.latency_ns() as f64 / 1e6);
        }
        vec![
            r.complete_rounds as f64,
            latency.try_quantile(0.5).unwrap_or(f64::NAN),
            latency.try_quantile(1.0).unwrap_or(f64::NAN),
            rep.line as f64,
            r.app_messages as f64,
            rep.log_bytes as f64 / r.app_messages.max(1) as f64,
            rep.orphans as f64,
            rep.lost_in_transit as f64,
        ]
    });
    g
}

/// How large a sweep a catalog experiment runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Reduced problem sizes for smoke runs (`--quick`).
    Quick,
    /// The published sweep (`EXPERIMENTS.md`).
    Full,
}

impl Scale {
    /// The name stamped into reports.
    pub fn name(self) -> &'static str {
        self.pick("quick", "full")
    }

    /// Base experiment parameters at this scale.
    pub fn params(self, seed: u64) -> ExpParams {
        // Storage utilisation n·state/(interval·bandwidth) ≈ 0.3: the
        // server is busy but not saturated, so contention measures write
        // *clustering*, not overload.
        let full = ExpParams {
            n: 8,
            seed,
            workload_ms: 10_000,
            msg_gap: SimDuration::from_millis(5),
            ckpt_interval: SimDuration::from_secs(1),
            state_bytes: 2 * 1024 * 1024,
        };
        let quick = ExpParams {
            n: 4,
            workload_ms: 1_000,
            ckpt_interval: SimDuration::from_millis(250),
            state_bytes: 512 * 1024,
            ..full
        };
        self.pick(quick, full)
    }

    /// `quick` or `full`, whichever this scale is.
    fn pick<T>(self, quick: T, full: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }
}

/// One entry of the experiment [`CATALOG`]: the id `ocpt exp <id>` selects
/// it by and the function declaring its grid — its one sweep at the scale,
/// over the scale's base parameters.
pub enum Experiment {
    /// An experiment with no logging-strategy axis.
    Plain(&'static str, fn(Scale, ExpParams) -> RunGrid),
    /// An experiment that sweeps the logging strategies, or just the one
    /// given (`--strategy`).
    ByStrategy(&'static str, fn(Scale, ExpParams, Option<LoggingKind>) -> RunGrid),
}

use Experiment::{ByStrategy, Plain};

impl Experiment {
    /// What `ocpt exp <id>` selects the experiment by.
    pub fn id(&self) -> &'static str {
        match self {
            Plain(id, _) | ByStrategy(id, _) => id,
        }
    }

    /// Whether `--strategy` can restrict the experiment.
    pub fn strategy_axis(&self) -> bool {
        matches!(self, ByStrategy(..))
    }

    /// The experiment's grid at `scale` under master seed `seed`; `only`
    /// restricts a [`Self::strategy_axis`] experiment to one strategy and
    /// is ignored by the others.
    pub fn grid(&self, scale: Scale, seed: u64, only: Option<LoggingKind>) -> RunGrid {
        match self {
            Plain(_, build) => build(scale, scale.params(seed)),
            ByStrategy(_, build) => build(scale, scale.params(seed), only),
        }
    }
}

fn ms(millis: &[u64]) -> Vec<SimDuration> {
    millis.iter().map(|&m| SimDuration::from_millis(m)).collect()
}

/// Every reconstructed experiment with its single sweep per [`Scale`]
/// (`quick`, then `full`), in the order `ocpt exp all` runs them. A1 and
/// A3 are the naive rows of E3 and the timer axis of E4; the logging lab
/// (E10, health) crashes at 0.6 s / 4 s.
pub const CATALOG: &[Experiment] = &[
    Plain("e1", |s, p| e1_contention(s.pick(&[4, 8], &[4, 8, 16, 32, 64]), p)),
    Plain("e2", |s, p| e2_overhead(&ms(s.pick(&[250], &[250, 500, 1000, 2000])), p)),
    Plain("e3", |s, p| {
        e3_control_messages(&ms(s.pick(&[2, 50], &[1, 2, 5, 20, 100, 200, 400])), p)
    }),
    Plain("e4", |s, p| {
        let timeouts = ms(s.pick(&[100, 400], &[50, 125, 250, 500, 1000]));
        e4_convergence(&ms(s.pick(&[5], &[2, 20, 200])), &timeouts, p)
    }),
    Plain("e5", |s, p| e5_logging(&ms(s.pick(&[5], &[1, 2, 5, 20])), p)),
    Plain("e6", |s, p| e6_piggyback(s.pick(&[4, 16], &[4, 8, 16, 32, 64, 128, 256]), p)),
    Plain("e7", |_, p| e7_recovery(p, p.workload_ms * 3 / 4)),
    Plain("e8", |s, p| e8_response_time(&ms(s.pick(&[5], &[1, 2, 5, 20])), p)),
    Plain("e9", |s, p| exp_scale(s.pick(&[64, 600], &[100, 1_000, 10_000, 100_000]), p.seed)),
    ByStrategy("e10", |s, p, only| e10_log_matrix(p, s.pick(600, 4_000), only)),
    Plain("a2", |_, p| a2_flush_policy(p)),
    ByStrategy("health", |s, p, only| health_matrix(p, s.pick(600, 4_000), only)),
];

/// Serial convenience used by tests and examples: run a grid with one
/// worker and one replicate.
pub fn run_serial(grid: &RunGrid) -> Table {
    grid.table(&GridOptions::serial())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> ExpParams {
        ExpParams {
            n: 4,
            workload_ms: 800,
            msg_gap: SimDuration::from_millis(4),
            ckpt_interval: SimDuration::from_millis(250),
            state_bytes: 256 * 1024,
            ..Default::default()
        }
    }

    #[test]
    fn e1_produces_all_rows() {
        let t = run_serial(&e1_contention(&[4], quick()));
        assert_eq!(t.len(), 6);
    }

    #[test]
    fn e3_rows_for_both_variants() {
        let t = run_serial(&e3_control_messages(&[SimDuration::from_millis(4)], quick()));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn e6_rows() {
        let t = run_serial(&e6_piggyback(&[4, 8], quick()));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn e7_rows() {
        let t = run_serial(&e7_recovery(quick(), 600));
        assert_eq!(t.len(), 2);
        // Uncoordinated makes no restore promise: its verified column is -.
        assert!(t.to_csv().lines().last().unwrap().ends_with(",-"));
    }

    #[test]
    fn a2_rows() {
        let t = run_serial(&a2_flush_policy(quick()));
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn e2_rows() {
        let t = run_serial(&e2_overhead(&[SimDuration::from_millis(250)], quick()));
        assert_eq!(t.len(), 6);
    }

    #[test]
    fn e4_rows() {
        let t = run_serial(&e4_convergence(
            &[SimDuration::from_millis(4)],
            &[SimDuration::from_millis(100), SimDuration::from_millis(300)],
            quick(),
        ));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn e5_rows() {
        let t = run_serial(&e5_logging(&[SimDuration::from_millis(4)], quick()));
        assert_eq!(t.len(), 1);
        assert!(t.to_csv().contains("selective_share"));
    }

    #[test]
    fn e10_covers_the_full_matrix() {
        let t = run_serial(&e10_log_matrix(quick(), 600, None));
        assert_eq!(t.len(), 4 * 3);
        let csv = t.to_csv();
        for s in ["selective", "sender", "receiver", "causal"] {
            assert!(csv.contains(s), "missing strategy {s}");
        }
        for f in ["single", "correlated", "during-finalize"] {
            assert!(csv.contains(f), "missing fault pattern {f}");
        }
    }

    #[test]
    fn e10_strategy_filter_restricts_rows() {
        let t = run_serial(&e10_log_matrix(quick(), 600, Some(LoggingKind::SenderBased)));
        assert_eq!(t.len(), 3);
        assert!(!t.to_csv().contains("receiver"));
    }

    #[test]
    fn health_covers_the_baseline_and_every_fault() {
        let g = health_matrix(quick(), 600, Some(LoggingKind::Selective));
        let out = g.run(&GridOptions::serial());
        let faults: Vec<&str> = out.rows.iter().map(|r| r.labels[1].as_str()).collect();
        assert_eq!(faults, ["none", "single", "correlated", "during-finalize"]);
        // The fault-free baseline completes rounds, measures them and grows
        // a log: rounds, p50_ms, max_ms, line, app_msgs, log_B/msg, …
        let v = &out.rows[0].values;
        assert!(v[0] > 0.0 && 0.0 < v[1] && v[1] <= v[2] && v[5] > 0.0, "{v:?}");
    }

    #[test]
    fn catalog_ids_are_unique_and_every_entry_builds_at_both_scales() {
        for (i, e) in CATALOG.iter().enumerate() {
            assert!(CATALOG[..i].iter().all(|o| o.id() != e.id()), "duplicate id {}", e.id());
            let quick = e.grid(Scale::Quick, 42, None).cell_count();
            let full = e.grid(Scale::Full, 42, None).cell_count();
            assert!(0 < quick && quick <= full, "{}: quick {quick} vs full {full}", e.id());
        }
    }

    #[test]
    fn e8_rows() {
        let t = run_serial(&e8_response_time(&[SimDuration::from_millis(4)], quick()));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn scaled_state_keeps_utilisation_constant() {
        let iv = SimDuration::from_secs(1);
        for n in [4usize, 8, 32, 128] {
            let s = scaled_state_bytes(n, iv);
            let rho = n as f64 * s as f64 / (iv.as_secs_f64() * 50.0 * 1024.0 * 1024.0);
            assert!((rho - 0.25).abs() < 0.01, "n={n}: rho={rho}");
        }
    }

    /// The acceptance property for the whole engine: an experiment grid
    /// renders byte-identically under 1 worker and many.
    #[test]
    fn e1_parallel_matches_serial_byte_for_byte() {
        let g = e1_contention(&[4], quick());
        let serial = g.run(&GridOptions { jobs: 1, replicates: 1 });
        let parallel = g.run(&GridOptions { jobs: 8, replicates: 1 });
        assert_eq!(serial.table.render(), parallel.table.render());
        assert_eq!(serial.table.to_csv(), parallel.table.to_csv());
    }
}
