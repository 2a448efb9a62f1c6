//! # ocpt-bench — experiment binaries and Criterion benches
//!
//! One `exp_*` binary per experiment in `DESIGN.md` §4 (run with
//! `cargo run -p ocpt-bench --release --bin exp_contention`), plus
//! Criterion microbenches (`cargo bench`). This library holds the tiny
//! shared argument parser the binaries use.
//!
//! Every binary executes its experiment through the grid engine
//! (`ocpt_harness::grid`): `--jobs N` runs cells on N worker threads and
//! `--replicates R` repeats every cell under R derived seeds. The table
//! is byte-identical for any `--jobs` value — parallelism changes wall
//! time only, which `exp_all --bench-json` measures and reports.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod sched_bench;

use ocpt_core::LoggingKind;
use ocpt_harness::experiments::{e10_fault_patterns, ExpParams};
use ocpt_harness::{log_recovery_report, run, Algo, GridOptions, GridOutcome, RunGrid, TraceSink};
use ocpt_metrics::Quantiles;
use ocpt_sim::SimDuration;

/// Host metadata stamped into every committed bench report, so claims
/// like "speedup ≈ 1.0 on a single-core container" are machine-readable
/// instead of prose footnotes.
#[derive(Clone, Debug)]
pub struct HostMeta {
    /// Available parallelism (cores visible to this process).
    pub cores: usize,
    /// `rustc --version` of the toolchain that built the binary.
    pub rustc: String,
    /// Operating system (`std::env::consts::OS`).
    pub os: String,
}

impl HostMeta {
    /// Detect the current host.
    pub fn detect() -> Self {
        HostMeta {
            cores: std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1),
            rustc: env!("OCPT_RUSTC_VERSION").to_string(),
            os: std::env::consts::OS.to_string(),
        }
    }

    /// The `"host": {...}` JSON fragment (no trailing comma/newline).
    fn json_fragment(&self) -> String {
        format!(
            "\"host\": {{\"cores\": {}, \"rustc\": \"{}\", \"os\": \"{}\"}}",
            self.cores,
            self.rustc.replace('"', "'"),
            self.os
        )
    }
}

/// Command-line options shared by all experiment binaries.
#[derive(Clone, Debug)]
pub struct ExpArgs {
    /// Reduced problem sizes for smoke runs.
    pub quick: bool,
    /// Also print the table as CSV.
    pub csv: bool,
    /// Master seed.
    pub seed: u64,
    /// Grid worker threads (0 = one per available core).
    pub jobs: usize,
    /// Seed-replicates per grid cell.
    pub replicates: usize,
    /// `exp_all`: write the serial-vs-parallel self-benchmark here.
    /// `exp_scale`: write the E9 scale report (`BENCH_scale.json`) here.
    /// Other binaries parse and ignore it.
    pub bench_json: Option<String>,
    /// `exp_all` only: run the scheduler microbench suite (timing wheel
    /// vs reference heap) and write its report here.
    pub sched_json: Option<String>,
    /// `exp_all` only: run the multi-core grid gate (one heavy uniform
    /// grid at `--jobs` 1/2/4, byte-identity asserted) and write its
    /// scaling report here (the committed `BENCH_par.json`).
    pub par_json: Option<String>,
    /// Record every run's flight data (trace JSONL + metrics snapshot)
    /// into this directory.
    pub trace_out: Option<String>,
    /// `exp_log`: restrict the E10 matrix to one logging strategy
    /// (`selective` / `sender` / `receiver` / `causal`; long aliases like
    /// `sender-based` also parse). Other binaries parse and ignore it.
    pub strategy: Option<LoggingKind>,
    /// Write the per-strategy health report (`BENCH_health.json`) here:
    /// round-latency percentiles, durable-log growth and gap counters for
    /// every logging strategy under the fault-free baseline and the three
    /// E10 fault shapes. Every `exp_*` binary honors it (via
    /// [`ExpArgs::maybe_emit_health`]), so any experiment invocation can stamp the
    /// protocol's health alongside its own table.
    pub health_json: Option<String>,
}

impl ExpArgs {
    /// Parse from `std::env::args`; exits with usage on error.
    pub fn parse() -> ExpArgs {
        let mut args = ExpArgs {
            quick: false,
            csv: false,
            seed: 42,
            jobs: 1,
            replicates: 1,
            bench_json: None,
            sched_json: None,
            par_json: None,
            trace_out: None,
            strategy: None,
            health_json: None,
        };
        let mut it = std::env::args().skip(1);
        while let Some(a) = it.next() {
            match a.as_str() {
                "--quick" => args.quick = true,
                "--csv" => args.csv = true,
                "--seed" => {
                    args.seed = it
                        .next()
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage("--seed needs an integer"));
                }
                "--jobs" => {
                    args.jobs = it
                        .next()
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage("--jobs needs an integer (0 = auto)"));
                }
                "--replicates" => {
                    let r: usize = it
                        .next()
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage("--replicates needs an integer >= 1"));
                    if r == 0 {
                        usage("--replicates needs an integer >= 1");
                    }
                    args.replicates = r;
                }
                "--bench-json" => {
                    args.bench_json =
                        Some(it.next().unwrap_or_else(|| usage("--bench-json needs a path")));
                }
                "--sched-json" => {
                    args.sched_json =
                        Some(it.next().unwrap_or_else(|| usage("--sched-json needs a path")));
                }
                "--par-json" => {
                    args.par_json =
                        Some(it.next().unwrap_or_else(|| usage("--par-json needs a path")));
                }
                "--trace-out" => {
                    args.trace_out =
                        Some(it.next().unwrap_or_else(|| usage("--trace-out needs a directory")));
                }
                "--strategy" => {
                    let s = it.next().unwrap_or_else(|| {
                        usage("--strategy needs selective|sender|receiver|causal")
                    });
                    args.strategy = Some(LoggingKind::parse(&s).unwrap_or_else(|| {
                        usage(&format!(
                            "unknown strategy {s} (want selective|sender|receiver|causal)"
                        ))
                    }));
                }
                "--health-json" => {
                    args.health_json =
                        Some(it.next().unwrap_or_else(|| usage("--health-json needs a path")));
                }
                "--help" | "-h" => usage(""),
                other => usage(&format!("unknown flag {other}")),
            }
        }
        args
    }

    /// Effective worker count (`--jobs 0` resolves to the core count).
    pub fn effective_jobs(&self) -> usize {
        if self.jobs == 0 {
            std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1)
        } else {
            self.jobs
        }
    }

    /// Grid execution options from the parsed flags.
    pub fn grid_options(&self) -> GridOptions {
        GridOptions { jobs: self.effective_jobs(), replicates: self.replicates }
    }

    /// Base experiment parameters at this scale.
    pub fn params(&self) -> ExpParams {
        if self.quick {
            ExpParams {
                n: 4,
                seed: self.seed,
                workload_ms: 1_000,
                msg_gap: SimDuration::from_millis(5),
                ckpt_interval: SimDuration::from_millis(250),
                state_bytes: 512 * 1024,
            }
        } else {
            // Storage utilisation n·state/(interval·bandwidth) ≈ 0.3: the
            // server is busy but not saturated, so contention measures
            // write *clustering*, not overload.
            ExpParams {
                n: 8,
                seed: self.seed,
                workload_ms: 10_000,
                msg_gap: SimDuration::from_millis(5),
                ckpt_interval: SimDuration::from_secs(1),
                state_bytes: 2 * 1024 * 1024,
            }
        }
    }

    /// The flight-recorder sink for the experiment called `name`, when
    /// `--trace-out <dir>` was given (artifact files are prefixed with
    /// the experiment name, so `exp_all`'s experiments don't collide).
    pub fn trace_sink(&self, name: &str) -> Option<TraceSink> {
        self.trace_out.as_ref().map(|dir| {
            TraceSink::new(dir, name).unwrap_or_else(|e| {
                eprintln!("error: creating trace directory {dir}: {e}");
                std::process::exit(2);
            })
        })
    }

    /// Execute the experiment called `name` (its grid `g`) with the
    /// parsed options and print its table (and CSV when requested);
    /// under `--trace-out`, also record every run's flight data.
    /// Returns the outcome for self-measurement.
    pub fn emit(&self, name: &str, g: &RunGrid) -> GridOutcome {
        let sink = self.trace_sink(name);
        let out = g.run_with_sink(&self.grid_options(), sink.as_ref());
        println!("{}", out.table.render());
        if self.csv {
            println!("{}", out.table.to_csv());
        }
        out
    }
}

/// One named measurement for the `--bench-json` report.
#[derive(Clone, Debug)]
pub struct BenchEntry {
    /// Experiment label (e.g. `"e1"`).
    pub name: String,
    /// Wall-clock seconds with `--jobs 1`.
    pub serial_secs: f64,
    /// Wall-clock seconds with the parallel worker count.
    pub parallel_secs: f64,
    /// Simulation runs in the grid (cells × replicates).
    pub runs: usize,
    /// Simulator events dispatched (identical across both passes).
    pub sim_events: u64,
}

/// Render the scheduler microbench suite (timing wheel vs reference heap)
/// as JSON — the committed `BENCH_sched.json`.
pub fn sched_report_json(rows: &[sched_bench::SchedBenchRow]) -> String {
    let host = HostMeta::detect();
    let mut out = String::from("{\n");
    out.push_str(&format!("  {},\n", host.json_fragment()));
    out.push_str("  \"baseline\": \"reference_heap (BinaryHeap, eager purges)\",\n");
    out.push_str("  \"candidate\": \"wheel (hierarchical timing wheel, lazy cancellation)\",\n");
    out.push_str("  \"workloads\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let sep = if i + 1 == rows.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"events\": {}, \
             \"heap_secs\": {:.6}, \"wheel_secs\": {:.6}, \
             \"heap_events_per_sec\": {:.1}, \"wheel_events_per_sec\": {:.1}, \
             \"speedup\": {:.3}}}{sep}\n",
            r.name,
            r.events,
            r.heap_secs,
            r.wheel_secs,
            r.heap_events_per_sec(),
            r.wheel_events_per_sec(),
            r.speedup(),
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Render the self-benchmark as JSON (hand-formatted: no serde offline).
pub fn bench_report_json(jobs: usize, entries: &[BenchEntry]) -> String {
    let total_serial: f64 = entries.iter().map(|e| e.serial_secs).sum();
    let total_parallel: f64 = entries.iter().map(|e| e.parallel_secs).sum();
    let total_events: u64 = entries.iter().map(|e| e.sim_events).sum();
    let total_runs: usize = entries.iter().map(|e| e.runs).sum();
    let speedup = if total_parallel > 0.0 { total_serial / total_parallel } else { 0.0 };
    let mut out = String::from("{\n");
    out.push_str(&format!("  {},\n", HostMeta::detect().json_fragment()));
    out.push_str(&format!("  \"jobs\": {jobs},\n"));
    out.push_str(&format!("  \"total_runs\": {total_runs},\n"));
    out.push_str(&format!("  \"total_sim_events\": {total_events},\n"));
    out.push_str(&format!("  \"serial_wall_secs\": {total_serial:.6},\n"));
    out.push_str(&format!("  \"parallel_wall_secs\": {total_parallel:.6},\n"));
    out.push_str(&format!("  \"speedup\": {speedup:.3},\n"));
    out.push_str(&format!(
        "  \"serial_events_per_sec\": {:.1},\n",
        if total_serial > 0.0 { total_events as f64 / total_serial } else { 0.0 }
    ));
    out.push_str(&format!(
        "  \"parallel_events_per_sec\": {:.1},\n",
        if total_parallel > 0.0 { total_events as f64 / total_parallel } else { 0.0 }
    ));
    out.push_str("  \"experiments\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let sep = if i + 1 == entries.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"runs\": {}, \"sim_events\": {}, \
             \"serial_secs\": {:.6}, \"parallel_secs\": {:.6}, \"speedup\": {:.3}}}{sep}\n",
            e.name,
            e.runs,
            e.sim_events,
            e.serial_secs,
            e.parallel_secs,
            if e.parallel_secs > 0.0 { e.serial_secs / e.parallel_secs } else { 0.0 },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// The number of uniform cells in the multi-core gate grid.
pub const PAR_GATE_CELLS: usize = 8;

/// The multi-core gate grid: [`PAR_GATE_CELLS`] identical-cost cells, so
/// wall-clock at `--jobs j` isolates the work-stealing pool's scaling
/// from any cell-size skew. Cells differ only by seed.
pub fn par_gate_grid(quick: bool, seed: u64) -> RunGrid {
    use ocpt_harness::{Algo, RunConfig, WorkloadSpec};
    let mut g = RunGrid::new(
        "par_gate",
        &["cell"],
        &[("msgs", ocpt_harness::ColFmt::Int), ("events", ocpt_harness::ColFmt::Int)],
    );
    for i in 0..PAR_GATE_CELLS {
        let mut cfg = RunConfig::new(8, seed.wrapping_add(i as u64));
        cfg.workload = WorkloadSpec::uniform_mesh(SimDuration::from_millis(2));
        cfg.workload_duration = SimDuration::from_millis(if quick { 400 } else { 2_000 });
        cfg.checkpoint_interval = SimDuration::from_millis(250);
        cfg.state_bytes = 512 * 1024;
        g.cell(&[i.to_string()], Algo::ocpt(), cfg, |r| {
            vec![r.app_messages as f64, r.sim_events as f64]
        });
    }
    g
}

/// One worker-count measurement of the multi-core gate.
#[derive(Clone, Debug)]
pub struct ParRow {
    /// Worker threads used.
    pub jobs: usize,
    /// Wall-clock seconds for the whole gate grid.
    pub wall_secs: f64,
    /// Simulator events dispatched (identical for every `jobs`).
    pub sim_events: u64,
}

/// Render the multi-core gate as JSON — the committed `BENCH_par.json`.
/// Speedups are relative to the `jobs = 1` row; `host.cores` is the
/// number a reader must check before interpreting them (on a single-core
/// host every speedup is honestly ~1.0 — real scaling numbers come from
/// CI's `bench-multicore` job on a ≥4-core runner).
pub fn par_report_json(rows: &[ParRow], runs: usize) -> String {
    let base = rows.first().map(|r| r.wall_secs).unwrap_or(0.0);
    let mut out = String::from("{\n");
    out.push_str(&format!("  {},\n", HostMeta::detect().json_fragment()));
    out.push_str(&format!("  \"grid\": \"par_gate ({runs} uniform heavy cells)\",\n"));
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let sep = if i + 1 == rows.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"jobs\": {}, \"wall_secs\": {:.6}, \"speedup\": {:.3}, \
             \"events_per_sec\": {:.1}}}{sep}\n",
            r.jobs,
            r.wall_secs,
            if r.wall_secs > 0.0 { base / r.wall_secs } else { 0.0 },
            if r.wall_secs > 0.0 { r.sim_events as f64 / r.wall_secs } else { 0.0 },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// One system size of the E9 scale sweep, for `BENCH_scale.json`.
#[derive(Clone, Debug)]
pub struct ScaleRow {
    /// System size.
    pub n: usize,
    /// Measured piggyback bytes per application message (adaptive
    /// encoding, averaged over the run).
    pub piggy_bytes_per_msg: f64,
    /// What a fixed dense bitmap would cost: `8 + 1 + 1 + ⌈N/8⌉` bytes.
    pub dense_bytes_per_msg: f64,
    /// Application messages sent.
    pub app_messages: u64,
    /// Control messages sent.
    pub ctrl_messages: u64,
    /// Globally completed checkpoint rounds.
    pub rounds: u64,
    /// Resolved control group size (`None` = flat ring).
    pub group_size: Option<u32>,
    /// Number of groups under that size.
    pub num_groups: Option<u64>,
    /// Simulator events dispatched.
    pub sim_events: u64,
    /// Of those, `StorageDone` wakeups (the event census' storage share).
    pub storage_wakeups: u64,
    /// Wall-clock seconds for the run.
    pub wall_secs: f64,
}

/// Render the scale sweep as JSON — the committed `BENCH_scale.json`.
pub fn scale_report_json(rows: &[ScaleRow], auto_topology: bool) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  {},\n", HostMeta::detect().json_fragment()));
    out.push_str(&format!(
        "  \"topology\": \"{}\",\n",
        if auto_topology { "auto (flat <= 512, ceil(sqrt(N)) groups above)" } else { "explicit" }
    ));
    out.push_str("  \"cells\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let sep = if i + 1 == rows.len() { "" } else { "," };
        let savings = if r.piggy_bytes_per_msg > 0.0 {
            r.dense_bytes_per_msg / r.piggy_bytes_per_msg
        } else {
            0.0
        };
        let ctrl_per_round = r.ctrl_messages as f64 / r.rounds.max(1) as f64;
        out.push_str(&format!(
            "    {{\"n\": {}, \"piggy_bytes_per_msg\": {:.2}, \"dense_bytes_per_msg\": {:.2}, \
             \"piggy_savings_x\": {:.2}, \"app_messages\": {}, \"ctrl_messages\": {}, \
             \"ctrl_per_round\": {:.1}, \"rounds\": {}, \"group_size\": {}, \"num_groups\": {}, \
             \"sim_events\": {}, \"storage_wakeups\": {}, \"events_per_app_msg\": {:.2}, \
             \"wall_secs\": {:.3}, \"events_per_sec\": {:.0}}}{sep}\n",
            r.n,
            r.piggy_bytes_per_msg,
            r.dense_bytes_per_msg,
            savings,
            r.app_messages,
            r.ctrl_messages,
            ctrl_per_round,
            r.rounds,
            r.group_size.map_or("null".to_string(), |s| s.to_string()),
            r.num_groups.map_or("null".to_string(), |g| g.to_string()),
            r.sim_events,
            r.storage_wakeups,
            r.sim_events as f64 / r.app_messages.max(1) as f64,
            r.wall_secs,
            if r.wall_secs > 0.0 { r.sim_events as f64 / r.wall_secs } else { 0.0 },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// One (strategy, fault pattern) cell of the E10 logging matrix, for
/// `BENCH_log.json`.
#[derive(Clone, Debug)]
pub struct LogRow {
    /// Logging strategy short name (`selective` / `sender` / `receiver` /
    /// `causal`).
    pub strategy: &'static str,
    /// Fault pattern label (`single` / `correlated` / `during-finalize`).
    pub fault: String,
    /// Durable recovery line the system rolls back to.
    pub line: u64,
    /// Durable log bytes across all processes at the line.
    pub log_bytes: u64,
    /// Modeled replay wall-clock, milliseconds (max over processes).
    pub replay_ms: f64,
    /// Received events replayed from local payload bytes.
    pub replayed_local: u64,
    /// Determinants replayed after a payload fetch from a peer's log.
    pub fetched: u64,
    /// Determinants with no durable payload anywhere (replay gaps).
    pub orphans: u64,
    /// In-transit messages no sender log could regenerate.
    pub lost_in_transit: u64,
    /// Application messages the run sent (normalises log_bytes).
    pub app_messages: u64,
    /// Simulator events dispatched.
    pub sim_events: u64,
}

/// Render the E10 logging matrix as JSON — the committed `BENCH_log.json`.
pub fn log_report_json(rows: &[LogRow]) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  {},\n", HostMeta::detect().json_fragment()));
    out.push_str("  \"strategies\": [\"selective\", \"sender\", \"receiver\", \"causal\"],\n");
    out.push_str("  \"faults\": [\"single\", \"correlated\", \"during-finalize\"],\n");
    out.push_str("  \"cells\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let sep = if i + 1 == rows.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"strategy\": \"{}\", \"fault\": \"{}\", \"line\": {}, \
             \"log_bytes\": {}, \"log_bytes_per_msg\": {:.2}, \"replay_ms\": {:.3}, \
             \"replayed_local\": {}, \"fetched\": {}, \"orphans\": {}, \
             \"lost_in_transit\": {}, \"app_messages\": {}, \"sim_events\": {}}}{sep}\n",
            r.strategy,
            r.fault,
            r.line,
            r.log_bytes,
            r.log_bytes as f64 / r.app_messages.max(1) as f64,
            r.replay_ms,
            r.replayed_local,
            r.fetched,
            r.orphans,
            r.lost_in_transit,
            r.app_messages,
            r.sim_events,
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// One (strategy, fault pattern) cell of the health matrix, for the
/// committed `BENCH_health.json`: what the `ocpt-health` trace report
/// tracks per run, measured here per logging strategy — round-latency
/// percentiles over complete rounds, durable-log growth at the recovery
/// line and the correctness gaps (orphans, in-transit losses).
#[derive(Clone, Debug)]
pub struct HealthRow {
    /// Logging strategy short name (`selective` / `sender` / `receiver` /
    /// `causal`).
    pub strategy: &'static str,
    /// Fault pattern label (`none` baseline plus the three E10 shapes).
    pub fault: String,
    /// Rounds completed by every process.
    pub rounds_complete: u64,
    /// Round latency p50 over complete rounds, milliseconds.
    pub p50_ms: f64,
    /// Round latency p90 over complete rounds, milliseconds.
    pub p90_ms: f64,
    /// Round latency p99 over complete rounds, milliseconds.
    pub p99_ms: f64,
    /// Slowest complete round, milliseconds.
    pub max_ms: f64,
    /// Durable recovery line the run ends with.
    pub line: u64,
    /// Durable log bytes across all processes at the line (the JSON
    /// normalises this per application message: the log growth rate).
    pub log_bytes: u64,
    /// Determinants with no durable payload anywhere at the line.
    pub orphans: u64,
    /// In-transit messages no sender log could regenerate.
    pub lost_in_transit: u64,
    /// Application messages the run sent.
    pub app_messages: u64,
    /// Simulator events dispatched.
    pub sim_events: u64,
}

/// Run the health matrix: every [`LoggingKind`] (or just `only`) under the
/// fault-free baseline plus the three [`e10_fault_patterns`] shapes, one
/// direct run per cell. Round-latency percentiles come from
/// [`ocpt_harness::runner::RoundStat`]s of globally complete rounds
/// (exact nearest-rank quantiles); log growth and gap counters from
/// [`log_recovery_report`] at the run's durable line.
pub fn health_rows(base: &ExpParams, crash_ms: u64, only: Option<LoggingKind>) -> Vec<HealthRow> {
    let patterns = e10_fault_patterns(base, crash_ms);
    let mut rows = Vec::new();
    for kind in LoggingKind::ALL {
        if only.is_some_and(|o| o != kind) {
            continue;
        }
        for cell in 0..=patterns.len() {
            let mut cfg = base.config();
            let fault = if cell == 0 {
                "none".to_string()
            } else {
                let (name, plan) = &patterns[cell - 1];
                cfg.faults = plan.clone();
                cfg.stop_on_crash = true;
                (*name).to_string()
            };
            let r = run(&Algo::ocpt_logging(kind), cfg);
            assert!(
                r.protocol_error.is_none(),
                "{} × {fault}: {:?}",
                kind.name(),
                r.protocol_error
            );
            let rep = log_recovery_report(&r).unwrap_or_else(|e| {
                eprintln!("error: health {} × {fault}: {e}", kind.name());
                std::process::exit(2);
            });
            let mut q = Quantiles::new();
            for s in r.round_stats.iter().filter(|s| s.completes == r.n) {
                q.record(s.latency_ns() as f64 / 1e6);
            }
            rows.push(HealthRow {
                strategy: kind.name(),
                fault,
                rounds_complete: r.complete_rounds,
                p50_ms: q.try_quantile(0.50).unwrap_or(0.0),
                p90_ms: q.try_quantile(0.90).unwrap_or(0.0),
                p99_ms: q.try_quantile(0.99).unwrap_or(0.0),
                max_ms: q.try_quantile(1.0).unwrap_or(0.0),
                line: rep.line,
                log_bytes: rep.log_bytes,
                orphans: rep.orphans,
                lost_in_transit: rep.lost_in_transit,
                app_messages: r.app_messages,
                sim_events: r.sim_events,
            });
        }
    }
    rows
}

/// Render the health matrix as JSON — the committed `BENCH_health.json`.
pub fn health_report_json(rows: &[HealthRow]) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  {},\n", HostMeta::detect().json_fragment()));
    out.push_str("  \"strategies\": [\"selective\", \"sender\", \"receiver\", \"causal\"],\n");
    out.push_str("  \"faults\": [\"none\", \"single\", \"correlated\", \"during-finalize\"],\n");
    out.push_str("  \"cells\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let sep = if i + 1 == rows.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"strategy\": \"{}\", \"fault\": \"{}\", \"rounds_complete\": {}, \
             \"round_latency_ms\": {{\"p50\": {:.3}, \"p90\": {:.3}, \"p99\": {:.3}, \
             \"max\": {:.3}}}, \"line\": {}, \"log_bytes\": {}, \"log_bytes_per_msg\": {:.2}, \
             \"orphans\": {}, \"lost_in_transit\": {}, \"app_messages\": {}, \
             \"sim_events\": {}}}{sep}\n",
            r.strategy,
            r.fault,
            r.rounds_complete,
            r.p50_ms,
            r.p90_ms,
            r.p99_ms,
            r.max_ms,
            r.line,
            r.log_bytes,
            r.log_bytes as f64 / r.app_messages.max(1) as f64,
            r.orphans,
            r.lost_in_transit,
            r.app_messages,
            r.sim_events,
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

impl ExpArgs {
    /// Under `--health-json <path>`, run the health matrix at this scale
    /// and write the report there (no-op otherwise). Every `exp_*` binary
    /// calls this after printing its own table.
    pub fn maybe_emit_health(&self) {
        let Some(path) = &self.health_json else { return };
        let crash_ms = if self.quick { 600 } else { 4_000 };
        let rows = health_rows(&self.params(), crash_ms, self.strategy);
        let report = health_report_json(&rows);
        if let Err(e) = std::fs::write(path, &report) {
            eprintln!("error: writing {path}: {e}");
            std::process::exit(2);
        }
        eprintln!("wrote health report to {path}");
        eprint!("{report}");
    }
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!(
        "usage: exp_* [--quick] [--csv] [--seed <u64>] [--jobs <n|0=auto>] \
         [--replicates <r>] [--trace-out <dir>] [--bench-json <path>] \
         [--sched-json <path>] [--par-json <path>] [--health-json <path>] \
         [--strategy <selective|sender|receiver|causal>]"
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_json_shape() {
        let entries = vec![
            BenchEntry {
                name: "e1".into(),
                serial_secs: 2.0,
                parallel_secs: 0.5,
                runs: 12,
                sim_events: 1000,
            },
            BenchEntry {
                name: "e2".into(),
                serial_secs: 1.0,
                parallel_secs: 0.5,
                runs: 6,
                sim_events: 500,
            },
        ];
        let j = bench_report_json(4, &entries);
        assert!(j.contains("\"jobs\": 4"));
        assert!(j.contains("\"speedup\": 3.000"));
        assert!(j.contains("\"name\": \"e1\""));
        assert!(j.contains("\"total_runs\": 18"));
        // Host metadata is machine-readable in the report.
        assert!(j.contains("\"host\": {\"cores\": "));
        assert!(j.contains("\"rustc\": \""));
        // Valid-ish JSON: balanced braces/brackets, no trailing comma.
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
        assert!(!j.contains(",\n  ]"));
    }

    #[test]
    fn sched_json_shape() {
        let rows = vec![
            sched_bench::SchedBenchRow {
                name: "cancel_heavy",
                events: 10_000,
                heap_secs: 0.4,
                wheel_secs: 0.1,
            },
            sched_bench::SchedBenchRow {
                name: "crash_purge",
                events: 5_000,
                heap_secs: 0.9,
                wheel_secs: 0.3,
            },
        ];
        let j = sched_report_json(&rows);
        assert!(j.contains("\"host\": {\"cores\": "));
        assert!(j.contains("\"baseline\": \"reference_heap"));
        assert!(j.contains("\"name\": \"cancel_heavy\""));
        assert!(j.contains("\"speedup\": 4.000"));
        assert!(j.contains("\"speedup\": 3.000"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
        assert!(!j.contains(",\n  ]"));
    }

    #[test]
    fn scale_json_shape() {
        let rows = vec![
            ScaleRow {
                n: 100,
                piggy_bytes_per_msg: 14.5,
                dense_bytes_per_msg: 23.0,
                app_messages: 5_000,
                ctrl_messages: 120,
                rounds: 6,
                group_size: None,
                num_groups: None,
                sim_events: 40_000,
                storage_wakeups: 1_300,
                wall_secs: 0.2,
            },
            ScaleRow {
                n: 100_000,
                piggy_bytes_per_msg: 20.0,
                dense_bytes_per_msg: 12_509.0,
                app_messages: 80_000,
                ctrl_messages: 2_000,
                rounds: 2,
                group_size: Some(317),
                num_groups: Some(316),
                sim_events: 900_000,
                storage_wakeups: 200_000,
                wall_secs: 12.0,
            },
        ];
        let j = scale_report_json(&rows, true);
        assert!(j.contains("\"host\": {\"cores\": "));
        assert!(j.contains("\"topology\": \"auto"));
        assert!(j.contains("\"n\": 100000"));
        // Flat rows serialize topology fields as JSON null, grouped as numbers.
        assert!(j.contains("\"group_size\": null"));
        assert!(j.contains("\"group_size\": 317"));
        assert!(j.contains("\"num_groups\": 316"));
        assert!(j.contains("\"piggy_savings_x\": 625.45"));
        assert!(j.contains("\"storage_wakeups\": 1300, \"events_per_app_msg\": 8.00"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
        assert!(!j.contains(",\n  ]"));
    }

    #[test]
    fn log_json_shape() {
        let rows = vec![
            LogRow {
                strategy: "selective",
                fault: "single".into(),
                line: 3,
                log_bytes: 4_096,
                replay_ms: 0.42,
                replayed_local: 12,
                fetched: 0,
                orphans: 0,
                lost_in_transit: 0,
                app_messages: 2_048,
                sim_events: 90_000,
            },
            LogRow {
                strategy: "causal",
                fault: "during-finalize".into(),
                line: 2,
                log_bytes: 512,
                replay_ms: 1.2,
                replayed_local: 0,
                fetched: 9,
                orphans: 3,
                lost_in_transit: 1,
                app_messages: 2_048,
                sim_events: 90_000,
            },
        ];
        let j = log_report_json(&rows);
        assert!(j.contains("\"host\": {\"cores\": "));
        assert!(j.contains("\"strategies\": [\"selective\", \"sender\", \"receiver\", \"causal\"]"));
        assert!(j.contains("\"strategy\": \"causal\""));
        assert!(j.contains("\"fault\": \"during-finalize\""));
        assert!(j.contains("\"log_bytes_per_msg\": 2.00"));
        assert!(j.contains("\"orphans\": 3"));
        assert!(j.contains("\"lost_in_transit\": 1"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
        assert!(!j.contains(",\n  ]"));
    }

    #[test]
    fn health_json_shape() {
        let rows = vec![
            HealthRow {
                strategy: "selective",
                fault: "none".into(),
                rounds_complete: 9,
                p50_ms: 12.5,
                p90_ms: 14.0,
                p99_ms: 15.25,
                max_ms: 15.25,
                line: 9,
                log_bytes: 4_096,
                orphans: 0,
                lost_in_transit: 0,
                app_messages: 2_048,
                sim_events: 90_000,
            },
            HealthRow {
                strategy: "causal",
                fault: "during-finalize".into(),
                rounds_complete: 2,
                p50_ms: 13.0,
                p90_ms: 13.0,
                p99_ms: 13.0,
                max_ms: 13.0,
                line: 2,
                log_bytes: 512,
                orphans: 3,
                lost_in_transit: 1,
                app_messages: 1_024,
                sim_events: 40_000,
            },
        ];
        let j = health_report_json(&rows);
        assert!(j.contains("\"host\": {\"cores\": "));
        assert!(
            j.contains("\"faults\": [\"none\", \"single\", \"correlated\", \"during-finalize\"]")
        );
        assert!(j.contains("\"round_latency_ms\": {\"p50\": 12.500, \"p90\": 14.000"));
        assert!(j.contains("\"log_bytes_per_msg\": 2.00"));
        assert!(j.contains("\"orphans\": 3"));
        assert!(j.contains("\"lost_in_transit\": 1"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
        assert!(!j.contains(",\n  ]"));
    }

    #[test]
    fn health_rows_cover_baseline_and_faults() {
        let base = ExpParams {
            n: 3,
            seed: 7,
            workload_ms: 500,
            msg_gap: SimDuration::from_millis(5),
            ckpt_interval: SimDuration::from_millis(150),
            state_bytes: 64 * 1024,
        };
        let rows = health_rows(&base, 300, Some(LoggingKind::Selective));
        let faults: Vec<&str> = rows.iter().map(|r| r.fault.as_str()).collect();
        assert_eq!(faults, ["none", "single", "correlated", "during-finalize"]);
        assert!(rows.iter().all(|r| r.strategy == "selective"));
        // The fault-free baseline completes rounds and measures latency.
        assert!(rows[0].rounds_complete > 0);
        assert!(rows[0].p50_ms > 0.0 && rows[0].p50_ms <= rows[0].max_ms);
        assert!(rows[0].log_bytes > 0);
    }

    #[test]
    fn strategy_kinds_parse_like_the_flag() {
        for (s, k) in [
            ("selective", LoggingKind::Selective),
            ("sender-based", LoggingKind::SenderBased),
            ("receiver", LoggingKind::ReceiverBased),
            ("causal-compressed", LoggingKind::CausalCompressed),
        ] {
            assert_eq!(LoggingKind::parse(s), Some(k));
        }
        assert_eq!(LoggingKind::parse("pessimistic"), None);
    }

    #[test]
    fn par_json_shape() {
        let rows = vec![
            ParRow { jobs: 1, wall_secs: 8.0, sim_events: 4_000_000 },
            ParRow { jobs: 2, wall_secs: 4.0, sim_events: 4_000_000 },
            ParRow { jobs: 4, wall_secs: 2.0, sim_events: 4_000_000 },
        ];
        let j = par_report_json(&rows, PAR_GATE_CELLS);
        assert!(j.contains("\"host\": {\"cores\": "));
        assert!(j.contains("\"grid\": \"par_gate (8 uniform heavy cells)\""));
        assert!(j.contains("\"jobs\": 1"));
        assert!(j.contains("\"speedup\": 1.000"));
        assert!(j.contains("\"speedup\": 4.000"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
        assert!(!j.contains(",\n  ]"));
    }

    #[test]
    fn par_gate_grid_is_uniform_and_deterministic() {
        let g = par_gate_grid(true, 42);
        assert_eq!(g.cell_count(), PAR_GATE_CELLS);
        let a = g.run(&GridOptions { jobs: 2, replicates: 1 });
        let b = par_gate_grid(true, 42).run(&GridOptions { jobs: 4, replicates: 1 });
        assert_eq!(a.table.render(), b.table.render());
        assert_eq!(a.sim_events, b.sim_events);
    }

    #[test]
    fn host_meta_detects_something() {
        let h = HostMeta::detect();
        assert!(h.cores >= 1);
        assert!(!h.rustc.is_empty());
        assert!(!h.os.is_empty());
    }
}
