//! # ocpt-cli — the `ocpt` command-line front door
//!
//! ```sh
//! ocpt run --algo ocpt --n 8 --gap-ms 5 --interval-ms 500 --svg run.svg
//! ocpt compare --n 16
//! ocpt recover --n 8 --crash-ms 1500 --live
//! ocpt exp all --quick --jobs 2 --report-json report.jsonl
//! ocpt algos
//! ```
//!
//! The library half holds the subcommand implementations so they are unit
//! testable; `src/main.rs` is a thin wrapper.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod args;

use std::fmt::Write as _;
use std::io::Write;

use ocpt_core::LoggingKind;
use ocpt_harness::experiments::{Scale, CATALOG};
use ocpt_harness::{
    coordinated_rollback, domino_rollback, run, verify_restored_states, Algo, GridOptions,
    RunConfig, RunResult, TraceSink, WorkloadSpec,
};
use ocpt_metrics::{f2, Table};
use ocpt_sim::{FaultPlan, ProcessId, SimDuration, SimTime, Topology, TraceKind, TRACE_KINDS};

use args::{ArgError, Args};

/// Boolean flags understood by the CLI.
pub const BOOL_FLAGS: &[&str] = &["trace", "quick", "live", "csv", "diagram", "json"];

/// The `ocpt trace` subcommands, for usage and error text.
const TRACE_SUBCOMMANDS: &str = "summary | diff | grep | timeline | critical-path | flame | health";

/// The options [`build_config`] reads (shared by `run`, `compare` and
/// `recover`).
const CONFIG_OPTS: &[&str] =
    &["n", "seed", "gap-ms", "interval-ms", "duration-ms", "state-kb", "topology"];

/// Entry point used by `main` (and by tests): dispatch a parsed command,
/// writing what it prints to `out` — `exp` section by section as each
/// experiment finishes, the others in one piece.
pub fn dispatch(args: &Args, out: &mut dyn Write) -> Result<(), ArgError> {
    // Only `trace` and `exp` take operands; elsewhere a stray positional
    // is a typo.
    let operands = match args.command.as_str() {
        "trace" => usize::MAX,
        "exp" => 1,
        _ => 0,
    };
    if let Some(p) = args.positionals().get(operands) {
        return Err(ArgError(format!("unexpected positional argument {p:?}")));
    }
    let text = match args.command.as_str() {
        "run" => cmd_run(args),
        "compare" => cmd_compare(args),
        "recover" => cmd_recover(args),
        "trace" => cmd_trace(args),
        "exp" => return cmd_exp(args, out),
        "algos" => args.expect_only(&[]).map(|()| cmd_algos()),
        "" | "help" => args.expect_only(&[]).map(|()| usage()),
        other => Err(ArgError(format!("unknown command {other:?}\n\n{}", usage()))),
    }?;
    out.write_all(text.as_bytes()).map_err(write_err("stdout"))
}

/// An I/O failure while writing `what`, as the error `main` prints.
fn write_err(what: &str) -> impl Fn(std::io::Error) -> ArgError + '_ {
    move |e| ArgError(format!("writing {what}: {e}"))
}

/// The usage text.
pub fn usage() -> String {
    "ocpt — optimistic checkpointing with selective message logging (IPDPS 2007)\n\
     \n\
     USAGE:\n\
       ocpt run     [CONFIG] [--algo NAME] [--trace] [--diagram] [--svg FILE]\n\
                    [--trace-json FILE]\n\
       ocpt compare [CONFIG] [--csv]\n\
       ocpt recover [CONFIG] [--crash-ms T] [--live]\n\
       ocpt exp     ID | all | list   (the reconstructed evaluation; `list` names the IDs)\n\
                    [--quick] [--csv] [--seed S] [--jobs N|0=auto] [--replicates R]\n\
                    [--strategy selective|sender|receiver|causal]\n\
                    [--trace-out DIR] [--report-json FILE]\n\
       ocpt trace   summary FILE\n\
       ocpt trace   diff A B [--context N]\n\
       ocpt trace   grep FILE [--pid P] [--kind K] [--code PREFIX]\n\
                    [--after T] [--before T] [--from-ms T] [--to-ms T]\n\
       ocpt trace   timeline FILE [--buckets N] [--json]\n\
       ocpt trace   critical-path FILE\n\
       ocpt trace   flame FILE\n\
       ocpt trace   health FILE [--json]\n\
       ocpt algos\n\
     \n\
     CONFIG: [--n N] [--seed S] [--gap-ms G] [--interval-ms I] [--duration-ms D]\n\
             [--state-kb K] [--topology mesh|ring|star|grid]\n\
     An option a subcommand does not read is an error.\n"
        .to_string()
}

fn parse_algo(name: &str) -> Result<Algo, ArgError> {
    Ok(match name {
        "ocpt" => Algo::ocpt(),
        "ocpt-naive" => Algo::ocpt_naive(),
        "ocpt-basic" => Algo::ocpt_basic(),
        "chandy-lamport" | "cl" => Algo::ChandyLamport,
        "koo-toueg" | "kt" => Algo::KooToueg,
        "staggered" => Algo::Staggered,
        "cic" => Algo::Cic,
        "uncoordinated" => Algo::Uncoordinated,
        other => return Err(ArgError(format!("unknown algorithm {other:?} (try `ocpt algos`)"))),
    })
}

fn parse_kind(name: &str) -> Result<TraceKind, ArgError> {
    TraceKind::from_name(name).ok_or_else(|| {
        let names: Vec<&str> = TRACE_KINDS.iter().map(|k| k.name()).collect();
        ArgError(format!("unknown event kind {name:?} ({})", names.join(" | ")))
    })
}

fn parse_topology(name: &str, n: usize) -> Result<Topology, ArgError> {
    Ok(match name {
        "mesh" => Topology::FullMesh,
        "ring" => Topology::Ring,
        "star" => Topology::Star,
        "grid" => Topology::Grid { cols: (n as f64).sqrt().ceil() as usize },
        other => return Err(ArgError(format!("unknown topology {other:?}"))),
    })
}

fn build_config(args: &Args) -> Result<RunConfig, ArgError> {
    let n: usize = args.num("n", 8)?;
    if n < 2 {
        return Err(ArgError("--n must be at least 2".into()));
    }
    let seed: u64 = args.num("seed", 42)?;
    let gap_ms: f64 = args.num("gap-ms", 5.0)?;
    let interval_ms: u64 = args.num("interval-ms", 500)?;
    let duration_ms: u64 = args.num("duration-ms", 3_000)?;
    let state_kb: u64 = args.num("state-kb", 1024)?;
    let mut cfg = RunConfig::new(n, seed);
    cfg.workload = WorkloadSpec {
        topology: parse_topology(args.get("topology").unwrap_or("mesh"), n)?,
        ..WorkloadSpec::uniform_mesh(SimDuration::from_secs_f64(gap_ms / 1e3))
    };
    cfg.checkpoint_interval = SimDuration::from_millis(interval_ms);
    cfg.workload_duration = SimDuration::from_millis(duration_ms);
    cfg.state_bytes = state_kb * 1024;
    cfg.sim =
        cfg.sim.with_horizon(SimDuration::from_millis(duration_ms) + SimDuration::from_secs(30));
    cfg.trace = args.flag("trace")
        || args.flag("diagram")
        || args.get("svg").is_some()
        || args.get("trace-json").is_some();
    Ok(cfg)
}

fn report(r: &RunResult) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "algorithm          {}", r.algo);
    let _ = writeln!(s, "processes          {}", r.n);
    let _ = writeln!(s, "virtual makespan   {}", r.makespan);
    let _ = writeln!(s, "app messages       {}", r.app_messages);
    let _ = writeln!(s, "control messages   {}", r.ctrl_messages);
    let _ = writeln!(
        s,
        "piggyback bytes    {} ({}/msg)",
        r.piggyback_bytes,
        r.piggyback_bytes / r.app_messages.max(1)
    );
    let _ = writeln!(s, "rounds completed   {}", r.complete_rounds);
    let _ = writeln!(s, "recovery line      S_{}", r.recovery_line);
    let _ = writeln!(s, "peak writers       {}", r.storage.peak_writers);
    let _ = writeln!(s, "storage stall      {}", r.storage.total_stall);
    let _ = writeln!(s, "blocked time       {}", r.blocked_time);
    let _ = writeln!(s, "forced delay       {}", r.forced_delay);
    if let Some(obs) = &r.observer {
        let _ = writeln!(
            s,
            "consistency        {} complete round(s) judged",
            obs.complete_csns().len()
        );
    }
    match &r.protocol_error {
        Some(e) => {
            let _ = writeln!(s, "PROTOCOL ERROR     {e}");
        }
        None => {
            if let Ok(k) = r.verify_consistency() {
                let _ = writeln!(s, "theorem 2          {k} global checkpoint(s), all consistent");
            }
        }
    }
    s
}

fn cmd_run(args: &Args) -> Result<String, ArgError> {
    args.expect_only(&[CONFIG_OPTS, &["algo", "trace", "diagram", "svg", "trace-json"]].concat())?;
    let algo = parse_algo(args.get("algo").unwrap_or("ocpt"))?;
    let cfg = build_config(args)?;
    let n = cfg.sim.n;
    let r = run(&algo, cfg);
    let mut out = report(&r);
    if args.flag("diagram") {
        out.push('\n');
        out.push_str(&r.trace.ascii_diagram(n));
    }
    if let Some(path) = args.get("svg") {
        std::fs::write(path, r.trace.to_svg(n)).map_err(write_err(path))?;
        out.push_str(&format!("\nspace-time diagram written to {path}\n"));
    }
    if let Some(path) = args.get("trace-json") {
        std::fs::write(path, r.trace_jsonl()).map_err(write_err(path))?;
        out.push_str(&format!("\nflight-recorder trace written to {path}\n"));
    }
    Ok(out)
}

fn load_trace(path: &str) -> Result<ocpt_telemetry::TraceFile, ArgError> {
    let text =
        std::fs::read_to_string(path).map_err(|e| ArgError(format!("reading {path}: {e}")))?;
    ocpt_telemetry::parse_jsonl(&text).map_err(|e| ArgError(format!("{path}: {e}")))
}

fn cmd_trace(args: &Args) -> Result<String, ArgError> {
    let sub = args.positional(0).unwrap_or("");
    let operand = |i: usize, name: &str| {
        args.positional(i)
            .ok_or_else(|| ArgError(format!("ocpt trace {sub}: missing {name} operand")))
    };
    // A subcommand's trace FILE, once `opts` cover every option given.
    let open = |opts: &[&str]| {
        args.expect_only(opts)?;
        load_trace(operand(1, "FILE")?)
    };
    match args.positional(0) {
        Some("summary") => Ok(ocpt_telemetry::summary(&open(&[])?)),
        Some("diff") => {
            args.expect_only(&["context"])?;
            let a = load_trace(operand(1, "A")?)?;
            let b = load_trace(operand(2, "B")?)?;
            let context: usize = args.num("context", 3)?;
            Ok(match ocpt_telemetry::diff(&a, &b, context) {
                ocpt_telemetry::DiffReport::Identical => {
                    format!("traces are identical ({} events)\n", a.recs.len())
                }
                ocpt_telemetry::DiffReport::MetaDiffers(why) => format!("{why}\n"),
                ocpt_telemetry::DiffReport::Diverged { rendering, .. } => rendering,
            })
        }
        Some("grep") => {
            let f = open(&["pid", "kind", "code", "after", "before", "from-ms", "to-ms"])?;
            let ms_flag = |name: &str| -> Result<Option<u64>, ArgError> {
                Ok(args.opt::<f64>(name)?.map(|ms| (ms * 1e6) as u64))
            };
            // `--after`/`--before` are the sim-time window (milliseconds,
            // inclusive/exclusive like the filter); `--from-ms`/`--to-ms`
            // are their original spellings. When both are given the
            // window is the intersection (later start, earlier end).
            let merge = |a: Option<u64>, b: Option<u64>, newer: fn(u64, u64) -> u64| match (a, b) {
                (Some(x), Some(y)) => Some(newer(x, y)),
                (x, y) => x.or(y),
            };
            let filter = ocpt_telemetry::GrepFilter {
                pid: args.opt("pid")?,
                kind: args.get("kind").map(parse_kind).transpose()?,
                code_prefix: args.get("code").map(str::to_string),
                from_nanos: merge(ms_flag("after")?, ms_flag("from-ms")?, u64::max),
                to_nanos: merge(ms_flag("before")?, ms_flag("to-ms")?, u64::min),
            };
            let hits = ocpt_telemetry::grep(&f, &filter);
            let mut out = String::new();
            for r in &hits {
                let _ = writeln!(out, "{}", ocpt_telemetry::render_rec(r));
            }
            let _ = writeln!(out, "{} of {} events matched", hits.len(), f.recs.len());
            Ok(out)
        }
        Some("timeline") => {
            let f = open(&["buckets", "json"])?;
            let buckets: usize = args.num("buckets", ocpt_telemetry::DEFAULT_BUCKETS)?;
            if buckets == 0 {
                return Err(ArgError("--buckets must be at least 1".into()));
            }
            let t = ocpt_telemetry::timeline(&f, buckets);
            Ok(if args.flag("json") { t.to_json() } else { t.render() })
        }
        Some("critical-path") => Ok(ocpt_telemetry::critical_path(&open(&[])?).render()),
        Some("flame") => Ok(ocpt_telemetry::critical_path(&open(&[])?).to_folded()),
        Some("health") => {
            let h = ocpt_telemetry::health(&open(&["json"])?);
            Ok(if args.flag("json") { h.to_json() } else { h.render() })
        }
        Some(other) => {
            Err(ArgError(format!("unknown trace subcommand {other:?} ({TRACE_SUBCOMMANDS})")))
        }
        None => Err(ArgError(format!("ocpt trace needs a subcommand: {TRACE_SUBCOMMANDS}"))),
    }
}

/// The options `ocpt exp` reads.
const EXP_OPTS: &[&str] =
    &["quick", "csv", "seed", "jobs", "replicates", "strategy", "trace-out", "report-json"];

/// `ocpt exp <id|all|list>`: run catalog experiments through the grid
/// engine, each cell exactly once. Stdout is the tables (and CSV), a pure
/// function of `(id, scale, seed, replicates, strategy)` — byte-identical
/// for any `--jobs`; the wall-clock self-measurement goes only into the
/// `--report-json` file. Both are written as each experiment finishes, so
/// a failure in a late one loses nothing already computed.
fn cmd_exp(args: &Args, out: &mut dyn Write) -> Result<(), ArgError> {
    args.expect_only(EXP_OPTS)?;
    let scale = if args.flag("quick") { Scale::Quick } else { Scale::Full };
    let seed: u64 = args.num("seed", 42)?;
    let which = args.positional(0).unwrap_or("");
    let selected: Vec<_> = match which {
        "list" => {
            return CATALOG.iter().try_for_each(|e| {
                writeln!(out, "{:<7} {}", e.id(), e.grid(Scale::Quick, seed, None).title())
                    .map_err(write_err("stdout"))
            })
        }
        "all" => CATALOG.iter().collect(),
        id => CATALOG.iter().filter(|e| e.id() == id).collect(),
    };
    if selected.is_empty() {
        let ids: Vec<&str> = CATALOG.iter().map(|e| e.id()).collect();
        return Err(ArgError(format!(
            "unknown experiment {which:?} (expected {} | all | list)",
            ids.join(" | ")
        )));
    }
    let strategy = match args.get("strategy") {
        None => None,
        Some(s) => Some(LoggingKind::parse(s).ok_or_else(|| {
            ArgError(format!("unknown strategy {s:?} (selective | sender | receiver | causal)"))
        })?),
    };
    if strategy.is_some() && !selected.iter().any(|e| e.strategy_axis()) {
        return Err(ArgError(format!(
            "--strategy does not apply to {which}: it does not sweep the logging strategies"
        )));
    }
    let replicates: usize = args.num("replicates", 1)?;
    if replicates == 0 {
        return Err(ArgError("--replicates must be at least 1".into()));
    }
    let jobs = match args.num("jobs", 1usize)? {
        0 => std::thread::available_parallelism().map_or(1, |p| p.get()),
        j => j,
    };
    let opts = GridOptions { jobs, replicates };
    let mut report = args
        .get("report-json")
        .map(|path| std::fs::File::create(path).map(|f| (path, f)).map_err(write_err(path)))
        .transpose()?;
    for e in selected {
        let sink = match args.get("trace-out") {
            None => None,
            Some(dir) => Some(TraceSink::new(dir, e.id()).map_err(write_err(dir))?),
        };
        let outcome = e.grid(scale, seed, strategy).run_with_sink(&opts, sink.as_ref());
        writeln!(out, "{}", outcome.table.render()).map_err(write_err("stdout"))?;
        if args.flag("csv") {
            writeln!(out, "{}", outcome.table.to_csv()).map_err(write_err("stdout"))?;
        }
        if let Some((path, file)) = &mut report {
            file.write_all(outcome.report_jsonl(e.id(), scale.name(), seed).as_bytes())
                .map_err(write_err(path))?;
        }
    }
    Ok(())
}

fn cmd_compare(args: &Args) -> Result<String, ArgError> {
    args.expect_only(&[CONFIG_OPTS, &["csv"]].concat())?;
    let cfg = build_config(args)?;
    let mut t = Table::new(
        format!("comparison at n={} (seed {})", cfg.sim.n, cfg.sim.seed),
        &[
            "algo",
            "rounds",
            "peak_writers",
            "stall_ms",
            "blocked_ms",
            "forced",
            "ctrl_msgs",
            "piggy_B/msg",
        ],
    );
    for algo in Algo::comparison_set() {
        let r = run(&algo, cfg.clone());
        t.row(&[
            r.algo.into(),
            r.complete_rounds.to_string(),
            r.storage.peak_writers.to_string(),
            f2(r.storage.total_stall.as_secs_f64() * 1e3),
            f2(r.blocked_time.as_secs_f64() * 1e3),
            r.counters.get("ckpt.forced_before_processing").to_string(),
            r.ctrl_messages.to_string(),
            f2(r.piggyback_bytes as f64 / r.app_messages.max(1) as f64),
        ]);
    }
    let mut out = t.render();
    if args.flag("csv") {
        out.push('\n');
        out.push_str(&t.to_csv());
    }
    Ok(out)
}

fn cmd_recover(args: &Args) -> Result<String, ArgError> {
    args.expect_only(&[CONFIG_OPTS, &["crash-ms", "live"]].concat())?;
    let mut cfg = build_config(args)?;
    let crash_ms: u64 = args.num("crash-ms", 2_000)?;
    let n = cfg.sim.n;
    let victim = ProcessId((n / 2) as u32);
    cfg.workload_duration = SimDuration::from_millis(crash_ms + 1_000);
    cfg.faults =
        FaultPlan::single(victim, SimTime::from_millis(crash_ms), SimDuration::from_millis(50));
    cfg.stop_on_crash = !args.flag("live");
    let mut out = String::new();

    let r = run(&Algo::ocpt(), cfg.clone());
    if let Some(e) = &r.protocol_error {
        return Err(ArgError(format!("ocpt run failed: {e}")));
    }
    if args.flag("live") {
        let _ = writeln!(out, "[ocpt] rode through the crash of {victim} at t={crash_ms}ms");
        let _ =
            writeln!(out, "[ocpt] recoveries performed : {}", r.counters.get("recovery.performed"));
        let _ = writeln!(
            out,
            "[ocpt] in-transit re-sent   : {}",
            r.counters.get("recovery.resent_msgs")
        );
        let _ = writeln!(
            out,
            "[ocpt] events re-executed   : {}",
            r.counters.get("recovery.events_lost")
        );
        let _ = writeln!(out, "[ocpt] rounds completed     : {}", r.complete_rounds);
    } else {
        let obs = r.observer.as_ref().expect("observer on");
        let line = r.recovery_line;
        let roll = coordinated_rollback(obs, line);
        let verified = verify_restored_states(&r, line).map_err(ArgError)?;
        let total: u64 = obs.positions().iter().sum();
        let _ = writeln!(out, "[ocpt] crash of {victim} at t={crash_ms}ms; rollback to S_{line}");
        let _ = writeln!(
            out,
            "[ocpt] events lost {} of {} ({:.1}%), cascade rounds {}, restored verified {}",
            roll.events_lost,
            total,
            100.0 * roll.events_lost as f64 / total.max(1) as f64,
            roll.cascade_rounds,
            verified
        );
        let u = run(&Algo::Uncoordinated, cfg);
        let obs = u.observer.as_ref().expect("observer on");
        let roll = domino_rollback(obs, victim);
        let total: u64 = obs.positions().iter().sum();
        let _ = writeln!(
            out,
            "[uncoordinated] events lost {} of {} ({:.1}%), {} to initial state, cascade rounds {}",
            roll.events_lost,
            total,
            100.0 * roll.events_lost as f64 / total.max(1) as f64,
            roll.rolled_to_initial,
            roll.cascade_rounds
        );
    }
    Ok(out)
}

fn cmd_algos() -> String {
    let mut t = Table::new("available algorithms", &["name", "class", "notes"]);
    t.row(&[
        "ocpt".into(),
        "quasi-synchronous (the paper)".into(),
        "optimized control layer, phased writes".into(),
    ]);
    t.row(&[
        "ocpt-naive".into(),
        "quasi-synchronous".into(),
        "no CK_BGN suppression / REQ skipping / END broadcast".into(),
    ]);
    t.row(&[
        "ocpt-basic".into(),
        "quasi-synchronous".into(),
        "Fig. 3 only — may not converge".into(),
    ]);
    t.row(&[
        "chandy-lamport".into(),
        "synchronous snapshot".into(),
        "needs FIFO; clustered writes".into(),
    ]);
    t.row(&[
        "koo-toueg".into(),
        "blocking synchronous".into(),
        "blocks sends between phases".into(),
    ]);
    t.row(&["staggered".into(), "synchronous, staggered".into(), "token-serialised writes".into()]);
    t.row(&[
        "cic".into(),
        "communication-induced".into(),
        "forced checkpoints before processing".into(),
    ]);
    t.row(&["uncoordinated".into(), "asynchronous".into(), "domino effect at recovery".into()]);
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_cli(v: &[&str]) -> Result<String, ArgError> {
        let args = Args::parse(v.iter().map(|s| s.to_string()), BOOL_FLAGS)?;
        let mut out = Vec::new();
        dispatch(&args, &mut out)?;
        Ok(String::from_utf8(out).expect("utf-8 output"))
    }

    #[test]
    fn help_and_algos() {
        assert!(run_cli(&[]).unwrap().contains("USAGE"));
        assert!(run_cli(&["algos"]).unwrap().contains("chandy-lamport"));
        assert!(run_cli(&["bogus"]).is_err());
    }

    #[test]
    fn run_small() {
        let out = run_cli(&[
            "run",
            "--n",
            "3",
            "--duration-ms",
            "400",
            "--interval-ms",
            "150",
            "--state-kb",
            "64",
        ])
        .unwrap();
        assert!(out.contains("algorithm          ocpt"));
        assert!(out.contains("all consistent"));
    }

    #[test]
    fn run_each_algo_smoke() {
        for algo in ["chandy-lamport", "koo-toueg", "staggered", "cic", "uncoordinated"] {
            let out = run_cli(&[
                "run",
                "--algo",
                algo,
                "--n",
                "3",
                "--duration-ms",
                "300",
                "--interval-ms",
                "120",
                "--state-kb",
                "64",
            ])
            .unwrap();
            assert!(out.contains(algo), "{out}");
        }
    }

    #[test]
    fn compare_renders_table() {
        let out = run_cli(&[
            "compare",
            "--n",
            "3",
            "--duration-ms",
            "300",
            "--interval-ms",
            "120",
            "--state-kb",
            "64",
            "--csv",
        ])
        .unwrap();
        assert!(out.contains("== comparison"));
        assert!(out.contains("uncoordinated"));
        assert!(out.contains("algo,rounds")); // csv
    }

    #[test]
    fn recover_offline_and_live() {
        let out = run_cli(&[
            "recover",
            "--n",
            "4",
            "--crash-ms",
            "500",
            "--duration-ms",
            "900",
            "--interval-ms",
            "150",
            "--state-kb",
            "64",
        ])
        .unwrap();
        assert!(out.contains("rollback to S_"));
        assert!(out.contains("uncoordinated"));
        let out = run_cli(&[
            "recover",
            "--n",
            "4",
            "--crash-ms",
            "500",
            "--interval-ms",
            "150",
            "--state-kb",
            "64",
            "--live",
        ])
        .unwrap();
        assert!(out.contains("rode through"));
    }

    #[test]
    fn bad_inputs_rejected() {
        assert!(run_cli(&["run", "--n", "1"]).is_err());
        assert!(run_cli(&["run", "--algo", "nope"]).is_err());
        assert!(run_cli(&["run", "--topology", "torus"]).is_err());
        assert!(run_cli(&["run", "stray"]).is_err());
        assert!(run_cli(&["trace"]).is_err());
        assert!(run_cli(&["trace", "bogus"]).is_err());
        assert!(run_cli(&["trace", "summary"]).is_err());
        assert!(run_cli(&["trace", "summary", "/no/such/file.jsonl"]).is_err());
        // A misspelled --kind is an error naming every kind, not "0 matched".
        let empty =
            std::env::temp_dir().join(format!("ocpt_cli_kind_{}.jsonl", std::process::id()));
        std::fs::write(
            &empty,
            "{\"schema\":\"ocpt-trace\",\"version\":1,\"algo\":\"ocpt\",\"n\":2,\"seed\":0,\"events\":0}\n",
        )
        .expect("temp trace written");
        let path = empty.to_str().expect("utf-8 temp path");
        let e = run_cli(&["trace", "grep", path, "--kind", "ctrl_sendd"]).expect_err("bad kind");
        let e = e.to_string();
        assert!(e.contains("\"ctrl_sendd\""), "{e}");
        assert!(TRACE_KINDS.iter().all(|k| e.contains(k.name())), "{e}");
        let ok = run_cli(&["trace", "grep", path, "--kind", "ctrl_send"]).expect("known kind");
        assert!(ok.contains("0 of 0 events matched"), "{ok}");
        std::fs::remove_file(&empty).ok();
        // An option the subcommand does not read is named, never ignored.
        for (argv, stray) in [
            (&["run", "--n", "4", "--bogus", "3"][..], "--bogus"),
            (&["run", "--interval", "500"], "--interval"),
            (&["run", "--quick"], "--quick"),
            (&["compare", "--algo", "ocpt"], "--algo"),
            (&["recover", "--csv"], "--csv"),
            (&["trace", "summary", "f.jsonl", "--buckets", "3"], "--buckets"),
            (&["algos", "--n", "3"], "--n"),
            (&["exp", "e1", "--quick", "--json"], "--json"),
        ] {
            let e = run_cli(argv).expect_err("stray option accepted").to_string();
            assert!(e.contains(&format!("unknown option {stray} ")), "{argv:?}: {e}");
        }
    }

    #[test]
    fn exp_list_and_selection_errors() {
        let list = run_cli(&["exp", "list"]).expect("list renders");
        // Every DESIGN.md §4 id is named (A1 and A3 ride on E3 and E4).
        let design_ids =
            (1..=10).map(|i| format!("E{i}")).chain(["A1", "A2", "A3"].map(String::from));
        for id in design_ids {
            assert!(list.contains(&format!("{id}:")) || list.contains(&format!("{id}/")), "{id}");
        }
        assert!(CATALOG.iter().zip(list.lines()).all(|(e, l)| l.split(' ').next() == Some(e.id())));
        for argv in [&["exp"][..], &["exp", "e11", "--quick"]] {
            let e = run_cli(argv).expect_err("no such experiment").to_string();
            assert!(CATALOG.iter().all(|x| e.contains(x.id())) && e.contains("all | list"), "{e}");
        }
        assert!(run_cli(&["exp", "e1", "e2", "--quick"]).is_err());
        assert!(run_cli(&["exp", "e10", "--quick", "--strategy", "pessimistic"]).is_err());
        assert!(run_cli(&["exp", "e10", "--quick", "--replicates", "0"]).is_err());
        // --strategy on an experiment without that axis is refused, not ignored.
        let e = run_cli(&["exp", "e1", "--quick", "--strategy", "sender"]).expect_err("no axis");
        assert!(e.to_string().contains("--strategy does not apply to e1"), "{e}");
    }

    /// The `(header, rows)` of every CSV block `ocpt exp --csv` printed.
    fn csv_blocks(stdout: &str) -> Vec<(Vec<&str>, Vec<Vec<&str>>)> {
        let blocks = stdout.split("\n\n").filter(|b| !b.is_empty() && !b.starts_with("=="));
        blocks
            .map(|b| {
                let mut lines = b.lines().map(|l| l.split(',').collect::<Vec<_>>());
                (lines.next().expect("csv header"), lines.collect())
            })
            .collect()
    }

    #[test]
    fn exp_all_is_identical_across_jobs_and_its_report_matches_the_csv() {
        use ocpt_telemetry::json::{parse_object, Value};
        let report_path =
            std::env::temp_dir().join(format!("ocpt_cli_exp_{}.jsonl", std::process::id()));
        let report_arg = report_path.to_str().expect("utf-8 temp path");
        // --strategy inside `all` restricts the experiments that have the
        // axis and leaves the rest alone.
        let common = ["exp", "all", "--quick", "--csv", "--strategy", "causal"];
        let serial = run_cli(&[&common[..], &["--jobs", "1"]].concat()).expect("serial");
        let parallel =
            run_cli(&[&common[..], &["--jobs", "2", "--report-json", report_arg]].concat())
                .expect("parallel");
        assert_eq!(serial, parallel, "stdout depends on --jobs");
        let blocks = csv_blocks(&serial);
        assert_eq!(blocks.len(), CATALOG.len());
        for (e, (_, rows)) in CATALOG.iter().zip(&blocks) {
            let alone = |jobs| run_cli(&["exp", e.id(), "--quick", "--csv", "--jobs", jobs]);
            if e.strategy_axis() {
                assert!(rows.iter().all(|r| r[0] == "causal"), "{} not restricted", e.id());
                // Unrestricted, the matrix is four times the size and
                // still independent of --jobs.
                let one = alone("1").expect("serial matrix");
                assert_eq!(one, alone("2").expect("parallel matrix"), "{}", e.id());
                assert_eq!(csv_blocks(&one)[0].1.len(), 4 * rows.len());
            } else if e.id() != "e9" {
                // `ocpt exp <id>` prints exactly its section of `all`
                // (e9 is left out only for its debug-build cost).
                assert!(serial.contains(&alone("1").expect("single id")), "{} alone", e.id());
            }
        }

        // The report: per experiment a header, then the rows the CSV
        // shows — unrounded, each with its cell's event count.
        let report = std::fs::read_to_string(&report_path).expect("report written");
        std::fs::remove_file(&report_path).ok();
        let mut lines = report.lines().map(|l| parse_object(l).expect("report line parses"));
        for (e, (header, rows)) in CATALOG.iter().zip(&blocks) {
            let head = lines.next().expect("section header");
            assert_eq!(head[0], ("schema".into(), Value::Str("ocpt-report".into())));
            assert_eq!(head[2], ("experiment".into(), Value::Str(e.id().into())));
            assert!(head.contains(&("runs".into(), Value::UInt(rows.len() as u64))), "{}", e.id());
            for row in rows {
                let fields = lines.next().expect("one report line per csv row");
                for (name, cell) in header.iter().zip(row) {
                    let value = fields.iter().find(|(k, _)| k == name).map(|(_, v)| v);
                    let decimals = cell.split_once('.').map_or(0, |(_, frac)| frac.len());
                    let rendered = match value.expect("column in report") {
                        Value::Str(s) => s.clone(),
                        Value::Null => "-".to_string(),
                        v => format!("{:.decimals$}", v.as_f64().expect("number")),
                    };
                    assert_eq!(&rendered, cell, "{}: column {name}", e.id());
                }
                assert!(fields.iter().any(|(k, _)| k == "sim_events"));
            }
        }
        assert!(lines.next().is_none(), "report has more rows than the csv");
    }

    #[test]
    fn trace_record_summary_diff_grep_round_trip() {
        let dir = std::env::temp_dir().join(format!("ocpt_cli_trace_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let a = dir.join("a.jsonl");
        let b = dir.join("b.jsonl");
        let small = |seed: &str, path: &std::path::Path| {
            run_cli(&[
                "run",
                "--n",
                "3",
                "--seed",
                seed,
                "--duration-ms",
                "400",
                "--interval-ms",
                "150",
                "--state-kb",
                "64",
                "--trace-json",
                path.to_str().unwrap(),
            ])
            .unwrap()
        };
        let out = small("42", &a);
        assert!(out.contains("flight-recorder trace written to"));
        small("42", &b);
        // Same seed ⇒ identical traces.
        let d = run_cli(&["trace", "diff", a.to_str().unwrap(), b.to_str().unwrap()]).unwrap();
        assert!(d.contains("traces are identical"), "{d}");
        // Different seed ⇒ headers differ (reported, not an error).
        small("43", &b);
        let d = run_cli(&["trace", "diff", a.to_str().unwrap(), b.to_str().unwrap()]).unwrap();
        assert!(d.contains("headers differ"), "{d}");

        let s = run_cli(&["trace", "summary", a.to_str().unwrap()]).unwrap();
        assert!(s.contains("algo=ocpt n=3 seed=42"), "{s}");
        assert!(s.contains("events by kind:"), "{s}");
        assert!(s.contains("control waves"), "{s}");

        let g = run_cli(&["trace", "grep", a.to_str().unwrap(), "--pid", "0", "--code", "ctrl."])
            .unwrap();
        assert!(g.contains("events matched"), "{g}");
        assert!(g.lines().all(|l| l.contains("P0") || l.ends_with("events matched")), "{g}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trace_observatory_subcommands() {
        let dir = std::env::temp_dir().join(format!("ocpt_cli_obs_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let a = dir.join("a.jsonl");
        run_cli(&[
            "run",
            "--n",
            "3",
            "--seed",
            "42",
            "--duration-ms",
            "400",
            "--interval-ms",
            "150",
            "--state-kb",
            "64",
            "--trace-json",
            a.to_str().unwrap(),
        ])
        .unwrap();
        let p = a.to_str().unwrap();

        let t = run_cli(&["trace", "timeline", p, "--buckets", "24"]).unwrap();
        assert!(t.contains("timeline: algo=ocpt n=3 seed=42"), "{t}");
        assert!(t.contains("in_flight_app"), "{t}");
        let tj = run_cli(&["trace", "timeline", p, "--json"]).unwrap();
        assert!(tj.starts_with("{\"schema\":\"ocpt-timeline\",\"version\":1,"), "{tj}");

        let c = run_cli(&["trace", "critical-path", p]).unwrap();
        assert!(c.contains("critical path: algo=ocpt"), "{c}");
        assert!(c.contains("longest round:"), "{c}");

        let fl = run_cli(&["trace", "flame", p]).unwrap();
        assert!(fl.lines().count() >= 1, "{fl}");
        assert!(fl.lines().all(|l| l
            .rsplit_once(' ')
            .is_some_and(|(f, v)| { f.starts_with("round#") && v.parse::<u64>().is_ok() })));

        let h = run_cli(&["trace", "health", p]).unwrap();
        assert!(h.contains("health: algo=ocpt n=3 seed=42"), "{h}");
        assert!(h.contains("round latency"), "{h}");
        let hj = run_cli(&["trace", "health", p, "--json"]).unwrap();
        assert!(hj.starts_with("{\"schema\":\"ocpt-health\",\"version\":1,"), "{hj}");

        // --after/--before window flags; identical to --from-ms/--to-ms.
        let w1 = run_cli(&["trace", "grep", p, "--after", "100", "--before", "200"]).unwrap();
        let w2 = run_cli(&["trace", "grep", p, "--from-ms", "100", "--to-ms", "200"]).unwrap();
        assert_eq!(w1, w2);
        assert!(w1.contains("events matched"), "{w1}");

        // Regenerated help and error text list every subcommand.
        let u = usage();
        for sub in ["timeline", "critical-path", "flame", "health"] {
            assert!(u.contains(sub), "usage missing {sub}");
        }
        let e = run_cli(&["trace", "bogus"]).unwrap_err().to_string();
        assert!(e.contains("timeline") && e.contains("health"), "{e}");
        assert!(run_cli(&["trace", "timeline", p, "--buckets", "0"]).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn diagram_flag() {
        let out = run_cli(&[
            "run",
            "--n",
            "3",
            "--duration-ms",
            "200",
            "--interval-ms",
            "100",
            "--state-kb",
            "64",
            "--diagram",
        ])
        .unwrap();
        assert!(out.contains("legend:"));
    }
}
