//! Command line of the benchmark.
//!
//! `--workload <name> --seed <n> --seconds <n> --trace <0|1>` measures one
//! workload in this process and ends with the one-line JSON result.
//! Without `--workload` it runs the whole suite: every workload in turn,
//! each in a fresh child process of this binary so that peak memory and
//! allocator state belong to that workload alone.

#![forbid(unsafe_code)]

use std::process::{Command, ExitCode};

use ocpt_benchmark::catalog;
use ocpt_benchmark::host;
use ocpt_benchmark::measure::{self, Limit, Options, Report};
use ocpt_benchmark::report;
use ocpt_benchmark::stats::rel_diff;
use ocpt_benchmark::workloads::{Scale, Workload};

const USAGE: &str =
    "usage: ocpt-benchmark [--workload <name>] [--seed <n>] [--seconds <n> | --reps <k>]
                      [--trace <0|1>] [--repeat-check] [--print-benchmark-json]

  --workload <name>   measure one workload and end with the JSON result line:
                      steady_mesh, round_storm, verified_mesh, crash_replay,
                      observatory or exp_grid; without it, run the suite
                      (all six, untraced then traced)
  --seed <n>          seed every input derives from (default 42)
  --seconds <n>       repeat the timed region until n seconds are measured (at least 3 times)
  --reps <k>          exactly k timed repetitions (suite default 5)
  --trace <0|1>       0: end-to-end metrics, recorder off; 1: per-layer metrics and spans
  --repeat-check      measure every workload twice, untraced, and fail unless simulated
                      metrics and sim_digest are identical and host-time medians agree
                      within their bounds
  --print-benchmark-json  print the BENCHMARK.json generated from the metric catalog";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    reps: Option<usize>,
    trace: bool,
    repeat_check: bool,
    print_json: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 42,
        seconds: None,
        reps: None,
        trace: false,
        repeat_check: false,
        print_json: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                a.workload =
                    Some(Workload::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => {
                a.seed = value("an integer")?.parse().map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                a.seconds = Some(s);
            }
            "--reps" => {
                let k: usize = value("an integer")?.parse().map_err(|e| format!("--reps: {e}"))?;
                if k == 0 {
                    return Err("--reps must be at least 1".into());
                }
                a.reps = Some(k);
            }
            "--trace" => {
                a.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--repeat-check" => a.repeat_check = true,
            "--print-benchmark-json" => a.print_json = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if a.seconds.is_some() && a.reps.is_some() {
        return Err("--seconds and --reps exclude each other".into());
    }
    Ok(a)
}

/// Measure one workload in this process and print every value by name.
fn measure_one(a: &Args, workload: Workload, trace: bool) -> Result<Report, String> {
    let limit = match (a.reps, a.seconds) {
        (Some(k), _) => Limit::Reps(k),
        (None, s) => Limit::Seconds(s.unwrap_or(catalog::RUN_SECONDS as f64)),
    };
    let o = Options { workload, seed: a.seed, scale: Scale::Full, limit };
    let name = workload.name();
    println!("# workload={name} seed={} trace={} limit={limit:?}", a.seed, u8::from(trace));
    let report = if trace {
        let (report, rec) = measure::traced(&o)?;
        let path = host::bench_dir().join("out").join(format!("spans-{name}.jsonl"));
        rec.write_jsonl(&path, name).map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("# {} spans written to {}", rec.spans().len(), path.display());
        report
    } else {
        measure::untraced(&o)?
    };
    report::print_lines(name, &report);
    Ok(report)
}

/// `--repeat-check` on one workload: two untraced passes must agree.
fn repeat_check(a: &Args, w: Workload) -> Result<bool, String> {
    let one = measure_one(a, w, false)?;
    // The second pass reuses the heap the first one grew; its peak counts
    // from here.
    host::reset_peak_rss()?;
    let two = measure_one(a, w, false)?;
    let same_digest = one.digest == two.digest;
    println!(
        "repeat {} sim_digest {}",
        w.name(),
        if same_digest { "identical" } else { "DIFFERS" }
    );
    let mut ok = same_digest && one.checks.failed == 0 && two.checks.failed == 0;
    for def in catalog::end_to_end_all() {
        let (Some(x), Some(y)) = (one.get(def.name), two.get(def.name)) else {
            continue;
        };
        // Simulated statistics must repeat exactly; host-time medians
        // within the metric's own bound.
        let bound = if def.host { def.bound.unwrap_or(0.0) } else { 0.0 };
        let spread = rel_diff(x, y);
        let verdict = if spread <= bound { "ok" } else { "FAIL" };
        println!(
            "repeat {} {} A={x} B={y} {} spread={spread:.4} bound={bound} {verdict}",
            w.name(),
            def.name,
            def.unit
        );
        ok &= spread <= bound;
    }
    Ok(ok)
}

/// The suite: every workload in a fresh process of this binary, one after
/// the other, so that peak memory and allocator state are that workload's
/// alone. The children print; only their exit status is read.
fn suite(a: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let passes: &[&str] = if a.repeat_check { &["0"] } else { &["0", "1"] };
    let mut ok = true;
    for trace in passes {
        for w in Workload::ALL {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w.name(), "--seed", &a.seed.to_string(), "--trace", trace]);
            match (a.reps, a.seconds) {
                (_, Some(s)) => cmd.args(["--seconds", &s.to_string()]),
                (k, None) => cmd.args(["--reps", &k.unwrap_or(5).to_string()]),
            };
            if a.repeat_check {
                cmd.arg("--repeat-check");
            }
            let status = cmd.status().map_err(|e| format!("starting {}: {e}", w.name()))?;
            if !status.success() {
                println!("FAILED {} (trace={trace}): exited with {status}", w.name());
                ok = false;
            }
        }
    }
    Ok(ok)
}

fn run(a: &Args) -> Result<bool, String> {
    if a.print_json {
        print!("{}", catalog::benchmark_json());
        return Ok(true);
    }
    let profile = host::check_profile(&host::bench_dir())?;
    let Some(w) = a.workload else {
        println!("# ocpt benchmark suite: seed={}", a.seed);
        println!("# host: {}", host::describe(&profile));
        return suite(a);
    };
    if a.repeat_check {
        return repeat_check(a, w);
    }
    println!("# host: {}", host::describe(&profile));
    let report = measure_one(a, w, a.trace)?;
    let json = if a.trace {
        report::result_json(&report, catalog::per_layer_all())
    } else {
        report::result_json(&report, catalog::END_TO_END.iter())
    };
    println!("{}", json?);
    Ok(report.checks.failed == 0)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("error: {e}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!(
                "error: a correctness or repeatability check failed (see FAILED / FAIL lines)"
            );
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
