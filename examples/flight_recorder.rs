//! Flight recorder: record a run's full event history, derive causal
//! spans from it, and round-trip the versioned JSONL trace format.
//!
//! ```sh
//! cargo run --example flight_recorder
//! ```
//!
//! The same artifacts come out of every experiment
//! (`ocpt exp <id> --trace-out DIR`) and out of `ocpt run --trace-json FILE`;
//! `ocpt trace summary|diff|grep` analyzes them from the command line.

use ocpt::prelude::*;
use ocpt::telemetry;

fn main() {
    // A small traced run: 4 processes, ~1.2 s of virtual time, one crash.
    let mut cfg = RunConfig::new(4, 42);
    cfg.workload = WorkloadSpec::uniform_mesh(SimDuration::from_millis(5));
    cfg.checkpoint_interval = SimDuration::from_millis(300);
    cfg.workload_duration = SimDuration::from_millis(1_200);
    cfg.state_bytes = 256 * 1024;
    cfg.stop_on_crash = false;
    cfg.faults = FaultPlan::single(
        ProcessId(2),
        SimTime::ZERO + SimDuration::from_millis(700),
        SimDuration::from_millis(40),
    );
    cfg.trace = true;

    let result = run_checked(&Algo::ocpt(), cfg);

    // 1. Export: the versioned, byte-deterministic JSONL trace.
    let jsonl = result.trace_jsonl();
    println!("trace is {} bytes of JSONL; first two lines:", jsonl.len());
    for line in jsonl.lines().take(2) {
        println!("  {line}");
    }

    // 2. Round-trip: parse it back (this validates the schema) …
    let file = telemetry::parse_jsonl(&jsonl).expect("own trace is schema-valid");
    println!("\nparsed {} events back from the trace", file.recs.len());

    // … and the whole-trace summary the CLI prints.
    println!("\n{}", telemetry::summary(&file));

    // 3. Spans: the causal intervals behind the summary.
    let spans = telemetry::derive_spans(&file.recs);
    for s in spans.iter().filter(|s| s.kind == telemetry::SpanKind::Wave) {
        println!(
            "control wave of round {} converged in {:.3} ms",
            s.seq.expect("waves are round-scoped"),
            s.secs() * 1e3
        );
    }
    for s in spans.iter().filter(|s| s.kind == telemetry::SpanKind::Outage) {
        println!(
            "P{} was down for {:.3} ms{}",
            s.pid.expect("outages are per-process"),
            s.secs() * 1e3,
            if s.closed { "" } else { " (never recovered)" }
        );
    }

    // 4. Grep: the crash episode, as the CLI's `trace grep` would list it.
    let filter = telemetry::GrepFilter {
        code_prefix: Some("fault.".into()),
        ..telemetry::GrepFilter::default()
    };
    println!("\nfault events:");
    for rec in telemetry::grep(&file, &filter) {
        println!("  {}", telemetry::render_rec(rec));
    }

    // 5. Determinism: re-running the identical configuration reproduces
    //    the trace byte for byte — the property `trace diff` leans on.
    let mut cfg2 = RunConfig::new(4, 42);
    cfg2.workload = WorkloadSpec::uniform_mesh(SimDuration::from_millis(5));
    cfg2.checkpoint_interval = SimDuration::from_millis(300);
    cfg2.workload_duration = SimDuration::from_millis(1_200);
    cfg2.state_bytes = 256 * 1024;
    cfg2.stop_on_crash = false;
    cfg2.faults = FaultPlan::single(
        ProcessId(2),
        SimTime::ZERO + SimDuration::from_millis(700),
        SimDuration::from_millis(40),
    );
    cfg2.trace = true;
    let replay = run_checked(&Algo::ocpt(), cfg2);
    assert_eq!(jsonl, replay.trace_jsonl(), "same (config, seed) ⇒ same bytes");
    println!("\nreplay with the same seed reproduced the trace byte for byte ✓");
}
