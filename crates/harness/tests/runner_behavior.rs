//! Behavioural tests of the simulation driver itself: write serialization,
//! blocking accounting, garbage collection, horizon safety, workload
//! accounting — the plumbing the experiments' numbers stand on.

use ocpt_harness::workload::{Pattern, PayloadSpec, Timing};
use ocpt_harness::{run, run_checked, Algo, RunConfig, WorkloadSpec};
use ocpt_sim::{DelayModel, ProcessId, SimDuration, Topology};

fn base(n: usize, seed: u64) -> RunConfig {
    let mut cfg = RunConfig::new(n, seed);
    cfg.workload = WorkloadSpec::uniform_mesh(SimDuration::from_millis(4));
    cfg.checkpoint_interval = SimDuration::from_millis(300);
    cfg.workload_duration = SimDuration::from_millis(1200);
    cfg.state_bytes = 256 * 1024;
    cfg
}

#[test]
fn app_message_accounting_balances() {
    let r = run_checked(&Algo::ocpt(), base(5, 1));
    // Every sent message is eventually delivered (reliable channels, no
    // crash): sends == deliveries.
    assert_eq!(r.counters.get("app.messages"), r.counters.get("app.delivered"));
    assert_eq!(r.app_messages, r.counters.get("app.messages"));
    assert!(r.app_payload_bytes >= r.app_messages * 1024, "1 KiB fixed payloads");
}

#[test]
fn storage_write_accounting_balances() {
    let r = run_checked(&Algo::ocpt(), base(5, 2));
    // Writes issued == durable records × writes-per-checkpoint components;
    // at quiescence nothing is left in flight, so total requests at the
    // server equals issued writes.
    let issued = r.counters.get("storage.writes");
    assert_eq!(r.storage.total_requests, issued);
    // Each durable checkpoint wrote state + log.
    assert_eq!(issued, r.counters.get("ckpt.durable") * 2);
}

#[test]
fn per_process_write_serialization() {
    // With one connection per process, a single process can never have two
    // requests at the server, so peak_writers ≤ n even when state+log are
    // issued together.
    let mut cfg = base(4, 3);
    // Force worst clustering: immediate writes.
    let ocfg = ocpt_core::OcptConfig {
        flush_policy: ocpt_core::FlushPolicy::Eager,
        finalize_write: ocpt_core::WritePolicy::Immediate,
        ..Default::default()
    };
    let r = run_checked(&Algo::Ocpt(ocfg), cfg.clone());
    assert!(r.storage.peak_writers <= 4, "peak {} > n", r.storage.peak_writers);
    // And some queueing actually happened (state+log pairs).
    assert!(r.counters.get("storage.writes_queued") > 0);
    cfg.sim.seed += 1;
}

#[test]
fn gc_keeps_only_recent_checkpoints() {
    let mut with_gc = base(4, 4);
    with_gc.gc_old_checkpoints = true;
    let r = run_checked(&Algo::ocpt(), with_gc);
    assert!(r.counters.get("storage.gc_reclaimed") > 0, "nothing reclaimed");
    // Only the line (and anything newer) remains.
    let line = r.recovery_line;
    assert!(line >= 2);
    for pid in ProcessId::all(4) {
        assert!(r.store.get(pid, line).is_some());
        assert!(r.store.get(pid, line.saturating_sub(1)).is_none(), "old ckpt survived GC");
    }

    let without = base(4, 4);
    let r2 = run_checked(&Algo::ocpt(), without);
    assert!(r2.store.len() > r.store.len(), "GC did not shrink the store");
}

#[test]
fn horizon_stops_runaway_runs() {
    let mut cfg = base(3, 5);
    // A pathological configuration: retries forever because Koo–Toueg
    // blocks and the commit never comes (coordinator crashed).
    cfg.sim = cfg.sim.with_horizon(SimDuration::from_millis(1500));
    cfg.faults = ocpt_sim::FaultPlan::single(
        ProcessId(0), // the coordinator
        ocpt_sim::SimTime::from_millis(100),
        SimDuration::from_millis(1),
    );
    cfg.stop_on_crash = false;
    let r = run(&Algo::KooToueg, cfg);
    // The run ends (horizon or error) instead of spinning forever.
    assert!(r.makespan <= ocpt_sim::SimTime::from_millis(1500) + SimDuration::from_millis(1));
}

#[test]
fn blocked_time_measured_for_koo_toueg_under_slow_storage() {
    let mut cfg = base(6, 6);
    // Dense traffic guarantees sends land inside every blocking window
    // (the window itself is control-RTT-bound, so only traffic density —
    // not storage speed — decides how much blocking is observable).
    cfg.workload = WorkloadSpec::uniform_mesh(SimDuration::from_micros(500));
    // Slow storage stretches phase 1, lengthening the blocking window.
    cfg.storage = ocpt_storage::StorageConfig {
        bandwidth_bps: 4.0 * 1024.0 * 1024.0,
        per_request_overhead: SimDuration::from_millis(5),
    };
    let r = run_checked(&Algo::KooToueg, cfg);
    assert!(r.blocked_time > SimDuration::from_millis(1), "blocking not captured");
    assert!(r.counters.get("app.send_deferred") > 0);
}

#[test]
fn fifo_forced_for_marker_algorithms() {
    // Chandy–Lamport on explicitly non-FIFO config must still run FIFO
    // (the runner honours needs_fifo), otherwise markers would error.
    let mut cfg = base(4, 7);
    cfg.sim = cfg
        .sim
        .with_fifo(false)
        .with_delay(DelayModel::Uniform(SimDuration::from_micros(10), SimDuration::from_millis(3)));
    let r = run_checked(&Algo::ChandyLamport, cfg);
    assert!(r.complete_rounds >= 1);
}

#[test]
fn ring_topology_still_converges() {
    let mut cfg = base(6, 8);
    cfg.workload = WorkloadSpec {
        topology: Topology::Ring,
        pattern: Pattern::Uniform,
        timing: Timing::Poisson { mean: SimDuration::from_millis(4) },
        payload: PayloadSpec::Fixed(512),
    };
    let r = run_checked(&Algo::ocpt(), cfg);
    assert!(r.complete_rounds >= 2);
    assert_eq!(r.counters.get("ckpt.finalized"), r.counters.get("ckpt.tentative"));
}

#[test]
fn master_worker_star_converges() {
    let mut cfg = base(5, 9);
    cfg.workload = WorkloadSpec {
        topology: Topology::Star,
        pattern: Pattern::MasterWorker,
        timing: Timing::Uniform {
            gap: SimDuration::from_millis(3),
            jitter: SimDuration::from_micros(500),
        },
        payload: PayloadSpec::Uniform(64, 2048),
    };
    let r = run_checked(&Algo::ocpt(), cfg);
    assert!(r.complete_rounds >= 2);
}

#[test]
fn bursty_traffic_converges() {
    let mut cfg = base(4, 10);
    cfg.workload = WorkloadSpec {
        topology: Topology::FullMesh,
        pattern: Pattern::HotSpot { hot: ProcessId(0), bias: 0.5 },
        timing: Timing::Bursty {
            burst_len: 10,
            fast: SimDuration::from_micros(300),
            idle: SimDuration::from_millis(40),
        },
        payload: PayloadSpec::Fixed(256),
    };
    let r = run_checked(&Algo::ocpt(), cfg);
    assert!(r.complete_rounds >= 2);
}

#[test]
fn no_checkpointing_baseline_run() {
    // interval = MAX disables checkpointing entirely: useful as the E2
    // reference; nothing must be written or completed.
    let mut cfg = base(4, 11);
    cfg.checkpoint_interval = SimDuration::MAX;
    let r = run(&Algo::ocpt(), cfg);
    assert_eq!(r.complete_rounds, 0);
    assert_eq!(r.storage.total_requests, 0);
    assert_eq!(r.counters.get("ckpt.tentative"), 0);
    assert!(r.app_messages > 0);
}

#[test]
fn piggyback_and_ctrl_byte_accounting() {
    let r = run_checked(&Algo::ocpt(), base(4, 12));
    let per_msg = r.piggyback_bytes / r.app_messages;
    // At N = 4 the dense bitmap is always the smallest encoding, so every
    // piggyback costs exactly the dense formula.
    assert_eq!(per_msg as usize, ocpt_core::Piggyback::dense_wire_bytes_for(4));
    if r.ctrl_messages > 0 {
        assert_eq!(r.ctrl_bytes, r.ctrl_messages * 15, "ctrl messages are 15 B");
    }
}

/// Storage wakeups are addressed to `P_0` (every event needs a target),
/// so `P_0`'s crash purges the shared server's one live wakeup along with
/// its own events. The runner must re-arm it: otherwise every survivor's
/// in-flight write is handed back only when some later submit happens to
/// arm a new wakeup.
#[test]
fn storage_wakeup_survives_a_p0_crash() {
    use ocpt_sim::{Fault, FaultPlan, SimTime, TraceKind};
    let mut cfg = base(6, 13);
    cfg.trace = true;
    cfg.stop_on_crash = false;
    // Slow storage: the first round's state writes (P_0 initiates at
    // 300 ms) share the server from 345 ms to 565 ms; at 450 ms P_0's own
    // are durable and the five survivors' are all in flight.
    cfg.storage = ocpt_storage::StorageConfig {
        bandwidth_bps: 8.0 * 1024.0 * 1024.0,
        per_request_overhead: SimDuration::from_millis(2),
    };
    let crash_at = SimTime::from_millis(450);
    cfg.faults = FaultPlan::none().with(Fault { pid: ProcessId(0), at: crash_at, down_for: None });
    let r = run(&Algo::ocpt(), cfg);
    assert_eq!(r.crash, Some((ProcessId(0), crash_at)));

    // A completion is recorded at its `Completion::at` the moment the pump
    // hands it back, so the trace clock may run at most the wakeup's 1 ns
    // margin ahead of it. A stalled pump shows as a `StorageDone` stamped
    // long before the records that precede it.
    let events = r.trace.events();
    let mut clock = SimTime::ZERO;
    let mut survivors_done_after_crash = 0;
    for e in events {
        if e.kind == TraceKind::StorageDone {
            assert!(
                clock <= e.at + SimDuration::from_nanos(1),
                "{} write durable at {} handed back after {clock}",
                e.pid,
                e.at
            );
            survivors_done_after_crash += usize::from(e.pid != ProcessId(0) && e.at > crash_at);
        }
        clock = clock.max(e.at);
    }
    assert!(survivors_done_after_crash >= 3, "the crash must land mid-round");
}

/// With unstaggered ticks and eager flushes every process starts an
/// equal state write at the same instant, so the processor-sharing server
/// completes them together, and a completion's hand-back starts that
/// process's queued log write at the wakeup. The trace must still read in
/// time order: a wakeup records all its completions first.
#[test]
fn tied_completions_keep_the_trace_in_time_order() {
    let mut cfg = base(4, 9);
    cfg.stagger_initiation = false;
    cfg.trace = true;
    let ocfg = ocpt_core::OcptConfig {
        flush_policy: ocpt_core::FlushPolicy::Eager,
        finalize_write: ocpt_core::WritePolicy::Immediate,
        ..Default::default()
    };
    let r = run_checked(&Algo::Ocpt(ocfg), cfg);
    assert!(r.counters.get("storage.writes_queued") > 0, "log writes queue behind state");
    ocpt_telemetry::parse_jsonl(&r.trace_jsonl()).expect("trace reads in time order");
}
