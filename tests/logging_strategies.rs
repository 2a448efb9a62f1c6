//! The logging-strategy matrix end to end: the selective strategy is the
//! published protocol *exactly* (trace-, metrics- and wire-byte identical
//! to the default), every strategy restores byte-exact states through its
//! own replay plan under random fault schedules, and the causal variant's
//! frozen cut clocks reproduce Theorem 2 through the second oracle.

use ocpt::harness::{log_recovery_report, verify_restored_states};
use ocpt::prelude::*;
use proptest::prelude::*;

fn base_cfg(n: usize, seed: u64) -> RunConfig {
    let mut cfg = RunConfig::new(n, seed);
    cfg.workload = WorkloadSpec::uniform_mesh(SimDuration::from_millis(3));
    cfg.checkpoint_interval = SimDuration::from_millis(150);
    cfg.workload_duration = SimDuration::from_millis(900);
    cfg.state_bytes = 64 * 1024;
    cfg.trace = true;
    cfg
}

/// The tentpole's ground rule: asking for `LoggingKind::Selective`
/// explicitly is the *same algorithm* as not asking at all — same name,
/// same trace bytes, same metrics bytes — under both scheduler kernels.
#[test]
fn selective_is_byte_identical_to_the_default() {
    for sched in [SchedulerKind::Wheel, SchedulerKind::ReferenceHeap] {
        let mut cfg = base_cfg(6, 2024);
        cfg.scheduler = sched;
        let default = run_checked(&Algo::ocpt(), cfg.clone());
        let explicit = run_checked(&Algo::ocpt_logging(LoggingKind::Selective), cfg);
        assert_eq!(explicit.algo, "ocpt");
        assert_eq!(default.trace_jsonl(), explicit.trace_jsonl(), "{sched:?}: traces diverged");
        assert_eq!(default.metrics_json(), explicit.metrics_json(), "{sched:?}: metrics diverged");
    }
}

/// The strategies may only change what they claim to change. Sender- and
/// receiver-based logging are local decisions: their runs put the same
/// bytes on the wire as selective (clock-free piggybacks). Causal logging
/// piggybacks vector clocks, and pays for it visibly.
#[test]
fn wire_bytes_move_only_for_the_causal_variant() {
    let cfg = base_cfg(6, 77);
    let selective = run_checked(&Algo::ocpt(), cfg.clone());
    for kind in [LoggingKind::SenderBased, LoggingKind::ReceiverBased] {
        let r = run_checked(&Algo::ocpt_logging(kind), cfg.clone());
        assert_eq!(r.piggyback_bytes, selective.piggyback_bytes, "{kind:?}");
        assert_eq!(r.app_messages, selective.app_messages, "{kind:?}");
        // Local decisions show up in the log counters instead.
        assert!(r.counters.get("log.sent_det") + r.counters.get("log.received_det") > 0);
    }
    let causal = run_checked(&Algo::ocpt_logging(LoggingKind::CausalCompressed), cfg);
    assert!(
        causal.piggyback_bytes > selective.piggyback_bytes,
        "causal must pay clock bytes: {} vs {}",
        causal.piggyback_bytes,
        selective.piggyback_bytes
    );
    // Selective logs no determinants at all.
    assert_eq!(selective.counters.get("log.sent_det"), 0);
    assert_eq!(selective.counters.get("log.received_det"), 0);
}

/// Orphan storage completions come only from a rollback: the runner
/// forgets the writes it had in flight while the server keeps serving
/// them. A run that never recovers must hand every completion back to the
/// write that asked for it, under every strategy.
#[test]
fn no_orphan_completions_without_recovery() {
    for kind in LoggingKind::ALL {
        let r = run_checked(&Algo::ocpt_logging(kind), base_cfg(6, 31));
        assert_eq!(r.counters.get("recovery.performed"), 0, "{kind:?}: fault-free run recovered");
        assert!(r.counters.get("ckpt.durable") > 0, "{kind:?}: no checkpoint reached storage");
        assert_eq!(r.counters.get("storage.orphan_completions"), 0, "{kind:?}");
    }
}

/// Every strategy's recorded history is deterministic: the trace is a pure
/// function of `(config, seed)` under either scheduler kernel.
#[test]
fn strategy_traces_are_scheduler_independent() {
    for kind in LoggingKind::ALL {
        let mut a = base_cfg(5, 4242);
        a.scheduler = SchedulerKind::Wheel;
        let mut b = base_cfg(5, 4242);
        b.scheduler = SchedulerKind::ReferenceHeap;
        let ra = run_checked(&Algo::ocpt_logging(kind), a);
        let rb = run_checked(&Algo::ocpt_logging(kind), b);
        assert_eq!(ra.trace_jsonl(), rb.trace_jsonl(), "{kind:?}: trace depends on scheduler");
    }
}

/// Theorem 2 through the second oracle, for the causal variant: the cut
/// clocks frozen into the durable logs at each finalization must be
/// pairwise concurrent-or-equal for every fully durable `S_k`.
#[test]
fn causal_frozen_cut_clocks_are_pairwise_consistent() {
    let r = run_checked(&Algo::ocpt_logging(LoggingKind::CausalCompressed), base_cfg(6, 909));
    let line = r.recovery_line;
    assert!(line >= 1, "need at least one durable round");
    let mut rounds_checked = 0;
    for csn in 1..=line {
        let mut clocks = Vec::new();
        for pid in ProcessId::all(r.n) {
            let Some(ckpt) = r.store.get(pid, csn) else { break };
            let log = MessageLog::decode(ckpt.log.clone()).expect("durable causal log decodes");
            clocks.push(log.clock().expect("causal logs freeze the cut clock").clone());
        }
        if clocks.len() < r.n {
            continue; // partially GC'd round
        }
        assert!(
            ocpt::causality::pairwise_consistent(&clocks),
            "S_{csn}: frozen cut clocks are causally ordered"
        );
        rounds_checked += 1;
    }
    assert!(rounds_checked >= 1, "no fully durable round to check");
}

fn faulted_cfg(n: usize, seed: u64, gap_us: u64, crash_ms: u64, victim: u32) -> RunConfig {
    let mut cfg = RunConfig::new(n, seed);
    cfg.workload = WorkloadSpec::uniform_mesh(SimDuration::from_micros(gap_us));
    cfg.checkpoint_interval = SimDuration::from_millis(120);
    cfg.workload_duration = SimDuration::from_millis(900);
    cfg.state_bytes = 64 * 1024;
    cfg.faults = FaultPlan::single(
        ProcessId(victim % n as u32),
        SimTime::from_millis(crash_ms),
        SimDuration::from_millis(10),
    );
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Replay equivalence: under random workloads and a random crash,
    /// every strategy's durable `CT + logSet` blobs restore the exact
    /// ground-truth state at the finalization cut — whatever mix of
    /// payload and determinant entries its replay plan used — and the
    /// run survives live recovery without protocol errors.
    #[test]
    fn every_strategy_restores_exact_states_under_faults(
        seed in any::<u64>(),
        n in 3usize..8,
        gap_us in 800u64..8_000,
        crash_ms in 150u64..700,
        victim in any::<u32>(),
        kind_ix in 0usize..4,
    ) {
        let kind = LoggingKind::ALL[kind_ix];
        let r = run(&Algo::ocpt_logging(kind), faulted_cfg(n, seed, gap_us, crash_ms, victim));
        prop_assert!(r.protocol_error.is_none(), "{:?}: {:?}", kind, r.protocol_error);
        if r.recovery_line > 0 {
            verify_restored_states(&r, r.recovery_line).map_err(TestCaseError::fail)?;
        }
    }

    /// The offline recovery analysis never fails on a faulted run, and its
    /// gap accounting respects each strategy's contract: selective and
    /// sender-based leave no replay gaps at all, and only the
    /// receiver-based (determinant-sends) strategy may lose in-transit
    /// messages.
    #[test]
    fn recovery_analysis_matches_strategy_contracts(
        seed in any::<u64>(),
        gap_us in 800u64..6_000,
        crash_ms in 150u64..700,
        kind_ix in 0usize..4,
    ) {
        let kind = LoggingKind::ALL[kind_ix];
        let mut cfg = faulted_cfg(6, seed, gap_us, crash_ms, 3);
        cfg.stop_on_crash = true;
        let r = run(&Algo::ocpt_logging(kind), cfg);
        prop_assert!(r.protocol_error.is_none());
        let rep = log_recovery_report(&r).map_err(TestCaseError::fail)?;
        match kind {
            LoggingKind::Selective => {
                prop_assert_eq!(rep.fetched, 0);
                prop_assert_eq!(rep.orphans, 0);
                prop_assert_eq!(rep.lost_in_transit, 0);
            }
            LoggingKind::SenderBased => {
                prop_assert_eq!(rep.replayed_local, 0, "every receive is a determinant");
                prop_assert_eq!(rep.orphans, 0, "continuous sender payloads cover every fetch");
                prop_assert_eq!(rep.lost_in_transit, 0);
            }
            LoggingKind::ReceiverBased => {
                prop_assert_eq!(rep.fetched, 0, "receiver keeps payloads local");
                prop_assert_eq!(rep.orphans, 0);
            }
            LoggingKind::CausalCompressed => {
                prop_assert_eq!(rep.lost_in_transit, 0, "window sends carry payloads");
            }
        }
    }
}
