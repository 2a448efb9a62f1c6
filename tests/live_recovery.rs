//! Live recovery: the system crashes, rolls back to the durable recovery
//! line `S_k`, re-injects the in-transit messages preserved by selective
//! logging, resumes the workload — and keeps collecting *consistent*
//! global checkpoints afterwards. This exercises the paper's purpose
//! end-to-end: checkpoints exist to be recovered from.

use ocpt::prelude::*;
use proptest::prelude::*;

fn recovery_cfg(n: usize, seed: u64, crash_ms: u64, down_ms: u64) -> RunConfig {
    let mut cfg = RunConfig::new(n, seed);
    cfg.workload = WorkloadSpec::uniform_mesh(SimDuration::from_millis(4));
    cfg.checkpoint_interval = SimDuration::from_millis(250);
    cfg.workload_duration = SimDuration::from_millis(crash_ms + down_ms + 1_500);
    cfg.state_bytes = 128 * 1024;
    cfg.faults = FaultPlan::single(
        ProcessId(1),
        SimTime::from_millis(crash_ms),
        SimDuration::from_millis(down_ms),
    );
    cfg.stop_on_crash = false; // ride through the failure
    cfg
}

#[test]
fn system_recovers_and_keeps_checkpointing() {
    let r = run(&Algo::ocpt(), recovery_cfg(5, 2024, 900, 60));
    assert!(r.protocol_error.is_none(), "{:?}", r.protocol_error);
    assert_eq!(r.counters.get("recovery.performed"), 1);
    // The run continued past the crash: new rounds completed after the
    // rollback (the fresh observation epoch contains them).
    let obs = r.observer.as_ref().unwrap();
    let post_rounds = obs.complete_csns();
    assert!(!post_rounds.is_empty(), "no checkpoint round completed after recovery");
    // And every one of them is consistent.
    for csn in post_rounds {
        assert!(obs.judge(csn).unwrap().is_consistent(), "post-recovery S_{csn} inconsistent");
        assert_eq!(obs.vclock_consistent(csn), Some(true));
    }
}

#[test]
fn rollback_erases_post_line_checkpoints() {
    let r = run(&Algo::ocpt(), recovery_cfg(5, 31, 900, 60));
    assert!(r.protocol_error.is_none());
    // The final recovery line can only contain rounds from before the
    // crash (≤ invalidation line) or re-executed afterwards; the store
    // must never hold two generations of the same sequence number — the
    // absence of duplicate-put panics during the run is the proof, and
    // the line must be monotone w.r.t. completed rounds.
    assert!(r.recovery_line > 0);
    assert!(r.store.get(ProcessId(1), r.recovery_line).is_some());
}

#[test]
fn in_transit_messages_resent_from_logs() {
    // Dense traffic right up to the crash makes in-transit messages across
    // the recovery line very likely.
    let mut found = false;
    for seed in [7u64, 8, 9, 10, 11] {
        let r = run(&Algo::ocpt(), recovery_cfg(6, seed, 700, 40));
        assert!(r.protocol_error.is_none());
        if r.counters.get("recovery.resent_msgs") > 0 {
            found = true;
            break;
        }
    }
    assert!(found, "no seed produced a resent in-transit message");
}

#[test]
fn recovered_run_matches_restored_states() {
    // The app states after recovery must evolve *from* the restored
    // states: every post-recovery checkpoint's restored state verifies
    // against the driver's ground truth, proving the rollback actually
    // rewound the application.
    let r = run(&Algo::ocpt(), recovery_cfg(4, 55, 800, 50));
    assert!(r.protocol_error.is_none());
    let line = r.recovery_line;
    if line > 0 && r.cut_states.contains_key(&(0, line)) {
        let v = ocpt::harness::verify_restored_states(&r, line).unwrap();
        assert_eq!(v, 4);
    }
}

/// Under an early state flush the log is a checkpoint's last write, issued
/// after it completes: a checkpoint counts as durable only once that write
/// is in, so a rollback to a line at or after round 1 restores every
/// process exactly.
#[test]
fn early_flush_rolls_back_to_a_round() {
    let jittered = FlushPolicy::Jittered { max_delay: SimDuration::from_millis(60) };
    for flush_policy in [FlushPolicy::Eager, jittered] {
        let mut cfg = recovery_cfg(5, 2024, 900, 60);
        cfg.trace = true;
        let r = run(&Algo::Ocpt(OcptConfig { flush_policy, ..OcptConfig::default() }), cfg);
        assert!(r.protocol_error.is_none(), "{flush_policy:?}: {:?}", r.protocol_error);
        assert_eq!(r.counters.get("recovery.performed"), 1);
        let line: u64 = r
            .trace
            .events()
            .iter()
            .find(|e| e.code == "recovery.line")
            .and_then(|e| e.detail.strip_prefix("S_")?.parse().ok())
            .expect("the rollback records its line");
        assert!(line >= 1, "{flush_policy:?}: the crash must land after round 1");
        assert_eq!(ocpt::harness::verify_restored_states(&r, line), Ok(5), "{flush_policy:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// Ride-through recovery never produces protocol errors or
    /// inconsistent post-recovery checkpoints, across crash times & seeds.
    #[test]
    fn live_recovery_invariants(
        seed in any::<u64>(),
        crash_ms in 400u64..1_200,
        n in 3usize..7,
    ) {
        let r = run(&Algo::ocpt(), recovery_cfg(n, seed, crash_ms, 50));
        prop_assert!(r.protocol_error.is_none(), "{:?}", r.protocol_error);
        prop_assert_eq!(r.counters.get("recovery.performed"), 1);
        let obs = r.observer.as_ref().unwrap();
        for csn in obs.complete_csns() {
            prop_assert!(obs.judge(csn).unwrap().is_consistent());
        }
        // Theorem 1 still holds across the epoch boundary: every tentative
        // checkpoint taken after recovery is finalized.
        // (Pre-crash tentatives of the victim died with it — allowed.)
    }
}

/// Baselines refuse live recovery explicitly rather than continuing with
/// silently wrong state.
#[test]
fn baselines_reject_live_recovery() {
    let mut cfg = recovery_cfg(4, 1, 600, 50);
    cfg.observe = true;
    let r = run(&Algo::ChandyLamport, cfg);
    assert!(
        r.protocol_error.as_deref().is_some_and(|e| e.contains("not supported")),
        "expected unsupported-recovery error, got {:?}",
        r.protocol_error
    );
}
