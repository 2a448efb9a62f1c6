//! The protocol on real OS threads: checkpoint rounds under live
//! concurrency, wire-codec round trips on every hop, and Theorem 2 checked
//! against genuine interleavings (no virtual clock, no deterministic
//! scheduler to hide races).

use std::time::Duration;

use ocpt::prelude::*;
use ocpt::runtime::Cluster;

fn cfg() -> OcptConfig {
    OcptConfig {
        convergence_timeout: SimDuration::from_millis(40),
        state_bytes: 16 * 1024,
        ..OcptConfig::default()
    }
}

#[test]
fn one_round_with_traffic() {
    let cluster = Cluster::start(3, cfg());
    for i in 0..3u32 {
        cluster.send_app(ProcessId(i), ProcessId((i + 1) % 3), 128);
    }
    cluster.checkpoint(ProcessId(0));
    for i in 0..3u32 {
        cluster.send_app(ProcessId(i), ProcessId((i + 2) % 3), 128);
    }
    cluster.wait_for_round(1, Duration::from_secs(10)).expect("round 1");
    assert_eq!(cluster.store().lock().recovery_line(), 1);
    let obs = cluster.observer().lock();
    assert!(obs.judge(1).expect("complete").is_consistent());
    drop(obs);
    cluster.shutdown();
}

#[test]
fn convergence_timer_rescues_silent_round() {
    // No application traffic at all after initiation: only the control
    // layer can converge the round (paper Theorem 1, for real this time).
    let cluster = Cluster::start(4, cfg());
    cluster.checkpoint(ProcessId(2));
    cluster.wait_for_round(1, Duration::from_secs(10)).expect("silent round");
    assert_eq!(cluster.store().lock().recovery_line(), 1);
    cluster.shutdown();
}

#[test]
fn several_rounds_alternating_initiators() {
    let n = 4usize;
    let cluster = Cluster::start(n, cfg());
    for round in 1..=4u64 {
        for i in 0..n as u32 {
            for j in 0..n as u32 {
                if i != j {
                    cluster.send_app(ProcessId(i), ProcessId(j), 64);
                }
            }
        }
        cluster.checkpoint(ProcessId((round % n as u64) as u32));
        for i in 0..n as u32 {
            cluster.send_app(ProcessId(i), ProcessId((i + 1) % n as u32), 64);
        }
        cluster.wait_for_round(round, Duration::from_secs(10)).unwrap();
    }
    assert_eq!(cluster.store().lock().recovery_line(), 4);
    // Every completed round consistent under the real interleaving.
    let obs = cluster.observer().lock();
    let complete = obs.complete_csns();
    assert!(complete.len() >= 4);
    for csn in complete {
        let rep = obs.judge(csn).unwrap();
        assert!(rep.is_consistent(), "S_{csn} inconsistent on threads");
        assert_eq!(obs.vclock_consistent(csn), Some(true));
    }
    drop(obs);
    cluster.shutdown();
}

#[test]
fn durable_blobs_decode_and_replay() {
    let cluster = Cluster::start(3, cfg());
    for i in 0..3u32 {
        cluster.send_app(ProcessId(i), ProcessId((i + 1) % 3), 256);
    }
    cluster.checkpoint(ProcessId(1));
    for i in 0..3u32 {
        cluster.send_app(ProcessId(i), ProcessId((i + 2) % 3), 256);
    }
    cluster.wait_for_round(1, Duration::from_secs(10)).unwrap();
    for i in 0..3u32 {
        let d = cluster.store().lock().get(ProcessId(i), 1).cloned().expect("durable");
        let plan =
            ocpt::protocol::plan_recovery(1, d.state, d.log).expect("blobs decode and replay");
        assert_eq!(plan.csn, 1);
    }
    cluster.shutdown();
}

#[test]
fn stress_many_messages_many_rounds() {
    let n = 6usize;
    let cluster = Cluster::start(n, cfg());
    for round in 1..=3u64 {
        for burst in 0..20u32 {
            for i in 0..n as u32 {
                cluster.send_app(ProcessId(i), ProcessId((i + 1 + burst % 3) % n as u32), 200);
            }
        }
        cluster.checkpoint(ProcessId(0));
        for i in 0..n as u32 {
            cluster.send_app(ProcessId(i), ProcessId((i + 1) % n as u32), 64);
        }
        cluster.wait_for_round(round, Duration::from_secs(15)).unwrap();
    }
    let obs = cluster.observer().lock();
    for csn in obs.complete_csns() {
        assert!(obs.judge(csn).unwrap().is_consistent());
    }
    drop(obs);
    cluster.shutdown();
}

/// Every stored checkpoint decodes through `plan_recovery` under each
/// logging strategy, and under an eager state flush, where the log is the
/// checkpoint's last write.
#[test]
fn stored_checkpoints_decode_under_every_strategy_and_eager_flush() {
    let mut cfgs: Vec<OcptConfig> =
        LoggingKind::ALL.into_iter().map(|logging| OcptConfig { logging, ..cfg() }).collect();
    cfgs.push(OcptConfig { flush_policy: FlushPolicy::Eager, ..cfg() });
    for c in cfgs {
        let cluster = Cluster::start(3, c);
        for i in 0..3u32 {
            cluster.send_app(ProcessId(i), ProcessId((i + 1) % 3), 96);
        }
        cluster.checkpoint(ProcessId(0));
        for i in 0..3u32 {
            cluster.send_app(ProcessId(i), ProcessId((i + 2) % 3), 96);
        }
        cluster.wait_for_round(1, Duration::from_secs(10)).expect("round 1");
        let store = cluster.store().lock();
        assert_eq!(store.recovery_line(), 1);
        for i in 0..3u32 {
            let d = store.get(ProcessId(i), 1).expect("durable");
            ocpt::protocol::plan_recovery(1, d.state.clone(), d.log.clone())
                .unwrap_or_else(|e| panic!("{:?} / {:?}: {e}", c.logging, c.flush_policy));
        }
        drop(store);
        cluster.shutdown();
    }
}
