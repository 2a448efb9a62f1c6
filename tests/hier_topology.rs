//! Sharding the control wave into groups is an *optimization*, not a
//! protocol change: a grouped run and a flat run (one group) of the same
//! workload must collect the same consistent global checkpoints and
//! converge to the same recovery line.

use ocpt::prelude::*;

fn sparse_cfg(n: usize, seed: u64, gap_ms: u64) -> RunConfig {
    let mut cfg = RunConfig::new(n, seed);
    cfg.workload = WorkloadSpec::uniform_mesh(SimDuration::from_millis(gap_ms));
    cfg.checkpoint_interval = SimDuration::from_millis(200);
    cfg.workload_duration = SimDuration::from_millis(800);
    cfg.state_bytes = 64 * 1024;
    cfg
}

fn with_topology(t: ControlTopology) -> Algo {
    Algo::Ocpt(OcptConfig { control_topology: t, ..OcptConfig::default() })
}

/// Flat vs Grouped{4} at N = 12: same recovery line, same completed
/// rounds, both fully consistent (run_checked verifies the oracle).
#[test]
fn grouped_and_flat_reach_same_recovery_line() {
    for seed in [31u64, 32, 33] {
        // Sparse enough that the control wave actually runs.
        let flat = run_checked(&Algo::Ocpt(OcptConfig::default()), sparse_cfg(12, seed, 120));
        let hier = run_checked(
            &with_topology(ControlTopology::Grouped { group_size: 4 }),
            sparse_cfg(12, seed, 120),
        );
        assert_eq!(hier.recovery_line, flat.recovery_line, "seed {seed}");
        assert_eq!(hier.complete_rounds, flat.complete_rounds, "seed {seed}");
        assert_eq!(
            hier.counters.get("ckpt.finalized"),
            flat.counters.get("ckpt.finalized"),
            "seed {seed}"
        );
    }
}

/// The grouped wave actually runs through its two tiers under sparse
/// traffic: group rings complete and report to P0.
#[test]
fn grouped_wave_reports_group_completion() {
    let r = run_checked(
        &with_topology(ControlTopology::Grouped { group_size: 4 }),
        sparse_cfg(12, 77, 150),
    );
    assert!(r.complete_rounds >= 1);
    assert!(
        r.counters.get("ctrl.grp_done_sent") > 0,
        "two-tier wave should have produced CK_GRP_DONE reports"
    );
}

/// `⌈√N⌉`-sized groups, the shape `Auto` picks above 512 processes, at a
/// size the oracle checks cheaply: N = 30 in groups of 6 converges with
/// every tentative checkpoint finalized.
#[test]
fn sqrt_sized_groups_shard_and_still_converge() {
    let r = run_checked(
        &with_topology(ControlTopology::Grouped { group_size: 6 }),
        sparse_cfg(30, 14, 150),
    );
    assert!(r.complete_rounds >= 1);
    assert_eq!(r.counters.get("ckpt.tentative"), r.counters.get("ckpt.finalized"));
}
