//! Cross-commit byte pins: FNV-1a 64 digests of `trace_jsonl()` followed by
//! `metrics_json()` for OCPT under every flush × write policy pair, one
//! jittered-flush crash-and-recover run and one two-tier (`Grouped{4}`)
//! run. The constants were recorded before the flush/write policies moved
//! from the baselines adapter into `OcptProcess`; any change to what the
//! protocol emits, in what order, or to its jitter draws moves a digest.

use ocpt::prelude::*;

fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3))
}

fn base(n: usize, seed: u64) -> RunConfig {
    let mut cfg = RunConfig::new(n, seed);
    cfg.workload = WorkloadSpec::uniform_mesh(SimDuration::from_millis(6));
    cfg.checkpoint_interval = SimDuration::from_millis(200);
    cfg.workload_duration = SimDuration::from_millis(900);
    cfg.state_bytes = 64 * 1024;
    cfg.trace = true;
    cfg
}

/// The run's digest; `counter` must be positive in it, so that the pin
/// covers the path it is named after. A run without a recovery must also
/// have no orphan storage completions: only a rollback forgets writes.
fn digest(ocfg: OcptConfig, cfg: RunConfig, counter: &str) -> u64 {
    let r = run(&Algo::Ocpt(ocfg), cfg);
    assert!(r.protocol_error.is_none(), "{:?}", r.protocol_error);
    assert!(r.counters.get(counter) > 0, "no {counter} in the run");
    if r.counters.get("recovery.performed") == 0 {
        assert_eq!(r.counters.get("storage.orphan_completions"), 0, "orphans without a rollback");
    }
    let h = fnv1a(0xCBF2_9CE4_8422_2325, r.trace_jsonl().as_bytes());
    fnv1a(h, r.metrics_json().as_bytes())
}

const JITTER_FLUSH: FlushPolicy = FlushPolicy::Jittered { max_delay: SimDuration::from_millis(60) };

/// `(name, digest)` of every pinned run.
fn runs() -> Vec<(String, u64)> {
    let flushes =
        [("eager", FlushPolicy::Eager), ("lazy", FlushPolicy::Lazy), ("jit", JITTER_FLUSH)];
    let window = SimDuration::from_millis(150);
    let writes = [
        ("immediate", WritePolicy::Immediate),
        ("jit", WritePolicy::Jittered { window }),
        ("phased", WritePolicy::Phased { window }),
    ];
    let mut out = Vec::new();
    for (fname, flush_policy) in flushes {
        for (wname, finalize_write) in writes {
            let ocfg = OcptConfig { flush_policy, finalize_write, ..OcptConfig::default() };
            out.push((
                format!("flush_{fname}_write_{wname}"),
                digest(ocfg, base(6, 7), "ckpt.durable"),
            ));
        }
    }

    // The crash lands before the first round, so this pin covers a
    // rollback to S_0; `live_recovery.rs::early_flush_rolls_back_to_a_round`
    // covers the rollback to a round under an early state flush.
    let mut crash = base(5, 2024);
    crash.workload_duration = SimDuration::from_millis(1_400);
    crash.faults =
        FaultPlan::single(ProcessId(1), SimTime::from_millis(120), SimDuration::from_millis(50));
    crash.stop_on_crash = false;
    let ocfg = OcptConfig { flush_policy: JITTER_FLUSH, ..OcptConfig::default() };
    out.push(("crash_recover_flush_jit".into(), digest(ocfg, crash, "recovery.performed")));

    let mut grouped = base(12, 5);
    grouped.workload = WorkloadSpec::uniform_mesh(SimDuration::from_millis(40));
    let ocfg = OcptConfig {
        control_topology: ControlTopology::Grouped { group_size: 4 },
        convergence_timeout: SimDuration::from_millis(30),
        ..OcptConfig::default()
    };
    out.push(("grouped4_n12".into(), digest(ocfg, grouped, "ctrl.grp_done_sent")));
    out
}

const PINNED: [(&str, u64); 11] = [
    ("flush_eager_write_immediate", 0xB090_9EAD_23CB_2481),
    ("flush_eager_write_jit", 0x7472_26E6_FD2B_7CF7),
    ("flush_eager_write_phased", 0x3150_6B4A_A52A_16DA),
    ("flush_lazy_write_immediate", 0xF5E3_B708_AD1C_354D),
    ("flush_lazy_write_jit", 0x02B2_1D13_2E79_5861),
    ("flush_lazy_write_phased", 0x8B62_8C5F_18C2_C98A),
    ("flush_jit_write_immediate", 0xA838_4456_F50D_7A50),
    ("flush_jit_write_jit", 0xD83C_5ABE_E3C7_3E9D),
    ("flush_jit_write_phased", 0x78CC_3B2F_307F_C198),
    ("crash_recover_flush_jit", 0x0E54_EF73_F119_2001),
    ("grouped4_n12", 0x5831_5F82_AB17_E337),
];

#[test]
fn ocpt_runs_match_pinned_digests() {
    let got = runs();
    let table: String =
        got.iter().map(|(name, d)| format!("    (\"{name}\", 0x{d:016X}),\n")).collect();
    assert!(
        got.iter().map(|(n, d)| (n.as_str(), *d)).eq(PINNED),
        "digests moved; this run:\n{table}"
    );
}
