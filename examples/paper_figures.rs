//! Executable replays of the paper's figures.
//!
//! * **Figure 1** — a consistent (`S_1`) and an inconsistent (`S_2`, orphan
//!   `M5`) global checkpoint, judged by the causality oracle.
//! * **Figure 2** — the basic algorithm walkthrough: `P_0` initiates,
//!   knowledge spreads on `M2..M5`, `C_{2,1} = CT_{2,1} ∪ {M5, M6}`,
//!   `M8`/`M9` are excluded from the logs they trigger.
//! * **Figure 5** — the convergence problem and its control-message fix:
//!   sparse traffic stalls the basic algorithm; `CK_BGN → CK_REQ ring →
//!   CK_END` converges it.
//!
//! ```sh
//! cargo run --example paper_figures
//! ```

use ocpt::causality::{Cut, GlobalObserver};
use ocpt::prelude::*;

fn p(i: u32) -> ProcessId {
    ProcessId(i)
}

fn main() {
    figure1();
    figure2();
    figure5();
}

/// Paper Figure 1: the definition of consistency, machine-checked.
fn figure1() {
    println!("=== Figure 1: consistent vs inconsistent global checkpoints ===\n");
    let mut obs = GlobalObserver::new(3);
    // Pre-S1 traffic: M1 from P0 to P1.
    obs.on_send(p(0), MsgId(1));
    obs.on_recv(p(1), MsgId(1));
    let s1 = Cut::from_positions(vec![1, 1, 0]);
    // M5 from P1 to P2 crosses the S2 line the wrong way.
    obs.on_send(p(1), MsgId(5));
    obs.on_recv(p(2), MsgId(5));
    let s2 = Cut::from_positions(vec![1, 1, 1]);

    let r1 = obs.judge_cut(1, &s1);
    let r2 = obs.judge_cut(2, &s2);
    println!("S1: consistent = {}", r1.is_consistent());
    println!(
        "S2: consistent = {} (orphans: {:?})",
        r2.is_consistent(),
        r2.orphans.iter().map(|o| format!("M{}", o.msg.0)).collect::<Vec<_>>()
    );
    assert!(r1.is_consistent() && !r2.is_consistent());
    println!();
}

/// Paper Figure 2: the basic algorithm, message for message.
fn figure2() {
    println!("=== Figure 2: basic algorithm walkthrough (4 processes) ===\n");
    let n = 4;
    // Writing at the decision puts each finalized log in the same batch.
    let cfg = OcptConfig { finalize_write: WritePolicy::Immediate, ..OcptConfig::basic_only() };
    let mut procs: Vec<OcptProcess> = (0..4).map(|i| OcptProcess::new(p(i), n, cfg)).collect();
    let mut out = Vec::new();
    let pl = AppPayload { id: 0, len: 256 };

    let narrate = |s: &str| println!("  {s}");

    // P0 initiates.
    procs[0].initiate_checkpoint(&mut out);
    narrate("P0 takes CT(0,1) and becomes tentative — the initiation");
    out.clear();

    let relay =
        |from: usize, to: usize, msg: u64, procs: &mut Vec<OcptProcess>, out: &mut Vec<_>| {
            let pb = procs[from].on_app_send(p(to as u32), MsgId(msg), pl);
            procs[to].on_app_receive(p(from as u32), MsgId(msg), pl, &pb, out).unwrap();
        };

    relay(0, 1, 2, &mut procs, &mut out);
    narrate(&format!(
        "M2: P0→P1; P1 now {} with tentSet {:?}",
        procs[1].status(),
        procs[1].tent_set()
    ));
    out.clear();
    relay(1, 2, 4, &mut procs, &mut out);
    narrate(&format!(
        "M4: P1→P2; P2 now {} with tentSet {:?}",
        procs[2].status(),
        procs[2].tent_set()
    ));
    out.clear();
    relay(1, 3, 3, &mut procs, &mut out);
    narrate(&format!(
        "M3: P1→P3; P3 now {} with tentSet {:?}",
        procs[3].status(),
        procs[3].tent_set()
    ));
    out.clear();

    // M6 sent by P2 (delivered late, per the figure's arbitrary delays).
    let pb6 = procs[2].on_app_send(p(3), MsgId(6), pl);
    narrate("M6: P2→P3 sent (in flight; channels need not be FIFO)");

    relay(3, 2, 5, &mut procs, &mut out);
    let log = out
        .iter()
        .find_map(|a| match a {
            ProtoAction::FlushExtra { log: Some(log), .. } => Some(log.clone()),
            _ => None,
        })
        .expect("P2 finalizes");
    narrate(&format!(
        "M5: P3→P2; P2 learns allPSet and FINALIZES C(2,1) with log {{{}}} — the paper's {{M5, M6}}",
        log.entries().iter().map(|e| format!("M{}", e.msg_id.0)).collect::<Vec<_>>().join(", ")
    ));
    out.clear();

    relay(2, 1, 7, &mut procs, &mut out);
    narrate("M7: P2(normal)→P1; P1 finalizes, M7 excluded from its log");
    out.clear();
    relay(1, 3, 8, &mut procs, &mut out);
    narrate("M8: P1(normal)→P3; P3 finalizes, M8 excluded");
    out.clear();
    relay(3, 0, 9, &mut procs, &mut out);
    narrate("M9: P3(normal)→P0; P0 finalizes, M9 excluded");
    out.clear();

    // Late M6 arrives after P3 finalized: sub-case (4a), no action.
    procs[3].on_app_receive(p(2), MsgId(6), pl, &pb6, &mut out).unwrap();
    narrate("M6 finally arrives at P3 — already finalized, no action (4a)");

    for (i, q) in procs.iter().enumerate() {
        assert_eq!(q.csn(), 1);
        assert_eq!(q.status(), Status::Normal);
        println!("  P{i}: csn={} status={}", q.csn(), q.status());
    }
    println!("  → S_1 = {{C(0,1), C(1,1), C(2,1), C(3,1)}} collected ✓\n");
}

/// Paper Figure 5: the convergence problem and the control-message fix,
/// this time on the full simulator with sparse traffic.
fn figure5() {
    println!("=== Figure 5: convergence via control messages (simulated) ===\n");

    // Sparse traffic: without control messages the round cannot finalize.
    let mut cfg = RunConfig::new(4, 9);
    cfg.workload = WorkloadSpec::uniform_mesh(SimDuration::from_millis(400));
    cfg.checkpoint_interval = SimDuration::from_millis(300);
    cfg.workload_duration = SimDuration::from_millis(900);
    cfg.state_bytes = 64 * 1024;
    cfg.trace = true;

    let basic = run(&Algo::ocpt_basic(), cfg.clone());
    println!(
        "basic algorithm (no control messages): rounds completed = {} (convergence problem!)",
        basic.complete_rounds
    );

    let full = run_checked(&Algo::ocpt(), cfg);
    println!(
        "generalized algorithm: rounds completed = {} using {} control messages (BGN {}, REQ {}, END {})",
        full.complete_rounds,
        full.ctrl_messages,
        full.counters.get("ctrl.bgn_sent"),
        full.counters.get("ctrl.req_sent"),
        full.counters.get("ctrl.end_sent"),
    );
    assert!(full.complete_rounds > basic.complete_rounds);

    println!("\nspace-time diagram of the generalized run:");
    println!("{}", full.trace.ascii_diagram(4));
}
