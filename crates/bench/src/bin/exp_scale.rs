//! E9: protocol scaling — adaptive piggyback encoding + hierarchical
//! control waves, swept to N = 100 000 processes.
//!
//! Prints the E9 grid table, then (unless `--quick`) re-runs each size
//! directly with wall-clock self-measurement and writes the committed
//! `BENCH_scale.json` report: piggyback bytes per message (measured vs
//! the dense `⌈N/8⌉` formula), control messages per round, the resolved
//! control topology, and per cell the simulator's throughput, events per
//! application message and storage wakeups.

use ocpt_bench::{scale_report_json, ExpArgs, ScaleRow};
use ocpt_core::{ControlTopology, OcptConfig, Piggyback};
use ocpt_harness::experiments::{exp_scale, scale_config};
use ocpt_harness::{run, Algo};

fn main() {
    let args = ExpArgs::parse();
    let ns: &[usize] = if args.quick { &[64, 600] } else { &[100, 1_000, 10_000, 100_000] };
    args.emit("e9", &exp_scale(ns, args.seed));
    args.maybe_emit_health();

    let Some(path) = &args.bench_json else { return };
    let topo = OcptConfig::default().control_topology;
    let mut rows = Vec::with_capacity(ns.len());
    for &n in ns {
        let r = run(&Algo::ocpt(), scale_config(n, args.seed));
        assert!(r.protocol_error.is_none(), "n={n}: {:?}", r.protocol_error);
        assert!(r.complete_rounds >= 1, "n={n}: no round completed");
        let group_size = topo.group_size(n);
        rows.push(ScaleRow {
            n,
            piggy_bytes_per_msg: r.piggyback_bytes as f64 / r.app_messages.max(1) as f64,
            dense_bytes_per_msg: Piggyback::dense_wire_bytes_for(n) as f64,
            app_messages: r.app_messages,
            ctrl_messages: r.ctrl_messages,
            rounds: r.complete_rounds,
            group_size,
            num_groups: group_size.map(|s| (n as u64).div_ceil(s as u64)),
            sim_events: r.sim_events,
            storage_wakeups: r.event_census.storage_done,
            wall_secs: r.wall_secs,
        });
    }
    let report = scale_report_json(&rows, matches!(topo, ControlTopology::Auto { .. }));
    if let Err(e) = std::fs::write(path, &report) {
        eprintln!("error: writing {path}: {e}");
        std::process::exit(2);
    }
    eprintln!("wrote scale report to {path}");
    eprint!("{report}");
}
