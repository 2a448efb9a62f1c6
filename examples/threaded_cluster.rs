//! The protocol on real OS threads: a 4-node cluster exchanging encoded
//! messages over channels, taking three checkpoint rounds under live
//! traffic, with consistency checked against genuine thread interleavings.
//!
//! ```sh
//! cargo run --release --example threaded_cluster
//! ```

use std::time::Duration;

use ocpt::prelude::*;
use ocpt::runtime::Cluster;

fn main() {
    let n = 4;
    let cfg = OcptConfig {
        convergence_timeout: SimDuration::from_millis(50),
        state_bytes: 64 * 1024,
        ..OcptConfig::default()
    };
    let cluster = Cluster::start(n, cfg);

    for round in 1..=3u64 {
        // Some cross traffic...
        for i in 0..n as u32 {
            for j in 0..n as u32 {
                if i != j {
                    cluster.send_app(ProcessId(i), ProcessId(j), 512);
                }
            }
        }
        // ...then someone initiates a checkpoint (a different node each round).
        cluster.checkpoint(ProcessId((round % n as u64) as u32));
        // More traffic spreads the piggybacked knowledge; the convergence
        // timer covers whatever the traffic misses.
        for i in 0..n as u32 {
            cluster.send_app(ProcessId(i), ProcessId((i + 1) % n as u32), 256);
        }
        cluster
            .wait_for_round(round, Duration::from_secs(10))
            .unwrap_or_else(|e| panic!("round {round}: {e}"));
        println!("round {round}: all {n} nodes finalized checkpoint {round}");
    }

    let store = cluster.store().lock();
    println!("\nstable store: {} records, recovery line S_{}", store.len(), store.recovery_line());
    drop(store);

    // Judge every complete round against the oracle fed in real time.
    {
        let obs = cluster.observer().lock();
        for csn in obs.complete_csns() {
            let report = obs.judge(csn).expect("complete");
            assert!(report.is_consistent(), "S_{csn} inconsistent!");
            println!(
                "S_{csn}: consistent ✓ ({} in-transit message(s) covered by sender logs)",
                report.in_transit.len()
            );
        }
    }
    cluster.shutdown();
    println!("\ncluster shut down cleanly");
}
