//! The event census, and the pin on what it shows: a synchronized round of
//! N writers costs O(N) storage wakeups, so simulator events per
//! application message do not grow with N. (Before the single armed
//! wakeup, the E9 sweep measured the ratio at 57 → 560 → 603 for
//! N = 10² / 10³ / 10⁴ — O(N²) `StorageDone` events that completed
//! nothing; `ocpt exp e9` prints it today as the `events/msg` column.)

use ocpt::harness::experiments::scale_config;
use ocpt::prelude::*;

#[test]
fn census_partitions_the_dispatched_events() {
    let r = run_checked(&Algo::ocpt(), scale_config(64, 5));
    let c = r.event_census;
    assert_eq!(c.total(), r.sim_events);
    assert_eq!(c.fault, 0);
    assert!(c.deliver >= r.app_messages, "every app message is delivered");
    assert!(c.tick >= r.app_messages, "every app message was a send tick");
    assert!(c.timer > 0 && c.storage_done > 0);
}

#[test]
fn storage_wakeups_are_linear_and_events_per_message_flat_in_n() {
    let mut per_msg = Vec::new();
    for n in [64, 600, 2_000] {
        let r = run(&Algo::ocpt(), scale_config(n, 11));
        assert!(r.protocol_error.is_none(), "n={n}: {:?}", r.protocol_error);
        let rounds = r.round_stats.len() as u64;
        assert!(rounds >= 2, "n={n}: only {rounds} rounds");
        let writes = r.storage.total_requests;
        assert!(writes >= n as u64, "n={n}: a round writes at least one state per process");
        // One wakeup per completion instant, plus at most one superseded
        // wakeup per submit that pulled the next completion ahead, plus
        // the early one a round's first submit leaves behind.
        let wakeups = r.event_census.storage_done;
        assert!(
            wakeups <= 2 * writes + 4 * rounds,
            "n={n}: {wakeups} StorageDone events for {writes} writes in {rounds} rounds"
        );
        per_msg.push(r.sim_events as f64 / r.app_messages as f64);
    }
    let (lo, hi) = per_msg.iter().fold((f64::MAX, 0.0f64), |(lo, hi), &x| (lo.min(x), hi.max(x)));
    assert!(hi <= 1.5 * lo, "sim events per app message across N = 64/600/2000: {per_msg:?}");
}
