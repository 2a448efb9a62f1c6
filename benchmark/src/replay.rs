//! Benchmark-side drivers that feed one layer's public API the kind and
//! amount of work a real run reported, to price that layer from outside.
//!
//! These are estimates, not attribution: a replay runs the layer alone,
//! with warm caches and without the runner around it. Spans inside the
//! program are a later change; until then the ledger is built from these.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

use ocpt_causality::GlobalObserver;
use ocpt_core::{
    AppPayload, Direction, LogEntry, LoggingKind, MessageLog, OcptConfig, OcptProcess, TentSet,
};
use ocpt_sim::{
    DelayModel, Event, MsgId, Network, ProcessId, Scheduler, SchedulerKind, SimDuration, SimRng,
    SimTime, StorageReqId,
};
use ocpt_storage::{StorageConfig, StorageServer};

/// Host time each replay may take.
pub const BUDGET: Duration = Duration::from_millis(150);

const BATCH: u64 = 4_096;

/// Call `batch(ops)` until the budget is spent; nanoseconds per operation.
/// `batch` returns how many operations it actually performed.
fn ns_per_op(mut batch: impl FnMut(u64) -> u64) -> f64 {
    let started = Instant::now();
    let mut ops = 0;
    while started.elapsed() < BUDGET {
        ops += batch(BATCH);
    }
    started.elapsed().as_nanos() as f64 / ops.max(1) as f64
}

fn pair(rng: &mut SimRng, n: usize) -> (ProcessId, ProcessId) {
    let src = rng.next_usize_below(n);
    let dst = (src + 1 + rng.next_usize_below(n - 1)) % n;
    (ProcessId(src as u32), ProcessId(dst as u32))
}

/// `schedule` / `pop` / `pop_matching` on the timing wheel held at `depth`
/// pending events (the run's `peak_pending`), LAN-delay deliveries between
/// `n` processes: every popped event schedules its successor, as a
/// delivery schedules the next one in a run.
pub fn sched_ns_per_event(depth: usize, n: usize, seed: u64) -> f64 {
    let mut rng = SimRng::derive(seed, 0x5C4E_D001);
    let delay = DelayModel::default_lan();
    let mut sched: Scheduler<u64> = Scheduler::with_kind(SchedulerKind::Wheel);
    let mut next_id = 0;
    let mut deliver = |sched: &mut Scheduler<u64>, rng: &mut SimRng| {
        let (src, dst) = pair(rng, n);
        next_id += 1;
        let ev = Event::Deliver { src, dst, msg_id: MsgId(next_id), msg: next_id };
        sched.schedule_after(delay.sample(rng), ev);
    };
    for _ in 0..depth.max(1) {
        deliver(&mut sched, &mut rng);
    }
    ns_per_op(|ops| {
        let mut done = 0;
        while done < ops {
            let (now, ev) = sched.pop().expect("the queue is held at a constant depth");
            let pid = ev.target();
            deliver(&mut sched, &mut rng);
            done += 1;
            while let Some(ev) = sched.pop_matching(now, pid) {
                std::hint::black_box(ev);
                deliver(&mut sched, &mut rng);
                done += 1;
            }
        }
        done
    })
}

/// `Network::send` between `n` processes on non-FIFO LAN channels.
pub fn net_ns_per_send(n: usize, seed: u64) -> f64 {
    let mut rng = SimRng::derive(seed, 0x5C4E_D002);
    let mut net = Network::new(n, DelayModel::default_lan(), false, seed);
    let mut now = SimTime::ZERO;
    ns_per_op(|ops| {
        for _ in 0..ops {
            let (src, dst) = pair(&mut rng, n);
            now += SimDuration::from_nanos(100);
            std::hint::black_box(net.send(now, src, dst, 1_100));
        }
        ops
    })
}

/// Waves of `wave` writes of `bytes` each into the processor-sharing
/// server, submitted a fraction of a write apart (as under the phased
/// write policy) and drained the way `Runner::pump_storage` drains it
/// today: every submitted write schedules a wakeup at `next_completion`,
/// every wakeup calls `advance` and `take_completed` and re-arms itself
/// while writes are in flight, and none is ever cancelled. Returns
/// nanoseconds and `advance` calls per write; a driver with one wakeup per
/// completion would make one `advance` call per write.
pub fn storage_per_write(wave: usize, bytes: u64) -> (f64, f64) {
    struct Pump {
        server: StorageServer,
        wakeups: BinaryHeap<Reverse<SimTime>>,
        now: SimTime,
        advances: u64,
        writes: u64,
    }
    impl Pump {
        fn arm(&mut self) {
            if let Some(t) = self.server.next_completion() {
                let tick = SimDuration::from_nanos(1);
                self.wakeups.push(Reverse((t + tick).max(self.now + tick)));
            }
        }
        /// Fire every wakeup due at or before `until`.
        fn drain(&mut self, until: SimTime) {
            while let Some(Reverse(t)) = self.wakeups.peek().copied().filter(|w| w.0 <= until) {
                self.wakeups.pop();
                self.now = t;
                self.server.advance(t);
                self.advances += 1;
                self.writes += self.server.take_completed().len() as u64;
                if self.server.in_flight() > 0 {
                    self.arm();
                }
            }
        }
    }
    let cfg = StorageConfig::default_nfs();
    let ideal_s = bytes as f64 / cfg.bandwidth_bps + cfg.per_request_overhead.as_secs_f64();
    let stagger = SimDuration::from_secs_f64(ideal_s / 8.0);
    let mut pump = Pump {
        server: StorageServer::new(cfg),
        wakeups: BinaryHeap::new(),
        now: SimTime::ZERO,
        advances: 0,
        writes: 0,
    };
    let mut next_req = 0;
    let ns = ns_per_op(|_| {
        let before = pump.writes;
        for i in 0..wave.max(1) {
            pump.drain(pump.now + stagger);
            pump.now += stagger;
            next_req += 1;
            pump.server.submit(pump.now, ProcessId(i as u32), StorageReqId(next_req), bytes);
            pump.arm();
        }
        pump.drain(SimTime::MAX);
        pump.writes - before
    });
    (ns, pump.advances as f64 / pump.writes.max(1) as f64)
}

/// `on_app_send` + `on_app_receive` between `n` OCPT processes under
/// `logging`, delivered at once, with `P_0` initiating a checkpoint every
/// `msgs_per_round` messages so piggybacks carry merging tentSets as often
/// as they did in the run.
pub fn core_ns_per_app_msg(n: usize, logging: LoggingKind, msgs_per_round: u64, seed: u64) -> f64 {
    let mut rng = SimRng::derive(seed, 0x5C4E_D003);
    let cfg = OcptConfig { logging, ..OcptConfig::default() };
    let mut procs: Vec<OcptProcess> =
        ProcessId::all(n).map(|pid| OcptProcess::new(pid, n, cfg)).collect();
    let mut out = Vec::new();
    let mut sent = 0u64;
    ns_per_op(|ops| {
        for _ in 0..ops {
            if sent % msgs_per_round.max(1) == 0 {
                procs[0].initiate_checkpoint(&mut out);
            }
            sent += 1;
            let (src, dst) = pair(&mut rng, n);
            let payload = AppPayload { id: sent, len: 1_024 };
            let pb = procs[src.index()].on_app_send(dst, MsgId(sent), payload);
            procs[dst.index()]
                .on_app_receive(src, MsgId(sent), payload, &pb, &mut out)
                .expect("in-order delivery reaches none of the paper's impossible cases");
            out.clear();
        }
        ops
    })
}

/// A half-full tentSet over `n` processes (every other process).
fn half_full(n: usize) -> TentSet {
    let mut set = TentSet::empty(n);
    for pid in ProcessId::all(n).step_by(2) {
        set.insert(pid);
    }
    set
}

/// A merge that learns members: clone a singleton (refcount bump) and
/// union a half-full set into it (copy-on-write plus the word loop).
pub fn tentset_merge_ns(n: usize) -> f64 {
    let (single, half) = (TentSet::singleton(n, ProcessId::P0), half_full(n));
    ns_per_op(|ops| {
        for _ in 0..ops {
            let mut set = single.clone();
            set.merge(&half);
            std::hint::black_box(set);
        }
        ops
    })
}

/// Adaptive wire encoding of a half-full tentSet and decoding it back.
pub fn tentset_wire_ns(n: usize) -> f64 {
    let half = half_full(n);
    ns_per_op(|ops| {
        for _ in 0..ops {
            let bytes = half.to_bytes();
            std::hint::black_box(TentSet::from_bytes(n, &bytes).expect("own encoding decodes"));
        }
        ops
    })
}

/// Message-log costs at `entries` entries per log: nanoseconds per
/// `push`, and per entry of `encode` and of `decode`.
pub fn log_ns(entries: usize) -> (f64, f64, f64) {
    let entries = entries.max(1);
    let entry = |i: u64| {
        let dir = if i % 2 == 0 { Direction::Sent } else { Direction::Received };
        LogEntry::payload(
            dir,
            ProcessId((i % 7) as u32),
            MsgId(i),
            AppPayload { id: i, len: 1_024 },
        )
    };
    let build = || {
        let mut log = MessageLog::new();
        for i in 0..entries as u64 {
            log.push(entry(i));
        }
        log
    };
    let append = ns_per_op(|_| {
        std::hint::black_box(build());
        entries as u64
    });
    let log = build();
    let encode = ns_per_op(|_| {
        std::hint::black_box(log.encode());
        entries as u64
    });
    let blob = log.encode();
    let decode = ns_per_op(|_| {
        std::hint::black_box(MessageLog::decode(blob.clone()).expect("own encoding decodes"));
        entries as u64
    });
    (append, encode, decode)
}

/// The omniscient observer fed `on_send` + `on_recv` per message between
/// `n` processes, every process finalizing and the cut being judged every
/// `msgs_per_round` messages. Nanoseconds per message, judging included.
pub fn observer_ns_per_msg(n: usize, msgs_per_round: u64, seed: u64) -> f64 {
    let mut rng = SimRng::derive(seed, 0x5C4E_D004);
    let mut obs = GlobalObserver::new(n);
    let (mut sent, mut csn) = (0u64, 0u64);
    ns_per_op(|ops| {
        for _ in 0..ops {
            sent += 1;
            let (src, dst) = pair(&mut rng, n);
            obs.on_send(src, MsgId(sent));
            obs.on_recv(dst, MsgId(sent));
            if sent % msgs_per_round.max(1) == 0 {
                csn += 1;
                let positions = obs.positions();
                for pid in ProcessId::all(n) {
                    obs.on_finalize(pid, csn, positions[pid.index()], SimTime::ZERO);
                }
                let report = obs.judge(csn).expect("every process finalized this csn");
                assert!(report.is_consistent(), "a cut with nothing in flight is consistent");
            }
        }
        ops
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_replay_reports_a_positive_cost() {
        assert!(sched_ns_per_event(64, 8, 1) > 0.0);
        assert!(net_ns_per_send(8, 1) > 0.0);
        let (ns, advances) = storage_per_write(4, 64 * 1024);
        assert!(ns > 0.0 && advances >= 1.0, "advances/write {advances}");
        for kind in LoggingKind::ALL {
            assert!(core_ns_per_app_msg(8, kind, 500, 1) > 0.0);
        }
        assert!(tentset_merge_ns(64) > 0.0 && tentset_wire_ns(64) > 0.0);
        let (append, encode, decode) = log_ns(32);
        assert!(append > 0.0 && encode > 0.0 && decode > 0.0);
        assert!(observer_ns_per_msg(8, 100, 1) > 0.0);
    }
}
