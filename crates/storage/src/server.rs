//! The shared stable-storage server (network file server) model.
//!
//! The paper's motivation: synchronous checkpointing makes many processes
//! write their checkpoints to the (single, shared) stable storage at the
//! same time, and the resulting contention inflates checkpointing overhead
//! (§1, citing Vaidya's staggered checkpointing). We model the server as a
//! **processor-sharing queue**: `k` concurrent writers each receive `B/k`
//! of the bandwidth `B`, plus a fixed per-request overhead. This captures
//! exactly the effect under study — a write that would take `d` alone takes
//! up to `k·d` under contention — while staying deterministic.
//!
//! # Virtual time
//!
//! Every active writer receives the same service, so one number describes
//! them all: `attained`, the cumulative bytes served *per writer* since
//! the server last went idle. A request submitted when that value is `v`
//! is done when it reaches its **finish tag** `v + work`; the in-flight
//! set is a min-heap keyed `(finish, req)`. `submit` and each completion
//! cost O(log k); `next_completion` and `in_flight` are O(1).
//!
//! `attained` only grows at rate `B/k` while membership is fixed, so the
//! float math is anchored at **membership-change epochs** (a submit or a
//! completion): between two epochs nothing is stored, and the next
//! completion instant is computed from the epoch alone. Completion
//! instants, `busy_time` and `total_stall` are therefore a pure function
//! of the submission history — polling `advance` more or less often
//! cannot move them, which is what lets the driver keep a single armed
//! wakeup instead of one per submit.
//!
//! Requests whose finish tags lie within `tolerance` (what one lone writer
//! moves in 1 ns) of a completing one finish at the same instant, in
//! `(finish, req)` order.
//!
//! The server is driven by the simulation loop: `submit` adds work,
//! `advance` progresses it to the current instant, `take_completed` drains
//! finished writes, and `next_completion` tells the driver when to look
//! again.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use ocpt_metrics::{StepSeries, Summary};
use ocpt_sim::{ProcessId, SimDuration, SimTime, StorageReqId};

/// One finished write.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Completion {
    /// The request that finished.
    pub req: StorageReqId,
    /// The process that issued it.
    pub pid: ProcessId,
    /// When it became durable.
    pub at: SimTime,
}

/// One in-flight request, ordered by `(finish, req)`.
#[derive(Clone, Copy, Debug)]
struct Active {
    /// Finish tag: the per-writer attained service at which this request
    /// is done (`attained` at submit + its work, overhead included).
    finish: f64,
    req: StorageReqId,
    pid: ProcessId,
    submitted: SimTime,
    /// Contention-free duration for this request (for stall accounting).
    ideal: SimDuration,
}

impl PartialEq for Active {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Active {}
impl PartialOrd for Active {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Active {
    fn cmp(&self, other: &Self) -> Ordering {
        self.finish.total_cmp(&other.finish).then(self.req.cmp(&other.req))
    }
}

/// Configuration of the storage server.
#[derive(Clone, Copy, Debug)]
pub struct StorageConfig {
    /// Aggregate write bandwidth in bytes per second.
    pub bandwidth_bps: f64,
    /// Fixed per-request overhead (RPC + seek), charged as extra work.
    pub per_request_overhead: SimDuration,
}

impl StorageConfig {
    /// A 2007-ish network file server: 50 MB/s, 2 ms per-request overhead.
    pub fn default_nfs() -> Self {
        StorageConfig {
            bandwidth_bps: 50.0 * 1024.0 * 1024.0,
            per_request_overhead: SimDuration::from_millis(2),
        }
    }

    fn overhead_bytes(&self) -> f64 {
        self.bandwidth_bps * self.per_request_overhead.as_secs_f64()
    }
}

/// Processor-sharing stable-storage server with contention metrics.
#[derive(Debug)]
pub struct StorageServer {
    cfg: StorageConfig,
    /// Finish tags within this many bytes of a completing request's count
    /// as finished with it: the amount one lone writer moves in 1 ns.
    tolerance: f64,
    /// In-flight requests, earliest `(finish, req)` first.
    active: BinaryHeap<Reverse<Active>>,
    /// Instant of the last membership change (submit or completion).
    epoch_at: SimTime,
    /// Per-writer attained service at `epoch_at`; 0 whenever idle.
    attained: f64,
    last_advance: SimTime,
    completed: Vec<Completion>,
    /// Epoch moves plus completions: all the work `advance` ever did.
    steps: u64,
    // --- metrics ---
    writers: StepSeries,
    latency: Summary,
    stall: SimDuration,
    total_bytes: u64,
    total_requests: u64,
    /// Busy time of closed epochs (up to `epoch_at`).
    busy: SimDuration,
}

impl StorageServer {
    /// A fresh server.
    pub fn new(cfg: StorageConfig) -> Self {
        assert!(cfg.bandwidth_bps > 0.0, "bandwidth must be positive");
        StorageServer {
            cfg,
            tolerance: (cfg.bandwidth_bps * 1e-9).max(1e-6),
            active: BinaryHeap::new(),
            epoch_at: SimTime::ZERO,
            attained: 0.0,
            last_advance: SimTime::ZERO,
            completed: Vec::new(),
            steps: 0,
            writers: StepSeries::new(),
            latency: Summary::new(),
            stall: SimDuration::ZERO,
            total_bytes: 0,
            total_requests: 0,
            busy: SimDuration::ZERO,
        }
    }

    /// Submit a write of `bytes` at `now`.
    pub fn submit(&mut self, now: SimTime, pid: ProcessId, req: StorageReqId, bytes: u64) {
        self.advance(now);
        self.move_epoch(now);
        let work = bytes as f64 + self.cfg.overhead_bytes();
        let ideal = SimDuration::from_secs_f64(work / self.cfg.bandwidth_bps);
        let finish = self.attained + work;
        self.active.push(Reverse(Active { finish, req, pid, submitted: now, ideal }));
        self.total_bytes += bytes;
        self.total_requests += 1;
        self.writers.add(now.as_nanos(), 1);
    }

    /// Progress all active requests to `now`, completing those that finish.
    ///
    /// Only completions move the server's state, so calling this at extra
    /// instants changes nothing observable.
    pub fn advance(&mut self, now: SimTime) {
        debug_assert!(now >= self.last_advance, "storage time went backwards");
        while let Some(t) = self.next_completion().filter(|&t| t <= now) {
            self.complete_at(t);
        }
        self.last_advance = now;
    }

    /// Close the current epoch at `t`: charge the service every active
    /// writer attained since `epoch_at`, and the busy time.
    fn move_epoch(&mut self, t: SimTime) {
        if t > self.epoch_at && !self.active.is_empty() {
            let span = t - self.epoch_at;
            let k = self.active.len() as f64;
            self.attained += self.cfg.bandwidth_bps * span.as_secs_f64() / k;
            self.busy += span;
        }
        self.epoch_at = t;
        self.steps += 1;
    }

    /// Complete the earliest request at its completion instant `t`, and
    /// with it every request within `tolerance` of done.
    fn complete_at(&mut self, t: SimTime) {
        self.move_epoch(t);
        let horizon = self.attained + self.tolerance;
        // The head is due by construction (`t` was computed for it); the
        // rounding of `t` to whole nanoseconds leaves it within tolerance.
        debug_assert!(self.active.peek().is_some_and(|head| head.0.finish <= horizon));
        while let Some(Reverse(a)) = self.active.pop() {
            self.steps += 1;
            let took = t.saturating_since(a.submitted);
            self.latency.record(took.as_secs_f64());
            self.stall += took - a.ideal;
            self.writers.add(t.as_nanos(), -1);
            self.completed.push(Completion { req: a.req, pid: a.pid, at: t });
            if !self.active.peek().is_some_and(|next| next.0.finish <= horizon) {
                break;
            }
        }
        if self.active.is_empty() {
            self.attained = 0.0;
        }
    }

    /// Drain writes that completed during past `advance` calls, in
    /// completion order (ties in `(finish, req)` order).
    pub fn take_completed(&mut self) -> Vec<Completion> {
        std::mem::take(&mut self.completed)
    }

    /// When the earliest active request will finish if nothing else arrives.
    pub fn next_completion(&self) -> Option<SimTime> {
        let Reverse(head) = self.active.peek()?;
        let remaining = head.finish - self.attained;
        if remaining <= self.tolerance {
            return Some(self.epoch_at);
        }
        let k = self.active.len() as f64;
        Some(self.epoch_at + SimDuration::from_secs_f64(remaining * k / self.cfg.bandwidth_bps))
    }

    /// Number of writes in flight.
    pub fn in_flight(&self) -> usize {
        self.active.len()
    }

    /// Epoch moves plus completions performed so far — the total work of
    /// every `advance`/`submit`, for tests that pin the complexity: it is
    /// bounded by `3 × total_requests` however often the server is polled.
    #[doc(hidden)]
    pub fn advance_steps(&self) -> u64 {
        self.steps
    }

    // --- metrics accessors ---

    /// Peak number of concurrent writers observed.
    pub fn peak_writers(&self) -> i64 {
        self.writers.peak()
    }

    /// Time-weighted mean number of concurrent writers over `[0, end]`.
    pub fn mean_writers(&self, end: SimTime) -> f64 {
        self.writers.time_weighted_mean(end.as_nanos())
    }

    /// Total time ≥ 2 writers were active (pure contention time).
    pub fn contended_time(&self, end: SimTime) -> SimDuration {
        SimDuration::from_nanos(self.writers.time_at_or_above(2, end.as_nanos()))
    }

    /// Per-write latency statistics (seconds).
    pub fn latency(&self) -> &Summary {
        &self.latency
    }

    /// Total extra waiting caused by contention, summed over writes.
    pub fn total_stall(&self) -> SimDuration {
        self.stall
    }

    /// Total payload bytes accepted.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Total writes accepted.
    pub fn total_requests(&self) -> u64 {
        self.total_requests
    }

    /// Total time the server was serving at least one request, up to the
    /// last `advance`.
    pub fn busy_time(&self) -> SimDuration {
        if self.active.is_empty() {
            self.busy
        } else {
            self.busy + (self.last_advance - self.epoch_at)
        }
    }

    /// The raw concurrent-writers series (for plotting).
    pub fn writers_series(&self) -> &StepSeries {
        &self.writers
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(bps: f64) -> StorageConfig {
        StorageConfig { bandwidth_bps: bps, per_request_overhead: SimDuration::ZERO }
    }

    fn rid(i: u64) -> StorageReqId {
        StorageReqId(i)
    }

    #[test]
    fn single_write_takes_ideal_time() {
        // 1000 B at 1000 B/s = 1 s.
        let mut s = StorageServer::new(cfg(1000.0));
        s.submit(SimTime::ZERO, ProcessId(0), rid(1), 1000);
        assert_eq!(s.in_flight(), 1);
        let done_at = s.next_completion().unwrap();
        assert_eq!(done_at, SimTime::from_secs(1));
        s.advance(done_at);
        let done = s.take_completed();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].at, SimTime::from_secs(1));
        assert_eq!(s.in_flight(), 0);
        assert!(s.total_stall().as_nanos() < 1_000); // no contention
    }

    #[test]
    fn two_concurrent_writes_halve_bandwidth() {
        let mut s = StorageServer::new(cfg(1000.0));
        s.submit(SimTime::ZERO, ProcessId(0), rid(1), 1000);
        s.submit(SimTime::ZERO, ProcessId(1), rid(2), 1000);
        s.advance(SimTime::from_secs(3));
        let done = s.take_completed();
        assert_eq!(done.len(), 2);
        // Both finish at t=2s (each got 500 B/s).
        assert_eq!(done[0].at, SimTime::from_secs(2));
        assert_eq!(done[1].at, SimTime::from_secs(2));
        assert_eq!(s.peak_writers(), 2);
        // Each stalled ~1 s beyond its 1 s ideal.
        let stall = s.total_stall().as_secs_f64();
        assert!((stall - 2.0).abs() < 1e-3, "stall={stall}");
    }

    #[test]
    fn staggered_writes_do_not_contend() {
        let mut s = StorageServer::new(cfg(1000.0));
        s.submit(SimTime::ZERO, ProcessId(0), rid(1), 1000);
        s.advance(SimTime::from_secs(1));
        s.submit(SimTime::from_secs(1), ProcessId(1), rid(2), 1000);
        s.advance(SimTime::from_secs(2));
        let done = s.take_completed();
        assert_eq!(done.len(), 2);
        assert_eq!(s.peak_writers(), 1);
        assert_eq!(s.contended_time(SimTime::from_secs(2)), SimDuration::ZERO);
        assert!(s.total_stall().as_secs_f64() < 1e-6);
    }

    #[test]
    fn mixed_sizes_complete_in_order_of_remaining_work() {
        let mut s = StorageServer::new(cfg(1000.0));
        s.submit(SimTime::ZERO, ProcessId(0), rid(1), 200);
        s.submit(SimTime::ZERO, ProcessId(1), rid(2), 1000);
        // Small one finishes first: it needs 200 B at 500 B/s = 0.4 s.
        s.advance(SimTime::from_millis(400));
        let d1 = s.take_completed();
        assert_eq!(d1.len(), 1);
        assert_eq!(d1[0].req, rid(1));
        // Big one then runs alone: 800 B left / 1000 B/s = 0.8 s more.
        let t2 = s.next_completion().unwrap();
        assert_eq!(t2, SimTime::from_millis(1200));
        s.advance(t2);
        assert_eq!(s.take_completed().len(), 1);
    }

    #[test]
    fn late_arrival_shares_from_arrival_only() {
        let mut s = StorageServer::new(cfg(1000.0));
        s.submit(SimTime::ZERO, ProcessId(0), rid(1), 1000);
        // After 0.5 s alone, 500 B remain.
        s.submit(SimTime::from_millis(500), ProcessId(1), rid(2), 500);
        // Both now need 500 B at 500 B/s = 1 s: both done at t=1.5 s.
        s.advance(SimTime::from_secs(2));
        let done = s.take_completed();
        assert_eq!(done.len(), 2);
        assert!(done.iter().all(|c| c.at == SimTime::from_millis(1500)));
    }

    #[test]
    fn overhead_is_charged() {
        let c = StorageConfig {
            bandwidth_bps: 1000.0,
            per_request_overhead: SimDuration::from_secs(1),
        };
        let mut s = StorageServer::new(c);
        s.submit(SimTime::ZERO, ProcessId(0), rid(1), 0);
        // 0 payload bytes + 1 s overhead.
        assert_eq!(s.next_completion().unwrap(), SimTime::from_secs(1));
    }

    #[test]
    fn busy_time_accumulates_only_when_active() {
        let mut s = StorageServer::new(cfg(1000.0));
        s.advance(SimTime::from_secs(5)); // idle
        assert_eq!(s.busy_time(), SimDuration::ZERO);
        s.submit(SimTime::from_secs(5), ProcessId(0), rid(1), 1000);
        s.advance(SimTime::from_secs(10));
        assert_eq!(s.busy_time(), SimDuration::from_secs(1));
        assert_eq!(s.total_bytes(), 1000);
        assert_eq!(s.total_requests(), 1);
    }

    #[test]
    fn mean_writers_time_weighted() {
        let mut s = StorageServer::new(cfg(1000.0));
        s.submit(SimTime::ZERO, ProcessId(0), rid(1), 1000); // busy [0,1)
        s.advance(SimTime::from_secs(4));
        let m = s.mean_writers(SimTime::from_secs(4));
        assert!((m - 0.25).abs() < 1e-9, "m={m}");
    }
}
