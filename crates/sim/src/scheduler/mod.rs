//! Virtual clock and pending-event queue.
//!
//! Two interchangeable implementations live behind the [`Scheduler`]
//! facade:
//!
//! * [`wheel::WheelScheduler`] — the production kernel: a hierarchical
//!   timing wheel with O(1) amortised schedule/pop and O(1) lazy purges
//!   (watermark tombstones filtered at pop time);
//! * [`reference::HeapScheduler`] — the original `BinaryHeap` kernel,
//!   kept as a behavioural oracle: O(log n) schedule/pop and O(n log n)
//!   eager drain-and-rebuild purges.
//!
//! Both honour the same determinism contract — events fire in
//! `(time, seq)` order with `seq` assigned at insertion — and expose the
//! same observable counters, so `tests/scheduler_differential.rs` can
//! drive them in lock-step through randomized operation sequences and
//! assert identical behaviour. Select with [`SchedulerKind`] (the wheel
//! is the default everywhere).

pub mod reference;
pub mod wheel;

pub use reference::HeapScheduler;
pub use wheel::{ArenaStats, WheelScheduler};

use crate::event::Event;
use crate::id::{ProcessId, TimerId};
use crate::time::{SimDuration, SimTime};

/// Which event-queue implementation a run uses.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum SchedulerKind {
    /// Hierarchical timing wheel with lazy cancellation (production).
    #[default]
    Wheel,
    /// The original `BinaryHeap` with eager purges (differential oracle).
    ReferenceHeap,
}

impl SchedulerKind {
    /// Short stable name (used in bench reports).
    pub fn name(self) -> &'static str {
        match self {
            SchedulerKind::Wheel => "wheel",
            SchedulerKind::ReferenceHeap => "reference_heap",
        }
    }
}

/// Virtual clock and pending-event queue (see the module docs for the
/// two implementations behind this facade).
#[derive(Debug)]
pub enum Scheduler<M> {
    /// Timing-wheel kernel.
    Wheel(WheelScheduler<M>),
    /// Binary-heap oracle.
    Reference(HeapScheduler<M>),
}

/// Delegate a method to whichever implementation is active.
macro_rules! delegate {
    ($self:ident, $s:ident => $body:expr) => {
        match $self {
            Scheduler::Wheel($s) => $body,
            Scheduler::Reference($s) => $body,
        }
    };
}

impl<M> Default for Scheduler<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> Scheduler<M> {
    /// A scheduler at time zero with no pending events (timing wheel).
    pub fn new() -> Self {
        Scheduler::Wheel(WheelScheduler::new())
    }

    /// The `BinaryHeap` reference implementation (differential oracle).
    pub fn new_reference() -> Self {
        Scheduler::Reference(HeapScheduler::new())
    }

    /// A scheduler of the requested kind.
    pub fn with_kind(kind: SchedulerKind) -> Self {
        match kind {
            SchedulerKind::Wheel => Self::new(),
            SchedulerKind::ReferenceHeap => Self::new_reference(),
        }
    }

    /// Which implementation this scheduler uses.
    pub fn kind(&self) -> SchedulerKind {
        match self {
            Scheduler::Wheel(_) => SchedulerKind::Wheel,
            Scheduler::Reference(_) => SchedulerKind::ReferenceHeap,
        }
    }

    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        delegate!(self, s => s.now())
    }

    /// Number of events dispatched so far.
    #[inline]
    pub fn events_dispatched(&self) -> u64 {
        delegate!(self, s => s.events_dispatched())
    }

    /// Number of events still pending (cancelled-but-unfired timers are
    /// counted until their stale firing is skipped).
    #[inline]
    pub fn pending(&self) -> usize {
        delegate!(self, s => s.pending())
    }

    /// High-water mark of [`Self::pending`] over the scheduler's life —
    /// the peak in-flight event population. Kind-independent: both
    /// implementations observe the same pending count at every step.
    #[inline]
    pub fn peak_pending(&self) -> u64 {
        delegate!(self, s => s.peak_pending())
    }

    /// Allocation counters of the wheel's payload arena. The reference
    /// heap boxes events in its `BinaryHeap` nodes (no arena) and
    /// reports all-zero stats — callers comparing across kinds must
    /// treat this as implementation telemetry, not observable behaviour.
    #[inline]
    pub fn arena_stats(&self) -> ArenaStats {
        match self {
            Scheduler::Wheel(s) => s.arena_stats(),
            Scheduler::Reference(_) => ArenaStats::default(),
        }
    }

    /// Schedule `event` at the absolute instant `at`.
    ///
    /// Scheduling in the past is a logic error and panics in debug builds;
    /// in release builds the event is clamped to `now` (runs next) and the
    /// clamp is counted — see [`Self::clamped_events`].
    pub fn schedule_at(&mut self, at: SimTime, event: Event<M>) {
        delegate!(self, s => s.schedule_at(at, event))
    }

    /// Number of events that were scheduled into the past and clamped to
    /// `now` (release builds only; debug builds panic first).
    #[inline]
    pub fn clamped_events(&self) -> u64 {
        delegate!(self, s => s.clamped_events())
    }

    /// Message deliveries that were pending for a process when
    /// [`Self::drop_events_for`] discarded them — in-flight messages lost
    /// to a fail-stop crash.
    #[inline]
    pub fn messages_lost_at_crash(&self) -> u64 {
        delegate!(self, s => s.messages_lost_at_crash())
    }

    /// Schedule `event` after a relative delay.
    pub fn schedule_after(&mut self, delay: SimDuration, event: Event<M>) {
        delegate!(self, s => s.schedule_after(delay, event))
    }

    /// Register a timer owned by `pid`, firing after `delay` with the given
    /// owner tag. Returns the id to use for cancellation.
    pub fn set_timer(&mut self, pid: ProcessId, delay: SimDuration, tag: u64) -> TimerId {
        delegate!(self, s => s.set_timer(pid, delay, tag))
    }

    /// Cancel a previously set timer. Cancelling an already-fired or
    /// already-cancelled timer is a harmless no-op.
    pub fn cancel_timer(&mut self, id: TimerId) {
        delegate!(self, s => s.cancel_timer(id))
    }

    /// True if the timer is still pending (set, not fired, not cancelled).
    pub fn timer_live(&self, id: TimerId) -> bool {
        delegate!(self, s => s.timer_live(id))
    }

    /// Pop the next due event, advancing the clock to its instant.
    ///
    /// Cancelled timers are skipped transparently. Returns `None` when the
    /// queue is exhausted.
    pub fn pop(&mut self) -> Option<(SimTime, Event<M>)> {
        delegate!(self, s => s.pop())
    }

    /// Pop the next due event only if it is due at exactly `at`, targets
    /// `pid`, and is not a fault. The delivery-window primitive: after a
    /// normal [`Self::pop`] the run loop keeps draining the same
    /// `(time, process)` window as one batch, amortising per-event
    /// dispatch overhead. Never reorders — only the front event can
    /// match, so `(at, seq)` order (and thus every trace byte) is
    /// preserved.
    pub fn pop_matching(&mut self, at: SimTime, pid: ProcessId) -> Option<Event<M>> {
        delegate!(self, s => s.pop_matching(at, pid))
    }

    /// Peek at the due time of the next (non-cancelled) event without
    /// advancing the clock.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        delegate!(self, s => s.peek_time())
    }

    /// Drop every pending event except injected faults (used at recovery
    /// time: rollback flushes the channels, cancels all timers and ticks,
    /// and the recovery routine re-arms the world afresh).
    pub fn clear_except_faults(&mut self) {
        delegate!(self, s => s.clear_except_faults())
    }

    /// Drop every pending event addressed to `pid` (used at crash time so a
    /// dead process receives nothing until recovery re-arms it).
    ///
    /// Message deliveries *to* a crashed process are lost, matching the
    /// fail-stop model (counted — see [`Self::messages_lost_at_crash`]);
    /// in-flight messages *from* it were already sent.
    pub fn drop_events_for(&mut self, pid: ProcessId) {
        delegate!(self, s => s.drop_events_for(pid))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::MsgId;

    const KINDS: [SchedulerKind; 2] = [SchedulerKind::Wheel, SchedulerKind::ReferenceHeap];

    fn tick(pid: u32, kind: u64) -> Event<u32> {
        Event::Tick { pid: ProcessId(pid), kind }
    }

    /// Run an invariant against both implementations.
    fn for_both(f: impl Fn(Scheduler<u32>)) {
        for kind in KINDS {
            f(Scheduler::with_kind(kind));
        }
    }

    #[test]
    fn kind_roundtrip() {
        for kind in KINDS {
            assert_eq!(Scheduler::<u32>::with_kind(kind).kind(), kind);
        }
        assert_eq!(Scheduler::<u32>::new().kind(), SchedulerKind::Wheel);
        assert_eq!(Scheduler::<u32>::default().kind(), SchedulerKind::default());
    }

    #[test]
    fn pops_in_time_order_with_fifo_ties() {
        for_both(|mut s| {
            s.schedule_at(SimTime::from_nanos(10), tick(0, 0));
            s.schedule_at(SimTime::from_nanos(5), tick(0, 1));
            s.schedule_at(SimTime::from_nanos(10), tick(0, 2));
            assert_eq!(s.pending(), 3);
            let kinds: Vec<u64> = std::iter::from_fn(|| s.pop())
                .map(|(_, e)| match e {
                    Event::Tick { kind, .. } => kind,
                    _ => unreachable!(),
                })
                .collect();
            assert_eq!(kinds, vec![1, 0, 2]);
            assert_eq!(s.now(), SimTime::from_nanos(10));
            assert_eq!(s.events_dispatched(), 3);
            assert_eq!(s.pending(), 0);
        });
    }

    #[test]
    fn cancelled_timers_are_skipped() {
        for_both(|mut s| {
            let t1 = s.set_timer(ProcessId(0), SimDuration::from_nanos(5), 100);
            let t2 = s.set_timer(ProcessId(0), SimDuration::from_nanos(10), 200);
            assert!(s.timer_live(t1));
            s.cancel_timer(t1);
            assert!(!s.timer_live(t1));
            let (_, e) = s.pop().expect("one timer should fire");
            match e {
                Event::Timer { id, tag, .. } => {
                    assert_eq!(id, t2);
                    assert_eq!(tag, 200);
                }
                _ => panic!("unexpected event"),
            }
            assert!(s.pop().is_none());
        });
    }

    #[test]
    fn timer_fires_once() {
        for_both(|mut s| {
            let t = s.set_timer(ProcessId(1), SimDuration::from_nanos(1), 7);
            assert!(s.pop().is_some());
            assert!(!s.timer_live(t));
            // Cancelling after fire is a no-op.
            s.cancel_timer(t);
            assert!(s.pop().is_none());
        });
    }

    #[test]
    fn peek_does_not_advance() {
        for_both(|mut s| {
            s.schedule_at(SimTime::from_nanos(42), tick(0, 0));
            assert_eq!(s.peek_time(), Some(SimTime::from_nanos(42)));
            assert_eq!(s.now(), SimTime::ZERO);
        });
    }

    #[test]
    fn schedule_below_internal_cursor_after_peek() {
        // `peek_time` may advance the wheel's internal cursor past `now`;
        // an event then scheduled between `now` and the peeked time must
        // still fire first (the wheel routes it through its early bucket).
        for_both(|mut s| {
            s.schedule_at(SimTime::from_nanos(1_000), tick(0, 0));
            assert_eq!(s.peek_time(), Some(SimTime::from_nanos(1_000)));
            s.schedule_at(SimTime::from_nanos(10), tick(0, 1));
            s.schedule_at(SimTime::from_nanos(10), tick(0, 2));
            assert_eq!(s.peek_time(), Some(SimTime::from_nanos(10)));
            let kinds: Vec<u64> = std::iter::from_fn(|| s.pop())
                .map(|(_, e)| match e {
                    Event::Tick { kind, .. } => kind,
                    _ => unreachable!(),
                })
                .collect();
            assert_eq!(kinds, vec![1, 2, 0]);
        });
    }

    #[test]
    fn far_future_events_pop_in_order() {
        // Spans every wheel level plus the overflow horizon (> 2^36 ns).
        for_both(|mut s| {
            let times = [1u64 << 40, 1, (1 << 36) + 3, 1 << 12, (1 << 40) + 1, 1 << 24, 0, 1 << 36];
            for (i, &t) in times.iter().enumerate() {
                s.schedule_at(SimTime::from_nanos(t), tick(0, i as u64));
            }
            let mut sorted = times.to_vec();
            sorted.sort_unstable();
            let popped: Vec<u64> =
                std::iter::from_fn(|| s.pop()).map(|(at, _)| at.as_nanos()).collect();
            assert_eq!(popped, sorted);
        });
    }

    #[test]
    fn drop_events_for_removes_only_targets() {
        for_both(|mut s| {
            s.schedule_at(
                SimTime::from_nanos(5),
                Event::Deliver { src: ProcessId(0), dst: ProcessId(1), msg_id: MsgId(0), msg: 9 },
            );
            s.schedule_at(SimTime::from_nanos(6), tick(1, 0));
            s.schedule_at(SimTime::from_nanos(7), tick(2, 0));
            s.schedule_at(SimTime::from_nanos(8), Event::Recover { pid: ProcessId(1) });
            s.drop_events_for(ProcessId(1));
            assert_eq!(s.pending(), 2);
            assert_eq!(s.messages_lost_at_crash(), 1);
            let mut remaining = Vec::new();
            while let Some((_, e)) = s.pop() {
                remaining.push(e.target());
            }
            assert_eq!(remaining, vec![ProcessId(2), ProcessId(1)]); // tick P2, recover P1
        });
    }

    #[test]
    fn events_scheduled_after_drop_survive() {
        // The tombstone is a watermark, not a standing filter: events
        // addressed to the pid *after* the drop must be delivered.
        for_both(|mut s| {
            s.schedule_at(SimTime::from_nanos(5), tick(1, 0));
            s.drop_events_for(ProcessId(1));
            s.schedule_at(SimTime::from_nanos(6), tick(1, 1));
            let t = s.set_timer(ProcessId(1), SimDuration::from_nanos(9), 5);
            assert!(s.timer_live(t));
            let kinds: Vec<Event<u32>> = std::iter::from_fn(|| s.pop()).map(|(_, e)| e).collect();
            assert!(matches!(kinds[0], Event::Tick { kind: 1, .. }));
            assert!(matches!(kinds[1], Event::Timer { tag: 5, .. }));
            assert_eq!(kinds.len(), 2);
        });
    }

    #[test]
    fn drop_kills_timers_of_target() {
        for_both(|mut s| {
            let t = s.set_timer(ProcessId(3), SimDuration::from_nanos(10), 1);
            assert!(s.timer_live(t));
            s.drop_events_for(ProcessId(3));
            assert!(!s.timer_live(t));
            assert!(s.pop().is_none());
        });
    }

    #[test]
    fn clear_except_faults_keeps_only_faults() {
        for_both(|mut s| {
            s.schedule_at(SimTime::from_nanos(5), tick(0, 0));
            let t = s.set_timer(ProcessId(1), SimDuration::from_nanos(3), 9);
            s.schedule_at(SimTime::from_nanos(7), Event::Crash { pid: ProcessId(2) });
            s.schedule_at(SimTime::from_nanos(9), Event::Recover { pid: ProcessId(2) });
            s.clear_except_faults();
            assert!(!s.timer_live(t));
            assert_eq!(s.pending(), 2);
            let kinds: Vec<_> = std::iter::from_fn(|| s.pop()).map(|(_, e)| e).collect();
            assert!(matches!(kinds[0], Event::Crash { .. }));
            assert!(matches!(kinds[1], Event::Recover { .. }));
            assert_eq!(kinds.len(), 2);
        });
    }

    /// Steady-state schedule/pop on one long-lived wheel allocates
    /// nothing: after one warm-up cycle of the whole queue every insert is
    /// a free-list reuse, so the arena's `allocs` is frozen, `reuses`
    /// grows and the high-water mark stays put.
    #[test]
    fn arena_churn_allocates_nothing() {
        for depth in [1_024u64, 16_384] {
            let mut s: Scheduler<u32> = Scheduler::with_kind(SchedulerKind::Wheel);
            let mut rng = crate::SimRng::derive(0xA4E4, depth);
            let mut push = |s: &mut Scheduler<u32>, id: u64| {
                let delay = SimDuration::from_micros(rng.next_u64_below(5_000));
                s.schedule_after(delay, tick((id % 8) as u32, id));
            };
            (0..depth).for_each(|id| push(&mut s, id));
            let mut cycle = |s: &mut Scheduler<u32>, steps: u64| {
                for id in 0..steps {
                    s.pop().expect("queue stays primed");
                    push(s, id);
                }
            };
            // Warm-up: one turn of the whole queue primes the free list and
            // reaches the high-water mark.
            cycle(&mut s, depth);
            let before = s.arena_stats();
            cycle(&mut s, 4 * depth);
            let after = s.arena_stats();
            assert_eq!(after.allocs, before.allocs, "depth={depth}: new arena slots allocated");
            assert_eq!(after.reuses, before.reuses + 4 * depth, "depth={depth}: free list unused");
            assert_eq!(after.hwm, before.hwm, "depth={depth}: high-water mark moved");
        }
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn scheduling_in_the_past_panics_in_debug() {
        let mut s: Scheduler<u32> = Scheduler::new();
        s.schedule_at(SimTime::from_nanos(10), tick(0, 0));
        s.pop();
        s.schedule_at(SimTime::from_nanos(5), tick(0, 1));
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn reference_scheduling_in_the_past_panics_in_debug() {
        let mut s: Scheduler<u32> = Scheduler::new_reference();
        s.schedule_at(SimTime::from_nanos(10), tick(0, 0));
        s.pop();
        s.schedule_at(SimTime::from_nanos(5), tick(0, 1));
    }
}
