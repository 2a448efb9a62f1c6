//! The reference event queue: a `BinaryHeap` with eager purges.
//!
//! This is the kernel's original scheduler, kept as the behavioural
//! oracle for the timing-wheel implementation in [`super::wheel`]: it is
//! simple enough to be obviously correct, and the differential property
//! test (`tests/scheduler_differential.rs` in this crate) drives both
//! implementations through randomized operation sequences asserting
//! identical event streams and counters.
//!
//! Complexity: `schedule_at`/`pop` are O(log n); `drop_events_for` and
//! `clear_except_faults` drain and rebuild the whole heap — O(n log n)
//! per crash or rollback — which is exactly the cost profile the wheel
//! replaces with O(1) tombstones.

use std::collections::{BTreeSet, BinaryHeap};

use crate::event::{Event, Scheduled};
use crate::id::{ProcessId, TimerId};
use crate::time::{SimDuration, SimTime};

/// Virtual clock and pending-event queue over a binary heap.
#[derive(Debug)]
pub struct HeapScheduler<M> {
    now: SimTime,
    seq: u64,
    next_timer: u64,
    heap: BinaryHeap<Scheduled<M>>,
    /// Timers that have been set and not yet fired or cancelled.
    live_timers: BTreeSet<TimerId>,
    /// High-water mark of `heap.len()` over the run.
    peak: u64,
    popped: u64,
    /// Past-scheduled events clamped to `now` (release builds only reach
    /// here; debug builds panic first). Nonzero means a model bug that
    /// release runs would otherwise silently absorb.
    clamped: u64,
    /// Message deliveries discarded by [`Self::drop_events_for`] — the
    /// fail-stop model's in-flight messages to a crashed process.
    messages_lost: u64,
}

impl<M> Default for HeapScheduler<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> HeapScheduler<M> {
    /// A scheduler at time zero with no pending events.
    pub fn new() -> Self {
        HeapScheduler {
            now: SimTime::ZERO,
            seq: 0,
            next_timer: 0,
            heap: BinaryHeap::new(),
            live_timers: BTreeSet::new(),
            peak: 0,
            popped: 0,
            clamped: 0,
            messages_lost: 0,
        }
    }

    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events dispatched so far.
    #[inline]
    pub fn events_dispatched(&self) -> u64 {
        self.popped
    }

    /// Number of events still pending (cancelled-but-unfired timers are
    /// counted until their stale firing is skipped).
    #[inline]
    pub fn pending(&self) -> usize {
        self.heap.len()
    }

    /// High-water mark of [`Self::pending`] over the scheduler's life —
    /// the peak in-flight event population.
    #[inline]
    pub fn peak_pending(&self) -> u64 {
        self.peak
    }

    /// Schedule `event` at the absolute instant `at`.
    ///
    /// Scheduling in the past is a logic error and panics in debug builds;
    /// in release builds the event is clamped to `now` (runs next) and the
    /// clamp is counted — see [`Self::clamped_events`].
    pub fn schedule_at(&mut self, at: SimTime, event: Event<M>) {
        debug_assert!(at >= self.now, "scheduling into the past: {at} < {}", self.now);
        if at < self.now {
            self.clamped += 1;
        }
        let at = at.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Scheduled { at, seq, event });
        self.peak = self.peak.max(self.heap.len() as u64);
    }

    /// Number of events that were scheduled into the past and clamped to
    /// `now`. Always 0 in debug builds (the debug assertion fires first);
    /// a nonzero value in release builds flags a timing-model bug that
    /// would previously have been absorbed silently.
    #[inline]
    pub fn clamped_events(&self) -> u64 {
        self.clamped
    }

    /// Message deliveries that were pending for a process when
    /// [`Self::drop_events_for`] discarded them — in-flight messages lost
    /// to a fail-stop crash.
    #[inline]
    pub fn messages_lost_at_crash(&self) -> u64 {
        self.messages_lost
    }

    /// Schedule `event` after a relative delay.
    pub fn schedule_after(&mut self, delay: SimDuration, event: Event<M>) {
        self.schedule_at(self.now + delay, event);
    }

    /// Register a timer owned by `pid`, firing after `delay` with the given
    /// owner tag. Returns the id to use for cancellation.
    pub fn set_timer(&mut self, pid: ProcessId, delay: SimDuration, tag: u64) -> TimerId {
        let id = TimerId(self.next_timer);
        self.next_timer += 1;
        self.live_timers.insert(id);
        self.schedule_after(delay, Event::Timer { pid, id, tag });
        id
    }

    /// Cancel a previously set timer. Cancelling an already-fired or
    /// already-cancelled timer is a harmless no-op.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.live_timers.remove(&id);
    }

    /// True if the timer is still pending (set, not fired, not cancelled).
    pub fn timer_live(&self, id: TimerId) -> bool {
        self.live_timers.contains(&id)
    }

    /// Pop the next due event, advancing the clock to its instant.
    ///
    /// Cancelled timers are skipped transparently. Returns `None` when the
    /// queue is exhausted.
    pub fn pop(&mut self) -> Option<(SimTime, Event<M>)> {
        while let Some(s) = self.heap.pop() {
            if let Event::Timer { id, .. } = &s.event {
                // Drop stale timer firings.
                if !self.live_timers.remove(id) {
                    continue;
                }
            }
            debug_assert!(s.at >= self.now, "time went backwards");
            self.now = s.at;
            self.popped += 1;
            return Some((s.at, s.event));
        }
        None
    }

    /// Pop the next due event only if it is due at exactly `at`, targets
    /// `pid`, and is not a fault — the delivery-window primitive (see
    /// [`super::wheel::WheelScheduler::pop_matching`]). Stale timer
    /// firings ahead of the probe are skipped, exactly as `peek_time`
    /// would skip them.
    pub fn pop_matching(&mut self, at: SimTime, pid: ProcessId) -> Option<Event<M>> {
        loop {
            let s = self.heap.peek()?;
            if let Event::Timer { id, .. } = &s.event {
                if !self.live_timers.contains(id) {
                    self.heap.pop();
                    continue;
                }
            }
            if s.at != at || s.event.is_fault() || s.event.target() != pid {
                return None;
            }
            let s = self.heap.pop().expect("peeked");
            if let Event::Timer { id, .. } = &s.event {
                self.live_timers.remove(id);
            }
            debug_assert!(s.at >= self.now, "time went backwards");
            self.now = s.at;
            self.popped += 1;
            return Some(s.event);
        }
    }

    /// Peek at the due time of the next (non-cancelled) event without
    /// advancing the clock.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        while let Some(s) = self.heap.peek() {
            if let Event::Timer { id, .. } = &s.event {
                if !self.live_timers.contains(id) {
                    self.heap.pop();
                    continue;
                }
            }
            return Some(s.at);
        }
        None
    }

    /// Drop every pending event except injected faults (used at recovery
    /// time: rollback flushes the channels, cancels all timers and ticks,
    /// and the recovery routine re-arms the world afresh).
    pub fn clear_except_faults(&mut self) {
        let drained: Vec<Scheduled<M>> = std::mem::take(&mut self.heap).into_vec();
        self.live_timers.clear();
        for s in drained {
            if s.event.is_fault() {
                self.heap.push(s);
            }
        }
    }

    /// Drop every pending event addressed to `pid` (used at crash time so a
    /// dead process receives nothing until recovery re-arms it).
    ///
    /// Message deliveries *to* a crashed process are lost, matching the
    /// fail-stop model (counted — see [`Self::messages_lost_at_crash`]);
    /// in-flight messages *from* it were already sent.
    pub fn drop_events_for(&mut self, pid: ProcessId) {
        let drained: Vec<Scheduled<M>> = std::mem::take(&mut self.heap).into_vec();
        for s in drained {
            let addressed = s.event.target() == pid;
            // Faults are driven by the fault plan, never dropped.
            let keep = s.event.is_fault() || !addressed;
            if keep {
                self.heap.push(s);
            } else {
                match &s.event {
                    Event::Deliver { .. } => self.messages_lost += 1,
                    Event::Timer { id, .. } => {
                        self.live_timers.remove(id);
                    }
                    _ => {}
                }
            }
        }
    }
}
