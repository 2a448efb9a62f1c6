//! The production event queue: a hierarchical timing wheel with lazy
//! cancellation over a slab arena.
//!
//! ## Layout
//!
//! Six levels of 64 slots each, sliced out of the nanosecond timestamp
//! six bits at a time: level `ℓ` slot `s` holds events whose time agrees
//! with the wheel cursor on every bit above `6·(ℓ+1)` and has `s` in bits
//! `[6ℓ, 6·(ℓ+1))`. Level 0 slots are therefore a single nanosecond wide
//! and level 5 slots cover ~1.1 s; together the wheel spans events up to
//! `2^36` ns (~68.7 s) of *bit distance* from the cursor. Anything
//! farther — or across a `2^36`-aligned boundary — waits in an overflow
//! min-heap and migrates into the wheel when the cursor reaches its
//! 68-second window.
//!
//! `schedule_at` is one shift/XOR to pick a level plus a `Vec` push;
//! `pop` drains the earliest level-0 slot into a small FIFO batch. An
//! event cascades down at most `LEVELS − 1` times before firing, so both
//! operations are O(1) amortised regardless of the pending population —
//! the binary-heap oracle ([`super::reference`]) pays O(log n) per
//! operation and O(n log n) per purge instead.
//!
//! ## Slab arena
//!
//! The wheel structures never hold `Event<M>` values. Each payload lives
//! in a generational slab (`EventArena`) together with its liveness
//! header (`seq`, `kind`, `target`, generation); what flows through
//! slots, cascades, heaps and the pop batch is a 32-byte `Copy` entry
//! carrying the schedule key `(at, seq)`, the arena handle `(idx, gen)`
//! and a copy of the header — so tombstone checks during drains and
//! sweeps are entry-local, and the arena is touched only to insert, to
//! take a payload, and to read a live timer's id at the queue front.
//! Freed slots go on a free list and are reused, so the steady-state
//! schedule→pop cycle performs **zero heap allocations** — pinned by the
//! per-instance counters in [`ArenaStats`] and the scheduler test
//! `arena_churn_allocates_nothing`, the same idiom as the protocol core's
//! `TentSet::deep_copies` check.
//!
//! ## Determinism contract
//!
//! Identical to the reference: events fire in `(time, seq)` order, where
//! `seq` is insertion order. Within one level-0 slot every event shares
//! the same nanosecond, so sorting the slot by `seq` at drain time — the
//! only sort in the structure — restores exact FIFO tie-breaking no
//! matter how the events cascaded in.
//!
//! ## Lazy cancellation and the corpse sweep
//!
//! [`WheelScheduler::drop_events_for`] and
//! [`WheelScheduler::clear_except_faults`] do not walk the pending
//! population. Each records a *watermark* (the current insertion `seq`);
//! a non-fault event is dead iff it was inserted below the relevant
//! watermark, and dead events are discarded when the wheel reaches them.
//! Exact pending/lost counts are maintained via O(#processes) per-target
//! counters, so [`WheelScheduler::pending`] and
//! [`WheelScheduler::messages_lost_at_crash`] agree with the eager
//! oracle at every step even though the memory is reclaimed late. The
//! per-target counters themselves are built lazily: until the first
//! `drop_events_for` of a run, `schedule_at`/`pop` maintain only the
//! scalar totals, and the first drop materializes the per-target table
//! with one sequential pass over the arena (crash-free runs — the
//! common case — never pay the two extra counter writes per event).
//!
//! Purely lazy reclamation would let a crash-heavy run accumulate
//! millions of dead payloads (anything tombstoned ahead of the cursor
//! stays resident until its due time), so when corpses outnumber twice
//! the live population a *sweep* reclaims them: a retain over the
//! occupied wheel structures (entry-local checks) plus one sequential
//! pass over the slab freeing tombstoned payloads — no sorting, no
//! random access. The sweep bounds the slab footprint at ~3× the live
//! population while staying amortised O(1) per scheduled event: a sweep
//! only runs when it can free at least two thirds of what it visits, so
//! each visit is charged against a distinct tombstoning.

use std::collections::{BinaryHeap, VecDeque};

use crate::event::Event;
use crate::id::{ProcessId, TimerId};
use crate::time::{SimDuration, SimTime};

/// Bits per wheel level (64 slots).
const BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << BITS;
/// Number of levels.
const LEVELS: usize = 6;
/// Total bits the wheel resolves; events with a larger bit distance from
/// the cursor live in the overflow heap.
const WHEEL_BITS: u32 = BITS * LEVELS as u32;
/// Levels whose slots are drained directly into the pop batch (one small
/// contiguous sort) instead of cascading event-by-event. Level 2 spans
/// 4 µs per slot — small enough that the sort beats per-event hops, and
/// rare enough for newcomers to land below the parked cursor (they fall
/// back to the `early` bucket, which `settle` merges by `(at, seq)`).
const DRAIN_LEVELS: usize = 2;

/// Event class, precomputed at schedule time so liveness checks and pop
/// accounting never have to re-match the payload enum.
const K_OTHER: u8 = 0;
const K_DELIVER: u8 = 1;
const K_TIMER: u8 = 2;
const K_FAULT: u8 = 3;

/// A scheduled event as the wheel sees it: the ordering key, the arena
/// handle of the payload, and a copy of the liveness header — 32 `Copy`
/// bytes, so cascades, drains and sorts move half a cache line instead
/// of a full `Event<M>`, and tombstone checks never touch the arena.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Entry {
    /// Due instant in nanoseconds.
    at: u64,
    /// Insertion sequence number (FIFO tie-break).
    seq: u64,
    /// Arena slot index of the payload.
    idx: u32,
    /// Arena slot generation (stale-handle detection, debug builds).
    gen: u32,
    /// `event.target().0` (tombstone checks without an arena read).
    target: u32,
    /// One of `K_OTHER` / `K_DELIVER` / `K_TIMER` / `K_FAULT`.
    kind: u8,
}

impl Ord for Entry {
    /// Reversed `(at, seq)` order so `BinaryHeap<Entry>` pops min-first,
    /// matching `Scheduled`'s reversed `Ord`.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Classify an event for the arena slot header: `(kind, target)`.
fn meta<M>(event: &Event<M>) -> (u8, u32) {
    match event {
        Event::Deliver { dst, .. } => (K_DELIVER, dst.0),
        Event::Timer { pid, .. } => (K_TIMER, pid.0),
        Event::Crash { pid } | Event::Recover { pid } => (K_FAULT, pid.0),
        other => (K_OTHER, other.target().0),
    }
}

/// True if an entry was tombstoned by a clear/drop watermark — the
/// entry-local form: drains and sweeps discard corpses without touching
/// the arena.
#[inline]
fn entry_tombstoned(e: &Entry, max_mark: u64, clear_mark: u64, drop_marks: &[u64]) -> bool {
    seq_tombstoned(e.seq, e.kind, e.target, max_mark, clear_mark, drop_marks)
}

/// True if an event with this header was tombstoned by a clear/drop
/// watermark — the header form shared by the entry check, the counter
/// materialization and the corpse sweep's slab pass (which hold the
/// scheduler destructured). The leading compare short-circuits the
/// whole check in crash-free runs (`max_mark` stays 0, every `seq` is
/// ≥ 0).
#[inline]
fn seq_tombstoned(
    seq: u64,
    kind: u8,
    target: u32,
    max_mark: u64,
    clear_mark: u64,
    drop_marks: &[u64],
) -> bool {
    if seq >= max_mark {
        return false;
    }
    kind != K_FAULT
        && (seq < clear_mark || seq < drop_marks.get(target as usize).copied().unwrap_or(0))
}

/// Allocation/occupancy counters of a scheduler's event arena.
///
/// `allocs` counts slab growth (a fresh slot pushed onto the slab) and
/// `reuses` counts free-list recycling; at steady state `allocs` is
/// constant while `reuses` grows — the zero-allocation invariant pinned
/// by the `arena_churn_allocates_nothing` test. `live + frees == allocs +
/// reuses` always (every insert is an alloc or a reuse; every removal is
/// a free), so the differential tests can audit reclaimed-slot accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Slab slots created (heap growth events).
    pub allocs: u64,
    /// Inserts satisfied from the free list (no allocation).
    pub reuses: u64,
    /// Slots returned to the free list.
    pub frees: u64,
    /// Slots currently holding a payload.
    pub live: u64,
    /// High-water mark of `live` — peak physical occupancy, including
    /// tombstoned corpses not yet reclaimed.
    pub hwm: u64,
}

/// One arena slot: the payload plus the liveness header the queue front
/// consults (all on the payload's cache line).
#[derive(Debug)]
struct Slot<M> {
    /// Bumped on every free; an [`Entry`] with a mismatched generation
    /// is stale (its payload was reclaimed by a sweep).
    gen: u32,
    /// `event.target().0`.
    target: u32,
    /// Insertion sequence of the occupying event (tombstone watermark
    /// comparisons).
    seq: u64,
    /// One of `K_OTHER` / `K_DELIVER` / `K_TIMER` / `K_FAULT`.
    kind: u8,
    /// The event, `None` while the slot is on the free list.
    payload: Option<Event<M>>,
}

/// Generational slab holding the `Event<M>` payloads referenced by
/// [`Entry`] handles. Freed slots are recycled LIFO; the generation
/// counter both catches stale-handle bugs at the moment of misuse and
/// lets the corpse sweep free payloads without touching the wheel.
#[derive(Debug)]
struct EventArena<M> {
    slots: Vec<Slot<M>>,
    free: Vec<u32>,
    stats: ArenaStats,
}

impl<M> EventArena<M> {
    fn new() -> Self {
        EventArena { slots: Vec::new(), free: Vec::new(), stats: ArenaStats::default() }
    }

    /// Store a payload and its header, reusing a freed slot when one
    /// exists.
    fn insert(&mut self, event: Event<M>, seq: u64, kind: u8, target: u32) -> (u32, u32) {
        let (idx, gen) = match self.free.pop() {
            Some(idx) => {
                self.stats.reuses += 1;
                let slot = &mut self.slots[idx as usize];
                debug_assert!(slot.payload.is_none(), "free-list slot still occupied");
                slot.seq = seq;
                slot.kind = kind;
                slot.target = target;
                slot.payload = Some(event);
                (idx, slot.gen)
            }
            None => {
                self.stats.allocs += 1;
                let idx = u32::try_from(self.slots.len()).expect("arena capacity exceeded u32");
                self.slots.push(Slot { gen: 0, target, seq, kind, payload: Some(event) });
                (idx, 0)
            }
        };
        self.stats.live += 1;
        if self.stats.live > self.stats.hwm {
            self.stats.hwm = self.stats.live;
        }
        (idx, gen)
    }

    /// Remove and return the payload behind a handle, bumping the slot
    /// generation and recycling it.
    fn take(&mut self, idx: u32, gen: u32) -> Event<M> {
        let slot = &mut self.slots[idx as usize];
        debug_assert_eq!(slot.gen, gen, "stale arena handle");
        let event = slot.payload.take().expect("arena slot already freed");
        slot.gen = slot.gen.wrapping_add(1);
        self.free.push(idx);
        self.stats.frees += 1;
        self.stats.live -= 1;
        event
    }

    /// The slot behind a handle (header reads at the queue front).
    #[inline]
    fn slot(&self, idx: u32) -> &Slot<M> {
        &self.slots[idx as usize]
    }
}

/// Dense registry of live timers, replacing a hash map on the
/// set/cancel/fire hot path.
///
/// Timer ids are allocated sequentially, so the registry is a ring
/// indexed by `id − base`: O(1) insert/lookup/remove with no hashing at
/// all. Dead slots at the front are compacted away as the base advances;
/// interior holes persist only until the timers ahead of them retire,
/// which bounds memory by the live timer *span* rather than the count.
#[derive(Debug, Default)]
struct TimerRing {
    /// Id of `buf[0]`; ids below this are retired (fired or cancelled).
    base: u64,
    /// `(owner, seq of the firing event)` per id ≥ `base`. Only touched
    /// by inserts, compaction, and cold `get` lookups.
    buf: VecDeque<(ProcessId, u64)>,
    /// Liveness, one bit per id: word `i` covers ids
    /// `[64·(word_base+i), 64·(word_base+i) + 64)`. Two orders of
    /// magnitude denser than `buf`, so the per-pop `contains` check and
    /// the per-cancel `remove` stay cache-resident even with hundreds of
    /// thousands of in-flight timers.
    live: VecDeque<u64>,
    /// Absolute index of `live[0]`.
    word_base: u64,
}

impl TimerRing {
    /// Register the next timer id for `pid`, whose firing event will
    /// carry insertion sequence `seq`.
    fn insert(&mut self, pid: ProcessId, seq: u64) -> TimerId {
        let id = self.base + self.buf.len() as u64;
        self.buf.push_back((pid, seq));
        let word = id / 64;
        if self.live.is_empty() {
            self.word_base = word;
        }
        if self.word_base + self.live.len() as u64 <= word {
            self.live.push_back(0);
        }
        let w = (word - self.word_base) as usize;
        self.live[w] |= 1u64 << (id % 64);
        TimerId(id)
    }

    /// The liveness bit of an id. Bits of retired ids are cleared in
    /// place, so a set bit means live; ids outside the word window were
    /// retired long ago (or never issued).
    #[inline]
    fn bit(&self, id: TimerId) -> bool {
        let word = id.0 / 64;
        if word < self.word_base {
            return false;
        }
        match self.live.get((word - self.word_base) as usize) {
            Some(w) => (w >> (id.0 % 64)) & 1 != 0,
            None => false,
        }
    }

    /// Owner and firing-event seq of a live timer. Cold-path lookup
    /// (`timer_live` queries): the hot paths use only the bitmap.
    fn get(&self, id: TimerId) -> Option<(ProcessId, u64)> {
        if !self.bit(id) {
            return None;
        }
        let idx = (id.0 - self.base) as usize;
        self.buf.get(idx).copied()
    }

    /// True if the timer is still registered (set, not fired/cancelled).
    /// One L2-resident bitmap word — never touches the `(pid, seq)` ring.
    #[inline]
    fn contains(&self, id: TimerId) -> bool {
        self.bit(id)
    }

    /// Retire a timer (cancel or fire). No-op if already retired.
    fn remove(&mut self, id: TimerId) {
        let word = id.0 / 64;
        if word >= self.word_base {
            if let Some(w) = self.live.get_mut((word - self.word_base) as usize) {
                *w &= !(1u64 << (id.0 % 64));
            }
        }
        // Compact retired ids off the front so memory tracks the live
        // id *span*, not the historical count.
        while !self.buf.is_empty() && !self.bit(TimerId(self.base)) {
            self.buf.pop_front();
            self.base += 1;
        }
        while (self.word_base + 1) * 64 <= self.base && !self.live.is_empty() {
            self.live.pop_front();
            self.word_base += 1;
        }
    }

    /// Retire every registered timer.
    fn clear(&mut self) {
        self.base += self.buf.len() as u64;
        self.buf.clear();
        self.live.clear();
        self.word_base = 0;
    }
}

/// Liveness of the entry at the queue front.
enum Front {
    /// Fire it.
    Live,
    /// Tombstoned by a watermark: reap it.
    Corpse,
    /// A cancelled timer's firing (never tombstoned, still counted as
    /// pending — exactly like the oracle's heap, which carries the
    /// corpse to the top before skipping it).
    CancelledTimer,
}

/// Virtual clock and pending-event queue over a hierarchical timing wheel.
#[derive(Debug)]
pub struct WheelScheduler<M> {
    now: SimTime,
    /// Wheel position in nanoseconds. Always `>= now` and `<=` every
    /// pending event in the wheel, batch and overflow; only events in
    /// `early` may precede it (see [`Self::place`]).
    cursor: u64,
    seq: u64,
    popped: u64,
    clamped: u64,

    /// Payload + header storage; everything below holds [`Entry`]
    /// handles only.
    arena: EventArena<M>,

    /// `LEVELS × SLOTS` buckets of unordered entries.
    slots: Vec<Vec<Entry>>,
    /// One occupancy bit per slot, per level.
    occupied: [u64; LEVELS],
    /// The drained front window, ordered `(at, seq)`; `batch_pos` is the
    /// consumption cursor (a `Vec` plus index beats a ring buffer here:
    /// pops are one bump, and the drain sort runs on the bare slice).
    batch: Vec<Entry>,
    batch_pos: usize,
    /// Events scheduled below the cursor (possible only between a
    /// `peek_time` and the pop it predicts). `Entry`'s reversed `Ord`
    /// makes both heaps min-first.
    early: BinaryHeap<Entry>,
    /// Events beyond the wheel horizon.
    overflow: BinaryHeap<Entry>,

    /// Live timers with their owner and the `seq` of their firing event
    /// (needed to evaluate the owner's drop watermark).
    timers: TimerRing,
    /// Non-fault events inserted below this are dead (rollback flush).
    clear_mark: u64,
    /// Non-fault events targeting pid `p` inserted below `drop_marks[p]`
    /// are dead (fail-stop crash).
    drop_marks: Vec<u64>,
    /// `max(clear_mark, all drop_marks)`: entries with `seq >= max_mark`
    /// cannot be tombstoned, which reduces the per-entry liveness check
    /// to one compare in crash-free runs.
    max_mark: u64,

    /// Exact pending count (matches the oracle's `heap.len()`).
    live: u64,
    /// High-water mark of `live` over the run.
    peak_live: u64,
    /// Pending fault events (never tombstoned).
    fault_live: u64,
    /// Whether the per-target counters below are materialized. False
    /// until the first `drop_events_for`; flipping it walks the arena
    /// once (see [`Self::activate_counters`]).
    counters_active: bool,
    /// Pending non-fault events per target process (when active).
    nonfault_by_target: Vec<u64>,
    /// Pending `Deliver` events per destination process (when active).
    deliver_by_target: Vec<u64>,
    messages_lost: u64,
}

impl<M> Default for WheelScheduler<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> WheelScheduler<M> {
    /// A scheduler at time zero with no pending events.
    pub fn new() -> Self {
        WheelScheduler {
            now: SimTime::ZERO,
            cursor: 0,
            seq: 0,
            popped: 0,
            clamped: 0,
            arena: EventArena::new(),
            slots: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            occupied: [0; LEVELS],
            batch: Vec::new(),
            batch_pos: 0,
            early: BinaryHeap::new(),
            overflow: BinaryHeap::new(),
            timers: TimerRing::default(),
            clear_mark: 0,
            drop_marks: Vec::new(),
            max_mark: 0,
            live: 0,
            peak_live: 0,
            fault_live: 0,
            counters_active: false,
            nonfault_by_target: Vec::new(),
            deliver_by_target: Vec::new(),
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
    /// counted until their stale firing is skipped, exactly like the
    /// reference heap; tombstoned events are already excluded).
    #[inline]
    pub fn pending(&self) -> usize {
        self.live as usize
    }

    /// High-water mark of [`Self::pending`] over the scheduler's life —
    /// the peak in-flight event population.
    #[inline]
    pub fn peak_pending(&self) -> u64 {
        self.peak_live
    }

    /// Allocation counters of the payload arena (see [`ArenaStats`]).
    #[inline]
    pub fn arena_stats(&self) -> ArenaStats {
        self.arena.stats
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
        let (kind, target) = meta(&event);
        if kind == K_FAULT {
            self.fault_live += 1;
        } else if self.counters_active {
            let t = target as usize;
            self.grow_targets(t);
            self.nonfault_by_target[t] += 1;
            if kind == K_DELIVER {
                self.deliver_by_target[t] += 1;
            }
        }
        self.live += 1;
        if self.live > self.peak_live {
            self.peak_live = self.live;
        }
        let (idx, gen) = self.arena.insert(event, seq, kind, target);
        self.place(Entry { at: at.as_nanos(), seq, idx, gen, target, kind });
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
    /// [`Self::drop_events_for`] tombstoned them — in-flight messages lost
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
        // `self.seq` is the seq the firing event is about to receive.
        let id = self.timers.insert(pid, self.seq);
        self.schedule_after(delay, Event::Timer { pid, id, tag });
        id
    }

    /// Cancel a previously set timer. Cancelling an already-fired or
    /// already-cancelled timer is a harmless no-op.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.timers.remove(id);
    }

    /// True if the timer is still pending (set, not fired, not cancelled,
    /// and its owner not crashed since it was set).
    pub fn timer_live(&self, id: TimerId) -> bool {
        match self.timers.get(id) {
            Some((pid, seq)) => seq >= self.drop_mark(pid.index()),
            None => false,
        }
    }

    /// Pop the next due event, advancing the clock to its instant.
    ///
    /// Cancelled timers and tombstoned events are skipped transparently.
    /// Returns `None` when the queue is exhausted.
    pub fn pop(&mut self) -> Option<(SimTime, Event<M>)> {
        // Fast path: a non-timer at the batch front with nothing in
        // `early` and a seq above every watermark needs no settling —
        // it cannot be tombstoned, and only timers can be cancelled.
        if let Some(&e) = self.batch.get(self.batch_pos) {
            if self.early.is_empty() && e.seq >= self.max_mark && e.kind != K_TIMER {
                self.batch_pos += 1;
                return Some(self.finish_pop(e));
            }
        }
        self.settle()?;
        let e = if self.next_is_early() {
            self.early.pop().expect("settle leaves a live front")
        } else {
            let e = self.batch[self.batch_pos];
            self.batch_pos += 1;
            e
        };
        Some(self.finish_pop(e))
    }

    /// Pop the next due event only if it is due at exactly `at`, targets
    /// `pid`, and is not a fault — the delivery-window primitive: after a
    /// normal [`Self::pop`], the run loop keeps draining the same
    /// `(time, process)` window as one batch, amortising per-event
    /// dispatch overhead without ever reordering (`(at, seq)` order is
    /// preserved because only the *front* event can match).
    pub fn pop_matching(&mut self, at: SimTime, pid: ProcessId) -> Option<Event<M>> {
        self.settle()?;
        let from_early = self.next_is_early();
        let front = if from_early {
            *self.early.peek().expect("settle leaves a live front")
        } else {
            self.batch[self.batch_pos]
        };
        if front.at != at.as_nanos() {
            return None;
        }
        if front.target != pid.0 || front.kind == K_FAULT {
            return None;
        }
        let e = if from_early {
            self.early.pop().expect("peeked")
        } else {
            self.batch_pos += 1;
            front
        };
        Some(self.finish_pop(e).1)
    }

    /// Peek at the due time of the next live event without advancing the
    /// clock. (The wheel cursor may advance internally; `now` does not.)
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.settle()
    }

    /// Drop every pending event except injected faults (used at recovery
    /// time: rollback flushes the channels, cancels all timers and ticks,
    /// and the recovery routine re-arms the world afresh).
    ///
    /// O(#processes): records a watermark; dead events are reclaimed by
    /// the corpse sweep or as the wheel reaches them.
    pub fn clear_except_faults(&mut self) {
        self.clear_mark = self.seq;
        self.max_mark = self.max_mark.max(self.seq);
        self.timers.clear();
        self.live = self.fault_live;
        self.nonfault_by_target.iter_mut().for_each(|c| *c = 0);
        self.deliver_by_target.iter_mut().for_each(|c| *c = 0);
        self.maybe_sweep();
    }

    /// Drop every pending event addressed to `pid` (used at crash time so a
    /// dead process receives nothing until recovery re-arms it).
    ///
    /// Message deliveries *to* a crashed process are lost, matching the
    /// fail-stop model (counted — see [`Self::messages_lost_at_crash`]);
    /// in-flight messages *from* it were already sent.
    ///
    /// Records a per-pid watermark; dead events are reclaimed by the
    /// corpse sweep or as the wheel reaches them. The first drop of a run
    /// additionally walks the arena once to materialize the per-target
    /// counters (O(pending)); subsequent drops are O(1) amortised.
    pub fn drop_events_for(&mut self, pid: ProcessId) {
        if !self.counters_active {
            self.activate_counters();
        }
        let t = pid.index();
        self.grow_targets(t);
        if self.drop_marks.len() <= t {
            self.drop_marks.resize(t + 1, 0);
        }
        self.drop_marks[t] = self.seq;
        self.max_mark = self.max_mark.max(self.seq);
        self.messages_lost += self.deliver_by_target[t];
        self.live -= self.nonfault_by_target[t];
        self.nonfault_by_target[t] = 0;
        self.deliver_by_target[t] = 0;
        self.maybe_sweep();
    }

    // ---------- internals ----------

    /// Materialize the per-target pending counters with one sequential
    /// pass over the arena (every resident payload is a physical event).
    /// Cancelled-but-unfired timers count (the oracle's heap still holds
    /// them); tombstoned corpses do not (they were subtracted when their
    /// watermark was recorded).
    fn activate_counters(&mut self) {
        self.counters_active = true;
        let mut nonfault: Vec<u64> = Vec::new();
        let mut deliver: Vec<u64> = Vec::new();
        for s in &self.arena.slots {
            if s.payload.is_none() || s.kind == K_FAULT {
                continue;
            }
            if seq_tombstoned(
                s.seq,
                s.kind,
                s.target,
                self.max_mark,
                self.clear_mark,
                &self.drop_marks,
            ) {
                continue;
            }
            let t = s.target as usize;
            if nonfault.len() <= t {
                nonfault.resize(t + 1, 0);
                deliver.resize(t + 1, 0);
            }
            nonfault[t] += 1;
            if s.kind == K_DELIVER {
                deliver[t] += 1;
            }
        }
        self.nonfault_by_target = nonfault;
        self.deliver_by_target = deliver;
        debug_assert_eq!(
            self.nonfault_by_target.iter().sum::<u64>() + self.fault_live,
            self.live,
            "materialized counters disagree with the live total"
        );
    }

    #[inline]
    fn grow_targets(&mut self, t: usize) {
        if self.nonfault_by_target.len() <= t {
            self.nonfault_by_target.resize(t + 1, 0);
            self.deliver_by_target.resize(t + 1, 0);
        }
    }

    #[inline]
    fn drop_mark(&self, t: usize) -> u64 {
        self.drop_marks.get(t).copied().unwrap_or(0)
    }

    /// Liveness of a front entry. The tombstone check is entry-local;
    /// only live timers cost an arena read (for the id, on the cache
    /// line the pop that follows is about to take anyway).
    #[inline]
    fn classify(&self, e: &Entry) -> Front {
        if entry_tombstoned(e, self.max_mark, self.clear_mark, &self.drop_marks) {
            return Front::Corpse;
        }
        if e.kind == K_TIMER {
            let s = self.arena.slot(e.idx);
            debug_assert_eq!(s.gen, e.gen, "stale arena handle at the front");
            match s.payload.as_ref() {
                Some(Event::Timer { id, .. }) => {
                    if !self.timers.contains(*id) {
                        return Front::CancelledTimer;
                    }
                }
                _ => unreachable!("K_TIMER slot with non-timer payload"),
            }
        }
        Front::Live
    }

    /// Account for a popped live entry and hand out its payload.
    fn finish_pop(&mut self, e: Entry) -> (SimTime, Event<M>) {
        self.live -= 1;
        let (kind, target) = (e.kind, e.target);
        let event = self.arena.take(e.idx, e.gen);
        match kind {
            K_FAULT => self.fault_live -= 1,
            K_TIMER => {
                if let Event::Timer { id, .. } = &event {
                    self.timers.remove(*id);
                }
                if self.counters_active {
                    self.nonfault_by_target[target as usize] -= 1;
                }
            }
            K_DELIVER => {
                if self.counters_active {
                    let t = target as usize;
                    self.nonfault_by_target[t] -= 1;
                    self.deliver_by_target[t] -= 1;
                }
            }
            _ => {
                if self.counters_active {
                    self.nonfault_by_target[target as usize] -= 1;
                }
            }
        }
        debug_assert!(e.at >= self.now.as_nanos(), "time went backwards");
        self.now = SimTime::from_nanos(e.at);
        self.popped += 1;
        (self.now, event)
    }

    /// Reap a tombstoned corpse (at the front or during a drain): free
    /// the payload and retire any timer registration. Its counters were
    /// settled when the watermark was recorded.
    fn reap(&mut self, e: Entry) {
        let event = self.arena.take(e.idx, e.gen);
        if let Event::Timer { id, .. } = &event {
            self.timers.remove(*id);
        }
    }

    /// Skip a cancelled timer's stale firing at the queue front. It was
    /// still counted as pending (the oracle pops it before skipping),
    /// so the live total and counters are settled here.
    fn discard_cancelled(&mut self, e: Entry) {
        let _ = self.arena.take(e.idx, e.gen);
        self.live -= 1;
        if self.counters_active {
            self.nonfault_by_target[e.target as usize] -= 1;
        }
    }

    /// Eagerly reclaim tombstoned corpses when they outnumber twice the
    /// live population. Two sequential passes — a retain over the
    /// occupied wheel structures (entry-local checks, no arena reads)
    /// and a pass over the slab freeing tombstoned payloads — with no
    /// sorting and no random access anywhere. Bounds the arena footprint
    /// at ~3× live instead of letting crash-heavy runs accumulate
    /// millions of resident corpses.
    fn maybe_sweep(&mut self) {
        let corpses = self.arena.stats.live - self.live;
        if corpses > (self.live * 2).max(4_096) {
            self.sweep_corpses();
        }
    }

    /// The sweep itself. Both passes evaluate the same tombstone
    /// predicate against the same (frozen) watermarks, so every corpse
    /// entry is dropped exactly when its payload is freed. Slab frees
    /// stream in reverse index order, and the LIFO free list then hands
    /// out ascending indices, so the schedule burst that follows a crash
    /// writes payloads sequentially too.
    fn sweep_corpses(&mut self) {
        let Self {
            arena,
            timers,
            slots,
            batch,
            batch_pos,
            early,
            overflow,
            occupied,
            clear_mark,
            drop_marks,
            max_mark,
            ..
        } = self;
        let (mm, cm) = (*max_mark, *clear_mark);
        let keep = |e: &Entry| !entry_tombstoned(e, mm, cm, drop_marks);
        for level in 0..LEVELS {
            let mut bm = occupied[level];
            while bm != 0 {
                let slot = bm.trailing_zeros() as usize;
                bm &= bm - 1;
                let v = &mut slots[level * SLOTS + slot];
                v.retain(&keep);
                if v.is_empty() {
                    occupied[level] &= !(1u64 << slot);
                }
            }
        }
        // The consumed batch prefix is already popped — drop it before
        // retaining so it cannot be revisited.
        batch.drain(..*batch_pos);
        *batch_pos = 0;
        batch.retain(&keep);
        early.retain(&keep);
        overflow.retain(&keep);
        let EventArena { slots: arena_slots, free, stats } = arena;
        for (idx, s) in arena_slots.iter_mut().enumerate().rev() {
            if s.payload.is_none() || !seq_tombstoned(s.seq, s.kind, s.target, mm, cm, drop_marks) {
                continue;
            }
            let event = s.payload.take().expect("occupancy checked");
            s.gen = s.gen.wrapping_add(1);
            free.push(idx as u32);
            stats.frees += 1;
            stats.live -= 1;
            if s.kind == K_TIMER {
                if let Event::Timer { id, .. } = &event {
                    timers.remove(*id);
                }
            }
        }
    }

    /// Bucket an entry by its bit distance from the cursor. Callers
    /// guarantee `e.at >= now`; times below the cursor (possible only
    /// after `peek_time` advanced it) go to the `early` heap.
    fn place(&mut self, e: Entry) {
        let at = e.at;
        if at < self.cursor {
            self.early.push(e);
            return;
        }
        let diff = at ^ self.cursor;
        if diff >> WHEEL_BITS != 0 {
            self.overflow.push(e);
            return;
        }
        let level = if diff == 0 { 0 } else { ((63 - diff.leading_zeros()) / BITS) as usize };
        let slot = ((at >> (BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
        self.slots[level * SLOTS + slot].push(e);
        self.occupied[level] |= 1 << slot;
    }

    /// True if the next due event sits in `early` rather than `batch`.
    /// The batch spans a whole drained window (up to 64 ns), so the two
    /// merge by `(at, seq)` — neither side uniformly precedes the other.
    #[inline]
    fn next_is_early(&self) -> bool {
        match (self.early.peek(), self.batch.get(self.batch_pos)) {
            (Some(e), Some(b)) => (e.at, e.seq) < (b.at, b.seq),
            (Some(_), None) => true,
            _ => false,
        }
    }

    /// Advance until the earliest *live* pending event sits at the front
    /// of `early` or `batch`, discarding dead entries along the way.
    /// Returns its due time, or `None` when fully drained.
    fn settle(&mut self) -> Option<SimTime> {
        loop {
            if self.early.is_empty() && self.batch_pos >= self.batch.len() {
                if !self.refill_batch() {
                    return None;
                }
                continue;
            }
            let from_early = self.next_is_early();
            let e = if from_early {
                *self.early.peek().expect("checked")
            } else {
                self.batch[self.batch_pos]
            };
            match self.classify(&e) {
                Front::Live => return Some(SimTime::from_nanos(e.at)),
                dead => {
                    if from_early {
                        self.early.pop().expect("peeked");
                    } else {
                        self.batch_pos += 1;
                    }
                    match dead {
                        Front::Corpse => self.reap(e),
                        Front::CancelledTimer => self.discard_cancelled(e),
                        Front::Live => unreachable!(),
                    }
                }
            }
        }
    }

    /// Drain the earliest occupied level-0 slot into `batch`, cascading
    /// coarser slots and migrating overflow as needed. Tombstoned
    /// entries are reaped as they are drained (entry-local check), so
    /// they never participate in a sort or reach `settle`.
    /// Returns false when the wheel and overflow are physically empty.
    fn refill_batch(&mut self) -> bool {
        debug_assert!(self.batch_pos >= self.batch.len() && self.early.is_empty());
        self.batch.clear();
        self.batch_pos = 0;
        loop {
            // Level 0: every occupied slot is a single nanosecond at or
            // after the cursor within its 64 ns window.
            let mask0 = !0u64 << (self.cursor & (SLOTS as u64 - 1));
            debug_assert_eq!(self.occupied[0] & !mask0, 0, "level-0 slot in the past");
            let bm0 = self.occupied[0] & mask0;
            if bm0 != 0 {
                let slot = bm0.trailing_zeros() as usize;
                self.occupied[0] &= !(1u64 << slot);
                self.cursor = (self.cursor & !(SLOTS as u64 - 1)) | slot as u64;
                let mut v = std::mem::take(&mut self.slots[slot]);
                for e in v.drain(..) {
                    if entry_tombstoned(&e, self.max_mark, self.clear_mark, &self.drop_marks) {
                        self.reap(e);
                    } else {
                        self.batch.push(e);
                    }
                }
                self.slots[slot] = v;
                // The only ordering work in the wheel: one nanosecond's
                // ties, FIFO by insertion seq. The batch was empty on
                // entry, so this sorts exactly the drained slot.
                if self.batch.len() > 1 {
                    self.batch.sort_unstable_by_key(|e| e.seq);
                }
                if self.batch.is_empty() {
                    continue;
                }
                return true;
            }
            // Cascade the earliest occupied coarse slot down one level.
            let mut cascaded = false;
            for level in 1..LEVELS {
                let shift = BITS * level as u32;
                let cur_slot = (self.cursor >> shift) & (SLOTS as u64 - 1);
                let mask = !0u64 << cur_slot;
                debug_assert_eq!(self.occupied[level] & !mask, 0, "coarse slot in the past");
                let bm = self.occupied[level] & mask;
                if bm == 0 {
                    continue;
                }
                let slot = bm.trailing_zeros() as usize;
                self.occupied[level] &= !(1u64 << slot);
                // Jump the cursor to the slot's start (time between the
                // old cursor and here is provably empty), then re-bucket
                // the slot's events — each lands strictly below `level`.
                let below_parent = (1u64 << (shift + BITS)) - 1;
                let slot_start = (self.cursor & !below_parent) | ((slot as u64) << shift);
                self.cursor = self.cursor.max(slot_start);
                if level <= DRAIN_LEVELS {
                    // Fine slots (64 ns at level 1, 4 µs at level 2) are
                    // drained straight into the batch instead of being
                    // re-bucketed one level at a time: one contiguous
                    // `(at, seq)` sort of a small window is cheaper than
                    // a cascade hop per event. Parking the cursor on the
                    // window's last nanosecond keeps the placement
                    // invariant: a newcomer can only land inside the
                    // window at exactly `cursor` (level-0 slot 63) or
                    // below it (the early bucket), and `settle` merges
                    // both against the batch by `(at, seq)`.
                    self.cursor = self.cursor.max(slot_start | ((1u64 << shift) - 1));
                    let mut v = std::mem::take(&mut self.slots[level * SLOTS + slot]);
                    for e in v.drain(..) {
                        if entry_tombstoned(&e, self.max_mark, self.clear_mark, &self.drop_marks) {
                            self.reap(e);
                        } else {
                            self.batch.push(e);
                        }
                    }
                    self.slots[level * SLOTS + slot] = v;
                    if self.batch.is_empty() {
                        cascaded = true;
                        break;
                    }
                    if self.batch.len() > 1 {
                        self.batch.sort_unstable_by_key(|e| (e.at, e.seq));
                    }
                    return true;
                }
                // `place` re-buckets strictly below `level`, so the taken
                // slot is never a push target while drained.
                let mut v = std::mem::take(&mut self.slots[level * SLOTS + slot]);
                for e in v.drain(..) {
                    if entry_tombstoned(&e, self.max_mark, self.clear_mark, &self.drop_marks) {
                        self.reap(e);
                    } else {
                        self.place(e);
                    }
                }
                self.slots[level * SLOTS + slot] = v;
                cascaded = true;
                break;
            }
            if cascaded {
                continue;
            }
            // Wheel empty: jump to the overflow horizon and migrate every
            // event within the new 2^36 ns window.
            if let Some(top) = self.overflow.peek() {
                self.cursor = top.at;
                while let Some(top) = self.overflow.peek() {
                    if (top.at ^ self.cursor) >> WHEEL_BITS != 0 {
                        break;
                    }
                    let e = self.overflow.pop().expect("peeked");
                    if entry_tombstoned(&e, self.max_mark, self.clear_mark, &self.drop_marks) {
                        self.reap(e);
                    } else {
                        self.place(e);
                    }
                }
                continue;
            }
            debug_assert_eq!(self.live, 0, "live events but empty structure");
            return false;
        }
    }
}
