//! Durable checkpoint store and recovery-line bookkeeping.
//!
//! Tracks, per process and sequence number, what has actually become
//! durable on the stable-storage server. The *recovery line* at any instant
//! is the greatest sequence number `k` such that **every** process has a
//! durable checkpoint `C_{i,k}` — by the paper's Theorem 2 this `S_k` is a
//! consistent global checkpoint, so a failed system rolls back exactly to
//! it. Superseded checkpoints (< recovery line) can be garbage-collected,
//! mirroring the paper's observation that synchronous-style schemes need
//! only bounded storage.

use std::collections::BTreeMap;

use bytes::Bytes;
use ocpt_sim::{ProcessId, SimTime};

/// A durable checkpoint record.
#[derive(Clone, Debug)]
pub struct StoredCheckpoint {
    /// Owning process.
    pub pid: ProcessId,
    /// Checkpoint sequence number (the paper's `csn`).
    pub csn: u64,
    /// Encoded tentative-checkpoint state `CT_{i,k}`.
    pub state: Bytes,
    /// Encoded message log `logSet_{i,k}`.
    pub log: Bytes,
    /// When the write became durable.
    pub durable_at: SimTime,
}

impl StoredCheckpoint {
    /// Total stored bytes (state + log).
    pub fn total_bytes(&self) -> usize {
        self.state.len() + self.log.len()
    }
}

/// The durable checkpoint store for all processes.
#[derive(Debug, Default)]
pub struct CheckpointStore {
    n: usize,
    /// `(csn, pid)` ordering gives cheap per-csn scans.
    items: BTreeMap<(u64, u32), StoredCheckpoint>,
    /// Records held per `csn` (no entry for a count of zero).
    durable: BTreeMap<u64, usize>,
    /// Cached recovery line: greatest `csn > 0` whose count is `n`.
    line: u64,
    gc_below: u64,
}

impl CheckpointStore {
    /// A store for `n` processes.
    pub fn new(n: usize) -> Self {
        CheckpointStore { n, ..Default::default() }
    }

    /// Record a checkpoint as durable. Overwriting the same `(pid, csn)` is
    /// a protocol error and panics in debug builds.
    pub fn put(&mut self, ckpt: StoredCheckpoint) {
        let csn = ckpt.csn;
        let key = (csn, ckpt.pid.0);
        let prev = self.items.insert(key, ckpt);
        debug_assert!(prev.is_none(), "duplicate durable checkpoint {key:?}");
        if prev.is_none() {
            let count = self.durable.entry(csn).or_insert(0);
            *count += 1;
            if *count == self.n && csn > self.line {
                self.line = csn;
            }
        }
    }

    /// Fetch a durable checkpoint.
    pub fn get(&self, pid: ProcessId, csn: u64) -> Option<&StoredCheckpoint> {
        self.items.get(&(csn, pid.0))
    }

    /// How many processes have a durable checkpoint with this `csn`.
    pub fn durable_count(&self, csn: u64) -> usize {
        self.durable.get(&csn).copied().unwrap_or(0)
    }

    /// The recovery line: greatest `csn` durable on **all** processes.
    ///
    /// Sequence number 0 (the initial checkpoints) is assumed durable by
    /// construction, so the line is always defined. O(1): `put` advances
    /// the cached line when a `csn`'s count reaches `n`, and the two
    /// deleting operations re-derive it from the per-`csn` counts.
    pub fn recovery_line(&self) -> u64 {
        self.line
    }

    /// Greatest complete `csn > 0` still held, from the per-`csn` counts.
    fn scan_line(&self) -> u64 {
        let complete = |(&csn, &count): (&u64, &usize)| (csn > 0 && count == self.n).then_some(csn);
        self.durable.iter().rev().find_map(complete).unwrap_or(0)
    }

    /// The most recent durable checkpoint of `pid` with `csn ≤ bound`.
    pub fn latest_at_most(&self, pid: ProcessId, bound: u64) -> Option<&StoredCheckpoint> {
        self.items.range(..=(bound, u32::MAX)).rev().map(|(_, v)| v).find(|v| v.pid == pid)
    }

    /// Drop all checkpoints with `csn < line` (bounded storage). Returns
    /// the number of records collected.
    pub fn gc_below(&mut self, line: u64) -> usize {
        let before = self.items.len();
        self.items = self.items.split_off(&(line, 0));
        self.durable = self.durable.split_off(&line);
        self.gc_below = self.gc_below.max(line);
        if self.line < line {
            self.line = self.scan_line();
        }
        before - self.items.len()
    }

    /// Drop all checkpoints with `csn > line`. Rollback recovery
    /// invalidates post-line checkpoints: their cuts mix pre-rollback
    /// events with the re-executed future. Returns the number dropped.
    pub fn truncate_above(&mut self, line: u64) -> usize {
        let before = self.items.len();
        if let Some(above) = line.checked_add(1) {
            self.items.split_off(&(above, 0));
            self.durable.split_off(&above);
        }
        if self.line > line {
            self.line = self.scan_line();
        }
        before - self.items.len()
    }

    /// Total bytes currently held.
    pub fn total_bytes(&self) -> usize {
        self.items.values().map(|c| c.total_bytes()).sum()
    }

    /// Number of records currently held.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True if the store holds nothing.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ck(pid: u32, csn: u64, at: u64) -> StoredCheckpoint {
        StoredCheckpoint {
            pid: ProcessId(pid),
            csn,
            state: Bytes::from_static(b"state"),
            log: Bytes::from_static(b"log"),
            durable_at: SimTime::from_nanos(at),
        }
    }

    #[test]
    fn recovery_line_requires_all_processes() {
        let mut s = CheckpointStore::new(3);
        assert_eq!(s.recovery_line(), 0);
        s.put(ck(0, 1, 10));
        s.put(ck(1, 1, 20));
        assert_eq!(s.recovery_line(), 0);
        s.put(ck(2, 1, 30));
        assert_eq!(s.recovery_line(), 1);
    }

    #[test]
    fn recovery_line_takes_greatest_complete() {
        let mut s = CheckpointStore::new(2);
        s.put(ck(0, 1, 1));
        s.put(ck(1, 1, 2));
        s.put(ck(0, 2, 3));
        s.put(ck(1, 2, 4));
        s.put(ck(0, 3, 5)); // csn 3 incomplete
        assert_eq!(s.recovery_line(), 2);
    }

    #[test]
    fn latest_at_most_picks_bound() {
        let mut s = CheckpointStore::new(1);
        s.put(ck(0, 1, 1));
        s.put(ck(0, 3, 3));
        assert_eq!(s.latest_at_most(ProcessId(0), 2).unwrap().csn, 1);
        assert_eq!(s.latest_at_most(ProcessId(0), 3).unwrap().csn, 3);
        assert!(s.latest_at_most(ProcessId(0), 0).is_none());
    }

    #[test]
    fn gc_drops_old_records() {
        let mut s = CheckpointStore::new(2);
        s.put(ck(0, 1, 1));
        s.put(ck(1, 1, 1));
        s.put(ck(0, 2, 2));
        s.put(ck(1, 2, 2));
        let dropped = s.gc_below(2);
        assert_eq!(dropped, 2);
        assert_eq!(s.len(), 2);
        assert!(s.get(ProcessId(0), 1).is_none());
        assert!(s.get(ProcessId(0), 2).is_some());
    }

    #[test]
    fn truncate_above_drops_new_generations() {
        let mut s = CheckpointStore::new(2);
        s.put(ck(0, 1, 1));
        s.put(ck(1, 1, 1));
        s.put(ck(0, 2, 2));
        s.put(ck(1, 3, 3));
        assert_eq!(s.truncate_above(1), 2);
        assert_eq!(s.len(), 2);
        assert!(s.get(ProcessId(0), 2).is_none());
        assert_eq!(s.recovery_line(), 1);
        // Re-inserting a truncated (pid, csn) is now legal.
        s.put(ck(0, 2, 9));
        assert!(s.get(ProcessId(0), 2).is_some());
    }

    /// The definition the cached line replaced: scan every record.
    fn full_scan_line(s: &CheckpointStore) -> u64 {
        let mut held: BTreeMap<u64, usize> = BTreeMap::new();
        for &(csn, _) in s.items.keys() {
            *held.entry(csn).or_insert(0) += 1;
        }
        held.iter()
            .filter(|&(&csn, &c)| csn > 0 && c == s.n)
            .map(|(&csn, _)| csn)
            .max()
            .unwrap_or(0)
    }

    #[test]
    fn cached_line_matches_full_scan_under_put_truncate_gc() {
        let n = 3;
        let mut rng = ocpt_sim::SimRng::derive(7, 0x570E);
        for _ in 0..200 {
            let mut s = CheckpointStore::new(n);
            for step in 0..60 {
                match rng.next_usize_below(10) {
                    0 => {
                        s.truncate_above(rng.next_usize_below(8) as u64);
                    }
                    1 => {
                        s.gc_below(rng.next_usize_below(8) as u64);
                    }
                    _ => {
                        let (pid, csn) = (rng.next_usize_below(n), rng.next_usize_below(8));
                        if s.get(ProcessId(pid as u32), csn as u64).is_none() {
                            s.put(ck(pid as u32, csn as u64, step));
                        }
                    }
                }
                assert_eq!(s.recovery_line(), full_scan_line(&s));
                for csn in 0..8 {
                    let held = s.items.range((csn, 0)..=(csn, u32::MAX)).count();
                    assert_eq!(s.durable_count(csn), held);
                }
            }
        }
    }

    #[test]
    fn byte_accounting() {
        let mut s = CheckpointStore::new(1);
        s.put(ck(0, 1, 1));
        assert_eq!(s.total_bytes(), 8); // "state" + "log"
        assert!(!s.is_empty());
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn duplicate_put_panics_in_debug() {
        let mut s = CheckpointStore::new(1);
        s.put(ck(0, 1, 1));
        s.put(ck(0, 1, 2));
    }
}
