//! Vector clocks and Lamport's happened-before relation (paper §2.2).
//!
//! The paper's algorithm itself never needs vector clocks — that is part of
//! its appeal (`csn` + `tentSet` piggybacks are O(N) bits, not O(N) words).
//! We use vector clocks purely as a *verification oracle*: an omniscient
//! observer timestamps every event, and consistency of the collected global
//! checkpoints is then checked against the oracle.

use std::borrow::Borrow;

use ocpt_sim::ProcessId;

/// Outcome of comparing two vector clocks under happened-before.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Causality {
    /// `a == b` component-wise.
    Equal,
    /// `a` happened before `b`.
    Before,
    /// `b` happened before `a`.
    After,
    /// Neither happened before the other.
    Concurrent,
}

/// A vector clock over `n` processes.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct VClock {
    v: Vec<u64>,
}

impl VClock {
    /// The zero clock for `n` processes.
    pub fn zero(n: usize) -> Self {
        VClock { v: vec![0; n] }
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        self.v.len()
    }

    /// True if the clock has no components (degenerate).
    pub fn is_empty(&self) -> bool {
        self.v.is_empty()
    }

    /// A clock from raw components (codec use; components are trusted).
    pub fn from_components(v: Vec<u64>) -> Self {
        VClock { v }
    }

    /// The raw components, indexed by process id.
    pub fn components(&self) -> &[u64] {
        &self.v
    }

    /// Component for `pid`.
    pub fn get(&self, pid: ProcessId) -> u64 {
        self.v[pid.index()]
    }

    /// Overwrite the component for `pid` (codec use).
    pub fn set(&mut self, pid: ProcessId, value: u64) {
        self.v[pid.index()] = value;
    }

    /// Advance the local component (a local event at `pid`).
    pub fn tick(&mut self, pid: ProcessId) {
        self.v[pid.index()] += 1;
    }

    /// Component-wise maximum with `other` (message receipt).
    pub fn merge(&mut self, other: &VClock) {
        assert_eq!(self.v.len(), other.v.len(), "clock arity mismatch");
        for (a, b) in self.v.iter_mut().zip(&other.v) {
            *a = (*a).max(*b);
        }
    }

    /// Compare under happened-before.
    pub fn compare(&self, other: &VClock) -> Causality {
        assert_eq!(self.v.len(), other.v.len(), "clock arity mismatch");
        let mut le = true;
        let mut ge = true;
        for (a, b) in self.v.iter().zip(&other.v) {
            if a > b {
                le = false;
            }
            if a < b {
                ge = false;
            }
        }
        match (le, ge) {
            (true, true) => Causality::Equal,
            (true, false) => Causality::Before,
            (false, true) => Causality::After,
            (false, false) => Causality::Concurrent,
        }
    }

    /// `self` happened before `other` (strictly).
    pub fn happened_before(&self, other: &VClock) -> bool {
        self.compare(other) == Causality::Before
    }

    /// `self` and `other` are concurrent.
    pub fn concurrent(&self, other: &VClock) -> bool {
        self.compare(other) == Causality::Concurrent
    }
}

/// A set of checkpoints (one per process) is a consistent global checkpoint
/// iff its members are **pairwise concurrent or equal** — no member happened
/// before another. This is the classical vector-clock characterisation used
/// as a second, independent oracle next to the orphan-message check.
///
/// The definition, spelled out: all pairs, a full [`VClock::compare`] each.
pub fn pairwise_consistent<C: Borrow<VClock>>(clocks: &[C]) -> bool {
    for i in 0..clocks.len() {
        for j in (i + 1)..clocks.len() {
            match clocks[i].borrow().compare(clocks[j].borrow()) {
                Causality::Before | Causality::After => return false,
                _ => {}
            }
        }
    }
    true
}

/// [`pairwise_consistent`] for a set whose `i`-th member is the checkpoint
/// of process `i` — the same verdict in every case, in O(N²) instead of
/// O(N³) component reads when the set is consistent the way checkpoint sets
/// are: if every member knows strictly more about its own process than any
/// other member does (`C_j[i] < C_i[i]` for all `i ≠ j`), each pair differs
/// in both directions and is [`Causality::Concurrent`] under the full
/// comparison. Any other set — one with an ordered or an equal pair, or one
/// shaped differently — takes the all-pairs scan.
pub fn checkpoint_set_consistent<C: Borrow<VClock>>(clocks: &[C]) -> bool {
    each_knows_itself_best(clocks) || pairwise_consistent(clocks)
}

fn each_knows_itself_best<C: Borrow<VClock>>(clocks: &[C]) -> bool {
    let n = clocks.len();
    if clocks.iter().any(|c| c.borrow().len() != n) {
        return false;
    }
    let own: Vec<u64> = clocks.iter().enumerate().map(|(i, c)| c.borrow().v[i]).collect();
    // Row `j` matches `own` at `j` itself, so "below `own` everywhere else"
    // is "at or above it exactly once".
    clocks
        .iter()
        .all(|c| c.borrow().v.iter().zip(&own).filter(|(theirs, own)| theirs >= own).count() == 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> ProcessId {
        ProcessId(i)
    }

    #[test]
    fn zero_clocks_equal() {
        let a = VClock::zero(3);
        let b = VClock::zero(3);
        assert_eq!(a.compare(&b), Causality::Equal);
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn tick_orders() {
        let a = VClock::zero(2);
        let mut b = a.clone();
        b.tick(p(0));
        assert_eq!(a.compare(&b), Causality::Before);
        assert_eq!(b.compare(&a), Causality::After);
        assert!(a.happened_before(&b));
    }

    #[test]
    fn concurrent_events() {
        let mut a = VClock::zero(2);
        let mut b = VClock::zero(2);
        a.tick(p(0));
        b.tick(p(1));
        assert_eq!(a.compare(&b), Causality::Concurrent);
        assert!(a.concurrent(&b));
    }

    #[test]
    fn merge_is_componentwise_max() {
        let mut a = VClock::zero(3);
        let mut b = VClock::zero(3);
        a.tick(p(0));
        a.tick(p(0));
        b.tick(p(2));
        a.merge(&b);
        assert_eq!(a.get(p(0)), 2);
        assert_eq!(a.get(p(1)), 0);
        assert_eq!(a.get(p(2)), 1);
    }

    #[test]
    fn message_transfer_creates_order() {
        // P0 sends to P1: send event ticks P0; receive merges then ticks P1.
        let mut c0 = VClock::zero(2);
        let mut c1 = VClock::zero(2);
        c0.tick(p(0)); // send(M)
        let piggy = c0.clone();
        c1.merge(&piggy);
        c1.tick(p(1)); // receive(M)
        assert!(c0.happened_before(&c1));
    }

    #[test]
    fn pairwise_consistency() {
        let mut a = VClock::zero(2);
        let mut b = VClock::zero(2);
        a.tick(p(0));
        b.tick(p(1));
        assert!(pairwise_consistent(&[a.clone(), b.clone()]));
        // Now make b causally after a.
        b.merge(&a);
        b.tick(p(1));
        assert!(!pairwise_consistent(&[a, b]));
    }

    #[test]
    #[should_panic]
    fn arity_mismatch_panics() {
        let a = VClock::zero(2);
        let b = VClock::zero(3);
        let _ = a.compare(&b);
    }
}
