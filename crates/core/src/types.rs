//! Core protocol types: sequence numbers, process status and the tentative
//! process set (paper §3.3).

use std::cell::Cell;
use std::fmt;
use std::sync::Arc;

use ocpt_sim::ProcessId;

thread_local! {
    /// Per-thread count of [`TentSet`] storage deep-copies (copy-on-write
    /// faults). The message-send hot path must never bump this:
    /// piggybacking a tentSet is a refcount clone, and only genuine
    /// mutations of a *shared* set copy. Thread-local so a simulation
    /// thread (runs are single-threaded) observes exactly its own copies,
    /// however many grid workers run beside it.
    static TENT_SET_DEEP_COPIES: Cell<u64> = const { Cell::new(0) };
}

/// Checkpoint sequence number (the paper's `csn`). The initial checkpoint
/// of every process has sequence number 0.
pub type Csn = u64;

/// Status of a process (paper §3.3, `stat_i`).
///
/// * `Normal` — no outstanding tentative checkpoint.
/// * `Tentative` — a tentative checkpoint has been taken and not yet
///   finalized; all messages sent and received are being logged.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Status {
    /// No outstanding tentative checkpoint.
    Normal,
    /// Holding an unfinalized tentative checkpoint; logging messages.
    Tentative,
}

impl fmt::Display for Status {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Status::Normal => write!(f, "normal"),
            Status::Tentative => write!(f, "tentative"),
        }
    }
}

/// Wire tag of the dense-bitmap tentSet encoding.
pub const TENTSET_TAG_DENSE: u8 = 0;
/// Wire tag of the sparse id-list tentSet encoding.
pub const TENTSET_TAG_SPARSE: u8 = 1;
/// Wire tag of the interval-run tentSet encoding.
pub const TENTSET_TAG_RUNS: u8 = 2;

/// Byte width of one id (or run length) on the wire for a universe of `n`:
/// two bytes cover ids up to 65 535, larger systems use four.
fn id_width(n: u32) -> usize {
    if n <= 65_536 {
        2
    } else {
        4
    }
}

/// The tentative process set `tentSet_i`: which processes are known (to the
/// holder) to have taken a tentative checkpoint with the current sequence
/// number.
///
/// In memory the set is always a dense bitset (`Arc<[u64]>` words) so that
/// membership, union and the control-layer scans stay O(1)/O(words). On the
/// **wire** the encoding is adaptive — experiment E6/`exp_scale` measure
/// exactly this cost. [`TentSet::to_bytes`] picks the smallest of three
/// self-describing representations (1-byte tag first):
///
/// * `0` dense bitmap — `⌈N/8⌉` bytes, the fallback;
/// * `1` sparse id-list — `u32` count + sorted ids, wins early in a round
///   when few processes are tentative;
/// * `2` interval runs — `u32` count + `(start, len-1)` pairs, wins for the
///   contiguous waves a `CK_REQ` sweep produces.
///
/// Storage is a shared `Arc<[u64]>` with copy-on-write mutation: cloning a
/// `TentSet` (which the protocol does on **every** application send, to
/// build the piggyback) is a refcount bump, and the underlying words are
/// copied only when a shared set is actually mutated — i.e. when a
/// tentative checkpoint is taken or a merge learns new members.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct TentSet {
    n: u32,
    bits: Arc<[u64]>,
}

impl TentSet {
    /// The empty set over `n` processes. Panics when `n` is 0 or exceeds
    /// `u32::MAX`; use [`TentSet::try_new`] for a checked build.
    pub fn empty(n: usize) -> Self {
        Self::try_new(n).expect("bad process count")
    }

    /// Checked constructor: the empty set over `n` processes, or `None`
    /// when `n` is 0 or exceeds the `u32` id space.
    pub fn try_new(n: usize) -> Option<Self> {
        if n < 1 || n > u32::MAX as usize {
            return None;
        }
        Some(TentSet { n: n as u32, bits: vec![0u64; n.div_ceil(64)].into() })
    }

    /// Unique access to the word storage, copying it first if shared.
    fn bits_mut(&mut self) -> &mut [u64] {
        if Arc::get_mut(&mut self.bits).is_none() {
            TENT_SET_DEEP_COPIES.with(|c| c.set(c.get() + 1));
            self.bits = Arc::from(&*self.bits);
        }
        Arc::get_mut(&mut self.bits).expect("unique after copy-on-write")
    }

    /// True when both sets share the same physical storage (refcount
    /// siblings). Diagnostic for the zero-copy piggyback invariant.
    pub fn shares_storage(a: &TentSet, b: &TentSet) -> bool {
        Arc::ptr_eq(&a.bits, &b.bits)
    }

    /// Copy-on-write deep copies performed on the calling thread so far
    /// (all sets). Compare before/after a code region to assert it never
    /// copies tentSet storage.
    pub fn deep_copies() -> u64 {
        TENT_SET_DEEP_COPIES.with(Cell::get)
    }

    /// The singleton `{pid}` over `n` processes.
    pub fn singleton(n: usize, pid: ProcessId) -> Self {
        let mut s = Self::empty(n);
        s.insert(pid);
        s
    }

    /// Number of processes in the system (the universe size, not the
    /// cardinality).
    pub fn universe(&self) -> usize {
        self.n as usize
    }

    /// Insert a process.
    pub fn insert(&mut self, pid: ProcessId) {
        assert!(pid.0 < self.n, "pid out of range");
        if self.contains(pid) {
            return; // Already present: no mutation, no copy-on-write fault.
        }
        self.bits_mut()[pid.index() / 64] |= 1u64 << (pid.index() % 64);
    }

    /// Membership test.
    pub fn contains(&self, pid: ProcessId) -> bool {
        pid.0 < self.n && self.bits[pid.index() / 64] & (1u64 << (pid.index() % 64)) != 0
    }

    /// In-place union (`tentSet_i = tentSet_i ∪ M.tentSet`).
    pub fn merge(&mut self, other: &TentSet) {
        assert_eq!(self.n, other.n, "tentSet universe mismatch");
        if Arc::ptr_eq(&self.bits, &other.bits) {
            return; // Same storage: union is the identity.
        }
        // Copy-on-write only when the union actually adds members — once a
        // round's knowledge saturates, merges stop allocating entirely.
        let adds = self.bits.iter().zip(other.bits.iter()).any(|(a, b)| a & b != *b);
        if !adds {
            return;
        }
        for (a, b) in self.bits_mut().iter_mut().zip(other.bits.iter()) {
            *a |= *b;
        }
    }

    /// Cardinality.
    pub fn len(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True if no process is in the set.
    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|&w| w == 0)
    }

    /// The paper's `tentSet_i == allPSet` test: every process has taken a
    /// tentative checkpoint with this sequence number.
    pub fn is_full(&self) -> bool {
        self.len() == self.n as usize
    }

    /// Iterate members in ascending id order (word-at-a-time bit scan).
    pub fn iter(&self) -> TentSetIter<'_> {
        TentSetIter { bits: &self.bits, word: 0, cur: self.bits.first().copied().unwrap_or(0) }
    }

    /// The smallest member with id in `[lo, hi)`, if any. Used by the
    /// CK_BGN suppression rule (§3.5.1 case 1) inside a control group.
    pub fn min_in(&self, lo: u32, hi: u32) -> Option<ProcessId> {
        let hi = hi.min(self.n);
        if lo >= hi {
            return None;
        }
        let mut wi = (lo / 64) as usize;
        let mut mask = !0u64 << (lo % 64);
        while (wi as u64) * 64 < hi as u64 {
            let present = self.bits[wi] & mask;
            if present != 0 {
                let bit = wi as u32 * 64 + present.trailing_zeros();
                return (bit < hi).then_some(ProcessId(bit));
            }
            mask = !0u64;
            wi += 1;
        }
        None
    }

    /// The first process with id in `[lo, hi)` that is **not** in the set,
    /// if any. Word-level scan — the CK_REQ forwarding rule (§3.5.1 case 2)
    /// uses this to route the token within one group without touching the
    /// other words.
    pub fn first_absent_in(&self, lo: u32, hi: u32) -> Option<ProcessId> {
        let hi = hi.min(self.n);
        if lo >= hi {
            return None;
        }
        let mut wi = (lo / 64) as usize;
        let mut mask = !0u64 << (lo % 64);
        while (wi as u64) * 64 < hi as u64 {
            let absent = !self.bits[wi] & mask;
            if absent != 0 {
                let bit = wi as u32 * 64 + absent.trailing_zeros();
                return (bit < hi).then_some(ProcessId(bit));
            }
            mask = !0u64;
            wi += 1;
        }
        None
    }

    /// Number of maximal runs of consecutive members.
    fn run_count(&self) -> usize {
        let mut runs = 0usize;
        let mut carry = 0u64; // top bit of the previous word
        for &w in self.bits.iter() {
            // A run starts at every set bit whose predecessor bit is clear.
            runs += (w & !((w << 1) | carry)).count_ones() as usize;
            carry = w >> 63;
        }
        runs
    }

    /// Encoded size on the wire: the smallest of the three representations
    /// (tag byte included). This is the *actual* per-message piggyback
    /// cost that E6 and `exp_scale` report.
    pub fn wire_bytes(&self) -> usize {
        let w = id_width(self.n);
        let dense = Self::dense_wire_bytes(self.n as usize);
        let sparse = 1 + 4 + self.len() * w;
        let runs = 1 + 4 + self.run_count() * 2 * w;
        dense.min(sparse).min(runs)
    }

    /// Size of the dense-bitmap representation (tag included): the static
    /// `1 + ⌈N/8⌉` formula — the upper bound every adaptive encoding is
    /// measured against.
    pub fn dense_wire_bytes(n: usize) -> usize {
        1 + n.div_ceil(8)
    }

    /// Serialize into the smallest representation; ties pick the lowest
    /// tag, so the choice is deterministic.
    pub fn to_bytes(&self) -> Vec<u8> {
        let w = id_width(self.n);
        let dense = Self::dense_wire_bytes(self.n as usize);
        let sparse = 1 + 4 + self.len() * w;
        let runs = 1 + 4 + self.run_count() * 2 * w;
        if dense <= sparse && dense <= runs {
            self.encode_dense()
        } else if sparse <= runs {
            self.encode_sparse()
        } else {
            self.encode_runs()
        }
    }

    /// Force the dense-bitmap representation (differential tests, benches).
    pub fn encode_dense(&self) -> Vec<u8> {
        let body = (self.n as usize).div_ceil(8);
        let mut out = vec![0u8; 1 + body];
        out[0] = TENTSET_TAG_DENSE;
        for (i, byte) in out[1..].iter_mut().enumerate() {
            let word = self.bits[i / 8];
            *byte = ((word >> ((i % 8) * 8)) & 0xFF) as u8;
        }
        out
    }

    /// Force the sparse id-list representation (differential tests,
    /// benches).
    pub fn encode_sparse(&self) -> Vec<u8> {
        let w = id_width(self.n);
        let mut out = Vec::with_capacity(1 + 4 + self.len() * w);
        out.push(TENTSET_TAG_SPARSE);
        out.extend_from_slice(&(self.len() as u32).to_le_bytes());
        for p in self.iter() {
            out.extend_from_slice(&p.0.to_le_bytes()[..w]);
        }
        out
    }

    /// Force the interval-run representation (differential tests, benches).
    /// Each run is `(start, len - 1)` so a 65 536-wide run still fits the
    /// two-byte field.
    pub fn encode_runs(&self) -> Vec<u8> {
        let w = id_width(self.n);
        let mut out = Vec::with_capacity(1 + 4 + self.run_count() * 2 * w);
        out.push(TENTSET_TAG_RUNS);
        out.extend_from_slice(&(self.run_count() as u32).to_le_bytes());
        let mut run: Option<(u32, u32)> = None; // (start, end) inclusive
        for p in self.iter() {
            match run {
                Some((start, end)) if p.0 == end + 1 => {
                    run = Some((start, p.0));
                }
                Some((start, end)) => {
                    out.extend_from_slice(&start.to_le_bytes()[..w]);
                    out.extend_from_slice(&(end - start).to_le_bytes()[..w]);
                    run = Some((p.0, p.0));
                }
                None => run = Some((p.0, p.0)),
            }
        }
        if let Some((start, end)) = run {
            out.extend_from_slice(&start.to_le_bytes()[..w]);
            out.extend_from_slice(&(end - start).to_le_bytes()[..w]);
        }
        out
    }

    /// Deserialize from `to_bytes` output. The whole buffer must be
    /// consumed exactly.
    pub fn from_bytes(n: usize, data: &[u8]) -> Option<Self> {
        match Self::from_wire(n, data) {
            Some((s, used)) if used == data.len() => Some(s),
            _ => None,
        }
    }

    /// Decode one self-describing tentSet from the front of `buf`,
    /// returning the set and the number of bytes consumed. Rejects unknown
    /// tags, truncation, out-of-range ids, non-canonical orderings and
    /// stray bits beyond the universe.
    pub fn from_wire(n: usize, buf: &[u8]) -> Option<(Self, usize)> {
        if n < 1 || n > u32::MAX as usize {
            return None;
        }
        let nu = n as u32;
        let w = id_width(nu);
        let tag = *buf.first()?;
        let mut bits = vec![0u64; n.div_ceil(64)];
        match tag {
            TENTSET_TAG_DENSE => {
                let body_len = n.div_ceil(8);
                let body = buf.get(1..1 + body_len)?;
                for (i, &byte) in body.iter().enumerate() {
                    bits[i / 8] |= (byte as u64) << ((i % 8) * 8);
                }
                // Reject set bits beyond the universe.
                if n % 64 != 0 {
                    let last = bits.len() - 1;
                    if bits[last] & !(!0u64 >> (64 - n % 64)) != 0 {
                        return None;
                    }
                }
                Some((TentSet { n: nu, bits: bits.into() }, 1 + body_len))
            }
            TENTSET_TAG_SPARSE => {
                let count = u32::from_le_bytes(buf.get(1..5)?.try_into().ok()?) as usize;
                if count > n {
                    return None;
                }
                let body = buf.get(5..5 + count * w)?;
                let mut prev: Option<u32> = None;
                for chunk in body.chunks_exact(w) {
                    let id = read_le_id(chunk);
                    if id >= nu || prev.is_some_and(|p| id <= p) {
                        return None; // out of range / not strictly ascending
                    }
                    prev = Some(id);
                    bits[id as usize / 64] |= 1u64 << (id % 64);
                }
                Some((TentSet { n: nu, bits: bits.into() }, 5 + count * w))
            }
            TENTSET_TAG_RUNS => {
                let count = u32::from_le_bytes(buf.get(1..5)?.try_into().ok()?) as usize;
                if count > n.div_ceil(2) {
                    return None; // more runs than any canonical set can have
                }
                let body = buf.get(5..5 + count * 2 * w)?;
                let mut next_free: u64 = 0; // smallest id the next run may start at
                for chunk in body.chunks_exact(2 * w) {
                    let start = read_le_id(&chunk[..w]) as u64;
                    let end = start + read_le_id(&chunk[w..]) as u64; // len - 1 on the wire
                                                                      // Runs must be sorted, non-overlapping and non-adjacent
                                                                      // (adjacent runs are one run in canonical form).
                    if start < next_free || end >= nu as u64 {
                        return None;
                    }
                    next_free = end + 2;
                    set_bit_range(&mut bits, start as u32, end as u32);
                }
                Some((TentSet { n: nu, bits: bits.into() }, 5 + count * 2 * w))
            }
            _ => None,
        }
    }
}

/// Read one little-endian id of 2 or 4 bytes.
fn read_le_id(chunk: &[u8]) -> u32 {
    let mut raw = [0u8; 4];
    raw[..chunk.len()].copy_from_slice(chunk);
    u32::from_le_bytes(raw)
}

/// Set bits `lo..=hi` in a word array.
fn set_bit_range(bits: &mut [u64], lo: u32, hi: u32) {
    let (lw, hw) = (lo as usize / 64, hi as usize / 64);
    let lo_mask = !0u64 << (lo % 64);
    let hi_mask = !0u64 >> (63 - hi % 64);
    if lw == hw {
        bits[lw] |= lo_mask & hi_mask;
    } else {
        bits[lw] |= lo_mask;
        for word in &mut bits[lw + 1..hw] {
            *word = !0u64;
        }
        bits[hw] |= hi_mask;
    }
}

/// Word-at-a-time member iterator over a [`TentSet`].
pub struct TentSetIter<'a> {
    bits: &'a [u64],
    word: usize,
    cur: u64,
}

impl Iterator for TentSetIter<'_> {
    type Item = ProcessId;

    fn next(&mut self) -> Option<ProcessId> {
        while self.cur == 0 {
            self.word += 1;
            if self.word >= self.bits.len() {
                return None;
            }
            self.cur = self.bits[self.word];
        }
        let bit = self.cur.trailing_zeros();
        self.cur &= self.cur - 1;
        Some(ProcessId(self.word as u32 * 64 + bit))
    }
}

impl fmt::Debug for TentSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (k, p) in self.iter().enumerate() {
            if k > 0 {
                write!(f, ",")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> ProcessId {
        ProcessId(i)
    }

    #[test]
    fn empty_and_singleton() {
        let e = TentSet::empty(5);
        assert!(e.is_empty());
        assert_eq!(e.len(), 0);
        let s = TentSet::singleton(5, p(3));
        assert!(s.contains(p(3)));
        assert!(!s.contains(p(2)));
        assert_eq!(s.len(), 1);
        assert!(!s.is_full());
    }

    #[test]
    fn checked_constructor_bounds() {
        assert!(TentSet::try_new(0).is_none());
        assert!(TentSet::try_new(1).is_some());
        assert!(TentSet::try_new(70_000).is_some());
    }

    #[test]
    fn capacity_beyond_u16() {
        // Regression: the universe used to be a u16, silently truncating
        // at 65 536 processes. N = 70 000 must work end to end.
        let n = 70_000;
        let mut s = TentSet::empty(n);
        assert_eq!(s.universe(), n);
        for i in [0u32, 65_535, 65_536, 69_999] {
            s.insert(p(i));
        }
        assert_eq!(s.len(), 4);
        assert!(s.contains(p(69_999)));
        assert_eq!(s.min_in(1, 70_000), Some(p(65_535)));
        assert_eq!(s.first_absent_in(65_535, 70_000), Some(p(65_537)));
        let d = TentSet::from_bytes(n, &s.to_bytes()).expect("wide universe round-trip");
        assert_eq!(d, s);
    }

    #[test]
    fn merge_is_union() {
        let mut a = TentSet::singleton(4, p(0));
        let b = TentSet::singleton(4, p(2));
        a.merge(&b);
        assert!(a.contains(p(0)) && a.contains(p(2)));
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn full_detection() {
        let mut s = TentSet::empty(3);
        for i in 0..3 {
            assert!(!s.is_full());
            s.insert(p(i));
        }
        assert!(s.is_full());
    }

    #[test]
    fn min_and_first_absent() {
        let mut s = TentSet::empty(6);
        s.insert(p(1));
        s.insert(p(2));
        s.insert(p(4));
        assert_eq!(s.min_in(0, 6), Some(p(1)));
        assert_eq!(s.first_absent_in(2, 6), Some(p(3)));
        assert_eq!(s.first_absent_in(4, 6), Some(p(5)));
        assert_eq!(s.first_absent_in(6, 6), None);
        // All above present → None.
        s.insert(p(3));
        s.insert(p(5));
        assert_eq!(s.first_absent_in(1, 6), None);
    }

    #[test]
    fn ranged_scans() {
        let mut s = TentSet::empty(200);
        s.insert(p(64));
        s.insert(p(65));
        s.insert(p(130));
        assert_eq!(s.min_in(0, 200), Some(p(64)));
        assert_eq!(s.min_in(65, 200), Some(p(65)));
        assert_eq!(s.min_in(66, 130), None);
        assert_eq!(s.min_in(66, 131), Some(p(130)));
        assert_eq!(s.first_absent_in(64, 200), Some(p(66)));
        assert_eq!(s.first_absent_in(64, 66), None);
        assert_eq!(s.first_absent_in(199, 200), Some(p(199)));
        assert_eq!(s.first_absent_in(200, 300), None);
    }

    #[test]
    fn adaptive_picks_smallest_repr() {
        // Nearly empty big universe → sparse.
        let s = TentSet::singleton(100_000, p(12_345));
        assert_eq!(s.to_bytes()[0], TENTSET_TAG_SPARSE);
        assert_eq!(s.wire_bytes(), 1 + 4 + 4); // one 4-byte id
                                               // A contiguous wave → runs.
        let mut wave = TentSet::empty(100_000);
        for i in 0..5_000 {
            wave.insert(p(i));
        }
        assert_eq!(wave.to_bytes()[0], TENTSET_TAG_RUNS);
        assert_eq!(wave.wire_bytes(), 1 + 4 + 8); // one (start, len-1) run
                                                  // A scattered half-full small universe → dense.
        let mut alt = TentSet::empty(64);
        for i in (0..64).step_by(2) {
            alt.insert(p(i));
        }
        assert_eq!(alt.to_bytes()[0], TENTSET_TAG_DENSE);
        assert_eq!(alt.wire_bytes(), 1 + 8);
        // Every pick matches the advertised size and round-trips.
        for s in [&s, &wave, &alt] {
            let bytes = s.to_bytes();
            assert_eq!(bytes.len(), s.wire_bytes());
            assert_eq!(TentSet::from_bytes(s.universe(), &bytes).expect("round-trip"), *s);
        }
    }

    #[test]
    fn sparse_era_beats_dense_formula() {
        // The acceptance bar: at N = 1e5 a sparse-era piggyback must be at
        // least 8× smaller than the static ⌈N/8⌉ bitmap.
        let n = 100_000;
        let mut s = TentSet::empty(n);
        for i in 0..100 {
            s.insert(p(i * 997)); // scattered: runs don't help
        }
        assert!(s.wire_bytes() * 8 <= TentSet::dense_wire_bytes(n));
    }

    #[test]
    fn wire_size_adapts_with_occupancy() {
        // Empty sets cost the sparse header regardless of N…
        assert_eq!(TentSet::empty(100_000).wire_bytes(), 1 + 4);
        // …tiny universes stay on the dense bitmap…
        assert_eq!(TentSet::empty(4).wire_bytes(), 1 + 1);
        assert_eq!(TentSet::empty(8).wire_bytes(), 1 + 1);
        // …and a full universe collapses to a single run.
        let mut full = TentSet::empty(1000);
        for i in 0..1000 {
            full.insert(p(i));
        }
        assert_eq!(full.wire_bytes(), 1 + 4 + 4);
        // The static formula still reports the dense cost.
        assert_eq!(TentSet::dense_wire_bytes(1000), 1 + 125);
    }

    #[test]
    fn byte_round_trip() {
        let mut s = TentSet::empty(77);
        for i in [0u32, 5, 63, 64, 76] {
            s.insert(p(i));
        }
        let bytes = s.to_bytes();
        assert_eq!(bytes.len(), s.wire_bytes());
        let d = TentSet::from_bytes(77, &bytes).expect("tentSet round-trip must decode");
        assert_eq!(d, s);
    }

    #[test]
    fn every_forced_repr_round_trips() {
        let mut s = TentSet::empty(300);
        for i in [0u32, 1, 2, 3, 70, 128, 129, 299] {
            s.insert(p(i));
        }
        for enc in [s.encode_dense(), s.encode_sparse(), s.encode_runs()] {
            let d = TentSet::from_bytes(300, &enc).expect("forced repr must decode");
            assert_eq!(d, s);
        }
    }

    #[test]
    fn from_bytes_rejects_bad_input() {
        // Unknown tag.
        assert!(TentSet::from_bytes(9, &[9, 0, 0]).is_none());
        // Dense: wrong length and out-of-range bit.
        assert!(TentSet::from_bytes(9, &[TENTSET_TAG_DENSE, 0xFF]).is_none());
        assert!(TentSet::from_bytes(7, &[TENTSET_TAG_DENSE, 0x80]).is_none());
        // Sparse: id out of range, unsorted, duplicate, count beyond n.
        assert!(TentSet::from_bytes(4, &[TENTSET_TAG_SPARSE, 1, 0, 0, 0, 9, 0]).is_none());
        assert!(TentSet::from_bytes(9, &[TENTSET_TAG_SPARSE, 2, 0, 0, 0, 3, 0, 1, 0]).is_none());
        assert!(TentSet::from_bytes(9, &[TENTSET_TAG_SPARSE, 2, 0, 0, 0, 3, 0, 3, 0]).is_none());
        assert!(TentSet::from_bytes(2, &[TENTSET_TAG_SPARSE, 9, 0, 0, 0]).is_none());
        // Runs: overlap, adjacency (non-canonical), end past the universe.
        let overlap = [TENTSET_TAG_RUNS, 2, 0, 0, 0, 0, 0, 3, 0, 2, 0, 1, 0];
        assert!(TentSet::from_bytes(64, &overlap).is_none());
        let adjacent = [TENTSET_TAG_RUNS, 2, 0, 0, 0, 0, 0, 1, 0, 2, 0, 1, 0];
        assert!(TentSet::from_bytes(64, &adjacent).is_none());
        let past_end = [TENTSET_TAG_RUNS, 1, 0, 0, 0, 6, 0, 1, 0];
        assert!(TentSet::from_bytes(7, &past_end).is_none());
        // Trailing garbage after a valid body is rejected by from_bytes.
        let mut enc = TentSet::singleton(64, p(1)).to_bytes();
        enc.push(0);
        assert!(TentSet::from_bytes(64, &enc).is_none());
    }

    #[test]
    fn from_wire_reports_consumed_length() {
        let mut s = TentSet::empty(1000);
        for i in 500..600 {
            s.insert(p(i));
        }
        let mut enc = s.to_bytes();
        let want = enc.len();
        enc.extend_from_slice(&[0xAB; 7]); // unrelated trailing bytes
        let (d, used) = TentSet::from_wire(1000, &enc).expect("prefix decode");
        assert_eq!(used, want);
        assert_eq!(d, s);
    }

    #[test]
    fn iter_ascending() {
        let mut s = TentSet::empty(100);
        s.insert(p(70));
        s.insert(p(3));
        s.insert(p(64));
        let v: Vec<u32> = s.iter().map(|q| q.0).collect();
        assert_eq!(v, vec![3, 64, 70]);
    }

    #[test]
    fn large_universe() {
        let mut s = TentSet::empty(1000);
        for i in 0..1000 {
            s.insert(p(i));
        }
        assert!(s.is_full());
        let d = TentSet::from_bytes(1000, &s.to_bytes()).expect("full set round-trip");
        assert!(d.is_full());
    }

    #[test]
    #[should_panic]
    fn universe_mismatch_panics() {
        let mut a = TentSet::empty(3);
        let b = TentSet::empty(4);
        a.merge(&b);
    }

    #[test]
    fn clone_shares_storage_until_mutated() {
        let a = TentSet::singleton(64, p(7));
        let b = a.clone();
        assert!(TentSet::shares_storage(&a, &b), "clone must be a refcount bump");
        let before = TentSet::deep_copies();
        let mut c = a.clone();
        c.insert(p(8)); // First mutation of a shared set: one copy.
        assert_eq!(TentSet::deep_copies(), before + 1);
        assert!(!TentSet::shares_storage(&a, &c));
        assert!(a.contains(p(7)) && !a.contains(p(8)), "original untouched");
        assert!(c.contains(p(7)) && c.contains(p(8)));
        // b was never mutated: still sharing.
        assert!(TentSet::shares_storage(&a, &b));
    }

    #[test]
    fn redundant_mutations_never_copy() {
        let a = TentSet::singleton(64, p(3));
        let mut b = a.clone();
        let before = TentSet::deep_copies();
        b.insert(p(3)); // Already present.
        b.merge(&a); // Same storage.
        let sub = TentSet::singleton(64, p(3));
        b.merge(&sub); // Different storage, but adds nothing.
        assert_eq!(TentSet::deep_copies(), before, "no-op mutations must not copy");
        assert!(TentSet::shares_storage(&a, &b));
    }

    #[test]
    fn encoding_never_deep_copies() {
        let a = TentSet::singleton(512, p(100));
        let b = a.clone();
        let before = TentSet::deep_copies();
        let _ = a.wire_bytes();
        let _ = a.to_bytes();
        let _ = a.encode_sparse();
        let _ = a.encode_runs();
        assert_eq!(TentSet::deep_copies(), before, "encoding is read-only");
        assert!(TentSet::shares_storage(&a, &b));
    }

    #[test]
    fn equality_and_hash_are_by_content() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let a = TentSet::singleton(40, p(5));
        let mut b = TentSet::empty(40);
        b.insert(p(5));
        assert!(!TentSet::shares_storage(&a, &b));
        assert_eq!(a, b);
        let hash = |s: &TentSet| {
            let mut h = DefaultHasher::new();
            s.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&a), hash(&b));
    }
}
