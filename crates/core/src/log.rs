//! The message log `logSet_{i,k}` (paper §3.1, §3.3).
//!
//! After taking a tentative checkpoint `CT_{i,k}`, a process logs **every
//! application message it sends or receives** until the checkpoint is
//! finalized. The checkpoint is the pair `C_{i,k} = CT_{i,k} ∪
//! logSet_{i,k}`: on recovery the state is restored from `CT_{i,k}` and the
//! logged *received* messages are replayed (piecewise determinism, Johnson
//! & Zwaenepoel \[4\]); the logged *sent* messages allow regenerating
//! in-transit messages that the rolled-back receiver never processed.
//!
//! "Selective" is the point: only the window between `CT` and finalization
//! is logged, not the whole execution — experiment E5 quantifies the
//! difference against an always-log ablation. Since the strategy matrix
//! landed (see [`crate::strategy`]) the same container also serves the
//! other logging disciplines, which need three extensions the selective
//! policy never uses:
//!
//! * an [`EntryKind`] per entry — full [`EntryKind::Payload`] vs. a
//!   metadata-only [`EntryKind::Determinant`];
//! * a *replay-window* mark: continuous strategies keep one log across
//!   the Normal era and the tentative window, and
//!   [`MessageLog::mark_replay_start`] records where `CT` fell inside it;
//! * an optional frozen vector clock — the causal-compressed strategy
//!   stamps each finalized log with the clock at `CFE_{i,k}`.
//!
//! The durable encoding is bivalent: a log that uses none of the
//! extensions (every selective log) encodes in the original format,
//! byte-identical to the pre-strategy code; any extension flips the count
//! header's top bit and switches to the extended layout. The decoder
//! accepts both and rejects a non-canonical choice.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use ocpt_causality::VClock;
use ocpt_sim::{MsgId, ProcessId};

use crate::wire::AppPayload;

/// Whether a logged message was sent or received by the log's owner.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Direction {
    /// The owner sent it.
    Sent,
    /// The owner received (and processed) it.
    Received,
}

/// What one log entry holds: the full payload or only its metadata.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EntryKind {
    /// Metadata plus the payload bytes — replayable from this log alone.
    Payload,
    /// Metadata only (peer, message id, payload identity and size); the
    /// payload bytes are durable elsewhere (or nowhere — the orphan case
    /// E10 counts).
    Determinant,
}

/// One logged message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LogEntry {
    /// Sent or received.
    pub dir: Direction,
    /// Full payload or determinant.
    pub kind: EntryKind,
    /// The other endpoint.
    pub peer: ProcessId,
    /// Network-assigned message identity.
    pub msg_id: MsgId,
    /// The payload (identity + declared size). A determinant keeps the
    /// identity and size for accounting and in-sim replay, but its
    /// [`LogEntry::flush_bytes`] exclude the payload bytes.
    pub payload: AppPayload,
}

/// Encoded size of one entry's metadata (dir/kind + peer + msg_id +
/// payload id/len).
pub const ENTRY_META_BYTES: u64 = 1 + 4 + 8 + 8 + 4;

impl LogEntry {
    /// A full-payload entry (the selective policy's only kind).
    pub fn payload(dir: Direction, peer: ProcessId, msg_id: MsgId, payload: AppPayload) -> Self {
        LogEntry { dir, kind: EntryKind::Payload, peer, msg_id, payload }
    }

    /// A metadata-only determinant entry.
    pub fn determinant(
        dir: Direction,
        peer: ProcessId,
        msg_id: MsgId,
        payload: AppPayload,
    ) -> Self {
        LogEntry { dir, kind: EntryKind::Determinant, peer, msg_id, payload }
    }

    /// Bytes this entry contributes to a durable flush: metadata, plus the
    /// payload itself for [`EntryKind::Payload`] entries (received
    /// messages must be replayable bit-for-bit from a payload log).
    pub fn flush_bytes(&self) -> u64 {
        match self.kind {
            EntryKind::Payload => ENTRY_META_BYTES + self.payload.len as u64,
            EntryKind::Determinant => ENTRY_META_BYTES,
        }
    }
}

/// The in-memory message log of one unfinalized tentative checkpoint (and,
/// for continuous strategies, the Normal-era traffic before it).
// [OCPT §3.3] logSet_i — the selective-log half of C_{i,k} = CT_{i,k} ∪
// logSet_{i,k}; populated only between taking CT and finalizing it under
// the paper's policy, continuously under sender-/receiver-based logging.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MessageLog {
    entries: Vec<LogEntry>,
    /// Index of the first entry inside the replay window (at/after `CT`).
    /// Always 0 for tentative-window strategies.
    replay_from: usize,
    /// The vector clock frozen at `CFE_{i,k}` (causal-compressed only).
    clock: Option<VClock>,
}

/// Top bit of the count header: set when the extended durable layout
/// (entry kinds / replay window / frozen clock) is in use.
const EXT_COUNT_FLAG: u32 = 0x8000_0000;
/// Extended-layout flag byte: a frozen clock follows the header.
const EXT_HAS_CLOCK: u8 = 0b1;

impl MessageLog {
    /// An empty log (`logSet_i = ∅`, reset at every tentative checkpoint).
    pub fn new() -> Self {
        MessageLog::default()
    }

    /// Append an entry.
    pub fn push(&mut self, e: LogEntry) {
        self.entries.push(e);
    }

    /// Number of logged messages.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing has been logged.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// All entries in log order.
    pub fn entries(&self) -> &[LogEntry] {
        &self.entries
    }

    /// Mark the replay-window start at the current end of the log:
    /// everything already logged happened before `CT` (its effects are in
    /// the tentative snapshot) and must not be replayed on top of it.
    pub fn mark_replay_start(&mut self) {
        self.replay_from = self.entries.len();
    }

    /// Index of the first replay-window entry.
    pub fn replay_from(&self) -> usize {
        self.replay_from
    }

    /// The entries inside the replay window (at/after `CT`), in log order.
    pub fn replay_entries(&self) -> &[LogEntry] {
        &self.entries[self.replay_from..]
    }

    /// Freeze the vector clock at finalization (causal-compressed only).
    pub fn set_clock(&mut self, clock: VClock) {
        self.clock = Some(clock);
    }

    /// The frozen finalization-time clock, if this log carries one.
    pub fn clock(&self) -> Option<&VClock> {
        self.clock.as_ref()
    }

    /// Remove the entry for `msg_id` if present (the paper's
    /// `logSet_i - {M}` when the finalization trigger must be excluded).
    /// Returns true if an entry was removed.
    pub fn exclude(&mut self, msg_id: MsgId) -> bool {
        self.take(msg_id).is_some()
    }

    /// Remove and return the entry for `msg_id` if present — `exclude`
    /// when the caller re-logs the trigger into the next epoch's log
    /// (continuous strategies).
    pub fn take(&mut self, msg_id: MsgId) -> Option<LogEntry> {
        let pos = self.entries.iter().rposition(|e| e.msg_id == msg_id)?;
        if pos < self.replay_from {
            self.replay_from -= 1;
        }
        Some(self.entries.remove(pos))
    }

    /// Total bytes a durable flush of this log occupies.
    pub fn flush_bytes(&self) -> u64 {
        self.entries.iter().map(LogEntry::flush_bytes).sum()
    }

    /// The received entries, in arrival order.
    pub fn received(&self) -> impl Iterator<Item = &LogEntry> {
        self.entries.iter().filter(|e| e.dir == Direction::Received)
    }

    /// The sent entries, in send order — candidates for re-send during
    /// recovery of in-transit messages.
    pub fn sent(&self) -> impl Iterator<Item = &LogEntry> {
        self.entries.iter().filter(|e| e.dir == Direction::Sent)
    }

    /// True iff this log uses none of the extended-layout features and so
    /// encodes in the original (pre-strategy) durable format.
    fn legacy_layout(&self) -> bool {
        self.replay_from == 0
            && self.clock.is_none()
            && self.entries.iter().all(|e| e.kind == EntryKind::Payload)
    }

    /// Exact byte length of [`MessageLog::encode`]'s output — what the
    /// finalize-write storage accounting charges for the log.
    pub fn encoded_len(&self) -> u64 {
        if self.legacy_layout() {
            4 + self.flush_bytes()
        } else {
            let clock_bytes = match &self.clock {
                Some(c) => 4 + 8 * c.len() as u64,
                None => 0,
            };
            4 + 1 + 4 + clock_bytes + self.flush_bytes()
        }
    }

    /// Encode for durable storage. Payload filler bytes are materialised so
    /// the encoding length equals [`MessageLog::encoded_len`] (which is the
    /// original `4 + flush_bytes` for legacy-layout logs).
    pub fn encode(&self) -> Bytes {
        let mut b = BytesMut::with_capacity(self.encoded_len() as usize);
        debug_assert!((self.entries.len() as u64) < EXT_COUNT_FLAG as u64, "log count overflow");
        if self.legacy_layout() {
            b.put_u32(self.entries.len() as u32);
        } else {
            b.put_u32(self.entries.len() as u32 | EXT_COUNT_FLAG);
            b.put_u8(match &self.clock {
                Some(_) => EXT_HAS_CLOCK,
                None => 0,
            });
            b.put_u32(self.replay_from as u32);
            if let Some(c) = &self.clock {
                b.put_u32(c.len() as u32);
                for &v in c.components() {
                    b.put_u64(v);
                }
            }
        }
        for e in &self.entries {
            // One byte carries direction and kind: bit 0 = direction,
            // bit 1 = determinant. Legacy logs only emit 0/1, matching the
            // original dir-only byte exactly.
            let dir_bit = match e.dir {
                Direction::Sent => 0u8,
                Direction::Received => 1u8,
            };
            let kind_bit = match e.kind {
                EntryKind::Payload => 0u8,
                EntryKind::Determinant => 2u8,
            };
            b.put_u8(dir_bit | kind_bit);
            b.put_u32(e.peer.0);
            b.put_u64(e.msg_id.0);
            b.put_u64(e.payload.id);
            b.put_u32(e.payload.len);
            if e.kind == EntryKind::Payload {
                b.extend(std::iter::repeat_n(0u8, e.payload.len as usize));
            }
        }
        b.freeze()
    }

    /// Decode a log previously produced by [`MessageLog::encode`]. Both
    /// layouts are accepted; an extended-flagged buffer that a canonical
    /// encoder would have written as legacy is rejected, as is any
    /// truncation, unknown tag or trailing junk.
    pub fn decode(mut buf: Bytes) -> Option<MessageLog> {
        if buf.len() < 4 {
            return None;
        }
        let header = buf.get_u32();
        let extended = header & EXT_COUNT_FLAG != 0;
        let count = (header & !EXT_COUNT_FLAG) as usize;
        let mut log = MessageLog::new();
        if extended {
            if buf.len() < 5 {
                return None;
            }
            let flags = buf.get_u8();
            if flags & !EXT_HAS_CLOCK != 0 {
                return None;
            }
            let replay_from = buf.get_u32() as usize;
            if replay_from > count {
                return None;
            }
            log.replay_from = replay_from;
            if flags & EXT_HAS_CLOCK != 0 {
                if buf.len() < 4 {
                    return None;
                }
                let n = buf.get_u32() as usize;
                if buf.len() < 8 * n {
                    return None;
                }
                log.clock = Some(VClock::from_components((0..n).map(|_| buf.get_u64()).collect()));
            }
        }
        for _ in 0..count {
            if buf.len() < ENTRY_META_BYTES as usize {
                return None;
            }
            let tag = buf.get_u8();
            let (dir, kind) = match tag {
                0 => (Direction::Sent, EntryKind::Payload),
                1 => (Direction::Received, EntryKind::Payload),
                2 if extended => (Direction::Sent, EntryKind::Determinant),
                3 if extended => (Direction::Received, EntryKind::Determinant),
                _ => return None,
            };
            let peer = ProcessId(buf.get_u32());
            let msg_id = MsgId(buf.get_u64());
            let id = buf.get_u64();
            let len = buf.get_u32();
            if kind == EntryKind::Payload {
                if buf.len() < len as usize {
                    return None;
                }
                buf.advance(len as usize);
            }
            log.push(LogEntry { dir, kind, peer, msg_id, payload: AppPayload { id, len } });
        }
        if buf.has_remaining() {
            return None;
        }
        if extended && log.legacy_layout() {
            // A canonical encoder would have written this as legacy.
            return None;
        }
        Some(log)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(dir: Direction, peer: u32, msg: u64, len: u32) -> LogEntry {
        LogEntry::payload(dir, ProcessId(peer), MsgId(msg), AppPayload { id: msg * 10, len })
    }

    fn det(dir: Direction, peer: u32, msg: u64, len: u32) -> LogEntry {
        LogEntry::determinant(dir, ProcessId(peer), MsgId(msg), AppPayload { id: msg * 10, len })
    }

    #[test]
    fn push_len_entries() {
        let mut l = MessageLog::new();
        assert!(l.is_empty());
        l.push(entry(Direction::Sent, 1, 5, 64));
        l.push(entry(Direction::Received, 2, 6, 32));
        assert_eq!(l.len(), 2);
        assert_eq!(l.received().count(), 1);
        assert_eq!(l.sent().count(), 1);
    }

    #[test]
    fn exclude_removes_by_msg_id() {
        let mut l = MessageLog::new();
        l.push(entry(Direction::Received, 1, 5, 10));
        l.push(entry(Direction::Received, 2, 6, 10));
        assert!(l.exclude(MsgId(5)));
        assert_eq!(l.len(), 1);
        assert_eq!(l.entries()[0].msg_id, MsgId(6));
        assert!(!l.exclude(MsgId(5)));
    }

    #[test]
    fn exclude_removes_latest_duplicate() {
        // msg ids are unique in practice; if not, the most recent goes.
        let mut l = MessageLog::new();
        l.push(entry(Direction::Sent, 1, 5, 1));
        l.push(entry(Direction::Received, 2, 5, 2));
        assert!(l.exclude(MsgId(5)));
        assert_eq!(l.entries()[0].dir, Direction::Sent);
    }

    #[test]
    fn exclude_before_window_shifts_replay_start() {
        let mut l = MessageLog::new();
        l.push(entry(Direction::Received, 1, 5, 1));
        l.push(entry(Direction::Received, 2, 6, 1));
        l.mark_replay_start();
        l.push(entry(Direction::Received, 3, 7, 1));
        assert_eq!(l.replay_entries().len(), 1);
        // Removing a pre-window entry keeps the same window contents.
        assert!(l.exclude(MsgId(5)));
        assert_eq!(l.replay_from(), 1);
        let ids: Vec<u64> = l.replay_entries().iter().map(|e| e.msg_id.0).collect();
        assert_eq!(ids, vec![7]);
        // Removing an in-window entry leaves the start alone.
        assert!(l.exclude(MsgId(7)));
        assert_eq!(l.replay_from(), 1);
        assert!(l.replay_entries().is_empty());
    }

    #[test]
    fn take_returns_the_entry() {
        let mut l = MessageLog::new();
        l.push(det(Direction::Received, 2, 9, 4));
        let e = l.take(MsgId(9)).expect("entry was just pushed");
        assert_eq!(e.kind, EntryKind::Determinant);
        assert!(l.is_empty());
        assert_eq!(l.take(MsgId(9)), None);
    }

    #[test]
    fn flush_bytes_accounts_payloads() {
        let mut l = MessageLog::new();
        l.push(entry(Direction::Sent, 1, 5, 100));
        l.push(entry(Direction::Received, 2, 6, 50));
        assert_eq!(l.flush_bytes(), 2 * ENTRY_META_BYTES + 150);
    }

    #[test]
    fn determinants_flush_metadata_only() {
        let mut l = MessageLog::new();
        l.push(det(Direction::Received, 1, 5, 100));
        l.push(entry(Direction::Received, 2, 6, 50));
        assert_eq!(l.flush_bytes(), 2 * ENTRY_META_BYTES + 50);
    }

    #[test]
    fn encode_decode_round_trip() {
        let mut l = MessageLog::new();
        l.push(entry(Direction::Sent, 1, 5, 100));
        l.push(entry(Direction::Received, 2, 6, 0));
        l.push(entry(Direction::Received, 3, 7, 33));
        let enc = l.encode();
        assert_eq!(enc.len() as u64, 4 + l.flush_bytes());
        assert_eq!(enc.len() as u64, l.encoded_len());
        let dec = MessageLog::decode(enc).expect("log round-trip must decode");
        assert_eq!(dec, l);

        // Every direction × kind pair survives the codec, in both layouts.
        let mut all = MessageLog::new();
        for (i, dir) in [Direction::Sent, Direction::Received].into_iter().enumerate() {
            for (j, kind) in [EntryKind::Payload, EntryKind::Determinant].into_iter().enumerate() {
                // Exhaustive: a new variant fails to compile here until it
                // joins the lists above and so the round trip.
                match (dir, kind) {
                    (Direction::Sent | Direction::Received, EntryKind::Payload) => {}
                    (Direction::Sent | Direction::Received, EntryKind::Determinant) => {}
                }
                let (peer, msg) = (i as u32 + 1, 10 + 2 * i as u64 + j as u64);
                let e = match kind {
                    EntryKind::Payload => entry(dir, peer, msg, 7),
                    EntryKind::Determinant => det(dir, peer, msg, 7),
                };
                let mut one = MessageLog::new();
                one.push(e);
                all.push(e);
                assert_eq!(
                    MessageLog::decode(one.encode()).as_ref(),
                    Some(&one),
                    "{dir:?} {kind:?}"
                );
            }
        }
        assert_eq!(MessageLog::decode(all.encode()), Some(all));
    }

    #[test]
    fn legacy_layout_is_byte_identical_to_original_format() {
        // An all-payload, window-at-zero, clock-free log must encode in
        // the exact pre-strategy byte layout: u32 count, then per entry a
        // dir byte (0/1), peer, msg_id, payload id/len and len filler.
        let mut l = MessageLog::new();
        l.push(entry(Direction::Sent, 3, 5, 2));
        let enc = l.encode();
        let mut want = BytesMut::new();
        want.put_u32(1);
        want.put_u8(0); // Sent, Payload
        want.put_u32(3);
        want.put_u64(5);
        want.put_u64(50);
        want.put_u32(2);
        want.put_u8(0);
        want.put_u8(0);
        assert_eq!(enc, want.freeze());
    }

    #[test]
    fn extended_round_trip_with_window_kinds_and_clock() {
        let mut l = MessageLog::new();
        l.push(entry(Direction::Sent, 1, 5, 100));
        l.push(det(Direction::Received, 2, 6, 64));
        l.mark_replay_start();
        l.push(det(Direction::Received, 3, 7, 32));
        l.push(entry(Direction::Sent, 2, 8, 16));
        let mut c = VClock::zero(4);
        c.tick(ProcessId(0));
        c.tick(ProcessId(2));
        c.tick(ProcessId(2));
        l.set_clock(c);
        let enc = l.encode();
        assert_eq!(enc.len() as u64, l.encoded_len());
        let dec = MessageLog::decode(enc).expect("extended log round-trip must decode");
        assert_eq!(dec, l);
        assert_eq!(dec.replay_from(), 2);
        assert_eq!(dec.clock().map(|c| c.get(ProcessId(2))), Some(2));
    }

    #[test]
    fn extended_without_clock_round_trips() {
        let mut l = MessageLog::new();
        l.push(det(Direction::Sent, 1, 5, 100));
        let enc = l.encode();
        assert_eq!(enc.len() as u64, l.encoded_len());
        let dec = MessageLog::decode(enc).expect("determinant log must decode");
        assert_eq!(dec, l);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(MessageLog::decode(Bytes::from_static(&[1, 2])).is_none());
        let mut l = MessageLog::new();
        l.push(entry(Direction::Sent, 1, 5, 10));
        let enc = l.encode();
        assert!(MessageLog::decode(enc.slice(0..enc.len() - 1)).is_none());
        // Trailing junk rejected.
        let mut with_junk = BytesMut::from(&enc[..]);
        with_junk.put_u8(0xFF);
        assert!(MessageLog::decode(with_junk.freeze()).is_none());
        // Determinant tags are extended-layout only.
        let mut raw = BytesMut::from(&enc[..]);
        raw[4] = 2;
        assert!(MessageLog::decode(raw.freeze()).is_none());
    }

    #[test]
    fn decode_rejects_non_canonical_extended() {
        // A legacy-eligible log written with the extended flag must not
        // decode: canonical encoders never produce it.
        let mut l = MessageLog::new();
        l.push(entry(Direction::Sent, 1, 5, 0));
        let legacy = l.encode();
        let mut raw = BytesMut::new();
        raw.put_u32(1 | EXT_COUNT_FLAG);
        raw.put_u8(0);
        raw.put_u32(0);
        raw.extend_from_slice(&legacy[4..]);
        assert!(MessageLog::decode(raw.freeze()).is_none());
        // Bad flag bits and out-of-range replay_from also rejected.
        let mut l = MessageLog::new();
        l.push(det(Direction::Sent, 1, 5, 0));
        let enc = l.encode();
        let mut raw = BytesMut::from(&enc[..]);
        raw[4] |= 0x80;
        assert!(MessageLog::decode(raw.clone().freeze()).is_none());
        let mut raw = BytesMut::from(&enc[..]);
        raw[8] = 9; // replay_from > count
        assert!(MessageLog::decode(raw.freeze()).is_none());
    }

    #[test]
    fn empty_log_round_trips() {
        let l = MessageLog::new();
        let dec = MessageLog::decode(l.encode()).expect("log round-trip must decode");
        assert!(dec.is_empty());
    }

    #[test]
    fn replay_order_is_arrival_order() {
        let mut l = MessageLog::new();
        l.push(entry(Direction::Received, 1, 9, 1));
        l.push(entry(Direction::Sent, 1, 10, 1));
        l.push(entry(Direction::Received, 2, 8, 1));
        let order: Vec<u64> = l.received().map(|e| e.msg_id.0).collect();
        assert_eq!(order, vec![9, 8]);
    }
}
