//! Wire format for application envelopes and control messages.
//!
//! The simulator could pass Rust values around directly, but the threaded
//! runtime (`ocpt-runtime`) moves real bytes between OS threads, and the
//! piggyback-overhead experiment needs byte-exact accounting — so envelopes
//! get a real, versioned codec. Application payloads are *simulated*: the
//! computation's semantics don't matter to the checkpointing algorithm, so
//! a payload is `(id, len)` and `len` filler bytes on the wire.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use ocpt_causality::VClock;
use ocpt_sim::ProcessId;

use crate::piggyback::Piggyback;
use crate::types::{Csn, Status, TentSet};

/// A simulated application payload: an identity plus a declared size.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct AppPayload {
    /// Workload-assigned identity (stable across checkpoint/replay).
    pub id: u64,
    /// Payload size in bytes (filler on the wire).
    pub len: u32,
}

/// Control message kinds (paper §3.5.1, plus the hierarchical group wave).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CtrlKind {
    /// "Checkpoint begin": a timed-out process notifies `P_0` (or, under
    /// the hierarchical topology, its group leader, which escalates).
    CkBgn,
    /// "Checkpoint request": the token `P_0` circulates to make every
    /// process take a tentative checkpoint. Hierarchical mode runs one
    /// token ring per group.
    CkReq,
    /// "Checkpoint end": `P_0`'s broadcast that finalization may proceed.
    /// Hierarchical mode relays it leader → members.
    CkEnd,
    /// Hierarchical only: a group leader reports to `P_0` that its
    /// intra-group `CK_REQ` ring completed.
    CkGrpDone,
}

impl CtrlKind {
    /// Stable name for counters and traces.
    pub fn name(self) -> &'static str {
        match self {
            CtrlKind::CkBgn => "CK_BGN",
            CtrlKind::CkReq => "CK_REQ",
            CtrlKind::CkEnd => "CK_END",
            CtrlKind::CkGrpDone => "CK_GRP_DONE",
        }
    }
}

/// A control message `CM(type, csn)` (paper Fig. 4).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CtrlMsg {
    /// The kind.
    pub kind: CtrlKind,
    /// The sender's current checkpoint sequence number.
    pub csn: Csn,
}

/// Everything that can travel on a channel.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Envelope {
    /// An application message with its piggyback.
    App {
        /// Piggybacked checkpointing state.
        pb: Piggyback,
        /// The (simulated) payload.
        payload: AppPayload,
    },
    /// A control message.
    Ctrl(CtrlMsg),
}

impl Envelope {
    /// Total bytes of this envelope on the wire (headers included).
    pub fn wire_bytes(&self) -> u64 {
        match self {
            Envelope::App { pb, payload } => {
                (ENV_HEADER_BYTES + pb.wire_bytes() + APP_FIXED_BYTES) as u64 + payload.len as u64
            }
            Envelope::Ctrl(_) => (ENV_HEADER_BYTES + CTRL_FIXED_BYTES) as u64,
        }
    }
}

/// Envelope header: version(1) + discriminant(1) + n(4).
pub const ENV_HEADER_BYTES: usize = 6;
/// App fixed fields: payload id(8) + payload len(4).
pub const APP_FIXED_BYTES: usize = 12;
/// Ctrl fixed fields: kind(1) + csn(8).
pub const CTRL_FIXED_BYTES: usize = 9;
/// Wire format version.
pub const WIRE_VERSION: u8 = 1;

/// Errors from decoding an envelope.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// Buffer too short for the declared structure.
    Truncated,
    /// Unknown version byte.
    BadVersion(u8),
    /// Unknown discriminant or enum value.
    BadTag(u8),
    /// Malformed tentative set bitmap.
    BadTentSet,
    /// Malformed sparse vector-clock encoding (index out of range, zero
    /// value, or non-increasing index order).
    BadClock,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "envelope truncated"),
            WireError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::BadTag(t) => write!(f, "bad tag {t}"),
            WireError::BadTentSet => write!(f, "malformed tentSet bitmap"),
            WireError::BadClock => write!(f, "malformed piggybacked vector clock"),
        }
    }
}

impl std::error::Error for WireError {}

/// Encode an envelope. `payload.len` filler bytes are materialised for app
/// messages so the encoding length equals [`Envelope::wire_bytes`].
pub fn encode_envelope(env: &Envelope, n: usize) -> Bytes {
    let mut b = BytesMut::with_capacity(env.wire_bytes() as usize);
    b.put_u8(WIRE_VERSION);
    match env {
        Envelope::App { pb, payload } => {
            b.put_u8(0);
            b.put_u32(n as u32);
            b.put_u64(pb.csn);
            // Stat byte doubles as the clock-presence flag: 0/1 are the
            // original clock-free values, 2/3 announce a sparse clock
            // between the tentSet and the payload.
            b.put_u8(match (pb.stat, &pb.clock) {
                (Status::Normal, None) => 0,
                (Status::Tentative, None) => 1,
                (Status::Normal, Some(_)) => 2,
                (Status::Tentative, Some(_)) => 3,
            });
            b.extend_from_slice(&pb.tent_set.to_bytes());
            if let Some(clock) = &pb.clock {
                let nonzero = clock.components().iter().filter(|&&v| v != 0).count();
                b.put_u32(nonzero as u32);
                for (idx, &v) in clock.components().iter().enumerate() {
                    if v != 0 {
                        b.put_u32(idx as u32);
                        b.put_u64(v);
                    }
                }
            }
            b.put_u64(payload.id);
            b.put_u32(payload.len);
            b.extend(std::iter::repeat_n(0u8, payload.len as usize));
        }
        Envelope::Ctrl(cm) => {
            b.put_u8(1);
            b.put_u32(n as u32);
            b.put_u8(match cm.kind {
                CtrlKind::CkBgn => 0,
                CtrlKind::CkReq => 1,
                CtrlKind::CkEnd => 2,
                CtrlKind::CkGrpDone => 3,
            });
            b.put_u64(cm.csn);
        }
    }
    b.freeze()
}

/// Decode an envelope previously produced by [`encode_envelope`].
pub fn decode_envelope(mut buf: Bytes) -> Result<(Envelope, usize), WireError> {
    if buf.len() < ENV_HEADER_BYTES {
        return Err(WireError::Truncated);
    }
    let version = buf.get_u8();
    if version != WIRE_VERSION {
        return Err(WireError::BadVersion(version));
    }
    let disc = buf.get_u8();
    let n = buf.get_u32() as usize;
    match disc {
        0 => {
            if buf.len() < 9 {
                return Err(WireError::Truncated);
            }
            let csn: Csn = buf.get_u64();
            let (stat, has_clock) = match buf.get_u8() {
                0 => (Status::Normal, false),
                1 => (Status::Tentative, false),
                2 => (Status::Normal, true),
                3 => (Status::Tentative, true),
                t => return Err(WireError::BadTag(t)),
            };
            // The tentSet encoding is self-describing (adaptive repr): the
            // decoder reports how many bytes it consumed.
            let (tent_set, ts_len) = TentSet::from_wire(n, &buf).ok_or(WireError::BadTentSet)?;
            if buf.len() < ts_len {
                return Err(WireError::Truncated);
            }
            buf.advance(ts_len);
            let clock = if has_clock { Some(decode_sparse_clock(&mut buf, n)?) } else { None };
            if buf.len() < APP_FIXED_BYTES {
                return Err(WireError::Truncated);
            }
            let id = buf.get_u64();
            let len = buf.get_u32();
            if buf.len() < len as usize {
                return Err(WireError::Truncated);
            }
            Ok((
                Envelope::App {
                    pb: Piggyback { csn, stat, tent_set, clock },
                    payload: AppPayload { id, len },
                },
                n,
            ))
        }
        1 => {
            if buf.len() < CTRL_FIXED_BYTES {
                return Err(WireError::Truncated);
            }
            let kind = match buf.get_u8() {
                0 => CtrlKind::CkBgn,
                1 => CtrlKind::CkReq,
                2 => CtrlKind::CkEnd,
                3 => CtrlKind::CkGrpDone,
                t => return Err(WireError::BadTag(t)),
            };
            let csn = buf.get_u64();
            Ok((Envelope::Ctrl(CtrlMsg { kind, csn }), n))
        }
        t => Err(WireError::BadTag(t)),
    }
}

/// Decode the sparse clock encoding: u32 count, then `(u32 index, u64
/// value)` per nonzero component, indices strictly increasing. The
/// canonical form is enforced — zero values, out-of-range or repeated
/// indices are rejected so every clock has exactly one wire image.
fn decode_sparse_clock(buf: &mut Bytes, n: usize) -> Result<VClock, WireError> {
    if buf.len() < 4 {
        return Err(WireError::Truncated);
    }
    let count = buf.get_u32() as usize;
    if count > n {
        return Err(WireError::BadClock);
    }
    if buf.len() < count * 12 {
        return Err(WireError::Truncated);
    }
    let mut clock = VClock::zero(n);
    let mut prev: Option<u32> = None;
    for _ in 0..count {
        let idx = buf.get_u32();
        let value = buf.get_u64();
        if idx as usize >= n || value == 0 || prev.is_some_and(|p| idx <= p) {
            return Err(WireError::BadClock);
        }
        clock.set(ProcessId(idx), value);
        prev = Some(idx);
    }
    Ok(clock)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_app(n: usize) -> Envelope {
        let mut ts = TentSet::singleton(n, ProcessId(1));
        ts.insert(ProcessId(0));
        Envelope::App {
            pb: Piggyback::new(9, Status::Tentative, ts),
            payload: AppPayload { id: 1234, len: 100 },
        }
    }

    #[test]
    fn app_round_trip() {
        let env = sample_app(5);
        let enc = encode_envelope(&env, 5);
        assert_eq!(enc.len() as u64, env.wire_bytes());
        let (dec, n) = decode_envelope(enc).expect("wire round-trip must decode");
        assert_eq!(dec, env);
        assert_eq!(n, 5);
    }

    #[test]
    fn ctrl_round_trip() {
        for kind in [CtrlKind::CkBgn, CtrlKind::CkReq, CtrlKind::CkEnd, CtrlKind::CkGrpDone] {
            // Exhaustive: a new kind fails to compile here until it joins
            // the list above and so the round trip.
            match kind {
                CtrlKind::CkBgn | CtrlKind::CkReq | CtrlKind::CkEnd | CtrlKind::CkGrpDone => {}
            }
            let env = Envelope::Ctrl(CtrlMsg { kind, csn: 3 });
            let enc = encode_envelope(&env, 8);
            assert_eq!(enc.len() as u64, env.wire_bytes());
            let (dec, _) = decode_envelope(enc).expect("wire round-trip must decode");
            assert_eq!(dec, env);
        }
    }

    #[test]
    fn ctrl_is_small_and_constant() {
        let env = Envelope::Ctrl(CtrlMsg { kind: CtrlKind::CkBgn, csn: u64::MAX });
        assert_eq!(encode_envelope(&env, 2).len(), encode_envelope(&env, 256).len());
        assert_eq!(env.wire_bytes(), (ENV_HEADER_BYTES + CTRL_FIXED_BYTES) as u64);
    }

    #[test]
    fn app_overhead_grows_with_n() {
        let e4 = sample_app(4);
        let e256 = {
            let ts = TentSet::singleton(256, ProcessId(1));
            Envelope::App {
                pb: Piggyback::new(9, Status::Tentative, ts),
                payload: AppPayload { id: 1234, len: 100 },
            }
        };
        assert!(e256.wire_bytes() > e4.wire_bytes());
    }

    #[test]
    fn truncation_rejected_everywhere() {
        let enc = encode_envelope(&sample_app(5), 5);
        for cut in [0, 3, 5, 12, enc.len() - 1] {
            let r = decode_envelope(enc.slice(0..cut));
            assert!(r.is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn bad_version_and_tag() {
        let enc = encode_envelope(&sample_app(5), 5);
        let mut raw = BytesMut::from(&enc[..]);
        raw[0] = 99;
        assert!(matches!(decode_envelope(raw.clone().freeze()), Err(WireError::BadVersion(99))));
        raw[0] = WIRE_VERSION;
        raw[1] = 7; // bad discriminant
        assert!(matches!(decode_envelope(raw.freeze()), Err(WireError::BadTag(7))));
    }

    fn sample_clocked(n: usize) -> Envelope {
        let mut clock = VClock::zero(n);
        clock.set(ProcessId(0), 3);
        clock.set(ProcessId(2), 41);
        let Envelope::App { pb, payload } = sample_app(n) else { unreachable!() };
        Envelope::App { pb: Piggyback { clock: Some(clock), ..pb }, payload }
    }

    #[test]
    fn clocked_app_round_trip() {
        let env = sample_clocked(5);
        let enc = encode_envelope(&env, 5);
        assert_eq!(enc.len() as u64, env.wire_bytes());
        let (dec, n) = decode_envelope(enc).expect("clocked round-trip must decode");
        assert_eq!(dec, env);
        assert_eq!(n, 5);
    }

    #[test]
    fn clock_costs_nothing_when_absent() {
        // The stat byte doubles as the clock flag, so clock-free envelopes
        // are byte-for-byte what they were before clocks existed.
        let plain = sample_app(5);
        let clocked = sample_clocked(5);
        assert_eq!(clocked.wire_bytes(), plain.wire_bytes() + 4 + 2 * 12);
    }

    #[test]
    fn malformed_clocks_rejected() {
        let enc = encode_envelope(&sample_clocked(5), 5);
        // Locate the sparse clock: header(6) + csn(8) + stat(1) + tentSet.
        let Envelope::App { pb, .. } = sample_app(5) else { unreachable!() };
        let off = 6 + 8 + 1 + pb.tent_set.to_bytes().len();
        let corrupt = |f: &dyn Fn(&mut BytesMut)| {
            let mut raw = BytesMut::from(&enc[..]);
            f(&mut raw);
            decode_envelope(raw.freeze())
        };
        // Zero-valued component breaks canonical form.
        let r = corrupt(&|raw| raw[off + 4..off + 12 + 4].fill(0));
        assert_eq!(r, Err(WireError::BadClock));
        // Out-of-range index (idx ≥ n).
        let r = corrupt(&|raw| raw[off + 4..off + 8].copy_from_slice(&9u32.to_be_bytes()));
        assert_eq!(r, Err(WireError::BadClock));
        // Non-increasing indices (second idx set equal to the first).
        let r = corrupt(&|raw| raw[off + 16..off + 20].copy_from_slice(&0u32.to_be_bytes()));
        assert_eq!(r, Err(WireError::BadClock));
        // Component count beyond the universe size.
        let r = corrupt(&|raw| raw[off..off + 4].copy_from_slice(&6u32.to_be_bytes()));
        assert_eq!(r, Err(WireError::BadClock));
        // Truncation inside the clock body.
        let cut = enc.slice(0..off + 10);
        assert_eq!(decode_envelope(cut), Err(WireError::Truncated));
    }

    #[test]
    fn zero_len_payload() {
        let env = Envelope::App {
            pb: Piggyback::new(0, Status::Normal, TentSet::empty(2)),
            payload: AppPayload { id: 0, len: 0 },
        };
        let (dec, _) =
            decode_envelope(encode_envelope(&env, 2)).expect("wire round-trip must decode");
        assert_eq!(dec, env);
    }
}
