//! Pluggable message-logging strategies — the `logSet` half of
//! `C_{i,k} = CT_{i,k} ∪ logSet_{i,k}` made swappable.
//!
//! The paper's contribution is logging *selectively*: only messages sent or
//! received between the tentative checkpoint `CT_{i,k}` and its
//! finalization event `CFE_{i,k}` are logged, and the full payload is kept
//! so received messages replay bit-for-bit (piecewise determinism). The
//! wider message-logging literature makes different trade-offs along three
//! axes — *what* is logged per event (full payload vs. a metadata-only
//! determinant vs. nothing), *where* payloads are durable (sender vs.
//! receiver), and *when* logging is active (only inside the tentative
//! window vs. continuously):
//!
//! * **sender-based** logging keeps payloads at the sender and only
//!   determinants at the receiver (Johnson & Zwaenepoel; the MPI
//!   protocol-extension line of work);
//! * **receiver-based pessimistic** logging keeps the full payload of
//!   every received message at the receiver, always;
//! * **causal** logging compresses receiver-side logs down to
//!   determinants ordered by vector clocks.
//!
//! [`LoggingStrategy`] captures exactly that decision surface, and
//! [`LoggingKind`] names the four implemented variants. The protocol state
//! machine (`OcptProcess`) consults the strategy at every send and receive;
//! recovery consumes the resulting durable log through a [`ReplayPlan`].
//! Experiment E10 (`ocpt exp e10`) sweeps the strategies against a grid
//! of fault patterns.
//!
//! The [`LoggingKind::Selective`] variant is the paper's policy *extracted,
//! not changed*: with it configured (the default), every trace, counter and
//! wire byte is identical to the pre-strategy code — a differential test
//! pins this.

// [OCPT §3.1] selective message logging — the paper's policy is the
// Selective variant below; the other variants are the comparison points
// from the message-logging literature it cites.

use crate::log::{Direction, EntryKind, LogEntry, MessageLog};
use crate::types::Status;

/// What a strategy wants logged for one message event.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LogDecision {
    /// Log nothing.
    Skip,
    /// Log a metadata-only determinant (peer, message id, payload
    /// identity/size — enough to re-order and account, not to replay from
    /// this log alone).
    Determinant,
    /// Log the full payload (replayable from this log alone).
    Payload,
}

/// When a strategy's logging is active.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LogWindow {
    /// Only between `CT_{i,k}` and `CFE_{i,k}` — the paper's selective
    /// window. The log is cleared at every tentative checkpoint.
    TentativeOnly,
    /// At all times. The log accumulates from one finalization to the
    /// next; the tentative checkpoint marks where the *replay* window
    /// starts inside it (see [`MessageLog::mark_replay_start`]).
    Continuous,
}

/// The four implemented logging strategies, as a config-friendly enum.
///
/// ```
/// use ocpt_core::LoggingKind;
///
/// assert_eq!(LoggingKind::default(), LoggingKind::Selective);
/// assert_eq!(LoggingKind::parse("sender"), Some(LoggingKind::SenderBased));
/// assert_eq!(LoggingKind::parse("bogus"), None);
/// for k in LoggingKind::ALL {
///     assert_eq!(LoggingKind::parse(k.name()), Some(k));
/// }
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum LoggingKind {
    /// The paper's selective policy (the default): full payloads, both
    /// directions, only inside the tentative window.
    #[default]
    Selective,
    /// Payloads durable at the sender, determinants at the receiver,
    /// continuously.
    SenderBased,
    /// Full pessimistic receiver-side payload log, continuously; sends
    /// leave only determinants.
    ReceiverBased,
    /// Selective window, but receiver-side payloads are compressed to
    /// determinants and vector clocks are piggybacked to order them.
    CausalCompressed,
}

impl LoggingKind {
    /// Every variant, in a stable sweep order (the E10 grid order).
    pub const ALL: [LoggingKind; 4] = [
        LoggingKind::Selective,
        LoggingKind::SenderBased,
        LoggingKind::ReceiverBased,
        LoggingKind::CausalCompressed,
    ];

    /// Stable name used by `--strategy`, counters, traces and reports.
    pub fn name(self) -> &'static str {
        match self {
            LoggingKind::Selective => "selective",
            LoggingKind::SenderBased => "sender",
            LoggingKind::ReceiverBased => "receiver",
            LoggingKind::CausalCompressed => "causal",
        }
    }

    /// Parse a [`LoggingKind::name`] back into the kind (long aliases
    /// accepted). Returns `None` for unknown names.
    pub fn parse(s: &str) -> Option<LoggingKind> {
        match s {
            "selective" | "selective-as-published" => Some(LoggingKind::Selective),
            "sender" | "sender-based" => Some(LoggingKind::SenderBased),
            "receiver" | "receiver-based" => Some(LoggingKind::ReceiverBased),
            "causal" | "causal-compressed" => Some(LoggingKind::CausalCompressed),
            _ => None,
        }
    }

    /// The strategy object implementing this kind.
    pub fn strategy(self) -> &'static dyn LoggingStrategy {
        match self {
            LoggingKind::Selective => &Selective,
            LoggingKind::SenderBased => &SenderBased,
            LoggingKind::ReceiverBased => &ReceiverBased,
            LoggingKind::CausalCompressed => &CausalCompressed,
        }
    }
}

/// A message-logging strategy: per message event, decide whether and what
/// to log; plus the window shape and whether vector clocks ride along.
///
/// The protocol consults [`LoggingStrategy::decide`] with the *owner's*
/// direction and status at event time; what ends up durable is whatever
/// the live [`MessageLog`] holds when the checkpoint finalizes. Recovery
/// turns that durable log into a [`ReplayPlan`].
///
/// ```
/// use ocpt_core::{Direction, LogDecision, LoggingKind, Status};
///
/// // The paper's policy: full payloads, but only while tentative.
/// let s = LoggingKind::Selective.strategy();
/// assert_eq!(s.decide(Direction::Sent, Status::Tentative), LogDecision::Payload);
/// assert_eq!(s.decide(Direction::Sent, Status::Normal), LogDecision::Skip);
/// ```
pub trait LoggingStrategy {
    /// The kind this strategy implements.
    fn kind(&self) -> LoggingKind;

    /// Stable name (equals `self.kind().name()`).
    fn name(&self) -> &'static str {
        self.kind().name()
    }

    /// What to log for a message event with direction `dir`, observed by a
    /// process whose status is `status` at event time.
    fn decide(&self, dir: Direction, status: Status) -> LogDecision;

    /// When logging is active.
    fn window(&self) -> LogWindow;

    /// Whether vector clocks are maintained and piggybacked on
    /// application messages (causal ordering of determinants).
    fn uses_clock(&self) -> bool {
        false
    }
}

/// The paper's policy, extracted verbatim: both directions log the full
/// payload, but only between `CT` and `CFE`; outside the window nothing is
/// logged. Byte-identical to the pre-strategy hard-coded behaviour.
///
/// ```
/// use ocpt_core::{strategy::Selective, Direction, LogDecision, LoggingStrategy, LogWindow, Status};
///
/// assert_eq!(Selective.decide(Direction::Received, Status::Tentative), LogDecision::Payload);
/// assert_eq!(Selective.decide(Direction::Received, Status::Normal), LogDecision::Skip);
/// assert_eq!(Selective.window(), LogWindow::TentativeOnly);
/// assert!(!Selective.uses_clock());
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct Selective;

impl LoggingStrategy for Selective {
    fn kind(&self) -> LoggingKind {
        LoggingKind::Selective
    }

    fn decide(&self, dir: Direction, status: Status) -> LogDecision {
        match (status, dir) {
            (Status::Tentative, Direction::Sent) => LogDecision::Payload,
            (Status::Tentative, Direction::Received) => LogDecision::Payload,
            (Status::Normal, Direction::Sent) => LogDecision::Skip,
            (Status::Normal, Direction::Received) => LogDecision::Skip,
        }
    }

    fn window(&self) -> LogWindow {
        LogWindow::TentativeOnly
    }
}

/// Sender-based logging: every sent payload is durable at the sender,
/// always; receives leave only a determinant. Replaying a crashed process
/// needs payload fetches from its peers' sender logs, but any in-transit
/// message can always be regenerated.
///
/// ```
/// use ocpt_core::{strategy::SenderBased, Direction, LogDecision, LoggingStrategy, LogWindow, Status};
///
/// // Sends carry the payload even while Normal — the continuous window.
/// assert_eq!(SenderBased.decide(Direction::Sent, Status::Normal), LogDecision::Payload);
/// assert_eq!(SenderBased.decide(Direction::Received, Status::Tentative), LogDecision::Determinant);
/// assert_eq!(SenderBased.window(), LogWindow::Continuous);
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct SenderBased;

impl LoggingStrategy for SenderBased {
    fn kind(&self) -> LoggingKind {
        LoggingKind::SenderBased
    }

    fn decide(&self, dir: Direction, _status: Status) -> LogDecision {
        match dir {
            Direction::Sent => LogDecision::Payload,
            Direction::Received => LogDecision::Determinant,
        }
    }

    fn window(&self) -> LogWindow {
        LogWindow::Continuous
    }
}

/// Receiver-based pessimistic logging: the full payload of every received
/// message is durable at the receiver, always. Replay is entirely local —
/// no fetches — but the log is the largest of the four, and in-transit
/// messages are unrecoverable (nobody kept the payload at the sender).
/// Experiment E5's always-log ablation is this variant's degenerate case.
///
/// ```
/// use ocpt_core::{strategy::ReceiverBased, Direction, LogDecision, LoggingStrategy, Status};
///
/// assert_eq!(ReceiverBased.decide(Direction::Received, Status::Normal), LogDecision::Payload);
/// assert_eq!(ReceiverBased.decide(Direction::Sent, Status::Normal), LogDecision::Determinant);
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct ReceiverBased;

impl LoggingStrategy for ReceiverBased {
    fn kind(&self) -> LoggingKind {
        LoggingKind::ReceiverBased
    }

    fn decide(&self, dir: Direction, _status: Status) -> LogDecision {
        match dir {
            Direction::Sent => LogDecision::Determinant,
            Direction::Received => LogDecision::Payload,
        }
    }

    fn window(&self) -> LogWindow {
        LogWindow::Continuous
    }
}

/// Causal-compressed logging: the paper's selective window, but
/// receiver-side payloads shrink to determinants and every application
/// message piggybacks the sender's vector clock. The frozen clock of each
/// finalized checkpoint orders the determinants causally — recovery can
/// prove the cut consistent from the clocks alone (Theorem 2 restated),
/// at the cost of clock bytes on every message.
///
/// ```
/// use ocpt_core::{strategy::CausalCompressed, Direction, LogDecision, LoggingStrategy, Status};
///
/// let s = CausalCompressed;
/// assert!(s.uses_clock());
/// assert_eq!(s.decide(Direction::Received, Status::Tentative), LogDecision::Determinant);
/// assert_eq!(s.decide(Direction::Received, Status::Normal), LogDecision::Skip);
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct CausalCompressed;

impl LoggingStrategy for CausalCompressed {
    fn kind(&self) -> LoggingKind {
        LoggingKind::CausalCompressed
    }

    fn decide(&self, dir: Direction, status: Status) -> LogDecision {
        match (status, dir) {
            (Status::Tentative, Direction::Sent) => LogDecision::Payload,
            (Status::Tentative, Direction::Received) => LogDecision::Determinant,
            (Status::Normal, Direction::Sent) => LogDecision::Skip,
            (Status::Normal, Direction::Received) => LogDecision::Skip,
        }
    }

    fn window(&self) -> LogWindow {
        LogWindow::TentativeOnly
    }

    fn uses_clock(&self) -> bool {
        true
    }
}

/// What recovery does with one durable log: the replay schedule, the
/// in-transit regeneration candidates, and the determinants whose payload
/// lives elsewhere.
///
/// ```
/// use ocpt_core::{AppPayload, Direction, LogEntry, MessageLog, ReplayPlan};
/// use ocpt_sim::{MsgId, ProcessId};
///
/// let mut log = MessageLog::new();
/// log.push(LogEntry::payload(Direction::Sent, ProcessId(1), MsgId(1), AppPayload { id: 1, len: 8 }));
/// log.push(LogEntry::determinant(Direction::Received, ProcessId(2), MsgId(2), AppPayload { id: 2, len: 8 }));
/// let plan = ReplayPlan::for_log(&log);
/// assert_eq!(plan.resend.len(), 1); // the sent payload regenerates in-transit losses
/// assert_eq!(plan.replay.len(), 1); // the receive is replayed...
/// assert_eq!(plan.fetch.len(), 1); // ...but its payload must be fetched from P2
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReplayPlan {
    /// Received entries inside the replay window, in arrival order — the
    /// replay schedule reproducing the state at `CFE_{i,k}`.
    pub replay: Vec<LogEntry>,
    /// Sent entries carrying their payload: regeneration candidates for
    /// messages in transit across the recovery line.
    pub resend: Vec<LogEntry>,
    /// Received determinants inside the replay window: replayable in
    /// order, but the payload bytes must be fetched from the sender's
    /// durable log (a real deployment pays one round-trip each).
    pub fetch: Vec<LogEntry>,
}

impl ReplayPlan {
    /// Build the plan for one durable log, whatever strategy produced it.
    pub fn for_log(log: &MessageLog) -> ReplayPlan {
        let mut plan = ReplayPlan::default();
        for e in log.replay_entries() {
            if e.dir == Direction::Received {
                plan.replay.push(*e);
                if e.kind == EntryKind::Determinant {
                    plan.fetch.push(*e);
                }
            }
        }
        // Resend candidates come from the *whole* log, not just the replay
        // window: a continuously-logging sender may hold pre-CT payloads
        // that are still in transit across the line.
        plan.resend.extend(log.sent().filter(|e| e.kind == EntryKind::Payload).copied());
        plan
    }

    /// Payload bytes replayed straight from the local log.
    pub fn local_replay_bytes(&self) -> u64 {
        self.replay
            .iter()
            .filter(|e| e.kind == EntryKind::Payload)
            .map(|e| e.payload.len as u64)
            .sum()
    }

    /// Payload bytes that must be fetched from peers before replay.
    pub fn fetch_bytes(&self) -> u64 {
        self.fetch.iter().map(|e| e.payload.len as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::AppPayload;
    use ocpt_sim::{MsgId, ProcessId};

    #[test]
    fn kinds_round_trip_names() {
        for k in LoggingKind::ALL {
            assert_eq!(LoggingKind::parse(k.name()), Some(k));
            assert_eq!(k.strategy().kind(), k);
            assert_eq!(k.strategy().name(), k.name());
        }
        assert_eq!(LoggingKind::parse("selective-as-published"), Some(LoggingKind::Selective));
        assert_eq!(LoggingKind::parse(""), None);
    }

    #[test]
    fn decision_matrix_is_the_documented_table() {
        use Direction::{Received, Sent};
        use LogDecision::{Determinant, Payload, Skip};
        use Status::{Normal, Tentative};
        // (kind, dir, status) → decision; the table DESIGN.md prints.
        let table = [
            (LoggingKind::Selective, Sent, Tentative, Payload),
            (LoggingKind::Selective, Received, Tentative, Payload),
            (LoggingKind::Selective, Sent, Normal, Skip),
            (LoggingKind::Selective, Received, Normal, Skip),
            (LoggingKind::SenderBased, Sent, Tentative, Payload),
            (LoggingKind::SenderBased, Sent, Normal, Payload),
            (LoggingKind::SenderBased, Received, Tentative, Determinant),
            (LoggingKind::SenderBased, Received, Normal, Determinant),
            (LoggingKind::ReceiverBased, Received, Tentative, Payload),
            (LoggingKind::ReceiverBased, Received, Normal, Payload),
            (LoggingKind::ReceiverBased, Sent, Tentative, Determinant),
            (LoggingKind::ReceiverBased, Sent, Normal, Determinant),
            (LoggingKind::CausalCompressed, Sent, Tentative, Payload),
            (LoggingKind::CausalCompressed, Received, Tentative, Determinant),
            (LoggingKind::CausalCompressed, Sent, Normal, Skip),
            (LoggingKind::CausalCompressed, Received, Normal, Skip),
        ];
        for (kind, dir, status, want) in table {
            assert_eq!(kind.strategy().decide(dir, status), want, "{kind:?} {dir:?} {status:?}");
        }
    }

    #[test]
    fn windows_and_clocks() {
        assert_eq!(LoggingKind::Selective.strategy().window(), LogWindow::TentativeOnly);
        assert_eq!(LoggingKind::SenderBased.strategy().window(), LogWindow::Continuous);
        assert_eq!(LoggingKind::ReceiverBased.strategy().window(), LogWindow::Continuous);
        assert_eq!(LoggingKind::CausalCompressed.strategy().window(), LogWindow::TentativeOnly);
        for k in LoggingKind::ALL {
            assert_eq!(k.strategy().uses_clock(), k == LoggingKind::CausalCompressed, "{k:?}");
        }
    }

    #[test]
    fn replay_plan_splits_by_kind_and_window() {
        let pl = |id: u64| AppPayload { id, len: 10 };
        let mut log = MessageLog::new();
        // Pre-CT era (continuous logging): a sent payload and a received
        // determinant land before the replay window opens.
        log.push(LogEntry::payload(Direction::Sent, ProcessId(1), MsgId(1), pl(1)));
        log.push(LogEntry::determinant(Direction::Received, ProcessId(2), MsgId(2), pl(2)));
        log.mark_replay_start();
        // In-window traffic.
        log.push(LogEntry::payload(Direction::Sent, ProcessId(2), MsgId(3), pl(3)));
        log.push(LogEntry::determinant(Direction::Received, ProcessId(1), MsgId(4), pl(4)));
        log.push(LogEntry::payload(Direction::Received, ProcessId(1), MsgId(5), pl(5)));

        let plan = ReplayPlan::for_log(&log);
        // Replay = in-window receives only, arrival order.
        let ids: Vec<u64> = plan.replay.iter().map(|e| e.msg_id.0).collect();
        assert_eq!(ids, vec![4, 5]);
        // Fetches = the in-window received determinant.
        assert_eq!(plan.fetch.len(), 1);
        assert_eq!(plan.fetch[0].msg_id, MsgId(4));
        // Resends = every sent payload, including the pre-CT one.
        let ids: Vec<u64> = plan.resend.iter().map(|e| e.msg_id.0).collect();
        assert_eq!(ids, vec![1, 3]);
        assert_eq!(plan.local_replay_bytes(), 10);
        assert_eq!(plan.fetch_bytes(), 10);
    }
}
