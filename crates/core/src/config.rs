//! Protocol configuration: the knobs the paper describes plus the ablation
//! toggles the experiments sweep.

use ocpt_sim::SimDuration;

use crate::strategy::LoggingKind;

/// When the *tentative checkpoint* (not the log) is written to stable
/// storage. The paper: "the tentative checkpoint can be flushed to stable
/// storage any time after it was taken and before it was finalized" —
/// choosing that moment freely is what de-clusters the writes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlushPolicy {
    /// Write the tentative checkpoint immediately when taken (worst case
    /// for contention; what a synchronous scheme effectively does).
    Eager,
    /// Keep it in memory and write everything at finalization.
    Lazy,
    /// Write it after a uniformly random delay in `[0, max_delay]`,
    /// bounded by finalization — the "convenient time" the paper suggests.
    Jittered {
        /// Upper bound of the random flush delay.
        max_delay: SimDuration,
    },
}

/// When the *finalization* storage writes (the frozen tentative checkpoint
/// and its message log) actually land on the file server.
///
/// The finalize **decision** fixes the checkpoint's content and its
/// consistency cut (`CFE_{i,k}`); correctness never depends on when the
/// bytes reach stable storage (the recovery line simply lags until they
/// do). That freedom — "store them at stable storage at their own
/// convenience" (§1) — is the paper's whole contention story, so the
/// write placement is an explicit policy:
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WritePolicy {
    /// Write at the finalize decision (clusters writes when application
    /// traffic converges a round quickly — synchronous-like contention).
    Immediate,
    /// Write after a uniformly random delay in `[0, window]`.
    Jittered {
        /// Upper bound of the random write delay.
        window: SimDuration,
    },
    /// Write after a deterministic per-process offset `window · i / N`.
    /// Serialises the writes like Vaidya's staggering, but with zero
    /// extra messages — each process only needs its id and `N`.
    Phased {
        /// Total spread of the offsets.
        window: SimDuration,
    },
}

/// How the control-message convergence wave shards the processes.
///
/// The paper's Fig. 4 runs one flat `CK_REQ` ring through all `N`
/// processes and has `P_0` broadcast `CK_END` to everyone — O(N) work on
/// the coordinator and an O(N)-hop token walk. Past a few hundred
/// processes that is the scaling wall, so processes shard into
/// contiguous id groups: each group runs its own ring under a group
/// leader (the smallest id in the group), leaders exchange summaries with
/// `P_0` (`CK_BGN` escalation up, `CK_GRP_DONE` up, `CK_END` relayed
/// down), and no single process ever sends more than
/// O(group size + #groups) control messages per round. The flat ring is
/// the sharding into one group.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ControlTopology {
    /// Fixed-size contiguous id groups (`P_{g·s} … P_{g·s+s-1}`), each
    /// with an intra-group ring; leaders talk to `P_0`.
    Grouped {
        /// Processes per group (the last group may be smaller).
        group_size: u32,
    },
    /// One group (the paper's flat ring) up to 512 processes, then groups
    /// of `⌈√N⌉` — the size that balances ring length against leader
    /// count.
    Auto,
}

/// Largest N that [`ControlTopology::Auto`] runs as the flat ring.
const AUTO_FLAT_MAX: usize = 512;

impl ControlTopology {
    /// Processes per group in a system of `n`. A degenerate sharding (a
    /// single group, or groups of one) resolves to `n`: one group `[0, n)`
    /// led by `P_0`, the paper's flat ring.
    pub fn group_size(self, n: usize) -> u32 {
        let size = match self {
            ControlTopology::Grouped { group_size } => group_size,
            ControlTopology::Auto if n <= AUTO_FLAT_MAX => return n as u32,
            ControlTopology::Auto => isqrt_ceil(n as u64) as u32,
        };
        if size >= 2 && (size as usize) < n {
            size
        } else {
            n as u32
        }
    }
}

/// `⌈√v⌉` without floating point (bit-identical on every platform).
fn isqrt_ceil(v: u64) -> u64 {
    if v <= 1 {
        return v;
    }
    let mut lo = 1u64;
    let mut hi = 1u64 << (v.ilog2() / 2 + 1);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if mid * mid >= v {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

/// Configuration of the OCPT protocol.
#[derive(Clone, Copy, Debug)]
pub struct OcptConfig {
    /// Convergence timer: if a tentative checkpoint is not finalized within
    /// this span, the control-message machinery starts (§3.5.1).
    pub convergence_timeout: SimDuration,
    /// Master switch for the control-message layer. With it off you get the
    /// *basic* algorithm of Fig. 3, which can fail to converge — the
    /// convergence tests demonstrate exactly that.
    pub control_messages: bool,
    /// The §3.5.1 control-message reductions, on or off together:
    /// suppress `CK_BGN` when a smaller-id process is known tentative
    /// (case 1), skip already-tentative processes when forwarding `CK_REQ`
    /// (case 2), and have `P_0` broadcast `CK_END` whenever it finalizes —
    /// the fix the paper pairs with case 1, without which suppressed
    /// processes can starve. Off is the naive control layer (ablation A1).
    pub optimized_control: bool,
    /// How the control wave shards the processes: explicit groups, or
    /// `Auto` — the paper's flat ring (one group) up to 512 processes and
    /// `⌈√N⌉`-sized groups beyond.
    pub control_topology: ControlTopology,
    /// When tentative checkpoints are flushed.
    pub flush_policy: FlushPolicy,
    /// When the finalization writes land on stable storage.
    pub finalize_write: WritePolicy,
    /// Declared size of a tentative checkpoint (process state) in bytes.
    pub state_bytes: u64,
    /// Which message-logging strategy fills `logSet_{i,k}` — the paper's
    /// selective policy by default; see [`crate::strategy`].
    pub logging: LoggingKind,
}

impl Default for OcptConfig {
    fn default() -> Self {
        OcptConfig {
            convergence_timeout: SimDuration::from_millis(250),
            control_messages: true,
            optimized_control: true,
            // N ≤ 512 keeps the paper-exact flat ring; larger systems
            // shard into ⌈√N⌉-sized groups.
            control_topology: ControlTopology::Auto,
            flush_policy: FlushPolicy::Lazy,
            finalize_write: WritePolicy::Phased { window: SimDuration::from_millis(400) },
            state_bytes: 4 * 1024 * 1024,
            logging: LoggingKind::Selective,
        }
    }
}

impl OcptConfig {
    /// The unoptimized ("naive") control-message variant: every timed-out
    /// process sends `CK_BGN`; `CK_REQ` walks the full ring; no proactive
    /// `CK_END` broadcast (the reactive one in Fig. 4 suffices).
    pub fn naive_control() -> Self {
        OcptConfig { optimized_control: false, ..Default::default() }
    }

    /// The pure basic algorithm of Fig. 3 — no control messages at all.
    pub fn basic_only() -> Self {
        OcptConfig { control_messages: false, ..Default::default() }
    }

    /// Check internal consistency: an armed convergence timer needs a
    /// positive timeout.
    pub fn validate(&self) -> Result<(), String> {
        if self.control_messages && self.convergence_timeout.is_zero() {
            return Err("convergence_timeout must be positive".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert!(OcptConfig::default().validate().is_ok());
    }

    #[test]
    fn naive_and_basic_are_valid() {
        assert!(OcptConfig::naive_control().validate().is_ok());
        assert!(OcptConfig::basic_only().validate().is_ok());
    }

    #[test]
    fn topology_resolution() {
        // Auto: one group (flat) at/below 512 processes, ⌈√N⌉ above.
        let auto = ControlTopology::Auto;
        assert_eq!(auto.group_size(512), 512);
        assert_eq!(auto.group_size(513), 23); // ⌈√513⌉
        assert_eq!(auto.group_size(10_000), 100);
        assert_eq!(auto.group_size(100_000), 317); // ⌈√100000⌉

        // Explicit groups; degenerate shapes resolve to one group of N.
        assert_eq!(ControlTopology::Grouped { group_size: 4 }.group_size(12), 4);
        assert_eq!(ControlTopology::Grouped { group_size: 1 }.group_size(12), 12);
        assert_eq!(ControlTopology::Grouped { group_size: 12 }.group_size(12), 12);
        assert_eq!(ControlTopology::Grouped { group_size: 64 }.group_size(12), 12);
    }

    #[test]
    fn isqrt_ceil_exact() {
        for (v, want) in [(0, 0), (1, 1), (2, 2), (4, 2), (5, 3), (9, 3), (10, 4), (100, 10)] {
            assert_eq!(isqrt_ceil(v), want, "isqrt_ceil({v})");
        }
        assert_eq!(isqrt_ceil(100_000), 317);
        assert_eq!(isqrt_ceil(1u64 << 40), 1 << 20);
    }

    #[test]
    fn zero_intervals_rejected() {
        let c = OcptConfig { convergence_timeout: SimDuration::ZERO, ..Default::default() };
        assert!(c.validate().is_err());
        // Without control messages no convergence timer is ever armed.
        assert!(OcptConfig { control_messages: false, ..c }.validate().is_ok());
    }
}
