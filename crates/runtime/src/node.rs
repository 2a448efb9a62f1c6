//! One node of the threaded cluster: an OS thread driving an
//! [`OcptProcess`] over real channels, real bytes and a wall clock.
//!
//! Everything that was virtual in the simulator is real here: envelopes
//! are encoded with `ocpt_core::wire` and decoded on receipt, the
//! protocol's timers (convergence, jittered flush, deferred write) are
//! `recv_timeout` against `Instant`s, and the shared consistency observer
//! is fed in true arrival order — so the test-suite's Theorem 2 check runs
//! against genuine thread interleavings. The node executes the same
//! [`ProtoAction`]s as the simulator's runner, so the flush and write
//! policies hold here too.
//!
//! Each node has a **single** `std::sync::mpsc` inbox carrying both peer
//! network bytes and driver commands ([`NodeInput`]); merging the streams
//! into one channel preserves arrival order without needing a
//! multi-channel `select!`.

use std::collections::BTreeMap;
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use ocpt_causality::GlobalObserver;
use ocpt_core::{
    decode_envelope, encode_envelope, AppPayload, AppSnapshot, CheckpointProtocol, Csn, Envelope,
    OcptConfig, OcptProcess, ProtoAction,
};
use ocpt_sim::{MsgId, ProcessId};

use crate::storage::StableStore;
use crate::sync::Mutex;

/// Driver → node commands.
#[derive(Clone, Debug)]
pub enum Command {
    /// Send an application message of `len` bytes to `dst`.
    SendApp {
        /// Destination node.
        dst: ProcessId,
        /// Payload size.
        len: u32,
    },
    /// Take a scheduled checkpoint now (initiate if `Normal`).
    Checkpoint,
    /// Stop the node thread.
    Shutdown,
}

/// Everything that can arrive on a node's (single, merged) inbox.
#[derive(Clone, Debug)]
pub enum NodeInput {
    /// Encoded envelope bytes from a peer.
    Net(ProcessId, Bytes),
    /// A driver command.
    Cmd(Command),
}

/// Node → driver status events.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StatusEvent {
    /// The node's checkpoint `csn` is finalized and in the stable store.
    Finalized {
        /// Reporting node.
        pid: ProcessId,
        /// Finalized sequence number.
        csn: Csn,
    },
    /// The node hit a protocol error (fatal; tests assert this never fires).
    Error {
        /// Reporting node.
        pid: ProcessId,
        /// Description.
        detail: String,
    },
    /// The node stopped.
    Stopped {
        /// Reporting node.
        pid: ProcessId,
        /// Final checkpoint sequence number.
        csn: Csn,
        /// Checkpoints finalized over the node's lifetime.
        finalized: u64,
    },
}

/// Everything a node thread needs.
pub struct NodeCtx {
    /// This node's id.
    pub pid: ProcessId,
    /// System size.
    pub n: usize,
    /// Protocol configuration.
    pub cfg: OcptConfig,
    /// Merged inbox: peer bytes and driver commands in arrival order.
    pub inbox: Receiver<NodeInput>,
    /// Peer inboxes, indexed by destination.
    pub peers: Vec<Sender<NodeInput>>,
    /// Status stream to the driver.
    pub status: Sender<StatusEvent>,
    /// Shared stable storage.
    pub store: Arc<StableStore>,
    /// Shared consistency oracle.
    pub observer: Arc<Mutex<GlobalObserver>>,
}

/// A node's protocol instance, application state and what its actions
/// left pending.
struct Node {
    ctx: NodeCtx,
    proto: OcptProcess,
    app: AppSnapshot,
    /// Armed protocol timers: wall-clock deadline by tag.
    timers: BTreeMap<u64, Instant>,
    /// Snapshots taken but not yet in the store, by csn.
    snapshots: BTreeMap<Csn, AppSnapshot>,
    finalized: u64,
}

impl Node {
    /// Carry out (and drain) the protocol's actions.
    fn carry_out(&mut self, out: &mut Vec<ProtoAction<Envelope>>) {
        let pid = self.ctx.pid;
        for a in out.drain(..) {
            match a {
                ProtoAction::Snapshot { seq } => {
                    self.snapshots.insert(seq, self.app);
                }
                ProtoAction::MarkCut { seq, back } => {
                    let mut obs = self.ctx.observer.lock();
                    let pos = obs.positions()[pid.index()] - back as u64;
                    obs.on_finalize(pid, seq, pos, ocpt_sim::SimTime::ZERO);
                }
                ProtoAction::FlushExtra { seq, log, .. } => {
                    // The store takes a checkpoint whole: the state goes in
                    // with the log, however early the policy flushed it.
                    let snap = self.snapshots.remove(&seq).expect("FlushExtra before Snapshot");
                    let log = log.map(|l| l.encode()).unwrap_or_default();
                    self.ctx.store.put(pid, seq, snap.encode(), log);
                    self.finalized += 1;
                    let _ = self.ctx.status.send(StatusEvent::Finalized { pid, csn: seq });
                }
                ProtoAction::FlushState { .. }
                | ProtoAction::Complete { .. }
                | ProtoAction::ForcedBeforeProcessing { .. } => {}
                ProtoAction::Send { dst, env } => {
                    let raw = encode_envelope(&env, self.ctx.n);
                    let _ = self.ctx.peers[dst.index()].send(NodeInput::Net(pid, raw));
                }
                ProtoAction::SetTimer { tag, delay } => {
                    self.timers.insert(tag, Instant::now() + to_std(delay));
                }
                ProtoAction::CancelTimer { tag } => {
                    self.timers.remove(&tag);
                }
            }
        }
    }

    /// The armed timer that expires first.
    fn next_timer(&self) -> Option<(u64, Instant)> {
        self.timers.iter().map(|(&tag, &at)| (tag, at)).min_by_key(|&(_, at)| at)
    }

    /// Hand one decoded envelope to the protocol.
    fn receive(
        &mut self,
        src: ProcessId,
        env: Envelope,
        out: &mut Vec<ProtoAction<Envelope>>,
    ) -> Result<(), String> {
        match env {
            Envelope::Ctrl(cm) => self.proto.on_ctrl_receive(src, cm, out),
            Envelope::App { pb, payload } => {
                // Process first (paper §3.4.3), then the case analysis.
                let msg_id = MsgId(payload.id);
                self.ctx.observer.lock().on_recv(self.ctx.pid, msg_id);
                self.app.apply_recv(payload);
                self.proto.on_app_receive(src, msg_id, payload, &pb, out)
            }
        }
        .map_err(|e| e.to_string())
    }
}

/// The node main loop. Runs until `Command::Shutdown`.
pub fn run_node(ctx: NodeCtx) {
    let (pid, cfg) = (ctx.pid, ctx.cfg);
    let mut node = Node {
        proto: OcptProcess::new(pid, ctx.n, cfg),
        app: AppSnapshot::initial(pid.0 as u64, cfg.state_bytes),
        timers: BTreeMap::new(),
        snapshots: BTreeMap::new(),
        finalized: 0,
        ctx,
    };
    let mut out = Vec::new();
    let mut next_msg: u64 = 0;
    'main: loop {
        // Fire every timer whose deadline has passed — checked both on
        // timeout wakeups and between messages, so heavy traffic cannot
        // starve them.
        while let Some((tag, at)) = node.next_timer() {
            if Instant::now() < at {
                break;
            }
            node.timers.remove(&tag);
            node.proto.on_timer(tag, &mut out);
            node.carry_out(&mut out);
        }
        let timeout = node
            .next_timer()
            .map(|(_, at)| at.saturating_duration_since(Instant::now()))
            .unwrap_or(Duration::from_millis(50));
        let input = match node.ctx.inbox.recv_timeout(timeout) {
            Ok(input) => input,
            Err(RecvTimeoutError::Timeout) => continue 'main,
            Err(RecvTimeoutError::Disconnected) => break 'main,
        };
        let handled = match input {
            NodeInput::Net(src, raw) => match decode_envelope(raw) {
                Ok((env, _)) => node.receive(src, env, &mut out),
                Err(e) => Err(e.to_string()),
            },
            NodeInput::Cmd(Command::SendApp { dst, len }) => {
                // Globally unique message id: node id in the high bits.
                // These do not ascend across nodes, so the observer inserts
                // each at its sorted position — O(messages so far) per send
                // under the shared lock (`GlobalObserver::on_send`). Fine
                // for runs of thousands of messages; 200 000 take 16 s.
                let msg_id = MsgId(((pid.0 as u64) << 40) | next_msg);
                next_msg += 1;
                let payload = AppPayload { id: msg_id.0, len };
                // Record the send before the bytes can possibly be
                // received (observer lock orders it).
                node.ctx.observer.lock().on_send(pid, msg_id);
                node.app.apply_send(payload);
                let env = node.proto.wrap_app(dst, msg_id, payload, &mut out);
                out.push(ProtoAction::Send { dst, env });
                Ok(())
            }
            NodeInput::Cmd(Command::Checkpoint) => {
                node.proto.initiate_checkpoint(&mut out);
                Ok(())
            }
            NodeInput::Cmd(Command::Shutdown) => break 'main,
        };
        if let Err(detail) = handled {
            let _ = node.ctx.status.send(StatusEvent::Error { pid, detail });
            break 'main;
        }
        node.carry_out(&mut out);
    }
    let stopped = StatusEvent::Stopped { pid, csn: node.proto.csn(), finalized: node.finalized };
    let _ = node.ctx.status.send(stopped);
}

fn to_std(d: ocpt_sim::SimDuration) -> Duration {
    Duration::from_nanos(d.as_nanos())
}
