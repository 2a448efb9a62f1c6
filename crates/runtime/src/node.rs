//! One node of the threaded cluster: an OS thread driving an
//! [`OcptProcess`] through the harness's [`Host`] over real channels, real
//! bytes and a wall clock.
//!
//! The node is the host's thread [`Backend`]: envelopes are encoded with
//! `ocpt_core::wire` and decoded on receipt, the protocol's timers
//! (convergence, jittered flush, deferred write) are `recv_timeout` against
//! `Instant`s, a write is in as soon as it is submitted, and the shared
//! consistency observer is fed in true arrival order — so the test-suite's
//! Theorem 2 check runs against genuine thread interleavings. Threads have
//! no simulated clock: every instant handed to the host is zero.
//!
//! Each node has a **single** `std::sync::mpsc` inbox carrying both peer
//! network bytes and driver commands ([`Input`]); merging the streams into
//! one channel preserves arrival order without a multi-channel `select!`.

use std::collections::{BTreeMap, VecDeque};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use ocpt_causality::GlobalObserver;
use ocpt_core::{
    decode_envelope, encode_envelope, AppPayload, Csn, Envelope, OcptConfig, OcptProcess,
};
use ocpt_harness::{Backend, Host, Note, Outgoing, Traffic, Write};
use ocpt_sim::{MsgId, ProcessId, SimDuration, SimTime};
use ocpt_storage::{CheckpointStore, StoredCheckpoint};

use crate::sync::Mutex;

/// Everything that can arrive on a node's inbox.
pub(crate) enum Input {
    /// Encoded envelope bytes from a peer.
    Net(ProcessId, Bytes),
    /// Send an application message of `len` bytes to `dst`.
    SendApp { dst: ProcessId, len: u32 },
    /// Initiate a checkpoint now.
    Checkpoint,
    /// Stop the node thread.
    Shutdown,
}

/// Node → driver status events.
pub(crate) enum Status {
    /// A node's checkpoint is durable in the stable store.
    Durable(ProcessId, Csn),
    /// A protocol error (fatal; tests assert it never fires).
    Error(String),
}

/// What the cluster hands a node thread.
pub(crate) struct Wiring {
    pub(crate) pid: ProcessId,
    pub(crate) n: usize,
    pub(crate) inbox: Receiver<Input>,
    /// Peer inboxes, indexed by destination.
    pub(crate) peers: Vec<Sender<Input>>,
    pub(crate) status: Sender<Status>,
    pub(crate) store: Arc<Mutex<CheckpointStore>>,
    pub(crate) observer: Arc<Mutex<GlobalObserver>>,
}

/// The thread side of the host boundary.
struct Node {
    wiring: Wiring,
    /// Armed protocol timers: wall-clock deadline by tag.
    timers: BTreeMap<u64, Instant>,
    /// Submitted writes, to hand back to the host.
    written: VecDeque<Write>,
}

impl Node {
    /// The armed timer that expires first.
    fn next_timer(&self) -> Option<(u64, Instant)> {
        self.timers.iter().map(|(&tag, &at)| (tag, at)).min_by_key(|&(_, at)| at)
    }

    /// Hand every submitted write back to the host.
    fn settle(&mut self, host: &mut Host<OcptProcess>) {
        while let Some(w) = self.written.pop_front() {
            host.write_done(self, SimTime::ZERO, w);
        }
    }
}

impl Backend<Envelope> for Node {
    fn transmit(&mut self, _now: SimTime, out: Outgoing<Envelope>) {
        let w = &self.wiring;
        if let Traffic::App(id, _) = out.traffic {
            // Record the send before the bytes can possibly be received
            // (the observer lock orders it).
            w.observer.lock().on_send(out.src, id);
        }
        let raw = encode_envelope(&out.env, w.n);
        let _ = w.peers[out.dst.index()].send(Input::Net(out.src, raw));
    }

    fn set_timer(&mut self, _pid: ProcessId, tag: u64, delay: SimDuration) {
        self.timers.insert(tag, Instant::now() + Duration::from_nanos(delay.as_nanos()));
    }

    fn cancel_timer(&mut self, _pid: ProcessId, tag: u64) {
        self.timers.remove(&tag);
    }

    fn submit_write(&mut self, _now: SimTime, write: Write) {
        self.written.push_back(write);
    }

    fn store(&mut self, ckpt: StoredCheckpoint) {
        let (pid, csn) = (ckpt.pid, ckpt.csn);
        self.wiring.store.lock().put(ckpt);
        let _ = self.wiring.status.send(Status::Durable(pid, csn));
    }

    fn note(&mut self, now: SimTime, pid: ProcessId, note: Note) {
        match note {
            Note::Cut { seq, back } => {
                let mut obs = self.wiring.observer.lock();
                let pos = obs.positions()[pid.index()] - back as u64;
                obs.on_finalize(pid, seq, pos, now);
            }
            Note::AppRecv { id, .. } => {
                self.wiring.observer.lock().on_recv(pid, id);
            }
            _ => {}
        }
    }
}

impl Wiring {
    /// The node main loop. Runs until [`Input::Shutdown`].
    pub(crate) fn run(self, cfg: OcptConfig) {
        let (pid, now) = (self.pid, SimTime::ZERO);
        let mut host = Host::new(pid, OcptProcess::new(pid, self.n, cfg), cfg.state_bytes);
        let mut node = Node { wiring: self, timers: BTreeMap::new(), written: VecDeque::new() };
        let mut next_msg: u64 = 0;
        loop {
            // Fire every timer whose deadline has passed — checked both on
            // timeout wakeups and between messages, so heavy traffic
            // cannot starve them.
            while let Some((tag, _)) = node.next_timer().filter(|&(_, at)| at <= Instant::now()) {
                node.timers.remove(&tag);
                host.fire_timer(&mut node, now, tag);
                node.settle(&mut host);
            }
            let timeout = node.next_timer().map_or(Duration::from_millis(50), |(_, at)| {
                at.saturating_duration_since(Instant::now())
            });
            let handled = match node.wiring.inbox.recv_timeout(timeout) {
                Ok(Input::Net(src, raw)) => match decode_envelope(raw) {
                    Ok((env, _)) => {
                        // An application message's id travels as its
                        // payload id.
                        let id = match &env {
                            Envelope::App { payload, .. } => MsgId(payload.id),
                            Envelope::Ctrl(_) => MsgId(u64::MAX),
                        };
                        host.deliver(&mut node, now, src, id, env)
                    }
                    Err(e) => Err(e.to_string()),
                },
                Ok(Input::SendApp { dst, len }) => {
                    // Globally unique message id: node id in the high
                    // bits. These do not ascend across nodes, so the
                    // observer inserts each at its sorted position —
                    // O(messages so far) per send under the shared lock
                    // (`GlobalObserver::on_send`). Fine for runs of
                    // thousands of messages; 200 000 take 16 s.
                    let id = MsgId(((pid.0 as u64) << 40) | next_msg);
                    next_msg += 1;
                    host.send_app(&mut node, now, dst, id, AppPayload { id: id.0, len });
                    Ok(())
                }
                Ok(Input::Checkpoint) => {
                    host.initiate_now(&mut node, now);
                    Ok(())
                }
                Err(RecvTimeoutError::Timeout) => Ok(()),
                Ok(Input::Shutdown) | Err(RecvTimeoutError::Disconnected) => return,
            };
            if let Err(detail) = handled {
                let _ = node.wiring.status.send(Status::Error(detail));
                return;
            }
            node.settle(&mut host);
        }
    }
}
