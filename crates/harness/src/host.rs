//! One process of a run, and the one interpreter of [`ProtoAction`].
//!
//! A [`Host`] holds what is the same on every substrate: the protocol
//! instance, the application state (now and one event back, for a cut
//! that excludes its trigger), each checkpoint's write progress and the
//! application state at each checkpoint's cut. It is the only code outside
//! the protocol crates that calls a protocol's handlers or reads its
//! actions.
//!
//! What differs per substrate goes through the [`Backend`] the driver
//! implements: the wire, tagged timers, the storage connection, the
//! durable store and the observer/trace/counter hooks. The simulator
//! ([`crate::runner`]) and the threaded runtime (`ocpt-runtime`) are the
//! two backends.
//!
//! Durability is decided here, once: a checkpoint is durable when it is
//! complete and every write it will issue is in — including a log write
//! issued after `Complete`
//! ([`CheckpointProtocol::logs_after_complete`]).

use std::collections::BTreeMap;

use bytes::Bytes;
use ocpt_core::{
    plan_recovery, AppPayload, AppSnapshot, CheckpointProtocol, EnvTelemetry, OcptProcess,
    ProtoAction,
};
use ocpt_sim::{MsgId, ProcessId, SimDuration, SimTime};
use ocpt_storage::StoredCheckpoint;

/// Which of a checkpoint's writes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WriteKind {
    /// The tentative state image.
    State,
    /// Auxiliary data: the message log, or a baseline's channel state.
    Extra,
}

/// A stable-storage write a host asks its backend to carry out. The
/// backend hands it back through [`Host::write_done`] once it is in.
#[derive(Debug)]
pub struct Write {
    /// Writing process.
    pub pid: ProcessId,
    /// Checkpoint the write belongs to.
    pub seq: u64,
    /// State or auxiliary data.
    pub kind: WriteKind,
    /// The encoded bytes kept in the durable store.
    pub blob: Bytes,
    /// Bytes charged to the storage (the declared size, not `blob.len()`).
    pub bytes: u64,
}

/// What an outgoing envelope carries.
#[derive(Clone, Copy, Debug)]
pub enum Traffic {
    /// A fresh application message.
    App(MsgId, AppPayload),
    /// Protocol control traffic; the backend names the message.
    Ctrl,
    /// A logged payload re-injected by recovery; the backend names it.
    Resend(AppPayload),
}

/// An envelope a host hands its backend to put on the wire.
#[derive(Debug)]
pub struct Outgoing<Env> {
    /// Sender.
    pub src: ProcessId,
    /// Receiver.
    pub dst: ProcessId,
    /// The envelope.
    pub env: Env,
    /// What it carries.
    pub traffic: Traffic,
    /// Wire size: headers, piggyback and payload.
    pub bytes: u64,
    /// Trace classification; default unless the backend is tracing.
    pub tel: EnvTelemetry,
}

/// A protocol moment a backend may observe, trace or count.
#[derive(Clone, Copy, Debug)]
pub enum Note {
    /// A tentative snapshot of checkpoint `seq` was taken.
    Snapshot {
        /// Checkpoint.
        seq: u64,
    },
    /// The cut of checkpoint `seq` sits `back` events before the present.
    Cut {
        /// Checkpoint.
        seq: u64,
        /// Events to step back.
        back: u32,
    },
    /// Checkpoint `seq` completed locally.
    Complete {
        /// Checkpoint.
        seq: u64,
    },
    /// A forced checkpoint delayed the message being processed.
    Forced,
    /// An application message was delivered, before the protocol's
    /// post-delivery step.
    AppRecv {
        /// Sender.
        src: ProcessId,
        /// The message.
        id: MsgId,
        /// Its trace classification.
        tel: EnvTelemetry,
    },
    /// A control message was handled.
    CtrlRecv {
        /// Sender.
        src: ProcessId,
        /// Its trace classification.
        tel: EnvTelemetry,
    },
}

/// The substrate under a [`Host`].
pub trait Backend<Env> {
    /// Put an envelope on the wire.
    fn transmit(&mut self, now: SimTime, out: Outgoing<Env>);
    /// Arm `pid`'s timer `tag` to fire after `delay`, replacing a live one;
    /// the driver fires it through [`Host::fire_timer`].
    fn set_timer(&mut self, pid: ProcessId, tag: u64, delay: SimDuration);
    /// Disarm `pid`'s timer `tag`, if armed.
    fn cancel_timer(&mut self, pid: ProcessId, tag: u64);
    /// Start a storage write.
    fn submit_write(&mut self, now: SimTime, write: Write);
    /// Keep a checkpoint that just became durable.
    fn store(&mut self, ckpt: StoredCheckpoint);
    /// Whether notes want envelope telemetry (the trace is on).
    fn tracing(&self) -> bool {
        false
    }
    /// Observe, trace or count a protocol moment.
    fn note(&mut self, now: SimTime, pid: ProcessId, note: Note);
}

/// One checkpoint's writes, as far as they have got.
#[derive(Debug, Default)]
struct Progress {
    snapshot: Option<AppSnapshot>,
    state_issued: bool,
    state_blob: Option<Bytes>,
    extra_issued: bool,
    extra_blob: Option<Bytes>,
    completed: bool,
    storage_done_notified: bool,
    durable: bool,
}

impl Progress {
    /// Every write issued so far is in.
    fn writes_in(&self) -> bool {
        (!self.state_issued || self.state_blob.is_some())
            && (!self.extra_issued || self.extra_blob.is_some())
    }
}

/// One process: its protocol instance and the state around it.
pub struct Host<P: CheckpointProtocol> {
    pid: ProcessId,
    proto: P,
    /// Declared process-image size: the initial state's, and what a state
    /// write is charged.
    state_bytes: u64,
    app: AppSnapshot,
    /// Application state before the most recent event.
    prev_app: AppSnapshot,
    progress: BTreeMap<u64, Progress>,
    cut_states: BTreeMap<u64, AppSnapshot>,
    /// Action buffer every handler fills and `execute` drains (handlers
    /// never nest: a backend only schedules).
    out: Vec<ProtoAction<P::Env>>,
}

impl<P: CheckpointProtocol> Host<P> {
    /// Process `pid` running `proto`, in its initial application state.
    pub fn new(pid: ProcessId, proto: P, state_bytes: u64) -> Self {
        let app = AppSnapshot::initial(pid.0 as u64, state_bytes);
        Host {
            pid,
            proto,
            state_bytes,
            app,
            prev_app: app,
            progress: BTreeMap::new(),
            cut_states: BTreeMap::new(),
            out: Vec::new(),
        }
    }

    /// The protocol instance.
    pub fn protocol(&self) -> &P {
        &self.proto
    }

    /// The current application state.
    pub fn app(&self) -> AppSnapshot {
        self.app
    }

    /// Application state at each checkpoint's cut, by checkpoint.
    pub fn cut_states(&self) -> &BTreeMap<u64, AppSnapshot> {
        &self.cut_states
    }

    /// Send application message `id` to `dst`.
    pub fn send_app<B: Backend<P::Env>>(
        &mut self,
        b: &mut B,
        now: SimTime,
        dst: ProcessId,
        id: MsgId,
        payload: AppPayload,
    ) {
        let mut out = std::mem::take(&mut self.out);
        let env = self.proto.wrap_app(dst, id, payload, &mut out);
        self.prev_app = self.app;
        self.app.apply_send(payload);
        self.transmit(b, now, dst, env, Traffic::App(id, payload));
        self.execute(b, now, &mut out);
        self.out = out;
    }

    /// Deliver envelope `id` from `src`: the protocol's arrival step, the
    /// application's processing of any payload, then the post-delivery
    /// step. `Err` is a protocol invariant violation; the actions of the
    /// failing step are dropped.
    pub fn deliver<B: Backend<P::Env>>(
        &mut self,
        b: &mut B,
        now: SimTime,
        src: ProcessId,
        id: MsgId,
        env: P::Env,
    ) -> Result<(), String> {
        let mut out = std::mem::take(&mut self.out);
        let res = self.arrive(b, now, src, id, env, &mut out);
        out.clear();
        self.out = out;
        res
    }

    fn arrive<B: Backend<P::Env>>(
        &mut self,
        b: &mut B,
        now: SimTime,
        src: ProcessId,
        id: MsgId,
        env: P::Env,
        out: &mut Vec<ProtoAction<P::Env>>,
    ) -> Result<(), String> {
        let tel =
            if b.tracing() { self.proto.env_telemetry(&env) } else { EnvTelemetry::default() };
        let delivered = self.proto.on_arrival(src, id, env, out)?;
        self.execute(b, now, out);
        let Some(payload) = delivered else {
            b.note(now, self.pid, Note::CtrlRecv { src, tel });
            return Ok(());
        };
        b.note(now, self.pid, Note::AppRecv { src, id, tel });
        self.prev_app = self.app;
        self.app.apply_recv(payload);
        self.proto.after_delivery(src, id, payload, out)?;
        self.execute(b, now, out);
        Ok(())
    }

    /// Timer `tag`, armed through [`Backend::set_timer`], fired.
    pub fn fire_timer<B: Backend<P::Env>>(&mut self, b: &mut B, now: SimTime, tag: u64) {
        self.handle(b, now, |p, out| p.on_timer(tag, out));
    }

    /// The driver's periodic checkpoint trigger.
    pub fn initiate<B: Backend<P::Env>>(&mut self, b: &mut B, now: SimTime) {
        self.handle(b, now, |p, out| p.initiate(out));
    }

    /// A write submitted through [`Backend::submit_write`] is in.
    pub fn write_done<B: Backend<P::Env>>(&mut self, b: &mut B, now: SimTime, w: Write) {
        let seq = w.seq;
        let p = self.progress.entry(seq).or_default();
        match w.kind {
            WriteKind::State => p.state_blob = Some(w.blob),
            WriteKind::Extra => p.extra_blob = Some(w.blob),
        }
        if p.writes_in() && !p.storage_done_notified {
            p.storage_done_notified = true;
            self.handle(b, now, |p, out| p.on_storage_done(seq, out));
        }
        self.maybe_durable(b, now, seq);
    }

    /// Roll back to the recovery line: the protocol to its state right
    /// after finalizing `line`, the application to what `durable` (this
    /// process's checkpoint `line`; `None` at line 0) restores, and every
    /// checkpoint above the line forgotten. Returns the application events
    /// undone.
    pub fn restore(
        &mut self,
        line: u64,
        durable: Option<&StoredCheckpoint>,
    ) -> Result<u64, String> {
        self.proto.restore_from_line(line)?;
        let restored = match durable {
            Some(c) => {
                plan_recovery(line, c.state.clone(), c.log.clone())
                    .map_err(|e| format!("{}: {e}", self.pid))?
                    .restored
            }
            None => AppSnapshot::initial(self.pid.0 as u64, self.state_bytes),
        };
        self.progress.retain(|&seq, _| seq <= line);
        self.cut_states.retain(|&seq, _| seq <= line);
        let lost = self.app.counter - restored.counter.min(self.app.counter);
        self.app = restored;
        self.prev_app = restored;
        Ok(lost)
    }

    /// Re-inject a logged payload to `dst` after a rollback: the send is
    /// already part of the restored state, so only the wire sees it again.
    pub fn resend<B: Backend<P::Env>>(
        &mut self,
        b: &mut B,
        now: SimTime,
        dst: ProcessId,
        payload: AppPayload,
    ) {
        if let Some(env) = self.proto.replay_envelope(payload) {
            self.transmit(b, now, dst, env, Traffic::Resend(payload));
        }
    }

    /// Run one protocol handler and carry out the actions it emitted.
    fn handle<B: Backend<P::Env>>(
        &mut self,
        b: &mut B,
        now: SimTime,
        handler: impl FnOnce(&mut P, &mut Vec<ProtoAction<P::Env>>),
    ) {
        let mut out = std::mem::take(&mut self.out);
        handler(&mut self.proto, &mut out);
        self.execute(b, now, &mut out);
        self.out = out;
    }

    fn transmit<B: Backend<P::Env>>(
        &self,
        b: &mut B,
        now: SimTime,
        dst: ProcessId,
        env: P::Env,
        traffic: Traffic,
    ) {
        let bytes = self.proto.env_wire_bytes(&env);
        let tel =
            if b.tracing() { self.proto.env_telemetry(&env) } else { EnvTelemetry::default() };
        b.transmit(now, Outgoing { src: self.pid, dst, env, traffic, bytes, tel });
    }

    /// Carry out (and drain) the protocol's actions.
    fn execute<B: Backend<P::Env>>(
        &mut self,
        b: &mut B,
        now: SimTime,
        out: &mut Vec<ProtoAction<P::Env>>,
    ) {
        let pid = self.pid;
        for a in out.drain(..) {
            match a {
                ProtoAction::Snapshot { seq } => {
                    self.progress.entry(seq).or_default().snapshot = Some(self.app);
                    b.note(now, pid, Note::Snapshot { seq });
                }
                ProtoAction::MarkCut { seq, back } => {
                    b.note(now, pid, Note::Cut { seq, back });
                    let state = if back == 0 { self.app } else { self.prev_app };
                    self.cut_states.insert(seq, state);
                }
                ProtoAction::FlushState { seq } => {
                    let p = self.progress.entry(seq).or_default();
                    p.state_issued = true;
                    let blob = p.snapshot.expect("FlushState before Snapshot").encode();
                    let bytes = self.state_bytes;
                    b.submit_write(now, Write { pid, seq, kind: WriteKind::State, blob, bytes });
                }
                ProtoAction::FlushExtra { seq, bytes, log } => {
                    self.progress.entry(seq).or_default().extra_issued = true;
                    let blob = log.map(|l| l.encode()).unwrap_or_default();
                    b.submit_write(now, Write { pid, seq, kind: WriteKind::Extra, blob, bytes });
                }
                ProtoAction::Complete { seq } => {
                    let p = self.progress.entry(seq).or_default();
                    if !p.completed {
                        p.completed = true;
                        b.note(now, pid, Note::Complete { seq });
                        self.maybe_durable(b, now, seq);
                    }
                }
                ProtoAction::Send { dst, env } => self.transmit(b, now, dst, env, Traffic::Ctrl),
                ProtoAction::SetTimer { tag, delay } => b.set_timer(pid, tag, delay),
                ProtoAction::CancelTimer { tag } => b.cancel_timer(pid, tag),
                ProtoAction::ForcedBeforeProcessing { .. } => b.note(now, pid, Note::Forced),
            }
        }
    }

    /// Hand checkpoint `seq` to the durable store once it is complete and
    /// every write it will issue is in.
    fn maybe_durable<B: Backend<P::Env>>(&mut self, b: &mut B, now: SimTime, seq: u64) {
        let logs_late = self.proto.logs_after_complete();
        let Some(p) = self.progress.get_mut(&seq) else { return };
        let all_issued = p.state_issued && (p.extra_issued || !logs_late);
        if p.durable || !p.completed || !all_issued || !p.writes_in() {
            return;
        }
        p.durable = true;
        b.store(StoredCheckpoint {
            pid: self.pid,
            csn: seq,
            state: p.state_blob.take().unwrap_or_default(),
            log: p.extra_blob.take().unwrap_or_default(),
            durable_at: now,
        });
    }
}

impl Host<OcptProcess> {
    /// Initiate an OCPT checkpoint now, without the per-interval guard of
    /// [`Host::initiate`].
    pub fn initiate_now<B: Backend<ocpt_core::Envelope>>(&mut self, b: &mut B, now: SimTime) {
        self.handle(b, now, |p, out| {
            p.initiate_checkpoint(out);
        });
    }
}
