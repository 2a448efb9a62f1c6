//! The simulation driver: runs any [`CheckpointProtocol`] over the
//! deterministic DES kernel, the stable-storage model and a workload,
//! collecting every metric the experiments report.
//!
//! One `Runner` = one run = one (algorithm, workload, seed) triple. Each
//! process is a [`Host`], which interprets the protocol's actions; the
//! runner's `World` is their [`Backend`] and owns everything the protocol
//! must not see: the virtual clock, the network, the storage server and
//! its per-process connections, the workload, faults and recovery, the
//! trace and the omniscient consistency observer.

use std::collections::{BTreeMap, VecDeque};

use ocpt_causality::GlobalObserver;
use ocpt_core::{wire_cost, AppPayload, AppSnapshot, CheckpointProtocol, EntryKind, MessageLog};
use ocpt_metrics::{Counters, Summary};
use ocpt_sim::{
    Event, FaultPlan, MsgId, Network, ProcessId, Scheduler, SchedulerKind, SimConfig, SimDuration,
    SimRng, SimTime, StorageReqId, TimerId, Trace, TraceKind,
};
use ocpt_storage::{CheckpointStore, StorageConfig, StorageServer, StoredCheckpoint};

use crate::host::{Backend, Host, Note, Outgoing, Traffic, Write, WriteKind};
use crate::workload::{WorkloadSpec, WorkloadState};

/// Storage wakeups serve the shared server, but every event needs a
/// target process; they are addressed here (and re-armed when this
/// process's crash purges its events).
const WAKEUP_ADDRESSEE: ProcessId = ProcessId::P0;

/// Tick discriminators.
const TICK_SEND: u64 = 1;
const TICK_CKPT: u64 = 2;

/// Simulated memory bandwidth for state capture (bytes/sec); used to charge
/// the latency of taking a snapshot (and of CIC's forced checkpoints before
/// message processing).
const CAPTURE_BW_BPS: f64 = 4.0e9;

/// Configuration of one run.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// System size, seed, delays, FIFO-ness, horizon.
    pub sim: SimConfig,
    /// Application traffic.
    pub workload: WorkloadSpec,
    /// Period of driver-triggered checkpoint initiations;
    /// `SimDuration::MAX` disables checkpointing entirely.
    pub checkpoint_interval: SimDuration,
    /// Offset each process's initiation phase by `i/n` of the interval
    /// (used for uncoordinated checkpointing; coordinated algorithms
    /// ignore non-coordinator ticks anyway).
    pub stagger_initiation: bool,
    /// Stable-storage server parameters.
    pub storage: StorageConfig,
    /// Declared size of a process state image.
    pub state_bytes: u64,
    /// Workload generation stops at this virtual time; the run then
    /// quiesces (protocol timers and control traffic may continue).
    pub workload_duration: SimDuration,
    /// Injected failures.
    pub faults: FaultPlan,
    /// Stop the run at the first crash (recovery analysed offline).
    pub stop_on_crash: bool,
    /// Garbage-collect durable checkpoints older than the recovery line
    /// (the paper: "all checkpoints taken before the latest committed
    /// global checkpoint can be deleted to save space"). Off by default so
    /// post-run analysis can inspect the full history.
    pub gc_old_checkpoints: bool,
    /// Record a trace (event-by-event; for tests and examples).
    pub trace: bool,
    /// Feed the consistency observer. Costs 48 bytes per message, an O(N)
    /// clock copy and merge per message, and 2 N² words of per-process
    /// clocks. On by default; `scale_config` turns it off above N = 1 000,
    /// where the N² term rules.
    pub observe: bool,
    /// Which event-queue implementation drives the run (the timing wheel
    /// by default; the reference heap exists for differential testing —
    /// both produce byte-identical runs).
    pub scheduler: SchedulerKind,
}

impl RunConfig {
    /// A reasonable default run: given size and seed, uniform-mesh
    /// workload, 1 s checkpoint interval, 5 s of workload.
    pub fn new(n: usize, seed: u64) -> Self {
        RunConfig {
            sim: SimConfig::new(n, seed).with_horizon(SimDuration::from_secs(60)),
            workload: WorkloadSpec::uniform_mesh(SimDuration::from_millis(5)),
            checkpoint_interval: SimDuration::from_secs(1),
            // Decentralized algorithms have no synchronized clocks, so the
            // realistic default offsets each process's initiation phase by
            // i/n of the interval. Coordinator-based algorithms only act on
            // the coordinator's tick (phase 0), so this is harmless there.
            stagger_initiation: true,
            storage: StorageConfig::default_nfs(),
            state_bytes: 4 * 1024 * 1024,
            workload_duration: SimDuration::from_secs(5),
            faults: FaultPlan::none(),
            stop_on_crash: true,
            gc_old_checkpoints: false,
            trace: false,
            observe: true,
            scheduler: SchedulerKind::default(),
        }
    }
}

/// Run-loop control flow returned by event dispatch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Flow {
    Continue,
    Break,
}

/// Storage-side results of a run.
#[derive(Clone, Copy, Debug)]
pub struct StorageReport {
    /// Peak concurrent writers at the stable storage — the paper's
    /// headline contention number.
    pub peak_writers: i64,
    /// Time-weighted mean concurrent writers.
    pub mean_writers: f64,
    /// Total time ≥ 2 writers were active.
    pub contended_time: SimDuration,
    /// Sum over writes of (actual − contention-free) latency.
    pub total_stall: SimDuration,
    /// Mean write latency in seconds.
    pub write_latency_mean: f64,
    /// Max write latency in seconds.
    pub write_latency_max: f64,
    /// Total bytes written.
    pub total_bytes: u64,
    /// Total write requests.
    pub total_requests: u64,
}

/// Per-round completion statistics, one entry per checkpoint round the
/// run observed (surviving recovery rollback: rounds discarded by a
/// rollback past them are dropped with the rest of their bookkeeping).
/// The observatory's health reports build their round-latency
/// percentiles from these.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RoundStat {
    /// Checkpoint round (CSN).
    pub seq: u64,
    /// Virtual time of the first tentative snapshot of the round.
    pub first_snapshot_ns: u64,
    /// Virtual time of the last per-process completion seen.
    pub last_complete_ns: u64,
    /// Processes that completed the round (== n when globally complete).
    pub completes: usize,
}

impl RoundStat {
    /// First snapshot → last completion, nanoseconds (0 when the clocks
    /// are inconsistent, which a correct run never produces).
    pub fn latency_ns(&self) -> u64 {
        self.last_complete_ns.saturating_sub(self.first_snapshot_ns)
    }
}

/// Dispatched simulator events by kind. Plain integers bumped once per
/// event in the run loop (the string-keyed [`Counters`] map is far too
/// slow for a per-event tally).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EventCensus {
    /// Message deliveries (application and control).
    pub deliver: u64,
    /// Workload and checkpoint-initiation ticks.
    pub tick: u64,
    /// Protocol timers that fired.
    pub timer: u64,
    /// Storage wakeups (each pumps the shared server once).
    pub storage_done: u64,
    /// Injected crashes and recoveries.
    pub fault: u64,
}

impl EventCensus {
    fn count<M>(&mut self, ev: &Event<M>) {
        *match ev {
            Event::Deliver { .. } => &mut self.deliver,
            Event::Tick { .. } => &mut self.tick,
            Event::Timer { .. } => &mut self.timer,
            Event::StorageDone { .. } => &mut self.storage_done,
            Event::Crash { .. } | Event::Recover { .. } => &mut self.fault,
        } += 1;
    }

    /// All dispatched events.
    pub fn total(&self) -> u64 {
        self.deliver + self.tick + self.timer + self.storage_done + self.fault
    }
}

/// Everything a run produces.
#[derive(Debug)]
pub struct RunResult {
    /// Algorithm name.
    pub algo: &'static str,
    /// Number of processes.
    pub n: usize,
    /// The seed the run was driven by (trace/metrics provenance).
    pub seed: u64,
    /// The event-queue implementation that drove the run.
    pub scheduler: SchedulerKind,
    /// Driver counters merged with per-process protocol counters.
    pub counters: Counters,
    /// Application messages sent.
    pub app_messages: u64,
    /// Application payload bytes sent.
    pub app_payload_bytes: u64,
    /// Bytes added to application messages by piggybacks.
    pub piggyback_bytes: u64,
    /// Protocol (control) messages sent.
    pub ctrl_messages: u64,
    /// Bytes of control traffic.
    pub ctrl_bytes: u64,
    /// Virtual time when the run quiesced.
    pub makespan: SimTime,
    /// Total time application sends were blocked by the protocol.
    pub blocked_time: SimDuration,
    /// Total pre-processing delay from forced checkpoints.
    pub forced_delay: SimDuration,
    /// Checkpoint completion latency (first snapshot of round → last
    /// completion of round), seconds, over complete rounds.
    pub ckpt_latency: Summary,
    /// Per-round completion statistics, ascending by `seq` (the raw
    /// material `ckpt_latency` summarizes, kept per round for the
    /// observatory's percentile reports).
    pub round_stats: Vec<RoundStat>,
    /// Rounds completed by every process.
    pub complete_rounds: u64,
    /// Greatest sequence number durable on all processes.
    pub recovery_line: u64,
    /// Peak bytes staged in volatile memory.
    pub staging_peak: u64,
    /// Storage metrics.
    pub storage: StorageReport,
    /// The consistency oracle (when `observe` was on).
    pub observer: Option<GlobalObserver>,
    /// Durable checkpoint store (blobs for recovery analysis).
    pub store: CheckpointStore,
    /// Final application state per process.
    pub app_final: Vec<AppSnapshot>,
    /// Ground-truth application state at each checkpoint's cut,
    /// keyed by `(pid, seq)` — what a correct recovery must restore.
    /// Ordered map: consumers may iterate it straight into reports.
    pub cut_states: BTreeMap<(u32, u64), AppSnapshot>,
    /// Live protocol instances' snapshot of checkpoint counts etc. is in
    /// `counters`; the trace is here when enabled.
    pub trace: Trace,
    /// First crash, if any was injected.
    pub crash: Option<(ProcessId, SimTime)>,
    /// Fatal protocol error (impossible paper sub-case reached) — tests
    /// assert this is `None`.
    pub protocol_error: Option<String>,
    /// Simulator events dispatched over the whole run.
    pub sim_events: u64,
    /// The same events by kind (an event popped past the horizon ends the
    /// run undispatched, so `total()` can trail `sim_events` by one).
    pub event_census: EventCensus,
    /// Peak in-flight event population (high-water mark of the
    /// scheduler's pending count). Kind-independent: both scheduler
    /// implementations observe the same pending count at every step.
    pub peak_pending: u64,
    /// High-water mark of the timing wheel's payload-arena occupancy —
    /// peak physical slots, including tombstoned corpses awaiting lazy
    /// reclamation. Implementation telemetry: 0 under the reference
    /// heap, and `>= peak_pending` under the wheel.
    pub arena_hwm: u64,
    /// Events scheduled into the past and clamped to `now` (release-build
    /// timing-model bug detector; always 0 in debug builds, which panic).
    pub clamped_events: u64,
    /// In-flight message deliveries discarded because their destination
    /// crashed (fail-stop) before they arrived.
    pub messages_lost_at_crash: u64,
    /// Wall-clock seconds the run took (self-measurement, not sim time).
    pub wall_secs: f64,
}

impl RunResult {
    /// Simulator throughput: events dispatched per wall-clock second.
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.sim_events as f64 / self.wall_secs
        } else {
            0.0
        }
    }

    /// Serialize the recorded trace as versioned `ocpt-trace` JSONL
    /// (DESIGN.md §8). With tracing disabled this is a header declaring
    /// zero events. Byte-deterministic: a pure function of
    /// `(config, seed)`, regardless of `--jobs` or [`SchedulerKind`].
    pub fn trace_jsonl(&self) -> String {
        let meta =
            ocpt_telemetry::TraceMeta { algo: self.algo.to_string(), n: self.n, seed: self.seed };
        ocpt_telemetry::to_jsonl(&meta, self.trace.events())
    }

    /// The run's metrics snapshot as one deterministic JSON object:
    /// headline numbers, the storage report, checkpoint-latency summary
    /// and every counter. Wall-clock self-measurements (`wall_secs`,
    /// events/sec) are deliberately excluded so the snapshot, like the
    /// trace, is a pure function of `(config, seed)` — except the
    /// `scheduler` stamp and `arena_hwm`, which identify (and are
    /// telemetry of) the event-queue implementation that drove the run.
    pub fn metrics_json(&self) -> String {
        use ocpt_telemetry::json::Obj;
        let mut counters = Obj::new();
        for (k, v) in self.counters.iter() {
            counters = counters.u64(k, v);
        }
        let latency = Obj::new()
            .u64("count", self.ckpt_latency.count())
            .f64("mean_s", self.ckpt_latency.mean())
            .f64("min_s", self.ckpt_latency.min())
            .f64("max_s", self.ckpt_latency.max())
            .f64("stddev_s", self.ckpt_latency.stddev())
            .finish();
        let storage = Obj::new()
            .u64("peak_writers", self.storage.peak_writers.max(0) as u64)
            .f64("mean_writers", self.storage.mean_writers)
            .f64("contended_s", self.storage.contended_time.as_secs_f64())
            .f64("total_stall_s", self.storage.total_stall.as_secs_f64())
            .f64("write_latency_mean_s", self.storage.write_latency_mean)
            .f64("write_latency_max_s", self.storage.write_latency_max)
            .u64("total_bytes", self.storage.total_bytes)
            .u64("total_requests", self.storage.total_requests)
            .finish();
        let events = Obj::new()
            .u64("deliver", self.event_census.deliver)
            .u64("tick", self.event_census.tick)
            .u64("timer", self.event_census.timer)
            .u64("storage_done", self.event_census.storage_done)
            .u64("fault", self.event_census.fault)
            .finish();
        Obj::new()
            .str("schema", "ocpt-metrics")
            .u64("version", 2)
            .str("algo", self.algo)
            .u64("n", self.n as u64)
            .u64("seed", self.seed)
            .str("scheduler", self.scheduler.name())
            .u64("makespan_ns", self.makespan.as_nanos())
            .u64("app_messages", self.app_messages)
            .u64("app_payload_bytes", self.app_payload_bytes)
            .u64("piggyback_bytes", self.piggyback_bytes)
            .u64("ctrl_messages", self.ctrl_messages)
            .u64("ctrl_bytes", self.ctrl_bytes)
            .f64("blocked_s", self.blocked_time.as_secs_f64())
            .f64("forced_delay_s", self.forced_delay.as_secs_f64())
            .u64("complete_rounds", self.complete_rounds)
            .u64("recovery_line", self.recovery_line)
            .u64("staging_peak", self.staging_peak)
            .u64("sim_events", self.sim_events)
            .u64("peak_pending", self.peak_pending)
            .u64("arena_hwm", self.arena_hwm)
            .raw("events", &events)
            .raw("ckpt_latency", &latency)
            .raw("storage", &storage)
            .raw("counters", &counters.finish())
            .finish()
            + "\n"
    }

    /// Check every complete global checkpoint for consistency against both
    /// oracles. Returns the number of checkpoints verified.
    pub fn verify_consistency(&self) -> Result<u64, String> {
        let obs = self.observer.as_ref().ok_or("run had observe=false")?;
        let mut checked = 0;
        for csn in obs.complete_csns() {
            let report = obs.judge(csn).expect("complete csn must judge");
            if !report.is_consistent() {
                return Err(format!(
                    "S_{csn} inconsistent: {} orphan(s), e.g. {:?}",
                    report.orphans.len(),
                    report.orphans.first()
                ));
            }
            if obs.vclock_consistent(csn) != Some(true) {
                return Err(format!("S_{csn}: vclock oracle disagrees"));
            }
            checked += 1;
        }
        Ok(checked)
    }
}

/// The driver: one [`Host`] per process over one simulated `World`.
pub struct Runner<P: CheckpointProtocol> {
    hosts: Vec<Host<P>>,
    world: World<P::Env>,
}

/// Everything the protocol must not see — the virtual clock, the network,
/// the storage server, the observer, the trace, the workload and the
/// faults — and the simulator's side of the [`Backend`] boundary.
struct World<Env> {
    cfg: RunConfig,
    crashed: Vec<bool>,
    sched: Scheduler<Env>,
    net: Network,
    server: StorageServer,
    /// Instant of the one live storage wakeup in the event queue, if any.
    /// Invariant between events: while a client waits on a write
    /// (`pending_writes` is non-empty), a `StorageDone` is pending at this
    /// instant, no later than 1 ns past `server.next_completion()`.
    wakeup_at: Option<SimTime>,
    /// Inside `pump_storage`: its tail re-arms once, so nested submits
    /// must not.
    pumping: bool,
    store: CheckpointStore,
    observer: Option<GlobalObserver>,
    trace: Trace,
    wl: Vec<WorkloadState>,
    wl_rng: Vec<SimRng>,
    next_msg: u64,
    next_req: u64,
    /// Armed protocol timers per process, by tag.
    timers: Vec<BTreeMap<u64, TimerId>>,
    /// Writes at the server, by request.
    pending_writes: BTreeMap<StorageReqId, Write>,
    /// Each process writes over one connection: at most one of its
    /// requests is at the server; the rest wait here in FIFO order.
    write_queue: Vec<VecDeque<Write>>,
    write_busy: Vec<bool>,
    counters: Counters,
    blocked_since: Vec<Option<SimTime>>,
    blocked_time: SimDuration,
    forced_delay: SimDuration,
    /// Round-latency bookkeeping. `complete_count` is *iterated* in
    /// `finish` and `ckpt_latency` folds floats in that order, so these
    /// must be ordered maps for byte-identical reports.
    first_snapshot_at: BTreeMap<u64, SimTime>,
    last_complete_at: BTreeMap<u64, SimTime>,
    complete_count: BTreeMap<u64, usize>,
    staged_now: u64,
    staging_peak: u64,
    app_payload_bytes: u64,
    piggyback_bytes: u64,
    ctrl_messages: u64,
    ctrl_bytes: u64,
    crash: Option<(ProcessId, SimTime)>,
    protocol_error: Option<String>,
    census: EventCensus,
}

impl<P: CheckpointProtocol> Runner<P> {
    /// Build a runner; `make` constructs the protocol instance per process.
    pub fn new(cfg: RunConfig, make: impl Fn(ProcessId, usize, u64) -> P) -> Self {
        cfg.sim.validate().expect("invalid sim config");
        cfg.faults.validate(cfg.sim.n).expect("invalid fault plan");
        let n = cfg.sim.n;
        let seed = cfg.sim.seed;
        let hosts: Vec<Host<P>> =
            ProcessId::all(n).map(|p| Host::new(p, make(p, n, seed), cfg.state_bytes)).collect();
        let fifo = cfg.sim.fifo || hosts.iter().any(|h| h.protocol().needs_fifo());
        let world = World {
            crashed: vec![false; n],
            sched: Scheduler::with_kind(cfg.scheduler),
            net: Network::new(n, cfg.sim.delay, fifo, seed),
            server: StorageServer::new(cfg.storage),
            wakeup_at: None,
            pumping: false,
            store: CheckpointStore::new(n),
            observer: cfg.observe.then(|| GlobalObserver::new(n)),
            trace: if cfg.trace { Trace::enabled() } else { Trace::disabled() },
            wl: (0..n).map(|_| WorkloadState::new(cfg.workload)).collect(),
            wl_rng: (0..n).map(|i| SimRng::derive(seed, 0x574C ^ (i as u64) << 8)).collect(),
            next_msg: 0,
            next_req: 0,
            timers: vec![BTreeMap::new(); n],
            pending_writes: BTreeMap::new(),
            write_queue: (0..n).map(|_| VecDeque::new()).collect(),
            write_busy: vec![false; n],
            counters: Counters::new(),
            blocked_since: vec![None; n],
            blocked_time: SimDuration::ZERO,
            forced_delay: SimDuration::ZERO,
            first_snapshot_at: BTreeMap::new(),
            last_complete_at: BTreeMap::new(),
            complete_count: BTreeMap::new(),
            staged_now: 0,
            staging_peak: 0,
            app_payload_bytes: 0,
            piggyback_bytes: 0,
            ctrl_messages: 0,
            ctrl_bytes: 0,
            crash: None,
            protocol_error: None,
            census: EventCensus::default(),
            cfg,
        };
        Runner { hosts, world }
    }

    /// Execute the whole run.
    pub fn run(mut self) -> RunResult {
        // simlint: allow(wall-clock, "wall-clock self-measurement of the runner; never feeds simulation state")
        let wall_start = std::time::Instant::now();
        let w = &mut self.world;
        let n = w.cfg.sim.n;
        // Faults.
        for f in w.cfg.faults.faults() {
            w.sched.schedule_at(f.at, Event::Crash { pid: f.pid });
            if let Some(d) = f.down_for {
                w.sched.schedule_at(f.at + d, Event::Recover { pid: f.pid });
            }
        }
        // First workload sends.
        for pid in ProcessId::all(n) {
            let gap = w.wl[pid.index()].next_gap(&mut w.wl_rng[pid.index()]);
            w.sched.schedule_after(gap, Event::Tick { pid, kind: TICK_SEND });
        }
        // Checkpoint initiations.
        if w.cfg.checkpoint_interval != SimDuration::MAX {
            for pid in ProcessId::all(n) {
                let phase = if w.cfg.stagger_initiation {
                    w.cfg.checkpoint_interval * pid.0 as u64 / n as u64
                } else {
                    SimDuration::ZERO
                };
                w.sched.schedule_after(
                    w.cfg.checkpoint_interval + phase,
                    Event::Tick { pid, kind: TICK_CKPT },
                );
            }
        }

        let hard_stop = SimTime::ZERO + w.cfg.sim.horizon;
        // Batched delivery windows: every pop opens a `(now, target)`
        // window, and `pop_matching` drains every further event of the
        // same instant and process as one batch — one trip through the
        // loop preamble per window instead of per event. Only the front
        // event can ever match, so the `(at, seq)` dispatch order (and
        // with it every trace byte) is untouched. Faults dispatch alone:
        // they mutate `crashed`/purge the queue, which must not happen
        // mid-window.
        'run: while let Some((now, ev)) = self.world.sched.pop() {
            if now > hard_stop {
                self.world.counters.inc("run.hit_horizon");
                break;
            }
            if self.world.protocol_error.is_some() {
                break;
            }
            let window = (!ev.is_fault()).then(|| ev.target());
            if self.dispatch(now, ev) == Flow::Break {
                break;
            }
            if let Some(pid) = window {
                while self.world.protocol_error.is_none() {
                    let Some(ev) = self.world.sched.pop_matching(now, pid) else {
                        break;
                    };
                    if self.dispatch(now, ev) == Flow::Break {
                        break 'run;
                    }
                }
            }
        }
        self.finish(wall_start)
    }

    /// Dispatch one popped event. Returns [`Flow::Break`] when the run
    /// loop must stop (crash with `stop_on_crash`, failed recovery).
    fn dispatch(&mut self, now: SimTime, ev: Event<P::Env>) -> Flow {
        let w = &mut self.world;
        w.census.count(&ev);
        match ev {
            Event::Tick { pid, kind: TICK_SEND } => self.on_send_tick(now, pid),
            Event::Tick { pid, kind: TICK_CKPT } => self.on_ckpt_tick(now, pid),
            Event::Tick { .. } => unreachable!("unknown tick"),
            Event::Deliver { src, dst, msg_id, msg } => {
                if w.crashed[dst.index()] {
                    w.counters.inc("net.dropped_to_crashed");
                } else if let Err(e) = self.hosts[dst.index()].deliver(w, now, src, msg_id, msg) {
                    w.protocol_error = Some(e);
                }
            }
            Event::Timer { pid, tag, .. } => {
                if !w.crashed[pid.index()] {
                    w.timers[pid.index()].remove(&tag);
                    self.hosts[pid.index()].fire_timer(w, now, tag);
                }
            }
            Event::StorageDone { .. } => self.pump_storage(now),
            Event::Crash { pid } => {
                w.counters.inc("fault.crashes");
                w.crashed[pid.index()] = true;
                w.crash.get_or_insert((pid, now));
                w.trace.record(now, pid, TraceKind::Crash, "fail-stop");
                // Volatile state (unfinalized tentative checkpoints and
                // in-memory logs) is lost.
                w.sched.drop_events_for(pid);
                if pid == WAKEUP_ADDRESSEE {
                    // The purge took the shared server's wakeup with it.
                    w.wakeup_at = None;
                    w.arm_storage_wakeup(now);
                }
                if w.cfg.stop_on_crash {
                    return Flow::Break;
                }
            }
            Event::Recover { pid } => {
                w.counters.inc("fault.recover_events");
                w.trace.record(now, pid, TraceKind::Recover, "system rollback");
                if let Err(e) = self.perform_system_recovery(now, pid) {
                    self.world.protocol_error = Some(e);
                    return Flow::Break;
                }
            }
        }
        Flow::Continue
    }

    fn on_send_tick(&mut self, now: SimTime, pid: ProcessId) {
        let (w, i) = (&mut self.world, pid.index());
        if w.crashed[i] || now >= SimTime::ZERO + w.cfg.workload_duration {
            return;
        }
        let host = &mut self.hosts[i];
        if !host.protocol().can_send_app() {
            // Blocked by the protocol (Koo–Toueg phase 1): retry shortly
            // and account the delay.
            if w.blocked_since[i].is_none() {
                w.blocked_since[i] = Some(now);
            }
            w.counters.inc("app.send_deferred");
            w.sched.schedule_after(
                SimDuration::from_micros(200),
                Event::Tick { pid, kind: TICK_SEND },
            );
            return;
        }
        if let Some(t0) = w.blocked_since[i].take() {
            w.blocked_time += now - t0;
        }
        let rng = &mut w.wl_rng[i];
        let Some(dst) = w.wl[i].next_dst(w.cfg.sim.n, pid, rng) else {
            return;
        };
        let len = w.wl[i].next_payload_len(rng);
        let id = MsgId(w.next_msg);
        w.next_msg += 1;
        host.send_app(w, now, dst, id, AppPayload { id: id.0, len });
        // Draw the next send.
        let gap = w.wl[i].next_gap(&mut w.wl_rng[i]);
        w.sched.schedule_after(gap, Event::Tick { pid, kind: TICK_SEND });
    }

    fn on_ckpt_tick(&mut self, now: SimTime, pid: ProcessId) {
        let w = &mut self.world;
        if w.crashed[pid.index()] {
            return;
        }
        // Initiate only while at least one more interval of application
        // traffic remains, so no round is forced to converge in silence
        // (the convergence-in-silence behaviour has dedicated tests).
        let workload_end = SimTime::ZERO + w.cfg.workload_duration;
        if now + w.cfg.checkpoint_interval <= workload_end {
            self.hosts[pid.index()].initiate(w, now);
            w.sched.schedule_after(w.cfg.checkpoint_interval, Event::Tick { pid, kind: TICK_CKPT });
        }
    }

    /// Full-system rollback recovery: every process restores the state of
    /// the durable recovery line `S_line`, in-flight messages are flushed,
    /// in-transit messages across the line are re-injected from the
    /// durable sender logs, and the workload resumes. The paper's model:
    /// finalized checkpoints with equal sequence number form a consistent
    /// global checkpoint (Theorem 2), so `S_line` is a correct restart
    /// point and rollback never cascades.
    fn perform_system_recovery(
        &mut self,
        now: SimTime,
        recovered: ProcessId,
    ) -> Result<(), String> {
        let w = &mut self.world;
        let n = w.cfg.sim.n;
        let line = w.store.recovery_line();
        w.trace.note(now, recovered, "recovery.line", format!("S_{line}"));
        w.counters.inc("recovery.performed");
        w.crashed[recovered.index()] = false;

        // Every process rolls back first: a protocol without live
        // recovery fails here, before the world is touched.
        let mut lost_events = 0u64;
        for (pid, host) in ProcessId::all(n).zip(&mut self.hosts) {
            let durable = match line {
                0 => None,
                _ => Some(
                    w.store
                        .get(pid, line)
                        .ok_or_else(|| format!("{pid}: no durable checkpoint {line}"))?,
                ),
            };
            lost_events += host.restore(line, durable)?;
        }
        let resend = if line > 0 { w.in_transit_resends(now, line)? } else { Vec::new() };

        // Flush channels, timers and ticks; keep only future faults.
        w.sched.clear_except_faults();
        w.wakeup_at = None;
        for t in &mut w.timers {
            t.clear();
        }
        // Obsolete in-flight storage work and post-line durable records.
        // Nobody waits on the forgotten writes, so the purged wakeup is
        // not replaced here: the next submit arms a fresh one.
        w.pending_writes.clear();
        for q in &mut w.write_queue {
            q.clear();
        }
        w.write_busy.fill(false);
        let dropped = w.store.truncate_above(line);
        w.counters.add("recovery.checkpoints_invalidated", dropped as u64);
        w.first_snapshot_at.retain(|&seq, _| seq <= line);
        w.last_complete_at.retain(|&seq, _| seq <= line);
        w.complete_count.retain(|&seq, _| seq <= line);
        w.staged_now = 0;
        w.crashed.fill(false);
        w.counters.add("recovery.events_lost", lost_events);

        // Fresh observation epoch.
        if w.observer.is_some() {
            w.observer = Some(GlobalObserver::new(n));
        }

        // Re-inject in-transit messages from the durable sender logs.
        for (src, dst, payload) in resend {
            self.hosts[src.index()].resend(w, now, dst, payload);
        }

        // Resume: workload ticks and checkpoint ticks for everyone.
        for pid in ProcessId::all(n) {
            let gap = w.wl[pid.index()].next_gap(&mut w.wl_rng[pid.index()]);
            w.sched.schedule_after(gap, Event::Tick { pid, kind: TICK_SEND });
            if w.cfg.checkpoint_interval != SimDuration::MAX {
                w.sched.schedule_after(
                    w.cfg.checkpoint_interval,
                    Event::Tick { pid, kind: TICK_CKPT },
                );
            }
        }
        Ok(())
    }

    /// One storage wakeup: hand back what the server finished by `now`,
    /// then re-arm for the next completion.
    fn pump_storage(&mut self, now: SimTime) {
        // A wakeup superseded by an earlier one still fires; only the live
        // one releases the marker.
        if self.world.wakeup_at == Some(now) {
            self.world.wakeup_at = None;
        }
        self.world.pumping = true;
        self.hand_back_completions(now);
        self.world.pumping = false;
        self.world.arm_storage_wakeup(now);
    }

    /// Hand every write the server finished by `now` back to its host.
    ///
    /// After a rollback the server deliberately keeps serving writes whose
    /// client forgot them (`pending_writes` was cleared): a real file
    /// server cannot un-receive a request, and the obsolete work keeps
    /// contending for bandwidth with the re-executed future. Their
    /// completions have no one to notify and are only counted
    /// (`storage.orphan_completions`).
    ///
    /// Every completion is recorded at its own instant before any of them
    /// is handed back: a hand-back may start the client's queued write at
    /// `now`, later than the next completion's instant.
    fn hand_back_completions(&mut self, now: SimTime) {
        let w = &mut self.world;
        w.server.advance(now);
        let completions = w.server.take_completed();
        for c in &completions {
            if let Some(write) = w.pending_writes.get(&c.req) {
                w.trace.record_seq_with(c.at, write.pid, TraceKind::StorageDone, write.seq, || {
                    format!("{:?} {}B", write.kind, write.bytes)
                });
            }
        }
        for c in completions {
            let Some(write) = w.pending_writes.remove(&c.req) else {
                w.counters.inc("storage.orphan_completions");
                continue;
            };
            w.staged_now = w.staged_now.saturating_sub(write.bytes);
            let i = write.pid.index();
            self.hosts[i].write_done(w, now, write);
            // Free the connection and start the next queued write.
            w.write_busy[i] = false;
            if let Some(next) = w.write_queue[i].pop_front() {
                w.start_write(now, next);
            }
        }
    }

    // simlint: allow(wall-clock, "carries the runner's own wall-clock start; never feeds simulation state")
    fn finish(mut self, wall_start: std::time::Instant) -> RunResult {
        // Let any still-active storage writes complete "after the end" so
        // durability accounting is complete.
        self.world.pumping = true; // no more wakeups: the queue is not read again
        while self.world.server.in_flight() > 0 {
            let t = self.world.server.next_completion().expect("in-flight implies completion");
            self.hand_back_completions(t + SimDuration::from_nanos(1));
        }
        let Runner { hosts, world: w } = self;
        let makespan = w.sched.now();
        let n = w.cfg.sim.n;
        let sim_events = w.sched.events_dispatched();
        let peak_pending = w.sched.peak_pending();
        let arena_hwm = w.sched.arena_stats().hwm;
        let clamped_events = w.sched.clamped_events();
        let messages_lost_at_crash = w.sched.messages_lost_at_crash();
        let mut counters = w.counters;
        if clamped_events > 0 {
            counters.add("sched.clamped_events", clamped_events);
        }
        if messages_lost_at_crash > 0 {
            counters.add("sched.messages_lost_at_crash", messages_lost_at_crash);
        }
        for h in &hosts {
            counters.merge(h.protocol().stats());
        }
        let mut ckpt_latency = Summary::new();
        let mut complete_rounds = 0;
        let mut round_stats = Vec::with_capacity(w.first_snapshot_at.len());
        for (&seq, first) in &w.first_snapshot_at {
            round_stats.push(RoundStat {
                seq,
                first_snapshot_ns: first.as_nanos(),
                last_complete_ns: w
                    .last_complete_at
                    .get(&seq)
                    .map_or(first.as_nanos(), |t| t.as_nanos()),
                completes: w.complete_count.get(&seq).copied().unwrap_or(0),
            });
        }
        for (seq, &cnt) in &w.complete_count {
            if cnt == n {
                complete_rounds += 1;
                if let (Some(a), Some(b)) =
                    (w.first_snapshot_at.get(seq), w.last_complete_at.get(seq))
                {
                    ckpt_latency.record(b.saturating_since(*a).as_secs_f64());
                }
            }
        }
        let storage = StorageReport {
            peak_writers: w.server.peak_writers(),
            mean_writers: w.server.mean_writers(makespan),
            contended_time: w.server.contended_time(makespan),
            total_stall: w.server.total_stall(),
            write_latency_mean: w.server.latency().mean(),
            write_latency_max: w.server.latency().max(),
            total_bytes: w.server.total_bytes(),
            total_requests: w.server.total_requests(),
        };
        let cut_states = hosts
            .iter()
            .zip(0u32..)
            .flat_map(|(h, pid)| h.cut_states().iter().map(move |(&seq, &s)| ((pid, seq), s)))
            .collect();
        RunResult {
            algo: hosts[0].protocol().name(),
            n,
            seed: w.cfg.sim.seed,
            scheduler: w.cfg.scheduler,
            counters,
            app_messages: w.next_msg - w.ctrl_messages,
            app_payload_bytes: w.app_payload_bytes,
            piggyback_bytes: w.piggyback_bytes,
            ctrl_messages: w.ctrl_messages,
            ctrl_bytes: w.ctrl_bytes,
            makespan,
            blocked_time: w.blocked_time,
            forced_delay: w.forced_delay,
            ckpt_latency,
            round_stats,
            complete_rounds,
            recovery_line: w.store.recovery_line(),
            staging_peak: w.staging_peak,
            storage,
            observer: w.observer,
            store: w.store,
            app_final: hosts.iter().map(Host::app).collect(),
            cut_states,
            trace: w.trace,
            crash: w.crash,
            protocol_error: w.protocol_error,
            sim_events,
            event_census: w.census,
            peak_pending,
            arena_hwm,
            clamped_events,
            messages_lost_at_crash,
            wall_secs: wall_start.elapsed().as_secs_f64(),
        }
    }
}

impl<Env> World<Env> {
    fn stage(&mut self, bytes: u64) {
        self.staged_now += bytes;
        self.staging_peak = self.staging_peak.max(self.staged_now);
    }

    /// A fresh message id for traffic the runner names itself (control
    /// messages and recovery re-sends share the application's counter).
    fn next_msg_id(&mut self) -> MsgId {
        self.next_msg += 1;
        MsgId(self.next_msg - 1)
    }

    /// The logged sends that cross the recovery line `S_line`, as
    /// `(src, dst, payload)` sorted by sender, receiver and id. The
    /// observer says which messages cross; without it nothing is re-sent.
    fn in_transit_resends(
        &mut self,
        now: SimTime,
        line: u64,
    ) -> Result<Vec<(ProcessId, ProcessId, AppPayload)>, String> {
        let Some(obs) = self.observer.as_ref() else {
            return Ok(Vec::new());
        };
        let report = obs.judge(line).ok_or("recovery line not judged")?;
        if !report.is_consistent() {
            return Err(format!("recovery line S_{line} inconsistent?!"));
        }
        let mut v = Vec::new();
        for pid in ProcessId::all(self.cfg.sim.n) {
            let ckpt = self
                .store
                .get(pid, line)
                .ok_or_else(|| format!("{pid}: no durable checkpoint {line}"))?;
            let log = if ckpt.log.is_empty() {
                MessageLog::new()
            } else {
                MessageLog::decode(ckpt.log.clone()).ok_or("corrupt durable log")?
            };
            for e in log.sent() {
                // `in_transit` is sorted by message id.
                let crosses_line =
                    report.in_transit.binary_search_by_key(&e.msg_id.0, |t| t.msg.0).is_ok();
                if !crosses_line {
                    continue;
                }
                // Only payload-carrying entries can regenerate the message.
                // A determinant-only sender log (the receiver-based
                // strategy) knows the send happened but has no bytes to
                // re-inject — that in-transit message is lost, which is
                // exactly what E10's `lost_in_transit` column counts.
                if e.kind == EntryKind::Payload {
                    v.push((pid, e.peer, e.payload));
                } else {
                    self.counters.inc("recovery.resend_unavailable");
                    self.trace.record_coded(
                        now,
                        pid,
                        TraceKind::AppSend,
                        "recovery.resend_unavailable",
                        None,
                        format!("M{}", e.payload.id),
                    );
                }
            }
        }
        v.sort_by_key(|(src, dst, p)| (src.0, dst.0, p.id));
        Ok(v)
    }

    fn start_write(&mut self, now: SimTime, w: Write) {
        let pid = w.pid;
        self.write_busy[pid.index()] = true;
        let req = StorageReqId(self.next_req);
        self.next_req += 1;
        self.server.submit(now, pid, req, w.bytes);
        self.counters.inc("storage.writes");
        // `in_flight()` is sampled right after submit, so the detail
        // records the concurrent-writer count *including* this write —
        // the contention signal the paper's E1 is about.
        let writers = self.server.in_flight();
        self.trace.record_coded_with(
            now,
            pid,
            TraceKind::StorageStart,
            TraceKind::StorageStart.default_code(),
            Some(w.seq),
            || format!("{:?} {}B writers={writers}", w.kind, w.bytes),
        );
        self.pending_writes.insert(req, w);
        self.arm_storage_wakeup(now);
    }

    /// Make sure a storage wakeup is pending no later than 1 ns past the
    /// server's next completion (and never in the past). At most one
    /// wakeup is live: completion instants do not depend on how often the
    /// server is polled, so an armed wakeup at or before the target
    /// already covers it — if it fires early it completes nothing and the
    /// pump re-arms. Only a submit that pulls the next completion *ahead*
    /// of the armed instant schedules a second event; the superseded one
    /// later fires as a harmless extra pump.
    fn arm_storage_wakeup(&mut self, now: SimTime) {
        if self.pumping {
            return;
        }
        let Some(t) = self.server.next_completion() else {
            return;
        };
        let tick = SimDuration::from_nanos(1);
        let at = (t + tick).max(now + tick);
        if self.wakeup_at.is_some_and(|armed| armed <= at) {
            return;
        }
        self.wakeup_at = Some(at);
        self.sched.schedule_at(
            at,
            Event::StorageDone { pid: WAKEUP_ADDRESSEE, req: StorageReqId(u64::MAX) },
        );
    }
}

impl<Env> Backend<Env> for World<Env> {
    fn transmit(&mut self, now: SimTime, out: Outgoing<Env>) {
        let Outgoing { src, dst, env, traffic, bytes, tel } = out;
        let msg_id = match traffic {
            Traffic::App(id, payload) => {
                if let Some(obs) = self.observer.as_mut() {
                    obs.on_send(src, id);
                }
                self.app_payload_bytes += payload.len as u64;
                self.piggyback_bytes += bytes - wire_cost::app(payload.len, 0);
                self.counters.inc("app.messages");
                id
            }
            Traffic::Ctrl => {
                self.ctrl_messages += 1;
                self.ctrl_bytes += bytes;
                self.next_msg_id()
            }
            Traffic::Resend(_) => {
                let id = self.next_msg_id();
                if let Some(obs) = self.observer.as_mut() {
                    obs.on_send(src, id);
                }
                self.counters.inc("recovery.resent_msgs");
                id
            }
        };
        let at = self.net.send(now, src, dst, bytes);
        self.sched.schedule_at(at, Event::Deliver { src, dst, msg_id, msg: env });
        if self.trace.is_enabled() {
            let (kind, code, seq, detail) = match traffic {
                Traffic::App(id, _) => (
                    TraceKind::AppSend,
                    TraceKind::AppSend.default_code(),
                    tel.seq,
                    format!("M{} -> {dst}", id.0),
                ),
                Traffic::Ctrl => (
                    TraceKind::CtrlSend,
                    tel.code.unwrap_or(TraceKind::CtrlSend.default_code()),
                    tel.seq,
                    format!("-> {dst}"),
                ),
                Traffic::Resend(p) => {
                    (TraceKind::AppSend, "recovery.resend", None, format!("M{}", p.id))
                }
            };
            self.trace.record_coded(now, src, kind, code, seq, detail);
        }
    }

    fn set_timer(&mut self, pid: ProcessId, tag: u64, delay: SimDuration) {
        let id = self.sched.set_timer(pid, delay, tag);
        if let Some(old) = self.timers[pid.index()].insert(tag, id) {
            self.sched.cancel_timer(old);
        }
    }

    fn cancel_timer(&mut self, pid: ProcessId, tag: u64) {
        if let Some(id) = self.timers[pid.index()].remove(&tag) {
            self.sched.cancel_timer(id);
        }
    }

    fn submit_write(&mut self, now: SimTime, w: Write) {
        // A state image was staged when its snapshot was taken; auxiliary
        // data is staged from here until it is written.
        if w.kind == WriteKind::Extra {
            self.stage(w.bytes);
        }
        if self.write_busy[w.pid.index()] {
            // One connection per process: queue behind the in-flight write.
            self.write_queue[w.pid.index()].push_back(w);
            self.counters.inc("storage.writes_queued");
            return;
        }
        self.start_write(now, w);
    }

    fn store(&mut self, ckpt: StoredCheckpoint) {
        self.store.put(ckpt);
        self.counters.inc("ckpt.durable");
        if self.cfg.gc_old_checkpoints {
            let line = self.store.recovery_line();
            if line > 0 {
                let dropped = self.store.gc_below(line);
                self.counters.add("storage.gc_reclaimed", dropped as u64);
            }
        }
    }

    fn tracing(&self) -> bool {
        self.trace.is_enabled()
    }

    fn note(&mut self, now: SimTime, pid: ProcessId, note: Note) {
        match note {
            Note::Snapshot { seq } => {
                self.stage(self.cfg.state_bytes);
                self.counters.inc("ckpt.snapshots");
                self.first_snapshot_at.entry(seq).or_insert(now);
                self.trace.record_seq_with(now, pid, TraceKind::TentativeCkpt, seq, || {
                    format!("CT({seq})")
                });
            }
            Note::Cut { seq, back } => {
                if let Some(obs) = self.observer.as_mut() {
                    let pos = obs.positions()[pid.index()] - back as u64;
                    obs.on_finalize(pid, seq, pos, now);
                }
            }
            Note::Complete { seq } => {
                let t = self.last_complete_at.get(&seq).copied().unwrap_or(now).max(now);
                self.last_complete_at.insert(seq, t);
                *self.complete_count.entry(seq).or_insert(0) += 1;
                self.counters.inc("ckpt.completes");
                self.trace.record_seq_with(now, pid, TraceKind::FinalizeCkpt, seq, || {
                    format!("C({seq})")
                });
            }
            Note::Forced => {
                self.counters.inc("ckpt.forced_before_processing");
                self.forced_delay +=
                    SimDuration::from_secs_f64(self.cfg.state_bytes as f64 / CAPTURE_BW_BPS);
            }
            Note::AppRecv { src, id, tel } => {
                if let Some(obs) = self.observer.as_mut() {
                    obs.on_recv(pid, id);
                }
                self.counters.inc("app.delivered");
                self.trace.record_coded_with(
                    now,
                    pid,
                    TraceKind::AppRecv,
                    TraceKind::AppRecv.default_code(),
                    tel.seq,
                    || format!("M{} <- {src}", id.0),
                );
            }
            Note::CtrlRecv { src, tel } => {
                self.trace.record_coded_with(
                    now,
                    pid,
                    TraceKind::CtrlRecv,
                    tel.code.unwrap_or(TraceKind::CtrlRecv.default_code()),
                    tel.seq,
                    || format!("from {src}"),
                );
            }
        }
    }
}
