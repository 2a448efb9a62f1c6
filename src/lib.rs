//! # ocpt — optimistic checkpointing with selective message logging
//!
//! A full reproduction of Jiang & Manivannan, *"An optimistic
//! checkpointing and selective message logging approach for consistent
//! global checkpoint collection in distributed systems"* (IPDPS 2007):
//! the paper's algorithm, every substrate it needs, five comparator
//! algorithms, a deterministic simulator, a threaded runtime and the
//! reconstructed evaluation.
//!
//! This facade crate re-exports the workspace members:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`protocol`] | `ocpt-core` | the paper's algorithm (sans-io state machine) |
//! | [`sim`] | `ocpt-sim` | deterministic discrete-event kernel |
//! | [`storage`] | `ocpt-storage` | stable-storage contention model & checkpoint store |
//! | [`causality`] | `ocpt-causality` | vector clocks & consistency oracle |
//! | [`baselines`] | `ocpt-baselines` | Chandy–Lamport, Koo–Toueg, staggered, CIC, uncoordinated |
//! | [`harness`] | `ocpt-harness` | driver, workloads, experiments, recovery analysis |
//! | [`telemetry`] | `ocpt-telemetry` | flight recorder: JSONL traces, spans, summary/diff/grep |
//! | [`runtime`] | `ocpt-runtime` | the protocol on real OS threads |
//!
//! ## Quickstart
//!
//! ```
//! use ocpt::prelude::*;
//!
//! // Run the paper's algorithm over a simulated 4-process system and
//! // machine-check Theorem 2 on every collected global checkpoint.
//! let mut cfg = RunConfig::new(4, 7);
//! cfg.workload_duration = SimDuration::from_millis(500);
//! cfg.checkpoint_interval = SimDuration::from_millis(200);
//! cfg.state_bytes = 64 * 1024;
//! let result = run_checked(&Algo::ocpt(), cfg);
//! assert!(result.complete_rounds >= 1);
//! assert!(result.verify_consistency().unwrap() >= 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use ocpt_baselines as baselines;
pub use ocpt_causality as causality;
pub use ocpt_core as protocol;
pub use ocpt_harness as harness;
pub use ocpt_metrics as metrics;
pub use ocpt_runtime as runtime;
pub use ocpt_sim as sim;
pub use ocpt_storage as storage;
pub use ocpt_telemetry as telemetry;

/// The names almost every user of the library wants in scope.
pub mod prelude {
    pub use ocpt_core::{
        AppPayload, CheckpointProtocol, ControlTopology, Csn, Envelope, FlushPolicy, LoggingKind,
        MessageLog, OcptConfig, OcptProcess, Piggyback, ProtoAction, Status, TentSet, WritePolicy,
    };
    pub use ocpt_harness::{
        run, run_checked, Algo, ColFmt, GridOptions, GridOutcome, RunConfig, RunGrid, RunResult,
        TraceSink, WorkloadSpec,
    };
    pub use ocpt_sim::{
        DelayModel, FaultPlan, MsgId, ProcessId, SchedulerKind, SimConfig, SimDuration, SimTime,
        Topology,
    };
}
