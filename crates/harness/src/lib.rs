//! # ocpt-harness — drive any checkpointing protocol over the simulator
//!
//! The glue between the sans-io protocol crates (`ocpt-core`,
//! `ocpt-baselines`) and the substrates (`ocpt-sim`, `ocpt-storage`,
//! `ocpt-causality`):
//!
//! * [`workload`] — synthetic application traffic (topology × pattern ×
//!   timing × payload);
//! * [`host`] — one process of a run and the one interpreter of the
//!   protocol's actions, over a [`host::Backend`] each driver implements;
//! * [`runner`] — the deterministic driver: one [`runner::Runner`] per
//!   (algorithm, workload, seed), producing a [`runner::RunResult`] with
//!   every metric the experiments report;
//! * [`algo`] — algorithm selection and checked dispatch;
//! * [`analysis`] — offline recovery analysis: coordinated rollback,
//!   domino-effect fixpoint, restored-state verification;
//! * [`grid`] — the experiment grid engine: expand sweeps into
//!   independent cells, run them across a thread pool, aggregate in
//!   declaration order (bit-identical to serial execution);
//! * [`experiments`] — one grid-declaring function per reconstructed
//!   experiment (`DESIGN.md` §4) and the catalog `ocpt exp` runs them
//!   from.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod algo;
pub mod analysis;
pub mod experiments;
pub mod grid;
pub mod host;
pub mod runner;
pub mod workload;

pub use algo::{run, run_checked, Algo};
pub use analysis::{
    coordinated_rollback, domino_rollback, log_recovery_report, verify_restored_states,
    LogRecoveryReport, RollbackReport,
};
pub use grid::{ColFmt, GridOptions, GridOutcome, GridRow, RunGrid, TraceSink};
pub use host::{Backend, Host, Note, Outgoing, Traffic, Write, WriteKind};
pub use runner::{EventCensus, RoundStat, RunConfig, RunResult, Runner, StorageReport};
pub use workload::{Pattern, PayloadSpec, Timing, WorkloadSpec, WorkloadState};
