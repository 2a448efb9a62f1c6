//! # ocpt-benchmark — one reproducible suite for the OCPT reproduction
//!
//! Six workloads, host-time and simulated-time end-to-end metrics, and a
//! per-layer ledger built from outside the program: spans around every
//! call into a layer's public API plus replays that feed one layer the
//! work a run reported. See `README.md` for what each number means and
//! which later change it is expected to move.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod catalog;
pub mod host;
pub mod measure;
pub mod replay;
pub mod report;
pub mod spans;
pub mod stats;
pub mod workloads;
