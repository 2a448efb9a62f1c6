//! # ocpt-causality — happened-before oracle and consistency checking
//!
//! Implements the background machinery of paper §2.2: Lamport's
//! happened-before relation via [`VClock`]s, cuts of a computation
//! ([`Cut`]), and the orphan-message test that defines a *consistent global
//! checkpoint*. The centrepiece is [`GlobalObserver`], an omniscient
//! verification oracle the harness feeds with every application event; the
//! test-suite uses it to machine-check the paper's Theorem 2 on every run,
//! with two independent oracles (cut/orphan analysis and pairwise vector
//! clock concurrency) that are also checked against each other.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cut;
pub mod observer;
pub mod vclock;

pub use cut::Cut;
pub use observer::{CutReport, EventPos, GlobalObserver, InTransit, Orphan};
pub use vclock::{checkpoint_set_consistent, pairwise_consistent, Causality, VClock};
