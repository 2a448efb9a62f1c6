//! # ocpt-baselines — comparator algorithms
//!
//! The related work the paper positions against (§1, §4), implemented
//! clean-room behind `ocpt_core`'s driver-facing
//! [`ocpt_core::CheckpointProtocol`] trait — the one the paper's
//! algorithm ([`ocpt_core::OcptProcess`]) implements too — so every
//! algorithm runs on the identical simulator, storage model and
//! workloads:
//!
//! | Algorithm | Class | Key cost under study |
//! |---|---|---|
//! | [`ChandyLamport`] | synchronous snapshot \[3\] | clustered storage writes, FIFO required |
//! | [`KooToueg`] | blocking synchronous \[5\] | application blocked between phases |
//! | [`Staggered`] | synchronous, staggered writes \[11\] | serialised writes, long tail, token traffic |
//! | [`Cic`] | communication-induced [1, 8] | forced checkpoints **before** message processing |
//! | [`Uncoordinated`] | asynchronous | domino effect at recovery |

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chandy_lamport;
pub mod cic;
pub mod koo_toueg;
pub mod staggered;
pub mod uncoordinated;

pub use chandy_lamport::{ChandyLamport, ClEnv};
pub use cic::{Cic, CicEnv};
pub use koo_toueg::{KooToueg, KtEnv};
pub use staggered::{StagEnv, Staggered};
pub use uncoordinated::{UncoordEnv, Uncoordinated};
