//! Cluster orchestration: spawn N node threads, wire the channel mesh,
//! inject workload, await durable checkpoints, shut down cleanly.

use std::collections::HashSet;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ocpt_causality::GlobalObserver;
use ocpt_core::{Csn, OcptConfig};
use ocpt_sim::ProcessId;
use ocpt_storage::CheckpointStore;

use crate::node::{Input, Status, Wiring};
use crate::sync::Mutex;

/// A running cluster of OCPT nodes on OS threads.
pub struct Cluster {
    n: usize,
    inboxes: Vec<Sender<Input>>,
    status: Receiver<Status>,
    store: Arc<Mutex<CheckpointStore>>,
    observer: Arc<Mutex<GlobalObserver>>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

/// Errors from cluster-level waits.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClusterError {
    /// A node reported a protocol error.
    Node(String),
    /// The wait deadline passed.
    Timeout,
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::Node(d) => write!(f, "node error: {d}"),
            ClusterError::Timeout => write!(f, "timed out"),
        }
    }
}

impl std::error::Error for ClusterError {}

impl Cluster {
    /// Spawn `n` nodes with the given protocol configuration.
    pub fn start(n: usize, cfg: OcptConfig) -> Cluster {
        assert!(n >= 2);
        cfg.validate().expect("invalid config");
        let store = Arc::new(Mutex::new(CheckpointStore::new(n)));
        let observer = Arc::new(Mutex::new(GlobalObserver::new(n)));
        let (status_tx, status) = channel();
        // Driver commands ride the same merged inbox as network bytes.
        let (inboxes, rxs): (Vec<Sender<Input>>, Vec<_>) = (0..n).map(|_| channel()).unzip();
        let handles = rxs
            .into_iter()
            .enumerate()
            .map(|(i, inbox)| {
                let wiring = Wiring {
                    pid: ProcessId(i as u32),
                    n,
                    inbox,
                    peers: inboxes.clone(),
                    status: status_tx.clone(),
                    store: store.clone(),
                    observer: observer.clone(),
                };
                std::thread::Builder::new()
                    .name(format!("ocpt-node-{i}"))
                    .spawn(move || wiring.run(cfg))
                    .expect("spawn node")
            })
            .collect();
        Cluster { n, inboxes, status, store, observer, handles }
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Inject an application send.
    pub fn send_app(&self, src: ProcessId, dst: ProcessId, len: u32) {
        self.inboxes[src.index()].send(Input::SendApp { dst, len }).expect("node alive");
    }

    /// Have a node initiate a checkpoint now.
    pub fn checkpoint(&self, pid: ProcessId) {
        self.inboxes[pid.index()].send(Input::Checkpoint).expect("node alive");
    }

    /// Block until every node's checkpoint `csn` is durable (or an error).
    pub fn wait_for_round(&self, csn: Csn, timeout: Duration) -> Result<(), ClusterError> {
        let deadline = Instant::now() + timeout;
        let mut done: HashSet<ProcessId> = HashSet::new();
        while done.len() < self.n {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(ClusterError::Timeout);
            }
            match self.status.recv_timeout(left) {
                Ok(Status::Durable(pid, c)) if c == csn => {
                    done.insert(pid);
                }
                Ok(Status::Durable(..)) => {}
                Ok(Status::Error(detail)) => return Err(ClusterError::Node(detail)),
                Err(_) => return Err(ClusterError::Timeout),
            }
        }
        Ok(())
    }

    /// The shared stable store.
    pub fn store(&self) -> &Arc<Mutex<CheckpointStore>> {
        &self.store
    }

    /// The shared consistency oracle.
    pub fn observer(&self) -> &Arc<Mutex<GlobalObserver>> {
        &self.observer
    }

    /// Stop all nodes and join their threads.
    pub fn shutdown(self) {
        for tx in &self.inboxes {
            let _ = tx.send(Input::Shutdown);
        }
        for h in self.handles {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocpt_core::{FlushPolicy, WritePolicy};
    use ocpt_sim::SimDuration;

    /// The nodes run the processes' own storage policies: a round with
    /// jittered early flushes and phased finalize writes completes, and
    /// each checkpoint is in the store, decodable, when it is reported.
    #[test]
    fn round_under_jittered_flush_and_phased_writes() {
        let cfg = OcptConfig {
            convergence_timeout: SimDuration::from_millis(40),
            flush_policy: FlushPolicy::Jittered { max_delay: SimDuration::from_millis(20) },
            finalize_write: WritePolicy::Phased { window: SimDuration::from_millis(60) },
            state_bytes: 16 * 1024,
            ..OcptConfig::default()
        };
        let cluster = Cluster::start(4, cfg);
        for i in 0..4u32 {
            cluster.send_app(ProcessId(i), ProcessId((i + 1) % 4), 64);
        }
        cluster.checkpoint(ProcessId(0));
        cluster.wait_for_round(1, Duration::from_secs(10)).expect("round 1");
        let store = cluster.store().lock();
        assert_eq!(store.recovery_line(), 1);
        for i in 0..4u32 {
            let d = store.get(ProcessId(i), 1).expect("durable");
            ocpt_core::plan_recovery(1, d.state.clone(), d.log.clone())
                .expect("blobs decode and replay");
        }
        drop(store);
        assert!(cluster.observer().lock().judge(1).expect("complete").is_consistent());
        cluster.shutdown();
    }
}
