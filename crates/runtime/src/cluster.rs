//! Cluster orchestration: spawn N node threads, wire the channel mesh,
//! inject workload, await finalizations, shut down cleanly.

use std::collections::HashSet;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ocpt_causality::GlobalObserver;
use ocpt_core::{Csn, OcptConfig};
use ocpt_sim::ProcessId;

use crate::node::{run_node, Command, NodeCtx, NodeInput, StatusEvent};
use crate::storage::StableStore;
use crate::sync::Mutex;

/// A running cluster of OCPT nodes on OS threads.
pub struct Cluster {
    n: usize,
    cmd_tx: Vec<Sender<NodeInput>>,
    status_rx: Receiver<StatusEvent>,
    store: Arc<StableStore>,
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
        let store = Arc::new(StableStore::new());
        let observer = Arc::new(Mutex::new(GlobalObserver::new(n)));
        let (status_tx, status_rx) = channel();
        let mut inboxes_tx = Vec::with_capacity(n);
        let mut inboxes_rx = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = channel();
            inboxes_tx.push(tx);
            inboxes_rx.push(rx);
        }
        let mut cmd_tx = Vec::with_capacity(n);
        let mut handles = Vec::with_capacity(n);
        for (i, inbox) in inboxes_rx.into_iter().enumerate() {
            // Commands ride the same merged inbox as network bytes.
            cmd_tx.push(inboxes_tx[i].clone());
            let ctx = NodeCtx {
                pid: ProcessId(i as u32),
                n,
                cfg,
                inbox,
                peers: inboxes_tx.clone(),
                status: status_tx.clone(),
                store: store.clone(),
                observer: observer.clone(),
            };
            handles.push(
                std::thread::Builder::new()
                    .name(format!("ocpt-node-{i}"))
                    .spawn(move || run_node(ctx))
                    .expect("spawn node"),
            );
        }
        Cluster { n, cmd_tx, status_rx, store, observer, handles }
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Inject an application send.
    pub fn send_app(&self, src: ProcessId, dst: ProcessId, len: u32) {
        self.cmd_tx[src.index()]
            .send(NodeInput::Cmd(Command::SendApp { dst, len }))
            .expect("node alive");
    }

    /// Ask a node to take its scheduled checkpoint now.
    pub fn checkpoint(&self, pid: ProcessId) {
        self.cmd_tx[pid.index()].send(NodeInput::Cmd(Command::Checkpoint)).expect("node alive");
    }

    /// Block until every node has finalized checkpoint `csn` (or error).
    pub fn wait_for_round(&self, csn: Csn, timeout: Duration) -> Result<(), ClusterError> {
        let deadline = Instant::now() + timeout;
        let mut done: HashSet<ProcessId> = HashSet::new();
        while done.len() < self.n {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(ClusterError::Timeout);
            }
            match self.status_rx.recv_timeout(left) {
                Ok(StatusEvent::Finalized { pid, csn: c }) if c == csn => {
                    done.insert(pid);
                }
                Ok(StatusEvent::Finalized { .. }) | Ok(StatusEvent::Stopped { .. }) => {}
                Ok(StatusEvent::Error { detail, .. }) => {
                    return Err(ClusterError::Node(detail));
                }
                Err(_) => return Err(ClusterError::Timeout),
            }
        }
        Ok(())
    }

    /// The shared stable store.
    pub fn store(&self) -> &Arc<StableStore> {
        &self.store
    }

    /// The shared consistency oracle.
    pub fn observer(&self) -> &Arc<Mutex<GlobalObserver>> {
        &self.observer
    }

    /// Stop all nodes and join their threads.
    pub fn shutdown(self) {
        for tx in &self.cmd_tx {
            let _ = tx.send(NodeInput::Cmd(Command::Shutdown));
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
        assert_eq!(cluster.store().recovery_line(4), 1);
        for i in 0..4u32 {
            let d = cluster.store().get(ProcessId(i), 1).expect("durable");
            ocpt_core::plan_recovery(1, d.state, d.log).expect("blobs decode and replay");
        }
        assert!(cluster.observer().lock().judge(1).expect("complete").is_consistent());
        cluster.shutdown();
    }
}
