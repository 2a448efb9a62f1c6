//! The owned record types a trace file is made of.

use ocpt_sim::{TraceEvent, TraceKind};

/// Run provenance carried in a trace file's header line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceMeta {
    /// Algorithm name (`"ocpt"`, `"chandy-lamport"`, …).
    pub algo: String,
    /// Number of processes.
    pub n: usize,
    /// The seed the run was driven by.
    pub seed: u64,
}

/// One trace event, owned (decoupled from the in-memory
/// [`ocpt_sim::TraceEvent`] so parsed files and live traces share every
/// analysis below).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Rec {
    /// Virtual time, nanoseconds since the run started.
    pub at: u64,
    /// Process index.
    pub pid: u32,
    /// Event kind; the schema's `kind` field is its
    /// [`name`](TraceKind::name).
    pub kind: TraceKind,
    /// Stable machine-readable event code (e.g. `"ctrl.ck_bgn"`).
    pub code: String,
    /// Checkpoint round the event belongs to, when it belongs to one.
    pub seq: Option<u64>,
    /// Free-form human-oriented detail; never parsed.
    pub detail: String,
}

impl Rec {
    /// Convert a live in-memory trace event.
    pub fn from_event(e: &TraceEvent) -> Rec {
        Rec {
            at: e.at.as_nanos(),
            pid: e.pid.0,
            kind: e.kind,
            code: e.code.to_string(),
            seq: e.seq,
            detail: e.detail.clone(),
        }
    }
}

/// A parsed (or about-to-be-written) trace: header + events.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceFile {
    /// Run provenance.
    pub meta: TraceMeta,
    /// Events, in virtual-time order.
    pub recs: Vec<Rec>,
}

#[cfg(test)]
mod tests {
    use ocpt_sim::{ProcessId, SimTime, Trace};

    use super::*;

    #[test]
    fn rec_mirrors_event() {
        let mut t = Trace::enabled();
        t.record_seq(SimTime::from_millis(3), ProcessId(2), TraceKind::FinalizeCkpt, 5, "C(5)");
        let r = Rec::from_event(&t.events()[0]);
        assert_eq!(r.at, 3_000_000);
        assert_eq!(r.pid, 2);
        assert_eq!(r.kind, TraceKind::FinalizeCkpt);
        assert_eq!(r.code, "ckpt.finalize");
        assert_eq!(r.seq, Some(5));
        assert_eq!(r.detail, "C(5)");
    }
}
