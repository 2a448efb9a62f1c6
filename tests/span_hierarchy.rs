//! Span derivation over *hierarchical* control traces. The span layer was
//! grown on flat-ring traces; these tests pin that a grouped wave — with
//! its `CK_GRP_DONE` second tier — still folds into the same Round → Wave
//! → Checkpoint shape, both at a hand-sized N and above the Auto
//! threshold (N > 512, where `ControlTopology::Auto` silently shards).

use ocpt::prelude::*;
use ocpt::telemetry::{critical_path, derive_spans, export, Span, SpanKind, TraceMeta};

fn traced_run(n: usize, seed: u64, topology: ControlTopology) -> ocpt::harness::RunResult {
    let mut cfg = RunConfig::new(n, seed);
    cfg.workload =
        WorkloadSpec::uniform_mesh(SimDuration::from_millis(if n > 100 { 150 } else { 120 }));
    cfg.checkpoint_interval = SimDuration::from_millis(200);
    cfg.workload_duration = SimDuration::from_millis(800);
    cfg.state_bytes = 1024;
    cfg.observe = n <= 1_000;
    cfg.trace = true;
    let algo = Algo::Ocpt(OcptConfig { control_topology: topology, ..OcptConfig::default() });
    let r = run(&algo, cfg);
    assert!(r.protocol_error.is_none(), "{:?}", r.protocol_error);
    assert!(r.complete_rounds >= 1, "need at least one complete round");
    r
}

fn spans_of(r: &ocpt::harness::RunResult) -> (ocpt::telemetry::TraceFile, Vec<Span>) {
    let meta = TraceMeta { algo: r.algo.to_string(), n: r.n, seed: r.seed };
    let jsonl = export::to_jsonl(&meta, r.trace.events());
    let f = export::parse_jsonl(&jsonl).expect("recorded trace round-trips");
    let spans = derive_spans(&f.recs);
    (f, spans)
}

/// Every round of a hierarchical trace derives exactly one Wave child,
/// and every `ctrl.ck_grp_done` event lands inside its round's wave
/// window — the two-tier report is part of the wave, not a stray.
fn assert_hierarchical_shape(f: &ocpt::telemetry::TraceFile, spans: &[Span]) {
    let rounds: Vec<(usize, &Span)> =
        spans.iter().enumerate().filter(|(_, s)| s.kind == SpanKind::Round).collect();
    assert!(!rounds.is_empty(), "no Round spans derived");
    let mut grp_done_seen = 0u64;
    let mut waved_rounds = 0usize;
    for (i, round) in &rounds {
        let seq = round.seq.expect("rounds carry a seq");
        let waves: Vec<&Span> =
            spans.iter().filter(|s| s.kind == SpanKind::Wave && s.parent == Some(*i)).collect();
        // Every round has exactly one wave. (The application traffic before
        // the first checkpoint is tagged seq 0 but is not a round.)
        assert_eq!(waves.len(), 1, "round {seq}: not one wave child");
        if let Some(wave) = waves.first() {
            waved_rounds += 1;
            assert!(
                wave.start >= round.start && wave.end <= round.end,
                "round {seq}: wave escapes"
            );
            for rec in f.recs.iter().filter(|r| r.code == "ctrl.ck_grp_done" && r.seq == Some(seq))
            {
                grp_done_seen += 1;
                assert!(
                    rec.at >= wave.start && rec.at <= wave.end,
                    "round {seq}: CK_GRP_DONE at {} outside wave [{}, {}]",
                    rec.at,
                    wave.start,
                    wave.end
                );
            }
        }
        for (ci, c) in spans.iter().enumerate() {
            if c.kind == SpanKind::Checkpoint && c.parent == Some(*i) {
                assert_eq!(c.seq, Some(seq), "checkpoint span {ci} under wrong round");
            }
        }
    }
    assert!(waved_rounds > 0, "no round derived a control wave");
    assert!(grp_done_seen > 0, "hierarchical trace recorded no CK_GRP_DONE events");
}

#[test]
fn grouped_trace_derives_round_wave_checkpoint_tree() {
    let r = traced_run(12, 77, ControlTopology::Grouped { group_size: 4 });
    assert!(r.counters.get("ctrl.grp_done_sent") > 0);
    let (f, spans) = spans_of(&r);
    assert_hierarchical_shape(&f, &spans);
}

/// N = 600 under `Auto` shards into ⌈√600⌉-sized groups; the derived span
/// tree keeps the flat-ring shape and the critical-path analyzer labels
/// the rounds as grouped.
#[test]
fn auto_above_threshold_trace_derives_spans_at_n600() {
    let r = traced_run(600, 21, ControlTopology::Auto);
    assert!(r.counters.get("ctrl.grp_done_sent") > 0, "N=600 should shard");
    let (f, spans) = spans_of(&r);
    assert_hierarchical_shape(&f, &spans);

    // The critical-path analyzer sees the same hierarchy: closed rounds
    // are marked grouped and attribute their wave phase.
    let crit = critical_path(&f);
    assert!(!crit.rounds.is_empty());
    let closed: Vec<_> = crit.rounds.iter().filter(|p| p.closed).collect();
    assert!(!closed.is_empty(), "no closed rounds in critical-path report");
    for p in &closed {
        assert_eq!(
            p.total_ns,
            p.trigger_ns + p.wave_ns + p.storage_ns + p.finalize_ns,
            "round {}: phases must partition the round",
            p.seq
        );
    }
    // Every round ran a wave, so every closed round is labelled grouped.
    assert!(
        closed.iter().all(|p| p.hierarchical && p.grp_done > 0),
        "a closed round not marked hierarchical"
    );
}
