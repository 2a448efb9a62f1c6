//! The versioned `ocpt-trace` JSONL schema: writer and parser.
//!
//! A trace file is UTF-8 text, one JSON object per `\n`-terminated line.
//! Line 1 is the header; every following line is one event. Field order
//! is fixed (the order documented below), `seq` is omitted when the event
//! belongs to no checkpoint round, and no other field is ever omitted —
//! which makes the bytes a pure function of the recorded events, and the
//! recorded events a pure function of `(config, seed)`. The workspace
//! test `tests/trace_determinism.rs` pins this byte-determinism across
//! thread counts and scheduler implementations.
//!
//! Header (version 1):
//! `{"schema":"ocpt-trace","version":1,"algo":…,"n":…,"seed":…,"events":…}`
//!
//! Event:
//! `{"at":…,"pid":…,"kind":…,"code":…[,"seq":…],"detail":…}`
//!
//! Compatibility rules and the field-by-field reference live in
//! `DESIGN.md` §8; the parser here accepts exactly version 1 and rejects
//! anything else loudly rather than guessing.

use ocpt_sim::{TraceEvent, TraceKind};

use crate::json::{self, escape_into, push_u64, Obj, Scanner, Token, Value};
use crate::record::{Rec, TraceFile, TraceMeta};

/// The schema identifier every trace file declares.
pub const SCHEMA_NAME: &str = "ocpt-trace";

/// The schema version this crate writes (and the only one it reads).
pub const SCHEMA_VERSION: u64 = 1;

/// Bytes reserved per event line. An upper estimate (the `observatory`
/// trace averages 96.5): the output is one allocation, and the pages of
/// it no line reaches are never touched, so the slack costs address
/// space, not memory.
const LINE_BYTES: usize = 128;

/// No event line is shorter than this many bytes (the five mandatory
/// fields with one-digit integers, the shortest kind and empty strings
/// take 52, plus the newline), which bounds what a header's `events`
/// count may make the reader reserve.
const MIN_LINE_BYTES: usize = 53;

/// Serialize a live trace to JSONL (header + one line per event).
pub fn to_jsonl(meta: &TraceMeta, events: &[TraceEvent]) -> String {
    let mut out = header(meta, events.len());
    for e in events {
        write_event(&mut out, e.at.as_nanos(), e.pid.0, e.kind, e.code, e.seq, &e.detail);
    }
    out
}

/// Serialize owned records to JSONL (header + one line per record).
pub fn recs_to_jsonl(meta: &TraceMeta, recs: &[Rec]) -> String {
    let mut out = header(meta, recs.len());
    for r in recs {
        write_event(&mut out, r.at, r.pid, r.kind, &r.code, r.seq, &r.detail);
    }
    out
}

/// The header line, in a buffer sized for `events` lines to follow.
fn header(meta: &TraceMeta, events: usize) -> String {
    let line = Obj::new()
        .str("schema", SCHEMA_NAME)
        .u64("version", SCHEMA_VERSION)
        .str("algo", &meta.algo)
        .u64("n", meta.n as u64)
        .u64("seed", meta.seed)
        .u64("events", events as u64)
        .finish();
    let mut out = String::with_capacity(line.len() + 1 + events.saturating_mul(LINE_BYTES));
    out.push_str(&line);
    out.push('\n');
    out
}

/// The one event-line writer: the bytes [`Obj`] would produce for the
/// documented field order, appended in place.
fn write_event(
    out: &mut String,
    at: u64,
    pid: u32,
    kind: TraceKind,
    code: &str,
    seq: Option<u64>,
    detail: &str,
) {
    out.push_str("{\"at\":");
    push_u64(out, at);
    out.push_str(",\"pid\":");
    push_u64(out, u64::from(pid));
    // Kind names are fixed lowercase ASCII: nothing to escape.
    out.push_str(",\"kind\":\"");
    out.push_str(kind.name());
    out.push_str("\",\"code\":\"");
    escape_into(out, code);
    out.push('"');
    if let Some(seq) = seq {
        out.push_str(",\"seq\":");
        push_u64(out, seq);
    }
    out.push_str(",\"detail\":\"");
    escape_into(out, detail);
    out.push_str("\"}\n");
}

fn get_u64(fields: &[(String, Value)], key: &str, what: &str) -> Result<u64, String> {
    fields
        .iter()
        .find(|(k, _)| k == key)
        .and_then(|(_, v)| v.as_u64())
        .ok_or_else(|| format!("{what}: missing integer field \"{key}\""))
}

fn get_str(fields: &[(String, Value)], key: &str, what: &str) -> Result<String, String> {
    fields
        .iter()
        .find(|(k, _)| k == key)
        .and_then(|(_, v)| v.as_str())
        .map(str::to_string)
        .ok_or_else(|| format!("{what}: missing string field \"{key}\""))
}

/// Parse a JSONL trace. Validates the schema name/version, every event
/// line's shape, the declared event count and monotone event times.
pub fn parse_jsonl(text: &str) -> Result<TraceFile, String> {
    let mut lines = text.lines().enumerate();
    let (_, header) = lines.next().ok_or("empty trace file")?;
    let hf = json::parse_object(header).map_err(|e| format!("header: {e}"))?;
    let schema = get_str(&hf, "schema", "header")?;
    if schema != SCHEMA_NAME {
        return Err(format!("not an {SCHEMA_NAME} file (schema=\"{schema}\")"));
    }
    let version = get_u64(&hf, "version", "header")?;
    if version != SCHEMA_VERSION {
        return Err(format!(
            "unsupported {SCHEMA_NAME} version {version} (reader supports {SCHEMA_VERSION})"
        ));
    }
    let meta = TraceMeta {
        algo: get_str(&hf, "algo", "header")?,
        n: get_u64(&hf, "n", "header")? as usize,
        seed: get_u64(&hf, "seed", "header")?,
    };
    let declared = get_u64(&hf, "events", "header")?;

    let fits = (text.len() / MIN_LINE_BYTES) as u64;
    let mut recs = Vec::with_capacity(declared.min(fits) as usize);
    let mut last_at = 0u64;
    for (idx, line) in lines {
        if line.is_empty() {
            continue;
        }
        let rec = parse_event(line, last_at).map_err(|e| format!("line {}: {e}", idx + 1))?;
        last_at = rec.at;
        recs.push(rec);
    }
    if recs.len() as u64 != declared {
        return Err(format!(
            "header declares {declared} events but file contains {} (truncated?)",
            recs.len()
        ));
    }
    Ok(TraceFile { meta, recs })
}

/// One event line, its fields moved straight into a [`Rec`]. The first
/// occurrence of a key is the one that counts; later duplicates and
/// unknown fields are still scanned, so the whole line must be valid.
/// The checks run in a fixed order (kind, at, pid, seq, code, detail),
/// which fixes which error a line with several faults reports.
fn parse_event(line: &str, last_at: u64) -> Result<Rec, String> {
    let mut sc = Scanner::new(line);
    let (mut at, mut pid, mut kind, mut code, mut seq, mut detail) =
        (None, None, None, None, None, None);
    let mut key = sc.first_key()?;
    while let Some(k) = key {
        let value = sc.value()?;
        let slot = match &*k {
            "at" => Some(&mut at),
            "pid" => Some(&mut pid),
            "kind" => Some(&mut kind),
            "code" => Some(&mut code),
            "seq" => Some(&mut seq),
            "detail" => Some(&mut detail),
            _ => None,
        };
        if let Some(slot) = slot {
            slot.get_or_insert(value);
        }
        key = sc.next_key()?;
    }
    sc.end()?;

    let kind = match kind {
        Some(Token::Str(name)) => {
            TraceKind::from_name(&name).ok_or_else(|| format!("unknown event kind \"{name}\""))?
        }
        _ => return Err(missing("string", "kind")),
    };
    let at = uint(at, "at")?;
    if at < last_at {
        return Err(format!("time goes backwards ({at} < {last_at})"));
    }
    let pid = uint(pid, "pid")?;
    let pid = u32::try_from(pid).map_err(|_| format!("pid {pid} out of range"))?;
    let seq = match seq {
        None => None,
        Some(Token::UInt(seq)) => Some(seq),
        Some(_) => return Err("\"seq\" must be an integer".into()),
    };
    Ok(Rec { at, pid, kind, code: string(code, "code")?, seq, detail: string(detail, "detail")? })
}

fn missing(ty: &str, key: &str) -> String {
    format!("missing {ty} field \"{key}\"")
}

fn uint(value: Option<Token>, key: &str) -> Result<u64, String> {
    match value {
        Some(Token::UInt(u)) => Ok(u),
        _ => Err(missing("integer", key)),
    }
}

fn string(value: Option<Token>, key: &str) -> Result<String, String> {
    match value {
        Some(Token::Str(s)) => Ok(s.into_owned()),
        _ => Err(missing("string", key)),
    }
}

#[cfg(test)]
mod tests {
    use ocpt_sim::{ProcessId, SimTime, Trace};

    use super::*;

    fn sample() -> (TraceMeta, Trace) {
        let mut t = Trace::enabled();
        t.record_seq(SimTime::from_millis(1), ProcessId(0), TraceKind::TentativeCkpt, 1, "CT(1)");
        t.record_coded(
            SimTime::from_millis(2),
            ProcessId(0),
            TraceKind::CtrlSend,
            "ctrl.ck_bgn",
            Some(1),
            "-> P1",
        );
        t.record(SimTime::from_millis(3), ProcessId(1), TraceKind::AppSend, "M0 -> P0 \"q\"");
        (TraceMeta { algo: "ocpt".into(), n: 2, seed: 7 }, t)
    }

    #[test]
    fn round_trip_preserves_everything() {
        let (meta, t) = sample();
        let jsonl = to_jsonl(&meta, t.events());
        let parsed = parse_jsonl(&jsonl).unwrap();
        assert_eq!(parsed.meta, meta);
        let expect: Vec<Rec> = t.events().iter().map(Rec::from_event).collect();
        assert_eq!(parsed.recs, expect);
        // And re-serialization is byte-identical.
        assert_eq!(recs_to_jsonl(&parsed.meta, &parsed.recs), jsonl);
    }

    #[test]
    fn header_shape_is_pinned() {
        let (meta, t) = sample();
        let jsonl = to_jsonl(&meta, t.events());
        let header = jsonl.lines().next().unwrap();
        assert_eq!(
            header,
            "{\"schema\":\"ocpt-trace\",\"version\":1,\"algo\":\"ocpt\",\"n\":2,\"seed\":7,\"events\":3}"
        );
    }

    #[test]
    fn seq_field_is_omitted_when_absent() {
        let (meta, t) = sample();
        let jsonl = to_jsonl(&meta, t.events());
        let lines: Vec<&str> = jsonl.lines().collect();
        assert!(lines[1].contains("\"seq\":1"));
        assert!(!lines[3].contains("\"seq\""));
    }

    #[test]
    fn parser_rejects_corruption() {
        let (meta, t) = sample();
        let good = to_jsonl(&meta, t.events());
        // Truncation: event-count mismatch.
        let truncated: String = good.lines().take(2).map(|l| format!("{l}\n")).collect();
        assert!(parse_jsonl(&truncated).unwrap_err().contains("declares 3"));
        // Wrong schema / version.
        assert!(parse_jsonl(
            "{\"schema\":\"other\",\"version\":1,\"algo\":\"a\",\"n\":1,\"seed\":0,\"events\":0}\n"
        )
        .unwrap_err()
        .contains("not an ocpt-trace"));
        assert!(parse_jsonl("{\"schema\":\"ocpt-trace\",\"version\":2,\"algo\":\"a\",\"n\":1,\"seed\":0,\"events\":0}\n")
            .unwrap_err()
            .contains("unsupported"));
        // Unknown kind.
        let bad = good.replace("tentative_ckpt", "mystery_kind");
        assert!(parse_jsonl(&bad).unwrap_err().contains("unknown event kind"));
        // Non-monotone time.
        let swapped: String = {
            let mut l: Vec<&str> = good.lines().collect();
            l.swap(1, 3);
            l.iter().map(|s| format!("{s}\n")).collect()
        };
        assert!(parse_jsonl(&swapped).unwrap_err().contains("backwards"));
    }

    #[test]
    fn empty_trace_round_trips() {
        let meta = TraceMeta { algo: "x".into(), n: 4, seed: 1 };
        let jsonl = to_jsonl(&meta, &[]);
        let parsed = parse_jsonl(&jsonl).unwrap();
        assert!(parsed.recs.is_empty());
        assert_eq!(parsed.meta.n, 4);
    }
}
