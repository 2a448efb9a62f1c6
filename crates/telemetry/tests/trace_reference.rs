//! The `ocpt-trace` writer and reader, and the JSON grammar under them,
//! against [`reference`]: the code they replaced, kept here as the oracle.
//!
//! The generated traces carry every string the escaper distinguishes
//! (`"`, `\`, control bytes, multi-byte UTF-8, empty) and the integer
//! extremes; the mutated files are ROADMAP item 9's "mutated valid
//! encodings" — bit flips, truncation, duplicated, swapped and spliced
//! lines, whitespace between tokens, reordered, repeated, dropped,
//! retyped and unknown fields, `\u` escapes in keys and values. On every
//! input both readers return the same `Result`, error text included.

use ocpt_sim::{ProcessId, SimTime, TraceEvent, TRACE_KINDS};
use ocpt_telemetry::export::{parse_jsonl, recs_to_jsonl, to_jsonl};
use ocpt_telemetry::json::{self, Obj};
use ocpt_telemetry::{Rec, TraceMeta};
use proptest::prelude::*;
use proptest::prop::sample::Index;

/// The writer, escaper and reader as they were before the one-pass
/// writer and the field scanner replaced them.
mod reference {
    use std::fmt::Write as _;

    use ocpt_sim::TraceKind;
    use ocpt_telemetry::json::{Obj, Value};
    use ocpt_telemetry::{Rec, TraceFile, TraceMeta};

    /// The escaper: one `char` at a time into a fresh `String`.
    pub fn escape(s: &str) -> String {
        let mut out = String::with_capacity(s.len());
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out
    }

    /// The writer: an [`Obj`] per line.
    pub fn recs_to_jsonl(meta: &TraceMeta, recs: &[Rec]) -> String {
        let mut out = String::new();
        out.push_str(
            &Obj::new()
                .str("schema", "ocpt-trace")
                .u64("version", 1)
                .str("algo", &meta.algo)
                .u64("n", meta.n as u64)
                .u64("seed", meta.seed)
                .u64("events", recs.len() as u64)
                .finish(),
        );
        out.push('\n');
        for r in recs {
            let mut o = Obj::new()
                .u64("at", r.at)
                .u64("pid", r.pid as u64)
                .str("kind", r.kind.name())
                .str("code", &r.code);
            if let Some(seq) = r.seq {
                o = o.u64("seq", seq);
            }
            out.push_str(&o.str("detail", &r.detail).finish());
            out.push('\n');
        }
        out
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

    /// The reader: every line through [`parse_object`] into owned
    /// fields, then a `get_*` lookup per field.
    pub fn parse_jsonl(text: &str) -> Result<TraceFile, String> {
        let mut lines = text.lines().enumerate();
        let (_, header) = lines.next().ok_or("empty trace file")?;
        let hf = parse_object(header).map_err(|e| format!("header: {e}"))?;
        let schema = get_str(&hf, "schema", "header")?;
        if schema != "ocpt-trace" {
            return Err(format!("not an ocpt-trace file (schema=\"{schema}\")"));
        }
        let version = get_u64(&hf, "version", "header")?;
        if version != 1 {
            return Err(format!("unsupported ocpt-trace version {version} (reader supports 1)"));
        }
        let meta = TraceMeta {
            algo: get_str(&hf, "algo", "header")?,
            n: get_u64(&hf, "n", "header")? as usize,
            seed: get_u64(&hf, "seed", "header")?,
        };
        let declared = get_u64(&hf, "events", "header")?;

        let mut recs = Vec::new();
        let mut last_at = 0u64;
        for (idx, line) in lines {
            if line.is_empty() {
                continue;
            }
            let what = format!("line {}", idx + 1);
            let f = parse_object(line).map_err(|e| format!("{what}: {e}"))?;
            let kind = get_str(&f, "kind", &what)?;
            let Some(kind) = TraceKind::from_name(&kind) else {
                return Err(format!("{what}: unknown event kind \"{kind}\""));
            };
            let at = get_u64(&f, "at", &what)?;
            if at < last_at {
                return Err(format!("{what}: time goes backwards ({at} < {last_at})"));
            }
            last_at = at;
            let pid = get_u64(&f, "pid", &what)?;
            let pid = u32::try_from(pid).map_err(|_| format!("{what}: pid {pid} out of range"))?;
            let seq = f.iter().find(|(k, _)| k == "seq").map(|(_, v)| {
                v.as_u64().ok_or_else(|| format!("{what}: \"seq\" must be an integer"))
            });
            let seq = seq.transpose()?;
            recs.push(Rec {
                at,
                pid,
                kind,
                code: get_str(&f, "code", &what)?,
                seq,
                detail: get_str(&f, "detail", &what)?,
            });
        }
        if recs.len() as u64 != declared {
            return Err(format!(
                "header declares {declared} events but file contains {} (truncated?)",
                recs.len()
            ));
        }
        Ok(TraceFile { meta, recs })
    }

    /// The grammar: recursive descent over byte offsets, every string
    /// decoded into a fresh `String`.
    pub fn parse_object(line: &str) -> Result<Vec<(String, Value)>, String> {
        let b = line.as_bytes();
        let (fields, next) = parse_object_at(line, skip_ws(b, 0))?;
        let i = skip_ws(b, next);
        if i != b.len() {
            return Err(format!("trailing content at byte {i}"));
        }
        Ok(fields)
    }

    type Fields = Vec<(String, Value)>;

    fn parse_object_at(line: &str, mut i: usize) -> Result<(Fields, usize), String> {
        let b = line.as_bytes();
        if b.get(i) != Some(&b'{') {
            return Err(format!("expected '{{' at byte {i}"));
        }
        i = skip_ws(b, i + 1);
        let mut fields = Vec::new();
        if b.get(i) == Some(&b'}') {
            return Ok((fields, i + 1));
        }
        loop {
            let (key, next) = parse_string(line, i)?;
            i = skip_ws(b, next);
            if b.get(i) != Some(&b':') {
                return Err(format!("expected ':' at byte {i}"));
            }
            i = skip_ws(b, i + 1);
            let (value, next) = parse_value(line, i)?;
            fields.push((key, value));
            i = skip_ws(b, next);
            match b.get(i) {
                Some(b',') => i = skip_ws(b, i + 1),
                Some(b'}') => return Ok((fields, i + 1)),
                _ => return Err(format!("expected ',' or '}}' at byte {i}")),
            }
        }
    }

    fn skip_ws(b: &[u8], mut i: usize) -> usize {
        while matches!(b.get(i), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            i += 1;
        }
        i
    }

    fn parse_value(line: &str, i: usize) -> Result<(Value, usize), String> {
        let b = line.as_bytes();
        match b.get(i) {
            Some(b'"') => parse_string(line, i).map(|(s, n)| (Value::Str(s), n)),
            Some(b'{') => parse_object_at(line, i).map(|(f, n)| (Value::Obj(f), n)),
            Some(b'n') if line[i..].starts_with("null") => Ok((Value::Null, i + 4)),
            Some(c) if c.is_ascii_digit() => parse_number(line, i),
            _ => Err(format!("expected string, number, object or null at byte {i}")),
        }
    }

    fn parse_number(line: &str, i: usize) -> Result<(Value, usize), String> {
        let b = line.as_bytes();
        let mut j = i;
        while matches!(b.get(j), Some(c) if c.is_ascii_digit()) {
            j += 1;
        }
        let mut float = false;
        if b.get(j) == Some(&b'.') {
            float = true;
            j += 1;
            if !matches!(b.get(j), Some(c) if c.is_ascii_digit()) {
                return Err(format!("digit must follow '.' at byte {j}"));
            }
            while matches!(b.get(j), Some(c) if c.is_ascii_digit()) {
                j += 1;
            }
        }
        if matches!(b.get(j), Some(b'e' | b'E')) {
            float = true;
            j += 1;
            if matches!(b.get(j), Some(b'+' | b'-')) {
                j += 1;
            }
            if !matches!(b.get(j), Some(c) if c.is_ascii_digit()) {
                return Err(format!("digit must follow exponent at byte {j}"));
            }
            while matches!(b.get(j), Some(c) if c.is_ascii_digit()) {
                j += 1;
            }
        }
        if float {
            let num: f64 = line[i..j].parse().map_err(|_| format!("bad number at byte {i}"))?;
            if !num.is_finite() {
                return Err(format!("non-finite number at byte {i}"));
            }
            Ok((Value::F64(num), j))
        } else {
            let num: u64 =
                line[i..j].parse().map_err(|_| format!("integer out of range at byte {i}"))?;
            Ok((Value::UInt(num), j))
        }
    }

    fn parse_string(line: &str, i: usize) -> Result<(String, usize), String> {
        let b = line.as_bytes();
        if b.get(i) != Some(&b'"') {
            return Err(format!("expected '\"' at byte {i}"));
        }
        let mut out = String::new();
        let mut j = i + 1;
        loop {
            match b.get(j) {
                None => return Err(format!("unterminated string starting at byte {i}")),
                Some(b'"') => return Ok((out, j + 1)),
                Some(b'\\') => {
                    j += 1;
                    match b.get(j) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = line
                                .get(j + 1..j + 5)
                                .ok_or_else(|| format!("truncated \\u escape at byte {j}"))?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape at byte {j}"))?;
                            let c = char::from_u32(cp)
                                .ok_or_else(|| format!("non-scalar \\u escape at byte {j}"))?;
                            out.push(c);
                            j += 4;
                        }
                        _ => return Err(format!("bad escape at byte {j}")),
                    }
                    j += 1;
                }
                Some(_) => {
                    let c = line[j..].chars().next().ok_or("utf-8 boundary error")?;
                    out.push(c);
                    j += c.len_utf8();
                }
            }
        }
    }
}

/// Every character class the escaper distinguishes, plus JSON punctuation.
const ALPHABET: [char; 22] = [
    'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{1}', '\u{8}', '\u{1f}',
    '\u{7f}', 'é', '€', '😀', '{', '}', ':', ',',
];

/// `TraceEvent::code` is `&'static str`, so codes come from a pool.
const CODES: [&str; 6] = ["ctrl.ck_bgn", "app.send", "", "q\"uote", "back\\slash\n", "é.€"];

fn text(max: usize) -> impl Strategy<Value = String> {
    prop::collection::vec(0..ALPHABET.len(), 0..max)
        .prop_map(|ix| ix.into_iter().map(|i| ALPHABET[i]).collect())
}

/// `(gap, pid, kind, code, seq, detail)`; times are cumulative gaps, so
/// `u64::MAX` gaps pin the clock at its maximum.
type RawEvent = (u64, u32, usize, usize, Option<u64>, String);

fn raw_event() -> impl Strategy<Value = RawEvent> {
    (
        prop_oneof![0u64..3, 1_000u64..2_000_000, Just(u64::MAX)],
        prop_oneof![0u32..4, Just(u32::MAX)],
        0..TRACE_KINDS.len(),
        0..CODES.len(),
        prop_oneof![Just(None), (0u64..4).prop_map(Some), Just(Some(u64::MAX))],
        text(12),
    )
}

fn trace() -> impl Strategy<Value = (TraceMeta, Vec<TraceEvent>)> {
    let meta = (text(5), 0usize..100_000, any::<u64>()).prop_map(|(algo, n, seed)| TraceMeta {
        algo,
        n,
        seed,
    });
    (meta, prop::collection::vec(raw_event(), 0..10)).prop_map(|(meta, raw)| {
        let mut at = 0u64;
        let events = raw
            .into_iter()
            .map(|(gap, pid, kind, code, seq, detail)| {
                at = at.saturating_add(gap);
                TraceEvent {
                    at: SimTime::from_nanos(at),
                    pid: ProcessId(pid),
                    kind: TRACE_KINDS[kind],
                    code: CODES[code],
                    seq,
                    detail,
                }
            })
            .collect();
        (meta, events)
    })
}

/// `"key":value` as the writer renders it.
fn field(o: Obj) -> String {
    let s = o.finish();
    s[1..s.len() - 1].to_string()
}

/// An event line as its rendered fields, so they can be reordered,
/// repeated, dropped, retyped and extended.
fn fields_of(r: &Rec) -> Vec<String> {
    let mut f = vec![
        field(Obj::new().u64("at", r.at)),
        field(Obj::new().u64("pid", u64::from(r.pid))),
        field(Obj::new().str("kind", r.kind.name())),
        field(Obj::new().str("code", &r.code)),
    ];
    if let Some(seq) = r.seq {
        f.push(field(Obj::new().u64("seq", seq)));
    }
    f.push(field(Obj::new().str("detail", &r.detail)));
    f
}

/// Fields no reader expects, some of them malformed.
const EXTRA_FIELDS: [&str; 9] = [
    "\"extra\":{\"a\":1,\"b\":{\"c\":\"d\"}}",
    "\"f\":1.5e3",
    "\"z\":null",
    "\"s\":\"\\u00e9\\n\"",
    "\"seq\":\"7\"",
    "\"at\":0",
    "\"bad\":-1",
    "\"bad\":tru",
    "\"big\":18446744073709551616",
];

/// Replacement values for a field, of every type the grammar knows.
const RETYPED: [&str; 6] = ["\"7\"", "7", "1.0", "null", "{}", "4294967296"];

/// Whitespace the grammar allows between tokens (and `\n`, which the
/// line split sees first).
const WS: [&str; 5] = [" ", "\t", "\r", "  \t ", "\n"];

/// One structural edit of one event line: `(op, line, a, b)`.
type FieldOp = (u8, Index, Index, Index);

fn apply_field_op(lines: &mut [Vec<String>], (op, line, a, b): &FieldOp) {
    if lines.is_empty() {
        return;
    }
    let fields = &mut lines[line.index(lines.len())];
    if fields.is_empty() {
        return;
    }
    let (i, j) = (a.index(fields.len()), b.index(fields.len()));
    match op % 7 {
        0 => fields.swap(i, j),
        1 => {
            let dup = fields[i].clone();
            fields.insert(j, dup);
        }
        2 => fields.insert(j, EXTRA_FIELDS[b.index(EXTRA_FIELDS.len())].to_string()),
        3 => {
            fields.remove(i);
        }
        4 => {
            // Escape one character of the key: `"at"` → `"\u0061t"`.
            let f = &fields[i];
            if let Some(c) = f[1..].chars().next().filter(char::is_ascii_alphanumeric) {
                fields[i] = format!("\"\\u{:04x}{}", c as u32, &f[2..]);
            }
        }
        5 => {
            // Escape the first character of a string value.
            let f = &fields[i];
            if let Some(colon) = f.find("\":\"") {
                let v = colon + 3;
                if let Some(c) = f[v..].chars().next().filter(char::is_ascii_alphanumeric) {
                    fields[i] = format!("{}\\u{:04X}{}", &f[..v], c as u32, &f[v + 1..]);
                }
            }
        }
        _ => {
            let f = &fields[i];
            if let Some(colon) = f.find("\":") {
                fields[i] = format!("{}{}", &f[..colon + 2], RETYPED[b.index(RETYPED.len())]);
            }
        }
    }
}

/// Join fields into a line, with whitespace around every token if `ws`.
fn render_line(fields: &[String], ws: Option<&str>) -> String {
    match ws {
        None => format!("{{{}}}", fields.join(",")),
        Some(w) => {
            let spaced: Vec<String> =
                fields.iter().map(|f| f.replacen("\":", &format!("\"{w}:{w}"), 1)).collect();
            format!("{w}{{{w}{}{w}}}{w}", spaced.join(&format!("{w},{w}")))
        }
    }
}

/// One edit of the file's text: `(op, a, b, byte)`.
type ByteOp = (u8, Index, Index, u8);

fn apply_byte_op(text: String, (op, a, b, byte): &ByteOp) -> String {
    let mut lines: Vec<String> = text.split('\n').map(str::to_string).collect();
    let (i, j) = (a.index(lines.len()), b.index(lines.len()));
    match op % 6 {
        0 => {
            // Flip one bit; a flip that breaks UTF-8 reads back lossily,
            // which is still a corrupted file.
            let mut bytes = text.into_bytes();
            if bytes.is_empty() {
                return String::new();
            }
            let k = a.index(bytes.len());
            bytes[k] ^= 1 << (byte % 8);
            String::from_utf8_lossy(&bytes).into_owned()
        }
        1 => {
            let k = a.index(text.len() + 1);
            String::from_utf8_lossy(&text.as_bytes()[..k]).into_owned()
        }
        2 => {
            let dup = lines[i].clone();
            lines.insert(j, dup);
            lines.join("\n")
        }
        3 => {
            lines.swap(i, j);
            lines.join("\n")
        }
        4 => {
            // Splice: the head of one line onto the tail of another.
            let (x, y) = (&lines[i], &lines[j]);
            let cut_x = (0..=x.len())
                .filter(|&k| x.is_char_boundary(k))
                .nth(usize::from(*byte) % (x.len() + 1))
                .unwrap_or(x.len());
            let cut_y = (0..=y.len())
                .filter(|&k| y.is_char_boundary(k))
                .nth(usize::from(*byte) % (y.len() + 1))
                .unwrap_or(0);
            lines[i] = format!("{}{}", &x[..cut_x], &y[cut_y..]);
            lines.join("\n")
        }
        _ => {
            let mut t = text;
            let k = (0..=t.len())
                .filter(|&k| t.is_char_boundary(k))
                .nth(a.index(t.len() + 1))
                .unwrap_or(t.len());
            t.insert_str(k, WS[usize::from(*byte) % WS.len()]);
            t
        }
    }
}

fn recs_of(events: &[TraceEvent]) -> Vec<Rec> {
    events.iter().map(Rec::from_event).collect()
}

proptest! {
    /// The one-pass writer, from live events and from records, produces
    /// the bytes an `Obj` per line did; the escaper equals the old one.
    #[test]
    fn writer_bytes_equal_the_reference(t in trace()) {
        let (meta, events) = t;
        let recs = recs_of(&events);
        let expect = reference::recs_to_jsonl(&meta, &recs);
        prop_assert_eq!(to_jsonl(&meta, &events), expect.clone());
        prop_assert_eq!(recs_to_jsonl(&meta, &recs), expect.clone());
        for r in &recs {
            let mut esc = String::new();
            json::escape_into(&mut esc, &r.detail);
            prop_assert_eq!(esc, reference::escape(&r.detail));
        }
        // And what is written reads back, through both readers.
        let parsed = parse_jsonl(&expect).map_err(TestCaseError::fail)?;
        prop_assert_eq!(&parsed.recs, &recs);
        prop_assert_eq!(Ok(parsed), reference::parse_jsonl(&expect));
    }

    /// On structurally and byte-wise mutated files the reader and the
    /// reference agree on the whole `Result`, error text included.
    #[test]
    fn reader_agrees_with_the_reference_on_mutated_files(
        t in trace(),
        field_ops in prop::collection::vec((any::<u8>(), any::<Index>(), any::<Index>(), any::<Index>()), 0..3),
        spaced in prop_oneof![Just(None), (0..WS.len()).prop_map(Some)],
        byte_ops in prop::collection::vec((any::<u8>(), any::<Index>(), any::<Index>(), any::<u8>()), 0..3),
    ) {
        let (meta, events) = t;
        let recs = recs_of(&events);
        let good = reference::recs_to_jsonl(&meta, &recs);
        let header = good.lines().next().expect("a header line").to_string();
        let mut lines: Vec<Vec<String>> = recs.iter().map(fields_of).collect();
        for op in &field_ops {
            apply_field_op(&mut lines, op);
        }
        // Whitespace between tokens (a `\n` there splits the line).
        let ws = spaced.map(|w| WS[w]);
        let mut text = header + "\n";
        for fields in &lines {
            text.push_str(&render_line(fields, ws));
            text.push('\n');
        }
        for op in &byte_ops {
            text = apply_byte_op(text, op);
        }
        prop_assert_eq!(parse_jsonl(&text), reference::parse_jsonl(&text), "{:?}", text);
    }

    /// The grammar under every reader (metrics, report, health, trace):
    /// mutated metrics-shaped objects parse to the same fields or fail
    /// with the same error as the old recursive descent.
    #[test]
    fn grammar_agrees_with_the_reference(
        floats in prop::collection::vec(prop_oneof![Just(0.1), Just(3.5e-9), Just(1e300), Just(f64::NAN), 0.0f64..1e6], 0..4),
        s in text(6),
        n in any::<u64>(),
        byte_ops in prop::collection::vec((any::<u8>(), any::<Index>(), any::<Index>(), any::<u8>()), 0..3),
    ) {
        let mut o = Obj::new().str("s", &s).u64("n", n);
        for (i, f) in floats.iter().enumerate() {
            o = o.f64(&format!("f{i}"), *f);
        }
        let inner = Obj::new().u64("count", n % 7).f64("sd", 0.25).str(&s, &s).finish();
        let mut line = o.raw("inner", &inner).finish();
        for op in &byte_ops {
            line = apply_byte_op(line, op);
        }
        prop_assert_eq!(json::parse_object(&line), reference::parse_object(&line), "{:?}", line);
    }
}

proptest! {
    // Each case re-parses every prefix of its file: quadratic, so fewer cases.
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Truncating a valid file at any byte: same verdict, same error.
    #[test]
    fn truncation_at_every_byte_agrees(t in trace()) {
        let (meta, events) = t;
        let text = reference::recs_to_jsonl(&meta, &recs_of(&events));
        for k in (0..=text.len()).filter(|&k| text.is_char_boundary(k)) {
            let cut = &text[..k];
            prop_assert_eq!(parse_jsonl(cut), reference::parse_jsonl(cut), "cut at {}", k);
        }
    }
}

/// Corner cases of the grammar a generator is unlikely to reach.
#[test]
fn grammar_corner_cases_agree() {
    for line in [
        "{\"a\":\"\\u+041\"}",
        "{\"a\":\"\\u00\"}",
        "{\"a\":\"\\u00é\"}",
        "{\"a\":\"\\uD83D\\uDE00\"}",
        "{\"a\":\"\\x\"}",
        "{\"a\":\"\\",
        "{\"a\":\"é",
        "{\"\\u0061\":1,\"a\":2}",
        "{\"a\":1e999}",
        "{\"a\":1E+2,\"b\":2e-2,\"c\":007}",
        "{\"a\":18446744073709551615}",
        "{\"a\":18446744073709551616}",
        "{\"a\":99999999999999999999.5}",
        "{\"a\":\"raw\u{1}control\ttab\"}",
        "{\"a\":nullx}",
        "{\"a\":{}}",
        "{\"a\":{\"b\":{\"c\":null}}}",
        "\u{feff}{}",
        " \t\r\n{ \t\r\n} \t\r\n",
        "{}{}",
        "{\"a\" 1}",
        "{,}",
    ] {
        assert_eq!(json::parse_object(line), reference::parse_object(line), "{line:?}");
    }
}
