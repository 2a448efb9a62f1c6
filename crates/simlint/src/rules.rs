//! The rule set.
//!
//! | id                       | tier          | what it catches                                   |
//! |--------------------------|---------------|---------------------------------------------------|
//! | `wall-clock`             | deterministic | `Instant`, `SystemTime`, `thread::sleep`          |
//! | `hash-container`         | deterministic | `HashMap`, `HashSet`                              |
//! | `ambient-entropy`        | deterministic | `thread_rng`, `from_entropy`, `RandomState`       |
//! | `libm`                   | deterministic | transcendental float calls (`ln`, `exp`, `sin`, …)|
//! | `tier-boundary`          | deterministic | a `[dependencies]` entry naming an exempt crate   |
//! | `forbid-unsafe`          | all           | crate root missing `#![forbid(unsafe_code)]`      |
//! | `anchor`                 | all           | `[OCPT` §x.y`]` anchors out of sync with DESIGN.md|
//! | `unwrap-budget`          | all           | per-crate `.unwrap()` count above the baseline    |
//! | `allow-*`                | all           | malformed / unjustified / unused escape hatches   |
//!
//! Escape hatch: a line (or the line directly below) can be excused with
//! a comment of the form `simlint: allow(<rule>, "<why>")` — the `<why>`
//! is mandatory and unused allows are themselves findings, so the hatch
//! cannot rot silently.
//!
//! This module owns the per-file rules; `tier-boundary` lives in
//! [`crate::workspace`], and the crate-level D4/D5 checks are assembled
//! in [`crate::analyze`].

use crate::lexer::{Comment, Lexed, Tok, Token};
use crate::report::Finding;
use crate::workspace::Tier;

/// Identifiers that pull entropy from the environment.
const ENTROPY_IDENTS: &[&str] = &["thread_rng", "from_entropy", "RandomState"];

/// Float methods whose results come from the host's libm and are not
/// correctly rounded by contract, so two hosts may disagree in the last
/// bit. `sqrt` is IEEE-exact and stays allowed.
const LIBM_METHODS: &[&str] = &[
    "ln", "exp", "exp2", "exp_m1", "ln_1p", "log", "log2", "log10", "powf", "powi", "sin", "cos",
    "tan", "tanh", "atan2", "cbrt", "hypot",
];

/// Result of linting one file in isolation (cross-file rules — anchors,
/// unwrap budget, forbid-unsafe — are assembled by the caller from the
/// `unwraps` / `anchors` / `has_forbid_unsafe` fields).
#[derive(Clone, Debug, Default)]
pub struct SourceCheck {
    /// D1–D3, libm and allow-hygiene findings for this file.
    pub findings: Vec<Finding>,
    /// Number of `.unwrap(` call sites (test code included — the budget
    /// covers everything).
    pub unwraps: usize,
    /// Protocol anchors found in comments, as `(label, line)` where the
    /// label is e.g. `3.4.1`.
    pub anchors: Vec<(String, u32)>,
    /// True when the token stream contains `#![forbid(unsafe_code)]`.
    pub has_forbid_unsafe: bool,
}

/// One parsed escape-hatch comment.
#[derive(Clone, Debug)]
struct Allow {
    /// The rule it excuses.
    rule: String,
    /// The mandatory justification (may be empty — that is itself a
    /// finding, emitted at parse time).
    why: String,
    /// 1-based line of the comment; it covers this line and the next.
    line: u32,
    /// Set when some finding was actually suppressed by it.
    used: bool,
}

/// Lint one lexed file. D1–D3 and libm apply to non-test code of the
/// deterministic tier; escape hatches suppress a finding on their own
/// line or the next, and an allow that suppresses nothing is a finding.
pub fn check_source(rel_path: &str, tier: Tier, lexed: &Lexed, path_is_test: bool) -> SourceCheck {
    let (mut allows, mut findings) = parse_allows(rel_path, &lexed.comments);
    if tier == Tier::Deterministic && !path_is_test {
        for f in deterministic_findings(rel_path, lexed) {
            if lexed.in_test_code(f.line) {
                continue;
            }
            match allows
                .iter_mut()
                .find(|a| a.rule == f.rule && (a.line == f.line || a.line + 1 == f.line))
            {
                Some(a) => a.used = true,
                None => findings.push(f),
            }
        }
    }
    for a in allows.iter().filter(|a| !a.used && !a.why.is_empty()) {
        findings.push(Finding::new(
            rel_path,
            a.line,
            "allow-unused",
            format!("allow({}) suppresses nothing on this or the next line — remove it", a.rule),
        ));
    }
    SourceCheck {
        findings,
        unwraps: count_unwraps(&lexed.tokens),
        anchors: extract_anchors_from_comments(&lexed.comments),
        has_forbid_unsafe: has_forbid_unsafe(&lexed.tokens),
    }
}

/// D1 + D2 + D3 + libm for one file, before allow/test-region filtering.
fn deterministic_findings(rel_path: &str, lexed: &Lexed) -> Vec<Finding> {
    let toks = &lexed.tokens;
    let mut out = Vec::new();
    let mk = |line: u32, rule: &'static str, message: String| {
        Finding::new(rel_path, line, rule, message)
    };
    for (i, t) in toks.iter().enumerate() {
        // D1 wall-clock, D2 hash containers and D3 ambient entropy:
        // single-identifier scans.
        // Raw identifiers count too — `r#Instant` resolves to the same item.
        let Some(w) = t.tok.ident() else { continue };
        match w {
            "Instant" | "SystemTime" => out.push(mk(
                t.line,
                "wall-clock",
                format!("`{w}` in deterministic code — simulated VirtualTime only"),
            )),
            "sleep" if path_prefix_is(toks, i, "thread") => out.push(mk(
                t.line,
                "wall-clock",
                "`thread::sleep` in deterministic code — schedule a simulated timer".to_string(),
            )),
            "HashMap" | "HashSet" => out.push(mk(
                t.line,
                "hash-container",
                format!(
                    "`{w}` in deterministic code — its iteration order is a function of \
                     RandomState, not of the run; use BTreeMap/BTreeSet or an index-keyed Vec"
                ),
            )),
            w if ENTROPY_IDENTS.contains(&w) => out.push(mk(
                t.line,
                "ambient-entropy",
                format!("`{w}` draws ambient entropy — derive all randomness from the run seed"),
            )),
            _ => {}
        }
        // `.m(` method calls: libm.
        let is_call = i > 0
            && toks[i - 1].tok == Tok::Punct('.')
            && toks.get(i + 1).map(|t| &t.tok) == Some(&Tok::Punct('('));
        if is_call && LIBM_METHODS.contains(&w) {
            out.push(mk(
                t.line,
                "libm",
                format!(
                    "`.{w}()` is the host libm's, not correctly rounded — results may differ \
                     between hosts; use exact arithmetic"
                ),
            ));
        }
    }
    out
}

/// True when tokens `i-3..i` spell `prefix::` (e.g. `thread::sleep`).
fn path_prefix_is(toks: &[Token], i: usize, prefix: &str) -> bool {
    i >= 3
        && toks[i - 1].tok == Tok::Punct(':')
        && toks[i - 2].tok == Tok::Punct(':')
        && toks[i - 3].tok.ident() == Some(prefix)
}

/// Count `.unwrap(` call sites.
fn count_unwraps(toks: &[Token]) -> usize {
    let mut n = 0usize;
    for i in 0..toks.len() {
        if toks[i].tok == Tok::Punct('.')
            && matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Ident(w)) if w == "unwrap")
            && toks.get(i + 2).map(|t| &t.tok) == Some(&Tok::Punct('('))
        {
            n += 1;
        }
    }
    n
}

/// True when the stream contains `# ! [ forbid ( unsafe_code ) ]`.
fn has_forbid_unsafe(toks: &[Token]) -> bool {
    toks.windows(4).any(|w| {
        matches!(&w[0].tok, Tok::Ident(a) if a == "forbid")
            && w[1].tok == Tok::Punct('(')
            && matches!(&w[2].tok, Tok::Ident(b) if b == "unsafe_code")
            && w[3].tok == Tok::Punct(')')
    })
}

/// The protocol-anchor marker scanned for in comments.
const ANCHOR_MARKER: &str = "OCPT \u{a7}";

/// Pull `(label, line)` pairs out of comment text for every
/// `ANCHOR_MARKER<label>]` occurrence; labels are dotted section numbers.
pub fn extract_anchors_from_comments(comments: &[Comment]) -> Vec<(String, u32)> {
    let mut out = Vec::new();
    for c in comments {
        for label in extract_anchor_labels(&c.text) {
            out.push((label, c.line));
        }
    }
    out
}

/// Extract anchor labels from arbitrary text (also used on DESIGN.md).
pub fn extract_anchor_labels(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(pos) = rest.find(ANCHOR_MARKER) {
        rest = &rest[pos + ANCHOR_MARKER.len()..];
        let label: String = rest.chars().take_while(|c| c.is_ascii_digit() || *c == '.').collect();
        let label = label.trim_end_matches('.').to_string();
        if !label.is_empty() {
            out.push(label);
        }
    }
    out
}

/// Parse every escape-hatch comment in the file. Returns the parsed
/// allows plus hygiene findings (malformed shape, empty justification).
fn parse_allows(rel_path: &str, comments: &[Comment]) -> (Vec<Allow>, Vec<Finding>) {
    let mut allows = Vec::new();
    let mut findings = Vec::new();
    for c in comments {
        // Only a comment that *starts* with the marker is an escape
        // hatch; prose mentioning the syntax mid-sentence is not.
        let Some(body) = c.text.strip_prefix("simlint:") else { continue };
        let body = body.trim();
        match parse_allow_body(body) {
            Some((rule, why)) => {
                if why.trim().is_empty() {
                    findings.push(Finding::new(
                        rel_path,
                        c.line,
                        "allow-unjustified",
                        format!(
                            "allow({rule}) has an empty justification — say why the rule is \
                             safe to break here"
                        ),
                    ));
                }
                allows.push(Allow { rule, why: why.trim().to_string(), line: c.line, used: false });
            }
            None => findings.push(Finding::new(
                rel_path,
                c.line,
                "allow-malformed",
                "expected `simlint: allow(<rule>, \"<why>\")`".to_string(),
            )),
        }
    }
    (allows, findings)
}

/// Parse `allow(<rule>, "<why>")`; returns `(rule, why)`.
fn parse_allow_body(body: &str) -> Option<(String, String)> {
    let body = body.strip_prefix("allow")?.trim_start();
    let body = body.strip_prefix('(')?;
    let (rule, rest) = body.split_once(',')?;
    let rule = rule.trim();
    if rule.is_empty() || !rule.chars().all(|c| c.is_ascii_alphanumeric() || c == '-') {
        return None;
    }
    let rest = rest.trim_start();
    let rest = rest.strip_prefix('"')?;
    let (why, tail) = rest.split_once('"')?;
    if tail.trim_start().strip_prefix(')').is_none() {
        return None;
    }
    Some((rule.to_string(), why.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn check(tier: Tier, src: &str) -> SourceCheck {
        check_source("fixture.rs", tier, &lex(src), false)
    }

    fn rules_of(c: &SourceCheck) -> Vec<&'static str> {
        c.findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn wall_clock_fires_on_instant_and_thread_sleep() {
        let c = check(Tier::Deterministic, "let t = Instant::now();\nthread::sleep(d);");
        assert_eq!(rules_of(&c), vec!["wall-clock", "wall-clock"]);
        assert_eq!(c.findings[0].line, 1);
        assert_eq!(c.findings[1].line, 2);
    }

    #[test]
    fn wall_clock_ignores_other_sleeps_and_exempt_tier() {
        let c = check(Tier::Deterministic, "scheduler.sleep(d); let s = my::sleep();");
        assert!(c.findings.is_empty(), "{:?}", c.findings);
        let c = check(Tier::Exempt, "let t = Instant::now();");
        assert!(c.findings.is_empty());
    }

    #[test]
    fn entropy_fires_on_thread_rng_and_random_state() {
        let c = check(
            Tier::Deterministic,
            "let r = rand::thread_rng();\nlet s: RandomState = Default::default();",
        );
        assert_eq!(rules_of(&c), vec!["ambient-entropy", "ambient-entropy"]);
    }

    #[test]
    fn hash_containers_fire_wherever_they_are_named() {
        let src = "use std::collections::HashMap;\nstruct S { seen: HashSet<u64> }\n\
                   let m = std::collections::HashMap::<u8, u8>::new();";
        let c = check(Tier::Deterministic, src);
        assert_eq!(rules_of(&c), vec!["hash-container"; 3]);
        assert_eq!(c.findings.iter().map(|f| f.line).collect::<Vec<_>>(), vec![1, 2, 3]);
        let ordered = "let m: BTreeMap<u32, u32> = BTreeMap::new(); let s = BTreeSet::new();";
        assert!(check(Tier::Deterministic, ordered).findings.is_empty());
    }

    #[test]
    fn allow_suppresses_same_and_next_line_and_must_be_used() {
        let src = "// simlint: allow(wall-clock, \"self-measurement only\")\n\
                   let t = Instant::now();";
        let c = check(Tier::Deterministic, src);
        assert!(c.findings.is_empty(), "{:?}", c.findings);

        let unused = "// simlint: allow(wall-clock, \"nothing here\")\nlet x = 1;";
        let c = check(Tier::Deterministic, unused);
        assert_eq!(rules_of(&c), vec!["allow-unused"]);
    }

    #[test]
    fn allow_requires_justification_and_shape() {
        let c = check(
            Tier::Deterministic,
            "// simlint: allow(wall-clock, \"\")\nlet t = Instant::now();",
        );
        assert_eq!(rules_of(&c), vec!["allow-unjustified"]);
        let c = check(Tier::Deterministic, "// simlint: allow wall-clock\nlet x = 1;");
        assert_eq!(rules_of(&c), vec!["allow-malformed"]);
    }

    #[test]
    fn cfg_test_regions_are_exempt_from_d1_d3() {
        let src =
            "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() { let i = Instant::now(); }\n}";
        let c = check(Tier::Deterministic, src);
        assert!(c.findings.is_empty(), "{:?}", c.findings);
    }

    #[test]
    fn hazards_inside_strings_and_comments_do_not_fire() {
        let src = "let s = \"Instant::now() and thread_rng()\";\n// Instant is banned here\nlet r = r#\"HashMap .iter()\"#;";
        let c = check(Tier::Deterministic, src);
        assert!(c.findings.is_empty(), "{:?}", c.findings);
    }

    #[test]
    fn raw_identifier_hazards_still_fire() {
        let c = check(Tier::Deterministic, "let t = r#Instant::now();");
        assert_eq!(rules_of(&c), vec!["wall-clock"]);
    }

    #[test]
    fn unwrap_counting_includes_test_code() {
        let src = "fn f() { x.unwrap(); }\n#[cfg(test)]\nmod t { fn g() { y.unwrap(); } }\nlet s = \".unwrap()\";";
        let c = check(Tier::Deterministic, src);
        assert_eq!(c.unwraps, 2);
    }

    #[test]
    fn forbid_unsafe_detection() {
        assert!(check(Tier::Deterministic, "#![forbid(unsafe_code)]\nfn f() {}").has_forbid_unsafe);
        assert!(!check(Tier::Deterministic, "fn f() {}").has_forbid_unsafe);
    }

    #[test]
    fn anchors_extracted_from_comments_only() {
        let marker = format!("[{}{}]", super::ANCHOR_MARKER, "3.4.1");
        let src = format!("// {marker} initiation\nlet s = \"{marker}\";");
        let c = check(Tier::Deterministic, &src);
        assert_eq!(c.anchors, vec![("3.4.1".to_string(), 1)]);
    }

    #[test]
    fn anchor_labels_parse_from_text() {
        let text = format!(
            "cites {}2.2] and {}3.5.1] twice {}3.5.1]",
            super::ANCHOR_MARKER,
            super::ANCHOR_MARKER,
            super::ANCHOR_MARKER
        );
        assert_eq!(extract_anchor_labels(&text), vec!["2.2", "3.5.1", "3.5.1"]);
    }

    #[test]
    fn path_level_test_files_skip_d1_d3_but_count_unwraps() {
        let lexed = lex("fn t() { let i = Instant::now(); x.unwrap(); }");
        let c = check_source("crates/core/tests/x.rs", Tier::Deterministic, &lexed, true);
        assert!(c.findings.is_empty());
        assert_eq!(c.unwraps, 1);
    }
}
