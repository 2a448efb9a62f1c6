//! Fixture corpus: every rule exercised in both directions (firing and
//! deliberately quiet), with the lexer edge cases that make a
//! token-level linter worth having over grep — rule tokens inside
//! strings, comments, raw strings and test modules.

use simlint::lexer::lex;
use simlint::report::{Finding, Report};
use simlint::rules::check_source;
use simlint::workspace::Tier;
use simlint::{baseline, rules, workspace};

fn det(src: &str) -> Vec<Finding> {
    // Sort the way Report::sort does — rule evaluation order within one
    // file is an implementation detail.
    let mut f = check_source("fixture.rs", Tier::Deterministic, &lex(src), false).findings;
    f.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    f
}

fn rule_ids(findings: &[Finding]) -> Vec<&'static str> {
    findings.iter().map(|f| f.rule).collect()
}

// ---------------------------------------------------------------- D1

#[test]
fn d1_fires_on_each_wall_clock_source() {
    let f = det("let a = Instant::now();\nlet b = SystemTime::now();\nstd::thread::sleep(d);");
    assert_eq!(rule_ids(&f), vec!["wall-clock"; 3]);
    assert_eq!(f.iter().map(|x| x.line).collect::<Vec<_>>(), vec![1, 2, 3]);
}

#[test]
fn d1_quiet_on_exempt_tier_simulated_time_and_unrelated_sleep() {
    let f = check_source(
        "fixture.rs",
        Tier::Exempt,
        &lex("let a = Instant::now(); thread::sleep(d);"),
        false,
    );
    assert!(f.findings.is_empty());
    assert!(det("let t = VirtualTime::ZERO; sched.sleep(dur); let instant_ish = 3;").is_empty());
}

// ---------------------------------------------------------------- D2

#[test]
fn d2_fires_on_struct_field_and_for_loop() {
    // A hash container fires wherever it is named — an import, a field, a
    // constructor — not only where it is iterated.
    let f = det("struct S { seen: HashSet<u64> }\nfn f(s: &S) { for x in &s.seen { use_it(x) } }");
    assert_eq!(rule_ids(&f), vec!["hash-container"]);
    let f = det("use std::collections::HashMap;\nlet m = HashMap::new();\nlet v = m.get(&1);");
    assert_eq!(rule_ids(&f), vec!["hash-container"; 2]);
}

#[test]
fn d2_quiet_on_btree_and_vec() {
    let quiet = "let t: BTreeMap<u32, u32> = make();\nfor (k, v) in t.iter() { use_it(k, v) }\n\
                 let s = BTreeSet::new();\nlet v: Vec<u32> = make();\nfor x in v.iter() { use_it(x) }\n\
                 let hashed = hash_map_like(); // a HashMap in prose is fine";
    assert!(det(quiet).is_empty(), "{:?}", det(quiet));
}

// ---------------------------------------------------------------- D3

#[test]
fn d3_fires_on_each_entropy_source() {
    let f =
        det("let r = thread_rng();\nlet s = SmallRng::from_entropy();\nlet h: RandomState = d();");
    assert_eq!(rule_ids(&f), vec!["ambient-entropy"; 3]);
}

#[test]
fn d3_quiet_on_seeded_rng() {
    assert!(det("let r = SimRng::seed_from_u64(cfg.seed); let x = r.next_u64();").is_empty());
}

// ------------------------------------------------- lexer edge cases

#[test]
fn rule_tokens_hidden_in_literals_and_comments_never_fire() {
    let src = r##"
        let doc = "Instant::now(), thread_rng() and HashMap iteration are banned";
        // Instant, SystemTime, thread_rng — discussing, not invoking
        /* HashMap .keys() inside /* a nested */ block comment */
        let raw = r#"RandomState "with # inside" and .drain()"#;
        let bytes = b"SystemTime";
        let ch = 'I';
    "##;
    assert!(det(src).is_empty(), "{:?}", det(src));
}

#[test]
fn cfg_test_modules_and_test_fns_are_exempt_from_d1_d3() {
    let src = "fn live() {}\n\
               #[cfg(test)]\nmod tests {\n    use super::*;\n\
               #[test]\n    fn t() {\n        let i = Instant::now();\n        let r = thread_rng();\n\
               let m: HashMap<u8, u8> = make();\n        for k in m.keys() { use_it(k) }\n    }\n}";
    assert!(det(src).is_empty(), "{:?}", det(src));
}

#[test]
fn hazards_before_and_after_a_test_mod_still_fire() {
    let src =
        "let a = Instant::now();\n#[cfg(test)]\nmod tests { fn t() {} }\nlet b = Instant::now();";
    let f = det(src);
    assert_eq!(f.iter().map(|x| x.line).collect::<Vec<_>>(), vec![1, 4]);
}

#[test]
fn integration_test_paths_skip_d1_d3() {
    let c = check_source(
        "crates/core/tests/proptests.rs",
        Tier::Deterministic,
        &lex("let i = Instant::now();"),
        workspace::path_is_test("crates/core/tests/proptests.rs"),
    );
    assert!(c.findings.is_empty());
}

// ------------------------------------------------------------ allows

#[test]
fn allow_suppresses_only_the_named_rule_nearby() {
    let ok = "// simlint: allow(wall-clock, \"self-measurement only\")\nlet t = Instant::now();";
    assert!(det(ok).is_empty());

    // Wrong rule name: the finding stands and the allow is unused.
    let wrong = "// simlint: allow(ambient-entropy, \"mismatched\")\nlet t = Instant::now();";
    let f = det(wrong);
    assert_eq!(rule_ids(&f), vec!["allow-unused", "wall-clock"]);

    // Too far away: two lines below the allow.
    let far = "// simlint: allow(wall-clock, \"too far\")\nlet x = 1;\nlet t = Instant::now();";
    let f = det(far);
    assert_eq!(rule_ids(&f), vec!["allow-unused", "wall-clock"]);
}

#[test]
fn allow_hygiene_is_enforced() {
    let f = det("// simlint: allow(wall-clock, \"\")\nlet t = Instant::now();");
    assert_eq!(rule_ids(&f), vec!["allow-unjustified"]);
    let f = det("// simlint: allou(wall-clock, \"typo\")\nlet t = Instant::now();");
    assert_eq!(rule_ids(&f), vec!["allow-malformed", "wall-clock"]);
    // Prose that merely mentions the syntax is not an allow.
    let f =
        det("// the `simlint: allow(rule, \"why\")` form is documented in DESIGN.md\nlet x = 1;");
    assert!(f.is_empty(), "{f:?}");
}

// ---------------------------------------------------------------- D4

#[test]
fn d4_forbid_unsafe_both_directions() {
    let with =
        check_source("crates/x/src/lib.rs", Tier::Exempt, &lex("#![forbid(unsafe_code)]"), false);
    assert!(with.has_forbid_unsafe);
    let without =
        check_source("crates/x/src/lib.rs", Tier::Exempt, &lex("//! docs only\nfn f() {}"), false);
    assert!(!without.has_forbid_unsafe);
    // The string form must not count.
    let fake = check_source("x.rs", Tier::Exempt, &lex("let s = \"forbid(unsafe_code)\";"), false);
    assert!(!fake.has_forbid_unsafe);
}

#[test]
fn d4_anchor_extraction_from_comments_not_strings() {
    let marker = "OCPT \u{a7}";
    let src = format!("// [{marker}3.4.3] receive-side case analysis\nlet s = \"[{marker}9.9]\";");
    let c = check_source("x.rs", Tier::Deterministic, &lex(&src), false);
    assert_eq!(c.anchors, vec![("3.4.3".to_string(), 1)]);
    assert_eq!(
        rules::extract_anchor_labels(&format!("| [{marker}2.2] | table row |")),
        vec!["2.2"]
    );
    assert!(rules::extract_anchor_labels("no anchors here").is_empty());
}

// ---------------------------------------------------------------- D5

#[test]
fn d5_budget_fires_above_is_stale_below_and_quiet_at_exact() {
    let counts = |n: usize| std::collections::BTreeMap::from([("core".to_string(), n)]);
    let base = baseline::format(&counts(2));
    assert!(baseline::compare(Some(&base), &counts(2)).is_empty());
    let over = baseline::compare(Some(&base), &counts(3));
    assert_eq!(rule_ids(&over), vec!["unwrap-budget"]);
    assert!(over[0].message.contains("expect"));
    let stale = baseline::compare(Some(&base), &counts(1));
    assert_eq!(rule_ids(&stale), vec!["unwrap-budget"]);
    assert!(stale[0].message.contains("stale"));
}

#[test]
fn d5_counts_unwraps_everywhere_but_not_in_literals() {
    let src = "fn f() { a.unwrap(); }\n#[cfg(test)]\nmod t { fn g() { b.unwrap(); } }\n\
               let s = \".unwrap()\"; // .unwrap() in comment\nlet w = c.unwrap_or(0);";
    let c = check_source("x.rs", Tier::Deterministic, &lex(src), false);
    assert_eq!(c.unwraps, 2);
}

// -------------------------------------------------------------- libm

#[test]
fn libm_fires_on_each_transcendental_method() {
    for m in [
        "ln", "exp", "exp2", "exp_m1", "ln_1p", "log", "log2", "log10", "powf", "powi", "sin",
        "cos", "tan", "tanh", "atan2", "cbrt", "hypot",
    ] {
        let f = det(&format!("let x = 1.5f64;\nlet y = x.{m}(2.0);"));
        assert_eq!(rule_ids(&f), vec!["libm"], "method {m}");
        assert_eq!(f[0].line, 2, "method {m}");
    }
}

#[test]
fn libm_quiet_on_sqrt_tests_strings_exempt_tier_and_non_calls() {
    let quiet = "let r = x.sqrt() * y.abs() + z.mul_add(a, b);\n\
                 let s = \"u.ln() and x.exp()\"; // and w.sin() in a comment\n\
                 let ln = 3; let f = S { exp: 2 }.exp; let g = f64::ln;";
    assert!(det(quiet).is_empty(), "{:?}", det(quiet));
    let in_test = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() { let d = x.ln(); }\n}";
    assert!(det(in_test).is_empty(), "{:?}", det(in_test));
    let exempt = check_source("fixture.rs", Tier::Exempt, &lex("let y = x.ln();"), false);
    assert!(exempt.findings.is_empty());
    let allowed = "// simlint: allow(libm, \"host-pinned until the exact sampler lands\")\n\
                   let y = x.ln();";
    assert!(det(allowed).is_empty(), "{:?}", det(allowed));
}

// ------------------------------------------------------------ report

#[test]
fn report_output_is_sorted() {
    let mut r = Report {
        findings: vec![
            Finding::new("z.rs", 1, "wall-clock", "m".into()),
            Finding::new("a.rs", 7, "anchor", "q".into()),
        ],
        unwraps: std::collections::BTreeMap::from([("core".to_string(), 0usize)]),
        files_scanned: 2,
    };
    r.sort();
    assert_eq!(r.findings[0].file, "a.rs");
    let text = r.to_text();
    assert!(text.lines().next().is_some_and(|l| l.starts_with("a.rs:7: [anchor]")));
}

// ------------------------------------------ workspace analysis helpers

/// Analyze an in-memory workspace with an empty (but valid) baseline.
fn ws(files: &[(&str, &str)], manifests: &[(&str, &str)]) -> Report {
    let own = |pairs: &[(&str, &str)]| -> Vec<(String, String)> {
        pairs.iter().map(|&(rel, text)| (rel.to_string(), text.to_string())).collect()
    };
    let base = baseline::format(&std::collections::BTreeMap::new());
    simlint::analyze(&own(files), &own(manifests), "", Some(&base))
}

// ------------------------------------------------------ tier boundary

#[test]
fn tier_boundary_fires_when_a_deterministic_crate_depends_on_an_exempt_one() {
    let toml = "[package]\nname = \"ocpt-harness\"\n\n[dependencies]\n\
                ocpt-core.workspace = true\nocpt-runtime.workspace = true\n";
    let r = ws(&[], &[("crates/harness/Cargo.toml", toml)]);
    assert_eq!(rule_ids(&r.findings), vec!["tier-boundary"], "{:?}", r.findings);
    assert_eq!((r.findings[0].file.as_str(), r.findings[0].line), ("crates/harness/Cargo.toml", 6));
    assert!(r.to_text().contains("[tier-boundary]"));
}

#[test]
fn clean_cross_crate_call_stays_quiet() {
    // A deterministic crate calling into another deterministic crate, and
    // an exempt crate depending on anything, are both fine.
    let r = ws(
        &[
            ("crates/harness/src/x.rs", "fn drive() { ocpt_core::helper(); }"),
            ("crates/core/src/h.rs", "pub fn helper() { let t = now_ticks(); }"),
        ],
        &[
            ("crates/harness/Cargo.toml", "[dependencies]\nocpt-core.workspace = true\n"),
            ("crates/cli/Cargo.toml", "[dependencies]\nocpt-runtime.workspace = true\n"),
        ],
    );
    assert!(r.clean(), "{:?}", r.findings);
}
