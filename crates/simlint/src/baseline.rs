//! The committed baseline: the ratcheting `.unwrap()` budget (rule
//! `unwrap-budget`).
//!
//! `simlint.baseline` at the workspace root records, per crate, the count
//! of `.unwrap()` call sites. A crate rising above its recorded budget is
//! a finding; a crate falling below it is *also* a finding (a stale,
//! too-generous budget), fixed by regenerating with `--write-baseline`.
//! The budget can therefore only ever ratchet down.

use std::collections::BTreeMap;

use crate::report::Finding;

/// The committed baseline file name, relative to the workspace root.
pub const BASELINE_FILE: &str = "simlint.baseline";

/// Parse a baseline into crate → (budget, 1-based line). `#` lines and
/// blanks are comments; the `version` line is informational; budget
/// lines are `unwrap <crate> <count>`.
fn parse(text: &str) -> BTreeMap<String, (usize, u32)> {
    let mut budgets = BTreeMap::new();
    for (idx, line) in text.lines().enumerate() {
        let mut parts = line.split_whitespace();
        if let (Some("unwrap"), Some(name), Some(Ok(n))) =
            (parts.next(), parts.next(), parts.next().map(str::parse::<usize>))
        {
            budgets.insert(name.to_string(), (n, idx as u32 + 1));
        }
    }
    budgets
}

/// Render a baseline from live unwrap counts.
pub fn format(counts: &BTreeMap<String, usize>) -> String {
    let mut s = String::from(
        "# simlint baseline: unwrap() budget per crate.\n\
         # `unwrap <crate> <n>` may only ratchet down: above budget fails the lint, below\n\
         # budget is a stale-baseline finding.\n\
         # Regenerate with `cargo run -p simlint -- --write-baseline`.\n\
         version 2\n",
    );
    for (k, v) in counts {
        s.push_str(&std::format!("unwrap {k} {v}\n"));
    }
    s
}

/// Compare live unwrap counts against the committed budget.
pub fn compare(baseline: Option<&str>, counts: &BTreeMap<String, usize>) -> Vec<Finding> {
    let mut findings = Vec::new();
    let Some(text) = baseline else {
        findings.push(Finding::new(
            BASELINE_FILE,
            1,
            "unwrap-budget",
            "baseline file missing — generate it with `--write-baseline` and commit it".to_string(),
        ));
        return findings;
    };
    let budgets = parse(text);
    for (name, &actual) in counts {
        match budgets.get(name) {
            Some(&(allowed, line)) if actual > allowed => findings.push(Finding::new(
                BASELINE_FILE,
                line,
                "unwrap-budget",
                format!(
                    "crate `{name}` has {actual} .unwrap() call(s), budget is {allowed} — \
                     convert the new ones to .expect(\"<invariant>\")"
                ),
            )),
            Some(&(allowed, line)) if actual < allowed => findings.push(Finding::new(
                BASELINE_FILE,
                line,
                "unwrap-budget",
                format!(
                    "budget for `{name}` is stale ({allowed} recorded, {actual} actual) — \
                     ratchet it down with `--write-baseline`"
                ),
            )),
            Some(_) => {}
            None if actual > 0 => findings.push(Finding::new(
                BASELINE_FILE,
                1,
                "unwrap-budget",
                format!(
                    "crate `{name}` has {actual} .unwrap() call(s) but no budget line — \
                     regenerate with `--write-baseline`"
                ),
            )),
            None => {}
        }
    }
    for (name, &(allowed, line)) in &budgets {
        if !counts.contains_key(name) {
            findings.push(Finding::new(
                BASELINE_FILE,
                line,
                "unwrap-budget",
                format!(
                    "budget line for unknown crate `{name}` ({allowed}) — regenerate with \
                     `--write-baseline`"
                ),
            ));
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(pairs: &[(&str, usize)]) -> BTreeMap<String, usize> {
        pairs.iter().map(|&(k, v)| (k.to_string(), v)).collect()
    }

    fn fmt(pairs: &[(&str, usize)]) -> String {
        format(&counts(pairs))
    }

    #[test]
    fn round_trip_parse_format() {
        let parsed = parse(&fmt(&[("core", 0), ("harness", 12)]));
        assert_eq!(parsed.get("core").map(|&(n, _)| n), Some(0));
        assert_eq!(parsed.get("harness").map(|&(n, _)| n), Some(12));
        assert_eq!(parsed.len(), 2);
    }

    #[test]
    fn over_budget_fails_under_budget_is_stale() {
        let base = fmt(&[("core", 2)]);
        let over = compare(Some(&base), &counts(&[("core", 3)]));
        assert_eq!(over.len(), 1);
        assert!(over[0].message.contains("budget is 2"));
        let under = compare(Some(&base), &counts(&[("core", 1)]));
        assert_eq!(under.len(), 1);
        assert!(under[0].message.contains("stale"));
        let exact = compare(Some(&base), &counts(&[("core", 2)]));
        assert!(exact.is_empty());
    }

    #[test]
    fn missing_file_and_unknown_crates_are_findings() {
        assert_eq!(compare(None, &counts(&[("core", 1)])).len(), 1);
        let base = fmt(&[("ghost", 4)]);
        let f = compare(Some(&base), &counts(&[]));
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("ghost"));
    }

    #[test]
    fn zero_count_crate_without_budget_line_is_fine() {
        let base = fmt(&[]);
        assert!(compare(Some(&base), &counts(&[("sim", 0)])).is_empty());
    }
}
