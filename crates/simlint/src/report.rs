//! Findings and the report format.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One diagnostic. `file` is root-relative with forward slashes so the
/// output is stable across machines.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Root-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule identifier (e.g. `wall-clock`, `hash-container`).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl Finding {
    /// A finding at `file:line`.
    pub fn new(file: &str, line: u32, rule: &'static str, message: String) -> Finding {
        Finding { file: file.to_string(), line, rule, message }
    }
}

/// The full result of one lint run.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// All findings, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Per-crate `.unwrap()` counts (all code, test mods included).
    pub unwraps: BTreeMap<String, usize>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// True when the workspace passed every rule.
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Canonical ordering for deterministic output.
    pub fn sort(&mut self) {
        self.findings.sort_by(|a, b| {
            (a.file.as_str(), a.line, a.rule, a.message.as_str()).cmp(&(
                b.file.as_str(),
                b.line,
                b.rule,
                b.message.as_str(),
            ))
        });
    }

    /// `file:line: [rule] message` lines plus a summary footer.
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        for f in &self.findings {
            let _ = writeln!(s, "{}:{}: [{}] {}", f.file, f.line, f.rule, f.message);
        }
        let _ = writeln!(
            s,
            "simlint: {} file(s) scanned, {} finding(s), {} unwrap(s) across {} crate(s)",
            self.files_scanned,
            self.findings.len(),
            self.unwraps.values().sum::<usize>(),
            self.unwraps.len()
        );
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let mut r = Report {
            findings: vec![
                Finding::new("b.rs", 2, "wall-clock", "x".into()),
                Finding::new("a.rs", 9, "anchor", "y".into()),
            ],
            unwraps: BTreeMap::from([("core".to_string(), 3usize)]),
            files_scanned: 2,
        };
        r.sort();
        r
    }

    #[test]
    fn sort_orders_by_file_then_line() {
        let r = sample();
        assert_eq!(r.findings[0].file, "a.rs");
        assert_eq!(r.findings[1].file, "b.rs");
    }

    #[test]
    fn text_has_file_line_rule_and_footer() {
        let t = sample().to_text();
        assert!(t.contains("a.rs:9: [anchor] y"));
        assert!(t.contains("b.rs:2: [wall-clock] x"));
        assert!(t.contains("2 finding(s), 3 unwrap(s) across 1 crate(s)"));
    }

    #[test]
    fn empty_report_is_clean() {
        assert!(Report::default().clean());
    }
}
