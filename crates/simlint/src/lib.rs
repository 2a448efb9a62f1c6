//! simlint — zero-dependency determinism analyzer for the OCPT workspace.
//!
//! The simulation's headline claim is bit-identical replay from (config,
//! seed). That property is global: one `Instant::now()` or one
//! `HashMap` iteration anywhere inside the simulation boundary silently
//! breaks it. simlint tokenizes every `.rs` file with its own small
//! lexer (so rule tokens inside strings, comments and test modules never
//! fire) and enforces, per file:
//!
//! * **D1 `wall-clock`** — no `Instant`/`SystemTime`/`thread::sleep` in
//!   deterministic crates;
//! * **D2 `hash-container`** — no `HashMap`/`HashSet` at all: their
//!   iteration order is a function of `RandomState`, not of the run;
//! * **D3 `ambient-entropy`** — no `thread_rng`/`from_entropy`/
//!   `RandomState`;
//! * **`libm`** — no transcendental float calls (`ln`, `exp`, `sin`, …),
//!   whose results are the host libm's, not IEEE's;
//! * **D4 `forbid-unsafe` / `anchor`** — every crate root keeps
//!   `#![forbid(unsafe_code)]`, and the protocol anchors cited in
//!   DESIGN.md §7 stay in sync with the source;
//! * **D5 `unwrap-budget`** — the per-crate `.unwrap()` count may only
//!   ratchet down (committed in `simlint.baseline`).
//!
//! One workspace rule makes the per-file D1–D3 checks transitively
//! complete: **`tier-boundary`** — no deterministic crate may depend on
//! an exempt one, so no deterministic call can reach unchecked code.
//!
//! Escape hatch: `simlint: allow(<rule>, "<why>")` in a line comment
//! excuses that line and the next; empty justifications and unused
//! allows are findings themselves.

#![forbid(unsafe_code)]

pub mod baseline;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod workspace;

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::Path;

pub use report::{Finding, Report};
pub use workspace::{find_root, Tier};

/// Lint a fully in-memory workspace: `files` are `(root-relative path,
/// source)` pairs, `manifests` are `(root-relative path, Cargo.toml
/// text)` pairs, `design` is the DESIGN.md text, `baseline_text` the
/// committed baseline (None ⇒ missing-file finding). Pure — all I/O
/// lives in [`run`].
pub fn analyze(
    files: &[(String, String)],
    manifests: &[(String, String)],
    design: &str,
    baseline_text: Option<&str>,
) -> Report {
    let mut report = Report { files_scanned: files.len(), ..Report::default() };
    let mut findings: Vec<Finding> = Vec::new();

    // -- per-file pass: D1–D3, libm, allow hygiene, raw material -------
    let mut source_anchors: Vec<(String, String, u32)> = Vec::new();
    let mut crate_roots: BTreeMap<String, (String, bool)> = BTreeMap::new();
    for (rel, src) in files {
        let key = workspace::crate_key(rel);
        let tier = workspace::tier_of(&key);
        let lx = lexer::lex(src);
        let checked = rules::check_source(rel, tier, &lx, workspace::path_is_test(rel));
        findings.extend(checked.findings);
        *report.unwraps.entry(key.clone()).or_insert(0) += checked.unwraps;
        for (label, line) in checked.anchors {
            source_anchors.push((label, rel.clone(), line));
        }
        let is_lib = rel == "src/lib.rs" || rel == &format!("crates/{key}/src/lib.rs");
        let is_main = rel == "src/main.rs" || rel == &format!("crates/{key}/src/main.rs");
        if is_lib || (is_main && !crate_roots.contains_key(&key)) {
            crate_roots.insert(key, (rel.clone(), checked.has_forbid_unsafe));
        }
    }

    // -- tier boundary: D1–D3 stay complete across crates --------------
    for (rel, text) in manifests {
        findings.extend(workspace::tier_boundary(rel, text));
    }

    // -- D4a: every crate root must carry the forbid -------------------
    for (key, (rel, has)) in &crate_roots {
        if !has {
            findings.push(Finding::new(
                rel,
                1,
                "forbid-unsafe",
                format!("crate `{key}` root is missing `#![forbid(unsafe_code)]`"),
            ));
        }
    }

    // -- D4b: DESIGN.md anchors ↔ source anchors, both directions ------
    let mut design_labels: Vec<(String, u32)> = Vec::new();
    for (idx, line) in design.lines().enumerate() {
        for label in rules::extract_anchor_labels(line) {
            design_labels.push((label, idx as u32 + 1));
        }
    }
    for (label, line) in &design_labels {
        if !source_anchors.iter().any(|(l, _, _)| l == label) {
            findings.push(Finding::new(
                "DESIGN.md",
                *line,
                "anchor",
                format!("DESIGN.md cites protocol anchor {label} but no source comment carries it"),
            ));
        }
    }
    for (label, file, line) in &source_anchors {
        if !design_labels.iter().any(|(l, _)| l == label) {
            findings.push(Finding::new(
                file,
                *line,
                "anchor",
                format!(
                    "source anchor {label} is not cited in DESIGN.md \u{a7}7 — add it to the \
                     anchor table or drop the comment"
                ),
            ));
        }
    }

    // -- D5: the ratcheting unwrap budget ------------------------------
    findings.extend(baseline::compare(baseline_text, &report.unwraps));

    report.findings = findings;
    report.sort();
    report
}

/// Lint the workspace at `root`. When `write_baseline` is set, the
/// unwrap budget is first rewritten from the live tree, so the returned
/// report reflects the newly committed state.
pub fn run(root: &Path, write_baseline: bool) -> io::Result<Report> {
    let mut sources: Vec<(String, String)> = Vec::new();
    let mut manifests: Vec<(String, String)> = Vec::new();
    for (rel, path) in workspace::collect_files(root)? {
        let text = fs::read_to_string(path)?;
        let into = if rel.ends_with(".rs") { &mut sources } else { &mut manifests };
        into.push((rel, text));
    }
    let design = fs::read_to_string(root.join("DESIGN.md")).unwrap_or_default();
    let baseline_path = root.join(baseline::BASELINE_FILE);
    if write_baseline {
        let live = analyze(&sources, &manifests, &design, None);
        fs::write(&baseline_path, baseline::format(&live.unwraps))?;
    }
    let baseline_text = fs::read_to_string(&baseline_path).ok();
    Ok(analyze(&sources, &manifests, &design, baseline_text.as_deref()))
}
