//! The lint linting the repo that ships it: `cargo test` fails if the
//! live workspace has any finding, so determinism violations cannot land
//! without either fixing them or leaving a justified, visible allow.

use std::path::Path;

#[test]
fn live_workspace_is_clean() {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = simlint::find_root(here).expect("simlint lives inside the workspace");
    let report = simlint::run(&root, false).expect("workspace scan must succeed");
    assert!(report.clean(), "simlint findings in the live workspace:\n{}", report.to_text());
    // Sanity: the scan really covered the tree (not an empty walk).
    assert!(report.files_scanned > 80, "only {} files scanned", report.files_scanned);
    let zero = |k: &str| report.unwraps.get(k).copied().unwrap_or(0);
    assert_eq!(zero("core"), 0, "core must stay unwrap-free (use expect with an invariant)");
    assert_eq!(zero("sim"), 0, "sim must stay unwrap-free (use expect with an invariant)");
}

#[test]
fn committed_baseline_is_v2_and_byte_exact() {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = simlint::find_root(here).expect("simlint lives inside the workspace");
    let committed = std::fs::read_to_string(root.join(simlint::baseline::BASELINE_FILE))
        .expect("baseline is committed");
    assert!(committed.lines().any(|l| l.trim() == "version 2"), "committed baseline must be v2");
    // `--write-baseline` must be a no-op on a clean tree: what a rewrite
    // would produce is exactly what is committed.
    let report = simlint::run(&root, false).expect("workspace scan must succeed");
    assert_eq!(
        simlint::baseline::format(&report.unwraps),
        committed,
        "committed simlint.baseline is stale — run `cargo run -p simlint -- --write-baseline`"
    );
}
