//! What the benchmark knows about the machine and the build: host
//! metadata for the report, peak resident memory, and the guard that the
//! copied release profile still equals the repository's.

use std::path::{Path, PathBuf};
use std::time::Instant;

/// The benchmark package's directory (where `out/` lives and from which
/// the repository root is the parent).
pub fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Peak resident set size of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Start a new peak: reset `VmHWM` to the current resident set, so that the
/// suite can report peak memory per workload from one process.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("resetting VmHWM through /proc/self/clear_refs: {e}"))
}

/// Host seconds the speed probe takes: a fixed chain of 20 M dependent
/// xorshift steps, no memory traffic. The reference host runs at two
/// speeds a fifth apart and switches between them every few seconds
/// (see README, *Repeatability*); the probe tells which one it is in.
pub fn spin_s() -> f64 {
    let started = Instant::now();
    let mut x = std::hint::black_box(0x2545_F491_4F6C_DD1D_u64);
    for _ in 0..20_000_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    started.elapsed().as_secs_f64()
}

/// What [`spin_s`] reads on the reference host at its base speed: host
/// times are scaled to this speed.
pub const SPIN_REFERENCE_S: f64 = 0.0375;

/// The `key = value` lines of the `[profile.release]` table of a manifest,
/// without comments or blank lines; `None` when the table is absent.
pub fn release_profile(manifest: &str) -> Option<Vec<String>> {
    let mut lines = manifest.lines().skip_while(|l| l.trim() != "[profile.release]");
    lines.next()?;
    Some(
        lines
            .take_while(|l| !l.trim_start().starts_with('['))
            .map(|l| l.split('#').next().unwrap_or("").trim().to_string())
            .filter(|l| !l.is_empty())
            .collect(),
    )
}

/// Compare the benchmark's `[profile.release]` with the repository's and
/// return it; a difference is an error, not a silent drift.
pub fn check_profile(bench_dir: &Path) -> Result<Vec<String>, String> {
    let read = |p: PathBuf| {
        let text =
            std::fs::read_to_string(&p).map_err(|e| format!("reading {}: {e}", p.display()))?;
        release_profile(&text).ok_or_else(|| format!("{}: no [profile.release] table", p.display()))
    };
    let ours = read(bench_dir.join("Cargo.toml"))?;
    let root = read(bench_dir.join("..").join("Cargo.toml"))?;
    if ours != root {
        return Err(format!(
            "benchmark/Cargo.toml [profile.release] {ours:?} differs from the repository's {root:?}; copy the root block again"
        ));
    }
    Ok(ours)
}

/// One line describing the host and the build, for the top of a report.
pub fn describe(profile: &[String]) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    format!(
        "nproc={nproc} os={}-{} rustc=\"{}\" profile.release={{{}}}",
        std::env::consts::OS,
        std::env::consts::ARCH,
        env!("OCPT_BENCHMARK_RUSTC"),
        profile.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_block_ignores_comments_and_stops_at_the_next_table() {
        let toml = "[package]\nname = \"x\"\n\n# why\n[profile.release]\ndebug = 1 # lines\n\nlto = \"thin\"\n[profile.bench]\nlto = \"fat\"\n";
        assert_eq!(
            release_profile(toml),
            Some(vec!["debug = 1".to_string(), "lto = \"thin\"".to_string()])
        );
        assert_eq!(release_profile("[package]\n"), None);
    }

    #[test]
    fn copied_profile_equals_the_root_profile() {
        let profile = check_profile(&bench_dir()).expect("profiles must match");
        assert!(!profile.is_empty());
    }

    #[test]
    fn peak_rss_is_readable_and_positive() {
        assert!(peak_rss_mb().expect("VmHWM") > 0.0);
    }
}
