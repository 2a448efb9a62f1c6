//! CLI for simlint.
//!
//! ```text
//! simlint [--root <dir>] [--write-baseline]
//! ```
//!
//! Exit codes: 0 clean, 1 findings, 2 usage or I/O error.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: simlint [--root <dir>] [--write-baseline]";

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut write_baseline = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--write-baseline" => write_baseline = true,
            "--root" => match args.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => return usage("--root needs a directory"),
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }

    let root = match root {
        Some(r) => r,
        None => {
            let cwd = match std::env::current_dir() {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("simlint: cannot read current dir: {e}");
                    return ExitCode::from(2);
                }
            };
            match simlint::find_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!("simlint: no workspace Cargo.toml above {}", cwd.display());
                    return ExitCode::from(2);
                }
            }
        }
    };

    let report = match simlint::run(&root, write_baseline) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("simlint: {e}");
            return ExitCode::from(2);
        }
    };
    print!("{}", report.to_text());
    if write_baseline {
        eprintln!("simlint: wrote {}", root.join(simlint::baseline::BASELINE_FILE).display());
    }
    if report.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("simlint: {msg}\n{USAGE}");
    ExitCode::from(2)
}
