//! simlint CLI.
//!
//! ```text
//! simlint [--root <dir>] [--json <path>]
//! ```
//!
//! Lints every in-scope `.rs` file under the workspace root (default:
//! current directory), prints `file:line: [RULE] message` diagnostics,
//! writes the machine-readable report (default: `<root>/target/simlint.json`),
//! and exits non-zero when any unsuppressed diagnostic fired.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut json_out: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(v) => root = PathBuf::from(v),
                None => return usage("--root needs a value"),
            },
            "--json" => match args.next() {
                Some(v) => json_out = Some(PathBuf::from(v)),
                None => return usage("--json needs a value"),
            },
            "--help" | "-h" => {
                println!("usage: simlint [--root <dir>] [--json <path>]");
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }

    let started = Instant::now();
    let report = match simlint::lint_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("simlint: failed to scan {}: {e}", root.display());
            return ExitCode::FAILURE;
        }
    };
    let wall_clock_ms = started.elapsed().as_millis() as u64;

    for d in &report.diagnostics {
        println!("{}:{}: [{}] {}", d.file, d.line, d.rule.id(), d.message);
    }

    let json_path = json_out.unwrap_or_else(|| root.join("target").join("simlint.json"));
    if let Some(dir) = json_path.parent() {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("simlint: cannot create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }
    if let Err(e) = std::fs::write(&json_path, report.to_json(wall_clock_ms)) {
        eprintln!("simlint: cannot write {}: {e}", json_path.display());
        return ExitCode::FAILURE;
    }

    let totals = simlint::rules::ALL_RULES
        .iter()
        .zip(report.counts.iter())
        .map(|(r, c)| format!("{}={}/{}/{}", r.id(), c.fired, c.suppressed, c.allowlisted))
        .collect::<Vec<_>>()
        .join(" ");
    eprintln!(
        "simlint: {} files, {} diagnostics ({} ms) [fired/suppressed/allowlisted: {totals}] -> {}",
        report.files_scanned,
        report.diagnostics.len(),
        wall_clock_ms,
        json_path.display()
    );

    if report.ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage(err: &str) -> ExitCode {
    eprintln!("simlint: {err}\nusage: simlint [--root <dir>] [--json <path>]");
    ExitCode::FAILURE
}
