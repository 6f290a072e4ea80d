//! simlint — determinism & unsafe-hygiene static analysis for this
//! workspace.
//!
//! The simulator's headline guarantee is that a `(config, seed)` pair
//! produces a byte-identical `RunReport`. That guarantee is easy to break
//! quietly: one `HashMap` iteration feeding an event order, one
//! `Instant::now()` in a cost path, one unseeded RNG. simlint turns the
//! workspace's disciplines into machine-checked rules:
//!
//! - **D-rules** ban ambient nondeterminism (unordered hash iteration,
//!   wall-clock reads, ambient entropy, undocumented truncating casts in
//!   metric paths) from determinism-critical code.
//! - **U-rules** keep `unsafe` confined to an audited file allowlist
//!   (empty: every library crate is `#![forbid(unsafe_code)]`) and require
//!   a `// SAFETY:` comment at every site, in the test, bench and example
//!   crates the attribute does not reach.
//!
//! The analyzer is deliberately dependency-free: a hand-rolled token
//! scanner ([`scan`]) rather than `syn`, so it builds offline and every
//! byte of the analysis is auditable in-tree. Findings can be suppressed
//! at a site with `// simlint: allow(RULE)` (except `U-FILE`, which is
//! allowlist-only), and the run emits `target/simlint.json` for the CI
//! `lint` stage to gate on.
//!
//! Run it with `cargo run -p simlint` or `./ci.sh lint`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod report;
pub mod rules;
pub mod scan;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use report::Report;

/// Directory names never descended into, at any depth.
const SKIP_DIRS: &[&str] = &["target", "vendor", ".git", ".claude"];

/// Collects every `.rs` file under `root` (workspace-relative paths,
/// forward slashes), depth-first with sorted directory entries so the
/// scan order — and therefore the report — is deterministic.
pub fn collect_rs_files(root: &Path) -> io::Result<Vec<(String, PathBuf)>> {
    let mut out = Vec::new();
    walk(root, root, &mut out)?;
    out.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(out)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<(String, PathBuf)>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .map(|e| e.map(|e| e.path()))
        .collect::<io::Result<_>>()?;
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if SKIP_DIRS.contains(&name) {
                continue;
            }
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            out.push((rel, path));
        }
    }
    Ok(())
}

/// Lints every in-scope `.rs` file under `root` and returns the
/// aggregated, sorted report.
pub fn lint_workspace(root: &Path) -> io::Result<Report> {
    let mut report = Report::default();
    for (rel, path) in collect_rs_files(root)? {
        let src = fs::read_to_string(&path)?;
        if let Some(res) = rules::lint_source(&rel, &src) {
            report.absorb(res);
        }
    }
    report.finish();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walker_skips_vendor_and_target() {
        let root = workspace_root();
        let files = collect_rs_files(&root).expect("walk workspace");
        assert!(!files.is_empty());
        assert!(files
            .iter()
            .all(|(rel, _)| { !rel.starts_with("vendor/") && !rel.starts_with("target/") }));
        assert!(files
            .iter()
            .any(|(rel, _)| rel == "crates/cluster/src/engine.rs"));
        // Sorted, so the report order is reproducible.
        let mut sorted = files.clone();
        sorted.sort_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(files, sorted);
    }

    /// The real gate: the workspace's own sources lint clean. Every
    /// HashMap, wall-clock read, metric cast, and unsafe site is either
    /// compliant, allowlisted with an audit reason, or carries an inline
    /// pragma — so any new violation fails `cargo test` as well as
    /// `./ci.sh lint`.
    #[test]
    fn workspace_self_scan_is_clean() {
        let root = workspace_root();
        let report = lint_workspace(&root).expect("lint workspace");
        assert!(report.files_scanned > 20, "walker found the workspace");
        let rendered: Vec<String> = report
            .diagnostics
            .iter()
            .map(|d| format!("{}:{} [{}] {}", d.file, d.line, d.rule.id(), d.message))
            .collect();
        assert!(
            report.ok(),
            "workspace self-scan has unsuppressed diagnostics:\n{}",
            rendered.join("\n")
        );
    }

    fn workspace_root() -> PathBuf {
        // crates/simlint -> crates -> workspace root
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .expect("workspace root")
            .to_path_buf()
    }
}
