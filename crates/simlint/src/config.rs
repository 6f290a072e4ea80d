//! Rule scoping: which files each rule family covers, and the audited
//! allowlists that carry per-entry justifications.
//!
//! Scopes are derived purely from the workspace-relative path, so the
//! classification itself is deterministic and testable (fixtures lint a
//! source string *as if* it lived at a given path).

/// How a file participates in linting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// Determinism-critical simulation crates: the full D-rule and U-rule
    /// families apply.
    Sim,
    /// The bench harness: wall-clock measurement is its job, so `D-TIME`
    /// does not apply; ambient entropy (`D-RAND`) and unsafe hygiene still
    /// do (benches must stay seeded for byte-identical lineups).
    Bench,
    /// Offline tooling (simlint itself): U-rules and `D-RAND` only.
    Tool,
}

/// Classification of one workspace file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileClass {
    /// The rule scope.
    pub scope: Scope,
    /// Whether the file lives in a test-only tree (`tests/`, `benches/`,
    /// `examples/`): determinism rules skip it, unsafe/entropy rules do
    /// not.
    pub test_tree: bool,
    /// Whether the file is a designated metric path (`D-CAST` applies).
    pub metric_path: bool,
}

/// Crates whose non-test code must be deterministic: everything that can
/// execute between a seed and a `RunReport` byte.
pub const SIM_CRATES: &[&str] = &[
    "sim-core",
    "simgpu",
    "kvcache",
    "netsim",
    "modelcfg",
    "costmodel",
    "workload",
    "cluster",
    "core",
    "gateway",
];

/// Files where float→int `as` casts are audited (`D-CAST`): every cast on
/// the path from raw samples to reported numbers silently rounds, so each
/// one must state its rounding rationale.
pub const METRIC_PATHS: &[&str] = &[
    "crates/sim-core/src/stats.rs",
    "crates/cluster/src/metrics.rs",
    "crates/bench/src/json.rs",
];

/// The only files allowed to contain `unsafe` at all (`U-FILE`); empty,
/// since the workspace has no `unsafe` code. This list is intentionally
/// *not* pragma-suppressable: widening the unsafe surface requires
/// editing the analyzer, which makes it a reviewed, global decision
/// rather than a local one.
pub const UNSAFE_FILES: &[&str] = &[];

/// Audited `D-MAP` file allowlist: files that may use `HashMap`/`HashSet`
/// because their iteration either never feeds observable order or is
/// explicitly sorted first. Each entry records the audit argument; new
/// files (and new maps in un-listed files) trip the rule until audited.
pub const D_MAP_ALLOW: &[(&str, &str)] = &[
    (
        "crates/cluster/src/state.rs",
        "keyed lookup; every iteration that feeds transfer or plan order collects and sorts \
         first (e.g. merge-exchange `pairs.sort()`)",
    ),
    (
        "crates/cluster/src/instance.rs",
        "`dropped_at` is drained and sorted by layer/offset before any remap operation",
    ),
    (
        "crates/core/src/policy.rs",
        "per-model/group tick counters: keyed lookup and order-free `retain` filtering only",
    ),
    (
        "crates/kvcache/src/manager.rs",
        "per-sequence tables: keyed lookup; `seqs()` sorts before returning; sums are \
         order-insensitive",
    ),
    (
        "crates/kvcache/src/swap.rs",
        "swapped-sequence staging: keyed lookup only",
    ),
    (
        "crates/netsim/src/network.rs",
        "iteration is order-insensitive reduction (min/sum/all); completion drain sorts link \
         keys first",
    ),
    (
        "crates/simgpu/src/hbm.rs",
        "physical-handle table: keyed lookup only",
    ),
    (
        "crates/simgpu/src/vmm.rs",
        "reservation lookup is keyed; offset-ordered iteration uses the inner BTreeMap",
    ),
];

/// Classifies a workspace-relative path (forward slashes).
///
/// Returns `None` for files simlint does not lint at all: vendored shim
/// crates (third-party API mirrors) and simlint's own test fixtures
/// (deliberate rule violations).
pub fn classify(rel: &str) -> Option<FileClass> {
    let rel = rel.trim_start_matches("./");
    if rel.starts_with("vendor/") || rel.starts_with("target/") {
        return None;
    }
    if rel.contains("tests/fixtures/") {
        return None;
    }
    let test_tree = rel.contains("/tests/")
        || rel.contains("/benches/")
        || rel.contains("/examples/")
        || rel.starts_with("tests/")
        || rel.starts_with("examples/")
        || rel.starts_with("benches/");
    let metric_path = METRIC_PATHS.contains(&rel);
    let scope = if let Some(rest) = rel.strip_prefix("crates/") {
        let krate = rest.split('/').next().unwrap_or("");
        if krate == "simlint" {
            Scope::Tool
        } else if krate == "bench" {
            Scope::Bench
        } else if SIM_CRATES.contains(&krate) {
            Scope::Sim
        } else {
            // Unknown crate: hold it to the strictest standard until it
            // is classified here.
            Scope::Sim
        }
    } else {
        // Workspace root: the umbrella crate, integration tests, examples.
        Scope::Sim
    };
    Some(FileClass {
        scope,
        test_tree,
        metric_path,
    })
}

/// The `D-MAP` allowlist reason for a file, if any.
pub fn d_map_allow_reason(rel: &str) -> Option<&'static str> {
    D_MAP_ALLOW
        .iter()
        .find(|(p, _)| *p == rel.trim_start_matches("./"))
        .map(|&(_, r)| r)
}

/// Whether a file may contain `unsafe` (`U-FILE` allowlist).
pub fn unsafe_file_allowed(rel: &str) -> bool {
    UNSAFE_FILES.contains(&rel.trim_start_matches("./"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_by_path() {
        let c = classify("crates/cluster/src/engine.rs").unwrap();
        assert_eq!(c.scope, Scope::Sim);
        assert!(!c.test_tree);
        assert!(!c.metric_path);

        let c = classify("crates/bench/src/harness.rs").unwrap();
        assert_eq!(c.scope, Scope::Bench);

        let c = classify("crates/simlint/src/main.rs").unwrap();
        assert_eq!(c.scope, Scope::Tool);

        let c = classify("crates/cluster/tests/ledger.rs").unwrap();
        assert!(c.test_tree);

        let c = classify("tests/determinism.rs").unwrap();
        assert_eq!(c.scope, Scope::Sim);
        assert!(c.test_tree);

        let c = classify("crates/sim-core/src/stats.rs").unwrap();
        assert!(c.metric_path);
    }

    #[test]
    fn vendored_and_fixture_sources_are_unscanned() {
        assert!(classify("vendor/rand/src/lib.rs").is_none());
        assert!(classify("crates/simlint/tests/fixtures/d_map.rs").is_none());
        assert!(classify("target/debug/build/x.rs").is_none());
    }

    #[test]
    fn unsafe_allowlist_is_empty() {
        assert!(UNSAFE_FILES.is_empty());
        assert!(!unsafe_file_allowed("crates/cluster/src/state.rs"));
        assert!(!unsafe_file_allowed("crates/kvcache/src/manager.rs"));
    }

    #[test]
    fn d_map_allowlist_lookup() {
        assert!(d_map_allow_reason("crates/cluster/src/state.rs").is_some());
        assert!(d_map_allow_reason("crates/cluster/src/engine.rs").is_none());
    }
}
