//! Fixture-driven proof that every rule (a) fires on a known violation,
//! (b) is silenced by its suppression pragma, and (c) respects the
//! config allowlists — plus a JSON snapshot of the whole fixture sweep
//! (`tests/fixtures/expected.json`) pinning diagnostics, lines, and
//! per-rule counters byte-for-byte.
//!
//! Regenerate the snapshot after an intentional rule change with:
//! `UPDATE_SIMLINT_SNAPSHOT=1 cargo test -p simlint --test fixture_rules`

use std::fs;
use std::path::Path;

use simlint::config::{FileClass, Scope};
use simlint::report::Report;
use simlint::rules::{lint_classified, FileResult, Rule, ALL_RULES};

const SIM: FileClass = FileClass {
    scope: Scope::Sim,
    test_tree: false,
    metric_path: false,
};

const METRIC: FileClass = FileClass {
    scope: Scope::Sim,
    test_tree: false,
    metric_path: true,
};

const BENCH: FileClass = FileClass {
    scope: Scope::Bench,
    test_tree: false,
    metric_path: false,
};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn idx(rule: Rule) -> usize {
    ALL_RULES.iter().position(|&r| r == rule).expect("known")
}

fn counts(res: &FileResult, rule: Rule) -> (u32, u32, u32) {
    let c = res.counts[idx(rule)];
    (c.fired, c.suppressed, c.allowlisted)
}

/// The fixture sweep: each fixture linted as-if at a path/class chosen to
/// exercise one rule. Shared by the targeted asserts and the snapshot.
fn sweep() -> Vec<(&'static str, FileResult)> {
    vec![
        (
            "d_map.rs @ sim",
            lint_classified("fixtures/d_map.rs", &fixture("d_map.rs"), SIM),
        ),
        (
            "d_map.rs @ allowlisted",
            // The same source under a D-MAP-allowlisted real path: every
            // hit becomes `allowlisted`, pragma or not test-gating aside.
            lint_classified("crates/cluster/src/state.rs", &fixture("d_map.rs"), SIM),
        ),
        (
            "d_time.rs @ sim",
            lint_classified("fixtures/d_time.rs", &fixture("d_time.rs"), SIM),
        ),
        (
            "d_time.rs @ bench",
            lint_classified("crates/bench/src/fixture.rs", &fixture("d_time.rs"), BENCH),
        ),
        (
            "d_rand.rs @ sim",
            lint_classified("fixtures/d_rand.rs", &fixture("d_rand.rs"), SIM),
        ),
        (
            "d_cast.rs @ metric",
            lint_classified("fixtures/d_cast.rs", &fixture("d_cast.rs"), METRIC),
        ),
        (
            "d_cast.rs @ non-metric",
            lint_classified("fixtures/d_cast.rs", &fixture("d_cast.rs"), SIM),
        ),
        (
            "u_safety.rs @ sim",
            lint_classified("fixtures/u_safety.rs", &fixture("u_safety.rs"), SIM),
        ),
        (
            "u_file.rs @ sim",
            lint_classified("fixtures/u_file.rs", &fixture("u_file.rs"), SIM),
        ),
    ]
}

#[test]
fn d_map_fires_suppresses_and_allowlists() {
    let all = sweep();
    let res = &all[0].1;
    assert_eq!(counts(res, Rule::DMap), (2, 1, 0), "sim scope");
    let lines: Vec<u32> = res.diagnostics.iter().map(|d| d.line).collect();
    assert_eq!(lines, vec![5, 6]);

    let res = &all[1].1;
    assert_eq!(counts(res, Rule::DMap), (0, 0, 3), "allowlisted path");
    assert!(res.diagnostics.is_empty());
}

#[test]
fn d_time_fires_suppresses_and_scopes() {
    let all = sweep();
    let res = &all[2].1;
    assert_eq!(counts(res, Rule::DTime), (1, 1, 0), "sim scope");
    assert_eq!(res.diagnostics[0].line, 5);

    let res = &all[3].1;
    assert_eq!(counts(res, Rule::DTime), (0, 0, 0), "bench scope");
}

#[test]
fn d_rand_fires_everywhere_even_tests() {
    let all = sweep();
    let res = &all[4].1;
    assert_eq!(counts(res, Rule::DRand), (2, 1, 0));
    let lines: Vec<u32> = res.diagnostics.iter().map(|d| d.line).collect();
    assert_eq!(lines, vec![6, 19], "the test-gated draw still fires");
}

#[test]
fn d_cast_fires_on_metric_paths_only() {
    let all = sweep();
    let res = &all[5].1;
    assert_eq!(counts(res, Rule::DCast), (2, 1, 0), "metric path");
    let lines: Vec<u32> = res.diagnostics.iter().map(|d| d.line).collect();
    assert_eq!(lines, vec![6, 10]);

    let res = &all[6].1;
    assert_eq!(counts(res, Rule::DCast), (0, 0, 0), "non-metric path");
}

#[test]
fn u_safety_fires_and_suppresses() {
    let all = sweep();
    let res = &all[7].1;
    assert_eq!(counts(res, Rule::USafety), (1, 1, 0));
    assert_eq!(
        counts(res, Rule::UFile),
        (3, 0, 0),
        "no file allowlists unsafe"
    );
    let lines: Vec<u32> = res
        .diagnostics
        .iter()
        .filter(|d| d.rule == Rule::USafety)
        .map(|d| d.line)
        .collect();
    assert_eq!(lines, vec![6]);
}

#[test]
fn u_file_fires_and_resists_pragmas() {
    let all = sweep();
    let res = &all[8].1;
    assert_eq!(counts(res, Rule::UFile), (2, 0, 0));
    assert_eq!(
        counts(res, Rule::USafety),
        (0, 0, 0),
        "sites are documented"
    );
    assert_eq!(
        counts(res, Rule::LintPragma),
        (1, 0, 0),
        "the allow(U-FILE) attempt is itself diagnosed"
    );
}

/// Byte-exact snapshot of the whole sweep, in the report's JSON shape
/// (wall_clock_ms pinned to 0 — the report itself never reads a clock).
#[test]
fn fixture_sweep_matches_json_snapshot() {
    let mut report = Report::default();
    for (_, res) in sweep() {
        report.absorb(res);
    }
    report.finish();
    let rendered = report.to_json(0);

    let snap_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/expected.json");
    if std::env::var_os("UPDATE_SIMLINT_SNAPSHOT").is_some() {
        fs::write(&snap_path, &rendered).expect("write snapshot");
        return;
    }
    let expected = fs::read_to_string(&snap_path)
        .expect("snapshot exists (regenerate with UPDATE_SIMLINT_SNAPSHOT=1)");
    assert_eq!(
        rendered, expected,
        "fixture sweep diverged from tests/fixtures/expected.json; if the rule \
         change is intentional, regenerate with UPDATE_SIMLINT_SNAPSHOT=1"
    );
}
