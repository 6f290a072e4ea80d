//! The figure registry, its argument parser and the CI gates agree: every
//! tolerance file and budget names a registered figure that `ci.sh` runs,
//! every smoke scenario is gated, and a malformed `figs` invocation exits
//! 2 before it simulates or writes anything.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

use bench::figs::{parse_args, usage, Figure, Opts, FIGURES};
use bench::Json;

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read_json(path: &Path) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
    Json::parse(&text).unwrap_or_else(|e| panic!("{path:?}: {e}"))
}

fn figure(name: &str) -> Option<&'static Figure> {
    FIGURES.iter().find(|f| f.name == name)
}

/// `(file name, figure)` of every tolerance file.
fn tolerance_figures() -> Vec<(String, String)> {
    let dir = manifest_dir().join("tolerances");
    let mut out = Vec::new();
    for entry in std::fs::read_dir(&dir).expect("tolerances dir") {
        let path = entry.expect("dir entry").path();
        let file = path.file_name().unwrap().to_string_lossy().into_owned();
        if file == "ci_budget.json" {
            continue;
        }
        let doc = read_json(&path);
        let fig = doc.get("figure").and_then(Json::as_str);
        let fig = fig.unwrap_or_else(|| panic!("{file}: no `figure`"));
        out.push((file, fig.to_string()));
    }
    out.sort();
    out
}

fn budget_keys() -> Vec<String> {
    let doc = read_json(&manifest_dir().join("tolerances/ci_budget.json"));
    let budgets = doc.get("budgets").and_then(Json::as_obj).expect("budgets");
    budgets.iter().map(|(k, _)| k.clone()).collect()
}

#[test]
fn registry_names_are_unique() {
    let names: BTreeSet<&str> = FIGURES.iter().map(|f| f.name).collect();
    assert_eq!(names.len(), FIGURES.len(), "duplicate figure name");
}

#[test]
fn every_tolerance_file_gates_a_registered_figure_that_ci_runs() {
    let ci = std::fs::read_to_string(manifest_dir().join("../../ci.sh")).expect("ci.sh");
    for (file, fig) in tolerance_figures() {
        assert!(figure(&fig).is_some(), "{file}: `{fig}` is not registered");
        assert!(ci.contains(&fig), "{file}: ci.sh never runs `{fig}`");
    }
}

#[test]
fn every_budget_names_a_registered_figure() {
    for key in budget_keys() {
        assert!(
            figure(&key).is_some(),
            "ci_budget.json: `{key}` is not registered"
        );
    }
}

#[test]
fn every_smoke_scenario_has_a_tolerance_file_and_a_budget() {
    let gated: BTreeSet<String> = tolerance_figures().into_iter().map(|(_, f)| f).collect();
    let budgeted: BTreeSet<String> = budget_keys().into_iter().collect();
    for f in FIGURES.iter().filter(|f| f.smoke) {
        assert!(gated.contains(f.name), "{}: no tolerance file", f.name);
        assert!(budgeted.contains(f.name), "{}: no budget", f.name);
    }
}

#[test]
fn simulation_free_figures_name_themselves_and_reparse() {
    let opts = Opts {
        smoke: false,
        threads: 1,
    };
    for name in ["table1_models", "table2_testbed", "fig15_cost_model"] {
        let doc = (figure(name).expect("registered").run)(&opts);
        let reparsed = Json::parse(&doc.to_string()).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(reparsed.get("figure").and_then(Json::as_str), Some(name));
    }
}

fn args(line: &str) -> Vec<String> {
    line.split_whitespace().map(String::from).collect()
}

#[test]
fn parser_accepts_every_well_formed_invocation() {
    let (fig, opts, json) = parse_args(&args("fig17_extreme_burst --smoke --threads 3")).unwrap();
    assert_eq!(fig.name, "fig17_extreme_burst");
    assert_eq!(
        opts,
        Opts {
            smoke: true,
            threads: 3
        }
    );
    assert_eq!(json, None);

    // Flags may come before the figure.
    let (fig, opts, json) = parse_args(&args("--json out/t1.json table1_models")).unwrap();
    assert_eq!(fig.name, "table1_models");
    assert!(!opts.smoke);
    assert!(opts.threads >= 1, "defaults to host parallelism");
    assert_eq!(json, Some(PathBuf::from("out/t1.json")));

    for f in FIGURES {
        assert!(parse_args(&args(f.name)).is_ok(), "{}", f.name);
    }
}

#[test]
fn parser_rejects_every_malformed_invocation() {
    for line in [
        "",                                  // no figure
        "--smoke --threads 2",               // no figure, only flags
        "fig99_nothing",                     // unknown figure
        "fig12_end_to_end --smok",           // unknown flag
        "fig12_end_to_end -s",               // unknown short flag
        "fig12_end_to_end table1_models",    // a second figure
        "fig12_end_to_end --smoke",          // no smoke scenario
        "table1_models --smoke",             // no smoke scenario
        "fig17_extreme_burst --threads",     // --threads missing
        "fig17_extreme_burst --threads 0",   // --threads zero
        "fig17_extreme_burst --threads two", // --threads non-numeric
        "fig17_extreme_burst --threads -1",  // --threads negative
        "fig17_extreme_burst --json",        // --json without a path
        "fig17_extreme_burst --json --smoke",
    ] {
        assert!(parse_args(&args(line)).is_err(), "accepted `{line}`");
    }
}

#[test]
fn usage_lists_every_figure() {
    let text = usage();
    for f in FIGURES {
        assert!(
            text.contains(f.name) && text.contains(f.about),
            "{}",
            f.name
        );
    }
}

#[test]
fn malformed_invocation_exits_2_and_writes_nothing() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("figs-malformed");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let out = Command::new(env!("CARGO_BIN_EXE_figs"))
        .args(args(
            "fig12_end_to_end --smok --threads zero --json out.json",
        ))
        .current_dir(&dir)
        .output()
        .expect("spawn figs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "ran before rejecting the arguments");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(&usage()), "no usage on stderr: {stderr}");
    let written: Vec<_> = std::fs::read_dir(&dir).expect("scratch dir").collect();
    assert!(written.is_empty(), "wrote {written:?}");
}
