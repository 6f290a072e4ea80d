//! The figure registry, its tolerance files and budgets, and its argument
//! parser agree: every tolerance file is compiled into the entry it
//! gates, every gated entry has a budget, `figs --gate` runs and passes a
//! gated figure, and a malformed `figs` invocation exits 2 before it
//! simulates or writes anything.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

use bench::figs::{parse_args, usage, Figure, Opts, FIGURES};
use bench::{gate, Json};

fn figure(name: &str) -> Option<&'static Figure> {
    FIGURES.iter().find(|f| f.name == name)
}

fn gated() -> BTreeSet<&'static str> {
    FIGURES
        .iter()
        .filter(|f| f.tolerance.is_some())
        .map(|f| f.name)
        .collect()
}

#[test]
fn registry_names_are_unique() {
    let names: BTreeSet<&str> = FIGURES.iter().map(|f| f.name).collect();
    assert_eq!(names.len(), FIGURES.len(), "duplicate figure name");
}

#[test]
fn every_tolerance_file_is_compiled_into_the_entry_it_names() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tolerances");
    let mut files = 0;
    for entry in std::fs::read_dir(&dir).expect("tolerances dir") {
        let path = entry.expect("dir entry").path();
        if path.file_name().is_some_and(|f| f == "ci_budget.json") {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("tolerance file");
        let doc = Json::parse(&text).unwrap_or_else(|e| panic!("{path:?}: {e}"));
        let named = doc.get("figure").and_then(Json::as_str);
        let holders: Vec<&str> = FIGURES
            .iter()
            .filter(|f| f.tolerance == Some(text.as_str()))
            .map(|f| f.name)
            .collect();
        assert_eq!(holders, named.into_iter().collect::<Vec<_>>(), "{path:?}");
        files += 1;
    }
    assert_eq!(
        files,
        gated().len(),
        "a gated entry holds no tolerance file"
    );
}

#[test]
fn the_budgets_are_exactly_the_gated_entries() {
    let doc = Json::parse(gate::BUDGETS).expect("ci_budget.json");
    let budgets = doc.get("budgets").and_then(Json::as_obj).expect("budgets");
    let keys: BTreeSet<&str> = budgets.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, gated());
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
    let parsed = parse_args(&args("fig17_extreme_burst --smoke --threads 3")).unwrap();
    let [(fig, opts)] = parsed.runs[..] else {
        panic!("one run: {parsed:?}")
    };
    assert_eq!(fig.name, "fig17_extreme_burst");
    assert_eq!(
        opts,
        Opts {
            smoke: true,
            threads: 3
        }
    );
    assert_eq!((parsed.json, parsed.gate), (None, false));

    // Flags may come before the figure.
    let parsed = parse_args(&args("--json out/t1.json table1_models")).unwrap();
    let [(fig, opts)] = parsed.runs[..] else {
        panic!("one run: {parsed:?}")
    };
    assert_eq!(fig.name, "table1_models");
    assert!(!opts.smoke);
    assert!(opts.threads >= 1, "defaults to host parallelism");
    assert_eq!(parsed.json, Some(PathBuf::from("out/t1.json")));

    // `--smoke` is accepted for exactly the gated figures.
    for f in FIGURES {
        assert!(parse_args(&args(f.name)).is_ok(), "{}", f.name);
        let smoke = parse_args(&args(&format!("{} --smoke", f.name)));
        assert_eq!(smoke.is_ok(), f.tolerance.is_some(), "{} --smoke", f.name);
    }

    // `--gate` runs every gated figure, each at smoke scale, or the one
    // it names.
    let parsed = parse_args(&args("--gate --threads 2")).unwrap();
    assert!(parsed.gate && parsed.json.is_none());
    let names: BTreeSet<&str> = parsed.runs.iter().map(|(f, _)| f.name).collect();
    assert_eq!(names, gated());
    for (f, opts) in &parsed.runs {
        let want = Opts {
            smoke: true,
            threads: 2,
        };
        assert_eq!(*opts, want, "{}", f.name);
    }
    let parsed = parse_args(&args("fig17_extreme_burst --gate")).unwrap();
    let [(fig, opts)] = parsed.runs[..] else {
        panic!("one run: {parsed:?}")
    };
    assert_eq!(
        (fig.name, opts.smoke, parsed.gate),
        ("fig17_extreme_burst", true, true)
    );
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
        "--gate --smoke",                           // the gate picks the scale
        "fig17_extreme_burst --gate --smoke",       // the gate picks the scale
        "--gate --json out.json",                   // the gate picks the path
        "fig24_gateway --gate --json out.json",     // the gate picks the path
        "fig12_end_to_end --gate",                  // an ungated figure
        "table1_models --gate",                     // an ungated figure
        "--gate fig99_nothing",                     // unknown figure
        "--gate fig17_extreme_burst fig24_gateway", // a second figure
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

#[test]
fn gate_runs_a_figure_checks_it_and_writes_its_document() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("figs-gate");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let out = Command::new(env!("CARGO_BIN_EXE_figs"))
        .args(args("fig24_gateway --gate"))
        .current_dir(&dir)
        .output()
        .expect("spawn figs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let lines: Vec<&str> = stdout.lines().filter(|l| l.starts_with("gate,")).collect();
    for check in [
        "ok,schema: ",
        "ok,figure: ",
        "ok,max_ttft_p99_s: ",
        "ok,min_goodput_frac: ",
        "ok,budget: ",
    ] {
        let line = format!("gate,fig24_gateway,{check}");
        assert!(
            lines.iter().any(|l| l.starts_with(&line)),
            "no `{line}` in {lines:?}"
        );
    }
    assert!(stdout.ends_with("gate: PASS (1 figures)\n"), "{stdout}");
    let written = dir.join("target/bench-json/fig24_gateway.json");
    let text = std::fs::read_to_string(&written).expect("the document");
    let doc = Json::parse(&text).expect("the document parses");
    assert_eq!(
        doc.get("figure").and_then(Json::as_str),
        Some("fig24_gateway")
    );
}
