//! The scenario driver: regenerates paper figures, tables and extension
//! documents from the registry in `bench::figs`, and gates them.
//!
//! Usage: `figs <figure> [--smoke] [--threads N] [--json PATH]` or
//! `figs --gate [<figure>] [--threads N]`
//!
//! The figure prints its tables and series as CSV/markdown on stdout; its
//! JSON document, with `wall_clock_ms`, `threads` and `threads_available`
//! appended, goes to `--json PATH` or `target/bench-json/<figure>.json`.
//! `--gate` runs every gated figure (or the one named) and checks the text
//! each one wrote against its tolerance file and wall-clock budget
//! (`bench::gate`), one `gate,<figure>,<verdict>,<check>` line per check;
//! it exits 1 after naming every failed check. A malformed invocation
//! prints the usage and exits 2 before anything runs.
//!
//! Run: `cargo run --release -p bench --bin figs -- fig12_end_to_end`

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use bench::gate::{self, Verdict};
use bench::{figs, with_exec_meta, write_json};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let invocation = match figs::parse_args(&args) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("figs: {msg}\n\n{}", figs::usage());
            return ExitCode::from(2);
        }
    };
    let mut failed = Vec::new();
    for &(figure, opts) in &invocation.runs {
        let start = Instant::now();
        let doc = (figure.run)(&opts);
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        let doc = with_exec_meta(doc, opts.threads, wall_ms);
        let path = invocation
            .json
            .clone()
            .unwrap_or_else(|| PathBuf::from(format!("target/bench-json/{}.json", figure.name)));
        let text = write_json(&path, &doc).expect("write JSON");
        println!("json,{}", path.display());
        let Some(tolerance) = figure.tolerance.filter(|_| invocation.gate) else {
            continue;
        };
        for verdict in gate::check(&text, tolerance, gate::BUDGETS) {
            println!("gate,{},{verdict}", figure.name);
            if let Verdict::Fail(what) = verdict {
                failed.push(format!("{}: {what}", figure.name));
            }
        }
    }
    if !invocation.gate {
        return ExitCode::SUCCESS;
    }
    if failed.is_empty() {
        println!("gate: PASS ({} figures)", invocation.runs.len());
        return ExitCode::SUCCESS;
    }
    eprintln!("figs --gate: {} failed checks", failed.len());
    for what in &failed {
        eprintln!("  {what}");
    }
    ExitCode::FAILURE
}
