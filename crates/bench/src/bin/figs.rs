//! The scenario driver: regenerates one paper figure, table or extension
//! document from the registry in `bench::figs`.
//!
//! Usage: `figs <figure> [--smoke] [--threads N] [--json PATH]`
//!
//! The figure prints its tables and series as CSV/markdown on stdout; its
//! JSON document, with `wall_clock_ms`, `threads` and `threads_available`
//! appended, goes to `--json PATH` or `target/bench-json/<figure>.json`.
//! A malformed invocation prints the usage and exits 2 before anything
//! runs.
//!
//! Run: `cargo run --release -p bench --bin figs -- fig12_end_to_end`

use std::path::PathBuf;
use std::time::Instant;

use bench::{figs, with_exec_meta, write_json};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (figure, opts, json) = match figs::parse_args(&args) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("figs: {msg}\n\n{}", figs::usage());
            std::process::exit(2);
        }
    };
    let start = Instant::now();
    let doc = (figure.run)(&opts);
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let doc = with_exec_meta(doc, opts.threads, wall_ms);
    let path =
        json.unwrap_or_else(|| PathBuf::from(format!("target/bench-json/{}.json", figure.name)));
    write_json(&path, &doc).expect("write JSON");
    println!("json,{}", path.display());
}
