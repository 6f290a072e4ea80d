//! The promoted paper-scale CI run: the full Cluster A fidelity scenario
//! (BurstGPT × Qwen-2.5-14B, all five systems) executed through the
//! parallel bench harness, with the serial engine timed side by side so
//! the speedup is recorded in the bench JSON.
//!
//! Two measurements per invocation:
//!
//! 1. **serial**: the five-system lineup back to back on one thread;
//! 2. **parallel**: the same lineup fanned over `--threads` workers via
//!    `bench::harness` (inter-run parallelism). Reports are asserted
//!    byte-identical with the serial pass — the harness may only change
//!    wall-clock, never results.
//!
//! `figs --gate` ([`crate::gate`], `tolerances/paper_scale.json`) runs it
//! at this full scale and enforces the paper's ordering (KunServe p99 <
//! vLLM p99), completion floors, p99 ceilings, and — on hosts with enough
//! cores — a minimum harness speedup.
//!
//! Run: `cargo run --release -p bench --bin figs -- paper_scale_parallel --threads 4`

use std::time::Instant;

use kunserve::serving::{Run, SystemKind};

use super::{lineup_doc, Opts};
use crate::{harness, outcome_json, secs, with_fields, Json, Scenario};

/// Runs `f` twice and keeps the faster pass with its wall-clock ms
/// (results are deterministic, so only the wall-clock differs).
fn best_of_two<T>(f: impl Fn() -> T) -> (T, f64) {
    let timed = || {
        let start = Instant::now();
        let value = f();
        (value, start.elapsed().as_secs_f64() * 1e3)
    };
    let a = timed();
    let b = timed();
    if a.1 <= b.1 {
        a
    } else {
        b
    }
}

pub fn run(opts: &Opts) -> Json {
    let threads = opts.threads;
    let sc = Scenario::burstgpt_14b();
    println!("==== paper-scale parallel: {} ====", sc.name);

    // Warmup: one untimed system run so allocator/page-cache effects
    // don't inflate whichever timed pass runs first.
    let _ = Run::new(SystemKind::KunServe, sc.cfg.clone(), &sc.trace())
        .drain(sc.drain)
        .execute();
    // 1. Serial baseline; best of two passes so a co-tenant stealing CPU
    //    during one pass doesn't skew the recorded speedup either way.
    let (serial, serial_ms) = best_of_two(|| sc.run_lineup_parallel(1));
    // 2. Parallel harness, same best-of-two discipline.
    let (parallel, parallel_ms) = best_of_two(|| sc.run_lineup_parallel(threads));
    let speedup = serial_ms / parallel_ms.max(1e-6);

    // Inter-run parallelism must not change any result.
    for (a, b) in serial.iter().zip(&parallel) {
        assert_eq!(
            format!("{:?}", a.report),
            format!("{:?}", b.report),
            "{}: parallel harness changed the report",
            a.name
        );
    }

    println!();
    println!("| System | finished | TTFT p50 (s) | TTFT p99 (s) | preemptions |");
    println!("|---|---|---|---|---|");
    for out in &parallel {
        println!(
            "| {} | {}/{} | {} | {} | {} |",
            out.name,
            out.report.finished_requests,
            out.report.total_requests,
            secs(out.report.ttft.p50),
            secs(out.report.ttft.p99),
            out.report.preemptions,
        );
    }

    println!();
    println!(
        "wall_clock: serial {:.0} ms, parallel {:.0} ms ({} threads, {} available) -> speedup {:.2}x",
        serial_ms,
        parallel_ms,
        threads,
        harness::host_parallelism(),
        speedup,
    );

    let systems = parallel.iter().map(|o| outcome_json(&sc.cfg, o)).collect();
    with_fields(
        lineup_doc("paper_scale_parallel", sc.name, None, systems),
        [
            ("wall_clock_ms_serial", Json::Num(serial_ms)),
            ("wall_clock_ms_parallel", Json::Num(parallel_ms)),
            ("speedup", Json::Num(speedup)),
        ],
    )
}
