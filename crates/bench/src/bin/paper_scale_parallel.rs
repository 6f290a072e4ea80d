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
//! The JSON gate (`check_bench_json`) enforces the paper's ordering
//! (KunServe p99 < vLLM p99), completion floors, p99 ceilings, and — on
//! hosts with enough cores — a minimum harness speedup.
//!
//! Run: `cargo run --release -p bench --bin paper_scale_parallel -- --threads 4`

use bench::{
    harness, json_out_path, outcome_json, secs, with_exec_meta, write_json, Json, Scenario,
};
use kunserve::serving::{Run, SystemKind};

/// Runs a timed pass twice and keeps the faster one (results are
/// deterministic, so only the wall-clock differs).
fn best_of_two<T>(mut f: impl FnMut() -> harness::Timed<T>) -> harness::Timed<T> {
    let a = f();
    let b = f();
    if a.wall_ms <= b.wall_ms {
        a
    } else {
        b
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let threads = harness::threads_from_args(&args);
    let sc = Scenario::burstgpt_14b();
    println!("==== paper-scale parallel: {} ====", sc.name);

    // Warmup: one untimed system run so allocator/page-cache effects
    // don't inflate whichever timed pass runs first.
    let _ = Run::new(SystemKind::KunServe, sc.cfg.clone(), &sc.trace())
        .drain(sc.drain)
        .execute();
    // 1. Serial baseline; best of two passes so a co-tenant stealing CPU
    //    during one pass doesn't skew the recorded speedup either way.
    let serial = best_of_two(|| harness::timed(|| sc.run_lineup_parallel(1)));
    // 2. Parallel harness, same best-of-two discipline.
    let parallel = best_of_two(|| harness::timed(|| sc.run_lineup_parallel(threads)));
    let speedup = serial.wall_ms / parallel.wall_ms.max(1e-6);

    // Inter-run parallelism must not change any result.
    for (a, b) in serial.value.iter().zip(&parallel.value) {
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
    for out in &parallel.value {
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
        serial.wall_ms,
        parallel.wall_ms,
        threads,
        harness::host_parallelism(),
        speedup,
    );

    let sys_jsons: Vec<Json> = parallel
        .value
        .iter()
        .map(|o| outcome_json(&sc.cfg, o))
        .collect();

    let doc = with_exec_meta(
        Json::obj([
            ("figure", Json::str("paper_scale_parallel")),
            ("scenario", Json::str(sc.name)),
            ("systems", Json::Arr(sys_jsons)),
            ("wall_clock_ms_serial", Json::Num(serial.wall_ms)),
            ("wall_clock_ms_parallel", Json::Num(parallel.wall_ms)),
            ("speedup", Json::Num(speedup)),
        ]),
        threads,
        serial.wall_ms + parallel.wall_ms,
    );
    let path = json_out_path("paper_scale_parallel", &args);
    write_json(&path, &doc).expect("write JSON");
    println!("json,{}", path.display());
}
