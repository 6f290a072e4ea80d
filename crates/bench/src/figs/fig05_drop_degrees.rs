//! Regenerates paper Figure 5: serving latency vs parameter-drop degree.
//!
//! All setups use 8 instances on BurstGPT without overload; the drop degree
//! is fixed statically: DP×8 (full copies), drop 50 % (2-stage pipelines),
//! drop 75 % (4-stage), drop 88 % (8-stage). More dropping ⇒ deeper
//! pipelines ⇒ higher latency — the trade-off the drop planner minimizes.
//!
//! Run: `cargo run --release -p bench --bin figs -- fig05_drop_degrees`

use kunserve::serving::{Run, SystemKind};

use super::{lineup_doc, Opts};
use crate::{harness, ms, outcome_json_labeled, secs, Json, Scenario};

pub fn run(opts: &Opts) -> Json {
    // Moderate load with no bursts: isolate the parallelism cost.
    let mut sc = Scenario::burstgpt_14b();
    sc.bursts.clear();
    sc.base_rps = 18.0;
    let trace = sc.trace();

    println!("# Figure 5: latency CDFs under static drop degrees (BurstGPT, 8 GPUs)");
    println!();
    println!("| Setup | TTFT p50 (s) | TTFT p99 (s) | TPOT p50 (ms) | TPOT p99 (ms) |");
    println!("|---|---|---|---|---|");
    let setups = [
        ("DP x 8 (full)", 1u32),
        ("Drop 50% layers", 2),
        ("Drop 75% layers", 4),
        ("Drop 88% layers", 8),
    ];
    let outcomes = harness::run_indexed(opts.threads, setups.len(), |i| {
        let mut cfg = sc.cfg.clone();
        cfg.initial_group_size = setups[i].1;
        Run::new(SystemKind::VllmDp, cfg, &trace)
            .drain(sc.drain)
            .execute()
    });
    let mut sys_jsons = Vec::new();
    for ((label, _), out) in setups.iter().zip(&outcomes) {
        println!(
            "| {label} | {} | {} | {} | {} |",
            secs(out.report.ttft.p50),
            secs(out.report.ttft.p99),
            ms(out.report.tpot.p50),
            ms(out.report.tpot.p99),
        );
        sys_jsons.push(outcome_json_labeled(&sc.cfg, out, label));
    }
    println!();
    println!("# TTFT CDFs (value_s, cum_frac)");
    for ((label, _), out) in setups.iter().zip(&outcomes) {
        println!("## {label}");
        for (v, f) in out.report.ttft_cdf(20) {
            println!("{:.3},{:.2}", v, f);
        }
    }

    lineup_doc("fig05_drop_degrees", sc.name, None, sys_jsons)
}
