//! Regenerates paper Figure 14: the ablation study on LongBench × 14B.
//!
//! Incrementally enables KunServe's techniques: `+Dynamic drop` (parameter
//! dropping with uncoordinated exchange and token-count batching),
//! `+Coordinated ex.` (chunked exchange yielding to activations),
//! `+Lookahead` (cost-balanced microbatches). Also prints the pipeline
//! bubble-time series (1 − GPU utilization during pipelined execution).
//!
//! Run: `cargo run --release -p bench --bin figs -- fig14_ablation`

use kunserve::serving::SystemKind;
use kunserve::KunServeConfig;
use sim_core::{SimDuration, SimTime};

use super::{lineup_doc, mean, run_arms, Opts};
use crate::{ms, outcome_json_labeled, print_series, secs, Json, Scenario};

pub fn run(opts: &Opts) -> Json {
    let sc = Scenario::longbench_14b();
    let systems = [
        ("vLLM (DP)", SystemKind::VllmDp),
        ("vLLM (PP)", SystemKind::VllmPp),
        (
            "+Dynamic drop",
            SystemKind::KunServeWith(KunServeConfig::drop_only()),
        ),
        (
            "+Coordinated ex.",
            SystemKind::KunServeWith(KunServeConfig::drop_and_coordinated()),
        ),
        (
            "+Lookahead",
            SystemKind::KunServeWith(KunServeConfig::default()),
        ),
    ];

    println!("# Figure 14: ablation on {}", sc.name);
    println!();
    println!("| Config | TTFT p50 | p90 | p99 | p999 (s) | TPOT p50 | p90 | p99 | p999 (ms) |");
    println!("|---|---|---|---|---|---|---|---|---|");
    let outcomes = run_arms(opts, &sc.cfg, &sc.trace(), sc.drain, None, &systems);
    let end = SimTime::ZERO + sc.duration + SimDuration::from_secs(60);
    let mut sys_jsons = Vec::new();
    for ((label, _), out) in systems.iter().zip(&outcomes) {
        println!(
            "| {label} | {} | {} | {} | {} | {} | {} | {} | {} |",
            secs(out.report.ttft.p50),
            secs(out.report.ttft.p90),
            secs(out.report.ttft.p99),
            secs(out.report.ttft.p999),
            ms(out.report.tpot.p50),
            ms(out.report.tpot.p90),
            ms(out.report.tpot.p99),
            ms(out.report.tpot.p999),
        );
        // JSON rows are labeled by ablation level (several share the
        // KunServe display name).
        sys_jsons.push(outcome_json_labeled(&sc.cfg, out, label));
    }

    println!();
    println!("# Bubble time (%) during pipelined execution, 5 s windows");
    for ((label, _), out) in systems.iter().zip(&outcomes) {
        let bubbles = &out.state.metrics.bubbles;
        println!("## {label} (mean {:.1}%)", mean(bubbles) * 100.0);
        let series = bubbles.windowed_mean(SimTime::ZERO, end, SimDuration::from_secs(5));
        print_series("time_s,bubble_pct", &series, 100.0);
    }

    lineup_doc("fig14_ablation", sc.name, None, sys_jsons)
}
