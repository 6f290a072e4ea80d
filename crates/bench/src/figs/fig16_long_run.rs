//! Regenerates paper Figure 16: a 640 s long run with multiple overloading
//! waves, comparing vLLM (DP), KunServe without restoration and full
//! KunServe. Demonstrates why dynamic parameter restoration matters: the
//! no-restore variant stays pipelined and enters the second wave weaker.
//!
//! Run: `cargo run --release -p bench --bin figs -- fig16_long_run`

use kunserve::serving::SystemKind;
use kunserve::KunServeConfig;
use sim_core::{SimDuration, SimTime};

use super::{lineup_doc, print_arrival_rate, print_events, run_arms, Opts};
use crate::{ms, outcome_json_labeled, print_series, secs, Json, Scenario};

pub fn run(opts: &Opts) -> Json {
    let mut sc = Scenario::burstgpt_14b();
    sc.duration = SimDuration::from_secs(640);
    sc.drain = SimDuration::from_secs(400);
    // Two overloading waves like the paper's long trace, with quiet
    // periods long enough for restoration to engage between them.
    sc.bursts = vec![(0.18, 14.0, 2.8), (0.62, 16.0, 2.8)];
    let trace = sc.trace();
    println!("# Figure 16: 640s long run ({} requests)", trace.len());

    let window = SimDuration::from_secs(10);
    let end = SimTime::ZERO + sc.duration + SimDuration::from_secs(100);
    println!();
    println!("| System | TTFT p50 (s) | TTFT p99 (s) | TPOT p50 (ms) | TPOT p99 (ms) |");
    println!("|---|---|---|---|---|");
    let systems = [
        ("vLLM (DP)", SystemKind::VllmDp),
        (
            "KunServe w/o restore",
            SystemKind::KunServeWith(KunServeConfig::without_restore()),
        ),
        ("KunServe", SystemKind::KunServe),
    ];
    let outcomes = run_arms(opts, &sc.cfg, &trace, sc.drain, None, &systems);
    let mut sys_jsons = Vec::new();
    for ((label, _), out) in systems.iter().zip(&outcomes) {
        sys_jsons.push(outcome_json_labeled(&sc.cfg, out, label));
        println!(
            "| {label} | {} | {} | {} | {} |",
            secs(out.report.ttft.p50),
            secs(out.report.ttft.p99),
            ms(out.report.tpot.p50),
            ms(out.report.tpot.p99),
        );
    }

    println!();
    print_arrival_rate("Arrival rate", &trace, 10);
    for ((label, _), out) in systems.iter().zip(&outcomes) {
        let m = &out.state.metrics;
        let ttft = m.ttft_series.windowed_mean(SimTime::ZERO, end, window);
        let demand = m.mem_demand.windowed_mean(SimTime::ZERO, end, window);
        println!();
        println!("## {label}");
        print_series("time_s,mean_ttft_s", &ttft, 1.0);
        print_series("time_s,kv_demand_gb", &demand, 1e-9);
        print_events(out, &[""]);
    }

    lineup_doc("fig16_long_run", "640s long run", None, sys_jsons)
}
