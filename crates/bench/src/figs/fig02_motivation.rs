//! Regenerates paper Figure 2: TTFT spikes caused by memory overloading.
//!
//! (a) the bursty arrival rate; (b) KVCache memory demand vs capacity on
//! vLLM; (c)–(e) mean TTFT over time for the three KVCache-centric
//! reactions: drop/recompute (vLLM), swap (InferCept), migrate (Llumnix).
//!
//! Run: `cargo run --release -p bench --bin figs -- fig02_motivation`

use kunserve::serving::SystemKind;
use sim_core::{SimDuration, SimTime};

use super::{lineup_doc, mean, print_arrival_rate, run_arms, Opts};
use crate::{outcome_json, print_series, secs, Json, Scenario};

pub fn run(opts: &Opts) -> Json {
    let sc = Scenario::burstgpt_14b();
    let trace = sc.trace();
    let window = SimDuration::from_secs(4);
    let end = SimTime::ZERO + sc.duration + SimDuration::from_secs(40);

    print_arrival_rate("Figure 2 (a): BurstGPT-like arrival rate", &trace, 4);

    let systems = [
        ("(b)+(c) Drop/recompute KVCache (vLLM)", SystemKind::VllmDp),
        ("(d) Swap KVCache (InferCept)", SystemKind::InferCept),
        ("(e) Migrate KVCache (Llumnix)", SystemKind::Llumnix),
    ];
    let outcomes = run_arms(opts, &sc.cfg, &trace, sc.drain, None, &systems);
    for ((label, kind), out) in systems.iter().zip(&outcomes) {
        let m = &out.state.metrics;
        println!();
        println!("# Figure 2 {label}");
        if *kind == SystemKind::VllmDp {
            let cap = m
                .mem_capacity
                .points()
                .first()
                .map(|&(_, v)| v)
                .unwrap_or(0.0);
            println!("capacity_limit_gb,{:.1}", cap / 1e9);
            let demand = m.mem_demand.windowed_mean(SimTime::ZERO, end, window);
            print_series("time_s,kv_demand_gb", &demand, 1e-9);
            println!("avg_usage_pct,{:.1}", mean(&m.mem_used) / cap * 100.0);
        }
        let ttft = m.ttft_series.windowed_mean(SimTime::ZERO, end, window);
        print_series("time_s,mean_ttft_s", &ttft, 1.0);
        println!(
            "summary,p50={},p99={},max={}",
            secs(out.report.ttft.p50),
            secs(out.report.ttft.p99),
            secs(out.report.ttft.max)
        );
        println!(
            "spike_factor_p99_over_p50,{:.1}",
            out.report.ttft.p99 / out.report.ttft.p50.max(1e-3)
        );
    }

    let systems = outcomes.iter().map(|o| outcome_json(&sc.cfg, o)).collect();
    lineup_doc("fig02_motivation", sc.name, None, systems)
}
