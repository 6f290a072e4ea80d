//! Regenerates paper Figure 12: end-to-end timelines per workload × model.
//!
//! For each scenario (BurstGPT/ShareGPT/LongBench × 14B, LongBench × 72B)
//! and each of the five systems: the memory usage pattern (first column),
//! the mean TTFT timeline (second column) and the throughput timeline
//! (third column).
//!
//! Run: `cargo run --release -p bench --bin figs -- fig12_end_to_end`

use sim_core::{SimDuration, SimTime};

use super::{print_events, Opts};
use crate::{outcome_json, print_series, secs, Json, Scenario};

pub fn run(opts: &Opts) -> Json {
    let window = SimDuration::from_secs(5);
    let mut scenario_jsons = Vec::new();
    for sc in Scenario::paper_matrix() {
        let end = SimTime::ZERO + sc.duration + SimDuration::from_secs(60);
        println!("==== {} ====", sc.name);
        let mut sys_jsons = Vec::new();
        for out in sc.run_lineup_parallel(opts.threads) {
            let m = &out.state.metrics;
            sys_jsons.push(outcome_json(&sc.cfg, &out));
            println!();
            println!("--- {} ---", out.name);
            // Column 1: memory timeline (capacity moves when KunServe drops).
            let cap = m.mem_capacity.windowed_mean(SimTime::ZERO, end, window);
            let demand = m.mem_demand.windowed_mean(SimTime::ZERO, end, window);
            print_series("time_s,capacity_gb", &cap, 1e-9);
            print_series("time_s,kv_demand_gb", &demand, 1e-9);
            print_events(&out, &[""]);
            // Column 2: mean TTFT timeline.
            let ttft = m.ttft_series.windowed_mean(SimTime::ZERO, end, window);
            print_series("time_s,mean_ttft_s", &ttft, 1.0);
            // Column 3: throughput timeline.
            let rates = m.tokens.rates(SimTime::ZERO, end, window);
            print_series("time_s,tokens_per_s", &rates, 1.0);
            println!(
                "summary,finished={}/{},ttft_p50={},ttft_p99={},tpot_p50={},tpot_p99={},mean_tput={:.0}",
                out.report.finished_requests,
                out.report.total_requests,
                secs(out.report.ttft.p50),
                secs(out.report.ttft.p99),
                secs(out.report.tpot.p50),
                secs(out.report.tpot.p99),
                out.report.total_tokens as f64 / sc.duration.as_secs_f64(),
            );
        }
        scenario_jsons.push(Json::obj([
            ("scenario", Json::str(sc.name)),
            ("systems", Json::Arr(sys_jsons)),
        ]));
        println!();
    }
    Json::obj([
        ("figure", Json::str("fig12_end_to_end")),
        ("scenarios", Json::Arr(scenario_jsons)),
    ])
}
