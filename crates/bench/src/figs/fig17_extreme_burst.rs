//! Regenerates paper Figure 17: behavior under an extreme, unrealistic
//! burst — the first burst window replays back-to-back until every system
//! runs out of memory. KunServe sustains the burst longer (its drops free
//! parameter memory, bounded by model size) and triggers multiple drops.
//!
//! Run: `cargo run --release -p bench --bin figs -- fig17_extreme_burst`
//! (`--smoke`: the tiny-cluster CI scenario).

use cluster::ClusterConfig;
use sim_core::{SimDuration, SimTime};
use workload::{extreme_burst, Dataset};

use super::{
    count_events, lineup_doc, print_arrival_rate, print_events, run_arms, Opts, VLLM_VS_KUNSERVE,
};
use crate::{outcome_json, print_series, secs, with_fields, Json, Scenario};

/// A tiny extreme-burst scenario for CI: the same replayed-burst
/// methodology on the fast test cluster.
fn smoke_scenario() -> Scenario {
    let mut cfg = ClusterConfig::tiny_test(4);
    cfg.reserve_frac = 0.45;
    Scenario {
        name: "tiny extreme burst",
        dataset: Dataset::BurstGpt,
        cfg,
        base_rps: 40.0,
        duration: SimDuration::from_secs(20),
        bursts: vec![(0.30, 6.0, 3.0)],
        drain: SimDuration::from_secs(900),
        seed: 77,
    }
}

pub fn run(opts: &Opts) -> Json {
    let (sc, replays) = if opts.smoke {
        (smoke_scenario(), 3)
    } else {
        (Scenario::longbench_72b(), 6)
    };
    let d = sc.duration.as_secs_f64();
    // Replay the first burst window repeatedly (paper methodology).
    let (b_frac, b_len, _) = sc.bursts[0];
    let b_start = SimTime::from_secs_f64(d * b_frac);
    let b_end = b_start + SimDuration::from_secs_f64(b_len);
    let trace = extreme_burst(&sc.trace(), b_start, b_end, replays);
    println!(
        "# Figure 17: extreme burst on {} ({} requests)",
        sc.name,
        trace.len()
    );
    println!();
    print_arrival_rate("Arrival rate", &trace, 5);

    let window = SimDuration::from_secs(5);
    let end = SimTime::ZERO + SimDuration::from_secs_f64(d + 120.0);
    let outcomes = run_arms(opts, &sc.cfg, &trace, sc.drain, None, &VLLM_VS_KUNSERVE);
    let mut sys_jsons = Vec::new();
    for out in &outcomes {
        let m = &out.state.metrics;
        println!();
        println!("## {}", out.name);
        let ttft = m.ttft_series.windowed_mean(SimTime::ZERO, end, window);
        print_series("time_s,mean_ttft_s", &ttft, 1.0);
        let used = m.mem_used.windowed_mean(SimTime::ZERO, end, window);
        print_series("time_s,kv_used_gb", &used, 1e-9);
        let cap = m.mem_capacity.windowed_mean(SimTime::ZERO, end, window);
        print_series("time_s,kv_capacity_gb", &cap, 1e-9);
        let drops = count_events(out, "drop");
        println!("drop_events,{drops}");
        print_events(out, &[""]);
        // Time-to-overload: first instant the windowed mean TTFT crosses a
        // fixed 2 s threshold (an SLO-violation onset proxy comparable
        // across systems).
        let onset = ttft.iter().find(|&&(_, v)| v > 2.0).map(|&(t, _)| t);
        match onset {
            Some(t) => println!("slo_violation_onset_s,{:.1}", t.as_secs_f64()),
            None => println!("slo_violation_onset_s,never"),
        }
        println!(
            "summary,finished={}/{},p50={},p99={}",
            out.report.finished_requests,
            out.report.total_requests,
            secs(out.report.ttft.p50),
            secs(out.report.ttft.p99)
        );
        sys_jsons.push(with_fields(
            outcome_json(&sc.cfg, out),
            [("drop_events", Json::Num(drops as f64))],
        ));
    }

    let smoke = Some((opts.smoke, "requests", trace.len()));
    lineup_doc("fig17_extreme_burst", sc.name, smoke, sys_jsons)
}
