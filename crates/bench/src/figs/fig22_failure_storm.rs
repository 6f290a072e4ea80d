//! Regenerates Figure 22: a failure storm — a whole rack (power/ToR
//! failure domain) goes down mid-burst, taking every instance behind it.
//! Both systems face the identical scripted storm, which the engine fires
//! at monitor ticks (`Run::failures`) while each policy makes its own
//! decisions; survivors restore full parameter copies and absorb the dead
//! rack's requests. KunServe additionally keeps
//! donating memory through the recovery, so its TTFT tail stays below
//! vLLM's even while the cluster is degraded.
//!
//! Run: `cargo run --release -p bench --bin figs -- fig22_failure_storm`
//! (`--smoke`: the tiny-cluster CI scenario).

use cluster::{ClusterConfig, FailureSchedule};
use sim_core::{SimDuration, SimTime};
use workload::{BurstTraceBuilder, Dataset};

use super::{
    count_events, lineup_doc, print_arrival_rate, print_events, run_arms, Opts, VLLM_VS_KUNSERVE,
};
use crate::{outcome_json, secs, with_fields, Json};

struct Setup {
    name: &'static str,
    cfg: ClusterConfig,
    builder: BurstTraceBuilder,
    schedule: FailureSchedule,
    drain: SimDuration,
}

/// The CI scenario: 8 instances in 4 racks of 2; rack 1 dies at t=12s,
/// inside the burst window.
fn smoke_setup() -> Setup {
    let mut cfg = ClusterConfig::tiny_test(8);
    cfg.reserve_frac = 0.45;
    cfg.rack_size = 2;
    Setup {
        name: "tiny failure storm",
        cfg,
        builder: BurstTraceBuilder::new(Dataset::BurstGpt)
            .base_rps(70.0)
            .duration(SimDuration::from_secs(20))
            .burst(SimTime::from_secs(6), SimDuration::from_secs(9), 2.5)
            .seed(22),
        schedule: FailureSchedule::new().rack_down(SimTime::from_secs(12), 1),
        drain: SimDuration::from_secs(900),
    }
}

/// Paper-scale: a longer trace and a two-rack storm in close succession.
fn full_setup() -> Setup {
    let mut cfg = ClusterConfig::tiny_test(16);
    cfg.reserve_frac = 0.50;
    cfg.rack_size = 4;
    Setup {
        name: "two-rack failure storm",
        cfg,
        builder: BurstTraceBuilder::new(Dataset::BurstGpt)
            .base_rps(150.0)
            .duration(SimDuration::from_secs(60))
            .burst(SimTime::from_secs(18), SimDuration::from_secs(20), 2.5)
            .seed(49),
        schedule: FailureSchedule::new()
            .rack_down(SimTime::from_secs(25), 1)
            .rack_down(SimTime::from_secs(35), 2),
        drain: SimDuration::from_secs(900),
    }
}

pub fn run(opts: &Opts) -> Json {
    let setup = if opts.smoke {
        smoke_setup()
    } else {
        full_setup()
    };
    let trace = setup.builder.build();
    println!(
        "# Figure 22: failure storm on {} ({} requests, {} scripted failures)",
        setup.name,
        trace.len(),
        setup.schedule.len()
    );
    println!();
    print_arrival_rate("Arrival rate", &trace, 5);

    let outcomes = run_arms(
        opts,
        &setup.cfg,
        &trace,
        setup.drain,
        Some(&setup.schedule),
        &VLLM_VS_KUNSERVE,
    );
    let mut sys_jsons = Vec::new();
    for out in &outcomes {
        println!();
        println!("## {}", out.name);
        let rack_failures = count_events(out, "rack-failure");
        print_events(out, &["rack-failure", "failure"]);
        println!("rack_failures,{rack_failures}");
        println!(
            "summary,finished={}/{},p50={},p99={}",
            out.report.finished_requests,
            out.report.total_requests,
            secs(out.report.ttft.p50),
            secs(out.report.ttft.p99)
        );
        sys_jsons.push(with_fields(
            outcome_json(&setup.cfg, out),
            [("rack_failures", Json::Num(rack_failures as f64))],
        ));
    }

    let smoke = Some((opts.smoke, "requests", trace.len()));
    lineup_doc("fig22_failure_storm", setup.name, smoke, sys_jsons)
}
