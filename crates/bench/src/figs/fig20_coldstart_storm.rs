//! Regenerates Figure 20: cold-start storms on a long-tail model zoo. A
//! Zipf-popular head model hums along while bursts of traffic slam the
//! rarely-used tail models (each provisioned with a single instance).
//! vLLM's per-model queues collapse on every storm; KunServe lends the
//! head model's parameter memory to the starved tail via cross-model KV
//! donation and keeps the cluster-wide tail bounded.
//!
//! Run: `cargo run --release -p bench --bin figs -- fig20_coldstart_storm`
//! (`--smoke`: the tiny-cluster CI scenario).

use cluster::ClusterConfig;
use sim_core::SimDuration;
use workload::{Dataset, PopularityTraceBuilder};

use super::{lineup_doc, print_arrival_rate, run_arms, Opts, VLLM_VS_KUNSERVE};
use crate::{outcome_json, secs, Json};

struct Setup {
    name: &'static str,
    cfg: ClusterConfig,
    builder: PopularityTraceBuilder,
    drain: SimDuration,
}

/// The CI scenario: a 4-instance head model plus four single-instance
/// tail models, storms clustered on the cold half of the popularity
/// ranking.
fn smoke_setup() -> Setup {
    let mut cfg = ClusterConfig::tiny_many_models(4, 4);
    cfg.reserve_frac = 0.45;
    Setup {
        name: "tiny cold-start storm",
        cfg,
        builder: PopularityTraceBuilder::new(Dataset::BurstGpt, 5)
            .zipf(1.1)
            .base_rps(26.0)
            .duration(SimDuration::from_secs(25))
            .storms(0.12, 30, SimDuration::from_secs(3))
            .seed(20),
        drain: SimDuration::from_secs(900),
    }
}

/// Paper-scale: a larger head deployment and the full 8-model tail.
fn full_setup() -> Setup {
    let mut cfg = ClusterConfig::tiny_many_models(8, 8);
    cfg.reserve_frac = 0.50;
    Setup {
        name: "long-tail cold-start storm",
        cfg,
        builder: PopularityTraceBuilder::new(Dataset::BurstGpt, 9)
            .zipf(1.1)
            .base_rps(50.0)
            .duration(SimDuration::from_secs(60))
            .storms(0.10, 45, SimDuration::from_secs(4))
            .seed(47),
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
        "# Figure 20: cold-start storms on {} ({} requests, {:.0} expected)",
        setup.name,
        trace.len(),
        setup.builder.expected_requests()
    );
    println!();
    print_arrival_rate("Arrival rate", &trace, 5);

    let outcomes = run_arms(
        opts,
        &setup.cfg,
        &trace,
        setup.drain,
        None,
        &VLLM_VS_KUNSERVE,
    );
    for out in &outcomes {
        println!();
        println!("## {}", out.name);
        for m in &out.report.per_model {
            println!(
                "model,{},total={},finished={},p99={}",
                setup.cfg.model_cfg(m.model).name,
                m.total_requests,
                m.finished_requests,
                secs(m.ttft.p99)
            );
        }
        println!("donated_bytes_peak,{}", out.report.donated_bytes_peak);
        println!(
            "summary,finished={}/{},p50={},p99={}",
            out.report.finished_requests,
            out.report.total_requests,
            secs(out.report.ttft.p50),
            secs(out.report.ttft.p99)
        );
    }

    let sys_jsons = outcomes
        .iter()
        .map(|o| outcome_json(&setup.cfg, o))
        .collect();
    let smoke = Some((opts.smoke, "requests", trace.len()));
    lineup_doc("fig20_coldstart_storm", setup.name, smoke, sys_jsons)
}
