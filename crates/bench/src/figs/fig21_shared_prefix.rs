//! Regenerates Figure 21: shared-prefix agent/RAG traffic under a burst.
//! Requests arrive in groups that share a long system-prompt prefix; the
//! first dependent per serving group computes the prefix once and the rest
//! hit resident KV. The gate is two-sided: KunServe must still beat vLLM's
//! p99 TTFT under the burst, *and* its drop planner's evictions must not
//! amplify shared-prefix recompute beyond a bounded factor — dropping
//! parameters is only free if it doesn't silently multiply prefill work
//! across every dependent of an evicted prefix.
//!
//! Run: `cargo run --release -p bench --bin figs -- fig21_shared_prefix`
//! (`--smoke`: the tiny-cluster CI scenario).

use cluster::ClusterConfig;
use sim_core::{SimDuration, SimTime};
use workload::{Dataset, SharedPrefixTraceBuilder};

use super::{lineup_doc, print_arrival_rate, run_arms, Opts, VLLM_VS_KUNSERVE};
use crate::{outcome_json, secs, with_fields, Json};

struct Setup {
    name: &'static str,
    cfg: ClusterConfig,
    builder: SharedPrefixTraceBuilder,
    drain: SimDuration,
}

/// The CI scenario: eight prefix groups (200–800 shared tokens each) on
/// the fast test cluster, with a mid-trace burst forcing evictions.
fn smoke_setup() -> Setup {
    let mut cfg = ClusterConfig::tiny_test(4);
    cfg.reserve_frac = 0.45;
    Setup {
        name: "tiny shared prefix",
        cfg,
        builder: SharedPrefixTraceBuilder::new(Dataset::BurstGpt, 8)
            .base_rps(40.0)
            .duration(SimDuration::from_secs(20))
            .burst(SimTime::from_secs(6), SimDuration::from_secs(8), 3.0)
            .prefix_tokens(200, 800)
            .seed(21),
        drain: SimDuration::from_secs(900),
    }
}

/// Paper-scale: BurstGPT × 14B on cluster A with more groups and longer
/// shared prefixes.
fn full_setup() -> Setup {
    let mut cfg = ClusterConfig::qwen14b_cluster_a();
    cfg.reserve_frac = 0.55;
    Setup {
        name: "BurstGPT x 14B shared prefix",
        cfg,
        builder: SharedPrefixTraceBuilder::new(Dataset::BurstGpt, 24)
            .base_rps(22.0)
            .duration(SimDuration::from_secs(120))
            .burst(SimTime::from_secs(42), SimDuration::from_secs(12), 3.0)
            .burst(SimTime::from_secs(82), SimDuration::from_secs(10), 2.5)
            .prefix_tokens(400, 1600)
            .seed(48),
        drain: SimDuration::from_secs(400),
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
        "# Figure 21: shared-prefix traffic on {} ({} requests)",
        setup.name,
        trace.len()
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
    let tokens = |n: u64| Json::Num(n as f64);
    let mut sys_jsons = Vec::new();
    for out in &outcomes {
        let r = &out.report;
        let amp = r.prefix_recompute_amplification();
        println!();
        println!("## {}", out.name);
        println!("prefix_saved_tokens,{}", r.prefix_saved_tokens);
        println!("prefix_unique_tokens,{}", r.prefix_unique_tokens);
        println!("prefix_recompute_tokens,{}", r.prefix_recompute_tokens);
        println!("prefix_recompute_amplification,{amp:.4}");
        println!(
            "summary,finished={}/{},p50={},p99={}",
            r.finished_requests,
            r.total_requests,
            secs(r.ttft.p50),
            secs(r.ttft.p99)
        );
        sys_jsons.push(with_fields(
            outcome_json(&setup.cfg, out),
            [
                ("prefix_saved_tokens", tokens(r.prefix_saved_tokens)),
                ("prefix_unique_tokens", tokens(r.prefix_unique_tokens)),
                ("prefix_recompute_tokens", tokens(r.prefix_recompute_tokens)),
                ("prefix_recompute_amplification", Json::Num(amp)),
            ],
        ));
    }

    let smoke = Some((opts.smoke, "requests", trace.len()));
    lineup_doc("fig21_shared_prefix", setup.name, smoke, sys_jsons)
}
