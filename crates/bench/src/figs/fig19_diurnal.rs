//! Regenerates Figure 19: a diurnal tide — the workload breathes through
//! day/night cycles with high-frequency noise on top. Each peak overloads
//! the KV pool; each trough gives KunServe room to restore. vLLM queues
//! through every peak, while KunServe's drop/restore tracks the tide and
//! keeps the TTFT tail bounded across all cycles.
//!
//! Run: `cargo run --release -p bench --bin figs -- fig19_diurnal`
//! (`--smoke`: the tiny-cluster CI scenario).

use cluster::ClusterConfig;
use sim_core::{SimDuration, SimTime};
use workload::{Dataset, DiurnalTraceBuilder};

use super::{count_events, lineup_doc, print_arrival_rate, run_arms, Opts, VLLM_VS_KUNSERVE};
use crate::{outcome_json, print_series, secs, with_fields, Json};

struct Setup {
    name: &'static str,
    cfg: ClusterConfig,
    builder: DiurnalTraceBuilder,
    drain: SimDuration,
}

/// The CI scenario: two compressed "days" on the fast test cluster, with
/// peaks ~90% above the trough plus band-limited noise.
fn smoke_setup() -> Setup {
    let mut cfg = ClusterConfig::tiny_test(4);
    cfg.reserve_frac = 0.45;
    Setup {
        name: "tiny diurnal tide",
        cfg,
        builder: DiurnalTraceBuilder::new(Dataset::BurstGpt)
            .base_rps(55.0)
            .period(SimDuration::from_secs(30))
            .days(2.0)
            .amplitude(0.85)
            .noise(0.15, 3)
            .seed(19),
        drain: SimDuration::from_secs(900),
    }
}

/// Paper-scale: BurstGPT × 14B on cluster A over two longer cycles.
fn full_setup() -> Setup {
    let mut cfg = ClusterConfig::qwen14b_cluster_a();
    cfg.reserve_frac = 0.55;
    Setup {
        name: "BurstGPT x 14B diurnal",
        cfg,
        builder: DiurnalTraceBuilder::new(Dataset::BurstGpt)
            .base_rps(22.0)
            .period(SimDuration::from_secs(80))
            .days(2.0)
            .amplitude(0.6)
            .noise(0.2, 5)
            .seed(46),
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
        "# Figure 19: diurnal tide on {} ({} requests, {:.0} expected)",
        setup.name,
        trace.len(),
        setup.builder.expected_requests()
    );
    println!();
    print_arrival_rate("Arrival rate", &trace, 5);

    let window = SimDuration::from_secs(5);
    let end = SimTime::ZERO + setup.builder.span() + SimDuration::from_secs(60);
    let outcomes = run_arms(
        opts,
        &setup.cfg,
        &trace,
        setup.drain,
        None,
        &VLLM_VS_KUNSERVE,
    );
    let mut sys_jsons = Vec::new();
    for out in &outcomes {
        let m = &out.state.metrics;
        println!();
        println!("## {}", out.name);
        let ttft = m.ttft_series.windowed_mean(SimTime::ZERO, end, window);
        print_series("time_s,mean_ttft_s", &ttft, 1.0);
        let drops = count_events(out, "drop");
        let restores = count_events(out, "restore: split");
        println!("drop_events,{drops}");
        println!("restore_events,{restores}");
        println!(
            "summary,finished={}/{},p50={},p99={}",
            out.report.finished_requests,
            out.report.total_requests,
            secs(out.report.ttft.p50),
            secs(out.report.ttft.p99)
        );
        sys_jsons.push(with_fields(
            outcome_json(&setup.cfg, out),
            [
                ("drop_events", Json::Num(drops as f64)),
                ("restore_events", Json::Num(restores as f64)),
            ],
        ));
    }

    let smoke = Some((opts.smoke, "requests", trace.len()));
    lineup_doc("fig19_diurnal", setup.name, smoke, sys_jsons)
}
