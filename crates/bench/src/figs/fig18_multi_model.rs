//! Figure 18 (extension): multi-model co-serving under colliding bursts.
//!
//! Two models share one cluster — Qwen-2.5-14B chat traffic bursting on
//! top of steady Qwen-2.5-72B long-context traffic. Every system is
//! model-aware (dispatch, migration and vLLM-PP pairing never cross
//! models); KunServe additionally arbitrates the two models' drop plans
//! against the shared reclaim allowance. The output is a per-system,
//! per-model latency table (CSV) plus the machine-readable JSON the CI
//! regression gate consumes. The cross-model donation ablation is its
//! sibling entry, `fig18_donation`.
//!
//! Run: `cargo run --release -p bench --bin figs -- fig18_multi_model`
//! (`--smoke`: the tiny two-model CI scenario).

use kunserve::serving::SystemKind;

use super::{count_events, lineup_doc, run_arms, Opts};
use crate::{outcome_json, secs, Json, MultiScenario};

pub fn run(opts: &Opts) -> Json {
    let sc = if opts.smoke {
        MultiScenario::fig18_smoke()
    } else {
        MultiScenario::fig18_14b_chat_vs_72b_longctx()
    };
    let trace = sc.trace();
    println!("==== fig18: {} ====", sc.name);
    println!(
        "trace: {} requests over {:.0}s ({} models)",
        trace.len(),
        sc.duration.as_secs_f64(),
        trace.models().len()
    );

    let systems = [
        ("vLLM (DP)", SystemKind::VllmDp),
        ("Llumnix", SystemKind::Llumnix),
        ("KunServe", SystemKind::KunServe),
    ];
    let outcomes = run_arms(opts, &sc.cfg, &trace, sc.drain, None, &systems);
    let mut sys_jsons = Vec::new();
    println!("system,model,name,finished,total,ttft_p50_s,ttft_p99_s,tpot_p50_s,tpot_p99_s");
    for out in &outcomes {
        for m in &out.report.per_model {
            println!(
                "{},{},{},{},{},{},{},{},{}",
                out.name,
                m.model,
                sc.cfg.model_cfg(m.model).name,
                m.finished_requests,
                m.total_requests,
                secs(m.ttft.p50),
                secs(m.ttft.p99),
                secs(m.tpot.p50),
                secs(m.tpot.p99),
            );
        }
        println!(
            "summary,{},finished={}/{},ttft_p99={},drops={}",
            out.name,
            out.report.finished_requests,
            out.report.total_requests,
            secs(out.report.ttft.p99),
            count_events(out, "drop"),
        );
        sys_jsons.push(outcome_json(&sc.cfg, out));
    }

    let smoke = Some((opts.smoke, "requests", trace.len()));
    lineup_doc("fig18_multi_model", sc.name, smoke, sys_jsons)
}
