//! Figure 18 (extension): the cross-model donation ablation.
//!
//! The same KunServe system at three donation granularities —
//! layer-granular (the default), whole-copy (which over-donates whenever
//! the deficit is not a copy multiple) and off — on a scenario whose
//! starved model (a single group — nothing of its own to drop) can only
//! be rescued by another model's donated bytes. The document carries
//! `donated_bytes_peak` and the per-model latency breakdown, gated in CI
//! by `tolerances/fig18_donation.json` (including the strictly-lower
//! donated-bytes claim of layer-granular grants).
//!
//! Run: `cargo run --release -p bench --bin figs -- fig18_donation`
//! (`--smoke`: the tiny two-model CI scenario).

use kunserve::serving::SystemKind;
use kunserve::KunServeConfig;

use super::{lineup_doc, run_arms, Opts};
use crate::{outcome_json_labeled, secs, Json, MultiScenario};

pub fn run(opts: &Opts) -> Json {
    let sc = if opts.smoke {
        MultiScenario::fig18_donation_smoke()
    } else {
        MultiScenario::fig18_donation()
    };
    let trace = sc.trace();
    println!("==== fig18 donation ablation: {} ====", sc.name);
    let variants = [
        ("KunServe", SystemKind::KunServe),
        (
            "KunServe (whole-copy)",
            SystemKind::KunServeWith(KunServeConfig::whole_copy_donation()),
        ),
        (
            "KunServe (no donation)",
            SystemKind::KunServeWith(KunServeConfig::without_donation()),
        ),
    ];
    let outcomes = run_arms(opts, &sc.cfg, &trace, sc.drain, None, &variants);
    let mut sys_jsons = Vec::new();
    println!("system,model,name,finished,total,ttft_p50_s,ttft_p99_s,donated_bytes_peak");
    for ((label, _), out) in variants.iter().zip(&outcomes) {
        for m in &out.report.per_model {
            println!(
                "{},{},{},{},{},{},{},{}",
                label,
                m.model,
                sc.cfg.model_cfg(m.model).name,
                m.finished_requests,
                m.total_requests,
                secs(m.ttft.p50),
                secs(m.ttft.p99),
                out.report.donated_bytes_peak,
            );
        }
        sys_jsons.push(outcome_json_labeled(&sc.cfg, out, label));
    }

    let smoke = Some((opts.smoke, "requests", trace.len()));
    lineup_doc("fig18_donation", sc.name, smoke, sys_jsons)
}
