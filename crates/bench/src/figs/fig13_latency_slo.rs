//! Regenerates paper Figure 13: P50/P99 TTFT and TPOT per system and
//! workload, plus SLO-violation ratios across SLO scale factors.
//!
//! Following §5.2, the SLO for scale `N` is `N ×` the P50 latency of the
//! best baseline on that workload; chat uses scale 5, summarization 10.
//!
//! Run: `cargo run --release -p bench --bin figs -- fig13_latency_slo`

use super::Opts;
use crate::{ms, outcome_json, secs, Json, Scenario};

pub fn run(opts: &Opts) -> Json {
    let mut scenario_jsons = Vec::new();
    for sc in Scenario::paper_matrix() {
        println!("==== {} ====", sc.name);
        let outcomes = sc.run_lineup_parallel(opts.threads);
        scenario_jsons.push(Json::obj([
            ("scenario", Json::str(sc.name)),
            (
                "systems",
                Json::Arr(outcomes.iter().map(|o| outcome_json(&sc.cfg, o)).collect()),
            ),
        ]));

        println!();
        println!("| System | TTFT p50 (s) | TTFT p99 (s) | TPOT p50 (ms) | TPOT p99 (ms) |");
        println!("|---|---|---|---|---|");
        for out in &outcomes {
            println!(
                "| {} | {} | {} | {} | {} |",
                out.name,
                secs(out.report.ttft.p50),
                secs(out.report.ttft.p99),
                ms(out.report.tpot.p50),
                ms(out.report.tpot.p99),
            );
        }

        // Tail reduction headline: best baseline P99 / KunServe P99.
        let (kun, baselines) = outcomes.split_last().expect("lineup is non-empty");
        let baseline_p99s = baselines.iter().map(|o| o.report.ttft.p99);
        let best_baseline_p99 = baseline_p99s.clone().fold(f64::MAX, f64::min);
        let worst_baseline_p99 = baseline_p99s.fold(0.0, f64::max);
        println!();
        println!(
            "p99_ttft_reduction_vs_baselines,{:.1}x - {:.1}x",
            best_baseline_p99 / kun.report.ttft.p99.max(1e-3),
            worst_baseline_p99 / kun.report.ttft.p99.max(1e-3)
        );

        // SLO violations: threshold = scale x best-baseline P50 (per paper).
        let base_ttft_p50 = baselines
            .iter()
            .map(|o| o.report.ttft.p50)
            .fold(f64::MAX, f64::min);
        let base_tpot_p50 = baselines
            .iter()
            .map(|o| o.report.tpot.p50)
            .fold(f64::MAX, f64::min);
        println!();
        println!("# SLO violation ratio (%) vs scale (TTFT & TPOT must both meet SLO)");
        print!("scale");
        for out in &outcomes {
            print!(",{}", out.name);
        }
        println!();
        for scale in [2.0, 4.0, 5.0, 6.0, 8.0, 10.0] {
            print!("{scale}");
            for out in &outcomes {
                let t = out.report.ttft_violation(base_ttft_p50, scale);
                let p = out.report.tpot_violation(base_tpot_p50, scale);
                // A request violates if either metric violates; approximate
                // the union by the max (they are strongly correlated).
                print!(",{:.1}", t.max(p) * 100.0);
            }
            println!();
        }
        println!();
    }

    Json::obj([
        ("figure", Json::str("fig13_latency_slo")),
        ("scenarios", Json::Arr(scenario_jsons)),
    ])
}
