//! Regenerates paper Figure 15: cost-model accuracy.
//!
//! Compares the fitted Eq. 1–3 model and the attention-blind token-count
//! model against actual (ground-truth) execution latency for Qwen-2.5-14B
//! on A800, for prefills without prefix (left panel) and chunks attending
//! to a prefix (right panel).
//!
//! Run: `cargo run --release -p bench --bin figs -- fig15_cost_model`

use costmodel::{ChunkWork, GroundTruth, Profiler};

use super::Opts;
use crate::Json;

pub fn run(_: &Opts) -> Json {
    let gt = GroundTruth::qwen14b_a800();
    let mut profiler = Profiler::new(gt.clone(), 42);
    let fitted = profiler.fit();
    let baseline = profiler.fit_token_count_baseline();

    println!("# Figure 15: cost-model accuracy (Qwen-2.5-14B / A800)");
    println!(
        "fitted: alpha={:.4} us, beta={:.1} us, gamma={:.0} us, lambda={:.0} us",
        fitted.alpha_us, fitted.beta_us, fitted.gamma_us, fitted.lambda_us
    );
    println!();

    println!("## Prefill w/o prefix (prompt length sweep)");
    println!("| Prompt | Actual (ms) | Ours (ms) | dev% | w/o attn (ms) | dev% |");
    println!("|---|---|---|---|---|---|");
    let mut max_dev_ours: f64 = 0.0;
    let mut max_dev_base: f64 = 0.0;
    for len in [512u64, 1024, 2048, 4096, 6144, 8192] {
        let w = ChunkWork::prefill(len);
        let actual = gt.expected_us(&[w], 1.0) / 1e3;
        let ours = fitted.chunk_cost_us(w) / 1e3;
        let blind = baseline.batch_cost_us(&[w]) / 1e3;
        let d_ours = ((ours - actual) / actual * 100.0).abs();
        let d_base = ((blind - actual) / actual * 100.0).abs();
        max_dev_ours = max_dev_ours.max(d_ours);
        max_dev_base = max_dev_base.max(d_base);
        println!("| {len} | {actual:.0} | {ours:.0} | {d_ours:.1} | {blind:.0} | {d_base:.1} |");
    }
    println!();
    println!(
        "max_dev: ours {max_dev_ours:.1}% vs w/o-attn {max_dev_base:.1}% (paper: <5% vs up to 48%)"
    );
    println!();

    println!("## Prefill w/ prefix (512-token chunk, prefix length sweep)");
    println!("| Prefix | Actual (ms) | Ours (ms) | dev% | w/o attn (ms) | dev% |");
    println!("|---|---|---|---|---|---|");
    let mut max_dev_ours2: f64 = 0.0;
    let mut max_dev_base2: f64 = 0.0;
    for prefix in [512u64, 1024, 2048, 4096, 6144, 8192] {
        let w = ChunkWork {
            prefix_tokens: prefix,
            new_tokens: 512,
        };
        let actual = gt.expected_us(&[w], 1.0) / 1e3;
        let ours = fitted.chunk_cost_us(w) / 1e3;
        let blind = baseline.batch_cost_us(&[w]) / 1e3;
        let d_ours = ((ours - actual) / actual * 100.0).abs();
        let d_base = ((blind - actual) / actual * 100.0).abs();
        max_dev_ours2 = max_dev_ours2.max(d_ours);
        max_dev_base2 = max_dev_base2.max(d_base);
        println!("| {prefix} | {actual:.0} | {ours:.0} | {d_ours:.1} | {blind:.0} | {d_base:.1} |");
    }
    println!();
    println!(
        "max_dev: ours {max_dev_ours2:.1}% vs w/o-attn {max_dev_base2:.1}% (paper: <5% vs up to 74%)"
    );

    Json::obj([
        ("figure", Json::str("fig15_cost_model")),
        (
            "max_dev_ours_pct",
            Json::Num(max_dev_ours.max(max_dev_ours2)),
        ),
        (
            "max_dev_token_count_pct",
            Json::Num(max_dev_base.max(max_dev_base2)),
        ),
    ])
}
