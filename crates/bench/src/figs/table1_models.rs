//! Regenerates paper Table 1: model parameter memory vs instance HBM.
//!
//! Run: `cargo run --release -p bench --bin figs -- table1_models`

use modelcfg::{catalog, GB};

use super::Opts;
use crate::Json;

pub fn run(_: &Opts) -> Json {
    println!("# Table 1: parameter memory share of instance HBM");
    println!();
    println!("| Model | Model size | #GPU/instance | Ratio (%) |");
    println!("|---|---|---|---|");
    let mut rows = Vec::new();
    for m in catalog::table1_models() {
        println!(
            "| {} | {} GB | {} ({} GB) | {:.1} |",
            m.name,
            m.param_bytes() / GB,
            m.gpus_per_instance(),
            m.instance_hbm_bytes() / GB,
            m.param_hbm_ratio(),
        );
        rows.push(Json::obj([
            ("model", Json::str(m.name)),
            ("param_gb", Json::Num((m.param_bytes() / GB) as f64)),
            ("gpus_per_instance", Json::Num(m.gpus_per_instance() as f64)),
            ("param_hbm_ratio_pct", Json::Num(m.param_hbm_ratio())),
        ]));
    }
    println!();
    println!(
        "KV bytes/token (Qwen-2.5-14B): {} KB (paper: 192 KB)",
        catalog::qwen2_5_14b().kv_bytes_per_token() / 1024
    );

    Json::obj([
        ("figure", Json::str("table1_models")),
        ("models", Json::Arr(rows)),
    ])
}
