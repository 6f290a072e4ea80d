//! Regenerates paper Table 2: the simulated testbed clusters.
//!
//! Run: `cargo run --release -p bench --bin figs -- table2_testbed`

use cluster::Testbed;

use super::Opts;
use crate::Json;

pub fn run(_: &Opts) -> Json {
    println!("# Table 2: testbeds (simulated equivalents)");
    println!();
    println!("| | Cluster A | Cluster B |");
    println!("|---|---|---|");
    let a = Testbed::ClusterA;
    let b = Testbed::ClusterB;
    println!("| GPU | A800 80 GB (8x1) | H800 80 GB (2x8) |");
    println!(
        "| GPU-GPU (scaleup) | N/A | {} GB/s NVLink |",
        (netsim::LinkSpec::nvlink_300gbps().bytes_per_sec / 1e9) as u64
    );
    println!(
        "| GPU-GPU (scaleout) | {} Gbps RDMA | {} Gbps RDMA |",
        (a.fabric().bytes_per_sec * 8.0 / 1e9) as u64,
        (b.fabric().bytes_per_sec * 8.0 / 1e9) as u64
    );
    println!(
        "| GPU perf model | {:.0} TFLOPS, {:.0} GB/s HBM | {:.0} TFLOPS, {:.0} GB/s HBM |",
        a.gpu().tflops,
        a.gpu().mem_bw_gbps,
        b.gpu().tflops,
        b.gpu().mem_bw_gbps
    );
    println!("| Total GPUs | {} | {} |", a.total_gpus(), b.total_gpus());

    let cluster_json = |t: Testbed| {
        Json::obj([
            ("name", Json::str(t.name())),
            ("total_gpus", Json::Num(t.total_gpus() as f64)),
            (
                "fabric_gbps",
                Json::Num(t.fabric().bytes_per_sec * 8.0 / 1e9),
            ),
            ("gpu_tflops", Json::Num(t.gpu().tflops)),
        ])
    };
    Json::obj([
        ("figure", Json::str("table2_testbed")),
        (
            "clusters",
            Json::Arr(vec![cluster_json(a), cluster_json(b)]),
        ),
    ])
}
