//! Paper-scale smoke tests: the real model configurations (Qwen-2.5-14B on
//! 8 simulated A800s, Qwen-2.5-72B TP=4) run correctly end to end. Kept
//! short so `cargo test` stays fast; the full experiments live in the
//! `bench` harness.
//!
//! The tests at the bottom are the **full Cluster A/B fidelity runs**:
//! three fig. 12 scenarios at paper scale, every system in the lineup,
//! and the fig. 18 co-serving pair, with the paper's ordering claims
//! asserted against vLLM (DP); the BurstGPT row also caps both p99s and
//! checks that the bench harness's worker count changes no report. They
//! drop and restore layers on 48-layer 14B instances and 80-layer, TP=4
//! 72B instances. Together they take under half a second in the dev
//! profile on a 2-vCPU host, so they run in the default tier-1 wall.

use bench::{MultiScenario, Scenario};
use kunserve::serving::Run;
use kunserve_repro::prelude::*;

fn short_trace(dataset: Dataset, rps: f64, seed: u64) -> Trace {
    BurstTraceBuilder::new(dataset)
        .base_rps(rps)
        .duration(SimDuration::from_secs(30))
        .burst(SimTime::from_secs(12), SimDuration::from_secs(8), 2.8)
        .seed(seed)
        .build()
}

#[test]
fn qwen14b_cluster_a_serves_burstgpt() {
    let mut cfg = ClusterConfig::qwen14b_cluster_a();
    cfg.reserve_frac = 0.55;
    let trace = short_trace(Dataset::BurstGpt, 24.0, 1);
    let out = Run::new(SystemKind::KunServe, cfg, &trace)
        .drain(SimDuration::from_secs(300))
        .execute();
    assert_eq!(out.report.finished_requests, trace.len());
    // Unloaded TTFT should be sub-second; decode tens of ms — the
    // calibration targets of the ground-truth model.
    assert!(out.report.ttft.p50 < 1.0, "p50 {:.3}", out.report.ttft.p50);
    assert!(
        out.report.tpot.p50 > 0.005 && out.report.tpot.p50 < 0.2,
        "tpot {:.4}",
        out.report.tpot.p50
    );
}

#[test]
fn qwen72b_tp4_cluster_b_serves_longbench() {
    let mut cfg = ClusterConfig::qwen72b_cluster_b();
    cfg.reserve_frac = 0.35;
    let trace = short_trace(Dataset::LongBench, 1.6, 2);
    let out = Run::new(SystemKind::KunServe, cfg, &trace)
        .drain(SimDuration::from_secs(400))
        .execute();
    assert_eq!(out.report.finished_requests, trace.len());
    // 72B prefills of ~6K tokens take seconds; TTFT must reflect that scale
    // without exploding.
    assert!(out.report.ttft.p50 < 20.0, "p50 {:.2}", out.report.ttft.p50);
}

/// Shared assertions of one full-fidelity scenario run: the whole lineup
/// completes, KunServe actually drops, and the paper's headline ordering
/// (KunServe's TTFT tail beats data-parallel vLLM's) reproduces. Returns
/// the outcomes in lineup order.
fn assert_full_fidelity(sc: &Scenario) -> Vec<RunOutcome> {
    let outcomes = sc.run_lineup_parallel(bench::harness::host_parallelism());
    for out in &outcomes {
        assert_eq!(
            out.report.finished_requests, out.report.total_requests,
            "{}: {} must finish every request",
            sc.name, out.name
        );
    }
    let vllm = &outcomes[0].report; // lineup order: vLLM (DP) first
    let kun = &outcomes[4].report; // KunServe last
    assert!(
        kun.ttft.p99 < vllm.ttft.p99,
        "{}: KunServe p99 {:.2}s must beat vLLM (DP) p99 {:.2}s",
        sc.name,
        kun.ttft.p99,
        vllm.ttft.p99
    );
    assert!(
        kun.ttft.p50 < vllm.ttft.p50,
        "{}: KunServe p50 {:.2}s must beat vLLM (DP) p50 {:.2}s",
        sc.name,
        kun.ttft.p50,
        vllm.ttft.p50
    );
    let drops = outcomes[4]
        .state
        .metrics
        .reconfig_events
        .iter()
        .filter(|(_, w)| w.starts_with("drop"))
        .count();
    assert!(drops > 0, "{}: KunServe must have dropped", sc.name);
    outcomes
}

#[test]
fn full_cluster_a_fidelity_burstgpt_14b() {
    let sc = Scenario::burstgpt_14b();
    let outcomes = assert_full_fidelity(&sc);
    // p99 TTFT caps: vLLM (DP) reads 15.58 s and KunServe 4.50 s.
    for (out, cap) in [(&outcomes[0], 40.0), (&outcomes[4], 12.0)] {
        assert!(
            out.report.ttft.p99 <= cap,
            "{}: p99 {:.2}s is above its {cap}s cap",
            out.name,
            out.report.ttft.p99
        );
    }
    // The harness may change only wall-clock: a serial lineup and one on
    // four workers give byte-identical reports.
    let serial = sc.run_lineup_parallel(1);
    let parallel = sc.run_lineup_parallel(4);
    for (a, b) in serial.iter().zip(&parallel) {
        assert_eq!(
            format!("{:?}", a.report),
            format!("{:?}", b.report),
            "{}: four workers changed the report",
            a.name
        );
    }
}

#[test]
fn full_cluster_a_fidelity_sharegpt_14b() {
    assert_full_fidelity(&Scenario::sharegpt_14b());
}

#[test]
fn full_cluster_b_fidelity_longbench_72b() {
    assert_full_fidelity(&Scenario::longbench_72b());
}

#[test]
fn full_fig18_multi_model_14b_chat_vs_72b_longctx() {
    let sc = MultiScenario::fig18_14b_chat_vs_72b_longctx();
    let vllm = sc.run(SystemKind::VllmDp);
    let kun = sc.run(SystemKind::KunServe);
    assert_eq!(kun.report.finished_requests, kun.report.total_requests);
    assert_eq!(kun.report.per_model.len(), 2);
    // KunServe's arbitrated plan must beat model-aware vLLM on p99 TTFT
    // for at least one co-served model.
    let beats = kun.report.per_model.iter().any(|km| {
        let vm = vllm.report.model_report(km.model).expect("same models");
        km.ttft.p99 < vm.ttft.p99
    });
    assert!(beats, "KunServe must win p99 on at least one model");
    let drops = kun
        .state
        .metrics
        .reconfig_events
        .iter()
        .filter(|(_, w)| w.starts_with("drop"))
        .count();
    assert!(drops > 0, "the collision must trigger arbitrated drops");
}

#[test]
fn vllm_pp_frees_parameter_memory_on_real_model() {
    // The vLLM (PP) baseline halves per-instance parameters: its KV
    // capacity must exceed vLLM (DP)'s by roughly the paper's Table 1
    // parameter share.
    let cfg = ClusterConfig::qwen14b_cluster_a();
    let trace = short_trace(Dataset::BurstGpt, 10.0, 3);
    let dp = Run::new(SystemKind::VllmDp, cfg.clone(), &trace)
        .drain(SimDuration::from_secs(200))
        .execute();
    let pp = Run::new(SystemKind::VllmPp, cfg, &trace)
        .drain(SimDuration::from_secs(200))
        .execute();
    let cap = |o: &RunOutcome| o.state.memory_totals().1 as f64;
    let gain = cap(&pp) / cap(&dp);
    assert!(gain > 1.2, "PP must gain KV capacity (got {gain:.2}x)");
}

/// Runs KunServe on the Cluster A BurstGPT scenario with restores firing
/// once demand falls below `threshold` × the native capacity, and asserts
/// every request finishes and at least one merged group split back.
///
/// Thresholds above 1 restore while the merged group is nearly full, so a
/// split's placement is tight: one planned in tokens but allocated in
/// whole blocks used to overbook a member and panic mid-commit.
fn restores_at_threshold(threshold: f64) {
    let sc = Scenario::burstgpt_14b();
    let policy = KunServeConfig {
        restore_threshold: threshold,
        ..KunServeConfig::default()
    };
    let trace = sc.trace();
    let out = Run::new(SystemKind::KunServeWith(policy), sc.cfg.clone(), &trace)
        .drain(sc.drain)
        .execute();
    assert_eq!(out.report.finished_requests, trace.len());
    let splits = out
        .state
        .metrics
        .reconfig_events
        .iter()
        .filter(|(_, w)| w.starts_with("restore: split"))
        .count();
    assert!(splits > 0, "threshold {threshold}: no group split back");
}

#[test]
fn split_fits_whole_blocks_at_restore_threshold_1_2() {
    restores_at_threshold(1.2);
}

#[test]
fn split_fits_whole_blocks_at_restore_threshold_2_5() {
    restores_at_threshold(2.5);
}
