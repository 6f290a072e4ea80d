//! Multi-model co-serving tests: the HBM-accounting property, arbitration
//! competition, and the end-to-end claim that KunServe's arbitrated drop
//! plan beats model-aware vLLM under a two-model overload.

use cluster::{ClusterState, ModelId};
use kunserve::plan::Arbitration;
use kunserve::serving::{Run, SystemKind};
use kunserve_repro::prelude::*;
use modelcfg::LayerSet;
use proptest::prelude::*;
use sim_core::SimTime;
use workload::Trace;

/// Builds the merged two-model trace of one overload episode.
fn two_model_trace(rps_a: f64, rps_b: f64, mult: f64, seed: u64) -> Trace {
    let mk = |rps: f64, model: u32, seed: u64| {
        BurstTraceBuilder::new(Dataset::BurstGpt)
            .base_rps(rps)
            .duration(SimDuration::from_secs(20))
            .burst(SimTime::from_secs(5), SimDuration::from_secs(10), mult)
            .seed(seed)
            .model(ModelId(model))
            .build()
    };
    Trace::merge(&[mk(rps_a, 0, seed), mk(rps_b, 1, seed ^ 0x9E37)])
}

/// Checks every step-level invariant of multi-model HBM accounting; any
/// violations are returned as messages (empty = all invariants held).
fn check_invariants(state: &ClusterState, now: SimTime, violations: &mut Vec<String>) {
    // (1)+(2) Per instance and cluster-wide HBM accounting (params + KV +
    // donations + reserve ≤ HBM) — the shared `MemoryLedger` invariants,
    // which the engine also `debug_assert!`s at monitor ticks.
    violations.extend(state.ledger().check_invariants(&now.to_string()));
    // (3) Every live group jointly holds a complete copy of its model, so
    // it never serves with missing (dropped, unrestored) parameters; a
    // standalone instance must hold the full copy itself.
    for g in state.alive_groups() {
        let group = state.group(g);
        let model = state.cfg.model_cfg(group.model);
        let mut covered = LayerSet::empty();
        for &m in &group.members {
            covered = covered.union(state.instances[m.0 as usize].resident_layers());
        }
        if covered.len() != model.num_layers {
            violations.push(format!(
                "{now}: group {gid} covers {got}/{want} layers of {name}",
                gid = g.0,
                got = covered.len(),
                want = model.num_layers,
                name = model.name,
            ));
        }
        if group.members.len() == 1 {
            let inst = &state.instances[group.members[0].0 as usize];
            if inst.dropped_layers() != 0 {
                violations.push(format!(
                    "{now}: standalone {id} serves with {n} dropped layers",
                    id = inst.id,
                    n = inst.dropped_layers(),
                ));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// At every simulated step of a random two-model overload, resident
    /// parameter bytes + KV bytes across all co-served models stay within
    /// HBM capacity, and dropped parameters are restored before an
    /// instance serves standalone again.
    #[test]
    fn hbm_accounting_holds_at_every_step(
        seed in 0u64..500,
        rps_a in 35u64..65,
        rps_b in 20u64..40,
        mult_x10 in 20u64..40,
    ) {
        let trace = two_model_trace(rps_a as f64, rps_b as f64, mult_x10 as f64 / 10.0, seed);
        let mut cfg = cluster::ClusterConfig::tiny_two_model(4, 4);
        cfg.reserve_frac = 0.45;
        let mut violations = Vec::new();
        let out = Run::new(SystemKind::KunServe, cfg, &trace)
            .drain(SimDuration::from_secs(900))
            .execute_observed(|state, now| {
                check_invariants(state, now, &mut violations);
            });
        prop_assert!(violations.is_empty(), "{}", violations.join("\n"));
        prop_assert_eq!(out.report.finished_requests, trace.len(), "requests lost");
    }
}

#[test]
fn kunserve_beats_model_aware_vllm_on_two_model_overload() {
    // The acceptance scenario: both models burst simultaneously on one
    // cluster. KunServe must beat model-aware vLLM on p99 TTFT for at
    // least one model while the HBM-accounting invariants hold throughout.
    let trace = two_model_trace(55.0, 30.0, 3.0, 11);
    let mut cfg = cluster::ClusterConfig::tiny_two_model(4, 4);
    cfg.reserve_frac = 0.45;
    let drain = SimDuration::from_secs(900);

    let vllm = Run::new(SystemKind::VllmDp, cfg.clone(), &trace)
        .drain(drain)
        .execute();

    let mut violations = Vec::new();
    let kun_out = Run::new(SystemKind::KunServe, cfg, &trace)
        .drain(drain)
        .execute_observed(|state, now| {
            check_invariants(state, now, &mut violations);
        });
    let kun = kun_out.report;
    assert!(violations.is_empty(), "{}", violations.join("\n"));

    assert_eq!(kun.finished_requests, trace.len(), "KunServe lost requests");
    assert_eq!(kun.per_model.len(), 2);
    assert_eq!(vllm.report.per_model.len(), 2);
    let kun_beats = kun.per_model.iter().any(|km| {
        let vm = vllm
            .report
            .model_report(km.model)
            .expect("vLLM served the same models");
        km.ttft.p99 < vm.ttft.p99
    });
    let pairs: Vec<String> = kun
        .per_model
        .iter()
        .map(|km| {
            let vm = vllm.report.model_report(km.model).expect("same models");
            format!(
                "{}: kun {:.2}s vs vllm {:.2}s",
                km.model, km.ttft.p99, vm.ttft.p99
            )
        })
        .collect();
    assert!(
        kun_beats,
        "KunServe must beat vLLM p99 TTFT on at least one model: {pairs:?}"
    );
}

#[test]
fn slo_weighted_arbitration_favors_the_critical_model_under_scarcity() {
    // Both models overload, but the reclaim allowance covers only one
    // model's requirement per round. With the chat model (m1) weighted
    // far above the primary, the first arbitrated drop must go to m1.
    let trace = two_model_trace(55.0, 35.0, 3.0, 23);
    let mut cfg = cluster::ClusterConfig::tiny_two_model(4, 4);
    cfg.reserve_frac = 0.45;
    // One tiny-chat parameter copy (500 MB-ish) per round, nothing more.
    let copy_bytes = {
        let m = cfg.model_cfg(ModelId(1));
        m.layer_param_bytes() * m.num_layers as u64
    };
    cfg.extra_models[0].slo_weight = 100.0;
    let policy_cfg = KunServeConfig {
        reclaim_allowance_bytes: Some(copy_bytes),
        arbitration: Arbitration::SloWeighted,
        ..KunServeConfig::default()
    };
    let out = Run::new(SystemKind::KunServeWith(policy_cfg), cfg, &trace)
        .drain(SimDuration::from_secs(900))
        .execute();
    let first_drop = out
        .state
        .metrics
        .reconfig_events
        .iter()
        .find(|(_, w)| w.starts_with("drop"))
        .map(|(_, w)| w.clone())
        .expect("the double burst must trigger a drop");
    assert!(
        first_drop.contains("(m1)"),
        "first drop must serve the SLO-critical model: {first_drop}"
    );
}

#[test]
fn proportional_arbitration_eventually_serves_both_models() {
    // Under a per-round allowance with equal weights, both overloaded
    // models get drops across rounds.
    let trace = two_model_trace(60.0, 35.0, 3.0, 29);
    let mut cfg = cluster::ClusterConfig::tiny_two_model(4, 4);
    cfg.reserve_frac = 0.45;
    let copy_bytes = {
        let m = cfg.model_cfg(ModelId(1));
        m.layer_param_bytes() * m.num_layers as u64
    };
    let policy_cfg = KunServeConfig {
        reclaim_allowance_bytes: Some(copy_bytes),
        arbitration: Arbitration::Proportional,
        ..KunServeConfig::default()
    };
    let out = Run::new(SystemKind::KunServeWith(policy_cfg), cfg, &trace)
        .drain(SimDuration::from_secs(900))
        .execute();
    let drops: Vec<&str> = out
        .state
        .metrics
        .reconfig_events
        .iter()
        .filter(|(_, w)| w.starts_with("drop"))
        .map(|(_, w)| w.as_str())
        .collect();
    assert!(
        drops.iter().any(|w| w.contains("(m0)")) && drops.iter().any(|w| w.contains("(m1)")),
        "both models must get drops across rounds: {drops:?}"
    );
    assert_eq!(out.report.finished_requests, trace.len());
}
