//! Cross-crate integration tests: full simulations driving every layer
//! (workload → dispatcher → engine → policies → GPU/KV/network substrates).

use kunserve::serving::Run;
use kunserve_repro::prelude::*;
use workload::extreme_burst;

/// A provisioning like the paper's testbed: KV pool ≈ 2x average demand so
/// bursts overload memory rather than compute.
fn paper_like_tiny(instances: u32) -> ClusterConfig {
    let mut cfg = ClusterConfig::tiny_test(instances);
    cfg.reserve_frac = 0.45;
    cfg
}

fn bursty_trace(base_rps: f64, mult: f64, seed: u64) -> Trace {
    BurstTraceBuilder::new(Dataset::BurstGpt)
        .base_rps(base_rps)
        .duration(SimDuration::from_secs(45))
        .burst(SimTime::from_secs(18), SimDuration::from_secs(10), mult)
        .seed(seed)
        .build()
}

/// Checks that every live group's block table holds exactly its admitted
/// (running or stalled) requests, that their token counts add up to the
/// pool's, and that each request's table covers its KV: all of it while
/// prefilling, all but the newest token (not yet fed back) once decoding.
fn assert_tables_match_admitted(state: &cluster::ClusterState, now: SimTime) {
    for g in state.alive_group_ids() {
        let group = state.group(g);
        let mut admitted: Vec<kvcache::SeqKey> = group
            .admitted()
            .map(|r| kvcache::SeqKey(r.0 as u64))
            .collect();
        admitted.sort_unstable();
        let seqs = group.blocks.seqs();
        assert_eq!(seqs, admitted, "{g:?} at {now}: table != running + stalled");
        let tokens: u64 = seqs
            .iter()
            .map(|&s| group.blocks.tokens_of(s).expect("listed by seqs"))
            .sum();
        assert_eq!(
            tokens,
            group.blocks.used_tokens(),
            "{g:?} at {now}: token sum"
        );
        for r in group.admitted() {
            let req = &state.requests[r.0];
            let held = group.blocks.tokens_of(kvcache::SeqKey(r.0 as u64));
            let held = held.expect("admitted");
            assert!(
                held + u64::from(req.in_decode()) >= req.kv_tokens(),
                "{r:?} at {now}: table {held} < KV {}",
                req.kv_tokens()
            );
        }
    }
}

#[test]
fn all_systems_conserve_requests() {
    // No request is ever lost or double-finished, whatever the policy does
    // to its KVCache (preempt, swap, migrate, exchange), and after every
    // event each group's block table holds exactly its admitted requests.
    let trace = bursty_trace(45.0, 2.5, 1);
    for kind in SystemKind::paper_lineup() {
        let out = Run::new(kind, paper_like_tiny(4), &trace)
            .drain(SimDuration::from_secs(600))
            .execute_observed(assert_tables_match_admitted);
        assert_eq!(
            out.report.finished_requests,
            trace.len(),
            "{}: lost requests",
            out.name
        );
        // Token conservation: every finished request emitted exactly its
        // output length.
        let expected: u64 = trace.requests.iter().map(|r| r.output_tokens).sum();
        assert_eq!(
            out.report.total_tokens, expected,
            "{}: token mismatch",
            out.name
        );
    }
}

#[test]
fn burst_overloads_vllm_but_not_kunserve() {
    // The paper's headline behaviour at test scale: same trace, vLLM's
    // median/tail inflate with queuing while KunServe absorbs the burst by
    // dropping parameters.
    let trace = bursty_trace(55.0, 3.0, 7);
    let drain = SimDuration::from_secs(600);
    let vllm = Run::new(SystemKind::VllmDp, paper_like_tiny(4), &trace)
        .drain(drain)
        .execute();
    let kun = Run::new(SystemKind::KunServe, paper_like_tiny(4), &trace)
        .drain(drain)
        .execute();
    assert!(
        vllm.report.ttft.p99 > 10.0 * vllm.report.ttft.p50.clamp(0.02, 0.2),
        "vLLM must exhibit a queuing tail (p50 {:.3}, p99 {:.3})",
        vllm.report.ttft.p50,
        vllm.report.ttft.p99
    );
    assert!(
        kun.report.ttft.p50 < vllm.report.ttft.p50,
        "KunServe median must beat vLLM under overload ({:.3} vs {:.3})",
        kun.report.ttft.p50,
        vllm.report.ttft.p50
    );
    let drops = kun
        .state
        .metrics
        .reconfig_events
        .iter()
        .filter(|(_, w)| w.starts_with("drop"))
        .count();
    assert!(drops >= 1, "KunServe must have dropped parameters");
}

#[test]
fn drop_restore_round_trip_restores_full_copies() {
    let trace = bursty_trace(55.0, 3.0, 9);
    let out = Run::new(SystemKind::KunServe, paper_like_tiny(4), &trace)
        .drain(SimDuration::from_secs(600))
        .execute();
    let events: Vec<&str> = out
        .state
        .metrics
        .reconfig_events
        .iter()
        .map(|(_, w)| w.as_str())
        .collect();
    assert!(
        events.iter().any(|w| w.starts_with("drop")),
        "events: {events:?}"
    );
    assert!(
        events.iter().any(|w| w.starts_with("restore: split")),
        "events: {events:?}"
    );
    for inst in &out.state.instances {
        assert_eq!(inst.dropped_layers(), 0, "{}: layers not restored", inst.id);
        assert_eq!(
            inst.kv_pool_bytes(),
            inst.kv_base_bytes(),
            "{}: KV pool not back to base size",
            inst.id
        );
    }
    // After restore every group is single-instance again.
    for g in out.state.alive_groups() {
        assert_eq!(out.state.group(g).stages(), 1);
    }
}

#[test]
fn no_restore_variant_stays_pipelined() {
    let trace = bursty_trace(55.0, 3.0, 9);
    let out = Run::new(
        SystemKind::KunServeWith(KunServeConfig::without_restore()),
        paper_like_tiny(4),
        &trace,
    )
    .drain(SimDuration::from_secs(600))
    .execute();
    let dropped: u32 = out.state.instances.iter().map(|i| i.dropped_layers()).sum();
    assert!(dropped > 0, "without restore the drop must persist");
    assert!(
        !out.state
            .metrics
            .reconfig_events
            .iter()
            .any(|(_, w)| w.starts_with("restore: split")),
        "restore must not fire when disabled"
    );
}

#[test]
fn coordinated_exchange_beats_uncoordinated_tail() {
    // Figure 14's second ablation step, as an invariant: with coordination
    // the post-drop pipeline suffers at most as much as without it.
    let trace = bursty_trace(60.0, 3.0, 21);
    let drain = SimDuration::from_secs(600);
    let coord = Run::new(
        SystemKind::KunServeWith(KunServeConfig::drop_and_coordinated()),
        paper_like_tiny(4),
        &trace,
    )
    .drain(drain)
    .execute();
    let uncoord = Run::new(
        SystemKind::KunServeWith(KunServeConfig::drop_only()),
        paper_like_tiny(4),
        &trace,
    )
    .drain(drain)
    .execute();
    assert!(
        coord.report.tpot.p99 <= uncoord.report.tpot.p99 * 1.10,
        "coordination must not worsen decode tail: {:.4} vs {:.4}",
        coord.report.tpot.p99,
        uncoord.report.tpot.p99
    );
}

#[test]
fn extreme_burst_kunserve_survives_longer() {
    // Figure 17's shape: under a repeatedly replayed burst, KunServe's
    // available KV capacity grows via drops and its queue explodes later
    // than vLLM's (measured by median TTFT of requests arriving during the
    // replay phase).
    let base = bursty_trace(50.0, 3.5, 17);
    let trace = extreme_burst(&base, SimTime::from_secs(18), SimTime::from_secs(28), 3);
    let drain = SimDuration::from_secs(900);
    let vllm = Run::new(SystemKind::VllmDp, paper_like_tiny(4), &trace)
        .drain(drain)
        .execute();
    let kun = Run::new(SystemKind::KunServe, paper_like_tiny(4), &trace)
        .drain(drain)
        .execute();
    let drops = kun
        .state
        .metrics
        .reconfig_events
        .iter()
        .filter(|(_, w)| w.starts_with("drop"))
        .count();
    assert!(drops >= 1, "extreme burst must force drops");
    assert!(
        kun.report.ttft.p50 <= vllm.report.ttft.p50,
        "KunServe must stand the replayed burst at least as long ({:.2} vs {:.2})",
        kun.report.ttft.p50,
        vllm.report.ttft.p50
    );
}

#[test]
fn runs_are_deterministic() {
    let trace = bursty_trace(50.0, 2.5, 3);
    let run = |kind| {
        let out = Run::new(kind, paper_like_tiny(4), &trace)
            .drain(SimDuration::from_secs(600))
            .execute();
        (
            out.report.finished_requests,
            out.report.ttft_samples.clone(),
            out.report.total_tokens,
            out.state.metrics.reconfig_events.len(),
        )
    };
    assert_eq!(run(SystemKind::KunServe), run(SystemKind::KunServe));
    assert_eq!(run(SystemKind::InferCept), run(SystemKind::InferCept));
}

#[test]
fn memory_accounting_stays_within_capacity() {
    // At no sampled instant does allocated KV exceed advertised capacity,
    // across reconfigurations (merge growth, restore shrink).
    let trace = bursty_trace(55.0, 3.0, 5);
    let out = Run::new(SystemKind::KunServe, paper_like_tiny(4), &trace)
        .drain(SimDuration::from_secs(600))
        .execute();
    let used = out.state.metrics.mem_used.points();
    let caps = out.state.metrics.mem_capacity.points();
    for (&(t, u), &(t2, c)) in used.iter().zip(caps) {
        assert_eq!(t, t2);
        assert!(
            u <= c * 1.0001,
            "used {u:.2e} exceeds capacity {c:.2e} at {t}"
        );
    }
}
