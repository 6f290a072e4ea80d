//! Agreement with vLLM (DP): InferCept, Llumnix and KunServe differ from
//! vLLM (DP) only through their overload handling (swaps, migrations,
//! drops and restores). On a trace where that handling never acts, each
//! must admit, schedule and finish every request exactly as vLLM (DP)
//! does, down to the byte of its report.

use kunserve_repro::prelude::*;

/// The fixed trace set: 20 s BurstGPT traces with a 3× burst from 6 s to
/// 14 s, at base rates of 10, 20, 30 and 40 rps and seeds 0 to 9, on a
/// tightly provisioned 4-instance cluster. The light traces leave every
/// mechanism idle and the heavy ones overload memory, so each system
/// both acts and stays quiet somewhere in the set.
fn traces() -> impl Iterator<Item = (f64, u64, Trace)> {
    [10.0, 20.0, 30.0, 40.0].into_iter().flat_map(|rps| {
        (0..10).map(move |seed| {
            let trace = BurstTraceBuilder::new(Dataset::BurstGpt)
                .base_rps(rps)
                .duration(SimDuration::from_secs(20))
                .burst(SimTime::from_secs(6), SimDuration::from_secs(8), 3.0)
                .seed(seed)
                .build();
            (rps, seed, trace)
        })
    })
}

/// Whether a run took an action of its own: a reconfiguration, a
/// preemption or any bytes on the network. Migrations and swaps record
/// no reconfig event, but both move bytes.
fn acted(out: &RunOutcome) -> bool {
    !out.state.metrics.reconfig_events.is_empty()
        || out.report.preemptions > 0
        || out.state.network.carried_bytes() > 0
}

#[test]
fn a_system_that_never_acts_agrees_with_vllm_dp() {
    let mut cfg = ClusterConfig::tiny_test(4);
    cfg.reserve_frac = 0.45;
    let systems = [
        SystemKind::InferCept,
        SystemKind::Llumnix,
        SystemKind::KunServe,
    ];
    let mut quiet = [0usize; 3];
    let mut active = [0usize; 3];
    for (rps, seed, trace) in traces() {
        let reference = Run::new(SystemKind::VllmDp, cfg.clone(), &trace).execute();
        let reference = format!("{:?}", reference.report);
        for (i, &kind) in systems.iter().enumerate() {
            let out = Run::new(kind, cfg.clone(), &trace).execute();
            if acted(&out) {
                active[i] += 1;
                continue;
            }
            quiet[i] += 1;
            assert_eq!(
                format!("{:?}", out.report),
                reference,
                "{} took no action at {rps} rps, seed {seed}, yet its report differs from vLLM (DP)'s",
                out.name
            );
        }
    }
    for (i, kind) in systems.iter().enumerate() {
        assert!(
            active[i] > 0 && quiet[i] > 0,
            "{}: acted on {} traces and stayed quiet on {}; the set must hold both",
            kind.name(),
            active[i],
            quiet[i]
        );
    }
}
