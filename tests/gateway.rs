//! Gateway integration tests: the production request API over the
//! deterministic core.
//!
//! Two contracts are pinned here:
//! - **Session lifecycle**: submit → incremental stream (two requests
//!   polled side by side) → cancel → quota-exhausted rejection, end to
//!   end through a real serving session.
//! - **Bridge determinism**: the gateway is a pure bridge. Replaying the
//!   same arrival sequence through `Gateway::submit` + `pump_until` must
//!   produce a report byte-identical to handing the materialized trace to
//!   the batch [`Run`] builder, for every system of the paper's lineup.
//!   The elastic hot-swap (`unload_model`/`load_model`) runs with the
//!   memory ledger audited at every pump boundary.

use cluster::{ModelAvailability, ModelId};
use gateway::{Gateway, GatewayError, Quota, RequestStatus, SubmitSpec, Virtual};
use kunserve::serving::Run;
use kunserve_repro::prelude::*;
use sim_core::SimTime;
use workload::OpenLoopSource;

#[test]
fn session_lifecycle_submit_stream_cancel_quota() {
    let mut gw = Gateway::new(SystemKind::KunServe, ClusterConfig::tiny_test(2), Virtual);
    gw.register_tenant("acme", "k-acme", Quota::UNLIMITED);
    gw.register_tenant("capped", "k-capped", Quota::requests(1));

    // Submit: two live requests plus one that will be cancelled in the
    // inbox before it ever reaches the engine.
    let streamed = gw
        .submit(
            "k-acme",
            SubmitSpec::new(ModelId::PRIMARY, SimTime::from_millis(73), 128, 24),
        )
        .unwrap();
    let polled = gw
        .submit(
            "k-acme",
            SubmitSpec::new(ModelId::PRIMARY, SimTime::from_millis(211), 96, 16),
        )
        .unwrap();
    let doomed = gw
        .submit(
            "k-acme",
            SubmitSpec::new(ModelId::PRIMARY, SimTime::from_secs(9), 64, 8),
        )
        .unwrap();

    // Quota: the capped tenant gets exactly one submission.
    gw.submit(
        "k-capped",
        SubmitSpec::new(ModelId::PRIMARY, SimTime::from_millis(307), 32, 8),
    )
    .unwrap();
    assert_eq!(
        gw.submit(
            "k-capped",
            SubmitSpec::new(ModelId::PRIMARY, SimTime::from_millis(407), 32, 8),
        ),
        Err(GatewayError::QuotaExhausted(gateway::TenantId(1))),
        "the second submission must exceed the one-request quota"
    );

    gw.cancel(doomed).unwrap();
    assert_eq!(gw.status(doomed).unwrap(), RequestStatus::Cancelled);

    // Stream: polling each live request after every pump, its token count
    // advances monotonically to its full output.
    let mut totals = [0u64; 2];
    let mut last = [0u64; 2];
    let mut t = SimTime::ZERO;
    while t < SimTime::from_secs(30) {
        t += SimDuration::from_secs(1);
        gw.pump_until(t);
        for (i, h) in [streamed, polled].into_iter().enumerate() {
            let ev = gw.poll(h).unwrap();
            totals[i] += ev.new_tokens;
            assert!(ev.generated >= last[i], "token count must be monotone");
            last[i] = ev.generated;
        }
    }
    assert_eq!(totals, [24, 16], "poll must stream each full output");
    assert_eq!(gw.status(streamed).unwrap(), RequestStatus::Finished);

    let (report, state) = gw.finish(SimDuration::from_secs(60));
    // Three live requests finished; the cancelled one never entered the
    // engine at all.
    assert_eq!(report.finished_requests, 3);
    assert_eq!(report.total_requests, 3);
    assert!(state.ledger().check_invariants("final").is_empty());
}

/// Replays `trace` through a gateway and returns the report plus the
/// reconfig timeline, serialized.
fn gateway_replay(kind: SystemKind, cfg: &ClusterConfig, trace: &Trace) -> String {
    let drain = SimDuration::from_secs(600);
    let mut gw = Gateway::new(kind, cfg.clone(), Virtual);
    gw.register_tenant("replay", "k", Quota::UNLIMITED);
    for spec in &trace.requests {
        gw.submit(
            "k",
            SubmitSpec::new(
                spec.model,
                spec.arrival,
                spec.input_tokens,
                spec.output_tokens,
            ),
        )
        .unwrap();
    }
    gw.pump_until(SimTime::ZERO + trace.duration());
    let (report, state) = gw.finish(drain);
    format!("{:?}|{:?}", report, state.metrics.reconfig_events)
}

/// The same trace through the batch `Run` builder, serialized alike.
fn batch_run(kind: SystemKind, cfg: &ClusterConfig, trace: &Trace) -> (String, RunOutcome) {
    let out = Run::new(kind, cfg.clone(), trace)
        .drain(SimDuration::from_secs(600))
        .execute();
    let bytes = format!("{:?}|{:?}", out.report, out.state.metrics.reconfig_events);
    (bytes, out)
}

/// The bridge-determinism contract: gateway submissions and the batch
/// `Run` builder are two front doors to the same deterministic world.
#[test]
fn gateway_replay_is_byte_identical_to_batch_run() {
    // Poisson open-loop streams: arrivals are continuous, so none land
    // exactly on the 100 ms monitor grid.
    let cfg = ClusterConfig::tiny_test(2);
    for seed in [0xB1D6E, 3, 17] {
        let trace =
            OpenLoopSource::new(Dataset::BurstGpt, 18.0, seed).to_trace(SimDuration::from_secs(20));
        assert!(!trace.is_empty());
        for kind in SystemKind::paper_lineup() {
            assert_eq!(
                gateway_replay(kind, &cfg, &trace),
                batch_run(kind, &cfg, &trace).0,
                "{} (seed {seed}): gateway submissions must replay the batch run byte-for-byte",
                kind.name()
            );
        }
    }

    // A memory-overloading burst, where KunServe drops parameters: the
    // bridge must also carry the reconfiguration timeline exactly.
    let trace = BurstTraceBuilder::new(Dataset::BurstGpt)
        .base_rps(60.0)
        .duration(SimDuration::from_secs(25))
        .burst(SimTime::from_secs(6), SimDuration::from_secs(12), 3.0)
        .seed(9)
        .build();
    let mut cfg = ClusterConfig::tiny_test(4);
    cfg.reserve_frac = 0.45;
    for kind in SystemKind::paper_lineup() {
        let (batch, out) = batch_run(kind, &cfg, &trace);
        if kind == SystemKind::KunServe {
            let drops = out
                .state
                .metrics
                .reconfig_events
                .iter()
                .filter(|(_, w)| w.starts_with("drop"))
                .count();
            assert!(drops > 0, "the burst must make KunServe drop");
        }
        assert_eq!(
            gateway_replay(kind, &cfg, &trace),
            batch,
            "{} (burst): gateway submissions must replay the batch run byte-for-byte",
            kind.name()
        );
    }
}

/// The elastic hot-swap through the gateway: unload drains and parks the
/// chat model (its parameter bytes become lendable in the ledger), load
/// restores it, with the ledger invariants holding at every pump boundary
/// and every loan settled at the end.
#[test]
fn hot_swap_is_ledger_audited() {
    let cfg = ClusterConfig::tiny_two_model(3, 2);
    let chat = ModelId(1);
    let mut gw = Gateway::new(SystemKind::KunServe, cfg, Virtual);
    gw.register_tenant("ops", "k", Quota::UNLIMITED);
    // Light primary traffic across the whole window; chat traffic only
    // ahead of the unload, so no accepted submission targets the parked
    // model. Both streams are off the monitor grid.
    let primary =
        OpenLoopSource::new(Dataset::BurstGpt, 6.0, 7).to_trace(SimDuration::from_secs(30));
    let chat_burst = OpenLoopSource::new(Dataset::BurstGpt, 4.0, 11)
        .model(chat)
        .to_trace(SimDuration::from_secs(5));
    for spec in primary.requests.iter().chain(&chat_burst.requests) {
        gw.submit(
            "k",
            SubmitSpec::new(
                spec.model,
                spec.arrival,
                spec.input_tokens,
                spec.output_tokens,
            ),
        )
        .unwrap();
    }
    let mut swapped_out = false;
    let mut swapped_in = false;
    let mut t = SimTime::ZERO;
    while t < SimTime::from_secs(40) {
        t += SimDuration::from_millis(500);
        gw.pump_until(t);
        let audit = gw.state().ledger().check_invariants(&t.to_string());
        assert!(audit.is_empty(), "{}", audit.join("\n"));
        if !swapped_out && t >= SimTime::from_secs(8) {
            gw.unload_model(chat).unwrap();
            swapped_out = true;
        }
        if swapped_out
            && !swapped_in
            && t >= SimTime::from_secs(20)
            && gw.model_availability(chat) == ModelAvailability::Unloaded
        {
            gw.load_model(chat).unwrap();
            swapped_in = true;
        }
    }
    assert!(swapped_out && swapped_in, "swap must complete");
    assert_eq!(gw.model_availability(chat), ModelAvailability::Available);
    let (_, state) = gw.finish(SimDuration::from_secs(300));
    assert!(state.ledger().check_invariants("final").is_empty());
    assert_eq!(state.donated_bytes_outstanding(), 0, "ledger not settled");
    let unloaded = state
        .metrics
        .reconfig_events
        .iter()
        .any(|(_, w)| w.starts_with("unload:"));
    let loaded = state
        .metrics
        .reconfig_events
        .iter()
        .any(|(_, w)| w.starts_with("load:"));
    assert!(unloaded && loaded, "the swap must be in the reconfig log");
}
