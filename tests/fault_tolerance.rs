//! Fault-tolerance tests (§4.4): an instance failure inside a pipeline
//! group must not lose requests — survivors restore full parameter copies
//! and all affected requests recompute and finish. Rack-scoped correlated
//! failures (the fig22 failure-storm regime) are held to the same
//! contract, including mid-donation: force-reclaimed loans must leave the
//! elastic-HBM ledger balanced.

use bench::MultiScenario;
use cluster::{ClusterConfig, ClusterState, FailureSchedule, GroupId, InstanceId};
use kunserve::serving::Run;
use kunserve_repro::prelude::*;

/// Whether an instance failure was recorded in the reconfig timeline.
fn failure_recorded(state: &ClusterState) -> bool {
    state
        .metrics
        .reconfig_events
        .iter()
        .any(|(_, w)| w.starts_with("failure"))
}

#[test]
fn instance_failure_mid_burst_loses_no_requests() {
    // Heavy burst forces drops (pipeline groups form), then instance 1
    // fails at t=25s — likely mid-pipeline. Everything must still finish.
    let trace = BurstTraceBuilder::new(Dataset::BurstGpt)
        .base_rps(55.0)
        .duration(SimDuration::from_secs(45))
        .burst(SimTime::from_secs(15), SimDuration::from_secs(12), 3.0)
        .seed(77)
        .build();
    let mut cfg = ClusterConfig::tiny_test(4);
    cfg.reserve_frac = 0.45;
    let schedule = FailureSchedule::new().instance_down(SimTime::from_secs(25), 1);
    let out = Run::new(SystemKind::KunServe, cfg, &trace)
        .drain(SimDuration::from_secs(900))
        .failures(&schedule)
        .execute();

    assert_eq!(
        out.report.finished_requests,
        trace.len(),
        "no request may be lost to the failure"
    );
    let state = out.state;
    assert!(
        failure_recorded(&state),
        "the fault must have been injected and recorded"
    );
    // Survivors hold full parameter copies and run as 1-instance groups.
    for g in state.alive_groups() {
        let grp = state.group(g);
        for &m in &grp.members {
            assert_ne!(m, InstanceId(1), "the failed instance must leave service");
            assert_eq!(state.instances[m.0 as usize].dropped_layers(), 0);
        }
    }
}

#[test]
fn failure_without_prior_drop_also_recovers() {
    // Failure of a plain data-parallel instance: its queue and running
    // requests re-enter other groups and finish.
    let trace = BurstTraceBuilder::new(Dataset::BurstGpt)
        .base_rps(30.0)
        .duration(SimDuration::from_secs(30))
        .seed(13)
        .build();
    let schedule = FailureSchedule::new().instance_down(SimTime::from_secs(10), 0);
    let out = Run::new(SystemKind::KunServe, ClusterConfig::tiny_test(3), &trace)
        .drain(SimDuration::from_secs(600))
        .failures(&schedule)
        .execute();
    assert!(
        failure_recorded(&out.state),
        "the fault must have been injected"
    );
    assert_eq!(out.report.finished_requests, trace.len());
    let state = out.state;
    // Two survivors keep serving.
    let live: Vec<GroupId> = state.alive_groups();
    assert_eq!(live.len(), 2, "two survivor groups expected");
}

/// A rack dies while the lender model is actively donating memory to the
/// starved borrower (the fig18 donation regime + the fig22 failure
/// regime at once). The failed rack's loans are force-reclaimed during
/// recovery; the elastic-HBM ledger must hold its invariants at every
/// step, settle to zero outstanding bytes after the drain, and no request
/// may be lost.
#[test]
fn rack_failure_during_active_donation_settles_the_ledger() {
    let sc = MultiScenario::fig18_donation_smoke();
    let mut cfg = sc.cfg.clone();
    // tiny_two_model(4, 1): lender m0 on instances 0-3, borrower m1 on
    // instance 4. Racks of 2 ⇒ {0,1}, {2,3}, {4}; killing rack 1 takes
    // two lender instances mid-donation while both models keep capacity.
    cfg.rack_size = 2;
    let trace = sc.trace();
    let schedule = FailureSchedule::new().rack_down(SimTime::from_secs(15), 1);

    let mut violations = Vec::new();
    let out = Run::new(SystemKind::KunServe, cfg, &trace)
        .drain(sc.drain)
        .failures(&schedule)
        .execute_observed(|state, now| {
            violations.extend(state.ledger().check_invariants(&now.to_string()));
        });
    assert!(violations.is_empty(), "{}", violations.join("\n"));
    assert_eq!(
        out.report.finished_requests,
        trace.len(),
        "no request may be lost to the rack failure"
    );
    assert!(
        out.report.donated_bytes_peak > 0,
        "the borrower's burst must have triggered a donation"
    );

    let state = out.state;
    assert!(
        state
            .metrics
            .reconfig_events
            .iter()
            .any(|(_, w)| w.starts_with("rack-failure")),
        "the rack failure must be recorded"
    );
    // Loan settlement balances: nothing outstanding, no live instance
    // still lending or degraded. (The dead instances keep their final
    // pre-failure layout; only live ones serve.)
    assert_eq!(state.donated_bytes_outstanding(), 0, "ledger not settled");
    for inst in &state.instances {
        if !state.group_alive(inst.group) {
            continue;
        }
        assert_eq!(inst.donated_out_bytes(), 0, "{} still lending", inst.id);
        assert_eq!(inst.dropped_layers(), 0, "{} not restored", inst.id);
    }
    // The failed rack's instances are out of service for good.
    for g in state.alive_groups() {
        for &m in &state.group(g).members {
            assert!(
                m != InstanceId(2) && m != InstanceId(3),
                "failed instance {m} must leave service"
            );
        }
    }
}

/// The recovery path (§4.4): the failed rack *rejoins* mid-drain. The
/// rejoined instances reload their parameter copies as real host-link
/// traffic (they re-enter service frozen and thaw when the reload
/// completes), and the elastic-HBM ledger must hold its invariants
/// through fail → recover → reload — in particular, a rejoined lender
/// must not resurrect loans that were force-settled when it died.
#[test]
fn rack_recovery_reloads_and_keeps_the_ledger_clean() {
    let sc = MultiScenario::fig18_donation_smoke();
    let mut cfg = sc.cfg.clone();
    cfg.rack_size = 2;
    let trace = sc.trace();
    let schedule = FailureSchedule::new()
        .rack_down(SimTime::from_secs(15), 1)
        .rack_up(SimTime::from_secs(25), 1);

    // Invariants audited at every processed event.
    let mut violations = Vec::new();
    let serial = Run::new(SystemKind::KunServe, cfg, &trace)
        .drain(sc.drain)
        .failures(&schedule)
        .execute_observed(|state, now| {
            violations.extend(state.ledger().check_invariants(&now.to_string()));
        });
    assert!(violations.is_empty(), "{}", violations.join("\n"));
    assert_eq!(
        serial.report.finished_requests,
        trace.len(),
        "no request may be lost across the outage + recovery"
    );
    let state = serial.state;
    assert!(
        state
            .metrics
            .reconfig_events
            .iter()
            .any(|(_, w)| w.starts_with("rack-recovery")),
        "the rack recovery must be recorded"
    );
    // The rejoined instances are back in service with thawed groups and
    // full parameter copies; nothing is still lending against them.
    for inst in [InstanceId(2), InstanceId(3)] {
        let g = state.instance_group(inst);
        assert!(state.group_alive(g), "{inst} must be back in service");
        assert!(
            !state.group(g).frozen,
            "{inst} must have finished its parameter reload"
        );
        assert_eq!(
            state.instances[inst.0 as usize].dropped_layers(),
            0,
            "{inst} must hold a full copy after the reload"
        );
    }
    assert_eq!(state.donated_bytes_outstanding(), 0, "ledger not settled");
    assert!(state.ledger().check_invariants("final").is_empty());
}
