//! The KunServe policy's settable space, covered exhaustively: every
//! combination of the six switches a figure flips runs to the end with
//! every request settled, and the HBM ledger holds at every monitor tick.

use bench::MultiScenario;
use cluster::{ModelId, ReqState};
use kunserve_repro::prelude::*;
use workload::Deadline;

/// All 64 combinations of the six switches, each over the default
/// settings.
fn every_switch_combination() -> impl Iterator<Item = KunServeConfig> {
    (0u32..64).map(|bits| {
        let on = |switch: u32| bits & (1 << switch) != 0;
        KunServeConfig {
            coordinated_exchange: on(0),
            lookahead: on(1),
            restore: on(2),
            cross_model_donation: on(3),
            layer_granular_donation: on(4),
            deadline_shedding: on(5),
            ..KunServeConfig::default()
        }
    })
}

/// The gated donation scenario (a lender model with spare replicas, a
/// borrower on one instance under a hard burst), with a 5 s TTFT
/// deadline on every borrower request so that shedding has work to do.
#[test]
fn every_switch_combination_settles_every_request_and_keeps_the_ledger() {
    let sc = MultiScenario::fig18_donation_smoke();
    let mut trace = sc.trace();
    for r in &mut trace.requests {
        if r.model == ModelId(1) {
            r.deadline = Some(Deadline::ttft(SimDuration::from_secs(5)));
        }
    }
    let tick = sc.cfg.monitor_interval.as_micros();
    let (mut reconfigured, mut shed) = (0, 0);
    for cfg in every_switch_combination() {
        // The engine audits the ledger at each tick only in debug builds;
        // this observer audits it at each new tick instant in any build.
        let mut violations = Vec::new();
        let mut audited = None;
        let out = Run::new(SystemKind::KunServeWith(cfg), sc.cfg.clone(), &trace)
            .drain(sc.drain)
            .execute_observed(|state, now| {
                if now.as_micros() % tick == 0 && audited != Some(now) {
                    audited = Some(now);
                    violations.extend(state.ledger().check_invariants(&now.to_string()));
                }
            });
        assert!(violations.is_empty(), "{cfg:?}\n{}", violations.join("\n"));
        let report = &out.report;
        assert_eq!(
            report.finished_requests + report.shed_requests as usize,
            trace.len(),
            "{cfg:?}: a request neither finished nor was shed"
        );
        assert!(
            out.state
                .requests
                .iter()
                .all(|r| matches!(r.state, ReqState::Finished | ReqState::Dropped)),
            "{cfg:?}: a request did not settle"
        );
        reconfigured += usize::from(!out.state.metrics.reconfig_events.is_empty());
        shed += usize::from(report.shed_requests > 0);
    }
    // Both the drop path and the shedding path must have run somewhere.
    assert!(reconfigured > 0, "no combination reconfigured");
    assert!(shed > 0, "no combination shed a request");
}
