//! Determinism regression tests.
//!
//! The entire harness — trace generation, execution-time noise, policy
//! decisions, network timing — is keyed off explicit `u64` seeds. Two runs
//! with the same seed must produce *byte-identical* reports: every future
//! perf/scaling PR relies on this to compare systems run-to-run.

use kunserve::serving::Run;
use kunserve_repro::prelude::*;
use sim_core::SimTime;

fn trace_with_seed(seed: u64) -> Trace {
    BurstTraceBuilder::new(Dataset::BurstGpt)
        .base_rps(45.0)
        .duration(SimDuration::from_secs(20))
        .burst(SimTime::from_secs(6), SimDuration::from_secs(8), 2.5)
        .seed(seed)
        .build()
}

/// The full debug serialization of a run: report plus the reconfiguration
/// event log. Byte equality of this string is the determinism contract.
fn run_bytes(kind: SystemKind, seed: u64) -> String {
    let trace = trace_with_seed(seed);
    let out = Run::new(kind, ClusterConfig::tiny_test(2), &trace)
        .drain(SimDuration::from_secs(600))
        .execute();
    format!("{:?}|{:?}", out.report, out.state.metrics.reconfig_events)
}

#[test]
fn same_seed_yields_byte_identical_reports() {
    for kind in SystemKind::paper_lineup() {
        let a = run_bytes(kind, 0xD5EED);
        let b = run_bytes(kind, 0xD5EED);
        assert_eq!(
            a,
            b,
            "{}: same seed must reproduce the run exactly",
            kind.name()
        );
    }
}

/// Multi-model runs are held to the same contract: merged two-model traces
/// on a co-serving cluster must reproduce byte-identically, including the
/// per-model report breakdown and the arbitration-driven reconfig log.
fn multi_model_run_bytes(kind: SystemKind, seed: u64) -> String {
    let mk = |model: u32, rps: f64, seed: u64| {
        BurstTraceBuilder::new(Dataset::BurstGpt)
            .base_rps(rps)
            .duration(SimDuration::from_secs(20))
            .burst(SimTime::from_secs(6), SimDuration::from_secs(8), 2.8)
            .seed(seed)
            .model(cluster::ModelId(model))
            .build()
    };
    let trace = Trace::merge(&[mk(0, 45.0, seed), mk(1, 25.0, seed ^ 0xABCD)]);
    let mut cfg = ClusterConfig::tiny_two_model(2, 2);
    cfg.reserve_frac = 0.45;
    let out = Run::new(kind, cfg, &trace)
        .drain(SimDuration::from_secs(900))
        .execute();
    format!(
        "{:?}|{:?}|{:?}",
        out.report, out.report.per_model, out.state.metrics.reconfig_events
    )
}

#[test]
fn multi_model_same_seed_yields_byte_identical_reports() {
    for kind in [
        SystemKind::VllmDp,
        SystemKind::Llumnix,
        SystemKind::KunServe,
    ] {
        let a = multi_model_run_bytes(kind, 0xBEEF);
        let b = multi_model_run_bytes(kind, 0xBEEF);
        assert_eq!(
            a,
            b,
            "{}: same seed must reproduce the multi-model run exactly",
            kind.name()
        );
    }
    let a = multi_model_run_bytes(SystemKind::KunServe, 3);
    let b = multi_model_run_bytes(SystemKind::KunServe, 4);
    assert_ne!(a, b, "different seeds must differ");
}

#[test]
fn trace_generation_is_seed_deterministic() {
    let a = trace_with_seed(99);
    let b = trace_with_seed(99);
    assert_eq!(a.len(), b.len());
    for (x, y) in a.requests.iter().zip(&b.requests) {
        assert_eq!(x.arrival, y.arrival);
        assert_eq!(x.input_tokens, y.input_tokens);
        assert_eq!(x.output_tokens, y.output_tokens);
    }
}

#[test]
fn different_seeds_actually_differ() {
    // Guards against a silently ignored seed, which would make the
    // byte-identity test above pass vacuously.
    let a = run_bytes(SystemKind::KunServe, 1);
    let b = run_bytes(SystemKind::KunServe, 2);
    assert_ne!(a, b, "different trace seeds must produce different runs");
}

/// Every scenario-matrix generator is held to the trace-level determinism
/// contract: same seed ⇒ byte-identical `Trace` (arrivals, lengths, model
/// tags and shared-prefix annotations all included via `Debug`).
#[test]
fn scenario_generators_are_seed_deterministic() {
    let diurnal = || {
        DiurnalTraceBuilder::new(Dataset::BurstGpt)
            .base_rps(30.0)
            .period(SimDuration::from_secs(30))
            .days(2.0)
            .amplitude(0.7)
            .noise(0.2, 4)
            .seed(0xD1)
            .build()
    };
    let popularity = || {
        PopularityTraceBuilder::new(Dataset::BurstGpt, 6)
            .zipf(1.1)
            .base_rps(25.0)
            .duration(SimDuration::from_secs(25))
            .storms(0.15, 20, SimDuration::from_secs(3))
            .seed(0xB0)
            .build()
    };
    let prefix = || {
        SharedPrefixTraceBuilder::new(Dataset::BurstGpt, 8)
            .base_rps(35.0)
            .duration(SimDuration::from_secs(20))
            .burst(SimTime::from_secs(6), SimDuration::from_secs(7), 2.5)
            .prefix_tokens(200, 800)
            .seed(0x9F)
            .build()
    };
    let pairs: [(&str, Trace, Trace); 3] = [
        ("diurnal", diurnal(), diurnal()),
        ("popularity", popularity(), popularity()),
        ("shared-prefix", prefix(), prefix()),
    ];
    for (name, a, b) in &pairs {
        assert!(!a.is_empty(), "{name}: generator produced no requests");
        assert_eq!(
            format!("{:?}", a.requests),
            format!("{:?}", b.requests),
            "{name}: same seed must reproduce the trace byte-for-byte"
        );
    }
}

/// Full debug serialization of an outcome (report, per-model breakdown
/// and reconfig log).
fn outcome_bytes(out: &RunOutcome) -> String {
    format!(
        "{:?}|{:?}|{:?}",
        out.report, out.report.per_model, out.state.metrics.reconfig_events
    )
}

/// The diurnal scenario: two runs with the same seed are byte-identical.
#[test]
fn diurnal_scenario_same_seed_is_byte_identical() {
    let run = || {
        let trace = DiurnalTraceBuilder::new(Dataset::BurstGpt)
            .base_rps(40.0)
            .period(SimDuration::from_secs(25))
            .days(1.0)
            .amplitude(0.8)
            .noise(0.15, 3)
            .seed(0xD1D)
            .build();
        let mut cfg = ClusterConfig::tiny_test(4);
        cfg.reserve_frac = 0.45;
        Run::new(SystemKind::KunServe, cfg, &trace)
            .drain(SimDuration::from_secs(600))
            .execute()
    };
    assert_eq!(
        outcome_bytes(&run()),
        outcome_bytes(&run()),
        "same seed must reproduce the diurnal run"
    );
}

/// The full resilience stack at once — per-request deadlines, retry
/// re-arrivals with jittered backoff, deadline-aware shedding, a rack
/// outage *and* its recovery reload — must reproduce byte-identically
/// run to run: the retry clock, the jitter hash and the admission
/// decision are all functions of simulated time and seeds.
#[test]
fn resilience_scenario_same_seed_is_byte_identical() {
    use cluster::{Deadline, RetryPolicy};
    let run = || {
        let trace = BurstTraceBuilder::new(Dataset::BurstGpt)
            .base_rps(60.0)
            .duration(SimDuration::from_secs(20))
            .burst(SimTime::from_secs(5), SimDuration::from_secs(10), 3.0)
            .seed(0xFA11)
            .build()
            .with_deadline(Deadline::ttft(SimDuration::from_secs(1)));
        let mut cfg = ClusterConfig::tiny_test(4);
        cfg.reserve_frac = 0.45;
        cfg.rack_size = 2;
        cfg.retry = Some(RetryPolicy {
            max_retries: 3,
            base: SimDuration::from_millis(400),
            multiplier: 2,
            cap: SimDuration::from_secs(4),
            seed: 7,
        });
        let schedule = FailureSchedule::new()
            .rack_down(SimTime::from_secs(8), 1)
            .rack_up(SimTime::from_secs(14), 1);
        Run::new(SystemKind::KunServe, cfg, &trace)
            .drain(SimDuration::from_secs(600))
            .failures(&schedule)
            .execute()
    };
    let one = run();
    // The check must not pass vacuously: the storm has to actually trip
    // deadlines and drive the closed-loop client. (With a 2 s deadline
    // KunServe sheds enough that no admitted request misses it.)
    assert!(
        one.report.deadline_misses > 0,
        "scenario must trip deadlines (misses {})",
        one.report.deadline_misses
    );
    assert!(
        one.report.retries > 0,
        "scenario must drive retry re-arrivals"
    );
    assert_eq!(
        outcome_bytes(&one),
        outcome_bytes(&run()),
        "same seed must reproduce the resilience run"
    );
}
