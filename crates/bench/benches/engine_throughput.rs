//! Criterion benchmark for raw engine event throughput.
//!
//! Tracks events/sec of the discrete-event engine on a fixed overload
//! scenario, so hot-path regressions — event-queue churn, per-event
//! allocations, redundant group sweeps — show up as a drop in this number
//! rather than as silent wall-clock creep in the paper-scale runs.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use cluster::{ClusterConfig, QueueingPolicy};
use kunserve::serving::{Run, SystemKind};
use sim_core::{SimDuration, SimTime};
use workload::{BurstTraceBuilder, Dataset, Trace};

fn overload_trace(seconds: u64, rps: f64, seed: u64) -> Trace {
    BurstTraceBuilder::new(Dataset::BurstGpt)
        .base_rps(rps)
        .duration(SimDuration::from_secs(seconds))
        .burst(
            SimTime::from_secs(seconds / 3),
            SimDuration::from_secs(seconds / 4),
            2.5,
        )
        .seed(seed)
        .build()
}

/// Queueing policy on a tiny overloaded cluster: measures the pure engine
/// loop (admission, decode growth, batching, completion) without policy
/// work.
fn bench_engine_events(c: &mut Criterion) {
    let trace = overload_trace(10, 40.0, 11);
    let mut g = c.benchmark_group("engine_throughput");
    g.sample_size(10);
    g.bench_function("queueing_10s_x4", |b| {
        b.iter(|| {
            black_box(
                Run::with_policy(
                    "queueing",
                    Box::new(QueueingPolicy),
                    ClusterConfig::tiny_test(4),
                    &trace,
                )
                .drain(SimDuration::from_secs(300))
                .execute()
                .report,
            )
        })
    });
    g.finish();
}

/// KunServe on the same scenario: adds drop/restore reconfigurations and
/// cost-balanced batch formation to the measured path.
fn bench_engine_events_kunserve(c: &mut Criterion) {
    let trace = overload_trace(10, 50.0, 12);
    let mut cfg = ClusterConfig::tiny_test(4);
    cfg.reserve_frac = 0.45;
    let mut g = c.benchmark_group("engine_throughput");
    g.sample_size(10);
    g.bench_function("kunserve_10s_x4", |b| {
        b.iter(|| {
            black_box(
                Run::new(SystemKind::KunServe, cfg.clone(), &trace)
                    .drain(SimDuration::from_secs(300))
                    .execute(),
            )
        })
    });
    g.finish();
}

criterion_group!(benches, bench_engine_events, bench_engine_events_kunserve);
criterion_main!(benches);
