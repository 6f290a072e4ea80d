//! Criterion micro-benchmarks for KunServe's online algorithms and the
//! substrate hot paths.
//!
//! The paper claims both online algorithms are fast enough to run on the
//! serving critical path: drop-plan generation is `O(N log N)` in the
//! number of groups (§4.1) and lookahead formation `O(L log L)` in tokens
//! (§4.3). These benches verify the scaling constants.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use cluster::{GroupId, RequestId, SeqChunk};
use costmodel::{ChunkWork, CostParams, GroundTruth};
use kunserve::plan::{DropPlanner, PlanGroup};
use kvcache::{BlockManager, SeqKey};
use netsim::{Link, LinkSpec, Priority};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use sim_core::{SimDuration, SimTime};

fn bench_drop_plan(c: &mut Criterion) {
    let mut g = c.benchmark_group("drop_plan_generation");
    for n in [8usize, 64, 512, 4096] {
        let groups: Vec<PlanGroup> = (0..n)
            .map(|i| PlanGroup {
                id: GroupId(i),
                instances: 1,
            })
            .collect();
        let planner = DropPlanner::new(100);
        g.bench_with_input(BenchmarkId::from_parameter(n), &groups, |b, groups| {
            b.iter(|| planner.plan(black_box(groups), (n as u64 / 2) * 100))
        });
    }
    g.finish();
}

fn bench_lookahead(c: &mut Criterion) {
    let params = CostParams::qwen14b_a800();
    let mut g = c.benchmark_group("lookahead_formation");
    for n in [16usize, 64, 256] {
        let work: Vec<SeqChunk> = (0..n)
            .map(|i| SeqChunk {
                request: RequestId(i),
                work: if i % 3 == 0 {
                    ChunkWork {
                        prefix_tokens: 0,
                        new_tokens: 512 + (i as u64 % 7) * 128,
                    }
                } else {
                    ChunkWork::decode(600 + (i as u64 % 11) * 100)
                },
            })
            .collect();
        g.bench_with_input(BenchmarkId::from_parameter(n), &work, |b, work| {
            b.iter(|| kunserve::balance_microbatches(black_box(work), &params, 512))
        });
    }
    g.finish();
}

fn bench_cost_model(c: &mut Criterion) {
    let params = CostParams::qwen14b_a800();
    let chunks: Vec<ChunkWork> = (0..128).map(|i| ChunkWork::decode(500 + i * 10)).collect();
    c.bench_function("cost_model_batch_eval_128", |b| {
        b.iter(|| params.batch_cost_us(black_box(&chunks)))
    });

    let gt = GroundTruth::qwen14b_a800();
    let mut rng = SmallRng::seed_from_u64(7);
    c.bench_function("ground_truth_sample_128", |b| {
        b.iter(|| gt.sample_us(black_box(&chunks), 1.0, &mut rng))
    });
}

fn bench_block_manager(c: &mut Criterion) {
    c.bench_function("block_manager_alloc_free_cycle", |b| {
        let mut mgr = BlockManager::new(4096, 64);
        let mut i = 0u64;
        b.iter(|| {
            let key = SeqKey(i % 64);
            if mgr.tokens_of(key).is_ok() {
                mgr.free(key).expect("allocated");
            } else {
                let _ = mgr.allocate(key, 640 + (i % 13) * 64);
            }
            i += 1;
        })
    });

    c.bench_function("block_manager_decode_append", |b| {
        let mut mgr = BlockManager::new(1 << 20, 64);
        for s in 0..256 {
            mgr.allocate(SeqKey(s), 640).expect("fits");
        }
        let mut s = 0u64;
        b.iter(|| {
            let _ = mgr.append_tokens(SeqKey(s % 256), 1);
            s += 1;
        })
    });
}

fn bench_network(c: &mut Criterion) {
    c.bench_function("link_coordinated_exchange_with_activations", |b| {
        b.iter(|| {
            let mut link = Link::new(LinkSpec::rdma_200gbps());
            link.submit(SimTime::ZERO, 1 << 30, 64 << 20, Priority::KvExchange);
            let mut t = SimTime::ZERO;
            for _ in 0..100 {
                t += SimDuration::from_millis(2);
                black_box(link.interactive(t, 8 << 20));
            }
            link.take_completions(SimTime::from_secs(10))
        })
    });
}

fn bench_pipeline_schedule(c: &mut Criterion) {
    use cluster::pipeline::{schedule, PipelineSchedule, StageTiming};
    let timing = StageTiming {
        times: vec![SimDuration::from_millis(10); 16 * 4],
        stages: 4,
    };
    let delay = SimDuration::from_micros(50);
    let mut sched = PipelineSchedule::default();
    c.bench_function("pipeline_schedule_16x4", |b| {
        b.iter(|| {
            schedule(
                SimTime::ZERO,
                black_box(&timing),
                &mut sched,
                |_, _, send| send + delay,
            );
            sched.makespan
        })
    });
}

fn bench_end_to_end_tiny(c: &mut Criterion) {
    use cluster::{ClusterConfig, QueueingPolicy};
    use kunserve::serving::Run;
    use workload::{BurstTraceBuilder, Dataset};
    let trace = BurstTraceBuilder::new(Dataset::BurstGpt)
        .base_rps(20.0)
        .duration(SimDuration::from_secs(5))
        .seed(3)
        .build();
    let mut g = c.benchmark_group("end_to_end_tiny");
    g.sample_size(10);
    g.bench_function("5s_trace_2_instances", |b| {
        b.iter(|| {
            black_box(
                Run::with_policy(
                    "queueing",
                    Box::new(QueueingPolicy),
                    ClusterConfig::tiny_test(2),
                    &trace,
                )
                .drain(SimDuration::from_secs(120))
                .execute()
                .report,
            )
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_drop_plan,
    bench_lookahead,
    bench_cost_model,
    bench_block_manager,
    bench_network,
    bench_pipeline_schedule,
    bench_end_to_end_tiny,
);
criterion_main!(benches);
