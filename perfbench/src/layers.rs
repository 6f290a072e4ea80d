//! Per-call timings of layer functions the benchmark cannot wrap during a
//! run (they are called from inside the engine or the policy): ground-truth
//! sampling, block-manager operations, netsim calls, drop planning and
//! arbitration, and cost-balanced microbatch formation. Inputs are sized
//! from the workload's cluster and its traced run; the caller multiplies
//! the per-call cost by the run's counts to estimate each layer's share.

use std::hint::black_box;

use cluster::{ClusterConfig, ClusterState, GroupId, RequestId, SeqChunk};
use costmodel::ChunkWork;
use kunserve::{
    arbitrate_with_donation, balance_microbatches, Arbitration, DropPlanner, LenderOffer,
    ModelDemand, PlanGroup,
};
use kvcache::{BlockManager, ExtentTag, Loan, SeqKey};
use netsim::{Network, NodeId, Priority};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use sim_core::{SimDuration, SimTime};

use crate::clock::Stopwatch;
use crate::stats::median;

/// What the workload's traced run tells the timings about input sizes.
pub struct Sizing {
    /// Mean chunks per engine iteration.
    pub chunks_per_iteration: f64,
    /// Mean chunks per microbatch-former call (0 when the former never ran).
    pub chunks_per_former_call: f64,
    /// Mean prompt + output tokens of a request.
    pub tokens_per_request: f64,
}

/// Per-call costs, in nanoseconds.
pub struct LayerTimings {
    pub sample_ns: f64,
    pub append_ns: f64,
    pub alloc_free_ns: f64,
    pub extent_cycle_ns: f64,
    pub interactive_ns: f64,
    pub take_completions_ns: f64,
    pub drop_plan_ns: f64,
    pub arbitrate_ns: f64,
    pub balance_ns: f64,
}

/// Median over `rounds` of the mean cost of `calls` calls to `f`, after
/// `prepare` set up each round untimed.
fn per_call_ns<S>(
    rounds: usize,
    calls: usize,
    mut prepare: impl FnMut() -> S,
    mut f: impl FnMut(&mut S, usize),
) -> f64 {
    let samples: Vec<f64> = (0..rounds)
        .map(|_| {
            let mut s = prepare();
            let t = Stopwatch::start();
            for i in 0..calls {
                f(&mut s, i);
            }
            let ns = t.elapsed_ns() as f64 / calls as f64;
            black_box(&s);
            ns
        })
        .collect();
    median(&samples)
}

/// A mixed chunk list: one prefill chunk per eight, decodes otherwise.
fn chunks(n: usize) -> Vec<ChunkWork> {
    (0..n.max(1))
        .map(|i| {
            if i % 8 == 0 {
                ChunkWork {
                    prefix_tokens: 0,
                    new_tokens: 512,
                }
            } else {
                ChunkWork::decode(600 + (i as u64 % 11) * 100)
            }
        })
        .collect()
}

pub fn measure(cfg: &ClusterConfig, sizing: &Sizing) -> LayerTimings {
    let state = ClusterState::try_new(cfg.clone()).expect("workload cluster fits in HBM");
    let gt = &state.ground_truths[0];
    let works = chunks(sizing.chunks_per_iteration.round() as usize);
    let mut rng = SmallRng::seed_from_u64(7);
    let sample_ns = per_call_ns(
        7,
        20_000,
        || (),
        |_, _| {
            black_box(gt.sample(black_box(&works), 1.0, &mut rng));
        },
    );

    // Block manager: a pool the size of one instance's KV pool, half full
    // of requests of the workload's mean length.
    let capacity = state.group(GroupId(0)).blocks.capacity_blocks();
    let block_tokens = cfg.block_tokens;
    let seq_tokens = sizing.tokens_per_request.max(1.0) as u64;
    let resident = ((u64::from(capacity) / 2) / (seq_tokens / u64::from(block_tokens) + 1)).max(1);
    let filled = || {
        let mut m = BlockManager::new(capacity, block_tokens);
        for s in 0..resident {
            m.allocate(SeqKey(s), seq_tokens).expect("half-full pool");
        }
        m
    };
    // One decode token per resident sequence and round: growth stays
    // within the free half.
    let appends = usize::try_from(resident).unwrap_or(usize::MAX).min(50_000);
    let append_ns = per_call_ns(7, appends, filled, |m, i| {
        black_box(m.append_tokens(SeqKey(i as u64), 1).expect("fits"));
    });
    let probe = SeqKey(u64::MAX);
    let alloc_free_ns = per_call_ns(7, 2_000, filled, |m, _| {
        m.allocate(probe, seq_tokens).expect("fits");
        black_box(m.free(probe).expect("live"));
    });
    let loan = Loan {
        lender: 1,
        layer_start: 0,
        layer_end: cfg.model.num_layers,
    };
    let extent = (capacity / 16).max(1);
    let extent_cycle_ns = per_call_ns(7, 2_000, filled, |m, _| {
        m.grow_extent(ExtentTag::Remap, extent);
        m.grow_extent(ExtentTag::Borrowed(loan), extent);
        black_box(m.reclaim_extent(ExtentTag::Borrowed(loan)).expect("lent"));
        m.shrink_extent(ExtentTag::Remap, extent).expect("free");
    });

    // Netsim: activation sends between neighbouring instances, and the
    // completion sweep over links carrying bulk KV-exchange jobs.
    let instances = cfg.num_instances.max(2);
    let act_bytes = cfg.model.activation_bytes_per_token() * cfg.token_budget;
    let interactive_ns = per_call_ns(
        7,
        20_000,
        || Network::new(cfg.fabric),
        |net, i| {
            let now = SimTime::ZERO + SimDuration::from_micros(i as u64 * 500);
            let src = NodeId(i as u32 % instances);
            let dst = NodeId((i as u32 + 1) % instances);
            black_box(net.interactive(now, src, dst, act_bytes));
        },
    );
    let take_completions_ns = per_call_ns(
        7,
        2_000,
        || {
            let mut net = Network::new(cfg.fabric);
            for k in 0..instances {
                net.submit_bulk(
                    SimTime::ZERO,
                    NodeId(k),
                    NodeId((k + 1) % instances),
                    1 << 30,
                    Priority::KvExchange,
                );
            }
            net
        },
        |net, i| {
            let now = SimTime::ZERO + SimDuration::from_millis(i as u64);
            black_box(net.take_completions(now));
        },
    );

    // Planning: every instance its own group, asking for two copies; on
    // multi-model clusters the primary lends to every other model.
    let groups = |n: u32, base: usize| -> Vec<PlanGroup> {
        (0..n)
            .map(|i| PlanGroup {
                id: GroupId(base + i as usize),
                instances: 1,
            })
            .collect()
    };
    let copy_bytes = cfg.model.param_bytes() - cfg.model.embedding_bytes();
    let planner = DropPlanner::new(copy_bytes);
    let own = groups(cfg.num_instances, 0);
    let drop_plan_ns = per_call_ns(
        7,
        20_000,
        || (),
        |_, _| {
            black_box(planner.plan(black_box(&own), 2 * copy_bytes));
        },
    );
    let mut base = cfg.num_instances as usize;
    let mut demands = Vec::new();
    for m in cfg.model_ids().skip(1) {
        let n = cfg.instances_of(m);
        demands.push(ModelDemand {
            model: m,
            required_bytes: copy_bytes / 2,
            copy_bytes,
            slo_weight: 1.0,
            groups: groups(n, base),
        });
        base += n as usize;
    }
    let offers = if demands.is_empty() {
        demands.push(ModelDemand {
            model: cfg.model_ids().next().expect("a primary model"),
            required_bytes: 2 * copy_bytes,
            copy_bytes,
            slo_weight: 1.0,
            groups: own.clone(),
        });
        Vec::new()
    } else {
        vec![LenderOffer {
            model: cfg.model_ids().next().expect("a primary model"),
            layer_bytes: cfg.model.layer_param_bytes(),
            num_layers: cfg.model.num_layers,
            grant_quantum_layers: 1,
            slo_weight: 1.0,
            groups: own.clone(),
        }]
    };
    let arbitrate_ns = per_call_ns(
        7,
        5_000,
        || (),
        |_, _| {
            black_box(arbitrate_with_donation(
                black_box(&demands),
                &offers,
                None,
                Arbitration::SloWeighted,
            ));
        },
    );

    // The cost-balanced former on a batch of the run's mean size.
    let n = sizing.chunks_per_former_call.round().max(2.0) as usize;
    let work: Vec<SeqChunk> = chunks(n)
        .into_iter()
        .enumerate()
        .map(|(i, w)| SeqChunk {
            request: RequestId(i),
            work: w,
        })
        .collect();
    let cost = state.cost_model_of(cfg.model_ids().next().expect("a primary model"));
    let min_tokens = (work.iter().map(|c| c.work.new_tokens).sum::<u64>() / 4).max(1);
    let balance_ns = per_call_ns(
        7,
        5_000,
        || (),
        |_, _| {
            black_box(balance_microbatches(black_box(&work), cost, min_tokens));
        },
    );

    LayerTimings {
        sample_ns,
        append_ns,
        alloc_free_ns,
        extent_cycle_ns,
        interactive_ns,
        take_completions_ns,
        drop_plan_ns,
        arbitrate_ns,
        balance_ns,
    }
}
