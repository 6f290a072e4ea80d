//! Property test of one instance's memory layout (paper §4.1): whatever
//! sequence of layer drops, restores, donations and reclaims runs, every
//! byte an [`Instance`] reports follows from its resident layers alone.
//!
//! The expected values come from the cluster configuration's own layout
//! (`param_footprint_bytes`, `kv_pool_bytes_for`) and a shadow `LayerSet`
//! kept by the test, and every step's balance sheet must pass
//! [`LedgerEntry::check`]. Each drawn sequence runs on four models: the
//! tiny test model, the tiny co-served chat model, Qwen-2.5-14B and
//! Qwen-2.5-72B at TP=4.

use cluster::{ClusterConfig, Instance, InstanceId, LedgerEntry};
use kunserve_repro::simgpu::PAGE_SIZE;
use modelcfg::{LayerRange, LayerSet};
use proptest::prelude::*;
use workload::ModelId;

/// One layout operation. Positions and sizes are per-mille of the model's
/// layer count or of the bytes available, so one sequence fits every model.
#[derive(Debug, Clone)]
enum Op {
    Drop { at: u32, len: u32 },
    Restore { at: u32, len: u32 },
    RestoreAll,
    Donate { permille: u64 },
    Reclaim { permille: u64 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        ((0u32..1000), (1u32..=1000)).prop_map(|(at, len)| Op::Drop { at, len }),
        ((0u32..1000), (1u32..=1000)).prop_map(|(at, len)| Op::Restore { at, len }),
        Just(Op::RestoreAll),
        (0u64..=1000).prop_map(|permille| Op::Donate { permille }),
        (0u64..=1000).prop_map(|permille| Op::Reclaim { permille }),
    ]
}

/// The four deployments under test, as (config, model).
fn deployments() -> Vec<(ClusterConfig, ModelId)> {
    vec![
        (ClusterConfig::tiny_test(1), ModelId::PRIMARY),
        (ClusterConfig::tiny_two_model(1, 1), ModelId(1)),
        (ClusterConfig::qwen14b_cluster_a(), ModelId::PRIMARY),
        (ClusterConfig::qwen72b_cluster_b(), ModelId::PRIMARY),
    ]
}

/// The layers `[at, at + len)` per-mille of `num_layers`, never empty.
fn layer_range(num_layers: u32, at: u32, len: u32) -> LayerSet {
    let start = at * num_layers / 1000;
    let len = (len * num_layers).div_ceil(1000).max(1);
    LayerSet::from_range(LayerRange::new(start, (start + len).min(num_layers)))
}

/// Runs `ops` on one fresh instance of `model`, checking every query after
/// each step against the layout the test keeps itself.
fn check_sequence(cfg: &ClusterConfig, model: ModelId, ops: &[Op], used_permille: u64) {
    let m = cfg.model_cfg(model);
    let n = m.num_layers;
    let stride = m.layer_param_bytes().div_ceil(PAGE_SIZE) * PAGE_SIZE;
    let footprint = ClusterConfig::param_footprint_bytes(m);
    let base_pool = cfg.kv_pool_bytes_for(m).expect("the deployment fits");
    let hbm = m.instance_hbm_bytes() / PAGE_SIZE * PAGE_SIZE;

    let mut inst = Instance::for_model(InstanceId(0), model, cfg);
    let mut resident = LayerSet::full(n);
    let mut donated = 0u64;
    for (step, op) in ops.iter().enumerate() {
        let ctx = format!("{} step {step} {op:?}", m.name);
        let tail = (n - resident.len()) as u64 * stride;
        match *op {
            Op::Drop { at, len } => {
                let layers = layer_range(n, at, len).intersection(&resident);
                resident = resident.difference(&layers);
                assert_eq!(inst.drop_layers(&layers), layers.len() as usize, "{ctx}");
            }
            Op::Restore { at, len } => {
                let asked = layer_range(n, at, len);
                let layers = asked.difference(&resident);
                if tail - layers.len() as u64 * stride < donated {
                    continue; // would cut into the loan: the instance panics
                }
                resident = resident.union(&layers);
                assert_eq!(inst.restore_layers(&asked), layers.len() as usize, "{ctx}");
            }
            Op::RestoreAll => {
                if donated > 0 {
                    continue; // restoring with a loan out: the instance panics
                }
                let dropped = n - resident.len();
                resident = LayerSet::full(n);
                assert_eq!(inst.restore_all(), dropped as usize, "{ctx}");
            }
            Op::Donate { permille } => {
                let bytes = (tail - donated) * permille / 1000;
                inst.donate_out(bytes);
                donated += bytes;
            }
            Op::Reclaim { permille } => {
                let bytes = donated * permille / 1000;
                inst.reclaim_donated(bytes);
                donated -= bytes;
            }
        }

        let dropped = n - resident.len();
        let tail = dropped as u64 * stride;
        let kv_pool = base_pool + tail;
        assert_eq!(inst.resident_layers(), &resident, "{ctx}");
        assert_eq!(inst.dropped_layers(), dropped, "{ctx}");
        assert_eq!(inst.layer_stride_bytes(), stride, "{ctx}");
        assert_eq!(inst.hbm_bytes(), hbm, "{ctx}");
        assert_eq!(inst.kv_base_bytes(), base_pool, "{ctx}");
        assert_eq!(inst.kv_pool_bytes(), kv_pool, "{ctx}");
        assert_eq!(inst.tail_growth_bytes(), tail, "{ctx}");
        assert_eq!(inst.param_resident_bytes(), footprint - tail, "{ctx}");
        assert_eq!(inst.donated_out_bytes(), donated, "{ctx}");
        assert_eq!(inst.usable_kv_bytes(), kv_pool - donated, "{ctx}");
        assert_eq!(inst.donatable_bytes(), tail - donated, "{ctx}");

        let entry = LedgerEntry {
            instance: inst.id,
            model,
            hbm_bytes: inst.hbm_bytes(),
            param_bytes: inst.param_resident_bytes(),
            kv_pool_bytes: inst.kv_pool_bytes(),
            remap_tail_bytes: inst.tail_growth_bytes(),
            dropped_layers: inst.dropped_layers(),
            layer_stride_bytes: inst.layer_stride_bytes(),
            donated_out_bytes: inst.donated_out_bytes(),
            kv_used_bytes: inst.usable_kv_bytes() * used_permille / 1000,
            reserve_bytes: cfg.reserve_bytes_for(m),
            fully_resident: inst.dropped_layers() == 0,
        };
        let mut violations = Vec::new();
        entry.check(&ctx, &mut violations);
        assert!(violations.is_empty(), "{violations:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every byte query equals the layout arithmetic over the test's own
    /// resident set, every drop and restore reports the layers it moved,
    /// and the ledger finds no violation at any KV usage the pool allows.
    #[test]
    fn instance_layout_is_layer_arithmetic(
        ops in proptest::collection::vec(op_strategy(), 1..48),
        used_permille in 0u64..=1000,
    ) {
        for (cfg, model) in deployments() {
            check_sequence(&cfg, model, &ops, used_permille);
        }
    }
}
