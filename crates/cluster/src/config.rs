//! Cluster configuration and the paper's testbeds (Table 2).

use std::fmt;

use costmodel::GpuPerf;
use modelcfg::ModelConfig;
use netsim::LinkSpec;
use sim_core::SimDuration;
use simgpu::{align_up_page, PAGE_SIZE};
use workload::{ModelId, RetryPolicy};

/// Why a cluster configuration cannot be instantiated.
///
/// Surfaced by [`ClusterConfig::validate`] before any device is built, so
/// infeasible (especially multi-model) deployments fail with a diagnosable
/// message instead of a panic mid-construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// A model's parameters plus the activation reserve exceed the HBM of
    /// one of its instances.
    ModelDoesNotFit {
        /// Model name.
        model: &'static str,
        /// Per-instance HBM capacity in bytes.
        hbm_bytes: u64,
        /// Page-aligned parameter footprint in bytes.
        param_bytes: u64,
        /// Activation/workspace reserve in bytes.
        reserve_bytes: u64,
    },
    /// Parameters + reserve fit, but leave no whole page for the KVCache.
    NoKvSpace {
        /// Model name.
        model: &'static str,
        /// Per-instance HBM capacity in bytes.
        hbm_bytes: u64,
        /// Page-aligned parameter footprint in bytes.
        param_bytes: u64,
        /// Activation/workspace reserve in bytes.
        reserve_bytes: u64,
    },
    /// A deployed model has zero instances.
    NoInstances {
        /// Model name.
        model: &'static str,
    },
    /// A model's initial group size does not divide its instance count.
    GroupSizeMismatch {
        /// Model name.
        model: &'static str,
        /// Instances deployed for the model.
        instances: u32,
        /// Configured initial group size.
        group_size: u32,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ModelDoesNotFit {
                model,
                hbm_bytes,
                param_bytes,
                reserve_bytes,
            } => write!(
                f,
                "model `{model}` does not fit: params {param_bytes} B + reserve \
                 {reserve_bytes} B exceed instance HBM {hbm_bytes} B"
            ),
            ConfigError::NoKvSpace {
                model,
                hbm_bytes,
                param_bytes,
                reserve_bytes,
            } => write!(
                f,
                "model `{model}` leaves no HBM for KVCache: params {param_bytes} B + \
                 reserve {reserve_bytes} B ~= instance HBM {hbm_bytes} B"
            ),
            ConfigError::NoInstances { model } => {
                write!(f, "model `{model}` is deployed with zero instances")
            }
            ConfigError::GroupSizeMismatch {
                model,
                instances,
                group_size,
            } => write!(
                f,
                "model `{model}`: group size {group_size} must divide its \
                 {instances} instances"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// The two evaluation clusters of paper Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Testbed {
    /// Cluster A: 8 servers × 1 A800-80G, 200 Gbps RDMA scale-out.
    ClusterA,
    /// Cluster B: 2 servers × 8 H800-80G, NVLink scale-up + 400 Gbps RDMA.
    ClusterB,
}

impl Testbed {
    /// GPU performance model of this testbed.
    pub fn gpu(self) -> GpuPerf {
        match self {
            Testbed::ClusterA => GpuPerf::a800(),
            Testbed::ClusterB => GpuPerf::h800(),
        }
    }

    /// Scale-out fabric between servers.
    pub fn fabric(self) -> LinkSpec {
        match self {
            Testbed::ClusterA => LinkSpec::rdma_200gbps(),
            Testbed::ClusterB => LinkSpec::rdma_400gbps(),
        }
    }

    /// Total GPUs in the testbed.
    pub fn total_gpus(self) -> u32 {
        match self {
            Testbed::ClusterA => 8,
            Testbed::ClusterB => 16,
        }
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Testbed::ClusterA => "Cluster A (8 x A800-80G, 200Gbps RDMA)",
            Testbed::ClusterB => "Cluster B (2 x 8 H800-80G, NVLink + 400Gbps RDMA)",
        }
    }
}

/// One co-served model beyond the primary: its architecture plus the slice
/// of the cluster dedicated to it.
///
/// Multi-model co-serving binds each instance *group* to exactly one model;
/// all groups draw on the same HBM pool and the same fabric, so overloads
/// of different models compete for the same reclaimed bytes (the drop-plan
/// arbitration in the `kunserve` crate).
#[derive(Debug, Clone)]
pub struct ModelDeployment {
    /// The served model.
    pub model: ModelConfig,
    /// Instances dedicated to this model.
    pub num_instances: u32,
    /// Instances per execution group at startup (1 = data parallel).
    pub initial_group_size: u32,
    /// Relative SLO weight used by SLO-weighted drop-plan arbitration
    /// (higher = this model's memory requirement is satisfied first).
    pub slo_weight: f64,
}

impl ModelDeployment {
    /// A data-parallel deployment with unit SLO weight.
    pub fn new(model: ModelConfig, num_instances: u32) -> Self {
        ModelDeployment {
            model,
            num_instances,
            initial_group_size: 1,
            slo_weight: 1.0,
        }
    }
}

/// Static configuration of one simulated serving cluster.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// The served model.
    pub model: ModelConfig,
    /// GPU performance model.
    pub gpu: GpuPerf,
    /// Number of serving instances (each `model.gpus_per_instance()` GPUs).
    pub num_instances: u32,
    /// Instances per execution group at startup: 1 = data parallel (vLLM
    /// default), 2 = the vLLM-PP baseline, larger for the Fig. 5 sweep.
    pub initial_group_size: u32,
    /// KVCache block size in tokens (paper tunes 64).
    pub block_tokens: u32,
    /// Token budget per microbatch for chunked prefill (Sarathi-style).
    pub token_budget: u64,
    /// Microbatches formed per pipeline stage and iteration. Values above 1
    /// amortize pipeline fill/drain across more microbatches (an iteration
    /// of `m` microbatches over `s` stages wastes `(s-1)/m` of its time on
    /// fill/drain).
    pub microbatches_per_stage: u32,
    /// Fraction of HBM reserved for activations/workspace.
    pub reserve_frac: f64,
    /// Inter-instance fabric.
    pub fabric: LinkSpec,
    /// Monitor cadence (load sampling + policy ticks).
    pub monitor_interval: SimDuration,
    /// Host swap pool size per instance, in blocks.
    pub host_swap_blocks: u32,
    /// RNG seed for execution-time noise.
    pub seed: u64,
    /// SLO weight of the primary model (see [`ModelDeployment::slo_weight`]).
    pub primary_slo_weight: f64,
    /// Additional co-served models; model id `k + 1` is `extra_models[k]`
    /// (the primary model is id 0). Empty for single-model clusters.
    pub extra_models: Vec<ModelDeployment>,
    /// Rack-correlation granularity for failure injection: instances
    /// `[k·rack_size, (k+1)·rack_size)` (by global instance index) share a
    /// rack — one power/ToR failure domain. 0 disables racking (every
    /// failure is independent).
    pub rack_size: u32,
    /// Closed-loop client retry behaviour. `None` (the default) models
    /// patient open-loop clients: deadline-carrying requests are never
    /// aborted or re-sent, and runs are byte-identical to pre-retry builds.
    pub retry: Option<RetryPolicy>,
}

impl ClusterConfig {
    /// The paper's main setup: Qwen-2.5-14B on cluster A (8 × 1-GPU
    /// instances).
    pub fn qwen14b_cluster_a() -> Self {
        ClusterConfig {
            model: modelcfg::catalog::qwen2_5_14b(),
            gpu: Testbed::ClusterA.gpu(),
            num_instances: 8,
            initial_group_size: 1,
            block_tokens: 64,
            token_budget: 2048,
            microbatches_per_stage: 2,
            reserve_frac: 0.10,
            fabric: Testbed::ClusterA.fabric(),
            monitor_interval: SimDuration::from_millis(250),
            host_swap_blocks: 8192,
            seed: 0x5EED,
            primary_slo_weight: 1.0,
            extra_models: Vec::new(),
            rack_size: 0,
            retry: None,
        }
    }

    /// The multi-GPU setup: Qwen-2.5-72B (TP=4) on cluster B-like hardware,
    /// 4 instances of 4 GPUs.
    pub fn qwen72b_cluster_b() -> Self {
        ClusterConfig {
            model: modelcfg::catalog::qwen2_5_72b(),
            gpu: Testbed::ClusterB.gpu(),
            num_instances: 4,
            initial_group_size: 1,
            block_tokens: 64,
            token_budget: 2048,
            microbatches_per_stage: 2,
            reserve_frac: 0.10,
            fabric: Testbed::ClusterB.fabric(),
            monitor_interval: SimDuration::from_millis(250),
            host_swap_blocks: 8192,
            seed: 0x5EED,
            primary_slo_weight: 1.0,
            extra_models: Vec::new(),
            rack_size: 0,
            retry: None,
        }
    }

    /// A deliberately small configuration for fast unit tests: a toy model
    /// (few layers, tiny KV) on a handful of instances.
    pub fn tiny_test(num_instances: u32) -> Self {
        use modelcfg::{DType, Parallelism};
        let model = ModelConfig {
            name: "tiny-test",
            num_layers: 8,
            hidden_size: 1024,
            num_heads: 8,
            num_kv_heads: 2,
            head_dim: 128,
            intermediate_size: 4096,
            vocab_size: 32_000,
            dtype: DType::BF16,
            parallelism: Parallelism::Single,
            // 1 GiB HBM keeps capacities small enough to overload easily.
            gpu_hbm_bytes: 1 << 30,
            // ~0.4 GiB of parameters: a large HBM share, like the paper.
            param_bytes_authoritative: Some(400 << 20),
        };
        ClusterConfig {
            model,
            gpu: GpuPerf::a800(),
            num_instances,
            initial_group_size: 1,
            block_tokens: 16,
            token_budget: 512,
            microbatches_per_stage: 2,
            reserve_frac: 0.10,
            fabric: LinkSpec::rdma_200gbps(),
            monitor_interval: SimDuration::from_millis(100),
            host_swap_blocks: 4096,
            seed: 7,
            primary_slo_weight: 1.0,
            extra_models: Vec::new(),
            rack_size: 0,
            retry: None,
        }
    }

    /// A two-model co-serving configuration for fast tests: the tiny test
    /// model (id 0) next to a "tiny-chat" variant (id 1) with twice the
    /// layers — different KV bytes/token, different parameter copies, both
    /// easy to overload.
    pub fn tiny_two_model(primary_instances: u32, chat_instances: u32) -> Self {
        use modelcfg::{DType, Parallelism};
        let mut cfg = ClusterConfig::tiny_test(primary_instances);
        let chat = ModelConfig {
            name: "tiny-chat",
            num_layers: 16,
            hidden_size: 1024,
            num_heads: 8,
            num_kv_heads: 2,
            head_dim: 128,
            intermediate_size: 4096,
            vocab_size: 32_000,
            dtype: DType::BF16,
            parallelism: Parallelism::Single,
            gpu_hbm_bytes: 1 << 30,
            param_bytes_authoritative: Some(500 << 20),
        };
        cfg.extra_models
            .push(ModelDeployment::new(chat, chat_instances));
        cfg
    }

    /// A long-tail co-serving configuration for the cold-start-storm
    /// scenario: the tiny test model (rank 0, `primary_instances`) plus
    /// `tail_models` tail models of one instance each, all sharing the
    /// tiny-test architecture so every rank overloads the same way.
    ///
    /// # Panics
    ///
    /// Panics if `tail_models > 8` (the static name table's size).
    pub fn tiny_many_models(primary_instances: u32, tail_models: u32) -> Self {
        const TAIL_NAMES: [&str; 8] = [
            "tiny-tail-1",
            "tiny-tail-2",
            "tiny-tail-3",
            "tiny-tail-4",
            "tiny-tail-5",
            "tiny-tail-6",
            "tiny-tail-7",
            "tiny-tail-8",
        ];
        assert!(
            tail_models as usize <= TAIL_NAMES.len(),
            "at most {} tail models",
            TAIL_NAMES.len()
        );
        let mut cfg = ClusterConfig::tiny_test(primary_instances);
        for name in &TAIL_NAMES[..tail_models as usize] {
            let mut tail = cfg.model.clone();
            tail.name = name;
            cfg.extra_models.push(ModelDeployment::new(tail, 1));
        }
        cfg
    }

    /// The Fig. 18 co-serving setup: Qwen-2.5-14B chat traffic next to
    /// Qwen-2.5-72B (TP=4) long-context traffic, on one cluster-A-class
    /// fabric and HBM pool.
    pub fn multi_model_14b_72b() -> Self {
        let mut cfg = ClusterConfig::qwen14b_cluster_a();
        cfg.extra_models
            .push(ModelDeployment::new(modelcfg::catalog::qwen2_5_72b(), 4));
        cfg
    }

    /// Number of co-served models (1 + extras).
    pub fn num_models(&self) -> u32 {
        1 + self.extra_models.len() as u32
    }

    /// The architecture of model `m`.
    ///
    /// # Panics
    ///
    /// Panics if `m` is not deployed on this cluster.
    pub fn model_cfg(&self, m: ModelId) -> &ModelConfig {
        if m.0 == 0 {
            &self.model
        } else {
            &self.extra_models[m.0 as usize - 1].model
        }
    }

    /// Instances dedicated to model `m`.
    pub fn instances_of(&self, m: ModelId) -> u32 {
        if m.0 == 0 {
            self.num_instances
        } else {
            self.extra_models[m.0 as usize - 1].num_instances
        }
    }

    /// Startup group size of model `m`.
    pub fn group_size_of(&self, m: ModelId) -> u32 {
        if m.0 == 0 {
            self.initial_group_size
        } else {
            self.extra_models[m.0 as usize - 1].initial_group_size
        }
    }

    /// SLO arbitration weight of model `m`.
    pub fn slo_weight_of(&self, m: ModelId) -> f64 {
        if m.0 == 0 {
            self.primary_slo_weight
        } else {
            self.extra_models[m.0 as usize - 1].slo_weight
        }
    }

    /// All model ids, in deployment order.
    pub fn model_ids(&self) -> impl Iterator<Item = ModelId> {
        (0..self.num_models()).map(ModelId)
    }

    /// Total serving instances across all models.
    pub fn total_instances(&self) -> u32 {
        self.model_ids().map(|m| self.instances_of(m)).sum()
    }

    /// Global instance indices sharing rack `rack` (empty when racking is
    /// disabled).
    pub fn instances_in_rack(&self, rack: u32) -> Vec<u32> {
        if self.rack_size == 0 {
            return Vec::new();
        }
        let total = self.total_instances();
        (rack * self.rack_size..(rack + 1) * self.rack_size)
            .filter(|&i| i < total)
            .collect()
    }

    /// HBM bytes reserved for activations per instance (primary model).
    pub fn reserve_bytes(&self) -> u64 {
        self.reserve_bytes_for(&self.model)
    }

    /// HBM bytes reserved for activations per instance of `model`.
    pub fn reserve_bytes_for(&self, model: &ModelConfig) -> u64 {
        (model.instance_hbm_bytes() as f64 * self.reserve_frac) as u64
    }

    /// The page-aligned parameter layout of one full copy of `model` on
    /// an instance: `(embedding bytes, bytes per layer)`. The per-layer
    /// stride is the quantum of layer-granular drops, restores and loans.
    pub(crate) fn param_layout(model: &ModelConfig) -> (u64, u64) {
        (
            align_up_page(model.embedding_bytes().max(1)),
            align_up_page(model.layer_param_bytes()),
        )
    }

    /// Page-aligned parameter footprint of one full copy of `model` on an
    /// instance: the embedding plus one aligned stride per layer — exactly
    /// the layout [`crate::instance::Instance`] holds at full residency.
    pub fn param_footprint_bytes(model: &ModelConfig) -> u64 {
        let (embed, layer) = Self::param_layout(model);
        embed + layer * model.num_layers as u64
    }

    /// The base KVCache pool one instance of `model` maps at construction:
    /// everything left after parameters and the reserve, rounded down to a
    /// whole page. Errors when the model does not fit or nothing is left.
    pub fn kv_pool_bytes_for(&self, model: &ModelConfig) -> Result<u64, ConfigError> {
        let hbm = model.instance_hbm_bytes();
        let params = Self::param_footprint_bytes(model);
        let reserve = self.reserve_bytes_for(model);
        let Some(left) = hbm.checked_sub(params + reserve) else {
            return Err(ConfigError::ModelDoesNotFit {
                model: model.name,
                hbm_bytes: hbm,
                param_bytes: params,
                reserve_bytes: reserve,
            });
        };
        let pool = left / PAGE_SIZE * PAGE_SIZE;
        if pool == 0 {
            return Err(ConfigError::NoKvSpace {
                model: model.name,
                hbm_bytes: hbm,
                param_bytes: params,
                reserve_bytes: reserve,
            });
        }
        Ok(pool)
    }

    /// Checks that every deployed model fits its instances (parameters +
    /// reserve + a non-empty KV pool ≤ HBM) and that instance counts and
    /// group sizes are coherent. [`crate::ClusterState::try_new`] runs this
    /// before building any device.
    pub fn validate(&self) -> Result<(), ConfigError> {
        for m in self.model_ids() {
            let model = self.model_cfg(m);
            let n = self.instances_of(m);
            if n == 0 {
                return Err(ConfigError::NoInstances { model: model.name });
            }
            let k = self.group_size_of(m);
            if k < 1 || !n.is_multiple_of(k) {
                return Err(ConfigError::GroupSizeMismatch {
                    model: model.name,
                    instances: n,
                    group_size: k,
                });
            }
            self.kv_pool_bytes_for(model)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn testbed_presets_match_table2() {
        assert_eq!(Testbed::ClusterA.total_gpus(), 8);
        assert_eq!(Testbed::ClusterB.total_gpus(), 16);
        assert_eq!(Testbed::ClusterA.fabric().bytes_per_sec, 25e9);
        assert_eq!(Testbed::ClusterB.fabric().bytes_per_sec, 50e9);
    }

    #[test]
    fn qwen14b_config_is_paper_shaped() {
        let c = ClusterConfig::qwen14b_cluster_a();
        assert_eq!(c.num_instances, 8);
        assert_eq!(c.block_tokens, 64);
        assert_eq!(c.model.gpus_per_instance(), 1);
    }

    #[test]
    fn multi_model_accessors_index_deployments() {
        let cfg = ClusterConfig::tiny_two_model(2, 2);
        assert_eq!(cfg.num_models(), 2);
        assert_eq!(cfg.total_instances(), 4);
        assert_eq!(cfg.model_cfg(ModelId(0)).name, "tiny-test");
        assert_eq!(cfg.model_cfg(ModelId(1)).name, "tiny-chat");
        // Twice the layers at the same KV head shape = twice the KV/token.
        assert_eq!(
            cfg.model_cfg(ModelId(1)).kv_bytes_per_token(),
            2 * cfg.model_cfg(ModelId(0)).kv_bytes_per_token()
        );
        assert_eq!(cfg.instances_of(ModelId(1)), 2);
        assert_eq!(cfg.slo_weight_of(ModelId(0)), 1.0);
    }

    #[test]
    fn fig18_setup_co_deploys_14b_and_72b() {
        let cfg = ClusterConfig::multi_model_14b_72b();
        assert_eq!(cfg.num_models(), 2);
        assert_eq!(cfg.model_cfg(ModelId(1)).name, "Qwen-2.5-72B");
        assert_eq!(cfg.total_instances(), 12);
    }

    #[test]
    fn validate_accepts_all_presets() {
        for cfg in [
            ClusterConfig::qwen14b_cluster_a(),
            ClusterConfig::qwen72b_cluster_b(),
            ClusterConfig::tiny_test(2),
            ClusterConfig::tiny_two_model(2, 2),
            ClusterConfig::tiny_many_models(2, 4),
            ClusterConfig::multi_model_14b_72b(),
        ] {
            cfg.validate().expect("preset must be feasible");
        }
    }

    #[test]
    fn rack_helpers_partition_instances() {
        let mut cfg = ClusterConfig::tiny_test(4);
        assert!(
            cfg.instances_in_rack(0).is_empty(),
            "racking off by default"
        );
        cfg.rack_size = 2;
        assert_eq!(cfg.instances_in_rack(0), vec![0, 1]);
        assert_eq!(cfg.instances_in_rack(1), vec![2, 3]);
        // The last rack may be ragged.
        cfg.rack_size = 3;
        assert_eq!(cfg.instances_in_rack(1), vec![3]);
        assert!(cfg.instances_in_rack(2).is_empty());
    }

    #[test]
    fn tiny_many_models_deploys_a_long_tail() {
        let cfg = ClusterConfig::tiny_many_models(2, 5);
        assert_eq!(cfg.num_models(), 6);
        assert_eq!(cfg.total_instances(), 7);
        assert_eq!(cfg.model_cfg(ModelId(3)).name, "tiny-tail-3");
        for m in cfg.model_ids().skip(1) {
            assert_eq!(cfg.instances_of(m), 1, "tail ranks get one instance");
        }
    }

    #[test]
    fn validate_rejects_oversized_models_with_diagnosable_errors() {
        // An extra model whose parameters alone exceed its HBM must fail
        // with a typed, named error — not a panic mid-construction.
        let mut cfg = ClusterConfig::tiny_two_model(2, 2);
        cfg.extra_models[0].model.param_bytes_authoritative = Some(2 << 30);
        let err = cfg.validate().expect_err("infeasible deployment");
        assert!(matches!(err, ConfigError::ModelDoesNotFit { model, .. } if model == "tiny-chat"));
        assert!(err.to_string().contains("tiny-chat"), "{err}");

        // Reserve so large nothing is left for KV.
        let mut cfg = ClusterConfig::tiny_test(1);
        cfg.reserve_frac = 0.99;
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::ModelDoesNotFit { .. }) | Err(ConfigError::NoKvSpace { .. })
        ));

        // Group size not dividing the instance count.
        let mut cfg = ClusterConfig::tiny_test(3);
        cfg.initial_group_size = 2;
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::GroupSizeMismatch {
                instances: 3,
                group_size: 2,
                ..
            })
        ));
    }

    #[test]
    fn tiny_config_overloads_easily() {
        let c = ClusterConfig::tiny_test(2);
        let kv_pool = c.model.gpu_hbm_bytes - c.model.param_bytes() - c.reserve_bytes();
        let tokens = kv_pool / c.model.kv_bytes_per_token();
        // A few hundred K tokens max — small enough for fast test overload.
        assert!(tokens < 200_000, "tiny pool holds {tokens} tokens");
        assert!(
            c.model.param_hbm_ratio() > 30.0,
            "params dominate like Table 1"
        );
    }
}
