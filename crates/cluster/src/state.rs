//! The cluster state and its mechanisms.
//!
//! Everything a policy can *do* lives here: dispatch, admission accounting,
//! recompute preemption (vLLM), swap out/in (InferCept), migration
//! (Llumnix), and the KunServe group machinery — merge with parameter drop
//! and KVCache exchange, parameter restoration, and split. The engine calls
//! these mechanisms too (admission, iteration completion), so the state is
//! the single source of truth for memory accounting.

#![expect(
    clippy::disallowed_types,
    reason = "keyed lookup; every iteration that feeds transfer or plan order collects and sorts \
              first (e.g. merge-exchange `pairs.sort()`)"
)]

use std::collections::HashMap;

use costmodel::{CostParams, GroundTruth, Profiler};
use kvcache::{
    BlockManager, ExtentTag, HostSwapPool, KvError, Loan, PrefixLedger, PrefixOutcome, SeqKey,
};
use modelcfg::{layers_covering, partition_layers, LayerRange, LayerSet, ModelConfig};
use netsim::{JobId, Network, NodeId, Priority};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use sim_core::{SimDuration, SimTime};
use workload::ModelId;

use crate::config::{ClusterConfig, ConfigError};
use crate::group::{group_capacity_blocks, ExecGroup, GroupId};
use crate::instance::{Instance, InstanceId};
use crate::metrics::Metrics;
use crate::policy::{TransferEvent, TransferPurpose};
use crate::request::{ReqState, Request, RequestId, StallReason};

/// A pending group reconfiguration, executed once every source group is
/// idle (finished its current iteration).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reconfig {
    /// Merge groups into one pipeline group, dropping duplicated parameters.
    Merge {
        /// The groups to merge, all of which are frozen while pending.
        groups: Vec<GroupId>,
        /// Cross-model donation grants: `(borrower model, bytes)` of the
        /// freed parameter memory granted to another model's KV pool
        /// instead of this model's own. Empty for ordinary merges.
        grants: Vec<(ModelId, u64)>,
        /// The contiguous layer range whose duplicates the merge drops.
        /// `None` de-duplicates every layer (the whole-copy merge); a
        /// partial range leaves the other layers replicated on every
        /// member — the layer-granular donation path, where a lender
        /// frees only what the borrower's deficit needs.
        drop_range: Option<LayerRange>,
    },
    /// Split a pipelined group back into per-instance groups (restore).
    Split {
        /// The group to split.
        group: GroupId,
    },
}

/// One outstanding cross-model donation in the cluster's memory ledger:
/// `bytes` of a lender group's dropped-parameter memory backing `blocks`
/// of a borrower group's KV capacity.
#[derive(Debug, Clone)]
pub struct DonationRecord {
    /// The model that lent the bytes.
    pub lender: ModelId,
    /// The (merged) lender group whose instances host the bytes.
    pub lender_group: GroupId,
    /// The borrowing model.
    pub borrower: ModelId,
    /// The borrower group whose block manager holds the extent.
    pub borrower_group: GroupId,
    /// Donated bytes (on the lender's devices).
    pub bytes: u64,
    /// Blocks granted in the borrower's block manager.
    pub blocks: u32,
    /// The loan identity the borrower's extent is tagged with: lender
    /// model plus the lent layer range. Reclaiming this record lets the
    /// lender restore exactly `loan.layer_start..loan.layer_end`.
    pub loan: Loan,
    /// How the donated bytes are distributed across lender instances.
    per_instance: Vec<(InstanceId, u64)>,
}

/// Effect applied when the last job of a transfer batch completes.
#[derive(Debug, Clone)]
enum BatchEffect {
    UnstallRequests(Vec<RequestId>),
    ParamRestoreReady(GroupId),
    RecoveryReady(GroupId),
}

/// Outcome of one monitor-tick deadline sweep
/// ([`ClusterState::sweep_deadlines`]).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct DeadlineSweep {
    /// Attempts aborted this tick; the client is now waiting out its
    /// backoff and will re-send ([`ReqState::Backoff`]).
    pub aborted: Vec<RequestId>,
    /// Requests abandoned this tick — retry budget exhausted, terminal
    /// ([`ReqState::Dropped`]).
    pub abandoned: Vec<RequestId>,
    /// Backoff requests whose retry timer expired — ready for the engine
    /// to re-dispatch (or shed).
    pub due: Vec<RequestId>,
}

#[derive(Debug, Clone)]
struct TransferBatch {
    remaining: usize,
    effect: BatchEffect,
}

/// Outcome of a client-initiated cancellation
/// ([`ClusterState::cancel_request`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelOutcome {
    /// The attempt was torn down; the request is terminal
    /// ([`ReqState::Dropped`]) and its blocks are free.
    Cancelled,
    /// The request is mid-iteration or mid-transfer; the caller retries at
    /// the next idle boundary (monitor tick), mirroring the deadline
    /// sweep's conservatism.
    Deferred,
    /// The request had already finished or been dropped.
    AlreadyTerminal,
}

/// Client-visible availability of a model under the elastic load/unload
/// operations ([`ClusterState::request_unload_model`] /
/// [`ClusterState::request_load_model`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelAvailability {
    /// Serving normally.
    Available,
    /// Unload in progress: existing requests drain, new submissions should
    /// be refused by the front end.
    Draining,
    /// Fully unloaded: one frozen merged group parks a single compressed
    /// parameter copy; the dropped duplicates' bytes are lendable KV.
    Unloaded,
    /// Load in progress: ParamRestore pulls / split back to full groups.
    Loading,
}

/// Phase of one in-flight elastic model operation. `Draining → Merging →
/// Unloaded` on the unload side; `Restoring → Splitting → (removed)` on
/// the load side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ModelOpPhase {
    Draining,
    Merging,
    Unloaded,
    Restoring,
    Splitting,
}

/// One in-flight elastic model load/unload operation. Kept in a `Vec`
/// (ordered by request time) so iteration is deterministic.
#[derive(Debug, Clone, Copy)]
struct ModelOp {
    model: ModelId,
    phase: ModelOpPhase,
}

/// The complete simulated cluster.
#[derive(Debug)]
pub struct ClusterState {
    /// Static configuration.
    pub cfg: ClusterConfig,
    /// All serving instances, indexed by [`InstanceId`].
    pub instances: Vec<Instance>,
    /// Group slots; merged/split groups leave dead (`None`) slots behind so
    /// stale events are detectable.
    groups: Vec<Option<ExecGroup>>,
    /// All requests ever admitted to the cluster, indexed by [`RequestId`].
    pub requests: Vec<Request>,
    /// The inter-instance and host network.
    pub network: Network,
    /// Per-model execution-time ground truth the simulator charges
    /// (indexed by [`ModelId`]).
    pub ground_truths: Vec<GroundTruth>,
    /// Per-model fitted cost models schedulers plan with (§4.3 offline
    /// profiling), indexed by [`ModelId`].
    pub cost_models: Vec<CostParams>,
    /// Metrics collector.
    pub metrics: Metrics,
    /// Per-instance host swap pools.
    pub host_pools: Vec<HostSwapPool>,
    /// In-flight bulk transfers.
    pub pending_transfers: HashMap<JobId, TransferPurpose>,
    /// Reconfigurations waiting for their groups to go idle.
    pub pending_reconfigs: Vec<Reconfig>,
    /// Outstanding cross-model donations (lender → borrower extents).
    pub donations: Vec<DonationRecord>,
    /// Shared-prompt prefix residency per (group slot, prefix group).
    pub prefix: PrefixLedger,
    /// Deterministic RNG for execution-time noise.
    pub rng: SmallRng,
    transfer_batches: HashMap<u64, TransferBatch>,
    next_batch: u64,
    /// In-flight elastic model load/unload operations ([`crate::Action`]s).
    model_ops: Vec<ModelOp>,
}

impl ClusterState {
    /// Builds a cluster per `cfg`, panicking (with the
    /// [`ConfigError`] diagnostic) on an infeasible configuration. Use
    /// [`ClusterState::try_new`] to handle infeasibility as a value.
    pub fn new(cfg: ClusterConfig) -> Self {
        ClusterState::try_new(cfg).unwrap_or_else(|e| panic!("invalid cluster config: {e}"))
    }

    /// Builds a cluster per `cfg`: per-model instances, initial groups (of
    /// each model's `initial_group_size` members, with parameters
    /// pre-dropped for static pipeline baselines), profiled per-model cost
    /// models and an idle network.
    ///
    /// Validates the whole deployment first — every model's parameters +
    /// reserve + a non-empty KV pool must fit its instances' HBM — so an
    /// infeasible (especially multi-model) configuration fails with a
    /// typed, diagnosable [`ConfigError`] before any device is built.
    pub fn try_new(cfg: ClusterConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let mut ground_truths = Vec::new();
        let mut cost_models = Vec::new();
        for m in cfg.model_ids() {
            let gt = GroundTruth::for_model(cfg.model_cfg(m), cfg.gpu);
            // Distinct profiling seed per model keeps fits independent.
            let fitted = Profiler::new(gt.clone(), cfg.seed ^ 0xC0_57 ^ (m.0 as u64) << 32).fit();
            ground_truths.push(gt);
            cost_models.push(fitted);
        }

        let mut instances: Vec<Instance> = Vec::with_capacity(cfg.total_instances() as usize);
        let mut groups: Vec<Option<ExecGroup>> = Vec::new();
        for m in cfg.model_ids() {
            let model = cfg.model_cfg(m).clone();
            let k = cfg.group_size_of(m);
            let base_inst = instances.len() as u32;
            for i in 0..cfg.instances_of(m) {
                instances.push(Instance::for_model(InstanceId(base_inst + i), m, &cfg));
            }

            // Form this model's groups of k members; for k > 1, pre-drop
            // parameters to the per-stage partition (the vLLM-PP baseline
            // and Fig. 5).
            let num_layers = model.num_layers;
            for g in 0..(cfg.instances_of(m) / k) {
                let gid = GroupId(groups.len());
                let members: Vec<InstanceId> =
                    (0..k).map(|j| InstanceId(base_inst + g * k + j)).collect();
                let parts = partition_layers(num_layers, k);
                for (j, &mm) in members.iter().enumerate() {
                    if k > 1 {
                        let keep = LayerSet::from_range(parts[j]);
                        let drop = instances[mm.0 as usize].resident_layers().difference(&keep);
                        instances[mm.0 as usize].drop_layers(&drop);
                    }
                    instances[mm.0 as usize].group = gid;
                }
                let pools: Vec<(u64, f64)> = members
                    .iter()
                    .map(|&mm| {
                        let inst = &instances[mm.0 as usize];
                        (inst.usable_kv_bytes(), inst.layer_fraction(&model))
                    })
                    .collect();
                let capacity =
                    group_capacity_blocks(&pools, model.kv_bytes_per_token(), cfg.block_tokens);
                let fracs = pools.iter().map(|&(_, f)| f).collect();
                groups.push(Some(ExecGroup::new(
                    gid,
                    m,
                    members,
                    fracs,
                    BlockManager::new(capacity, cfg.block_tokens),
                )));
            }
        }

        let host_pools = (0..instances.len())
            .map(|_| HostSwapPool::new(cfg.host_swap_blocks))
            .collect();
        let network = Network::new(cfg.fabric);
        let rng = SmallRng::seed_from_u64(cfg.seed);
        Ok(ClusterState {
            cfg,
            instances,
            groups,
            requests: Vec::new(),
            network,
            ground_truths,
            cost_models,
            metrics: Metrics::new(),
            host_pools,
            pending_transfers: HashMap::new(),
            pending_reconfigs: Vec::new(),
            donations: Vec::new(),
            prefix: PrefixLedger::new(),
            rng,
            transfer_batches: HashMap::new(),
            next_batch: 0,
            model_ops: Vec::new(),
        })
    }

    // ------------------------------------------------------------------
    // Accessors.
    // ------------------------------------------------------------------

    /// Returns whether the group slot is alive.
    pub fn group_alive(&self, id: GroupId) -> bool {
        self.groups.get(id.0).is_some_and(|g| g.is_some())
    }

    /// The model a live group serves.
    pub fn group_model(&self, id: GroupId) -> ModelId {
        self.group(id).model
    }

    /// Architecture of the model a live group serves.
    pub fn group_model_cfg(&self, id: GroupId) -> &ModelConfig {
        self.cfg.model_cfg(self.group(id).model)
    }

    /// The fitted cost model of model `m`.
    pub fn cost_model_of(&self, m: ModelId) -> &CostParams {
        &self.cost_models[m.0 as usize]
    }

    /// Borrows a live group.
    ///
    /// # Panics
    ///
    /// Panics if the group is dead — callers must check [`Self::group_alive`]
    /// for ids that may be stale.
    pub fn group(&self, id: GroupId) -> &ExecGroup {
        self.groups[id.0].as_ref().expect("group is alive")
    }

    /// Mutably borrows a live group.
    ///
    /// # Panics
    ///
    /// Panics if the group is dead.
    pub fn group_mut(&mut self, id: GroupId) -> &mut ExecGroup {
        self.groups[id.0].as_mut().expect("group is alive")
    }

    /// Ids of all live groups, ascending.
    pub fn alive_groups(&self) -> Vec<GroupId> {
        self.alive_group_ids().collect()
    }

    /// Iterator over live group ids, ascending — the allocation-free
    /// variant for hot paths (dispatch, monitor sweeps).
    pub fn alive_group_ids(&self) -> impl Iterator<Item = GroupId> + '_ {
        self.groups
            .iter()
            .enumerate()
            .filter(|(_, g)| g.is_some())
            .map(|(i, _)| GroupId(i))
    }

    /// Borrows a request.
    pub fn request(&self, id: RequestId) -> &Request {
        &self.requests[id.0]
    }

    fn seq_key(id: RequestId) -> SeqKey {
        SeqKey(id.0 as u64)
    }

    /// First member of a group — the endpoint bulk transfers address.
    pub fn primary_node(&self, group: GroupId) -> NodeId {
        NodeId(self.group(group).members[0].0)
    }

    /// The group slot an instance currently points at (dead after the
    /// instance failed, until it rejoins).
    pub fn instance_group(&self, inst: InstanceId) -> GroupId {
        self.instances[inst.0 as usize].group
    }

    /// Applies a transient fabric degradation: newly submitted bulk jobs
    /// take `factor×` as long until [`Self::set_link_slowdown`] is called
    /// again with `1`. Recorded as a reconfiguration marker so timelines
    /// show the window.
    pub fn set_link_slowdown(&mut self, factor: u64, now: SimTime) {
        self.network.set_slowdown(factor);
        let msg = if factor > 1 {
            format!("link: degraded x{factor}")
        } else {
            "link: restored".to_string()
        };
        self.metrics.on_reconfig(now, msg);
    }

    /// The current fabric degradation factor (`1` = healthy).
    pub fn link_slowdown(&self) -> u64 {
        self.network.slowdown()
    }

    // ------------------------------------------------------------------
    // Load accounting (monitor metrics, dispatch).
    // ------------------------------------------------------------------

    /// Memory demand of a group in tokens: allocated KV plus queued
    /// head-of-line prompt demand (the paper's Llumnix-style load metric).
    pub fn group_demand_tokens(&self, id: GroupId) -> u64 {
        let g = self.group(id);
        let queued: u64 = g
            .queue
            .iter()
            .map(|&r| self.requests[r.0].prefill_target())
            .sum();
        g.blocks.used_tokens() + queued
    }

    /// Group KV capacity in tokens.
    pub fn group_capacity_tokens(&self, id: GroupId) -> u64 {
        self.group(id).blocks.capacity_tokens()
    }

    /// Cluster-wide `(demand, capacity, used)` in bytes for the memory
    /// timelines (Fig. 2 (b), Fig. 12 first column), summed across all
    /// co-served models at each model's own KV bytes/token.
    pub fn memory_totals(&self) -> (u64, u64, u64) {
        let mut demand = 0;
        let mut capacity = 0;
        let mut used = 0;
        for g in self.alive_group_ids() {
            let kv = self.group_model_cfg(g).kv_bytes_per_token();
            demand += self.group_demand_tokens(g) * kv;
            capacity += self.group_capacity_tokens(g) * kv;
            used += self.group(g).blocks.used_tokens() * kv;
        }
        (demand, capacity, used)
    }

    /// Snapshots the per-device HBM ledger (params + KV + donations +
    /// reserve per instance). See [`crate::ledger::MemoryLedger`] for the
    /// invariants it checks.
    pub fn ledger(&self) -> crate::ledger::MemoryLedger {
        crate::ledger::MemoryLedger::snapshot(self)
    }

    /// Total bytes currently lent across models.
    pub fn donated_bytes_outstanding(&self) -> u64 {
        self.donations.iter().map(|d| d.bytes).sum()
    }

    /// Whether `group`'s instances host bytes lent to another model.
    pub fn group_donations_out(&self, group: GroupId) -> bool {
        self.donations.iter().any(|d| d.lender_group == group)
    }

    /// Whether `group`'s KV pool contains borrowed extents.
    pub fn group_has_borrowed(&self, group: GroupId) -> bool {
        self.group(group).blocks.borrowed_blocks() > 0
    }

    /// Chooses the least-loaded group of `model` for a new request (the
    /// shared Llumnix-style dispatcher, §3).
    ///
    /// # Panics
    ///
    /// Panics if no live group serves `model` — traces must only reference
    /// deployed models.
    pub fn dispatch(&self, model: ModelId, input_tokens: u64) -> GroupId {
        self.alive_group_ids()
            .filter(|&g| self.group(g).model == model)
            .min_by(|&a, &b| {
                let load = |g: GroupId| {
                    (self.group_demand_tokens(g) + input_tokens) as f64
                        / self.group_capacity_tokens(g).max(1) as f64
                };
                load(a).partial_cmp(&load(b)).expect("loads are finite")
            })
            .unwrap_or_else(|| panic!("no live group serves model {model}"))
    }

    /// Records the dispatcher's decision for an arriving request: binds it
    /// to `group` and settles its shared-prefix credit against the prefix
    /// ledger. The hit/miss decision happens at dispatch time and is
    /// encoded in the request's `prefix_credit`, which `prefill_target()`
    /// then applies at admission.
    pub fn note_dispatch(&mut self, id: RequestId, group: GroupId) {
        self.requests[id.0].group = group;
        let Some(p) = self.requests[id.0].spec.prefix else {
            return;
        };
        match self.prefix.on_dispatch(group.0 as u64, p.group, p.tokens) {
            PrefixOutcome::Hit => {
                // Keep at least one prefill token so the prefill→decode
                // transition (and first-token accounting) still fires.
                let credit = p
                    .tokens
                    .min(self.requests[id.0].spec.input_tokens.saturating_sub(1));
                self.requests[id.0].prefix_credit = credit;
                self.metrics.prefix_saved_tokens += credit;
            }
            PrefixOutcome::FirstCompute => self.metrics.prefix_unique_tokens += p.tokens,
            PrefixOutcome::Recompute => self.metrics.prefix_recompute_tokens += p.tokens,
        }
    }

    // ------------------------------------------------------------------
    // Admission and release.
    // ------------------------------------------------------------------

    /// Tries to admit the request: reserves blocks for its full prefill
    /// target. Returns `false` when blocks are insufficient.
    pub fn try_admit(&mut self, id: RequestId, group: GroupId) -> bool {
        let target = self.requests[id.0].prefill_target();
        let g = self.groups[group.0].as_mut().expect("group is alive");
        if !g.blocks.can_allocate(target) {
            return false;
        }
        g.blocks
            .allocate(Self::seq_key(id), target)
            .expect("checked can_allocate");
        self.requests[id.0].state = ReqState::Running;
        true
    }

    /// Frees a finished/preempted request's blocks on its group.
    pub fn release_blocks(&mut self, id: RequestId) {
        let group = self.requests[id.0].group;
        if !self.group_alive(group) {
            return;
        }
        let g = self.groups[group.0].as_mut().expect("alive");
        let _ = g.blocks.free(Self::seq_key(id));
    }

    // ------------------------------------------------------------------
    // Mechanism: vLLM recompute preemption (Fig. 3 (a)).
    // ------------------------------------------------------------------

    /// Preempts a running request by dropping its KVCache; it re-enters the
    /// queue head and will recompute its prefill (including already
    /// generated tokens).
    pub fn preempt_recompute(&mut self, id: RequestId) {
        let group = self.requests[id.0].group;
        self.release_blocks(id);
        // Dropping the victim's KV also drops its shared prefix from the
        // serving group: the victim (requeued below, never re-dispatched)
        // pays the recompute now; later dependents pay at dispatch.
        if let Some(p) = self.requests[id.0].spec.prefix {
            if self.prefix.invalidate(group.0 as u64, p.group) {
                self.metrics.prefix_recompute_tokens += p.tokens;
            }
        }
        let req = &mut self.requests[id.0];
        req.preempt_reset();
        req.state = ReqState::Queued;
        self.metrics.on_preemption(id);
        let g = self.groups[group.0].as_mut().expect("alive");
        g.forget(id);
        g.queue.push_front(id);
    }

    /// The engine's guaranteed-progress fallback: preempts the
    /// youngest-arrival running request of the group (vLLM's policy).
    /// Returns the victim, or `None` if nothing is running.
    pub fn preempt_youngest(&mut self, group: GroupId) -> Option<RequestId> {
        let victim = {
            let g = self.group(group);
            g.running
                .iter()
                .copied()
                .max_by_key(|&r| self.requests[r.0].spec.arrival)?
        };
        self.preempt_recompute(victim);
        Some(victim)
    }

    // ------------------------------------------------------------------
    // Mechanism: swap (InferCept, Fig. 3 (b)).
    // ------------------------------------------------------------------

    /// Starts swapping a running request's KVCache out to host DRAM over
    /// PCIe. Blocks stay reserved until the transfer completes — the reason
    /// swap does not instantly relieve pressure.
    ///
    /// Returns `false` if the host pool cannot hold it.
    pub fn start_swap_out(&mut self, id: RequestId, now: SimTime) -> bool {
        let group = self.requests[id.0].group;
        let node = self.primary_node(group);
        let (blocks, tokens) = {
            let g = self.group(group);
            let key = Self::seq_key(id);
            match (g.blocks.blocks_of(key), g.blocks.tokens_of(key)) {
                (Ok(b), Ok(t)) => (b, t),
                _ => return false,
            }
        };
        let bytes = tokens * self.group_model_cfg(group).kv_bytes_per_token();
        if bytes == 0 {
            return false;
        }
        // Reserve host-pool space up front: a start-time check alone would
        // let concurrent swap-outs oversubscribe the pool by completion
        // time.
        if self.host_pools[node.0 as usize]
            .swap_out(Self::seq_key(id), blocks, tokens)
            .is_err()
        {
            return false;
        }
        let g = self.groups[group.0].as_mut().expect("alive");
        if !g.stall(id) {
            self.host_pools[node.0 as usize]
                .swap_in(Self::seq_key(id))
                .expect("just reserved");
            return false;
        }
        self.requests[id.0].state = ReqState::Stalled(StallReason::SwapOut);
        let job = self
            .network
            .submit_host(now, node, bytes, Priority::KvExchange);
        self.pending_transfers
            .insert(job, TransferPurpose::SwapOut { request: id });
        true
    }

    /// Starts swapping a parked request back in. Requires free blocks for
    /// its KV. Returns `false` if blocks or bookkeeping are missing.
    pub fn start_swap_in(&mut self, id: RequestId, now: SimTime) -> bool {
        let group = self.requests[id.0].group;
        // The KV is parked in the pool of whatever instance initiated the
        // swap-out; after a group reconfiguration that may no longer be the
        // group's primary node, so search for it.
        let key = Self::seq_key(id);
        let primary = self.primary_node(group);
        let node = if self.host_pools[primary.0 as usize].contains(key) {
            primary
        } else {
            match (0..self.host_pools.len()).find(|&n| self.host_pools[n].contains(key)) {
                Some(n) => NodeId(n as u32),
                None => return false,
            }
        };
        let Some(parked) = self.host_pools[node.0 as usize].get(Self::seq_key(id)) else {
            return false;
        };
        {
            let g = self.groups[group.0].as_mut().expect("alive");
            if !g.blocks.can_allocate(parked.tokens) {
                return false;
            }
            g.blocks
                .allocate(Self::seq_key(id), parked.tokens)
                .expect("checked");
            g.swapped.retain(|&r| r != id);
            g.stalled.push(id);
        }
        self.host_pools[node.0 as usize]
            .swap_in(Self::seq_key(id))
            .expect("parked");
        self.requests[id.0].state = ReqState::Stalled(StallReason::SwapIn);
        let bytes = parked.tokens * self.group_model_cfg(group).kv_bytes_per_token();
        let job = self
            .network
            .submit_host(now, node, bytes, Priority::KvExchange);
        self.pending_transfers
            .insert(job, TransferPurpose::SwapIn { request: id });
        true
    }

    // ------------------------------------------------------------------
    // Mechanism: migration (Llumnix, Fig. 3 (c)).
    // ------------------------------------------------------------------

    /// Starts migrating a running request to another group. The KV blocks
    /// are reserved at the destination immediately and freed at the source;
    /// the request stalls for the (short) transfer.
    ///
    /// Returns `false` if the destination cannot hold it.
    pub fn start_migration(&mut self, id: RequestId, to: GroupId, now: SimTime) -> bool {
        let from = self.requests[id.0].group;
        if from == to || !self.group_alive(to) {
            return false;
        }
        // KVCache layouts are model-specific: migration never crosses models.
        if self.group(from).model != self.group(to).model {
            return false;
        }
        let tokens = {
            let g = self.group(from);
            match g.blocks.tokens_of(Self::seq_key(id)) {
                Ok(t) => t,
                Err(_) => return false,
            }
        };
        {
            let dst = self.groups[to.0].as_mut().expect("alive");
            if !dst.blocks.can_allocate(tokens) {
                return false;
            }
            dst.blocks
                .allocate(Self::seq_key(id), tokens)
                .expect("checked");
        }
        {
            let src = self.groups[from.0].as_mut().expect("alive");
            src.blocks.free(Self::seq_key(id)).expect("had blocks");
            src.forget(id);
        }
        let bytes = (tokens * self.group_model_cfg(from).kv_bytes_per_token()).max(1);
        let src_node = self.primary_node(from);
        let dst_node = self.primary_node(to);
        let job = self
            .network
            .submit_bulk(now, src_node, dst_node, bytes, Priority::KvExchange);
        self.pending_transfers
            .insert(job, TransferPurpose::Migration { request: id });
        let req = &mut self.requests[id.0];
        req.group = to;
        req.state = ReqState::Stalled(StallReason::Migration);
        self.groups[to.0].as_mut().expect("alive").stalled.push(id);
        true
    }

    // ------------------------------------------------------------------
    // Mechanism: KunServe merge (drop) and split (restore).
    // ------------------------------------------------------------------

    /// Requests a merge: the groups freeze (finish their current iteration,
    /// start no new one) and the merge executes once all are idle.
    pub fn request_merge(&mut self, groups: Vec<GroupId>) {
        self.request_merge_ranged(groups, Vec::new(), None);
    }

    /// Requests a merge whose freed parameter memory is (partly) **donated**
    /// to other models' KV pools: each `(borrower, bytes)` grant is
    /// credited to the borrower model's most-loaded group when the merge
    /// executes, instead of growing this model's own capacity.
    ///
    /// The merge is **layer-granular**: only the duplicates of
    /// `drop_range` (`None` = all layers) are dropped, sized by the
    /// planner to the borrower's actual deficit. Layers outside the range
    /// stay replicated on every member, so the group restores them
    /// without any parameter pull.
    pub fn request_merge_ranged(
        &mut self,
        groups: Vec<GroupId>,
        grants: Vec<(ModelId, u64)>,
        drop_range: Option<LayerRange>,
    ) {
        assert!(groups.len() >= 2, "a merge needs at least two groups");
        let model = self.group(groups[0]).model;
        assert!(
            groups.iter().all(|&g| self.group(g).model == model),
            "merged groups must serve the same model"
        );
        assert!(
            grants.iter().all(|&(b, _)| b != model),
            "donation grants must cross models"
        );
        for &g in &groups {
            self.group_mut(g).frozen = true;
        }
        self.pending_reconfigs.push(Reconfig::Merge {
            groups,
            grants,
            drop_range,
        });
    }

    /// Requests a split (restore): the group freezes and splits once idle.
    ///
    /// Idempotent: a split already pending for `group` is not queued twice,
    /// so the restore path tolerates both the policy and the elastic-load
    /// machinery reacting to the same `ParamRestoreReady`.
    pub fn request_split(&mut self, group: GroupId) {
        if self
            .pending_reconfigs
            .iter()
            .any(|rc| matches!(rc, Reconfig::Split { group: g } if *g == group))
        {
            return;
        }
        self.group_mut(group).frozen = true;
        self.pending_reconfigs.push(Reconfig::Split { group });
    }

    // ------------------------------------------------------------------
    // Mechanism: cross-model KV donation (the elastic HBM ledger).
    // ------------------------------------------------------------------

    /// Executes the donation `grants` of one just-dropped merge: carves the
    /// granted bytes out of the members' freed tail growth and credits them
    /// to each borrower model's most-loaded group as a borrowed KV extent.
    ///
    /// Grants quantize down to whole borrower blocks, and are additionally
    /// capped so the lender group keeps enough usable pool for the
    /// `needed_blocks` its own admitted sequences re-register after the
    /// merge — a donor never lends KV out from under its own requests.
    /// Unfulfillable grants (no donatable headroom, no live borrower group,
    /// sub-block sliver) are dropped, never partially charged. `members`
    /// pairs each lender instance with its execution-partition fraction.
    /// Returns the bytes donated.
    fn execute_donation_grants(
        &mut self,
        members: &[(InstanceId, f64)],
        lender: ModelId,
        lender_group: GroupId,
        needed_blocks: u64,
        grants: &[(ModelId, u64)],
        now: SimTime,
    ) -> u64 {
        let mut total = 0u64;
        let lender_model = self.cfg.model_cfg(lender).clone();
        let lender_kv = lender_model.kv_bytes_per_token();
        let num_layers = lender_model.num_layers;
        let layer_bytes = lender_model.layer_param_bytes();
        // One block of per-member slack absorbs the float rounding between
        // byte pools and block capacities.
        let tokens_needed = (needed_blocks + 1) * self.cfg.block_tokens as u64;
        // Per-member donatable headroom: tail growth not yet lent, minus
        // what the member must retain to carry its share of the group's
        // admitted KV.
        fn member_cap(inst: &Instance, frac: f64, lender_kv: u64, tokens_needed: u64) -> u64 {
            let retain = (tokens_needed as f64 * lender_kv as f64 * frac).ceil() as u64;
            inst.donatable_bytes()
                .min(inst.usable_kv_bytes().saturating_sub(retain))
        }
        for &(borrower, want) in grants {
            debug_assert_ne!(borrower, lender, "grants cross models");
            let donatable: u64 = members
                .iter()
                .map(|&(m, frac)| {
                    member_cap(
                        &self.instances[m.0 as usize],
                        frac,
                        lender_kv,
                        tokens_needed,
                    )
                })
                .sum();
            let kv_per_block =
                self.cfg.model_cfg(borrower).kv_bytes_per_token() * self.cfg.block_tokens as u64;
            let blocks = (want.min(donatable) / kv_per_block.max(1)) as u32;
            if blocks == 0 {
                continue;
            }
            // The borrower's most-loaded live group consumes the grant
            // (deterministic: max demand tokens, ties to the lowest id).
            let Some(bg) = self
                .alive_group_ids()
                .filter(|&g| self.group(g).model == borrower)
                .max_by_key(|&g| (self.group_demand_tokens(g), std::cmp::Reverse(g.0)))
            else {
                continue;
            };
            let bytes = blocks as u64 * kv_per_block;
            // Charge lender instances in member order.
            let mut per_instance = Vec::new();
            let mut left = bytes;
            for &(m, frac) in members {
                if left == 0 {
                    break;
                }
                let take = member_cap(
                    &self.instances[m.0 as usize],
                    frac,
                    lender_kv,
                    tokens_needed,
                )
                .min(left);
                if take > 0 {
                    self.instances[m.0 as usize].donate_out(take);
                    per_instance.push((m, take));
                    left -= take;
                }
            }
            debug_assert_eq!(left, 0, "donatable re-checked above");
            // The loan identity: the topmost lent layer slice not already
            // out on loan from this lender group. Nominal when grants wrap
            // past a full copy; exact (and disjoint) in the common
            // sub-copy case — which is what makes "reclaim this range ⇒
            // restore exactly these layers" well-defined.
            let lent_layers = layers_covering(bytes, layer_bytes).min(num_layers);
            let already: u32 = self
                .donations
                .iter()
                .filter(|d| d.lender_group == lender_group)
                .map(|d| d.loan.layers())
                .sum();
            let end = num_layers - (already % num_layers.max(1));
            let loan = Loan {
                lender: lender.0,
                layer_start: end.saturating_sub(lent_layers),
                layer_end: end,
            };
            self.group_mut(bg)
                .blocks
                .grow_extent(ExtentTag::Borrowed(loan), blocks);
            self.donations.push(DonationRecord {
                lender,
                lender_group,
                borrower,
                borrower_group: bg,
                bytes,
                blocks,
                loan,
                per_instance,
            });
            total += bytes;
            self.metrics.on_reconfig(
                now,
                format!(
                    "donate: {bytes}B layers[{},{}) {lender} -> {borrower} (g{})",
                    loan.layer_start, loan.layer_end, bg.0
                ),
            );
        }
        if total > 0 {
            let outstanding = self.donated_bytes_outstanding();
            self.metrics.on_donation_outstanding(outstanding);
        }
        total
    }

    /// Attempts to reclaim every donation lent by `lender_group`: each
    /// borrower's borrowed extent must shrink (requiring free blocks — the
    /// borrower drains its borrowed share first), then the bytes return to
    /// the lender instances. Returns `true` when no donation from
    /// `lender_group` remains outstanding — the precondition for starting
    /// the lender's parameter restore.
    pub fn try_reclaim_donations(&mut self, lender_group: GroupId, now: SimTime) -> bool {
        self.reclaim_matching(|d| d.lender_group == lender_group, false, true, now);
        !self.group_donations_out(lender_group)
    }

    /// Attempts to hand back every extent `borrower_group` borrowed (the
    /// borrower-initiated return when its own demand subsides). Returns
    /// `true` if nothing borrowed remains.
    pub fn try_return_borrowed(&mut self, borrower_group: GroupId, now: SimTime) -> bool {
        self.reclaim_matching(|d| d.borrower_group == borrower_group, false, true, now);
        !self
            .donations
            .iter()
            .any(|d| d.borrower_group == borrower_group)
    }

    /// Reclaims donations matching `pred`. With `force`, the borrower's
    /// youngest admitted requests are recompute-preempted until the shrink
    /// succeeds (the fault-tolerance path: the lender's memory is going
    /// away *now*). Without it, donations whose borrower cannot yet free
    /// enough blocks stay outstanding for a later retry.
    ///
    /// With `restore_params`, a reclaimed loan immediately restores
    /// **exactly the lent layer range** on the lender's members (the
    /// layer-granular reclaim ⇒ restore ordering; parameter values come
    /// from the host-DRAM replica as in §4.4). Any reclaimed bytes not
    /// absorbed by whole-layer restores — block-quantization slack, or
    /// layers outside a member's own drop — regrow the lender group's
    /// pool instead, so the capacity its sequences rely on never shrinks.
    /// The merge roll-back path passes `false`: there the bytes must come
    /// back as KV capacity, not as parameters.
    fn reclaim_matching(
        &mut self,
        pred: impl Fn(&DonationRecord) -> bool,
        force: bool,
        restore_params: bool,
        now: SimTime,
    ) {
        let mut remaining = Vec::new();
        let mut records = std::mem::take(&mut self.donations);
        for d in records.drain(..) {
            if !pred(&d) {
                remaining.push(d);
                continue;
            }
            let reclaimed = loop {
                if !self.group_alive(d.borrower_group) {
                    // The borrower group died with its blocks; the bytes
                    // simply return to the lender.
                    break true;
                }
                let tag = ExtentTag::Borrowed(d.loan);
                match self
                    .group_mut(d.borrower_group)
                    .blocks
                    .shrink_extent(tag, d.blocks)
                {
                    Ok(()) => break true,
                    Err(KvError::ShrinkBelowUsage { .. }) if force => {
                        if self.preempt_youngest_admitted(d.borrower_group).is_none() {
                            break true; // nothing left to hold blocks
                        }
                    }
                    Err(_) => break false,
                }
            };
            if reclaimed {
                let mut restore_ops = 0usize;
                for &(m, bytes) in &d.per_instance {
                    self.instances[m.0 as usize].reclaim_donated(bytes);
                    if restore_params {
                        restore_ops += self.restore_loaned_layers(m, &d.loan, bytes);
                    }
                }
                // Whatever the layer restores did not consume is
                // remapped-parameter memory on the lender's devices again:
                // grow the lender group's pool so it is usable immediately,
                // not only after its next reconfiguration (the lender may
                // keep serving merged for a long time before a restore).
                self.regrow_lender_capacity(d.lender_group, d.lender);
                if restore_ops > 0 && self.group_alive(d.lender_group) {
                    let overhead = simgpu::timing::remap_cost(restore_ops);
                    self.group_mut(d.lender_group).pending_overhead += overhead;
                }
                self.metrics.on_reconfig(
                    now,
                    format!(
                        "reclaim: {bytes}B layers[{s},{e}) {lender} <- {borrower} \
                         ({restore_ops} restored)",
                        bytes = d.bytes,
                        s = d.loan.layer_start,
                        e = d.loan.layer_end,
                        lender = d.lender,
                        borrower = d.borrower
                    ),
                );
            } else {
                remaining.push(d);
            }
        }
        self.donations = remaining;
    }

    /// Restores the dropped layers of `loan`'s range on one lender member,
    /// capped to whole layers the member's reclaimed `bytes` cover — the
    /// reclaimed bytes *are* those layers' parameter memory, so restoring
    /// within the cap can never cut into other loans or into KV capacity
    /// the member's group still counts on. Returns the remap op count.
    fn restore_loaned_layers(&mut self, m: InstanceId, loan: &Loan, bytes: u64) -> usize {
        let inst = &self.instances[m.0 as usize];
        let stride = inst.layer_stride_bytes().max(1);
        let budget = (bytes / stride) as u32;
        if budget == 0 {
            return 0;
        }
        let range = LayerRange::new(loan.layer_start, loan.layer_end);
        let dropped_in_range = {
            let resident = inst.resident_layers();
            let mut ls: Vec<u32> = (range.start..range.end)
                .filter(|&l| !resident.contains(l))
                .collect();
            // Prefer the topmost layers — the slice the loan nominally
            // covers is allocated top-down.
            ls.sort_unstable_by(|a, b| b.cmp(a));
            ls.truncate(budget as usize);
            ls
        };
        if dropped_in_range.is_empty() {
            return 0;
        }
        let set =
            LayerSet::from_ranges(dropped_in_range.iter().map(|&l| LayerRange::new(l, l + 1)));
        self.instances[m.0 as usize].restore_layers(&set)
    }

    /// Recomputes a lender group's block capacity from its members'
    /// current usable pools and grows the non-borrowed share up to it (as
    /// a [`ExtentTag::Remap`] extent — reclaimed bytes *are* remapped
    /// parameter memory). Growth only; shrinking happens through the
    /// explicit extent paths.
    fn regrow_lender_capacity(&mut self, group: GroupId, lender: ModelId) {
        if !self.group_alive(group) {
            return;
        }
        let model = self.cfg.model_cfg(lender).clone();
        // KV distribution follows the *execution* partition (stage_fracs),
        // not parameter residency — a partially-merged member may hold
        // spare replica layers it does not execute.
        let g = self.group(group);
        let pools: Vec<(u64, f64)> = g
            .members
            .iter()
            .zip(&g.stage_fracs)
            .map(|(&m, &frac)| {
                let inst = &self.instances[m.0 as usize];
                (inst.usable_kv_bytes(), frac)
            })
            .collect();
        let cap = group_capacity_blocks(&pools, model.kv_bytes_per_token(), self.cfg.block_tokens);
        let g = self.group_mut(group);
        let native = g.blocks.native_capacity_blocks();
        if cap > native {
            g.blocks.grow_extent(ExtentTag::Remap, cap - native);
        }
    }

    /// Recompute-preempts the youngest admitted (running or stalled)
    /// request of `group`, freeing its blocks. Returns the victim.
    fn preempt_youngest_admitted(&mut self, group: GroupId) -> Option<RequestId> {
        let victim = {
            let g = self.group(group);
            g.admitted()
                .max_by_key(|&r| (self.requests[r.0].spec.arrival, r))?
        };
        self.preempt_recompute(victim);
        Some(victim)
    }

    /// Returns `true` if any reconfiguration is pending.
    pub fn has_pending_reconfigs(&self) -> bool {
        !self.pending_reconfigs.is_empty()
    }

    /// Executes every pending reconfiguration whose groups are idle.
    /// Returns the newly created groups.
    pub fn execute_ready_reconfigs(&mut self, now: SimTime) -> Vec<GroupId> {
        let mut created = Vec::new();
        let pending = std::mem::take(&mut self.pending_reconfigs);
        for rc in pending {
            // A reconfig referencing a dead group (a member failed while it
            // waited) can never become ready: abandon it instead of
            // re-queueing forever, unfreezing any survivors.
            let dead = match &rc {
                Reconfig::Merge { groups, .. } => groups.iter().any(|&g| !self.group_alive(g)),
                Reconfig::Split { group } => !self.group_alive(*group),
            };
            if dead {
                if let Reconfig::Merge { groups, .. } = &rc {
                    for &g in groups {
                        if self.group_alive(g) {
                            self.group_mut(g).frozen = false;
                        }
                    }
                    self.metrics
                        .on_reconfig(now, "merge-abandoned: member group died");
                } else {
                    self.metrics.on_reconfig(now, "split-abandoned: group died");
                }
                continue;
            }
            let ready = match &rc {
                Reconfig::Merge { groups, .. } => groups.iter().all(|&g| !self.group(g).is_busy()),
                Reconfig::Split { group } => !self.group(*group).is_busy(),
            };
            if !ready {
                self.pending_reconfigs.push(rc);
                continue;
            }
            match rc {
                Reconfig::Merge {
                    groups,
                    grants,
                    drop_range,
                } => match self.merge_groups(&groups, &grants, drop_range, now) {
                    Ok(g) => created.push(g),
                    Err(msg) => {
                        // Unfreeze and abandon; the policy will retry.
                        for &g in &groups {
                            if self.group_alive(g) {
                                self.group_mut(g).frozen = false;
                            }
                        }
                        self.metrics
                            .on_reconfig(now, format!("merge-failed: {msg}"));
                    }
                },
                Reconfig::Split { group } => match self.split_group(group, now) {
                    Ok(gs) => created.extend(gs),
                    Err(_busy) => {
                        // Usage crept back above the restorable level; keep
                        // the group pipelined and let the policy retry.
                        if self.group_alive(group) {
                            self.group_mut(group).frozen = false;
                        }
                        self.metrics.on_reconfig(now, "split-deferred");
                    }
                },
            }
        }
        created
    }

    /// Merges idle groups into one pipeline group: computes the per-member
    /// layer partition, executes the parameter drops (VMM remap) — all
    /// duplicated layers, or only those inside `drop_range` for a
    /// layer-granular (donation-sized) merge — rebuilds the block
    /// accounting (carrying borrowed extents across), executes any
    /// cross-model donation `grants` out of the freed memory, moves
    /// requests across and launches the KVCache exchange for admitted
    /// sequences.
    ///
    /// Every member executes (and stores KV for) its slice of the pipeline
    /// partition; under a partial `drop_range` it additionally *retains*
    /// replica copies of the layers outside the range, so restoring those
    /// layers later needs no parameter pull.
    fn merge_groups(
        &mut self,
        group_ids: &[GroupId],
        grants: &[(ModelId, u64)],
        drop_range: Option<LayerRange>,
        now: SimTime,
    ) -> Result<GroupId, String> {
        let model_id = self.group(group_ids[0]).model;
        let model = self.cfg.model_cfg(model_id).clone();
        let num_layers = model.num_layers;
        let range = drop_range.unwrap_or_else(|| LayerRange::new(0, num_layers));
        let range_set = LayerSet::from_range(LayerRange::new(
            range.start.min(num_layers),
            range.end.min(num_layers),
        ));
        // Capture pre-drop membership and *execution* fractions: the
        // exchange volume depends on how KV was distributed before the
        // merge, and KV follows the execution partition (a member may
        // hold spare replica layers it does not execute after a partial
        // merge).
        let mut old_members_of: HashMap<GroupId, Vec<InstanceId>> = HashMap::new();
        let mut old_frac_of: HashMap<InstanceId, f64> = HashMap::new();
        for &g in group_ids {
            let grp = self.group(g);
            let ms = grp.members.clone();
            for (&m, &f) in ms.iter().zip(&grp.stage_fracs) {
                old_frac_of.insert(m, f);
            }
            old_members_of.insert(g, ms);
        }
        // Collect members with their current resident spans, then order by
        // (start, len) so each member's new partition nests inside what it
        // already holds (smaller residents first breaks full-copy ties).
        let mut members: Vec<InstanceId> = Vec::new();
        for &g in group_ids {
            members.extend(self.group(g).members.iter().copied());
        }
        members.sort_by_key(|&m| {
            let r = self.instances[m.0 as usize].resident_layers();
            let start = r.ranges().first().map_or(0, |r| r.start);
            (start, r.len())
        });
        let parts = partition_layers(num_layers, members.len() as u32);
        let exec_fracs: Vec<f64> = parts
            .iter()
            .map(|p| p.len() as f64 / num_layers as f64)
            .collect();
        // Per-member target residency: its execution slice plus, under a
        // partial range, every currently-resident layer outside the range
        // (kept as replica copies for pull-free restore).
        let target_of = |state: &Self, i: usize, m: InstanceId| -> LayerSet {
            let resident = state.instances[m.0 as usize].resident_layers();
            LayerSet::from_range(parts[i]).union(&resident.difference(&range_set))
        };
        for (i, &m) in members.iter().enumerate() {
            let slice = LayerSet::from_range(parts[i]);
            let resident = self.instances[m.0 as usize].resident_layers();
            if !slice.difference(resident).is_empty() {
                return Err(format!(
                    "member {m} holds {resident} which does not cover {slice}",
                    resident = resident,
                    slice = slice
                ));
            }
        }

        // Feasibility pre-check, BEFORE any mutation: the merged pool
        // (usable bytes after the planned drops, minus nothing — donation
        // grants below are separately capped) must hold every admitted
        // block the constituents will re-register. This can genuinely
        // fail when members still have bytes lent out to another model
        // (`donated_out`), so the merge defers cleanly instead of
        // corrupting the group table halfway through.
        let needed_blocks: u64 = group_ids
            .iter()
            .map(|&g| self.group(g).blocks.used_blocks() as u64)
            .sum();
        let (_, layer_bytes) = ClusterConfig::param_layout(&model);
        let pools_after: Vec<(u64, f64)> = members
            .iter()
            .enumerate()
            .map(|(i, &m)| {
                let target = target_of(self, i, m);
                let inst = &self.instances[m.0 as usize];
                let gained = inst
                    .resident_layers()
                    .difference(&target)
                    .param_bytes(layer_bytes);
                (inst.usable_kv_bytes() + gained, exec_fracs[i])
            })
            .collect();
        let capacity_after = group_capacity_blocks(
            &pools_after,
            model.kv_bytes_per_token(),
            self.cfg.block_tokens,
        );
        if (capacity_after as u64) < needed_blocks {
            return Err(format!(
                "merged pool holds {capacity_after} blocks but members have \
                 {needed_blocks} admitted (bytes lent out?)"
            ));
        }

        // Execute the drops; total VMM ops determine the remap stall.
        let mut ops = 0;
        for (i, &m) in members.iter().enumerate() {
            let target = target_of(self, i, m);
            let inst = &mut self.instances[m.0 as usize];
            let drop = inst.resident_layers().difference(&target);
            if !drop.is_empty() {
                ops += inst.drop_layers(&drop);
            }
        }

        // Execute donation grants out of the freed (undonated tail) memory
        // *before* sizing the new group's pool: donated bytes belong to the
        // borrower, not this group. Grants are capped so the merged group
        // retains capacity for the blocks its admitted sequences will
        // re-register below.
        let new_id = GroupId(self.groups.len());
        let member_shares: Vec<(InstanceId, f64)> = members
            .iter()
            .enumerate()
            .map(|(i, &m)| (m, exec_fracs[i]))
            .collect();
        self.execute_donation_grants(&member_shares, model_id, new_id, needed_blocks, grants, now);

        // New group bookkeeping over the *usable* (undonated) pools,
        // distributed by the execution partition.
        let member_pools = |state: &Self| -> Vec<(u64, f64)> {
            members
                .iter()
                .enumerate()
                .map(|(i, &m)| {
                    let inst = &state.instances[m.0 as usize];
                    (inst.usable_kv_bytes(), exec_fracs[i])
                })
                .collect()
        };
        let mut pools = member_pools(self);
        let mut capacity =
            group_capacity_blocks(&pools, model.kv_bytes_per_token(), self.cfg.block_tokens);
        if (capacity as u64) < needed_blocks {
            // The grant-retention math (`member_cap`) and the capacity
            // floor disagreed — possible only through float rounding at
            // extreme shapes. Recovery, not corruption: the grants were
            // created this instant, so the borrower extents are untouched
            // and the roll-back cannot fail; the full pools then satisfy
            // the feasibility pre-check above.
            self.reclaim_matching(|d| d.lender_group == new_id, false, false, now);
            pools = member_pools(self);
            capacity =
                group_capacity_blocks(&pools, model.kv_bytes_per_token(), self.cfg.block_tokens);
            debug_assert!(
                (capacity as u64) >= needed_blocks,
                "pre-checked capacity lost without donations"
            );
        }
        // Whatever survived the (unlikely) roll-back is what was donated.
        let executed_grants: u64 = self
            .donations
            .iter()
            .filter(|d| d.lender_group == new_id)
            .map(|d| d.bytes)
            .sum();
        let fracs: Vec<f64> = pools.iter().map(|&(_, f)| f).collect();
        let mut new_group = ExecGroup::new(
            new_id,
            model_id,
            members.clone(),
            fracs,
            BlockManager::new(capacity, self.cfg.block_tokens),
        );

        // Carry borrowed extents held by the constituent groups into the
        // new manager (before sequences re-register, so spilled usage
        // still fits) and retarget their ledger records. Lender-side
        // records of constituents merging deeper retarget too.
        for &gid in group_ids {
            let old = self.groups[gid.0].as_ref().expect("alive");
            for loan in old.blocks.loans() {
                let tag = ExtentTag::Borrowed(loan);
                new_group
                    .blocks
                    .grow_extent(tag, old.blocks.extent_blocks(tag));
            }
        }
        for d in &mut self.donations {
            if group_ids.contains(&d.borrower_group) {
                d.borrower_group = new_id;
            }
            if group_ids.contains(&d.lender_group) {
                d.lender_group = new_id;
            }
        }

        // Move requests: queued (merged by arrival), admitted (re-allocate),
        // swapped (carried over).
        let mut queued: Vec<RequestId> = Vec::new();
        let mut admitted_running: Vec<RequestId> = Vec::new();
        let mut admitted_stalled: Vec<RequestId> = Vec::new();
        let mut swapped: Vec<RequestId> = Vec::new();
        let mut exchange_seqs: Vec<(RequestId, u64, GroupId)> = Vec::new();
        for &gid in group_ids {
            let old = self.groups[gid.0].take().expect("alive");
            for &r in &old.queue {
                queued.push(r);
            }
            for &r in &old.running {
                let tokens = old.blocks.tokens_of(Self::seq_key(r)).expect("admitted");
                admitted_running.push(r);
                exchange_seqs.push((r, tokens, gid));
            }
            for &r in &old.stalled {
                let tokens = old.blocks.tokens_of(Self::seq_key(r)).expect("admitted");
                admitted_stalled.push(r);
                exchange_seqs.push((r, tokens, gid));
            }
            swapped.extend(old.swapped.iter().copied());
        }
        queued.sort_by_key(|&r| (self.requests[r.0].spec.arrival, r));
        for (r, tokens, _) in &exchange_seqs {
            new_group
                .blocks
                .allocate(Self::seq_key(*r), *tokens)
                .map_err(|e| format!("re-registering KV failed: {e}"))?;
        }
        new_group.queue.extend(queued.iter().copied());
        // Running sequences stall until their KV exchange completes; already
        // stalled ones stay stalled (their own transfers are still pending).
        new_group.stalled.extend(admitted_running.iter().copied());
        new_group.stalled.extend(admitted_stalled.iter().copied());
        new_group.swapped = swapped;
        for &r in queued
            .iter()
            .chain(&admitted_running)
            .chain(&admitted_stalled)
        {
            self.requests[r.0].group = new_id;
        }
        for &r in &new_group.swapped.clone() {
            self.requests[r.0].group = new_id;
        }
        for &r in &admitted_running {
            self.requests[r.0].state = ReqState::Stalled(StallReason::KvExchange);
        }
        for &m in &members {
            self.instances[m.0 as usize].group = new_id;
        }

        // KVCache exchange: each sequence's KV must be redistributed to the
        // new layer partition. A sequence formerly on member set S held
        // `kv × old_frac(m)` on each m ∈ S (fractions summing to 1); now
        // every member of the merged group holds `kv × new_frac(m)`. Bytes
        // leaving each member are aggregated into one bulk job per member
        // (to its ring neighbor), coordinated-chunked by the network.
        let kv_per_token = model.kv_bytes_per_token();
        let new_frac_of: HashMap<InstanceId, f64> = members
            .iter()
            .enumerate()
            .map(|(i, &m)| (m, exec_fracs[i]))
            .collect();
        let mut outgoing: HashMap<InstanceId, u64> = HashMap::new();
        for &(_, tokens, old_gid) in &exchange_seqs {
            let kv_bytes = (tokens * kv_per_token) as f64;
            for &m in &old_members_of[&old_gid] {
                let old_share = kv_bytes * old_frac_of[&m];
                let leaving = (old_share - kv_bytes * new_frac_of[&m]).max(0.0) as u64;
                if leaving > 0 {
                    *outgoing.entry(m).or_insert(0) += leaving;
                }
            }
        }

        let stalled_now: Vec<RequestId> = new_group.stalled.clone();
        let slot = new_id;
        self.groups.push(Some(new_group));

        if !outgoing.is_empty() {
            let batch = self.next_batch;
            self.next_batch += 1;
            let mut jobs = 0;
            let mut pairs: Vec<(InstanceId, u64)> = outgoing.into_iter().collect();
            pairs.sort();
            for (src, bytes) in pairs {
                // Ring neighbor inside the new group.
                let idx = members.iter().position(|&m| m == src).expect("member");
                let dst = members[(idx + 1) % members.len()];
                let job = self.network.submit_bulk(
                    now,
                    NodeId(src.0),
                    NodeId(dst.0),
                    bytes,
                    Priority::KvExchange,
                );
                self.pending_transfers
                    .insert(job, TransferPurpose::ExchangePart { batch });
                jobs += 1;
            }
            self.transfer_batches.insert(
                batch,
                TransferBatch {
                    remaining: jobs,
                    effect: BatchEffect::UnstallRequests(stalled_now),
                },
            );
        } else {
            // Nothing to exchange (no admitted sequences): unstall at once.
            let g = self.groups[slot.0].as_mut().expect("alive");
            let ids: Vec<RequestId> = g.stalled.drain(..).collect();
            for r in ids {
                g.running.push(r);
                self.requests[r.0].state = ReqState::Running;
            }
        }

        // Charge the VMM remap as start-up overhead for the new group.
        let overhead = simgpu::timing::remap_cost(ops);
        self.group_mut(slot).pending_overhead = overhead;
        let donated_note = if executed_grants > 0 {
            format!(" donated={executed_grants}B")
        } else {
            String::new()
        };
        let range_note = match drop_range {
            Some(r) => format!(" range[{},{})", r.start, r.end),
            None => String::new(),
        };
        self.metrics.on_reconfig(
            now,
            format!(
                "drop: merged {} groups into {} stages ({model_id}){range_note}{donated_note}",
                group_ids.len(),
                members.len()
            ),
        );
        Ok(slot)
    }

    /// Starts background parameter-restoration pulls for a pipelined group
    /// (§4.4): each member pulls its dropped layers from a peer that still
    /// holds them, at background priority. When every pull completes the
    /// engine surfaces [`TransferEvent::ParamRestoreReady`].
    ///
    /// Returns `false` if the group has nothing to restore or a restore is
    /// already pending.
    pub fn start_param_restore(&mut self, group: GroupId, now: SimTime) -> bool {
        if !self.group_alive(group) {
            return false;
        }
        let members = self.group(group).members.clone();
        if members.len() < 2 {
            return false;
        }
        let layer_bytes = self.group_model_cfg(group).layer_param_bytes();
        let mut jobs = Vec::new();
        for (i, &m) in members.iter().enumerate() {
            let dropped = self.instances[m.0 as usize].dropped_layers() as u64;
            if dropped == 0 {
                continue;
            }
            let bytes = dropped * layer_bytes;
            // Pull from the ring predecessor (which holds adjacent layers).
            let src = members[(i + members.len() - 1) % members.len()];
            jobs.push((src, m, bytes));
        }
        if jobs.is_empty() {
            return false;
        }
        let batch = self.next_batch;
        self.next_batch += 1;
        let n = jobs.len();
        for (src, dst, bytes) in jobs {
            let job = self.network.submit_bulk(
                now,
                NodeId(src.0),
                NodeId(dst.0),
                bytes,
                Priority::ParamRestore,
            );
            self.pending_transfers
                .insert(job, TransferPurpose::RestorePart { batch });
        }
        self.transfer_batches.insert(
            batch,
            TransferBatch {
                remaining: n,
                effect: BatchEffect::ParamRestoreReady(group),
            },
        );
        self.metrics
            .on_reconfig(now, "restore: parameter pulls started");
        true
    }

    /// Splits an idle pipelined group back into per-instance groups:
    /// shrinks block accounting, remaps parameters home, redistributes
    /// requests and launches KV consolidation transfers.
    ///
    /// Fails (leaving the group intact) if current KV usage no longer fits
    /// the restored per-instance capacities, or if any member still has
    /// donated-out bytes outstanding — the tail being restored *is* the
    /// lent memory, so the donation must be reclaimed first (the ledger's
    /// restore-ordering invariant).
    fn split_group(&mut self, gid: GroupId, now: SimTime) -> Result<Vec<GroupId>, ()> {
        let members = self.group(gid).members.clone();
        if members.len() < 2 {
            return Err(());
        }
        if members
            .iter()
            .any(|&m| self.instances[m.0 as usize].donated_out_bytes() > 0)
        {
            return Err(()); // reclaim donations before restoring parameters
        }
        let model_id = self.group(gid).model;
        let kv_per_token = self.group_model_cfg(gid).kv_bytes_per_token();
        let block_tokens = self.cfg.block_tokens;
        // Restoring every layer shrinks each member's pool back to its base
        // extent, which sets the new groups' native block capacities.
        let pools: Vec<u64> = members
            .iter()
            .map(|&m| self.instances[m.0 as usize].kv_base_bytes())
            .collect();
        let pool_blocks: Vec<u32> = pools
            .iter()
            .map(|&pool| group_capacity_blocks(&[(pool, 1.0)], kv_per_token, block_tokens))
            .collect();
        // Planning capacity per member: in tokens to order the placement,
        // in whole blocks to check it. Extents this group borrowed from
        // other models survive the split attached to the first new group,
        // so its capacity includes them.
        let borrowed_blocks = self.group(gid).blocks.borrowed_blocks();
        let mut token_caps: Vec<u64> = pools.iter().map(|&pool| pool / kv_per_token).collect();
        token_caps[0] += u64::from(borrowed_blocks) * u64::from(block_tokens);
        let mut block_caps = pool_blocks.clone();
        block_caps[0] += borrowed_blocks;

        // Plan request placement: best fit by tokens, each sequence charged
        // the whole blocks its new group will allocate for it.
        let old = self.group(gid);
        let mut admitted: Vec<(RequestId, u64)> = old
            .admitted()
            .map(|r| (r, old.blocks.tokens_of(Self::seq_key(r)).expect("admitted")))
            .collect();
        admitted.sort_by_key(|&(r, t)| (std::cmp::Reverse(t), r));
        let mut loads: Vec<u64> = vec![0; members.len()];
        let mut load_blocks: Vec<u32> = vec![0; members.len()];
        let mut placement: Vec<(RequestId, usize, u64)> = Vec::new();
        for (r, tokens) in admitted {
            // Best fit: the member with most free capacity.
            let (idx, _) = loads
                .iter()
                .enumerate()
                .min_by_key(|&(i, &l)| (l as i64 - token_caps[i] as i64, i))
                .expect("members non-empty");
            let blocks = old.blocks.blocks_for(tokens);
            if load_blocks[idx] + blocks > block_caps[idx] {
                return Err(()); // does not fit; defer the split
            }
            loads[idx] += tokens;
            load_blocks[idx] += blocks;
            placement.push((r, idx, tokens));
        }

        // Commit: take the group, restore parameters, build new groups.
        let old = self.groups[gid.0].take().expect("alive");
        let mut ops = 0;
        for &m in &members {
            ops += self.instances[m.0 as usize].restore_all();
        }
        let mut new_ids = Vec::new();
        let base = self.groups.len();
        for (i, (&m, &cap)) in members.iter().zip(&pool_blocks).enumerate() {
            let id = GroupId(base + i);
            debug_assert_eq!(
                self.instances[m.0 as usize].usable_kv_bytes(),
                self.instances[m.0 as usize].kv_base_bytes(),
                "a restored pool is its base extent"
            );
            let blocks = BlockManager::new(cap, block_tokens);
            self.groups.push(Some(ExecGroup::new(
                id,
                model_id,
                vec![m],
                vec![1.0],
                blocks,
            )));
            self.instances[m.0 as usize].group = id;
            new_ids.push(id);
        }

        // Extents this group borrowed from other models survive on the
        // first new group (planned into `capacities[0]` above).
        for loan in old.blocks.loans() {
            let tag = ExtentTag::Borrowed(loan);
            self.groups[new_ids[0].0]
                .as_mut()
                .expect("alive")
                .blocks
                .grow_extent(tag, old.blocks.extent_blocks(tag));
        }
        for d in &mut self.donations {
            if d.borrower_group == gid {
                d.borrower_group = new_ids[0];
            }
        }

        // Place admitted sequences; they stall for KV consolidation.
        let mut per_dest_bytes: Vec<u64> = vec![0; members.len()];
        let mut stalled_ids: Vec<RequestId> = Vec::new();
        for &(r, idx, tokens) in &placement {
            let dest = new_ids[idx];
            let g = self.groups[dest.0].as_mut().expect("alive");
            g.blocks
                .allocate(Self::seq_key(r), tokens)
                .expect("planned to fit");
            g.stalled.push(r);
            self.requests[r.0].group = dest;
            self.requests[r.0].state = ReqState::Stalled(StallReason::KvExchange);
            stalled_ids.push(r);
            // The dest already holds `frac(dest)` of this KV; the rest moves.
            let frac = 1.0 / members.len() as f64;
            per_dest_bytes[idx] += ((tokens * kv_per_token) as f64 * (1.0 - frac)) as u64;
        }

        // Queue redistribution: round-robin by arrival order.
        let mut queued: Vec<RequestId> = old.queue.iter().copied().collect();
        queued.sort_by_key(|&r| (self.requests[r.0].spec.arrival, r));
        for (i, r) in queued.into_iter().enumerate() {
            let dest = new_ids[i % new_ids.len()];
            self.groups[dest.0]
                .as_mut()
                .expect("alive")
                .queue
                .push_back(r);
            self.requests[r.0].group = dest;
        }
        // Swapped sequences follow their host pool's instance (member 0 of
        // the old group held the pool).
        for &r in &old.swapped {
            let dest = new_ids[0];
            self.groups[dest.0].as_mut().expect("alive").swapped.push(r);
            self.requests[r.0].group = dest;
        }

        // Consolidation transfers: one inbound job per destination.
        if !stalled_ids.is_empty() {
            let batch = self.next_batch;
            self.next_batch += 1;
            let mut jobs = 0;
            for (idx, &bytes) in per_dest_bytes.iter().enumerate() {
                if bytes == 0 {
                    continue;
                }
                let dst = members[idx];
                let src = members[(idx + 1) % members.len()];
                let job = self.network.submit_bulk(
                    now,
                    NodeId(src.0),
                    NodeId(dst.0),
                    bytes,
                    Priority::KvExchange,
                );
                self.pending_transfers
                    .insert(job, TransferPurpose::ExchangePart { batch });
                jobs += 1;
            }
            if jobs > 0 {
                self.transfer_batches.insert(
                    batch,
                    TransferBatch {
                        remaining: jobs,
                        effect: BatchEffect::UnstallRequests(stalled_ids),
                    },
                );
            } else {
                for r in stalled_ids {
                    let g = self.groups[self.requests[r.0].group.0]
                        .as_mut()
                        .expect("alive");
                    g.unstall(r);
                    self.requests[r.0].state = ReqState::Running;
                }
            }
        }

        let overhead = simgpu::timing::remap_cost(ops) / new_ids.len() as u64;
        for &id in &new_ids {
            self.group_mut(id).pending_overhead = overhead;
        }
        self.metrics.on_reconfig(
            now,
            format!(
                "restore: split into {} instances ({model_id})",
                new_ids.len()
            ),
        );
        Ok(new_ids)
    }

    // ------------------------------------------------------------------
    // Mechanism: fault tolerance (§4.4).
    // ------------------------------------------------------------------

    /// Handles the failure of one instance.
    ///
    /// Unlike pure data-parallel serving, a failed KunServe instance can
    /// disrupt every member of its pipeline group (§4.4). The recovery is:
    /// surviving members immediately restore their full parameter copies
    /// (always possible — parameters are replicated in host DRAM), each
    /// becomes a single-instance group again, and the group's requests are
    /// recovered: admitted sequences lose their (partially lost) KVCache
    /// and recompute, queued ones redistribute. The failed instance leaves
    /// service.
    ///
    /// Returns the ids of the replacement groups.
    ///
    /// # Panics
    ///
    /// Panics if the instance was already failed.
    pub fn fail_instance(&mut self, failed: InstanceId, now: SimTime) -> Vec<GroupId> {
        let gid = self.instances[failed.0 as usize].group;
        assert!(self.group_alive(gid), "instance already failed");
        let model_id = self.group(gid).model;
        let kv_per_token = self.cfg.model_cfg(model_id).kv_bytes_per_token();
        // Settle the donation ledger before anything restores: bytes this
        // group lent are force-reclaimed (the survivors' tails are about to
        // become parameters again — borrowers preempt if they must). No
        // per-loan layer restore here: the survivors' `restore_all` below
        // brings every layer home and charges the remap once.
        self.reclaim_matching(|d| d.lender_group == gid, true, false, now);
        let old = self.groups[gid.0].take().expect("alive");
        // Extents this group *borrowed* died with its block manager just
        // now; the dead-borrower branch of `reclaim_matching` returns the
        // bytes to their lenders (restoring the lent layer ranges) and
        // regrows the lenders' pools.
        self.reclaim_matching(|d| d.borrower_group == gid, false, true, now);

        // Every shared prefix resident on the dead group died with its
        // block manager; dependents dispatched later recompute.
        self.prefix.invalidate_group(gid.0 as u64);

        // Collect every request the dying group was responsible for.
        let mut to_requeue: Vec<RequestId> = Vec::new();
        for &r in old.running.iter().chain(&old.stalled) {
            to_requeue.push(r);
        }
        let queued: Vec<RequestId> = old.queue.iter().copied().collect();
        let swapped: Vec<RequestId> = old.swapped.clone();

        // Survivors restore full copies (host-DRAM replicas guarantee the
        // parameter data; only the remap + group bookkeeping happen here).
        let survivors: Vec<InstanceId> = old
            .members
            .iter()
            .copied()
            .filter(|&m| m != failed)
            .collect();
        let mut ops = 0;
        let mut new_ids = Vec::new();
        for &m in &survivors {
            ops += self.instances[m.0 as usize].restore_all();
            let id = GroupId(self.groups.len());
            let pools = [(self.instances[m.0 as usize].usable_kv_bytes(), 1.0)];
            let cap = group_capacity_blocks(&pools, kv_per_token, self.cfg.block_tokens);
            self.groups.push(Some(ExecGroup::new(
                id,
                model_id,
                vec![m],
                vec![1.0],
                BlockManager::new(cap, self.cfg.block_tokens),
            )));
            self.instances[m.0 as usize].group = id;
            new_ids.push(id);
        }

        // Recover requests. Admitted sequences lost the failed stage's KV
        // slice: recompute from scratch (their blocks died with the group's
        // block manager). Everything re-enters queues round-robin.
        let fallback = if new_ids.is_empty() {
            // Whole group lost: fall back to any live group of this model.
            Some(
                self.alive_groups()
                    .into_iter()
                    .find(|&g| self.group(g).model == model_id)
                    .expect("cluster must retain capacity for the model"),
            )
        } else {
            None
        };
        for (i, r) in to_requeue.iter().chain(&queued).enumerate() {
            if self.requests[r.0].state == ReqState::Finished {
                continue;
            }
            let dest = fallback.unwrap_or_else(|| new_ids[i % new_ids.len()]);
            {
                let req = &mut self.requests[r.0];
                // A requeued request re-prefills from scratch on `dest`
                // without passing through dispatch again: any prefix credit
                // it held is recompute work now.
                if let Some(p) = req.spec.prefix {
                    if req.prefix_credit > 0 {
                        self.metrics.prefix_recompute_tokens += p.tokens;
                    }
                }
                req.preempt_reset();
                req.state = ReqState::Queued;
                req.group = dest;
            }
            self.group_mut(dest).queue.push_back(*r);
            self.metrics.on_preemption(*r);
        }
        // Swapped sequences survive in host DRAM; reattach them.
        for (i, r) in swapped.iter().enumerate() {
            let dest = fallback.unwrap_or_else(|| new_ids[i % new_ids.len()]);
            self.requests[r.0].group = dest;
            self.group_mut(dest).swapped.push(*r);
        }

        let overhead = simgpu::timing::remap_cost(ops);
        for &id in &new_ids {
            self.group_mut(id).pending_overhead = overhead / new_ids.len().max(1) as u64;
        }
        self.metrics.on_reconfig(
            now,
            format!(
                "failure: {failed} down, {} survivors restored",
                survivors.len()
            ),
        );
        new_ids
    }

    /// Fails every still-live instance in rack `rack` (a correlated
    /// power/ToR failure domain, sized by [`ClusterConfig::rack_size`]).
    ///
    /// Instances are failed in id order; a group rebuilt for an earlier
    /// victim's survivor can itself die when a later victim in the same
    /// rack belongs to it, so the returned replacement-group list keeps
    /// only groups still alive once the whole rack is down.
    ///
    /// # Panics
    ///
    /// Panics if the config is unracked (`rack_size == 0`), or if the rack
    /// held the last capacity of some model (`fail_instance`'s invariant).
    pub fn fail_rack(&mut self, rack: u32, now: SimTime) -> Vec<GroupId> {
        assert!(
            self.cfg.rack_size > 0,
            "fail_rack requires a racked config (rack_size > 0)"
        );
        let members = self.cfg.instances_in_rack(rack);
        let mut rebuilt: Vec<GroupId> = Vec::new();
        for &i in &members {
            // Group slots are append-only, so a previously failed
            // instance's group pointer stays dead forever: skip it.
            if !self.group_alive(self.instances[i as usize].group) {
                continue;
            }
            rebuilt.extend(self.fail_instance(InstanceId(i), now));
        }
        rebuilt.retain(|&g| self.group_alive(g));
        self.metrics.on_reconfig(
            now,
            format!(
                "rack-failure: rack {rack} down ({} instances)",
                members.len()
            ),
        );
        rebuilt
    }

    // ------------------------------------------------------------------
    // Mechanism: recovery (§4.4 — rejoin after transient faults).
    // ------------------------------------------------------------------

    /// Rejoins a previously failed instance. Returns `None` (and does
    /// nothing) if the instance is still serving.
    ///
    /// The device comes back *empty*: its HBM contents died with the
    /// outage, but the parameter values survive in the host-DRAM replica
    /// (§4.4), so rejoining is a reload, not a re-shard. The rebuilt
    /// instance gets a fresh single-instance group that is **frozen** until
    /// a host-link parameter pull of the full copy completes — the reload
    /// is real [`Priority::ParamRestore`] traffic that competes with swaps
    /// and KV exchanges on the node's PCIe path, which is exactly how
    /// recovery load can feed the next overload. Completion surfaces as
    /// [`TransferEvent::RecoveryReady`] and unfreezes the group.
    ///
    /// The instance's host swap pool is left intact: sequences parked there
    /// survived the outage (that is the point of host DRAM) and were
    /// reattached to surviving groups at failure time.
    pub fn recover_instance(&mut self, inst: InstanceId, now: SimTime) -> Option<GroupId> {
        if self.group_alive(self.instances[inst.0 as usize].group) {
            return None;
        }
        let model_id = self.instances[inst.0 as usize].model;
        self.instances[inst.0 as usize] = Instance::for_model(inst, model_id, &self.cfg);
        let kv_per_token = self.cfg.model_cfg(model_id).kv_bytes_per_token();
        let id = GroupId(self.groups.len());
        let pools = [(self.instances[inst.0 as usize].usable_kv_bytes(), 1.0)];
        let cap = group_capacity_blocks(&pools, kv_per_token, self.cfg.block_tokens);
        let mut g = ExecGroup::new(
            id,
            model_id,
            vec![inst],
            vec![1.0],
            BlockManager::new(cap, self.cfg.block_tokens),
        );
        g.frozen = true; // serves nothing until the parameter reload lands
        self.groups.push(Some(g));
        self.instances[inst.0 as usize].group = id;

        let bytes = self.instances[inst.0 as usize]
            .param_resident_bytes()
            .max(1);
        let batch = self.next_batch;
        self.next_batch += 1;
        let job = self
            .network
            .submit_host(now, NodeId(inst.0), bytes, Priority::ParamRestore);
        self.pending_transfers
            .insert(job, TransferPurpose::RestorePart { batch });
        self.transfer_batches.insert(
            batch,
            TransferBatch {
                remaining: 1,
                effect: BatchEffect::RecoveryReady(id),
            },
        );
        self.metrics.on_reconfig(
            now,
            format!("recovery: {inst} rejoined ({model_id}), reloading parameters"),
        );
        Some(id)
    }

    /// Rejoins every failed instance in rack `rack` (the recovery half of
    /// [`Self::fail_rack`]), in id order. Returns the replacement groups.
    ///
    /// # Panics
    ///
    /// Panics if the config is unracked (`rack_size == 0`).
    pub fn recover_rack(&mut self, rack: u32, now: SimTime) -> Vec<GroupId> {
        assert!(
            self.cfg.rack_size > 0,
            "recover_rack requires a racked config (rack_size > 0)"
        );
        let members = self.cfg.instances_in_rack(rack);
        let mut rejoined = Vec::new();
        for &i in &members {
            if let Some(g) = self.recover_instance(InstanceId(i), now) {
                rejoined.push(g);
            }
        }
        self.metrics.on_reconfig(
            now,
            format!(
                "rack-recovery: rack {rack} up ({} instances)",
                rejoined.len()
            ),
        );
        rejoined
    }

    // ------------------------------------------------------------------
    // Closed-loop client model: deadlines, retries, shedding.
    // ------------------------------------------------------------------

    /// One monitor-tick pass of the closed-loop client model. No-op (and
    /// allocation-free) unless [`ClusterConfig::retry`] is set.
    ///
    /// Queued and running attempts past their [`Deadline`](workload::Deadline)
    /// are aborted: the client gives up, discards all progress, and either
    /// re-sends after [`workload::RetryPolicy::backoff`] (attempt budget
    /// permitting) or abandons the request. Backoff requests whose timer
    /// expired are returned as `due` for the engine to re-dispatch, since
    /// the engine owns the group queues and starts iterations.
    ///
    /// Running attempts are only aborted while their group is idle and
    /// unfrozen: an in-flight iteration plan must never reference a request
    /// the client already gave up on. Monitor cadence (≤ 1 s) is far below
    /// deadline granularity, so the deferral is invisible.
    pub fn sweep_deadlines(&mut self, now: SimTime) -> DeadlineSweep {
        let mut out = DeadlineSweep::default();
        let Some(retry) = self.cfg.retry else {
            return out;
        };
        for i in 0..self.requests.len() {
            let id = RequestId(i);
            match self.requests[i].state {
                ReqState::Backoff if self.requests[i].retry_at.is_some_and(|t| t <= now) => {
                    out.due.push(id);
                }
                ReqState::Queued | ReqState::Running => {
                    if self.requests[i].attempt_arrival > now
                        || !self.requests[i].deadline_missed_by(now)
                    {
                        continue;
                    }
                    if self.requests[i].state == ReqState::Running {
                        let g = self.requests[i].group;
                        if !self.group_alive(g) || self.group(g).is_busy() || self.group(g).frozen {
                            continue; // revisit next tick, once idle
                        }
                    }
                    self.abort_attempt(id);
                    self.metrics.on_deadline_miss();
                    let attempt = self.requests[i].attempt;
                    if retry.allows(attempt) {
                        let delay = retry.backoff(self.requests[i].spec.id, attempt);
                        self.requests[i].retry_at = Some(now + delay);
                        self.requests[i].state = ReqState::Backoff;
                        out.aborted.push(id);
                    } else {
                        self.requests[i].state = ReqState::Dropped;
                        self.metrics.on_abandoned();
                        out.abandoned.push(id);
                    }
                }
                _ => {} // stalled/swapped attempts finish their transfer first
            }
        }
        out
    }

    /// Tears down one queued or running attempt the client gave up on:
    /// frees its blocks, invalidates its shared prefix, and detaches it
    /// from its group. The caller decides what the request becomes
    /// (backoff or dropped).
    fn abort_attempt(&mut self, id: RequestId) {
        let group = self.requests[id.0].group;
        match self.requests[id.0].state {
            ReqState::Running => {
                self.release_blocks(id);
                if let Some(p) = self.requests[id.0].spec.prefix {
                    if self.prefix.invalidate(group.0 as u64, p.group) {
                        self.metrics.prefix_recompute_tokens += p.tokens;
                    }
                }
                if self.group_alive(group) {
                    self.group_mut(group).forget(id);
                }
            }
            ReqState::Queued => {
                if self.group_alive(group) {
                    self.group_mut(group).queue.retain(|&r| r != id);
                }
            }
            _ => unreachable!("abort only targets queued/running attempts"),
        }
    }

    /// Re-dispatches a backoff request whose retry timer expired: resets
    /// the attempt clock to `now`, picks a group with the shared
    /// least-loaded rule, like any fresh arrival, and counts the retry. The
    /// caller enqueues the request on the returned group.
    pub fn redispatch_retry(&mut self, id: RequestId, now: SimTime) -> GroupId {
        debug_assert_eq!(self.requests[id.0].state, ReqState::Backoff);
        self.requests[id.0].retry_reset(now);
        self.requests[id.0].state = ReqState::Queued;
        let (model, input) = {
            let spec = &self.requests[id.0].spec;
            (spec.model, spec.input_tokens)
        };
        let g = self.dispatch(model, input);
        self.note_dispatch(id, g);
        self.metrics.on_retry(now);
        g
    }

    /// Sheds a request at (re-)arrival: deadline-aware admission control
    /// decided it would miss anyway, so it terminates immediately instead
    /// of adding load. Terminal — shed requests do not retry.
    pub fn shed_request(&mut self, id: RequestId) {
        self.requests[id.0].state = ReqState::Dropped;
        self.requests[id.0].retry_at = None;
        self.metrics.on_shed();
    }

    /// Cancels a request on behalf of the client: tears down its attempt
    /// (freeing blocks) and makes it terminal. Running attempts are only
    /// torn down while their group is idle and unfrozen — the same
    /// in-flight-iteration conservatism as [`Self::sweep_deadlines`] — so
    /// the caller must retry [`CancelOutcome::Deferred`] at the next
    /// monitor-tick boundary. Stalled and swapped attempts finish their
    /// transfer first (the transfer's completion handler must find the
    /// request where it left it).
    pub fn cancel_request(&mut self, id: RequestId) -> CancelOutcome {
        match self.requests[id.0].state {
            ReqState::Finished | ReqState::Dropped => CancelOutcome::AlreadyTerminal,
            ReqState::Running => {
                let g = self.requests[id.0].group;
                if self.group_alive(g) && (self.group(g).frozen || self.group(g).is_busy()) {
                    return CancelOutcome::Deferred; // revisit once idle
                }
                self.abort_attempt(id);
                self.finish_cancel(id)
            }
            ReqState::Queued => {
                self.abort_attempt(id);
                self.finish_cancel(id)
            }
            ReqState::Backoff => self.finish_cancel(id),
            ReqState::Stalled(_) | ReqState::Swapped => CancelOutcome::Deferred,
        }
    }

    /// Marks a torn-down request terminal and counts the cancellation.
    fn finish_cancel(&mut self, id: RequestId) -> CancelOutcome {
        self.requests[id.0].state = ReqState::Dropped;
        self.requests[id.0].retry_at = None;
        self.metrics.on_cancelled();
        CancelOutcome::Cancelled
    }

    // ------------------------------------------------------------------
    // Elastic model load/unload (hot-swap through `Action::{Unload, Load}`).
    // ------------------------------------------------------------------

    /// Client-visible availability of `m` under any in-flight elastic
    /// operation. `Available` when no operation touches the model.
    pub fn model_availability(&self, m: ModelId) -> ModelAvailability {
        match self
            .model_ops
            .iter()
            .find(|op| op.model == m)
            .map(|op| op.phase)
        {
            None => ModelAvailability::Available,
            Some(ModelOpPhase::Draining | ModelOpPhase::Merging) => ModelAvailability::Draining,
            Some(ModelOpPhase::Unloaded) => ModelAvailability::Unloaded,
            Some(ModelOpPhase::Restoring | ModelOpPhase::Splitting) => ModelAvailability::Loading,
        }
    }

    /// Whether any elastic model operation is in flight (gates the
    /// per-tick [`Self::advance_model_ops`] sweep so operation-free runs
    /// pay nothing).
    pub fn has_model_ops(&self) -> bool {
        !self.model_ops.is_empty()
    }

    /// Begins an elastic **unload** of `m`: new submissions should be
    /// refused (see [`Self::model_availability`]), in-flight requests
    /// drain, then the model's groups merge into one pipelined group
    /// (KunServe drop — duplicate parameter copies freed as lendable
    /// bytes) which is finally frozen, parking a single compressed copy.
    /// Returns `false` if an operation is already in flight for `m` or no
    /// unfrozen group serves it.
    pub fn request_unload_model(&mut self, m: ModelId, now: SimTime) -> bool {
        if self.model_ops.iter().any(|op| op.model == m) {
            return false;
        }
        if !self
            .alive_group_ids()
            .any(|g| self.group(g).model == m && !self.group(g).frozen)
        {
            return false;
        }
        self.model_ops.push(ModelOp {
            model: m,
            phase: ModelOpPhase::Draining,
        });
        self.metrics
            .on_reconfig(now, format!("unload: draining {m}"));
        true
    }

    /// Begins an elastic **load** of an [`ModelAvailability::Unloaded`]
    /// model: unfreezes the parked group, starts ParamRestore pulls for
    /// its dropped layers and queues the split back to full per-instance
    /// groups once the pulls land. Returns `false` unless `m` is unloaded.
    pub fn request_load_model(&mut self, m: ModelId, now: SimTime) -> bool {
        let Some(i) = self
            .model_ops
            .iter()
            .position(|op| op.model == m && op.phase == ModelOpPhase::Unloaded)
        else {
            return false;
        };
        let Some(g) = self.alive_group_ids().find(|&g| self.group(g).model == m) else {
            // Every group died while parked; nothing to revive.
            self.model_ops.remove(i);
            return false;
        };
        self.group_mut(g).frozen = false;
        self.metrics
            .on_reconfig(now, format!("load: restoring {m}"));
        if self.start_param_restore(g, now) {
            self.model_ops[i].phase = ModelOpPhase::Restoring;
        } else if self.group(g).members.len() >= 2 {
            // No dropped layers to pull (replicas retained); split directly.
            self.request_split(g);
            self.model_ops[i].phase = ModelOpPhase::Splitting;
        } else {
            // Single-instance model: the unfreeze is the whole load.
            self.model_ops.remove(i);
            self.metrics
                .on_reconfig(now, format!("load: {m} available"));
        }
        true
    }

    /// One monitor-tick step of every in-flight elastic model operation.
    /// Deterministic: operations advance in request order based only on
    /// simulated state. The engine calls it once per tick instant, after
    /// every event at that instant (gated by [`Self::has_model_ops`]).
    pub fn advance_model_ops(&mut self, now: SimTime) {
        let mut i = 0;
        while i < self.model_ops.len() {
            let ModelOp { model: m, phase } = self.model_ops[i];
            match phase {
                ModelOpPhase::Draining => {
                    let active = self.requests.iter().any(|r| {
                        r.spec.model == m
                            && !matches!(r.state, ReqState::Finished | ReqState::Dropped)
                    });
                    if active {
                        i += 1;
                        continue;
                    }
                    let groups: Vec<GroupId> = self
                        .alive_group_ids()
                        .filter(|&g| self.group(g).model == m && !self.group(g).frozen)
                        .collect();
                    match groups.len() {
                        0 => {
                            // Lost every group while draining; abandon.
                            self.model_ops.remove(i);
                            continue;
                        }
                        1 => {
                            self.park_unloaded(groups[0], m, now);
                            self.model_ops[i].phase = ModelOpPhase::Unloaded;
                        }
                        _ => {
                            self.request_merge(groups);
                            self.model_ops[i].phase = ModelOpPhase::Merging;
                        }
                    }
                }
                ModelOpPhase::Merging => {
                    let merge_pending = self.pending_reconfigs.iter().any(|rc| {
                        matches!(rc, Reconfig::Merge { groups, .. }
                            if groups.iter().any(|&g| self.group_alive(g) && self.group(g).model == m))
                    });
                    if merge_pending {
                        i += 1;
                        continue;
                    }
                    let groups: Vec<GroupId> = self
                        .alive_group_ids()
                        .filter(|&g| self.group(g).model == m && !self.group(g).frozen)
                        .collect();
                    match groups.len() {
                        0 => {
                            self.model_ops.remove(i);
                            continue;
                        }
                        1 => {
                            self.park_unloaded(groups[0], m, now);
                            self.model_ops[i].phase = ModelOpPhase::Unloaded;
                        }
                        _ => self.request_merge(groups), // merge failed; retry
                    }
                }
                ModelOpPhase::Splitting => {
                    let split_pending = self.pending_reconfigs.iter().any(|rc| {
                        matches!(rc, Reconfig::Split { group }
                            if self.group_alive(*group) && self.group(*group).model == m)
                    });
                    if !split_pending {
                        // Split executed (or was deferred with the group
                        // left serving); either way the model serves again.
                        self.model_ops.remove(i);
                        self.metrics
                            .on_reconfig(now, format!("load: {m} available"));
                        continue;
                    }
                }
                // Unloaded is steady state (exited via request_load_model);
                // Restoring advances from the ParamRestoreReady handler.
                ModelOpPhase::Unloaded | ModelOpPhase::Restoring => {}
            }
            i += 1;
        }
    }

    /// Freezes the last surviving group of an unloading model, completing
    /// the unload: one compressed parameter copy parked, duplicates freed.
    fn park_unloaded(&mut self, g: GroupId, m: ModelId, now: SimTime) {
        self.group_mut(g).frozen = true;
        let freed: u64 = self
            .group(g)
            .members
            .iter()
            .map(|&inst| self.instances[inst.0 as usize].donatable_bytes())
            .sum();
        self.metrics
            .on_reconfig(now, format!("unload: parked {m} lendable={freed}B"));
    }

    // ------------------------------------------------------------------
    // Transfer completion plumbing (called by the engine).
    // ------------------------------------------------------------------

    /// Applies one completed bulk transfer; returns the high-level event to
    /// surface to the policy, if any.
    pub fn apply_transfer_done(&mut self, job: JobId) -> Option<TransferEvent> {
        let purpose = self.pending_transfers.remove(&job)?;
        match purpose {
            TransferPurpose::ExchangePart { batch } | TransferPurpose::RestorePart { batch } => {
                let done = {
                    let b = self.transfer_batches.get_mut(&batch).expect("batch exists");
                    b.remaining -= 1;
                    b.remaining == 0
                };
                if !done {
                    return None;
                }
                let b = self.transfer_batches.remove(&batch).expect("batch exists");
                match b.effect {
                    BatchEffect::UnstallRequests(ids) => {
                        let mut resumed = Vec::new();
                        for r in ids {
                            if self.requests[r.0].state
                                == ReqState::Stalled(StallReason::KvExchange)
                            {
                                let gid = self.requests[r.0].group;
                                if self.group_alive(gid) && self.group_mut(gid).unstall(r) {
                                    self.requests[r.0].state = ReqState::Running;
                                    resumed.push(r);
                                }
                            }
                        }
                        Some(TransferEvent::ExchangeDone { requests: resumed })
                    }
                    BatchEffect::ParamRestoreReady(group) => {
                        // Elastic-load hook: when this restore belongs to an
                        // in-flight model load, queue the split here so the
                        // load completes under any policy (request_split is
                        // idempotent if the policy also reacts).
                        if self.group_alive(group) {
                            let m = self.group(group).model;
                            if let Some(i) = self
                                .model_ops
                                .iter()
                                .position(|op| op.model == m && op.phase == ModelOpPhase::Restoring)
                            {
                                self.model_ops[i].phase = ModelOpPhase::Splitting;
                                self.request_split(group);
                            }
                        }
                        Some(TransferEvent::ParamRestoreReady { group })
                    }
                    BatchEffect::RecoveryReady(group) => {
                        if self.group_alive(group) {
                            self.group_mut(group).frozen = false;
                        }
                        Some(TransferEvent::RecoveryReady { group })
                    }
                }
            }
            TransferPurpose::Migration { request } => {
                let gid = self.requests[request.0].group;
                if self.group_alive(gid) && self.group_mut(gid).unstall(request) {
                    self.requests[request.0].state = ReqState::Running;
                }
                Some(TransferEvent::MigrationDone { request })
            }
            TransferPurpose::SwapOut { request } => {
                // Host-pool space was reserved at start; completion only
                // frees the GPU-side blocks.
                let gid = self.requests[request.0].group;
                let key = Self::seq_key(request);
                {
                    let g = self.groups[gid.0].as_mut().expect("alive");
                    g.blocks.free(key).expect("held until swap done");
                    g.forget(request);
                    g.swapped.push(request);
                }
                self.requests[request.0].state = ReqState::Swapped;
                self.metrics.on_preemption(request);
                Some(TransferEvent::SwapOutDone { request })
            }
            TransferPurpose::SwapIn { request } => {
                let gid = self.requests[request.0].group;
                if self.group_alive(gid) && self.group_mut(gid).unstall(request) {
                    self.requests[request.0].state = ReqState::Running;
                }
                Some(TransferEvent::SwapInDone { request })
            }
        }
    }

    /// Takes (and clears) the pending start-up overhead of a group.
    pub fn take_overhead(&mut self, group: GroupId) -> SimDuration {
        std::mem::take(&mut self.group_mut(group).pending_overhead)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::{Deadline, RequestSpec, RetryPolicy};

    fn racked_cluster(n: u32, rack_size: u32) -> ClusterState {
        let mut cfg = ClusterConfig::tiny_test(n);
        cfg.rack_size = rack_size;
        ClusterState::new(cfg)
    }

    #[test]
    fn recover_rack_rejoins_instances_via_a_real_reload() {
        let mut state = racked_cluster(4, 2);
        let t0 = SimTime::ZERO;
        state.fail_rack(0, t0);
        assert!(!state.group_alive(state.instance_group(InstanceId(0))));
        assert!(!state.group_alive(state.instance_group(InstanceId(1))));

        let rejoined = state.recover_rack(0, t0);
        assert_eq!(rejoined.len(), 2);
        for &g in &rejoined {
            assert!(state.group(g).frozen, "cold until the reload lands");
            assert_eq!(state.group(g).members.len(), 1);
        }
        // Rejoining an already-serving instance is a no-op.
        assert_eq!(state.recover_instance(InstanceId(0), t0), None);

        // The reload is real host-link traffic: drain it and watch the
        // groups unfreeze one RecoveryReady event per instance.
        let mut ready = Vec::new();
        while let Some(t) = state.network.next_completion_estimate() {
            for (_, job) in state.network.take_completions(t) {
                if let Some(TransferEvent::RecoveryReady { group }) = state.apply_transfer_done(job)
                {
                    assert!(!state.group(group).frozen, "reload completion unfreezes");
                    ready.push(group);
                }
            }
        }
        ready.sort();
        assert_eq!(ready, rejoined, "every rejoined instance reloads once");
        assert_eq!(state.alive_groups().len(), 4, "full capacity restored");

        let violations = state.ledger().check_invariants("post-recovery");
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn resurrected_donation_record_is_flagged_by_the_ledger() {
        let mut state = ClusterState::new(ClusterConfig::tiny_two_model(2, 2));
        // Forge what a buggy recovery path could leave behind: a record
        // naming a dead lender slot. The cross-audit must flag it.
        state.donations.push(DonationRecord {
            lender: ModelId(0),
            lender_group: GroupId(999),
            borrower: ModelId(1),
            borrower_group: state.alive_groups()[2],
            bytes: 4096,
            blocks: 1,
            loan: Loan {
                lender: 0,
                layer_start: 0,
                layer_end: 1,
            },
            per_instance: vec![(InstanceId(0), 4096)],
        });
        let violations = state.ledger().check_invariants("t");
        assert!(
            violations.iter().any(|m| m.contains("resurrected")),
            "{violations:?}"
        );
    }

    #[test]
    fn sweep_aborts_missed_attempts_into_backoff_then_retries() {
        let mut cfg = ClusterConfig::tiny_test(2);
        cfg.retry = Some(RetryPolicy {
            max_retries: 1,
            ..RetryPolicy::default()
        });
        let mut state = ClusterState::new(cfg);
        let spec = RequestSpec {
            id: 0,
            model: ModelId::PRIMARY,
            arrival: SimTime::ZERO,
            input_tokens: 64,
            output_tokens: 8,
            prefix: None,
            deadline: Some(Deadline::ttft(SimDuration::from_secs(1))),
        };
        let r = RequestId(0);
        state.requests.push(Request::new(r, spec, GroupId(0)));
        let g = state.dispatch(spec.model, spec.input_tokens);
        state.note_dispatch(r, g);
        state.group_mut(g).queue.push_back(r);

        // Within the bound: untouched.
        let sweep = state.sweep_deadlines(SimTime::ZERO + SimDuration::from_millis(500));
        assert_eq!(sweep, DeadlineSweep::default());
        assert_eq!(state.requests[0].state, ReqState::Queued);

        // Past the bound: the attempt aborts into backoff and leaves the
        // queue; the miss is counted.
        let t_miss = SimTime::ZERO + SimDuration::from_secs(2);
        let sweep = state.sweep_deadlines(t_miss);
        assert_eq!(sweep.aborted, vec![r]);
        assert_eq!(state.requests[0].state, ReqState::Backoff);
        assert!(state.group(g).queue.is_empty());
        assert_eq!(state.metrics.deadline_misses, 1);

        // Once the timer expires the request is due; re-dispatch restarts
        // the attempt clock and counts the retry.
        let due_at = state.requests[0].retry_at.expect("backoff armed");
        assert!(state
            .sweep_deadlines(due_at - SimDuration::from_millis(1))
            .due
            .is_empty());
        let sweep = state.sweep_deadlines(due_at);
        assert_eq!(sweep.due, vec![r]);
        let g2 = state.redispatch_retry(r, due_at);
        assert_eq!(state.requests[0].attempt, 1);
        assert_eq!(state.requests[0].attempt_arrival, due_at);
        assert_eq!(state.metrics.retries, 1);
        state.group_mut(g2).queue.push_back(r);

        // Second miss exhausts the one-retry budget: terminal abandon.
        let sweep = state.sweep_deadlines(due_at + SimDuration::from_secs(2));
        assert_eq!(sweep.abandoned, vec![r]);
        assert_eq!(state.requests[0].state, ReqState::Dropped);
        assert_eq!(state.metrics.abandoned_requests, 1);
    }

    #[test]
    fn shed_request_terminates_without_retry() {
        let mut cfg = ClusterConfig::tiny_test(2);
        cfg.retry = Some(RetryPolicy::default());
        let mut state = ClusterState::new(cfg);
        let spec = RequestSpec {
            id: 7,
            model: ModelId::PRIMARY,
            arrival: SimTime::ZERO,
            input_tokens: 16,
            output_tokens: 4,
            prefix: None,
            deadline: Some(Deadline::ttft(SimDuration::from_secs(1))),
        };
        let r = RequestId(0);
        state.requests.push(Request::new(r, spec, GroupId(0)));
        state.shed_request(r);
        assert_eq!(state.requests[0].state, ReqState::Dropped);
        assert_eq!(state.metrics.shed_requests, 1);
        // A dropped request never re-enters any sweep bucket.
        let sweep = state.sweep_deadlines(SimTime::ZERO + SimDuration::from_secs(60));
        assert_eq!(sweep, DeadlineSweep::default());
    }

    #[test]
    fn cancel_queued_request_frees_it_and_counts() {
        let mut state = ClusterState::new(ClusterConfig::tiny_test(2));
        let spec = RequestSpec {
            id: 0,
            model: ModelId::PRIMARY,
            arrival: SimTime::ZERO,
            input_tokens: 32,
            output_tokens: 8,
            prefix: None,
            deadline: None,
        };
        let r = RequestId(0);
        state.requests.push(Request::new(r, spec, GroupId(0)));
        let g = state.dispatch(spec.model, spec.input_tokens);
        state.note_dispatch(r, g);
        state.group_mut(g).queue.push_back(r);

        assert_eq!(state.cancel_request(r), CancelOutcome::Cancelled);
        assert_eq!(state.requests[0].state, ReqState::Dropped);
        assert!(state.group(g).queue.is_empty(), "left the group queue");
        assert_eq!(state.metrics.cancelled_requests, 1);
        // Idempotent: a second cancel reports the terminal state.
        assert_eq!(state.cancel_request(r), CancelOutcome::AlreadyTerminal);
        assert_eq!(state.metrics.cancelled_requests, 1);
    }

    #[test]
    fn cancel_running_request_defers_while_group_is_busy() {
        let mut state = ClusterState::new(ClusterConfig::tiny_test(1));
        let spec = RequestSpec {
            id: 0,
            model: ModelId::PRIMARY,
            arrival: SimTime::ZERO,
            input_tokens: 32,
            output_tokens: 8,
            prefix: None,
            deadline: None,
        };
        let r = RequestId(0);
        state.requests.push(Request::new(r, spec, GroupId(0)));
        let g = state.dispatch(spec.model, spec.input_tokens);
        state.note_dispatch(r, g);
        assert!(state.try_admit(r, g), "tiny request admits");
        state.group_mut(g).running.push(r);

        state.group_mut(g).busy_until = Some(SimTime::from_secs_f64(1.0));
        assert_eq!(state.cancel_request(r), CancelOutcome::Deferred);
        assert_eq!(state.requests[0].state, ReqState::Running);

        state.group_mut(g).busy_until = None;
        assert_eq!(state.cancel_request(r), CancelOutcome::Cancelled);
        assert_eq!(state.requests[0].state, ReqState::Dropped);
        assert!(state.group(g).running.is_empty());
        assert_eq!(state.group(g).blocks.used_blocks(), 0, "blocks freed");
    }

    #[test]
    fn elastic_unload_then_load_round_trips_through_drop_and_restore() {
        let mut state = ClusterState::new(ClusterConfig::tiny_test(4));
        let m = ModelId::PRIMARY;
        let t0 = SimTime::ZERO;
        assert_eq!(state.model_availability(m), ModelAvailability::Available);

        // Unload: drain (trivially idle) → merge all 4 groups → park.
        assert!(state.request_unload_model(m, t0));
        assert!(!state.request_unload_model(m, t0), "one op per model");
        assert_eq!(state.model_availability(m), ModelAvailability::Draining);
        state.advance_model_ops(t0);
        assert!(state.has_pending_reconfigs(), "merge queued");
        state.execute_ready_reconfigs(t0);
        state.advance_model_ops(t0);
        assert_eq!(state.model_availability(m), ModelAvailability::Unloaded);
        let parked = state.alive_groups();
        assert_eq!(parked.len(), 1, "one merged group survives");
        assert!(state.group(parked[0]).frozen, "parked frozen");
        assert!(
            state
                .metrics
                .reconfig_events
                .iter()
                .any(|(_, e)| e.starts_with("drop:")),
            "unload is a real KunServe drop"
        );
        let violations = state.ledger().check_invariants("unloaded");
        assert!(violations.is_empty(), "{violations:?}");

        // Load: unfreeze, pull parameters, split back to 4 groups.
        assert!(state.request_load_model(m, t0));
        assert_eq!(state.model_availability(m), ModelAvailability::Loading);
        while let Some(t) = state.network.next_completion_estimate() {
            for (_, job) in state.network.take_completions(t) {
                state.apply_transfer_done(job);
            }
        }
        state.execute_ready_reconfigs(t0);
        state.advance_model_ops(t0);
        assert_eq!(state.model_availability(m), ModelAvailability::Available);
        assert_eq!(state.alive_groups().len(), 4, "full deployment restored");
        assert!(
            state
                .metrics
                .reconfig_events
                .iter()
                .any(|(_, e)| e.starts_with("restore:")),
            "load is a real ParamRestore"
        );
        let violations = state.ledger().check_invariants("reloaded");
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn dead_group_reconfigs_are_abandoned_not_requeued() {
        let mut state = ClusterState::new(ClusterConfig::tiny_test(2));
        let groups = state.alive_groups();
        state.request_merge(vec![groups[0], groups[1]]);
        state.fail_instance(state.group(groups[1]).members[0], SimTime::ZERO);
        state.execute_ready_reconfigs(SimTime::ZERO);
        assert!(!state.has_pending_reconfigs(), "dead merge dropped");
        assert!(!state.group(groups[0]).frozen, "survivor unfrozen");
        assert!(state
            .metrics
            .reconfig_events
            .iter()
            .any(|(_, e)| e.starts_with("merge-abandoned")));
    }
}
