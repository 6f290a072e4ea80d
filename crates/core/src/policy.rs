//! The KunServe policy: detection, drop, coordinated exchange, lookahead
//! scheduling and dynamic restore (paper §3–§4).

use std::collections::{BTreeMap, BTreeSet};

use cluster::{
    ClusterState, GroupId, MicrobatchFormerSpec, ModelId, Policy, RequestId, TransferEvent,
};
use sim_core::SimTime;

use crate::plan::{
    arbitrate_with_donation, Arbitration, ArbitrationOutcome, LenderOffer, ModelDemand, PlanGroup,
};

/// A group is overloaded when `demand > OVERLOAD_THRESHOLD × capacity`.
const OVERLOAD_THRESHOLD: f64 = 0.98;

/// Headroom multiplier applied to the computed memory requirement.
const REQUIREMENT_MARGIN: f64 = 1.2;

/// Lookahead recursion halt threshold in tokens (Fig. 11 `MIN`).
const MIN_BATCH_TOKENS: u64 = 256;

/// Monitor ticks the overload must persist before a drop triggers
/// (debounces transient spikes the baseline absorbs by itself).
const SUSTAIN_TICKS: u32 = 2;

/// Monitor ticks a borrower's demand must stay below the restore
/// threshold before its borrowed KV is handed back (and before a lender
/// may reclaim it for a restore). Hysteresis against donate/reclaim
/// thrash when demand hovers around the threshold.
const DONATION_HOLD_TICKS: u32 = 8;

/// Shed when the least-loaded serving group's demand exceeds
/// `SHED_LOAD_FACTOR × capacity` — a backlog that deep means the request
/// would wait out its deadline in the queue and retry anyway, amplifying
/// the storm instead of doing work.
const SHED_LOAD_FACTOR: f64 = 2.0;

/// The switches and settings of the KunServe policy.
///
/// Dynamic drop is always on: paper Fig. 14's levels are [`drop_only`],
/// then `+Coordinated ex.` ([`drop_and_coordinated`]), then `+Lookahead`
/// (the default), and its no-drop baseline is vLLM (DP) itself. Each of
/// the other boolean switches is one figure's ablation arm (see the
/// presets below).
///
/// [`drop_only`]: KunServeConfig::drop_only
/// [`drop_and_coordinated`]: KunServeConfig::drop_and_coordinated
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KunServeConfig {
    /// Enable coordinated (chunked, activation-priority) KVCache exchange
    /// (§4.2); off = one monolithic transfer that stalls activations.
    pub coordinated_exchange: bool,
    /// Enable cost-balanced lookahead microbatch formation (§4.3);
    /// off = token-count balancing.
    pub lookahead: bool,
    /// Enable dynamic parameter restoration when demand subsides (§4.4).
    pub restore: bool,
    /// Restore when a merged group's demand drops below
    /// `threshold × no-drop capacity` (the paper uses 50 %).
    pub restore_threshold: f64,
    /// Cluster-wide cap on bytes one arbitration round may reclaim across
    /// all co-served models (`None` = unbounded). Bounding this limits the
    /// exchange traffic a round puts on the shared fabric and forces
    /// simultaneous overloads to *compete* — see [`Arbitration`].
    pub reclaim_allowance_bytes: Option<u64>,
    /// How simultaneous per-model requirements share the allowance.
    pub arbitration: Arbitration,
    /// Enable **cross-model KV donation**: when an overloaded model cannot
    /// free enough from its own replicas (fully merged, or a single
    /// group), a co-served model that is *not* overloaded may drop its own
    /// parameter copies and lend the freed bytes to the starved model's KV
    /// pool. Borrowed bytes are reclaimed (borrower shrinks first) before
    /// the lender's parameters are restored.
    pub cross_model_donation: bool,
    /// Grant donations at **layer** granularity (the default): lenders
    /// merge with a partial drop range sized to the borrower's actual
    /// deficit, keeping the other layers replicated. Off = the whole-copy
    /// baseline, which over-donates whenever the deficit is not an exact
    /// copy multiple (the fig18 `donated_bytes_peak` ablation).
    pub layer_granular_donation: bool,
    /// Deadline-aware admission control: shed a deadline-carrying request
    /// at (re-)arrival when every group that could serve it holds more
    /// than twice its capacity in demand. Requests without deadlines are
    /// never shed, so open-loop runs are unaffected.
    pub deadline_shedding: bool,
}

impl Default for KunServeConfig {
    fn default() -> Self {
        KunServeConfig {
            coordinated_exchange: true,
            lookahead: true,
            restore: true,
            restore_threshold: 0.50,
            reclaim_allowance_bytes: None,
            arbitration: Arbitration::SloWeighted,
            cross_model_donation: true,
            layer_granular_donation: true,
            deadline_shedding: true,
        }
    }
}

impl KunServeConfig {
    /// Fig. 14 ablation level 1: dynamic drop only.
    pub fn drop_only() -> Self {
        KunServeConfig {
            coordinated_exchange: false,
            lookahead: false,
            ..KunServeConfig::default()
        }
    }

    /// Fig. 14 ablation level 2: drop + coordinated exchange.
    pub fn drop_and_coordinated() -> Self {
        KunServeConfig {
            lookahead: false,
            ..KunServeConfig::default()
        }
    }

    /// Fig. 16 variant: never restore parameters after a drop.
    pub fn without_restore() -> Self {
        KunServeConfig {
            restore: false,
            ..KunServeConfig::default()
        }
    }

    /// Donation-ablation variant: freed bytes only ever grow the dropping
    /// model's own KV pool (the PR 2 behaviour).
    pub fn without_donation() -> Self {
        KunServeConfig {
            cross_model_donation: false,
            ..KunServeConfig::default()
        }
    }

    /// Donation-granularity ablation: donations on, but quantized to
    /// whole replica copies (the PR 4 behaviour) — a lender with a mild
    /// surplus either over-donates or refuses.
    pub fn whole_copy_donation() -> Self {
        KunServeConfig {
            layer_granular_donation: false,
            ..KunServeConfig::default()
        }
    }

    /// Resilience ablation: admit everything, even requests predicted to
    /// miss their deadline. Under a retry storm this is the metastable
    /// spiral — every hopeless admission queues, misses, and re-arrives
    /// (the fig23 no-shedding arm).
    pub fn without_shedding() -> Self {
        KunServeConfig {
            deadline_shedding: false,
            ..KunServeConfig::default()
        }
    }
}

/// The KunServe serving policy.
#[derive(Debug)]
pub struct KunServePolicy {
    cfg: KunServeConfig,
    restoring: BTreeSet<GroupId>,
    network_configured: bool,
    /// Consecutive monitor ticks each model has been overloaded — the
    /// debounce is per model so one tenant's persistent overload cannot
    /// waive another tenant's spike filter.
    overloaded_ticks: BTreeMap<ModelId, u32>,
    /// Consecutive monitor ticks each *borrowing* group's demand has sat
    /// below the restore threshold of its native capacity — the
    /// donation-return hysteresis (`DONATION_HOLD_TICKS`).
    borrower_calm_ticks: BTreeMap<GroupId, u32>,
}

impl KunServePolicy {
    /// Creates the policy with the given configuration.
    pub fn new(cfg: KunServeConfig) -> Self {
        KunServePolicy {
            cfg,
            restoring: BTreeSet::new(),
            network_configured: false,
            overloaded_ticks: BTreeMap::new(),
            borrower_calm_ticks: BTreeMap::new(),
        }
    }

    fn configure_network(&mut self, state: &mut ClusterState) {
        if !self.network_configured {
            state.network.set_coordinated(self.cfg.coordinated_exchange);
            self.network_configured = true;
        }
    }

    /// Bytes one duplicated parameter copy of `model` frees (droppable
    /// layers only).
    fn copy_bytes_of(state: &ClusterState, model: ModelId) -> u64 {
        let m = state.cfg.model_cfg(model);
        modelcfg::param_bytes_for_layers(m.num_layers, m.layer_param_bytes())
    }

    /// Projected decode growth of a model's admitted + queued sequences
    /// (peak KV minus current KV) in bytes — the §4.1 future-window term.
    /// The simulator reads the trace's output lengths directly where a
    /// real deployment would use the paper's windowed estimator. This
    /// deliberately over-approximates (queued work never all decodes
    /// concurrently), so donation asks built on it are capped at the
    /// whole-copy boundary of the backlog in `maybe_drop`.
    fn projected_growth_bytes(state: &ClusterState, model: ModelId) -> u64 {
        let kv = state.cfg.model_cfg(model).kv_bytes_per_token();
        let mut growth_tokens = 0u64;
        for g in state.alive_group_ids() {
            let grp = state.group(g);
            if grp.model != model {
                continue;
            }
            for r in grp.admitted().chain(grp.queue.iter().copied()) {
                let req = state.request(r);
                growth_tokens += req.peak_kv_tokens().saturating_sub(req.kv_tokens());
            }
        }
        growth_tokens * kv
    }

    /// Memory requirement R (§4.1 line 1) of one model: the queued +
    /// admitted demand exceeding what its overloaded groups can hold, in
    /// bytes (margin not applied).
    fn required_bytes_of(state: &ClusterState, model: ModelId) -> u64 {
        let kv = state.cfg.model_cfg(model).kv_bytes_per_token();
        let mut required: u64 = 0;
        for g in state.alive_groups() {
            if state.group(g).model != model {
                continue;
            }
            let demand = state.group_demand_tokens(g) as f64;
            let cap = state.group_capacity_tokens(g) as f64;
            if demand > cap * OVERLOAD_THRESHOLD {
                required += ((demand - cap * OVERLOAD_THRESHOLD) * kv as f64) as u64;
            }
        }
        required
    }

    /// Detects overload and requests merges per the Fig. 6 plan; when
    /// several models overload simultaneously their plans are arbitrated
    /// against the shared reclaim allowance. With cross-model donation
    /// enabled, models that are *not* overloaded offer their spare replica
    /// copies, and residual requirements (including those of fully-merged
    /// models) are served by donor merges whose freed bytes are granted to
    /// the starved model's KV pool. `eligible` restricts which models may
    /// drop this call: the debounced models on a monitor tick, or the one
    /// model that hit the wall on the reactive admission/OOM paths.
    /// Returns `true` if a drop was initiated.
    fn maybe_drop(
        &mut self,
        state: &mut ClusterState,
        _now: SimTime,
        eligible: &[ModelId],
    ) -> bool {
        if state.has_pending_reconfigs() {
            return false;
        }
        let Some((demands, offers)) = self.build_drop_round(state, eligible) else {
            return false;
        };
        let outcome = arbitrate_with_donation(
            &demands,
            &offers,
            self.cfg.reclaim_allowance_bytes,
            self.cfg.arbitration,
        );
        self.apply_outcome(state, &outcome)
    }

    /// The input of a drop round: the per-model demands, lender offers
    /// and projected forward terms read from the current state. Returns
    /// `None` when no model has an arbitrable demand.
    fn build_drop_round(
        &self,
        state: &ClusterState,
        eligible: &[ModelId],
    ) -> Option<(Vec<ModelDemand>, Vec<LenderOffer>)> {
        let donation = self.cfg.cross_model_donation && state.cfg.num_models() > 1;
        let mut demands: Vec<ModelDemand> = Vec::new();
        let mut offers: Vec<LenderOffer> = Vec::new();
        // Donation-dependent demands whose ask includes the projected
        // forward term: `(index into demands, margined backlog)`.
        let mut projected: Vec<(usize, u64)> = Vec::new();
        for model in state.cfg.model_ids() {
            let is_eligible = eligible.contains(&model);
            // Without donation, ineligible models contribute nothing —
            // skip them before any group scan (the reactive
            // admission-blocked/decode-OOM hot path).
            if !donation && !is_eligible {
                continue;
            }
            let required = Self::required_bytes_of(state, model);
            if required == 0 && !donation {
                continue;
            }
            // Candidates: this model's live, unfrozen groups not mid-restore.
            let candidates: Vec<PlanGroup> = state
                .alive_group_ids()
                .filter(|&g| {
                    state.group(g).model == model
                        && !state.group(g).frozen
                        && !self.restoring.contains(&g)
                })
                .map(|g| PlanGroup {
                    id: g,
                    instances: state.group(g).members.len() as u32,
                })
                .collect();
            if required == 0 {
                // Not overloaded: with donation on, spare replica layers go
                // on offer for starved co-served models — whole layers by
                // default, whole copies under the granularity ablation.
                if candidates.len() >= 2 {
                    let m = state.cfg.model_cfg(model);
                    offers.push(LenderOffer {
                        model,
                        layer_bytes: m.layer_param_bytes(),
                        num_layers: m.num_layers,
                        grant_quantum_layers: if self.cfg.layer_granular_donation {
                            1
                        } else {
                            m.num_layers
                        },
                        slo_weight: state.cfg.slo_weight_of(model),
                        groups: candidates,
                    });
                }
                continue;
            }
            if !is_eligible {
                continue;
            }
            if candidates.len() < 2 && !donation {
                continue; // fully merged: fall back to KVCache-centric
            }
            let required = (required as f64 * REQUIREMENT_MARGIN) as u64;
            // A donation-dependent model (nothing of its own to drop) sizes
            // its deficit forward: grants are cut to whole layers, so an
            // instantaneous-backlog deficit would chase the burst one layer
            // at a time while decode growth outruns it. The projection is
            // capped below (once the lenders are known) so the forward ask
            // never exceeds what the whole-copy baseline would grant for
            // the same backlog. Models with their own copies keep the
            // backlog-based requirement — their grants quantize to whole
            // copies regardless.
            let projection = if donation && candidates.len() < 2 {
                projected.push((demands.len(), required));
                Self::projected_growth_bytes(state, model)
            } else {
                0
            };
            demands.push(ModelDemand {
                model,
                required_bytes: required + projection,
                copy_bytes: Self::copy_bytes_of(state, model),
                slo_weight: state.cfg.slo_weight_of(model),
                groups: candidates,
            });
        }
        if demands.is_empty() {
            return None;
        }
        // Cap each projected ask at the next whole-copy boundary of its
        // backlog (per the *smallest* offered copy): a layer-granular round
        // then never requests — and so never donates — more than the
        // whole-copy baseline would grant for the same backlog, which
        // breaks the capacity→admission→projection ratchet while still
        // letting the forward term round a grant up toward a copy.
        if let Some(cap_copy) = offers.iter().map(LenderOffer::copy_bytes).min() {
            for &(i, backlog) in &projected {
                let ceiling = backlog.div_ceil(cap_copy.max(1)) * cap_copy.max(1);
                demands[i].required_bytes = demands[i].required_bytes.min(ceiling.max(backlog));
            }
        }
        Some((demands, offers))
    }

    /// The output of a drop round: turn an arbitration outcome into merge
    /// requests.
    fn apply_outcome(&mut self, state: &mut ClusterState, outcome: &ArbitrationOutcome) -> bool {
        let mut any = false;
        for arb in &outcome.plans {
            for merge in &arb.plan.merges {
                state.request_merge(merge.clone());
                any = true;
            }
            if !arb.plan.merges.is_empty() {
                // This model got its drop; its debounce restarts.
                self.overloaded_ticks.remove(&arb.model);
            }
        }
        // Donor merges: walk each donor's layer-ranged merges in plan
        // order, assigning the freed layers' bytes to its grants front to
        // back — every merge carries exactly the grants its freed bytes
        // cover, and drops only its planned layer range.
        for dp in &outcome.donor_plans {
            let layer_bytes = state.cfg.model_cfg(dp.model).layer_param_bytes();
            let mut queue: Vec<(ModelId, u64)> =
                dp.grants.iter().map(|g| (g.borrower, g.bytes)).collect();
            for merge in &dp.merges {
                // Freed bytes = (copies − 1) duplicates of the drop range.
                let copies = merge.groups.len() as u64;
                let mut freed = (copies - 1) * merge.drop_layers.param_bytes(layer_bytes);
                debug_assert_eq!(freed, merge.freed_layers * layer_bytes);
                let mut grants = Vec::new();
                while freed > 0 && !queue.is_empty() {
                    let (borrower, bytes) = &mut queue[0];
                    let take = (*bytes).min(freed);
                    grants.push((*borrower, take));
                    *bytes -= take;
                    freed -= take;
                    if *bytes == 0 {
                        queue.remove(0);
                    }
                }
                state.request_merge_ranged(merge.groups.clone(), grants, Some(merge.drop_layers));
                any = true;
            }
            // The borrowers' overload debounce is deliberately NOT reset
            // here: layer-granular grants are sized (and capped) to the
            // deficit, so a still-growing burst must be able to top up on
            // the next tick instead of re-serving the sustain window —
            // the spike filter's job is done once the overload is real.
        }
        any
    }

    /// Detects demand subsiding and starts background parameter pulls
    /// (§4.4). The split is requested when the pulls complete.
    ///
    /// Donation-aware restore ordering: a group whose demand subsided
    /// first hands back anything it *borrowed*; a lender group must get
    /// every donated byte back (borrower shrinks, retried each tick until
    /// it drains) **before** its parameter pulls may start — the restored
    /// tail is the lent memory.
    fn maybe_restore(&mut self, state: &mut ClusterState, now: SimTime) {
        if !self.cfg.restore || state.has_pending_reconfigs() {
            return;
        }
        self.restoring.retain(|&g| state.group_alive(g));

        // Track per-borrower calm: consecutive ticks a borrowing group's
        // demand stayed below the restore threshold of its *native*
        // capacity. Borrowed KV only goes home once the borrower has been
        // calm for `DONATION_HOLD_TICKS` — the hysteresis that prevents
        // donate/reclaim thrash while demand hovers around the threshold.
        self.borrower_calm_ticks
            .retain(|&g, _| state.group_alive(g) && state.group_has_borrowed(g));
        for g in state.alive_groups() {
            if !state.group_has_borrowed(g) {
                continue;
            }
            let blocks = &state.group(g).blocks;
            let native_tokens =
                blocks.native_capacity_blocks() as u64 * blocks.block_tokens() as u64;
            let demand = state.group_demand_tokens(g);
            if (demand as f64) < self.cfg.restore_threshold * native_tokens as f64 {
                *self.borrower_calm_ticks.entry(g).or_insert(0) += 1;
            } else {
                self.borrower_calm_ticks.remove(&g);
            }
        }
        let borrower_calm =
            |calm: &BTreeMap<GroupId, u32>, state: &ClusterState, g: GroupId| -> bool {
                !state.group_alive(g) || calm.get(&g).copied().unwrap_or(0) >= DONATION_HOLD_TICKS
            };

        for g in state.alive_groups() {
            let kv = state.group_model_cfg(g).kv_bytes_per_token();
            {
                let group = state.group(g);
                if group.frozen || self.restoring.contains(&g) {
                    continue;
                }
            }
            // Borrower-side return: once this group has been calm long
            // enough, its borrowed extents go home.
            if state.group_has_borrowed(g) && borrower_calm(&self.borrower_calm_ticks, state, g) {
                state.try_return_borrowed(g, now);
            }
            let group = state.group(g);
            if group.stages() < 2 {
                continue;
            }
            let base_tokens: u64 = group
                .members
                .iter()
                .map(|&m| state.instances[m.0 as usize].kv_base_bytes() / kv)
                .sum();
            let demand = state.group_demand_tokens(g);
            if (demand as f64) < self.cfg.restore_threshold * base_tokens as f64 {
                // Lender-side reclaim precedes the parameter pulls — and a
                // lender only pulls a loan back once every borrower of its
                // bytes has been calm for the hold-down, so a lightly
                // loaded donor does not snatch KV from a still-bursting
                // borrower just because *it* could restore.
                if state.group_donations_out(g) {
                    let borrowers: Vec<GroupId> = state
                        .donations
                        .iter()
                        .filter(|d| d.lender_group == g)
                        .map(|d| d.borrower_group)
                        .collect();
                    if !borrowers
                        .iter()
                        .all(|&b| borrower_calm(&self.borrower_calm_ticks, state, b))
                    {
                        continue;
                    }
                    if !state.try_reclaim_donations(g, now) {
                        continue; // borrower not drained yet; retry next tick
                    }
                }
                if state.start_param_restore(g, now) {
                    self.restoring.insert(g);
                }
            }
        }
    }
}

impl Policy for KunServePolicy {
    fn name(&self) -> &'static str {
        "KunServe"
    }

    fn on_tick(&mut self, state: &mut ClusterState, now: SimTime) {
        self.configure_network(state);
        // Debounce per model: a model drops only when *its own* overload
        // persists across monitor ticks; one-tick spikes are absorbed by
        // normal queuing, and another tenant's sustained overload does not
        // waive the filter.
        let mut eligible = Vec::new();
        for model in state.cfg.model_ids() {
            if Self::required_bytes_of(state, model) > 0 {
                let t = self.overloaded_ticks.entry(model).or_insert(0);
                *t += 1;
                if *t >= SUSTAIN_TICKS {
                    eligible.push(model);
                }
            } else {
                self.overloaded_ticks.remove(&model);
            }
        }
        if !eligible.is_empty() {
            self.maybe_drop(state, now, &eligible);
        }
        self.maybe_restore(state, now);
    }

    fn on_admission_blocked(&mut self, state: &mut ClusterState, now: SimTime, group: GroupId) {
        self.configure_network(state);
        // A realized admission failure bypasses the tick debounce, but only
        // for the model that actually hit the wall — it must not drag other
        // tenants' groups into a drop.
        self.maybe_drop(state, now, &[state.group_model(group)]);
    }

    fn on_decode_oom(
        &mut self,
        state: &mut ClusterState,
        now: SimTime,
        group: GroupId,
        _request: RequestId,
    ) -> cluster::OomResolution {
        self.configure_network(state);
        let model = state.group_model(group);
        if self.maybe_drop(state, now, &[model]) || state.has_pending_reconfigs() {
            // More memory is on the way; skip this decode step.
            return cluster::OomResolution::SkipIteration;
        }
        // Fully merged and still short: fall back to KVCache-centric
        // handling (§4.1: "we fallback to the KVCache-centric solution").
        cluster::OomResolution::GiveUp
    }

    fn should_shed(&mut self, state: &ClusterState, _now: SimTime, request: RequestId) -> bool {
        if !self.cfg.deadline_shedding {
            return false;
        }
        let req = state.request(request);
        if req.spec.deadline.is_none() {
            return false; // patient clients queue as long as it takes
        }
        let model = req.spec.model;
        // The request will land on the least-loaded serving group; predict
        // from that group's backlog. Frozen (recovering, mid-reconfig)
        // groups cannot serve before their reload lands, so they do not
        // count as capacity here even though the dispatcher may queue on
        // them.
        let mut best: Option<f64> = None;
        for g in state.alive_group_ids() {
            let gr = state.group(g);
            if gr.model != model || gr.frozen {
                continue;
            }
            let load =
                state.group_demand_tokens(g) as f64 / state.group_capacity_tokens(g).max(1) as f64;
            best = Some(best.map_or(load, |b: f64| b.min(load)));
        }
        match best {
            // Nothing thawed serves this model right now: admitting would
            // only park the request behind a parameter reload.
            None => true,
            Some(load) => load > SHED_LOAD_FACTOR,
        }
    }

    fn microbatch_former(&self) -> MicrobatchFormerSpec {
        if self.cfg.lookahead {
            MicrobatchFormerSpec::CostBalanced {
                min_batch_tokens: MIN_BATCH_TOKENS,
            }
        } else {
            MicrobatchFormerSpec::TokenCount
        }
    }

    fn on_transfer_done(&mut self, state: &mut ClusterState, _now: SimTime, event: &TransferEvent) {
        if let TransferEvent::ParamRestoreReady { group } = event {
            self.restoring.remove(group);
            if state.group_alive(*group) {
                state.request_split(*group);
            }
        }
    }
}
