//! The policy interface: *when* to use the cluster's mechanisms.
//!
//! Every system the paper evaluates — vLLM's recompute preemption,
//! InferCept's swapping, Llumnix's migration, and KunServe's parameter drop
//! — is a [`Policy`] over the same [`ClusterState`] mechanisms, which keeps
//! the comparison apples-to-apples exactly like the paper's shared-codebase
//! methodology (§5.1).

use sim_core::SimTime;

use crate::batch::{MicroBatch, SeqChunk};
use crate::former::MicrobatchFormerSpec;
use crate::group::GroupId;
use crate::request::RequestId;
use crate::state::ClusterState;

/// High-level completion events surfaced to policies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransferEvent {
    /// A KVCache exchange batch finished; the requests were unstalled.
    ExchangeDone {
        /// Requests that resumed.
        requests: Vec<RequestId>,
    },
    /// All parameter-restore pulls for a group finished; the group may now
    /// be split back to data-parallel serving.
    ParamRestoreReady {
        /// The pipelined group whose parameters are fully restored.
        group: GroupId,
    },
    /// A migration finished and the request resumed on its new group.
    MigrationDone {
        /// The migrated request.
        request: RequestId,
    },
    /// A swap-out finished; GPU blocks were freed.
    SwapOutDone {
        /// The swapped request.
        request: RequestId,
    },
    /// A swap-in finished; the request resumed.
    SwapInDone {
        /// The resumed request.
        request: RequestId,
    },
    /// A recovering instance finished reloading its parameters from the
    /// host-DRAM replica; its replacement group is unfrozen and serving.
    RecoveryReady {
        /// The rejoined instance's replacement group.
        group: GroupId,
    },
}

/// How a policy resolved a decode out-of-memory event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OomResolution {
    /// Memory was freed synchronously; the engine retries the reservation.
    Retry,
    /// Nothing freed; the engine falls back to vLLM-style recompute
    /// preemption of the youngest running request.
    GiveUp,
    /// Freeing is in flight (e.g. an asynchronous swap-out); the request
    /// skips this iteration and retries on the next one.
    SkipIteration,
}

/// Kept for the benchmark's [`Policy`] forwarding; nothing constructs it.
#[derive(Debug)]
pub struct DeferredHooks;

/// Kept for the benchmark's [`Policy`] forwarding; nothing constructs it.
#[derive(Debug)]
pub struct HookPlan;

/// Kept for the benchmark's [`Policy`] forwarding; nothing constructs it.
#[derive(Debug)]
pub struct SpecJob;

/// A serving policy: hooks invoked by the engine at decision points.
///
/// All methods have no-op defaults except microbatch formation, which
/// defaults to the token-count baseline (Sarathi-style).
pub trait Policy {
    /// Short system name used in reports ("vLLM (DP)", "KunServe", ...).
    fn name(&self) -> &'static str;

    /// Called every monitor interval — load inspection, drop/restore and
    /// migration decisions live here.
    fn on_tick(&mut self, _state: &mut ClusterState, _now: SimTime) {}

    /// Called when the head-of-line request of `group` cannot be admitted
    /// for lack of KV blocks. The policy may free memory (swap, migrate,
    /// preempt); the engine re-checks admission afterwards.
    fn on_admission_blocked(&mut self, _state: &mut ClusterState, _now: SimTime, _group: GroupId) {}

    /// Called when `request` cannot grow its KVCache for the next decode
    /// step. See [`OomResolution`] for the possible outcomes.
    fn on_decode_oom(
        &mut self,
        _state: &mut ClusterState,
        _now: SimTime,
        _group: GroupId,
        _request: RequestId,
    ) -> OomResolution {
        OomResolution::GiveUp
    }

    /// Deadline-aware admission control: called once per (re-)arrival
    /// *before* the request is dispatched to a group. Returning `true`
    /// sheds the request — it terminates immediately as
    /// [`ReqState::Dropped`](crate::ReqState::Dropped) instead of queueing
    /// toward a deadline it is predicted to miss. The default admits
    /// everything (open-loop behaviour, byte-identical to pre-shedding
    /// runs).
    fn should_shed(&mut self, _state: &ClusterState, _now: SimTime, _request: RequestId) -> bool {
        false
    }

    /// The microbatch former this policy uses; the default
    /// [`Policy::form_microbatches`] delegates to it.
    fn microbatch_former(&self) -> MicrobatchFormerSpec {
        MicrobatchFormerSpec::TokenCount
    }

    /// Splits collected iteration work into pipeline microbatches.
    ///
    /// The microbatches must replay `work` in order: read one after
    /// another, with adjacent fragments of one request merged, their
    /// chunks are `work` — the same requests in the same order, the same
    /// new tokens, and each fragment's prefix continuing the one before.
    /// The engine builds the iteration's per-request progress straight
    /// from `work` on this promise (checked by a `debug_assert!`), and
    /// both [`MicrobatchFormerSpec`] formers keep it.
    fn form_microbatches(
        &self,
        state: &ClusterState,
        group: GroupId,
        work: &[SeqChunk],
    ) -> Vec<MicroBatch> {
        let g = state.group(group);
        self.microbatch_former().form(
            work,
            g.stages(),
            state.cfg.microbatches_per_stage,
            state.cost_model_of(g.model),
        )
    }

    /// Called after the engine applied a completed transfer.
    fn on_transfer_done(
        &mut self,
        _state: &mut ClusterState,
        _now: SimTime,
        _event: &TransferEvent,
    ) {
    }

    /// Kept for the benchmark's forwarding wrapper; the engine never
    /// calls it.
    fn plan_deferred(
        &mut self,
        _state: &ClusterState,
        _now: SimTime,
        _hooks: &DeferredHooks,
    ) -> Option<SpecJob> {
        None
    }

    /// Kept for the benchmark's forwarding wrapper; the engine never
    /// calls it.
    fn commit_deferred(&mut self, _state: &mut ClusterState, _now: SimTime, _plan: HookPlan) {}
}

/// The do-nothing policy: requests queue until memory frees naturally.
///
/// This is the pure-queuing behaviour that motivates the paper's Fig. 2;
/// the engine's built-in recompute fallback still guarantees decode
/// progress.
#[derive(Debug, Default, Clone, Copy)]
pub struct QueueingPolicy;

impl Policy for QueueingPolicy {
    fn name(&self) -> &'static str {
        "Queueing"
    }
}
