//! Llumnix baseline: load-balanced KVCache migration (paper Fig. 3 (c)).
//!
//! Llumnix reduces per-instance overload by migrating running sequences
//! from memory-pressured instances to relatively spare ones. This defeats
//! *fragmentation* (one hot instance while another has room) but cannot
//! create memory: under a cluster-wide burst every destination is also
//! loaded, so queued requests still stall — the paper's §2.3 critique.

use std::cmp::Reverse;

use cluster::{ClusterState, GroupId, OomResolution, Policy, ReqState, RequestId};
use sim_core::SimTime;

/// A group is pressured above this demand/capacity ratio.
const PRESSURE_THRESHOLD: f64 = 0.90;

/// Destinations must stay below this ratio after receiving a sequence.
const DEST_THRESHOLD: f64 = 0.80;

/// Migrations started per group per tick.
const MAX_MIGRATIONS_PER_TICK: usize = 4;

/// The Llumnix-style migration policy.
#[derive(Debug, Clone, Default)]
pub struct LlumnixPolicy {
    /// Reused buffer: one pass's migration candidates, keyed youngest
    /// first, then by their place in the group's running list.
    victims: Vec<(Reverse<SimTime>, usize, RequestId)>,
    /// Reused buffer: the live groups one tick sweeps.
    groups: Vec<GroupId>,
}

impl LlumnixPolicy {
    /// Least-loaded destination that can absorb `tokens` and stay under the
    /// destination threshold. Model-aware: KVCache layouts are
    /// model-specific, so only groups serving `from`'s model qualify.
    fn find_dest(state: &ClusterState, from: GroupId, tokens: u64) -> Option<GroupId> {
        let model = state.group(from).model;
        state
            .alive_group_ids()
            .filter(|&g| g != from && state.group(g).model == model && !state.group(g).frozen)
            .filter(|&g| {
                let demand = state.group_demand_tokens(g) + tokens;
                (demand as f64) < DEST_THRESHOLD * state.group_capacity_tokens(g) as f64
                    && state.group(g).blocks.can_allocate(tokens)
            })
            .min_by(|&a, &b| {
                let load = |g: GroupId| {
                    state.group_demand_tokens(g) as f64
                        / state.group_capacity_tokens(g).max(1) as f64
                };
                load(a).partial_cmp(&load(b)).expect("finite")
            })
    }

    /// Migrates up to `MAX_MIGRATIONS_PER_TICK` youngest running sequences
    /// off `group`.
    fn relieve(&mut self, state: &mut ClusterState, group: GroupId, now: SimTime) {
        let mut victims = std::mem::take(&mut self.victims);
        victims.clear();
        victims.extend(
            state
                .group(group)
                .running
                .iter()
                .copied()
                .filter(|&r| state.request(r).state == ReqState::Running)
                .enumerate()
                .map(|(i, r)| (Reverse(state.request(r).spec.arrival), i, r)),
        );
        // The running-list place breaks arrival ties, so the unstable sort
        // gives the stable order without a stable sort's extra buffer.
        victims.sort_unstable_by_key(|&(arrival, i, _)| (arrival, i));
        for &(_, _, r) in victims.iter().take(MAX_MIGRATIONS_PER_TICK) {
            let tokens = state.request(r).kv_tokens().max(1);
            let Some(dest) = Self::find_dest(state, group, tokens) else {
                break;
            };
            state.start_migration(r, dest, now);
        }
        self.victims = victims;
    }
}

impl Policy for LlumnixPolicy {
    fn name(&self) -> &'static str {
        "Llumnix"
    }

    fn on_tick(&mut self, state: &mut ClusterState, now: SimTime) {
        let mut groups = std::mem::take(&mut self.groups);
        groups.clear();
        groups.extend(state.alive_group_ids());
        for &g in &groups {
            let demand = state.group_demand_tokens(g) as f64;
            let cap = state.group_capacity_tokens(g) as f64;
            if demand > PRESSURE_THRESHOLD * cap {
                self.relieve(state, g, now);
            }
        }
        self.groups = groups;
    }

    fn on_admission_blocked(&mut self, state: &mut ClusterState, now: SimTime, group: GroupId) {
        self.relieve(state, group, now);
    }

    fn on_decode_oom(
        &mut self,
        state: &mut ClusterState,
        now: SimTime,
        group: GroupId,
        request: RequestId,
    ) -> OomResolution {
        // Try to move the youngest other sequence away; migration frees the
        // source blocks immediately (destination pre-reserved), so retry.
        let victim = state
            .group(group)
            .running
            .iter()
            .copied()
            .filter(|&r| r != request && state.request(r).state == ReqState::Running)
            .max_by_key(|&r| state.request(r).spec.arrival);
        if let Some(v) = victim {
            let tokens = state.request(v).kv_tokens().max(1);
            if let Some(dest) = Self::find_dest(state, group, tokens) {
                if state.start_migration(v, dest, now) {
                    return OomResolution::Retry;
                }
            }
        }
        OomResolution::GiveUp
    }
}
