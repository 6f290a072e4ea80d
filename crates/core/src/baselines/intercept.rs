//! InferCept baseline: optimized KVCache swapping (paper Fig. 3 (b)).
//!
//! On memory pressure the policy swaps victim sequences' KVCache out to
//! host DRAM over PCIe, overlapped with execution (the request that hit the
//! wall skips the iteration instead of being preempted). Swapped sequences
//! return as soon as blocks free up. The paper's critique still shows:
//! swapping replaces one set of queued work with another — GPU memory does
//! not grow, so queuing persists under real overload, and swapped-out
//! requests suffer high TPOT.

use cluster::{ClusterState, GroupId, OomResolution, Policy, ReqState, RequestId};
use sim_core::SimTime;

/// Maximum victims to swap out per pressure event.
const MAX_SWAP_PER_EVENT: usize = 4;

/// The InferCept-style swapping policy.
#[derive(Debug, Clone, Copy, Default)]
pub struct InferCeptPolicy;

impl InferCeptPolicy {
    /// Picks the youngest running victim other than `except`, preferring
    /// sequences not yet deep into decode (cheapest to park).
    fn pick_victim(
        state: &ClusterState,
        group: GroupId,
        except: Option<RequestId>,
    ) -> Option<RequestId> {
        state
            .group(group)
            .running
            .iter()
            .copied()
            .filter(|&r| Some(r) != except && state.request(r).state == ReqState::Running)
            .max_by_key(|&r| state.request(r).spec.arrival)
    }

    fn swap_out_some(
        state: &mut ClusterState,
        group: GroupId,
        except: Option<RequestId>,
        now: SimTime,
        count: usize,
    ) -> usize {
        let mut swapped = 0;
        for _ in 0..count {
            let Some(victim) = Self::pick_victim(state, group, except) else {
                break;
            };
            if !state.start_swap_out(victim, now) {
                break; // host pool full
            }
            swapped += 1;
        }
        swapped
    }
}

impl Policy for InferCeptPolicy {
    fn name(&self) -> &'static str {
        "InferCept"
    }

    fn on_tick(&mut self, state: &mut ClusterState, now: SimTime) {
        // Swap parked sequences back in, oldest first, while blocks allow.
        for g in state.alive_groups() {
            let parked: Vec<RequestId> = {
                let mut p = state.group(g).swapped.clone();
                p.sort_by_key(|&r| state.request(r).spec.arrival);
                p
            };
            for r in parked {
                if !state.start_swap_in(r, now) {
                    break; // no room yet; keep FIFO order
                }
            }
        }
    }

    fn on_admission_blocked(&mut self, state: &mut ClusterState, now: SimTime, group: GroupId) {
        // Make room for the queue head by parking the youngest running
        // sequences (InferCept favors new arrivals' TTFT).
        Self::swap_out_some(state, group, None, now, MAX_SWAP_PER_EVENT);
    }

    fn on_decode_oom(
        &mut self,
        state: &mut ClusterState,
        now: SimTime,
        group: GroupId,
        request: RequestId,
    ) -> OomResolution {
        if Self::swap_out_some(state, group, Some(request), now, 1) > 0 {
            // Blocks free when the PCIe transfer completes; skip this step.
            OomResolution::SkipIteration
        } else {
            OomResolution::GiveUp
        }
    }
}
