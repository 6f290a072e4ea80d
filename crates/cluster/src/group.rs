//! Execution groups: the unit of batch execution.
//!
//! A group owns one **complete copy** of the model across its member
//! instances (a single instance in normal data-parallel serving; several
//! pipeline stages after a drop plan). The group also owns the KVCache
//! accounting for its sequences: within a pipeline group every instance
//! stores the KV of *its* layers for *all* sequences, so a token's bytes on
//! an instance scale with the instance's layer fraction, and the group's
//! token capacity is the minimum over members.

use std::collections::VecDeque;

use kvcache::BlockManager;
use sim_core::SimDuration;
use workload::ModelId;

use crate::batch::SeqChunk;
use crate::instance::InstanceId;
use crate::request::RequestId;

/// Identifier of an execution group. Slots are never reused, so stale
/// events referencing dead groups are detectable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GroupId(pub usize);

/// The work one iteration performs, recorded when the iteration starts and
/// applied when it completes.
#[derive(Debug, Clone)]
pub struct IterationPlan {
    /// The collected chunks, one per request: a prefill chunk, or its
    /// decode tokens.
    pub work: Vec<SeqChunk>,
    /// Fraction of stage-time lost to pipeline bubbles (0 for single-stage).
    pub bubble_frac: f64,
}

/// One execution group.
#[derive(Debug, Clone)]
pub struct ExecGroup {
    /// This group's id.
    pub id: GroupId,
    /// The model every member serves (groups never span models).
    pub model: ModelId,
    /// Member instances in pipeline-stage order.
    pub members: Vec<InstanceId>,
    /// Layer fraction of each member (parallel to `members`).
    pub stage_fracs: Vec<f64>,
    /// Group-level KVCache accounting.
    pub blocks: BlockManager,
    /// Requests waiting for admission.
    pub queue: VecDeque<RequestId>,
    /// Admitted, executable requests.
    pub running: Vec<RequestId>,
    /// Admitted requests whose KV is in flight (exchange/migration).
    pub stalled: Vec<RequestId>,
    /// Requests whose KVCache is parked in host DRAM (swap baseline).
    pub swapped: Vec<RequestId>,
    /// Monotone iteration counter for stale-event detection.
    pub iter_seq: u64,
    /// The iteration currently executing.
    pub current_iter: Option<IterationPlan>,
    /// Set while the group may start no new iteration (it finishes the
    /// current one):
    /// - a reconfiguration (merge/split) is pending;
    /// - a recovered instance reloads its parameters
    ///   (`ClusterState::recover_instance`, cleared on `RecoveryReady`);
    /// - an unloaded model's group is parked (`park_unloaded`, cleared by
    ///   `ClusterState::request_load_model`).
    pub frozen: bool,
    /// Extra delay the next iteration must absorb (VMM remaps).
    pub pending_overhead: SimDuration,
}

impl ExecGroup {
    /// Creates an idle group serving `model`.
    pub fn new(
        id: GroupId,
        model: ModelId,
        members: Vec<InstanceId>,
        stage_fracs: Vec<f64>,
        blocks: BlockManager,
    ) -> Self {
        assert_eq!(members.len(), stage_fracs.len(), "one fraction per member");
        assert!(!members.is_empty(), "groups must have members");
        ExecGroup {
            id,
            model,
            members,
            stage_fracs,
            blocks,
            queue: VecDeque::new(),
            running: Vec::new(),
            stalled: Vec::new(),
            swapped: Vec::new(),
            iter_seq: 0,
            current_iter: None,
            frozen: false,
            pending_overhead: SimDuration::ZERO,
        }
    }

    /// Number of pipeline stages.
    pub fn stages(&self) -> usize {
        self.members.len()
    }

    /// Returns `true` if an iteration is executing.
    pub fn is_busy(&self) -> bool {
        self.current_iter.is_some()
    }

    /// Requests currently admitted (running + stalled).
    pub fn admitted(&self) -> impl Iterator<Item = RequestId> + '_ {
        self.running.iter().chain(self.stalled.iter()).copied()
    }

    /// Removes a request from whichever list holds it. Returns `true` if it
    /// was present.
    pub fn forget(&mut self, id: RequestId) -> bool {
        let before =
            self.queue.len() + self.running.len() + self.stalled.len() + self.swapped.len();
        self.queue.retain(|&r| r != id);
        self.running.retain(|&r| r != id);
        self.stalled.retain(|&r| r != id);
        self.swapped.retain(|&r| r != id);
        before != self.queue.len() + self.running.len() + self.stalled.len() + self.swapped.len()
    }

    /// Moves a request from `stalled` to `running`. Returns `true` on
    /// success.
    pub fn unstall(&mut self, id: RequestId) -> bool {
        if let Some(pos) = self.stalled.iter().position(|&r| r == id) {
            self.stalled.remove(pos);
            self.running.push(id);
            true
        } else {
            false
        }
    }

    /// Moves a request from `running` to `stalled`. Returns `true` on
    /// success.
    pub fn stall(&mut self, id: RequestId) -> bool {
        if let Some(pos) = self.running.iter().position(|&r| r == id) {
            self.running.remove(pos);
            self.stalled.push(id);
            true
        } else {
            false
        }
    }
}

/// Computes a group's block capacity from member KV pools.
///
/// `pools` carries each member's `(kv_pool_bytes, layer_fraction)`. A token
/// costs `kv_bytes_per_token × fraction` on each member, so the member with
/// the least headroom bounds the group.
pub fn group_capacity_blocks(
    pools: &[(u64, f64)],
    kv_bytes_per_token: u64,
    block_tokens: u32,
) -> u32 {
    pools
        .iter()
        .map(|&(pool, frac)| {
            assert!(frac > 0.0 && frac <= 1.0, "layer fraction in (0,1]");
            let per_token = (kv_bytes_per_token as f64 * frac).max(1.0);
            let tokens = pool as f64 / per_token;
            (tokens / block_tokens as f64) as u32
        })
        .min()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn group() -> ExecGroup {
        ExecGroup::new(
            GroupId(0),
            ModelId::PRIMARY,
            vec![InstanceId(0)],
            vec![1.0],
            BlockManager::new(100, 16),
        )
    }

    #[test]
    fn state_transitions() {
        let mut g = group();
        assert!(!g.is_busy());
        g.queue.push_back(RequestId(1));
        g.running.push(RequestId(2));
        assert!(g.stall(RequestId(2)));
        assert_eq!(g.running.len(), 0);
        assert_eq!(g.stalled, vec![RequestId(2)]);
        assert!(g.unstall(RequestId(2)));
        assert_eq!(g.running, vec![RequestId(2)]);
        assert!(!g.unstall(RequestId(9)));
        assert!(!g.stall(RequestId(9)));
    }

    #[test]
    fn forget_removes_from_any_list() {
        let mut g = group();
        g.queue.push_back(RequestId(1));
        g.running.push(RequestId(2));
        g.stalled.push(RequestId(3));
        assert!(g.forget(RequestId(1)));
        assert!(g.forget(RequestId(2)));
        assert!(g.forget(RequestId(3)));
        assert!(!g.forget(RequestId(4)));
        assert!(g.queue.is_empty() && g.running.is_empty() && g.stalled.is_empty());
    }

    #[test]
    fn capacity_single_full_instance() {
        // 1 GiB pool, 1 KB per token, 16-token blocks → 65536 blocks.
        let cap = group_capacity_blocks(&[(1 << 30, 1.0)], 1024, 16);
        assert_eq!(cap, 65_536);
    }

    #[test]
    fn capacity_pipeline_pair_gains_from_drop() {
        // Two instances, each pool P, full layers: each alone yields
        // P / (kv·1.0) tokens. After dropping half the layers each pool
        // grew by G and fraction halved: tokens = (P+G) / (kv·0.5).
        let kv = 1024u64;
        let p = 1u64 << 30;
        let g = 512u64 << 20;
        let before: u64 = 2 * group_capacity_blocks(&[(p, 1.0)], kv, 16) as u64;
        let after = group_capacity_blocks(&[(p + g, 0.5), (p + g, 0.5)], kv, 16) as u64;
        assert!(after > before, "drop must increase group token capacity");
        // Exactly: after = 2(P+G)/kv tokens vs before = 2P/kv tokens.
        let expected_gain_tokens = 2 * g / kv;
        let gain_tokens = (after - before) * 16;
        assert!((gain_tokens as i64 - expected_gain_tokens as i64).abs() < 32);
    }

    #[test]
    fn capacity_is_min_over_members() {
        let cap = group_capacity_blocks(&[(1 << 30, 0.5), (1 << 20, 0.5)], 1024, 16);
        let small_alone = group_capacity_blocks(&[(1 << 20, 0.5)], 1024, 16);
        assert_eq!(cap, small_alone);
    }

    #[test]
    #[should_panic(expected = "one fraction per member")]
    fn mismatched_fracs_panic() {
        ExecGroup::new(
            GroupId(0),
            ModelId::PRIMARY,
            vec![InstanceId(0)],
            vec![],
            BlockManager::new(1, 16),
        );
    }
}
