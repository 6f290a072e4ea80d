//! Property tests for KunServe's online algorithms: the drop planner's
//! greedy invariants and the lookahead splitter's conservation guarantees.

use cluster::{GroupId, RequestId, SeqChunk};
use costmodel::{ChunkWork, CostParams};
use kunserve::balance_microbatches;
use kunserve::plan::{DropPlanner, PlanGroup};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The drop plan frees exactly (merges' member-count − merge-count)
    /// copies, partitions the input groups, and meets the requirement
    /// whenever it is satisfiable.
    #[test]
    fn drop_plan_invariants(
        sizes in proptest::collection::vec(1u32..5, 1..24),
        required_copies in 0u64..30,
    ) {
        const COPY: u64 = 1_000;
        let groups: Vec<PlanGroup> = sizes
            .iter()
            .enumerate()
            .map(|(i, &s)| PlanGroup { id: GroupId(i), instances: s })
            .collect();
        let required = required_copies * COPY;
        let plan = DropPlanner::new(COPY).plan(&groups, required);

        // Freed bytes = one copy per eliminated group.
        let eliminated: usize =
            plan.merges.iter().map(|m| m.len() - 1).sum();
        prop_assert_eq!(plan.freed_bytes, eliminated as u64 * COPY);

        // Merged ids are distinct and drawn from the input.
        let mut seen = BTreeSet::new();
        for m in &plan.merges {
            prop_assert!(m.len() >= 2);
            for &g in m {
                prop_assert!(g.0 < groups.len(), "unknown group id");
                prop_assert!(seen.insert(g), "group merged twice");
            }
        }

        // Satisfiability: max freeable = (n-1) copies.
        let max_freeable = (groups.len() as u64 - 1) * COPY;
        prop_assert_eq!(plan.satisfies, plan.freed_bytes >= required);
        if required <= max_freeable {
            prop_assert!(plan.satisfies, "satisfiable requirement must be met");
        }
        // Greedy frees no more than one extra copy beyond the requirement.
        if plan.satisfies && required > 0 {
            prop_assert!(plan.freed_bytes < required + COPY);
        }
    }

    /// Lookahead formation conserves every request's tokens exactly and
    /// keeps fragment prefixes consistent, for arbitrary work mixes.
    #[test]
    fn lookahead_conserves_tokens(
        work_spec in proptest::collection::vec((0u64..8_192, 1u64..4_096), 1..24),
        min_tokens in 64u64..2_048,
    ) {
        let params = CostParams::qwen14b_a800();
        let work: Vec<SeqChunk> = work_spec
            .iter()
            .enumerate()
            .map(|(i, &(p, c))| SeqChunk {
                request: RequestId(i),
                work: ChunkWork { prefix_tokens: p, new_tokens: c },
            })
            .collect();
        let mbs = balance_microbatches(&work, &params, min_tokens);
        prop_assert!(!mbs.is_empty());

        // Token conservation per request.
        let mut got: BTreeMap<usize, u64> = BTreeMap::new();
        for mb in &mbs {
            for c in &mb.chunks {
                *got.entry(c.request.0).or_insert(0) += c.work.new_tokens;
            }
        }
        for (i, &(_, c)) in work_spec.iter().enumerate() {
            prop_assert_eq!(got.get(&i).copied().unwrap_or(0), c, "request {}", i);
        }

        // Fragments of one request appear in order with chained prefixes.
        let mut next_prefix: BTreeMap<usize, u64> = BTreeMap::new();
        for mb in &mbs {
            for c in &mb.chunks {
                let entry = next_prefix
                    .entry(c.request.0)
                    .or_insert(c.work.prefix_tokens);
                prop_assert_eq!(*entry, c.work.prefix_tokens, "prefix chain broken");
                *entry += c.work.new_tokens;
            }
        }
    }

    /// The splitter never produces a worse max-cost microbatch than the
    /// unsplit batch (splitting only ever balances).
    #[test]
    fn lookahead_never_increases_max_cost(
        work_spec in proptest::collection::vec((0u64..4_096, 1u64..2_048), 2..16),
    ) {
        let params = CostParams::qwen14b_a800();
        let work: Vec<SeqChunk> = work_spec
            .iter()
            .enumerate()
            .map(|(i, &(p, c))| SeqChunk {
                request: RequestId(i),
                work: ChunkWork { prefix_tokens: p, new_tokens: c },
            })
            .collect();
        let total: u64 = work.iter().map(|c| c.work.new_tokens).sum();
        let whole_cost = params.batch_cost_us(
            &work.iter().map(|c| c.work).collect::<Vec<_>>(),
        );
        let mbs = balance_microbatches(&work, &params, (total / 4).max(64));
        let max_leaf = mbs
            .iter()
            .map(|mb| params.batch_cost_us(&mb.works()))
            .fold(0.0f64, f64::max);
        prop_assert!(max_leaf <= whole_cost + 1e-6);
    }
}
