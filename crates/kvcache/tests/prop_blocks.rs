//! Property tests for the paged block manager: per-sequence and total
//! accounting is exact, and resize preserves all invariants.

use std::collections::BTreeMap;

use kvcache::{BlockManager, KvError, SeqKey};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Allocate { seq: u64, tokens: u64 },
    Append { seq: u64, tokens: u64 },
    Free { seq: u64 },
    Resize { capacity: u32 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        ((0u64..8), (1u64..300)).prop_map(|(seq, tokens)| Op::Allocate { seq, tokens }),
        ((0u64..8), (1u64..80)).prop_map(|(seq, tokens)| Op::Append { seq, tokens }),
        (0u64..8).prop_map(|seq| Op::Free { seq }),
        (1u32..40).prop_map(|capacity| Op::Resize { capacity }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn accounting_is_exact(ops in proptest::collection::vec(op_strategy(), 1..150)) {
        let mut m = BlockManager::new(20, 64);
        // Shadow model: tokens per live sequence.
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();

        for op in ops {
            match op {
                Op::Allocate { seq, tokens } => {
                    let res = m.allocate(SeqKey(seq), tokens);
                    match res {
                        Ok(()) => {
                            prop_assert!(!model.contains_key(&seq));
                            model.insert(seq, tokens);
                        }
                        Err(KvError::AlreadyAllocated) => {
                            prop_assert!(model.contains_key(&seq));
                        }
                        Err(KvError::OutOfBlocks { .. }) => {}
                        Err(e) => panic!("unexpected error: {e}"),
                    }
                }
                Op::Append { seq, tokens } => {
                    match m.append_tokens(SeqKey(seq), tokens) {
                        Ok(_) => {
                            *model.get_mut(&seq).expect("manager accepted unknown seq") += tokens;
                        }
                        Err(KvError::UnknownSeq) => {
                            prop_assert!(!model.contains_key(&seq));
                        }
                        Err(KvError::OutOfBlocks { .. }) => {}
                        Err(e) => panic!("unexpected error: {e}"),
                    }
                }
                Op::Free { seq } => {
                    match m.free(SeqKey(seq)) {
                        Ok(tokens) => {
                            prop_assert_eq!(model.remove(&seq), Some(tokens));
                        }
                        Err(KvError::UnknownSeq) => {
                            prop_assert!(!model.contains_key(&seq));
                        }
                        Err(e) => panic!("unexpected error: {e}"),
                    }
                }
                Op::Resize { capacity } => {
                    match m.resize(capacity) {
                        Ok(()) => prop_assert_eq!(m.capacity_blocks(), capacity),
                        Err(KvError::ShrinkBelowUsage { used, .. }) => {
                            prop_assert!(capacity < used);
                        }
                        Err(e) => panic!("unexpected error: {e}"),
                    }
                }
            }

            // Tokens in the manager equal tokens in the shadow model.
            let model_tokens: u64 = model.values().sum();
            prop_assert_eq!(m.used_tokens(), model_tokens);
            // Block accounting: each sequence holds ceil(tokens / 64) blocks.
            let expected_blocks: u32 =
                model.values().map(|&t| t.div_ceil(64) as u32).sum();
            prop_assert_eq!(m.used_blocks(), expected_blocks);
            // The live sequences are the model's, in ascending key order,
            // each holding its tokens in exactly ceil(tokens / 64) blocks.
            let live: Vec<SeqKey> = model.keys().map(|&s| SeqKey(s)).collect();
            prop_assert_eq!(m.seqs(), live);
            for (&seq, &tokens) in &model {
                prop_assert_eq!(m.tokens_of(SeqKey(seq)), Ok(tokens));
                let held = m.blocks_of(SeqKey(seq)).expect("live sequence");
                prop_assert_eq!(held, m.blocks_for(tokens));
            }
            // Used never exceeds capacity.
            prop_assert!(m.used_blocks() <= m.capacity_blocks());
            // Fragmentation is bounded by one block per sequence.
            prop_assert!(m.fragmentation_tokens() < 64 * (model.len() as u64 + 1));
        }
    }

    /// A grow followed by the inverse shrink is always legal when usage is
    /// unchanged — the KunServe drop → restore cycle on an idle pool.
    #[test]
    fn grow_shrink_round_trip(base in 1u32..50, extra in 1u32..50, tokens in 0u64..1000) {
        let mut m = BlockManager::new(base, 64);
        let usable = (base as u64 * 64).min(tokens);
        if usable > 0 {
            m.allocate(SeqKey(0), usable).expect("fits in base capacity");
        }
        m.resize(base + extra).expect("grow always ok");
        prop_assert_eq!(m.capacity_blocks(), base + extra);
        m.resize(base).expect("shrink back to base with same usage");
        prop_assert_eq!(m.capacity_blocks(), base);
    }
}
