//! Property tests for the paged block manager: per-sequence and total
//! accounting is exact, capacity is the sum of the extents, and growing
//! and shrinking extents preserves all invariants.

use std::collections::BTreeMap;

use kvcache::{BlockManager, ExtentTag, KvError, Loan, SeqKey};
use proptest::prelude::*;

const BLOCK_TOKENS: u64 = 64;

/// The extent tags the ops draw from: the base pool, own-drop growth and
/// one loan.
const TAGS: [ExtentTag; 3] = [
    ExtentTag::Native,
    ExtentTag::Remap,
    ExtentTag::Borrowed(Loan {
        lender: 1,
        layer_start: 0,
        layer_end: 4,
    }),
];

/// One step on the pool. `DecodeRound` appends one token to every live
/// sequence in ascending key order, the order in which the engine grows a
/// group's decoding requests.
#[derive(Debug, Clone)]
enum Op {
    Allocate { seq: u64, tokens: u64 },
    Append { seq: u64, tokens: u64 },
    Free { seq: u64 },
    DecodeRound,
    GrowExtent { tag: usize, blocks: u32 },
    ShrinkExtent { tag: usize, blocks: u32 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        ((0u64..64), (1u64..300)).prop_map(|(seq, tokens)| Op::Allocate { seq, tokens }),
        ((0u64..64), (1u64..300)).prop_map(|(seq, tokens)| Op::Allocate { seq, tokens }),
        ((0u64..64), (1u64..80)).prop_map(|(seq, tokens)| Op::Append { seq, tokens }),
        (0u64..64).prop_map(|seq| Op::Free { seq }),
        Just(Op::DecodeRound),
        Just(Op::DecodeRound),
        ((0usize..3), (1u32..64)).prop_map(|(tag, blocks)| Op::GrowExtent { tag, blocks }),
        ((0usize..3), (1u32..64)).prop_map(|(tag, blocks)| Op::ShrinkExtent { tag, blocks }),
    ]
}

/// Blocks needed to hold `tokens` tokens.
fn blocks(tokens: u64) -> u32 {
    tokens.div_ceil(BLOCK_TOKENS) as u32
}

/// Appends `n` tokens to `seq` and checks the outcome against the shadow
/// model: the blocks taken, or an `OutOfBlocks` that leaves it unchanged.
fn append_checked(
    m: &mut BlockManager,
    model: &mut BTreeMap<u64, u64>,
    capacity: u32,
    seq: u64,
    n: u64,
) {
    let Some(tokens) = model.get_mut(&seq) else {
        assert_eq!(m.append_tokens(SeqKey(seq), n), Err(KvError::UnknownSeq));
        return;
    };
    let extra = blocks(*tokens + n) - blocks(*tokens);
    let free = capacity - m.used_blocks();
    match m.append_tokens(SeqKey(seq), n) {
        Ok(grew) => {
            assert_eq!(grew, extra);
            *tokens += n;
        }
        Err(e) => {
            assert_eq!(
                e,
                KvError::OutOfBlocks {
                    needed: extra,
                    free
                }
            );
            assert!(extra > free);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn accounting_is_exact(ops in proptest::collection::vec(op_strategy(), 1..200)) {
        let mut m = BlockManager::new(20, BLOCK_TOKENS as u32);
        // Shadow model: tokens per live sequence, and blocks per extent
        // (the native extent stays even when empty).
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        let mut extents = [20u32, 0, 0];

        for op in ops {
            let capacity: u32 = extents.iter().sum();
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
                        Err(KvError::OutOfBlocks { needed, free }) => {
                            prop_assert_eq!(needed, blocks(tokens));
                            prop_assert_eq!(free, capacity - m.used_blocks());
                            prop_assert!(needed > free);
                        }
                        Err(e) => panic!("unexpected error: {e}"),
                    }
                }
                Op::Append { seq, tokens } => {
                    append_checked(&mut m, &mut model, capacity, seq, tokens);
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
                Op::DecodeRound => {
                    let live: Vec<u64> = model.keys().copied().collect();
                    for seq in live {
                        append_checked(&mut m, &mut model, capacity, seq, 1);
                    }
                }
                Op::GrowExtent { tag, blocks } => {
                    m.grow_extent(TAGS[tag], blocks);
                    extents[tag] += blocks;
                }
                Op::ShrinkExtent { tag, blocks } => {
                    let used = m.used_blocks();
                    match m.shrink_extent(TAGS[tag], blocks) {
                        Ok(()) => {
                            prop_assert!(extents[tag] >= blocks);
                            prop_assert!(capacity - used >= blocks);
                            extents[tag] -= blocks;
                        }
                        Err(KvError::UnknownExtent) => {
                            prop_assert!(tag != 0 && extents[tag] == 0);
                        }
                        Err(KvError::ExtentUnderflow { have, requested }) => {
                            prop_assert_eq!(have, extents[tag]);
                            prop_assert_eq!(requested, blocks);
                            prop_assert!(have < blocks);
                        }
                        Err(KvError::ShrinkBelowUsage { used: u, requested }) => {
                            prop_assert_eq!(u, used);
                            prop_assert_eq!(requested, capacity - blocks);
                            prop_assert!(capacity - used < blocks);
                        }
                        Err(e) => panic!("unexpected error: {e}"),
                    }
                }
            }

            // Capacity is the sum of the extents, each as the shadow has it.
            let capacity: u32 = extents.iter().sum();
            prop_assert_eq!(m.capacity_blocks(), capacity);
            for (tag, &b) in TAGS.iter().zip(&extents) {
                prop_assert_eq!(m.extent_blocks(*tag), b);
            }
            prop_assert_eq!(m.borrowed_blocks(), extents[2]);
            prop_assert_eq!(m.capacity_tokens(), u64::from(capacity) * BLOCK_TOKENS);
            // Tokens in the manager equal tokens in the shadow model.
            let model_tokens: u64 = model.values().sum();
            prop_assert_eq!(m.used_tokens(), model_tokens);
            // Block accounting: each sequence holds ceil(tokens / 64) blocks.
            let expected_blocks: u32 = model.values().map(|&t| blocks(t)).sum();
            prop_assert_eq!(m.used_blocks(), expected_blocks);
            prop_assert_eq!(m.free_blocks(), capacity - expected_blocks);
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
            prop_assert!(m.fragmentation_tokens() < BLOCK_TOKENS * (model.len() as u64 + 1));
        }
    }

    /// Growing the remap extent and shrinking it back is always legal when
    /// usage is unchanged: the KunServe drop → restore cycle, whose dropped
    /// parameter memory becomes a `Remap` extent and goes back on restore.
    #[test]
    fn grow_shrink_round_trip(base in 1u32..50, extra in 1u32..50, tokens in 0u64..1000) {
        let mut m = BlockManager::new(base, 64);
        let usable = (base as u64 * 64).min(tokens);
        if usable > 0 {
            m.allocate(SeqKey(0), usable).expect("fits in base capacity");
        }
        m.grow_extent(ExtentTag::Remap, extra);
        prop_assert_eq!(m.capacity_blocks(), base + extra);
        prop_assert_eq!(m.extent_blocks(ExtentTag::Remap), extra);
        m.shrink_extent(ExtentTag::Remap, extra)
            .expect("shrink back to base with same usage");
        prop_assert_eq!(m.capacity_blocks(), base);
        prop_assert_eq!(m.extent_blocks(ExtentTag::Native), base);
    }
}
