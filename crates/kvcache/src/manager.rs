//! The paged block manager.

use crate::error::KvError;
use crate::Result;

/// Opaque key identifying a sequence in the block manager.
///
/// The serving layer maps its request/sequence ids onto these keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SeqKey(pub u64);

/// One cross-model loan's identity: the lending model plus the contiguous
/// layer range of its parameters whose dropped bytes back the extent.
///
/// The layer range makes reclaim ordering *layer-granular*: reclaiming one
/// loan's extent lets the lender restore exactly the layers `[layer_start,
/// layer_end)` it lent, instead of being all-or-nothing on a whole replica
/// copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Loan {
    /// The lending model's id.
    pub lender: u32,
    /// First lent layer (inclusive).
    pub layer_start: u32,
    /// One past the last lent layer.
    pub layer_end: u32,
}

impl Loan {
    /// Number of layers the loan covers.
    pub fn layers(&self) -> u32 {
        self.layer_end.saturating_sub(self.layer_start)
    }
}

/// Where one capacity extent of a segmented pool came from.
///
/// The elastic memory ledger tags every slice of a group's KV capacity with
/// its provenance, so lender/borrower accounting and reclaim ordering are
/// explicit instead of implied by a single opaque capacity number:
///
/// - [`ExtentTag::Native`]: the base pool carved out at construction;
/// - [`ExtentTag::Remap`]: capacity gained by remapping this model's own
///   dropped parameter memory into the KV region (KunServe §4.1);
/// - [`ExtentTag::Borrowed`]: capacity *donated* by another co-served
///   model's drop — physically resident on the lender's devices, reclaimed
///   (by [`Loan`] layer range) before the lender restores those layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ExtentTag {
    /// The base pool mapped at construction.
    Native,
    /// Capacity from this model's own dropped parameters.
    Remap,
    /// Capacity borrowed from another model under the given loan.
    Borrowed(Loan),
}

/// A paged KVCache allocator over a **segmented** capacity.
///
/// Capacity is measured in blocks of `block_tokens` token slots and is the
/// sum of tagged *extents* (see [`ExtentTag`]). Extents can be grown and
/// shrunk live: growth models KunServe's remapping of freed parameter
/// memory (or a cross-model donation) into the KVCache region; shrinking
/// (used on restore/reclaim) fails unless enough blocks are free. Blocks
/// themselves are fungible — the segmentation is an accounting layer, so a
/// reclaim needs free *headroom*, which callers create by draining usage
/// from the borrowed share first.
///
/// Because blocks are fungible, a sequence's block table is just its token
/// count: the sequence holds exactly [`BlockManager::blocks_for`] of it,
/// and nothing ever asks *which* blocks. The tables live in a `Vec` sorted
/// by key, which allocation and release binary-search. Decode growth tries
/// the entry after its previous hit, then the first entry, and only then
/// searches: the serving engine grows a group's sequences in admission
/// order every iteration, which is mostly key order.
#[derive(Debug, Clone)]
pub struct BlockManager {
    /// Tagged capacity extents; the total capacity is their sum. At most
    /// one extent per tag (grows merge into the existing extent).
    extents: Vec<(ExtentTag, u32)>,
    /// Sum of the extents' blocks.
    capacity: u32,
    block_tokens: u32,
    /// Live sequences, sorted by key.
    tables: Vec<SeqTable>,
    /// Index just past the entry the last [`BlockManager::append_tokens`]
    /// found: where the next one looks first. Only a search hint.
    next: usize,
    /// Blocks held across all sequences.
    used: u32,
    /// Tokens stored across all sequences.
    used_tokens: u64,
}

/// One live sequence's block table.
#[derive(Debug, Clone, Copy)]
struct SeqTable {
    seq: SeqKey,
    tokens: u64,
    /// `blocks_for(tokens)`, kept so that growth divides only when the
    /// last block is full.
    blocks: u32,
}

impl BlockManager {
    /// Creates a manager with a single [`ExtentTag::Native`] extent of
    /// `capacity` blocks of `block_tokens` tokens.
    ///
    /// # Panics
    ///
    /// Panics if `block_tokens` is zero.
    pub fn new(capacity: u32, block_tokens: u32) -> Self {
        assert!(block_tokens > 0, "block size must be positive");
        BlockManager {
            extents: vec![(ExtentTag::Native, capacity)],
            capacity,
            block_tokens,
            tables: Vec::new(),
            next: 0,
            used: 0,
            used_tokens: 0,
        }
    }

    /// Token slots per block.
    pub fn block_tokens(&self) -> u32 {
        self.block_tokens
    }

    /// Total capacity in blocks (sum over all extents).
    pub fn capacity_blocks(&self) -> u32 {
        self.capacity
    }

    /// Blocks of the extent tagged `tag` (0 if absent).
    pub fn extent_blocks(&self, tag: ExtentTag) -> u32 {
        self.extents
            .iter()
            .find(|&&(t, _)| t == tag)
            .map_or(0, |&(_, b)| b)
    }

    /// Total blocks borrowed from other models.
    pub fn borrowed_blocks(&self) -> u32 {
        self.extents
            .iter()
            .filter(|(t, _)| matches!(t, ExtentTag::Borrowed(_)))
            .map(|&(_, b)| b)
            .sum()
    }

    /// Capacity excluding borrowed extents — the share physically resident
    /// on this group's own devices.
    pub fn native_capacity_blocks(&self) -> u32 {
        self.capacity_blocks() - self.borrowed_blocks()
    }

    /// All live loans (non-empty borrowed extents), ascending by
    /// `(lender, layer_start, layer_end)`.
    pub fn loans(&self) -> Vec<Loan> {
        let mut out: Vec<Loan> = self
            .extents
            .iter()
            .filter_map(|&(t, b)| match t {
                ExtentTag::Borrowed(l) if b > 0 => Some(l),
                _ => None,
            })
            .collect();
        out.sort_unstable();
        out
    }

    /// Grows the extent tagged `tag` by `blocks` (creating it if absent).
    pub fn grow_extent(&mut self, tag: ExtentTag, blocks: u32) {
        if blocks == 0 {
            return;
        }
        match self.extents.iter_mut().find(|(t, _)| *t == tag) {
            Some((_, b)) => *b += blocks,
            None => self.extents.push((tag, blocks)),
        }
        self.capacity += blocks;
    }

    /// Shrinks the extent tagged `tag` by `blocks`.
    ///
    /// Fails with [`KvError::UnknownExtent`] / [`KvError::ExtentUnderflow`]
    /// if the extent is absent or smaller than `blocks`, and with
    /// [`KvError::ShrinkBelowUsage`] if fewer than `blocks` blocks are free
    /// — usage must drain (borrowed blocks first, from the caller's
    /// perspective) before capacity can be handed back.
    pub fn shrink_extent(&mut self, tag: ExtentTag, blocks: u32) -> Result<()> {
        if blocks == 0 {
            return Ok(());
        }
        let have = match self.extents.iter().find(|&&(t, _)| t == tag) {
            None => return Err(KvError::UnknownExtent),
            Some(&(_, b)) => b,
        };
        if have < blocks {
            return Err(KvError::ExtentUnderflow {
                have,
                requested: blocks,
            });
        }
        if self.free_blocks() < blocks {
            return Err(KvError::ShrinkBelowUsage {
                used: self.used,
                requested: self.capacity_blocks() - blocks,
            });
        }
        let e = self
            .extents
            .iter_mut()
            .find(|(t, _)| *t == tag)
            .expect("checked above");
        e.1 -= blocks;
        self.capacity -= blocks;
        self.extents
            .retain(|&(t, b)| t == ExtentTag::Native || b > 0);
        Ok(())
    }

    /// Reclaims the **whole** extent tagged `tag`, returning how many
    /// blocks were handed back. Same failure modes as
    /// [`BlockManager::shrink_extent`].
    pub fn reclaim_extent(&mut self, tag: ExtentTag) -> Result<u32> {
        let have = match self.extents.iter().find(|&&(t, _)| t == tag) {
            None => return Err(KvError::UnknownExtent),
            Some(&(_, b)) => b,
        };
        self.shrink_extent(tag, have)?;
        Ok(have)
    }

    /// Total capacity in token slots.
    pub fn capacity_tokens(&self) -> u64 {
        self.capacity_blocks() as u64 * self.block_tokens as u64
    }

    /// Blocks currently allocated to sequences.
    pub fn used_blocks(&self) -> u32 {
        self.used
    }

    /// Blocks currently free.
    pub fn free_blocks(&self) -> u32 {
        self.capacity_blocks() - self.used
    }

    /// Tokens currently stored across all sequences.
    pub fn used_tokens(&self) -> u64 {
        self.used_tokens
    }

    /// Internal fragmentation: allocated slots minus stored tokens.
    pub fn fragmentation_tokens(&self) -> u64 {
        self.used as u64 * self.block_tokens as u64 - self.used_tokens
    }

    /// Blocks needed to store `tokens` tokens.
    pub fn blocks_for(&self, tokens: u64) -> u32 {
        tokens.div_ceil(self.block_tokens as u64) as u32
    }

    /// Returns `true` if `tokens` more tokens could be allocated right now
    /// for a new sequence.
    pub fn can_allocate(&self, tokens: u64) -> bool {
        self.blocks_for(tokens) <= self.free_blocks()
    }

    /// Where `seq`'s table is (`Ok`) or would be inserted (`Err`).
    fn search(&self, seq: SeqKey) -> std::result::Result<usize, usize> {
        self.tables.binary_search_by_key(&seq, |t| t.seq)
    }

    /// The live table of `seq`.
    fn table(&self, seq: SeqKey) -> Result<&SeqTable> {
        self.search(seq)
            .map(|ix| &self.tables[ix])
            .map_err(|_| KvError::UnknownSeq)
    }

    /// Tokens stored for `seq`.
    pub fn tokens_of(&self, seq: SeqKey) -> Result<u64> {
        self.table(seq).map(|t| t.tokens)
    }

    /// Blocks held by `seq`.
    pub fn blocks_of(&self, seq: SeqKey) -> Result<u32> {
        self.table(seq).map(|t| t.blocks)
    }

    /// Allocates a fresh sequence holding `tokens` tokens (prompt
    /// admission).
    pub fn allocate(&mut self, seq: SeqKey, tokens: u64) -> Result<()> {
        let needed = self.blocks_for(tokens);
        let free = self.free_blocks();
        let Err(ix) = self.search(seq) else {
            return Err(KvError::AlreadyAllocated);
        };
        if needed > free {
            return Err(KvError::OutOfBlocks { needed, free });
        }
        self.tables.insert(
            ix,
            SeqTable {
                seq,
                tokens,
                blocks: needed,
            },
        );
        self.used += needed;
        self.used_tokens += tokens;
        Ok(())
    }

    /// Appends `n` tokens to a sequence (decode growth), allocating new
    /// blocks as needed. Returns how many blocks were newly allocated.
    ///
    /// On [`KvError::OutOfBlocks`] the sequence is unchanged.
    pub fn append_tokens(&mut self, seq: SeqKey, n: u64) -> Result<u32> {
        let hit = |ix: usize| self.tables.get(ix).is_some_and(|t| t.seq == seq);
        let ix = if hit(self.next) {
            self.next
        } else if hit(0) {
            0
        } else {
            self.search(seq).map_err(|_| KvError::UnknownSeq)?
        };
        self.next = ix + 1;
        let block_tokens = u64::from(self.block_tokens);
        let table = &mut self.tables[ix];
        let tokens = table.tokens + n;
        let mut extra = 0;
        if tokens > u64::from(table.blocks) * block_tokens {
            extra = tokens.div_ceil(block_tokens) as u32 - table.blocks;
            let free = self.capacity - self.used;
            if extra > free {
                return Err(KvError::OutOfBlocks {
                    needed: extra,
                    free,
                });
            }
            table.blocks += extra;
            self.used += extra;
        }
        table.tokens = tokens;
        self.used_tokens += n;
        Ok(extra)
    }

    /// Frees a sequence's blocks, returning the tokens it held.
    pub fn free(&mut self, seq: SeqKey) -> Result<u64> {
        let ix = self.search(seq).map_err(|_| KvError::UnknownSeq)?;
        let table = self.tables.remove(ix);
        self.used -= table.blocks;
        self.used_tokens -= table.tokens;
        Ok(table.tokens)
    }

    /// Grows or shrinks the **native** extent so the total capacity becomes
    /// `new_capacity` blocks (the legacy single-extent resize).
    ///
    /// Growth always succeeds. Shrinking fails with
    /// [`KvError::ShrinkBelowUsage`] if fewer than `capacity - new_capacity`
    /// blocks are free.
    ///
    /// # Panics
    ///
    /// Panics if a shrink would cut into non-native extents — segmented
    /// pools shrink via [`BlockManager::shrink_extent`].
    pub fn resize(&mut self, new_capacity: u32) -> Result<()> {
        let cap = self.capacity_blocks();
        if new_capacity >= cap {
            self.grow_extent(ExtentTag::Native, new_capacity - cap);
            return Ok(());
        }
        if new_capacity < self.used {
            return Err(KvError::ShrinkBelowUsage {
                used: self.used,
                requested: new_capacity,
            });
        }
        let delta = cap - new_capacity;
        assert!(
            self.extent_blocks(ExtentTag::Native) >= delta,
            "resize below the native extent; shrink tagged extents explicitly"
        );
        self.shrink_extent(ExtentTag::Native, delta)
            .expect("usage checked above");
        Ok(())
    }

    /// All live sequence keys, ascending by key.
    pub fn seqs(&self) -> Vec<SeqKey> {
        self.tables.iter().map(|t| t.seq).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_rounds_up_to_blocks() {
        let mut m = BlockManager::new(10, 64);
        m.allocate(SeqKey(1), 1).expect("tiny prompt");
        assert_eq!(m.used_blocks(), 1);
        m.allocate(SeqKey(2), 64).expect("exact block");
        assert_eq!(m.used_blocks(), 2);
        m.allocate(SeqKey(3), 65).expect("one over");
        assert_eq!(m.used_blocks(), 4);
        assert_eq!(m.used_tokens(), 130);
        assert_eq!(m.fragmentation_tokens(), 4 * 64 - 130);
    }

    #[test]
    fn double_allocate_rejected() {
        let mut m = BlockManager::new(10, 64);
        m.allocate(SeqKey(1), 10).expect("first");
        assert_eq!(m.allocate(SeqKey(1), 10), Err(KvError::AlreadyAllocated));
    }

    #[test]
    fn append_uses_slack_before_new_blocks() {
        let mut m = BlockManager::new(10, 64);
        m.allocate(SeqKey(1), 60).expect("prompt");
        assert_eq!(m.append_tokens(SeqKey(1), 4).expect("slack"), 0);
        assert_eq!(m.used_blocks(), 1);
        assert_eq!(m.append_tokens(SeqKey(1), 1).expect("new block"), 1);
        assert_eq!(m.used_blocks(), 2);
        assert_eq!(m.tokens_of(SeqKey(1)).expect("live"), 65);
    }

    #[test]
    fn oom_leaves_sequence_unchanged() {
        let mut m = BlockManager::new(2, 64);
        m.allocate(SeqKey(1), 128).expect("fills pool");
        let err = m.append_tokens(SeqKey(1), 1).expect_err("pool full");
        assert_eq!(err, KvError::OutOfBlocks { needed: 1, free: 0 });
        assert_eq!(m.tokens_of(SeqKey(1)).expect("live"), 128);
        assert_eq!(m.blocks_of(SeqKey(1)).expect("live"), 2);
    }

    #[test]
    fn free_recycles_blocks() {
        let mut m = BlockManager::new(4, 64);
        m.allocate(SeqKey(1), 256).expect("fills pool");
        assert!(!m.can_allocate(1));
        assert_eq!(m.free(SeqKey(1)).expect("free"), 256);
        assert_eq!(m.free_blocks(), 4);
        assert!(m.can_allocate(256));
        assert_eq!(m.free(SeqKey(1)), Err(KvError::UnknownSeq));
    }

    #[test]
    fn resize_grow_extends_capacity() {
        let mut m = BlockManager::new(2, 64);
        m.allocate(SeqKey(1), 128).expect("fills");
        assert!(!m.can_allocate(64));
        // KunServe dropped parameters: the pool grows.
        m.resize(6).expect("grow");
        assert!(m.can_allocate(4 * 64));
        m.allocate(SeqKey(2), 256).expect("uses grown space");
        assert_eq!(m.used_blocks(), 6);
    }

    #[test]
    fn resize_shrink_requires_free_blocks() {
        let mut m = BlockManager::new(6, 64);
        m.allocate(SeqKey(1), 3 * 64).expect("alloc");
        assert_eq!(
            m.resize(2),
            Err(KvError::ShrinkBelowUsage {
                used: 3,
                requested: 2
            })
        );
        m.resize(3).expect("shrink to exactly used");
        assert_eq!(m.free_blocks(), 0);
        m.free(SeqKey(1)).expect("free");
        m.resize(1).expect("shrink empty");
        assert_eq!(m.capacity_blocks(), 1);
    }

    #[test]
    fn capacity_token_math() {
        let m = BlockManager::new(100, 64);
        assert_eq!(m.capacity_tokens(), 6400);
        assert_eq!(m.blocks_for(0), 0);
        assert_eq!(m.blocks_for(1), 1);
        assert_eq!(m.blocks_for(64), 1);
        assert_eq!(m.blocks_for(6400), 100);
    }

    fn loan(lender: u32, layer_start: u32, layer_end: u32) -> Loan {
        Loan {
            lender,
            layer_start,
            layer_end,
        }
    }

    #[test]
    fn borrowed_extent_lifecycle() {
        // grant → borrow → reclaim, with lender accounting throughout.
        let mut m = BlockManager::new(4, 64);
        m.grow_extent(ExtentTag::Borrowed(loan(1, 2, 8)), 6);
        assert_eq!(m.capacity_blocks(), 10);
        assert_eq!(m.native_capacity_blocks(), 4);
        assert_eq!(m.borrowed_blocks(), 6);
        assert_eq!(m.extent_blocks(ExtentTag::Borrowed(loan(1, 2, 8))), 6);
        assert_eq!(m.loans(), vec![loan(1, 2, 8)]);
        assert_eq!(m.loans()[0].layers(), 6);
        // Usage may spill into the borrowed share...
        m.allocate(SeqKey(1), 9 * 64).expect("spills into borrowed");
        // ...and then the reclaim must wait for headroom.
        assert_eq!(
            m.reclaim_extent(ExtentTag::Borrowed(loan(1, 2, 8))),
            Err(KvError::ShrinkBelowUsage {
                used: 9,
                requested: 4
            })
        );
        m.free(SeqKey(1)).expect("drain");
        assert_eq!(m.reclaim_extent(ExtentTag::Borrowed(loan(1, 2, 8))), Ok(6));
        assert_eq!(m.capacity_blocks(), 4);
        assert!(m.loans().is_empty());
        assert_eq!(
            m.reclaim_extent(ExtentTag::Borrowed(loan(1, 2, 8))),
            Err(KvError::UnknownExtent)
        );
    }

    #[test]
    fn per_range_loans_reclaim_independently() {
        // One lender, two disjoint layer ranges: each loan is its own
        // extent, so one range can go home while the other stays borrowed
        // — the layer-granular reclaim ordering.
        let mut m = BlockManager::new(4, 64);
        m.grow_extent(ExtentTag::Borrowed(loan(1, 6, 8)), 2);
        m.grow_extent(ExtentTag::Borrowed(loan(1, 4, 6)), 3);
        m.grow_extent(ExtentTag::Borrowed(loan(2, 0, 1)), 1);
        assert_eq!(m.borrowed_blocks(), 6);
        assert_eq!(m.loans(), vec![loan(1, 4, 6), loan(1, 6, 8), loan(2, 0, 1)]);
        assert_eq!(m.reclaim_extent(ExtentTag::Borrowed(loan(1, 6, 8))), Ok(2));
        assert_eq!(m.borrowed_blocks(), 4);
        assert_eq!(m.loans(), vec![loan(1, 4, 6), loan(2, 0, 1)]);
        // Same-identity grants merge into one extent.
        m.grow_extent(ExtentTag::Borrowed(loan(2, 0, 1)), 2);
        assert_eq!(m.extent_blocks(ExtentTag::Borrowed(loan(2, 0, 1))), 3);
    }

    #[test]
    fn remap_extent_grows_and_shrinks() {
        let mut m = BlockManager::new(2, 64);
        m.grow_extent(ExtentTag::Remap, 4);
        m.grow_extent(ExtentTag::Remap, 2);
        assert_eq!(m.extent_blocks(ExtentTag::Remap), 6);
        assert_eq!(m.native_capacity_blocks(), 8, "remap is locally resident");
        assert_eq!(
            m.shrink_extent(ExtentTag::Remap, 7),
            Err(KvError::ExtentUnderflow {
                have: 6,
                requested: 7
            })
        );
        m.shrink_extent(ExtentTag::Remap, 6).expect("all free");
        assert_eq!(m.capacity_blocks(), 2);
        assert_eq!(
            m.shrink_extent(ExtentTag::Remap, 1),
            Err(KvError::UnknownExtent)
        );
    }

    #[test]
    fn resize_keeps_tagged_extents_intact() {
        let mut m = BlockManager::new(4, 64);
        m.grow_extent(ExtentTag::Borrowed(loan(2, 0, 3)), 3);
        m.resize(9).expect("grow native to 6");
        assert_eq!(m.extent_blocks(ExtentTag::Native), 6);
        assert_eq!(m.extent_blocks(ExtentTag::Borrowed(loan(2, 0, 3))), 3);
        m.resize(5).expect("shrink native back");
        assert_eq!(m.extent_blocks(ExtentTag::Native), 2);
        assert_eq!(m.borrowed_blocks(), 3);
    }

    #[test]
    fn seqs_lists_live_tables() {
        let mut m = BlockManager::new(10, 64);
        m.allocate(SeqKey(2), 10).expect("b");
        m.allocate(SeqKey(1), 10).expect("a");
        assert_eq!(m.seqs(), vec![SeqKey(1), SeqKey(2)]);
    }
}
