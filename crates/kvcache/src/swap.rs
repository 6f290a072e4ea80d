//! Host-DRAM swap pool for the InferCept-style swapping baseline.
//!
//! When GPU memory overloads, the swap baseline (paper §2.3, Fig. 3 (b))
//! moves the KVCache of victim sequences to host memory and brings it back
//! before they resume. The pool only tracks capacity; transfer *timing* is
//! the business of the network/PCIe simulator.

#![expect(
    clippy::disallowed_types,
    reason = "swapped-sequence staging: keyed lookup only"
)]

use std::collections::HashMap;

use crate::error::KvError;
use crate::manager::SeqKey;
use crate::Result;

/// A host-memory staging pool for swapped-out KVCache, sized in blocks.
#[derive(Debug, Clone)]
pub struct HostSwapPool {
    capacity: u32,
    used: u32,
    swapped: HashMap<SeqKey, SwappedSeq>,
}

/// Bookkeeping for one swapped-out sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwappedSeq {
    /// Blocks the sequence occupies in host memory.
    pub blocks: u32,
    /// Tokens the sequence held when it was swapped out.
    pub tokens: u64,
}

impl HostSwapPool {
    /// Creates a pool of `capacity` blocks.
    pub fn new(capacity: u32) -> Self {
        HostSwapPool {
            capacity,
            used: 0,
            swapped: HashMap::new(),
        }
    }

    /// Blocks currently free in the pool.
    pub fn free_blocks(&self) -> u32 {
        self.capacity - self.used
    }

    /// Blocks currently used.
    pub fn used_blocks(&self) -> u32 {
        self.used
    }

    /// Returns `true` if the sequence is swapped out.
    pub fn contains(&self, seq: SeqKey) -> bool {
        self.swapped.contains_key(&seq)
    }

    /// Parks a sequence of `blocks` blocks / `tokens` tokens in host memory.
    pub fn swap_out(&mut self, seq: SeqKey, blocks: u32, tokens: u64) -> Result<()> {
        if self.swapped.contains_key(&seq) {
            return Err(KvError::AlreadyAllocated);
        }
        if blocks > self.free_blocks() {
            return Err(KvError::SwapPoolFull {
                needed: blocks,
                free: self.free_blocks(),
            });
        }
        self.used += blocks;
        self.swapped.insert(seq, SwappedSeq { blocks, tokens });
        Ok(())
    }

    /// Removes a sequence from the pool, returning its bookkeeping so the
    /// caller can re-allocate GPU blocks.
    pub fn swap_in(&mut self, seq: SeqKey) -> Result<SwappedSeq> {
        let s = self.swapped.remove(&seq).ok_or(KvError::NotSwapped)?;
        self.used -= s.blocks;
        Ok(s)
    }

    /// Peeks at a swapped sequence without removing it.
    pub fn get(&self, seq: SeqKey) -> Option<SwappedSeq> {
        self.swapped.get(&seq).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn swap_round_trip() {
        let mut pool = HostSwapPool::new(10);
        pool.swap_out(SeqKey(1), 4, 250).expect("out");
        assert_eq!(pool.used_blocks(), 4);
        assert!(pool.contains(SeqKey(1)));
        assert_eq!(
            pool.get(SeqKey(1)),
            Some(SwappedSeq {
                blocks: 4,
                tokens: 250
            })
        );
        let s = pool.swap_in(SeqKey(1)).expect("in");
        assert_eq!(s.tokens, 250);
        assert_eq!(pool.used_blocks(), 0);
    }

    #[test]
    fn pool_capacity_enforced() {
        let mut pool = HostSwapPool::new(4);
        pool.swap_out(SeqKey(1), 3, 100).expect("out");
        let err = pool.swap_out(SeqKey(2), 2, 80).expect_err("full");
        assert_eq!(err, KvError::SwapPoolFull { needed: 2, free: 1 });
    }

    #[test]
    fn double_swap_out_rejected() {
        let mut pool = HostSwapPool::new(10);
        pool.swap_out(SeqKey(1), 1, 10).expect("out");
        assert_eq!(
            pool.swap_out(SeqKey(1), 1, 10),
            Err(KvError::AlreadyAllocated)
        );
    }

    #[test]
    fn swap_in_unknown_rejected() {
        let mut pool = HostSwapPool::new(10);
        assert_eq!(pool.swap_in(SeqKey(9)), Err(KvError::NotSwapped));
    }
}
