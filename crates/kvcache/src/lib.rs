//! Paged KVCache block management (the vLLM-style substrate).
//!
//! LLM serving keeps per-request KVCache in fixed-size *blocks* of token
//! slots (the paper tunes 64 tokens/block, §5.1). This crate implements the
//! block manager the serving engine allocates from:
//!
//! - [`BlockManager`]: block accounting with prompt allocation, per-token
//!   decode growth, and **live capacity extents** — the capacity grows when
//!   KunServe remaps dropped parameter memory into the KVCache region and
//!   shrinks again on restore ([`BlockManager::grow_extent`],
//!   [`BlockManager::shrink_extent`]). Blocks are fungible, so a sequence's block
//!   table is its token count: it holds `ceil(tokens / block_tokens)`
//!   blocks, and no caller ever needs to know which. The tables are a
//!   key-sorted `Vec` that decode growth searches from its last hit, so
//!   growing a group's sequences in admission order costs constant time
//!   per token, with a division only when a block fills.
//! - [`HostSwapPool`]: host-DRAM staging area used by the swap baseline
//!   (InferCept) and by fault-tolerant parameter restoration.
//! - [`PrefixLedger`]: shared-prompt prefix residency accounting — a
//!   dropped prefix charges recompute once per dependent admitted after
//!   the eviction (the shared-prefix scenario's bounded-amplification
//!   gate).
//!
//! # Examples
//!
//! ```
//! use kvcache::{BlockManager, SeqKey};
//!
//! let mut mgr = BlockManager::new(100, 64);
//! mgr.allocate(SeqKey(1), 130).unwrap(); // 3 blocks for a 130-token prompt
//! assert_eq!(mgr.used_blocks(), 3);
//! let grew = mgr.append_tokens(SeqKey(1), 62).unwrap();
//! assert_eq!(grew, 0); // fits in the third block's slack
//! assert_eq!(mgr.free(SeqKey(1)).unwrap(), 192);
//! ```

pub mod error;
pub mod manager;
pub mod prefix;
pub mod swap;

pub use error::KvError;
pub use manager::{BlockManager, ExtentTag, Loan, SeqKey};
pub use prefix::{PrefixLedger, PrefixOutcome};
pub use swap::HostSwapPool;

/// Convenience alias for fallible KVCache operations.
pub type Result<T> = std::result::Result<T, KvError>;
