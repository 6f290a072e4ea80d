//! Model architecture catalog and memory arithmetic.
//!
//! KunServe's core insight is quantitative: *parameters occupy 34–74 % of
//! per-GPU HBM* (paper Table 1), so dropping replicated parameters frees
//! enough memory to absorb KVCache bursts. This crate provides the
//! architecture-level arithmetic behind that observation:
//!
//! - [`ModelConfig`]: a transformer architecture description with derived
//!   parameter-byte and KVCache-byte math (GQA-aware).
//! - [`catalog`]: the five models of paper Table 1, with their deployment
//!   shapes (GPUs per instance, TP/EP degrees).
//! - [`partition`]: layer-range partitioning used when parameters are
//!   dropped and instances merge into pipeline-parallel groups.
//!
//! # Examples
//!
//! ```
//! use modelcfg::catalog;
//!
//! let m = catalog::qwen2_5_14b();
//! // The paper: "each token consumes 192 KB of memory" for Qwen-2.5-14B.
//! assert_eq!(m.kv_bytes_per_token(), 192 * 1024);
//! ```

#![forbid(unsafe_code)]

pub mod catalog;
pub mod config;
pub mod partition;

pub use config::{DType, ModelConfig, Parallelism};
pub use partition::{
    layers_covering, param_bytes_for_layers, partition_layers, top_range, LayerRange, LayerSet,
};

/// Bytes in one gibibyte, used throughout the memory math.
pub const GIB: u64 = 1 << 30;

/// Bytes in one gigabyte (decimal), used when matching the paper's GB units.
pub const GB: u64 = 1_000_000_000;
