//! Execution-time modelling for simulated LLM serving.
//!
//! The paper's lookahead batch formulation (§4.3) relies on a cost model for
//! microbatch execution time (Eq. 1–3):
//!
//! ```text
//! cost(c_ij) = α · (p_ij·c_ij  +  (c_ij² + c_ij)/2)  +  β · c_ij  +  γ     (Eq. 1)
//!              └─ prefix-attn ──┴─── self-attn ──┘      └ FFN ┘    └ other ┘
//!
//! cost(b_k)  = Σ cost(c_ij)  −  (|b_k| − 1) · λ                            (Eq. 3)
//! ```
//!
//! where `p` is the prefix (already-cached) token count of the chunk, `c` the
//! new token count, and `λ` the per-chunk parameter-loading cost that is
//! deduplicated when chunks share a batch.
//!
//! This crate provides:
//!
//! - [`CostParams`]: the Eq. 1–3 evaluator used by schedulers.
//! - [`TokenCountModel`]: the attention-blind baseline the paper compares
//!   against in Figure 15 (NanoFlow/DistServe-style).
//! - [`GroundTruth`]: the calibrated execution model the *simulator* charges
//!   time from — the same functional family plus small-batch inefficiency, a
//!   weight-load floor, and measurement noise, so that fitting is a
//!   meaningful exercise.
//! - [`fit`]: offline profiling + ordinary-least-squares fitting (§4.3
//!   "determined through offline profiling ... least squares method").

#![forbid(unsafe_code)]

pub mod fit;
pub mod ground_truth;
pub mod model;

pub use fit::{fit_chunk_params, fit_lambda, fit_token_count_model, Profiler};
pub use ground_truth::{GpuPerf, GroundTruth};
pub use model::{ChunkWork, CostParams, TokenCountModel};
