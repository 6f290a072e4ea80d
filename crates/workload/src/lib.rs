//! Trace and dataset generation for serving experiments.
//!
//! The paper evaluates on the BurstGPT arrival trace (spiky, ~2× rate jumps
//! with no clear pattern) combined with three length datasets (§5.1):
//!
//! | Dataset | avg input | avg output | notes |
//! |---|---|---|---|
//! | BurstGPT | 642 | 262 | conversation |
//! | ShareGPT | 1,660 | 373 | chat, input clipped at 4 K |
//! | LongBench | 5,900 | 499 | document summarization |
//!
//! Since the original traces are external data, this crate generates seeded
//! synthetic equivalents with the same first-order statistics and burst
//! temporal structure (see DESIGN.md substitution table), plus:
//!
//! - [`BurstTraceBuilder`]: non-homogeneous Poisson arrivals with explicit
//!   burst phases (the Fig. 2 (a) shape).
//! - [`Trace::upscale`]: TraceUpscaler-style RPS scaling that preserves the
//!   temporal pattern (§5.1).
//! - [`extreme_burst`]: the Fig. 17 methodology — replay the burst until
//!   every system runs out of memory.
//!
//! The scenario-matrix generators extend the regression surface past the
//! paper's short bursts:
//!
//! - [`DiurnalTraceBuilder`]: multi-day sinusoid + noise rate envelopes
//!   (slow tide, not step bursts).
//! - [`PopularityTraceBuilder`]: many models on a Zipf long tail with
//!   cold-start arrival storms.
//! - [`SharedPrefixTraceBuilder`]: requests tagged with a [`SharedPrefix`]
//!   group for prefix-aware KV accounting.
//!
//! The closed-loop client model ([`Deadline`] on [`RequestSpec`] plus
//! [`RetryPolicy`]) turns a trace into an SLO-bound population: misses
//! abort and re-arrive with deterministic exponential backoff — the
//! amplification mechanism behind the cascading-recovery storm.

pub mod arrivals;
pub mod dataset;
pub mod diurnal;
pub mod popularity;
pub mod prefix;
pub mod retry;
pub mod source;
pub mod trace;

pub use arrivals::{BurstPhase, BurstTraceBuilder};
pub use dataset::{Dataset, LengthSampler};
pub use diurnal::DiurnalTraceBuilder;
pub use popularity::PopularityTraceBuilder;
pub use prefix::SharedPrefixTraceBuilder;
pub use retry::RetryPolicy;
pub use source::OpenLoopSource;
pub use trace::{extreme_burst, Deadline, ModelId, RequestSpec, SharedPrefix, Trace};
