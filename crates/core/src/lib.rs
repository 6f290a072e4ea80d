//! KunServe: parameter-centric memory management for LLM serving.
//!
//! This crate is a from-scratch reproduction of the EuroSys '26 paper
//! *"KunServe: Parameter-centric Memory Management for Efficient Memory
//! Overloading Handling in LLM Serving"* (Cheng, Lai, Wei, Chen, Chen —
//! SJTU IPADS) on top of a simulated GPU serving substrate (the `cluster`
//! crate).
//!
//! The paper's idea: when KVCache demand overloads GPU memory, **drop
//! replicated model parameters** instead of victimizing KVCache. Dropping
//! is safe because clusters replicate the model across instances; as long
//! as the cluster retains one complete copy, merged instances can serve
//! every request cooperatively with pipeline parallelism. Freed parameter
//! memory is remapped into the KVCache region so queued requests execute
//! immediately, eliminating the queuing that dominates tail TTFT.
//!
//! The crate provides the paper's four mechanisms:
//!
//! - [`plan`]: greedy drop-plan generation (paper Fig. 6) — merge the
//!   smallest groups first to minimize pipeline depth.
//! - [`balance_microbatches`]: cost-balanced microbatch formation (paper
//!   Fig. 11) driven by the Eq. 1–3 cost model, minimizing pipeline
//!   bubbles; it lives in `cluster::former`, beside the token-count
//!   former, and the policy selects it through
//!   [`cluster::MicrobatchFormerSpec`].
//! - [`policy`]: the [`policy::KunServePolicy`] tying detection, drop,
//!   coordinated KVCache exchange and dynamic restore together (§4).
//! - [`baselines`]: the systems the paper compares against — vLLM
//!   (recompute), vLLM-PP (static pipeline), InferCept (swap), Llumnix
//!   (migration) — implemented over the same substrate.
//!
//! [`serving`] offers a one-call API to run any of the five systems on a
//! workload trace and collect the paper's metrics.
//!
//! # Examples
//!
//! ```
//! use kunserve::serving::{Run, SystemKind};
//! use cluster::ClusterConfig;
//! use workload::{BurstTraceBuilder, Dataset};
//! use sim_core::{SimDuration, SimTime};
//!
//! let trace = BurstTraceBuilder::new(Dataset::BurstGpt)
//!     .base_rps(20.0)
//!     .duration(SimDuration::from_secs(10))
//!     .seed(1)
//!     .build();
//! let outcome = Run::new(SystemKind::KunServe, ClusterConfig::tiny_test(2), &trace)
//!     .drain(SimDuration::from_secs(120))
//!     .execute();
//! assert_eq!(outcome.report.finished_requests, trace.len());
//! ```

pub mod baselines;
pub mod plan;
pub mod policy;
pub mod serving;

pub use baselines::{InferCeptPolicy, LlumnixPolicy, VllmPolicy};
pub use cluster::balance_microbatches;
pub use plan::{
    arbitrate_with_donation, ArbitratedPlan, Arbitration, ArbitrationOutcome, DonationGrant,
    DonorMerge, DonorPlan, DropPlan, DropPlanner, LenderOffer, ModelDemand, PlanGroup,
};
pub use policy::{KunServeConfig, KunServePolicy};
pub use serving::{Run, RunOutcome, ServingSession, SystemKind};
