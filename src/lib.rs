//! KunServe reproduction — umbrella crate.
//!
//! This crate re-exports the workspace's public API so examples, integration
//! tests and downstream users can depend on a single crate:
//!
//! - [`kunserve`]: the paper's contribution (drop plans, lookahead batching,
//!   the KunServe policy, baselines, the [`kunserve::serving`] runner).
//! - [`cluster`]: the serving substrate (engine, mechanisms, metrics).
//! - [`workload`]: traces and datasets.
//! - [`modelcfg`], [`costmodel`], [`kvcache`], [`netsim`]: the
//!   lower-level substrates, and [`simgpu`], the page size and remap cost
//!   of the parameter remapping.
//!
//! # Quickstart
//!
//! ```
//! use kunserve_repro::prelude::*;
//!
//! let trace = BurstTraceBuilder::new(Dataset::BurstGpt)
//!     .base_rps(20.0)
//!     .duration(SimDuration::from_secs(10))
//!     .seed(1)
//!     .build();
//! let outcome = Run::new(SystemKind::KunServe, ClusterConfig::tiny_test(2), &trace)
//!     .drain(SimDuration::from_secs(60))
//!     .execute();
//! assert_eq!(outcome.report.finished_requests, trace.len());
//! ```

pub use cluster;
pub use costmodel;
pub use gateway;
pub use kunserve;
pub use kvcache;
pub use modelcfg;
pub use netsim;
pub use sim_core;
pub use simgpu;
pub use workload;

/// One-line imports for examples and tests.
pub mod prelude {
    pub use cluster::{Action, ClusterConfig, Engine, FailureSchedule, Policy, RunReport, Testbed};
    pub use kunserve::serving::{Run, RunOutcome, ServingSession, SystemKind};
    pub use kunserve::{KunServeConfig, KunServePolicy};
    pub use sim_core::{SimDuration, SimTime};
    pub use workload::{
        BurstTraceBuilder, Dataset, DiurnalTraceBuilder, PopularityTraceBuilder,
        SharedPrefixTraceBuilder, Trace,
    };
}
