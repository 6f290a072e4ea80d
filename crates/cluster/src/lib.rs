//! The LLM serving substrate: a discrete-event cluster simulator.
//!
//! This crate reimplements the *serving engine* layer the paper builds on
//! (vLLM-class continuous batching with chunked prefill, paged KVCache,
//! pipeline-parallel groups, a load-balancing dispatcher and a cluster
//! monitor) over instances whose memory is layer arithmetic at the CUDA
//! VMM's page granularity ([`simgpu`]), a fitted execution-time model
//! ([`costmodel`]) and a flow-level network ([`netsim`]).
//!
//! Design: **mechanism here, policy in the `kunserve` crate.** The
//! [`state::ClusterState`] exposes every mechanism the paper's systems use —
//! preempt-and-recompute (vLLM), swap (InferCept), migrate (Llumnix), and
//! group merge/split with parameter remapping and KVCache exchange
//! (KunServe). A [`policy::Policy`] implementation decides *when* to invoke
//! them; the [`engine::Engine`] drives arrivals, iterations, transfers and
//! monitor ticks through a deterministic event queue, and applies outside
//! [`failure::Action`]s (faults, elastic model ops) at one site.
//!
//! ```text
//!    trace ──► dispatcher ──► group queues ──► batch former ──► pipeline
//!                  ▲              │                                 │
//!                  └── monitor ◄──┴──────── metrics ◄──────────────┘
//! ```

pub mod batch;
pub mod config;
pub mod engine;
pub mod failure;
pub mod former;
pub mod group;
pub mod instance;
pub mod ledger;
pub mod metrics;
pub mod pipeline;
pub mod policy;
pub mod request;
pub mod state;

pub use batch::{token_count_form, MicroBatch, SeqChunk};
pub use config::{ClusterConfig, ConfigError, ModelDeployment, Testbed};
pub use engine::{Engine, ParallelConfig};
pub use failure::{Action, FailureEvent, FailureSchedule, FaultKind, ScheduleError};
pub use former::{balance_microbatches, MicrobatchFormerSpec};
pub use group::{ExecGroup, GroupId};
pub use instance::{Instance, InstanceId};
pub use ledger::{LedgerEntry, MemoryLedger};
pub use metrics::{Metrics, ModelReport, RequestRecord, RunReport};
pub use pipeline::{PipelineSchedule, StageTiming};
pub use policy::{
    DeferredHooks, HookPlan, OomResolution, Policy, QueueingPolicy, SpecJob, TransferEvent,
    TransferPurpose,
};
pub use request::{ReqState, Request, RequestId, StallReason};
pub use state::{CancelOutcome, ClusterState, DeadlineSweep, ModelAvailability};
pub use workload::{Deadline, ModelId, RetryPolicy};
