//! Flow-level network simulation for inter-instance transfers.
//!
//! Three kinds of traffic share the inter-instance fabric in KunServe:
//!
//! 1. **Activation transfers** of pipelined execution — small (megabytes)
//!    but latency-critical: a stalled activation idles a whole GPU stage.
//! 2. **KVCache exchange** after a drop plan (§4.2) — large (gigabytes):
//!    ongoing requests' caches move so each instance holds the KV of its
//!    resident layers.
//! 3. **Parameter restoration** pulls (§4.4) — large, but fully background.
//!
//! The paper's *coordinated exchange* transfers bulk data in chunks sized so
//! one chunk takes about one pipeline stage, and yields to activations at
//! chunk boundaries. This crate models each directed link as a
//! work-conserving server with **atomic chunks**: an interactive transfer
//! arriving mid-chunk waits for the chunk residual only. Turning
//! coordination *off* degenerates each bulk job to a single huge chunk — an
//! activation then waits for the whole remaining job, which is exactly the
//! uncoordinated stall the ablation (Figure 14) measures.
//!
//! A [`Network`] gives every bulk job one network-wide [`JobId`], rising
//! with submission, and the link carrying it stores that id: a link sends
//! its jobs in `(priority, id)` order, and equal-time completions come
//! back in submission order.
//!
//! # Examples
//!
//! ```
//! use netsim::{JobId, Link, LinkSpec, Priority};
//! use sim_core::SimTime;
//!
//! let mut link = Link::new(LinkSpec::rdma_200gbps());
//! // Job 0: a 1 GiB background exchange in 16 MiB chunks.
//! link.submit(SimTime::ZERO, JobId(0), 1 << 30, 16 << 20, Priority::KvExchange);
//! // An activation arriving at t=1ms waits at most one chunk residual.
//! let done = link.interactive(SimTime::from_millis(1), 8 << 20);
//! assert!(done < SimTime::from_millis(3));
//! ```

pub mod link;
pub mod network;
pub mod spec;

pub use link::{JobId, Link, Priority};
pub use network::{Network, NodeId};
pub use spec::LinkSpec;
