//! Discrete-event simulation kernel shared by every KunServe substrate crate.
//!
//! The crate provides three building blocks:
//!
//! - [`SimTime`] / [`SimDuration`]: microsecond-resolution simulated time.
//! - [`EventQueue`]: a deterministic future-event list. Ties in time are
//!   broken by insertion order, so a simulation driven by this queue is fully
//!   reproducible for a fixed seed. Events pushed in time order (a batch
//!   run's arrival trace) wait in a FIFO lane beside the heap, so the heap
//!   holds only the few events scheduled out of order.
//! - [`stats`]: percentile summaries and windowed time series used by the
//!   serving metrics collectors and the benchmark harness.
//!   [`WindowedRate`] counts occurrences in fixed 100 ms buckets, so its
//!   memory follows the simulated span, not the number of recordings;
//!   its rate windows start on and span whole buckets.
//!
//! # Examples
//!
//! ```
//! use sim_core::{EventQueue, SimTime, SimDuration};
//!
//! let mut q = EventQueue::new();
//! q.push(SimTime::ZERO + SimDuration::from_millis(5), "later");
//! q.push(SimTime::ZERO, "now");
//! assert_eq!(q.pop().unwrap().1, "now");
//! assert_eq!(q.pop().unwrap().1, "later");
//! ```

pub mod queue;
pub mod stats;
pub mod time;

pub use queue::EventQueue;
pub use stats::{Percentiles, TimeSeries, WindowedRate};
pub use time::{SimDuration, SimTime};
