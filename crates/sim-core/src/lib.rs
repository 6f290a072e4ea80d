//! Discrete-event simulation kernel shared by every KunServe substrate crate.
//!
//! The crate provides three building blocks:
//!
//! - [`SimTime`] / [`SimDuration`]: microsecond-resolution simulated time.
//! - [`EventQueue`]: a deterministic future-event list. Ties in time are
//!   broken by insertion order, so a simulation driven by this queue is fully
//!   reproducible for a fixed seed.
//! - [`stats`]: percentile summaries and windowed time series used by the
//!   serving metrics collectors and the benchmark harness.
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
