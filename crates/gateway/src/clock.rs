//! The gateway's clock parameter.
//!
//! The deterministic core advances [`SimTime`](sim_core::SimTime) only, and
//! the gateway processes boundaries as fast as the host executes. A caller
//! who wants a session to track wall time sleeps between
//! [`Gateway::pump_until`](crate::Gateway::pump_until) calls.

/// Kept for the benchmark, which names `Gateway<Virtual>`; it has no
/// methods and changes nothing a gateway computes.
pub trait Clock {}

/// Kept for the benchmark, which names it; the only [`Clock`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Virtual;

impl Clock for Virtual {}
