//! The virtual-time ↔ wall-clock bridge.
//!
//! The deterministic core advances [`SimTime`] only; a gateway decides how
//! that maps onto the world outside. [`Virtual`] does not map it at all —
//! boundaries are processed as fast as the host executes, which is what
//! tests, CI and batch-equivalence comparisons use. [`Paced`] sleeps so
//! simulated time tracks wall time (optionally scaled), turning the same
//! gateway into an interactive demo or a soak driver.
//!
//! Crucially the clock only *delays* boundary processing; it never feeds
//! anything back into the simulation. Arrival times, tick times and every
//! event order are identical under any `Clock`, so a paced run and a
//! virtual run of the same submissions produce byte-identical reports.

use sim_core::SimTime;

/// Maps simulated boundary times onto the caller's timeline.
pub trait Clock {
    /// Called once per processed boundary, after the engine has advanced
    /// to `now` of simulated time. Implementations may block (pacing);
    /// they must not influence what the simulation computes.
    fn pace(&mut self, now: SimTime);
}

/// No pacing: run boundaries as fast as the host allows (the default for
/// experiments and tests).
#[derive(Debug, Clone, Copy, Default)]
pub struct Virtual;

impl Clock for Virtual {
    fn pace(&mut self, _now: SimTime) {}
}

/// Wall-clock pacing: boundary `t` is released no earlier than
/// `t / speedup` of wall time after the first paced boundary. `speedup`
/// above 1.0 runs faster than real time, below 1.0 slower.
///
/// This file is the one sanctioned wall-clock site in the gateway: the
/// simulation itself never reads it.
#[derive(Debug)]
pub struct Paced {
    #[expect(
        clippy::disallowed_types,
        reason = "pacing reads the host clock; the simulation never sees it"
    )]
    start: Option<std::time::Instant>,
    speedup: f64,
}

impl Paced {
    /// Real-time pacing (1× speed).
    pub fn realtime() -> Self {
        Paced::with_speedup(1.0)
    }

    /// Paces at `speedup ×` real time; must be positive and finite.
    pub fn with_speedup(speedup: f64) -> Self {
        assert!(
            speedup.is_finite() && speedup > 0.0,
            "speedup must be positive and finite"
        );
        Paced {
            start: None,
            speedup,
        }
    }
}

impl Clock for Paced {
    #[expect(
        clippy::disallowed_types,
        reason = "pacing reads the host clock; the simulation never sees it"
    )]
    fn pace(&mut self, now: SimTime) {
        let start = *self.start.get_or_insert_with(std::time::Instant::now);
        let target = now.as_secs_f64() / self.speedup;
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed < target {
            std::thread::sleep(std::time::Duration::from_secs_f64(target - elapsed));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_clock_never_blocks() {
        let mut c = Virtual;
        c.pace(SimTime::from_secs(1_000_000));
    }

    #[test]
    fn paced_clock_sleeps_towards_target() {
        // A huge speedup makes the target negligible: the call must return
        // promptly (this is a smoke test, not a timing assertion).
        let mut c = Paced::with_speedup(1e9);
        c.pace(SimTime::from_secs(5));
        c.pace(SimTime::from_secs(10));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn paced_rejects_nonpositive_speedup() {
        let _ = Paced::with_speedup(0.0);
    }
}
