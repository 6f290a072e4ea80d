//! The benchmark's one host-clock site. The benchmark times the simulator
//! from outside; no simulated timestamp is ever derived from this clock.

/// A host-time stopwatch.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(
    // simlint: allow(D-TIME) — host time around simulator calls, never a simulated timestamp.
    std::time::Instant,
);

impl Stopwatch {
    pub fn start() -> Self {
        // simlint: allow(D-TIME) — see the type.
        Stopwatch(std::time::Instant::now())
    }

    pub fn elapsed_s(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }

    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}
