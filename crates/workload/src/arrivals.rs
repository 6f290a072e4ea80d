//! Non-homogeneous Poisson arrival generation with burst phases.
//!
//! BurstGPT's defining property (paper Fig. 2 (a)) is that the request rate
//! jumps ~2× with no warning and stays elevated for tens of seconds. The
//! builder composes a base Poisson process with multiplicative burst phases
//! and samples lengths from a [`Dataset`].

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sim_core::{SimDuration, SimTime};

use crate::dataset::Dataset;
use crate::trace::{ModelId, RequestSpec, Trace};

/// One burst phase: the arrival rate is multiplied by `multiplier` inside
/// `[start, start + duration)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstPhase {
    /// Phase start.
    pub start: SimTime,
    /// Phase length.
    pub duration: SimDuration,
    /// Rate multiplier (2.0 = the Fig. 2 (a) doubling).
    pub multiplier: f64,
}

impl BurstPhase {
    /// Returns `true` if `t` falls inside the phase.
    pub fn contains(&self, t: SimTime) -> bool {
        t >= self.start && t < self.start + self.duration
    }
}

/// Builder for bursty traces.
///
/// # Examples
///
/// ```
/// use workload::{BurstTraceBuilder, Dataset};
/// use sim_core::{SimTime, SimDuration};
///
/// let trace = BurstTraceBuilder::new(Dataset::BurstGpt)
///     .base_rps(10.0)
///     .duration(SimDuration::from_secs(60))
///     .burst(SimTime::from_secs(30), SimDuration::from_secs(15), 2.0)
///     .seed(42)
///     .build();
/// assert!(trace.len() > 300);
/// ```
#[derive(Debug, Clone)]
pub struct BurstTraceBuilder {
    dataset: Dataset,
    base_rps: f64,
    duration: SimDuration,
    phases: Vec<BurstPhase>,
    seed: u64,
    model: ModelId,
}

impl BurstTraceBuilder {
    /// Creates a builder for `dataset` with defaults: 10 rps, 120 s, seed 0.
    pub fn new(dataset: Dataset) -> Self {
        BurstTraceBuilder {
            dataset,
            base_rps: 10.0,
            duration: SimDuration::from_secs(120),
            phases: Vec::new(),
            seed: 0,
            model: ModelId::PRIMARY,
        }
    }

    /// Tags every generated request with `model` (for multi-model traces
    /// assembled with [`Trace::merge`]).
    pub fn model(mut self, model: ModelId) -> Self {
        self.model = model;
        self
    }

    /// Sets the base (non-burst) request rate.
    pub fn base_rps(mut self, rps: f64) -> Self {
        assert!(rps > 0.0, "base rate must be positive");
        self.base_rps = rps;
        self
    }

    /// Sets the trace length.
    pub fn duration(mut self, d: SimDuration) -> Self {
        self.duration = d;
        self
    }

    /// Adds a burst phase.
    pub fn burst(mut self, start: SimTime, duration: SimDuration, multiplier: f64) -> Self {
        assert!(multiplier > 0.0, "multiplier must be positive");
        self.phases.push(BurstPhase {
            start,
            duration,
            multiplier,
        });
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The rate multiplier in effect at `t` (product of active phases).
    pub fn multiplier_at(&self, t: SimTime) -> f64 {
        self.phases
            .iter()
            .filter(|p| p.contains(t))
            .map(|p| p.multiplier)
            .product()
    }

    /// Expected request count of the configured envelope: the exact
    /// integral of the piecewise-constant rate over `[0, duration)`.
    ///
    /// The envelope is constant between phase boundaries, so the integral
    /// is a finite sum of `rate × segment` terms — the analytic target the
    /// rate-conservation proptests hold [`BurstTraceBuilder::build`] to.
    pub fn expected_requests(&self) -> f64 {
        let end = self.duration.as_secs_f64();
        let mut cuts = vec![0.0, end];
        for p in &self.phases {
            let s = (p.start - SimTime::ZERO).as_secs_f64();
            let e = (p.start + p.duration - SimTime::ZERO).as_secs_f64();
            cuts.push(s.clamp(0.0, end));
            cuts.push(e.clamp(0.0, end));
        }
        cuts.sort_by(f64::total_cmp);
        cuts.dedup();
        cuts.windows(2)
            .map(|w| {
                let mid = SimTime::from_secs_f64((w[0] + w[1]) / 2.0);
                self.base_rps * self.multiplier_at(mid) * (w[1] - w[0])
            })
            .sum()
    }

    /// Generates the trace.
    ///
    /// Arrivals are drawn by thinning a homogeneous Poisson process at the
    /// peak rate, which is exact for piecewise-constant rates.
    pub fn build(&self) -> Trace {
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let sampler = self.dataset.sampler();
        let peak_rps = self.base_rps
            * self
                .phases
                .iter()
                .map(|p| p.multiplier)
                .fold(1.0, f64::max)
                .max(1.0);
        let mut requests = Vec::new();
        let mut t = 0.0f64;
        let end = self.duration.as_secs_f64();
        loop {
            // Exponential gap at the peak rate.
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            t += -u.ln() / peak_rps;
            if t >= end {
                break;
            }
            let now = SimTime::from_secs_f64(t);
            let accept_p = self.base_rps * self.multiplier_at(now) / peak_rps;
            if rng.gen_bool(accept_p.clamp(0.0, 1.0)) {
                let (input_tokens, output_tokens) = sampler.sample(&mut rng);
                requests.push(RequestSpec {
                    id: 0,
                    model: self.model,
                    arrival: now,
                    input_tokens,
                    output_tokens,
                    prefix: None,
                    deadline: None,
                });
            }
        }
        Trace::new(requests)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_rate_without_bursts_is_poisson() {
        let t = BurstTraceBuilder::new(Dataset::BurstGpt)
            .base_rps(20.0)
            .duration(SimDuration::from_secs(100))
            .seed(3)
            .build();
        let rps = t.mean_rps();
        assert!((rps - 20.0).abs() / 20.0 < 0.10, "rate {rps:.1}");
    }

    #[test]
    fn burst_phase_doubles_local_rate() {
        let trace = BurstTraceBuilder::new(Dataset::BurstGpt)
            .base_rps(20.0)
            .duration(SimDuration::from_secs(200))
            .burst(SimTime::from_secs(100), SimDuration::from_secs(50), 2.0)
            .seed(11)
            .build();
        let count = |a: u64, b: u64| {
            trace
                .requests
                .iter()
                .filter(|r| r.arrival >= SimTime::from_secs(a) && r.arrival < SimTime::from_secs(b))
                .count() as f64
        };
        let quiet = count(0, 100) / 100.0;
        let burst = count(100, 150) / 50.0;
        let ratio = burst / quiet;
        assert!((ratio - 2.0).abs() < 0.35, "burst/quiet ratio {ratio:.2}");
    }

    #[test]
    fn multiplier_composes_phases() {
        let b = BurstTraceBuilder::new(Dataset::BurstGpt)
            .burst(SimTime::from_secs(10), SimDuration::from_secs(10), 2.0)
            .burst(SimTime::from_secs(15), SimDuration::from_secs(10), 3.0);
        assert_eq!(b.multiplier_at(SimTime::from_secs(5)), 1.0);
        assert_eq!(b.multiplier_at(SimTime::from_secs(12)), 2.0);
        assert_eq!(b.multiplier_at(SimTime::from_secs(17)), 6.0);
        assert_eq!(b.multiplier_at(SimTime::from_secs(22)), 3.0);
        assert_eq!(b.multiplier_at(SimTime::from_secs(30)), 1.0);
    }

    #[test]
    fn expected_requests_integrates_the_envelope() {
        // 100 s at 20 rps, with a 2× phase over 50 s: 2000 + 1000 extra.
        let b = BurstTraceBuilder::new(Dataset::BurstGpt)
            .base_rps(20.0)
            .duration(SimDuration::from_secs(100))
            .burst(SimTime::from_secs(25), SimDuration::from_secs(50), 2.0);
        assert!((b.expected_requests() - 3000.0).abs() < 1e-6);
        // A phase sticking out past the trace end is clipped.
        let c = BurstTraceBuilder::new(Dataset::BurstGpt)
            .base_rps(10.0)
            .duration(SimDuration::from_secs(60))
            .burst(SimTime::from_secs(50), SimDuration::from_secs(100), 3.0);
        assert!((c.expected_requests() - (600.0 + 2.0 * 10.0 * 10.0)).abs() < 1e-6);
    }

    #[test]
    fn build_is_deterministic_per_seed() {
        let mk = || {
            BurstTraceBuilder::new(Dataset::ShareGpt)
                .base_rps(15.0)
                .duration(SimDuration::from_secs(30))
                .seed(77)
                .build()
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.len(), b.len());
        assert_eq!(a.requests.first(), b.requests.first());
        assert_eq!(a.requests.last(), b.requests.last());
    }

    #[test]
    fn lengths_come_from_dataset() {
        let t = BurstTraceBuilder::new(Dataset::LongBench)
            .base_rps(50.0)
            .duration(SimDuration::from_secs(60))
            .seed(2)
            .build();
        assert!((t.mean_input_tokens() - 5_900.0).abs() / 5_900.0 < 0.2);
    }
}
