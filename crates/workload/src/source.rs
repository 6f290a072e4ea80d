//! Open-loop synthetic clients: an unbounded, seeded Poisson stream.
//!
//! [`OpenLoopSource`] materializes a prefix of the stream as a [`Trace`].
//! The same configuration always yields the same trace, so its arrivals
//! can be submitted through a gateway and replayed by a batch run alike.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sim_core::{SimDuration, SimTime};

use crate::dataset::{Dataset, LengthSampler};
use crate::trace::{ModelId, RequestSpec, Trace};

/// An unbounded open-loop Poisson client population: exponential
/// inter-arrival gaps at a fixed rate, lengths sampled from a
/// [`Dataset`], all from one seeded RNG stream.
///
/// Unlike [`crate::BurstTraceBuilder`], the stream has no built-in end:
/// [`OpenLoopSource::to_trace`] bounds it.
#[derive(Debug, Clone)]
pub struct OpenLoopSource {
    rng: SmallRng,
    sampler: LengthSampler,
    rps: f64,
    model: ModelId,
    /// Client-assigned id counter (each spec gets a distinct `id`, the
    /// key retry backoff jitter derives from).
    next_id: u64,
}

impl OpenLoopSource {
    /// A Poisson stream over `dataset` lengths at `rps` requests/second,
    /// starting at [`SimTime::ZERO`].
    pub fn new(dataset: Dataset, rps: f64, seed: u64) -> Self {
        assert!(rps > 0.0, "rate must be positive");
        OpenLoopSource {
            rng: SmallRng::seed_from_u64(seed),
            sampler: dataset.sampler(),
            rps,
            model: ModelId::PRIMARY,
            next_id: 0,
        }
    }

    /// Tags every generated request with `model`.
    pub fn model(mut self, model: ModelId) -> Self {
        self.model = model;
        self
    }

    fn generate(&mut self, after: SimTime) -> RequestSpec {
        // Exponential gap, exactly the draw `BurstTraceBuilder` makes.
        let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        let gap = SimDuration::from_secs_f64(-u.ln() / self.rps);
        let (input_tokens, output_tokens) = self.sampler.sample(&mut self.rng);
        let id = self.next_id;
        self.next_id += 1;
        RequestSpec {
            id,
            model: self.model,
            arrival: after + gap,
            input_tokens,
            output_tokens,
            prefix: None,
            deadline: None,
        }
    }

    /// Materializes every arrival in `[ZERO, duration)` as a [`Trace`],
    /// consuming the source.
    pub fn to_trace(mut self, duration: SimDuration) -> Trace {
        let end = SimTime::ZERO + duration;
        let mut requests = Vec::new();
        let mut spec = self.generate(SimTime::ZERO);
        while spec.arrival < end {
            let next = self.generate(spec.arrival);
            requests.push(std::mem::replace(&mut spec, next));
        }
        Trace::new(requests)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_rate_and_determinism() {
        let secs = 200;
        let t =
            OpenLoopSource::new(Dataset::BurstGpt, 25.0, 4).to_trace(SimDuration::from_secs(secs));
        let rps = t.len() as f64 / secs as f64;
        assert!((rps - 25.0).abs() / 25.0 < 0.10, "rate {rps:.1}");
        let u =
            OpenLoopSource::new(Dataset::BurstGpt, 25.0, 4).to_trace(SimDuration::from_secs(secs));
        assert_eq!(t.requests, u.requests, "same seed, same stream");
    }
}
