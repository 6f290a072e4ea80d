//! Dynamic arrival sources: pull-based request streams for live serving.
//!
//! A pre-materialized [`Trace`] fits batch replays, but a gateway driving
//! an incremental engine session needs arrivals *on demand* — it pulls
//! everything due before the next monitor-tick boundary, injects,
//! and steps. [`ArrivalSource`] is that contract; [`TraceSource`] adapts a
//! trace, and [`OpenLoopSource`] generates an unbounded seeded Poisson
//! stream (the open-loop synthetic-client half of the virtual-time
//! bridge). Both are deterministic: the same source configuration always
//! yields the same arrival sequence, regardless of how the pulls are
//! chunked — that invariance is what keeps a gateway-fed run byte-identical
//! to the equivalent batch replay.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sim_core::{SimDuration, SimTime};

use crate::dataset::{Dataset, LengthSampler};
use crate::trace::{ModelId, RequestSpec, Trace};

/// A pull-based stream of [`RequestSpec`]s with non-decreasing arrivals.
///
/// Implementations must be *chunk-invariant*: the concatenation of
/// `next_before` results is the same sequence no matter how the caller
/// slices the time axis. (Both provided sources prefetch one request and
/// hand it over only when its arrival falls before the asked boundary.)
pub trait ArrivalSource {
    /// The next request with `arrival < until`, consuming it; `None` when
    /// the stream has nothing before `until`.
    fn next_before(&mut self, until: SimTime) -> Option<RequestSpec>;

    /// The arrival time of the next request without consuming it; `None`
    /// when the stream is exhausted.
    fn peek(&self) -> Option<SimTime>;

    /// Drains every request with `arrival < until` into a vector — the
    /// per-boundary pull loop gateways run, packaged.
    fn take_before(&mut self, until: SimTime) -> Vec<RequestSpec> {
        let mut out = Vec::new();
        while let Some(spec) = self.next_before(until) {
            out.push(spec);
        }
        out
    }
}

/// Replays a [`Trace`] as an arrival source (a borrowing cursor; the
/// trace itself is untouched and reusable for the batch comparison run).
#[derive(Debug, Clone)]
pub struct TraceSource<'a> {
    trace: &'a Trace,
    cursor: usize,
}

impl<'a> TraceSource<'a> {
    /// A source positioned at the start of `trace`.
    pub fn new(trace: &'a Trace) -> Self {
        TraceSource { trace, cursor: 0 }
    }

    /// Requests not yet handed out.
    pub fn remaining(&self) -> usize {
        self.trace.len() - self.cursor
    }
}

impl ArrivalSource for TraceSource<'_> {
    fn next_before(&mut self, until: SimTime) -> Option<RequestSpec> {
        let spec = self.trace.requests.get(self.cursor)?;
        if spec.arrival >= until {
            return None;
        }
        self.cursor += 1;
        Some(*spec)
    }

    fn peek(&self) -> Option<SimTime> {
        self.trace.requests.get(self.cursor).map(|s| s.arrival)
    }
}

/// An unbounded open-loop Poisson client population: exponential
/// inter-arrival gaps at a fixed rate, lengths sampled from a
/// [`Dataset`], all from one seeded RNG stream.
///
/// Unlike [`crate::BurstTraceBuilder`] (which materializes a bounded
/// trace up front), this generates lazily and never ends — the caller
/// bounds the run, not the source. Materialize a prefix with
/// [`OpenLoopSource::to_trace`] to get the batch-comparison twin of a
/// streamed run.
#[derive(Debug, Clone)]
pub struct OpenLoopSource {
    rng: SmallRng,
    sampler: LengthSampler,
    rps: f64,
    model: ModelId,
    /// Client-assigned id counter (each spec gets a distinct `id`, the
    /// key retry backoff jitter derives from).
    next_id: u64,
    /// The prefetched head of the stream.
    next: RequestSpec,
}

impl OpenLoopSource {
    /// A Poisson stream over `dataset` lengths at `rps` requests/second,
    /// starting at [`SimTime::ZERO`].
    pub fn new(dataset: Dataset, rps: f64, seed: u64) -> Self {
        assert!(rps > 0.0, "rate must be positive");
        let mut src = OpenLoopSource {
            rng: SmallRng::seed_from_u64(seed),
            sampler: dataset.sampler(),
            rps,
            model: ModelId::PRIMARY,
            next_id: 0,
            next: RequestSpec {
                id: 0,
                model: ModelId::PRIMARY,
                arrival: SimTime::ZERO,
                input_tokens: 0,
                output_tokens: 0,
                prefix: None,
                deadline: None,
            },
        };
        src.next = src.generate(SimTime::ZERO);
        src
    }

    /// Tags every generated request with `model`.
    pub fn model(mut self, model: ModelId) -> Self {
        self.model = model;
        self.next.model = model;
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
    /// consuming the source. Feeding the result through a batch run is
    /// byte-equivalent to streaming the same source into a session.
    pub fn to_trace(mut self, duration: SimDuration) -> Trace {
        let end = SimTime::ZERO + duration;
        let mut requests = Vec::new();
        while let Some(spec) = self.next_before(end) {
            requests.push(spec);
        }
        Trace::new(requests)
    }
}

impl ArrivalSource for OpenLoopSource {
    fn next_before(&mut self, until: SimTime) -> Option<RequestSpec> {
        if self.next.arrival >= until {
            return None;
        }
        let fresh = self.generate(self.next.arrival);
        Some(std::mem::replace(&mut self.next, fresh))
    }

    fn peek(&self) -> Option<SimTime> {
        Some(self.next.arrival)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_source_replays_in_order_and_is_chunk_invariant() {
        let trace = crate::BurstTraceBuilder::new(Dataset::BurstGpt)
            .base_rps(20.0)
            .duration(SimDuration::from_secs(10))
            .seed(9)
            .build();
        // One big pull.
        let mut a = TraceSource::new(&trace);
        let whole = a.take_before(SimTime::from_secs(10));
        assert_eq!(whole, trace.requests);
        assert_eq!(a.remaining(), 0);
        // Many small pulls over the same axis.
        let mut b = TraceSource::new(&trace);
        let mut chunked = Vec::new();
        for ms in (0..=10_000).step_by(137) {
            chunked.extend(b.take_before(SimTime::from_millis(ms)));
        }
        chunked.extend(b.take_before(SimTime::from_secs(10)));
        assert_eq!(chunked, trace.requests);
    }

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

    #[test]
    fn open_loop_streaming_matches_materialized_trace() {
        let trace =
            OpenLoopSource::new(Dataset::ShareGpt, 10.0, 31).to_trace(SimDuration::from_secs(30));
        let mut src = OpenLoopSource::new(Dataset::ShareGpt, 10.0, 31);
        let mut streamed = Vec::new();
        for ms in (250..=30_000).step_by(250) {
            streamed.extend(src.take_before(SimTime::from_millis(ms)));
        }
        assert_eq!(streamed, trace.requests, "pull chunking must not matter");
        // Arrivals are non-decreasing and ids distinct.
        assert!(streamed.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        assert!(streamed.windows(2).all(|w| w[0].id != w[1].id));
    }
}
