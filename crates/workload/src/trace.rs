//! Request traces: arrival times plus sampled input/output lengths.

use sim_core::{SimDuration, SimTime};

/// Identifier of the model a request targets in a multi-model cluster.
///
/// Single-model traces use [`ModelId::PRIMARY`] (id 0) throughout; the id
/// indexes the cluster's deployment list, so a trace and the cluster it runs
/// on must agree on model numbering.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ModelId(pub u32);

impl ModelId {
    /// The default (first-deployed) model of a cluster.
    pub const PRIMARY: ModelId = ModelId(0);
}

impl std::fmt::Display for ModelId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// A shared prompt prefix: `tokens` leading prompt tokens identical across
/// every request carrying the same `(model, group)` pair — the system-prompt
/// / few-shot-template sharing pattern of agentic workloads.
///
/// The prefix tokens are *included* in the request's `input_tokens`
/// (`tokens < input_tokens` always), so a trace runs unchanged on a cluster
/// that ignores sharing; prefix-aware KV accounting only changes who pays
/// for those tokens, never how many there are.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SharedPrefix {
    /// Prefix-group id (scoped to the request's model).
    pub group: u32,
    /// Shared leading tokens, strictly less than the request's
    /// `input_tokens`.
    pub tokens: u64,
}

/// Per-request latency deadlines, measured from the *attempt's* arrival —
/// a retried request gets a fresh clock, exactly like a real client whose
/// per-attempt timeout fires and resends.
///
/// `None` bounds are unenforced; a spec with `deadline: None` behaves
/// byte-identically to a pre-deadline trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Deadline {
    /// Bound on time-to-first-token (`None` = unbounded).
    pub ttft: Option<SimDuration>,
    /// Bound on end-to-end completion time (`None` = unbounded).
    pub total: Option<SimDuration>,
}

impl Deadline {
    /// A deadline bounding only TTFT — the interactive-client SLO.
    pub fn ttft(bound: SimDuration) -> Self {
        Deadline {
            ttft: Some(bound),
            total: None,
        }
    }

    /// A deadline bounding both TTFT and total completion time.
    pub fn new(ttft: SimDuration, total: SimDuration) -> Self {
        Deadline {
            ttft: Some(ttft),
            total: Some(total),
        }
    }
}

/// One request of a workload trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestSpec {
    /// Dense id within the trace.
    pub id: u64,
    /// The model this request targets (0 for single-model traces).
    pub model: ModelId,
    /// Arrival (client send) time.
    pub arrival: SimTime,
    /// Prompt length in tokens.
    pub input_tokens: u64,
    /// Output length in tokens (how long the model will generate).
    pub output_tokens: u64,
    /// Shared-prefix membership (`None` for independent prompts).
    pub prefix: Option<SharedPrefix>,
    /// Client latency deadlines (`None` = patient batch client).
    pub deadline: Option<Deadline>,
}

impl RequestSpec {
    /// Total KVCache tokens this request will hold when finished.
    pub fn total_tokens(&self) -> u64 {
        self.input_tokens + self.output_tokens
    }

    /// Shared leading prompt tokens (0 for independent prompts).
    pub fn prefix_tokens(&self) -> u64 {
        self.prefix.map_or(0, |p| p.tokens)
    }
}

/// A workload trace, sorted by arrival time.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// The requests, in arrival order.
    pub requests: Vec<RequestSpec>,
}

impl Trace {
    /// Builds a trace from requests, sorting by arrival and re-assigning ids.
    ///
    /// Equal-arrival requests tie-break on model id (then on the stable
    /// input order), so merging per-model splits back together reproduces
    /// the original ordering even when two models collide on an arrival
    /// microsecond.
    pub fn new(mut requests: Vec<RequestSpec>) -> Self {
        requests.sort_by_key(|r| (r.arrival, r.model));
        for (i, r) in requests.iter_mut().enumerate() {
            r.id = i as u64;
        }
        Trace { requests }
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Returns `true` if the trace has no requests.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Time of the last arrival.
    pub fn duration(&self) -> SimDuration {
        self.requests
            .last()
            .map_or(SimDuration::ZERO, |r| r.arrival - SimTime::ZERO)
    }

    /// Merges per-model traces into one co-served trace, preserving each
    /// request's model tag; arrivals interleave chronologically.
    pub fn merge(traces: &[Trace]) -> Trace {
        Trace::new(
            traces
                .iter()
                .flat_map(|t| t.requests.iter().copied())
                .collect(),
        )
    }

    /// Model ids present in the trace, ascending and deduplicated.
    pub fn models(&self) -> Vec<ModelId> {
        let mut ids: Vec<ModelId> = self.requests.iter().map(|r| r.model).collect();
        ids.sort();
        ids.dedup();
        ids
    }

    /// The sub-trace targeting one model (ids re-densified within it).
    pub fn for_model(&self, model: ModelId) -> Trace {
        Trace::new(
            self.requests
                .iter()
                .copied()
                .filter(|r| r.model == model)
                .collect(),
        )
    }

    /// Mean request rate over the trace span, in requests/second.
    pub fn mean_rps(&self) -> f64 {
        let secs = self.duration().as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.len() as f64 / secs
    }

    /// Mean input length in tokens.
    pub fn mean_input_tokens(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        self.requests
            .iter()
            .map(|r| r.input_tokens as f64)
            .sum::<f64>()
            / self.len() as f64
    }

    /// Mean output length in tokens.
    pub fn mean_output_tokens(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        self.requests
            .iter()
            .map(|r| r.output_tokens as f64)
            .sum::<f64>()
            / self.len() as f64
    }

    /// Requests per second in fixed windows — the Fig. 2 (a) arrival plot.
    pub fn rate_timeline(&self, window: SimDuration) -> Vec<(SimTime, f64)> {
        assert!(window > SimDuration::ZERO, "window must be positive");
        let mut out = Vec::new();
        let end = SimTime::ZERO + self.duration() + window;
        let mut t = SimTime::ZERO;
        let mut idx = 0;
        let wsecs = window.as_secs_f64();
        while t < end {
            let wend = t + window;
            let mut n = 0usize;
            while idx < self.requests.len() && self.requests[idx].arrival < wend {
                n += 1;
                idx += 1;
            }
            out.push((t, n as f64 / wsecs));
            t = wend;
        }
        out
    }

    /// Stamps every request with the same [`Deadline`] — turns a batch
    /// trace into a closed-loop SLO-bound client population. Ids and
    /// ordering are untouched.
    pub fn with_deadline(mut self, deadline: Deadline) -> Trace {
        for r in &mut self.requests {
            r.deadline = Some(deadline);
        }
        self
    }
}

/// Builds the Fig. 17 "extreme burst" variant of a trace: once the burst
/// window `[burst_start, burst_end)` first plays, it replays back-to-back
/// `repeats` more times, overwhelming any fixed memory budget.
pub fn extreme_burst(
    trace: &Trace,
    burst_start: SimTime,
    burst_end: SimTime,
    repeats: u32,
) -> Trace {
    assert!(burst_end > burst_start, "burst window must be non-empty");
    let window = burst_end - burst_start;
    let mut out: Vec<RequestSpec> = trace
        .requests
        .iter()
        .copied()
        .filter(|r| r.arrival < burst_end)
        .collect();
    let burst: Vec<RequestSpec> = trace
        .requests
        .iter()
        .copied()
        .filter(|r| r.arrival >= burst_start && r.arrival < burst_end)
        .collect();
    for i in 1..=repeats {
        let shift = window * i as u64;
        out.extend(burst.iter().map(|r| RequestSpec {
            arrival: r.arrival + shift,
            ..*r
        }));
    }
    Trace::new(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(arrival_ms: u64, input: u64, output: u64) -> RequestSpec {
        RequestSpec {
            id: 0,
            model: ModelId::PRIMARY,
            arrival: SimTime::from_millis(arrival_ms),
            input_tokens: input,
            output_tokens: output,
            prefix: None,
            deadline: None,
        }
    }

    #[test]
    fn equal_arrival_requests_tie_break_on_model() {
        let mut a = spec(100, 1, 1);
        let mut b = spec(100, 2, 2);
        a.model = ModelId(1);
        b.model = ModelId(0);
        let t = Trace::new(vec![a, b]);
        let models: Vec<u32> = t.requests.iter().map(|r| r.model.0).collect();
        assert_eq!(models, vec![0, 1], "model id breaks arrival ties");
    }

    #[test]
    fn prefix_tokens_accessor() {
        let mut r = spec(0, 100, 10);
        assert_eq!(r.prefix_tokens(), 0);
        r.prefix = Some(SharedPrefix {
            group: 3,
            tokens: 40,
        });
        assert_eq!(r.prefix_tokens(), 40);
        assert_eq!(r.total_tokens(), 110, "prefix is part of input_tokens");
    }

    #[test]
    fn new_sorts_and_reassigns_ids() {
        let t = Trace::new(vec![spec(500, 10, 10), spec(100, 20, 20)]);
        assert_eq!(t.requests[0].arrival, SimTime::from_millis(100));
        assert_eq!(t.requests[0].id, 0);
        assert_eq!(t.requests[1].id, 1);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn stats_on_known_trace() {
        let t = Trace::new(vec![spec(0, 100, 50), spec(1000, 300, 150)]);
        assert_eq!(t.duration(), SimDuration::from_secs(1));
        assert_eq!(t.mean_rps(), 2.0);
        assert_eq!(t.mean_input_tokens(), 200.0);
        assert_eq!(t.mean_output_tokens(), 100.0);
        assert_eq!(t.requests[0].total_tokens(), 150);
    }

    #[test]
    fn rate_timeline_counts_windows() {
        let t = Trace::new(vec![spec(0, 1, 1), spec(100, 1, 1), spec(1500, 1, 1)]);
        let tl = t.rate_timeline(SimDuration::from_secs(1));
        assert_eq!(tl[0].1, 2.0);
        assert_eq!(tl[1].1, 1.0);
    }

    #[test]
    fn extreme_burst_replays_window() {
        let t = Trace::new(vec![
            spec(0, 1, 1),
            spec(1100, 2, 2),
            spec(1900, 3, 3),
            spec(2500, 4, 4),
        ]);
        let e = extreme_burst(&t, SimTime::from_secs(1), SimTime::from_secs(2), 2);
        // Base: 3 requests before burst_end; burst window has 2 requests,
        // replayed twice → 3 + 4 = 7.
        assert_eq!(e.len(), 7);
        // Replayed copies land at +1 s and +2 s shifts.
        let arrivals: Vec<u64> = e
            .requests
            .iter()
            .map(|r| r.arrival.as_micros() / 1000)
            .collect();
        assert!(arrivals.contains(&2100) && arrivals.contains(&3100));
        assert!(arrivals.contains(&2900) && arrivals.contains(&3900));
        // The post-burst tail of the original trace is dropped.
        assert!(!arrivals.contains(&2500));
    }

    #[test]
    fn merge_interleaves_and_preserves_model_tags() {
        let a = Trace::new(vec![spec(0, 10, 1), spec(2000, 10, 1)]);
        let mut b = Trace::new(vec![spec(1000, 20, 2)]);
        for r in &mut b.requests {
            r.model = ModelId(1);
        }
        let merged = Trace::merge(&[a, b]);
        assert_eq!(merged.len(), 3);
        // Chronological interleave.
        let models: Vec<u32> = merged.requests.iter().map(|r| r.model.0).collect();
        assert_eq!(models, vec![0, 1, 0]);
        assert_eq!(merged.models(), vec![ModelId(0), ModelId(1)]);
        // Per-model projection recovers each sub-trace.
        assert_eq!(merged.for_model(ModelId(1)).len(), 1);
        assert_eq!(
            merged.for_model(ModelId(1)).requests[0].input_tokens,
            20,
            "model-1 lengths survive the round trip"
        );
    }

    #[test]
    fn with_deadline_stamps_every_request() {
        let t = Trace::new(vec![spec(0, 10, 5), spec(100, 20, 5)]);
        let d = Deadline::new(SimDuration::from_secs(2), SimDuration::from_secs(30));
        let t = t.with_deadline(d);
        assert!(t.requests.iter().all(|r| r.deadline == Some(d)));
        assert_eq!(
            Deadline::ttft(SimDuration::from_secs(1)).total,
            None,
            "ttft-only deadline leaves total unbounded"
        );
    }

    #[test]
    fn empty_trace_stats() {
        let t = Trace::default();
        assert!(t.is_empty());
        assert_eq!(t.mean_rps(), 0.0);
        assert_eq!(t.mean_input_tokens(), 0.0);
        assert_eq!(t.duration(), SimDuration::ZERO);
    }
}
