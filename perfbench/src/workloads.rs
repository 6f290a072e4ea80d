//! The benchmark's workloads: inputs built from a seed during set-up, and
//! one pass over a workload's simulations, with or without tracing.
//!
//! Every simulation runs on the serial engine, single-threaded, through
//! the default entry points (`Run` for batch traces, `Gateway` for the
//! online workload).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;

use cluster::{ClusterConfig, ClusterState, ModelAvailability, ModelId, ReqState, RunReport};
use gateway::{Gateway, GatewayError, Quota, RequestHandle, RequestStatus, SubmitSpec, Virtual};
use kunserve::serving::{Run, SystemKind};
use kunserve::{InferCeptPolicy, KunServeConfig, KunServePolicy, LlumnixPolicy, VllmPolicy};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sim_core::{SimDuration, SimTime};
use workload::{
    BurstTraceBuilder, Dataset, Deadline, LengthSampler, PopularityTraceBuilder,
    SharedPrefixTraceBuilder, Trace,
};

use crate::clock::Stopwatch;
use crate::stats::{fnv1a, median};
use crate::trace::{TracedPolicy, Tracer};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    BurstLineup,
    CalmPrefix,
    GatewayZoo,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "burst_lineup" => Some(Workload::BurstLineup),
            "calm_prefix" => Some(Workload::CalmPrefix),
            "gateway_zoo" => Some(Workload::GatewayZoo),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::BurstLineup => "burst_lineup",
            Workload::CalmPrefix => "calm_prefix",
            Workload::GatewayZoo => "gateway_zoo",
        }
    }

    /// Trace seed used when none is given on the command line.
    pub fn default_seed(self) -> u64 {
        match self {
            Workload::BurstLineup => 42,
            Workload::CalmPrefix => 48,
            Workload::GatewayZoo => 47,
        }
    }
}

/// The gateway workload's fixed script.
const ZOO_DURATION: SimDuration = SimDuration::from_secs(60);
const ZOO_DRAIN: SimDuration = SimDuration::from_secs(900);
/// Replay submissions go in this far ahead of their arrival.
const ZOO_REPLAY_AHEAD: SimDuration = SimDuration::from_secs(1);
const ZOO_UNLOAD_AT: SimTime = SimTime::from_secs(20);
const ZOO_LOAD_AT: SimTime = SimTime::from_secs(40);
/// The tail model the operator unloads and reloads.
const ZOO_SWAP_MODEL: ModelId = ModelId(4);
const ZOO_INTERACTIVE_CLIENTS: usize = 12;
const ZOO_BATCH_CLIENTS: usize = 4;
const ZOO_BATCH_QUOTA: u64 = 40;
/// Every n-th interactive submission is cancelled once it streams.
const ZOO_CANCEL_EVERY: u64 = 8;
const ZOO_TTFT_DEADLINE: SimDuration = SimDuration::from_secs(4);
/// TTFT limit of the batch workloads' goodput (simulated seconds).
const BATCH_TTFT_SLO_S: f64 = 5.0;

/// What a workload simulates, built from the seed during set-up.
pub enum Inputs {
    Batch(BatchInputs),
    Zoo(ZooInputs),
}

pub struct BatchInputs {
    pub workload: Workload,
    pub trace: Trace,
    pub cfg: ClusterConfig,
    pub drain: SimDuration,
    pub systems: Vec<SystemKind>,
}

pub struct ZooInputs {
    pub replay: Trace,
    pub cfg: ClusterConfig,
    pub seed: u64,
    pub systems: Vec<SystemKind>,
}

impl Inputs {
    pub fn cfg(&self) -> &ClusterConfig {
        match self {
            Inputs::Batch(b) => &b.cfg,
            Inputs::Zoo(z) => &z.cfg,
        }
    }

    pub fn systems(&self) -> &[SystemKind] {
        match self {
            Inputs::Batch(b) => &b.systems,
            Inputs::Zoo(z) => &z.systems,
        }
    }
}

/// Set-up time split by layer.
pub struct SetupTiming {
    pub build_s: f64,
    pub state_new_s: f64,
}

fn at(secs: f64) -> SimTime {
    SimTime::from_secs_f64(secs)
}

fn secs(s: f64) -> SimDuration {
    SimDuration::from_secs_f64(s)
}

/// Builds a workload's inputs from `seed` and constructs (then drops) the
/// cluster state of every system it runs, timing both.
pub fn setup(w: Workload, seed: u64) -> (Inputs, SetupTiming) {
    let t0 = Stopwatch::start();
    let inputs = build(w, seed);
    let build_s = t0.elapsed_s();
    let t1 = Stopwatch::start();
    for kind in inputs.systems() {
        let state = ClusterState::try_new(kind.adjust_config(inputs.cfg().clone()))
            .expect("workload cluster fits in HBM");
        std::hint::black_box(&state);
    }
    let state_new_s = t1.elapsed_s();
    (
        inputs,
        SetupTiming {
            build_s,
            state_new_s,
        },
    )
}

fn build(w: Workload, seed: u64) -> Inputs {
    match w {
        Workload::BurstLineup => {
            // BurstGPT x Qwen-2.5-14B on cluster A with the fig16 shape:
            // 640 s at 24 rps with two 2.8x overloading waves.
            let mut cfg = ClusterConfig::qwen14b_cluster_a();
            cfg.reserve_frac = 0.55;
            let d = 640.0;
            let trace = BurstTraceBuilder::new(Dataset::BurstGpt)
                .base_rps(24.0)
                .duration(secs(d))
                .burst(at(0.18 * d), secs(14.0), 2.8)
                .burst(at(0.62 * d), secs(16.0), 2.8)
                .seed(seed)
                .build();
            Inputs::Batch(BatchInputs {
                workload: w,
                trace,
                cfg,
                drain: SimDuration::from_secs(400),
                systems: SystemKind::paper_lineup(),
            })
        }
        Workload::CalmPrefix => {
            // Steady shared-prefix traffic sized below the memory wall:
            // no drop, preemption or transfer should fire.
            let mut cfg = ClusterConfig::qwen14b_cluster_a();
            cfg.reserve_frac = 0.55;
            let trace = SharedPrefixTraceBuilder::new(Dataset::BurstGpt, 24)
                .base_rps(22.0)
                .duration(SimDuration::from_secs(1200))
                .prefix_tokens(400, 1600)
                .seed(seed)
                .build();
            Inputs::Batch(BatchInputs {
                workload: w,
                trace,
                cfg,
                drain: SimDuration::from_secs(400),
                systems: vec![SystemKind::KunServe, SystemKind::VllmDp],
            })
        }
        Workload::GatewayZoo => {
            let mut cfg = ClusterConfig::tiny_many_models(8, 8);
            cfg.reserve_frac = 0.50;
            let replay = PopularityTraceBuilder::new(Dataset::BurstGpt, 9)
                .zipf(1.1)
                .base_rps(50.0)
                .duration(ZOO_DURATION)
                .storms(0.10, 45, SimDuration::from_secs(4))
                .seed(seed)
                .build();
            Inputs::Zoo(ZooInputs {
                replay,
                cfg,
                seed,
                systems: vec![SystemKind::KunServe, SystemKind::VllmDp],
            })
        }
    }
}

/// The policy `kind` runs, built outside `Run` so it can be wrapped.
pub fn policy_for(kind: SystemKind) -> Box<dyn cluster::Policy> {
    match kind {
        SystemKind::VllmDp => Box::new(VllmPolicy::dp()),
        SystemKind::VllmPp => Box::new(VllmPolicy::pp()),
        SystemKind::InferCept => Box::new(InferCeptPolicy::default()),
        SystemKind::Llumnix => Box::new(LlumnixPolicy::default()),
        SystemKind::KunServe => Box::new(KunServePolicy::new(KunServeConfig::default())),
        SystemKind::KunServeWith(c) => Box::new(KunServePolicy::new(c)),
    }
}

/// Gateway-side counts of one `gateway_zoo` simulation.
#[derive(Debug, Clone, Default)]
pub struct ZooStats {
    pub cancels: u64,
    pub rejected_quota: u64,
    pub rejected_unavailable: u64,
    pub swap_done: bool,
}

/// Everything the benchmark keeps from one simulation.
#[derive(Debug, Clone, Default)]
pub struct SimResult {
    pub system: &'static str,
    /// FNV-1a of the report and the reconfig timeline.
    pub digest: u64,
    /// Requests offered: accepted plus rejected at submit.
    pub submitted: u64,
    pub finished: u64,
    /// Finished with TTFT within the workload's limit.
    pub good: u64,
    pub ttft_p50_s: f64,
    pub ttft_p99_s: f64,
    pub tpot_p99_s: f64,
    pub ttft_samples: usize,
    pub tpot_samples: usize,
    /// Simulated seconds to the last request event.
    pub sim_s: f64,
    pub wall_s: f64,
    /// Failed output checks (empty when correct).
    pub problems: Vec<String>,
    pub panicked: bool,
    pub reconfigs: usize,
    pub drops: usize,
    pub restores: usize,
    pub preemptions: u64,
    pub donated_peak: u64,
    pub prefix_hit_frac: f64,
    pub kv_util_mean: f64,
    pub kv_util_peak: f64,
    pub carried_bytes: u64,
    pub iterations: usize,
    pub output_tokens: u64,
    pub requests: usize,
    /// Wall time of one `MemoryLedger::snapshot` of the final state
    /// (traced runs only).
    pub ledger_snapshot_s: f64,
    pub zoo: Option<ZooStats>,
}

/// One pass over every simulation of a workload.
pub struct Pass {
    pub sims: Vec<SimResult>,
    pub wall_s: f64,
}

/// Runs every simulation of `inputs` once. Step samples (wall ms per
/// monitor interval of simulated time) are appended to `steps`.
pub fn run_pass(inputs: &Inputs, tracer: Option<&Rc<Tracer>>, steps: &mut Vec<f64>) -> Pass {
    let t0 = Stopwatch::start();
    let mut sims = Vec::new();
    for (i, &kind) in inputs.systems().iter().enumerate() {
        if let Some(t) = tracer {
            t.set_current_id(i as u64);
        }
        let offered = match inputs {
            Inputs::Batch(b) => b.trace.len() as u64,
            Inputs::Zoo(z) => z.replay.len() as u64,
        };
        let run = catch_unwind(AssertUnwindSafe(|| {
            let _sim = tracer.map(|t| t.span("sim"));
            match inputs {
                Inputs::Batch(b) => run_batch(b, kind, tracer, steps),
                Inputs::Zoo(z) => run_zoo(z, kind, tracer, steps),
            }
        }));
        sims.push(run.unwrap_or_else(|_| SimResult {
            system: kind.name(),
            submitted: offered,
            panicked: true,
            problems: vec![format!("{}: simulation panicked", kind.name())],
            ..SimResult::default()
        }));
    }
    check_workload(inputs, &mut sims);
    Pass {
        sims,
        wall_s: t0.elapsed_s(),
    }
}

/// Workload-level output checks on top of the per-simulation ones.
fn check_workload(inputs: &Inputs, sims: &mut [SimResult]) {
    match inputs {
        Inputs::Batch(b) => {
            for s in sims.iter_mut() {
                if !s.panicked && s.requests != b.trace.len() {
                    s.problems.push(format!(
                        "{}: {} of {} trace requests arrived",
                        s.system,
                        s.requests,
                        b.trace.len()
                    ));
                }
            }
            if b.workload == Workload::CalmPrefix {
                for s in sims.iter_mut() {
                    if s.reconfigs > 0 || s.preemptions > 0 || s.carried_bytes > 0 {
                        s.problems.push(format!(
                            "{}: calm load fired {} reconfigs, {} preemptions, {} transfer bytes",
                            s.system, s.reconfigs, s.preemptions, s.carried_bytes
                        ));
                    }
                }
            } else if let Some(k) = sims.iter_mut().find(|s| s.system == "KunServe") {
                if !k.panicked && k.drops == 0 {
                    k.problems.push("KunServe: the waves fired no drop".into());
                }
            }
        }
        Inputs::Zoo(_) => {
            for s in sims.iter_mut() {
                if s.system == "KunServe" && !s.panicked && s.donated_peak == 0 {
                    s.problems
                        .push("KunServe: cold-start storms caused no donation".into());
                }
            }
        }
    }
}

/// Wall-clock per monitor interval of simulated time, sampled from the
/// event stream: a sample closes whenever simulated time crosses the next
/// interval boundary.
struct StepClock {
    interval: SimDuration,
    next: SimTime,
    last: Stopwatch,
}

impl StepClock {
    fn new(interval: SimDuration) -> Self {
        StepClock {
            interval,
            next: SimTime::ZERO + interval,
            last: Stopwatch::start(),
        }
    }

    fn observe(&mut self, now: SimTime, steps: &mut Vec<f64>) {
        if now < self.next {
            return;
        }
        steps.push(self.last.elapsed_s() * 1e3);
        self.last = Stopwatch::start();
        while self.next <= now {
            self.next += self.interval;
        }
    }
}

fn run_batch(
    b: &BatchInputs,
    kind: SystemKind,
    tracer: Option<&Rc<Tracer>>,
    steps: &mut Vec<f64>,
) -> SimResult {
    let mut clock = StepClock::new(b.cfg.monitor_interval);
    let t0 = Stopwatch::start();
    let out = match tracer {
        None => Run::new(kind, b.cfg.clone(), &b.trace)
            .drain(b.drain)
            .execute_observed(|_, now| clock.observe(now, steps)),
        Some(t) => {
            // Count events and iterations in the observer and time the
            // observer itself, so the engine's self time can be derived.
            let mut events = 0u64;
            let mut observer_s = 0.0;
            let mut seen: Vec<u64> = Vec::new();
            let policy = Box::new(TracedPolicy::new(policy_for(kind), t.clone()));
            let out = Run::with_policy(
                kind.name(),
                policy,
                kind.adjust_config(b.cfg.clone()),
                &b.trace,
            )
            .drain(b.drain)
            .execute_observed(|state, now| {
                let o0 = Stopwatch::start();
                events += 1;
                for g in state.alive_group_ids() {
                    let gr = state.group(g);
                    if seen.len() <= g.0 {
                        seen.resize(g.0 + 1, 0);
                    }
                    if gr.iter_seq != seen[g.0] {
                        seen[g.0] = gr.iter_seq;
                        if let (Some(plan), 1) = (&gr.current_iter, gr.stages()) {
                            t.add("engine.single_stage_iterations", 1.0);
                            t.add("engine.single_stage_chunks", plan.work.len() as f64);
                        }
                    }
                }
                clock.observe(now, steps);
                observer_s += o0.elapsed_s();
            });
            t.add("engine.events", events as f64);
            t.add("engine.observer_s", observer_s);
            out
        }
    };
    let wall_s = t0.elapsed_s();
    let mut r = summarize(
        kind,
        &out.report,
        &out.state,
        b.trace.len() as u64,
        wall_s,
        BATCH_TTFT_SLO_S,
        tracer.map(|t| &**t),
    );
    if tracer.is_some() {
        r.ledger_snapshot_s = time_ledger_snapshot(&out.state);
    }
    r
}

/// Median wall time of `MemoryLedger::snapshot` on `state`.
fn time_ledger_snapshot(state: &ClusterState) -> f64 {
    let v: Vec<f64> = (0..21)
        .map(|_| {
            let t = Stopwatch::start();
            std::hint::black_box(state.ledger());
            t.elapsed_s()
        })
        .collect();
    median(&v)
}

/// Per-simulation facts and output checks shared by the batch and gateway
/// runners.
fn summarize(
    kind: SystemKind,
    report: &RunReport,
    state: &ClusterState,
    submitted: u64,
    wall_s: f64,
    ttft_slo_s: f64,
    tracer: Option<&Tracer>,
) -> SimResult {
    let name = kind.name();
    let mut problems = Vec::new();

    // Every request is accounted for: finished + dropped (shed, abandoned,
    // cancelled) + unfinished = arrived.
    let mut finished = 0usize;
    let mut dropped = 0usize;
    for r in &state.requests {
        match r.state {
            ReqState::Finished => finished += 1,
            ReqState::Dropped => dropped += 1,
            _ => {}
        }
    }
    let terminal_drops =
        report.shed_requests + report.abandoned_requests + report.cancelled_requests;
    if finished != report.finished_requests || dropped as u64 != terminal_drops {
        problems.push(format!(
            "{name}: accounting mismatch: {finished} finished / {dropped} dropped in state vs \
             {} finished / {terminal_drops} shed+abandoned+cancelled in the report",
            report.finished_requests
        ));
    }
    if state.requests.len() != report.total_requests {
        problems.push(format!(
            "{name}: {} requests in state vs {} in the report",
            state.requests.len(),
            report.total_requests
        ));
    }
    {
        let _s = tracer.map(|t| t.span("ledger.audit"));
        problems.extend(state.ledger().check_invariants(&format!("{name} final")));
    }

    let m = &state.metrics;
    let mut good = 0u64;
    let mut last = SimTime::ZERO;
    for rec in m.records() {
        if rec.finished.is_some() && rec.ttft_secs().is_some_and(|t| t <= ttft_slo_s) {
            good += 1;
        }
        for t in [Some(rec.arrival), rec.first_token, rec.finished]
            .into_iter()
            .flatten()
        {
            last = last.max(t);
        }
    }
    let (mut util_sum, mut util_peak, mut util_n) = (0.0, 0.0f64, 0usize);
    for (&(_, used), &(_, cap)) in m.mem_used.points().iter().zip(m.mem_capacity.points()) {
        if cap > 0.0 {
            let u = used / cap;
            util_sum += u;
            util_peak = util_peak.max(u);
            util_n += 1;
        }
    }
    let prefix_total =
        report.prefix_saved_tokens + report.prefix_unique_tokens + report.prefix_recompute_tokens;
    let count = |p: &str| {
        m.reconfig_events
            .iter()
            .filter(|(_, w)| w.starts_with(p))
            .count()
    };
    SimResult {
        system: name,
        digest: fnv1a(&format!("{:?}|{:?}", report, m.reconfig_events)),
        submitted,
        finished: report.finished_requests as u64,
        good,
        ttft_p50_s: report.ttft.p50,
        ttft_p99_s: report.ttft.p99,
        tpot_p99_s: report.tpot.p99,
        ttft_samples: report.ttft_samples.len(),
        tpot_samples: report.tpot_samples.len(),
        sim_s: last.as_secs_f64(),
        wall_s,
        problems,
        panicked: false,
        reconfigs: m.reconfig_events.len(),
        drops: count("drop"),
        restores: count("restore"),
        preemptions: report.preemptions,
        donated_peak: report.donated_bytes_peak,
        prefix_hit_frac: if prefix_total == 0 {
            0.0
        } else {
            report.prefix_saved_tokens as f64 / prefix_total as f64
        },
        kv_util_mean: if util_n == 0 {
            0.0
        } else {
            util_sum / util_n as f64
        },
        kv_util_peak: util_peak,
        carried_bytes: state.network.carried_bytes(),
        iterations: m.iterations.len(),
        output_tokens: report.total_tokens,
        requests: report.total_requests,
        ledger_snapshot_s: 0.0,
        zoo: None,
    }
}

/// One closed-loop client of `gateway_zoo`: at most one outstanding
/// request, exponential think time between a completion and the next
/// submission, all randomness from its own seeded stream.
struct Client {
    key: &'static str,
    rng: SmallRng,
    sampler: LengthSampler,
    think_mean_s: f64,
    deadline: Option<Deadline>,
    /// Cancel every n-th submission once it streams (0 = never).
    cancel_every: u64,
    submitted: u64,
    pending: Option<RequestHandle>,
    cancel_pending: bool,
    exhausted: bool,
}

/// Gateway calls, timed when tracing.
struct Gw<'a> {
    gw: Gateway<Virtual>,
    tracer: Option<&'a Tracer>,
}

impl Gw<'_> {
    fn submit(&mut self, key: &str, spec: SubmitSpec) -> Result<RequestHandle, GatewayError> {
        let span = self
            .tracer
            .map(|t| t.span_with_id("gateway.submit", u64::MAX));
        let r = self.gw.submit(key, spec);
        if let (Some(s), Ok(h)) = (&span, &r) {
            s.set_id(h.0);
        }
        r
    }

    fn poll(&mut self, h: RequestHandle) -> gateway::TokenEvent {
        let _s = self.tracer.map(|t| t.span_with_id("gateway.poll", h.0));
        self.gw.poll(h).expect("submitted handle stays valid")
    }

    fn status(&self, h: RequestHandle) -> RequestStatus {
        let _s = self.tracer.map(|t| t.span_with_id("gateway.status", h.0));
        self.gw.status(h).expect("submitted handle stays valid")
    }

    fn cancel(&mut self, h: RequestHandle) {
        let _s = self.tracer.map(|t| t.span_with_id("gateway.cancel", h.0));
        self.gw.cancel(h).expect("submitted handle stays valid");
    }
}

fn run_zoo(
    z: &ZooInputs,
    kind: SystemKind,
    tracer: Option<&Rc<Tracer>>,
    steps: &mut Vec<f64>,
) -> SimResult {
    let t0 = Stopwatch::start();
    let tracer = tracer.map(|t| &**t);
    let mut g = Gw {
        gw: Gateway::new(kind, z.cfg.clone(), Virtual),
        tracer,
    };
    g.gw.register_tenant("replay", "k-replay", Quota::UNLIMITED);
    g.gw.register_tenant("interactive", "k-interactive", Quota::UNLIMITED);
    g.gw.register_tenant("batch", "k-batch", Quota::requests(ZOO_BATCH_QUOTA));
    let mut clients = Vec::new();
    for i in 0..ZOO_INTERACTIVE_CLIENTS + ZOO_BATCH_CLIENTS {
        let interactive = i < ZOO_INTERACTIVE_CLIENTS;
        clients.push(Client {
            key: if interactive {
                "k-interactive"
            } else {
                "k-batch"
            },
            rng: SmallRng::seed_from_u64(
                z.seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ),
            sampler: Dataset::BurstGpt.sampler(),
            think_mean_s: if interactive { 1.0 } else { 0.5 },
            deadline: interactive.then(|| Deadline::ttft(ZOO_TTFT_DEADLINE)),
            cancel_every: if interactive { ZOO_CANCEL_EVERY } else { 0 },
            submitted: 0,
            pending: None,
            cancel_pending: false,
            exhausted: false,
        });
    }

    let mut stats = ZooStats::default();
    let mut problems = Vec::new();
    let mut accepted = 0u64;
    let mut replay_next = 0usize;
    let mut replay_open: Vec<RequestHandle> = Vec::new();
    let mut unload_requested = false;
    let mut load_requested = false;
    let step = z.cfg.monitor_interval;
    let end = SimTime::ZERO + ZOO_DURATION;
    let mut now = SimTime::ZERO;
    while now < end {
        // The replay tenant submits open-loop, ahead of each arrival.
        while let Some(spec) = z.replay.requests.get(replay_next) {
            if spec.arrival >= now + ZOO_REPLAY_AHEAD {
                break;
            }
            replay_next += 1;
            let sub = SubmitSpec::new(
                spec.model,
                spec.arrival,
                spec.input_tokens,
                spec.output_tokens,
            );
            match g.submit("k-replay", sub) {
                Ok(h) => {
                    accepted += 1;
                    replay_open.push(h);
                }
                Err(GatewayError::ModelUnavailable(_)) => stats.rejected_unavailable += 1,
                Err(e) => problems.push(format!("replay submit refused: {e}")),
            }
        }
        // Idle closed-loop clients think, then submit.
        for c in clients.iter_mut() {
            if c.exhausted || c.pending.is_some() {
                continue;
            }
            let u: f64 = c.rng.gen_range(f64::EPSILON..1.0);
            let gap = secs(-u.ln() * c.think_mean_s);
            let (input, output) = c.sampler.sample(&mut c.rng);
            let mut sub = SubmitSpec::new(ModelId::PRIMARY, now + gap, input, output);
            if let Some(d) = c.deadline {
                sub = sub.deadline(d);
            }
            match g.submit(c.key, sub) {
                Ok(h) => {
                    accepted += 1;
                    c.submitted += 1;
                    c.pending = Some(h);
                    c.cancel_pending = c.cancel_every > 0 && c.submitted % c.cancel_every == 0;
                }
                Err(GatewayError::QuotaExhausted(_)) => {
                    stats.rejected_quota += 1;
                    c.exhausted = true;
                }
                Err(e) => problems.push(format!("client submit refused: {e}")),
            }
        }

        now += step;
        let p0 = Stopwatch::start();
        {
            let _s = tracer.map(|t| t.span("gateway.pump"));
            g.gw.pump_until(now);
        }
        steps.push(p0.elapsed_s() * 1e3);
        {
            let _s = tracer.map(|t| t.span("ledger.audit"));
            problems.extend(g.gw.state().ledger().check_invariants(&now.to_string()));
        }

        // The operator's tail-model swap.
        if !unload_requested && now >= ZOO_UNLOAD_AT {
            let _s = tracer.map(|t| t.span("gateway.model_op"));
            unload_requested = g.gw.unload_model(ZOO_SWAP_MODEL).is_ok();
            if !unload_requested {
                problems.push("unload of the tail model refused".into());
            }
        }
        if unload_requested
            && !load_requested
            && now >= ZOO_LOAD_AT
            && g.gw.model_availability(ZOO_SWAP_MODEL) == ModelAvailability::Unloaded
        {
            let _s = tracer.map(|t| t.span("gateway.model_op"));
            load_requested = g.gw.load_model(ZOO_SWAP_MODEL).is_ok();
        }

        // Drain replay streams; observe the closed loop.
        let mut still_open = Vec::with_capacity(replay_open.len());
        for &h in &replay_open {
            if !is_terminal(g.poll(h).status) {
                still_open.push(h);
            }
        }
        replay_open = still_open;
        for c in clients.iter_mut() {
            let Some(h) = c.pending else { continue };
            let status = if c.cancel_pending {
                let ev = g.poll(h);
                if ev.generated > 0 && ev.status == RequestStatus::Active {
                    g.cancel(h);
                    stats.cancels += 1;
                    c.cancel_pending = false;
                }
                ev.status
            } else {
                g.status(h)
            };
            if is_terminal(status) {
                c.pending = None;
            }
        }
    }
    if !load_requested {
        problems.push("the tail model was never reloaded".into());
    }
    let (report, state) = {
        let _s = tracer.map(|t| t.span("gateway.finish"));
        g.gw.finish(ZOO_DRAIN)
    };
    stats.swap_done =
        load_requested && state.model_availability(ZOO_SWAP_MODEL) == ModelAvailability::Available;
    if !stats.swap_done {
        problems.push("the tail-model swap did not complete".into());
    }
    if report.total_requests as u64 != accepted {
        problems.push(format!(
            "{} requests accepted but {} reached the engine",
            accepted, report.total_requests
        ));
    }
    let wall_s = t0.elapsed_s();
    let submitted = accepted + stats.rejected_quota + stats.rejected_unavailable;
    let mut r = summarize(
        kind,
        &report,
        &state,
        submitted,
        wall_s,
        ZOO_TTFT_DEADLINE.as_secs_f64(),
        tracer,
    );
    r.problems.extend(problems);
    if tracer.is_some() {
        r.ledger_snapshot_s = time_ledger_snapshot(&state);
    }
    r.zoo = Some(stats);
    r
}

fn is_terminal(s: RequestStatus) -> bool {
    matches!(s, RequestStatus::Finished | RequestStatus::Cancelled)
}
