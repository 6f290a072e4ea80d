//! One-call API to run any of the paper's five systems on a trace.
//!
//! [`Run`] is the single construction path for engines: batch experiments
//! chain `Run::new(..).drain(..).failures(..).execute()`, and live
//! gateways open a [`ServingSession`] instead of an `execute` — same
//! builders, same policy wiring, so an online run and its batch replay are
//! configured identically (the precondition for byte-identical bridging).

use cluster::{
    CancelOutcome, ClusterConfig, ClusterState, Engine, FailureInjector, FailureSchedule,
    ParallelConfig, Policy, RequestId, RunReport,
};
use sim_core::{SimDuration, SimTime};
use workload::{RequestSpec, Trace};

use crate::baselines::{InferCeptPolicy, LlumnixPolicy, VllmPolicy};
use crate::policy::{KunServeConfig, KunServePolicy};

/// The systems of the paper's evaluation (§5.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SystemKind {
    /// vLLM default: data parallel + recompute preemption.
    VllmDp,
    /// vLLM with static 2-stage pipeline parallelism (more KV, bubbles).
    VllmPp,
    /// InferCept: optimized swapping.
    InferCept,
    /// Llumnix: load-balanced migration.
    Llumnix,
    /// KunServe with default configuration.
    KunServe,
    /// KunServe with custom flags (ablations, no-restore, ...).
    KunServeWith(KunServeConfig),
}

impl SystemKind {
    /// All five paper systems with default settings, in figure order.
    pub fn paper_lineup() -> Vec<SystemKind> {
        vec![
            SystemKind::VllmDp,
            SystemKind::VllmPp,
            SystemKind::InferCept,
            SystemKind::Llumnix,
            SystemKind::KunServe,
        ]
    }

    /// Display name matching the paper's legends.
    pub fn name(&self) -> &'static str {
        match self {
            SystemKind::VllmDp => "vLLM (DP)",
            SystemKind::VllmPp => "vLLM (PP)",
            SystemKind::InferCept => "InferCept",
            SystemKind::Llumnix => "Llumnix",
            SystemKind::KunServe | SystemKind::KunServeWith(_) => "KunServe",
        }
    }

    fn build_policy(&self) -> Box<dyn Policy> {
        match self {
            SystemKind::VllmDp => Box::new(VllmPolicy::dp()),
            SystemKind::VllmPp => Box::new(VllmPolicy::pp()),
            SystemKind::InferCept => Box::new(InferCeptPolicy::default()),
            SystemKind::Llumnix => Box::new(LlumnixPolicy::default()),
            SystemKind::KunServe => Box::new(KunServePolicy::new(KunServeConfig::default())),
            SystemKind::KunServeWith(cfg) => Box::new(KunServePolicy::new(*cfg)),
        }
    }

    /// Adjusts the cluster configuration for this system (vLLM-PP statically
    /// halves parameters by pairing instances — of every co-served model
    /// whose instance count allows it, so multi-model comparisons stay
    /// apples-to-apples).
    pub fn adjust_config(&self, mut cfg: ClusterConfig) -> ClusterConfig {
        if matches!(self, SystemKind::VllmPp) {
            if cfg.num_instances.is_multiple_of(2) {
                cfg.initial_group_size = 2;
            }
            for dep in &mut cfg.extra_models {
                if dep.num_instances.is_multiple_of(2) {
                    dep.initial_group_size = 2;
                }
            }
        }
        cfg
    }
}

/// Everything a run produces: the latency report plus the final cluster
/// state (timelines in `state.metrics`, memory layout, reconfig markers).
#[derive(Debug)]
pub struct RunOutcome {
    /// System display name (a [`SystemKind`] legend name, or whatever the
    /// caller labeled a custom-policy run).
    pub name: String,
    /// Aggregated latency/throughput report.
    pub report: RunReport,
    /// Final cluster state with timeline metrics.
    pub state: ClusterState,
    /// Wall-clock span of the trace (for throughput normalization).
    pub span: SimDuration,
}

/// What drives the cluster: a paper system, or a caller-supplied policy.
enum SystemSpec {
    Kind(SystemKind),
    Custom {
        name: String,
        policy: Box<dyn Policy>,
    },
}

/// The single construction path for engine runs.
///
/// Chain the optional axes onto [`Run::new`] and finish with
/// [`Run::execute`]:
///
/// ```
/// use kunserve::serving::{Run, SystemKind};
/// use cluster::ClusterConfig;
/// use sim_core::SimDuration;
/// use workload::{BurstTraceBuilder, Dataset};
///
/// let trace = BurstTraceBuilder::new(Dataset::BurstGpt)
///     .base_rps(20.0)
///     .duration(SimDuration::from_secs(10))
///     .seed(1)
///     .build();
/// let out = Run::new(SystemKind::KunServe, ClusterConfig::tiny_test(2), &trace)
///     .drain(SimDuration::from_secs(120))
///     .execute();
/// assert_eq!(out.report.finished_requests, trace.len());
/// ```
///
/// - [`Run::failures`] wraps the policy in a [`FailureInjector`] firing a
///   scripted fault storm at monitor ticks (requires `cfg.rack_size > 0`).
/// - [`Run::policy`] swaps in a custom [`Policy`] (experiments outside the
///   paper lineup); the outcome keeps the label passed here.
/// - [`Run::execute_observed`] threads a per-event observer through, for
///   invariant-checking tests.
pub struct Run<'a> {
    system: SystemSpec,
    cfg: ClusterConfig,
    trace: &'a Trace,
    drain: SimDuration,
    failures: Option<&'a FailureSchedule>,
}

impl<'a> Run<'a> {
    /// A run of `kind` over `trace` with the default drain cap (600 s of
    /// simulated time past the last arrival).
    pub fn new(kind: SystemKind, cfg: ClusterConfig, trace: &'a Trace) -> Self {
        Run {
            system: SystemSpec::Kind(kind),
            cfg,
            trace,
            drain: SimDuration::from_secs(600),
            failures: None,
        }
    }

    /// A run driven by a caller-supplied [`Policy`] (experiments outside
    /// the paper lineup); `name` labels the outcome and no
    /// [`SystemKind::adjust_config`] adjustment is applied.
    pub fn with_policy(
        name: impl Into<String>,
        policy: Box<dyn Policy>,
        cfg: ClusterConfig,
        trace: &'a Trace,
    ) -> Self {
        Run {
            system: SystemSpec::Custom {
                name: name.into(),
                policy,
            },
            cfg,
            trace,
            drain: SimDuration::from_secs(600),
            failures: None,
        }
    }

    /// Caps simulated time at `drain` past the last arrival — bounds runs
    /// where a policy cannot clear its backlog (the extreme-burst
    /// experiment relies on this).
    pub fn drain(mut self, drain: SimDuration) -> Self {
        self.drain = drain;
        self
    }

    /// Kept for the benchmark, which still calls it; returns the run
    /// unchanged.
    pub fn sharded(self, _pcfg: ParallelConfig) -> Self {
        self
    }

    /// Injects the correlated rack failures in `schedule`: the policy is
    /// wrapped in a [`FailureInjector`] that fires every due
    /// [`FailureSchedule`] event at monitor ticks before delegating, so
    /// each system faces the same scripted storm while making its own
    /// recovery decisions.
    pub fn failures(mut self, schedule: &'a FailureSchedule) -> Self {
        self.failures = Some(schedule);
        self
    }

    /// Replaces the [`SystemKind`] policy with a caller-supplied one;
    /// `name` labels the outcome. No [`SystemKind::adjust_config`]
    /// adjustment is applied — the config runs as given.
    pub fn policy(mut self, name: impl Into<String>, policy: Box<dyn Policy>) -> Self {
        self.system = SystemSpec::Custom {
            name: name.into(),
            policy,
        };
        self
    }

    /// Runs to completion and returns the outcome.
    pub fn execute(self) -> RunOutcome {
        self.execute_observed(|_, _| {})
    }

    /// Like [`Run::execute`], but invokes `observer` with the cluster
    /// state after every processed event — the hook invariant checks use
    /// to inspect each simulated step.
    pub fn execute_observed(self, observer: impl FnMut(&ClusterState, SimTime)) -> RunOutcome {
        let (name, cfg, policy) = match self.system {
            SystemSpec::Kind(kind) => (
                kind.name().to_string(),
                kind.adjust_config(self.cfg),
                kind.build_policy(),
            ),
            SystemSpec::Custom { name, policy } => (name, self.cfg, policy),
        };
        let policy = match self.failures {
            Some(schedule) => Box::new(FailureInjector::new(policy, schedule)) as Box<dyn Policy>,
            None => policy,
        };
        let mut engine = Engine::new(cfg, policy);
        let report = engine.run_observed(self.trace, self.drain, observer);
        RunOutcome {
            name,
            report,
            state: engine.into_state(),
            span: self.trace.duration() + self.drain,
        }
    }
}

/// An open interactive session — the gateway's view of the deterministic
/// core. Arrivals are injected incrementally, time advances in explicit
/// steps, and the session ends with the same report a batch run of the
/// identical arrival sequence would produce.
///
/// Only this module constructs engines; everything outside reaches the
/// core through [`Run`] or a `ServingSession`.
pub struct ServingSession {
    engine: Engine<Box<dyn Policy>>,
}

impl ServingSession {
    /// Opens a session of `kind`.
    pub fn open(kind: SystemKind, cfg: ClusterConfig) -> Self {
        let cfg = kind.adjust_config(cfg);
        let mut engine = Engine::new(cfg, kind.build_policy());
        engine.begin_session();
        ServingSession { engine }
    }

    /// Registers one future request; `spec.arrival` must not precede
    /// [`ServingSession::now`].
    pub fn inject(&mut self, spec: RequestSpec) -> RequestId {
        self.engine.inject(spec)
    }

    /// Cancels a request on the client's behalf; `Deferred` means the
    /// engine retries automatically and may be treated as accepted.
    pub fn cancel(&mut self, id: RequestId) -> CancelOutcome {
        self.engine.cancel(id)
    }

    /// Advances simulated time to `until`, processing everything due.
    pub fn step_until(&mut self, until: SimTime) {
        self.engine.step_until(until)
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.engine.now()
    }

    /// Read access to the live cluster state (request progress, ledger,
    /// model availability) between steps.
    pub fn state(&self) -> &ClusterState {
        &self.engine.state
    }

    /// Runs `f` against the cluster state between steps — the hook for
    /// elastic model load/unload operations.
    pub fn mutate(&mut self, f: impl FnOnce(&mut ClusterState, SimTime)) {
        let now = self.engine.now();
        f(&mut self.engine.state, now)
    }

    /// Closes the session: no further injections, runs until the backlog
    /// clears (or `drain` past the last arrival) and returns the report
    /// plus the final state.
    pub fn end(mut self, drain: SimDuration) -> (RunReport, ClusterState) {
        let report = self.engine.end_session(drain);
        (report, self.engine.into_state())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::SimTime;
    use workload::{BurstTraceBuilder, Dataset};

    fn small_burst_trace(seed: u64) -> Trace {
        BurstTraceBuilder::new(Dataset::BurstGpt)
            .base_rps(30.0)
            .duration(SimDuration::from_secs(20))
            .burst(SimTime::from_secs(8), SimDuration::from_secs(6), 2.5)
            .seed(seed)
            .build()
    }

    #[test]
    fn all_five_systems_complete_a_burst() {
        let trace = small_burst_trace(11);
        for kind in SystemKind::paper_lineup() {
            let out = Run::new(kind, ClusterConfig::tiny_test(4), &trace)
                .drain(SimDuration::from_secs(600))
                .execute();
            assert_eq!(
                out.report.finished_requests,
                trace.len(),
                "{} must finish every request",
                out.name
            );
            assert_eq!(out.report.total_requests, trace.len());
        }
    }

    #[test]
    fn kunserve_drops_under_pressure() {
        let trace = BurstTraceBuilder::new(Dataset::BurstGpt)
            .base_rps(60.0)
            .duration(SimDuration::from_secs(20))
            .burst(SimTime::from_secs(5), SimDuration::from_secs(10), 3.0)
            .seed(3)
            .build();
        // Provision the KV pool tightly (paper's 2.1x-average methodology)
        // so the burst overloads memory.
        let mut cfg = ClusterConfig::tiny_test(4);
        cfg.reserve_frac = 0.45;
        let out = Run::new(SystemKind::KunServe, cfg, &trace)
            .drain(SimDuration::from_secs(600))
            .execute();
        let drops = out
            .state
            .metrics
            .reconfig_events
            .iter()
            .filter(|(_, what)| what.starts_with("drop"))
            .count();
        assert!(
            drops > 0,
            "the burst must trigger at least one parameter drop"
        );
        assert_eq!(out.report.finished_requests, trace.len());
    }

    #[test]
    fn kunserve_restores_after_pressure_subsides() {
        // Burst early, then a long quiet tail: restore must fire.
        let trace = BurstTraceBuilder::new(Dataset::BurstGpt)
            .base_rps(70.0)
            .duration(SimDuration::from_secs(30))
            .burst(SimTime::from_secs(3), SimDuration::from_secs(7), 3.5)
            .seed(5)
            .build();
        let out = Run::new(SystemKind::KunServe, ClusterConfig::tiny_test(4), &trace)
            .drain(SimDuration::from_secs(600))
            .execute();
        let events: Vec<&str> = out
            .state
            .metrics
            .reconfig_events
            .iter()
            .map(|(_, w)| w.as_str())
            .collect();
        let dropped = events.iter().any(|w| w.starts_with("drop"));
        let restored = events.iter().any(|w| w.starts_with("restore: split"));
        assert!(dropped, "expected a drop; events: {events:?}");
        assert!(restored, "expected a restore; events: {events:?}");
        // After restore all instances hold full parameter copies again.
        for inst in &out.state.instances {
            assert_eq!(inst.dropped_layers(), 0, "all layers restored");
        }
    }

    #[test]
    fn kunserve_beats_vllm_tail_under_overload() {
        // The headline claim, at test scale: under a memory-overloading
        // burst, KunServe's P99 TTFT is well below vLLM's.
        let trace = BurstTraceBuilder::new(Dataset::BurstGpt)
            .base_rps(60.0)
            .duration(SimDuration::from_secs(25))
            .burst(SimTime::from_secs(6), SimDuration::from_secs(12), 3.0)
            .seed(9)
            .build();
        // Provision the KV pool tightly (the paper's 2.1x-average
        // methodology, as in `kunserve_drops_under_pressure`) so the burst
        // actually overloads memory; at the default reserve this trace peaks
        // ~8% below capacity and the two systems are indistinguishable.
        let mut cfg = ClusterConfig::tiny_test(4);
        cfg.reserve_frac = 0.45;
        let drain = SimDuration::from_secs(600);
        let vllm = Run::new(SystemKind::VllmDp, cfg.clone(), &trace)
            .drain(drain)
            .execute();
        let kun = Run::new(SystemKind::KunServe, cfg, &trace)
            .drain(drain)
            .execute();
        // Under this overload vLLM may not even clear its backlog within the
        // drain window — the paper's queuing-collapse observation. KunServe
        // must clear everything and keep the tail far lower.
        assert_eq!(kun.report.finished_requests, trace.len());
        assert!(
            vllm.report.finished_requests as f64 >= trace.len() as f64 * 0.5,
            "vLLM made too little progress to compare ({}/{})",
            vllm.report.finished_requests,
            trace.len()
        );
        assert!(
            kun.report.ttft.p99 < vllm.report.ttft.p99,
            "KunServe p99 {:.2}s must beat vLLM p99 {:.2}s",
            kun.report.ttft.p99,
            vllm.report.ttft.p99
        );
    }

    #[test]
    fn two_model_overload_drops_per_model() {
        // Both co-served models burst simultaneously; KunServe must drop
        // parameters within each model's own groups and finish everything.
        let a = BurstTraceBuilder::new(Dataset::BurstGpt)
            .base_rps(45.0)
            .duration(SimDuration::from_secs(20))
            .burst(SimTime::from_secs(5), SimDuration::from_secs(10), 3.0)
            .seed(21)
            .build();
        let b = BurstTraceBuilder::new(Dataset::BurstGpt)
            .base_rps(25.0)
            .duration(SimDuration::from_secs(20))
            .burst(SimTime::from_secs(5), SimDuration::from_secs(10), 3.0)
            .seed(22)
            .model(cluster::ModelId(1))
            .build();
        let trace = workload::Trace::merge(&[a, b]);
        let mut cfg = cluster::ClusterConfig::tiny_two_model(4, 4);
        cfg.reserve_frac = 0.45;
        let out = Run::new(SystemKind::KunServe, cfg, &trace)
            .drain(SimDuration::from_secs(900))
            .execute();
        assert_eq!(out.report.finished_requests, trace.len());
        assert_eq!(out.report.per_model.len(), 2);
        let drops = out
            .state
            .metrics
            .reconfig_events
            .iter()
            .filter(|(_, what)| what.starts_with("drop"))
            .count();
        assert!(drops > 0, "simultaneous bursts must trigger drops");
        // Groups never mix models, even after reconfigurations.
        for g in out.state.alive_groups() {
            let gm = out.state.group(g).model;
            for &m in &out.state.group(g).members {
                assert_eq!(out.state.instances[m.0 as usize].model, gm);
            }
        }
    }

    #[test]
    fn vllm_pp_has_more_kv_capacity_but_pipelines() {
        let trace = small_burst_trace(13);
        let dp = Run::new(SystemKind::VllmDp, ClusterConfig::tiny_test(4), &trace)
            .drain(SimDuration::from_secs(600))
            .execute();
        let pp = Run::new(SystemKind::VllmPp, ClusterConfig::tiny_test(4), &trace)
            .drain(SimDuration::from_secs(600))
            .execute();
        let cap = |s: &ClusterState| -> u64 { s.memory_totals().1 };
        assert!(
            cap(&pp.state) > cap(&dp.state),
            "PP frees parameter memory for KV"
        );
        assert!(
            !pp.state.metrics.bubbles.is_empty(),
            "PP execution must record pipeline bubbles"
        );
    }
}
