//! The discrete-event serving engine.
//!
//! Drives request arrivals, continuous-batching iterations (with chunked
//! prefill and pipeline execution), network transfer completions and monitor
//! ticks through one deterministic event queue. Policies are consulted at
//! the decision points described in [`crate::policy`]. Outside actions
//! (faults, elastic model ops) are the engine's too: scheduled ones fire
//! at monitor ticks, and in-flight model ops advance once per tick instant.

use std::collections::VecDeque;

use costmodel::ChunkWork;
use sim_core::{EventQueue, SimDuration, SimTime};
use workload::{RequestSpec, Trace};

use crate::batch::{MicroBatch, SeqChunk};
use crate::config::ClusterConfig;
use crate::failure::Action;
use crate::group::{GroupId, IterationPlan};
use crate::pipeline::{schedule, PipelineSchedule, StageTiming};
use crate::policy::Policy;
use crate::request::{ReqState, Request, RequestId};
use crate::state::{CancelOutcome, ClusterState};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    Arrival(RequestId),
    GroupDone { group: GroupId, seq: u64 },
    MonitorTick,
    NetPoll,
}

/// Tokens each in-decode request advances per iteration.
///
/// Single-stage groups decode one token per iteration (classic
/// continuous batching). Pipelined groups stream microbatches back to
/// back, so over one engine iteration (`m` microbatches, `s` stages)
/// each microbatch cycles roughly `m/s + 1` times, one decode step per
/// cycle. Modelling this as one multi-token decode chunk keeps
/// per-token latency faithful to continuous pipeline streaming without
/// per-cycle event traffic; the Eq. 1 cost of a `(p, K)` chunk equals
/// the summed cost of `K` single-token steps exactly.
fn decode_tokens_per_iter(stages: usize, cfg: &ClusterConfig) -> u64 {
    if stages == 1 {
        1
    } else {
        // With `m = microbatches_per_stage × s` microbatches the
        // makespan spans `(m+s−1)/s ≈ microbatches_per_stage + 1`
        // single-batch times; advancing `microbatches_per_stage`
        // tokens per iteration leaves pipelined TPOT ~25–40 % above
        // single-stage TPOT — the Fig. 5 depth gradient.
        cfg.microbatches_per_stage as u64
    }
}

/// Collects one iteration's work for a group into `work`: a decode chunk
/// per running decode request plus budget-bounded prefill chunks in
/// arrival order. Each request appears at most once. `prefills` is a
/// reused buffer.
fn collect_work(
    g: &crate::group::ExecGroup,
    reqs: &[Request],
    cfg: &ClusterConfig,
    skipped: &[RequestId],
    work: &mut Vec<SeqChunk>,
    prefills: &mut Vec<RequestId>,
) {
    let rounds = decode_tokens_per_iter(g.stages(), cfg);
    let stages = g.stages() as u64;
    let budget = if stages == 1 {
        cfg.token_budget
    } else {
        // One token budget per microbatch keeps every microbatch as
        // dense as a single-stage batch.
        cfg.token_budget * stages * cfg.microbatches_per_stage as u64
    };
    work.clear();
    prefills.clear();
    let mut used = 0u64;
    for &r in &g.running {
        if skipped.contains(&r) {
            continue; // no KV slot this iteration (swap in flight)
        }
        let req = &reqs[r.0];
        if req.state != ReqState::Running {
            continue;
        }
        if req.in_decode() {
            if !req.is_done() {
                let n = rounds.min(req.output_remaining()).max(1);
                work.push(SeqChunk {
                    request: r,
                    work: ChunkWork {
                        prefix_tokens: req.kv_tokens(),
                        new_tokens: n,
                    },
                });
                used += n;
            }
        } else {
            prefills.push(r);
        }
    }
    // The id breaks ties, so the unstable sort gives the stable order
    // without a stable sort's scratch buffer.
    prefills.sort_unstable_by_key(|&r| (reqs[r.0].spec.arrival, r));
    for &r in prefills.iter() {
        if used >= budget {
            break;
        }
        let req = &reqs[r.0];
        let chunk = req.prefill_remaining().min(budget - used);
        if chunk == 0 {
            continue;
        }
        work.push(SeqChunk {
            request: r,
            work: ChunkWork {
                prefix_tokens: req.prefilled,
                new_tokens: chunk,
            },
        });
        used += chunk;
    }
}

/// Whether `mbs`, read in order with adjacent fragments of one request
/// merged, is `work`: the same requests in the same order, the same new
/// tokens, and each fragment's prefix continuing the one before.
/// [`Policy::form_microbatches`] promises this; linear in the chunks.
fn replays(mbs: &[MicroBatch], work: &[SeqChunk]) -> bool {
    let mut frags = mbs.iter().flat_map(|mb| &mb.chunks);
    for w in work {
        let (mut prefix, mut left) = (w.work.prefix_tokens, w.work.new_tokens);
        loop {
            let Some(f) = frags.next() else {
                return false;
            };
            let continues = f.request == w.request
                && f.work.prefix_tokens == prefix
                && f.work.new_tokens <= left;
            if !continues {
                return false;
            }
            prefix += f.work.new_tokens;
            left -= f.work.new_tokens;
            if left == 0 {
                break;
            }
        }
    }
    frags.next().is_none()
}

/// Kept for the benchmark, which still names it; the engine is serial,
/// so this carries nothing.
#[derive(Debug, Clone, Copy)]
pub struct ParallelConfig;

impl ParallelConfig {
    /// Kept for the benchmark; the worker count is ignored.
    pub fn with_workers(_workers: usize) -> Self {
        ParallelConfig
    }
}

/// The simulation engine: cluster state + policy + event queue.
pub struct Engine {
    /// The cluster being simulated.
    pub state: ClusterState,
    /// The serving policy under evaluation.
    pub policy: Box<dyn Policy>,
    events: EventQueue<Event>,
    now: SimTime,
    finished: usize,
    total: usize,
    /// Earliest `NetPoll` currently queued; dedupes the poll events that
    /// every group-done/reconfig used to push redundantly.
    net_poll_at: Option<SimTime>,
    /// Reused scratch buffer for group sweeps (avoids a `Vec` allocation
    /// per monitor tick / net poll).
    groups_buf: Vec<GroupId>,
    /// Reused scratch buffer for decode-growth reservation.
    decodes_buf: Vec<RequestId>,
    /// Reused iteration buffers: the collected chunks, the prefill
    /// candidates behind them, and the chunk works handed to sampling.
    /// A started iteration keeps `work_buf` as its `IterationPlan::work`.
    work_buf: Vec<SeqChunk>,
    prefills_buf: Vec<RequestId>,
    works_buf: Vec<ChunkWork>,
    /// Finished iterations' `IterationPlan::work` buffers, each to become
    /// a later start's `work_buf`. A pool rather than one slot, so that
    /// completions in a row drop no buffer; it never holds more buffers
    /// than the most groups busy at once.
    spare_work: Vec<Vec<SeqChunk>>,
    /// Reused pipelined-iteration buffers: the group's stage fractions and
    /// member nodes, each microbatch's new tokens, the sampled times and
    /// the schedule.
    fracs_buf: Vec<f64>,
    members_buf: Vec<netsim::NodeId>,
    mb_tokens_buf: Vec<u64>,
    timing: StageTiming,
    sched: PipelineSchedule,
    /// Set while an interactive session ([`Engine::begin_session`]) is
    /// accepting injections: the monitor-tick chain stays armed through
    /// lulls and the pump never stops on `finished == total`.
    open: bool,
    /// Time past which the pump stops (batch: last arrival + drain). `None`
    /// while a session is open.
    run_stop: Option<SimTime>,
    /// Latest arrival registered so far (sets the drain anchor on close).
    last_arrival: SimTime,
    /// Cancellations deferred mid-iteration, retried at each monitor tick.
    pending_cancels: Vec<RequestId>,
    /// Outside actions waiting for their monitor tick, sorted by time.
    scheduled: VecDeque<(SimTime, Action)>,
    /// Set by a monitor tick; cleared once every event at its instant has
    /// run and the in-flight elastic model ops have advanced.
    tick_unsettled: bool,
}

impl Engine {
    /// Creates an engine over a fresh cluster.
    pub fn new(cfg: ClusterConfig, policy: Box<dyn Policy>) -> Self {
        Engine {
            state: ClusterState::new(cfg),
            policy,
            events: EventQueue::new(),
            now: SimTime::ZERO,
            finished: 0,
            total: 0,
            net_poll_at: None,
            groups_buf: Vec::new(),
            decodes_buf: Vec::new(),
            work_buf: Vec::new(),
            prefills_buf: Vec::new(),
            works_buf: Vec::new(),
            spare_work: Vec::new(),
            fracs_buf: Vec::new(),
            members_buf: Vec::new(),
            mb_tokens_buf: Vec::new(),
            timing: StageTiming::default(),
            sched: PipelineSchedule::default(),
            open: false,
            run_stop: None,
            last_arrival: SimTime::ZERO,
            pending_cancels: Vec::new(),
            scheduled: VecDeque::new(),
            tick_unsettled: false,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Consumes the engine, returning the final cluster state (metrics,
    /// timelines, memory layout) for post-run analysis.
    pub fn into_state(self) -> ClusterState {
        self.state
    }

    /// Schedules `action` for the first monitor tick at or after `at`,
    /// where it fires before the policy's `on_tick`. Actions due at the
    /// same tick fire in the order they were scheduled.
    pub fn schedule(&mut self, at: SimTime, action: Action) {
        let ix = self.scheduled.partition_point(|&(t, _)| t <= at);
        self.scheduled.insert(ix, (at, action));
    }

    /// Applies `action` now, between steps (see [`ClusterState::apply`]
    /// for the return value: `false`, with nothing changed, for a fault
    /// that would take some model's last live instance). A transfer the
    /// action submits, such as a recovery's parameter reload, is polled
    /// when it completes, as for a scheduled action; other work it makes
    /// possible, such as a fresh group starting, is picked up by the next
    /// event.
    pub fn apply(&mut self, action: Action) -> bool {
        let applied = self.state.apply(action, self.now);
        self.schedule_net_poll();
        applied
    }

    /// Runs `trace` to completion (or until `drain` past the last arrival,
    /// whichever comes first) and returns the finished-run report.
    ///
    /// The drain cap bounds runs where a policy cannot clear its backlog —
    /// the extreme-burst experiment relies on this.
    pub fn run(&mut self, trace: &Trace, drain: SimDuration) -> crate::metrics::RunReport {
        self.run_observed(trace, drain, |_, _| {})
    }

    /// Like [`Engine::run`], but invokes `observer` with the cluster state
    /// after every processed event — the hook invariant checks (HBM
    /// accounting, layer-coverage) use to inspect each simulated step.
    pub fn run_observed(
        &mut self,
        trace: &Trace,
        drain: SimDuration,
        mut observer: impl FnMut(&ClusterState, SimTime),
    ) -> crate::metrics::RunReport {
        self.total = trace.len();
        let num_models = self.state.cfg.num_models();
        for spec in &trace.requests {
            assert!(
                spec.model.0 < num_models,
                "trace references model {} but the cluster deploys {num_models}",
                spec.model
            );
            let id = RequestId(self.state.requests.len());
            self.state
                .requests
                .push(Request::new(id, *spec, GroupId(0)));
            self.events.push(spec.arrival, Event::Arrival(id));
            self.last_arrival = self.last_arrival.max(spec.arrival);
        }
        self.events.push(SimTime::ZERO, Event::MonitorTick);
        self.open = false;
        self.run_stop = Some(SimTime::ZERO + trace.duration() + drain);
        self.pump(None, &mut observer);
        self.state.metrics.report()
    }

    /// The shared event pump behind batch runs and interactive sessions:
    /// processes events up to `limit` (inclusive; unbounded when `None`),
    /// stopping at [`Engine::run_stop`] or — outside an open session — when
    /// every registered request is terminal. Batch semantics are exactly
    /// the pre-session loop: `run_observed` calls this with no limit.
    fn pump(&mut self, limit: Option<SimTime>, observer: &mut impl FnMut(&ClusterState, SimTime)) {
        while let Some(t) = self.events.peek_time() {
            if t > self.now {
                self.settle_tick();
            }
            if !self.open && self.finished == self.total {
                break;
            }
            if limit.is_some_and(|l| t > l) {
                break;
            }
            let (t, ev) = self.events.pop().expect("peeked above");
            // A hard assert, not a debug_assert: time running backwards
            // means event bookkeeping is corrupt, and that must fail
            // loudly in release CI too — every metric recorded after a
            // regression would be silently wrong.
            assert!(
                t >= self.now,
                "event time regressed: {t} < {now} ({ev:?})",
                now = self.now
            );
            self.now = t;
            if self.run_stop.is_some_and(|hs| self.now > hs) {
                break;
            }
            match ev {
                Event::Arrival(id) => self.on_arrival(id),
                Event::GroupDone { group, seq } => self.on_group_done(group, seq),
                Event::MonitorTick => self.on_monitor_tick(),
                Event::NetPoll => {
                    if self.net_poll_at == Some(t) {
                        self.net_poll_at = None;
                    }
                    self.on_net_poll()
                }
            }
            observer(&self.state, self.now);
            if !self.open && self.finished == self.total {
                break;
            }
        }
        self.settle_tick();
        if let Some(l) = limit {
            self.now = self.now.max(l);
        }
    }

    /// Ends a monitor-tick instant once every event at it has run: the
    /// in-flight elastic model ops advance one step. Doing it here rather
    /// than inside the tick keeps them behind same-instant events such as
    /// a `NetPoll` pushed at the tick, and independent of how callers
    /// chunk [`Engine::step_until`].
    fn settle_tick(&mut self) {
        if std::mem::take(&mut self.tick_unsettled) && self.state.has_model_ops() {
            self.state.advance_model_ops(self.now);
        }
    }

    // ------------------------------------------------------------------
    // Interactive sessions (the gateway's incremental step/drain API).
    // ------------------------------------------------------------------

    /// Opens an interactive session on a fresh engine: arms the monitor
    /// tick chain and accepts [`Engine::inject`] / [`Engine::step_until`]
    /// until [`Engine::end_session`]. The event order matches a batch run
    /// of the same arrivals as long as no arrival lands exactly on a
    /// monitor-tick time (continuous arrival processes make that a
    /// measure-zero event; the tick would then fire before the equal-time
    /// arrival instead of after).
    pub fn begin_session(&mut self) {
        assert!(
            !self.open && self.total == 0 && self.state.requests.is_empty(),
            "sessions must start on a fresh engine"
        );
        self.open = true;
        self.run_stop = None;
        self.events.push(SimTime::ZERO, Event::MonitorTick);
    }

    /// Registers one future request in an open session. `spec.arrival`
    /// must not precede current simulated time, and `spec.id` is kept
    /// verbatim (retry backoff keys on it, like a batch trace).
    pub fn inject(&mut self, spec: RequestSpec) -> RequestId {
        assert!(self.open, "inject requires an open session");
        assert!(
            spec.model.0 < self.state.cfg.num_models(),
            "request references model {} but the cluster deploys {}",
            spec.model,
            self.state.cfg.num_models()
        );
        assert!(
            spec.arrival >= self.now,
            "arrival {} precedes current time {}",
            spec.arrival,
            self.now
        );
        let id = RequestId(self.state.requests.len());
        self.state.requests.push(Request::new(id, spec, GroupId(0)));
        self.events.push(spec.arrival, Event::Arrival(id));
        self.total += 1;
        self.last_arrival = self.last_arrival.max(spec.arrival);
        id
    }

    /// Cancels a request on the client's behalf. Deferred outcomes (the
    /// request is mid-iteration) are retried automatically at each monitor
    /// tick; the caller may treat `Deferred` as accepted.
    pub fn cancel(&mut self, id: RequestId) -> CancelOutcome {
        let out = self.state.cancel_request(id);
        match out {
            CancelOutcome::Cancelled => self.finished += 1,
            CancelOutcome::Deferred => {
                if !self.pending_cancels.contains(&id) {
                    self.pending_cancels.push(id);
                }
            }
            CancelOutcome::AlreadyTerminal => {}
        }
        out
    }

    /// Advances an open session to `until`, processing every event at or
    /// before it; simulated time is exactly `until` afterwards.
    pub fn step_until(&mut self, until: SimTime) {
        assert!(self.open, "step_until requires an open session");
        self.pump(Some(until), &mut |_, _| {});
    }

    /// Closes the session: no further injections, runs to completion (or
    /// `drain` past the last registered arrival — the same cap as a batch
    /// run) and returns the report.
    pub fn end_session(&mut self, drain: SimDuration) -> crate::metrics::RunReport {
        assert!(self.open, "end_session requires an open session");
        self.open = false;
        self.run_stop = Some(self.last_arrival + drain);
        self.pump(None, &mut |_, _| {});
        self.state.metrics.report()
    }

    fn on_arrival(&mut self, id: RequestId) {
        if self.state.requests[id.0].is_terminal() {
            return; // cancelled before its arrival event fired (session only)
        }
        let spec = self.state.requests[id.0].spec;
        self.state
            .metrics
            .on_arrival(id, spec.arrival, spec.output_tokens, spec.model);
        // Deadline-aware admission control: shed before dispatch so a
        // hopeless request never adds queue load (the default policy
        // admits everything, keeping pre-shedding runs byte-identical).
        if self.policy.should_shed(&self.state, self.now, id) {
            self.state.shed_request(id);
            self.finished += 1;
            return;
        }
        let group = self.state.dispatch(spec.model, spec.input_tokens);
        self.state.note_dispatch(id, group);
        self.state.group_mut(group).queue.push_back(id);
        self.try_start(group);
    }

    fn on_group_done(&mut self, group: GroupId, seq: u64) {
        if !self.state.group_alive(group) || self.state.group(group).iter_seq != seq {
            return; // stale event from a reconfigured group
        }
        self.complete_iteration(group);
        // The just-idled group is the window where deferred cancels of its
        // running requests can land (no-op in batch runs).
        self.retry_cancels();
        self.run_reconfigs();
        if self.state.group_alive(group) {
            self.try_start(group);
        }
        self.schedule_net_poll();
    }

    fn on_monitor_tick(&mut self) {
        let (demand, capacity, used) = self.state.memory_totals();
        let now = self.now;
        self.state.metrics.mem_demand.push(now, demand as f64);
        self.state.metrics.mem_capacity.push(now, capacity as f64);
        self.state.metrics.mem_used.push(now, used as f64);
        // The elastic-HBM safety net: params + KV + donations + reserve
        // within HBM on every device, donations reclaimed before restore.
        #[cfg(debug_assertions)]
        {
            let v = self.state.ledger().check_invariants(&now.to_string());
            assert!(v.is_empty(), "HBM ledger violated:\n{}", v.join("\n"));
        }
        self.retry_cancels();
        while let Some((_, action)) = self.scheduled.pop_front_if(|(at, _)| *at <= now) {
            self.state.apply(action, now);
        }
        self.policy.on_tick(&mut self.state, now);
        self.tick_unsettled = true;
        self.run_reconfigs();
        self.client_sweep(now);
        self.sweep_groups();
        self.schedule_net_poll();
        let next = now + self.state.cfg.monitor_interval;
        // While a session is open the chain stays armed through lulls (the
        // batch condition `finished < total` would kill it between
        // injections); closed runs keep the exact batch condition.
        if (self.open || self.finished < self.total) && self.run_stop.is_none_or(|hs| next <= hs) {
            self.events.push(next, Event::MonitorTick);
        }
    }

    /// Retries cancellations that were deferred mid-iteration. No-op (and
    /// allocation-free) in batch runs, which never cancel.
    fn retry_cancels(&mut self) {
        if self.pending_cancels.is_empty() {
            return;
        }
        let mut pending = std::mem::take(&mut self.pending_cancels);
        pending.retain(|&id| match self.state.cancel_request(id) {
            CancelOutcome::Cancelled => {
                self.finished += 1;
                false
            }
            CancelOutcome::Deferred => true,
            CancelOutcome::AlreadyTerminal => false,
        });
        self.pending_cancels = pending;
    }

    /// The closed-loop client pass (no-op without [`ClusterConfig::retry`]):
    /// aborts deadline-missed attempts into backoff, terminates exhausted
    /// requests, and re-dispatches retries whose timer expired — each
    /// re-arrival passing through the same shedding gate as a fresh one.
    fn client_sweep(&mut self, now: SimTime) {
        if self.state.cfg.retry.is_none() {
            return;
        }
        let sweep = self.state.sweep_deadlines(now);
        self.finished += sweep.abandoned.len();
        for r in sweep.due {
            if self.policy.should_shed(&self.state, now, r) {
                self.state.shed_request(r);
                self.finished += 1;
                continue;
            }
            let g = self.state.redispatch_retry(r, now);
            self.state.group_mut(g).queue.push_back(r);
            self.try_start(g);
        }
    }

    fn on_net_poll(&mut self) {
        let done = self.state.network.take_completions(self.now);
        for (_, job) in done {
            if let Some(event) = self.state.apply_transfer_done(job) {
                self.policy
                    .on_transfer_done(&mut self.state, self.now, &event);
            }
        }
        self.run_reconfigs();
        self.sweep_groups();
        self.schedule_net_poll();
    }

    /// Runs [`Engine::try_start`] over a snapshot of the live groups,
    /// reusing one scratch buffer across sweeps.
    fn sweep_groups(&mut self) {
        let mut groups = std::mem::take(&mut self.groups_buf);
        groups.clear();
        groups.extend(self.state.alive_group_ids());
        for &g in &groups {
            self.try_start(g);
        }
        self.groups_buf = groups;
    }

    fn run_reconfigs(&mut self) {
        if !self.state.has_pending_reconfigs() {
            return;
        }
        let created = self.state.execute_ready_reconfigs(self.now);
        for g in created {
            self.try_start(g);
        }
        self.schedule_net_poll();
    }

    fn schedule_net_poll(&mut self) {
        if let Some(est) = self.state.network.next_completion_estimate() {
            let at = est.max(self.now);
            // Dedupe: only queue a poll if none is pending at or before the
            // estimate. Group-done bursts used to push dozens of identical
            // polls per completion, each costing a heap op and a full
            // group sweep on pop.
            match self.net_poll_at {
                Some(t) if t <= at => {}
                _ => {
                    self.events.push(at, Event::NetPoll);
                    self.net_poll_at = Some(at);
                }
            }
        }
    }

    /// Starts an iteration on the group if it is idle and has work.
    pub fn try_start(&mut self, group: GroupId) {
        if !self.state.group_alive(group) {
            return;
        }
        {
            let g = self.state.group(group);
            if g.is_busy() || g.frozen {
                return;
            }
        }

        self.admit(group);
        if !self.state.group_alive(group) || self.state.group(group).frozen {
            return;
        }
        let skipped = self.reserve_decode_growth(group);
        if !self.state.group_alive(group) || self.state.group(group).frozen {
            return; // an OOM handler requested a reconfiguration
        }

        collect_work(
            self.state.group(group),
            &self.state.requests[..],
            &self.state.cfg,
            &skipped,
            &mut self.work_buf,
            &mut self.prefills_buf,
        );
        if self.work_buf.is_empty() {
            return;
        }

        let (start, makespan, bubble_frac) = if self.state.group(group).stages() == 1 {
            self.plan_single_stage(group)
        } else {
            self.plan_pipelined(group)
        };
        // The formers replay the collected work in order, splitting a
        // request's chunk only into adjacent fragments, and `collect_work`
        // emits each request once: per-request progress is the collected
        // work itself.
        let spare = self.spare_work.pop().unwrap_or_default();
        let work = std::mem::replace(&mut self.work_buf, spare);

        let finish = start + makespan;
        let g = self.state.group_mut(group);
        g.iter_seq += 1;
        let seq = g.iter_seq;
        g.current_iter = Some(IterationPlan { work, bubble_frac });
        self.events.push(finish, Event::GroupDone { group, seq });
    }

    /// Times a single-stage iteration over the collected chunks. Returns
    /// `(start, makespan, bubble_frac)`.
    fn plan_single_stage(&mut self, group: GroupId) -> (SimTime, SimDuration, f64) {
        let g = self.state.group(group);
        let (model, frac) = (g.model, g.stage_fracs[0]);
        self.works_buf.clear();
        self.works_buf.extend(self.work_buf.iter().map(|c| c.work));
        let makespan = self.state.ground_truths[model.0 as usize].sample(
            &self.works_buf,
            frac,
            &mut self.state.rng,
        );
        let start = self.now + self.state.take_overhead(group);
        let work = &self.work_buf;
        debug_assert!(
            work.iter()
                .enumerate()
                .all(|(i, c)| work[..i].iter().all(|q| q.request != c.request)),
            "collect_work emits each request at most once"
        );
        (start, makespan, 0.0)
    }

    /// Forms microbatches from the collected chunks, samples every
    /// (microbatch, stage) time and schedules the pipeline. Returns
    /// `(start, makespan, bubble_frac)`. Linear in the collected chunks;
    /// nothing allocates but the former's microbatches.
    fn plan_pipelined(&mut self, group: GroupId) -> (SimTime, SimDuration, f64) {
        let mbs: Vec<MicroBatch> =
            self.policy
                .form_microbatches(&self.state, group, &self.work_buf);
        debug_assert!(!mbs.is_empty(), "non-empty work forms microbatches");
        debug_assert!(
            replays(&mbs, &self.work_buf),
            "microbatches replay the collected work in order"
        );

        let g = self.state.group(group);
        let model = g.model;
        self.fracs_buf.clear();
        self.fracs_buf.extend_from_slice(&g.stage_fracs);
        self.members_buf.clear();
        self.members_buf
            .extend(g.members.iter().map(|m| netsim::NodeId(m.0)));

        // Sample execution times per (microbatch, stage) from the serving
        // model's ground truth.
        let truth = &self.state.ground_truths[model.0 as usize];
        self.timing.times.clear();
        self.timing.stages = self.fracs_buf.len();
        self.mb_tokens_buf.clear();
        for mb in &mbs {
            self.works_buf.clear();
            self.works_buf.extend(mb.chunks.iter().map(|c| c.work));
            truth.sample_stages(
                &self.works_buf,
                &self.fracs_buf,
                &mut self.state.rng,
                &mut self.timing.times,
            );
            self.mb_tokens_buf.push(mb.new_tokens());
        }

        let overhead = self.state.take_overhead(group);
        let start = self.now + overhead;
        let act_per_token = self.state.cfg.model_cfg(model).activation_bytes_per_token();
        let members = &self.members_buf;
        schedule(
            start,
            &self.timing,
            &mut self.sched,
            |mb, boundary, send| {
                let bytes = (self.mb_tokens_buf[mb] * act_per_token).max(1);
                self.state.network.interactive(
                    send,
                    members[boundary],
                    members[boundary + 1],
                    bytes,
                )
            },
        );
        (start, self.sched.makespan, self.sched.bubble_frac())
    }

    /// Admits queued requests while blocks allow; consults the policy once
    /// when blocked.
    fn admit(&mut self, group: GroupId) {
        let mut asked_policy = false;
        loop {
            let head = match self.state.group(group).queue.front() {
                Some(&h) => h,
                None => return,
            };
            if self.state.try_admit(head, group) {
                let g = self.state.group_mut(group);
                g.queue.pop_front();
                g.running.push(head);
                continue;
            }
            if asked_policy {
                return;
            }
            asked_policy = true;
            self.policy
                .on_admission_blocked(&mut self.state, self.now, group);
            if !self.state.group_alive(group) || self.state.group(group).frozen {
                return;
            }
        }
    }

    /// Reserves decode slots per running in-decode request, invoking the
    /// OOM chain (policy, then vLLM-style recompute fallback) when blocks
    /// run out. Returns the requests that skip this iteration.
    fn reserve_decode_growth(&mut self, group: GroupId) -> Vec<RequestId> {
        let rounds = decode_tokens_per_iter(self.state.group(group).stages(), &self.state.cfg);
        let mut decodes = std::mem::take(&mut self.decodes_buf);
        decodes.clear();
        decodes.extend(
            self.state
                .group(group)
                .running
                .iter()
                .copied()
                .filter(|&r| self.state.requests[r.0].in_decode()),
        );
        let mut skipped = Vec::new();
        for r in decodes.drain(..) {
            if self.state.requests[r.0].state != ReqState::Running {
                continue; // preempted as an earlier victim
            }
            let want = rounds
                .min(self.state.requests[r.0].output_remaining())
                .max(1);
            loop {
                let ok = {
                    let g = self.state.group_mut(group);
                    g.blocks
                        .append_tokens(kvcache::SeqKey(r.0 as u64), want)
                        .is_ok()
                };
                if ok {
                    break;
                }
                match self
                    .policy
                    .on_decode_oom(&mut self.state, self.now, group, r)
                {
                    crate::policy::OomResolution::Retry => continue,
                    crate::policy::OomResolution::SkipIteration => {
                        skipped.push(r);
                        break;
                    }
                    crate::policy::OomResolution::GiveUp => {
                        // Guaranteed-progress fallback: recompute preemption.
                        match self.state.preempt_youngest(group) {
                            Some(victim) if victim != r => continue,
                            _ => break, // the request itself (or nothing) left
                        }
                    }
                }
            }
        }
        self.decodes_buf = decodes;
        skipped
    }

    /// Applies a finished iteration: token progress, first-token metrics,
    /// completions and block releases. The plan's `work` Vec is kept for
    /// the next iteration to fill.
    fn complete_iteration(&mut self, group: GroupId) {
        let Some(plan) = self.state.group_mut(group).current_iter.take() else {
            return;
        };
        let now = self.now;
        self.state.metrics.iterations.bump();
        if self.state.group(group).stages() > 1 {
            self.state.metrics.bubbles.push(now, plan.bubble_frac);
        }
        let mut emitted = 0u64;
        for c in &plan.work {
            let (r, ntok) = (c.request, c.work.new_tokens);
            let req = &self.state.requests[r.0];
            if req.state != ReqState::Running || req.group != group {
                continue; // preempted / migrated mid-iteration
            }
            let was_decoding = req.in_decode();
            {
                let req = &mut self.state.requests[r.0];
                if was_decoding {
                    req.generated += ntok;
                    emitted += ntok;
                } else {
                    req.prefilled = (req.prefilled + ntok).min(req.prefill_target());
                    if req.in_decode() {
                        // Prefill completion emits one token (the first for
                        // fresh requests; the resumed token after recompute).
                        if req.first_token_at.is_none() {
                            req.first_token_at = Some(now);
                            req.generated = req.generated.max(1);
                            self.state.metrics.on_first_token(r, now);
                        } else {
                            req.generated += 1;
                        }
                        emitted += 1;
                    }
                }
            }
            if self.state.requests[r.0].is_done() {
                self.state.release_blocks(r);
                let req = &mut self.state.requests[r.0];
                req.state = ReqState::Finished;
                req.finished_at = Some(now);
                let met = self.state.requests[r.0].deadline_met_at(now);
                self.state.metrics.on_finish_outcome(met);
                self.state.metrics.on_finished(r, now);
                self.state.group_mut(group).forget(r);
                self.finished += 1;
            }
        }
        if emitted > 0 {
            self.state.metrics.on_tokens(now, emitted);
        }
        self.spare_work.push(plan.work);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failure::FaultKind;
    use crate::policy::{QueueingPolicy, TransferEvent};
    use crate::state::ModelAvailability;
    use std::cell::RefCell;
    use std::rc::Rc;
    use workload::{ModelId, RequestSpec, Trace};

    fn small_trace(n: usize, gap_ms: u64, input: u64, output: u64) -> Trace {
        Trace::new(
            (0..n)
                .map(|i| RequestSpec {
                    id: 0,
                    model: workload::ModelId::PRIMARY,
                    arrival: SimTime::from_millis(i as u64 * gap_ms),
                    input_tokens: input,
                    output_tokens: output,
                    prefix: None,
                    deadline: None,
                })
                .collect(),
        )
    }

    #[test]
    fn single_request_completes_with_sane_latency() {
        let mut eng = Engine::new(ClusterConfig::tiny_test(1), Box::new(QueueingPolicy));
        let trace = small_trace(1, 0, 256, 16);
        let report = eng.run(&trace, SimDuration::from_secs(60));
        assert_eq!(report.finished_requests, 1);
        let ttft = report.ttft.p50;
        assert!(ttft > 0.0 && ttft < 1.0, "TTFT {ttft:.3}s");
        assert_eq!(report.total_tokens, 16);
    }

    #[test]
    fn light_load_finishes_everything() {
        let mut eng = Engine::new(ClusterConfig::tiny_test(2), Box::new(QueueingPolicy));
        let trace = small_trace(20, 400, 128, 12);
        let report = eng.run(&trace, SimDuration::from_secs(120));
        assert_eq!(report.finished_requests, 20);
        assert_eq!(report.total_tokens, 20 * 12);
        // Unloaded TTFT is dominated by one prefill iteration.
        assert!(report.ttft.p50 < 0.5, "p50 {}", report.ttft.p50);
    }

    #[test]
    fn decode_tpot_is_iteration_scale() {
        let mut eng = Engine::new(ClusterConfig::tiny_test(1), Box::new(QueueingPolicy));
        let trace = small_trace(4, 200, 64, 50);
        let report = eng.run(&trace, SimDuration::from_secs(120));
        assert_eq!(report.finished_requests, 4);
        // TPOT should be on the order of a decode iteration (ms–tens of ms).
        assert!(
            report.tpot.p50 > 0.0005 && report.tpot.p50 < 0.2,
            "tpot {}",
            report.tpot.p50
        );
    }

    #[test]
    fn overload_causes_queuing_and_preemptions() {
        // Flood a single tiny instance: the queueing policy plus recompute
        // fallback must keep making progress, with visible TTFT tails.
        let mut eng = Engine::new(ClusterConfig::tiny_test(1), Box::new(QueueingPolicy));
        let trace = small_trace(80, 5, 1024, 512);
        let report = eng.run(&trace, SimDuration::from_secs(1200));
        assert_eq!(
            report.finished_requests, 80,
            "fallback must guarantee progress"
        );
        assert!(
            report.preemptions > 0,
            "memory overload must force recompute preemptions"
        );
        assert!(
            report.ttft.p99 > 2.0 * report.ttft.p50.max(0.01),
            "overload must show tail inflation: p50 {} p99 {}",
            report.ttft.p50,
            report.ttft.p99
        );
    }

    #[test]
    fn pipeline_group_executes_with_bubbles_tracked() {
        let mut cfg = ClusterConfig::tiny_test(2);
        cfg.initial_group_size = 2; // static PP pair (vLLM-PP shape)
        let mut eng = Engine::new(cfg, Box::new(QueueingPolicy));
        let trace = small_trace(12, 150, 512, 8);
        let report = eng.run(&trace, SimDuration::from_secs(300));
        assert_eq!(report.finished_requests, 12);
        assert!(
            !eng.state.metrics.bubbles.is_empty(),
            "pipelined iterations must record bubble samples"
        );
    }

    #[test]
    fn two_model_cluster_serves_both_and_isolates_dispatch() {
        let mut eng = Engine::new(
            ClusterConfig::tiny_two_model(2, 2),
            Box::new(QueueingPolicy),
        );
        let mut reqs = Vec::new();
        for i in 0..24u64 {
            reqs.push(RequestSpec {
                id: 0,
                model: workload::ModelId((i % 2) as u32),
                arrival: SimTime::from_millis(i * 150),
                input_tokens: 200,
                output_tokens: 10,
                prefix: None,
                deadline: None,
            });
        }
        let trace = Trace::new(reqs);
        let mut seen_cross_model = false;
        let report = eng.run_observed(&trace, SimDuration::from_secs(300), |state, _| {
            // Every admitted request must sit on a group of its own model.
            for g in state.alive_groups() {
                let gm = state.group(g).model;
                for r in state.group(g).admitted() {
                    if state.request(r).spec.model != gm {
                        seen_cross_model = true;
                    }
                }
            }
        });
        assert!(!seen_cross_model, "dispatch must never cross models");
        assert_eq!(report.finished_requests, 24);
        assert_eq!(report.per_model.len(), 2);
        for m in &report.per_model {
            assert_eq!(m.finished_requests, 12, "{} must finish all", m.model);
            assert!(m.ttft.p50 > 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "references model")]
    fn trace_referencing_undeployed_model_panics() {
        let mut eng = Engine::new(ClusterConfig::tiny_test(1), Box::new(QueueingPolicy));
        let trace = Trace::new(vec![RequestSpec {
            id: 0,
            model: workload::ModelId(3),
            arrival: SimTime::ZERO,
            input_tokens: 10,
            output_tokens: 1,
            prefix: None,
            deadline: None,
        }]);
        eng.run(&trace, SimDuration::from_secs(10));
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut eng = Engine::new(ClusterConfig::tiny_test(2), Box::new(QueueingPolicy));
            let trace = small_trace(30, 50, 300, 20);
            let r = eng.run(&trace, SimDuration::from_secs(300));
            (r.finished_requests, r.ttft_samples.clone(), r.total_tokens)
        };
        assert_eq!(run(), run());
    }

    /// Arrivals off the 100 ms tick grid (sessions order the tick before
    /// an exactly-equal-time arrival; batch orders it after).
    fn offgrid_trace(n: usize) -> Trace {
        Trace::new(
            (0..n)
                .map(|i| RequestSpec {
                    id: 0,
                    model: workload::ModelId::PRIMARY,
                    arrival: SimTime::from_millis((i as u64 + 1) * 73),
                    input_tokens: 128,
                    output_tokens: 12,
                    prefix: None,
                    deadline: None,
                })
                .collect(),
        )
    }

    #[test]
    fn incremental_session_matches_batch_run_byte_for_byte() {
        let trace = offgrid_trace(20);
        let drain = SimDuration::from_secs(120);
        let mut batch = Engine::new(ClusterConfig::tiny_test(2), Box::new(QueueingPolicy));
        let batch_report = batch.run(&trace, drain);

        // The same arrivals injected interval by interval.
        let mut eng = Engine::new(ClusterConfig::tiny_test(2), Box::new(QueueingPolicy));
        eng.begin_session();
        let interval = eng.state.cfg.monitor_interval;
        let mut boundary = SimTime::ZERO;
        let mut cursor = 0;
        while cursor < trace.len() {
            let next = boundary + interval;
            while cursor < trace.len() && trace.requests[cursor].arrival <= next {
                eng.inject(trace.requests[cursor]);
                cursor += 1;
            }
            eng.step_until(next);
            boundary = next;
        }
        let session_report = eng.end_session(drain);
        assert_eq!(
            format!("{batch_report:?}"),
            format!("{session_report:?}"),
            "incremental injection must replay the batch run exactly"
        );
    }

    #[test]
    fn session_cancel_mid_decode_terminates_and_counts() {
        let mut eng = Engine::new(ClusterConfig::tiny_test(1), Box::new(QueueingPolicy));
        eng.begin_session();
        let spec = |arr: u64| RequestSpec {
            id: 0,
            model: workload::ModelId::PRIMARY,
            arrival: SimTime::from_millis(arr),
            input_tokens: 256,
            output_tokens: 400,
            prefix: None,
            deadline: None,
        };
        let victim = eng.inject(spec(10));
        let survivor = eng.inject(spec(20));
        eng.step_until(SimTime::from_millis(250));
        assert!(
            eng.state.requests[victim.0].generated > 0,
            "mid-decode by 250ms"
        );
        // Mid-iteration cancels defer; the tick sweep settles them.
        eng.cancel(victim);
        eng.step_until(SimTime::from_millis(600));
        assert!(eng.state.requests[victim.0].is_terminal());
        let report = eng.end_session(SimDuration::from_secs(60));
        assert_eq!(report.cancelled_requests, 1);
        assert_eq!(report.finished_requests, 1, "only the survivor finishes");
        assert_eq!(
            eng.state.requests[survivor.0].state,
            ReqState::Finished,
            "cancel must not disturb the other stream"
        );
    }

    /// `tiny_test(4)` in two racks: instances {0,1} and {2,3}.
    fn two_racks() -> ClusterConfig {
        let mut cfg = ClusterConfig::tiny_test(4);
        cfg.rack_size = 2;
        cfg
    }

    /// When each reconfig marker starting with `prefix` was recorded.
    fn marked(eng: &Engine, prefix: &str) -> Vec<SimTime> {
        let events = &eng.state.metrics.reconfig_events;
        events
            .iter()
            .filter(|(_, what)| what.starts_with(prefix))
            .map(|&(t, _)| t)
            .collect()
    }

    #[test]
    fn scheduled_fault_off_the_tick_grid_fires_once_at_the_next_tick() {
        let mut eng = Engine::new(two_racks(), Box::new(QueueingPolicy));
        let rack_down = Action::Fault(FaultKind::RackDown(0));
        eng.schedule(SimTime::from_millis(5050), rack_down);
        eng.begin_session();
        eng.step_until(SimTime::from_millis(5050));
        assert!(marked(&eng, "rack-failure").is_empty(), "not due yet");
        assert_eq!(eng.state.alive_groups().len(), 4);
        eng.step_until(SimTime::from_secs(9));
        assert_eq!(
            marked(&eng, "rack-failure"),
            vec![SimTime::from_millis(5100)],
            "fires once, at the first tick after its time"
        );
        assert_eq!(eng.state.alive_groups().len(), 2, "rack 0 gone");
    }

    /// Records the live group count the policy sees at every tick.
    struct TickRecorder(Rc<RefCell<Vec<(SimTime, usize)>>>);

    impl Policy for TickRecorder {
        fn name(&self) -> &'static str {
            "TickRecorder"
        }

        fn on_tick(&mut self, state: &mut ClusterState, now: SimTime) {
            self.0.borrow_mut().push((now, state.alive_groups().len()));
        }
    }

    #[test]
    fn the_policy_sees_a_scheduled_fault_in_the_tick_it_fires() {
        let seen = Rc::new(RefCell::new(Vec::new()));
        let mut eng = Engine::new(two_racks(), Box::new(TickRecorder(seen.clone())));
        eng.schedule(SimTime::from_secs(5), Action::Fault(FaultKind::RackDown(0)));
        eng.begin_session();
        eng.step_until(SimTime::from_secs(5));
        let seen = seen.borrow();
        assert_eq!(seen.len(), 51, "ticks at 0.0 s, 0.1 s, ..., 5.0 s");
        assert_eq!(seen[49], (SimTime::from_millis(4900), 4));
        assert_eq!(seen[50], (SimTime::from_secs(5), 2), "fault before on_tick");
    }

    /// Records when each recovered group's parameter reload landed.
    struct ThawRecorder(Rc<RefCell<Vec<SimTime>>>);

    impl Policy for ThawRecorder {
        fn name(&self) -> &'static str {
            "ThawRecorder"
        }

        fn on_transfer_done(&mut self, _: &mut ClusterState, now: SimTime, event: &TransferEvent) {
            if matches!(event, TransferEvent::RecoveryReady { .. }) {
                self.0.borrow_mut().push(now);
            }
        }
    }

    /// Instance 1 of an idle `tiny_test(2)` goes down at 1 s and comes
    /// back at 2 s, through `Engine::apply` between steps or through
    /// `Engine::schedule`; returns when its group thawed.
    fn thaw_times(applied: bool) -> Vec<SimTime> {
        let thawed = Rc::new(RefCell::new(Vec::new()));
        let mut eng = Engine::new(
            ClusterConfig::tiny_test(2),
            Box::new(ThawRecorder(thawed.clone())),
        );
        let down = Action::Fault(FaultKind::InstanceDown(1));
        let up = Action::Fault(FaultKind::InstanceUp(1));
        if !applied {
            eng.schedule(SimTime::from_secs(1), down);
            eng.schedule(SimTime::from_secs(2), up);
        }
        eng.begin_session();
        if applied {
            eng.step_until(SimTime::from_secs(1));
            assert!(eng.apply(down));
            eng.step_until(SimTime::from_secs(2));
            assert!(eng.apply(up));
        }
        eng.step_until(SimTime::from_secs(3));
        thawed.take()
    }

    #[test]
    fn an_applied_recovery_thaws_when_its_reload_lands() {
        let scheduled = thaw_times(false);
        assert_eq!(scheduled.len(), 1, "one recovery: {scheduled:?}");
        assert!(
            scheduled[0] < SimTime::from_millis(2100),
            "the reload lands before the next tick: {scheduled:?}"
        );
        assert_eq!(thaw_times(true), scheduled, "applied and scheduled agree");
    }

    /// A fault that would take some model's last live instance returns
    /// `false` and leaves the state as it was.
    #[test]
    fn an_applied_fault_never_darkens_a_model() {
        let refused_untouched = |eng: &mut Engine, kind| {
            let before = format!("{:?}", eng.state);
            assert!(eng.state.ledger().check_invariants("before").is_empty());
            assert!(!eng.apply(Action::Fault(kind)), "{kind:?} applied");
            assert_eq!(
                format!("{:?}", eng.state),
                before,
                "{kind:?} changed the state"
            );
            assert!(eng.state.ledger().check_invariants("after").is_empty());
        };
        // The only instance of the only model.
        let mut eng = Engine::new(ClusterConfig::tiny_test(1), Box::new(QueueingPolicy));
        eng.begin_session();
        refused_untouched(&mut eng, FaultKind::InstanceDown(0));

        // Rack 1 holds the last live instances once rack 0 is down.
        let mut eng = Engine::new(two_racks(), Box::new(QueueingPolicy));
        eng.begin_session();
        assert!(eng.apply(Action::Fault(FaultKind::RackDown(0))));
        refused_untouched(&mut eng, FaultKind::RackDown(1));
        assert!(eng.apply(Action::Fault(FaultKind::InstanceDown(2))));
        refused_untouched(&mut eng, FaultKind::InstanceDown(3));
        assert_eq!(eng.state.alive_groups().len(), 1);
    }

    #[test]
    fn scheduled_fault_matrix_replays_in_time_order() {
        let mut eng = Engine::new(two_racks(), Box::new(QueueingPolicy));
        let at = SimTime::from_secs;
        // A rack outage with an instance outage of the other rack
        // interleaved inside it.
        let matrix = [
            (at(5), FaultKind::RackDown(0)),
            (at(6), FaultKind::InstanceDown(2)),
            (at(10), FaultKind::RackUp(0)),
            (at(12), FaultKind::InstanceUp(2)),
        ];
        // Scheduled out of order; the engine keeps them sorted.
        for &(t, kind) in matrix.iter().rev() {
            eng.schedule(t, Action::Fault(kind));
        }
        eng.begin_session();
        eng.step_until(at(5));
        assert_eq!(eng.state.alive_groups().len(), 2);
        eng.step_until(at(6));
        assert_eq!(eng.state.alive_groups().len(), 1, "instance 2 down");
        eng.step_until(at(10));
        assert_eq!(
            eng.state.alive_groups().len(),
            3,
            "rack rejoined as fresh groups"
        );
        eng.step_until(at(12));
        assert_eq!(eng.state.alive_groups().len(), 4, "instance 2 rejoined");
        assert_eq!(marked(&eng, "rack-failure"), vec![at(5)]);
        assert_eq!(marked(&eng, "rack-recovery"), vec![at(10)]);
    }

    #[test]
    fn batch_run_completes_a_scheduled_model_swap() {
        let chat = ModelId(1);
        let mut eng = Engine::new(
            ClusterConfig::tiny_two_model(2, 2),
            Box::new(QueueingPolicy),
        );
        eng.schedule(SimTime::from_secs(5), Action::Unload(chat));
        eng.schedule(SimTime::from_secs(20), Action::Load(chat));
        // The primary model serves for 40 s; the chat model's traffic
        // ends before its unload, so the drain completes.
        let trace = Trace::new(
            (0..400u64)
                .map(|i| RequestSpec {
                    id: i,
                    model: if i % 2 == 1 && i < 40 {
                        chat
                    } else {
                        ModelId::PRIMARY
                    },
                    arrival: SimTime::from_millis(i * 100 + 37),
                    input_tokens: 128,
                    output_tokens: 12,
                    prefix: None,
                    deadline: None,
                })
                .collect(),
        );
        let mut violations = Vec::new();
        let report = eng.run_observed(&trace, SimDuration::from_secs(120), |state, now| {
            violations.extend(state.ledger().check_invariants(&now.to_string()));
        });
        assert!(violations.is_empty(), "{}", violations.join("\n"));
        assert_eq!(report.finished_requests, trace.len());
        for marker in [
            "unload: draining m1",
            "unload: parked m1",
            "load: restoring m1",
        ] {
            assert_eq!(marked(&eng, marker).len(), 1, "{marker}");
        }
        let available = marked(&eng, "load: m1 available");
        assert!(
            available.len() == 1 && available[0] < SimTime::from_secs(40),
            "the swap completes while the run is serving: {available:?}"
        );
        assert_eq!(
            eng.state.model_availability(chat),
            ModelAvailability::Available
        );
    }
}
