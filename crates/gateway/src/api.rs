//! The gateway proper: submit / stream / cancel / elastic model ops.

use std::collections::VecDeque;

use cluster::{Action, ClusterConfig, ClusterState, ModelAvailability};
use kunserve::serving::{ServingSession, SystemKind};
use sim_core::{SimDuration, SimTime};
use workload::{Deadline, ModelId, RequestSpec, SharedPrefix};

use crate::clock::Clock;
use crate::tenant::{Quota, Tenant, TenantId};

/// Why the gateway refused an operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GatewayError {
    /// The API key matches no registered tenant.
    Unauthorized,
    /// The tenant's request or token quota is exhausted.
    QuotaExhausted(TenantId),
    /// The model id is not deployed on this cluster.
    UnknownModel(ModelId),
    /// The model is draining or unloaded (elastic op in progress).
    ModelUnavailable(ModelId),
    /// The requested arrival precedes already-processed simulated time.
    ArrivalInPast(SimTime),
    /// The elastic model operation is not applicable right now (already
    /// in flight, last full copy, or nothing to load).
    ModelOpRejected(ModelId),
    /// The handle does not name a request of this gateway.
    UnknownRequest,
}

impl std::fmt::Display for GatewayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GatewayError::Unauthorized => write!(f, "unknown API key"),
            GatewayError::QuotaExhausted(t) => write!(f, "quota exhausted for {t}"),
            GatewayError::UnknownModel(m) => write!(f, "model {m} is not deployed"),
            GatewayError::ModelUnavailable(m) => write!(f, "model {m} is not available"),
            GatewayError::ArrivalInPast(t) => write!(f, "arrival {t} already elapsed"),
            GatewayError::ModelOpRejected(m) => write!(f, "model op on {m} not applicable"),
            GatewayError::UnknownRequest => write!(f, "unknown request handle"),
        }
    }
}

impl std::error::Error for GatewayError {}

/// A submission: what a client asks for (the gateway assigns the wire id).
#[derive(Debug, Clone, Copy)]
pub struct SubmitSpec {
    /// Target model.
    pub model: ModelId,
    /// Simulated arrival instant (must not precede [`Gateway::now`]).
    pub arrival: SimTime,
    /// Prompt length in tokens.
    pub input_tokens: u64,
    /// Decode budget in tokens.
    pub output_tokens: u64,
    /// Optional SLO deadline (closed-loop clients).
    pub deadline: Option<Deadline>,
    /// Optional shared-prefix group.
    pub prefix: Option<SharedPrefix>,
}

impl SubmitSpec {
    /// A plain submission with no deadline and no shared prefix.
    pub fn new(model: ModelId, arrival: SimTime, input_tokens: u64, output_tokens: u64) -> Self {
        SubmitSpec {
            model,
            arrival,
            input_tokens,
            output_tokens,
            deadline: None,
            prefix: None,
        }
    }

    /// Attaches an SLO deadline.
    pub fn deadline(mut self, d: Deadline) -> Self {
        self.deadline = Some(d);
        self
    }
}

/// An accepted request. The handle is the gateway's stable name for the
/// request (it equals the `RequestSpec::id` put on the wire).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RequestHandle(pub u64);

/// Lifecycle of a submitted request, as visible to clients.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestStatus {
    /// Accepted; its arrival instant has not been reached yet.
    Pending,
    /// In the engine (queued or executing), not yet terminal.
    Active,
    /// Completed its full decode budget.
    Finished,
    /// Terminated early (client cancel, shed, or deadline drop).
    Cancelled,
}

/// One increment of a request's token stream, delivered by
/// [`Gateway::poll`] and streaming callbacks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TokenEvent {
    /// The request this event belongs to.
    pub handle: RequestHandle,
    /// Tokens generated since the previous event for this request.
    pub new_tokens: u64,
    /// Total tokens generated so far.
    pub generated: u64,
    /// Simulated time of the boundary that delivered the event.
    pub at: SimTime,
    /// Whether the request reached a terminal state.
    pub status: RequestStatus,
}

/// Callback invoked at pump boundaries with a request's token increments.
pub type StreamCallback = Box<dyn FnMut(TokenEvent)>;

struct Track {
    spec: RequestSpec,
    engine_id: Option<cluster::RequestId>,
    /// Tokens already reported through `poll`.
    polled: u64,
    /// Tokens already reported through the callback.
    streamed: u64,
    streamed_done: bool,
    callback: Option<StreamCallback>,
    /// Cancelled while still in the inbox (never reaches the engine).
    withdrawn: bool,
}

/// The online serving gateway: a production-shaped request API bridged
/// onto the deterministic core.
///
/// Time advances only through [`Gateway::pump_until`] (or
/// [`Gateway::finish`]), in monitor-interval boundaries. At each boundary
/// the gateway injects every due submission (in arrival order), steps the
/// engine session, fires streaming callbacks, and lets the [`Clock`] pace
/// the loop. Elastic model operations are actions the gateway applies
/// between boundaries; the engine advances them at every tick instant.
/// Because injection and stepping happen only at tick boundaries, a
/// session reproduces the batch run of the same submissions exactly:
/// byte-identical reports, paced or virtual.
pub struct Gateway<C: Clock> {
    session: ServingSession,
    clock: C,
    interval: SimDuration,
    now: SimTime,
    tenants: Vec<Tenant>,
    tracks: Vec<Track>,
    /// Handles not yet injected, kept sorted by (arrival, handle).
    inbox: VecDeque<u64>,
    /// Handles with a callback that has not seen its terminal event yet,
    /// ascending.
    streaming: Vec<u64>,
}

impl<C: Clock> Gateway<C> {
    /// Opens a gateway over a fresh serving session.
    pub fn new(kind: SystemKind, cfg: ClusterConfig, clock: C) -> Self {
        let interval = cfg.monitor_interval;
        assert!(
            interval > SimDuration::ZERO,
            "monitor interval must be positive"
        );
        Gateway {
            session: ServingSession::open(kind, cfg),
            clock,
            interval,
            now: SimTime::ZERO,
            tenants: Vec::new(),
            tracks: Vec::new(),
            inbox: VecDeque::new(),
            streaming: Vec::new(),
        }
    }

    /// Registers a tenant; `key` is the API key submissions authenticate
    /// with. Keys must be unique. The tenant is known by the returned id;
    /// `_name` is not stored and stays only so existing callers build.
    pub fn register_tenant(
        &mut self,
        _name: impl Into<String>,
        key: impl Into<String>,
        quota: Quota,
    ) -> TenantId {
        let key = key.into();
        assert!(
            self.tenants.iter().all(|t| t.key != key),
            "duplicate API key"
        );
        self.tenants.push(Tenant {
            key,
            quota,
            used_requests: 0,
            used_tokens: 0,
        });
        TenantId(self.tenants.len() as u32 - 1)
    }

    /// Current simulated time (the last processed boundary).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Read access to the live cluster state (ledger audits, model
    /// availability, memory layout) between pumps.
    pub fn state(&self) -> &ClusterState {
        self.session.state()
    }

    /// Submits a request under `key`. On success the request is queued
    /// for injection at the boundary covering `spec.arrival` and its
    /// handle is returned; the error cases are quota, auth, model
    /// availability and time-ordering violations.
    pub fn submit(&mut self, key: &str, spec: SubmitSpec) -> Result<RequestHandle, GatewayError> {
        let tenant_ix = self
            .tenants
            .iter()
            .position(|t| t.key == key)
            .ok_or(GatewayError::Unauthorized)?;
        let tenant = TenantId(tenant_ix as u32);
        if spec.model.0 >= self.state().cfg.num_models() {
            return Err(GatewayError::UnknownModel(spec.model));
        }
        if self.state().model_availability(spec.model) != ModelAvailability::Available {
            return Err(GatewayError::ModelUnavailable(spec.model));
        }
        if spec.arrival < self.now {
            return Err(GatewayError::ArrivalInPast(spec.arrival));
        }
        let reserve = spec.input_tokens + spec.output_tokens;
        if !self.tenants[tenant_ix].admits(reserve) {
            return Err(GatewayError::QuotaExhausted(tenant));
        }
        self.tenants[tenant_ix].charge(reserve);
        let handle = RequestHandle(self.tracks.len() as u64);
        self.tracks.push(Track {
            spec: RequestSpec {
                id: handle.0,
                model: spec.model,
                arrival: spec.arrival,
                input_tokens: spec.input_tokens,
                output_tokens: spec.output_tokens,
                prefix: spec.prefix,
                deadline: spec.deadline,
            },
            engine_id: None,
            polled: 0,
            streamed: 0,
            streamed_done: false,
            callback: None,
            withdrawn: false,
        });
        let ix = self
            .inbox
            .binary_search_by_key(&(spec.arrival, handle.0), |&h| {
                (self.tracks[h as usize].spec.arrival, h)
            })
            .unwrap_err();
        self.inbox.insert(ix, handle.0);
        Ok(handle)
    }

    /// Attaches a streaming callback to a request: at every pump boundary
    /// where the request generated tokens (and once on termination) the
    /// callback receives a [`TokenEvent`]. Replaces any prior callback;
    /// increments already streamed are not replayed.
    pub fn stream(
        &mut self,
        handle: RequestHandle,
        callback: StreamCallback,
    ) -> Result<(), GatewayError> {
        let track = self
            .tracks
            .get_mut(handle.0 as usize)
            .ok_or(GatewayError::UnknownRequest)?;
        track.callback = Some(callback);
        if !track.streamed_done {
            if let Err(ix) = self.streaming.binary_search(&handle.0) {
                self.streaming.insert(ix, handle.0);
            }
        }
        Ok(())
    }

    /// Polls a request's token stream: returns the increment since the
    /// previous poll (possibly zero tokens) and the current status.
    pub fn poll(&mut self, handle: RequestHandle) -> Result<TokenEvent, GatewayError> {
        let (generated, status) = self.progress(handle)?;
        let track = &mut self.tracks[handle.0 as usize];
        let new_tokens = generated - track.polled;
        track.polled = generated;
        Ok(TokenEvent {
            handle,
            new_tokens,
            generated,
            at: self.now,
            status,
        })
    }

    /// A request's current status without consuming stream progress.
    pub fn status(&self, handle: RequestHandle) -> Result<RequestStatus, GatewayError> {
        self.progress(handle).map(|(_, s)| s)
    }

    fn progress(&self, handle: RequestHandle) -> Result<(u64, RequestStatus), GatewayError> {
        let track = self
            .tracks
            .get(handle.0 as usize)
            .ok_or(GatewayError::UnknownRequest)?;
        if track.withdrawn {
            return Ok((0, RequestStatus::Cancelled));
        }
        match track.engine_id {
            None => Ok((0, RequestStatus::Pending)),
            Some(id) => {
                let req = &self.state().requests[id.0];
                let status = match req.state {
                    cluster::ReqState::Finished => RequestStatus::Finished,
                    cluster::ReqState::Dropped => RequestStatus::Cancelled,
                    _ => RequestStatus::Active,
                };
                Ok((req.generated, status))
            }
        }
    }

    /// Cancels a request. Requests still in the inbox are withdrawn
    /// without ever reaching the engine; injected ones are cancelled
    /// through the engine (possibly deferred to the next safe point —
    /// callers may treat the call as accepted either way).
    pub fn cancel(&mut self, handle: RequestHandle) -> Result<(), GatewayError> {
        let track = self
            .tracks
            .get_mut(handle.0 as usize)
            .ok_or(GatewayError::UnknownRequest)?;
        match track.engine_id {
            None => {
                if !track.withdrawn {
                    track.withdrawn = true;
                    self.inbox.retain(|&h| h != handle.0);
                }
                Ok(())
            }
            Some(id) => {
                let _ = self.session.cancel(id);
                Ok(())
            }
        }
    }

    /// Begins an elastic **unload** of `m` (KunServe drop as a first-class
    /// operation): new submissions are refused, in-flight requests drain,
    /// the model's groups merge, and the freed duplicate parameter bytes
    /// become lendable KV in the [`cluster::MemoryLedger`]. The engine
    /// advances it at each tick instant of subsequent pumps.
    pub fn unload_model(&mut self, m: ModelId) -> Result<(), GatewayError> {
        let ok = self.session.apply(Action::Unload(m));
        ok.then_some(()).ok_or(GatewayError::ModelOpRejected(m))
    }

    /// Begins an elastic **load** of a previously unloaded `m`
    /// (ParamRestore-style): parameters stream back from the parked copy,
    /// the group splits, and the model returns to `Available` once
    /// restore completes. The engine advances it at each tick instant of
    /// subsequent pumps.
    pub fn load_model(&mut self, m: ModelId) -> Result<(), GatewayError> {
        let ok = self.session.apply(Action::Load(m));
        ok.then_some(()).ok_or(GatewayError::ModelOpRejected(m))
    }

    /// Convenience probe: the serving availability of `m`.
    pub fn model_availability(&self, m: ModelId) -> ModelAvailability {
        self.state().model_availability(m)
    }

    /// Advances simulated time boundary-by-boundary until the last
    /// monitor-tick boundary at or before `until`, injecting due
    /// submissions, firing streaming callbacks and pacing via the
    /// [`Clock`].
    pub fn pump_until(&mut self, until: SimTime) {
        loop {
            let next = self.now + self.interval;
            if next > until {
                break;
            }
            // Inject everything due by the boundary, in arrival order.
            while let Some(&h) = self.inbox.front() {
                let track = &mut self.tracks[h as usize];
                if track.spec.arrival > next {
                    break;
                }
                self.inbox.pop_front();
                track.engine_id = Some(self.session.inject(track.spec));
            }
            self.session.step_until(next);
            self.now = next;
            self.deliver_stream_events();
            self.clock.pace(next);
        }
    }

    /// Runs streaming callbacks, in ascending handle order, for every
    /// streamed request with progress; a handle leaves the list once its
    /// terminal event is delivered.
    fn deliver_stream_events(&mut self) {
        let at = self.now;
        let mut streaming = std::mem::take(&mut self.streaming);
        streaming.retain(|&h| {
            let handle = RequestHandle(h);
            let (generated, status) = self.progress(handle).expect("streamed handles are known");
            let track = &mut self.tracks[h as usize];
            let new_tokens = generated - track.streamed;
            let terminal = matches!(status, RequestStatus::Finished | RequestStatus::Cancelled);
            if new_tokens == 0 && !terminal {
                return true;
            }
            track.streamed = generated;
            track.streamed_done = terminal;
            let event = TokenEvent {
                handle,
                new_tokens,
                generated,
                at,
                status,
            };
            if let Some(cb) = track.callback.as_mut() {
                cb(event);
            }
            !terminal
        });
        self.streaming = streaming;
    }

    /// Closes the gateway: remaining inbox submissions are injected, the
    /// session runs until the backlog clears (or `drain` past the last
    /// arrival) and the final report plus cluster state are returned.
    pub fn finish(mut self, drain: SimDuration) -> (cluster::RunReport, ClusterState) {
        for &h in &self.inbox {
            let track = &mut self.tracks[h as usize];
            track.engine_id = Some(self.session.inject(track.spec));
        }
        self.inbox.clear();
        self.session.end(drain)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::Virtual;
    use cluster::ClusterConfig;

    fn gw() -> Gateway<Virtual> {
        Gateway::new(SystemKind::KunServe, ClusterConfig::tiny_test(2), Virtual)
    }

    #[test]
    fn auth_and_quota_are_enforced() {
        let mut g = gw();
        let t = g.register_tenant("acme", "k1", Quota::requests(2));
        let spec = SubmitSpec::new(ModelId::PRIMARY, SimTime::from_millis(10), 64, 8);
        assert_eq!(g.submit("nope", spec), Err(GatewayError::Unauthorized));
        assert!(g.submit("k1", spec).is_ok());
        assert!(g.submit("k1", spec).is_ok());
        assert_eq!(g.submit("k1", spec), Err(GatewayError::QuotaExhausted(t)));
    }

    #[test]
    fn token_quota_reserves_input_plus_output() {
        let mut g = gw();
        let t = g.register_tenant("acme", "k1", Quota::tokens(100));
        let spec = SubmitSpec::new(ModelId::PRIMARY, SimTime::from_millis(10), 64, 8);
        assert!(g.submit("k1", spec).is_ok()); // 72 reserved
        assert_eq!(g.submit("k1", spec), Err(GatewayError::QuotaExhausted(t)));
    }

    #[test]
    fn poll_streams_tokens_incrementally_and_callback_sees_the_same_total() {
        let mut g = gw();
        g.register_tenant("acme", "k1", Quota::UNLIMITED);
        let spec = SubmitSpec::new(ModelId::PRIMARY, SimTime::from_millis(10), 128, 24);
        let h = g.submit("k1", spec).unwrap();
        assert_eq!(g.status(h).unwrap(), RequestStatus::Pending);
        let streamed = std::rc::Rc::new(std::cell::RefCell::new((0u64, false)));
        let sink = streamed.clone();
        g.stream(
            h,
            Box::new(move |ev: TokenEvent| {
                let mut s = sink.borrow_mut();
                s.0 += ev.new_tokens;
                if ev.status == RequestStatus::Finished {
                    s.1 = true;
                }
            }),
        )
        .unwrap();
        let mut polled = 0;
        let mut t = SimTime::ZERO;
        for _ in 0..600 {
            t += SimDuration::from_millis(100);
            g.pump_until(t);
            polled += g.poll(h).unwrap().new_tokens;
            if g.status(h).unwrap() == RequestStatus::Finished {
                break;
            }
        }
        assert_eq!(g.status(h).unwrap(), RequestStatus::Finished);
        assert_eq!(polled, 24, "poll must deliver exactly the decode budget");
        let (cb_total, cb_done) = *streamed.borrow();
        assert_eq!(cb_total, 24, "callback must deliver the same stream");
        assert!(cb_done, "callback must see the terminal event");
        let (report, _) = g.finish(SimDuration::from_secs(60));
        assert_eq!(report.finished_requests, 1);
    }

    #[test]
    fn inbox_cancel_never_reaches_the_engine() {
        let mut g = gw();
        g.register_tenant("acme", "k1", Quota::UNLIMITED);
        let h = g
            .submit(
                "k1",
                SubmitSpec::new(ModelId::PRIMARY, SimTime::from_secs(5), 64, 8),
            )
            .unwrap();
        g.cancel(h).unwrap();
        assert_eq!(g.status(h).unwrap(), RequestStatus::Cancelled);
        g.pump_until(SimTime::from_secs(10));
        let (report, state) = g.finish(SimDuration::from_secs(30));
        assert_eq!(report.total_requests, 0, "withdrawn before injection");
        assert!(state.requests.is_empty());
    }

    #[test]
    fn stream_callback_sees_an_inbox_cancel_once() {
        let mut g = gw();
        g.register_tenant("acme", "k1", Quota::UNLIMITED);
        let h = g
            .submit(
                "k1",
                SubmitSpec::new(ModelId::PRIMARY, SimTime::from_secs(5), 64, 8),
            )
            .unwrap();
        let events = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let sink = events.clone();
        g.stream(
            h,
            Box::new(move |ev: TokenEvent| sink.borrow_mut().push(ev)),
        )
        .unwrap();
        g.cancel(h).unwrap();
        g.pump_until(SimTime::from_secs(1));
        g.pump_until(SimTime::from_secs(2));
        let events = events.borrow();
        assert_eq!(events.len(), 1, "exactly one terminal event: {events:?}");
        assert_eq!(events[0].status, RequestStatus::Cancelled);
        assert_eq!((events[0].new_tokens, events[0].generated), (0, 0));
    }

    #[test]
    fn unknown_model_and_unknown_handle_are_rejected() {
        let mut g = gw();
        g.register_tenant("acme", "k1", Quota::UNLIMITED);
        let bad = SubmitSpec::new(ModelId(7), SimTime::from_millis(10), 64, 8);
        assert_eq!(
            g.submit("k1", bad),
            Err(GatewayError::UnknownModel(ModelId(7)))
        );
        assert_eq!(
            g.status(RequestHandle(99)),
            Err(GatewayError::UnknownRequest)
        );
    }

    #[test]
    fn arrival_before_processed_time_is_rejected() {
        let mut g = gw();
        g.register_tenant("acme", "k1", Quota::UNLIMITED);
        g.pump_until(SimTime::from_secs(2));
        let stale = SubmitSpec::new(ModelId::PRIMARY, SimTime::from_secs(1), 64, 8);
        assert_eq!(
            g.submit("k1", stale),
            Err(GatewayError::ArrivalInPast(SimTime::from_secs(1)))
        );
    }

    #[test]
    fn unload_refuses_new_submissions_until_load_completes() {
        let mut g = gw();
        g.register_tenant("acme", "k1", Quota::UNLIMITED);
        assert_eq!(
            g.model_availability(ModelId::PRIMARY),
            ModelAvailability::Available
        );
        g.unload_model(ModelId::PRIMARY).unwrap();
        // A second unload of the same model is not applicable.
        assert_eq!(
            g.unload_model(ModelId::PRIMARY),
            Err(GatewayError::ModelOpRejected(ModelId::PRIMARY))
        );
        let spec = SubmitSpec::new(ModelId::PRIMARY, SimTime::from_secs(1), 64, 8);
        assert_eq!(
            g.submit("k1", spec),
            Err(GatewayError::ModelUnavailable(ModelId::PRIMARY))
        );
        // Drive the drain → merge → freeze pipeline to completion.
        let mut t = SimTime::ZERO;
        while g.model_availability(ModelId::PRIMARY) != ModelAvailability::Unloaded {
            t += SimDuration::from_secs(1);
            assert!(t < SimTime::from_secs(120), "unload must converge");
            g.pump_until(t);
        }
        // Bring it back and wait for Available again.
        g.load_model(ModelId::PRIMARY).unwrap();
        while g.model_availability(ModelId::PRIMARY) != ModelAvailability::Available {
            t += SimDuration::from_secs(1);
            assert!(t < SimTime::from_secs(300), "load must converge");
            g.pump_until(t);
        }
        // The reloaded model serves again.
        let h = g
            .submit(
                "k1",
                SubmitSpec::new(ModelId::PRIMARY, t + SimDuration::from_secs(1), 64, 8),
            )
            .unwrap();
        g.pump_until(t + SimDuration::from_secs(60));
        assert_eq!(g.status(h).unwrap(), RequestStatus::Finished);
    }
}
