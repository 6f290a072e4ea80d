//! Scripted fault injection: the transient fault matrix.
//!
//! Real clusters lose whole *racks* at once — a PDU trip or a ToR switch
//! takes down every instance behind it — but they also get them *back*:
//! power returns, the switch reboots, and the instances rejoin with cold
//! HBM that must be refilled from the host-DRAM parameter replicas. The
//! fault matrix scripts four deterministic disturbance kinds against
//! [`ClusterState`]:
//!
//! * **rack down / rack up** — correlated loss and recovery of a whole
//!   power/ToR domain ([`ClusterState::fail_rack`] /
//!   [`ClusterState::recover_rack`]);
//! * **instance down / instance up** — a single-victim outage
//!   ([`ClusterState::fail_instance`] / [`ClusterState::recover_instance`]);
//! * **degraded link windows** — the fabric slows by an integer factor for
//!   a bounded window ([`ClusterState::set_link_slowdown`]), stretching
//!   every bulk transfer submitted inside it.
//!
//! Schedules are validated up front ([`FailureSchedule::validate`]) with a
//! typed [`ScheduleError`] instead of silently accepting nonsense like an
//! `up` without a matching `down`. The [`FailureInjector`] stays a
//! transparent [`Policy`] wrapper: the inner policy keeps making its normal
//! decisions while the cluster churns underneath it.

use sim_core::SimTime;

use crate::batch::{MicroBatch, SeqChunk};
use crate::former::MicrobatchFormerSpec;
use crate::group::GroupId;
use crate::instance::InstanceId;
use crate::policy::{OomResolution, Policy, TransferEvent};
use crate::request::RequestId;
use crate::state::ClusterState;

/// What a scripted fault event does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultKind {
    /// Every live instance in the rack fails (correlated domain loss).
    RackDown(u32),
    /// Every dead instance in the rack rejoins and reloads parameters.
    RackUp(u32),
    /// One instance fails.
    InstanceDown(u32),
    /// One instance rejoins and reloads parameters.
    InstanceUp(u32),
    /// The fabric degrades: bulk transfers submitted from now on carry
    /// `factor×` their nominal cost (see [`netsim::Network::set_slowdown`]).
    LinkDegraded {
        /// Integer slowdown multiplier (must be ≥ 2 to mean anything).
        factor: u64,
    },
    /// The fabric returns to full speed.
    LinkRestored,
}

/// One scripted fault: `kind` fires at `at`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct FailureEvent {
    /// Simulated time the fault fires.
    pub at: SimTime,
    /// What happens.
    pub kind: FaultKind,
}

/// A schedule that references a down-state that was never entered, enters
/// one twice, or closes a window before (or at the instant) it opened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScheduleError {
    /// A down/degrade event targets something that is already down.
    Duplicate(FailureEvent),
    /// An up/restore event has no earlier matching down/degrade.
    UpWithoutDown(FailureEvent),
    /// An up/restore event fires at the same instant as the down it would
    /// close — a zero-width outage is almost certainly a scripting bug.
    OutOfOrder {
        /// The opening event.
        down: FailureEvent,
        /// The (too early) closing event.
        up: FailureEvent,
    },
}

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScheduleError::Duplicate(e) => {
                write!(
                    f,
                    "duplicate fault: {:?} is already in effect at {}",
                    e.kind, e.at
                )
            }
            ScheduleError::UpWithoutDown(e) => {
                write!(f, "recovery without outage: {:?} at {}", e.kind, e.at)
            }
            ScheduleError::OutOfOrder { down, up } => write!(
                f,
                "zero-width fault window: {:?} at {} closes {:?} opened at the same instant",
                up.kind, up.at, down.kind
            ),
        }
    }
}

impl std::error::Error for ScheduleError {}

/// A deterministic sequence of fault events, fired in time order.
#[derive(Debug, Clone, Default)]
pub struct FailureSchedule {
    events: Vec<FailureEvent>,
}

impl FailureSchedule {
    /// An empty schedule (injector becomes a pure pass-through).
    pub fn new() -> Self {
        FailureSchedule::default()
    }

    fn push(mut self, at: SimTime, kind: FaultKind) -> Self {
        self.events.push(FailureEvent { at, kind });
        self
    }

    /// Adds a rack failure at `at`; events may be pushed in any order.
    pub fn rack_down(self, at: SimTime, rack: u32) -> Self {
        self.push(at, FaultKind::RackDown(rack))
    }

    /// Adds a rack recovery at `at`: the rack's instances rejoin and start
    /// reloading parameters from their host-DRAM replicas.
    pub fn rack_up(self, at: SimTime, rack: u32) -> Self {
        self.push(at, FaultKind::RackUp(rack))
    }

    /// Adds a single-instance failure at `at`.
    pub fn instance_down(self, at: SimTime, instance: u32) -> Self {
        self.push(at, FaultKind::InstanceDown(instance))
    }

    /// Adds a single-instance recovery at `at`.
    pub fn instance_up(self, at: SimTime, instance: u32) -> Self {
        self.push(at, FaultKind::InstanceUp(instance))
    }

    /// Opens a degraded-link window at `at`: bulk transfers submitted while
    /// the window is open cost `factor×` their healthy transfer time.
    pub fn link_degraded(self, at: SimTime, factor: u64) -> Self {
        self.push(at, FaultKind::LinkDegraded { factor })
    }

    /// Closes the degraded-link window at `at`.
    pub fn link_restored(self, at: SimTime) -> Self {
        self.push(at, FaultKind::LinkRestored)
    }

    /// The scripted events, sorted by (time, kind).
    pub fn sorted_events(&self) -> Vec<FailureEvent> {
        let mut ev = self.events.clone();
        ev.sort();
        ev
    }

    /// Number of scripted events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Checks the schedule for the three classic scripting bugs —
    /// double-down ([`ScheduleError::Duplicate`]), up-without-down
    /// ([`ScheduleError::UpWithoutDown`]) and zero-width windows
    /// ([`ScheduleError::OutOfOrder`]) — by replaying the sorted events
    /// against per-target down-state.
    ///
    /// A rack and one of its member instances are tracked as *independent*
    /// targets here: the injector handles the overlap at fire time (an
    /// already-dead instance is skipped), so overlapping rack/instance
    /// scripts are legal, just unusual.
    pub fn validate(&self) -> Result<(), ScheduleError> {
        // simlint: allow(D-MAP) — audit: keyed lookup only, never
        // iterated; events are replayed in sorted order.
        use std::collections::HashMap;
        // Target key → the event that opened its current down-window.
        // simlint: allow(D-MAP) — audit: see the `use` above.
        let mut down: HashMap<(u8, u64), FailureEvent> = HashMap::new();
        for ev in self.sorted_events() {
            let (key, opens) = match ev.kind {
                FaultKind::RackDown(r) => ((0u8, r as u64), true),
                FaultKind::RackUp(r) => ((0u8, r as u64), false),
                FaultKind::InstanceDown(i) => ((1u8, i as u64), true),
                FaultKind::InstanceUp(i) => ((1u8, i as u64), false),
                FaultKind::LinkDegraded { .. } => ((2u8, 0), true),
                FaultKind::LinkRestored => ((2u8, 0), false),
            };
            if opens {
                if down.contains_key(&key) {
                    return Err(ScheduleError::Duplicate(ev));
                }
                down.insert(key, ev);
            } else {
                match down.remove(&key) {
                    None => return Err(ScheduleError::UpWithoutDown(ev)),
                    Some(open) if open.at == ev.at => {
                        return Err(ScheduleError::OutOfOrder { down: open, up: ev })
                    }
                    Some(_) => {}
                }
            }
        }
        Ok(())
    }
}

/// Wraps any [`Policy`] and fires due [`FailureSchedule`] events at the
/// start of each monitor tick, before delegating to the inner policy.
///
/// The wrapper is transparent: `name()` reports the inner system's name so
/// bench comparisons stay labelled by policy, not by harness.
#[derive(Debug)]
pub struct FailureInjector<P: Policy> {
    inner: P,
    pending: Vec<FailureEvent>,
    next: usize,
    fired: Vec<FailureEvent>,
}

impl<P: Policy> FailureInjector<P> {
    /// Wraps `inner`, scripting the faults in `schedule`.
    ///
    /// # Panics
    ///
    /// Panics if the schedule fails [`FailureSchedule::validate`] — an
    /// invalid script is a bug at the call site, not a runtime condition.
    pub fn new(inner: P, schedule: &FailureSchedule) -> Self {
        schedule.validate().expect("invalid failure schedule");
        FailureInjector {
            inner,
            pending: schedule.sorted_events(),
            next: 0,
            fired: Vec::new(),
        }
    }

    /// The events already injected.
    pub fn fired(&self) -> &[FailureEvent] {
        &self.fired
    }

    /// Consumes the wrapper, returning the inner policy.
    pub fn into_inner(self) -> P {
        self.inner
    }

    fn fire(ev: FailureEvent, state: &mut ClusterState, now: SimTime) {
        match ev.kind {
            FaultKind::RackDown(r) => {
                state.fail_rack(r, now);
            }
            FaultKind::RackUp(r) => {
                state.recover_rack(r, now);
            }
            FaultKind::InstanceDown(i) => {
                // Skip a victim already dead (e.g. its whole rack went
                // first): overlapping scripts are legal.
                if state.group_alive(state.instance_group(InstanceId(i))) {
                    state.fail_instance(InstanceId(i), now);
                }
            }
            FaultKind::InstanceUp(i) => {
                state.recover_instance(InstanceId(i), now);
            }
            FaultKind::LinkDegraded { factor } => {
                state.set_link_slowdown(factor, now);
            }
            FaultKind::LinkRestored => {
                state.set_link_slowdown(1, now);
            }
        }
    }
}

impl<P: Policy> Policy for FailureInjector<P> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_tick(&mut self, state: &mut ClusterState, now: SimTime) {
        while self.next < self.pending.len() && self.pending[self.next].at <= now {
            let ev = self.pending[self.next];
            self.next += 1;
            Self::fire(ev, state, now);
            self.fired.push(ev);
        }
        self.inner.on_tick(state, now);
    }

    fn on_admission_blocked(&mut self, state: &mut ClusterState, now: SimTime, group: GroupId) {
        self.inner.on_admission_blocked(state, now, group);
    }

    fn on_decode_oom(
        &mut self,
        state: &mut ClusterState,
        now: SimTime,
        group: GroupId,
        request: RequestId,
    ) -> OomResolution {
        self.inner.on_decode_oom(state, now, group, request)
    }

    fn should_shed(&mut self, state: &ClusterState, now: SimTime, request: RequestId) -> bool {
        self.inner.should_shed(state, now, request)
    }

    fn microbatch_former(&self) -> MicrobatchFormerSpec {
        self.inner.microbatch_former()
    }

    fn form_microbatches(
        &self,
        state: &ClusterState,
        group: GroupId,
        work: &[SeqChunk],
    ) -> Vec<MicroBatch> {
        self.inner.form_microbatches(state, group, work)
    }

    fn on_transfer_done(&mut self, state: &mut ClusterState, now: SimTime, event: &TransferEvent) {
        self.inner.on_transfer_done(state, now, event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterConfig;
    use crate::policy::QueueingPolicy;

    #[test]
    fn schedule_sorts_and_counts() {
        let s = FailureSchedule::new()
            .rack_down(SimTime::from_secs(30), 1)
            .rack_down(SimTime::from_secs(10), 0);
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
        let ev = s.sorted_events();
        assert_eq!(
            ev[0].kind,
            FaultKind::RackDown(0),
            "earlier event first after sorting"
        );
        assert_eq!(ev[1].at, SimTime::from_secs(30));
    }

    #[test]
    fn validation_catches_scripting_bugs() {
        // Well-formed matrix: down/up pairs plus a degraded window.
        let ok = FailureSchedule::new()
            .rack_down(SimTime::from_secs(10), 0)
            .rack_up(SimTime::from_secs(20), 0)
            .instance_down(SimTime::from_secs(12), 5)
            .instance_up(SimTime::from_secs(14), 5)
            .link_degraded(SimTime::from_secs(11), 4)
            .link_restored(SimTime::from_secs(18));
        assert_eq!(ok.validate(), Ok(()));

        // Double-down on the same rack.
        let dup = FailureSchedule::new()
            .rack_down(SimTime::from_secs(10), 0)
            .rack_down(SimTime::from_secs(12), 0);
        assert!(matches!(dup.validate(), Err(ScheduleError::Duplicate(_))));

        // Recovery of a rack that never failed.
        let orphan = FailureSchedule::new().rack_up(SimTime::from_secs(5), 3);
        let err = orphan.validate().unwrap_err();
        assert!(matches!(err, ScheduleError::UpWithoutDown(_)));
        assert!(err.to_string().contains("recovery without outage"));

        // Zero-width window: up at the same instant as its down.
        let zero = FailureSchedule::new()
            .instance_down(SimTime::from_secs(7), 2)
            .instance_up(SimTime::from_secs(7), 2);
        assert!(matches!(
            zero.validate(),
            Err(ScheduleError::OutOfOrder { .. })
        ));

        // Down again after a clean up is fine.
        let reopen = FailureSchedule::new()
            .rack_down(SimTime::from_secs(10), 0)
            .rack_up(SimTime::from_secs(20), 0)
            .rack_down(SimTime::from_secs(30), 0);
        assert_eq!(reopen.validate(), Ok(()));
    }

    #[test]
    fn injector_fires_due_events_once() {
        let mut cfg = ClusterConfig::tiny_test(4);
        cfg.rack_size = 2; // instances {0,1} and {2,3}
        let mut state = ClusterState::try_new(cfg).unwrap();
        let schedule = FailureSchedule::new().rack_down(SimTime::from_secs(5), 0);
        let mut inj = FailureInjector::new(QueueingPolicy, &schedule);
        assert_eq!(inj.name(), "Queueing", "wrapper is transparent");

        inj.on_tick(&mut state, SimTime::from_secs(1));
        assert!(inj.fired().is_empty(), "not due yet");
        let before = state.alive_groups().len();
        assert_eq!(before, 4);

        inj.on_tick(&mut state, SimTime::from_secs(5));
        assert_eq!(inj.fired().len(), 1);
        assert_eq!(state.alive_groups().len(), 2, "rack 0 gone");

        // A later tick does not re-fire the same event.
        inj.on_tick(&mut state, SimTime::from_secs(9));
        assert_eq!(inj.fired().len(), 1);
    }

    #[test]
    fn injector_replays_the_full_matrix() {
        let mut cfg = ClusterConfig::tiny_test(4);
        cfg.rack_size = 2;
        let mut state = ClusterState::try_new(cfg).unwrap();
        let schedule = FailureSchedule::new()
            .rack_down(SimTime::from_secs(5), 0)
            .link_degraded(SimTime::from_secs(6), 8)
            .rack_up(SimTime::from_secs(10), 0)
            .link_restored(SimTime::from_secs(12));
        let mut inj = FailureInjector::new(QueueingPolicy, &schedule);

        inj.on_tick(&mut state, SimTime::from_secs(5));
        assert_eq!(state.alive_groups().len(), 2);
        inj.on_tick(&mut state, SimTime::from_secs(6));
        assert_eq!(state.link_slowdown(), 8, "degraded window open");
        inj.on_tick(&mut state, SimTime::from_secs(10));
        assert_eq!(
            state.alive_groups().len(),
            4,
            "rack rejoined as fresh groups"
        );
        inj.on_tick(&mut state, SimTime::from_secs(12));
        assert_eq!(state.link_slowdown(), 1, "window closed");
        assert_eq!(inj.fired().len(), 4);
    }
}
