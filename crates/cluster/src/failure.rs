//! Outside actions: scripted faults and elastic model operations.
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
//!   ([`ClusterState::fail_instance`] / [`ClusterState::recover_instance`]).
//!
//! Schedules are validated up front ([`FailureSchedule::validate`]) against
//! the cluster they will run on, with a typed [`ScheduleError`] instead of
//! silently accepting nonsense like an `up` without a matching `down`, a
//! fault on an instance the cluster does not have, or an outage that
//! leaves a model with no live instance.
//!
//! A fault is one kind of outside [`Action`]; an elastic unload or load
//! of a model is the other. Every action reaches the cluster through
//! [`ClusterState::apply`], and the engine owns when it happens
//! ([`crate::Engine::schedule`], [`crate::Engine::apply`]). The serving
//! policy keeps making its normal decisions while the cluster churns
//! underneath it.

use std::collections::BTreeMap;

use sim_core::SimTime;
use workload::ModelId;

use crate::config::ClusterConfig;
use crate::instance::{Instance, InstanceId};
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
}

impl FaultKind {
    /// Whether the fault names something in `cfg`: an instance below
    /// [`ClusterConfig::total_instances`], or a rack of a racked cluster
    /// that holds an instance.
    fn names_target(self, cfg: &ClusterConfig) -> bool {
        match self {
            // A rack exists when its first instance does.
            FaultKind::RackDown(r) | FaultKind::RackUp(r) => {
                cfg.rack_size > 0
                    && u64::from(r) * u64::from(cfg.rack_size) < u64::from(cfg.total_instances())
            }
            FaultKind::InstanceDown(i) | FaultKind::InstanceUp(i) => i < cfg.total_instances(),
        }
    }
}

/// Something done to the cluster from outside its serving policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// A fault or recovery from the fault matrix.
    Fault(FaultKind),
    /// Begin an elastic unload of the model
    /// ([`ClusterState::request_unload_model`]).
    Unload(ModelId),
    /// Begin an elastic load of an unloaded model
    /// ([`ClusterState::request_load_model`]).
    Load(ModelId),
}

impl ClusterState {
    /// Performs `action` at `now`: the one site through which faults and
    /// elastic model operations reach the cluster.
    ///
    /// Returns `false` when the action did not take effect: the fault
    /// names nothing in the cluster, every instance it would take down is
    /// already dead, every instance it would bring back is already
    /// serving, or the model operation is not applicable. A fault that
    /// would take some model's last live instance is refused the same way
    /// and changes nothing (the simulator cannot serve a dark model yet;
    /// [`FailureSchedule::validate`] rejects such a schedule up front).
    /// Any other rack fault records its timeline marker, even when it
    /// takes nothing down.
    pub fn apply(&mut self, action: Action, now: SimTime) -> bool {
        let fault = match action {
            Action::Fault(kind) => kind,
            Action::Unload(m) => return self.request_unload_model(m, now),
            Action::Load(m) => return self.request_load_model(m, now),
        };
        if !fault.names_target(&self.cfg) {
            return false;
        }
        let alive = |s: &Self, i: u32| s.group_alive(s.instance_group(InstanceId(i)));
        match fault {
            FaultKind::RackDown(r) => {
                let members = self.cfg.instances_in_rack(r);
                if self.darkens_a_model(&members) {
                    return false;
                }
                let any_alive = members.into_iter().any(|i| alive(self, i));
                self.fail_rack(r, now);
                any_alive
            }
            FaultKind::RackUp(r) => !self.recover_rack(r, now).is_empty(),
            FaultKind::InstanceDown(i) => {
                // Skip a victim already dead (e.g. its whole rack went
                // first): overlapping scripts are legal.
                let up = alive(self, i) && !self.darkens_a_model(&[i]);
                if up {
                    self.fail_instance(InstanceId(i), now);
                }
                up
            }
            FaultKind::InstanceUp(i) => self.recover_instance(InstanceId(i), now).is_some(),
        }
    }

    /// Whether failing `victims` (instance indices) would leave a model
    /// that serves on one of them with no live instance.
    fn darkens_a_model(&self, victims: &[u32]) -> bool {
        let live = |inst: &Instance| self.group_alive(inst.group);
        let lost = |inst: &Instance| victims.contains(&inst.id.0);
        self.instances
            .iter()
            .filter(|v| live(v) && lost(v))
            .any(|v| {
                !self
                    .instances
                    .iter()
                    .any(|j| j.model == v.model && live(j) && !lost(j))
            })
    }
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
/// one twice, closes a window before (or at the instant) it opened, names
/// something the cluster does not have, or takes a model's last instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScheduleError {
    /// The event names nothing in the cluster: an instance index at or
    /// above [`ClusterConfig::total_instances`], a rack fault on an
    /// unracked cluster (`rack_size == 0`), or a rack with no instances.
    NoSuchTarget(FailureEvent),
    /// A down event targets something that is already down.
    Duplicate(FailureEvent),
    /// An up event has no earlier matching down.
    UpWithoutDown(FailureEvent),
    /// An up event fires at the same instant as the down it would
    /// close — a zero-width outage is almost certainly a scripting bug.
    OutOfOrder {
        /// The opening event.
        down: FailureEvent,
        /// The (too early) closing event.
        up: FailureEvent,
    },
    /// After this event some model has no live instance left, which the
    /// simulator cannot serve yet. The dark-model state planned in
    /// ROADMAP.md replaces this error: arrivals for such a model would
    /// wait until a recovery or a load brings capacity back.
    DarkensModel(FailureEvent),
}

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScheduleError::NoSuchTarget(e) => {
                write!(
                    f,
                    "fault names nothing in the cluster: {:?} at {}",
                    e.kind, e.at
                )
            }
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
            ScheduleError::DarkensModel(e) => write!(
                f,
                "fault leaves a model with no live instance: {:?} at {}",
                e.kind, e.at
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
    /// An empty schedule: a run with it sees no faults.
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

    /// Checks the schedule against `cfg` for a target the cluster does
    /// not have ([`ScheduleError::NoSuchTarget`]), for the three classic
    /// scripting bugs — double-down ([`ScheduleError::Duplicate`]),
    /// up-without-down ([`ScheduleError::UpWithoutDown`]) and zero-width
    /// windows ([`ScheduleError::OutOfOrder`]) — and for an outage that
    /// takes a model's last live instance ([`ScheduleError::DarkensModel`]),
    /// by replaying the sorted events.
    ///
    /// A rack and one of its member instances are tracked as *independent*
    /// down-windows: [`ClusterState::apply`] skips an already-dead
    /// instance, so overlapping rack/instance scripts are legal, just
    /// unusual. Liveness is replayed the way such faults overlap when they
    /// fire: a rack event sets every member of the rack, an instance event
    /// sets one instance.
    pub fn validate(&self, cfg: &ClusterConfig) -> Result<(), ScheduleError> {
        // Target key → the event that opened its current down-window.
        let mut down: BTreeMap<(u8, u32), FailureEvent> = BTreeMap::new();
        // Instances are laid out model by model.
        let owner: Vec<ModelId> = cfg
            .model_ids()
            .flat_map(|m| std::iter::repeat_n(m, cfg.instances_of(m) as usize))
            .collect();
        let mut live = vec![true; owner.len()];
        for ev in self.sorted_events() {
            if !ev.kind.names_target(cfg) {
                return Err(ScheduleError::NoSuchTarget(ev));
            }
            let (key, opens, members) = match ev.kind {
                FaultKind::RackDown(r) => ((0u8, r), true, cfg.instances_in_rack(r)),
                FaultKind::RackUp(r) => ((0u8, r), false, cfg.instances_in_rack(r)),
                FaultKind::InstanceDown(i) => ((1u8, i), true, vec![i]),
                FaultKind::InstanceUp(i) => ((1u8, i), false, vec![i]),
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
            for i in members {
                live[i as usize] = !opens;
            }
            let serves = |m: ModelId| owner.iter().zip(&live).any(|(&o, &l)| o == m && l);
            if !cfg.model_ids().all(serves) {
                return Err(ScheduleError::DarkensModel(ev));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `tiny_test(n)` in racks of `rack_size` (0: unracked).
    fn racked(n: u32, rack_size: u32) -> ClusterConfig {
        let mut cfg = ClusterConfig::tiny_test(n);
        cfg.rack_size = rack_size;
        cfg
    }

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
        let cfg = racked(8, 2); // racks 0..=3, instances 0..=7

        // Well-formed matrix: interleaved down/up pairs.
        let ok = FailureSchedule::new()
            .rack_down(SimTime::from_secs(10), 0)
            .rack_up(SimTime::from_secs(20), 0)
            .instance_down(SimTime::from_secs(12), 5)
            .instance_up(SimTime::from_secs(14), 5);
        assert_eq!(ok.validate(&cfg), Ok(()));

        // Double-down on the same rack.
        let dup = FailureSchedule::new()
            .rack_down(SimTime::from_secs(10), 0)
            .rack_down(SimTime::from_secs(12), 0);
        assert!(matches!(
            dup.validate(&cfg),
            Err(ScheduleError::Duplicate(_))
        ));

        // Recovery of a rack that never failed.
        let orphan = FailureSchedule::new().rack_up(SimTime::from_secs(5), 3);
        let err = orphan.validate(&cfg).unwrap_err();
        assert!(matches!(err, ScheduleError::UpWithoutDown(_)));
        assert!(err.to_string().contains("recovery without outage"));

        // Zero-width window: up at the same instant as its down.
        let zero = FailureSchedule::new()
            .instance_down(SimTime::from_secs(7), 2)
            .instance_up(SimTime::from_secs(7), 2);
        assert!(matches!(
            zero.validate(&cfg),
            Err(ScheduleError::OutOfOrder { .. })
        ));

        // Down again after a clean up is fine.
        let reopen = FailureSchedule::new()
            .rack_down(SimTime::from_secs(10), 0)
            .rack_up(SimTime::from_secs(20), 0)
            .rack_down(SimTime::from_secs(30), 0);
        assert_eq!(reopen.validate(&cfg), Ok(()));
    }

    fn no_such_target(schedule: &FailureSchedule, cfg: &ClusterConfig) -> bool {
        matches!(schedule.validate(cfg), Err(ScheduleError::NoSuchTarget(_)))
    }

    #[test]
    fn validation_rejects_an_instance_outside_the_cluster() {
        let cfg = racked(4, 0);
        let at = SimTime::from_secs(5);
        assert!(no_such_target(
            &FailureSchedule::new().instance_down(at, 99),
            &cfg
        ));
        assert!(no_such_target(
            &FailureSchedule::new().instance_down(at, 4),
            &cfg
        ));
        let err = FailureSchedule::new()
            .instance_down(at, 3)
            .instance_up(SimTime::from_secs(9), 4)
            .validate(&cfg)
            .unwrap_err();
        assert!(err.to_string().contains("names nothing in the cluster"));
        assert_eq!(
            FailureSchedule::new().instance_down(at, 3).validate(&cfg),
            Ok(())
        );
    }

    #[test]
    fn validation_rejects_a_rack_fault_on_an_unracked_cluster() {
        let cfg = racked(4, 0);
        let at = SimTime::from_secs(5);
        assert!(no_such_target(
            &FailureSchedule::new().rack_down(at, 0),
            &cfg
        ));
        assert!(no_such_target(
            &FailureSchedule::new()
                .rack_down(at, 0)
                .rack_up(SimTime::from_secs(9), 0),
            &cfg
        ));
    }

    #[test]
    fn validation_rejects_a_rack_with_no_instances() {
        let cfg = racked(4, 2); // racks 0 and 1
        let at = SimTime::from_secs(5);
        assert!(no_such_target(
            &FailureSchedule::new().rack_down(at, 9),
            &cfg
        ));
        assert!(no_such_target(
            &FailureSchedule::new().rack_down(at, 2),
            &cfg
        ));
        assert!(no_such_target(
            &FailureSchedule::new().rack_down(at, u32::MAX),
            &cfg
        ));
        assert_eq!(
            FailureSchedule::new().rack_down(at, 1).validate(&cfg),
            Ok(())
        );
    }

    #[test]
    fn validation_rejects_a_schedule_that_darkens_a_model() {
        let at = SimTime::from_secs;
        let darkens = |s: FailureSchedule, cfg: &ClusterConfig| match s.validate(cfg) {
            Err(ScheduleError::DarkensModel(ev)) => Some(ev),
            _ => None,
        };
        let cfg = racked(4, 2); // racks {0,1} and {2,3}, one model
        let both_racks = FailureSchedule::new()
            .rack_down(at(5), 0)
            .rack_down(at(6), 1);
        let last = FailureEvent {
            at: at(6),
            kind: FaultKind::RackDown(1),
        };
        assert_eq!(darkens(both_racks.clone(), &cfg), Some(last));
        let every_instance = (0..4).fold(FailureSchedule::new(), |s, i| s.instance_down(at(5), i));
        assert!(darkens(every_instance, &cfg).is_some());
        // A recovery after the second rack fails comes too late.
        assert_eq!(darkens(both_racks.rack_up(at(8), 0), &cfg), Some(last));
        // Rack 1 of a two-model cluster holds all of model 1.
        let mut two = ClusterConfig::tiny_two_model(2, 2);
        two.rack_size = 2;
        let err = FailureSchedule::new().rack_down(at(5), 1).validate(&two);
        assert!(matches!(err, Err(ScheduleError::DarkensModel(_))));
        assert!(err.unwrap_err().to_string().contains("no live instance"));

        // Capacity that returns first keeps the model served.
        let rolling = FailureSchedule::new()
            .rack_down(at(5), 0)
            .rack_up(at(6), 0)
            .rack_down(at(7), 1);
        assert_eq!(rolling.validate(&cfg), Ok(()));
        let overlapping = FailureSchedule::new()
            .rack_down(at(5), 0)
            .instance_down(at(6), 1)
            .rack_up(at(7), 0)
            .rack_down(at(8), 1);
        assert!(
            darkens(overlapping, &cfg).is_none(),
            "a rack up revives its dead members"
        );
    }

    #[test]
    fn apply_reports_whether_the_action_took_effect() {
        let mut state = ClusterState::new(racked(4, 2));
        let now = SimTime::from_secs(1);
        let down = |i| Action::Fault(FaultKind::InstanceDown(i));
        assert!(state.apply(down(0), now));
        assert!(!state.apply(down(0), now), "instance 0 is already dead");
        assert!(!state.apply(down(9), now), "no instance 9");
        assert!(state.apply(Action::Fault(FaultKind::RackDown(0)), now));
        assert!(!state.apply(Action::Fault(FaultKind::RackDown(0)), now));
        assert!(state.apply(Action::Fault(FaultKind::RackUp(0)), now));
        assert!(!state.apply(Action::Fault(FaultKind::InstanceUp(1)), now));

        let m = ModelId::PRIMARY;
        assert!(!state.apply(Action::Load(m), now), "not unloaded");
        assert!(state.apply(Action::Unload(m), now));
        assert!(!state.apply(Action::Unload(m), now), "already in flight");
        assert!(!state.apply(Action::Load(m), now), "draining, not unloaded");
        assert!(
            !state.apply(Action::Unload(ModelId(3)), now),
            "not deployed"
        );
    }
}
