//! Prefix-residency accounting for shared-prompt workloads.
//!
//! Requests in a shared-prefix group (see `workload::SharedPrefix`) open
//! with an identical block of prompt tokens. The first request dispatched
//! to a serving group computes that prefix once; later requests of the same
//! `(group-slot, prefix-group)` pair on the same serving group reference
//! the resident KV instead of re-prefilling it. When a drop plan or a
//! recompute preemption evicts the prefix, *every* dependent admitted after
//! the eviction pays the recompute again — the amplification the
//! shared-prefix scenario gate bounds.
//!
//! The ledger tracks residency only; block ownership stays with the
//! [`crate::BlockManager`] of the serving group that computed the prefix.

use std::collections::BTreeMap;

/// Where a dispatched shared-prefix request's prefix KV comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrefixOutcome {
    /// The prefix is resident on the serving group: the request skips
    /// `tokens` of prefill.
    Hit,
    /// First request of this `(serving group, prefix group)` pair: the
    /// prefix is computed once and becomes resident.
    FirstCompute,
    /// The prefix was resident but has been invalidated (drop plan,
    /// preemption, failure): this request recomputes it, re-establishing
    /// residency.
    Recompute,
}

/// Residency state of one `(serving group, prefix group)` pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Residency {
    /// The prefix KV is currently resident.
    resident: bool,
    /// The pair has been invalidated at least once since first compute.
    evicted_before: bool,
}

/// Tracks which shared prefixes are resident on which serving groups.
///
/// Keys are `(serving-group slot, prefix-group id)`; a `BTreeMap` keeps
/// iteration deterministic for the simulation's byte-identity contract.
#[derive(Debug, Clone, Default)]
pub struct PrefixLedger {
    residency: BTreeMap<(u64, u32), Residency>,
}

impl PrefixLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        PrefixLedger::default()
    }

    /// Records the dispatch of a shared-prefix request of prefix group
    /// `prefix_group` onto serving-group slot `group_slot`, and returns
    /// where its prefix KV comes from.
    pub fn on_dispatch(&mut self, group_slot: u64, prefix_group: u32) -> PrefixOutcome {
        let entry = self
            .residency
            .entry((group_slot, prefix_group))
            .or_insert(Residency {
                resident: false,
                evicted_before: false,
            });
        if entry.resident {
            PrefixOutcome::Hit
        } else if entry.evicted_before {
            entry.resident = true;
            PrefixOutcome::Recompute
        } else {
            entry.resident = true;
            PrefixOutcome::FirstCompute
        }
    }

    /// Invalidates every prefix resident on serving-group slot
    /// `group_slot` (drop plan, preemption or failure evicted its KV).
    /// Returns how many pairs were evicted.
    pub fn invalidate_group(&mut self, group_slot: u64) -> usize {
        let mut evicted = 0;
        for ((slot, _), r) in self.residency.iter_mut() {
            if *slot == group_slot && r.resident {
                r.resident = false;
                r.evicted_before = true;
                evicted += 1;
            }
        }
        evicted
    }

    /// Invalidates a single `(serving group, prefix group)` pair (its
    /// dependent was preempted with KV release). Returns `true` when the
    /// pair was resident.
    pub fn invalidate(&mut self, group_slot: u64, prefix_group: u32) -> bool {
        match self.residency.get_mut(&(group_slot, prefix_group)) {
            Some(r) if r.resident => {
                r.resident = false;
                r.evicted_before = true;
                true
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_compute_then_hits() {
        let mut l = PrefixLedger::new();
        assert_eq!(l.on_dispatch(0, 7), PrefixOutcome::FirstCompute);
        assert_eq!(l.on_dispatch(0, 7), PrefixOutcome::Hit);
        assert_eq!(l.on_dispatch(0, 7), PrefixOutcome::Hit);
    }

    #[test]
    fn groups_and_slots_are_independent() {
        let mut l = PrefixLedger::new();
        assert_eq!(l.on_dispatch(0, 1), PrefixOutcome::FirstCompute);
        // Different prefix group, same slot: its own first compute.
        assert_eq!(l.on_dispatch(0, 2), PrefixOutcome::FirstCompute);
        // Same prefix group on another serving group: computed per slot.
        assert_eq!(l.on_dispatch(1, 1), PrefixOutcome::FirstCompute);
    }

    #[test]
    fn invalidation_charges_recompute_once_per_pair() {
        let mut l = PrefixLedger::new();
        l.on_dispatch(0, 1);
        l.on_dispatch(0, 2);
        l.on_dispatch(1, 1);
        assert_eq!(l.invalidate_group(0), 2, "both slot-0 pairs evicted");
        // Slot 1 is untouched.
        assert_eq!(l.on_dispatch(1, 1), PrefixOutcome::Hit);
        // First dependent after the eviction recomputes; the next hits.
        assert_eq!(l.on_dispatch(0, 1), PrefixOutcome::Recompute);
        assert_eq!(l.on_dispatch(0, 1), PrefixOutcome::Hit);
        // Only the recomputed (resident) pair evicts; re-invalidating an
        // already-evicted slot is a no-op.
        assert_eq!(l.invalidate_group(0), 1, "only the recomputed pair");
        assert_eq!(l.invalidate_group(0), 0, "nothing left resident");
        assert_eq!(l.on_dispatch(0, 2), PrefixOutcome::Recompute);
    }

    #[test]
    fn single_pair_invalidation_spares_neighbours() {
        let mut l = PrefixLedger::new();
        l.on_dispatch(0, 1);
        l.on_dispatch(0, 2);
        assert!(l.invalidate(0, 1), "resident pair evicts");
        assert!(!l.invalidate(0, 1), "second eviction is a no-op");
        assert!(!l.invalidate(9, 9), "unknown pair is a no-op");
        // The neighbour on the same slot is untouched.
        assert_eq!(l.on_dispatch(0, 2), PrefixOutcome::Hit);
        assert_eq!(l.on_dispatch(0, 1), PrefixOutcome::Recompute);
    }
}
