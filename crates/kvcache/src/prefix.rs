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
    /// Prefill tokens skipped thanks to resident prefixes.
    saved_tokens: u64,
    /// Prefix tokens computed for the first time (once per pair).
    unique_tokens: u64,
    /// Prefix tokens recomputed after an invalidation.
    recompute_tokens: u64,
}

impl PrefixLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        PrefixLedger::default()
    }

    /// Records the dispatch of a shared-prefix request (`tokens` shared
    /// tokens, prefix group `prefix_group`) onto serving-group slot
    /// `group_slot`, and returns where its prefix KV comes from.
    pub fn on_dispatch(
        &mut self,
        group_slot: u64,
        prefix_group: u32,
        tokens: u64,
    ) -> PrefixOutcome {
        let entry = self
            .residency
            .entry((group_slot, prefix_group))
            .or_insert(Residency {
                resident: false,
                evicted_before: false,
            });
        if entry.resident {
            self.saved_tokens += tokens;
            PrefixOutcome::Hit
        } else if entry.evicted_before {
            entry.resident = true;
            self.recompute_tokens += tokens;
            PrefixOutcome::Recompute
        } else {
            entry.resident = true;
            self.unique_tokens += tokens;
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

    /// Prefill tokens skipped thanks to resident prefixes.
    pub fn saved_tokens(&self) -> u64 {
        self.saved_tokens
    }

    /// Prefix tokens computed exactly once (first compute per pair).
    pub fn unique_tokens(&self) -> u64 {
        self.unique_tokens
    }

    /// Prefix tokens recomputed after invalidations.
    pub fn recompute_tokens(&self) -> u64 {
        self.recompute_tokens
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_compute_then_hits() {
        let mut l = PrefixLedger::new();
        assert_eq!(l.on_dispatch(0, 7, 100), PrefixOutcome::FirstCompute);
        assert_eq!(l.on_dispatch(0, 7, 100), PrefixOutcome::Hit);
        assert_eq!(l.on_dispatch(0, 7, 100), PrefixOutcome::Hit);
        assert_eq!(l.unique_tokens(), 100);
        assert_eq!(l.saved_tokens(), 200);
        assert_eq!(l.recompute_tokens(), 0);
    }

    #[test]
    fn groups_and_slots_are_independent() {
        let mut l = PrefixLedger::new();
        assert_eq!(l.on_dispatch(0, 1, 50), PrefixOutcome::FirstCompute);
        // Different prefix group, same slot: its own first compute.
        assert_eq!(l.on_dispatch(0, 2, 60), PrefixOutcome::FirstCompute);
        // Same prefix group on another serving group: computed per slot.
        assert_eq!(l.on_dispatch(1, 1, 50), PrefixOutcome::FirstCompute);
        assert_eq!(l.unique_tokens(), 160);
    }

    #[test]
    fn invalidation_charges_recompute_once_per_pair() {
        let mut l = PrefixLedger::new();
        l.on_dispatch(0, 1, 100);
        l.on_dispatch(0, 2, 40);
        l.on_dispatch(1, 1, 100);
        assert_eq!(l.invalidate_group(0), 2, "both slot-0 pairs evicted");
        // Slot 1 is untouched.
        assert_eq!(l.on_dispatch(1, 1, 100), PrefixOutcome::Hit);
        // First dependent after the eviction recomputes; the next hits.
        assert_eq!(l.on_dispatch(0, 1, 100), PrefixOutcome::Recompute);
        assert_eq!(l.on_dispatch(0, 1, 100), PrefixOutcome::Hit);
        assert_eq!(l.recompute_tokens(), 100);
        // Only the recomputed (resident) pair evicts; re-invalidating an
        // already-evicted slot is a no-op.
        assert_eq!(l.invalidate_group(0), 1, "only the recomputed pair");
        assert_eq!(l.invalidate_group(0), 0, "nothing left resident");
        assert_eq!(l.on_dispatch(0, 2, 40), PrefixOutcome::Recompute);
        assert_eq!(l.recompute_tokens(), 140);
        assert_eq!(l.unique_tokens(), 240);
    }

    #[test]
    fn single_pair_invalidation_spares_neighbours() {
        let mut l = PrefixLedger::new();
        l.on_dispatch(0, 1, 100);
        l.on_dispatch(0, 2, 40);
        assert!(l.invalidate(0, 1), "resident pair evicts");
        assert!(!l.invalidate(0, 1), "second eviction is a no-op");
        assert!(!l.invalidate(9, 9), "unknown pair is a no-op");
        // The neighbour on the same slot is untouched.
        assert_eq!(l.on_dispatch(0, 2, 40), PrefixOutcome::Hit);
        assert_eq!(l.on_dispatch(0, 1, 100), PrefixOutcome::Recompute);
    }
}
