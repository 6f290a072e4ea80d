//! Drop-plan generation (paper §4.1, Fig. 6).
//!
//! Upon overloading, KunServe must decide *which* instances drop *which*
//! parameters. Two constraints pull in opposite directions: merging more
//! instances frees more duplicated parameter memory, but deeper pipelines
//! cost more (Fig. 5: "the more parameters dropped, the higher the execution
//! latency"). The paper's greedy algorithm merges the **two smallest groups
//! first** (a min-heap by group size) until the freed memory satisfies the
//! requirement, minimizing the number of instances cooperating on any one
//! request.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use cluster::{GroupId, ModelId};
use modelcfg::{layers_covering, param_bytes_for_layers, top_range, LayerRange};

/// One group considered by the planner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanGroup {
    /// The group's id.
    pub id: GroupId,
    /// Number of instances in the group (pipeline stages).
    pub instances: u32,
}

/// The outcome of drop-plan generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DropPlan {
    /// Sets of existing groups to merge, each becoming one pipeline group.
    /// Singleton sets (groups left alone) are omitted.
    pub merges: Vec<Vec<GroupId>>,
    /// Parameter bytes the plan frees.
    pub freed_bytes: u64,
    /// Whether the plan satisfies the full memory requirement; if `false`
    /// the caller should fall back to KVCache-centric handling for the
    /// remainder (paper: "we fallback ... and autoscale").
    pub satisfies: bool,
}

/// The greedy drop planner.
///
/// `copy_bytes` is the memory one duplicated parameter copy occupies — every
/// merge of two groups (each holding one complete copy) frees exactly one
/// copy's worth of droppable layer parameters.
#[derive(Debug, Clone, Copy)]
pub struct DropPlanner {
    /// Bytes freed per eliminated parameter copy (droppable layers only;
    /// embeddings stay resident on every instance).
    pub copy_bytes: u64,
}

impl DropPlanner {
    /// Creates a planner for a model whose droppable layers total
    /// `copy_bytes`.
    pub fn new(copy_bytes: u64) -> Self {
        DropPlanner { copy_bytes }
    }

    /// Generates a drop plan freeing at least `required` bytes if possible.
    ///
    /// Implements Fig. 6: a min-heap of groups ordered by instance count;
    /// repeatedly pop the two smallest, merge them (freeing one duplicated
    /// copy), push the merged group back, until the requirement is met or
    /// one group remains. `O(N log N)`.
    pub fn plan(&self, groups: &[PlanGroup], required: u64) -> DropPlan {
        // Min-heap entries: (instances, insertion order, constituent ids).
        let mut heap: BinaryHeap<Reverse<(u32, u64, Vec<GroupId>)>> = BinaryHeap::new();
        for (i, g) in groups.iter().enumerate() {
            heap.push(Reverse((g.instances, i as u64, vec![g.id])));
        }
        let mut next_seq = groups.len() as u64;
        let mut freed = 0u64;
        while heap.len() >= 2 && freed < required {
            let Reverse((s0, _, ids0)) = heap.pop().expect("len >= 2");
            let Reverse((s1, _, ids1)) = heap.pop().expect("len >= 2");
            // The two groups each hold a complete copy; merging drops the
            // duplicated layers — one full copy freed.
            freed += self.copy_bytes;
            let mut merged = ids0;
            merged.extend(ids1);
            heap.push(Reverse((s0 + s1, next_seq, merged)));
            next_seq += 1;
        }
        let merges: Vec<Vec<GroupId>> = heap
            .into_iter()
            .map(|Reverse((_, _, ids))| ids)
            .filter(|ids| ids.len() >= 2)
            .collect();
        let mut merges = merges;
        // Deterministic output order: by smallest constituent id.
        merges.sort_by_key(|ids| ids.iter().copied().min());
        DropPlan {
            merges,
            freed_bytes: freed,
            satisfies: freed >= required,
        }
    }
}

// ---------------------------------------------------------------------
// Multi-model arbitration.
// ---------------------------------------------------------------------

/// How simultaneous per-model memory requirements share a bounded
/// cluster-wide reclaim allowance.
///
/// Dropping parameters is not free: every merge stalls its groups and puts
/// KVCache-exchange traffic on the shared fabric, so a multi-model cluster
/// bounds how much reclamation one arbitration round may trigger. When two
/// models overload simultaneously their drop plans compete for that
/// allowance; the arbiter decides the split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arbitration {
    /// Shares proportional to each model's memory requirement.
    Proportional,
    /// Shares proportional to `slo_weight × requirement`: latency-critical
    /// models get their requirement satisfied first.
    SloWeighted,
}

/// One overloaded model's input to arbitration.
#[derive(Debug, Clone)]
pub struct ModelDemand {
    /// The model.
    pub model: ModelId,
    /// Memory requirement R (§4.1) in bytes, margin already applied.
    pub required_bytes: u64,
    /// Bytes one duplicated parameter copy of this model frees.
    pub copy_bytes: u64,
    /// SLO weight (see [`Arbitration::SloWeighted`]).
    pub slo_weight: f64,
    /// This model's candidate groups (each holding a complete copy).
    pub groups: Vec<PlanGroup>,
}

impl ModelDemand {
    /// The most this model can free by merging all its candidates.
    fn max_freeable(&self) -> u64 {
        self.copy_bytes * (self.groups.len() as u64).saturating_sub(1)
    }
}

/// One model's arbitrated outcome.
#[derive(Debug, Clone)]
pub struct ArbitratedPlan {
    /// The model.
    pub model: ModelId,
    /// Bytes of the requirement the arbiter granted this round.
    pub granted_bytes: u64,
    /// The drop plan computed against the granted requirement.
    pub plan: DropPlan,
}

/// One non-overloaded model's offer of donor parameter **layers**: groups
/// it could (partially) merge so the freed bytes feed **another** model's
/// KV pool. Grants are sized in whole layers — the paper's parameter-drop
/// granularity — so a lender with a mild surplus lends exactly what the
/// borrower's deficit needs instead of a whole replica copy.
#[derive(Debug, Clone)]
pub struct LenderOffer {
    /// The offering (lender) model.
    pub model: ModelId,
    /// Bytes one droppable layer frees per eliminated duplicate.
    pub layer_bytes: u64,
    /// Layers in one complete copy.
    pub num_layers: u32,
    /// Grant quantum in layers: `1` for layer-granular donation (the
    /// default), `num_layers` to reproduce the whole-copy baseline.
    pub grant_quantum_layers: u32,
    /// SLO weight — under [`Arbitration::SloWeighted`] the *least*
    /// latency-critical lender donates first.
    pub slo_weight: f64,
    /// The lender's mergeable groups (each holding a complete copy).
    pub groups: Vec<PlanGroup>,
}

impl LenderOffer {
    /// Bytes one duplicated parameter copy frees.
    pub fn copy_bytes(&self) -> u64 {
        param_bytes_for_layers(self.num_layers, self.layer_bytes)
    }

    /// A whole-copy-granularity variant of this offer (the pre-layer-range
    /// donation baseline, kept for the fig18 ablation).
    pub fn whole_copies(mut self) -> Self {
        self.grant_quantum_layers = self.num_layers;
        self
    }

    fn quantum(&self) -> u64 {
        u64::from(self.grant_quantum_layers.clamp(1, self.num_layers.max(1)))
    }
}

/// One cross-model donation decided by arbitration: `layers` of the
/// lender's dropped-parameter memory granted to the borrower's KV pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DonationGrant {
    /// The model whose drop frees the bytes.
    pub lender: ModelId,
    /// The model whose KV pool consumes them.
    pub borrower: ModelId,
    /// Granted layers (a multiple of the offer's grant quantum — whole
    /// layers by default, whole copies in the ablation baseline). The
    /// smallest quantum multiple covering the borrower's residual need,
    /// so the overshoot is bounded by one quantum.
    pub layers: u64,
    /// Granted bytes (`layers × layer_bytes`).
    pub bytes: u64,
}

/// One merge a donor executes: the groups to merge plus the contiguous
/// layer range whose duplicates the merge drops. A full range is the
/// classic whole-copy drop; a partial range de-duplicates only the lent
/// layers, leaving the rest replicated for pull-free restore.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DonorMerge {
    /// The groups to merge.
    pub groups: Vec<GroupId>,
    /// The layer range to de-duplicate across the merged members.
    pub drop_layers: LayerRange,
    /// Layers of duplicate parameters the merge frees:
    /// `(copies − 1) × drop_layers.len()`.
    pub freed_layers: u64,
}

/// A lender's arbitrated outcome: layer-ranged merges of its own groups
/// whose freed bytes are donated per `grants` instead of growing its own
/// pool.
#[derive(Debug, Clone)]
pub struct DonorPlan {
    /// The lender model.
    pub model: ModelId,
    /// The merges to execute (freeing at least the granted layers; any
    /// round-up slack stays with the lender as its own pool growth).
    pub merges: Vec<DonorMerge>,
    /// Who consumes the freed bytes.
    pub grants: Vec<DonationGrant>,
}

impl DonorPlan {
    /// Total layers of duplicates the plan's merges free.
    pub fn freed_layers(&self) -> u64 {
        self.merges.iter().map(|m| m.freed_layers).sum()
    }
}

/// The complete outcome of one arbitration round.
#[derive(Debug, Clone)]
pub struct ArbitrationOutcome {
    /// Per overloaded model: its own-copy plan (ordered by model id).
    pub plans: Vec<ArbitratedPlan>,
    /// Per lender that donates this round (ordered by model id).
    pub donor_plans: Vec<DonorPlan>,
}

/// Arbitrates simultaneous per-model drop plans against a shared reclaim
/// allowance, then serves what is left with cross-model donation.
///
/// With `allowance = None` (or enough allowance for everyone) each model
/// plans for its full requirement — single-model behaviour is unchanged.
/// Under a bounded allowance the hard constraint is that parameters free in
/// **whole copies**, so shares are allocated copy by copy: each model's
/// ideal byte share is `allowance × w_m / Σw` ([`Arbitration`] weights),
/// and copies are awarded one at a time to the model furthest below its
/// ideal, while the remaining allowance still covers that model's copy
/// size. Grants are therefore exact copy multiples and their sum never
/// exceeds the allowance — the bound a round's KV-exchange traffic relies
/// on. The ideal shares set priority only; leftover allowance keeps
/// flowing to models with unmet feasible need, so nothing reclaimable is
/// stranded, but a model whose copy no longer fits the remainder gets
/// nothing rather than rounding up past the allowance.
///
/// Residual requirements — including those of models that cannot free
/// anything themselves (fully merged, or a single group) — are then
/// served from `offers`, donor layers of models that are not overloaded
/// this round. Donor layers are awarded one grant at a time to the
/// borrower with the largest weighted residual ([`Arbitration`] weights);
/// under [`Arbitration::SloWeighted`] the least latency-critical lender
/// donates first. The shared `allowance` bounds own + donated bytes
/// together, so a round's total reclaim (and hence its KV-exchange
/// traffic) stays bounded regardless of who the bytes end up serving.
///
/// The result is deterministic and ordered by model id.
pub fn arbitrate_with_donation(
    demands: &[ModelDemand],
    offers: &[LenderOffer],
    allowance: Option<u64>,
    arbitration: Arbitration,
) -> ArbitrationOutcome {
    let mut demands: Vec<&ModelDemand> = demands.iter().collect();
    demands.sort_by_key(|d| d.model);

    // Feasible need per model: capped by its own mergeable copies.
    let need: Vec<u64> = demands
        .iter()
        .map(|d| d.required_bytes.min(d.max_freeable()))
        .collect();
    let total_need: u64 = need.iter().sum();

    let granted: Vec<u64> = match allowance {
        None => need.clone(),
        Some(a) if a >= total_need => need.clone(),
        Some(a) => {
            let weight = |d: &ModelDemand| -> f64 {
                match arbitration {
                    Arbitration::Proportional => d.required_bytes as f64,
                    Arbitration::SloWeighted => d.slo_weight * d.required_bytes as f64,
                }
            };
            let wsum: f64 = demands.iter().map(|d| weight(d)).sum();
            let ideal: Vec<f64> = demands
                .iter()
                .map(|d| {
                    if wsum > 0.0 {
                        a as f64 * weight(d) / wsum
                    } else {
                        0.0
                    }
                })
                .collect();
            // Useful copies per model: enough to cover its feasible need
            // (the last copy may overshoot the need, never the allowance).
            let cap_copies: Vec<u64> = demands
                .iter()
                .zip(&need)
                .map(|(d, &n)| n.div_ceil(d.copy_bytes.max(1)))
                .collect();
            let mut grant = vec![0u64; demands.len()];
            let mut copies = vec![0u64; demands.len()];
            let mut left = a;
            loop {
                // Award one copy to the open model furthest below its ideal
                // share (ties broken by model id for determinism). The
                // deficit sets *priority* only: the loop keeps awarding
                // until no open model's copy fits the remaining allowance,
                // so no reclaimable allowance is stranded under scarcity.
                let next = (0..demands.len())
                    .filter(|&i| copies[i] < cap_copies[i] && demands[i].copy_bytes <= left)
                    .max_by(|&x, &y| {
                        let dx = ideal[x] - grant[x] as f64;
                        let dy = ideal[y] - grant[y] as f64;
                        dx.partial_cmp(&dy)
                            .expect("finite deficits")
                            .then(demands[y].model.cmp(&demands[x].model))
                    });
                let Some(i) = next else { break };
                copies[i] += 1;
                grant[i] += demands[i].copy_bytes;
                left -= demands[i].copy_bytes;
            }
            grant
        }
    };

    // Donation round: serve residual requirements from donor **layers**
    // under whatever allowance remains. Each award is the smallest
    // quantum multiple (whole layers by default, whole copies for the
    // ablation baseline) covering the borrower's residual, so the grant
    // never overshoots the deficit by more than one quantum.
    let mut left = allowance.map(|a| a.saturating_sub(granted.iter().sum::<u64>()));
    let mut residual: Vec<u64> = demands
        .iter()
        .zip(&granted)
        .map(|(d, &g)| d.required_bytes.saturating_sub(g))
        .collect();
    let mut offers: Vec<&LenderOffer> = offers.iter().collect();
    offers.sort_by_key(|o| o.model);
    // A lender must keep at least one group serving (so at most
    // `groups − 1` copies' worth of layers are lendable), and never lends
    // to models also lending this round (offers come from non-overloaded
    // models only, which the caller guarantees).
    let mut donor_layers: Vec<u64> = offers
        .iter()
        .map(|o| (o.groups.len() as u64).saturating_sub(1) * o.num_layers as u64)
        .collect();
    let mut donated_layers: Vec<u64> = vec![0; offers.len()];
    let mut grants: Vec<DonationGrant> = Vec::new();
    let weight = |d: &ModelDemand| -> f64 {
        match arbitration {
            Arbitration::Proportional => 1.0,
            Arbitration::SloWeighted => d.slo_weight,
        }
    };
    // Neediest open borrower each round: largest weighted residual, ties
    // to the lowest model id.
    let neediest = |residual: &[u64]| -> Option<usize> {
        (0..demands.len())
            .filter(|&i| residual[i] > 0)
            .max_by(|&x, &y| {
                let wx = weight(demands[x]) * residual[x] as f64;
                let wy = weight(demands[y]) * residual[y] as f64;
                wx.partial_cmp(&wy)
                    .expect("finite weights")
                    .then(demands[y].model.cmp(&demands[x].model))
            })
    };
    while let Some(b) = neediest(&residual) {
        // Cheapest donor with a lendable quantum that still fits the
        // allowance: lowest SLO weight first (SloWeighted), ties to the
        // lowest model id.
        let Some(l) = (0..offers.len())
            .filter(|&i| {
                let q = offers[i].quantum();
                donor_layers[i] >= q && left.is_none_or(|a| q * offers[i].layer_bytes <= a)
            })
            .min_by(|&x, &y| {
                let (wx, wy) = match arbitration {
                    Arbitration::Proportional => (0.0, 0.0),
                    Arbitration::SloWeighted => (offers[x].slo_weight, offers[y].slo_weight),
                };
                wx.partial_cmp(&wy)
                    .expect("finite weights")
                    .then(offers[x].model.cmp(&offers[y].model))
            })
        else {
            break;
        };
        let o = offers[l];
        let q = o.quantum();
        // The smallest quantum multiple covering the residual, capped by
        // the lender's remaining layers and the allowance.
        let need = u64::from(layers_covering(residual[b], o.layer_bytes));
        let mut layers = need.div_ceil(q) * q;
        layers = layers.min(donor_layers[l] / q * q);
        if let Some(a) = left {
            layers = layers.min(a / o.layer_bytes / q * q);
        }
        debug_assert!(layers >= q, "filter guarantees one lendable quantum");
        let bytes = layers * o.layer_bytes;
        donor_layers[l] -= layers;
        donated_layers[l] += layers;
        residual[b] = residual[b].saturating_sub(bytes);
        if let Some(a) = left.as_mut() {
            *a -= bytes;
        }
        // Merge adjacent grants of the same (lender, borrower) pair.
        match grants
            .iter_mut()
            .find(|g| g.lender == o.model && g.borrower == demands[b].model)
        {
            Some(g) => {
                g.layers += layers;
                g.bytes += bytes;
            }
            None => grants.push(DonationGrant {
                lender: o.model,
                borrower: demands[b].model,
                layers,
                bytes,
            }),
        }
    }

    let donor_plans: Vec<DonorPlan> = offers
        .iter()
        .enumerate()
        .filter(|&(i, _)| donated_layers[i] > 0)
        .map(|(i, o)| DonorPlan {
            model: o.model,
            merges: plan_donor_merges(&o.groups, donated_layers[i], o.num_layers),
            grants: grants
                .iter()
                .filter(|g| g.lender == o.model)
                .cloned()
                .collect(),
        })
        .collect();

    // Plan each model against its granted requirement.
    let plans = demands
        .iter()
        .zip(&granted)
        .map(|(d, &granted_bytes)| ArbitratedPlan {
            model: d.model,
            granted_bytes,
            plan: DropPlanner::new(d.copy_bytes).plan(&d.groups, granted_bytes),
        })
        .collect();
    ArbitrationOutcome { plans, donor_plans }
}

/// Plans the merges that free `donated_layers` layers of duplicates from
/// `groups` (each holding one complete `num_layers`-layer copy).
///
/// The same greedy shape as [`DropPlanner::plan`] — repeatedly merge the
/// two smallest groups — but **layer-granular**: each merge event takes
/// only the layers still needed, so the final merge of a plan carries a
/// partial [`DonorMerge::drop_layers`] range (the smallest top slice
/// covering its share) instead of de-duplicating a whole copy. A merge of
/// `c` constituent copies with range `R` frees `(c − 1) × |R|` layers, so
/// the per-merge range is `⌈taken / (c − 1)⌉` — for the dominant pairwise
/// case the freed layers equal the taken layers exactly.
fn plan_donor_merges(
    groups: &[PlanGroup],
    donated_layers: u64,
    num_layers: u32,
) -> Vec<DonorMerge> {
    // Heap entries: (instances, insertion order, constituent ids, layers
    // taken from this set so far).
    type Entry = (u32, u64, Vec<GroupId>, u64);
    let mut heap: BinaryHeap<Reverse<Entry>> = BinaryHeap::new();
    for (i, g) in groups.iter().enumerate() {
        heap.push(Reverse((g.instances, i as u64, vec![g.id], 0)));
    }
    let mut next_seq = groups.len() as u64;
    let mut remaining = donated_layers;
    while remaining > 0 && heap.len() >= 2 {
        let Reverse((s0, _, ids0, t0)) = heap.pop().expect("len >= 2");
        let Reverse((s1, _, ids1, t1)) = heap.pop().expect("len >= 2");
        let mut merged = ids0;
        merged.extend(ids1);
        // De-duplication capacity of the merged set, minus what earlier
        // rounds already took from its constituents.
        let capacity = ((merged.len() as u64 - 1) * num_layers as u64).saturating_sub(t0 + t1);
        let take = remaining.min(capacity);
        remaining -= take;
        heap.push(Reverse((s0 + s1, next_seq, merged, t0 + t1 + take)));
        next_seq += 1;
    }
    let mut merges: Vec<DonorMerge> = heap
        .into_iter()
        .filter_map(|Reverse((_, _, ids, taken))| {
            if ids.len() < 2 || taken == 0 {
                return None;
            }
            let copies = ids.len() as u64 - 1;
            let range_len = taken.div_ceil(copies).min(num_layers as u64) as u32;
            Some(DonorMerge {
                groups: ids,
                drop_layers: top_range(num_layers, range_len),
                freed_layers: copies * range_len as u64,
            })
        })
        .collect();
    // Deterministic output order: by smallest constituent id.
    merges.sort_by_key(|m| m.groups.iter().copied().min());
    merges
}

#[cfg(test)]
mod tests {
    use super::*;

    fn groups(sizes: &[u32]) -> Vec<PlanGroup> {
        sizes
            .iter()
            .enumerate()
            .map(|(i, &s)| PlanGroup {
                id: GroupId(i),
                instances: s,
            })
            .collect()
    }

    const COPY: u64 = 100;

    #[test]
    fn zero_requirement_drops_nothing() {
        let plan = DropPlanner::new(COPY).plan(&groups(&[1, 1, 1, 1]), 0);
        assert!(plan.merges.is_empty());
        assert_eq!(plan.freed_bytes, 0);
        assert!(plan.satisfies);
    }

    #[test]
    fn one_copy_requirement_merges_one_pair() {
        let plan = DropPlanner::new(COPY).plan(&groups(&[1, 1, 1, 1]), 1);
        assert_eq!(plan.merges.len(), 1);
        assert_eq!(plan.merges[0].len(), 2);
        assert_eq!(plan.freed_bytes, COPY);
        assert!(plan.satisfies);
    }

    #[test]
    fn larger_requirement_merges_more_pairs() {
        // Needing 2 copies from 4 singleton groups: merge two pairs (the
        // greedy pops two smallest each round; after the first merge the
        // pair has size 2, so the next round merges the remaining two 1s).
        let plan = DropPlanner::new(COPY).plan(&groups(&[1, 1, 1, 1]), 2 * COPY);
        assert_eq!(plan.freed_bytes, 2 * COPY);
        assert!(plan.satisfies);
        assert_eq!(plan.merges.len(), 2, "two pairs beat one deep chain");
        assert!(plan.merges.iter().all(|m| m.len() == 2));
    }

    #[test]
    fn paper_example_smallest_groups_merge_first() {
        // §4.1: "if there are three groups with sizes of 1, 2, and 3, we
        // will select the two groups with sizes of 1 and 2".
        let plan = DropPlanner::new(COPY).plan(&groups(&[3, 1, 2]), 1);
        assert_eq!(plan.merges.len(), 1);
        let merged = &plan.merges[0];
        assert_eq!(merged.len(), 2);
        assert!(merged.contains(&GroupId(1)) && merged.contains(&GroupId(2)));
    }

    #[test]
    fn exhausting_all_groups_reports_unsatisfied() {
        // 4 groups can free at most 3 copies.
        let plan = DropPlanner::new(COPY).plan(&groups(&[1, 1, 1, 1]), 10 * COPY);
        assert_eq!(plan.freed_bytes, 3 * COPY);
        assert!(!plan.satisfies, "must signal the fallback path");
        assert_eq!(plan.merges.len(), 1);
        assert_eq!(plan.merges[0].len(), 4, "everything merged into one group");
    }

    #[test]
    fn single_group_cannot_drop() {
        let plan = DropPlanner::new(COPY).plan(&groups(&[4]), 1);
        assert!(plan.merges.is_empty());
        assert_eq!(plan.freed_bytes, 0);
        assert!(!plan.satisfies);
    }

    #[test]
    fn plan_is_deterministic() {
        let gs = groups(&[2, 1, 1, 2, 1, 1]);
        let a = DropPlanner::new(COPY).plan(&gs, 3 * COPY);
        let b = DropPlanner::new(COPY).plan(&gs, 3 * COPY);
        assert_eq!(a, b);
    }

    fn demand(
        model: u32,
        required: u64,
        weight: f64,
        n_groups: usize,
        base_id: usize,
    ) -> ModelDemand {
        ModelDemand {
            model: ModelId(model),
            required_bytes: required,
            copy_bytes: COPY,
            slo_weight: weight,
            groups: (0..n_groups)
                .map(|i| PlanGroup {
                    id: GroupId(base_id + i),
                    instances: 1,
                })
                .collect(),
        }
    }

    #[test]
    fn unbounded_allowance_plans_each_model_independently() {
        let demands = [demand(0, 2 * COPY, 1.0, 4, 0), demand(1, COPY, 1.0, 4, 4)];
        let plans = arbitrate_with_donation(&demands, &[], None, Arbitration::Proportional).plans;
        assert_eq!(plans.len(), 2);
        assert_eq!(plans[0].granted_bytes, 2 * COPY);
        assert_eq!(plans[0].plan.freed_bytes, 2 * COPY);
        assert_eq!(plans[1].plan.freed_bytes, COPY);
        // Plans stay within each model's own groups.
        for p in &plans {
            for m in &p.plan.merges {
                for g in m {
                    let lo = if p.model == ModelId(0) { 0 } else { 4 };
                    assert!((lo..lo + 4).contains(&g.0), "cross-model merge");
                }
            }
        }
    }

    #[test]
    fn bounded_allowance_splits_proportionally() {
        // Both models want 2 copies; allowance covers only 2 total.
        let demands = [
            demand(0, 2 * COPY, 1.0, 4, 0),
            demand(1, 2 * COPY, 1.0, 4, 4),
        ];
        let plans =
            arbitrate_with_donation(&demands, &[], Some(2 * COPY), Arbitration::Proportional).plans;
        // Equal weights: one copy each (grants quantize up inside the
        // planner, so each frees exactly one copy).
        assert_eq!(plans[0].plan.freed_bytes, COPY);
        assert_eq!(plans[1].plan.freed_bytes, COPY);
    }

    #[test]
    fn slo_weighting_gives_the_heavier_model_the_allowance() {
        // One copy of allowance, model 1 is 4x as latency-critical.
        let demands = [
            demand(0, 2 * COPY, 1.0, 4, 0),
            demand(1, 2 * COPY, 4.0, 4, 4),
        ];
        let plans =
            arbitrate_with_donation(&demands, &[], Some(COPY), Arbitration::SloWeighted).plans;
        let by_model: Vec<u64> = plans.iter().map(|p| p.granted_bytes).collect();
        assert!(
            by_model[1] > by_model[0],
            "SLO-heavy model must win the round: {by_model:?}"
        );
        assert_eq!(plans[1].plan.freed_bytes, COPY);
        // The loser gets nothing — a sub-copy sliver must not round up to
        // a full copy and bust the allowance.
        assert_eq!(plans[0].granted_bytes, 0);
        assert!(plans[0].plan.merges.is_empty());
    }

    #[test]
    fn allowance_is_a_hard_bound_on_total_freed_bytes() {
        // Whatever the weights and needs, Σ freed never exceeds the
        // allowance (grants are exact copy multiples).
        for allowance in [0, COPY / 2, COPY, 2 * COPY + 1, 3 * COPY] {
            let demands = [
                demand(0, 5 * COPY, 1.0, 4, 0),
                demand(1, 5 * COPY, 3.0, 4, 4),
            ];
            for arb in [Arbitration::Proportional, Arbitration::SloWeighted] {
                let plans = arbitrate_with_donation(&demands, &[], Some(allowance), arb).plans;
                let freed: u64 = plans.iter().map(|p| p.plan.freed_bytes).sum();
                assert!(
                    freed <= allowance,
                    "{arb:?} allowance {allowance}: freed {freed}"
                );
                for p in &plans {
                    assert_eq!(p.granted_bytes % COPY, 0, "grants are copy multiples");
                    assert_eq!(p.plan.freed_bytes, p.granted_bytes);
                }
            }
        }
    }

    #[test]
    fn grants_cap_at_what_a_model_can_free() {
        // Model 0 wants 10 copies but has only 2 groups (1 copy freeable);
        // the leftover goes to model 1.
        let demands = [
            demand(0, 10 * COPY, 1.0, 2, 0),
            demand(1, 3 * COPY, 1.0, 4, 2),
        ];
        let plans =
            arbitrate_with_donation(&demands, &[], Some(4 * COPY), Arbitration::Proportional).plans;
        assert_eq!(plans[0].granted_bytes, COPY);
        assert_eq!(plans[0].plan.freed_bytes, COPY);
        assert_eq!(plans[1].granted_bytes, 3 * COPY);
        assert_eq!(plans[1].plan.freed_bytes, 3 * COPY);
    }

    /// A 10-layer lender copy at 10 B/layer, so `COPY = 100` still holds.
    const LAYER: u64 = COPY / 10;
    const LAYERS_PER_COPY: u32 = 10;

    fn offer(model: u32, weight: f64, n_groups: usize, base_id: usize) -> LenderOffer {
        LenderOffer {
            model: ModelId(model),
            layer_bytes: LAYER,
            num_layers: LAYERS_PER_COPY,
            grant_quantum_layers: 1,
            slo_weight: weight,
            groups: (0..n_groups)
                .map(|i| PlanGroup {
                    id: GroupId(base_id + i),
                    instances: 1,
                })
                .collect(),
        }
    }

    fn donated_bytes(dp: &DonorPlan) -> u64 {
        dp.grants.iter().map(|g| g.bytes).sum()
    }

    #[test]
    fn starved_model_with_no_own_copies_receives_donations() {
        // The borrower is fully merged (a single group): its own plan can
        // free nothing, so donor layers must cover the requirement.
        let demands = [demand(0, 2 * COPY, 1.0, 1, 0)];
        let offers = [offer(1, 1.0, 4, 1)];
        let out = arbitrate_with_donation(&demands, &offers, None, Arbitration::SloWeighted);
        assert_eq!(out.plans[0].granted_bytes, 0);
        assert!(out.plans[0].plan.merges.is_empty());
        assert_eq!(out.donor_plans.len(), 1);
        let dp = &out.donor_plans[0];
        assert_eq!(dp.model, ModelId(1));
        assert_eq!(dp.freed_layers() * LAYER, 2 * COPY);
        assert_eq!(
            dp.grants,
            vec![DonationGrant {
                lender: ModelId(1),
                borrower: ModelId(0),
                layers: 2 * LAYERS_PER_COPY as u64,
                bytes: 2 * COPY,
            }]
        );
        // Donor merges stay within the donor's own groups.
        for m in &dp.merges {
            for g in &m.groups {
                assert!((1..5).contains(&g.0), "donor merge uses foreign group");
            }
        }
    }

    #[test]
    fn donation_respects_the_shared_allowance() {
        // Own copies and donated layers draw on ONE allowance.
        let demands = [demand(0, 4 * COPY, 1.0, 2, 0)]; // own freeable: 1 copy
        let offers = [offer(1, 1.0, 4, 2)];
        let out =
            arbitrate_with_donation(&demands, &offers, Some(2 * COPY), Arbitration::SloWeighted);
        let own: u64 = out.plans.iter().map(|p| p.plan.freed_bytes).sum();
        let donated: u64 = out.donor_plans.iter().map(donated_bytes).sum();
        assert_eq!(own, COPY);
        assert_eq!(donated, COPY, "only one donated copy's worth fits");
        assert!(own + donated <= 2 * COPY);
    }

    #[test]
    fn grants_are_layer_granular_not_whole_copy() {
        // Deficit of 2.5 layers: the grant is 3 layers (the smallest range
        // covering the need — one layer of quantization, not one copy).
        let deficit = 2 * LAYER + LAYER / 2;
        let demands = [demand(0, deficit, 1.0, 1, 0)];
        let offers = [offer(1, 1.0, 4, 1)];
        let out = arbitrate_with_donation(&demands, &offers, None, Arbitration::SloWeighted);
        let dp = &out.donor_plans[0];
        assert_eq!(dp.grants.len(), 1);
        assert_eq!(dp.grants[0].layers, 3);
        assert_eq!(dp.grants[0].bytes, 3 * LAYER);
        assert!(dp.grants[0].bytes < COPY, "must lend less than a copy");
        assert!(
            dp.grants[0].bytes - deficit < LAYER,
            "overshoot bounded by one layer"
        );
        // The single pair merge carries the matching partial top range.
        assert_eq!(dp.merges.len(), 1);
        let m = &dp.merges[0];
        assert_eq!(m.groups.len(), 2);
        assert_eq!(
            m.drop_layers,
            LayerRange::new(LAYERS_PER_COPY - 3, LAYERS_PER_COPY)
        );
        assert_eq!(m.freed_layers, 3);
    }

    #[test]
    fn whole_copy_quantum_reproduces_the_baseline() {
        // The ablation baseline: the same 2.5-layer deficit costs a whole
        // copy when the offer quantizes to copies.
        let deficit = 2 * LAYER + LAYER / 2;
        let demands = [demand(0, deficit, 1.0, 1, 0)];
        let offers = [offer(1, 1.0, 4, 1).whole_copies()];
        let out = arbitrate_with_donation(&demands, &offers, None, Arbitration::SloWeighted);
        let dp = &out.donor_plans[0];
        assert_eq!(dp.grants[0].layers, LAYERS_PER_COPY as u64);
        assert_eq!(dp.grants[0].bytes, COPY);
        assert_eq!(dp.merges.len(), 1);
        assert_eq!(
            dp.merges[0].drop_layers,
            LayerRange::new(0, LAYERS_PER_COPY),
            "whole-copy merges de-duplicate every layer"
        );
    }

    #[test]
    fn layer_granular_never_donates_more_than_whole_copy() {
        // Strict dominance over a sweep of deficits: the layer-granular
        // grant total is never above the whole-copy baseline's, and is
        // strictly below whenever the deficit is not a copy multiple.
        for deficit in [1, LAYER, COPY / 2, COPY, COPY + 1, 3 * COPY - LAYER] {
            let demands = [demand(0, deficit, 1.0, 1, 0)];
            let fine = arbitrate_with_donation(
                &demands,
                &[offer(1, 1.0, 5, 1)],
                None,
                Arbitration::SloWeighted,
            );
            let coarse = arbitrate_with_donation(
                &demands,
                &[offer(1, 1.0, 5, 1).whole_copies()],
                None,
                Arbitration::SloWeighted,
            );
            let fine_b: u64 = fine.donor_plans.iter().map(donated_bytes).sum();
            let coarse_b: u64 = coarse.donor_plans.iter().map(donated_bytes).sum();
            assert!(
                fine_b >= deficit.min(4 * COPY),
                "deficit {deficit} uncovered"
            );
            assert!(
                fine_b <= coarse_b,
                "deficit {deficit}: layer-granular {fine_b} above whole-copy {coarse_b}"
            );
            if deficit % COPY != 0 && deficit < 4 * COPY {
                assert!(
                    fine_b < coarse_b,
                    "deficit {deficit}: partial grant must beat a whole copy"
                );
            }
        }
    }

    #[test]
    fn deep_donor_merges_cover_multi_copy_grants() {
        // A 2.2-copy deficit from a 4-group lender: the planner chains
        // merges, and total freed layers cover the grant with bounded
        // slack.
        let deficit = 2 * COPY + 2 * LAYER;
        let demands = [demand(0, deficit, 1.0, 1, 0)];
        let offers = [offer(1, 1.0, 4, 1)];
        let out = arbitrate_with_donation(&demands, &offers, None, Arbitration::SloWeighted);
        let dp = &out.donor_plans[0];
        assert_eq!(dp.grants[0].layers, 22);
        let freed = dp.freed_layers();
        assert!(freed >= 22, "merges must cover the grant: {freed}");
        assert!(
            freed * LAYER <= dp.grants[0].bytes + 2 * COPY,
            "slack stays bounded: {freed} layers for a 22-layer grant"
        );
    }

    #[test]
    fn least_critical_lender_donates_first_under_slo_weighting() {
        let demands = [demand(0, COPY, 5.0, 1, 0)];
        let offers = [offer(1, 4.0, 3, 1), offer(2, 0.5, 3, 4)];
        let out = arbitrate_with_donation(&demands, &offers, None, Arbitration::SloWeighted);
        assert_eq!(out.donor_plans.len(), 1);
        assert_eq!(
            out.donor_plans[0].model,
            ModelId(2),
            "the cheap model lends before the latency-critical one"
        );
    }

    #[test]
    fn donor_keeps_one_serving_group() {
        // A lender with 3 groups can donate at most 2 copies' worth of
        // layers no matter the residual demand.
        let demands = [demand(0, 10 * COPY, 1.0, 1, 0)];
        let offers = [offer(1, 1.0, 3, 1)];
        let out = arbitrate_with_donation(&demands, &offers, None, Arbitration::Proportional);
        assert_eq!(out.donor_plans[0].freed_layers() * LAYER, 2 * COPY);
        assert_eq!(out.donor_plans[0].grants[0].bytes, 2 * COPY);
    }

    #[test]
    fn donation_outcome_is_deterministic() {
        let demands = [
            demand(0, 3 * COPY, 2.0, 1, 0),
            demand(1, 2 * COPY, 1.0, 1, 1),
        ];
        let offers = [offer(2, 1.0, 4, 2), offer(3, 0.9, 4, 6)];
        let run = || {
            let out = arbitrate_with_donation(
                &demands,
                &offers,
                Some(4 * COPY),
                Arbitration::SloWeighted,
            );
            format!("{:?}|{:?}", out.plans, out.donor_plans)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn arbitration_is_deterministic() {
        let demands = [
            demand(0, 3 * COPY, 2.0, 5, 0),
            demand(1, 2 * COPY, 1.0, 3, 5),
            demand(2, 4 * COPY, 3.0, 6, 8),
        ];
        let run = || {
            arbitrate_with_donation(&demands, &[], Some(5 * COPY), Arbitration::SloWeighted)
                .plans
                .into_iter()
                .map(|p| (p.model, p.granted_bytes, p.plan))
                .collect::<Vec<_>>()
        };
        assert_eq!(format!("{:?}", run()), format!("{:?}", run()));
    }

    #[test]
    #[expect(
        clippy::disallowed_types,
        reason = "a wall-clock complexity bound on the test itself, not simulated time"
    )]
    fn scales_to_large_clusters_quickly() {
        // O(N log N) claim: 10k groups plan in well under a second.
        let gs = groups(&vec![1u32; 10_000]);
        let t0 = std::time::Instant::now();
        let plan = DropPlanner::new(COPY).plan(&gs, 5_000 * COPY);
        assert!(plan.satisfies);
        assert!(
            t0.elapsed().as_millis() < 1_000,
            "planning took {:?}",
            t0.elapsed()
        );
    }
}
