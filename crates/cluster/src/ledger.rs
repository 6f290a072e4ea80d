//! The per-device elastic HBM ledger.
//!
//! GPU memory in this system is one fungible pool per device: parameter
//! bytes, the KVCache pool (base + remapped-parameter growth), bytes
//! donated to another model, and the activation reserve. This module is
//! the **single accounting authority** over that pool: [`MemoryLedger`]
//! snapshots every device's balance sheet from the live cluster state, and
//! [`MemoryLedger::check_invariants`] verifies the paper's safety
//! conditions in one place — reused by the integration tests, the property
//! tests and the engine's `debug_assert!`s, instead of the scattered
//! per-test HBM assertions it replaced.
//!
//! Invariants checked, per device:
//!
//! 1. `params + kv_used + donated_out + reserve ≤ hbm` — logical
//!    allocations never exceed physical memory. Donated-out bytes are
//!    charged **to the lender** in full (the borrower's blocks physically
//!    live there), while the borrower's usage is clamped to its native
//!    capacity — so borrowed bytes are counted exactly once, on the device
//!    that hosts them.
//! 2. `donated_out ≤ kv_pool` and `kv_used ≤ kv_pool − donated_out` — a
//!    device can neither lend nor use KV it does not map.
//! 3. **Layer-byte granularity:** the KV tail growth is exactly
//!    `dropped_layers × layer_stride` (drops and restores move whole
//!    page-aligned layers), and `donated_out ≤ tail growth` — loans are
//!    backed by dropped-parameter layer bytes, never by the base pool.
//! 4. A fully-restored device (`dropped_layers == 0`) has no outstanding
//!    donations: the tail being restored *is* the lent memory, so borrowed
//!    KV must be fully returned — per lent layer range — before the
//!    donor's parameter restore completes.
//!
//! And cluster-wide: `Σ(params + kv_used + donated_out) ≤ Σ hbm`, plus the
//! per-**loan** donation cross-audit (borrowed extents vs. records).

use kvcache::Loan;
use workload::ModelId;

use crate::group::GroupId;
use crate::instance::InstanceId;
use crate::state::ClusterState;

/// One device's HBM balance sheet at a point in simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LedgerEntry {
    /// The device (instance).
    pub instance: InstanceId,
    /// The model the instance serves.
    pub model: ModelId,
    /// Physical HBM capacity in bytes.
    pub hbm_bytes: u64,
    /// Resident parameter bytes.
    pub param_bytes: u64,
    /// Mapped KVCache pool bytes (base + remapped tail).
    pub kv_pool_bytes: u64,
    /// Bytes of dropped-parameter memory remapped into the pool (the tail
    /// growth; `kv_pool_bytes − tail` is the base pool).
    pub remap_tail_bytes: u64,
    /// Layers currently dropped on the device.
    pub dropped_layers: u32,
    /// Page-aligned parameter bytes of one layer — the tail's quantum.
    pub layer_stride_bytes: u64,
    /// Pool bytes lent to another model's KV pool.
    pub donated_out_bytes: u64,
    /// This device's share of its group's *allocated* KV bytes, clamped to
    /// the group's native (non-borrowed) capacity — usage spilling into
    /// borrowed extents is charged to the lender instead.
    pub kv_used_bytes: u64,
    /// Activation/workspace reserve bytes.
    pub reserve_bytes: u64,
    /// Whether every layer is resident (no drop outstanding).
    pub fully_resident: bool,
}

impl LedgerEntry {
    /// Checks this device's invariants, appending one message per
    /// violation to `out` (prefixed with `ctx`, e.g. a timestamp).
    pub fn check(&self, ctx: &str, out: &mut Vec<String>) {
        let LedgerEntry {
            instance,
            hbm_bytes,
            param_bytes,
            kv_pool_bytes,
            remap_tail_bytes,
            dropped_layers,
            layer_stride_bytes,
            donated_out_bytes,
            kv_used_bytes,
            reserve_bytes,
            fully_resident,
            ..
        } = *self;
        if param_bytes + kv_used_bytes + donated_out_bytes + reserve_bytes > hbm_bytes {
            out.push(format!(
                "{ctx}: {instance} over capacity: params {param_bytes} + kv {kv_used_bytes} \
                 + donated {donated_out_bytes} + reserve {reserve_bytes} > hbm {hbm_bytes}"
            ));
        }
        if donated_out_bytes > kv_pool_bytes {
            out.push(format!(
                "{ctx}: {instance} lends {donated_out_bytes} of a {kv_pool_bytes}-byte pool"
            ));
        }
        if kv_used_bytes > kv_pool_bytes - donated_out_bytes.min(kv_pool_bytes) {
            out.push(format!(
                "{ctx}: {instance} uses {kv_used_bytes} of {usable} usable pool bytes",
                usable = kv_pool_bytes - donated_out_bytes.min(kv_pool_bytes)
            ));
        }
        // Layer-byte granularity: the tail is whole dropped layers, and
        // every lent byte is tail (dropped-parameter) memory.
        if remap_tail_bytes != dropped_layers as u64 * layer_stride_bytes {
            out.push(format!(
                "{ctx}: {instance} tail {remap_tail_bytes} B is not {dropped_layers} layers \
                 x {layer_stride_bytes} B — drops/restores must move whole layers"
            ));
        }
        if donated_out_bytes > remap_tail_bytes {
            out.push(format!(
                "{ctx}: {instance} lends {donated_out_bytes} B but only \
                 {remap_tail_bytes} B of dropped-layer tail backs it"
            ));
        }
        if fully_resident && donated_out_bytes > 0 {
            out.push(format!(
                "{ctx}: {instance} fully restored with {donated_out_bytes} donated bytes \
                 outstanding (reclaim must precede restore)"
            ));
        }
    }
}

/// A cluster-wide snapshot of every device's [`LedgerEntry`], plus the
/// donation cross-audit: every borrowed extent — **per loan**, i.e. per
/// `(lender, layer range)` — must be backed by matching donation records
/// (and vice versa), or capacity exists that no physical memory backs.
#[derive(Debug, Clone)]
pub struct MemoryLedger {
    /// One entry per instance, in instance order.
    pub entries: Vec<LedgerEntry>,
    /// Per live group and loan: `(group, loan, blocks in the Borrowed
    /// extent, blocks the donation ledger records)`. Only pairs where
    /// either side is non-zero appear.
    pub borrows: Vec<(GroupId, Loan, u32, u32)>,
    /// Total bytes lender instances report lent out.
    pub donated_instance_bytes: u64,
    /// Total bytes the donation records account for.
    pub donated_record_bytes: u64,
    /// Donation records whose lender or borrower group slot is dead:
    /// `(lender group, borrower group, bytes)`. Failure handling settles
    /// (reclaims or returns) every loan touching a dying group, and a
    /// rejoined lender comes back as a *new* fully-resident group — so a
    /// record still pointing at a dead slot is a resurrected loan nobody's
    /// HBM backs.
    pub dead_group_records: Vec<(GroupId, GroupId, u64)>,
}

impl MemoryLedger {
    /// Snapshots the ledger from the live cluster state.
    pub fn snapshot(state: &ClusterState) -> Self {
        let entries = state
            .instances
            .iter()
            .map(|inst| {
                let model = state.cfg.model_cfg(inst.model);
                let kv_used_bytes = if state.group_alive(inst.group) {
                    let g = state.group(inst.group);
                    let native_cap_tokens =
                        g.blocks.native_capacity_blocks() as u64 * g.blocks.block_tokens() as u64;
                    let native_used = g.blocks.used_tokens().min(native_cap_tokens);
                    // KV distribution follows the execution partition, not
                    // parameter residency — a partially-merged member may
                    // hold spare replica layers it does not execute.
                    let frac = g
                        .members
                        .iter()
                        .position(|&m| m == inst.id)
                        .map(|i| g.stage_fracs[i])
                        .expect("instance is a member of its group");
                    (native_used as f64 * model.kv_bytes_per_token() as f64 * frac) as u64
                } else {
                    0
                };
                LedgerEntry {
                    instance: inst.id,
                    model: inst.model,
                    hbm_bytes: inst.hbm_bytes(),
                    param_bytes: inst.param_resident_bytes(),
                    kv_pool_bytes: inst.kv_pool_bytes(),
                    remap_tail_bytes: inst.tail_growth_bytes(),
                    dropped_layers: inst.dropped_layers(),
                    layer_stride_bytes: inst.layer_stride_bytes(),
                    donated_out_bytes: inst.donated_out_bytes(),
                    kv_used_bytes,
                    reserve_bytes: state.cfg.reserve_bytes_for(model),
                    fully_resident: inst.dropped_layers() == 0,
                }
            })
            .collect();
        let mut borrows: Vec<(GroupId, Loan, u32, u32)> = Vec::new();
        for g in state.alive_group_ids() {
            let mut loans: Vec<Loan> = state.group(g).blocks.loans();
            loans.extend(
                state
                    .donations
                    .iter()
                    .filter(|d| d.borrower_group == g)
                    .map(|d| d.loan),
            );
            loans.sort_unstable();
            loans.dedup();
            for loan in loans {
                let extent = state
                    .group(g)
                    .blocks
                    .extent_blocks(kvcache::ExtentTag::Borrowed(loan));
                let recorded: u32 = state
                    .donations
                    .iter()
                    .filter(|d| d.borrower_group == g && d.loan == loan)
                    .map(|d| d.blocks)
                    .sum();
                if extent > 0 || recorded > 0 {
                    borrows.push((g, loan, extent, recorded));
                }
            }
        }
        let dead_group_records = state
            .donations
            .iter()
            .filter(|d| !state.group_alive(d.lender_group) || !state.group_alive(d.borrower_group))
            .map(|d| (d.lender_group, d.borrower_group, d.bytes))
            .collect();
        MemoryLedger {
            entries,
            borrows,
            donated_instance_bytes: state.instances.iter().map(|i| i.donated_out_bytes()).sum(),
            donated_record_bytes: state.donations.iter().map(|d| d.bytes).sum(),
            dead_group_records,
        }
    }

    /// Checks every per-device invariant plus the cluster-wide sum,
    /// returning one message per violation (empty = all invariants hold).
    /// `ctx` prefixes each message (callers pass the simulated time).
    pub fn check_invariants(&self, ctx: &str) -> Vec<String> {
        let mut out = Vec::new();
        let mut total_used = 0u64;
        let mut total_hbm = 0u64;
        for e in &self.entries {
            e.check(ctx, &mut out);
            total_used += e.param_bytes + e.kv_used_bytes + e.donated_out_bytes;
            total_hbm += e.hbm_bytes;
        }
        if total_used > total_hbm {
            out.push(format!(
                "{ctx}: cluster params+kv {total_used} exceed total HBM {total_hbm}"
            ));
        }
        // Donation cross-audit, per loan: a borrowed extent no record backs
        // is capacity without physical memory; a record no extent matches
        // is lent memory nobody can use.
        for &(g, loan, extent, recorded) in &self.borrows {
            if extent != recorded {
                out.push(format!(
                    "{ctx}: group {g} holds {extent} blocks borrowed from model {l} \
                     layers [{s},{e}) but the donation ledger records {recorded}",
                    g = g.0,
                    l = loan.lender,
                    s = loan.layer_start,
                    e = loan.layer_end
                ));
            }
        }
        if self.donated_instance_bytes != self.donated_record_bytes {
            out.push(format!(
                "{ctx}: instances report {ib} donated bytes, records account for {rb}",
                ib = self.donated_instance_bytes,
                rb = self.donated_record_bytes
            ));
        }
        // Loans must bind two *live* groups. Failure handling settles every
        // loan touching a dying group, and a rejoined lender restarts as a
        // fresh group — a record naming a dead slot is a settled loan
        // someone resurrected.
        for &(lender, borrower, bytes) in &self.dead_group_records {
            out.push(format!(
                "{ctx}: donation record ({bytes} B, lender group {l}, borrower group {b}) \
                 references a dead group — settled loans must not be resurrected",
                l = lender.0,
                b = borrower.0
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterConfig;

    fn entry() -> LedgerEntry {
        LedgerEntry {
            instance: InstanceId(0),
            model: ModelId::PRIMARY,
            hbm_bytes: 1000,
            param_bytes: 400,
            kv_pool_bytes: 500,
            remap_tail_bytes: 0,
            dropped_layers: 0,
            layer_stride_bytes: 50,
            donated_out_bytes: 0,
            kv_used_bytes: 300,
            reserve_bytes: 100,
            fully_resident: true,
        }
    }

    #[test]
    fn balanced_entry_passes() {
        let mut out = Vec::new();
        entry().check("t", &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn over_capacity_and_over_lending_flagged() {
        let mut e = entry();
        e.kv_used_bytes = 501; // exceeds the usable pool
        let mut out = Vec::new();
        e.check("t", &mut out);
        assert_eq!(out.len(), 2, "{out:?}"); // over capacity + over usable

        let mut e = entry();
        e.fully_resident = false;
        e.dropped_layers = 4;
        e.remap_tail_bytes = 200;
        e.param_bytes = 200;
        e.donated_out_bytes = 600; // more than the pool maps
        let mut out = Vec::new();
        e.check("t", &mut out);
        assert!(out.iter().any(|m| m.contains("lends")), "{out:?}");
    }

    #[test]
    fn layer_byte_granularity_flagged() {
        // Tail growth that is not a whole number of layers.
        let mut e = entry();
        e.fully_resident = false;
        e.dropped_layers = 2;
        e.remap_tail_bytes = 120; // 2 layers would be 100
        let mut out = Vec::new();
        e.check("t", &mut out);
        assert!(out.iter().any(|m| m.contains("whole layers")), "{out:?}");

        // A loan larger than the dropped-layer tail backing it.
        let mut e = entry();
        e.fully_resident = false;
        e.dropped_layers = 2;
        e.remap_tail_bytes = 100;
        e.donated_out_bytes = 150;
        e.kv_used_bytes = 0;
        let mut out = Vec::new();
        e.check("t", &mut out);
        assert!(
            out.iter().any(|m| m.contains("dropped-layer tail")),
            "{out:?}"
        );
    }

    #[test]
    fn restore_ordering_violation_flagged() {
        let mut e = entry();
        e.remap_tail_bytes = 100;
        e.dropped_layers = 2;
        e.donated_out_bytes = 64;
        e.kv_used_bytes = 0;
        e.fully_resident = true; // inconsistent on purpose
        let mut out = Vec::new();
        e.check("t", &mut out);
        assert!(
            out.iter()
                .any(|m| m.contains("reclaim must precede restore")),
            "{out:?}"
        );
    }

    #[test]
    fn snapshot_of_a_fresh_cluster_is_clean() {
        let state = ClusterState::new(ClusterConfig::tiny_two_model(2, 2));
        let ledger = MemoryLedger::snapshot(&state);
        assert_eq!(ledger.entries.len(), 4);
        let violations = ledger.check_invariants("t0");
        assert!(violations.is_empty(), "{violations:?}");
        // Construction maps nearly all HBM: params + pool per device.
        for e in &ledger.entries {
            assert!(e.param_bytes + e.kv_pool_bytes <= e.hbm_bytes);
            assert!(
                (e.param_bytes + e.kv_pool_bytes) as f64 >= e.hbm_bytes as f64 * 0.85,
                "device underutilized: {e:?}"
            );
            assert_eq!(e.remap_tail_bytes, 0, "no drop at construction");
        }
    }
}
