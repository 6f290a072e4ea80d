//! One serving instance: a (possibly multi-GPU) logical device holding a
//! parameter layout and a KVCache region.
//!
//! The layout follows the paper's local memory manager (§4.1): the
//! embedding and one page-aligned stride per transformer layer, next to a
//! KVCache region whose base pool is fixed at construction. Dropping a layer
//! remaps its physical pages onto the tail of the KVCache region, growing
//! the pool; restoring maps them home and shrinks it back. Pages are
//! interchangeable, so the instance keeps only which layers are resident:
//! every byte it reports is arithmetic over the number of dropped layers,
//! and the cluster state charges each drop or restore
//! [`simgpu::timing::remap_cost`].
//!
//! TP/EP instances are modelled as one logical device whose HBM is the sum
//! of the member GPUs — the paper (§5.2) makes the same simplification:
//! "each instance (containing multiple GPUs) can be viewed as a whole as a
//! single logical GPU".

use modelcfg::{LayerSet, ModelConfig};
use simgpu::PAGE_SIZE;
use workload::ModelId;

use crate::config::ClusterConfig;
use crate::group::GroupId;

/// Identifier of a serving instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstanceId(pub u32);

impl std::fmt::Display for InstanceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "inst{}", self.0)
    }
}

/// One serving instance.
#[derive(Debug, Clone)]
pub struct Instance {
    /// This instance's id.
    pub id: InstanceId,
    /// The model this instance serves (fixed at construction).
    pub model: ModelId,
    /// The execution group the instance currently belongs to.
    pub group: GroupId,
    /// Layers currently resident; the rest sit at the KV region's tail.
    resident: LayerSet,
    /// Layers of a full parameter copy.
    num_layers: u32,
    /// Per-layer parameter bytes (page-aligned).
    layer_bytes: u64,
    /// Embedding bytes (page-aligned), always resident.
    embed_bytes: u64,
    /// KV pool size before any drop.
    kv_base_bytes: u64,
    /// Instance HBM in whole pages.
    hbm_bytes: u64,
    /// Bytes of this device's KV region lent to another model's KV pool
    /// (cross-model donation). Always within the tail growth — donations
    /// come out of dropped-parameter memory, never the base pool.
    donated_out: u64,
}

impl Instance {
    /// Builds an instance serving `model_id` with a full parameter copy and
    /// the base KV pool.
    ///
    /// # Panics
    ///
    /// Panics (with the [`crate::config::ConfigError`] diagnostic) if the
    /// model + reserve do not fit in the configured HBM. Callers that want
    /// the typed error run [`ClusterConfig::validate`] (or
    /// [`crate::ClusterState::try_new`]) first — the cluster constructor
    /// does, so infeasible deployments fail before any device is built.
    pub fn for_model(id: InstanceId, model_id: ModelId, cfg: &ClusterConfig) -> Self {
        let model = cfg.model_cfg(model_id);
        let kv_base_bytes = cfg
            .kv_pool_bytes_for(model)
            .unwrap_or_else(|e| panic!("{e}"));
        let (embed_bytes, layer_bytes) = ClusterConfig::param_layout(model);
        Instance {
            id,
            model: model_id,
            group: GroupId(id.0 as usize),
            resident: LayerSet::full(model.num_layers),
            num_layers: model.num_layers,
            layer_bytes,
            embed_bytes,
            kv_base_bytes,
            hbm_bytes: model.instance_hbm_bytes() / PAGE_SIZE * PAGE_SIZE,
            donated_out: 0,
        }
    }

    /// Layers currently resident on this instance.
    pub fn resident_layers(&self) -> &LayerSet {
        &self.resident
    }

    /// Fraction of the model's layers resident here.
    pub fn layer_fraction(&self, model: &ModelConfig) -> f64 {
        self.resident.len() as f64 / model.num_layers as f64
    }

    /// Current KVCache pool size in bytes (the contiguous region kernels
    /// can address): the base pool plus the tail growth.
    pub fn kv_pool_bytes(&self) -> u64 {
        self.kv_base_bytes + self.tail_growth_bytes()
    }

    /// KV pool size before any drop.
    pub fn kv_base_bytes(&self) -> u64 {
        self.kv_base_bytes
    }

    /// Bytes of this device's KV region currently lent to another model.
    pub fn donated_out_bytes(&self) -> u64 {
        self.donated_out
    }

    /// KV pool bytes usable by *this* instance's own group: the mapped
    /// pool minus what is lent out.
    pub fn usable_kv_bytes(&self) -> u64 {
        self.kv_pool_bytes() - self.donated_out
    }

    /// Bytes of dropped-parameter memory currently remapped into the KV
    /// region (the tail growth): `dropped_layers × page-aligned layer
    /// bytes`.
    pub fn tail_growth_bytes(&self) -> u64 {
        self.dropped_layers() as u64 * self.layer_bytes
    }

    /// Page-aligned parameter bytes of one transformer layer on this
    /// instance — the byte quantum of layer-granular drops and loans.
    pub fn layer_stride_bytes(&self) -> u64 {
        self.layer_bytes
    }

    /// Bytes of tail growth (dropped-parameter memory remapped into the KV
    /// region) not yet lent out — the donatable headroom.
    pub fn donatable_bytes(&self) -> u64 {
        self.tail_growth_bytes().saturating_sub(self.donated_out)
    }

    /// Lends `bytes` of this device's dropped-parameter KV growth to
    /// another model.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` exceeds [`Instance::donatable_bytes`] — donation
    /// grants must come out of tail growth, never the base pool.
    pub fn donate_out(&mut self, bytes: u64) {
        assert!(
            bytes <= self.donatable_bytes(),
            "donation {bytes} B exceeds donatable tail growth {} B",
            self.donatable_bytes()
        );
        self.donated_out += bytes;
    }

    /// Takes back `bytes` previously lent with [`Instance::donate_out`].
    ///
    /// # Panics
    ///
    /// Panics if more is returned than was lent.
    pub fn reclaim_donated(&mut self, bytes: u64) {
        assert!(
            bytes <= self.donated_out,
            "reclaim {bytes} B exceeds outstanding donation {} B",
            self.donated_out
        );
        self.donated_out -= bytes;
    }

    /// Bytes of parameters currently resident.
    pub fn param_resident_bytes(&self) -> u64 {
        self.embed_bytes + self.resident.len() as u64 * self.layer_bytes
    }

    /// Number of layers currently dropped.
    pub fn dropped_layers(&self) -> u32 {
        self.num_layers - self.resident.len()
    }

    /// Drops the given layers: their parameter pages are remapped to the
    /// KV region tail, extending the usable pool.
    ///
    /// Returns the number of layers remapped (for remap timing).
    ///
    /// # Panics
    ///
    /// Panics if a requested layer is not resident — drop plans must only
    /// drop layers the instance still holds.
    pub fn drop_layers(&mut self, layers: &LayerSet) -> usize {
        assert!(
            layers.difference(&self.resident).is_empty(),
            "drop plan must target resident layers"
        );
        self.resident = self.resident.difference(layers);
        layers.len() as usize
    }

    /// Restores **all** dropped layers, shrinking the KV pool back to its
    /// base size. The caller must have shrunk the block manager first so no
    /// KV blocks live in the tail.
    ///
    /// Returns the number of layers remapped.
    ///
    /// # Panics
    ///
    /// Panics if any donated-out bytes are still outstanding: the tail
    /// being restored *is* the memory lent to the borrower, so the
    /// donation must be reclaimed (borrower shrunk) before parameters can
    /// come home — the ledger's restore-ordering invariant.
    pub fn restore_all(&mut self) -> usize {
        assert_eq!(
            self.donated_out, 0,
            "restore with {} donated-out bytes outstanding; reclaim first",
            self.donated_out
        );
        let restored = self.dropped_layers();
        self.resident = LayerSet::full(self.num_layers);
        restored as usize
    }

    /// Restores a **subset** of the dropped layers — the layer-granular
    /// reclaim path: when a loan of layer range `[s, e)` is handed back,
    /// the lender restores exactly those layers instead of waiting for a
    /// full split.
    ///
    /// Pages are interchangeable, so the restore frees the *top* of the KV
    /// tail (keeping the tail contiguous) whichever layers come home. The
    /// parameter values come from the host-DRAM replica, as in the §4.4
    /// failure path.
    ///
    /// Layers in `layers` that are not currently dropped are ignored.
    /// Returns the number of layers remapped.
    ///
    /// # Panics
    ///
    /// Panics if the restore would cut into bytes still lent out: the
    /// freed tail must always cover `donated_out` (reclaim before
    /// restore, per layer range).
    pub fn restore_layers(&mut self, layers: &LayerSet) -> usize {
        let targets = layers
            .intersection(&LayerSet::full(self.num_layers))
            .difference(&self.resident);
        if targets.is_empty() {
            return 0;
        }
        let shrink = targets.len() as u64 * self.layer_bytes;
        assert!(
            self.tail_growth_bytes() - shrink >= self.donated_out,
            "restoring {shrink} B would cut into {} donated-out bytes \
             (tail growth {}); reclaim the loan first",
            self.donated_out,
            self.tail_growth_bytes()
        );
        self.resident = self.resident.union(&targets);
        targets.len() as usize
    }

    /// Total instance HBM.
    pub fn hbm_bytes(&self) -> u64 {
        self.hbm_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use modelcfg::LayerRange;

    fn test_instance() -> (Instance, ClusterConfig) {
        let cfg = ClusterConfig::tiny_test(1);
        let inst = Instance::for_model(InstanceId(0), ModelId::PRIMARY, &cfg);
        (inst, cfg)
    }

    #[test]
    fn construction_lays_out_params_and_kv() {
        let (inst, cfg) = test_instance();
        assert_eq!(inst.resident_layers().len(), cfg.model.num_layers);
        assert_eq!(inst.layer_fraction(&cfg.model), 1.0);
        assert!(inst.kv_pool_bytes() > 0);
        // Params + KV + reserve ≈ HBM — checked through the shared ledger
        // invariant (see `crate::ledger`), not a hand-rolled assertion.
        let entry = crate::ledger::LedgerEntry {
            instance: inst.id,
            model: inst.model,
            hbm_bytes: inst.hbm_bytes(),
            param_bytes: inst.param_resident_bytes(),
            kv_pool_bytes: inst.kv_pool_bytes(),
            remap_tail_bytes: inst.tail_growth_bytes(),
            dropped_layers: inst.dropped_layers(),
            layer_stride_bytes: inst.layer_stride_bytes(),
            donated_out_bytes: inst.donated_out_bytes(),
            kv_used_bytes: 0,
            reserve_bytes: cfg.reserve_bytes(),
            fully_resident: inst.dropped_layers() == 0,
        };
        let mut violations = Vec::new();
        entry.check("construction", &mut violations);
        assert!(violations.is_empty(), "{violations:?}");
        let accounted = inst.param_resident_bytes() + inst.kv_pool_bytes();
        assert!(accounted as f64 >= inst.hbm_bytes() as f64 * 0.85);
    }

    #[test]
    fn drop_extends_kv_pool_exactly() {
        let (mut inst, cfg) = test_instance();
        let before = inst.kv_pool_bytes();
        let half = LayerSet::from_range(LayerRange::new(4, 8));
        let ops = inst.drop_layers(&half);
        assert_eq!(ops, 4);
        assert_eq!(inst.dropped_layers(), 4);
        assert_eq!(inst.resident_layers().len(), cfg.model.num_layers - 4);
        let gained = inst.kv_pool_bytes() - before;
        assert_eq!(
            gained,
            4 * simgpu::align_up_page(cfg.model.layer_param_bytes())
        );
        assert!((inst.layer_fraction(&cfg.model) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn restore_returns_to_base_layout() {
        let (mut inst, cfg) = test_instance();
        let base_kv = inst.kv_pool_bytes();
        let base_param = inst.param_resident_bytes();
        inst.drop_layers(&LayerSet::from_range(LayerRange::new(0, 4)));
        inst.drop_layers(&LayerSet::from_range(LayerRange::new(6, 8)));
        assert_eq!(inst.dropped_layers(), 6);
        let ops = inst.restore_all();
        assert_eq!(ops, 6);
        assert_eq!(inst.kv_pool_bytes(), base_kv);
        assert_eq!(inst.param_resident_bytes(), base_param);
        assert_eq!(inst.resident_layers().len(), cfg.model.num_layers);
        assert_eq!(inst.dropped_layers(), 0);
    }

    #[test]
    fn repeated_drop_deepens_the_drop() {
        // The Fig. 17 double-drop: 8 → 4 → 2 resident layers.
        let (mut inst, _cfg) = test_instance();
        inst.drop_layers(&LayerSet::from_range(LayerRange::new(4, 8)));
        let kv_after_first = inst.kv_pool_bytes();
        inst.drop_layers(&LayerSet::from_range(LayerRange::new(2, 4)));
        assert!(inst.kv_pool_bytes() > kv_after_first);
        assert_eq!(inst.resident_layers().len(), 2);
        inst.restore_all();
        assert_eq!(inst.resident_layers().len(), 8);
    }

    #[test]
    fn restore_layers_brings_back_exactly_the_range() {
        let (mut inst, cfg) = test_instance();
        let base_kv = inst.kv_pool_bytes();
        inst.drop_layers(&LayerSet::from_range(LayerRange::new(2, 8)));
        assert_eq!(inst.dropped_layers(), 6);
        let grown = inst.tail_growth_bytes();
        assert_eq!(grown, 6 * inst.layer_stride_bytes());
        // Restore the top two layers of the drop only.
        let ops = inst.restore_layers(&LayerSet::from_range(LayerRange::new(6, 8)));
        assert_eq!(ops, 2);
        assert_eq!(inst.dropped_layers(), 4);
        assert!(inst.resident_layers().contains(6) && inst.resident_layers().contains(7));
        assert!(!inst.resident_layers().contains(2));
        assert_eq!(inst.tail_growth_bytes(), 4 * inst.layer_stride_bytes());
        // Non-dropped layers in the set are ignored.
        assert_eq!(
            inst.restore_layers(&LayerSet::from_range(LayerRange::new(6, 8))),
            0
        );
        // The rest comes home through the ordinary full restore.
        assert_eq!(inst.restore_all(), 4);
        assert_eq!(inst.kv_pool_bytes(), base_kv);
        assert_eq!(inst.resident_layers().len(), cfg.model.num_layers);
    }

    #[test]
    fn restore_layers_interleaves_with_full_restore() {
        // Partial restores shuffle tail-slot bookkeeping; a later
        // restore_all must still find every mapping where the books say.
        let (mut inst, cfg) = test_instance();
        inst.drop_layers(&LayerSet::from_range(LayerRange::new(0, 4)));
        inst.drop_layers(&LayerSet::from_range(LayerRange::new(5, 8)));
        inst.restore_layers(&LayerSet::from_ranges([
            LayerRange::new(1, 2),
            LayerRange::new(6, 7),
        ]));
        assert_eq!(inst.dropped_layers(), 5);
        inst.drop_layers(&LayerSet::from_range(LayerRange::new(1, 2)));
        assert_eq!(inst.restore_all(), 6);
        assert_eq!(inst.resident_layers().len(), cfg.model.num_layers);
        assert_eq!(inst.tail_growth_bytes(), 0);
    }

    #[test]
    #[should_panic(expected = "reclaim the loan first")]
    fn restore_layers_never_cuts_into_a_loan() {
        let (mut inst, _cfg) = test_instance();
        inst.drop_layers(&LayerSet::from_range(LayerRange::new(6, 8)));
        inst.donate_out(inst.donatable_bytes());
        inst.restore_layers(&LayerSet::from_range(LayerRange::new(6, 8)));
    }

    #[test]
    #[should_panic(expected = "resident layers")]
    fn dropping_nonresident_layer_panics() {
        let (mut inst, _cfg) = test_instance();
        let set = LayerSet::from_range(LayerRange::new(0, 2));
        inst.drop_layers(&set);
        inst.drop_layers(&set); // already gone
    }

    #[test]
    fn donation_comes_out_of_tail_growth_only() {
        let (mut inst, _cfg) = test_instance();
        assert_eq!(inst.donatable_bytes(), 0, "no growth yet");
        inst.drop_layers(&LayerSet::from_range(LayerRange::new(4, 8)));
        let grown = inst.kv_pool_bytes() - inst.kv_base_bytes();
        assert_eq!(inst.donatable_bytes(), grown);
        inst.donate_out(grown / 2);
        assert_eq!(inst.donated_out_bytes(), grown / 2);
        assert_eq!(inst.usable_kv_bytes(), inst.kv_pool_bytes() - grown / 2);
        assert_eq!(inst.donatable_bytes(), grown - grown / 2);
        inst.reclaim_donated(grown / 2);
        assert_eq!(inst.donated_out_bytes(), 0);
        inst.restore_all();
        assert_eq!(inst.donatable_bytes(), 0);
    }

    #[test]
    #[should_panic(expected = "exceeds donatable")]
    fn donating_base_pool_panics() {
        let (mut inst, _cfg) = test_instance();
        inst.drop_layers(&LayerSet::from_range(LayerRange::new(6, 8)));
        inst.donate_out(inst.donatable_bytes() + 1);
    }

    #[test]
    #[should_panic(expected = "reclaim first")]
    fn restore_with_outstanding_donation_panics() {
        let (mut inst, _cfg) = test_instance();
        inst.drop_layers(&LayerSet::from_range(LayerRange::new(6, 8)));
        inst.donate_out(1);
        inst.restore_all();
    }
}
