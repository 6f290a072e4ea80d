//! Cross-model KV donation tests: the elastic-HBM ledger invariants at
//! every simulated step, the end-to-end claim that donation rescues a
//! memory-starved model another model can bail out, **layer-granular**
//! grants (lend layers, not whole copies — sized to the borrower's
//! deficit, reclaimed per layer range), and the reclaim-before-restore
//! ordering.

use bench::MultiScenario;
use cluster::{ClusterConfig, ClusterState, GroupId, ModelId};
use kunserve::serving::{Run, SystemKind};
use kunserve::{arbitrate_with_donation, Arbitration, LenderOffer, ModelDemand, PlanGroup};
use kunserve_repro::prelude::*;
use proptest::prelude::*;
use sim_core::SimTime;
use workload::Trace;

/// The CI-gated donation ablation scenario (see
/// [`MultiScenario::fig18_donation_smoke`]): the primary model (m0) has
/// spare replicas and light traffic (the lender); the chat model (m1)
/// runs on a single instance — one group, nothing of its own to drop —
/// and takes a hard decode-heavy burst (the borrower). Reusing the bench
/// scenario keeps this test and the `fig18_donation.json` gate testing
/// the same regime.
fn donation_cluster() -> ClusterConfig {
    MultiScenario::fig18_donation_smoke().cfg
}

/// The gated scenario's trace, verbatim.
fn donation_trace() -> Trace {
    MultiScenario::fig18_donation_smoke().trace()
}

/// A parameterized variant of the same shape for the property tests:
/// light steady lender traffic + a hard early borrower burst over `secs`
/// seconds, borrower requests clamped to the scenario's chat-sized
/// bounds so every request *fits* the native pool (memory binds on
/// concurrency, not on a single unadmittable prompt).
fn donation_trace_with(
    lender_rps: f64,
    borrower_rps: f64,
    mult: f64,
    seed: u64,
    secs: u64,
) -> Trace {
    let shape = MultiScenario::fig18_donation_smoke();
    let (ilo, ihi) = shape.workloads[1].input_clamp.expect("borrower clamped");
    let (olo, ohi) = shape.workloads[1].output_clamp.expect("borrower clamped");
    let lender = BurstTraceBuilder::new(Dataset::BurstGpt)
        .base_rps(lender_rps)
        .duration(SimDuration::from_secs(secs))
        .seed(seed)
        .build();
    let mut borrower = BurstTraceBuilder::new(Dataset::BurstGpt)
        .base_rps(borrower_rps)
        .duration(SimDuration::from_secs(secs))
        .burst(SimTime::from_secs(5), SimDuration::from_secs(12), mult)
        .seed(seed ^ 0x00D0_7A7E)
        .model(ModelId(1))
        .build();
    for r in &mut borrower.requests {
        r.input_tokens = r.input_tokens.clamp(ilo, ihi);
        r.output_tokens = r.output_tokens.clamp(olo, ohi);
    }
    Trace::merge(&[lender, borrower])
}

/// The full ledger invariants (HBM accounting, restore ordering, and the
/// donation cross-audit of borrowed extents vs. records), per step.
fn check_step(state: &ClusterState, now: SimTime, violations: &mut Vec<String>) {
    violations.extend(state.ledger().check_invariants(&now.to_string()));
}

#[test]
fn donation_rescues_the_starved_model_and_reclaims_cleanly() {
    let sc = MultiScenario::fig18_donation_smoke();
    let cfg = sc.cfg.clone();
    let trace = donation_trace();
    let drain = sc.drain;

    // Donation off: the borrower has no parameter-centric relief.
    let off = Run::new(
        SystemKind::KunServeWith(KunServeConfig::without_donation()),
        cfg.clone(),
        &trace,
    )
    .drain(drain)
    .execute();
    assert_eq!(off.report.donated_bytes_peak, 0, "ablation must not donate");

    // Donation on (the default), with step-level invariant checking.
    let mut violations = Vec::new();
    let on_out = Run::new(SystemKind::KunServe, cfg, &trace)
        .drain(drain)
        .execute_observed(|state, now| {
            check_step(state, now, &mut violations);
        });
    let on = on_out.report;
    assert!(violations.is_empty(), "{}", violations.join("\n"));
    assert_eq!(on.finished_requests, trace.len(), "lost requests");
    assert!(
        on.donated_bytes_peak > 0,
        "the borrower's burst must trigger a donation"
    );

    // Lifecycle: drop → grant → borrow → reclaim; after the drain the
    // ledger is settled and every lender restored.
    let state = on_out.state;
    let events: Vec<&str> = state
        .metrics
        .reconfig_events
        .iter()
        .map(|(_, w)| w.as_str())
        .collect();
    assert!(
        events.iter().any(|w| w.starts_with("donate:")),
        "expected a donate event; got {events:?}"
    );
    assert!(
        events.iter().any(|w| w.starts_with("reclaim:")),
        "expected a reclaim event; got {events:?}"
    );
    assert_eq!(state.donated_bytes_outstanding(), 0, "ledger not settled");
    for inst in &state.instances {
        assert_eq!(inst.donated_out_bytes(), 0, "{} still lending", inst.id);
        assert_eq!(inst.dropped_layers(), 0, "{} not restored", inst.id);
    }

    // The headline: the starved model's p99 TTFT strictly improves with
    // donation, and the donor stays comparable.
    let on_m1 = on.model_report(ModelId(1)).expect("borrower served");
    let off_m1 = off
        .report
        .model_report(ModelId(1))
        .expect("borrower served");
    assert!(
        on_m1.ttft.p99 < off_m1.ttft.p99,
        "donation must improve the starved model's p99: on {:.2}s vs off {:.2}s",
        on_m1.ttft.p99,
        off_m1.ttft.p99
    );
    let on_m0 = on.model_report(ModelId(0)).expect("donor served");
    assert_eq!(
        on_m0.finished_requests, on_m0.total_requests,
        "the donor must still finish everything"
    );
}

/// Parses the layer span of every `donate: ...B layers[s,e) ...` event.
fn donated_spans(events: &[(SimTime, String)]) -> Vec<u32> {
    events
        .iter()
        .filter_map(|(_, w)| {
            let rest = w.strip_prefix("donate: ")?;
            let range = rest.split("layers[").nth(1)?.split(')').next()?;
            let (s, e) = range.split_once(',')?;
            Some(e.trim().parse::<u32>().ok()? - s.trim().parse::<u32>().ok()?)
        })
        .collect()
}

#[test]
fn layer_granular_donation_donates_less_and_still_rescues() {
    // The fig18 granularity ablation as a test: for the same starved-model
    // rescue, layer-granular grants move strictly fewer bytes than the
    // whole-copy baseline (and both beat donation-off by a wide margin).
    let sc = MultiScenario::fig18_donation_smoke();
    let trace = sc.trace();
    let run = |cfg: KunServeConfig| {
        Run::new(SystemKind::KunServeWith(cfg), sc.cfg.clone(), &trace)
            .drain(sc.drain)
            .execute()
    };
    let fine = run(KunServeConfig::default());
    let coarse = run(KunServeConfig::whole_copy_donation());
    let off = run(KunServeConfig::without_donation());

    assert!(fine.report.donated_bytes_peak > 0, "donation must fire");
    // At least one grant lends a strict subset of the lender's copy, not a
    // whole replica.
    let spans = donated_spans(&fine.state.metrics.reconfig_events);
    assert!(
        spans.iter().any(|&s| s > 0 && s < sc.cfg.model.num_layers),
        "expected a partial (sub-copy) grant; spans: {spans:?}"
    );
    assert!(
        fine.report.donated_bytes_peak < coarse.report.donated_bytes_peak,
        "layer-granular peak {} must be strictly below whole-copy peak {}",
        fine.report.donated_bytes_peak,
        coarse.report.donated_bytes_peak
    );
    let p99_of = |out: &kunserve::serving::RunOutcome| {
        out.report
            .model_report(ModelId(1))
            .expect("borrower served")
            .ttft
            .p99
    };
    assert!(
        p99_of(&fine) < p99_of(&off),
        "partial grants must still rescue the starved model: {:.2}s vs {:.2}s",
        p99_of(&fine),
        p99_of(&off)
    );
}

#[test]
fn reclaimed_loan_restores_exactly_the_lent_layers() {
    // The layer-granular reclaim ordering: when a borrower hands a loan
    // back, the lender restores exactly the lent layer range right away
    // (the reclaimed bytes *are* those layers' parameter memory), and its
    // own KV capacity never shrinks in the process.
    let mut state = ClusterState::new(donation_cluster());
    let now = SimTime::ZERO;
    let m0_groups: Vec<_> = state
        .alive_groups()
        .into_iter()
        .filter(|&g| state.group(g).model == ModelId(0))
        .take(2)
        .collect();
    state.request_merge_ranged(m0_groups, vec![(ModelId(1), u64::MAX / 2)], None);
    let created = state.execute_ready_reconfigs(now);
    assert_eq!(created.len(), 1, "merge must execute");
    let lender_group = created[0];
    assert!(state.donated_bytes_outstanding() > 0, "grant must land");
    let record = &state.donations[0];
    let borrower_group = record.borrower_group;
    let loan = record.loan;
    assert!(loan.layers() > 0, "the loan must name its layer range");
    assert!(state.group_has_borrowed(borrower_group));
    let cap_before = state.group(lender_group).blocks.capacity_blocks();
    let dropped_before: u32 = state
        .group(lender_group)
        .members
        .iter()
        .map(|&m| state.instances[m.0 as usize].dropped_layers())
        .sum();

    // Nothing admitted on the borrower: the return succeeds at once.
    assert!(state.try_return_borrowed(borrower_group, now));
    assert_eq!(state.donated_bytes_outstanding(), 0);
    assert!(!state.group_has_borrowed(borrower_group));
    // Reclaim ⇒ restore: the lent layers came home immediately (the
    // members were full-range-merged, so every loaned layer was dropped
    // on some member and is restorable up to block-quantization slack).
    let dropped_after: u32 = state
        .group(lender_group)
        .members
        .iter()
        .map(|&m| state.instances[m.0 as usize].dropped_layers())
        .sum();
    assert!(
        dropped_after < dropped_before,
        "reclaim must restore lent layers: {dropped_before} -> {dropped_after} dropped"
    );
    // Whole-layer accounting: every member's surviving tail is an exact
    // number of layers and no longer backs any loan.
    for &m in &state.group(lender_group).members {
        let inst = &state.instances[m.0 as usize];
        assert_eq!(inst.donated_out_bytes(), 0);
        assert_eq!(
            inst.tail_growth_bytes(),
            inst.dropped_layers() as u64 * inst.layer_stride_bytes()
        );
    }
    // The lender's serving capacity never shrinks from a reclaim; any
    // block-quantization slack regrows the pool.
    let cap_after = state.group(lender_group).blocks.capacity_blocks();
    assert!(
        cap_after >= cap_before,
        "reclaim must not shrink the lender pool: {cap_before} -> {cap_after} blocks"
    );
    let violations = state.ledger().check_invariants("after-return");
    assert!(violations.is_empty(), "{violations:?}");
}

/// Builds a two-model cluster with an active donation from m0's first
/// two groups to m1's most-loaded group, returning
/// `(state, lender_group, borrower_group)`.
fn cluster_with_live_donation(
    cfg: ClusterConfig,
) -> (ClusterState, cluster::GroupId, cluster::GroupId) {
    let mut state = ClusterState::new(cfg);
    let m0_groups: Vec<_> = state
        .alive_groups()
        .into_iter()
        .filter(|&g| state.group(g).model == ModelId(0))
        .take(2)
        .collect();
    state.request_merge_ranged(m0_groups, vec![(ModelId(1), u64::MAX / 2)], None);
    let created = state.execute_ready_reconfigs(SimTime::ZERO);
    assert_eq!(created.len(), 1, "merge must execute");
    let lender_group = created[0];
    assert!(state.donated_bytes_outstanding() > 0, "grant must land");
    let borrower_group = state.donations[0].borrower_group;
    (state, lender_group, borrower_group)
}

#[test]
fn borrower_failure_returns_the_loan_and_restores_the_lender() {
    // Two borrower instances so the failed group's requests have a
    // fallback home (a whole-model wipeout is out of scope here).
    let mut cfg = ClusterConfig::tiny_two_model(4, 2);
    cfg.reserve_frac = 0.45;
    let (mut state, lender_group, borrower_group) = cluster_with_live_donation(cfg);
    let cap_before = state.group(lender_group).blocks.capacity_blocks();
    let dropped_before: u32 = state
        .group(lender_group)
        .members
        .iter()
        .map(|&m| state.instances[m.0 as usize].dropped_layers())
        .sum();
    let victim = state.group(borrower_group).members[0];
    state.fail_instance(victim, SimTime::ZERO);
    assert_eq!(state.donated_bytes_outstanding(), 0, "loan must settle");
    for inst in &state.instances {
        assert_eq!(inst.donated_out_bytes(), 0, "{} still lending", inst.id);
    }
    // The settled loan restores its layer range on the lender (reclaim ⇒
    // restore), and the lender's serving capacity never shrinks.
    let dropped_after: u32 = state
        .group(lender_group)
        .members
        .iter()
        .map(|&m| state.instances[m.0 as usize].dropped_layers())
        .sum();
    assert!(
        dropped_after < dropped_before,
        "settlement must restore lent layers: {dropped_before} -> {dropped_after}"
    );
    assert!(
        state.group(lender_group).blocks.capacity_blocks() >= cap_before,
        "settlement must not shrink the lender pool"
    );
    let violations = state.ledger().check_invariants("borrower-failed");
    assert!(violations.is_empty(), "{violations:?}");
}

#[test]
fn lender_failure_force_reclaims_before_the_survivor_restores() {
    let (mut state, lender_group, borrower_group) = cluster_with_live_donation(donation_cluster());
    let victim = state.group(lender_group).members[0];
    // The survivor's restore_all would panic if any donated byte were
    // still outstanding — this exercising the force-reclaim ordering.
    let new_groups = state.fail_instance(victim, SimTime::ZERO);
    assert!(!new_groups.is_empty(), "a survivor must return to service");
    assert_eq!(state.donated_bytes_outstanding(), 0, "loan must settle");
    assert!(
        !state.group_has_borrowed(borrower_group),
        "the borrower's extent must be gone"
    );
    for inst in &state.instances {
        if inst.id != victim {
            assert_eq!(inst.dropped_layers(), 0, "{} must be restored", inst.id);
        }
    }
    let violations = state.ledger().check_invariants("lender-failed");
    assert!(violations.is_empty(), "{violations:?}");
}

#[test]
fn single_model_cluster_never_donates() {
    // Donation enabled but nobody to lend to: byte-identical to the
    // ablation on a single-model cluster.
    let trace = BurstTraceBuilder::new(Dataset::BurstGpt)
        .base_rps(60.0)
        .duration(SimDuration::from_secs(20))
        .burst(SimTime::from_secs(5), SimDuration::from_secs(10), 3.0)
        .seed(3)
        .build();
    let mut cfg = ClusterConfig::tiny_test(4);
    cfg.reserve_frac = 0.45;
    let drain = SimDuration::from_secs(600);
    let on = Run::new(SystemKind::KunServe, cfg.clone(), &trace)
        .drain(drain)
        .execute();
    let off = Run::new(
        SystemKind::KunServeWith(KunServeConfig::without_donation()),
        cfg,
        &trace,
    )
    .drain(drain)
    .execute();
    assert_eq!(on.report.donated_bytes_peak, 0);
    assert_eq!(
        format!("{:?}", on.report),
        format!("{:?}", off.report),
        "donation flag must be inert on single-model clusters"
    );
}

/// The donation cluster with the lender model rebuilt at `lender_layers`
/// transformer layers — the partial-grant proptests sweep the lender's
/// layer count so grant sizing, loan ranges and per-range restores are
/// exercised at many quantizations, not just the default 8.
fn donation_cluster_with_layers(lender_layers: u32) -> ClusterConfig {
    let mut cfg = donation_cluster();
    cfg.model.num_layers = lender_layers;
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Plan-level partial grants: for arbitrary lender layer counts ×
    /// borrower deficits, the layer-granular grant covers the deficit (up
    /// to lender capacity), never overshoots it by more than one layer of
    /// quantization, never exceeds the whole-copy baseline, and every
    /// granted layer is covered by the donor's planned merges.
    #[test]
    fn partial_grants_sized_to_the_deficit(
        num_layers in 2u32..64,
        layer_kb in 1u64..4096,
        n_groups in 2usize..6,
        deficit_pct in 1u64..320,
    ) {
        let layer_bytes = layer_kb << 10;
        let capacity = (n_groups as u64 - 1) * num_layers as u64 * layer_bytes;
        let deficit = (capacity * deficit_pct / 100).max(1);
        // The borrower is a single group: nothing of its own to drop.
        let demands = [ModelDemand {
            model: ModelId(0),
            required_bytes: deficit,
            copy_bytes: layer_bytes * num_layers as u64,
            slo_weight: 1.0,
            groups: vec![PlanGroup { id: GroupId(0), instances: 1 }],
        }];
        let offer = |quantum: u32| LenderOffer {
            model: ModelId(1),
            layer_bytes,
            num_layers,
            grant_quantum_layers: quantum,
            slo_weight: 1.0,
            groups: (1..=n_groups)
                .map(|i| PlanGroup { id: GroupId(i), instances: 1 })
                .collect(),
        };
        let fine =
            arbitrate_with_donation(&demands, &[offer(1)], None, Arbitration::SloWeighted);
        let coarse = arbitrate_with_donation(
            &demands,
            &[offer(num_layers)],
            None,
            Arbitration::SloWeighted,
        );
        let granted = |out: &kunserve::ArbitrationOutcome| -> u64 {
            out.donor_plans
                .iter()
                .flat_map(|p| p.grants.iter())
                .map(|g| g.bytes)
                .sum()
        };
        let fine_b = granted(&fine);
        let coarse_b = granted(&coarse);
        prop_assert!(
            fine_b >= deficit.min(capacity),
            "grant {fine_b} leaves a coverable deficit {deficit} (capacity {capacity})"
        );
        if fine_b >= deficit {
            prop_assert!(
                fine_b - deficit < layer_bytes,
                "grant {fine_b} overshoots deficit {deficit} by a whole {layer_bytes}-byte layer"
            );
        }
        prop_assert!(
            fine_b <= coarse_b,
            "layer-granular {fine_b} must never donate more than whole-copy {coarse_b}"
        );
        for dp in &fine.donor_plans {
            let granted_layers: u64 = dp.grants.iter().map(|g| g.layers).sum();
            prop_assert!(
                dp.freed_layers() >= granted_layers,
                "merges free {} layers for a {granted_layers}-layer grant",
                dp.freed_layers()
            );
            for m in &dp.merges {
                prop_assert!(m.drop_layers.len() <= num_layers);
                prop_assert!(m.groups.len() >= 2);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Donation safety under random overloads × lender layer counts: at
    /// every simulated step borrowed KV is fully returned before any donor
    /// instance completes a parameter restore (the ledger's
    /// `fully_resident ⇒ donated_out == 0` invariant), the tail stays
    /// whole-layer (layer-byte granularity), and params + KV never exceed
    /// HBM on any device.
    #[test]
    fn donation_invariants_hold_at_every_step(
        seed in 0u64..300,
        lender_rps in 8u64..18,
        borrower_rps in 3u64..10,
        mult_x10 in 30u64..90,
        lender_layers in 4u32..13,
    ) {
        let cfg = donation_cluster_with_layers(lender_layers);
        prop_assert!(cfg.validate().is_ok(), "infeasible layer count");
        let trace = donation_trace_with(
            lender_rps as f64,
            borrower_rps as f64,
            mult_x10 as f64 / 10.0,
            seed,
            25,
        );
        let mut violations = Vec::new();
        let out = Run::new(SystemKind::KunServe, cfg, &trace)
            .drain(SimDuration::from_secs(900))
            .execute_observed(|state, now| {
                check_step(state, now, &mut violations);
            });
        prop_assert!(violations.is_empty(), "{}", violations.join("\n"));
        prop_assert_eq!(out.report.finished_requests, trace.len(), "requests lost");
    }
}
