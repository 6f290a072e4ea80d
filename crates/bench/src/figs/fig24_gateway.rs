//! Regenerates Figure 24: the online serving gateway under closed-loop
//! clients. Everything below the gateway is the deterministic simulator;
//! this figure exercises the production face on top of it — API keys,
//! per-tenant quotas, incremental token streams and first-class elastic
//! model ops. The bridge keeps the simulation's central property: the
//! submission program is a pure function of the setup, so every run of
//! this figure reports byte-identically (`tests/gateway.rs` pins the same
//! bridge to the batch `Run` builder).
//!
//! The scenario: three tenants drive closed-loop clients (one outstanding
//! request each, exponential think times) against a two-model cluster.
//! - "search" (unlimited quota) queries the primary model,
//! - "chat" (unlimited) talks to the co-served chat model,
//! - "batch" (a hard request quota) bulk-loads the primary model until
//!   admission control cuts it off mid-run.
//!
//! Mid-run the operator hot-swaps the chat model: `unload_model` drains
//! and merges its groups (the KunServe drop path frees the duplicate
//! parameter bytes in the memory ledger), chat clients bounce with
//! `ModelUnavailable` and retry, then `load_model` restores the parked
//! copy (ParamRestore) and chat traffic resumes. The elastic-HBM ledger
//! is audited at every pump boundary.
//!
//! Run: `cargo run --release -p bench --bin figs -- fig24_gateway`
//! (`--smoke`: the tiny-cluster CI scenario).

use cluster::{ClusterConfig, ModelAvailability, ModelId};
use gateway::{Gateway, GatewayError, Quota, RequestHandle, RequestStatus, SubmitSpec, Virtual};
use kunserve::serving::{RunOutcome, SystemKind};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sim_core::{SimDuration, SimTime};
use workload::{Dataset, Deadline, LengthSampler};

use super::{lineup_doc, with_client_counters, Opts};
use crate::{outcome_json_labeled, secs, with_fields, Json};

struct Setup {
    name: &'static str,
    cfg: ClusterConfig,
    /// (tenant name, API key, quota, model, number of closed-loop clients).
    tenants: Vec<(&'static str, &'static str, Quota, ModelId, usize)>,
    /// Mean think time between a completion and the next submission.
    think_mean: SimDuration,
    deadline: Deadline,
    /// When the operator unloads the chat model, and the earliest time the
    /// reload may start (it waits for the unload to settle first).
    unload_at: SimTime,
    load_at: SimTime,
    duration: SimDuration,
    drain: SimDuration,
    seed: u64,
}

/// The CI scenario: 4+2 instances, ~12 closed-loop clients, a quota that
/// bites mid-run, and one chat-model hot-swap inside the window.
fn smoke_setup() -> Setup {
    Setup {
        name: "tiny gateway closed loop",
        cfg: ClusterConfig::tiny_two_model(4, 2),
        tenants: vec![
            ("search", "k-search", Quota::UNLIMITED, ModelId(0), 6),
            ("chat", "k-chat", Quota::UNLIMITED, ModelId(1), 4),
            ("batch", "k-batch", Quota::requests(24), ModelId(0), 2),
        ],
        think_mean: SimDuration::from_secs(2),
        deadline: Deadline::ttft(SimDuration::from_secs(4)),
        unload_at: SimTime::from_secs(15),
        load_at: SimTime::from_secs(35),
        duration: SimDuration::from_secs(60),
        drain: SimDuration::from_secs(300),
        seed: 24,
    }
}

/// Paper-scale: a bigger cluster, more clients, a longer window.
fn full_setup() -> Setup {
    Setup {
        name: "gateway closed loop",
        cfg: ClusterConfig::tiny_two_model(8, 4),
        tenants: vec![
            ("search", "k-search", Quota::UNLIMITED, ModelId(0), 16),
            ("chat", "k-chat", Quota::UNLIMITED, ModelId(1), 10),
            ("batch", "k-batch", Quota::requests(80), ModelId(0), 4),
        ],
        think_mean: SimDuration::from_secs(2),
        deadline: Deadline::ttft(SimDuration::from_secs(4)),
        unload_at: SimTime::from_secs(30),
        load_at: SimTime::from_secs(70),
        duration: SimDuration::from_secs(120),
        drain: SimDuration::from_secs(300),
        seed: 51,
    }
}

/// One closed-loop client: one outstanding request, exponential think
/// time, resubmits on completion. All its randomness comes from a seeded
/// per-client stream, so the whole submission program is a pure function
/// of the setup.
struct Client {
    key: &'static str,
    model: ModelId,
    rng: SmallRng,
    sampler: LengthSampler,
    pending: Option<RequestHandle>,
    exhausted: bool,
}

impl Client {
    fn think_gap(&mut self, mean: SimDuration) -> SimDuration {
        let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        SimDuration::from_secs_f64(-u.ln() * mean.as_secs_f64())
    }
}

/// What the closed-loop clients saw, summed over all of them.
#[derive(Default)]
struct Tally {
    finished: u64,
    cancelled: u64,
    quota_rejections: u64,
    unavailable_rejections: u64,
}

/// Runs the closed-loop submission program through one gateway, asserting
/// that every ledger audit passed.
fn drive(setup: &Setup, label: &str) -> (RunOutcome, Tally) {
    let mut tally = Tally::default();
    let mut gw = Gateway::new(SystemKind::KunServe, setup.cfg.clone(), Virtual);
    let mut clients = Vec::new();
    for (i, &(name, key, quota, model, n)) in setup.tenants.iter().enumerate() {
        gw.register_tenant(name, key, quota);
        for j in 0..n {
            clients.push(Client {
                key,
                model,
                rng: SmallRng::seed_from_u64(
                    setup.seed ^ ((i as u64) << 32) ^ (j as u64).wrapping_mul(0x9E37_79B9),
                ),
                sampler: Dataset::BurstGpt.sampler(),
                pending: None,
                exhausted: false,
            });
        }
    }

    let step = gw.state().cfg.monitor_interval;
    let end = SimTime::ZERO + setup.duration;
    let mut unload_requested = false;
    let mut load_requested = false;
    let mut ledger_violations = Vec::new();
    let mut now = SimTime::ZERO;
    // First submissions: staggered off the boundary grid by the think
    // stream, exactly like every follow-up.
    submit_ready(&mut gw, &mut clients, &mut tally, setup, now);
    while now < end {
        now += step;
        gw.pump_until(now);
        ledger_violations.extend(gw.state().ledger().check_invariants(&now.to_string()));
        // The operator's hot-swap script, driven off simulated time.
        if !unload_requested && now >= setup.unload_at {
            unload_requested = gw.unload_model(ModelId(1)).is_ok();
        }
        if unload_requested
            && !load_requested
            && now >= setup.load_at
            && gw.model_availability(ModelId(1)) == ModelAvailability::Unloaded
        {
            gw.load_model(ModelId(1))
                .expect("reload of an unloaded model");
            load_requested = true;
        }
        // Closed loop: observe completions, then resubmit.
        for c in clients.iter_mut() {
            let Some(h) = c.pending else { continue };
            match gw.status(h).expect("submitted handle stays valid") {
                RequestStatus::Finished => {
                    tally.finished += 1;
                    c.pending = None;
                }
                RequestStatus::Cancelled => {
                    tally.cancelled += 1;
                    c.pending = None;
                }
                RequestStatus::Pending | RequestStatus::Active => {}
            }
        }
        submit_ready(&mut gw, &mut clients, &mut tally, setup, now);
    }
    assert!(unload_requested, "{label}: the unload must have fired");
    assert!(load_requested, "{label}: the reload must have fired");
    let (report, state) = gw.finish(setup.drain);
    ledger_violations.extend(state.ledger().check_invariants("final"));
    assert_eq!(
        state.model_availability(ModelId(1)),
        ModelAvailability::Available,
        "{label}: the chat model must be back in service after the swap"
    );
    assert!(
        ledger_violations.is_empty(),
        "{label}: ledger audit failed:\n{}",
        ledger_violations.join("\n")
    );
    let outcome = RunOutcome {
        name: label.to_string(),
        report,
        state,
        span: setup.duration + setup.drain,
    };
    (outcome, tally)
}

/// Submits the next request of every idle client: arrival = now + an
/// exponential think gap (off the boundary grid), lengths from the
/// client's sampler stream. Quota exhaustion retires the client;
/// unavailability (the hot-swap window) counts a bounce and retries at
/// the next boundary with a fresh gap.
fn submit_ready<C: gateway::Clock>(
    gw: &mut Gateway<C>,
    clients: &mut [Client],
    tally: &mut Tally,
    setup: &Setup,
    now: SimTime,
) {
    for c in clients.iter_mut() {
        if c.exhausted || c.pending.is_some() {
            continue;
        }
        let gap = c.think_gap(setup.think_mean);
        let (input, output) = {
            let rng = &mut c.rng;
            c.sampler.sample(rng)
        };
        let spec = SubmitSpec::new(c.model, now + gap, input, output).deadline(setup.deadline);
        match gw.submit(c.key, spec) {
            Ok(h) => c.pending = Some(h),
            Err(GatewayError::QuotaExhausted(_)) => {
                tally.quota_rejections += 1;
                c.exhausted = true;
            }
            Err(GatewayError::ModelUnavailable(_)) => tally.unavailable_rejections += 1,
            Err(e) => panic!("unexpected gateway rejection: {e}"),
        }
    }
}

pub fn run(opts: &Opts) -> Json {
    let setup = if opts.smoke {
        smoke_setup()
    } else {
        full_setup()
    };
    let clients: usize = setup.tenants.iter().map(|t| t.4).sum();
    println!(
        "# Figure 24: {} ({} tenants, {} closed-loop clients, chat hot-swap {}-{}s)",
        setup.name,
        setup.tenants.len(),
        clients,
        setup.unload_at.as_secs_f64(),
        setup.load_at.as_secs_f64()
    );

    let (outcome, tally) = drive(&setup, "gateway (serial)");
    let out = &outcome;
    println!();
    println!("## {}", out.name);
    println!(
        "summary,finished={}/{},goodput={:.3},p99={}",
        out.report.finished_requests,
        out.report.total_requests,
        out.report.goodput_frac(),
        secs(out.report.ttft.p99)
    );
    println!(
        "gateway,client_finished={},client_cancelled={},quota_rejections={},unavailable_rejections={}",
        tally.finished, tally.cancelled, tally.quota_rejections, tally.unavailable_rejections
    );
    // The retry-window split, keyed to the hot-swap: before the unload vs
    // from the unload to the end of the open window.
    let metrics = &out.state.metrics;
    let row = with_client_counters(
        outcome_json_labeled(&setup.cfg, out, &out.name),
        out,
        metrics.retries_in(SimTime::ZERO, setup.unload_at),
        metrics.retries_in(setup.unload_at, SimTime::ZERO + setup.duration),
    );
    let row = with_fields(
        row,
        [
            ("quota_rejections", Json::Num(tally.quota_rejections as f64)),
            (
                "unavailable_rejections",
                Json::Num(tally.unavailable_rejections as f64),
            ),
        ],
    );

    let smoke = Some((opts.smoke, "clients", clients));
    lineup_doc("fig24_gateway", setup.name, smoke, vec![row])
}
