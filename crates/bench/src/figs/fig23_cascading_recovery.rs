//! Regenerates Figure 23: the cascading-recovery storm. A rack dies
//! mid-burst and comes back minutes later; the rejoined instances reload
//! parameters over the host links (real `ParamRestore` traffic) while the
//! deadline-missed requests of the outage window re-arrive with
//! exponential backoff — a retry storm that lands exactly when the cluster
//! is busiest absorbing the recovery reload. This is the metastable
//! failure mode: the *recovery itself* seeds the second overload.
//!
//! Two arms of the same system face the identical storm:
//! - "KunServe": deadline-aware admission control sheds the requests the
//!   load predictor says cannot meet their SLO; the retry volume decays
//!   and goodput stays above the bar.
//! - "KunServe (no shed)": the ablation admits everything; retries beget
//!   misses beget retries, goodput is strictly worse and the retry volume
//!   keeps growing across the storm window.
//!
//! Run: `cargo run --release -p bench --bin figs -- fig23_cascading_recovery`
//! (`--smoke`: the tiny-cluster CI scenario).

use cluster::{ClusterConfig, FailureSchedule, RetryPolicy};
use kunserve::policy::KunServeConfig;
use kunserve::serving::SystemKind;
use sim_core::{SimDuration, SimTime};
use workload::{BurstTraceBuilder, Dataset, Deadline};

use super::{lineup_doc, print_arrival_rate, print_events, run_arms, with_client_counters, Opts};
use crate::{outcome_json_labeled, secs, Json};

struct Setup {
    name: &'static str,
    cfg: ClusterConfig,
    builder: BurstTraceBuilder,
    deadline: Deadline,
    outage: SimTime,
    recovery: SimTime,
    drain: SimDuration,
}

impl Setup {
    fn schedule(&self) -> FailureSchedule {
        FailureSchedule::new()
            .rack_down(self.outage, 1)
            .rack_up(self.recovery, 1)
    }

    /// The retry-storm observation windows: `early` opens at the outage
    /// (first misses, first backoffs), `late` opens at recovery — where
    /// the reload traffic and the re-arrivals collide — and both have the
    /// width of the outage itself, so the two volumes are comparable.
    fn storm_windows(&self) -> ((SimTime, SimTime), (SimTime, SimTime)) {
        let width = self.recovery.since(self.outage);
        (
            (self.outage, self.recovery),
            (self.recovery, self.recovery + width),
        )
    }
}

/// The CI scenario: 8 instances in 4 racks of 2; rack 1 dies at t=10s
/// inside the burst and rejoins at t=20s, so the parameter reload and the
/// backed-off re-arrivals overlap.
fn smoke_setup() -> Setup {
    let mut cfg = ClusterConfig::tiny_test(8);
    cfg.reserve_frac = 0.45;
    cfg.rack_size = 2;
    cfg.retry = Some(RetryPolicy {
        max_retries: 4,
        base: SimDuration::from_millis(500),
        multiplier: 2,
        cap: SimDuration::from_secs(8),
        seed: 23,
    });
    Setup {
        name: "tiny cascading recovery",
        cfg,
        builder: BurstTraceBuilder::new(Dataset::BurstGpt)
            .base_rps(90.0)
            .duration(SimDuration::from_secs(30))
            .burst(SimTime::from_secs(6), SimDuration::from_secs(14), 3.0)
            .seed(23),
        deadline: Deadline::ttft(SimDuration::from_millis(1500)),
        outage: SimTime::from_secs(10),
        recovery: SimTime::from_secs(20),
        drain: SimDuration::from_secs(900),
    }
}

/// Paper-scale: a longer trace, a bigger rack, a longer outage.
fn full_setup() -> Setup {
    let mut cfg = ClusterConfig::tiny_test(16);
    cfg.reserve_frac = 0.50;
    cfg.rack_size = 4;
    cfg.retry = Some(RetryPolicy {
        max_retries: 5,
        base: SimDuration::from_millis(500),
        multiplier: 2,
        cap: SimDuration::from_secs(8),
        seed: 51,
    });
    Setup {
        name: "cascading recovery storm",
        cfg,
        builder: BurstTraceBuilder::new(Dataset::BurstGpt)
            .base_rps(150.0)
            .duration(SimDuration::from_secs(60))
            .burst(SimTime::from_secs(15), SimDuration::from_secs(25), 2.0)
            .seed(51),
        deadline: Deadline::ttft(SimDuration::from_secs(3)),
        outage: SimTime::from_secs(20),
        recovery: SimTime::from_secs(40),
        drain: SimDuration::from_secs(900),
    }
}

pub fn run(opts: &Opts) -> Json {
    let setup = if opts.smoke {
        smoke_setup()
    } else {
        full_setup()
    };
    let trace = setup.builder.build().with_deadline(setup.deadline);
    println!(
        "# Figure 23: cascading recovery on {} ({} requests, outage {}-{}s)",
        setup.name,
        trace.len(),
        setup.outage.as_secs_f64(),
        setup.recovery.as_secs_f64()
    );
    println!();
    print_arrival_rate("Arrival rate", &trace, 5);

    // Two arms of one system: admission control on (the paper's
    // configuration) vs off (the ablation that spirals).
    let arms = [
        (
            "KunServe",
            SystemKind::KunServeWith(KunServeConfig::default()),
        ),
        (
            "KunServe (no shed)",
            SystemKind::KunServeWith(KunServeConfig::without_shedding()),
        ),
    ];
    let (early, late) = setup.storm_windows();
    let schedule = setup.schedule();
    let outcomes = run_arms(
        opts,
        &setup.cfg,
        &trace,
        setup.drain,
        Some(&schedule),
        &arms,
    );
    let mut sys_jsons = Vec::new();
    for ((label, _), out) in arms.iter().zip(&outcomes) {
        let retries_early = out.state.metrics.retries_in(early.0, early.1);
        let retries_late = out.state.metrics.retries_in(late.0, late.1);
        println!();
        println!("## {label}");
        print_events(out, &["rack-", "recovery"]);
        println!(
            "summary,finished={}/{},goodput={:.3},p99={}",
            out.report.finished_requests,
            out.report.total_requests,
            out.report.goodput_frac(),
            secs(out.report.ttft.p99)
        );
        println!(
            "client,misses={},retries={},shed={},abandoned={},retry_early={retries_early},retry_late={retries_late}",
            out.report.deadline_misses,
            out.report.retries,
            out.report.shed_requests,
            out.report.abandoned_requests,
        );
        sys_jsons.push(with_client_counters(
            outcome_json_labeled(&setup.cfg, out, label),
            out,
            retries_early,
            retries_late,
        ));
    }

    let smoke = Some((opts.smoke, "requests", trace.len()));
    lineup_doc("fig23_cascading_recovery", setup.name, smoke, sys_jsons)
}
