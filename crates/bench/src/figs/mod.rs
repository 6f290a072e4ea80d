//! The figure registry behind the `figs` driver.
//!
//! Each entry regenerates one paper figure or table, or one extension
//! document: it builds its scenario, runs its systems, prints its series
//! and returns its JSON document. A gated entry also holds its tolerance
//! file. The driver (`src/bin/figs.rs`) owns what every entry shares —
//! parsing, timing, executor metadata, the write and the gate.
//! The helpers below are the pieces several entries repeat.

use std::path::PathBuf;

use cluster::{ClusterConfig, FailureSchedule};
use kunserve::serving::{Run, RunOutcome, SystemKind};
use sim_core::{SimDuration, SimTime, TimeSeries};
use workload::Trace;

use crate::{harness, print_series, with_fields, Json};

mod fig02_motivation;
mod fig05_drop_degrees;
mod fig12_end_to_end;
mod fig13_latency_slo;
mod fig14_ablation;
mod fig15_cost_model;
mod fig16_long_run;
mod fig17_extreme_burst;
mod fig18_donation;
mod fig18_multi_model;
mod fig19_diurnal;
mod fig20_coldstart_storm;
mod fig21_shared_prefix;
mod fig22_failure_storm;
mod fig23_cascading_recovery;
mod fig24_gateway;
mod table1_models;
mod table2_testbed;

/// One registry entry.
#[derive(Debug)]
pub struct Figure {
    /// The document's `figure` name, which is also the driver's argument.
    pub name: &'static str,
    /// One-line description for the usage text.
    pub about: &'static str,
    /// The tolerance file `figs --gate` checks the document against
    /// (see [`crate::gate`]), compiled in; `None` for an ungated figure.
    /// A gated figure has a tiny CI-sized scenario that `--smoke` selects
    /// and `--gate` runs.
    pub tolerance: Option<&'static str>,
    /// Runs the figure, printing its series, and returns its document.
    pub run: fn(&Opts) -> Json,
}

/// What the driver passes to every entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Opts {
    /// Run the smoke scenario.
    pub smoke: bool,
    /// Worker threads for the entry's independent simulations.
    pub threads: usize,
}

/// Every figure the driver can regenerate.
pub const FIGURES: &[Figure] = &[
    Figure {
        name: "fig02_motivation",
        about: "Fig. 2: TTFT spikes of KV-centric overload handling under a burst",
        tolerance: None,
        run: fig02_motivation::run,
    },
    Figure {
        name: "fig05_drop_degrees",
        about: "Fig. 5: latency vs. fraction of parameters dropped",
        tolerance: None,
        run: fig05_drop_degrees::run,
    },
    Figure {
        name: "fig12_end_to_end",
        about: "Fig. 12: end-to-end timelines, four workloads x five systems",
        tolerance: None,
        run: fig12_end_to_end::run,
    },
    Figure {
        name: "fig13_latency_slo",
        about: "Fig. 13: p50/p99 TTFT and TPOT, SLO-violation ratios",
        tolerance: None,
        run: fig13_latency_slo::run,
    },
    Figure {
        name: "fig14_ablation",
        about: "Fig. 14: drop / +coordinated exchange / +lookahead ablation",
        tolerance: None,
        run: fig14_ablation::run,
    },
    Figure {
        name: "fig15_cost_model",
        about: "Fig. 15: Eq. 1-3 cost model vs. the token-count baseline",
        tolerance: None,
        run: fig15_cost_model::run,
    },
    Figure {
        name: "fig16_long_run",
        about: "Fig. 16: 640 s run with two overload waves, with and without restore",
        tolerance: None,
        run: fig16_long_run::run,
    },
    Figure {
        name: "fig17_extreme_burst",
        about: "Fig. 17: a burst window replayed until every system runs out of memory",
        tolerance: Some(include_str!("../../tolerances/fig17_smoke.json")),
        run: fig17_extreme_burst::run,
    },
    Figure {
        name: "fig18_multi_model",
        about: "Fig. 18 (extension): two models co-served under colliding bursts",
        tolerance: Some(include_str!("../../tolerances/fig18_smoke.json")),
        run: fig18_multi_model::run,
    },
    Figure {
        name: "fig18_donation",
        about: "Fig. 18 (extension): cross-model donation granularity ablation",
        tolerance: Some(include_str!("../../tolerances/fig18_donation.json")),
        run: fig18_donation::run,
    },
    Figure {
        name: "fig19_diurnal",
        about: "Fig. 19 (extension): diurnal tide, repeated drop/restore cycles",
        tolerance: Some(include_str!("../../tolerances/fig19_smoke.json")),
        run: fig19_diurnal::run,
    },
    Figure {
        name: "fig20_coldstart_storm",
        about: "Fig. 20 (extension): cold-start storms on a long-tail model zoo",
        tolerance: Some(include_str!("../../tolerances/fig20_smoke.json")),
        run: fig20_coldstart_storm::run,
    },
    Figure {
        name: "fig21_shared_prefix",
        about: "Fig. 21 (extension): shared-prefix traffic, bounded recompute",
        tolerance: Some(include_str!("../../tolerances/fig21_smoke.json")),
        run: fig21_shared_prefix::run,
    },
    Figure {
        name: "fig22_failure_storm",
        about: "Fig. 22 (extension): a rack failure mid-burst",
        tolerance: Some(include_str!("../../tolerances/fig22_smoke.json")),
        run: fig22_failure_storm::run,
    },
    Figure {
        name: "fig23_cascading_recovery",
        about: "Fig. 23 (extension): cascading recovery, shedding vs. no-shed ablation",
        tolerance: Some(include_str!("../../tolerances/fig23_smoke.json")),
        run: fig23_cascading_recovery::run,
    },
    Figure {
        name: "fig24_gateway",
        about: "Fig. 24 (extension): the online gateway under closed-loop clients",
        tolerance: Some(include_str!("../../tolerances/fig24_smoke.json")),
        run: fig24_gateway::run,
    },
    Figure {
        name: "table1_models",
        about: "Table 1: parameter share of instance HBM per model",
        tolerance: None,
        run: table1_models::run,
    },
    Figure {
        name: "table2_testbed",
        about: "Table 2: the simulated testbeds",
        tolerance: None,
        run: table2_testbed::run,
    },
];

/// A parsed `figs` invocation.
#[derive(Debug)]
pub struct Invocation {
    /// The figures to run, in order, each with its options.
    pub runs: Vec<(&'static Figure, Opts)>,
    /// Where a single run writes its document (`--json PATH`); the
    /// default is `target/bench-json/<figure>.json`.
    pub json: Option<PathBuf>,
    /// Whether each document is checked against its figure's tolerance
    /// file and wall-clock budget (`--gate`, see [`crate::gate`]).
    pub gate: bool,
}

/// Parses `<figure> [--smoke] [--threads N] [--json PATH]` or
/// `--gate [<figure>] [--threads N]`. Rejects a missing or unknown figure,
/// an unknown flag or extra argument, `--smoke` for an ungated figure, a
/// `--threads` that is not a positive integer, a `--json` without a path,
/// and `--gate` with `--smoke`, with `--json` or with an ungated figure.
///
/// `--gate` runs the figure it names, or every gated figure, each at its
/// smoke scale.
pub fn parse_args(args: &[String]) -> Result<Invocation, String> {
    let mut name = None;
    let mut smoke = false;
    let mut gate = false;
    let mut threads = None;
    let mut json = None;
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--gate" => gate = true,
            "--threads" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => threads = Some(n),
                _ => return Err("--threads needs a positive integer".into()),
            },
            "--json" => match args.next() {
                Some(path) if !path.starts_with('-') => json = Some(PathBuf::from(path)),
                _ => return Err("--json needs a path".into()),
            },
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            figure if name.is_none() => name = Some(figure),
            extra => return Err(format!("unexpected argument `{extra}`")),
        }
    }
    let find = |name: &str| {
        FIGURES
            .iter()
            .find(|f| f.name == name)
            .ok_or_else(|| format!("unknown figure `{name}`"))
    };
    let threads = threads.unwrap_or_else(harness::host_parallelism);
    let opts = |smoke| Opts { smoke, threads };
    if gate {
        if smoke || json.is_some() {
            return Err("--gate picks each figure's scale and output path".into());
        }
        let figures: Vec<&'static Figure> = match name {
            Some(name) => match find(name)? {
                f if f.tolerance.is_some() => vec![f],
                _ => return Err(format!("{name} is not gated")),
            },
            None => FIGURES.iter().filter(|f| f.tolerance.is_some()).collect(),
        };
        let runs = figures.into_iter().map(|f| (f, opts(true))).collect();
        return Ok(Invocation { runs, json, gate });
    }
    let figure = find(name.ok_or("no figure given")?)?;
    if smoke && figure.tolerance.is_none() {
        return Err(format!("{} has no smoke scenario", figure.name));
    }
    Ok(Invocation {
        runs: vec![(figure, opts(smoke))],
        json,
        gate,
    })
}

/// The driver's usage text: the synopsis, then every figure with its
/// description (`g` marks a gated figure, which has a `--smoke` scenario).
pub fn usage() -> String {
    let mut text = String::from(
        "usage: figs <figure> [--smoke] [--threads N] [--json PATH]\n\
         \x20      figs --gate [<figure>] [--threads N]\n\
         \n\
         --smoke      the tiny CI scenario of a gated figure (marked g)\n\
         --gate       run every gated figure, or the one named, at smoke scale and\n\
         \x20            check each document against its tolerance file and\n\
         \x20            wall-clock budget; exits 1 naming every failed check\n\
         --threads N  worker threads (default: host parallelism)\n\
         --json PATH  output path (default: target/bench-json/<figure>.json)\n\
         \n\
         figures:\n",
    );
    for f in FIGURES {
        let gated = if f.tolerance.is_some() { 'g' } else { ' ' };
        text += &format!("  {:<25}{gated} {}\n", f.name, f.about);
    }
    text
}

/// The two systems most extension figures compare.
pub(crate) const VLLM_VS_KUNSERVE: [(&str, SystemKind); 2] = [
    ("vLLM (DP)", SystemKind::VllmDp),
    ("KunServe", SystemKind::KunServe),
];

/// Runs each `(label, system)` arm on `trace` under `cfg`, injecting
/// `failures` when given, on up to `opts.threads` workers. Outcomes come
/// back in arm order; the labels are the caller's to print.
pub(crate) fn run_arms(
    opts: &Opts,
    cfg: &ClusterConfig,
    trace: &Trace,
    drain: SimDuration,
    failures: Option<&FailureSchedule>,
    arms: &[(&str, SystemKind)],
) -> Vec<RunOutcome> {
    harness::run_indexed(opts.threads, arms.len(), |i| {
        let run = Run::new(arms[i].1, cfg.clone(), trace).drain(drain);
        match failures {
            Some(schedule) => run.failures(schedule),
            None => run,
        }
        .execute()
    })
}

/// The lineup document: `figure` and `scenario`, then — for a figure with
/// a smoke scenario — `smoke` and its size field (`requests`, or
/// `clients` for a closed loop), then `systems`.
pub(crate) fn lineup_doc(
    figure: &'static str,
    scenario: &str,
    smoke: Option<(bool, &'static str, usize)>,
    systems: Vec<Json>,
) -> Json {
    let mut pairs = vec![
        ("figure", Json::str(figure)),
        ("scenario", Json::str(scenario)),
    ];
    if let Some((smoke, size_key, size)) = smoke {
        pairs.push(("smoke", Json::Bool(smoke)));
        pairs.push((size_key, Json::Num(size as f64)));
    }
    pairs.push(("systems", Json::Arr(systems)));
    Json::obj(pairs)
}

/// `out`'s reconfig events whose description starts with one of
/// `prefixes` (`""` matches every event).
fn events<'a>(
    out: &'a RunOutcome,
    prefixes: &'a [&str],
) -> impl Iterator<Item = &'a (SimTime, String)> {
    out.state
        .metrics
        .reconfig_events
        .iter()
        .filter(move |(_, what)| prefixes.iter().any(|p| what.starts_with(p)))
}

/// How many of `out`'s reconfig events start with `prefix`.
pub(crate) fn count_events(out: &RunOutcome, prefix: &str) -> usize {
    events(out, &[prefix]).count()
}

/// Prints `out`'s reconfig events that start with one of `prefixes` as
/// `event,<secs>,<description>` lines.
pub(crate) fn print_events(out: &RunOutcome, prefixes: &[&str]) {
    for (t, what) in events(out, prefixes) {
        println!("event,{:.1},{what}", t.as_secs_f64());
    }
}

/// Appends the eight closed-loop client counters to a system row:
/// goodput, deadline misses, sheds, abandons, and retries in total and
/// split into an early and a late window.
pub(crate) fn with_client_counters(
    row: Json,
    out: &RunOutcome,
    retries_early: u64,
    retries_late: u64,
) -> Json {
    let r = &out.report;
    with_fields(
        row,
        [
            ("goodput_frac", Json::Num(r.goodput_frac())),
            ("goodput_requests", Json::Num(r.goodput_requests as f64)),
            ("deadline_misses", Json::Num(r.deadline_misses as f64)),
            ("shed_requests", Json::Num(r.shed_requests as f64)),
            ("abandoned_requests", Json::Num(r.abandoned_requests as f64)),
            ("retries", Json::Num(r.retries as f64)),
            ("retries_early", Json::Num(retries_early as f64)),
            ("retries_late", Json::Num(retries_late as f64)),
        ],
    )
}

/// The mean of a series' values (0 when it is empty).
pub(crate) fn mean(series: &TimeSeries) -> f64 {
    if series.is_empty() {
        return 0.0;
    }
    series.points().iter().map(|&(_, v)| v).sum::<f64>() / series.len() as f64
}

/// Prints the trace's arrival rate in `window_secs`-second windows, under
/// a `# <title> (req/s, <n>s windows)` header.
pub(crate) fn print_arrival_rate(title: &str, trace: &Trace, window_secs: u64) {
    println!("# {title} (req/s, {window_secs}s windows)");
    print_series(
        "time_s,req_per_s",
        &trace.rate_timeline(SimDuration::from_secs(window_secs)),
        1.0,
    );
}
