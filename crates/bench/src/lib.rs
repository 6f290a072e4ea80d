//! Shared scenario definitions and output helpers for the benchmark
//! harness that regenerates the paper's tables and figures.
//!
//! The figures live in the [`figs`] registry, run by the `figs` binary.
//! Most build on [`Scenario`]: a workload × model × cluster combination
//! calibrated like the paper's testbed (§5.1) — the KV pool is
//! provisioned at ~2.1× the average demand, and the arrival rate is scaled
//! to the simulated cluster's serving capacity. The paper scales its
//! traces with TraceUpscaler; a scenario sets its rate directly on the
//! trace builder.

use cluster::{ClusterConfig, ModelId};
use kunserve::serving::{Run, RunOutcome, SystemKind};
use sim_core::{SimDuration, SimTime};
use workload::{BurstTraceBuilder, Dataset, Trace};

pub mod figs;
pub mod gate;
pub mod harness;
pub mod json;

pub use json::Json;

/// A calibrated experiment scenario.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Display name, e.g. `"BurstGPT x 14B"`.
    pub name: &'static str,
    /// The workload dataset.
    pub dataset: Dataset,
    /// Cluster configuration (model, instances, provisioning).
    pub cfg: ClusterConfig,
    /// Base request rate.
    pub base_rps: f64,
    /// Trace duration.
    pub duration: SimDuration,
    /// Burst phases: `(start_frac, secs, multiplier)`.
    pub bursts: Vec<(f64, f64, f64)>,
    /// Drain allowance after the last arrival.
    pub drain: SimDuration,
    /// Trace seed.
    pub seed: u64,
}

impl Scenario {
    /// BurstGPT × Qwen-2.5-14B on cluster A (the paper's headline combo).
    pub fn burstgpt_14b() -> Scenario {
        let mut cfg = ClusterConfig::qwen14b_cluster_a();
        // Provision the KV pool at ~2.1x the measured average demand
        // (paper §2.2 methodology).
        cfg.reserve_frac = 0.55;
        Scenario {
            name: "BurstGPT x 14B",
            dataset: Dataset::BurstGpt,
            cfg,
            base_rps: 24.0,
            duration: SimDuration::from_secs(120),
            bursts: vec![(0.35, 12.0, 3.0), (0.68, 10.0, 2.5)],
            drain: SimDuration::from_secs(300),
            seed: 42,
        }
    }

    /// ShareGPT × Qwen-2.5-14B: longer prompts, tighter memory.
    pub fn sharegpt_14b() -> Scenario {
        let mut cfg = ClusterConfig::qwen14b_cluster_a();
        cfg.reserve_frac = 0.50;
        Scenario {
            name: "ShareGPT x 14B",
            dataset: Dataset::ShareGpt,
            cfg,
            base_rps: 11.0,
            duration: SimDuration::from_secs(120),
            bursts: vec![(0.35, 12.0, 3.0), (0.68, 10.0, 2.5)],
            drain: SimDuration::from_secs(300),
            seed: 43,
        }
    }

    /// LongBench × Qwen-2.5-14B: document summarization, extreme contexts.
    pub fn longbench_14b() -> Scenario {
        let mut cfg = ClusterConfig::qwen14b_cluster_a();
        cfg.reserve_frac = 0.40;
        Scenario {
            name: "LongBench x 14B",
            dataset: Dataset::LongBench,
            cfg,
            base_rps: 3.0,
            duration: SimDuration::from_secs(120),
            bursts: vec![(0.35, 12.0, 3.0), (0.68, 10.0, 2.5)],
            drain: SimDuration::from_secs(400),
            seed: 44,
        }
    }

    /// LongBench × Qwen-2.5-72B (TP=4) on cluster B (multi-GPU instances).
    pub fn longbench_72b() -> Scenario {
        let mut cfg = ClusterConfig::qwen72b_cluster_b();
        cfg.reserve_frac = 0.42;
        Scenario {
            name: "LongBench x 72B",
            dataset: Dataset::LongBench,
            cfg,
            base_rps: 3.0,
            duration: SimDuration::from_secs(140),
            bursts: vec![(0.35, 14.0, 3.0), (0.68, 12.0, 2.5)],
            drain: SimDuration::from_secs(400),
            seed: 45,
        }
    }

    /// The Figure 12/13 scenario matrix, in paper row order.
    pub fn paper_matrix() -> Vec<Scenario> {
        vec![
            Scenario::burstgpt_14b(),
            Scenario::sharegpt_14b(),
            Scenario::longbench_14b(),
            Scenario::longbench_72b(),
        ]
    }

    /// Builds the arrival trace.
    pub fn trace(&self) -> Trace {
        let d = self.duration.as_secs_f64();
        let mut b = BurstTraceBuilder::new(self.dataset)
            .base_rps(self.base_rps)
            .duration(self.duration)
            .seed(self.seed);
        for &(frac, secs, mult) in &self.bursts {
            b = b.burst(
                SimTime::from_secs_f64(d * frac),
                SimDuration::from_secs_f64(secs),
                mult,
            );
        }
        b.build()
    }

    /// Runs the five-system lineup on up to `threads` worker threads (one
    /// shared trace, one independent simulation per system), returning
    /// outcomes in lineup order. Results are identical at any thread
    /// count — the systems' simulations are mutually independent and
    /// individually deterministic.
    pub fn run_lineup_parallel(&self, threads: usize) -> Vec<RunOutcome> {
        let kinds = SystemKind::paper_lineup();
        let trace = self.trace();
        harness::run_indexed(threads, kinds.len(), |i| {
            Run::new(kinds[i], self.cfg.clone(), &trace)
                .drain(self.drain)
                .execute()
        })
    }
}

/// One model's workload inside a [`MultiScenario`].
#[derive(Debug, Clone)]
pub struct ModelWorkload {
    /// The target model id (an index into the cluster's deployments).
    pub model: ModelId,
    /// The length dataset.
    pub dataset: Dataset,
    /// Base request rate for this model.
    pub base_rps: f64,
    /// Burst phases: `(start_frac, secs, multiplier)`.
    pub bursts: Vec<(f64, f64, f64)>,
    /// Trace seed.
    pub seed: u64,
    /// Optional `(min, max)` clamp on sampled input lengths — used by the
    /// donation scenarios so every borrower request fits the starved
    /// model's native pool (the baseline then queues instead of
    /// deadlocking on an unadmittable prompt).
    pub input_clamp: Option<(u64, u64)>,
    /// Optional `(min, max)` clamp on sampled output lengths.
    pub output_clamp: Option<(u64, u64)>,
}

impl ModelWorkload {
    /// An unclamped workload.
    pub fn new(model: ModelId, dataset: Dataset, base_rps: f64, seed: u64) -> Self {
        ModelWorkload {
            model,
            dataset,
            base_rps,
            bursts: Vec::new(),
            seed,
            input_clamp: None,
            output_clamp: None,
        }
    }
}

/// A multi-model co-serving scenario: several models share one cluster,
/// each with its own workload; their traces merge chronologically.
#[derive(Debug, Clone)]
pub struct MultiScenario {
    /// Display name.
    pub name: &'static str,
    /// Cluster configuration (all deployments).
    pub cfg: ClusterConfig,
    /// Per-model workloads.
    pub workloads: Vec<ModelWorkload>,
    /// Trace duration (shared by all workloads).
    pub duration: SimDuration,
    /// Drain allowance after the last arrival.
    pub drain: SimDuration,
}

impl MultiScenario {
    /// The Fig. 18 headline scenario: a Qwen-2.5-14B chat burst colliding
    /// with steady Qwen-2.5-72B long-context traffic on one cluster.
    pub fn fig18_14b_chat_vs_72b_longctx() -> MultiScenario {
        let mut cfg = ClusterConfig::multi_model_14b_72b();
        // Tight provisioning (the paper's ~2.1x-average methodology) so the
        // colliding bursts overload memory rather than compute.
        cfg.reserve_frac = 0.50;
        MultiScenario {
            name: "14B chat burst x 72B long-context",
            cfg,
            workloads: vec![
                ModelWorkload {
                    bursts: vec![(0.30, 15.0, 3.0), (0.65, 12.0, 2.5)],
                    ..ModelWorkload::new(ModelId(0), Dataset::BurstGpt, 22.0, 181)
                },
                ModelWorkload {
                    bursts: vec![(0.32, 15.0, 2.5)],
                    ..ModelWorkload::new(ModelId(1), Dataset::LongBench, 2.5, 182)
                },
            ],
            duration: SimDuration::from_secs(120),
            drain: SimDuration::from_secs(400),
        }
    }

    /// A tiny two-model variant of the same collision, for smoke tests and
    /// CI gating (runs in seconds).
    pub fn fig18_smoke() -> MultiScenario {
        let mut cfg = ClusterConfig::tiny_two_model(4, 4);
        cfg.reserve_frac = 0.45;
        MultiScenario {
            name: "tiny two-model smoke",
            cfg,
            workloads: vec![
                ModelWorkload {
                    bursts: vec![(0.25, 10.0, 3.0)],
                    ..ModelWorkload::new(ModelId(0), Dataset::BurstGpt, 45.0, 31)
                },
                ModelWorkload {
                    bursts: vec![(0.25, 10.0, 3.0)],
                    ..ModelWorkload::new(ModelId(1), Dataset::BurstGpt, 25.0, 32)
                },
            ],
            duration: SimDuration::from_secs(25),
            drain: SimDuration::from_secs(900),
        }
    }

    /// The cross-model donation ablation scenario (smoke scale): the
    /// primary model holds spare replicas under light traffic (the
    /// lender); the chat model runs one instance — a single group with
    /// nothing of its own to drop — and takes a hard decode-heavy burst
    /// (the borrower). The only parameter-centric relief for the borrower
    /// is a donated extent out of the lender's dropped replicas, so
    /// toggling `cross_model_donation` isolates the donation mechanism.
    pub fn fig18_donation_smoke() -> MultiScenario {
        let mut cfg = ClusterConfig::tiny_two_model(4, 1);
        cfg.reserve_frac = 0.45;
        MultiScenario {
            name: "donation smoke: starved tiny-chat x lender tiny-test",
            cfg,
            workloads: vec![
                ModelWorkload::new(ModelId(0), Dataset::BurstGpt, 12.0, 71),
                ModelWorkload {
                    bursts: vec![(0.07, 12.0, 8.0)],
                    input_clamp: Some((64, 400)),
                    output_clamp: Some((128, 600)),
                    ..ModelWorkload::new(ModelId(1), Dataset::BurstGpt, 4.0, 72)
                },
            ],
            duration: SimDuration::from_secs(70),
            drain: SimDuration::from_secs(900),
        }
    }

    /// The paper-scale donation ablation: Qwen-2.5-72B long-context
    /// traffic on a single TP=4 instance (one group — nothing to drop)
    /// bursting against lightly-loaded Qwen-2.5-14B replicas that can
    /// lend their freed parameter memory. The burst is sized so the
    /// borrower's deficit is a *fraction* of one 14B parameter copy —
    /// the regime the layer-granular mechanism targets: a whole-copy
    /// lender must over-donate, a layer lender frees only what is
    /// needed.
    pub fn fig18_donation() -> MultiScenario {
        let mut cfg = ClusterConfig::multi_model_14b_72b();
        cfg.extra_models[0].num_instances = 1;
        cfg.reserve_frac = 0.50;
        MultiScenario {
            name: "donation: starved 72B x lender 14B",
            cfg,
            workloads: vec![
                ModelWorkload::new(ModelId(0), Dataset::BurstGpt, 10.0, 281),
                ModelWorkload {
                    bursts: vec![(0.10, 15.0, 4.5)],
                    input_clamp: Some((256, 2048)),
                    output_clamp: Some((128, 600)),
                    ..ModelWorkload::new(ModelId(1), Dataset::ShareGpt, 1.0, 282)
                },
            ],
            duration: SimDuration::from_secs(120),
            drain: SimDuration::from_secs(900),
        }
    }

    /// Builds the merged multi-model arrival trace.
    pub fn trace(&self) -> Trace {
        let d = self.duration.as_secs_f64();
        let per_model: Vec<Trace> = self
            .workloads
            .iter()
            .map(|w| {
                let mut b = BurstTraceBuilder::new(w.dataset)
                    .base_rps(w.base_rps)
                    .duration(self.duration)
                    .seed(w.seed)
                    .model(w.model);
                for &(frac, secs, mult) in &w.bursts {
                    b = b.burst(
                        SimTime::from_secs_f64(d * frac),
                        SimDuration::from_secs_f64(secs),
                        mult,
                    );
                }
                let mut t = b.build();
                if w.input_clamp.is_some() || w.output_clamp.is_some() {
                    for r in &mut t.requests {
                        if let Some((lo, hi)) = w.input_clamp {
                            r.input_tokens = r.input_tokens.clamp(lo, hi);
                        }
                        if let Some((lo, hi)) = w.output_clamp {
                            r.output_tokens = r.output_tokens.clamp(lo, hi);
                        }
                    }
                }
                t
            })
            .collect();
        Trace::merge(&per_model)
    }

    /// Runs one system on this scenario.
    pub fn run(&self, kind: SystemKind) -> RunOutcome {
        Run::new(kind, self.cfg.clone(), &self.trace())
            .drain(self.drain)
            .execute()
    }
}

/// Builds the JSON summary of one system's run: cluster-wide percentiles
/// plus the per-model breakdown (the bench regression harness's contract —
/// see README "Bench JSON output").
pub fn outcome_json(cfg: &ClusterConfig, out: &RunOutcome) -> Json {
    let models: Vec<Json> = out
        .report
        .per_model
        .iter()
        .map(|m| {
            Json::obj([
                ("model", Json::str(m.model.to_string())),
                ("name", Json::str(cfg.model_cfg(m.model).name)),
                ("total", Json::Num(m.total_requests as f64)),
                ("finished", Json::Num(m.finished_requests as f64)),
                ("ttft_p50_s", Json::Num(m.ttft.p50)),
                ("ttft_p99_s", Json::Num(m.ttft.p99)),
                ("tpot_p50_s", Json::Num(m.tpot.p50)),
                ("tpot_p99_s", Json::Num(m.tpot.p99)),
            ])
        })
        .collect();
    Json::obj([
        ("system", Json::str(out.name.clone())),
        ("total", Json::Num(out.report.total_requests as f64)),
        ("finished", Json::Num(out.report.finished_requests as f64)),
        ("ttft_p50_s", Json::Num(out.report.ttft.p50)),
        ("ttft_p99_s", Json::Num(out.report.ttft.p99)),
        ("tpot_p50_s", Json::Num(out.report.tpot.p50)),
        ("tpot_p99_s", Json::Num(out.report.tpot.p99)),
        (
            "throughput_tok_s",
            Json::Num(out.report.mean_throughput(out.span)),
        ),
        ("preemptions", Json::Num(out.report.preemptions as f64)),
        (
            "donated_bytes_peak",
            Json::Num(out.report.donated_bytes_peak as f64),
        ),
        ("models", Json::Arr(models)),
    ])
}

/// Like [`outcome_json`], but with the `system` field overridden —
/// for figures whose rows are configurations of one system (ablation
/// levels, drop degrees) rather than distinct systems.
pub fn outcome_json_labeled(cfg: &ClusterConfig, out: &RunOutcome, label: &str) -> Json {
    let mut j = outcome_json(cfg, out);
    if let Json::Obj(pairs) = &mut j {
        if let Some(p) = pairs.iter_mut().find(|(k, _)| k == "system") {
            p.1 = Json::str(label);
        }
    }
    j
}

/// The JSON object `obj` with `extra` fields appended (any other value
/// passes through).
pub(crate) fn with_fields(
    obj: Json,
    extra: impl IntoIterator<Item = (&'static str, Json)>,
) -> Json {
    match obj {
        Json::Obj(mut pairs) => {
            pairs.extend(extra.into_iter().map(|(k, v)| (k.to_string(), v)));
            Json::Obj(pairs)
        }
        other => other,
    }
}

/// Appends the executor metadata fields of the bench-JSON schema —
/// `wall_clock_ms`, `threads` (workers used) and `threads_available`
/// (host parallelism, which puts the wall clock in context) — to a
/// figure document.
pub fn with_exec_meta(doc: Json, threads: usize, wall_clock_ms: f64) -> Json {
    with_fields(
        doc,
        [
            ("wall_clock_ms", Json::Num(wall_clock_ms)),
            ("threads", Json::Num(threads as f64)),
            (
                "threads_available",
                Json::Num(harness::host_parallelism() as f64),
            ),
        ],
    )
}

/// Writes a figure's JSON document, creating parent directories, and
/// returns the text written.
pub fn write_json(path: &std::path::Path, doc: &Json) -> std::io::Result<String> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let text = format!("{doc}\n");
    std::fs::write(path, &text)?;
    Ok(text)
}

/// Formats seconds with sensible precision.
pub fn secs(v: f64) -> String {
    if v >= 10.0 {
        format!("{v:.1}")
    } else if v >= 0.1 {
        format!("{v:.2}")
    } else {
        format!("{v:.3}")
    }
}

/// Formats milliseconds from seconds.
pub fn ms(v: f64) -> String {
    format!("{:.1}", v * 1e3)
}

/// Prints a `(time, value)` series as CSV with a scaling factor.
pub fn print_series(header: &str, series: &[(SimTime, f64)], scale: f64) {
    println!("{header}");
    for (t, v) in series {
        println!("{:.1},{:.4}", t.as_secs_f64(), v * scale);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_build_plausible_traces() {
        for sc in Scenario::paper_matrix() {
            let trace = sc.trace();
            assert!(!trace.is_empty(), "{}: empty trace", sc.name);
            let rps = trace.mean_rps();
            assert!(
                rps > sc.base_rps * 0.9,
                "{}: mean rps {rps:.1} below base {}",
                sc.name,
                sc.base_rps
            );
        }
    }

    #[test]
    fn donation_scenarios_validate_and_clamp() {
        for sc in [
            MultiScenario::fig18_donation_smoke(),
            MultiScenario::fig18_donation(),
        ] {
            sc.cfg
                .validate()
                .expect("donation scenario must be feasible");
            assert_eq!(
                sc.cfg.instances_of(ModelId(1)),
                1,
                "{}: the borrower must be a single group (nothing to drop)",
                sc.name
            );
            let trace = sc.trace();
            assert!(!trace.is_empty(), "{}: empty trace", sc.name);
            let (ilo, ihi) = sc.workloads[1].input_clamp.expect("borrower clamped");
            for r in trace.requests.iter().filter(|r| r.model == ModelId(1)) {
                assert!(
                    (ilo..=ihi).contains(&r.input_tokens),
                    "{}: borrower input {} outside clamp",
                    sc.name,
                    r.input_tokens
                );
            }
        }
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(secs(12.345), "12.3");
        assert_eq!(secs(1.234), "1.23");
        assert_eq!(secs(0.01234), "0.012");
        assert_eq!(ms(0.0123), "12.3");
    }
}
