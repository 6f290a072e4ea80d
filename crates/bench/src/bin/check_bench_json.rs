//! CI gate over bench JSON output: parses a figure's emitted JSON and
//! fails (exit 1) on malformed output, missing fields, lost requests or a
//! p99-TTFT regression beyond the stored tolerance.
//!
//! Usage:
//! - `check_bench_json <bench.json> <tolerance.json>` — the regression
//!   gate described below;
//! - `check_bench_json --schema <bench.json>...` — schema validation
//!   only: every document must carry the bench-JSON contract
//!   (`figure`, `wall_clock_ms`, `threads`, `threads_available`, a
//!   `systems` array — top-level or per scenario — whose entries have
//!   `system`/`total`/`finished`/`ttft_p99_s`, and, when a system
//!   reports a multi-model breakdown, per-model `ttft_p99_s`). New bins
//!   cannot ship ungated fields past this;
//! - `check_bench_json --budget <budget.json> <bench.json>...` — the
//!   tier-1 wall-clock budget gate: `budget.json` maps each figure name
//!   to a `max_wall_clock_ms` ceiling (`{"budgets": {"fig": ms}}`);
//!   every given bench document must name a budgeted figure and come in
//!   under its ceiling, so bench-bin runtime regressions fail CI
//!   instead of silently bloating tier-1;
//! - `check_bench_json --simlint <simlint.json>` — validates the static
//!   analyzer's report (`cargo run -p simlint` writes
//!   `target/simlint.json`): the document must carry the simlint
//!   contract (figure/tool `"simlint"`, `schema_version` 1, numeric
//!   `wall_clock_ms` and `files_scanned`, per-rule counters for every
//!   rule ID, a `diagnostics` array), be internally consistent, and be
//!   clean — any unsuppressed diagnostic fails CI.
//!
//! The tolerance file pins, per system name:
//! - `max_ttft_p99_s`: hard ceiling on cluster-wide p99 TTFT (seconds);
//! - optionally `min_finished_frac` (default 1.0): the fraction of
//!   requests every listed system must finish;
//! - optionally `scenario`: for multi-scenario figures (fig12's
//!   `{figure, scenarios: [{scenario, systems}]}` shape), the named
//!   scenario whose `systems` array to gate. Single-scenario figures
//!   (fig18) keep their `systems` at the top level and omit this;
//! - optionally `p99_less_than`: `{ "A": "B", ... }` — system A's p99
//!   TTFT must be strictly below system B's (the paper's ordering
//!   claims, e.g. KunServe < vLLM);
//! - optionally `per_model_p99_less_than`:
//!   `{ "m1": { "A": "B", ... }, ... }` — within model `m1`'s breakdown,
//!   system A's p99 TTFT must be strictly below system B's (the
//!   cross-model donation claim: the starved model improves);
//! - optionally `min_donated_bytes`: `{ "A": floor }` — system A's
//!   `donated_bytes_peak` must reach the floor (donation actually fired);
//! - optionally `donated_bytes_less_than`: `{ "A": "B" }` — system A's
//!   `donated_bytes_peak` must be strictly below system B's (the
//!   layer-granular donation claim: donate less, rescue the same);
//! - optionally `max_prefix_recompute_amplification`: `{ "A": cap }` —
//!   system A's `prefix_recompute_amplification` (recomputed shared-prefix
//!   tokens per uniquely computed one) must stay at or below the cap (the
//!   shared-prefix scenario's bounded-amplification claim: dropping
//!   parameters must not blow up prefix recompute across dependents);
//! - optionally `min_goodput_frac`: `{ "A": floor }` — system A's
//!   `goodput_frac` (deadline-met completions over total) must reach the
//!   floor (the resilience scenario's graceful-degradation claim);
//! - optionally `goodput_greater_than`: `{ "A": "B" }` — system A's
//!   `goodput_frac` must be strictly above system B's (shedding beats the
//!   no-shed ablation);
//! - optionally `max_shed_frac`: `{ "A": cap }` — system A's
//!   `shed_requests / total` must stay at or below the cap (admission
//!   control may not buy goodput by shedding everything);
//! - optionally `retry_decays` / `retry_grows`: `[ "A", ... ]` — system
//!   A's `retries_late` must be strictly below / above its
//!   `retries_early` (the cascade damps under shedding; the ablation's
//!   retry storm keeps growing);
//! - optionally `max_wall_clock_ms`: ceiling on the document's recorded
//!   `wall_clock_ms` (the per-figure form of the `--budget` gate);
//! - optionally `min_speedup` (+ `min_speedup_host_threads`, default 4):
//!   the bench JSON's `speedup` must reach the floor. The gate consults
//!   the *live* `std::thread::available_parallelism()`: with enough host
//!   cores it always enforces (a missing or understated
//!   `threads_available` in the bench JSON is a loud failure, never a
//!   silent self-skip); on a smaller box it prints a loud SKIPPED line
//!   (a 1-core CI box cannot show wall-clock speedup) unless
//!   `KS_CI_FORCE_SPEEDUP_GATE=1` forces enforcement.
//!
//! Wall-clock metadata (`wall_clock_ms`, `threads`) is echoed when
//! present so CI logs track bench-bin performance over time.

use bench::Json;
use std::process::ExitCode;

fn fail(msg: &str) -> ExitCode {
    eprintln!("check_bench_json: FAIL: {msg}");
    ExitCode::FAILURE
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path} is malformed JSON: {e}"))
}

/// Validates one document against the bench-JSON schema, appending one
/// message per violation.
fn check_schema(path: &str, doc: &Json, out: &mut Vec<String>) {
    let mut need_num = |key: &str| {
        if doc.get(key).and_then(Json::as_f64).is_none() {
            out.push(format!("{path}: missing numeric `{key}`"));
        }
    };
    need_num("wall_clock_ms");
    need_num("threads");
    need_num("threads_available");
    if doc.get("figure").and_then(Json::as_str).is_none() {
        out.push(format!("{path}: missing string `figure`"));
    }
    // Systems live at the top level (fig17/fig18 shape) or inside each
    // scenario (fig12 shape).
    let mut system_arrays: Vec<(String, &[Json])> = Vec::new();
    if let Some(systems) = doc.get("systems").and_then(Json::as_arr) {
        system_arrays.push(("systems".into(), systems));
    } else if let Some(scenarios) = doc.get("scenarios").and_then(Json::as_arr) {
        for (i, sc) in scenarios.iter().enumerate() {
            match sc.get("systems").and_then(Json::as_arr) {
                Some(systems) => system_arrays.push((format!("scenarios[{i}]"), systems)),
                None => out.push(format!("{path}: scenarios[{i}] lacks a `systems` array")),
            }
        }
    } else {
        out.push(format!("{path}: missing `systems` (or `scenarios`) array"));
    }
    for (ctx, systems) in system_arrays {
        if systems.is_empty() {
            out.push(format!("{path}: {ctx} is empty"));
        }
        for sys in systems {
            let name = sys
                .get("system")
                .and_then(Json::as_str)
                .unwrap_or("<unnamed>");
            if name == "<unnamed>" {
                out.push(format!("{path}: {ctx} entry lacks a string `system`"));
            }
            for key in ["total", "finished", "ttft_p99_s"] {
                if sys.get(key).and_then(Json::as_f64).is_none() {
                    out.push(format!("{path}: {ctx}/{name} lacks numeric `{key}`"));
                }
            }
            // Resilience bins (fig23) report the closed-loop client
            // counters as a set: a system that carries any of them must
            // carry all of them, numerically — goodput claims cannot ship
            // half-gated.
            const CLIENT_KEYS: [&str; 8] = [
                "goodput_frac",
                "goodput_requests",
                "deadline_misses",
                "shed_requests",
                "abandoned_requests",
                "retries",
                "retries_early",
                "retries_late",
            ];
            if CLIENT_KEYS.iter().any(|k| sys.get(k).is_some()) {
                for key in CLIENT_KEYS {
                    if sys.get(key).and_then(Json::as_f64).is_none() {
                        out.push(format!(
                            "{path}: {ctx}/{name} lacks numeric `{key}` (closed-loop \
                             client counters ship as a full set)"
                        ));
                    }
                }
            }
            // Multi-model systems must gate per model: every breakdown
            // entry carries its own p99.
            if let Some(models) = sys.get("models").and_then(Json::as_arr) {
                for (j, m) in models.iter().enumerate() {
                    if m.get("model").and_then(Json::as_str).is_none() {
                        out.push(format!(
                            "{path}: {ctx}/{name} models[{j}] lacks a string `model`"
                        ));
                    }
                    if m.get("ttft_p99_s").and_then(Json::as_f64).is_none() {
                        out.push(format!(
                            "{path}: {ctx}/{name} models[{j}] lacks numeric `ttft_p99_s` \
                             (multi-model output must be gateable per model)"
                        ));
                    }
                }
            }
        }
    }
}

fn run_schema_mode(paths: &[String]) -> ExitCode {
    if paths.is_empty() {
        return fail("usage: check_bench_json --schema <bench.json>...");
    }
    let mut violations = Vec::new();
    for path in paths {
        match load(path) {
            Ok(doc) => check_schema(path, &doc, &mut violations),
            Err(e) => violations.push(e),
        }
    }
    if violations.is_empty() {
        println!(
            "check_bench_json: PASS (schema valid for {} document{})",
            paths.len(),
            if paths.len() == 1 { "" } else { "s" }
        );
        return ExitCode::SUCCESS;
    }
    for v in &violations {
        eprintln!("check_bench_json: schema: {v}");
    }
    fail(&format!("{} schema violation(s)", violations.len()))
}

/// The rule IDs `target/simlint.json` must account for — kept in sync
/// with `simlint::rules::ALL_RULES` (the simlint test suite pins the
/// report shape; this gate pins that CI parses the same contract).
const SIMLINT_RULES: &[&str] = &[
    "D-MAP",
    "D-TIME",
    "D-RAND",
    "D-CAST",
    "U-FILE",
    "U-SAFETY",
    "LINT-PRAGMA",
];

/// Validates `target/simlint.json`: the report must carry the simlint
/// contract (figure/tool/schema_version/wall_clock_ms/files_scanned/ok,
/// per-rule counters for every known rule, a diagnostics array), be
/// internally consistent (`ok` ⇔ zero fired ⇔ no diagnostics), and be
/// clean (`ok: true`) — an unsuppressed diagnostic fails the gate.
fn run_simlint_mode(paths: &[String]) -> ExitCode {
    let [path] = paths else {
        return fail("usage: check_bench_json --simlint <simlint.json>");
    };
    let doc = match load(path) {
        Ok(d) => d,
        Err(e) => return fail(&e),
    };
    let mut v: Vec<String> = Vec::new();
    for (key, want) in [("figure", "simlint"), ("tool", "simlint")] {
        if doc.get(key).and_then(Json::as_str) != Some(want) {
            v.push(format!("{path}: `{key}` must be the string \"{want}\""));
        }
    }
    if doc.get("schema_version").and_then(Json::as_f64) != Some(1.0) {
        v.push(format!("{path}: `schema_version` must be 1"));
    }
    if doc.get("wall_clock_ms").and_then(Json::as_f64).is_none() {
        v.push(format!("{path}: missing numeric `wall_clock_ms`"));
    }
    let files = doc.get("files_scanned").and_then(Json::as_f64);
    if files.is_none_or(|f| f < 1.0) {
        v.push(format!("{path}: `files_scanned` must be a positive number"));
    }
    let ok = doc.get("ok").and_then(Json::as_bool);
    if ok.is_none() {
        v.push(format!("{path}: missing boolean `ok`"));
    }

    let mut total_fired = 0.0;
    match doc.get("rules").and_then(Json::as_arr) {
        Some(rules) => {
            for want in SIMLINT_RULES {
                let Some(entry) = rules
                    .iter()
                    .find(|r| r.get("rule").and_then(Json::as_str) == Some(want))
                else {
                    v.push(format!("{path}: rules[] lacks an entry for `{want}`"));
                    continue;
                };
                for key in ["fired", "suppressed", "allowlisted"] {
                    match entry.get(key).and_then(Json::as_f64) {
                        Some(n) if n >= 0.0 => {
                            if key == "fired" {
                                total_fired += n;
                            }
                        }
                        _ => v.push(format!("{path}: rule `{want}` lacks numeric `{key}`")),
                    }
                }
            }
        }
        None => v.push(format!("{path}: missing `rules` array")),
    }

    let mut diag_count = 0usize;
    match doc.get("diagnostics").and_then(Json::as_arr) {
        Some(diags) => {
            diag_count = diags.len();
            for (i, d) in diags.iter().enumerate() {
                if d.get("rule").and_then(Json::as_str).is_none()
                    || d.get("file").and_then(Json::as_str).is_none()
                    || d.get("line").and_then(Json::as_f64).is_none()
                    || d.get("message").and_then(Json::as_str).is_none()
                {
                    v.push(format!(
                        "{path}: diagnostics[{i}] lacks rule/file/line/message"
                    ));
                }
            }
        }
        None => v.push(format!("{path}: missing `diagnostics` array")),
    }

    // Internal consistency: the three clean-scan signals must agree.
    if let Some(ok) = ok {
        if ok != (diag_count == 0) || ok != (total_fired == 0.0) {
            v.push(format!(
                "{path}: inconsistent report: ok={ok}, {diag_count} diagnostics, \
                 {total_fired:.0} fired"
            ));
        }
    }

    if !v.is_empty() {
        for msg in &v {
            eprintln!("check_bench_json: simlint: {msg}");
        }
        return fail(&format!("{} simlint schema violation(s)", v.len()));
    }
    if ok != Some(true) {
        return fail(&format!(
            "{path}: simlint found {diag_count} unsuppressed diagnostic(s) — \
             run `cargo run -p simlint` for file:line details"
        ));
    }
    println!(
        "check_bench_json: PASS (simlint clean: {:.0} files, 0 unsuppressed diagnostics)",
        files.unwrap_or(0.0)
    );
    ExitCode::SUCCESS
}

fn run_budget_mode(paths: &[String]) -> ExitCode {
    let [budget_path, bench_paths @ ..] = paths else {
        return fail("usage: check_bench_json --budget <budget.json> <bench.json>...");
    };
    if bench_paths.is_empty() {
        return fail("usage: check_bench_json --budget <budget.json> <bench.json>...");
    }
    let budget = match load(budget_path) {
        Ok(b) => b,
        Err(e) => return fail(&e),
    };
    let Some(budgets) = budget.get("budgets").and_then(Json::as_obj) else {
        return fail(&format!("{budget_path} lacks a `budgets` object"));
    };
    for path in bench_paths {
        let doc = match load(path) {
            Ok(d) => d,
            Err(e) => return fail(&e),
        };
        let Some(fig) = doc.get("figure").and_then(Json::as_str) else {
            return fail(&format!("{path}: missing string `figure`"));
        };
        let Some(wall) = doc.get("wall_clock_ms").and_then(Json::as_f64) else {
            return fail(&format!("{path}: missing numeric `wall_clock_ms`"));
        };
        let Some(ceiling) = budgets
            .iter()
            .find(|(k, _)| k == fig)
            .and_then(|(_, v)| v.as_f64())
        else {
            return fail(&format!(
                "{path}: figure `{fig}` has no wall-clock budget in {budget_path} — \
                 every tier-1 smoke must be budgeted"
            ));
        };
        if wall > ceiling {
            return fail(&format!(
                "{path}: `{fig}` took {wall:.0} ms, over its {ceiling:.0} ms budget"
            ));
        }
        println!("check_bench_json: ok: {fig} wall_clock {wall:.0} ms <= {ceiling:.0} ms");
    }
    println!(
        "check_bench_json: PASS ({} document(s) within wall-clock budget)",
        bench_paths.len()
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.split_first() {
        Some((mode, rest)) if mode == "--schema" => return run_schema_mode(rest),
        Some((mode, rest)) if mode == "--budget" => return run_budget_mode(rest),
        Some((mode, rest)) if mode == "--simlint" => return run_simlint_mode(rest),
        _ => {}
    }
    let [bench_path, tol_path] = args.as_slice() else {
        return fail(
            "usage: check_bench_json <bench.json> <tolerance.json> | --schema <bench.json>... \
             | --budget <budget.json> <bench.json>... | --simlint <simlint.json>",
        );
    };
    let bench = match load(bench_path) {
        Ok(v) => v,
        Err(e) => return fail(&e),
    };
    let tol = match load(tol_path) {
        Ok(v) => v,
        Err(e) => return fail(&e),
    };

    // The figure name must match the tolerance's target.
    let (Some(fig), Some(want_fig)) = (
        bench.get("figure").and_then(Json::as_str),
        tol.get("figure").and_then(Json::as_str),
    ) else {
        return fail("both files need a string `figure` field");
    };
    if fig != want_fig {
        return fail(&format!("figure mismatch: got `{fig}`, want `{want_fig}`"));
    }

    // Top-level `systems` (fig18 shape), or one scenario's `systems`
    // selected by the tolerance's `scenario` field (fig12 shape).
    let systems = match bench.get("systems").and_then(Json::as_arr) {
        Some(s) => s,
        None => {
            let Some(want_sc) = tol.get("scenario").and_then(Json::as_str) else {
                return fail(
                    "bench JSON lacks a top-level `systems` array and the tolerance names no `scenario`",
                );
            };
            let Some(scenarios) = bench.get("scenarios").and_then(Json::as_arr) else {
                return fail("bench JSON lacks both `systems` and `scenarios`");
            };
            let Some(sc) = scenarios
                .iter()
                .find(|s| s.get("scenario").and_then(Json::as_str) == Some(want_sc))
            else {
                return fail(&format!("bench JSON has no scenario `{want_sc}`"));
            };
            match sc.get("systems").and_then(Json::as_arr) {
                Some(s) => s,
                None => return fail(&format!("scenario `{want_sc}` lacks a `systems` array")),
            }
        }
    };
    let Some(ceilings) = tol.get("max_ttft_p99_s").and_then(Json::as_obj) else {
        return fail("tolerance lacks a `max_ttft_p99_s` object");
    };
    let min_finished = tol
        .get("min_finished_frac")
        .and_then(Json::as_f64)
        .unwrap_or(1.0);

    let mut checked = 0;
    for (name, ceiling) in ceilings {
        let Some(ceiling) = ceiling.as_f64() else {
            return fail(&format!("tolerance for `{name}` is not a number"));
        };
        let Some(sys) = systems
            .iter()
            .find(|s| s.get("system").and_then(Json::as_str) == Some(name))
        else {
            return fail(&format!("bench JSON has no system `{name}`"));
        };
        let p99 = sys.get("ttft_p99_s").and_then(Json::as_f64);
        let finished = sys.get("finished").and_then(Json::as_f64);
        let total = sys.get("total").and_then(Json::as_f64);
        let (Some(p99), Some(finished), Some(total)) = (p99, finished, total) else {
            return fail(&format!("system `{name}` lacks p99/finished/total fields"));
        };
        if !p99.is_finite() || p99 < 0.0 {
            return fail(&format!("system `{name}`: p99 TTFT {p99} is not sane"));
        }
        if p99 > ceiling {
            return fail(&format!(
                "system `{name}`: p99 TTFT {p99:.3}s exceeds tolerance {ceiling:.3}s"
            ));
        }
        if total <= 0.0 || finished < total * min_finished {
            return fail(&format!(
                "system `{name}`: finished {finished}/{total} below the {min_finished} floor"
            ));
        }
        println!(
            "check_bench_json: ok: {name} p99 {p99:.3}s <= {ceiling:.3}s, finished {finished}/{total}"
        );
        checked += 1;
    }
    if checked == 0 {
        return fail("tolerance file pinned no systems");
    }

    // Ordering claims: A's p99 must beat B's.
    if let Some(orderings) = tol.get("p99_less_than").and_then(Json::as_obj) {
        let p99_of = |name: &str| -> Option<f64> {
            systems
                .iter()
                .find(|s| s.get("system").and_then(Json::as_str) == Some(name))?
                .get("ttft_p99_s")
                .and_then(Json::as_f64)
        };
        for (a, b) in orderings {
            let Some(b) = b.as_str() else {
                return fail(&format!("p99_less_than value for `{a}` is not a string"));
            };
            let (Some(pa), Some(pb)) = (p99_of(a), p99_of(b)) else {
                return fail(&format!("p99_less_than: missing system `{a}` or `{b}`"));
            };
            if pa >= pb {
                return fail(&format!(
                    "ordering violated: `{a}` p99 {pa:.3}s must be below `{b}` p99 {pb:.3}s"
                ));
            }
            println!("check_bench_json: ok: {a} p99 {pa:.3}s < {b} p99 {pb:.3}s");
        }
    }

    // Per-model ordering claims: within one model's breakdown, A beats B.
    if let Some(per_model) = tol.get("per_model_p99_less_than").and_then(Json::as_obj) {
        let model_p99 = |sys_name: &str, model: &str| -> Option<f64> {
            systems
                .iter()
                .find(|s| s.get("system").and_then(Json::as_str) == Some(sys_name))?
                .get("models")?
                .as_arr()?
                .iter()
                .find(|m| m.get("model").and_then(Json::as_str) == Some(model))?
                .get("ttft_p99_s")?
                .as_f64()
        };
        for (model, pairs) in per_model {
            let Some(pairs) = pairs.as_obj() else {
                return fail(&format!(
                    "per_model_p99_less_than[{model}] is not an object"
                ));
            };
            for (a, b) in pairs {
                let Some(b) = b.as_str() else {
                    return fail(&format!(
                        "per-model ordering value for `{a}` is not a string"
                    ));
                };
                let (Some(pa), Some(pb)) = (model_p99(a, model), model_p99(b, model)) else {
                    return fail(&format!(
                        "per-model ordering: model `{model}` missing in `{a}` or `{b}`"
                    ));
                };
                if pa >= pb {
                    return fail(&format!(
                        "per-model ordering violated ({model}): `{a}` p99 {pa:.3}s must be \
                         below `{b}` p99 {pb:.3}s"
                    ));
                }
                println!("check_bench_json: ok: [{model}] {a} p99 {pa:.3}s < {b} p99 {pb:.3}s");
            }
        }
    }

    // Donation floors: the mechanism must actually have fired.
    if let Some(floors) = tol.get("min_donated_bytes").and_then(Json::as_obj) {
        for (name, floor) in floors {
            let Some(floor) = floor.as_f64() else {
                return fail(&format!("min_donated_bytes for `{name}` is not a number"));
            };
            let donated = systems
                .iter()
                .find(|s| s.get("system").and_then(Json::as_str) == Some(name))
                .and_then(|s| s.get("donated_bytes_peak"))
                .and_then(Json::as_f64);
            let Some(donated) = donated else {
                return fail(&format!("system `{name}` lacks `donated_bytes_peak`"));
            };
            if donated < floor {
                return fail(&format!(
                    "system `{name}`: donated_bytes_peak {donated:.0} below the {floor:.0} floor"
                ));
            }
            println!("check_bench_json: ok: {name} donated_bytes_peak {donated:.0} >= {floor:.0}");
        }
    }

    // Donation-granularity ordering: A must donate strictly less than B
    // (the layer-granular claim — donate less, rescue the same).
    if let Some(orderings) = tol.get("donated_bytes_less_than").and_then(Json::as_obj) {
        let donated_of = |name: &str| -> Option<f64> {
            systems
                .iter()
                .find(|s| s.get("system").and_then(Json::as_str) == Some(name))?
                .get("donated_bytes_peak")
                .and_then(Json::as_f64)
        };
        for (a, b) in orderings {
            let Some(b) = b.as_str() else {
                return fail(&format!(
                    "donated_bytes_less_than value for `{a}` is not a string"
                ));
            };
            let (Some(da), Some(db)) = (donated_of(a), donated_of(b)) else {
                return fail(&format!(
                    "donated_bytes_less_than: `{a}` or `{b}` lacks `donated_bytes_peak`"
                ));
            };
            if da >= db {
                return fail(&format!(
                    "donation ordering violated: `{a}` peak {da:.0} B must be strictly \
                     below `{b}` peak {db:.0} B"
                ));
            }
            println!("check_bench_json: ok: {a} donated {da:.0} B < {b} donated {db:.0} B");
        }
    }

    // Bounded shared-prefix recompute: a system may not amplify prefix
    // recompute past its cap (fig21's fidelity claim — the drop planner's
    // evictions cost each shared prefix a bounded number of recomputes).
    if let Some(caps) = tol
        .get("max_prefix_recompute_amplification")
        .and_then(Json::as_obj)
    {
        for (name, cap) in caps {
            let Some(cap) = cap.as_f64() else {
                return fail(&format!(
                    "max_prefix_recompute_amplification for `{name}` is not a number"
                ));
            };
            let amp = systems
                .iter()
                .find(|s| s.get("system").and_then(Json::as_str) == Some(name))
                .and_then(|s| s.get("prefix_recompute_amplification"))
                .and_then(Json::as_f64);
            let Some(amp) = amp else {
                return fail(&format!(
                    "system `{name}` lacks `prefix_recompute_amplification`"
                ));
            };
            if !amp.is_finite() || amp < 0.0 {
                return fail(&format!(
                    "system `{name}`: prefix amplification {amp} is not sane"
                ));
            }
            if amp > cap {
                return fail(&format!(
                    "system `{name}`: prefix recompute amplification {amp:.3} exceeds \
                     the {cap:.3} cap"
                ));
            }
            println!("check_bench_json: ok: {name} prefix amplification {amp:.3} <= {cap:.3}");
        }
    }

    // Closed-loop resilience gates (fig23): goodput floors and ordering,
    // a shed-volume cap, and the retry-storm direction per arm.
    let field_of = |name: &str, key: &str| -> Option<f64> {
        systems
            .iter()
            .find(|s| s.get("system").and_then(Json::as_str) == Some(name))?
            .get(key)
            .and_then(Json::as_f64)
    };
    if let Some(floors) = tol.get("min_goodput_frac").and_then(Json::as_obj) {
        for (name, floor) in floors {
            let Some(floor) = floor.as_f64() else {
                return fail(&format!("min_goodput_frac for `{name}` is not a number"));
            };
            let Some(frac) = field_of(name, "goodput_frac") else {
                return fail(&format!("system `{name}` lacks `goodput_frac`"));
            };
            if !frac.is_finite() || !(0.0..=1.0).contains(&frac) {
                return fail(&format!("system `{name}`: goodput_frac {frac} is not sane"));
            }
            if frac < floor {
                return fail(&format!(
                    "system `{name}`: goodput_frac {frac:.3} below the {floor:.3} floor"
                ));
            }
            println!("check_bench_json: ok: {name} goodput {frac:.3} >= {floor:.3}");
        }
    }
    if let Some(orderings) = tol.get("goodput_greater_than").and_then(Json::as_obj) {
        for (a, b) in orderings {
            let Some(b) = b.as_str() else {
                return fail(&format!(
                    "goodput_greater_than value for `{a}` is not a string"
                ));
            };
            let (Some(ga), Some(gb)) = (field_of(a, "goodput_frac"), field_of(b, "goodput_frac"))
            else {
                return fail(&format!(
                    "goodput_greater_than: `{a}` or `{b}` lacks `goodput_frac`"
                ));
            };
            if ga <= gb {
                return fail(&format!(
                    "goodput ordering violated: `{a}` {ga:.3} must be strictly above `{b}` {gb:.3}"
                ));
            }
            println!("check_bench_json: ok: {a} goodput {ga:.3} > {b} goodput {gb:.3}");
        }
    }
    if let Some(caps) = tol.get("max_shed_frac").and_then(Json::as_obj) {
        for (name, cap) in caps {
            let Some(cap) = cap.as_f64() else {
                return fail(&format!("max_shed_frac for `{name}` is not a number"));
            };
            let (Some(shed), Some(total)) =
                (field_of(name, "shed_requests"), field_of(name, "total"))
            else {
                return fail(&format!(
                    "system `{name}` lacks `shed_requests`/`total` for max_shed_frac"
                ));
            };
            let frac = if total > 0.0 { shed / total } else { 1.0 };
            if frac > cap {
                return fail(&format!(
                    "system `{name}`: shed {shed:.0}/{total:.0} = {frac:.3} over the {cap:.3} cap \
                     — admission control may not buy goodput by shedding everything"
                ));
            }
            println!("check_bench_json: ok: {name} shed_frac {frac:.3} <= {cap:.3}");
        }
    }
    // Retry-storm direction: under shedding the re-arrival volume must
    // fall from the outage window to the recovery window (the cascade
    // damps); the no-shed ablation must show it still growing (the
    // metastable spiral the scenario exists to demonstrate).
    for (key, want_decay) in [("retry_decays", true), ("retry_grows", false)] {
        let Some(names) = tol.get(key).and_then(Json::as_arr) else {
            continue;
        };
        for name in names {
            let Some(name) = name.as_str() else {
                return fail(&format!("`{key}` entries must be system-name strings"));
            };
            let (Some(early), Some(late)) = (
                field_of(name, "retries_early"),
                field_of(name, "retries_late"),
            ) else {
                return fail(&format!(
                    "system `{name}` lacks `retries_early`/`retries_late` for `{key}`"
                ));
            };
            let ok = if want_decay {
                late < early
            } else {
                late > early
            };
            if !ok {
                return fail(&format!(
                    "system `{name}`: retry volume early {early:.0} -> late {late:.0} \
                     violates `{key}`"
                ));
            }
            println!(
                "check_bench_json: ok: {name} retries early {early:.0} -> late {late:.0} ({key})"
            );
        }
    }

    // Executor wall-clock metadata, the per-figure budget ceiling, and the
    // host-conditional speedup gate.
    if let Some(wall) = bench.get("wall_clock_ms").and_then(Json::as_f64) {
        let threads = bench.get("threads").and_then(Json::as_f64).unwrap_or(1.0);
        println!("check_bench_json: wall_clock {wall:.0} ms at {threads:.0} threads");
    }
    if let Some(ceiling) = tol.get("max_wall_clock_ms").and_then(Json::as_f64) {
        let Some(wall) = bench.get("wall_clock_ms").and_then(Json::as_f64) else {
            return fail(
                "tolerance sets `max_wall_clock_ms` but bench JSON has no `wall_clock_ms`",
            );
        };
        if wall > ceiling {
            return fail(&format!(
                "wall_clock {wall:.0} ms exceeds the {ceiling:.0} ms budget"
            ));
        }
        println!("check_bench_json: ok: wall_clock {wall:.0} ms <= {ceiling:.0} ms");
    }
    if let Some(min_speedup) = tol.get("min_speedup").and_then(Json::as_f64) {
        let Some(speedup) = bench.get("speedup").and_then(Json::as_f64) else {
            return fail("tolerance requires `min_speedup` but bench JSON has no `speedup`");
        };
        // The gate decides on the LIVE host parallelism, not only on what
        // the bench JSON recorded: a malformed or stale `threads_available`
        // must never silently waive a perf floor on a capable machine.
        let Some(recorded) = bench.get("threads_available").and_then(Json::as_f64) else {
            return fail(
                "tolerance requires `min_speedup` but bench JSON has no `threads_available` \
                 — regenerate the bench JSON; the gate does not silently self-skip",
            );
        };
        let need_host = tol
            .get("min_speedup_host_threads")
            .and_then(Json::as_f64)
            .unwrap_or(4.0);
        let live = std::thread::available_parallelism()
            .map(|n| n.get() as f64)
            .unwrap_or(1.0);
        let forced = std::env::var("KS_CI_FORCE_SPEEDUP_GATE").as_deref() == Ok("1");
        if forced || live >= need_host {
            if recorded < need_host && !forced {
                return fail(&format!(
                    "host has {live:.0} threads (gate needs {need_host:.0}) but the bench \
                     JSON recorded threads_available {recorded:.0} — the bench ran degraded \
                     or on another machine; regenerate it (or force with \
                     KS_CI_FORCE_SPEEDUP_GATE=1)"
                ));
            }
            if speedup < min_speedup {
                return fail(&format!(
                    "speedup {speedup:.2}x below the {min_speedup:.2}x floor \
                     ({recorded:.0} recorded / {live:.0} live host threads)"
                ));
            }
            println!("check_bench_json: ok: speedup {speedup:.2}x >= {min_speedup:.2}x");
        } else {
            println!(
                "check_bench_json: SKIPPED: min_speedup gate NOT enforced — live host has \
                 {live:.0} threads, gate needs {need_host:.0} (recorded {recorded:.0}); \
                 speedup {speedup:.2}x recorded. Set KS_CI_FORCE_SPEEDUP_GATE=1 to enforce \
                 on this machine."
            );
        }
    }

    println!("check_bench_json: PASS ({checked} systems within tolerance)");
    ExitCode::SUCCESS
}
