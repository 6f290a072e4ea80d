//! The CI gate over the documents `figs --gate` writes.
//!
//! [`check`] reads the text of one figure's document, the figure's
//! tolerance file and the wall-clock budgets, and returns one [`Verdict`]
//! per check, in three groups:
//!
//! - **schema**: a string `figure`; numeric `wall_clock_ms`, `threads` and
//!   `threads_available`; a non-empty `systems` array whose entries carry a
//!   string `system` and numeric `total`, `finished` and `ttft_p99_s`, the
//!   eight closed-loop client counters all or none, and a string `model`
//!   and numeric `ttft_p99_s` in every `models` breakdown entry;
//! - **tolerance**: every key of the tolerance file, as the table below
//!   says. A key the gate does not know fails, so a misspelled key cannot
//!   switch its check off;
//! - **budget**: the document's `wall_clock_ms` at or under the figure's
//!   ceiling in `ci_budget.json` (`{"comment": ..., "budgets": {figure:
//!   ms}}`, no other keys).
//!
//! | Key | Value | Check |
//! |---|---|---|
//! | `figure` | name | the document's `figure` (required) |
//! | `max_ttft_p99_s` | `{system: s}` | p99 TTFT at most the cap, and `min_finished_frac` finished (required, non-empty) |
//! | `min_finished_frac` | fraction | finished / total floor for the systems above (default 1) |
//! | `max_prefix_recompute_amplification` | `{system: cap}` | prefix recompute amplification at most the cap |
//! | `max_shed_frac` | `{system: cap}` | shed / total at most the cap (1 with no requests) |
//! | `min_donated_bytes` | `{system: bytes}` | `donated_bytes_peak` at least the floor |
//! | `min_goodput_frac` | `{system: fraction}` | `goodput_frac` at least the floor |
//! | `p99_less_than` | `{A: B}` | A's p99 TTFT strictly below B's |
//! | `per_model_p99_less_than` | `{model: {A: B}}` | the same within one model's breakdown |
//! | `donated_bytes_less_than` | `{A: B}` | A's `donated_bytes_peak` strictly below B's |
//! | `goodput_greater_than` | `{A: B}` | A's `goodput_frac` strictly above B's |
//! | `retry_decays` / `retry_grows` | `[system]` | `retries_late` strictly below / above `retries_early` |
//!
//! p99 TTFT and prefix amplification must be finite and non-negative, and
//! `goodput_frac` must lie in [0, 1], wherever a check reads them.

use std::fmt;

use crate::Json;

/// `ci_budget.json`: each gated figure's wall-clock ceiling in ms.
pub const BUDGETS: &str = include_str!("../tolerances/ci_budget.json");

/// The outcome of one check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// The check held.
    Ok(String),
    /// The check failed.
    Fail(String),
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Ok(what) => write!(f, "ok,{what}"),
            Verdict::Fail(what) => write!(f, "FAIL,{what}"),
        }
    }
}

/// Checks `doc`, the text of a figure's document, against the schema,
/// the text of the figure's `tolerance` file and the `budgets` text.
pub fn check(doc: &str, tolerance: &str, budgets: &str) -> Vec<Verdict> {
    let doc = match Json::parse(doc) {
        Ok(doc) => doc,
        Err(e) => return vec![Verdict::Fail(format!("document: does not parse: {e}"))],
    };
    let mut gate = Gate {
        doc: &doc,
        systems: doc
            .get("systems")
            .and_then(Json::as_arr)
            .unwrap_or_default(),
        out: Vec::new(),
    };
    gate.schema();
    match Json::parse(tolerance) {
        Ok(tol) => gate.tolerance(&tol),
        Err(e) => gate.fail(format!("tolerance: does not parse: {e}")),
    }
    match Json::parse(budgets) {
        Ok(budgets) => gate.budget(&budgets),
        Err(e) => gate.fail(format!("budget: ci_budget.json does not parse: {e}")),
    }
    gate.out
}

const EXEC_META: [&str; 3] = ["wall_clock_ms", "threads", "threads_available"];
const SYSTEM_FIELDS: [&str; 3] = ["total", "finished", "ttft_p99_s"];
const CLIENT_COUNTERS: [&str; 8] = [
    "goodput_frac",
    "goodput_requests",
    "deadline_misses",
    "shed_requests",
    "abandoned_requests",
    "retries",
    "retries_early",
    "retries_late",
];

/// A number the checks read off one `systems` (or `models`) entry.
#[derive(Debug, Clone, Copy)]
enum Metric {
    /// A numeric field as it is.
    Field(&'static str),
    /// A numeric field that must be finite and non-negative.
    NonNegative(&'static str),
    /// A numeric field that must lie in [0, 1].
    Fraction(&'static str),
    /// `finished / total`; a system without requests has none.
    FinishedFrac,
    /// `shed_requests / total`, 1 for a system without requests.
    ShedFrac,
}

const P99: Metric = Metric::NonNegative("ttft_p99_s");
const AMPLIFICATION: Metric = Metric::NonNegative("prefix_recompute_amplification");
const GOODPUT: Metric = Metric::Fraction("goodput_frac");
const DONATED: Metric = Metric::Field("donated_bytes_peak");

impl Metric {
    fn name(self) -> &'static str {
        match self {
            Metric::Field(key) | Metric::NonNegative(key) | Metric::Fraction(key) => key,
            Metric::FinishedFrac => "finished/total",
            Metric::ShedFrac => "shed_requests/total",
        }
    }

    /// The metric of `entry`, or why it has none.
    fn read(self, entry: &Json) -> Result<f64, String> {
        let field = |key: &str| {
            entry
                .get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("has no numeric `{key}`"))
        };
        let value = match self {
            Metric::Field(key) | Metric::NonNegative(key) | Metric::Fraction(key) => field(key)?,
            Metric::FinishedFrac => match field("total")? {
                total if total > 0.0 => field("finished")? / total,
                _ => return Err("has no requests".into()),
            },
            Metric::ShedFrac => match (field("shed_requests")?, field("total")?) {
                (shed, total) if total > 0.0 => shed / total,
                _ => 1.0,
            },
        };
        let sane = match self {
            Metric::NonNegative(_) => value.is_finite() && value >= 0.0,
            Metric::Fraction(_) => (0.0..=1.0).contains(&value),
            _ => true,
        };
        if sane {
            Ok(value)
        } else {
            Err(format!("has {} {value}, which is not sane", self.name()))
        }
    }
}

/// What one tolerance key checks (see the module table).
#[derive(Debug, Clone, Copy)]
enum Rule {
    /// A name: the document's `figure`.
    Figure,
    /// `{system: cap}`: p99 TTFT at most the cap, and at least
    /// `min_finished_frac` of the requests finished.
    Pin,
    /// `{system: bound}`: the metric at most the cap ([`Op::AtMost`]) or
    /// at least the floor ([`Op::AtLeast`]).
    Bound(Metric, Op),
    /// `{A: B}`: A's metric strictly below or above B's.
    Order(Metric, Op),
    /// `{model: {A: B}}`: A's p99 TTFT strictly below B's in `model`'s
    /// breakdown entry.
    PerModelBelow,
    /// `[system]`: `retries_late` strictly below or above `retries_early`.
    Retries(Op),
    /// A number another rule reads.
    Setting,
}

/// Every tolerance key, in the order the gate checks them.
const RULES: &[(&str, Rule)] = &[
    ("figure", Rule::Figure),
    ("max_ttft_p99_s", Rule::Pin),
    ("min_finished_frac", Rule::Setting),
    (
        "max_prefix_recompute_amplification",
        Rule::Bound(AMPLIFICATION, Op::AtMost),
    ),
    ("max_shed_frac", Rule::Bound(Metric::ShedFrac, Op::AtMost)),
    ("min_donated_bytes", Rule::Bound(DONATED, Op::AtLeast)),
    ("min_goodput_frac", Rule::Bound(GOODPUT, Op::AtLeast)),
    ("p99_less_than", Rule::Order(P99, Op::Below)),
    ("per_model_p99_less_than", Rule::PerModelBelow),
    ("donated_bytes_less_than", Rule::Order(DONATED, Op::Below)),
    ("goodput_greater_than", Rule::Order(GOODPUT, Op::Above)),
    ("retry_decays", Rule::Retries(Op::Below)),
    ("retry_grows", Rule::Retries(Op::Above)),
];

/// How a check compares its two sides.
#[derive(Debug, Clone, Copy)]
enum Op {
    AtMost,
    AtLeast,
    Below,
    Above,
}

impl Op {
    fn holds(self, lhs: f64, rhs: f64) -> bool {
        match self {
            Op::AtMost => lhs <= rhs,
            Op::AtLeast => lhs >= rhs,
            Op::Below => lhs < rhs,
            Op::Above => lhs > rhs,
        }
    }

    /// How the comparison reads when it holds, and when it does not.
    fn words(self) -> (&'static str, &'static str) {
        match self {
            Op::AtMost => ("<=", ">"),
            Op::AtLeast => (">=", "<"),
            Op::Below => ("<", "is not below"),
            Op::Above => (">", "is not above"),
        }
    }
}

/// One side of a comparison: what it is, and its value or why it has none.
type Side = (String, Result<f64, String>);

/// A bound from the tolerance or the budget file.
fn bound(what: &str, value: &Json) -> Side {
    let value = value
        .as_f64()
        .ok_or_else(|| format!("the {what} is not a number"));
    (what.to_string(), value)
}

fn obj(value: &Json) -> Result<&[(String, Json)], String> {
    value.as_obj().ok_or_else(|| "expected an object".into())
}

fn name(value: &Json) -> Result<&str, String> {
    value
        .as_str()
        .ok_or_else(|| "expected a system name".into())
}

struct Gate<'a> {
    doc: &'a Json,
    systems: &'a [Json],
    out: Vec<Verdict>,
}

impl Gate<'_> {
    fn fail(&mut self, what: String) {
        self.out.push(Verdict::Fail(what));
    }

    /// Records `<key>: <lhs> <op> <rhs>`, failing when the comparison
    /// does not hold or a side has no value.
    fn compare(&mut self, key: &str, (lhs, l): Side, op: Op, (rhs, r): Side) {
        let (l, r) = match (l, r) {
            (Ok(l), Ok(r)) => (l, r),
            (Err(e), _) => return self.fail(format!("{key}: {e}")),
            (_, Err(e)) => return self.fail(format!("{key}: {lhs}: {e}")),
        };
        let (yes, no) = op.words();
        if op.holds(l, r) {
            self.out
                .push(Verdict::Ok(format!("{key}: {lhs} {l} {yes} {rhs} {r}")));
        } else {
            self.fail(format!("{key}: {lhs} {l} {no} {rhs} {r}"));
        }
    }

    /// The `systems` entry named `name`.
    fn system(&self, name: &str) -> Result<&Json, String> {
        self.systems
            .iter()
            .find(|s| s.get("system").and_then(Json::as_str) == Some(name))
            .ok_or_else(|| format!("the document has no system `{name}`"))
    }

    /// `metric` of the system named `name`.
    fn side(&self, name: &str, metric: Metric) -> Side {
        let value = self
            .system(name)
            .and_then(|s| metric.read(s).map_err(|e| format!("`{name}` {e}")));
        (format!("{name} {}", metric.name()), value)
    }

    /// p99 TTFT of the system named `name` in `model`'s breakdown entry.
    fn model_side(&self, name: &str, model: &str) -> Side {
        let value = self.system(name).and_then(|s| {
            let entry = s
                .get("models")
                .and_then(Json::as_arr)
                .and_then(|ms| {
                    ms.iter()
                        .find(|m| m.get("model").and_then(Json::as_str) == Some(model))
                })
                .ok_or_else(|| format!("`{name}` has no model `{model}`"))?;
            P99.read(entry)
                .map_err(|e| format!("`{name}` [{model}] {e}"))
        });
        (format!("{name} [{model}] {}", P99.name()), value)
    }

    fn schema(&mut self) {
        let mut faults = Vec::new();
        if self.doc.get("figure").and_then(Json::as_str).is_none() {
            faults.push("no string `figure`".to_string());
        }
        for key in EXEC_META {
            if self.doc.get(key).and_then(Json::as_f64).is_none() {
                faults.push(format!("no numeric `{key}`"));
            }
        }
        match self.doc.get("systems").and_then(Json::as_arr) {
            None => faults.push("no `systems` array".into()),
            Some([]) => faults.push("`systems` is empty".into()),
            Some(systems) => systems.iter().for_each(|s| system_faults(s, &mut faults)),
        }
        if faults.is_empty() {
            let n = self.systems.len();
            self.out.push(Verdict::Ok(format!("schema: {n} systems")));
        }
        for fault in faults {
            self.fail(format!("schema: {fault}"));
        }
    }

    fn tolerance(&mut self, tol: &Json) {
        let Some(pairs) = tol.as_obj() else {
            return self.fail("tolerance: not an object".into());
        };
        for (key, _) in pairs {
            if !RULES.iter().any(|(k, _)| k == key) {
                self.fail(format!("tolerance: unknown key `{key}`"));
            }
        }
        for &(key, rule) in RULES {
            let result = match tol.get(key) {
                Some(value) => self.rule(key, rule, value, tol),
                None if matches!(rule, Rule::Figure | Rule::Pin) => Err("missing".into()),
                None => Ok(()),
            };
            if let Err(e) = result {
                self.fail(format!("{key}: {e}"));
            }
        }
    }

    /// Checks one tolerance key; `Err` when its value has the wrong shape.
    fn rule(&mut self, key: &str, rule: Rule, value: &Json, tol: &Json) -> Result<(), String> {
        match rule {
            Rule::Figure => {
                let want = value.as_str().ok_or("expected a figure name")?;
                match self.doc.get("figure").and_then(Json::as_str) {
                    Some(got) if got == want => self.out.push(Verdict::Ok(format!("{key}: {got}"))),
                    got => self.fail(format!(
                        "{key}: the document is `{}`, the tolerance gates `{want}`",
                        got.unwrap_or("?")
                    )),
                }
            }
            Rule::Pin => {
                let pins = obj(value)?;
                if pins.is_empty() {
                    return Err("pins no system".into());
                }
                let floor = tol.get("min_finished_frac").cloned();
                let floor = floor.unwrap_or(Json::Num(1.0));
                for (name, cap) in pins {
                    self.compare(key, self.side(name, P99), Op::AtMost, bound("cap", cap));
                    let finished = self.side(name, Metric::FinishedFrac);
                    let floor = bound("floor", &floor);
                    self.compare("min_finished_frac", finished, Op::AtLeast, floor);
                }
            }
            Rule::Bound(metric, op) => {
                let what = if matches!(op, Op::AtMost) {
                    "cap"
                } else {
                    "floor"
                };
                for (name, limit) in obj(value)? {
                    self.compare(key, self.side(name, metric), op, bound(what, limit));
                }
            }
            Rule::Order(metric, op) => {
                for (a, b) in obj(value)? {
                    let b = self.side(name(b)?, metric);
                    self.compare(key, self.side(a, metric), op, b);
                }
            }
            Rule::PerModelBelow => {
                for (model, pairs) in obj(value)? {
                    for (a, b) in obj(pairs)? {
                        let b = self.model_side(name(b)?, model);
                        self.compare(key, self.model_side(a, model), Op::Below, b);
                    }
                }
            }
            Rule::Retries(op) => {
                let names = value.as_arr().ok_or("expected an array of system names")?;
                for n in names {
                    let n = name(n)?;
                    let early = self.side(n, Metric::Field("retries_early"));
                    self.compare(key, self.side(n, Metric::Field("retries_late")), op, early);
                }
            }
            Rule::Setting => {
                value.as_f64().ok_or("expected a number")?;
            }
        }
        Ok(())
    }

    fn budget(&mut self, budgets: &Json) {
        let Some(pairs) = budgets.as_obj() else {
            return self.fail("budget: ci_budget.json is not an object".into());
        };
        for (key, _) in pairs {
            if key != "comment" && key != "budgets" {
                self.fail(format!("budget: unknown key `{key}` in ci_budget.json"));
            }
        }
        let figure = self.doc.get("figure").and_then(Json::as_str).unwrap_or("?");
        let ceiling = match budgets.get("budgets").and_then(|b| b.get(figure)) {
            Some(ms) => bound("ceiling", ms),
            None => {
                let no_budget = format!("`{figure}` has no wall-clock budget in ci_budget.json");
                ("ceiling".into(), Err(no_budget))
            }
        };
        let wall = self.doc.get("wall_clock_ms").and_then(Json::as_f64);
        let wall = wall.ok_or_else(|| "the document has no numeric `wall_clock_ms`".into());
        self.compare(
            "budget",
            ("wall_clock_ms".into(), wall),
            Op::AtMost,
            ceiling,
        );
    }
}

/// The schema faults of one `systems` entry.
fn system_faults(sys: &Json, faults: &mut Vec<String>) {
    let name = sys.get("system").and_then(Json::as_str);
    if name.is_none() {
        faults.push("a `systems` entry has no string `system`".into());
    }
    let name = name.unwrap_or("?");
    let lacks = |key: &&str| sys.get(key).and_then(Json::as_f64).is_none();
    for key in SYSTEM_FIELDS.iter().filter(|k| lacks(k)) {
        faults.push(format!("`{name}` has no numeric `{key}`"));
    }
    if CLIENT_COUNTERS.iter().any(|k| sys.get(k).is_some()) {
        for key in CLIENT_COUNTERS.iter().filter(|k| lacks(k)) {
            faults.push(format!(
                "`{name}` has no numeric `{key}`; the closed-loop client counters come as a set"
            ));
        }
    }
    for (j, m) in sys
        .get("models")
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .enumerate()
    {
        if m.get("model").and_then(Json::as_str).is_none() {
            faults.push(format!("`{name}` models[{j}] has no string `model`"));
        }
        if m.get("ttft_p99_s").and_then(Json::as_f64).is_none() {
            faults.push(format!("`{name}` models[{j}] has no numeric `ttft_p99_s`"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BUDGET: &str = r#"{"comment": "test", "budgets": {"fig_t": 1000}}"#;

    fn parse(text: &str) -> Json {
        Json::parse(text).expect("test JSON")
    }

    /// A document every check of [`tolerance`] passes on.
    fn doc() -> Json {
        parse(
            r#"{"figure": "fig_t", "systems": [
                {"system": "A", "total": 10, "finished": 10, "ttft_p99_s": 0.5,
                 "donated_bytes_peak": 100, "prefix_recompute_amplification": 1.5,
                 "goodput_frac": 0.9, "goodput_requests": 9, "deadline_misses": 1,
                 "shed_requests": 1, "abandoned_requests": 0, "retries": 5,
                 "retries_early": 4, "retries_late": 1,
                 "models": [{"model": "m1", "ttft_p99_s": 0.4}]},
                {"system": "B", "total": 10, "finished": 8, "ttft_p99_s": 2,
                 "donated_bytes_peak": 200, "prefix_recompute_amplification": 3,
                 "goodput_frac": 0.5, "goodput_requests": 5, "deadline_misses": 3,
                 "shed_requests": 0, "abandoned_requests": 2, "retries": 8,
                 "retries_early": 2, "retries_late": 6,
                 "models": [{"model": "m1", "ttft_p99_s": 3}]}],
             "wall_clock_ms": 100, "threads": 2, "threads_available": 4}"#,
        )
    }

    /// A tolerance that sets every key.
    fn tolerance() -> Json {
        parse(
            r#"{"figure": "fig_t",
                "max_ttft_p99_s": {"A": 1, "B": 5},
                "min_finished_frac": 0.8,
                "max_prefix_recompute_amplification": {"A": 2},
                "max_shed_frac": {"A": 0.2},
                "min_donated_bytes": {"A": 50},
                "min_goodput_frac": {"A": 0.8},
                "p99_less_than": {"A": "B"},
                "per_model_p99_less_than": {"m1": {"A": "B"}},
                "donated_bytes_less_than": {"A": "B"},
                "goodput_greater_than": {"A": "B"},
                "retry_decays": ["A"],
                "retry_grows": ["B"]}"#,
        )
    }

    /// The failed checks of gating `doc` against `tol` and `budgets`.
    fn failures(doc: &Json, tol: &Json, budgets: &str) -> Vec<String> {
        check(&doc.to_string(), &tol.to_string(), budgets)
            .into_iter()
            .filter_map(|v| match v {
                Verdict::Fail(what) => Some(what),
                _ => None,
            })
            .collect()
    }

    /// The object `v` with `key` set to `value`, or removed for `None`.
    fn with(v: &Json, key: &str, value: Option<Json>) -> Json {
        let mut pairs = v.as_obj().expect("an object").to_vec();
        let at = pairs.iter().position(|(k, _)| k == key);
        match (at, value) {
            (Some(i), Some(value)) => pairs[i].1 = value,
            (None, Some(value)) => pairs.push((key.into(), value)),
            (Some(i), None) => drop(pairs.remove(i)),
            (None, None) => {}
        }
        Json::Obj(pairs)
    }

    /// [`doc`] with system `i` edited.
    fn with_system(i: usize, edit: impl Fn(&Json) -> Json) -> Json {
        let doc = doc();
        let mut systems = doc.get("systems").and_then(Json::as_arr).unwrap().to_vec();
        systems[i] = edit(&systems[i]);
        with(&doc, "systems", Some(Json::Arr(systems)))
    }

    #[test]
    fn every_key_passes_on_a_conforming_document() {
        let verdicts = check(&doc().to_string(), &tolerance().to_string(), BUDGET);
        let held = |prefix: &str| {
            verdicts
                .iter()
                .any(|v| matches!(v, Verdict::Ok(what) if what.starts_with(prefix)))
        };
        assert!(failures(&doc(), &tolerance(), BUDGET).is_empty());
        for (key, _) in RULES {
            assert!(held(&format!("{key}: ")), "no passing check for {key}");
        }
        assert!(held("schema: 2 systems") && held("budget: wall_clock_ms 100 <= ceiling 1000"));
    }

    #[test]
    fn every_key_fails_when_violated() {
        let cases = [
            ("figure", r#""fig_u""#),
            ("max_ttft_p99_s", r#"{"A": 0.1}"#),
            ("min_finished_frac", "0.9"),
            ("max_prefix_recompute_amplification", r#"{"A": 1}"#),
            ("max_shed_frac", r#"{"A": 0.05}"#),
            ("min_donated_bytes", r#"{"A": 150}"#),
            ("min_goodput_frac", r#"{"A": 0.95}"#),
            ("p99_less_than", r#"{"B": "A"}"#),
            ("per_model_p99_less_than", r#"{"m1": {"B": "A"}}"#),
            ("donated_bytes_less_than", r#"{"B": "A"}"#),
            ("goodput_greater_than", r#"{"B": "A"}"#),
            ("retry_decays", r#"["B"]"#),
            ("retry_grows", r#"["A"]"#),
        ];
        let keys: Vec<&str> = cases.iter().map(|&(k, _)| k).collect();
        assert_eq!(keys, RULES.iter().map(|&(k, _)| k).collect::<Vec<_>>());
        for (key, value) in cases {
            let tol = with(&tolerance(), key, Some(parse(value)));
            let fails = failures(&doc(), &tol, BUDGET);
            let named = |f: &String| f.starts_with(&format!("{key}: "));
            assert!(
                !fails.is_empty() && fails.iter().all(named),
                "{key}: {fails:?}"
            );
        }
        let fails = failures(
            &doc(),
            &with(&tolerance(), "max_shed_frac", Some(parse(r#"{"A": 0.05}"#))),
            BUDGET,
        );
        assert_eq!(
            fails,
            ["max_shed_frac: A shed_requests/total 0.1 > cap 0.05"]
        );
        let fails = failures(
            &doc(),
            &with(&tolerance(), "p99_less_than", Some(parse(r#"{"B": "A"}"#))),
            BUDGET,
        );
        assert_eq!(
            fails,
            ["p99_less_than: B ttft_p99_s 2 is not below A ttft_p99_s 0.5"]
        );
    }

    #[test]
    fn insane_values_fail_the_checks_that_read_them() {
        for (field, value, key) in [
            ("ttft_p99_s", -1.0, "max_ttft_p99_s"),
            (
                "prefix_recompute_amplification",
                -0.5,
                "max_prefix_recompute_amplification",
            ),
            ("goodput_frac", 1.5, "min_goodput_frac"),
        ] {
            let doc = with_system(0, |s| with(s, field, Some(Json::Num(value))));
            let want = format!("{key}: `A` has {field} {value}, which is not sane");
            let fails = failures(&doc, &tolerance(), BUDGET);
            assert!(fails.contains(&want), "{want}: {fails:?}");
        }
    }

    #[test]
    fn a_misspelled_key_fails_instead_of_switching_its_check_off() {
        // Spelled right, this ordering fails: B's p99 is above A's.
        let tol = with(&tolerance(), "p99_less_then", Some(parse(r#"{"B": "A"}"#)));
        let fails = failures(&doc(), &tol, BUDGET);
        assert_eq!(fails, ["tolerance: unknown key `p99_less_then`"]);
        let budgets = r#"{"comment": "", "budget": {"fig_t": 1}, "budgets": {"fig_t": 1000}}"#;
        let fails = failures(&doc(), &tolerance(), budgets);
        assert_eq!(fails, ["budget: unknown key `budget` in ci_budget.json"]);
    }

    #[test]
    fn every_schema_rule_fails_a_document_that_breaks_it() {
        let model = |entry: &str| with_system(0, |s| with(s, "models", Some(parse(entry))));
        let cases = [
            (
                with(&doc(), "wall_clock_ms", None),
                "no numeric `wall_clock_ms`",
            ),
            (with(&doc(), "threads", None), "no numeric `threads`"),
            (
                with(&doc(), "threads_available", None),
                "no numeric `threads_available`",
            ),
            (with(&doc(), "figure", None), "no string `figure`"),
            (with(&doc(), "systems", None), "no `systems` array"),
            (
                with(&doc(), "systems", Some(Json::Arr(Vec::new()))),
                "`systems` is empty",
            ),
            (
                with_system(1, |s| with(s, "system", None)),
                "a `systems` entry has no string `system`",
            ),
            (
                with_system(1, |s| with(s, "total", None)),
                "`B` has no numeric `total`",
            ),
            (
                with_system(1, |s| with(s, "finished", None)),
                "`B` has no numeric `finished`",
            ),
            (
                with_system(1, |s| with(s, "ttft_p99_s", None)),
                "`B` has no numeric `ttft_p99_s`",
            ),
            (
                with_system(0, |s| with(s, "retries_late", None)),
                "`A` has no numeric `retries_late`; the closed-loop client counters come as a set",
            ),
            (
                model(r#"[{"model": "m1"}]"#),
                "`A` models[0] has no numeric `ttft_p99_s`",
            ),
            (
                model(r#"[{"ttft_p99_s": 1}]"#),
                "`A` models[0] has no string `model`",
            ),
        ];
        for (doc, fault) in cases {
            let want = format!("schema: {fault}");
            let fails = failures(&doc, &tolerance(), BUDGET);
            assert!(fails.contains(&want), "{want}: {fails:?}");
        }
    }

    #[test]
    fn a_minimal_document_passes_and_the_defaults_hold() {
        let doc = parse(
            r#"{"figure": "fig_t", "wall_clock_ms": 1, "threads": 1, "threads_available": 1,
                "systems": [{"system": "A", "total": 4, "finished": 4, "ttft_p99_s": 0.1}]}"#,
        );
        let tol = parse(r#"{"figure": "fig_t", "max_ttft_p99_s": {"A": 1}}"#);
        assert!(failures(&doc, &tol, BUDGET).is_empty());
        // `min_finished_frac` defaults to 1.
        let short = with(
            &doc,
            "systems",
            Some(parse(
                r#"[{"system": "A", "total": 4, "finished": 3, "ttft_p99_s": 0.1}]"#,
            )),
        );
        let fails = failures(&short, &tol, BUDGET);
        assert_eq!(
            fails,
            ["min_finished_frac: A finished/total 0.75 < floor 1"]
        );
        // `figure` and a non-empty `max_ttft_p99_s` are required.
        for key in ["figure", "max_ttft_p99_s"] {
            let fails = failures(&doc, &with(&tol, key, None), BUDGET);
            assert_eq!(fails, [format!("{key}: missing")]);
        }
        let empty = with(&tol, "max_ttft_p99_s", Some(parse("{}")));
        let fails = failures(&doc, &empty, BUDGET);
        assert_eq!(fails, ["max_ttft_p99_s: pins no system"]);
    }

    #[test]
    fn figure_system_and_budget_mismatches_fail() {
        let renamed = with(&doc(), "figure", Some(Json::str("fig_u")));
        let fails = failures(&renamed, &tolerance(), BUDGET);
        assert_eq!(
            fails,
            [
                "figure: the document is `fig_u`, the tolerance gates `fig_t`",
                "budget: wall_clock_ms: `fig_u` has no wall-clock budget in ci_budget.json",
            ]
        );
        let tol = with(&tolerance(), "max_ttft_p99_s", Some(parse(r#"{"C": 1}"#)));
        let fails = failures(&doc(), &tol, BUDGET);
        assert!(fails.contains(&"max_ttft_p99_s: the document has no system `C`".into()));
        let fails = failures(&doc(), &tolerance(), r#"{"budgets": {"fig_t": 99}}"#);
        assert_eq!(fails, ["budget: wall_clock_ms 100 > ceiling 99"]);
    }

    #[test]
    fn a_document_that_does_not_parse_fails() {
        let verdicts = check(r#"{"figure": "#, &tolerance().to_string(), BUDGET);
        assert!(
            matches!(verdicts.as_slice(), [Verdict::Fail(what)] if what.starts_with("document: does not parse")),
            "{verdicts:?}"
        );
    }
}
