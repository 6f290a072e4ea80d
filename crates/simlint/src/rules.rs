//! The rule families and the per-file rule engine.
//!
//! Two families, mirroring the workspace's two hand-enforced disciplines:
//!
//! **D-rules (determinism)** — the byte-identical-`RunReport` guarantee
//! bans ambient nondeterminism from everything between a seed and a
//! report:
//!
//! - `D-MAP`: no `std::collections::HashMap`/`HashSet` in
//!   determinism-critical crates unless the file carries an audited
//!   allowlist entry (iteration sorted or never observable) or the site a
//!   pragma.
//! - `D-TIME`: no `Instant`/`SystemTime` in simulation code — simulated
//!   time comes from `SimTime` only.
//! - `D-RAND`: no `thread_rng`/`from_entropy`/`OsRng` anywhere (tests and
//!   benches included — lineups are byte-compared across runs).
//! - `D-CAST`: every `as`-cast to an integer type in a designated metric
//!   path must state its rounding rationale (casts silently truncate).
//!
//! **U-rules (unsafe hygiene)** — every library crate is
//! `#![forbid(unsafe_code)]`; these rules reach the integration tests,
//! benches and examples, which are separate crates the attribute does not
//! cover:
//!
//! - `U-FILE`: `unsafe` may only appear in the audited file allowlist
//!   ([`crate::config::UNSAFE_FILES`], empty today); **not**
//!   pragma-suppressable.
//! - `U-SAFETY`: every `unsafe` block/fn/impl carries a `// SAFETY:`
//!   comment immediately above (or trailing on the same line).
//!
//! Suppression: `// simlint: allow(RULE, RULE2)` on the offending line,
//! or standalone on the line above. The pragma must begin the comment
//! (prose that mentions the syntax is not a pragma). Unknown rule names
//! in a pragma are themselves diagnosed (`LINT-PRAGMA`).

use crate::config::{self, FileClass, Scope};
use crate::scan::{self, Comment, TokKind};

/// Stable rule identifiers (these appear in pragmas and reports).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Unseeded-iteration-order hash collections in sim crates.
    DMap,
    /// Wall-clock reads in simulation code.
    DTime,
    /// Ambient entropy.
    DRand,
    /// Undocumented integer truncation in metric paths.
    DCast,
    /// `unsafe` outside the audited file allowlist.
    UFile,
    /// `unsafe` without a `// SAFETY:` comment.
    USafety,
    /// Malformed / unknown-rule suppression pragma.
    LintPragma,
}

/// Every rule, in report order.
pub const ALL_RULES: &[Rule] = &[
    Rule::DMap,
    Rule::DTime,
    Rule::DRand,
    Rule::DCast,
    Rule::UFile,
    Rule::USafety,
    Rule::LintPragma,
];

impl Rule {
    /// The stable ID used in pragmas and the JSON report.
    pub fn id(self) -> &'static str {
        match self {
            Rule::DMap => "D-MAP",
            Rule::DTime => "D-TIME",
            Rule::DRand => "D-RAND",
            Rule::DCast => "D-CAST",
            Rule::UFile => "U-FILE",
            Rule::USafety => "U-SAFETY",
            Rule::LintPragma => "LINT-PRAGMA",
        }
    }

    /// One-line description for the report.
    pub fn describe(self) -> &'static str {
        match self {
            Rule::DMap => "HashMap/HashSet in determinism-critical code without an audit",
            Rule::DTime => "wall-clock time (Instant/SystemTime) in simulation code",
            Rule::DRand => "ambient entropy (thread_rng/from_entropy/OsRng)",
            Rule::DCast => "undocumented integer-truncating cast in a metric path",
            Rule::UFile => "unsafe code outside the audited file allowlist",
            Rule::USafety => "unsafe without a // SAFETY: comment",
            Rule::LintPragma => "unknown rule in a simlint suppression pragma",
        }
    }

    /// Parses a rule ID as written in a pragma.
    pub fn from_id(s: &str) -> Option<Rule> {
        ALL_RULES.iter().copied().find(|r| r.id() == s)
    }

    /// Whether a `simlint: allow(..)` pragma can suppress this rule.
    /// `U-FILE` is allowlist-only by design: growing the unsafe surface
    /// must be a reviewed, analyzer-level decision.
    pub fn suppressable(self) -> bool {
        !matches!(self, Rule::UFile | Rule::LintPragma)
    }
}

/// One finding, fired or suppressed.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// The rule.
    pub rule: Rule,
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable message.
    pub message: String,
}

/// Per-rule outcome counters for one scan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuleCounts {
    /// Diagnostics that fired (unsuppressed).
    pub fired: u32,
    /// Diagnostics silenced by an inline pragma.
    pub suppressed: u32,
    /// Diagnostics silenced by a config allowlist entry.
    pub allowlisted: u32,
}

/// The result of linting one file.
#[derive(Debug, Default)]
pub struct FileResult {
    /// Fired diagnostics.
    pub diagnostics: Vec<Diagnostic>,
    /// Counts per rule, indexed in [`ALL_RULES`] order.
    pub counts: [RuleCounts; ALL_RULES.len()],
}

fn rule_index(rule: Rule) -> usize {
    ALL_RULES
        .iter()
        .position(|&r| r == rule)
        .expect("known rule")
}

const INT_TYPES: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
];

const ENTROPY_IDENTS: &[&str] = &["thread_rng", "from_entropy", "OsRng"];

/// A parsed suppression pragma: the rules it allows and the lines it
/// covers (its own lines, plus the next line when standalone).
struct Pragma {
    rules: Vec<Rule>,
    first_line: u32,
    last_line: u32,
}

impl Pragma {
    fn covers(&self, line: u32) -> bool {
        self.first_line <= line && line <= self.last_line
    }
}

fn parse_pragmas(comments: &[Comment], out: &mut FileResult, file: &str) -> Vec<Pragma> {
    let mut pragmas = Vec::new();
    for (ci, c) in comments.iter().enumerate() {
        // A pragma must *start* the comment (after doc-comment sigils), so
        // prose that merely mentions the syntax is not parsed as one.
        let head = c.text.trim_start_matches(['/', '!', '*']).trim_start();
        let Some(rest) = head.strip_prefix("simlint: allow(") else {
            continue;
        };
        let Some(close) = rest.find(')') else {
            out.diagnostics.push(Diagnostic {
                rule: Rule::LintPragma,
                file: file.to_string(),
                line: c.start_line,
                message: "unterminated `simlint: allow(` pragma".to_string(),
            });
            out.counts[rule_index(Rule::LintPragma)].fired += 1;
            continue;
        };
        let mut rules = Vec::new();
        for name in rest[..close].split(',') {
            let name = name.trim();
            if name.is_empty() {
                continue;
            }
            match Rule::from_id(name) {
                Some(r) if r.suppressable() => rules.push(r),
                Some(r) => {
                    out.diagnostics.push(Diagnostic {
                        rule: Rule::LintPragma,
                        file: file.to_string(),
                        line: c.start_line,
                        message: format!(
                            "rule `{}` cannot be suppressed by pragma (allowlist-only)",
                            r.id()
                        ),
                    });
                    out.counts[rule_index(Rule::LintPragma)].fired += 1;
                }
                None => {
                    out.diagnostics.push(Diagnostic {
                        rule: Rule::LintPragma,
                        file: file.to_string(),
                        line: c.start_line,
                        message: format!("unknown rule `{name}` in simlint pragma"),
                    });
                    out.counts[rule_index(Rule::LintPragma)].fired += 1;
                }
            }
        }
        // A standalone pragma covers its whole contiguous comment block
        // (the audit reason may wrap onto following comment lines) plus
        // the first code line after it; a trailing pragma covers its own
        // line only.
        let mut last = ci;
        if c.standalone {
            while comments
                .get(last + 1)
                .is_some_and(|n| n.standalone && n.start_line == comments[last].end_line + 1)
            {
                last += 1;
            }
        }
        pragmas.push(Pragma {
            rules,
            first_line: c.start_line,
            last_line: comments[last].end_line + u32::from(c.standalone),
        });
    }
    pragmas
}

/// The comments attached to `line`: the contiguous comment block ending
/// directly above it plus any trailing comment on the line itself,
/// concatenated top-down. A `// SAFETY:` argument may live in either
/// position (an unrelated trailing note must not shadow the block above).
fn comment_block_above(comments: &[Comment], line: u32) -> Option<String> {
    let mut parts: Vec<&str> = Vec::new();
    if let Some(end) = comments.iter().rposition(|c| c.end_line + 1 == line) {
        let mut start = end;
        while start > 0 && comments[start - 1].end_line + 1 == comments[start].start_line {
            start -= 1;
        }
        parts.extend(comments[start..=end].iter().map(|c| c.text.as_str()));
    }
    if let Some(c) = comments
        .iter()
        .find(|c| c.start_line == line && !c.standalone)
    {
        parts.push(&c.text);
    }
    if parts.is_empty() {
        None
    } else {
        Some(parts.join("\n"))
    }
}

/// The byte offset of a real `SAFETY:` marker in a comment block — one
/// not embedded in a longer word (a prose mention of "U-SAFETY:" is a
/// rule name, not a safety argument).
fn safety_marker(block: &str) -> Option<usize> {
    let mut from = 0;
    while let Some(rel) = block[from..].find("SAFETY:") {
        let at = from + rel;
        let boundary = block[..at]
            .chars()
            .next_back()
            .is_none_or(|c| !(c.is_alphanumeric() || c == '-' || c == '_'));
        if boundary {
            return Some(at);
        }
        from = at + "SAFETY:".len();
    }
    None
}

/// Lints `src` as if it lived at workspace-relative `rel_path`.
///
/// Returns `None` when the path is outside simlint's scan scope (vendored
/// shims, fixtures).
pub fn lint_source(rel_path: &str, src: &str) -> Option<FileResult> {
    let class = config::classify(rel_path)?;
    Some(lint_classified(rel_path, src, class))
}

/// Lints `src` under an explicit classification (fixture tests use this
/// to exercise scopes the fixture's real path would not get).
pub fn lint_classified(rel_path: &str, src: &str, class: FileClass) -> FileResult {
    let scanned = scan::scan(src);
    let mut out = FileResult::default();
    let pragmas = parse_pragmas(&scanned.comments, &mut out, rel_path);

    // One diagnostic per (rule, line): `HashMap::<K,V>::new()` style lines
    // mention a type twice but are one finding.
    let mut seen: Vec<(Rule, u32)> = Vec::new();

    let emit = |out: &mut FileResult,
                seen: &mut Vec<(Rule, u32)>,
                rule: Rule,
                line: u32,
                allow_reason: Option<&str>,
                message: String| {
        if seen.contains(&(rule, line)) {
            return;
        }
        seen.push((rule, line));
        let idx = rule_index(rule);
        if allow_reason.is_some() {
            out.counts[idx].allowlisted += 1;
            return;
        }
        let suppressed = rule.suppressable()
            && pragmas
                .iter()
                .any(|p| p.rules.contains(&rule) && p.covers(line));
        if suppressed {
            out.counts[idx].suppressed += 1;
            return;
        }
        out.counts[idx].fired += 1;
        out.diagnostics.push(Diagnostic {
            rule,
            file: rel_path.to_string(),
            line,
            message,
        });
    };

    let deterministic_scope = class.scope == Scope::Sim && !class.test_tree;
    let d_map_reason = config::d_map_allow_reason(rel_path);
    let unsafe_allowed = config::unsafe_file_allowed(rel_path);

    let toks = &scanned.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        let in_test = scanned.in_test_code(t.line);
        match t.text {
            "HashMap" | "HashSet" if deterministic_scope && !in_test => {
                emit(
                    &mut out,
                    &mut seen,
                    Rule::DMap,
                    t.line,
                    d_map_reason,
                    format!(
                        "`{}` in determinism-critical code: iteration order is unseeded; \
                         sort before iterating, use an ordered structure, or record an \
                         audit (pragma or allowlist)",
                        t.text
                    ),
                );
            }
            "Instant" | "SystemTime" if deterministic_scope && !in_test => {
                emit(
                    &mut out,
                    &mut seen,
                    Rule::DTime,
                    t.line,
                    None,
                    format!(
                        "`{}` reads the wall clock inside simulation code; all simulated \
                         timestamps must derive from `SimTime`",
                        t.text
                    ),
                );
            }
            s if ENTROPY_IDENTS.contains(&s) => {
                emit(
                    &mut out,
                    &mut seen,
                    Rule::DRand,
                    t.line,
                    None,
                    format!(
                        "`{s}` draws ambient entropy; every random stream must be derived \
                         from the run seed"
                    ),
                );
            }
            "as" => {
                let target = toks.get(i + 1);
                if class.metric_path
                    && !in_test
                    && target
                        .is_some_and(|n| n.kind == TokKind::Ident && INT_TYPES.contains(&n.text))
                {
                    emit(
                        &mut out,
                        &mut seen,
                        Rule::DCast,
                        t.line,
                        None,
                        format!(
                            "`as {}` in a metric path truncates silently; compute in \
                             integers or state the rounding rationale in a pragma",
                            target.expect("checked").text
                        ),
                    );
                }
            }
            "unsafe" => {
                if !unsafe_allowed {
                    emit(
                        &mut out,
                        &mut seen,
                        Rule::UFile,
                        t.line,
                        None,
                        "`unsafe` outside the audited allowlist (config::UNSAFE_FILES); \
                         this rule is allowlist-only and cannot be pragma-suppressed"
                            .to_string(),
                    );
                }
                let block = comment_block_above(&scanned.comments, t.line);
                let has_safety = block.as_deref().is_some_and(|b| safety_marker(b).is_some());
                if !has_safety {
                    emit(
                        &mut out,
                        &mut seen,
                        Rule::USafety,
                        t.line,
                        None,
                        "`unsafe` without a `// SAFETY:` comment immediately above".to_string(),
                    );
                }
            }
            _ => {}
        }
    }

    out.diagnostics.sort_by_key(|d| (d.line, d.rule));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SIM: FileClass = FileClass {
        scope: Scope::Sim,
        test_tree: false,
        metric_path: false,
    };

    fn fired(res: &FileResult, rule: Rule) -> u32 {
        res.counts[rule_index(rule)].fired
    }

    fn suppressed(res: &FileResult, rule: Rule) -> u32 {
        res.counts[rule_index(rule)].suppressed
    }

    #[test]
    fn d_map_fires_and_suppresses() {
        let src = "\
use std::collections::HashMap;
// simlint: allow(D-MAP) — keyed lookup only, never iterated
struct S { m: HashMap<u32, u32>, s: std::collections::HashSet<u8> }
";
        let res = lint_classified("crates/fake/src/a.rs", src, SIM);
        // Line 1 fires; line 3 is covered by the standalone pragma.
        assert_eq!(fired(&res, Rule::DMap), 1);
        assert_eq!(suppressed(&res, Rule::DMap), 1);
        assert_eq!(res.diagnostics.len(), 1);
        assert_eq!(res.diagnostics[0].line, 1);
    }

    #[test]
    fn d_map_allowlist_applies() {
        let src = "use std::collections::HashMap;\n";
        let res = lint_source("crates/cluster/src/state.rs", src).unwrap();
        assert_eq!(fired(&res, Rule::DMap), 0);
        assert_eq!(res.counts[rule_index(Rule::DMap)].allowlisted, 1);
    }

    #[test]
    fn d_time_skips_tests_and_bench() {
        let src = "\
fn live() { let t = std::time::Instant::now(); }

#[cfg(test)]
mod tests {
    fn gated() { let t = std::time::Instant::now(); }
}
";
        let res = lint_classified("crates/fake/src/a.rs", src, SIM);
        assert_eq!(fired(&res, Rule::DTime), 1);
        assert_eq!(res.diagnostics[0].line, 1);

        let bench = FileClass {
            scope: Scope::Bench,
            ..SIM
        };
        let res = lint_classified("crates/bench/src/x.rs", src, bench);
        assert_eq!(fired(&res, Rule::DTime), 0);
    }

    #[test]
    fn d_rand_fires_even_in_tests() {
        let src = "\
#[cfg(test)]
mod tests {
    fn t() { let mut rng = rand::thread_rng(); }
}
";
        let res = lint_classified("crates/fake/src/a.rs", src, SIM);
        assert_eq!(fired(&res, Rule::DRand), 1);
    }

    #[test]
    fn d_cast_only_in_metric_paths() {
        let src = "fn f(x: f64) -> u64 { x as u64 }\n";
        let metric = FileClass {
            metric_path: true,
            ..SIM
        };
        let res = lint_classified("crates/fake/src/m.rs", src, metric);
        assert_eq!(fired(&res, Rule::DCast), 1);
        let res = lint_classified("crates/fake/src/m.rs", src, SIM);
        assert_eq!(fired(&res, Rule::DCast), 0);
        // `as f64` is widening, not truncating.
        let res = lint_classified(
            "crates/fake/src/m.rs",
            "fn f(x: u64) -> f64 { x as f64 }",
            metric,
        );
        assert_eq!(fired(&res, Rule::DCast), 0);
    }

    #[test]
    fn u_safety_accepts_documented_sites() {
        let src = "\
fn f(p: *mut u32) {
    // SAFETY: p is valid for writes; caller holds the unique reference.
    unsafe { *p = 1 };
    unsafe { *p = 2 };
}
";
        let res = lint_classified("crates/fake/src/a.rs", src, SIM);
        assert_eq!(fired(&res, Rule::USafety), 1);
        let lines: Vec<u32> = res
            .diagnostics
            .iter()
            .filter(|d| d.rule == Rule::USafety)
            .map(|d| d.line)
            .collect();
        assert_eq!(lines, vec![4]);
        assert_eq!(fired(&res, Rule::UFile), 2, "no file allowlists unsafe");
    }

    #[test]
    fn u_file_fires_outside_allowlist_and_resists_pragmas() {
        let src = "\
// SAFETY: documented, but in the wrong file.
// simlint: allow(U-FILE)
unsafe fn f() {}
";
        let res = lint_classified("crates/kvcache/src/manager.rs", src, SIM);
        assert_eq!(fired(&res, Rule::UFile), 1);
        // The pragma naming an unsuppressable rule is itself diagnosed.
        assert_eq!(fired(&res, Rule::LintPragma), 1);
    }

    #[test]
    fn unknown_pragma_rule_is_diagnosed() {
        let src = "// simlint: allow(D-BOGUS)\nfn f() {}\n";
        let res = lint_classified("crates/fake/src/a.rs", src, SIM);
        assert_eq!(fired(&res, Rule::LintPragma), 1);
    }

    #[test]
    fn trailing_pragma_covers_its_own_line() {
        let src = "use std::collections::HashMap; // simlint: allow(D-MAP) — audit: lookup only\n";
        let res = lint_classified("crates/fake/src/a.rs", src, SIM);
        assert_eq!(fired(&res, Rule::DMap), 0);
        assert_eq!(suppressed(&res, Rule::DMap), 1);
    }
}
