//! Workspace-level aggregation and the machine-readable report.
//!
//! The report is emitted to `target/simlint.json` in the same envelope the
//! bench harness uses (`figure` + `wall_clock_ms`), so the existing
//! `check_bench_json --budget` machinery can gate the lint stage's wall
//! clock with no new plumbing, and a dedicated `--simlint` mode can
//! validate its shape.

use crate::rules::{Diagnostic, FileResult, RuleCounts, ALL_RULES};

/// Aggregated results of linting the whole workspace.
#[derive(Debug, Default)]
pub struct Report {
    /// Number of files actually linted (in scope).
    pub files_scanned: u32,
    /// Per-rule counters, in [`ALL_RULES`] order.
    pub counts: [RuleCounts; ALL_RULES.len()],
    /// All fired diagnostics, in (file, line, rule) order.
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// Folds one file's result into the workspace totals.
    pub fn absorb(&mut self, res: FileResult) {
        self.files_scanned += 1;
        for (total, one) in self.counts.iter_mut().zip(res.counts.iter()) {
            total.fired += one.fired;
            total.suppressed += one.suppressed;
            total.allowlisted += one.allowlisted;
        }
        self.diagnostics.extend(res.diagnostics);
    }

    /// Whether the scan is clean (zero unsuppressed diagnostics).
    pub fn ok(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Sorts diagnostics into the stable (file, line, rule) report order.
    pub fn finish(&mut self) {
        self.diagnostics
            .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    }

    /// Renders the machine-readable JSON document.
    ///
    /// `wall_clock_ms` is measured by the caller (the binary); the library
    /// itself never reads the wall clock.
    pub fn to_json(&self, wall_clock_ms: u64) -> String {
        let mut s = String::with_capacity(2048);
        s.push_str("{\n");
        s.push_str("  \"figure\": \"simlint\",\n");
        s.push_str("  \"tool\": \"simlint\",\n");
        s.push_str("  \"schema_version\": 1,\n");
        s.push_str(&format!("  \"wall_clock_ms\": {wall_clock_ms},\n"));
        s.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        s.push_str(&format!("  \"ok\": {},\n", self.ok()));
        s.push_str("  \"rules\": [\n");
        for (i, rule) in ALL_RULES.iter().enumerate() {
            let c = &self.counts[i];
            s.push_str(&format!(
                "    {{\"rule\": \"{}\", \"fired\": {}, \"suppressed\": {}, \"allowlisted\": {}}}{}\n",
                rule.id(),
                c.fired,
                c.suppressed,
                c.allowlisted,
                if i + 1 < ALL_RULES.len() { "," } else { "" }
            ));
        }
        s.push_str("  ],\n");
        s.push_str("  \"diagnostics\": [\n");
        for (i, d) in self.diagnostics.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\"}}{}\n",
                d.rule.id(),
                escape(&d.file),
                d.line,
                escape(&d.message),
                if i + 1 < self.diagnostics.len() {
                    ","
                } else {
                    ""
                }
            ));
        }
        s.push_str("  ]\n");
        s.push_str("}\n");
        s
    }
}

/// Minimal JSON string escaping (the only non-trivial content is
/// diagnostic messages, which we author ourselves).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::Rule;

    #[test]
    fn clean_report_shape() {
        let mut r = Report {
            files_scanned: 3,
            ..Report::default()
        };
        r.finish();
        let json = r.to_json(42);
        assert!(json.contains("\"figure\": \"simlint\""));
        assert!(json.contains("\"wall_clock_ms\": 42"));
        assert!(json.contains("\"ok\": true"));
        assert!(json.contains("\"rule\": \"D-MAP\""));
        assert!(json.contains("\"rule\": \"U-SAFETY\""));
    }

    #[test]
    fn diagnostics_are_escaped_and_sorted() {
        let mut r = Report::default();
        r.diagnostics.push(Diagnostic {
            rule: Rule::DMap,
            file: "b.rs".to_string(),
            line: 2,
            message: "uses \"HashMap\"".to_string(),
        });
        r.diagnostics.push(Diagnostic {
            rule: Rule::DTime,
            file: "a.rs".to_string(),
            line: 9,
            message: "wall clock".to_string(),
        });
        r.finish();
        assert_eq!(r.diagnostics[0].file, "a.rs");
        let json = r.to_json(1);
        assert!(json.contains("uses \\\"HashMap\\\""));
        assert!(json.contains("\"ok\": false"));
    }
}
