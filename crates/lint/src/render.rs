//! Rendering of a [`LintReport`]: rustc-style text, and JSON in the
//! stable schema editor integrations and CI read:
//!
//! ```json
//! {
//!   "file": "assets/sor_c2.tirl",
//!   "module": "sor_l1_v1_pipe_B",
//!   "target": "Stratix-V-GSD8",
//!   "cost_evaluated": true,
//!   "errors": 0,
//!   "warnings": 1,
//!   "diagnostics": [
//!     { "code": "TL1001", "severity": "warning", "message": "...",
//!       "line": 21, "col": 1, "hint": "..." }
//!   ]
//! }
//! ```
//!
//! `line`/`col` and `hint` are `null` when absent.

use crate::LintReport;
use std::fmt::Write as _;
use tytra_ir::Severity;
use tytra_trace::json::escape;

/// Render `report` as human-readable text, one rustc-style block per
/// diagnostic followed by a summary line. `path` is the file the spans
/// refer to (shown in `--> path:line:col` anchors).
pub fn render_text(report: &LintReport, path: &str) -> String {
    let mut out = String::new();
    for d in &report.diagnostics {
        let _ = writeln!(out, "{}[{}]: {}", d.severity.label(), d.code, d.message);
        if let Some(sp) = d.span {
            let _ = writeln!(out, "  --> {}:{}:{}", path, sp.line, sp.col);
        }
        if let Some(h) = &d.hint {
            let _ = writeln!(out, "  = help: {h}");
        }
    }
    let errors = report.errors();
    let warnings = report.warnings();
    if report.diagnostics.is_empty() {
        let _ = writeln!(out, "{path}: clean ({} passes, no diagnostics)", crate::PASSES.len());
    } else {
        let _ = writeln!(
            out,
            "{path}: {errors} error{}, {warnings} warning{}",
            plural(errors),
            plural(warnings)
        );
    }
    // A validation error stops every lint pass. An estimator failure
    // needs no note: TL1005 reports it.
    if report
        .diagnostics
        .iter()
        .any(|d| d.severity == Severity::Error && d.code.starts_with("TL00"))
    {
        let _ = writeln!(out, "note: cost model not evaluated; feasibility lints were skipped");
    }
    out
}

/// Render `report` as a single JSON object (trailing newline included).
pub fn render_json(report: &LintReport, path: &str) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"file\": \"{}\",", escape(path));
    let _ = writeln!(out, "  \"module\": \"{}\",", escape(&report.module));
    let _ = writeln!(out, "  \"target\": \"{}\",", escape(&report.target));
    let _ = writeln!(out, "  \"cost_evaluated\": {},", report.cost_evaluated);
    let _ = writeln!(out, "  \"errors\": {},", report.errors());
    let _ = writeln!(out, "  \"warnings\": {},", report.warnings());
    out.push_str("  \"diagnostics\": [");
    for (i, d) in report.diagnostics.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        let _ = write!(
            out,
            "    {{ \"code\": \"{}\", \"severity\": \"{}\", \"message\": \"{}\", ",
            escape(d.code),
            escape(d.severity.label()),
            escape(&d.message)
        );
        match d.span {
            Some(sp) => {
                let _ = write!(out, "\"line\": {}, \"col\": {}, ", sp.line, sp.col);
            }
            None => out.push_str("\"line\": null, \"col\": null, "),
        }
        match &d.hint {
            Some(h) => {
                let _ = write!(out, "\"hint\": \"{}\" }}", escape(h));
            }
            None => out.push_str("\"hint\": null }"),
        }
    }
    if !report.diagnostics.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

fn plural(n: usize) -> &'static str {
    if n == 1 {
        ""
    } else {
        "s"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tytra_ir::{Diagnostic, Span};

    fn report(diags: Vec<Diagnostic>) -> LintReport {
        LintReport {
            module: "m".into(),
            target: "t".into(),
            diagnostics: diags,
            cost_evaluated: true,
        }
    }

    #[test]
    fn clean_report_renders_summary_only() {
        let txt = render_text(&report(vec![]), "x.tirl");
        assert!(txt.contains("x.tirl: clean"));
    }

    #[test]
    fn only_a_validation_error_notes_the_skipped_lints() {
        const NOTE: &str = "feasibility lints were skipped";
        let mut r = report(vec![Diagnostic::error("TL0002", "unknown function `f9`")]);
        r.cost_evaluated = false;
        assert!(render_text(&r, "x.tirl").contains(NOTE));
        let mut r = report(vec![Diagnostic::error("TL1005", "cannot estimate")]);
        r.cost_evaluated = false;
        assert!(!render_text(&r, "x.tirl").contains(NOTE));
    }

    #[test]
    fn diagnostic_block_has_anchor_and_help() {
        let d = Diagnostic::warn("TL1001", "input port `%u` of `@f0` is never read")
            .with_span(Span { line: 21, col: 1 })
            .with_hint("remove the parameter");
        let txt = render_text(&report(vec![d]), "a/b.tirl");
        assert!(txt.contains("warning[TL1001]: input port `%u` of `@f0` is never read"));
        assert!(txt.contains("  --> a/b.tirl:21:1"));
        assert!(txt.contains("  = help: remove the parameter"));
        assert!(txt.contains("a/b.tirl: 0 errors, 1 warning"));
    }

    #[test]
    fn emitted_json_round_trips() {
        use tytra_trace::json::{parse, Json};
        let mut r = report(vec![
            Diagnostic::error("TL1003", "offset !+300 on `%b`")
                .with_span(Span { line: 9, col: 3 })
                .with_hint("check the linearization"),
            Diagnostic::warn("TL1005", "near capacity"),
        ]);
        r.module = "m\"q".into();
        let v = parse(&render_json(&r, "fix.tirl")).unwrap();
        assert_eq!(v.get("file").unwrap().as_str(), Some("fix.tirl"));
        assert_eq!(v.get("module").unwrap().as_str(), Some("m\"q"));
        assert_eq!(v.get("errors").unwrap().as_num(), Some(1.0));
        assert_eq!(v.get("warnings").unwrap().as_num(), Some(1.0));
        let diags = v.get("diagnostics").unwrap().as_arr().unwrap();
        assert_eq!(diags.len(), 2);
        assert_eq!(diags[0].get("code").unwrap().as_str(), Some("TL1003"));
        assert_eq!(diags[0].get("severity").unwrap().as_str(), Some("error"));
        assert_eq!(diags[0].get("line").unwrap().as_num(), Some(9.0));
        assert_eq!(diags[0].get("hint").unwrap().as_str(), Some("check the linearization"));
        assert_eq!(diags[1].get("line"), Some(&Json::Null));
        assert_eq!(diags[1].get("hint"), Some(&Json::Null));
    }
}
