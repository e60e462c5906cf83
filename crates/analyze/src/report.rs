//! The aggregated analysis report and its text / JSON renderings.
//!
//! `tybec analyze <design.tirl>` runs every analysis in the crate and
//! renders this report. The JSON form is a single strict-JSON object
//! (the CLI tests read every asset's report back with
//! `tytra_trace::json::parse`), with the class key rendered as a hex
//! string so no 64-bit precision is lost to float readers.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use tytra_ir::IrModule;
use tytra_trace::{self as trace, json};

use crate::congruence::{analyze_congruence, CongruenceInfo};
use crate::deadlock::{analyze_deadlock, DeadlockAnalysis};
use crate::lattice::Interval;
use crate::range::{analyze_ranges, RangeAnalysis};
use crate::solver::{reachable, summaries, FnSummary, SolverStats};

/// Everything the analysis framework derives about one module.
#[derive(Debug, Clone)]
pub struct AnalysisReport {
    /// Design (module) name.
    pub design: String,
    /// Per-function effect summaries (all functions, reachable or not).
    pub summaries: BTreeMap<String, FnSummary>,
    /// Function names reachable from `main`.
    pub reachable: Vec<String>,
    /// Value-range analysis (reachable functions only).
    pub ranges: RangeAnalysis,
    /// Stream-dependence / deadlock analysis.
    pub deadlock: DeadlockAnalysis,
    /// Cost-congruence facts.
    pub congruence: CongruenceInfo,
    /// Summed solver counters over every analysis.
    pub stats: SolverStats,
}

/// Run every analysis over `m`. Instrumented with `analyze.*` spans so
/// traced runs show where fixpoint time goes.
pub fn analyze_module(m: &IrModule) -> AnalysisReport {
    let _sp = trace::span("analyze.module").with("module", m.name.as_str());
    let (live, live_stats) = {
        let _s = trace::span("analyze.summaries");
        reachable(m)
    };
    let sums = summaries(m);
    let ranges = {
        let _s = trace::span("analyze.range");
        analyze_ranges(m)
    };
    let deadlock = {
        let _s = trace::span("analyze.deadlock");
        analyze_deadlock(m)
    };
    let congruence = {
        let _s = trace::span("analyze.congruence");
        analyze_congruence(m)
    };
    let mut stats = live_stats;
    stats.absorb(&ranges.stats);
    stats.absorb(&deadlock.stats);
    // Reachable names in declaration order (the solver returns a set).
    let reachable_ordered: Vec<String> =
        m.functions.iter().filter(|f| live.contains(&f.name)).map(|f| f.name.clone()).collect();
    AnalysisReport {
        design: m.name.clone(),
        summaries: sums,
        reachable: reachable_ordered,
        ranges,
        deadlock,
        congruence,
        stats,
    }
}

fn interval_text(v: Interval) -> String {
    match v {
        Interval::Empty => "empty".to_string(),
        Interval::Any => "any".to_string(),
        Interval::Range { lo, hi } if lo == hi => format!("{lo}"),
        Interval::Range { lo, hi } => format!("[{lo}, {hi}]"),
    }
}

impl AnalysisReport {
    /// Human-readable rendering (the default `tybec analyze` output).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "analysis of `{}`", self.design);
        let _ = writeln!(
            out,
            "  solver: {} nodes, {} iterations (peak worklist {})",
            self.stats.nodes, self.stats.iterations, self.stats.peak_worklist
        );
        let _ = writeln!(out, "  reachable: {}", self.reachable.join(", "));
        for name in &self.reachable {
            let Some(r) = self.ranges.per_fn.get(name) else { continue };
            let _ = writeln!(
                out,
                "  @{}: {} values ({} constant)",
                name,
                r.values.len(),
                r.constants()
            );
            for (v, iv) in &r.values {
                let _ = writeln!(out, "    %{:<12} {}", v, interval_text(*iv));
            }
            for (src, (neg, pos)) in &r.windows {
                let _ = writeln!(out, "    window %{src}: [{neg:+}, {pos:+}]");
            }
        }
        for c in &self.ranges.findings {
            let kind = if c.always_imm { "always the immediate" } else { "a no-op" };
            let _ = writeln!(
                out,
                "  clamp: `{} %{}, {}` in @{} is {} (operand in [{}, {}])",
                c.mnemonic, c.value, c.imm, c.func, kind, c.lo, c.hi
            );
        }
        for d in &self.deadlock.findings {
            let _ = writeln!(
                out,
                "  deadlock: `%{}` feeds itself through @{} (in %{}, out %{}, window [{:+}, {:+}])",
                d.mem, d.func, d.in_param, d.out_param, d.window.0, d.window.1
            );
        }
        let collapse = if self.congruence.form_collapses { "collapses" } else { "distinct" };
        let _ = writeln!(
            out,
            "  congruence: class {:#018x}, canonical form {}, A/B axis {}",
            self.congruence.key, self.congruence.canonical_form, collapse
        );
        out
    }

    /// Strict-JSON rendering: one object, keys in a fixed order,
    /// parseable by `tytra_trace::json::parse`.
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        out.push('{');
        let _ = write!(out, "\"design\":\"{}\"", json::escape(&self.design));
        let _ = write!(
            out,
            ",\"solver\":{{\"nodes\":{},\"iterations\":{},\"peak_worklist\":{}}}",
            self.stats.nodes, self.stats.iterations, self.stats.peak_worklist
        );
        out.push_str(",\"reachable\":[");
        for (i, f) in self.reachable.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\"", json::escape(f));
        }
        out.push(']');
        out.push_str(",\"functions\":[");
        for (i, name) in self.reachable.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let (values, constants) =
                self.ranges.per_fn.get(name).map_or((0, 0), |r| (r.values.len(), r.constants()));
            let summary = self.summaries.get(name);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"values\":{},\"constants\":{},\"consumed\":{},\"callees\":{}}}",
                json::escape(name),
                values,
                constants,
                summary.map_or(0, |s| s.consumed.len()),
                summary.map_or(0, |s| s.callees.len()),
            );
        }
        out.push(']');
        out.push_str(",\"clamp_findings\":[");
        for (i, c) in self.ranges.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"func\":\"{}\",\"value\":\"{}\",\"op\":\"{}\",\"imm\":{},\"lo\":{},\"hi\":{},\"always_imm\":{}}}",
                json::escape(&c.func),
                json::escape(&c.value),
                c.mnemonic,
                c.imm,
                c.lo,
                c.hi,
                c.always_imm
            );
        }
        out.push(']');
        out.push_str(",\"deadlock_findings\":[");
        for (i, d) in self.deadlock.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"mem\":\"{}\",\"func\":\"{}\",\"in\":\"{}\",\"out\":\"{}\",\"window\":[{},{}]}}",
                json::escape(&d.mem),
                json::escape(&d.func),
                json::escape(&d.in_param),
                json::escape(&d.out_param),
                d.window.0,
                d.window.1
            );
        }
        out.push(']');
        let _ = write!(
            out,
            ",\"congruence\":{{\"key\":\"{:#018x}\",\"canonical_form\":\"{}\",\"form_collapses\":{}}}",
            self.congruence.key,
            self.congruence.canonical_form,
            self.congruence.form_collapses
        );
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tytra_ir::parse;

    const SRC: &str = r#"
!module = !"rpt"
!ndrange = !{64}
!nki = !1
!form = !"A"
%mem_p = memobj addrSpace(1) ui8, !size, !64
%mem_q = memobj addrSpace(1) ui8, !size, !64
%strobj_p = streamobj %mem_p, !read, !"CONT"
%strobj_q = streamobj %mem_q, !write, !"CONT"
@main.p = addrSpace(12) ui8, !"istream", !"CONT", !0, !"strobj_p"
@main.q = addrSpace(12) ui8, !"ostream", !"CONT", !0, !"strobj_q"
define void @f0(ui8 %p, out ui8 %q) pipe {
  ui8 %a = min ui8 %p, 999
  ui8 %q__out = or ui8 %a, 0
}
define void @main() {
  call @f0(%p, %q) pipe
}
"#;

    #[test]
    fn report_aggregates_every_analysis() {
        let m = parse(SRC).expect("parses");
        let r = analyze_module(&m);
        assert_eq!(r.design, "rpt");
        assert_eq!(r.reachable, vec!["f0".to_string(), "main".to_string()]);
        assert_eq!(r.ranges.findings.len(), 1, "the 999 clamp is unreachable on ui8");
        assert!(r.deadlock.findings.is_empty());
        assert!(r.congruence.form_collapses, "form A at NKI == 1");
        assert!(r.stats.nodes > 0 && r.stats.iterations > 0);
        assert_eq!(r.summaries.len(), 2);
    }

    #[test]
    fn json_is_strict_and_carries_the_findings() {
        let m = parse(SRC).expect("parses");
        let r = analyze_module(&m);
        let text = r.render_json();
        let parsed = json::parse(&text).expect("strict JSON");
        assert_eq!(parsed.get("design").and_then(|v| v.as_str()), Some("rpt"));
        let clamps = parsed.get("clamp_findings").and_then(|v| v.as_arr()).expect("array");
        assert_eq!(clamps.len(), 1);
        assert_eq!(clamps[0].get("op").and_then(|v| v.as_str()), Some("min"));
        let cong = parsed.get("congruence").expect("object");
        assert_eq!(cong.get("canonical_form").and_then(|v| v.as_str()), Some("B"));
        let key = cong.get("key").and_then(|v| v.as_str()).expect("hex key");
        assert!(key.starts_with("0x") && key.len() == 18, "{key}");
        let solver = parsed.get("solver").expect("object");
        assert!(solver.get("iterations").and_then(tytra_trace::json::Json::as_num).unwrap() >= 1.0);
    }

    #[test]
    fn text_rendering_mentions_the_class_and_findings() {
        let m = parse(SRC).expect("parses");
        let r = analyze_module(&m);
        let text = r.render_text();
        assert!(text.contains("analysis of `rpt`"), "{text}");
        assert!(text.contains("clamp: `min %a, 999`"), "{text}");
        assert!(text.contains("congruence: class 0x"), "{text}");
        assert!(text.contains("A/B axis collapses"), "{text}");
    }

    #[test]
    fn json_key_matches_the_congruence_key() {
        let m = parse(SRC).expect("parses");
        let r = analyze_module(&m);
        let parsed = json::parse(&r.render_json()).unwrap();
        let key = parsed
            .get("congruence")
            .and_then(|c| c.get("key"))
            .and_then(|v| v.as_str())
            .unwrap()
            .to_string();
        let parsed_key = u64::from_str_radix(key.trim_start_matches("0x"), 16).unwrap();
        assert_eq!(parsed_key, r.congruence.key);
    }
}
