//! `tirlint`: a span-aware dataflow lint engine for TyTra-IR.
//!
//! Structural validation (the `TL00xx` codes emitted by
//! `tytra_ir::validate`) decides whether a design parses into a meaningful
//! dataflow machine; the lint passes here decide whether that machine is
//! *worth building*. Each pass inspects the module — and, for the
//! feasibility lints, the cost model's estimate against a target device —
//! and reports [`Diagnostic`]s through the same [`DiagSink`] the validator
//! uses, so one driver run yields a single, stably-coded diagnostic stream.
//!
//! | code   | pass              | reports                                          |
//! |--------|-------------------|--------------------------------------------------|
//! | TL1001 | liveness          | unread input ports, unwritten output ports, unconsumed streams and memories |
//! | TL1002 | dead-code         | values computed but never used; functions unreachable from `main` |
//! | TL1003 | offset-bounds     | stencil offsets at or beyond the NDRange extent  |
//! | TL1004 | reduction-init    | reductions that never read their accumulator     |
//! | TL1005 | feasibility       | resource estimate versus the target's capacity; designs the cost model rejects |
//! | TL1006 | throughput-wall   | memory-bound designs that want Form B/C staging  |
//! | TL1007 | unreachable-range | min/max clamps whose bound lies outside the operand's derived range |
//! | TL1008 | stream-deadlock   | memory objects both read and written through the same kernel's streams |
//!
//! [`PASSES`] is this table as code: one [`Pass`] per row, holding the
//! code, the name and the plain function that runs the pass, in the
//! order [`lint`] runs them.
//!
//! TL1001/TL1002 are phrased over the dataflow facts `tytra_analyze`
//! derives (effect summaries, solver reachability); TL1007/TL1008 render
//! the findings of its value-range and stream-dependence analyses
//! (`docs/analysis.md`).
//!
//! Severity policy: structural liveness/dead-code findings are warnings
//! (the design still computes something), out-of-range offsets, designs
//! that do not fit the device and designs the cost model cannot estimate
//! are errors (the design cannot run as written), and the throughput wall
//! is an advisory warning carrying the cost model's own tuning hint.
//!
//! The driver runs validation first. If validation reports any error the
//! lint passes are skipped — like a compiler suppressing lints on code
//! that does not type-check — so every `TL1xxx` diagnostic can assume a
//! structurally valid module.

mod passes;
pub mod render;

pub use render::{render_json, render_text};

use std::collections::{BTreeMap, BTreeSet};
use tytra_analyze::FnSummary;
use tytra_cost::CostReport;
use tytra_device::TargetDevice;
use tytra_ir::{DiagSink, Diagnostic, IrModule, Severity, TybecError};

/// Everything a lint pass may inspect: the module, the device it is being
/// judged against, (when available) the cost model's verdict, and the
/// dataflow facts `tytra_analyze` derives, computed once per lint run.
pub struct LintContext<'a> {
    /// The design under lint.
    pub module: &'a IrModule,
    /// The FPGA target the feasibility lints judge against.
    pub device: &'a TargetDevice,
    /// Cost-model estimate, or the error the estimator rejected the
    /// module with (TL1005 reports it).
    pub report: Result<&'a CostReport, &'a TybecError>,
    /// Function names reachable from `main` (the solver's call-graph
    /// fixpoint).
    pub reachable: BTreeSet<String>,
    /// Per-function effect summaries, keyed by function name.
    pub summaries: BTreeMap<String, FnSummary>,
}

/// One lint pass. Passes are pure readers: they may only emit into the
/// sink, never mutate the module.
pub struct Pass {
    /// The stable diagnostic code this pass emits (`TL1xxx`).
    pub code: &'static str,
    /// Short machine-friendly pass name (the `pass` field of its
    /// `lint.pass` span).
    pub name: &'static str,
    /// Run the pass over a context, emitting diagnostics into the sink.
    pub run: fn(&LintContext<'_>, &mut DiagSink),
}

/// Every pass, in execution (and documentation) order.
pub const PASSES: [Pass; 8] = [
    Pass { code: "TL1001", name: "liveness", run: passes::liveness },
    Pass { code: "TL1002", name: "dead-code", run: passes::dead_code },
    Pass { code: "TL1003", name: "offset-bounds", run: passes::offset_bounds },
    Pass { code: "TL1004", name: "reduction-init", run: passes::reduction_init },
    Pass { code: "TL1005", name: "feasibility", run: passes::feasibility },
    Pass { code: "TL1006", name: "throughput-wall", run: passes::throughput_wall },
    Pass { code: "TL1007", name: "unreachable-range", run: passes::unreachable_range },
    Pass { code: "TL1008", name: "stream-deadlock", run: passes::stream_deadlock },
];

/// The outcome of linting one module.
#[derive(Debug, Clone)]
pub struct LintReport {
    /// Module (design) name.
    pub module: String,
    /// Target device name the feasibility lints used.
    pub target: String,
    /// Validation diagnostics (`TL00xx`) followed by lint diagnostics
    /// (`TL1xxx`) in pass order.
    pub diagnostics: Vec<Diagnostic>,
    /// Whether the cost model produced an estimate. False when validation
    /// failed (no lint pass runs) or the estimator errored (TL1005 then
    /// reports the estimator's error as an error, and TL1006 stays
    /// silent).
    pub cost_evaluated: bool,
}

impl LintReport {
    /// Number of error-severity diagnostics.
    pub fn errors(&self) -> usize {
        self.count(Severity::Error)
    }

    /// Number of warning-severity diagnostics.
    pub fn warnings(&self) -> usize {
        self.count(Severity::Warn)
    }

    /// Number of diagnostics at exactly `sev`.
    pub fn count(&self, sev: Severity) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == sev).count()
    }

    /// The codes present, in emission order (repeats preserved).
    pub fn codes(&self) -> Vec<&'static str> {
        self.diagnostics.iter().map(|d| d.code).collect()
    }
}

/// Lint `m` against `dev`: validate, then run every pass in [`PASSES`].
/// Each pass runs under a `lint.pass` span carrying its code and name
/// (`docs/observability.md`); validation traces itself as `ir.validate`.
pub fn lint(m: &IrModule, dev: &TargetDevice) -> LintReport {
    let _root = tytra_trace::span("lint.module").with("module", m.name.as_str());
    let mut sink = DiagSink::new();
    tytra_ir::validate::validate_into(m, &mut sink);

    let mut cost_evaluated = false;
    if !sink.has_errors() {
        let report = {
            let _sp = tytra_trace::span("lint.estimate");
            tytra_cost::estimate(m, dev)
        };
        cost_evaluated = report.is_ok();
        let cx = LintContext {
            module: m,
            device: dev,
            report: report.as_ref(),
            reachable: tytra_analyze::reachable(m).0,
            summaries: tytra_analyze::summaries(m),
        };
        for pass in &PASSES {
            let mut sp =
                tytra_trace::span("lint.pass").with("code", pass.code).with("pass", pass.name);
            let before = sink.diagnostics().len();
            (pass.run)(&cx, &mut sink);
            sp.record("diagnostics", (sink.diagnostics().len() - before) as u64);
        }
    }

    LintReport {
        module: m.name.clone(),
        target: dev.name.clone(),
        diagnostics: sink.into_diagnostics(),
        cost_evaluated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_codes_are_unique_and_ordered() {
        let codes: Vec<&str> = PASSES.iter().map(|p| p.code).collect();
        assert_eq!(
            codes,
            vec!["TL1001", "TL1002", "TL1003", "TL1004", "TL1005", "TL1006", "TL1007", "TL1008"]
        );
    }

    #[test]
    fn validation_errors_suppress_lint_passes() {
        // A module with no `main` fails validation; no TL1xxx may appear.
        let m = IrModule::new("broken");
        let r = lint(&m, &tytra_device::eval_small());
        assert!(!r.cost_evaluated);
        assert!(r.errors() > 0);
        assert!(r.codes().iter().all(|c| c.starts_with("TL00")));
    }

    /// A valid design of `levels` levels of `pipe` functions, each
    /// calling the next `fan` times.
    fn fan_out(levels: usize, fan: usize) -> IrModule {
        let mut src = String::from(
            "!module = !\"fanout\"\n!ndrange = !{64}\n!nki = !1\n!form = !\"B\"\n\
             %mem_p = memobj addrSpace(1) ui18, !size, !64\n\
             %strobj_p = streamobj %mem_p, !read, !\"CONT\"\n\
             @main.p = addrSpace(12) ui18, !\"istream\", !\"CONT\", !0, !\"strobj_p\"\n\
             %mem_q = memobj addrSpace(1) ui18, !size, !64\n\
             %strobj_q = streamobj %mem_q, !write, !\"CONT\"\n\
             @main.q = addrSpace(12) ui18, !\"ostream\", !\"CONT\", !0, !\"strobj_q\"\n",
        );
        src += &format!(
            "define void @f{levels}(ui18 %p, out ui18 %q) pipe {{\n  ui18 %q__out = or ui18 %p, 0\n}}\n"
        );
        for l in (0..levels).rev() {
            src += &format!("define void @f{l}(ui18 %p, out ui18 %q) pipe {{\n");
            src += &format!("  call @f{}(%p, %q) pipe\n", l + 1).repeat(fan);
            src += "}\n";
        }
        src += "define void @main() {\n  call @f0(%p, %q) pipe\n}\n";
        tytra_ir::parse(&src).expect("the fan-out design is valid")
    }

    #[test]
    fn a_design_the_cost_model_rejects_is_a_tl1005_error() {
        // 6^12 call paths: past the configuration-node budget, so the
        // estimator rejects the design that validation accepts.
        let r = lint(&fan_out(12, 6), &tytra_device::stratix_v_gsd8());
        assert!(!r.cost_evaluated);
        assert_eq!(r.codes(), ["TL1005"]);
        let d = &r.diagnostics[0];
        assert_eq!(d.severity, Severity::Error);
        assert!(d.message.contains("more than 65536 configuration nodes"), "{}", d.message);
        // Within the budget the same shape costs, and lints clean.
        let r = lint(&fan_out(2, 6), &tytra_device::stratix_v_gsd8());
        assert!(r.cost_evaluated);
        assert_eq!(r.codes(), Vec::<&str>::new());
    }
}
