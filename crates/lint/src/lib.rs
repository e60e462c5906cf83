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
//! | TL1005 | feasibility       | resource estimate versus the target's capacity   |
//! | TL1006 | throughput-wall   | memory-bound designs that want Form B/C staging  |
//! | TL1007 | unreachable-range | min/max clamps whose bound lies outside the operand's derived range |
//! | TL1008 | stream-deadlock   | memory objects both read and written through the same kernel's streams |
//!
//! TL1001/TL1002 are phrased over the dataflow facts `tytra_analyze`
//! derives (effect summaries, solver reachability); TL1007/TL1008 render
//! the findings of its value-range and stream-dependence analyses
//! (`docs/analysis.md`).
//!
//! Severity policy: structural liveness/dead-code findings are warnings
//! (the design still computes something), out-of-range offsets and
//! designs that do not fit the device are errors (the design cannot run
//! as written), and the throughput wall is an advisory warning carrying
//! the cost model's own tuning hint.
//!
//! The driver runs validation first. If validation reports any error the
//! lint passes are skipped — like a compiler suppressing lints on code
//! that does not type-check — so every `TL1xxx` diagnostic can assume a
//! structurally valid module.

pub mod json;
pub mod passes;
pub mod render;

pub use json::render_json;
pub use render::render_text;

use std::collections::{BTreeMap, BTreeSet};
use tytra_analyze::FnSummary;
use tytra_cost::CostReport;
use tytra_device::TargetDevice;
use tytra_ir::{DiagSink, Diagnostic, IrModule, Severity};

/// Everything a lint pass may inspect: the module, the device it is being
/// judged against, (when available) the cost model's verdict, and the
/// dataflow facts `tytra_analyze` derives, computed once per lint run.
pub struct LintContext<'a> {
    /// The design under lint.
    pub module: &'a IrModule,
    /// The FPGA target the feasibility lints judge against.
    pub device: &'a TargetDevice,
    /// Cost-model estimate; `None` when validation failed upstream or the
    /// estimator itself rejected the module.
    pub report: Option<&'a CostReport>,
    /// Function names reachable from `main` (the solver's call-graph
    /// fixpoint).
    pub reachable: BTreeSet<String>,
    /// Per-function effect summaries, keyed by function name.
    pub summaries: BTreeMap<String, FnSummary>,
}

/// One lint pass. Passes are pure readers: they may only emit into the
/// sink, never mutate the module.
pub trait Pass {
    /// The stable diagnostic code this pass emits (`TL1xxx`).
    fn code(&self) -> &'static str;
    /// Short machine-friendly pass name (used in `--json` output and docs).
    fn name(&self) -> &'static str;
    /// One-line description of what the pass reports.
    fn summary(&self) -> &'static str;
    /// Run the pass over `cx`, emitting diagnostics into `sink`.
    fn run(&self, cx: &LintContext<'_>, sink: &mut DiagSink);
}

/// The full registry, in execution (and documentation) order.
pub fn registry() -> Vec<Box<dyn Pass>> {
    vec![
        Box::new(passes::Liveness),
        Box::new(passes::DeadCode),
        Box::new(passes::OffsetBounds),
        Box::new(passes::ReductionInit),
        Box::new(passes::Feasibility),
        Box::new(passes::ThroughputWall),
        Box::new(passes::UnreachableRange),
        Box::new(passes::StreamDeadlock),
    ]
}

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
    /// Whether the cost model produced an estimate (false when validation
    /// failed or the estimator errored; TL1005/TL1006 stay silent then).
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

/// Lint `m` against `dev`: validate, then run every registered pass.
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
            tytra_cost::estimate(m, dev).ok()
        };
        cost_evaluated = report.is_some();
        let cx = LintContext {
            module: m,
            device: dev,
            report: report.as_ref(),
            reachable: tytra_analyze::reachable(m).0,
            summaries: tytra_analyze::summaries(m),
        };
        for pass in registry() {
            let mut sp =
                tytra_trace::span("lint.pass").with("code", pass.code()).with("pass", pass.name());
            let before = sink.diagnostics().len();
            pass.run(&cx, &mut sink);
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
        let codes: Vec<&str> = registry().iter().map(|p| p.code()).collect();
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
}
