//! The eight lint passes, `TL1001`–`TL1008`.
//!
//! Passes 1–4 are structural: they read the dataflow facts that
//! `tytra_analyze` derives (per-function effect summaries and solver
//! reachability, computed once per run into the [`LintContext`]) over
//! the Manage-IR and each reachable function. Passes
//! 5–6 consume the cost model's
//! [`CostReport`](tytra_cost::CostReport); when the cost model rejects
//! the design, pass 5 reports its error and pass 6 stays silent. Passes
//! 7–8 render the findings of the value-range and stream-deadlock
//! analyses.

use crate::{LintContext, Pass};
use std::collections::{HashMap, HashSet};
use tytra_analyze::{analyze_deadlock, analyze_ranges};
use tytra_cost::Limiter;
use tytra_ir::{Dest, DiagSink, Diagnostic, Operand, ParKind, PortDir, SrcLoc, Stmt};

/// TL1001 — liveness of the streaming interface: every input port must be
/// read, every output port written, every stream object consumed by a
/// port, and every memory object reached by a stream. A dataflow design
/// whose interface has slack transports (and buffers) data for nothing.
pub struct Liveness;

impl Pass for Liveness {
    fn code(&self) -> &'static str {
        "TL1001"
    }

    fn name(&self) -> &'static str {
        "liveness"
    }

    fn summary(&self) -> &'static str {
        "unread input ports, unwritten output ports, unconsumed streams and memories"
    }

    fn run(&self, cx: &LintContext<'_>, sink: &mut DiagSink) {
        let m = cx.module;
        let (reachable, sums) = (&cx.reachable, &cx.summaries);
        for f in &m.functions {
            if f.name == "main" || !reachable.contains(&f.name) {
                continue;
            }
            let summary = &sums[&f.name];
            for p in &f.params {
                match p.dir {
                    PortDir::In => {
                        if !summary.consumes(&p.name) {
                            sink.emit(
                                Diagnostic::warn(
                                    "TL1001",
                                    format!(
                                        "input port `%{}` of `@{}` is never read",
                                        p.name, f.name
                                    ),
                                )
                                .with_loc(f.span)
                                .with_hint(
                                    "remove the parameter or consume the stream in the body",
                                ),
                            );
                        }
                    }
                    PortDir::Out => {
                        if !summary.writes_port(&p.name) {
                            sink.emit(
                                Diagnostic::warn(
                                    "TL1001",
                                    format!(
                                        "output port `%{}` of `@{}` is never written",
                                        p.name, f.name
                                    ),
                                )
                                .with_loc(f.span)
                                .with_hint(format!(
                                    "drive the port, e.g. `ty %{}__out = or ty %value, 0`",
                                    p.name
                                )),
                            );
                        }
                    }
                }
            }
        }
        for s in &m.streams {
            if !m.ports.iter().any(|p| p.stream == s.name) {
                sink.emit(
                    Diagnostic::warn(
                        "TL1001",
                        format!("stream `%{}` is not consumed by any port", s.name),
                    )
                    .with_loc(s.span)
                    .with_hint("bind it with an istream/ostream port declaration or remove it"),
                );
            }
        }
        for mem in &m.mems {
            if !m.streams.iter().any(|s| s.mem == mem.name) {
                sink.emit(
                    Diagnostic::warn(
                        "TL1001",
                        format!("memory object `%{}` is never streamed", mem.name),
                    )
                    .with_loc(mem.span)
                    .with_hint("attach a streamobj or remove the memory object"),
                );
            }
        }
        // Ports that no call ever passes into the kernel: bound but idle.
        // Only meaningful under the explicit-argument call convention; a
        // module whose calls are all zero-arg (lane replication, as in
        // `call @f0() pipe` repeated under a `par` wrapper) binds ports to
        // lanes implicitly, so every port is in use by construction.
        let explicit_args = m.functions.iter().flat_map(|f| f.calls()).any(|c| !c.args.is_empty());
        if !explicit_args {
            return;
        }
        for p in &m.ports {
            let short = p.name.rsplit('.').next().unwrap_or(&p.name);
            let passed = m.functions.iter().flat_map(|f| f.calls()).any(|c| {
                c.args.iter().any(|a| a.name() == Some(short) || a.name() == Some(&p.name))
            });
            if !passed {
                sink.emit(
                    Diagnostic::warn(
                        "TL1001",
                        format!("port `@{}` is never passed to a kernel function", p.name),
                    )
                    .with_loc(p.span)
                    .with_hint("pass it as a call argument in `@main` or remove the port"),
                );
            }
        }
    }
}

/// TL1002 — dead code: SSA values and offset streams computed but never
/// consumed, and functions unreachable from `main`. Dead values still
/// cost ALUTs and pipeline registers in the datapath estimate.
pub struct DeadCode;

impl Pass for DeadCode {
    fn code(&self) -> &'static str {
        "TL1002"
    }

    fn name(&self) -> &'static str {
        "dead-code"
    }

    fn summary(&self) -> &'static str {
        "values computed but never used; functions unreachable from `main`"
    }

    fn run(&self, cx: &LintContext<'_>, sink: &mut DiagSink) {
        let m = cx.module;
        let (reachable, sums) = (&cx.reachable, &cx.summaries);
        for f in &m.functions {
            if !reachable.contains(&f.name) {
                sink.emit(
                    Diagnostic::warn(
                        "TL1002",
                        format!("function `@{}` is never called from `@main`", f.name),
                    )
                    .with_loc(f.span)
                    .with_hint("dispatch it from `@main` (directly or transitively) or remove it"),
                );
                continue;
            }
            if !matches!(f.kind, ParKind::Pipe | ParKind::Comb) {
                continue;
            }
            let summary = &sums[&f.name];
            for s in &f.body {
                match s {
                    Stmt::Instr(i) => {
                        if let Dest::Local(n) = &i.dest {
                            if !summary.consumes(n) && !n.ends_with("__out") {
                                sink.emit(
                                    Diagnostic::warn(
                                        "TL1002",
                                        format!(
                                            "value `%{}` in `@{}` is computed but never used",
                                            n, f.name
                                        ),
                                    )
                                    .with_loc(i.span)
                                    .with_hint(
                                        "the functional unit still costs ALUTs and registers; \
                                         remove the instruction or consume the value",
                                    ),
                                );
                            }
                        }
                    }
                    Stmt::Offset(o) => {
                        if !summary.consumes(&o.dest) {
                            sink.emit(
                                Diagnostic::warn(
                                    "TL1002",
                                    format!(
                                        "offset stream `%{}` in `@{}` is never consumed",
                                        o.dest, f.name
                                    ),
                                )
                                .with_loc(o.span)
                                .with_hint(
                                    "the offset still allocates smart-buffer BRAM; remove it \
                                     or use the stream",
                                ),
                            );
                        }
                    }
                    Stmt::Call(_) => {}
                }
            }
        }
    }
}

/// TL1003 — stencil offsets versus the NDRange extent. An offset whose
/// magnitude reaches the flattened global size can never be satisfied by
/// a smart buffer; a window as wide as the whole index space means the
/// "buffer" is the entire grid.
pub struct OffsetBounds;

impl Pass for OffsetBounds {
    fn code(&self) -> &'static str {
        "TL1003"
    }

    fn name(&self) -> &'static str {
        "offset-bounds"
    }

    fn summary(&self) -> &'static str {
        "stencil offsets at or beyond the NDRange extent"
    }

    fn run(&self, cx: &LintContext<'_>, sink: &mut DiagSink) {
        let m = cx.module;
        let ngs = m.meta.global_size();
        let reachable = &cx.reachable;
        for f in &m.functions {
            if !reachable.contains(f.name.as_str()) {
                continue;
            }
            let mut errored: HashSet<&str> = HashSet::new();
            for o in f.offsets() {
                if o.offset.unsigned_abs() >= ngs {
                    errored.insert(o.src.as_str());
                    sink.emit(
                        Diagnostic::error(
                            "TL1003",
                            format!(
                                "offset !{:+} on `%{}` reaches outside the NDRange (NGS = {})",
                                o.offset, o.src, ngs
                            ),
                        )
                        .with_loc(o.span)
                        .with_hint(
                            "offsets index the flattened NDRange; check the linearization \
                             against !ndrange",
                        ),
                    );
                }
            }
            for src in f.offset_sources() {
                if errored.contains(src) {
                    continue;
                }
                let window = f.offset_window(src);
                if window > ngs {
                    let span = f.offsets().find(|o| o.src == src).map(|o| o.span).unwrap_or(f.span);
                    sink.emit(
                        Diagnostic::warn(
                            "TL1003",
                            format!(
                                "offset window on `%{}` spans {} elements, wider than the \
                                 NDRange (NGS = {})",
                                src, window, ngs
                            ),
                        )
                        .with_loc(span)
                        .with_hint(
                            "the smart buffer would hold the entire index space; shrink the \
                             stencil reach or enlarge the NDRange",
                        ),
                    );
                }
            }
        }
    }
}

/// TL1004 — reduction accumulator initialization. A reduction that never
/// reads its own accumulator overwrites it on every work-item, so the
/// "reduction" degenerates to the last item's value; an accumulator
/// combined under several different operators has an order-dependent
/// result.
pub struct ReductionInit;

impl Pass for ReductionInit {
    fn code(&self) -> &'static str {
        "TL1004"
    }

    fn name(&self) -> &'static str {
        "reduction-init"
    }

    fn summary(&self) -> &'static str {
        "reductions that never read (accumulate into) their accumulator"
    }

    fn run(&self, cx: &LintContext<'_>, sink: &mut DiagSink) {
        let m = cx.module;
        let reachable = &cx.reachable;
        let mut ops_by_acc: HashMap<&str, Vec<tytra_ir::Opcode>> = HashMap::new();
        for f in &m.functions {
            if !reachable.contains(f.name.as_str()) {
                continue;
            }
            for i in f.instrs() {
                let Dest::Global(acc) = &i.dest else { continue };
                ops_by_acc.entry(acc.as_str()).or_default().push(i.op);
                let reads_self =
                    i.operands.iter().any(|o| matches!(o, Operand::Global(g) if g == acc));
                if !reads_self {
                    sink.emit(
                        Diagnostic::warn(
                            "TL1004",
                            format!(
                                "reduction into `@{}` never reads `@{}`: every work-item \
                                 overwrites the accumulator",
                                acc, acc
                            ),
                        )
                        .with_loc(i.span)
                        .with_hint(format!(
                            "accumulate by including the register among the operands, e.g. \
                             `ty @{acc} = {} ty %x, @{acc}`",
                            i.op.mnemonic()
                        )),
                    );
                }
            }
        }
        for (acc, ops) in ops_by_acc {
            let mut distinct: Vec<tytra_ir::Opcode> = Vec::new();
            for op in ops {
                if !distinct.contains(&op) {
                    distinct.push(op);
                }
            }
            if distinct.len() > 1 {
                let names: Vec<&str> = distinct.iter().map(|o| o.mnemonic()).collect();
                sink.emit(
                    Diagnostic::warn(
                        "TL1004",
                        format!(
                            "accumulator `@{}` is combined under several operators ({}): the \
                             result is order-dependent",
                            acc,
                            names.join(", ")
                        ),
                    )
                    .with_hint("use a single associative operator per accumulator"),
                );
            }
        }
    }
}

/// TL1005 — device feasibility. Judges the cost model's resource estimate
/// against the target's capacity: an error when the design does not fit,
/// a warning when any axis is within 10% of full. A design the cost model
/// cannot estimate is an error carrying the estimator's message.
pub struct Feasibility;

impl Pass for Feasibility {
    fn code(&self) -> &'static str {
        "TL1005"
    }

    fn name(&self) -> &'static str {
        "feasibility"
    }

    fn summary(&self) -> &'static str {
        "cost-model resource estimate versus the target device's capacity"
    }

    fn run(&self, cx: &LintContext<'_>, sink: &mut DiagSink) {
        let r = match cx.report {
            Ok(r) => r,
            Err(e) => {
                let msg = format!("the cost model cannot estimate the design: {}", e.message);
                sink.emit(Diagnostic::error("TL1005", msg).with_loc(SrcLoc(e.span)));
                return;
            }
        };
        let u = &r.utilization;
        let axes =
            [("ALUT", u.aluts), ("register", u.regs), ("BRAM", u.bram_bits), ("DSP", u.dsps)];
        if !r.fits {
            let over: Vec<String> = axes
                .iter()
                .filter(|(_, v)| *v > 1.0)
                .map(|(n, v)| format!("{} {:.0}%", n, v * 100.0))
                .collect();
            sink.emit(
                Diagnostic::error(
                    "TL1005",
                    format!("design does not fit `{}`: {}", r.target, over.join(", ")),
                )
                .with_hint(
                    "reduce kernel lanes or vectorization, shrink local buffers, or target a \
                     larger device",
                ),
            );
            return;
        }
        if let Some((name, v)) =
            axes.iter().filter(|(_, v)| *v > 0.9).max_by(|a, b| a.1.total_cmp(&b.1))
        {
            sink.emit(
                Diagnostic::warn(
                    "TL1005",
                    format!(
                        "design uses {:.0}% of the {} capacity of `{}`",
                        v * 100.0,
                        name,
                        r.target
                    ),
                )
                .with_hint(
                    "under 10% headroom: placement and routing at this utilization usually \
                     degrades the achievable clock",
                ),
            );
        }
    }
}

/// TL1006 — throughput-wall advisory. When the cost model says the design
/// is memory-bound (host or device-DRAM bandwidth wall), the compute
/// pipeline starves and extra lanes buy nothing; the fix is a
/// memory-execution form that stages data closer to the datapath.
pub struct ThroughputWall;

impl Pass for ThroughputWall {
    fn code(&self) -> &'static str {
        "TL1006"
    }

    fn name(&self) -> &'static str {
        "throughput-wall"
    }

    fn summary(&self) -> &'static str {
        "memory-bound designs that would benefit from Form B/C staging"
    }

    fn run(&self, cx: &LintContext<'_>, sink: &mut DiagSink) {
        let Ok(r) = cx.report else { return };
        if !matches!(r.limiter, Limiter::HostBandwidth | Limiter::DramBandwidth) {
            return;
        }
        sink.emit(
            Diagnostic::warn(
                "TL1006",
                format!(
                    "design is memory-bound ({}) under form {}: compute lanes will starve",
                    r.limiter, cx.module.meta.form
                ),
            )
            .with_hint(r.limiter.tuning_hint()),
        );
    }
}

/// TL1007 — unreachable clamp ranges. Renders the value-range analysis's
/// findings: a `min`/`max` whose immediate bound lies outside the other
/// operand's derived range either never fires (the clamp is a no-op that
/// still costs a functional unit) or always fires (the whole upstream
/// datapath feeding the clamp is dead).
pub struct UnreachableRange;

impl Pass for UnreachableRange {
    fn code(&self) -> &'static str {
        "TL1007"
    }

    fn name(&self) -> &'static str {
        "unreachable-range"
    }

    fn summary(&self) -> &'static str {
        "min/max clamps whose bound lies outside the operand's derived range"
    }

    fn run(&self, cx: &LintContext<'_>, sink: &mut DiagSink) {
        let ranges = analyze_ranges(cx.module);
        for c in &ranges.findings {
            if c.always_imm {
                sink.emit(
                    Diagnostic::warn(
                        "TL1007",
                        format!(
                            "`{} %{}, {}` in `@{}` always yields {}: the operand's derived \
                             range is [{}, {}]",
                            c.mnemonic, c.value, c.imm, c.func, c.imm, c.lo, c.hi
                        ),
                    )
                    .with_loc(c.span)
                    .with_hint(
                        "the datapath feeding the clamp is dead; replace the result with the \
                         constant or widen the operand",
                    ),
                );
            } else {
                sink.emit(
                    Diagnostic::warn(
                        "TL1007",
                        format!(
                            "`{}` bound {} on `%{}` in `@{}` can never fire: the operand's \
                             derived range is [{}, {}]",
                            c.mnemonic, c.imm, c.value, c.func, c.lo, c.hi
                        ),
                    )
                    .with_loc(c.span)
                    .with_hint(
                        "the clamp is a no-op that still costs a functional unit; remove it \
                         or tighten the bound",
                    ),
                );
            }
        }
    }
}

/// TL1008 — stream deadlock. Renders the stream-dependence analysis's
/// findings: a memory object that a reachable function both consumes
/// (through a read stream) and produces (through a write stream) closes a
/// feedback cycle the smart buffer cannot satisfy — the read side waits
/// on data the write side has not produced yet.
pub struct StreamDeadlock;

impl Pass for StreamDeadlock {
    fn code(&self) -> &'static str {
        "TL1008"
    }

    fn name(&self) -> &'static str {
        "stream-deadlock"
    }

    fn summary(&self) -> &'static str {
        "memory objects both read and written through the same kernel's streams"
    }

    fn run(&self, cx: &LintContext<'_>, sink: &mut DiagSink) {
        let deadlock = analyze_deadlock(cx.module);
        for d in &deadlock.findings {
            sink.emit(
                Diagnostic::error(
                    "TL1008",
                    format!(
                        "memory `%{}` is read and written through `@{}` in the same pass: \
                         the stream cycle deadlocks (in `%{}`, out `%{}`, window [{:+}, {:+}])",
                        d.mem, d.func, d.in_param, d.out_param, d.window.0, d.window.1
                    ),
                )
                .with_loc(d.span)
                .with_hint(
                    "stage the output in a separate memory object (double-buffer) or split \
                     the pass so no kernel feeds its own input stream",
                ),
            );
        }
    }
}
