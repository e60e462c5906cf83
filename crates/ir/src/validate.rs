//! Semantic validation of TyTra-IR modules.
//!
//! Checks performed:
//!
//! * name uniqueness (functions, memory objects, streams, ports, params);
//! * SSA discipline: every local destination is assigned exactly once per
//!   function and every operand is defined before use (params, earlier
//!   statements, or global accumulators);
//! * type agreement: offset streams carry the type of their source; ports
//!   restate the element type of their backing stream's memory object;
//! * structural rules per [`ParKind`]: `par` bodies contain only calls;
//!   `comb` bodies contain only single-cycle instructions (no offsets, no
//!   calls, no reductions); `pipe` bodies may mix instructions, offsets and
//!   calls to `pipe`/`comb` children;
//! * call-site kind annotations agree with the callee's declared kind, the
//!   callee exists, arity matches, and the call graph is acyclic;
//! * the module has a `main` entry that only calls;
//! * NDRange metadata is non-degenerate.
//!
//! Two entry points: [`validate`] keeps the original fail-fast contract
//! (the first violation as an [`IrError`]), while [`validate_into`]
//! collects *every* violation as a [`Diagnostic`] with a stable `TL00xx`
//! code and a source span — this is what `tybec lint` drives.
//!
//! Validation diagnostic codes:
//!
//! | code   | violation                                             |
//! |--------|-------------------------------------------------------|
//! | TL0001 | duplicate name (function/mem/stream/port/parameter)   |
//! | TL0002 | reference to an unknown entity                        |
//! | TL0003 | port direction disagrees with its stream              |
//! | TL0004 | port type disagrees with the backing memory           |
//! | TL0005 | port access pattern disagrees with its stream         |
//! | TL0006 | `par` function contains a non-call statement          |
//! | TL0007 | `par` function has no lanes                           |
//! | TL0008 | `comb` function contains a reduction                  |
//! | TL0009 | `comb` function contains an offset or call            |
//! | TL0010 | use of an undefined value or stream                   |
//! | TL0011 | SSA violation: local assigned twice                   |
//! | TL0012 | offset type disagrees with its source stream          |
//! | TL0013 | instruction operand count != opcode arity             |
//! | TL0014 | global read outside a reduction                       |
//! | TL0015 | float immediate as operand of an integer op           |
//! | TL0016 | call kind annotation disagrees with callee            |
//! | TL0017 | call argument count disagrees with callee params      |
//! | TL0018 | `main` missing or malformed                           |
//! | TL0019 | recursive call cycle                                  |
//! | TL0020 | degenerate execution metadata (NDRange/NKI/freq)      |

use crate::diag::{DiagSink, Diagnostic, SrcLoc};
use crate::error::{IrError, Result};
use crate::function::{IrFunction, ParKind, Stmt};
use crate::instr::Operand;
use crate::module::IrModule;
use std::collections::{HashMap, HashSet};

/// Validate a module; returns the first violation found.
pub fn validate(m: &IrModule) -> Result<()> {
    let mut sink = DiagSink::new();
    match validate_into(m, &mut sink) {
        Some(first) => Err(first),
        None => Ok(()),
    }
}

/// Validate a module, emitting *every* violation into `sink` as `TL00xx`
/// diagnostics. Returns the first violation as an [`IrError`] (the same
/// error [`validate`] fails with), or `None` when the module is clean.
pub fn validate_into(m: &IrModule, sink: &mut DiagSink) -> Option<IrError> {
    let _sp = tytra_trace::span("ir.validate").with("module", m.name.as_str());
    let mut ctx = Ctx { sink, first: None };
    check_unique_names(m, &mut ctx);
    check_manage_ir(m, &mut ctx);
    for f in &m.functions {
        check_function(m, f, &mut ctx);
    }
    check_main(m, &mut ctx);
    check_call_graph(m, &mut ctx);
    check_meta(m, &mut ctx);
    ctx.first
}

/// Shared state of one validation run: the sink receiving all
/// diagnostics, plus the first violation for the fail-fast API.
struct Ctx<'s> {
    sink: &'s mut DiagSink,
    first: Option<IrError>,
}

impl Ctx<'_> {
    /// Report a violation whose [`IrError`] form is `Validate(msg)`.
    fn invalid(&mut self, code: &'static str, loc: SrcLoc, msg: String) {
        if self.first.is_none() {
            self.first = Some(IrError::Validate(msg.clone()));
        }
        self.sink.emit(Diagnostic::error(code, msg).with_loc(loc));
    }

    /// Report a dangling reference (`IrError::Unknown`).
    fn unknown(&mut self, loc: SrcLoc, kind: &'static str, name: &str) {
        if self.first.is_none() {
            self.first = Some(IrError::Unknown { kind, name: name.to_string() });
        }
        self.sink
            .emit(Diagnostic::error("TL0002", format!("unknown {kind} `{name}`")).with_loc(loc));
    }
}

fn dup_check<'a, I: Iterator<Item = (&'a str, SrcLoc)>>(what: &str, names: I, ctx: &mut Ctx<'_>) {
    let mut seen = HashSet::with_capacity(names.size_hint().0);
    for (n, loc) in names {
        if !seen.insert(n) {
            ctx.invalid("TL0001", loc, format!("duplicate {what} name `{n}`"));
        }
    }
}

fn check_unique_names(m: &IrModule, ctx: &mut Ctx<'_>) {
    dup_check("function", m.functions.iter().map(|f| (f.name.as_str(), f.span)), ctx);
    dup_check("memory object", m.mems.iter().map(|x| (x.name.as_str(), x.span)), ctx);
    dup_check("stream object", m.streams.iter().map(|x| (x.name.as_str(), x.span)), ctx);
    dup_check("port", m.ports.iter().map(|x| (x.name.as_str(), x.span)), ctx);
}

fn check_manage_ir(m: &IrModule, ctx: &mut Ctx<'_>) {
    let links = m.manage_links();
    for (i, s) in m.streams.iter().enumerate() {
        if links.stream_mem(i).is_none() {
            ctx.unknown(s.span, "memory object", &s.mem);
        }
    }
    for (i, p) in m.ports.iter().enumerate() {
        let Some(s) = links.port_stream(i) else {
            ctx.unknown(p.span, "stream object", &p.stream);
            continue;
        };
        if s.dir != p.dir {
            ctx.invalid(
                "TL0003",
                p.span,
                format!("port `{}` direction disagrees with stream `{}`", p.name, s.name),
            );
        }
        let Some(mem) = links.port_mem(i) else {
            continue; // dangling stream already reported above
        };
        if mem.elem_ty != p.ty {
            ctx.invalid(
                "TL0004",
                p.span,
                format!(
                    "port `{}` type {} disagrees with memory `{}` element type {}",
                    p.name, p.ty, mem.name, mem.elem_ty
                ),
            );
        }
        if s.pattern != p.pattern {
            ctx.invalid(
                "TL0005",
                p.span,
                format!(
                    "port `{}` access pattern disagrees with stream `{}` (the port restates the stream's pattern)",
                    p.name, s.name
                ),
            );
        }
    }
}

fn check_function(m: &IrModule, f: &IrFunction, ctx: &mut Ctx<'_>) {
    dup_check(
        &format!("parameter in `{}`", f.name),
        f.params.iter().map(|p| (p.name.as_str(), f.span)),
        ctx,
    );

    // Structural rules per kind.
    match f.kind {
        ParKind::Par => {
            if f.body.iter().any(|s| !matches!(s, Stmt::Call(_))) {
                ctx.invalid(
                    "TL0006",
                    f.span,
                    format!("`par` function `{}` may contain only calls", f.name),
                );
            }
            if f.body.is_empty() {
                ctx.invalid("TL0007", f.span, format!("`par` function `{}` has no lanes", f.name));
            }
        }
        ParKind::Comb => {
            for s in &f.body {
                match s {
                    Stmt::Instr(i) if !i.is_reduction() => {}
                    Stmt::Instr(i) => {
                        ctx.invalid(
                            "TL0008",
                            i.span,
                            format!("`comb` function `{}` may not contain reductions", f.name),
                        );
                    }
                    _ => {
                        ctx.invalid(
                            "TL0009",
                            f.span,
                            format!("`comb` function `{}` may contain only instructions", f.name),
                        );
                    }
                }
            }
        }
        ParKind::Pipe | ParKind::Seq => {}
    }

    // SSA + def-before-use.
    let mut defined: HashSet<&str> = HashSet::with_capacity(f.params.len() + f.body.len());
    defined.extend(f.params.iter().map(|p| p.name.as_str()));
    for s in &f.body {
        match s {
            Stmt::Offset(o) => {
                if !defined.contains(o.src.as_str()) {
                    ctx.invalid(
                        "TL0010",
                        o.span,
                        format!(
                            "offset `{}` in `{}` uses undefined stream `{}`",
                            o.dest, f.name, o.src
                        ),
                    );
                }
                if let Some(p) = f.param(&o.src) {
                    if p.ty != o.ty {
                        ctx.invalid(
                            "TL0012",
                            o.span,
                            format!(
                                "offset `{}` type {} disagrees with stream `{}` type {}",
                                o.dest, o.ty, o.src, p.ty
                            ),
                        );
                    }
                }
                if !defined.insert(o.dest.as_str()) {
                    ctx.invalid(
                        "TL0011",
                        o.span,
                        format!("SSA violation: `{}` assigned twice in `{}`", o.dest, f.name),
                    );
                }
            }
            Stmt::Instr(i) => {
                if i.operands.len() != i.op.arity() {
                    ctx.invalid(
                        "TL0013",
                        i.span,
                        format!(
                            "`{}` in `{}`: {} expects {} operands, got {}",
                            i.dest,
                            f.name,
                            i.op,
                            i.op.arity(),
                            i.operands.len()
                        ),
                    );
                }
                for (k, o) in i.operands.iter().enumerate() {
                    match o {
                        Operand::Local(n)
                            if !defined.contains(n.as_str()) => {
                                ctx.invalid(
                                    "TL0010",
                                    i.span,
                                    format!(
                                        "instruction `{}` in `{}` uses undefined value `%{}`",
                                        i.dest, f.name, n
                                    ),
                                );
                            }
                        Operand::Global(n)
                            // A global read is only legal as the
                            // accumulator of a reduction into the same
                            // global.
                            if !(i.is_reduction() && i.dest.name() == n) => {
                                ctx.invalid(
                                    "TL0014",
                                    i.span,
                                    format!(
                                        "instruction `{}` in `{}` reads global `@{}` outside a reduction",
                                        i.dest, f.name, n
                                    ),
                                );
                            }
                        Operand::ImmF(_) if i.ty.is_int() => {
                            ctx.invalid(
                                "TL0015",
                                i.span,
                                format!(
                                    "instruction `{}` in `{}`: float immediate as operand {} of integer op",
                                    i.dest,
                                    f.name,
                                    k + 1
                                ),
                            );
                        }
                        _ => {}
                    }
                }
                match &i.dest {
                    crate::instr::Dest::Local(n) => {
                        if !defined.insert(n.as_str()) {
                            ctx.invalid(
                                "TL0011",
                                i.span,
                                format!("SSA violation: `{}` assigned twice in `{}`", n, f.name),
                            );
                        }
                    }
                    crate::instr::Dest::Global(_) => {
                        // Reductions may legitimately accumulate more than
                        // once (they are stateful by design); nothing to
                        // record in the local scope.
                    }
                }
            }
            Stmt::Call(c) => {
                let Some(callee) = m.function(&c.callee) else {
                    ctx.unknown(c.span, "function", &c.callee);
                    continue;
                };
                if callee.kind != c.kind {
                    ctx.invalid(
                        "TL0016",
                        c.span,
                        format!(
                            "call to `{}` in `{}` annotated `{}` but callee is `{}`",
                            c.callee, f.name, c.kind, callee.kind
                        ),
                    );
                }
                if !c.args.is_empty() && c.args.len() != callee.params.len() {
                    ctx.invalid(
                        "TL0017",
                        c.span,
                        format!(
                            "call to `{}` in `{}` passes {} args, callee declares {} params",
                            c.callee,
                            f.name,
                            c.args.len(),
                            callee.params.len()
                        ),
                    );
                }
            }
        }
    }
}

fn check_main(m: &IrModule, ctx: &mut Ctx<'_>) {
    let Some(main) = m.main() else {
        ctx.invalid("TL0018", SrcLoc::none(), "module has no `main` function".into());
        return;
    };
    if main.instrs().next().is_some() || main.offsets().next().is_some() {
        ctx.invalid(
            "TL0018",
            main.span,
            "`main` must only dispatch calls (no instructions or offsets)".into(),
        );
    }
    if main.calls().next().is_none() {
        ctx.invalid("TL0018", main.span, "`main` dispatches nothing".into());
    }
}

fn check_call_graph(m: &IrModule, ctx: &mut Ctx<'_>) {
    // DFS cycle detection from every function (also catches cycles in
    // unreachable components). Each cycle is reported once, at the first
    // function the walk re-enters.
    #[derive(Clone, Copy, PartialEq)]
    enum State {
        Visiting,
        Done,
    }
    fn dfs<'a>(
        m: &'a IrModule,
        name: &'a str,
        state: &mut HashMap<&'a str, State>,
        ctx: &mut Ctx<'_>,
    ) {
        match state.get(name) {
            Some(State::Visiting) => {
                let loc = m.function(name).map(|f| f.span).unwrap_or(SrcLoc::none());
                ctx.invalid("TL0019", loc, format!("recursive call cycle through `{name}`"));
                return;
            }
            Some(State::Done) => return,
            None => {}
        }
        state.insert(name, State::Visiting);
        if let Some(f) = m.function(name) {
            for c in f.calls() {
                dfs(m, &c.callee, state, ctx);
            }
        }
        state.insert(name, State::Done);
    }
    let mut state = HashMap::new();
    for f in &m.functions {
        dfs(m, &f.name, &mut state, ctx);
    }
}

fn check_meta(m: &IrModule, ctx: &mut Ctx<'_>) {
    if m.meta.ndrange.contains(&0) {
        ctx.invalid("TL0020", SrcLoc::none(), "NDRange contains a zero dimension".into());
    }
    if m.meta.nki == 0 {
        ctx.invalid("TL0020", SrcLoc::none(), "NKI must be at least 1".into());
    }
    if let Some(f) = m.meta.freq_mhz {
        if !(f.is_finite() && f > 0.0) {
            ctx.invalid("TL0020", SrcLoc::none(), "frequency constraint must be positive".into());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::function::{Call, OffsetDecl, Param};
    use crate::instr::{Dest, Instruction, Opcode};
    use crate::types::ScalarType;

    const T: ScalarType = ScalarType::UInt(18);

    fn valid_module() -> IrModule {
        let mut b = ModuleBuilder::new("m");
        b.global_input("p", T, 64);
        b.global_output("q", T, 64);
        {
            let f = b.function("f0", ParKind::Pipe);
            f.input("p", T);
            f.output("q", T);
            let a = f.offset("p", T, 1);
            let p = f.arg("p");
            let s = f.instr(Opcode::Add, T, vec![a, p]);
            f.write_out("q", s);
        }
        b.main_calls("f0");
        b.ndrange(&[64]);
        b.finish_unchecked()
    }

    /// The `TL00xx` codes a module's violations produce, in order.
    fn codes_of(m: &IrModule) -> Vec<&'static str> {
        let mut sink = DiagSink::new();
        validate_into(m, &mut sink);
        sink.diagnostics().iter().map(|d| d.code).collect()
    }

    #[test]
    fn valid_module_passes() {
        assert!(validate(&valid_module()).is_ok());
        assert!(codes_of(&valid_module()).is_empty());
    }

    #[test]
    fn duplicate_function_rejected() {
        let mut m = valid_module();
        m.functions.push(IrFunction::new("f0", ParKind::Pipe));
        let e = validate(&m).unwrap_err();
        assert!(e.to_string().contains("duplicate function"));
        assert!(codes_of(&m).contains(&"TL0001"));
    }

    #[test]
    fn missing_main_rejected() {
        let mut m = valid_module();
        m.functions.retain(|f| f.name != "main");
        assert!(validate(&m).unwrap_err().to_string().contains("no `main`"));
        assert!(codes_of(&m).contains(&"TL0018"));
    }

    #[test]
    fn undefined_operand_rejected() {
        let mut m = valid_module();
        let f0 = m.functions.iter_mut().find(|f| f.name == "f0").unwrap();
        f0.body.push(Stmt::Instr(Instruction::new(
            Dest::Local("z".into()),
            Opcode::Add,
            T,
            vec![Operand::local("ghost"), Operand::Imm(1)],
        )));
        assert!(validate(&m).unwrap_err().to_string().contains("undefined value"));
        assert_eq!(codes_of(&m), vec!["TL0010"]);
    }

    #[test]
    fn double_assignment_rejected() {
        let mut m = valid_module();
        let f0 = m.functions.iter_mut().find(|f| f.name == "f0").unwrap();
        let dup = Instruction::new(
            Dest::Local("d".into()),
            Opcode::Add,
            T,
            vec![Operand::local("p"), Operand::Imm(1)],
        );
        f0.body.push(Stmt::Instr(dup.clone()));
        f0.body.push(Stmt::Instr(dup));
        assert!(validate(&m).unwrap_err().to_string().contains("SSA violation"));
        assert_eq!(codes_of(&m), vec!["TL0011"]);
    }

    #[test]
    fn par_with_instructions_rejected() {
        let mut m = valid_module();
        let mut par = IrFunction::new("lanes", ParKind::Par);
        par.params.push(Param::input("p", T));
        par.body.push(Stmt::Instr(Instruction::new(
            Dest::Local("x".into()),
            Opcode::Add,
            T,
            vec![Operand::local("p"), Operand::Imm(1)],
        )));
        m.functions.push(par);
        assert!(validate(&m).unwrap_err().to_string().contains("only calls"));
        assert_eq!(codes_of(&m), vec!["TL0006"]);
    }

    #[test]
    fn empty_par_rejected() {
        let mut m = valid_module();
        m.functions.push(IrFunction::new("lanes", ParKind::Par));
        assert!(validate(&m).unwrap_err().to_string().contains("no lanes"));
        assert_eq!(codes_of(&m), vec!["TL0007"]);
    }

    #[test]
    fn comb_with_offset_rejected() {
        let mut m = valid_module();
        let mut comb = IrFunction::new("cmb", ParKind::Comb);
        comb.params.push(Param::input("p", T));
        comb.body.push(Stmt::Offset(OffsetDecl {
            dest: "o".into(),
            ty: T,
            src: "p".into(),
            offset: 1,
            span: SrcLoc::none(),
        }));
        m.functions.push(comb);
        assert!(validate(&m).unwrap_err().to_string().contains("only instructions"));
        assert_eq!(codes_of(&m), vec!["TL0009"]);
    }

    #[test]
    fn comb_with_reduction_rejected() {
        let mut m = valid_module();
        let mut comb = IrFunction::new("cmb", ParKind::Comb);
        comb.params.push(Param::input("p", T));
        comb.body.push(Stmt::Instr(Instruction::new(
            Dest::Global("acc".into()),
            Opcode::Add,
            T,
            vec![Operand::local("p"), Operand::global("acc")],
        )));
        m.functions.push(comb);
        assert!(validate(&m).unwrap_err().to_string().contains("reductions"));
        assert_eq!(codes_of(&m), vec!["TL0008"]);
    }

    #[test]
    fn call_kind_mismatch_rejected() {
        let mut m = valid_module();
        let main = m.functions.iter_mut().find(|f| f.name == "main").unwrap();
        if let Stmt::Call(c) = &mut main.body[0] {
            c.kind = ParKind::Par;
        }
        assert!(validate(&m).unwrap_err().to_string().contains("annotated"));
        assert_eq!(codes_of(&m), vec!["TL0016"]);
    }

    #[test]
    fn call_arity_mismatch_rejected() {
        let mut m = valid_module();
        let main = m.functions.iter_mut().find(|f| f.name == "main").unwrap();
        if let Stmt::Call(c) = &mut main.body[0] {
            c.args.push(Operand::local("extra"));
        }
        assert!(validate(&m).unwrap_err().to_string().contains("passes"));
        assert_eq!(codes_of(&m), vec!["TL0017"]);
    }

    #[test]
    fn unknown_callee_rejected() {
        let mut m = valid_module();
        let main = m.functions.iter_mut().find(|f| f.name == "main").unwrap();
        main.body.push(Stmt::Call(Call {
            callee: "ghost".into(),
            args: vec![],
            kind: ParKind::Pipe,
            span: SrcLoc::none(),
        }));
        assert_eq!(
            validate(&m).unwrap_err(),
            IrError::Unknown { kind: "function", name: "ghost".into() }
        );
        assert_eq!(codes_of(&m), vec!["TL0002"]);
    }

    #[test]
    fn recursion_rejected() {
        let mut m = valid_module();
        let mut rec = IrFunction::new("r", ParKind::Pipe);
        rec.body.push(Stmt::Call(Call {
            callee: "r".into(),
            args: vec![],
            kind: ParKind::Pipe,
            span: SrcLoc::none(),
        }));
        m.functions.push(rec);
        assert!(validate(&m).unwrap_err().to_string().contains("recursive"));
        assert_eq!(codes_of(&m), vec!["TL0019"]);
    }

    #[test]
    fn zero_ndrange_rejected() {
        let mut m = valid_module();
        m.meta.ndrange = vec![16, 0];
        assert!(validate(&m).unwrap_err().to_string().contains("zero dimension"));
        assert_eq!(codes_of(&m), vec!["TL0020"]);
    }

    #[test]
    fn zero_nki_rejected() {
        let mut m = valid_module();
        m.meta.nki = 0;
        assert!(validate(&m).unwrap_err().to_string().contains("NKI"));
        assert_eq!(codes_of(&m), vec!["TL0020"]);
    }

    #[test]
    fn float_imm_in_integer_op_rejected() {
        let mut m = valid_module();
        let f0 = m.functions.iter_mut().find(|f| f.name == "f0").unwrap();
        f0.body.push(Stmt::Instr(Instruction::new(
            Dest::Local("fz".into()),
            Opcode::Mul,
            T,
            vec![Operand::local("p"), Operand::ImmF(0.5)],
        )));
        assert!(validate(&m).unwrap_err().to_string().contains("float immediate"));
        assert_eq!(codes_of(&m), vec!["TL0015"]);
    }

    #[test]
    fn stream_with_missing_mem_rejected() {
        let mut m = valid_module();
        m.streams[0].mem = "ghost".into();
        assert_eq!(
            validate(&m).unwrap_err(),
            IrError::Unknown { kind: "memory object", name: "ghost".into() }
        );
        assert!(codes_of(&m).contains(&"TL0002"));
    }

    /// [`valid_module`] plus Manage-IR whose names are declared twice,
    /// the copies differing in space, type, length and direction, plus
    /// dangling references. Read first-declaration-wins, every port agrees
    /// with its stream and memory; read last-wins, `main.p` would disagree
    /// in type, `main.q` in direction, and `main.s` would move off chip.
    fn shadowed_module() -> IrModule {
        use crate::stream::{
            AccessPattern, AddrSpace, MemObject, PortDecl, StreamDir, StreamObject,
        };
        let mem = |name: &str, space, elem_ty, len| MemObject {
            name: name.into(),
            space,
            elem_ty,
            len,
            span: SrcLoc::none(),
        };
        let stream = |name: &str, mem: &str, dir| StreamObject {
            name: name.into(),
            mem: mem.into(),
            dir,
            pattern: AccessPattern::Contiguous,
            span: SrcLoc::none(),
        };
        let port = |name: &str, stream: &str, dir| PortDecl {
            name: name.into(),
            space: AddrSpace::Other(12),
            ty: T,
            dir,
            pattern: AccessPattern::Contiguous,
            base_offset: 0,
            stream: stream.into(),
            span: SrcLoc::none(),
        };
        let mut m = valid_module();
        let u32_ty = ScalarType::UInt(32);
        m.mems.extend([
            mem("mem_p", AddrSpace::Global, u32_ty, 7),
            mem("mem_s", AddrSpace::Local, T, 64),
            mem("mem_s", AddrSpace::Global, u32_ty, 64),
        ]);
        m.streams.extend([
            stream("strobj_q", "mem_p", StreamDir::Read),
            stream("strobj_s", "mem_s", StreamDir::Read),
            stream("strobj_g1", "ghost1", StreamDir::Read),
            stream("strobj_g2", "ghost2", StreamDir::Write),
        ]);
        m.ports.extend([
            port("main.r", "strobj_q", StreamDir::Write),
            port("main.s", "strobj_s", StreamDir::Read),
            port("main.g", "nosuch", StreamDir::Read),
            port("main.h", "strobj_g1", StreamDir::Read),
        ]);
        m
    }

    #[test]
    fn shadowed_manage_ir_names_resolve_to_the_first_declaration() {
        let m = shadowed_module();
        let links = m.manage_links();
        for (i, s) in m.streams.iter().enumerate() {
            assert_eq!(
                links.stream_mem(i).map(|x| x as *const _),
                m.mem(&s.mem).map(|x| x as *const _)
            );
        }
        for (i, p) in m.ports.iter().enumerate() {
            let scanned = m.stream(&p.stream);
            assert_eq!(links.port_stream(i).map(|x| x as *const _), scanned.map(|x| x as *const _));
            let mem = scanned.and_then(|s| m.mem(&s.mem));
            assert_eq!(links.port_mem(i).map(|x| x as *const _), mem.map(|x| x as *const _));
        }
        // `main.s` is on chip through the first `mem_s`; the dangling
        // `main.g` and `main.h` count as off chip.
        let offchip: Vec<bool> = (0..m.ports.len()).map(|i| links.port_offchip(i)).collect();
        assert_eq!(offchip, [true, true, true, false, true, true]);
        let arena = crate::arena::ArenaModule::build(m);
        assert_eq!(arena.identity().offchip_ports(), 5);
        assert_eq!(arena.identity().offchip_port_bytes(), 5 * 3, "ui18 ports round to 3 bytes");
    }

    #[test]
    fn shadowed_manage_ir_diagnostics_keep_their_order_and_text() {
        let mut sink = DiagSink::new();
        let first = validate_into(&shadowed_module(), &mut sink);
        let got: Vec<(&str, &str)> =
            sink.diagnostics().iter().map(|d| (d.code, d.message.as_str())).collect();
        assert_eq!(
            got,
            [
                ("TL0001", "duplicate memory object name `mem_p`"),
                ("TL0001", "duplicate memory object name `mem_s`"),
                ("TL0001", "duplicate stream object name `strobj_q`"),
                ("TL0002", "unknown memory object `ghost1`"),
                ("TL0002", "unknown memory object `ghost2`"),
                ("TL0002", "unknown stream object `nosuch`"),
            ]
        );
        assert_eq!(first, Some(IrError::Validate("duplicate memory object name `mem_p`".into())));
    }

    #[test]
    fn port_pattern_mismatch_rejected() {
        let mut m = valid_module();
        m.ports[0].pattern = crate::stream::AccessPattern::Strided { stride: 7 };
        let e = validate(&m).unwrap_err().to_string();
        assert!(e.contains("access pattern"));
        // The once-mangled message reads cleanly: no doubled spaces.
        assert!(!e.contains("  "), "message contains a run of spaces: {e}");
        assert_eq!(codes_of(&m), vec!["TL0005"]);
    }

    #[test]
    fn port_type_mismatch_rejected() {
        let mut m = valid_module();
        m.ports[0].ty = ScalarType::UInt(32);
        assert!(validate(&m).unwrap_err().to_string().contains("disagrees with memory"));
        assert_eq!(codes_of(&m), vec!["TL0004"]);
    }

    #[test]
    fn port_direction_mismatch_rejected() {
        let mut m = valid_module();
        m.ports[0].dir = crate::stream::StreamDir::Write;
        assert!(validate(&m).unwrap_err().to_string().contains("direction"));
        assert!(codes_of(&m).contains(&"TL0003"));
    }

    #[test]
    fn global_read_outside_reduction_rejected() {
        let mut m = valid_module();
        let f0 = m.functions.iter_mut().find(|f| f.name == "f0").unwrap();
        f0.body.push(Stmt::Instr(Instruction::new(
            Dest::Local("g".into()),
            Opcode::Add,
            T,
            vec![Operand::global("acc"), Operand::Imm(1)],
        )));
        assert!(validate(&m).unwrap_err().to_string().contains("outside a reduction"));
        assert_eq!(codes_of(&m), vec!["TL0014"]);
    }

    #[test]
    fn undefined_offset_source_rejected() {
        let mut m = valid_module();
        let f0 = m.functions.iter_mut().find(|f| f.name == "f0").unwrap();
        f0.body.push(Stmt::Offset(OffsetDecl {
            dest: "late".into(),
            ty: T,
            src: "nosuch".into(),
            offset: 2,
            span: SrcLoc::none(),
        }));
        assert!(validate(&m).unwrap_err().to_string().contains("undefined stream"));
        assert_eq!(codes_of(&m), vec!["TL0010"]);
    }

    #[test]
    fn sink_collects_multiple_violations() {
        let mut m = valid_module();
        m.meta.nki = 0; // TL0020
        m.meta.ndrange = vec![0]; // TL0020
        let f0 = m.functions.iter_mut().find(|f| f.name == "f0").unwrap();
        f0.body.push(Stmt::Instr(Instruction::new(
            Dest::Local("z".into()),
            Opcode::Add,
            T,
            vec![Operand::local("ghost"), Operand::Imm(1)],
        ))); // TL0010
        let codes = codes_of(&m);
        assert_eq!(codes, vec!["TL0010", "TL0020", "TL0020"]);
        // Fail-fast API still reports the first in traversal order.
        assert!(validate(&m).unwrap_err().to_string().contains("undefined value"));
    }

    #[test]
    fn parsed_module_diagnostics_carry_spans() {
        let src = "\
!module = !\"bad\"
!ndrange = !{8}
define void @main() seq {
  call @f0() pipe
}
define void @f0(ui18 %p, out ui18 %q) pipe {
  ui18 %x = add ui18 %p, %ghost
  ui18 %q__out = or ui18 %x, 0
}
";
        let m = crate::parser::parse_unvalidated(src).unwrap();
        let mut sink = DiagSink::new();
        validate_into(&m, &mut sink);
        let d = &sink.diagnostics()[0];
        assert_eq!(d.code, "TL0010");
        let span = d.span.expect("parsed statements carry spans");
        assert_eq!(span.line, 7);
    }
}
