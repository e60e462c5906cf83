//! Compute-IR functions and their parallelism kinds.
//!
//! A design is a hierarchy of IR functions — roughly the equivalent of
//! modules in an HDL, but at a much higher abstraction: each function
//! carries a keyword specifying the parallelism pattern applied to its
//! body. Different parent–child and peer–peer combinations of the four
//! kinds span the FPGA design space of Fig 5 (the supported subset is
//! Fig 7).

use crate::diag::SrcLoc;
use crate::instr::{Instruction, Operand};
use crate::types::ScalarType;
use std::fmt;

/// The parallelism keyword attached to a function or call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ParKind {
    /// Pipeline parallelism: the body is a streaming datapath; one
    /// work-item enters per cycle once the pipeline is full.
    Pipe,
    /// Thread parallelism: the callees execute concurrently as replicated
    /// lanes.
    Par,
    /// Sequential execution: the body's instructions share one functional
    /// unit set and execute over `NI` cycles per work-item.
    Seq,
    /// A custom single-cycle combinatorial block, inlined into its parent
    /// pipeline stage.
    Comb,
}

impl ParKind {
    /// Keyword used in the textual IR.
    pub fn keyword(self) -> &'static str {
        match self {
            ParKind::Pipe => "pipe",
            ParKind::Par => "par",
            ParKind::Seq => "seq",
            ParKind::Comb => "comb",
        }
    }

    /// Inverse of [`ParKind::keyword`].
    pub fn from_keyword(s: &str) -> Option<ParKind> {
        match s {
            "pipe" => Some(ParKind::Pipe),
            "par" => Some(ParKind::Par),
            "seq" => Some(ParKind::Seq),
            "comb" => Some(ParKind::Comb),
            _ => None,
        }
    }
}

impl fmt::Display for ParKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.keyword())
    }
}

/// Direction of a function parameter (streaming port).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PortDir {
    /// Input stream.
    In,
    /// Output stream.
    Out,
}

/// A function parameter: a streaming port with a type and direction.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Port name (without the `%` sigil).
    pub name: String,
    /// Element type of the stream.
    pub ty: ScalarType,
    /// Whether data flows in or out.
    pub dir: PortDir,
}

impl Param {
    /// Input parameter.
    pub fn input(name: impl Into<String>, ty: ScalarType) -> Param {
        Param { name: name.into(), ty, dir: PortDir::In }
    }

    /// Output parameter.
    pub fn output(name: impl Into<String>, ty: ScalarType) -> Param {
        Param { name: name.into(), ty, dir: PortDir::Out }
    }
}

/// A stream-offset declaration inside a `pipe` function:
///
/// ```text
/// ui18 %pip1 = ui18 %p, !offset, !+1
/// ```
///
/// creates a new stream which is the source stream shifted by a constant
/// number of work-items. Offsets are the IR encoding of stencil
/// neighbourhood access; the hardware realization is an on-chip offset
/// buffer of `(max_positive − min_negative)` elements (the "stream control
/// / offset buffers" blocks of Fig 13).
#[derive(Debug, Clone, PartialEq)]
pub struct OffsetDecl {
    /// Name of the new offset stream (without `%`).
    pub dest: String,
    /// Element type (must match the source stream's type).
    pub ty: ScalarType,
    /// Name of the source stream (a `pipe` parameter or another offset).
    pub src: String,
    /// Offset in work-items; positive looks ahead, negative behind.
    pub offset: i64,
    /// Source location of the declaration (equality-transparent).
    pub span: SrcLoc,
}

impl fmt::Display for OffsetDecl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sign = if self.offset >= 0 { "+" } else { "" };
        write!(
            f,
            "{} %{} = {} %{}, !offset, !{}{}",
            self.ty, self.dest, self.ty, self.src, sign, self.offset
        )
    }
}

/// A call statement: `call @f(args...) kind`.
#[derive(Debug, Clone, PartialEq)]
pub struct Call {
    /// Callee function name (without `@`).
    pub callee: String,
    /// Arguments bound to the callee's parameters, in order.
    pub args: Vec<Operand>,
    /// Parallelism kind annotation on the call site; must agree with the
    /// callee's declared kind.
    pub kind: ParKind,
    /// Source location of the call site (equality-transparent).
    pub span: SrcLoc,
}

impl fmt::Display for Call {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "call @{}(", self.callee)?;
        for (i, a) in self.args.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, ") {}", self.kind)
    }
}

/// A statement in a function body.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// An SSA instruction.
    Instr(Instruction),
    /// A stream-offset declaration.
    Offset(OffsetDecl),
    /// A call to a child function.
    Call(Call),
}

impl Stmt {
    /// The instruction, if this statement is one.
    pub fn as_instr(&self) -> Option<&Instruction> {
        match self {
            Stmt::Instr(i) => Some(i),
            _ => None,
        }
    }

    /// The call, if this statement is one.
    pub fn as_call(&self) -> Option<&Call> {
        match self {
            Stmt::Call(c) => Some(c),
            _ => None,
        }
    }

    /// The offset declaration, if this statement is one.
    pub fn as_offset(&self) -> Option<&OffsetDecl> {
        match self {
            Stmt::Offset(o) => Some(o),
            _ => None,
        }
    }
}

/// A Compute-IR function.
#[derive(Debug, Clone, PartialEq)]
pub struct IrFunction {
    /// Function name (without `@`).
    pub name: String,
    /// Parallelism pattern of the body.
    pub kind: ParKind,
    /// Streaming ports.
    pub params: Vec<Param>,
    /// Body statements in program order.
    pub body: Vec<Stmt>,
    /// Source location of the function header (equality-transparent).
    pub span: SrcLoc,
}

impl IrFunction {
    /// New empty function.
    pub fn new(name: impl Into<String>, kind: ParKind) -> IrFunction {
        IrFunction {
            name: name.into(),
            kind,
            params: Vec::new(),
            body: Vec::new(),
            span: SrcLoc::none(),
        }
    }

    /// Iterator over the SSA instructions (not offsets or calls).
    pub fn instrs(&self) -> impl Iterator<Item = &Instruction> {
        self.body.iter().filter_map(Stmt::as_instr)
    }

    /// Iterator over calls.
    pub fn calls(&self) -> impl Iterator<Item = &Call> {
        self.body.iter().filter_map(Stmt::as_call)
    }

    /// Iterator over offset declarations.
    pub fn offsets(&self) -> impl Iterator<Item = &OffsetDecl> {
        self.body.iter().filter_map(Stmt::as_offset)
    }

    /// Number of datapath instructions, the paper's `NI` ("instructions
    /// per PE") for this function, not counting child calls.
    pub fn n_instructions(&self) -> u64 {
        self.instrs().count() as u64
    }

    /// Maximum absolute stream offset declared in this function — the
    /// paper's `Noff` contribution ("maximum offset in a stream").
    pub fn max_abs_offset(&self) -> u64 {
        self.offsets().map(|o| o.offset.unsigned_abs()).max().unwrap_or(0)
    }

    /// The offset *window* per source stream: `max_positive_offset +
    /// max_negative_offset` in elements. This is the number of elements
    /// the offset buffer for `src` must hold (and therefore its BRAM
    /// footprint together with the element width).
    pub fn offset_window(&self, src: &str) -> u64 {
        let mut max_pos: i64 = 0;
        let mut max_neg: i64 = 0;
        for o in self.offsets().filter(|o| o.src == src) {
            max_pos = max_pos.max(o.offset);
            max_neg = max_neg.min(o.offset);
        }
        (max_pos - max_neg) as u64
    }

    /// All distinct offset-source stream names, in first-use order.
    pub fn offset_sources(&self) -> Vec<&str> {
        let mut seen = Vec::new();
        for o in self.offsets() {
            if !seen.contains(&o.src.as_str()) {
                seen.push(o.src.as_str());
            }
        }
        seen
    }

    /// Look up a parameter by name.
    pub fn param(&self, name: &str) -> Option<&Param> {
        self.params.iter().find(|p| p.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::{Dest, Opcode};

    fn sample() -> IrFunction {
        let mut f = IrFunction::new("f0", ParKind::Pipe);
        f.params.push(Param::input("p", ScalarType::UInt(18)));
        f.params.push(Param::output("pnew", ScalarType::UInt(18)));
        f.body.push(Stmt::Offset(OffsetDecl {
            dest: "pip1".into(),
            ty: ScalarType::UInt(18),
            src: "p".into(),
            offset: 1,
            span: SrcLoc::none(),
        }));
        f.body.push(Stmt::Offset(OffsetDecl {
            dest: "pin1".into(),
            ty: ScalarType::UInt(18),
            src: "p".into(),
            offset: -150,
            span: SrcLoc::none(),
        }));
        f.body.push(Stmt::Instr(Instruction::new(
            Dest::Local("1".into()),
            Opcode::Add,
            ScalarType::UInt(18),
            vec![Operand::local("pip1"), Operand::local("pin1")],
        )));
        f
    }

    #[test]
    fn kind_keywords_round_trip() {
        for k in [ParKind::Pipe, ParKind::Par, ParKind::Seq, ParKind::Comb] {
            assert_eq!(ParKind::from_keyword(k.keyword()), Some(k));
        }
        assert_eq!(ParKind::from_keyword("vector"), None);
    }

    #[test]
    fn offset_window_spans_pos_and_neg() {
        let f = sample();
        assert_eq!(f.offset_window("p"), 151);
        assert_eq!(f.offset_window("q"), 0);
        assert_eq!(f.max_abs_offset(), 150);
        assert_eq!(f.offset_sources(), vec!["p"]);
    }

    #[test]
    fn instruction_counting_ignores_offsets_and_calls() {
        let mut f = sample();
        assert_eq!(f.n_instructions(), 1);
        f.body.push(Stmt::Call(Call {
            callee: "g".into(),
            args: vec![],
            kind: ParKind::Comb,
            span: SrcLoc::none(),
        }));
        assert_eq!(f.n_instructions(), 1);
        assert_eq!(f.calls().count(), 1);
        assert_eq!(f.offsets().count(), 2);
    }

    #[test]
    fn display_offset_and_call() {
        let f = sample();
        let o = f.offsets().next().unwrap();
        assert_eq!(o.to_string(), "ui18 %pip1 = ui18 %p, !offset, !+1");
        let c = Call {
            callee: "f0".into(),
            args: vec![Operand::local("p")],
            kind: ParKind::Pipe,
            span: SrcLoc::none(),
        };
        assert_eq!(c.to_string(), "call @f0(%p) pipe");
    }

    #[test]
    fn param_lookup() {
        let f = sample();
        assert_eq!(f.param("p").unwrap().dir, PortDir::In);
        assert_eq!(f.param("pnew").unwrap().dir, PortDir::Out);
        assert!(f.param("zz").is_none());
    }
}
