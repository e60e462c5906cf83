//! Lowering a functional kernel + variant to TyTra-IR.
//!
//! The baseline `map kernel` lowers to the Fig 12 shape (one `pipe`
//! function fed by offset streams); a `mappar (mappipe kernel)` variant
//! lowers to the Fig 14 shape (per-lane port sets and a `par` dispatcher
//! with one call per lane). Common subexpressions are shared, so the
//! datapath matches the hand-drawn pipeline of Fig 13 rather than a tree
//! with duplicated multipliers.

use crate::expr::{Expr, KernelDef};
use crate::typetrans::{InnerKind, Variant};
use std::collections::HashMap;
use tytra_ir::{
    validate, FunctionBuilder, IrError, IrFunction, IrModule, MemForm, ModuleBuilder, Opcode,
    Operand, ParKind, ScalarType, StreamDir,
};

/// NDRange + iteration count for the lowered program.
#[derive(Debug, Clone, PartialEq)]
pub struct Geometry {
    /// Global size per dimension.
    pub ndrange: Vec<u64>,
    /// `NKI`: kernel-instance repetitions.
    pub nki: u64,
}

impl Geometry {
    /// 1-D geometry.
    pub fn flat(n: u64, nki: u64) -> Geometry {
        Geometry { ndrange: vec![n], nki }
    }

    /// Total work-items.
    pub fn size(&self) -> u64 {
        self.ndrange.iter().product::<u64>().max(1)
    }
}

/// Lower `kernel` under `variant` to a validated TyTra-IR module: the
/// lane template of `assemble`, expanded to every lane.
pub fn lower(kernel: &KernelDef, geom: &Geometry, variant: &Variant) -> Result<IrModule, IrError> {
    check_legal(geom, variant)?;
    let m = assemble(kernel, geom, variant, lower_lane(kernel, variant.inner))
        .expand_lanes(variant.lanes);
    validate(&m)?;
    Ok(m)
}

/// The error [`lower`] fails with for a variant that does not reshape the
/// NDRange legally.
pub(crate) fn check_legal(geom: &Geometry, variant: &Variant) -> Result<(), IrError> {
    let ngs = geom.size();
    if variant.is_legal(ngs) {
        return Ok(());
    }
    Err(IrError::Validate(format!(
        "variant {} is not an order-preserving reshape of {ngs} work-items",
        variant.tag()
    )))
}

/// The lane function `f0`: ports, offset streams and the CSE'd datapath.
/// It depends only on the kernel and the inner map kind — never on the
/// lane count, the form or the vector degree — so the variant factory
/// lowers it once per [`InnerKind`].
pub(crate) fn lower_lane(kernel: &KernelDef, inner: InnerKind) -> IrFunction {
    let ty = kernel.elem_ty;
    let mut f = FunctionBuilder::new("f0", par_kind(inner));
    for name in &kernel.inputs {
        f.input(name.clone(), ty);
    }
    for (name, _) in &kernel.outputs {
        f.output(name.clone(), ty);
    }
    // Offset streams first (Fig 12 lines 6–9).
    let mut offsets = HashMap::new();
    for (src, off) in kernel.offsets() {
        let op = f.offset(&src, ty, off);
        offsets.insert((src, off), op);
    }
    // Datapath with structural CSE.
    let mut cse = Cse { ty, offsets, ids: HashMap::new(), operands: Vec::new() };
    let mut emitted: Vec<(String, Operand)> = Vec::new();
    for (name, e) in &kernel.outputs {
        emitted.push((name.clone(), cse.operand(&mut f, e)));
    }
    for r in &kernel.reductions {
        let v = cse.operand(&mut f, &r.value);
        f.reduce(&r.acc, r.op, ty, v);
    }
    for (name, v) in emitted {
        f.write_out(&name, v);
    }
    f.finish()
}

/// The lane template for `variant` around an already-lowered lane
/// function `lane`: one lane's Manage-IR, the lane function, the `par`
/// dispatcher with one call per lane, `main` and the execution metadata.
/// [`IrModule::expand_lanes`] with `variant.lanes` replicas turns it into
/// the module (Fig 14's per-lane arrays `p0..p3` are the template's `p`
/// with the lane index appended). Unvalidated; the caller checks
/// legality first.
pub(crate) fn assemble(
    kernel: &KernelDef,
    geom: &Geometry,
    variant: &Variant,
    lane: IrFunction,
) -> IrModule {
    let lanes = variant.lanes;
    let per_lane = geom.size() / lanes;
    let ty = kernel.elem_ty;

    let mut b = ModuleBuilder::new(format!("{}_{}", kernel.name, variant.tag()));

    // Manage-IR: one lane's array set.
    for name in &kernel.inputs {
        declare_array(&mut b, name, ty, per_lane, StreamDir::Read, variant);
    }
    for (name, _) in &kernel.outputs {
        declare_array(&mut b, name, ty, per_lane, StreamDir::Write, variant);
    }

    // Compute-IR: the lane function, then the dispatcher.
    b.add_function(lane);
    if lanes > 1 {
        let kind = par_kind(variant.inner);
        let f = b.function("f1", ParKind::Par);
        for _ in 0..lanes {
            f.call("f0", vec![], kind);
        }
        b.main_calls("f1");
    } else {
        b.main_calls("f0");
    }

    b.ndrange(&geom.ndrange).nki(geom.nki).form(variant.form).vect(variant.vect);
    b.finish_unchecked()
}

fn par_kind(inner: InnerKind) -> ParKind {
    match inner {
        InnerKind::Pipe => ParKind::Pipe,
        InnerKind::Seq => ParKind::Seq,
    }
}

fn declare_array(
    b: &mut ModuleBuilder,
    name: &str,
    ty: ScalarType,
    len: u64,
    dir: StreamDir,
    variant: &Variant,
) {
    match variant.form {
        MemForm::C => {
            b.local_array(name, ty, len, dir);
        }
        _ => match dir {
            StreamDir::Read => {
                b.global_input(name, ty, len);
            }
            StreamDir::Write => {
                b.global_output(name, ty, len);
            }
        },
    }
}

/// The CSE key of one expression node, with its children replaced by the
/// ids the memo gave them. Two expressions get the same id exactly when
/// they are equal as trees with `f64` constants compared by bits:
/// `Arg(p)` and `OffsetArg(p, 0)` stay distinct though both read `%p`,
/// and so do `0.0` and `-0.0`.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Node<'k> {
    Arg(&'k str),
    Off(&'k str, i64),
    ConstI(i64),
    ConstF(u64),
    Bin(Opcode, usize, usize),
    Un(Opcode, usize),
    Sel(usize, usize, usize),
}

/// Structural common-subexpression elimination over one lane function:
/// an id per distinct expression, and the operand each id was emitted as.
struct Cse<'k> {
    ty: ScalarType,
    offsets: HashMap<(String, i64), Operand>,
    ids: HashMap<Node<'k>, usize>,
    operands: Vec<Operand>,
}

impl<'k> Cse<'k> {
    /// Emit `e` into `f`, sharing structurally identical subexpressions,
    /// and return its operand. Children are emitted before the parent's
    /// memo probe, so a repeated subtree costs one probe per node and
    /// emits nothing.
    fn operand(&mut self, f: &mut FunctionBuilder, e: &'k Expr) -> Operand {
        let id = self.emit(f, e);
        self.operands[id].clone()
    }

    fn emit(&mut self, f: &mut FunctionBuilder, e: &'k Expr) -> usize {
        let node = match e {
            Expr::Arg(n) => Node::Arg(n),
            Expr::OffsetArg(n, off) => Node::Off(n, *off),
            Expr::ConstI(v) => Node::ConstI(*v),
            Expr::ConstF(v) => Node::ConstF(v.to_bits()),
            Expr::Bin(op, a, b) => Node::Bin(*op, self.emit(f, a), self.emit(f, b)),
            Expr::Un(op, a) => Node::Un(*op, self.emit(f, a)),
            Expr::Sel(c, a, b) => Node::Sel(self.emit(f, c), self.emit(f, a), self.emit(f, b)),
        };
        if let Some(&id) = self.ids.get(&node) {
            return id;
        }
        let arg = |id: usize| self.operands[id].clone();
        let v = match node {
            Node::Arg(n) | Node::Off(n, 0) => Operand::local(n),
            Node::Off(n, off) => self
                .offsets
                .get(&(n.to_string(), off))
                .cloned()
                .unwrap_or_else(|| Operand::local(n)),
            Node::ConstI(v) => Operand::Imm(v),
            Node::ConstF(bits) => Operand::ImmF(f64::from_bits(bits)),
            Node::Bin(op, a, b) => f.instr(op, self.ty, vec![arg(a), arg(b)]),
            Node::Un(op, a) => f.instr(op, self.ty, vec![arg(a)]),
            Node::Sel(c, a, b) => f.instr(Opcode::Select, self.ty, vec![arg(c), arg(a), arg(b)]),
        };
        let id = self.operands.len();
        self.operands.push(v);
        self.ids.insert(node, id);
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Reduction;
    use tytra_ir::{config_tree, ConfigClass};

    const T: ScalarType = ScalarType::UInt(18);

    fn stencil_kernel() -> KernelDef {
        let e = Expr::mul(Expr::add(Expr::off("p", -1), Expr::off("p", 1)), Expr::ConstI(3));
        KernelDef {
            name: "st".into(),
            elem_ty: T,
            inputs: vec!["p".into()],
            outputs: vec![("q".into(), e.clone())],
            reductions: vec![Reduction {
                acc: "errAcc".into(),
                op: Opcode::Add,
                value: Expr::sub(e, Expr::arg("p")),
            }],
        }
    }

    #[test]
    fn baseline_lowers_to_fig12_shape() {
        let m = lower(&stencil_kernel(), &Geometry::flat(1024, 10), &Variant::baseline()).unwrap();
        assert_eq!(m.kernel_lanes(), 1);
        let f0 = m.function("f0").unwrap();
        assert_eq!(f0.kind, ParKind::Pipe);
        assert_eq!(f0.offsets().count(), 2);
        assert!(f0.instrs().any(|i| i.is_reduction()));
        let tree = config_tree::extract(&m).unwrap();
        assert_eq!(tree.class, ConfigClass::C2SinglePipe);
        // Ports: p in, q out.
        assert_eq!(m.ports.len(), 2);
    }

    #[test]
    fn four_lane_variant_lowers_to_fig14_shape() {
        let v = Variant { lanes: 4, ..Variant::baseline() };
        let m = lower(&stencil_kernel(), &Geometry::flat(1024, 10), &v).unwrap();
        assert_eq!(m.kernel_lanes(), 4);
        assert_eq!(m.ports.len(), 8, "per-lane port sets p0..p3, q0..q3");
        assert!(m.port("main.p0").is_some());
        assert!(m.port("main.q3").is_some());
        assert_eq!(m.mems.iter().map(|x| x.len).sum::<u64>(), 2 * 1024);
        let tree = config_tree::extract(&m).unwrap();
        assert_eq!(tree.class, ConfigClass::C1ParallelPipes);
    }

    #[test]
    fn cse_shares_common_subexpressions() {
        // q and the reduction share the whole weighted sum: the add and
        // mul must be emitted once.
        let m = lower(&stencil_kernel(), &Geometry::flat(64, 1), &Variant::baseline()).unwrap();
        let f0 = m.function("f0").unwrap();
        let muls = f0.instrs().filter(|i| i.op == Opcode::Mul).count();
        let adds = f0.instrs().filter(|i| i.op == Opcode::Add && !i.is_reduction()).count();
        assert_eq!(muls, 1);
        assert_eq!(adds, 1);
    }

    /// Datapath instructions of a baseline lowering (the output-routing
    /// `or`s and reduction folds excluded).
    fn datapath_instrs(k: &KernelDef) -> usize {
        let m = lower(k, &Geometry::flat(64, 1), &Variant::baseline()).unwrap();
        let f0 = m.function("f0").unwrap();
        let routing = k.outputs.len() + k.reductions.len();
        f0.instrs().count() - routing
    }

    /// The number of distinct operation subexpressions by `Debug` text —
    /// what a memo keyed on `format!("{e:?}")` shares.
    fn distinct_ops_by_debug_text(k: &KernelDef) -> usize {
        fn walk(e: &Expr, seen: &mut std::collections::HashSet<String>) {
            match e {
                Expr::Bin(_, a, b) => {
                    walk(a, seen);
                    walk(b, seen);
                }
                Expr::Un(_, a) => walk(a, seen),
                Expr::Sel(c, a, b) => {
                    walk(c, seen);
                    walk(a, seen);
                    walk(b, seen);
                }
                _ => return,
            }
            seen.insert(format!("{e:?}"));
        }
        let mut seen = std::collections::HashSet::new();
        k.outputs.iter().for_each(|(_, e)| walk(e, &mut seen));
        k.reductions.iter().for_each(|r| walk(&r.value, &mut seen));
        seen.len()
    }

    #[test]
    fn cse_keeps_distinct_leaves_distinct() {
        // `Arg(p)` and `OffsetArg(p, 0)` read the same value, and `0.0`
        // and `-0.0` compare equal as floats, yet each pair names two
        // different expressions: two adds, two muls.
        let add1 = |leaf: Expr| Expr::add(leaf, Expr::ConstI(1));
        let args = KernelDef {
            name: "args".into(),
            elem_ty: T,
            inputs: vec!["p".into()],
            outputs: vec![
                ("q".into(), add1(Expr::arg("p"))),
                ("r".into(), add1(Expr::off("p", 0))),
                ("s".into(), add1(Expr::arg("p"))),
            ],
            reductions: vec![],
        };
        let scale = |c: f64| Expr::mul(Expr::arg("x"), Expr::ConstF(c));
        let zeros = KernelDef {
            name: "zeros".into(),
            elem_ty: ScalarType::Float(32),
            inputs: vec!["x".into()],
            outputs: vec![("y".into(), scale(0.0)), ("z".into(), scale(-0.0))],
            reductions: vec![Reduction { acc: "acc".into(), op: Opcode::Add, value: scale(0.0) }],
        };
        for (k, want) in [(args, 2), (zeros, 2)] {
            assert_eq!(datapath_instrs(&k), want, "{}", k.name);
            assert_eq!(datapath_instrs(&k), distinct_ops_by_debug_text(&k), "{}", k.name);
        }
    }

    #[test]
    fn cse_shares_exactly_what_debug_text_shares() {
        let long = (0..6).fold(Expr::arg("p"), |e, i| {
            Expr::add(Expr::mul(e.clone(), Expr::off("p", i - 3)), Expr::sub(e, Expr::ConstI(i)))
        });
        let k = KernelDef {
            name: "chain".into(),
            elem_ty: T,
            inputs: vec!["p".into()],
            outputs: vec![("q".into(), long.clone())],
            reductions: vec![Reduction {
                acc: "acc".into(),
                op: Opcode::Max,
                value: Expr::Sel(
                    Box::new(Expr::bin(Opcode::CmpGt, long.clone(), Expr::off("p", 0))),
                    Box::new(long),
                    Box::new(Expr::Un(Opcode::Neg, Box::new(Expr::arg("p")))),
                ),
            }],
        };
        assert_eq!(datapath_instrs(&k), distinct_ops_by_debug_text(&k));
        assert_eq!(
            datapath_instrs(&stencil_kernel()),
            distinct_ops_by_debug_text(&stencil_kernel())
        );
    }

    #[test]
    fn seq_variant_lowers_to_seq_kind() {
        let v = Variant { inner: InnerKind::Seq, ..Variant::baseline() };
        let m = lower(&stencil_kernel(), &Geometry::flat(64, 1), &v).unwrap();
        assert_eq!(m.function("f0").unwrap().kind, ParKind::Seq);
    }

    #[test]
    fn form_c_uses_local_memories() {
        let v = Variant { form: MemForm::C, ..Variant::baseline() };
        let m = lower(&stencil_kernel(), &Geometry::flat(64, 1), &v).unwrap();
        assert!(m.mems.iter().all(|mem| !mem.space.is_offchip()));
        assert_eq!(m.meta.form, MemForm::C);
    }

    #[test]
    fn illegal_variant_rejected() {
        let v = Variant { lanes: 3, ..Variant::baseline() };
        assert!(lower(&stencil_kernel(), &Geometry::flat(1024, 1), &v).is_err());
    }

    #[test]
    fn vect_metadata_propagates() {
        let v = Variant { vect: 4, ..Variant::baseline() };
        let m = lower(&stencil_kernel(), &Geometry::flat(1024, 1), &v).unwrap();
        assert_eq!(m.meta.vect, 4);
    }

    #[test]
    fn lowered_module_round_trips_through_text() {
        let m = lower(&stencil_kernel(), &Geometry::flat(1024, 10), &Variant::baseline()).unwrap();
        let text = tytra_ir::print(&m);
        let m2 = tytra_ir::parse(&text).unwrap();
        assert_eq!(m, m2);
    }
}
