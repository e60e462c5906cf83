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
    validate, FunctionBuilder, IrError, IrModule, MemForm, ModuleBuilder, Opcode, Operand, ParKind,
    ScalarType, StreamDir,
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

/// Lower `kernel` under `variant` to a validated TyTra-IR module.
pub fn lower(kernel: &KernelDef, geom: &Geometry, variant: &Variant) -> Result<IrModule, IrError> {
    let m = lower_unvalidated(kernel, geom, variant)?;
    validate(&m)?;
    Ok(m)
}

/// [`lower`] without the final validation: the variant factory validates
/// each lowered base once, through its arena's cached verdict.
pub(crate) fn lower_unvalidated(
    kernel: &KernelDef,
    geom: &Geometry,
    variant: &Variant,
) -> Result<IrModule, IrError> {
    let ngs = geom.size();
    if !variant.is_legal(ngs) {
        return Err(IrError::Validate(format!(
            "variant {} is not an order-preserving reshape of {ngs} work-items",
            variant.tag()
        )));
    }
    let lanes = variant.lanes;
    let per_lane = ngs / lanes;
    let ty = kernel.elem_ty;

    let mut b = ModuleBuilder::new(format!("{}_{}", kernel.name, variant.tag()));

    // Manage-IR: one array set per lane (Fig 14's p0..p3), or a single
    // set for the baseline.
    let lane_suffix = |l: u64| if lanes > 1 { l.to_string() } else { String::new() };
    for l in 0..lanes {
        let sfx = lane_suffix(l);
        for name in &kernel.inputs {
            declare_array(&mut b, &format!("{name}{sfx}"), ty, per_lane, StreamDir::Read, variant);
        }
        for (name, _) in &kernel.outputs {
            declare_array(&mut b, &format!("{name}{sfx}"), ty, per_lane, StreamDir::Write, variant);
        }
    }

    // Compute-IR: the lane function.
    let kind = match variant.inner {
        InnerKind::Pipe => ParKind::Pipe,
        InnerKind::Seq => ParKind::Seq,
    };
    {
        let f = b.function("f0", kind);
        for name in &kernel.inputs {
            f.input(name.clone(), ty);
        }
        for (name, _) in &kernel.outputs {
            f.output(name.clone(), ty);
        }
        // Offset streams first (Fig 12 lines 6–9).
        let mut offset_ops: HashMap<(String, i64), Operand> = HashMap::new();
        for (src, off) in kernel.offsets() {
            let op = f.offset(&src, ty, off);
            offset_ops.insert((src, off), op);
        }
        // Datapath with structural CSE.
        let mut memo: HashMap<String, Operand> = HashMap::new();
        let mut emitted: Vec<(String, Operand)> = Vec::new();
        for (name, e) in &kernel.outputs {
            let v = emit(f, e, ty, &offset_ops, &mut memo);
            emitted.push((name.clone(), v));
        }
        for r in &kernel.reductions {
            let v = emit(f, &r.value, ty, &offset_ops, &mut memo);
            f.reduce(&r.acc, r.op, ty, v);
        }
        for (name, v) in emitted {
            f.write_out(&name, v);
        }
    }

    if lanes > 1 {
        let f = b.function("f1", ParKind::Par);
        for _ in 0..lanes {
            f.call("f0", vec![], kind);
        }
        b.main_calls("f1");
    } else {
        b.main_calls("f0");
    }

    b.ndrange(&geom.ndrange).nki(geom.nki).form(variant.form).vect(variant.vect);
    Ok(b.finish_unchecked())
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

/// Emit `e` into the function, sharing structurally identical
/// subexpressions.
fn emit(
    f: &mut FunctionBuilder,
    e: &Expr,
    ty: ScalarType,
    offsets: &HashMap<(String, i64), Operand>,
    memo: &mut HashMap<String, Operand>,
) -> Operand {
    match e {
        Expr::Arg(n) => Operand::Local(n.clone()),
        Expr::OffsetArg(n, 0) => Operand::Local(n.clone()),
        Expr::OffsetArg(n, off) => {
            offsets.get(&(n.clone(), *off)).cloned().unwrap_or_else(|| Operand::Local(n.clone()))
        }
        Expr::ConstI(v) => Operand::Imm(*v),
        Expr::ConstF(v) => Operand::ImmF(*v),
        Expr::Bin(..) | Expr::Un(..) | Expr::Sel(..) => {
            let key = format!("{e:?}");
            if let Some(v) = memo.get(&key) {
                return v.clone();
            }
            let v = match e {
                Expr::Bin(op, a, bx) => {
                    let va = emit(f, a, ty, offsets, memo);
                    let vb = emit(f, bx, ty, offsets, memo);
                    f.instr(*op, ty, vec![va, vb])
                }
                Expr::Un(op, a) => {
                    let va = emit(f, a, ty, offsets, memo);
                    f.instr(*op, ty, vec![va])
                }
                Expr::Sel(c, a, bx) => {
                    let vc = emit(f, c, ty, offsets, memo);
                    let va = emit(f, a, ty, offsets, memo);
                    let vb = emit(f, bx, ty, offsets, memo);
                    f.instr(Opcode::Select, ty, vec![vc, va, vb])
                }
                _ => unreachable!("leaf handled above"),
            };
            memo.insert(key, v.clone());
            v
        }
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
