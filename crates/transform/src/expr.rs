//! The element-wise functional kernel language.
//!
//! A [`KernelDef`] is the Rust rendering of the paper's `p_sor`-style
//! functions: a pure function from a tuple of input-stream elements (with
//! constant-offset neighbour access — the stencil pattern) to one or more
//! output elements, plus optional stream [`Reduction`]s (the
//! `sorErrAcc`). `map kernel inputs` over the NDRange is the whole
//! program; the parallel decorations live in
//! [`crate::typetrans::Variant`], not here.
//!
//! The [`KernelDef::eval_reference`] evaluator defines the semantics the
//! lowered hardware must reproduce; `tytra-sim`'s interpreter is checked
//! against it in the integration tests.

use std::collections::HashMap;
use tytra_ir::{Opcode, ScalarType};

/// A pure element-wise expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// The current element of input stream `name`.
    Arg(String),
    /// The element of input `name` at constant offset `off` (0 outside
    /// the range).
    OffsetArg(String, i64),
    /// Integer constant.
    ConstI(i64),
    /// Float constant.
    ConstF(f64),
    /// Binary operation.
    Bin(Opcode, Box<Expr>, Box<Expr>),
    /// Unary operation.
    Un(Opcode, Box<Expr>),
    /// Three-way select: `cond ? a : b`.
    Sel(Box<Expr>, Box<Expr>, Box<Expr>),
}

// The `add`/`sub`/`mul` constructors intentionally mirror the opcode
// mnemonics; they are associated functions, not methods, so no confusion
// with the operator traits arises at call sites.
#[allow(clippy::should_implement_trait)]
impl Expr {
    /// `Arg` helper.
    pub fn arg(name: &str) -> Expr {
        Expr::Arg(name.to_string())
    }

    /// `OffsetArg` helper.
    pub fn off(name: &str, off: i64) -> Expr {
        Expr::OffsetArg(name.to_string(), off)
    }

    /// Binary helper.
    pub fn bin(op: Opcode, a: Expr, b: Expr) -> Expr {
        Expr::Bin(op, Box::new(a), Box::new(b))
    }

    /// `a + b`.
    pub fn add(a: Expr, b: Expr) -> Expr {
        Expr::bin(Opcode::Add, a, b)
    }

    /// `a - b`.
    pub fn sub(a: Expr, b: Expr) -> Expr {
        Expr::bin(Opcode::Sub, a, b)
    }

    /// `a * b`.
    pub fn mul(a: Expr, b: Expr) -> Expr {
        Expr::bin(Opcode::Mul, a, b)
    }

    /// Number of operation nodes (instructions after lowering).
    pub fn n_ops(&self) -> u64 {
        match self {
            Expr::Arg(_) | Expr::OffsetArg(..) | Expr::ConstI(_) | Expr::ConstF(_) => 0,
            Expr::Bin(_, a, b) => 1 + a.n_ops() + b.n_ops(),
            Expr::Un(_, a) => 1 + a.n_ops(),
            Expr::Sel(c, a, b) => 1 + c.n_ops() + a.n_ops() + b.n_ops(),
        }
    }

    /// All distinct (input, offset) pairs with offset ≠ 0.
    pub fn offsets(&self, acc: &mut Vec<(String, i64)>) {
        match self {
            Expr::OffsetArg(n, o) if *o != 0 && !acc.iter().any(|(m, p)| m == n && p == o) => {
                acc.push((n.clone(), *o));
            }
            Expr::Bin(_, a, b) => {
                a.offsets(acc);
                b.offsets(acc);
            }
            Expr::Un(_, a) => a.offsets(acc),
            Expr::Sel(c, a, b) => {
                c.offsets(acc);
                a.offsets(acc);
                b.offsets(acc);
            }
            _ => {}
        }
    }
}

/// A stream reduction: `acc = fold op over expr(work-items)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Reduction {
    /// Accumulator name.
    pub acc: String,
    /// Fold operation (Add, Max, ...).
    pub op: Opcode,
    /// The per-item value folded in.
    pub value: Expr,
}

/// Result of a reference evaluation: output arrays and final reduction
/// values.
pub type EvalResult = (HashMap<String, Vec<f64>>, HashMap<String, f64>);

/// A complete kernel definition.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelDef {
    /// Kernel name.
    pub name: String,
    /// Element type of every stream (the paper's kernels are
    /// monomorphic; ui18 for the integer SOR).
    pub elem_ty: ScalarType,
    /// Input stream names, in tuple order.
    pub inputs: Vec<String>,
    /// Output streams: name and defining expression.
    pub outputs: Vec<(String, Expr)>,
    /// Stream reductions.
    pub reductions: Vec<Reduction>,
}

impl KernelDef {
    /// Total operation count (`NI` after lowering, minus the output
    /// routing `or`s).
    pub fn n_ops(&self) -> u64 {
        self.outputs.iter().map(|(_, e)| e.n_ops()).sum::<u64>()
            + self.reductions.iter().map(|r| r.value.n_ops() + 1).sum::<u64>()
    }

    /// All distinct neighbour offsets used, per input.
    pub fn offsets(&self) -> Vec<(String, i64)> {
        let mut v = Vec::new();
        for (_, e) in &self.outputs {
            e.offsets(&mut v);
        }
        for r in &self.reductions {
            r.value.offsets(&mut v);
        }
        v
    }

    /// Evaluate the kernel over `n` work-items with the reference
    /// (software) semantics: f64 arithmetic for float kernels, exact
    /// width-masked integer arithmetic for integer kernels. Returns
    /// output arrays and final reduction values.
    pub fn eval_reference(
        &self,
        inputs: &HashMap<String, Vec<f64>>,
        n: usize,
    ) -> Result<EvalResult, String> {
        for name in &self.inputs {
            let arr = inputs.get(name).ok_or_else(|| format!("missing input `{name}`"))?;
            if arr.len() < n {
                return Err(format!("input `{name}` shorter than NDRange"));
            }
        }
        let mut outs: HashMap<String, Vec<f64>> =
            self.outputs.iter().map(|(o, _)| (o.clone(), vec![0.0; n])).collect();
        let mut reds: HashMap<String, f64> =
            self.reductions.iter().map(|r| (r.acc.clone(), 0.0)).collect();
        for i in 0..n {
            for (o, e) in &self.outputs {
                let v = eval_expr(e, inputs, i, self.elem_ty);
                outs.get_mut(o).expect("pre-inserted")[i] = v;
            }
            for r in &self.reductions {
                let v = eval_expr(&r.value, inputs, i, self.elem_ty);
                let acc = reds.get_mut(&r.acc).expect("pre-inserted");
                *acc = fold(r.op, *acc, v, self.elem_ty);
            }
        }
        Ok((outs, reds))
    }
}

fn mask_int(v: f64, ty: ScalarType) -> f64 {
    if ty.is_float() {
        return v;
    }
    let w = u32::from(ty.bits()).min(63);
    let modulus = (1i128 << w) as f64;
    let mut r = (v as i128).rem_euclid(1i128 << w) as f64;
    if ty.is_signed() && r >= modulus / 2.0 {
        r -= modulus;
    }
    r
}

fn eval_expr(e: &Expr, inputs: &HashMap<String, Vec<f64>>, i: usize, ty: ScalarType) -> f64 {
    let v = match e {
        Expr::Arg(n) => inputs.get(n).and_then(|a| a.get(i)).copied().unwrap_or(0.0),
        Expr::OffsetArg(n, off) => {
            let j = i as i64 + off;
            inputs
                .get(n)
                .and_then(|a| if j >= 0 { a.get(j as usize) } else { None })
                .copied()
                .unwrap_or(0.0)
        }
        Expr::ConstI(c) => *c as f64,
        Expr::ConstF(c) => *c,
        Expr::Bin(op, a, b) => {
            let x = eval_expr(a, inputs, i, ty);
            let y = eval_expr(b, inputs, i, ty);
            apply_bin(*op, x, y, ty)
        }
        Expr::Un(op, a) => {
            let x = eval_expr(a, inputs, i, ty);
            match op {
                Opcode::Abs => x.abs(),
                Opcode::Neg => -x,
                Opcode::Not => mask_int(-(x + 1.0), ty),
                Opcode::Sqrt => {
                    if ty.is_float() {
                        x.sqrt()
                    } else {
                        (x.max(0.0).sqrt()).floor()
                    }
                }
                _ => x,
            }
        }
        Expr::Sel(c, a, b) => {
            if eval_expr(c, inputs, i, ty) != 0.0 {
                eval_expr(a, inputs, i, ty)
            } else {
                eval_expr(b, inputs, i, ty)
            }
        }
    };
    mask_int(v, ty)
}

fn apply_bin(op: Opcode, x: f64, y: f64, ty: ScalarType) -> f64 {
    let int = ty.is_int();
    match op {
        Opcode::Add => x + y,
        Opcode::Sub => x - y,
        Opcode::Mul => x * y,
        Opcode::Div => {
            if int {
                if y == 0.0 {
                    ((1u64 << ty.bits().min(62)) - 1) as f64
                } else {
                    (x / y).trunc()
                }
            } else {
                x / y
            }
        }
        Opcode::Rem => {
            if y == 0.0 {
                0.0
            } else if int {
                (x % y).trunc()
            } else {
                x % y
            }
        }
        Opcode::And => ((x as i64) & (y as i64)) as f64,
        Opcode::Or => ((x as i64) | (y as i64)) as f64,
        Opcode::Xor => ((x as i64) ^ (y as i64)) as f64,
        Opcode::Shl => ((x as i64) << (y as i64).clamp(0, 63)) as f64,
        Opcode::Shr => ((x as i64) >> (y as i64).clamp(0, 63)) as f64,
        Opcode::CmpEq => f64::from(x == y),
        Opcode::CmpNe => f64::from(x != y),
        Opcode::CmpLt => f64::from(x < y),
        Opcode::CmpLe => f64::from(x <= y),
        Opcode::CmpGt => f64::from(x > y),
        Opcode::CmpGe => f64::from(x >= y),
        Opcode::Min => x.min(y),
        Opcode::Max => x.max(y),
        _ => x,
    }
}

fn fold(op: Opcode, acc: f64, v: f64, ty: ScalarType) -> f64 {
    mask_int(apply_bin(op, v, acc, ty), ty)
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: ScalarType = ScalarType::UInt(18);

    fn simple_kernel() -> KernelDef {
        // q[i] = (p[i-1] + p[i+1]) * 3; errAcc += q[i] - p[i]
        let e = Expr::mul(Expr::add(Expr::off("p", -1), Expr::off("p", 1)), Expr::ConstI(3));
        KernelDef {
            name: "simple".into(),
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
    fn op_and_offset_census() {
        let k = simple_kernel();
        assert_eq!(k.n_ops(), 6, "add+mul outputs; sub+add+mul+fold reduction");
        let offs = k.offsets();
        assert_eq!(offs.len(), 2);
        assert!(offs.contains(&("p".into(), -1)));
        assert!(offs.contains(&("p".into(), 1)));
    }

    #[test]
    fn reference_eval_matches_hand_computation() {
        let k = simple_kernel();
        let mut inputs = HashMap::new();
        inputs.insert("p".to_string(), vec![1.0, 2.0, 3.0, 4.0]);
        let (outs, reds) = k.eval_reference(&inputs, 4).unwrap();
        let q = &outs["q"];
        assert_eq!(q[0], 6.0, "(0 + 2) * 3");
        assert_eq!(q[1], 12.0, "(1 + 3) * 3");
        assert_eq!(q[2], 18.0);
        assert_eq!(q[3], 9.0, "(3 + 0) * 3");
        assert_eq!(reds["errAcc"], (6.0 - 1.0) + (12.0 - 2.0) + (18.0 - 3.0) + (9.0 - 4.0));
    }

    #[test]
    fn integer_masking_in_reference() {
        let k = KernelDef {
            name: "wrap".into(),
            elem_ty: ScalarType::UInt(8),
            inputs: vec!["x".into()],
            outputs: vec![("y".into(), Expr::mul(Expr::arg("x"), Expr::ConstI(2)))],
            reductions: vec![],
        };
        let mut inputs = HashMap::new();
        inputs.insert("x".to_string(), vec![200.0]);
        let (outs, _) = k.eval_reference(&inputs, 1).unwrap();
        assert_eq!(outs["y"][0], (400 % 256) as f64);
    }

    #[test]
    fn missing_input_reported() {
        let k = simple_kernel();
        assert!(k.eval_reference(&HashMap::new(), 4).is_err());
        let mut short = HashMap::new();
        short.insert("p".to_string(), vec![1.0]);
        assert!(k.eval_reference(&short, 4).is_err());
    }

    #[test]
    fn select_and_compare() {
        let k = KernelDef {
            name: "clip".into(),
            elem_ty: T,
            inputs: vec!["x".into()],
            outputs: vec![(
                "y".into(),
                Expr::Sel(
                    Box::new(Expr::bin(Opcode::CmpGt, Expr::arg("x"), Expr::ConstI(10))),
                    Box::new(Expr::ConstI(10)),
                    Box::new(Expr::arg("x")),
                ),
            )],
            reductions: vec![],
        };
        let mut inputs = HashMap::new();
        inputs.insert("x".to_string(), vec![5.0, 15.0]);
        let (outs, _) = k.eval_reference(&inputs, 2).unwrap();
        assert_eq!(outs["y"], vec![5.0, 10.0]);
    }

    #[test]
    fn max_reduction() {
        let k = KernelDef {
            name: "maxred".into(),
            elem_ty: T,
            inputs: vec!["x".into()],
            outputs: vec![("y".into(), Expr::arg("x"))],
            reductions: vec![Reduction { acc: "m".into(), op: Opcode::Max, value: Expr::arg("x") }],
        };
        let mut inputs = HashMap::new();
        inputs.insert("x".to_string(), vec![3.0, 9.0, 4.0]);
        let (_, reds) = k.eval_reference(&inputs, 3).unwrap();
        assert_eq!(reds["m"], 9.0);
    }
}
