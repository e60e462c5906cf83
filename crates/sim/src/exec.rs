//! Functional interpretation of a design's datapath over real data.
//!
//! Executes the lane pipeline of a validated module against input
//! arrays, producing output arrays and reduction-accumulator values.
//! This validates that a design variant is *semantically* the kernel the
//! front end lowered — the transform crate's correct-by-construction
//! claim is checked against the reference CPU implementations in
//! `tytra-kernels`.
//!
//! Semantics:
//!
//! * integers compute modulo 2^w (as the hardware datapath would),
//!   signed ops sign-extend from w bits;
//! * stream offsets read the input array at `index + offset`, yielding 0
//!   outside the range (boundary cells are expected to be handled by the
//!   host, as in the LES code);
//! * reductions fold over all work-items in stream order;
//! * multi-lane designs split the index space into `KNL` contiguous
//!   chunks, one per lane (the order-preserving `reshapeTo` split).

use std::collections::HashMap;
use tytra_ir::{
    config_tree, Dest, IrError, IrFunction, IrModule, Opcode, Operand, ParKind, PortDir,
    ScalarType, Stmt, TybecError,
};

/// A runtime value: integers carry their width for masking.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// Integer payload (stored sign-extended in i128).
    Int(i128),
    /// Float payload.
    Float(f64),
}

impl Value {
    /// Interpret as f64 (for float ops / comparisons with mixed imms).
    pub fn as_f64(self) -> f64 {
        match self {
            Value::Int(v) => v as f64,
            Value::Float(v) => v,
        }
    }

    /// Interpret as integer, truncating floats.
    pub fn as_int(self) -> i128 {
        match self {
            Value::Int(v) => v,
            Value::Float(v) => v as i128,
        }
    }
}

/// Input arrays keyed by *kernel argument name* (the lane function's
/// parameter names). Each array holds one element per work-item.
#[derive(Debug, Clone, Default)]
pub struct ExecInputs {
    /// name → data.
    pub arrays: HashMap<String, Vec<f64>>,
}

impl ExecInputs {
    /// Insert an input array.
    pub fn set(&mut self, name: impl Into<String>, data: Vec<f64>) -> &mut Self {
        self.arrays.insert(name.into(), data);
        self
    }
}

/// Execution results.
#[derive(Debug, Clone, Default)]
pub struct ExecOutputs {
    /// Output arrays keyed by argument name.
    pub arrays: HashMap<String, Vec<f64>>,
    /// Final values of reduction accumulators keyed by global name.
    pub reductions: HashMap<String, f64>,
}

/// Execute the module's lane pipeline over `n` work-items.
///
/// `inputs` supplies one array per input parameter of the lane function;
/// all arrays must have length ≥ `n`.
pub fn execute_module(
    m: &IrModule,
    inputs: &ExecInputs,
    n: usize,
) -> Result<ExecOutputs, TybecError> {
    let tree = config_tree::extract(m)?;
    // The lane function: descend par → first child; coarse pipes execute
    // child pipes in sequence (each stage feeding the next is not yet
    // modelled — coarse pipes execute their own body then children over
    // the same index space, which matches stages that are element-wise).
    let lane = {
        let mut node = &tree.root;
        while node.kind == ParKind::Par {
            node = node
                .children
                .first()
                .ok_or_else(|| IrError::Validate("par node with no lanes at execution".into()))?;
        }
        node
    };
    let funcs = collect_pipeline(m, &lane.function)?;

    let mut out = ExecOutputs::default();
    // Working arrays: start from the inputs; each pipeline stage may add
    // outputs that later stages read.
    let mut env_arrays: HashMap<String, Vec<f64>> = inputs.arrays.clone();

    for f in funcs {
        exec_function(m, f, &mut env_arrays, &mut out, n)?;
    }

    // Outputs: any array bound to an output param of any executed
    // function.
    Ok(out)
}

/// Execute a (possibly multi-lane) module over the whole index space the
/// way the host runtime would: split every input array into `KNL`
/// contiguous chunks extended by `halo` elements on both sides (the
/// stencil ghost cells the LES host code exchanges), run each lane, and
/// reassemble outputs in order. With `halo` at least the design's
/// largest absolute offset, the result equals the flat single-lane run —
/// the executable form of the `mappar (mappipe f) ∘ reshapeTo ≡ map f`
/// law.
pub fn execute_application(
    m: &IrModule,
    inputs: &ExecInputs,
    n: usize,
    halo: usize,
) -> Result<ExecOutputs, TybecError> {
    let lanes = m.kernel_lanes().max(1) as usize;
    if lanes == 1 {
        return execute_module(m, inputs, n);
    }
    if !n.is_multiple_of(lanes) {
        return Err(IrError::Validate(format!("{lanes} lanes do not divide {n} work-items")).into());
    }
    let per = n / lanes;
    let mut combined = ExecOutputs::default();
    for l in 0..lanes {
        let lo = l * per;
        let hi = lo + per;
        let ext_lo = lo.saturating_sub(halo);
        let ext_hi = (hi + halo).min(n);
        let lead = lo - ext_lo;
        let mut lane_inputs = ExecInputs::default();
        for (name, data) in &inputs.arrays {
            lane_inputs.set(name.clone(), data[ext_lo..ext_hi.min(data.len())].to_vec());
        }
        let lane_out = execute_module(m, &lane_inputs, ext_hi - ext_lo)?;
        for (name, arr) in &lane_out.arrays {
            let slot = combined.arrays.entry(name.clone()).or_insert_with(|| vec![0.0; n]);
            slot[lo..hi].copy_from_slice(&arr[lead..lead + per]);
        }
        for (acc, v) in &lane_out.reductions {
            // Halo items contribute to per-lane accumulators; the host
            // combines interior-only reductions, which we approximate by
            // summing lane values (exact when halo items see zero
            // padding symmetric across lanes is not guaranteed — callers
            // validating reductions should use halo = 0 or single-lane
            // runs).
            *combined.reductions.entry(acc.clone()).or_insert(0.0) += v;
        }
    }
    Ok(combined)
}

/// The pipe functions of a (possibly coarse) pipeline, in dataflow
/// order.
fn collect_pipeline<'m>(m: &'m IrModule, root: &str) -> Result<Vec<&'m IrFunction>, IrError> {
    let f = m
        .function(root)
        .ok_or_else(|| IrError::Unknown { kind: "function", name: root.to_string() })?;
    let mut v = vec![f];
    for c in f.calls() {
        if let Some(cf) = m.function(&c.callee) {
            if cf.kind == ParKind::Pipe {
                v.extend(collect_pipeline(m, &c.callee)?);
            }
        }
    }
    Ok(v)
}

fn exec_function(
    m: &IrModule,
    f: &IrFunction,
    arrays: &mut HashMap<String, Vec<f64>>,
    out: &mut ExecOutputs,
    n: usize,
) -> Result<(), IrError> {
    let funcs_by_name: HashMap<&str, &IrFunction> =
        m.functions.iter().map(|g| (g.name.as_str(), g)).collect();
    // comb functions inline into their parent; callers execute them via
    // collect_pipeline only for pipes. Execute instructions per
    // work-item.
    let mut outputs: HashMap<&str, Vec<f64>> = f
        .params
        .iter()
        .filter(|p| p.dir == PortDir::Out)
        .map(|p| (p.name.as_str(), vec![0.0f64; n]))
        .collect();
    let mut reductions: HashMap<String, f64> = HashMap::new();

    // Inline comb callees' statements after the parent's (they are
    // element-wise single-cycle blocks).
    for idx in 0..n {
        let mut locals: HashMap<&str, Value> = HashMap::new();
        // Bind input params.
        for p in &f.params {
            if p.dir == PortDir::In {
                let data = arrays.get(p.name.as_str()).ok_or_else(|| IrError::Unknown {
                    kind: "input array",
                    name: p.name.clone(),
                })?;
                let raw = data.get(idx).copied().unwrap_or(0.0);
                locals.insert(p.name.as_str(), to_value(raw, p.ty));
            }
        }
        for s in &f.body {
            match s {
                Stmt::Offset(o) => {
                    let src_data = arrays.get(o.src.as_str()).ok_or_else(|| IrError::Unknown {
                        kind: "offset source array",
                        name: o.src.clone(),
                    })?;
                    let j = idx as i64 + o.offset;
                    let raw = if j >= 0 && (j as usize) < src_data.len() {
                        src_data[j as usize]
                    } else {
                        0.0
                    };
                    locals.insert(o.dest.as_str(), to_value(raw, o.ty));
                }
                Stmt::Instr(i) => {
                    let args: Vec<Value> = i
                        .operands
                        .iter()
                        .map(|op| operand_value(op, &locals, &reductions, i.ty))
                        .collect();
                    let v = apply(i.op, i.ty, &args);
                    match &i.dest {
                        Dest::Local(nm) => {
                            locals.insert(nm.as_str(), v);
                        }
                        Dest::Global(g) => {
                            reductions.insert(g.clone(), v.as_f64());
                        }
                    }
                }
                Stmt::Call(c) => {
                    // Child pipes run as their own stage (collected by
                    // `collect_pipeline`); `comb` children inline into
                    // this work-item: bind their params positionally to
                    // the call's operands, run the block, and copy each
                    // output param's `__out` value back to the caller's
                    // argument name.
                    if let Some(callee) = funcs_by_name.get(c.callee.as_str()) {
                        if callee.kind == ParKind::Comb {
                            exec_comb_inline(callee, c, &mut locals)?;
                        }
                    }
                }
            }
        }
        // Route `<port>__out` values to output arrays.
        for p in f.params.iter().filter(|p| p.dir == PortDir::Out) {
            let key = format!("{}__out", p.name);
            if let Some(v) = locals.get(key.as_str()) {
                if let Some(arr) = outputs.get_mut(p.name.as_str()) {
                    arr[idx] = from_value(*v, p.ty);
                }
            }
        }
    }

    for (name, data) in outputs {
        arrays.insert(name.to_string(), data.clone());
        out.arrays.insert(name.to_string(), data);
    }
    out.reductions.extend(reductions);
    Ok(())
}

/// Inline a `comb` callee for one work-item: positional param binding,
/// straight-line execution, outputs copied back to the caller's
/// argument names.
fn exec_comb_inline<'m>(
    callee: &'m IrFunction,
    call: &'m tytra_ir::Call,
    locals: &mut HashMap<&'m str, Value>,
) -> Result<(), IrError> {
    if !call.args.is_empty() && call.args.len() != callee.params.len() {
        return Err(IrError::Validate(format!(
            "call to `{}` binds {} args to {} params",
            callee.name,
            call.args.len(),
            callee.params.len()
        )));
    }
    // Bind inputs positionally.
    let mut inner: HashMap<&str, Value> = HashMap::new();
    for (p, a) in callee.params.iter().zip(&call.args) {
        if p.dir == PortDir::In {
            let v = match a {
                Operand::Local(n) => locals.get(n.as_str()).copied().unwrap_or(Value::Int(0)),
                Operand::Imm(v) => Value::Int(i128::from(*v)),
                Operand::ImmF(v) => Value::Float(*v),
                Operand::Global(_) => Value::Int(0),
            };
            inner.insert(p.name.as_str(), v);
        }
    }
    let no_reductions: HashMap<String, f64> = HashMap::new();
    for st in &callee.body {
        if let Stmt::Instr(i) = st {
            let args: Vec<Value> = i
                .operands
                .iter()
                .map(|op| operand_value(op, &inner, &no_reductions, i.ty))
                .collect();
            let v = apply(i.op, i.ty, &args);
            if let Dest::Local(nm) = &i.dest {
                inner.insert(nm.as_str(), v);
            }
        }
    }
    // Copy outputs back: the caller's operand in each output position
    // receives the callee's `<param>__out` value.
    for (p, a) in callee.params.iter().zip(&call.args) {
        if p.dir == PortDir::Out {
            let key = format!("{}__out", p.name);
            if let (Some(v), Operand::Local(caller_name)) = (inner.get(key.as_str()), a) {
                locals.insert(caller_name.as_str(), *v);
            }
        }
    }
    Ok(())
}

fn to_value(raw: f64, ty: ScalarType) -> Value {
    if ty.is_float() {
        Value::Float(raw)
    } else {
        Value::Int(mask(raw as i128, ty))
    }
}

fn from_value(v: Value, ty: ScalarType) -> f64 {
    match v {
        Value::Float(f) => f,
        Value::Int(i) => mask(i, ty) as f64,
    }
}

/// Reduce an integer to the type's width: unsigned wraps into [0, 2^w);
/// signed sign-extends from bit w−1.
fn mask(v: i128, ty: ScalarType) -> i128 {
    let w = u32::from(ty.bits()).min(127);
    let modulus: i128 = 1i128 << w;
    let r = v.rem_euclid(modulus);
    if ty.is_signed() && r >= modulus / 2 {
        r - modulus
    } else {
        r
    }
}

fn operand_value(
    op: &Operand,
    locals: &HashMap<&str, Value>,
    reductions: &HashMap<String, f64>,
    ty: ScalarType,
) -> Value {
    match op {
        Operand::Local(n) => locals.get(n.as_str()).copied().unwrap_or(Value::Int(0)),
        Operand::Global(n) => {
            let raw = reductions.get(n.as_str()).copied().unwrap_or(0.0);
            to_value(raw, ty)
        }
        Operand::Imm(v) => Value::Int(i128::from(*v)),
        Operand::ImmF(v) => Value::Float(*v),
    }
}

fn apply(op: Opcode, ty: ScalarType, args: &[Value]) -> Value {
    if ty.is_float() {
        let a = args[0].as_f64();
        let b = args.get(1).map(|v| v.as_f64()).unwrap_or(0.0);
        let c = args.get(2).map(|v| v.as_f64()).unwrap_or(0.0);
        let r = match op {
            Opcode::Add => a + b,
            Opcode::Sub => a - b,
            Opcode::Mul => a * b,
            Opcode::Div => a / b,
            Opcode::Rem => a % b,
            Opcode::Min => a.min(b),
            Opcode::Max => a.max(b),
            Opcode::Abs => a.abs(),
            Opcode::Neg => -a,
            Opcode::Sqrt => a.sqrt(),
            Opcode::Select => {
                if a != 0.0 {
                    b
                } else {
                    c
                }
            }
            Opcode::CmpEq => f64::from(a == b),
            Opcode::CmpNe => f64::from(a != b),
            Opcode::CmpLt => f64::from(a < b),
            Opcode::CmpLe => f64::from(a <= b),
            Opcode::CmpGt => f64::from(a > b),
            Opcode::CmpGe => f64::from(a >= b),
            // Bit ops on float lanes are moves of the first operand.
            Opcode::And | Opcode::Or | Opcode::Xor | Opcode::Not | Opcode::Shl | Opcode::Shr => a,
        };
        return Value::Float(r);
    }
    let a = mask(args[0].as_int(), ty);
    let b = args.get(1).map(|v| mask(v.as_int(), ty)).unwrap_or(0);
    let c = args.get(2).map(|v| mask(v.as_int(), ty)).unwrap_or(0);
    let r: i128 = match op {
        Opcode::Add => a + b,
        Opcode::Sub => a - b,
        Opcode::Mul => a * b,
        Opcode::Div => {
            if b == 0 {
                // Hardware dividers saturate on divide-by-zero.
                (1i128 << ty.bits().min(126)) - 1
            } else {
                a / b
            }
        }
        Opcode::Rem => {
            if b == 0 {
                0
            } else {
                a % b
            }
        }
        Opcode::And => a & b,
        Opcode::Or => a | b,
        Opcode::Xor => a ^ b,
        Opcode::Not => !a,
        Opcode::Shl => a << (b.clamp(0, 127)),
        Opcode::Shr => a >> (b.clamp(0, 127)),
        Opcode::CmpEq => i128::from(a == b),
        Opcode::CmpNe => i128::from(a != b),
        Opcode::CmpLt => i128::from(a < b),
        Opcode::CmpLe => i128::from(a <= b),
        Opcode::CmpGt => i128::from(a > b),
        Opcode::CmpGe => i128::from(a >= b),
        Opcode::Select => {
            if a != 0 {
                b
            } else {
                c
            }
        }
        Opcode::Min => a.min(b),
        Opcode::Max => a.max(b),
        Opcode::Abs => a.abs(),
        Opcode::Neg => -a,
        Opcode::Sqrt => (a.max(0) as f64).sqrt() as i128,
    };
    Value::Int(mask(r, ty))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tytra_ir::{ModuleBuilder, ParKind};

    const T: ScalarType = ScalarType::UInt(18);

    fn double_module() -> IrModule {
        let mut b = ModuleBuilder::new("dbl");
        b.global_input("x", T, 16);
        b.global_output("y", T, 16);
        {
            let f = b.function("f0", ParKind::Pipe);
            f.input("x", T);
            f.output("y", T);
            let x = f.arg("x");
            let d = f.instr(Opcode::Mul, T, vec![x, f.imm(2)]);
            f.write_out("y", d);
        }
        b.main_calls("f0");
        b.ndrange(&[16]);
        b.finish().unwrap()
    }

    #[test]
    fn doubles_every_element() {
        let m = double_module();
        let mut inp = ExecInputs::default();
        inp.set("x", (0..16).map(f64::from).collect());
        let out = execute_module(&m, &inp, 16).unwrap();
        let want: Vec<f64> = (0..16).map(|i| f64::from(2 * i)).collect();
        assert_eq!(out.arrays["y"], want);
    }

    #[test]
    fn integer_wraparound_at_width() {
        let m = double_module();
        let mut inp = ExecInputs::default();
        // 2^17 doubles to 2^18 ≡ 0 (mod 2^18).
        inp.set("x", vec![131_072.0; 16]);
        let out = execute_module(&m, &inp, 16).unwrap();
        assert_eq!(out.arrays["y"][0], 0.0);
    }

    #[test]
    fn offsets_read_neighbours_and_clamp() {
        let mut b = ModuleBuilder::new("st");
        b.global_input("p", T, 8);
        b.global_output("q", T, 8);
        {
            let f = b.function("f0", ParKind::Pipe);
            f.input("p", T);
            f.output("q", T);
            let a = f.offset("p", T, 1);
            let c = f.offset("p", T, -1);
            let s = f.instr(Opcode::Add, T, vec![a, c]);
            f.write_out("q", s);
        }
        b.main_calls("f0");
        b.ndrange(&[8]);
        let m = b.finish().unwrap();
        let mut inp = ExecInputs::default();
        inp.set("p", vec![10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0]);
        let out = execute_module(&m, &inp, 8).unwrap();
        let q = &out.arrays["q"];
        assert_eq!(q[0], 20.0, "left edge: 0 (clamped) + 20");
        assert_eq!(q[3], 30.0 + 50.0);
        assert_eq!(q[7], 70.0, "right edge: 70 + 0 (clamped)");
    }

    #[test]
    fn reductions_accumulate_over_stream() {
        let mut b = ModuleBuilder::new("red");
        b.global_input("x", T, 8);
        b.global_output("y", T, 8);
        {
            let f = b.function("f0", ParKind::Pipe);
            f.input("x", T);
            f.output("y", T);
            let x = f.arg("x");
            f.reduce("acc", Opcode::Add, T, x.clone());
            f.write_out("y", x);
        }
        b.main_calls("f0");
        b.ndrange(&[8]);
        let m = b.finish().unwrap();
        let mut inp = ExecInputs::default();
        inp.set("x", (1..=8).map(f64::from).collect());
        let out = execute_module(&m, &inp, 8).unwrap();
        assert_eq!(out.reductions["acc"], 36.0);
    }

    #[test]
    fn signed_semantics() {
        let st = ScalarType::Int(8);
        let mut b = ModuleBuilder::new("sg");
        b.global_input("x", st, 4);
        b.global_output("y", st, 4);
        {
            let f = b.function("f0", ParKind::Pipe);
            f.input("x", st);
            f.output("y", st);
            let x = f.arg("x");
            let d = f.instr(Opcode::Sub, st, vec![f.imm(0), x]);
            f.write_out("y", d);
        }
        b.main_calls("f0");
        b.ndrange(&[4]);
        let m = b.finish().unwrap();
        let mut inp = ExecInputs::default();
        inp.set("x", vec![5.0, -7.0, 127.0, -128.0]);
        let out = execute_module(&m, &inp, 4).unwrap();
        let y = &out.arrays["y"];
        assert_eq!(y[0], -5.0);
        assert_eq!(y[1], 7.0);
        assert_eq!(y[2], -127.0);
        assert_eq!(y[3], -128.0, "−(−128) wraps to −128 in 8 bits");
    }

    #[test]
    fn float_pipeline() {
        let ft = ScalarType::Float(32);
        let mut b = ModuleBuilder::new("fp");
        b.global_input("x", ft, 4);
        b.global_output("y", ft, 4);
        {
            let f = b.function("f0", ParKind::Pipe);
            f.input("x", ft);
            f.output("y", ft);
            let x = f.arg("x");
            let h = f.instr(Opcode::Mul, ft, vec![x.clone(), f.imm_f(0.5)]);
            let s = f.instr(Opcode::Sqrt, ft, vec![h]);
            f.write_out("y", s);
        }
        b.main_calls("f0");
        b.ndrange(&[4]);
        let m = b.finish().unwrap();
        let mut inp = ExecInputs::default();
        inp.set("x", vec![2.0, 8.0, 18.0, 32.0]);
        let out = execute_module(&m, &inp, 4).unwrap();
        let y = &out.arrays["y"];
        assert_eq!(y[0], 1.0);
        assert_eq!(y[1], 2.0);
        assert_eq!(y[2], 3.0);
        assert_eq!(y[3], 4.0);
    }

    #[test]
    fn missing_input_is_reported() {
        let m = double_module();
        let inp = ExecInputs::default();
        let e = execute_module(&m, &inp, 4).unwrap_err();
        assert_eq!(e, TybecError::from(IrError::Unknown { kind: "input array", name: "x".into() }));
        assert_eq!(e.category, tytra_ir::ErrorCategory::Config);
    }
}
