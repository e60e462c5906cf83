//! Programmatic construction of TyTra-IR modules.
//!
//! The builder is what the front-end lowering (`tytra-transform`) and the
//! kernel library (`tytra-kernels`) use; it produces the same [`IrModule`]
//! the `.tirl` parser does.
//!
//! ```
//! use tytra_ir::{ModuleBuilder, Opcode, ParKind, ScalarType, MemForm};
//!
//! let mut b = ModuleBuilder::new("double");
//! let t = ScalarType::UInt(32);
//! b.global_input("x", t, 1024);
//! b.global_output("y", t, 1024);
//! {
//!     let f = b.function("f0", ParKind::Pipe);
//!     f.input("x", t);
//!     f.output("y", t);
//!     let two = f.imm(2);
//!     let x = f.arg("x");
//!     let d = f.instr(Opcode::Mul, t, vec![x, two]);
//!     f.write_out("y", d);
//! }
//! b.main_calls("f0");
//! b.ndrange(&[1024]).nki(1).form(MemForm::B);
//! let module = b.finish().expect("valid module");
//! assert_eq!(module.functions.len(), 2);
//! ```

use crate::diag::SrcLoc;
use crate::error::Result;
use crate::function::{Call, IrFunction, OffsetDecl, ParKind, Param, Stmt};
use crate::instr::{Dest, Instruction, Opcode, Operand};
use crate::module::{IrModule, MemForm};
use crate::stream::{AccessPattern, AddrSpace, MemObject, PortDecl, StreamDir, StreamObject};
use crate::types::ScalarType;
use crate::validate;

/// Builds one Compute-IR function. Obtained from
/// [`ModuleBuilder::function`].
pub struct FunctionBuilder {
    func: IrFunction,
    next_tmp: u32,
}

impl FunctionBuilder {
    /// A builder for a function outside any module; add the result to a
    /// module with [`ModuleBuilder::add_function`].
    pub fn new(name: &str, kind: ParKind) -> FunctionBuilder {
        FunctionBuilder { func: IrFunction::new(name, kind), next_tmp: 0 }
    }

    /// The finished function.
    pub fn finish(self) -> IrFunction {
        self.func
    }

    /// Declare an input streaming port.
    pub fn input(&mut self, name: impl Into<String>, ty: ScalarType) -> &mut Self {
        self.func.params.push(Param::input(name, ty));
        self
    }

    /// Declare an output streaming port.
    pub fn output(&mut self, name: impl Into<String>, ty: ScalarType) -> &mut Self {
        self.func.params.push(Param::output(name, ty));
        self
    }

    /// Reference a declared port by name.
    pub fn arg(&self, name: &str) -> Operand {
        debug_assert!(self.func.param(name).is_some(), "undeclared arg `{name}`");
        Operand::local(name)
    }

    /// Integer immediate operand.
    pub fn imm(&self, v: i64) -> Operand {
        Operand::Imm(v)
    }

    /// Floating-point immediate operand.
    pub fn imm_f(&self, v: f64) -> Operand {
        Operand::ImmF(v)
    }

    /// Declare an offset stream over `src` (a port or previous offset
    /// stream) and return an operand referencing it.
    pub fn offset(&mut self, src: &str, ty: ScalarType, offset: i64) -> Operand {
        let sign = if offset >= 0 { "p" } else { "n" };
        let dest = format!("{src}_{sign}{}", offset.unsigned_abs());
        self.func.body.push(Stmt::Offset(OffsetDecl {
            dest: dest.clone(),
            ty,
            src: src.to_string(),
            offset,
            span: SrcLoc::none(),
        }));
        Operand::Local(dest)
    }

    /// Append an SSA instruction with a fresh destination name; returns an
    /// operand referencing the result.
    pub fn instr(&mut self, op: Opcode, ty: ScalarType, operands: Vec<Operand>) -> Operand {
        self.next_tmp += 1;
        let dest = format!("t{}", self.next_tmp);
        self.func.body.push(Stmt::Instr(Instruction::new(
            Dest::Local(dest.clone()),
            op,
            ty,
            operands,
        )));
        Operand::Local(dest)
    }

    /// Append an SSA instruction with an explicit destination name.
    pub fn instr_named(
        &mut self,
        dest: impl Into<String>,
        op: Opcode,
        ty: ScalarType,
        operands: Vec<Operand>,
    ) -> Operand {
        let dest = dest.into();
        self.func.body.push(Stmt::Instr(Instruction::new(
            Dest::Local(dest.clone()),
            op,
            ty,
            operands,
        )));
        Operand::Local(dest)
    }

    /// Append a reduction into the global accumulator `acc`:
    /// `ty @acc = op ty value, @acc`.
    pub fn reduce(&mut self, acc: &str, op: Opcode, ty: ScalarType, value: Operand) {
        self.func.body.push(Stmt::Instr(Instruction::new(
            Dest::Global(acc.to_string()),
            op,
            ty,
            vec![value, Operand::global(acc)],
        )));
    }

    /// Route a computed value to an output port. In the streaming datapath
    /// this is a wire, realised as a 1-input `or` with zero so that the
    /// value appears as a named SSA assignment to the port.
    pub fn write_out(&mut self, port: &str, value: Operand) {
        let ty = self.func.param(port).map(|p| p.ty).expect("write_out: undeclared output port");
        self.func.body.push(Stmt::Instr(Instruction::new(
            Dest::Local(format!("{port}__out")),
            Opcode::Or,
            ty,
            vec![value, Operand::Imm(0)],
        )));
    }

    /// Append a call to a child function.
    pub fn call(&mut self, callee: &str, args: Vec<Operand>, kind: ParKind) -> &mut Self {
        self.func.body.push(Stmt::Call(Call {
            callee: callee.to_string(),
            args,
            kind,
            span: SrcLoc::none(),
        }));
        self
    }
}

/// Builds a full [`IrModule`].
pub struct ModuleBuilder {
    module: IrModule,
    pending: Vec<IrFunction>,
    pending_fb: Option<FunctionBuilder>,
}

impl ModuleBuilder {
    /// Start a new module.
    pub fn new(name: impl Into<String>) -> ModuleBuilder {
        ModuleBuilder { module: IrModule::new(name), pending: Vec::new(), pending_fb: None }
    }

    /// Declare a global-memory input array of `len` elements plus its
    /// contiguous read stream and the port binding `main.<name>`.
    pub fn global_input(&mut self, name: &str, ty: ScalarType, len: u64) -> &mut Self {
        self.mem_stream_port(name, ty, len, StreamDir::Read, AccessPattern::Contiguous)
    }

    /// Declare a global-memory output array plus its contiguous write
    /// stream and port binding.
    pub fn global_output(&mut self, name: &str, ty: ScalarType, len: u64) -> &mut Self {
        self.mem_stream_port(name, ty, len, StreamDir::Write, AccessPattern::Contiguous)
    }

    /// Declare a global-memory array with an explicit direction and access
    /// pattern (e.g. strided).
    pub fn global_array(
        &mut self,
        name: &str,
        ty: ScalarType,
        len: u64,
        dir: StreamDir,
        pattern: AccessPattern,
    ) -> &mut Self {
        self.mem_stream_port(name, ty, len, dir, pattern)
    }

    /// Declare an on-chip (local-memory) array with a stream and port —
    /// used by Form-C designs.
    pub fn local_array(
        &mut self,
        name: &str,
        ty: ScalarType,
        len: u64,
        dir: StreamDir,
    ) -> &mut Self {
        let mem = format!("mem_{name}");
        self.module.mems.push(MemObject {
            name: mem.clone(),
            space: AddrSpace::Local,
            elem_ty: ty,
            len,
            span: SrcLoc::none(),
        });
        self.push_stream_port(name, ty, dir, AccessPattern::Contiguous, &mem);
        self
    }

    fn mem_stream_port(
        &mut self,
        name: &str,
        ty: ScalarType,
        len: u64,
        dir: StreamDir,
        pattern: AccessPattern,
    ) -> &mut Self {
        let mem = format!("mem_{name}");
        self.module.mems.push(MemObject {
            name: mem.clone(),
            space: AddrSpace::Global,
            elem_ty: ty,
            len,
            span: SrcLoc::none(),
        });
        self.push_stream_port(name, ty, dir, pattern, &mem);
        self
    }

    fn push_stream_port(
        &mut self,
        name: &str,
        ty: ScalarType,
        dir: StreamDir,
        pattern: AccessPattern,
        mem: &str,
    ) {
        let stream = format!("strobj_{name}");
        self.module.streams.push(StreamObject {
            name: stream.clone(),
            mem: mem.to_string(),
            dir,
            pattern,
            span: SrcLoc::none(),
        });
        self.module.ports.push(PortDecl {
            name: format!("main.{name}"),
            space: AddrSpace::Other(12),
            ty,
            dir,
            pattern,
            base_offset: 0,
            stream,
            span: SrcLoc::none(),
        });
    }

    /// Open a new function; the returned builder is committed when the
    /// next function is opened or the module is finished.
    pub fn function(&mut self, name: &str, kind: ParKind) -> &mut FunctionBuilder {
        self.commit_functions();
        self.pending_fb = Some(FunctionBuilder::new(name, kind));
        self.pending_fb.as_mut().expect("just set")
    }

    /// Append an already-built function (see [`FunctionBuilder::new`]).
    pub fn add_function(&mut self, f: IrFunction) -> &mut Self {
        self.commit_functions();
        self.pending.push(f);
        self
    }

    /// Add a `main` that calls `callee` once, forwarding every declared
    /// port as an argument, with the callee's kind.
    pub fn main_calls(&mut self, callee: &str) -> &mut Self {
        self.commit_functions();
        let target = self.pending.iter().find(|f| f.name == callee);
        let kind = target.map(|f| f.kind).unwrap_or(ParKind::Pipe);
        // Forward the port set when it matches the callee's signature
        // (single-lane designs); dispatchers with internally-wired lanes
        // (`par` tops) take no arguments.
        let args: Vec<Operand> = match target {
            Some(f) if f.params.len() == self.module.ports.len() => {
                self.module.ports.iter().map(|p| Operand::local(p.arg_name())).collect()
            }
            _ => Vec::new(),
        };
        let mut main = IrFunction::new("main", ParKind::Seq);
        main.body.push(Stmt::Call(Call {
            callee: callee.to_string(),
            args,
            kind,
            span: SrcLoc::none(),
        }));
        self.pending.push(main);
        self
    }

    /// Set the NDRange.
    pub fn ndrange(&mut self, dims: &[u64]) -> &mut Self {
        self.module.meta.ndrange = dims.to_vec();
        self
    }

    /// Set `NKI`.
    pub fn nki(&mut self, nki: u64) -> &mut Self {
        self.module.meta.nki = nki;
        self
    }

    /// Set the memory-execution form.
    pub fn form(&mut self, form: MemForm) -> &mut Self {
        self.module.meta.form = form;
        self
    }

    /// Set the degree of vectorization per lane (`DV`).
    pub fn vect(&mut self, dv: u32) -> &mut Self {
        self.module.meta.vect = dv;
        self
    }

    /// Set an explicit clock constraint in MHz.
    pub fn freq_mhz(&mut self, f: f64) -> &mut Self {
        self.module.meta.freq_mhz = Some(f);
        self
    }

    fn commit_functions(&mut self) {
        if let Some(fb) = self.pending_fb.take() {
            self.pending.push(fb.func);
        }
    }

    /// Validate and return the finished module.
    pub fn finish(mut self) -> Result<IrModule> {
        self.commit_functions();
        self.module.functions.append(&mut self.pending);
        validate::validate(&self.module)?;
        Ok(self.module)
    }

    /// Return the module without validating (for deliberately-invalid test
    /// inputs).
    pub fn finish_unchecked(mut self) -> IrModule {
        self.commit_functions();
        self.module.functions.append(&mut self.pending);
        self.module
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_produces_valid_module() {
        let t = ScalarType::UInt(32);
        let mut b = ModuleBuilder::new("m");
        b.global_input("x", t, 16);
        b.global_output("y", t, 16);
        {
            let f = b.function("f0", ParKind::Pipe);
            f.input("x", t);
            f.output("y", t);
            let x = f.arg("x");
            let two = f.imm(2);
            let d = f.instr(Opcode::Mul, t, vec![x, two]);
            f.write_out("y", d);
        }
        b.main_calls("f0");
        b.ndrange(&[16]).nki(1).form(MemForm::B);
        let m = b.finish().expect("valid");
        assert_eq!(m.functions.len(), 2);
        assert_eq!(m.kernel_lanes(), 1);
        assert_eq!(m.meta.global_size(), 16);
    }

    #[test]
    fn offset_names_encode_sign() {
        let t = ScalarType::UInt(18);
        let mut b = ModuleBuilder::new("m");
        b.global_input("p", t, 64);
        b.global_output("q", t, 64);
        {
            let f = b.function("f0", ParKind::Pipe);
            f.input("p", t);
            f.output("q", t);
            let a = f.offset("p", t, 1);
            let c = f.offset("p", t, -8);
            let d = f.instr(Opcode::Add, t, vec![a, c]);
            f.write_out("q", d);
        }
        b.main_calls("f0");
        b.ndrange(&[64]);
        let m = b.finish().unwrap();
        let f0 = m.function("f0").unwrap();
        let names: Vec<&str> = f0.offsets().map(|o| o.dest.as_str()).collect();
        assert_eq!(names, vec!["p_p1", "p_n8"]);
        assert_eq!(f0.offset_window("p"), 9);
    }

    #[test]
    fn reduce_adds_global_accumulator() {
        let t = ScalarType::UInt(18);
        let mut b = ModuleBuilder::new("m");
        b.global_input("p", t, 8);
        b.global_output("q", t, 8);
        {
            let f = b.function("f0", ParKind::Pipe);
            f.input("p", t);
            f.output("q", t);
            let p = f.arg("p");
            let e = f.instr(Opcode::Sub, t, vec![p.clone(), f.imm(1)]);
            f.reduce("errAcc", Opcode::Add, t, e.clone());
            f.write_out("q", e);
        }
        b.main_calls("f0");
        b.ndrange(&[8]);
        let m = b.finish().unwrap();
        let f0 = m.function("f0").unwrap();
        assert!(f0.instrs().any(|i| i.is_reduction()));
    }
}
