//! Stable structural fingerprints of IR entities.
//!
//! The session-based estimator (`tytra-cost`) memoizes per-function and
//! per-stream sub-results across the thousands of design variants a DSE
//! sweep costs. Memo keys must be *content* hashes: two structurally
//! identical functions — even ones parsed from different source files —
//! must collide, and the hash must be identical across processes and
//! runs (so cached figures can be compared, logged and replayed).
//!
//! [`StableHasher`] is therefore a fixed-seed FNV-1a 64-bit hasher, not
//! `std`'s randomly seeded `DefaultHasher`. Source locations ([`SrcLoc`](crate::SrcLoc)
//! is equality-transparent) are deliberately excluded: moving a function
//! within a file must not invalidate its cache entries. Floating-point
//! fields hash via [`f64::to_bits`] so distinct bit patterns (and only
//! those) produce distinct fingerprints.

use crate::config_tree::ConfigNode;
use crate::function::{IrFunction, Stmt};
use crate::instr::{Dest, Operand};
use crate::module::{ExecMeta, IrModule, LaneSuffix, MemForm};
use crate::stream::AccessPattern;
use crate::types::ScalarType;

/// FNV-1a, 64-bit: a tiny, allocation-free, deterministic hasher. Not
/// cryptographic — collisions are tolerable (they only cost a spurious
/// memo hit on adversarial input) but astronomically unlikely for the
/// function counts a DSE sweep sees.
#[derive(Debug, Clone)]
pub struct StableHasher {
    state: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Default for StableHasher {
    fn default() -> StableHasher {
        StableHasher::new()
    }
}

impl StableHasher {
    /// Fresh hasher at the FNV offset basis.
    pub fn new() -> StableHasher {
        StableHasher { state: FNV_OFFSET }
    }

    /// Absorb one byte.
    #[inline]
    pub fn write_u8(&mut self, b: u8) {
        self.state ^= u64::from(b);
        self.state = self.state.wrapping_mul(FNV_PRIME);
    }

    /// Absorb a `u64` (little-endian byte order).
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.write_u8(b);
        }
    }

    /// Absorb an `i64` via its two's-complement bits.
    #[inline]
    pub fn write_i64(&mut self, v: i64) {
        self.write_u64(v as u64);
    }

    /// Absorb an `f64` via its IEEE-754 bits (`-0.0 ≠ 0.0`, NaN payloads
    /// distinguish — exactly the identity the memo tables need).
    #[inline]
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Absorb a string, length-prefixed so `("ab","c")` ≠ `("a","bc")`.
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        for b in s.bytes() {
            self.write_u8(b);
        }
    }

    /// Absorb `s` followed by `suffix` exactly as [`write_str`] absorbs
    /// their concatenation, without building it.
    ///
    /// [`write_str`]: StableHasher::write_str
    pub(crate) fn write_str_parts(&mut self, s: &str, suffix: &str) {
        self.write_u64((s.len() + suffix.len()) as u64);
        for b in s.bytes() {
            self.write_u8(b);
        }
        for b in suffix.bytes() {
            self.write_u8(b);
        }
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

pub(crate) fn write_ty(h: &mut StableHasher, ty: ScalarType) {
    match ty {
        ScalarType::UInt(w) => {
            h.write_u8(1);
            h.write_u64(u64::from(w));
        }
        ScalarType::Int(w) => {
            h.write_u8(2);
            h.write_u64(u64::from(w));
        }
        ScalarType::Float(w) => {
            h.write_u8(3);
            h.write_u64(u64::from(w));
        }
    }
}

fn write_operand(h: &mut StableHasher, o: &Operand) {
    match o {
        Operand::Local(n) => {
            h.write_u8(1);
            h.write_str(n);
        }
        Operand::Global(n) => {
            h.write_u8(2);
            h.write_str(n);
        }
        Operand::Imm(v) => {
            h.write_u8(3);
            h.write_i64(*v);
        }
        Operand::ImmF(v) => {
            h.write_u8(4);
            h.write_f64(*v);
        }
    }
}

pub(crate) fn write_pattern(h: &mut StableHasher, p: AccessPattern) {
    match p {
        AccessPattern::Contiguous => h.write_u8(1),
        AccessPattern::Strided { stride } => {
            h.write_u8(2);
            h.write_u64(stride);
        }
    }
}

pub(crate) fn write_form(h: &mut StableHasher, f: MemForm) {
    match f {
        MemForm::A => h.write_u8(1),
        MemForm::B => h.write_u8(2),
        MemForm::C => h.write_u8(3),
        MemForm::Tiled { tiles } => {
            h.write_u8(4);
            h.write_u64(u64::from(tiles));
        }
    }
}

fn write_function(h: &mut StableHasher, f: &IrFunction) {
    h.write_str(&f.name);
    h.write_u8(f.kind as u8);
    h.write_u64(f.params.len() as u64);
    for p in &f.params {
        h.write_str(&p.name);
        write_ty(h, p.ty);
        h.write_u8(p.dir as u8);
    }
    h.write_u64(f.body.len() as u64);
    for s in &f.body {
        match s {
            Stmt::Instr(i) => {
                h.write_u8(1);
                match &i.dest {
                    Dest::Local(n) => {
                        h.write_u8(1);
                        h.write_str(n);
                    }
                    Dest::Global(n) => {
                        h.write_u8(2);
                        h.write_str(n);
                    }
                }
                h.write_str(i.op.mnemonic());
                write_ty(h, i.ty);
                h.write_u64(i.operands.len() as u64);
                for o in &i.operands {
                    write_operand(h, o);
                }
            }
            Stmt::Offset(o) => {
                h.write_u8(2);
                h.write_str(&o.dest);
                write_ty(h, o.ty);
                h.write_str(&o.src);
                h.write_i64(o.offset);
            }
            Stmt::Call(c) => {
                h.write_u8(3);
                h.write_str(&c.callee);
                h.write_u8(c.kind as u8);
                h.write_u64(c.args.len() as u64);
                for a in &c.args {
                    write_operand(h, a);
                }
            }
        }
    }
}

/// Fingerprint of one Compute-IR function: name, kind, ports and body —
/// everything the per-function cost passes read. Spans are excluded.
pub fn fingerprint_function(f: &IrFunction) -> u64 {
    let mut h = StableHasher::new();
    write_function(&mut h, f);
    h.finish()
}

/// Fingerprint of a module's Manage-IR surface: memory objects, stream
/// objects and port declarations — everything the bandwidth pass and the
/// module-level resource terms read.
pub fn fingerprint_streams(m: &IrModule) -> u64 {
    fingerprint_lane_streams(m, 1)
}

/// [`fingerprint_streams`] of `template.expand_lanes(replicas)`, without
/// expanding it: every lane's names stream into the hasher with the lane
/// suffix appended on the fly.
pub(crate) fn fingerprint_lane_streams(template: &IrModule, replicas: u64) -> u64 {
    let lanes = || (0..replicas).map(|l| LaneSuffix::new(l, replicas));
    let mut h = StableHasher::new();
    h.write_u64(template.mems.len() as u64 * replicas);
    for sfx in lanes() {
        for mem in &template.mems {
            h.write_str_parts(&mem.name, sfx.as_str());
            h.write_u8(mem.space.number());
            write_ty(&mut h, mem.elem_ty);
            h.write_u64(mem.len);
        }
    }
    h.write_u64(template.streams.len() as u64 * replicas);
    for sfx in lanes() {
        for s in &template.streams {
            h.write_str_parts(&s.name, sfx.as_str());
            h.write_str_parts(&s.mem, sfx.as_str());
            h.write_u8(s.dir as u8);
            write_pattern(&mut h, s.pattern);
        }
    }
    h.write_u64(template.ports.len() as u64 * replicas);
    for sfx in lanes() {
        for p in &template.ports {
            h.write_str_parts(&p.name, sfx.as_str());
            h.write_u8(p.space.number());
            write_ty(&mut h, p.ty);
            h.write_u8(p.dir as u8);
            write_pattern(&mut h, p.pattern);
            h.write_i64(p.base_offset);
            h.write_str_parts(&p.stream, sfx.as_str());
        }
    }
    h.finish()
}

fn write_meta(h: &mut StableHasher, meta: &ExecMeta) {
    write_meta_parts(h, &meta.ndrange, meta.nki, meta.form, meta.freq_mhz, meta.vect);
}

/// Meta encoding with each field passed explicitly, so the arena's
/// copy-on-write fingerprint can hash a *patched* (form, vect) pair over
/// the base module's other fields without materializing an [`ExecMeta`].
/// Byte-compatible with [`write_meta`] by construction.
pub(crate) fn write_meta_parts(
    h: &mut StableHasher,
    ndrange: &[u64],
    nki: u64,
    form: MemForm,
    freq_mhz: Option<f64>,
    vect: u32,
) {
    h.write_u64(ndrange.len() as u64);
    for &d in ndrange {
        h.write_u64(d);
    }
    h.write_u64(nki);
    write_form(h, form);
    match freq_mhz {
        Some(f) => {
            h.write_u8(1);
            h.write_f64(f);
        }
        None => h.write_u8(0),
    }
    h.write_u64(u64::from(vect));
}

/// Fingerprint of a whole module: name, execution metadata, Manage-IR
/// and every function in declaration order. Two modules with equal
/// fingerprints produce identical cost reports.
pub fn fingerprint_module(m: &IrModule) -> u64 {
    let mut h = StableHasher::new();
    h.write_str(&m.name);
    write_meta(&mut h, &m.meta);
    h.write_u64(fingerprint_streams(m));
    h.write_u64(m.functions.len() as u64);
    for f in &m.functions {
        write_function(&mut h, f);
    }
    h.finish()
}

/// Fingerprint of a configuration subtree: node kinds plus the
/// fingerprints of the functions realising each node, recursively. The
/// schedule pass memoizes per lane subtree under this key.
pub fn fingerprint_subtree(m: &IrModule, node: &ConfigNode) -> u64 {
    fn walk(h: &mut StableHasher, m: &IrModule, node: &ConfigNode) {
        h.write_u8(node.kind as u8);
        h.write_u64(node.n_instrs);
        match m.function(&node.function) {
            Some(f) => h.write_u64(fingerprint_function(f)),
            None => h.write_str(&node.function),
        }
        h.write_u64(node.children.len() as u64);
        for c in &node.children {
            walk(h, m, c);
        }
    }
    let mut h = StableHasher::new();
    walk(&mut h, m, node);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::diag::SrcLoc;
    use crate::function::ParKind;
    use crate::instr::Opcode;

    const T: ScalarType = ScalarType::UInt(18);

    fn sample_module(offset: i64) -> IrModule {
        let mut b = ModuleBuilder::new("fp");
        b.global_input("p", T, 4096);
        b.global_output("q", T, 4096);
        {
            let f = b.function("f0", ParKind::Pipe);
            f.input("p", T);
            f.output("q", T);
            let a = f.offset("p", T, offset);
            let c = f.offset("p", T, -offset);
            let s = f.instr(Opcode::Add, T, vec![a, c]);
            f.write_out("q", s);
        }
        b.main_calls("f0");
        b.ndrange(&[4096]);
        b.finish_unchecked()
    }

    #[test]
    fn deterministic_across_calls() {
        let m = sample_module(3);
        assert_eq!(fingerprint_module(&m), fingerprint_module(&m));
        assert_eq!(
            fingerprint_function(m.function("f0").unwrap()),
            fingerprint_function(m.function("f0").unwrap())
        );
    }

    #[test]
    fn equal_structure_equal_fingerprint() {
        assert_eq!(fingerprint_module(&sample_module(3)), fingerprint_module(&sample_module(3)));
    }

    #[test]
    fn structural_change_changes_fingerprint() {
        assert_ne!(fingerprint_module(&sample_module(3)), fingerprint_module(&sample_module(4)));
        assert_ne!(
            fingerprint_function(sample_module(3).function("f0").unwrap()),
            fingerprint_function(sample_module(4).function("f0").unwrap())
        );
    }

    #[test]
    fn spans_are_transparent() {
        let a = sample_module(3);
        let mut b = sample_module(3);
        for f in &mut b.functions {
            f.span = SrcLoc::at(99, 7);
            for s in &mut f.body {
                if let Stmt::Instr(i) = s {
                    i.span = SrcLoc::at(100, 1);
                }
            }
        }
        assert_eq!(fingerprint_module(&a), fingerprint_module(&b));
        assert_eq!(
            fingerprint_function(a.function("f0").unwrap()),
            fingerprint_function(b.function("f0").unwrap())
        );
    }

    #[test]
    fn streams_fingerprint_tracks_manage_ir_only() {
        let a = sample_module(3);
        let b = sample_module(4); // body differs, streams identical
        assert_eq!(fingerprint_streams(&a), fingerprint_streams(&b));
        let mut c = sample_module(3);
        c.mems[0].len = 8192;
        assert_ne!(fingerprint_streams(&a), fingerprint_streams(&c));
    }

    #[test]
    fn subtree_fingerprint_shared_across_meta_changes() {
        let a = sample_module(3);
        let mut b = sample_module(3);
        b.meta.nki = 777; // meta is not part of the subtree key
        let ta = crate::config_tree::extract(&a).unwrap();
        let tb = crate::config_tree::extract(&b).unwrap();
        assert_eq!(fingerprint_subtree(&a, &ta.root), fingerprint_subtree(&b, &tb.root));
        // But the module fingerprint (used for validation memo) differs.
        assert_ne!(fingerprint_module(&a), fingerprint_module(&b));
    }

    #[test]
    fn float_imm_hashed_by_bits() {
        let mut h1 = StableHasher::new();
        h1.write_f64(0.0);
        let mut h2 = StableHasher::new();
        h2.write_f64(-0.0);
        assert_ne!(h1.finish(), h2.finish());
    }
}
