//! Arena / struct-of-arrays representation of a module, for zero-alloc
//! variant costing.
//!
//! A DSE sweep costs thousands of design variants that share almost all
//! of their IR: the same lane body at every lane count, the same Manage-IR
//! at every vectorization degree. The tree representation ([`IrModule`])
//! pays pointer chasing, `String` comparisons and per-variant clones for
//! that sharing; [`ArenaModule`] flattens one lowered module into dense
//! columns once, precomputes every content hash and geometry scalar the
//! estimator's hot path reads, and then represents each variant as a
//! [`PatchedModule`] — a *copy-on-write delta* of exactly three cells
//! (module name, memory form, DV) over the shared base.
//!
//! Layout:
//!
//! * **Typed indices** — [`FnId`], [`StmtId`], [`InstrId`], [`MemId`],
//!   [`StreamId`], [`PortId`] are dense `u32` newtypes into the columns
//!   below; no pointers, no hashing to follow an edge.
//! * **Interned symbols** — every name is a 4-byte [`Symbol`] into one
//!   shared [`SymbolTable`] (contiguous byte storage, see
//!   [`crate::intern`]).
//! * **SoA columns per statement kind** — instructions, stream offsets
//!   and calls each get their own parallel columns; a function is a
//!   `(start, end)` range over the statement column, operands are ranges
//!   over a packed `(tag, bits)` pool. Source spans live in side tables,
//!   excluded from all fingerprints (span transparency, as in
//!   [`crate::fingerprint`]).
//! * **Precomputed digests & geometry** — per-function fingerprints, the
//!   Manage-IR streams fingerprint, the module's kernel-lane count, NGS,
//!   off-chip port counts/bytes, local-memory sizes, Noff, and a
//!   flattened configuration plan ([`ConfigPlan`]) with the lane
//!   subtree's schedule fingerprint. These are the only values the
//!   estimator's bound/estimate passes need per variant, so costing a
//!   [`PatchedModule`] is pure arithmetic over this struct — the base
//!   tree is read only on a memo *miss*.
//! * **One lane of Manage-IR** — a C1 design's lanes carry identical
//!   memory objects, streams and ports that differ only in a lane-index
//!   name suffix, so [`ArenaModule::build_lanes`] keeps a *template*
//!   holding one lane's Manage-IR plus the replica count KNL
//!   ([`IrModule::expand_lanes`] spells out the module it stands for).
//!   The geometry scalars are scaled by the count, the digests stream
//!   the expanded names, and the bandwidth pass scales per template
//!   stream, so no pass walks a copy per lane. [`ArenaModule::build`]
//!   is the one-replica case: the template is the module.
//!
//! **Bit-identity.** [`ArenaModule::fingerprint_patched`] reproduces
//! [`crate::fingerprint::fingerprint_module`] on the equivalent patched
//! tree byte-for-byte: it replays the exact same FNV-1a write sequence
//! from the columns (locked by unit tests here, the
//! `arena_equivalence` property suite and a fuzz oracle). The template
//! is retained behind [`ArenaModule::template`]: memo-miss passes read
//! function bodies and Manage-IR from it (cells no patch touches), and
//! [`PatchedModule::materialize`] expands a copy for callers that need a
//! tree.

use crate::config_tree::{self, ConfigNode, ConfigTree};
use crate::diag::SrcLoc;
use crate::error::IrError;
use crate::fingerprint::{self, fingerprint_function, fingerprint_subtree, StableHasher};
use crate::function::{ParKind, PortDir, Stmt};
use crate::instr::{Dest, Opcode, Operand};
use crate::intern::{Symbol, SymbolTable};
use crate::module::{IrModule, MemForm};
use crate::types::ScalarType;
use crate::validate;
use std::collections::{HashMap, HashSet};
use std::sync::OnceLock;

macro_rules! dense_id {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub struct $name(pub u32);

        impl $name {
            /// Column index this id addresses.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }
    };
}

dense_id!(
    /// Dense index of a function, in declaration order.
    FnId
);
dense_id!(
    /// Dense index into the flat statement column (all functions).
    StmtId
);
dense_id!(
    /// Dense index into the instruction columns.
    InstrId
);
dense_id!(
    /// Dense index of a memory object.
    MemId
);
dense_id!(
    /// Dense index of a stream object.
    StreamId
);
dense_id!(
    /// Dense index of a port declaration.
    PortId
);

/// Statement discriminant in the flat statement column. Values match the
/// fingerprint encoding tags of [`crate::fingerprint`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StmtKind {
    /// SSA instruction (tag 1).
    Instr = 1,
    /// Stream offset declaration (tag 2).
    Offset = 2,
    /// Call to a child function (tag 3).
    Call = 3,
}

/// One node of the flattened configuration plan, in preorder.
#[derive(Debug, Clone, Copy)]
pub struct PlanNode {
    /// The function realising this node.
    pub func: FnId,
    /// The node's parallelism kind.
    pub kind: ParKind,
    /// Instructions in the node's function (the tree's `n_instrs`).
    pub n_instrs: u64,
    /// Number of direct children (lane glue is priced per child).
    pub n_children: u32,
}

/// The configuration tree of the base module, flattened to a preorder
/// slice plus the precomputed scalars the schedule/bound passes read.
/// [`ArenaModule::config`] returns the extraction error instead when the
/// base has no supported configuration.
#[derive(Debug, Clone)]
pub struct ConfigPlan {
    /// The extracted tree, kept for report assembly and memo-miss
    /// scheduling (patch-independent: variants share it).
    pub tree: ConfigTree,
    /// Preorder flattening of `tree.root`.
    pub nodes: Vec<PlanNode>,
    /// Start of the lane subtree inside `nodes` (first child of a `par`
    /// root, else the root itself).
    pub lane_start: usize,
    /// Length of the lane subtree's preorder slice.
    pub lane_len: usize,
    /// `fingerprint_subtree` of the lane subtree — the schedule memo key.
    pub lane_fp: u64,
    /// The bound pass's initiation interval (lane kind + instruction
    /// count; `seq` serializes, everything else accepts one item/cycle).
    pub lane_ii: f64,
    /// Lane replication factor for per-lane resource figures: the root's
    /// child count when the root is `par`, else 1.
    pub par_lanes: u64,
}

impl ConfigPlan {
    /// The preorder slice of the lane subtree.
    pub fn lane_nodes(&self) -> &[PlanNode] {
        &self.nodes[self.lane_start..self.lane_start + self.lane_len]
    }
}

/// A module flattened into arena columns with every hot-path scalar
/// precomputed. Built once per lowered base design; see the module docs.
#[derive(Debug, Clone)]
pub struct ArenaModule {
    /// The retained lane template, read by memo-miss passes: the full
    /// Compute-IR and metadata, and one lane's Manage-IR.
    template: IrModule,
    /// How many lanes the template's Manage-IR stands for.
    replicas: u64,
    symbols: SymbolTable,

    // ---- function columns ----
    fn_name: Vec<Symbol>,
    fn_kind: Vec<ParKind>,
    fn_params: Vec<(u32, u32)>,
    fn_stmts: Vec<(u32, u32)>,
    fn_fp: Vec<u64>,
    fn_span: Vec<SrcLoc>,
    fn_by_sym: HashMap<Symbol, FnId>,

    // ---- parameter columns ----
    param_name: Vec<Symbol>,
    param_ty: Vec<ScalarType>,
    param_dir: Vec<PortDir>,

    // ---- flat statement column ----
    stmt_kind: Vec<StmtKind>,
    stmt_index: Vec<u32>,
    stmt_span: Vec<SrcLoc>,

    // ---- instruction columns ----
    instr_dest_tag: Vec<u8>,
    instr_dest: Vec<Symbol>,
    instr_op: Vec<Opcode>,
    instr_ty: Vec<ScalarType>,
    instr_args: Vec<(u32, u32)>,

    // ---- offset columns ----
    off_dest: Vec<Symbol>,
    off_ty: Vec<ScalarType>,
    off_src: Vec<Symbol>,
    off_amount: Vec<i64>,

    // ---- call columns ----
    call_callee: Vec<Symbol>,
    call_callee_fn: Vec<Option<FnId>>,
    call_kind: Vec<ParKind>,
    call_args: Vec<(u32, u32)>,

    // ---- packed operand pool ----
    opnd_tag: Vec<u8>,
    opnd_bits: Vec<u64>,

    // ---- precomputed digests ----
    base_fp: u64,
    streams_fp: u64,
    bw_key: u64,

    // ---- precomputed geometry ----
    ngs: u64,
    kernel_lanes: u64,
    offchip_ports: u64,
    offchip_port_bytes: u64,
    local_bytes: u64,
    local_mem_bits: Vec<u64>,
    noff: u64,
    noff_bytes: u64,

    config: Result<ConfigPlan, IrError>,

    /// The expanded module's validation verdict, computed on first
    /// request and shared by every patch of the arena (see
    /// [`validate_base`][ArenaModule::validate_base]).
    base_verdict: OnceLock<Result<(), IrError>>,
}

impl ArenaModule {
    /// Flatten a module: the one-replica case of
    /// [`build_lanes`][ArenaModule::build_lanes], where the template is
    /// the module itself. The tree need not be validated: an invalid tree
    /// still builds, and [`validate_base`][ArenaModule::validate_base]
    /// (which the estimator's arena path calls before first use) reports
    /// its error.
    pub fn build(tree: IrModule) -> ArenaModule {
        ArenaModule::build_lanes(tree, 1)
    }

    /// Flatten a lane template standing for `template.expand_lanes(replicas)`
    /// ([`IrModule::expand_lanes`]) without expanding it: the Manage-IR
    /// stays one lane long, and every digest, geometry scalar and pass
    /// over the arena equals what a [`build`][ArenaModule::build] of the
    /// expanded module gives. A `replicas` of 0 counts as 1.
    pub fn build_lanes(template: IrModule, replicas: u64) -> ArenaModule {
        let _sp = tytra_trace::span("ir.arena_build").with("module", template.name.as_str());
        let n_fns = template.functions.len();
        // A generous estimate of the distinct names, so interning seldom
        // regrows (and rehashes) the symbol index.
        let n_names =
            template.functions.iter().map(|f| 1 + f.params.len() + 2 * f.body.len()).sum::<usize>();
        let mut symbols = SymbolTable::with_capacity(n_names);

        let mut a = ArenaModule {
            fn_name: Vec::with_capacity(n_fns),
            fn_kind: Vec::with_capacity(n_fns),
            fn_params: Vec::with_capacity(n_fns),
            fn_stmts: Vec::with_capacity(n_fns),
            fn_fp: Vec::with_capacity(n_fns),
            fn_span: Vec::with_capacity(n_fns),
            fn_by_sym: HashMap::new(),
            param_name: Vec::new(),
            param_ty: Vec::new(),
            param_dir: Vec::new(),
            stmt_kind: Vec::new(),
            stmt_index: Vec::new(),
            stmt_span: Vec::new(),
            instr_dest_tag: Vec::new(),
            instr_dest: Vec::new(),
            instr_op: Vec::new(),
            instr_ty: Vec::new(),
            instr_args: Vec::new(),
            off_dest: Vec::new(),
            off_ty: Vec::new(),
            off_src: Vec::new(),
            off_amount: Vec::new(),
            call_callee: Vec::new(),
            call_callee_fn: Vec::new(),
            call_kind: Vec::new(),
            call_args: Vec::new(),
            opnd_tag: Vec::new(),
            opnd_bits: Vec::new(),
            base_fp: 0,
            streams_fp: 0,
            bw_key: 0,
            ngs: 0,
            kernel_lanes: 0,
            offchip_ports: 0,
            offchip_port_bytes: 0,
            local_bytes: 0,
            local_mem_bits: Vec::new(),
            noff: 0,
            noff_bytes: 0,
            // Placeholder, replaced once the columns below exist.
            config: Err(IrError::UnsupportedConfig(String::new())),
            base_verdict: OnceLock::new(),
            symbols,
            template,
            replicas: replicas.max(1),
        };
        symbols = std::mem::take(&mut a.symbols);

        // Compute-IR columns.
        for (idx, f) in a.template.functions.iter().enumerate() {
            let name = symbols.intern(&f.name);
            a.fn_by_sym.entry(name).or_insert(FnId(idx as u32));
            a.fn_name.push(name);
            a.fn_kind.push(f.kind);
            a.fn_span.push(f.span);
            let p0 = a.param_name.len() as u32;
            for p in &f.params {
                a.param_name.push(symbols.intern(&p.name));
                a.param_ty.push(p.ty);
                a.param_dir.push(p.dir);
            }
            a.fn_params.push((p0, a.param_name.len() as u32));
            let s0 = a.stmt_kind.len() as u32;
            for s in &f.body {
                match s {
                    Stmt::Instr(i) => {
                        a.stmt_kind.push(StmtKind::Instr);
                        a.stmt_index.push(a.instr_op.len() as u32);
                        a.stmt_span.push(i.span);
                        let (tag, dest) = match &i.dest {
                            Dest::Local(n) => (1u8, symbols.intern(n)),
                            Dest::Global(n) => (2u8, symbols.intern(n)),
                        };
                        a.instr_dest_tag.push(tag);
                        a.instr_dest.push(dest);
                        a.instr_op.push(i.op);
                        a.instr_ty.push(i.ty);
                        let o0 = a.opnd_tag.len() as u32;
                        for o in &i.operands {
                            push_operand(&mut symbols, &mut a.opnd_tag, &mut a.opnd_bits, o);
                        }
                        a.instr_args.push((o0, a.opnd_tag.len() as u32));
                    }
                    Stmt::Offset(o) => {
                        a.stmt_kind.push(StmtKind::Offset);
                        a.stmt_index.push(a.off_dest.len() as u32);
                        a.stmt_span.push(o.span);
                        a.off_dest.push(symbols.intern(&o.dest));
                        a.off_ty.push(o.ty);
                        a.off_src.push(symbols.intern(&o.src));
                        a.off_amount.push(o.offset);
                    }
                    Stmt::Call(c) => {
                        a.stmt_kind.push(StmtKind::Call);
                        a.stmt_index.push(a.call_callee.len() as u32);
                        a.stmt_span.push(c.span);
                        a.call_callee.push(symbols.intern(&c.callee));
                        a.call_kind.push(c.kind);
                        let o0 = a.opnd_tag.len() as u32;
                        for arg in &c.args {
                            push_operand(&mut symbols, &mut a.opnd_tag, &mut a.opnd_bits, arg);
                        }
                        a.call_args.push((o0, a.opnd_tag.len() as u32));
                    }
                }
            }
            a.fn_stmts.push((s0, a.stmt_kind.len() as u32));
            a.fn_fp.push(fingerprint_function(f));
        }
        // Resolve call targets to dense ids (first declaration wins, as
        // in `IrModule::function`).
        a.call_callee_fn = a.call_callee.iter().map(|sym| a.fn_by_sym.get(sym).copied()).collect();

        // Manage-IR geometry: one lane's terms, times the lanes. Every lane
        // resolves its links as the template does once the names are
        // unique, which `validate_base` establishes before any pass reads
        // these; `u64` scaling is exact.
        for mem in &a.template.mems {
            if !mem.space.is_offchip() {
                a.local_bytes += mem.bytes();
                a.local_mem_bits.push(mem.bits());
            }
        }
        let links = a.template.manage_links();
        for (i, p) in a.template.ports.iter().enumerate() {
            if links.port_offchip(i) {
                a.offchip_ports += 1;
                a.offchip_port_bytes += u64::from(p.ty.bytes());
            }
        }
        a.local_bytes *= a.replicas;
        a.offchip_ports *= a.replicas;
        a.offchip_port_bytes *= a.replicas;

        a.ngs = a.template.meta.global_size();
        a.kernel_lanes = a.template.kernel_lanes();
        for f in a.template.reachable_functions() {
            for o in f.offsets() {
                if o.offset > 0 {
                    let lookahead = o.offset as u64;
                    if lookahead > a.noff {
                        a.noff = lookahead;
                        a.noff_bytes = lookahead * u64::from(o.ty.bytes());
                    }
                }
            }
        }

        a.streams_fp = fingerprint::fingerprint_lane_streams(&a.template, a.replicas);
        a.bw_key = {
            let mut h = StableHasher::new();
            h.write_u64(a.streams_fp);
            h.write_u64(a.kernel_lanes);
            h.finish()
        };

        a.symbols = symbols;
        // The identity patch replays `fingerprint_module` from the columns
        // and the streams digest above, without hashing the tree again.
        a.base_fp =
            a.fingerprint_patched(&a.template.name, a.template.meta.form, a.template.meta.vect);
        a.config = config_tree::extract(&a.template).map(|t| build_plan(&a, t));
        a
    }

    // ---- façade & columns ----

    /// The retained lane template: the base module's Compute-IR and
    /// metadata, and one lane's Manage-IR (all of it when
    /// [`replicas`][ArenaModule::replicas] is 1).
    pub fn template(&self) -> &IrModule {
        &self.template
    }

    /// How many lanes the template's Manage-IR stands for: KNL for a
    /// lane-template base, 1 for a plain module.
    pub fn replicas(&self) -> u64 {
        self.replicas
    }

    /// The shared symbol table.
    pub fn symbols(&self) -> &SymbolTable {
        &self.symbols
    }

    /// Resolve an interned symbol.
    #[inline]
    pub fn resolve(&self, sym: Symbol) -> &str {
        self.symbols.resolve(sym)
    }

    /// A function's interned name.
    pub fn fn_name(&self, f: FnId) -> Symbol {
        self.fn_name[f.index()]
    }

    /// A function's parallelism kind.
    pub fn fn_kind(&self, f: FnId) -> ParKind {
        self.fn_kind[f.index()]
    }

    /// A function's precomputed structural fingerprint — equal to
    /// [`fingerprint_function`] on the tree function.
    pub fn fn_fp(&self, f: FnId) -> u64 {
        self.fn_fp[f.index()]
    }

    /// Dense id of the function a name resolves to (first declaration
    /// wins, as in [`IrModule::function`]).
    pub fn fn_by_name(&self, name: &str) -> Option<FnId> {
        self.fn_by_sym.get(&self.symbols.lookup(name)?).copied()
    }

    /// Callee ids of every `call` statement in a function, in body
    /// order (`None` for unresolved callees).
    pub fn callees(&self, f: FnId) -> impl Iterator<Item = Option<FnId>> + '_ {
        let (s0, s1) = self.fn_stmts[f.index()];
        (s0 as usize..s1 as usize).filter_map(move |s| match self.stmt_kind[s] {
            StmtKind::Call => Some(self.call_callee_fn[self.stmt_index[s] as usize]),
            _ => None,
        })
    }

    /// The flattened configuration plan, or the error
    /// [`config_tree::extract`] gave on the base tree.
    pub fn config(&self) -> Result<&ConfigPlan, IrError> {
        self.config.as_ref().map_err(Clone::clone)
    }

    // ---- precomputed digests & geometry ----

    /// Validate the base module, once per arena: the first call computes
    /// the verdict of [`validate::validate`] on the expanded module and
    /// caches it, later calls (from any thread, any estimator session)
    /// return the cached copy. The validator never reads the three
    /// patched cells — only `meta.ndrange`/`nki`/`freq_mhz` and the module
    /// name for its trace span — so the base verdict is every
    /// [`PatchedModule`]'s verdict.
    ///
    /// A lane template is validated as it stands, one lane long. That
    /// verdict is the expanded module's whenever it passes and no two
    /// lanes can generate the same name: the Compute-IR and metadata
    /// checks never read the Manage-IR, and with unique names every lane
    /// resolves its links and agrees on directions, types and patterns
    /// exactly as the template does. Otherwise the expanded module is
    /// validated, so the verdict and the first error's text are always
    /// those of validating `materialize()`.
    pub fn validate_base(&self) -> Result<(), IrError> {
        self.base_verdict
            .get_or_init(|| {
                let verdict = validate::validate(&self.template);
                if self.replicas == 1
                    || (verdict.is_ok() && !lane_names_may_collide(&self.template))
                {
                    return verdict;
                }
                validate::validate(&self.identity().materialize())
            })
            .clone()
    }

    /// Whether [`validate_base`][ArenaModule::validate_base] has already
    /// run, so a further call only reads the cached verdict.
    pub fn base_validated(&self) -> bool {
        self.base_verdict.get().is_some()
    }

    /// [`fingerprint_module`][fingerprint::fingerprint_module] of the
    /// expanded base module.
    pub fn base_fp(&self) -> u64 {
        self.base_fp
    }

    /// [`fingerprint_streams`][fingerprint::fingerprint_streams] of the
    /// expanded base module (patch-independent).
    pub fn streams_fp(&self) -> u64 {
        self.streams_fp
    }

    /// The bandwidth memo key: `H(streams_fp, kernel_lanes)` — exactly
    /// the session's bandwidth-pass key.
    pub fn bw_key(&self) -> u64 {
        self.bw_key
    }

    /// `NGS`: NDRange product (≥ 1).
    pub fn ngs(&self) -> u64 {
        self.ngs
    }

    /// `NKI` of the base design (patch-independent).
    pub fn nki(&self) -> u64 {
        self.template.meta.nki
    }

    /// [`IrModule::kernel_lanes`] of the base module.
    pub fn kernel_lanes(&self) -> u64 {
        self.kernel_lanes
    }

    /// Off-chip port count (the `NWPT` numerator and `n_streams`).
    pub fn offchip_ports(&self) -> u64 {
        self.offchip_ports
    }

    /// Summed element widths of the off-chip ports, in bytes.
    pub fn offchip_port_bytes(&self) -> u64 {
        self.offchip_port_bytes
    }

    /// Total bytes across on-chip (`local`) memory objects.
    pub fn local_bytes(&self) -> u64 {
        self.local_bytes
    }

    /// Bit sizes of one lane's on-chip memory objects, in declaration
    /// order (the module-level BRAM terms of the resource pass); each
    /// stands for [`replicas`][ArenaModule::replicas] objects.
    pub fn local_mem_bits(&self) -> &[u64] {
        &self.local_mem_bits
    }

    /// `Noff`: largest forward stream-offset look-ahead, in elements.
    pub fn noff(&self) -> u64 {
        self.noff
    }

    /// `Noff` in bytes at the offset stream's element width.
    pub fn noff_bytes(&self) -> u64 {
        self.noff_bytes
    }

    // ---- copy-on-write variants ----

    /// A copy-on-write variant of this base: `name`, `form` and `vect`
    /// are patched, everything else is shared.
    pub fn patched<'a>(&'a self, name: &'a str, form: MemForm, vect: u32) -> PatchedModule<'a> {
        PatchedModule { arena: self, name, form, vect }
    }

    /// The identity patch: the base module itself as a [`PatchedModule`].
    pub fn identity(&self) -> PatchedModule<'_> {
        self.patched(&self.template.name, self.template.meta.form, self.template.meta.vect)
    }

    /// [`fingerprint_module`][fingerprint::fingerprint_module] of the
    /// patched module, computed from the columns without materializing a
    /// tree. Byte-identical to hashing the patched tree.
    pub fn fingerprint_patched(&self, name: &str, form: MemForm, vect: u32) -> u64 {
        let mut h = StableHasher::new();
        h.write_str(name);
        fingerprint::write_meta_parts(
            &mut h,
            &self.template.meta.ndrange,
            self.template.meta.nki,
            form,
            self.template.meta.freq_mhz,
            vect,
        );
        h.write_u64(self.streams_fp);
        h.write_u64(self.fn_name.len() as u64);
        for i in 0..self.fn_name.len() {
            self.write_function_into(&mut h, FnId(i as u32));
        }
        h.finish()
    }

    /// Recompute one function's fingerprint from the columns (the
    /// precomputed [`fn_fp`][ArenaModule::fn_fp] is this value; exposed
    /// for the equivalence tests).
    pub fn fingerprint_function_arena(&self, f: FnId) -> u64 {
        let mut h = StableHasher::new();
        self.write_function_into(&mut h, f);
        h.finish()
    }

    /// Replay the exact `write_function` byte sequence of
    /// [`crate::fingerprint`] from the SoA columns.
    fn write_function_into(&self, h: &mut StableHasher, f: FnId) {
        let i = f.index();
        h.write_str(self.resolve(self.fn_name[i]));
        h.write_u8(self.fn_kind[i] as u8);
        let (p0, p1) = self.fn_params[i];
        h.write_u64(u64::from(p1 - p0));
        for p in p0 as usize..p1 as usize {
            h.write_str(self.resolve(self.param_name[p]));
            fingerprint::write_ty(h, self.param_ty[p]);
            h.write_u8(self.param_dir[p] as u8);
        }
        let (s0, s1) = self.fn_stmts[i];
        h.write_u64(u64::from(s1 - s0));
        for s in s0 as usize..s1 as usize {
            let k = self.stmt_index[s] as usize;
            match self.stmt_kind[s] {
                StmtKind::Instr => {
                    h.write_u8(1);
                    h.write_u8(self.instr_dest_tag[k]);
                    h.write_str(self.resolve(self.instr_dest[k]));
                    h.write_str(self.instr_op[k].mnemonic());
                    fingerprint::write_ty(h, self.instr_ty[k]);
                    let (a0, a1) = self.instr_args[k];
                    h.write_u64(u64::from(a1 - a0));
                    for a in a0 as usize..a1 as usize {
                        self.write_operand_into(h, a);
                    }
                }
                StmtKind::Offset => {
                    h.write_u8(2);
                    h.write_str(self.resolve(self.off_dest[k]));
                    fingerprint::write_ty(h, self.off_ty[k]);
                    h.write_str(self.resolve(self.off_src[k]));
                    h.write_i64(self.off_amount[k]);
                }
                StmtKind::Call => {
                    h.write_u8(3);
                    h.write_str(self.resolve(self.call_callee[k]));
                    h.write_u8(self.call_kind[k] as u8);
                    let (a0, a1) = self.call_args[k];
                    h.write_u64(u64::from(a1 - a0));
                    for a in a0 as usize..a1 as usize {
                        self.write_operand_into(h, a);
                    }
                }
            }
        }
    }

    fn write_operand_into(&self, h: &mut StableHasher, idx: usize) {
        let tag = self.opnd_tag[idx];
        let bits = self.opnd_bits[idx];
        h.write_u8(tag);
        match tag {
            // Local / Global: bits is a symbol index.
            1 | 2 => h.write_str(self.symbols.resolve(Symbol::from_raw(bits as u32))),
            // Imm: bits is the i64's two's complement.
            3 => h.write_u64(bits),
            // ImmF: bits is already `f64::to_bits`.
            _ => h.write_u64(bits),
        }
    }
}

/// Whether two lanes of a template can generate the same Manage-IR name.
/// Lane suffixes are decimal, so `a` + `i` can equal `b` + `j` for
/// distinct template names only when one of them is the other followed
/// by digits: inputs `p` and `p1` both give `mem_p10` at 11 lanes.
/// Checked per namespace, as the validator's duplicate checks are.
fn lane_names_may_collide(m: &IrModule) -> bool {
    fn any<'a>(names: impl Iterator<Item = &'a str> + Clone) -> bool {
        let set: HashSet<&str> = names.clone().collect();
        names.into_iter().any(|n| {
            let stem = n.trim_end_matches(|c: char| c.is_ascii_digit());
            (stem.len()..n.len()).any(|k| set.contains(&n[..k]))
        })
    }
    any(m.mems.iter().map(|x| x.name.as_str()))
        || any(m.streams.iter().map(|x| x.name.as_str()))
        || any(m.ports.iter().map(|x| x.name.as_str()))
}

fn push_operand(symbols: &mut SymbolTable, tags: &mut Vec<u8>, bits: &mut Vec<u64>, o: &Operand) {
    match o {
        Operand::Local(n) => {
            tags.push(1);
            bits.push(u64::from(symbols.intern(n).raw()));
        }
        Operand::Global(n) => {
            tags.push(2);
            bits.push(u64::from(symbols.intern(n).raw()));
        }
        Operand::Imm(v) => {
            tags.push(3);
            bits.push(*v as u64);
        }
        Operand::ImmF(v) => {
            tags.push(4);
            bits.push(v.to_bits());
        }
    }
}

fn build_plan(a: &ArenaModule, tree: ConfigTree) -> ConfigPlan {
    fn flatten(a: &ArenaModule, node: &ConfigNode, out: &mut Vec<PlanNode>) {
        // Plan construction only succeeds when every node's function
        // resolves; `config_tree::extract` already guaranteed that.
        let func = a.fn_by_name(&node.function).expect("config node function exists");
        out.push(PlanNode {
            func,
            kind: node.kind,
            n_instrs: node.n_instrs,
            n_children: node.children.len() as u32,
        });
        for c in &node.children {
            flatten(a, c, out);
        }
    }
    let mut nodes = Vec::new();
    flatten(a, &tree.root, &mut nodes);

    // Lane subtree: first child of a `par` root, else the root (the
    // `lane_subtree` rule of the schedule pass).
    let (lane, lane_start) = if tree.root.kind == ParKind::Par && !tree.root.children.is_empty() {
        (&tree.root.children[0], 1)
    } else {
        (&tree.root, 0)
    };
    let lane_len = {
        fn count(n: &ConfigNode) -> usize {
            1 + n.children.iter().map(count).sum::<usize>()
        }
        count(lane)
    };
    let lane_fp = fingerprint_subtree(&a.template, lane);
    let lane_ii = match lane.kind {
        ParKind::Seq => lane.subtree_instrs().max(1) as f64,
        _ => 1.0,
    };
    let par_lanes =
        if tree.root.kind == ParKind::Par { tree.root.children.len() as u64 } else { 1 };
    ConfigPlan { nodes, lane_start, lane_len, lane_fp, lane_ii, par_lanes, tree }
}

/// A design variant as a copy-on-write delta over a shared
/// [`ArenaModule`]: exactly three patched cells (module name, memory
/// form, DV). Costing a `PatchedModule` through the session's
/// `estimate_design`/`bound_design` touches only the arena's precomputed
/// columns in the steady state; [`materialize`][PatchedModule::materialize]
/// produces the equivalent tree.
#[derive(Debug, Clone, Copy)]
pub struct PatchedModule<'a> {
    /// The shared base.
    pub arena: &'a ArenaModule,
    /// Patched module name.
    pub name: &'a str,
    /// Patched memory-execution form.
    pub form: MemForm,
    /// Patched degree of vectorization.
    pub vect: u32,
}

impl PatchedModule<'_> {
    /// [`fingerprint_module`][fingerprint::fingerprint_module] of this
    /// variant, allocation-free.
    pub fn fingerprint(&self) -> u64 {
        self.arena.fingerprint_patched(self.name, self.form, self.vect)
    }

    /// Expand a copy of the template and apply the patch — the module
    /// this variant stands for. Equal (field-for-field) to lowering the
    /// variant from scratch.
    pub fn materialize(&self) -> IrModule {
        let mut m = self.arena.template.clone().expand_lanes(self.arena.replicas);
        m.name.clear();
        m.name.push_str(self.name);
        m.meta.form = self.form;
        m.meta.vect = self.vect;
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::fingerprint::{fingerprint_module, fingerprint_streams};
    use crate::module::MemForm;
    use crate::types::ScalarType;
    use crate::Opcode;

    const T: ScalarType = ScalarType::UInt(18);
    const F: ScalarType = ScalarType::Float(32);

    fn stencil(lanes: usize, form: MemForm) -> IrModule {
        let n = 4096u64;
        let mut b = ModuleBuilder::new(format!("st_l{lanes}"));
        if lanes > 1 {
            for l in 0..lanes {
                b.global_input(&format!("p{l}"), T, n / lanes as u64);
                b.global_output(&format!("q{l}"), T, n / lanes as u64);
            }
        } else {
            b.global_input("p", T, n);
            b.global_output("q", T, n);
        }
        {
            let f = b.function("f0", ParKind::Pipe);
            f.input("p", T);
            f.output("q", T);
            let a = f.offset("p", T, 30);
            let c = f.offset("p", T, -30);
            let s = f.instr(Opcode::Add, T, vec![a, c]);
            let w = f.instr(Opcode::Mul, T, vec![s, f.imm(3)]);
            f.write_out("q", w);
        }
        if lanes > 1 {
            let f = b.function("f1", ParKind::Par);
            for _ in 0..lanes {
                f.call("f0", vec![], ParKind::Pipe);
            }
            b.main_calls("f1");
        } else {
            b.main_calls("f0");
        }
        b.ndrange(&[n]).nki(10).form(form);
        b.finish().expect("stencil is valid")
    }

    fn float_module() -> IrModule {
        let mut b = ModuleBuilder::new("flt");
        b.global_input("x", F, 256);
        b.global_output("y", F, 256);
        {
            let f = b.function("f0", ParKind::Pipe);
            f.input("x", F);
            f.output("y", F);
            let x = f.arg("x");
            let v = f.instr(Opcode::Mul, F, vec![x, Operand::ImmF(2.5)]);
            f.write_out("y", v);
        }
        b.main_calls("f0");
        b.ndrange(&[256]);
        b.finish().expect("float module is valid")
    }

    #[test]
    fn identity_fingerprint_matches_tree() {
        for m in [stencil(1, MemForm::B), stencil(4, MemForm::A), float_module()] {
            let tree_fp = fingerprint_module(&m);
            let a = ArenaModule::build(m);
            assert_eq!(a.identity().fingerprint(), tree_fp);
        }
    }

    #[test]
    fn per_function_fingerprints_match_tree() {
        let m = stencil(4, MemForm::B);
        let fps: Vec<u64> = m.functions.iter().map(fingerprint_function).collect();
        let a = ArenaModule::build(m);
        for (i, fp) in fps.iter().enumerate() {
            let id = FnId(i as u32);
            assert_eq!(a.fn_fp(id), *fp);
            assert_eq!(a.fingerprint_function_arena(id), *fp);
        }
        assert_eq!(a.streams_fp(), fingerprint_streams(a.template()));
    }

    #[test]
    fn patched_fingerprint_matches_materialized_tree() {
        let a = ArenaModule::build(stencil(4, MemForm::B));
        for (name, form, vect) in [
            ("st_l4", MemForm::B, 1u32),
            ("st_l4_v2", MemForm::A, 2),
            ("other", MemForm::C, 4),
            ("t", MemForm::Tiled { tiles: 8 }, 1),
            ("", MemForm::B, 1),
        ] {
            let d = a.patched(name, form, vect);
            assert_eq!(
                d.fingerprint(),
                fingerprint_module(&d.materialize()),
                "patch ({name:?}, {form:?}, {vect})"
            );
        }
    }

    #[test]
    fn materialize_patches_exactly_three_cells() {
        let a = ArenaModule::build(stencil(2, MemForm::B));
        let m = a.patched("renamed", MemForm::C, 8).materialize();
        assert_eq!(m.name, "renamed");
        assert_eq!(m.meta.form, MemForm::C);
        assert_eq!(m.meta.vect, 8);
        let mut back = m;
        back.name = a.template().name.clone();
        back.meta.form = a.template().meta.form;
        back.meta.vect = a.template().meta.vect;
        assert_eq!(fingerprint_module(&back), a.base_fp());
    }

    #[test]
    fn plan_matches_config_tree() {
        for m in [stencil(1, MemForm::B), stencil(4, MemForm::B)] {
            let tree = config_tree::extract(&m).unwrap();
            let lanes = m.kernel_lanes();
            let a = ArenaModule::build(m);
            let plan = a.config().expect("plan extracts");
            assert_eq!(plan.tree.lanes, lanes);
            assert_eq!(plan.nodes.len(), {
                fn count(n: &ConfigNode) -> usize {
                    1 + n.children.iter().map(count).sum::<usize>()
                }
                count(&tree.root)
            });
            // Lane subtree fingerprint equals the schedule memo key the
            // tree path computes.
            let lane = if tree.root.kind == ParKind::Par {
                tree.root.children.first().unwrap_or(&tree.root)
            } else {
                &tree.root
            };
            assert_eq!(plan.lane_fp, fingerprint_subtree(a.template(), lane));
            assert_eq!(plan.lane_nodes().len(), plan.lane_len);
            assert_eq!(plan.lane_nodes()[0].kind, lane.kind);
        }
    }

    #[test]
    fn geometry_scalars_match_tree_walks() {
        let m = stencil(4, MemForm::B);
        let lanes = m.kernel_lanes();
        let ngs = m.meta.global_size();
        let a = ArenaModule::build(m);
        assert_eq!(a.kernel_lanes(), lanes);
        assert_eq!(a.ngs(), ngs);
        assert_eq!(a.offchip_ports(), 8, "4 lanes x (in + out)");
        assert_eq!(a.offchip_port_bytes(), 8 * 3, "ui18 rounds to 3 bytes");
        assert_eq!(a.noff(), 30);
        assert_eq!(a.noff_bytes(), 90);
        assert_eq!(a.local_bytes(), 0);
        assert!(a.local_mem_bits().is_empty());
    }

    #[test]
    fn bw_key_matches_session_formula() {
        let a = ArenaModule::build(stencil(2, MemForm::B));
        let mut h = StableHasher::new();
        h.write_u64(fingerprint_streams(a.template()));
        h.write_u64(a.template().kernel_lanes());
        assert_eq!(a.bw_key(), h.finish());
    }

    /// One lane of `stencil(lanes, _)`: its Compute-IR, and unsuffixed
    /// `p`/`q` arrays of one lane's length (on chip when `local`).
    fn stencil_template(lanes: usize, local: bool) -> IrModule {
        let n = 4096 / lanes as u64;
        let mut b = ModuleBuilder::new("one lane");
        if local {
            b.local_array("p", T, n, crate::StreamDir::Read);
            b.local_array("q", T, n, crate::StreamDir::Write);
        } else {
            b.global_input("p", T, n);
            b.global_output("q", T, n);
        }
        let lane = b.finish_unchecked();
        let mut m = stencil(lanes, MemForm::B);
        (m.mems, m.streams, m.ports) = (lane.mems, lane.streams, lane.ports);
        m
    }

    #[test]
    fn lane_template_expands_to_the_per_lane_module() {
        for lanes in [2, 4, 11] {
            let t = stencil_template(lanes, false);
            assert_eq!(t.clone().expand_lanes(lanes as u64), stencil(lanes, MemForm::B));
        }
        let one = stencil(1, MemForm::B);
        assert_eq!(one.clone().expand_lanes(1), one, "one replica is the module itself");
    }

    #[test]
    fn lane_template_columns_hold_one_lane_and_match_the_expanded_build() {
        for local in [false, true] {
            for lanes in [1u64, 2, 4, 11, 64] {
                let t = stencil_template(lanes as usize, local);
                let expanded = ArenaModule::build(t.clone().expand_lanes(lanes));
                let a = ArenaModule::build_lanes(t, lanes);
                let tag = format!("{lanes} lanes, local {local}");
                // One lane's Manage-IR, however many lanes it stands for…
                let m = a.template();
                assert_eq!((m.mems.len(), m.streams.len(), m.ports.len()), (2, 2, 2), "{tag}");
                assert_eq!(a.local_mem_bits().len(), if local { 2 } else { 0 }, "{tag}");
                // …while materializing still expands every lane.
                let full = a.identity().materialize();
                let n = 2 * lanes as usize;
                assert_eq!((full.mems.len(), full.streams.len(), full.ports.len()), (n, n, n));
                assert_eq!(full, expanded.identity().materialize(), "{tag}");
                // Digests and geometry equal those of the expanded build.
                assert_eq!(a.base_fp(), fingerprint_module(&full), "{tag}");
                assert_eq!(a.base_fp(), expanded.base_fp(), "{tag}");
                assert_eq!(a.streams_fp(), fingerprint_streams(&full), "{tag}");
                assert_eq!(a.bw_key(), expanded.bw_key(), "{tag}");
                assert_eq!(a.kernel_lanes(), expanded.kernel_lanes(), "{tag}");
                assert_eq!(a.offchip_ports(), expanded.offchip_ports(), "{tag}");
                assert_eq!(a.offchip_port_bytes(), expanded.offchip_port_bytes(), "{tag}");
                assert_eq!(a.local_bytes(), expanded.local_bytes(), "{tag}");
                assert_eq!(a.noff_bytes(), expanded.noff_bytes(), "{tag}");
                let d = a.patched("v", MemForm::Tiled { tiles: 4 }, 2);
                assert_eq!(d.fingerprint(), fingerprint_module(&d.materialize()), "{tag}");
                assert_eq!(a.validate_base(), Ok(()), "{tag}");
            }
        }
    }

    #[test]
    fn lane_template_validation_falls_back_when_names_can_collide() {
        // Inputs `p` and `p1`: lane 10 of `p` and lane 0 of `p1` are both
        // `mem_p10`, so the 11-lane expansion is invalid though the
        // template and the 2-lane expansion are not.
        let mut t = stencil_template(11, false);
        let mut b = ModuleBuilder::new("extra");
        b.global_input("p1", T, 4096 / 11);
        let extra = b.finish_unchecked();
        t.mems.extend(extra.mems);
        t.streams.extend(extra.streams);
        t.ports.extend(extra.ports);
        assert!(lane_names_may_collide(&t));
        assert_eq!(validate::validate(&t), Ok(()));
        let a = ArenaModule::build_lanes(t.clone(), 11);
        let want = validate::validate(&a.identity().materialize());
        assert_eq!(a.validate_base(), want);
        assert!(format!("{}", want.unwrap_err()).contains("duplicate memory object name `mem_p10`"));
        assert_eq!(ArenaModule::build_lanes(t, 2).validate_base(), Ok(()));

        // An invalid template reports the expanded module's first error.
        let mut bad = stencil_template(4, false);
        bad.streams[0].mem = "mem_nope".into();
        assert!(!lane_names_may_collide(&bad));
        let a = ArenaModule::build_lanes(bad, 4);
        let want = validate::validate(&a.identity().materialize());
        assert!(want.is_err());
        assert_eq!(a.validate_base(), want);
    }

    #[test]
    fn only_digit_extensions_of_a_name_can_collide() {
        let names = |ns: &[&str]| {
            let mut b = ModuleBuilder::new("n");
            for n in ns {
                b.global_input(n, T, 8);
            }
            lane_names_may_collide(&b.finish_unchecked())
        };
        assert!(names(&["p", "p1"]));
        assert!(names(&["p12", "x", "p"]));
        assert!(!names(&["p", "q", "p_1", "p1x"]));
        assert!(!names(&["p1", "p2"]));
    }

    #[test]
    fn callees_resolve_to_dense_ids() {
        let a = ArenaModule::build(stencil(4, MemForm::B));
        let f1 = a.fn_by_name("f1").unwrap();
        let f0 = a.fn_by_name("f0").unwrap();
        let callees: Vec<_> = a.callees(f1).collect();
        assert_eq!(callees, vec![Some(f0); 4]);
        let main = a.fn_by_name("main").unwrap();
        assert_eq!(a.callees(main).collect::<Vec<_>>(), vec![Some(f1)]);
        assert_eq!(a.fn_by_name("nope"), None);
    }
}
