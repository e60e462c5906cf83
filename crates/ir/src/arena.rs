//! A design base for variant costing: one lane template, plus every
//! scalar and digest the estimator's passes read, computed once.
//!
//! A DSE sweep costs thousands of design variants that share almost all
//! of their IR: the same lane body at every lane count, the same Manage-IR
//! at every vectorization degree. [`ArenaModule`] is built once per base
//! and represents each variant as a [`PatchedModule`] — a *copy-on-write
//! delta* of exactly four cells (module name, memory form, DV and lane
//! count) over it. The arena holds:
//!
//! * **The template** ([`ArenaModule::template`]), the one copy of the
//!   IR. A memo miss in the schedule, resource, clock or bandwidth pass
//!   reads function bodies and Manage-IR from it (cells no patch
//!   touches), and [`PatchedModule::materialize`] expands a copy for
//!   callers that need a tree. Every digest hashes this tree through
//!   [`crate::fingerprint`], so a module's fingerprint has one encoding;
//!   a parsed module is its own template, and its
//!   [`fingerprint_module`][crate::fingerprint_module] is the identity
//!   patch's.
//! * **Precomputed digests & geometry** — per-function fingerprints
//!   indexed by [`FnId`], the template's Manage-IR streams fingerprint
//!   and kernel-lane count, NGS, one lane's off-chip port counts/bytes and
//!   on-chip memories, Noff, and a flattened configuration plan
//!   ([`ConfigPlan`]) with the lane subtree's schedule fingerprint. These
//!   are the only values the estimator's bound/estimate passes need per
//!   variant, so on memo hits costing a [`PatchedModule`] is arithmetic
//!   over this struct.
//! * **Verdict caches** — the template's validation verdict, and those of
//!   the lane counts it does not cover ([`PatchedModule::validate`]).
//!
//! **The lane count is a patch cell.** A lane template holds one lane
//! ([`IrModule::expand_lanes`]): Manage-IR arrays as long as the whole
//! NDRange and a `par` dispatcher, its [lane root][IrModule::lane_root],
//! with one lane's call. A patch at KNL lanes stands for the template
//! expanded to KNL lanes and derives the three things the count changes:
//! the Manage-IR replica count, the per-lane array length `len / KNL`,
//! and the dispatcher's call count. Its geometry scalars, plan scaling
//! and memo keys are O(1) arithmetic on the precomputed values. A parsed
//! module is the one-lane case: the template is the module.

use crate::config_tree::{self, ConfigNode, ConfigTree};
use crate::error::IrError;
use crate::fingerprint::{fingerprint_function, fingerprint_streams, StableHasher};
use crate::function::ParKind;
use crate::module::{IrModule, MemForm};
use crate::types::ScalarType;
use crate::validate;
use std::collections::{HashMap, HashSet};
use std::sync::{Mutex, OnceLock};

/// Dense index of a function, in declaration order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FnId(pub u32);

impl FnId {
    /// The function's position in the template's `functions`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
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
///
/// A `par` root whose children all call one function holds that lane
/// subtree once, standing for [`lane_replicas`][ConfigPlan::lane_replicas]
/// copies: the passes price it once and scale, so costing a variant does
/// not walk a copy per lane.
///
/// The plan is the template's. A patch stands for
/// [`lanes`][PatchedModule::lanes] copies of the lane root's call: the
/// root's `n_children`, `lane_replicas` and `par_lanes` scale by that
/// count, and `tree.lanes` by
/// [`kernel_lanes`][PatchedModule::kernel_lanes].
#[derive(Debug, Clone)]
pub struct ConfigPlan {
    /// The extracted tree, kept for report assembly and memo-miss
    /// scheduling (patch-independent: variants share it).
    pub tree: ConfigTree,
    /// Preorder flattening of `tree.root`, with a replicated lane
    /// subtree stored once.
    pub nodes: Vec<PlanNode>,
    /// Start of the lane subtree inside `nodes` (first child of a `par`
    /// root, else the root itself).
    pub lane_start: usize,
    /// Length of the lane subtree's preorder slice.
    pub lane_len: usize,
    /// How many lanes the lane slice stands for: the root's child count
    /// when every child calls the same function, else 1 (every child is
    /// then spelled out in `nodes`).
    pub lane_replicas: u64,
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

    /// The nodes before the lane slice (the `par` root, if any) and
    /// those after it (the root's other children, when they are not one
    /// replicated lane).
    pub fn outer_nodes(&self) -> (&[PlanNode], &[PlanNode]) {
        (&self.nodes[..self.lane_start], &self.nodes[self.lane_start + self.lane_len..])
    }
}

/// A lane template with every hot-path scalar precomputed, built once
/// per design base; see the module docs.
#[derive(Debug)]
pub struct ArenaModule {
    /// The retained lane template, read by memo-miss passes: the
    /// Compute-IR with one lane's dispatcher call, the metadata, and one
    /// lane's Manage-IR.
    template: IrModule,
    /// The template's [lane root][IrModule::lane_root], whose call a
    /// patch repeats once per lane.
    lane_root: Option<FnId>,
    /// [`fingerprint_function`] of each template function, by [`FnId`].
    fn_fp: Vec<u64>,

    // ---- precomputed digests (of the template) ----
    streams_fp: u64,

    // ---- precomputed geometry (one lane's Manage-IR) ----
    ngs: u64,
    kernel_lanes: u64,
    offchip_ports: u64,
    offchip_port_bytes: u64,
    /// Length and element type of each on-chip memory object.
    local_mems: Vec<(u64, ScalarType)>,
    noff: u64,
    noff_bytes: u64,

    config: Result<ConfigPlan, IrError>,

    /// The template's validation verdict, computed on first request and
    /// shared by every patch of the arena (see
    /// [`PatchedModule::validate`]).
    base_verdict: OnceLock<Result<(), IrError>>,
    /// Whether two lanes of the template can generate the same name.
    names_may_collide: OnceLock<bool>,
    /// Verdicts of expanded modules, per lane count, for the lane counts
    /// the template's verdict does not cover.
    lane_verdicts: Mutex<Vec<(u64, Result<(), IrError>)>>,
}

impl ArenaModule {
    /// Precompute a lane template's scalars ([`IrModule::expand_lanes`])
    /// without expanding it; a patch picks the lane count
    /// ([`patched`][ArenaModule::patched]). Every digest, geometry scalar
    /// and pass over a patch equals what a build of its
    /// [`materialize`][PatchedModule::materialize]d module gives at one
    /// lane. A parsed module is its own one-lane template. The tree need
    /// not be validated: an invalid tree still builds, and
    /// [`PatchedModule::validate`] (which the estimator's arena path
    /// calls before first use) reports its error.
    pub fn build(template: IrModule) -> ArenaModule {
        let _sp = tytra_trace::span("ir.arena_build").with("module", template.name.as_str());
        let fn_fp: Vec<u64> = template.functions.iter().map(fingerprint_function).collect();

        // Manage-IR geometry of one lane; a patch scales it by its lane
        // count. Every lane resolves its links as the template does once
        // the names are unique, which `PatchedModule::validate`
        // establishes before any pass reads these.
        let local_mems = template
            .mems
            .iter()
            .filter(|mem| !mem.space.is_offchip())
            .map(|mem| (mem.len, mem.elem_ty))
            .collect();
        let (mut offchip_ports, mut offchip_port_bytes) = (0, 0);
        let links = template.manage_links();
        for (i, p) in template.ports.iter().enumerate() {
            if links.port_offchip(i) {
                offchip_ports += 1;
                offchip_port_bytes += u64::from(p.ty.bytes());
            }
        }
        let (mut noff, mut noff_bytes) = (0, 0);
        for f in template.reachable_functions() {
            for o in f.offsets() {
                if o.offset > 0 && o.offset as u64 > noff {
                    noff = o.offset as u64;
                    noff_bytes = noff * u64::from(o.ty.bytes());
                }
            }
        }

        let config = config_tree::extract(&template).map(|t| build_plan(&template, &fn_fp, t));
        ArenaModule {
            lane_root: template.lane_root().map(|i| FnId(i as u32)),
            fn_fp,
            streams_fp: fingerprint_streams(&template),
            ngs: template.meta.global_size(),
            kernel_lanes: template.kernel_lanes(),
            offchip_ports,
            offchip_port_bytes,
            local_mems,
            noff,
            noff_bytes,
            config,
            base_verdict: OnceLock::new(),
            names_may_collide: OnceLock::new(),
            lane_verdicts: Mutex::new(Vec::new()),
            template,
        }
    }

    /// Validate a tree, then build its arena with the verdict already
    /// held: the one validation a parsed design needs. Every patch that
    /// [`cached_verdict`][PatchedModule::cached_verdict] answers from the
    /// template's verdict (the identity patch among them) then validates
    /// nothing more; an invalid tree builds no arena.
    pub fn validated(template: IrModule) -> Result<ArenaModule, IrError> {
        validate::validate(&template)?;
        let a = ArenaModule::build(template);
        a.base_verdict.set(Ok(())).expect("a fresh arena holds no verdict");
        Ok(a)
    }

    /// The retained lane template: the Compute-IR with one lane's
    /// dispatcher call, the metadata, and one lane's Manage-IR (the
    /// module itself for a parsed module).
    pub fn template(&self) -> &IrModule {
        &self.template
    }

    /// A function's precomputed structural fingerprint — equal to
    /// [`fingerprint_function`] on the tree function.
    pub fn fn_fp(&self, f: FnId) -> u64 {
        self.fn_fp[f.index()]
    }

    /// The flattened configuration plan, or the error
    /// [`config_tree::extract`] gave on the base tree.
    pub fn config(&self) -> Result<&ConfigPlan, IrError> {
        self.config.as_ref().map_err(Clone::clone)
    }

    // ---- precomputed geometry ----

    /// `NGS`: NDRange product (≥ 1).
    pub fn ngs(&self) -> u64 {
        self.ngs
    }

    /// `NKI` of the base design (patch-independent).
    pub fn nki(&self) -> u64 {
        self.template.meta.nki
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

    /// A copy-on-write variant of this base: `name`, `form`, `vect` and
    /// the lane count are patched, everything else is shared. A `lanes`
    /// of 0 counts as 1; more than one lane needs a template with a
    /// [lane root][IrModule::lane_root], whose call the patch repeats.
    pub fn patched<'a>(
        &'a self,
        name: &'a str,
        form: MemForm,
        vect: u32,
        lanes: u64,
    ) -> PatchedModule<'a> {
        debug_assert!(lanes <= 1 || self.lane_root.is_some(), "{lanes} lanes need a lane root");
        PatchedModule { arena: self, name, form, vect, lanes: lanes.max(1) }
    }

    /// The identity patch: the template itself, at one lane, as a
    /// [`PatchedModule`].
    pub fn identity(&self) -> PatchedModule<'_> {
        self.patched(&self.template.name, self.template.meta.form, self.template.meta.vect, 1)
    }

    /// Whether two lanes of the template can generate the same name,
    /// computed on first request.
    fn names_may_collide(&self) -> bool {
        *self.names_may_collide.get_or_init(|| lane_names_may_collide(&self.template))
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

fn build_plan(template: &IrModule, fn_fp: &[u64], tree: ConfigTree) -> ConfigPlan {
    type Ids<'m> = HashMap<&'m str, FnId>;
    fn plan_node(ids: &Ids<'_>, node: &ConfigNode) -> PlanNode {
        // Plan construction only succeeds when every node's function
        // resolves; `config_tree::extract` already guaranteed that.
        PlanNode {
            func: ids[node.function.as_str()],
            kind: node.kind,
            n_instrs: node.n_instrs,
            n_children: node.children.len() as u32,
        }
    }
    fn flatten(ids: &Ids<'_>, node: &ConfigNode, out: &mut Vec<PlanNode>) {
        out.push(plan_node(ids, node));
        for c in &node.children {
            flatten(ids, c, out);
        }
    }
    // Node names resolve as `IrModule::function` resolves them (first
    // declaration wins), through one index: a plan can hold up to
    // `MAX_CONFIG_NODES` nodes.
    let mut ids = Ids::with_capacity(template.functions.len());
    for (i, f) in template.functions.iter().enumerate() {
        ids.entry(f.name.as_str()).or_insert(FnId(i as u32));
    }
    let root = &tree.root;
    let mut nodes = Vec::new();
    // Lane subtree: first child of a `par` root, else the root (the
    // `lane_subtree` rule of the schedule pass). A child's subtree is a
    // function of its callee alone, so children that all call one
    // function are one subtree, kept once.
    let (lane_start, lane_replicas) = match root.children.first() {
        Some(first) if root.kind == ParKind::Par => {
            let uniform = root.children.iter().all(|c| c.function == first.function);
            let kept = if uniform { std::slice::from_ref(first) } else { &root.children[..] };
            nodes.push(plan_node(&ids, root));
            for c in kept {
                flatten(&ids, c, &mut nodes);
            }
            (1, if uniform { root.children.len() as u64 } else { 1 })
        }
        _ => {
            flatten(&ids, root, &mut nodes);
            (0, 1)
        }
    };
    let lane = if lane_start == 1 { &root.children[0] } else { root };
    let lane_len = {
        fn count(n: &ConfigNode) -> usize {
            1 + n.children.iter().map(count).sum::<usize>()
        }
        count(lane)
    };
    // `fingerprint_subtree`'s preorder byte sequence, with each
    // function's fingerprint read from the precomputed `fn_fp`.
    let lane_fp = {
        let mut h = StableHasher::new();
        for n in &nodes[lane_start..lane_start + lane_len] {
            h.write_u8(n.kind as u8);
            h.write_u64(n.n_instrs);
            h.write_u64(fn_fp[n.func.index()]);
            h.write_u64(u64::from(n.n_children));
        }
        h.finish()
    };
    let lane_ii = match lane.kind {
        ParKind::Seq => lane.subtree_instrs().max(1) as f64,
        _ => 1.0,
    };
    let par_lanes = if root.kind == ParKind::Par { root.children.len() as u64 } else { 1 };
    ConfigPlan { nodes, lane_start, lane_len, lane_replicas, lane_fp, lane_ii, par_lanes, tree }
}

/// A design variant as a copy-on-write delta over a shared
/// [`ArenaModule`]: exactly four patched cells (module name, memory
/// form, DV and lane count). Costing a `PatchedModule` through the
/// session's `estimate_design`/`bound_design` touches only the arena's
/// precomputed scalars and O(1) arithmetic on the lane count in the
/// steady state; [`materialize`][PatchedModule::materialize] produces the
/// equivalent tree, and its `fingerprint_module` is the variant's digest.
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
    /// Patched lane count (≥ 1), set by [`ArenaModule::patched`].
    lanes: u64,
}

impl PatchedModule<'_> {
    /// How many lanes the template stands for (1 for a parsed module):
    /// the copies of the lane root's call, by which the template's plan
    /// scales (see [`ConfigPlan`]).
    pub fn lanes(&self) -> u64 {
        self.lanes
    }

    /// [`IrModule::kernel_lanes`] of the patched module.
    pub fn kernel_lanes(&self) -> u64 {
        self.arena.kernel_lanes * self.lanes
    }

    /// Off-chip port count (the `NWPT` numerator and `n_streams`).
    pub fn offchip_ports(&self) -> u64 {
        self.arena.offchip_ports * self.lanes
    }

    /// Summed element widths of the off-chip ports, in bytes.
    pub fn offchip_port_bytes(&self) -> u64 {
        self.arena.offchip_port_bytes * self.lanes
    }

    /// Total bytes across on-chip (`local`) memory objects.
    pub fn local_bytes(&self) -> u64 {
        let one_lane: u64 = self
            .arena
            .local_mems
            .iter()
            .map(|&(len, ty)| len / self.lanes * u64::from(ty.bytes()))
            .sum();
        one_lane * self.lanes
    }

    /// Bit sizes of one lane's on-chip memory objects, in declaration
    /// order (the module-level BRAM terms of the resource pass); each
    /// stands for [`lanes`][PatchedModule::lanes] objects.
    pub fn local_mem_bits(&self) -> impl Iterator<Item = u64> + '_ {
        self.arena.local_mems.iter().map(|&(len, ty)| len / self.lanes * u64::from(ty.bits()))
    }

    /// The bandwidth memo key: the template's streams digest, the lane
    /// count and the kernel-lane count — everything the bandwidth pass
    /// reads, since the template's Manage-IR and the lane count fix the
    /// expanded one.
    pub fn bw_key(&self) -> (u64, u64, u64) {
        (self.arena.streams_fp, self.lanes, self.kernel_lanes())
    }

    /// The memo key of function `f`'s own results in this patch: its
    /// template fingerprint and how many copies of its body the patch
    /// stands for (the lane count for the lane root, else 1). Two keys
    /// are equal exactly when the expanded functions' fingerprints are,
    /// but the key costs O(1) in the lane count.
    pub fn fn_key(&self, f: FnId) -> (u64, u64) {
        let copies = if self.arena.lane_root == Some(f) { self.lanes } else { 1 };
        (self.arena.fn_fp(f), copies)
    }

    /// Expand a copy of the template to the patch's lane count and apply
    /// the other cells — the module this variant stands for. Equal
    /// (field-for-field) to lowering the variant from scratch.
    pub fn materialize(&self) -> IrModule {
        let mut m = self.arena.template.clone().expand_lanes(self.lanes);
        m.name.clear();
        m.name.push_str(self.name);
        m.meta.form = self.form;
        m.meta.vect = self.vect;
        m
    }

    /// The verdict of [`validate::validate`] on
    /// [`materialize`][PatchedModule::materialize], cached on the arena.
    /// The validator never reads the name, form or DV cells (only
    /// `meta.ndrange`/`nki`/`freq_mhz`, and the module name for its trace
    /// span), and at one lane the template is the module, so a one-lane
    /// patch gets the template's verdict. At more lanes that verdict
    /// still holds when it passes and no two lanes can generate the same
    /// name: the Compute-IR and metadata checks see the lane root's
    /// repeated call as they see one, and with unique names every lane
    /// resolves its links and agrees on directions, types and patterns
    /// exactly as the template does. Otherwise the expanded module is
    /// validated, once per lane count, so the verdict and the first
    /// error's text are always those of validating `materialize()`.
    pub fn validate(&self) -> Result<(), IrError> {
        let a = self.arena;
        // Fill the template's caches `cached_verdict` reads; the name
        // check only matters above one lane, for a valid template.
        let base = a.base_verdict.get_or_init(|| validate::validate(&a.template));
        if self.lanes > 1 && base.is_ok() {
            a.names_may_collide();
        }
        if let Some(v) = self.cached_verdict() {
            return v;
        }
        let v = validate::validate(&a.identity().with_lanes(self.lanes).materialize());
        // Two threads may both get here for one lane count; they push
        // the same verdict, and either copy answers later calls.
        a.lane_verdicts
            .lock()
            .expect("no validation panicked holding the lock")
            .push((self.lanes, v.clone()));
        v
    }

    /// The verdict of [`validate`][PatchedModule::validate] when the
    /// arena already holds it for this patch, else `None`; never runs
    /// the validator.
    pub fn cached_verdict(&self) -> Option<Result<(), IrError>> {
        let a = self.arena;
        let base = a.base_verdict.get()?;
        if self.lanes == 1 || (base.is_ok() && a.names_may_collide.get() == Some(&false)) {
            return Some(base.clone());
        }
        let verdicts = a.lane_verdicts.lock().expect("no validation panicked holding the lock");
        verdicts.iter().find(|(l, _)| *l == self.lanes).map(|(_, v)| v.clone())
    }

    /// The same patch at `lanes` lanes.
    fn with_lanes(self, lanes: u64) -> Self {
        PatchedModule { lanes: lanes.max(1), ..self }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::fingerprint::{fingerprint_module, fingerprint_subtree};
    use crate::function::Stmt;
    use crate::instr::Operand;
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

    /// The id of the first function named `name` in `a`'s template.
    fn fn_id(a: &ArenaModule, name: &str) -> FnId {
        FnId(a.template().functions.iter().position(|f| f.name == name).expect(name) as u32)
    }

    #[test]
    fn identity_patch_is_the_template() {
        for m in [stencil(1, MemForm::B), stencil(4, MemForm::A), float_module()] {
            let tree_fp = fingerprint_module(&m);
            let a = ArenaModule::build(m.clone());
            assert_eq!(a.identity().materialize(), m);
            assert_eq!(fingerprint_module(a.template()), tree_fp);
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
        }
        assert_eq!(a.identity().bw_key().0, fingerprint_streams(a.template()));
    }

    #[test]
    fn materialize_patches_exactly_four_cells() {
        let a = ArenaModule::build(stencil(2, MemForm::B));
        let m = a.patched("renamed", MemForm::C, 8, 1).materialize();
        assert_eq!(m.name, "renamed");
        assert_eq!(m.meta.form, MemForm::C);
        assert_eq!(m.meta.vect, 8);
        let mut back = m;
        back.name = a.template().name.clone();
        back.meta.form = a.template().meta.form;
        back.meta.vect = a.template().meta.vect;
        assert_eq!(&back, a.template());
        let t = ArenaModule::build(stencil_template(false));
        let m = t.patched("st_l4", MemForm::B, 1, 4).materialize();
        assert_eq!(m, stencil(4, MemForm::B), "the lane count is the fourth cell");
    }

    #[test]
    fn plan_matches_config_tree() {
        for (m, replicas) in [(stencil(1, MemForm::B), 1), (stencil(4, MemForm::B), 4)] {
            let tree = config_tree::extract(&m).unwrap();
            let lanes = m.kernel_lanes();
            let a = ArenaModule::build(m);
            let plan = a.config().expect("plan extracts");
            assert_eq!(plan.tree.lanes, lanes);
            // Four identical lanes are one lane subtree standing for four.
            assert_eq!(plan.lane_replicas, replicas);
            let count = |n: &ConfigNode| -> u64 {
                fn count(n: &ConfigNode) -> u64 {
                    1 + n.children.iter().map(count).sum::<u64>()
                }
                count(n)
            };
            let outer = plan.nodes.len() - plan.lane_len;
            assert_eq!(outer as u64 + replicas * plan.lane_len as u64, count(&tree.root));
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
            assert_eq!(plan.nodes[0].n_children as usize, tree.root.children.len());
        }
    }

    #[test]
    fn plan_spells_out_lanes_that_call_different_functions() {
        let mut m = stencil(3, MemForm::B);
        let mut g = m.function("f0").unwrap().clone();
        g.name = "g0".into();
        m.functions.insert(0, g);
        let par = m.functions.iter_mut().find(|f| f.name == "f1").unwrap();
        if let Some(Stmt::Call(c)) = par.body.last_mut() {
            c.callee = "g0".into();
        }
        let tree = config_tree::extract(&m).unwrap();
        let a = ArenaModule::build(m);
        let plan = a.config().unwrap();
        assert_eq!(plan.lane_replicas, 1);
        assert_eq!(plan.nodes.len(), 4, "the par root and its three lanes");
        let fns = &a.template().functions;
        let names: Vec<&str> =
            plan.nodes.iter().map(|n| fns[n.func.index()].name.as_str()).collect();
        assert_eq!(names, ["f1", "f0", "f0", "g0"]);
        assert_eq!(plan.outer_nodes().1.len(), 2);
        assert_eq!(plan.lane_fp, fingerprint_subtree(a.template(), &tree.root.children[0]));
    }

    #[test]
    fn geometry_scalars_match_tree_walks() {
        let m = stencil(4, MemForm::B);
        let lanes = m.kernel_lanes();
        let ngs = m.meta.global_size();
        let a = ArenaModule::build(m);
        let d = a.identity();
        assert_eq!(d.kernel_lanes(), lanes);
        assert_eq!(a.ngs(), ngs);
        assert_eq!(d.offchip_ports(), 8, "4 lanes x (in + out)");
        assert_eq!(d.offchip_port_bytes(), 8 * 3, "ui18 rounds to 3 bytes");
        assert_eq!(a.noff(), 30);
        assert_eq!(a.noff_bytes(), 90);
        assert_eq!(d.local_bytes(), 0);
        assert_eq!(d.local_mem_bits().count(), 0);
    }

    #[test]
    fn bw_key_is_the_template_digest_and_the_lane_counts() {
        let a = ArenaModule::build(stencil(2, MemForm::B));
        let fp = fingerprint_streams(a.template());
        assert_eq!(a.identity().bw_key(), (fp, 1, 2));
        let t = ArenaModule::build(stencil_template(false));
        let fp = fingerprint_streams(t.template());
        assert_eq!(t.patched("v", MemForm::B, 1, 8).bw_key(), (fp, 8, 8));
    }

    /// One lane of `stencil(lanes, _)`: its Compute-IR with a one-call
    /// `f1` dispatcher, and unsuffixed `p`/`q` arrays over the whole
    /// range (on chip when `local`).
    fn stencil_template(local: bool) -> IrModule {
        let mut b = ModuleBuilder::new("one lane");
        if local {
            b.local_array("p", T, 4096, crate::StreamDir::Read);
            b.local_array("q", T, 4096, crate::StreamDir::Write);
        } else {
            b.global_input("p", T, 4096);
            b.global_output("q", T, 4096);
        }
        let lane = b.finish_unchecked();
        let mut m = stencil(2, MemForm::B);
        (m.mems, m.streams, m.ports) = (lane.mems, lane.streams, lane.ports);
        let f1 = m.functions.iter_mut().find(|f| f.name == "f1").expect("two lanes dispatch");
        f1.body.truncate(1);
        m
    }

    #[test]
    fn lane_template_expands_to_the_per_lane_module() {
        let t = stencil_template(false);
        assert_eq!(t.lane_root(), t.functions.iter().position(|f| f.name == "f1"));
        for lanes in [2u64, 4, 11] {
            let mut m = t.clone().expand_lanes(lanes);
            m.name = format!("st_l{lanes}");
            assert_eq!(m, stencil(lanes as usize, MemForm::B), "{lanes} lanes");
        }
        assert_eq!(t.clone().expand_lanes(1), t, "one lane is the template itself");
        let one = stencil(1, MemForm::B);
        assert_eq!(one.lane_root(), None, "main calls the pipe directly");
        assert_eq!(one.clone().expand_lanes(1), one);
    }

    #[test]
    fn lane_template_holds_one_lane_and_matches_the_expanded_build() {
        for local in [false, true] {
            let a = ArenaModule::build(stencil_template(local));
            // One lane's Manage-IR and one dispatcher call, however many
            // lanes a patch stands for…
            let m = a.template();
            assert_eq!((m.mems.len(), m.streams.len(), m.ports.len()), (2, 2, 2));
            assert_eq!(m.function("f1").expect("dispatcher").calls().count(), 1);
            for lanes in [1u64, 2, 4, 11, 64] {
                let tag = format!("{lanes} lanes, local {local}");
                let d = a.patched("v", MemForm::Tiled { tiles: 4 }, 2, lanes);
                assert_eq!(d.lanes(), lanes);
                assert_eq!(d.local_mem_bits().count(), if local { 2 } else { 0 }, "{tag}");
                // …while materializing expands every lane.
                let full = d.materialize();
                let n = 2 * lanes as usize;
                assert_eq!((full.mems.len(), full.streams.len(), full.ports.len()), (n, n, n));
                assert_eq!(full.function("f1").expect("f1").calls().count(), lanes as usize);
                // Geometry and plan scaling equal those of the expanded
                // build.
                let expanded = ArenaModule::build(full);
                let e = expanded.identity();
                assert_eq!(d.kernel_lanes(), e.kernel_lanes(), "{tag}");
                assert_eq!(d.offchip_ports(), e.offchip_ports(), "{tag}");
                assert_eq!(d.offchip_port_bytes(), e.offchip_port_bytes(), "{tag}");
                assert_eq!(d.local_bytes(), e.local_bytes(), "{tag}");
                let bits = d.local_mem_bits().sum::<u64>() * lanes;
                assert_eq!(bits, e.local_mem_bits().sum::<u64>(), "{tag}");
                assert_eq!(a.noff(), expanded.noff(), "{tag}");
                assert_eq!(a.noff_bytes(), expanded.noff_bytes(), "{tag}");
                let (plan, full_plan) = (a.config().unwrap(), expanded.config().unwrap());
                assert_eq!(plan.lane_replicas * lanes, full_plan.lane_replicas, "{tag}");
                assert_eq!(plan.par_lanes * lanes, full_plan.par_lanes, "{tag}");
                assert_eq!(plan.lane_fp, full_plan.lane_fp, "{tag}");
                let root = plan.nodes[0];
                assert_eq!(
                    u64::from(root.n_children) * lanes,
                    full_plan.nodes[0].n_children.into()
                );
                assert_eq!(d.validate(), Ok(()), "{tag}");
                assert_eq!(d.cached_verdict(), Some(Ok(())), "{tag}");
            }
        }
    }

    #[test]
    fn only_the_lane_root_key_counts_lanes() {
        let a = ArenaModule::build(stencil_template(false));
        let (f0, f1) = (fn_id(&a, "f0"), fn_id(&a, "f1"));
        for l in [1u64, 2, 64] {
            let d = a.patched("v", MemForm::B, 1, l);
            assert_eq!(d.fn_key(f1), (a.fn_fp(f1), l));
            assert_eq!(d.fn_key(f0), (a.fn_fp(f0), 1), "the lane body");
        }
    }

    #[test]
    fn lane_template_validation_falls_back_when_names_can_collide() {
        // Inputs `p` and `p1`: lane 10 of `p` and lane 0 of `p1` are both
        // `mem_p10`, so the 11-lane expansion is invalid though the
        // template and the 2-lane expansion are not.
        let mut t = stencil_template(false);
        let mut b = ModuleBuilder::new("extra");
        b.global_input("p1", T, 4096);
        let extra = b.finish_unchecked();
        t.mems.extend(extra.mems);
        t.streams.extend(extra.streams);
        t.ports.extend(extra.ports);
        assert!(lane_names_may_collide(&t));
        assert_eq!(validate::validate(&t), Ok(()));
        let a = ArenaModule::build(t);
        let d11 = a.identity().with_lanes(11);
        assert_eq!(d11.cached_verdict(), None);
        let want = validate::validate(&d11.materialize());
        assert_eq!(d11.validate(), want);
        assert_eq!(d11.cached_verdict(), Some(want.clone()), "the 11-lane verdict is cached");
        assert!(format!("{}", want.unwrap_err()).contains("duplicate memory object name `mem_p10`"));
        let d2 = a.identity().with_lanes(2);
        assert_eq!(d2.cached_verdict(), None, "each lane count is validated on its own");
        assert_eq!(d2.validate(), Ok(()));
        assert_eq!(d11.validate(), d11.validate(), "cached verdicts repeat");

        // An invalid template reports the expanded module's first error.
        let mut bad = stencil_template(false);
        bad.streams[0].mem = "mem_nope".into();
        assert!(!lane_names_may_collide(&bad));
        let a = ArenaModule::build(bad);
        let d4 = a.identity().with_lanes(4);
        let want = validate::validate(&d4.materialize());
        assert!(want.is_err());
        assert_eq!(d4.validate(), want);
        let template = a.identity().validate();
        assert_ne!(template, want, "the template's error names the unsuffixed stream");
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
    fn a_validated_arena_holds_the_verdict_of_its_one_validation() {
        let a = ArenaModule::validated(stencil(4, MemForm::B)).expect("stencil is valid");
        assert_eq!(a.identity().cached_verdict(), Some(Ok(())));
        let mut bad = stencil(1, MemForm::B);
        bad.functions.retain(|f| f.name != "main");
        let want = validate::validate(&bad);
        assert!(want.is_err());
        assert_eq!(ArenaModule::validated(bad).map(|_| ()), want);
    }

    #[test]
    fn plan_nodes_resolve_to_the_first_declaration() {
        // A later function of the same name (which validation rejects,
        // but an unvalidated build accepts) is not the one the tree's
        // nodes call.
        let mut m = stencil(4, MemForm::B);
        let mut shadow = m.function("f0").unwrap().clone();
        shadow.kind = ParKind::Seq;
        m.functions.push(shadow);
        let a = ArenaModule::build(m);
        let funcs: Vec<FnId> = a.config().unwrap().nodes.iter().map(|n| n.func).collect();
        assert_eq!(funcs, [fn_id(&a, "f1"), fn_id(&a, "f0")], "the par root and its one lane");
        assert_eq!(fn_id(&a, "f0"), FnId(0));
    }
}
