//! The top-level IR module: Manage-IR + Compute-IR + execution metadata.

use crate::function::{IrFunction, ParKind, Stmt};
use crate::stream::{MemObject, PortDecl, StreamObject};
use std::collections::HashMap;
use std::fmt;

/// Memory-execution form (section III-5, Fig 6): how the memory hierarchy
/// is traversed across the `NKI` kernel-instance iterations. The
/// throughput expressions (Eqs 1–3) differ per form.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemForm {
    /// Form A: every kernel instance transports all `NDRange` data between
    /// host and device DRAM.
    A,
    /// Form B: the host moves data to/from global memory once; iterations
    /// stream from device DRAM.
    B,
    /// Form C: the working set fits in on-chip local memory (BRAM); all
    /// iterations are compute-bound.
    C,
    /// Extension (the paper's tiling future-work note): the index space is
    /// tiled so that a fraction `1/tiles` of the set is BRAM-resident at a
    /// time; interpolates between Forms B (`tiles = NGS`) and C
    /// (`tiles = 1`).
    Tiled {
        /// Number of tiles the NDRange is split into.
        tiles: u32,
    },
}

impl MemForm {
    /// Tag used in the textual IR metadata (`!form = !"B"`). Borrowed
    /// (allocation-free) for the paper's three letter forms; only the
    /// `Tiled` extension pays a formatting allocation. Hot paths that
    /// print forms should go through `Display`, which never allocates.
    pub fn tag(&self) -> std::borrow::Cow<'static, str> {
        match self {
            MemForm::A => std::borrow::Cow::Borrowed("A"),
            MemForm::B => std::borrow::Cow::Borrowed("B"),
            MemForm::C => std::borrow::Cow::Borrowed("C"),
            MemForm::Tiled { tiles } => std::borrow::Cow::Owned(format!("T{tiles}")),
        }
    }

    /// Parse a metadata tag.
    pub fn from_tag(s: &str) -> Option<MemForm> {
        match s {
            "A" => Some(MemForm::A),
            "B" => Some(MemForm::B),
            "C" => Some(MemForm::C),
            _ => {
                let n: u32 = s.strip_prefix('T')?.parse().ok()?;
                (n > 0).then_some(MemForm::Tiled { tiles: n })
            }
        }
    }
}

impl fmt::Display for MemForm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemForm::A => f.write_str("A"),
            MemForm::B => f.write_str("B"),
            MemForm::C => f.write_str("C"),
            MemForm::Tiled { tiles } => write!(f, "T{tiles}"),
        }
    }
}

/// Execution metadata attached to a module: the kernel-instance geometry
/// of the OpenCL-style execution model (section III-3).
#[derive(Debug, Clone, PartialEq)]
pub struct ExecMeta {
    /// The NDRange: global size per dimension. The paper's `NGS` is the
    /// product.
    pub ndrange: Vec<u64>,
    /// `NKI`: how many times the kernel instance executes over all `NGS`
    /// work-items (e.g. 1000 SOR iterations).
    pub nki: u64,
    /// The memory-execution form.
    pub form: MemForm,
    /// Optional clock constraint in MHz; when absent the cost model's
    /// frequency estimator decides `FD`.
    pub freq_mhz: Option<f64>,
    /// `DV`: degree of vectorization per lane — how many elements each
    /// pipeline lane consumes per cycle (Table I). 1 for scalar lanes.
    pub vect: u32,
}

impl ExecMeta {
    /// `NGS`: global size of work-items in the NDRange.
    pub fn global_size(&self) -> u64 {
        self.ndrange.iter().product::<u64>().max(1)
    }
}

impl Default for ExecMeta {
    fn default() -> ExecMeta {
        ExecMeta { ndrange: vec![1], nki: 1, form: MemForm::B, freq_mhz: None, vect: 1 }
    }
}

/// A complete TyTra-IR design variant.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct IrModule {
    /// Module (design) name.
    pub name: String,
    /// Manage-IR memory objects.
    pub mems: Vec<MemObject>,
    /// Manage-IR stream objects.
    pub streams: Vec<StreamObject>,
    /// Compute-IR port declarations binding streams to kernel arguments.
    pub ports: Vec<PortDecl>,
    /// Compute-IR functions, including `main`.
    pub functions: Vec<IrFunction>,
    /// Execution metadata.
    pub meta: ExecMeta,
}

impl IrModule {
    /// New empty module with the given name.
    pub fn new(name: impl Into<String>) -> IrModule {
        IrModule { name: name.into(), ..Default::default() }
    }

    /// Look up a function by name.
    pub fn function(&self, name: &str) -> Option<&IrFunction> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// The entry function, conventionally `main`.
    pub fn main(&self) -> Option<&IrFunction> {
        self.function("main")
    }

    /// Look up a memory object.
    pub fn mem(&self, name: &str) -> Option<&MemObject> {
        self.mems.iter().find(|m| m.name == name)
    }

    /// Look up a stream object.
    pub fn stream(&self, name: &str) -> Option<&StreamObject> {
        self.streams.iter().find(|s| s.name == name)
    }

    /// Look up a port declaration by its qualified name.
    pub fn port(&self, name: &str) -> Option<&PortDecl> {
        self.ports.iter().find(|p| p.name == name)
    }

    /// Resolve every Manage-IR name link at once: each stream's memory
    /// object and each port's stream, through name indexes built once
    /// (linear in the Manage-IR, where per-item [`mem`][IrModule::mem]/
    /// [`stream`][IrModule::stream] scans are quadratic). Resolves
    /// exactly as those lookups do: the first declaration of a name wins.
    pub fn manage_links(&self) -> ManageLinks<'_> {
        fn first_index<'a>(
            names: impl ExactSizeIterator<Item = &'a str>,
        ) -> HashMap<&'a str, usize> {
            let mut index = HashMap::with_capacity(names.len());
            for (i, n) in names.enumerate() {
                index.entry(n).or_insert(i);
            }
            index
        }
        let mems = first_index(self.mems.iter().map(|m| m.name.as_str()));
        let streams = first_index(self.streams.iter().map(|s| s.name.as_str()));
        ManageLinks {
            m: self,
            stream_mem: self.streams.iter().map(|s| mems.get(s.mem.as_str()).copied()).collect(),
            port_stream: self
                .ports
                .iter()
                .map(|p| streams.get(p.stream.as_str()).copied())
                .collect(),
        }
    }

    /// The module a lane template stands for at `lanes` lanes. A lane
    /// template holds one lane: Manage-IR arrays as long as the whole
    /// NDRange and a dispatcher, its [`lane_root`][IrModule::lane_root],
    /// with one lane's call. Expanding repeats the Manage-IR
    /// `lanes` times in lane-major order, each name — and each
    /// memory-object or stream name a copy refers to — with its decimal
    /// lane index appended ([`lane_name`]: `mem_p` becomes `mem_p0`,
    /// `mem_p1`, …) and each array `len / lanes` long, and repeats the
    /// lane root's body `lanes` times. Every other function and the
    /// metadata stay as they are. With one lane the template is the
    /// module, names unsuffixed, and needs no dispatcher.
    ///
    /// # Panics
    ///
    /// If `lanes` exceeds one and the module has no lane root.
    pub fn expand_lanes(mut self, lanes: u64) -> IrModule {
        if lanes <= 1 {
            return self;
        }
        let root = self.lane_root().expect("a module of more than one lane has a lane root");
        let body = &mut self.functions[root].body;
        let one = std::mem::take(body);
        *body = std::iter::repeat_n(one, lanes as usize).flatten().collect();
        let mems = std::mem::take(&mut self.mems);
        let streams = std::mem::take(&mut self.streams);
        let ports = std::mem::take(&mut self.ports);
        let n = lanes as usize;
        self.mems.reserve_exact(n * mems.len());
        self.streams.reserve_exact(n * streams.len());
        self.ports.reserve_exact(n * ports.len());
        for l in 0..lanes {
            let name = |template: &str| lane_name(template, l, lanes);
            self.mems.extend(mems.iter().map(|m| MemObject {
                name: name(&m.name),
                space: m.space,
                elem_ty: m.elem_ty,
                len: m.len / lanes,
                span: m.span,
            }));
            self.streams.extend(streams.iter().map(|s| StreamObject {
                name: name(&s.name),
                mem: name(&s.mem),
                dir: s.dir,
                pattern: s.pattern,
                span: s.span,
            }));
            self.ports.extend(ports.iter().map(|p| PortDecl {
                name: name(&p.name),
                space: p.space,
                ty: p.ty,
                dir: p.dir,
                pattern: p.pattern,
                base_offset: p.base_offset,
                stream: name(&p.stream),
                span: p.span,
            }));
        }
        self
    }

    /// The index of a lane template's dispatcher: the `par` function
    /// that `main`'s only call targets, when its body is that one lane's
    /// call. [`expand_lanes`][IrModule::expand_lanes] repeats its body
    /// once per lane; only a module with one expands past one lane.
    pub fn lane_root(&self) -> Option<usize> {
        let mut calls = self.main()?.calls();
        let (Some(call), None) = (calls.next(), calls.next()) else { return None };
        let i = self.functions.iter().position(|f| f.name == call.callee)?;
        let f = &self.functions[i];
        let one_call = matches!(f.body.as_slice(), [Stmt::Call(_)]);
        (f.kind == ParKind::Par && f.name != "main" && one_call).then_some(i)
    }

    /// Total SSA instruction count over every function (static count; the
    /// per-PE `NI` of the throughput model is computed per configuration by
    /// the cost crate).
    pub fn total_instructions(&self) -> u64 {
        self.functions.iter().map(IrFunction::n_instructions).sum()
    }

    /// Number of parallel kernel lanes, `KNL`: the replication factor of
    /// pipeline lanes. Derived from `par` functions: the number of calls
    /// inside each `par` body, multiplied down the call chain from `main`.
    /// A design with no `par` level has one lane.
    ///
    /// Each function's count is taken once, so the walk is linear in
    /// functions and calls however many call paths the hierarchy has. A
    /// function met again while its own count is pending (a recursive
    /// cycle, which validation rejects) counts one lane.
    pub fn kernel_lanes(&self) -> u64 {
        fn lanes_of<'m>(m: &'m IrModule, fname: &'m str, memo: &mut HashMap<&'m str, u64>) -> u64 {
            if let Some(&lanes) = memo.get(fname) {
                return lanes;
            }
            let Some(f) = m.function(fname) else { return 1 };
            memo.insert(fname, 1);
            let children = f.calls().map(|c| lanes_of(m, &c.callee, memo));
            let lanes = match f.kind {
                // Each call is a lane; nested structure multiplies.
                ParKind::Par => children.fold(0, u64::saturating_add).max(1),
                // Pipeline/seq: lanes do not multiply across peers; take
                // the max replication among children.
                _ => children.max().unwrap_or(1),
            };
            memo.insert(fname, lanes);
            lanes
        }
        // `main` is a plain dispatcher: its single call's subtree decides.
        let Some(main) = self.main() else { return 1 };
        let mut memo = HashMap::new();
        main.calls().map(|c| lanes_of(self, &c.callee, &mut memo)).max().unwrap_or(1)
    }

    /// Iterate over the functions reachable from `main` in call order
    /// (preorder). Unreachable functions are excluded.
    pub fn reachable_functions(&self) -> Vec<&IrFunction> {
        let mut out = Vec::new();
        let mut stack = vec!["main"];
        let mut seen: Vec<&str> = Vec::new();
        while let Some(name) = stack.pop() {
            if seen.contains(&name) {
                continue;
            }
            seen.push(name);
            if let Some(f) = self.function(name) {
                out.push(f);
                // Push in reverse so preorder visits calls left-to-right.
                let callees: Vec<&str> = f.calls().map(|c| c.callee.as_str()).collect();
                for c in callees.into_iter().rev() {
                    stack.push(c);
                }
            }
        }
        out
    }
}

/// Lane `lane`'s name for the Manage-IR entity a `replicas`-lane
/// template calls `template`: the template name with the decimal lane
/// index appended, or the template name itself for a single replica. The
/// one naming rule of [`IrModule::expand_lanes`].
pub fn lane_name(template: &str, lane: u64, replicas: u64) -> String {
    if replicas > 1 {
        format!("{template}{lane}")
    } else {
        template.to_string()
    }
}

/// A module's Manage-IR name links, resolved once by
/// [`IrModule::manage_links`]. Indices are positions in the module's
/// `streams` and `ports`.
#[derive(Debug, Clone)]
pub struct ManageLinks<'m> {
    m: &'m IrModule,
    stream_mem: Vec<Option<usize>>,
    port_stream: Vec<Option<usize>>,
}

impl<'m> ManageLinks<'m> {
    /// The memory object stream `s` reads or writes, if declared.
    pub fn stream_mem(&self, s: usize) -> Option<&'m MemObject> {
        self.stream_mem[s].map(|i| &self.m.mems[i])
    }

    /// The stream object port `p` binds, if declared.
    pub fn port_stream(&self, p: usize) -> Option<&'m StreamObject> {
        self.port_stream[p].map(|i| &self.m.streams[i])
    }

    /// The memory object behind port `p`'s stream, if both resolve.
    pub fn port_mem(&self, p: usize) -> Option<&'m MemObject> {
        self.port_stream[p].and_then(|s| self.stream_mem(s))
    }

    /// Whether port `p` moves data over the off-chip link. A port whose
    /// stream or memory object does not resolve counts as off-chip.
    pub fn port_offchip(&self, p: usize) -> bool {
        self.port_mem(p).map(|mem| mem.space.is_offchip()).unwrap_or(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::Call;
    use crate::instr::Operand;

    fn call(f: &str, kind: ParKind) -> Stmt {
        Stmt::Call(Call {
            callee: f.into(),
            args: vec![Operand::local("p")],
            kind,
            span: crate::diag::SrcLoc::none(),
        })
    }

    /// main -> f1(par) -> 4 × f0(pipe)
    fn four_lane() -> IrModule {
        let mut m = IrModule::new("sor4");
        let f0 = IrFunction::new("f0", ParKind::Pipe);
        let mut f1 = IrFunction::new("f1", ParKind::Par);
        for _ in 0..4 {
            f1.body.push(call("f0", ParKind::Pipe));
        }
        let mut main = IrFunction::new("main", ParKind::Seq);
        main.body.push(call("f1", ParKind::Par));
        m.functions = vec![f0, f1, main];
        m
    }

    #[test]
    fn memform_tags_round_trip() {
        for f in [MemForm::A, MemForm::B, MemForm::C, MemForm::Tiled { tiles: 8 }] {
            assert_eq!(MemForm::from_tag(&f.tag()), Some(f));
        }
        assert_eq!(MemForm::from_tag("D"), None);
        assert_eq!(MemForm::from_tag("T0"), None);
        assert_eq!(MemForm::from_tag("Tx"), None);
    }

    #[test]
    fn global_size_is_ndrange_product() {
        let meta = ExecMeta {
            ndrange: vec![24, 24, 24],
            nki: 1000,
            form: MemForm::B,
            freq_mhz: None,
            vect: 1,
        };
        assert_eq!(meta.global_size(), 13824);
        let empty = ExecMeta { ndrange: vec![], ..ExecMeta::default() };
        assert_eq!(empty.global_size(), 1);
    }

    #[test]
    fn kernel_lanes_single_pipe_is_one() {
        let mut m = IrModule::new("sor1");
        let f0 = IrFunction::new("f0", ParKind::Pipe);
        let mut main = IrFunction::new("main", ParKind::Seq);
        main.body.push(call("f0", ParKind::Pipe));
        m.functions = vec![f0, main];
        assert_eq!(m.kernel_lanes(), 1);
    }

    #[test]
    fn kernel_lanes_counts_par_replication() {
        assert_eq!(four_lane().kernel_lanes(), 4);
    }

    #[test]
    fn kernel_lanes_empty_module_is_one() {
        assert_eq!(IrModule::new("x").kernel_lanes(), 1);
    }

    #[test]
    fn reachable_functions_preorder_and_dedup() {
        let m = four_lane();
        let names: Vec<&str> = m.reachable_functions().iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["main", "f1", "f0"]);
    }

    #[test]
    fn lane_names_append_the_decimal_lane_index() {
        assert_eq!(lane_name("mem_p", 0, 1), "mem_p", "one replica keeps the template name");
        assert_eq!(lane_name("mem_p", 0, 2), "mem_p0");
        assert_eq!(lane_name("main.p", 10, 11), "main.p10");
        assert_eq!(lane_name("s", u64::MAX, u64::MAX), format!("s{}", u64::MAX));
    }

    #[test]
    fn lookups() {
        let m = four_lane();
        assert!(m.function("f1").is_some());
        assert!(m.main().is_some());
        assert!(m.function("zzz").is_none());
        assert_eq!(m.total_instructions(), 0);
    }
}
