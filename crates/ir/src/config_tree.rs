//! Configuration-tree extraction (paper Figs 5, 7, 8).
//!
//! The TyTra compiler parses the IR description of a design variant
//! expressed with the `pipe`/`par`/`seq`/`comb` constructs and extracts the
//! architecture from it as a tree of configuration nodes. The tree is then
//! classified against the design-space abstraction of Fig 5 (C1: replicated
//! pipeline lanes, C2: single pipeline, ...) and checked against the
//! configuration patterns currently supported by the compiler (Fig 7).

use crate::error::{IrError, Result};
use crate::function::{IrFunction, ParKind};
use crate::module::IrModule;
use std::collections::HashMap;

/// Deepest configuration nesting below `main` that extraction accepts.
const MAX_DEPTH: usize = 16;

/// Most configuration nodes a tree may have. The tree holds one node per
/// call path, so a few kilobytes of functions that each call the next
/// several times expand to millions; [`extract`] counts the nodes first
/// and rejects such a hierarchy before building any. The shipped
/// designs, kernel variants up to 64 lanes and generated designs stay
/// far below it.
pub const MAX_CONFIG_NODES: u64 = 1 << 16;

/// One node of the extracted configuration tree. Children correspond to
/// the function's call statements in program order.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigNode {
    /// Function realising this node.
    pub function: String,
    /// Parallelism kind of the node.
    pub kind: ParKind,
    /// Number of datapath instructions directly in this node.
    pub n_instrs: u64,
    /// Child configurations (callees), in call order.
    pub children: Vec<ConfigNode>,
}

impl ConfigNode {
    /// Total instruction count of the subtree.
    pub fn subtree_instrs(&self) -> u64 {
        self.n_instrs + self.children.iter().map(ConfigNode::subtree_instrs).sum::<u64>()
    }

    /// Depth of the subtree (a lone node has depth 1).
    pub fn depth(&self) -> usize {
        1 + self.children.iter().map(ConfigNode::depth).max().unwrap_or(0)
    }

    /// Count nodes of a given kind in the subtree.
    pub fn count_kind(&self, kind: ParKind) -> usize {
        usize::from(self.kind == kind)
            + self.children.iter().map(|c| c.count_kind(kind)).sum::<usize>()
    }

    /// Render the subtree as an indented outline (used by `tybec` and in
    /// test goldens), one node per line: `kipe f0 [12 instrs]`.
    pub fn outline(&self) -> String {
        let mut s = String::new();
        self.outline_into(&mut s, 0);
        s
    }

    fn outline_into(&self, out: &mut String, depth: usize) {
        use std::fmt::Write;
        let _ = writeln!(
            out,
            "{:indent$}{} {} [{} instrs]",
            "",
            self.kind,
            self.function,
            self.n_instrs,
            indent = depth * 2
        );
        for c in &self.children {
            c.outline_into(out, depth + 1);
        }
    }
}

/// Classification of a design within the Fig 5 design-space abstraction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConfigClass {
    /// C1: replicated pipeline lanes (thread + pipeline parallelism) — the
    /// xy-plane of Fig 5, expected to be "the preferable route for most
    /// small to medium sized kernels".
    C1ParallelPipes,
    /// C2: a single kernel pipeline (medium-grained parallelism by
    /// pipelining loop iterations).
    C2SinglePipe,
    /// Pattern 3 of Fig 7: a coarse-grained pipeline of peer pipelines.
    CoarsePipe,
    /// Pattern 4 of Fig 7: data-parallel coarse-grained pipelines.
    ParCoarsePipe,
    /// C4-style sequential (scalar instruction processor-like) execution.
    C4Sequential,
    /// A bare combinatorial block (single-cycle PE).
    Comb,
}

/// The extracted configuration of a design variant.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigTree {
    /// Root node (the unique callee subtree under `main`).
    pub root: ConfigNode,
    /// Design-space classification.
    pub class: ConfigClass,
    /// Number of parallel kernel lanes implied by the tree (`KNL`).
    pub lanes: u64,
}

/// Extract and classify the configuration tree of a module.
///
/// Fails with [`IrError::UnsupportedConfig`] on nesting patterns outside
/// the supported set of Fig 7 (e.g. `par` directly inside `par`, or a
/// `seq` node below the root dispatcher), and on a call hierarchy that
/// expands to more than [`MAX_CONFIG_NODES`] nodes.
pub fn extract(m: &IrModule) -> Result<ConfigTree> {
    let main = m.main().ok_or_else(|| IrError::Validate("module has no `main` function".into()))?;
    if node_count(m, main) > MAX_CONFIG_NODES {
        return Err(IrError::UnsupportedConfig(format!(
            "the call hierarchy expands to more than {MAX_CONFIG_NODES} configuration nodes"
        )));
    }
    let mut roots: Vec<ConfigNode> = Vec::new();
    // Instruction counts, taken once per function: a `par` dispatcher
    // calls its lane function once per lane.
    let mut n_instrs = HashMap::new();
    for c in main.calls() {
        roots.push(build_node(m, &c.callee, 0, &mut n_instrs)?);
    }
    let root = match roots.len() {
        0 => return Err(IrError::Validate("`main` dispatches nothing".into())),
        1 => roots.pop().expect("len checked"),
        _ => {
            return Err(IrError::UnsupportedConfig(
                "`main` must dispatch exactly one top-level configuration".into(),
            ))
        }
    };
    let class = classify(&root)?;
    let lanes = m.kernel_lanes();
    Ok(ConfigTree { root, class, lanes })
}

/// How many nodes [`build_node`] creates below `main` at most: the nodes
/// of every call path down to [`MAX_DEPTH`], counted once per function
/// and depth (saturating), so the count takes time linear in functions
/// and calls. An unknown callee counts nothing; a recursive cycle counts
/// the path down to the depth limit, where building fails.
fn node_count(m: &IrModule, main: &IrFunction) -> u64 {
    fn count(
        m: &IrModule,
        index: &HashMap<&str, usize>,
        memo: &mut [[Option<u64>; MAX_DEPTH + 1]],
        fname: &str,
        depth: usize,
    ) -> u64 {
        let Some(&i) = index.get(fname).filter(|_| depth <= MAX_DEPTH) else { return 0 };
        if let Some(n) = memo[i][depth] {
            return n;
        }
        let n = m.functions[i]
            .calls()
            .fold(1u64, |n, c| n.saturating_add(count(m, index, memo, &c.callee, depth + 1)));
        memo[i][depth] = Some(n);
        n
    }
    // First declaration wins, as in `IrModule::function`.
    let mut index = HashMap::with_capacity(m.functions.len());
    for (i, f) in m.functions.iter().enumerate() {
        index.entry(f.name.as_str()).or_insert(i);
    }
    let mut memo = vec![[None; MAX_DEPTH + 1]; m.functions.len()];
    main.calls().fold(0u64, |n, c| n.saturating_add(count(m, &index, &mut memo, &c.callee, 0)))
}

fn build_node<'m>(
    m: &'m IrModule,
    fname: &str,
    depth: usize,
    n_instrs: &mut HashMap<&'m str, u64>,
) -> Result<ConfigNode> {
    if depth > MAX_DEPTH {
        return Err(IrError::UnsupportedConfig(format!(
            "configuration nesting deeper than {MAX_DEPTH} at `{fname}`"
        )));
    }
    let f = m
        .function(fname)
        .ok_or_else(|| IrError::Unknown { kind: "function", name: fname.to_string() })?;
    let mut children = Vec::new();
    for c in f.calls() {
        let child = build_node(m, &c.callee, depth + 1, n_instrs)?;
        // Nesting legality (Fig 7): par may contain pipes (or coarse
        // pipes); pipe may contain pipes and combs; par-in-par and
        // anything under comb are outside the supported set.
        match (f.kind, child.kind) {
            (ParKind::Par, ParKind::Par) => {
                return Err(IrError::UnsupportedConfig(format!(
                    "`par` nested directly inside `par` at `{}`",
                    child.function
                )))
            }
            (ParKind::Par, ParKind::Seq) | (ParKind::Pipe, ParKind::Seq) => {
                return Err(IrError::UnsupportedConfig(format!(
                    "`seq` below the dispatcher at `{}`",
                    child.function
                )))
            }
            (ParKind::Pipe, ParKind::Par) => {
                return Err(IrError::UnsupportedConfig(format!(
                    "`par` inside `pipe` at `{}`",
                    child.function
                )))
            }
            (ParKind::Comb, _) => {
                return Err(IrError::UnsupportedConfig(format!(
                    "`comb` function `{}` may not call `{}`",
                    f.name, child.function
                )))
            }
            _ => {}
        }
        children.push(child);
    }
    Ok(ConfigNode {
        function: f.name.clone(),
        kind: f.kind,
        n_instrs: *n_instrs.entry(f.name.as_str()).or_insert_with(|| f.n_instructions()),
        children,
    })
}

fn classify(root: &ConfigNode) -> Result<ConfigClass> {
    Ok(match root.kind {
        ParKind::Comb => ConfigClass::Comb,
        ParKind::Seq => ConfigClass::C4Sequential,
        ParKind::Pipe => {
            if root.children.iter().any(|c| c.kind == ParKind::Pipe) {
                ConfigClass::CoarsePipe
            } else {
                ConfigClass::C2SinglePipe
            }
        }
        ParKind::Par => {
            // Lanes are the par's children; if any lane is itself a coarse
            // pipeline, the whole design is pattern 4 of Fig 7.
            let coarse = root
                .children
                .iter()
                .any(|lane| lane.children.iter().any(|g| g.kind == ParKind::Pipe));
            if coarse {
                ConfigClass::ParCoarsePipe
            } else {
                ConfigClass::C1ParallelPipes
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::{Call, IrFunction, Stmt};
    use crate::instr::{Dest, Instruction, Opcode, Operand};
    use crate::types::ScalarType;

    const T: ScalarType = ScalarType::UInt(18);

    fn instr(n: &str) -> Stmt {
        Stmt::Instr(Instruction::new(
            Dest::Local(n.into()),
            Opcode::Add,
            T,
            vec![Operand::Imm(1), Operand::Imm(2)],
        ))
    }

    fn call(f: &str, kind: ParKind) -> Stmt {
        Stmt::Call(Call { callee: f.into(), args: vec![], kind, span: crate::diag::SrcLoc::none() })
    }

    fn module_with(functions: Vec<IrFunction>) -> IrModule {
        let mut m = IrModule::new("t");
        m.functions = functions;
        m
    }

    fn pipe_with_instrs(name: &str, n: usize) -> IrFunction {
        let mut f = IrFunction::new(name, ParKind::Pipe);
        for i in 0..n {
            f.body.push(instr(&format!("v{i}")));
        }
        f
    }

    fn main_dispatching(f: &str, kind: ParKind) -> IrFunction {
        let mut main = IrFunction::new("main", ParKind::Seq);
        main.body.push(call(f, kind));
        main
    }

    #[test]
    fn single_pipe_is_c2() {
        let m = module_with(vec![pipe_with_instrs("f0", 3), main_dispatching("f0", ParKind::Pipe)]);
        let t = extract(&m).unwrap();
        assert_eq!(t.class, ConfigClass::C2SinglePipe);
        assert_eq!(t.lanes, 1);
        assert_eq!(t.root.subtree_instrs(), 3);
        assert_eq!(t.root.depth(), 1);
    }

    #[test]
    fn par_of_pipes_is_c1() {
        let mut f1 = IrFunction::new("f1", ParKind::Par);
        for _ in 0..4 {
            f1.body.push(call("f0", ParKind::Pipe));
        }
        let m =
            module_with(vec![pipe_with_instrs("f0", 5), f1, main_dispatching("f1", ParKind::Par)]);
        let t = extract(&m).unwrap();
        assert_eq!(t.class, ConfigClass::C1ParallelPipes);
        assert_eq!(t.lanes, 4);
        assert_eq!(t.root.children.len(), 4);
        assert_eq!(t.root.count_kind(ParKind::Pipe), 4);
    }

    #[test]
    fn coarse_pipeline_detected() {
        let mut top = IrFunction::new("pipeTop", ParKind::Pipe);
        top.body.push(call("pipeA", ParKind::Pipe));
        top.body.push(call("pipeB", ParKind::Pipe));
        let m = module_with(vec![
            pipe_with_instrs("pipeA", 2),
            pipe_with_instrs("pipeB", 3),
            top,
            main_dispatching("pipeTop", ParKind::Pipe),
        ]);
        let t = extract(&m).unwrap();
        assert_eq!(t.class, ConfigClass::CoarsePipe);
        assert_eq!(t.root.subtree_instrs(), 5);
        assert_eq!(t.root.depth(), 2);
    }

    #[test]
    fn par_of_coarse_pipes_is_pattern4() {
        let mut top = IrFunction::new("pipeTop", ParKind::Pipe);
        top.body.push(call("pipeA", ParKind::Pipe));
        top.body.push(call("pipeB", ParKind::Pipe));
        let mut lanes = IrFunction::new("lanes", ParKind::Par);
        lanes.body.push(call("pipeTop", ParKind::Pipe));
        lanes.body.push(call("pipeTop", ParKind::Pipe));
        let m = module_with(vec![
            pipe_with_instrs("pipeA", 2),
            pipe_with_instrs("pipeB", 3),
            top,
            lanes,
            main_dispatching("lanes", ParKind::Par),
        ]);
        let t = extract(&m).unwrap();
        assert_eq!(t.class, ConfigClass::ParCoarsePipe);
        assert_eq!(t.lanes, 2);
    }

    #[test]
    fn pipe_with_comb_child_stays_c2() {
        // Fig 8's pattern: a pipeline where one peer kernel uses a custom
        // combinatorial function.
        let mut cmb = IrFunction::new("combA", ParKind::Comb);
        cmb.body.push(instr("c0"));
        let mut f0 = pipe_with_instrs("f0", 2);
        f0.body.push(call("combA", ParKind::Comb));
        let m = module_with(vec![cmb, f0, main_dispatching("f0", ParKind::Pipe)]);
        let t = extract(&m).unwrap();
        assert_eq!(t.class, ConfigClass::C2SinglePipe);
        assert_eq!(t.root.count_kind(ParKind::Comb), 1);
        assert_eq!(t.root.subtree_instrs(), 3);
    }

    #[test]
    fn par_in_par_unsupported() {
        let mut inner = IrFunction::new("inner", ParKind::Par);
        inner.body.push(call("f0", ParKind::Pipe));
        let mut outer = IrFunction::new("outer", ParKind::Par);
        outer.body.push(call("inner", ParKind::Par));
        let m = module_with(vec![
            pipe_with_instrs("f0", 1),
            inner,
            outer,
            main_dispatching("outer", ParKind::Par),
        ]);
        assert!(matches!(extract(&m), Err(IrError::UnsupportedConfig(_))));
    }

    #[test]
    fn par_inside_pipe_unsupported() {
        let mut lanes = IrFunction::new("lanes", ParKind::Par);
        lanes.body.push(call("f0", ParKind::Pipe));
        let mut top = pipe_with_instrs("top", 1);
        top.body.push(call("lanes", ParKind::Par));
        let m = module_with(vec![
            pipe_with_instrs("f0", 1),
            lanes,
            top,
            main_dispatching("top", ParKind::Pipe),
        ]);
        assert!(matches!(extract(&m), Err(IrError::UnsupportedConfig(_))));
    }

    #[test]
    fn multiple_top_level_dispatches_unsupported() {
        let mut main = IrFunction::new("main", ParKind::Seq);
        main.body.push(call("f0", ParKind::Pipe));
        main.body.push(call("f0", ParKind::Pipe));
        let m = module_with(vec![pipe_with_instrs("f0", 1), main]);
        assert!(matches!(extract(&m), Err(IrError::UnsupportedConfig(_))));
    }

    #[test]
    fn outline_is_indented() {
        let mut f1 = IrFunction::new("f1", ParKind::Par);
        f1.body.push(call("f0", ParKind::Pipe));
        let m =
            module_with(vec![pipe_with_instrs("f0", 2), f1, main_dispatching("f1", ParKind::Par)]);
        let t = extract(&m).unwrap();
        let o = t.root.outline();
        assert!(o.starts_with("par f1 [0 instrs]\n"));
        assert!(o.contains("\n  pipe f0 [2 instrs]\n"));
    }

    /// `f0` calls `f1` `fan` times, and so on down to a leaf `f{levels}`
    /// of one instruction: `(fan^(levels+1) - 1) / (fan - 1)` call paths
    /// from a few hundred bytes of IR.
    fn fan_out(levels: usize, fan: usize, kind: ParKind) -> IrModule {
        let mut fs = vec![pipe_with_instrs(&format!("f{levels}"), 1)];
        for l in (0..levels).rev() {
            let mut f = IrFunction::new(format!("f{l}"), kind);
            for _ in 0..fan {
                f.body.push(call(&format!("f{}", l + 1), ParKind::Pipe));
            }
            fs.push(f);
        }
        fs.push(main_dispatching("f0", kind));
        module_with(fs)
    }

    /// Run `f` on a watchdog thread: a walk that expands every call path
    /// fails the test instead of hanging it.
    fn within_seconds<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(f());
        });
        rx.recv_timeout(std::time::Duration::from_secs(10))
            .expect("the walk finishes within 10 s instead of expanding every call path")
    }

    #[test]
    fn a_fan_out_past_the_node_budget_is_rejected_before_expanding() {
        // 6^12 ≈ 2.2 billion leaf instances of 14 functions.
        let err = within_seconds(|| extract(&fan_out(12, 6, ParKind::Pipe)));
        match err {
            Err(IrError::UnsupportedConfig(msg)) => {
                assert!(msg.contains("more than 65536 configuration nodes"), "{msg}")
            }
            other => panic!("expected the node budget error, got {other:?}"),
        }
        // Six levels (55,987 nodes) stay under the budget and build.
        let tree = extract(&fan_out(6, 6, ParKind::Pipe)).expect("under the budget");
        fn count(n: &ConfigNode) -> u64 {
            1 + n.children.iter().map(count).sum::<u64>()
        }
        assert_eq!(count(&tree.root), 55_987);
        // Lane counting takes each function once: a `par` fan-out has
        // 6^12 lanes, counted without walking them.
        let lanes = within_seconds(|| fan_out(12, 6, ParKind::Par).kernel_lanes());
        assert_eq!(lanes, 6u64.pow(12));
    }

    #[test]
    fn a_recursive_cycle_still_fails_at_the_depth_limit() {
        let mut f = IrFunction::new("f0", ParKind::Pipe);
        f.body.push(call("f0", ParKind::Pipe));
        let m = module_with(vec![f, main_dispatching("f0", ParKind::Pipe)]);
        assert_eq!(
            extract(&m),
            Err(IrError::UnsupportedConfig("configuration nesting deeper than 16 at `f0`".into()))
        );
        assert_eq!(m.kernel_lanes(), 1);
    }

    #[test]
    fn seq_root_classifies_c4() {
        let mut s = IrFunction::new("s0", ParKind::Seq);
        s.body.push(instr("a"));
        let m = module_with(vec![s, main_dispatching("s0", ParKind::Seq)]);
        assert_eq!(extract(&m).unwrap().class, ConfigClass::C4Sequential);
    }
}
