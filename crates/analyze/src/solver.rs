//! Worklist fixpoint solver and per-function effect summaries.
//!
//! The solver is deliberately tiny: analyses model their program points
//! as nodes of a dependence graph, provide a monotone transfer function
//! from the current assignment to a node's new value, and the solver
//! iterates to the least fixpoint with a FIFO worklist. Termination is
//! the analysis's obligation (finite-height lattice, or widening — see
//! [`crate::range`]); every lattice in this crate satisfies it.
//!
//! Effect summaries ([`FnSummary`]) are the interprocedural half: one
//! pass over each function collects what it consumes, defines and
//! forwards, so interprocedural questions (reachability, port liveness)
//! become graph problems over the summaries instead of repeated body
//! walks. The lint passes TL1001/TL1002 are phrased entirely in terms of
//! these summaries.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use tytra_ir::{Dest, IrFunction, IrModule, Stmt};

use crate::lattice::Lattice;

/// Counters from one fixpoint run (reported under `analyze.*` spans and
/// in the `tybec analyze` output).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Number of graph nodes.
    pub nodes: usize,
    /// Worklist pops until the fixpoint (≥ `nodes`: every node is
    /// visited at least once).
    pub iterations: u64,
    /// High-water mark of the worklist.
    pub peak_worklist: usize,
}

impl SolverStats {
    /// Merge another run's counters into this one (used when a report
    /// aggregates several analyses).
    pub fn absorb(&mut self, other: &SolverStats) {
        self.nodes += other.nodes;
        self.iterations += other.iterations;
        self.peak_worklist = self.peak_worklist.max(other.peak_worklist);
    }
}

/// Run a monotone dataflow analysis to its least fixpoint.
///
/// `succs[n]` lists the nodes whose transfer function reads node `n`'s
/// value — the nodes to re-enqueue when `n` changes. `transfer(n, vals)`
/// computes node `n`'s new value from the current assignment; the solver
/// joins it into the old value and propagates only on change. Every node
/// is seeded on the worklist once, in index order, so a transfer that
/// ignores `vals` (an entry fact) still runs.
pub fn solve<L, F>(succs: &[Vec<usize>], mut transfer: F) -> (Vec<L>, SolverStats)
where
    L: Lattice,
    F: FnMut(usize, &[L]) -> L,
{
    let n = succs.len();
    let mut values: Vec<L> = (0..n).map(|_| L::bottom()).collect();
    let mut queued = vec![true; n];
    let mut worklist: VecDeque<usize> = (0..n).collect();
    let mut stats = SolverStats { nodes: n, iterations: 0, peak_worklist: n };

    while let Some(node) = worklist.pop_front() {
        queued[node] = false;
        stats.iterations += 1;
        let out = transfer(node, &values);
        if values[node].join(&out) {
            for &s in &succs[node] {
                if !queued[s] {
                    queued[s] = true;
                    worklist.push_back(s);
                }
            }
            stats.peak_worklist = stats.peak_worklist.max(worklist.len());
        }
    }
    (values, stats)
}

/// What one function's body does to the outside world, collected in a
/// single pass. Summaries replace repeated body walks: a question like
/// "is port `p` live" reads the summary sets instead of re-scanning
/// statements.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FnSummary {
    /// Names the body consumes: instruction operands (local and global),
    /// offset sources and call arguments. A parameter forwarded to a
    /// callee counts as consumed — the callee's own liveness is its own
    /// summary's problem.
    pub consumed: BTreeSet<String>,
    /// Local SSA values the body defines (`Dest::Local`).
    pub defined_values: BTreeSet<String>,
    /// Offset streams the body declares.
    pub defined_offsets: BTreeSet<String>,
    /// Global accumulators the body reduces into (`Dest::Global`).
    pub written_globals: BTreeSet<String>,
    /// Names forwarded as call arguments (a subset of `consumed`).
    pub forwarded: BTreeSet<String>,
    /// Callee names in call order, first occurrence only.
    pub callees: Vec<String>,
}

impl FnSummary {
    /// Collect the summary of one function.
    pub fn of(f: &IrFunction) -> FnSummary {
        let mut s = FnSummary::default();
        for stmt in &f.body {
            match stmt {
                Stmt::Instr(i) => {
                    for o in &i.operands {
                        if let Some(n) = o.name() {
                            s.consumed.insert(n.to_string());
                        }
                    }
                    match &i.dest {
                        Dest::Local(n) => {
                            s.defined_values.insert(n.clone());
                        }
                        Dest::Global(n) => {
                            s.written_globals.insert(n.clone());
                        }
                    }
                }
                Stmt::Offset(o) => {
                    s.consumed.insert(o.src.clone());
                    s.defined_offsets.insert(o.dest.clone());
                }
                Stmt::Call(c) => {
                    for a in &c.args {
                        if let Some(n) = a.name() {
                            s.consumed.insert(n.to_string());
                            s.forwarded.insert(n.to_string());
                        }
                    }
                    if !s.callees.iter().any(|k| k == &c.callee) {
                        s.callees.push(c.callee.clone());
                    }
                }
            }
        }
        s
    }

    /// Whether the body consumes `name`.
    pub fn consumes(&self, name: &str) -> bool {
        self.consumed.contains(name)
    }

    /// Whether the body produces the value of output port `name`: the
    /// `%<name>__out` drain convention, a direct local definition, or
    /// the port forwarded to a callee (which then owns the obligation).
    pub fn writes_port(&self, name: &str) -> bool {
        let drain = format!("{name}__out");
        self.defined_values.contains(&drain)
            || self.defined_values.contains(name)
            || self.forwarded.contains(name)
    }
}

/// Per-function effect summaries for a whole module, in declaration
/// order (keyed by function name; TIRL validation rejects duplicates).
pub fn summaries(m: &IrModule) -> BTreeMap<String, FnSummary> {
    m.functions.iter().map(|f| (f.name.clone(), FnSummary::of(f))).collect()
}

/// Function names reachable from `main`, computed with the boolean
/// lattice over the call graph: `main`'s entry fact is `true`, and a
/// function is reachable when any caller is. Equivalent to the preorder
/// walk in `IrModule::reachable_functions`, but phrased as a dataflow
/// problem so it shares the solver (and its stats) with every other
/// analysis.
pub fn reachable(m: &IrModule) -> (BTreeSet<String>, SolverStats) {
    let index: BTreeMap<&str, usize> =
        m.functions.iter().enumerate().map(|(i, f)| (f.name.as_str(), i)).collect();
    // preds[n] = callers of n; succs[n] = callees of n (reachability
    // flows caller → callee, so a caller's change re-enqueues callees).
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); m.functions.len()];
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); m.functions.len()];
    for (i, f) in m.functions.iter().enumerate() {
        for c in f.calls() {
            if let Some(&j) = index.get(c.callee.as_str()) {
                preds[j].push(i);
                succs[i].push(j);
            }
        }
    }
    let (vals, stats) = solve(&succs, |n, vals: &[bool]| {
        m.functions[n].name == "main" || preds[n].iter().any(|&p| vals[p])
    });
    let set =
        m.functions.iter().zip(&vals).filter(|(_, &r)| r).map(|(f, _)| f.name.clone()).collect();
    (set, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tytra_ir::{Call, Instruction, Opcode, Operand, ParKind, Param, ScalarType, SrcLoc};

    fn call(f: &str, args: Vec<Operand>) -> Stmt {
        Stmt::Call(Call { callee: f.into(), args, kind: ParKind::Pipe, span: SrcLoc::none() })
    }

    /// main → f1 → f0, plus an orphan f2 and a cycle f3 ↔ f4 not
    /// reachable from main.
    fn sample_module() -> IrModule {
        let mut m = IrModule::new("t");
        let mut main = IrFunction::new("main", ParKind::Seq);
        main.body.push(call("f1", vec![Operand::local("p")]));
        let mut f1 = IrFunction::new("f1", ParKind::Par);
        f1.body.push(call("f0", vec![Operand::local("p")]));
        let f0 = IrFunction::new("f0", ParKind::Pipe);
        let f2 = IrFunction::new("f2", ParKind::Pipe);
        let mut f3 = IrFunction::new("f3", ParKind::Pipe);
        f3.body.push(call("f4", vec![]));
        let mut f4 = IrFunction::new("f4", ParKind::Pipe);
        f4.body.push(call("f3", vec![]));
        m.functions = vec![main, f1, f0, f2, f3, f4];
        m
    }

    #[test]
    fn reachability_matches_the_preorder_walk() {
        let m = sample_module();
        let (set, stats) = reachable(&m);
        let expected: BTreeSet<String> =
            m.reachable_functions().iter().map(|f| f.name.clone()).collect();
        assert_eq!(set, expected);
        assert_eq!(set, BTreeSet::from(["main".into(), "f1".into(), "f0".into()]));
        assert_eq!(stats.nodes, 6);
        assert!(stats.iterations >= 6, "every node visited at least once");
    }

    #[test]
    fn unreachable_cycle_stays_bottom() {
        // f3 ↔ f4 support each other but nothing roots them: the least
        // fixpoint keeps both unreachable (a naive greatest-fixpoint
        // formulation would mark them live).
        let (set, _) = reachable(&sample_module());
        assert!(!set.contains("f3"));
        assert!(!set.contains("f4"));
    }

    #[test]
    fn solver_converges_on_a_cycle() {
        // Two nodes feeding each other with a set lattice: the fixpoint
        // is the union of both seeds on both nodes.
        let succs = vec![vec![1], vec![0]];
        let seeds = [BTreeSet::from([1u32]), BTreeSet::from([2u32])];
        let (vals, stats) = solve(&succs, |n, vals: &[BTreeSet<u32>]| {
            let mut out = seeds[n].clone();
            let other = 1 - n;
            out.extend(vals[other].iter().copied());
            out
        });
        assert_eq!(vals[0], BTreeSet::from([1, 2]));
        assert_eq!(vals[1], BTreeSet::from([1, 2]));
        assert!(stats.iterations >= 3, "the cycle forces re-visits");
        assert_eq!(stats.nodes, 2);
    }

    #[test]
    fn summary_collects_all_effect_sets() {
        let mut f = IrFunction::new("f0", ParKind::Pipe);
        f.params.push(Param::input("p", ScalarType::UInt(18)));
        f.params.push(Param::output("q", ScalarType::UInt(18)));
        f.body.push(Stmt::Offset(tytra_ir::OffsetDecl {
            dest: "pp1".into(),
            ty: ScalarType::UInt(18),
            src: "p".into(),
            offset: 1,
            span: SrcLoc::none(),
        }));
        f.body.push(Stmt::Instr(Instruction::new(
            Dest::Local("q__out".into()),
            Opcode::Add,
            ScalarType::UInt(18),
            vec![Operand::local("pp1"), Operand::Imm(1)],
        )));
        f.body.push(Stmt::Instr(Instruction::new(
            Dest::Global("acc".into()),
            Opcode::Add,
            ScalarType::UInt(18),
            vec![Operand::local("q__out"), Operand::global("acc")],
        )));
        let s = FnSummary::of(&f);
        assert!(s.consumes("p") && s.consumes("pp1") && s.consumes("acc"));
        assert!(!s.consumes("q"));
        assert_eq!(s.defined_offsets, BTreeSet::from(["pp1".into()]));
        assert_eq!(s.defined_values, BTreeSet::from(["q__out".into()]));
        assert_eq!(s.written_globals, BTreeSet::from(["acc".into()]));
        assert!(s.writes_port("q"), "drain convention `q__out` writes port q");
        assert!(!s.writes_port("r"));
        assert!(s.callees.is_empty() && s.forwarded.is_empty());
    }

    #[test]
    fn forwarding_counts_as_port_write_and_consumption() {
        let mut f = IrFunction::new("f1", ParKind::Par);
        f.params.push(Param::output("out", ScalarType::UInt(18)));
        f.body.push(call("f0", vec![Operand::local("out")]));
        f.body.push(call("f0", vec![Operand::local("out")]));
        let s = FnSummary::of(&f);
        assert!(s.writes_port("out"), "forwarding hands the obligation to the callee");
        assert!(s.consumes("out"));
        assert_eq!(s.callees, vec!["f0".to_string()], "callees dedup by first occurrence");
    }

    #[test]
    fn module_summaries_are_keyed_by_name() {
        let m = sample_module();
        let sums = summaries(&m);
        assert_eq!(sums.len(), 6);
        assert_eq!(sums["main"].callees, vec!["f1".to_string()]);
        assert_eq!(sums["f1"].callees, vec!["f0".to_string()]);
        assert!(sums["f0"].callees.is_empty());
    }
}
