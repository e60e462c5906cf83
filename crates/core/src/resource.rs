//! The resource-utilization cost model (paper section V-A).
//!
//! "We calculate the overall resource-cost of the design by accumulating
//! the cost of individual IR instructions and the structural information
//! implied in the type of each IR function."
//!
//! Per configuration node:
//!
//! * **pipe** — Σ per-instruction functional-unit costs (each replicated
//!   `DV` times), plus the pass-through delay lines the ASAP schedule
//!   implies (Fig 13's `∆` chains), plus one offset buffer per offset
//!   source (window × width bits — spilt to BRAM above a threshold,
//!   registers below it), plus stream-port glue;
//! * **comb** — Σ instruction ALUTs with a single output register layer
//!   (single-cycle block);
//! * **seq** — one functional unit per opcode family (maximum width
//!   instance), a sequencing FSM, and an instruction store;
//! * **par** — Σ children plus per-lane distribution glue.
//!
//! Module level adds stream-control counters per off-chip stream and any
//! `local` memory objects (BRAM).
//!
//! The estimator deliberately allocates offset windows of
//! `max_pos − min_neg + 1` elements (the element under the read head
//! included), which is why Table II's SOR estimate is 5418 bits against a
//! synthesised 5400: the synthesis tool's FIFO drops the in-flight
//! element. Our synthesis emulator reproduces that behaviour.

use tytra_device::{ResourceVector, TargetDevice};
use tytra_ir::{
    ArenaModule, ConfigPlan, Dfg, IrFunction, Opcode, ParKind, PatchedModule, PlanNode, ScalarType,
};
use tytra_trace::bounded::BoundedMap;
use tytra_trace::metrics::Counter;

/// Offset windows at or below this many bits stay in registers; larger
/// windows spill to block RAM (a Stratix ALM yields two pack-able
/// registers — tiny windows are cheaper in fabric).
pub const OFFSET_REG_SPILL_BITS: u64 = 128;

/// Per-stream-port interface glue (ready/valid handshake, FIFO pointers).
const PORT_GLUE_ALUTS: u64 = 8;
/// Stream-control block per off-chip stream: address counter + request
/// generator (the "stream control" of Figs 4 and 13).
const STREAM_CTRL_ALUTS: u64 = 35;
const STREAM_CTRL_REGS: u64 = 48;
/// Lane-distribution glue per `par` child.
const LANE_GLUE_ALUTS: u64 = 30;
/// Sequencer FSM for `seq` functions.
const SEQ_FSM_ALUTS: u64 = 60;
const SEQ_FSM_REGS: u64 = 40;

/// Resource estimate with a per-category breakdown.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ResourceBreakdown {
    /// Functional units implementing datapath instructions.
    pub datapath: ResourceVector,
    /// Pass-through delay lines balancing operand arrival.
    pub delay_lines: ResourceVector,
    /// Offset buffers (stencil windows).
    pub offset_buffers: ResourceVector,
    /// Stream control, port glue, lane distribution, sequencer FSMs.
    pub control: ResourceVector,
    /// On-chip `local` memory objects.
    pub local_memory: ResourceVector,
}

impl ResourceBreakdown {
    /// Sum of all categories.
    pub fn total(&self) -> ResourceVector {
        self.datapath + self.delay_lines + self.offset_buffers + self.control + self.local_memory
    }
}

impl std::ops::Mul<u64> for ResourceBreakdown {
    type Output = ResourceBreakdown;
    fn mul(self, k: u64) -> ResourceBreakdown {
        ResourceBreakdown {
            datapath: self.datapath * k,
            delay_lines: self.delay_lines * k,
            offset_buffers: self.offset_buffers * k,
            control: self.control * k,
            local_memory: self.local_memory * k,
        }
    }
}

impl std::ops::AddAssign<&ResourceBreakdown> for ResourceBreakdown {
    fn add_assign(&mut self, rhs: &ResourceBreakdown) {
        self.datapath += rhs.datapath;
        self.delay_lines += rhs.delay_lines;
        self.offset_buffers += rhs.offset_buffers;
        self.control += rhs.control;
        self.local_memory += rhs.local_memory;
    }
}

/// The resource estimate for a design variant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResourceEstimate {
    /// Grand total.
    pub total: ResourceVector,
    /// Category breakdown.
    pub breakdown: ResourceBreakdown,
    /// Resources of a single lane subtree (before replication) — what the
    /// DSE engine uses to predict wall positions when sweeping lanes.
    pub per_lane: ResourceVector,
}

/// The session resource pass over a flattened [`ConfigPlan`]: a linear
/// scan over the plan's preorder slices, with the module-level terms read
/// from the patch's geometry. Memo misses price the function body through
/// [`function_cost`] on the retained template (the cost depends only on
/// the body, `DV` and the options, all of which are patch-independent).
/// Infallible: the plan only exists when every configuration node's
/// function resolved at arena build time.
///
/// The lane slice is priced once and scaled by the plan's
/// [`lane_replicas`][ConfigPlan::lane_replicas] times the patch's
/// [`lanes`][PatchedModule::lanes] (`u64`, so the multiply
/// equals summing every copy). A per-copy walk would hit the memo for
/// every node of each further copy, and again for the per-lane figure;
/// those hits are counted as such, so the session's counters read as
/// they would after that walk.
pub(crate) fn estimate_plan(
    d: &PatchedModule<'_>,
    plan: &ConfigPlan,
    dev: &TargetDevice,
    opts: &crate::CostOptions,
    mut memo: NodeMemo<'_>,
) -> ResourceEstimate {
    let a = d.arena;
    let dv = u64::from(d.vect.max(1));
    let copies = d.lanes();
    let lane_replicas = plan.lane_replicas * copies;
    let mut acc = ResourceBreakdown::default();
    let mut lane_acc = ResourceBreakdown::default();
    let (before, after) = plan.outer_nodes();
    plan_nodes_cost(a, before, copies, dev, dv, opts, &mut memo, &mut acc);
    plan_nodes_cost(a, plan.lane_nodes(), 1, dev, dv, opts, &mut memo, &mut lane_acc);
    plan_nodes_cost(a, after, 1, dev, dv, opts, &mut memo, &mut acc);
    acc += &(lane_acc.clone() * lane_replicas);
    let lane_lookups = plan.lane_nodes().iter().filter(|n| n.kind != ParKind::Par).count() as u64;
    memo.hits.add(lane_lookups * lane_replicas);
    if !opts.structural_resources {
        acc.delay_lines = ResourceVector::ZERO;
        acc.offset_buffers = ResourceVector::ZERO;
        acc.control = ResourceVector::ZERO;
    }
    if opts.structural_resources {
        // Stream control per off-chip stream; `u64` addition is exact,
        // so one multiply equals a per-port accumulation.
        acc.control +=
            ResourceVector::new(STREAM_CTRL_ALUTS, STREAM_CTRL_REGS, 0, 0) * d.offchip_ports();
    }
    // Local memory objects are BRAM-resident; each of one lane's objects
    // stands for one per lane (`u64`, so the multiply is exact).
    for bits in d.local_mem_bits() {
        acc.local_memory += ResourceVector::new(2, 0, bits, 0) * d.lanes();
    }

    // Per-lane figure: one lane subtree, including its share of stream
    // control (off-chip streams split evenly across lanes when the design
    // declares per-lane ports).
    let ctrl_per_lane = d.offchip_ports().div_ceil((plan.par_lanes * copies).max(1));
    let per_lane = lane_acc.total()
        + ResourceVector::new(STREAM_CTRL_ALUTS, STREAM_CTRL_REGS, 0, 0) * ctrl_per_lane;

    ResourceEstimate { total: acc.total(), breakdown: acc, per_lane }
}

/// Accumulate the cost of a preorder plan slice: `par` nodes price lane
/// glue per child, `copies` times their template child count (no memo
/// traffic), every other node goes through the `(fingerprint, DV)` memo.
///
/// A node's *own* contribution (everything [`function_cost`] computes)
/// depends only on the function body, `DV` and the options, so it is
/// memoized under `(fingerprint, dv)`; `par` glue depends on the tree
/// shape and stays outside the memo. Addition over [`ResourceVector`]s
/// is exact (`u64`), so replaying a cached sub-total is bit-identical to
/// recomputing it.
#[allow(clippy::too_many_arguments)]
fn plan_nodes_cost(
    a: &ArenaModule,
    nodes: &[PlanNode],
    copies: u64,
    dev: &TargetDevice,
    dv: u64,
    opts: &crate::CostOptions,
    memo: &mut NodeMemo<'_>,
    acc: &mut ResourceBreakdown,
) {
    for node in nodes {
        if node.kind == ParKind::Par {
            acc.control += ResourceVector::new(LANE_GLUE_ALUTS, 0, 0, 0)
                * (u64::from(node.n_children) * copies);
            continue;
        }
        let key = (a.fn_fp(node.func), dv);
        if let Some(hit) = memo.table.get(&key) {
            memo.hits.incr();
            *acc += hit;
        } else {
            memo.misses.incr();
            tytra_trace::recorder::mark("estimator.resources", key.0);
            let f = &a.template().functions[node.func.index()];
            let own = function_cost(dev, f, node.kind, dv, opts);
            *acc += &own;
            if memo.table.insert(key, own) {
                memo.evictions.incr();
            }
        }
    }
}

/// Memo handles threaded through the session resource pass. The
/// counters are the session's registry-backed `session.memo.*` set.
pub(crate) struct NodeMemo<'a> {
    pub(crate) table: &'a mut BoundedMap<(u64, u64), ResourceBreakdown>,
    pub(crate) hits: &'a Counter,
    pub(crate) misses: &'a Counter,
    pub(crate) evictions: &'a Counter,
}

/// The cost a single function contributes by itself — no children, no
/// lane glue. This is the unit of memoization for a session.
fn function_cost(
    dev: &TargetDevice,
    f: &IrFunction,
    kind: ParKind,
    dv: u64,
    opts: &crate::CostOptions,
) -> ResourceBreakdown {
    let mut acc = ResourceBreakdown::default();
    match kind {
        ParKind::Pipe => pipe_cost(dev, f, dv, opts, &mut acc),
        ParKind::Comb => comb_cost(dev, f, dv, opts, &mut acc),
        ParKind::Seq => seq_cost(dev, f, &mut acc),
        ParKind::Par => {}
    }
    acc
}

fn pipe_cost(
    dev: &TargetDevice,
    f: &IrFunction,
    dv: u64,
    opts: &crate::CostOptions,
    acc: &mut ResourceBreakdown,
) {
    // Functional units, one per instruction per vector slot.
    for i in f.instrs() {
        let fu =
            if opts.strength_reduction { fu_estimate(dev, i) } else { dev.ops.cost(i.op, i.ty) };
        acc.datapath += fu * dv;
    }
    // Delay lines from the ASAP schedule. Long chains retire into
    // LUT-based shift registers (the calibration toolchain's SRL
    // extraction), trading ~3/4 of the flip-flops for a small LUT cost;
    // short chains stay in registers.
    let dfg = Dfg::build(f, &dev.ops);
    let dl_bits = dfg.delay_line_bits * dv;
    if dl_bits > OFFSET_REG_SPILL_BITS * 2 {
        acc.delay_lines += ResourceVector::new(dl_bits / 8 + 2, dl_bits / 4, 0, 0);
    } else {
        acc.delay_lines += ResourceVector::new(0, dl_bits, 0, 0);
    }
    // Offset buffers: one window per offset source, elements
    // (max_pos − min_neg + 1) wide (see module docs).
    for src in f.offset_sources() {
        let window = f.offset_window(src) + 1;
        let width =
            f.offsets().find(|o| o.src == src).map(|o| u64::from(o.ty.bits())).unwrap_or(18);
        let bits = window * width * dv;
        if bits <= OFFSET_REG_SPILL_BITS {
            acc.offset_buffers += ResourceVector::new(4, bits, 0, 0);
        } else {
            // BRAM window + read/write pointer logic.
            acc.offset_buffers += ResourceVector::new(12, 20, bits, 0);
        }
    }
    // Port glue.
    acc.control += ResourceVector::new(PORT_GLUE_ALUTS * f.params.len() as u64, 0, 0, 0);
}

fn comb_cost(
    dev: &TargetDevice,
    f: &IrFunction,
    dv: u64,
    opts: &crate::CostOptions,
    acc: &mut ResourceBreakdown,
) {
    let mut out_width = 0u64;
    for i in f.instrs() {
        // Combinational block: LUT cost only, no internal pipeline
        // registers.
        let c =
            if opts.strength_reduction { fu_estimate(dev, i) } else { dev.ops.cost(i.op, i.ty) };
        acc.datapath += ResourceVector::new(c.aluts, 0, 0, c.dsps) * dv;
        out_width = out_width.max(u64::from(i.ty.bits()));
    }
    // One register layer at the block's output (it occupies one stage of
    // the parent pipeline).
    acc.datapath += ResourceVector::new(0, out_width * dv, 0, 0);
}

/// Per-instruction estimate with the strength reductions the cost model
/// knows synthesis will perform on constant operands: an integer multiply
/// by a compile-time constant becomes a shift-add network over the
/// constant's set bits (no DSP), constant shifts become wiring, and
/// or/xor/and with zero folds away. This is how Table II's integer SOR
/// estimates zero DSPs.
fn fu_estimate(dev: &TargetDevice, i: &tytra_ir::Instruction) -> ResourceVector {
    use tytra_ir::Operand;
    let base = dev.ops.cost(i.op, i.ty);
    if !i.ty.is_int() {
        return base;
    }
    let imm = i.operands.iter().find_map(|o| match o {
        Operand::Imm(v) => Some(*v),
        _ => None,
    });
    let Some(c) = imm else { return base };
    let w = u64::from(i.ty.bits());
    match i.op {
        Opcode::Mul => {
            let ones = u64::from(c.unsigned_abs().count_ones());
            let adders = ones.saturating_sub(1);
            ResourceVector::new(adders * (w + 2) + 2, base.regs, 0, 0)
        }
        Opcode::Shl | Opcode::Shr => ResourceVector::new(0, base.regs, 0, 0),
        Opcode::Or | Opcode::Xor if c == 0 => ResourceVector::new(0, base.regs, 0, 0),
        _ => base,
    }
}

fn seq_cost(dev: &TargetDevice, f: &IrFunction, acc: &mut ResourceBreakdown) {
    // One functional unit per opcode family: the widest instance wins.
    let mut families: Vec<(Opcode, ScalarType)> = Vec::new();
    for i in f.instrs() {
        match families.iter_mut().find(|(op, _)| *op == i.op) {
            Some((_, ty)) => {
                if i.ty.bits() > ty.bits() {
                    *ty = i.ty;
                }
            }
            None => families.push((i.op, i.ty)),
        }
    }
    for (op, ty) in families {
        acc.datapath += dev.ops.cost(op, ty);
    }
    // (seq PEs time-share full-width units; constant folding does not
    // apply because the shared unit must serve variable operands too.)
    // Sequencer + instruction store (32 bits per instruction).
    acc.control += ResourceVector::new(SEQ_FSM_ALUTS, SEQ_FSM_REGS, 0, 0);
    acc.control += ResourceVector::new(0, 0, f.n_instructions() * 32, 0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use tytra_device::stratix_v_gsd8;
    use tytra_ir::{IrModule, ModuleBuilder, Opcode, ParKind};
    use tytra_trace::metrics::Counter;

    const T: ScalarType = ScalarType::UInt(18);

    fn pipe_module(lanes: usize, window: i64) -> IrModule {
        let mut b = ModuleBuilder::new("m");
        if lanes > 1 {
            for l in 0..lanes {
                b.global_input(&format!("p{l}"), T, 27_000 / lanes as u64);
                b.global_output(&format!("q{l}"), T, 27_000 / lanes as u64);
            }
        } else {
            b.global_input("p", T, 27_000);
            b.global_output("q", T, 27_000);
        }
        {
            let f = b.function("f0", ParKind::Pipe);
            f.input("p", T);
            f.output("q", T);
            let a = f.offset("p", T, window);
            let c = f.offset("p", T, -window);
            let s = f.instr(Opcode::Add, T, vec![a, c]);
            let sm = f.instr(Opcode::Mul, T, vec![s, f.imm(3)]);
            f.write_out("q", sm);
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
        b.ndrange(&[27_000]);
        b.finish_unchecked()
    }

    /// The resource pass over an arena built from `m`, on a cold memo.
    fn estimate(m: &IrModule) -> ResourceEstimate {
        let a = ArenaModule::build(m.clone());
        let plan = a.config().expect("plan extracts");
        let counter = Counter::new();
        let memo = NodeMemo {
            table: &mut BoundedMap::new(64),
            hits: &counter,
            misses: &counter,
            evictions: &counter,
        };
        let opts = crate::CostOptions::default();
        estimate_plan(&a.identity(), plan, &stratix_v_gsd8(), &opts, memo)
    }

    #[test]
    fn offset_window_matches_table2_arithmetic() {
        // SOR-like ±150 window on ui18: estimator books
        // (150 + 150 + 1) × 18 = 5418 BRAM bits — the Table II estimate.
        let m = pipe_module(1, 150);
        let est = estimate(&m);
        assert_eq!(est.breakdown.offset_buffers.bram_bits, 5418);
    }

    #[test]
    fn small_windows_stay_in_registers() {
        let m = pipe_module(1, 3);
        let est = estimate(&m);
        assert_eq!(est.breakdown.offset_buffers.bram_bits, 0);
        assert_eq!(est.breakdown.offset_buffers.regs, 7 * 18);
    }

    #[test]
    fn lanes_replicate_datapath() {
        let e1 = estimate(&pipe_module(1, 150));
        let e4 = estimate(&pipe_module(4, 150));
        assert_eq!(e4.breakdown.datapath, {
            let d = e1.breakdown.datapath;
            d * 4
        });
        assert_eq!(e4.breakdown.offset_buffers.bram_bits, 4 * 5418);
        // Per-lane figure is stable across replication.
        assert_eq!(e1.per_lane.aluts, e4.per_lane.aluts);
    }

    #[test]
    fn vectorization_replicates_fus() {
        let mut m = pipe_module(1, 150);
        m.meta.vect = 2;
        let e2 = estimate(&m);
        let e1 = estimate(&pipe_module(1, 150));
        assert_eq!(e2.breakdown.datapath, e1.breakdown.datapath * 2);
        assert_eq!(e2.breakdown.offset_buffers.bram_bits, 2 * 5418);
    }

    #[test]
    fn stream_control_counted_per_offchip_stream() {
        let e = estimate(&pipe_module(1, 150));
        // Two off-chip streams → two stream-control blocks.
        assert_eq!(e.breakdown.control.regs, 2 * STREAM_CTRL_REGS);
    }

    #[test]
    fn const_multiplier_is_strength_reduced() {
        // `mul %s, 3` → shift-add network: no DSP, popcount(3)−1 = 1
        // adder.
        let e = estimate(&pipe_module(1, 150));
        assert_eq!(e.total.dsps, 0);
    }

    #[test]
    fn variable_multiplier_books_a_dsp() {
        let mut b = ModuleBuilder::new("vm");
        b.global_input("a", T, 64);
        b.global_input("w", T, 64);
        b.global_output("q", T, 64);
        {
            let f = b.function("f0", ParKind::Pipe);
            f.input("a", T);
            f.input("w", T);
            f.output("q", T);
            let a = f.arg("a");
            let w = f.arg("w");
            let p = f.instr(Opcode::Mul, T, vec![a, w]);
            f.write_out("q", p);
        }
        b.main_calls("f0");
        b.ndrange(&[64]);
        let m = b.finish_unchecked();
        let e = estimate(&m);
        assert_eq!(e.total.dsps, 1, "one 18-bit variable multiply → one DSP");
    }

    #[test]
    fn comb_block_has_no_internal_regs() {
        let mut b = ModuleBuilder::new("cmb");
        b.global_input("x", T, 64);
        b.global_output("y", T, 64);
        {
            let f = b.function("c0", ParKind::Comb);
            f.input("x", T);
            f.output("y", T);
            let x = f.arg("x");
            let v = f.instr(Opcode::Add, T, vec![x.clone(), x]);
            f.write_out("y", v);
        }
        {
            let f = b.function("f0", ParKind::Pipe);
            f.input("x", T);
            f.output("y", T);
            f.call("c0", vec![], ParKind::Comb);
        }
        b.main_calls("f0");
        b.ndrange(&[64]);
        let m = b.finish_unchecked();
        let e = estimate(&m);
        // Output register layer only: 18 bits.
        assert_eq!(e.breakdown.datapath.regs, 18);
        assert!(e.breakdown.datapath.aluts > 0);
    }

    #[test]
    fn seq_shares_functional_units() {
        let mut b = ModuleBuilder::new("sq");
        b.global_input("x", T, 64);
        b.global_output("y", T, 64);
        {
            let f = b.function("s0", ParKind::Seq);
            f.input("x", T);
            f.output("y", T);
            let x = f.arg("x");
            // Three adds share one adder in a seq PE.
            let a = f.instr(Opcode::Add, T, vec![x.clone(), f.imm(1)]);
            let c = f.instr(Opcode::Add, T, vec![a.clone(), x.clone()]);
            let d = f.instr(Opcode::Add, T, vec![c, a]);
            f.write_out("y", d);
        }
        b.main_calls("s0");
        b.ndrange(&[64]);
        let m = b.finish_unchecked();
        let dev = stratix_v_gsd8();
        let e = estimate(&m);
        // One adder (20) + one or (9, from write_out) — far less than 4
        // separate units.
        let adder = dev.ops.cost(Opcode::Add, T).aluts;
        let orer = dev.ops.cost(Opcode::Or, T).aluts;
        assert_eq!(e.breakdown.datapath.aluts, adder + orer);
        // Instruction store: 4 instrs × 32 bits.
        assert_eq!(e.breakdown.control.bram_bits, 4 * 32);
    }

    #[test]
    fn breakdown_totals_add_up() {
        let e = estimate(&pipe_module(4, 150));
        assert_eq!(
            e.total,
            e.breakdown.datapath
                + e.breakdown.delay_lines
                + e.breakdown.offset_buffers
                + e.breakdown.control
                + e.breakdown.local_memory
        );
    }
}
