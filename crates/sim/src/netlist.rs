//! Elaboration of a TyTra-IR design variant into a netlist of physical
//! components — the structure the synthesis emulator prices and the
//! Verilog emitter mirrors (paper Fig 11, "Generate Core(s)" onwards).

use tytra_device::TargetDevice;
use tytra_ir::{
    config_tree, ConfigNode, Dfg, IrError, IrModule, Opcode, ParKind, ScalarType, TybecError,
};

/// What a component physically is.
#[derive(Debug, Clone, PartialEq)]
pub enum ComponentKind {
    /// A pipelined functional unit implementing one SSA instruction.
    FunctionalUnit {
        /// Operation implemented.
        op: Opcode,
        /// Element type.
        ty: ScalarType,
        /// A constant operand, if the instruction has one (synthesis
        /// strength-reduces around it).
        const_operand: Option<i64>,
        /// Pipeline latency in cycles.
        latency: u32,
    },
    /// The pass-through delay lines of one pipe body (aggregate bits).
    DelayLine {
        /// Total shift-register bits.
        bits: u64,
    },
    /// An offset FIFO over a stream: `window` elements of `width` bits.
    OffsetBuffer {
        /// Elements held (synthesis allocates the bare window; the cost
        /// model books one extra in-flight element — see DESIGN.md §6).
        window: u64,
        /// Element width in bits.
        width: u16,
    },
    /// Per-stream address/burst controller.
    StreamController,
    /// Lane-distribution glue in a `par` composition.
    LaneGlue,
    /// Sequencer FSM + instruction store for a `seq` PE.
    Sequencer {
        /// Instructions stored.
        n_instrs: u64,
    },
    /// Output register layer of an inlined `comb` block.
    CombOutputReg {
        /// Register width.
        width: u16,
    },
    /// An on-chip `local` memory object.
    LocalMemory {
        /// Bits stored.
        bits: u64,
    },
}

/// One netlist component with its provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct Component {
    /// Which function it elaborated from.
    pub function: String,
    /// Physical kind.
    pub kind: ComponentKind,
    /// Lane index (0 for single-lane designs; components shared across
    /// lanes use 0).
    pub lane: u32,
}

/// The elaborated design.
#[derive(Debug, Clone, PartialEq)]
pub struct Netlist {
    /// Design name.
    pub design: String,
    /// All components.
    pub components: Vec<Component>,
    /// Lanes elaborated.
    pub lanes: u64,
}

impl Netlist {
    /// Elaborate a validated module against a target (the target supplies
    /// latencies for FU instantiation).
    pub fn elaborate(m: &IrModule, dev: &TargetDevice) -> Result<Netlist, TybecError> {
        let tree = config_tree::extract(m)?;
        let mut components = Vec::new();
        let mut lane_counter = 0u32;
        elaborate_node(m, dev, &tree.root, &mut lane_counter, 0, &mut components)?;

        // Module-level stream controllers (one per off-chip stream) and
        // local memories.
        let links = m.manage_links();
        for p in 0..m.ports.len() {
            if links.port_offchip(p) {
                components.push(Component {
                    function: "main".into(),
                    kind: ComponentKind::StreamController,
                    lane: 0,
                });
            }
        }
        for mem in &m.mems {
            if !mem.space.is_offchip() {
                components.push(Component {
                    function: "main".into(),
                    kind: ComponentKind::LocalMemory { bits: mem.bits() },
                    lane: 0,
                });
            }
        }
        Ok(Netlist { design: m.name.clone(), components, lanes: tree.lanes })
    }

    /// Count components of a given predicate.
    pub fn count(&self, pred: impl Fn(&ComponentKind) -> bool) -> usize {
        self.components.iter().filter(|c| pred(&c.kind)).count()
    }
}

fn elaborate_node(
    m: &IrModule,
    dev: &TargetDevice,
    node: &ConfigNode,
    lane_counter: &mut u32,
    lane: u32,
    out: &mut Vec<Component>,
) -> Result<(), IrError> {
    let f = m
        .function(&node.function)
        .ok_or_else(|| IrError::Unknown { kind: "function", name: node.function.clone() })?;
    let dv = u64::from(m.meta.vect.max(1));
    match node.kind {
        ParKind::Pipe => {
            let dfg = Dfg::build(f, &dev.ops);
            for _slot in 0..dv {
                for n in &dfg.nodes {
                    let i = &n.instr;
                    let const_operand = i.operands.iter().find_map(|o| match o {
                        tytra_ir::Operand::Imm(v) => Some(*v),
                        _ => None,
                    });
                    out.push(Component {
                        function: f.name.clone(),
                        kind: ComponentKind::FunctionalUnit {
                            op: i.op,
                            ty: i.ty,
                            const_operand,
                            latency: dev.ops.latency(i.op, i.ty),
                        },
                        lane,
                    });
                }
                if dfg.delay_line_bits > 0 {
                    out.push(Component {
                        function: f.name.clone(),
                        kind: ComponentKind::DelayLine { bits: dfg.delay_line_bits },
                        lane,
                    });
                }
                for src in f.offset_sources() {
                    let window = f.offset_window(src);
                    let width =
                        f.offsets().find(|o| o.src == src).map(|o| o.ty.bits()).unwrap_or(18);
                    out.push(Component {
                        function: f.name.clone(),
                        kind: ComponentKind::OffsetBuffer { window, width },
                        lane,
                    });
                }
            }
            for c in &node.children {
                elaborate_node(m, dev, c, lane_counter, lane, out)?;
            }
        }
        ParKind::Comb => {
            let mut out_width = 0u16;
            for i in f.instrs() {
                let const_operand = i.operands.iter().find_map(|o| match o {
                    tytra_ir::Operand::Imm(v) => Some(*v),
                    _ => None,
                });
                out.push(Component {
                    function: f.name.clone(),
                    kind: ComponentKind::FunctionalUnit {
                        op: i.op,
                        ty: i.ty,
                        const_operand,
                        latency: 0, // combinatorial
                    },
                    lane,
                });
                out_width = out_width.max(i.ty.bits());
            }
            out.push(Component {
                function: f.name.clone(),
                kind: ComponentKind::CombOutputReg { width: out_width },
                lane,
            });
        }
        ParKind::Seq => {
            out.push(Component {
                function: f.name.clone(),
                kind: ComponentKind::Sequencer { n_instrs: f.n_instructions() },
                lane,
            });
            // Shared functional units, one per opcode family.
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
                out.push(Component {
                    function: f.name.clone(),
                    kind: ComponentKind::FunctionalUnit {
                        op,
                        ty,
                        const_operand: None,
                        latency: dev.ops.latency(op, ty),
                    },
                    lane,
                });
            }
            for c in &node.children {
                elaborate_node(m, dev, c, lane_counter, lane, out)?;
            }
        }
        ParKind::Par => {
            for c in &node.children {
                *lane_counter += 1;
                let this_lane = *lane_counter;
                out.push(Component {
                    function: f.name.clone(),
                    kind: ComponentKind::LaneGlue,
                    lane: this_lane,
                });
                elaborate_node(m, dev, c, lane_counter, this_lane, out)?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tytra_device::stratix_v_gsd8;
    use tytra_ir::{ModuleBuilder, ParKind};

    const T: ScalarType = ScalarType::UInt(18);

    fn stencil(lanes: usize) -> IrModule {
        let mut b = ModuleBuilder::new("nl");
        if lanes > 1 {
            for l in 0..lanes {
                b.global_input(&format!("p{l}"), T, 1024);
                b.global_output(&format!("q{l}"), T, 1024);
            }
        } else {
            b.global_input("p", T, 1024);
            b.global_output("q", T, 1024);
        }
        {
            let f = b.function("f0", ParKind::Pipe);
            f.input("p", T);
            f.output("q", T);
            let a = f.offset("p", T, 32);
            let c = f.offset("p", T, -32);
            let s = f.instr(Opcode::Add, T, vec![a, c]);
            let w = f.instr(Opcode::Mul, T, vec![s, f.imm(5)]);
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
        b.ndrange(&[1024]);
        b.finish().unwrap()
    }

    #[test]
    fn single_lane_component_census() {
        let m = stencil(1);
        let nl = Netlist::elaborate(&m, &stratix_v_gsd8()).unwrap();
        assert_eq!(nl.lanes, 1);
        assert_eq!(
            nl.count(|k| matches!(k, ComponentKind::FunctionalUnit { .. })),
            3,
            "add, mul, or"
        );
        assert_eq!(nl.count(|k| matches!(k, ComponentKind::OffsetBuffer { .. })), 1);
        assert_eq!(nl.count(|k| matches!(k, ComponentKind::StreamController)), 2);
        // The constant multiply is recorded for strength reduction.
        let has_const_mul = nl.components.iter().any(|c| {
            matches!(
                c.kind,
                ComponentKind::FunctionalUnit { op: Opcode::Mul, const_operand: Some(5), .. }
            )
        });
        assert!(has_const_mul);
    }

    #[test]
    fn lanes_replicate_and_are_labelled() {
        let m = stencil(4);
        let nl = Netlist::elaborate(&m, &stratix_v_gsd8()).unwrap();
        assert_eq!(nl.lanes, 4);
        assert_eq!(nl.count(|k| matches!(k, ComponentKind::FunctionalUnit { .. })), 12);
        assert_eq!(nl.count(|k| matches!(k, ComponentKind::OffsetBuffer { .. })), 4);
        assert_eq!(nl.count(|k| matches!(k, ComponentKind::LaneGlue)), 4);
        assert_eq!(nl.count(|k| matches!(k, ComponentKind::StreamController)), 8);
        let max_lane = nl.components.iter().map(|c| c.lane).max().unwrap();
        assert_eq!(max_lane, 4);
    }

    #[test]
    fn offset_buffer_window_is_bare_window() {
        // Synthesis allocates max_pos − min_neg = 64 elements (the cost
        // model books 65 — the deliberate Table II discrepancy).
        let m = stencil(1);
        let nl = Netlist::elaborate(&m, &stratix_v_gsd8()).unwrap();
        let window = nl
            .components
            .iter()
            .find_map(|c| match c.kind {
                ComponentKind::OffsetBuffer { window, .. } => Some(window),
                _ => None,
            })
            .unwrap();
        assert_eq!(window, 64);
    }

    #[test]
    fn vectorization_replicates_fus() {
        let mut m = stencil(1);
        m.meta.vect = 2;
        let nl = Netlist::elaborate(&m, &stratix_v_gsd8()).unwrap();
        assert_eq!(nl.count(|k| matches!(k, ComponentKind::FunctionalUnit { .. })), 6);
    }
}
