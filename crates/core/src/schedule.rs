//! Datapath scheduling: pipeline depth (`KPD`), initiation interval and
//! structural register accounting across the configuration hierarchy.

use tytra_device::TargetDevice;
use tytra_ir::{ConfigNode, Dfg, IrError, IrModule, ParKind};

/// The scheduled shape of one design variant's processing element(s).
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineSchedule {
    /// `KPD`: kernel pipeline depth in cycles — fill latency before the
    /// first result emerges. Coarse pipelines add their stages' depths;
    /// parallel lanes take the maximum.
    pub kpd: u32,
    /// Initiation interval: cycles between successive work-items entering
    /// one lane (1 for a full pipeline, `NI` for `seq` bodies). This is
    /// the paper's `NTO · NI` product.
    pub ii: f64,
    /// `NI`: datapath instructions per processing element (one lane's
    /// subtree).
    pub ni: u64,
    /// Pass-through delay-line bits over the lane subtree (the `∆` chains
    /// of Fig 13), before lane replication.
    pub delay_line_bits_per_lane: u64,
}

/// Schedule the lane subtree ([`ConfigNode::lane`]) of the module's
/// configuration tree with the device's latency calibration. The
/// schedule depends only on that subtree (not on `DV` or lane count),
/// which is why a session memoizes it under the subtree fingerprint.
pub(crate) fn schedule(
    m: &IrModule,
    dev: &TargetDevice,
    tree: &ConfigNode,
) -> Result<PipelineSchedule, IrError> {
    let lane = tree.lane();
    let (kpd, delay_bits) = depth_of(m, dev, lane)?;
    Ok(PipelineSchedule {
        kpd,
        ii: lane.ii(),
        ni: lane.subtree_instrs(),
        delay_line_bits_per_lane: delay_bits,
    })
}

/// Recursive pipeline depth + delay-line bits of a subtree.
fn depth_of(m: &IrModule, dev: &TargetDevice, node: &ConfigNode) -> Result<(u32, u64), IrError> {
    let f = m
        .function(&node.function)
        .ok_or_else(|| IrError::Unknown { kind: "function", name: node.function.clone() })?;
    match node.kind {
        ParKind::Pipe => {
            let dfg = Dfg::build(f, &dev.ops);
            let mut depth = dfg.depth;
            let mut bits = dfg.delay_line_bits;
            for c in &node.children {
                match c.kind {
                    // A comb block inlines as one extra stage.
                    ParKind::Comb => depth += 1,
                    _ => {
                        let (d, b) = depth_of(m, dev, c)?;
                        depth += d;
                        bits += b;
                    }
                }
            }
            Ok((depth, bits))
        }
        ParKind::Comb => Ok((1, 0)),
        ParKind::Seq => {
            // A sequential PE's "fill" is one pass over its instructions.
            Ok((f.n_instructions().max(1) as u32, 0))
        }
        ParKind::Par => {
            // Lanes fill concurrently: the slowest decides.
            let mut depth = 0;
            let mut bits = 0;
            for c in &node.children {
                let (d, b) = depth_of(m, dev, c)?;
                depth = depth.max(d);
                bits = bits.max(b);
            }
            Ok((depth, bits))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tytra_device::stratix_v_gsd8;
    use tytra_ir::{config_tree, ModuleBuilder, Opcode, ParKind, ScalarType};

    const T: ScalarType = ScalarType::UInt(18);

    fn chain_module(lanes: usize) -> IrModule {
        let mut b = ModuleBuilder::new("m");
        b.global_input("x", T, 1 << 12);
        b.global_output("y", T, 1 << 12);
        {
            let f = b.function("f0", ParKind::Pipe);
            f.input("x", T);
            f.output("y", T);
            let x = f.arg("x");
            let m1 = f.instr(Opcode::Mul, T, vec![x.clone(), f.imm(3)]);
            let a1 = f.instr(Opcode::Add, T, vec![m1, x]);
            f.write_out("y", a1);
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
        b.ndrange(&[1 << 12]);
        b.finish_unchecked()
    }

    #[test]
    fn single_pipe_depth_and_ii() {
        let m = chain_module(1);
        let dev = stratix_v_gsd8();
        let tree = config_tree::extract(&m).unwrap();
        let s = schedule(&m, &dev, &tree.root).unwrap();
        // mul(2) → add(1) → or(1): depth 4.
        assert_eq!(s.kpd, 4);
        assert_eq!(s.ii, 1.0);
        assert_eq!(s.ni, 3);
        // x waits 2 cycles for the mul; a1 feeds or directly.
        assert!(s.delay_line_bits_per_lane >= 2 * 18);
    }

    #[test]
    fn par_lanes_fill_concurrently() {
        let dev = stratix_v_gsd8();
        let m1 = chain_module(1);
        let m4 = chain_module(4);
        let t1 = config_tree::extract(&m1).unwrap();
        let t4 = config_tree::extract(&m4).unwrap();
        let s1 = schedule(&m1, &dev, &t1.root).unwrap();
        let s4 = schedule(&m4, &dev, &t4.root).unwrap();
        assert_eq!(s1.kpd, s4.kpd, "KPD is per lane, not per design");
        assert_eq!(s4.ni, s1.ni, "NI is per PE");
    }

    #[test]
    fn coarse_pipe_adds_depths() {
        let mut b = ModuleBuilder::new("coarse");
        b.global_input("x", T, 64);
        b.global_output("y", T, 64);
        {
            let f = b.function("stageA", ParKind::Pipe);
            f.input("x", T);
            f.output("y", T);
            let x = f.arg("x");
            let v = f.instr(Opcode::Add, T, vec![x, f.imm(1)]);
            f.write_out("y", v);
        }
        {
            let f = b.function("stageB", ParKind::Pipe);
            f.input("x", T);
            f.output("y", T);
            let x = f.arg("x");
            let v = f.instr(Opcode::Mul, T, vec![x, f.imm(5)]);
            f.write_out("y", v);
        }
        {
            let f = b.function("top", ParKind::Pipe);
            f.input("x", T);
            f.output("y", T);
            f.call("stageA", vec![], ParKind::Pipe);
            f.call("stageB", vec![], ParKind::Pipe);
        }
        b.main_calls("top");
        b.ndrange(&[64]);
        let m = b.finish_unchecked();
        let dev = stratix_v_gsd8();
        let tree = config_tree::extract(&m).unwrap();
        let s = schedule(&m, &dev, &tree.root).unwrap();
        // stageA: add+or = 2; stageB: mul(2)+or = 3; top itself: 0.
        assert_eq!(s.kpd, 5);
        assert_eq!(s.ni, 4);
    }

    #[test]
    fn seq_ii_equals_ni() {
        let mut b = ModuleBuilder::new("seq");
        b.global_input("x", T, 64);
        b.global_output("y", T, 64);
        {
            let f = b.function("s0", ParKind::Seq);
            f.input("x", T);
            f.output("y", T);
            let x = f.arg("x");
            let a = f.instr(Opcode::Add, T, vec![x.clone(), f.imm(1)]);
            let c = f.instr(Opcode::Mul, T, vec![a, x]);
            f.write_out("y", c);
        }
        b.main_calls("s0");
        b.ndrange(&[64]);
        let m = b.finish_unchecked();
        let dev = stratix_v_gsd8();
        let tree = config_tree::extract(&m).unwrap();
        let s = schedule(&m, &dev, &tree.root).unwrap();
        assert_eq!(s.ni, 3);
        assert_eq!(s.ii, 3.0);
        assert_eq!(s.kpd, 3);
    }
}
