//! Operating-frequency estimate `FD` (Table I: "device's operating
//! frequency — design-variant dependent — parsing IR").
//!
//! The clock a design closes is bounded by (a) the slowest pipeline stage
//! — for `pipe`/`seq` bodies the worst single functional unit, for `comb`
//! blocks the whole combinational chain along the block's critical path —
//! and (b) routing congestion as the device fills up, modelled as a
//! linear derating of the fabric's base Fmax.

use tytra_device::{ResourceVector, TargetDevice};
use tytra_ir::{Dfg, IrFunction, IrModule, ParKind};

/// Estimated clock and its contributors.
#[derive(Debug, Clone, PartialEq)]
pub struct ClockEstimate {
    /// `FD` in MHz.
    pub freq_mhz: f64,
    /// Worst combinational stage delay found, ns.
    pub max_stage_delay_ns: f64,
    /// Name of the function containing the limiting stage.
    pub limiting_function: String,
}

/// Derate the worst stage delay by fabric utilisation and apply any
/// explicit frequency constraint — the tail of the session clock pass.
pub(crate) fn finish_clock(
    m: &IrModule,
    dev: &TargetDevice,
    worst: (f64, String),
    used: &ResourceVector,
) -> ClockEstimate {
    let util = used.max_utilization(&dev.capacity).min(1.0);
    let freq = dev.clock_mhz(worst.0, util, m.meta.freq_mhz);
    ClockEstimate { freq_mhz: freq, max_stage_delay_ns: worst.0, limiting_function: worst.1 }
}

/// The worst combinational stage *within one function* — the unit the
/// session memoizes under the function's structural fingerprint.
///
/// Combining per-function results across a preorder walk with a strict
/// `>` gives the instruction-level maximum: the same value, and the
/// strict comparison keeps the earliest function on ties.
pub(crate) fn function_worst_stage(
    dev: &TargetDevice,
    f: &IrFunction,
    kind: ParKind,
) -> Option<(f64, String)> {
    match kind {
        ParKind::Pipe | ParKind::Seq => {
            let mut worst: Option<f64> = None;
            for i in f.instrs() {
                let d = dev.ops.stage_delay_ns(i.op, i.ty);
                if worst.is_none_or(|w| d > w) {
                    worst = Some(d);
                }
            }
            worst.map(|d| (d, f.name.clone()))
        }
        ParKind::Comb => {
            // The whole block must settle in one cycle: routing overhead
            // once, plus the chained op delays along the critical path.
            let dfg = Dfg::build(f, &tytra_ir::UnitLatency);
            let path = dfg.critical_path();
            let chain: f64 = path
                .iter()
                .map(|&idx| {
                    let i = &dfg.nodes[idx].instr;
                    dev.ops.op_delay_ns(i.op, i.ty)
                })
                .sum();
            Some((dev.ops.route_delay_ns() + chain, f.name.clone()))
        }
        ParKind::Par => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tytra_device::stratix_v_gsd8;
    use tytra_ir::{ModuleBuilder, Opcode, ParKind, ScalarType};

    const T: ScalarType = ScalarType::UInt(32);

    /// The clock of `m` at a given fabric use: the session's worst stage,
    /// derated by `used` instead of the design's own resources.
    fn clock_at(m: &IrModule, used: &ResourceVector) -> ClockEstimate {
        let dev = stratix_v_gsd8();
        let c = crate::estimate(m, &dev).expect("module costs").clock;
        finish_clock(m, &dev, (c.max_stage_delay_ns, c.limiting_function), used)
    }

    fn clock_of(build: impl FnOnce(&mut ModuleBuilder)) -> ClockEstimate {
        let mut b = ModuleBuilder::new("m");
        b.global_input("x", T, 1024);
        b.global_output("y", T, 1024);
        build(&mut b);
        b.ndrange(&[1024]);
        clock_at(&b.finish_unchecked(), &ResourceVector::ZERO)
    }

    #[test]
    fn pipelined_adds_run_near_base_fmax() {
        let c = clock_of(|b| {
            let f = b.function("f0", ParKind::Pipe);
            f.input("x", T);
            f.output("y", T);
            let x = f.arg("x");
            let v = f.instr(Opcode::Add, T, vec![x, f.imm(1)]);
            f.write_out("y", v);
            b.main_calls("f0");
        });
        assert!(c.freq_mhz > 200.0, "{c:?}");
        assert_eq!(c.limiting_function, "f0");
    }

    #[test]
    fn divider_stage_limits_clock() {
        let div = clock_of(|b| {
            let f = b.function("f0", ParKind::Pipe);
            f.input("x", T);
            f.output("y", T);
            let x = f.arg("x");
            let v = f.instr(Opcode::Div, T, vec![x.clone(), x]);
            f.write_out("y", v);
            b.main_calls("f0");
        });
        let add = clock_of(|b| {
            let f = b.function("f0", ParKind::Pipe);
            f.input("x", T);
            f.output("y", T);
            let x = f.arg("x");
            let v = f.instr(Opcode::Add, T, vec![x.clone(), x]);
            f.write_out("y", v);
            b.main_calls("f0");
        });
        assert!(div.freq_mhz < add.freq_mhz);
        assert!(div.max_stage_delay_ns > add.max_stage_delay_ns);
    }

    #[test]
    fn comb_chain_delays_accumulate() {
        let chained = clock_of(|b| {
            {
                let f = b.function("c0", ParKind::Comb);
                f.input("x", T);
                f.output("y", T);
                let x = f.arg("x");
                // Four chained adds in one combinatorial block.
                let a = f.instr(Opcode::Add, T, vec![x.clone(), x.clone()]);
                let c = f.instr(Opcode::Add, T, vec![a.clone(), x.clone()]);
                let d = f.instr(Opcode::Add, T, vec![c.clone(), x.clone()]);
                let e = f.instr(Opcode::Add, T, vec![d, x]);
                f.write_out("y", e);
            }
            {
                let f = b.function("f0", ParKind::Pipe);
                f.input("x", T);
                f.output("y", T);
                f.call("c0", vec![], ParKind::Comb);
            }
            b.main_calls("f0");
        });
        let single = clock_of(|b| {
            let f = b.function("f0", ParKind::Pipe);
            f.input("x", T);
            f.output("y", T);
            let x = f.arg("x");
            let v = f.instr(Opcode::Add, T, vec![x.clone(), x]);
            f.write_out("y", v);
            b.main_calls("f0");
        });
        assert!(
            chained.max_stage_delay_ns > 2.0 * single.max_stage_delay_ns - 2.1,
            "comb chain {} vs pipe stage {}",
            chained.max_stage_delay_ns,
            single.max_stage_delay_ns
        );
        assert!(chained.freq_mhz < single.freq_mhz);
        assert_eq!(chained.limiting_function, "c0");
    }

    #[test]
    fn utilisation_derates_clock() {
        let mut b = ModuleBuilder::new("m");
        b.global_input("x", T, 64);
        b.global_output("y", T, 64);
        {
            let f = b.function("f0", ParKind::Pipe);
            f.input("x", T);
            f.output("y", T);
            let x = f.arg("x");
            let v = f.instr(Opcode::Add, T, vec![x, f.imm(1)]);
            f.write_out("y", v);
        }
        b.main_calls("f0");
        b.ndrange(&[64]);
        let m = b.finish_unchecked();
        let lo = clock_at(&m, &ResourceVector::ZERO);
        let nearly_full = ResourceVector::new(stratix_v_gsd8().capacity.aluts * 9 / 10, 0, 0, 0);
        let hi = clock_at(&m, &nearly_full);
        assert!(hi.freq_mhz < lo.freq_mhz);
    }

    #[test]
    fn explicit_constraint_wins() {
        let mut b = ModuleBuilder::new("m");
        b.global_input("x", T, 64);
        b.global_output("y", T, 64);
        {
            let f = b.function("f0", ParKind::Pipe);
            f.input("x", T);
            f.output("y", T);
            let x = f.arg("x");
            let v = f.instr(Opcode::Add, T, vec![x, f.imm(1)]);
            f.write_out("y", v);
        }
        b.main_calls("f0");
        b.ndrange(&[64]).freq_mhz(100.0);
        let c = clock_at(&b.finish_unchecked(), &ResourceVector::ZERO);
        assert_eq!(c.freq_mhz, 100.0);
    }
}
