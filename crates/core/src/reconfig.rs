//! Run-time reconfiguration costing — the C6 axis of the design-space
//! abstraction (paper Fig 5: "C6 Run-time Reconfiguration", for "cases
//! where a kernel may have too many instructions to fit entirely on the
//! available FPGA resources as a pipeline"). The EKIT measure was
//! explicitly defined "to take into account ... dynamic reconfiguration
//! penalty if applicable" (§V-B); this module supplies that penalty.
//!
//! Model: a design that does not fit is partitioned into `k` successive
//! *personalities* (greedy first-fit over the coarse-pipeline stages, or
//! an even split of a flat pipeline's instructions). Each kernel
//! instance then executes as `k` passes; between passes the fabric is
//! reconfigured and the intermediate stream is staged in device DRAM.
//! Per instance:
//!
//! ```text
//! T_reconf = k·t_swap + Σ_pass (fill + NGS/(F·KNL·DV))
//!            + (k − 1) · 2·NGS·elem_bytes / (GPB·ρ_G)   (stage out + in)
//! ```

use crate::report::CostReport;
use tytra_device::TargetDevice;

/// Reconfiguration-execution estimate for an oversized design.
#[derive(Debug, Clone, PartialEq)]
pub struct ReconfigPlan {
    /// Number of personalities (bitstream partitions).
    pub personalities: u32,
    /// Seconds per fabric swap.
    pub t_swap_s: f64,
    /// Seconds per kernel instance including swaps and DRAM staging.
    pub t_instance_s: f64,
    /// EKIT under reconfiguration.
    pub ekit: f64,
    /// Slowdown versus the (infeasible) fully-resident design.
    pub slowdown: f64,
}

/// Default full-fabric reconfiguration time for a Stratix-V-class part,
/// seconds (CvP/PR regions are faster; this is the conservative figure).
pub const T_SWAP_FULL_S: f64 = 0.1;

/// Plan reconfigured execution for a design whose resource estimate
/// exceeded the device. Returns `None` when even a single instruction
/// set cannot be split (a lone stage already overflows) or when the
/// design fits and needs no reconfiguration.
pub fn plan(report: &CostReport, dev: &TargetDevice) -> Option<ReconfigPlan> {
    if report.fits {
        return None;
    }
    let total = &report.resources.total;
    // Personalities needed on the tightest axis.
    let need = |used: u64, cap: u64| -> u32 {
        if cap == 0 {
            return u32::MAX;
        }
        used.div_ceil(cap) as u32
    };
    let k = need(total.aluts, dev.capacity.aluts)
        .max(need(total.regs, dev.capacity.regs))
        .max(need(total.bram_bits, dev.capacity.bram_bits))
        .max(need(total.dsps, dev.capacity.dsps));
    if k == u32::MAX || k < 2 {
        return None;
    }
    // A pipeline can only split at instruction granularity: give up when
    // a single instruction's share would still overflow (approximated by
    // requiring at least one instruction per personality).
    if u64::from(k) > report.params.sched.ni.max(1) {
        return None;
    }
    Some(plan_with(report, k, T_SWAP_FULL_S))
}

/// Plan with an explicit partition count and swap time (exposed for the
/// DSE engine's what-if queries and for partial-reconfiguration
/// targets).
pub fn plan_with(report: &CostReport, k: u32, t_swap_s: f64) -> ReconfigPlan {
    let p = &report.params;
    let passes = f64::from(k.max(1));
    // Each pass streams all items through its slice of the pipeline.
    let per_pass_fill = f64::from(p.sched.kpd) / passes / (report.clock.freq_mhz * 1e6);
    let per_pass_items = report.throughput.t_compute;
    // Between passes the intermediate stream round-trips DRAM.
    let elem_bytes = (p.bytes_per_item / p.nwpt_words.max(1)).max(1) as f64;
    let staging =
        (passes - 1.0) * 2.0 * p.ngs as f64 * elem_bytes / report.bandwidth.dram_effective.max(1.0);
    let t_instance = passes * (t_swap_s + per_pass_fill + per_pass_items)
        + staging
        + report.throughput.t_host
        + report.throughput.t_overhead;
    let resident = report.throughput.t_instance;
    ReconfigPlan {
        personalities: k,
        t_swap_s,
        t_instance_s: t_instance,
        ekit: 1.0 / t_instance,
        slowdown: t_instance / resident,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate;
    use tytra_device::eval_small;
    use tytra_ir::{IrModule, ModuleBuilder, Opcode, ParKind, ScalarType};

    const T: ScalarType = ScalarType::UInt(18);

    fn big_module(lanes: usize) -> IrModule {
        let mut b = ModuleBuilder::new(format!("big_l{lanes}"));
        let n = 1u64 << 16;
        for l in 0..lanes {
            b.global_input(&format!("x{l}"), T, n / lanes as u64);
            b.global_output(&format!("y{l}"), T, n / lanes as u64);
        }
        {
            let f = b.function("f0", ParKind::Pipe);
            f.input("x", T);
            f.output("y", T);
            let mut cur = f.arg("x");
            for _ in 0..40 {
                let x = f.arg("x");
                cur = f.instr(Opcode::Mul, T, vec![cur, x]);
            }
            f.write_out("y", cur);
        }
        let f = b.function("f1", ParKind::Par);
        for _ in 0..lanes {
            f.call("f0", vec![], ParKind::Pipe);
        }
        b.main_calls("f1");
        b.ndrange(&[n]).nki(10);
        b.finish().unwrap()
    }

    #[test]
    fn fitting_designs_need_no_plan() {
        let dev = eval_small();
        let m = big_module(2);
        let r = estimate(&m, &dev).unwrap();
        if r.fits {
            assert!(plan(&r, &dev).is_none());
        }
    }

    #[test]
    fn oversized_design_gets_a_multi_personality_plan() {
        let dev = eval_small();
        // 16 lanes × 40 multiplies ≫ 3400 ALUTs.
        let m = big_module(16);
        let r = estimate(&m, &dev).unwrap();
        assert!(!r.fits, "premise: oversized");
        let plan = plan(&r, &dev).expect("splittable");
        assert!(plan.personalities >= 2, "{plan:?}");
        assert!(plan.t_instance_s > r.throughput.t_instance);
        assert!(plan.slowdown > 1.0);
        // Swaps dominate small instances: at 0.1 s per swap the instance
        // takes at least k × 0.1 s.
        assert!(plan.t_instance_s >= f64::from(plan.personalities) * T_SWAP_FULL_S);
    }

    #[test]
    fn faster_swaps_recover_throughput() {
        let dev = eval_small();
        let m = big_module(16);
        let r = estimate(&m, &dev).unwrap();
        let full = plan(&r, &dev).unwrap();
        let partial = plan_with(&r, full.personalities, 0.01);
        assert!(partial.t_instance_s < full.t_instance_s);
        assert!(partial.ekit > full.ekit);
    }

    #[test]
    fn more_personalities_cost_more_swaps() {
        let dev = eval_small();
        let m = big_module(16);
        let r = estimate(&m, &dev).unwrap();
        let k2 = plan_with(&r, 2, T_SWAP_FULL_S);
        let k4 = plan_with(&r, 4, T_SWAP_FULL_S);
        assert!(k4.t_instance_s > k2.t_instance_s);
    }
}
