//! The `bound` pass: an exact fit verdict and an upper bound on EKIT,
//! without the schedule or clock walks over the datapath.
//!
//! A full estimate runs eight passes; most of that cost is the schedule
//! and clock walks. This pass skips both and yields
//!
//! * the **exact** resource total and fit verdict (the resource pass is
//!   memoized integer arithmetic, the same the full estimate runs), and
//! * an **upper bound on EKIT**: a lower bound on `t_instance`, priced
//!   by the throughput pass itself.
//!
//! In place of the schedule, the parameters carry the lane's own
//! initiation interval and instruction count, read off the configuration
//! tree ([`ConfigNode::ii`][tytra_ir::ConfigNode::ii]), with zero
//! pipeline depth and zero delay-line bits: a pipeline with no fill. In
//! place of the clock, [`estimate_throughput`] runs at `max(Fmax, 1)`
//! MHz, which the achieved clock never exceeds
//! ([`TargetDevice::clock_mhz`] derates and clamps downwards only). The
//! bound keeps that estimate's wall terms and drops its fill terms:
//!
//! ```text
//! t_lower = t_host + max(t_memory, t_compute) + t_overhead
//! ```
//!
//! So `t_lower ≤ t_instance` and `ekit ≤ ekit_upper` hold bit for bit;
//! `docs/estimator-internals.md` writes the argument out. Serve's
//! `bound` request returns this verdict.

use crate::bandwidth::BandwidthBreakdown;
use crate::params::CostParams;
use crate::throughput::estimate_throughput;
use tytra_device::{ResourceVector, TargetDevice};

/// The bound pass's verdict on one design.
#[derive(Debug, Clone, PartialEq)]
pub struct CostBound {
    /// Exact resource total: the resource pass is memoized integer
    /// arithmetic, the same the full estimate runs.
    pub resources: ResourceVector,
    /// Exact fit verdict against the device capacity.
    pub fits: bool,
    /// Lower bound on seconds per kernel instance.
    pub t_lower: f64,
    /// Upper bound on EKIT (`1 / t_lower`; `+∞` when `t_lower` is 0).
    pub ekit_upper: f64,
}

/// Assemble the bound from parameters whose schedule has the lane's own
/// II and NI but no depth and no delay lines, and the bandwidth
/// assessment.
pub(crate) fn assemble(
    p: &CostParams,
    dev: &TargetDevice,
    bw: &BandwidthBreakdown,
    resources: ResourceVector,
    fits: bool,
) -> CostBound {
    let t = estimate_throughput(p, dev, bw, dev.fmax_mhz.max(1.0));
    // Form C's main term is t_compute alone, and its t_memory is 0.
    let t_lower = t.t_host + t.t_memory.max(t.t_compute) + t.t_overhead;
    let ekit_upper = if t_lower > 0.0 { 1.0 / t_lower } else { f64::INFINITY };
    CostBound { resources, fits, t_lower, ekit_upper }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::PipelineSchedule;
    use tytra_device::eval_small;
    use tytra_ir::MemForm;

    fn params(form: MemForm, ii: f64) -> CostParams {
        CostParams {
            ngs: 1_000_000,
            nki: 1000,
            nwpt_words: 4,
            bytes_per_item: 16,
            noff: 900,
            noff_bytes: 2700,
            sched: PipelineSchedule { kpd: 0, ii, ni: 12, delay_line_bits_per_lane: 0 },
            knl: 1,
            dv: 1,
            form,
            n_streams: 4,
            local_bytes: 0,
        }
    }

    fn bw() -> BandwidthBreakdown {
        BandwidthBreakdown {
            streams: crate::LaneStreams { lane: Vec::new().into(), lanes: 1 },
            dram_effective: 8.0e9,
            rho_g: 0.21,
            host_effective: 2.4e9,
            rho_h: 0.6,
        }
    }

    #[test]
    fn form_a_bound_charges_host_per_instance() {
        let dev = eval_small();
        let a = assemble(&params(MemForm::A, 1.0), &dev, &bw(), ResourceVector::default(), true);
        let b = assemble(&params(MemForm::B, 1.0), &dev, &bw(), ResourceVector::default(), true);
        assert!(a.t_lower > b.t_lower, "Form A pays the host wall every instance");
        assert!(a.ekit_upper < b.ekit_upper);
    }

    #[test]
    fn seq_ii_tightens_the_compute_floor() {
        let dev = eval_small();
        let pipe = assemble(&params(MemForm::C, 1.0), &dev, &bw(), ResourceVector::default(), true);
        let seq = assemble(&params(MemForm::C, 12.0), &dev, &bw(), ResourceVector::default(), true);
        assert!(seq.t_lower > pipe.t_lower);
    }
}
