//! The `bound` pass: admissible analytic bounds for branch-and-bound DSE.
//!
//! A full estimate runs eight passes; most of that cost is the schedule
//! and clock walks over the datapath. This pass prices a variant from
//! the *wall terms* of Eqs 1–3 alone — the memoized per-function
//! resource sums and the bandwidth model — and yields
//!
//! * an **exact** resource total (the resource pass is already
//!   per-function-memoized arithmetic, so the "lower bound" on resource
//!   use per variant family is the exact value — and with it an exact
//!   fit/doesn't-fit verdict), and
//! * an **upper bound on EKIT**: a lower bound on `t_instance` built
//!   from the terms that do not need a schedule or a clock.
//!
//! The time bound drops the fill terms and replaces the compute term by
//! its clock-ceiling floor:
//!
//! ```text
//! t_lower = t_host + max(t_memory, t_compute_floor) + t_overhead
//! t_compute_floor = items_per_lane · II / (max(Fmax, 1) · 1e6)
//! ```
//!
//! `t_host`, `t_memory` and `t_overhead` are computed by the *same
//! expressions* as [`crate::throughput::estimate_throughput`]; the
//! initiation interval `II` is recomputed exactly from the configuration
//! tree (it depends only on the lane subtree's kind and instruction
//! count, not on the scheduled datapath); and the achieved clock can
//! never exceed `max(Fmax, 1)` MHz ([`TargetDevice::clock_mhz`] derates
//! and clamps downwards only). Every dropped term is non-negative and
//! every substituted term is a floor of its exact counterpart under the
//! same floating-point rounding, so `t_lower ≤ t_instance` holds
//! bit-for-bit and `ekit ≤ ekit_upper` — the search never prunes a
//! variant that could have entered the leaderboard. The admissibility
//! argument, including the floating-point monotonicity details, is
//! written out in `docs/dse-search.md`.

use crate::bandwidth::BandwidthBreakdown;
use crate::params::RawGeometry;
use tytra_device::{ResourceVector, TargetDevice};
use tytra_ir::MemForm;

/// The bound pass's verdict on one variant.
#[derive(Debug, Clone, PartialEq)]
pub struct CostBound {
    /// Exact resource total (the per-family lower bound is tight: the
    /// resource pass is memoized integer arithmetic, not an estimate of
    /// an estimate).
    pub resources: ResourceVector,
    /// Exact fit verdict against the device capacity.
    pub fits: bool,
    /// Lower bound on seconds per kernel instance.
    pub t_lower: f64,
    /// Upper bound on EKIT (`1 / t_lower`; `+∞` when `t_lower` is 0, so
    /// a zero-cost bound can never prune).
    pub ekit_upper: f64,
}

impl CostBound {
    /// Can this variant possibly beat an incumbent EKIT? Strict
    /// comparison: an exact tie must still be estimated so deterministic
    /// index tie-breaking sees it. Deliberately `!(a < b)` rather than
    /// `a >= b`: if either side were ever NaN the answer must be "keep"
    /// (estimating too much is safe, pruning too much is a wrong
    /// leaderboard).
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    pub fn can_beat(&self, incumbent_ekit: f64) -> bool {
        !(self.ekit_upper < incumbent_ekit)
    }
}

/// Assemble the bound from the geometry, the bandwidth assessment and
/// the tree-derived initiation interval. `ii` must equal the schedule
/// pass's value (Pipe/Comb/Par lane → 1.0, Seq lane → instruction
/// count); the caller recomputes it from the configuration tree.
pub(crate) fn assemble(
    g: &RawGeometry,
    dev: &TargetDevice,
    bw: &BandwidthBreakdown,
    ii: f64,
    resources: ResourceVector,
    fits: bool,
) -> CostBound {
    let total_bytes = g.total_bytes();

    // Host term — exactly Eq 1-3's host transfer, as in the throughput
    // pass (Form A pays per instance, B/C/Tiled amortise over NKI).
    let host_raw = if bw.host_effective > 0.0 { total_bytes / bw.host_effective } else { 0.0 };
    let t_host = match g.form {
        MemForm::A => host_raw,
        MemForm::B | MemForm::C | MemForm::Tiled { .. } => host_raw / g.nki as f64,
    };

    // Memory term — identical to the throughput pass.
    let t_memory = match g.form {
        MemForm::C => 0.0,
        MemForm::Tiled { .. } => total_bytes / bw.dram_effective.max(1.0) / g.nki as f64,
        _ => {
            if total_bytes == 0.0 {
                0.0
            } else {
                total_bytes / bw.dram_effective.max(1.0)
            }
        }
    };

    // Compute floor: the datapath cannot clock above max(Fmax, 1) MHz,
    // so this divides the same numerator by a ≥ divisor.
    let fd_ceiling = dev.fmax_mhz.max(1.0) * 1e6;
    let t_compute_floor = g.items_per_lane() * ii / fd_ceiling;

    // Overheads — identical to the throughput pass.
    let setup = dev.host_link.stream_setup_us * g.n_streams as f64;
    let t_overhead = match g.form {
        MemForm::A => (dev.host_call_overhead_us + setup) * 1e-6,
        _ => (dev.host_call_overhead_us + setup / g.nki as f64) * 1e-6,
    };

    // Form C's main term is t_compute by construction; for the others it
    // is max(t_memory, t_compute). max(t_memory_as_computed,
    // t_compute_floor) lower-bounds both cases (Form C's t_memory is 0).
    let t_lower = t_host + t_memory.max(t_compute_floor) + t_overhead;
    let ekit_upper = if t_lower > 0.0 { 1.0 / t_lower } else { f64::INFINITY };

    CostBound { resources, fits, t_lower, ekit_upper }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::RawGeometry;
    use tytra_device::eval_small;

    fn geom(form: MemForm) -> RawGeometry {
        RawGeometry {
            ngs: 1_000_000,
            nki: 1000,
            nwpt_words: 4,
            bytes_per_item: 16,
            noff: 900,
            noff_bytes: 2700,
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
    fn zero_time_bound_cannot_prune() {
        let b = CostBound {
            resources: ResourceVector::default(),
            fits: true,
            t_lower: 0.0,
            ekit_upper: f64::INFINITY,
        };
        assert!(b.can_beat(1e300));
    }

    #[test]
    fn exact_tie_is_not_prunable() {
        let dev = eval_small();
        let b = assemble(&geom(MemForm::B), &dev, &bw(), 1.0, ResourceVector::default(), true);
        assert!(b.can_beat(b.ekit_upper), "strict comparison keeps ties");
        assert!(!b.can_beat(b.ekit_upper * (1.0 + 1e-9)));
    }

    #[test]
    fn form_a_bound_charges_host_per_instance() {
        let dev = eval_small();
        let a = assemble(&geom(MemForm::A), &dev, &bw(), 1.0, ResourceVector::default(), true);
        let b = assemble(&geom(MemForm::B), &dev, &bw(), 1.0, ResourceVector::default(), true);
        assert!(a.t_lower > b.t_lower, "Form A pays the host wall every instance");
        assert!(a.ekit_upper < b.ekit_upper);
    }

    #[test]
    fn seq_ii_tightens_the_compute_floor() {
        let dev = eval_small();
        let pipe = assemble(&geom(MemForm::C), &dev, &bw(), 1.0, ResourceVector::default(), true);
        let seq = assemble(&geom(MemForm::C), &dev, &bw(), 12.0, ResourceVector::default(), true);
        assert!(seq.t_lower > pipe.t_lower);
    }
}
