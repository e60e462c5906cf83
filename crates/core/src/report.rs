//! The cost report — everything Fig 2 says the model emits: resource
//! estimates, performance estimate, memory-bandwidth assessment, plus the
//! limiting parameter and a rendered summary.

use crate::bandwidth::BandwidthBreakdown;
use crate::bottleneck::Limiter;
use crate::frequency::ClockEstimate;
use crate::params::CostParams;
use crate::resource::ResourceEstimate;
use crate::throughput::ThroughputEstimate;
use std::fmt;
use tytra_device::resources::Utilization;
use tytra_ir::ConfigClass;

/// Full cost-model output for one design variant on one target.
#[derive(Debug, Clone)]
pub struct CostReport {
    /// Design name (module name).
    pub design: String,
    /// Target name.
    pub target: String,
    /// Extracted Table I parameters.
    pub params: CostParams,
    /// Design-space classification of the configuration (Fig 5).
    pub class: ConfigClass,
    /// Resource estimate and breakdown.
    pub resources: ResourceEstimate,
    /// Resource utilisation fractions against the target.
    pub utilization: Utilization,
    /// Whether the variant fits the device at all.
    pub fits: bool,
    /// Clock estimate.
    pub clock: ClockEstimate,
    /// Bandwidth assessment.
    pub bandwidth: BandwidthBreakdown,
    /// Throughput estimate (EKIT & friends).
    pub throughput: ThroughputEstimate,
    /// The performance-limiting parameter.
    pub limiter: Limiter,
    /// Estimated delta power above idle, W (device power model applied
    /// to the estimated resources, clock and exercised bandwidth).
    pub power_w: f64,
}

impl CostReport {
    /// Total runtime estimate for all `NKI` kernel instances, seconds.
    pub fn total_runtime_s(&self) -> f64 {
        self.throughput.t_instance * self.params.nki as f64
    }

    /// Estimated delta energy above idle over the whole run, joules.
    pub fn total_energy_j(&self) -> f64 {
        self.power_w * self.total_runtime_s()
    }

    /// Convenience: is the variant valid (fits and streams feasible)?
    pub fn is_valid(&self) -> bool {
        self.fits
    }

    /// The configuration tree is not stored (it borrows nothing but is
    /// bulky); re-derive headline lane count.
    pub fn lanes(&self) -> u64 {
        self.params.knl
    }

    /// Render the one-screen summary `tybec` prints.
    pub fn render(&self) -> String {
        let mut s = String::new();
        use std::fmt::Write;
        let _ = writeln!(s, "design   : {}", self.design);
        let _ = writeln!(s, "target   : {}", self.target);
        let _ = writeln!(
            s,
            "config   : {:?}, {} lane(s), DV={}",
            self.class, self.params.knl, self.params.dv
        );
        let _ = writeln!(
            s,
            "resources: {} ({})",
            self.resources.total,
            if self.fits { "fits" } else { "DOES NOT FIT" }
        );
        let _ = writeln!(
            s,
            "utilise  : ALUT {:.1}% REG {:.1}% BRAM {:.1}% DSP {:.1}%",
            self.utilization.aluts * 100.0,
            self.utilization.regs * 100.0,
            self.utilization.bram_bits * 100.0,
            self.utilization.dsps * 100.0
        );
        let _ = writeln!(
            s,
            "clock    : {:.1} MHz (worst stage {:.2} ns in @{})",
            self.clock.freq_mhz, self.clock.max_stage_delay_ns, self.clock.limiting_function
        );
        let _ = writeln!(
            s,
            "bandwidth: rho_G {:.3} ({:.2} GB/s eff), rho_H {:.3} ({:.2} GB/s eff)",
            self.bandwidth.rho_g,
            self.bandwidth.dram_effective / 1e9,
            self.bandwidth.rho_h,
            self.bandwidth.host_effective / 1e9
        );
        let _ = writeln!(
            s,
            "EKIT     : {:.3} kernel-instances/s ({:.3} paper-form), CPKI {:.0}",
            self.throughput.ekit, self.throughput.ekit_paper, self.throughput.cpki
        );
        let _ = writeln!(
            s,
            "runtime  : {:.3} ms/instance, {:.3} s total over NKI={}",
            self.throughput.t_instance * 1e3,
            self.total_runtime_s(),
            self.params.nki
        );
        let _ = writeln!(
            s,
            "power    : {:.1} W estimated delta, {:.2} J over the run",
            self.power_w,
            self.total_energy_j()
        );
        let _ = writeln!(s, "limiter  : {} — {}", self.limiter, self.limiter.tuning_hint());
        s
    }
}

impl fmt::Display for CostReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}
