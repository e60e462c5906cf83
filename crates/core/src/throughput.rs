//! The EKIT throughput cost model (paper section V-B, Equations 1–3).
//!
//! EKIT — *Effective Kernel-Instance Throughput* — is kernel-instance
//! executions per second: the reciprocal of the time one kernel instance
//! takes, composed of
//!
//! 1. host ↔ device-DRAM transfer (amortised over `NKI` for Forms B/C),
//! 2. priming the offset stream buffers until the first work-item can be
//!    processed (`Noff`),
//! 3. filling the kernel pipeline (`KPD / FD`),
//! 4. executing all work-items — the larger of the external-memory time
//!    and the datapath time (`max` term); Form C replaces the `max` by
//!    its compute argument since BRAM-resident data can always feed the
//!    pipeline.
//!
//! Two engineering constants extend the paper's expressions so the §VII
//! case-study shapes reproduce: a fixed host invocation overhead and a
//! per-stream DMA setup charge, both per kernel instance and both taken
//! from the target description. Setting them to zero recovers the
//! textbook Eqs 1–3 (`ThroughputEstimate::ekit_paper` reports that form
//! too).

use crate::bandwidth::BandwidthBreakdown;
use crate::params::CostParams;
use tytra_device::TargetDevice;
use tytra_ir::MemForm;

/// The throughput estimate and its term decomposition (all times in
/// seconds, per kernel instance).
#[derive(Debug, Clone, PartialEq)]
pub struct ThroughputEstimate {
    /// Host↔DRAM transfer time (already amortised per form).
    pub t_host: f64,
    /// Offset-buffer priming time.
    pub t_offset_fill: f64,
    /// Pipeline fill time.
    pub t_pipe_fill: f64,
    /// External-memory streaming time for all work-items.
    pub t_memory: f64,
    /// Datapath time for all work-items.
    pub t_compute: f64,
    /// Fixed overheads (host call + per-stream DMA setup).
    pub t_overhead: f64,
    /// Total seconds per kernel instance.
    pub t_instance: f64,
    /// EKIT: kernel instances per second (with overheads).
    pub ekit: f64,
    /// EKIT by the unextended paper expressions (no overhead terms).
    pub ekit_paper: f64,
    /// Estimated cycles per kernel instance (`CPKI`, Table II's
    /// throughput measure): fill + drain + streaming of all work-items at
    /// the datapath rate.
    pub cpki: f64,
    /// Clock used, MHz.
    pub freq_mhz: f64,
}

/// Evaluate the EKIT expression for the design's memory-execution form.
pub fn estimate_throughput(
    p: &CostParams,
    dev: &TargetDevice,
    bw: &BandwidthBreakdown,
    freq_mhz: f64,
) -> ThroughputEstimate {
    let fd = freq_mhz * 1e6; // Hz
    let total_bytes = p.total_bytes();

    // 1. Host transfer term.
    let host_raw = if bw.host_effective > 0.0 { total_bytes / bw.host_effective } else { 0.0 };
    let t_host = match p.form {
        MemForm::A => host_raw,
        // Forms B/C/Tiled move the data once over all NKI instances.
        MemForm::B | MemForm::C | MemForm::Tiled { .. } => host_raw / p.nki as f64,
    };

    // 2. Offset priming (from DRAM; Form C primes from BRAM at fabric
    // speed, effectively one element per cycle).
    let t_offset_fill = match p.form {
        MemForm::C => p.noff as f64 / fd,
        MemForm::Tiled { tiles } => {
            // Each tile re-primes its halo.
            (p.noff_bytes as f64 / bw.dram_effective.max(1.0)) * f64::from(tiles)
        }
        _ => {
            if p.noff_bytes == 0 {
                0.0
            } else {
                p.noff_bytes as f64 / bw.dram_effective.max(1.0)
            }
        }
    };

    // 3. Pipeline fill.
    let fills = match p.form {
        MemForm::Tiled { tiles } => f64::from(tiles),
        _ => 1.0,
    };
    let t_pipe_fill = fills * f64::from(p.sched.kpd) / fd;

    // 4. Main term.
    let t_memory = match p.form {
        MemForm::C => 0.0,
        MemForm::Tiled { .. } => total_bytes / bw.dram_effective.max(1.0) / p.nki as f64,
        _ => {
            if total_bytes == 0.0 {
                0.0
            } else {
                total_bytes / bw.dram_effective.max(1.0)
            }
        }
    };
    let t_compute = p.items_per_lane() * p.sched.ii / fd;
    let t_main = match p.form {
        MemForm::C => t_compute,
        _ => t_memory.max(t_compute),
    };

    // Engineering overheads (see module docs). Form A re-arms every
    // stream's DMA descriptors each kernel call; Forms B/C arm them once
    // at staging time (amortised over NKI).
    let setup = dev.host_link.stream_setup_us * p.n_streams as f64;
    let t_overhead = match p.form {
        MemForm::A => (dev.host_call_overhead_us + setup) * 1e-6,
        _ => (dev.host_call_overhead_us + setup / p.nki as f64) * 1e-6,
    };

    let t_paper = t_host + t_offset_fill + t_pipe_fill + t_main;
    let t_instance = t_paper + t_overhead;

    let cpki = p.noff as f64 + f64::from(p.sched.kpd) + p.items_per_lane() * p.sched.ii;

    ThroughputEstimate {
        t_host,
        t_offset_fill,
        t_pipe_fill,
        t_memory,
        t_compute,
        t_overhead,
        t_instance,
        ekit: 1.0 / t_instance,
        ekit_paper: 1.0 / t_paper,
        cpki,
        freq_mhz,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::CostParams;
    use crate::schedule::PipelineSchedule;
    use tytra_device::stratix_v_gsd8;

    fn params(form: MemForm, knl: u64) -> CostParams {
        CostParams {
            ngs: 1_000_000,
            nki: 1000,
            nwpt_words: 4,
            bytes_per_item: 16,
            noff: 900,
            noff_bytes: 2700,
            sched: PipelineSchedule { kpd: 20, ii: 1.0, ni: 30, delay_line_bits_per_lane: 500 },
            knl,
            dv: 1,
            form,
            n_streams: 4 * knl,
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
    fn form_a_pays_host_every_instance() {
        let dev = stratix_v_gsd8();
        let a = estimate_throughput(&params(MemForm::A, 1), &dev, &bw(), 200.0);
        let b = estimate_throughput(&params(MemForm::B, 1), &dev, &bw(), 200.0);
        assert!((a.t_host - 16.0e6 / 2.4e9).abs() < 1e-12);
        assert!((b.t_host - a.t_host / 1000.0).abs() < 1e-15);
        assert!(b.ekit > a.ekit);
    }

    #[test]
    fn form_b_max_term_picks_binding_constraint() {
        let dev = stratix_v_gsd8();
        // 1 lane at 200 MHz: compute = 1e6/200e6 = 5 ms; memory = 16 MB /
        // 8 GB/s = 2 ms → compute-bound.
        let e = estimate_throughput(&params(MemForm::B, 1), &dev, &bw(), 200.0);
        assert!(e.t_compute > e.t_memory);
        // 8 lanes: compute 0.625 ms → memory-bound.
        let e8 = estimate_throughput(&params(MemForm::B, 8), &dev, &bw(), 200.0);
        assert!(e8.t_memory > e8.t_compute);
        // Lanes only help until the memory wall.
        assert!(e8.ekit < 8.0 * e.ekit);
    }

    #[test]
    fn form_c_is_compute_bound_by_construction() {
        let dev = stratix_v_gsd8();
        let mut p = params(MemForm::C, 1);
        p.n_streams = 0;
        let e = estimate_throughput(&p, &dev, &bw(), 200.0);
        assert_eq!(e.t_memory, 0.0);
        // Offset priming at fabric rate: 900 cycles.
        assert!((e.t_offset_fill - 900.0 / 200.0e6).abs() < 1e-15);
    }

    #[test]
    fn lanes_scale_compute_term() {
        let dev = stratix_v_gsd8();
        let e1 = estimate_throughput(&params(MemForm::C, 1), &dev, &bw(), 200.0);
        let e4 = estimate_throughput(&params(MemForm::C, 4), &dev, &bw(), 200.0);
        assert!((e1.t_compute / e4.t_compute - 4.0).abs() < 1e-9);
    }

    #[test]
    fn paper_form_excludes_overheads() {
        let dev = stratix_v_gsd8();
        let e = estimate_throughput(&params(MemForm::B, 4), &dev, &bw(), 200.0);
        assert!(e.ekit_paper > e.ekit);
        assert!(e.t_overhead > 0.0);
        assert!((1.0 / e.ekit_paper + e.t_overhead - e.t_instance).abs() < 1e-12);
    }

    #[test]
    fn cpki_composition() {
        let dev = stratix_v_gsd8();
        let e = estimate_throughput(&params(MemForm::B, 1), &dev, &bw(), 200.0);
        assert!((e.cpki - (900.0 + 20.0 + 1_000_000.0)).abs() < 1e-6);
    }

    #[test]
    fn tiled_form_interpolates_between_b_and_c() {
        // Tiling only pays off when Form B is memory-bound: use 8 lanes
        // so the datapath outruns the DRAM link.
        let dev = stratix_v_gsd8();
        let b = estimate_throughput(&params(MemForm::B, 8), &dev, &bw(), 200.0);
        let c = {
            let mut p = params(MemForm::C, 8);
            p.n_streams = 0;
            estimate_throughput(&p, &dev, &bw(), 200.0)
        };
        let t = estimate_throughput(&params(MemForm::Tiled { tiles: 64 }, 8), &dev, &bw(), 200.0);
        // Tiled amortises DRAM traffic over NKI like C, so it beats B...
        assert!(t.ekit > b.ekit);
        // ...but pays per-tile refills, so it cannot beat pure C.
        assert!(t.ekit_paper < c.ekit_paper);
    }

    #[test]
    fn higher_clock_helps_compute_bound_designs() {
        let dev = stratix_v_gsd8();
        let slow = estimate_throughput(&params(MemForm::C, 1), &dev, &bw(), 100.0);
        let fast = estimate_throughput(&params(MemForm::C, 1), &dev, &bw(), 250.0);
        assert!(fast.ekit > slow.ekit);
    }
}
