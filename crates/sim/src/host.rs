//! Whole-application orchestration: what the host does around the
//! kernel-instance loop for each memory-execution form (paper Fig 6),
//! producing end-to-end runtime and energy comparable against the cost
//! model's EKIT-derived figures — and against the paper's §VII case
//! study.

use crate::cycle::{simulate_with_params, CycleStats};
use crate::memory::DramModel;
use crate::power::{meter, PowerReading};
use crate::synth::{synthesize, SynthesisResult};
use tytra_cost::CostParams;
use tytra_device::TargetDevice;
use tytra_ir::{AccessPattern, IrModule, MemForm, TybecError};

/// Result of running a full application (NKI kernel instances).
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Design name.
    pub design: String,
    /// Achieved clock, MHz.
    pub freq_mhz: f64,
    /// Virtual-toolchain output ("actual" resources).
    pub synth: SynthesisResult,
    /// Per-instance device-cycle breakdown ("actual" CPKI in `.total`).
    pub cycles: CycleStats,
    /// Host-side seconds per kernel instance (transfers + invocation).
    pub t_host_per_instance_s: f64,
    /// One-off host seconds (Form B/C staging).
    pub t_host_once_s: f64,
    /// End-to-end seconds per kernel instance.
    pub t_instance_s: f64,
    /// End-to-end runtime for all NKI instances.
    pub t_total_s: f64,
    /// Power-meter observation over the run.
    pub power: PowerReading,
}

impl RunResult {
    /// "Actual" cycles per kernel instance (Table II's CPKI).
    pub fn cpki(&self) -> u64 {
        self.cycles.total
    }
}

/// Synthesize, simulate and orchestrate a validated module end to end.
pub fn run_application(m: &IrModule, dev: &TargetDevice) -> Result<RunResult, TybecError> {
    let synth = synthesize(m, dev)?;
    let params = CostParams::extract(m, dev)?;
    let cycles = simulate_with_params(m, dev, &params, synth.fmax_mhz)?;

    let f_hz = synth.fmax_mhz * 1e6;
    let t_device = cycles.total as f64 / f_hz;

    // Host DMA engine over the host link, mechanistic.
    let host_dma = DramModel {
        peak_bytes_per_s: dev.host_link.peak_bytes_per_s,
        transfer_setup_s: dev.host_link.stream_setup_us * 1e-6,
        // PCIe DMA moves 4 KiB TLP trains, far coarser than DRAM bursts.
        burst_bytes: 4096.0,
        ..DramModel::fig10_baseline()
    };
    let total_bytes = params.total_bytes();
    // Host DMA is always contiguous (whole arrays), one transfer per
    // stream, each paying its own setup — the effect that penalises
    // many-lane variants at small grids (paper §VII).
    let one_full_transfer = if params.n_streams > 0 {
        let per_stream_bytes = total_bytes / params.n_streams as f64;
        params.n_streams as f64
            * host_dma.transfer_time_s(AccessPattern::Contiguous, per_stream_bytes, 4.0)
    } else {
        0.0
    };

    let invoke = dev.host_call_overhead_us * 1e-6;
    let (t_host_per_instance, t_host_once) = match params.form {
        MemForm::A => (one_full_transfer + invoke, 0.0),
        MemForm::B | MemForm::C | MemForm::Tiled { .. } => (invoke, one_full_transfer),
    };

    let t_instance = t_host_per_instance + t_device;
    let t_total = t_host_once + params.nki as f64 * t_instance;
    let power = meter(dev, &synth, &cycles, t_total);

    Ok(RunResult {
        design: m.name.clone(),
        freq_mhz: synth.fmax_mhz,
        synth,
        cycles,
        t_host_per_instance_s: t_host_per_instance,
        t_host_once_s: t_host_once,
        t_instance_s: t_instance,
        t_total_s: t_total,
        power,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tytra_device::stratix_v_gsd8;
    use tytra_ir::{ModuleBuilder, Opcode, ParKind, ScalarType};

    const T: ScalarType = ScalarType::UInt(18);

    fn kernel(form: MemForm, n: u64, nki: u64) -> IrModule {
        let mut b = ModuleBuilder::new(format!("app_{}", form.tag()));
        b.global_input("p", T, n);
        b.global_output("q", T, n);
        {
            let f = b.function("f0", ParKind::Pipe);
            f.input("p", T);
            f.output("q", T);
            let a = f.offset("p", T, 16);
            let c = f.offset("p", T, -16);
            let s = f.instr(Opcode::Add, T, vec![a, c]);
            f.write_out("q", s);
        }
        b.main_calls("f0");
        b.ndrange(&[n]).nki(nki).form(form);
        b.finish().unwrap()
    }

    #[test]
    fn form_a_pays_transfer_per_instance() {
        let dev = stratix_v_gsd8();
        let a = run_application(&kernel(MemForm::A, 1 << 16, 100), &dev).unwrap();
        let b = run_application(&kernel(MemForm::B, 1 << 16, 100), &dev).unwrap();
        assert!(a.t_host_per_instance_s > b.t_host_per_instance_s);
        assert_eq!(a.t_host_once_s, 0.0);
        assert!(b.t_host_once_s > 0.0);
        assert!(a.t_total_s > b.t_total_s);
    }

    #[test]
    fn runtime_scales_with_nki() {
        let dev = stratix_v_gsd8();
        let r100 = run_application(&kernel(MemForm::B, 1 << 14, 100), &dev).unwrap();
        let r1000 = run_application(&kernel(MemForm::B, 1 << 14, 1000), &dev).unwrap();
        let ratio = r1000.t_total_s / r100.t_total_s;
        assert!(ratio > 8.0 && ratio < 11.0, "ratio {ratio}");
    }

    #[test]
    fn energy_and_cpki_populated() {
        let dev = stratix_v_gsd8();
        let r = run_application(&kernel(MemForm::B, 1 << 14, 10), &dev).unwrap();
        assert!(r.cpki() > (1 << 14));
        assert!(r.power.delta_watts > 0.0);
        assert!(r.power.delta_energy_j > 0.0);
        assert!(r.freq_mhz > 50.0);
    }

    #[test]
    fn deterministic_end_to_end() {
        let dev = stratix_v_gsd8();
        let m = kernel(MemForm::B, 1 << 14, 10);
        let a = run_application(&m, &dev).unwrap();
        let b = run_application(&m, &dev).unwrap();
        assert_eq!(a, b);
    }
}
