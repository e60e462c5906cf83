//! Top-level cost-model entry point: the estimation flow of Fig 11's
//! first three (blue) stages — parse memory/stream objects and accumulate
//! their cost, analyze the functions and determine the configuration,
//! estimate throughput for the configuration type.
//!
//! Since the pass-pipeline refactor both entry points are thin wrappers
//! over a single-use [`EstimatorSession`] — the session *is* the
//! pipeline; these functions just run one module through a cold one.
//! Long-lived callers (the DSE engine, `tybec serve`) hold a session
//! instead and let the memo tables warm up across variants.

use crate::report::CostReport;
use crate::session::EstimatorSession;
use tytra_device::TargetDevice;
use tytra_ir::{IrModule, TybecError};

/// Run the full cost model over a validated design variant.
///
/// The module is re-validated defensively (the estimator walks the call
/// tree and trusts SSA discipline).
pub fn estimate(m: &IrModule, dev: &TargetDevice) -> Result<CostReport, TybecError> {
    estimate_with(m, dev, &crate::CostOptions::default())
}

/// Run the cost model with ablatable ingredients (see
/// [`crate::CostOptions`]); used by the ablation bench.
pub fn estimate_with(
    m: &IrModule,
    dev: &TargetDevice,
    opts: &crate::CostOptions,
) -> Result<CostReport, TybecError> {
    EstimatorSession::with_options(dev.clone(), *opts).estimate(m)
}

/// Off-chip gigabytes per second the run actually exercises, used to
/// scale the dynamic-power term. Degenerate instance times (zero, NaN or
/// infinite, e.g. from a zero-frequency constraint) must not propagate
/// into the reported power figure, so they clamp to zero traffic.
pub(crate) fn exercised_gbytes(total_bytes: f64, t_instance: f64) -> f64 {
    if !t_instance.is_finite() || t_instance <= 0.0 {
        return 0.0;
    }
    let g = total_bytes / t_instance / 1e9;
    if g.is_finite() {
        g
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tytra_device::{eval_small, stratix_v_gsd8};
    use tytra_ir::{MemForm, ModuleBuilder, Opcode, ParKind, ScalarType};

    const T: ScalarType = ScalarType::UInt(18);

    /// A reduced SOR-like stencil: 1 input + 1 output array, 6 offsets,
    /// weighted sum, error reduction.
    fn sor_like(lanes: usize, n: u64, form: MemForm) -> IrModule {
        let side = (n as f64).cbrt().round() as i64;
        let plane = side * side;
        let mut b = ModuleBuilder::new(format!("sor_l{lanes}"));
        if lanes > 1 {
            for l in 0..lanes {
                b.global_input(&format!("p{l}"), T, n / lanes as u64);
                b.global_output(&format!("q{l}"), T, n / lanes as u64);
            }
        } else {
            b.global_input("p", T, n);
            b.global_output("q", T, n);
        }
        {
            let f = b.function("f0", ParKind::Pipe);
            f.input("p", T);
            f.output("q", T);
            let o1 = f.offset("p", T, 1);
            let o2 = f.offset("p", T, -1);
            let o3 = f.offset("p", T, side);
            let o4 = f.offset("p", T, -side);
            let o5 = f.offset("p", T, plane);
            let o6 = f.offset("p", T, -plane);
            let s1 = f.instr(Opcode::Add, T, vec![o1, o2]);
            let s2 = f.instr(Opcode::Add, T, vec![o3, o4]);
            let s3 = f.instr(Opcode::Add, T, vec![o5, o6]);
            let s4 = f.instr(Opcode::Add, T, vec![s1, s2]);
            let s5 = f.instr(Opcode::Add, T, vec![s4, s3]);
            let w = f.instr(Opcode::Mul, T, vec![s5, f.imm(21845)]);
            let p0 = f.arg("p");
            let r = f.instr(Opcode::Add, T, vec![w, p0.clone()]);
            let err = f.instr(Opcode::Sub, T, vec![r.clone(), p0]);
            f.reduce("sorErrAcc", Opcode::Add, T, err);
            f.write_out("q", r);
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
        b.ndrange(&[n]).nki(1000).form(form);
        b.finish().expect("sor_like is valid")
    }

    #[test]
    fn end_to_end_report_is_coherent() {
        let m = sor_like(1, 96 * 96 * 96, MemForm::B);
        let dev = stratix_v_gsd8();
        let r = estimate(&m, &dev).unwrap();
        assert!(r.fits);
        assert!(r.resources.total.aluts > 100);
        assert!(r.resources.breakdown.offset_buffers.bram_bits > 0);
        assert!(r.clock.freq_mhz > 100.0);
        assert!(r.throughput.ekit > 0.0);
        assert!(r.total_runtime_s() > 0.0);
        assert_eq!(r.params.knl, 1);
        let text = r.render();
        assert!(text.contains("EKIT"));
        assert!(text.contains("limiter"));
    }

    #[test]
    fn more_lanes_raise_throughput_until_a_wall() {
        let dev = stratix_v_gsd8();
        let e1 = estimate(&sor_like(1, 96 * 96 * 96, MemForm::B), &dev).unwrap();
        let e4 = estimate(&sor_like(4, 96 * 96 * 96, MemForm::B), &dev).unwrap();
        assert!(e4.throughput.ekit > e1.throughput.ekit);
        // Resources scale roughly with lanes.
        assert!(e4.resources.total.aluts > 3 * e1.resources.total.aluts);
    }

    #[test]
    fn form_a_slower_than_form_b() {
        let dev = stratix_v_gsd8();
        let a = estimate(&sor_like(1, 96 * 96 * 96, MemForm::A), &dev).unwrap();
        let b = estimate(&sor_like(1, 96 * 96 * 96, MemForm::B), &dev).unwrap();
        assert!(b.throughput.ekit > a.throughput.ekit);
        // With enough lanes the datapath outruns the PCIe link and the
        // host wall binds (the Fig 15 "communication wall
        // (host-streams)").
        let a8 = estimate(&sor_like(8, 96 * 96 * 96, MemForm::A), &dev).unwrap();
        assert_eq!(a8.limiter, crate::Limiter::HostBandwidth);
    }

    #[test]
    fn small_device_does_not_fit_many_lanes() {
        let dev = eval_small();
        let r = estimate(&sor_like(16, 96 * 96 * 96, MemForm::B), &dev).unwrap();
        assert!(!r.fits, "16 SOR lanes must blow eval-small: {}", r.resources.total);
        let r1 = estimate(&sor_like(1, 96 * 96 * 96, MemForm::B), &dev).unwrap();
        assert!(r1.fits);
    }

    #[test]
    fn estimate_rejects_invalid_modules() {
        let mut m = sor_like(1, 4096, MemForm::B);
        m.functions.retain(|f| f.name != "main");
        assert!(estimate(&m, &stratix_v_gsd8()).is_err());
    }

    #[test]
    fn exercised_gbytes_guards_degenerate_instance_times() {
        // Normal case: identical to the plain quotient.
        let g = exercised_gbytes(6.0e9, 2.0);
        assert_eq!(g.to_bits(), (6.0e9f64 / 2.0 / 1e9).to_bits());
        // Degenerate instance times clamp to zero traffic instead of
        // leaking NaN/inf into the power model.
        assert_eq!(exercised_gbytes(1.0e9, 0.0), 0.0);
        assert_eq!(exercised_gbytes(1.0e9, -1.0), 0.0);
        assert_eq!(exercised_gbytes(1.0e9, f64::NAN), 0.0);
        assert_eq!(exercised_gbytes(1.0e9, f64::INFINITY), 0.0);
        // Overflow to infinity in the quotient also clamps.
        assert_eq!(exercised_gbytes(f64::INFINITY, 2.0), 0.0);
        assert_eq!(exercised_gbytes(f64::MAX, f64::MIN_POSITIVE), 0.0);
    }

    #[test]
    fn estimator_is_fast() {
        // §VI-A: the Perl prototype evaluates a variant in 0.3 s. The
        // Rust model must stay far under that — microseconds — so the
        // >200× claim over preliminary HLS estimates holds with margin.
        let m = sor_like(4, 96 * 96 * 96, MemForm::B);
        let dev = stratix_v_gsd8();
        let t0 = std::time::Instant::now();
        let n = 100;
        for _ in 0..n {
            let r = estimate(&m, &dev).unwrap();
            assert!(r.throughput.ekit > 0.0);
        }
        let per = t0.elapsed().as_secs_f64() / n as f64;
        assert!(per < 0.05, "estimation took {per} s/variant");
    }
}
