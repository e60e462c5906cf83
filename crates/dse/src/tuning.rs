//! Guided, targeted tuning — the feedback path the paper's limiter
//! output "opens the route to" (§I).
//!
//! Starting from the baseline variant, each step reads the cost model's
//! limiting parameter and applies the corresponding move:
//!
//! * compute-bound → double the lanes (more thread parallelism);
//! * host-bandwidth wall → move Form A → B (stage data in device DRAM);
//! * DRAM-bandwidth wall → try Form C if the working set fits BRAM,
//!   otherwise stop (the wall is fundamental for this kernel);
//! * overhead-bound → halve the lanes (fewer streams to set up);
//! * fill-bound → stop (the kernel is too small to matter).
//!
//! The loop ends when a move yields no EKIT improvement, a move is
//! unavailable, or the variant stops fitting.

use tytra_cost::{CostReport, EstimatorSession, Limiter};
use tytra_device::TargetDevice;
use tytra_ir::MemForm;
use tytra_kernels::EvalKernel;
use tytra_transform::{Variant, VariantFactory};

/// One step of the tuning trajectory.
#[derive(Debug, Clone)]
pub struct TuningStep {
    /// Variant evaluated at this step.
    pub variant: Variant,
    /// Its EKIT.
    pub ekit: f64,
    /// The wall the cost model reported.
    pub limiter: Limiter,
    /// The move taken in response (None on the final step).
    pub action: Option<&'static str>,
}

/// Run the guided loop; returns the trajectory (at least one step).
pub fn tune(
    kernel: &dyn EvalKernel,
    dev: &TargetDevice,
    start: Variant,
    max_steps: usize,
) -> Vec<TuningStep> {
    let mut session = EstimatorSession::new(dev.clone());
    tune_session(kernel, &mut session, start, max_steps)
}

/// [`tune`] through an existing estimator session: successive tuning
/// steps differ by one knob, so nearly every sub-result replays from the
/// memo tables.
pub fn tune_session(
    kernel: &dyn EvalKernel,
    session: &mut EstimatorSession,
    start: Variant,
    max_steps: usize,
) -> Vec<TuningStep> {
    tune_with(&kernel.variant_factory(), session, start, max_steps)
}

/// [`tune_session`] over an existing variant factory: every step is
/// costed as a patch of the factory's shared lowered bases, so a caller
/// that also sweeps and searches (`tybec dse`) lowers each design once.
pub fn tune_with(
    factory: &VariantFactory,
    session: &mut EstimatorSession,
    start: Variant,
    max_steps: usize,
) -> Vec<TuningStep> {
    let mut trajectory = Vec::new();
    let mut current = start;
    let Some(mut report) = cost_of(factory, session, &current) else {
        return trajectory;
    };

    for _ in 0..max_steps {
        let limiter = report.limiter;
        let dev = session.device();
        let Some((next, action)) = next_move(factory, dev, &current, limiter, &report) else {
            trajectory.push(TuningStep {
                variant: current,
                ekit: report.throughput.ekit,
                limiter,
                action: None,
            });
            return trajectory;
        };
        let Some(next_report) = cost_of(factory, session, &next) else {
            trajectory.push(TuningStep {
                variant: current,
                ekit: report.throughput.ekit,
                limiter,
                action: None,
            });
            return trajectory;
        };
        let improved =
            next_report.fits && next_report.throughput.ekit > report.throughput.ekit * 1.001;
        trajectory.push(TuningStep {
            variant: current,
            ekit: report.throughput.ekit,
            limiter,
            action: if improved { Some(action) } else { None },
        });
        if !improved {
            return trajectory;
        }
        current = next;
        report = next_report;
    }
    trajectory.push(TuningStep {
        variant: current,
        ekit: report.throughput.ekit,
        limiter: report.limiter,
        action: None,
    });
    trajectory
}

fn cost_of(
    factory: &VariantFactory,
    session: &mut EstimatorSession,
    v: &Variant,
) -> Option<CostReport> {
    let design = factory.design(v).ok()?;
    session.estimate_design(&design.patched()).ok()
}

fn next_move(
    factory: &VariantFactory,
    dev: &TargetDevice,
    v: &Variant,
    limiter: Limiter,
    report: &CostReport,
) -> Option<(Variant, &'static str)> {
    let ngs = factory.geometry().size();
    match limiter {
        Limiter::Compute => {
            let next = Variant { lanes: v.lanes * 2, ..*v };
            next.is_legal(ngs).then_some((next, "double lanes"))
        }
        Limiter::HostBandwidth => match v.form {
            MemForm::A => {
                Some((Variant { form: MemForm::B, ..*v }, "stage in device DRAM (Form B)"))
            }
            _ => None,
        },
        Limiter::DramBandwidth => {
            // Form C only if the working set fits on-chip.
            let bytes_needed = report.params.total_bytes() as u64;
            let bram_bytes = dev.capacity.bram_bits / 8;
            if v.form != MemForm::C && bytes_needed < bram_bytes / 2 {
                Some((Variant { form: MemForm::C, ..*v }, "move working set on chip (Form C)"))
            } else {
                None
            }
        }
        Limiter::Overhead => {
            if v.lanes > 1 {
                Some((Variant { lanes: v.lanes / 2, ..*v }, "halve lanes (fewer streams)"))
            } else {
                None
            }
        }
        Limiter::OffsetFill | Limiter::PipelineFill => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tytra_device::stratix_v_gsd8;
    use tytra_kernels::Sor;

    #[test]
    fn tuning_starts_from_form_a_and_stages_to_b() {
        // Eight lanes outrun the PCIe link at a large grid, so Form A
        // starts host-bound.
        let sor = Sor::cubic(96, 1000);
        let dev = stratix_v_gsd8();
        let start = Variant { lanes: 8, form: MemForm::A, ..Variant::baseline() };
        let steps = tune(&sor, &dev, start, 10);
        assert!(!steps.is_empty());
        // The host wall must be diagnosed and the Form-B move taken.
        assert_eq!(steps[0].limiter, Limiter::HostBandwidth);
        assert_eq!(steps[0].action, Some("stage in device DRAM (Form B)"));
        assert!(steps.len() >= 2);
        assert_eq!(steps[1].variant.form, MemForm::B);
    }

    #[test]
    fn tuning_monotonically_improves() {
        let sor = Sor::cubic(64, 1000);
        let dev = stratix_v_gsd8();
        let steps = tune(&sor, &dev, Variant::baseline(), 10);
        for w in steps.windows(2) {
            assert!(w[1].ekit > w[0].ekit, "{steps:#?}");
        }
    }

    #[test]
    fn compute_bound_start_adds_lanes() {
        let sor = Sor::cubic(64, 1000);
        let dev = stratix_v_gsd8();
        let steps = tune(&sor, &dev, Variant::baseline(), 10);
        // At least one doubling before any wall.
        assert!(steps.iter().any(|s| s.action == Some("double lanes")), "{steps:#?}");
        // Final variant has more lanes than baseline.
        assert!(steps.last().unwrap().variant.lanes > 1);
    }

    #[test]
    fn trajectory_bounded_by_max_steps() {
        let sor = Sor::cubic(64, 1000);
        let dev = stratix_v_gsd8();
        let steps = tune(&sor, &dev, Variant::baseline(), 3);
        assert!(steps.len() <= 4);
    }

    #[test]
    fn final_step_has_no_action() {
        let sor = Sor::cubic(64, 1000);
        let dev = stratix_v_gsd8();
        let steps = tune(&sor, &dev, Variant::baseline(), 10);
        assert_eq!(steps.last().unwrap().action, None);
    }
}
