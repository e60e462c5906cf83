//! §VI-A — estimator speed.
//!
//! "The estimator is very fast: the current implementation, although
//! written in Perl, takes only 0.3 seconds to evaluate one variant. This
//! is more than 200× faster than e.g. the preliminary estimates
//! generated by SDAccel which takes close to 70 seconds."
//!
//! We time three evaluators on the same SOR variant: the cost model,
//! the detailed preliminary estimator, and the full virtual-toolchain
//! run (synthesis + cycle simulation). The claim reproduced is the
//! *ratio*: the cost model is ≥ 200× faster than the detailed
//! estimator.

use std::time::Instant;
use tytra_cost::estimate;
use tytra_device::stratix_v_gsd8;
use tytra_hls_baseline::slow_estimate;
use tytra_kernels::{EvalKernel, Sor};
use tytra_sim::run_application;
use tytra_transform::Variant;

/// Timing results, seconds per variant evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct SpeedupResult {
    /// Cost-model time.
    pub cost_model_s: f64,
    /// Detailed preliminary estimator time.
    pub slow_estimator_s: f64,
    /// Full virtual-toolchain run time.
    pub full_run_s: f64,
    /// slow_estimator ÷ cost_model.
    pub ratio_vs_slow: f64,
    /// full_run ÷ cost_model.
    pub ratio_vs_full: f64,
}

/// Measure with enough repetitions to stabilise the fast path.
pub fn run() -> SpeedupResult {
    let sor = Sor::cubic(96, 10);
    let m = sor.lower_variant(&Variant::baseline()).expect("lowers");
    let dev = stratix_v_gsd8();

    // Warm-up.
    let _ = estimate(&m, &dev).expect("estimate");

    let fast_n = 200;
    let t0 = Instant::now();
    for _ in 0..fast_n {
        std::hint::black_box(estimate(&m, &dev).expect("estimate").throughput.ekit);
    }
    let cost_model_s = t0.elapsed().as_secs_f64() / fast_n as f64;

    let t1 = Instant::now();
    std::hint::black_box(slow_estimate(&m, &dev).expect("slow estimate").cpki);
    let slow_estimator_s = t1.elapsed().as_secs_f64();

    let t2 = Instant::now();
    std::hint::black_box(run_application(&m, &dev).expect("run").cpki());
    let full_run_s = t2.elapsed().as_secs_f64();

    SpeedupResult {
        cost_model_s,
        slow_estimator_s,
        full_run_s,
        ratio_vs_slow: slow_estimator_s / cost_model_s,
        ratio_vs_full: full_run_s / cost_model_s,
    }
}

/// Render the experiment.
pub fn render() -> String {
    let r = run();
    format!(
        "== §VI-A: estimator speed (SOR variant, 96³) ==\n\
         cost model          : {:.3e} s/variant (paper's Perl prototype: 0.3 s)\n\
         detailed estimator  : {:.3e} s/variant (paper's SDAccel comparator: ~70 s)\n\
         full virtual run    : {:.3e} s/variant\n\
         speedup vs detailed : {:.0}x (paper claims >200x)\n\
         speedup vs full run : {:.0}x\n",
        r.cost_model_s, r.slow_estimator_s, r.full_run_s, r.ratio_vs_slow, r.ratio_vs_full
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_model_dominates() {
        let r = run();
        assert!(r.cost_model_s < r.slow_estimator_s);
        // Debug builds blunt the constant factors; a release build
        // (`cargo test --release -p tytra-bench --lib speedup`) gates
        // the full gap.
        let floor = if cfg!(debug_assertions) { 20.0 } else { 200.0 };
        assert!(r.ratio_vs_slow > floor, "{r:?}");
        // (ratio_vs_full is reporting-only: the virtual toolchain is
        // itself fast — see EXPERIMENTS.md §VI-A.)
        assert!(r.ratio_vs_full.is_finite());
    }
}
