//! # tytra-kernels — the evaluation kernels
//!
//! The three HPC scientific kernels of the paper's evaluation
//! (section VI-B, Table II):
//!
//! 1. [`sor`] — the successive over-relaxation kernel from the LES
//!    weather simulator (iteratively solves the Poisson equation for the
//!    pressure; the main computation is a stencil over the six cardinal
//!    neighbours);
//! 2. [`hotspot`] — the Rodinia Hotspot benchmark (processor temperature
//!    from an architectural floorplan and simulated power);
//! 3. [`lavamd`] — the Rodinia LavaMD molecular-dynamics kernel
//!    (particle potential/relocation from mutual forces within a 3-D
//!    neighbourhood).
//!
//! A fourth kernel, [`triad`] (the STREAM benchmark the paper's §V-C
//! extends), serves as the canonical memory-bound probe.
//!
//! Each module provides the kernel as a front-end [`KernelDef`]
//! (integer version, as evaluated in the paper), a plain-Rust reference
//! implementation with identical boundary semantics, and a deterministic
//! workload generator. The integration tests check lowered-IR execution
//! against the references element-for-element.
//!
//! [`KernelDef`]: tytra_transform::KernelDef

pub mod common;
pub mod hotspot;
pub mod lavamd;
pub mod sor;
pub mod triad;

pub use hotspot::Hotspot;
pub use lavamd::LavaMd;
pub use sor::Sor;
pub use triad::StreamTriad;

use std::collections::HashMap;
use tytra_ir::{IrError, IrModule};
use tytra_transform::lower::Geometry;
use tytra_transform::{lower, KernelDef, Variant, VariantFactory};

/// Common interface over the three evaluation kernels. `Sync` so sweep
/// drivers can cost variants from worker threads.
pub trait EvalKernel: Sync {
    /// Kernel name as used in reports.
    fn name(&self) -> &'static str;

    /// The front-end definition (integer version).
    fn kernel_def(&self) -> KernelDef;

    /// NDRange + iteration geometry of the standard workload.
    fn geometry(&self) -> Geometry;

    /// Deterministic input arrays for the standard workload (keyed by
    /// stream name, one element per work-item).
    fn workload(&self) -> HashMap<String, Vec<f64>>;

    /// Reference CPU implementation over the workload: output arrays and
    /// reduction values (must equal `kernel_def().eval_reference`, but is
    /// written as the natural nested-loop code — the cross-check is a
    /// test).
    fn reference(
        &self,
        inputs: &HashMap<String, Vec<f64>>,
    ) -> (HashMap<String, Vec<f64>>, HashMap<String, f64>);

    /// Approximate integer-op count per work-item of the natural CPU
    /// code (drives the CPU baseline timing model). Uses the lowered,
    /// CSE-shared instruction count — the compiler shares subexpressions
    /// just as the hardware datapath does — plus loop/index overhead.
    fn cpu_ops_per_item(&self) -> u64 {
        let lowered = self
            .lower_variant(&Variant::baseline())
            .map(|m| m.function("f0").map(|f| f.n_instructions()).unwrap_or(0))
            .unwrap_or_else(|_| self.kernel_def().n_ops());
        lowered + 4 // loop control and index arithmetic
    }

    /// Lower the kernel under a variant.
    fn lower_variant(&self, variant: &Variant) -> Result<IrModule, IrError> {
        lower(&self.kernel_def(), &self.geometry(), variant)
    }

    /// A copy-on-write variant factory over the standard workload: one
    /// lowered arena base per structural class, each variant served as a
    /// four-cell patch with the same fingerprint as
    /// [`lower_variant`][EvalKernel::lower_variant] (see
    /// [`tytra_transform::VariantFactory`]). The DSE engine builds one
    /// per sweep and costs designs through the estimator's arena path.
    fn variant_factory(&self) -> VariantFactory {
        VariantFactory::new(self.kernel_def(), self.geometry())
    }
}

/// All three kernels, boxed, for sweep drivers.
pub fn all_kernels() -> Vec<Box<dyn EvalKernel>> {
    vec![Box::new(Sor::default()), Box::new(Hotspot::default()), Box::new(LavaMd::default())]
}

/// The names of [`all_kernels`], as `tybec dse` and `tybec serve` take
/// them.
pub const KERNEL_NAMES: &str = "sor|hotspot|lavamd";

/// The kernel of [`all_kernels`] called `name`.
pub fn kernel_by_name(name: &str) -> Result<Box<dyn EvalKernel>, String> {
    all_kernels()
        .into_iter()
        .find(|k| k.name() == name)
        .ok_or_else(|| format!("unknown kernel `{name}`; expected {KERNEL_NAMES}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_names_match_the_kernels() {
        let names: Vec<&str> = all_kernels().iter().map(|k| k.name()).collect();
        assert_eq!(names.join("|"), KERNEL_NAMES);
        assert_eq!(kernel_by_name("hotspot").map(|k| k.name()), Ok("hotspot"));
        assert_eq!(
            kernel_by_name("fft").err().as_deref(),
            Some("unknown kernel `fft`; expected sor|hotspot|lavamd")
        );
    }

    #[test]
    fn all_kernels_lower_under_baseline() {
        for k in all_kernels() {
            let m = k.lower_variant(&Variant::baseline()).unwrap();
            assert!(m.total_instructions() > 0, "{}", k.name());
            assert_eq!(m.meta.global_size(), k.geometry().size());
        }
    }

    #[test]
    fn workloads_cover_the_ndrange() {
        for k in all_kernels() {
            let w = k.workload();
            let n = k.geometry().size() as usize;
            let def = k.kernel_def();
            for input in &def.inputs {
                let arr = w.get(input).unwrap_or_else(|| panic!("{} missing {input}", k.name()));
                assert!(arr.len() >= n, "{}::{input}", k.name());
            }
        }
    }

    /// The decisive semantics test: the natural nested-loop reference
    /// equals the front-end evaluator on every kernel.
    #[test]
    fn references_match_frontend_evaluator() {
        for k in all_kernels() {
            let w = k.workload();
            let n = k.geometry().size() as usize;
            let (ref_out, ref_red) = k.reference(&w);
            let (fe_out, fe_red) = k.kernel_def().eval_reference(&w, n).unwrap();
            for (name, arr) in &fe_out {
                let r = &ref_out[name];
                assert_eq!(r.len(), arr.len(), "{}::{name}", k.name());
                for i in 0..arr.len() {
                    assert_eq!(
                        r[i],
                        arr[i],
                        "{}::{name}[{i}] reference {} vs front-end {}",
                        k.name(),
                        r[i],
                        arr[i]
                    );
                }
            }
            for (acc, v) in &fe_red {
                assert_eq!(ref_red[acc], *v, "{}::{acc}", k.name());
            }
        }
    }
}
