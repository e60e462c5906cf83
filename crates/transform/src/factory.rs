//! Copy-on-write variant materialization for DSE sweeps.
//!
//! Lowering ([`crate::lower()`]) builds a fresh tree module per variant —
//! Manage-IR arrays, the lane function, the `par` dispatcher — yet
//! variants in a sweep differ structurally only along three axes: the
//! lane count, the inner map kind, and whether Form C swaps the global
//! arrays for local ones. Everything else (`A` vs `B` vs `Tiled`, the
//! vectorization degree, the module name) is a metadata patch.
//!
//! A [`VariantFactory`] therefore builds **one base per structural
//! class** `(lanes, inner, is_form_c)`, a shared [`ArenaModule`], and
//! hands out each variant as a [`VariantDesign`] — an owned name plus
//! the three patched cells over the `Arc`-shared base. The estimator's
//! `estimate_design`/`bound_design` passes cost the patch without
//! materializing a tree; [`PatchedModule::materialize`] reproduces the
//! lowered tree exactly (same fingerprint) for the few memo-miss paths
//! that still need one.
//!
//! A base holds one lane's Manage-IR plus the lane count as its replica
//! count ([`ArenaModule::build_lanes`]), so building, validating and
//! bandwidth-assessing it never walks a copy per lane; only its digests
//! still stream every lane's names. The lane function `f0` is the same
//! in every class of one inner kind, so the factory lowers it once per
//! [`InnerKind`] and assembles each base's template (one lane's arrays,
//! the `par` dispatcher, `main`) around a copy.
//!
//! The first request for a structural class lowers it for every later
//! one. The factory caches through `&self` and is not `Sync`: each
//! caller (one `tybec dse` run, one serve request) owns its factory.

use crate::expr::KernelDef;
use crate::lower::{assemble, check_legal, lower_lane, Geometry};
use crate::typetrans::{InnerKind, Variant};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;
use tytra_ir::{ArenaModule, IrError, IrFunction, MemForm, PatchedModule};
use tytra_trace as trace;

/// One design variant as a copy-on-write delta over a shared arena base:
/// the owned module name plus the patched form/DV cells.
#[derive(Debug, Clone)]
pub struct VariantDesign {
    base: Arc<ArenaModule>,
    name: String,
    form: MemForm,
    vect: u32,
}

impl VariantDesign {
    /// The shared arena base (one per structural class).
    pub fn arena(&self) -> &ArenaModule {
        &self.base
    }

    /// The variant's module name (`{kernel}_{tag}`, as `lower` names it).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The patched memory-execution form.
    pub fn form(&self) -> MemForm {
        self.form
    }

    /// The patched degree of vectorization.
    pub fn vect(&self) -> u32 {
        self.vect
    }

    /// The patch, borrowed — what the estimator's design passes consume.
    pub fn patched(&self) -> PatchedModule<'_> {
        self.base.patched(&self.name, self.form, self.vect)
    }
}

/// Lowers each *structural class* of a kernel's design space once and
/// serves every variant as a [`VariantDesign`] over the shared base. See
/// the module docs.
pub struct VariantFactory {
    kernel: KernelDef,
    geom: Geometry,
    lowered: RefCell<Lowered>,
}

/// What the factory has lowered so far: the lane function per inner kind
/// and the arena base per structural class.
#[derive(Default)]
struct Lowered {
    lanes: HashMap<InnerKind, IrFunction>,
    bases: HashMap<(u64, InnerKind, bool), Arc<ArenaModule>>,
}

impl VariantFactory {
    /// A factory for one kernel + workload geometry.
    pub fn new(kernel: KernelDef, geom: Geometry) -> VariantFactory {
        VariantFactory { kernel, geom, lowered: RefCell::default() }
    }

    /// The kernel definition the factory lowers.
    pub fn kernel(&self) -> &KernelDef {
        &self.kernel
    }

    /// The workload geometry.
    pub fn geometry(&self) -> &Geometry {
        &self.geom
    }

    /// Number of structural classes lowered so far.
    pub fn bases_built(&self) -> usize {
        self.lowered.borrow().bases.len()
    }

    /// The design for `variant`: builds and validates the variant's
    /// structural class on first sight (a `transform.lower` span), then
    /// patches the shared base. Errors exactly as [`crate::lower()`] does.
    pub fn design(&self, variant: &Variant) -> Result<VariantDesign, IrError> {
        check_legal(&self.geom, variant)?;
        let key = (variant.lanes, variant.inner, matches!(variant.form, MemForm::C));
        let base = {
            let mut lowered = self.lowered.borrow_mut();
            let Lowered { lanes, bases } = &mut *lowered;
            match bases.get(&key) {
                Some(b) => Arc::clone(b),
                None => {
                    let _sp = trace::span("transform.lower");
                    let lane = lanes
                        .entry(variant.inner)
                        .or_insert_with(|| lower_lane(&self.kernel, variant.inner));
                    let a = ArenaModule::build_lanes(
                        assemble(&self.kernel, &self.geom, variant, lane.clone()),
                        variant.lanes,
                    );
                    // The one validation this base gets in the process: the
                    // verdict is cached on the arena, where every estimator
                    // session that costs one of its patches reads it.
                    a.validate_base()?;
                    let a = Arc::new(a);
                    bases.insert(key, Arc::clone(&a));
                    a
                }
            }
        };
        let mut name = String::with_capacity(self.kernel.name.len() + 1 + 24);
        name.push_str(&self.kernel.name);
        name.push('_');
        variant.write_tag(&mut name);
        Ok(VariantDesign { base, name, form: variant.form, vect: variant.vect })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::lower::lower;
    use crate::typetrans::enumerate_variants;
    use tytra_ir::{fingerprint_module, ScalarType};

    const T: ScalarType = ScalarType::UInt(18);

    fn stencil_kernel() -> KernelDef {
        let e = Expr::mul(Expr::add(Expr::off("p", -1), Expr::off("p", 1)), Expr::ConstI(3));
        KernelDef {
            name: "st".into(),
            elem_ty: T,
            inputs: vec!["p".into()],
            outputs: vec![("q".into(), e)],
            reductions: vec![],
        }
    }

    #[test]
    fn designs_fingerprint_like_direct_lowering() {
        // The decisive equivalence: for every variant in a realistic
        // sweep, the factory's patched design has the same module
        // fingerprint as lowering that variant from scratch — and the
        // materialized patch *is* the lowered module, field for field.
        let geom = Geometry::flat(1 << 10, 10);
        let factory = VariantFactory::new(stencil_kernel(), geom.clone());
        let variants = enumerate_variants(
            geom.size(),
            &[1, 2, 4],
            &[1, 2],
            &[MemForm::A, MemForm::B, MemForm::C, MemForm::Tiled { tiles: 4 }],
        );
        assert!(!variants.is_empty());
        for v in &variants {
            let direct = lower(&stencil_kernel(), &geom, v).unwrap();
            let design = factory.design(v).unwrap();
            assert_eq!(design.name(), direct.name, "{}", v.tag());
            assert_eq!(design.patched().fingerprint(), fingerprint_module(&direct), "{}", v.tag());
            assert_eq!(design.patched().materialize(), direct, "{}", v.tag());
        }
    }

    #[test]
    fn bases_are_shared_per_structural_class() {
        let geom = Geometry::flat(1 << 10, 10);
        let factory = VariantFactory::new(stencil_kernel(), geom);
        let b = Variant::baseline();
        let d1 = factory.design(&b).unwrap();
        // A/B/Tiled at any DV share the baseline's structure…
        let d2 =
            factory.design(&Variant { vect: 4, form: MemForm::Tiled { tiles: 2 }, ..b }).unwrap();
        assert!(std::ptr::eq(d1.arena(), d2.arena()));
        assert_eq!(factory.bases_built(), 1);
        // …Form C and other lane counts do not.
        factory.design(&Variant { form: MemForm::C, ..b }).unwrap();
        factory.design(&Variant { lanes: 4, ..b }).unwrap();
        assert_eq!(factory.bases_built(), 3);
    }

    #[test]
    fn bases_hold_one_lane_of_manage_ir_at_any_lane_count() {
        // The stencil kernel has one input and one output: two memory
        // objects, streams and ports per lane.
        let geom = Geometry::flat(1 << 10, 10);
        let factory = VariantFactory::new(stencil_kernel(), geom);
        for form in [MemForm::B, MemForm::C] {
            for lanes in [1u64, 2, 16, 64] {
                let d = factory.design(&Variant { lanes, form, ..Variant::baseline() }).unwrap();
                let base = d.arena();
                let t = base.template();
                assert_eq!((t.mems.len(), t.streams.len(), t.ports.len()), (2, 2, 2), "{lanes}");
                assert_eq!(base.replicas(), lanes);
                let m = d.patched().materialize();
                let n = 2 * lanes as usize;
                assert_eq!((m.mems.len(), m.streams.len(), m.ports.len()), (n, n, n), "{lanes}");
            }
        }
    }

    #[test]
    fn illegal_variants_error_like_lower() {
        let geom = Geometry::flat(1000, 1);
        let factory = VariantFactory::new(stencil_kernel(), geom.clone());
        let v = Variant { lanes: 3, ..Variant::baseline() };
        let from_factory = factory.design(&v).unwrap_err();
        let from_lower = lower(&stencil_kernel(), &geom, &v).unwrap_err();
        assert_eq!(format!("{from_factory}"), format!("{from_lower}"));
        assert_eq!(factory.bases_built(), 0, "illegal variants lower nothing");
    }
}
