//! Copy-on-write variant materialization for DSE sweeps.
//!
//! Lowering ([`crate::lower()`]) builds a fresh tree module per variant —
//! Manage-IR arrays, the lane function, the `par` dispatcher — yet
//! variants in a sweep differ structurally only along three axes: the
//! inner map kind, whether Form C swaps the global arrays for local ones,
//! and whether there is more than one lane (a `par` dispatcher or none).
//! Everything else (`A` vs `B` vs `Tiled`, the vectorization degree, the
//! module name and the lane count itself) is a patch.
//!
//! A [`VariantFactory`] therefore builds **one base per structural
//! class** `(inner, is_form_c, lanes > 1)`, a shared [`ArenaModule`]
//! over the class's lane template, and hands out each variant as a
//! [`VariantDesign`] — an owned name plus the patched form, DV and lane
//! count over the `Arc`-shared base. A `tybec dse` run over any set of
//! lane counts builds at most two bases per inner kind and form class.
//!
//! A base holds one lane: Manage-IR arrays as long as the NDRange and a
//! dispatcher with one lane's call. The patch's lane count gives the
//! replica count, the per-lane array length and the dispatcher's call
//! count ([`PatchedModule`]), so building, validating and costing a base
//! never walks a copy per lane. The estimator's
//! `estimate_design`/`bound_design` passes cost the patch without
//! materializing a tree; [`PatchedModule::materialize`] reproduces the
//! lowered tree exactly (same fingerprint) for the few memo-miss paths
//! that still need one.
//!
//! The first request for a structural class lowers it for every later
//! one. The lane function `f0` is the same in every class of one inner
//! kind, so only the first base of a kind lowers it; later ones copy it
//! from a sibling. The factory caches through `&self` and is not `Sync`:
//! each caller (one `tybec dse` run, one serve request) owns its factory.

use crate::expr::KernelDef;
use crate::lower::{assemble, check_legal, lower_lane, Geometry};
use crate::typetrans::{InnerKind, Variant};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;
use tytra_ir::{ArenaModule, IrError, MemForm, PatchedModule};
use tytra_trace as trace;

/// One design variant as a copy-on-write delta over a shared arena base:
/// the owned module name plus the patched form, DV and lane-count cells.
#[derive(Debug, Clone)]
pub struct VariantDesign {
    base: Arc<ArenaModule>,
    name: String,
    form: MemForm,
    vect: u32,
    lanes: u64,
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
        self.base.patched(&self.name, self.form, self.vect, self.lanes)
    }
}

/// Lowers each *structural class* of a kernel's design space once and
/// serves every variant as a [`VariantDesign`] over the shared base. See
/// the module docs.
pub struct VariantFactory {
    kernel: KernelDef,
    geom: Geometry,
    /// The arena base per structural class `(inner, is_form_c, lanes > 1)`.
    bases: RefCell<HashMap<(InnerKind, bool, bool), Arc<ArenaModule>>>,
}

impl VariantFactory {
    /// A factory for one kernel + workload geometry.
    pub fn new(kernel: KernelDef, geom: Geometry) -> VariantFactory {
        VariantFactory { kernel, geom, bases: RefCell::default() }
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
        self.bases.borrow().len()
    }

    /// The design for `variant`: builds the variant's structural class on
    /// first sight (a `transform.lower` span), patches the shared base and
    /// validates the patch (a cached verdict after the first lane count;
    /// see [`PatchedModule::validate`]). Errors exactly as
    /// [`crate::lower()`] does.
    pub fn design(&self, variant: &Variant) -> Result<VariantDesign, IrError> {
        check_legal(&self.geom, variant)?;
        let key = (variant.inner, matches!(variant.form, MemForm::C), variant.lanes > 1);
        let base = {
            let mut bases = self.bases.borrow_mut();
            match bases.get(&key) {
                Some(b) => Arc::clone(b),
                None => {
                    let _sp = trace::span("transform.lower");
                    // Every base of one inner kind holds the same lane
                    // function: copying a sibling's is cheaper than
                    // lowering it again.
                    let lane = bases
                        .iter()
                        .find(|((inner, ..), _)| *inner == variant.inner)
                        .and_then(|(_, b)| b.template().function("f0").cloned())
                        .unwrap_or_else(|| lower_lane(&self.kernel, variant.inner));
                    let b = Arc::new(ArenaModule::build(assemble(
                        &self.kernel,
                        &self.geom,
                        variant,
                        lane,
                    )));
                    bases.insert(key, Arc::clone(&b));
                    b
                }
            }
        };
        let mut name = String::with_capacity(self.kernel.name.len() + 1 + 24);
        name.push_str(&self.kernel.name);
        name.push('_');
        variant.write_tag(&mut name);
        let design = VariantDesign {
            base,
            name,
            form: variant.form,
            vect: variant.vect,
            lanes: variant.lanes,
        };
        design.patched().validate()?;
        Ok(design)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::lower::lower;
    use crate::typetrans::enumerate_variants;
    use tytra_ir::ScalarType;

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
    fn designs_materialize_as_direct_lowering() {
        // The decisive equivalence: for every variant in a realistic
        // sweep, the factory's materialized patch *is* the module
        // lowering that variant from scratch gives, field for field.
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
        // …Form C and more than one lane do not…
        factory.design(&Variant { form: MemForm::C, ..b }).unwrap();
        let d4 = factory.design(&Variant { lanes: 4, ..b }).unwrap();
        assert_eq!(factory.bases_built(), 3);
        // …and every lane count above one shares one base.
        for lanes in [2, 8, 64, 1024] {
            let d = factory.design(&Variant { lanes, ..b }).unwrap();
            assert!(std::ptr::eq(d.arena(), d4.arena()), "{lanes} lanes");
        }
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
                let t = d.arena().template();
                assert_eq!((t.mems.len(), t.streams.len(), t.ports.len()), (2, 2, 2), "{lanes}");
                assert!(t.mems.iter().all(|m| m.len == 1 << 10), "one lane spans the range");
                assert_eq!(d.patched().lanes(), lanes);
                let m = d.patched().materialize();
                let n = 2 * lanes as usize;
                assert_eq!((m.mems.len(), m.streams.len(), m.ports.len()), (n, n, n), "{lanes}");
                assert!(m.mems.iter().all(|m| m.len == (1 << 10) / lanes), "{lanes}");
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
