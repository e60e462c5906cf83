//! The lane count as a design cell. A factory base can stand for every
//! lane count above one only if nothing it caches depends on the count;
//! the validation verdict is the one cached result that could.

use tytra_ir::MemForm;
use tytra_kernels::all_kernels;
use tytra_transform::lower::{lower, Geometry};
use tytra_transform::{Expr, InnerKind, KernelDef, Variant};

/// What lowering `v` and validating the result gives: `Ok`, or the
/// first error's text.
fn verdict(kernel: &KernelDef, geom: &Geometry, v: &Variant) -> Result<(), String> {
    lower(kernel, geom, v).and_then(|m| tytra_ir::validate(&m)).map_err(|e| e.to_string())
}

/// The verdict of every variant of one structural class at each legal
/// lane count in 2..=64.
fn verdicts_above_one_lane(
    kernel: &KernelDef,
    geom: &Geometry,
    inner: InnerKind,
    form: MemForm,
) -> Vec<(u64, Result<(), String>)> {
    (2..=64)
        .map(|lanes| Variant { lanes, vect: 1, inner, form })
        .filter(|v| v.is_legal(geom.size()))
        .map(|v| (v.lanes, verdict(kernel, geom, &v)))
        .collect()
}

#[test]
fn validation_verdict_does_not_depend_on_the_lane_count_above_one() {
    for kernel in all_kernels() {
        let (def, geom) = (kernel.kernel_def(), kernel.geometry());
        for inner in [InnerKind::Pipe, InnerKind::Seq] {
            for form in [MemForm::A, MemForm::B, MemForm::C] {
                let verdicts = verdicts_above_one_lane(&def, &geom, inner, form);
                let tag = format!("{} {inner:?} {form:?}", kernel.name());
                assert!(verdicts.len() >= 2, "{tag}: too few legal lane counts");
                let first = &verdicts[0].1;
                for (lanes, v) in &verdicts {
                    assert_eq!(v, first, "{tag}: {lanes} lanes");
                }
            }
        }
    }
}

/// Inputs `p` and `p1` generate colliding Manage-IR names from 11 lanes
/// on: lane 10 of `p` and lane 0 of `p1` are both `mem_p10`.
fn colliding_kernel() -> KernelDef {
    KernelDef {
        name: "clash".into(),
        elem_ty: tytra_ir::ScalarType::UInt(18),
        inputs: vec!["p".into(), "p1".into()],
        outputs: vec![("q".into(), Expr::add(Expr::off("p", 1), Expr::arg("p1")))],
        reductions: vec![],
    }
}

#[test]
fn colliding_lane_names_make_the_verdict_depend_on_the_lane_count() {
    let geom = Geometry::flat(22 * 64, 10);
    for inner in [InnerKind::Pipe, InnerKind::Seq] {
        for form in [MemForm::A, MemForm::B, MemForm::C] {
            let verdicts = verdicts_above_one_lane(&colliding_kernel(), &geom, inner, form);
            let at = |lanes| &verdicts.iter().find(|(l, _)| *l == lanes).expect("legal").1;
            assert_eq!(at(2), &Ok(()), "{inner:?} {form:?}");
            let err = at(11).as_ref().expect_err("11 lanes collide");
            assert!(err.contains("duplicate memory object name `mem_p10`"), "{err}");
        }
    }
}

/// A `tybec dse <kernel> --lanes 1..64` run — the lane sweep, the search
/// and the tuning loop on one factory and session — builds one
/// base per inner kind and lane class the search visits: the lane count
/// is a patch cell, so lane counts above one share a base.
#[test]
fn a_dse_run_over_lanes_1_to_64_builds_two_bases_per_kernel() {
    use tytra_cost::EstimatorSession;
    use tytra_device::stratix_v_gsd8;
    use tytra_dse::{lane_sweep_with, search_with, tune_with, ExplorationConfig, SearchConfig};

    let lanes: Vec<u64> = (1..=64).collect();
    for kernel in all_kernels() {
        let factory = kernel.variant_factory();
        let mut session = EstimatorSession::new(stratix_v_gsd8());
        lane_sweep_with(&factory, &mut session, &lanes, &Variant::baseline());
        let space = ExplorationConfig { lanes: lanes.clone(), ..ExplorationConfig::default() };
        search_with(&factory, &mut session, &SearchConfig { space, ..SearchConfig::default() });
        tune_with(&factory, &mut session, Variant::baseline(), 12);
        assert_eq!(factory.bases_built(), 2, "{}", kernel.name());
    }
}
