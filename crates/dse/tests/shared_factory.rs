//! The shared-factory path of `tybec dse`, pinned bit for bit against
//! per-point tree lowering: the lane sweep and the tuning loop cost each
//! design as a patch of a [`VariantFactory`] base, and must produce
//! exactly what lowering the variant from scratch and estimating the tree
//! in a fresh session produces. The search, run on a factory and session
//! the sweep has already warmed, must rank exactly as a search on its own
//! factory and session.
//!
//! Covers all three kernels over lanes 1..=64 (illegal reshapes
//! included — both paths must skip the same points). Underneath, every
//! factory design must *be* the lowered module: the factory lowers the
//! lane body once per inner kind and reuses it for every base.

use tytra_cost::{CostReport, EstimatorSession, Limiter};
use tytra_device::{stratix_v_gsd8, TargetDevice};
use tytra_dse::{
    lane_sweep_with, search, search_with, tune_with, ExplorationConfig, LaneSweepRow, SearchConfig,
    SearchOutcome, TuningStep,
};
use tytra_ir::MemForm;
use tytra_kernels::{all_kernels, EvalKernel};
use tytra_transform::{InnerKind, Variant, VariantFactory};

fn lanes() -> Vec<u64> {
    (1..=64).collect()
}

/// The reference costing: lower the variant to a tree and estimate it in
/// a session that has never seen anything else.
fn tree_cost(kernel: &dyn EvalKernel, dev: &TargetDevice, v: &Variant) -> Option<CostReport> {
    let m = kernel.lower_variant(v).ok()?;
    EstimatorSession::new(dev.clone()).estimate(&m).ok()
}

/// A sweep row as bits: lane count, every `f64` field, fit and wall.
fn row_bits(r: &LaneSweepRow) -> (u64, [u64; 7], bool, Limiter) {
    let f = [r.regs_pct, r.aluts_pct, r.bram_pct, r.dsps_pct, r.gmem_bw_pct, r.host_bw_pct, r.ewgt];
    (r.lanes, f.map(f64::to_bits), r.fits, r.limiter)
}

/// The Fig 15 row of a tree report, computed inline.
fn reference_row_bits(lanes: u64, r: &CostReport) -> (u64, [u64; 7], bool, Limiter) {
    let t_comp = r.throughput.t_compute.max(1e-30);
    let f = [
        r.utilization.regs * 100.0,
        r.utilization.aluts * 100.0,
        r.utilization.bram_bits * 100.0,
        r.utilization.dsps * 100.0,
        r.throughput.t_memory / t_comp * 100.0,
        r.throughput.t_host / t_comp * 100.0,
        r.throughput.ekit,
    ];
    (lanes, f.map(f64::to_bits), r.fits, r.limiter)
}

/// The tuning policy of `tytra_dse::tuning`, restated over tree costing.
fn reference_tune(
    kernel: &dyn EvalKernel,
    dev: &TargetDevice,
    start: Variant,
    max_steps: usize,
) -> Vec<TuningStep> {
    let ngs = kernel.geometry().size();
    let step = |variant, r: &CostReport, action| TuningStep {
        variant,
        ekit: r.throughput.ekit,
        limiter: r.limiter,
        action,
    };
    let mut trajectory = Vec::new();
    let mut current = start;
    let Some(mut report) = tree_cost(kernel, dev, &current) else { return trajectory };
    for _ in 0..max_steps {
        let v = current;
        let next = match report.limiter {
            Limiter::Compute => {
                let n = Variant { lanes: v.lanes * 2, ..v };
                n.is_legal(ngs).then_some((n, "double lanes"))
            }
            Limiter::HostBandwidth if v.form == MemForm::A => {
                Some((Variant { form: MemForm::B, ..v }, "stage in device DRAM (Form B)"))
            }
            Limiter::DramBandwidth
                if v.form != MemForm::C
                    && (report.params.total_bytes() as u64) < dev.capacity.bram_bits / 8 / 2 =>
            {
                Some((Variant { form: MemForm::C, ..v }, "move working set on chip (Form C)"))
            }
            Limiter::Overhead if v.lanes > 1 => {
                Some((Variant { lanes: v.lanes / 2, ..v }, "halve lanes (fewer streams)"))
            }
            _ => None,
        };
        let Some((next, action)) = next else {
            trajectory.push(step(current, &report, None));
            return trajectory;
        };
        let Some(next_report) = tree_cost(kernel, dev, &next) else {
            trajectory.push(step(current, &report, None));
            return trajectory;
        };
        let improved =
            next_report.fits && next_report.throughput.ekit > report.throughput.ekit * 1.001;
        trajectory.push(step(current, &report, improved.then_some(action)));
        if !improved {
            return trajectory;
        }
        current = next;
        report = next_report;
    }
    trajectory.push(step(current, &report, None));
    trajectory
}

fn trajectory_bits(t: &[TuningStep]) -> Vec<(String, u64, Limiter, Option<&'static str>)> {
    t.iter().map(|s| (s.variant.tag(), s.ekit.to_bits(), s.limiter, s.action)).collect()
}

fn board(o: &SearchOutcome) -> (Vec<(String, u64)>, Vec<String>) {
    (
        o.leaderboard
            .iter()
            .map(|e| (e.variant.tag(), e.report.throughput.ekit.to_bits()))
            .collect(),
        o.invalid.iter().map(|iv| iv.variant.tag()).collect(),
    )
}

#[test]
fn factory_lane_sweep_matches_per_point_tree_lowering() {
    let dev = stratix_v_gsd8();
    for kernel in all_kernels() {
        let factory = kernel.variant_factory();
        let mut session = EstimatorSession::new(dev.clone());
        for base in [Variant::baseline(), Variant { form: MemForm::A, ..Variant::baseline() }] {
            let got: Vec<_> = lane_sweep_with(&factory, &mut session, &lanes(), &base)
                .iter()
                .map(row_bits)
                .collect();
            let want: Vec<_> = lanes()
                .into_iter()
                .filter_map(|l| {
                    let r = tree_cost(kernel.as_ref(), &dev, &Variant { lanes: l, ..base })?;
                    Some(reference_row_bits(l, &r))
                })
                .collect();
            assert!(!want.is_empty(), "{}: no legal lane count", kernel.name());
            assert_eq!(got, want, "{} from {}", kernel.name(), base.tag());
        }
    }
}

#[test]
fn factory_tuning_matches_per_point_tree_lowering() {
    let dev = stratix_v_gsd8();
    let mut moves = 0;
    for kernel in all_kernels() {
        let factory = kernel.variant_factory();
        let mut session = EstimatorSession::new(dev.clone());
        for l in lanes() {
            for form in [MemForm::A, MemForm::B] {
                let start = Variant { lanes: l, form, ..Variant::baseline() };
                let got = tune_with(&factory, &mut session, start, 12);
                let want = reference_tune(kernel.as_ref(), &dev, start, 12);
                moves += want.iter().filter(|s| s.action.is_some()).count();
                assert_eq!(
                    trajectory_bits(&got),
                    trajectory_bits(&want),
                    "{} from {}",
                    kernel.name(),
                    start.tag()
                );
            }
        }
    }
    assert!(moves > 0, "no start variant took a tuning move");
}

#[test]
fn search_on_a_warmed_factory_and_session_ranks_like_a_fresh_search() {
    let dev = stratix_v_gsd8();
    for kernel in all_kernels() {
        let factory = kernel.variant_factory();
        let mut session = EstimatorSession::new(dev.clone());
        lane_sweep_with(&factory, &mut session, &lanes(), &Variant::baseline());
        assert!(factory.bases_built() > 0, "the sweep warms the factory");
        let space = ExplorationConfig { lanes: lanes(), ..ExplorationConfig::default() };
        for cfg in [SearchConfig::pruned(space.clone()), SearchConfig::exhaustive(space)] {
            let shared = search_with(&factory, &mut session, &cfg);
            let own = search(kernel.as_ref(), &dev, &cfg);
            assert_eq!(board(&shared), board(&own), "{} {:?}", kernel.name(), cfg.mode);
        }
    }
}

#[test]
fn illegal_variants_error_like_lower_on_every_kernel() {
    for kernel in all_kernels() {
        let factory: VariantFactory = kernel.variant_factory();
        let ngs = kernel.geometry().size();
        let l = (2..=64).find(|&l| ngs % l != 0).expect("some lane count does not divide NGS");
        let v = Variant { lanes: l, ..Variant::baseline() };
        let from_factory = factory.design(&v).unwrap_err();
        let from_lower = kernel.lower_variant(&v).unwrap_err();
        assert_eq!(from_factory.to_string(), from_lower.to_string(), "{}", kernel.name());
        assert_eq!(factory.bases_built(), 0, "{}: illegal variants lower nothing", kernel.name());
    }
}

#[test]
fn factory_designs_are_the_lowered_modules_on_every_kernel() {
    let forms = [MemForm::A, MemForm::B, MemForm::C, MemForm::Tiled { tiles: 4 }];
    for kernel in all_kernels() {
        let factory = kernel.variant_factory();
        let ngs = kernel.geometry().size();
        let mut checked = 0;
        for lanes in lanes().into_iter().filter(|l| ngs % l == 0) {
            for inner in [InnerKind::Pipe, InnerKind::Seq] {
                for form in forms {
                    let v = Variant { lanes, vect: 1, inner, form };
                    let direct = kernel.lower_variant(&v).expect("legal variant lowers");
                    let design = factory.design(&v).expect("legal variant has a design");
                    let tag = format!("{} {}", kernel.name(), v.tag());
                    assert_eq!(design.patched().materialize(), direct, "{tag}");
                    checked += 1;
                }
            }
        }
        assert!(checked >= 8 * forms.len(), "{}: too few legal lane counts", kernel.name());
    }
}

/// Full-report parity: every legal variant of every kernel over lanes
/// 1..=64 × Pipe/Seq × forms A/B/C/Tiled{4} × vect {1, 2}. The factory
/// side costs each patch in one warm session per kernel; the reference
/// lowers the variant to a tree and costs it in fresh sessions. The
/// `Debug` images of the two `Result`s, estimate and bound, must be
/// equal: every field of every report, the per-stream bandwidth list and
/// the resource breakdown included, unrounded.
#[test]
fn factory_reports_equal_fresh_tree_reports_on_every_kernel() {
    let dev = stratix_v_gsd8();
    let forms = [MemForm::A, MemForm::B, MemForm::C, MemForm::Tiled { tiles: 4 }];
    for kernel in all_kernels() {
        let factory = kernel.variant_factory();
        let ngs = kernel.geometry().size();
        let mut warm = EstimatorSession::new(dev.clone());
        let mut checked = 0;
        for lanes in lanes() {
            for inner in [InnerKind::Pipe, InnerKind::Seq] {
                for form in forms {
                    for vect in [1, 2] {
                        let v = Variant { lanes, vect, inner, form };
                        if !v.is_legal(ngs) {
                            continue;
                        }
                        let tag = format!("{} {}", kernel.name(), v.tag());
                        let m = kernel.lower_variant(&v).expect("legal variant lowers");
                        let design = factory.design(&v).expect("legal variant has a design");
                        let d = design.patched();
                        assert_eq!(
                            format!("{:?}", warm.estimate_design(&d)),
                            format!("{:?}", EstimatorSession::new(dev.clone()).estimate(&m)),
                            "estimate of {tag}"
                        );
                        assert_eq!(
                            format!("{:?}", warm.bound_design(&d)),
                            format!("{:?}", EstimatorSession::new(dev.clone()).bound(&m)),
                            "bound of {tag}"
                        );
                        checked += 1;
                    }
                }
            }
        }
        assert!(checked >= 7 * 2 * forms.len(), "{}: too few legal variants", kernel.name());
    }
}

/// The parity checks above visit lane counts in ascending order, so the
/// smallest legal lane count builds each base. Here one factory and one
/// session per kernel serve every check with the lane counts descending,
/// so the first request above one lane comes at the largest legal count:
/// no later design may inherit its lane count. The sweep, the tuning
/// starts, the lowered modules and the full reports must all match
/// per-point tree lowering as they do in ascending order.
#[test]
fn factory_parity_holds_with_lane_counts_descending() {
    let dev = stratix_v_gsd8();
    let descending: Vec<u64> = lanes().into_iter().rev().collect();
    let forms = [MemForm::A, MemForm::B, MemForm::C, MemForm::Tiled { tiles: 4 }];
    for kernel in all_kernels() {
        let factory = kernel.variant_factory();
        let mut session = EstimatorSession::new(dev.clone());
        let ngs = kernel.geometry().size();
        let mut checked = 0;
        for &lanes in &descending {
            for inner in [InnerKind::Pipe, InnerKind::Seq] {
                for form in forms {
                    for vect in [1, 2] {
                        let v = Variant { lanes, vect, inner, form };
                        if !v.is_legal(ngs) {
                            continue;
                        }
                        let tag = format!("{} {}", kernel.name(), v.tag());
                        let m = kernel.lower_variant(&v).expect("legal variant lowers");
                        let design = factory.design(&v).expect("legal variant has a design");
                        let d = design.patched();
                        assert_eq!(d.materialize(), m, "{tag}");
                        assert_eq!(
                            format!("{:?}", session.estimate_design(&d)),
                            format!("{:?}", EstimatorSession::new(dev.clone()).estimate(&m)),
                            "estimate of {tag}"
                        );
                        assert_eq!(
                            format!("{:?}", session.bound_design(&d)),
                            format!("{:?}", EstimatorSession::new(dev.clone()).bound(&m)),
                            "bound of {tag}"
                        );
                        checked += 1;
                    }
                }
            }
        }
        assert!(checked >= 7 * 2 * forms.len(), "{}: too few legal variants", kernel.name());

        let base = Variant::baseline();
        let got: Vec<_> = lane_sweep_with(&factory, &mut session, &descending, &base)
            .iter()
            .map(row_bits)
            .collect();
        let want: Vec<_> = descending
            .iter()
            .filter_map(|&l| {
                let r = tree_cost(kernel.as_ref(), &dev, &Variant { lanes: l, ..base })?;
                Some(reference_row_bits(l, &r))
            })
            .collect();
        assert_eq!(got, want, "{} sweep", kernel.name());

        for &l in &descending {
            for form in [MemForm::A, MemForm::B] {
                let start = Variant { lanes: l, form, ..base };
                assert_eq!(
                    trajectory_bits(&tune_with(&factory, &mut session, start, 12)),
                    trajectory_bits(&reference_tune(kernel.as_ref(), &dev, start, 12)),
                    "{} from {}",
                    kernel.name(),
                    start.tag()
                );
            }
        }

        let space = ExplorationConfig { lanes: descending.clone(), ..ExplorationConfig::default() };
        for cfg in [SearchConfig::pruned(space.clone()), SearchConfig::exhaustive(space)] {
            let shared = search_with(&factory, &mut session, &cfg);
            let own = search(kernel.as_ref(), &dev, &cfg);
            assert_eq!(board(&shared), board(&own), "{} {:?}", kernel.name(), cfg.mode);
        }
    }
}
