//! The full design-space-exploration pipeline across crates: enumerate
//! variants, cost them, select, tune — then confirm the selection with
//! the virtual substrate (the decision the cost model made must survive
//! contact with the simulator).

use tytra::cost::{estimate, CostReport};
use tytra::device::{eval_small, stratix_v_gsd8, TargetDevice};
use tytra::dse::{search, tune, ExplorationConfig, SearchConfig, SearchOutcome};
use tytra::ir::MemForm;
use tytra::kernels::{EvalKernel, Hotspot, LavaMd, Sor};
use tytra::sim::run_application;
use tytra::transform::Variant;

fn cfg() -> SearchConfig {
    let space = ExplorationConfig {
        lanes: vec![1, 2, 4, 8],
        vects: vec![1],
        forms: vec![MemForm::A, MemForm::B],
    };
    SearchConfig { space, ..SearchConfig::default() }
}

fn search_space(kernel: &dyn EvalKernel, dev: &TargetDevice) -> SearchOutcome {
    search(kernel, dev, &cfg())
}

/// The baseline variant's report, estimated directly.
fn baseline(kernel: &dyn EvalKernel, dev: &TargetDevice) -> CostReport {
    let m = kernel.lower_variant(&Variant::baseline()).expect("baseline lowers");
    estimate(&m, dev).expect("baseline costs")
}

#[test]
fn cost_model_choice_wins_on_the_simulator_too() {
    // The whole point of a fast cost model: its ranking must agree with
    // the expensive ground truth on the decision that matters (best vs
    // baseline).
    let sor = Sor::cubic(48, 100);
    let dev = stratix_v_gsd8();
    let outcome = search_space(&sor, &dev);
    let best = outcome.leaderboard.first().expect("fits");

    let best_run = run_application(&sor.lower_variant(&best.variant).unwrap(), &dev).unwrap();
    let base_run =
        run_application(&sor.lower_variant(&Variant::baseline()).unwrap(), &dev).unwrap();
    assert!(
        best_run.t_total_s <= base_run.t_total_s,
        "cost model picked {} but the simulator disagrees ({} vs {} s)",
        best.variant.tag(),
        best_run.t_total_s,
        base_run.t_total_s
    );
}

#[test]
fn exploration_covers_every_kernel() {
    let dev = stratix_v_gsd8();
    let kernels: Vec<Box<dyn EvalKernel>> = vec![
        Box::new(Sor::cubic(24, 10)),
        Box::new(Hotspot { rows: 64, cols: 64, nki: 10 }),
        Box::new(LavaMd { n_particles: 16_384, nki: 10 }),
    ];
    for k in &kernels {
        let outcome = search_space(k.as_ref(), &dev);
        let best = outcome.leaderboard.first().unwrap_or_else(|| panic!("{} has no fit", k.name()));
        assert!(best.report.fits);
        // Exploration beats (or at worst matches) the baseline estimate.
        let baseline = baseline(k.as_ref(), &dev);
        assert!(best.report.throughput.ekit >= baseline.throughput.ekit);
    }
}

#[test]
fn tuner_and_explorer_agree_on_the_winning_region() {
    let sor = Sor::cubic(48, 100);
    let dev = stratix_v_gsd8();
    let outcome = search_space(&sor, &dev);
    let best = outcome.leaderboard.first().expect("fits");
    let steps = tune(&sor, &dev, Variant::baseline(), 12);
    let tuned = steps.last().expect("at least one step");
    // Both approaches should settle within 2× EKIT of each other.
    let ratio = best.report.throughput.ekit / tuned.ekit;
    assert!(
        (0.5..=2.0).contains(&ratio),
        "explorer {} vs tuner {} ({:?})",
        best.report.throughput.ekit,
        tuned.ekit,
        tuned.variant
    );
}

#[test]
fn resource_walls_invalidate_big_variants_on_small_devices() {
    let sor = Sor::cubic(48, 10);
    let dev = eval_small();
    let outcome = search_space(&sor, &dev);
    assert!(!outcome.invalid.is_empty(), "8 SOR lanes must blow the eval target");
    assert!(outcome.invalid.iter().any(|iv| iv.variant.lanes == 8));
    // And the selection never picks one.
    let best = outcome.leaderboard.first().expect("some variant fits");
    assert!(best.report.fits);
}
