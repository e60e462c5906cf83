//! Speed gates of the DSE costing step, beside the §VI-A `speedup` test.
//!
//! Both tests time warm sweeps over the sor/eval-small acceptance space:
//! every variant the bound pass accepts, costed with `bound_design` on a
//! factory patch. CI runs them in a release build, one test at a time
//! (`cargo test --release -p tytra-bench -- --test-threads=1`). A debug
//! build blunts constant factors and runs tests side by side, so there
//! the costing ratio is floored lower and the recorder overhead is only
//! reported.

use std::time::Instant;
use tytra_cost::EstimatorSession;
use tytra_device::eval_small;
use tytra_ir::MemForm;
use tytra_kernels::{EvalKernel, Sor};
use tytra_transform::{enumerate_variants, Variant, VariantFactory};

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// The variants of the acceptance space the bound pass accepts
/// (seq-inner shapes are rejected), found by bounding each lowered tree
/// in `session`, which this leaves warm.
fn accepted_variants(sor: &Sor, session: &mut EstimatorSession) -> Vec<Variant> {
    let variants: Vec<Variant> = enumerate_variants(
        sor.geometry().size(),
        &[1, 2, 4, 8, 16, 32],
        &[1, 2],
        &[MemForm::A, MemForm::B],
    )
    .into_iter()
    .filter(|v| sor.lower_variant(v).is_ok_and(|m| session.bound(&m).is_ok()))
    .collect();
    assert!(!variants.is_empty());
    variants
}

/// Bound every variant as a patch of its factory base.
fn factory_sweep(factory: &VariantFactory, session: &mut EstimatorSession, variants: &[Variant]) {
    for v in variants {
        let d = factory.design(v).expect("legal variant");
        session.bound_design(&d.patched()).expect("bound");
    }
}

/// Factory costing (a copy-on-write patch over a shared base) is at least
/// 5× faster than lowering each point afresh and building its arena.
#[test]
fn factory_costing_is_5x_faster_than_per_point_lowering() {
    const REPS: usize = 40;
    let sor = Sor::cubic(16, 10);
    let mut tree_session = EstimatorSession::new(eval_small());
    let variants = accepted_variants(&sor, &mut tree_session);
    let mut tree_us = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let t0 = Instant::now();
        for v in &variants {
            let m = sor.lower_variant(v).expect("legal variant");
            tree_session.bound(&m).expect("bound");
        }
        tree_us.push(t0.elapsed().as_secs_f64() * 1e6);
    }

    let factory = sor.variant_factory();
    let mut session = EstimatorSession::new(eval_small());
    factory_sweep(&factory, &mut session, &variants);
    let mut factory_us = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let t0 = Instant::now();
        factory_sweep(&factory, &mut session, &variants);
        factory_us.push(t0.elapsed().as_secs_f64() * 1e6);
    }

    let (tree, fact) = (median(&mut tree_us), median(&mut factory_us));
    let speedup = tree / fact;
    eprintln!("factory costing {speedup:.2}x ({fact:.1} vs {tree:.1} µs per sweep)");
    let floor = if cfg!(debug_assertions) { 3.0 } else { 5.0 };
    assert!(
        speedup >= floor,
        "factory costing is {speedup:.2}x per-point lowering ({fact:.1} vs {tree:.1} µs per \
         sweep; floor {floor}x)"
    );
}

/// The flight recorder, on by default, adds at most 5% to a costing
/// sweep that marks it once per point, as the search's bound step does.
/// On and off sweeps interleave, so drift hits both sides equally.
#[test]
fn flight_recorder_adds_at_most_5pct_to_the_costing_sweep() {
    const REPS: usize = 300;
    let sor = Sor::cubic(16, 10);
    let mut session = EstimatorSession::new(eval_small());
    let variants = accepted_variants(&sor, &mut session);
    let factory = sor.variant_factory();
    let marked_sweep = |session: &mut EstimatorSession| {
        let t0 = Instant::now();
        for (i, v) in variants.iter().enumerate() {
            tytra_trace::recorder::mark("dse.bound", i as u64);
            let d = factory.design(v).expect("legal variant");
            session.bound_design(&d.patched()).expect("bound");
        }
        t0.elapsed().as_secs_f64() * 1e6
    };
    marked_sweep(&mut session);

    let was_on = tytra_trace::recorder::enabled();
    let (mut on_us, mut off_us) = (Vec::with_capacity(REPS), Vec::with_capacity(REPS));
    for _ in 0..REPS {
        tytra_trace::recorder::set_enabled(true);
        on_us.push(marked_sweep(&mut session));
        tytra_trace::recorder::set_enabled(false);
        off_us.push(marked_sweep(&mut session));
    }
    tytra_trace::recorder::set_enabled(was_on);

    let (on, off) = (median(&mut on_us), median(&mut off_us));
    let overhead_pct = (on - off) / off * 100.0;
    eprintln!("recorder overhead {overhead_pct:+.2}% ({on:.1} vs {off:.1} µs per sweep)");
    if !cfg!(debug_assertions) {
        assert!(
            overhead_pct <= 5.0,
            "the flight recorder adds {overhead_pct:.2}% to the costing sweep ({on:.1} vs \
             {off:.1} µs; budget 5%)"
        );
    }
}
