//! The paper's core workflow on the SOR kernel: generate design
//! variants by type transformation, search the design space, print the
//! Fig-15-style wall table, cost the variants a small device cannot hold
//! as run-time reconfiguration (C6), and let the guided tuner walk to
//! the best point.
//!
//! ```sh
//! cargo run --release --example sor_design_space
//! ```

use tytra::cost::{estimate, reconfig_plan};
use tytra::device::{eval_small, stratix_v_gsd8};
use tytra::dse::{report, search, tune, ExplorationConfig, SearchConfig};
use tytra::ir::MemForm;
use tytra::kernels::{EvalKernel, Sor};
use tytra::transform::Variant;

fn main() {
    let sor = Sor::cubic(96, 1000);
    let dev = stratix_v_gsd8();

    // 1. Lane sweep — how utilisation and throughput scale (Fig 15).
    println!("== SOR lane sweep on {} ==", dev.name);
    let rows = report::lane_sweep(&sor, &dev, &[1, 2, 4, 8, 16, 32], &Variant::baseline());
    print!("{}", report::render_table(&rows));

    // 2. Search — every legal (lanes × vect × form) point, bound-pruned.
    let space = ExplorationConfig {
        lanes: vec![1, 2, 4, 8, 16, 32],
        vects: vec![1, 2],
        forms: vec![MemForm::A, MemForm::B],
        ..ExplorationConfig::default()
    };
    let outcome = search(&sor, &dev, &SearchConfig::pruned(space.clone()));
    println!("\n== top variants of {} generated ==", outcome.stats.generated);
    print!("{}", report::render_search_leaderboard(&outcome, 8));

    let best = outcome.leaderboard.first().expect("something fits");
    println!(
        "\nselected: {} — EKIT {:.1}/s, {}",
        best.variant.tag(),
        best.report.throughput.ekit,
        best.report.limiter
    );

    // 3. Run-time reconfiguration (C6, Fig 5): on a small device the wide
    //    variants overflow; each one the search finds infeasible is
    //    costed as successive fabric personalities.
    let small = eval_small();
    let outcome = search(&sor, &small, &SearchConfig::pruned(space));
    println!(
        "\n== C6 plans for the {} variants that do not fit {} ==",
        outcome.invalid.len(),
        small.name
    );
    for iv in &outcome.invalid {
        let m = sor.lower_variant(&iv.variant).expect("legal variant lowers");
        let r = estimate(&m, &small).expect("variant costs");
        match reconfig_plan(&r, &small) {
            Some(p) => println!(
                "  {:<18} {} personalities, EKIT {:.1}/s ({:.1}x slower than resident)",
                iv.variant.tag(),
                p.personalities,
                p.ekit,
                p.slowdown
            ),
            None => println!("  {:<18} cannot be split", iv.variant.tag()),
        }
    }

    // 4. Guided tuning — the cost model's limiter drives the moves.
    println!("\n== guided tuning from the baseline ==");
    for step in tune(&sor, &dev, Variant::baseline(), 12) {
        println!(
            "  {:<18} EKIT {:>12.1}  {}{}",
            step.variant.tag(),
            step.ekit,
            step.limiter,
            step.action.map(|a| format!("  → {a}")).unwrap_or_default()
        );
    }
}
