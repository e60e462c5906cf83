//! Pins the memo traffic of one `tybec dse <kernel> --lanes 1..64` run:
//! the lane sweep, the search and the tuning loop on one variant
//! factory and one estimator session, as the CLI runs them. The counts
//! are what `--stats` prints on its `total` line, so any change to how a
//! pass walks the plan or probes a memo must leave them exactly as they
//! are.

use tytra_cost::{EstimatorSession, SessionStats};
use tytra_device::stratix_v_gsd8;
use tytra_dse::{lane_sweep_with, search_with, tune_with, ExplorationConfig, SearchConfig};
use tytra_kernels::{EvalKernel, Hotspot, LavaMd, Sor};
use tytra_transform::Variant;

fn dse_stats(kernel: &dyn EvalKernel) -> SessionStats {
    let lanes: Vec<u64> = (1..=64).collect();
    let factory = kernel.variant_factory();
    let mut session = EstimatorSession::new(stratix_v_gsd8());
    lane_sweep_with(&factory, &mut session, &lanes, &Variant::baseline());
    let space = ExplorationConfig { lanes, ..ExplorationConfig::default() };
    search_with(&factory, &mut session, &SearchConfig { space, ..SearchConfig::default() });
    tune_with(&factory, &mut session, Variant::baseline(), 12);
    session.stats()
}

#[test]
fn dse_session_counters_over_lanes_1_to_64() {
    let kernels: [(&str, Box<dyn EvalKernel>, u64, u64); 3] = [
        ("sor", Box::new(Sor::default()), 5264, 49),
        ("hotspot", Box::new(Hotspot::default()), 1451, 17),
        ("lavamd", Box::new(LavaMd::default()), 1460, 17),
    ];
    for (name, kernel, hits, misses) in kernels {
        let want = SessionStats { hits, misses, evictions: 0 };
        assert_eq!(dse_stats(kernel.as_ref()), want, "{name}");
    }
}
