//! The branch-and-bound contract, property-tested: for *any* device the
//! strategy can build, the pruned search must return exactly the outcome
//! of the exhaustive search — same ranked leaderboard (bit-equal EKITs,
//! same order), same infeasible set.
//!
//! The device strategy scales `eval_small` along the axes the bound
//! actually reads — resource capacities (moves the fit frontier through
//! the lane sweep), Fmax (the compute-floor ceiling), link peaks (the
//! memory wall) and the host-call overhead — so pruning decisions shift
//! case to case while the admissibility argument (docs/dse-search.md)
//! must keep holding.

use proptest::prelude::*;
use tytra_device::{eval_small, TargetDevice};
use tytra_dse::{search, ExplorationConfig, SearchConfig, SearchOutcome};
use tytra_ir::MemForm;
use tytra_kernels::Sor;

/// The lane sweep deliberately includes counts that only fit the larger
/// sampled devices, so `pruned_unfit` and `pruned_bound` both exercise.
fn space() -> ExplorationConfig {
    ExplorationConfig {
        lanes: vec![1, 2, 4, 8, 16, 32],
        vects: vec![1, 2],
        forms: vec![MemForm::A, MemForm::B, MemForm::C],
    }
}

/// `eval_small`, rescaled. Every factor stays positive, so the derived
/// device is physically sensible and the bound's monotonicity argument
/// applies unchanged.
fn scaled_device(cap: f64, fmax: f64, link: f64, overhead: f64) -> TargetDevice {
    let mut dev = eval_small();
    dev.name = format!("prop-c{cap:.2}-f{fmax:.0}-l{link:.2}-o{overhead:.0}");
    dev.capacity.aluts = ((dev.capacity.aluts as f64) * cap) as u64;
    dev.capacity.regs = ((dev.capacity.regs as f64) * cap) as u64;
    dev.capacity.bram_bits = ((dev.capacity.bram_bits as f64) * cap) as u64;
    dev.capacity.dsps = ((dev.capacity.dsps as f64) * cap) as u64;
    dev.fmax_mhz = fmax;
    dev.host_link.peak_bytes_per_s *= link;
    dev.dram_link.peak_bytes_per_s *= link;
    dev.host_call_overhead_us = overhead;
    dev
}

fn fingerprint(o: &SearchOutcome) -> (Vec<(String, u64)>, Vec<String>) {
    (
        o.leaderboard
            .iter()
            .map(|e| (e.variant.tag(), e.report.throughput.ekit.to_bits()))
            .collect(),
        o.invalid.iter().map(|iv| iv.variant.tag()).collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Pruned ≡ exhaustive for random devices.
    #[test]
    fn pruned_search_is_bit_identical_to_exhaustive(
        cap in 0.25f64..6.0,
        fmax in 60.0f64..400.0,
        link in 0.2f64..3.0,
        overhead in 1.0f64..200.0,
    ) {
        let dev = scaled_device(cap, fmax, link, overhead);
        let sor = Sor::cubic(16, 10);

        let pruned = search(&sor, &dev, &SearchConfig::pruned(space()));
        let exhaustive = search(&sor, &dev, &SearchConfig::exhaustive(space()));

        // Exhaustive mode never skips an estimate; pruned mode never
        // changes the answer.
        prop_assert_eq!(exhaustive.stats.estimated, exhaustive.stats.generated);
        prop_assert_eq!(exhaustive.stats.pruned(), 0);
        prop_assert_eq!(pruned.stats.generated, exhaustive.stats.generated);
        prop_assert_eq!(fingerprint(&pruned), fingerprint(&exhaustive));
    }
}
