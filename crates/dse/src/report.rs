//! The Fig 15 lane-sweep report: per-resource utilisation, bandwidth
//! pressure, throughput and wall identification as the number of kernel
//! pipeline lanes grows.

use crate::search::{EvaluatedVariant, SearchOutcome, SearchStats};
use tytra_cost::{EstimatorSession, Limiter};
use tytra_device::TargetDevice;
use tytra_kernels::EvalKernel;
use tytra_trace::metrics::{MetricValue, Snapshot};
use tytra_transform::{Variant, VariantFactory};

/// One row of the Fig 15 table.
#[derive(Debug, Clone)]
pub struct LaneSweepRow {
    /// Lane count.
    pub lanes: u64,
    /// Percent utilisation of registers.
    pub regs_pct: f64,
    /// Percent utilisation of ALUTs.
    pub aluts_pct: f64,
    /// Percent utilisation of BRAM.
    pub bram_pct: f64,
    /// Percent utilisation of DSPs.
    pub dsps_pct: f64,
    /// DRAM-bandwidth pressure: demand ÷ effective supply, percent.
    pub gmem_bw_pct: f64,
    /// Host-bandwidth pressure, percent.
    pub host_bw_pct: f64,
    /// EWGT/EKIT: kernel-instance (work-group) executions per second.
    pub ewgt: f64,
    /// Whether the variant fits the device.
    pub fits: bool,
    /// The binding wall.
    pub limiter: Limiter,
}

/// Run the lane sweep of `kernel` on `dev` for the given lane counts.
/// Illegal reshapes are skipped.
pub fn lane_sweep(
    kernel: &dyn EvalKernel,
    dev: &TargetDevice,
    lanes: &[u64],
    base: &Variant,
) -> Vec<LaneSweepRow> {
    let mut session = EstimatorSession::new(dev.clone());
    lane_sweep_session(kernel, &mut session, lanes, base)
}

/// [`lane_sweep`] through an existing estimator session, so the sweep
/// shares memoized sub-results with other passes over the same kernel.
pub fn lane_sweep_session(
    kernel: &dyn EvalKernel,
    session: &mut EstimatorSession,
    lanes: &[u64],
    base: &Variant,
) -> Vec<LaneSweepRow> {
    lane_sweep_with(&kernel.variant_factory(), session, lanes, base)
}

/// [`lane_sweep_session`] over an existing variant factory: each lane
/// count is costed as a patch of the factory's shared lowered base, so a
/// caller that also searches and tunes (`tybec dse`) lowers each design
/// once.
pub fn lane_sweep_with(
    factory: &VariantFactory,
    session: &mut EstimatorSession,
    lanes: &[u64],
    base: &Variant,
) -> Vec<LaneSweepRow> {
    let mut rows = Vec::new();
    for &l in lanes {
        let Ok(design) = factory.design(&Variant { lanes: l, ..*base }) else { continue };
        let Ok(r) = session.estimate_design(&design.patched()) else { continue };
        rows.push(row_from(l, &r));
    }
    rows
}

fn row_from(lanes: u64, r: &tytra_cost::CostReport) -> LaneSweepRow {
    // Bandwidth pressure: time the link needs ÷ time the datapath needs,
    // as a percentage (100 % = the wall).
    let t_comp = r.throughput.t_compute.max(1e-30);
    let gmem = r.throughput.t_memory / t_comp * 100.0;
    let host = r.throughput.t_host / t_comp * 100.0;
    LaneSweepRow {
        lanes,
        regs_pct: r.utilization.regs * 100.0,
        aluts_pct: r.utilization.aluts * 100.0,
        bram_pct: r.utilization.bram_bits * 100.0,
        dsps_pct: r.utilization.dsps * 100.0,
        gmem_bw_pct: gmem,
        host_bw_pct: host,
        ewgt: r.throughput.ekit,
        fits: r.fits,
        limiter: r.limiter,
    }
}

/// Format the sweep as an aligned text table (used by `tybec` and the
/// fig15 binary).
pub fn render_table(rows: &[LaneSweepRow]) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:>5} {:>8} {:>8} {:>8} {:>8} {:>9} {:>9} {:>12}  {:<6} wall",
        "lanes", "Regs%", "ALUTs%", "BRAM%", "DSPs%", "GMem-BW%", "Host-BW%", "EWGT/s", "fits"
    );
    for r in rows {
        let _ = writeln!(
            s,
            "{:>5} {:>8.1} {:>8.1} {:>8.1} {:>8.1} {:>9.1} {:>9.1} {:>12.1}  {:<6} {}",
            r.lanes,
            r.regs_pct,
            r.aluts_pct,
            r.bram_pct,
            r.dsps_pct,
            r.gmem_bw_pct,
            r.host_bw_pct,
            r.ewgt,
            if r.fits { "yes" } else { "NO" },
            r.limiter
        );
    }
    s
}

/// One line of the `tybec dse --stats` block. The numeric format is
/// byte-stable (scripts parse it); a session with no lookups at all
/// prints `n/a` rather than a misleading `0.0%`. The trailing eviction
/// count tracks CLOCK pressure on the bounded memo tables.
pub fn render_stats_line(label: &str, s: &tytra_cost::SessionStats) -> String {
    if s.lookups() == 0 {
        format!(
            "  {label:<14} {:>7} hits {:>7} misses  hit rate {:>6}  {:>5} evicted",
            s.hits, s.misses, "n/a", s.evictions
        )
    } else {
        format!(
            "  {label:<14} {:>7} hits {:>7} misses  hit rate {:>5.1}%  {:>5} evicted",
            s.hits,
            s.misses,
            s.hit_rate() * 100.0,
            s.evictions
        )
    }
}

/// Find the lane count at which a predicate first trips — the wall
/// positions quoted in the paper ("we encounter the computation-wall at
/// six lanes").
pub fn first_wall(rows: &[LaneSweepRow], pred: impl Fn(&LaneSweepRow) -> bool) -> Option<u64> {
    rows.iter().find(|r| pred(r)).map(|r| r.lanes)
}

/// A compact leaderboard of the first `top` evaluated variants.
fn render_leaderboard(evaluated: &[EvaluatedVariant], top: usize) -> String {
    let mut s = format!("{:>4} {:<18} {:>12} {:>7}  wall\n", "#", "variant", "EKIT/s", "fits");
    for (i, e) in evaluated.iter().take(top).enumerate() {
        s.push_str(&format!(
            "{:>4} {:<18} {:>12.1} {:>7}  {}\n",
            i + 1,
            e.variant.tag(),
            e.report.throughput.ekit,
            if e.report.fits { "yes" } else { "NO" },
            e.report.limiter
        ));
    }
    s
}

/// Render a [`SearchOutcome`]'s leaderboard plus its infeasible-set
/// summary. Everything here is derived from the search *outcome* — never
/// from the mode-dependent counters — so the text is byte-identical
/// between pruned and exhaustive modes.
pub fn render_search_leaderboard(outcome: &SearchOutcome, top: usize) -> String {
    let mut s = render_leaderboard(&outcome.leaderboard, top);
    match outcome.invalid.len() {
        0 => {}
        1 => s.push_str("  (1 variant does not fit the device)\n"),
        n => s.push_str(&format!("  ({n} variants do not fit the device)\n")),
    }
    s
}

/// The `tybec dse --stats` search-counter line. Byte-stable format, like
/// [`render_stats_line`].
pub fn render_search_stats_line(s: &SearchStats) -> String {
    format!(
        "  search         {:>7} generated {:>6} estimated {:>6} pruned ({} bound, {} unfit) {:>4} faulted",
        s.generated,
        s.estimated,
        s.pruned(),
        s.pruned_bound,
        s.pruned_unfit,
        s.faulted
    )
}

/// The `tybec dse --stats` per-variant costing-latency line: p50/p99 of
/// the estimator's bound and full-estimate passes, read from the
/// session-metrics histograms. The quantiles are log₂-bucket *upper
/// bounds* in nanoseconds (hence `≤`), so the line is byte-stable for a
/// given set of bucket hits; an empty histogram (e.g. bound in
/// `--exhaustive` mode, which never runs the bound pass) prints `n/a`.
pub fn render_latency_stats_line(snap: &Snapshot) -> String {
    fn quantiles(snap: &Snapshot, name: &str) -> (String, String) {
        match snap.get(name) {
            Some(MetricValue::Histogram(h)) if h.count > 0 => {
                (format!("≤{}", h.quantile_bound(0.50)), format!("≤{}", h.quantile_bound(0.99)))
            }
            _ => ("n/a".to_string(), "n/a".to_string()),
        }
    }
    let (bp50, bp99) = quantiles(snap, "estimator.bound_ns");
    let (ep50, ep99) = quantiles(snap, "estimator.estimate_ns");
    format!(
        "  latency (ns)   bound p50 {bp50:>9} p99 {bp99:>9}  estimate p50 {ep50:>9} p99 {ep99:>9}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use tytra_device::eval_small;
    use tytra_ir::MemForm;
    use tytra_kernels::Sor;

    #[test]
    fn sweep_reproduces_fig15_wall_ordering() {
        // Form-B SOR on the eval target: utilisation grows with lanes;
        // the ALUT (computation) wall must fall between the host wall
        // (form A, ~4) and the DRAM wall (~16).
        let sor = Sor::cubic(48, 10);
        let dev = eval_small();
        let lanes: Vec<u64> = (0..=4).map(|i| 1u64 << i).collect();
        let rows = lane_sweep(&sor, &dev, &lanes, &Variant::baseline());
        assert_eq!(rows.len(), 5);
        // Monotone resource growth.
        for w in rows.windows(2) {
            assert!(w[1].aluts_pct > w[0].aluts_pct);
        }
        // The computation wall: ALUTs cross 100 %.
        let wall = first_wall(&rows, |r| r.aluts_pct > 100.0);
        assert!(wall.is_some(), "{}", render_table(&rows));
    }

    #[test]
    fn ewgt_grows_until_a_wall() {
        let sor = Sor::cubic(48, 10);
        let dev = eval_small();
        let rows = lane_sweep(&sor, &dev, &[1, 2, 4], &Variant::baseline());
        assert!(rows[1].ewgt > rows[0].ewgt);
    }

    #[test]
    fn form_a_shows_host_wall() {
        let sor = Sor::cubic(48, 10);
        let dev = eval_small();
        let base = Variant { form: MemForm::A, ..Variant::baseline() };
        let rows = lane_sweep(&sor, &dev, &[1, 2, 4, 8], &base);
        // Host pressure grows relative to compute as lanes shrink the
        // compute time.
        assert!(rows.last().unwrap().host_bw_pct > rows[0].host_bw_pct);
    }

    #[test]
    fn table_renders_all_rows() {
        let sor = Sor::cubic(16, 1);
        let dev = eval_small();
        let rows = lane_sweep(&sor, &dev, &[1, 2], &Variant::baseline());
        let t = render_table(&rows);
        assert!(t.contains("EWGT/s"));
        assert_eq!(t.lines().count(), 3);
    }

    #[test]
    fn illegal_lane_counts_are_skipped() {
        let sor = Sor::cubic(16, 1); // 4096 items
        let dev = eval_small();
        let rows = lane_sweep(&sor, &dev, &[1, 3], &Variant::baseline());
        assert_eq!(rows.len(), 1, "3 does not divide 4096");
    }

    #[test]
    fn stats_line_format_is_byte_stable() {
        use tytra_cost::SessionStats;
        let s = SessionStats { hits: 1234, misses: 56, evictions: 7 };
        assert_eq!(
            render_stats_line("total", &s),
            "  total             1234 hits      56 misses  hit rate  95.7%      7 evicted"
        );
    }

    #[test]
    fn stats_line_shows_na_for_an_untouched_session() {
        use tytra_cost::SessionStats;
        let line = render_stats_line("sweep+tuning", &SessionStats::default());
        assert_eq!(
            line,
            "  sweep+tuning         0 hits       0 misses  hit rate    n/a      0 evicted"
        );
        assert!(!line.contains("0.0%"), "untouched session must not claim a 0.0% rate: {line}");
    }

    #[test]
    fn search_stats_line_is_byte_stable() {
        let s = SearchStats {
            generated: 24,
            estimated: 10,
            pruned_unfit: 8,
            pruned_bound: 6,
            ..SearchStats::default()
        };
        assert_eq!(
            render_search_stats_line(&s),
            "  search              24 generated     10 estimated     14 pruned (6 bound, 8 unfit)    0 faulted"
        );
        let faulty = SearchStats { faulted: 2, ..s };
        assert!(render_search_stats_line(&faulty).ends_with("    2 faulted"));
    }

    #[test]
    fn search_stats_line_with_no_pruning() {
        let s = SearchStats { generated: 6, estimated: 6, ..SearchStats::default() };
        assert_eq!(
            render_search_stats_line(&s),
            "  search               6 generated      6 estimated      0 pruned (0 bound, 0 unfit)    0 faulted"
        );
    }

    #[test]
    fn latency_stats_line_is_byte_stable() {
        use tytra_trace::metrics::Registry;
        let reg = Registry::new();
        reg.histogram("estimator.bound_ns").record(100); // bucket bound 127
        reg.histogram("estimator.estimate_ns").record(1000); // bucket bound 1023
        assert_eq!(
            render_latency_stats_line(&reg.snapshot()),
            "  latency (ns)   bound p50      ≤127 p99      ≤127  estimate p50     ≤1023 p99     ≤1023"
        );
    }

    #[test]
    fn latency_stats_line_shows_na_for_empty_histograms() {
        // An exhaustive search never runs the bound pass; a dry run never
        // estimates. Neither may print a misleading `≤0`.
        let line = render_latency_stats_line(&Snapshot::new());
        assert_eq!(
            line,
            "  latency (ns)   bound p50       n/a p99       n/a  estimate p50       n/a p99       n/a"
        );
        use tytra_trace::metrics::Registry;
        let reg = Registry::new();
        reg.histogram("estimator.estimate_ns").record(1000);
        let mixed = render_latency_stats_line(&reg.snapshot());
        assert_eq!(
            mixed,
            "  latency (ns)   bound p50       n/a p99       n/a  estimate p50     ≤1023 p99     ≤1023"
        );
    }

    #[test]
    fn search_leaderboard_matches_legacy_rows_and_counts_the_unfit() {
        use crate::search::{search, SearchConfig};
        use crate::ExplorationConfig;
        let sor = Sor::cubic(16, 10);
        let dev = eval_small();
        let space = ExplorationConfig {
            lanes: vec![1, 2, 16],
            vects: vec![1],
            forms: vec![MemForm::A, MemForm::B],
        };
        let outcome = search(&sor, &dev, &SearchConfig::pruned(space));
        let text = render_search_leaderboard(&outcome, 10);
        // The board opens with the leaderboard header.
        assert_eq!(
            text.lines().next().unwrap(),
            render_leaderboard(&outcome.leaderboard, 10).lines().next().unwrap()
        );
        assert!(
            text.contains("(2 variants do not fit the device)"),
            "lanes 16 under both forms must be counted: {text}"
        );
    }
}
