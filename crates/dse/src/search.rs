//! The design-space search: the DSE engine.
//!
//! [`search()`] costs every legal variant of a kernel with the full
//! eight-pass estimate, in generation order. The paper's model exists to
//! cost each variant a compiler generates, and a warm `estimate_design`
//! takes about a microsecond, so no variant is skipped. The engine:
//!
//! * enumerates the legal `pipe` variants ([`enumerate_variants`]) and
//!   costs them on the calling thread through the caller's
//!   [`EstimatorSession`], so a driver that sweeps, searches and tunes
//!   (`tybec dse`) shares one set of memo tables;
//! * materialises each variant as a copy-on-write patch over a shared
//!   arena base ([`VariantFactory`] — one lowering per structural
//!   class), and costs it through the estimator's zero-alloc
//!   `estimate_design` pass instead of cloning a tree module per design
//!   point;
//! * keeps a top-K board of the best valid variants, breaking EKIT ties
//!   by generation index, and collects the variants that do not fit the
//!   device (see `docs/dse-search.md`).
//!
//! Tracing: each estimate carries a `dse.variant` span, nested under the
//! caller's span.
//!
//! Faults: each estimate runs under [`tytra_trace::catch_panic`], so a
//! variant that fails to build, errors or panics is counted as faulted
//! and skipped, and the walk goes on.
//!
//! Observability: the search leaves a `dse.variant` breadcrumb per
//! variant in the always-on [flight recorder][tytra_trace::recorder]
//! (so a crashed or faulted variant ships a post-mortem trace — see
//! [`SearchOutcome::fault_dumps`]), and returns its `dse.*` metrics in
//! [`SearchOutcome::metrics`]: the estimate latency histogram, plus
//! counters and a `dse.points_per_sec` gauge written once from
//! [`SearchStats`] after the walk.

use std::time::Instant;
use tytra_cost::{CostReport, EstimatorSession};
use tytra_device::TargetDevice;
use tytra_ir::MemForm;
use tytra_kernels::EvalKernel;
use tytra_trace::metrics::{Histogram, Registry, Snapshot};
use tytra_trace::recorder;
use tytra_trace::{self as trace};
use tytra_transform::{enumerate_variants, InnerKind, Variant, VariantFactory};

/// What to sweep. A value repeated on an axis is generated once, at its
/// first occurrence.
#[derive(Debug, Clone)]
pub struct ExplorationConfig {
    /// Lane counts to try (filtered for reshape legality).
    pub lanes: Vec<u64>,
    /// Vectorization degrees to try.
    pub vects: Vec<u32>,
    /// Memory-execution forms to try.
    pub forms: Vec<MemForm>,
}

impl Default for ExplorationConfig {
    fn default() -> ExplorationConfig {
        ExplorationConfig {
            lanes: vec![1, 2, 4, 8, 16, 32],
            vects: vec![1, 2],
            forms: vec![MemForm::A, MemForm::B],
        }
    }
}

/// One costed point of the design space.
#[derive(Debug, Clone)]
pub struct EvaluatedVariant {
    /// The variant.
    pub variant: Variant,
    /// The cost model's full report.
    pub report: CostReport,
}

/// Search configuration: the space to sweep plus search-specific knobs.
#[derive(Debug, Clone)]
pub struct SearchConfig {
    /// The design space.
    pub space: ExplorationConfig,
    /// Leaderboard size: the search returns the top `top_k` valid
    /// variants. The board grows with what it holds, never with
    /// `top_k`, so any value is safe.
    pub top_k: usize,
    /// Test/fuzz hook: a predicate selecting variants whose estimate
    /// must fault (the search panics inside its catch region). `None` in
    /// production. A plain `fn` pointer keeps the config `Debug + Clone`.
    pub fault_inject: Option<fn(&Variant) -> bool>,
}

impl SearchConfig {
    /// A search over `space` with the default board size. The search
    /// estimates every variant; the name is from when it pruned on an
    /// analytic bound, and stays because the benchmark calls it.
    pub fn pruned(space: ExplorationConfig) -> SearchConfig {
        SearchConfig { space, top_k: 10, fault_inject: None }
    }
}

impl Default for SearchConfig {
    fn default() -> SearchConfig {
        SearchConfig::pruned(ExplorationConfig::default())
    }
}

/// What the search did, not what it found. The search runs in generation
/// order on one thread, so every counter is a deterministic function of
/// the space, the device and the configuration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Legal variants drawn from the generator.
    pub generated: u64,
    /// Variants that paid the full 8-pass estimate: every generated
    /// variant but the faulted ones.
    pub estimated: u64,
    /// Always 0: the search runs on its caller's thread and steals no
    /// work. Kept because the benchmark reads it as `dse.stolen`.
    pub stolen: u64,
    /// Variants whose design or estimate faulted (error or caught
    /// panic). Faulted variants are skipped, never aborting the sweep;
    /// the leaderboard over the healthy variants is unaffected.
    pub faulted: u64,
    /// Always 0: the search replicates no report from a congruent
    /// variant. Kept because the benchmark reads it as `dse.collapsed`.
    pub collapsed: u64,
}

impl SearchStats {
    /// Always 0: the search estimates every variant it generates. Kept
    /// because the benchmark reads it as `dse.pruned_frac`.
    pub fn pruned_fraction(&self) -> f64 {
        0.0
    }
}

impl std::ops::AddAssign for SearchStats {
    fn add_assign(&mut self, rhs: SearchStats) {
        self.generated += rhs.generated;
        self.estimated += rhs.estimated;
        self.stolen += rhs.stolen;
        self.faulted += rhs.faulted;
        self.collapsed += rhs.collapsed;
    }
}

/// A variant that does not fit the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidVariant {
    /// Position in the legal generation order.
    pub index: u64,
    /// The variant.
    pub variant: Variant,
}

/// The search result: the ranked top-K valid variants, the infeasible
/// set, and the counters.
#[derive(Debug)]
pub struct SearchOutcome {
    /// Top `top_k` device-fitting variants by (EKIT desc, index asc).
    pub leaderboard: Vec<EvaluatedVariant>,
    /// Variants that do not fit the device, by generation index.
    pub invalid: Vec<InvalidVariant>,
    /// Search counters (generated / estimated / faulted).
    pub stats: SearchStats,
    /// The search's own `dse.*` metrics: the `dse.points` and
    /// `dse.faulted` counters (equal to their [`SearchStats`] fields),
    /// the `dse.points_per_sec` gauge and the `dse.estimate_ns` latency
    /// histogram. The estimator's metrics stay in the caller's session.
    pub metrics: Snapshot,
    /// Post-mortem flight-recorder dumps, one per faulted variant, in
    /// generation order: `(variant tag, rendered dump)`. The dump is the
    /// calling thread's lane at the moment the fault was recorded, so it
    /// ends with the variant's `dse.variant` breadcrumb and the
    /// `dse.fault` mark itself.
    pub fault_dumps: Vec<(String, String)>,
}

/// The top-K board: the best valid variants so far, ranked by (EKIT
/// descending, generation index ascending).
struct Board {
    entries: Vec<EvaluatedVariant>,
    k: usize,
}

impl Board {
    fn new(k: usize) -> Board {
        Board { entries: Vec::new(), k }
    }

    /// Rank a newly estimated valid variant. Variants arrive in
    /// generation order, so a newcomer ranks after every entry of equal
    /// EKIT — the generation-index tie-break.
    fn record(&mut self, e: EvaluatedVariant) {
        let ekit = e.report.throughput.ekit;
        let pos =
            self.entries.partition_point(|b| b.report.throughput.ekit.total_cmp(&ekit).is_ge());
        if pos < self.k {
            self.entries.insert(pos, e);
            self.entries.truncate(self.k);
        }
    }
}

/// The search's accumulator.
struct Run {
    board: Board,
    invalid: Vec<InvalidVariant>,
    stats: SearchStats,
    fault_dumps: Vec<(String, String)>,
    /// Every estimate call is timed, the faulting ones too.
    estimate_ns: Histogram,
}

/// Record one faulted variant: counted, traced as a `dse.fault` span,
/// stamped into the flight recorder, and shipped with a post-mortem dump
/// of this thread's lane — then skipped; the sweep continues.
fn record_fault(run: &mut Run, index: u64, variant: &Variant, why: &str) {
    run.stats.faulted += 1;
    recorder::mark("dse.fault", index);
    if trace::enabled() {
        let _sp =
            trace::span("dse.fault").with("variant", variant.tag()).with("why", why.to_string());
    }
    if let Some(lane) = recorder::dump_current_thread() {
        run.fault_dumps.push((variant.tag(), recorder::render_dump(&[lane])));
    }
}

/// Estimate one design point and file it on the board or in the
/// infeasible set.
///
/// The estimate runs inside [`trace::catch_panic`], so one faulting
/// variant (an `Err` *or* a panic deep in a pass) is skipped and counted
/// instead of tearing down the whole sweep. The session is treated as
/// unwind-safe: its memo tables are keyed by structural fingerprint, so
/// the worst a mid-pass panic leaves behind is an absent entry for the
/// faulted module, never a wrong one for a healthy module.
fn cost_variant(
    factory: &VariantFactory,
    index: u64,
    variant: Variant,
    cfg: &SearchConfig,
    session: &mut EstimatorSession,
    run: &mut Run,
) {
    // The factory serves the variant as a four-cell patch over a shared
    // arena base (lowered once per structural class). The generator
    // already filtered illegal reshapes, but a variant can still fail
    // validation (two lanes' generated names colliding, say): that
    // variant is a fault like any other.
    let design = match factory.design(&variant) {
        Ok(design) => design,
        Err(e) => {
            record_fault(run, index, &variant, &e.to_string());
            return;
        }
    };

    recorder::mark("dse.variant", index);
    let e0 = Instant::now();
    let estimated = trace::catch_panic(|| {
        let _sp =
            trace::enabled().then(|| trace::span("dse.variant").with("variant", variant.tag()));
        if let Some(faulty) = cfg.fault_inject {
            if faulty(&variant) {
                panic!("injected estimator fault on {}", variant.tag());
            }
        }
        session.estimate_design(&design.patched())
    });
    run.estimate_ns.record(e0.elapsed().as_nanos() as u64);
    let report = match estimated {
        Ok(Ok(report)) => report,
        Ok(Err(e)) => {
            record_fault(run, index, &variant, &e.to_string());
            return;
        }
        Err(message) => {
            record_fault(run, index, &variant, &message);
            return;
        }
    };
    run.stats.estimated += 1;
    if report.fits {
        run.board.record(EvaluatedVariant { variant, report });
    } else {
        run.invalid.push(InvalidVariant { index, variant });
    }
}

/// Search the design space of `kernel` on `dev` through a fresh
/// estimator session.
///
/// Returns the top-K valid variants ranked by (EKIT descending,
/// generation index ascending) and the set of variants that do not fit
/// the device.
pub fn search(kernel: &dyn EvalKernel, dev: &TargetDevice, cfg: &SearchConfig) -> SearchOutcome {
    search_with(&kernel.variant_factory(), &mut EstimatorSession::new(dev.clone()), cfg)
}

/// [`search`] over an existing variant factory and estimator session,
/// on the calling thread. Variants are costed as copy-on-write patches
/// of the factory's bases (lowered by an earlier sweep over the same
/// factory, or on first touch here), and every estimate goes through
/// `session`, so its memo tables serve the search and whatever the
/// caller costs before and after it.
pub fn search_with(
    factory: &VariantFactory,
    session: &mut EstimatorSession,
    cfg: &SearchConfig,
) -> SearchOutcome {
    let sp = &cfg.space;
    let reg = Registry::new();
    let mut run = Run {
        board: Board::new(cfg.top_k),
        invalid: Vec::new(),
        stats: SearchStats::default(),
        fault_dumps: Vec::new(),
        estimate_ns: reg.histogram("dse.estimate_ns"),
    };
    let t0 = Instant::now();
    let variants = enumerate_variants(factory.geometry().size(), &sp.lanes, &sp.vects, &sp.forms);
    for (index, variant) in variants.into_iter().filter(|v| v.inner == InnerKind::Pipe).enumerate()
    {
        run.stats.generated += 1;
        cost_variant(factory, index as u64, variant, cfg, session, &mut run);
    }
    let stats = run.stats;
    reg.counter("dse.points").add(stats.generated);
    reg.counter("dse.faulted").add(stats.faulted);
    let secs = t0.elapsed().as_secs_f64().max(1e-9);
    reg.gauge("dse.points_per_sec").set(stats.generated as f64 / secs);
    SearchOutcome {
        leaderboard: run.board.entries,
        invalid: run.invalid,
        stats,
        metrics: reg.snapshot(),
        fault_dumps: run.fault_dumps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tytra_device::{eval_small, stratix_v_gsd8};
    use tytra_kernels::Sor;

    fn space() -> ExplorationConfig {
        ExplorationConfig::default()
    }

    fn over(space: ExplorationConfig) -> SearchConfig {
        SearchConfig { space, ..SearchConfig::default() }
    }

    type Fingerprint = (Vec<(String, u64)>, Vec<(u64, String)>);

    fn fingerprint(o: &SearchOutcome) -> Fingerprint {
        (
            o.leaderboard
                .iter()
                .map(|e| (e.variant.tag(), e.report.throughput.ekit.to_bits()))
                .collect(),
            o.invalid.iter().map(|iv| (iv.index, iv.variant.tag())).collect(),
        )
    }

    #[test]
    fn search_counters_are_deterministic() {
        // The acceptance space on eval-small, and `tybec dse sor --lanes
        // 1..64`: every generated variant is estimated.
        let wide = ExplorationConfig { lanes: (1..=64).collect(), ..space() };
        let cases = [
            (Sor::cubic(16, 10), eval_small(), space(), 24),
            (Sor::default(), stratix_v_gsd8(), wide, 86),
        ];
        for (sor, dev, space, generated) in cases {
            let stats = search(&sor, &dev, &over(space)).stats;
            assert_eq!(
                stats,
                SearchStats { generated, estimated: generated, ..SearchStats::default() }
            );
        }
    }

    #[test]
    fn matches_per_point_ranking_on_valid_variants() {
        // The search must agree with lowering every variant and
        // estimating it in a fresh session: the same device-fitting
        // variants, ranked by EKIT with ties in generation order, with
        // bit-equal EKITs, and the same infeasible set. Three cases:
        // everything fits the big device; lanes 16 and 32 do not fit
        // eval-small; at NKI 1 the A and B forms of a variant cost the
        // same, so the board holds exact EKIT ties.
        let cases = [
            (Sor::cubic(16, 10), stratix_v_gsd8()),
            (Sor::cubic(16, 10), eval_small()),
            (Sor::cubic(16, 1), eval_small()),
        ];
        let sp = space();
        for (sor, dev) in cases {
            let cfg = over(sp.clone());
            let outcome = search(&sor, &dev, &cfg);
            let mut fitting: Vec<(Variant, CostReport)> = Vec::new();
            let mut invalid: Vec<(u64, String)> = Vec::new();
            let variants =
                enumerate_variants(sor.geometry().size(), &sp.lanes, &sp.vects, &sp.forms);
            for (i, v) in variants.into_iter().filter(|v| v.inner == InnerKind::Pipe).enumerate() {
                let m = sor.lower_variant(&v).expect("legal variant lowers");
                let r = EstimatorSession::new(dev.clone()).estimate(&m).expect("variant costs");
                if r.fits {
                    fitting.push((v, r));
                } else {
                    invalid.push((i as u64, v.tag()));
                }
            }
            // A stable sort keeps generation order among equal EKITs.
            fitting.sort_by(|(_, a), (_, b)| b.throughput.ekit.total_cmp(&a.throughput.ekit));
            let board: Vec<(String, u64)> = fitting
                .iter()
                .take(cfg.top_k)
                .map(|(v, r)| (v.tag(), r.throughput.ekit.to_bits()))
                .collect();
            let label = format!("{} nki {}", dev.name, sor.nki);
            assert_eq!(fingerprint(&outcome), (board.clone(), invalid.clone()), "{label}");
            if dev.name == eval_small().name {
                assert!(!invalid.is_empty(), "{label}: lanes 16 and 32 do not fit");
            }
            if sor.nki == 1 {
                assert!(board.windows(2).any(|w| w[0].1 == w[1].1), "{label}: no EKIT tie");
            }
        }
    }

    #[test]
    fn repeated_axis_values_generate_once_at_their_first_occurrence() {
        let sor = Sor::cubic(16, 10);
        let dev = eval_small();
        let forms = vec![MemForm::A, MemForm::B];
        let once = search(
            &sor,
            &dev,
            &over(ExplorationConfig {
                lanes: vec![16, 2],
                vects: vec![2, 1],
                forms: forms.clone(),
            }),
        );
        let repeated = search(
            &sor,
            &dev,
            &over(ExplorationConfig {
                lanes: vec![16, 2, 16, 2, 2],
                vects: vec![2, 1, 2],
                forms: vec![MemForm::A, MemForm::B, MemForm::A],
            }),
        );
        assert_eq!(once.stats.generated, 8);
        assert_eq!(repeated.stats, once.stats);
        assert_eq!(fingerprint(&repeated), fingerprint(&once));
        assert!(!once.invalid.is_empty(), "16 lanes do not fit eval-small");
    }

    #[test]
    fn empty_space_returns_an_empty_outcome() {
        let sor = Sor::cubic(16, 10); // 4096 items: 3 never divides
        let mut session = EstimatorSession::new(eval_small());
        let cfg = over(ExplorationConfig { lanes: vec![3], vects: vec![3], ..space() });
        let o = search_with(&sor.variant_factory(), &mut session, &cfg);
        assert!(o.leaderboard.is_empty());
        assert!(o.invalid.is_empty());
        assert_eq!(o.stats, SearchStats::default());
        assert_eq!(session.stats().lookups(), 0, "no estimator work for an empty space");
    }

    #[test]
    fn board_keeps_the_k_best_with_ties_in_arrival_order() {
        let sor = Sor::cubic(16, 10);
        let mut session = EstimatorSession::new(stratix_v_gsd8());
        let base = sor.variant_factory().design(&Variant::baseline()).unwrap();
        let report = session.estimate_design(&base.patched()).unwrap();
        let entry = |ekit: f64, lanes: u64| {
            let mut report = report.clone();
            report.throughput.ekit = ekit;
            EvaluatedVariant { variant: Variant { lanes, ..Variant::baseline() }, report }
        };
        let lanes = |b: &Board| b.entries.iter().map(|e| e.variant.lanes).collect::<Vec<u64>>();
        let mut board = Board::new(2);
        board.record(entry(5.0, 1));
        board.record(entry(3.0, 2));
        assert_eq!(lanes(&board), [1, 2]);
        board.record(entry(4.0, 4));
        assert_eq!(lanes(&board), [1, 4], "4.0 displaces 3.0 as 2nd best");
        board.record(entry(1.0, 8));
        assert_eq!(lanes(&board), [1, 4], "a worse result never enters a full board");
        board.record(entry(5.0, 16));
        assert_eq!(lanes(&board), [1, 16], "an EKIT tie ranks by arrival (generation) order");
        let mut empty = Board::new(0);
        empty.record(entry(9.0, 1));
        assert!(empty.entries.is_empty(), "a board with no room holds nothing");
    }

    fn faults_on_two_lanes(v: &Variant) -> bool {
        v.lanes == 2
    }

    #[test]
    fn injected_faults_skip_variants_without_aborting_the_sweep() {
        let sor = Sor::cubic(16, 10);
        let dev = eval_small();
        let clean_cfg = SearchConfig { top_k: 100, ..over(space()) };
        let clean = search(&sor, &dev, &clean_cfg);
        assert_eq!(clean.stats.faulted, 0);
        assert!(clean.leaderboard.iter().any(|e| e.variant.lanes == 2), "space has 2-lane points");

        // Quiet the default panic hook while the injected panics fly.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let faulty_cfg =
            SearchConfig { fault_inject: Some(faults_on_two_lanes), ..clean_cfg.clone() };
        let outcome = search(&sor, &dev, &faulty_cfg);
        std::panic::set_hook(prev);

        // The sweep completed; every faulted variant was counted and
        // skipped, never estimated and never ranked.
        assert!(outcome.stats.faulted > 0);
        assert_eq!(outcome.stats.generated, clean.stats.generated);
        assert_eq!(outcome.stats.estimated + outcome.stats.faulted, clean.stats.estimated);
        assert!(outcome.leaderboard.iter().all(|e| e.variant.lanes != 2));

        // The healthy-variant leaderboard is bit-identical to the clean
        // run's board with the faulted variants removed.
        let expected: Vec<(String, u64)> = clean
            .leaderboard
            .iter()
            .filter(|e| !faults_on_two_lanes(&e.variant))
            .map(|e| (e.variant.tag(), e.report.throughput.ekit.to_bits()))
            .collect();
        assert_eq!(fingerprint(&outcome).0, expected);
    }

    #[test]
    fn faults_ship_post_mortem_flight_dumps() {
        let sor = Sor::cubic(16, 10);
        let dev = eval_small();
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let cfg = SearchConfig { fault_inject: Some(faults_on_two_lanes), ..over(space()) };
        let outcome = search(&sor, &dev, &cfg);
        std::panic::set_hook(prev);

        assert!(outcome.stats.faulted > 0);
        assert_eq!(outcome.fault_dumps.len() as u64, outcome.stats.faulted);
        for (tag, dump) in &outcome.fault_dumps {
            assert!(tag.starts_with("l2_"), "only 2-lane variants fault: {tag}");
            // The post-mortem lane ends with the faulting variant's own
            // breadcrumb trail: estimate entry, fault mark.
            assert!(dump.contains("dse.variant"), "{dump}");
            assert!(dump.contains("dse.fault"), "{dump}");
            assert!(dump.contains("== flight recorder =="), "{dump}");
        }
    }

    #[test]
    fn search_metrics_equal_the_stats() {
        // `tybec dse sor --lanes 1..64`, and a search with injected
        // estimate faults.
        let wide = ExplorationConfig { lanes: (1..=64).collect(), ..space() };
        let clean = search(&Sor::default(), &stratix_v_gsd8(), &over(wide));
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let cfg = SearchConfig { fault_inject: Some(faults_on_two_lanes), ..over(space()) };
        let faulted = search(&Sor::cubic(16, 10), &eval_small(), &cfg);
        std::panic::set_hook(prev);
        assert!(faulted.stats.faulted > 0, "{:?}", faulted.stats);

        for o in [&clean, &faulted] {
            let s = o.stats;
            let names: Vec<&str> = o.metrics.entries.iter().map(|(n, _)| n.as_str()).collect();
            assert_eq!(
                names,
                ["dse.estimate_ns", "dse.faulted", "dse.points", "dse.points_per_sec"]
            );
            assert_eq!(o.metrics.counter("dse.points"), s.generated, "{s:?}");
            assert_eq!(o.metrics.counter("dse.faulted"), s.faulted, "{s:?}");
            // Every estimate is timed, the faulting ones too.
            match o.metrics.get("dse.estimate_ns") {
                Some(tytra_trace::metrics::MetricValue::Histogram(h)) => {
                    assert_eq!(h.count, s.estimated + s.faulted, "{s:?}")
                }
                other => panic!("dse.estimate_ns is not a histogram: {other:?}"),
            }
        }
    }

    #[test]
    fn estimator_calls_are_counted_once_in_the_callers_session() {
        // The search costs through the caller's session, so the session
        // sees every estimate and the outcome holds only `dse.*` metrics.
        let sor = Sor::cubic(16, 10);
        let mut session = EstimatorSession::new(stratix_v_gsd8());
        let outcome = search_with(&sor.variant_factory(), &mut session, &over(space()));
        assert!(outcome.metrics.entries.iter().all(|(name, _)| name.starts_with("dse.")));
        let metrics = session.metrics_snapshot();
        match metrics.get("estimator.estimate_ns") {
            Some(tytra_trace::metrics::MetricValue::Histogram(h)) => {
                assert_eq!(h.count, outcome.stats.estimated)
            }
            other => panic!("estimator.estimate_ns is not a histogram: {other:?}"),
        }
        // `--stats` and `--metrics` read the same registry counters.
        let stats = session.stats();
        assert!(stats.lookups() > 0);
        assert_eq!(stats.hits, metrics.counter("session.memo.hits"));
        assert_eq!(stats.misses, metrics.counter("session.memo.misses"));
        assert_eq!(stats.evictions, metrics.counter("session.memo.evictions"));
    }

    #[test]
    fn stats_arithmetic() {
        let s = SearchStats { generated: 24, estimated: 22, faulted: 2, ..SearchStats::default() };
        assert_eq!(s.pruned_fraction(), 0.0);
        let mut t = s;
        t += s;
        assert_eq!((t.generated, t.estimated, t.faulted), (48, 44, 4));
        assert_eq!((t.stolen, t.collapsed), (0, 0));
    }

    /// Inputs `p` and `p1` generate colliding Manage-IR names at 11
    /// lanes: lane 10 of `p` and lane 0 of `p1` are both `mem_p10`.
    fn colliding_kernel() -> tytra_transform::KernelDef {
        use tytra_transform::Expr;
        tytra_transform::KernelDef {
            name: "clash".into(),
            elem_ty: tytra_ir::ScalarType::UInt(18),
            inputs: vec!["p".into(), "p1".into()],
            outputs: vec![("q".into(), Expr::add(Expr::off("p", 1), Expr::arg("p1")))],
            reductions: vec![],
        }
    }

    #[test]
    fn factory_design_errors_are_counted_as_faults() {
        use tytra_transform::lower::{lower, Geometry};
        let geom = Geometry::flat(22 * 64, 10);
        let factory = || VariantFactory::new(colliding_kernel(), geom.clone());
        let v = Variant { lanes: 11, ..Variant::baseline() };
        let err = factory().design(&v).unwrap_err().to_string();
        assert_eq!(err, lower(&colliding_kernel(), &geom, &v).unwrap_err().to_string());
        assert!(err.contains("duplicate memory object name `mem_p10`"), "{err}");

        let session = || EstimatorSession::new(stratix_v_gsd8());
        let lanes = |lanes: Vec<u64>| over(ExplorationConfig { lanes, ..space() });
        let all = search_with(&factory(), &mut session(), &lanes(vec![1, 2, 11]));
        let s = all.stats;
        assert_eq!((s.generated, s.estimated, s.faulted), (12, 8, 4), "{s:?}");
        let healthy = search_with(&factory(), &mut session(), &lanes(vec![1, 2]));
        assert_eq!(fingerprint(&all), fingerprint(&healthy));
    }
}
