//! Branch-and-bound design-space search: the DSE engine.
//!
//! Costing a kernel's design space need not pay the full 8-pass
//! estimate for every point. [`search()`] applies the Fig-15 insight the
//! paper builds towards: the wall terms of Eqs 1–3 (bandwidth,
//! overheads, the clock-ceiling compute floor) plus the exact memoized
//! resource sums are enough to *prove* most variants out of contention
//! before any schedule or clock pass runs. The engine:
//!
//! * walks the legal variants lazily, in generation order
//!   ([`VariantIter`]), on the calling thread and through the caller's
//!   [`EstimatorSession`], so a driver that sweeps, searches and tunes
//!   (`tybec dse`) shares one set of memo tables;
//! * materialises each variant as a copy-on-write patch over a shared
//!   arena base ([`VariantFactory`] — one lowering per structural
//!   class), and costs it through the estimator's zero-alloc
//!   `bound_design`/`estimate_design` passes instead of cloning a tree
//!   module per design point;
//! * keeps a top-K board of the best valid variants so far, and skips
//!   the full estimate whenever the admissible
//!   [`bound`][EstimatorSession::bound_design] proves a variant cannot
//!   beat the board's K-th EKIT or cannot fit the device;
//! * breaks EKIT ties by generation index, so the ranked leaderboard is
//!   **bit-identical** to [`SearchMode::Exhaustive`] however many
//!   variants were pruned (the admissibility argument is written out in
//!   `docs/dse-search.md`).
//!
//! Tracing: each bound carries a `dse.bound` span and each full estimate
//! a `dse.variant` span, nested under the caller's span.
//!
//! Observability: the search leaves `dse.bound`/`dse.variant`
//! breadcrumbs in the always-on [flight recorder][tytra_trace::recorder]
//! (so a crashed or faulted variant ships a post-mortem trace — see
//! [`SearchOutcome::fault_dumps`]), and returns its `dse.*` metrics in
//! [`SearchOutcome::metrics`]: bound-vs-estimate latency histograms,
//! plus counters and a `dse.points_per_sec` gauge written once from
//! [`SearchStats`] after the walk.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use tytra_cost::{CostReport, EstimatorSession};
use tytra_device::TargetDevice;
use tytra_ir::MemForm;
use tytra_kernels::EvalKernel;
use tytra_trace::metrics::{Histogram, Registry, Snapshot};
use tytra_trace::recorder;
use tytra_trace::{self as trace};
use tytra_transform::{IndexedVariant, Variant, VariantFactory, VariantIter};

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

/// Whether the search may prune on analytic bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchMode {
    /// Branch-and-bound: run the cheap bound pass first and estimate
    /// only variants that fit and could beat the incumbent.
    Pruned,
    /// The escape hatch: estimate every variant (`tybec dse
    /// --exhaustive`). Same leaderboard, byte for byte.
    Exhaustive,
}

/// Search configuration: the space to sweep plus search-specific knobs.
#[derive(Debug, Clone)]
pub struct SearchConfig {
    /// The design space.
    pub space: ExplorationConfig,
    /// Prune on bounds or estimate everything.
    pub mode: SearchMode,
    /// Leaderboard size: the search returns the top `top_k` valid
    /// variants (the incumbent threshold is the K-th best, so larger
    /// boards prune less). The board grows with what it holds, never
    /// with `top_k`, so any value is safe.
    pub top_k: usize,
    /// Test/fuzz hook: a predicate selecting variants whose estimate
    /// must fault (the search panics inside its catch region). `None` in
    /// production. A plain `fn` pointer keeps the config `Debug + Clone`.
    pub fault_inject: Option<fn(&Variant) -> bool>,
}

impl SearchConfig {
    /// Pruned search over `space` with the default board size.
    pub fn pruned(space: ExplorationConfig) -> SearchConfig {
        SearchConfig { space, mode: SearchMode::Pruned, top_k: 10, fault_inject: None }
    }

    /// Exhaustive search over `space` (the `--exhaustive` escape hatch).
    pub fn exhaustive(space: ExplorationConfig) -> SearchConfig {
        SearchConfig { mode: SearchMode::Exhaustive, ..SearchConfig::pruned(space) }
    }
}

impl Default for SearchConfig {
    fn default() -> SearchConfig {
        SearchConfig::pruned(ExplorationConfig::default())
    }
}

/// What the search did, not what it found: generation and pruning
/// counters. The search runs in generation order on one thread, so every
/// counter is a deterministic function of the space, the device and the
/// configuration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Legal variants drawn from the generator.
    pub generated: u64,
    /// Variants that paid the full 8-pass estimate.
    pub estimated: u64,
    /// Variants proven not to fit the device by the bound pass alone.
    pub pruned_unfit: u64,
    /// Variants whose EKIT upper bound could not beat the incumbent.
    pub pruned_bound: u64,
    /// Always 0: the search runs on its caller's thread and steals no
    /// work. Kept because the benchmark reads it as `dse.stolen`.
    pub stolen: u64,
    /// Variants whose bound or estimate faulted (error or caught
    /// panic). Faulted variants are skipped, never aborting the sweep;
    /// the leaderboard over the healthy variants is unaffected.
    pub faulted: u64,
    /// Always 0: the search replicates no report from a congruent
    /// variant. Kept because the benchmark reads it as `dse.collapsed`.
    pub collapsed: u64,
}

impl SearchStats {
    /// Variants that skipped the full estimate.
    pub fn pruned(&self) -> u64 {
        self.pruned_unfit + self.pruned_bound
    }

    /// Fraction of generated variants that skipped the full estimate
    /// (0 when nothing was generated).
    pub fn pruned_fraction(&self) -> f64 {
        if self.generated == 0 {
            0.0
        } else {
            self.pruned() as f64 / self.generated as f64
        }
    }
}

impl std::ops::AddAssign for SearchStats {
    fn add_assign(&mut self, rhs: SearchStats) {
        self.generated += rhs.generated;
        self.estimated += rhs.estimated;
        self.pruned_unfit += rhs.pruned_unfit;
        self.pruned_bound += rhs.pruned_bound;
        self.stolen += rhs.stolen;
        self.faulted += rhs.faulted;
        self.collapsed += rhs.collapsed;
    }
}

/// A variant proven not to fit the device. The verdict is exact in both
/// modes (the bound's resource pass is the estimator's resource pass),
/// so pruned and exhaustive searches report the same set.
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
    /// Bit-identical between [`SearchMode::Pruned`] and
    /// [`SearchMode::Exhaustive`].
    pub leaderboard: Vec<EvaluatedVariant>,
    /// Variants that do not fit the device, by generation index.
    pub invalid: Vec<InvalidVariant>,
    /// Search counters (generated / estimated / pruned / faulted).
    pub stats: SearchStats,
    /// The search's own `dse.*` metrics: the `dse.points`,
    /// `dse.faulted`, `dse.pruned_unfit` and `dse.pruned_bound` counters
    /// (equal to their [`SearchStats`] fields), the `dse.points_per_sec`
    /// gauge and the `dse.bound_ns`/`dse.estimate_ns` latency
    /// histograms. The estimator's metrics stay in the caller's session.
    pub metrics: Snapshot,
    /// Post-mortem flight-recorder dumps, one per faulted variant, in
    /// generation order: `(variant tag, rendered dump)`. The dump is the
    /// calling thread's lane at the moment the fault was recorded, so it
    /// ends with the variant's `dse.bound`/`dse.variant` breadcrumbs and
    /// the `dse.fault` mark itself.
    pub fault_dumps: Vec<(String, String)>,
}

/// The top-K board: the best valid variants so far, ranked by (EKIT
/// descending, generation index ascending). Its K-th EKIT is the pruning
/// threshold, which only ever rises, so a variant pruned against it is
/// also out of the final board.
struct Board {
    entries: Vec<EvaluatedVariant>,
    k: usize,
}

impl Board {
    fn new(k: usize) -> Board {
        Board { entries: Vec::new(), k }
    }

    /// The EKIT a variant must reach to enter the board: −∞ until `k`
    /// valid variants have been estimated (nothing prunes before the
    /// board is full), +∞ for a board with no room at all.
    fn threshold(&self) -> f64 {
        if self.entries.len() < self.k {
            f64::NEG_INFINITY
        } else {
            self.entries.last().map_or(f64::INFINITY, |e| e.report.throughput.ekit)
        }
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
}

/// The search's latency histograms: every bound and every estimate call
/// is timed.
struct Obs {
    bound_ns: Histogram,
    estimate_ns: Histogram,
}

/// Human-readable description of a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Record one faulted variant: counted, traced as a `dse.fault` span,
/// stamped into the flight recorder, and shipped with a post-mortem dump
/// of this thread's lane — then skipped; the sweep continues.
fn record_fault(run: &mut Run, item: &IndexedVariant, why: &str) {
    run.stats.faulted += 1;
    recorder::mark("dse.fault", item.index);
    if trace::enabled() {
        let _sp = trace::span("dse.fault")
            .with("variant", item.variant.tag())
            .with("why", why.to_string());
    }
    if let Some(lane) = recorder::dump_current_thread() {
        run.fault_dumps.push((item.variant.tag(), recorder::render_dump(&[lane])));
    }
}

/// Bound (in pruned mode) and, if the variant survives, estimate one
/// design point.
///
/// Both the bound and the estimate run inside `catch_unwind`, so one
/// faulting variant (an `Err` *or* a panic deep in a pass) is skipped
/// and counted instead of tearing down the whole sweep. The session is
/// treated as unwind-safe: its memo tables are keyed by structural
/// fingerprint, so the worst a mid-pass panic leaves behind is an absent
/// entry for the faulted module, never a wrong one for a healthy module.
fn process_item(
    factory: &VariantFactory,
    item: IndexedVariant,
    cfg: &SearchConfig,
    session: &mut EstimatorSession,
    run: &mut Run,
    obs: &Obs,
) {
    // The factory serves the variant as a four-cell patch over a shared
    // arena base (lowered once per structural class). The generator
    // already filtered illegal reshapes, but a variant can still fail
    // validation (two lanes' generated names colliding, say): that
    // variant is a fault like any other.
    let design = match factory.design(&item.variant) {
        Ok(design) => design,
        Err(e) => {
            record_fault(run, &item, &e.to_string());
            return;
        }
    };
    let d = design.patched();

    if cfg.mode == SearchMode::Pruned {
        recorder::mark("dse.bound", item.index);
        let b0 = Instant::now();
        let verdict = catch_unwind(AssertUnwindSafe(|| {
            let _sp = trace::enabled()
                .then(|| trace::span("dse.bound").with("variant", item.variant.tag()));
            session.bound_design(&d)
        }));
        obs.bound_ns.record(b0.elapsed().as_nanos() as u64);
        let bound = match verdict {
            Ok(Ok(bound)) => bound,
            Ok(Err(e)) => {
                record_fault(run, &item, &e.to_string());
                return;
            }
            Err(payload) => {
                record_fault(run, &item, &panic_message(payload.as_ref()));
                return;
            }
        };
        if !bound.fits {
            run.stats.pruned_unfit += 1;
            run.invalid.push(InvalidVariant { index: item.index, variant: item.variant });
            return;
        }
        if !bound.can_beat(run.board.threshold()) {
            run.stats.pruned_bound += 1;
            return;
        }
    }

    recorder::mark("dse.variant", item.index);
    let e0 = Instant::now();
    let estimated = catch_unwind(AssertUnwindSafe(|| {
        let _sp = trace::enabled()
            .then(|| trace::span("dse.variant").with("variant", item.variant.tag()));
        if let Some(faulty) = cfg.fault_inject {
            if faulty(&item.variant) {
                panic!("injected estimator fault on {}", item.variant.tag());
            }
        }
        session.estimate_design(&d)
    }));
    obs.estimate_ns.record(e0.elapsed().as_nanos() as u64);
    let report = match estimated {
        Ok(Ok(report)) => report,
        Ok(Err(e)) => {
            record_fault(run, &item, &e.to_string());
            return;
        }
        Err(payload) => {
            record_fault(run, &item, &panic_message(payload.as_ref()));
            return;
        }
    };
    run.stats.estimated += 1;
    if report.fits {
        run.board.record(EvaluatedVariant { variant: item.variant, report });
    } else {
        // Exhaustive mode discovers infeasibility the expensive way; the
        // verdict is the same fits_within the bound pass evaluates.
        run.invalid.push(InvalidVariant { index: item.index, variant: item.variant });
    }
}

/// Branch-and-bound search over the design space of `kernel` on `dev`,
/// through a fresh estimator session.
///
/// Returns the top-K valid variants ranked by (EKIT descending,
/// generation index ascending) and the exact set of variants that do not
/// fit the device. The leaderboard and invalid set are bit-identical
/// across [`SearchMode`]s; only [`SearchStats`] and wall-time differ.
pub fn search(kernel: &dyn EvalKernel, dev: &TargetDevice, cfg: &SearchConfig) -> SearchOutcome {
    search_with(&kernel.variant_factory(), &mut EstimatorSession::new(dev.clone()), cfg)
}

/// [`search`] over an existing variant factory and estimator session,
/// on the calling thread. Variants are costed as copy-on-write patches
/// of the factory's bases (lowered by an earlier sweep over the same
/// factory, or on first touch here), and every bound and estimate goes
/// through `session`, so its memo tables serve the search and whatever
/// the caller costs before and after it.
pub fn search_with(
    factory: &VariantFactory,
    session: &mut EstimatorSession,
    cfg: &SearchConfig,
) -> SearchOutcome {
    let sp = &cfg.space;
    let reg = Registry::new();
    let obs = Obs {
        bound_ns: reg.histogram("dse.bound_ns"),
        estimate_ns: reg.histogram("dse.estimate_ns"),
    };
    let mut run = Run {
        board: Board::new(cfg.top_k),
        invalid: Vec::new(),
        stats: SearchStats::default(),
        fault_dumps: Vec::new(),
    };
    let t0 = Instant::now();
    for item in VariantIter::new(factory.geometry().size(), &sp.lanes, &sp.vects, &sp.forms) {
        run.stats.generated += 1;
        process_item(factory, item, cfg, session, &mut run, &obs);
    }
    let stats = run.stats;
    reg.counter("dse.points").add(stats.generated);
    reg.counter("dse.faulted").add(stats.faulted);
    reg.counter("dse.pruned_unfit").add(stats.pruned_unfit);
    reg.counter("dse.pruned_bound").add(stats.pruned_bound);
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
    use tytra_transform::{enumerate_variants, InnerKind};

    fn space() -> ExplorationConfig {
        ExplorationConfig::default()
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

    #[test]
    fn pruned_equals_exhaustive_on_eval_small() {
        // NKI 10 and NKI 1: at NKI 1 the A and B forms of a variant cost
        // the same, so the board is full of exact EKIT ties that only
        // the generation-index tie-break orders.
        let dev = eval_small();
        for sor in [Sor::cubic(16, 10), Sor::cubic(16, 1)] {
            let pruned = search(&sor, &dev, &SearchConfig::pruned(space()));
            let exhaustive = search(&sor, &dev, &SearchConfig::exhaustive(space()));
            assert_eq!(fingerprint(&pruned), fingerprint(&exhaustive), "nki {}", sor.nki);
            assert_eq!(exhaustive.stats.estimated, exhaustive.stats.generated);
            assert!(
                pruned.stats.pruned() > 0,
                "lanes 16/32 cannot fit eval-small, so the bound must prune: {:?}",
                pruned.stats
            );
            assert!(pruned.stats.estimated < exhaustive.stats.estimated);
            assert_eq!(
                pruned.stats.estimated + pruned.stats.pruned() + pruned.stats.faulted,
                pruned.stats.generated,
                "every generated variant is estimated or pruned: {:?}",
                pruned.stats
            );
        }
    }

    #[test]
    fn search_counters_are_deterministic() {
        // The acceptance space on eval-small (10 variants fit, so the
        // board never fills and the bound prunes only on fit), and
        // `tybec dse sor --lanes 1..64`, where it prunes on EKIT too.
        let wide = ExplorationConfig { lanes: (1..=64).collect(), ..space() };
        let cases = [
            (Sor::cubic(16, 10), eval_small(), space(), (24, 10, 14, 0)),
            (Sor::default(), stratix_v_gsd8(), wide, (86, 31, 0, 55)),
        ];
        for (sor, dev, space, (generated, estimated, pruned_unfit, pruned_bound)) in cases {
            let pruned = search(&sor, &dev, &SearchConfig::pruned(space.clone())).stats;
            let exhaustive = search(&sor, &dev, &SearchConfig::exhaustive(space)).stats;
            let want = SearchStats {
                generated,
                estimated,
                pruned_unfit,
                pruned_bound,
                ..SearchStats::default()
            };
            assert_eq!(pruned, want);
            assert_eq!(
                exhaustive,
                SearchStats { generated, estimated: generated, ..SearchStats::default() }
            );
        }
    }

    #[test]
    fn matches_per_point_ranking_on_valid_variants() {
        // The search leaderboard must agree with lowering every variant
        // and estimating it in a fresh session: the same device-fitting
        // variants, ranked by EKIT, with bit-equal EKITs.
        let sor = Sor::cubic(16, 10);
        let dev = stratix_v_gsd8();
        let outcome = search(&sor, &dev, &SearchConfig::exhaustive(space()));
        let sp = space();
        let mut reference: Vec<(Variant, CostReport)> =
            enumerate_variants(sor.geometry().size(), &sp.lanes, &sp.vects, &sp.forms)
                .into_iter()
                .filter(|v| v.inner == InnerKind::Pipe)
                .map(|v| {
                    let m = sor.lower_variant(&v).expect("legal variant lowers");
                    (v, EstimatorSession::new(dev.clone()).estimate(&m).expect("variant costs"))
                })
                .filter(|(_, r)| r.fits)
                .collect();
        reference.sort_by(|(va, a), (vb, b)| {
            b.throughput.ekit.total_cmp(&a.throughput.ekit).then_with(|| va.tag_cmp(vb))
        });
        let expected: Vec<(String, u64)> = reference
            .iter()
            .take(outcome.leaderboard.len())
            .map(|(v, r)| (v.tag(), r.throughput.ekit.to_bits()))
            .collect();
        let ours: Vec<(String, u64)> = outcome
            .leaderboard
            .iter()
            .map(|e| (e.variant.tag(), e.report.throughput.ekit.to_bits()))
            .collect();
        assert_eq!(ours, expected);
    }

    #[test]
    fn empty_space_returns_an_empty_outcome() {
        let sor = Sor::cubic(16, 10); // 4096 items: 3 never divides
        let mut session = EstimatorSession::new(eval_small());
        let cfg =
            SearchConfig::pruned(ExplorationConfig { lanes: vec![3], vects: vec![3], ..space() });
        let o = search_with(&sor.variant_factory(), &mut session, &cfg);
        assert!(o.leaderboard.is_empty());
        assert!(o.invalid.is_empty());
        assert_eq!(o.stats, SearchStats::default());
        assert_eq!(session.stats().lookups(), 0, "no estimator work for an empty space");
    }

    #[test]
    fn board_threshold_is_the_kth_best() {
        let sor = Sor::cubic(16, 10);
        let mut session = EstimatorSession::new(stratix_v_gsd8());
        let base = sor.variant_factory().design(&Variant::baseline()).unwrap();
        let report = session.estimate_design(&base.patched()).unwrap();
        let entry = |ekit: f64, lanes: u64| {
            let mut report = report.clone();
            report.throughput.ekit = ekit;
            EvaluatedVariant { variant: Variant { lanes, ..Variant::baseline() }, report }
        };
        let mut board = Board::new(2);
        assert_eq!(board.threshold(), f64::NEG_INFINITY);
        board.record(entry(5.0, 1));
        assert_eq!(board.threshold(), f64::NEG_INFINITY, "board not full yet");
        board.record(entry(3.0, 2));
        assert_eq!(board.threshold(), 3.0);
        board.record(entry(4.0, 4));
        assert_eq!(board.threshold(), 4.0, "4.0 displaces 3.0 as 2nd best");
        board.record(entry(1.0, 8));
        assert_eq!(board.threshold(), 4.0, "worse results never lower the bar");
        board.record(entry(5.0, 16));
        let lanes: Vec<u64> = board.entries.iter().map(|e| e.variant.lanes).collect();
        assert_eq!(lanes, [1, 16], "an EKIT tie ranks by arrival (generation) order");
        assert_eq!(Board::new(0).threshold(), f64::INFINITY, "a board with no room prunes all");
    }

    fn faults_on_two_lanes(v: &Variant) -> bool {
        v.lanes == 2
    }

    #[test]
    fn injected_faults_skip_variants_without_aborting_the_sweep() {
        let sor = Sor::cubic(16, 10);
        let dev = eval_small();
        let clean_cfg = SearchConfig { top_k: 100, ..SearchConfig::exhaustive(space()) };
        let clean = search(&sor, &dev, &clean_cfg);
        assert_eq!(clean.stats.faulted, 0);
        assert!(clean.leaderboard.iter().any(|e| e.variant.lanes == 2), "space has 2-lane points");

        // Quiet the default panic hook while the injected panics fly.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let faulty_cfg =
            SearchConfig { fault_inject: Some(faults_on_two_lanes), ..clean_cfg.clone() };
        let outcome = search(&sor, &dev, &faulty_cfg);
        let pruned_cfg = SearchConfig {
            fault_inject: Some(faults_on_two_lanes),
            ..SearchConfig::pruned(space())
        };
        let pruned = search(&sor, &dev, &pruned_cfg);
        std::panic::set_hook(prev);

        // The sweep completed; every faulted variant was counted and
        // skipped, never estimated and never ranked.
        assert!(outcome.stats.faulted > 0);
        assert_eq!(outcome.stats.generated, clean.stats.generated);
        assert_eq!(outcome.stats.estimated + outcome.stats.faulted, clean.stats.estimated);
        assert!(outcome.leaderboard.iter().all(|e| e.variant.lanes != 2));
        assert!(pruned.leaderboard.iter().all(|e| e.variant.lanes != 2));

        // The healthy-variant leaderboard is bit-identical to the clean
        // run's board with the faulted variants removed.
        let expected: Vec<(String, u64)> = clean
            .leaderboard
            .iter()
            .filter(|e| !faults_on_two_lanes(&e.variant))
            .map(|e| (e.variant.tag(), e.report.throughput.ekit.to_bits()))
            .collect();
        let got: Vec<(String, u64)> = outcome
            .leaderboard
            .iter()
            .map(|e| (e.variant.tag(), e.report.throughput.ekit.to_bits()))
            .collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn faults_ship_post_mortem_flight_dumps() {
        // top_k larger than the valid space keeps the incumbent board
        // unfilled, so no 2-lane variant can be bound-pruned before its
        // injected estimate fault fires — every fault is deterministic.
        let sor = Sor::cubic(16, 10);
        let dev = eval_small();
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let cfg = SearchConfig {
            fault_inject: Some(faults_on_two_lanes),
            top_k: 100,
            ..SearchConfig::pruned(space())
        };
        let outcome = search(&sor, &dev, &cfg);
        std::panic::set_hook(prev);

        assert!(outcome.stats.faulted > 0);
        assert_eq!(outcome.fault_dumps.len() as u64, outcome.stats.faulted);
        for (tag, dump) in &outcome.fault_dumps {
            assert!(tag.starts_with("l2_"), "only 2-lane variants fault: {tag}");
            // The post-mortem lane ends with the faulting variant's own
            // breadcrumb trail: bound pass, estimate entry, fault mark.
            assert!(dump.contains("dse.bound"), "{dump}");
            assert!(dump.contains("dse.variant"), "{dump}");
            assert!(dump.contains("dse.fault"), "{dump}");
            assert!(dump.contains("== flight recorder =="), "{dump}");
        }
    }

    #[test]
    fn search_metrics_equal_the_stats() {
        // A pruned and an exhaustive `tybec dse sor --lanes 1..64`, and a
        // pruned search with injected estimate faults (the unfilled board
        // keeps every fault deterministic, as above).
        let wide = ExplorationConfig { lanes: (1..=64).collect(), ..space() };
        let (sor, dev) = (Sor::default(), stratix_v_gsd8());
        let pruned = search(&sor, &dev, &SearchConfig::pruned(wide.clone()));
        let exhaustive = search(&sor, &dev, &SearchConfig::exhaustive(wide));
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let cfg = SearchConfig {
            fault_inject: Some(faults_on_two_lanes),
            top_k: 100,
            ..SearchConfig::pruned(space())
        };
        let faulted = search(&Sor::cubic(16, 10), &eval_small(), &cfg);
        std::panic::set_hook(prev);
        assert!(pruned.stats.pruned_bound > 0, "{:?}", pruned.stats);
        assert!(faulted.stats.faulted > 0, "{:?}", faulted.stats);

        let histogram_count = |o: &SearchOutcome, name: &str| match o.metrics.get(name) {
            Some(tytra_trace::metrics::MetricValue::Histogram(h)) => h.count,
            other => panic!("{name} is not a histogram: {other:?}"),
        };
        for (o, bounded) in [(&pruned, true), (&exhaustive, false), (&faulted, true)] {
            let s = o.stats;
            let names: Vec<&str> = o.metrics.entries.iter().map(|(n, _)| n.as_str()).collect();
            assert_eq!(
                names,
                [
                    "dse.bound_ns",
                    "dse.estimate_ns",
                    "dse.faulted",
                    "dse.points",
                    "dse.points_per_sec",
                    "dse.pruned_bound",
                    "dse.pruned_unfit"
                ]
            );
            assert_eq!(o.metrics.counter("dse.points"), s.generated, "{s:?}");
            assert_eq!(o.metrics.counter("dse.faulted"), s.faulted, "{s:?}");
            assert_eq!(o.metrics.counter("dse.pruned_unfit"), s.pruned_unfit, "{s:?}");
            assert_eq!(o.metrics.counter("dse.pruned_bound"), s.pruned_bound, "{s:?}");
            // A pruned search bounds every variant, an exhaustive one
            // none; every estimate is timed, the faulting ones too.
            let bounds = if bounded { s.generated } else { 0 };
            assert_eq!(histogram_count(o, "dse.bound_ns"), bounds, "{s:?}");
            assert_eq!(histogram_count(o, "dse.estimate_ns"), s.estimated + s.faulted, "{s:?}");
        }
    }

    #[test]
    fn estimator_calls_are_counted_once_in_the_callers_session() {
        // The search costs through the caller's session, so the session
        // sees every estimate and the outcome holds only `dse.*` metrics.
        let sor = Sor::cubic(16, 10);
        let mut session = EstimatorSession::new(stratix_v_gsd8());
        let outcome =
            search_with(&sor.variant_factory(), &mut session, &SearchConfig::exhaustive(space()));
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
        let s = SearchStats {
            generated: 24,
            estimated: 10,
            pruned_unfit: 8,
            pruned_bound: 6,
            faulted: 2,
            ..SearchStats::default()
        };
        assert_eq!(s.pruned(), 14);
        assert!((s.pruned_fraction() - 14.0 / 24.0).abs() < 1e-12);
        assert_eq!(SearchStats::default().pruned_fraction(), 0.0);
        let mut t = s;
        t += s;
        assert_eq!(t.generated, 48);
        assert_eq!(t.faulted, 4);
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
        let over = |lanes: Vec<u64>| ExplorationConfig { lanes, ..space() };
        for make in [SearchConfig::pruned, SearchConfig::exhaustive] {
            let (cfg, healthy) = (make(over(vec![1, 2, 11])), make(over(vec![1, 2])));
            let all = search_with(&factory(), &mut session(), &cfg);
            let s = all.stats;
            assert_eq!((s.generated, s.faulted), (12, 4), "{:?}: {s:?}", cfg.mode);
            assert_eq!(s.estimated + s.pruned() + s.faulted, s.generated, "{s:?}");
            let healthy = search_with(&factory(), &mut session(), &healthy);
            assert_eq!(fingerprint(&all), fingerprint(&healthy), "{:?}", cfg.mode);
        }
    }
}
