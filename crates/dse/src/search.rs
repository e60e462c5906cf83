//! Branch-and-bound design-space search with work stealing.
//!
//! [`explore()`][crate::explore::explore] materialises the whole variant
//! cross-product and pays the full 8-pass estimate for every point.
//! [`search()`] replaces that with the Fig-15 insight the paper builds
//! towards: the wall terms of Eqs 1–3 (bandwidth, overheads, the
//! clock-ceiling compute floor) plus the exact memoized resource sums
//! are enough to *prove* most variants out of contention before any
//! schedule or clock pass runs. The engine:
//!
//! * generates variants lazily ([`VariantIter`]) and deals them out in
//!   chunks to per-worker deques, with idle workers stealing from
//!   victims' queues (`crossbeam::deque`), so cheap (pruned) and
//!   expensive (estimated) variants balance dynamically;
//! * materialises each variant as a copy-on-write patch over a shared
//!   arena base ([`VariantFactory`] — one lowering per structural
//!   class), and costs it through the estimator's zero-alloc
//!   `bound_design`/`estimate_design` passes instead of cloning a tree
//!   module per design point;
//! * keeps a global incumbent — the K-th best valid EKIT so far — as
//!   atomic `f64` bits ([`AtomicU64`]), and skips the full
//!   [`EstimatorSession::estimate`] whenever the admissible
//!   [`bound`][EstimatorSession::bound] proves a variant cannot beat it
//!   or cannot fit the device;
//! * breaks EKIT ties deterministically by generation index, so the
//!   ranked leaderboard is **bit-identical** to
//!   [`SearchMode::Exhaustive`] regardless of worker count, steal
//!   interleaving, or how many variants were pruned (the admissibility
//!   and determinism arguments are written out in `docs/dse-search.md`).
//!
//! Tracing: each bound carries a `dse.bound` span, each full estimate a
//! `dse.variant` span, each successful steal a `dse.steal` span, all on
//! `dse-worker-N` thread lanes.
//!
//! Observability: workers leave `dse.bound`/`dse.variant` breadcrumbs in
//! the always-on [flight recorder][tytra_trace::recorder] (so a crashed
//! or faulted variant ships a post-mortem trace — see
//! [`SearchOutcome::fault_dumps`]), and publish live counters, per-worker
//! `points_per_sec` gauges and bound-vs-estimate latency histograms into
//! [`SearchConfig::live`] when a shared registry is attached (the merged
//! view always lands in [`SearchOutcome::metrics`] either way).

use crossbeam::deque::{Steal, Stealer, Worker};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use tytra_analyze::cost_class_key_design;
use tytra_cost::{CostReport, EstimatorSession, SessionStats};
use tytra_device::TargetDevice;
use tytra_kernels::EvalKernel;
use tytra_trace::metrics::{Counter, Gauge, Histogram, Registry, Snapshot};
use tytra_trace::recorder;
use tytra_trace::{self as trace};
use tytra_transform::{IndexedVariant, Variant, VariantFactory, VariantIter};

use crate::explore::{EvaluatedVariant, ExplorationConfig};

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
    /// The design space and worker count (as for
    /// [`explore()`][crate::explore::explore]).
    pub space: ExplorationConfig,
    /// Prune on bounds or estimate everything.
    pub mode: SearchMode,
    /// Leaderboard size: the search returns the top `top_k` valid
    /// variants (the incumbent threshold is the K-th best, so larger
    /// boards prune less).
    pub top_k: usize,
    /// Variants handed to a worker per generator refill.
    pub chunk: usize,
    /// Test/fuzz hook: a predicate selecting variants whose estimate
    /// must fault (the worker panics inside its catch region). `None` in
    /// production. A plain `fn` pointer keeps the config `Debug + Clone`.
    pub fault_inject: Option<fn(&Variant) -> bool>,
    /// Live metrics registry. When attached, workers publish their
    /// counters, latency histograms and `dse.worker.N.points_per_sec`
    /// gauges here *while the sweep runs*, so a
    /// [`Sampler`][tytra_trace::sampler::Sampler] (or a Prometheus
    /// scrape of a snapshot) can watch progress. `None` keeps the same
    /// metrics in per-worker registries merged into
    /// [`SearchOutcome::metrics`] at the end.
    pub live: Option<Arc<Registry>>,
}

impl SearchConfig {
    /// Pruned search over `space` with the default board size.
    pub fn pruned(space: ExplorationConfig) -> SearchConfig {
        SearchConfig {
            space,
            mode: SearchMode::Pruned,
            top_k: 10,
            chunk: 4,
            fault_inject: None,
            live: None,
        }
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

/// What the search did, not what it found: generation, pruning and
/// stealing counters. `generated` is deterministic; the split between
/// `estimated` and `pruned_bound` (and `stolen`) depends on thread
/// interleaving — the *outcome* never does.
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
    /// Tasks taken from another worker's deque.
    pub stolen: u64,
    /// Variants whose bound or estimate faulted (error or caught
    /// panic). Faulted variants are skipped, never aborting the sweep;
    /// the leaderboard over the healthy variants is unaffected.
    pub faulted: u64,
    /// Distinct cost-congruence classes that paid a full estimate
    /// (pruned mode; always 0 in exhaustive mode, which estimates every
    /// variant individually).
    pub classes: u64,
    /// Variants whose report was replicated from a congruent class
    /// member instead of re-running the estimator (the prefilter tier).
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
        self.classes += rhs.classes;
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
    /// [`SearchMode::Exhaustive`], for any worker count.
    pub leaderboard: Vec<EvaluatedVariant>,
    /// Variants that do not fit the device, by generation index.
    pub invalid: Vec<InvalidVariant>,
    /// Search counters (pruned / estimated / stolen).
    pub stats: SearchStats,
    /// Summed memo statistics of every worker's estimator session.
    pub session: SessionStats,
    /// Merged metrics registries of every worker session (plus the
    /// worker observability counters/histograms; when
    /// [`SearchConfig::live`] was attached, its final snapshot).
    pub metrics: Snapshot,
    /// Post-mortem flight-recorder dumps, one per faulted variant:
    /// `(variant tag, rendered dump)`. The dump is the faulting worker's
    /// lane at the moment the fault was recorded, so it ends with the
    /// variant's `dse.bound`/`dse.variant` breadcrumbs and the
    /// `dse.fault` mark itself. Sorted by variant tag.
    pub fault_dumps: Vec<(String, String)>,
}

/// The global incumbent: the K-th best valid EKIT seen so far, readable
/// without a lock as atomic `f64` bits. Monotone non-decreasing, so a
/// variant pruned against any intermediate threshold is also out against
/// the final one — the pruned leaderboard cannot depend on scheduling.
struct Incumbent {
    /// `f64::to_bits` of the current threshold (`NEG_INFINITY` until
    /// `k` valid variants have been estimated — nothing prunes before
    /// the board is full).
    threshold_bits: AtomicU64,
    /// The top-K `(ekit, index)` pairs, best first.
    board: Mutex<Vec<(f64, u64)>>,
    k: usize,
}

impl Incumbent {
    fn new(k: usize) -> Incumbent {
        Incumbent {
            threshold_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
            board: Mutex::new(Vec::with_capacity(k + 1)),
            k,
        }
    }

    fn threshold(&self) -> f64 {
        f64::from_bits(self.threshold_bits.load(Ordering::Relaxed))
    }

    fn record(&self, ekit: f64, index: u64) {
        let mut board = self.board.lock().unwrap_or_else(|e| e.into_inner());
        // Board order is (ekit descending, index ascending); the probe
        // compares a board entry against the new result in that order.
        let pos = board
            .binary_search_by(|(e, i)| e.total_cmp(&ekit).reverse().then_with(|| i.cmp(&index)))
            .unwrap_or_else(|p| p);
        board.insert(pos, (ekit, index));
        board.truncate(self.k);
        if board.len() == self.k {
            if let Some(&(kth, _)) = board.last() {
                self.threshold_bits.store(kth.to_bits(), Ordering::Relaxed);
            }
        }
    }
}

/// The shared congruence-class cache: the prefilter tier ahead of the
/// bound pass. Keyed by [`tytra_analyze::cost_class_key_design`] — the
/// arena re-hash that equals `cost_class_key` on the materialized tree —
/// whose contract is that equal keys receive bit-identical cost reports (the
/// design label and, at `NKI == 1`, the A/B form aside — both patched on
/// replication), so replicating a cached report is indistinguishable
/// from re-running the estimator and the leaderboard stays bit-identical
/// to `--exhaustive` no matter which class member was estimated first.
struct ClassCache {
    map: Mutex<HashMap<u64, CostReport>>,
}

impl ClassCache {
    fn new() -> ClassCache {
        ClassCache { map: Mutex::new(HashMap::new()) }
    }

    fn lookup(&self, key: u64) -> Option<CostReport> {
        self.map.lock().unwrap_or_else(|e| e.into_inner()).get(&key).cloned()
    }

    /// Insert the class representative; returns `true` when this call
    /// created the class (two workers racing the same class both
    /// estimate, but only one counts it).
    fn insert_if_new(&self, key: u64, report: &CostReport) -> bool {
        let mut map = self.map.lock().unwrap_or_else(|e| e.into_inner());
        if let std::collections::hash_map::Entry::Vacant(slot) = map.entry(key) {
            slot.insert(report.clone());
            true
        } else {
            false
        }
    }
}

/// The shared lazy generator: workers refill their deques from it in
/// chunks under one short-lived lock.
struct Dispenser {
    gen: Mutex<VariantIter>,
}

impl Dispenser {
    fn refill(&self, n: usize) -> Vec<IndexedVariant> {
        let mut gen = self.gen.lock().unwrap_or_else(|e| e.into_inner());
        gen.by_ref().take(n.max(1)).collect()
    }
}

/// One worker's accumulator.
#[derive(Default)]
struct WorkerOut {
    valid: Vec<(u64, EvaluatedVariant)>,
    invalid: Vec<InvalidVariant>,
    stats: SearchStats,
    fault_dumps: Vec<(String, String)>,
}

/// One worker's live-observability handles. The counters mirror
/// [`SearchStats`] (summed across workers when the registry is shared);
/// the histograms time every bound and estimate call; the gauge is
/// per-worker by name.
struct WorkerObs {
    points: Counter,
    faulted: Counter,
    pruned_unfit: Counter,
    pruned_bound: Counter,
    collapsed: Counter,
    stolen: Counter,
    bound_ns: Histogram,
    estimate_ns: Histogram,
    points_per_sec: Gauge,
}

impl WorkerObs {
    fn new(reg: &Registry, w: usize) -> WorkerObs {
        WorkerObs {
            points: reg.counter("dse.points"),
            faulted: reg.counter("dse.faulted"),
            pruned_unfit: reg.counter("dse.pruned_unfit"),
            pruned_bound: reg.counter("dse.pruned_bound"),
            collapsed: reg.counter("dse.prefilter_collapsed"),
            stolen: reg.counter("dse.stolen"),
            bound_ns: reg.histogram("dse.bound_ns"),
            estimate_ns: reg.histogram("dse.estimate_ns"),
            points_per_sec: reg.gauge(&format!("dse.worker.{w}.points_per_sec")),
        }
    }
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
/// of this worker's lane — then skipped; the sweep continues.
fn record_fault(
    out: &mut WorkerOut,
    obs: &WorkerObs,
    item: &IndexedVariant,
    worker: usize,
    why: &str,
) {
    out.stats.faulted += 1;
    obs.faulted.incr();
    recorder::mark("dse.fault", item.index);
    if trace::enabled() {
        let _sp = trace::span("dse.fault")
            .with("variant", item.variant.tag())
            .with("worker", worker as u64)
            .with("why", why.to_string());
    }
    if let Some(lane) = recorder::dump_current_thread() {
        out.fault_dumps.push((item.variant.tag(), recorder::render_dump(&[lane])));
    }
}

/// Bound (in pruned mode) and, if the variant survives, estimate one
/// design point.
///
/// Both the bound and the estimate run inside `catch_unwind`, so one
/// faulting variant (an `Err` *or* a panic deep in a pass) is skipped
/// and counted instead of tearing down the worker — and with it the
/// whole sweep. The session is treated as unwind-safe: its memo tables
/// are keyed by structural fingerprint, so the worst a mid-pass panic
/// leaves behind is an absent entry for the faulted module, never a
/// wrong one for a healthy module.
#[allow(clippy::too_many_arguments)]
fn process_item(
    factory: &VariantFactory,
    item: IndexedVariant,
    cfg: &SearchConfig,
    incumbent: &Incumbent,
    classes: &ClassCache,
    session: &mut EstimatorSession,
    out: &mut WorkerOut,
    obs: &WorkerObs,
    worker: usize,
) {
    obs.points.incr();
    // The factory serves the variant as a three-cell patch over a shared
    // arena base (lowered once per structural class). Erroring is only
    // possible for illegal reshapes, which the generator already
    // filtered.
    let Ok(design) = factory.design(&item.variant) else { return };
    let d = design.patched();

    // Congruence prefilter: the cheapest tier, ahead even of the bound
    // pass. Pruned mode only — `--exhaustive` estimates every variant
    // individually, which is exactly what makes it the oracle the
    // prefiltered leaderboard is checked against. Fault injection
    // disables the tier: an injected fault must fire on its selected
    // variant, not be absorbed by a congruent sibling's cached report.
    let class_key = if cfg.mode == SearchMode::Pruned && cfg.fault_inject.is_none() {
        let key = cost_class_key_design(&d);
        if let Some(mut report) = classes.lookup(key) {
            if trace::enabled() {
                let _sp = trace::span("dse.prefilter")
                    .with("variant", item.variant.tag())
                    .with("worker", worker as u64);
            }
            out.stats.collapsed += 1;
            obs.collapsed.incr();
            // The only two facts the class key erases, patched back in.
            report.design = design.name().to_string();
            report.params.form = design.form();
            if report.fits {
                incumbent.record(report.throughput.ekit, item.index);
                out.valid.push((
                    item.index,
                    EvaluatedVariant { variant: item.variant, report, reconfig: None },
                ));
            } else {
                out.invalid.push(InvalidVariant { index: item.index, variant: item.variant });
            }
            return;
        }
        Some(key)
    } else {
        None
    };

    if cfg.mode == SearchMode::Pruned {
        recorder::mark("dse.bound", item.index);
        let b0 = Instant::now();
        let verdict = catch_unwind(AssertUnwindSafe(|| {
            let _sp = trace::enabled().then(|| {
                trace::span("dse.bound")
                    .with("variant", item.variant.tag())
                    .with("worker", worker as u64)
            });
            session.bound_design(&d)
        }));
        obs.bound_ns.record(b0.elapsed().as_nanos() as u64);
        let bound = match verdict {
            Ok(Ok(bound)) => bound,
            Ok(Err(e)) => {
                record_fault(out, obs, &item, worker, &e.to_string());
                return;
            }
            Err(payload) => {
                record_fault(out, obs, &item, worker, &panic_message(payload.as_ref()));
                return;
            }
        };
        if !bound.fits {
            out.stats.pruned_unfit += 1;
            obs.pruned_unfit.incr();
            out.invalid.push(InvalidVariant { index: item.index, variant: item.variant });
            return;
        }
        if !bound.can_beat(incumbent.threshold()) {
            out.stats.pruned_bound += 1;
            obs.pruned_bound.incr();
            return;
        }
    }

    recorder::mark("dse.variant", item.index);
    let e0 = Instant::now();
    let estimated = catch_unwind(AssertUnwindSafe(|| {
        let _sp = trace::enabled().then(|| {
            trace::span("dse.variant")
                .with("variant", item.variant.tag())
                .with("worker", worker as u64)
        });
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
            record_fault(out, obs, &item, worker, &e.to_string());
            return;
        }
        Err(payload) => {
            record_fault(out, obs, &item, worker, &panic_message(payload.as_ref()));
            return;
        }
    };
    out.stats.estimated += 1;
    if let Some(key) = class_key {
        if classes.insert_if_new(key, &report) {
            out.stats.classes += 1;
        }
    }
    if report.fits {
        incumbent.record(report.throughput.ekit, item.index);
        out.valid
            .push((item.index, EvaluatedVariant { variant: item.variant, report, reconfig: None }));
    } else {
        // Exhaustive mode discovers infeasibility the expensive way; the
        // verdict is the same fits_within the bound pass evaluates.
        out.invalid.push(InvalidVariant { index: item.index, variant: item.variant });
    }
}

/// One worker's run loop: drain the own deque, refill from the
/// generator, then steal; exit when all three come up empty.
#[allow(clippy::too_many_arguments)]
fn worker_loop(
    factory: &VariantFactory,
    dev: &TargetDevice,
    cfg: &SearchConfig,
    dispenser: &Dispenser,
    incumbent: &Incumbent,
    classes: &ClassCache,
    queue: &Worker<IndexedVariant>,
    stealers: &[Stealer<IndexedVariant>],
    w: usize,
) -> (WorkerOut, SessionStats, Snapshot) {
    if trace::enabled() {
        trace::set_thread_label(&format!("dse-worker-{w}"));
    }
    let obs_reg: Arc<Registry> = cfg.live.clone().unwrap_or_default();
    let obs = WorkerObs::new(&obs_reg, w);
    let t0 = Instant::now();
    let mut processed = 0u64;
    let rate = |n: u64| n as f64 / t0.elapsed().as_secs_f64().max(1e-9);
    let mut session = EstimatorSession::new(dev.clone());
    let mut out = WorkerOut::default();
    loop {
        if let Some(item) = queue.pop() {
            process_item(factory, item, cfg, incumbent, classes, &mut session, &mut out, &obs, w);
            processed += 1;
            continue;
        }
        // Refills are the loop's natural coarse tick: refresh the live
        // throughput gauge here rather than per point.
        obs.points_per_sec.set(rate(processed));
        let chunk = dispenser.refill(cfg.chunk);
        if !chunk.is_empty() {
            out.stats.generated += chunk.len() as u64;
            let mut items = chunk.into_iter();
            let first = items.next().expect("non-empty chunk");
            for item in items {
                queue.push(item);
            }
            process_item(factory, first, cfg, incumbent, classes, &mut session, &mut out, &obs, w);
            processed += 1;
            continue;
        }
        // Generator dry: steal up to half a victim's queue (the steal
        // never takes a queue's last task — see `crossbeam::deque` —
        // so every seeded worker keeps one to run itself). Missing a
        // victim that empties concurrently is safe — every task lives
        // in exactly one deque (or one worker's hands) at a time, so
        // nothing is lost; this worker merely retires early.
        let stolen = (1..stealers.len()).find_map(|offset| {
            let v = (w + offset) % stealers.len();
            match stealers[v].steal_batch_and_pop(queue) {
                Steal::Success(item) => Some((v, item)),
                Steal::Empty | Steal::Retry => None,
            }
        });
        match stolen {
            Some((victim, item)) => {
                out.stats.stolen += 1;
                obs.stolen.incr();
                let _sp = trace::enabled().then(|| {
                    trace::span("dse.steal").with("worker", w as u64).with("victim", victim as u64)
                });
                drop(_sp);
                process_item(
                    factory,
                    item,
                    cfg,
                    incumbent,
                    classes,
                    &mut session,
                    &mut out,
                    &obs,
                    w,
                );
                processed += 1;
            }
            None => break,
        }
    }
    obs.points_per_sec.set(rate(processed));
    let mut snap = session.metrics_snapshot();
    if cfg.live.is_none() {
        // No shared registry: fold this worker's observability metrics
        // into its returned snapshot (a live registry is merged once, at
        // the end of `search()`, to avoid double counting).
        snap.merge(&obs_reg.snapshot());
    }
    (out, session.stats(), snap)
}

/// Branch-and-bound search over the design space of `kernel` on `dev`.
///
/// Returns the top-K valid variants ranked by (EKIT descending,
/// generation index ascending) and the exact set of variants that do not
/// fit the device. The leaderboard and invalid set are bit-identical
/// across [`SearchMode`]s and worker counts; only [`SearchStats`] and
/// wall-time differ.
pub fn search(kernel: &dyn EvalKernel, dev: &TargetDevice, cfg: &SearchConfig) -> SearchOutcome {
    search_with(&kernel.variant_factory(), dev, cfg)
}

/// [`search`] over an existing variant factory. Workers share the
/// factory's lowered arena bases (the first worker to touch a structural
/// class lowers it for everyone, unless an earlier sweep over the same
/// factory already did) and cost each variant as a copy-on-write patch.
pub fn search_with(
    factory: &VariantFactory,
    dev: &TargetDevice,
    cfg: &SearchConfig,
) -> SearchOutcome {
    let ngs = factory.geometry().size();
    let sp = &cfg.space;
    let gen = VariantIter::new(ngs, &sp.lanes, &sp.vects, &sp.forms, sp.include_seq);
    let space_cap = gen.space_size();

    let requested = if sp.workers == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4)
    } else {
        sp.workers
    };
    // The lazy space's legal size is unknown up front; clamp on the
    // cross-product cap. An empty space short-circuits to the serial
    // path, which spawns no threads at all.
    let workers = requested.clamp(1, space_cap.max(1) as usize);

    let incumbent = Incumbent::new(cfg.top_k.max(1));
    let classes = ClassCache::new();
    let dispenser = Dispenser { gen: Mutex::new(gen) };

    // Prove the filtered space non-empty before spawning anything: a
    // space whose every candidate is an illegal reshape short-circuits
    // to an empty outcome with no worker threads and no sessions.
    let first_chunk = dispenser.refill(cfg.chunk);
    if first_chunk.is_empty() {
        return SearchOutcome {
            leaderboard: Vec::new(),
            invalid: Vec::new(),
            stats: SearchStats::default(),
            session: SessionStats::default(),
            metrics: match &cfg.live {
                Some(live) => live.snapshot(),
                None => Snapshot::new(),
            },
            fault_dumps: Vec::new(),
        };
    }
    let mut preloaded = first_chunk.len() as u64;

    let mut merged = WorkerOut::default();
    let mut session_stats = SessionStats::default();
    let mut metrics = Snapshot::new();
    if workers == 1 {
        let queue = Worker::new_fifo();
        for item in first_chunk {
            queue.push(item);
        }
        let (out, stats, snap) =
            worker_loop(factory, dev, cfg, &dispenser, &incumbent, &classes, &queue, &[], 0);
        merged = out;
        session_stats = stats;
        metrics = snap;
    } else {
        // Seed every worker's deque with a chunk *before* spawning.
        // Thread start latency is comparable to a whole small sweep, so
        // distributing work by timing (first thread up wins the
        // dispenser) can collapse onto one thread; distributing it by
        // placement cannot. Combined with steals never taking a queue's
        // last task, every seeded worker is guaranteed to process at
        // least one variant on its own thread — which is also what keeps
        // the `dse.variant` trace genuinely multi-lane.
        let queues: Vec<Worker<IndexedVariant>> =
            (0..workers).map(|_| Worker::new_fifo()).collect();
        for item in first_chunk {
            queues[0].push(item);
        }
        for queue in &queues[1..] {
            let chunk = dispenser.refill(cfg.chunk);
            preloaded += chunk.len() as u64;
            for item in chunk {
                queue.push(item);
            }
        }
        let stealers: Vec<Stealer<IndexedVariant>> = queues.iter().map(Worker::stealer).collect();
        std::thread::scope(|scope| {
            let handles: Vec<_> = queues
                .iter()
                .enumerate()
                .map(|(w, queue)| {
                    let (dispenser, incumbent, classes, stealers) =
                        (&dispenser, &incumbent, &classes, &stealers[..]);
                    scope.spawn(move || {
                        worker_loop(
                            factory, dev, cfg, dispenser, incumbent, classes, queue, stealers, w,
                        )
                    })
                })
                .collect();
            for h in handles {
                let (out, stats, snap) = h.join().expect("search worker panicked");
                merged.valid.extend(out.valid);
                merged.invalid.extend(out.invalid);
                merged.stats += out.stats;
                merged.fault_dumps.extend(out.fault_dumps);
                session_stats += stats;
                metrics.merge(&snap);
            }
        });
    }

    // The seed chunks were drawn outside any worker loop.
    merged.stats.generated += preloaded;

    // Deterministic ranking: EKIT descending, generation index ascending
    // — never by which worker finished first.
    merged.valid.sort_by(|(ia, a), (ib, b)| {
        b.report.throughput.ekit.total_cmp(&a.report.throughput.ekit).then_with(|| ia.cmp(ib))
    });
    merged.valid.truncate(cfg.top_k);
    merged.invalid.sort_by_key(|iv| iv.index);
    merged.fault_dumps.sort_by(|(a, _), (b, _)| a.cmp(b));

    // A shared live registry accumulated every worker's observability
    // metrics as the sweep ran; fold its final state in exactly once.
    if let Some(live) = &cfg.live {
        metrics.merge(&live.snapshot());
    }

    SearchOutcome {
        leaderboard: merged.valid.into_iter().map(|(_, e)| e).collect(),
        invalid: merged.invalid,
        stats: merged.stats,
        session: session_stats,
        metrics,
        fault_dumps: merged.fault_dumps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tytra_device::{eval_small, stratix_v_gsd8};
    use tytra_ir::MemForm;
    use tytra_kernels::Sor;

    fn space() -> ExplorationConfig {
        ExplorationConfig {
            lanes: vec![1, 2, 4, 8, 16, 32],
            vects: vec![1, 2],
            forms: vec![MemForm::A, MemForm::B],
            include_seq: false,
            workers: 2,
        }
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
        let sor = Sor::cubic(16, 10);
        let dev = eval_small();
        let pruned = search(&sor, &dev, &SearchConfig::pruned(space()));
        let exhaustive = search(&sor, &dev, &SearchConfig::exhaustive(space()));
        assert_eq!(fingerprint(&pruned), fingerprint(&exhaustive));
        assert_eq!(exhaustive.stats.estimated, exhaustive.stats.generated);
        assert!(
            pruned.stats.pruned() > 0,
            "lanes 16/32 cannot fit eval-small, so the bound must prune: {:?}",
            pruned.stats
        );
        assert!(pruned.stats.estimated < exhaustive.stats.estimated);
    }

    #[test]
    fn leaderboard_is_worker_count_invariant() {
        let sor = Sor::cubic(16, 10);
        let dev = eval_small();
        let runs: Vec<_> = [1usize, 2, 4, 7]
            .iter()
            .map(|&w| {
                let cfg = SearchConfig::pruned(ExplorationConfig { workers: w, ..space() });
                fingerprint(&search(&sor, &dev, &cfg))
            })
            .collect();
        for r in &runs[1..] {
            assert_eq!(&runs[0], r);
        }
    }

    #[test]
    fn matches_explore_ranking_on_valid_variants() {
        // The search leaderboard must agree with the legacy engine's
        // ranking of device-fitting variants (bit-equal EKITs).
        let sor = Sor::cubic(16, 10);
        let dev = stratix_v_gsd8();
        let outcome = search(&sor, &dev, &SearchConfig::exhaustive(space()));
        let legacy = crate::explore::explore(&sor, &dev, &space());
        let legacy_valid: Vec<(String, u64)> = legacy
            .iter()
            .filter(|e| e.is_valid())
            .take(outcome.leaderboard.len())
            .map(|e| (e.variant.tag(), e.report.throughput.ekit.to_bits()))
            .collect();
        let ours: Vec<(String, u64)> = outcome
            .leaderboard
            .iter()
            .map(|e| (e.variant.tag(), e.report.throughput.ekit.to_bits()))
            .collect();
        assert_eq!(ours, legacy_valid);
    }

    #[test]
    fn empty_space_returns_an_empty_outcome_without_workers() {
        let sor = Sor::cubic(16, 10); // 4096 items: 3 never divides
        let dev = eval_small();
        let cfg =
            SearchConfig::pruned(ExplorationConfig { lanes: vec![3], vects: vec![3], ..space() });
        let o = search(&sor, &dev, &cfg);
        assert!(o.leaderboard.is_empty());
        assert!(o.invalid.is_empty());
        assert_eq!(o.stats, SearchStats::default());
        assert_eq!(o.session.lookups(), 0, "no estimator work for an empty space");
    }

    #[test]
    fn incumbent_threshold_is_the_kth_best() {
        let inc = Incumbent::new(2);
        assert_eq!(inc.threshold(), f64::NEG_INFINITY);
        inc.record(5.0, 0);
        assert_eq!(inc.threshold(), f64::NEG_INFINITY, "board not full yet");
        inc.record(3.0, 1);
        assert_eq!(inc.threshold(), 3.0);
        inc.record(4.0, 2);
        assert_eq!(inc.threshold(), 4.0, "4.0 displaces 3.0 as 2nd best");
        inc.record(1.0, 3);
        assert_eq!(inc.threshold(), 4.0, "worse results never lower the bar");
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
    fn live_registry_sees_progress_and_merges_once() {
        let sor = Sor::cubic(16, 10);
        let dev = eval_small();
        let live = Arc::new(Registry::new());
        let cfg = SearchConfig { live: Some(Arc::clone(&live)), ..SearchConfig::pruned(space()) };
        let outcome = search(&sor, &dev, &cfg);

        // The shared registry saw the whole sweep...
        let snap = live.snapshot();
        assert_eq!(snap.counter("dse.points"), outcome.stats.generated);
        assert_eq!(snap.counter("dse.pruned_unfit"), outcome.stats.pruned_unfit);
        // ...and the outcome metrics carry the same counts exactly once.
        assert_eq!(outcome.metrics.counter("dse.points"), outcome.stats.generated);
        let bound_ns = outcome
            .metrics
            .entries
            .iter()
            .find(|(name, _)| name == "dse.bound_ns")
            .expect("bound latency histogram present");
        match &bound_ns.1 {
            tytra_trace::metrics::MetricValue::Histogram(h) => {
                assert_eq!(h.count, outcome.stats.estimated + outcome.stats.pruned())
            }
            other => panic!("dse.bound_ns is not a histogram: {other:?}"),
        }

        // Without a live registry the same metrics land in the outcome
        // via the per-worker registries.
        let local = search(&sor, &dev, &SearchConfig::pruned(space()));
        assert_eq!(local.metrics.counter("dse.points"), local.stats.generated);
    }

    #[test]
    fn stats_arithmetic() {
        let s = SearchStats {
            generated: 24,
            estimated: 10,
            pruned_unfit: 8,
            pruned_bound: 6,
            stolen: 3,
            faulted: 2,
            classes: 5,
            collapsed: 4,
        };
        assert_eq!(s.pruned(), 14);
        assert!((s.pruned_fraction() - 14.0 / 24.0).abs() < 1e-12);
        assert_eq!(SearchStats::default().pruned_fraction(), 0.0);
        let mut t = s;
        t += s;
        assert_eq!(t.generated, 48);
        assert_eq!(t.stolen, 6);
        assert_eq!(t.faulted, 4);
        assert_eq!(t.classes, 10);
        assert_eq!(t.collapsed, 8);
    }

    #[test]
    fn prefilter_collapses_forms_at_nki_1() {
        // At NKI == 1 the A and B memory forms are provably
        // cost-congruent, so the prefilter halves the estimate count on
        // an A+B sweep — while the leaderboard stays bit-identical to
        // the exhaustive oracle for any worker count.
        let sor = Sor::cubic(16, 1);
        let dev = eval_small();
        let exhaustive = search(&sor, &dev, &SearchConfig::exhaustive(space()));
        assert_eq!(exhaustive.stats.collapsed, 0, "no prefilter in exhaustive mode");
        assert_eq!(exhaustive.stats.classes, 0);
        for workers in [1usize, 2, 4] {
            let cfg = SearchConfig::pruned(ExplorationConfig { workers, ..space() });
            let pruned = search(&sor, &dev, &cfg);
            assert_eq!(fingerprint(&pruned), fingerprint(&exhaustive), "workers = {workers}");
            assert!(
                pruned.stats.collapsed > 0,
                "A/B pairs at NKI == 1 must collapse: {:?}",
                pruned.stats
            );
            assert!(pruned.stats.classes > 0);
            assert_eq!(
                pruned.stats.estimated
                    + pruned.stats.collapsed
                    + pruned.stats.pruned()
                    + pruned.stats.faulted,
                pruned.stats.generated,
                "every generated variant is estimated, replicated or pruned: {:?}",
                pruned.stats
            );
        }
    }

    #[test]
    fn prefilter_is_silent_at_nki_above_1() {
        // NKI > 1 splits the A/B forms (host-transfer amortisation
        // differs), so with no other congruent axis in the space, no
        // variant may be replicated.
        let sor = Sor::cubic(16, 10);
        let dev = eval_small();
        let pruned = search(&sor, &dev, &SearchConfig::pruned(space()));
        assert_eq!(pruned.stats.collapsed, 0, "{:?}", pruned.stats);
    }
}
