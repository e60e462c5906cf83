//! The session-based estimator: the cost pipeline as explicit, memoized
//! passes.
//!
//! [`EstimatorSession`] is a long-lived handle owning one target device.
//! Where [`estimate()`][crate::estimate::estimate] pays the full pipeline
//! — validation, configuration extraction, scheduling, per-instruction
//! resource accumulation, calibration-curve evaluation, bandwidth
//! assessment — from scratch on every call, a session keys each pass's
//! sub-results on stable structural fingerprints
//! ([`tytra_ir::fingerprint`]) and replays them when a later variant
//! shares the IR they were computed from. Variants in a DSE sweep share
//! almost all of their IR (a 32-lane variant is one pipe function
//! repeated 32 times; a lane sweep re-uses the same lane body at every
//! width), so warm-session sweeps run mostly out of the memo tables.
//!
//! The passes run over an [`ArenaModule`] design
//! ([`estimate_design`][EstimatorSession::estimate_design],
//! [`bound_design`][EstimatorSession::bound_design]); the tree entry
//! points [`estimate`][EstimatorSession::estimate] and
//! [`bound`][EstimatorSession::bound] build an arena over the module and
//! call them. The pass pipeline, with each pass's memo key:
//!
//! | pass | input | memo key | cached value |
//! |---|---|---|---|
//! | validate | module | the arena's cached verdict ([`PatchedModule::cached_verdict`]); a fresh arena validates | (validity) |
//! | configure | module | — (extracted at arena build) | `ConfigPlan` |
//! | schedule | lane subtree | [`fingerprint_subtree`][tytra_ir::fingerprint_subtree] | `PipelineSchedule` |
//! | parameters | geometry + schedule | — (infallible arithmetic) | `CostParams` |
//! | resources | per function | [`fingerprint_function`][tytra_ir::fingerprint_function] + `DV` | `ResourceBreakdown` |
//! | clock | per function | [`PatchedModule::fn_key`]: [`fingerprint_function`][tytra_ir::fingerprint_function] + copies of the body | worst stage (ns, name) |
//! | bandwidth | stream set | [`PatchedModule::bw_key`]: [`fingerprint_streams`][tytra_ir::fingerprint_streams] + lanes + kernel lanes | `BandwidthBreakdown` |
//! | throughput / power | scalars | — (pure arithmetic) | — |
//!
//! Below those there is no second memo level: a miss evaluates the
//! device calibration directly (a `match` and a few flops per fit, a
//! binary search over at most 12 breakpoints per sustained-bandwidth
//! lookup).
//!
//! **Bit-identity.** A cached value is the exact value its pass computed
//! cold — resource sums are `u64` (addition commutes exactly), `f64`s
//! are stored and replayed bit-for-bit, and the per-function worst-stage
//! combine uses a strict `>` preorder — so a warm
//! [`estimate`][EstimatorSession::estimate] returns a [`CostReport`]
//! bit-identical to a cold one. The `session_equivalence` property test
//! and the byte-identical `tybec dse sor` leaderboard pin this down.

use crate::bandwidth::{self, BandwidthBreakdown};
use crate::bound::CostBound;
use crate::frequency;
use crate::params::CostParams;
use crate::report::CostReport;
use crate::resource::{self, ResourceBreakdown};
use crate::schedule::{self, PipelineSchedule};
use crate::{bottleneck, throughput, CostOptions};
use tytra_device::TargetDevice;
use tytra_ir::{ArenaModule, ConfigPlan, IrError, IrModule, PatchedModule, TybecError};
use tytra_trace as trace;
use tytra_trace::bounded::BoundedMap;
use tytra_trace::metrics::{Counter, Gauge, Histogram, Registry, Snapshot};

/// Entries each pass memo table may hold before CLOCK eviction kicks
/// in. Sized for full-space sweeps (a few thousand variants share a few
/// hundred distinct fingerprints) while keeping a long-running
/// `tybec serve` session's footprint bounded.
pub const DEFAULT_MEMO_CAPACITY: usize = 8192;

/// Memo-table traffic counters for one estimator session.
///
/// `hits`/`misses` aggregate every memoized pass; `evictions` counts
/// entries the CLOCK hand dropped under capacity pressure. `tybec dse`
/// prints them under `--stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Lookups answered from a memo table.
    pub hits: u64,
    /// Lookups that fell through and were computed fresh.
    pub misses: u64,
    /// Memo entries evicted under capacity pressure.
    pub evictions: u64,
}

impl SessionStats {
    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of lookups served from the memo tables (0 when the
    /// session is untouched).
    pub fn hit_rate(&self) -> f64 {
        let total = self.lookups();
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl std::ops::AddAssign for SessionStats {
    fn add_assign(&mut self, rhs: SessionStats) {
        self.hits += rhs.hits;
        self.misses += rhs.misses;
        self.evictions += rhs.evictions;
    }
}

/// A long-lived estimator handle: one target device, one set of cost
/// options, and the memo tables shared by every module costed through it.
///
/// ```
/// use tytra_cost::EstimatorSession;
/// use tytra_device::stratix_v_gsd8;
/// # let src = r#"
/// # !module = !"double"
/// # !ndrange = !{4096}
/// # !nki = !1
/// # !form = !"B"
/// # %mem_x = memobj addrSpace(1) ui32, !size, !4096
/// # %strobj_x = streamobj %mem_x, !read, !"CONT"
/// # @main.x = addrSpace(12) ui32, !"istream", !"CONT", !0, !"strobj_x"
/// # %mem_y = memobj addrSpace(1) ui32, !size, !4096
/// # %strobj_y = streamobj %mem_y, !write, !"CONT"
/// # @main.y = addrSpace(12) ui32, !"ostream", !"CONT", !0, !"strobj_y"
/// # define void @f0(ui32 %x, out ui32 %y) pipe {
/// #   ui32 %t = mul ui32 %x, 2
/// #   ui32 %y__out = or ui32 %t, 0
/// # }
/// # define void @main() {
/// #   call @f0(%x, %y) pipe
/// # }
/// # "#;
/// let m = tytra_ir::parse(src).unwrap();
/// let mut session = EstimatorSession::new(stratix_v_gsd8());
/// let cold = session.estimate(&m).unwrap();
/// let warm = session.estimate(&m).unwrap();
/// assert_eq!(cold.throughput.ekit.to_bits(), warm.throughput.ekit.to_bits());
/// assert!(session.stats().hit_rate() > 0.0);
/// ```
pub struct EstimatorSession {
    dev: TargetDevice,
    opts: CostOptions,
    /// Per-function resource costs, keyed `(function fingerprint, DV)`.
    node_costs: BoundedMap<(u64, u64), ResourceBreakdown>,
    /// Per-function worst stage delays, keyed on
    /// [`PatchedModule::fn_key`].
    worst_stage: BoundedMap<(u64, u64), Option<(f64, String)>>,
    /// Lane-subtree schedules, keyed on subtree fingerprint.
    schedules: BoundedMap<u64, PipelineSchedule>,
    /// Bandwidth breakdowns, keyed on [`PatchedModule::bw_key`].
    bandwidths: BoundedMap<(u64, u64, u64), BandwidthBreakdown>,
    /// The single source of truth for the session's counters: the
    /// handles below all live in this registry, so
    /// [`stats`][EstimatorSession::stats] and
    /// [`metrics_snapshot`][EstimatorSession::metrics_snapshot] can
    /// never disagree.
    metrics: Registry,
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    memo_entries: Gauge,
    estimate_ns: Histogram,
    bound_ns: Histogram,
}

impl EstimatorSession {
    /// A session with default cost options.
    pub fn new(dev: TargetDevice) -> EstimatorSession {
        EstimatorSession::with_options(dev, CostOptions::default())
    }

    /// A session with explicit (possibly ablated) cost options. Options
    /// are fixed for the session's lifetime so they need not be part of
    /// any memo key.
    pub fn with_options(dev: TargetDevice, opts: CostOptions) -> EstimatorSession {
        EstimatorSession::with_memo_capacity(dev, opts, DEFAULT_MEMO_CAPACITY)
    }

    /// A session whose pass memo tables each evict past `capacity`
    /// entries. Eviction only ever forces a bit-identical recompute
    /// (every memoized value is a pure function of its key), so a tiny
    /// capacity trades speed for memory, never accuracy.
    pub fn with_memo_capacity(
        dev: TargetDevice,
        opts: CostOptions,
        capacity: usize,
    ) -> EstimatorSession {
        let metrics = Registry::new();
        EstimatorSession {
            dev,
            opts,
            node_costs: BoundedMap::new(capacity),
            worst_stage: BoundedMap::new(capacity),
            schedules: BoundedMap::new(capacity),
            bandwidths: BoundedMap::new(capacity),
            hits: metrics.counter("session.memo.hits"),
            misses: metrics.counter("session.memo.misses"),
            evictions: metrics.counter("session.memo.evictions"),
            memo_entries: metrics.gauge("session.memo.entries"),
            estimate_ns: metrics.histogram("estimator.estimate_ns"),
            bound_ns: metrics.histogram("estimator.bound_ns"),
            metrics,
        }
    }

    /// The target the session costs against.
    pub fn device(&self) -> &TargetDevice {
        &self.dev
    }

    /// The session's cost options.
    pub fn options(&self) -> &CostOptions {
        &self.opts
    }

    /// Aggregate memo statistics over the pass tables. A view over the
    /// `session.memo.*` counters
    /// [`metrics_snapshot`][EstimatorSession::metrics_snapshot] reports.
    pub fn stats(&self) -> SessionStats {
        SessionStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            evictions: self.evictions.get(),
        }
    }

    /// Point-in-time snapshot of the session's metrics registry: the
    /// `session.memo.*` counters, the `session.memo.entries` gauge and
    /// the `estimator.{estimate,bound}_ns` latency histograms. `tybec
    /// dse --metrics` merges it (`Snapshot::merge`) with the search's
    /// own `dse.*` metrics.
    pub fn metrics_snapshot(&self) -> Snapshot {
        self.metrics.snapshot()
    }

    /// Run the full cost pipeline over a design variant, serving every
    /// sub-result the session has already computed from its memo tables.
    ///
    /// Builds an [`ArenaModule`] over a copy of `m` and runs
    /// [`estimate_design`][EstimatorSession::estimate_design] on its
    /// identity patch: one pipeline serves trees and arena designs. The
    /// fresh arena validates `m` (a pass 0 miss on every call); a caller
    /// that owns a parsed module builds the arena with
    /// [`ArenaModule::validated`] instead, which skips the copy and the
    /// second validation.
    /// Reports are the same with or without tracing enabled, since spans
    /// only observe. Each pass opens an `estimator.*` span carrying its
    /// hit/miss verdict and, where it has one, its memo fingerprint (see
    /// `docs/observability.md`).
    pub fn estimate(&mut self, m: &IrModule) -> Result<CostReport, TybecError> {
        self.estimate_design(&ArenaModule::build(m.clone()).identity())
    }

    /// The cheap bound pass over a module:
    /// [`bound_design`][EstimatorSession::bound_design] on the identity
    /// patch of an arena built over a copy of `m`.
    pub fn bound(&mut self, m: &IrModule) -> Result<CostBound, TybecError> {
        self.bound_design(&ArenaModule::build(m.clone()).identity())
    }

    /// The eight-pass pipeline over an arena-backed design variant.
    /// Configuration, geometry and all memo keys come from the arena's
    /// precomputed scalars, so a warm call never materializes or clones
    /// the module. The report equals that of a fresh arena built over the
    /// [`materialize`][PatchedModule::materialize]d tree (pinned by the
    /// `arena_equivalence` suite and a fuzz oracle, which check the
    /// copy-on-write patch). A design that fails validation returns that
    /// error; a valid one without a supported configuration returns the
    /// extraction error the arena kept.
    pub fn estimate_design(&mut self, d: &PatchedModule<'_>) -> Result<CostReport, TybecError> {
        let t0 = std::time::Instant::now();
        let _root = trace::span("estimator.estimate").with("module", d.name);

        // Pass 0: validation, shared across the arena's variants.
        self.validate_design(d)?;

        // Pass 1 ran at arena build time.
        let plan = {
            let _sp = trace::enabled().then(|| trace::span("estimator.configure"));
            d.arena.config()?
        };

        // Pass 2: schedule, keyed on the lane subtree's fingerprint
        // (patch-independent: lane count and DV do not enter the
        // schedule), so a miss schedules the template.
        let sched = match self.schedules.get(&plan.lane_fp) {
            Some(s) => {
                let _sp = trace::enabled().then(|| {
                    trace::span("estimator.schedule")
                        .with("fp", plan.lane_fp)
                        .with("memo_hit", true)
                });
                self.hits.incr();
                s.clone()
            }
            None => {
                let _sp = trace::span("estimator.schedule")
                    .with("fp", plan.lane_fp)
                    .with("memo_hit", false);
                let s = schedule::schedule(d.arena.template(), &self.dev, &plan.tree.root)?;
                self.misses.incr();
                if self.schedules.insert(plan.lane_fp, s.clone()) {
                    self.evictions.incr();
                }
                s
            }
        };

        // Pass 3: parameters from precomputed geometry + patched cells.
        let params = {
            let _sp = trace::enabled().then(|| trace::span("estimator.parameters"));
            CostParams::from_design(d, sched)
        };

        // Pass 4: resources over the preorder plan.
        let resources = self.resources_design(d, plan);
        let utilization = resources.total.utilization(&self.dev.capacity);
        let fits = resources.total.fits_within(&self.dev.capacity);

        // Pass 5: clock. `finish_clock` reads only `meta.freq_mhz`,
        // which the patch never touches.
        let clock = {
            let _sp = trace::enabled().then(|| trace::span("estimator.clock"));
            let worst = self.clock_design(d, plan);
            frequency::finish_clock(d.arena.template(), &self.dev, worst, &resources.total)
        };

        // Pass 6: bandwidth (Manage-IR and lane count only).
        let bw_key = self.ensure_bandwidth_design(d);
        let bw = self.bandwidths[&bw_key].clone();

        // Pass 7: throughput, limiter, power — pure arithmetic.
        let report = {
            let _sp = trace::enabled().then(|| trace::span("estimator.throughput"));
            let tput = throughput::estimate_throughput(&params, &self.dev, &bw, clock.freq_mhz);
            let limiter = bottleneck::limiter(&tput);
            let exercised_gbytes =
                crate::estimate::exercised_gbytes(params.total_bytes(), tput.t_instance);
            let power_w =
                self.dev.power.delta_watts(&resources.total, clock.freq_mhz, exercised_gbytes);
            CostReport {
                design: d.name.to_string(),
                target: self.dev.name.clone(),
                params,
                class: plan.tree.class,
                resources,
                utilization,
                fits,
                clock,
                bandwidth: bw,
                throughput: tput,
                limiter,
                power_w,
            }
        };

        self.memo_entries.set(self.memo_len() as f64);
        self.estimate_ns.record(t0.elapsed().as_nanos() as u64);
        Ok(report)
    }

    /// The cheap bound pass over an arena-backed design: an
    /// exact resource/fit verdict plus an admissible upper bound on EKIT,
    /// from the memoized validate, resource and bandwidth passes and the
    /// throughput pass at the device's `Fmax` — no schedule or clock walk
    /// over the datapath (see [`crate::bound`]).
    ///
    /// Shares memo tables with
    /// [`estimate_design`][EstimatorSession::estimate_design], so
    /// interleaving bounds never perturbs estimate results. Steady-state
    /// (all memos warm) this performs no heap allocation at all —
    /// fingerprints and geometry are precomputed, the lane's initiation
    /// interval and instruction count are read off the configuration
    /// tree ([`ConfigNode::ii`][tytra_ir::ConfigNode::ii]), and the
    /// bandwidth breakdown is read by reference from the memo table.
    pub fn bound_design(&mut self, d: &PatchedModule<'_>) -> Result<CostBound, TybecError> {
        let t0 = std::time::Instant::now();
        let _root = trace::span("estimator.bound").with("module", d.name);
        self.validate_design(d)?;
        let plan = d.arena.config()?;
        let resources = self.resources_design(d, plan);
        let fits = resources.total.fits_within(&self.dev.capacity);
        let bw_key = self.ensure_bandwidth_design(d);
        // The pipeline the bound assumes: the lane's own II and NI, no
        // depth to fill and no delay lines.
        let lane = plan.tree.root.lane();
        let sched = PipelineSchedule {
            kpd: 0,
            ii: lane.ii(),
            ni: lane.subtree_instrs(),
            delay_line_bits_per_lane: 0,
        };
        let params = CostParams::from_design(d, sched);
        let bw = &self.bandwidths[&bw_key];
        let b = crate::bound::assemble(&params, &self.dev, bw, resources.total, fits);
        self.memo_entries.set(self.memo_len() as f64);
        self.bound_ns.record(t0.elapsed().as_nanos() as u64);
        Ok(b)
    }

    /// Pass 0. The arena caches each patch's verdict, shared by every
    /// patch at that lane count and every session (see
    /// [`PatchedModule::validate`]). Once the arena holds it
    /// ([`PatchedModule::cached_verdict`]), a call is a hit that reads
    /// it. An arena without it (a fresh one the tree entry points build,
    /// or a lane count not validated yet) validates and counts a miss.
    fn validate_design(&mut self, d: &PatchedModule<'_>) -> Result<(), IrError> {
        if let Some(verdict) = d.cached_verdict() {
            let _sp =
                trace::enabled().then(|| trace::span("estimator.validate").with("memo_hit", true));
            self.hits.incr();
            return verdict;
        }
        let _sp = trace::span("estimator.validate").with("memo_hit", false);
        self.misses.incr();
        d.validate()
    }

    /// Pass 4: resource accumulation over the flattened plan, memoized
    /// per function. Like every pass whose warm path only reads memos or
    /// does arithmetic, it opens its span only while tracing is on, so it
    /// leaves no flight-recorder event; each memo miss leaves a mark with
    /// the function's fingerprint instead.
    fn resources_design(
        &mut self,
        d: &PatchedModule<'_>,
        plan: &ConfigPlan,
    ) -> crate::resource::ResourceEstimate {
        let _sp = trace::enabled().then(|| trace::span("estimator.resources"));
        resource::estimate_plan(
            d,
            plan,
            &self.dev,
            &self.opts,
            resource::NodeMemo {
                table: &mut self.node_costs,
                hits: &self.hits,
                misses: &self.misses,
                evictions: &self.evictions,
            },
        )
    }

    /// Pass 5 over the flattened plan, in two phases: fill the
    /// worst-stage memo for every plan node (one hit or miss per node
    /// visit), then a read-only preorder combine that borrows the
    /// memoized stage names and pays a single `String` copy at the end.
    /// The strict `>` keeps the earliest function on ties, so one copy of
    /// a replicated lane slice gives the max over every copy; each
    /// further copy counts the hits its walk would have.
    fn clock_design(&mut self, d: &PatchedModule<'_>, plan: &ConfigPlan) -> (f64, String) {
        let a = d.arena;
        for node in &plan.nodes {
            let key = d.fn_key(node.func);
            if self.worst_stage.contains_key(&key) {
                self.hits.incr();
            } else {
                trace::recorder::mark("estimator.clock", key.0);
                let f = &a.template().functions[node.func.index()];
                let v = frequency::function_worst_stage(&self.dev, f, node.kind);
                self.misses.incr();
                if self.worst_stage.insert(key, v) {
                    self.evictions.incr();
                }
            }
        }
        let copies = plan.lane_replicas * d.lanes();
        self.hits.add((copies - 1) * plan.lane_len as u64);
        let mut worst: (f64, &str) = (0.0, "");
        for node in &plan.nodes {
            if let Some(Some(own)) = self.worst_stage.peek(&d.fn_key(node.func)) {
                if own.0 > worst.0 {
                    worst = (own.0, own.1.as_str());
                }
            }
        }
        (worst.0, worst.1.to_string())
    }

    /// Pass 6 over an arena: ensure the bandwidth breakdown for the
    /// patch's key is memoized, without handing out a clone — the bound
    /// path reads it by reference afterwards — and return the key. The
    /// pass reads only the Manage-IR and the kernel-lane count, so the
    /// key is the template's streams digest, the lane count and the
    /// kernel-lane count ([`PatchedModule::bw_key`]).
    fn ensure_bandwidth_design(&mut self, d: &PatchedModule<'_>) -> (u64, u64, u64) {
        let bw_key = d.bw_key();
        if self.bandwidths.contains_key(&bw_key) {
            let _sp = trace::enabled().then(|| {
                trace::span("estimator.bandwidth")
                    .with("fp", bw_key.0)
                    .with("lanes", bw_key.1)
                    .with("memo_hit", true)
            });
            self.hits.incr();
        } else {
            let _sp = trace::span("estimator.bandwidth")
                .with("fp", bw_key.0)
                .with("lanes", bw_key.1)
                .with("memo_hit", false);
            let b = if self.opts.sustained_bandwidth {
                bandwidth::assess(d, &self.dev)
            } else {
                bandwidth::assess_naive(d, &self.dev)
            };
            self.misses.incr();
            if self.bandwidths.insert(bw_key, b) {
                self.evictions.incr();
            }
        }
        bw_key
    }

    /// Total entries across the session's memo tables (the
    /// `session.memo.entries` gauge).
    fn memo_len(&self) -> usize {
        self.node_costs.len()
            + self.worst_stage.len()
            + self.schedules.len()
            + self.bandwidths.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tytra_device::{eval_small, stratix_v_gsd8};
    use tytra_ir::{MemForm, ModuleBuilder, Opcode, ParKind, ScalarType};

    const T: ScalarType = ScalarType::UInt(18);

    fn laned_module(lanes: usize, form: MemForm) -> IrModule {
        let n = 27_000u64;
        let mut b = ModuleBuilder::new(format!("k_l{lanes}"));
        if lanes > 1 {
            for l in 0..lanes {
                b.global_input(&format!("p{l}"), T, n / lanes as u64);
                b.global_output(&format!("q{l}"), T, n / lanes as u64);
            }
        } else {
            b.global_input("p", T, n);
            b.global_output("q", T, n);
        }
        {
            let f = b.function("f0", ParKind::Pipe);
            f.input("p", T);
            f.output("q", T);
            let a = f.offset("p", T, 30);
            let c = f.offset("p", T, -30);
            let s = f.instr(Opcode::Add, T, vec![a, c]);
            let w = f.instr(Opcode::Mul, T, vec![s, f.imm(3)]);
            f.write_out("q", w);
        }
        if lanes > 1 {
            let f = b.function("f1", ParKind::Par);
            for _ in 0..lanes {
                f.call("f0", vec![], ParKind::Pipe);
            }
            b.main_calls("f1");
        } else {
            b.main_calls("f0");
        }
        b.ndrange(&[n]).nki(100).form(form);
        b.finish().expect("laned_module is valid")
    }

    #[test]
    fn warm_report_is_bit_identical_to_cold() {
        let dev = stratix_v_gsd8();
        let m = laned_module(4, MemForm::B);
        let fresh = crate::estimate(&m, &dev).unwrap();
        let mut session = EstimatorSession::new(dev);
        let cold = session.estimate(&m).unwrap();
        let warm = session.estimate(&m).unwrap();
        for r in [&cold, &warm] {
            assert_eq!(format!("{fresh:?}"), format!("{r:?}"));
        }
        assert_eq!(fresh.throughput.ekit.to_bits(), warm.throughput.ekit.to_bits());
        assert_eq!(fresh.power_w.to_bits(), warm.power_w.to_bits());
        assert_eq!(fresh.clock.freq_mhz.to_bits(), warm.clock.freq_mhz.to_bits());
    }

    #[test]
    fn repeated_lanes_hit_within_a_single_variant() {
        // 8 lanes of the same pipe function: 7 of the 8 per-function
        // resource lookups must hit even on a cold session.
        let mut session = EstimatorSession::new(stratix_v_gsd8());
        session.estimate(&laned_module(8, MemForm::B)).unwrap();
        let s = session.stats();
        assert!(s.hits > 0, "{s:?}");
    }

    #[test]
    fn sweep_hit_rate_exceeds_half() {
        // A Fig-15-style lane sweep: the lane body is shared by every
        // variant, so a warm session serves most lookups from memory.
        let mut session = EstimatorSession::new(eval_small());
        for lanes in [1usize, 2, 4, 8] {
            for form in [MemForm::A, MemForm::B] {
                session.estimate(&laned_module(lanes, form)).unwrap();
            }
        }
        let s = session.stats();
        assert!(s.hit_rate() > 0.5, "hit rate {:.3} with {s:?}", s.hit_rate());
    }

    #[test]
    fn session_rejects_invalid_modules() {
        let mut m = laned_module(1, MemForm::B);
        m.functions.retain(|f| f.name != "main");
        let mut session = EstimatorSession::new(stratix_v_gsd8());
        assert!(session.estimate(&m).is_err());
        // And keeps rejecting it (failure is not cached as success).
        assert!(session.estimate(&m).is_err());
    }

    #[test]
    fn bound_is_admissible_and_fit_exact() {
        let mut session = EstimatorSession::new(eval_small());
        for lanes in [1usize, 2, 4, 8, 16] {
            for form in [MemForm::A, MemForm::B, MemForm::C] {
                let m = laned_module(lanes, form);
                let b = session.bound(&m).unwrap();
                let r = session.estimate(&m).unwrap();
                assert_eq!(b.fits, r.fits, "fit verdict is exact (l{lanes} {form:?})");
                assert_eq!(b.resources, r.resources.total, "resource total is exact");
                assert!(
                    b.ekit_upper >= r.throughput.ekit,
                    "bound must be admissible: ub {} < ekit {} (l{lanes} {form:?})",
                    b.ekit_upper,
                    r.throughput.ekit
                );
            }
        }
    }

    #[test]
    fn interleaved_bounds_do_not_perturb_estimates() {
        let dev = eval_small();
        let modules: Vec<IrModule> =
            [1usize, 2, 4].iter().map(|&l| laned_module(l, MemForm::B)).collect();
        let mut plain = EstimatorSession::new(dev.clone());
        let mut mixed = EstimatorSession::new(dev);
        for m in &modules {
            let a = plain.estimate(m).unwrap();
            mixed.bound(m).unwrap();
            let b = mixed.estimate(m).unwrap();
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
    }

    #[test]
    fn bound_rejects_invalid_modules() {
        let mut m = laned_module(1, MemForm::B);
        m.functions.retain(|f| f.name != "main");
        let mut session = EstimatorSession::new(stratix_v_gsd8());
        assert!(session.bound(&m).is_err());
    }

    /// The tree entry points build a fresh arena over the materialized
    /// module, so this pins each copy-on-write patch to a rebuild.
    #[test]
    fn design_estimates_are_bit_identical_to_tree() {
        let dev = eval_small();
        let mut tree_s = EstimatorSession::new(dev.clone());
        let mut arena_s = EstimatorSession::new(dev);
        let a = tytra_ir::ArenaModule::build(laned_module(4, MemForm::B));
        for (name, form, vect) in [
            ("k_l4", MemForm::B, 1u32),
            ("k_l4_v2_pipe_A", MemForm::A, 2),
            ("k_l4_v1_pipe_C", MemForm::C, 1),
            ("tiled", MemForm::Tiled { tiles: 4 }, 1),
        ] {
            let d = a.patched(name, form, vect, 1);
            let m = d.materialize();
            let tr = tree_s.estimate(&m).unwrap();
            let ar = arena_s.estimate_design(&d).unwrap();
            assert_eq!(format!("{tr:?}"), format!("{ar:?}"), "estimate ({name})");
            let tb = tree_s.bound(&m).unwrap();
            let ab = arena_s.bound_design(&d).unwrap();
            assert_eq!(format!("{tb:?}"), format!("{ab:?}"), "bound ({name})");
        }
    }

    #[test]
    fn design_and_tree_paths_share_memos() {
        let mut session = EstimatorSession::new(eval_small());
        let a = tytra_ir::ArenaModule::build(laned_module(8, MemForm::B));
        let d = a.identity();
        let cold = session.estimate_design(&d).unwrap();
        // The tree path over the materialized module replays the memo
        // entries the design path populated (identity patch: same
        // fingerprints), and vice versa. Only validating its fresh arena
        // misses: the verdict lives on the arena, not in the session.
        let misses_after_cold = session.misses.get();
        let warm_tree = session.estimate(&d.materialize()).unwrap();
        assert_eq!(format!("{cold:?}"), format!("{warm_tree:?}"));
        assert_eq!(session.misses.get(), misses_after_cold + 1, "tree path warm but for pass 0");
        let warm_design = session.estimate_design(&d).unwrap();
        assert_eq!(format!("{cold:?}"), format!("{warm_design:?}"));
        assert_eq!(session.misses.get(), misses_after_cold + 1, "design path fully warm");
        let b1 = session.bound_design(&d).unwrap();
        let b2 = session.bound(&d.materialize()).unwrap();
        assert_eq!(format!("{b1:?}"), format!("{b2:?}"));
    }

    #[test]
    fn sibling_variants_share_one_base_validation() {
        let mut session = EstimatorSession::new(eval_small());
        let a = tytra_ir::ArenaModule::build(laned_module(4, MemForm::B));
        session.bound_design(&a.patched("v_a", MemForm::A, 1, 1)).unwrap();
        let misses_first = session.stats().misses;
        session.bound_design(&a.patched("v_b", MemForm::B, 1, 1)).unwrap();
        session.bound_design(&a.patched("v_c", MemForm::C, 1, 1)).unwrap();
        // The later variants' validate passes hit via the shared base,
        // resources hit under the same `(fingerprint, DV)` keys, and
        // bandwidth hits on the shared patch-independent key. (A DV
        // change *would* miss the resource memo, by design.)
        assert_eq!(
            session.stats().misses,
            misses_first,
            "a same-DV sibling variant must not recompute any pass"
        );
    }

    #[test]
    fn a_warm_bound_leaves_one_flight_recorder_event() {
        // With tracing off, passes that only read memos open no span, so
        // the estimator's own span is all a warm bound records.
        std::thread::spawn(|| {
            let a = tytra_ir::ArenaModule::build(laned_module(4, MemForm::B));
            let mut session = EstimatorSession::new(eval_small());
            session.bound_design(&a.identity()).unwrap();
            let before = trace::recorder::dump_current_thread().expect("lane exists").written;
            session.bound_design(&a.identity()).unwrap();
            let lane = trace::recorder::dump_current_thread().expect("lane exists");
            assert_eq!(lane.written - before, 1, "{:?}", lane.events.last());
            assert_eq!(lane.events.last().map(|e| e.name.as_str()), Some("estimator.bound"));
        })
        .join()
        .unwrap();
    }

    #[test]
    fn design_path_reports_errors_without_a_plan() {
        // A module whose configuration tree cannot be extracted (no
        // `main`) has no plan; the design passes still report the
        // validation error first.
        let mut m = laned_module(1, MemForm::B);
        m.functions.retain(|f| f.name != "main");
        let a = tytra_ir::ArenaModule::build(m);
        assert!(a.config().is_err());
        let mut session = EstimatorSession::new(stratix_v_gsd8());
        assert!(session.estimate_design(&a.identity()).is_err());
        assert!(session.bound_design(&a.identity()).is_err());
    }

    #[test]
    fn stats_math() {
        let s = SessionStats { hits: 3, misses: 1, evictions: 0 };
        assert_eq!(s.lookups(), 4);
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(SessionStats::default().hit_rate(), 0.0);
        let mut t = s;
        t += SessionStats { hits: 1, misses: 1, evictions: 5 };
        assert_eq!(t, SessionStats { hits: 4, misses: 2, evictions: 5 });
    }

    #[test]
    fn sessions_are_send() {
        // `tybec serve` hands warm sessions to worker threads; pin the
        // auto-trait so a non-Send field cannot sneak in unnoticed.
        fn assert_send<T: Send>() {}
        assert_send::<EstimatorSession>();
    }

    #[test]
    fn tiny_capacity_evicts_but_stays_bit_identical() {
        // Capacity 1 forces the CLOCK hand on nearly every insert; the
        // evicted entries are recomputed, so reports must still match an
        // unbounded session bit for bit.
        let dev = eval_small();
        let mut roomy = EstimatorSession::new(dev.clone());
        let mut tight = EstimatorSession::with_memo_capacity(dev, CostOptions::default(), 1);
        for lanes in [1usize, 2, 4, 8] {
            for form in [MemForm::A, MemForm::B] {
                let m = laned_module(lanes, form);
                let a = roomy.estimate(&m).unwrap();
                let b = tight.estimate(&m).unwrap();
                assert_eq!(format!("{a:?}"), format!("{b:?}"), "l{lanes} {form:?}");
            }
        }
        assert_eq!(roomy.stats().evictions, 0, "default capacity never evicts here");
        let tight_stats = tight.stats();
        assert!(tight_stats.evictions > 0, "capacity 1 must evict: {tight_stats:?}");
    }
}
