//! CI smoke benchmarks: the estimator session and the DSE search engine.
//!
//! Usage: `bench_smoke [OUT.json [DSE_OUT.json]]` (defaults
//! `BENCH_estimator.json` and `BENCH_dse.json`).
//!
//! The first artifact times a cold (fresh-session-per-sweep) vs warm
//! (one reused session) 4-variant SOR sweep: median cold and warm sweep
//! time in microseconds, the cold/warm speedup, the warm session's memo
//! hit rate, plus a `pass_us` object breaking one traced cold+warm sweep
//! down by estimator pass (total span time per `estimator.*` span name).
//!
//! The second artifact races the branch-and-bound search against the
//! exhaustive escape hatch on the sor/eval-small acceptance space and
//! records wall-times, the pruned fraction and the steal count, then
//! repeats the race on an NKI-1 space where the congruence prefilter
//! collapses the A/B form axis (recording classes, collapsed count and
//! prefiltered wall). The run *fails* (nonzero exit) if either race's
//! leaderboards or infeasible sets diverge — the admissibility and
//! congruence contracts, enforced in CI — or if the prefilter collapses
//! nothing on the NKI-1 space.
//!
//! All JSON is hand-rolled — the workspace has no serde.

use std::time::Instant;
use tytra_cost::EstimatorSession;
use tytra_device::{eval_small, stratix_v_gsd8};
use tytra_dse::{search, ExplorationConfig, SearchConfig, SearchOutcome, SearchStats};
use tytra_kernels::{EvalKernel, Sor};
use tytra_transform::Variant;

/// Counting shim over the system allocator, compiled only under the
/// bench-only `alloc-count` feature: one relaxed atomic per allocation,
/// enough to measure the steady-state allocs-per-variant budget of the
/// arena costing path without any external profiler.
#[cfg(feature = "alloc-count")]
mod counting_alloc {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    pub static ALLOCS: AtomicU64 = AtomicU64::new(0);

    pub struct CountingAlloc;

    // SAFETY: defers entirely to `System`; the counter has no effect on
    // the returned pointers or layouts.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            System.alloc(layout)
        }
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }
        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            System.realloc(ptr, layout, new_size)
        }
    }

    #[global_allocator]
    static A: CountingAlloc = CountingAlloc;

    pub fn count() -> u64 {
        ALLOCS.load(Ordering::Relaxed)
    }
}

/// Peak resident set size in kB (`VmHWM` from `/proc/self/status`);
/// 0 where procfs is unavailable.
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|v| v.parse().ok()))
        })
        .unwrap_or(0)
}

/// Steady-state heap allocations per costed variant on the acceptance
/// space: one warm sweep populates the factory bases and every session
/// memo, then a second sweep is counted. The budget covers the whole
/// per-variant path — `VariantFactory::design` (the one name `String`)
/// plus `bound_design` (memoized arena reads, no clones).
///
/// `None` when the binary was built without `alloc-count`.
fn steady_state_allocs_per_variant() -> Option<f64> {
    #[cfg(not(feature = "alloc-count"))]
    {
        None
    }
    #[cfg(feature = "alloc-count")]
    {
        let sor = Sor::cubic(16, 10);
        let dev = eval_small();
        let factory = sor.variant_factory();
        let mut session = EstimatorSession::new(dev);
        // Warm sweep doubles as the filter: keep the variants the bound
        // pass accepts (seq-inner points are structurally rejected),
        // lower every base and fill every memo.
        let variants: Vec<_> = tytra_transform::enumerate_variants(
            sor.geometry().size(),
            &[1, 2, 4, 8, 16, 32],
            &[1, 2],
            &[tytra_ir::MemForm::A, tytra_ir::MemForm::B],
        )
        .into_iter()
        .filter(|v| {
            let d = factory.design(v).expect("legal variant");
            session.bound_design(&d.patched()).is_ok()
        })
        .collect();
        assert!(!variants.is_empty());
        let before = counting_alloc::count();
        for v in &variants {
            let d = factory.design(v).expect("legal variant");
            let _ = session.bound_design(&d.patched());
        }
        let after = counting_alloc::count();
        Some((after - before) as f64 / variants.len() as f64)
    }
}

const REPS: usize = 25;
/// Search reps: each rep costs a full multi-threaded space sweep.
const DSE_REPS: usize = 9;

fn median_us(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

fn outcome_fingerprint(o: &SearchOutcome) -> (Vec<(String, u64)>, Vec<String>) {
    (
        o.leaderboard
            .iter()
            .map(|e| (e.variant.tag(), e.report.throughput.ekit.to_bits()))
            .collect(),
        o.invalid.iter().map(|iv| iv.variant.tag()).collect(),
    )
}

/// Race pruned vs exhaustive search on the sor/eval-small acceptance
/// space; exit nonzero if their outcomes diverge.
fn bench_dse(out: &str) {
    let sor = Sor::cubic(16, 10);
    let dev = eval_small();
    // The acceptance space: the default lane sweep includes counts that
    // cannot fit eval-small, so the bound pass has real work to do; four
    // workers over chunked deques makes stealing observable.
    let space = ExplorationConfig { workers: 4, ..ExplorationConfig::default() };

    let run = |cfg: &SearchConfig| -> (f64, SearchOutcome, SearchStats) {
        let mut walls = Vec::with_capacity(DSE_REPS);
        let mut last = None;
        let mut stats = SearchStats::default();
        for _ in 0..DSE_REPS {
            let t0 = Instant::now();
            let outcome = search(&sor, &dev, cfg);
            walls.push(t0.elapsed().as_secs_f64() * 1e6);
            stats = outcome.stats;
            last = Some(outcome);
        }
        (median_us(&mut walls), last.expect("at least one rep"), stats)
    };

    let (exhaustive_us, ex_outcome, _) = run(&SearchConfig::exhaustive(space.clone()));
    let (pruned_us, pr_outcome, pr_stats) = run(&SearchConfig::pruned(space.clone()));

    if outcome_fingerprint(&pr_outcome) != outcome_fingerprint(&ex_outcome) {
        eprintln!("FAIL: pruned search diverged from exhaustive search");
        eprintln!("  pruned:     {:?}", outcome_fingerprint(&pr_outcome));
        eprintln!("  exhaustive: {:?}", outcome_fingerprint(&ex_outcome));
        std::process::exit(1);
    }

    // Congruence prefilter: at NKI == 1 the A/B form axis collapses, so
    // the same space over an NKI-1 SOR must replicate half its full
    // estimates from the class cache — and still match exhaustive
    // bit-for-bit. Gated here like the bound pass above.
    let sor1 = Sor::cubic(16, 1);
    let run1 = |cfg: &SearchConfig| -> (f64, SearchOutcome, SearchStats) {
        let mut walls = Vec::with_capacity(DSE_REPS);
        let mut last = None;
        let mut stats = SearchStats::default();
        for _ in 0..DSE_REPS {
            let t0 = Instant::now();
            let outcome = search(&sor1, &dev, cfg);
            walls.push(t0.elapsed().as_secs_f64() * 1e6);
            stats = outcome.stats;
            last = Some(outcome);
        }
        (median_us(&mut walls), last.expect("at least one rep"), stats)
    };
    let (_, ex1_outcome, _) = run1(&SearchConfig::exhaustive(space.clone()));
    let (prefilter_us, pf_outcome, pf_stats) = run1(&SearchConfig::pruned(space));

    if outcome_fingerprint(&pf_outcome) != outcome_fingerprint(&ex1_outcome) {
        eprintln!("FAIL: prefiltered search diverged from exhaustive search at NKI 1");
        eprintln!("  prefiltered: {:?}", outcome_fingerprint(&pf_outcome));
        eprintln!("  exhaustive:  {:?}", outcome_fingerprint(&ex1_outcome));
        std::process::exit(1);
    }
    if pf_stats.collapsed == 0 {
        eprintln!("FAIL: congruence prefilter collapsed nothing on an NKI-1 space");
        std::process::exit(1);
    }

    // Throughput of the production configuration: every generated design
    // point of the acceptance space, over the pruned sweep's wall time.
    let design_points_per_sec = pr_stats.generated as f64 / (pruned_us / 1e6);

    // Costing-loop A/B on the same space: the tree path (a fresh
    // lowering per point, which `bound` then builds an arena over) against
    // the factory path (copy-on-write patch plus SoA bound over a shared
    // base). Steady state on both sides: warm sessions, and the factory
    // bases already lowered. The factory path must be at least 5x the
    // per-point lowering plus arena build — the point of the whole layout
    // change — and the ratio is gated here like the leaderboard contracts
    // above.
    const COST_REPS: usize = 40;
    let mut tree_session = EstimatorSession::new(dev.clone());
    // The filter pass doubles as the tree session's warm-up: keep the
    // points the bound pass accepts (seq-inner shapes are rejected).
    let variants: Vec<Variant> = tytra_transform::enumerate_variants(
        sor.geometry().size(),
        &[1, 2, 4, 8, 16, 32],
        &[1, 2],
        &[tytra_ir::MemForm::A, tytra_ir::MemForm::B],
    )
    .into_iter()
    .filter(|v| sor.lower_variant(v).is_ok_and(|m| tree_session.bound(&m).is_ok()))
    .collect();
    assert!(!variants.is_empty());
    let tree_sweep = |session: &mut EstimatorSession| {
        for v in &variants {
            let m = sor.lower_variant(v).expect("legal variant");
            let _ = session.bound(&m).expect("bound");
        }
    };
    let mut tree_walls = Vec::with_capacity(COST_REPS);
    for _ in 0..COST_REPS {
        let t0 = Instant::now();
        tree_sweep(&mut tree_session);
        tree_walls.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    let factory = sor.variant_factory();
    let mut arena_session = EstimatorSession::new(dev.clone());
    let arena_sweep = |session: &mut EstimatorSession| {
        for v in &variants {
            let d = factory.design(v).expect("legal variant");
            let _ = session.bound_design(&d.patched()).expect("bound");
        }
    };
    arena_sweep(&mut arena_session);
    let mut arena_walls = Vec::with_capacity(COST_REPS);
    for _ in 0..COST_REPS {
        let t0 = Instant::now();
        arena_sweep(&mut arena_session);
        arena_walls.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    let tree_us = median_us(&mut tree_walls);
    let arena_us = median_us(&mut arena_walls);
    let costing_tree_pps = variants.len() as f64 / (tree_us / 1e6);
    let costing_arena_pps = variants.len() as f64 / (arena_us / 1e6);
    let costing_speedup = costing_arena_pps / costing_tree_pps;
    if costing_speedup < 5.0 {
        eprintln!(
            "FAIL: arena costing is only {costing_speedup:.2}x the tree path \
             ({costing_arena_pps:.0} vs {costing_tree_pps:.0} points/s; floor: 5x)"
        );
        std::process::exit(1);
    }

    // Observability overhead: the flight recorder is on by default in
    // production, so its cost on the costing hot path is a contract, not
    // a curiosity. Re-run the arena sweep with one recorder mark per
    // point (the bound pass emits exactly that) with the recorder on vs
    // off, interleaving the reps so drift hits both sides equally. Gated
    // at ≤ 5% median overhead.
    const OBS_REPS: usize = 30;
    let marked_sweep = |session: &mut EstimatorSession| {
        for (i, v) in variants.iter().enumerate() {
            tytra_trace::recorder::mark("dse.bound", i as u64);
            let d = factory.design(v).expect("legal variant");
            let _ = session.bound_design(&d.patched()).expect("bound");
        }
    };
    let recorder_was_on = tytra_trace::recorder::enabled();
    let mut on_walls = Vec::with_capacity(OBS_REPS);
    let mut off_walls = Vec::with_capacity(OBS_REPS);
    for _ in 0..OBS_REPS {
        tytra_trace::recorder::set_enabled(true);
        let t0 = Instant::now();
        marked_sweep(&mut arena_session);
        on_walls.push(t0.elapsed().as_secs_f64() * 1e6);
        tytra_trace::recorder::set_enabled(false);
        let t0 = Instant::now();
        marked_sweep(&mut arena_session);
        off_walls.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    tytra_trace::recorder::set_enabled(recorder_was_on);
    let recorder_on_us = median_us(&mut on_walls);
    let recorder_off_us = median_us(&mut off_walls);
    let observability_overhead_pct = (recorder_on_us - recorder_off_us) / recorder_off_us * 100.0;
    if observability_overhead_pct > 5.0 {
        eprintln!(
            "FAIL: flight recorder adds {observability_overhead_pct:.2}% to the costing sweep \
             ({recorder_on_us:.1} vs {recorder_off_us:.1} µs; budget: 5%)"
        );
        std::process::exit(1);
    }

    // Steady-state allocation budget of the arena costing path. Gated at
    // ≤ 2 heap allocations per variant when the counting allocator is
    // compiled in (`--features alloc-count`); reported as null otherwise.
    let allocs_per_variant = steady_state_allocs_per_variant();
    if let Some(apv) = allocs_per_variant {
        if apv > 2.0 {
            eprintln!(
                "FAIL: steady-state costing allocates {apv:.2} heap blocks per variant \
                 (budget: 2.0)"
            );
            std::process::exit(1);
        }
    }
    let apv_json = allocs_per_variant.map_or_else(|| "null".to_string(), |apv| format!("{apv:.3}"));
    let rss_kb = peak_rss_kb();

    let json = format!(
        "{{\n  \"bench\": \"dse_search_sor16_eval_small\",\n  \"reps\": {DSE_REPS},\n  \
         \"exhaustive_us\": {exhaustive_us:.3},\n  \"pruned_us\": {pruned_us:.3},\n  \
         \"speedup\": {:.3},\n  \"pruned_fraction\": {:.4},\n  \
         \"generated\": {},\n  \"estimated\": {},\n  \
         \"pruned_bound\": {},\n  \"pruned_unfit\": {},\n  \"steal_count\": {},\n  \
         \"prefilter_classes\": {},\n  \"prefilter_collapsed\": {},\n  \
         \"prefilter_estimated\": {},\n  \"prefilter_us\": {prefilter_us:.3},\n  \
         \"design_points_per_sec\": {design_points_per_sec:.1},\n  \
         \"costing_tree_points_per_sec\": {costing_tree_pps:.1},\n  \
         \"costing_arena_points_per_sec\": {costing_arena_pps:.1},\n  \
         \"arena_costing_speedup\": {costing_speedup:.2},\n  \
         \"recorder_on_us\": {recorder_on_us:.3},\n  \
         \"recorder_off_us\": {recorder_off_us:.3},\n  \
         \"observability_overhead_pct\": {observability_overhead_pct:.3},\n  \
         \"peak_rss_kb\": {rss_kb},\n  \"allocs_per_variant\": {apv_json}\n}}\n",
        exhaustive_us / pruned_us,
        pr_stats.pruned_fraction(),
        pr_stats.generated,
        pr_stats.estimated,
        pr_stats.pruned_bound,
        pr_stats.pruned_unfit,
        pr_stats.stolen,
        pf_stats.classes,
        pf_stats.collapsed,
        pf_stats.estimated,
    );
    std::fs::write(out, &json).unwrap_or_else(|e| panic!("write {out}: {e}"));
    println!(
        "dse: exhaustive {exhaustive_us:.1} µs  pruned {pruned_us:.1} µs  speedup {:.2}x  \
         pruned {:.0}%  steals {}",
        exhaustive_us / pruned_us,
        pr_stats.pruned_fraction() * 100.0,
        pr_stats.stolen
    );
    println!(
        "dse prefilter (nki 1): {} classes  {} collapsed  {} estimated  {prefilter_us:.1} µs",
        pf_stats.classes, pf_stats.collapsed, pf_stats.estimated
    );
    println!(
        "dse throughput: {design_points_per_sec:.0} design-points/s  peak RSS {rss_kb} kB  \
         allocs/variant {apv_json}"
    );
    println!(
        "dse costing A/B: tree {costing_tree_pps:.0} pts/s  arena {costing_arena_pps:.0} pts/s  \
         speedup {costing_speedup:.1}x"
    );
    println!(
        "dse observability: recorder on {recorder_on_us:.1} µs  off {recorder_off_us:.1} µs  \
         overhead {observability_overhead_pct:+.2}%"
    );
    println!("wrote {out} (leaderboards identical)");
}

fn main() {
    let out = std::env::args().nth(1).unwrap_or_else(|| "BENCH_estimator.json".to_string());
    let dse_out = std::env::args().nth(2).unwrap_or_else(|| "BENCH_dse.json".to_string());

    let sor = Sor::cubic(48, 10);
    let dev = stratix_v_gsd8();
    let modules: Vec<_> = [1u64, 2, 4, 8]
        .iter()
        .map(|&l| sor.lower_variant(&Variant { lanes: l, ..Variant::baseline() }).expect("lowers"))
        .collect();
    let sweep = |session: &mut EstimatorSession| -> f64 {
        modules.iter().map(|m| session.estimate(m).expect("estimate").throughput.ekit).sum()
    };

    // Cold: a fresh session per sweep — every pass runs for every variant.
    let mut cold = Vec::with_capacity(REPS);
    let mut checksum = 0.0f64;
    for _ in 0..REPS {
        let mut session = EstimatorSession::new(dev.clone());
        let t0 = Instant::now();
        checksum += sweep(&mut session);
        cold.push(t0.elapsed().as_secs_f64() * 1e6);
    }

    // Warm: one session reused — after the first sweep everything replays.
    let mut warm_session = EstimatorSession::new(dev.clone());
    checksum += sweep(&mut warm_session);
    let mut warm = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let t0 = Instant::now();
        checksum += sweep(&mut warm_session);
        warm.push(t0.elapsed().as_secs_f64() * 1e6);
    }

    let cold_us = median_us(&mut cold);
    let warm_us = median_us(&mut warm);
    let stats = warm_session.stats();

    // Per-pass breakdown: trace one cold + one warm sweep through a
    // fresh session and sum span time per estimator pass. Tracing stays
    // off for the timing loops above so they measure the untraced path.
    tytra_trace::set_enabled(true);
    let mut traced_session = EstimatorSession::new(dev.clone());
    checksum += sweep(&mut traced_session);
    checksum += sweep(&mut traced_session);
    tytra_trace::set_enabled(false);
    let mut pass_us: std::collections::BTreeMap<String, f64> = std::collections::BTreeMap::new();
    for rec in tytra_trace::take_records() {
        if rec.name.starts_with("estimator.") && rec.name != "estimator.estimate" {
            *pass_us.entry(rec.name).or_insert(0.0) += rec.dur_ns as f64 / 1e3;
        }
    }
    let pass_json = pass_us
        .iter()
        .map(|(name, us)| format!("    \"{name}\": {us:.3}"))
        .collect::<Vec<_>>()
        .join(",\n");

    let json = format!(
        "{{\n  \"bench\": \"session_sweep_sor48_lanes_1_2_4_8\",\n  \"reps\": {REPS},\n  \
         \"cold_us\": {cold_us:.3},\n  \"warm_us\": {warm_us:.3},\n  \
         \"speedup\": {:.3},\n  \"hit_rate\": {:.4},\n  \"pass_us\": {{\n{pass_json}\n  }}\n}}\n",
        cold_us / warm_us,
        stats.hit_rate(),
    );
    std::fs::write(&out, &json).unwrap_or_else(|e| panic!("write {out}: {e}"));
    println!(
        "cold {cold_us:.1} µs  warm {warm_us:.1} µs  speedup {:.2}x  hit rate {:.1}%",
        cold_us / warm_us,
        stats.hit_rate() * 100.0
    );
    println!("wrote {out} (checksum {checksum:.1})");

    bench_dse(&dse_out);
}
