//! The differential harness: deterministic case scheduling, panic
//! containment, verdict bookkeeping and corpus output.
//!
//! Every case is derived from `(seed, case_id)` alone, so any failure
//! replays exactly from the two numbers recorded in its corpus entry.

use crate::corpus::{self, CorpusEntry};
use crate::gen::TirlGen;
use crate::oracle::{self, ToleranceBands, Verdict};
use std::collections::BTreeMap;
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use tytra_trace::recorder;

/// Harness configuration.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Master seed; `(seed, case_id)` determines a case completely.
    pub seed: u64,
    /// Number of cases to run.
    pub cases: u64,
    /// Agreement bands for the estimator-vs-sim oracle.
    pub bands: ToleranceBands,
    /// Where to write minimized crashers (`None` = keep in memory only).
    pub corpus_dir: Option<PathBuf>,
}

impl FuzzConfig {
    /// The fixed-seed smoke configuration used by CI (2,000 cases).
    pub fn smoke() -> FuzzConfig {
        FuzzConfig {
            seed: 0x00C0_FFEE,
            cases: 2000,
            bands: ToleranceBands::default(),
            corpus_dir: None,
        }
    }
}

/// The oracle a case was routed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OracleKind {
    /// Parse → print → reparse on a mutated source.
    RoundtripMutated,
    /// Parse → print → reparse on a clean printed module.
    RoundtripClean,
    /// Estimator vs virtual toolchain + cycle simulator.
    EstimatorVsSim,
    /// Warm-vs-cold `EstimatorSession` bit-identity.
    SessionDeterminism,
    /// Arena patches vs tree: materialization and the
    /// `estimate_design`/`bound_design` passes must be bit-identical.
    ArenaEquivalence,
    /// `analyze_module` totality plus congruence-key soundness.
    AnalyzeCongruence,
    /// Pruned vs exhaustive search leaderboard bit-identity.
    SearchEquivalence,
    /// In-process `tybec serve` round-trip vs the direct estimate:
    /// served payloads (cold and cache-replayed) must be byte-identical
    /// to the offline rendering, and served errors must carry the
    /// direct path's category.
    ServeEquivalence,
}

impl OracleKind {
    /// Stable label used in JSON and corpus file names.
    pub fn label(self) -> &'static str {
        match self {
            OracleKind::RoundtripMutated => "roundtrip-mutated",
            OracleKind::RoundtripClean => "roundtrip-clean",
            OracleKind::EstimatorVsSim => "estimator-vs-sim",
            OracleKind::SessionDeterminism => "session-determinism",
            OracleKind::ArenaEquivalence => "arena-equivalence",
            OracleKind::AnalyzeCongruence => "analyze-congruence",
            OracleKind::SearchEquivalence => "search-equivalence",
            OracleKind::ServeEquivalence => "serve-equivalence",
        }
    }

    /// Deterministic routing: a 32-slot wheel weighted toward the cheap
    /// parser oracle, with the expensive double-search oracle on one
    /// slot.
    pub fn for_case(case_id: u64) -> OracleKind {
        match case_id % 32 {
            0..=15 => OracleKind::RoundtripMutated,
            16..=19 => OracleKind::RoundtripClean,
            20..=25 => OracleKind::EstimatorVsSim,
            26..=27 => OracleKind::SessionDeterminism,
            28 => OracleKind::ServeEquivalence,
            29 => OracleKind::ArenaEquivalence,
            30 => OracleKind::AnalyzeCongruence,
            _ => OracleKind::SearchEquivalence,
        }
    }
}

/// The result of one case.
#[derive(Debug, Clone)]
pub struct CaseResult {
    /// Case index under the harness seed.
    pub case_id: u64,
    /// Which oracle ran.
    pub oracle: OracleKind,
    /// What it concluded.
    pub verdict: Verdict,
    /// The TIRL source under test, for oracles that have one.
    pub source: Option<String>,
    /// Post-mortem flight-recorder dump of the harness thread, captured
    /// at classification time for `Panic`/`Disagreement`/`NonFinite`
    /// verdicts (the always-on recorder means the caught panic's last
    /// breadcrumbs are still in the ring). `None` for passing cases.
    pub flight_dump: Option<String>,
}

/// Aggregated counters plus the retained failures.
#[derive(Debug, Default)]
pub struct FuzzReport {
    /// Cases executed.
    pub cases: u64,
    /// Cases whose property held.
    pub passes: u64,
    /// Cases the oracle could not check.
    pub skips: u64,
    /// Panics that escaped the pipeline.
    pub panics: u64,
    /// Cross-implementation disagreements.
    pub disagreements: u64,
    /// NaN/infinity leaks.
    pub non_finite: u64,
    /// Per-oracle `(runs, failures)`.
    pub by_oracle: BTreeMap<&'static str, (u64, u64)>,
    /// Every failing case, minimized where possible.
    pub crashes: Vec<CaseResult>,
    /// Corpus files written (when `corpus_dir` was set).
    pub corpus_written: usize,
}

impl FuzzReport {
    /// Total failing cases.
    pub fn failures(&self) -> u64 {
        self.panics + self.disagreements + self.non_finite
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Derive the per-case generator. Mixing with a large odd constant keeps
/// neighbouring case streams decorrelated under xoshiro seeding.
fn case_gen(seed: u64, case_id: u64) -> TirlGen {
    TirlGen::new(seed ^ case_id.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Finish a case: failing verdicts (the Panic/Disagreement/NonFinite
/// classifications) are shipped with a post-mortem dump of this thread's
/// flight-recorder lane, whose tail is the case's own breadcrumb trail.
fn finish_case(
    case_id: u64,
    oracle: OracleKind,
    verdict: Verdict,
    source: Option<String>,
) -> CaseResult {
    let flight_dump = if verdict.is_failure() {
        recorder::dump_current_thread().map(|lane| recorder::render_dump(&[lane]))
    } else {
        None
    };
    CaseResult { case_id, oracle, verdict, source, flight_dump }
}

/// Run one case to a verdict, catching any panic the pipeline leaks.
/// Deterministic in `(seed, case_id, bands)`.
pub fn run_case(seed: u64, case_id: u64, bands: &ToleranceBands) -> CaseResult {
    let oracle = OracleKind::for_case(case_id);
    // Breadcrumb before any pipeline work: if the case panics, the
    // post-mortem lane names the case that died.
    recorder::mark("fuzz.case", case_id);
    let mut g = case_gen(seed, case_id);
    // Materialize the input *outside* catch_unwind where possible so a
    // generator bug is distinguishable from a pipeline bug; sources are
    // plain text and always survive.
    let (verdict, source) = match oracle {
        OracleKind::RoundtripMutated | OracleKind::RoundtripClean => {
            let src = if oracle == OracleKind::RoundtripMutated {
                g.mutated_source()
            } else {
                g.valid_source()
            };
            let v = panic::catch_unwind(AssertUnwindSafe(|| oracle::roundtrip(&src)))
                .unwrap_or_else(|p| Verdict::Panic(panic_message(p.as_ref())));
            (v, Some(src))
        }
        OracleKind::EstimatorVsSim => {
            let m = g.valid_module();
            let src = tytra_ir::print(&m);
            let dev = tytra_device::stratix_v_gsd8();
            let v =
                panic::catch_unwind(AssertUnwindSafe(|| oracle::estimator_vs_sim(&m, &dev, bands)))
                    .unwrap_or_else(|p| Verdict::Panic(panic_message(p.as_ref())));
            (v, Some(src))
        }
        OracleKind::SessionDeterminism => {
            let m = g.valid_module();
            let src = tytra_ir::print(&m);
            let dev = tytra_device::eval_small();
            let v = panic::catch_unwind(AssertUnwindSafe(|| oracle::session_determinism(&m, &dev)))
                .unwrap_or_else(|p| Verdict::Panic(panic_message(p.as_ref())));
            (v, Some(src))
        }
        OracleKind::ArenaEquivalence => {
            let m = g.valid_module();
            let src = tytra_ir::print(&m);
            let dev = tytra_device::eval_small();
            let v = panic::catch_unwind(AssertUnwindSafe(|| oracle::arena_equivalence(&m, &dev)))
                .unwrap_or_else(|p| Verdict::Panic(panic_message(p.as_ref())));
            (v, Some(src))
        }
        OracleKind::AnalyzeCongruence => {
            let m = g.valid_module();
            let src = tytra_ir::print(&m);
            let dev = tytra_device::eval_small();
            let v = panic::catch_unwind(AssertUnwindSafe(|| oracle::analyze_congruence(&m, &dev)))
                .unwrap_or_else(|p| Verdict::Panic(panic_message(p.as_ref())));
            (v, Some(src))
        }
        OracleKind::SearchEquivalence => {
            let v = panic::catch_unwind(AssertUnwindSafe(|| oracle::search_equivalence(&mut g)))
                .unwrap_or_else(|p| Verdict::Panic(panic_message(p.as_ref())));
            (v, None)
        }
        OracleKind::ServeEquivalence => {
            let m = g.valid_module();
            let src = tytra_ir::print(&m);
            let v = panic::catch_unwind(AssertUnwindSafe(|| oracle::serve_equivalence(&m)))
                .unwrap_or_else(|p| Verdict::Panic(panic_message(p.as_ref())));
            (v, Some(src))
        }
    };
    finish_case(case_id, oracle, verdict, source)
}

/// Re-run the oracle of a failing case on candidate source text; used as
/// the minimizer's reproduction predicate. Only text-carrying oracles
/// can be minimized this way.
fn reproduces(case: &CaseResult, bands: &ToleranceBands, candidate: &str) -> bool {
    let verdict = match case.oracle {
        OracleKind::RoundtripMutated | OracleKind::RoundtripClean => {
            panic::catch_unwind(AssertUnwindSafe(|| oracle::roundtrip(candidate)))
                .unwrap_or_else(|p| Verdict::Panic(panic_message(p.as_ref())))
        }
        OracleKind::EstimatorVsSim
        | OracleKind::SessionDeterminism
        | OracleKind::ArenaEquivalence
        | OracleKind::AnalyzeCongruence
        | OracleKind::ServeEquivalence => {
            let m = match tytra_ir::parse(candidate) {
                Ok(m) => m,
                Err(_) => return false,
            };
            let run = || match case.oracle {
                OracleKind::EstimatorVsSim => {
                    oracle::estimator_vs_sim(&m, &tytra_device::stratix_v_gsd8(), bands)
                }
                OracleKind::ArenaEquivalence => {
                    oracle::arena_equivalence(&m, &tytra_device::eval_small())
                }
                OracleKind::AnalyzeCongruence => {
                    oracle::analyze_congruence(&m, &tytra_device::eval_small())
                }
                OracleKind::ServeEquivalence => oracle::serve_equivalence(&m),
                _ => oracle::session_determinism(&m, &tytra_device::eval_small()),
            };
            panic::catch_unwind(AssertUnwindSafe(run))
                .unwrap_or_else(|p| Verdict::Panic(panic_message(p.as_ref())))
        }
        OracleKind::SearchEquivalence => return false,
    };
    verdict.label() == case.verdict.label()
}

/// Run the full configured campaign. Installs a quiet panic hook for the
/// duration (expected panics would otherwise spam stderr), restoring the
/// previous hook before returning.
pub fn run(cfg: &FuzzConfig) -> FuzzReport {
    let prev_hook = panic::take_hook();
    panic::set_hook(Box::new(|_| {}));
    let mut report = FuzzReport::default();
    for case_id in 0..cfg.cases {
        let mut case = run_case(cfg.seed, case_id, &cfg.bands);
        report.cases += 1;
        let slot = report.by_oracle.entry(case.oracle.label()).or_insert((0, 0));
        slot.0 += 1;
        match &case.verdict {
            Verdict::Pass => report.passes += 1,
            Verdict::Skip(_) => report.skips += 1,
            Verdict::Panic(_) => report.panics += 1,
            Verdict::Disagreement(_) => report.disagreements += 1,
            Verdict::NonFinite(_) => report.non_finite += 1,
        }
        if case.verdict.is_failure() {
            slot.1 += 1;
            if let Some(src) = &case.source {
                case.source = Some(corpus::minimize(src, |candidate| {
                    reproduces(&case, &cfg.bands, candidate)
                }));
            }
            report.crashes.push(case);
        }
    }
    panic::set_hook(prev_hook);

    if let Some(dir) = &cfg.corpus_dir {
        let entries: Vec<CorpusEntry> = report
            .crashes
            .iter()
            .map(|c| CorpusEntry {
                seed: cfg.seed,
                case_id: c.case_id,
                oracle: c.oracle.label(),
                verdict: c.verdict.clone(),
                source: c.source.clone(),
                flight_dump: c.flight_dump.clone(),
            })
            .collect();
        if let Ok(paths) = corpus::write_corpus(dir, &entries) {
            report.corpus_written = paths.len();
        }
    }
    report
}

/// Replay a corpus fixture (or any TIRL source) through every oracle
/// that accepts file input: round-trip always; estimator-vs-sim,
/// session determinism, arena equivalence, analyze-congruence and
/// serve-equivalence when the source parses and validates. Returns
/// the per-oracle verdicts. Search equivalence has no file input; the
/// regression test replays it separately from recorded seeds.
pub fn replay_source(src: &str, bands: &ToleranceBands) -> Vec<(OracleKind, Verdict)> {
    let prev_hook = panic::take_hook();
    panic::set_hook(Box::new(|_| {}));
    let mut out = Vec::new();
    let v = panic::catch_unwind(AssertUnwindSafe(|| oracle::roundtrip(src)))
        .unwrap_or_else(|p| Verdict::Panic(panic_message(p.as_ref())));
    out.push((OracleKind::RoundtripClean, v));
    if let Ok(m) = tytra_ir::parse(src) {
        let dev = tytra_device::stratix_v_gsd8();
        let v = panic::catch_unwind(AssertUnwindSafe(|| oracle::estimator_vs_sim(&m, &dev, bands)))
            .unwrap_or_else(|p| Verdict::Panic(panic_message(p.as_ref())));
        out.push((OracleKind::EstimatorVsSim, v));
        let dev = tytra_device::eval_small();
        let v = panic::catch_unwind(AssertUnwindSafe(|| oracle::session_determinism(&m, &dev)))
            .unwrap_or_else(|p| Verdict::Panic(panic_message(p.as_ref())));
        out.push((OracleKind::SessionDeterminism, v));
        let v = panic::catch_unwind(AssertUnwindSafe(|| oracle::arena_equivalence(&m, &dev)))
            .unwrap_or_else(|p| Verdict::Panic(panic_message(p.as_ref())));
        out.push((OracleKind::ArenaEquivalence, v));
        let v = panic::catch_unwind(AssertUnwindSafe(|| oracle::analyze_congruence(&m, &dev)))
            .unwrap_or_else(|p| Verdict::Panic(panic_message(p.as_ref())));
        out.push((OracleKind::AnalyzeCongruence, v));
        let v = panic::catch_unwind(AssertUnwindSafe(|| oracle::serve_equivalence(&m)))
            .unwrap_or_else(|p| Verdict::Panic(panic_message(p.as_ref())));
        out.push((OracleKind::ServeEquivalence, v));
    }
    panic::set_hook(prev_hook);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_results_are_deterministic() {
        let bands = ToleranceBands::default();
        for id in 0..40 {
            let a = run_case(11, id, &bands);
            let b = run_case(11, id, &bands);
            assert_eq!(a.verdict, b.verdict, "case {id}");
            assert_eq!(a.source, b.source, "case {id}");
        }
    }

    #[test]
    fn the_wheel_covers_every_oracle() {
        let kinds: std::collections::BTreeSet<&str> =
            (0..32).map(|i| OracleKind::for_case(i).label()).collect();
        assert_eq!(kinds.len(), 8);
    }

    #[test]
    fn a_small_campaign_is_clean() {
        let cfg = FuzzConfig { cases: 64, ..FuzzConfig::smoke() };
        let r = run(&cfg);
        assert_eq!(r.cases, 64);
        assert_eq!(r.failures(), 0, "crashes: {:?}", r.crashes);
        assert!(r.passes > 0);
    }

    #[test]
    fn panic_verdicts_attach_post_mortem_dumps() {
        // The classification path itself: a case that dies mid-pipeline
        // leaves its breadcrumb in the ring, and finish_case ships the
        // lane with the Panic verdict.
        recorder::mark("fuzz.case", 42);
        let prev = panic::take_hook();
        panic::set_hook(Box::new(|_| {}));
        let verdict = panic::catch_unwind(|| panic!("pipeline died"))
            .map(|()| Verdict::Pass)
            .unwrap_or_else(|p| Verdict::Panic(panic_message(p.as_ref())));
        panic::set_hook(prev);
        let case = finish_case(42, OracleKind::RoundtripClean, verdict, None);
        let dump = case.flight_dump.expect("panic case must carry a dump");
        assert!(dump.contains("== flight recorder =="), "{dump}");
        assert!(dump.contains("fuzz.case"), "{dump}");
        assert!(dump.contains("detail=42"), "{dump}");

        // Passing cases stay lean: no dump captured.
        let ok = finish_case(43, OracleKind::RoundtripClean, Verdict::Pass, None);
        assert!(ok.flight_dump.is_none());
    }

    #[test]
    fn failing_campaigns_write_flight_companions_into_the_corpus() {
        // Zero-width tolerance bands force estimator-vs-sim
        // disagreements deterministically, driving the whole
        // failure path: dump capture, corpus write, companion files.
        let dir = std::env::temp_dir().join("tytra_fuzz_harness_flight_test");
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = FuzzConfig {
            seed: 5,
            cases: 64,
            bands: ToleranceBands {
                cpki_rel: 0.0,
                resource_factor: 1.0,
                resource_slack: 0,
                clock_factor: 1.0,
            },
            corpus_dir: Some(dir.clone()),
        };
        let r = run(&cfg);
        assert!(r.disagreements > 0, "zero bands must disagree: {r:?}");
        for c in &r.crashes {
            let dump = c
                .flight_dump
                .as_deref()
                .unwrap_or_else(|| panic!("failing case {} has no flight dump", c.case_id));
            assert!(dump.contains("fuzz.case"), "{dump}");
        }
        assert_eq!(r.corpus_written, r.crashes.len());
        let companions = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".flight.txt"))
            .count();
        assert_eq!(companions, r.crashes.len(), "every crasher ships its post-mortem");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_runs_semantic_oracles_on_valid_sources() {
        let mut g = TirlGen::new(21);
        let src = g.valid_source();
        let verdicts = replay_source(&src, &ToleranceBands::default());
        assert_eq!(verdicts.len(), 6);
        assert!(verdicts.iter().all(|(_, v)| !v.is_failure()), "{verdicts:?}");
    }
}
