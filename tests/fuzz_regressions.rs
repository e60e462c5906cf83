//! Replay the checked-in fuzz crash corpus (`tests/fuzz_regressions/`)
//! through the differential oracles, plus a fixed slice of the CI smoke
//! campaign, so every crasher found (and fixed) stays fixed.
//!
//! File-based fixtures replay through the three file-input oracles
//! (round-trip, estimator-vs-sim, session determinism); the search
//! oracle has no file input, so it replays from recorded seeds.

use std::fs;
use std::path::PathBuf;
use tytra_fuzz::{harness, oracle, replay_source, run_case, TirlGen, ToleranceBands, Verdict};

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fuzz_regressions")
}

fn corpus_files() -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = fs::read_dir(corpus_dir())
        .expect("tests/fuzz_regressions exists")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "tirl"))
        .collect();
    files.sort();
    files
}

#[test]
fn corpus_is_nonempty_and_seeded() {
    let files = corpus_files();
    assert!(files.len() >= 5, "expected at least 5 fixtures, got {}", files.len());
    for f in &files {
        let text = fs::read_to_string(f).unwrap();
        assert!(
            text.starts_with("; tytra-fuzz crasher"),
            "{} lacks the corpus metadata header",
            f.display()
        );
        assert!(text.contains("; seed:"), "{} lacks a seed record", f.display());
    }
}

#[test]
fn corpus_replays_clean_through_file_oracles() {
    let bands = ToleranceBands::default();
    for f in corpus_files() {
        let src = fs::read_to_string(&f).unwrap();
        let verdicts = replay_source(&src, &bands);
        assert!(!verdicts.is_empty(), "{}: no oracle ran", f.display());
        for (kind, v) in verdicts {
            assert!(!v.is_failure(), "{} regressed under {:?}: {:?}", f.display(), kind, v);
        }
    }
}

#[test]
fn min_valid_fixture_reaches_the_semantic_oracles() {
    // The canary fixture must actually parse and validate, so the
    // estimator/simulator/session/analyze oracles run on it — if it
    // ever stops validating, the corpus silently loses its semantic
    // coverage.
    let src =
        fs::read_to_string(corpus_dir().join("case_12648430_84_min_valid_pipe.tirl")).unwrap();
    let verdicts = replay_source(&src, &ToleranceBands::default());
    assert_eq!(verdicts.len(), 6, "expected all six file oracles to run: {verdicts:?}");
}

#[test]
fn corpus_fixtures_survive_the_arena_builder() {
    // Every fixture that parses (validated or not) must build an arena
    // whose identity patch materializes exactly as the tree — historical
    // crashers are the best stress inputs for the arena's precomputed
    // geometry and plan (empty bodies, odd call shapes).
    let mut flattened = 0;
    for f in corpus_files() {
        let src = fs::read_to_string(&f).unwrap();
        let Ok(m) = tytra_ir::parse_unvalidated(&src) else { continue };
        let arena = tytra_ir::ArenaModule::build(m.clone());
        assert_eq!(arena.identity().materialize(), m, "{}: arena round-trip drift", f.display());
        flattened += 1;
    }
    assert!(flattened > 0, "no corpus fixture parsed; the arena replay checks nothing");
}

#[test]
fn search_equivalence_replays_from_recorded_seeds() {
    // The search oracle, replayed from the seeds the smoke run uses.
    for seed in [12648430u64, 0xDEAD_BEEF] {
        let mut g = TirlGen::new(seed);
        let v = oracle::search_equivalence(&mut g);
        assert_eq!(v, Verdict::Pass, "seed {seed}: {v:?}");
    }
}

#[test]
fn smoke_campaign_prefix_stays_clean() {
    // The first 128 cases of the exact CI configuration: covers every
    // oracle slot on the scheduling wheel at least once.
    let bands = ToleranceBands::default();
    for case_id in 0..128 {
        let r = run_case(12648430, case_id, &bands);
        assert!(!r.verdict.is_failure(), "case {case_id} [{}]: {:?}", r.oracle.label(), r.verdict);
    }
}

#[test]
fn campaign_counters_add_up() {
    let cfg = harness::FuzzConfig {
        seed: 12648430,
        cases: 96,
        bands: ToleranceBands::default(),
        corpus_dir: None,
    };
    let r = harness::run(&cfg);
    assert_eq!(r.cases, 96);
    assert_eq!(r.passes + r.skips + r.failures(), r.cases);
    let by_oracle_runs: u64 = r.by_oracle.values().map(|(runs, _)| runs).sum();
    assert_eq!(by_oracle_runs, r.cases);
}
