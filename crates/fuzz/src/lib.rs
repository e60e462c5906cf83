//! # tytra-fuzz
//!
//! Deterministic differential fuzzing for the TyTra pipeline.
//!
//! The repo owns both the fast cost model (`tytra-cost`) and its ground
//! truth (`tytra-sim`'s virtual toolchain + cycle simulator), which
//! makes differential testing cheap: generate designs, run both sides,
//! and flag any panic, disagreement beyond tolerance, or non-finite
//! metric. Seven oracles (see [`oracle`]):
//!
//! 1. **Round-trip** — parse → print → reparse fixed point; malformed
//!    input must produce a structured error, never a panic.
//! 2. **Estimator vs simulator** — agreement within
//!    [`ToleranceBands`] on valid designs.
//! 3. **Search equivalence** — the search's leaderboard and infeasible
//!    set against lowering and estimating every variant one by one, for
//!    random space shapes and board sizes.
//! 4. **Session determinism** — warm (memoized) vs cold
//!    `EstimatorSession` bit-identity.
//! 5. **Analyze congruence** — `analyze_module` is total and
//!    deterministic, and congruence-classed A/B siblings produce
//!    bit-identical cost reports (the congruence key's soundness
//!    contract).
//! 6. **Arena equivalence** — an arena's patches materialize and cost
//!    (`estimate_design`/`bound_design`) bit-identically to the tree on
//!    any module and any copy-on-write patch.
//! 7. **Serve equivalence** — the in-process `tybec serve` round-trip
//!    (parse → prepare → cache → guarded compute → render) answers
//!    byte-identically to the direct estimate, cold and cache-replayed
//!    alike, and served errors keep the direct path's category.
//!
//! Everything is derived from `(seed, case_id)` — see [`gen::TirlGen`]
//! and [`harness::run_case`] — so every corpus entry replays exactly.
//! The `fuzz_smoke` binary runs a fixed-seed budget and emits
//! `BENCH_fuzz.json`, making robustness a tracked artifact like perf.

pub mod corpus;
pub mod gen;
pub mod harness;
pub mod oracle;

pub use corpus::{minimize, write_corpus, CorpusEntry};
pub use gen::TirlGen;
pub use harness::{replay_source, run, run_case, CaseResult, FuzzConfig, FuzzReport, OracleKind};
pub use oracle::{ToleranceBands, Verdict};
