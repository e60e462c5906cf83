//! tytra-analyze: a monotone dataflow framework over TyTra-IR.
//!
//! The crate is split into a small generic core and a catalogue of
//! concrete analyses built on it:
//!
//! - [`lattice`] — the [`Lattice`] trait (bottom + join) and the
//!   [`Interval`] value-range domain, plus stock impls for `bool`
//!   (reachability) and `BTreeSet` (flow sets).
//! - [`solver`] — the worklist fixpoint engine [`solve`], per-function
//!   effect summaries ([`FnSummary`] / [`summaries`]) and call-graph
//!   reachability ([`reachable`]).
//! - [`range`] — value-range / constant propagation over function
//!   bodies, stencil-offset windows, and the TL1007 clamp findings.
//! - [`deadlock`] — stream dependence: which memories flow into which
//!   functions, and the TL1008 read↔write self-cycle findings.
//! - [`congruence`] — structural cost-congruence: the class key under
//!   which two designs provably receive the same cost report
//!   ([`cost_class_key`], [`congruent`]).
//! - [`report`] — [`analyze_module`] runs the whole catalogue and the
//!   [`AnalysisReport`] renders it as text or strict JSON for
//!   `tybec analyze`.
//!
//! Soundness arguments live next to the code they justify: interval
//! widening in `range`, the bit-identical replication proof in
//! `congruence`. `docs/analysis.md` gives the prose version.

#![warn(clippy::pedantic)]
// Pedantic lints we deliberately opt out of, crate-wide:
// readable casts between index/counter types dominate the solver,
#![allow(clippy::cast_possible_truncation)]
#![allow(clippy::cast_precision_loss)]
#![allow(clippy::cast_possible_wrap)]
#![allow(clippy::cast_sign_loss)]
// prose module docs trip the backtick heuristic on IR terms,
#![allow(clippy::doc_markdown)]
// long fixpoint routines read better unsplit,
#![allow(clippy::too_many_lines)]
// and `match` arms over lattice elements are clearer unnested.
#![allow(clippy::match_same_arms)]
#![allow(clippy::module_name_repetitions)]
#![allow(clippy::must_use_candidate)]
#![allow(clippy::missing_panics_doc)]
#![allow(clippy::return_self_not_must_use)]
// The arena call-graph builder indexes two parallel edge vectors
// (preds/succs) by the same dense function id; a range loop states
// that symmetry better than enumerate over either one.
#![allow(clippy::needless_range_loop)]

pub mod congruence;
pub mod deadlock;
pub mod lattice;
pub mod range;
pub mod report;
pub mod solver;

pub use congruence::{analyze_congruence, canonicalize, congruent, cost_class_key, CongruenceInfo};
pub use deadlock::{analyze_deadlock, CycleFinding, DeadlockAnalysis};
pub use lattice::{Interval, Lattice};
pub use range::{analyze_ranges, ClampFinding, FnRanges, RangeAnalysis, WIDEN_AFTER};
pub use report::{analyze_module, AnalysisReport};
pub use solver::{reachable, solve, summaries, FnSummary, SolverStats};
