//! # tytra-dse — design-space exploration
//!
//! The use-case the cost model exists for (paper §I): "a compiler that
//! automatically creates and evaluates design variants for an HPC
//! kernel". This crate drives it:
//!
//! * [`search()`][search::search] — the DSE engine: generate the legal
//!   variants of a kernel by type transformation and cost every one of
//!   them, in generation order. The leaderboard's first entry is the
//!   guided-optimisation choice: the fastest EKIT among variants that
//!   fit the device;
//! * [`lane_sweep`] — the Fig 15 experiment: utilisation per resource,
//!   throughput and wall identification as lanes scale;
//! * [`tune`] — the feedback loop the paper's bottleneck output enables:
//!   repeatedly relax the binding wall until no move helps.
//!
//! The sweep, the search and the tuning loop each have a `…_with` form
//! ([`lane_sweep_with`], [`search_with`], [`tune_with`]) taking a shared
//! [`VariantFactory`][tytra_transform::VariantFactory] and estimator
//! session, so a driver that runs all three (`tybec dse`) lowers and
//! validates each design once and costs it through one set of memo
//! tables.

pub mod report;
pub mod roofline;
pub mod search;
pub mod tuning;

pub use report::{
    lane_sweep, lane_sweep_session, lane_sweep_with, render_latency_stats_line,
    render_search_leaderboard, render_search_stats_line, render_stats_line, LaneSweepRow,
};
pub use roofline::{roofline, RooflinePoint};
pub use search::{
    search, search_with, EvaluatedVariant, ExplorationConfig, InvalidVariant, SearchConfig,
    SearchOutcome, SearchStats,
};
pub use tuning::{tune, tune_session, tune_with, TuningStep};
