//! # tytra-device
//!
//! FPGA target descriptions and the empirical calibration data the TyTra
//! cost model consumes (paper Fig 2: "a one-time set of benchmark
//! experiments are carried out for each FPGA target; the cost model
//! requires target description and the IR for the design").
//!
//! The crate provides:
//!
//! * [`ResourceVector`] — the four resource axes the paper reports
//!   (ALUTs, registers, block-RAM bits, DSP elements);
//! * [`interp`] — the fitting machinery of section V-A: least-squares
//!   polynomial fits (the `x² + 3.7x − 10.6` trend line for integer
//!   division) and piece-wise-linear tables (multiplier ALUTs/DSPs);
//! * [`OpCostModel`] — per-instruction resource/latency/stage-delay
//!   curves, fitted at construction from a small set of benchmark points
//!   exactly as the paper derives them from three synthesis runs;
//! * [`BandwidthModel`] — the sustained-bandwidth empirical model of
//!   section V-C (Fig 10): contiguity and stream size → sustained Gbps;
//! * [`PowerModel`] — static + activity-proportional dynamic power, used
//!   by the Fig 18 energy comparison;
//! * [`TargetDevice`] and [`library`] — concrete targets: the Maxeler
//!   Maia DFE's Stratix-V GSD8, the Alpha-Data ADM-PCIE-7V3's Virtex-7,
//!   and a small evaluation target for the Fig 15 lane sweep, looked up
//!   by name with [`target_by_name`].
//!
//! The cost passes evaluate these models directly, unmemoized: each
//! per-instruction fit is a `match` and a few flops, and each
//! sustained-bandwidth lookup a binary search over at most 12
//! breakpoints.

pub mod bandwidth;
pub mod calibration;
pub mod interp;
pub mod library;
pub mod power;
pub mod resources;
pub mod target;

pub use bandwidth::BandwidthModel;
pub use calibration::OpCostModel;
pub use interp::{PiecewiseLinear, PolyFit};
pub use library::{
    eval_small, stratix_v_gsd8, target_by_name, virtex7_adm7v3, TargetFn, DEFAULT_TARGET,
};
pub use power::PowerModel;
pub use resources::ResourceVector;
pub use target::{LinkSpec, TargetDevice};
