//! # tytra-cost — the TyTra cost model
//!
//! This crate is the paper's primary contribution (section V): a fast,
//! light-weight cost model that takes a design variant expressed in
//! TyTra-IR plus a target description and emits
//!
//! * **resource estimates** (ALUTs / registers / BRAM bits / DSPs) —
//!   accumulated from calibrated per-instruction expressions and the
//!   structural logic the IR implies (offset buffers, delay lines, stream
//!   control) — [`resource`];
//! * a **clock estimate** `FD` from per-stage combinational delays and a
//!   congestion derating — [`frequency`];
//! * **sustained-bandwidth estimates** per stream and the aggregate
//!   scaling factors ρ_H / ρ_G — [`bandwidth`];
//! * the **EKIT throughput estimate** (Effective Kernel-Instance
//!   Throughput), Equations 1–3, one per memory-execution form —
//!   [`throughput`];
//! * the **performance-limiting parameter** (which wall binds: host
//!   bandwidth, DRAM bandwidth, compute, or fill overheads) —
//!   [`bottleneck`] — "allowing targeted optimization and opening the
//!   route to a feedback path with automated, targeted tuning".
//!
//! Internally the model is organised as an explicit **pass pipeline**
//! (validate → configure → schedule → parameters → resources → clock →
//! bandwidth → throughput/power) driven by an [`EstimatorSession`]: a
//! long-lived handle that memoizes per-function and per-stream
//! sub-results under stable structural fingerprints so DSE sweeps cost
//! thousands of related variants without redoing shared work — see
//! [`session`] and `docs/estimator-internals.md`.
//!
//! The one-shot entry point is [`estimate()`][estimate::estimate]:
//!
//! ```
//! use tytra_ir::parse;
//! use tytra_device::stratix_v_gsd8;
//!
//! let src = r#"
//! !module = !"double"
//! !ndrange = !{4096}
//! !nki = !1
//! !form = !"B"
//! %mem_x = memobj addrSpace(1) ui32, !size, !4096
//! %strobj_x = streamobj %mem_x, !read, !"CONT"
//! @main.x = addrSpace(12) ui32, !"istream", !"CONT", !0, !"strobj_x"
//! %mem_y = memobj addrSpace(1) ui32, !size, !4096
//! %strobj_y = streamobj %mem_y, !write, !"CONT"
//! @main.y = addrSpace(12) ui32, !"ostream", !"CONT", !0, !"strobj_y"
//! define void @f0(ui32 %x, out ui32 %y) pipe {
//!   ui32 %t = mul ui32 %x, 2
//!   ui32 %y__out = or ui32 %t, 0
//! }
//! define void @main() {
//!   call @f0(%x, %y) pipe
//! }
//! "#;
//! let m = parse(src).unwrap();
//! let report = tytra_cost::estimate(&m, &stratix_v_gsd8()).unwrap();
//! assert!(report.resources.total.aluts > 0);
//! assert!(report.throughput.ekit > 0.0);
//! ```

pub mod bandwidth;
pub mod bottleneck;
pub mod bound;
pub mod estimate;
pub mod frequency;
pub mod options;
pub mod params;
pub mod reconfig;
pub mod report;
pub mod resource;
pub mod schedule;
pub mod session;
pub mod throughput;

pub use bandwidth::{BandwidthBreakdown, LaneStreams, StreamBandwidth};
pub use bottleneck::Limiter;
pub use bound::CostBound;
pub use estimate::{estimate, estimate_with};
pub use options::CostOptions;
pub use params::CostParams;
pub use reconfig::{plan as reconfig_plan, ReconfigPlan};
pub use report::CostReport;
pub use resource::{ResourceBreakdown, ResourceEstimate};
pub use schedule::PipelineSchedule;
pub use session::{EstimatorSession, SessionStats};
pub use throughput::ThroughputEstimate;
