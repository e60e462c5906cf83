//! # TyTra-IR
//!
//! The TyTra intermediate representation: a strongly, statically typed,
//! SSA-based streaming-dataflow IR for expressing FPGA design variants, as
//! described in section IV of Nabi & Vanderbauwhede, *"A Fast and Accurate
//! Cost Model for FPGA Design Space Exploration in HPC Applications"*
//! (IPDPSW 2016).
//!
//! A TyTra-IR design has two components:
//!
//! * the **Manage-IR** — [`MemObject`]s (anything that can source or sink a
//!   stream; in software terms, an array in memory) and [`StreamObject`]s
//!   (the connection between a memory object and a streaming port of a
//!   processing element, carrying an access-pattern annotation), plus the
//!   port declarations that bind streams to kernel arguments;
//! * the **Compute-IR** — a hierarchy of [`IrFunction`]s, each tagged with a
//!   parallelism keyword ([`ParKind`]): `pipe` (pipeline parallelism), `par`
//!   (thread parallelism), `seq` (sequential execution) or `comb` (a custom
//!   single-cycle combinatorial block). Function bodies are SSA
//!   [`Instruction`]s, stream-[`OffsetDecl`]s and [`Call`]s to child
//!   functions.
//!
//! The textual syntax (`.tirl` files) follows the paper's listings (Figs 12
//! and 14); [`parse()`][parser::parse] and [`print()`][printer::print] round-trip it. The [`builder`] module
//! offers a programmatic API. [`config_tree`] extracts the architecture
//! implied by the function hierarchy (Fig 8) and classifies it against the
//! design-space abstraction of Fig 5. [`dfg`] builds the dataflow graph that
//! the cost model schedules and the simulator executes. [`fingerprint`]
//! computes the stable, span-transparent structural hashes under which the
//! session-based cost estimator memoizes per-function sub-results.

pub mod arena;
pub mod builder;
pub mod config_tree;
pub mod dfg;
pub mod diag;
pub mod error;
pub mod fingerprint;
pub mod function;
pub mod instr;
pub mod module;
pub mod parser;
pub mod printer;
pub mod stream;
pub mod types;
pub mod validate;

pub use arena::{ArenaModule, ConfigPlan, FnId, PatchedModule, PlanNode};
pub use builder::{FunctionBuilder, ModuleBuilder};
pub use config_tree::{ConfigClass, ConfigNode, ConfigTree};
pub use dfg::{Dfg, DfgNode, LatencyModel, UnitLatency};
pub use diag::{DiagSink, Diagnostic, Severity, Span, SrcLoc};
pub use error::{ErrorCategory, IrError, TybecError, TybecResult};
pub use fingerprint::{
    fingerprint_function, fingerprint_module, fingerprint_streams, fingerprint_subtree,
    StableHasher,
};
pub use function::{Call, IrFunction, OffsetDecl, ParKind, Param, PortDir, Stmt};
pub use instr::{Dest, Instruction, Opcode, Operand};
pub use module::{lane_name, ExecMeta, IrModule, ManageLinks, MemForm};
pub use parser::{parse, parse_unvalidated};
pub use printer::print;
pub use stream::{AccessPattern, AddrSpace, MemObject, PortDecl, StreamDir, StreamObject};
pub use types::ScalarType;
pub use validate::{validate, validate_into};
