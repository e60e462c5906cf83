//! # tytra-transform — the functional front end
//!
//! The paper's design entry is a pure functional program over shaped
//! vectors (written in Idris); *type transformations* — chiefly
//! `reshapeTo` — reshape the data in an order- and size-preserving way,
//! and the corresponding program transformation (e.g. `map f` →
//! `mappar (mappipe f)`) is inferred, yielding correct-by-construction
//! design variants (paper §II).
//!
//! This crate provides the Rust equivalent:
//!
//! * [`vect`] — shaped vectors with checked, order-preserving
//!   [`Vect::reshape_to`];
//! * [`expr`] — a small element-wise functional language (`map` over an
//!   NDRange of tuples, with neighbour offsets and stream reductions) in
//!   which the evaluation kernels are written, plus a reference
//!   evaluator;
//! * [`typetrans`] — variant generation: the decorated-map combinations
//!   (`par`/`pipe`/`seq`), lane counts, vectorization degrees and
//!   memory-execution forms that span the paper's design space (Fig 5),
//!   enumerated in the order the DSE search costs them;
//! * [`lower()`][lower::lower] — lowering a kernel + variant to a TyTra-IR module (the
//!   Fig 12 / Fig 14 shapes);
//! * [`factory`] — copy-on-write variant materialization: one lowered
//!   arena base per structural class, each variant a four-cell patch
//!   (name, form, DV, lane count) over it (the DSE engine's zero-alloc
//!   path);
//! * [`proofs`] — executable statements of the transformation laws
//!   (order/size preservation, map–reshape commutation), property-tested.

pub mod expr;
pub mod factory;
pub mod lower;
pub mod proofs;
pub mod typetrans;
pub mod vect;

pub use expr::{Expr, KernelDef, Reduction};
pub use factory::{VariantDesign, VariantFactory};
pub use lower::lower;
pub use typetrans::{enumerate_variants, InnerKind, Variant};
pub use vect::{Shape, Vect};
