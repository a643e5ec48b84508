//! # mapcomp-algebra
//!
//! Relational-algebra substrate for the mapping-composition system described
//! in *"Implementing Mapping Composition"* (Bernstein, Green, Melnik, Nash;
//! VLDB 2006).
//!
//! The crate provides everything below the composition algorithm itself:
//!
//! * [`value`] — concrete values and tuples;
//! * [`signature`] — schemas (relation symbols, arities, optional keys);
//! * [`pred`] — selection predicates over index-addressed attributes;
//! * [`expr`] — the index-based algebra of paper §2 (∪, ∩, ×, −, π, σ, the
//!   active-domain relation `D^r`, the empty relation `∅`, Skolem
//!   pseudo-operators, user-defined operators);
//! * [`ops`] — registration of user-defined operators (typing + evaluation);
//! * [`instance`] / [`mod@eval`] — database instances and set-semantics
//!   evaluation;
//! * [`escape`] — the field codec: percent-escaping strings into single
//!   whitespace-free tokens for the sidecar, the wire and the reply text;
//! * [`constraint`] — containment / equality constraints and constraint sets;
//! * [`mapping`] — mappings `(σ_in, σ_out, Σ)` and composition tasks;
//! * [`parse`] — the plain-text task format of paper §4 (parser; the
//!   pretty-printer is the `Display` impls, and printing→parsing round-trips).
//!
//! The composition algorithm itself (view unfolding, left/right compose,
//! deskolemization, the best-effort `COMPOSE` driver) lives in the companion
//! crate `mapcomp-compose`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod constraint;
pub mod error;
pub mod escape;
pub mod eval;
pub mod expr;
pub mod instance;
pub mod mapping;
pub mod ops;
pub mod parse;
pub mod pred;
pub mod signature;
pub mod value;

pub use constraint::{Constraint, ConstraintKind, ConstraintSet};
pub use error::AlgebraError;
pub use escape::{escape_field, escape_field_into, unescape_field};
pub use eval::{eval, Evaluator};
pub use expr::{Expr, SkolemFn};
pub use instance::{DeltaInstance, Instance, Relation, RelationSource};
pub use mapping::{CompositionTask, Mapping};
pub use ops::{OperatorDef, OperatorSet, RowSink};
pub use parse::{parse_constraint, parse_constraints, parse_document, parse_expr, Document};
pub use pred::{CmpOp, Operand, Pred};
pub use signature::{RelInfo, Signature};
pub use value::{tuple, Tuple, Value};
