//! # mapcomp-compose
//!
//! The mapping-composition algorithm of *"Implementing Mapping Composition"*
//! (Bernstein, Green, Melnik, Nash; VLDB 2006): a best-effort, algebra-based,
//! extensible composition component.
//!
//! Given constraints Σ12 over σ1 ∪ σ2 and Σ23 over σ2 ∪ σ3, [`compose()`]
//! eliminates as many σ2 symbols as possible from Σ12 ∪ Σ23, producing an
//! equivalent constraint set over σ1 ∪ σ3 (plus any σ2 symbols that resisted
//! elimination). Per symbol, [`eliminate()`] tries:
//!
//! 1. **View unfolding** (§3.2) — substitute a defining equality `S = E`.
//! 2. **Left compose** (§3.4) — isolate `S ⊆ E1` and substitute into
//!    monotone right-hand sides; then eliminate the `D` relation.
//! 3. **Right compose** (§3.5) — isolate `E1 ⊆ S` (Skolemizing projections),
//!    substitute into monotone left-hand sides, deskolemize, and eliminate
//!    the `∅` relation.
//!
//! The algorithm is extensible: the [`Registry`] carries monotonicity rules,
//! normalization rules and simplification rules per user-defined operator
//! ([`builtins`] ships left outer join, semijoin, antijoin and transitive
//! closure). [`verify`] provides a bounded-model equivalence checker used by
//! the test suite.
//!
//! Downstream of composition, [`exchange()`] materialises target instances
//! (data migration, paper Example 1) and [`DifferentialChase`] keeps one
//! live under source updates. Both run one chase core ([`chase`]): one rule
//! compiler, one firing function and one semi-naive fixpoint driver over
//! indexed conjunctive premise plans ([`plan`]), where the firing test —
//! restricted for `exchange()`, oblivious for maintained sessions — is the
//! only switch.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod builtins;
pub mod chase;
pub mod compose;
pub mod cq;
pub mod deskolem;
pub mod differential;
pub mod eliminate;
pub mod exchange;
pub mod left;
pub mod minimize;
pub mod monotone;
pub mod outcome;
pub mod plan;
pub mod registry;
pub mod right;
pub mod simplify;
pub mod verify;
pub mod view_unfold;

pub use chase::{compile_rules, restricted_rules, ChaseRule};
pub use compose::{
    compose, compose_constraints, compose_constraints_skipping, ComposeConfig, ComposeResult,
    ComposeStats, KnownFailure, SymbolOutcome, SymbolReport,
};
pub use differential::{
    fold_updates, parse_update, parse_updates, render_instance, write_update, DeltaReport,
    DifferentialChase, Sign, Update,
};
pub use eliminate::eliminate;
pub use exchange::{exchange, ExchangeConfig, ExchangeResult};
pub use minimize::{minimize_expr, minimize_mapping, remove_implied};
pub use monotone::{is_monotone, monotonicity};
pub use outcome::{EliminateFailure, EliminateStep, EliminateSuccess, FailureReason};
pub use registry::{Monotonicity, OperatorRules, Registry};
pub use verify::{check_equivalence, EquivalenceReport, VerifyConfig};
