//! Data exchange: materialise a target instance from a source instance and a
//! mapping.
//!
//! The paper motivates composition with data migration ("With this mapping,
//! the designer can now migrate data from the old schema to the new schema",
//! Example 1) and cites data exchange as the application of the
//! second-order-tgd line of work \[5\]. This module provides that downstream
//! consumer: a chase-style engine that, given a source instance and a set of
//! algebraic constraints, computes a canonical target instance satisfying
//! every supported constraint, inventing labelled nulls for
//! existentially-required values.
//!
//! Supported constraints are containments `E1 ⊆ E2` (equalities contribute
//! their left-to-right direction) whose right-hand side converts to
//! conjunctive form over target relations (select–project–join shapes, the
//! same fragment deskolemization handles). Constraints that do not fit are
//! reported, not silently dropped.
//!
//! The chase itself lives in [`crate::chase`]: `exchange()` runs its
//! driver under the *restricted* firing test — a premise tuple fires only
//! while its conclusion is unsatisfied, and labelled nulls are numbered
//! sequentially (`_null1`, `_null2`, …) in firing order. It is the
//! one-shot, in-process entry point; the catalog and service layers serve
//! only the oblivious [`crate::DifferentialChase`] behind `migrate-delta`,
//! gated by the static termination verdict. Neither firing test subsumes
//! the other: some rule sets reach a fixpoint only under the restricted
//! test (a satisfied conclusion stops refiring), others only under the
//! oblivious one (each premise tuple fires once, whatever it concludes).

use mapcomp_algebra::{Constraint, Instance, Signature};

use crate::chase::{chase, compile_rules, restricted_rules, Firing};
use crate::registry::Registry;

/// Configuration of the chase.
#[derive(Debug, Clone)]
pub struct ExchangeConfig {
    /// Maximum number of chase rounds (a round applies every constraint
    /// once). Target-to-target constraints may need several rounds; purely
    /// source-to-target mappings converge in one.
    pub max_rounds: usize,
    /// Hard cap on the number of labelled nulls, as a safety valve against
    /// non-terminating chases.
    pub max_nulls: usize,
    /// Per-evaluation tuple budget for premises and satisfaction checks.
    /// Active-domain powers and products grow combinatorially as the chase
    /// invents nulls; rules whose evaluation exceeds this budget are skipped
    /// (and reported) instead of exhausting memory.
    pub eval_budget: usize,
}

impl Default for ExchangeConfig {
    fn default() -> Self {
        ExchangeConfig { max_rounds: 16, max_nulls: 10_000, eval_budget: 1_000_000 }
    }
}

/// Result of a data-exchange run.
#[derive(Debug, Clone)]
pub struct ExchangeResult {
    /// The computed target instance (a canonical solution).
    pub target: Instance,
    /// Number of labelled nulls invented.
    pub nulls_created: usize,
    /// Number of chase rounds executed.
    pub rounds: usize,
    /// Constraints that could not be used for exchange (with the reason).
    pub skipped: Vec<(Constraint, String)>,
    /// Did the chase reach a fixpoint (as opposed to hitting a limit)?
    pub converged: bool,
    /// Rows materialised into the chase's persistent frontier index: the
    /// one-time source snapshot of every plan-read relation plus one
    /// in-place insert per novel target tuple. Each live tuple is indexed
    /// exactly once for the whole run, so allocation does not scale with
    /// the round count.
    pub frontier_rows: usize,
}

/// Compute a canonical target instance for `constraints` from `source`.
///
/// `full_sig` must cover every relation mentioned by the constraints;
/// `target_sig` lists the relations to be populated (anything not in
/// `target_sig` is treated as source data and read from `source`).
pub fn exchange(
    constraints: &[Constraint],
    full_sig: &Signature,
    target_sig: &Signature,
    source: &Instance,
    registry: &Registry,
    config: &ExchangeConfig,
) -> ExchangeResult {
    let (rules, mut skipped) = compile_rules(constraints, full_sig, target_sig);
    let rules = restricted_rules(rules, &mut skipped);
    let state = chase(&rules, full_sig, source, registry, config, Firing::Restricted);
    skipped.extend(state.dropped);
    ExchangeResult {
        target: state.target,
        nulls_created: state.nulls,
        rounds: state.rounds,
        skipped,
        converged: state.converged,
        frontier_rows: state.frontier_rows,
    }
}
