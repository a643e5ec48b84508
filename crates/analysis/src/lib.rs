//! # mapcomp-analysis
//!
//! Static analysis over conjunctive mappings and constraints: chase
//! termination proofs and a rule-level linter.
//!
//! The chase engine (`mapcomp_compose::exchange`) guards against
//! non-termination with runtime limits — a per-evaluation tuple budget, a
//! null cap, a round cap. Those are blunt: they reject legitimate long runs
//! and let pathological mappings burn the whole budget before failing. The
//! data-exchange literature solves the problem statically instead: build the
//! *position dependency graph* over `(relation, argument-position)` nodes,
//! classify edges as **regular** (a universally quantified value is copied
//! from a premise position into a conclusion position) or **existential**
//! (a premise value forces the invention of a labelled null at a conclusion
//! position), and check **weak acyclicity** — no cycle through an
//! existential edge. A weakly acyclic rule set chases to a fixpoint in time
//! polynomial in the source instance, so a proof licenses a concrete, safe
//! evaluation budget in place of the hardcoded default.
//!
//! * [`analyze_exchange`] — analyze the exact rule set the chase would run
//!   for `(constraints, full signature, target signature)`. Rule extraction
//!   mirrors `exchange()` constraint-for-constraint, so the verdict speaks
//!   about the rules that will actually fire.
//! * [`analyze_mapping`] — convenience wrapper for a catalog
//!   [`Mapping`] (target = output signature).
//! * [`Termination::Proven`] carries a [`PolynomialBound`] from which
//!   [`PolynomialBound::eval_budget`] derives a safe per-evaluation budget
//!   for a given source domain size; [`Termination::Unknown`] carries the
//!   offending existential cycle rendered as a diagnostic.
//! * [`lint`] — stable diagnostic codes (styled after the wire error-code
//!   table) for rule-level smells: unbound head variables, unused premise
//!   variables, cartesian-product joins, duplicate/shadowed rules, arity
//!   mismatches across composed signatures.
//!
//! All output is deterministic: diagnostics are sorted by
//! `(rule index, code, position)` and every collection is ordered, so
//! repeated runs render byte-identical text (asserted by
//! `tests/docs_examples.rs` against `docs/ANALYSIS.md`).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bound;
pub mod graph;
pub mod lint;
pub mod rules;

use mapcomp_algebra::{Constraint, Instance, Mapping, Signature};
use mapcomp_compose::{ChaseRule, ExchangeConfig};

pub use bound::PolynomialBound;
pub use graph::{CycleWitness, DepGraph, Position};
pub use lint::{Diagnostic, LintCode};
pub use rules::{extract_rules, RuleSet};

/// The termination verdict of the analyzer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Termination {
    /// The rule set is weakly acyclic: the chase terminates on every source
    /// instance, within the carried polynomial bound.
    Proven {
        /// The bound parameters, from which concrete budgets are derived.
        bound: PolynomialBound,
    },
    /// Termination could not be proven.
    Unknown {
        /// The offending cycle through an existential edge, when the
        /// analysis ran and found one (`None` when the rule set could not
        /// be analyzed at all, e.g. conflicting signatures).
        cycle_witness: Option<CycleWitness>,
        /// Human-readable reason.
        reason: String,
    },
}

/// The null cap a served chase runs under when termination is
/// [`Termination::Unknown`]: enough for chains that converge in practice
/// (a conclusion column fixed to a constant is `Unknown` yet terminates),
/// small enough that a diverging chain is refused in milliseconds.
pub const UNKNOWN_MAX_NULLS: usize = 1_024;

impl Termination {
    /// One-line, byte-stable rendering of the verdict (the "verdict
    /// grammar" of `docs/ANALYSIS.md`).
    pub fn summary(&self) -> String {
        match self {
            Termination::Proven { bound } => bound.summary(),
            Termination::Unknown { cycle_witness: Some(cycle), .. } => {
                format!("unknown cycle: {cycle}")
            }
            Termination::Unknown { cycle_witness: None, reason } => {
                format!("unknown reason: {reason}")
            }
        }
    }
}

/// The full output of one analysis run: verdict, sorted diagnostics, and the
/// constraints the chase would skip (with the chase's own reasons).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalysisReport {
    /// Chase-termination verdict.
    pub termination: Termination,
    /// Lint diagnostics, sorted by `(rule index, code, position)`.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of chase rules analyzed.
    pub rules: usize,
    /// Constraints the chase would skip, with the reason — exactly the
    /// `skipped` entries `exchange()` would report before round one.
    pub skipped: Vec<(Constraint, String)>,
}

impl AnalysisReport {
    /// Is termination proven?
    pub fn proven(&self) -> bool {
        matches!(self.termination, Termination::Proven { .. })
    }

    /// Multi-line, byte-stable rendering: the verdict line, one line per
    /// diagnostic, one line per chase-skipped constraint.
    pub fn render(&self) -> String {
        let mut out = format!("termination: {}\n", self.termination.summary());
        for diagnostic in &self.diagnostics {
            out.push_str(&format!("{diagnostic}\n"));
        }
        for (constraint, reason) in &self.skipped {
            out.push_str(&format!("skip: {constraint}: {reason}\n"));
        }
        out
    }

    /// Derive a one-shot `exchange()` configuration from `base`: when
    /// termination is proven, the per-evaluation budget becomes the
    /// analysis-derived bound for a source instance of `domain` distinct
    /// values; otherwise `base` is returned unchanged.
    pub fn exchange_config(&self, domain: usize, base: &ExchangeConfig) -> ExchangeConfig {
        let mut config = base.clone();
        if let Termination::Proven { bound } = &self.termination {
            config.eval_budget = bound.eval_budget(domain);
        }
        config
    }
}

/// The number of distinct values in a source instance — the `domain`
/// parameter of [`PolynomialBound`]'s budget functions.
pub fn domain_size(source: &Instance) -> usize {
    source.active_domain().len()
}

/// Analyze the exact rule set `exchange()` would run for these constraints:
/// weak-acyclicity verdict plus lint diagnostics.
pub fn analyze_exchange(
    constraints: &[Constraint],
    full_sig: &Signature,
    target_sig: &Signature,
) -> AnalysisReport {
    let rule_set = extract_rules(constraints, full_sig, target_sig);
    let dep_graph = graph::build(&rule_set, full_sig, target_sig);
    // Weak acyclicity bounds the chase only when every firing *satisfies*
    // the containment for the tuple it fired on. `fire()` cannot guarantee
    // that when the conclusion constrains columns beyond plain distinct
    // variables — it then refires on the same tuple with fresh nulls every
    // round (corpus examples 13 and 14 diverge exactly this way), so such a
    // rule set is honestly `Unknown` regardless of the dependency graph.
    let divergent = rule_set
        .rules
        .iter()
        .enumerate()
        .find_map(|(index, rule)| firing_satisfies(rule, target_sig).err().map(|r| (index, r)));
    let termination = if let Some((index, reason)) = divergent {
        Termination::Unknown { cycle_witness: None, reason: format!("rule {index} {reason}") }
    } else {
        match dep_graph.weak_acyclicity() {
            Ok(rank) => Termination::Proven {
                bound: bound::PolynomialBound::derive(&rule_set, &dep_graph, full_sig, rank),
            },
            Err(cycle) => Termination::Unknown {
                reason: "existential cycle in the position dependency graph".to_string(),
                cycle_witness: Some(cycle),
            },
        }
    };
    let mut diagnostics = lint::lint_rules(&rule_set);
    lint::sort(&mut diagnostics);
    record_metrics(&termination, &diagnostics);
    AnalysisReport {
        termination,
        diagnostics,
        rules: rule_set.rules.len(),
        skipped: rule_set.skipped.clone(),
    }
}

/// Does firing this rule on an arbitrary premise tuple always satisfy the
/// containment for that tuple? `fire()` copies the premise tuple into head
/// variables positionally and invents nulls for the rest, so satisfaction is
/// guaranteed exactly when the conclusion head is a sequence of *distinct,
/// unconstrained* variables and every conclusion atom lands in a relation
/// the chase may populate. Anything else — a repeated head variable (column
/// equality), a head column fixed to a constant, an atom over a source
/// relation — can leave the fired tuple unsatisfied forever.
fn firing_satisfies(rule: &ChaseRule, target_sig: &Signature) -> Result<(), String> {
    for atom in &rule.conclusion.atoms {
        if !target_sig.contains(&atom.rel) {
            return Err(format!("concludes into `{}`, which the chase cannot populate", atom.rel));
        }
    }
    let mut seen = std::collections::BTreeSet::new();
    for term in &rule.conclusion.head {
        match term {
            mapcomp_compose::cq::Term::Var(var) => {
                if !seen.insert(*var) {
                    return Err(
                        "equates conclusion columns; firing cannot satisfy premise tuples that \
                         differ there"
                            .to_string(),
                    );
                }
                if rule.conclusion.const_of.contains_key(var) {
                    return Err(
                        "fixes a conclusion column to a constant; firing cannot satisfy premise \
                         tuples that differ there"
                            .to_string(),
                    );
                }
            }
            _ => {
                return Err(
                    "has a non-variable conclusion column; firing cannot satisfy arbitrary \
                     premise tuples"
                        .to_string(),
                )
            }
        }
    }
    Ok(())
}

/// Analyze a catalog mapping: the chase rules that would populate its output
/// signature. Signature conflicts between input and output (the same
/// relation declared with two arities) surface as `arity-mismatch`
/// diagnostics with an [`Termination::Unknown`] verdict.
pub fn analyze_mapping(mapping: &Mapping) -> AnalysisReport {
    match mapping.combined_signature() {
        Ok(full) => analyze_exchange(mapping.constraints.as_slice(), &full, &mapping.output),
        Err(error) => {
            let diagnostics = vec![lint::signature_conflict(&error.to_string())];
            let termination = Termination::Unknown {
                cycle_witness: None,
                reason: format!("signatures do not combine: {error}"),
            };
            record_metrics(&termination, &diagnostics);
            AnalysisReport { termination, diagnostics, rules: 0, skipped: Vec::new() }
        }
    }
}

/// Bump the analysis counters in the global metrics registry: one verdict
/// counter per run, one lint counter per diagnostic code hit.
fn record_metrics(termination: &Termination, diagnostics: &[Diagnostic]) {
    let registry = mapcomp_telemetry::metrics::global();
    let verdict = match termination {
        Termination::Proven { .. } => "proven",
        Termination::Unknown { .. } => "unknown",
    };
    registry
        .counter(
            "analysis_verdicts_total",
            "Static termination analysis runs by verdict.",
            &[("verdict", verdict)],
        )
        .incr();
    for diagnostic in diagnostics {
        registry
            .counter(
                "analysis_lints_total",
                "Lint diagnostics emitted by the static analyzer, by code.",
                &[("code", diagnostic.code.as_str())],
            )
            .incr();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapcomp_algebra::parse_constraints;

    fn mapping(input: &[(&str, usize)], output: &[(&str, usize)], text: &str) -> Mapping {
        Mapping {
            input: Signature::from_arities(input.iter().map(|&(n, a)| (n.to_string(), a))),
            output: Signature::from_arities(output.iter().map(|&(n, a)| (n.to_string(), a))),
            constraints: parse_constraints(text).unwrap(),
        }
    }

    #[test]
    fn copy_mapping_is_proven_with_rank_zero() {
        let report = analyze_mapping(&mapping(&[("R", 1)], &[("S", 1)], "R <= S"));
        let Termination::Proven { bound } = &report.termination else {
            panic!("expected proven, got {:?}", report.termination);
        };
        assert_eq!(bound.rank, 0);
        assert!(report.diagnostics.is_empty());
        assert!(report.skipped.is_empty());
        assert_eq!(report.rules, 1);
    }

    #[test]
    fn existential_self_feed_is_unknown_with_witness() {
        // For every (x, y) in S there must be (y, z) in S: each null feeds
        // the premise again — the textbook non-weakly-acyclic rule.
        let report =
            analyze_mapping(&mapping(&[("R", 1)], &[("S", 2)], "project[1](S) <= project[0](S)"));
        let Termination::Unknown { cycle_witness: Some(cycle), .. } = &report.termination else {
            panic!("expected unknown with witness, got {:?}", report.termination);
        };
        let rendered = cycle.to_string();
        assert!(rendered.contains("->*"), "cycle must show an existential edge: {rendered}");
        assert!(rendered.contains("S.1"), "cycle runs through S.1: {rendered}");
    }

    #[test]
    fn existential_without_feedback_is_proven_with_rank_one() {
        let report = analyze_mapping(&mapping(&[("R", 1)], &[("S", 2)], "R <= project[0](S)"));
        let Termination::Proven { bound } = &report.termination else {
            panic!("expected proven, got {:?}", report.termination);
        };
        assert_eq!(bound.rank, 1);
        assert!(bound.null_bound(4) >= 4, "each R value may force one null");
    }

    #[test]
    fn signature_conflicts_are_arity_mismatch_diagnostics() {
        let report = analyze_mapping(&mapping(&[("R", 1)], &[("R", 2)], "R <= R"));
        assert!(!report.proven());
        assert_eq!(report.diagnostics.len(), 1);
        assert_eq!(report.diagnostics[0].code, LintCode::ArityMismatch);
    }

    #[test]
    fn skolem_conclusions_are_reported_as_chase_skips() {
        // Mirror the chase: a conclusion with a Skolem head never becomes a
        // rule, so it must not affect the verdict — only the skip list.
        let report =
            analyze_mapping(&mapping(&[("R", 1)], &[("S", 1)], "R <= project[1](skolem:f[0](S))"));
        assert!(report.proven(), "no rules at all is trivially terminating");
        assert_eq!(report.rules, 0);
        assert_eq!(report.skipped.len(), 1);
    }

    #[test]
    fn render_is_deterministic() {
        let mapping = mapping(
            &[("R", 2), ("T", 1)],
            &[("S", 2)],
            "project[0,1](R * T) <= S; project[0,1](R * T) <= S",
        );
        let a = analyze_mapping(&mapping).render();
        let b = analyze_mapping(&mapping).render();
        assert_eq!(a, b);
        assert!(a.starts_with("termination: "), "render starts with the verdict: {a}");
    }

    #[test]
    fn proven_config_swaps_the_budget() {
        let report = analyze_mapping(&mapping(&[("R", 1)], &[("S", 1)], "R <= S"));
        let Termination::Proven { bound } = &report.termination else {
            panic!("expected proven, got {:?}", report.termination);
        };
        let config = report.exchange_config(10, &ExchangeConfig::default());
        assert_eq!(config.eval_budget, bound.eval_budget(10));
        assert!(config.eval_budget > 0);
    }
}
