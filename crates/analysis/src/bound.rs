//! Polynomial chase bounds derived from a weak-acyclicity proof.
//!
//! When the position dependency graph has no cycle through an existential
//! edge, the chase terminates in time polynomial in the source instance.
//! [`PolynomialBound`] records the parameters of that polynomial — the
//! graph's existential rank, the rule-set shape, the schema arities — and
//! turns them into concrete numbers for a given source domain size:
//! how many labelled nulls the chase can invent ([`null_bound`]), how many
//! tuples the instance can ever hold ([`tuple_bound`]), and a safe
//! per-evaluation tuple budget ([`eval_budget`]) that replaces the engine's
//! hardcoded default.
//!
//! Every arithmetic step saturates (in `u128`, clamped to `usize` at the
//! edge). Saturation is sound here: a budget only exists to cut off a chase
//! that would not terminate, and the proof says this one does — an
//! over-large budget merely declines to interfere.
//!
//! [`null_bound`]: PolynomialBound::null_bound
//! [`tuple_bound`]: PolynomialBound::tuple_bound
//! [`eval_budget`]: PolynomialBound::eval_budget

use mapcomp_algebra::Signature;

use crate::graph::DepGraph;
use crate::rules::RuleSet;

/// The parameters of a proven chase-termination bound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolynomialBound {
    /// Maximum number of existential edges on any path of the dependency
    /// graph: the degree driver of the polynomial. Rank 0 means the rule set
    /// invents no nulls at all.
    pub rank: usize,
    /// Number of `(relation, position)` nodes in the dependency graph.
    pub positions: usize,
    /// Number of chase rules analyzed.
    pub rules: usize,
    /// Maximum number of distinct premise bindings any one rule ranges over,
    /// as an exponent: the widest rule's premise variable count (or, for
    /// premises outside the conjunctive fragment, the summed arity of the
    /// relations it reads).
    pub max_premise_width: usize,
    /// Maximum number of fresh nulls a single rule firing can invent.
    pub max_existentials: usize,
    /// Maximum number of atoms in any conjunctive premise (at least 1 when
    /// there are rules): the join depth a premise evaluation can reach.
    pub max_premise_atoms: usize,
    /// Distinct constants mentioned by the rules; they join the domain.
    pub constants: usize,
    /// Arity of every relation in the full signature, sorted by name.
    pub relation_arities: Vec<usize>,
}

/// `base^exp`, saturating.
fn pow_sat(base: u128, exp: usize) -> u128 {
    let mut out: u128 = 1;
    for _ in 0..exp {
        out = out.saturating_mul(base);
    }
    out
}

fn clamp(value: u128) -> usize {
    usize::try_from(value).unwrap_or(usize::MAX)
}

impl PolynomialBound {
    /// Derive the bound parameters from an analyzed rule set and its
    /// dependency graph, given the proven rank.
    pub fn derive(
        rule_set: &RuleSet,
        dep_graph: &DepGraph,
        full_sig: &Signature,
        rank: usize,
    ) -> PolynomialBound {
        let mut max_premise_width = 0usize;
        let mut max_existentials = 0usize;
        let mut max_premise_atoms = 0usize;
        let mut constants = std::collections::BTreeSet::new();
        for rule in &rule_set.rules {
            let width = match &rule.premise {
                Some(premise) => premise.body_vars().len().max(premise.head.len()),
                None => rule
                    .premise_relations()
                    .iter()
                    .filter_map(|name| full_sig.arity(name).ok())
                    .sum::<usize>()
                    .max(rule.conclusion.head.len()),
            };
            max_premise_width = max_premise_width.max(width);
            max_existentials = max_existentials.max(rule.existentials.len());
            let atoms = rule
                .premise
                .as_ref()
                .map_or(rule.premise_relations().len().max(1), |p| p.atoms.len().max(1));
            max_premise_atoms = max_premise_atoms.max(atoms);
            for premise in rule.premise.iter() {
                constants.extend(premise.const_of.values().cloned());
            }
            constants.extend(rule.conclusion.const_of.values().cloned());
        }
        PolynomialBound {
            rank,
            positions: dep_graph.position_count(),
            rules: rule_set.rules.len(),
            max_premise_width,
            max_existentials,
            max_premise_atoms,
            constants: constants.len(),
            relation_arities: full_sig.iter().map(|(_, info)| info.arity).collect(),
        }
    }

    /// Bound on the number of distinct values (domain values, constants, and
    /// invented nulls) a chase from a source of `domain` distinct values can
    /// ever see. One growth round per rank level, plus one for the engine's
    /// firing-multiplicity slack (satisfaction is keyed on full premise
    /// tuples, not just the conclusion-relevant columns).
    pub fn value_bound(&self, domain: usize) -> usize {
        let base = (domain as u128).saturating_add(self.constants as u128).max(1);
        let mut values = base;
        for _ in 0..=self.rank {
            let firings =
                (self.rules as u128).saturating_mul(pow_sat(values, self.max_premise_width));
            values = values.saturating_add(firings.saturating_mul(self.max_existentials as u128));
        }
        clamp(values)
    }

    /// Bound on the number of labelled nulls the chase can invent.
    pub fn null_bound(&self, domain: usize) -> usize {
        let base = clamp((domain as u128).saturating_add(self.constants as u128).max(1));
        self.value_bound(domain).saturating_sub(base)
    }

    /// Bound on the number of tuples the chased instance can ever hold:
    /// every relation filled with every combination of values.
    pub fn tuple_bound(&self, domain: usize) -> usize {
        let values = self.value_bound(domain) as u128;
        let mut tuples: u128 = 0;
        for &arity in &self.relation_arities {
            tuples = tuples.saturating_add(pow_sat(values, arity));
        }
        clamp(tuples)
    }

    /// A safe per-evaluation tuple budget for the chase engine: the largest
    /// intermediate result any premise evaluation can produce, i.e. the
    /// instance-wide tuple bound raised to the deepest join any premise
    /// performs. Saturates rather than under-estimates.
    pub fn eval_budget(&self, domain: usize) -> usize {
        let tuples = (self.tuple_bound(domain) as u128).max(1);
        clamp(pow_sat(tuples, self.max_premise_atoms.max(1)))
    }

    /// One-line, byte-stable summary (the "verdict grammar" of
    /// `docs/ANALYSIS.md`).
    pub fn summary(&self) -> String {
        format!("proven rank={} positions={} rules={}", self.rank, self.positions, self.rules)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::extract_rules;
    use mapcomp_algebra::{parse_constraints, Signature};

    fn derive_for(text: &str, rels: &[(&str, usize)], target: &[(&str, usize)]) -> PolynomialBound {
        let full = Signature::from_arities(rels.iter().map(|&(n, a)| (n.to_string(), a)));
        let target = Signature::from_arities(target.iter().map(|&(n, a)| (n.to_string(), a)));
        let constraints = parse_constraints(text).unwrap();
        let rules = extract_rules(constraints.as_slice(), &full, &target);
        let graph = crate::graph::build(&rules, &full, &target);
        let rank = graph.weak_acyclicity().expect("weakly acyclic");
        PolynomialBound::derive(&rules, &graph, &full, rank)
    }

    #[test]
    fn rank_zero_rules_invent_no_nulls() {
        let bound = derive_for("R <= S", &[("R", 1), ("S", 1)], &[("S", 1)]);
        assert_eq!(bound.rank, 0);
        assert_eq!(bound.max_existentials, 0);
        assert_eq!(bound.null_bound(100), 0);
        assert_eq!(bound.value_bound(100), 100);
    }

    #[test]
    fn rank_one_null_bound_scales_with_domain() {
        let bound = derive_for("R <= project[0](S)", &[("R", 1), ("S", 2)], &[("S", 2)]);
        assert_eq!(bound.rank, 1);
        assert!(bound.null_bound(10) >= 10, "one null per source value at least");
        assert!(bound.null_bound(20) > bound.null_bound(10));
    }

    #[test]
    fn budgets_are_monotone_and_saturate() {
        let bound = derive_for("R <= project[0](S)", &[("R", 1), ("S", 2)], &[("S", 2)]);
        assert!(bound.eval_budget(10) >= bound.tuple_bound(10));
        assert!(bound.eval_budget(100) >= bound.eval_budget(10));
        // A huge domain saturates instead of wrapping.
        assert_eq!(bound.eval_budget(usize::MAX), usize::MAX);
        assert!(bound.eval_budget(0) >= 1, "empty sources still get a positive budget");
    }

    #[test]
    fn summary_is_the_documented_grammar() {
        let bound = derive_for("R <= S", &[("R", 1), ("S", 1)], &[("S", 1)]);
        assert_eq!(bound.summary(), format!("proven rank=0 positions={} rules=1", bound.positions));
    }
}
