//! Chase-rule extraction for analysis: exactly the rules `exchange()` runs.
//!
//! The analyzer must speak about the rules the chase will actually run, so
//! it reads the chase core's own compiler
//! ([`mapcomp_compose::compile_rules`]) under the restricted rule selection
//! `exchange()` uses: rule indices, premise and conclusion conjunctive
//! forms, and the skip list (with the chase's own reasons) are the chase's.

use mapcomp_algebra::{Constraint, Signature};
use mapcomp_compose::{compile_rules, restricted_rules, ChaseRule};

/// The full extraction result: rules in chase order plus the skip list.
#[derive(Debug, Clone, Default)]
pub struct RuleSet {
    /// Rules in the order the chase would run them (rule index = position).
    pub rules: Vec<ChaseRule>,
    /// Constraints the chase would skip before round one, with the reason.
    pub skipped: Vec<(Constraint, String)>,
}

/// Extract the chase rules `exchange()` would run for `(constraints,
/// full_sig, target_sig)`.
pub fn extract_rules(
    constraints: &[Constraint],
    full_sig: &Signature,
    target_sig: &Signature,
) -> RuleSet {
    let (rules, mut skipped) = compile_rules(constraints, full_sig, target_sig);
    let rules = restricted_rules(rules, &mut skipped);
    RuleSet { rules, skipped }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapcomp_algebra::{parse_constraints, ConstraintSet};

    fn sig(pairs: &[(&str, usize)]) -> Signature {
        Signature::from_arities(pairs.iter().map(|&(n, a)| (n.to_string(), a)))
    }

    fn extract(text: &str, full: &[(&str, usize)], target: &[(&str, usize)]) -> RuleSet {
        let constraints: ConstraintSet = parse_constraints(text).unwrap();
        extract_rules(constraints.as_slice(), &sig(full), &sig(target))
    }

    #[test]
    fn equalities_contribute_both_populating_directions() {
        // S = T over two target relations: both directions are rules.
        let set = extract("S = T", &[("S", 1), ("T", 1)], &[("S", 1), ("T", 1)]);
        assert_eq!(set.rules.len(), 2);
        assert!(set.skipped.is_empty());
    }

    #[test]
    fn source_only_conclusions_are_not_rules() {
        let set = extract("R <= R", &[("R", 1), ("S", 1)], &[("S", 1)]);
        assert!(set.rules.is_empty());
        assert!(set.skipped.is_empty());
    }

    #[test]
    fn existential_vars_match_fire_semantics() {
        let set = extract("R <= project[0](S)", &[("R", 1), ("S", 2)], &[("S", 2)]);
        assert_eq!(set.rules.len(), 1);
        assert_eq!(set.rules[0].existentials.len(), 1);
    }

    #[test]
    fn non_conjunctive_premises_keep_their_relations() {
        let set = extract("(R + T) <= S", &[("R", 1), ("T", 1), ("S", 1)], &[("S", 1)]);
        assert_eq!(set.rules.len(), 1);
        assert!(set.rules[0].premise.is_none(), "union premises are outside the fragment");
        assert_eq!(set.rules[0].premise_relations(), vec!["R".to_string(), "T".to_string()]);
    }
}
