//! Step 1 of ELIMINATE: view unfolding (paper §3.2).
//!
//! "We look for a constraint ξ of the form S = E1 in Σ0 where E1 is an
//! arbitrary expression that does not contain S. If there is no such
//! constraint ... report failure. Otherwise, to obtain Σ1 we remove ξ and
//! replace every occurrence of S in every other constraint in Σ0 with E1."
//!
//! Because ξ is an *equality*, the substitution is valid even inside
//! expressions that are not monotone in S or that contain operators about
//! which nothing is known — which is exactly the extra power demonstrated by
//! the paper's Example 5.

use std::sync::Arc;

use mapcomp_algebra::{Constraint, ConstraintKind, Expr};

use crate::outcome::FailureReason;

/// Find a defining equality for `sym`: a constraint `S = E` or `E = S` where
/// `E` does not mention `S`. Returns the index and the defining expression.
pub fn find_defining_equality(constraints: &[Constraint], sym: &str) -> Option<(usize, Arc<Expr>)> {
    constraints.iter().enumerate().find_map(|(i, c)| {
        if c.kind != ConstraintKind::Equality {
            return None;
        }
        if c.lhs.is_relation(sym) && !c.rhs.mentions(sym) {
            return Some((i, Arc::clone(&c.rhs)));
        }
        if c.rhs.is_relation(sym) && !c.lhs.mentions(sym) {
            return Some((i, Arc::clone(&c.lhs)));
        }
        None
    })
}

/// Attempt to eliminate `sym` by view unfolding. On success the returned
/// constraints are equivalent to the input and free of `sym`; a constraint
/// that does not mention `sym` is passed through shared, and every
/// occurrence of `sym` shares the one definition.
pub fn view_unfold(
    constraints: &[Constraint],
    sym: &str,
) -> Result<Vec<Constraint>, FailureReason> {
    let (index, definition) =
        find_defining_equality(constraints, sym).ok_or(FailureReason::NoDefiningEquality)?;
    let mut out = Vec::with_capacity(constraints.len().saturating_sub(1));
    for (i, constraint) in constraints.iter().enumerate() {
        if i == index {
            continue;
        }
        out.push(constraint.substitute(sym, &definition));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapcomp_algebra::{parse_constraint, parse_constraints};

    #[test]
    fn paper_example_5() {
        // S = R1 × R2,  π(R3 − S) ⊆ T1,  T2 ⊆ T3 − σc(S)
        let constraints = parse_constraints(
            "S = R1 * R2; project[0](diff(R3, S)) <= T1; T2 <= T3 - select[#0 = 1](S)",
        )
        .unwrap()
        .into_vec();
        let result = view_unfold(&constraints, "S").unwrap();
        assert_eq!(result.len(), 2);
        let expected_first = parse_constraint("project[0](diff(R3, R1 * R2)) <= T1").unwrap();
        let expected_second = parse_constraint("T2 <= T3 - select[#0 = 1](R1 * R2)").unwrap();
        assert_eq!(result[0], expected_first);
        assert_eq!(result[1], expected_second);
        assert!(result.iter().all(|c| !c.mentions("S")));
    }

    #[test]
    fn defining_equality_may_be_on_either_side() {
        let constraints = parse_constraints("R1 * R2 = S; S <= T").unwrap().into_vec();
        let result = view_unfold(&constraints, "S").unwrap();
        assert_eq!(result, vec![parse_constraint("R1 * R2 <= T").unwrap()]);
    }

    #[test]
    fn fails_without_defining_equality() {
        // Only containments: no unfolding possible.
        let constraints = parse_constraints("S <= R; R <= S").unwrap().into_vec();
        assert_eq!(view_unfold(&constraints, "S"), Err(FailureReason::NoDefiningEquality));
    }

    #[test]
    fn fails_when_definition_mentions_symbol() {
        // S = S ∪ R defines S recursively; not usable.
        let constraints = parse_constraints("S = S + R; S <= T").unwrap().into_vec();
        assert_eq!(view_unfold(&constraints, "S"), Err(FailureReason::NoDefiningEquality));
    }

    #[test]
    fn unfolds_into_equalities_too() {
        let constraints = parse_constraints("S = R; T = S * S").unwrap().into_vec();
        let result = view_unfold(&constraints, "S").unwrap();
        assert_eq!(result, vec![parse_constraint("T = R * R").unwrap()]);
    }

    #[test]
    fn only_first_defining_equality_is_used() {
        let constraints = parse_constraints("S = R1; S = R2; S <= T").unwrap().into_vec();
        let result = view_unfold(&constraints, "S").unwrap();
        // The remaining definition becomes an ordinary constraint R1 = R2
        // after substitution... more precisely S = R2 becomes R1 = R2.
        assert_eq!(result.len(), 2);
        assert_eq!(result[0], parse_constraint("R1 = R2").unwrap());
        assert_eq!(result[1], parse_constraint("R1 <= T").unwrap());
    }
}
