//! Step 2 of ELIMINATE: left compose (paper §3.4).
//!
//! Left compose isolates the symbol `S` on the *left* of a single constraint
//! `S ⊆ E1` (left normalization, §3.4.1), then replaces `S` by `E1` inside
//! every right-hand side that is monotone in `S` (basic left compose,
//! §3.4.2), and finally eliminates the active-domain relation `D` that
//! normalization may have introduced (§3.4.3).

use std::sync::Arc;

use mapcomp_algebra::{Constraint, Expr, Signature};

use crate::monotone::is_monotone;
use crate::outcome::FailureReason;
use crate::registry::Registry;
use crate::simplify::simplify_constraints;

/// Attempt to eliminate `sym` by left composition.
pub fn left_compose(
    constraints: &[Constraint],
    sym: &str,
    sig: &Signature,
    registry: &Registry,
) -> Result<Vec<Constraint>, FailureReason> {
    // "If S appears on both sides of some constraint in Σ1, we exit."
    if constraints.iter().any(|c| c.lhs.mentions(sym) && c.rhs.mentions(sym)) {
        return Err(FailureReason::SymbolOnBothSides);
    }

    // Convert every equality constraint that contains S into two containments.
    let mut work: Vec<Constraint> = Vec::new();
    for constraint in constraints {
        if constraint.mentions(sym) {
            work.extend(constraint.as_containments());
        } else {
            work.push(constraint.clone());
        }
    }

    // Check right-monotonicity in S: every expression in which S appears to
    // the right of a containment must be monotone in S.
    for constraint in &work {
        if constraint.rhs.mentions(sym) && !is_monotone(&constraint.rhs, sym, registry) {
            return Err(FailureReason::NotRightMonotone);
        }
    }

    // Left-normalize for S.
    let (definition, mut others) = left_normalize(work, sym, sig, registry)?;

    // Basic left compose: substitute the upper bound for S in right-hand sides.
    for constraint in &mut others {
        if constraint.lhs.mentions(sym) {
            // Normalization moved every lhs occurrence into the single
            // collapsed constraint, so this should not happen.
            return Err(FailureReason::SymbolRemains);
        }
        if constraint.rhs.mentions(sym) {
            if !is_monotone(&constraint.rhs, sym, registry) {
                return Err(FailureReason::NotRightMonotone);
            }
            constraint.rhs = Expr::substitute(&constraint.rhs, sym, &definition);
        }
    }

    // Eliminate the domain relation to the extent possible and drop
    // constraints that have become trivial.
    Ok(simplify_constraints(others, registry))
}

/// Left normalization (§3.4.1): bring the constraints into a form where `sym`
/// appears on the left of exactly one constraint `S ⊆ E1`. Returns `E1` and
/// the remaining constraints.
pub fn left_normalize(
    mut work: Vec<Constraint>,
    sym: &str,
    sig: &Signature,
    registry: &Registry,
) -> Result<(Arc<Expr>, Vec<Constraint>), FailureReason> {
    loop {
        // Find a constraint with S on the lhs inside a complex expression.
        let position = work.iter().position(|c| c.lhs.mentions(sym) && !c.lhs.is_relation(sym));
        let Some(index) = position else { break };
        let constraint = work.remove(index);
        let rewritten = left_rewrite_step(&constraint, sym, sig, registry)?;
        work.extend(rewritten);
    }

    // Collapse every `S ⊆ E_i` into a single `S ⊆ E_1 ∩ ... ∩ E_n`.
    let mut bounds: Vec<Arc<Expr>> = Vec::new();
    let mut others: Vec<Constraint> = Vec::new();
    for constraint in work {
        if constraint.lhs.is_relation(sym) {
            bounds.push(constraint.rhs);
        } else {
            others.push(constraint);
        }
    }
    let definition = match bounds.len() {
        0 => {
            // "If S does not appear on the lhs of any expression, we add the
            // constraint S ⊆ D^r where r is the arity of S."
            let arity = sig.arity(sym).map_err(|_| {
                FailureReason::LeftNormalizeFailed(format!("unknown arity of {sym}"))
            })?;
            Arc::new(Expr::domain(arity))
        }
        _ => {
            let mut iter = bounds.into_iter();
            let first = iter.next().expect("non-empty");
            iter.fold(first, |acc, bound| Arc::new(Expr::Intersect(acc, bound)))
        }
    };
    Ok((definition, others))
}

/// One left-normalization rewriting step for a constraint whose lhs contains
/// `sym` in a complex expression. Implements the identities of §3.4.1:
///
/// ```text
/// ∪ : E1 ∪ E2 ⊆ E3  ↔  E1 ⊆ E3,  E2 ⊆ E3
/// − : E1 − E2 ⊆ E3  ↔  E1 ⊆ E2 ∪ E3
/// π : π_I(E1) ⊆ E2  ↔  E1 ⊆ π_ρ(E2 × D^k)
/// σ : σ_c(E1) ⊆ E2  ↔  E1 ⊆ E2 ∪ (D^r − σ_c(D^r))
/// ```
///
/// There is no identity for ∩ or × on the left (paper Example 6 shows the
/// obvious candidate for × is unsound), so those cases fail.
fn left_rewrite_step(
    constraint: &Constraint,
    sym: &str,
    sig: &Signature,
    registry: &Registry,
) -> Result<Vec<Constraint>, FailureReason> {
    let rhs = Arc::clone(&constraint.rhs);
    match constraint.lhs.as_ref() {
        Expr::Union(a, b) => Ok(vec![
            Constraint::containment(Arc::clone(a), Arc::clone(&rhs)),
            Constraint::containment(Arc::clone(b), rhs),
        ]),
        Expr::Difference(a, b) => {
            Ok(vec![Constraint::containment(Arc::clone(a), Expr::Union(Arc::clone(b), rhs))])
        }
        Expr::Project(cols, inner) => {
            let inner_arity = inner.arity(sig, registry.operators()).map_err(|e| {
                FailureReason::LeftNormalizeFailed(format!("cannot type projection operand: {e}"))
            })?;
            let mut seen = std::collections::BTreeSet::new();
            if !cols.iter().all(|c| seen.insert(*c)) {
                return Err(FailureReason::LeftNormalizeFailed(
                    "projection with duplicate columns".into(),
                ));
            }
            // π_I(E1) ⊆ E2  becomes  E1 ⊆ π_ρ(E2 × D^k): position j of E1 maps
            // to the matching E2 column when j ∈ I, and to a fresh D column
            // otherwise.
            let k = inner_arity - cols.len();
            let padded =
                if k == 0 { rhs } else { Arc::new(Expr::Product(rhs, Expr::domain(k).into())) };
            let mut permutation = Vec::with_capacity(inner_arity);
            let mut next_pad = cols.len();
            for j in 0..inner_arity {
                if let Some(i) = cols.iter().position(|&c| c == j) {
                    permutation.push(i);
                } else {
                    permutation.push(next_pad);
                    next_pad += 1;
                }
            }
            Ok(vec![Constraint::containment(Arc::clone(inner), Expr::Project(permutation, padded))])
        }
        Expr::Select(pred, inner) => {
            let arity = inner.arity(sig, registry.operators()).map_err(|e| {
                FailureReason::LeftNormalizeFailed(format!("cannot type selection operand: {e}"))
            })?;
            let complement =
                Expr::domain(arity).difference(Expr::domain(arity).select(pred.clone()));
            Ok(vec![Constraint::containment(
                Arc::clone(inner),
                Expr::Union(rhs, complement.into()),
            )])
        }
        Expr::Apply(name, args) => {
            let rule =
                registry.rules(name).and_then(|r| r.left_normalize.as_ref()).ok_or_else(|| {
                    FailureReason::LeftNormalizeFailed(format!(
                        "no left-normalization rule for operator `{name}`"
                    ))
                })?;
            rule(args, &rhs).ok_or_else(|| {
                FailureReason::LeftNormalizeFailed(format!(
                    "left-normalization rule for `{name}` did not apply"
                ))
            })
        }
        Expr::Intersect(..) => {
            Err(FailureReason::LeftNormalizeFailed("no left rule for intersection".into()))
        }
        Expr::Product(..) => {
            Err(FailureReason::LeftNormalizeFailed("no left rule for cross product".into()))
        }
        Expr::Skolem(..) => {
            Err(FailureReason::LeftNormalizeFailed("Skolem function on the left".into()))
        }
        Expr::Rel(_) | Expr::Domain(_) | Expr::Empty(_) => Err(FailureReason::LeftNormalizeFailed(
            format!("unexpected simple lhs while normalizing {sym}"),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapcomp_algebra::{parse_constraint, parse_constraints};

    fn sig() -> Signature {
        Signature::from_arities([("R", 2), ("S", 2), ("T", 2), ("U", 2), ("V", 2)])
    }

    fn reg() -> Registry {
        Registry::standard()
    }

    #[test]
    fn example_7_left_normalization() {
        // R − S ⊆ T,  π(S) ⊆ U  with S to eliminate: normalization produces
        // R ⊆ S ∪ T and S ⊆ (U × D^k) permuted.
        let constraints = parse_constraints("R - S <= T; project[0,1](S) <= U").unwrap().into_vec();
        let (definition, others) = left_normalize(constraints, "S", &sig(), &reg()).unwrap();
        // S is binary and fully projected, so no padding is necessary and the
        // upper bound is a permutation of U.
        assert_eq!(*definition, Expr::rel("U").project(vec![0, 1]));
        assert_eq!(others, vec![parse_constraint("R <= S + T").unwrap()]);
    }

    #[test]
    fn example_7_and_10_left_compose() {
        let constraints = parse_constraints("R - S <= T; project[0,1](S) <= U").unwrap().into_vec();
        let result = left_compose(&constraints, "S", &sig(), &reg()).unwrap();
        // Example 10 (modulo the harmless identity projection):
        // R ⊆ π(U) ∪ T.
        assert_eq!(result.len(), 1);
        assert_eq!(result[0], parse_constraint("R <= project[0,1](U) + T").unwrap());
        assert!(result.iter().all(|c| !c.mentions("S")));
    }

    #[test]
    fn example_8_fails_on_intersection() {
        let constraints = parse_constraints("R & S <= T; project[0,1](S) <= U").unwrap().into_vec();
        let err = left_compose(&constraints, "S", &sig(), &reg()).unwrap_err();
        assert!(matches!(err, FailureReason::LeftNormalizeFailed(_)));
    }

    #[test]
    fn examples_9_11_12_trivial_bound_and_domain_elimination() {
        // R ∩ T ⊆ S,  U ⊆ π(S): S never appears alone on the left, so the
        // trivial bound S ⊆ D^r is used, and afterwards both constraints
        // reduce to D-only right-hand sides and disappear (Example 12).
        let constraints = parse_constraints("R & T <= S; U <= project[0,1](S)").unwrap().into_vec();
        let result = left_compose(&constraints, "S", &sig(), &reg()).unwrap();
        assert!(result.is_empty(), "expected all constraints to be deleted, got {result:?}");
    }

    #[test]
    fn selection_rule_keeps_equivalence_shape() {
        // σ_c(S) ⊆ T: the rewrite moves S alone to the left.
        let constraints = parse_constraints("select[#0 = 5](S) <= T; R <= S").unwrap().into_vec();
        let (definition, others) = left_normalize(constraints, "S", &sig(), &reg()).unwrap();
        assert!(definition.mentions("T"));
        assert!(definition.mentions_domain());
        assert_eq!(others, vec![parse_constraint("R <= S").unwrap()]);
    }

    #[test]
    fn fails_when_symbol_on_both_sides() {
        let constraints = parse_constraints("S & R <= S * T").unwrap().into_vec();
        assert_eq!(
            left_compose(&constraints, "S", &sig(), &reg()),
            Err(FailureReason::SymbolOnBothSides)
        );
    }

    #[test]
    fn fails_when_rhs_not_monotone() {
        // T2 ⊆ T3 − σc(S): rhs anti-monotone in S.
        let constraints = parse_constraints("R <= T - S; S <= U").unwrap().into_vec();
        assert_eq!(
            left_compose(&constraints, "S", &sig(), &reg()),
            Err(FailureReason::NotRightMonotone)
        );
    }

    #[test]
    fn equalities_are_split_before_normalizing() {
        // S = U is an equality: both directions are used, S is eliminated and
        // the downstream constraint references U.
        let constraints = parse_constraints("S = U; R <= S + T").unwrap().into_vec();
        let result = left_compose(&constraints, "S", &sig(), &reg()).unwrap();
        assert!(result.iter().all(|c| !c.mentions("S")));
        assert!(result.contains(&parse_constraint("R <= U + T").unwrap()));
        // The other direction U ⊆ S collapses into the bound and disappears
        // as part of the definition; only non-S constraints remain.
        assert!(result.iter().all(|c| !c.mentions("S")));
    }

    #[test]
    fn union_on_the_left_splits() {
        let constraints = parse_constraints("S + R <= T; V <= S").unwrap().into_vec();
        let result = left_compose(&constraints, "S", &sig(), &reg()).unwrap();
        // S ⊆ T (from the split), R ⊆ T stays, V ⊆ S becomes V ⊆ T.
        assert!(result.contains(&parse_constraint("R <= T").unwrap()));
        assert!(result.contains(&parse_constraint("V <= T").unwrap()));
        assert!(result.iter().all(|c| !c.mentions("S")));
    }

    #[test]
    fn projection_with_duplicate_columns_fails() {
        let constraints = parse_constraints("project[0,0](S) <= R; T <= S").unwrap().into_vec();
        let err = left_compose(&constraints, "S", &sig(), &reg()).unwrap_err();
        assert!(matches!(err, FailureReason::LeftNormalizeFailed(_)));
    }

    #[test]
    fn partial_projection_pads_with_domain() {
        // π_0(S) ⊆ U' where U' is unary: S ⊆ π_ρ(U' × D).
        let sig = Signature::from_arities([("S", 2), ("W", 1), ("R", 2)]);
        let constraints = parse_constraints("project[0](S) <= W; R <= S").unwrap().into_vec();
        let (definition, _) = left_normalize(constraints, "S", &sig, &reg()).unwrap();
        assert_eq!(*definition, Expr::rel("W").product(Expr::domain(1)).project(vec![0, 1]));
    }
}
