//! Output-mapping simplification.
//!
//! Paper §4: "We found that the output constraints produced by our algorithm
//! are often more verbose than the ones derived manually, so simplification
//! of output mappings is essential. An example of such simplification is
//! detecting and removing implied constraints. Mapping simplification appears
//! to be a problem of independent interest and is out of scope of this
//! paper."
//!
//! This module provides that missing post-processing pass as an extension:
//! *sound* algebraic expression rewrites (identity projections, collapsed
//! projections and selections, idempotent set operations) plus *sound*
//! syntactic removal of implied constraints (duplicates, containments implied
//! by an equality, transitive containment chains, trivially satisfied
//! constraints). Every rewrite preserves constraint-set equivalence exactly,
//! so minimization can always be applied to `COMPOSE` output.

use std::collections::BTreeSet;
use std::sync::Arc;

use mapcomp_algebra::{Constraint, ConstraintKind, Expr, Pred, Signature};

use crate::registry::Registry;
use crate::simplify::{is_trivial, simplify_expr};

/// Simplify one expression with equivalence-preserving rewrites. In addition
/// to the domain/empty identities of [`crate::simplify`], this collapses:
///
/// * identity projections `π_{0..r-1}(E)` (when `E`'s arity is known from the
///   signature),
/// * stacked projections `π_I(π_J(E))`,
/// * stacked selections `σ_c1(σ_c2(E))`,
/// * selections with a `true` predicate,
/// * idempotent set operations `E ∪ E`, `E ∩ E` and the self-difference
///   `E − E`.
pub fn minimize_expr(expr: &Arc<Expr>, sig: &Signature, registry: &Registry) -> Arc<Expr> {
    let mut current = simplify_expr(expr, registry);
    loop {
        let next = simplify_expr(&rewrite(&current, sig, registry), registry);
        if next == current {
            return current;
        }
        current = next;
    }
}

fn rewrite(expr: &Arc<Expr>, sig: &Signature, registry: &Registry) -> Arc<Expr> {
    let rebuilt = Expr::map_children(expr, |child| rewrite(child, sig, registry));
    rewrite_node(&rebuilt, sig, registry)
}

fn rewrite_node(expr: &Arc<Expr>, sig: &Signature, registry: &Registry) -> Arc<Expr> {
    match expr.as_ref() {
        Expr::Project(cols, inner) => {
            // π_I(π_J(E)) = π_{J∘I}(E).
            if let Expr::Project(inner_cols, innermost) = inner.as_ref() {
                let composed: Option<Vec<usize>> =
                    cols.iter().map(|&c| inner_cols.get(c).copied()).collect();
                if let Some(composed) = composed {
                    return Arc::new(Expr::Project(composed, Arc::clone(innermost)));
                }
            }
            // Identity projection.
            let identity: Vec<usize> = (0..cols.len()).collect();
            if *cols == identity {
                if let Ok(arity) = inner.arity(sig, registry.operators()) {
                    if arity == cols.len() {
                        return Arc::clone(inner);
                    }
                }
            }
            Arc::clone(expr)
        }
        Expr::Select(pred, inner) => {
            if *pred == Pred::True {
                return Arc::clone(inner);
            }
            // σ_c1(σ_c2(E)) = σ_{c1 ∧ c2}(E).
            if let Expr::Select(inner_pred, innermost) = inner.as_ref() {
                let pred = inner_pred.clone().and(pred.clone());
                return Arc::new(Expr::Select(pred, Arc::clone(innermost)));
            }
            Arc::clone(expr)
        }
        Expr::Union(a, b) | Expr::Intersect(a, b) if a == b => Arc::clone(a),
        Expr::Difference(a, b) if a == b => match a.arity(sig, registry.operators()) {
            Ok(arity) => Arc::new(Expr::empty(arity)),
            Err(_) => Arc::clone(expr),
        },
        _ => Arc::clone(expr),
    }
}

/// Is `candidate` implied by the other constraints for purely syntactic,
/// equivalence-preserving reasons?
fn implied_by(candidate: &Constraint, others: &[&Constraint]) -> bool {
    if is_trivial(candidate) {
        return true;
    }
    match candidate.kind {
        ConstraintKind::Containment => {
            // Implied by an equality of the two sides (either orientation).
            let by_equality = others.iter().any(|other| {
                other.kind == ConstraintKind::Equality
                    && ((other.lhs == candidate.lhs && other.rhs == candidate.rhs)
                        || (other.lhs == candidate.rhs && other.rhs == candidate.lhs))
            });
            if by_equality {
                return true;
            }
            // Implied by a transitive chain lhs ⊆ X, X ⊆ rhs (one step).
            others.iter().any(|first| {
                first.lhs == candidate.lhs
                    && others.iter().any(|second| {
                        second.lhs == first.rhs
                            && second.rhs == candidate.rhs
                            && !std::ptr::eq(*first, candidate)
                    })
            })
        }
        ConstraintKind::Equality => false,
    }
}

/// Remove constraints implied by the remaining ones (sound syntactic checks
/// only) and exact duplicates, preserving the original order of survivors.
pub fn remove_implied(constraints: Vec<Constraint>) -> Vec<Constraint> {
    let mut kept: Vec<Constraint> = Vec::new();
    let mut seen: BTreeSet<Constraint> = BTreeSet::new();
    // A containment is also a duplicate of an equality over the same sides.
    for constraint in &constraints {
        // Skip exact duplicates up front.
        if seen.contains(constraint) {
            continue;
        }
        seen.insert(constraint.clone());
        kept.push(constraint.clone());
    }
    // Then drop constraints implied by the rest, one at a time (checking
    // against the current survivor set so that two constraints cannot justify
    // deleting each other).
    let mut index = 0;
    while index < kept.len() {
        let candidate = kept[index].clone();
        let others: Vec<&Constraint> =
            kept.iter().enumerate().filter(|(i, _)| *i != index).map(|(_, c)| c).collect();
        if implied_by(&candidate, &others) {
            kept.remove(index);
        } else {
            index += 1;
        }
    }
    kept
}

/// Minimize a whole mapping: simplify every expression, then remove implied
/// constraints. The result is equivalent to the input constraint set over the
/// same signature.
pub fn minimize_mapping(
    constraints: Vec<Constraint>,
    sig: &Signature,
    registry: &Registry,
) -> Vec<Constraint> {
    let simplified: Vec<Constraint> = constraints
        .into_iter()
        .map(|constraint| Constraint {
            lhs: minimize_expr(&constraint.lhs, sig, registry),
            rhs: minimize_expr(&constraint.rhs, sig, registry),
            kind: constraint.kind,
        })
        .collect();
    remove_implied(simplified)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapcomp_algebra::{parse_constraints, parse_expr, Signature};

    fn sig() -> Signature {
        Signature::from_arities([("R", 2), ("S", 2), ("T", 2), ("U", 1)])
    }

    fn reg() -> Registry {
        Registry::standard()
    }

    fn minimized(source: &str) -> Expr {
        Expr::clone(&minimize_expr(&Arc::new(parse_expr(source).unwrap()), &sig(), &reg()))
    }

    #[test]
    fn identity_projection_is_removed() {
        assert_eq!(minimized("project[0,1](R)"), Expr::rel("R"));
        // Not the identity: a permutation must stay.
        assert_eq!(minimized("project[1,0](R)"), parse_expr("project[1,0](R)").unwrap());
        // Not the identity: narrowing must stay.
        assert_eq!(minimized("project[0](R)"), parse_expr("project[0](R)").unwrap());
    }

    #[test]
    fn stacked_projections_collapse() {
        assert_eq!(minimized("project[0](project[1,0](R))"), parse_expr("project[1](R)").unwrap());
        // Collapsing composes with identity elimination.
        assert_eq!(minimized("project[0,1](project[0,1](R))"), Expr::rel("R"));
    }

    #[test]
    fn stacked_selections_collapse() {
        let out = minimized("select[#0 = 1](select[#1 = 2](R))");
        match out {
            Expr::Select(pred, inner) => {
                assert_eq!(*inner, Expr::rel("R"));
                assert_eq!(pred.conjuncts().len(), 2);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(minimized("select[true](R)"), Expr::rel("R"));
    }

    #[test]
    fn idempotent_set_operations() {
        assert_eq!(minimized("R + R"), Expr::rel("R"));
        assert_eq!(minimized("R & R"), Expr::rel("R"));
        assert_eq!(minimized("R - R"), Expr::empty(2));
        // Different operands are untouched.
        assert_eq!(minimized("R + S"), parse_expr("R + S").unwrap());
    }

    #[test]
    fn nested_rewrites_reach_fixpoint() {
        // π identity over a collapsed selection over a self-union.
        assert_eq!(minimized("project[0,1](select[true](R + R))"), Expr::rel("R"));
        // Interaction with the domain/empty identities of the base simplifier.
        assert_eq!(minimized("project[0,1]((R - R) + S)"), Expr::rel("S"));
    }

    #[test]
    fn implied_containment_from_equality_is_removed() {
        let constraints = parse_constraints("R = S; R <= S; S <= R; R <= T").unwrap().into_vec();
        let out = remove_implied(constraints);
        assert_eq!(out, parse_constraints("R = S; R <= T").unwrap().into_vec());
    }

    #[test]
    fn transitive_chain_is_removed() {
        let constraints = parse_constraints("R <= S; S <= T; R <= T").unwrap().into_vec();
        let out = remove_implied(constraints);
        assert_eq!(out, parse_constraints("R <= S; S <= T").unwrap().into_vec());
    }

    #[test]
    fn duplicates_and_trivia_are_removed() {
        let constraints =
            parse_constraints("R <= S; R <= S; R <= R; empty^2 <= T; R <= D^2").unwrap().into_vec();
        let out = remove_implied(constraints);
        assert_eq!(out, parse_constraints("R <= S").unwrap().into_vec());
    }

    #[test]
    fn non_implied_constraints_survive() {
        let constraints = parse_constraints("R <= S; S <= R; T <= S").unwrap().into_vec();
        let out = remove_implied(constraints.clone());
        assert_eq!(out, constraints);
    }

    #[test]
    fn minimize_mapping_combines_both_passes() {
        let constraints =
            parse_constraints("project[0,1](R) <= select[true](S); R = S; project[0](U * U) <= U")
                .unwrap()
                .into_vec();
        let out = minimize_mapping(constraints, &sig(), &reg());
        // The first constraint simplifies to R <= S, which the equality
        // implies, so only the equality and the (simplified) third remain.
        assert_eq!(out.len(), 2);
        assert!(out.contains(&parse_constraints("R = S").unwrap().into_vec()[0]));
        assert!(out.iter().all(|c| !c.to_string().contains("true")));
    }

    #[test]
    fn minimization_shrinks_compose_output_for_example_1() {
        // End-to-end: the verbose Example 1 output gets strictly smaller but
        // stays equivalent (spot-checked by the bounded-model checker).
        use crate::compose::{compose, ComposeConfig};
        use crate::verify::{check_equivalence, VerifyConfig};
        let doc = mapcomp_algebra::parse_document(
            r"
            schema sigma1 { Movies/3; }
            schema sigma2 { Good/2; }
            schema sigma3 { Names/2; }
            mapping m12 : sigma1 -> sigma2 { project[0,1](Movies) <= Good; }
            mapping m23 : sigma2 -> sigma3 { project[0,1](Good) <= Names; }
            ",
        )
        .unwrap();
        let task = doc.task("m12", "m23").unwrap();
        let registry = reg();
        let result = compose(&task, &registry, &ComposeConfig::default()).unwrap();
        let full = task.full_signature().unwrap();
        let before: usize = result.constraints.iter().map(Constraint::op_count).sum();
        let minimized = minimize_mapping(result.constraints.clone().into_vec(), &full, &registry);
        let after: usize = minimized.iter().map(Constraint::op_count).sum();
        assert!(after <= before, "minimization must not grow the mapping");

        let reduced_sig = Signature::from_arities([("Movies", 3), ("Names", 2)]);
        let report = check_equivalence(
            &result.constraints.clone().into_vec(),
            &full,
            &minimized,
            &reduced_sig,
            &registry,
            &VerifyConfig {
                soundness_samples: 40,
                completeness_samples: 5,
                ..VerifyConfig::default()
            },
        );
        report.assert_equivalent();
    }
}
