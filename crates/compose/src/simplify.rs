//! Simplification of the special relations `D^r` and `∅`.
//!
//! Left compose may introduce the active-domain relation `D` (paper §3.4.3)
//! and right compose may introduce the empty relation `∅` (paper §3.5.4).
//! This module implements the identities used to eliminate them "to the
//! extent that our knowledge of the operators allows", plus the final
//! cleanup that deletes constraints which have become trivially satisfied.

use std::sync::Arc;

use mapcomp_algebra::{Constraint, ConstraintKind, Expr};

use crate::registry::Registry;

/// Apply the domain- and empty-relation identities bottom-up until no rule
/// applies, consulting user-supplied simplification rules for user-defined
/// operators. A subtree no identity touches comes back as the `Arc` it was,
/// so `expr` itself when nothing applies.
pub fn simplify_expr(expr: &Arc<Expr>, registry: &Registry) -> Arc<Expr> {
    let mut current = Arc::clone(expr);
    loop {
        let next = rewrite_once(&current, registry);
        if next == current {
            return current;
        }
        current = next;
    }
}

fn rewrite_once(expr: &Arc<Expr>, registry: &Registry) -> Arc<Expr> {
    // First rewrite children, then the node itself.
    let rebuilt = Expr::map_children(expr, |child| rewrite_once(child, registry));
    rewrite_node(&rebuilt, registry)
}

/// Single-node rewrite implementing the identities of §3.4.3 and §3.5.4.
fn rewrite_node(expr: &Arc<Expr>, registry: &Registry) -> Arc<Expr> {
    let rewritten = match expr.as_ref() {
        // -- active-domain identities (§3.4.3) -----------------------------
        // E ∪ D^r = D^r, E ∩ D^r = E, E − D^r = ∅, π_I(D^r) = D^|I|.
        Expr::Union(a, b) => match (a.as_ref(), b.as_ref()) {
            (Expr::Domain(r), _) | (_, Expr::Domain(r)) => Expr::domain(*r),
            // -- empty identities (§3.5.4): E ∪ ∅ = E ----------------------
            (Expr::Empty(_), _) => return Arc::clone(b),
            (_, Expr::Empty(_)) => return Arc::clone(a),
            _ => return Arc::clone(expr),
        },
        Expr::Intersect(a, b) => match (a.as_ref(), b.as_ref()) {
            (Expr::Domain(_), _) => return Arc::clone(b),
            (_, Expr::Domain(_)) => return Arc::clone(a),
            (Expr::Empty(r), _) | (_, Expr::Empty(r)) => Expr::empty(*r),
            _ => return Arc::clone(expr),
        },
        Expr::Difference(a, b) => match (a.as_ref(), b.as_ref()) {
            (_, Expr::Domain(r)) => Expr::empty(*r),
            (Expr::Empty(r), _) => Expr::empty(*r),
            (_, Expr::Empty(_)) => return Arc::clone(a),
            _ => return Arc::clone(expr),
        },
        Expr::Project(cols, inner) => match inner.as_ref() {
            Expr::Domain(_) => Expr::domain(cols.len()),
            Expr::Empty(_) => Expr::empty(cols.len()),
            _ => return Arc::clone(expr),
        },
        Expr::Select(_, inner) => match inner.as_ref() {
            // σ_c(∅) = ∅. (No identity for σ over D: the selection actually
            // constrains the tuples, §3.4.3.)
            Expr::Empty(r) => Expr::empty(*r),
            _ => return Arc::clone(expr),
        },
        Expr::Product(a, b) => match (a.as_ref(), b.as_ref()) {
            // D^r × D^s = D^(r+s); products with ∅ are empty whenever the
            // other operand's arity is syntactically known.
            (Expr::Domain(r), Expr::Domain(s)) => Expr::domain(r + s),
            (Expr::Empty(r), Expr::Domain(s)) | (Expr::Domain(s), Expr::Empty(r)) => {
                Expr::empty(r + s)
            }
            (Expr::Empty(r), Expr::Empty(s)) => Expr::empty(r + s),
            _ => return Arc::clone(expr),
        },
        Expr::Apply(name, args) => {
            let touches_special =
                args.iter().any(|arg| matches!(arg, Expr::Domain(_) | Expr::Empty(_)));
            let rule = registry.rules(name).and_then(|r| r.simplify.as_ref());
            match rule.filter(|_| touches_special).and_then(|rule| rule(args)) {
                Some(simplified) => simplified,
                None => return Arc::clone(expr),
            }
        }
        _ => return Arc::clone(expr),
    };
    Arc::new(rewritten)
}

/// Is a constraint trivially satisfied by every instance, so that it can be
/// deleted? Covers `E ⊆ D^r` (§3.4.3), `∅ ⊆ E` (§3.5.4) and `E ⊆ E`.
pub fn is_trivial(constraint: &Constraint) -> bool {
    if constraint.lhs == constraint.rhs {
        return true;
    }
    match constraint.kind {
        ConstraintKind::Containment => {
            matches!(*constraint.rhs, Expr::Domain(_)) || matches!(*constraint.lhs, Expr::Empty(_))
        }
        ConstraintKind::Equality => false,
    }
}

/// Simplify both sides of every constraint and drop the ones that have become
/// trivially satisfied.
pub fn simplify_constraints(constraints: Vec<Constraint>, registry: &Registry) -> Vec<Constraint> {
    constraints
        .into_iter()
        .map(|c| Constraint {
            lhs: simplify_expr(&c.lhs, registry),
            rhs: simplify_expr(&c.rhs, registry),
            kind: c.kind,
        })
        .filter(|c| !is_trivial(c))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapcomp_algebra::Pred;

    fn reg() -> Registry {
        Registry::standard()
    }

    /// [`super::simplify_expr`] on an owned expression.
    fn simplify_expr(expr: &Expr, registry: &Registry) -> Expr {
        Expr::clone(&super::simplify_expr(&Arc::new(expr.clone()), registry))
    }

    #[test]
    fn domain_identities() {
        let r = Expr::rel("R");
        assert_eq!(simplify_expr(&r.clone().union(Expr::domain(2)), &reg()), Expr::domain(2));
        assert_eq!(simplify_expr(&Expr::domain(2).union(r.clone()), &reg()), Expr::domain(2));
        assert_eq!(simplify_expr(&r.clone().intersect(Expr::domain(2)), &reg()), r.clone());
        assert_eq!(simplify_expr(&r.clone().difference(Expr::domain(2)), &reg()), Expr::empty(2));
        assert_eq!(simplify_expr(&Expr::domain(3).project(vec![0, 2]), &reg()), Expr::domain(2));
    }

    #[test]
    fn empty_identities() {
        let r = Expr::rel("R");
        assert_eq!(simplify_expr(&r.clone().union(Expr::empty(2)), &reg()), r.clone());
        assert_eq!(simplify_expr(&r.clone().intersect(Expr::empty(2)), &reg()), Expr::empty(2));
        assert_eq!(simplify_expr(&r.clone().difference(Expr::empty(2)), &reg()), r.clone());
        assert_eq!(simplify_expr(&Expr::empty(2).difference(r.clone()), &reg()), Expr::empty(2));
        assert_eq!(
            simplify_expr(&Expr::empty(2).select(Pred::eq_cols(0, 1)), &reg()),
            Expr::empty(2)
        );
        assert_eq!(simplify_expr(&Expr::empty(3).project(vec![1]), &reg()), Expr::empty(1));
    }

    #[test]
    fn nested_simplification_reaches_fixpoint() {
        // ((R ∩ D²) ∪ ∅) − D² simplifies to ∅.
        let e = Expr::rel("R")
            .intersect(Expr::domain(2))
            .union(Expr::empty(2))
            .difference(Expr::domain(2));
        assert_eq!(simplify_expr(&e, &reg()), Expr::empty(2));
        // Example 10/12 shape: (U × D^r) stays, but π(D^r) collapses.
        let e = Expr::domain(4).project(vec![0, 1]).union(Expr::rel("U"));
        assert_eq!(simplify_expr(&e, &reg()), Expr::domain(2));
    }

    #[test]
    fn products_of_special_relations() {
        assert_eq!(
            simplify_expr(&Expr::domain(1).product(Expr::domain(2)), &reg()),
            Expr::domain(3)
        );
        assert_eq!(simplify_expr(&Expr::empty(1).product(Expr::domain(2)), &reg()), Expr::empty(3));
    }

    #[test]
    fn user_operator_simplification() {
        let e = Expr::apply("semijoin", vec![Expr::rel("R").project(vec![0, 1]), Expr::empty(2)]);
        assert_eq!(simplify_expr(&e, &reg()), Expr::empty(2));
        let e = Expr::apply("tc", vec![Expr::empty(2)]);
        assert_eq!(simplify_expr(&e, &reg()), Expr::empty(2));
        // Without a rule the expression is left alone.
        let e = Expr::apply("mystery", vec![Expr::empty(2)]);
        assert_eq!(simplify_expr(&e, &Registry::new()), e);
    }

    #[test]
    fn trivial_constraints_are_dropped() {
        let constraints = vec![
            Constraint::containment(Expr::rel("R").intersect(Expr::rel("T")), Expr::domain(2)),
            Constraint::containment(Expr::rel("U"), Expr::domain(4).project(vec![0])),
            Constraint::containment(Expr::empty(1), Expr::rel("R")),
            Constraint::containment(Expr::rel("R"), Expr::rel("S")),
            Constraint::containment(Expr::rel("R"), Expr::rel("R")),
        ];
        let out = simplify_constraints(constraints, &reg());
        // Example 12: both domain-rhs constraints disappear; the ∅ ⊆ R
        // constraint disappears; R ⊆ R disappears; only R ⊆ S survives.
        assert_eq!(out, vec![Constraint::containment(Expr::rel("R"), Expr::rel("S"))]);
    }

    #[test]
    fn equalities_with_domain_are_kept() {
        let c = Constraint::equality(Expr::rel("R"), Expr::domain(2));
        assert!(!is_trivial(&c));
        let out = simplify_constraints(vec![c.clone()], &reg());
        assert_eq!(out, vec![c]);
    }
}
