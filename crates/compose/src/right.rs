//! Step 3 of ELIMINATE: right compose (paper §3.5).
//!
//! Right compose is dual to left compose: it isolates the symbol `S` on the
//! *right* of a single constraint `E1 ⊆ S` (right normalization, §3.5.1,
//! introducing Skolem functions to handle projection), replaces `S` by `E1`
//! inside every left-hand side that is monotone in `S` (basic right compose,
//! §3.5.2), removes the introduced Skolem functions (deskolemization,
//! §3.5.3), and finally eliminates the empty relation `∅` (§3.5.4).

use std::sync::Arc;

use mapcomp_algebra::{Constraint, Expr, Signature, SkolemFn};

use crate::deskolem::deskolemize;
use crate::monotone::is_monotone;
use crate::outcome::FailureReason;
use crate::registry::Registry;
use crate::simplify::simplify_constraints;

/// Generates fresh Skolem function names, unique within one ELIMINATE call.
#[derive(Debug, Default)]
pub struct SkolemNamer {
    counter: usize,
}

impl SkolemNamer {
    /// Create a namer.
    pub fn new() -> Self {
        SkolemNamer::default()
    }

    /// Produce a fresh function name. The eliminated symbol is embedded for
    /// readability of intermediate output.
    pub fn fresh(&mut self, sym: &str) -> String {
        self.counter += 1;
        format!("f_{sym}_{}", self.counter)
    }
}

/// Attempt to eliminate `sym` by right composition.
pub fn right_compose(
    constraints: &[Constraint],
    sym: &str,
    sig: &Signature,
    registry: &Registry,
) -> Result<Vec<Constraint>, FailureReason> {
    if constraints.iter().any(|c| c.lhs.mentions(sym) && c.rhs.mentions(sym)) {
        return Err(FailureReason::SymbolOnBothSides);
    }

    // Convert equalities containing S into containments.
    let mut work: Vec<Constraint> = Vec::new();
    for constraint in constraints {
        if constraint.mentions(sym) {
            work.extend(constraint.as_containments());
        } else {
            work.push(constraint.clone());
        }
    }

    // Check left-monotonicity in S.
    for constraint in &work {
        if constraint.lhs.mentions(sym) && !is_monotone(&constraint.lhs, sym, registry) {
            return Err(FailureReason::NotLeftMonotone);
        }
    }

    // Right-normalize for S.
    let mut namer = SkolemNamer::new();
    let (lower_bound, mut others) = right_normalize(work, sym, sig, registry, &mut namer)?;

    // Basic right compose: substitute the lower bound for S in left-hand sides.
    for constraint in &mut others {
        if constraint.rhs.mentions(sym) {
            return Err(FailureReason::SymbolRemains);
        }
        if constraint.lhs.mentions(sym) {
            if !is_monotone(&constraint.lhs, sym, registry) {
                return Err(FailureReason::NotLeftMonotone);
            }
            constraint.lhs = Expr::substitute(&constraint.lhs, sym, &lower_bound);
        }
    }

    // Deskolemize if normalization introduced Skolem functions.
    let deskolemized = if others.iter().any(Constraint::has_skolem) {
        deskolemize(others, sig, registry)?
    } else {
        others
    };

    // Eliminate the empty relation and drop trivial constraints.
    Ok(simplify_constraints(deskolemized, registry))
}

/// Right normalization (§3.5.1): bring the constraints into a form where
/// `sym` appears on the right of exactly one constraint `E1 ⊆ S`. Returns
/// `E1` and the remaining constraints.
pub fn right_normalize(
    mut work: Vec<Constraint>,
    sym: &str,
    sig: &Signature,
    registry: &Registry,
    namer: &mut SkolemNamer,
) -> Result<(Arc<Expr>, Vec<Constraint>), FailureReason> {
    loop {
        let position = work.iter().position(|c| c.rhs.mentions(sym) && !c.rhs.is_relation(sym));
        let Some(index) = position else { break };
        let constraint = work.remove(index);
        let rewritten = right_rewrite_step(&constraint, sym, sig, registry, namer)?;
        work.extend(rewritten);
    }

    // Collapse every `E_i ⊆ S` into a single `E_1 ∪ ... ∪ E_n ⊆ S`.
    let mut bounds: Vec<Arc<Expr>> = Vec::new();
    let mut others: Vec<Constraint> = Vec::new();
    for constraint in work {
        if constraint.rhs.is_relation(sym) {
            bounds.push(constraint.lhs);
        } else {
            others.push(constraint);
        }
    }
    let lower_bound = match bounds.len() {
        0 => {
            // "If S does not appear on the rhs of any expression, we add the
            // constraint ∅ ⊆ S."
            let arity = sig.arity(sym).map_err(|_| {
                FailureReason::RightNormalizeFailed(format!("unknown arity of {sym}"))
            })?;
            Arc::new(Expr::empty(arity))
        }
        _ => {
            let mut iter = bounds.into_iter();
            let first = iter.next().expect("non-empty");
            iter.fold(first, |acc, bound| Arc::new(Expr::Union(acc, bound)))
        }
    };
    Ok((lower_bound, others))
}

/// One right-normalization rewriting step for a constraint whose rhs contains
/// `sym` in a complex expression. Implements the identities of §3.5.1:
///
/// ```text
/// ∪ : E1 ⊆ E2 ∪ E3  ↔  E1 − E3 ⊆ E2   (or E1 − E2 ⊆ E3)
/// ∩ : E1 ⊆ E2 ∩ E3  ↔  E1 ⊆ E2,  E1 ⊆ E3
/// × : E1 ⊆ E2 × E3  ↔  π_left(E1) ⊆ E2,  π_right(E1) ⊆ E3
/// − : E1 ⊆ E2 − E3  ↔  E1 ⊆ E2,  E1 ∩ E3 ⊆ ∅
/// π : E1 ⊆ π_I(E2)  ↔  π_ρ(f…(E1)) ⊆ E2      (Skolemization)
/// σ : E1 ⊆ σ_c(E2)  ↔  E1 ⊆ E2,  E1 ⊆ σ_c(D^r)
/// ```
fn right_rewrite_step(
    constraint: &Constraint,
    sym: &str,
    sig: &Signature,
    registry: &Registry,
    namer: &mut SkolemNamer,
) -> Result<Vec<Constraint>, FailureReason> {
    let lhs = Arc::clone(&constraint.lhs);
    match constraint.rhs.as_ref() {
        Expr::Union(a, b) => {
            // Move towards the operand that contains S.
            let (keep, drop) = if a.mentions(sym) { (a, b) } else { (b, a) };
            Ok(vec![Constraint::containment(
                Expr::Difference(lhs, Arc::clone(drop)),
                Arc::clone(keep),
            )])
        }
        Expr::Intersect(a, b) => Ok(vec![
            Constraint::containment(Arc::clone(&lhs), Arc::clone(a)),
            Constraint::containment(lhs, Arc::clone(b)),
        ]),
        Expr::Product(a, b) => {
            let left_arity = a.arity(sig, registry.operators()).map_err(|e| {
                FailureReason::RightNormalizeFailed(format!("cannot type product operand: {e}"))
            })?;
            let right_arity = b.arity(sig, registry.operators()).map_err(|e| {
                FailureReason::RightNormalizeFailed(format!("cannot type product operand: {e}"))
            })?;
            let left_cols: Vec<usize> = (0..left_arity).collect();
            let right_cols: Vec<usize> = (left_arity..left_arity + right_arity).collect();
            Ok(vec![
                Constraint::containment(Expr::Project(left_cols, Arc::clone(&lhs)), Arc::clone(a)),
                Constraint::containment(Expr::Project(right_cols, lhs), Arc::clone(b)),
            ])
        }
        Expr::Difference(a, b) => {
            let arity = a.arity(sig, registry.operators()).map_err(|e| {
                FailureReason::RightNormalizeFailed(format!("cannot type difference operand: {e}"))
            })?;
            Ok(vec![
                Constraint::containment(Arc::clone(&lhs), Arc::clone(a)),
                Constraint::containment(Expr::Intersect(lhs, Arc::clone(b)), Expr::empty(arity)),
            ])
        }
        Expr::Project(cols, inner) => {
            skolemize_projection(lhs, cols, inner, sym, sig, registry, namer)
        }
        Expr::Select(pred, inner) => {
            let arity = inner.arity(sig, registry.operators()).map_err(|e| {
                FailureReason::RightNormalizeFailed(format!("cannot type selection operand: {e}"))
            })?;
            Ok(vec![
                Constraint::containment(Arc::clone(&lhs), Arc::clone(inner)),
                Constraint::containment(lhs, Expr::domain(arity).select(pred.clone())),
            ])
        }
        Expr::Apply(name, args) => {
            let rule =
                registry.rules(name).and_then(|r| r.right_normalize.as_ref()).ok_or_else(|| {
                    FailureReason::RightNormalizeFailed(format!(
                        "no right-normalization rule for operator `{name}`"
                    ))
                })?;
            rule(&lhs, args).ok_or_else(|| {
                FailureReason::RightNormalizeFailed(format!(
                    "right-normalization rule for `{name}` did not apply"
                ))
            })
        }
        Expr::Skolem(..) => {
            Err(FailureReason::RightNormalizeFailed("Skolem function on the right".into()))
        }
        Expr::Rel(_) | Expr::Domain(_) | Expr::Empty(_) => {
            Err(FailureReason::RightNormalizeFailed(format!(
                "unexpected simple rhs while normalizing {sym}"
            )))
        }
    }
}

/// Skolemization of a projection on the right (§3.5.1):
/// `E1 ⊆ π_I(E2)` becomes `π_ρ(f_1 … f_k(E1)) ⊆ E2`, where one fresh Skolem
/// function is introduced per projected-away column of `E2` and `ρ` permutes
/// the columns of the Skolem-extended `E1` into `E2`'s column order.
///
/// When `E2` is a base relation whose declared key is contained in `I`, the
/// Skolem functions depend only on the key columns (this "increases our
/// chances of success in deskolemize").
fn skolemize_projection(
    lhs: Arc<Expr>,
    cols: &[usize],
    inner: &Arc<Expr>,
    sym: &str,
    sig: &Signature,
    registry: &Registry,
    namer: &mut SkolemNamer,
) -> Result<Vec<Constraint>, FailureReason> {
    let inner_arity = inner.arity(sig, registry.operators()).map_err(|e| {
        FailureReason::RightNormalizeFailed(format!("cannot type projection operand: {e}"))
    })?;
    let mut seen = std::collections::BTreeSet::new();
    if !cols.iter().all(|c| seen.insert(*c)) {
        return Err(FailureReason::RightNormalizeFailed(
            "projection with duplicate columns".into(),
        ));
    }
    let kept = cols.len();

    // Dependencies of the Skolem functions: all of E1's columns, or only the
    // key columns when the projection retains a declared key of a base
    // relation.
    let mut deps: Vec<usize> = (0..kept).collect();
    if let Expr::Rel(name) = inner.as_ref() {
        if let Some(key) = sig.key(name) {
            let key_positions: Option<Vec<usize>> =
                key.iter().map(|k| cols.iter().position(|c| c == k)).collect();
            if let Some(key_deps) = key_positions {
                if !key_deps.is_empty() {
                    deps = key_deps;
                }
            }
        }
    }

    // Append one Skolem column per projected-away position of E2.
    let missing: Vec<usize> = (0..inner_arity).filter(|p| !cols.contains(p)).collect();
    let mut extended = lhs;
    for _ in &missing {
        extended = Arc::new(Expr::Skolem(SkolemFn::new(namer.fresh(sym), deps.clone()), extended));
    }

    // Permute into E2's column order: position p of E2 comes from column
    // `cols.position(p)` when kept, or from the Skolem column appended for it.
    let mut permutation = Vec::with_capacity(inner_arity);
    for p in 0..inner_arity {
        if let Some(i) = cols.iter().position(|&c| c == p) {
            permutation.push(i);
        } else {
            let j = missing.iter().position(|&m| m == p).expect("missing column");
            permutation.push(kept + j);
        }
    }
    Ok(vec![Constraint::containment(Expr::Project(permutation, extended), Arc::clone(inner))])
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapcomp_algebra::{parse_constraint, parse_constraints};

    fn sig() -> Signature {
        Signature::from_arities([("R", 1), ("S", 2), ("T", 2), ("U", 2), ("V", 2), ("W", 4)])
    }

    fn reg() -> Registry {
        Registry::standard()
    }

    #[test]
    fn example_13_right_normalization() {
        // S × T ⊆ U',  T ⊆ σc(S) × π(R'): normalizing for S leaves the first
        // constraint alone and splits the second into three constraints.
        let sig = Signature::from_arities([("S", 1), ("T", 2), ("U", 3), ("R", 2)]);
        let constraints = parse_constraints("S * T <= U; T <= select[#0 = 5](S) * project[0](R)")
            .unwrap()
            .into_vec();
        let mut namer = SkolemNamer::new();
        let (bound, others) = right_normalize(constraints, "S", &sig, &reg(), &mut namer).unwrap();
        // π_0(T) ⊆ S is the only constraint with S alone on the right.
        assert_eq!(*bound, Expr::rel("T").project(vec![0]));
        // The remaining constraints: the untouched S × T ⊆ U, the selection
        // residue π_0(T) ⊆ σc(D), and π_1(T) ⊆ π_0(R).
        assert_eq!(others.len(), 3);
        assert!(others.contains(&parse_constraint("S * T <= U").unwrap()));
        assert!(others.contains(&parse_constraint("project[0](T) <= select[#0 = 5](D^1)").unwrap()));
        assert!(others.contains(&parse_constraint("project[1](T) <= project[0](R)").unwrap()));
    }

    #[test]
    fn example_15_basic_right_compose() {
        let sig = Signature::from_arities([("S", 1), ("T", 2), ("U", 3), ("R", 2)]);
        let constraints = parse_constraints("S * T <= U; T <= select[#0 = 5](S) * project[0](R)")
            .unwrap()
            .into_vec();
        let result = right_compose(&constraints, "S", &sig, &reg()).unwrap();
        assert!(result.iter().all(|c| !c.mentions("S")));
        // Example 15: π(T) × T ⊆ U survives (plus the two residues).
        assert!(result.contains(&parse_constraint("project[0](T) * T <= U").unwrap()));
        assert_eq!(result.len(), 3);
    }

    #[test]
    fn skolemization_of_projection() {
        // R ⊆ π_0(S) with R unary, S binary: f(R) ⊆ S.
        let constraints = parse_constraints("R <= project[0](S); S <= T").unwrap().into_vec();
        let mut namer = SkolemNamer::new();
        let (bound, others) =
            right_normalize(constraints, "S", &sig(), &reg(), &mut namer).unwrap();
        assert!(bound.has_skolem());
        assert_eq!(bound.skolem_names().len(), 1);
        assert_eq!(others, vec![parse_constraint("S <= T").unwrap()]);
    }

    #[test]
    fn full_right_compose_with_deskolemization() {
        // R ⊆ π_0(S), S ⊆ T: composing away S should give (up to trivial
        // projections) R ⊆ π_0(T).
        let constraints = parse_constraints("R <= project[0](S); S <= T").unwrap().into_vec();
        let result = right_compose(&constraints, "S", &sig(), &reg()).unwrap();
        assert!(result.iter().all(|c| !c.mentions("S")), "result still mentions S: {result:?}");
        assert!(!result.iter().any(Constraint::has_skolem));
        assert_eq!(result.len(), 1);
        let only = &result[0];
        // The surviving constraint must relate R and T.
        assert!(only.mentions("R") && only.mentions("T"));
    }

    #[test]
    fn empty_lower_bound_when_symbol_never_on_rhs() {
        // S only appears on left-hand sides: the lower bound is ∅ and the
        // constraints simplify away or lose S.
        let constraints = parse_constraints("S & T <= U; V <= T").unwrap().into_vec();
        let result = right_compose(&constraints, "S", &sig(), &reg()).unwrap();
        assert!(result.iter().all(|c| !c.mentions("S")));
        assert_eq!(result, vec![parse_constraint("V <= T").unwrap()]);
    }

    #[test]
    fn difference_and_union_rules() {
        // E1 ⊆ S − T and E2 ⊆ S ∪ T.
        let constraints = parse_constraints("U <= S - T; V <= S + T; S <= W2").unwrap().into_vec();
        let sig = Signature::from_arities([("S", 2), ("T", 2), ("U", 2), ("V", 2), ("W2", 2)]);
        let mut namer = SkolemNamer::new();
        let (bound, others) = right_normalize(constraints, "S", &sig, &reg(), &mut namer).unwrap();
        // Bound is U ∪ (V − T); residues are U ∩ T ⊆ ∅ and S ⊆ W2 untouched.
        assert_eq!(*bound, Expr::rel("U").union(Expr::rel("V").difference(Expr::rel("T"))));
        assert!(others.contains(&parse_constraint("U & T <= empty^2").unwrap()));
        assert!(others.contains(&parse_constraint("S <= W2").unwrap()));
    }

    #[test]
    fn not_left_monotone_fails() {
        // (T − S) ⊆ U has S anti-monotone on the left.
        let constraints = parse_constraints("T - S <= U; V <= S").unwrap().into_vec();
        assert_eq!(
            right_compose(&constraints, "S", &sig(), &reg()),
            Err(FailureReason::NotLeftMonotone)
        );
    }

    #[test]
    fn symbol_on_both_sides_fails() {
        let constraints = parse_constraints("S & T <= S + U").unwrap().into_vec();
        assert_eq!(
            right_compose(&constraints, "S", &sig(), &reg()),
            Err(FailureReason::SymbolOnBothSides)
        );
    }

    #[test]
    fn key_minimizes_skolem_dependencies() {
        // S has key {0}; projecting columns 0,1 of a ternary S keeps the key,
        // so the Skolem function introduced for column 2 depends only on the
        // key column.
        let mut sig = Signature::new();
        sig.add_keyed("S", 3, vec![0]);
        sig.add_relation("R", 2);
        sig.add_relation("T", 3);
        let constraints = parse_constraints("R <= project[0,1](S); S <= T").unwrap().into_vec();
        let mut namer = SkolemNamer::new();
        let (bound, _) = right_normalize(constraints, "S", &sig, &reg(), &mut namer).unwrap();
        // Find the Skolem node and inspect its dependencies.
        fn find_skolem(expr: &Expr) -> Option<&SkolemFn> {
            match expr {
                Expr::Skolem(f, _) => Some(f),
                _ => expr.children().into_iter().find_map(find_skolem),
            }
        }
        let skolem = find_skolem(&bound).expect("skolem introduced");
        assert_eq!(skolem.deps, vec![0]);
    }

    #[test]
    fn selection_rule_splits() {
        let constraints = parse_constraints("U <= select[#0 = #1](S); S <= V").unwrap().into_vec();
        let result = right_compose(&constraints, "S", &sig(), &reg()).unwrap();
        assert!(result.iter().all(|c| !c.mentions("S")));
        assert!(result.contains(&parse_constraint("U <= V").unwrap()));
        assert!(result.contains(&parse_constraint("U <= select[#0 = #1](D^2)").unwrap()));
    }
}
