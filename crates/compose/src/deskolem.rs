//! Deskolemization (paper §3.5.3).
//!
//! Right normalization introduces Skolem functions to handle projection; the
//! resulting constraints are second-order ("they hold iff there exist some
//! values for the Skolem functions which satisfy the constraints"). This
//! module removes the Skolem functions again, producing ordinary first-order
//! algebraic constraints, or fails — deskolemization "is complex and may fail
//! at several of the steps", in which case the enclosing right compose fails
//! for the symbol being eliminated.
//!
//! The 12 steps of the paper's procedure map onto this implementation as
//! follows:
//!
//! | paper step | here |
//! |---|---|
//! | 1. Unnest | conversion of each lhs to [`Conjunctive`] form |
//! | 2. Check for cycles | nested-function check |
//! | 3. Check for repeated function symbols | per-constraint repeated-symbol check |
//! | 4. Align variables | canonical bodies must coincide within a component |
//! | 5–7. Restricting atoms / restricted constraints | constraints with Skolem-restricting equalities are rejected |
//! | 8–9. Check / combine dependencies | all applications of the component's functions must share one argument list that determines the heads (declared keys are used here) |
//! | 10. Remove redundant constraints | exact duplicates are dropped |
//! | 11. Replace functions with ∃-variables | constraints sharing functions are merged into one containment whose right side joins their right sides and projects the function columns away |
//! | 12. Eliminate unnecessary ∃-variables | identity projections introduced by step 11 are simplified |

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use mapcomp_algebra::{Constraint, ConstraintKind, Expr, Pred, Signature, Value};

use crate::cq::{expr_to_conjunctive, Atom, Conjunctive, Term};
use crate::outcome::FailureReason;
use crate::registry::Registry;

/// A constraint whose left-hand side has been converted to conjunctive form.
#[derive(Debug, Clone)]
struct SkolemConstraint {
    cq: Conjunctive,
    rhs: Arc<Expr>,
}

/// Remove every Skolem function from the given constraints, or fail.
pub fn deskolemize(
    constraints: Vec<Constraint>,
    sig: &Signature,
    registry: &Registry,
) -> Result<Vec<Constraint>, FailureReason> {
    let mut passthrough: Vec<Constraint> = Vec::new();
    let mut skolemized: Vec<SkolemConstraint> = Vec::new();

    // Step 1 (unnest): convert every Skolem-bearing lhs to conjunctive form.
    for constraint in constraints {
        if !constraint.has_skolem() {
            passthrough.push(constraint);
            continue;
        }
        if constraint.kind != ConstraintKind::Containment || constraint.rhs.has_skolem() {
            return Err(FailureReason::DeskolemizeFailed(
                "Skolem functions outside the left side of a containment".into(),
            ));
        }
        let cq = expr_to_conjunctive(&constraint.lhs, sig)
            .map_err(|msg| FailureReason::DeskolemizeFailed(format!("cannot unnest: {msg}")))?;
        skolemized.push(SkolemConstraint { cq, rhs: constraint.rhs });
    }

    // Steps 2 and 3: cycles (via nesting) and repeated function symbols.
    for sc in &skolemized {
        check_nesting_and_repetition(&sc.cq)?;
    }

    // Steps 5–7: constraints that restrict Skolem values via selections
    // cannot be handled.
    if skolemized.iter().any(|sc| !sc.cq.func_eqs.is_empty()) {
        return Err(FailureReason::DeskolemizeFailed(
            "selection restricts a Skolem function value".into(),
        ));
    }

    // Constraints whose Skolem columns were projected away are first-order
    // already: convert them straight back to algebra.
    let mut remaining: Vec<SkolemConstraint> = Vec::new();
    for sc in skolemized {
        if sc.cq.has_func() {
            remaining.push(sc);
        } else {
            let lhs = sc.cq.to_expr().map_err(|msg| {
                FailureReason::DeskolemizeFailed(format!("rebuild failed: {msg}"))
            })?;
            passthrough.push(Constraint::containment(simplify_identity(lhs), sc.rhs));
        }
    }

    // Step 10: drop exact duplicates.
    let mut deduped: Vec<SkolemConstraint> = Vec::new();
    for sc in remaining {
        if !deduped.iter().any(|other| other.cq == sc.cq && other.rhs == sc.rhs) {
            deduped.push(sc);
        }
    }

    // Group constraints into components connected by shared function names.
    let components = group_components(&deduped);

    // Steps 4, 8, 9, 11 per component.
    for component in components {
        let members: Vec<&SkolemConstraint> = component.iter().map(|&i| &deduped[i]).collect();
        let combined = combine_component(&members, sig, registry)?;
        passthrough.push(combined);
    }

    Ok(passthrough)
}

/// Steps 2–3: reject nested Skolem functions and one function symbol applied
/// to different argument lists inside a single constraint.
fn check_nesting_and_repetition(cq: &Conjunctive) -> Result<(), FailureReason> {
    let mut seen: BTreeMap<String, Vec<Term>> = BTreeMap::new();
    for term in cq.head.iter().chain(cq.func_eqs.iter().flat_map(|(a, b)| [a, b])) {
        if term.has_nested_func() {
            return Err(FailureReason::DeskolemizeFailed("nested Skolem functions".into()));
        }
        if let Term::Func(name, args) = term {
            match seen.get(name) {
                Some(existing) if existing != args => {
                    return Err(FailureReason::DeskolemizeFailed(format!(
                        "function `{name}` applied to different arguments"
                    )))
                }
                _ => {
                    seen.insert(name.clone(), args.clone());
                }
            }
        }
    }
    Ok(())
}

/// Partition constraint indices into connected components linked by shared
/// Skolem function names.
fn group_components(constraints: &[SkolemConstraint]) -> Vec<Vec<usize>> {
    let mut parent: Vec<usize> = (0..constraints.len()).collect();
    fn find(parent: &mut Vec<usize>, i: usize) -> usize {
        if parent[i] != i {
            let root = find(parent, parent[i]);
            parent[i] = root;
        }
        parent[i]
    }
    let mut owner: BTreeMap<String, usize> = BTreeMap::new();
    for (i, sc) in constraints.iter().enumerate() {
        for name in sc.cq.func_names() {
            match owner.get(&name) {
                None => {
                    owner.insert(name, i);
                }
                Some(&j) => {
                    let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                    if ri != rj {
                        parent[ri] = rj;
                    }
                }
            }
        }
    }
    let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for i in 0..constraints.len() {
        let root = find(&mut parent, i);
        groups.entry(root).or_default().push(i);
    }
    groups.into_values().collect()
}

/// Steps 4, 8, 9 and 11 for one component: check alignment and dependency
/// conditions, then merge the member constraints into a single first-order
/// containment.
fn combine_component(
    members: &[&SkolemConstraint],
    sig: &Signature,
    registry: &Registry,
) -> Result<Constraint, FailureReason> {
    let first = members.first().expect("non-empty component");

    // Step 4 (align variables): all bodies must coincide after
    // canonicalization. Because basic right compose substitutes the same
    // lower bound everywhere, this is the common case.
    for member in members.iter().skip(1) {
        if !member.cq.same_body(&first.cq) {
            return Err(FailureReason::DeskolemizeFailed(
                "constraints sharing a Skolem function have different bodies".into(),
            ));
        }
    }

    // Steps 8–9 (dependencies): every function application in the component
    // must use one common argument list consisting of variables.
    let mut common_args: Option<Vec<Term>> = None;
    for member in members {
        for term in member.cq.func_terms() {
            if let Term::Func(_, args) = &term {
                if args.iter().any(|a| !matches!(a, Term::Var(_))) {
                    return Err(FailureReason::DeskolemizeFailed(
                        "Skolem function applied to a non-variable argument".into(),
                    ));
                }
                match &common_args {
                    None => common_args = Some(args.clone()),
                    Some(existing) if existing == args => {}
                    Some(_) => {
                        return Err(FailureReason::DeskolemizeFailed(
                            "Skolem functions with differing argument lists".into(),
                        ))
                    }
                }
            }
        }
    }
    let arg_vars: BTreeSet<usize> = common_args
        .iter()
        .flatten()
        .filter_map(|t| match t {
            Term::Var(v) => Some(*v),
            _ => None,
        })
        .collect();

    // The replacement of functions by existential variables is equivalent
    // only if the function arguments determine every universal variable
    // exported by the heads — either directly (the variable is an argument)
    // or through a declared key (the variable sits in an atom whose key
    // columns are all function arguments).
    let determined = determined_vars(&first.cq.atoms, &arg_vars, sig);
    for member in members {
        for var in member.cq.head_universal_vars() {
            if !determined.contains(&var) {
                return Err(FailureReason::DeskolemizeFailed(
                    "Skolem arguments do not determine an exported variable".into(),
                ));
            }
        }
    }

    // Step 11: build the combined constraint.
    let all_head_vars: BTreeSet<usize> =
        members.iter().flat_map(|m| m.cq.head_universal_vars()).collect();
    let (body, column_of) = build_body(&first.cq.atoms, &first.cq.const_of, &all_head_vars)
        .map_err(FailureReason::DeskolemizeFailed)?;
    let uvars: Vec<usize> = all_head_vars.iter().copied().collect();
    let lhs_columns: Vec<usize> = uvars.iter().map(|v| column_of[v]).collect();
    let lhs = simplify_identity(body.project(lhs_columns));

    // Right side: join the member right-hand sides on shared terms and
    // project onto the universal variables in the same order as the lhs.
    let mut product: Option<Arc<Expr>> = None;
    let mut width = 0usize;
    let mut first_column: BTreeMap<Term, usize> = BTreeMap::new();
    let mut preds: Vec<Pred> = Vec::new();
    let mut constants: Vec<(usize, Value)> = Vec::new();
    for member in members {
        product = Some(match product {
            None => Arc::clone(&member.rhs),
            Some(prev) => Arc::new(Expr::Product(prev, Arc::clone(&member.rhs))),
        });
        for (j, term) in member.cq.head.iter().enumerate() {
            let column = width + j;
            match first_column.get(term) {
                Some(&first_col) => preds.push(Pred::eq_cols(first_col, column)),
                None => {
                    first_column.insert(term.clone(), column);
                }
            }
            // A head variable bound to a constant must also be constrained on
            // the right side.
            if let Term::Var(v) = term {
                if let Some(value) = first.cq.const_of.get(v) {
                    constants.push((column, value.clone()));
                }
            }
        }
        width += member.cq.head.len();
    }
    for (column, value) in constants {
        preds.push(Pred::eq_const(column, value));
    }
    let mut rhs = product.expect("component has at least one member");
    if !preds.is_empty() {
        rhs = Arc::new(Expr::Select(Pred::and_all(preds), rhs));
    }
    let rhs_columns: Vec<usize> = uvars
        .iter()
        .map(|v| {
            first_column.get(&Term::Var(*v)).copied().ok_or_else(|| {
                FailureReason::DeskolemizeFailed(
                    "exported variable missing from every right-hand side".into(),
                )
            })
        })
        .collect::<Result<_, _>>()?;
    let rhs = simplify_identity(Expr::Project(rhs_columns, rhs));

    // The registry is not consulted here, but keeping the parameter makes the
    // signature uniform with the other steps and leaves room for
    // operator-specific denormalization extensions (paper §1.3).
    let _ = registry;
    Ok(Constraint::containment(lhs, rhs))
}

/// Variables determined by the Skolem argument variables: the arguments
/// themselves plus any variable co-occurring in an atom whose declared key
/// columns are all arguments (paper §3.5.1: key knowledge "increases our
/// chances of success in deskolemize").
fn determined_vars(atoms: &[Atom], arg_vars: &BTreeSet<usize>, sig: &Signature) -> BTreeSet<usize> {
    let mut determined = arg_vars.clone();
    // Iterate to a fixpoint: a key-determined atom determines all of its
    // columns, which may in turn be keys of other atoms.
    loop {
        let mut changed = false;
        for atom in atoms {
            let Some(key) = sig.key(&atom.rel) else { continue };
            let key_known =
                key.iter().all(|&k| atom.args.get(k).is_some_and(|v| determined.contains(v)));
            if key_known {
                for &v in &atom.args {
                    if determined.insert(v) {
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            return determined;
        }
    }
}

/// Build an algebra expression whose columns cover all variables of the body
/// atoms plus the listed head variables (head variables without an atom
/// occurrence are given active-domain columns). Returns the expression and
/// the variable → column map.
fn build_body(
    atoms: &[Atom],
    const_of: &BTreeMap<usize, Value>,
    head_vars: &BTreeSet<usize>,
) -> Result<(Expr, BTreeMap<usize, usize>), String> {
    let mut column_of: BTreeMap<usize, usize> = BTreeMap::new();
    let mut preds: Vec<Pred> = Vec::new();
    let mut expr: Option<Expr> = None;
    let mut width = 0usize;

    for atom in atoms {
        let rel = Expr::rel(atom.rel.clone());
        expr = Some(match expr {
            None => rel,
            Some(prev) => prev.product(rel),
        });
        for (offset, var) in atom.args.iter().enumerate() {
            let column = width + offset;
            match column_of.get(var) {
                None => {
                    column_of.insert(*var, column);
                }
                Some(first) => preds.push(Pred::eq_cols(*first, column)),
            }
        }
        width += atom.args.len();
    }

    for var in head_vars {
        if !column_of.contains_key(var) {
            expr = Some(match expr {
                None => Expr::domain(1),
                Some(prev) => prev.product(Expr::domain(1)),
            });
            column_of.insert(*var, width);
            width += 1;
        }
    }

    for (var, value) in const_of {
        if let Some(column) = column_of.get(var) {
            preds.push(Pred::eq_const(*column, value.clone()));
        }
    }

    let base = expr.ok_or_else(|| "empty body".to_string())?;
    let combined = if preds.is_empty() { base } else { base.select(Pred::and_all(preds)) };
    Ok((combined, column_of))
}

/// Step 12 flavoured cleanup: remove projections that are the identity over
/// their operand's natural column order when the operand is a base relation
/// or a previously simplified expression of known width. The operand is
/// returned shared.
fn simplify_identity(expr: Expr) -> Arc<Expr> {
    if let Expr::Project(cols, inner) = &expr {
        let natural: Vec<usize> = (0..cols.len()).collect();
        if *cols == natural {
            if let Some(width) = syntactic_arity(inner) {
                if width == cols.len() {
                    return Arc::clone(inner);
                }
            }
        }
    }
    Arc::new(expr)
}

/// Arity of an expression when it is syntactically evident (no signature
/// lookup); `None` otherwise.
fn syntactic_arity(expr: &Expr) -> Option<usize> {
    match expr {
        Expr::Domain(r) | Expr::Empty(r) => Some(*r),
        Expr::Project(cols, _) => Some(cols.len()),
        Expr::Select(_, inner) => syntactic_arity(inner),
        Expr::Skolem(_, inner) => syntactic_arity(inner).map(|a| a + 1),
        Expr::Product(a, b) => Some(syntactic_arity(a)? + syntactic_arity(b)?),
        Expr::Union(a, b) | Expr::Intersect(a, b) | Expr::Difference(a, b) => {
            syntactic_arity(a).or_else(|| syntactic_arity(b))
        }
        Expr::Rel(_) | Expr::Apply(..) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapcomp_algebra::{eval, parse_constraint, parse_expr, tuple, Instance, OperatorSet};

    fn sig() -> Signature {
        Signature::from_arities([
            ("R", 1),
            ("S", 2),
            ("T", 2),
            ("U", 2),
            ("W", 2),
            ("C", 2),
            ("E", 2),
            ("D2", 2),
        ])
    }

    fn reg() -> Registry {
        Registry::standard()
    }

    #[test]
    fn passthrough_without_skolems() {
        let constraints = vec![parse_constraint("R <= project[0](S)").unwrap()];
        let out = deskolemize(constraints.clone(), &sig(), &reg()).unwrap();
        assert_eq!(out, constraints);
    }

    #[test]
    fn single_function_single_constraint() {
        // π_{0,1}(f(R)) ⊆ W, i.e. ∀x R(x) → ∃y W(x,y), which in algebra is
        // (up to trivial projections) R ⊆ π_0(W).
        let constraint = parse_constraint("project[0,1](skolem:f[0](R)) <= W").unwrap();
        let out = deskolemize(vec![constraint], &sig(), &reg()).unwrap();
        assert_eq!(out.len(), 1);
        let only = &out[0];
        assert!(!only.has_skolem());
        assert!(only.mentions("R") && only.mentions("W"));

        // Semantic check on a small instance: R = {1,2}, W = {(1,5),(2,6)}
        // satisfies it; R = {3}, W = {} does not.
        let ops = OperatorSet::new();
        let mut good = Instance::new();
        good.insert("R", tuple([1i64]));
        good.insert("R", tuple([2i64]));
        good.insert("W", tuple([1i64, 5]));
        good.insert("W", tuple([2i64, 6]));
        assert!(only.satisfied_by(&sig(), &ops, &good).unwrap());
        let mut bad = Instance::new();
        bad.insert("R", tuple([3i64]));
        bad.insert("W", tuple([1i64, 5]));
        assert!(!only.satisfied_by(&sig(), &ops, &bad).unwrap());
    }

    #[test]
    fn shared_function_joins_right_sides() {
        // f shared between two constraints: ∀x R(x) → ∃y (W(x,y) ∧ U(x,y)).
        let constraints = vec![
            parse_constraint("project[0,1](skolem:f[0](R)) <= W").unwrap(),
            parse_constraint("project[0,1](skolem:f[0](R)) <= U").unwrap(),
        ];
        let out = deskolemize(constraints, &sig(), &reg()).unwrap();
        assert_eq!(out.len(), 1);
        let only = &out[0];
        assert!(only.mentions("W") && only.mentions("U"));

        // Semantics: witnesses must agree between W and U.
        let ops = OperatorSet::new();
        let mut agree = Instance::new();
        agree.insert("R", tuple([1i64]));
        agree.insert("W", tuple([1i64, 7]));
        agree.insert("U", tuple([1i64, 7]));
        assert!(only.satisfied_by(&sig(), &ops, &agree).unwrap());
        let mut disagree = Instance::new();
        disagree.insert("R", tuple([1i64]));
        disagree.insert("W", tuple([1i64, 7]));
        disagree.insert("U", tuple([1i64, 8]));
        assert!(!only.satisfied_by(&sig(), &ops, &disagree).unwrap());
    }

    #[test]
    fn distinct_functions_stay_separate() {
        let constraints = vec![
            parse_constraint("project[0,1](skolem:f[0](R)) <= W").unwrap(),
            parse_constraint("project[0,1](skolem:g[0](R)) <= U").unwrap(),
        ];
        let out = deskolemize(constraints, &sig(), &reg()).unwrap();
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|c| !c.has_skolem()));
    }

    #[test]
    fn projected_away_function_becomes_first_order() {
        // π_0(f(R)) ⊆ R: the Skolem column is dropped, so this is simply a
        // tautology-shaped first-order constraint.
        let constraint = parse_constraint("project[0](skolem:f[0](R)) <= R").unwrap();
        let out = deskolemize(vec![constraint], &sig(), &reg()).unwrap();
        assert_eq!(out.len(), 1);
        assert!(!out[0].has_skolem());
    }

    #[test]
    fn example_17_repeated_function_fails() {
        // The f function applied to the same argument twice is fine, but the
        // same function applied to *different* arguments in one constraint
        // (the paper's Example 17 failure at step 3) is rejected.
        let expr =
            parse_expr("project[0,2,3](select[#1 = #2](product(skolem:f[0](R), skolem:f[1](S))))")
                .unwrap();
        let constraint = Constraint::containment(expr, Expr::rel("D2"));
        let err = deskolemize(vec![constraint], &sig(), &reg()).unwrap_err();
        assert!(matches!(err, FailureReason::DeskolemizeFailed(_)));
    }

    #[test]
    fn nested_functions_fail() {
        let constraint =
            parse_constraint("project[0,2](skolem:g[1](skolem:f[0](R))) <= W").unwrap();
        let err = deskolemize(vec![constraint], &sig(), &reg()).unwrap_err();
        match err {
            FailureReason::DeskolemizeFailed(msg) => assert!(msg.contains("nested")),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn restricting_selection_fails() {
        let constraint =
            parse_constraint("project[0,1](select[#1 = 7](skolem:f[0](R))) <= W").unwrap();
        let err = deskolemize(vec![constraint], &sig(), &reg()).unwrap_err();
        match err {
            FailureReason::DeskolemizeFailed(msg) => assert!(msg.contains("restricts")),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn misaligned_bodies_fail() {
        let constraints = vec![
            parse_constraint("project[0,1](skolem:f[0](R)) <= W").unwrap(),
            parse_constraint("project[0,1](skolem:f[0](project[0](S))) <= U").unwrap(),
        ];
        let err = deskolemize(constraints, &sig(), &reg()).unwrap_err();
        assert!(matches!(err, FailureReason::DeskolemizeFailed(_)));
    }

    #[test]
    fn undetermined_exported_variable_fails() {
        // f depends only on column 0 of S, but column 1 of S (not determined
        // by the argument and not covered by a key) is exported.
        let constraint =
            parse_constraint("project[0,1,2](skolem:f[0](S)) <= product(S, D)").unwrap();
        let err = deskolemize(vec![constraint], &sig(), &reg()).unwrap_err();
        match err {
            FailureReason::DeskolemizeFailed(msg) => assert!(msg.contains("determine")),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn keys_rescue_undetermined_variables() {
        // Same as above, but S declares column 0 as its key, so column 1 is
        // functionally determined and the constraint deskolemizes.
        let mut sig = Signature::new();
        sig.add_keyed("S", 2, vec![0]);
        sig.add_relation("W", 3);
        sig.add_relation("R", 1);
        let constraint = parse_constraint("project[0,1,2](skolem:f[0](S)) <= W").unwrap();
        let out = deskolemize(vec![constraint], &sig, &reg()).unwrap();
        assert_eq!(out.len(), 1);
        assert!(!out[0].has_skolem());
    }

    #[test]
    fn duplicates_are_removed() {
        let constraint = parse_constraint("project[0,1](skolem:f[0](R)) <= W").unwrap();
        let out = deskolemize(vec![constraint.clone(), constraint], &sig(), &reg()).unwrap();
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn deskolemized_output_matches_skolem_semantics_on_models() {
        // ∃f ∀x R(x) → W(x, f(x)) is equivalent to ∀x R(x) → ∃y W(x,y); check
        // the produced constraint agrees with the latter on several instances.
        let constraint = parse_constraint("project[0,1](skolem:f[0](R)) <= W").unwrap();
        let out = deskolemize(vec![constraint], &sig(), &reg()).unwrap();
        let ops = OperatorSet::new();
        let manual = parse_constraint("R <= project[0](W)").unwrap();
        for r_values in [vec![], vec![1i64], vec![1, 2], vec![4]] {
            for w_pairs in [vec![], vec![(1i64, 9i64)], vec![(1, 9), (2, 3)], vec![(4, 4)]] {
                let mut inst = Instance::new();
                for v in &r_values {
                    inst.insert("R", tuple([*v]));
                }
                for (a, b) in &w_pairs {
                    inst.insert("W", tuple([*a, *b]));
                }
                let expected = manual.satisfied_by(&sig(), &ops, &inst).unwrap();
                let got = out[0].satisfied_by(&sig(), &ops, &inst).unwrap();
                assert_eq!(expected, got, "mismatch on R={r_values:?} W={w_pairs:?}");
            }
        }
        // Also ensure the lhs/rhs evaluate without error on an empty instance.
        let empty = Instance::new();
        let _ = eval(&out[0].lhs, &sig(), &ops, &empty).unwrap();
    }
}
