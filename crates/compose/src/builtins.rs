//! Extended operators shipped with the composition component.
//!
//! The paper stresses that the algorithm handles "outerjoin, set difference,
//! and anti-semijoin" through its monotonicity machinery and that it
//! "covers constraints expressed using arbitrary monotone relational
//! operators". This module registers four such operators as user-defined
//! operators, demonstrating the extensibility hooks:
//!
//! * `ljoin(R, S)` — left outer join on the first columns (`R.0 = S.0`);
//!   monotone in `R`, not in `S`; unmatched `R` tuples are padded with nulls.
//! * `semijoin(R, S)` — `R ⋉ S` on the first columns; monotone in both.
//! * `antijoin(R, S)` — anti-semijoin on the first columns; monotone in `R`,
//!   anti-monotone in `S`.
//! * `tc(R)` — transitive closure of a binary relation; monotone. This is the
//!   operator of the paper's recursive example (`R ⊆ S, S = tc(S), S ⊆ T`)
//!   showing a symbol that cannot be eliminated.

use std::sync::Arc;

use mapcomp_algebra::{Expr, OperatorDef, Relation, Tuple, Value};

use crate::registry::{Monotonicity, OperatorRules, Registry};

/// Register every built-in extended operator into a registry.
pub fn register_all(registry: &mut Registry) {
    register_left_outer_join(registry);
    register_semijoin(registry);
    register_antijoin(registry);
    register_transitive_closure(registry);
}

fn join_on_first(rels: &[Relation]) -> Vec<(Tuple, Vec<Tuple>)> {
    // Group of (left tuple, matching right tuples) pairs.
    let left = &rels[0];
    let right = &rels[1];
    left.iter()
        .map(|lt| {
            let matches: Vec<Tuple> = right
                .iter()
                .filter(|rt| !lt.is_empty() && !rt.is_empty() && lt[0] == rt[0])
                .cloned()
                .collect();
            (lt.clone(), matches)
        })
        .collect()
}

/// Register `ljoin`.
pub fn register_left_outer_join(registry: &mut Registry) {
    registry.register(
        OperatorDef::new("ljoin", 2, |arities| match arities {
            [left, right] if *left >= 1 && *right >= 1 => Some(left + right - 1),
            _ => None,
        })
        .with_eval(|rels, arities, sink| {
            let right_arity = arities[1];
            for (lt, matches) in join_on_first(rels) {
                if matches.is_empty() {
                    let nulls = std::iter::repeat_n(Value::Null, right_arity.saturating_sub(1));
                    sink.push(lt.iter().cloned().chain(nulls).collect::<Tuple>())?;
                } else {
                    for rt in matches {
                        sink.push(lt.iter().chain(rt.iter().skip(1)).cloned().collect::<Tuple>())?;
                    }
                }
            }
            Ok(())
        }),
    );
    registry.set_rules(
        "ljoin",
        OperatorRules {
            // Monotone in the first argument, unknown in the second (paper §1.3).
            monotonicity: Some(Arc::new(|args: &[Monotonicity]| {
                if args.get(1) == Some(&Monotonicity::Independent) {
                    args[0]
                } else {
                    Monotonicity::Unknown
                }
            })),
            simplify: Some(Arc::new(|args: &[Expr]| {
                // ljoin(∅, S) = ∅ of the output arity; the caller knows the
                // arity, so return an empty of arity 0 only when it can be
                // recomputed — here we simply propagate the left emptiness by
                // returning the empty expression unchanged in arity-free form.
                match args {
                    [Expr::Empty(_), _] => None, // arity of output unknown here; leave as-is
                    _ => None,
                }
            })),
            ..OperatorRules::default()
        },
    );
}

/// Register `semijoin`.
pub fn register_semijoin(registry: &mut Registry) {
    registry.register(
        OperatorDef::new("semijoin", 2, |arities| match arities {
            [left, right] if *left >= 1 && *right >= 1 => Some(*left),
            _ => None,
        })
        .with_eval(|rels, _, sink| {
            for (lt, matches) in join_on_first(rels) {
                if !matches.is_empty() {
                    sink.push(lt)?;
                }
            }
            Ok(())
        }),
    );
    registry.set_rules(
        "semijoin",
        OperatorRules {
            monotonicity: Some(Arc::new(|args: &[Monotonicity]| args[0].combine(args[1]))),
            simplify: Some(Arc::new(|args: &[Expr]| match args {
                [left, Expr::Empty(_)] => Some(Expr::empty(guess_arity(left)?)),
                [Expr::Empty(r), _] => Some(Expr::empty(*r)),
                [left, Expr::Domain(_)] => Some(left.clone()),
                _ => None,
            })),
            ..OperatorRules::default()
        },
    );
}

/// Register `antijoin`.
pub fn register_antijoin(registry: &mut Registry) {
    registry.register(
        OperatorDef::new("antijoin", 2, |arities| match arities {
            [left, right] if *left >= 1 && *right >= 1 => Some(*left),
            _ => None,
        })
        .with_eval(|rels, _, sink| {
            for (lt, matches) in join_on_first(rels) {
                if matches.is_empty() {
                    sink.push(lt)?;
                }
            }
            Ok(())
        }),
    );
    registry.set_rules(
        "antijoin",
        OperatorRules {
            monotonicity: Some(Arc::new(|args: &[Monotonicity]| args[0].combine(args[1].flip()))),
            simplify: Some(Arc::new(|args: &[Expr]| match args {
                [left, Expr::Empty(_)] => Some(left.clone()),
                [Expr::Empty(r), _] => Some(Expr::empty(*r)),
                [left, Expr::Domain(_)] => Some(Expr::empty(guess_arity(left)?)),
                _ => None,
            })),
            ..OperatorRules::default()
        },
    );
}

/// Register `tc` (transitive closure of a binary relation).
pub fn register_transitive_closure(registry: &mut Registry) {
    registry.register(
        OperatorDef::new("tc", 1, |arities| (arities == [2]).then_some(2)).with_eval(
            |rels, _, sink| {
                // Emit through the sink from the start so the (potentially
                // quadratic) closure is charged against the tuple budget row
                // by row rather than after full materialisation.
                for edge in rels[0].iter() {
                    sink.push(edge.clone())?;
                }
                loop {
                    let mut additions = Vec::new();
                    let closure = sink.relation();
                    for a in closure.iter() {
                        for b in closure.iter() {
                            if a.len() == 2 && b.len() == 2 && a[1] == b[0] {
                                let derived = vec![a[0].clone(), b[1].clone()];
                                if !closure.contains(&derived) {
                                    additions.push(derived);
                                }
                            }
                        }
                    }
                    let mut grew = false;
                    for derived in additions {
                        grew |= sink.push(derived)?;
                    }
                    if !grew {
                        return Ok(());
                    }
                }
            },
        ),
    );
    registry.set_rules(
        "tc",
        OperatorRules {
            monotonicity: Some(Arc::new(|args: &[Monotonicity]| args[0])),
            simplify: Some(Arc::new(|args: &[Expr]| match args {
                [Expr::Empty(r)] => Some(Expr::empty(*r)),
                _ => None,
            })),
            ..OperatorRules::default()
        },
    );
}

/// Best-effort syntactic arity guess used only by simplification rules, where
/// a wrong `None` merely skips an optional rewrite.
fn guess_arity(expr: &Expr) -> Option<usize> {
    match expr {
        Expr::Domain(r) | Expr::Empty(r) => Some(*r),
        Expr::Project(cols, _) => Some(cols.len()),
        Expr::Skolem(_, inner) => guess_arity(inner).map(|a| a + 1),
        Expr::Select(_, inner) => guess_arity(inner),
        Expr::Union(a, b) | Expr::Intersect(a, b) | Expr::Difference(a, b) => {
            guess_arity(a).or_else(|| guess_arity(b))
        }
        Expr::Product(a, b) => Some(guess_arity(a)? + guess_arity(b)?),
        Expr::Rel(_) | Expr::Apply(..) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapcomp_algebra::{eval, tuple, Instance, Signature};

    fn setup() -> (Registry, Signature, Instance) {
        let registry = Registry::standard();
        let sig = Signature::from_arities([("R", 2), ("S", 2)]);
        let mut inst = Instance::new();
        inst.insert("R", tuple([1i64, 10]));
        inst.insert("R", tuple([2i64, 20]));
        inst.insert("R", tuple([3i64, 30]));
        inst.insert("S", tuple([1i64, 100]));
        inst.insert("S", tuple([2i64, 200]));
        inst.insert("S", tuple([2i64, 201]));
        (registry, sig, inst)
    }

    #[test]
    fn left_outer_join_pads_with_null() {
        let (registry, sig, inst) = setup();
        let e = Expr::apply("ljoin", vec![Expr::rel("R"), Expr::rel("S")]);
        let out = eval(&e, &sig, registry.operators(), &inst).unwrap();
        assert_eq!(out.len(), 4);
        assert!(out.contains(&tuple([1i64, 10, 100])));
        assert!(out.contains(&[Value::Int(3), Value::Int(30), Value::Null]));
    }

    #[test]
    fn semijoin_and_antijoin_partition() {
        let (registry, sig, inst) = setup();
        let semi = eval(
            &Expr::apply("semijoin", vec![Expr::rel("R"), Expr::rel("S")]),
            &sig,
            registry.operators(),
            &inst,
        )
        .unwrap();
        let anti = eval(
            &Expr::apply("antijoin", vec![Expr::rel("R"), Expr::rel("S")]),
            &sig,
            registry.operators(),
            &inst,
        )
        .unwrap();
        assert_eq!(semi.len(), 2);
        assert_eq!(anti.len(), 1);
        assert!(anti.contains(&tuple([3i64, 30])));
        let all = semi.union(&anti);
        assert_eq!(all, inst.get("R"));
    }

    #[test]
    fn transitive_closure() {
        let registry = Registry::standard();
        let sig = Signature::from_arities([("E", 2)]);
        let mut inst = Instance::new();
        inst.insert("E", tuple([1i64, 2]));
        inst.insert("E", tuple([2i64, 3]));
        inst.insert("E", tuple([3i64, 4]));
        let out = eval(&Expr::apply("tc", vec![Expr::rel("E")]), &sig, registry.operators(), &inst)
            .unwrap();
        assert_eq!(out.len(), 6);
        assert!(out.contains(&tuple([1i64, 4])));
    }

    #[test]
    fn arities_are_enforced() {
        let registry = Registry::standard();
        assert_eq!(registry.operators().arity("ljoin", &[2, 3]).unwrap(), 4);
        assert_eq!(registry.operators().arity("semijoin", &[2, 5]).unwrap(), 2);
        assert_eq!(registry.operators().arity("antijoin", &[3, 2]).unwrap(), 3);
        assert_eq!(registry.operators().arity("tc", &[2]).unwrap(), 2);
        assert!(registry.operators().arity("tc", &[3]).is_err());
        assert!(registry.operators().arity("ljoin", &[2]).is_err());
    }

    #[test]
    fn simplify_rules_fire() {
        let registry = Registry::standard();
        let rules = registry.rules("semijoin").unwrap();
        let simplify = rules.simplify.as_ref().unwrap();
        assert_eq!(
            simplify(&[Expr::rel("R").project(vec![0, 1]), Expr::empty(2)]),
            Some(Expr::empty(2))
        );
        assert_eq!(simplify(&[Expr::domain(2), Expr::domain(3)]), Some(Expr::domain(2)));
        let anti_rules = registry.rules("antijoin").unwrap();
        let anti_simplify = anti_rules.simplify.as_ref().unwrap();
        assert_eq!(anti_simplify(&[Expr::domain(2), Expr::empty(2)]), Some(Expr::domain(2)));
        let tc_rules = registry.rules("tc").unwrap();
        assert_eq!((tc_rules.simplify.as_ref().unwrap())(&[Expr::empty(2)]), Some(Expr::empty(2)));
    }

    #[test]
    fn guess_arity_helper() {
        assert_eq!(guess_arity(&Expr::domain(3)), Some(3));
        assert_eq!(guess_arity(&Expr::rel("R").project(vec![0])), Some(1));
        assert_eq!(guess_arity(&Expr::rel("R")), None);
        assert_eq!(guess_arity(&Expr::empty(1).product(Expr::domain(2))), Some(3));
    }
}
