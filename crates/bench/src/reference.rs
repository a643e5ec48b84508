//! The textbook naive chase: the reference the chase core is tested and
//! measured against.
//!
//! Every round re-evaluates every rule's full premise and satisfaction check
//! over a fresh `source.merge(&target)` clone, then fires each unsatisfied
//! premise tuple with sequentially numbered labelled nulls. It shares only
//! the rule compiler with the core ([`compile_rules`] under the restricted
//! selection), so agreement with [`mapcomp_compose::exchange()`] — same
//! target including null numbering, same skips, rounds and convergence —
//! checks the core's indexed plans, per-rule cursors, layered views and
//! pending rechecks against plain expression evaluation.

use std::collections::BTreeMap;

use mapcomp_algebra::{Constraint, Evaluator, Instance, Signature, Tuple, Value};
use mapcomp_compose::cq::Term;
use mapcomp_compose::{
    compile_rules, restricted_rules, ChaseRule, ExchangeConfig, ExchangeResult, Registry,
};

/// Chase `source` with the textbook naive loop. Same contract as
/// [`mapcomp_compose::exchange()`]; `frontier_rows` is always 0 because the
/// loop keeps no frontier index.
pub fn naive_exchange(
    constraints: &[Constraint],
    full_sig: &Signature,
    target_sig: &Signature,
    source: &Instance,
    registry: &Registry,
    config: &ExchangeConfig,
) -> ExchangeResult {
    let (rules, mut skipped) = compile_rules(constraints, full_sig, target_sig);
    let rules = restricted_rules(rules, &mut skipped);
    let mut dropped = vec![false; rules.len()];
    let mut target = Instance::new();
    let mut nulls = 0usize;
    let mut rounds = 0usize;
    let mut converged = false;
    'rounds: while rounds < config.max_rounds {
        rounds += 1;
        let mut changed = false;
        for (rule, dropped) in rules.iter().zip(&mut dropped) {
            if *dropped {
                continue;
            }
            let combined = source.merge(&target);
            let evaluator = Evaluator::with_budget(
                full_sig,
                registry.operators(),
                &combined,
                config.eval_budget,
            );
            let premise = match evaluator.eval(&rule.origin.lhs) {
                Ok(relation) => relation,
                Err(reason) => {
                    *dropped = true;
                    skipped.push((rule.origin.clone(), format!("premise not evaluable: {reason}")));
                    continue;
                }
            };
            if premise.is_empty() {
                continue;
            }
            let check = rule.check.as_ref().expect("restricted rules carry a check");
            let satisfied = match evaluator.eval(check) {
                Ok(relation) => relation,
                Err(reason) => {
                    *dropped = true;
                    skipped.push((
                        rule.origin.clone(),
                        format!("satisfaction check not evaluable: {reason}"),
                    ));
                    continue;
                }
            };
            for tuple in premise.iter().filter(|tuple| !satisfied.contains(tuple)) {
                if nulls >= config.max_nulls {
                    break 'rounds;
                }
                for (rel, row) in fire(rule, tuple, target_sig, &mut nulls) {
                    target.insert(&rel, row);
                }
                changed = true;
            }
        }
        if !changed {
            converged = true;
            break;
        }
    }
    ExchangeResult { target, nulls_created: nulls, rounds, skipped, converged, frontier_rows: 0 }
}

/// The tuples one firing requires: head variables take the premise values,
/// constants bind from the conclusion, every other body variable takes the
/// next `_nullN`. Only target relations are populated.
fn fire(
    rule: &ChaseRule,
    premise_tuple: &[Value],
    target_sig: &Signature,
    nulls: &mut usize,
) -> Vec<(String, Tuple)> {
    let mut binding: BTreeMap<usize, Value> = BTreeMap::new();
    for (term, value) in rule.conclusion.head.iter().zip(premise_tuple) {
        if let Term::Var(var) = term {
            binding.insert(*var, value.clone());
        }
    }
    for (var, constant) in &rule.conclusion.const_of {
        binding.entry(*var).or_insert_with(|| constant.clone());
    }
    for var in rule.conclusion.body_vars() {
        binding.entry(var).or_insert_with(|| {
            *nulls += 1;
            Value::Str(format!("_null{nulls}"))
        });
    }
    let atoms = rule.conclusion.atoms.iter().filter(|atom| target_sig.contains(&atom.rel));
    atoms
        .map(|atom| {
            let row = atom.args.iter().map(|v| binding.get(v).cloned().unwrap_or(Value::Null));
            (atom.rel.clone(), row.collect())
        })
        .collect()
}
