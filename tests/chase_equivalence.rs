//! Equivalence suite for the chase core: `exchange()` (the semi-naive
//! indexed driver under the restricted firing test) must be observationally
//! identical to the textbook naive chase of `mapcomp_bench::reference` —
//! same target instance (both allocate labelled nulls in the same order, so
//! equality is exact, which subsumes isomorphism up to null renaming), same
//! skipped constraints, same convergence flag and round count — across the
//! paper's worked examples, the literature corpus, evolution-simulator
//! scenarios and a replayed catalog chain.

// Integration-test crates are built without `cfg(test)`, so the
// `allow-unwrap-in-tests` exemption in clippy.toml cannot reach them;
// panicking on a surprise is exactly what a test should do.
#![allow(clippy::unwrap_used)]

use mapcomp_bench::reference::naive_exchange;
use mapping_composition::algebra::{tuple, Relation};
use mapping_composition::compose::plan::{PremisePlan, TupleIndex, WorkBudget};
use mapping_composition::compose::{exchange, ExchangeConfig, ExchangeResult};
use mapping_composition::prelude::*;

fn registry() -> Registry {
    Registry::standard()
}

/// Chase with the core and the naive reference and assert they coincide;
/// returns the core's result for scenario-specific checks.
fn assert_matches_reference(
    label: &str,
    constraints: &[Constraint],
    full: &Signature,
    target: &Signature,
    source: &Instance,
    config: &ExchangeConfig,
) -> ExchangeResult {
    let naive = naive_exchange(constraints, full, target, source, &registry(), config);
    let semi = exchange(constraints, full, target, source, &registry(), config);
    assert_eq!(naive.target, semi.target, "{label}: targets differ");
    assert_eq!(naive.nulls_created, semi.nulls_created, "{label}: null counts differ");
    assert_eq!(naive.rounds, semi.rounds, "{label}: round counts differ");
    assert_eq!(naive.converged, semi.converged, "{label}: convergence differs");
    let naive_skipped: Vec<&Constraint> = naive.skipped.iter().map(|(c, _)| c).collect();
    let semi_skipped: Vec<&Constraint> = semi.skipped.iter().map(|(c, _)| c).collect();
    assert_eq!(naive_skipped, semi_skipped, "{label}: skipped sets differ");
    semi
}

#[test]
fn example_1_composed_migration_is_strategy_independent() {
    let doc = parse_document(
        r"
        schema sigma1 { Movies/4; }
        schema sigma2 { FiveStarMovies/3; }
        schema sigma3 { Names/2; Years/2; }
        mapping m12 : sigma1 -> sigma2 {
            project[0,1,2](select[#3 = 5](Movies)) <= FiveStarMovies;
        }
        mapping m23 : sigma2 -> sigma3 {
            project[0,1](FiveStarMovies) <= Names;
            project[0,2](FiveStarMovies) <= Years;
        }
        ",
    )
    .unwrap();
    let task = doc.task("m12", "m23").unwrap();
    let composed = compose(&task, &registry(), &ComposeConfig::default()).unwrap();

    let mut source = Instance::new();
    source.insert("Movies", vec![Value::Int(1), Value::Int(11), Value::Int(1991), Value::Int(5)]);
    source.insert("Movies", vec![Value::Int(2), Value::Int(22), Value::Int(1992), Value::Int(4)]);
    source.insert("Movies", vec![Value::Int(3), Value::Int(33), Value::Int(1993), Value::Int(5)]);

    let full = task.full_signature().unwrap();
    let result = assert_matches_reference(
        "example 1",
        composed.constraints.as_slice(),
        &full,
        &task.sigma3,
        &source,
        &ExchangeConfig::default(),
    );
    assert!(result.converged);
    assert!(result.skipped.is_empty());
    assert_eq!(result.target.get("Names").len(), 2);
}

#[test]
fn paper_example_scenarios_agree() {
    // The worked-example documents of `tests/paper_examples.rs`, chased
    // directly (uncomposed, so the intermediate schema is part of the
    // target) from a small σ1 instance.
    let documents = [
        (
            "example 3 (R ⊆ S ⊆ T)",
            r"
            schema sigma1 { R/1; }
            schema sigma2 { S/1; }
            schema sigma3 { T/1; }
            mapping m12 : sigma1 -> sigma2 { R <= S; }
            mapping m23 : sigma2 -> sigma3 { S <= T; }
            ",
        ),
        (
            "example 5 (view unfolding)",
            r"
            schema sigma1 { R1/1; R2/1; R3/2; }
            schema sigma2 { S/2; }
            schema sigma3 { T1/1; T2/2; T3/2; }
            mapping m12 : sigma1 -> sigma2 { S = R1 * R2; }
            mapping m23 : sigma2 -> sigma3 {
                project[0](R3 - S) <= T1;
                T2 <= T3 - select[#0 = 1](S);
            }
            ",
        ),
        (
            "recursive tc example",
            r"
            schema sigma1 { R/2; }
            schema sigma2 { S/2; }
            schema sigma3 { T/2; }
            mapping m12 : sigma1 -> sigma2 { R <= S; S = tc(S); }
            mapping m23 : sigma2 -> sigma3 { S <= T; }
            ",
        ),
    ];
    for (label, text) in documents {
        let doc = parse_document(text).unwrap();
        let task = doc.task("m12", "m23").unwrap();
        let full = task.full_signature().unwrap();
        let target = task.sigma2.union(&task.sigma3).unwrap();
        let mut source = Instance::new();
        for (name, info) in task.sigma1.iter() {
            for row in 0..3i64 {
                let tuple: Vec<Value> =
                    (0..info.arity).map(|c| Value::Int(row + c as i64)).collect();
                source.insert(name, tuple);
            }
        }
        let constraints = task.combined_constraints().into_vec();
        assert_matches_reference(
            label,
            &constraints,
            &full,
            &target,
            &source,
            &ExchangeConfig::default(),
        );
    }
}

#[test]
fn corpus_problems_agree() {
    // Chase every literature-suite problem's combined constraint set from a
    // generic σ1 instance into σ2 ∪ σ3. The corpus spans the operator
    // vocabulary (unions, differences, user-defined operators, Skolem
    // shapes), so this exercises both the indexed-plan path and the
    // layered-view fallback, including rules both engines must skip.
    for problem in mapping_composition::corpus::problems() {
        let task = problem.task().expect("corpus problem parses");
        let full = task.full_signature().expect("well-formed signature");
        let target = task.sigma2.union(&task.sigma3).expect("disjoint enough");
        let mut source = Instance::new();
        for (name, info) in task.sigma1.iter() {
            for row in 0..2i64 {
                let tuple: Vec<Value> =
                    (0..info.arity).map(|c| Value::Int(row * 10 + c as i64)).collect();
                source.insert(name, tuple);
            }
        }
        let constraints = task.combined_constraints().into_vec();
        assert_matches_reference(
            problem.id,
            &constraints,
            &full,
            &target,
            &source,
            &ExchangeConfig::default(),
        );
    }
}

#[test]
fn evolution_scenarios_agree() {
    // Simulator-generated mappings over several seeds: the same scenario as
    // the end-to-end migration test, chased by the core and the reference.
    for seed in [7, 42, 77] {
        let run = run_editing(&ScenarioConfig {
            schema_size: 6,
            edits: 12,
            seed,
            ..ScenarioConfig::default()
        });
        let mut source = Instance::new();
        for (name, info) in run.original.iter() {
            for row in 0..2i64 {
                let tuple: Vec<Value> =
                    (0..info.arity).map(|c| Value::Int(row * 10 + c as i64)).collect();
                source.insert(name, tuple);
            }
        }
        let mut target_sig = run.current.clone();
        for name in &run.pending {
            if let Some(info) = run.universe.get(name) {
                target_sig.add(name.clone(), info.clone());
            }
        }
        let result = assert_matches_reference(
            &format!("evolution seed {seed}"),
            &run.constraints,
            &run.universe,
            &target_sig,
            &source,
            &ExchangeConfig { max_rounds: 32, max_nulls: 50_000, ..ExchangeConfig::default() },
        );
        assert!(result.converged, "seed {seed}: chase did not converge");
    }
}

#[test]
fn greedy_join_order_reorders_skewed_premises_and_preserves_results() {
    // A two-atom join premise where the small relation is written *second*:
    // source order would open the join on the big Events relation, greedy
    // must open on the one-row Config relation. The chase result — targets,
    // skips, rounds, convergence — must match the naive reference's
    // left-to-right expression evaluation, and the plan introspection must
    // show the reorder actually fired.
    let full = Signature::from_arities([("Events", 2), ("Config", 2), ("Out", 2)]);
    let target = Signature::from_arities([("Out", 2)]);
    let constraints =
        parse_constraints("project[0,3](select[#1 = #2](Events * Config)) <= Out").unwrap();
    let mut source = Instance::new();
    for i in 0..40i64 {
        source.insert("Events", vec![Value::Int(i), Value::Int(i % 4)]);
    }
    source.insert("Config", vec![Value::Int(0), Value::Int(99)]);

    // Plan introspection: greedy flips the atom order.
    let premise = parse_expr("project[0,3](select[#1 = #2](Events * Config))").unwrap();
    let frontier =
        TupleIndex::from_layers(&[&source], ["Events".to_string(), "Config".to_string()].iter());
    let greedy = PremisePlan::compile(&premise, &full).unwrap();
    assert_eq!(greedy.join_order(&frontier), vec![1, 0], "reorder must fire");
    let a = greedy.eval_full(&frontier, &mut WorkBudget::new(100_000)).unwrap();
    assert_eq!(a.len(), 10, "ten events match the config row");

    // End to end: the greedy chase produces the reference's targets and
    // skips.
    let constraint_vec = constraints.into_vec();
    let greedy_result = assert_matches_reference(
        "greedy order",
        &constraint_vec,
        &full,
        &target,
        &source,
        &ExchangeConfig::default(),
    );
    assert!(greedy_result.converged);
    assert_eq!(greedy_result.target.get("Out").len(), 10);
}

#[test]
fn greedy_join_order_survives_tight_budgets_source_order_cannot() {
    // The budget win the greedy order buys: opening on the one-row side
    // keeps the intermediate binding set tiny, so a budget that a
    // left-to-right join blows through is comfortably enough. The naive
    // reference's expression evaluation charges the full `Big × Tiny`
    // product and is the left-to-right witness.
    let full = Signature::from_arities([("Big", 2), ("Tiny", 2), ("Out", 2)]);
    let target = Signature::from_arities([("Out", 2)]);
    let constraints =
        parse_constraints("project[0,3](select[#1 = #2](Big * Tiny)) <= Out").unwrap().into_vec();
    let mut source = Instance::new();
    for i in 0..60i64 {
        source.insert("Big", vec![Value::Int(i), Value::Int(i)]);
    }
    source.insert("Tiny", vec![Value::Int(0), Value::Int(1)]);
    let registry = registry();
    let tight = ExchangeConfig { eval_budget: 30, ..ExchangeConfig::default() };

    let greedy = exchange(&constraints, &full, &target, &source, &registry, &tight);
    assert!(greedy.skipped.is_empty(), "greedy order fits the budget: {:?}", greedy.skipped);
    assert_eq!(greedy.target.get("Out").len(), 1);

    let left_to_right = naive_exchange(&constraints, &full, &target, &source, &registry, &tight);
    assert_eq!(left_to_right.skipped.len(), 1, "a left-to-right join must blow the same budget");
}

#[test]
fn fig9_scenario_has_no_skips_and_identical_results() {
    // The acceptance scenario of the fig9 bench, asserted at test scale:
    // core and reference converge with an empty skip set and equal targets.
    let (constraints, full, target, source) = mapcomp_bench::chase_scenario(60, 8);
    let result = assert_matches_reference(
        "fig9 scenario",
        &constraints,
        &full,
        &target,
        &source,
        &mapcomp_bench::chase_scaling_config(8),
    );
    assert!(result.converged);
    assert!(result.skipped.is_empty());
    assert_eq!(result.target.get("J").len(), 60);
}

#[test]
fn example_1_migration_populates_names_and_years() {
    // The composed Example 1 mapping migrates five-star movies into the
    // evolved schema.
    let full = Signature::from_arities([("Movies", 4), ("Names", 2), ("Years", 2)]);
    let target = Signature::from_arities([("Names", 2), ("Years", 2)]);
    let constraints = parse_constraints(
        "project[0,1](select[#3 = 5](Movies)) <= Names; \
         project[0,2](select[#3 = 5](Movies)) <= Years",
    )
    .unwrap()
    .into_vec();
    let mut source = Instance::new();
    source.insert("Movies", tuple([1i64, 100, 1999, 5]));
    source.insert("Movies", tuple([2i64, 200, 2001, 3]));
    source.insert("Movies", tuple([3i64, 300, 2003, 5]));

    let result = assert_matches_reference(
        "example 1 migration populates names and years",
        &constraints,
        &full,
        &target,
        &source,
        &ExchangeConfig::default(),
    );
    assert!(result.converged);
    assert!(result.skipped.is_empty());
    assert_eq!(result.nulls_created, 0);
    assert_eq!(result.target.get("Names").len(), 2);
    assert!(result.target.get("Names").contains(&tuple([1i64, 100])));
    assert!(result.target.get("Years").contains(&tuple([3i64, 2003])));
    assert!(!result.target.get("Names").contains(&tuple([2i64, 200])));

    // The produced instance satisfies the mapping.
    let merged = source.merge(&result.target);
    let set = ConstraintSet::from_constraints(constraints);
    assert!(set.satisfied_by(&full, registry().operators(), &merged).unwrap());
}

#[test]
fn existential_columns_get_labelled_nulls() {
    // R(x) → ∃y S(x, y): the second column of S is invented.
    let full = Signature::from_arities([("R", 1), ("S", 2)]);
    let target = Signature::from_arities([("S", 2)]);
    let constraints = parse_constraints("R <= project[0](S)").unwrap().into_vec();
    let mut source = Instance::new();
    source.insert("R", tuple([7i64]));
    source.insert("R", tuple([8i64]));

    let result = assert_matches_reference(
        "existential columns get labelled nulls",
        &constraints,
        &full,
        &target,
        &source,
        &ExchangeConfig::default(),
    );
    assert!(result.converged);
    assert_eq!(result.target.get("S").len(), 2);
    assert_eq!(result.nulls_created, 2);
    let merged = source.merge(&result.target);
    let set = ConstraintSet::from_constraints(constraints);
    assert!(set.satisfied_by(&full, registry().operators(), &merged).unwrap());
}

#[test]
fn join_conclusions_populate_both_relations() {
    // Movies(m,n,y) → Names(m,n) ⋈ Years(m,y) written as a single
    // conclusion over a join expression.
    let full = Signature::from_arities([("Movies", 3), ("Names", 2), ("Years", 2)]);
    let target = Signature::from_arities([("Names", 2), ("Years", 2)]);
    let conclusion = Expr::rel("Names").join_on(Expr::rel("Years"), &[(0, 0)], 2, 2);
    let constraints =
        vec![Constraint::containment(Expr::rel("Movies").project(vec![0, 1, 2]), conclusion)];
    let mut source = Instance::new();
    source.insert("Movies", tuple([1i64, 10, 1990]));

    let result = assert_matches_reference(
        "join conclusions populate both relations",
        &constraints,
        &full,
        &target,
        &source,
        &ExchangeConfig::default(),
    );
    assert!(result.converged);
    assert!(result.target.get("Names").contains(&tuple([1i64, 10])));
    assert!(result.target.get("Years").contains(&tuple([1i64, 1990])));
}

#[test]
fn target_to_target_constraints_chase_to_fixpoint() {
    // Source copies into S, and an inclusion constraint on the target
    // side requires every S key to appear in T as well.
    let full = Signature::from_arities([("R", 2), ("S", 2), ("T", 1)]);
    let target = Signature::from_arities([("S", 2), ("T", 1)]);
    let constraints = parse_constraints("R <= S; project[0](S) <= T").unwrap().into_vec();
    let mut source = Instance::new();
    source.insert("R", tuple([4i64, 40]));

    let result = assert_matches_reference(
        "target to target constraints chase to fixpoint",
        &constraints,
        &full,
        &target,
        &source,
        &ExchangeConfig::default(),
    );
    assert!(result.converged);
    assert!(result.rounds >= 2);
    assert!(result.target.get("S").contains(&tuple([4i64, 40])));
    assert!(result.target.get("T").contains(&tuple([4i64])));
}

#[test]
fn already_satisfied_premises_do_not_fire() {
    let full = Signature::from_arities([("R", 1), ("S", 1)]);
    let target = Signature::from_arities([("S", 1)]);
    let constraints = parse_constraints("R <= S").unwrap().into_vec();
    let mut source = Instance::new();
    source.insert("R", tuple([1i64]));
    let first = assert_matches_reference(
        "already satisfied premises do not fire",
        &constraints,
        &full,
        &target,
        &source,
        &ExchangeConfig::default(),
    );
    // Chasing again over source ∪ previously-computed target changes
    // nothing: idempotence.
    let merged_source = source.merge(&first.target);
    let second = assert_matches_reference(
        "already satisfied premises do not fire",
        &constraints,
        &full,
        &target,
        &merged_source,
        &ExchangeConfig::default(),
    );
    assert!(second.target.get("S").is_subset(&first.target.get("S")));
    assert_eq!(second.nulls_created, 0);
}

#[test]
fn unsupported_conclusions_are_reported() {
    // A union on the right cannot be chased; the constraint is reported
    // in `skipped` rather than silently ignored.
    let full = Signature::from_arities([("R", 1), ("S", 1), ("T", 1)]);
    let target = Signature::from_arities([("S", 1), ("T", 1)]);
    let constraints = parse_constraints("R <= S + T").unwrap().into_vec();
    let source = {
        let mut inst = Instance::new();
        inst.insert("R", tuple([1i64]));
        inst
    };
    let result = assert_matches_reference(
        "unsupported conclusions are reported",
        &constraints,
        &full,
        &target,
        &source,
        &ExchangeConfig::default(),
    );
    assert_eq!(result.skipped.len(), 1);
    assert!(result.target.get("S").is_empty() && result.target.get("T").is_empty());
}

#[test]
fn equalities_contribute_their_forward_direction() {
    let full = Signature::from_arities([("R", 2), ("S", 2)]);
    let target = Signature::from_arities([("S", 2)]);
    let constraints = parse_constraints("S = R").unwrap().into_vec();
    let mut source = Instance::new();
    source.insert("R", tuple([5i64, 6]));
    let result = assert_matches_reference(
        "equalities contribute their forward direction",
        &constraints,
        &full,
        &target,
        &source,
        &ExchangeConfig::default(),
    );
    assert!(result.target.get("S").contains(&tuple([5i64, 6])));
}

#[test]
fn non_conjunctive_premises_fall_back_and_still_agree() {
    // A difference premise is outside the plannable fragment (and
    // non-monotone); the core must fall back to full evaluation and still
    // match the reference.
    let full = Signature::from_arities([("A", 1), ("B", 1), ("S", 1)]);
    let target = Signature::from_arities([("S", 1)]);
    let constraints = parse_constraints("A - B <= S").unwrap().into_vec();
    let mut source = Instance::new();
    source.insert("A", tuple([1i64]));
    source.insert("A", tuple([2i64]));
    source.insert("B", tuple([2i64]));
    let result = assert_matches_reference(
        "non conjunctive premises fall back and still agree",
        &constraints,
        &full,
        &target,
        &source,
        &ExchangeConfig::default(),
    );
    assert!(result.converged);
    assert_eq!(result.target.get("S"), Relation::from_tuples([tuple([1i64])]));
}

#[test]
fn source_atom_conclusions_refire_identically() {
    // Conclusion joins a target atom with a source atom the chase cannot
    // populate: the premise tuple stays unsatisfied forever and both
    // strategies must refire it every round until max_rounds.
    let full = Signature::from_arities([("R", 1), ("S", 1), ("Aux", 1)]);
    let target = Signature::from_arities([("S", 1)]);
    let conclusion = Expr::rel("S").intersect(Expr::rel("Aux"));
    let constraints = vec![Constraint::containment(Expr::rel("R"), conclusion)];
    let mut source = Instance::new();
    source.insert("R", tuple([1i64]));
    let config = ExchangeConfig { max_rounds: 5, ..ExchangeConfig::default() };
    let result = assert_matches_reference(
        "source atom conclusions refire identically",
        &constraints,
        &full,
        &target,
        &source,
        &config,
    );
    assert!(!result.converged);
    assert_eq!(result.rounds, 5);
    assert!(result.target.get("S").contains(&tuple([1i64])));
}

#[test]
fn max_nulls_truncates_core_and_reference_alike() {
    let full = Signature::from_arities([("R", 1), ("S", 2)]);
    let target = Signature::from_arities([("S", 2)]);
    let constraints = parse_constraints("R <= project[0](S)").unwrap().into_vec();
    let mut source = Instance::new();
    for i in 0..10i64 {
        source.insert("R", tuple([i]));
    }
    let config = ExchangeConfig { max_nulls: 4, ..ExchangeConfig::default() };
    let result = assert_matches_reference(
        "max nulls truncates both strategies alike",
        &constraints,
        &full,
        &target,
        &source,
        &config,
    );
    assert!(!result.converged);
    assert_eq!(result.nulls_created, 4);
}

#[test]
fn migration_through_a_replayed_chain_matches_the_reference() {
    // The catalog replay of an editing scenario: chase a v0 instance
    // through the final composed chain (residuals as auxiliary targets).
    let config =
        ScenarioConfig { schema_size: 6, edits: 12, seed: 42, ..ScenarioConfig::default() };
    let replay = replay_editing(&config).unwrap();
    let mut source = Instance::new();
    for (name, info) in mapping_composition::catalog::replay::original_schema(&config).iter() {
        for row in 0..2i64 {
            let tuple: Vec<Value> =
                (0..info.arity).map(|c| Value::Int(row * 10 + c as i64)).collect();
            source.insert(name, tuple);
        }
    }
    let chain = &replay.final_result.as_ref().unwrap().chain;
    let (full, target) = chain.chase_signatures().unwrap();
    let migrated = assert_matches_reference(
        "replayed chain",
        chain.mapping.constraints.as_slice(),
        &full,
        &target,
        &source,
        &ExchangeConfig::default(),
    );
    assert!(migrated.converged);
}
