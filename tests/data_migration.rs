//! End-to-end data migration: compose mappings, then chase source data
//! through the composed mapping into the evolved schema (the workflow the
//! paper's Example 1 describes: "the designer can now migrate data from the
//! old schema to the new schema").

// Integration-test crates are built without `cfg(test)`, so the
// `allow-unwrap-in-tests` exemption in clippy.toml cannot reach them;
// panicking on a surprise is exactly what a test should do.
#![allow(clippy::unwrap_used)]

use mapping_composition::compose::{exchange, ExchangeConfig};
use mapping_composition::prelude::*;

#[test]
fn example_1_end_to_end_migration() {
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
    let registry = Registry::standard();
    let composed = compose(&task, &registry, &ComposeConfig::default()).unwrap();
    assert!(composed.is_complete());

    // Source data: three movies, two of them five-star.
    let mut source = Instance::new();
    source.insert("Movies", vec![Value::Int(1), Value::Int(11), Value::Int(1991), Value::Int(5)]);
    source.insert("Movies", vec![Value::Int(2), Value::Int(22), Value::Int(1992), Value::Int(4)]);
    source.insert("Movies", vec![Value::Int(3), Value::Int(33), Value::Int(1993), Value::Int(5)]);

    let full = task.full_signature().unwrap();
    let result = exchange(
        composed.constraints.as_slice(),
        &full,
        &task.sigma3,
        &source,
        &registry,
        &ExchangeConfig::default(),
    );
    assert!(result.converged);
    assert!(result.skipped.is_empty(), "skipped: {:?}", result.skipped);

    // Exactly the five-star movies arrive in the evolved schema.
    assert_eq!(result.target.get("Names").len(), 2);
    assert_eq!(result.target.get("Years").len(), 2);
    assert!(result.target.get("Names").contains(&[Value::Int(1), Value::Int(11)]));
    assert!(result.target.get("Years").contains(&[Value::Int(3), Value::Int(1993)]));
    assert!(!result.target.get("Names").contains(&[Value::Int(2), Value::Int(22)]));

    // The migrated pair (source, target) is a model of the composed mapping
    // and of the original two-step mapping (with the intermediate relation
    // chased as well).
    let merged = source.merge(&result.target);
    assert!(composed.constraints.satisfied_by(&full, registry.operators(), &merged).unwrap());
}

#[test]
fn migration_through_an_evolution_run_satisfies_the_composed_mapping() {
    // Drive the simulator for a handful of edits, then migrate a concrete
    // instance of the original schema into the evolved schema using the
    // composed mapping, and check the pair satisfies every constraint that
    // does not require inventing data beyond the chase's fragment.
    let run = run_editing(&ScenarioConfig {
        schema_size: 6,
        edits: 12,
        seed: 77,
        ..ScenarioConfig::default()
    });
    let registry = Registry::standard();

    // Populate every original relation with a couple of rows.
    let mut source = Instance::new();
    for (name, info) in run.original.iter() {
        for row in 0..2i64 {
            let tuple: Vec<Value> =
                (0..info.arity).map(|c| Value::Int(row * 10 + c as i64)).collect();
            source.insert(name, tuple);
        }
    }

    // Targets: the evolved schema plus any pending intermediate symbols (they
    // must be populated as auxiliary relations, exactly as §1.3 describes).
    let mut target_sig = run.current.clone();
    for name in &run.pending {
        if let Some(info) = run.universe.get(name) {
            target_sig.add(name.clone(), info.clone());
        }
    }

    let result = exchange(
        &run.constraints,
        &run.universe,
        &target_sig,
        &source,
        &registry,
        &ExchangeConfig { max_rounds: 32, max_nulls: 50_000, ..ExchangeConfig::default() },
    );
    assert!(result.converged, "chase did not converge");

    // Every chased (select-project-join conclusion) constraint holds on the
    // migrated pair; constraints the chase had to skip are exempt. The
    // verification itself runs under a tuple budget: constraints over
    // active-domain powers can be combinatorially large on the chased
    // instance, and a budget overrun (an `Err`) exempts the constraint just
    // like any other evaluation failure.
    let merged = source.merge(&result.target);
    let skipped: Vec<&Constraint> = result.skipped.iter().map(|(c, _)| c).collect();
    for constraint in &run.constraints {
        if constraint.is_equality() {
            // Equalities assert both directions; the chase only enforces the
            // source-to-target direction, so check that direction only.
            continue;
        }
        if skipped.contains(&constraint) {
            continue;
        }
        let evaluator = mapping_composition::algebra::Evaluator::with_budget(
            &run.universe,
            registry.operators(),
            &merged,
            1_000_000,
        );
        if let Ok(holds) = constraint.satisfied_with(&evaluator) {
            assert!(holds, "migrated instance violates chased constraint {constraint}");
        }
    }
}
