//! Row sharing in the differential chase. A row is one immutable shared
//! allocation (`Tuple` is `Arc<[Value]>`), so a maintained engine holds each
//! distinct source row once: every target row equal to a source row is that
//! row's allocation, and the engine's distinct row allocations number
//! exactly its distinct source rows (equal rows of `R` and `S` are one).
//! Checked after the build, after every batch of a seeded ± stream, and
//! after a full rebuild, on Figure 14's copy chain and on the
//! `R <= T; S <= T; T <= U` chain a migration session serves (as written,
//! and composed the way the service composes it).

// Integration-test crates are built without `cfg(test)`, so the
// `allow-unwrap-in-tests` exemption in clippy.toml cannot reach them.
#![allow(clippy::unwrap_used)]

use std::collections::BTreeSet;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mapping_composition::algebra::Tuple;
use mapping_composition::compose::{DifferentialChase, ExchangeConfig, Update};
use mapping_composition::prelude::*;

/// Every target row equal to some source row shares one such row's
/// allocation, and the engine holds one allocation per distinct source row.
fn assert_shared(engine: &DifferentialChase, label: &str) {
    let source = engine.source();
    for (rel, relation) in engine.target().relations() {
        for row in relation.iter() {
            let equal: Vec<&Tuple> = source
                .relations()
                .filter_map(|(_, rows)| rows.range(row, None).next())
                .filter(|stored| *stored == row)
                .collect();
            assert!(
                equal.is_empty() || equal.iter().any(|stored| Arc::ptr_eq(stored, row)),
                "{label}: target row {rel}{row:?} copies a source row but is a separate allocation"
            );
        }
    }
    let distinct: BTreeSet<&Tuple> = source.relations().flat_map(|(_, rows)| rows.iter()).collect();
    assert_eq!(
        engine.row_allocations(),
        distinct.len(),
        "{label}: the engine holds other row allocations than one per distinct source row"
    );
}

/// A row of the two-column scenarios, from its key.
fn row(key: i64) -> Vec<Value> {
    vec![Value::Int(key), Value::Int(key * 7 % 13)]
}

/// Build the engine, then apply a seeded stream of small ± batches over
/// `relations`, keys drawn from `0..key_space`, checking sharing after the
/// build, after every batch and after a rebuild.
fn stream(
    label: &str,
    constraints: &[Constraint],
    (full, target): (&Signature, &Signature),
    (relations, key_space): (&[&str], i64),
    config: &ExchangeConfig,
    seed: u64,
) {
    let mut source = Instance::new();
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..key_space {
        let rel = relations[rng.gen_range(0..relations.len())];
        source.insert(rel, row(rng.gen_range(0..key_space)));
    }
    let mut engine =
        DifferentialChase::new(constraints, full, target, source, &Registry::standard(), config);
    assert!(engine.incremental_ready(), "{label}: the scenario must stay incremental");
    assert_shared(&engine, &format!("{label}: build"));
    for batch in 0..40 {
        let updates: Vec<Update> = (0..rng.gen_range(1..=4))
            .map(|_| {
                let rel = relations[rng.gen_range(0..relations.len())];
                let tuple = row(rng.gen_range(0..key_space));
                if rng.gen_bool(0.5) {
                    Update::insert(rel, tuple)
                } else {
                    Update::delete(rel, tuple)
                }
            })
            .collect();
        let report = engine.apply(&updates).unwrap();
        assert!(!report.fallback, "{label}: batch {batch} fell back");
        assert_shared(&engine, &format!("{label}: batch {batch}"));
    }
    engine.rebuild();
    assert_shared(&engine, &format!("{label}: rebuild"));
}

#[test]
fn figure_14_copy_chain_holds_each_source_row_once() {
    let depth = 4;
    let (constraints, full, target, _) = mapcomp_bench::differential_scenario(0, depth);
    let config = mapcomp_bench::chase_scaling_config(depth);
    for seed in [1, 2, 3] {
        stream("copy chain", &constraints, (&full, &target), (&["R"], 48), &config, seed);
    }
}

#[test]
fn migration_chain_holds_each_source_row_once() {
    let full = Signature::from_arities([("R", 2), ("S", 2), ("T", 2), ("U", 2)]);
    let target = Signature::from_arities([("T", 2), ("U", 2)]);
    let written = parse_constraints("R <= T; S <= T; T <= U").unwrap().into_vec();
    let sig = (&full, &target);
    let config = ExchangeConfig::default();
    for seed in [4, 5, 6] {
        stream("migration chain", &written, sig, (&["R", "S"], 32), &config, seed);
    }

    // The chain as a migration session serves it: `T` composed away.
    let composed = compose_constraints(
        &full,
        &["T".to_string()],
        written,
        &Registry::standard(),
        &ComposeConfig::default(),
    );
    assert!(composed.remaining.is_empty(), "composition must eliminate `T`");
    let full = Signature::from_arities([("R", 2), ("S", 2), ("U", 2)]);
    let target = Signature::from_arities([("U", 2)]);
    let constraints = composed.constraints.into_vec();
    for seed in [7, 8, 9] {
        stream("composed chain", &constraints, (&full, &target), (&["R", "S"], 32), &config, seed);
    }
}
