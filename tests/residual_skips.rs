//! Exactness of the chain driver's residual skips and segment sharing.
//!
//! A fold step reports a residual symbol failed without re-running
//! ELIMINATE when its constraints are unchanged since it last failed. The
//! oracle here re-folds every served chain along its reply's plan with the
//! plain five-argument `compose_constraints` — no known failures, so every
//! symbol is attempted — building each pairwise input exactly as
//! `compose_pair` does; documents, residual sets and hashes must match byte
//! for byte. The remaining tests pin the skip's two sides (an unchanged
//! residual is skipped, a changed one is retried) and that memoised
//! segments are shared, not copied.

// Integration-test crates are built without `cfg(test)`, so the
// `allow-unwrap-in-tests` exemption in clippy.toml cannot reach them.
#![allow(clippy::unwrap_used)]

use std::collections::BTreeSet;

use mapping_composition::catalog::hash::combine;
use mapping_composition::catalog::{
    hash_config, load_sidecar, render_chain_document, save_cache, ChainCache, ChainSegment,
    ComposedChain, LinkSource,
};
use mapping_composition::prelude::*;

/// One pairwise composition with no known failures: the inputs built
/// exactly as `compose_pair` builds them, composed by the plain driver.
fn plain_pair(
    left: &ComposedChain,
    right: &ComposedChain,
    registry: &Registry,
    config: &ComposeConfig,
) -> ComposedChain {
    let full = left
        .mapping
        .input
        .union(&left.mapping.output)
        .unwrap()
        .union(&left.residual)
        .unwrap()
        .union(&right.mapping.input)
        .unwrap()
        .union(&right.residual)
        .unwrap()
        .union(&right.mapping.output)
        .unwrap();
    let keep =
        |name: &String| left.mapping.input.contains(name) || right.mapping.output.contains(name);
    let mut symbols: Vec<String> = left.mapping.output.names();
    symbols.extend(right.mapping.input.names());
    symbols.extend(left.residual.names());
    symbols.extend(right.residual.names());
    symbols.retain(|name| !keep(name));
    let mut seen = BTreeSet::new();
    symbols.retain(|name| seen.insert(name.clone()));
    let mut constraints = left.mapping.constraints.clone().into_vec();
    constraints.extend(right.mapping.constraints.clone().into_vec());

    let result = compose_constraints(&full, &symbols, constraints, registry, config);
    let mut residual = Signature::new();
    for name in &result.remaining {
        residual.add(name.clone(), result.signature.get(name).unwrap().clone());
    }
    ChainSegment {
        source: left.source.clone(),
        target: right.target.clone(),
        path: left.path.iter().chain(&right.path).cloned().collect(),
        mapping: Mapping::new(
            left.mapping.input.clone(),
            right.mapping.output.clone(),
            result.constraints,
        ),
        residual,
        hash: combine(&[left.hash, right.hash, hash_config(config)]),
        provenance: None,
    }
    .into()
}

/// Re-fold `reply`'s path along its plan: each absorbed run is the
/// left-associated fold of its links (its memo key says so), joined to the
/// accumulator left to right.
fn plain_refold(session: &SharedSession, reply: &ChainResult) -> ComposedChain {
    let (registry, config) = (session.registry(), &session.config().compose);
    let fold = |left: ComposedChain, right: ComposedChain| {
        if left.path.is_empty() {
            right
        } else {
            plain_pair(&left, &right, registry, config)
        }
    };
    let empty: ComposedChain = ChainSegment {
        source: "".into(),
        target: "".into(),
        path: Default::default(),
        mapping: Mapping::default(),
        residual: Signature::new(),
        hash: 0,
        provenance: None,
    }
    .into();
    let mut links = reply.chain.path.iter().map(|name| session.catalog().link(name).unwrap());
    let mut acc = empty.clone();
    for &run_len in &reply.plan {
        let run = links.by_ref().take(run_len).fold(empty.clone(), fold);
        acc = fold(acc, run);
    }
    acc
}

/// The reply and its plain re-fold agree byte for byte.
fn assert_matches_plain_refold(session: &SharedSession, reply: &ChainResult, context: &str) {
    let plain = plain_refold(session, reply);
    assert_eq!(reply.chain.hash, plain.hash, "{context}: hash");
    assert_eq!(reply.chain.residual, plain.residual, "{context}: residual");
    assert_eq!(
        render_chain_document(&reply.chain),
        render_chain_document(&plain),
        "{context}: document"
    );
}

/// Fold every path of the session's catalog, shortest first, and check
/// each reply against its plain re-fold. Returns the summed skip count.
fn fold_every_path(session: &SharedSession, context: &str) -> usize {
    let names: Vec<String> =
        session.catalog().snapshot().schemas().map(|schema| schema.name.to_string()).collect();
    let mut paths: Vec<(usize, &String, &String)> = Vec::new();
    for from in &names {
        for to in &names {
            if let Ok(path) = session.catalog().resolve_path(from, to) {
                paths.push((path.len(), from, to));
            }
        }
    }
    paths.sort();
    let mut skips = 0;
    for (_, from, to) in paths {
        let reply = session.compose_path(from, to).unwrap();
        assert_matches_plain_refold(session, &reply, &format!("{context} {from}->{to}"));
        skips += reply.unchanged_skips;
    }
    skips
}

#[test]
fn corpus_chains_match_a_plain_refold() {
    for problem in problems() {
        let mut catalog = Catalog::new();
        catalog.from_document(&parse_document(problem.text).unwrap()).unwrap();
        fold_every_path(&SharedSession::new(catalog), problem.id);
    }
}

#[test]
fn editing_chains_match_a_plain_refold() {
    let mut skips = 0;
    // Seed 8009 with 8 links is the fig8 fixture whose chain keeps a
    // residual over every fold step.
    for (schema_size, edits, seed) in [(8, 8, 8009), (6, 10, 7), (6, 12, 11), (8, 12, 3)] {
        let config = ScenarioConfig { schema_size, edits, seed, ..ScenarioConfig::default() };
        let replay = replay_editing(&config).unwrap();
        let context = format!("replay seed {seed}");
        if let Some(reply) = &replay.final_result {
            assert_matches_plain_refold(&replay.session, reply, &context);
        }
        // Fold again in a cold session over the same catalog: every path,
        // shortest first, so longer chains absorb cached runs.
        let cold = SharedSession::new(replay.session.catalog().snapshot());
        skips += fold_every_path(&cold, &context);
    }
    assert!(skips > 0, "the editing chains must exercise the skip");
}

/// a{R, T3, T4, T5} → b{S, …} → c{C, …} → d{D, …}, carrying T3–T5
/// through. `S` fails in `m1 ∘ m2`: `C <= T3 - S` blocks left compose and
/// `T4 - S <= T5` blocks right compose. Folding in `m3` eliminates `C` by
/// left compose, which drops `C <= T3 - S` — so `S`'s constraints change
/// and the retry eliminates it.
fn changing_residual_catalog() -> Catalog {
    let carried = [("T3", 1), ("T4", 1), ("T5", 1)];
    let schema = |own: &str| Signature::from_arities(carried.iter().copied().chain([(own, 1)]));
    let mut catalog = Catalog::new();
    catalog.add_schema("a", schema("R"));
    catalog.add_schema("b", schema("S"));
    catalog.add_schema("c", schema("C"));
    catalog.add_schema("d", schema("D"));
    catalog.add_mapping("m1", "a", "b", parse_constraints("R <= S").unwrap()).unwrap();
    catalog
        .add_mapping("m2", "b", "c", parse_constraints("C <= T3 - S; T4 - S <= T5").unwrap())
        .unwrap();
    catalog.add_mapping("m3", "c", "d", parse_constraints("C <= D").unwrap()).unwrap();
    catalog
}

fn changing_residual_session() -> SharedSession {
    SharedSession::new(changing_residual_catalog())
}

#[test]
fn a_residual_whose_constraints_changed_is_retried_and_eliminated() {
    let session = changing_residual_session();
    let first = session.compose_path("a", "c").unwrap();
    assert_eq!(first.chain.residual.names(), vec!["S".to_string()]);
    let known: Vec<&str> =
        first.chain.known_failures().iter().map(|known| known.symbol.as_str()).collect();
    assert_eq!(known, ["S"], "the failed residual carries its fingerprint");

    let extended = session.compose_path("a", "d").unwrap();
    assert_eq!(extended.plan, vec![2, 1]);
    assert_eq!(extended.unchanged_skips, 0, "S's constraints changed: it must be retried");
    assert!(extended.is_complete(), "the retry eliminates S: {:?}", extended.chain.residual);
    assert!(extended.chain.known_failures().is_empty());
    assert_matches_plain_refold(&session, &extended, "changed residual");
}

#[test]
fn an_unchanged_residual_is_skipped() {
    // `B = tc(B)` pins B, and nothing downstream mentions it.
    let mut catalog = Catalog::new();
    catalog.add_schema("v0", Signature::from_arities([("A", 2)]));
    catalog.add_schema("v1", Signature::from_arities([("B", 2), ("X", 2)]));
    catalog.add_schema("v2", Signature::from_arities([("C", 2)]));
    catalog.add_schema("v3", Signature::from_arities([("D", 2)]));
    catalog
        .add_mapping("m0", "v0", "v1", parse_constraints("A <= B; B = tc(B); A <= X").unwrap())
        .unwrap();
    catalog.add_mapping("m1", "v1", "v2", parse_constraints("X <= C").unwrap()).unwrap();
    catalog.add_mapping("m2", "v2", "v3", parse_constraints("C <= D").unwrap()).unwrap();
    let session = SharedSession::new(catalog);
    let reply = session.compose_path("v0", "v3").unwrap();
    assert_eq!(reply.chain.residual.names(), vec!["B".to_string()]);
    // m0 ∘ m1 attempts B and X; the second step attempts C and skips B.
    assert_eq!((reply.elimination_attempts, reply.unchanged_skips), (3, 1));
    assert_matches_plain_refold(&session, &reply, "unchanged residual");
}

#[test]
fn memo_hits_and_peeks_share_the_stored_segment() {
    let session = changing_residual_session();
    let cold = session.compose_path("a", "c").unwrap();
    let catalog = session.catalog();
    let key = (
        catalog.mapping("m1").unwrap().hash.0,
        catalog.mapping("m2").unwrap().hash.0,
        hash_config(&session.config().compose),
    );
    let warm = session.compose_path("a", "c").unwrap();
    let peeked = session.cache().peek(&key).unwrap();
    let looked_up = session.cache().cache_lookup(key).unwrap();
    assert!(ComposedChain::ptr_eq(&cold.chain, &peeked), "the fold returns the stored segment");
    assert!(ComposedChain::ptr_eq(&warm.chain, &peeked), "a memo hit is the stored segment");
    assert!(ComposedChain::ptr_eq(&looked_up, &peeked));
    // Folding on top of the hit reads it in place, too.
    let extended = session.compose_path("a", "d").unwrap();
    assert_eq!((extended.plan, extended.cache_hits), (vec![2, 1], 1));
    assert!(ComposedChain::ptr_eq(&session.cache().peek(&key).unwrap(), &peeked));
}

#[test]
fn segments_restored_from_a_sidecar_start_without_fingerprints() {
    let live = changing_residual_session();
    live.compose_path("a", "c").unwrap();
    let sidecar = save_cache(live.cache());
    let restored_cache = load_sidecar(&sidecar).cache;
    assert!(restored_cache.len() == 1);
    for (_, chain) in restored_cache.entries() {
        assert!(chain.known_failures().is_empty(), "fingerprints are never persisted");
    }
    let restored = SharedSession::with_cache(
        changing_residual_catalog(),
        Registry::standard(),
        SessionConfig::default(),
        1,
        restored_cache,
    );
    let from_memory = live.compose_path("a", "d").unwrap();
    let from_sidecar = restored.compose_path("a", "d").unwrap();
    assert_eq!(from_sidecar.plan, from_memory.plan);
    assert_eq!(from_sidecar.chain.hash, from_memory.chain.hash);
    assert_eq!(
        render_chain_document(&from_sidecar.chain),
        render_chain_document(&from_memory.chain)
    );
}
