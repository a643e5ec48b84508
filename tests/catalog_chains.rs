//! Integration suite for the mapping catalog and the incremental
//! composition-chain engine: multi-hop chains, cache hit/miss behaviour,
//! dependency-tracked invalidation after edits, error paths, and the
//! evolution-replay hook — all through the umbrella crate's public API.

// Integration-test crates are built without `cfg(test)`, so the
// `allow-unwrap-in-tests` exemption in clippy.toml cannot reach them;
// panicking on a surprise is exactly what a test should do.
#![allow(clippy::unwrap_used)]

use mapping_composition::catalog::hash::combine_mapping_hash;
use mapping_composition::catalog::{
    hash_mapping, load_sidecar, save_cache, CatalogError, ChainOptions,
};
use mapping_composition::prelude::*;

/// A linear catalog v0 → v1 → … → v{hops} of unary copy mappings
/// `R{i} <= R{i+1}`.
fn chain_session(hops: usize) -> SharedSession {
    let mut catalog = Catalog::new();
    for i in 0..=hops {
        catalog.add_schema(format!("v{i}"), Signature::from_arities([(format!("R{i}"), 1)]));
    }
    for i in 0..hops {
        catalog
            .add_mapping(
                format!("m{i}"),
                &format!("v{i}"),
                &format!("v{}", i + 1),
                parse_constraints(&format!("R{i} <= R{}", i + 1)).unwrap(),
            )
            .unwrap();
    }
    SharedSession::new(catalog)
}

#[test]
fn five_hop_chain_composes_end_to_end() {
    let session = chain_session(5);
    let result = session.compose_path("v0", "v5").unwrap();
    assert!(result.is_complete());
    assert_eq!(result.chain.path.join(" "), "m0 m1 m2 m3 m4");
    assert_eq!(result.compose_calls, 4, "n-link chain folds through n-1 pairwise compositions");
    // The composed mapping relates the endpoints directly.
    let text = result.chain.mapping.constraints.to_string();
    assert_eq!(text.trim(), "R0 <= R5;");
    // Every intermediate symbol is gone.
    for i in 1..5 {
        assert!(!text.contains(&format!("R{i} ")), "intermediate R{i} in: {text}");
    }
}

#[test]
fn cache_hits_make_recomposition_and_subchains_cheap() {
    let session = chain_session(5);
    session.compose_path("v0", "v5").unwrap();
    let stats = session.stats();
    assert_eq!(stats.compose_calls, 4);
    assert_eq!(stats.cache.misses, 4);
    assert_eq!(stats.cache.hits, 0);

    // Full recomposition: the whole chain is one cached run — a single
    // lookup, no new work.
    let warm = session.compose_path("v0", "v5").unwrap();
    assert_eq!(warm.compose_calls, 0);
    assert_eq!(warm.cache_hits, 1, "the full chain is absorbed as one cached run");
    assert_eq!(warm.plan, vec![5]);

    // A prefix subchain is warm too (left-associated segments are shared).
    let prefix = session.compose_path("v0", "v3").unwrap();
    assert_eq!(prefix.compose_calls, 0);

    // A suffix subchain is *not* left-fold-shaped, so it costs new work —
    // cache keys are content-addressed segments, not arbitrary slices.
    let suffix = session.compose_path("v2", "v5").unwrap();
    assert!(suffix.compose_calls > 0);
}

#[test]
fn editing_one_middle_mapping_recomposes_strictly_less_than_cold() {
    // The acceptance-criterion scenario, end to end: 5-hop chain, edit one
    // middle link, recompose. The instrumented counter must show strictly
    // fewer pairwise compose() calls than the from-scratch run.
    let session = chain_session(5);
    let cold = session.compose_path("v0", "v5").unwrap();
    assert_eq!(cold.compose_calls, 4);

    let (version, dropped) =
        session.update_mapping("m2", parse_constraints("project[0](R2) <= R3").unwrap()).unwrap();
    assert_eq!(version, 2);
    // m2 participates in the fold steps for prefixes of length 3, 4, 5.
    assert_eq!(dropped, 3, "exactly the suffix segments depending on m2 are dropped");

    let incremental = session.compose_path("v0", "v5").unwrap();
    assert!(
        incremental.compose_calls < cold.compose_calls,
        "incremental recomposition ({} calls) must beat cold ({} calls)",
        incremental.compose_calls,
        cold.compose_calls
    );
    assert_eq!(incremental.compose_calls, 3, "the m0∘m1 prefix is reused");
    assert_eq!(incremental.cache_hits, 1);
    assert_eq!(incremental.plan, vec![2, 1, 1, 1], "cached prefix run, then link by link");
    assert!(incremental.is_complete());
    // The recomposed mapping relates the endpoints through the edited
    // projection and mentions no intermediate symbol (exact shape is up to
    // the best-effort rewriter).
    let text = incremental.chain.mapping.constraints.to_string();
    assert!(text.contains("R0") && text.contains("R5") && text.contains("project"), "{text}");
    for i in 1..5 {
        assert!(!text.contains(&format!("R{i} ")), "intermediate R{i} in: {text}");
    }
}

#[test]
fn editing_the_last_mapping_keeps_the_longest_prefix() {
    let session = chain_session(5);
    session.compose_path("v0", "v5").unwrap();
    session.update_mapping("m4", parse_constraints("project[0](R4) <= R5").unwrap()).unwrap();
    let incremental = session.compose_path("v0", "v5").unwrap();
    // Only the final fold step depends on m4.
    assert_eq!(incremental.compose_calls, 1);
    assert_eq!(incremental.cache_hits, 1);
}

#[test]
fn editing_the_first_mapping_falls_back_to_the_cached_suffix() {
    let session = chain_session(5);
    // Warm the v1 → v5 sub-chain, then the full chain.
    session.compose_path("v1", "v5").unwrap();
    let full = session.compose_path("v0", "v5").unwrap();
    assert!(full.compose_calls > 0);
    // Editing m0 invalidates every segment that includes it — but the
    // v1 → v5 segments survive, and run absorption joins the edited first
    // link to that cached suffix with a single new composition.
    session.update_mapping("m0", parse_constraints("project[0](R0) <= R1").unwrap()).unwrap();
    let incremental = session.compose_path("v0", "v5").unwrap();
    assert_eq!(
        incremental.compose_calls, 1,
        "edited first link joins the cached v1→v5 suffix in one composition"
    );
    assert_eq!(incremental.plan, vec![1, 4]);
    assert!(incremental.is_complete());
}

#[test]
fn no_path_and_unknown_names_error() {
    let session = chain_session(3);
    // Directed graph: backwards is unreachable.
    assert!(matches!(session.compose_path("v3", "v0"), Err(CatalogError::NoPath { .. })));
    assert!(matches!(session.compose_path("v0", "v0"), Err(CatalogError::EmptyPath { .. })));
    assert!(matches!(session.compose_path("v0", "nowhere"), Err(CatalogError::UnknownSchema(_))));
    // A disconnected island.
    session.add_schema("island", Signature::from_arities([("Z", 1)]));
    assert!(matches!(session.compose_path("v0", "island"), Err(CatalogError::NoPath { .. })));
}

#[test]
fn incomplete_elimination_mid_chain_best_effort_and_strict() {
    // v0 → v1 is a plain copy; v1 → v2 pins the intermediate with a
    // transitive closure, which no elimination step can remove.
    let mut catalog = Catalog::new();
    catalog.add_schema("v0", Signature::from_arities([("A", 2)]));
    catalog.add_schema("v1", Signature::from_arities([("B", 2)]));
    catalog.add_schema("v2", Signature::from_arities([("C", 2)]));
    catalog.add_schema("v3", Signature::from_arities([("D", 2)]));
    catalog.add_mapping("m0", "v0", "v1", parse_constraints("A <= B; B = tc(B)").unwrap()).unwrap();
    catalog.add_mapping("m1", "v1", "v2", parse_constraints("B <= C").unwrap()).unwrap();
    catalog.add_mapping("m2", "v2", "v3", parse_constraints("C <= D").unwrap()).unwrap();

    // Best effort: the chain composes, the blocked symbol rides along as a
    // residual and is reported.
    let session = SharedSession::new(catalog.clone());
    let result = session.compose_path("v0", "v3").unwrap();
    assert!(!result.is_complete());
    assert_eq!(result.chain.residual.names(), vec!["B".to_string()]);
    // Downstream symbols were still eliminated best-effort.
    let text = result.chain.mapping.constraints.to_string();
    assert!(!text.contains('C'), "C must be eliminated: {text}");

    // Strict sessions reject the same chain at the offending link.
    let strict = SessionConfig {
        chain: ChainOptions { require_complete: true },
        ..SessionConfig::default()
    };
    let session = SharedSession::with_config(catalog, Registry::standard(), strict, 1);
    let err = session.compose_path("v0", "v3").unwrap_err();
    assert!(matches!(err, CatalogError::Incomplete { .. }));
    if let CatalogError::Incomplete { remaining, .. } = err {
        assert_eq!(remaining, vec!["B".to_string()]);
    }
}

#[test]
fn strict_sessions_reject_cached_incomplete_segments() {
    // A lenient session composes (and memoises) an incomplete chain; a
    // strict session restoring that warm cache must still reject it — the
    // completeness policy applies to cache hits, not just fresh work (this
    // is the CLI's cross-invocation situation with a shared sidecar).
    let mut catalog = Catalog::new();
    catalog.add_schema("a", Signature::from_arities([("P", 2)]));
    catalog.add_schema("b", Signature::from_arities([("Q", 2)]));
    catalog.add_schema("c", Signature::from_arities([("Z", 2)]));
    catalog.add_mapping("r1", "a", "b", parse_constraints("P <= Q; Q = tc(Q)").unwrap()).unwrap();
    catalog.add_mapping("r2", "b", "c", parse_constraints("Q <= Z").unwrap()).unwrap();

    let lenient = SharedSession::new(catalog.clone());
    assert!(!lenient.compose_path("a", "c").unwrap().is_complete());
    let sidecar = save_cache(lenient.cache());

    let strict_config = SessionConfig {
        chain: ChainOptions { require_complete: true },
        ..SessionConfig::default()
    };
    let restored = load_sidecar(&sidecar).cache;
    let strict =
        SharedSession::with_cache(catalog, Registry::standard(), strict_config, 1, restored);
    let err = strict.compose_path("a", "c").unwrap_err();
    assert!(matches!(err, CatalogError::Incomplete { .. }), "got {err:?}");
}

#[test]
fn batch_requests_share_the_cache() {
    let session = chain_session(4);
    // One worker: the batch runs in request order.
    let results = session.compose_batch_parallel(&[
        ("v0".to_string(), "v2".to_string()),
        ("v0".to_string(), "v3".to_string()),
        ("v0".to_string(), "v4".to_string()),
    ]);
    assert!(results.iter().all(Result::is_ok));
    // Each request extends the previous chain by one link: 1 + 1 + 1 calls.
    let calls: Vec<usize> = results.iter().map(|r| r.as_ref().unwrap().compose_calls).collect();
    assert_eq!(calls, vec![1, 1, 1]);
    assert_eq!(session.stats().compose_calls, 3);
}

#[test]
fn memo_sidecar_round_trip_preserves_incrementality() {
    // Simulate the CLI's cross-invocation flow: compose, save the cache,
    // restore it into a fresh session over the same catalog text.
    let session = chain_session(4);
    session.compose_path("v0", "v4").unwrap();
    let catalog_text = session.catalog().snapshot().to_document_string();
    let sidecar = save_cache(session.cache());

    let document = parse_document(&catalog_text).unwrap();
    let mut rebuilt = Catalog::new();
    rebuilt.from_document(&document).unwrap();
    let restored = load_sidecar(&sidecar).cache;
    let fresh = SharedSession::with_cache(
        rebuilt,
        Registry::standard(),
        SessionConfig::default(),
        1,
        restored,
    );
    let warm = fresh.compose_path("v0", "v4").unwrap();
    assert_eq!(warm.compose_calls, 0, "restored sidecar must serve the whole chain");
    assert_eq!(warm.cache_hits, 1, "the whole chain is one restored run");
}

#[test]
fn evolution_replay_runs_incrementally_through_the_catalog() {
    let config = ScenarioConfig { schema_size: 6, edits: 10, seed: 7, ..ScenarioConfig::default() };
    let replay = replay_editing(&config).unwrap();
    assert!(replay.edits > 1, "scenario must apply edits");
    // Incremental: each edit pays at most one new pairwise composition.
    for record in &replay.records {
        assert!(record.compose_calls <= 1, "edit {} paid {}", record.index, record.compose_calls);
    }
    // A cold recomposition of the same final chain costs edits-1 calls —
    // strictly more than any single incremental step for chains ≥ 3 links.
    let final_result = replay.final_result.as_ref().unwrap();
    let path: Vec<String> = final_result.chain.path.iter().map(ToString::to_string).collect();
    let cold_session = SharedSession::new(replay.session.catalog().snapshot());
    let cold = cold_session.compose_names(&path).unwrap();
    assert_eq!(cold.compose_calls, path.len() - 1);
    assert!(replay.records.last().unwrap().compose_calls < cold.compose_calls);
    // The replayed chain and the cold chain agree on the composed mapping.
    assert_eq!(
        final_result.chain.mapping.constraints.to_string(),
        cold.chain.mapping.constraints.to_string()
    );
}

#[test]
fn content_addressing_survives_no_op_edits() {
    let session = chain_session(3);
    session.compose_path("v0", "v3").unwrap();
    // Re-register an identical mapping: hash unchanged, cache stays warm.
    let (version, dropped) =
        session.update_mapping("m1", parse_constraints("R1 <= R2").unwrap()).unwrap();
    assert_eq!(version, 1, "identical content must not bump the version");
    assert_eq!(dropped, 0);
    assert_eq!(session.compose_path("v0", "v3").unwrap().compose_calls, 0);
}

/// Every mapping's stored parts — its endpoint schemas' hashes and its
/// constraint hash — recombine to the hash of its rendered content, and
/// that is the hash the entry carries.
fn assert_stored_hashes_recombine(catalog: &Catalog, context: &str) {
    assert!(catalog.mapping_count() > 0, "{context}: no mappings to check");
    for entry in catalog.mappings() {
        let source = catalog.schema(&entry.source).unwrap();
        let target = catalog.schema(&entry.target).unwrap();
        let rendered = hash_mapping(&source.signature, &target.signature, &entry.constraints);
        let recombined = combine_mapping_hash(source.hash, target.hash, entry.constraints_hash);
        assert_eq!(recombined, rendered, "{context}: `{}` recombines apart", entry.name);
        assert_eq!(entry.hash, rendered, "{context}: `{}` carries a stale hash", entry.name);
    }
}

/// `signature` plus one fresh relation: an edit that rehashes every mapping
/// touching the schema.
fn widened(signature: &Signature) -> Signature {
    let mut widened = signature.clone();
    widened.add_relation("Widened", 3);
    widened
}

#[test]
fn stored_hash_parts_recombine_before_and_after_schema_edits() {
    for problem in problems() {
        let mut catalog = Catalog::new();
        catalog.from_document(&parse_document(problem.text).unwrap()).unwrap();
        assert_stored_hashes_recombine(&catalog, problem.id);
        let schema = catalog.mappings().next().unwrap().source.clone();
        let signature = widened(&catalog.schema(&schema).unwrap().signature);
        let (_, touched) = catalog.add_schema(&*schema, signature);
        assert!(!touched.is_empty(), "{}: the edit must rehash a mapping", problem.id);
        assert_stored_hashes_recombine(&catalog, &format!("{} after the edit", problem.id));
    }

    // A replayed evolution catalog, edited through the shared store.
    let config = ScenarioConfig { schema_size: 6, edits: 10, seed: 7, ..ScenarioConfig::default() };
    let replay = replay_editing(&config).unwrap();
    let shared = replay.session.catalog();
    assert_stored_hashes_recombine(&shared.snapshot(), "replay");
    let path = &replay.final_result.as_ref().unwrap().chain.path;
    let schema = shared.mapping(&path[path.len() / 2]).unwrap().source;
    let (_, touched) =
        shared.add_schema(&*schema, widened(&shared.schema(&schema).unwrap().signature));
    assert!(touched.len() >= 2, "a mid-chain schema touches both its links: {touched:?}");
    assert_stored_hashes_recombine(&shared.snapshot(), "replay after the edit");
}
