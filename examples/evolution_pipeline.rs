//! A multi-version schema-evolution pipeline through the mapping catalog:
//! every edit registers a new schema version and its mapping as a catalog
//! entry, the end-to-end mapping is obtained by composing the chain
//! `v0 → vN` — and when one historical mapping is edited, recomposition is
//! incremental: only the fold steps downstream of the edit are recomputed.
//!
//! Run with `cargo run --example evolution_pipeline`.

use mapping_composition::prelude::*;

fn main() {
    // 1. Replay a 16-edit evolution scenario into a catalog: schemas
    //    v0 … v16, mappings edit1 … edit16, composed incrementally as the
    //    versions are created (one pairwise composition per edit).
    let config =
        ScenarioConfig { schema_size: 8, edits: 16, seed: 2026, ..ScenarioConfig::default() };
    let replay = replay_editing(&config).expect("replay succeeds");
    let session = replay.session;

    println!(
        "catalog          : {} schema versions, {} mappings",
        session.catalog().schema_count(),
        session.catalog().mapping_count()
    );
    println!(
        "replay           : {} edits, {} pairwise compositions total",
        replay.edits,
        replay.records.iter().map(|r| r.compose_calls).sum::<usize>()
    );

    let final_version = format!("v{}", replay.edits);
    let end_to_end = session.compose_path("v0", &final_version).expect("chain composes");
    println!(
        "end-to-end       : v0 -> {final_version} via {} links ({} pairwise calls — warm)",
        end_to_end.chain.path.len(),
        end_to_end.compose_calls
    );
    println!("residual symbols : {:?}", end_to_end.chain.residual.names());

    // 2. A designer goes back and amends an *old* mapping in the middle of
    //    the pipeline (here: annotating it with an extra, trivially true
    //    constraint — any real edit works the same way). Provenance-tracked
    //    invalidation drops exactly the cached segments downstream of it.
    let middle = end_to_end.chain.path[end_to_end.chain.path.len() / 2].clone();
    let entry = session.catalog().mapping(&middle).expect("middle mapping exists");
    let some_relation = session
        .catalog()
        .schema(&entry.source)
        .expect("source schema exists")
        .signature
        .names()
        .into_iter()
        .next()
        .expect("non-empty schema");
    let mut edited = entry.constraints.clone();
    edited
        .push(Constraint::containment(Expr::rel(some_relation.clone()), Expr::rel(some_relation)));
    let (version, dropped) = session.update_mapping(&middle, edited).expect("edit applies");
    println!(
        "\nedited           : {middle} (now v{version}); {dropped} cached segments invalidated"
    );

    // 3. Recompose the whole pipeline. The prefix up to the edit is served
    //    from the memo cache; only the suffix is recomposed.
    let recomposed = session.compose_path("v0", &final_version).expect("recompose succeeds");
    println!(
        "recompose        : {} pairwise calls (cold would be {}), plan {:?}",
        recomposed.compose_calls,
        recomposed.chain.path.len() - 1,
        recomposed.plan
    );
    assert!(
        recomposed.compose_calls < recomposed.chain.path.len() - 1,
        "incremental recomposition must beat a cold fold"
    );

    // 4. Catalog-wide accounting.
    let stats = session.stats();
    println!(
        "\nsession stats    : {} compositions, {} cache hits, {} misses, {} entries live",
        stats.compose_calls, stats.cache.hits, stats.cache.misses, stats.cache_entries
    );

    // 5. The whole catalog round-trips through the plain-text document
    //    format (the same format `mapcomp catalog` persists on disk).
    let text = session.catalog().snapshot().to_document_string();
    let reparsed = parse_document(&text).expect("catalog text re-parses");
    assert_eq!(reparsed.schemas.len(), session.catalog().schema_count());
    println!(
        "round-trip       : catalog renders to {} bytes of document text and re-parses",
        text.len()
    );
}
