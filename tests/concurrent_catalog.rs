//! Concurrency suite for the shared catalog: N threads fire a seeded random
//! mix of compose / invalidate / re-register / edit operations at one
//! [`SharedSession`], and every observable outcome must be byte-identical
//! to a single-threaded replay of the same per-thread operation sequences
//! on a one-worker session. The generator runs on the deterministic `rand`
//! shim, so a failing interleaving reproduces from its printed thread seed.
//!
//! Deliberately *not* compared: schedule-dependent instrumentation such as
//! per-request `compose_calls`, cache-hit counts and invalidation drop
//! counts — those measure how much cached work a particular interleaving
//! could reuse, not what was computed. Everything semantically observable
//! (composed constraints, paths, completeness, version counters, hashes) is
//! compared exactly.
//!
//! The shared catalog's maintained graph index has two oracles here: a
//! resolution over a freshly rebuilt snapshot after every step of a seeded
//! mutation sequence, and a recorded mutation log that every resolution
//! racing concurrent writers must match one state of. The same seeded
//! sequence drives a single-threaded `Catalog` alongside, which must agree
//! entry by entry (versions, hashes, history) after every step. Finally,
//! analysis reports racing edits must always come back with the hash of the
//! content they describe.

// Integration-test crates are built without `cfg(test)`, so the
// `allow-unwrap-in-tests` exemption in clippy.toml cannot reach them;
// panicking on a surprise is exactly what a test should do.
#![allow(clippy::unwrap_used)]

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use mapping_composition::catalog::hash::combine;
use mapping_composition::catalog::{
    graph, hash_config, hash_mapping, save_state, ComposedChain, LineIndex, LinkSource,
    SharedSession, SidecarWriter, VersionManifest,
};
use mapping_composition::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

const THREADS: usize = 4;
const OPS_PER_THREAD: usize = 24;
const HOPS: usize = 8;
const BASE_SEED: u64 = 0xC0FFEE;

/// One stress operation. Spans and indices refer to the shared copy chain
/// `v0 → … → vHOPS` (mappings `m0 … m{HOPS-1}`); `PrivateEdit` touches the
/// issuing thread's own mapping `tm{t}` only.
#[derive(Debug, Clone)]
enum Op {
    /// Compose the span `v{i} → v{j}` through the shared chain.
    ComposeSpan(usize, usize),
    /// Drop cached compositions depending on `m{k}` (content unchanged).
    Invalidate(usize),
    /// Re-register `m{k}` with identical content (a version-preserving
    /// no-op that must not disturb anyone).
    ReAdd(usize),
    /// Flip the thread's private mapping to its other content variant and
    /// compose the private one-link path.
    PrivateEdit,
}

/// The seeded per-thread operation sequence — the same generator drives the
/// concurrent run and the single-threaded replay.
fn thread_ops(thread: usize) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(BASE_SEED + thread as u64);
    (0..OPS_PER_THREAD)
        .map(|_| match rng.gen_range(0..10u32) {
            0..=5 => {
                let i = rng.gen_range(0..HOPS);
                let j = rng.gen_range(i + 1..=HOPS);
                Op::ComposeSpan(i, j)
            }
            6 | 7 => Op::Invalidate(rng.gen_range(0..HOPS)),
            8 => Op::ReAdd(rng.gen_range(0..HOPS)),
            _ => Op::PrivateEdit,
        })
        .collect()
}

/// The shared fixture: one copy chain everyone composes over, plus one
/// private two-schema island per thread.
fn stress_catalog() -> Catalog {
    let mut catalog = Catalog::new();
    for i in 0..=HOPS {
        catalog.add_schema(format!("v{i}"), Signature::from_arities([(format!("R{i}"), 1)]));
    }
    for i in 0..HOPS {
        catalog
            .add_mapping(
                format!("m{i}"),
                &format!("v{i}"),
                &format!("v{}", i + 1),
                parse_constraints(&format!("R{i} <= R{}", i + 1)).unwrap(),
            )
            .unwrap();
    }
    for t in 0..THREADS {
        catalog.add_schema(format!("t{t}a"), Signature::from_arities([(format!("P{t}"), 1)]));
        catalog.add_schema(format!("t{t}b"), Signature::from_arities([(format!("Q{t}"), 1)]));
        catalog
            .add_mapping(
                format!("tm{t}"),
                &format!("t{t}a"),
                &format!("t{t}b"),
                parse_constraints(&format!("P{t} <= Q{t}")).unwrap(),
            )
            .unwrap();
    }
    catalog
}

fn private_variant(thread: usize, edits_so_far: usize) -> ConstraintSet {
    // Alternate between two contents so every edit genuinely bumps the
    // version; starts at the non-initial variant.
    if edits_so_far.is_multiple_of(2) {
        parse_constraints(&format!("project[0](P{thread}) <= Q{thread}")).unwrap()
    } else {
        parse_constraints(&format!("P{thread} <= Q{thread}")).unwrap()
    }
}

fn render_compose(result: &mapping_composition::catalog::ChainResult) -> String {
    format!(
        "path={:?} complete={} residual={:?} constraints={}",
        result.chain.path,
        result.is_complete(),
        result.chain.residual.names(),
        result.chain.mapping.constraints
    )
}

/// Apply one op through a session; returns the outcome line. The concurrent
/// run and the single-threaded replay must produce identical lines.
fn apply(session: &SharedSession, thread: usize, op: &Op, edits: &mut usize) -> String {
    match op {
        Op::ComposeSpan(i, j) => {
            let result = session.compose_path(&format!("v{i}"), &format!("v{j}")).unwrap();
            format!("compose v{i}->v{j} {}", render_compose(&result))
        }
        Op::Invalidate(k) => {
            session.invalidate(&format!("m{k}"));
            format!("invalidate m{k}")
        }
        Op::ReAdd(k) => {
            let version = session
                .add_mapping(
                    format!("m{k}"),
                    &format!("v{k}"),
                    &format!("v{}", k + 1),
                    parse_constraints(&format!("R{k} <= R{}", k + 1)).unwrap(),
                )
                .unwrap();
            format!("readd m{k} v{version}")
        }
        Op::PrivateEdit => {
            let constraints = private_variant(thread, *edits);
            *edits += 1;
            let (version, _) = session.update_mapping(&format!("tm{thread}"), constraints).unwrap();
            let result =
                session.compose_path(&format!("t{thread}a"), &format!("t{thread}b")).unwrap();
            format!("edit tm{thread} v{version} {}", render_compose(&result))
        }
    }
}

fn temp_sidecar(tag: &str) -> std::path::PathBuf {
    let path =
        std::env::temp_dir().join(format!("mapcomp_concurrent_{}_{tag}.memo", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

#[test]
fn concurrent_stress_matches_single_threaded_replay() {
    let catalog = stress_catalog();
    let shared = catalog.clone().with_workers(THREADS);
    let writer = SidecarWriter::new(temp_sidecar("stress"));

    // Concurrent phase: every thread runs its seeded op sequence against the
    // one shared session, appending its private version line to the shared
    // sidecar after each edit.
    let outcomes: Vec<Vec<String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|thread| {
                let shared = &shared;
                let writer = &writer;
                scope.spawn(move || {
                    let mut edits = 0usize;
                    thread_ops(thread)
                        .iter()
                        .map(|op| {
                            let outcome = apply(shared, thread, op, &mut edits);
                            if matches!(op, Op::PrivateEdit) {
                                let entry =
                                    shared.catalog().mapping(&format!("tm{thread}")).unwrap();
                                writer
                                    .append(&VersionManifest::of_mapping(&entry).render())
                                    .unwrap();
                            }
                            outcome
                        })
                        .collect()
                })
            })
            .collect();
        handles.into_iter().map(|handle| handle.join().expect("stress worker panicked")).collect()
    });

    // (a) Byte-identical outcomes under a single-threaded replay of the same
    // per-thread sequences.
    let replay = SharedSession::new(catalog);
    for (thread, thread_outcomes) in outcomes.iter().enumerate() {
        let mut edits = 0usize;
        for (index, op) in thread_ops(thread).iter().enumerate() {
            let expected = apply(&replay, thread, op, &mut edits);
            assert_eq!(
                thread_outcomes[index],
                expected,
                "thread {thread} (seed {:#x}) op {index} {op:?} diverged from the replay",
                BASE_SEED + thread as u64
            );
        }
    }

    // (b) Version counters agree entry-for-entry, and the merged cache
    // statistics are self-consistent (no lost increments).
    let snapshot = shared.catalog().snapshot();
    let replayed = replay.catalog().snapshot();
    for entry in replayed.mappings() {
        let concurrent = snapshot.mapping(&entry.name).unwrap();
        assert_eq!(concurrent.version, entry.version, "version mismatch on {}", entry.name);
        assert_eq!(concurrent.hash, entry.hash, "hash mismatch on {}", entry.name);
        assert_eq!(concurrent.history, entry.history, "history mismatch on {}", entry.name);
    }
    assert_eq!(snapshot.mapping_count(), replayed.mapping_count());
    let stats = shared.stats();
    assert_eq!(stats.chains_composed, stats.paths_resolved, "every resolved path was composed");
    let cache = stats.cache;
    assert!(
        stats.cache_entries + cache.invalidated + cache.evictions <= cache.insertions,
        "cache ledger out of balance: {cache:?} with {} live entries",
        stats.cache_entries
    );
    assert_eq!(cache.evictions, 0, "unbounded cache must not evict");

    // (c) No lost updates in the sidecar: the last appended line per private
    // mapping carries its final version, and compacting + reloading the full
    // state restores those versions exactly.
    let manifest = writer.load_full(1).manifest;
    for thread in 0..THREADS {
        let name = format!("tm{thread}");
        let final_version = snapshot.mapping(&name).unwrap().version;
        if final_version > 1 {
            let (recorded, _) = manifest.mappings[&name];
            assert_eq!(recorded, final_version, "{name}: concurrent appends lost an update");
        }
    }
    let document_file = writer.path().with_extension("doc");
    writer
        .rewrite_with_document(&document_file, || {
            let sidecar = save_state(&snapshot, shared.cache());
            let lines = LineIndex::of_text(&sidecar);
            (snapshot.to_document_string(), sidecar, lines)
        })
        .unwrap();
    let compacted = writer.load_full(1).manifest;
    let document = mapping_composition::algebra::parse_document(
        &std::fs::read_to_string(&document_file).unwrap(),
    )
    .unwrap();
    let mut rebuilt = Catalog::new();
    rebuilt.from_document(&document).unwrap();
    rebuilt.restore_versions(&compacted);
    for thread in 0..THREADS {
        let name = format!("tm{thread}");
        assert_eq!(
            rebuilt.mapping(&name).unwrap().version,
            snapshot.mapping(&name).unwrap().version,
            "{name}: compacted sidecar must restore the final version"
        );
    }
    let _ = std::fs::remove_file(writer.path());
    let _ = std::fs::remove_file(document_file);
}

#[test]
fn parallel_batch_is_deterministic_across_worker_counts() {
    // The same batch over 1, 2 and 4 workers must compose identical content
    // in identical request order.
    let catalog = stress_catalog();
    let requests: Vec<(String, String)> = (0..HOPS)
        .flat_map(|i| ((i + 1)..=HOPS).map(move |j| (format!("v{i}"), format!("v{j}"))))
        .collect();
    let reference: Vec<String> = SharedSession::new(catalog.clone())
        .compose_batch_parallel(&requests)
        .into_iter()
        .map(|result| render_compose(&result.unwrap()))
        .collect();
    for workers in [2, 4] {
        let session = catalog.clone().with_workers(workers);
        let rendered: Vec<String> = session
            .compose_batch_parallel(&requests)
            .into_iter()
            .map(|result| render_compose(&result.unwrap()))
            .collect();
        assert_eq!(rendered, reference, "{workers} workers diverged from the 1-worker batch");
    }
}

// ---------------------------------------------------------------------------
// The maintained graph index: `SharedCatalog` updates its composition-graph
// index under the same write guard as its catalog. A rebuilt-from-snapshot
// resolution is the oracle for every sequential mutation, and a recorded
// mutation log is the oracle for resolutions racing writers.
// ---------------------------------------------------------------------------

const INDEX_SCHEMAS: usize = 7;
const INDEX_MAPPINGS: usize = 9;

/// Mapping contents of different operator counts, so `PathCost::OpCount`
/// weighs edges differently from hops.
fn index_constraints(variant: usize) -> ConstraintSet {
    let text = match variant % 3 {
        0 => "R <= R",
        1 => "project[0](R) <= R",
        _ => "project[0](select[#0 = #1](R * R)) <= R",
    };
    parse_constraints(text).unwrap()
}

/// Every `(from, to)` pair over the schema pool plus one name never
/// registered, under both costs: the shared catalog must answer exactly as
/// a resolution over a fresh snapshot does, errors included.
fn assert_index_matches_snapshot(shared: &SharedCatalog, context: &str) {
    let snapshot = shared.snapshot();
    let names: Vec<String> =
        (0..=INDEX_SCHEMAS).map(|i| format!("s{i}")).chain(["ghost".to_string()]).collect();
    for from in &names {
        for to in &names {
            for cost in [PathCost::Hops, PathCost::OpCount] {
                assert_eq!(
                    shared.resolve_path_with(from, to, cost),
                    graph::resolve_path_with(&snapshot, from, to, cost),
                    "{context}: {from} -> {to} under {cost:?}"
                );
            }
        }
    }
}

#[test]
fn maintained_index_matches_a_rebuilt_snapshot_under_random_mutations() {
    for seed in 0..4u64 {
        let mut rng = StdRng::seed_from_u64(0x1DE5 + seed);
        // Start with part of the schema pool registered; later steps add
        // the rest, so unknown-schema errors come and go.
        let mut catalog = Catalog::new();
        for i in 0..4 {
            catalog.add_schema(format!("s{i}"), Signature::from_arities([(format!("R{i}"), 1)]));
        }
        let shared = SharedCatalog::new(catalog.clone());
        let mut checkpoint = shared.snapshot();
        // The single-threaded store takes every mutation too: both must
        // apply the same versioning rules.
        let mut mirror = catalog;
        assert_index_matches_snapshot(&shared, &format!("seed {seed} initial"));
        for step in 0..120 {
            let schema = format!("s{}", rng.gen_range(0..=INDEX_SCHEMAS));
            let mapping = format!("m{}", rng.gen_range(0..INDEX_MAPPINGS));
            let op = match rng.gen_range(0..10u32) {
                // Add, edit or re-point a mapping (endpoints may be
                // unregistered or clash on arity: the error is the oracle's
                // too).
                0..=4 => {
                    let target = format!("s{}", rng.gen_range(0..=INDEX_SCHEMAS));
                    let constraints = index_constraints(rng.gen_range(0..3));
                    let outcome =
                        shared.add_mapping(mapping.clone(), &schema, &target, constraints.clone());
                    let expected =
                        mirror.add_mapping(mapping.clone(), &schema, &target, constraints);
                    assert_eq!(outcome, expected, "seed {seed} step {step}: add {mapping}");
                    format!("add {mapping} : {schema} -> {target} = {outcome:?}")
                }
                5 | 6 => {
                    let removed = shared.remove_mapping(&mapping);
                    assert_eq!(removed, mirror.remove_mapping(&mapping), "seed {seed} step {step}");
                    format!("remove {mapping} = {}", removed.is_some())
                }
                // Add or redefine a schema; a binary `X` in some schemas
                // makes mappings between them and unary-`X` ones clash.
                7 | 8 => {
                    let mut signature = Signature::from_arities([("R", 1)]);
                    if rng.gen_range(0..3u32) == 0 {
                        signature = Signature::from_arities([("R", 1), ("X", rng.gen_range(1..3))]);
                    }
                    let (version, touched) = shared.add_schema(schema.clone(), signature.clone());
                    let expected = mirror.add_schema(schema.clone(), signature);
                    assert_eq!(
                        (version, &touched),
                        (expected.0, &expected.1),
                        "seed {seed} step {step}"
                    );
                    format!("schema {schema} = v{version} {touched:?}")
                }
                // Wholesale replacement by an earlier state.
                _ => {
                    let previous = std::mem::replace(&mut checkpoint, shared.snapshot());
                    shared.restore(&previous);
                    mirror = previous;
                    "restore".to_string()
                }
            };
            let context = format!("seed {seed} step {step} ({op})");
            assert_index_matches_snapshot(&shared, &context);
            let snapshot = shared.snapshot();
            assert_eq!(
                snapshot.schemas().collect::<Vec<_>>(),
                mirror.schemas().collect::<Vec<_>>(),
                "{context}: schema entries diverged"
            );
            assert_eq!(
                snapshot.mappings().collect::<Vec<_>>(),
                mirror.mappings().collect::<Vec<_>>(),
                "{context}: mapping entries (version, hash, history) diverged"
            );
        }
    }
}

/// `name → (source, target)`: one state of the composition graph.
type Edges = BTreeMap<String, (String, String)>;

fn connects(edges: &Edges, path: &[String], from: &str, to: &str) -> bool {
    let mut at = from;
    for name in path {
        match edges.get(name) {
            Some((source, target)) if source == at => at = target,
            _ => return false,
        }
    }
    at == to && !path.is_empty()
}

fn reaches(edges: &Edges, from: &str, to: &str) -> bool {
    let mut seen = vec![from.to_string()];
    let mut frontier = vec![from.to_string()];
    while let Some(node) = frontier.pop() {
        for (source, target) in edges.values() {
            if *source == node && !seen.contains(target) {
                seen.push(target.clone());
                frontier.push(target.clone());
            }
        }
    }
    seen.iter().skip(1).any(|node| node == to)
}

/// One racing resolution: the mutation counts recorded before and after it,
/// the request, and the answer.
struct Observation {
    before: usize,
    after: usize,
    from: String,
    to: String,
    result: Result<Vec<String>, CatalogError>,
}

#[test]
fn resolutions_racing_re_points_and_removals_see_one_consistent_graph() {
    const WRITERS: usize = 2;
    const READERS: usize = 2;
    const WRITES: usize = 150;
    const READS: usize = 300;
    let mut catalog = Catalog::new();
    for i in 0..INDEX_SCHEMAS {
        catalog.add_schema(format!("s{i}"), Signature::from_arities([(format!("R{i}"), 1)]));
    }
    let mut initial = Edges::new();
    for k in 0..INDEX_MAPPINGS {
        let (source, target) =
            (format!("s{}", k % INDEX_SCHEMAS), format!("s{}", (k + 1) % INDEX_SCHEMAS));
        catalog.add_mapping(format!("m{k}"), &source, &target, index_constraints(k)).unwrap();
        initial.insert(format!("m{k}"), (source, target));
    }
    let shared = SharedCatalog::new(catalog);
    // states[k] is the graph after k mutations. Writers mutate and record
    // under `log`, so the states are totally ordered; `applied` is the
    // number of recorded states past the initial one.
    let log = Mutex::new(vec![initial]);
    let applied = AtomicUsize::new(0);
    let observations: Vec<Vec<Observation>> = std::thread::scope(|scope| {
        for writer in 0..WRITERS {
            let (shared, log, applied) = (&shared, &log, &applied);
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(0x5EED + writer as u64);
                for _ in 0..WRITES {
                    let mapping = format!("m{}", rng.gen_range(0..INDEX_MAPPINGS));
                    let mut states = log.lock().unwrap();
                    let mut edges = states.last().unwrap().clone();
                    if rng.gen_range(0..4u32) == 0 {
                        shared.remove_mapping(&mapping);
                        edges.remove(&mapping);
                    } else {
                        let source = format!("s{}", rng.gen_range(0..INDEX_SCHEMAS));
                        let target = format!("s{}", rng.gen_range(0..INDEX_SCHEMAS));
                        let constraints = index_constraints(rng.gen_range(0..3));
                        shared.add_mapping(mapping.clone(), &source, &target, constraints).unwrap();
                        edges.insert(mapping, (source, target));
                    }
                    states.push(edges);
                    applied.fetch_add(1, Ordering::SeqCst);
                }
            });
        }
        let readers: Vec<_> = (0..READERS)
            .map(|reader| {
                let (shared, applied) = (&shared, &applied);
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(0x4EAD + reader as u64);
                    (0..READS)
                        .map(|round| {
                            let from = format!("s{}", rng.gen_range(0..INDEX_SCHEMAS));
                            let to = format!("s{}", rng.gen_range(0..INDEX_SCHEMAS));
                            let cost =
                                if round % 2 == 0 { PathCost::Hops } else { PathCost::OpCount };
                            let before = applied.load(Ordering::SeqCst);
                            let result = shared.resolve_path_with(&from, &to, cost);
                            let after = applied.load(Ordering::SeqCst);
                            Observation { before, after, from, to, result }
                        })
                        .collect()
                })
            })
            .collect();
        readers.into_iter().map(|reader| reader.join().unwrap()).collect()
    });
    // A resolution that started after `before` recorded mutations and ended
    // by `after` searched one of states[before..=after + 1]: at most one
    // mutation is in flight (applied, not yet recorded) at any time.
    let states = log.into_inner().unwrap();
    for (reader, results) in observations.iter().enumerate() {
        for Observation { before, after, from, to, result } in results {
            let window = &states[*before..=(*after + 1).min(states.len() - 1)];
            let consistent = match result {
                Ok(path) => window.iter().any(|edges| connects(edges, path, from, to)),
                Err(CatalogError::NoPath { .. }) => {
                    window.iter().any(|edges| !reaches(edges, from, to))
                }
                Err(CatalogError::EmptyPath { .. }) => from == to,
                Err(other) => panic!("reader {reader}: {from} -> {to} failed with {other}"),
            };
            assert!(
                consistent,
                "reader {reader}: {from} -> {to} = {result:?} matches no graph state in \
                 mutations {before}..={after}"
            );
        }
    }
    assert_index_matches_snapshot(&shared, "after the race");
}

// ---------------------------------------------------------------------------
// An edit racing a removal: the edit reads the mapping's endpoints and writes
// the new revision in one step, so it either lands before the removal or
// fails with `UnknownMapping`. Either serial order leaves the mapping absent.
// ---------------------------------------------------------------------------

#[test]
fn an_update_racing_a_removal_never_resurrects_the_mapping() {
    const ROUNDS: usize = 2_000;
    let mut catalog = Catalog::new();
    catalog.add_schema("a", Signature::from_arities([("R", 1)]));
    catalog.add_schema("b", Signature::from_arities([("S", 1)]));
    let session = catalog.with_workers(2);
    let edited = parse_constraints("project[0](R) <= S").unwrap();
    let barrier = std::sync::Barrier::new(2);
    for round in 0..ROUNDS {
        // Even rounds race the store's own methods, odd rounds the session's.
        let store = round % 2 == 0;
        session.add_mapping("m", "a", "b", parse_constraints("R <= S").unwrap()).unwrap();
        let (updated, removed) = std::thread::scope(|scope| {
            let (session, barrier, edited) = (&session, &barrier, &edited);
            let update = scope.spawn(move || {
                barrier.wait();
                if store {
                    session.catalog().update_mapping("m", edited.clone())
                } else {
                    session.update_mapping("m", edited.clone()).map(|(version, _)| version)
                }
            });
            let remove = scope.spawn(move || {
                barrier.wait();
                if store {
                    session.catalog().remove_mapping("m").is_some()
                } else {
                    session.remove_mapping("m").is_ok()
                }
            });
            (update.join().unwrap(), remove.join().unwrap())
        });
        assert!(removed, "round {round}: the removal found no mapping");
        assert!(
            matches!(updated, Ok(2) | Err(CatalogError::UnknownMapping(_))),
            "round {round}: the edit returned {updated:?}"
        );
        assert!(
            session.catalog().mapping("m").is_err(),
            "round {round}: the racing edit brought `m` back at {:?}",
            session.catalog().mapping_version("m")
        );
        assert!(
            matches!(session.catalog().resolve_path("a", "b"), Err(CatalogError::NoPath { .. })),
            "round {round}: the graph index still holds `m`"
        );
    }
}

// ---------------------------------------------------------------------------
// The analysis cache: a report is cached and returned under the content hash
// of the mapping it analyzed, even while edits race the analysis.
// ---------------------------------------------------------------------------

/// Two contents of one mapping `m : a -> b` whose analysis reports differ
/// (the second repeats a rule, which the linter flags).
const ANALYSIS_VARIANTS: [&str; 2] = ["R <= S", "project[0,0](R) <= S; project[0,0](R) <= S"];

fn analysis_session(variant: usize, workers: usize) -> SharedSession {
    let mut catalog = Catalog::new();
    catalog.add_schema("a", Signature::from_arities([("R", 2)]));
    catalog.add_schema("b", Signature::from_arities([("S", 2)]));
    let constraints = parse_constraints(ANALYSIS_VARIANTS[variant]).unwrap();
    catalog.add_mapping("m", "a", "b", constraints).unwrap();
    catalog.with_workers(workers)
}

#[test]
fn analysis_reports_match_their_hash_while_edits_race() {
    const WRITERS: usize = 2;
    const ANALYZERS: usize = 2;
    const ROUNDS: usize = 10_000;
    // The oracle: each content's hash and report, analyzed on its own.
    let expected: BTreeMap<ContentHash, AnalysisReport> = (0..ANALYSIS_VARIANTS.len())
        .map(|variant| {
            let (hash, report) = analysis_session(variant, 1).analyze_mapping("m").unwrap();
            (hash, (*report).clone())
        })
        .collect();
    assert_eq!(expected.len(), 2, "the variants must hash apart");
    assert!(expected.values().next() != expected.values().nth(1), "the reports must differ");

    let session = analysis_session(0, WRITERS + ANALYZERS);
    std::thread::scope(|scope| {
        for writer in 0..WRITERS {
            let session = &session;
            scope.spawn(move || {
                for round in 0..ROUNDS {
                    let text = ANALYSIS_VARIANTS[(writer + round) % ANALYSIS_VARIANTS.len()];
                    session.update_mapping("m", parse_constraints(text).unwrap()).unwrap();
                }
            });
        }
        for analyzer in 0..ANALYZERS {
            let (session, expected) = (&session, &expected);
            scope.spawn(move || {
                for round in 0..ROUNDS {
                    let (hash, report) = session.analyze_mapping("m").unwrap();
                    assert_eq!(
                        Some(&*report),
                        expected.get(&hash),
                        "analyzer {analyzer} round {round}: report does not describe {hash:?}"
                    );
                }
            });
        }
    });
}

// ---------------------------------------------------------------------------
// Links racing schema edits: the shared store reads a link's mapping and both
// its schemas under one read guard, so a link is never returned with a hash
// that disagrees with its content.
// ---------------------------------------------------------------------------

/// The two signatures the writer flips the middle schema `mid` between.
fn mid_signature(variant: usize) -> Signature {
    match variant {
        0 => Signature::from_arities([("S", 1)]),
        _ => Signature::from_arities([("S", 1), ("X", 2)]),
    }
}

/// `a --up--> mid --down--> b`, with `mid` at the given variant.
fn flip_session(variant: usize, workers: usize) -> SharedSession {
    let mut catalog = Catalog::new();
    catalog.add_schema("a", Signature::from_arities([("R", 1)]));
    catalog.add_schema("mid", mid_signature(variant));
    catalog.add_schema("b", Signature::from_arities([("T", 1)]));
    catalog.add_mapping("up", "a", "mid", parse_constraints("R <= S").unwrap()).unwrap();
    catalog.add_mapping("down", "mid", "b", parse_constraints("S <= T").unwrap()).unwrap();
    catalog.with_workers(workers)
}

/// A one-link chain's hash is the hash of the content it carries.
fn assert_link_matches_its_hash(link: &ComposedChain, context: &str) {
    let m = &link.mapping;
    assert_eq!(
        hash_mapping(&m.input, &m.output, &m.constraints).0,
        link.hash,
        "{context}: link `{}` carries a hash of other content",
        link.path[0]
    );
}

#[test]
fn links_racing_schema_edits_match_their_hash() {
    const READERS: usize = 2;
    const ROUNDS: usize = 2_000;
    // The oracle: a two-link chain's hash combines one revision of each
    // link (the driver reads its links one at a time).
    let config_hash = hash_config(&ComposeConfig::default());
    let link_hashes: Vec<(u64, u64)> = (0..2)
        .map(|variant| {
            let catalog = flip_session(variant, 1).catalog().snapshot();
            (catalog.mapping("up").unwrap().hash.0, catalog.mapping("down").unwrap().hash.0)
        })
        .collect();
    let chain_hashes: Vec<u64> = link_hashes
        .iter()
        .flat_map(|&(up, _)| {
            link_hashes.iter().map(move |&(_, down)| combine(&[up, down, config_hash]))
        })
        .collect();

    let session = flip_session(0, READERS + 1);
    let chain = vec!["up".to_string(), "down".to_string()];
    // The writer flips until every reader is done (or has panicked), so
    // every read races an edit, not only the first few.
    let finished = AtomicUsize::new(0);
    struct Finished<'a>(&'a AtomicUsize);
    impl Drop for Finished<'_> {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }
    std::thread::scope(|scope| {
        let (writer, finished) = (&session, &finished);
        scope.spawn(move || {
            let mut round = 0;
            while finished.load(Ordering::SeqCst) < READERS {
                round += 1;
                writer.add_schema("mid", mid_signature(round % 2));
            }
        });
        for reader in 0..READERS {
            let (session, chain, chain_hashes) = (&session, &chain, &chain_hashes);
            scope.spawn(move || {
                let _finished = Finished(finished);
                for round in 0..ROUNDS {
                    let context = format!("reader {reader} round {round}");
                    for name in ["up", "down"] {
                        let link = session.catalog().link(name).unwrap();
                        assert_link_matches_its_hash(&link, &context);
                    }
                    let single = session.compose_names(&chain[..1]).unwrap();
                    assert_link_matches_its_hash(&single.chain, &context);
                    let both = session.compose_names(chain).unwrap();
                    assert!(
                        chain_hashes.contains(&both.chain.hash),
                        "{context}: chain hash {:016x} combines no revision pair",
                        both.chain.hash
                    );
                }
            });
        }
    });
}
