//! Crash-recovery coverage for the incremental persistence path: a sidecar
//! truncated mid-delta-line or mid-entry-block (a crash during an append)
//! and stray `.tmp` siblings (a crash during compaction) must never be
//! fatal — recovery replays the surviving committed prefix to exactly the
//! state acknowledged before the crash, byte-identically for the catalog
//! document and exactly for the cumulative cache statistics, and the torn
//! tail is dropped.

// Integration-test crates are built without `cfg(test)`, so the
// `allow-unwrap-in-tests` exemption in clippy.toml cannot reach them;
// panicking on a surprise is exactly what a test should do.
#![allow(clippy::unwrap_used)]

use std::fmt::Write as _;

use mapping_composition::algebra::parse_document;
use mapping_composition::catalog::{
    load_sidecar, parse_positioned_delta, render_chain_document, restore_catalog, strip_torn_tail,
    CacheStats, MemoKey, Position, SessionConfig, SidecarWriter, VersionManifest,
};
use mapping_composition::compose::Registry;
use mapping_composition::service::{
    sidecar_path, LocalService, MapcompService as _, PersistPolicy, Request, Response,
};
use mapping_composition::telemetry::metrics::MetricsRegistry;

/// Incremental persistence with threshold compaction disabled, so every
/// state-changing request appends exactly one chunk and the tests control
/// compaction explicitly.
fn policy() -> PersistPolicy {
    PersistPolicy { compact_appends: None, compact_bytes: None }
}

fn temp_catalog(tag: &str) -> std::path::PathBuf {
    let file =
        std::env::temp_dir().join(format!("mapcomp_recovery_{tag}_{}.doc", std::process::id()));
    cleanup(&file);
    file
}

fn cleanup(file: &std::path::Path) {
    for path in [file.to_path_buf(), sidecar_path(file)] {
        let _ = std::fs::remove_file(&path);
        for suffix in [".tmp", ".lock"] {
            let mut sibling = path.file_name().unwrap().to_os_string();
            sibling.push(suffix);
            let _ = std::fs::remove_file(path.with_file_name(sibling));
        }
    }
}

fn open(file: &std::path::Path) -> LocalService {
    LocalService::open_with_policy(
        file,
        Registry::standard(),
        SessionConfig::default(),
        1,
        true,
        policy(),
    )
    .expect("open persistent service")
}

fn chain_document(hops: usize) -> String {
    let mut text = String::new();
    for i in 0..=hops {
        text.push_str(&format!("schema v{i} {{ R{i}/1; }}\n"));
    }
    for i in 0..hops {
        text.push_str(&format!("mapping m{i} : v{i} -> v{} {{ R{i} <= R{}; }}\n", i + 1, i + 1));
    }
    text
}

/// Everything recovery must reproduce: the catalog content (byte-identical
/// document rendering), the cumulative cache statistics, and the recorded
/// mapping versions.
fn committed_state(service: &LocalService) -> (String, CacheStats, Vec<(String, u64)>) {
    let catalog = service.session().catalog().snapshot();
    let versions = catalog.mappings().map(|entry| (entry.name.clone(), entry.version)).collect();
    (catalog.to_document_string(), service.session().cache().stats(), versions)
}

fn compose(service: &LocalService, from: &str, to: &str) -> usize {
    match service.call(Request::ComposePath { from: from.into(), to: to.into() }) {
        Ok(Response::Composed(payload)) => payload.compose_calls,
        other => panic!("compose {from} -> {to} failed: {other:?}"),
    }
}

#[test]
fn torn_final_delta_line_is_dropped_not_fatal() {
    let file = temp_catalog("torn_line");
    let sidecar = sidecar_path(&file);
    let service = open(&file);
    service.call(Request::AddDocument { text: chain_document(4) }).unwrap();
    assert!(compose(&service, "v0", "v2") > 0);
    // Commit point: everything up to here is acknowledged and on disk.
    let committed_bytes = std::fs::read(&sidecar).unwrap();
    let committed = committed_state(&service);

    // One more request appends a chunk; the "crash" truncates the file a
    // few bytes into that chunk's first line — a torn line that must be
    // dropped, not parsed as a shorter valid record.
    assert!(compose(&service, "v1", "v3") > 0);
    drop(service);
    let full = std::fs::read(&sidecar).unwrap();
    assert!(full.len() > committed_bytes.len() + 8, "the second request must have appended");
    std::fs::write(&sidecar, &full[..committed_bytes.len() + 7]).unwrap();

    let reopened = open(&file);
    assert_eq!(committed_state(&reopened), committed, "recovery = the pre-crash committed state");
    // The committed entry still serves; the torn-away one recomputes.
    assert_eq!(compose(&reopened, "v0", "v2"), 0, "committed memo entry survives");
    assert!(compose(&reopened, "v1", "v3") > 0, "torn-away memo entry is recomposed");
    cleanup(&file);
}

#[test]
fn appends_after_a_torn_tail_survive_the_next_recovery() {
    let file = temp_catalog("torn_then_append");
    let sidecar = sidecar_path(&file);
    let service = open(&file);
    service.call(Request::AddDocument { text: chain_document(3) }).unwrap();
    assert!(compose(&service, "v0", "v2") > 0);
    drop(service);
    // Crash mid-append: the file ends inside a line, no trailing newline.
    let full = std::fs::read(&sidecar).unwrap();
    std::fs::write(&sidecar, &full[..full.len() - 9]).unwrap();

    // The next session appends an acknowledged edit. The writer must heal
    // the torn tail first — otherwise the chunk's first line glues onto
    // the fragment and the edit silently vanishes from every later load.
    let survivor = open(&file);
    let edited = chain_document(3).replace("{ R1 <= R2; }", "{ project[0](R1) <= R2; }");
    survivor.call(Request::AddDocument { text: edited }).unwrap();
    let committed = committed_state(&survivor);
    drop(survivor); // second crash: no shutdown, no compaction

    let reopened = open(&file);
    assert_eq!(committed_state(&reopened), committed, "acknowledged edit must survive");
    let entry = reopened.session().catalog().mapping("m1").unwrap();
    assert_eq!(entry.version, 2);
    assert!(entry.constraints.to_string().contains("project[0](R1)"));
    cleanup(&file);
}

#[test]
fn torn_entry_block_is_dropped_not_fatal() {
    let file = temp_catalog("torn_block");
    let sidecar = sidecar_path(&file);
    let service = open(&file);
    service.call(Request::AddDocument { text: chain_document(4) }).unwrap();
    let committed_bytes = std::fs::read(&sidecar).unwrap();
    let committed = committed_state(&service);

    assert!(compose(&service, "v0", "v2") > 0);
    drop(service);
    let full = std::fs::read_to_string(&sidecar).unwrap();
    // Cut inside the appended entry block: mid-way through its embedded
    // document, after a complete line (so only block-level recovery, not
    // line-level, can drop it).
    let block_start = full[committed_bytes.len()..]
        .find("begin-document")
        .expect("appended chunk carries an entry block")
        + committed_bytes.len();
    let cut = full[block_start..].find('\n').unwrap() + block_start + 1;
    std::fs::write(&sidecar, &full.as_bytes()[..cut]).unwrap();

    let reopened = open(&file);
    assert_eq!(committed_state(&reopened), committed, "incomplete entry block is dropped");
    assert!(compose(&reopened, "v0", "v2") > 0, "the torn entry is recomposed, not resurrected");
    cleanup(&file);
}

#[test]
fn records_after_a_mid_file_unterminated_entry_block_are_not_swallowed() {
    let file = temp_catalog("torn_block_mid_file");
    let sidecar = sidecar_path(&file);
    let service = open(&file);
    service.call(Request::AddDocument { text: chain_document(4) }).unwrap();
    assert!(compose(&service, "v0", "v2") > 0);
    drop(service);
    // Crash tears the appended entry block at a *line boundary* inside its
    // embedded document: every surviving line is complete (no torn tail to
    // heal), but `end-document` is gone.
    let full = std::fs::read_to_string(&sidecar).unwrap();
    let block_start = full.find("begin-document").expect("entry block present");
    let cut = full[block_start..].find('\n').unwrap() + block_start + 1;
    assert!(full.as_bytes()[cut - 1] == b'\n');
    std::fs::write(&sidecar, &full.as_bytes()[..cut]).unwrap();

    // The next session appends acknowledged records AFTER the unterminated
    // block: an edit (delta mapping + invalidate + version) and a fresh
    // memo entry.
    let survivor = open(&file);
    let edited = chain_document(4).replace("{ R1 <= R2; }", "{ project[0](R1) <= R2; }");
    survivor.call(Request::AddDocument { text: edited }).unwrap();
    assert!(compose(&survivor, "v2", "v4") > 0);
    let committed = committed_state(&survivor);
    drop(survivor); // second crash

    // Recovery must abandon the torn block instead of consuming the later
    // records while hunting for its `end-document`.
    let reopened = open(&file);
    assert_eq!(committed_state(&reopened), committed, "records after the torn block survive");
    let entry = reopened.session().catalog().mapping("m1").unwrap();
    assert_eq!(entry.version, 2, "the acknowledged edit must not be swallowed");
    assert!(entry.constraints.to_string().contains("project[0](R1)"));
    assert_eq!(compose(&reopened, "v2", "v4"), 0, "the later memo entry survives");
    cleanup(&file);
}

#[test]
fn stray_tmp_files_from_a_crashed_compaction_are_ignored() {
    let file = temp_catalog("tmp_crash");
    let sidecar = sidecar_path(&file);
    let service = open(&file);
    service.call(Request::AddDocument { text: chain_document(3) }).unwrap();
    assert!(compose(&service, "v0", "v3") > 0);
    let committed = committed_state(&service);
    drop(service);

    // A compaction that crashed after writing its temporaries but before
    // either rename: both `.tmp` siblings exist and hold garbage. Recovery
    // reads only the real files.
    for target in [&file, &sidecar] {
        let mut name = target.file_name().unwrap().to_os_string();
        name.push(".tmp");
        std::fs::write(target.with_file_name(name), "schema half { gar/").unwrap();
    }

    let reopened = open(&file);
    assert_eq!(committed_state(&reopened), committed, "tmp siblings must not affect recovery");
    assert_eq!(compose(&reopened, "v0", "v3"), 0, "memo cache fully recovered");

    // The recovered service is fully live: compaction folds the replayed
    // log and the snapshot round-trips once more.
    let Ok(Response::Compacted { bytes_after, .. }) = reopened.call(Request::Compact) else {
        panic!("compact failed after recovery");
    };
    assert!(bytes_after > 0);
    let compacted = std::fs::read_to_string(&sidecar).unwrap();
    assert!(!compacted.contains("delta "), "compaction folded the delta log");
    // The warm compose above accumulated one more cache hit; the compacted
    // snapshot must round-trip exactly that state.
    let committed_after_compact = committed_state(&reopened);
    assert_eq!(committed_after_compact.0, committed.0, "catalog content unchanged");
    drop(reopened);
    let again = open(&file);
    assert_eq!(committed_state(&again), committed_after_compact);
    cleanup(&file);
}

/// The sidecar's recorded replication position, read the way recovery
/// reads it.
fn sidecar_position(file: &std::path::Path) -> Position {
    SidecarWriter::new(sidecar_path(file)).load_full().next_position()
}

#[test]
fn delta_positions_are_recorded_and_survive_kill_and_restart() {
    let file = temp_catalog("positions");
    let sidecar = sidecar_path(&file);
    let service = open(&file);
    service.call(Request::AddDocument { text: chain_document(3) }).unwrap();
    assert!(compose(&service, "v0", "v3") > 0);
    service.call(Request::Invalidate { mapping: "m1".into() }).unwrap();
    drop(service); // kill: no shutdown, no compaction

    // Every delta record carries an explicit `(generation, seq)` position,
    // strictly increasing in file order within the generation.
    let text = std::fs::read_to_string(&sidecar).unwrap();
    let mut last: Option<Position> = None;
    let mut deltas = 0;
    for line in text.lines().filter(|line| line.starts_with("delta ")) {
        let (position, _) = parse_positioned_delta(line).expect("well-formed delta");
        let position = position.expect("every appended delta is positioned");
        if let Some(previous) = last {
            assert!(position > previous, "positions must increase: {position} after {previous}");
        }
        last = Some(position);
        deltas += 1;
    }
    assert!(deltas >= 3, "document, memo and invalidation deltas all landed");

    // Restart resumes exactly after the last recorded position — the next
    // append continues the sequence instead of restarting or skipping.
    let resumed = sidecar_position(&file);
    assert_eq!(resumed, last.unwrap().next());
    let reopened = open(&file);
    reopened.call(Request::Invalidate { mapping: "m0".into() }).unwrap();
    drop(reopened);
    assert_eq!(sidecar_position(&file), resumed.next(), "appends continue the recorded sequence");
    cleanup(&file);
}

#[test]
fn compaction_bumps_the_generation_and_restarts_the_sequence() {
    let file = temp_catalog("generation_bump");
    let sidecar = sidecar_path(&file);
    let service = open(&file);
    service.call(Request::AddDocument { text: chain_document(3) }).unwrap();
    assert!(compose(&service, "v0", "v3") > 0);
    drop(service);
    let before = sidecar_position(&file);
    assert!(before.generation >= 1, "a live sidecar always has a generation");
    assert!(before.seq > 0, "appends advanced the sequence");

    // Compaction folds the log and opens a fresh generation at seq 0; the
    // rewritten sidecar announces it with a leading generation marker.
    let reopened = open(&file);
    let Ok(Response::Compacted { .. }) = reopened.call(Request::Compact) else {
        panic!("compact failed");
    };
    drop(reopened);
    assert_eq!(sidecar_position(&file), Position::new(before.generation + 1, 0));
    let text = std::fs::read_to_string(&sidecar).unwrap();
    assert!(
        text.starts_with(&format!("generation {} 0\n", before.generation + 1)),
        "the compacted sidecar must open with its generation marker"
    );

    // Post-compaction appends number from zero in the new generation, and
    // a second kill/restart still recovers the bumped generation.
    let survivor = open(&file);
    survivor.call(Request::Invalidate { mapping: "m2".into() }).unwrap();
    drop(survivor);
    let tail = sidecar_position(&file);
    assert_eq!(tail.generation, before.generation + 1, "the bumped generation is recovered");
    assert!(tail.seq > 0, "the new generation's sequence advanced from zero");
    cleanup(&file);
}

#[test]
fn kill_and_restart_replays_to_byte_identical_state() {
    let file = temp_catalog("kill_restart");
    let service = open(&file);
    service.call(Request::AddDocument { text: chain_document(5) }).unwrap();
    compose(&service, "v0", "v5");
    service.call(Request::Invalidate { mapping: "m2".into() }).unwrap();
    // An out-of-band edit through the service: version bump + invalidation
    // deltas land in the log.
    let edited = chain_document(5).replace("{ R1 <= R2; }", "{ project[0](R1) <= R2; }");
    service.call(Request::AddDocument { text: edited }).unwrap();
    compose(&service, "v0", "v5");
    let committed = committed_state(&service);
    drop(service); // kill: no shutdown, no compaction

    let reopened = open(&file);
    assert_eq!(committed_state(&reopened), committed);
    assert_eq!(reopened.session().catalog().mapping("m1").unwrap().version, 2);
    assert_eq!(compose(&reopened, "v0", "v5"), 0, "warm chain survives the restart");
    cleanup(&file);
}

#[test]
fn repointed_mapping_is_logged_and_survives_restart() {
    let file = temp_catalog("repoint");
    let service = open(&file);
    let base = "schema a { R/1; } schema b { S/1; } schema c { S/1; } schema d { T/1; } \
                mapping m : a -> b { R <= S; } mapping n : c -> d { S <= T; }";
    service.call(Request::AddDocument { text: base.into() }).unwrap();
    assert!(service.call(Request::ComposePath { from: "a".into(), to: "d".into() }).is_err());
    // Same constraints, same signatures, new target: the content hash is
    // unchanged, yet the mapping must move.
    let touched = match service
        .call(Request::AddDocument { text: "mapping m : a -> c { R <= S; }".into() })
        .unwrap()
    {
        Response::Added { touched, .. } => touched,
        other => panic!("unexpected reply {other:?}"),
    };
    assert_eq!(touched, vec!["m".to_string()]);
    let entry = service.session().catalog().mapping("m").unwrap();
    assert_eq!((entry.target.as_str(), entry.version), ("c", 2));
    assert_eq!(compose(&service, "a", "d"), 1, "m and n now form a chain");
    let repointed = committed_state(&service);
    drop(service); // kill: the re-point must come back from the delta log

    let reopened = open(&file);
    assert_eq!(committed_state(&reopened), repointed);
    assert_eq!(reopened.session().catalog().mapping("m").unwrap().target, "c");
    assert!(reopened.call(Request::ComposePath { from: "a".into(), to: "b".into() }).is_err());
    assert_eq!(compose(&reopened, "a", "d"), 0, "the re-pointed chain is warm after restart");
    cleanup(&file);
}

#[test]
fn rejected_add_document_leaves_catalog_and_sidecar_unchanged() {
    let file = temp_catalog("rejected_add");
    let sidecar = sidecar_path(&file);
    let service = open(&file);
    service.call(Request::AddDocument { text: chain_document(3) }).unwrap();
    compose(&service, "v0", "v3");
    let document_before = service.session().catalog().snapshot().to_document_string();
    let sidecar_before = std::fs::read(&sidecar).unwrap();
    for (text, message) in [
        ("mapping bad : v0 -> nowhere { R0 <= R0; }", "unknown schema `nowhere`"),
        ("mapping bad : nowhere -> v1 { R1 <= R1; }", "unknown schema `nowhere`"),
        // Redefining v1 with a binary R0 conflicts with v0's unary R0; the
        // schema edit that precedes the failing mapping must not land.
        ("schema v1 { R0/2; R1/1; } mapping bad : v0 -> v1 { R0 <= R1; }", "arity"),
        // The first mapping is fine, the second fails: neither lands.
        (
            "schema fresh { F/1; } mapping a1 : v0 -> fresh { R0 <= F; } \
             mapping a2 : fresh -> nowhere { F <= F; }",
            "unknown schema `nowhere`",
        ),
    ] {
        let error = service.call(Request::AddDocument { text: text.into() }).unwrap_err();
        assert!(error.to_string().contains(message), "{text}: {error}");
        assert_eq!(
            service.session().catalog().snapshot().to_document_string(),
            document_before,
            "{text}: a rejected document must not touch the catalog"
        );
        assert_eq!(std::fs::read(&sidecar).unwrap(), sidecar_before, "{text}: sidecar moved");
    }
    assert_eq!(compose(&service, "v0", "v3"), 0, "the cache survives rejected documents");
    cleanup(&file);
}

// ---------------------------------------------------------------------------
// Migrate-delta fault injection: a crash mid-`MigrateDelta` must leave the
// migration session replayable — recovery folds the surviving committed
// history, and a follow-up delta (or full re-chase) converges byte-
// identically with a cold engine over the same net source.
// ---------------------------------------------------------------------------

fn migrate(
    service: &LocalService,
    from: &str,
    to: &str,
    updates: &[&str],
) -> mapping_composition::service::MigratePayload {
    let request = Request::MigrateDelta {
        from: from.into(),
        to: to.into(),
        updates: updates.iter().map(std::string::ToString::to_string).collect(),
    };
    match service.call(request) {
        Ok(Response::Migrated(payload)) => payload,
        other => panic!("migrate-delta {from} -> {to} failed: {other:?}"),
    }
}

/// The cold oracle: a brand-new catalog fed the same net history in one
/// batch. Confluence of the Skolem chase makes its target the ground truth.
fn cold_migration_target(tag: &str, hops: usize, to: &str, updates: &[&str]) -> String {
    let file = temp_catalog(tag);
    let service = open(&file);
    service.call(Request::AddDocument { text: chain_document(hops) }).unwrap();
    let target = migrate(&service, "v0", to, updates).target;
    drop(service);
    cleanup(&file);
    target
}

#[test]
fn torn_migrate_delta_tail_reverts_to_the_acknowledged_batch() {
    let file = temp_catalog("torn_migrate");
    let sidecar = sidecar_path(&file);
    let service = open(&file);
    service.call(Request::AddDocument { text: chain_document(3) }).unwrap();
    let first = migrate(&service, "v0", "v2", &["+R0(1)", "+R0(2)"]);
    assert!(first.target_rows > 0, "the first batch must materialize target rows");
    // Commit point: the first batch's delta record is fully on disk.
    let committed_bytes = std::fs::read(&sidecar).unwrap();

    // The crash lands mid-way through appending the second batch's record:
    // the engine applied it in memory, but the log holds only a torn line.
    migrate(&service, "v0", "v2", &["-R0(1)", "+R0(3)"]);
    drop(service);
    let full = std::fs::read(&sidecar).unwrap();
    assert!(full.len() > committed_bytes.len() + 8, "the second batch must have appended");
    std::fs::write(&sidecar, &full[..committed_bytes.len() + 7]).unwrap();

    // Recovery drops the torn record: an empty probe batch rebuilds the
    // engine from the surviving history and serves the first batch's target.
    let reopened = open(&file);
    let probe = migrate(&reopened, "v0", "v2", &[]);
    assert_eq!(probe.target, first.target, "recovery = the acknowledged pre-crash batch");
    assert_eq!(probe.source_rows, 2);

    // Re-issuing the lost batch converges byte-identically with a cold
    // engine over the net source {R0(2), R0(3)}.
    let replayed = migrate(&reopened, "v0", "v2", &["-R0(1)", "+R0(3)"]);
    drop(reopened);
    let oracle = cold_migration_target("torn_migrate_oracle", 3, "v2", &["+R0(2)", "+R0(3)"]);
    assert_eq!(replayed.target, oracle, "follow-up delta must match a cold re-chase");
    cleanup(&file);
}

#[test]
fn migrate_sessions_survive_kill_restart_and_compaction() {
    let file = temp_catalog("migrate_compact");
    let sidecar = sidecar_path(&file);
    let service = open(&file);
    service.call(Request::AddDocument { text: chain_document(3) }).unwrap();
    migrate(&service, "v0", "v2", &["+R0(1)", "+R0(2)"]);
    migrate(&service, "v0", "v1", &["+R0(7)"]);

    // Compaction folds the per-session histories into `migrate` snapshot
    // lines; no `delta migrate` records may survive the rewrite.
    service.call(Request::Compact).unwrap();
    let text = std::fs::read_to_string(&sidecar).unwrap();
    assert!(!text.lines().any(|line| line.starts_with("delta ")), "compaction must fold deltas");
    assert_eq!(
        text.lines().filter(|line| line.starts_with("migrate ")).count(),
        2,
        "one snapshot line per live migration session"
    );

    // Post-compaction deltas stack on top of the snapshot...
    let live = migrate(&service, "v0", "v2", &["-R0(1)", "+R0(4)"]);
    drop(service); // ...and a kill without shutdown loses nothing.

    let reopened = open(&file);
    let probe = migrate(&reopened, "v0", "v2", &[]);
    assert_eq!(probe.target, live.target, "restart replays snapshot + delta history");
    let side = migrate(&reopened, "v0", "v1", &[]);
    assert_eq!(side.source_rows, 1, "the second session's history is independent");
    drop(reopened);
    let oracle = cold_migration_target("migrate_compact_oracle", 3, "v2", &["+R0(2)", "+R0(4)"]);
    assert_eq!(probe.target, oracle, "maintained target equals a cold re-chase");
    cleanup(&file);
}

// ---------------------------------------------------------------------------
// A read never writes: memo hits append nothing, publish nothing and leave
// their counters in memory. A kill may lose exactly those counters (and LRU
// recency); a clean shutdown loses nothing.
// ---------------------------------------------------------------------------

/// The durable part of a sidecar rendering: every record except the
/// `stats` line and the `generation` header, with memo entry blocks kept
/// whole and all records sorted (LRU order is soft state, like the
/// counters).
fn durable_records(sidecar: &str) -> Vec<String> {
    let mut records = Vec::new();
    let mut block: Option<String> = None;
    for line in sidecar.lines() {
        if let Some(open) = &mut block {
            open.push_str(line);
            open.push('\n');
            if line == "end-document" {
                records.extend(block.take());
            }
        } else if line.starts_with("entry ") {
            block = Some(format!("{line}\n"));
        } else if !line.starts_with("stats ") && !line.starts_with("generation ") {
            records.push(line.to_string());
        }
    }
    records.extend(block);
    records.sort();
    records
}

/// Catalog document plus the durable sidecar records of a live service:
/// catalog content, versions, memo entries and migration histories.
fn durable_state(service: &LocalService) -> (String, Vec<String>) {
    match service.call(Request::Snapshot) {
        Ok(Response::Snapshot(snapshot)) => (snapshot.document, durable_records(&snapshot.sidecar)),
        other => panic!("snapshot failed: {other:?}"),
    }
}

/// One counter off the service's metrics exposition.
fn metric(service: &LocalService, name: &str) -> u64 {
    let Ok(Response::Metrics { text }) = service.call(Request::Metrics) else {
        panic!("metrics request failed");
    };
    text.lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or_else(|| panic!("{name} missing from the metrics exposition"))
}

#[test]
fn warm_reads_write_nothing_and_a_kill_loses_only_counters() {
    let file = temp_catalog("read_never_writes");
    let sidecar = sidecar_path(&file);
    let service = open(&file).with_metrics_registry(MetricsRegistry::new().leak());
    let hub = service.enable_replication().unwrap();
    service.call(Request::AddDocument { text: chain_document(4) }).unwrap();
    assert!(compose(&service, "v0", "v4") > 0);
    migrate(&service, "v0", "v2", &["+R0(1)", "+R0(2)"]);

    // Warm reads of every kind: compose-path, compose-names and a batch.
    let bytes = std::fs::read(&sidecar).unwrap();
    let appends = metric(&service, "persist_appends_total");
    let position = hub.position();
    assert_eq!(compose(&service, "v0", "v4"), 0, "the chain is warm");
    let names = vec!["m0".to_string(), "m1".to_string()];
    service.call(Request::ComposeNames { names }).unwrap();
    let requests = vec![("v0".to_string(), "v4".to_string()), ("v0".to_string(), "v2".to_string())];
    service.call(Request::ComposeBatch { requests, workers: 1 }).unwrap();
    assert_eq!(std::fs::read(&sidecar).unwrap(), bytes, "a warm read must not touch the sidecar");
    assert_eq!(metric(&service, "persist_appends_total"), appends, "a warm read appended");
    assert_eq!(hub.position(), position, "a warm read published to followers");

    // A migrate-delta batch over the warm chain is one append: its record.
    migrate(&service, "v0", "v2", &["+R0(3)"]);
    assert_eq!(metric(&service, "persist_appends_total"), appends + 1);

    // One more warm read, so the live hit counters run ahead of the disk.
    assert_eq!(compose(&service, "v0", "v4"), 0);
    let live = durable_state(&service);
    let live_stats = service.session().cache().stats();
    drop(service); // kill: no shutdown, no compaction

    let reopened = open(&file);
    assert_eq!(durable_state(&reopened), live, "a kill loses no durable record");
    let restored = reopened.session().cache().stats();
    assert!(restored.hits <= live_stats.hits, "{restored:?} vs live {live_stats:?}");
    assert!(restored.hits < live_stats.hits, "the trailing warm read's hit is soft state");
    assert_eq!(CacheStats { hits: live_stats.hits, ..restored }, live_stats);
    assert_eq!(migrate(&reopened, "v0", "v2", &[]).source_rows, 3, "the history survived");

    // A clean shutdown compacts, so it restores the counters exactly.
    assert_eq!(compose(&reopened, "v0", "v4"), 0);
    let Ok(Response::ShuttingDown) = reopened.call(Request::Shutdown) else {
        panic!("shutdown failed");
    };
    let shut_down = committed_state(&reopened);
    drop(reopened);
    assert_eq!(committed_state(&open(&file)), shut_down, "shutdown keeps every counter");
    cleanup(&file);
}

#[test]
fn cold_migrate_delta_batch_is_one_append() {
    let file = temp_catalog("cold_migrate_append");
    let service = open(&file).with_metrics_registry(MetricsRegistry::new().leak());
    service.call(Request::AddDocument { text: chain_document(3) }).unwrap();
    let appends = metric(&service, "persist_appends_total");
    migrate(&service, "v0", "v3", &["+R0(1)"]);
    assert_eq!(metric(&service, "persist_appends_total"), appends + 1, "memo entries ride along");
    let committed = durable_state(&service);
    drop(service); // kill
    let reopened = open(&file);
    assert_eq!(durable_state(&reopened), committed);
    assert_eq!(compose(&reopened, "v0", "v3"), 0, "the chain's memo entries were persisted");
    cleanup(&file);
}

#[test]
fn one_shot_cli_runs_accumulate_hit_counters() {
    let file = temp_catalog("cli_hits");
    let document = file.with_extension("input");
    std::fs::write(&document, chain_document(2)).unwrap();
    let catalog = file.to_str().unwrap();
    let run = |args: &[&str]| {
        let output = std::process::Command::new(env!("CARGO_BIN_EXE_mapcomp"))
            .arg("catalog")
            .args(args)
            .args(["--catalog", catalog])
            .output()
            .expect("run mapcomp");
        assert!(output.status.success(), "{args:?}: {}", String::from_utf8_lossy(&output.stderr));
        String::from_utf8_lossy(&output.stderr).into_owned()
    };
    run(&["add", document.to_str().unwrap()]);
    run(&["compose-path", "v0", "v2"]);
    // Two warm one-shot reads: each hits the memo once and flushes its
    // counter as it exits.
    run(&["compose-path", "v0", "v2"]);
    run(&["compose-path", "v0", "v2"]);
    let stats = run(&["stats"]);
    assert!(stats.contains("lifetime  : 2 hits,"), "{stats}");
    let _ = std::fs::remove_file(&document);
    cleanup(&file);
}

// ---------------------------------------------------------------------------
// Back-referenced document lines and once-journaled invalidations
// ---------------------------------------------------------------------------

/// Every live memo entry as `(key, embedded document)`, in key order.
fn memo_documents(service: &LocalService) -> Vec<(MemoKey, String)> {
    let cache = service.session().cache().collect();
    cache.iter().map(|(key, entry)| (*key, render_chain_document(&entry.chain))).collect()
}

/// The document lines a sidecar writes as back-references.
fn reference_lines(file: &std::path::Path) -> usize {
    let text = std::fs::read_to_string(sidecar_path(file)).unwrap();
    text.lines().filter(|line| line.starts_with('@') && !line.starts_with("@@")).count()
}

fn edit(service: &LocalService, mapping: usize, constraint: &str) {
    let (from, to) = (mapping, mapping + 1);
    let text = format!("mapping m{mapping} : v{from} -> v{to} {{ {constraint}; }}");
    service.call(Request::AddDocument { text }).unwrap();
}

#[test]
fn kill_after_an_editing_session_restores_every_entry_byte_identically() {
    let file = temp_catalog("editing_session");
    let service = open(&file);
    service.call(Request::AddDocument { text: chain_document(6) }).unwrap();
    // Edits, recomposes and reads, with a compaction in the middle.
    compose(&service, "v0", "v6");
    edit(&service, 2, "project[0](R2) <= R3");
    compose(&service, "v0", "v6");
    assert_eq!(compose(&service, "v0", "v3"), 0);
    compose(&service, "v2", "v5");
    assert!(matches!(service.call(Request::Compact), Ok(Response::Compacted { .. })));
    edit(&service, 4, "R4 <= project[0](R5)");
    compose(&service, "v0", "v6");
    edit(&service, 2, "R2 <= R3");
    compose(&service, "v0", "v6");
    service.call(Request::Invalidate { mapping: "m1".into() }).unwrap();
    compose(&service, "v1", "v6");
    assert!(reference_lines(&file) > 0, "appended entries back-reference earlier lines");
    let live = memo_documents(&service);
    let committed = committed_state(&service);
    drop(service); // kill: no shutdown, no compaction

    let reopened = open(&file);
    assert_eq!(memo_documents(&reopened), live, "every entry is restored byte-identically");
    assert_eq!(committed_state(&reopened), committed);
    assert_eq!(compose(&reopened, "v1", "v6"), 0);
    cleanup(&file);
}

#[test]
fn a_chunk_torn_inside_a_back_referencing_block_drops_that_entry_only() {
    let file = temp_catalog("torn_reference_block");
    let sidecar = sidecar_path(&file);
    let service = open(&file);
    service.call(Request::AddDocument { text: chain_document(4) }).unwrap();
    assert!(compose(&service, "v0", "v2") > 0);
    let committed_bytes = std::fs::read_to_string(&sidecar).unwrap().len();
    // Two more entries in one chunk, both referencing lines of the first.
    assert_eq!(compose(&service, "v0", "v4"), 2);
    let live = memo_documents(&service);
    drop(service);

    // Cut the chunk right after the first reference of its last block.
    let full = std::fs::read_to_string(&sidecar).unwrap();
    let last_block = full.rfind("\nentry ").unwrap() + 1;
    assert!(last_block > committed_bytes, "the last block is in the appended chunk");
    let header: Vec<u64> = full[last_block..]
        .lines()
        .next()
        .unwrap()
        .split_whitespace()
        .skip(1)
        .map(|hex| u64::from_str_radix(hex, 16).unwrap())
        .collect();
    let torn_key = (header[0], header[1], header[2]);
    let reference = full[last_block..].find("\n@").unwrap() + last_block + 1;
    let cut = full[reference..].find('\n').unwrap() + reference + 1;
    std::fs::write(&sidecar, &full.as_bytes()[..cut]).unwrap();

    let reopened = open(&file);
    let expected: Vec<_> = live.into_iter().filter(|(key, _)| *key != torn_key).collect();
    assert_eq!(memo_documents(&reopened), expected, "only the torn block's entry is dropped");
    assert_eq!(compose(&reopened, "v0", "v4"), 1, "the torn entry is recomposed alone");
    cleanup(&file);
}

#[test]
fn raw_lines_starting_with_an_at_sign_survive_kill_and_restart() {
    let file = temp_catalog("at_lines");
    let service = open(&file);
    service.call(Request::AddDocument { text: chain_document(3) }).unwrap();
    // A string constant holding a newline starts a document line with `@`.
    edit(&service, 0, "select[#0 = 'a\n@0123456789abcdef'](R0) <= R1");
    compose(&service, "v0", "v3");
    compose(&service, "v0", "v2");
    let text = std::fs::read_to_string(sidecar_path(&file)).unwrap();
    assert!(text.lines().any(|line| line.starts_with("@@0123456789abcdef")), "{text}");
    let live = memo_documents(&service);
    assert!(live.iter().any(|(_, document)| document.contains("\n@0123456789abcdef")));
    drop(service);
    let reopened = open(&file);
    assert_eq!(memo_documents(&reopened), live);
    assert_eq!(compose(&reopened, "v0", "v3"), 0);
    cleanup(&file);
}

/// What a sidecar loads to, rendered: the restored catalog, its versions,
/// the statistics, the resume position and every memo entry with its
/// provenance and document.
fn loaded_state(document: &str, sidecar: &str) -> String {
    let state = load_sidecar(strip_torn_tail(sidecar));
    let catalog = restore_catalog(&parse_document(document).unwrap(), &state).unwrap();
    let mut out = String::new();
    out.push_str("catalog\n");
    out.push_str(&catalog.to_document_string());
    out.push_str("versions\n");
    out.push_str(&VersionManifest::of(&catalog).render());
    let stats = state.cache.stats();
    let _ = writeln!(
        out,
        "stats {} {} {} {} {}",
        stats.hits, stats.misses, stats.insertions, stats.invalidated, stats.evictions
    );
    let _ = writeln!(out, "position {}", state.next_position());
    for ((left, right, config), entry) in state.cache.iter() {
        let chain = &entry.chain;
        let _ = writeln!(out, "entry {left:016x} {right:016x} {config:016x} {:016x}", chain.hash);
        let _ = writeln!(out, "endpoints {} -> {}", chain.source, chain.target);
        let _ = writeln!(out, "path {}", chain.path.join(" "));
        let deps: Vec<&str> = chain.deps.iter().map(String::as_str).collect();
        let _ = writeln!(out, "deps {}", deps.join(" "));
        out.push_str(&render_chain_document(chain));
    }
    out
}

#[test]
fn a_sidecar_written_before_back_references_loads_to_the_same_state() {
    // Written by the build before back-references: inline documents,
    // `deps` lines, per-entry evictions after `delta invalidate` and
    // absolute version lines. `expected_state.txt` is what that build
    // loaded it to.
    let fixture =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/legacy_sidecar");
    let read = |name: &str| std::fs::read_to_string(fixture.join(name)).unwrap();
    let (document, sidecar) = (read("catalog.doc"), read("catalog.doc.memo"));
    assert!(sidecar.contains("\ndeps ") && sidecar.contains(" evict "));
    assert_eq!(loaded_state(&document, &sidecar), read("expected_state.txt"));

    // A current writer appends to the old file in the new forms; the mix
    // loads to the live state.
    let file = temp_catalog("legacy");
    std::fs::write(&file, &document).unwrap();
    std::fs::write(sidecar_path(&file), &sidecar).unwrap();
    let service = open(&file);
    assert_eq!(compose(&service, "v0", "v3"), 0, "the legacy memo serves");
    edit(&service, 3, "project[0](R3) <= R4");
    compose(&service, "v0", "v4");
    let live = memo_documents(&service);
    let committed = committed_state(&service);
    drop(service);
    let reopened = open(&file);
    assert_eq!(memo_documents(&reopened), live);
    assert_eq!(committed_state(&reopened), committed);
    cleanup(&file);
}

#[test]
fn a_writer_appending_after_another_process_compacted_writes_lines_raw_again() {
    let file = temp_catalog("two_writers");
    let sidecar = sidecar_path(&file);
    let first = open(&file);
    first.call(Request::AddDocument { text: chain_document(3) }).unwrap();
    assert!(compose(&first, "v0", "v2") > 0);
    // A second process opens the catalog and learns the file's lines.
    let second = open(&file);
    // The first drops the entry holding them and compacts: the rewritten
    // file no longer holds them.
    first.call(Request::Invalidate { mapping: "m1".into() }).unwrap();
    assert!(matches!(first.call(Request::Compact), Ok(Response::Compacted { .. })));
    assert!(!std::fs::read_to_string(&sidecar).unwrap().contains("begin-document"));

    // The second composes a chain whose entries repeat those lines; it
    // must write them raw, or its entries could not be loaded.
    let before = std::fs::read_to_string(&sidecar).unwrap().len();
    assert!(compose(&second, "v0", "v3") > 0);
    let chunk = std::fs::read_to_string(&sidecar).unwrap()[before..].to_string();
    assert!(chunk.contains("schema __in { R0/1; }"), "raw lines again:\n{chunk}");
    let live = memo_documents(&second);
    drop((first, second));
    let reopened = open(&file);
    let restored = memo_documents(&reopened);
    for entry in &live[..] {
        if entry.1.contains("R3") {
            assert!(restored.contains(entry), "the second writer's entry must load: {entry:?}");
        }
    }
    cleanup(&file);
}

#[test]
fn an_lru_eviction_drained_by_another_requests_persist_reaches_disk() {
    let file = temp_catalog("bounded_evictions");
    let config = SessionConfig { cache_capacity: Some(2), ..SessionConfig::default() };
    let open_bounded = || {
        LocalService::open_with_policy(
            &file,
            Registry::standard(),
            config.clone(),
            1,
            true,
            policy(),
        )
        .expect("open persistent service")
    };
    let service = open_bounded();
    service.call(Request::AddDocument { text: chain_document(5) }).unwrap();
    compose(&service, "v0", "v2");
    // Compositions outside the request path evict without persisting: the
    // next request's persist drains their evictions.
    let session = service.session();
    session.compose_path("v1", "v3").unwrap();
    session.compose_path("v2", "v4").unwrap();
    assert!(session.cache().stats().evictions > 0);
    let before = std::fs::read_to_string(sidecar_path(&file)).unwrap().len();
    service.call(Request::Invalidate { mapping: "m4".into() }).unwrap();
    let chunk = std::fs::read_to_string(sidecar_path(&file)).unwrap()[before..].to_string();
    assert!(chunk.contains(" evict "), "the drained evictions are written:\n{chunk}");
    assert!(chunk.contains(" invalidate m4\n"), "{chunk}");
    let live = memo_documents(&service);
    drop(service);
    assert_eq!(memo_documents(&open_bounded()), live, "no evicted entry is resurrected");
    cleanup(&file);
}
