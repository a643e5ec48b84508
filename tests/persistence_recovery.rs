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

use mapping_composition::catalog::{
    parse_positioned_delta, CacheStats, Position, SessionConfig, SidecarWriter,
};
use mapping_composition::compose::Registry;
use mapping_composition::service::{
    sidecar_path, LocalService, MapcompService as _, PersistPolicy, Request, Response,
};

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
        let mut tmp = path.file_name().unwrap().to_os_string();
        tmp.push(".tmp");
        let _ = std::fs::remove_file(path.with_file_name(tmp));
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
