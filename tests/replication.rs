//! End-to-end replication suite: a leader [`LocalService`] behind an
//! [`EventServer`] streaming its delta log to [`Follower`] replicas over
//! real sockets. Covers snapshot bootstrap (fresh and stale positions),
//! live tailing, byte-identical convergence under concurrent leader writes,
//! the compaction/subscription atomicity fix (no dropped or duplicated
//! deltas across a generation boundary), follower kill/restart resume,
//! migration histories surviving a follower's restart and shutdown, and
//! the read-only write fence.
//!
//! The tests share the process-global metrics registry (lag gauge,
//! snapshot counters), so they serialise on one mutex.

// Integration-test crates are built without `cfg(test)`, so the
// `allow-unwrap-in-tests` exemption in clippy.toml cannot reach them;
// panicking on a surprise is exactly what a test should do.
#![allow(clippy::unwrap_used)]

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use mapping_composition::catalog::{
    load_sidecar, parse_positioned_delta, Catalog, Position, SessionConfig, VersionManifest,
};
use mapping_composition::compose::Registry;
use mapping_composition::service::{
    sidecar_path, Client, ErrorCode, EventServer, Follower, LocalService, MapcompService as _,
    PersistPolicy, Request, Response,
};

/// One test at a time: they share the process-global metrics registry and
/// assert on counter deltas.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Threshold compaction disabled, so tests control generation boundaries
/// explicitly.
fn policy() -> PersistPolicy {
    PersistPolicy { compact_appends: None, compact_bytes: None }
}

/// The path `temp_catalog` produces for `tag`, without cleaning anything.
fn temp_catalog_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("mapcomp_replication_{tag}_{}.doc", std::process::id()))
}

fn temp_catalog(tag: &str) -> std::path::PathBuf {
    let file = temp_catalog_path(tag);
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

/// A replicating leader over `file`: incremental persistence, hub enabled.
fn open_leader(file: &std::path::Path) -> LocalService {
    let service = LocalService::open_with_policy(
        file,
        Registry::standard(),
        SessionConfig::default(),
        4,
        true,
        policy(),
    )
    .expect("open leader");
    service.enable_replication().expect("enable replication");
    service
}

fn open_follower(file: &std::path::Path, leader_addr: &str) -> Follower {
    Follower::open(file, leader_addr, Registry::standard(), SessionConfig::default(), 2, None)
        .expect("open follower")
}

/// Serve a fresh replicating leader on a loopback socket for the duration
/// of `body`; the server is shut down even if `body` panics, so a failed
/// assertion fails the test instead of wedging the scope join.
fn with_leader(tag: &str, body: impl FnOnce(&LocalService, &str)) {
    let leader_file = temp_catalog(&format!("{tag}_leader"));
    let leader = open_leader(&leader_file);
    let server = EventServer::bind("127.0.0.1:0").unwrap();
    let addr = server.local_addr().unwrap().to_string();
    std::thread::scope(|scope| {
        let serve = scope.spawn(|| server.run(&leader, 2));
        let outcome = catch_unwind(AssertUnwindSafe(|| body(&leader, &addr)));
        if let Ok(client) = Client::connect(&addr) {
            let _ = client.call(Request::Shutdown);
        }
        let served = serve.join().unwrap();
        match outcome {
            Err(panic) => resume_unwind(panic),
            Ok(()) => served.expect("leader server"),
        }
    });
    cleanup(&leader_file);
}

/// Run the follower's apply loop while `body` executes; stops the loop and
/// joins it afterwards, panic or not.
fn with_running_follower(follower: &Follower, body: impl FnOnce()) {
    std::thread::scope(|scope| {
        let apply = scope.spawn(|| follower.run());
        let outcome = catch_unwind(AssertUnwindSafe(body));
        follower.stop();
        let applied = apply.join().unwrap();
        match outcome {
            Err(panic) => resume_unwind(panic),
            Ok(()) => applied.expect("apply loop"),
        }
    });
}

/// Leader + one live follower, both torn down safely around `body`.
fn with_leader_and_follower(tag: &str, body: impl FnOnce(&LocalService, &str, &Follower)) {
    let follower_file = temp_catalog(&format!("{tag}_follower"));
    with_leader(tag, |leader, addr| {
        let follower = open_follower(&follower_file, addr);
        with_running_follower(&follower, || body(leader, addr, &follower));
    });
    cleanup(&follower_file);
}

fn add(service: &LocalService, text: &str) {
    match service.call(Request::AddDocument { text: text.into() }) {
        Ok(Response::Added { .. }) => {}
        other => panic!("add failed: {other:?}"),
    }
}

fn migrate(service: &LocalService, from: &str, to: &str, updates: &[&str]) {
    let updates = updates.iter().map(ToString::to_string).collect();
    match service.call(Request::MigrateDelta { from: from.into(), to: to.into(), updates }) {
        Ok(Response::Migrated(_)) => {}
        other => panic!("migrate-delta failed: {other:?}"),
    }
}

/// The migration histories a catalog's sidecar file records.
fn sidecar_migrations(
    file: &std::path::Path,
) -> std::collections::BTreeMap<(String, String), Vec<String>> {
    load_sidecar(&std::fs::read_to_string(sidecar_path(file)).expect("sidecar")).migrations
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

/// Wait until the follower is streaming with its position caught up to the
/// leader's log end. Panics after `timeout`.
fn await_convergence(leader: &LocalService, follower: &Follower, timeout: Duration) {
    let hub = leader.replication_hub().expect("leader hub");
    let deadline = Instant::now() + timeout;
    loop {
        let status = follower.status();
        if status.state == "streaming" && status.position == hub.position() {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "follower never converged: leader at {}, follower {:?}",
            hub.position(),
            status
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// The convergence comparison surface: byte-identical document rendering
/// and version manifest.
fn replica_state(catalog: &Catalog) -> (String, String) {
    (catalog.to_document_string(), VersionManifest::of(catalog).render())
}

fn assert_replicas_identical(leader: &LocalService, follower: &Follower) {
    let leader_catalog = leader.session().catalog().snapshot();
    let follower_catalog = follower.catalog_snapshot();
    assert_eq!(replica_state(&leader_catalog), replica_state(&follower_catalog));
}

/// The counter value of `name` in the leader's metrics exposition.
fn metric_value(leader: &LocalService, name: &str) -> u64 {
    let text = match leader.call(Request::Metrics) {
        Ok(Response::Metrics { text }) => text,
        other => panic!("metrics failed: {other:?}"),
    };
    text.lines()
        .find_map(|line| line.strip_prefix(name).and_then(|rest| rest.trim().parse().ok()))
        .unwrap_or(0)
}

/// Every positioned record in a follower sidecar must advance — a repeated
/// delta position means a chunk was delivered twice, a position below the
/// generation floor means records were dropped or replayed across a
/// compaction boundary.
fn assert_log_monotonic(sidecar_text: &str) {
    // `floor` is the highest position any line has announced; a generation
    // marker names the *next* record's position, so a delta may legally sit
    // exactly at the floor, but deltas must be strictly increasing among
    // themselves.
    let mut floor = Position::new(0, 0);
    let mut last_delta: Option<Position> = None;
    for line in sidecar_text.lines() {
        if let Some(rest) = line.strip_prefix("generation ") {
            let mut tokens = rest.split_whitespace();
            let generation: u64 = tokens.next().unwrap().parse().unwrap();
            let seq: u64 = tokens.next().unwrap().parse().unwrap();
            let marker = Position::new(generation, seq);
            assert!(marker >= floor, "generation marker went backwards: {marker} after {floor}");
            floor = marker;
        } else if let Some((Some(position), _)) = parse_positioned_delta(line) {
            assert!(position >= floor, "delta predates its generation: {position} under {floor}");
            if let Some(previous) = last_delta {
                assert!(
                    position > previous,
                    "duplicate or out-of-order delta: {position} after {previous}"
                );
            }
            last_delta = Some(position);
            floor = position;
        }
    }
}

#[test]
fn fresh_follower_bootstraps_from_snapshot_and_serves_reads() {
    let _serial = serial();
    let follower_file = temp_catalog("bootstrap_follower");
    with_leader("bootstrap", |leader, addr| {
        // Data that predates the follower entirely: a fresh follower's 0:0
        // position is stale against the leader's generation, so the first
        // connection must bootstrap from a snapshot.
        add(leader, &chain_document(4));
        let snapshots_before = metric_value(leader, "replication_snapshots_served_total");

        let follower = open_follower(&follower_file, addr);
        with_running_follower(&follower, || {
            await_convergence(leader, &follower, Duration::from_secs(10));
            assert_eq!(
                metric_value(leader, "replication_snapshots_served_total"),
                snapshots_before + 1,
                "a fresh follower must bootstrap from exactly one snapshot"
            );
            assert_replicas_identical(leader, &follower);

            // Reads are served locally by the replica.
            let service = follower.service();
            match service.call(Request::ComposePath { from: "v0".into(), to: "v4".into() }) {
                Ok(Response::Composed(payload)) => {
                    assert_eq!(payload.path, vec!["m0", "m1", "m2", "m3"]);
                }
                other => panic!("compose on follower failed: {other:?}"),
            }
            let status = follower.status();
            assert_eq!(status.role, "follower");
            assert_eq!(status.lag, 0);
        });
    });
    cleanup(&follower_file);
}

#[test]
fn live_writes_stream_to_byte_identical_convergence() {
    let _serial = serial();
    with_leader_and_follower("live", |leader, _addr, follower| {
        await_convergence(leader, follower, Duration::from_secs(10));
        // Writes land while the follower tails: schemas, mappings, edits
        // (version bumps) and invalidations.
        add(leader, &chain_document(3));
        add(leader, "schema x1 { A/1; } schema x2 { B/1; } mapping mx : x1 -> x2 { A <= B; }");
        add(leader, "mapping mx : x1 -> x2 { A <= project[0](B); }");
        match leader.call(Request::Invalidate { mapping: "m1".into() }) {
            Ok(Response::Invalidated { .. }) => {}
            other => panic!("invalidate failed: {other:?}"),
        }
        await_convergence(leader, follower, Duration::from_secs(10));
        assert_replicas_identical(leader, follower);

        // The follower's stats surface reports its role and zero lag.
        match follower.service().call(Request::Stats) {
            Ok(Response::Stats(stats)) => {
                let replication = stats.replication.expect("follower stats carry replication");
                assert_eq!(replication.role, "follower");
                assert_eq!(replication.state, "streaming");
                assert_eq!(replication.lag, 0);
            }
            other => panic!("stats failed: {other:?}"),
        }
    });
}

#[test]
fn compaction_mid_subscription_neither_drops_nor_duplicates() {
    let _serial = serial();
    with_leader_and_follower("compact", |leader, _addr, follower| {
        await_convergence(leader, follower, Duration::from_secs(10));
        // Interleave writes and compactions: every Compact bumps the
        // generation and rewrites the leader sidecar while the follower's
        // subscription is live. The atomic boundary handoff must deliver
        // every record exactly once.
        for round in 0..4 {
            add(
                leader,
                &format!(
                    "schema a{round} {{ P{round}/1; }} schema b{round} {{ Q{round}/1; }} \
                     mapping w{round} : a{round} -> b{round} {{ P{round} <= Q{round}; }}"
                ),
            );
            match leader.call(Request::Compact) {
                Ok(Response::Compacted { .. }) => {}
                other => panic!("compact failed: {other:?}"),
            }
            add(
                leader,
                &format!(
                    "mapping w{round} : a{round} -> b{round} \
                     {{ P{round} <= project[0](Q{round}); }}"
                ),
            );
        }
        await_convergence(leader, follower, Duration::from_secs(10));
        assert_replicas_identical(leader, follower);
        let sidecar_text =
            std::fs::read_to_string(sidecar_path(&temp_catalog_path("compact_follower")))
                .expect("follower sidecar");
        assert_log_monotonic(&sidecar_text);
    });
}

#[test]
fn follower_kill_and_restart_resumes_without_a_snapshot() {
    let _serial = serial();
    let follower_file = temp_catalog("restart_follower");
    with_leader("restart", |leader, addr| {
        add(leader, &chain_document(3));

        // First life: bootstrap (one snapshot), converge, shut down through
        // the service surface so the replica persists its artifacts.
        let first = open_follower(&follower_file, addr);
        let snapshots_before = metric_value(leader, "replication_snapshots_served_total");
        with_running_follower(&first, || {
            await_convergence(leader, &first, Duration::from_secs(10));
            assert_eq!(first.service().call(Request::Shutdown).unwrap(), Response::ShuttingDown);
        });

        // Writes the dead follower misses.
        add(leader, "schema y1 { C/1; } schema y2 { D/1; } mapping my : y1 -> y2 { C <= D; }");

        // Second life: resume from the recorded position — the retained log
        // still covers it (no compaction happened), so no snapshot is
        // served; the missed writes arrive as replay.
        let second = open_follower(&follower_file, addr);
        with_running_follower(&second, || {
            await_convergence(leader, &second, Duration::from_secs(10));
            assert_replicas_identical(leader, &second);
        });
        assert_eq!(
            metric_value(leader, "replication_snapshots_served_total"),
            snapshots_before + 1,
            "a restart within the retained log must resume, not re-bootstrap"
        );
    });
    cleanup(&follower_file);
}

#[test]
fn follower_restart_and_shutdown_keep_every_migration_history() {
    let _serial = serial();
    let follower_file = temp_catalog("migrations_follower");
    with_leader("migrations", |leader, addr| {
        add(leader, &chain_document(2));
        // Before the follower exists: this history reaches it as the
        // snapshot bootstrap's absolute `migrate` line.
        migrate(leader, "v0", "v2", &["+R0(1)", "+R0(2)"]);

        // First life: bootstrap, then a batch streamed as `delta … migrate`;
        // the replica is dropped without a shutdown, so only its verbatim
        // artifacts carry the histories into the next life.
        let first = open_follower(&follower_file, addr);
        with_running_follower(&first, || {
            await_convergence(leader, &first, Duration::from_secs(10));
            migrate(leader, "v0", "v2", &["+R0(3)"]);
            await_convergence(leader, &first, Duration::from_secs(10));
        });
        drop(first);

        // Second life: reopen from those artifacts, stream one more batch,
        // and shut down through the service surface, which rewrites the
        // replica in snapshot form.
        let second = open_follower(&follower_file, addr);
        with_running_follower(&second, || {
            await_convergence(leader, &second, Duration::from_secs(10));
            migrate(leader, "v1", "v2", &["+R1(7)"]);
            await_convergence(leader, &second, Duration::from_secs(10));
            assert_eq!(second.service().call(Request::Shutdown).unwrap(), Response::ShuttingDown);
        });

        let leader_histories = sidecar_migrations(&temp_catalog_path("migrations_leader"));
        let history = |from: &str, to: &str, updates: &[&str]| {
            ((from.to_string(), to.to_string()), updates.iter().map(ToString::to_string).collect())
        };
        assert_eq!(
            leader_histories,
            [
                history("v0", "v2", &["+R0(1)", "+R0(2)", "+R0(3)"]),
                history("v1", "v2", &["+R1(7)"])
            ]
            .into_iter()
            .collect()
        );
        let follower_sidecar = std::fs::read_to_string(sidecar_path(&follower_file)).unwrap();
        assert!(!follower_sidecar.contains("delta "), "shutdown folds the follower's log");
        assert_eq!(
            sidecar_migrations(&follower_file),
            leader_histories,
            "the follower's shutdown snapshot must keep every migration history"
        );
    });
    cleanup(&follower_file);
}

#[test]
fn stale_follower_bootstraps_from_a_snapshot_after_leader_compaction() {
    let _serial = serial();
    let follower_file = temp_catalog("stale_follower");
    with_leader("stale", |leader, addr| {
        add(leader, &chain_document(3));

        let first = open_follower(&follower_file, addr);
        with_running_follower(&first, || {
            await_convergence(leader, &first, Duration::from_secs(10));
            assert_eq!(first.service().call(Request::Shutdown).unwrap(), Response::ShuttingDown);
        });

        // While the follower is down, the leader moves on *and compacts*:
        // the follower's recorded position now predates the oldest retained
        // generation.
        add(leader, "schema z1 { E/1; } schema z2 { F/1; } mapping mz : z1 -> z2 { E <= F; }");
        match leader.call(Request::Compact) {
            Ok(Response::Compacted { .. }) => {}
            other => panic!("compact failed: {other:?}"),
        }
        let snapshots_before = metric_value(leader, "replication_snapshots_served_total");

        let second = open_follower(&follower_file, addr);
        with_running_follower(&second, || {
            await_convergence(leader, &second, Duration::from_secs(10));
            assert_replicas_identical(leader, &second);
        });
        assert_eq!(
            metric_value(leader, "replication_snapshots_served_total"),
            snapshots_before + 1,
            "a stale position must bootstrap from exactly one snapshot"
        );
    });
    cleanup(&follower_file);
}

#[test]
fn concurrent_leader_writes_with_live_follower_converge_byte_identically() {
    let _serial = serial();
    const THREADS: usize = 4;
    const OPS_PER_THREAD: usize = 24;
    with_leader_and_follower("stress", |leader, _addr, follower| {
        await_convergence(leader, follower, Duration::from_secs(10));
        // Shared fixture every thread composes over, plus one private
        // mapping per thread that it edits back and forth (version bumps).
        add(leader, &chain_document(4));
        std::thread::scope(|scope| {
            for thread in 0..THREADS {
                scope.spawn(move || {
                    for op in 0..OPS_PER_THREAD {
                        match op % 4 {
                            0 | 1 => {
                                // Edit the private mapping: alternating
                                // content variants, each a version bump and
                                // an invalidation on the wire.
                                let body = if (op / 4) % 2 == 0 {
                                    format!("S{thread} <= T{thread};")
                                } else {
                                    format!("S{thread} <= project[0](T{thread});")
                                };
                                add(
                                    leader,
                                    &format!(
                                        "schema s{thread} {{ S{thread}/1; }} \
                                         schema t{thread} {{ T{thread}/1; }} \
                                         mapping p{thread} : s{thread} -> t{thread} {{ {body} }}"
                                    ),
                                );
                            }
                            2 => {
                                let _ = leader
                                    .call(Request::Invalidate { mapping: format!("m{thread}") });
                            }
                            _ => {
                                let _ = leader.call(Request::ComposePath {
                                    from: "v0".into(),
                                    to: "v4".into(),
                                });
                            }
                        }
                    }
                });
            }
            // A compactor rides along: generation boundaries land in the
            // middle of the write storm.
            scope.spawn(move || {
                for _ in 0..3 {
                    std::thread::sleep(Duration::from_millis(20));
                    let _ = leader.call(Request::Compact);
                }
            });
        });
        await_convergence(leader, follower, Duration::from_secs(30));
        assert_replicas_identical(leader, follower);
    });
}

#[test]
fn followers_fence_writes_with_the_readonly_error() {
    let _serial = serial();
    with_leader_and_follower("readonly", |leader, addr, follower| {
        await_convergence(leader, follower, Duration::from_secs(10));
        let service = follower.service();
        for request in [
            Request::AddDocument { text: "schema q { R/1; }".into() },
            Request::Invalidate { mapping: "m0".into() },
            Request::Compact,
        ] {
            let error = service.call(request).expect_err("writes must be fenced");
            assert_eq!(error.code, ErrorCode::Readonly);
            assert!(error.message.contains(addr), "the error must name the leader: {error}");
        }
        // A follower is not a leader: replication requests point back too.
        let error = service.call(Request::Snapshot).expect_err("followers serve no snapshots");
        assert_eq!(error.code, ErrorCode::Unavailable);
        assert!(error.message.contains(addr), "the error must name the leader: {error}");
    });
}
