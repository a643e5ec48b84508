//! Follower mode: a read-only catalog replica fed by a leader's
//! replication stream.
//!
//! A [`Follower`] owns a warm in-memory catalog (a [`LocalService`]
//! without persistence of its own) plus the follower's on-disk artifacts —
//! a catalog document and a sidecar the leader's chunks are appended to
//! *verbatim*, so a restarted follower replays exactly the bytes the
//! leader shipped and resumes subscribing from its recorded position. The
//! apply loop runs on a dedicated thread ([`Follower::run`]):
//!
//! 1. **connecting** — dial the leader and send
//!    [`Request::Subscribe`] from the local resume position.
//! 2. **bootstrapping** — if the leader answers
//!    [`ErrorCode::Stale`] (our position predates the oldest retained
//!    generation), fetch [`Request::Snapshot`] on the same connection,
//!    install it (files first, then the in-memory catalog), and subscribe
//!    again from the snapshot's position.
//! 3. **streaming** — apply [`Response::Delta`] chunks (append verbatim,
//!    ingest schema/mapping payloads, replay invalidations) and
//!    [`Response::Generation`] boundary markers as they arrive.
//! 4. **reconnecting** — on EOF or a transport error, back off and start
//!    over from step 1; the resume position makes the retry exact.
//!
//! Read traffic is served by the [`ReadOnlyService`] wrapper: compose,
//! stats, analysis and metrics hit the local replica (with its own memo
//! cache, warmed by the follower's own traffic), while state-changing
//! requests fail with [`ErrorCode::Readonly`] naming the leader. The full
//! lifecycle and stream grammar are specified in `docs/REPLICATION.md`.

use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use mapcomp_algebra::parse_document;
use mapcomp_catalog::{
    load_sidecar, parse_positioned_delta, render_generation_marker, restore_catalog, Catalog,
    DeltaRecord, Position, SessionConfig, SidecarWriter,
};
use mapcomp_compose::Registry;
use mapcomp_telemetry::metrics::Gauge;

use crate::api::{
    DeltaChunkPayload, ErrorCode, ReplicationInfo, Request, Response, ServiceError, SnapshotPayload,
};
use crate::client::Connection;
use crate::service::{read_catalog, sidecar_path, LocalService, MapcompService};

/// Where the follower's apply loop currently is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FollowerState {
    /// Dialing the leader (also the state before the first connection).
    Connecting,
    /// The subscribe position was stale; installing a snapshot.
    Bootstrapping,
    /// Subscribed and applying the live stream.
    Streaming,
    /// The connection dropped; backing off before redialing.
    Reconnecting,
    /// The apply loop has exited (shutdown or a fatal error).
    Stopped,
}

impl FollowerState {
    /// Every lifecycle state, for exhaustive iteration (the documented
    /// state table in `docs/REPLICATION.md` is checked against this).
    pub const ALL: [FollowerState; 5] = [
        FollowerState::Connecting,
        FollowerState::Bootstrapping,
        FollowerState::Streaming,
        FollowerState::Reconnecting,
        FollowerState::Stopped,
    ];

    /// The stable lifecycle keyword reported in `stats` and the docs.
    pub fn as_str(self) -> &'static str {
        match self {
            FollowerState::Connecting => "connecting",
            FollowerState::Bootstrapping => "bootstrapping",
            FollowerState::Streaming => "streaming",
            FollowerState::Reconnecting => "reconnecting",
            FollowerState::Stopped => "stopped",
        }
    }
}

/// Apply-loop progress shared with the stats path.
struct Status {
    state: FollowerState,
    /// The next log position to apply — the resume position a reconnect
    /// subscribes from; everything before it is applied locally.
    next: Position,
    /// The highest leader log-end position observed (subscribe acks and
    /// chunk tails); the lag baseline.
    leader_end: Position,
    /// Cached `leader_end - next` (same-generation record distance).
    lag: u64,
}

/// Records between `applied` and the observed leader end. Across a
/// generation boundary the distance is unknowable without the leader's
/// log; report 0 (the follower either catches up within the new
/// generation or bootstraps from a snapshot).
fn lag_between(applied: Position, leader_end: Position) -> u64 {
    if applied.generation == leader_end.generation {
        leader_end.seq.saturating_sub(applied.seq)
    } else {
        0
    }
}

struct FollowerCore {
    /// The local replica: catalog, memo cache and migration sources, no
    /// persistence of its own (the stream owns the on-disk artifacts).
    service: LocalService,
    catalog_file: PathBuf,
    /// The follower's own sidecar: leader chunks appended verbatim.
    sidecar: SidecarWriter,
    leader_addr: String,
    auth_token: Option<String>,
    status: Mutex<Status>,
    stop: AtomicBool,
    /// The live leader connection's write half, kept so `stop` can
    /// shut the socket down and unblock a reader parked in `read_frame`.
    link: Mutex<Option<TcpStream>>,
    lag_gauge: &'static Gauge,
}

/// A catalog replica streaming from a leader. See the module docs for the
/// lifecycle; construct with [`Follower::open`], serve reads through
/// [`Follower::service`], and drive the stream with [`Follower::run`] on a
/// dedicated thread.
pub struct Follower {
    core: Arc<FollowerCore>,
}

impl Follower {
    /// Open a follower bound to `catalog_file` (and its sidecar), resuming
    /// from whatever position the local artifacts record — a fresh
    /// directory starts at `0:0`, which any replicating leader reports as
    /// stale, steering the first connection into a snapshot bootstrap.
    pub fn open(
        catalog_file: impl Into<PathBuf>,
        leader_addr: impl Into<String>,
        registry: Registry,
        config: SessionConfig,
        workers: usize,
        auth_token: Option<String>,
    ) -> Result<Follower, ServiceError> {
        let catalog_file: PathBuf = catalog_file.into();
        let sidecar = SidecarWriter::new(sidecar_path(&catalog_file));
        let (catalog, state) = read_catalog(&catalog_file, &sidecar, true, workers)?;
        let next = state.next_position();
        let lag_gauge = mapcomp_telemetry::metrics::global().gauge(
            "replication_follower_lag",
            "Delta records the follower has yet to apply (leader log end minus applied position).",
            &[],
        );
        Ok(Follower {
            core: Arc::new(FollowerCore {
                service: LocalService::restored(catalog, state, registry, config, workers),
                catalog_file,
                sidecar,
                leader_addr: leader_addr.into(),
                auth_token,
                status: Mutex::new(Status {
                    state: FollowerState::Connecting,
                    next,
                    leader_end: next,
                    lag: 0,
                }),
                stop: AtomicBool::new(false),
                link: Mutex::new(None),
                lag_gauge,
            }),
        })
    }

    /// The read-only service surface to put behind a server front end.
    pub fn service(&self) -> ReadOnlyService {
        ReadOnlyService { core: Arc::clone(&self.core) }
    }

    /// Current role, lifecycle state, resume position and lag.
    pub fn status(&self) -> ReplicationInfo {
        self.core.replication_info()
    }

    /// A snapshot of the replica's catalog — the comparison surface for
    /// convergence checks (document rendering, version manifest).
    pub fn catalog_snapshot(&self) -> Catalog {
        self.core.service.session().catalog().snapshot()
    }

    /// Ask the apply loop to exit; unblocks a parked stream read.
    pub fn stop(&self) {
        self.core.stop();
    }

    /// Run the apply loop until [`Follower::stop`] (or a shutdown request
    /// through the service surface). Reconnects with exponential backoff on
    /// transport failures; returns an error only when the leader positively
    /// refuses ([`ErrorCode::Unavailable`]: it is not replicating).
    pub fn run(&self) -> Result<(), ServiceError> {
        self.core.run()
    }
}

impl FollowerCore {
    fn lock_status(&self) -> MutexGuard<'_, Status> {
        self.status.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn set_state(&self, state: FollowerState) {
        self.lock_status().state = state;
    }

    fn next_position(&self) -> Position {
        self.lock_status().next
    }

    fn replication_info(&self) -> ReplicationInfo {
        let status = self.lock_status();
        ReplicationInfo {
            role: "follower".into(),
            state: status.state.as_str().into(),
            position: status.next,
            lag: status.lag,
        }
    }

    fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        let link = self.link.lock().unwrap_or_else(PoisonError::into_inner).take();
        if let Some(stream) = link {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
    }

    fn stopped(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    fn run(&self) -> Result<(), ServiceError> {
        let mut backoff = Duration::from_millis(50);
        while !self.stopped() {
            match self.connect_and_stream() {
                // A completed subscription (stream ended in EOF or stop)
                // resets the backoff: the leader was just healthy.
                Ok(true) => backoff = Duration::from_millis(50),
                Ok(false) => {}
                Err(error) if error.code == ErrorCode::Unavailable => {
                    // The leader answered and refused: it is not
                    // replicating. Retrying cannot help; surface it.
                    self.set_state(FollowerState::Stopped);
                    return Err(error);
                }
                // Transport and protocol hiccups: back off and redial.
                Err(_) => {}
            }
            if self.stopped() {
                break;
            }
            self.set_state(FollowerState::Reconnecting);
            std::thread::sleep(backoff);
            backoff = (backoff * 2).min(Duration::from_secs(1));
        }
        self.set_state(FollowerState::Stopped);
        Ok(())
    }

    /// One connection's lifetime: dial, subscribe (bootstrapping from a
    /// snapshot if our position is stale), then apply the stream until it
    /// ends. `Ok(true)` means a subscription was established.
    fn connect_and_stream(&self) -> Result<bool, ServiceError> {
        self.set_state(FollowerState::Connecting);
        let mut link = Connection::connect(&self.leader_addr, self.auth_token.clone())?;
        {
            let mut slot = self.link.lock().unwrap_or_else(PoisonError::into_inner);
            *slot = link.try_clone_stream();
        }
        loop {
            let from = self.next_position();
            link.send(
                &Request::Subscribe { from_generation: from.generation, from_seq: from.seq },
                None,
            )?;
            match link.read()? {
                None => {
                    return Err(ServiceError::transport(
                        "leader closed the connection during subscribe",
                    ))
                }
                Some(Ok(Response::Subscribed { position })) => {
                    self.note_progress(None, position);
                    break;
                }
                Some(Ok(other)) => {
                    return Err(ServiceError::protocol(format!(
                        "unexpected `{}` reply to subscribe",
                        other.kind()
                    )))
                }
                Some(Err(error)) if error.code == ErrorCode::Stale => {
                    // Our position predates the leader's retained log:
                    // bootstrap from a snapshot on the same connection,
                    // then subscribe again from its exact position.
                    self.set_state(FollowerState::Bootstrapping);
                    link.send(&Request::Snapshot, None)?;
                    match link.read()? {
                        Some(Ok(Response::Snapshot(payload))) => self.install_snapshot(payload)?,
                        Some(Ok(other)) => {
                            return Err(ServiceError::protocol(format!(
                                "unexpected `{}` reply to snapshot",
                                other.kind()
                            )))
                        }
                        Some(Err(error)) => return Err(error),
                        None => {
                            return Err(ServiceError::transport(
                                "leader closed the connection during snapshot bootstrap",
                            ))
                        }
                    }
                }
                Some(Err(error)) => return Err(error),
            }
        }
        self.set_state(FollowerState::Streaming);
        while !self.stopped() {
            match link.read() {
                Ok(Some(Ok(Response::Delta(chunk)))) => self.apply_chunk(&chunk)?,
                Ok(Some(Ok(Response::Generation { generation }))) => {
                    self.apply_generation(generation)?;
                }
                Ok(Some(Ok(other))) => {
                    return Err(ServiceError::protocol(format!(
                        "unexpected `{}` frame in the subscription stream",
                        other.kind()
                    )))
                }
                Ok(Some(Err(error))) => return Err(error),
                // EOF or a broken socket: reconnect from the recorded
                // position.
                Ok(None) | Err(_) => break,
            }
        }
        Ok(true)
    }

    /// The one position and lag update: move the resume position to
    /// `applied` (when something was applied), raise the observed leader
    /// end to `leader_end`, and publish the recomputed lag.
    fn note_progress(&self, applied: Option<Position>, leader_end: Position) {
        let mut status = self.lock_status();
        if let Some(applied) = applied {
            status.next = applied;
        }
        status.leader_end = status.leader_end.max(leader_end);
        status.lag = lag_between(status.next, status.leader_end);
        let lag = status.lag;
        drop(status);
        self.lag_gauge.set(i64::try_from(lag).unwrap_or(i64::MAX));
    }

    /// Apply one streamed chunk: append it to our sidecar verbatim, ingest
    /// its schema/mapping/invalidate records, and advance the resume
    /// position past its tail. A chunk entirely below our position (a
    /// snapshot-overlap re-delivery) is skipped whole.
    fn apply_chunk(&self, chunk: &DeltaChunkPayload) -> Result<(), ServiceError> {
        let next = self.next_position();
        if chunk.last < next {
            return Ok(());
        }
        self.sidecar.append(&chunk.chunk).map_err(|error| {
            ServiceError::transport(format!(
                "cannot append to {}: {error}",
                self.sidecar.path().display()
            ))
        })?;
        for line in chunk.chunk.lines() {
            let Some((position, record)) = parse_positioned_delta(line) else { continue };
            if position.is_some_and(|position| position < next) {
                continue;
            }
            self.apply_record(&record)?;
        }
        self.note_progress(Some(chunk.last.next()), chunk.last.next());
        Ok(())
    }

    /// Apply a generation boundary: the leader compacted, records restart
    /// at `(generation, 0)`. The fold added no content, so the replica only
    /// records the marker and moves its position.
    fn apply_generation(&self, generation: u64) -> Result<(), ServiceError> {
        let boundary = Position::new(generation, 0);
        if boundary <= self.next_position() {
            return Ok(());
        }
        self.sidecar.append(&render_generation_marker(boundary)).map_err(|error| {
            ServiceError::transport(format!(
                "cannot append to {}: {error}",
                self.sidecar.path().display()
            ))
        })?;
        self.note_progress(Some(boundary), boundary);
        Ok(())
    }

    fn apply_record(&self, record: &DeltaRecord) -> Result<(), ServiceError> {
        match record {
            DeltaRecord::Schema { decl } | DeltaRecord::Mapping { decl } => {
                let document = parse_document(decl).map_err(|error| {
                    ServiceError::protocol(format!("malformed delta payload: {error}"))
                })?;
                self.service.session().ingest_document(&document)?;
            }
            DeltaRecord::Invalidate { mapping } => {
                let _ = self.service.session().invalidate(mapping);
            }
            // Migration batches fold into the replica's net sources, so its
            // shutdown snapshot carries them and a replica restarted into
            // leader duty rebuilds the engine over them — `migrate-delta`
            // itself is refused while following.
            DeltaRecord::Migrate { from, to, updates } => {
                self.service.extend_migration(from, to, updates);
            }
            // The leader's cache movements describe *its* memo cache; the
            // replica's cache warms from its own read traffic (and from
            // sidecar replay at restart, where the verbatim log carries
            // these records to the loader).
            DeltaRecord::Evict { .. } | DeltaRecord::Stats(_) => {}
        }
        Ok(())
    }

    /// Install a snapshot bootstrap: persist the document + sidecar pair
    /// atomically first (a crash between the two steps re-bootstraps), then
    /// swap the in-memory replica to the snapshot's catalog and migration
    /// sources. The memo cache is cleared rather than imported — entries
    /// referencing dropped content would be unreachable anyway, and the
    /// verbatim sidecar warms the cache on the next restart.
    fn install_snapshot(&self, payload: SnapshotPayload) -> Result<(), ServiceError> {
        let SnapshotPayload { position, document: document_text, sidecar } = payload;
        let document = parse_document(&document_text)
            .map_err(|error| ServiceError::protocol(format!("malformed snapshot: {error}")))?;
        let mut state = load_sidecar(&sidecar);
        let catalog = restore_catalog(&document, &state)?;
        // The loader's line index is the sidecar's: it is a function of
        // the file's bytes.
        let lines = std::mem::take(&mut state.lines);
        self.sidecar
            .rewrite_with_document(&self.catalog_file, || (document_text, sidecar, lines))
            .map_err(|error| {
                ServiceError::transport(format!(
                    "cannot install snapshot at {}: {error}",
                    self.catalog_file.display()
                ))
            })?;
        self.service.session().restore_catalog(catalog);
        self.service.replace_migrations(state.migrations);
        self.note_progress(Some(position), position);
        Ok(())
    }

    /// Shutdown through the service surface: stop the apply loop, then
    /// fold the replica into snapshot form through the leader's renderer —
    /// document + compacted sidecar (migration sources included)
    /// rewritten atomically at the current resume position, so a restart
    /// resumes from exactly here and operators can byte-compare the
    /// document against the leader's.
    fn shutdown(&self) -> Result<Response, ServiceError> {
        self.stop();
        let position = self.next_position();
        self.sidecar
            .rewrite_with_document(&self.catalog_file, || {
                let (document, sidecar, lines, _) = self.service.render_snapshot(position);
                (document, sidecar, lines)
            })
            .map_err(|error| {
                ServiceError::transport(format!(
                    "cannot persist {}: {error}",
                    self.catalog_file.display()
                ))
            })?;
        Ok(Response::ShuttingDown)
    }

    fn readonly_error(&self) -> ServiceError {
        ServiceError::new(
            ErrorCode::Readonly,
            format!(
                "this catalog is a read-only follower; send writes to the leader at {}",
                self.leader_addr
            ),
        )
    }

    fn not_a_leader_error(&self) -> ServiceError {
        ServiceError::new(
            ErrorCode::Unavailable,
            format!(
                "this catalog is a follower; replicate from the leader at {}",
                self.leader_addr
            ),
        )
    }
}

/// The follower's service surface: reads are served by the local replica
/// (warm memo cache included), state-changing requests fail with
/// [`ErrorCode::Readonly`] naming the leader, and `stats` reports the
/// follower's role, lifecycle state, position and lag.
#[derive(Clone)]
pub struct ReadOnlyService {
    core: Arc<FollowerCore>,
}

impl MapcompService for ReadOnlyService {
    fn call(&self, request: Request) -> Result<Response, ServiceError> {
        match request {
            Request::AddDocument { .. }
            | Request::Invalidate { .. }
            | Request::MigrateDelta { .. }
            | Request::Compact => Err(self.core.readonly_error()),
            Request::Subscribe { .. } | Request::Snapshot => Err(self.core.not_a_leader_error()),
            Request::Stats => {
                let mut payload = self.core.service.stats_payload();
                payload.replication = Some(self.core.replication_info());
                Ok(Response::Stats(payload))
            }
            Request::Shutdown => self.core.shutdown(),
            other => self.core.service.call(other),
        }
    }

    fn subscribe(
        &self,
        _from: Position,
        _wake: Arc<dyn Fn() + Send + Sync>,
    ) -> Result<mapcomp_replication::Subscription, ServiceError> {
        Err(self.core.not_a_leader_error())
    }
}
