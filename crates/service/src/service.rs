//! The service trait and its in-process backend.
//!
//! [`MapcompService`] is the one seam every front end programs against: the
//! CLI's catalog mode calls a [`LocalService`] directly, `mapcomp client`
//! calls a [`crate::Client`] over TCP, and both go through the same
//! `fn call(&self, Request) -> Result<Response, ServiceError>` — which is
//! what makes the transports interchangeable and testable against each
//! other.
//!
//! [`LocalService`] wraps a [`SharedSession`] (so one instance serves
//! concurrent callers — the TCP server hands it to every CPU worker) and
//! optionally binds to an on-disk catalog document + `.memo` sidecar.
//! A state-changing request is made durable incrementally: it appends delta
//! records — changed catalog declarations, new memo entries, evictions,
//! statistics increments — through the sidecar's single-writer append
//! protocol, so the I/O cost is proportional to the change, not to the
//! catalog. The log is folded back into snapshot form by *compaction*: at
//! shutdown, when a configurable append-count or byte threshold is crossed
//! ([`PersistPolicy`]), or on an explicit [`Request::Compact`]. Recovery
//! replays the delta tail over the last snapshot and tolerates a torn final
//! line from a crash mid-append.
//!
//! A read never writes. A request served from the memo cache alone changes
//! no durable state, so it appends nothing, publishes nothing to
//! replication followers and never triggers compaction. Its hit counters
//! and LRU recency are soft state. Counters reach disk at compaction (a
//! clean shutdown compacts), in the `delta stats` increment of the next
//! real write, or through [`LocalService::flush_counters`]; recency only at
//! compaction (across the delta tail, restored recency is insertion order).
//! A crash may lose exactly that soft state, never catalog entries,
//! versions, memo entries or migration sources.
//!
//! Writes go through [`SidecarWriter`], which holds a kernel advisory lock
//! on the sidecar's `.lock` file, so a server and stray CLI invocations on
//! the same catalog cannot tear each other's state. The on-disk grammar is
//! specified in `docs/PERSISTENCE.md`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use mapcomp_algebra::{parse_document, Document, Instance};
use mapcomp_catalog::{
    render_generation_marker, render_mapping_decl, render_migration_snapshot,
    render_positioned_delta, render_schema_decl, render_version_extension, restore_catalog,
    write_cache, AnalysisReport, CacheEvent, CacheStats, Catalog, ComposedChain, DeltaRecord,
    LineIndex, MemoKey, Position, SessionConfig, SharedSession, SidecarState, SidecarWriter,
    VersionManifest,
};
use mapcomp_compose::{fold_updates, parse_updates, DifferentialChase, Registry, Update};
use mapcomp_replication::{LogChunk, ReplicationHub, SubscribeError, Subscription};
use mapcomp_telemetry::metrics::{Counter, Histogram, MetricsRegistry, LATENCY_BOUNDS_US};

use crate::api::{
    AnalysisPayload, CacheInfoPayload, ChainPayload, ErrorCode, MappingInfo, MigratePayload,
    ReplicationInfo, Request, Response, SegmentCacheInfo, ServiceError, SnapshotPayload,
    StatsPayload,
};
use crate::wire::{encode_migrated, encode_reply};

/// The most worker threads a single `ComposeBatch` request may fan across,
/// regardless of what the peer asked for (a backend configured with more at
/// construction time keeps its own, higher bound).
pub const MAX_REQUEST_WORKERS: usize = 64;

/// The transport-agnostic service interface: one call, one typed reply.
///
/// Implementations must be callable through a shared reference — the TCP
/// server shares one backend across its CPU workers, and clients are
/// shared across threads in the equivalence tests.
pub trait MapcompService {
    /// Execute one request.
    fn call(&self, request: Request) -> Result<Response, ServiceError>;

    /// Execute one request under a trace context. `trace` is a trace ID the
    /// caller wants propagated (over the wire for remote transports, into
    /// the span ring for local ones); `None` means "no explicit trace".
    ///
    /// The default implementation ignores the trace and delegates to
    /// [`MapcompService::call`], so third-party backends stay source
    /// compatible; [`LocalService`] roots a span per request and
    /// [`crate::Client`] forwards the ID as the optional `trace` frame
    /// field.
    fn call_traced(&self, request: Request, trace: Option<u64>) -> Result<Response, ServiceError> {
        let _ = trace;
        self.call(request)
    }

    /// Execute one request under a trace context and encode its reply as a
    /// complete frame: what a TCP front end writes back to its peer.
    ///
    /// The default implementation encodes [`MapcompService::call_traced`]'s
    /// reply with [`encode_reply`]. A backend may override it to write the
    /// frame without building the typed reply first, but the bytes must be
    /// the same; [`LocalService`] does so for `migrate-delta`, whose reply
    /// target it copies already escaped.
    fn call_encoded(&self, request: Request, trace: Option<u64>) -> String {
        encode_reply(&self.call_traced(request, trace))
    }

    /// Open a replication subscription resuming at `from`; `wake` is called
    /// after events are enqueued so a parked event loop re-polls. Unlike
    /// [`MapcompService::call`], this is a long-lived stream, so it gets its
    /// own seam — the event-loop front end handles `Request::Subscribe`
    /// through it instead of the one-shot dispatch.
    ///
    /// The default implementation refuses: only backends that own a
    /// [`ReplicationHub`] (a [`LocalService`] with replication enabled) can
    /// serve streams, and remote clients follow with their own connection
    /// rather than proxying one through [`crate::Client`].
    fn subscribe(
        &self,
        from: Position,
        wake: Arc<dyn Fn() + Send + Sync>,
    ) -> Result<Subscription, ServiceError> {
        let _ = (from, wake);
        Err(ServiceError::new(
            ErrorCode::Unavailable,
            "this backend does not serve replication subscriptions",
        ))
    }
}

/// Compaction policy of a persistent [`LocalService`]: when the delta log
/// is folded back into snapshot form (besides shutdown and an explicit
/// [`Request::Compact`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PersistPolicy {
    /// Compact once this many delta appends have accumulated since the last
    /// compaction (`None` = no append-count trigger).
    pub compact_appends: Option<usize>,
    /// Compact once the sidecar file exceeds this many bytes (`None` = no
    /// byte trigger).
    pub compact_bytes: Option<u64>,
}

impl Default for PersistPolicy {
    fn default() -> Self {
        PersistPolicy { compact_appends: Some(4096), compact_bytes: Some(16 * 1024 * 1024) }
    }
}

/// Mutable persistence bookkeeping, under one mutex so concurrent
/// state-changing requests serialise their append/compact decisions.
struct PersistState {
    /// Cache statistics as of the last persisted record, the baseline the
    /// next `delta stats` increment is computed against.
    last_stats: CacheStats,
    /// Delta appends since the last compaction.
    appends: usize,
    /// The log position the next appended delta record will carry
    /// (`generation` advances at every compaction, `seq` with every
    /// positioned `delta` line — see `docs/PERSISTENCE.md`).
    next: Position,
}

/// On-disk binding of a [`LocalService`]: the catalog document plus its
/// version/cache sidecar, and the compaction policy.
struct Persistence {
    catalog_file: PathBuf,
    sidecar: SidecarWriter,
    policy: PersistPolicy,
    state: Mutex<PersistState>,
}

impl Persistence {
    fn state(&self) -> MutexGuard<'_, PersistState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// One live migration session. Its only copy of the data is its net source
/// (the durable truth: `delta migrate` records fold batches into it,
/// compaction renders it as one absolute `migrate` snapshot line), held by
/// its engine while it has one. Recovery rebuilds the engine over the net
/// source rather than persisting derived state, so the oblivious chase's
/// confluence makes it byte-identical to the one lost.
enum MigrationSession {
    /// The net source with no engine over it: before the first request
    /// after a restart, on a follower, and after a refused batch.
    Source(Instance),
    /// The engine maintaining the target over the net source.
    Engine {
        engine: Box<DifferentialChase>,
        /// Content hash of the composed chain the engine was compiled
        /// against; a recomposition with a different hash (mapping edited
        /// upstream) forces a rebuild over the engine's source.
        chain_hash: u64,
        /// The termination analysis of that chain, taken when the engine
        /// was built: it picks the chase configuration and names the
        /// witness when a batch is refused for not converging.
        analysis: AnalysisReport,
    },
}

impl Default for MigrationSession {
    fn default() -> Self {
        MigrationSession::Source(Instance::new())
    }
}

impl MigrationSession {
    /// The session's net source, wherever it is held.
    fn source(&self) -> &Instance {
        match self {
            MigrationSession::Source(source) => source,
            MigrationSession::Engine { engine, .. } => engine.source(),
        }
    }

    /// Move the net source out, dropping any engine over it.
    fn take_source(&mut self) -> Instance {
        match std::mem::take(self) {
            MigrationSession::Source(source) => source,
            MigrationSession::Engine { engine, .. } => engine.into_source(),
        }
    }
}

/// Migration sessions restored from their persisted net sources. Each
/// carries only its source; the engine (and the chain hash it was compiled
/// for) is rebuilt lazily by the first `MigrateDelta` request.
fn migration_sessions(
    sources: BTreeMap<(String, String), Instance>,
) -> BTreeMap<(String, String), MigrationSession> {
    sources.into_iter().map(|(key, source)| (key, MigrationSession::Source(source))).collect()
}

/// Pre-registered metric handles for one request kind, so the per-request
/// hot path is three atomic bumps — no registry lock, no label rendering.
struct KindTelemetry {
    kind: &'static str,
    requests: &'static Counter,
    errors: &'static Counter,
    duration_us: &'static Histogram,
}

/// Per-kind service metrics over one registry, registered eagerly at
/// construction for every keyword in [`Request::KINDS`].
struct ServiceTelemetry {
    registry: &'static MetricsRegistry,
    kinds: Vec<KindTelemetry>,
}

impl ServiceTelemetry {
    fn new(registry: &'static MetricsRegistry) -> Self {
        let kinds = Request::KINDS
            .iter()
            .map(|&kind| {
                let labels = [("kind", kind)];
                KindTelemetry {
                    kind,
                    requests: registry.counter(
                        "service_requests_total",
                        "Requests handled, per request kind.",
                        &labels,
                    ),
                    errors: registry.counter(
                        "service_errors_total",
                        "Requests that returned a service error, per request kind.",
                        &labels,
                    ),
                    duration_us: registry.histogram(
                        "service_request_duration_us",
                        "Request handling latency in microseconds, per request kind.",
                        &labels,
                        LATENCY_BOUNDS_US,
                    ),
                }
            })
            .collect();
        ServiceTelemetry { registry, kinds }
    }

    fn for_kind(&self, kind: &str) -> &KindTelemetry {
        // `Request::kind` and `Request::KINDS` are the same keyword list by
        // construction; a miss here is a bug in that pairing.
        self.kinds.iter().find(|entry| entry.kind == kind).expect("unregistered request kind")
    }
}

/// The in-process backend: a [`SharedSession`] behind the service API,
/// optionally persisted to a catalog file + sidecar.
pub struct LocalService {
    session: SharedSession,
    batch_workers: usize,
    persistence: Option<Persistence>,
    telemetry: ServiceTelemetry,
    /// The replication hub, once [`LocalService::enable_replication`] has
    /// been called. Publishes happen under the persistence state mutex, so
    /// subscribers observe appends and compaction boundaries in exactly the
    /// on-disk order.
    hub: OnceLock<Arc<ReplicationHub>>,
    /// Serialises `AddDocument` handling: the dry-run validation against the
    /// live catalog ([`mapcomp_catalog::SharedCatalog::validate_document`])
    /// and the subsequent ingest must be one atomic step, or a concurrent
    /// ingest could invalidate the validation (e.g. redefine a schema arity
    /// between the check and the apply) and leave the shared catalog
    /// half-applied after an error. Compose and invalidate traffic is
    /// unaffected — it never takes this lock.
    ingest: std::sync::Mutex<()>,
    /// Live migration sessions keyed `(from, to)`. This mutex is a *leaf*
    /// lock: compaction and snapshot serving take it briefly (to render the
    /// `migrate` snapshot lines) while holding the persistence state mutex,
    /// so no path may wait on the persistence mutex while holding this one.
    migrations: Mutex<BTreeMap<(String, String), MigrationSession>>,
    /// Serialises the apply *and* append of `MigrateDelta` requests (taken
    /// after path resolution and update parsing), so the per-session
    /// delta-log order always equals the application order — replaying the
    /// log then reproduces the exact accumulated source.
    migrate_order: std::sync::Mutex<()>,
}

impl LocalService {
    /// An in-memory service over `catalog` with the standard registry and
    /// default configuration; `workers` bounds parallel batch fan-out.
    pub fn new(catalog: Catalog, workers: usize) -> Self {
        LocalService::with_config(catalog, Registry::standard(), SessionConfig::default(), workers)
    }

    /// An in-memory service with an explicit registry and configuration.
    pub fn with_config(
        catalog: Catalog,
        registry: Registry,
        config: SessionConfig,
        workers: usize,
    ) -> Self {
        LocalService::restored(catalog, SidecarState::new(workers), registry, config, workers)
    }

    /// The one constructor: an in-memory service over `catalog` that serves
    /// from the memo cache the sidecar `state` was replayed into (striped
    /// for `workers`) and whose migration sessions hold its net sources. A
    /// follower serves its replica through this directly (the replication
    /// stream owns its on-disk artifacts);
    /// [`LocalService::open_with_policy`] binds the result to disk.
    pub(crate) fn restored(
        catalog: Catalog,
        state: SidecarState,
        registry: Registry,
        config: SessionConfig,
        workers: usize,
    ) -> Self {
        let workers = workers.max(1);
        let session = SharedSession::with_cache(catalog, registry, config, workers, state.cache);
        LocalService {
            session,
            batch_workers: workers,
            persistence: None,
            telemetry: ServiceTelemetry::new(mapcomp_telemetry::metrics::global()),
            hub: OnceLock::new(),
            ingest: std::sync::Mutex::new(()),
            migrations: Mutex::new(migration_sessions(state.migrations)),
            migrate_order: std::sync::Mutex::new(()),
        }
    }

    /// Rebind this service's metrics — its request counters and its
    /// sidecar's `persist_*` counters — to `registry` instead of the process
    /// global: the seam the tests use to give each backend its own isolated
    /// counter space within one test process. A [`Request::Metrics`] call
    /// renders whichever registry the service is bound to.
    pub fn with_metrics_registry(mut self, registry: &'static MetricsRegistry) -> Self {
        self.telemetry = ServiceTelemetry::new(registry);
        self.persistence = self.persistence.map(|mut persistence| {
            persistence.sidecar = persistence.sidecar.with_metrics_registry(registry);
            persistence
        });
        self
    }

    /// Open a service bound to an on-disk catalog: restore it from the
    /// document snapshot and the sidecar's delta tail (`read_catalog`) —
    /// a torn final sidecar line from a crash mid-append is dropped, and a
    /// leftover `.tmp` from a crash mid-compaction is simply never read (the
    /// rename that would have installed it never happened). A missing
    /// document file is an empty catalog when `allow_missing` *or* when a
    /// sidecar exists (an incremental session may not have compacted its
    /// first snapshot yet). Every state-changing request then appends its
    /// deltas, compacting according to `policy`.
    pub fn open_with_policy(
        catalog_file: impl Into<PathBuf>,
        registry: Registry,
        config: SessionConfig,
        workers: usize,
        allow_missing: bool,
        policy: PersistPolicy,
    ) -> Result<Self, ServiceError> {
        let catalog_file: PathBuf = catalog_file.into();
        let sidecar = SidecarWriter::new(sidecar_path(&catalog_file));
        let (catalog, state) = read_catalog(&catalog_file, &sidecar, allow_missing, workers)?;
        let next = state.next_position();
        let mut service = LocalService::restored(catalog, state, registry, config, workers);
        // The journal feeds the append path.
        service.session.cache().enable_journal();
        let last_stats = service.session.cache().stats();
        service.persistence = Some(Persistence {
            catalog_file,
            sidecar,
            policy,
            state: Mutex::new(PersistState { last_stats, appends: 0, next }),
        });
        Ok(service)
    }

    /// The underlying shared session.
    pub fn session(&self) -> &SharedSession {
        &self.session
    }

    /// Render the service's durable state as a snapshot opening log
    /// position `position`: the catalog document and the sidecar — the
    /// `generation` header, the [`mapcomp_catalog::save_state`] versions,
    /// statistics and memo entries, then one absolute `migrate` line per
    /// migration session with a non-empty net source — plus the sidecar's
    /// [`LineIndex`] and the cache statistics it records. Every snapshot
    /// goes through here: compaction, snapshot bootstrap and a follower's
    /// shutdown. Sources are updated before their delta records are
    /// appended, so the rendering covers every `delta migrate` line a
    /// rewrite is about to discard.
    pub fn render_snapshot(&self, position: Position) -> (String, String, LineIndex, CacheStats) {
        // Rendered under the catalog's read guard, which is released before
        // `write_cache` takes the memo locks (the guard is a leaf lock).
        let (document, versions) = self
            .session
            .catalog()
            .read(|catalog| (catalog.to_document_string(), VersionManifest::of(catalog).render()));
        let mut sidecar = render_generation_marker(position);
        sidecar.push_str(&versions);
        let (lines, stats) = write_cache(&mut sidecar, self.session.cache());
        // The migrations mutex is a leaf lock, held only for this loop.
        for ((from, to), session) in
            self.migrations.lock().unwrap_or_else(PoisonError::into_inner).iter()
        {
            let source = session.source();
            if source.total_tuples() > 0 {
                sidecar.push_str(&render_migration_snapshot(from, to, source));
                sidecar.push('\n');
            }
        }
        (document, sidecar, lines, stats)
    }

    /// Fold one replicated migration batch into its session's net source (a
    /// follower applying a streamed `delta migrate` record; a follower
    /// refuses `MigrateDelta`, so it holds no engine to keep current).
    pub(crate) fn extend_migration(&self, from: &str, to: &str, updates: &[Update]) {
        let mut sessions = self.migrations.lock().unwrap_or_else(PoisonError::into_inner);
        let session = sessions.entry((from.to_string(), to.to_string())).or_default();
        let mut source = session.take_source();
        fold_updates(&mut source, updates);
        *session = MigrationSession::Source(source);
    }

    /// Replace every migration session with the net `sources` a snapshot
    /// bootstrap's `migrate` lines fold to (a follower adopting it).
    pub(crate) fn replace_migrations(&self, sources: BTreeMap<(String, String), Instance>) {
        *self.migrations.lock().unwrap_or_else(PoisonError::into_inner) =
            migration_sessions(sources);
    }

    /// Fold the sidecar log back into snapshot form: rewrite the catalog
    /// document and the sidecar (versions, statistics, memo cache) from a
    /// fresh snapshot. Returns the sidecar's size before and after; a no-op
    /// `(0, 0)` for in-memory services. Both files are replaced by atomic
    /// renames inside one critical section of the sidecar's cross-process
    /// lock, so a concurrent reader never sees a truncated file or one
    /// writer's document paired with another's sidecar — and a crash
    /// mid-compaction leaves at worst a stray `.tmp` sibling, never a
    /// damaged snapshot.
    pub fn compact(&self) -> Result<(u64, u64), ServiceError> {
        let Some(persistence) = &self.persistence else { return Ok((0, 0)) };
        let _span = mapcomp_telemetry::trace::start_span("persist/compact");
        let mut state = persistence.state();
        let bytes_before = persistence.sidecar.file_len();
        // Every compaction opens a fresh generation: records appended after
        // this snapshot are positioned `(generation+1, 0…)`, and a
        // `generation` header line in the rewritten sidecar says so. This is
        // what lets a replication subscriber know, from positions alone,
        // whether its resume point survived the rewrite.
        let boundary = Position::new(state.next.generation + 1, 0);
        // The snapshot is taken by the closure *inside* the sidecar's write
        // critical section, so concurrent persists write in snapshot order
        // — a request holding an older snapshot can never clobber a newer,
        // already-acknowledged state on disk.
        let mut drained = Vec::new();
        let mut snapshot_stats = None;
        let outcome = persistence.sidecar.rewrite_with_document(&persistence.catalog_file, || {
            // Journal events observed so far describe mutations the
            // snapshot below already contains; drain them *before* taking
            // the snapshot, so anything arriving in between is re-appended
            // later (a harmless duplicate) rather than lost.
            drained = self.session.cache().take_events();
            let (document, sidecar, lines, stats) = self.render_snapshot(boundary);
            snapshot_stats = Some(stats);
            (document, sidecar, lines)
        });
        if let Err(error) = outcome {
            // Nothing was committed (or at worst only the document rename
            // landed; the delta log still supersedes it on replay): hand
            // the drained events back and keep the old stats baseline, so
            // the acknowledged-but-unwritten state is retried by the next
            // persist instead of silently dropped.
            self.session.cache().requeue_events(drained);
            return Err(ServiceError::transport(format!(
                "cannot write {} / {}: {error}",
                persistence.catalog_file.display(),
                persistence.sidecar.path().display()
            )));
        }
        if let Some(stats) = snapshot_stats {
            state.last_stats = stats;
        }
        state.appends = 0;
        state.next = boundary;
        // The boundary is handed to subscribers while the state mutex is
        // still held, so no publish can interleave between the rewrite and
        // this broadcast: a mid-stream subscriber receives every
        // pre-compaction chunk, then the generation marker — nothing
        // dropped, nothing duplicated.
        if let Some(hub) = self.hub.get() {
            hub.compacted(boundary);
        }
        Ok((bytes_before, persistence.sidecar.file_len()))
    }

    /// Flush the soft cache counters — hits and the other cumulative
    /// statistics a read moves without changing durable state — as one
    /// `delta stats` record, if they moved since the last persisted
    /// record. A no-op for in-memory services. One-shot front ends call
    /// this once before exiting so warm runs keep accumulating their hits
    /// across processes; a server needs no call, because its shutdown
    /// compacts.
    pub fn flush_counters(&self) -> Result<(), ServiceError> {
        let Some(persistence) = &self.persistence else { return Ok(()) };
        if self.session.cache().stats() == persistence.state().last_stats {
            return Ok(());
        }
        self.persist_change(Vec::new(), "")
    }

    /// Make one state-changing request durable: append the request's catalog
    /// `deltas` and `versions` lines plus everything the cache journal
    /// accumulated — new memo entries, evictions — and, riding along, the
    /// statistics increment, as one contiguous chunk. Callers that changed
    /// no durable state (a memo hit) do not call this, so a statistics
    /// increment goes out alone only from [`LocalService::flush_counters`]
    /// or a rare no-op write. Memo entries back-reference the document
    /// lines the sidecar already holds; the chunk is rendered inside the
    /// sidecar's write critical section, against its current line index.
    /// Every `delta` line is stamped with the next `(generation, seq)`
    /// position, and when replication is enabled the byte-exact chunk is
    /// published to the hub inside the same critical section, so the
    /// stream order is the file order. An append that pushes the log over a
    /// [`PersistPolicy`] threshold triggers compaction; a missing document
    /// file makes the first persist a compaction too, so the snapshot the
    /// deltas replay over always exists.
    fn persist_change(&self, deltas: Vec<DeltaRecord>, versions: &str) -> Result<(), ServiceError> {
        let Some(persistence) = &self.persistence else { return Ok(()) };
        if !persistence.catalog_file.exists() {
            return self.compact().map(|_| ());
        }
        let _span = mapcomp_telemetry::trace::start_span("persist/append");
        {
            let mut state = persistence.state();
            let mut position = state.next;
            let mut range: Option<(Position, Position)> = None;
            let mut drained = Vec::new();
            let mut now = state.last_stats;
            let appended = persistence.sidecar.append_with(|entries| {
                let mut chunk = String::new();
                let mut push_delta = |chunk: &mut String, record: &DeltaRecord| {
                    let first = range.map_or(position, |(first, _)| first);
                    range = Some((first, position));
                    chunk.push_str(&render_positioned_delta(position, record));
                    chunk.push('\n');
                    position = position.next();
                };
                for record in &deltas {
                    push_delta(&mut chunk, record);
                }
                chunk.push_str(versions);
                // Only the last event per key matters: the key is either
                // live (persist its current entry) or gone (persist the
                // eviction). Per-key order is preserved across the drain
                // because a key always lands in the same cache segment.
                // Removals come from LRU evictions and explicit removals
                // only — an invalidation is its own `delta invalidate`
                // record — and are always rendered: the drain is
                // destructive, and a concurrent request's eviction drained
                // here would otherwise be lost for good, resurrecting the
                // entry on replay.
                drained = self.session.cache().take_events();
                let mut last: std::collections::BTreeMap<MemoKey, bool> = Default::default();
                for event in &drained {
                    match *event {
                        CacheEvent::Inserted(key) => last.insert(key, true),
                        CacheEvent::Removed(key) => last.insert(key, false),
                    };
                }
                // Live entries first, each after the inputs it was composed
                // from (an input's path is shorter), so a `path` line can
                // back-reference its left input's block; then the
                // evictions, so replay keeps an evicted input's derivation
                // edges for the entries composed from it. A concurrently
                // removed entry simply isn't rendered; its removal event is
                // drained by a later persist.
                let mut live: Vec<(MemoKey, ComposedChain)> = last
                    .iter()
                    .filter(|(_, live)| **live)
                    .filter_map(|(key, _)| Some((*key, self.session.cache().peek(key)?)))
                    .collect();
                live.sort_by_key(|(key, chain)| (chain.path.len(), *key));
                for (key, chain) in &live {
                    entries.render(&mut chunk, key, chain);
                }
                for (key, _) in last.iter().filter(|(_, live)| !**live) {
                    push_delta(&mut chunk, &DeltaRecord::Evict { key: *key });
                }
                now = self.session.cache().stats();
                let delta = now.delta_since(state.last_stats);
                if !delta.is_zero() {
                    push_delta(&mut chunk, &DeltaRecord::Stats(delta));
                }
                chunk
            });
            let chunk = match appended {
                Ok(chunk) => chunk,
                Err(error) => {
                    // The chunk never reached disk: hand the drained events
                    // back and keep the old stats baseline, so the next
                    // persist retries this state instead of silently
                    // dropping durability that the requests were already
                    // acknowledged for. (No other drain can interleave —
                    // the state mutex is held.)
                    self.session.cache().requeue_events(drained);
                    return Err(ServiceError::transport(format!(
                        "cannot append to {}: {error}",
                        persistence.sidecar.path().display()
                    )));
                }
            };
            if chunk.is_empty() {
                return Ok(());
            }
            state.last_stats = now;
            state.appends += 1;
            state.next = position;
            // Publish the byte-exact chunk while the state mutex is still
            // held: the hub's stream order is the append order, the
            // invariant that lets followers apply blindly in arrival order.
            if let Some(hub) = self.hub.get() {
                if let Some((first, last)) = range {
                    hub.publish(LogChunk { first, last, text: Arc::from(chunk.as_str()) });
                }
            }
            let over_appends =
                persistence.policy.compact_appends.is_some_and(|limit| state.appends >= limit);
            let over_bytes = persistence
                .policy
                .compact_bytes
                .is_some_and(|limit| persistence.sidecar.file_len() >= limit);
            if !(over_appends || over_bytes) {
                return Ok(());
            }
        }
        // Threshold crossed: fold the log (compact re-takes the state lock).
        self.compact().map(|_| ())
    }

    /// Persist after a compose request that composed: its new memo entries
    /// (and any evictions they forced) are in the cache journal. A request
    /// served from the memo alone changed no durable state, so it appends
    /// nothing — its hit counters ride along with the next real write, a
    /// compaction or [`LocalService::flush_counters`].
    fn persist_if_composed(&self, compose_calls: usize) -> Result<(), ServiceError> {
        if compose_calls > 0 {
            self.persist_change(Vec::new(), "")?;
        }
        Ok(())
    }

    /// Turn this service into a replication leader: fold the delta log into
    /// a fresh snapshot (opening a new generation, so the hub's retained log
    /// starts empty at an exact on-disk boundary) and return the hub that
    /// [`Request::Subscribe`] streams and the persistence path publishes
    /// into. Idempotent — a second call returns the same hub without
    /// recompacting. Requires a persistent catalog: in-memory services have
    /// no log to stream.
    pub fn enable_replication(&self) -> Result<Arc<ReplicationHub>, ServiceError> {
        if self.persistence.is_none() {
            return Err(ServiceError::new(
                ErrorCode::Unavailable,
                "replication requires a persistent catalog (serve with a catalog file)",
            ));
        }
        if let Some(existing) = self.hub.get() {
            return Ok(Arc::clone(existing));
        }
        let hub = Arc::new(ReplicationHub::new());
        if self.hub.set(Arc::clone(&hub)).is_err() {
            // A concurrent enable won the race; use its hub (already seeded
            // by its compaction).
            let existing = self.hub.get().expect("hub was just set");
            return Ok(Arc::clone(existing));
        }
        // compact() sees the hub and seeds its position with the fresh
        // generation boundary.
        self.compact()?;
        Ok(hub)
    }

    /// The replication hub, when [`LocalService::enable_replication`] has
    /// been called.
    pub fn replication_hub(&self) -> Option<&Arc<ReplicationHub>> {
        self.hub.get()
    }

    /// Serve a snapshot bootstrap: the catalog document, a sidecar snapshot
    /// (prefixed with the generation header), and the exact log position the
    /// pair represents — the position a follower resumes subscribing from.
    /// The position is read under the persistence state mutex, so it can
    /// only *trail* the live catalog snapshot, never run ahead of it: any
    /// mutation between the two is re-delivered as a chunk the follower
    /// replays idempotently.
    fn serve_snapshot(&self) -> Result<Response, ServiceError> {
        let Some(persistence) = &self.persistence else {
            return Err(ServiceError::new(
                ErrorCode::Unavailable,
                "snapshot bootstrap requires a persistent catalog",
            ));
        };
        let state = persistence.state();
        let position = state.next;
        let (document, sidecar, _, _) = self.render_snapshot(position);
        drop(state);
        if let Some(hub) = self.hub.get() {
            hub.note_snapshot_served();
        }
        Ok(Response::Snapshot(SnapshotPayload { position, document, sidecar }))
    }

    /// Capture the stats payload: catalog counts, per-mapping registration
    /// info, cumulative session statistics.
    pub fn stats_payload(&self) -> StatsPayload {
        let (schemas, mappings, entries) = self.session.catalog().read(|catalog| {
            let entries = catalog
                .mappings()
                .map(|entry| MappingInfo {
                    name: entry.name.to_string(),
                    source: entry.source.to_string(),
                    target: entry.target.to_string(),
                    version: entry.version,
                    hash: entry.hash.0,
                    constraints: entry.constraints.len(),
                    history: entry.history.iter().map(|&(v, h)| (v, h.0)).collect(),
                })
                .collect();
            (catalog.schema_count(), catalog.mapping_count(), entries)
        });
        StatsPayload {
            schemas,
            mappings,
            entries,
            session: self.session.stats(),
            cache_capacity: self.session.config().cache_capacity,
            replication: self.hub.get().map(|hub| ReplicationInfo {
                role: "leader".into(),
                state: "serving".into(),
                position: hub.position(),
                lag: 0,
            }),
        }
    }
}

/// Read an on-disk catalog — the document snapshot at `catalog_file` and
/// the log in `sidecar`, its memo replayed into a cache striped for
/// `workers` — and restore it ([`restore_catalog`]). A missing
/// document is an empty snapshot when `allow_missing` or when the sidecar
/// exists (the catalog then lives in log form); any other read failure is
/// an error, so a service never silently starts empty and overwrites the
/// file at its next compaction.
pub(crate) fn read_catalog(
    catalog_file: &Path,
    sidecar: &SidecarWriter,
    allow_missing: bool,
    workers: usize,
) -> Result<(Catalog, SidecarState), ServiceError> {
    let document = match std::fs::read_to_string(catalog_file) {
        Ok(text) => parse_document(&text).map_err(|error| {
            ServiceError::parse(format!("{}: parse error: {error}", catalog_file.display()))
        })?,
        Err(error)
            if (allow_missing || sidecar.path().exists())
                && error.kind() == std::io::ErrorKind::NotFound =>
        {
            Document::default()
        }
        Err(error) => {
            return Err(ServiceError::transport(format!(
                "cannot read {}: {error}",
                catalog_file.display()
            )))
        }
    };
    let state = sidecar.load_full(workers);
    let catalog = restore_catalog(&document, &state)?;
    Ok((catalog, state))
}

/// The sidecar path of a catalog file: `<file>.memo`, matching the CLI's
/// historical convention.
pub fn sidecar_path(catalog_file: &Path) -> PathBuf {
    let mut name = catalog_file.file_name().unwrap_or_default().to_os_string();
    name.push(".memo");
    catalog_file.with_file_name(name)
}

impl MapcompService for LocalService {
    fn call(&self, request: Request) -> Result<Response, ServiceError> {
        self.call_traced(request, None)
    }

    /// Every request roots a span named after its wire keyword (adopting
    /// the peer's trace ID when one arrived on the wire) and bumps the
    /// per-kind request/error/latency metrics on the way out.
    fn call_traced(&self, request: Request, trace: Option<u64>) -> Result<Response, ServiceError> {
        self.observed(request.kind(), trace, || self.dispatch(request))
    }

    /// A `migrate-delta` frame is written from the engine's escaped target
    /// text, so the target is neither built as plain text nor escaped
    /// again; every other kind takes the default encoding.
    fn call_encoded(&self, request: Request, trace: Option<u64>) -> String {
        let kind = request.kind();
        let Request::MigrateDelta { from, to, updates } = request else {
            return encode_reply(&self.call_traced(request, trace));
        };
        let frame = self.observed(kind, trace, || {
            self.migrate(from, to, &updates, |payload, engine| encode_migrated(&payload, engine))
        });
        frame.unwrap_or_else(|error| encode_reply(&Err(error)))
    }

    /// Open a subscription on the replication hub. A position that
    /// compaction has discarded (or that lies beyond the log) fails with
    /// [`ErrorCode::Stale`]; the follower falls back to
    /// [`Request::Snapshot`].
    fn subscribe(
        &self,
        from: Position,
        wake: Arc<dyn Fn() + Send + Sync>,
    ) -> Result<Subscription, ServiceError> {
        let Some(hub) = self.hub.get() else {
            return Err(ServiceError::new(
                ErrorCode::Unavailable,
                "replication is not enabled on this server (serve with --replicate)",
            ));
        };
        hub.subscribe(from, wake).map_err(|SubscribeError::Stale(position)| {
            ServiceError::new(
                ErrorCode::Stale,
                format!(
                    "position {from} is not in the retained log (leader at {position}); \
                     bootstrap from a snapshot"
                ),
            )
        })
    }
}

impl LocalService {
    /// Run one request of wire keyword `kind` under a span named after it
    /// (adopting the peer's trace ID when one arrived on the wire), and bump
    /// the per-kind request/error/latency metrics on the way out.
    fn observed<T>(
        &self,
        kind: &'static str,
        trace: Option<u64>,
        run: impl FnOnce() -> Result<T, ServiceError>,
    ) -> Result<T, ServiceError> {
        let _span = mapcomp_telemetry::trace::start_trace(kind, trace);
        let started = std::time::Instant::now();
        let result = run();
        let telemetry = self.telemetry.for_kind(kind);
        telemetry.requests.incr();
        if result.is_err() {
            telemetry.errors.incr();
        }
        telemetry.duration_us.observe(started.elapsed().as_micros() as u64);
        result
    }

    /// The untimed request dispatch: the match [`MapcompService::call`]
    /// wraps with telemetry.
    fn dispatch(&self, request: Request) -> Result<Response, ServiceError> {
        match request {
            Request::Ping => Ok(Response::Pong),
            Request::AddDocument { text } => {
                let document = parse_document(&text)
                    .map_err(|error| ServiceError::parse(format!("parse error: {error}")))?;
                // Dry-run against the live catalog first, under the ingest
                // lock so no concurrent ingest can invalidate the
                // validation: a rejected document (unknown schema, arity
                // conflict) leaves the shared catalog untouched instead of
                // half-applied. The check reads only the schemas the
                // document's mappings name.
                let _ingest = self.ingest.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                let catalog = self.session.catalog();
                catalog.validate_document(&document)?;
                // Pre-ingest hashes of the declared schemas and versions of
                // the declared mappings (under the ingest lock, so nothing
                // else can move them): an idempotent re-add must not grow
                // the delta log, and an edit appends only the history it
                // added.
                let schema_hash_before: std::collections::BTreeMap<&String, _> =
                    document.schemas.keys().map(|name| (name, catalog.schema_hash(name))).collect();
                let version_before: std::collections::BTreeMap<&String, _> = document
                    .mappings
                    .keys()
                    .filter_map(|name| Some((name, catalog.mapping_version(name)?)))
                    .collect();
                let touched = self.session.ingest_document(&document)?;
                // Delta rendering covers exactly what the request actually
                // changed: every schema whose content hash moved (or is
                // new), every mapping it added, edited or re-pointed (with
                // an invalidation for each edit's stale cached
                // compositions), and their version lines — cost
                // proportional to the change, never to the catalog.
                let mut deltas = Vec::new();
                let mut manifest = VersionManifest::default();
                let mut extensions = String::new();
                for name in document.schemas.keys() {
                    if schema_hash_before[name] == catalog.schema_hash(name) {
                        continue;
                    }
                    let Ok(entry) = catalog.schema(name) else { continue };
                    let decl = render_schema_decl(&entry.name, &entry.signature);
                    deltas.push(DeltaRecord::Schema { decl });
                    manifest.absorb(VersionManifest::of_schema(&entry));
                }
                for name in &touched {
                    let Ok(entry) = catalog.mapping(name) else { continue };
                    let version_before = version_before.get(name).copied();
                    let decl = render_mapping_decl(
                        &entry.name,
                        &entry.source,
                        &entry.target,
                        &entry.constraints,
                    );
                    deltas.push(DeltaRecord::Mapping { decl });
                    deltas.push(DeltaRecord::Invalidate { mapping: name.clone() });
                    // An edit of a declared mapping appends only the history
                    // it added; a new mapping, or one edited only through a
                    // schema, records its whole history.
                    let added: Vec<(u64, u64)> = entry
                        .history
                        .iter()
                        .filter(|(version, _)| {
                            version_before.is_some_and(|before| *version > before)
                        })
                        .map(|&(version, hash)| (version, hash.0))
                        .collect();
                    if added.is_empty() {
                        manifest.absorb(VersionManifest::of_mapping(&entry));
                    } else {
                        extensions.push_str(&render_version_extension(name, entry.version, &added));
                    }
                }
                self.persist_change(deltas, &(manifest.render() + &extensions))?;
                Ok(Response::Added {
                    touched,
                    schemas: catalog.schema_count(),
                    mappings: catalog.mapping_count(),
                })
            }
            Request::ComposePath { from, to } => {
                let result = self.session.compose_path(&from, &to)?;
                self.persist_if_composed(result.compose_calls)?;
                Ok(Response::Composed(ChainPayload::from_result(&result)))
            }
            Request::ComposeNames { names } => {
                if names.is_empty() {
                    return Err(ServiceError::protocol(
                        "compose-names requires at least one mapping name",
                    ));
                }
                let result = self.session.compose_names(&names)?;
                self.persist_if_composed(result.compose_calls)?;
                Ok(Response::Composed(ChainPayload::from_result(&result)))
            }
            Request::ComposeBatch { requests, workers } => {
                // `0` means "the backend's configured default"; anything a
                // peer supplies is clamped so a hostile request cannot make
                // the server attempt an absurd number of scoped threads.
                let workers = if workers == 0 {
                    self.batch_workers
                } else {
                    workers.min(self.batch_workers.max(MAX_REQUEST_WORKERS))
                };
                let results = self.session.compose_batch_parallel_with(&requests, workers);
                let composed = results
                    .iter()
                    .filter_map(|result| result.as_ref().ok())
                    .map(|result| result.compose_calls)
                    .sum();
                self.persist_if_composed(composed)?;
                Ok(Response::Batch(
                    results
                        .into_iter()
                        .map(|result| {
                            result
                                .map(|result| ChainPayload::from_result(&result))
                                .map_err(ServiceError::from)
                        })
                        .collect(),
                ))
            }
            Request::MigrateDelta { from, to, updates } => {
                let payload = self.migrate(from, to, &updates, |payload, engine| {
                    MigratePayload { target: engine.rendered_target(), ..payload }
                })?;
                Ok(Response::Migrated(payload))
            }
            Request::Invalidate { mapping } => {
                self.session.catalog().mapping(&mapping)?;
                let dropped = self.session.invalidate(&mapping);
                // One `delta invalidate` line replays the whole drop.
                self.persist_change(vec![DeltaRecord::Invalidate { mapping }], "")?;
                Ok(Response::Invalidated { dropped })
            }
            Request::Analyze { mapping } => {
                // Read-only: verdicts are cached inside the session (keyed
                // by content hash), so nothing here touches durable state.
                let reports = match mapping {
                    Some(name) => {
                        vec![(name.clone(), self.session.analyze_mapping(&name)?.1)]
                    }
                    None => self.session.analyze_all(),
                };
                let (proven, unknown, diagnostics) = mapcomp_catalog::analysis_counts(&reports);
                Ok(Response::Analysis(AnalysisPayload {
                    proven,
                    unknown,
                    diagnostics,
                    text: mapcomp_catalog::render_analysis_text(&reports),
                }))
            }
            Request::Stats => Ok(Response::Stats(self.stats_payload())),
            Request::CacheInfo => {
                // Read-only introspection over the sharded memo cache: one
                // line per segment, live counters only (the persisted
                // baseline has no per-segment attribution).
                let segments = self
                    .session
                    .cache()
                    .segment_snapshots()
                    .into_iter()
                    .enumerate()
                    .map(|(segment, (entries, capacity, stats))| SegmentCacheInfo {
                        segment,
                        entries,
                        capacity,
                        hits: stats.hits,
                        misses: stats.misses,
                        insertions: stats.insertions,
                        invalidated: stats.invalidated,
                        evictions: stats.evictions,
                    })
                    .collect();
                Ok(Response::CacheInfo(CacheInfoPayload { segments }))
            }
            Request::Metrics => Ok(Response::Metrics { text: self.telemetry.registry.render() }),
            Request::Compact => {
                let (bytes_before, bytes_after) = self.compact()?;
                Ok(Response::Compacted { bytes_before, bytes_after })
            }
            Request::Subscribe { .. } => Err(ServiceError::new(
                ErrorCode::Unavailable,
                "subscriptions are long-lived streams; they are served by the \
                 event-loop front end, not one-shot dispatch",
            )),
            Request::Snapshot => self.serve_snapshot(),
            Request::Shutdown => {
                // The backend's part of a shutdown is durability — a final
                // compaction folding the delta log into snapshot form;
                // stopping the accept loop is the transport's job (see
                // [`crate::EventServer`]).
                self.compact()?;
                Ok(Response::ShuttingDown)
            }
        }
    }

    /// Serve one `MigrateDelta` request: resolve and compose its chain, then
    /// apply the batch ([`LocalService::migrate_batch`]).
    fn migrate<T>(
        &self,
        from: String,
        to: String,
        updates: &[String],
        reply: impl FnOnce(MigratePayload, &DifferentialChase) -> T,
    ) -> Result<T, ServiceError> {
        let result = self.session.compose_path(&from, &to)?;
        let applied = self.migrate_batch(from, to, updates, &result.chain, reply);
        if applied.is_err() {
            // A refused batch appends no record of its own, but a cold
            // chain's new memo entries still become durable.
            self.persist_if_composed(result.compose_calls)?;
        }
        applied
    }

    /// Apply one `MigrateDelta` batch to its session over the resolved
    /// `chain` and make it durable: the batch's `delta migrate` record and
    /// the chain's new memo entries, if it was cold, land in one append.
    /// `reply` builds the answer, under the session's lock, from the
    /// batch's payload (its `target` left empty) and the engine, whose
    /// target text fills it in the form the caller needs.
    fn migrate_batch<T>(
        &self,
        from: String,
        to: String,
        updates: &[String],
        chain: &ComposedChain,
        reply: impl FnOnce(MigratePayload, &DifferentialChase) -> T,
    ) -> Result<T, ServiceError> {
        let parsed = parse_updates(updates)
            .map_err(|error| ServiceError::parse(format!("bad update: {error}")))?;
        // Serialise the engine apply and the delta append, so they
        // land in the same order per session (replaying the log
        // must fold batches in application order). Everything
        // above is request-local: a malformed batch or an unknown
        // schema is refused without waiting behind other batches.
        let _order = self.migrate_order.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let payload = {
            let mut sessions = self.migrations.lock().unwrap_or_else(PoisonError::into_inner);
            let migration = sessions.entry((from.clone(), to.clone())).or_default();
            let report = match migration {
                MigrationSession::Engine { engine, chain_hash, .. }
                    if *chain_hash == chain.hash =>
                {
                    engine.apply_or_undo(&parsed).map_err(ServiceError::protocol)?
                }
                _ => self.build_engine(migration, chain, &parsed)?,
            };
            let MigrationSession::Engine { engine, analysis, .. } = migration else {
                unreachable!("a batch that was not refused ran on an engine")
            };
            if !engine.converged() {
                // Never apply, persist or serve a truncated chase: the
                // engine took the batch back out of its source, which the
                // session keeps, and the next request rebuilds over it.
                let verdict = analysis.termination.summary();
                *migration = MigrationSession::Source(migration.take_source());
                return Err(ServiceError::new(
                    ErrorCode::Nonterminating,
                    format!(
                        "the chase from `{from}` to `{to}` did not reach a fixpoint \
                         within its limits; batch refused ({verdict})"
                    ),
                ));
            }
            let payload = MigratePayload {
                from: from.clone(),
                to: to.clone(),
                applied: report.applied,
                inserted: report.inserted,
                deleted: report.deleted,
                retracted: report.retracted,
                rederived: report.rederived,
                fallback: report.fallback,
                source_rows: engine.source().total_tuples(),
                target_rows: engine.target().total_tuples(),
                support_entries: engine.support().len(),
                target: String::new(),
            };
            reply(payload, engine)
            // The migrations leaf lock drops here, *before* the
            // append below waits on the persistence mutex.
        };
        self.persist_change(vec![DeltaRecord::Migrate { from, to, updates: parsed }], "")?;
        Ok(payload)
    }

    /// Build `migration`'s engine over `chain` and apply `batch` with it.
    /// The session holds the engine afterwards, unless a malformed first
    /// batch left nothing to build it over. A session holding a net source (restored after a restart, or moved
    /// out of the engine an upstream edit outdated) is chased cold and then
    /// takes the batch; a session without one takes the batch as its
    /// initial source ([`DifferentialChase::with_batch`]). Confluence makes
    /// either engine byte-identical to one maintained incrementally.
    fn build_engine(
        &self,
        migration: &mut MigrationSession,
        chain: &ComposedChain,
        batch: &[Update],
    ) -> Result<mapcomp_compose::DeltaReport, ServiceError> {
        let (full, target_sig) = chain.chase_signatures().map_err(|error| {
            ServiceError::protocol(format!("conflicting chain signatures: {error}"))
        })?;
        let constraints = chain.mapping.constraints.as_slice();
        let analysis = mapcomp_catalog::analyze_exchange(constraints, &full, &target_sig);
        let config = self.session.config().chase_config(Some(&analysis));
        let registry = self.session.registry();
        let source = migration.take_source();
        let (engine, report) = if source.total_tuples() == 0 {
            let built = DifferentialChase::with_batch(
                constraints,
                &full,
                &target_sig,
                batch,
                registry,
                &config,
            );
            let (engine, report) = built.map_err(ServiceError::protocol)?;
            (engine, Ok(report))
        } else {
            let mut engine =
                DifferentialChase::new(constraints, &full, &target_sig, source, registry, &config);
            let report = engine.apply_or_undo(batch).map_err(ServiceError::protocol);
            (engine, report)
        };
        let engine = Box::new(engine);
        *migration = MigrationSession::Engine { engine, chain_hash: chain.hash, analysis };
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain_document(hops: usize) -> String {
        let mut text = String::new();
        for i in 0..=hops {
            text.push_str(&format!("schema v{i} {{ R{i}/1; }}\n"));
        }
        for i in 0..hops {
            text.push_str(&format!(
                "mapping m{i} : v{i} -> v{} {{ R{i} <= R{}; }}\n",
                i + 1,
                i + 1
            ));
        }
        text
    }

    #[test]
    fn local_service_serves_the_full_request_surface() {
        let service = LocalService::new(Catalog::new(), 2);
        assert_eq!(service.call(Request::Ping).unwrap(), Response::Pong);

        let added = service.call(Request::AddDocument { text: chain_document(3) }).unwrap();
        assert_eq!(
            added,
            Response::Added {
                touched: vec!["m0".into(), "m1".into(), "m2".into()],
                schemas: 4,
                mappings: 3
            }
        );

        let Response::Composed(payload) =
            service.call(Request::ComposePath { from: "v0".into(), to: "v3".into() }).unwrap()
        else {
            panic!("expected a composed reply");
        };
        assert_eq!(payload.path, vec!["m0", "m1", "m2"]);
        assert_eq!(payload.compose_calls, 2);
        let chain = payload.to_chain().unwrap();
        assert!(chain.residual.is_empty());

        let Response::Batch(items) = service
            .call(Request::ComposeBatch {
                requests: vec![
                    ("v0".into(), "v2".into()),
                    ("v3".into(), "v0".into()), // unreachable
                ],
                workers: 2,
            })
            .unwrap()
        else {
            panic!("expected a batch reply");
        };
        assert!(items[0].is_ok());
        assert_eq!(items[1].as_ref().unwrap_err().code, crate::api::ErrorCode::NoPath);

        let Response::Invalidated { dropped } =
            service.call(Request::Invalidate { mapping: "m1".into() }).unwrap()
        else {
            panic!("expected an invalidated reply");
        };
        assert!(dropped > 0);

        let Response::Analysis(analysis) =
            service.call(Request::Analyze { mapping: None }).unwrap()
        else {
            panic!("expected an analysis reply");
        };
        assert_eq!(analysis.proven, 3);
        assert_eq!(analysis.unknown, 0);
        for name in ["m0", "m1", "m2"] {
            assert!(
                analysis.text.contains(&format!("mapping {name}: proven")),
                "{}",
                analysis.text
            );
        }
        // A single-mapping analyze matches the catalog-wide line for it.
        let Response::Analysis(one) =
            service.call(Request::Analyze { mapping: Some("m0".into()) }).unwrap()
        else {
            panic!("expected an analysis reply");
        };
        assert_eq!(one.proven, 1);
        assert!(analysis.text.contains(one.text.trim_end_matches('\n')));

        let Response::Stats(stats) = service.call(Request::Stats).unwrap() else {
            panic!("expected a stats reply");
        };
        assert_eq!((stats.schemas, stats.mappings), (4, 3));
        assert_eq!(stats.entries.len(), 3);
        // compose-path plus the successful batch item (the unreachable one
        // fails before counting as a composed chain).
        assert_eq!(stats.session.chains_composed, 2);

        // Compact on an in-memory backend is a no-op with a zero report.
        assert_eq!(
            service.call(Request::Compact).unwrap(),
            Response::Compacted { bytes_before: 0, bytes_after: 0 }
        );

        assert_eq!(service.call(Request::Shutdown).unwrap(), Response::ShuttingDown);
    }

    #[test]
    fn errors_carry_stable_codes() {
        let service = LocalService::new(Catalog::new(), 1);
        let error =
            service.call(Request::ComposePath { from: "a".into(), to: "b".into() }).unwrap_err();
        assert_eq!(error.code, crate::api::ErrorCode::UnknownSchema);
        let error = service.call(Request::AddDocument { text: "schema {".into() }).unwrap_err();
        assert_eq!(error.code, crate::api::ErrorCode::Parse);
        let error = service.call(Request::ComposeNames { names: vec![] }).unwrap_err();
        assert_eq!(error.code, crate::api::ErrorCode::Protocol);
    }

    fn temp_catalog(tag: &str) -> std::path::PathBuf {
        let file =
            std::env::temp_dir().join(format!("mapcomp_service_{tag}_{}.doc", std::process::id()));
        let _ = std::fs::remove_file(&file);
        let _ = std::fs::remove_file(sidecar_path(&file));
        file
    }

    fn cleanup(file: &std::path::Path) {
        let _ = std::fs::remove_file(file);
        let _ = std::fs::remove_file(sidecar_path(file));
        let _ =
            std::fs::remove_file(mapcomp_catalog::FileLock::for_file(&sidecar_path(file)).path());
    }

    fn open_with(file: &std::path::Path, policy: PersistPolicy) -> LocalService {
        LocalService::open_with_policy(
            file,
            Registry::standard(),
            SessionConfig::default(),
            2,
            true,
            policy,
        )
        .unwrap()
    }

    #[test]
    fn incremental_requests_append_deltas_without_touching_the_snapshot() {
        let file = temp_catalog("incr");
        let policy = PersistPolicy { compact_appends: None, compact_bytes: None };
        let service = open_with(&file, policy);
        // The first persist (no snapshot on disk yet) compacts, creating it.
        service.call(Request::AddDocument { text: chain_document(3) }).unwrap();
        let snapshot = std::fs::read_to_string(&file).unwrap();
        let sidecar_after_add = std::fs::read_to_string(sidecar_path(&file)).unwrap();

        // A compose appends an entry block + stats delta; the document
        // snapshot is byte-identical and the sidecar only grew.
        service.call(Request::ComposePath { from: "v0".into(), to: "v3".into() }).unwrap();
        assert_eq!(std::fs::read_to_string(&file).unwrap(), snapshot);
        let sidecar_after_compose = std::fs::read_to_string(sidecar_path(&file)).unwrap();
        assert!(sidecar_after_compose.starts_with(&sidecar_after_add), "append-only");
        let tail = &sidecar_after_compose[sidecar_after_add.len()..];
        assert!(tail.contains("entry "), "the new memo entries are appended:\n{tail}");
        // Deltas are positioned: `delta <generation> <seq> <kind> …`.
        let delta_of = |text: &str, kind: &str| {
            text.lines().any(|line| {
                line.strip_prefix("delta ").is_some_and(|body| {
                    let mut tokens = body.splitn(3, ' ');
                    tokens.next().is_some_and(|t| t.parse::<u64>().is_ok())
                        && tokens.next().is_some_and(|t| t.parse::<u64>().is_ok())
                        && tokens.next().is_some_and(|rest| rest.starts_with(kind))
                })
            })
        };
        assert!(delta_of(tail, "stats "), "the statistics increment is appended:\n{tail}");

        // An edit via add-document appends content + invalidation deltas.
        let edited = chain_document(3).replace(
            "mapping m1 : v1 -> v2 { R1 <= R2; }",
            "mapping m1 : v1 -> v2 { project[0](R1) <= R2; }",
        );
        service.call(Request::AddDocument { text: edited }).unwrap();
        let sidecar_after_edit = std::fs::read_to_string(sidecar_path(&file)).unwrap();
        let tail = &sidecar_after_edit[sidecar_after_compose.len()..];
        assert!(delta_of(tail, "mapping "), "edited declaration appended:\n{tail}");
        assert!(delta_of(tail, "invalidate m1"), "invalidation appended:\n{tail}");
        assert!(tail.contains("version mapping m1 2 "), "version bump appended:\n{tail}");
        assert_eq!(std::fs::read_to_string(&file).unwrap(), snapshot, "snapshot still untouched");

        // Recovery replays the tail: the reopened catalog has the edit.
        drop(service);
        let reopened = open_with(&file, policy);
        let entry = reopened.session().catalog().mapping("m1").unwrap();
        assert_eq!(entry.version, 2);
        assert!(entry.constraints.to_string().contains("project[0](R1)"));
        cleanup(&file);
    }

    #[test]
    fn idempotent_re_add_appends_nothing() {
        let file = temp_catalog("noop_add");
        let policy = PersistPolicy { compact_appends: None, compact_bytes: None };
        let service = open_with(&file, policy);
        service.call(Request::AddDocument { text: chain_document(3) }).unwrap();
        let compose = || match service
            .call(Request::ComposePath { from: "v0".into(), to: "v3".into() })
            .unwrap()
        {
            Response::Composed(payload) => payload.compose_calls,
            other => panic!("{other:?}"),
        };
        assert_eq!(compose(), 2);
        let sidecar_len = std::fs::metadata(sidecar_path(&file)).unwrap().len();
        // Re-submitting the identical document changes nothing: it touches
        // no mapping, must not grow the delta log, and keeps every memo
        // entry, so the next compose is served without a pairwise call.
        match service.call(Request::AddDocument { text: chain_document(3) }).unwrap() {
            Response::Added { touched, .. } => assert!(touched.is_empty(), "{touched:?}"),
            other => panic!("{other:?}"),
        }
        assert_eq!(
            std::fs::metadata(sidecar_path(&file)).unwrap().len(),
            sidecar_len,
            "an unchanged re-add must append no deltas"
        );
        assert_eq!(compose(), 0, "an unchanged re-add must keep the memo");
        cleanup(&file);
    }

    /// The memo keys a fresh load of the sidecar replays to, and the live
    /// ones, sorted.
    fn replayed_and_live_keys(service: &LocalService, file: &Path) -> (Vec<MemoKey>, Vec<MemoKey>) {
        let text = std::fs::read_to_string(sidecar_path(file)).unwrap();
        let keys = |cache: &mapcomp_catalog::ShardedMemoCache| {
            let mut keys: Vec<MemoKey> = cache.entries().into_iter().map(|(key, _)| key).collect();
            keys.sort_unstable();
            keys
        };
        (keys(&mapcomp_catalog::load_sidecar(&text).cache), keys(service.session().cache()))
    }

    #[test]
    fn every_invalidation_is_journaled_once_as_its_own_record() {
        let file = temp_catalog("invalidations");
        let policy = PersistPolicy { compact_appends: None, compact_bytes: None };
        let service = open_with(&file, policy);
        service.call(Request::AddDocument { text: chain_document(4) }).unwrap();
        let edit_m1 = "mapping m1 : v1 -> v2 { project[0](R1) <= R2; }";
        // Every path on which a persistent service invalidates: a mapping
        // edit, a schema edit rehashing the mappings over it and an explicit
        // invalidation. An idempotent re-add of a version-1 mapping changes
        // nothing, so it drops no entry and appends nothing.
        let steps = [
            (Request::AddDocument { text: edit_m1.into() }, vec!["m1"]),
            (Request::AddDocument { text: "schema v2 { R2/1; X/1; }".into() }, vec!["m1", "m2"]),
            (Request::Invalidate { mapping: "m3".into() }, vec!["m3"]),
            (Request::AddDocument { text: "mapping m0 : v0 -> v1 { R0 <= R1; }".into() }, vec![]),
        ];
        for (request, invalidated) in steps {
            service.call(Request::ComposePath { from: "v0".into(), to: "v4".into() }).unwrap();
            let before = std::fs::read_to_string(sidecar_path(&file)).unwrap();
            let dropped_before = service.session().cache().stats().invalidated;
            let kind = request.kind();
            service.call(request).unwrap();
            let dropped = service.session().cache().stats().invalidated > dropped_before;
            let after = std::fs::read_to_string(sidecar_path(&file)).unwrap();
            let chunk = &after[before.len()..];
            if invalidated.is_empty() {
                assert!(!dropped, "{kind}: an unchanged re-add dropped memo entries");
                assert_eq!(chunk, "", "{kind}: an unchanged re-add appended");
            } else {
                assert!(dropped, "{kind}");
            }
            for name in invalidated {
                let record = format!(" invalidate {name}\n");
                assert_eq!(
                    chunk.matches(&record).count(),
                    1,
                    "{kind}: one record for {name}:\n{chunk}"
                );
            }
            assert!(!chunk.contains(" evict "), "{kind}: no per-entry evictions:\n{chunk}");
            let (replayed, live) = replayed_and_live_keys(&service, &file);
            assert_eq!(replayed, live, "{kind}: the log replays to the live memo");
        }
        cleanup(&file);
    }

    #[test]
    fn mapping_edits_append_version_records_of_constant_size() {
        let file = temp_catalog("versions");
        let policy = PersistPolicy { compact_appends: None, compact_bytes: None };
        let service = open_with(&file, policy);
        service.call(Request::AddDocument { text: chain_document(2) }).unwrap();
        let mut sizes = std::collections::BTreeSet::new();
        for edit in 0..200 {
            let before = std::fs::read_to_string(sidecar_path(&file)).unwrap().len();
            let text = format!("mapping m1 : v1 -> v2 {{ select[#0 = {edit}](R1) <= R2; }}");
            service.call(Request::AddDocument { text }).unwrap();
            let after = std::fs::read_to_string(sidecar_path(&file)).unwrap();
            let record = after[before..].lines().find(|line| line.starts_with("version ")).unwrap();
            let version = service.session().catalog().mapping_version("m1").unwrap();
            assert_eq!(record.matches(':').count(), 1, "one history pair per edit: {record}");
            sizes.insert(record.len() - 2 * version.to_string().len());
        }
        assert_eq!(sizes.len(), 1, "version records must not grow with the history");
        let live = service.session().catalog().mapping("m1").unwrap();
        assert_eq!(live.version, 201);
        drop(service);
        let reopened = open_with(&file, policy);
        let restored = reopened.session().catalog().mapping("m1").unwrap();
        assert_eq!((restored.version, &restored.history), (live.version, &live.history));
        cleanup(&file);
    }

    #[test]
    fn compact_folds_the_delta_log_into_the_snapshot() {
        let file = temp_catalog("compactreq");
        let policy = PersistPolicy { compact_appends: None, compact_bytes: None };
        let service = open_with(&file, policy);
        service.call(Request::AddDocument { text: chain_document(4) }).unwrap();
        service.call(Request::ComposePath { from: "v0".into(), to: "v4".into() }).unwrap();
        service.call(Request::Invalidate { mapping: "m2".into() }).unwrap();
        let stats_before = service.session().cache().stats();
        let Response::Compacted { bytes_before, bytes_after } =
            service.call(Request::Compact).unwrap()
        else {
            panic!("expected a compacted reply");
        };
        assert!(bytes_before > 0 && bytes_after > 0);
        let compacted = std::fs::read_to_string(sidecar_path(&file)).unwrap();
        assert!(!compacted.contains("delta "), "compaction folds every delta:\n{compacted}");
        // The snapshot now carries the post-invalidate catalog + stats.
        drop(service);
        let reopened = open_with(&file, policy);
        assert_eq!(reopened.session().cache().stats(), stats_before);
        assert_eq!(reopened.session().catalog().mapping_count(), 4);
        cleanup(&file);
    }

    #[test]
    fn append_threshold_triggers_compaction() {
        let file = temp_catalog("threshold");
        let policy = PersistPolicy { compact_appends: Some(2), compact_bytes: None };
        let service = open_with(&file, policy);
        service.call(Request::AddDocument { text: chain_document(3) }).unwrap();
        // First append.
        service.call(Request::ComposePath { from: "v0".into(), to: "v2".into() }).unwrap();
        assert!(std::fs::read_to_string(sidecar_path(&file)).unwrap().contains("delta "));
        // Second append crosses the threshold and compacts.
        service.call(Request::ComposePath { from: "v1".into(), to: "v3".into() }).unwrap();
        let compacted = std::fs::read_to_string(sidecar_path(&file)).unwrap();
        assert!(
            !compacted.contains("delta "),
            "the threshold append must fold the log:\n{compacted}"
        );
        cleanup(&file);
    }

    #[test]
    fn opened_service_persists_across_reopen() {
        let dir = std::env::temp_dir();
        let file = dir.join(format!("mapcomp_service_persist_{}.doc", std::process::id()));
        let _ = std::fs::remove_file(&file);
        let _ = std::fs::remove_file(sidecar_path(&file));

        let open = |allow_missing| {
            LocalService::open_with_policy(
                &file,
                Registry::standard(),
                SessionConfig::default(),
                2,
                allow_missing,
                PersistPolicy::default(),
            )
            .unwrap()
        };
        let service = open(true);
        service.call(Request::AddDocument { text: chain_document(3) }).unwrap();
        let Response::Composed(first) =
            service.call(Request::ComposePath { from: "v0".into(), to: "v3".into() }).unwrap()
        else {
            panic!("expected a composed reply");
        };
        assert_eq!(first.compose_calls, 2);
        drop(service);

        // A fresh service over the same files: warm cache, composing is free.
        let reopened = open(false);
        let Response::Composed(second) =
            reopened.call(Request::ComposePath { from: "v0".into(), to: "v3".into() }).unwrap()
        else {
            panic!("expected a composed reply");
        };
        assert_eq!(second.compose_calls, 0, "sidecar-restored cache must serve the chain");
        assert_eq!(second.document, first.document, "content is byte-identical across restarts");

        let _ = std::fs::remove_file(&file);
        let _ = std::fs::remove_file(sidecar_path(&file));
    }
}
