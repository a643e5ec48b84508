//! The typed request/response surface of the catalog service.
//!
//! [`Request`] and [`Response`] are the *whole* public API: every front end
//! (the CLI's local catalog mode, the TCP client, tests) speaks these types,
//! and every backend implements [`crate::MapcompService`] over them. All
//! failures funnel into one [`ServiceError`] carrying a stable
//! machine-readable [`ErrorCode`] next to the human-readable message, so
//! remote callers can branch on the code without parsing prose.
//!
//! Payload structs ([`ChainPayload`], [`StatsPayload`]) are plain data with
//! structural equality: a chain composed remotely compares byte-identical to
//! one composed in process, which is what the transport-equivalence suite
//! asserts.

use std::fmt;

use mapcomp_catalog::{
    parse_chain_document, render_chain_document, CatalogError, ChainResult, ChainSegment,
    ComposedChain, Name, Position, SegmentPath, SessionStats,
};

/// A request to the catalog service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Ingest a plain-text document (schemas + mappings).
    AddDocument {
        /// The document text, in the repo's task format.
        text: String,
    },
    /// Resolve a path between two schemas and compose it.
    ComposePath {
        /// Source schema name.
        from: String,
        /// Target schema name.
        to: String,
    },
    /// Compose an explicit chain of mapping names.
    ComposeNames {
        /// Mapping names, adjacent pairs sharing a schema.
        names: Vec<String>,
    },
    /// Compose a batch of `(from, to)` requests, fanned across worker
    /// threads on the serving side.
    ComposeBatch {
        /// The `(from, to)` schema pairs.
        requests: Vec<(String, String)>,
        /// Worker threads to fan the batch across; `0` means "the server's
        /// configured default".
        workers: usize,
    },
    /// Drop cached compositions depending on a mapping.
    Invalidate {
        /// The mapping name.
        mapping: String,
    },
    /// Apply a batch of signed source updates (`+rel(...)`/`-rel(...)`,
    /// grammar in `docs/DIFFERENTIAL.md`) to the differentially-maintained
    /// migration session for the `from → to` composed chain, and reply with
    /// the maintained target instance. The first request for a pair (or the
    /// first after the chain's content hash changes) builds the session
    /// with a full chase; later batches propagate incrementally.
    MigrateDelta {
        /// Source schema name.
        from: String,
        /// Target schema name.
        to: String,
        /// Signed updates, applied as one batch.
        updates: Vec<String>,
    },
    /// Statically analyze mappings: weak-acyclicity termination verdicts
    /// plus lint diagnostics (see `docs/ANALYSIS.md`).
    Analyze {
        /// A single mapping name, or `None` for the whole catalog.
        mapping: Option<String>,
    },
    /// Catalog and session statistics.
    Stats,
    /// Per-segment memo-cache introspection: entry counts, capacity bounds
    /// and hit/miss/eviction counters for every cache shard.
    CacheInfo,
    /// The serving side's metrics registry, rendered as Prometheus-style
    /// text exposition (see `docs/OBSERVABILITY.md`).
    Metrics,
    /// Fold the serving side's append-only sidecar log back into snapshot
    /// form (document + sidecar rewritten atomically). A no-op for
    /// in-memory backends.
    Compact,
    /// Open a long-lived replication stream: replay the sidecar delta log
    /// from the given position, then tail live appends. The reply is
    /// [`Response::Subscribed`] followed by a stream of
    /// [`Response::Delta`] / [`Response::Generation`] frames for the life
    /// of the connection; a position predating the oldest retained
    /// generation fails with [`ErrorCode::Stale`] (bootstrap from
    /// [`Request::Snapshot`] instead). Served by the event-loop engine
    /// only.
    Subscribe {
        /// Generation of the first log record the subscriber has not
        /// applied.
        from_generation: u64,
        /// Sequence number within that generation.
        from_seq: u64,
    },
    /// Fetch a consistent catalog snapshot — the document and a sidecar
    /// rendering, captured atomically at an exact log position — as the
    /// bootstrap artifact for a new or lagging follower.
    Snapshot,
    /// Ask the serving process to persist and stop accepting connections.
    Shutdown,
}

impl Request {
    /// Every request kind keyword, in the order they appear on the wire
    /// grammar — the label universe for the per-kind service metrics.
    pub const KINDS: &'static [&'static str] = &[
        "ping",
        "add-document",
        "compose-path",
        "compose-names",
        "compose-batch",
        "invalidate",
        "migrate-delta",
        "analyze",
        "stats",
        "cache-info",
        "metrics",
        "compact",
        "subscribe",
        "snapshot",
        "shutdown",
    ];

    /// The stable wire keyword of this request kind.
    pub fn kind(&self) -> &'static str {
        match self {
            Request::Ping => "ping",
            Request::AddDocument { .. } => "add-document",
            Request::ComposePath { .. } => "compose-path",
            Request::ComposeNames { .. } => "compose-names",
            Request::ComposeBatch { .. } => "compose-batch",
            Request::Invalidate { .. } => "invalidate",
            Request::MigrateDelta { .. } => "migrate-delta",
            Request::Analyze { .. } => "analyze",
            Request::Stats => "stats",
            Request::CacheInfo => "cache-info",
            Request::Metrics => "metrics",
            Request::Compact => "compact",
            Request::Subscribe { .. } => "subscribe",
            Request::Snapshot => "snapshot",
            Request::Shutdown => "shutdown",
        }
    }
}

/// A composed chain as carried on the wire: content (rendered through the
/// sidecar's embeddable document format) plus the per-request counters of
/// the [`ChainResult`] it came from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainPayload {
    /// Source schema name.
    pub source: String,
    /// Target schema name.
    pub target: String,
    /// Mapping names along the path, in composition order.
    pub path: Vec<String>,
    /// Names of the catalog mappings the chain depends on.
    pub deps: Vec<String>,
    /// Content hash of the composed segment.
    pub hash: u64,
    /// The chain's content: `__in`/`__out`/`__residual` schemas and the
    /// `__seg` mapping, rendered by
    /// [`mapcomp_catalog::render_chain_document`].
    pub document: String,
    /// Pairwise `compose()` invocations performed for this request.
    pub compose_calls: usize,
    /// Memo-cache hits while folding.
    pub cache_hits: usize,
    /// Lengths of the contiguous runs the driver absorbed.
    pub plan: Vec<usize>,
}

impl ChainPayload {
    /// Capture a [`ChainResult`] for the wire, rendering the chain's shared
    /// names as owned text.
    pub fn from_result(result: &ChainResult) -> Self {
        ChainPayload {
            source: result.chain.source.to_string(),
            target: result.chain.target.to_string(),
            path: result.chain.path.iter().map(ToString::to_string).collect(),
            deps: result.chain.deps().into_iter().map(str::to_string).collect(),
            hash: result.chain.hash,
            document: render_chain_document(&result.chain),
            compose_calls: result.compose_calls,
            cache_hits: result.cache_hits,
            plan: result.plan.clone(),
        }
    }

    /// Reconstruct the composed chain (mapping, residual signature,
    /// provenance) from the payload.
    pub fn to_chain(&self) -> Result<ComposedChain, ServiceError> {
        let (mapping, residual) = parse_chain_document(&self.document)
            .ok_or_else(|| ServiceError::protocol("chain payload carries a malformed document"))?;
        let path: SegmentPath = self.path.iter().map(|name| Name::from(name.as_str())).collect();
        let deps: Vec<Name> = self.deps.iter().map(|name| name.as_str().into()).collect();
        Ok(ChainSegment {
            source: self.source.as_str().into(),
            target: self.target.as_str().into(),
            provenance: ChainSegment::provenance_of(&path, &deps),
            path,
            mapping,
            residual,
            hash: self.hash,
        }
        .into())
    }

    /// Did every intermediate symbol get eliminated?
    pub fn is_complete(&self) -> Result<bool, ServiceError> {
        Ok(self.to_chain()?.residual.is_empty())
    }
}

/// Static-analysis results, as reported by [`Response::Analysis`]: verdict
/// tallies plus the byte-stable catalog-wide text rendered server-side by
/// [`mapcomp_catalog::render_analysis_text`] — the same bytes whichever
/// transport carried them, mirroring the metrics exposition pattern.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AnalysisPayload {
    /// Mappings whose chase termination is proven (weakly acyclic).
    pub proven: usize,
    /// Mappings whose termination is unknown.
    pub unknown: usize,
    /// Total lint diagnostics across the analyzed mappings.
    pub diagnostics: usize,
    /// The rendered analysis report text (one `mapping <name>: <verdict>`
    /// line per mapping, diagnostics indented; grammar in
    /// `docs/ANALYSIS.md`).
    pub text: String,
}

/// One mapping's registration info, as reported by [`Response::Stats`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MappingInfo {
    /// Mapping name.
    pub name: String,
    /// Source schema.
    pub source: String,
    /// Target schema.
    pub target: String,
    /// Version counter.
    pub version: u64,
    /// Content hash.
    pub hash: u64,
    /// Number of constraints.
    pub constraints: usize,
    /// Version/hash history, oldest first (ends at the current version).
    pub history: Vec<(u64, u64)>,
}

/// Catalog and session statistics, as reported by [`Response::Stats`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StatsPayload {
    /// Registered schema count.
    pub schemas: usize,
    /// Registered mapping count.
    pub mappings: usize,
    /// Per-mapping registration info, name-sorted.
    pub entries: Vec<MappingInfo>,
    /// Cumulative session statistics (compose calls, cache counters, …).
    pub session: SessionStats,
    /// The serving side's configured memo-cache bound (`None` = unbounded).
    pub cache_capacity: Option<usize>,
    /// Replication role and progress, when the serving side is a leader or
    /// a follower (`None` for a standalone catalog).
    pub replication: Option<ReplicationInfo>,
}

/// Replication role and progress, carried inside [`StatsPayload`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicationInfo {
    /// `"leader"` or `"follower"`.
    pub role: String,
    /// Lifecycle state: a leader reports `serving`; a follower reports its
    /// state machine position (`connecting`, `bootstrapping`, `streaming`,
    /// `reconnecting` — see `docs/REPLICATION.md`).
    pub state: String,
    /// A leader's log-end position; a follower's last applied position.
    pub position: Position,
    /// Delta records the follower still has to apply (leader position minus
    /// applied position); always 0 on a leader.
    pub lag: u64,
}

/// One memo-cache segment's live state, as reported by
/// [`Response::CacheInfo`]. Counters are the segment's own (the restored
/// baseline of a reloaded cache is catalog-wide and excluded here).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SegmentCacheInfo {
    /// Shard index (matches the `segment` label on the cache metrics).
    pub segment: usize,
    /// Entries currently cached in this segment.
    pub entries: usize,
    /// This segment's share of the capacity bound (`None` = unbounded).
    pub capacity: Option<usize>,
    /// Lookups served from this segment.
    pub hits: usize,
    /// Lookups that found nothing.
    pub misses: usize,
    /// Entries inserted.
    pub insertions: usize,
    /// Entries dropped by dependency invalidation.
    pub invalidated: usize,
    /// Entries evicted by the capacity bound.
    pub evictions: usize,
}

/// Per-segment memo-cache statistics, as reported by
/// [`Response::CacheInfo`]: one entry per shard, index order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CacheInfoPayload {
    /// Per-segment state, in shard-index order.
    pub segments: Vec<SegmentCacheInfo>,
}

/// The maintained state of a differential migration session, as reported by
/// [`Response::Migrated`]: batch statistics plus the canonical rendering of
/// the target instance (`docs/DIFFERENTIAL.md`). The rendering is
/// byte-identical to a cold re-chase of the session's accumulated source,
/// whichever transport carried it.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MigratePayload {
    /// Source schema name.
    pub from: String,
    /// Target schema name.
    pub to: String,
    /// Effective updates applied after net normalisation.
    pub applied: usize,
    /// Source rows inserted by this batch.
    pub inserted: usize,
    /// Source rows deleted by this batch.
    pub deleted: usize,
    /// Rule firings retracted by the overdeletion cascade.
    pub retracted: usize,
    /// Retracted firings restored by the support check.
    pub rederived: usize,
    /// Did the batch fall back to a full recompute?
    pub fallback: bool,
    /// Source rows in the session after the batch.
    pub source_rows: usize,
    /// Target rows in the maintained instance.
    pub target_rows: usize,
    /// Entries in the per-tuple derivation-support table.
    pub support_entries: usize,
    /// The maintained target, rendered canonically (one `rel(v,...);` line
    /// per tuple, sorted).
    pub target: String,
}

/// A response from the catalog service, one variant per [`Request`] kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Reply to [`Request::Ping`].
    Pong,
    /// Reply to [`Request::AddDocument`].
    Added {
        /// Mapping names added or changed by the ingest.
        touched: Vec<String>,
        /// Schema count after the ingest.
        schemas: usize,
        /// Mapping count after the ingest.
        mappings: usize,
    },
    /// Reply to [`Request::ComposePath`] and [`Request::ComposeNames`].
    Composed(ChainPayload),
    /// Reply to [`Request::ComposeBatch`]: per-request outcomes in request
    /// order (a failed request does not fail the batch).
    Batch(Vec<Result<ChainPayload, ServiceError>>),
    /// Reply to [`Request::Invalidate`].
    Invalidated {
        /// Cached compositions dropped.
        dropped: usize,
    },
    /// Reply to [`Request::MigrateDelta`].
    Migrated(MigratePayload),
    /// Reply to [`Request::Analyze`].
    Analysis(AnalysisPayload),
    /// Reply to [`Request::Stats`].
    Stats(StatsPayload),
    /// Reply to [`Request::CacheInfo`].
    CacheInfo(CacheInfoPayload),
    /// Reply to [`Request::Metrics`].
    Metrics {
        /// The registry in Prometheus text exposition (one sample per line,
        /// `# HELP`/`# TYPE` headers; grammar in `docs/OBSERVABILITY.md`).
        text: String,
    },
    /// Reply to [`Request::Compact`].
    Compacted {
        /// Sidecar size before compaction, in bytes (0 for an in-memory
        /// backend).
        bytes_before: u64,
        /// Sidecar size after compaction, in bytes.
        bytes_after: u64,
    },
    /// First reply to [`Request::Subscribe`]: the stream is open and
    /// [`Response::Delta`] / [`Response::Generation`] frames follow.
    Subscribed {
        /// The leader's log-end position at subscribe time (the initial lag
        /// reference).
        position: Position,
    },
    /// One streamed chunk of appended sidecar lines (a stream frame after
    /// [`Response::Subscribed`], never a direct reply).
    Delta(DeltaChunkPayload),
    /// The leader compacted: the log restarts at `(generation, 0)`. Every
    /// chunk of the previous generation was already streamed.
    Generation {
        /// The new compaction generation.
        generation: u64,
    },
    /// Reply to [`Request::Snapshot`].
    Snapshot(SnapshotPayload),
    /// Reply to [`Request::Shutdown`].
    ShuttingDown,
}

/// One streamed sidecar chunk, carried by [`Response::Delta`]: the exact
/// bytes one leader request appended, plus the position range of the delta
/// records inside them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaChunkPayload {
    /// Position of the first delta record in the chunk.
    pub first: Position,
    /// Position of the last delta record in the chunk.
    pub last: Position,
    /// The chunk text, verbatim sidecar grammar.
    pub chunk: String,
}

/// A consistent catalog snapshot at an exact log position, carried by
/// [`Response::Snapshot`]: the bootstrap artifact for a new or lagging
/// follower.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotPayload {
    /// The log position the snapshot is current through: a follower that
    /// ingests it subscribes from exactly here.
    pub position: Position,
    /// The catalog document text.
    pub document: String,
    /// A full sidecar rendering (generation header, versions, statistics,
    /// memo entries).
    pub sidecar: String,
}

impl Response {
    /// The stable wire keyword of this response kind.
    pub fn kind(&self) -> &'static str {
        match self {
            Response::Pong => "pong",
            Response::Added { .. } => "added",
            Response::Composed(_) => "composed",
            Response::Batch(_) => "batch",
            Response::Invalidated { .. } => "invalidated",
            Response::Migrated(_) => "migrated",
            Response::Analysis(_) => "analysis",
            Response::Stats(_) => "stats",
            Response::CacheInfo(_) => "cache-info",
            Response::Metrics { .. } => "metrics",
            Response::Compacted { .. } => "compacted",
            Response::Subscribed { .. } => "subscribed",
            Response::Delta(_) => "delta-chunk",
            Response::Generation { .. } => "generation",
            Response::Snapshot(_) => "snapshot",
            Response::ShuttingDown => "shutting-down",
        }
    }
}

/// Stable machine-readable error codes. The string form
/// ([`ErrorCode::as_str`]) is part of the wire protocol: codes may be added
/// but never renamed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// A referenced schema is not registered.
    UnknownSchema,
    /// A referenced mapping is not registered.
    UnknownMapping,
    /// No directed path connects the two schemas.
    NoPath,
    /// A path from a schema to itself is empty.
    EmptyPath,
    /// Adjacent mappings of an explicit chain do not share a schema.
    ChainMismatch,
    /// Composition left symbols behind under `require_complete`.
    Incomplete,
    /// An underlying algebra error (arity conflicts, invalid constraints).
    Algebra,
    /// A document or request argument failed to parse.
    Parse,
    /// A malformed wire frame.
    Protocol,
    /// A transport failure (connection refused, reset, I/O error).
    Transport,
    /// The server refuses to serve the request: it is shutting down, or
    /// the connection has not presented the required auth token.
    Unavailable,
    /// The server's bounded compose queue is saturated; the request was
    /// shed without being executed and may be retried later.
    Busy,
    /// The serving side is a read-only replication follower; the message
    /// names the leader address that accepts writes.
    Readonly,
    /// A `Subscribe` position predates the oldest retained generation
    /// (compaction discarded those records); bootstrap from `Snapshot`.
    Stale,
    /// A `migrate-delta` batch would leave a chase that did not reach a
    /// fixpoint; nothing was applied. The message carries the static
    /// termination verdict (the existential cycle, when one was found).
    Nonterminating,
}

impl ErrorCode {
    /// Every code, for exhaustive codec tests.
    pub const ALL: [ErrorCode; 15] = [
        ErrorCode::UnknownSchema,
        ErrorCode::UnknownMapping,
        ErrorCode::NoPath,
        ErrorCode::EmptyPath,
        ErrorCode::ChainMismatch,
        ErrorCode::Incomplete,
        ErrorCode::Algebra,
        ErrorCode::Parse,
        ErrorCode::Protocol,
        ErrorCode::Transport,
        ErrorCode::Unavailable,
        ErrorCode::Busy,
        ErrorCode::Readonly,
        ErrorCode::Stale,
        ErrorCode::Nonterminating,
    ];

    /// The stable wire string of this code.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::UnknownSchema => "unknown-schema",
            ErrorCode::UnknownMapping => "unknown-mapping",
            ErrorCode::NoPath => "no-path",
            ErrorCode::EmptyPath => "empty-path",
            ErrorCode::ChainMismatch => "chain-mismatch",
            ErrorCode::Incomplete => "incomplete",
            ErrorCode::Algebra => "algebra",
            ErrorCode::Parse => "parse",
            ErrorCode::Protocol => "protocol",
            ErrorCode::Transport => "transport",
            ErrorCode::Unavailable => "unavailable",
            ErrorCode::Busy => "busy",
            ErrorCode::Readonly => "readonly",
            ErrorCode::Stale => "stale",
            ErrorCode::Nonterminating => "nonterminating",
        }
    }

    /// Parse a wire string back into a code.
    pub fn parse(text: &str) -> Option<ErrorCode> {
        ErrorCode::ALL.into_iter().find(|code| code.as_str() == text)
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The one error type of the service API: a stable code plus a
/// human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceError {
    /// Stable machine-readable code.
    pub code: ErrorCode,
    /// Human-readable description.
    pub message: String,
}

impl ServiceError {
    /// An error with an explicit code.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        ServiceError { code, message: message.into() }
    }

    /// A [`ErrorCode::Parse`] error.
    pub fn parse(message: impl Into<String>) -> Self {
        ServiceError::new(ErrorCode::Parse, message)
    }

    /// A [`ErrorCode::Protocol`] error.
    pub fn protocol(message: impl Into<String>) -> Self {
        ServiceError::new(ErrorCode::Protocol, message)
    }

    /// A [`ErrorCode::Transport`] error.
    pub fn transport(message: impl Into<String>) -> Self {
        ServiceError::new(ErrorCode::Transport, message)
    }
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

impl std::error::Error for ServiceError {}

impl From<CatalogError> for ServiceError {
    fn from(error: CatalogError) -> Self {
        let code = match &error {
            CatalogError::UnknownSchema(_) => ErrorCode::UnknownSchema,
            CatalogError::UnknownMapping(_) => ErrorCode::UnknownMapping,
            CatalogError::NoPath { .. } => ErrorCode::NoPath,
            CatalogError::EmptyPath { .. } => ErrorCode::EmptyPath,
            CatalogError::ChainMismatch { .. } => ErrorCode::ChainMismatch,
            CatalogError::Incomplete { .. } => ErrorCode::Incomplete,
            CatalogError::Algebra(_) => ErrorCode::Algebra,
        };
        ServiceError::new(code, error.to_string())
    }
}

impl From<std::io::Error> for ServiceError {
    fn from(error: std::io::Error) -> Self {
        ServiceError::transport(error.to_string())
    }
}
