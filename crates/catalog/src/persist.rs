//! Plain-text persistence of the sidecar session state: the memo cache,
//! cumulative cache statistics, and catalog version counters.
//!
//! The catalog itself round-trips through the document format
//! ([`crate::store::Catalog::to_document_string`]); that format carries
//! *content* only. Everything else a command-line session wants to keep
//! across invocations lives in the sidecar rendered here:
//!
//! * **Versions** — `version schema <name> <v> <hash>` and
//!   `version mapping <name> <v> <v:hash> …` lines record each entry's
//!   version counter and hash history, so versions no longer reset per CLI
//!   invocation ([`Catalog::restore_versions`] re-applies them, advancing
//!   the counter when the on-disk content was edited out of session). A
//!   mapping edit appends `version mapping <name> <v> +<v:hash> …`, only
//!   the history it added ([`render_version_extension`]).
//! * **Statistics** — one `stats …` line with the cumulative
//!   [`crate::cache::CacheStats`] counters (hits, misses, insertions,
//!   invalidations, evictions).
//! * **Memo entries** — a small header (the memo key, the segment hash,
//!   endpoints, path, and the provenance when it is not the path) followed
//!   by an embedded document holding the composed mapping and the residual
//!   signature. A document line the file already holds raw, in an earlier
//!   block, is written as an `@<hash16>` back-reference ([`LineIndex`],
//!   [`EntryRenderer`]):
//!
//! ```text
//! entry <left> <right> <config> <hash>
//! endpoints <source> -> <target>
//! path <m1> <m2> …
//! deps <m1> <m2> …
//! begin-document
//! schema __in { … }
//! schema __out { … }
//! schema __residual { … }
//! mapping __seg : __in -> __out { … }
//! end-document
//! ```
//!
//! * **Delta records** — single `delta …` lines appended by the incremental
//!   persistence path, so a long-running server's durability cost is
//!   proportional to the change rather than to the catalog
//!   ([`DeltaRecord`]): `delta schema`/`delta mapping` carry one escaped
//!   document declaration (catalog content added or edited out of the
//!   snapshot), `delta invalidate` drops cached compositions depending on a
//!   mapping, `delta evict` drops one memo entry by key (an LRU eviction or
//!   an explicit removal; an invalidation's drops are not listed), and
//!   `delta stats`
//!   adds increments onto the last absolute `stats` line. Replay applies
//!   them in file order over the snapshot ([`load_sidecar`]); compaction
//!   ([`SidecarWriter::rewrite_with_document`] with a fresh [`save_state`]
//!   rendering) folds the log back into snapshot form.
//!
//! * **Log positions** — a `generation <g> <seq>` header written by every
//!   compaction, plus an optional `(generation, seq)` position on each
//!   `delta` record (`delta <g> <seq> <kind> …`). Together they give every
//!   appended record a totally ordered [`Position`] that survives
//!   compaction: rewriting the log bumps the generation instead of silently
//!   reusing sequence numbers, so a replication subscriber resuming from a
//!   stale position is *detected* (and falls back to a snapshot) rather
//!   than replayed wrong bytes.
//!
//! Unknown or corrupted lines are skipped on load (the sidecar is only an
//! accelerator plus bookkeeping; losing an entry costs one recomposition,
//! never correctness), and a torn final line — a crash mid-append — is
//! dropped before parsing ([`strip_torn_tail`]). The complete on-disk
//! grammar, with examples that are round-tripped by
//! `tests/docs_examples.rs`, is specified in `docs/PERSISTENCE.md`.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

use mapcomp_algebra::{
    escape_field, parse_document, unescape_field, ConstraintSet, Document, Mapping, Signature,
};

use crate::cache::{CacheStats, MemoCache, MemoKey};
use crate::chain::{ChainSegment, ComposedChain};
use crate::error::CatalogError;
use crate::hash::hash_str;
use crate::lock::FileLock;
use crate::store::Catalog;

/// How long a sidecar write waits for the cross-process `.lock` file before
/// giving up. Writers hold the lock for one append or rewrite only, so a
/// live contender releases it in milliseconds; a dead holder never blocks,
/// because the kernel drops its `flock` when the process exits.
const LOCK_TIMEOUT: Duration = Duration::from_secs(5);

/// Persisted version counters and hash history for catalog entries,
/// decoupled from the content-only document format.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VersionManifest {
    /// Schema name → (version, content hash at that version).
    pub schemas: BTreeMap<String, (u64, u64)>,
    /// Mapping name → (version, hash history oldest-first).
    pub mappings: BTreeMap<String, (u64, Vec<(u64, u64)>)>,
}

impl VersionManifest {
    /// Capture the current versions and history of a catalog.
    pub fn of(catalog: &Catalog) -> Self {
        let mut manifest = VersionManifest::default();
        for entry in catalog.schemas() {
            manifest.schemas.insert(entry.name.clone(), (entry.version, entry.hash.0));
        }
        for entry in catalog.mappings() {
            let history = entry.history.iter().map(|&(v, h)| (v, h.0)).collect();
            manifest.mappings.insert(entry.name.clone(), (entry.version, history));
        }
        manifest
    }

    /// True if nothing is recorded.
    pub fn is_empty(&self) -> bool {
        self.schemas.is_empty() && self.mappings.is_empty()
    }

    /// Capture a single mapping entry (e.g. for appending one writer's
    /// update to a shared sidecar without rendering the whole catalog).
    pub fn of_mapping(entry: &crate::store::MappingEntry) -> Self {
        let mut manifest = VersionManifest::default();
        let history = entry.history.iter().map(|&(v, h)| (v, h.0)).collect();
        manifest.mappings.insert(entry.name.clone(), (entry.version, history));
        manifest
    }

    /// Capture a single schema entry (the schema-side counterpart of
    /// [`VersionManifest::of_mapping`]).
    pub fn of_schema(entry: &crate::store::SchemaEntry) -> Self {
        let mut manifest = VersionManifest::default();
        manifest.schemas.insert(entry.name.clone(), (entry.version, entry.hash.0));
        manifest
    }

    /// Absorb every entry of `other`, superseding entries with the same
    /// names (the in-memory analogue of appending `other.render()` after
    /// this manifest's lines).
    pub fn absorb(&mut self, other: VersionManifest) {
        self.schemas.extend(other.schemas);
        self.mappings.extend(other.mappings);
    }

    /// Render the manifest as sidecar `version …` lines. Loading keeps the
    /// *last* line per entry, so appending a newer rendering supersedes
    /// older ones without rewriting the file.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, (version, hash)) in &self.schemas {
            let _ = writeln!(out, "version schema {name} {version} {hash:016x}");
        }
        for (name, (version, history)) in &self.mappings {
            let rendered: Vec<String> =
                history.iter().map(|(v, h)| format!("{v}:{h:016x}")).collect();
            let _ = writeln!(out, "version mapping {name} {version} {}", rendered.join(" "));
        }
        out
    }
}

/// Render the version line of a mapping edit: `version mapping <name>
/// <version> +<v>:<hash16> …`, carrying only the `(version, hash)` pairs
/// the edit `added` to the history. On load it extends the history loaded
/// so far, so an edit costs a line of constant size however long the
/// mapping's history is. A new mapping and a snapshot use the absolute form
/// ([`VersionManifest::render`]).
pub fn render_version_extension(name: &str, version: u64, added: &[(u64, u64)]) -> String {
    let mut out = format!("version mapping {name} {version}");
    for (v, h) in added {
        let _ = write!(out, " +{v}:{h:016x}");
    }
    out.push('\n');
    out
}

/// Parse one `<v>:<hash16>` history token (a sign is not part of it).
fn parse_history_token(token: &str) -> Option<(u64, u64)> {
    let (v, h) = token.split_once(':')?;
    if v.starts_with('+') || h.starts_with('+') {
        return None;
    }
    Some((v.parse().ok()?, u64::from_str_radix(h, 16).ok()?))
}

/// Absorb the remainder of one `version …` line (everything after the
/// keyword) into a manifest; malformed lines are ignored.
fn absorb_version_line(manifest: &mut VersionManifest, rest: &str) {
    let mut parts = rest.split_whitespace();
    let (Some(kind), Some(name), Some(version)) = (parts.next(), parts.next(), parts.next()) else {
        return;
    };
    let Ok(version) = version.parse::<u64>() else { return };
    match kind {
        "schema" => {
            let Some(hash) = parts.next().and_then(|p| u64::from_str_radix(p, 16).ok()) else {
                return;
            };
            manifest.schemas.insert(name.to_string(), (version, hash));
        }
        "mapping" => {
            let tokens: Vec<&str> = parts.collect();
            // `+<v>:<hash>` tokens extend the history loaded so far (an edit,
            // [`render_version_extension`]); bare ones replace it.
            let extension = tokens.first().is_some_and(|token| token.starts_with('+'));
            let mut history = Vec::new();
            for token in tokens {
                let token = if extension { token.strip_prefix('+') } else { Some(token) };
                let Some(pair) = token.and_then(parse_history_token) else { return };
                history.push(pair);
            }
            if history.is_empty() {
                return;
            }
            match manifest.mappings.get_mut(name) {
                Some((current, loaded)) if extension => {
                    for pair in history {
                        if loaded.last().is_none_or(|&(last, _)| pair.0 > last) {
                            loaded.push(pair);
                        }
                    }
                    *current = version;
                }
                _ => {
                    manifest.mappings.insert(name.to_string(), (version, history));
                }
            }
        }
        _ => {}
    }
}

/// Render the whole sidecar: versions, statistics, memo entries.
pub fn save_state(catalog: &Catalog, cache: &MemoCache) -> String {
    let mut out = VersionManifest::of(catalog).render();
    out.push_str(&save_cache(cache));
    out
}

// ---------------------------------------------------------------------------
// Log positions
// ---------------------------------------------------------------------------

/// A totally ordered position in the sidecar delta log: the compaction
/// `generation` the record belongs to and its `seq` number within that
/// generation. Compaction folds the log into a snapshot and bumps the
/// generation (recorded by a `generation <g> <seq>` header line), so
/// positions from before a compaction are *detectably* stale — they compare
/// less than every post-compaction position and never alias a new record.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Position {
    /// Compaction generation (bumped by every snapshot rewrite).
    pub generation: u64,
    /// Record sequence number within the generation (0-based).
    pub seq: u64,
}

impl Position {
    /// The origin position: generation 0, sequence 0.
    pub const ZERO: Position = Position { generation: 0, seq: 0 };

    /// Construct a position.
    pub fn new(generation: u64, seq: u64) -> Position {
        Position { generation, seq }
    }

    /// The position immediately after this one within the same generation.
    pub fn next(self) -> Position {
        Position { generation: self.generation, seq: self.seq.saturating_add(1) }
    }
}

impl std::fmt::Display for Position {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.generation, self.seq)
    }
}

/// Render the `generation <g> <seq>` header line (with trailing newline):
/// "records after this line start at position `(generation, seq)`". Written
/// by every compaction; appended by followers when the leader's log crosses
/// a generation boundary. Loading keeps the last one.
pub fn render_generation_marker(position: Position) -> String {
    format!("generation {} {}\n", position.generation, position.seq)
}

// ---------------------------------------------------------------------------
// Delta records
// ---------------------------------------------------------------------------

/// One incremental sidecar record: a single appended line describing one
/// catalog or cache mutation, so durability for a state-changing request
/// costs I/O proportional to the change instead of a full
/// snapshot-and-rewrite. Replay ([`load_sidecar`]) applies deltas in file
/// order over the snapshot lines that precede them; compaction folds the
/// accumulated log back into snapshot form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaRecord {
    /// `delta schema <escaped-decl>` — register or update one schema. The
    /// payload is a complete `schema <name> { … }` declaration in the
    /// document grammar, escaped into one token.
    Schema {
        /// The schema declaration text.
        decl: String,
    },
    /// `delta mapping <escaped-decl>` — register or update one mapping. The
    /// payload is a complete `mapping <name> : <src> -> <tgt> { … }`
    /// declaration in the document grammar, escaped into one token.
    Mapping {
        /// The mapping declaration text.
        decl: String,
    },
    /// `delta invalidate <name>` — drop every cached composition whose
    /// provenance mentions the mapping (the persisted form of
    /// [`MemoCache::invalidate`]).
    Invalidate {
        /// The mapping name (escaped on disk).
        mapping: String,
    },
    /// `delta evict <left> <right> <config>` — drop one memo entry by its
    /// key (three 16-digit hex hashes), the persisted form of an LRU
    /// eviction.
    Evict {
        /// The memo key of the dropped entry.
        key: MemoKey,
    },
    /// `delta stats <hits> <misses> <insertions> <invalidated> <evictions>`
    /// — *increments* added onto the running totals established by the last
    /// absolute `stats` line (and any `delta stats` lines since).
    Stats(CacheStats),
    /// `delta migrate <from> <to> <update>…` — one applied batch of signed
    /// source updates (`+rel(…)`/`-rel(…)` tokens, escaped) for the live
    /// migration session keyed by its schema endpoints. Replay appends the
    /// batch onto the session's accumulated update history; compaction
    /// folds the history into one absolute `migrate` snapshot line.
    Migrate {
        /// Source schema of the migration session.
        from: String,
        /// Target schema of the migration session.
        to: String,
        /// The batch's update tokens, in application order.
        updates: Vec<String>,
    },
}

/// The keyword-and-payload body of a delta line (everything after `delta `
/// and the optional position).
fn render_delta_body(delta: &DeltaRecord) -> String {
    match delta {
        DeltaRecord::Schema { decl } => format!("schema {}", escape_field(decl)),
        DeltaRecord::Mapping { decl } => format!("mapping {}", escape_field(decl)),
        DeltaRecord::Invalidate { mapping } => {
            format!("invalidate {}", escape_field(mapping))
        }
        DeltaRecord::Evict { key: (left, right, config) } => {
            format!("evict {left:016x} {right:016x} {config:016x}")
        }
        DeltaRecord::Stats(stats) => format!(
            "stats {} {} {} {} {}",
            stats.hits, stats.misses, stats.insertions, stats.invalidated, stats.evictions
        ),
        DeltaRecord::Migrate { from, to, updates } => {
            let mut out = format!("migrate {} {}", escape_field(from), escape_field(to));
            for update in updates {
                let _ = write!(out, " {}", escape_field(update));
            }
            out
        }
    }
}

/// Render a delta record as its single sidecar line (no trailing newline),
/// without a log position — the pre-replication form, still accepted on
/// load.
pub fn render_delta(delta: &DeltaRecord) -> String {
    format!("delta {}", render_delta_body(delta))
}

/// Render a delta record with its `(generation, seq)` log position:
/// `delta <g> <seq> <kind> …` (no trailing newline). This is the form the
/// service layer appends, so every record carries a resume position for
/// replication subscribers.
pub fn render_positioned_delta(position: Position, delta: &DeltaRecord) -> String {
    format!("delta {} {} {}", position.generation, position.seq, render_delta_body(delta))
}

/// Parse one `delta …` line, positioned or not; `None` for malformed lines
/// (the loader skips them). The position is `None` for the legacy
/// `delta <kind> …` form — unambiguous because no record keyword parses as
/// a decimal number.
pub fn parse_positioned_delta(line: &str) -> Option<(Option<Position>, DeltaRecord)> {
    let rest = line.trim().strip_prefix("delta ")?;
    let (first, tail) = rest.split_once(' ')?;
    if let Ok(generation) = first.parse::<u64>() {
        let (second, tail) = tail.trim_start().split_once(' ')?;
        let seq = second.parse::<u64>().ok()?;
        return Some((Some(Position { generation, seq }), parse_delta_body(tail)?));
    }
    Some((None, parse_delta_body(rest)?))
}

/// Parse one `delta …` line into its record, discarding any position.
pub fn parse_delta(line: &str) -> Option<DeltaRecord> {
    parse_positioned_delta(line).map(|(_, delta)| delta)
}

/// Parse the keyword-and-payload body of a delta line.
fn parse_delta_body(body: &str) -> Option<DeltaRecord> {
    let (kind, rest) = body.split_once(' ')?;
    let rest = rest.trim();
    match kind {
        "schema" if !rest.contains(' ') => {
            Some(DeltaRecord::Schema { decl: unescape_field(rest)? })
        }
        "mapping" if !rest.contains(' ') => {
            Some(DeltaRecord::Mapping { decl: unescape_field(rest)? })
        }
        "invalidate" if !rest.contains(' ') => {
            Some(DeltaRecord::Invalidate { mapping: unescape_field(rest)? })
        }
        "evict" => {
            let hashes: Option<Vec<u64>> =
                rest.split_whitespace().map(|token| u64::from_str_radix(token, 16).ok()).collect();
            match hashes?.as_slice() {
                &[left, right, config] => Some(DeltaRecord::Evict { key: (left, right, config) }),
                _ => None,
            }
        }
        "stats" => {
            let numbers: Option<Vec<usize>> =
                rest.split_whitespace().map(|token| token.parse().ok()).collect();
            match numbers?.as_slice() {
                &[hits, misses, insertions, invalidated, evictions] => {
                    Some(DeltaRecord::Stats(CacheStats {
                        hits,
                        misses,
                        insertions,
                        invalidated,
                        evictions,
                    }))
                }
                _ => None,
            }
        }
        "migrate" => parse_migration_tokens(rest)
            .map(|((from, to), updates)| DeltaRecord::Migrate { from, to, updates }),
        _ => None,
    }
}

/// Parse the `<from> <to> <update>…` token tail shared by `delta migrate`
/// records and absolute `migrate` snapshot lines.
fn parse_migration_tokens(rest: &str) -> Option<((String, String), Vec<String>)> {
    let mut tokens = rest.split_whitespace();
    let from = unescape_field(tokens.next()?)?;
    let to = unescape_field(tokens.next()?)?;
    let updates: Option<Vec<String>> = tokens.map(unescape_field).collect();
    Some(((from, to), updates?))
}

/// Render the absolute snapshot form of a migration session: one
/// `migrate <from> <to> <update>…` line (no `delta ` prefix, no trailing
/// newline) carrying the full accumulated update history. On replay it
/// *replaces* the session's history, whereas `delta migrate` records
/// append — the same snapshot-vs-delta split every other sidecar record
/// obeys.
pub fn render_migration_snapshot(from: &str, to: &str, updates: &[String]) -> String {
    let mut out = format!("migrate {} {}", escape_field(from), escape_field(to));
    for update in updates {
        let _ = write!(out, " {}", escape_field(update));
    }
    out
}

/// Render a single schema declaration in the document grammar (the payload
/// of [`DeltaRecord::Schema`]).
pub fn render_schema_decl(name: &str, signature: &Signature) -> String {
    let mut out = String::new();
    write_schema(&mut out, name, signature);
    out
}

/// Render a single mapping declaration in the document grammar (the payload
/// of [`DeltaRecord::Mapping`]).
pub fn render_mapping_decl(
    name: &str,
    source: &str,
    target: &str,
    constraints: &ConstraintSet,
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "mapping {name} : {source} -> {target} {{");
    for constraint in constraints.iter() {
        let _ = writeln!(out, "    {constraint};");
    }
    let _ = writeln!(out, "}}");
    out
}

/// Everything a sidecar carries: the last-wins version manifest, the memo
/// cache with delta records replayed in file order, and the parsed
/// catalog-content deltas (to be applied over the document snapshot via
/// [`Catalog::from_document`], in order).
#[derive(Debug, Default)]
pub struct SidecarState {
    /// Persisted version counters and hash history (last line per entry
    /// wins).
    pub manifest: VersionManifest,
    /// The memo cache: `entry` blocks inserted, `delta evict` /
    /// `delta invalidate` removals applied, statistics restored from the
    /// last absolute `stats` line plus subsequent `delta stats` increments.
    pub cache: MemoCache,
    /// Parsed `delta schema` / `delta mapping` payloads, in file order.
    pub doc_deltas: Vec<Document>,
    /// Live migration sessions keyed `(from, to)`: the accumulated signed
    /// source-update history, absolute `migrate` snapshot lines replacing
    /// and `delta migrate` records appending, in file order. The service
    /// replays each history through a fresh differential chase on restart.
    pub migrations: BTreeMap<(String, String), Vec<String>>,
    /// Compaction generation from the last `generation` header line (0 when
    /// the sidecar predates generation counters or has never compacted).
    pub generation: u64,
    /// Sequence number the next appended delta record should carry: the
    /// header's seq advanced past every positioned record seen since.
    pub next_seq: u64,
    /// The document lines the file holds raw: what the next append to it
    /// may back-reference ([`LineIndex`]).
    pub lines: LineIndex,
}

impl SidecarState {
    /// The position the next appended record should carry — the resume
    /// position a replication subscriber would hand to `Subscribe`.
    pub fn next_position(&self) -> Position {
        Position { generation: self.generation, seq: self.next_seq }
    }
}

/// Restore a catalog from its persisted form: the document snapshot, then
/// the sidecar's catalog-content deltas in file order (later declarations
/// supersede earlier ones), then the last-wins version manifest. A delta
/// that no longer applies is skipped; content hashing makes any cache
/// entries it would have invalidated unreachable anyway. Only a snapshot
/// the catalog rejects is an error.
pub fn restore_catalog(document: &Document, state: &SidecarState) -> Result<Catalog, CatalogError> {
    let mut catalog = Catalog::new();
    catalog.from_document(document)?;
    for delta in &state.doc_deltas {
        let _ = catalog.from_document(delta);
    }
    catalog.restore_versions(&state.manifest);
    Ok(catalog)
}

/// Does the file end without a newline (a crash-torn final line)? An empty
/// file is not torn.
fn tail_is_torn(file: &mut std::fs::File) -> std::io::Result<bool> {
    use std::io::{Read as _, Seek as _, SeekFrom};
    if file.metadata()?.len() == 0 {
        return Ok(false);
    }
    file.seek(SeekFrom::End(-1))?;
    let mut last = [0u8; 1];
    file.read_exact(&mut last)?;
    Ok(last[0] != b'\n')
}

/// Drop a torn final line: everything after the last `\n`. Appends always
/// end with a newline, so a file whose tail lacks one was cut by a crash
/// mid-append; the torn fragment could otherwise parse as a *valid but
/// wrong* shorter line (e.g. a truncated version history).
pub fn strip_torn_tail(text: &str) -> &str {
    match text.rfind('\n') {
        Some(index) => &text[..=index],
        None => "",
    }
}

/// Parse a complete sidecar rendering — snapshot lines *and* appended delta
/// records — in one sequential pass. Malformed lines are skipped; deltas
/// whose payloads fail to parse are skipped; everything else applies in
/// file order, so later records supersede earlier ones exactly as the
/// append order on disk implies.
pub fn load_sidecar(text: &str) -> SidecarState {
    let mut state = SidecarState::default();
    let mut stats_acc: Option<CacheStats> = None;
    let mut lines = text.lines();
    // A line handed back by an abandoned entry block (see below), to be
    // re-dispatched as a top-level record before pulling the next one.
    let mut pending: Option<&str> = None;
    // Hash → text of every raw document line of a complete entry block read
    // so far: what `@<hash16>` references resolve against.
    let mut raw_lines: HashMap<u64, &str> = HashMap::new();
    while let Some(line) = pending.take().or_else(|| lines.next()) {
        let line = line.trim();
        if let Some(rest) = line.strip_prefix("version ") {
            absorb_version_line(&mut state.manifest, rest);
            continue;
        }
        if let Some(rest) = line.strip_prefix("stats ") {
            // Strict parse: any malformed token rejects the whole line
            // (skipping a corrupt token would shift the remaining numbers
            // into the wrong counters).
            let numbers: Result<Vec<usize>, _> = rest.split_whitespace().map(str::parse).collect();
            if let Ok([hits, misses, insertions, invalidated, evictions]) = numbers.as_deref() {
                stats_acc = Some(CacheStats {
                    hits: *hits,
                    misses: *misses,
                    insertions: *insertions,
                    invalidated: *invalidated,
                    evictions: *evictions,
                });
            }
            continue;
        }
        if let Some(rest) = line.strip_prefix("generation ") {
            // `generation <g> <seq>`: records after this line start at that
            // position. Last header wins (a follower appends one whenever
            // the leader's log crosses a compaction boundary).
            let mut parts = rest.split_whitespace();
            let (Some(generation), Some(seq), None) = (
                parts.next().and_then(|p| p.parse::<u64>().ok()),
                parts.next().and_then(|p| p.parse::<u64>().ok()),
                parts.next(),
            ) else {
                continue;
            };
            state.generation = generation;
            state.next_seq = seq;
            continue;
        }
        if line.starts_with("delta ") {
            let parsed = parse_positioned_delta(line);
            if let Some((Some(position), _)) = parsed {
                if position.generation > state.generation
                    || (position.generation == state.generation && position.seq >= state.next_seq)
                {
                    state.generation = position.generation;
                    state.next_seq = position.seq + 1;
                }
            }
            match parsed {
                Some((_, DeltaRecord::Schema { decl } | DeltaRecord::Mapping { decl })) => {
                    if let Ok(document) = parse_document(&decl) {
                        state.doc_deltas.push(document);
                    }
                }
                Some((_, DeltaRecord::Invalidate { mapping })) => {
                    state.cache.invalidate(&mapping);
                }
                Some((_, DeltaRecord::Evict { key })) => {
                    state.cache.remove(&key);
                }
                Some((_, DeltaRecord::Stats(delta))) => {
                    stats_acc = Some(stats_acc.unwrap_or_default().merged(delta));
                }
                Some((_, DeltaRecord::Migrate { from, to, updates })) => {
                    state.migrations.entry((from, to)).or_default().extend(updates);
                }
                None => {}
            }
            continue;
        }
        if let Some(rest) = line.strip_prefix("migrate ") {
            // Absolute snapshot line: replaces the session history (deltas
            // that follow in file order append onto it).
            if let Some((key, updates)) = parse_migration_tokens(rest) {
                state.migrations.insert(key, updates);
            }
            continue;
        }
        let Some(rest) = line.strip_prefix("entry ") else { continue };
        let Some((key, hash)) = parse_entry_header(rest) else { continue };
        let block = read_entry_block(&mut lines, &mut pending);
        if !block.complete {
            continue;
        }
        // References resolve against the raw lines of earlier complete
        // blocks only; this block's raw lines count from the next block on,
        // whether or not its own entry survives.
        let mut document_text = String::new();
        let mut resolved = true;
        let mut fresh = Vec::new();
        for line in &block.document {
            let text = match decode_document_line(line) {
                DocumentLine::Raw(text) => {
                    if text.len() > REFERENCE_LEN {
                        fresh.push((hash_str(text), text));
                    }
                    text
                }
                DocumentLine::Reference(line_hash) => match raw_lines.get(&line_hash) {
                    Some(text) => text,
                    None => {
                        resolved = false;
                        continue;
                    }
                },
                DocumentLine::Malformed => {
                    resolved = false;
                    continue;
                }
            };
            document_text.push_str(text);
            document_text.push('\n');
        }
        for (line_hash, text) in fresh {
            raw_lines.entry(line_hash).or_insert(text);
        }
        let (true, Some(endpoints)) = (resolved, block.endpoints) else { continue };
        let mut ends = endpoints.split(" -> ");
        let (Some(source), Some(target)) = (ends.next(), ends.next()) else { continue };
        let path: Vec<String> = block.path.split_whitespace().map(str::to_string).collect();
        // An absent `deps` line means the provenance is the path itself.
        let deps: BTreeSet<String> = match block.deps {
            Some(deps) => deps.split_whitespace().map(str::to_string).collect(),
            None => path.iter().cloned().collect(),
        };
        let Some((mapping, residual)) = parse_chain_document(&document_text) else { continue };
        let (source, target) = (source.to_string(), target.to_string());
        let chain = ChainSegment { source, target, path, mapping, residual, hash, deps };
        state.cache.insert(key, chain.into());
    }
    state.lines = LineIndex { hashes: raw_lines.into_keys().collect() };
    // The accumulated counters already include the insertions replayed
    // above; restoring last keeps them cumulative rather than
    // double-counted.
    if let Some(stats) = stats_acc {
        state.cache.restore_stats(stats);
    }
    state
}

/// Parse the `<left16> <right16> <config16> <chain-hash16>` header of an
/// `entry` block.
fn parse_entry_header(rest: &str) -> Option<(MemoKey, u64)> {
    let mut parts = rest.split_whitespace().map(|part| u64::from_str_radix(part, 16).ok());
    let (Some(left), Some(right), Some(config), Some(hash)) =
        (parts.next()?, parts.next()?, parts.next()?, parts.next()?)
    else {
        return None;
    };
    Some(((left, right, config), hash))
}

/// The body of one `entry` block as it stands in the file: the header
/// fields (unparsed) and the document lines (still encoded).
struct EntryBlock<'t> {
    endpoints: Option<&'t str>,
    path: &'t str,
    deps: Option<&'t str>,
    document: Vec<&'t str>,
    /// Did the block reach its `end-document`?
    complete: bool,
}

/// Read the body of an `entry` block whose header line was just consumed.
///
/// A top-level record starting mid-block means this block was torn by a
/// crash (its `end-document` never made it to disk) and later sessions
/// appended after it: the block is abandoned and the record handed back
/// through `pending`, or every acknowledged delta that follows would be
/// swallowed as block content. The bias is deliberate — a legitimate
/// embedded constraint over a relation named
/// `delta`/`version`/`stats`/`entry` can trip this and drop the one cache
/// entry (one recomposition, never a correctness loss), whereas the
/// converse mistake loses catalog edits.
fn read_entry_block<'t>(
    lines: &mut std::str::Lines<'t>,
    pending: &mut Option<&'t str>,
) -> EntryBlock<'t> {
    let mut block =
        EntryBlock { endpoints: None, path: "", deps: None, document: Vec::new(), complete: false };
    let mut in_document = false;
    for line in lines.by_ref() {
        let trimmed = line.trim();
        if starts_record(trimmed) {
            *pending = Some(line);
            break;
        }
        if trimmed == "begin-document" {
            in_document = true;
        } else if trimmed == "end-document" {
            block.complete = true;
            break;
        } else if in_document {
            block.document.push(line);
        } else if let Some(rest) = trimmed.strip_prefix("endpoints ") {
            block.endpoints = Some(rest);
        } else if let Some(rest) = trimmed.strip_prefix("path ") {
            block.path = rest;
        } else if trimmed == "deps" {
            block.deps = Some("");
        } else if let Some(rest) = trimmed.strip_prefix("deps ") {
            block.deps = Some(rest);
        }
    }
    block
}

/// Does this (trimmed) line start a top-level record, ending any entry
/// block it appears in?
fn starts_record(trimmed: &str) -> bool {
    ["entry ", "delta ", "version ", "stats ", "generation ", "migrate "]
        .iter()
        .any(|keyword| trimmed.starts_with(keyword))
}

/// Length of a back-reference line without its newline: `@` and sixteen
/// hex digits. Only document lines longer than this are ever referenced.
const REFERENCE_LEN: usize = 17;

/// One document line of an `entry` block, decoded.
enum DocumentLine<'t> {
    /// A line written out; a leading `@` of the line itself is doubled on
    /// disk.
    Raw(&'t str),
    /// `@<hash16>`: the line whose FNV-1a 64 hash this is, written raw in
    /// an earlier block of the same file.
    Reference(u64),
    /// Any other line starting with a single `@`.
    Malformed,
}

fn decode_document_line(line: &str) -> DocumentLine<'_> {
    match line.strip_prefix('@') {
        None => DocumentLine::Raw(line),
        Some(rest) if rest.starts_with('@') => DocumentLine::Raw(rest),
        Some(hex) if hex.len() == 16 && hex.bytes().all(|byte| byte.is_ascii_hexdigit()) => {
            u64::from_str_radix(hex, 16).map_or(DocumentLine::Malformed, DocumentLine::Reference)
        }
        Some(_) => DocumentLine::Malformed,
    }
}

/// The document lines one sidecar file holds *raw* — written out inside a
/// complete `entry` block — by FNV-1a 64 hash: what a later block of the
/// same file may write as an `@<hash16>` reference instead. Lines no longer
/// than a reference are never referenced and not recorded.
///
/// The index is a function of the file's bytes: [`load_sidecar`] builds it
/// while loading, and [`LineIndex::absorb_text`] extends it by the same
/// rule for text appended to the file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LineIndex {
    hashes: HashSet<u64>,
}

impl LineIndex {
    /// The index of a whole sidecar text.
    pub fn of_text(text: &str) -> LineIndex {
        let mut index = LineIndex::default();
        index.absorb_text(text);
        index
    }

    /// Record the raw document lines of every complete `entry` block in
    /// `text`, which was appended to the file this index describes.
    pub fn absorb_text(&mut self, text: &str) {
        let mut lines = text.lines();
        let mut pending = None;
        while let Some(line) = pending.take().or_else(|| lines.next()) {
            let Some(rest) = line.trim().strip_prefix("entry ") else { continue };
            if parse_entry_header(rest).is_none() {
                continue;
            }
            let block = read_entry_block(&mut lines, &mut pending);
            if !block.complete {
                continue;
            }
            for line in block.document {
                if let DocumentLine::Raw(text) = decode_document_line(line) {
                    if text.len() > REFERENCE_LEN {
                        self.hashes.insert(hash_str(text));
                    }
                }
            }
        }
    }

    /// Is the line with this hash held raw?
    pub fn contains(&self, hash: u64) -> bool {
        self.hashes.contains(&hash)
    }

    /// Number of distinct raw lines recorded.
    pub fn len(&self) -> usize {
        self.hashes.len()
    }

    /// Is nothing recorded?
    pub fn is_empty(&self) -> bool {
        self.hashes.is_empty()
    }

    /// Forget every line (the file was replaced).
    pub fn clear(&mut self) {
        self.hashes.clear();
    }
}

/// Renders `entry` blocks for one piece of a sidecar file — an appended
/// chunk or a whole snapshot. A document line longer than a reference is
/// written as `@<hash16>` when the file already holds it raw (`file`) or an
/// earlier block of this piece wrote it raw; a raw line starting with `@`
/// is written with one more. Every other line is written as it is.
///
/// Memo segments share their schemas and constraint sides by reference, so
/// the renderer remembers the hash of each line it rendered by the storage
/// it rendered it from, and writes a reference for a line rendered before
/// without rendering it again. It holds a clone of that storage until it
/// is dropped, so no address it remembers is reused.
#[derive(Debug)]
pub struct EntryRenderer<'a> {
    file: &'a LineIndex,
    written: LineIndex,
    /// Line hash by the storage the line was rendered from: `None` for a
    /// part too short to reference or spread over several lines.
    rendered: HashMap<PartSource, (Option<u64>, PartPin)>,
}

impl<'a> EntryRenderer<'a> {
    /// A renderer for text appended to a file holding the raw lines `file`
    /// (an empty index for a snapshot, which stands alone).
    pub fn new(file: &'a LineIndex) -> Self {
        EntryRenderer { file, written: LineIndex::default(), rendered: HashMap::new() }
    }

    /// Does the file, or an earlier block of this rendering, hold the line
    /// with this hash raw?
    fn holds(&self, hash: u64) -> bool {
        self.file.contains(hash) || self.written.contains(hash)
    }

    /// The raw lines the rendered blocks add to the file: what
    /// [`LineIndex::absorb_text`] would record for the rendered text.
    pub fn into_written(self) -> LineIndex {
        self.written
    }

    /// Append one memo entry's `entry` block to `out` (see
    /// [`render_cache_entry`]).
    pub fn render(&mut self, out: &mut String, key: &MemoKey, chain: &ComposedChain) {
        let (left, right, config) = key;
        let _ = writeln!(out, "entry {left:016x} {right:016x} {config:016x} {:016x}", chain.hash);
        let _ = writeln!(out, "endpoints {} -> {}", chain.source, chain.target);
        let _ = writeln!(out, "path {}", chain.path.join(" "));
        // The provenance of a composed segment is its path; only a chain
        // whose provenance differs writes it.
        let path: BTreeSet<&String> = chain.path.iter().collect();
        if !chain.deps.iter().eq(path.iter().copied()) {
            let deps: Vec<&str> = chain.deps.iter().map(String::as_str).collect();
            let _ = writeln!(out, "deps {}", deps.join(" "));
        }
        out.push_str("begin-document\n");
        let mut fresh = Vec::new();
        // A document line that reads as a record or a block delimiter makes
        // the loader cut the block short, so none of its lines is recorded.
        // (A referenced line never does: it was recorded from a block the
        // loader reads whole.)
        let mut loads_whole = true;
        let mut text = String::new();
        for part in document_parts(chain) {
            let source = part.source();
            if let Some((Some(hash), _)) = source.as_ref().and_then(|key| self.rendered.get(key)) {
                if self.holds(*hash) {
                    push_reference(out, *hash);
                    continue;
                }
            }
            text.clear();
            part.write(&mut text);
            let single = text.len() > REFERENCE_LEN + 1 && text.find('\n') == Some(text.len() - 1);
            let mut single_hash = None;
            for line in text.lines() {
                let trimmed = line.trim();
                if starts_record(trimmed)
                    || trimmed == "begin-document"
                    || trimmed == "end-document"
                {
                    loads_whole = false;
                }
                if line.len() > REFERENCE_LEN {
                    let hash = hash_str(line);
                    single_hash = Some(hash).filter(|_| single);
                    if self.holds(hash) {
                        push_reference(out, hash);
                        continue;
                    }
                    fresh.push(hash);
                }
                if line.starts_with('@') {
                    out.push('@');
                }
                out.push_str(line);
                out.push('\n');
            }
            if let Some(source) = source {
                self.rendered.entry(source).or_insert_with(|| (single_hash, part.pin()));
            }
        }
        out.push_str("end-document\n");
        // A block's raw lines can be referenced from the next block on.
        if loads_whole {
            self.written.hashes.extend(fresh);
        }
    }
}

/// Append the `@<hash16>` line referencing the line with this hash.
fn push_reference(out: &mut String, hash: u64) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('@');
    for shift in (0..16).rev() {
        out.push(char::from(HEX[(hash >> (4 * shift)) as usize & 0xf]));
    }
    out.push('\n');
}

/// One part of a chain document, in document order: the three schemas,
/// the mapping header, one part per constraint (one line, or more when a
/// string constant holds a newline) and the closing brace.
enum DocumentPart<'c> {
    Schema(&'static str, &'c Signature),
    Header,
    Constraint(&'c mapcomp_algebra::Constraint),
    Close,
}

/// The storage a document part renders from: parts with equal sources
/// render to equal text (see [`EntryRenderer`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum PartSource {
    Schema(&'static str, usize),
    Header,
    Constraint(usize, usize, mapcomp_algebra::ConstraintKind),
}

/// A clone of the storage behind a [`PartSource`], held so that its address
/// is not reused while the source is remembered.
#[derive(Debug, Default)]
struct PartPin {
    _signature: Option<Signature>,
    _sides: Option<(std::sync::Arc<mapcomp_algebra::Expr>, std::sync::Arc<mapcomp_algebra::Expr>)>,
}

impl DocumentPart<'_> {
    /// Append the part's text, with its final newline.
    fn write(&self, out: &mut String) {
        match self {
            DocumentPart::Schema(name, signature) => write_schema(out, name, signature),
            DocumentPart::Header => out.push_str("mapping __seg : __in -> __out {\n"),
            DocumentPart::Constraint(constraint) => {
                let _ = writeln!(out, "    {constraint};");
            }
            DocumentPart::Close => out.push_str("}\n"),
        }
    }

    fn source(&self) -> Option<PartSource> {
        match self {
            DocumentPart::Schema(name, signature) => {
                Some(PartSource::Schema(name, signature.storage_addr()))
            }
            DocumentPart::Header => Some(PartSource::Header),
            DocumentPart::Constraint(constraint) => Some(PartSource::Constraint(
                std::sync::Arc::as_ptr(&constraint.lhs) as usize,
                std::sync::Arc::as_ptr(&constraint.rhs) as usize,
                constraint.kind,
            )),
            DocumentPart::Close => None,
        }
    }

    fn pin(&self) -> PartPin {
        match self {
            DocumentPart::Schema(_, signature) => {
                PartPin { _signature: Some((*signature).clone()), _sides: None }
            }
            DocumentPart::Constraint(constraint) => PartPin {
                _signature: None,
                _sides: Some((constraint.lhs.clone(), constraint.rhs.clone())),
            },
            DocumentPart::Header | DocumentPart::Close => PartPin::default(),
        }
    }
}

fn document_parts(chain: &ComposedChain) -> impl Iterator<Item = DocumentPart<'_>> {
    [
        DocumentPart::Schema("__in", &chain.mapping.input),
        DocumentPart::Schema("__out", &chain.mapping.output),
        DocumentPart::Schema("__residual", &chain.residual),
        DocumentPart::Header,
    ]
    .into_iter()
    .chain(chain.mapping.constraints.iter().map(DocumentPart::Constraint))
    .chain([DocumentPart::Close])
}

/// Render a composed chain's *content* as a self-contained embeddable
/// document: the `__in`/`__out`/`__residual` schemas plus the `__seg`
/// mapping. This is the exact byte format the sidecar embeds per memo entry,
/// reused by the service layer's wire payloads so a chain composed remotely
/// renders identically to one composed in process.
pub fn render_chain_document(chain: &ComposedChain) -> String {
    let mut out = String::new();
    for part in document_parts(chain) {
        part.write(&mut out);
    }
    out
}

/// Parse a [`render_chain_document`] rendering back into the composed
/// mapping and the residual signature. Returns `None` for malformed text.
pub fn parse_chain_document(text: &str) -> Option<(Mapping, Signature)> {
    let document = parse_document(text).ok()?;
    let input = document.schema("__in").ok()?;
    let output = document.schema("__out").ok()?;
    let residual = document.schema("__residual").ok()?;
    let (_, _, constraints) = document.mappings.get("__seg")?;
    Some((Mapping::new(input.clone(), output.clone(), constraints.clone()), residual.clone()))
}

fn write_schema(out: &mut String, name: &str, sig: &Signature) {
    let _ = write!(out, "schema {name} {{ ");
    for (rel, info) in sig.iter() {
        let _ = write!(out, "{rel}/{}", info.arity);
        if let Some(key) = &info.key {
            let cols: Vec<String> = key.iter().map(usize::to_string).collect();
            let _ = write!(out, " key({})", cols.join(","));
        }
        let _ = write!(out, "; ");
    }
    let _ = writeln!(out, "}}");
}

/// Render one memo entry as its sidecar `entry` block (header, endpoints,
/// path, provenance when it is not the path, embedded document), every
/// document line raw. Appending this block inserts — or, last-wins,
/// refreshes — the entry on replay.
pub fn render_cache_entry(key: &MemoKey, chain: &ComposedChain) -> String {
    let mut out = String::new();
    EntryRenderer::new(&LineIndex::default()).render(&mut out, key, chain);
    out
}

/// Render the cache in the sidecar format. The rendering stands alone: a
/// document line is back-referenced only when an earlier entry of the same
/// rendering wrote it raw.
pub fn save_cache(cache: &MemoCache) -> String {
    let mut out = String::new();
    write_cache(&mut out, cache);
    out
}

/// Append [`save_cache`]'s rendering to `out`; returns the raw lines it
/// wrote.
pub fn write_cache(out: &mut String, cache: &MemoCache) -> LineIndex {
    let _ = writeln!(out, "// mapcomp memo cache: {} entries", cache.len());
    let stats = cache.stats();
    let _ = writeln!(
        out,
        "stats {} {} {} {} {}",
        stats.hits, stats.misses, stats.insertions, stats.invalidated, stats.evictions
    );
    // Least-recently-used first, so a capacity-bounded session restoring
    // this sidecar evicts in the same order the saving session would have.
    let nothing = LineIndex::default();
    let mut renderer = EntryRenderer::new(&nothing);
    for (key, entry) in cache.iter_lru() {
        renderer.render(out, key, &entry.chain);
    }
    renderer.into_written()
}

/// Single-writer sidecar file shared by concurrent sessions — in one
/// process and across processes.
///
/// All writes are serialised twice over: by an internal mutex (threads of
/// this process) and by a kernel advisory [`FileLock`] on the sibling
/// `<sidecar>.lock` file (other CLI invocations or servers; the kernel
/// releases a dead holder's lock). Readers never take either — they read
/// the file directly, which is safe because the file only ever changes by
/// appending whole writes ([`SidecarWriter::append`]) or by an atomic rename
/// ([`SidecarWriter::rewrite_with_document`]). The sidecar grammar is
/// last-wins per entry (later `version`/`stats`/`entry` lines supersede
/// earlier ones on load) and loaders skip malformed lines, so even a reader
/// racing an in-flight append sees a consistent prefix.
///
/// Appends accumulate; call [`SidecarWriter::rewrite_with_document`] with
/// a full snapshot rendering to compact the file.
///
/// The writer keeps the [`LineIndex`] of the file — the document lines it
/// holds raw — so that [`SidecarWriter::append_with`] can back-reference
/// them. The index is a function of the file's bytes: loading the file
/// ([`SidecarWriter::load_full`]) builds it, a successful append extends it
/// by the appended text, a rewrite replaces it by the new file's, and it is
/// cleared when another process replaced the file since this writer last
/// saw it.
#[derive(Debug)]
pub struct SidecarWriter {
    path: PathBuf,
    /// The cross-process lock and the line index, behind the mutex that
    /// serialises this process's threads (one open lock file does not
    /// exclude them).
    state: Mutex<WriterState>,
    telemetry: PersistTelemetry,
}

#[derive(Debug)]
struct WriterState {
    lock: FileLock,
    /// The raw document lines of the file as `seen` describes it.
    lines: LineIndex,
    /// The file `lines` describes; `None` before the first load or write.
    seen: Option<FileSeen>,
}

/// The sidecar file as a writer last saw it: its identity and length. The
/// file only grows in place; any other change replaces it by a rename, so
/// a new identity or a shorter length means the file was rewritten.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FileSeen {
    identity: FileIdentity,
    len: u64,
}

#[cfg(unix)]
type FileIdentity = (u64, u64, Option<std::time::SystemTime>);

impl FileSeen {
    /// `None` where the platform gives files no identity, which makes every
    /// append start from an empty line index.
    #[cfg(unix)]
    fn of(meta: &std::fs::Metadata) -> Option<FileSeen> {
        use std::os::unix::fs::MetadataExt as _;
        // The creation time tells a new file from an old one that happens to
        // reuse its inode number.
        let identity = (meta.dev(), meta.ino(), meta.created().ok());
        Some(FileSeen { identity, len: meta.len() })
    }

    #[cfg(not(unix))]
    fn of(_meta: &std::fs::Metadata) -> Option<FileSeen> {
        None
    }

    /// Is `meta` still this file, grown or not?
    fn describes(&self, meta: &std::fs::Metadata) -> bool {
        FileSeen::of(meta).is_some_and(|now| now.identity == self.identity && now.len >= self.len)
    }
}

#[cfg(not(unix))]
type FileIdentity = ();

/// Global-registry counters for sidecar durability traffic
/// (`persist_*` in `docs/OBSERVABILITY.md`).
#[derive(Debug)]
struct PersistTelemetry {
    appends: &'static mapcomp_telemetry::metrics::Counter,
    append_bytes: &'static mapcomp_telemetry::metrics::Counter,
    compactions: &'static mapcomp_telemetry::metrics::Counter,
    compaction_bytes: &'static mapcomp_telemetry::metrics::Counter,
    fsyncs: &'static mapcomp_telemetry::metrics::Counter,
}

impl PersistTelemetry {
    fn new(registry: &'static mapcomp_telemetry::metrics::MetricsRegistry) -> PersistTelemetry {
        PersistTelemetry {
            appends: registry.counter(
                "persist_appends_total",
                "Delta chunks appended to sidecar files.",
                &[],
            ),
            append_bytes: registry.counter(
                "persist_append_bytes_total",
                "Bytes appended to sidecar files (including torn-tail healing).",
                &[],
            ),
            compactions: registry.counter(
                "persist_compactions_total",
                "Atomic snapshot rewrites of sidecar/document files.",
                &[],
            ),
            compaction_bytes: registry.counter(
                "persist_compaction_bytes_total",
                "Bytes written by snapshot rewrites (documents and sidecars).",
                &[],
            ),
            fsyncs: registry.counter(
                "persist_fsyncs_total",
                "File syncs issued before atomic renames.",
                &[],
            ),
        }
    }
}

impl SidecarWriter {
    /// A writer for the sidecar at `path` (the file need not exist yet).
    pub fn new(path: impl Into<PathBuf>) -> Self {
        let path: PathBuf = path.into();
        let state = Mutex::new(WriterState {
            lock: FileLock::for_file(&path),
            lines: LineIndex::default(),
            seen: None,
        });
        let telemetry = PersistTelemetry::new(mapcomp_telemetry::metrics::global());
        SidecarWriter { path, state, telemetry }
    }

    fn state(&self) -> std::sync::MutexGuard<'_, WriterState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Count this writer's `persist_*` traffic in `registry` instead of the
    /// process global.
    pub fn with_metrics_registry(
        mut self,
        registry: &'static mapcomp_telemetry::metrics::MetricsRegistry,
    ) -> Self {
        self.telemetry = PersistTelemetry::new(registry);
        self
    }

    /// The sidecar path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Append a chunk of sidecar lines verbatim and flush (see
    /// [`SidecarWriter::append_with`]).
    pub fn append(&self, lines: &str) -> std::io::Result<()> {
        self.append_chunk(|_| (lines.to_string(), LineIndex::of_text(lines))).map(drop)
    }

    /// Render a chunk of sidecar lines and append it, under the writer
    /// mutex and the cross-process lock; returns the chunk. `render` writes
    /// the chunk's memo entries through the [`EntryRenderer`] it is handed,
    /// which back-references the lines the file holds. It runs inside the
    /// critical section, after the file's [`LineIndex`] was checked against
    /// the file on disk, so the references resolve against exactly the
    /// lines the file holds. An empty chunk writes nothing. A chunk missing
    /// its final newline gets one.
    pub fn append_with(
        &self,
        render: impl FnOnce(&mut EntryRenderer<'_>) -> String,
    ) -> std::io::Result<String> {
        self.append_chunk(|file| {
            let mut entries = EntryRenderer::new(file);
            let chunk = render(&mut entries);
            (chunk, entries.into_written())
        })
    }

    /// The append both [`SidecarWriter::append`] and
    /// [`SidecarWriter::append_with`] make: `render` returns the chunk and
    /// the raw lines it adds to the file.
    ///
    /// Concurrent appenders are serialised, so no writer's lines can be
    /// torn or lost; within one append the chunk lands contiguously. A
    /// crash-torn tail left by a previous process (a final line with no
    /// terminating newline) is *healed first* by writing the missing
    /// newline, so the fragment stays an isolated malformed line the loader
    /// skips — without this, the new chunk's first line would glue onto the
    /// fragment and be silently lost on every later load.
    fn append_chunk(
        &self,
        render: impl FnOnce(&LineIndex) -> (String, LineIndex),
    ) -> std::io::Result<String> {
        let mut state = self.state();
        let WriterState { lock, lines, seen } = &mut *state;
        let _held = lock.acquire(LOCK_TIMEOUT)?;
        let mut file =
            std::fs::OpenOptions::new().read(true).create(true).append(true).open(&self.path)?;
        let meta = file.metadata()?;
        if !seen.is_some_and(|seen| seen.describes(&meta)) {
            // Another process rewrote the file: its raw lines are unknown.
            lines.clear();
        }
        let (chunk, added) = render(lines);
        if chunk.is_empty() {
            return Ok(chunk);
        }
        let torn = tail_is_torn(&mut file)?;
        let written = if torn || !chunk.ends_with('\n') {
            let mut healed = String::with_capacity(chunk.len() + 2);
            if torn {
                healed.push('\n');
            }
            healed.push_str(&chunk);
            if !chunk.ends_with('\n') {
                healed.push('\n');
            }
            file.write_all(healed.as_bytes())?;
            healed.len()
        } else {
            file.write_all(chunk.as_bytes())?;
            chunk.len()
        };
        file.flush()?;
        lines.hashes.extend(added.hashes);
        *seen = file.metadata().ok().as_ref().and_then(FileSeen::of);
        self.telemetry.appends.incr();
        self.telemetry.append_bytes.add(written as u64);
        Ok(chunk)
    }

    /// Atomically replace both the catalog document at `document_path` and
    /// the sidecar in one critical section: the writer mutex and the
    /// cross-process lock are held across `render` *and* both tmp-write +
    /// rename pairs. Taking the state snapshot inside the critical section
    /// (the `render` closure) is what makes snapshot order equal write
    /// order — without it, a writer holding an older snapshot could clobber
    /// a newer, already-acknowledged state — and holding the lock across
    /// both renames means a concurrent writer cannot interleave (one
    /// writer's document paired with another's sidecar) and a lock-free
    /// reader never sees a truncated file. `render` returns the document,
    /// the sidecar and the sidecar's [`LineIndex`] (what
    /// [`write_cache`] returns for a rendering, or
    /// [`LineIndex::of_text`] for any text).
    pub fn rewrite_with_document(
        &self,
        document_path: &Path,
        render: impl FnOnce() -> (String, String, LineIndex),
    ) -> std::io::Result<()> {
        let mut state = self.state();
        let WriterState { lock, lines, seen } = &mut *state;
        let _held = lock.acquire(LOCK_TIMEOUT)?;
        let (document, sidecar, index) = render();
        self.rename_over(document_path, &document)?;
        let meta = self.rename_over(&self.path, &sidecar)?;
        *lines = index;
        *seen = FileSeen::of(&meta);
        self.telemetry.compactions.incr();
        self.telemetry.compaction_bytes.add((document.len() + sidecar.len()) as u64);
        Ok(())
    }

    /// Write `content` to a `.tmp` sibling of `target`, sync it to stable
    /// storage, and rename it over `target`. The sync before the rename is
    /// what makes the replacement crash-safe: without it the filesystem may
    /// persist the rename before the data, leaving an empty or truncated
    /// file after a power loss. Callers hold the writer mutex and the file
    /// lock. (Appends deliberately do *not* sync — the delta log's torn-tail
    /// handling already tolerates a lost tail, and an fsync per append would
    /// dominate the serve hot path; see fig12.)
    /// Returns the metadata of the file installed at `target`.
    fn rename_over(&self, target: &Path, content: &str) -> std::io::Result<std::fs::Metadata> {
        let mut name = target.file_name().unwrap_or_default().to_os_string();
        name.push(".tmp");
        let tmp = target.with_file_name(name);
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(content.as_bytes())?;
        file.sync_data()?;
        self.telemetry.fsyncs.incr();
        let meta = file.metadata()?;
        drop(file);
        std::fs::rename(&tmp, target)?;
        Ok(meta)
    }

    /// Read the complete sidecar state — manifest, cache, and the parsed
    /// catalog-content deltas awaiting application over the document
    /// snapshot — and adopt its [`LineIndex`] for later appends. A missing
    /// file is an empty sidecar; a torn final line (a crash mid-append) is
    /// dropped before parsing.
    pub fn load_full(&self) -> SidecarState {
        use std::io::Read as _;
        let mut writer = self.state();
        let Ok(mut file) = std::fs::File::open(&self.path) else {
            return SidecarState::default();
        };
        // The identity comes from the handle the text is read through, so
        // the index describes the very file it was built from.
        let seen = file.metadata().ok().as_ref().and_then(FileSeen::of);
        let mut text = String::new();
        if file.read_to_string(&mut text).is_err() {
            return SidecarState::default();
        }
        let state = load_sidecar(strip_torn_tail(&text));
        writer.lines = state.lines.clone();
        writer.seen = seen;
        state
    }

    /// Current size of the sidecar file in bytes (0 when missing) — the
    /// input to byte-threshold compaction decisions.
    pub fn file_len(&self) -> u64 {
        std::fs::metadata(&self.path).map_or(0, |meta| meta.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shared::SharedSession;
    use crate::store::Catalog;
    use mapcomp_algebra::parse_constraints;

    fn warm_session() -> SharedSession {
        let mut catalog = Catalog::new();
        for i in 0..4 {
            catalog.add_schema(format!("s{i}"), Signature::from_arities([(format!("R{i}"), 1)]));
        }
        for i in 0..3 {
            catalog
                .add_mapping(
                    format!("m{i}"),
                    &format!("s{i}"),
                    &format!("s{}", i + 1),
                    parse_constraints(&format!("R{i} <= R{}", i + 1)).unwrap(),
                )
                .unwrap();
        }
        let session = SharedSession::new(catalog);
        session.compose_path("s0", "s3").unwrap();
        session
    }

    /// A warm session's catalog and memo cache, as the sidecar sees them.
    fn warm_state() -> (Catalog, MemoCache) {
        let session = warm_session();
        (session.catalog().snapshot(), session.cache().collect())
    }

    #[test]
    fn cache_round_trips_through_the_sidecar_format() {
        let (_, cache) = warm_state();
        let rendered = save_cache(&cache);
        let restored = load_sidecar(&rendered).cache;
        assert_eq!(restored.len(), cache.len());
        for (key, entry) in cache.iter() {
            let loaded = restored
                .dependents(entry.chain.deps.iter().next().unwrap())
                .into_iter()
                .find(|c| c.hash == entry.chain.hash)
                .expect("entry restored");
            assert_eq!(loaded.path, entry.chain.path);
            assert_eq!(loaded.source, entry.chain.source);
            assert_eq!(
                loaded.mapping.constraints.to_string(),
                entry.chain.mapping.constraints.to_string()
            );
            assert!(restored.contains(key));
        }
    }

    #[test]
    fn restored_cache_serves_hits() {
        let session = warm_session();
        let calls_cold = session.stats().compose_calls;
        assert!(calls_cold > 0);
        let rendered = save_cache(&session.cache().collect());

        // A brand-new session over the same catalog, warmed from the sidecar.
        let mut fresh = SharedSession::new(session.catalog().snapshot());
        fresh.restore_cache(load_sidecar(&rendered).cache);
        let result = fresh.compose_path("s0", "s3").unwrap();
        assert_eq!(result.compose_calls, 0, "sidecar-restored cache must serve the chain");
    }

    #[test]
    fn malformed_entries_are_skipped() {
        let restored = load_sidecar("entry zzzz\ngarbage\nentry 1 2 3\n").cache;
        assert!(restored.is_empty());
        let restored = load_sidecar("").cache;
        assert!(restored.is_empty());
        let manifest =
            load_sidecar("version schema\nversion mapping m zz\nversion bogus x 1 2").manifest;
        assert!(manifest.is_empty());
        // A corrupt token must reject the whole stats line, not shift the
        // remaining counters into the wrong fields.
        let restored = load_sidecar("stats 10 x5 3 2 1 0\n").cache;
        assert_eq!(restored.stats(), CacheStats::default());
    }

    #[test]
    fn restored_cache_preserves_eviction_order() {
        let (_, warm) = warm_state();
        // Touch the chain's first pairwise segment so it becomes the most
        // recently used entry despite its key order.
        let hot = *warm.iter().next().unwrap().0;
        let mut cache = load_sidecar(&save_cache(&warm)).cache;
        assert!(cache.lookup(hot).is_some());
        let restored = load_sidecar(&save_cache(&cache)).cache;
        // Replaying into one entry of room must keep the most recently used.
        let mut bounded = MemoCache::with_capacity(Some(1));
        for (key, entry) in restored.iter_lru() {
            bounded.insert(*key, entry.chain.clone());
        }
        assert_eq!(bounded.len(), 1);
        assert!(bounded.contains(&hot), "restored eviction order must follow recency");
    }

    #[test]
    fn cache_stats_survive_the_sidecar() {
        let (_, cache) = warm_state();
        let before = cache.stats();
        assert!(before.insertions > 0);
        let restored = load_sidecar(&save_cache(&cache)).cache;
        assert_eq!(restored.stats(), before, "lifetime counters persist, not double-counted");
    }

    #[test]
    fn versions_and_history_round_trip_through_the_sidecar() {
        let session = warm_session();
        // Edit one mapping twice: version 3, three-entry history.
        for constraints in ["project[0](R1) <= R2", "R1 <= project[0](R2)"] {
            session.update_mapping("m1", parse_constraints(constraints).unwrap()).unwrap();
        }
        let catalog = session.catalog().snapshot();
        assert_eq!(catalog.mapping("m1").unwrap().version, 3);
        let sidecar = save_state(&catalog, &session.cache().collect());

        // Simulate a fresh CLI invocation: rebuild the catalog from its
        // content-only document, then re-apply the persisted versions.
        let document = mapcomp_algebra::parse_document(&catalog.to_document_string()).unwrap();
        let mut rebuilt = Catalog::new();
        rebuilt.from_document(&document).unwrap();
        assert_eq!(rebuilt.mapping("m1").unwrap().version, 1, "document carries content only");
        let manifest = load_sidecar(&sidecar).manifest;
        let adopted = rebuilt.restore_versions(&manifest);
        assert!(adopted >= 5);
        assert_eq!(rebuilt.mapping("m1").unwrap().version, 3);
        assert_eq!(rebuilt.mapping("m1").unwrap().history.len(), 3);
        assert_eq!(rebuilt.mapping("m0").unwrap().version, 1);
        assert_eq!(rebuilt.schema("s0").unwrap().version, 1);
        assert_eq!(rebuilt.mapping("m1").unwrap().hash, catalog.mapping("m1").unwrap().hash);

        // 200 further edits, each persisted as the history it added: every
        // record carries one pair, so its size does not grow with the
        // history, and replaying them restores the whole history.
        let mut log = sidecar;
        let mut sizes = BTreeSet::new();
        for edit in 0..200 {
            let constraints = format!("select[#0 = {edit}](R1) <= R2");
            session.update_mapping("m1", parse_constraints(&constraints).unwrap()).unwrap();
            let entry = session.catalog().mapping("m1").unwrap();
            let &(version, hash) = entry.history.last().unwrap();
            let line = render_version_extension("m1", entry.version, &[(version, hash.0)]);
            // Only the version's digits move the size.
            sizes.insert(line.len() - 2 * entry.version.to_string().len());
            log.push_str(&line);
        }
        assert_eq!(sizes.len(), 1, "a version record's size must not grow with history");
        let live = session.catalog().snapshot();
        let manifest = load_sidecar(&log).manifest;
        assert_eq!(manifest, VersionManifest::of(&live), "extensions rebuild the manifest");
        let document = mapcomp_algebra::parse_document(&live.to_document_string()).unwrap();
        let mut restarted = Catalog::new();
        restarted.from_document(&document).unwrap();
        restarted.restore_versions(&manifest);
        let restored = restarted.mapping("m1").unwrap();
        assert_eq!(restored.version, 203);
        assert_eq!(restored.history, live.mapping("m1").unwrap().history);
        // The next snapshot folds the history back into one absolute line.
        assert_eq!(VersionManifest::of(&restarted).render(), VersionManifest::of(&live).render());
    }

    #[test]
    fn version_extensions_skip_pairs_already_loaded_and_reject_mixed_forms() {
        let base = "version mapping m 2 1:00000000000000aa 2:00000000000000bb\n";
        // A pair the history already holds is not duplicated.
        let text = format!("{base}version mapping m 3 +2:00000000000000bb +3:00000000000000cc\n");
        let manifest = load_sidecar(&text).manifest;
        assert_eq!(manifest.mappings["m"], (3, vec![(1, 0xaa), (2, 0xbb), (3, 0xcc)]));
        // An extension with nothing loaded before it starts the history.
        let manifest = load_sidecar("version mapping n 4 +4:00000000000000dd\n").manifest;
        assert_eq!(manifest.mappings["n"], (4, vec![(4, 0xdd)]));
        // Mixed or signed tokens make the line malformed: it is skipped.
        for bad in [
            "version mapping m 3 +3:00000000000000cc 4:00000000000000dd\n",
            "version mapping m 3 2:00000000000000bb +3:00000000000000cc\n",
            "version mapping m 3 ++3:00000000000000cc\n",
        ] {
            let manifest = load_sidecar(&format!("{base}{bad}")).manifest;
            assert_eq!(manifest.mappings["m"], (2, vec![(1, 0xaa), (2, 0xbb)]), "{bad}");
        }
    }

    /// A segment over `path` whose composed constraints are `constraints`.
    fn segment(path: &[&str], constraints: &str, hash: u64) -> ComposedChain {
        segment_with_deps(path, path, constraints, hash)
    }

    /// [`segment`] with a provenance of its own.
    fn segment_with_deps(
        path: &[&str],
        deps: &[&str],
        constraints: &str,
        hash: u64,
    ) -> ComposedChain {
        let signature = |rel: &str| Signature::from_arities([(rel.to_string(), 1)]);
        let mapping = Mapping::new(
            signature("S"),
            signature("T"),
            mapcomp_algebra::parse_constraints(constraints).unwrap(),
        );
        ChainSegment {
            source: "a".into(),
            target: "b".into(),
            path: path.iter().map(ToString::to_string).collect(),
            mapping,
            residual: Signature::default(),
            hash,
            deps: deps.iter().map(ToString::to_string).collect(),
        }
        .into()
    }

    /// Every entry's key and embedded document, in key order.
    fn documents(cache: &MemoCache) -> Vec<(MemoKey, String)> {
        cache.iter().map(|(key, entry)| (*key, render_chain_document(&entry.chain))).collect()
    }

    /// A cache whose entries share most of their document lines, as
    /// neighbouring segments of an edited chain do.
    fn overlapping_cache() -> MemoCache {
        let mut cache = MemoCache::new();
        let shared = "select[#0 = 'shared constant one'](S) <= T; S <= select[#0 = 'two'](T)";
        for i in 0..4u64 {
            let constraints = format!("{shared}; select[#0 = {i}](S) <= T");
            cache.insert((i, 0, 0), segment(&["m0", "m1"], &constraints, i));
        }
        cache
    }

    #[test]
    fn snapshots_back_reference_lines_written_earlier_and_load_them_back() {
        let cache = overlapping_cache();
        let rendered = save_cache(&cache);
        let raw: String =
            cache.iter_lru().map(|(key, e)| render_cache_entry(key, &e.chain)).collect();
        assert!(rendered.len() < raw.len(), "back-references must shrink the snapshot");
        let references = rendered.lines().filter(|line| line.starts_with('@')).count();
        // The three schema lines, the `mapping __seg` line and both shared
        // constraints recur in each of the three later entries; the closing
        // brace is shorter than a reference.
        assert_eq!(references, 3 * 6, "{rendered}");
        assert!(!rendered.contains("\ndeps "), "deps equal to the path are derived: {rendered}");
        let state = load_sidecar(&rendered);
        assert_eq!(documents(&state.cache), documents(&cache));
        assert_eq!(
            state.cache.iter().next().unwrap().1.chain.deps,
            cache.iter().next().unwrap().1.chain.deps
        );
        // The loader's index is the renderer's: the distinct long raw lines.
        assert_eq!(state.lines, LineIndex::of_text(&rendered));
        assert_eq!(state.lines.len(), 6 + 4);
        // Re-rendering the loaded cache reproduces the snapshot.
        assert_eq!(save_cache(&state.cache), rendered);
    }

    #[test]
    fn storage_shared_between_entries_changes_no_byte() {
        // Entries sharing schemas and constraint sides by reference, as
        // composed segments do, including a constraint spread over two
        // lines and one repeated inside a single document.
        let two_lines = "select[#0 = 'a long constant\nspread over two lines'](S) <= T";
        let shared = segment(&["m0", "m1"], &format!("{two_lines}; S <= select[#0 = 'x'](T)"), 0);
        let mut cache = MemoCache::new();
        for i in 0..4u64 {
            let mut constraints = shared.mapping.constraints.clone();
            constraints
                .push(shared.mapping.constraints.iter().nth(i as usize % 2).unwrap().clone());
            let chain = ChainSegment {
                source: "a".into(),
                target: "b".into(),
                path: vec!["m0".into(), "m1".into()],
                mapping: Mapping::new(
                    shared.mapping.input.clone(),
                    shared.mapping.output.clone(),
                    constraints,
                ),
                residual: shared.residual.clone(),
                hash: i,
                deps: shared.deps.clone(),
            };
            cache.insert((i, 0, 0), chain.into());
        }
        let rendered = save_cache(&cache);
        assert!(rendered.lines().filter(|line| line.starts_with('@')).count() > 12, "{rendered}");
        // Loaded entries share nothing; they must render the same bytes.
        let loaded = load_sidecar(&rendered).cache;
        assert_eq!(documents(&loaded), documents(&cache));
        assert_eq!(save_cache(&loaded), rendered);
    }

    #[test]
    fn appended_entries_reference_the_lines_the_file_holds() {
        let cache = overlapping_cache();
        let snapshot = save_cache(&cache);
        let index = LineIndex::of_text(&snapshot);
        let mut chunk = String::new();
        let fresh = segment(&["m0", "m1"], "select[#0 = 'shared constant one'](S) <= T", 9);
        let mut renderer = EntryRenderer::new(&index);
        renderer.render(&mut chunk, &(9, 0, 0), &fresh);
        assert!(chunk.lines().any(|line| line.starts_with('@')), "{chunk}");
        // The renderer reports the raw lines it added, as a scan would.
        assert_eq!(renderer.into_written(), LineIndex::of_text(&chunk));
        assert_eq!(write_cache(&mut String::new(), &cache), index);
        let state = load_sidecar(&format!("{snapshot}{chunk}"));
        assert_eq!(
            render_chain_document(&state.cache.peek(&(9, 0, 0)).unwrap().clone()),
            render_chain_document(&fresh)
        );
        // Alone, the chunk's reference resolves to nothing: its entry is
        // dropped whole.
        assert!(load_sidecar(&chunk).cache.is_empty());
    }

    #[test]
    fn unresolvable_references_drop_their_entry_whole_and_never_resolve_to_another_line() {
        let cache = overlapping_cache();
        let snapshot = save_cache(&cache);
        let entries = |text: &str| load_sidecar(text).cache.len();
        let block = |key: u64, line: &str| {
            format!(
                "entry {key:016x} 0000000000000000 0000000000000000 0000000000000001\n\
                 endpoints a -> b\npath m0 m1\nbegin-document\nschema __in {{ S/1; }}\n\
                 schema __out {{ T/1; }}\nschema __residual {{ }}\n\
                 mapping __seg : __in -> __out {{\n{line}\n}}\nend-document\n"
            )
        };
        // A raw copy of the block loads.
        let constraint = "    select[#0 = 'shared constant one'](S) <= T;";
        assert_eq!(entries(&format!("{snapshot}{}", block(99, constraint))), 5);
        // A reference to a line the file never held raw, one to a line only
        // a *later* block holds, and a malformed `@` line each drop just
        // their entry.
        let absent = hash_str("    select[#0 = 'never written anywhere'](S) <= T;");
        let later = hash_str("    select[#0 = 'first written below'](S) <= T;");
        let text = format!(
            "{snapshot}{}{}{}{}",
            block(100, &format!("@{absent:016x}")),
            block(101, &format!("@{later:016x}")),
            block(102, "    select[#0 = 'first written below'](S) <= T;"),
            block(103, "@not-a-reference"),
        );
        let state = load_sidecar(&text);
        assert_eq!(state.cache.len(), 5);
        assert!(state.cache.contains(&(102, 0, 0)));
        for dropped in [100, 101, 103] {
            assert!(!state.cache.contains(&(dropped, 0, 0)), "entry {dropped} must be dropped");
        }
        // The surviving entries are exactly the ones written.
        let survivors: Vec<_> =
            documents(&state.cache).into_iter().filter(|(key, _)| key.0 < 100).collect();
        assert_eq!(survivors, documents(&cache));
    }

    #[test]
    fn a_block_the_loader_cuts_short_lends_no_lines() {
        // A relation named `delta` starts a document line the loader reads
        // as a record: it abandons that block, so a later block must not
        // reference the block's lines.
        let signature =
            |rels: &[&str]| Signature::from_arities(rels.iter().map(|rel| (rel.to_string(), 1)));
        let mapping = |constraints: &str| {
            Mapping::new(
                signature(&["S", "delta"]),
                signature(&["T"]),
                mapcomp_algebra::parse_constraints(constraints).unwrap(),
            )
        };
        let shared = "select[#0 = 'a shared long constant'](S) <= T";
        let mut cache = MemoCache::new();
        for (i, constraints) in
            [format!("delta <= T; {shared}"), shared.to_string()].iter().enumerate()
        {
            let chain = ChainSegment {
                source: "a".into(),
                target: "b".into(),
                path: vec!["m".into()],
                mapping: mapping(constraints),
                residual: Signature::default(),
                hash: i as u64,
                deps: ["m".to_string()].into(),
            };
            cache.insert((i as u64, 0, 0), chain.into());
        }
        let rendered = save_cache(&cache);
        assert_eq!(rendered.lines().filter(|line| line.starts_with('@')).count(), 0, "{rendered}");
        let state = load_sidecar(&rendered);
        assert!(!state.cache.contains(&(0, 0, 0)), "the cut-short block is dropped");
        assert!(state.cache.contains(&(1, 0, 0)), "the later block stands alone");
        let mut written = String::new();
        assert_eq!(write_cache(&mut written, &cache), state.lines);
    }

    #[test]
    fn raw_lines_starting_with_an_at_sign_round_trip() {
        // A string constant may hold a newline, so a document line can start
        // with `@` — even look exactly like a reference.
        let mut cache = MemoCache::new();
        for (i, constant) in
            ["x\n@0123456789abcdef", "y\n@0123456789abcdef\nz", "\n@@"].into_iter().enumerate()
        {
            let constraints = format!("select[#0 = '{constant}'](S) <= T");
            cache.insert((i as u64, 0, 0), segment(&["m"], &constraints, i as u64));
        }
        let rendered = save_cache(&cache);
        assert!(rendered.lines().any(|line| line == "@@0123456789abcdef"), "{rendered}");
        assert!(rendered.lines().any(|line| line == "@@@'](S) <= T;"), "{rendered}");
        let state = load_sidecar(&rendered);
        assert_eq!(documents(&state.cache), documents(&cache));
        assert_eq!(save_cache(&state.cache), rendered);
    }

    #[test]
    fn deps_are_written_only_when_they_differ_from_the_path() {
        let chain = segment(&["m0", "m1"], "S <= T", 1);
        let derived = render_cache_entry(&(1, 0, 0), &chain);
        assert!(!derived.contains("deps"), "{derived}");
        let loaded = load_sidecar(&derived).cache;
        assert_eq!(loaded.peek(&(1, 0, 0)).unwrap().deps, chain.deps);
        // A provenance that is not the path keeps its line, even when empty.
        for deps in [&["m0", "m1", "m9"][..], &[]] {
            let chain = segment_with_deps(&["m0", "m1"], deps, "S <= T", 1);
            let rendered = render_cache_entry(&(1, 0, 0), &chain);
            assert!(rendered.contains("\ndeps"), "{rendered}");
            assert_eq!(load_sidecar(&rendered).cache.peek(&(1, 0, 0)).unwrap().deps, chain.deps);
        }
    }

    fn temp_sidecar(tag: &str) -> std::path::PathBuf {
        let path =
            std::env::temp_dir().join(format!("mapcomp_persist_{}_{tag}.memo", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn appended_version_lines_supersede_earlier_ones() {
        let session = warm_session();
        let writer = SidecarWriter::new(temp_sidecar("append"));
        writer.append(&VersionManifest::of(&session.catalog().snapshot()).render()).unwrap();
        session.update_mapping("m1", parse_constraints("project[0](R1) <= R2").unwrap()).unwrap();
        let entry = session.catalog().mapping("m1").unwrap();
        writer.append(&VersionManifest::of_mapping(&entry).render()).unwrap();
        let manifest = writer.load_full().manifest;
        assert_eq!(manifest.mappings["m1"].0, 2, "last appended line wins");
        assert_eq!(manifest.mappings["m0"].0, 1, "earlier entries survive the append");
        let _ = std::fs::remove_file(writer.path());
    }

    #[test]
    fn concurrent_appends_lose_no_updates() {
        let writer = SidecarWriter::new(temp_sidecar("race"));
        let (catalog, _) = warm_state();
        std::thread::scope(|scope| {
            for worker in 0..4u64 {
                let writer = &writer;
                let catalog = &catalog;
                scope.spawn(move || {
                    for round in 1..=5u64 {
                        let mut entry = catalog.mapping("m1").unwrap().clone();
                        entry.name = format!("w{worker}");
                        entry.version = round;
                        writer.append(&VersionManifest::of_mapping(&entry).render()).unwrap();
                    }
                });
            }
        });
        let manifest = writer.load_full().manifest;
        for worker in 0..4u64 {
            let (version, _) = &manifest.mappings[&format!("w{worker}")];
            assert_eq!(*version, 5, "worker {worker}'s final append must not be lost");
        }
        let _ = std::fs::remove_file(writer.path());
    }

    #[test]
    fn sidecar_writes_ignore_leftover_lock_files() {
        let writer = SidecarWriter::new(temp_sidecar("leftoverlock"));
        let lock_path = FileLock::for_file(writer.path()).path().to_path_buf();
        // An older build's crashed holder left its PID line behind; the
        // kernel lock on the file is free, so the append goes straight in.
        std::fs::write(&lock_path, "pid 999999999\n").unwrap();
        writer.append("version mapping m 1 1:00000000000000aa\n").unwrap();
        let manifest = writer.load_full().manifest;
        assert_eq!(manifest.mappings["m"].0, 1);
        let _ = std::fs::remove_file(writer.path());
        let _ = std::fs::remove_file(lock_path);
    }

    #[test]
    fn two_writers_on_one_sidecar_exclude_each_other() {
        let path = temp_sidecar("twowriters");
        let (first, second) = (SidecarWriter::new(&path), SidecarWriter::new(&path));
        let try_second = || second.state().lock.try_acquire().unwrap().is_some();
        let mut first_state = first.state();
        let held = first_state.lock.acquire(LOCK_TIMEOUT).unwrap();
        assert!(!try_second(), "a second writer must not lock while the first holds the sidecar");
        drop(held);
        assert!(try_second(), "the first writer's release frees the sidecar");
        let _ = std::fs::remove_file(FileLock::for_file(&path).path());
    }

    #[test]
    fn rewrite_compacts_appended_state() {
        let (catalog, warm) = warm_state();
        let writer = SidecarWriter::new(temp_sidecar("compact"));
        for _ in 0..3 {
            writer.append(&save_state(&catalog, &warm)).unwrap();
        }
        let appended_len = std::fs::read_to_string(writer.path()).unwrap().len();
        let document = writer.path().with_extension("doc");
        writer
            .rewrite_with_document(&document, || {
                let sidecar = save_state(&catalog, &warm);
                let lines = LineIndex::of_text(&sidecar);
                (catalog.to_document_string(), sidecar, lines)
            })
            .unwrap();
        let compacted = std::fs::read_to_string(writer.path()).unwrap();
        assert!(compacted.len() < appended_len, "rewrite must compact the sidecar");
        assert_eq!(std::fs::read_to_string(&document).unwrap(), catalog.to_document_string());
        let SidecarState { manifest, cache, .. } = writer.load_full();
        assert!(!manifest.is_empty());
        assert_eq!(cache.len(), warm.len());
        assert_eq!(cache.stats(), warm.stats());
        let _ = std::fs::remove_file(writer.path());
        let _ = std::fs::remove_file(document);
    }

    #[test]
    fn positioned_deltas_round_trip_with_and_without_positions() {
        let delta = DeltaRecord::Invalidate { mapping: "m one".to_string() };
        let legacy = render_delta(&delta);
        assert_eq!(parse_positioned_delta(&legacy), Some((None, delta.clone())));
        let position = Position::new(3, 41);
        let positioned = render_positioned_delta(position, &delta);
        assert_eq!(positioned, "delta 3 41 invalidate m%20one");
        assert_eq!(parse_positioned_delta(&positioned), Some((Some(position), delta.clone())));
        assert_eq!(parse_delta(&positioned), Some(delta));
        // Every record kind carries a position the same way.
        for record in [
            DeltaRecord::Schema { decl: "schema s { R/1; }".to_string() },
            DeltaRecord::Mapping { decl: "mapping m : a -> b { R <= S; }".to_string() },
            DeltaRecord::Evict { key: (1, 2, 3) },
            DeltaRecord::Stats(CacheStats { hits: 1, ..CacheStats::default() }),
        ] {
            let line = render_positioned_delta(position, &record);
            assert_eq!(parse_positioned_delta(&line), Some((Some(position), record)));
        }
    }

    #[test]
    fn generation_header_and_positions_drive_the_resume_position() {
        // No header, no positions: origin.
        assert_eq!(load_sidecar("").next_position(), Position::ZERO);
        // A header alone sets the resume position.
        let text = render_generation_marker(Position::new(4, 0));
        assert_eq!(load_sidecar(&text).next_position(), Position::new(4, 0));
        // Positioned records advance it past the header.
        let mut text = render_generation_marker(Position::new(4, 0));
        for seq in 0..3 {
            let delta = DeltaRecord::Invalidate { mapping: format!("m{seq}") };
            text.push_str(&render_positioned_delta(Position::new(4, seq), &delta));
            text.push('\n');
        }
        let state = load_sidecar(&text);
        assert_eq!(state.next_position(), Position::new(4, 3));
        // A later header (generation boundary) supersedes earlier positions.
        text.push_str(&render_generation_marker(Position::new(5, 0)));
        assert_eq!(load_sidecar(&text).next_position(), Position::new(5, 0));
        // Positions order generation-first.
        assert!(Position::new(4, 9) < Position::new(5, 0));
        assert_eq!(Position::new(4, 1).next(), Position::new(4, 2));
    }

    #[test]
    fn positioned_deltas_apply_like_legacy_ones() {
        let (_, cache) = warm_state();
        let mut legacy = save_cache(&cache);
        let mut positioned = legacy.clone();
        let key = *cache.iter().next().unwrap().0;
        let evict = DeltaRecord::Evict { key };
        legacy.push_str(&render_delta(&evict));
        legacy.push('\n');
        positioned.push_str(&render_positioned_delta(Position::new(1, 0), &evict));
        positioned.push('\n');
        let legacy_state = load_sidecar(&legacy);
        let positioned_state = load_sidecar(&positioned);
        assert!(!legacy_state.cache.contains(&key));
        assert!(!positioned_state.cache.contains(&key));
        assert_eq!(legacy_state.cache.len(), positioned_state.cache.len());
        assert_eq!(legacy_state.next_position(), Position::ZERO);
        assert_eq!(positioned_state.next_position(), Position::new(1, 1));
    }

    #[test]
    fn out_of_session_edits_advance_the_restored_version() {
        let (catalog, cache) = warm_state();
        let sidecar = save_state(&catalog, &cache);
        // The document is edited by hand between invocations: m1 has new
        // content, so its recorded hash no longer matches.
        let mut rebuilt = catalog;
        rebuilt.update_mapping("m1", parse_constraints("project[0](R1) <= R2").unwrap()).unwrap();
        let document = mapcomp_algebra::parse_document(&rebuilt.to_document_string()).unwrap();
        let mut fresh = Catalog::new();
        fresh.from_document(&document).unwrap();
        let manifest = load_sidecar(&sidecar).manifest;
        fresh.restore_versions(&manifest);
        // Recorded version 1 + one out-of-session edit = version 2, with the
        // new hash appended to the history.
        let entry = fresh.mapping("m1").unwrap();
        assert_eq!(entry.version, 2);
        assert_eq!(entry.history.len(), 2);
        assert_eq!(entry.history.last().unwrap().1, entry.hash);
    }
}
