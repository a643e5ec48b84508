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
//!   the counter when the on-disk content was edited out of session).
//! * **Statistics** — one `stats …` line with the cumulative
//!   [`crate::cache::CacheStats`] counters (hits, misses, insertions,
//!   invalidations, evictions).
//! * **Memo entries** — a small header (the memo key, the segment hash,
//!   endpoints, path, provenance) followed by an embedded document holding
//!   the composed mapping and the residual signature:
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
//!   mapping, `delta evict` drops one memo entry by key, and `delta stats`
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

use std::collections::{BTreeMap, BTreeSet};
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
            let mut history = Vec::new();
            for part in parts {
                let Some((v, h)) = part.split_once(':') else { return };
                let (Ok(v), Ok(h)) = (v.parse::<u64>(), u64::from_str_radix(h, 16)) else {
                    return;
                };
                history.push((v, h));
            }
            if !history.is_empty() {
                manifest.mappings.insert(name.to_string(), (version, history));
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
        let mut key_parts = rest.split_whitespace();
        let (Some(left), Some(right), Some(config), Some(hash)) = (
            key_parts.next().and_then(|p| u64::from_str_radix(p, 16).ok()),
            key_parts.next().and_then(|p| u64::from_str_radix(p, 16).ok()),
            key_parts.next().and_then(|p| u64::from_str_radix(p, 16).ok()),
            key_parts.next().and_then(|p| u64::from_str_radix(p, 16).ok()),
        ) else {
            continue;
        };

        let mut source = None;
        let mut target = None;
        let mut path: Vec<String> = Vec::new();
        let mut deps: BTreeSet<String> = BTreeSet::new();
        let mut document_text = String::new();
        let mut in_document = false;
        let mut complete = false;
        for line in lines.by_ref() {
            let trimmed = line.trim();
            // A top-level record starting mid-block means this block was
            // torn by a crash (its `end-document` never made it to disk)
            // and later sessions appended after it: abandon the block and
            // re-dispatch the record, or every acknowledged delta that
            // follows would be swallowed as block content. The bias is
            // deliberate — a legitimate embedded constraint over a
            // relation named `delta`/`version`/`stats`/`entry` can trip
            // this and drop the one cache entry (one recomposition, never
            // a correctness loss), whereas the converse mistake loses
            // catalog edits.
            if trimmed.starts_with("entry ")
                || trimmed.starts_with("delta ")
                || trimmed.starts_with("version ")
                || trimmed.starts_with("stats ")
                || trimmed.starts_with("generation ")
                || trimmed.starts_with("migrate ")
            {
                pending = Some(line);
                break;
            }
            if trimmed == "begin-document" {
                in_document = true;
            } else if trimmed == "end-document" {
                complete = true;
                break;
            } else if in_document {
                document_text.push_str(line);
                document_text.push('\n');
            } else if let Some(rest) = trimmed.strip_prefix("endpoints ") {
                let mut ends = rest.split(" -> ");
                source = ends.next().map(str::to_string);
                target = ends.next().map(str::to_string);
            } else if let Some(rest) = trimmed.strip_prefix("path ") {
                path = rest.split_whitespace().map(str::to_string).collect();
            } else if let Some(rest) = trimmed.strip_prefix("deps ") {
                deps = rest.split_whitespace().map(str::to_string).collect();
            }
        }
        let (Some(source), Some(target)) = (source, target) else { continue };
        if !complete {
            continue;
        }
        let Some((mapping, residual)) = parse_chain_document(&document_text) else { continue };
        let chain = ChainSegment { source, target, path, mapping, residual, hash, deps };
        state.cache.insert((left, right, config), chain.into());
    }
    // The accumulated counters already include the insertions replayed
    // above; restoring last keeps them cumulative rather than
    // double-counted.
    if let Some(stats) = stats_acc {
        state.cache.restore_stats(stats);
    }
    state
}

/// Render a composed chain's *content* as a self-contained embeddable
/// document: the `__in`/`__out`/`__residual` schemas plus the `__seg`
/// mapping. This is the exact byte format the sidecar embeds per memo entry,
/// reused by the service layer's wire payloads so a chain composed remotely
/// renders identically to one composed in process.
pub fn render_chain_document(chain: &ComposedChain) -> String {
    let mut out = String::new();
    write_schema(&mut out, "__in", &chain.mapping.input);
    write_schema(&mut out, "__out", &chain.mapping.output);
    write_schema(&mut out, "__residual", &chain.residual);
    let _ = writeln!(out, "mapping __seg : __in -> __out {{");
    for constraint in chain.mapping.constraints.iter() {
        let _ = writeln!(out, "    {constraint};");
    }
    let _ = writeln!(out, "}}");
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
/// path, provenance, embedded document). Appending this block inserts —
/// or, last-wins, refreshes — the entry on replay.
pub fn render_cache_entry(key: &MemoKey, chain: &ComposedChain) -> String {
    let (left, right, config) = key;
    let mut out = String::new();
    let _ = writeln!(out, "entry {left:016x} {right:016x} {config:016x} {:016x}", chain.hash);
    let _ = writeln!(out, "endpoints {} -> {}", chain.source, chain.target);
    let _ = writeln!(out, "path {}", chain.path.join(" "));
    let deps: Vec<&str> = chain.deps.iter().map(String::as_str).collect();
    let _ = writeln!(out, "deps {}", deps.join(" "));
    let _ = writeln!(out, "begin-document");
    out.push_str(&render_chain_document(chain));
    let _ = writeln!(out, "end-document");
    out
}

/// Render the cache in the sidecar format.
pub fn save_cache(cache: &MemoCache) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "// mapcomp memo cache: {} entries", cache.len());
    let stats = cache.stats();
    let _ = writeln!(
        out,
        "stats {} {} {} {} {}",
        stats.hits, stats.misses, stats.insertions, stats.invalidated, stats.evictions
    );
    // Least-recently-used first, so a capacity-bounded session restoring
    // this sidecar evicts in the same order the saving session would have.
    for (key, entry) in cache.iter_lru() {
        out.push_str(&render_cache_entry(key, &entry.chain));
    }
    out
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
#[derive(Debug)]
pub struct SidecarWriter {
    path: PathBuf,
    /// The cross-process lock, behind the mutex that serialises this
    /// process's threads (one open lock file does not exclude them).
    lock: Mutex<FileLock>,
    telemetry: PersistTelemetry,
}

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
        let lock = Mutex::new(FileLock::for_file(&path));
        let telemetry = PersistTelemetry::new(mapcomp_telemetry::metrics::global());
        SidecarWriter { path, lock, telemetry }
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

    /// Append a chunk of sidecar lines and flush, under the writer mutex and
    /// the cross-process lock. Concurrent appenders are serialised, so
    /// no writer's lines can be torn or lost; within one append the chunk
    /// lands contiguously. A crash-torn tail left by a previous process (a
    /// final line with no terminating newline) is *healed first* by writing
    /// the missing newline, so the fragment stays an isolated malformed
    /// line the loader skips — without this, the new chunk's first line
    /// would glue onto the fragment and be silently lost on every later
    /// load.
    pub fn append(&self, lines: &str) -> std::io::Result<()> {
        let mut lock = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
        let _held = lock.acquire(LOCK_TIMEOUT)?;
        let mut file =
            std::fs::OpenOptions::new().read(true).create(true).append(true).open(&self.path)?;
        let mut chunk = lines.to_string();
        if !chunk.ends_with('\n') {
            chunk.push('\n');
        }
        if tail_is_torn(&mut file)? {
            chunk.insert(0, '\n');
        }
        file.write_all(chunk.as_bytes())?;
        file.flush()?;
        self.telemetry.appends.incr();
        self.telemetry.append_bytes.add(chunk.len() as u64);
        Ok(())
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
    /// reader never sees a truncated file.
    pub fn rewrite_with_document(
        &self,
        document_path: &Path,
        render: impl FnOnce() -> (String, String),
    ) -> std::io::Result<()> {
        let mut lock = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
        let _held = lock.acquire(LOCK_TIMEOUT)?;
        let (document, sidecar) = render();
        self.rename_over(document_path, &document)?;
        self.rename_over(&self.path, &sidecar)?;
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
    fn rename_over(&self, target: &Path, content: &str) -> std::io::Result<()> {
        let mut name = target.file_name().unwrap_or_default().to_os_string();
        name.push(".tmp");
        let tmp = target.with_file_name(name);
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(content.as_bytes())?;
        file.sync_data()?;
        self.telemetry.fsyncs.incr();
        drop(file);
        std::fs::rename(&tmp, target)
    }

    /// Read the complete sidecar state — manifest, cache, and the parsed
    /// catalog-content deltas awaiting application over the document
    /// snapshot. A missing file is an empty sidecar; a torn final line (a
    /// crash mid-append) is dropped before parsing.
    pub fn load_full(&self) -> SidecarState {
        match std::fs::read_to_string(&self.path) {
            Ok(text) => load_sidecar(strip_torn_tail(&text)),
            Err(_) => SidecarState::default(),
        }
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
        let try_second = || second.lock.lock().unwrap().try_acquire().unwrap().is_some();
        let mut first_lock = first.lock.lock().unwrap();
        let held = first_lock.acquire(LOCK_TIMEOUT).unwrap();
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
                (catalog.to_document_string(), save_state(&catalog, &warm))
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
