//! Concurrent shared-catalog sessions: a lock-striped store and a parallel
//! batch-composition session, safe to share by reference across threads.
//!
//! # Concurrency model
//!
//! * **Store** — [`SharedCatalog`] stripes schemas and mappings across N
//!   shards keyed by the FNV content hash of the entry name, each behind a
//!   [`RwLock`]. Lookups and chain materialisation take single-shard *read*
//!   locks, so the compose read path never serialises readers. Mapping
//!   registration write-locks only the shards involved (acquired in
//!   ascending shard order — the global lock discipline that makes deadlock
//!   impossible); schema updates write-lock every shard because they rehash
//!   the mappings that mention the schema, wherever those live.
//! * **Graph index** — path resolution searches a composition-graph index
//!   the store maintains behind its own [`RwLock`]. Every writer updates it inside
//!   the same critical section as its shard write (lock order: shards, then
//!   index), and a resolution holds only the index read lock, so it always
//!   searches a consistent graph without copying it. The chain driver
//!   probes the memo cache on each link's stored hash and endpoints
//!   ([`SharedCatalog::mapping_edge`], one shard read, nothing cloned but
//!   two names) and materialises only the links it composes. Chain
//!   materialisation reads the mapping under one shard read lock, then its
//!   two schemas, and recombines the schemas' stored hashes with the
//!   entry's constraint hash; a mismatch with the entry's hash is a torn
//!   read across an interleaved schema edit and is retried, so a segment's
//!   hash can never disagree with its content. Nothing is rendered to
//!   check it.
//! * **Dry runs** — [`SharedCatalog::validate_document`] checks a document
//!   against the live shards, reading only the schemas its mappings name;
//!   no request copies the whole store ([`SharedCatalog::snapshot`] is for
//!   persistence and replication).
//! * **Versions** — version counters live inside the entries and are only
//!   advanced under the shard write locks, so concurrent writers cannot
//!   lose increments. The rules that advance them are the single-threaded
//!   store's, from [`crate::store`].
//! * **Cache** — the memo cache is a [`ShardedMemoCache`]: per-segment
//!   mutexes keyed by memo-key hash, merged statistics (see
//!   [`crate::cache`]).
//! * **Sidecar** — persistence goes through
//!   [`crate::persist::SidecarWriter`]: a single-writer append protocol
//!   with a mutex-guarded flush; readers never block (they read a plain
//!   file that is only ever appended to or atomically replaced).
//!
//! [`SharedSession`] ties the pieces together and adds
//! [`SharedSession::compose_batch_parallel`]: a batch of chain-composition
//! requests fanned across a scoped thread pool, every worker sharing the
//! same store and cache, with results returned in request order.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use mapcomp_algebra::{ConstraintSet, Document, Mapping, Signature};
use mapcomp_analysis::AnalysisReport;
use mapcomp_compose::Registry;

use crate::cache::ShardedMemoCache;
use crate::chain::{compose_chain_with, ChainResult, ChainSegment, ComposedChain, LinkSource};
use crate::error::CatalogError;
use crate::graph::{edge_cost, GraphIndex, PathCost};
use crate::hash::{combine_mapping_hash, hash_str, ContentHash};
use crate::session::{render_analysis_text, SessionConfig, SessionStats};
use crate::store::{
    rehash_touching, upsert_mapping, upsert_schema, validate_document, Catalog, MappingEntry,
    SchemaEntry,
};

/// One stripe of the shared store.
#[derive(Debug, Default)]
struct Shard {
    schemas: BTreeMap<String, SchemaEntry>,
    mappings: BTreeMap<String, MappingEntry>,
}

fn read(shard: &RwLock<Shard>) -> RwLockReadGuard<'_, Shard> {
    shard.read().unwrap_or_else(PoisonError::into_inner)
}

fn write(shard: &RwLock<Shard>) -> RwLockWriteGuard<'_, Shard> {
    shard.write().unwrap_or_else(PoisonError::into_inner)
}

/// A catalog striped across independently reader-writer-locked shards, safe
/// to share by reference between concurrent sessions. See the module docs
/// for the locking discipline.
#[derive(Debug)]
pub struct SharedCatalog {
    shards: Vec<RwLock<Shard>>,
    /// The composition graph, updated under the shard write locks.
    index: RwLock<GraphIndex>,
}

impl SharedCatalog {
    /// Stripe a catalog across `shard_count` shards (at least one).
    pub fn from_catalog(catalog: &Catalog, shard_count: usize) -> Self {
        let shard_count = shard_count.max(1);
        let mut shards: Vec<Shard> = (0..shard_count).map(|_| Shard::default()).collect();
        for entry in catalog.schemas() {
            let shard = shard_index(&entry.name, shard_count);
            shards[shard].schemas.insert(entry.name.clone(), entry.clone());
        }
        for entry in catalog.mappings() {
            let shard = shard_index(&entry.name, shard_count);
            shards[shard].mappings.insert(entry.name.clone(), entry.clone());
        }
        SharedCatalog {
            shards: shards.into_iter().map(RwLock::new).collect(),
            index: RwLock::new(GraphIndex::of(catalog)),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard_of(&self, name: &str) -> &RwLock<Shard> {
        &self.shards[shard_index(name, self.shards.len())]
    }

    /// The index read lock; taken on its own, never under a shard lock.
    fn index(&self) -> RwLockReadGuard<'_, GraphIndex> {
        self.index.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// The index write lock; callers hold their shard write locks already
    /// (lock order: shards, then index).
    fn index_mut(&self) -> RwLockWriteGuard<'_, GraphIndex> {
        self.index.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Number of registered schemas.
    pub fn schema_count(&self) -> usize {
        self.shards.iter().map(|shard| read(shard).schemas.len()).sum()
    }

    /// Number of registered mappings.
    pub fn mapping_count(&self) -> usize {
        self.shards.iter().map(|shard| read(shard).mappings.len()).sum()
    }

    /// Look up a schema (cloned out of its shard under a read lock).
    pub fn schema(&self, name: &str) -> Result<SchemaEntry, CatalogError> {
        read(self.shard_of(name))
            .schemas
            .get(name)
            .cloned()
            .ok_or_else(|| CatalogError::UnknownSchema(name.to_string()))
    }

    /// Look up a mapping (cloned out of its shard under a read lock).
    pub fn mapping(&self, name: &str) -> Result<MappingEntry, CatalogError> {
        read(self.shard_of(name))
            .mappings
            .get(name)
            .cloned()
            .ok_or_else(|| CatalogError::UnknownMapping(name.to_string()))
    }

    /// A schema's content hash, read under its shard lock without cloning
    /// the entry.
    pub fn schema_hash(&self, name: &str) -> Option<ContentHash> {
        read(self.shard_of(name)).schemas.get(name).map(|entry| entry.hash)
    }

    /// A mapping's [`MappingEntry::edge`] — content hash and endpoints —
    /// read under its shard lock without cloning constraints or history.
    pub fn mapping_edge(&self, name: &str) -> Option<(ContentHash, String, String)> {
        read(self.shard_of(name)).mappings.get(name).map(MappingEntry::edge)
    }

    /// A mapping's version, read under its shard lock without cloning the
    /// entry.
    pub fn mapping_version(&self, name: &str) -> Option<u64> {
        read(self.shard_of(name)).mappings.get(name).map(|entry| entry.version)
    }

    /// The dry run of [`Catalog::from_document`] against the live store:
    /// returns the error ingesting `document` would fail with — an unknown
    /// endpoint schema or an arity conflict between a mapping's endpoints,
    /// for the first failing mapping in document order — reading only the
    /// schemas its mappings name. Callers that need the verdict to still
    /// hold at ingest serialise their writers around both steps.
    pub fn validate_document(&self, document: &Document) -> Result<(), CatalogError> {
        validate_document(document, |name| {
            read(self.shard_of(name)).schemas.get(name).map(|entry| entry.signature.clone())
        })
    }

    /// Register or update a schema; returns the new version and the names of
    /// mappings whose content hash changed with it (the caller invalidates
    /// their cache entries). Holds every shard write lock for the duration:
    /// the schema edit and the rehash of every touching mapping are one
    /// atomic step, which is what lets readers treat an entry's
    /// hash-vs-schema consistency check as a retry condition rather than an
    /// error.
    pub fn add_schema(&self, name: impl Into<String>, signature: Signature) -> (u64, Vec<String>) {
        let name = name.into();
        let mut guards: Vec<RwLockWriteGuard<'_, Shard>> = self.shards.iter().map(write).collect();
        let shard_count = guards.len();
        let home = shard_index(&name, shard_count);
        let (version, changed) = upsert_schema(&mut guards[home].schemas, &name, signature);
        if !changed {
            return (version, Vec::new());
        }
        if version == 1 {
            self.index_mut().add_schema(&name);
        }
        // Rehash affected mappings across every shard.
        let (schemas, mappings): (Vec<_>, Vec<_>) = guards
            .iter_mut()
            .map(|guard| {
                let shard = &mut **guard;
                (&shard.schemas, &mut shard.mappings)
            })
            .unzip();
        let touched = rehash_touching(
            mappings.into_iter().flat_map(|shard| shard.values_mut()),
            &name,
            |schema| schemas[shard_index(schema, shard_count)].get(schema).map(|e| e.hash),
        );
        (version, touched)
    }

    /// Register or update a mapping between two registered schemas; returns
    /// the new version (re-registering identical content and endpoints is a
    /// no-op; a re-point moves the mapping's graph edge).
    /// Write-locks only the shards of the mapping and its two schemas, in
    /// ascending shard order.
    pub fn add_mapping(
        &self,
        name: impl Into<String>,
        source: &str,
        target: &str,
        constraints: ConstraintSet,
    ) -> Result<u64, CatalogError> {
        let name = name.into();
        let shard_count = self.shards.len();
        let mut involved: Vec<usize> =
            [name.as_str(), source, target].iter().map(|n| shard_index(n, shard_count)).collect();
        involved.sort_unstable();
        involved.dedup();
        let mut guards: BTreeMap<usize, RwLockWriteGuard<'_, Shard>> =
            involved.iter().map(|&index| (index, write(&self.shards[index]))).collect();
        let schema = |schema: &str| -> Result<&SchemaEntry, CatalogError> {
            guards[&shard_index(schema, shard_count)]
                .schemas
                .get(schema)
                .ok_or_else(|| CatalogError::UnknownSchema(schema.to_string()))
        };
        let entry = MappingEntry::new(name.clone(), schema(source)?, schema(target)?, constraints)?;
        let home = guards.get_mut(&shard_index(&name, shard_count)).expect("home shard locked");
        let (version, changed) = upsert_mapping(&mut home.mappings, entry);
        if changed {
            let cost = edge_cost(&home.mappings[&name].constraints);
            self.index_mut().insert_mapping(&name, source, target, cost);
        }
        Ok(version)
    }

    /// Replace the constraints of an existing mapping; returns the new
    /// version.
    pub fn update_mapping(
        &self,
        name: &str,
        constraints: ConstraintSet,
    ) -> Result<u64, CatalogError> {
        let (_, source, target) = self
            .mapping_edge(name)
            .ok_or_else(|| CatalogError::UnknownMapping(name.to_string()))?;
        self.add_mapping(name.to_string(), &source, &target, constraints)
    }

    /// Remove a mapping; returns its entry if it existed.
    pub fn remove_mapping(&self, name: &str) -> Option<MappingEntry> {
        let mut shard = write(self.shard_of(name));
        let removed = shard.mappings.remove(name)?;
        self.index_mut().remove_mapping(name);
        Some(removed)
    }

    /// Resolve a fewest-hops path over the maintained graph index.
    pub fn resolve_path(&self, from: &str, to: &str) -> Result<Vec<String>, CatalogError> {
        self.resolve_path_with(from, to, PathCost::Hops)
    }

    /// Resolve a path under an explicit [`PathCost`] over the maintained
    /// graph index, holding only its read lock.
    pub fn resolve_path_with(
        &self,
        from: &str,
        to: &str,
        cost: PathCost,
    ) -> Result<Vec<String>, CatalogError> {
        self.index().resolve(from, to, cost)
    }

    /// Every mapping name, in name order (from the graph index).
    pub(crate) fn mapping_names(&self) -> Vec<String> {
        self.index().mapping_names()
    }

    /// Replace the entire store content with `catalog` — entries, versions
    /// and history included — under all shard write locks at once, so
    /// concurrent readers see either the old state or the new one in full.
    /// This is the wholesale counterpart of [`SharedCatalog::from_catalog`],
    /// used when a replication follower adopts a leader snapshot whose
    /// history its own state has diverged from (version counters must be
    /// taken verbatim, not re-derived by incremental upserts).
    pub fn restore(&self, catalog: &Catalog) {
        let index = GraphIndex::of(catalog);
        let mut guards: Vec<RwLockWriteGuard<'_, Shard>> = self.shards.iter().map(write).collect();
        for guard in &mut guards {
            guard.schemas.clear();
            guard.mappings.clear();
        }
        let shard_count = guards.len();
        for entry in catalog.schemas() {
            let shard = shard_index(&entry.name, shard_count);
            guards[shard].schemas.insert(entry.name.clone(), entry.clone());
        }
        for entry in catalog.mappings() {
            let shard = shard_index(&entry.name, shard_count);
            guards[shard].mappings.insert(entry.name.clone(), entry.clone());
        }
        *self.index_mut() = index;
    }

    /// Clone the whole store back into a single-threaded [`Catalog`]
    /// (versions and history preserved), taken under all shard read locks.
    pub fn snapshot(&self) -> Catalog {
        let guards: Vec<RwLockReadGuard<'_, Shard>> = self.shards.iter().map(read).collect();
        let mut catalog = Catalog::new();
        for guard in &guards {
            for entry in guard.schemas.values() {
                catalog.insert_schema_entry(entry.clone());
            }
            for entry in guard.mappings.values() {
                catalog.insert_mapping_entry(entry.clone());
            }
        }
        catalog
    }
}

impl LinkSource for SharedCatalog {
    fn link(&self, name: &str) -> Result<ComposedChain, CatalogError> {
        loop {
            // One shard read for the entry; released before the schema
            // reads (a reader never holds two shard locks).
            let ((hash, source, target), constraints, constraints_hash) = {
                let shard = read(self.shard_of(name));
                let entry = shard
                    .mappings
                    .get(name)
                    .ok_or_else(|| CatalogError::UnknownMapping(name.to_string()))?;
                (entry.edge(), entry.constraints.clone(), entry.constraints_hash)
            };
            let source_schema = self.schema(&source)?;
            let target_schema = self.schema(&target)?;
            // The three reads take their shard locks one at a time; an
            // interleaved schema edit (which rehashes its mappings
            // atomically) makes the entry's recorded hash disagree with the
            // schema hashes just read — retry until the reads line up.
            if combine_mapping_hash(source_schema.hash, target_schema.hash, constraints_hash)
                != hash
            {
                continue;
            }
            return Ok(ChainSegment {
                source,
                target,
                path: vec![name.to_string()],
                mapping: Mapping::new(
                    source_schema.signature,
                    target_schema.signature,
                    constraints,
                ),
                residual: Signature::new(),
                hash: hash.0,
                deps: BTreeSet::from([name.to_string()]),
            }
            .into());
        }
    }

    fn link_edge(&self, name: &str) -> Result<(ContentHash, String, String), CatalogError> {
        self.mapping_edge(name).ok_or_else(|| CatalogError::UnknownMapping(name.to_string()))
    }
}

fn shard_index(name: &str, shard_count: usize) -> usize {
    (hash_str(name) % shard_count as u64) as usize
}

/// A catalog session: store + graph + chain driver + memo cache. Every
/// method takes `&self`, so one session can be shared by reference across
/// threads (it is `Sync`). All catalog mutation should go through the
/// session: editing a mapping drops exactly the cached compositions (and
/// the analysis report) whose provenance mentions it. Instrumentation
/// counters are atomics.
pub struct SharedSession {
    catalog: SharedCatalog,
    registry: Registry,
    config: SessionConfig,
    cache: ShardedMemoCache,
    /// Per-mapping static-analysis reports: name → (content hash of the
    /// analyzed mapping, report). Hash-checked on read, cleared at every
    /// invalidation site.
    analysis: Mutex<BTreeMap<String, (ContentHash, Arc<AnalysisReport>)>>,
    workers: usize,
    compose_calls: AtomicUsize,
    paths_resolved: AtomicUsize,
    chains_composed: AtomicUsize,
}

impl SharedSession {
    /// Create a one-worker session over a catalog with the standard registry
    /// and default configuration. For parallel batches use
    /// [`Catalog::with_workers`] or [`SharedSession::with_config`].
    pub fn new(catalog: Catalog) -> Self {
        catalog.with_workers(1)
    }

    /// Create a shared session with an explicit registry and configuration.
    /// The store and cache are striped ~4 stripes per worker (bounded), so
    /// workers composing disjoint chains rarely meet on a lock.
    pub fn with_config(
        catalog: Catalog,
        registry: Registry,
        config: SessionConfig,
        workers: usize,
    ) -> Self {
        let workers = workers.max(1);
        let stripes = workers.saturating_mul(4).clamp(4, 64);
        let cache = ShardedMemoCache::new(stripes, config.cache_capacity);
        SharedSession {
            catalog: SharedCatalog::from_catalog(&catalog, stripes),
            registry,
            config,
            cache,
            analysis: Mutex::new(BTreeMap::new()),
            workers,
            compose_calls: AtomicUsize::new(0),
            paths_resolved: AtomicUsize::new(0),
            chains_composed: AtomicUsize::new(0),
        }
    }

    /// The shared store.
    pub fn catalog(&self) -> &SharedCatalog {
        &self.catalog
    }

    /// The configured worker count for parallel batches.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The session configuration.
    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    /// The operator registry compositions run under (also the registry any
    /// chase over this session's mappings should use, so user-defined
    /// operators evaluate identically in both).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The sharded memo cache (provenance queries, instrumentation).
    pub fn cache(&self) -> &ShardedMemoCache {
        &self.cache
    }

    /// Seed the sharded cache from a single-threaded cache (e.g. one
    /// restored from a sidecar). Entries are redistributed across segments;
    /// the persisted cumulative statistics become the merged baseline.
    pub fn restore_cache(&mut self, cache: crate::cache::MemoCache) {
        let stripes = self.cache.segment_count();
        self.cache = ShardedMemoCache::from_cache(cache, stripes, self.config.cache_capacity);
    }

    /// Replace the whole catalog content with `catalog` (see
    /// [`SharedCatalog::restore`]) and drop every memoised composition and
    /// analysis report — they describe the superseded state. A replication
    /// follower calls this when it adopts a leader snapshot it cannot reach
    /// by incremental delta application.
    pub fn restore_catalog(&self, catalog: &Catalog) {
        self.catalog.restore(catalog);
        self.cache.clear();
        self.analysis.lock().unwrap_or_else(PoisonError::into_inner).clear();
    }

    /// Register or update a schema; invalidates cached compositions that
    /// depend on any mapping whose content hash changed with it.
    pub fn add_schema(&self, name: impl Into<String>, signature: Signature) -> u64 {
        let (version, touched) = self.catalog.add_schema(name, signature);
        for mapping in touched {
            self.cache.invalidate(&mapping);
            self.drop_analysis(&mapping);
        }
        version
    }

    /// Register or update a mapping; an update (changed content) invalidates
    /// every cached composition depending on it. Returns the new version.
    pub fn add_mapping(
        &self,
        name: impl Into<String>,
        source: &str,
        target: &str,
        constraints: ConstraintSet,
    ) -> Result<u64, CatalogError> {
        let name = name.into();
        let before = self.catalog.mapping_edge(&name);
        let version = self.catalog.add_mapping(name.clone(), source, target, constraints)?;
        let after = self.catalog.mapping_edge(&name);
        if before.is_some() && before != after {
            self.cache.invalidate(&name);
            self.drop_analysis(&name);
        }
        Ok(version)
    }

    /// Edit an existing mapping's constraints. Returns the new version and
    /// how many cached compositions were invalidated.
    pub fn update_mapping(
        &self,
        name: &str,
        constraints: ConstraintSet,
    ) -> Result<(u64, usize), CatalogError> {
        let before = self.catalog.mapping_edge(name);
        let version = self.catalog.update_mapping(name, constraints)?;
        let dropped = if self.catalog.mapping_edge(name) != before {
            self.drop_analysis(name);
            self.cache.invalidate(name)
        } else {
            0
        };
        Ok((version, dropped))
    }

    /// Remove a mapping and every cached composition depending on it.
    pub fn remove_mapping(&self, name: &str) -> Result<usize, CatalogError> {
        self.catalog
            .remove_mapping(name)
            .ok_or_else(|| CatalogError::UnknownMapping(name.to_string()))?;
        self.drop_analysis(name);
        Ok(self.cache.invalidate(name))
    }

    /// Ingest a parsed document (schemas + mappings), invalidating cache
    /// entries for every mapping that was added or changed. Returns the
    /// touched mapping names. Entries are applied and invalidated one at a
    /// time, so even if a later entry fails (and the error propagates with
    /// the earlier ones already applied — callers wanting all-or-nothing
    /// call [`SharedCatalog::validate_document`] first under their own
    /// writer lock, as the service layer does), no applied change ever
    /// escapes cache invalidation.
    pub fn ingest_document(&self, document: &Document) -> Result<Vec<String>, CatalogError> {
        let mut touched = Vec::new();
        for (name, signature) in &document.schemas {
            let (_, rehashed) = self.catalog.add_schema(name.clone(), signature.clone());
            for name in rehashed {
                self.cache.invalidate(&name);
                self.drop_analysis(&name);
                touched.push(name);
            }
        }
        for (name, (source, target, constraints)) in &document.mappings {
            let before = self.catalog.mapping_edge(name);
            let version =
                self.catalog.add_mapping(name.clone(), source, target, constraints.clone())?;
            let after = self.catalog.mapping_edge(name);
            if before != after || version == 1 {
                self.cache.invalidate(name);
                self.drop_analysis(name);
                touched.push(name.clone());
            }
        }
        touched.sort();
        touched.dedup();
        Ok(touched)
    }

    /// Explicitly drop cached compositions depending on a mapping; returns
    /// how many entries were dropped.
    pub fn invalidate(&self, mapping: &str) -> usize {
        self.drop_analysis(mapping);
        self.cache.invalidate(mapping)
    }

    fn drop_analysis(&self, mapping: &str) {
        self.analysis.lock().unwrap_or_else(PoisonError::into_inner).remove(mapping);
    }

    /// Statically analyze one mapping: weak-acyclicity termination verdict
    /// plus lint diagnostics. The cached report is returned only while the
    /// mapping's content hash still matches; the returned hash is always the
    /// hash of the content the report describes.
    pub fn analyze_mapping(
        &self,
        name: &str,
    ) -> Result<(ContentHash, Arc<AnalysisReport>), CatalogError> {
        let (hash, _, _) = self
            .catalog
            .mapping_edge(name)
            .ok_or_else(|| CatalogError::UnknownMapping(name.to_string()))?;
        {
            let cache = self.analysis.lock().unwrap_or_else(PoisonError::into_inner);
            if let Some((cached_hash, report)) = cache.get(name) {
                if *cached_hash == hash {
                    return Ok((hash, Arc::clone(report)));
                }
            }
        }
        // `link` retries torn reads, so the materialised mapping matches
        // its hash even against concurrent edits; an edit racing this call
        // may have replaced the content read above, so the report is keyed
        // by the hash of what was analyzed.
        let chain = self.catalog.link(name)?;
        let hash = ContentHash(chain.hash);
        let report = Arc::new(mapcomp_analysis::analyze_mapping(&chain.mapping));
        self.analysis
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(name.to_string(), (hash, Arc::clone(&report)));
        Ok((hash, report))
    }

    /// Analyze every mapping in the catalog, in name order (listed from the
    /// graph index; mappings racing removal are skipped).
    pub fn analyze_all(&self) -> Vec<(String, Arc<AnalysisReport>)> {
        self.catalog
            .mapping_names()
            .into_iter()
            .filter_map(|name| {
                let report = self.analyze_mapping(&name).ok()?.1;
                Some((name, report))
            })
            .collect()
    }

    /// Byte-stable catalog-wide analysis text: one `mapping <name>: <verdict>`
    /// line per mapping (name-sorted), with diagnostics and chase skips
    /// indented underneath. This is the payload of the wire `analyze` frame
    /// and the `lint` CLI subcommand.
    pub fn analysis_text(&self, only: Option<&str>) -> Result<String, CatalogError> {
        let reports = match only {
            Some(name) => vec![(name.to_string(), self.analyze_mapping(name)?.1)],
            None => self.analyze_all(),
        };
        Ok(render_analysis_text(&reports))
    }

    /// Resolve a path under the configured [`PathCost`] and compose it.
    pub fn compose_path(&self, from: &str, to: &str) -> Result<ChainResult, CatalogError> {
        let path = self.catalog.resolve_path_with(from, to, self.config.path_cost)?;
        self.paths_resolved.fetch_add(1, Ordering::Relaxed);
        self.compose_names(&path)
    }

    /// Compose an explicit chain of mapping names.
    pub fn compose_names(&self, names: &[String]) -> Result<ChainResult, CatalogError> {
        let result = compose_chain_with(
            &self.catalog,
            &self.cache,
            names,
            &self.registry,
            &self.config.compose,
            &self.config.chain,
        )?;
        self.compose_calls.fetch_add(result.compose_calls, Ordering::Relaxed);
        self.chains_composed.fetch_add(1, Ordering::Relaxed);
        Ok(result)
    }

    /// Compose a batch of `(from, to)` requests, fanned across the session's
    /// scoped worker pool. All workers share this session's store and cache,
    /// so overlapping chains pay for their common segments once; results
    /// come back in request order and per-request failures do not abort the
    /// batch.
    pub fn compose_batch_parallel(
        &self,
        requests: &[(String, String)],
    ) -> Vec<Result<ChainResult, CatalogError>> {
        self.compose_batch_parallel_with(requests, self.workers)
    }

    /// [`SharedSession::compose_batch_parallel`] with an explicit worker
    /// count for this batch (the service layer's `ComposeBatch { workers }`
    /// request), still sharing the session's store and cache.
    pub fn compose_batch_parallel_with(
        &self,
        requests: &[(String, String)],
        workers: usize,
    ) -> Vec<Result<ChainResult, CatalogError>> {
        let workers = workers.min(requests.len()).max(1);
        let mut slots: Vec<Option<Result<ChainResult, CatalogError>>> =
            (0..requests.len()).map(|_| None).collect();
        if workers <= 1 {
            for (slot, (from, to)) in slots.iter_mut().zip(requests) {
                *slot = Some(self.compose_path(from, to));
            }
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|worker| {
                        scope.spawn(move || {
                            let mut done = Vec::new();
                            let mut index = worker;
                            while index < requests.len() {
                                let (from, to) = &requests[index];
                                done.push((index, self.compose_path(from, to)));
                                index += workers;
                            }
                            done
                        })
                    })
                    .collect();
                for handle in handles {
                    for (index, result) in handle.join().expect("batch worker panicked") {
                        slots[index] = Some(result);
                    }
                }
            });
        }
        slots.into_iter().map(|slot| slot.expect("every request is assigned a worker")).collect()
    }

    /// Cumulative statistics (counters are read with relaxed ordering; the
    /// cache counters are merged atomically across segments).
    pub fn stats(&self) -> SessionStats {
        SessionStats {
            compose_calls: self.compose_calls.load(Ordering::Relaxed),
            paths_resolved: self.paths_resolved.load(Ordering::Relaxed),
            chains_composed: self.chains_composed.load(Ordering::Relaxed),
            cache: self.cache.stats(),
            cache_entries: self.cache.len(),
        }
    }
}

impl Catalog {
    /// Share this catalog for concurrent sessions: returns a
    /// [`SharedSession`] whose parallel batch API fans requests across
    /// `workers` scoped threads. See the [`crate::shared`] module docs for
    /// the concurrency model.
    pub fn with_workers(self, workers: usize) -> SharedSession {
        SharedSession::with_config(self, Registry::standard(), SessionConfig::default(), workers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapcomp_algebra::parse_constraints;

    fn chain_catalog(hops: usize) -> Catalog {
        let mut catalog = Catalog::new();
        for i in 0..=hops {
            catalog.add_schema(format!("v{i}"), Signature::from_arities([(format!("R{i}"), 1)]));
        }
        for i in 0..hops {
            catalog
                .add_mapping(
                    format!("m{i}"),
                    &format!("v{i}"),
                    &format!("v{}", i + 1),
                    parse_constraints(&format!("R{i} <= R{}", i + 1)).unwrap(),
                )
                .unwrap();
        }
        catalog
    }

    #[test]
    fn shared_catalog_round_trips_through_snapshot() {
        let catalog = chain_catalog(4);
        let shared = SharedCatalog::from_catalog(&catalog, 4);
        assert_eq!(shared.schema_count(), 5);
        assert_eq!(shared.mapping_count(), 4);
        assert_eq!(shared.mapping("m2").unwrap().hash, catalog.mapping("m2").unwrap().hash);
        let snapshot = shared.snapshot();
        assert_eq!(snapshot.to_document_string(), catalog.to_document_string());
        assert_eq!(snapshot.mapping("m0").unwrap().version, 1);
    }

    #[test]
    fn shared_resolution_matches_single_threaded() {
        let catalog = chain_catalog(5);
        let shared = SharedCatalog::from_catalog(&catalog, 3);
        assert_eq!(
            shared.resolve_path("v0", "v5").unwrap(),
            crate::graph::resolve_path(&catalog, "v0", "v5").unwrap()
        );
        assert!(matches!(shared.resolve_path("v5", "v0"), Err(CatalogError::NoPath { .. })));
        assert!(matches!(shared.resolve_path("v1", "v1"), Err(CatalogError::EmptyPath { .. })));
    }

    #[test]
    fn shared_re_point_moves_the_indexed_edge() {
        let session = chain_catalog(3).with_workers(2);
        session.add_schema("w", Signature::from_arities([("R2", 1)]));
        let shared = session.catalog();
        assert_eq!(shared.resolve_path("v0", "v3").unwrap(), vec!["m0", "m1", "m2"]);
        let hash = shared.mapping("m1").unwrap().hash;
        // `w` has v2's signature, so the re-point keeps m1's content hash.
        let version =
            session.add_mapping("m1", "v1", "w", parse_constraints("R1 <= R2").unwrap()).unwrap();
        assert_eq!(version, 2);
        assert_eq!(shared.mapping("m1").unwrap().hash, hash);
        assert_eq!(shared.resolve_path("v0", "w").unwrap(), vec!["m0", "m1"]);
        assert!(matches!(shared.resolve_path("v0", "v3"), Err(CatalogError::NoPath { .. })));
        assert_eq!(
            shared.resolve_path_with("v0", "w", PathCost::OpCount).unwrap(),
            vec!["m0", "m1"]
        );
        // The index agrees with a catalog rebuilt from a snapshot.
        let snapshot = shared.snapshot();
        assert_eq!(*shared.index(), GraphIndex::of(&snapshot));
        shared.remove_mapping("m1");
        assert!(matches!(shared.resolve_path("v0", "w"), Err(CatalogError::NoPath { .. })));
        assert_eq!(shared.mapping_names(), vec!["m0", "m2"]);
    }

    #[test]
    fn shared_validation_matches_a_snapshot_ingest() {
        use mapcomp_algebra::parse_document;
        let shared = SharedCatalog::from_catalog(&chain_catalog(3), 4);
        // The reference: ingest entry by entry with no dry run, the way
        // `from_document` applies a document, and keep the first error.
        let apply_in_order = |document: &Document| -> Result<(), CatalogError> {
            let mut catalog = shared.snapshot();
            for (name, signature) in &document.schemas {
                catalog.add_schema(name.clone(), signature.clone());
            }
            for (name, (source, target, constraints)) in &document.mappings {
                catalog.add_mapping(name.clone(), source, target, constraints.clone())?;
            }
            Ok(())
        };
        for (text, valid) in [
            // Valid: an edit, a new mapping between existing schemas, and a
            // mapping whose endpoints are declared only in the document.
            ("mapping m1 : v1 -> v2 { project[0](R1) <= R2; }", true),
            ("mapping x : v0 -> v3 { R0 <= R3; }", true),
            ("schema p { P/1; } schema q { Q/2; } mapping pq : p -> q { P <= project[0](Q); }", true),
            // Unknown source, unknown target.
            ("mapping bad : nope -> v1 { R1 <= R1; }", false),
            ("mapping bad : v0 -> nope { R0 <= R0; }", false),
            // An arity conflict introduced by a schema redefined in the
            // same document.
            ("schema v1 { R0/2; R1/1; } mapping bad : v0 -> v1 { R0 <= R1; }", false),
            // The second mapping (in document order) fails.
            ("schema p { P/1; } mapping a1 : v0 -> p { R0 <= P; } mapping a2 : p -> q { P <= P; }", false),
            // Both endpoints unknown: the source is reported.
            ("mapping bad : nope1 -> nope2 { R <= R; }", false),
        ] {
            let document = parse_document(text).unwrap();
            let actual = shared.validate_document(&document);
            assert_eq!(actual.is_ok(), valid, "{text}: {actual:?}");
            for expected in
                [shared.snapshot().from_document(&document).map(|_| ()), apply_in_order(&document)]
            {
                assert_eq!(actual, expected, "{text}");
                assert_eq!(
                    actual.as_ref().map_err(ToString::to_string),
                    expected.as_ref().map_err(ToString::to_string),
                    "{text}"
                );
            }
        }
    }

    #[test]
    fn shared_schema_update_rehashes_across_shards() {
        let catalog = chain_catalog(3);
        let shared = SharedCatalog::from_catalog(&catalog, 4);
        let before = shared.mapping("m1").unwrap().hash;
        let (version, touched) =
            shared.add_schema("v2", Signature::from_arities([("R2", 1), ("Extra", 2)]));
        assert_eq!(version, 2);
        assert_eq!(touched, vec!["m1".to_string(), "m2".to_string()]);
        assert_ne!(shared.mapping("m1").unwrap().hash, before);
        assert_eq!(shared.mapping("m1").unwrap().version, 2);
    }

    #[test]
    fn shared_session_composes_and_invalidates_like_a_plain_one() {
        let session = chain_catalog(5).with_workers(2);
        let cold = session.compose_path("v0", "v5").unwrap();
        assert_eq!(cold.compose_calls, 4);
        let warm = session.compose_path("v0", "v5").unwrap();
        assert_eq!(warm.compose_calls, 0);
        let (version, dropped) = session
            .update_mapping("m2", parse_constraints("project[0](R2) <= R3").unwrap())
            .unwrap();
        assert_eq!(version, 2);
        assert!(dropped > 0);
        let incremental = session.compose_path("v0", "v5").unwrap();
        assert!(incremental.compose_calls > 0);
        assert!(incremental.compose_calls < cold.compose_calls);
        assert!(incremental.is_complete());
        let stats = session.stats();
        assert_eq!(stats.chains_composed, 3);
        assert_eq!(stats.paths_resolved, 3);
        assert!(stats.cache.hits > 0);
    }

    #[test]
    fn parallel_batch_returns_results_in_request_order() {
        let session = chain_catalog(6).with_workers(4);
        let mut requests = Vec::new();
        for i in 0..6 {
            for j in (i + 1)..=6 {
                requests.push((format!("v{i}"), format!("v{j}")));
            }
        }
        requests.push(("v6".to_string(), "v0".to_string())); // unreachable
        let results = session.compose_batch_parallel(&requests);
        assert_eq!(results.len(), requests.len());
        for (index, (from, to)) in requests.iter().enumerate().take(requests.len() - 1) {
            let result = results[index].as_ref().unwrap_or_else(|e| {
                panic!("request {index} ({from} -> {to}) failed: {e}");
            });
            assert_eq!(result.chain.source, *from);
            assert_eq!(result.chain.target, *to);
            assert!(result.is_complete());
            let text = result.chain.mapping.constraints.to_string();
            let (i, j) = (&from[1..], &to[1..]);
            assert!(text.contains(&format!("R{i}")) && text.contains(&format!("R{j}")), "{text}");
        }
        assert!(matches!(results.last().unwrap(), Err(CatalogError::NoPath { .. })));
        // The batch shares one cache: far fewer pairwise compositions than
        // composing every request cold.
        let stats = session.stats();
        assert!(stats.compose_calls < requests.len() * 5);
        assert!(stats.cache.hits > 0);
    }

    #[test]
    fn parallel_batch_matches_sequential_results() {
        let requests: Vec<(String, String)> = (0..5)
            .flat_map(|i| ((i + 1)..=5).map(move |j| (format!("v{i}"), format!("v{j}"))))
            .collect();
        let parallel = chain_catalog(5).with_workers(4);
        let parallel_results = parallel.compose_batch_parallel(&requests);
        let sequential = SharedSession::new(chain_catalog(5));
        let sequential_results = sequential.compose_batch_parallel(&requests);
        for (index, (p, s)) in parallel_results.iter().zip(&sequential_results).enumerate() {
            let (p, s) = (p.as_ref().unwrap(), s.as_ref().unwrap());
            assert_eq!(
                p.chain.mapping.constraints.to_string(),
                s.chain.mapping.constraints.to_string(),
                "request {index} diverged"
            );
            assert_eq!(p.chain.path, s.chain.path);
            // Not compared: `chain.hash`, which encodes the fold association
            // actually used and so legitimately varies with cache warmth
            // (scheduling) even for equal content.
        }
        for session in [&parallel, &sequential] {
            assert_eq!(session.stats().chains_composed, requests.len());
        }
    }

    #[test]
    fn concurrent_mutation_and_composition_stay_consistent() {
        let session = chain_catalog(6).with_workers(4);
        let session = &session;
        std::thread::scope(|scope| {
            for worker in 0..4usize {
                scope.spawn(move || {
                    for round in 0..10usize {
                        match (worker + round) % 3 {
                            0 => {
                                let result = session.compose_path("v0", "v6").unwrap();
                                assert!(result.is_complete());
                            }
                            1 => {
                                session.invalidate(&format!("m{}", round % 6));
                            }
                            _ => {
                                // Identical re-registration: a no-op that
                                // must not disturb anyone.
                                let i = round % 6;
                                session
                                    .add_mapping(
                                        format!("m{i}"),
                                        &format!("v{i}"),
                                        &format!("v{}", i + 1),
                                        parse_constraints(&format!("R{i} <= R{}", i + 1)).unwrap(),
                                    )
                                    .unwrap();
                            }
                        }
                    }
                });
            }
        });
        assert_eq!(session.catalog().snapshot().mapping_count(), 6);
        assert!(session.compose_path("v0", "v6").unwrap().is_complete());
    }

    #[test]
    fn schema_edits_in_a_document_drop_the_rehashed_mappings_reports() {
        let session = chain_catalog(3).with_workers(1);
        let cached = |name: &str| {
            session.analysis.lock().unwrap_or_else(PoisonError::into_inner).contains_key(name)
        };
        for name in ["m0", "m1", "m2"] {
            session.analyze_mapping(name).unwrap();
        }
        session.compose_path("v0", "v3").unwrap();
        assert!(!session.cache().collect().dependents("m0").is_empty());
        assert!(cached("m0"));
        let m0 = session.catalog().mapping("m0").unwrap().hash;

        // Widening v0 rehashes m0 only: its memo entries and its report go.
        let document = mapcomp_algebra::parse_document("schema v0 { R0/1; Extra/2; }").unwrap();
        assert_eq!(session.ingest_document(&document).unwrap(), vec!["m0"]);
        assert_ne!(session.catalog().mapping("m0").unwrap().hash, m0);
        assert!(!cached("m0"), "a rehashed mapping's report is dropped");
        assert!(cached("m1") && cached("m2"), "untouched mappings keep theirs");
        assert!(session.cache().collect().dependents("m0").is_empty());
    }
}
