//! Concurrent shared-catalog sessions: one catalog store behind one
//! reader-writer lock, and a parallel batch-composition session, safe to
//! share by reference across threads.
//!
//! # Concurrency model
//!
//! * **Store** — [`SharedCatalog`] is one [`RwLock`] over a single
//!   [`Catalog`] and the composition-graph index it maintains. Every method
//!   takes the guard once and calls the `Catalog` method under it: reads
//!   (lookups, path resolution, link materialisation, dry runs) share the
//!   read guard, and every mutator edits the catalog and updates the index
//!   under one write guard, so a reader always sees both in one state. A
//!   link reads its mapping and both schemas under one read guard, so its
//!   hash always describes the content it carries. The chain driver probes
//!   the memo cache on each link's stored hash and endpoints
//!   ([`SharedCatalog::mapping_edge`], nothing cloned but two names) and
//!   materialises only the links it composes.
//! * **Lock rule** — the catalog guard is a leaf: no other lock is taken
//!   while it is held, it is never held across `compose()` or a memo-cache
//!   lock, and no thread takes it twice. A mutator reports whether its own
//!   write changed an entry; the session invalidates the memo cache and
//!   the analysis cache on that report after releasing the guard.
//! * **Versions** — version counters live inside the entries and are only
//!   advanced under the write guard, so concurrent writers cannot lose
//!   increments. The rules that advance them are [`Catalog`]'s own.
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

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use mapcomp_algebra::{ConstraintSet, Document, Signature};
use mapcomp_analysis::AnalysisReport;
use mapcomp_compose::Registry;

use crate::cache::ShardedMemoCache;
use crate::chain::{compose_chain_with, ChainResult, ComposedChain, LinkSource};
use crate::error::CatalogError;
use crate::graph::{edge_cost, GraphIndex, PathCost};
use crate::hash::ContentHash;
use crate::session::{render_analysis_text, SessionConfig, SessionStats};
use crate::store::{Catalog, MappingEntry, Name, SchemaEntry};

/// What the lock guards: the catalog and its composition-graph index.
#[derive(Debug)]
struct Store {
    catalog: Catalog,
    index: GraphIndex,
}

impl Store {
    fn new(catalog: Catalog) -> Self {
        Store { index: GraphIndex::of(&catalog), catalog }
    }

    fn add_schema(&mut self, name: String, signature: Signature) -> (u64, Vec<String>) {
        self.index.add_schema(&name);
        self.catalog.add_schema(name, signature)
    }

    /// Re-index mapping `name` after a write that changed it.
    fn index_mapping(&mut self, name: &str) {
        if let Ok(entry) = self.catalog.mapping(name) {
            let cost = edge_cost(&entry.constraints);
            self.index.insert_mapping(name, &entry.source, &entry.target, cost);
        }
    }

    fn upsert_mapping(
        &mut self,
        name: &str,
        source: &str,
        target: &str,
        constraints: ConstraintSet,
    ) -> Result<(u64, bool), CatalogError> {
        let (version, changed) = self.catalog.upsert_mapping(name, source, target, constraints)?;
        if changed {
            self.index_mapping(name);
        }
        Ok((version, changed))
    }

    fn edit_mapping(
        &mut self,
        name: &str,
        constraints: ConstraintSet,
    ) -> Result<(u64, bool), CatalogError> {
        let (version, changed) = self.catalog.edit_mapping(name, constraints)?;
        if changed {
            self.index_mapping(name);
        }
        Ok((version, changed))
    }

    fn remove_mapping(&mut self, name: &str) -> Option<MappingEntry> {
        let removed = self.catalog.remove_mapping(name)?;
        self.index.remove_mapping(name);
        Some(removed)
    }
}

/// A catalog behind one reader-writer lock, safe to share by reference
/// between concurrent sessions. See the module docs for the lock rule.
#[derive(Debug)]
pub struct SharedCatalog {
    store: RwLock<Store>,
}

impl SharedCatalog {
    /// Share `catalog`, indexing its composition graph once.
    pub fn new(catalog: Catalog) -> Self {
        SharedCatalog { store: RwLock::new(Store::new(catalog)) }
    }

    /// The read guard (a leaf lock: see the module docs).
    fn read_store(&self) -> RwLockReadGuard<'_, Store> {
        self.store.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// The write guard (a leaf lock: see the module docs).
    fn write_store(&self) -> RwLockWriteGuard<'_, Store> {
        self.store.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Run `read` over the catalog under the read guard, without copying
    /// it. `read` must take no other lock (the guard is a leaf).
    pub fn read<R>(&self, read: impl FnOnce(&Catalog) -> R) -> R {
        read(&self.read_store().catalog)
    }

    /// Number of registered schemas.
    pub fn schema_count(&self) -> usize {
        self.read(Catalog::schema_count)
    }

    /// Number of registered mappings.
    pub fn mapping_count(&self) -> usize {
        self.read(Catalog::mapping_count)
    }

    /// Look up a schema (cloned out under the read guard).
    pub fn schema(&self, name: &str) -> Result<SchemaEntry, CatalogError> {
        self.read(|catalog| catalog.schema(name).cloned())
    }

    /// Look up a mapping (cloned out under the read guard).
    pub fn mapping(&self, name: &str) -> Result<MappingEntry, CatalogError> {
        self.read(|catalog| catalog.mapping(name).cloned())
    }

    /// A schema's content hash, read without cloning the entry.
    pub fn schema_hash(&self, name: &str) -> Option<ContentHash> {
        self.read(|catalog| catalog.schema(name).ok().map(|entry| entry.hash))
    }

    /// A mapping's [`MappingEntry::edge`] — content hash and endpoints —
    /// read without cloning constraints or history.
    pub fn mapping_edge(&self, name: &str) -> Option<(ContentHash, Name, Name)> {
        self.read(|catalog| catalog.mapping(name).ok().map(MappingEntry::edge))
    }

    /// A mapping's version, read without cloning the entry.
    pub fn mapping_version(&self, name: &str) -> Option<u64> {
        self.read(|catalog| catalog.mapping(name).ok().map(|entry| entry.version))
    }

    /// [`Catalog::validate_document`] against the live store. Callers that
    /// need the verdict to still hold at ingest serialise their writers
    /// around both steps.
    pub fn validate_document(&self, document: &Document) -> Result<(), CatalogError> {
        self.read(|catalog| catalog.validate_document(document))
    }

    /// Register or update a schema; returns the new version and the names of
    /// mappings whose content hash changed with it (the caller invalidates
    /// their cache entries). The schema edit and the rehash of every
    /// touching mapping are one step under the write guard.
    pub fn add_schema(&self, name: impl Into<String>, signature: Signature) -> (u64, Vec<String>) {
        self.write_store().add_schema(name.into(), signature)
    }

    /// Register or update a mapping between two registered schemas; returns
    /// the new version (re-registering identical content and endpoints is a
    /// no-op; a re-point moves the mapping's graph edge).
    pub fn add_mapping(
        &self,
        name: impl Into<String>,
        source: &str,
        target: &str,
        constraints: ConstraintSet,
    ) -> Result<u64, CatalogError> {
        Ok(self.write_store().upsert_mapping(&name.into(), source, target, constraints)?.0)
    }

    /// Replace the constraints of an existing mapping; returns the new
    /// version. The endpoints are read and the entry written under one
    /// write guard, so a removal racing the edit makes it fail with
    /// [`CatalogError::UnknownMapping`] rather than be undone.
    pub fn update_mapping(
        &self,
        name: &str,
        constraints: ConstraintSet,
    ) -> Result<u64, CatalogError> {
        Ok(self.write_store().edit_mapping(name, constraints)?.0)
    }

    /// Remove a mapping; returns its entry if it existed.
    pub fn remove_mapping(&self, name: &str) -> Option<MappingEntry> {
        self.write_store().remove_mapping(name)
    }

    /// Resolve a fewest-hops path over the maintained graph index.
    pub fn resolve_path(&self, from: &str, to: &str) -> Result<Vec<String>, CatalogError> {
        self.resolve_path_with(from, to, PathCost::Hops)
    }

    /// Resolve a path under an explicit [`PathCost`] over the maintained
    /// graph index, under the read guard.
    pub fn resolve_path_with(
        &self,
        from: &str,
        to: &str,
        cost: PathCost,
    ) -> Result<Vec<String>, CatalogError> {
        self.read_store().index.resolve(from, to, cost)
    }

    /// Every mapping name, in name order (from the graph index).
    pub(crate) fn mapping_names(&self) -> Vec<String> {
        self.read_store().index.mapping_names()
    }

    /// Replace the entire store content with `catalog` — entries, versions
    /// and history included — in one write, so concurrent readers see
    /// either the old state or the new one in full. A replication follower
    /// uses it to adopt a leader snapshot whose history its own state has
    /// diverged from (version counters must be taken verbatim, not
    /// re-derived by incremental upserts).
    pub fn restore(&self, catalog: Catalog) {
        let store = Store::new(catalog);
        // The superseded store is dropped after the guard is released.
        let superseded = std::mem::replace(&mut *self.write_store(), store);
        drop(superseded);
    }

    /// Clone the whole store into an owned [`Catalog`] (versions and
    /// history preserved). For reads that need no owned copy, use
    /// [`SharedCatalog::read`].
    pub fn snapshot(&self) -> Catalog {
        self.read(Catalog::clone)
    }
}

impl LinkSource for SharedCatalog {
    fn link(&self, name: &str) -> Result<ComposedChain, CatalogError> {
        self.read(|catalog| catalog.link(name))
    }

    fn link_edge(&self, name: &str) -> Result<(ContentHash, Name, Name), CatalogError> {
        self.read(|catalog| catalog.link_edge(name))
    }
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

    /// Create a shared session with an explicit registry and configuration
    /// and an empty memo cache. The cache is striped ~4 stripes per worker
    /// (bounded), so workers composing disjoint chains rarely meet on a
    /// memo lock.
    pub fn with_config(
        catalog: Catalog,
        registry: Registry,
        config: SessionConfig,
        workers: usize,
    ) -> Self {
        let cache = ShardedMemoCache::new(ShardedMemoCache::segments_for(workers), None);
        SharedSession::with_cache(catalog, registry, config, workers, cache)
    }

    /// [`SharedSession::with_config`] serving from `cache` — one replayed
    /// from a sidecar ([`crate::persist::SidecarWriter::load_full`]),
    /// striped for the same `workers`. The configured capacity applies
    /// after the replay: each stripe is trimmed in place, least recently
    /// used first, and the trim counts as no eviction.
    pub fn with_cache(
        catalog: Catalog,
        registry: Registry,
        config: SessionConfig,
        workers: usize,
        mut cache: ShardedMemoCache,
    ) -> Self {
        let workers = workers.max(1);
        cache.bound(config.cache_capacity);
        SharedSession {
            catalog: SharedCatalog::new(catalog),
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

    /// Replace the whole catalog content with `catalog` (see
    /// [`SharedCatalog::restore`]) and drop every memoised composition and
    /// analysis report — they describe the superseded state. A replication
    /// follower calls this when it adopts a leader snapshot it cannot reach
    /// by incremental delta application.
    pub fn restore_catalog(&self, catalog: Catalog) {
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
        let (version, changed) =
            self.catalog.write_store().upsert_mapping(&name, source, target, constraints)?;
        // A new mapping starts at version 1 and has nothing cached yet.
        if changed && version > 1 {
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
        let (version, changed) = self.catalog.write_store().edit_mapping(name, constraints)?;
        let dropped = if changed {
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
            let (_, changed) = self.catalog.write_store().upsert_mapping(
                name,
                source,
                target,
                constraints.clone(),
            )?;
            if changed {
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
        // `link` reads the mapping and its schemas under one read guard, so
        // the materialised mapping matches its hash; an edit racing this
        // call may have replaced the content read above, so the report is
        // keyed by the hash of what was analyzed.
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
        let shared = SharedCatalog::new(catalog.clone());
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
        let shared = SharedCatalog::new(catalog.clone());
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
        assert_eq!(shared.read_store().index, GraphIndex::of(&snapshot));
        shared.remove_mapping("m1");
        assert!(matches!(shared.resolve_path("v0", "w"), Err(CatalogError::NoPath { .. })));
        assert_eq!(shared.mapping_names(), vec!["m0", "m2"]);
    }

    #[test]
    fn shared_validation_matches_a_snapshot_ingest() {
        use mapcomp_algebra::parse_document;
        let shared = SharedCatalog::new(chain_catalog(3));
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
    fn shared_schema_update_rehashes_touching_mappings() {
        let shared = SharedCatalog::new(chain_catalog(3));
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
            assert_eq!(*result.chain.source, **from);
            assert_eq!(*result.chain.target, **to);
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
        assert!(!session.cache().dependents("m0").is_empty());
        assert!(cached("m0"));
        let m0 = session.catalog().mapping("m0").unwrap().hash;

        // Widening v0 rehashes m0 only: its memo entries and its report go.
        let document = mapcomp_algebra::parse_document("schema v0 { R0/1; Extra/2; }").unwrap();
        assert_eq!(session.ingest_document(&document).unwrap(), vec!["m0"]);
        assert_ne!(session.catalog().mapping("m0").unwrap().hash, m0);
        assert!(!cached("m0"), "a rehashed mapping's report is dropped");
        assert!(cached("m1") && cached("m2"), "untouched mappings keep theirs");
        assert!(session.cache().dependents("m0").is_empty());
    }
}
