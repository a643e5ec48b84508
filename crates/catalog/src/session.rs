//! The session API: a catalog bound to a registry, a compose configuration,
//! and a memo cache, with mutation-triggered invalidation and cumulative
//! instrumentation.
//!
//! All catalog mutation should go through the session: editing a mapping
//! here drops exactly the cached compositions whose provenance mentions it,
//! so the next `compose_path` recomputes only the affected part of each
//! chain. The session also keeps the instrumented pairwise-composition
//! counter used to assert the incremental-vs-cold claim.

use std::collections::BTreeMap;
use std::sync::Arc;

use mapcomp_algebra::{ConstraintSet, Document, Signature};
use mapcomp_analysis::{AnalysisReport, Termination};
use mapcomp_compose::{ComposeConfig, ExchangeConfig, Registry};

use crate::cache::{CacheStats, MemoCache, ShardedMemoCache};
use crate::chain::{compose_chain, compose_chain_with, ChainOptions, ChainResult};
use crate::error::CatalogError;
use crate::graph::{resolve_path_with, PathCost};
use crate::hash::ContentHash;
use crate::store::{Catalog, MappingEntry};

/// Configuration of a session.
#[derive(Debug, Clone, Default)]
pub struct SessionConfig {
    /// The compose configuration used for every pairwise composition (part
    /// of the memo key: sessions with different configurations never share
    /// entries).
    pub compose: ComposeConfig,
    /// Chain options (strict vs. best-effort elimination).
    pub chain: ChainOptions,
    /// Maximum number of live memo-cache entries (`None` = unbounded).
    /// When the bound is hit, least-recently-used entries are evicted; see
    /// [`crate::cache::CacheStats::evictions`].
    pub cache_capacity: Option<usize>,
    /// How `compose_path` scores candidate paths: fewest hops (default) or
    /// cheapest estimated operator-count growth (see [`PathCost`]).
    pub path_cost: PathCost,
    /// Operator override for the chase's per-evaluation tuple budget
    /// (`--eval-budget` on the CLI). `None` lets the static analyzer pick a
    /// proven bound when it can, falling back to the engine default; `Some`
    /// always wins, including over analysis-derived budgets. Not part of the
    /// memo key — the budget shapes data exchange, not composition.
    pub eval_budget: Option<usize>,
}

impl SessionConfig {
    /// Build the chase configuration this session would run data exchange
    /// under, optionally consulting an analysis report for a source domain
    /// of the given size. Precedence: engine default, then analysis-derived
    /// proven budget, then the operator's [`SessionConfig::eval_budget`]
    /// override.
    pub fn chase_config(&self, analysis: Option<(&AnalysisReport, usize)>) -> ExchangeConfig {
        let base = ExchangeConfig::default();
        let mut config = match analysis {
            Some((report, domain)) => report.exchange_config(domain, &base),
            None => base,
        };
        if let Some(budget) = self.eval_budget {
            config.eval_budget = budget;
        }
        config
    }
}

/// Render a name-sorted set of per-mapping analysis reports as the
/// byte-stable catalog-wide text: one `mapping <name>: <verdict summary>`
/// line each, with the report's diagnostics and chase skips indented two
/// spaces underneath. Shared by [`Session`], [`crate::shared::SharedSession`]
/// and the service layer so every surface emits identical bytes.
pub fn render_analysis_text(reports: &[(String, Arc<AnalysisReport>)]) -> String {
    let mut sorted: Vec<&(String, Arc<AnalysisReport>)> = reports.iter().collect();
    sorted.sort_by(|a, b| a.0.cmp(&b.0));
    let mut out = String::new();
    for (name, report) in sorted {
        out.push_str(&format!("mapping {name}: {}\n", report.termination.summary()));
        for diagnostic in &report.diagnostics {
            out.push_str(&format!("  {diagnostic}\n"));
        }
        for (constraint, reason) in &report.skipped {
            out.push_str(&format!("  skip: {constraint}: {reason}\n"));
        }
    }
    out
}

/// Tally of analysis verdicts across a set of reports: `(proven, unknown,
/// diagnostics)` — the counts carried by the wire `analysis` reply.
pub fn analysis_counts(reports: &[(String, Arc<AnalysisReport>)]) -> (usize, usize, usize) {
    let mut proven = 0;
    let mut unknown = 0;
    let mut diagnostics = 0;
    for (_, report) in reports {
        match report.termination {
            Termination::Proven { .. } => proven += 1,
            Termination::Unknown { .. } => unknown += 1,
        }
        diagnostics += report.diagnostics.len();
    }
    (proven, unknown, diagnostics)
}

/// Cumulative session statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Pairwise `compose()` invocations actually performed.
    pub compose_calls: usize,
    /// Paths resolved through the composition graph.
    pub paths_resolved: usize,
    /// Chain compositions served (cached or not).
    pub chains_composed: usize,
    /// Memo-cache statistics.
    pub cache: CacheStats,
    /// Live memo-cache entries.
    pub cache_entries: usize,
}

/// A catalog session: store + graph + chain driver + memo cache.
pub struct Session {
    catalog: Catalog,
    registry: Registry,
    config: SessionConfig,
    cache: MemoCache,
    /// Per-mapping static-analysis verdicts, keyed by name and guarded by
    /// the mapping's content hash at analysis time: a hash mismatch on read
    /// means the cached report is stale and is recomputed. Entries are also
    /// dropped eagerly at every memo-cache invalidation site.
    analysis: BTreeMap<String, (ContentHash, Arc<AnalysisReport>)>,
    compose_calls: usize,
    paths_resolved: usize,
    chains_composed: usize,
}

impl Session {
    /// Create a session over a catalog with the standard registry and
    /// default configuration.
    pub fn new(catalog: Catalog) -> Self {
        Session::with_config(catalog, Registry::standard(), SessionConfig::default())
    }

    /// Create a session with an explicit registry and configuration.
    pub fn with_config(catalog: Catalog, registry: Registry, config: SessionConfig) -> Self {
        let cache = MemoCache::with_capacity(config.cache_capacity);
        Session {
            catalog,
            registry,
            config,
            cache,
            analysis: BTreeMap::new(),
            compose_calls: 0,
            paths_resolved: 0,
            chains_composed: 0,
        }
    }

    /// Read access to the underlying catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The session's registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The session's configuration.
    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    /// Register or update a schema; invalidates cached compositions that
    /// depend on any mapping whose signature changed with it.
    pub fn add_schema(&mut self, name: impl Into<String>, signature: Signature) -> u64 {
        let (version, touched) = self.catalog.add_schema(name, signature);
        for mapping in touched {
            self.cache.invalidate(&mapping);
            self.analysis.remove(&mapping);
        }
        version
    }

    /// Register or update a mapping; an update (changed content) invalidates
    /// every cached composition depending on it. Returns the new version.
    pub fn add_mapping(
        &mut self,
        name: impl Into<String>,
        source: &str,
        target: &str,
        constraints: ConstraintSet,
    ) -> Result<u64, CatalogError> {
        let name = name.into();
        let before = self.catalog.mapping(&name).ok().map(MappingEntry::edge);
        let version = self.catalog.add_mapping(name.clone(), source, target, constraints)?;
        let after = self.catalog.mapping(&name)?.edge();
        if before.is_some() && before != Some(after) {
            self.cache.invalidate(&name);
            self.analysis.remove(&name);
        }
        Ok(version)
    }

    /// Edit an existing mapping's constraints (the incremental-recomposition
    /// trigger). Returns the new version and how many cached compositions
    /// were invalidated.
    pub fn update_mapping(
        &mut self,
        name: &str,
        constraints: ConstraintSet,
    ) -> Result<(u64, usize), CatalogError> {
        let before = self.catalog.mapping(name)?.hash;
        let version = self.catalog.update_mapping(name, constraints)?;
        let dropped = if self.catalog.mapping(name)?.hash != before {
            self.analysis.remove(name);
            self.cache.invalidate(name)
        } else {
            0
        };
        Ok((version, dropped))
    }

    /// Remove a mapping and every cached composition depending on it.
    pub fn remove_mapping(&mut self, name: &str) -> Result<usize, CatalogError> {
        self.catalog
            .remove_mapping(name)
            .ok_or_else(|| CatalogError::UnknownMapping(name.to_string()))?;
        self.analysis.remove(name);
        Ok(self.cache.invalidate(name))
    }

    /// Ingest a parsed document (schemas + mappings), invalidating cache
    /// entries for every mapping that was added or changed. Returns the
    /// touched mapping names.
    pub fn ingest_document(&mut self, document: &Document) -> Result<Vec<String>, CatalogError> {
        let touched = self.catalog.from_document(document)?;
        for name in &touched {
            self.cache.invalidate(name);
            self.analysis.remove(name);
        }
        Ok(touched)
    }

    /// Explicitly drop cached compositions depending on a mapping; returns
    /// how many entries were dropped.
    pub fn invalidate(&mut self, mapping: &str) -> usize {
        self.analysis.remove(mapping);
        self.cache.invalidate(mapping)
    }

    /// Statically analyze one mapping: weak-acyclicity termination verdict
    /// plus lint diagnostics. Reports are cached per mapping, keyed by the
    /// mapping's content hash at analysis time — content addressing makes
    /// staleness impossible (a changed mapping has a changed hash and misses
    /// the cache), and the provenance invalidation sites drop entries
    /// eagerly besides.
    pub fn analyze_mapping(
        &mut self,
        name: &str,
    ) -> Result<(ContentHash, Arc<AnalysisReport>), CatalogError> {
        let hash = self.catalog.mapping(name)?.hash;
        if let Some((cached_hash, report)) = self.analysis.get(name) {
            if *cached_hash == hash {
                return Ok((hash, Arc::clone(report)));
            }
        }
        let mapping = self.catalog.materialize(name)?;
        let report = Arc::new(mapcomp_analysis::analyze_mapping(&mapping));
        self.analysis.insert(name.to_string(), (hash, Arc::clone(&report)));
        Ok((hash, report))
    }

    /// Analyze every mapping in the catalog, in name order.
    pub fn analyze_all(&mut self) -> Vec<(String, Arc<AnalysisReport>)> {
        let names: Vec<String> = self.catalog.mappings().map(|entry| entry.name.clone()).collect();
        names
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
    pub fn analysis_text(&mut self, only: Option<&str>) -> Result<String, CatalogError> {
        let reports = match only {
            Some(name) => vec![(name.to_string(), self.analyze_mapping(name)?.1)],
            None => self.analyze_all(),
        };
        Ok(render_analysis_text(&reports))
    }

    /// Run data exchange for a mapping under an analysis-guided chase
    /// configuration (see [`SessionConfig::chase_config`]): proven mappings
    /// chase under their derived budget, unknown ones under runtime limits,
    /// and the result records the verdict it executed under.
    pub fn exchange_analyzed(
        &mut self,
        name: &str,
        source: &mapcomp_algebra::Instance,
    ) -> Result<mapcomp_compose::ExchangeResult, CatalogError> {
        let report = self.analyze_mapping(name)?.1;
        let mapping = self.catalog.materialize(name)?;
        let full = mapping.combined_signature().map_err(CatalogError::Algebra)?;
        let config =
            self.config.chase_config(Some((&report, mapcomp_analysis::domain_size(source))));
        Ok(mapcomp_compose::exchange(
            mapping.constraints.as_slice(),
            &full,
            &mapping.output,
            source,
            &self.registry,
            &config,
        ))
    }

    /// Resolve a path under the configured [`PathCost`] and compose it
    /// ("compose σ_from → σ_to").
    pub fn compose_path(&mut self, from: &str, to: &str) -> Result<ChainResult, CatalogError> {
        let path = resolve_path_with(&self.catalog, from, to, self.config.path_cost)?;
        self.paths_resolved += 1;
        self.compose_names(&path)
    }

    /// Compose an explicit chain of mapping names.
    pub fn compose_names(&mut self, names: &[String]) -> Result<ChainResult, CatalogError> {
        let result = compose_chain(
            &self.catalog,
            &mut self.cache,
            names,
            &self.registry,
            &self.config.compose,
            &self.config.chain,
        )?;
        self.compose_calls += result.compose_calls;
        self.chains_composed += 1;
        Ok(result)
    }

    /// Batch API: compose several `(from, to)` requests in one call. Requests
    /// share the memo cache, so overlapping chains pay for their common
    /// segments once; per-request failures do not abort the batch.
    pub fn compose_batch(
        &mut self,
        requests: &[(String, String)],
    ) -> Vec<Result<ChainResult, CatalogError>> {
        requests.iter().map(|(from, to)| self.compose_path(from, to)).collect()
    }

    /// Parallel batch API: fan the requests across `workers` scoped threads
    /// sharing this session's catalog (read-only) and its memo cache,
    /// temporarily striped into per-worker locked segments (see
    /// [`ShardedMemoCache`]). The cache — entries and cumulative statistics —
    /// is merged back into the session afterwards, so a parallel batch is
    /// observationally a faster [`Session::compose_batch`]. Results come
    /// back in request order; per-request failures do not abort the batch.
    ///
    /// For fully concurrent sessions (mutations racing compositions), see
    /// [`crate::shared::SharedSession`].
    pub fn compose_batch_parallel(
        &mut self,
        requests: &[(String, String)],
        workers: usize,
    ) -> Vec<Result<ChainResult, CatalogError>> {
        let workers = workers.max(1).min(requests.len().max(1));
        let sharded = ShardedMemoCache::from_cache(
            std::mem::take(&mut self.cache),
            workers.saturating_mul(4).clamp(4, 64),
            self.config.cache_capacity,
        );
        // Each slot records (path resolved?, outcome) so the counter updates
        // below match `compose_batch` exactly: `paths_resolved` counts
        // successful resolutions even when the composition then fails
        // (e.g. under `require_complete`).
        type Outcome = (bool, Result<ChainResult, CatalogError>);
        let mut slots: Vec<Option<Outcome>> = (0..requests.len()).map(|_| None).collect();
        let (catalog, registry, config) = (&self.catalog, &self.registry, &self.config);
        let compose_one = |from: &str, to: &str| -> Outcome {
            let path = match resolve_path_with(catalog, from, to, config.path_cost) {
                Ok(path) => path,
                Err(error) => return (false, Err(error)),
            };
            let result = compose_chain_with(
                catalog,
                &sharded,
                &path,
                registry,
                &config.compose,
                &config.chain,
            );
            (true, result)
        };
        if workers <= 1 {
            for (slot, (from, to)) in slots.iter_mut().zip(requests) {
                *slot = Some(compose_one(from, to));
            }
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|worker| {
                        let compose_one = &compose_one;
                        scope.spawn(move || {
                            let mut done = Vec::new();
                            let mut index = worker;
                            while index < requests.len() {
                                let (from, to) = &requests[index];
                                done.push((index, compose_one(from, to)));
                                index += workers;
                            }
                            done
                        })
                    })
                    .collect();
                for handle in handles {
                    for (index, outcome) in handle.join().expect("batch worker panicked") {
                        slots[index] = Some(outcome);
                    }
                }
            });
        }
        self.cache = sharded.into_cache(self.config.cache_capacity);
        let mut results = Vec::with_capacity(requests.len());
        for slot in slots {
            let (resolved, result) = slot.expect("every request assigned");
            if resolved {
                self.paths_resolved += 1;
            }
            if let Ok(result) = &result {
                self.compose_calls += result.compose_calls;
                self.chains_composed += 1;
            }
            results.push(result);
        }
        results
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> SessionStats {
        SessionStats {
            compose_calls: self.compose_calls,
            paths_resolved: self.paths_resolved,
            chains_composed: self.chains_composed,
            cache: self.cache.stats(),
            cache_entries: self.cache.len(),
        }
    }

    /// Read access to the memo cache (provenance queries, introspection).
    pub fn cache(&self) -> &MemoCache {
        &self.cache
    }

    /// Replace the memo cache, e.g. with one restored from a sidecar file
    /// (see [`crate::persist`]). Content addressing makes this safe: entries
    /// that no longer match any current mapping hash are simply never hit.
    /// The session's configured capacity is applied to the restored cache;
    /// entries trimmed by that are replay artifacts, not workload events, so
    /// the cumulative counters are pinned back to their pre-trim values —
    /// otherwise every restore/flush cycle of a capacity-bounded session
    /// would count the same evictions again.
    pub fn restore_cache(&mut self, mut cache: MemoCache) {
        let persisted = cache.stats();
        cache.set_capacity(self.config.cache_capacity);
        cache.restore_stats(persisted);
        self.cache = cache;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapcomp_algebra::parse_constraints;

    /// A 5-hop chain of unary copy mappings v0 → … → v5.
    fn chain_session(hops: usize) -> Session {
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
        Session::new(catalog)
    }

    #[test]
    fn editing_a_middle_link_recomposes_only_the_suffix() {
        // The acceptance-criterion scenario: compose a 5-hop chain, edit one
        // middle mapping, recompose — strictly fewer pairwise compositions
        // than from scratch, by the instrumented counter.
        let mut session = chain_session(5);
        let cold = session.compose_path("v0", "v5").unwrap();
        assert_eq!(cold.compose_calls, 4, "cold 5-hop chain = 4 pairwise compositions");

        // Edit the middle link m2 (still a copy, but through a projection).
        let (version, dropped) = session
            .update_mapping("m2", parse_constraints("project[0](R2) <= R3").unwrap())
            .unwrap();
        assert_eq!(version, 2);
        assert!(dropped > 0, "cached suffix segments must be invalidated");

        let incremental = session.compose_path("v0", "v5").unwrap();
        assert!(
            incremental.compose_calls < cold.compose_calls,
            "incremental ({}) must be strictly cheaper than cold ({})",
            incremental.compose_calls,
            cold.compose_calls
        );
        assert!(incremental.cache_hits > 0);
        assert!(incremental.is_complete());
    }

    #[test]
    fn no_edit_means_fully_cached_recompose() {
        let mut session = chain_session(4);
        session.compose_path("v0", "v4").unwrap();
        let warm = session.compose_path("v0", "v4").unwrap();
        assert_eq!(warm.compose_calls, 0);
        let stats = session.stats();
        assert_eq!(stats.compose_calls, 3);
        assert_eq!(stats.chains_composed, 2);
        assert_eq!(stats.paths_resolved, 2);
        assert!(stats.cache.hits > 0);
    }

    #[test]
    fn batch_requests_share_segments() {
        let mut session = chain_session(4);
        let results = session.compose_batch(&[
            ("v0".to_string(), "v3".to_string()),
            ("v0".to_string(), "v4".to_string()),
            ("v9".to_string(), "v0".to_string()),
        ]);
        assert!(results[0].is_ok());
        assert!(results[1].is_ok());
        assert!(results[2].is_err(), "unknown schema fails without aborting the batch");
        // Request 2 extends request 1's chain: one extra composition only.
        assert_eq!(results[1].as_ref().unwrap().compose_calls, 1);
    }

    #[test]
    fn identical_reregistration_keeps_the_cache_warm() {
        let mut session = chain_session(3);
        session.compose_path("v0", "v3").unwrap();
        // Re-adding the same mapping content must not invalidate anything.
        session.add_mapping("m1", "v1", "v2", parse_constraints("R1 <= R2").unwrap()).unwrap();
        let warm = session.compose_path("v0", "v3").unwrap();
        assert_eq!(warm.compose_calls, 0);
    }

    #[test]
    fn schema_update_invalidates_through_touching_mappings() {
        let mut session = chain_session(3);
        session.compose_path("v0", "v3").unwrap();
        // Growing v2 changes m1 and m2's content hashes.
        session.add_schema("v2", Signature::from_arities([("R2", 1), ("Extra", 2)]));
        let after = session.compose_path("v0", "v3").unwrap();
        assert!(after.compose_calls > 0, "schema edit must force recomposition");
    }

    #[test]
    fn bounded_cache_evicts_but_stays_correct() {
        let hops = 6;
        let config = SessionConfig { cache_capacity: Some(2), ..SessionConfig::default() };
        let mut session = chain_session(hops);
        let catalog = session.catalog().clone();
        session = Session::with_config(catalog, mapcomp_compose::Registry::standard(), config);
        let first = session.compose_path("v0", &format!("v{hops}")).unwrap();
        assert_eq!(first.compose_calls, hops - 1);
        let stats = session.stats();
        assert_eq!(stats.cache_entries, 2, "capacity bounds live entries");
        assert!(stats.cache.evictions > 0, "composing a long chain must evict");
        // Recomposition still works (paying for the evicted segments again).
        let again = session.compose_path("v0", &format!("v{hops}")).unwrap();
        assert!(again.is_complete());
        assert!(again.compose_calls > 0);
    }

    #[test]
    fn parallel_batch_matches_sequential_batch() {
        let requests: Vec<(String, String)> = (0..5)
            .flat_map(|i| ((i + 1)..=5).map(move |j| (format!("v{i}"), format!("v{j}"))))
            .chain([("v9".to_string(), "v0".to_string())])
            .collect();
        let mut parallel = chain_session(5);
        let parallel_results = parallel.compose_batch_parallel(&requests, 4);
        let mut sequential = chain_session(5);
        let sequential_results = sequential.compose_batch(&requests);
        assert_eq!(parallel_results.len(), sequential_results.len());
        for (index, (p, s)) in parallel_results.iter().zip(&sequential_results).enumerate() {
            match (p, s) {
                (Ok(p), Ok(s)) => {
                    assert_eq!(
                        p.chain.mapping.constraints.to_string(),
                        s.chain.mapping.constraints.to_string(),
                        "request {index} diverged"
                    );
                    assert_eq!(p.chain.path, s.chain.path);
                    // Not compared: `chain.hash`, which encodes the fold
                    // association actually used and so legitimately varies
                    // with cache warmth (scheduling) even for equal content.
                }
                (Err(_), Err(_)) => {}
                other => panic!("request {index}: outcome mismatch {other:?}"),
            }
        }
        // The sharded cache was merged back: a warm recompose is free.
        let warm = parallel.compose_path("v0", "v5").unwrap();
        assert_eq!(warm.compose_calls, 0);
        assert_eq!(parallel.stats().chains_composed, requests.len() - 1 + 1);
    }

    #[test]
    fn restore_then_reflush_cycles_do_not_inflate_stats() {
        // A capacity-bounded session restoring a larger persisted cache must
        // not count the replay trim as workload evictions — however many
        // restore/flush cycles happen in one process.
        let mut donor = chain_session(6);
        donor.compose_path("v0", "v6").unwrap();
        let persisted = donor.cache().stats();
        assert!(persisted.insertions >= 5);

        let config = SessionConfig { cache_capacity: Some(2), ..SessionConfig::default() };
        let catalog = donor.catalog().clone();
        let mut bounded =
            Session::with_config(catalog, mapcomp_compose::Registry::standard(), config);
        for cycle in 0..3 {
            let mut replayed = MemoCache::new();
            for (key, entry) in donor.cache().iter() {
                replayed.insert(*key, entry.chain.clone());
            }
            replayed.restore_stats(persisted);
            bounded.restore_cache(replayed);
            assert_eq!(
                bounded.cache().stats(),
                persisted,
                "cycle {cycle}: replay trim must not count as evictions"
            );
            assert!(bounded.cache().len() <= 2);
        }
    }

    #[test]
    fn op_count_path_cost_picks_the_cheaper_longer_route() {
        // A 2-hop shortcut through operator-heavy mappings vs. the 3-hop
        // copy chain: hop-based resolution takes the shortcut, op-count-based
        // resolution the cheap chain — and both compose successfully.
        let mut build = chain_session(3);
        build.add_schema("shortcut", Signature::from_arities([("S", 1)]));
        build
            .add_mapping(
                "heavy1",
                "v0",
                "shortcut",
                parse_constraints("project[0](select[#0 = #1](R0 * R0)) <= S").unwrap(),
            )
            .unwrap();
        build
            .add_mapping(
                "heavy2",
                "shortcut",
                "v3",
                parse_constraints("project[0](select[#0 = #1](S * S)) <= R3").unwrap(),
            )
            .unwrap();
        let catalog = build.catalog().clone();

        let mut by_hops = Session::new(catalog.clone());
        let short = by_hops.compose_path("v0", "v3").unwrap();
        assert_eq!(short.chain.path, vec!["heavy1", "heavy2"]);

        let config = SessionConfig {
            path_cost: crate::graph::PathCost::OpCount,
            ..SessionConfig::default()
        };
        let mut by_cost =
            Session::with_config(catalog, mapcomp_compose::Registry::standard(), config);
        let cheap = by_cost.compose_path("v0", "v3").unwrap();
        assert_eq!(cheap.chain.path, vec!["m0", "m1", "m2"]);
        assert!(cheap.is_complete());
    }

    #[test]
    fn remove_mapping_breaks_the_path() {
        let mut session = chain_session(3);
        session.compose_path("v0", "v3").unwrap();
        session.remove_mapping("m1").unwrap();
        assert!(matches!(session.compose_path("v0", "v3"), Err(CatalogError::NoPath { .. })));
    }
}
