//! The n-ary chain driver: fold a path of mappings through the pairwise
//! best-effort `compose()` with memoised partial results.
//!
//! A chain `m1 ∘ m2 ∘ … ∘ mn` can be folded in any association order —
//! composition is associative semantically, even though the best-effort
//! algorithm may produce syntactically different (equivalent) outputs. The
//! driver exploits that freedom with greedy *run absorption*: at each
//! position it looks for the longest contiguous run of links that is already
//! memoised as one segment (from a previous composition of this chain, a
//! sub-chain request, or an earlier revision's surviving prefix), absorbs it
//! with a single cache lookup, and only pays a pairwise composition at run
//! boundaries. After editing one link, recomposing therefore recomputes only
//! the fold steps whose provenance includes the edit — the cached runs on
//! either side are reused, never recomposed.
//!
//! Intermediate symbols that resist elimination ride along in the
//! [`ComposedChain::residual`] signature and are retried at every later fold
//! step, mirroring how the paper's editing scenario recovers leftover
//! symbols in later compositions.

use std::collections::BTreeSet;

use mapcomp_algebra::{AlgebraError, ConstraintSet, Mapping, Signature};
use mapcomp_compose::{compose_constraints, ComposeConfig, Registry};

use crate::cache::ChainCache;
use crate::error::CatalogError;
use crate::hash::{combine, hash_config};
use crate::store::Catalog;

/// A source of single-link chain segments by mapping name. Implemented by
/// the single-threaded [`Catalog`] and by the lock-striped
/// [`crate::shared::SharedCatalog`], so the chain driver composes over
/// either without caring which store backs it.
pub trait LinkSource {
    /// Materialise the named mapping as a one-link chain.
    fn link(&self, name: &str) -> Result<ComposedChain, CatalogError>;
}

impl LinkSource for Catalog {
    fn link(&self, name: &str) -> Result<ComposedChain, CatalogError> {
        ComposedChain::from_entry(self, name)
    }
}

/// A (partially) composed chain segment: a mapping from the path's source
/// schema to its target schema, plus any intermediate symbols that survived
/// elimination, the content hash identifying the segment, and the set of
/// catalog mappings it was composed from (its provenance).
#[derive(Debug, Clone)]
pub struct ComposedChain {
    /// Source schema name.
    pub source: String,
    /// Target schema name.
    pub target: String,
    /// Mapping names along the path, in composition order.
    pub path: Vec<String>,
    /// The composed mapping: input = source schema, output = target schema.
    pub mapping: Mapping,
    /// Intermediate symbols (with arities) that could not be eliminated.
    pub residual: Signature,
    /// Content hash of this segment (pure function of the link hashes and
    /// the compose configuration).
    pub hash: u64,
    /// Names of the catalog mappings this segment depends on.
    pub deps: BTreeSet<String>,
}

impl ComposedChain {
    /// Did every intermediate symbol get eliminated?
    pub fn is_complete(&self) -> bool {
        self.residual.is_empty()
    }

    /// The signatures a chase through this segment runs over: the full
    /// signature (source ∪ target ∪ residual) and the target, where
    /// residual symbols are chased as auxiliary target relations (paper
    /// §1.3). Fails when two of them disagree on a symbol's arity.
    pub fn chase_signatures(&self) -> Result<(Signature, Signature), AlgebraError> {
        let full = self.mapping.input.union(&self.mapping.output)?.union(&self.residual)?;
        let mut target = self.mapping.output.clone();
        for (name, info) in self.residual.iter() {
            target.add(name.to_string(), info.clone());
        }
        Ok((full, target))
    }

    /// Lift a single catalog mapping into a one-link chain.
    pub fn from_entry(catalog: &Catalog, name: &str) -> Result<Self, CatalogError> {
        let entry = catalog.mapping(name)?;
        let mapping = catalog.materialize(name)?;
        Ok(ComposedChain {
            source: entry.source.clone(),
            target: entry.target.clone(),
            path: vec![entry.name.clone()],
            mapping,
            residual: Signature::new(),
            hash: entry.hash.0,
            deps: BTreeSet::from([entry.name.clone()]),
        })
    }
}

/// Options of one chain composition.
#[derive(Debug, Clone, Default)]
pub struct ChainOptions {
    /// Fail with [`CatalogError::Incomplete`] if any fold step leaves
    /// intermediate symbols behind (default: best-effort, symbols ride
    /// along as residuals).
    pub require_complete: bool,
}

/// Result of composing a chain.
#[derive(Debug, Clone)]
pub struct ChainResult {
    /// The composed chain.
    pub chain: ComposedChain,
    /// Pairwise `compose()` invocations actually performed for this request
    /// (memo hits cost zero). This is the instrumented counter the
    /// incremental-vs-cold comparison is asserted on.
    pub compose_calls: usize,
    /// Memo-cache hits while folding (absorbed runs plus fold-step hits).
    pub cache_hits: usize,
    /// Lengths of the contiguous runs the driver absorbed, left to right; a
    /// length > 1 means that run was served whole from the memo cache.
    pub plan: Vec<usize>,
}

impl ChainResult {
    /// Did every intermediate symbol get eliminated?
    pub fn is_complete(&self) -> bool {
        self.chain.is_complete()
    }
}

/// Compose two adjacent chain segments, eliminating the shared schema's
/// symbols (and retrying residuals from both sides). Increments
/// `compose_calls` by exactly one.
pub fn compose_pair(
    left: &ComposedChain,
    right: &ComposedChain,
    registry: &Registry,
    config: &ComposeConfig,
    compose_calls: &mut usize,
) -> Result<ComposedChain, CatalogError> {
    if left.target != right.source {
        return Err(CatalogError::ChainMismatch {
            left: left.path.last().cloned().unwrap_or_default(),
            right: right.path.first().cloned().unwrap_or_default(),
            expected: left.target.clone(),
            found: right.source.clone(),
        });
    }

    // Full signature: endpoint schemas, the shared intermediate schema, and
    // both residual carry-alongs. Shared symbols must agree on arity.
    let full = left
        .mapping
        .input
        .union(&left.mapping.output)?
        .union(&left.residual)?
        .union(&right.mapping.input)?
        .union(&right.residual)?
        .union(&right.mapping.output)?;

    // Symbols to eliminate: the intermediate schema plus residuals — except
    // symbols shared with an endpoint schema (evolution chains carry every
    // unchanged relation through; those are identity-linked, not
    // existential intermediates).
    let keep =
        |name: &String| left.mapping.input.contains(name) || right.mapping.output.contains(name);
    let mut symbols: Vec<String> = left.mapping.output.names();
    symbols.extend(right.mapping.input.names());
    symbols.extend(left.residual.names());
    symbols.extend(right.residual.names());
    symbols.retain(|name| !keep(name));
    // Unique, preserving first-occurrence order.
    let mut seen = BTreeSet::new();
    symbols.retain(|name| seen.insert(name.clone()));

    let mut constraints = left.mapping.constraints.clone().into_vec();
    constraints.extend(right.mapping.constraints.clone().into_vec());

    *compose_calls += 1;
    let result = compose_constraints(&full, &symbols, constraints, registry, config);

    let mut residual = Signature::new();
    for name in &result.remaining {
        if let Some(info) = result.signature.get(name) {
            residual.add(name.clone(), info.clone());
        }
    }

    let mapping = Mapping::new(
        left.mapping.input.clone(),
        right.mapping.output.clone(),
        ConstraintSet::from_constraints(result.constraints),
    );

    let mut path = left.path.clone();
    path.extend(right.path.iter().cloned());
    let mut deps = left.deps.clone();
    deps.extend(right.deps.iter().cloned());

    Ok(ComposedChain {
        source: left.source.clone(),
        target: right.target.clone(),
        path,
        mapping,
        residual,
        hash: combine(&[left.hash, right.hash, hash_config(config)]),
        deps,
    })
}

/// Compose a chain of catalog mappings (given by name, adjacent pairs must
/// share a schema) through any [`LinkSource`], reusing and populating a
/// shared [`ChainCache`]. Several workers may fold chains over one
/// lock-striped store and one sharded cache at the same time. Cache
/// entries may be evicted or invalidated by other workers between the probe
/// and the fetch; the driver degrades to recomposing the affected run.
pub fn compose_chain_with<S, C>(
    store: &S,
    cache: &C,
    names: &[String],
    registry: &Registry,
    config: &ComposeConfig,
    options: &ChainOptions,
) -> Result<ChainResult, CatalogError>
where
    S: LinkSource + ?Sized,
    C: ChainCache + ?Sized,
{
    assert!(!names.is_empty(), "compose_chain_with requires at least one mapping");
    let segments: Vec<ComposedChain> =
        names.iter().map(|name| store.link(name)).collect::<Result<_, _>>()?;
    for pair in segments.windows(2) {
        if pair[0].target != pair[1].source {
            return Err(CatalogError::ChainMismatch {
                left: pair[0].path.last().cloned().unwrap_or_default(),
                right: pair[1].path.first().cloned().unwrap_or_default(),
                expected: pair[0].target.clone(),
                found: pair[1].source.clone(),
            });
        }
    }

    let config_hash = hash_config(config);
    if segments.len() == 1 {
        let chain = segments.into_iter().next().expect("one segment");
        return Ok(ChainResult { chain, compose_calls: 0, cache_hits: 0, plan: vec![1] });
    }

    let mut compose_calls = 0usize;
    let mut cache_hits = 0usize;
    let mut plan = Vec::new();

    // Greedy run absorption: at each position, take the longest contiguous
    // run of links already memoised as one left-associated segment (cached
    // segment hashes are recomputable without retrieval — they are pure
    // functions of the link hashes and the configuration), then pay one
    // fold step to join it to the accumulator.
    let mut position = 0usize;
    let mut acc: Option<ComposedChain> = None;
    while position < segments.len() {
        let (run_len, run_key) = longest_cached_run(&segments, position, cache, config_hash);
        // Between `cache_contains` and `cache_lookup` a concurrent worker may
        // evict or invalidate the run; fall back to the single link — the
        // fold then pays pairwise compositions it hoped to skip, nothing
        // more.
        let (run_len, run) = match run_key.and_then(|key| cache.cache_lookup(key)) {
            Some(chain) => {
                cache_hits += 1;
                (run_len, chain)
            }
            None => (1, segments[position].clone()),
        };
        plan.push(run_len);
        position += run_len;
        let run_label = run.path.first().cloned().unwrap_or_default();
        let joined = match acc {
            None => run,
            Some(left) => fold_step(
                &left,
                &run,
                cache,
                registry,
                config,
                config_hash,
                &mut compose_calls,
                &mut cache_hits,
            )?,
        };
        // Strictness is checked here, after every step — including segments
        // served whole from the memo cache, which may have been composed
        // best-effort by an earlier (lenient) session.
        if options.require_complete && !joined.is_complete() {
            return Err(CatalogError::Incomplete {
                mapping: run_label,
                remaining: joined.residual.names(),
            });
        }
        acc = Some(joined);
    }

    let chain = acc.expect("non-empty chain");
    Ok(ChainResult { chain, compose_calls, cache_hits, plan })
}

/// Longest contiguous run of links starting at `start` that is memoised as a
/// single left-associated segment. Returns the run length (≥ 1) and, for
/// runs longer than one link, the memo key the whole run is stored under.
fn longest_cached_run<C: ChainCache + ?Sized>(
    segments: &[ComposedChain],
    start: usize,
    cache: &C,
    config_hash: u64,
) -> (usize, Option<crate::cache::MemoKey>) {
    let mut hash = segments[start].hash;
    let mut best = (1, None);
    for (offset, segment) in segments[start + 1..].iter().enumerate() {
        let key = (hash, segment.hash, config_hash);
        if !cache.cache_contains(&key) {
            break;
        }
        hash = combine(&[hash, segment.hash, config_hash]);
        best = (offset + 2, Some(key));
    }
    best
}

/// One fold step: serve from the memo cache or compose and memoise. The
/// result is cached even when incomplete — completeness policy is applied
/// by the caller, uniformly for cached and fresh segments.
#[allow(clippy::too_many_arguments)]
fn fold_step<C: ChainCache + ?Sized>(
    left: &ComposedChain,
    right: &ComposedChain,
    cache: &C,
    registry: &Registry,
    config: &ComposeConfig,
    config_hash: u64,
    compose_calls: &mut usize,
    cache_hits: &mut usize,
) -> Result<ComposedChain, CatalogError> {
    let key = (left.hash, right.hash, config_hash);
    if let Some(cached) = cache.cache_lookup(key) {
        *cache_hits += 1;
        return Ok(cached);
    }
    let composed = compose_pair(left, right, registry, config, compose_calls)?;
    cache.cache_insert(key, composed.clone());
    Ok(composed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::ShardedMemoCache;
    use mapcomp_algebra::parse_constraints;

    /// s0 --m0--> s1 --m1--> s2 --m2--> s3: unary copies, fully eliminable.
    fn chain_catalog() -> Catalog {
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
        catalog
    }

    fn names(prefix: &str, n: usize) -> Vec<String> {
        (0..n).map(|i| format!("{prefix}{i}")).collect()
    }

    #[test]
    fn cold_chain_performs_n_minus_one_compositions() {
        let catalog = chain_catalog();
        let cache = ShardedMemoCache::new(4, None);
        let registry = Registry::standard();
        let result = compose_chain_with(
            &catalog,
            &cache,
            &names("m", 3),
            &registry,
            &ComposeConfig::default(),
            &ChainOptions::default(),
        )
        .unwrap();
        assert_eq!(result.compose_calls, 2);
        assert_eq!(result.cache_hits, 0);
        assert!(result.is_complete());
        assert_eq!(result.chain.source, "s0");
        assert_eq!(result.chain.target, "s3");
        let text = result.chain.mapping.constraints.to_string();
        assert!(text.contains("R0") && text.contains("R3"), "composed: {text}");
        assert!(!text.contains("R1") && !text.contains("R2"), "composed: {text}");
    }

    #[test]
    fn warm_chain_is_free_and_extension_costs_one() {
        let catalog = chain_catalog();
        let cache = ShardedMemoCache::new(4, None);
        let registry = Registry::standard();
        let config = ComposeConfig::default();
        let options = ChainOptions::default();
        let cold =
            compose_chain_with(&catalog, &cache, &names("m", 2), &registry, &config, &options)
                .unwrap();
        assert_eq!(cold.compose_calls, 1);
        // Same chain again: all hits.
        let warm =
            compose_chain_with(&catalog, &cache, &names("m", 2), &registry, &config, &options)
                .unwrap();
        assert_eq!(warm.compose_calls, 0);
        assert_eq!(warm.cache_hits, 1);
        assert_eq!(warm.chain.hash, cold.chain.hash);
        // Extending by one link only pays for the new link.
        let extended =
            compose_chain_with(&catalog, &cache, &names("m", 3), &registry, &config, &options)
                .unwrap();
        assert_eq!(extended.compose_calls, 1);
        assert_eq!(extended.cache_hits, 1);
    }

    #[test]
    fn different_configs_do_not_share_cache_entries() {
        let catalog = chain_catalog();
        let cache = ShardedMemoCache::new(4, None);
        let registry = Registry::standard();
        let options = ChainOptions::default();
        compose_chain_with(
            &catalog,
            &cache,
            &names("m", 3),
            &registry,
            &ComposeConfig::default(),
            &options,
        )
        .unwrap();
        let ablated = compose_chain_with(
            &catalog,
            &cache,
            &names("m", 3),
            &registry,
            &ComposeConfig::without_right_compose(),
            &options,
        )
        .unwrap();
        assert_eq!(ablated.compose_calls, 2, "ablated config must not reuse full-config entries");
    }

    #[test]
    fn mismatched_chain_is_rejected() {
        let catalog = chain_catalog();
        let cache = ShardedMemoCache::new(4, None);
        let registry = Registry::standard();
        let err = compose_chain_with(
            &catalog,
            &cache,
            &["m0".to_string(), "m2".to_string()],
            &registry,
            &ComposeConfig::default(),
            &ChainOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, CatalogError::ChainMismatch { .. }));
    }

    #[test]
    fn require_complete_rejects_recursive_links() {
        let mut catalog = Catalog::new();
        catalog.add_schema("a", Signature::from_arities([("R", 2)]));
        catalog.add_schema("b", Signature::from_arities([("S", 2)]));
        catalog.add_schema("c", Signature::from_arities([("T", 2)]));
        catalog
            .add_mapping("m1", "a", "b", parse_constraints("R <= S; S = tc(S)").unwrap())
            .unwrap();
        catalog.add_mapping("m2", "b", "c", parse_constraints("S <= T").unwrap()).unwrap();
        let cache = ShardedMemoCache::new(4, None);
        let registry = Registry::standard();
        let chain = vec!["m1".to_string(), "m2".to_string()];
        // Best effort: succeeds with a residual.
        let best = compose_chain_with(
            &catalog,
            &cache,
            &chain,
            &registry,
            &ComposeConfig::default(),
            &ChainOptions::default(),
        )
        .unwrap();
        assert!(!best.is_complete());
        assert!(best.chain.residual.contains("S"));
        // Strict: the same chain errors.
        let cache = ShardedMemoCache::new(4, None);
        let err = compose_chain_with(
            &catalog,
            &cache,
            &chain,
            &registry,
            &ComposeConfig::default(),
            &ChainOptions { require_complete: true },
        )
        .unwrap_err();
        assert!(matches!(err, CatalogError::Incomplete { .. }));
    }

    #[test]
    fn shared_relations_pass_through_evolution_style_chains() {
        // v0 = {Keep, Old}; v1 = {Keep, Mid}; v2 = {Keep, New}: `Keep` is
        // carried through unchanged and must not be eliminated.
        let mut catalog = Catalog::new();
        catalog.add_schema("v0", Signature::from_arities([("Keep", 1), ("Old", 1)]));
        catalog.add_schema("v1", Signature::from_arities([("Keep", 1), ("Mid", 1)]));
        catalog.add_schema("v2", Signature::from_arities([("Keep", 1), ("New", 1)]));
        catalog.add_mapping("e1", "v0", "v1", parse_constraints("Old <= Mid").unwrap()).unwrap();
        catalog.add_mapping("e2", "v1", "v2", parse_constraints("Mid <= New").unwrap()).unwrap();
        let cache = ShardedMemoCache::new(4, None);
        let registry = Registry::standard();
        let result = compose_chain_with(
            &catalog,
            &cache,
            &["e1".to_string(), "e2".to_string()],
            &registry,
            &ComposeConfig::default(),
            &ChainOptions::default(),
        )
        .unwrap();
        assert!(result.is_complete());
        assert!(result.chain.mapping.input.contains("Keep"));
        let text = result.chain.mapping.constraints.to_string();
        assert!(text.contains("Old") && text.contains("New"), "composed: {text}");
        assert!(!text.contains("Mid"), "Mid must be eliminated: {text}");
    }

    #[test]
    fn mid_chain_cached_runs_are_absorbed() {
        let catalog = chain_catalog();
        let cache = ShardedMemoCache::new(4, None);
        let registry = Registry::standard();
        let config = ComposeConfig::default();
        let options = ChainOptions::default();
        // Warm the sub-chain m1 ∘ m2 explicitly.
        compose_chain_with(&catalog, &cache, &names("m", 3)[1..], &registry, &config, &options)
            .unwrap();
        // The full chain absorbs the cached run: one lookup, one new
        // composition joining m0 to it.
        let result =
            compose_chain_with(&catalog, &cache, &names("m", 3), &registry, &config, &options)
                .unwrap();
        assert_eq!(result.plan, vec![1, 2], "m0 alone, then the cached m1∘m2 run");
        assert_eq!(result.compose_calls, 1);
        assert_eq!(result.cache_hits, 1);
        assert!(result.is_complete());
    }
}
