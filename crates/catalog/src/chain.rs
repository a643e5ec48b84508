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
//! The probe runs on stored hashes alone: memo keys are pure functions of
//! the link hashes and the configuration, so the driver reads each link's
//! `(hash, source, target)` ([`LinkSource::link_edge`]) to check adjacency
//! and find cached runs, and materialises a link ([`LinkSource::link`]) only
//! when it folds that link alone. A fully memoised chain is served without
//! materialising any link ([`ChainResult::links_materialized`] is 0). A
//! materialised link's own hash keys the fold step it enters, so a link
//! edited between probe and fold is keyed by the content actually composed.
//!
//! Intermediate symbols that resist elimination ride along in the
//! [`ChainSegment::residual`] signature and are retried at a later fold step
//! when their constraints changed, mirroring how the paper's editing
//! scenario recovers leftover symbols in later compositions. Each segment
//! keeps, in memory only, the fingerprint of what each residual symbol
//! failed on ([`ComposedChain::known_failures`]); a fold step whose inputs
//! leave a symbol's constraints unchanged reports it failed again without
//! re-running ELIMINATE, with the same result. A segment restored from the
//! sidecar has no fingerprints and retries everything once.
//!
//! A composed segment is an immutable value shared by reference: the memo
//! cache, the fold accumulator and every reader hold the same allocation,
//! and cloning a [`ComposedChain`] bumps a reference count. Its provenance
//! is the path it was composed along ([`SegmentPath`]): a link's name, or one node
//! joining its two inputs' paths by reference. A fold step adds one node
//! whatever the length of the chain, every name is the catalog's shared
//! [`Name`], and [`ChainSegment::deps`] is derived from the path.

use std::collections::BTreeSet;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

use mapcomp_algebra::{AlgebraError, ConstraintSet, Mapping, Signature};
use mapcomp_compose::{
    compose_constraints_skipping, ComposeConfig, ComposeStats, KnownFailure, Registry,
};

use crate::cache::ChainCache;
use crate::error::CatalogError;
use crate::hash::{combine, hash_config, ContentHash};
use crate::store::{Catalog, MappingEntry, Name};

/// A source of single-link chain segments by mapping name. Implemented by
/// the single-threaded [`Catalog`] and by [`crate::shared::SharedCatalog`],
/// which runs the `Catalog` impl under its read guard, so the chain driver
/// composes over either without caring which store backs it. Each call
/// reads one state: a link's mapping and both its schemas come from the
/// same revision of the catalog.
pub trait LinkSource {
    /// Materialise the named mapping as a one-link chain.
    fn link(&self, name: &str) -> Result<ComposedChain, CatalogError>;

    /// The named mapping's `(content hash, source, target)` — what the
    /// driver probes the memo cache with. Read from the stored hash, without
    /// materialising the link.
    fn link_edge(&self, name: &str) -> Result<(ContentHash, Name, Name), CatalogError>;
}

impl LinkSource for Catalog {
    fn link(&self, name: &str) -> Result<ComposedChain, CatalogError> {
        ComposedChain::from_entry(self, name)
    }

    fn link_edge(&self, name: &str) -> Result<(ContentHash, Name, Name), CatalogError> {
        self.mapping(name).map(MappingEntry::edge)
    }
}

/// The content of a (partially) composed chain segment: a mapping from the
/// path's source schema to its target schema, plus any intermediate symbols
/// that survived elimination, the content hash identifying the segment, and
/// the path of catalog mappings it was composed along (its provenance). It
/// has no `Clone`: a segment is shared through [`ComposedChain`], never
/// copied.
#[derive(Debug)]
pub struct ChainSegment {
    /// Source schema name.
    pub source: Name,
    /// Target schema name.
    pub target: Name,
    /// Mapping names along the path, in composition order.
    pub path: SegmentPath,
    /// The composed mapping: input = source schema, output = target schema.
    pub mapping: Mapping,
    /// Intermediate symbols (with arities) that could not be eliminated.
    pub residual: Signature,
    /// Content hash of this segment (pure function of the link hashes and
    /// the compose configuration).
    pub hash: u64,
    /// An explicit provenance, sorted and without repeats, kept only where
    /// it differs from the path's names (a sidecar entry loaded with such a
    /// `deps` line); `None` means the provenance is the path, which is the
    /// case for every segment the driver composes.
    pub provenance: Option<Box<[Name]>>,
}

/// A composed chain segment, shared by reference: an immutable
/// [`ChainSegment`] (its fields read through `Deref`) plus the in-memory
/// [`KnownFailure`]s of its residual symbols. Cloning is a reference-count
/// bump.
#[derive(Debug, Clone)]
pub struct ComposedChain(Arc<Composed>);

#[derive(Debug)]
struct Composed {
    segment: ChainSegment,
    failures: Box<[KnownFailure]>,
}

impl Deref for ComposedChain {
    type Target = ChainSegment;

    fn deref(&self) -> &ChainSegment {
        &self.0.segment
    }
}

/// A segment with no known failures: a link, or a segment restored from the
/// sidecar or a wire payload.
impl From<ChainSegment> for ComposedChain {
    fn from(segment: ChainSegment) -> Self {
        ComposedChain::new(segment, Box::default())
    }
}

impl ComposedChain {
    fn new(segment: ChainSegment, failures: Box<[KnownFailure]>) -> Self {
        ComposedChain(Arc::new(Composed { segment, failures }))
    }

    /// Do both handles share one allocation?
    pub fn ptr_eq(a: &ComposedChain, b: &ComposedChain) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }

    /// What each residual symbol failed on, for the fold step that retries
    /// it. Never persisted.
    pub fn known_failures(&self) -> &[KnownFailure] {
        &self.0.failures
    }

    /// Lift a single catalog mapping into a one-link chain.
    pub fn from_entry(catalog: &Catalog, name: &str) -> Result<Self, CatalogError> {
        let entry = catalog.mapping(name)?;
        let mapping = catalog.materialize(name)?;
        Ok(ChainSegment {
            source: entry.source.clone(),
            target: entry.target.clone(),
            path: SegmentPath::link(entry.name.clone()),
            mapping,
            residual: Signature::new(),
            hash: entry.hash.0,
            provenance: None,
        }
        .into())
    }
}

/// The path of catalog mappings a segment was composed along, in
/// composition order: one link's name, or a node joining the paths of the
/// two segments a fold step composed. A node shares its inputs' paths by
/// reference, so a k-link left fold holds k names in k − 1 nodes in all,
/// where copying each prefix's names would hold k²/2. Reading the names
/// walks the nodes ([`SegmentPath::iter`]); two paths are equal when they name the
/// same mappings in the same order, whatever their nodes.
#[derive(Clone)]
pub struct SegmentPath(Step);

#[derive(Clone)]
enum Step {
    Link(Name),
    Node(Arc<Node>),
}

enum Node {
    /// Two paths end to end, and the length of the whole.
    Join(SegmentPath, SegmentPath, u32),
    /// Names read whole, with no record of how they were joined (a sidecar
    /// `path` line written in full, a wire payload).
    Names(Box<[Name]>),
}

impl SegmentPath {
    /// The path of one link.
    pub fn link(name: Name) -> SegmentPath {
        SegmentPath(Step::Link(name))
    }

    /// `left` followed by `right`: one node sharing both.
    pub fn concat(left: &SegmentPath, right: &SegmentPath) -> SegmentPath {
        let len = u32::try_from(left.len() + right.len()).unwrap_or(u32::MAX);
        SegmentPath(Step::Node(Arc::new(Node::Join(left.clone(), right.clone(), len))))
    }

    /// The two paths this one joins, when it was composed from them.
    pub fn halves(&self) -> Option<(&SegmentPath, &SegmentPath)> {
        match &self.0 {
            Step::Node(node) => match &**node {
                Node::Join(left, right, _) => Some((left, right)),
                Node::Names(_) => None,
            },
            Step::Link(_) => None,
        }
    }

    /// The link's name, when this is the path of a single link.
    pub fn as_link(&self) -> Option<&Name> {
        match &self.0 {
            Step::Link(name) => Some(name),
            Step::Node(_) => None,
        }
    }

    /// Number of names along the path.
    pub fn len(&self) -> usize {
        match &self.0 {
            Step::Link(_) => 1,
            Step::Node(node) => match &**node {
                Node::Join(_, _, len) => *len as usize,
                Node::Names(names) => names.len(),
            },
        }
    }

    /// Does the path name no mapping?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The names along the path, in composition order.
    pub fn iter(&self) -> PathNames<'_> {
        PathNames { pending: vec![self], names: Default::default() }
    }

    /// The names joined by `separator`.
    pub fn join(&self, separator: &str) -> String {
        let mut out = String::new();
        for (index, name) in self.iter().enumerate() {
            if index > 0 {
                out.push_str(separator);
            }
            out.push_str(name);
        }
        out
    }

    /// The first name along the path.
    pub fn first(&self) -> Option<&Name> {
        let mut path = self;
        loop {
            match &path.0 {
                Step::Link(name) => return Some(name),
                Step::Node(node) => match &**node {
                    Node::Join(left, _, _) => path = left,
                    Node::Names(names) => return names.first(),
                },
            }
        }
    }

    /// The last name along the path.
    pub fn last(&self) -> Option<&Name> {
        let mut path = self;
        loop {
            match &path.0 {
                Step::Link(name) => return Some(name),
                Step::Node(node) => match &**node {
                    Node::Join(_, right, _) => path = right,
                    Node::Names(names) => return names.last(),
                },
            }
        }
    }

    /// Visit every node of the path not yet in `seen` (nodes by address),
    /// handing `held` each name such a node, or the path itself, holds
    /// directly: each name reference of a memo counted once however many
    /// segments share its node.
    pub(crate) fn held_names<'p>(
        &'p self,
        seen: &mut std::collections::HashSet<usize>,
        held: &mut impl FnMut(&'p Name),
    ) {
        let mut pending = vec![self];
        while let Some(path) = pending.pop() {
            match &path.0 {
                Step::Link(name) => held(name),
                Step::Node(node) => {
                    if !seen.insert(Arc::as_ptr(node) as usize) {
                        continue;
                    }
                    match &**node {
                        Node::Join(left, right, _) => pending.extend([right, left]),
                        Node::Names(names) => names.iter().for_each(&mut *held),
                    }
                }
            }
        }
    }

    /// The address of the path's node, if it has one: what identifies the
    /// node while a clone of the path is held.
    pub(crate) fn node_addr(&self) -> Option<usize> {
        match &self.0 {
            Step::Node(node) => Some(Arc::as_ptr(node) as usize),
            Step::Link(_) => None,
        }
    }
}

/// A path read whole: one name is a link, any other count a node without
/// a derivation.
impl FromIterator<Name> for SegmentPath {
    fn from_iter<I: IntoIterator<Item = Name>>(names: I) -> SegmentPath {
        let mut names: Vec<Name> = names.into_iter().collect();
        if names.len() == 1 {
            return SegmentPath::link(names.pop().expect("one name"));
        }
        SegmentPath(Step::Node(Arc::new(Node::Names(names.into_boxed_slice()))))
    }
}

/// The name at a position along the path, found by walking to it.
impl std::ops::Index<usize> for SegmentPath {
    type Output = Name;

    fn index(&self, position: usize) -> &Name {
        self.iter().nth(position).expect("a position along the path")
    }
}

/// The path naming no mapping.
impl Default for SegmentPath {
    fn default() -> SegmentPath {
        std::iter::empty().collect()
    }
}

impl<'p> IntoIterator for &'p SegmentPath {
    type Item = &'p Name;
    type IntoIter = PathNames<'p>;

    fn into_iter(self) -> PathNames<'p> {
        self.iter()
    }
}

impl PartialEq for SegmentPath {
    fn eq(&self, other: &SegmentPath) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl Eq for SegmentPath {}

/// The names, as a list.
impl fmt::Debug for SegmentPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The names separated by single spaces: the text of a sidecar `path` line.
impl fmt::Display for SegmentPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.join(" "))
    }
}

/// The names of a [`SegmentPath`], in composition order ([`SegmentPath::iter`]).
#[derive(Debug)]
pub struct PathNames<'p> {
    /// Paths still to read, the next one last.
    pending: Vec<&'p SegmentPath>,
    /// The rest of a node read whole.
    names: std::slice::Iter<'p, Name>,
}

impl<'p> Iterator for PathNames<'p> {
    type Item = &'p Name;

    fn next(&mut self) -> Option<&'p Name> {
        if let Some(name) = self.names.next() {
            return Some(name);
        }
        let mut path = self.pending.pop()?;
        loop {
            match &path.0 {
                Step::Link(name) => return Some(name),
                Step::Node(node) => match &**node {
                    Node::Join(left, right, _) => {
                        self.pending.push(right);
                        path = left;
                    }
                    Node::Names(names) => {
                        self.names = names.iter();
                        match self.names.next() {
                            Some(name) => return Some(name),
                            None => path = self.pending.pop()?,
                        }
                    }
                },
            }
        }
    }
}

impl ChainSegment {
    /// Did every intermediate symbol get eliminated?
    pub fn is_complete(&self) -> bool {
        self.residual.is_empty()
    }

    /// Names of the catalog mappings this segment depends on, in name
    /// order: the explicit provenance if there is one, else the path's
    /// names.
    pub fn deps(&self) -> BTreeSet<&str> {
        self.dependencies().map(|name| &**name).collect()
    }

    /// The shared names [`ChainSegment::deps`] is made of, in path (or
    /// provenance) order; a name the path repeats comes once per
    /// occurrence.
    pub(crate) fn dependencies(&self) -> impl Iterator<Item = &Name> {
        let (explicit, path) = match &self.provenance {
            Some(deps) => (Some(deps.iter()), None),
            None => (None, Some(self.path.iter())),
        };
        explicit.into_iter().flatten().chain(path.into_iter().flatten())
    }

    /// The explicit provenance to keep for a segment along `path` whose
    /// dependencies are `deps`: `None` when they are the path's names.
    pub fn provenance_of<'n>(
        path: &SegmentPath,
        deps: impl IntoIterator<Item = &'n Name>,
    ) -> Option<Box<[Name]>> {
        let deps: BTreeSet<&Name> = deps.into_iter().collect();
        let on_path: BTreeSet<&Name> = path.iter().collect();
        (deps != on_path).then(|| deps.into_iter().cloned().collect())
    }

    /// The signatures a chase through this segment runs over: the full
    /// signature (source ∪ target ∪ residual) and the target, where
    /// residual symbols are chased as auxiliary target relations (paper
    /// §1.3). Fails when two of them disagree on a symbol's arity.
    pub fn chase_signatures(&self) -> Result<(Signature, Signature), AlgebraError> {
        let full =
            Signature::union_all([&self.mapping.input, &self.mapping.output, &self.residual])?;
        let mut target = self.mapping.output.clone();
        for (name, info) in self.residual.iter() {
            target.add(name.to_string(), info.clone());
        }
        Ok((full, target))
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
    /// [`LinkSource::link`] calls the fold made: one per link it folded
    /// alone (a warm chain served from the memo cache materialises none).
    pub links_materialized: usize,
    /// ELIMINATE runs over this request's pairwise compositions
    /// ([`ComposeStats::elimination_attempts`]).
    pub elimination_attempts: usize,
    /// Residual symbols reported failed without re-running ELIMINATE,
    /// because their constraints were unchanged
    /// ([`ComposeStats::unchanged_skips`]).
    pub unchanged_skips: usize,
}

impl ChainResult {
    /// Did every intermediate symbol get eliminated?
    pub fn is_complete(&self) -> bool {
        self.chain.is_complete()
    }
}

/// Compose two adjacent chain segments, eliminating the shared schema's
/// symbols and retrying residuals from both sides — except a residual whose
/// constraints are unchanged since it last failed, which is reported failed
/// again without re-running ELIMINATE. Returns the composed segment and the
/// statistics of its one pairwise composition.
///
/// The inputs are copied by reference only: constraints are shared
/// expression trees and signatures are copy-on-write, so a constraint that
/// no elimination touches ends up in the composed segment as the same
/// allocations as in its input, and a rewritten one shares every subtree
/// the rewrite left alone.
pub fn compose_pair(
    left: &ComposedChain,
    right: &ComposedChain,
    registry: &Registry,
    config: &ComposeConfig,
) -> Result<(ComposedChain, ComposeStats), CatalogError> {
    compose_pair_hashed(left, right, registry, config, hash_config(config))
}

/// [`compose_pair`] with `config`'s hash ([`hash_config`]) already
/// computed, as a chain fold computes it once for all its steps.
fn compose_pair_hashed(
    left: &ComposedChain,
    right: &ComposedChain,
    registry: &Registry,
    config: &ComposeConfig,
    config_hash: u64,
) -> Result<(ComposedChain, ComposeStats), CatalogError> {
    if left.target != right.source {
        return Err(CatalogError::ChainMismatch {
            left: left.path.last().map(ToString::to_string).unwrap_or_default(),
            right: right.path.first().map(ToString::to_string).unwrap_or_default(),
            expected: left.target.to_string(),
            found: right.source.to_string(),
        });
    }

    // Full signature: endpoint schemas, the shared intermediate schema, and
    // both residual carry-alongs, in one pass. Shared symbols must agree on
    // arity; the first disagreement in this order is the one reported.
    let full = Signature::union_all([
        &left.mapping.input,
        &left.mapping.output,
        &left.residual,
        &right.mapping.input,
        &right.residual,
        &right.mapping.output,
    ])?;

    // Symbols to eliminate: the intermediate schema plus residuals — except
    // symbols shared with an endpoint schema (evolution chains carry every
    // unchanged relation through; those are identity-linked, not
    // existential intermediates). Unique, in first-occurrence order; only
    // the names kept are copied.
    let keep =
        |name: &str| left.mapping.input.contains(name) || right.mapping.output.contains(name);
    let mut seen = BTreeSet::new();
    let symbols: Vec<String> =
        [&left.mapping.output, &right.mapping.input, &left.residual, &right.residual]
            .into_iter()
            .flat_map(|signature| signature.iter().map(|(name, _)| name))
            .filter(|name| !keep(name) && seen.insert(*name))
            .map(str::to_string)
            .collect();

    let mut constraints = left.mapping.constraints.clone().into_vec();
    constraints.extend(right.mapping.constraints.clone().into_vec());

    let known = [left.known_failures(), right.known_failures()];
    let result =
        compose_constraints_skipping(&full, &symbols, constraints, registry, config, &known);

    let mut residual = Signature::new();
    for name in &result.remaining {
        if let Some(info) = result.signature.get(name) {
            residual.add(name.clone(), info.clone());
        }
    }
    // A residual equal to an input's is that input's, shared like the
    // endpoint schemas.
    if let Some(input) =
        [&left.residual, &right.residual].into_iter().find(|input| **input == residual)
    {
        residual = input.clone();
    }

    // The segment is stored and shared as is: no spare capacity.
    let mut constraints = result.constraints.into_vec();
    constraints.shrink_to_fit();
    let mapping = Mapping::new(
        left.mapping.input.clone(),
        right.mapping.output.clone(),
        ConstraintSet::from_constraints(constraints),
    );

    // The provenance is the path; an explicit one only survives where an
    // input carries one.
    let path = SegmentPath::concat(&left.path, &right.path);
    let provenance = if left.provenance.is_some() || right.provenance.is_some() {
        ChainSegment::provenance_of(&path, left.dependencies().chain(right.dependencies()))
    } else {
        None
    };

    let segment = ChainSegment {
        source: left.source.clone(),
        target: right.target.clone(),
        path,
        mapping,
        residual,
        hash: combine(&[left.hash, right.hash, config_hash]),
        provenance,
    };
    Ok((ComposedChain::new(segment, result.failures.into_boxed_slice()), result.stats))
}

/// Compose a chain of catalog mappings (given by name, adjacent pairs must
/// share a schema) through any [`LinkSource`], reusing and populating a
/// shared [`ChainCache`]. Several workers may fold chains over one
/// shared store and one sharded cache at the same time. Cache
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
    if names.len() == 1 {
        let chain = store.link(&names[0])?;
        let tally = Tally { links_materialized: 1, ..Tally::default() };
        return Ok(tally.finish(chain, vec![1]));
    }
    let edges: Vec<(ContentHash, Name, Name)> =
        names.iter().map(|name| store.link_edge(name)).collect::<Result<_, _>>()?;
    for (index, pair) in edges.windows(2).enumerate() {
        let ((_, _, expected), (_, found, _)) = (&pair[0], &pair[1]);
        if expected != found {
            return Err(CatalogError::ChainMismatch {
                left: names[index].clone(),
                right: names[index + 1].clone(),
                expected: expected.to_string(),
                found: found.to_string(),
            });
        }
    }

    let hashes: Vec<u64> = edges.iter().map(|(hash, _, _)| hash.0).collect();
    let config_hash = hash_config(config);
    let mut tally = Tally::default();
    let mut plan = Vec::new();

    // Greedy run absorption: at each position, take the longest contiguous
    // run of links already memoised as one left-associated segment (cached
    // segment hashes are recomputable without retrieval — they are pure
    // functions of the link hashes and the configuration), then pay one
    // fold step to join it to the accumulator.
    let mut position = 0usize;
    let mut acc: Option<ComposedChain> = None;
    while position < names.len() {
        let (run_len, run_key) = longest_cached_run(&hashes, position, cache, config_hash);
        // Between `cache_contains` and `cache_lookup` a concurrent worker may
        // evict or invalidate the run; fall back to the single link — the
        // fold then pays pairwise compositions it hoped to skip, nothing
        // more.
        let (run_len, run) = match run_key.and_then(|key| cache.cache_lookup(key)) {
            Some(chain) => {
                tally.cache_hits += 1;
                (run_len, chain)
            }
            None => {
                tally.links_materialized += 1;
                (1, store.link(&names[position])?)
            }
        };
        plan.push(run_len);
        position += run_len;
        let run_label = run.path.first().map(ToString::to_string).unwrap_or_default();
        let joined = match acc {
            None => run,
            Some(left) => fold_step(&left, &run, cache, registry, config, config_hash, &mut tally)?,
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

    Ok(tally.finish(acc.expect("non-empty chain"), plan))
}

/// The work counters of one fold, reported in its [`ChainResult`].
#[derive(Default)]
struct Tally {
    compose_calls: usize,
    cache_hits: usize,
    links_materialized: usize,
    elimination_attempts: usize,
    unchanged_skips: usize,
}

impl Tally {
    fn finish(self, chain: ComposedChain, plan: Vec<usize>) -> ChainResult {
        ChainResult {
            chain,
            compose_calls: self.compose_calls,
            cache_hits: self.cache_hits,
            plan,
            links_materialized: self.links_materialized,
            elimination_attempts: self.elimination_attempts,
            unchanged_skips: self.unchanged_skips,
        }
    }
}

/// Longest contiguous run of links starting at `start` that is memoised as a
/// single left-associated segment, probed on the links' stored hashes.
/// Returns the run length (≥ 1) and, for runs longer than one link, the
/// memo key the whole run is stored under.
fn longest_cached_run<C: ChainCache + ?Sized>(
    hashes: &[u64],
    start: usize,
    cache: &C,
    config_hash: u64,
) -> (usize, Option<crate::cache::MemoKey>) {
    let mut hash = hashes[start];
    let mut best = (1, None);
    for (offset, &link) in hashes[start + 1..].iter().enumerate() {
        let key = (hash, link, config_hash);
        if !cache.cache_contains(&key) {
            break;
        }
        hash = combine(&[hash, link, config_hash]);
        best = (offset + 2, Some(key));
    }
    best
}

/// One fold step: serve from the memo cache or compose and memoise. The
/// result is cached even when incomplete — completeness policy is applied
/// by the caller, uniformly for cached and fresh segments.
fn fold_step<C: ChainCache + ?Sized>(
    left: &ComposedChain,
    right: &ComposedChain,
    cache: &C,
    registry: &Registry,
    config: &ComposeConfig,
    config_hash: u64,
    tally: &mut Tally,
) -> Result<ComposedChain, CatalogError> {
    let key = (left.hash, right.hash, config_hash);
    if let Some(cached) = cache.cache_lookup(key) {
        tally.cache_hits += 1;
        return Ok(cached);
    }
    let (composed, stats) = compose_pair_hashed(left, right, registry, config, config_hash)?;
    tally.compose_calls += 1;
    tally.elimination_attempts += stats.elimination_attempts;
    tally.unchanged_skips += stats.unchanged_skips;
    cache.cache_insert(key, composed.clone());
    Ok(composed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::ShardedMemoCache;
    use crate::persist::render_chain_document;
    use mapcomp_algebra::parse_constraints;
    use std::cell::RefCell;

    /// s0 --m0--> s1 --m1--> … --m{hops-1}--> s{hops}: unary copies, fully
    /// eliminable.
    fn chain_catalog(hops: usize) -> Catalog {
        let mut catalog = Catalog::new();
        for i in 0..=hops {
            catalog.add_schema(format!("s{i}"), Signature::from_arities([(format!("R{i}"), 1)]));
        }
        for i in 0..hops {
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
        let catalog = chain_catalog(3);
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
        assert_eq!(&*result.chain.source, "s0");
        assert_eq!(&*result.chain.target, "s3");
        let text = result.chain.mapping.constraints.to_string();
        assert!(text.contains("R0") && text.contains("R3"), "composed: {text}");
        assert!(!text.contains("R1") && !text.contains("R2"), "composed: {text}");
    }

    #[test]
    fn warm_chain_is_free_and_extension_costs_one() {
        let catalog = chain_catalog(3);
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
        let catalog = chain_catalog(3);
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
        let catalog = chain_catalog(3);
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
        let catalog = chain_catalog(3);
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

    /// A [`LinkSource`] that records every [`LinkSource::link`] call and
    /// probes on the catalog's stored hashes.
    struct CountingLinks<'a> {
        catalog: &'a Catalog,
        linked: RefCell<Vec<String>>,
    }

    impl<'a> CountingLinks<'a> {
        fn new(catalog: &'a Catalog) -> Self {
            CountingLinks { catalog, linked: RefCell::new(Vec::new()) }
        }

        fn take(&self) -> Vec<String> {
            std::mem::take(&mut *self.linked.borrow_mut())
        }
    }

    impl LinkSource for CountingLinks<'_> {
        fn link(&self, name: &str) -> Result<ComposedChain, CatalogError> {
            self.linked.borrow_mut().push(name.to_string());
            self.catalog.link(name)
        }

        fn link_edge(&self, name: &str) -> Result<(ContentHash, Name, Name), CatalogError> {
            self.catalog.link_edge(name)
        }
    }

    #[test]
    fn memoised_chain_materialises_no_link() {
        let catalog = chain_catalog(3);
        let links = CountingLinks::new(&catalog);
        let cache = ShardedMemoCache::new(4, None);
        let registry = Registry::standard();
        let (config, options) = (ComposeConfig::default(), ChainOptions::default());
        let cold = compose_chain_with(&links, &cache, &names("m", 3), &registry, &config, &options)
            .unwrap();
        assert_eq!(links.take(), names("m", 3), "a cold fold materialises every link once");
        assert_eq!(cold.links_materialized, 3);
        let warm = compose_chain_with(&links, &cache, &names("m", 3), &registry, &config, &options)
            .unwrap();
        assert!(links.take().is_empty(), "a fully memoised chain reads stored hashes only");
        assert_eq!(warm.links_materialized, 0);
        assert_eq!(warm.chain.hash, cold.chain.hash);
        assert_eq!((warm.plan, warm.compose_calls, warm.cache_hits), (vec![3], 0, 1));
        assert_eq!(render_chain_document(&warm.chain), render_chain_document(&cold.chain));
    }

    #[test]
    fn edited_chain_materialises_only_the_links_it_folds_alone() {
        let mut catalog = chain_catalog(5);
        let cache = ShardedMemoCache::new(4, None);
        let registry = Registry::standard();
        let (config, options) = (ComposeConfig::default(), ChainOptions::default());
        let path = names("m", 5);
        compose_chain_with(&catalog, &cache, &path, &registry, &config, &options).unwrap();
        catalog.update_mapping("m2", parse_constraints("R2 <= R3; R2 <= R2").unwrap()).unwrap();

        let links = CountingLinks::new(&catalog);
        let incremental =
            compose_chain_with(&links, &cache, &path, &registry, &config, &options).unwrap();
        // The cached m0∘m1 prefix is absorbed; m2 (edited), m3 and m4 are
        // folded alone, each materialised once.
        assert_eq!(incremental.plan, vec![2, 1, 1, 1]);
        assert_eq!(links.take(), ["m2", "m3", "m4"]);
        assert_eq!(incremental.links_materialized, 3);
        assert_eq!((incremental.compose_calls, incremental.cache_hits), (3, 1));

        let cold_cache = ShardedMemoCache::new(4, None);
        let cold =
            compose_chain_with(&catalog, &cold_cache, &path, &registry, &config, &options).unwrap();
        assert_eq!(cold.compose_calls, 4);
        assert_eq!(incremental.chain.hash, cold.chain.hash);
        assert_eq!(render_chain_document(&incremental.chain), render_chain_document(&cold.chain));
    }

    #[test]
    fn probe_errors_match_materialised_errors() {
        let catalog = chain_catalog(3);
        let links = CountingLinks::new(&catalog);
        let cache = ShardedMemoCache::new(4, None);
        let registry = Registry::standard();
        let (config, options) = (ComposeConfig::default(), ChainOptions::default());
        let unknown = vec!["m0".to_string(), "nope".to_string()];
        assert_eq!(
            compose_chain_with(&links, &cache, &unknown, &registry, &config, &options).unwrap_err(),
            CatalogError::UnknownMapping("nope".to_string())
        );
        let gap = vec!["m0".to_string(), "m2".to_string()];
        assert_eq!(
            compose_chain_with(&links, &cache, &gap, &registry, &config, &options).unwrap_err(),
            CatalogError::ChainMismatch {
                left: "m0".to_string(),
                right: "m2".to_string(),
                expected: "s1".to_string(),
                found: "s2".to_string(),
            }
        );
        assert!(links.take().is_empty(), "a rejected chain materialises nothing");
    }
}
