//! The memo cache: content-addressed pairwise compositions with
//! dependency-tracked invalidation and bounded capacity.
//!
//! Every pairwise composition performed by the chain driver is stored under
//! the key `(left-hash, right-hash, config-hash)`. Because hashes are
//! content hashes, an edited mapping simply never *hits* its old entries —
//! but stale entries would still accumulate without bound, and a catalog
//! serving "what depends on m?" queries needs provenance anyway. So every
//! entry's segment carries the path of catalog mappings it was composed
//! along (its provenance, in the spirit of Grahne & Thomo's annotated
//! rewritings), and [`MemoCache::invalidate`] drops exactly the entries
//! whose provenance mentions an edited mapping, leaving unrelated prefixes
//! warm. The dependency index keys the segments' own shared names and keeps
//! one hash set of entry keys per name, so an invalidation, eviction or
//! removal touches only the entries concerned: unindexing an entry costs
//! one constant-time removal per name of its provenance.
//!
//! Within a long session the cache can also be given a capacity
//! ([`MemoCache::with_capacity`]): once the number of live entries would
//! exceed it, the least-recently-used entry is evicted (and counted in
//! [`CacheStats::evictions`]). Losing an entry costs one recomposition,
//! never correctness.
//!
//! Statistics are cumulative across sidecar persistence and are kept in two
//! parts: a *restored baseline* (the counters carried over from a persisted
//! sidecar) and the *live* counters of this process. [`MemoCache::stats`]
//! reports their sum; [`MemoCache::restore_stats`] replaces the baseline and
//! zeroes the live part, so replaying persisted entries — and trimming them
//! to a smaller capacity — can never double-count events the baseline
//! already includes, no matter how many restore/flush cycles one process
//! performs.
//!
//! For concurrent sessions, [`ShardedMemoCache`] stripes the same structure
//! across per-segment mutexes (segment = hash of the memo key), so parallel
//! workers composing disjoint chains rarely contend; [`ShardedMemoCache::stats`]
//! merges the per-segment counters while holding every segment lock, so the
//! merged snapshot is atomic. The chain driver reaches it through the
//! [`ChainCache`] shared-reference trait.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::{Mutex, MutexGuard, PoisonError};

use mapcomp_telemetry::metrics::{global, Counter};

use crate::chain::ComposedChain;
use crate::hash::combine;
use crate::store::Name;

/// Key of one memoised pairwise composition.
pub type MemoKey = (u64, u64, u64);

/// One cached pairwise composition plus its provenance.
#[derive(Debug, Clone)]
pub struct MemoEntry {
    /// The composed chain segment.
    pub chain: ComposedChain,
    /// How many times this entry has been served.
    pub hits: u64,
    /// Recency stamp (monotone per cache); larger = more recently used.
    last_used: u64,
}

/// Cache statistics (cumulative; survive sidecar persistence).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found an entry.
    pub hits: usize,
    /// Lookups that found nothing.
    pub misses: usize,
    /// Entries inserted.
    pub insertions: usize,
    /// Entries dropped by invalidation.
    pub invalidated: usize,
    /// Entries dropped by LRU capacity eviction.
    pub evictions: usize,
}

impl CacheStats {
    /// The element-wise (saturating) sum of two counter sets — the merge
    /// applied across sharded segments and between a restored baseline and
    /// the live counters of this process.
    pub fn merged(self, other: CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_add(other.hits),
            misses: self.misses.saturating_add(other.misses),
            insertions: self.insertions.saturating_add(other.insertions),
            invalidated: self.invalidated.saturating_add(other.invalidated),
            evictions: self.evictions.saturating_add(other.evictions),
        }
    }

    /// The element-wise (saturating) difference `self - earlier`: the
    /// increments observed since an earlier snapshot of the same counters.
    /// This is what the incremental persistence layer appends as a
    /// `delta stats` record instead of rewriting the absolute totals.
    pub fn delta_since(self, earlier: CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            insertions: self.insertions.saturating_sub(earlier.insertions),
            invalidated: self.invalidated.saturating_sub(earlier.invalidated),
            evictions: self.evictions.saturating_sub(earlier.evictions),
        }
    }

    /// Are all counters zero?
    pub fn is_zero(&self) -> bool {
        *self == CacheStats::default()
    }
}

/// One cache mutation observed since the last [`MemoCache::take_events`]
/// drain. The incremental persistence layer replays these as appended
/// sidecar records (`entry` blocks for insertions, `delta evict` lines for
/// removals) so durability stays proportional to the change. Only the *last*
/// event per key matters to a consumer — the key is either live (persist its
/// current entry) or gone (persist an eviction).
///
/// An invalidation journals no per-key removals: its caller persists it as
/// one `delta invalidate` record, which replays the whole drop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheEvent {
    /// An entry was inserted (or replaced) under this key.
    Inserted(MemoKey),
    /// The entry under this key was dropped by an LRU eviction, an
    /// explicit removal or a [`MemoCache::clear`].
    Removed(MemoKey),
}

/// The cache interface of the chain driver, through a shared reference so a
/// cache can be consulted concurrently. Implementations may decline to retain an insertion and may
/// drop entries at any time — the driver treats every lookup miss as "pay
/// one pairwise composition", never as an error.
pub trait ChainCache {
    /// Look up a pairwise composition, counting a hit or miss.
    fn cache_lookup(&self, key: MemoKey) -> Option<ComposedChain>;
    /// Probe without touching statistics or recency.
    fn cache_contains(&self, key: &MemoKey) -> bool;
    /// Insert a composed segment under its key.
    fn cache_insert(&self, key: MemoKey, chain: ComposedChain);
}

/// Content-addressed memo cache with dependency-tracked invalidation and
/// optional LRU capacity.
#[derive(Debug, Clone, Default)]
pub struct MemoCache {
    entries: BTreeMap<MemoKey, MemoEntry>,
    /// Mapping name → keys of the entries whose provenance mentions it.
    /// The name is an entry's own shared allocation; a name leaves the
    /// index with its last entry.
    by_dependency: HashMap<Name, HashSet<MemoKey>>,
    /// Recency stamp → key, for O(log n) LRU eviction.
    recency: BTreeMap<u64, MemoKey>,
    tick: u64,
    capacity: Option<usize>,
    /// Counters of events observed by this cache instance.
    stats: CacheStats,
    /// Baseline carried over from a persisted sidecar (see
    /// [`MemoCache::restore_stats`]); already includes every event the
    /// persisting process observed.
    restored: CacheStats,
    /// Mutation journal for incremental persistence (`None` = disabled, the
    /// default — a cache that is never drained must not grow a log).
    journal: Option<Vec<CacheEvent>>,
}

impl MemoCache {
    /// Create an empty, unbounded cache.
    pub fn new() -> Self {
        MemoCache::default()
    }

    /// Create an empty cache holding at most `capacity` entries (`None` for
    /// unbounded).
    pub fn with_capacity(capacity: Option<usize>) -> Self {
        MemoCache { capacity, ..MemoCache::default() }
    }

    /// The configured capacity, if any.
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Cumulative statistics: the restored baseline plus everything observed
    /// by this instance.
    pub fn stats(&self) -> CacheStats {
        self.restored.merged(self.stats)
    }

    /// Adopt persisted cumulative counters as the new baseline, zeroing the
    /// live counters. The baseline is *replaced*, not added: the persisted
    /// counters already include every event up to the flush that wrote them
    /// — in particular the insertions counted while replaying the sidecar's
    /// entries into this cache, and any evictions from trimming the replay
    /// to a smaller capacity — so a restore followed by a re-flush in the
    /// same process cannot double-count.
    pub fn restore_stats(&mut self, stats: CacheStats) {
        self.restored = stats;
        self.stats = CacheStats::default();
    }

    /// Start journaling mutations for incremental persistence. Until the
    /// first [`MemoCache::take_events`] drain, events accumulate; a cache
    /// whose owner never drains should leave the journal disabled.
    pub fn enable_journal(&mut self) {
        if self.journal.is_none() {
            self.journal = Some(Vec::new());
        }
    }

    /// Drain the mutation journal (empty when journaling is disabled).
    /// Events are in mutation order, so the last event per key reflects the
    /// key's current liveness.
    pub fn take_events(&mut self) -> Vec<CacheEvent> {
        match &mut self.journal {
            Some(journal) => std::mem::take(journal),
            None => Vec::new(),
        }
    }

    /// Put drained events back at the *front* of the journal (they are
    /// older than anything recorded since the drain), so a persister whose
    /// write failed can hand its batch back instead of losing it. No-op
    /// when journaling is disabled.
    pub fn requeue_events(&mut self, events: Vec<CacheEvent>) {
        if let Some(journal) = &mut self.journal {
            journal.splice(0..0, events);
        }
    }

    fn record(&mut self, event: CacheEvent) {
        if let Some(journal) = &mut self.journal {
            journal.push(event);
        }
    }

    /// Index an entry under each name of its provenance.
    fn index(&mut self, key: MemoKey, chain: &ComposedChain) {
        for name in chain.dependencies() {
            self.by_dependency.entry(name.clone()).or_default().insert(key);
        }
    }

    /// Take an entry's key out of its provenance names' sets; a set left
    /// empty leaves the index with its name.
    fn unindex(&mut self, key: &MemoKey, chain: &ComposedChain) {
        for name in chain.dependencies() {
            let Some(keys) = self.by_dependency.get_mut(name) else { continue };
            keys.remove(key);
            if keys.is_empty() {
                self.by_dependency.remove(name);
            }
        }
    }

    fn touch(&mut self, key: MemoKey) {
        self.tick += 1;
        let tick = self.tick;
        if let Some(entry) = self.entries.get_mut(&key) {
            self.recency.remove(&entry.last_used);
            entry.last_used = tick;
            self.recency.insert(tick, key);
        }
    }

    /// Evict least-recently-used entries until one more fits within the
    /// capacity.
    fn make_room(&mut self) {
        let Some(capacity) = self.capacity else { return };
        let limit = capacity.saturating_sub(1);
        let mut evicted = 0;
        while self.entries.len() > limit {
            let Some((&stamp, &key)) = self.recency.iter().next() else { break };
            self.recency.remove(&stamp);
            if let Some(entry) = self.entries.remove(&key) {
                self.unindex(&key, &entry.chain);
                self.record(CacheEvent::Removed(key));
                evicted += 1;
            }
        }
        self.stats.evictions += evicted;
    }

    /// Look up a pairwise composition; counts a hit or miss and refreshes
    /// the entry's recency.
    pub fn lookup(&mut self, key: MemoKey) -> Option<ComposedChain> {
        match self.entries.get_mut(&key) {
            Some(entry) => {
                entry.hits += 1;
                self.stats.hits += 1;
                let chain = entry.chain.clone();
                self.touch(key);
                Some(chain)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Peek without touching statistics (used by the chain driver to measure
    /// how much of a chain is already warm before choosing a fold order).
    pub fn contains(&self, key: &MemoKey) -> bool {
        self.entries.contains_key(key)
    }

    /// Peek at an entry's chain without touching statistics or recency (used
    /// by the incremental persister to render a freshly inserted entry).
    pub fn peek(&self, key: &MemoKey) -> Option<&ComposedChain> {
        self.entries.get(key).map(|entry| &entry.chain)
    }

    /// Drop one entry by key, unindexing its provenance; returns whether it
    /// existed. Used when replaying a persisted `delta evict` record — the
    /// removal is mechanical and counts toward no statistic (the replayed
    /// `stats` records already carry the original eviction counts).
    pub fn remove(&mut self, key: &MemoKey) -> bool {
        let Some(entry) = self.entries.remove(key) else { return false };
        self.recency.remove(&entry.last_used);
        self.unindex(key, &entry.chain);
        self.record(CacheEvent::Removed(*key));
        true
    }

    /// Insert a composed segment under its key, indexing its provenance.
    /// When the cache is at capacity, the least-recently-used entry is
    /// evicted first.
    pub fn insert(&mut self, key: MemoKey, chain: ComposedChain) {
        if self.capacity == Some(0) {
            return;
        }
        if let Some(previous) = self.entries.remove(&key) {
            self.recency.remove(&previous.last_used);
            self.unindex(&key, &previous.chain);
        }
        self.make_room();
        self.index(key, &chain);
        self.tick += 1;
        self.recency.insert(self.tick, key);
        self.entries.insert(key, MemoEntry { chain, hits: 0, last_used: self.tick });
        self.stats.insertions += 1;
        self.record(CacheEvent::Inserted(key));
    }

    /// Drop every entry whose provenance mentions `mapping`; returns how many
    /// entries were dropped. Entries not depending on the mapping — e.g. the
    /// prefix of a chain upstream of an edited link — survive. The drop is
    /// not journaled per key (see [`CacheEvent`]).
    pub fn invalidate(&mut self, mapping: &str) -> usize {
        let Some(keys) = self.by_dependency.remove(mapping) else { return 0 };
        let mut dropped = 0;
        for key in keys {
            if let Some(entry) = self.entries.remove(&key) {
                dropped += 1;
                self.recency.remove(&entry.last_used);
                // Unindex from the entry's other dependencies (the
                // mapping's own list is gone already).
                self.unindex(&key, &entry.chain);
            }
        }
        self.stats.invalidated += dropped;
        dropped
    }

    /// Entries whose provenance mentions `mapping` (the "what depends on m?"
    /// provenance query), in key order.
    pub fn dependents(&self, mapping: &str) -> Vec<&ComposedChain> {
        let mut keys: Vec<&MemoKey> =
            self.by_dependency.get(mapping).map(|keys| keys.iter().collect()).unwrap_or_default();
        keys.sort_unstable();
        keys.into_iter().filter_map(|key| self.entries.get(key)).map(|entry| &entry.chain).collect()
    }

    /// Every name this cache holds a reference to, one item per reference.
    fn names(&self) -> impl Iterator<Item = &Name> {
        let entries = self.entries.values().flat_map(|entry| {
            let chain = &entry.chain;
            let provenance = chain.provenance.as_deref().unwrap_or_default();
            [&chain.source, &chain.target].into_iter().chain(&chain.path[..]).chain(provenance)
        });
        entries.chain(self.by_dependency.keys())
    }

    /// Drop everything.
    pub fn clear(&mut self) {
        let dropped = self.entries.len();
        if self.journal.is_some() {
            let keys: Vec<MemoKey> = self.entries.keys().copied().collect();
            for key in keys {
                self.record(CacheEvent::Removed(key));
            }
        }
        self.entries.clear();
        // A fresh index: clearing a hash map keeps its table.
        self.by_dependency = HashMap::new();
        self.recency.clear();
        self.stats.invalidated += dropped;
    }

    /// Iterate over live entries in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&MemoKey, &MemoEntry)> {
        self.entries.iter()
    }

    /// Iterate over live entries from least- to most-recently used. The
    /// sidecar persists entries in this order so that a restored cache
    /// re-acquires the same eviction order (re-insertion assigns recency
    /// stamps in iteration order).
    pub fn iter_lru(&self) -> impl Iterator<Item = (&MemoKey, &MemoEntry)> {
        self.recency.values().filter_map(move |key| self.entries.get_key_value(key))
    }
}

/// A memo cache striped across independently locked LRU segments, safe to
/// share by reference between concurrent sessions or batch workers.
///
/// Each memo key maps to one segment (by key hash), so two workers touching
/// different chain segments take different locks; a capacity bound is split
/// evenly across segments (each segment evicts its own LRU tail). All
/// methods take `&self`; a poisoned segment (a worker panicked while holding
/// the lock) is recovered rather than propagated — per-entry state is always
/// internally consistent, and losing cache entries only ever costs
/// recomposition.
#[derive(Debug)]
pub struct ShardedMemoCache {
    segments: Vec<Mutex<MemoCache>>,
    /// Baseline adopted at construction (e.g. the stats of the single-thread
    /// cache this was sharded from); segment live counters add onto it.
    baseline: CacheStats,
    /// Per-segment counters on the global metrics registry
    /// (`catalog_cache_*_total{segment="i"}`). Handles are shared across
    /// every sharded cache in the process, so they tally process-wide
    /// traffic per segment index.
    telemetry: Vec<SegmentTelemetry>,
}

/// The hot-path counter handles for one cache segment.
#[derive(Debug)]
struct SegmentTelemetry {
    hits: &'static Counter,
    misses: &'static Counter,
    evictions: &'static Counter,
    invalidated: &'static Counter,
}

impl SegmentTelemetry {
    fn for_segment(index: usize) -> SegmentTelemetry {
        let segment = index.to_string();
        let labels = [("segment", segment.as_str())];
        let registry = global();
        SegmentTelemetry {
            hits: registry.counter(
                "catalog_cache_hits_total",
                "Memo-cache lookups served from cache, per segment.",
                &labels,
            ),
            misses: registry.counter(
                "catalog_cache_misses_total",
                "Memo-cache lookups that found nothing, per segment.",
                &labels,
            ),
            evictions: registry.counter(
                "catalog_cache_evictions_total",
                "Memo-cache entries evicted by the capacity bound, per segment.",
                &labels,
            ),
            invalidated: registry.counter(
                "catalog_cache_invalidated_total",
                "Memo-cache entries dropped by dependency invalidation, per segment.",
                &labels,
            ),
        }
    }
}

fn lock_segment(segment: &Mutex<MemoCache>) -> MutexGuard<'_, MemoCache> {
    segment.lock().unwrap_or_else(PoisonError::into_inner)
}

impl ShardedMemoCache {
    /// An empty sharded cache with `segments` stripes and an optional total
    /// capacity, split evenly across segments.
    pub fn new(segments: usize, capacity: Option<usize>) -> Self {
        let segments = segments.max(1);
        let per_segment = capacity.map(|total| total.div_ceil(segments));
        ShardedMemoCache {
            segments: (0..segments)
                .map(|_| Mutex::new(MemoCache::with_capacity(per_segment)))
                .collect(),
            baseline: CacheStats::default(),
            telemetry: (0..segments).map(SegmentTelemetry::for_segment).collect(),
        }
    }

    /// Shard an existing cache: its entries are distributed across segments
    /// in least-recently-used-first order (so every segment's eviction order
    /// follows the original recency) and its cumulative statistics become
    /// the baseline. The replay insertions are *not* counted on top — the
    /// baseline already includes them.
    pub fn from_cache(cache: MemoCache, segments: usize, capacity: Option<usize>) -> Self {
        let mut sharded = ShardedMemoCache::new(segments, capacity);
        sharded.baseline = cache.stats();
        for (key, entry) in cache.iter_lru() {
            let segment = sharded.segment_of(key);
            let mut guard = lock_segment(&sharded.segments[segment]);
            guard.insert(*key, entry.chain.clone());
        }
        for segment in &sharded.segments {
            lock_segment(segment).restore_stats(CacheStats::default());
        }
        sharded
    }

    fn segment_of(&self, key: &MemoKey) -> usize {
        (combine(&[key.0, key.1, key.2]) % self.segments.len() as u64) as usize
    }

    /// Number of segments.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Total number of live entries across segments.
    pub fn len(&self) -> usize {
        self.segments.iter().map(|segment| lock_segment(segment).len()).sum()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cumulative statistics: the baseline plus every segment's counters,
    /// summed while *all* segment locks are held so the merge is atomic with
    /// respect to concurrent workers.
    pub fn stats(&self) -> CacheStats {
        let guards: Vec<MutexGuard<'_, MemoCache>> =
            self.segments.iter().map(lock_segment).collect();
        guards.iter().fold(self.baseline, |acc, guard| acc.merged(guard.stats()))
    }

    /// Per-segment snapshots — `(entries, capacity, live stats)` for each
    /// segment in index order. The baseline is *not* folded in (it has no
    /// per-segment attribution); each tuple reflects only traffic since the
    /// sharded cache was constructed. Segments are locked one at a time, so
    /// the snapshot is per-segment-consistent, not globally atomic — fine
    /// for introspection, which is its only caller.
    pub fn segment_snapshots(&self) -> Vec<(usize, Option<usize>, CacheStats)> {
        self.segments
            .iter()
            .map(|segment| {
                let guard = lock_segment(segment);
                (guard.len(), guard.capacity(), guard.stats())
            })
            .collect()
    }

    /// Start journaling mutations on every segment (see
    /// [`MemoCache::enable_journal`]). Call this only when some owner drains
    /// the journal regularly via [`ShardedMemoCache::take_events`].
    pub fn enable_journal(&self) {
        for segment in &self.segments {
            lock_segment(segment).enable_journal();
        }
    }

    /// Drain every segment's mutation journal. A key always maps to the same
    /// segment, so per-key event order is preserved even though events from
    /// different segments interleave arbitrarily — consumers should keep the
    /// *last* event per key.
    pub fn take_events(&self) -> Vec<CacheEvent> {
        let mut events = Vec::new();
        for segment in &self.segments {
            events.append(&mut lock_segment(segment).take_events());
        }
        events
    }

    /// Peek at an entry's chain without touching statistics or recency.
    pub fn peek(&self, key: &MemoKey) -> Option<ComposedChain> {
        lock_segment(&self.segments[self.segment_of(key)]).peek(key).cloned()
    }

    /// Every name the memo holds a reference to — each entry's endpoints,
    /// path and explicit provenance, and each segment's dependency-index
    /// keys — one item per reference, for footprint accounting by
    /// allocation: the clones share the memo's allocations.
    pub fn names(&self) -> Vec<Name> {
        self.segments
            .iter()
            .flat_map(|segment| lock_segment(segment).names().cloned().collect::<Vec<_>>())
            .collect()
    }

    /// Put drained events back (see [`MemoCache::requeue_events`]): each
    /// event returns to the front of its key's segment journal, preserving
    /// per-key order relative to events recorded since the drain.
    pub fn requeue_events(&self, events: Vec<CacheEvent>) {
        let mut by_segment: Vec<Vec<CacheEvent>> = vec![Vec::new(); self.segments.len()];
        for event in events {
            let key = match event {
                CacheEvent::Inserted(key) | CacheEvent::Removed(key) => key,
            };
            by_segment[self.segment_of(&key)].push(event);
        }
        for (segment, batch) in self.segments.iter().zip(by_segment) {
            if !batch.is_empty() {
                lock_segment(segment).requeue_events(batch);
            }
        }
    }

    /// Drop every entry (in any segment) whose provenance mentions
    /// `mapping`; returns how many entries were dropped. Each segment is
    /// invalidated atomically; a concurrent worker may insert a new
    /// dependent entry *after* its segment was swept, which is
    /// indistinguishable from that worker running after the invalidation.
    pub fn invalidate(&self, mapping: &str) -> usize {
        self.segments
            .iter()
            .zip(&self.telemetry)
            .map(|(segment, telemetry)| {
                let dropped = lock_segment(segment).invalidate(mapping);
                telemetry.invalidated.add(dropped as u64);
                dropped
            })
            .sum()
    }

    /// Drop every entry in every segment, under all segment locks at once so
    /// concurrent workers see either the full cache or the empty one.
    /// Returns how many entries were dropped. Statistics count the drops as
    /// invalidations (this *is* a whole-cache invalidation — e.g. a
    /// replication follower discarding memoised chains before adopting a
    /// leader snapshot).
    pub fn clear(&self) -> usize {
        let mut guards: Vec<MutexGuard<'_, MemoCache>> =
            self.segments.iter().map(lock_segment).collect();
        let mut dropped = 0;
        for (guard, telemetry) in guards.iter_mut().zip(&self.telemetry) {
            let in_segment = guard.len();
            guard.clear();
            telemetry.invalidated.add(in_segment as u64);
            dropped += in_segment;
        }
        dropped
    }

    /// Clone-merge every segment into a single-threaded cache (used to
    /// persist a snapshot while workers may still be running). Entries are
    /// merged segment by segment in LRU order; cumulative statistics carry
    /// over exactly.
    pub fn collect(&self) -> MemoCache {
        let mut merged = MemoCache::new();
        let guards: Vec<MutexGuard<'_, MemoCache>> =
            self.segments.iter().map(lock_segment).collect();
        let mut stats = self.baseline;
        for guard in &guards {
            stats = stats.merged(guard.stats());
            for (key, entry) in guard.iter_lru() {
                merged.insert(*key, entry.chain.clone());
            }
        }
        merged.restore_stats(stats);
        merged
    }
}

impl ChainCache for ShardedMemoCache {
    fn cache_lookup(&self, key: MemoKey) -> Option<ComposedChain> {
        let segment = self.segment_of(&key);
        let found = lock_segment(&self.segments[segment]).lookup(key);
        let telemetry = &self.telemetry[segment];
        match found {
            Some(_) => telemetry.hits.incr(),
            None => telemetry.misses.incr(),
        }
        found
    }

    fn cache_contains(&self, key: &MemoKey) -> bool {
        lock_segment(&self.segments[self.segment_of(key)]).contains(key)
    }

    fn cache_insert(&self, key: MemoKey, chain: ComposedChain) {
        let segment = self.segment_of(&key);
        let mut guard = lock_segment(&self.segments[segment]);
        let evictions_before = guard.stats().evictions;
        guard.insert(key, chain);
        let evicted = guard.stats().evictions - evictions_before;
        drop(guard);
        self.telemetry[segment].evictions.add(evicted as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::ChainSegment;
    use mapcomp_algebra::{Mapping, Signature};

    fn segment(name: &str, deps: &[&str], hash: u64) -> ComposedChain {
        let path: Box<[Name]> = Box::new([name.into()]);
        let deps: Vec<Name> = deps.iter().map(|&dep| dep.into()).collect();
        ChainSegment {
            source: "a".into(),
            target: "b".into(),
            provenance: ChainSegment::provenance_of(&path, &deps),
            path,
            mapping: Mapping::default(),
            residual: Signature::new(),
            hash,
        }
        .into()
    }

    #[test]
    fn lookup_hits_and_misses_are_counted() {
        let mut cache = MemoCache::new();
        assert!(cache.lookup((1, 2, 3)).is_none());
        cache.insert((1, 2, 3), segment("m1", &["m1"], 9));
        assert!(cache.lookup((1, 2, 3)).is_some());
        assert_eq!(
            cache.stats(),
            CacheStats { hits: 1, misses: 1, insertions: 1, invalidated: 0, evictions: 0 }
        );
    }

    #[test]
    fn invalidation_drops_exactly_dependents() {
        let mut cache = MemoCache::new();
        cache.insert((1, 2, 0), segment("p1", &["m1", "m2"], 12));
        cache.insert((12, 3, 0), segment("p2", &["m1", "m2", "m3"], 123));
        cache.insert((7, 8, 0), segment("q", &["k1"], 78));
        assert_eq!(cache.len(), 3);
        // Editing m3 drops only the segment that includes it.
        assert_eq!(cache.invalidate("m3"), 1);
        assert_eq!(cache.len(), 2);
        assert!(cache.contains(&(1, 2, 0)));
        assert!(cache.contains(&(7, 8, 0)));
        // Editing m1 drops the remaining chain segment but not `q`.
        assert_eq!(cache.invalidate("m1"), 1);
        assert_eq!(cache.len(), 1);
        // Unknown mapping: nothing to drop.
        assert_eq!(cache.invalidate("zzz"), 0);
    }

    #[test]
    fn dependents_reports_provenance() {
        let mut cache = MemoCache::new();
        cache.insert((1, 2, 0), segment("p1", &["m1", "m2"], 12));
        cache.insert((12, 3, 0), segment("p2", &["m1", "m2", "m3"], 123));
        assert_eq!(cache.dependents("m1").len(), 2);
        assert_eq!(cache.dependents("m3").len(), 1);
        assert!(cache.dependents("nope").is_empty());
    }

    #[test]
    fn clear_counts_as_invalidation() {
        let mut cache = MemoCache::new();
        cache.insert((1, 2, 0), segment("p1", &["m1"], 12));
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats().invalidated, 1);
    }

    #[test]
    fn capacity_evicts_least_recently_used() {
        let mut cache = MemoCache::with_capacity(Some(2));
        cache.insert((1, 0, 0), segment("a", &["a"], 1));
        cache.insert((2, 0, 0), segment("b", &["b"], 2));
        // Touch `a` so `b` becomes the LRU entry.
        assert!(cache.lookup((1, 0, 0)).is_some());
        cache.insert((3, 0, 0), segment("c", &["c"], 3));
        assert_eq!(cache.len(), 2);
        assert!(cache.contains(&(1, 0, 0)));
        assert!(!cache.contains(&(2, 0, 0)), "LRU entry must be evicted");
        assert!(cache.contains(&(3, 0, 0)));
        assert_eq!(cache.stats().evictions, 1);
        // Eviction also unindexes provenance.
        assert!(cache.dependents("b").is_empty());
        // Re-inserting an existing key does not evict anything.
        cache.insert((3, 0, 0), segment("c", &["c"], 3));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn zero_capacity_caches_nothing() {
        let mut cache = MemoCache::with_capacity(Some(0));
        cache.insert((1, 0, 0), segment("a", &["a"], 1));
        assert!(cache.is_empty());
        assert!(cache.lookup((1, 0, 0)).is_none());
        let stats = cache.stats();
        assert_eq!(stats.insertions, 0);
        assert_eq!(stats.evictions, 0);
    }

    #[test]
    fn restored_stats_accumulate() {
        let mut cache = MemoCache::new();
        cache.restore_stats(CacheStats {
            hits: 10,
            misses: 5,
            insertions: 7,
            invalidated: 2,
            evictions: 1,
        });
        cache.insert((1, 0, 0), segment("a", &["a"], 1));
        assert!(cache.lookup((1, 0, 0)).is_some());
        let stats = cache.stats();
        assert_eq!(stats.hits, 11);
        assert_eq!(stats.insertions, 8);
        assert_eq!(stats.evictions, 1);
    }

    #[test]
    fn restore_replaces_the_baseline_instead_of_compounding() {
        // Replaying persisted entries and re-adopting the persisted counters
        // must leave the stats exactly at the persisted values, however many
        // restore cycles happen in one process.
        let persisted =
            CacheStats { hits: 3, misses: 4, insertions: 6, invalidated: 1, evictions: 2 };
        let mut cache = MemoCache::new();
        for round in 0..3 {
            for i in 0..4u64 {
                cache.insert((i, 0, 0), segment(&format!("m{i}"), &["m"], i));
            }
            cache.restore_stats(persisted);
            assert_eq!(cache.stats(), persisted, "round {round}: baseline must not compound");
        }
    }

    #[test]
    fn journal_records_mutations_and_requeue_restores_order() {
        let mut cache = MemoCache::with_capacity(Some(1));
        cache.enable_journal();
        cache.insert((1, 0, 0), segment("a", &["a"], 1));
        cache.insert((2, 0, 0), segment("b", &["b"], 2)); // evicts (1,0,0)
        assert_eq!(cache.invalidate("b"), 1, "journaled by its caller as one record, not per key");
        let drained = cache.take_events();
        assert_eq!(
            drained,
            vec![
                CacheEvent::Inserted((1, 0, 0)),
                CacheEvent::Removed((1, 0, 0)),
                CacheEvent::Inserted((2, 0, 0)),
            ]
        );
        assert!(cache.take_events().is_empty(), "drain is destructive");
        // A failed persist hands its batch back; newer events stay behind.
        cache.insert((3, 0, 0), segment("c", &["c"], 3));
        cache.requeue_events(drained.clone());
        let mut expected = drained;
        expected.push(CacheEvent::Inserted((3, 0, 0)));
        assert_eq!(cache.take_events(), expected, "requeued events come back first");
    }

    #[test]
    fn sharded_requeue_round_trips_through_segments() {
        let sharded = ShardedMemoCache::new(4, None);
        sharded.enable_journal();
        for i in 0..8u64 {
            sharded.cache_insert((i, 0, 0), segment(&format!("m{i}"), &["m"], i));
        }
        let drained = sharded.take_events();
        assert_eq!(drained.len(), 8);
        sharded.requeue_events(drained);
        assert_eq!(sharded.take_events().len(), 8, "requeued events drain again");
        assert!(sharded.take_events().is_empty());
    }

    #[test]
    fn sharded_cache_round_trips_entries_and_stats() {
        let mut cache = MemoCache::new();
        for i in 0..6u64 {
            cache.insert((i, 0, 0), segment(&format!("m{i}"), &[&format!("m{i}")], i));
        }
        assert!(cache.lookup((0, 0, 0)).is_some());
        let before = cache.stats();
        let sharded = ShardedMemoCache::from_cache(cache, 4, None);
        assert_eq!(sharded.segment_count(), 4);
        assert_eq!(sharded.len(), 6);
        assert_eq!(sharded.stats(), before, "sharding must not re-count replayed insertions");
        // Traffic through the trait surface is counted on top of the baseline.
        assert!(sharded.cache_lookup((0, 0, 0)).is_some());
        assert!(sharded.cache_lookup((99, 0, 0)).is_none());
        assert_eq!(sharded.stats().hits, before.hits + 1);
        assert_eq!(sharded.stats().misses, before.misses + 1);
        let merged = sharded.collect();
        assert_eq!(merged.len(), 6);
        assert_eq!(merged.stats().hits, before.hits + 1);
        assert!(merged.contains(&(5, 0, 0)));
    }

    #[test]
    fn sharded_invalidation_spans_segments() {
        let sharded = ShardedMemoCache::new(3, None);
        for i in 0..9u64 {
            sharded.cache_insert((i, 0, 0), segment(&format!("p{i}"), &["shared", "other"], i));
        }
        sharded.cache_insert((100, 0, 0), segment("q", &["solo"], 100));
        assert_eq!(sharded.invalidate("shared"), 9, "dependents dropped from every segment");
        assert_eq!(sharded.len(), 1);
        assert_eq!(sharded.stats().invalidated, 9);
        assert!(sharded.cache_contains(&(100, 0, 0)));
    }

    #[test]
    fn sharded_capacity_is_split_across_segments() {
        let sharded = ShardedMemoCache::new(2, Some(4));
        for i in 0..40u64 {
            sharded.cache_insert((i, 0, 0), segment(&format!("m{i}"), &["m"], i));
        }
        assert!(sharded.len() <= 4, "total live entries bounded by the split capacity");
        assert!(sharded.stats().evictions >= 36);
    }

    #[test]
    fn concurrent_segment_traffic_keeps_counters_consistent() {
        let sharded = ShardedMemoCache::new(4, None);
        std::thread::scope(|scope| {
            for worker in 0..4u64 {
                let sharded = &sharded;
                scope.spawn(move || {
                    for i in 0..50u64 {
                        let key = (worker * 1000 + i, 0, 0);
                        sharded.cache_insert(key, segment(&format!("w{worker}"), &["m"], i));
                        assert!(sharded.cache_lookup(key).is_some());
                    }
                });
            }
        });
        let stats = sharded.stats();
        assert_eq!(stats.insertions, 200);
        assert_eq!(stats.hits, 200);
        assert_eq!(sharded.len(), 200);
    }
}
