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
//! rewritings), and [`ShardedMemoCache::invalidate`] drops exactly the
//! entries whose provenance mentions an edited mapping, leaving unrelated
//! prefixes warm.
//!
//! The dependency index records how entries were derived, as bdbms tracks
//! dependencies between derived items: an entry is indexed under its two
//! direct inputs only — a link under the link's name, so an edit finds the
//! entries built on any version of it, and a memoised segment under that
//! segment's hash. An invalidation walks these derivation edges from the
//! edited mapping, so it costs a constant amount of index work per entry it
//! drops, and an entry's provenance costs two index references whatever
//! the length of its chain. One rule, applied by the index under its own
//! lock to every insertion (a live one or a sidecar replay), decides when
//! a derivation edge can be trusted: an entry is indexed under a segment
//! only while the cache *holds* that segment, live or kept (below). An
//! entry one of whose input segments is not held, or whose derivation is
//! unknown (a path loaded whole, an explicit provenance), is indexed under
//! each of its provenance names instead, and the index remembers which, so
//! the entry leaves by the edges it came in by.
//!
//! The cache can be given a capacity ([`ShardedMemoCache::new`]): once the
//! number of live entries would exceed it, the least-recently-used entry is
//! evicted (and counted in [`CacheStats::evictions`]). Losing an entry
//! costs one recomposition, never correctness. An evicted entry that other
//! entries were composed from keeps its derivation edges in the index, as a
//! *kept* entry, until its last consumer leaves, so an invalidation of its
//! inputs still reaches them. A session applies its capacity to a cache
//! already filled — a sidecar replayed in full — by trimming it in place,
//! which counts as no eviction.
//!
//! Statistics are cumulative across sidecar persistence: the cache keeps
//! one *baseline* (the counters carried over from a persisted sidecar),
//! and [`ShardedMemoCache::stats`] adds this process's counters onto it.
//! Adopting persisted counters replaces the baseline and zeroes the live
//! counters, so replaying persisted entries can never double-count events
//! the baseline already includes.
//!
//! The entries are striped across per-segment mutexes (segment = hash of
//! the memo key), so parallel workers composing disjoint chains rarely
//! contend on a lookup; the stripes share one dependency index, which an
//! insertion takes after its stripe. [`ShardedMemoCache::stats`] merges the
//! per-segment counters while holding every segment lock, so the merged
//! snapshot is atomic. The chain driver reaches the cache through the
//! [`ChainCache`] shared-reference trait.

use std::collections::{hash_map, BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::{Mutex, MutexGuard, PoisonError};

use mapcomp_telemetry::metrics::{global, Counter};

use crate::chain::{ChainSegment, ComposedChain, SegmentPath};
use crate::hash::combine;
use crate::store::Name;

/// Key of one memoised pairwise composition.
pub type MemoKey = (u64, u64, u64);

/// The hash of the segment memoised under `key`: the chain driver's segment
/// hash, and the hash a consumer's key names it by.
pub(crate) fn segment_hash(key: &MemoKey) -> u64 {
    combine(&[key.0, key.1, key.2])
}

/// One cached pairwise composition and its recency.
#[derive(Debug, Clone)]
struct MemoEntry {
    chain: ComposedChain,
    /// Recency stamp (monotone per stripe); larger = more recently used.
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

/// One cache mutation observed since the last
/// [`ShardedMemoCache::take_events`] drain. The incremental persistence
/// layer replays these as appended sidecar records (`entry` blocks for
/// insertions, `delta evict` lines for removals) so durability stays
/// proportional to the change. Only the *last* event per key matters to a
/// consumer — the key is either live (persist its current entry) or gone
/// (persist an eviction).
///
/// An invalidation journals no per-key removals: its caller persists it as
/// one `delta invalidate` record, which replays the whole drop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheEvent {
    /// An entry was inserted (or replaced) under this key.
    Inserted(MemoKey),
    /// The entry under this key was dropped by an LRU eviction, an
    /// explicit removal or a [`ShardedMemoCache::clear`].
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

/// What a memo entry was composed from, as the dependency index keys it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Input {
    /// A catalog mapping, by name: every version of it.
    Link(Name),
    /// A memoised segment, by hash.
    Segment(u64),
}

/// The two direct inputs of the entry `chain` under `key`, without
/// repeats, when its path records how it was composed and it has no
/// explicit provenance (which may name mappings no input shows).
fn derivation(key: &MemoKey, chain: &ChainSegment) -> Option<Vec<Input>> {
    let (left, right) = chain.path.halves().filter(|_| chain.provenance.is_none())?;
    let side = |path: &SegmentPath, hash: u64| match path.as_link() {
        Some(name) => Input::Link(name.clone()),
        None => Input::Segment(hash),
    };
    let mut inputs = vec![side(left, key.0), side(right, key.1)];
    inputs.dedup();
    Some(inputs)
}

/// Each name of the entry's provenance, without repeats.
fn provenance_inputs(chain: &ChainSegment) -> Vec<Input> {
    let names: BTreeSet<&Name> = chain.dependencies().collect();
    names.into_iter().map(|name| Input::Link(name.clone())).collect()
}

/// The keys of the entries composed from one input: one inline, more in a
/// vector.
#[derive(Debug, Clone)]
enum Consumers {
    One(MemoKey),
    Many(Vec<MemoKey>),
}

impl Consumers {
    fn keys(&self) -> &[MemoKey] {
        match self {
            Consumers::One(key) => std::slice::from_ref(key),
            Consumers::Many(keys) => keys,
        }
    }

    /// Add `key`, which is not among the keys yet: an entry is linked to
    /// each of its inputs once.
    fn push(&mut self, key: MemoKey) {
        match self {
            Consumers::One(first) => *self = Consumers::Many(vec![*first, key]),
            Consumers::Many(keys) => keys.push(key),
        }
    }

    /// Take `key` out; returns whether no key is left.
    fn remove(&mut self, key: &MemoKey) -> bool {
        match self {
            Consumers::One(only) => only == key,
            Consumers::Many(keys) => {
                keys.retain(|other| other != key);
                match keys[..] {
                    [] => true,
                    [only] => {
                        *self = Consumers::One(only);
                        false
                    }
                    _ => false,
                }
            }
        }
    }
}

/// The derivation edges of a memo: which entries were composed from which
/// inputs. Shared by every stripe of a [`ShardedMemoCache`].
#[derive(Debug, Default)]
struct DepIndex {
    /// Input → the keys of the entries, live or kept, composed from it.
    consumers: HashMap<Input, Consumers>,
    /// Evicted entries that live entries were composed from, by segment
    /// hash: their key and the inputs their edges leave from.
    kept: HashMap<u64, (MemoKey, Box<[Input]>)>,
    /// The live entries by segment hash: what a consumer's key names an
    /// input by ([`ShardedMemoCache::segment`]).
    live: HashMap<u64, ComposedChain>,
    /// The live entries indexed under their provenance names although their
    /// path records a derivation: an input segment was not held when they
    /// were inserted.
    by_name: HashSet<MemoKey>,
}

impl DepIndex {
    /// Does the cache hold the segment with this hash, live or kept for the
    /// entries composed from it: can an entry be indexed under it?
    fn holds(&self, hash: u64) -> bool {
        self.live.contains_key(&hash) || self.kept.contains_key(&hash)
    }

    /// The inputs to index the entry `chain` under `key` by: its derivation
    /// when the cache holds each segment it was composed from, else each
    /// name of its provenance.
    fn inputs_for(&mut self, key: MemoKey, chain: &ChainSegment) -> Vec<Input> {
        let held = |input: &Input| match input {
            Input::Link(_) => true,
            Input::Segment(hash) => self.holds(*hash),
        };
        match derivation(&key, chain) {
            Some(inputs) if inputs.iter().all(held) => inputs,
            Some(_) => {
                self.by_name.insert(key);
                provenance_inputs(chain)
            }
            None => provenance_inputs(chain),
        }
    }

    /// The live entry `chain` under `key` leaves the cache: the inputs it
    /// was indexed under.
    fn left(&mut self, key: &MemoKey, chain: &ChainSegment) -> Vec<Input> {
        self.live.remove(&segment_hash(key));
        match derivation(key, chain) {
            Some(inputs) if !self.by_name.remove(key) => inputs,
            _ => provenance_inputs(chain),
        }
    }

    fn link(&mut self, key: MemoKey, input: &Input) {
        match self.consumers.entry(input.clone()) {
            hash_map::Entry::Occupied(mut consumers) => consumers.get_mut().push(key),
            hash_map::Entry::Vacant(slot) => {
                slot.insert(Consumers::One(key));
            }
        }
    }

    /// Take `key` out of each input's consumers; a segment left with none
    /// is pushed on `orphans`.
    fn unlink<'i>(
        &mut self,
        key: &MemoKey,
        inputs: impl IntoIterator<Item = &'i Input>,
        orphans: &mut Vec<u64>,
    ) {
        for input in inputs {
            let Some(consumers) = self.consumers.get_mut(input) else { continue };
            if consumers.remove(key) {
                self.consumers.remove(input);
                if let Input::Segment(hash) = input {
                    orphans.push(*hash);
                }
            }
        }
    }

    /// Drop each kept entry among `orphans` that no entry consumes any
    /// more, and then, in turn, the kept entries it consumed.
    fn release(&mut self, mut orphans: Vec<u64>) {
        while let Some(hash) = orphans.pop() {
            if self.consumers.contains_key(&Input::Segment(hash)) {
                continue;
            }
            if let Some((key, inputs)) = self.kept.remove(&hash) {
                self.unlink(&key, &inputs[..], &mut orphans);
            }
        }
    }

    /// Index the entry `chain` inserted under `key`. `previous` is the live
    /// entry it replaced, if any; a kept entry under the key is live again.
    /// Edges the entry shares with what it replaces stay put.
    fn inserted(&mut self, key: MemoKey, chain: &ComposedChain, previous: Option<&ChainSegment>) {
        let hash = segment_hash(&key);
        let previous = match previous {
            Some(previous) => self.left(&key, previous),
            None => self.kept.remove(&hash).map(|(_, inputs)| inputs.into()).unwrap_or_default(),
        };
        let inputs = self.inputs_for(key, chain);
        self.live.insert(hash, chain.clone());
        for input in inputs.iter().filter(|input| !previous.contains(input)) {
            self.link(key, input);
        }
        let mut orphans = Vec::new();
        let gone = previous.iter().filter(|input| !inputs.contains(input));
        self.unlink(&key, gone, &mut orphans);
        self.release(orphans);
    }

    /// The live entry `chain` under `key` left the cache by an eviction or
    /// a removal: its edges stay while an entry consumes it.
    fn evicted(&mut self, key: MemoKey, chain: &ChainSegment) {
        let inputs = self.left(&key, chain);
        let hash = segment_hash(&key);
        if self.consumers.contains_key(&Input::Segment(hash)) {
            self.kept.insert(hash, (key, inputs.into()));
        } else {
            let mut orphans = Vec::new();
            self.unlink(&key, &inputs, &mut orphans);
            self.release(orphans);
        }
    }

    /// Drop every entry whose provenance mentions `mapping`, along the
    /// derivation edges: `take` removes a live entry and returns it, or
    /// returns `None` for a key that is not live.
    fn drop_dependents(
        &mut self,
        mapping: &str,
        mut take: impl FnMut(&MemoKey) -> Option<ComposedChain>,
    ) {
        let mut pending = vec![Input::Link(Name::from(mapping))];
        let mut orphans = Vec::new();
        while let Some(input) = pending.pop() {
            let Some(consumers) = self.consumers.remove(&input) else { continue };
            for key in consumers.keys() {
                let hash = segment_hash(key);
                let inputs = match take(key) {
                    Some(chain) => self.left(key, &chain),
                    None => {
                        self.kept.remove(&hash).map(|(_, inputs)| inputs.into()).unwrap_or_default()
                    }
                };
                self.unlink(key, inputs.iter().filter(|other| **other != input), &mut orphans);
                pending.push(Input::Segment(hash));
            }
        }
        self.release(orphans);
    }

    /// The keys, in key order, of the live entries whose provenance
    /// mentions `mapping`.
    fn dependents(&self, mapping: &str) -> Vec<MemoKey> {
        let mut pending = vec![Input::Link(Name::from(mapping))];
        let mut seen = HashSet::new();
        let mut found = Vec::new();
        while let Some(input) = pending.pop() {
            let Some(consumers) = self.consumers.get(&input) else { continue };
            for key in consumers.keys() {
                if seen.insert(*key) {
                    let hash = segment_hash(key);
                    if self.live.contains_key(&hash) {
                        found.push(*key);
                    }
                    pending.push(Input::Segment(hash));
                }
            }
        }
        found.sort_unstable();
        found
    }

    /// References to entries the index holds: one per derivation edge.
    fn refs(&self) -> usize {
        self.consumers.values().map(|consumers| consumers.keys().len()).sum()
    }

    /// Every name the index holds, one item per reference.
    fn names(&self) -> impl Iterator<Item = &Name> {
        let kept = self.kept.values().flat_map(|(_, inputs)| inputs.iter());
        self.consumers.keys().chain(kept).filter_map(|input| match input {
            Input::Link(name) => Some(name),
            Input::Segment(_) => None,
        })
    }
}

/// The entries of one segment of a [`ShardedMemoCache`], with their
/// recency, counters and journal.
#[derive(Debug, Default)]
struct Stripe {
    entries: BTreeMap<MemoKey, MemoEntry>,
    /// Recency stamp → key, for O(log n) LRU eviction.
    recency: BTreeMap<u64, MemoKey>,
    tick: u64,
    capacity: Option<usize>,
    /// Counters of events this stripe observed since the cache's baseline.
    stats: CacheStats,
    /// Mutation journal for incremental persistence (`None` = disabled, the
    /// default — a cache that is never drained must not grow a log).
    journal: Option<Vec<CacheEvent>>,
}

impl Stripe {
    fn with_capacity(capacity: Option<usize>) -> Self {
        Stripe { capacity, ..Stripe::default() }
    }

    fn enable_journal(&mut self) {
        if self.journal.is_none() {
            self.journal = Some(Vec::new());
        }
    }

    fn take_events(&mut self) -> Vec<CacheEvent> {
        match &mut self.journal {
            Some(journal) => std::mem::take(journal),
            None => Vec::new(),
        }
    }

    fn requeue_events(&mut self, events: Vec<CacheEvent>) {
        if let Some(journal) = &mut self.journal {
            journal.splice(0..0, events);
        }
    }

    fn record(&mut self, event: CacheEvent) {
        if let Some(journal) = &mut self.journal {
            journal.push(event);
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

    fn lookup(&mut self, key: MemoKey) -> Option<ComposedChain> {
        match self.entries.get(&key) {
            Some(entry) => {
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

    /// Take one entry out of the entries and their recency order.
    fn take(&mut self, key: &MemoKey) -> Option<MemoEntry> {
        let entry = self.entries.remove(key)?;
        self.recency.remove(&entry.last_used);
        Some(entry)
    }

    /// Take least-recently-used entries out, journaling each, until `room`
    /// more fit within the capacity.
    fn shed(&mut self, room: usize) -> Vec<(MemoKey, MemoEntry)> {
        let mut shed = Vec::new();
        let Some(capacity) = self.capacity else { return shed };
        while self.entries.len() + room > capacity {
            let Some((_, key)) = self.recency.pop_first() else { break };
            if let Some(entry) = self.entries.remove(&key) {
                self.record(CacheEvent::Removed(key));
                shed.push((key, entry));
            }
        }
        shed
    }

    /// Insert an entry, replacing any under its key, and return the entries
    /// evicted to make room for it. The caller indexes both.
    fn put(&mut self, key: MemoKey, chain: ComposedChain) -> Vec<(MemoKey, MemoEntry)> {
        self.take(&key);
        let evicted = self.shed(1);
        self.stats.evictions += evicted.len();
        self.tick += 1;
        self.recency.insert(self.tick, key);
        self.entries.insert(key, MemoEntry { chain, last_used: self.tick });
        self.stats.insertions += 1;
        self.record(CacheEvent::Inserted(key));
        evicted
    }

    /// Take an invalidated entry out, counting it.
    fn invalidated(&mut self, key: &MemoKey) -> Option<ComposedChain> {
        let entry = self.take(key)?;
        self.stats.invalidated += 1;
        Some(entry.chain)
    }

    fn clear(&mut self) {
        let dropped = self.entries.len();
        if self.journal.is_some() {
            let keys: Vec<MemoKey> = self.entries.keys().copied().collect();
            for key in keys {
                self.record(CacheEvent::Removed(key));
            }
        }
        self.entries.clear();
        self.recency.clear();
        self.stats.invalidated += dropped;
    }

    fn iter_lru(&self) -> impl Iterator<Item = (&MemoKey, &MemoEntry)> {
        self.recency.values().filter_map(move |key| self.entries.get_key_value(key))
    }

    /// Every name the entries hold directly, one item per reference: each
    /// entry's endpoints and explicit provenance, and its path's names with
    /// a node in `seen` skipped (see [`crate::chain::SegmentPath`]).
    fn names<'s>(&'s self, seen: &mut HashSet<usize>, held: &mut impl FnMut(&'s Name)) {
        for entry in self.entries.values() {
            let chain = &entry.chain;
            held(&chain.source);
            held(&chain.target);
            chain.provenance.iter().flat_map(|deps| deps.iter()).for_each(&mut *held);
            chain.path.held_names(seen, held);
        }
    }

    /// Path-name references the entries hold, a node in `seen` skipped.
    fn path_refs(&self, seen: &mut HashSet<usize>) -> usize {
        let mut refs = 0;
        for entry in self.entries.values() {
            entry.chain.path.held_names(seen, &mut |_| refs += 1);
        }
        refs
    }
}

/// Insert `chain` under `key` into `stripe`, indexing it and the entries
/// the insertion evicts in `index`. The entry's edges are in place before
/// anything is evicted, so an evicted input of it is kept.
fn insert_indexed(stripe: &mut Stripe, index: &mut DepIndex, key: MemoKey, chain: ComposedChain) {
    if stripe.capacity == Some(0) {
        return;
    }
    index.inserted(key, &chain, stripe.entries.get(&key).map(|entry| &*entry.chain));
    for (evicted, entry) in stripe.put(key, chain) {
        index.evicted(evicted, &entry.chain);
    }
}

/// The memo cache: content-addressed entries striped across independently
/// locked LRU segments, safe to share by reference between concurrent
/// sessions or batch workers.
///
/// Each memo key maps to one segment (by key hash), so two workers touching
/// different chain segments take different locks; a capacity bound is split
/// evenly across segments (each segment evicts its own LRU tail). The
/// segments share one dependency index behind its own mutex: an insertion
/// takes it after its segment's lock, and an invalidation after every
/// segment's, so each invalidation is atomic. All methods but the
/// construction-time ones take `&self`; a poisoned lock (a worker panicked
/// while holding it) is recovered rather than propagated — per-entry state
/// is always internally consistent, and losing cache entries only ever
/// costs recomposition.
#[derive(Debug)]
pub struct ShardedMemoCache {
    segments: Vec<Mutex<Stripe>>,
    index: Mutex<DepIndex>,
    /// Counters carried over from a persisted sidecar; segment counters add
    /// onto it.
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

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

fn unpoisoned<T>(mutex: &mut Mutex<T>) -> &mut T {
    mutex.get_mut().unwrap_or_else(PoisonError::into_inner)
}

impl ShardedMemoCache {
    /// An empty sharded cache with `segments` stripes and an optional total
    /// capacity, split evenly across segments.
    pub fn new(segments: usize, capacity: Option<usize>) -> Self {
        let segments = segments.max(1);
        let per_segment = capacity.map(|total| total.div_ceil(segments));
        ShardedMemoCache {
            segments: (0..segments)
                .map(|_| Mutex::new(Stripe::with_capacity(per_segment)))
                .collect(),
            index: Mutex::default(),
            baseline: CacheStats::default(),
            telemetry: (0..segments).map(SegmentTelemetry::for_segment).collect(),
        }
    }

    /// The segment count of a session serving `workers` workers: about four
    /// per worker, from 4 to 64, so workers composing disjoint chains
    /// rarely meet on a lock.
    pub(crate) fn segments_for(workers: usize) -> usize {
        workers.max(1).saturating_mul(4).clamp(4, 64)
    }

    /// Bound the cache to `capacity` live entries in all, split across
    /// segments as [`ShardedMemoCache::new`] splits it, trimming each
    /// segment in place to its share, least recently used first. A trim
    /// counts toward no statistic: bounding a cache replayed from a sidecar
    /// keeps the persisted counters, and a trimmed entry keeps its
    /// derivation edges while an entry consumes it, as an evicted one does.
    pub(crate) fn bound(&mut self, capacity: Option<usize>) {
        let per_segment = capacity.map(|total| total.div_ceil(self.segments.len()));
        let index = unpoisoned(&mut self.index);
        for segment in &mut self.segments {
            let stripe = unpoisoned(segment);
            stripe.capacity = per_segment;
            for (key, entry) in stripe.shed(0) {
                index.evicted(key, &entry.chain);
            }
        }
    }

    /// Adopt persisted cumulative counters as the baseline, zeroing every
    /// segment's counters: the persisted counters already include every
    /// event up to the flush that wrote them, the insertions counted while
    /// replaying the sidecar's entries into this cache among them.
    pub(crate) fn set_baseline(&mut self, stats: CacheStats) {
        self.baseline = stats;
        for segment in &mut self.segments {
            unpoisoned(segment).stats = CacheStats::default();
        }
    }

    fn segment_of(&self, key: &MemoKey) -> usize {
        (segment_hash(key) % self.segments.len() as u64) as usize
    }

    /// Every segment's lock, in segment order.
    fn lock_all(&self) -> Vec<MutexGuard<'_, Stripe>> {
        self.segments.iter().map(lock).collect()
    }

    /// The baseline plus the counters of every segment in `guards`.
    fn merged_stats(&self, guards: &[MutexGuard<'_, Stripe>]) -> CacheStats {
        guards.iter().fold(self.baseline, |acc, guard| acc.merged(guard.stats))
    }

    /// Number of segments.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Total number of live entries across segments.
    pub fn len(&self) -> usize {
        self.segments.iter().map(|segment| lock(segment).entries.len()).sum()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cumulative statistics: the baseline plus every segment's counters,
    /// summed while *all* segment locks are held so the merge is atomic with
    /// respect to concurrent workers.
    pub fn stats(&self) -> CacheStats {
        self.merged_stats(&self.lock_all())
    }

    /// Per-segment snapshots — `(entries, capacity, live stats)` for each
    /// segment in index order. The baseline is *not* folded in (it has no
    /// per-segment attribution); each tuple reflects only traffic since the
    /// baseline was adopted. Segments are locked one at a time, so
    /// the snapshot is per-segment-consistent, not globally atomic — fine
    /// for introspection, which is its only caller.
    pub fn segment_snapshots(&self) -> Vec<(usize, Option<usize>, CacheStats)> {
        self.segments
            .iter()
            .map(|segment| {
                let guard = lock(segment);
                (guard.entries.len(), guard.capacity, guard.stats)
            })
            .collect()
    }

    /// Start journaling mutations on every segment. Until the first
    /// [`ShardedMemoCache::take_events`] drain, events accumulate; call
    /// this only when some owner drains the journal regularly.
    pub fn enable_journal(&self) {
        for segment in &self.segments {
            lock(segment).enable_journal();
        }
    }

    /// Drain every segment's mutation journal (empty when journaling is
    /// disabled). A key always maps to the same segment, so per-key event
    /// order is preserved even though events from different segments
    /// interleave arbitrarily — consumers should keep the *last* event per
    /// key.
    pub fn take_events(&self) -> Vec<CacheEvent> {
        let mut events = Vec::new();
        for segment in &self.segments {
            events.append(&mut lock(segment).take_events());
        }
        events
    }

    /// Put drained events back, so a persister whose write failed can hand
    /// its batch back instead of losing it: each event returns to the
    /// front of its key's segment journal (it is older than anything
    /// recorded since the drain), preserving per-key order. No-op when
    /// journaling is disabled.
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
                lock(segment).requeue_events(batch);
            }
        }
    }

    /// Peek at an entry's chain without touching statistics or recency.
    pub fn peek(&self, key: &MemoKey) -> Option<ComposedChain> {
        lock(&self.segments[self.segment_of(key)]).entries.get(key).map(|entry| entry.chain.clone())
    }

    /// Every name the memo holds a reference to — each entry's endpoints,
    /// explicit provenance and path (a path node shared by several entries
    /// counted once), and the dependency index's link names — one item per
    /// reference, for footprint accounting by allocation: the clones share
    /// the memo's allocations.
    pub fn names(&self) -> Vec<Name> {
        let mut names = Vec::new();
        let mut seen = HashSet::new();
        for segment in &self.segments {
            lock(segment).names(&mut seen, &mut |name| names.push(name.clone()));
        }
        names.extend(lock(&self.index).names().cloned());
        names
    }

    /// The live entry whose segment hash is `hash`: the input a consumer's
    /// key names by it.
    pub fn segment(&self, hash: u64) -> Option<ComposedChain> {
        lock(&self.index).live.get(&hash).cloned()
    }

    /// References the dependency index holds to entries: one per
    /// derivation edge, two for an entry composed from two inputs.
    pub fn index_refs(&self) -> usize {
        lock(&self.index).refs()
    }

    /// Name references the entries' paths hold, a path node shared by
    /// several entries counted once: one per link a fold step joined.
    pub fn path_refs(&self) -> usize {
        let mut seen = HashSet::new();
        self.segments.iter().map(|segment| lock(segment).path_refs(&mut seen)).sum()
    }

    /// Drop one entry by key; returns whether it existed. Used when
    /// replaying a persisted `delta evict` record — the removal is
    /// mechanical and counts toward no statistic (the replayed `stats`
    /// records already carry the original eviction counts). Like an
    /// eviction, it keeps the entry's derivation edges while an entry
    /// consumes it.
    pub(crate) fn remove(&self, key: &MemoKey) -> bool {
        let mut guard = lock(&self.segments[self.segment_of(key)]);
        let Some(entry) = guard.take(key) else { return false };
        guard.record(CacheEvent::Removed(*key));
        lock(&self.index).evicted(*key, &entry.chain);
        true
    }

    /// Drop every entry (in any segment) whose provenance mentions
    /// `mapping`; returns how many entries were dropped. Entries not
    /// depending on the mapping — e.g. the prefix of a chain upstream of an
    /// edited link — survive. The drop holds every segment lock and the
    /// index at once, so concurrent workers see the cache before or after
    /// it. It is not journaled per key (see [`CacheEvent`]).
    pub fn invalidate(&self, mapping: &str) -> usize {
        let dropped = self.drop_dependents(mapping);
        for (telemetry, count) in self.telemetry.iter().zip(&dropped) {
            telemetry.invalidated.add(*count as u64);
        }
        dropped.iter().sum()
    }

    /// [`ShardedMemoCache::invalidate`] without the telemetry, returning
    /// how many entries each segment dropped: a sidecar replay re-applies a
    /// drop that the process which wrote the record already counted.
    pub(crate) fn drop_dependents(&self, mapping: &str) -> Vec<usize> {
        let mut guards = self.lock_all();
        let mut dropped = vec![0; guards.len()];
        lock(&self.index).drop_dependents(mapping, |key| {
            let segment = self.segment_of(key);
            let chain = guards[segment].invalidated(key)?;
            dropped[segment] += 1;
            Some(chain)
        });
        dropped
    }

    /// The live entries whose provenance mentions `mapping` (the "what
    /// depends on m?" provenance query), in key order.
    pub fn dependents(&self, mapping: &str) -> Vec<ComposedChain> {
        let keys = lock(&self.index).dependents(mapping);
        keys.iter().filter_map(|key| self.peek(key)).collect()
    }

    /// Drop every entry in every segment, under all segment locks at once so
    /// concurrent workers see either the full cache or the empty one.
    /// Returns how many entries were dropped. Statistics count the drops as
    /// invalidations (this *is* a whole-cache invalidation — e.g. a
    /// replication follower discarding memoised chains before adopting a
    /// leader snapshot).
    pub fn clear(&self) -> usize {
        let mut guards = self.lock_all();
        let mut dropped = 0;
        for (guard, telemetry) in guards.iter_mut().zip(&self.telemetry) {
            let in_segment = guard.entries.len();
            guard.clear();
            telemetry.invalidated.add(in_segment as u64);
            dropped += in_segment;
        }
        *lock(&self.index) = DepIndex::default();
        dropped
    }

    /// The live entries, in the order a sidecar snapshot writes them, and
    /// the cumulative statistics, both read under every segment lock at
    /// once; the locks are held only while the entries are cloned (each an
    /// `Arc`). The order keeps each segment's LRU order, so replaying the
    /// entries restores every segment's eviction order. Between segments it
    /// takes an entry none of whose input segments is still to come, so
    /// that an entry follows the inputs it was composed from wherever the
    /// segments' orders allow (what lets a snapshot's `path` lines and run
    /// tokens refer to them); among those, and where no head is ready, the
    /// entry with the shorter path first.
    pub(crate) fn snapshot(&self) -> (Vec<(MemoKey, ComposedChain)>, CacheStats) {
        let guards = self.lock_all();
        let stats = self.merged_stats(&guards);
        let segments: Vec<Vec<(MemoKey, ComposedChain)>> = guards
            .iter()
            .map(|guard| guard.iter_lru().map(|(key, entry)| (*key, entry.chain.clone())).collect())
            .collect();
        drop(guards);
        let mut pending: HashSet<u64> =
            segments.iter().flatten().map(|(key, _)| segment_hash(key)).collect();
        let mut heads: Vec<_> =
            segments.into_iter().map(|segment| segment.into_iter().peekable()).collect();
        let mut entries = Vec::with_capacity(pending.len());
        loop {
            let next = heads
                .iter_mut()
                .enumerate()
                .filter_map(|(segment, head)| {
                    let (key, chain) = head.peek()?;
                    let own = segment_hash(key);
                    let waits =
                        [key.0, key.1].iter().any(|input| *input != own && pending.contains(input));
                    Some(((waits, chain.path.len(), *key), segment))
                })
                .min();
            let Some((_, segment)) = next else { break };
            let (key, chain) = heads[segment].next().expect("a head was peeked");
            pending.remove(&segment_hash(&key));
            entries.push((key, chain));
        }
        (entries, stats)
    }

    /// The live entries, in the order [`crate::persist::save_cache`] writes
    /// them: each segment's least recently used first, an entry after its
    /// inputs between segments where it can be.
    pub fn entries(&self) -> Vec<(MemoKey, ComposedChain)> {
        self.snapshot().0
    }
}

impl ChainCache for ShardedMemoCache {
    fn cache_lookup(&self, key: MemoKey) -> Option<ComposedChain> {
        let segment = self.segment_of(&key);
        let found = lock(&self.segments[segment]).lookup(key);
        let telemetry = &self.telemetry[segment];
        match found {
            Some(_) => telemetry.hits.incr(),
            None => telemetry.misses.incr(),
        }
        found
    }

    fn cache_contains(&self, key: &MemoKey) -> bool {
        lock(&self.segments[self.segment_of(key)]).entries.contains_key(key)
    }

    fn cache_insert(&self, key: MemoKey, chain: ComposedChain) {
        let segment = self.segment_of(&key);
        let mut guard = lock(&self.segments[segment]);
        let evictions_before = guard.stats.evictions;
        insert_indexed(&mut guard, &mut lock(&self.index), key, chain);
        let evicted = guard.stats.evictions - evictions_before;
        drop(guard);
        self.telemetry[segment].evictions.add(evicted as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::ChainSegment;
    use mapcomp_algebra::{Mapping, Signature};

    fn segment_along(path: SegmentPath, deps: &[Name], hash: u64) -> ComposedChain {
        ChainSegment {
            source: "a".into(),
            target: "b".into(),
            provenance: ChainSegment::provenance_of(&path, deps),
            path,
            mapping: Mapping::default(),
            residual: Signature::new(),
            hash,
        }
        .into()
    }

    fn segment(name: &str, deps: &[&str], hash: u64) -> ComposedChain {
        let deps: Vec<Name> = deps.iter().map(|&dep| dep.into()).collect();
        segment_along(SegmentPath::link(name.into()), &deps, hash)
    }

    fn link(name: &str, hash: u64) -> ComposedChain {
        segment(name, &[name], hash)
    }

    /// The segment a fold step composes from `left` and `right` under
    /// `key`: its path joins theirs, and its hash is the key's.
    fn composed(left: &ComposedChain, right: &ComposedChain, key: MemoKey) -> ComposedChain {
        let path = SegmentPath::concat(&left.path, &right.path);
        let names: Vec<Name> = path.iter().cloned().collect();
        segment_along(path, &names, segment_hash(&key))
    }

    #[test]
    fn lookup_hits_and_misses_are_counted() {
        let cache = ShardedMemoCache::new(1, None);
        assert!(cache.cache_lookup((1, 2, 3)).is_none());
        cache.cache_insert((1, 2, 3), segment("m1", &["m1"], 9));
        assert!(cache.cache_lookup((1, 2, 3)).is_some());
        assert_eq!(
            cache.stats(),
            CacheStats { hits: 1, misses: 1, insertions: 1, invalidated: 0, evictions: 0 }
        );
    }

    #[test]
    fn invalidation_drops_exactly_dependents() {
        let cache = ShardedMemoCache::new(1, None);
        cache.cache_insert((1, 2, 0), segment("p1", &["m1", "m2"], 12));
        cache.cache_insert((12, 3, 0), segment("p2", &["m1", "m2", "m3"], 123));
        cache.cache_insert((7, 8, 0), segment("q", &["k1"], 78));
        assert_eq!(cache.len(), 3);
        // Editing m3 drops only the segment that includes it.
        assert_eq!(cache.invalidate("m3"), 1);
        assert_eq!(cache.len(), 2);
        assert!(cache.cache_contains(&(1, 2, 0)));
        assert!(cache.cache_contains(&(7, 8, 0)));
        // Editing m1 drops the remaining chain segment but not `q`.
        assert_eq!(cache.invalidate("m1"), 1);
        assert_eq!(cache.len(), 1);
        // Unknown mapping: nothing to drop.
        assert_eq!(cache.invalidate("zzz"), 0);
    }

    #[test]
    fn dependents_reports_provenance() {
        let cache = ShardedMemoCache::new(4, None);
        cache.cache_insert((1, 2, 0), segment("p1", &["m1", "m2"], 12));
        cache.cache_insert((12, 3, 0), segment("p2", &["m1", "m2", "m3"], 123));
        assert_eq!(cache.dependents("m1").len(), 2);
        assert_eq!(cache.dependents("m3").len(), 1);
        assert!(cache.dependents("nope").is_empty());
    }

    #[test]
    fn clear_counts_as_invalidation() {
        let cache = ShardedMemoCache::new(4, None);
        cache.cache_insert((1, 2, 0), segment("p1", &["m1"], 12));
        assert_eq!(cache.clear(), 1);
        assert!(cache.is_empty());
        assert_eq!(cache.stats().invalidated, 1);
        assert!(cache.dependents("m1").is_empty());
    }

    #[test]
    fn capacity_evicts_least_recently_used() {
        let cache = ShardedMemoCache::new(1, Some(2));
        cache.cache_insert((1, 0, 0), segment("a", &["a"], 1));
        cache.cache_insert((2, 0, 0), segment("b", &["b"], 2));
        // Touch `a` so `b` becomes the LRU entry.
        assert!(cache.cache_lookup((1, 0, 0)).is_some());
        cache.cache_insert((3, 0, 0), segment("c", &["c"], 3));
        assert_eq!(cache.len(), 2);
        assert!(cache.cache_contains(&(1, 0, 0)));
        assert!(!cache.cache_contains(&(2, 0, 0)), "LRU entry must be evicted");
        assert!(cache.cache_contains(&(3, 0, 0)));
        assert_eq!(cache.stats().evictions, 1);
        // Eviction also unindexes provenance.
        assert!(cache.dependents("b").is_empty());
        assert_eq!(cache.invalidate("b"), 0);
        // Re-inserting an existing key does not evict anything.
        cache.cache_insert((3, 0, 0), segment("c", &["c"], 3));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn zero_capacity_caches_nothing() {
        let cache = ShardedMemoCache::new(1, Some(0));
        cache.cache_insert((1, 0, 0), segment("a", &["a"], 1));
        assert!(cache.is_empty());
        assert!(cache.cache_lookup((1, 0, 0)).is_none());
        let stats = cache.stats();
        assert_eq!(stats.insertions, 0);
        assert_eq!(stats.evictions, 0);
    }

    #[test]
    fn restored_stats_accumulate() {
        let mut cache = ShardedMemoCache::new(4, None);
        cache.set_baseline(CacheStats {
            hits: 10,
            misses: 5,
            insertions: 7,
            invalidated: 2,
            evictions: 1,
        });
        cache.cache_insert((1, 0, 0), segment("a", &["a"], 1));
        assert!(cache.cache_lookup((1, 0, 0)).is_some());
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
        let mut cache = ShardedMemoCache::new(4, None);
        for round in 0..3 {
            for i in 0..4u64 {
                cache.cache_insert((i, 0, 0), segment(&format!("m{i}"), &["m"], i));
            }
            cache.set_baseline(persisted);
            assert_eq!(cache.stats(), persisted, "round {round}: baseline must not compound");
            assert!(cache.segment_snapshots().iter().all(|(_, _, live)| live.is_zero()));
        }
    }

    #[test]
    fn bound_trims_each_segment_in_lru_order_without_counting() {
        let mut cache = ShardedMemoCache::new(4, None);
        for i in 0..24u64 {
            cache.cache_insert((i, 0, 0), segment(&format!("m{i}"), &[&format!("m{i}")], i));
        }
        let before = cache.stats();
        // The survivors: the most recently used entry of each segment.
        let mut expected = Vec::new();
        for (key, _) in cache.entries().into_iter().rev() {
            if expected
                .iter()
                .all(|kept: &MemoKey| cache.segment_of(kept) != cache.segment_of(&key))
            {
                expected.push(key);
            }
        }
        cache.bound(Some(4));
        assert_eq!(cache.stats(), before, "a trim is not an eviction");
        let mut live: Vec<MemoKey> = cache.entries().into_iter().map(|(key, _)| key).collect();
        live.sort_unstable();
        expected.sort_unstable();
        assert_eq!(live, expected);
        assert!(cache.segment_snapshots().iter().all(|(entries, cap, _)| Some(*entries) <= *cap));
        // The bound holds for later insertions, which count their evictions.
        cache.cache_insert((99, 0, 0), segment("late", &["late"], 99));
        assert_eq!(cache.len(), expected.len());
        assert_eq!(cache.stats().evictions, before.evictions + 1);
    }

    #[test]
    fn an_input_evicted_before_its_consumer_arrives_indexes_the_consumer_by_name() {
        // One one-entry segment: inserting an unrelated entry evicts the
        // prefix I = m0∘m1 before anything consumed it, so its edges go. A
        // later S = I∘m2, keyed by I's hash, must still fall to an edit of m0.
        let cache = ShardedMemoCache::new(1, Some(1));
        let (m0, m1, m2) = (link("m0", 10), link("m1", 11), link("m2", 12));
        let prefix_key = (10, 11, 0);
        let prefix = composed(&m0, &m1, prefix_key);
        cache.cache_insert(prefix_key, prefix.clone());
        cache.cache_insert((7, 8, 0), segment("q", &["k1"], 78));
        assert!(!cache.cache_contains(&prefix_key));
        let suffix_key = (prefix.hash, 12, 0);
        cache.cache_insert(suffix_key, composed(&prefix, &m2, suffix_key));
        assert_eq!(cache.dependents("m0").len(), 1);
        assert_eq!(cache.invalidate("m0"), 1, "the suffix is indexed under m0 by name");
        assert!(cache.is_empty());
        assert_eq!(cache.index_refs(), 0, "the entry left by the edges it came in by");
    }

    #[test]
    fn a_snapshot_writes_an_entry_after_its_input_in_another_stripe() {
        // Two stripes: one holds C, composed from P; the other holds an
        // unrelated longer entry Y, least recently used, then P. Taking the
        // shorter path first between stripes would write C before P.
        let cache = ShardedMemoCache::new(2, None);
        let in_stripe = |stripe: usize, key: &dyn Fn(u64) -> MemoKey| {
            (0..).map(key).find(|key| cache.segment_of(key) == stripe).unwrap()
        };
        let (m0, m1, m2) = (link("m0", 10), link("m1", 11), link("m2", 12));
        let p_key = in_stripe(1, &|config| (10, 11, config));
        let p = composed(&m0, &m1, p_key);
        let c_key = in_stripe(0, &|config| (p.hash, 12, config));
        let c = composed(&p, &m2, c_key);
        let y_key = in_stripe(1, &|config| (100, 101, config));
        let y_names: Vec<Name> = (0..6).map(|i| Name::from(format!("y{i}"))).collect();
        let y = segment_along(y_names.iter().cloned().collect(), &y_names, segment_hash(&y_key));
        cache.cache_insert(y_key, y);
        cache.cache_insert(p_key, p);
        cache.cache_insert(c_key, c);
        let order: Vec<MemoKey> = cache.entries().into_iter().map(|(key, _)| key).collect();
        assert_eq!(order, [y_key, p_key, c_key]);
        assert!(cache.segment(segment_hash(&p_key)).is_some(), "a live entry is found by hash");
    }

    #[test]
    fn journal_records_mutations_and_requeue_restores_order() {
        let cache = ShardedMemoCache::new(1, Some(1));
        cache.enable_journal();
        cache.cache_insert((1, 0, 0), segment("a", &["a"], 1));
        cache.cache_insert((2, 0, 0), segment("b", &["b"], 2)); // evicts (1,0,0)
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
        cache.cache_insert((3, 0, 0), segment("c", &["c"], 3));
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
