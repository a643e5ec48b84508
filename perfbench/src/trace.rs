//! The traced run (`--trace 1`): where a workload's time goes, layer by
//! layer.
//!
//! It has three parts:
//! 1. the wire phase: the end-to-end loop against a fresh server (one
//!    set-up), for client-side latency per request kind, busy replies and
//!    one timed compaction;
//! 2. an untraced replay: a fresh persistent `LocalService` in process, set
//!    up like the server, then a fixed-length single-connection stream of
//!    the workload's requests, each timed as the root `LocalService::call`;
//! 3. a traced replay: the same on another fresh service, and after each
//!    root call the benchmark's own timing wrappers call each layer's public
//!    functions for the same request on a twin `SharedSession` built from
//!    the same seed and kept in the same state. Spans (layer, parent,
//!    duration) are kept in memory and summarised when the run ends.
//!
//! The untraced and traced replays differ only in the wrappers, so their
//! root times give the tracing overhead. A fixed-length single-connection
//! stream makes the work counts repeat exactly for a fixed seed.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use mapcomp_algebra::{parse_document, Instance};
use mapcomp_catalog::{
    compose_chain_with, ChainCache, ComposedChain, LinkSource, MemoKey, SessionConfig,
    SharedSession,
};
use mapcomp_compose::{
    compose_constraints, parse_updates, DifferentialChase, EliminateStep, Registry, SymbolOutcome,
};
use mapcomp_service::{
    decode_reply, encode_reply, encode_request, LocalService, MapcompService, PersistPolicy,
    Request,
};

use crate::drive::{migration_engine, E2e, Env};
use crate::server::scrape;
use crate::stats::{median, Metric};
use crate::workload::{Generator, Shape, Workload};

/// Operations in the replayed stream, per workload: enough for stable
/// medians, few enough that the traced run stays well inside its time
/// limit.
fn replay_ops(workload: Workload) -> usize {
    match workload {
        Workload::ReadWarm => 3_000,
        Workload::Evolve => 300,
        Workload::Migrate => 400,
    }
}

/// The request kinds whose latency is split, each with the latency class
/// its requests carry in the generator's stream (reads stand for
/// `compose-path`).
const KINDS: [(&str, &str); 4] = [
    ("compose-path", "read"),
    ("add-document", "add-document"),
    ("analyze", "analyze"),
    ("migrate-delta", "migrate"),
];

/// The layers a span can belong to; `service` is the root.
const LAYERS: [&str; 8] =
    ["service", "graph", "chain", "compose", "store", "analysis", "differential", "wire"];

/// Run the three parts and return the wire phase plus the per-layer
/// metrics.
pub fn run(workload: Workload, env: &Env) -> Result<(E2e, Vec<Metric>), String> {
    let e2e = crate::drive::run(workload, env)?;
    let ops = replay_ops(workload);
    let untraced = replay(workload, env.seed, env.shape, ops, false, &env.work_dir.join("plain"))?;
    let traced = replay(workload, env.seed, env.shape, ops, true, &env.work_dir.join("traced"))?;
    let metrics = layer_metrics(workload, &e2e, &untraced, &traced);
    println!(
        "spans: {} kept in memory, summarised per layer (self time per request):",
        traced.spans.len()
    );
    for (layer, self_us) in self_times(&traced) {
        println!("  {layer:<14} {self_us:>12.3} us");
    }
    Ok((e2e, metrics))
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// One timed call into a layer. `parent` indexes the span that caused it:
/// the root `LocalService::call` of the same request (so a request's spans
/// are the tree under its root), or the chain fold for a pairwise
/// composition. Wire spans have no parent: they sit outside the root.
pub struct Span {
    pub parent: Option<usize>,
    pub layer: &'static str,
    pub name: &'static str,
    pub duration: Duration,
}

#[derive(Default)]
struct Spans {
    spans: Vec<Span>,
}

impl Spans {
    fn push(
        &mut self,
        parent: Option<usize>,
        layer: &'static str,
        name: &'static str,
        duration: Duration,
    ) -> usize {
        self.spans.push(Span { parent, layer, name, duration });
        self.spans.len() - 1
    }

    /// Time `work` as a span and return its result with the span's index.
    fn time<T>(
        &mut self,
        parent: Option<usize>,
        layer: &'static str,
        name: &'static str,
        work: impl FnOnce() -> T,
    ) -> (T, usize) {
        let started = Instant::now();
        let value = work();
        let id = self.push(parent, layer, name, started.elapsed());
        (value, id)
    }
}

/// Per-layer self time per request, in µs: each span's duration minus its
/// children's, summed by layer over the replay and divided by its requests.
fn self_times(replay: &Replay) -> Vec<(&'static str, f64)> {
    let mut children = vec![Duration::ZERO; replay.spans.len()];
    for span in &replay.spans {
        if let Some(parent) = span.parent {
            children[parent] += span.duration;
        }
    }
    let mut by_layer: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (span, covered) in replay.spans.iter().zip(children) {
        let own = span.duration.as_secs_f64() - covered.as_secs_f64();
        *by_layer.entry(span.layer).or_default() += own * 1e6;
    }
    let requests = replay.exact.requests.max(1) as f64;
    LAYERS
        .iter()
        .map(|&layer| (layer, by_layer.get(layer).copied().unwrap_or(0.0) / requests))
        .collect()
}

// ---------------------------------------------------------------------------
// The chain-fold recorder
// ---------------------------------------------------------------------------

/// A [`ChainCache`] in front of the twin's memo cache that times each
/// pairwise composition: the chain driver composes exactly between a
/// lookup miss and the insert of the same key.
struct Recorder<'a> {
    inner: &'a mapcomp_catalog::ShardedMemoCache,
    lookups: RefCell<u64>,
    hits: RefCell<Vec<MemoKey>>,
    missed: RefCell<BTreeMap<MemoKey, Instant>>,
    composed: RefCell<Vec<(MemoKey, ComposedChain, Duration)>>,
}

impl ChainCache for Recorder<'_> {
    fn cache_lookup(&self, key: MemoKey) -> Option<ComposedChain> {
        *self.lookups.borrow_mut() += 1;
        let found = self.inner.cache_lookup(key);
        match found {
            Some(_) => self.hits.borrow_mut().push(key),
            None => {
                self.missed.borrow_mut().insert(key, Instant::now());
            }
        }
        found
    }

    fn cache_contains(&self, key: &MemoKey) -> bool {
        self.inner.cache_contains(key)
    }

    fn cache_insert(&self, key: MemoKey, chain: ComposedChain) {
        if let Some(started) = self.missed.borrow_mut().remove(&key) {
            self.composed.borrow_mut().push((key, chain.clone(), started.elapsed()));
        }
        self.inner.cache_insert(key, chain);
    }
}

/// Which of the paper's steps eliminated each symbol of the pairwise
/// composition `left ∘ right`: the same inputs `compose_pair` hands to
/// `compose_constraints`, re-run untimed for its per-symbol report.
fn elimination_steps(
    left: &ComposedChain,
    right: &ComposedChain,
    registry: &Registry,
    config: &SessionConfig,
) -> [u64; 3] {
    let full = [&left.mapping.output, &left.residual, &right.mapping.input]
        .into_iter()
        .chain([&right.residual, &right.mapping.output])
        .try_fold(left.mapping.input.clone(), |acc, sig| acc.union(sig));
    let Ok(full) = full else { return [0; 3] };
    let keep =
        |name: &String| left.mapping.input.contains(name) || right.mapping.output.contains(name);
    let mut symbols: Vec<String> = left.mapping.output.names();
    symbols.extend(right.mapping.input.names());
    symbols.extend(left.residual.names());
    symbols.extend(right.residual.names());
    symbols.retain(|name| !keep(name));
    let mut seen = std::collections::BTreeSet::new();
    symbols.retain(|name| seen.insert(name.clone()));
    let mut constraints = left.mapping.constraints.clone().into_vec();
    constraints.extend(right.mapping.constraints.clone().into_vec());
    let result = compose_constraints(&full, &symbols, constraints, registry, &config.compose);
    let mut steps = [0u64; 3];
    for report in &result.stats.per_symbol {
        if let SymbolOutcome::Eliminated(step) = &report.outcome {
            steps[match step {
                EliminateStep::ViewUnfolding => 0,
                EliminateStep::LeftCompose => 1,
                EliminateStep::RightCompose => 2,
            }] += 1;
        }
    }
    steps
}

// ---------------------------------------------------------------------------
// The replay
// ---------------------------------------------------------------------------

/// Counts that repeat bit-for-bit for a fixed seed: the replay is one
/// connection with a fixed-length stream.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExactCounts {
    pub requests: u64,
    pub ops: u64,
    pub edits: u64,
    pub batches: u64,
    pub request_bytes: u64,
    pub reply_bytes: u64,
    pub compose_calls: u64,
    pub cache_lookups: u64,
    pub cache_hits: u64,
    pub invalidated: u64,
    pub eliminated: [u64; 3],
    pub residual_symbols: u64,
    pub appends: u64,
    pub append_bytes: u64,
    pub compactions: u64,
    pub compaction_bytes: u64,
    pub differential_work: u64,
    pub retracted: u64,
    pub rederived: u64,
    pub fallbacks: u64,
    pub history_len: u64,
}

/// What one replay measured.
#[derive(Default)]
pub struct Replay {
    /// Root `LocalService::call` time per request class, µs.
    pub root_us: BTreeMap<&'static str, Vec<f64>>,
    pub root_total: Duration,
    /// Per-span-name durations, µs (traced replays only).
    pub layer_us: BTreeMap<&'static str, Vec<f64>>,
    pub spans: Vec<Span>,
    pub exact: ExactCounts,
}

/// The persistence counters of this process's registry (the in-process
/// service writes its sidecar through the same global handles the server
/// does).
fn persist_counters() -> [u64; 4] {
    let text = mapcomp_telemetry::metrics::global().render();
    ["persist_appends_total", "persist_append_bytes_total", "persist_compactions_total"]
        .into_iter()
        .chain(["persist_compaction_bytes_total"])
        .map(|name| scrape(&text, name) as u64)
        .collect::<Vec<_>>()
        .try_into()
        .expect("four counters")
}

/// The twin: a shared session in the same state as the service, plus one
/// differential engine per migration session.
struct Twin {
    session: SharedSession,
    config: SessionConfig,
    engines: BTreeMap<(String, String), DifferentialChase>,
}

impl Twin {
    fn new() -> Twin {
        let config = SessionConfig::default();
        Twin {
            session: SharedSession::with_config(
                mapcomp_catalog::Catalog::new(),
                Registry::standard(),
                config.clone(),
                2,
            ),
            config,
            engines: BTreeMap::new(),
        }
    }

    /// Apply `request` through the layer functions, recording a span per
    /// layer call under `root`.
    fn apply(
        &mut self,
        request: &Request,
        root: Option<usize>,
        spans: &mut Spans,
        exact: &mut ExactCounts,
    ) -> Result<(), String> {
        match request {
            Request::AddDocument { text } => {
                let document = parse_document(text).map_err(|e| e.to_string())?;
                let catalog = self.session.catalog();
                let (dry_run, _) = spans.time(root, "store", "store.snapshot", || {
                    catalog.snapshot().from_document(&document).map(|_| ())
                });
                dry_run.map_err(|e| e.to_string())?;
                let before = self.session.cache().stats().invalidated;
                let (ingested, _) = spans.time(root, "store", "store.ingest", || {
                    self.session.ingest_document(&document)
                });
                ingested.map_err(|e| e.to_string())?;
                exact.invalidated += (self.session.cache().stats().invalidated - before) as u64;
            }
            Request::Analyze { mapping: Some(name) } => {
                let (report, _) = spans.time(root, "analysis", "analysis.analyze", || {
                    self.session.analyze_mapping(name)
                });
                report.map_err(|e| e.to_string())?;
            }
            Request::ComposePath { from, to } => {
                self.fold(from, to, root, spans, exact)?;
            }
            Request::MigrateDelta { from, to, updates } => {
                let chain = self.fold(from, to, root, spans, exact)?;
                let key = (from.clone(), to.clone());
                if !self.engines.contains_key(&key) {
                    let engine =
                        migration_engine(&chain, Instance::new(), self.session.registry())?;
                    self.engines.insert(key.clone(), engine);
                }
                let engine = self.engines.get_mut(&key).expect("engine was just built");
                let parsed = parse_updates(updates).map_err(|e| format!("bad update: {e}"))?;
                let (report, _) = spans
                    .time(root, "differential", "differential.apply", || engine.apply(&parsed));
                let report = report?;
                spans.time(root, "differential", "differential.render", || {
                    std::hint::black_box(engine.rendered_target())
                });
                exact.differential_work += report.work as u64;
                exact.retracted += report.retracted as u64;
                exact.rederived += report.rederived as u64;
                exact.fallbacks += u64::from(report.fallback);
                exact.history_len += updates.len() as u64;
            }
            other => return Err(format!("the replay does not send {}", other.kind())),
        }
        Ok(())
    }

    /// Resolve and fold a path through the twin's catalog and memo cache,
    /// timing the path resolution, the fold and each pairwise composition.
    fn fold(
        &self,
        from: &str,
        to: &str,
        root: Option<usize>,
        spans: &mut Spans,
        exact: &mut ExactCounts,
    ) -> Result<ComposedChain, String> {
        let catalog = self.session.catalog();
        let (path, _) = spans.time(root, "graph", "graph.resolve", || {
            catalog.resolve_path_with(from, to, self.config.path_cost)
        });
        let path = path.map_err(|e| e.to_string())?;
        let recorder = Recorder {
            inner: self.session.cache(),
            lookups: RefCell::new(0),
            hits: RefCell::new(Vec::new()),
            missed: RefCell::new(BTreeMap::new()),
            composed: RefCell::new(Vec::new()),
        };
        let (result, fold) = spans.time(root, "chain", "chain.fold", || {
            compose_chain_with(
                catalog,
                &recorder,
                &path,
                self.session.registry(),
                &self.config.compose,
                &self.config.chain,
            )
        });
        let result = result.map_err(|e| e.to_string())?;
        let composed = recorder.composed.into_inner();
        for (_, _, duration) in &composed {
            spans.push(Some(fold), "compose", "compose.pair", *duration);
        }
        exact.compose_calls += result.compose_calls as u64;
        exact.cache_lookups += *recorder.lookups.borrow();
        exact.cache_hits += recorder.hits.borrow().len() as u64;

        // Untimed: recover each composed pair's inputs (links, memo hits and
        // this fold's own results, by content hash) for the per-step counts.
        if !composed.is_empty() {
            let mut by_hash: BTreeMap<u64, ComposedChain> = BTreeMap::new();
            for name in &path {
                let link = catalog.link(name).map_err(|e| e.to_string())?;
                by_hash.insert(link.hash, link);
            }
            for key in recorder.hits.borrow().iter() {
                if let Some(chain) = self.session.cache().cache_lookup(*key) {
                    by_hash.insert(chain.hash, chain);
                }
            }
            for (_, chain, _) in &composed {
                by_hash.insert(chain.hash, chain.clone());
            }
            for (key, chain, _) in &composed {
                exact.residual_symbols += chain.residual.len() as u64;
                if let (Some(left), Some(right)) = (by_hash.get(&key.0), by_hash.get(&key.1)) {
                    let steps =
                        elimination_steps(left, right, self.session.registry(), &self.config);
                    for (total, count) in exact.eliminated.iter_mut().zip(steps) {
                        *total += count;
                    }
                }
            }
        }
        Ok(result.chain)
    }
}

/// Replay `ops` operations of `workload` in process on a fresh persistent
/// service in `dir`; with `traced`, also through the twin's layer wrappers.
pub fn replay(
    workload: Workload,
    seed: u64,
    shape: Shape,
    ops: usize,
    traced: bool,
    dir: &Path,
) -> Result<Replay, String> {
    let mut generator = Generator::new(workload, seed, shape);
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let service = LocalService::open_with_policy(
        dir.join("catalog.doc"),
        Registry::standard(),
        SessionConfig::default(),
        2,
        true,
        PersistPolicy::default(),
    )
    .map_err(|e| e.to_string())?;
    let mut twin = traced.then(Twin::new);
    let mut spans = Spans::default();
    let mut scratch = ExactCounts::default();
    for request in &generator.setup() {
        service.call(request.clone()).map_err(|e| format!("set-up {}: {e}", request.kind()))?;
        if let Some(twin) = twin.as_mut() {
            twin.apply(request, None, &mut Spans::default(), &mut scratch)?;
        }
    }

    let mut out = Replay::default();
    out.exact.history_len =
        generator.sessions().iter().map(|session| session.source_rows() as u64).sum();
    let stream: Vec<_> = (0..ops).flat_map(|_| generator.next_op()).collect();
    let before = persist_counters();
    for op in &stream {
        let (class, request) = (op.class, &op.request);
        let started = Instant::now();
        let result = service.call(request.clone());
        let root_time = started.elapsed();
        let root = spans.push(None, "service", "service.call", root_time);
        out.root_total += root_time;
        out.root_us.entry(class).or_default().push(root_time.as_secs_f64() * 1e6);
        let response = result.map_err(|e| format!("{}: {e}", request.kind()))?;
        // The wire layer, in process: encode the request, encode and
        // decode the reply, as the server and the client would.
        let frame = spans.time(None, "wire", "wire.encode_request", || encode_request(request)).0;
        let reply = encode_reply(&Ok(response));
        let (decoded, _) = spans.time(None, "wire", "wire.decode_reply", || decode_reply(&reply));
        decoded.map_err(|e| e.to_string())?.map_err(|e| e.to_string())?;
        out.exact.requests += 1;
        out.exact.request_bytes += frame.len() as u64;
        out.exact.reply_bytes += reply.len() as u64;
        if let Some(twin) = twin.as_mut() {
            twin.apply(request, Some(root), &mut spans, &mut out.exact)?;
        }
        match class {
            "add-document" => out.exact.edits += 1,
            "migrate" => out.exact.batches += 1,
            _ => {}
        }
    }
    let after = persist_counters();
    out.exact.appends = after[0] - before[0];
    out.exact.append_bytes = after[1] - before[1];
    out.exact.compactions = after[2] - before[2];
    out.exact.compaction_bytes = after[3] - before[3];
    out.exact.ops = match workload {
        Workload::ReadWarm => out.exact.requests,
        Workload::Evolve => out.exact.edits,
        Workload::Migrate => out.exact.batches,
    };
    if traced {
        for span in &spans.spans {
            out.layer_us.entry(span.name).or_default().push(span.duration.as_secs_f64() * 1e6);
        }
        out.spans = spans.spans;
    } else {
        out.exact = ExactCounts { requests: out.exact.requests, ..ExactCounts::default() };
    }
    drop(service);
    let _ = std::fs::remove_dir_all(dir);
    Ok(out)
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

fn per(total: u64, count: u64) -> f64 {
    total as f64 / count.max(1) as f64
}

/// Every per-layer metric of `BENCHMARK.json`, in its order. Counts marked
/// exact in the report repeat bit-for-bit for a fixed seed.
fn layer_metrics(workload: Workload, e2e: &E2e, untraced: &Replay, traced: &Replay) -> Vec<Metric> {
    let exact = &traced.exact;
    let layer = |name: &str| traced.layer_us.get(name).map_or(0.0, |samples| median(samples));
    let root = |replay: &Replay, class: &str| replay.root_us.get(class).map_or(0.0, |s| median(s));
    let mut metrics = vec![
        Metric::exact("wire.request_bytes", per(exact.request_bytes, exact.requests), "B"),
        Metric::exact("wire.reply_bytes", per(exact.reply_bytes, exact.requests), "B"),
        Metric::new("wire.encode_request_us", layer("wire.encode_request"), "us"),
        Metric::new("wire.decode_reply_us", layer("wire.decode_reply"), "us"),
    ];
    for (kind, class) in KINDS {
        let client = e2e.tally.latencies_ms.get(class).map_or(0.0, |s| median(s) * 1e3);
        let in_process = root(untraced, class);
        let overhead = if client > 0.0 && in_process > 0.0 { client - in_process } else { 0.0 };
        metrics.push(Metric::new(format!("event.overhead_us.{kind}"), overhead, "us"));
    }
    metrics.push(Metric::new(
        "event.busy_rejected",
        e2e.server.busy_rejected + e2e.tally.busy as f64,
        "count",
    ));
    for (kind, class) in KINDS {
        metrics.push(Metric::new(format!("service.call_us.{kind}"), root(traced, class), "us"));
    }
    let edits = exact.edits.max(1);
    metrics.extend([
        Metric::new("store.snapshot_us", layer("store.snapshot"), "us"),
        Metric::new("store.ingest_us", layer("store.ingest"), "us"),
        Metric::new("graph.resolve_us", layer("graph.resolve"), "us"),
        Metric::new("chain.fold_us", layer("chain.fold"), "us"),
        Metric::exact("chain.compose_calls_per_op", per(exact.compose_calls, exact.ops), "count"),
        Metric::exact("cache.hit_ratio", per(exact.cache_hits, exact.cache_lookups), "ratio"),
        Metric::exact(
            "cache.invalidated_per_edit",
            if workload == Workload::Evolve { per(exact.invalidated, edits) } else { 0.0 },
            "count",
        ),
        Metric::new("compose.pair_us", layer("compose.pair"), "us"),
        Metric::exact("compose.eliminated.unfold", exact.eliminated[0] as f64, "count"),
        Metric::exact("compose.eliminated.left", exact.eliminated[1] as f64, "count"),
        Metric::exact("compose.eliminated.right", exact.eliminated[2] as f64, "count"),
        Metric::exact("compose.residual_symbols", exact.residual_symbols as f64, "count"),
        Metric::new("analysis.analyze_us", layer("analysis.analyze"), "us"),
        Metric::exact("persist.appends_per_op", per(exact.appends, exact.requests), "count"),
        Metric::exact("persist.append_bytes_per_op", per(exact.append_bytes, exact.requests), "B"),
        Metric::exact("persist.compactions", exact.compactions as f64, "count"),
        Metric::exact(
            "persist.compaction_bytes_per_op",
            per(exact.compaction_bytes, exact.requests),
            "B",
        ),
        Metric::new("persist.compact_ms", e2e.compact_ms, "ms"),
        Metric::new("differential.apply_us", layer("differential.apply"), "us"),
        Metric::new("differential.render_us", layer("differential.render"), "us"),
        Metric::exact(
            "differential.work_per_batch",
            per(exact.differential_work, exact.batches),
            "count",
        ),
        Metric::exact("differential.retracted", exact.retracted as f64, "count"),
        Metric::exact("differential.rederived", exact.rederived as f64, "count"),
        Metric::exact("differential.fallbacks", exact.fallbacks as f64, "count"),
        Metric::exact("differential.history_len", exact.history_len as f64, "count"),
    ]);
    for (layer, self_us) in self_times(traced) {
        metrics.push(Metric::new(format!("self_us.{layer}"), self_us, "us"));
    }
    // Coverage: the share of root time the root's child spans account for
    // (an unmeasured layer shows as the gap). Overhead: root time with the
    // wrappers running against root time without them.
    let mut covered = Duration::ZERO;
    for span in &traced.spans {
        if let Some(parent) = span.parent {
            if traced.spans[parent].layer == "service" {
                covered += span.duration;
            }
        }
    }
    metrics.push(Metric::new(
        "trace.root_coverage",
        covered.as_secs_f64() / traced.root_total.as_secs_f64().max(1e-9),
        "ratio",
    ));
    metrics.push(Metric::new(
        "trace.overhead",
        traced.root_total.as_secs_f64() / untraced.root_total.as_secs_f64().max(1e-9) - 1.0,
        "ratio",
    ));
    metrics
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The counts a later change may claim must repeat exactly: two traced
    /// replays of the same seed agree on every one of them.
    #[test]
    fn work_counts_repeat_exactly_for_a_fixed_seed() {
        let shape = Shape { chains: 4, edits: 8, source_rows: 256 };
        let dir = std::env::temp_dir().join(format!("perfbench-exact-{}", std::process::id()));
        for (workload, ops) in
            [(Workload::ReadWarm, 60), (Workload::Evolve, 8), (Workload::Migrate, 40)]
        {
            let first = replay(workload, 3, shape, ops, true, &dir.join("a")).unwrap();
            let second = replay(workload, 3, shape, ops, true, &dir.join("b")).unwrap();
            assert_eq!(first.exact, second.exact, "{}", workload.name());
            assert!(first.exact.requests > 0 && first.exact.reply_bytes > 0);
            assert!(first.exact.appends > 0, "{}: requests append to the sidecar", workload.name());
            match workload {
                Workload::Evolve => {
                    assert!(first.exact.compose_calls > 0 && first.exact.edits == 8)
                }
                Workload::Migrate => {
                    assert!(first.exact.differential_work > 0);
                    assert_eq!(first.exact.fallbacks, 0);
                }
                Workload::ReadWarm => assert_eq!(first.exact.compose_calls, 0, "warm reads hit"),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
