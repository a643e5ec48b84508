//! # mapcomp-bench
//!
//! Benchmark harness regenerating every figure of the evaluation section of
//! *"Implementing Mapping Composition"* (VLDB 2006, §4).
//!
//! The `figures` binary prints, for each figure, the same series the paper
//! plots; it is the crate's one measurement path. Two post-paper
//! experiments ride along: Figure 8
//! (incremental vs. cold catalog-chain recomposition) and Figure 9 (the
//! chase core vs. the textbook naive chase of [`reference`](mod@reference)).
//!
//! Scale factors control how many runs/edits are simulated: `Scale::Paper`
//! is the paper's full scale (100 runs × 100 edits per configuration, 500
//! reconciliation tasks per point), `Scale::Quick` reproduces the same
//! qualitative shapes in seconds, and `Scale::Smoke` (the CI default,
//! `figures --smoke all`) runs every experiment end to end at tiny sizes so
//! no figure can silently rot.
//!
//! Each `figures` run also persists its points as `BENCH_<figure>.json`
//! documents at the repository root (see [`trajectory`]), and `figures
//! --check BENCH_<fig>.json` re-runs a figure at the file's recorded scale
//! and diffs the fresh points against the committed baseline.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod reference;
pub mod trajectory;

pub use trajectory::{BenchDoc, BenchValue};

use std::collections::BTreeMap;
use std::time::Duration;

use mapcomp_compose::{ComposeConfig, ExchangeConfig, Registry};
use mapcomp_corpus::problems;
use mapcomp_evolution::{
    run_editing, EditingRun, EventVector, PrimitiveKind, PrimitiveOptions, ReconcileConfig,
    ScenarioConfig,
};

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Tiny sizes for CI smoke runs: every experiment exercises its code
    /// path end to end in seconds, so no figure can silently rot.
    Smoke,
    /// Reduced run counts for CI and interactive use.
    Quick,
    /// The run counts reported in the paper.
    Paper,
}

impl Scale {
    /// Number of editing runs per configuration (paper: 100).
    pub fn editing_runs(self) -> usize {
        match self {
            Scale::Smoke => 2,
            Scale::Quick => 8,
            Scale::Paper => 100,
        }
    }

    /// Number of edits per run (paper: 100).
    pub fn edits_per_run(self) -> usize {
        match self {
            Scale::Smoke => 10,
            Scale::Quick => 40,
            Scale::Paper => 100,
        }
    }

    /// Reconciliation tasks per data point (paper: 500).
    pub fn reconcile_samples(self) -> usize {
        match self {
            Scale::Smoke => 1,
            Scale::Quick => 3,
            Scale::Paper => 500,
        }
    }

    /// Edits per reconciliation branch (paper: 100, Figure 7 sweeps it).
    pub fn reconcile_edits(self) -> usize {
        match self {
            Scale::Smoke => 8,
            Scale::Quick => 25,
            Scale::Paper => 100,
        }
    }
}

/// The four configurations of Figures 2 and 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Configuration {
    /// All features, no keys (`no keys`).
    NoKeys,
    /// All features, keyed relations (`keys`).
    Keys,
    /// View unfolding disabled (`no unfolding`).
    NoUnfolding,
    /// Right compose disabled (`no right compose`).
    NoRightCompose,
}

impl Configuration {
    /// All four configurations in the paper's order.
    pub const ALL: [Configuration; 4] = [
        Configuration::NoKeys,
        Configuration::Keys,
        Configuration::NoUnfolding,
        Configuration::NoRightCompose,
    ];

    /// Label used in the figures' legends.
    pub fn label(self) -> &'static str {
        match self {
            Configuration::NoKeys => "no keys",
            Configuration::Keys => "keys",
            Configuration::NoUnfolding => "no unfolding",
            Configuration::NoRightCompose => "no right compose",
        }
    }

    /// Scenario configuration for one run of this configuration.
    pub fn scenario(self, scale: Scale, seed: u64) -> ScenarioConfig {
        let (options, compose_config) = match self {
            Configuration::NoKeys => (PrimitiveOptions::default(), ComposeConfig::default()),
            Configuration::Keys => (PrimitiveOptions::with_keys(), ComposeConfig::default()),
            Configuration::NoUnfolding => {
                (PrimitiveOptions::default(), ComposeConfig::without_view_unfolding())
            }
            Configuration::NoRightCompose => {
                (PrimitiveOptions::default(), ComposeConfig::without_right_compose())
            }
        };
        ScenarioConfig {
            schema_size: 30,
            edits: scale.edits_per_run(),
            options,
            event_vector: EventVector::default_vector(),
            compose_config,
            seed,
        }
    }
}

/// Aggregated per-primitive statistics for one configuration (the bars of
/// Figures 2 and 3).
#[derive(Debug, Clone, Default)]
pub struct PrimitiveAggregate {
    /// Eliminated / attempted counts per primitive.
    pub success: BTreeMap<PrimitiveKind, (usize, usize)>,
    /// Total composition time and edit count per primitive.
    pub time: BTreeMap<PrimitiveKind, (Duration, usize)>,
    /// Per-run total composition times (Figure 4).
    pub run_times: Vec<Duration>,
    /// Overall fraction of intermediate symbols eventually eliminated.
    pub overall_fraction: f64,
}

impl PrimitiveAggregate {
    /// Fraction of symbols eliminated for one primitive.
    pub fn fraction(&self, kind: PrimitiveKind) -> Option<f64> {
        self.success.get(&kind).map(|(eliminated, attempted)| {
            if *attempted == 0 {
                1.0
            } else {
                *eliminated as f64 / *attempted as f64
            }
        })
    }

    /// Mean composition time per edit for one primitive, in milliseconds.
    pub fn mean_millis(&self, kind: PrimitiveKind) -> Option<f64> {
        self.time.get(&kind).map(|(total, count)| {
            if *count == 0 {
                0.0
            } else {
                total.as_secs_f64() * 1000.0 / *count as f64
            }
        })
    }

    /// Median per-run composition time in seconds (the paper reports medians
    /// because of outliers, Figure 4).
    pub fn median_run_seconds(&self) -> f64 {
        if self.run_times.is_empty() {
            return 0.0;
        }
        let mut sorted = self.run_times.clone();
        sorted.sort_unstable();
        sorted[sorted.len() / 2].as_secs_f64()
    }
}

/// Run the schema-editing experiment for one configuration (Figures 2–4).
pub fn editing_experiment(
    configuration: Configuration,
    scale: Scale,
    base_seed: u64,
) -> PrimitiveAggregate {
    let mut aggregate = PrimitiveAggregate::default();
    let mut fraction_sum = 0.0;
    let runs = scale.editing_runs();
    for run_index in 0..runs {
        let scenario = configuration.scenario(scale, base_seed + run_index as u64);
        let run = run_editing(&scenario);
        accumulate(&mut aggregate, &run);
        fraction_sum += run.fraction_eliminated();
    }
    aggregate.overall_fraction = fraction_sum / runs.max(1) as f64;
    aggregate
}

fn accumulate(aggregate: &mut PrimitiveAggregate, run: &EditingRun) {
    for (kind, (eliminated, attempted)) in run.per_primitive_success() {
        let entry = aggregate.success.entry(kind).or_insert((0, 0));
        entry.0 += eliminated;
        entry.1 += attempted;
    }
    for (kind, (total, count)) in run.per_primitive_time() {
        let entry = aggregate.time.entry(kind).or_insert((Duration::ZERO, 0));
        entry.0 += total;
        entry.1 += count;
    }
    aggregate.run_times.push(run.compose_time);
}

/// One point of the Figure 5 sweep (proportion of inclusion edits).
#[derive(Debug, Clone)]
pub struct InclusionPoint {
    /// Proportion of Sub/Sup edits (0.0 – 0.2).
    pub proportion: f64,
    /// Overall fraction of symbols eliminated.
    pub total_fraction: f64,
    /// Per-primitive fractions for the primitives the paper highlights.
    pub per_primitive: BTreeMap<PrimitiveKind, f64>,
    /// Mean per-run composition time in seconds.
    pub mean_time_seconds: f64,
}

/// The primitives highlighted in Figure 5.
pub const FIGURE5_PRIMITIVES: [PrimitiveKind; 4] = [
    PrimitiveKind::AddDefaultForward,
    PrimitiveKind::DropAttribute,
    PrimitiveKind::NormalizeForward,
    PrimitiveKind::HorizontalForward,
];

/// Run the inclusion-proportion sweep of Figure 5.
pub fn inclusion_sweep(scale: Scale, base_seed: u64) -> Vec<InclusionPoint> {
    let proportions: Vec<f64> = (0..=10).map(|i| i as f64 * 0.02).collect();
    let runs = scale.editing_runs().max(2) / 2;
    proportions
        .into_iter()
        .map(|proportion| {
            let mut aggregate = PrimitiveAggregate::default();
            let mut fraction_sum = 0.0;
            let mut time_sum = 0.0;
            for run_index in 0..runs {
                let scenario = ScenarioConfig {
                    schema_size: 30,
                    edits: scale.edits_per_run(),
                    options: PrimitiveOptions::default(),
                    event_vector: EventVector::default_vector()
                        .with_inclusion_proportion(proportion),
                    compose_config: ComposeConfig::default(),
                    seed: base_seed + run_index as u64,
                };
                let run = run_editing(&scenario);
                fraction_sum += run.fraction_eliminated();
                time_sum += run.compose_time.as_secs_f64();
                accumulate(&mut aggregate, &run);
            }
            let per_primitive = FIGURE5_PRIMITIVES
                .iter()
                .filter_map(|kind| aggregate.fraction(*kind).map(|f| (*kind, f)))
                .collect();
            InclusionPoint {
                proportion,
                total_fraction: fraction_sum / runs.max(1) as f64,
                per_primitive,
                mean_time_seconds: time_sum / runs.max(1) as f64,
            }
        })
        .collect()
}

/// One point of the reconciliation sweeps (Figures 6 and 7).
#[derive(Debug, Clone)]
pub struct ReconcilePoint {
    /// The swept parameter (schema size for Figure 6, edit count for
    /// Figure 7).
    pub x: usize,
    /// Fraction of intermediate-schema symbols eliminated.
    pub fraction: f64,
    /// Mean composition time in seconds.
    pub time_seconds: f64,
}

/// Figure 6: fraction eliminated vs. intermediate schema size, for the
/// complete algorithm and the two ablations.
pub fn schema_size_sweep(
    scale: Scale,
    base_seed: u64,
) -> BTreeMap<&'static str, Vec<ReconcilePoint>> {
    let sizes: Vec<usize> = match scale {
        Scale::Smoke => vec![10, 30],
        _ => (1..=10).map(|i| i * 10).collect(),
    };
    let configs: [(&'static str, ComposeConfig); 3] = [
        ("complete", ComposeConfig::default()),
        ("no view unfolding", ComposeConfig::without_view_unfolding()),
        ("no right compose", ComposeConfig::without_right_compose()),
    ];
    let mut out = BTreeMap::new();
    for (label, compose_config) in configs {
        let points = sizes
            .iter()
            .map(|&size| {
                let config = ReconcileConfig {
                    schema_size: size,
                    edits_per_branch: scale.reconcile_edits(),
                    scenario: ScenarioConfig {
                        schema_size: size,
                        edits: scale.reconcile_edits(),
                        compose_config: compose_config.clone(),
                        ..ScenarioConfig::default()
                    },
                    max_branch_retries: 3,
                    seed: base_seed + size as u64,
                };
                let (fraction, time) =
                    mapcomp_evolution::average_reconciliation(&config, scale.reconcile_samples());
                ReconcilePoint { x: size, fraction, time_seconds: time.as_secs_f64() }
            })
            .collect();
        out.insert(label, points);
    }
    out
}

/// Figure 7: fraction eliminated and time vs. number of edits per branch.
pub fn edit_count_sweep(scale: Scale, base_seed: u64) -> Vec<ReconcilePoint> {
    let counts: Vec<usize> = match scale {
        Scale::Smoke => vec![10, 20],
        Scale::Quick => vec![10, 30, 50, 70, 90],
        Scale::Paper => (0..=10).map(|i| 10 + i * 20).collect(),
    };
    counts
        .into_iter()
        .map(|edits| {
            let config = ReconcileConfig {
                schema_size: 30,
                edits_per_branch: edits,
                scenario: ScenarioConfig { schema_size: 30, edits, ..ScenarioConfig::default() },
                max_branch_retries: 3,
                seed: base_seed + edits as u64,
            };
            let (fraction, time) =
                mapcomp_evolution::average_reconciliation(&config, scale.reconcile_samples());
            ReconcilePoint { x: edits, fraction, time_seconds: time.as_secs_f64() }
        })
        .collect()
}

/// Outcome of one corpus problem for the literature-suite report.
#[derive(Debug, Clone)]
pub struct CorpusOutcome {
    /// Problem id.
    pub id: &'static str,
    /// σ2 symbols eliminated.
    pub eliminated: usize,
    /// σ2 symbols in the problem.
    pub total: usize,
    /// Did the result meet the recorded expectation?
    pub expectation_met: bool,
    /// Composition time.
    pub time: Duration,
}

/// Run the 22-problem literature suite.
pub fn corpus_report() -> Vec<CorpusOutcome> {
    let registry = Registry::standard();
    let config = ComposeConfig::default();
    problems()
        .iter()
        .map(|problem| {
            let started = std::time::Instant::now();
            let result = problem.compose(&registry, &config).expect("corpus problem composes");
            CorpusOutcome {
                id: problem.id,
                eliminated: result.eliminated.len(),
                total: result.eliminated.len() + result.remaining.len(),
                expectation_met: problem.check(&result),
                time: started.elapsed(),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Figure 8 (new experiment): incremental vs. cold chain recomposition
// ---------------------------------------------------------------------------

/// One point of the Figure 8 chain-cache experiment: a composition chain of
/// the given length is built by the evolution simulator and registered in a
/// catalog; we measure composing it cold, then editing the middle link and
/// recomposing incrementally with the warm memo cache.
#[derive(Debug, Clone)]
pub struct ChainCachePoint {
    /// Number of links in the chain.
    pub chain_len: usize,
    /// Pairwise compositions for a cold full fold.
    pub cold_calls: usize,
    /// Wall-clock time of the cold fold.
    pub cold_time: Duration,
    /// Pairwise compositions to recompose after editing the middle link.
    pub incremental_calls: usize,
    /// Wall-clock time of the incremental recompose.
    pub incremental_time: Duration,
    /// Pairwise compositions to recompose with nothing edited (must be 0).
    pub warm_calls: usize,
    /// Links the warm recompose materialised (must be 0: a fully memoised
    /// chain is probed on stored hashes alone).
    pub warm_links: usize,
    /// Links the incremental recompose materialised: the ones it folded
    /// alone.
    pub incremental_links: usize,
    /// Residual symbols of the composed chain.
    pub residual_symbols: usize,
    /// ELIMINATE runs of the cold fold.
    pub cold_attempts: usize,
    /// Residuals the cold fold skipped because their constraints were
    /// unchanged.
    pub cold_skips: usize,
    /// ELIMINATE runs of the incremental recompose.
    pub incremental_attempts: usize,
    /// Residuals the incremental recompose skipped.
    pub incremental_skips: usize,
    /// Expression nodes of the memo's segments after the incremental
    /// recompose, counted as trees: every node of every constraint side.
    pub memo_tree_nodes: usize,
    /// The same nodes counted once per allocation ([`memo_node_counts`]):
    /// what the memo's expressions actually hold in memory.
    pub memo_nodes: usize,
    /// Bytes of the memo's sidecar snapshot after the incremental
    /// recompose (`save_cache`): what a compaction writes for it.
    pub memo_sidecar_bytes: usize,
    /// Distinct name allocations the memo holds after the incremental
    /// recompose ([`memo_name_allocs`]): at most one per mapping and schema
    /// of the chain when every segment shares the catalog's names.
    pub memo_name_allocs: usize,
    /// Live memo entries after the incremental recompose.
    pub memo_entries: usize,
    /// References the memo's dependency index holds after the incremental
    /// recompose: two per entry composed from two inputs.
    pub memo_index_refs: usize,
    /// Name references the memo's paths hold after the incremental
    /// recompose, a path node shared by several entries counted once.
    pub memo_path_refs: usize,
}

/// Chain lengths measured per scale.
pub fn chain_lengths(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Smoke => vec![2, 4],
        Scale::Quick => vec![2, 4, 8, 12],
        Scale::Paper => vec![2, 4, 8, 16, 32, 64],
    }
}

/// Build an evolution-derived catalog chain of (up to) `edits` links and
/// return the replayed session plus the chain's mapping names. Exposed for
/// the service benchmark under `perfbench/`, which needs the same setup.
pub fn chain_fixture(edits: usize, seed: u64) -> (mapcomp_catalog::SharedSession, Vec<String>) {
    let scenario = ScenarioConfig {
        schema_size: 8,
        edits,
        options: PrimitiveOptions::default(),
        event_vector: EventVector::default_vector(),
        compose_config: ComposeConfig::default(),
        seed,
    };
    let replay = mapcomp_catalog::replay_editing(&scenario).expect("replay succeeds");
    let path = replay
        .final_result
        .as_ref()
        .map(|result| result.chain.path.iter().map(ToString::to_string).collect())
        .unwrap_or_default();
    (replay.session, path)
}

/// An edited variant of a mapping's constraints: the original plus one
/// trivially-true constraint over a relation of its source schema, so the
/// content hash changes while the mapping stays semantically equivalent.
pub fn edited_variant(
    session: &mapcomp_catalog::SharedSession,
    mapping: &str,
) -> mapcomp_algebra::ConstraintSet {
    let entry = session.catalog().mapping(mapping).expect("mapping exists");
    let source = session.catalog().schema(&entry.source).expect("schema exists");
    let relation = source.signature.names().into_iter().next().expect("non-empty schema");
    let mut constraints = entry.constraints.clone();
    constraints.push(mapcomp_algebra::Constraint::containment(
        mapcomp_algebra::Expr::rel(relation.clone()),
        mapcomp_algebra::Expr::rel(relation),
    ));
    constraints
}

/// Run the Figure 8 experiment: for each chain length, compare cold, warm,
/// and incremental (middle link edited) recomposition.
pub fn chain_cache_experiment(scale: Scale, base_seed: u64) -> Vec<ChainCachePoint> {
    chain_lengths(scale)
        .into_iter()
        .enumerate()
        .filter_map(|(index, edits)| chain_cache_point(edits, base_seed + index as u64))
        .collect()
}

/// The seed of Figure 8's residual point: its 8-link editing chain keeps one
/// residual symbol over every fold step (the length sweep's chains keep
/// none), so its folds exercise the unchanged-residual skip.
pub const RESIDUAL_CHAIN_SEED: u64 = 8009;

/// Figure 8's residual point: the 8-link chain of [`RESIDUAL_CHAIN_SEED`].
pub fn residual_chain_point() -> ChainCachePoint {
    chain_cache_point(8, RESIDUAL_CHAIN_SEED).expect("the residual chain has links")
}

/// One Figure 8 point: cold, warm and incremental (middle link edited)
/// recomposition of the editing chain of `edits` links built from `seed`;
/// `None` when the chain has fewer than two links.
fn chain_cache_point(edits: usize, seed: u64) -> Option<ChainCachePoint> {
    let (session, path) = chain_fixture(edits, seed);
    if path.len() < 2 {
        return None;
    }
    // Cold: a fresh session over the same catalog.
    let cold_session = mapcomp_catalog::SharedSession::new(session.catalog().snapshot());
    let started = std::time::Instant::now();
    let cold = cold_session.compose_names(&path).expect("cold chain composes");
    let cold_time = started.elapsed();

    // Warm: the replayed session already composed this chain.
    let warm = session.compose_names(&path).expect("warm chain composes");

    // Incremental: edit the middle link, recompose.
    let middle = path[path.len() / 2].clone();
    let variant = edited_variant(&session, &middle);
    session.update_mapping(&middle, variant).expect("edit applies");
    let started = std::time::Instant::now();
    let incremental = session.compose_names(&path).expect("incremental chain composes");
    let incremental_time = started.elapsed();
    let (memo_tree_nodes, memo_nodes) = memo_node_counts(session.cache());
    let memo_sidecar_bytes = mapcomp_catalog::save_cache(session.cache()).len();
    let memo_name_allocs = memo_name_allocs(session.cache());
    let cache = session.cache();

    Some(ChainCachePoint {
        chain_len: path.len(),
        cold_calls: cold.compose_calls,
        cold_time,
        incremental_calls: incremental.compose_calls,
        incremental_time,
        warm_calls: warm.compose_calls,
        warm_links: warm.links_materialized,
        incremental_links: incremental.links_materialized,
        residual_symbols: cold.chain.residual.len(),
        cold_attempts: cold.elimination_attempts,
        cold_skips: cold.unchanged_skips,
        incremental_attempts: incremental.elimination_attempts,
        incremental_skips: incremental.unchanged_skips,
        memo_tree_nodes,
        memo_nodes,
        memo_sidecar_bytes,
        memo_name_allocs,
        memo_entries: cache.len(),
        memo_index_refs: cache.index_refs(),
        memo_path_refs: cache.path_refs(),
    })
}

/// Figure 8's provenance bound, violated where a point's memo holds more
/// than two dependency-index or path-name references per entry.
pub fn provenance_violations(
    points: impl IntoIterator<Item = (usize, usize, usize, usize)>,
) -> Vec<String> {
    points
        .into_iter()
        .filter(|&(_, entries, index_refs, path_refs)| {
            index_refs > 2 * entries || path_refs > 2 * entries
        })
        .map(|(links, entries, index_refs, path_refs)| {
            format!(
                "{links} links: {index_refs} index and {path_refs} path references for \
                 {entries} memo entries (at most two each per entry)"
            )
        })
        .collect()
}

/// One point of Figure 8's long-chain table: a chain of copy mappings
/// folded cold, its memo's provenance cost, and the invalidation of its
/// first link.
#[derive(Debug, Clone)]
pub struct LongChainPoint {
    /// Links in the chain.
    pub links: usize,
    /// Pairwise compositions of the cold fold (links − 1).
    pub cold_calls: usize,
    /// Wall-clock time of the cold fold.
    pub cold_time: Duration,
    /// Live memo entries after the fold: one per prefix.
    pub memo_entries: usize,
    /// References the dependency index holds after the fold.
    pub memo_index_refs: usize,
    /// Path-name references the memo holds after the fold.
    pub memo_path_refs: usize,
    /// Bytes of the memo's sidecar snapshot after the fold.
    pub memo_sidecar_bytes: usize,
    /// Entries invalidating the first link drops: every prefix.
    pub invalidated: usize,
    /// Wall-clock time of that invalidation.
    pub invalidate_time: Duration,
}

/// Long-chain lengths per scale: two, the second twice the first, so the
/// table shows how each cost grows with the chain.
pub fn long_chain_lengths(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Smoke => vec![32, 64],
        Scale::Quick => vec![128, 256],
        Scale::Paper => vec![512, 1024],
    }
}

/// The catalog `s0 -> s1 -> … -> s{links}` of unary copy mappings `m{i}`.
fn copy_chain_session(links: usize) -> mapcomp_catalog::SharedSession {
    let mut catalog = mapcomp_catalog::Catalog::new();
    for i in 0..=links {
        let signature = mapcomp_algebra::Signature::from_arities([(format!("R{i}"), 1)]);
        catalog.add_schema(format!("s{i}"), signature);
    }
    for i in 0..links {
        let constraints = mapcomp_algebra::parse_constraints(&format!("R{i} <= R{}", i + 1))
            .expect("a copy constraint parses");
        catalog
            .add_mapping(format!("m{i}"), &format!("s{i}"), &format!("s{}", i + 1), constraints)
            .expect("a copy mapping registers");
    }
    mapcomp_catalog::SharedSession::new(catalog)
}

/// Run Figure 8's long-chain table.
pub fn long_chain_experiment(scale: Scale) -> Vec<LongChainPoint> {
    long_chain_lengths(scale)
        .into_iter()
        .map(|links| {
            let session = copy_chain_session(links);
            let started = std::time::Instant::now();
            let cold = session.compose_path("s0", &format!("s{links}")).expect("the chain folds");
            let cold_time = started.elapsed();
            let cache = session.cache();
            let (memo_entries, memo_index_refs, memo_path_refs) =
                (cache.len(), cache.index_refs(), cache.path_refs());
            let memo_sidecar_bytes = mapcomp_catalog::save_cache(cache).len();
            let started = std::time::Instant::now();
            let invalidated = session.invalidate("m0");
            LongChainPoint {
                links,
                cold_calls: cold.compose_calls,
                cold_time,
                memo_entries,
                memo_index_refs,
                memo_path_refs,
                memo_sidecar_bytes,
                invalidated,
                invalidate_time: started.elapsed(),
            }
        })
        .collect()
}

/// The long-chain table's own invariants: the provenance bound, every
/// prefix invalidated, and sidecar bytes growing linearly in the links —
/// doubling the chain at most doubles the bytes per link, give or take a
/// tenth for the longer names.
pub fn long_chain_violations(points: &[LongChainPoint]) -> Vec<String> {
    let mut violations = provenance_violations(points.iter().map(|point| {
        (point.links, point.memo_entries, point.memo_index_refs, point.memo_path_refs)
    }));
    for point in points.iter().filter(|point| point.invalidated != point.links - 1) {
        violations.push(format!(
            "{} links: invalidating the first link dropped {} of {} entries",
            point.links,
            point.invalidated,
            point.links - 1
        ));
    }
    for pair in points.windows(2) {
        let (short, long) = (&pair[0], &pair[1]);
        let per_link =
            |point: &LongChainPoint| point.memo_sidecar_bytes as f64 / point.links as f64;
        if per_link(long) > 1.1 * per_link(short) {
            violations.push(format!(
                "sidecar bytes per link grow from {:.0} ({} links) to {:.0} ({} links)",
                per_link(short),
                short.links,
                per_link(long),
                long.links
            ));
        }
    }
    violations
}

/// The distinct name allocations (by [`std::sync::Arc::as_ptr`]) across
/// every memo entry's path, explicit provenance and endpoints, and the
/// memo's dependency index: a name copied into a fresh allocation per
/// segment counts once per copy.
pub fn memo_name_allocs(cache: &mapcomp_catalog::ShardedMemoCache) -> usize {
    let names = cache.names();
    let allocations: std::collections::HashSet<*const u8> =
        names.iter().map(|name| std::sync::Arc::as_ptr(name).cast::<u8>()).collect();
    allocations.len()
}

/// The expression nodes of every constraint in a memo's segments, as
/// `(tree, distinct)`: `tree` counts each side as a whole tree, `distinct`
/// counts each node once per allocation, so a subtree shared by several
/// constraints or segments counts once. The arguments of a user-defined
/// operator are owned by its node and count with it.
pub fn memo_node_counts(cache: &mapcomp_catalog::ShardedMemoCache) -> (usize, usize) {
    use mapcomp_algebra::Expr;
    use std::collections::HashSet;
    use std::sync::Arc;

    fn tree(expr: &Expr) -> usize {
        1 + expr.children().into_iter().map(tree).sum::<usize>()
    }
    fn distinct(expr: &Arc<Expr>, seen: &mut HashSet<*const Expr>) -> usize {
        if seen.insert(Arc::as_ptr(expr)) {
            owned(expr, seen)
        } else {
            0
        }
    }
    fn owned(node: &Expr, seen: &mut HashSet<*const Expr>) -> usize {
        1 + match node {
            Expr::Rel(_) | Expr::Domain(_) | Expr::Empty(_) => 0,
            Expr::Union(a, b)
            | Expr::Intersect(a, b)
            | Expr::Product(a, b)
            | Expr::Difference(a, b) => distinct(a, seen) + distinct(b, seen),
            Expr::Project(_, inner) | Expr::Select(_, inner) | Expr::Skolem(_, inner) => {
                distinct(inner, seen)
            }
            Expr::Apply(_, args) => args.iter().map(|arg| owned(arg, seen)).sum(),
        }
    }

    let mut seen = HashSet::new();
    let (mut trees, mut nodes) = (0, 0);
    for (_, chain) in cache.entries() {
        for constraint in chain.mapping.constraints.iter() {
            for side in [&constraint.lhs, &constraint.rhs] {
                trees += tree(side);
                nodes += distinct(side, &mut seen);
            }
        }
    }
    (trees, nodes)
}

// ---------------------------------------------------------------------------
// Figure 9 (new experiment): chase core vs. textbook naive chase scaling
// ---------------------------------------------------------------------------

/// One point of the Figure 9 chase-scaling experiment: the same
/// data-exchange scenario chased by [`mapcomp_compose::exchange()`] (the
/// semi-naive chase core) and by the naive [`reference::naive_exchange`].
#[derive(Debug, Clone)]
pub struct ChaseScalingPoint {
    /// Tuples per source relation.
    pub size: usize,
    /// Length of the target-to-target copy chain (≈ chase rounds).
    pub depth: usize,
    /// Wall-clock time of the naive reference chase.
    pub naive_time: Duration,
    /// Wall-clock time of the chase core.
    pub semi_time: Duration,
    /// Rounds until fixpoint (identical across both chases by construction).
    pub rounds: usize,
    /// Rows the core indexed into its live frontier over the whole run.
    pub frontier_rows: usize,
    /// Labelled nulls the core invented.
    pub nulls: usize,
    /// Did the two chases produce identical targets, skip sets and
    /// convergence flags?
    pub results_agree: bool,
}

impl ChaseScalingPoint {
    /// Naive reference time over chase-core time.
    pub fn speedup(&self) -> f64 {
        let semi = self.semi_time.as_secs_f64();
        if semi > 0.0 {
            self.naive_time.as_secs_f64() / semi
        } else {
            f64::INFINITY
        }
    }
}

/// Source-relation sizes per scale.
pub fn chase_sizes(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Smoke => vec![20, 40],
        Scale::Quick => vec![40, 80, 160, 320],
        Scale::Paper => vec![100, 200, 400, 800],
    }
}

/// Copy-chain depth per scale.
pub fn chase_depth(scale: Scale) -> usize {
    match scale {
        Scale::Smoke => 6,
        Scale::Quick => 10,
        Scale::Paper => 12,
    }
}

/// Build the Figure 9 scenario: a source relation copied into a chain of
/// `depth` target-to-target inclusions, plus a final join rule matching the
/// chain's tail against a second source relation. The chain forces one chase
/// round per link (the worst case for full re-evaluation), and the join rule
/// exercises the indexed premise plans.
#[allow(clippy::type_complexity)]
pub fn chase_scenario(
    size: usize,
    depth: usize,
) -> (
    Vec<mapcomp_algebra::Constraint>,
    mapcomp_algebra::Signature,
    mapcomp_algebra::Signature,
    mapcomp_algebra::Instance,
) {
    use mapcomp_algebra::{parse_constraints, Instance, Signature, Value};

    let mut arities: Vec<(String, usize)> =
        vec![("R".to_string(), 2), ("S".to_string(), 2), ("J".to_string(), 2)];
    for link in 0..=depth {
        arities.push((format!("T{link}"), 2));
    }
    let full = Signature::from_arities(arities.clone());
    let target = Signature::from_arities(
        arities.iter().filter(|(name, _)| name != "R" && name != "S").cloned(),
    );

    // Rules are listed against the data-flow direction (join first, chain
    // reversed, the source rule last), so each round unlocks exactly one
    // link: the worst case for a chase that re-evaluates every rule's full
    // premise every round.
    let mut text = format!("project[0,3](select[#1 = #2](T{depth} * S)) <= J; ");
    for link in (0..depth).rev() {
        text.push_str(&format!("T{link} <= T{}; ", link + 1));
    }
    text.push_str("R <= T0");
    let constraints = parse_constraints(&text).expect("scenario parses").into_vec();

    let mut source = Instance::new();
    for i in 0..size as i64 {
        let key = size as i64 + i;
        source.insert("R", vec![Value::Int(i), Value::Int(key)]);
        source.insert("S", vec![Value::Int(key), Value::Int(i)]);
    }
    (constraints, full, target, source)
}

/// Exchange configuration sized for the Figure 9 scenario (enough rounds for
/// the chain plus the join, and a budget admitting the naive reference's full
/// `T × S` product at every measured size).
pub fn chase_scaling_config(depth: usize) -> ExchangeConfig {
    ExchangeConfig { max_rounds: depth + 5, max_nulls: 10_000, eval_budget: 5_000_000 }
}

/// Run the Figure 9 experiment: chase each scenario with the core and the
/// naive reference, timing both and checking the results coincide.
pub fn chase_scaling_experiment(scale: Scale) -> Vec<ChaseScalingPoint> {
    let registry = Registry::standard();
    let depth = chase_depth(scale);
    chase_sizes(scale)
        .into_iter()
        .map(|size| {
            let (constraints, full, target, source) = chase_scenario(size, depth);
            let config = chase_scaling_config(depth);
            let started = std::time::Instant::now();
            let naive = reference::naive_exchange(
                &constraints,
                &full,
                &target,
                &source,
                &registry,
                &config,
            );
            let naive_time = started.elapsed();
            let started = std::time::Instant::now();
            let semi = mapcomp_compose::exchange(
                &constraints,
                &full,
                &target,
                &source,
                &registry,
                &config,
            );
            let semi_time = started.elapsed();
            let results_agree = naive.target == semi.target
                && naive.converged
                && semi.converged
                && naive.skipped.is_empty()
                && semi.skipped.is_empty()
                && naive.rounds == semi.rounds;
            ChaseScalingPoint {
                size,
                depth,
                naive_time,
                semi_time,
                rounds: semi.rounds,
                frontier_rows: semi.frontier_rows,
                nulls: semi.nulls_created,
                results_agree,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Figure 10 (new experiment): concurrent shared-catalog sessions
// ---------------------------------------------------------------------------

/// One point of a throughput sweep (Figures 10, 11 and 13): a fixed batch
/// of `compose-path` requests served at one setting of the swept count.
#[derive(Debug, Clone)]
pub struct ThroughputPoint {
    /// The swept count: worker threads (Figures 10 and 11) or read-only
    /// follower endpoints (Figure 13).
    pub swept: usize,
    /// Requests in the batch.
    pub requests: usize,
    /// Wall-clock time of the whole batch.
    pub elapsed: Duration,
    /// Requests that failed (must be 0).
    pub failures: usize,
    /// Did every request produce the same result as at the sweep's first
    /// point?
    pub results_consistent: bool,
}

impl ThroughputPoint {
    /// Requests per second.
    pub fn throughput(&self) -> f64 {
        let seconds = self.elapsed.as_secs_f64();
        if seconds > 0.0 {
            self.requests as f64 / seconds
        } else {
            f64::INFINITY
        }
    }

    /// The point's record, its swept count named `swept`.
    pub fn record<'a>(&self, swept: &'a str) -> Vec<(&'a str, BenchValue)> {
        vec![
            (swept, self.swept.into()),
            ("requests", self.requests.into()),
            ("failures", self.failures.into()),
            ("elapsed_ms", BenchValue::millis(self.elapsed)),
            ("req_per_s", self.throughput().into()),
            ("results_consistent", self.results_consistent.into()),
        ]
    }
}

/// Run `batch` at every count of a sweep. A batch returns each request's
/// rendered result and whether it succeeded, in request order, plus its
/// wall-clock time; every point's results are checked against the first
/// point's, so a bug that corrupts content (rather than just timing) shows.
fn throughput_sweep(
    counts: Vec<usize>,
    mut batch: impl FnMut(usize) -> (Vec<(String, bool)>, Duration),
) -> Vec<ThroughputPoint> {
    let mut reference: Option<Vec<String>> = None;
    counts
        .into_iter()
        .map(|swept| {
            let (outcomes, elapsed) = batch(swept);
            let failures = outcomes.iter().filter(|(_, ok)| !ok).count();
            let rendered: Vec<String> = outcomes.into_iter().map(|(text, _)| text).collect();
            let results_consistent = *reference.get_or_insert_with(|| rendered.clone()) == rendered;
            ThroughputPoint {
                swept,
                requests: rendered.len(),
                elapsed,
                failures,
                results_consistent,
            }
        })
        .collect()
}

/// Worker counts measured per scale. The smoke tier deliberately includes a
/// worker count above any CI machine's core count, so oversubscription bugs
/// (deadlocks, lost wakeups) cannot hide behind low parallelism.
pub fn concurrent_workers(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Smoke => vec![1, 4, 8],
        Scale::Quick => vec![1, 2, 4],
        Scale::Paper => vec![1, 2, 4, 8],
    }
}

/// Build the Figure 10 corpus: `chains` independent evolution-style chains
/// of `hops` links each (two relations carried per schema, so every pairwise
/// composition eliminates two symbols), plus the all-pairs request list —
/// every sub-span of every chain, the traffic shape of many sessions
/// consulting one catalog.
pub fn concurrent_corpus(scale: Scale) -> (mapcomp_catalog::Catalog, Vec<(String, String)>) {
    use mapcomp_algebra::{parse_constraints, Signature};

    let (chains, hops) = match scale {
        Scale::Smoke => (3, 4),
        Scale::Quick => (6, 8),
        Scale::Paper => (12, 10),
    };
    let mut catalog = mapcomp_catalog::Catalog::new();
    let mut requests = Vec::new();
    for chain in 0..chains {
        for i in 0..=hops {
            catalog.add_schema(
                format!("c{chain}v{i}"),
                Signature::from_arities([
                    (format!("A{chain}_{i}"), 2),
                    (format!("B{chain}_{i}"), 1),
                ]),
            );
        }
        for i in 0..hops {
            let constraints = parse_constraints(&format!(
                "A{chain}_{i} <= A{chain}_{next}; project[0](B{chain}_{i}) <= B{chain}_{next}",
                next = i + 1
            ))
            .expect("corpus constraints parse");
            catalog
                .add_mapping(
                    format!("c{chain}m{i}"),
                    &format!("c{chain}v{i}"),
                    &format!("c{chain}v{}", i + 1),
                    constraints,
                )
                .expect("corpus mapping registers");
        }
    }
    // Requests are interleaved chain-first (all chains' 1-hop spans, then
    // all 2-hop spans, …): neighbouring requests belong to *different*
    // chains, so strided batch workers spread across the catalog instead of
    // racing to compose the same segments, and short spans warm the cache
    // before the longer spans that reuse them.
    for len in 1..=hops {
        for i in 0..=(hops - len) {
            let j = i + len;
            for chain in 0..chains {
                requests.push((format!("c{chain}v{i}"), format!("c{chain}v{j}")));
            }
        }
    }
    (catalog, requests)
}

/// Run the Figure 10 experiment: for each worker count, share a cold-cache
/// catalog session and time the whole batch.
pub fn concurrent_sessions_experiment(scale: Scale) -> Vec<ThroughputPoint> {
    let (catalog, requests) = concurrent_corpus(scale);
    throughput_sweep(concurrent_workers(scale), |workers| {
        let session = catalog.clone().with_workers(workers);
        let started = std::time::Instant::now();
        let results = session.compose_batch_parallel(&requests);
        let elapsed = started.elapsed();
        let outcomes = results
            .into_iter()
            .map(|result| match result {
                Ok(result) => (result.chain.mapping.constraints.to_string(), true),
                Err(error) => (format!("error: {error}"), false),
            })
            .collect();
        (outcomes, elapsed)
    })
}

// ---------------------------------------------------------------------------
// Figure 11 (new experiment): service throughput over loopback TCP
// ---------------------------------------------------------------------------

/// Send `requests` as `compose-path` calls from `clients` concurrent client
/// connections, strided (client `i` sends requests `i`, `i + clients`, …),
/// the clients round-robin over `endpoints`. Returns each request's chain
/// document (an `error: …` line for a failed request) and whether it
/// succeeded, in request order, plus the wall-clock time of the client
/// phase.
fn drive_compose_clients(
    endpoints: &[String],
    clients: usize,
    requests: &[(String, String)],
) -> (Vec<(String, bool)>, Duration) {
    use mapcomp_service::{Client, Request, Response};

    let started = std::time::Instant::now();
    let mut outcomes: Vec<(usize, String, bool)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|client_index| {
                let endpoint = &endpoints[client_index % endpoints.len()];
                scope.spawn(move || {
                    let client = Client::connect(endpoint).expect("connect to an endpoint");
                    let mut done = Vec::new();
                    for index in (client_index..requests.len()).step_by(clients) {
                        let (from, to) = &requests[index];
                        let request = Request::ComposePath { from: from.clone(), to: to.clone() };
                        done.push(match client.call(request) {
                            Ok(Response::Composed(payload)) => (index, payload.document, true),
                            Ok(other) => (index, format!("error: {}", other.kind()), false),
                            Err(error) => (index, format!("error: {error}"), false),
                        });
                    }
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|handle| handle.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed = started.elapsed();
    outcomes.sort_by_key(|(index, _, _)| *index);
    (outcomes.into_iter().map(|(_, text, ok)| (text, ok)).collect(), elapsed)
}

/// Serve `catalog` on an ephemeral loopback port with `workers` CPU
/// workers, fan `requests` across `workers` concurrent client connections
/// (see [`drive_compose_clients`]), and shut the server down.
fn service_batch_over_loopback(
    catalog: &mapcomp_catalog::Catalog,
    requests: &[(String, String)],
    workers: usize,
) -> (Vec<(String, bool)>, Duration) {
    use mapcomp_service::{Client, EventServer, LocalService, Request};

    let service = LocalService::new(catalog.clone(), workers);
    let server = EventServer::bind("127.0.0.1:0").expect("bind a loopback port");
    let addr = server.local_addr().expect("bound address").to_string();
    std::thread::scope(|scope| {
        let (server, service) = (&server, &service);
        scope.spawn(move || server.run(service, workers).expect("server run"));
        let batch = drive_compose_clients(std::slice::from_ref(&addr), workers.max(1), requests);
        // All clients are done; stop the server so the scope can close.
        let closer = Client::connect(&addr).expect("connect for shutdown");
        closer.call(Request::Shutdown).expect("shutdown accepted");
        batch
    })
}

/// Run the Figure 11 experiment: for each worker count, serve a cold-cache
/// catalog over loopback TCP and time the full request corpus issued by
/// `workers` concurrent client connections.
pub fn service_throughput_experiment(scale: Scale) -> Vec<ThroughputPoint> {
    let (catalog, requests) = concurrent_corpus(scale);
    throughput_sweep(concurrent_workers(scale), |workers| {
        service_batch_over_loopback(&catalog, &requests, workers)
    })
}

// ---------------------------------------------------------------------------
// Figure 11 connection sweep: concurrent connections vs. tail latency
// ---------------------------------------------------------------------------

/// One point of the Figure 11 connection sweep: `connections` concurrent
/// client connections held open against a server with `cpu_workers`
/// compute threads, with per-request round-trip latencies sampled over
/// the Figure 10 corpus.
#[derive(Debug, Clone)]
pub struct ConnectionSweepPoint {
    /// Concurrent client connections held open for the whole point.
    pub connections: usize,
    /// Server CPU worker threads.
    pub cpu_workers: usize,
    /// Requests issued (the concurrency-proof pings plus the composes).
    pub requests: usize,
    /// Requests that failed (must be 0).
    pub failures: usize,
    /// Wall-clock time of the whole point.
    pub elapsed: Duration,
    /// Median compose round-trip latency.
    pub p50: Duration,
    /// 99th-percentile compose round-trip latency.
    pub p99: Duration,
}

/// CPU worker threads used by every connection-sweep point: the ISSUE's
/// acceptance shape is "many connections, few cores".
pub const SWEEP_CPU_WORKERS: usize = 4;

/// Connection counts swept per scale. The smoke tier stops at 256 so CI
/// machines with one core finish promptly; quick and paper go to 1024.
pub fn sweep_connection_counts(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Smoke => vec![64, 256],
        Scale::Quick | Scale::Paper => vec![64, 256, 1024],
    }
}

/// A percentile of an already-sorted latency sample (nearest-rank).
fn percentile(sorted: &[Duration], pct: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let index = ((sorted.len() as f64 - 1.0) * pct).round() as usize;
    sorted[index.min(sorted.len() - 1)]
}

/// Drive one sweep point: open `connections` client sockets against
/// `addr` and keep every one open until the end. Phase 1 proves the
/// concurrency — every connection writes a `ping` before *any* reply is
/// read, so all of them have a request in flight at once. Phase 2 samples
/// latency: the corpus composes, cycled to cover every connection at
/// least twice, issued lock-step round-robin by a small pool of driver
/// threads. Returns (total requests, failures, sorted latencies).
fn drive_connection_sweep(
    addr: &str,
    requests: &[(String, String)],
    connections: usize,
) -> (usize, usize, Vec<Duration>) {
    use mapcomp_service::{decode_reply, encode_request, read_frame, Request, Response};
    use std::io::{BufReader, Write as _};
    use std::net::TcpStream;

    // Connect with retries: a burst of SYNs can overflow the listener
    // backlog, which surfaces as transient refusals.
    let connect = |addr: &str| -> TcpStream {
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        loop {
            match TcpStream::connect(addr) {
                Ok(stream) => return stream,
                Err(error) if std::time::Instant::now() < deadline => {
                    let _ = error;
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(error) => panic!("cannot connect to {addr}: {error}"),
            }
        }
    };
    let mut conns: Vec<(TcpStream, BufReader<TcpStream>)> = (0..connections)
        .map(|_| {
            let stream = connect(addr);
            let _ = stream.set_nodelay(true);
            let reader = BufReader::new(stream.try_clone().expect("clone sweep stream"));
            (stream, reader)
        })
        .collect();

    let mut failures = 0usize;

    // Phase 1: every connection has a ping outstanding simultaneously.
    let ping = encode_request(&Request::Ping);
    for (writer, _) in &mut conns {
        if writer.write_all(ping.as_bytes()).and_then(|()| writer.flush()).is_err() {
            failures += 1;
        }
    }
    for (_, reader) in &mut conns {
        match read_frame(reader) {
            Ok(Some(frame)) => match decode_reply(&frame) {
                Ok(Ok(Response::Pong)) => {}
                _ => failures += 1,
            },
            _ => failures += 1,
        }
    }

    // Phase 2: latency sampling. Cycle the corpus so every connection
    // serves at least two composes.
    let total = requests.len().max(connections * 2);
    let drivers = connections.clamp(1, 8);
    let mut groups: Vec<Vec<(usize, TcpStream, BufReader<TcpStream>)>> =
        (0..drivers).map(|_| Vec::new()).collect();
    for (index, conn) in conns.into_iter().enumerate() {
        groups[index % drivers].push((index, conn.0, conn.1));
    }
    let mut latencies: Vec<Duration> = Vec::with_capacity(total);
    let mut phase_failures = 0usize;
    std::thread::scope(|scope| {
        let handles: Vec<_> = groups
            .iter_mut()
            .map(|group| {
                scope.spawn(move || {
                    let mut samples = Vec::new();
                    let mut failed = 0usize;
                    for (index, writer, reader) in group.iter_mut() {
                        // This connection's share of the cycled corpus.
                        let mut item = *index;
                        while item < total {
                            let (from, to) = &requests[item % requests.len()];
                            let request =
                                Request::ComposePath { from: from.clone(), to: to.clone() };
                            let frame = encode_request(&request);
                            let started = std::time::Instant::now();
                            let ok = writer
                                .write_all(frame.as_bytes())
                                .and_then(|()| writer.flush())
                                .is_ok()
                                && matches!(
                                    read_frame(reader),
                                    Ok(Some(reply)) if matches!(
                                        decode_reply(&reply),
                                        Ok(Ok(Response::Composed(_)))
                                    )
                                );
                            samples.push(started.elapsed());
                            if !ok {
                                failed += 1;
                            }
                            item += connections;
                        }
                    }
                    (samples, failed)
                })
            })
            .collect();
        for handle in handles {
            let (samples, failed) = handle.join().expect("sweep driver thread panicked");
            latencies.extend(samples);
            phase_failures += failed;
        }
    });
    failures += phase_failures;
    latencies.sort();
    (connections + total, failures, latencies)
}

/// Measure one connection-sweep point against a freshly bound server,
/// cold cache.
pub fn connection_sweep_over_loopback(
    catalog: &mapcomp_catalog::Catalog,
    requests: &[(String, String)],
    connections: usize,
    cpu_workers: usize,
) -> ConnectionSweepPoint {
    use mapcomp_service::{Client, EventServer, LocalService, Request};

    let service = LocalService::new(catalog.clone(), cpu_workers);
    let mut server = EventServer::bind("127.0.0.1:0").expect("bind a loopback port");
    // The sweep intentionally floods every connection at once; raise the
    // shed threshold so backpressure does not distort the latency sample.
    server.set_queue_limit(connections * 2);
    let addr = server.local_addr().expect("bound address").to_string();
    let mut outcome = None;
    let started = std::time::Instant::now();
    std::thread::scope(|scope| {
        let (server, service) = (&server, &service);
        scope.spawn(move || server.run(service, cpu_workers).expect("server run"));
        outcome = Some(drive_connection_sweep(&addr, requests, connections));
        let closer = Client::connect(&addr).expect("connect for shutdown");
        closer.call(Request::Shutdown).expect("shutdown accepted");
    });
    let elapsed = started.elapsed();
    let (total, failures, latencies) = outcome.expect("sweep driver ran");
    ConnectionSweepPoint {
        connections,
        cpu_workers,
        requests: total,
        failures,
        elapsed,
        p50: percentile(&latencies, 0.50),
        p99: percentile(&latencies, 0.99),
    }
}

/// Run the Figure 11 connection sweep: one point per swept connection
/// count, each against a fixed [`SWEEP_CPU_WORKERS`]-thread CPU pool.
pub fn connection_sweep_experiment(scale: Scale) -> Vec<ConnectionSweepPoint> {
    let (catalog, requests) = concurrent_corpus(scale);
    sweep_connection_counts(scale)
        .into_iter()
        .map(|connections| {
            connection_sweep_over_loopback(&catalog, &requests, connections, SWEEP_CPU_WORKERS)
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Figure 12 (new experiment): incremental persistence vs. a full snapshot
// ---------------------------------------------------------------------------

/// One point of the Figure 12 persistence experiment: the durability cost
/// of a state-changing service request at a given catalog size. The
/// incremental path appends to the sidecar; the comparison is the size of
/// the full snapshot (document + sidecar) that rewriting both files after
/// the same request would write. Bytes per request are deterministic, so
/// the flat-vs-linear claim is assertable exactly; the append wall time
/// rides along for the report.
#[derive(Debug, Clone)]
pub struct PersistencePoint {
    /// Mappings in the catalog.
    pub mappings: usize,
    /// Mean bytes appended to the sidecar per state-changing request.
    pub incremental_bytes: u64,
    /// Mean size of a full snapshot (whole document + sidecar) of the
    /// state after each request.
    pub rewrite_bytes: u64,
    /// Mean wall-clock time per request.
    pub incremental_time: Duration,
    /// Mean sidecar bytes appended per warm read (a memo hit): 0, because
    /// hit counters are soft state that only rides along with real writes.
    pub read_bytes: u64,
    /// Did a kill (drop without shutdown) and restart replay to the same
    /// catalog document and cumulative cache statistics as before the
    /// kill?
    pub recovered_identical: bool,
    /// Update tokens on the `migrate` line a compaction wrote after the
    /// seeded stream of single-tuple batches ([`PERSISTENCE_MIGRATE_BATCHES`]).
    pub migrate_snapshot_tokens: usize,
    /// Rows of the net source that stream left behind: what
    /// `migrate_snapshot_tokens` must equal.
    pub migrate_net_rows: usize,
}

/// Figure 12 points whose compacted `migrate` line does not hold exactly
/// the session's net source rows (a line that grows with every batch
/// applied, say).
pub fn persistence_violations(points: &[PersistencePoint]) -> Vec<String> {
    let mismatched = points
        .iter()
        .enumerate()
        .filter(|(_, point)| point.migrate_snapshot_tokens != point.migrate_net_rows);
    mismatched
        .map(|(index, point)| {
            format!(
                "point {index}: the compacted `migrate` line holds {} tokens for {} net source \
                 rows (`migrate_snapshot_tokens`)",
                point.migrate_snapshot_tokens, point.migrate_net_rows
            )
        })
        .collect()
}

/// Catalog sizes (mapping counts) per scale. Every scale spans at least a
/// 16x growth so the flat-vs-linear comparison has room to separate.
pub fn persistence_sizes(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Smoke => vec![12, 192],
        Scale::Quick => vec![12, 48, 192],
        Scale::Paper => vec![16, 64, 256, 512],
    }
}

/// Render the Figure 12 catalog document: a single composition chain of
/// `mappings` one-relation hops, so the document (and therefore the
/// full-snapshot size) grows linearly in the mapping count while every
/// measured request touches a constant-size two-hop span.
pub fn persistence_document(mappings: usize) -> String {
    let mut text = String::new();
    for i in 0..=mappings {
        text.push_str(&format!("schema pv{i} {{ P{i}/1; }}\n"));
    }
    for i in 0..mappings {
        text.push_str(&format!("mapping pm{i} : pv{i} -> pv{} {{ P{i} <= P{}; }}\n", i + 1, i + 1));
    }
    text
}

/// One state-changing request of the Figure 12 sequence.
enum PersistenceStep {
    /// Compose the two-hop span starting at schema `pv{2 * n}`.
    Compose(usize),
    /// Invalidate one mapping.
    Invalidate(&'static str),
}

/// The state-changing requests per measured point: two-hop composes and an
/// invalidation of the first one's middle link, which is then recomposed,
/// so the warm reads after the restart still find every span.
const PERSISTENCE_STEPS: [PersistenceStep; 4] = [
    PersistenceStep::Compose(0),
    PersistenceStep::Compose(1),
    PersistenceStep::Invalidate("pm1"),
    PersistenceStep::Compose(0),
];

/// State-changing requests per measured point.
const PERSISTENCE_REQUESTS: usize = PERSISTENCE_STEPS.len();

/// The spans the warm reads after the restart compose again.
const PERSISTENCE_READS: [usize; 2] = [0, 1];

/// The Figure 12 migration session's schemas and mapping.
const PERSISTENCE_MIGRATION: &str =
    "schema pq0 { Q/1; } schema pq1 { W/1; } mapping pq : pq0 -> pq1 { Q <= W; }";

/// Single-tuple batches in the Figure 12 migration stream, over a key
/// space a quarter its size, so most keys are inserted and deleted again.
pub const PERSISTENCE_MIGRATE_BATCHES: usize = 64;

/// Drive a seeded stream of single-tuple batches through a migration
/// session of `service` (a key's batch deletes it when it is live and
/// inserts it otherwise), then compact. Returns the update tokens on the
/// compacted `migrate` line and the rows of the net source.
fn persistence_migration(
    service: &mapcomp_service::LocalService,
    sidecar: &std::path::Path,
) -> (usize, usize) {
    use mapcomp_service::{MapcompService as _, Request, Response};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    let reply = service.call(Request::AddDocument { text: PERSISTENCE_MIGRATION.into() });
    assert!(reply.is_ok(), "fig12 migration document: {reply:?}");
    let mut rng = StdRng::seed_from_u64(0xF12);
    let mut live = std::collections::BTreeSet::new();
    for _ in 0..PERSISTENCE_MIGRATE_BATCHES {
        let key = rng.gen_range(0..(PERSISTENCE_MIGRATE_BATCHES / 4) as i64);
        let sign = if live.remove(&key) { '-' } else { '+' };
        if sign == '+' {
            live.insert(key);
        }
        let reply = service.call(Request::MigrateDelta {
            from: "pq0".into(),
            to: "pq1".into(),
            updates: vec![format!("{sign}Q({key})")],
        });
        assert!(matches!(reply, Ok(Response::Migrated(_))), "fig12 migrate: {reply:?}");
    }
    let reply = service.call(Request::Compact);
    assert!(reply.is_ok(), "fig12 compact: {reply:?}");
    let text = std::fs::read_to_string(sidecar).unwrap_or_default();
    let line = text.lines().find_map(|line| line.strip_prefix("migrate pq0 pq1"));
    (line.map_or(0, |tokens| tokens.split_whitespace().count()), live.len())
}

/// Measure one catalog size: seed a persistent service, drive the
/// state-changing requests, and after each one record the bytes appended
/// and the size of the full snapshot a compaction would write at that
/// point; then kill (no shutdown, no compaction) and restart, checking
/// that recovery replays the delta tail to the same state. Last, the
/// restarted service runs a migration stream and compacts
/// ([`persistence_migration`]).
fn persistence_run(mappings: usize) -> PersistencePoint {
    use mapcomp_catalog::Position;
    use mapcomp_service::{sidecar_path, LocalService, MapcompService as _, Request, Response};

    let file = temp_catalog(&format!("fig12_{mappings}"));
    let sidecar = sidecar_path(&file);
    let service = open_persistent(&file, 1);
    seed_chain(&service, mappings);
    let file_bytes = |path: &std::path::Path| std::fs::metadata(path).map_or(0, |meta| meta.len());
    // What a compaction would write now: the document plus a sidecar
    // snapshot, opening generation 2 (seeding opened generation 1).
    let snapshot_bytes = |service: &LocalService| {
        let (document, sidecar, _, _) = service.render_snapshot(Position::new(2, 0));
        (document.len() + sidecar.len()) as u64
    };
    let compose = |service: &LocalService, span: usize| {
        let from = 2 * span;
        let reply = service.call(Request::ComposePath {
            from: format!("pv{from}"),
            to: format!("pv{}", from + 2),
        });
        assert!(reply.is_ok(), "fig12 compose failed: {reply:?}");
    };
    let mut appended = 0u64;
    let mut rewrite = 0u64;
    let mut elapsed = Duration::ZERO;
    for step in &PERSISTENCE_STEPS {
        let before_sidecar = file_bytes(&sidecar);
        let started = std::time::Instant::now();
        match step {
            PersistenceStep::Compose(span) => compose(&service, *span),
            PersistenceStep::Invalidate(mapping) => {
                let reply = service.call(Request::Invalidate { mapping: mapping.to_string() });
                assert!(matches!(reply, Ok(Response::Invalidated { dropped: 1.. })), "{reply:?}");
            }
        }
        elapsed += started.elapsed();
        // Appends only: the document snapshot is untouched.
        appended += file_bytes(&sidecar).saturating_sub(before_sidecar);
        rewrite += snapshot_bytes(&service);
    }

    let pre_document =
        service.session().catalog().read(mapcomp_catalog::Catalog::to_document_string);
    let pre_stats = service.session().cache().stats();
    drop(service);
    let reopened = open_persistent(&file, 1);
    let recovered = reopened.session().catalog().read(mapcomp_catalog::Catalog::to_document_string)
        == pre_document
        && reopened.session().cache().stats() == pre_stats;
    // The composed spans again, now served warm from the recovered memo.
    let before_reads = file_bytes(&sidecar);
    for span in PERSISTENCE_READS {
        compose(&reopened, span);
    }
    let read_bytes = file_bytes(&sidecar).saturating_sub(before_reads);
    let (migrate_snapshot_tokens, migrate_net_rows) = persistence_migration(&reopened, &sidecar);
    drop(reopened);
    remove_catalog(&file);
    PersistencePoint {
        mappings,
        incremental_bytes: appended / PERSISTENCE_REQUESTS as u64,
        rewrite_bytes: rewrite / PERSISTENCE_REQUESTS as u64,
        incremental_time: elapsed / PERSISTENCE_REQUESTS as u32,
        read_bytes: read_bytes / PERSISTENCE_READS.len() as u64,
        recovered_identical: recovered,
        migrate_snapshot_tokens,
        migrate_net_rows,
    }
}

/// Run the Figure 12 experiment: at each catalog size, drive the same
/// state-changing request sequence through an incrementally persisted
/// service, recording mean bytes appended, mean full-snapshot size and
/// mean wall time per request plus a kill-and-restart recovery check.
pub fn persistence_experiment(scale: Scale) -> Vec<PersistencePoint> {
    persistence_sizes(scale).into_iter().map(persistence_run).collect()
}

// ---------------------------------------------------------------------------
// Figure 13: delta-log replication — follower catch-up and read scaling
// ---------------------------------------------------------------------------

/// One point of the Figure 13 catch-up experiment: a follower that was
/// offline while the leader appended `writes` state-changing requests
/// reconnects and streams the missed delta chunks.
#[derive(Debug, Clone)]
pub struct ReplicationCatchupPoint {
    /// State-changing requests the leader took while the follower was down.
    pub writes: usize,
    /// Positioned records in the leader's log when the follower reconnected
    /// (deterministic: the write workload is fixed).
    pub log_records: u64,
    /// Wall-clock time from follower restart to convergence on the leader's
    /// log-end position.
    pub catchup: Duration,
    /// Did the caught-up follower render the identical catalog document?
    pub converged: bool,
}

/// Delta-log lengths (leader writes taken while the follower is down)
/// swept by the catch-up experiment.
pub fn replication_log_lengths(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Smoke => vec![4, 32],
        Scale::Quick => vec![8, 32, 128],
        Scale::Paper => vec![16, 128, 512],
    }
}

/// Follower counts swept by the read-scaling experiment (0 = the
/// leader-only baseline).
pub fn replication_follower_counts(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Smoke => vec![0, 2],
        Scale::Quick => vec![0, 1, 2],
        Scale::Paper => vec![0, 1, 2, 4],
    }
}

/// Mappings in the Figure 13 leader catalog (the Figure 12 chain shape:
/// the document grows linearly, every read touches a two-hop span).
const FIG13_CHAIN: usize = 12;

/// Read requests issued per read-scaling point.
fn fig13_read_requests(scale: Scale) -> usize {
    match scale {
        Scale::Smoke => 240,
        Scale::Quick => 960,
        Scale::Paper => 4800,
    }
}

/// Compose-span length of the read corpus: long enough that rendering the
/// chain document is real per-request work, so endpoint CPU — not loopback
/// overhead — is what the added followers multiply.
const FIG13_SPAN: usize = 6;

/// The fixed read corpus of the read-scaling experiment: six-hop compose
/// spans cycling over the chain, identical at every follower count so the
/// rendered results can be compared across points.
pub fn replication_read_corpus(scale: Scale) -> Vec<(String, String)> {
    (0..fig13_read_requests(scale))
        .map(|index| {
            let from = index % (FIG13_CHAIN - FIG13_SPAN);
            (format!("pv{from}"), format!("pv{}", from + FIG13_SPAN))
        })
        .collect()
}

/// The `round`-th catch-up write: alternate two bodies of the chain's
/// first mapping, so every write is a contentful edit appending the full
/// declaration + invalidation + version chunk to the delta log.
fn fig13_write_document(round: usize) -> String {
    if round.is_multiple_of(2) {
        "mapping pm0 : pv0 -> pv1 { project[0](P0) <= P1; }\n".to_string()
    } else {
        "mapping pm0 : pv0 -> pv1 { P0 <= P1; }\n".to_string()
    }
}

/// A catalog path `mapcomp_<tag>_<pid>.doc` in the temp directory, cleared
/// of anything an earlier run left there.
fn temp_catalog(tag: &str) -> std::path::PathBuf {
    let file = std::env::temp_dir().join(format!("mapcomp_{tag}_{}.doc", std::process::id()));
    remove_catalog(&file);
    file
}

/// Remove a catalog file and its persistence artifacts.
fn remove_catalog(file: &std::path::Path) {
    let sidecar = mapcomp_service::sidecar_path(file);
    let mut lock = sidecar.clone().into_os_string();
    lock.push(".lock");
    let mut tmp = sidecar.clone().into_os_string();
    tmp.push(".tmp");
    for stale in [file.to_path_buf(), sidecar, lock.into(), tmp.into()] {
        let _ = std::fs::remove_file(stale);
    }
}

/// Open a persistent service over `file` with its compaction thresholds
/// disabled, so the sidecar only moves when the experiment writes and never
/// compacts mid-run.
fn open_persistent(file: &std::path::Path, workers: usize) -> mapcomp_service::LocalService {
    let policy = mapcomp_service::PersistPolicy { compact_appends: None, compact_bytes: None };
    let session = mapcomp_catalog::SessionConfig::default();
    mapcomp_service::LocalService::open_with_policy(
        file,
        Registry::standard(),
        session,
        workers,
        true,
        policy,
    )
    .expect("open a persistent service")
}

/// Add the [`persistence_document`] chain of `mappings` links.
fn seed_chain(service: &mapcomp_service::LocalService, mappings: usize) {
    use mapcomp_service::{MapcompService as _, Request, Response};

    match service.call(Request::AddDocument { text: persistence_document(mappings) }) {
        Ok(Response::Added { .. }) => {}
        other => panic!("seeding a {mappings}-link chain failed: {other:?}"),
    }
}

/// Open a replicating leader over a fresh temp catalog seeded with the
/// Figure 13 chain.
fn fig13_leader(tag: &str) -> (mapcomp_service::LocalService, std::path::PathBuf) {
    let file = temp_catalog(&format!("fig13_{tag}"));
    let service = open_persistent(&file, 2);
    seed_chain(&service, FIG13_CHAIN);
    service.enable_replication().expect("enable replication on the fig13 leader");
    (service, file)
}

/// Poll a follower until it is streaming at (or past) `target`.
fn fig13_await_catchup(follower: &mapcomp_service::Follower, target: mapcomp_catalog::Position) {
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    loop {
        let status = follower.status();
        if status.state == "streaming" && status.position >= target {
            return;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "fig13 follower stalled short of {target} at {} ({})",
            status.position,
            status.state
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn replication_catchup_run(writes: usize) -> ReplicationCatchupPoint {
    use mapcomp_service::{Client, EventServer, Follower, MapcompService as _, Request};

    let (leader, leader_file) = fig13_leader(&format!("catchup_leader_{writes}"));
    let follower_file = temp_catalog(&format!("fig13_catchup_follower_{writes}"));
    let server = EventServer::bind("127.0.0.1:0").expect("bind a loopback port");
    let addr = server.local_addr().expect("bound address").to_string();
    let mut point = ReplicationCatchupPoint {
        writes,
        log_records: 0,
        catchup: Duration::default(),
        converged: false,
    };
    std::thread::scope(|scope| {
        let (server, leader, addr) = (&server, &leader, addr.as_str());
        scope.spawn(move || server.run(leader, 2).expect("leader server run"));

        let open_follower = || {
            Follower::open(
                &follower_file,
                addr,
                Registry::standard(),
                mapcomp_catalog::SessionConfig::default(),
                1,
                None,
            )
            .expect("open the fig13 follower")
        };

        // First life: converge on the seeded catalog, then go offline.
        let follower = open_follower();
        let seeded = leader.replication_hub().expect("replicating leader").position();
        std::thread::scope(|inner| {
            let apply = inner.spawn(|| follower.run());
            fig13_await_catchup(&follower, seeded);
            follower.stop();
            apply.join().expect("apply thread").expect("apply loop");
        });
        drop(follower);

        // The follower is down while the leader appends `writes` edits.
        for round in 0..writes {
            leader
                .call(Request::AddDocument { text: fig13_write_document(round) })
                .expect("fig13 leader write");
        }
        let end = leader.replication_hub().expect("replicating leader").position();
        point.log_records = end.seq;

        // Second life: reconnect and stream exactly the missed chunks.
        let follower = open_follower();
        let started = std::time::Instant::now();
        std::thread::scope(|inner| {
            let apply = inner.spawn(|| follower.run());
            fig13_await_catchup(&follower, end);
            point.catchup = started.elapsed();
            follower.stop();
            apply.join().expect("apply thread").expect("apply loop");
        });
        point.converged =
            leader.session().catalog().read(mapcomp_catalog::Catalog::to_document_string)
                == follower.catalog_snapshot().to_document_string();

        let closer = Client::connect(addr).expect("connect for shutdown");
        closer.call(Request::Shutdown).expect("shutdown accepted");
    });
    remove_catalog(&leader_file);
    remove_catalog(&follower_file);
    point
}

/// Run the catch-up half of Figure 13: for each log length, a follower
/// sits out that many leader writes and the time from its restart to
/// byte-identical convergence is measured.
pub fn replication_catchup_experiment(scale: Scale) -> Vec<ReplicationCatchupPoint> {
    replication_log_lengths(scale).into_iter().map(replication_catchup_run).collect()
}

/// Serve the fixed read corpus over one leader plus `followers` converged
/// replicas and return the per-request outcomes and the client phase's
/// wall-clock time (see [`drive_compose_clients`]).
///
/// The client side presents `clients` connections at *every* point
/// (round-robin over the endpoints) and each endpoint runs a single CPU
/// worker, so demand is constant and serving capacity is the only
/// variable: added followers are added capacity, and on multi-core
/// hardware throughput scales with them. On a loaded or single-core
/// machine the wall-clock speedup flattens — the same caveat as the
/// Figure 10/11 scaling columns — which is why the trajectory records the
/// rate as volatile and only the correctness fields exactly.
fn replication_read_run(
    followers: usize,
    clients: usize,
    requests: &[(String, String)],
) -> (Vec<(String, bool)>, Duration) {
    use mapcomp_service::{Client, EventServer, Follower, ReadOnlyService, Request};

    let (leader, leader_file) = fig13_leader(&format!("reads_leader_{followers}"));
    let leader_server = EventServer::bind("127.0.0.1:0").expect("bind a loopback port");
    let leader_addr = leader_server.local_addr().expect("bound address").to_string();
    let follower_files: Vec<std::path::PathBuf> = (0..followers)
        .map(|index| temp_catalog(&format!("fig13_reads_follower_{followers}_{index}")))
        .collect();
    // Everything scoped threads borrow must outlive the scope, so the
    // follower stack is built up front (`Follower::open` does not dial).
    let follower_handles: Vec<Follower> = follower_files
        .iter()
        .map(|file| {
            Follower::open(
                file,
                leader_addr.as_str(),
                Registry::standard(),
                mapcomp_catalog::SessionConfig::default(),
                2,
                None,
            )
            .expect("open a fig13 follower")
        })
        .collect();
    let follower_services: Vec<ReadOnlyService> =
        follower_handles.iter().map(Follower::service).collect();
    let follower_servers: Vec<EventServer> = (0..followers)
        .map(|_| EventServer::bind("127.0.0.1:0").expect("bind a follower port"))
        .collect();
    let mut endpoints = vec![leader_addr.clone()];
    for server in &follower_servers {
        endpoints.push(server.local_addr().expect("bound follower address").to_string());
    }
    let batch = std::thread::scope(|scope| {
        let (leader_server, leader, leader_addr) = (&leader_server, &leader, leader_addr.as_str());
        let follower_handles = &follower_handles;
        scope.spawn(move || leader_server.run(leader, 1).expect("leader server run"));

        let apply_handles: Vec<_> =
            follower_handles.iter().map(|follower| scope.spawn(move || follower.run())).collect();
        for (server, service) in follower_servers.iter().zip(&follower_services) {
            scope.spawn(move || server.run(service, 1).expect("follower server run"));
        }
        let target = leader.replication_hub().expect("replicating leader").position();
        for follower in follower_handles {
            fig13_await_catchup(follower, target);
        }

        let batch = drive_compose_clients(&endpoints, clients, requests);

        // Teardown: each follower front end first (shutdown also stops its
        // apply loop), then the leader.
        for (index, endpoint) in endpoints[1..].iter().enumerate() {
            let closer = Client::connect(endpoint).expect("connect for follower shutdown");
            closer.call(Request::Shutdown).expect("follower shutdown accepted");
            follower_handles[index].stop();
        }
        for apply in apply_handles {
            apply.join().expect("apply thread").expect("apply loop");
        }
        let closer = Client::connect(leader_addr).expect("connect for shutdown");
        closer.call(Request::Shutdown).expect("shutdown accepted");
        batch
    });
    remove_catalog(&leader_file);
    for file in &follower_files {
        remove_catalog(file);
    }
    batch
}

/// Run the read-scaling half of Figure 13: the same read corpus against
/// the leader alone and against the leader plus each swept follower count,
/// with every point's results checked against the leader-only baseline.
pub fn replication_read_experiment(scale: Scale) -> Vec<ThroughputPoint> {
    let requests = replication_read_corpus(scale);
    let counts = replication_follower_counts(scale);
    // Constant demand at every point: two connections per endpoint of the
    // *largest* configuration, so the leader-only baseline is saturated
    // rather than client-starved.
    let clients = 2 * (1 + counts.iter().copied().max().unwrap_or(0));
    throughput_sweep(counts, |followers| replication_read_run(followers, clients, &requests))
}

// ---------------------------------------------------------------------------
// Figure 14 (new experiment): differential chase — update cost vs. re-chase
// ---------------------------------------------------------------------------

/// One point of the Figure 14 differential-maintenance experiment: a
/// constant-size signed batch applied incrementally to a maintained target,
/// against a full re-chase over the same post-update source.
#[derive(Debug, Clone)]
pub struct DifferentialUpdatePoint {
    /// Source rows in the instance.
    pub size: usize,
    /// Copy-chain depth.
    pub depth: usize,
    /// Updates in the applied batch (constant across the sweep).
    pub batch: usize,
    /// Binding rows charged by the incremental batch.
    pub delta_work: usize,
    /// Binding rows charged by the full re-chase over the updated source.
    pub rebuild_work: usize,
    /// Target rows rendered to bring the maintained target text up to date
    /// after the batch (flat in instance size: only the touched chunks).
    pub render_rows: usize,
    /// Bytes of escaped reply text those rows make (growing only with the
    /// width of their values).
    pub render_bytes: usize,
    /// Distinct row allocations the maintained engine holds after the
    /// batch ([`mapcomp_compose::DifferentialChase::row_allocations`]): one
    /// per source row, since every target row of the copy chain shares its
    /// source row.
    pub row_allocs: usize,
    /// Wall-clock time of the incremental batch.
    pub delta_time: Duration,
    /// Wall-clock time of the full re-chase.
    pub rebuild_time: Duration,
    /// Did the batch fall back to a full recompute? (Must be false: the
    /// scenario is plannable and non-recursive.)
    pub fallback: bool,
    /// Is the maintained target text byte-identical to a fresh rendering of
    /// the re-chased target?
    pub results_identical: bool,
}

/// Figure 14's own invariants, one line per violation: every batch stays
/// on the incremental path (`fallback` is not a recorded field), the
/// engine holds one allocation per source row, and reply rendering is flat
/// in instance size.
pub fn differential_violations(points: &[DifferentialUpdatePoint]) -> Vec<String> {
    let mut violations = Vec::new();
    for (index, point) in points.iter().enumerate() {
        if point.fallback {
            violations.push(format!("point {index}: the batch fell back to a full re-chase"));
        }
        if point.row_allocs != point.size {
            violations.push(format!(
                "point {index}: {} row allocations for {} source rows (`row_allocs`)",
                point.row_allocs, point.size
            ));
        }
    }
    if !points.windows(2).all(|pair| pair[0].render_rows == pair[1].render_rows) {
        violations.push("reply rendering is not flat in instance size (`render_rows`)".into());
    }
    violations
}

/// Build the Figure 14 scenario: a source relation copied through a chain of
/// `depth` target-to-target inclusions — the same worst-case round structure
/// as Figure 9, restricted to the plannable, non-recursive fragment so every
/// batch stays on the incremental path.
#[allow(clippy::type_complexity)]
pub fn differential_scenario(
    size: usize,
    depth: usize,
) -> (
    Vec<mapcomp_algebra::Constraint>,
    mapcomp_algebra::Signature,
    mapcomp_algebra::Signature,
    mapcomp_algebra::Instance,
) {
    use mapcomp_algebra::{parse_constraints, Instance, Signature, Value};

    let mut arities: Vec<(String, usize)> = vec![("R".to_string(), 2)];
    for link in 0..=depth {
        arities.push((format!("T{link}"), 2));
    }
    let full = Signature::from_arities(arities.clone());
    let target = Signature::from_arities(arities.iter().filter(|(name, _)| name != "R").cloned());

    // Rules listed against the data-flow direction, as in Figure 9: each
    // full-chase round unlocks exactly one link.
    let mut text = String::new();
    for link in (0..depth).rev() {
        text.push_str(&format!("T{link} <= T{}; ", link + 1));
    }
    text.push_str("R <= T0");
    let constraints = parse_constraints(&text).expect("scenario parses").into_vec();

    let mut source = Instance::new();
    for i in 0..size as i64 {
        source.insert("R", vec![Value::Int(i), Value::Int(size as i64 + i)]);
    }
    (constraints, full, target, source)
}

/// Run the Figure 14 experiment: at each instance size, apply one
/// constant-size signed batch (two fresh inserts, two deletes of live rows)
/// to a maintained engine, then rebuild from scratch over the same updated
/// source. The work counters are deterministic; the timings are volatile.
pub fn differential_update_experiment(scale: Scale) -> Vec<DifferentialUpdatePoint> {
    use mapcomp_algebra::Value;
    use mapcomp_compose::{render_instance, DifferentialChase, Update};

    let registry = Registry::standard();
    let depth = chase_depth(scale);
    chase_sizes(scale)
        .into_iter()
        .map(|size| {
            let (constraints, full, target, source) = differential_scenario(size, depth);
            let config = chase_scaling_config(depth);
            let mut engine =
                DifferentialChase::new(&constraints, &full, &target, source, &registry, &config);
            assert!(
                engine.incremental_ready() && !engine.recursive(),
                "the fig14 scenario must stay on the incremental path"
            );
            let updates = vec![
                Update::insert("R", vec![Value::Int(-1), Value::Int(-10)]),
                Update::insert("R", vec![Value::Int(-2), Value::Int(-20)]),
                Update::delete("R", vec![Value::Int(0), Value::Int(size as i64)]),
                Update::delete("R", vec![Value::Int(1), Value::Int(size as i64 + 1)]),
            ];
            let batch = updates.len();
            let started = std::time::Instant::now();
            let report = engine.apply(&updates).expect("the fig14 batch applies");
            let delta_time = started.elapsed();
            let row_allocs = engine.row_allocations();
            let maintained = engine.rendered_target();
            let started = std::time::Instant::now();
            engine.rebuild();
            let rebuild_time = started.elapsed();
            DifferentialUpdatePoint {
                size,
                depth,
                batch,
                delta_work: report.work,
                rebuild_work: engine.chase_work(),
                render_rows: report.render_rows,
                render_bytes: report.render_bytes,
                row_allocs,
                delta_time,
                rebuild_time,
                fallback: report.fallback,
                results_identical: maintained == render_instance(engine.target()),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_editing_experiment_produces_data() {
        let aggregate = editing_experiment(Configuration::NoKeys, Scale::Quick, 100);
        assert_eq!(aggregate.run_times.len(), Scale::Quick.editing_runs());
        assert!(aggregate.overall_fraction > 0.3, "fraction {}", aggregate.overall_fraction);
        assert!(!aggregate.success.is_empty());
        // Fractions are well-formed probabilities.
        for kind in PrimitiveKind::ALL {
            if let Some(fraction) = aggregate.fraction(kind) {
                assert!((0.0..=1.0).contains(&fraction), "{kind}: {fraction}");
            }
        }
        assert!(aggregate.median_run_seconds() >= 0.0);
    }

    #[test]
    fn configurations_have_distinct_labels_and_scenarios() {
        let labels: Vec<&str> = Configuration::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), 4);
        let keys = Configuration::Keys.scenario(Scale::Quick, 1);
        assert!(keys.options.keys_enabled);
        let ablated = Configuration::NoRightCompose.scenario(Scale::Quick, 1);
        assert!(!ablated.compose_config.enable_right_compose);
    }

    #[test]
    fn corpus_report_covers_all_problems() {
        let report = corpus_report();
        assert_eq!(report.len(), 22);
        assert!(report.iter().all(|o| o.expectation_met));
        assert!(report.iter().all(|o| o.eliminated <= o.total));
    }

    #[test]
    fn chase_scaling_semi_naive_beats_naive() {
        let points = chase_scaling_experiment(Scale::Quick);
        assert_eq!(points.len(), chase_sizes(Scale::Quick).len());
        for point in &points {
            assert!(point.results_agree, "chases disagree at size {}: {point:?}", point.size);
            assert_eq!(point.rounds, point.depth + 3, "chain + join + fixpoint rounds");
        }
        // The acceptance criterion: ≥ 3x on the largest scenario. The gap is
        // structural (the naive reference re-materialises every premise and
        // the full T × S product every round), so the margin is wide.
        let largest = points.last().expect("non-empty");
        assert!(
            largest.speedup() >= 3.0,
            "semi-naive speedup at size {} is only {:.2}x (naive {:?}, semi-naive {:?})",
            largest.size,
            largest.speedup(),
            largest.naive_time,
            largest.semi_time
        );
    }

    #[test]
    fn semi_naive_frontier_indexes_each_live_row_exactly_once() {
        // Regression guard for the persistent frontier index: one index
        // insert per live tuple of every plan-read relation for the *whole
        // run* — R and S sources plus the depth+1 chain relations, each
        // `size` rows (J is write-only and never indexed). The per-round
        // snapshot clone this replaced cost `rounds × |source ∪ target|`,
        // i.e. this number times the round count.
        let registry = Registry::standard();
        let depth = chase_depth(Scale::Quick);
        for size in chase_sizes(Scale::Quick) {
            let (constraints, full, target, source) = chase_scenario(size, depth);
            let config = chase_scaling_config(depth);
            let result = mapcomp_compose::exchange(
                &constraints,
                &full,
                &target,
                &source,
                &registry,
                &config,
            );
            assert!(result.converged && result.skipped.is_empty());
            assert_eq!(
                result.frontier_rows,
                (depth + 3) * size,
                "size {size}: per-round allocation must not scale with the round count"
            );
        }
    }

    #[test]
    fn differential_update_cost_is_sublinear_in_instance_size() {
        let points = differential_update_experiment(Scale::Quick);
        assert_eq!(points.len(), chase_sizes(Scale::Quick).len());
        assert_eq!(differential_violations(&points), Vec::<String>::new());
        for point in &points {
            assert!(
                point.results_identical,
                "size {}: maintained target diverged from the re-chase",
                point.size
            );
            assert!(point.delta_work > 0 && point.rebuild_work > 0);
        }
        let (first, last) = (points.first().unwrap(), points.last().unwrap());
        let growth = last.size as f64 / first.size as f64;
        assert!(growth >= 8.0, "the sweep must span >= 8x instance growth, got {growth}x");
        // The acceptance criterion: a constant-size batch costs the same
        // regardless of instance size, while the re-chase scales with it.
        let delta_growth = last.delta_work as f64 / first.delta_work.max(1) as f64;
        assert!(
            delta_growth < growth / 2.0,
            "incremental batch cost must be sublinear over {growth}x growth, got {delta_growth:.2}x \
             ({} -> {} work)",
            first.delta_work,
            last.delta_work
        );
        let rebuild_growth = last.rebuild_work as f64 / first.rebuild_work.max(1) as f64;
        assert!(
            rebuild_growth > growth / 2.0,
            "the full re-chase baseline must scale with the instance, got {rebuild_growth:.2}x"
        );
        assert!(
            last.rebuild_work >= 8 * last.delta_work.max(1),
            "at size {} the re-chase must cost >= 8x the batch: {} vs {} work",
            last.size,
            last.rebuild_work,
            last.delta_work
        );
        // Bringing the reply text up to date re-renders only the chunks the
        // batch touched (flat in instance size: `differential_violations`).
        let target_rows = (first.depth + 1) * first.size;
        assert!(first.render_rows < target_rows, "a batch must not re-render the whole target");
        // Their bytes grow only with the width of the values in them.
        assert!(
            last.render_bytes < 2 * first.render_bytes,
            "render bytes must not scale with the instance: {:?}",
            points.iter().map(|point| point.render_bytes).collect::<Vec<_>>()
        );
    }

    #[test]
    fn throughput_sweeps_succeed_and_agree_at_every_count() {
        // Each sweep, its swept counts, and the fewest requests its corpus
        // may hold to be worth measuring.
        for (points, counts, min_requests) in [
            (concurrent_sessions_experiment(Scale::Quick), concurrent_workers(Scale::Quick), 101),
            (service_throughput_experiment(Scale::Smoke), concurrent_workers(Scale::Smoke), 30),
            (
                replication_read_experiment(Scale::Smoke),
                replication_follower_counts(Scale::Smoke),
                30,
            ),
        ] {
            assert_eq!(points.iter().map(|point| point.swept).collect::<Vec<_>>(), counts);
            for point in &points {
                assert_eq!(point.failures, 0, "{point:?}");
                assert!(point.results_consistent, "{point:?}: results diverged from the first's");
                assert!(
                    point.requests >= min_requests,
                    "{point:?}: the corpus must be big enough to measure"
                );
            }
        }
    }

    /// The acceptance criterion — throughput scaling > 2x from 1 to 4
    /// workers — is a wall-clock statement about *idle* parallel hardware:
    /// inside a loaded `cargo test` run the sibling test threads contend
    /// with the workers and the ratio flakes, so this is `#[ignore]`d from
    /// the default suite. Run it alone on an idle ≥ 4-core machine
    /// (`cargo test -p mapcomp-bench --release -- --ignored`), or read the
    /// same numbers off `figures fig10`, which CI smokes in release mode.
    #[test]
    #[ignore = "wall-clock scaling assertion; run alone on an idle >=4-core machine"]
    fn concurrent_sessions_scale_beyond_2x_on_4_workers() {
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        if cores < 4 {
            eprintln!("skipping: only {cores} core(s) available");
            return;
        }
        let points = concurrent_sessions_experiment(Scale::Quick);
        let t1 = points.iter().find(|p| p.swept == 1).expect("1-worker point");
        let t4 = points.iter().find(|p| p.swept == 4).expect("4-worker point");
        let scaling = t4.throughput() / t1.throughput();
        assert!(
            scaling > 2.0,
            "throughput must scale > 2x from 1 to 4 workers on {cores} cores, got {scaling:.2}x \
             ({:.1} vs {:.1} req/s)",
            t1.throughput(),
            t4.throughput()
        );
    }

    #[test]
    fn persistence_cost_is_flat_incremental_and_linear_on_rewrite() {
        let points = persistence_experiment(Scale::Smoke);
        assert_eq!(points.len(), persistence_sizes(Scale::Smoke).len());
        for point in &points {
            assert!(
                point.recovered_identical,
                "size {}: kill-and-restart recovery diverged",
                point.mappings
            );
            assert!(point.incremental_bytes > 0, "incremental requests must append something");
            assert_eq!(point.read_bytes, 0, "size {}: a warm read appended", point.mappings);
            assert!(point.migrate_net_rows < PERSISTENCE_MIGRATE_BATCHES);
        }
        assert_eq!(persistence_violations(&points), Vec::<String>::new());
        let (first, last) = (points.first().unwrap(), points.last().unwrap());
        let growth = last.mappings as f64 / first.mappings as f64;
        assert!(growth >= 16.0, "the sweep must span >= 16x catalog growth, got {growth}x");
        // Incremental: per-request bytes flat in catalog size (the only
        // drift is schema-name digit width inside the appended entry).
        let incremental_ratio = last.incremental_bytes as f64 / first.incremental_bytes as f64;
        assert!(
            incremental_ratio < 2.0,
            "incremental per-request bytes must stay flat over {growth}x growth, got \
             {incremental_ratio:.2}x ({} -> {} bytes)",
            first.incremental_bytes,
            last.incremental_bytes
        );
        // A full snapshot per request grows with the catalog.
        let rewrite_ratio = last.rewrite_bytes as f64 / first.rewrite_bytes as f64;
        assert!(
            rewrite_ratio > 4.0,
            "full-snapshot bytes per request must grow with the catalog over {growth}x growth, \
             got {rewrite_ratio:.2}x ({} -> {} bytes)",
            first.rewrite_bytes,
            last.rewrite_bytes
        );
        // And at scale the incremental path writes far less per request.
        assert!(last.incremental_bytes * 4 < last.rewrite_bytes);
    }

    #[test]
    fn replication_catchup_converges_at_every_log_length() {
        let points = replication_catchup_experiment(Scale::Smoke);
        assert_eq!(points.len(), replication_log_lengths(Scale::Smoke).len());
        for point in &points {
            assert!(point.converged, "writes {}: follower diverged after catch-up", point.writes);
            assert!(
                point.log_records >= point.writes as u64,
                "writes {}: only {} log records — every write must append at least one",
                point.writes,
                point.log_records
            );
        }
    }

    #[test]
    fn chain_cache_experiment_shows_incremental_win() {
        let points = chain_cache_experiment(Scale::Quick, 4242);
        assert!(!points.is_empty());
        for point in &points {
            assert_eq!(point.cold_calls, point.chain_len - 1);
            assert_eq!(point.warm_calls, 0, "unedited recompose must be free");
            assert_eq!(point.warm_links, 0, "unedited recompose must materialise no link");
            assert!(
                point.memo_nodes < point.memo_tree_nodes || point.chain_len <= 2,
                "len {}: memo segments must share expression nodes ({} of {})",
                point.chain_len,
                point.memo_nodes,
                point.memo_tree_nodes
            );
            assert!(
                point.memo_name_allocs <= 2 * point.chain_len + 1,
                "len {}: memo segments must share the catalog's names ({} allocations)",
                point.chain_len,
                point.memo_name_allocs
            );
            assert!(
                point.incremental_links < point.chain_len || point.chain_len <= 2,
                "len {}: the cached prefix before the edit must not be materialised",
                point.chain_len
            );
            assert!(
                point.incremental_calls < point.cold_calls || point.chain_len <= 2,
                "len {}: incremental {} vs cold {}",
                point.chain_len,
                point.incremental_calls,
                point.cold_calls
            );
        }
    }

    #[test]
    fn residual_chain_skips_its_unchanged_residual() {
        let point = residual_chain_point();
        assert_eq!((point.chain_len, point.residual_symbols), (8, 1));
        // Fold steps after the residual first fails skip it.
        assert!(point.cold_skips > 0 && point.incremental_skips > 0, "{point:?}");
    }
}
