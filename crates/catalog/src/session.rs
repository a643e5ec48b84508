//! What every catalog session shares: its configuration, its cumulative
//! statistics, and the byte-stable rendering of its analysis reports. The
//! session itself is [`SharedSession`]; editing a mapping through it drops
//! exactly the cached compositions whose provenance mentions the mapping,
//! so the next `compose_path` recomputes only the affected part of each
//! chain.

use std::sync::Arc;

use mapcomp_analysis::{AnalysisReport, Termination, UNKNOWN_MAX_NULLS};
use mapcomp_compose::{ComposeConfig, ExchangeConfig};

use crate::cache::CacheStats;
use crate::chain::ChainOptions;
use crate::graph::PathCost;
use crate::shared::SharedSession;

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
    /// (`--eval-budget` on the CLI). `None` keeps the engine default; `Some`
    /// always wins. Served chases never take an analysis-derived budget:
    /// a migration session's source changes with every batch, so no one
    /// domain size holds for its lifetime. Not part of the memo key — the
    /// budget shapes data exchange, not composition.
    pub eval_budget: Option<usize>,
}

impl SessionConfig {
    /// The chase configuration every served chase runs under: the engine
    /// defaults, with the null cap lowered to [`UNKNOWN_MAX_NULLS`] when the
    /// chain's termination is [`Termination::Unknown`], and the operator's
    /// [`SessionConfig::eval_budget`] override on top.
    pub fn chase_config(&self, analysis: Option<&AnalysisReport>) -> ExchangeConfig {
        let mut config = ExchangeConfig::default();
        if analysis.is_some_and(|report| !report.proven()) {
            config.max_nulls = UNKNOWN_MAX_NULLS;
        }
        if let Some(budget) = self.eval_budget {
            config.eval_budget = budget;
        }
        config
    }
}

/// Render a name-sorted set of per-mapping analysis reports as the
/// byte-stable catalog-wide text: one `mapping <name>: <verdict summary>`
/// line each, with the report's diagnostics and chase skips indented two
/// spaces underneath. Shared by [`SharedSession`] and the service layer so
/// every surface emits identical bytes.
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

/// The former name of [`SharedSession`], kept because the service benchmark
/// under `perfbench/` still imports it. New code names [`SharedSession`].
pub type Session = SharedSession;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{segment_hash, MemoKey};
    use crate::chain::ComposedChain;
    use crate::error::CatalogError;
    use crate::persist::{load_sidecar, render_delta, save_cache, DeltaRecord};
    use crate::store::Catalog;
    use mapcomp_algebra::{parse_constraints, Signature};
    use mapcomp_compose::Registry;

    /// A linear catalog v0 → … → v{hops} of unary copy mappings.
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

    fn chain_session(hops: usize) -> SharedSession {
        SharedSession::new(chain_catalog(hops))
    }

    fn bounded_session(hops: usize, capacity: usize) -> SharedSession {
        let config = SessionConfig { cache_capacity: Some(capacity), ..SessionConfig::default() };
        SharedSession::with_config(chain_catalog(hops), Registry::standard(), config, 1)
    }

    #[test]
    fn editing_a_middle_link_recomposes_only_the_suffix() {
        // The acceptance-criterion scenario: compose a 5-hop chain, edit one
        // middle mapping, recompose — strictly fewer pairwise compositions
        // than from scratch, by the instrumented counter.
        let session = chain_session(5);
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
        let session = chain_session(4);
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
        let session = chain_session(4);
        let results = session.compose_batch_parallel(&[
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
        let session = chain_session(3);
        session.compose_path("v0", "v3").unwrap();
        // Re-adding the same mapping content must not invalidate anything.
        session.add_mapping("m1", "v1", "v2", parse_constraints("R1 <= R2").unwrap()).unwrap();
        let warm = session.compose_path("v0", "v3").unwrap();
        assert_eq!(warm.compose_calls, 0);
    }

    #[test]
    fn schema_update_invalidates_through_touching_mappings() {
        let session = chain_session(3);
        session.compose_path("v0", "v3").unwrap();
        // Growing v2 changes m1 and m2's content hashes.
        session.add_schema("v2", Signature::from_arities([("R2", 1), ("Extra", 2)]));
        let after = session.compose_path("v0", "v3").unwrap();
        assert!(after.compose_calls > 0, "schema edit must force recomposition");
    }

    #[test]
    fn bounded_cache_evicts_but_stays_correct() {
        // The capacity is split across the cache's segments, rounded up:
        // capacity 2 over 4 segments keeps at most one entry per segment.
        // Five insertions into four one-entry segments must evict.
        let hops = 6;
        let session = bounded_session(hops, 2);
        assert_eq!(session.cache().segment_count(), 4);
        let first = session.compose_path("v0", &format!("v{hops}")).unwrap();
        assert_eq!(first.compose_calls, hops - 1);
        let stats = session.stats();
        assert!(stats.cache_entries <= 4, "capacity bounds live entries");
        assert!(stats.cache.evictions > 0, "composing a long chain must evict");
        assert_eq!(stats.cache_entries + stats.cache.evictions, stats.cache.insertions);
        // Recomposition still works (paying for the evicted segments again).
        let again = session.compose_path("v0", &format!("v{hops}")).unwrap();
        assert!(again.is_complete());
        assert!(again.compose_calls > 0);
    }

    #[test]
    fn restore_then_reflush_cycles_do_not_inflate_stats() {
        // The persisted memo holds every prefix of v1 → v6 and then the
        // chains from v0, so in each segment the entries depending on m0
        // are the most recently used. Its log then invalidates m0 and
        // evicts one survivor.
        let donor = chain_session(6);
        donor.compose_path("v1", "v6").unwrap();
        for end in 2..=6 {
            donor.compose_path("v0", &format!("v{end}")).unwrap();
        }
        let persisted = donor.cache().stats();
        let snapshot = donor.cache().entries();
        let (capacity, segments) = (4, 4);
        assert!(snapshot.len() > capacity);
        let depends_on_m0 = |chain: &ComposedChain| chain.deps().contains("m0");
        let mut survivors: Vec<MemoKey> = snapshot
            .iter()
            .filter(|(_, chain)| !depends_on_m0(chain))
            .map(|(key, _)| *key)
            .collect();
        let evicted = survivors.pop().unwrap();
        let mut text = save_cache(donor.cache());
        for record in [
            DeltaRecord::Invalidate { mapping: "m0".to_string() },
            DeltaRecord::Evict { key: evicted },
        ] {
            text.push_str(&render_delta(&record));
            text.push('\n');
        }

        // Replay first, then trim: each segment keeps its most recently
        // used survivors, up to its share of the capacity.
        let segment = |key: &MemoKey| segment_hash(key) % segments as u64;
        let share = capacity.div_ceil(segments);
        let in_segment = |keys: &[MemoKey], at: u64| -> Vec<MemoKey> {
            keys.iter().filter(|key| segment(key) == at).copied().collect()
        };
        let mut expected: Vec<MemoKey> = (0..segments as u64)
            .flat_map(|at| {
                let keys = in_segment(&survivors, at);
                keys[keys.len().saturating_sub(share)..].to_vec()
            })
            .collect();
        expected.sort_unstable();
        // Trimming during the replay would lose a survivor: some segment's
        // most recently used entries all depend on m0.
        let all: Vec<MemoKey> = snapshot.iter().map(|(key, _)| *key).collect();
        assert!(
            (0..segments as u64).any(|at| {
                let keys = in_segment(&all, at);
                let tail = &keys[keys.len().saturating_sub(share)..];
                !in_segment(&survivors, at).is_empty()
                    && tail.iter().all(|key| !survivors.contains(key))
            }),
            "the case must tell replay-then-trim from a trimmed replay"
        );

        for cycle in 0..3 {
            let bounded = SharedSession::with_cache(
                chain_catalog(6),
                Registry::standard(),
                SessionConfig { cache_capacity: Some(capacity), ..SessionConfig::default() },
                1,
                load_sidecar(&text).cache,
            );
            assert_eq!(bounded.cache().segment_count(), segments);
            let mut live: Vec<MemoKey> =
                bounded.cache().entries().into_iter().map(|(key, _)| key).collect();
            live.sort_unstable();
            assert_eq!(live, expected, "cycle {cycle}: the invalidation's survivors, trimmed");
            assert_eq!(
                bounded.cache().stats(),
                persisted,
                "cycle {cycle}: replay trim must not count as evictions"
            );
            for (entries, capacity, _) in bounded.cache().segment_snapshots() {
                assert!(Some(entries) <= capacity, "cycle {cycle}: a segment overflowed");
            }
            // Flush and restart.
            text = save_cache(bounded.cache());
        }
    }

    #[test]
    fn op_count_path_cost_picks_the_cheaper_longer_route() {
        // A 2-hop shortcut through operator-heavy mappings vs. the 3-hop
        // copy chain: hop-based resolution takes the shortcut, op-count-based
        // resolution the cheap chain — and both compose successfully.
        let mut catalog = chain_catalog(3);
        catalog.add_schema("shortcut", Signature::from_arities([("S", 1)]));
        catalog
            .add_mapping(
                "heavy1",
                "v0",
                "shortcut",
                parse_constraints("project[0](select[#0 = #1](R0 * R0)) <= S").unwrap(),
            )
            .unwrap();
        catalog
            .add_mapping(
                "heavy2",
                "shortcut",
                "v3",
                parse_constraints("project[0](select[#0 = #1](S * S)) <= R3").unwrap(),
            )
            .unwrap();

        let by_hops = SharedSession::new(catalog.clone());
        let short = by_hops.compose_path("v0", "v3").unwrap();
        assert_eq!(short.chain.path.join(" "), "heavy1 heavy2");

        let config = SessionConfig { path_cost: PathCost::OpCount, ..SessionConfig::default() };
        let by_cost = SharedSession::with_config(catalog, Registry::standard(), config, 1);
        let cheap = by_cost.compose_path("v0", "v3").unwrap();
        assert_eq!(cheap.chain.path.join(" "), "m0 m1 m2");
        assert!(cheap.is_complete());
    }

    #[test]
    fn remove_mapping_breaks_the_path() {
        let session = chain_session(3);
        session.compose_path("v0", "v3").unwrap();
        session.remove_mapping("m1").unwrap();
        assert!(matches!(session.compose_path("v0", "v3"), Err(CatalogError::NoPath { .. })));
    }
}
