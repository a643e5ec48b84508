//! What every catalog session shares: its configuration, its cumulative
//! statistics, and the byte-stable rendering of its analysis reports. The
//! session itself is [`SharedSession`]; editing a mapping through it drops
//! exactly the cached compositions whose provenance mentions the mapping,
//! so the next `compose_path` recomputes only the affected part of each
//! chain.

use std::sync::Arc;

use mapcomp_analysis::{AnalysisReport, Termination};
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
    use crate::cache::MemoCache;
    use crate::error::CatalogError;
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
        // A capacity-bounded session restoring a larger persisted cache must
        // not count the replay trim as workload evictions — however many
        // restore/flush cycles happen in one process.
        let donor = chain_session(6);
        donor.compose_path("v0", "v6").unwrap();
        let donated = donor.cache().collect();
        let persisted = donated.stats();
        assert!(persisted.insertions >= 5);

        let mut bounded = bounded_session(6, 2);
        for cycle in 0..3 {
            let mut replayed = MemoCache::new();
            for (key, entry) in donated.iter() {
                replayed.insert(*key, entry.chain.clone());
            }
            replayed.restore_stats(persisted);
            bounded.restore_cache(replayed);
            assert_eq!(
                bounded.cache().stats(),
                persisted,
                "cycle {cycle}: replay trim must not count as evictions"
            );
            for (entries, capacity, _) in bounded.cache().segment_snapshots() {
                assert!(Some(entries) <= capacity, "cycle {cycle}: a segment overflowed");
            }
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
        assert_eq!(short.chain.path, vec!["heavy1", "heavy2"]);

        let config = SessionConfig { path_cost: PathCost::OpCount, ..SessionConfig::default() };
        let by_cost = SharedSession::with_config(catalog, Registry::standard(), config, 1);
        let cheap = by_cost.compose_path("v0", "v3").unwrap();
        assert_eq!(cheap.chain.path, vec!["m0", "m1", "m2"]);
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
