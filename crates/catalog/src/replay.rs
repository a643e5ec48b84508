//! Hook between the schema-evolution simulator and the catalog: the paper's
//! Figure-2-style editing scenario re-expressed as incremental catalog
//! recomposition.
//!
//! The original simulator (`mapcomp_evolution::run_editing`) keeps one
//! running constraint set and composes it after every edit. Here every edit
//! instead registers a *new schema version* `v{i}` and a mapping
//! `edit{i} : v{i-1} → v{i}` in a catalog, and the running mapping is
//! obtained by asking the session for `compose_path(v0, v{i})`. Because the
//! memo cache keeps the chain's prefix warm, each edit costs exactly one new
//! pairwise composition — the same incremental behaviour the hand-rolled
//! simulator achieves, but produced by the generic chain driver, with
//! content-hashed provenance on every cached segment.

use mapcomp_algebra::{ConstraintSet, Signature};
use mapcomp_evolution::editing::random_schema;
use mapcomp_evolution::{apply_primitive, NameSource, PrimitiveKind, ScenarioConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::chain::ChainResult;
use crate::error::CatalogError;
use crate::shared::SharedSession;
use crate::store::Catalog;

/// Per-edit record of the replay.
#[derive(Debug, Clone)]
pub struct ReplayRecord {
    /// Edit index (0-based; the resulting schema version is `v{index+1}`).
    pub index: usize,
    /// Primitive applied.
    pub kind: PrimitiveKind,
    /// Pairwise compositions actually performed to recompose `v0 → v{i+1}`.
    pub compose_calls: usize,
    /// Memo-cache hits while recomposing.
    pub cache_hits: usize,
    /// Intermediate symbols still pending after this edit.
    pub pending: usize,
}

/// Result of replaying an editing scenario through the catalog.
pub struct CatalogReplay {
    /// The session, holding the catalog of all versions and the warm cache.
    pub session: SharedSession,
    /// Number of edits applied (schema versions `v0 … v{edits}`).
    pub edits: usize,
    /// Per-edit records.
    pub records: Vec<ReplayRecord>,
    /// The final composed mapping `v0 → v{edits}` (absent when zero edits
    /// were applied).
    pub final_result: Option<ChainResult>,
}

impl CatalogReplay {
    /// Total pairwise compositions across the whole replay.
    pub fn total_compose_calls(&self) -> usize {
        self.records.iter().map(|r| r.compose_calls).sum()
    }
}

/// Replay a schema-editing scenario (same configuration type as
/// `run_editing`) as incremental catalog recomposition.
pub fn replay_editing(config: &ScenarioConfig) -> Result<CatalogReplay, CatalogError> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut names = NameSource::new();
    let original = random_schema(config.schema_size, &config.options, &mut names, &mut rng);

    let session = SharedSession::new(Catalog::new());
    session.add_schema("v0", original.clone());

    let mut current = original;
    let mut records = Vec::new();
    let mut final_result = None;

    for index in 0..config.edits {
        // Pick an applicable primitive and an input relation for it, exactly
        // as the original editing scenario does.
        let has_input_for = |kind: PrimitiveKind| -> bool {
            if !kind.consumes_input() {
                return true;
            }
            current.iter().any(|(_, info)| {
                info.arity >= kind.min_input_arity() && (!kind.requires_key() || info.key.is_some())
            })
        };
        let keys_enabled = config.options.keys_enabled;
        let Some(kind) = config
            .event_vector
            .sample(&mut rng, |k| (keys_enabled || !k.requires_key()) && has_input_for(k))
        else {
            break;
        };

        let input_name = if kind.consumes_input() {
            let eligible: Vec<String> = current
                .iter()
                .filter(|(_, info)| {
                    info.arity >= kind.min_input_arity()
                        && (!kind.requires_key() || info.key.is_some())
                })
                .map(|(name, _)| name.to_string())
                .collect();
            Some(eligible[rng.gen_range(0..eligible.len())].clone())
        } else {
            None
        };
        let input = input_name
            .as_ref()
            .map(|name| (name.as_str(), current.get(name).expect("eligible relation").clone()));

        let outcome = apply_primitive(
            kind,
            input.as_ref().map(|(name, info)| (*name, info)),
            &config.options,
            &mut names,
            &mut rng,
        );

        // Produce the next schema version and register the edit as a catalog
        // mapping v{i} → v{i+1}.
        if let Some(consumed) = &outcome.consumed {
            current.remove(consumed);
        }
        for (name, info) in &outcome.created {
            current.add(name.clone(), info.clone());
        }
        let from = format!("v{index}");
        let to = format!("v{}", index + 1);
        session.add_schema(to.clone(), current.clone());
        session.add_mapping(
            format!("edit{}", index + 1),
            &from,
            &to,
            ConstraintSet::from_constraints(outcome.constraints.clone()),
        )?;

        // Incrementally recompose the whole chain v0 → v{i+1}.
        let result = session.compose_path("v0", &to)?;
        records.push(ReplayRecord {
            index,
            kind,
            compose_calls: result.compose_calls,
            cache_hits: result.cache_hits,
            pending: result.chain.residual.len(),
        });
        final_result = Some(result);
    }

    Ok(CatalogReplay { session, edits: records.len(), records, final_result })
}

/// The original schema of a replayed scenario (version `v0`), for callers
/// that want to compare against `run_editing` on the same seed.
pub fn original_schema(config: &ScenarioConfig) -> Signature {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut names = NameSource::new();
    random_schema(config.schema_size, &config.options, &mut names, &mut rng)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> ScenarioConfig {
        ScenarioConfig { schema_size: 6, edits: 12, seed: 42, ..ScenarioConfig::default() }
    }

    #[test]
    fn replay_is_incremental_one_composition_per_edit() {
        let replay = replay_editing(&small_config()).unwrap();
        assert!(replay.edits > 1);
        // Edit 0 composes a 1-link chain (free); every later edit pays at
        // most one new pairwise composition thanks to the warm prefix —
        // strictly fewer than recomposing its chain from scratch.
        assert_eq!(replay.records[0].compose_calls, 0);
        for record in &replay.records[1..] {
            assert!(
                record.compose_calls <= 1,
                "edit {} recomposed {} pairwise steps",
                record.index,
                record.compose_calls
            );
        }
        // Total work is linear in the number of edits, not quadratic.
        assert!(replay.total_compose_calls() <= replay.edits);
        let final_result = replay.final_result.as_ref().expect("at least one edit");
        assert_eq!(&*final_result.chain.source, "v0");
        assert_eq!(final_result.chain.path.len(), replay.edits);
    }

    #[test]
    fn replay_is_reproducible() {
        let a = replay_editing(&small_config()).unwrap();
        let b = replay_editing(&small_config()).unwrap();
        assert_eq!(a.edits, b.edits);
        let ca = a.final_result.as_ref().unwrap().chain.mapping.constraints.to_string();
        let cb = b.final_result.as_ref().unwrap().chain.mapping.constraints.to_string();
        assert_eq!(ca, cb);
    }

    #[test]
    fn replay_registers_every_version() {
        let replay = replay_editing(&small_config()).unwrap();
        let catalog = replay.session.catalog();
        assert_eq!(catalog.schema_count(), replay.edits + 1);
        assert_eq!(catalog.mapping_count(), replay.edits);
        assert!(catalog.schema("v0").is_ok());
        assert!(catalog.schema(&format!("v{}", replay.edits)).is_ok());
    }

    #[test]
    fn analysis_budgeted_migration_agrees_with_plain() {
        use mapcomp_algebra::{Instance, Value};
        use mapcomp_compose::{exchange, ExchangeConfig};

        let config = small_config();
        let replay = replay_editing(&config).unwrap();
        let mut source = Instance::new();
        for (name, info) in original_schema(&config).iter() {
            for row in 0..2i64 {
                let tuple: Vec<Value> =
                    (0..info.arity).map(|c| Value::Int(row * 10 + c as i64)).collect();
                source.insert(name, tuple);
            }
        }
        // Chase a v0 instance through the final chain, residuals chased as
        // auxiliary targets (paper §1.3), once under the analysis-derived
        // configuration and once under the engine default.
        let chain = &replay.final_result.as_ref().expect("replay applied edits").chain;
        let (full, target) = chain.chase_signatures().unwrap();
        let constraints = chain.mapping.constraints.as_slice();
        let report = mapcomp_analysis::analyze_exchange(constraints, &full, &target);
        let default = ExchangeConfig::default();
        let derived = report.exchange_config(mapcomp_analysis::domain_size(&source), &default);
        let registry = replay.session.registry();
        let analyzed = exchange(constraints, &full, &target, &source, registry, &derived);
        if report.proven() {
            assert!(analyzed.converged, "a proven chase must converge within its derived budget");
        }
        let plain = exchange(constraints, &full, &target, &source, registry, &default);
        assert_eq!(analyzed.target, plain.target, "analysis must not change the chased target");
    }

    #[test]
    fn original_schema_matches_v0() {
        let config = small_config();
        let replay = replay_editing(&config).unwrap();
        let v0 = replay.session.catalog().schema("v0").unwrap().signature.clone();
        assert_eq!(v0, original_schema(&config));
    }
}
