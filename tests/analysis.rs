//! Integration suite for the static analyzer: every mapping the repository
//! ships — the paper's worked examples, the 22-problem literature corpus,
//! and simulator-generated evolution scenarios — gets a termination verdict,
//! and every `proven` verdict is *validated* by actually chasing under the
//! analysis-derived evaluation budget and checking the run agrees with an
//! unbudgeted reference chase. A hand-built non-weakly-acyclic mapping
//! checks the negative side: the verdict is `unknown` and the rendered
//! existential cycle names the offending positions and rule.

// Integration-test crates are built without `cfg(test)`, so the
// `allow-unwrap-in-tests` exemption in clippy.toml cannot reach them;
// panicking on a surprise is exactly what a test should do.
#![allow(clippy::unwrap_used)]

use mapping_composition::compose::{exchange, ExchangeConfig};
use mapping_composition::prelude::*;

fn registry() -> Registry {
    Registry::standard()
}

/// Analyze a constraint set, then chase it twice — once under the default
/// configuration, once under the analysis-derived configuration — and check
/// the derived budget loses nothing: when termination is proven the budgeted
/// run must converge to the *same* target instance as the reference run.
fn analyze_and_validate(
    label: &str,
    constraints: &[Constraint],
    full: &Signature,
    target: &Signature,
    source: &Instance,
    base: &ExchangeConfig,
) -> AnalysisReport {
    let report = analyze_exchange(constraints, full, target);
    // Determinism: analyzing again renders the same bytes.
    let again = analyze_exchange(constraints, full, target);
    assert_eq!(report.render(), again.render(), "{label}: analysis is not deterministic");

    let reference = exchange(constraints, full, target, source, &registry(), base);
    let derived = report.exchange_config(mapping_composition::analysis::domain_size(source), base);
    let budgeted = exchange(constraints, full, target, source, &registry(), &derived);

    if let Termination::Proven { bound } = &report.termination {
        // The proof must be honoured by the engine: the budget the analyzer
        // derived is enough to reproduce the reference chase exactly.
        assert!(budgeted.converged, "{label}: proven bound {} did not converge", bound.summary());
        assert_eq!(
            budgeted.target, reference.target,
            "{label}: chase under the proven budget diverges from the reference"
        );
    }
    report
}

/// A generic small source instance over σ1.
fn seed_instance(sigma1: &Signature, rows: i64) -> Instance {
    let mut source = Instance::new();
    for (name, info) in sigma1.iter() {
        for row in 0..rows {
            let tuple: Vec<Value> =
                (0..info.arity).map(|c| Value::Int(row * 10 + c as i64)).collect();
            source.insert(name, tuple);
        }
    }
    source
}

#[test]
fn paper_examples_all_prove_termination() {
    let documents = [
        (
            "example 1 (five-star movies)",
            r"
            schema sigma1 { Movies/4; }
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
        ),
        (
            "example 3 (R ⊆ S ⊆ T)",
            r"
            schema sigma1 { R/1; }
            schema sigma2 { S/1; }
            schema sigma3 { T/1; }
            mapping m12 : sigma1 -> sigma2 { R <= S; }
            mapping m23 : sigma2 -> sigma3 { S <= T; }
            ",
        ),
        (
            "example 5 (view unfolding)",
            r"
            schema sigma1 { R1/1; R2/1; R3/2; }
            schema sigma2 { S/2; }
            schema sigma3 { T1/1; T2/2; T3/2; }
            mapping m12 : sigma1 -> sigma2 { S = R1 * R2; }
            mapping m23 : sigma2 -> sigma3 {
                project[0](R3 - S) <= T1;
                T2 <= T3 - select[#0 = 1](S);
            }
            ",
        ),
        (
            "recursive tc example",
            r"
            schema sigma1 { R/2; }
            schema sigma2 { S/2; }
            schema sigma3 { T/2; }
            mapping m12 : sigma1 -> sigma2 { R <= S; S = tc(S); }
            mapping m23 : sigma2 -> sigma3 { S <= T; }
            ",
        ),
    ];
    for (label, text) in documents {
        let doc = parse_document(text).unwrap();
        let task = doc.task("m12", "m23").unwrap();
        let full = task.full_signature().unwrap();
        let target = task.sigma2.union(&task.sigma3).unwrap();
        let source = seed_instance(&task.sigma1, 3);
        let constraints = task.combined_constraints().into_vec();
        let report = analyze_and_validate(
            label,
            &constraints,
            &full,
            &target,
            &source,
            &ExchangeConfig::default(),
        );
        // Every paper example is a plain conjunctive (or skip-reported)
        // mapping: termination must be proven, not merely unknown-but-lucky.
        assert!(report.proven(), "{label}: expected a proof, got {}", report.termination.summary());
    }
}

#[test]
fn corpus_problems_all_get_validated_verdicts() {
    let mut proven = 0usize;
    for problem in mapping_composition::corpus::problems() {
        let task = problem.task().expect("corpus problem parses");
        let full = task.full_signature().expect("well-formed signature");
        let target = task.sigma2.union(&task.sigma3).expect("disjoint enough");
        let source = seed_instance(&task.sigma1, 2);
        let constraints = task.combined_constraints().into_vec();
        let report = analyze_and_validate(
            problem.id,
            &constraints,
            &full,
            &target,
            &source,
            &ExchangeConfig::default(),
        );
        // Every problem gets a verdict line that renders non-empty.
        assert!(report.render().starts_with("termination: "), "{}: no verdict line", problem.id);
        if report.proven() {
            proven += 1;
        }
    }
    // The corpus is dominated by terminating conjunctive mappings; if the
    // analyzer suddenly proves almost nothing, something regressed.
    assert!(proven >= 15, "only {proven} corpus problems proved terminating");
}

#[test]
fn evolution_scenarios_get_validated_verdicts() {
    let mut proven = 0usize;
    for seed in [7, 42, 77] {
        let run = run_editing(&ScenarioConfig {
            schema_size: 6,
            edits: 12,
            seed,
            ..ScenarioConfig::default()
        });
        let source = seed_instance(&run.original, 2);
        let mut target_sig = run.current.clone();
        for name in &run.pending {
            if let Some(info) = run.universe.get(name) {
                target_sig.add(name.clone(), info.clone());
            }
        }
        let base =
            ExchangeConfig { max_rounds: 32, max_nulls: 50_000, ..ExchangeConfig::default() };
        let report = analyze_and_validate(
            &format!("evolution seed {seed}"),
            &run.constraints,
            &run.universe,
            &target_sig,
            &source,
            &base,
        );
        // The simulator can generate constraint sets the analyzer honestly
        // cannot prove: seed 77 has a genuine existential cycle, seed 42 a
        // constant-constrained conclusion column (both happen to converge on
        // the tested instance, which is exactly why `unknown` is the right
        // verdict — it is about *all* instances). An unknown verdict must
        // carry either a rendered cycle witness or a concrete reason.
        match &report.termination {
            Termination::Proven { .. } => proven += 1,
            Termination::Unknown { cycle_witness: Some(witness), .. } => {
                assert!(witness.to_string().contains("->*"), "seed {seed}: no existential edge");
            }
            Termination::Unknown { cycle_witness: None, reason } => {
                assert!(!reason.is_empty(), "seed {seed}: unknown verdict without a reason");
            }
        }
    }
    assert!(proven >= 1, "no evolution seed proved terminating");
}

#[test]
fn non_weakly_acyclic_mapping_is_flagged_with_a_cycle_witness() {
    // S(x, y) → ∃z S(y, z): the fresh null lands back in the position that
    // feeds the premise, so every chase round invents another null. The
    // dependency graph has an existential self-loop on S.1 and the analyzer
    // must refuse to prove termination and name the cycle.
    let constraints = parse_constraints("project[1](S) <= project[0](S)").unwrap();
    let sig = Signature::from_arities([("S", 2)]);
    let report = analyze_exchange(constraints.as_slice(), &sig, &sig);
    let Termination::Unknown { cycle_witness: Some(witness), reason } = &report.termination else {
        panic!("expected an unknown verdict with a witness, got {}", report.termination.summary());
    };
    assert_eq!(reason, "existential cycle in the position dependency graph");
    let rendered = witness.to_string();
    assert!(rendered.contains("S.1"), "witness names the looping position: {rendered}");
    assert!(rendered.contains("->*"), "witness marks the existential edge: {rendered}");
    assert!(rendered.contains("(rules 0)"), "witness names the rule: {rendered}");
    // The one-line summary is byte-stable and machine-parsable.
    assert_eq!(report.termination.summary(), format!("unknown cycle: {rendered}"));

    // The chase under an Unknown verdict still runs, with the engine
    // default budget, and hits its caps.
    let mut source = Instance::new();
    source.insert("S", vec![Value::Int(1), Value::Int(2)]);
    let config = report.exchange_config(
        mapping_composition::analysis::domain_size(&source),
        &ExchangeConfig { max_rounds: 4, max_nulls: 64, ..ExchangeConfig::default() },
    );
    let result = exchange(constraints.as_slice(), &sig, &sig, &source, &registry(), &config);
    assert!(!result.converged, "a genuinely diverging chase must hit its caps");
}

#[test]
fn catalog_mappings_get_cached_verdicts_and_lint_reports() {
    let doc = parse_document(
        r"
        schema s1 { R/2; }
        schema s2 { S/2; T/1; }
        schema s3 { U/2; }
        mapping good : s1 -> s2 { R <= S; project[0](R) <= T; }
        mapping sloppy : s2 -> s3 { project[0,0](S) <= U; project[0,0](S) <= U; }
        ",
    )
    .unwrap();
    let session = SharedSession::new(Catalog::new());
    session.ingest_document(&doc).unwrap();

    let text = session.analysis_text(None).unwrap();
    // Name-sorted, one verdict line per mapping, byte-stable across calls
    // (the second call is served from the content-hash keyed cache).
    assert!(text.starts_with("mapping good: proven "), "unexpected report:\n{text}");
    assert!(text.contains("mapping sloppy: proven "), "unexpected report:\n{text}");
    assert!(text.contains("lint[duplicate-rule] rule 1"), "duplicate not linted:\n{text}");
    assert_eq!(text, session.analysis_text(None).unwrap());

    // Editing a mapping invalidates its cached verdict; the new constraint
    // set is re-analyzed.
    session.update_mapping("sloppy", parse_constraints("project[0,0](S) <= U").unwrap()).unwrap();
    let after = session.analysis_text(Some("sloppy")).unwrap();
    assert!(!after.contains("duplicate-rule"), "stale verdict survived an edit:\n{after}");
}

#[test]
fn analyzed_migration_uses_the_proven_budget_end_to_end() {
    // A one-shot `exchange()` under the configuration the analyzer derives
    // for this source: a proven verdict swaps in the polynomial budget.
    let doc = parse_document(
        r"
        schema v0 { A/2; }
        schema v1 { B/2; }
        mapping step : v0 -> v1 { A <= B; }
        ",
    )
    .unwrap();
    let session = SharedSession::new(Catalog::new());
    session.ingest_document(&doc).unwrap();
    let (_, report) = session.analyze_mapping("step").unwrap();
    assert!(report.proven());

    let mut source = Instance::new();
    source.insert("A", vec![Value::Int(1), Value::Int(2)]);
    let mapping = session.catalog().snapshot().materialize("step").unwrap();
    let full = mapping.combined_signature().unwrap();
    let config = report.exchange_config(
        mapping_composition::analysis::domain_size(&source),
        &ExchangeConfig::default(),
    );
    assert!(config.eval_budget > 0);
    assert_ne!(config.eval_budget, ExchangeConfig::default().eval_budget, "budget was not derived");
    let result = exchange(
        mapping.constraints.as_slice(),
        &full,
        &mapping.output,
        &source,
        session.registry(),
        &config,
    );
    assert!(result.converged);
    assert_eq!(result.target.get("B").len(), 1);
}

#[test]
fn operator_budget_override_beats_the_proven_bound() {
    let doc = parse_document(
        r"
        schema v0 { A/1; }
        schema v1 { B/1; }
        mapping step : v0 -> v1 { A <= B; }
        ",
    )
    .unwrap();
    let session = SharedSession::with_config(
        Catalog::new(),
        Registry::standard(),
        SessionConfig { eval_budget: Some(7), ..SessionConfig::default() },
        1,
    );
    session.ingest_document(&doc).unwrap();
    let (_, report) = session.analyze_mapping("step").unwrap();
    let config = session.config().chase_config(Some(&report));
    assert_eq!(config.eval_budget, 7, "--eval-budget must override the analyzer");
}
