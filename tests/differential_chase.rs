//! The delta-oracle suite for the differential chase: every incrementally
//! maintained state must be **byte-identical** to a cold re-chase from
//! scratch over the same accumulated source — rendered target, support
//! table, null counter, convergence flag, all of it. The oblivious Skolem
//! chase is a pure function of the source instance (content-addressed null
//! names make it confluent), so a fresh engine over the current source *is*
//! the oracle, and equality is exact rather than up to null renaming.
//!
//! Coverage: the paper's worked examples (composed Example 1 included), all
//! literature-corpus problems, evolution-simulator scenarios, seeded random
//! ±update streams, delete-then-reinsert round trips, and net-zero batches.
//! Every scenario's cold build is also checked against an empty build plus
//! one insert batch of the same source (the build-vs-replay oracle).

// Integration-test crates are built without `cfg(test)`, so the
// `allow-unwrap-in-tests` exemption in clippy.toml cannot reach them;
// panicking on a surprise is exactly what a test should do.
#![allow(clippy::unwrap_used)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mapping_composition::algebra::Tuple;
use mapping_composition::compose::{render_instance, DifferentialChase, ExchangeConfig, Update};
use mapping_composition::prelude::*;
use mapping_composition::service::{encode_reply, sidecar_path, MigratePayload, PersistPolicy};

fn registry() -> Registry {
    Registry::standard()
}

/// A differential engine plus everything needed to rebuild it cold: the
/// constraint set, signatures and configuration. `apply_checked` is the
/// oracle harness — it applies one batch incrementally, then proves the
/// result byte-identical to a from-scratch re-chase of the updated source.
struct Harness {
    constraints: Vec<Constraint>,
    full: Signature,
    target: Signature,
    config: ExchangeConfig,
    engine: DifferentialChase,
}

impl Harness {
    fn new(
        constraints: Vec<Constraint>,
        full: Signature,
        target: Signature,
        source: Instance,
        config: ExchangeConfig,
    ) -> Self {
        let engine =
            DifferentialChase::new(&constraints, &full, &target, source, &registry(), &config);
        Harness { constraints, full, target, config, engine }
    }

    /// A cold engine over the current accumulated source: the oracle.
    fn oracle(&self) -> DifferentialChase {
        DifferentialChase::new(
            &self.constraints,
            &self.full,
            &self.target,
            self.engine.source().clone(),
            &registry(),
            &self.config,
        )
    }

    /// The maintained reply text must always equal a fresh rendering of
    /// the maintained target.
    fn assert_text_current(&self, label: &str) {
        assert_eq!(
            self.engine.rendered_target(),
            render_instance(self.engine.target()),
            "{label}: maintained target text diverged from a fresh rendering"
        );
    }

    fn assert_matches_oracle(&self, label: &str) {
        self.assert_text_current(label);
        let oracle = self.oracle();
        assert_eq!(
            self.engine.rendered_target(),
            oracle.rendered_target(),
            "{label}: maintained target diverged from a cold re-chase"
        );
        assert_eq!(
            self.engine.support(),
            oracle.support(),
            "{label}: support table diverged from a cold re-chase"
        );
        assert_eq!(
            self.engine.nulls(),
            oracle.nulls(),
            "{label}: null counter diverged from a cold re-chase"
        );
        assert_eq!(
            self.engine.converged(),
            oracle.converged(),
            "{label}: convergence flag diverged from a cold re-chase"
        );
    }

    /// The build-vs-replay oracle: a cold build over the current source
    /// must equal an engine built over the empty source that then inserts
    /// the same rows in one batch. Checks the chase core's from-scratch
    /// driver against the incremental insertion path it does not share.
    /// Source rows of target relations cannot be updated, so they seed the
    /// otherwise empty build.
    fn assert_build_matches_replay(&self, label: &str) {
        let cold = self.oracle();
        let source = self.engine.source();
        let mut seeded = Instance::new();
        let mut batch: Vec<Update> = Vec::new();
        for rel in source.names() {
            for row in source.get(&rel).iter() {
                if self.target.contains(&rel) {
                    seeded.insert(&rel, row.clone());
                } else {
                    batch.push(Update::insert(rel.clone(), row.clone()));
                }
            }
        }
        let mut replayed = DifferentialChase::new(
            &self.constraints,
            &self.full,
            &self.target,
            seeded,
            &registry(),
            &self.config,
        );
        replayed.apply(&batch).unwrap_or_else(|error| panic!("{label}: batch rejected: {error}"));
        assert_eq!(
            cold.rendered_target(),
            replayed.rendered_target(),
            "{label}: cold build and empty build + insert batch disagree on the target"
        );
        assert_eq!(cold.support(), replayed.support(), "{label}: support tables disagree");
        assert_eq!(cold.nulls(), replayed.nulls(), "{label}: null counters disagree");
        assert_eq!(cold.converged(), replayed.converged(), "{label}: convergence disagrees");
    }

    fn apply_checked(&mut self, label: &str, updates: &[Update]) {
        self.engine
            .apply(updates)
            .unwrap_or_else(|error| panic!("{label}: batch rejected: {error}"));
        self.assert_matches_oracle(label);
    }

    /// The source relations an update batch may touch, with arities.
    fn source_rels(&self) -> Vec<(String, usize)> {
        self.full
            .iter()
            .filter(|(name, _)| !self.target.contains(name))
            .map(|(name, info)| (name.to_string(), info.arity))
            .collect()
    }

    /// One random signed batch: inserts draw tuples from a small value pool
    /// (so joins actually meet), deletes are biased toward rows that exist
    /// (so the overdeletion cascade actually fires) but occasionally name
    /// absent rows to exercise the no-op path.
    fn random_batch(&self, rng: &mut StdRng, size: usize) -> Vec<Update> {
        let rels = self.source_rels();
        let mut batch = Vec::new();
        for _ in 0..size {
            let (rel, arity) = &rels[rng.gen_range(0..rels.len())];
            let delete = rng.gen_bool(0.4);
            if delete {
                let rows: Vec<Tuple> = self.engine.source().get(rel).iter().cloned().collect();
                if !rows.is_empty() && rng.gen_bool(0.85) {
                    let row = rows[rng.gen_range(0..rows.len())].clone();
                    batch.push(Update::delete(rel.clone(), row));
                    continue;
                }
            }
            let tuple: Tuple = (0..*arity).map(|_| Value::Int(rng.gen_range(0..6))).collect();
            if delete {
                batch.push(Update::delete(rel.clone(), tuple));
            } else {
                batch.push(Update::insert(rel.clone(), tuple));
            }
        }
        batch
    }

    /// Drive `batches` random batches through the engine, oracle-checking
    /// after every one. Every batch is followed by a refused one, and the
    /// stream's midpoint by a full rebuild; neither may leave the
    /// maintained text stale.
    fn run_random_stream(&mut self, label: &str, seed: u64, batches: usize) {
        let mut rng = StdRng::seed_from_u64(seed);
        if self.source_rels().is_empty() {
            return;
        }
        for batch_index in 0..batches {
            let size = rng.gen_range(1..6);
            let mut batch = self.random_batch(&mut rng, size);
            let label = format!("{label}, batch {batch_index}");
            self.apply_checked(&label, &batch);
            batch.push(Update::insert("NoSuchRelation", Vec::new()));
            assert!(self.engine.apply(&batch).is_err(), "{label}: bad batch accepted");
            self.assert_text_current(&format!("{label}, refused"));
            if batch_index == batches / 2 {
                self.engine.rebuild();
                self.assert_text_current(&format!("{label}, rebuilt"));
            }
        }
    }
}

/// Seed a generic σ1 instance: a couple of rows per source relation, the
/// same shape the chase-equivalence suite uses.
fn seed_source(sig: &Signature, rows: i64) -> Instance {
    let mut source = Instance::new();
    for (name, info) in sig.iter() {
        for row in 0..rows {
            let tuple: Tuple = (0..info.arity).map(|c| Value::Int(row * 10 + c as i64)).collect();
            source.insert(name, tuple);
        }
    }
    source
}

/// Paper Example 1: movies migrated from σ1 to σ3 through σ2.
const EXAMPLE_1: &str = r"
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
";

/// The paper's other worked examples.
const PAPER_DOCUMENTS: [(&str, &str); 3] = [
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

/// An existential (`project[0](S)`) whose nulls must survive a delete and
/// re-insert byte for byte.
const REINSERT: &str = r"
    schema sigma1 { R/2; }
    schema sigma2 { S/2; }
    schema sigma3 { T/1; }
    mapping m12 : sigma1 -> sigma2 { project[0](R) <= project[0](S); }
    mapping m23 : sigma2 -> sigma3 { project[0](S) <= T; }
";

/// A unary copy chain for net-zero batches.
const NET_ZERO: &str = r"
    schema sigma1 { R/1; }
    schema sigma2 { S/1; }
    schema sigma3 { T/1; }
    mapping m12 : sigma1 -> sigma2 { R <= S; }
    mapping m23 : sigma2 -> sigma3 { S <= T; }
";

/// A binary copy chain drained row by row.
const DRAIN: &str = r"
    schema sigma1 { R/2; }
    schema sigma2 { S/2; }
    schema sigma3 { T/2; }
    mapping m12 : sigma1 -> sigma2 { R <= S; }
    mapping m23 : sigma2 -> sigma3 { S <= T; }
";

#[test]
fn example_1_composed_migration_stays_live_under_updates() {
    // Paper Example 1, composed σ1 → σ3: the canonical "migrate data from
    // the old schema" scenario, now maintained incrementally while movies
    // are added, re-rated away, and restored.
    let doc = parse_document(EXAMPLE_1).unwrap();
    let task = doc.task("m12", "m23").unwrap();
    let composed = compose(&task, &registry(), &ComposeConfig::default()).unwrap();
    let full = task.full_signature().unwrap();

    let movie = |id: i64, name: i64, year: i64, stars: i64| -> Tuple {
        vec![Value::Int(id), Value::Int(name), Value::Int(year), Value::Int(stars)].into()
    };
    let mut source = Instance::new();
    source.insert("Movies", movie(1, 11, 1991, 5));
    source.insert("Movies", movie(2, 22, 1992, 4));

    let mut harness = Harness::new(
        composed.constraints.clone().into_vec(),
        full,
        task.sigma3.clone(),
        source,
        ExchangeConfig::default(),
    );
    assert_eq!(harness.engine.target().get("Names").len(), 1);
    harness.assert_build_matches_replay("example 1");

    // A new five-star movie lands in the target incrementally.
    harness.apply_checked("insert 5-star", &[Update::insert("Movies", movie(3, 33, 1993, 5))]);
    assert_eq!(harness.engine.target().get("Names").len(), 2);

    // Re-rating movie 1 is a delete + insert in one batch; its Names/Years
    // rows must be retracted by support counting.
    harness.apply_checked(
        "re-rate to 4 stars",
        &[
            Update::delete("Movies", movie(1, 11, 1991, 5)),
            Update::insert("Movies", movie(1, 11, 1991, 4)),
        ],
    );
    assert_eq!(harness.engine.target().get("Names").len(), 1);

    // And restoring the rating restores the rows.
    harness.apply_checked(
        "restore rating",
        &[
            Update::delete("Movies", movie(1, 11, 1991, 4)),
            Update::insert("Movies", movie(1, 11, 1991, 5)),
        ],
    );
    assert_eq!(harness.engine.target().get("Names").len(), 2);

    harness.run_random_stream("example 1 random stream", 0xE1, 24);
}

#[test]
fn paper_example_scenarios_survive_random_update_streams() {
    // The worked-example documents, chased uncomposed (σ2 part of the
    // target) under a stream of seeded random ±batches: view unfolding with
    // difference, equality constraints, and the recursive transitive-closure
    // mapping all maintain incrementally.
    for (label, text) in PAPER_DOCUMENTS {
        let doc = parse_document(text).unwrap();
        let task = doc.task("m12", "m23").unwrap();
        let full = task.full_signature().unwrap();
        let target = task.sigma2.union(&task.sigma3).unwrap();
        let source = seed_source(&task.sigma1, 3);
        let mut harness = Harness::new(
            task.combined_constraints().into_vec(),
            full,
            target,
            source,
            ExchangeConfig::default(),
        );
        harness.assert_build_matches_replay(label);
        harness.run_random_stream(label, 0x5EED, 16);
    }
}

#[test]
fn corpus_problems_survive_random_update_streams() {
    // Every literature-suite problem: the corpus spans the operator
    // vocabulary (unions, differences, user-defined operators, Skolem
    // shapes), so this drives the incremental path — and, for unplannable
    // rules, the full-recompute fallback — through seeded ±batches with an
    // oracle check after every one.
    for problem in mapping_composition::corpus::problems() {
        let task = problem.task().expect("corpus problem parses");
        let full = task.full_signature().expect("well-formed signature");
        let target = task.sigma2.union(&task.sigma3).expect("disjoint enough");
        let source = seed_source(&task.sigma1, 2);
        let config =
            ExchangeConfig { max_rounds: 24, max_nulls: 20_000, ..ExchangeConfig::default() };
        let mut harness =
            Harness::new(task.combined_constraints().into_vec(), full, target, source, config);
        harness.assert_build_matches_replay(problem.id);
        harness.run_random_stream(problem.id, 0xC0FFEE, 8);
    }
}

#[test]
fn evolution_scenarios_survive_random_update_streams() {
    // Simulator-generated mapping chains over several seeds, the same
    // scenario shape as the end-to-end migration test, each chased under
    // the configuration the service would serve it with. Seed 7 is proven
    // terminating; seeds 42 and 77 are `unknown` and run under the lowered
    // null cap, where 42 still converges and 77 diverges (the service
    // refuses its batches; the oracle must hold for the truncated state
    // all the same).
    for seed in [7, 42, 77] {
        let run = run_editing(&ScenarioConfig {
            schema_size: 6,
            edits: 12,
            seed,
            ..ScenarioConfig::default()
        });
        let mut target_sig = run.current.clone();
        for name in &run.pending {
            if let Some(info) = run.universe.get(name) {
                target_sig.add(name.clone(), info.clone());
            }
        }
        let source = seed_source(&run.original, 2);
        let report = analyze_exchange(&run.constraints, &run.universe, &target_sig);
        let config = SessionConfig::default().chase_config(Some(&report));
        let mut harness =
            Harness::new(run.constraints.clone(), run.universe.clone(), target_sig, source, config);
        match seed {
            7 => assert!(report.proven(), "seed 7 is weakly acyclic"),
            42 => assert!(
                !report.proven() && harness.engine.converged(),
                "seed 42 is unknown yet converges under the served cap"
            ),
            _ => {
                let Termination::Unknown { cycle_witness: Some(cycle), .. } = &report.termination
                else {
                    panic!("seed {seed} must be unknown with a witness");
                };
                assert!(cycle.to_string().contains("->*"), "witness shows its existential edge");
                assert!(!harness.engine.converged(), "seed {seed} must diverge under the cap");
            }
        }
        harness.assert_build_matches_replay(&format!("evolution seed {seed}"));
        harness.run_random_stream(&format!("evolution seed {seed}"), seed, 10);
    }
}

#[test]
fn delete_then_reinsert_restores_the_exact_state() {
    // Two-batch round trip: `-t` retracts everything t supported, `+t` in a
    // *separate* batch re-derives it — and because null names are
    // content-addressed (not sequential), the restored state is
    // byte-identical to the original, support table and all.
    let doc = parse_document(REINSERT).unwrap();
    let task = doc.task("m12", "m23").unwrap();
    let full = task.full_signature().unwrap();
    let target = task.sigma2.union(&task.sigma3).unwrap();
    let source = seed_source(&task.sigma1, 3);
    let mut harness = Harness::new(
        task.combined_constraints().into_vec(),
        full,
        target,
        source,
        ExchangeConfig::default(),
    );

    let before_target = harness.engine.rendered_target();
    let before_support = harness.engine.support().clone();
    let before_nulls = harness.engine.nulls();
    let row: Tuple = vec![Value::Int(0), Value::Int(1)].into();

    harness.apply_checked("delete", &[Update::delete("R", row.clone())]);
    assert_ne!(
        harness.engine.rendered_target(),
        before_target,
        "the deletion must actually retract derived rows"
    );
    harness.apply_checked("reinsert", &[Update::insert("R", row)]);
    assert_eq!(harness.engine.rendered_target(), before_target, "target not restored exactly");
    assert_eq!(*harness.engine.support(), before_support, "support table not restored exactly");
    assert_eq!(harness.engine.nulls(), before_nulls, "null counter not restored exactly");
}

#[test]
fn net_zero_batches_leave_every_byte_unchanged() {
    // A batch whose per-tuple signed sum is zero must be a no-op: nothing
    // applied, nothing retracted, state byte-identical — both for
    // insert-then-delete of a fresh row and delete-then-insert of a live
    // one.
    let doc = parse_document(NET_ZERO).unwrap();
    let task = doc.task("m12", "m23").unwrap();
    let full = task.full_signature().unwrap();
    let target = task.sigma2.union(&task.sigma3).unwrap();
    let source = seed_source(&task.sigma1, 3);
    let mut harness = Harness::new(
        task.combined_constraints().into_vec(),
        full,
        target,
        source,
        ExchangeConfig::default(),
    );

    let before_target = harness.engine.rendered_target();
    let before_support = harness.engine.support().clone();
    let fresh: Tuple = vec![Value::Int(99)].into();
    let live: Tuple = vec![Value::Int(0)].into();

    harness.apply_checked(
        "net-zero fresh",
        &[Update::insert("R", fresh.clone()), Update::delete("R", fresh)],
    );
    harness.apply_checked(
        "net-zero live",
        &[Update::delete("R", live.clone()), Update::insert("R", live)],
    );
    assert_eq!(harness.engine.rendered_target(), before_target, "net-zero batch changed target");
    assert_eq!(*harness.engine.support(), before_support, "net-zero batch changed support");
}

#[test]
fn draining_the_source_empties_the_target() {
    // Deleting every source row one batch at a time must cascade the whole
    // target away — the mirror image of building it up — with an oracle
    // check at every intermediate state.
    let doc = parse_document(DRAIN).unwrap();
    let task = doc.task("m12", "m23").unwrap();
    let full = task.full_signature().unwrap();
    let target = task.sigma2.union(&task.sigma3).unwrap();
    let source = seed_source(&task.sigma1, 4);
    let mut harness = Harness::new(
        task.combined_constraints().into_vec(),
        full,
        target,
        source,
        ExchangeConfig::default(),
    );
    assert!(harness.engine.target().total_tuples() > 0);

    let rows: Vec<Tuple> = harness.engine.source().get("R").iter().cloned().collect();
    for (index, row) in rows.into_iter().enumerate() {
        harness.apply_checked(&format!("drain {index}"), &[Update::delete("R", row)]);
    }
    assert_eq!(harness.engine.source().total_tuples(), 0, "source not fully drained");
    assert_eq!(harness.engine.target().total_tuples(), 0, "drained source left target rows");
    assert!(harness.engine.support().is_empty(), "drained source left support entries");
}

// ---------------------------------------------------------------------------
// The served reply: the frame a TCP server writes for `migrate-delta` is
// copied from the engine's escaped text, and must be byte-identical to the
// typed reply's encoding.
// ---------------------------------------------------------------------------

/// Two services fed the same requests in lockstep: `encoded` answers
/// through `call_encoded` (the frame a TCP server writes back), `typed`
/// through `call`, whose reply `encode_reply` encodes. Serving the same
/// request to one service twice would apply its batch twice, hence two.
struct WirePair {
    encoded: LocalService,
    typed: LocalService,
}

impl WirePair {
    /// Serve `request` on both sides; the frames must match byte for byte.
    fn call(&self, request: Request, label: &str) -> String {
        let frame = self.encoded.call_encoded(request.clone(), None);
        let expected = encode_reply(&self.typed.call(request));
        assert_eq!(frame, expected, "{label}: call_encoded diverged from encode_reply(call)");
        frame
    }

    fn migrate(&self, from: &str, to: &str, updates: &[Update], label: &str) -> String {
        let request = Request::MigrateDelta {
            from: from.into(),
            to: to.into(),
            updates: updates.iter().map(Update::render).collect(),
        };
        self.call(request, label)
    }
}

/// The `target` field of a `migrated` frame (`None` for any other reply).
fn target_field(frame: &str) -> Option<&str> {
    if !frame.starts_with("mapcomp-service 1 response migrated\n") {
        return None;
    }
    frame.lines().find_map(|line| line.strip_prefix("target "))
}

/// A string value with a space, `%`, U+00A0 and a control character, each
/// of which the reply text must escape.
fn awkward_string(id: i64) -> Value {
    Value::str(format!("a b%c\u{a0}\u{1}{id}"))
}

/// One random signed batch over `rels`: small integers (so joins meet),
/// now and then an awkward string, and deletes biased toward rows a
/// previous batch inserted.
fn random_wire_batch(
    rng: &mut StdRng,
    rels: &[(String, usize)],
    inserted: &mut Vec<Update>,
) -> Vec<Update> {
    let mut batch = Vec::new();
    for _ in 0..rng.gen_range(1..6) {
        if !inserted.is_empty() && rng.gen_bool(0.3) {
            let row = inserted.swap_remove(rng.gen_range(0..inserted.len()));
            batch.push(Update::delete(row.rel, row.tuple));
            continue;
        }
        let (rel, arity) = &rels[rng.gen_range(0..rels.len())];
        let tuple: Tuple = (0..*arity)
            .map(|_| {
                if rng.gen_bool(0.1) {
                    awkward_string(rng.gen_range(0..3))
                } else {
                    Value::Int(rng.gen_range(0..6))
                }
            })
            .collect();
        let update = Update::insert(rel.clone(), tuple);
        inserted.push(update.clone());
        batch.push(update);
    }
    batch
}

/// Drive one catalog document's migration from `from` to `to` through a
/// wire pair: an empty first batch, then seeded random batches. Returns the
/// `migrated` frames with a non-empty target.
fn drive_wire_pair(label: &str, catalog: &Catalog, from: &str, to: &str, seed: u64) -> usize {
    let pair = WirePair {
        encoded: LocalService::new(catalog.clone(), 1),
        typed: LocalService::new(catalog.clone(), 1),
    };
    let rels: Vec<(String, usize)> = catalog
        .schema(from)
        .unwrap()
        .signature
        .iter()
        .map(|(name, info)| (name.to_string(), info.arity))
        .collect();
    let first = pair.migrate(from, to, &[], &format!("{label}, empty batch"));
    if let Some(target) = target_field(&first) {
        assert_eq!(target, "%e", "{label}: an empty source migrates to an empty target");
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut inserted = Vec::new();
    let mut nonempty = 0;
    for index in 0..if rels.is_empty() { 0 } else { 8 } {
        let batch = random_wire_batch(&mut rng, &rels, &mut inserted);
        let frame = pair.migrate(from, to, &batch, &format!("{label}, batch {index}"));
        nonempty += usize::from(target_field(&frame).is_some_and(|target| target != "%e"));
    }
    nonempty
}

/// A document's catalog and the ends of its `m12 ∘ m23` chain.
fn document_chain(text: &str) -> (Catalog, String, String) {
    let doc = parse_document(text).unwrap();
    let mut catalog = Catalog::new();
    catalog.from_document(&doc).unwrap();
    let from = doc.mappings["m12"].0.clone();
    let to = doc.mappings["m23"].1.clone();
    (catalog, from, to)
}

#[test]
fn served_migrate_frames_match_the_typed_reply_encoding() {
    // Every document of the oracle suite, every corpus problem and the
    // evolution chains, migrated end to end through a `LocalService`.
    // Chains that cannot be chased are refused alike on both sides.
    let mut documents: Vec<(String, &str)> = vec![("example 1".into(), EXAMPLE_1)];
    documents.extend(PAPER_DOCUMENTS.iter().map(|(label, text)| (label.to_string(), *text)));
    documents.extend(
        [("reinsert", REINSERT), ("net zero", NET_ZERO), ("drain", DRAIN)]
            .map(|(label, text)| (label.to_string(), text)),
    );
    documents.extend(
        mapping_composition::corpus::problems()
            .into_iter()
            .map(|problem| (problem.id.to_string(), problem.text)),
    );
    let mut nonempty = 0;
    for (index, (label, text)) in documents.iter().enumerate() {
        let (catalog, from, to) = document_chain(text);
        nonempty += drive_wire_pair(label, &catalog, &from, &to, 0x3E1 + index as u64);
    }
    for seed in [7, 42, 77] {
        let config =
            ScenarioConfig { schema_size: 6, edits: 12, seed, ..ScenarioConfig::default() };
        let replay = replay_editing(&config).unwrap();
        let catalog = replay.session.catalog().snapshot();
        let to = format!("v{}", replay.edits);
        nonempty += drive_wire_pair(&format!("evolution seed {seed}"), &catalog, "v0", &to, seed);
    }
    let batches = 8 * (documents.len() + 3);
    assert!(nonempty * 2 > batches, "only {nonempty} of {batches} batches migrated rows");
}

/// What a fresh session's first batch replied before the batch built the
/// engine: an engine over the empty source, under the configuration the
/// service chases the chain with, applying the batch. A chase that stops
/// short of a fixpoint is refused; any other failure is compared by code.
fn replayed_first_reply(
    service: &LocalService,
    from: &str,
    to: &str,
    batch: &[Update],
) -> Result<MigratePayload, ErrorCode> {
    let chain = service.session().compose_path(from, to).map_err(|e| ServiceError::from(e).code)?;
    let (full, target) = chain.chain.chase_signatures().map_err(|_| ErrorCode::Protocol)?;
    let constraints = chain.chain.mapping.constraints.as_slice();
    let analysis = mapping_composition::catalog::analyze_exchange(constraints, &full, &target);
    let mut engine = DifferentialChase::new(
        constraints,
        &full,
        &target,
        Instance::new(),
        service.session().registry(),
        &SessionConfig::default().chase_config(Some(&analysis)),
    );
    let report = engine.apply(batch).map_err(|_| ErrorCode::Protocol)?;
    if !engine.converged() {
        return Err(ErrorCode::Nonterminating);
    }
    Ok(MigratePayload {
        from: from.into(),
        to: to.into(),
        applied: report.applied,
        inserted: report.inserted,
        deleted: report.deleted,
        retracted: report.retracted,
        rederived: report.rederived,
        fallback: report.fallback,
        source_rows: engine.source().total_tuples(),
        target_rows: engine.target().total_tuples(),
        support_entries: engine.support().len(),
        target: engine.rendered_target(),
    })
}

#[test]
fn a_first_batch_builds_the_engine_with_the_reply_an_empty_engine_gives() {
    // Every corpus chain and sixty evolution chains, each sent one first
    // batch: a seeded source, random rows (some repeated, some inserted and
    // deleted again) and the delete of a row that is absent. The session
    // builds its engine over the batch; the reply must be the one an empty
    // engine applying the batch gives, refusals and fallbacks included.
    let mut chains: Vec<(String, Catalog, String, String)> =
        mapping_composition::corpus::problems()
            .into_iter()
            .map(|problem| {
                let (catalog, from, to) = document_chain(problem.text);
                (problem.id.to_string(), catalog, from, to)
            })
            .collect();
    assert_eq!(chains.len(), 22, "the corpus chains");
    for seed in 1..=60 {
        let config =
            ScenarioConfig { schema_size: 6, edits: 12, seed, ..ScenarioConfig::default() };
        let replay = replay_editing(&config).unwrap();
        let to = format!("v{}", replay.edits);
        let catalog = replay.session.catalog().snapshot();
        chains.push((format!("evolution seed {seed}"), catalog, "v0".into(), to));
    }
    let (mut served, mut fallbacks, mut refused) = (0, 0, 0);
    for (index, (label, catalog, from, to)) in chains.iter().enumerate() {
        // Evolution chains carry unchanged relations through to the target,
        // and a target relation takes no updates.
        let target = catalog.schema(to).unwrap().signature.clone();
        let mut source_sig = Signature::new();
        for (name, info) in catalog.schema(from).unwrap().signature.iter() {
            if !target.contains(name) {
                source_sig.add(name.to_string(), info.clone());
            }
        }
        let rels: Vec<(String, usize)> =
            source_sig.iter().map(|(name, info)| (name.to_string(), info.arity)).collect();
        let Some((first_rel, first_arity)) = rels.first().cloned() else { continue };
        let mut rng = StdRng::seed_from_u64(0xF125 + index as u64);
        let mut batch: Vec<Update> = seed_source(&source_sig, 2)
            .relations()
            .flat_map(|(rel, rows)| rows.iter().map(move |row| Update::insert(rel, row.clone())))
            .collect();
        let mut inserted = Vec::new();
        for _ in 0..3 {
            batch.extend(random_wire_batch(&mut rng, &rels, &mut inserted));
        }
        batch.push(Update::delete(first_rel, vec![Value::Int(99); first_arity]));
        let service = LocalService::new(catalog.clone(), 1);
        let reply = match service.call(Request::MigrateDelta {
            from: from.clone(),
            to: to.clone(),
            updates: batch.iter().map(Update::render).collect(),
        }) {
            Ok(Response::Migrated(payload)) => Ok(payload),
            Ok(other) => panic!("{label}: expected a migrated reply: {other:?}"),
            Err(error) => Err(error.code),
        };
        assert_eq!(reply, replayed_first_reply(&service, from, to, &batch), "{label}");
        match reply {
            Ok(payload) => {
                served += 1;
                fallbacks += usize::from(payload.fallback);
            }
            Err(code) => refused += usize::from(code == ErrorCode::Nonterminating),
        }
    }
    assert!(served > 40 && fallbacks > 0 && refused > 0, "{served} {fallbacks} {refused}");
}

fn temp_catalog(tag: &str) -> std::path::PathBuf {
    let file =
        std::env::temp_dir().join(format!("mapcomp_differential_{tag}_{}.doc", std::process::id()));
    remove_catalog(&file);
    file
}

fn remove_catalog(file: &std::path::Path) {
    let sidecar = sidecar_path(file);
    for path in [file.to_path_buf(), sidecar.clone()] {
        let _ = std::fs::remove_file(&path);
    }
    let mut lock = sidecar.into_os_string();
    lock.push(".lock");
    let _ = std::fs::remove_file(lock);
}

fn open_persistent(file: &std::path::Path) -> LocalService {
    let policy = PersistPolicy { compact_appends: None, compact_bytes: None };
    LocalService::open_with_policy(
        file,
        Registry::standard(),
        SessionConfig::default(),
        1,
        true,
        policy,
    )
    .unwrap()
}

#[test]
fn served_migrate_frames_survive_empty_targets_escapes_chain_edits_and_restarts() {
    let files = [temp_catalog("wire_encoded"), temp_catalog("wire_typed")];
    let open_pair =
        || WirePair { encoded: open_persistent(&files[0]), typed: open_persistent(&files[1]) };
    let movie = |id: i64, name: Value, stars: i64| -> Tuple {
        vec![Value::Int(id), name, Value::Int(1990 + id), Value::Int(stars)].into()
    };
    let pair = open_pair();
    pair.call(Request::AddDocument { text: EXAMPLE_1.into() }, "add example 1");

    // An empty target is the codec's empty marker, on both paths.
    let frame = pair.migrate("sigma1", "sigma3", &[], "empty");
    assert_eq!(target_field(&frame), Some("%e"), "{frame}");
    let frame = pair.migrate(
        "sigma1",
        "sigma3",
        &[Update::insert("Movies", movie(1, Value::Int(11), 4))],
        "a row that reaches no target relation",
    );
    assert_eq!(target_field(&frame), Some("%e"), "{frame}");

    // String values whose every awkward character is escaped.
    let frame = pair.migrate(
        "sigma1",
        "sigma3",
        &[
            Update::insert("Movies", movie(2, awkward_string(2), 5)),
            Update::insert("Movies", movie(3, Value::Int(33), 5)),
        ],
        "awkward strings",
    );
    let target = target_field(&frame).unwrap();
    assert!(target.contains("'a%20b%25c%C2%A0%012'"), "{target}");
    assert!(target.ends_with(";%0A"), "{target}");

    // A chain edit: the next batch rebuilds the engine over the new chain.
    let edited = EXAMPLE_1.replace("project[0,1](FiveStarMovies)", "project[1,0](FiveStarMovies)");
    pair.call(Request::AddDocument { text: edited }, "edit m23");
    let rebuilt = pair.migrate("sigma1", "sigma3", &[], "after the edit");
    assert_ne!(target_field(&rebuilt), Some(target), "the edit swaps the Names columns");
    let frame = pair.migrate(
        "sigma1",
        "sigma3",
        &[Update::delete("Movies", movie(3, Value::Int(33), 5))],
        "batch after the edit",
    );

    // A restart: reopened services replay the persisted history.
    drop(pair);
    let pair = open_pair();
    let replayed = pair.migrate("sigma1", "sigma3", &[], "replayed after a restart");
    assert_eq!(target_field(&replayed), target_field(&frame), "the restart lost no batch");
    pair.migrate(
        "sigma1",
        "sigma3",
        &[Update::insert("Movies", movie(4, awkward_string(4), 5))],
        "batch after the restart",
    );
    drop(pair);
    files.iter().for_each(|file| remove_catalog(file));
}
