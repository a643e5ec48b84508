//! Persistent expressions: a rewrite copies only what it rewrites.
//!
//! `Expr::substitute` and `Expr::rename` must give the same expressions as
//! a rebuild-everything reference, on seeded random expressions (shared
//! subtrees included) and on every corpus constraint, while returning every
//! subtree that does not mention the symbol as the allocation it was. A
//! pairwise chain composition must pass the constraints no elimination
//! touches through as the very allocations of its inputs. A memo entry's
//! provenance is its path, held as the catalog's own name allocations and
//! shared with the entries it was composed from, and an invalidation drops
//! exactly the entries a scan of those provenances finds, walking two
//! derivation edges per entry.

// Integration-test crates are built without `cfg(test)`, so the
// `allow-unwrap-in-tests` exemption in clippy.toml cannot reach them;
// panicking on a surprise is exactly what a test should do.
#![allow(clippy::unwrap_used)]

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use mapping_composition::algebra::SkolemFn;
use mapping_composition::catalog::{
    compose_pair, load_sidecar, render_cache_entry, CacheEvent, ChainSegment, ComposedChain,
    LinkSource, MemoKey, Name,
};
use mapping_composition::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Substitution as it was before expressions were shared: every node of
/// the result is rebuilt, and every occurrence gets its own copy of the
/// replacement.
fn deep_substitute(expr: &Expr, name: &str, replacement: &Expr) -> Expr {
    let sub = |e: &Expr| deep_substitute(e, name, replacement);
    match expr {
        Expr::Rel(r) if r == name => replacement.clone(),
        Expr::Rel(_) | Expr::Domain(_) | Expr::Empty(_) => expr.clone(),
        Expr::Union(a, b) => sub(a).union(sub(b)),
        Expr::Intersect(a, b) => sub(a).intersect(sub(b)),
        Expr::Product(a, b) => sub(a).product(sub(b)),
        Expr::Difference(a, b) => sub(a).difference(sub(b)),
        Expr::Project(cols, inner) => sub(inner).project(cols.clone()),
        Expr::Select(pred, inner) => sub(inner).select(pred.clone()),
        Expr::Skolem(f, inner) => sub(inner).skolem(f.clone()),
        Expr::Apply(op, args) => Expr::apply(op.clone(), args.iter().map(sub).collect()),
    }
}

/// What a shared rewrite of `before` into `after` must look like: every
/// subtree that does not mention `name` is the same allocation, and every
/// occurrence of `name` equals `replacement` (and is that allocation, when
/// `same_replacement`).
struct Sharing<'a> {
    name: &'a str,
    replacement: &'a Arc<Expr>,
    same_replacement: bool,
}

impl Sharing<'_> {
    fn check(&self, before: &Arc<Expr>, after: &Arc<Expr>) {
        if before.is_relation(self.name) {
            assert_eq!(after, self.replacement);
            if self.same_replacement {
                assert!(Arc::ptr_eq(after, self.replacement), "occurrence not shared: {after}");
            }
        } else if !before.mentions(self.name) {
            assert!(Arc::ptr_eq(before, after), "untouched subtree copied: {before}");
        } else {
            self.check_children(before, after);
        }
    }

    fn check_children(&self, before: &Expr, after: &Expr) {
        match (before, after) {
            (Expr::Union(a, b), Expr::Union(c, d))
            | (Expr::Intersect(a, b), Expr::Intersect(c, d))
            | (Expr::Product(a, b), Expr::Product(c, d))
            | (Expr::Difference(a, b), Expr::Difference(c, d)) => {
                self.check(a, c);
                self.check(b, d);
            }
            (Expr::Project(_, a), Expr::Project(_, b))
            | (Expr::Select(_, a), Expr::Select(_, b))
            | (Expr::Skolem(_, a), Expr::Skolem(_, b)) => self.check(a, b),
            // Arguments are owned by their node: an argument that is an
            // occurrence is a copy of the replacement, any other argument
            // shares its own children.
            (Expr::Apply(_, xs), Expr::Apply(_, ys)) => {
                for (x, y) in xs.iter().zip(ys) {
                    if x.is_relation(self.name) {
                        assert_eq!(y, self.replacement.as_ref());
                    } else {
                        self.check_children(x, y);
                    }
                }
            }
            // A leaf argument that is not an occurrence is copied as is.
            (Expr::Rel(_) | Expr::Domain(_) | Expr::Empty(_), _) => assert_eq!(before, after),
            _ => panic!("substitution changed the shape: {before} became {after}"),
        }
    }
}

/// Substitute and rename `name` in `expr`; both must equal the reference
/// and share what they do not rewrite. Returns whether `expr` mentioned it.
fn check_rewrites(expr: &Arc<Expr>, name: &str, replacement: &Arc<Expr>) -> bool {
    let shared = Expr::substitute(expr, name, replacement);
    assert_eq!(*shared, deep_substitute(expr, name, replacement));
    Sharing { name, replacement, same_replacement: true }.check(expr, &shared);

    let renamed = Expr::rename(expr, name, "Renamed");
    let target = Arc::new(Expr::rel("Renamed"));
    assert_eq!(*renamed, deep_substitute(expr, name, &target));
    Sharing { name, replacement: &target, same_replacement: false }.check(expr, &renamed);
    expr.mentions(name)
}

const RELATIONS: [&str; 4] = ["R", "S", "T", "U"];

/// A random expression of at most `depth` levels over [`RELATIONS`]. With
/// `pool`, a subtree built earlier is sometimes reused, so the inputs are
/// shared too.
fn random_expr(rng: &mut StdRng, depth: usize, pool: &mut Vec<Arc<Expr>>) -> Arc<Expr> {
    if !pool.is_empty() && rng.gen_bool(0.15) {
        return Arc::clone(&pool[rng.gen_range(0..pool.len())]);
    }
    let leaf = depth == 0 || rng.gen_bool(0.25);
    let expr = if leaf {
        match rng.gen_range(0..6usize) {
            0 => Expr::domain(2),
            1 => Expr::empty(2),
            n => Expr::rel(RELATIONS[n - 2]),
        }
    } else {
        let mut child = |rng: &mut StdRng| random_expr(rng, depth - 1, pool);
        match rng.gen_range(0..9usize) {
            0 => Expr::Union(child(rng), child(rng)),
            1 => Expr::Intersect(child(rng), child(rng)),
            2 => Expr::Product(child(rng), child(rng)),
            3 => Expr::Difference(child(rng), child(rng)),
            4 => Expr::Project(vec![1, 0], child(rng)),
            5 => Expr::Select(Pred::eq_const(0, 7), child(rng)),
            6 => Expr::Skolem(SkolemFn::new("f", vec![0]), child(rng)),
            7 => Expr::apply("tc", vec![Expr::clone(&child(rng))]),
            _ => Expr::apply("semijoin", vec![Expr::clone(&child(rng)), Expr::clone(&child(rng))]),
        }
    };
    let expr = Arc::new(expr);
    pool.push(Arc::clone(&expr));
    expr
}

#[test]
fn substitution_matches_the_deep_reference_on_random_expressions() {
    let mut rng = StdRng::seed_from_u64(0x5ac7);
    let mut pool = Vec::new();
    let mut mentioned = 0;
    for _ in 0..400 {
        let expr = random_expr(&mut rng, 6, &mut pool);
        let replacement = random_expr(&mut rng, 2, &mut Vec::new());
        for name in RELATIONS.iter().copied().chain(["Absent"]) {
            mentioned += usize::from(check_rewrites(&expr, name, &replacement));
        }
        assert!(Arc::ptr_eq(&Expr::substitute(&expr, "Absent", &replacement), &expr));
    }
    assert!(mentioned > 400, "too few expressions mention the symbol: {mentioned}");
}

#[test]
fn substitution_matches_the_deep_reference_on_every_corpus_constraint() {
    let mut rewrites = 0;
    for problem in problems() {
        let task = problem.task().unwrap();
        let constraints: Vec<Constraint> = task.combined_constraints().into_vec();
        for (index, constraint) in constraints.iter().enumerate() {
            // The replacement is another constraint's side, as in view
            // unfolding.
            let other = &constraints[(index + 1) % constraints.len()];
            for name in constraint.relations().iter().map(String::as_str).chain(["Absent"]) {
                for side in [&constraint.lhs, &constraint.rhs] {
                    rewrites += usize::from(check_rewrites(side, name, &other.rhs));
                }
                let rewritten = constraint.substitute(name, &other.rhs);
                assert_eq!(rewritten.kind, constraint.kind);
                if !constraint.mentions(name) {
                    assert!(Arc::ptr_eq(&rewritten.lhs, &constraint.lhs));
                    assert!(Arc::ptr_eq(&rewritten.rhs, &constraint.rhs));
                }
            }
        }
    }
    assert!(rewrites > 100, "too few corpus rewrites: {rewrites}");
}

/// The symbols `compose_pair` tries to eliminate when joining `left` and
/// `right`: the shared schema and both residuals, minus the relations an
/// endpoint schema carries through.
fn elimination_candidates(left: &ComposedChain, right: &ComposedChain) -> BTreeSet<String> {
    let keep =
        |name: &String| left.mapping.input.contains(name) || right.mapping.output.contains(name);
    let mut names = left.mapping.output.names();
    names.extend(right.mapping.input.names());
    names.extend(left.residual.names());
    names.extend(right.residual.names());
    names.into_iter().filter(|name| !keep(name)).collect()
}

/// Compose `left` and `right` and check that every output constraint
/// equal to an input constraint that mentions no elimination candidate is
/// one of those inputs' allocations. Returns the composed segment and how
/// many constraints were checked.
fn compose_and_check_sharing(
    left: &ComposedChain,
    right: &ComposedChain,
) -> (ComposedChain, usize) {
    let (composed, _) =
        compose_pair(left, right, &Registry::standard(), &ComposeConfig::default()).unwrap();
    let candidates = elimination_candidates(left, right);
    let untouched: Vec<&Constraint> = left
        .mapping
        .constraints
        .iter()
        .chain(right.mapping.constraints.iter())
        .filter(|c| candidates.iter().all(|name| !c.mentions(name)))
        .collect();
    let mut checked = 0;
    for output in composed.mapping.constraints.iter() {
        let equal: Vec<&&Constraint> = untouched.iter().filter(|c| **c == output).collect();
        if equal.is_empty() {
            continue;
        }
        checked += 1;
        assert!(
            equal.iter().any(|input| Arc::ptr_eq(&input.lhs, &output.lhs)
                && Arc::ptr_eq(&input.rhs, &output.rhs)),
            "passed-through constraint copied: {output}"
        );
    }
    (composed, checked)
}

#[test]
fn compose_pair_passes_untouched_constraints_through_by_reference() {
    // Every corpus problem as a two-link catalog chain.
    let mut checked = 0;
    for problem in problems() {
        let task = problem.task().unwrap();
        let mut catalog = Catalog::new();
        catalog.add_schema("s1", task.sigma1.clone());
        catalog.add_schema("s2", task.sigma2.clone());
        catalog.add_schema("s3", task.sigma3.clone());
        catalog.add_mapping("m12", "s1", "s2", task.sigma12.clone()).unwrap();
        catalog.add_mapping("m23", "s2", "s3", task.sigma23.clone()).unwrap();
        let (left, right) = (catalog.link("m12").unwrap(), catalog.link("m23").unwrap());
        checked += compose_and_check_sharing(&left, &right).1;
    }

    // Editing chains fold left to right, as the chain driver does; they
    // carry every unchanged relation through, so most constraints pass.
    let mut folded = 0;
    for seed in [8000, 8009, 8013] {
        let (session, path) = mapcomp_bench::chain_fixture(8, seed);
        let links: Vec<ComposedChain> =
            path.iter().map(|name| session.catalog().link(name).unwrap()).collect();
        let Some((first, rest)) = links.split_first() else { continue };
        let mut acc = first.clone();
        for link in rest {
            let (composed, count) = compose_and_check_sharing(&acc, link);
            folded += count;
            acc = composed;
        }
    }
    assert!(checked + folded > 20, "too few passed-through constraints: {checked} + {folded}");
    assert!(folded > 0, "the editing chains pass no constraint through");
}

/// The catalog's own allocation of a mapping name and of a schema name.
fn mapping_name(catalog: &SharedCatalog, name: &str) -> Name {
    catalog.mapping(name).unwrap().name
}

fn schema_name(catalog: &SharedCatalog, name: &str) -> Name {
    catalog.schema(name).unwrap().name
}

/// Every memo entry's path names, endpoints and index keys are the
/// catalog's allocations, not copies.
fn assert_memo_shares_catalog_names(session: &SharedSession, context: &str) {
    let catalog = session.catalog();
    let memo = session.cache().entries();
    assert!(!memo.is_empty(), "{context}: the memo is empty");
    for (key, chain) in &memo {
        assert!(chain.provenance.is_none(), "{context}: {key:?} keeps an explicit provenance");
        for name in chain.path.iter() {
            assert!(
                Arc::ptr_eq(name, &mapping_name(catalog, name)),
                "{context}: {key:?} copies mapping name {name}"
            );
        }
        for name in [&chain.source, &chain.target] {
            assert!(
                Arc::ptr_eq(name, &schema_name(catalog, name)),
                "{context}: {key:?} copies schema name {name}"
            );
        }
    }
    for name in session.cache().names() {
        let shared = catalog.mapping(&name).map(|entry| entry.name);
        let shared = shared.or_else(|_| catalog.schema(&name).map(|entry| entry.name)).unwrap();
        assert!(Arc::ptr_eq(&name, &shared), "{context}: the memo holds a copy of {name}");
    }
}

#[test]
fn a_sixteen_link_fold_shares_the_catalogs_names() {
    let (session, path) = mapcomp_bench::chain_fixture(16, 16);
    assert_eq!(path.len(), 16, "the fixture chain has 16 links");
    // The replay edited links and recomposed; a cold fold starts afresh.
    assert_memo_shares_catalog_names(&session, "replayed");
    let cold = SharedSession::new(session.catalog().snapshot());
    let result = cold.compose_names(&path).unwrap();
    assert_eq!(result.compose_calls, 15);
    assert_memo_shares_catalog_names(&cold, "cold fold");
    // An edit keeps the name's allocation: the recomposed segments share
    // it as well.
    let middle = &path[8];
    cold.update_mapping(middle, mapcomp_bench::edited_variant(&cold, middle)).unwrap();
    let before = Arc::as_ptr(&mapping_name(cold.catalog(), middle));
    assert_eq!(cold.compose_names(&path).unwrap().compose_calls, 8);
    assert_eq!(Arc::as_ptr(&mapping_name(cold.catalog(), middle)), before);
    assert_memo_shares_catalog_names(&cold, "after an edit");
}

/// A chain catalog `v0 -> … -> v{hops}` of copy mappings `m0 … m{hops-1}`.
fn copy_chain(hops: usize) -> Catalog {
    let mut catalog = Catalog::new();
    for i in 0..=hops {
        catalog.add_schema(format!("v{i}"), Signature::from_arities([(format!("R{i}"), 1)]));
    }
    for i in 0..hops {
        let constraints = parse_constraints(&format!("R{i} <= R{}", i + 1)).unwrap();
        catalog
            .add_mapping(format!("m{i}"), &format!("v{i}"), &format!("v{}", i + 1), constraints)
            .unwrap();
    }
    catalog
}

/// Every live memo entry's provenance, read off the entries themselves.
fn provenance_scan(session: &SharedSession) -> BTreeMap<MemoKey, BTreeSet<String>> {
    let memo = session.cache().entries();
    memo.iter()
        .map(|(key, chain)| (*key, chain.deps().into_iter().map(str::to_string).collect()))
        .collect()
}

/// Keys of `before` missing from `after`.
fn dropped(
    before: &BTreeMap<MemoKey, BTreeSet<String>>,
    after: &BTreeMap<MemoKey, BTreeSet<String>>,
) -> BTreeSet<MemoKey> {
    before.keys().filter(|key| !after.contains_key(key)).copied().collect()
}

/// The "what depends on m?" query agrees with a brute-force scan of every
/// entry's flattened provenance.
fn assert_dependents_match_scan(session: &SharedSession, mapping: &str) {
    let cache = session.cache();
    let found: Vec<u64> = cache.dependents(mapping).iter().map(|chain| chain.hash).collect();
    let mut memo = cache.entries();
    memo.sort_unstable_by_key(|(key, _)| *key);
    let scanned: Vec<u64> = memo
        .iter()
        .filter(|(_, chain)| chain.deps().contains(mapping))
        .map(|(_, chain)| chain.hash)
        .collect();
    assert_eq!(found, scanned, "dependents of {mapping}");
}

/// Run one invalidation of `mapping` through `invalidate` and check it
/// against a brute-force scan: it drops exactly the entries whose
/// provenance names the mapping, and counts each once. Returns how many
/// entries it dropped.
fn checked_invalidation(
    session: &SharedSession,
    mapping: &str,
    invalidate: impl FnOnce() -> usize,
) -> usize {
    assert_dependents_match_scan(session, mapping);
    let before = provenance_scan(session);
    let stats = session.cache().stats();
    let reported = invalidate();
    let after = provenance_scan(session);
    let expected: BTreeSet<MemoKey> =
        before.iter().filter(|(_, deps)| deps.contains(mapping)).map(|(key, _)| *key).collect();
    assert_eq!(dropped(&before, &after), expected, "invalidating {mapping}");
    assert_eq!(reported, expected.len(), "invalidating {mapping}: reported count");
    let now = session.cache().stats();
    assert_eq!(now.invalidated - stats.invalidated, expected.len(), "invalidating {mapping}");
    assert_eq!(now.evictions, stats.evictions, "invalidating {mapping} evicted");
    expected.len()
}

#[test]
fn invalidation_drops_exactly_what_a_provenance_scan_finds() {
    const HOPS: usize = 8;
    let catalog = copy_chain(HOPS);
    let config = SessionConfig { cache_capacity: Some(8), ..SessionConfig::default() };

    // One sidecar-loaded entry whose `deps` line names a mapping off its
    // path: the m0 ∘ m1 segment, also depending on m5.
    let warm = SharedSession::with_config(catalog.clone(), Registry::standard(), config.clone(), 1);
    let names: Vec<String> = (0..2).map(|i| format!("m{i}")).collect();
    let pair = warm.compose_names(&names).unwrap().chain;
    let key = warm.cache().entries()[0].0;
    let path = pair.path.clone();
    let deps: Vec<Name> = ["m0", "m1", "m5"].into_iter().map(Name::from).collect();
    let explicit = ChainSegment {
        source: pair.source.clone(),
        target: pair.target.clone(),
        provenance: ChainSegment::provenance_of(&path, &deps),
        path,
        mapping: pair.mapping.clone(),
        residual: pair.residual.clone(),
        hash: pair.hash,
    };
    let text = render_cache_entry(&key, &ComposedChain::from(explicit));
    assert!(text.contains("\ndeps m0 m1 m5\n"), "{text}");
    let session = SharedSession::with_cache(
        catalog,
        Registry::standard(),
        config,
        1,
        load_sidecar(&text).cache,
    );
    session.cache().enable_journal();
    assert_eq!(provenance_scan(&session)[&key], ["m0", "m1", "m5"].map(String::from).into());

    // Composed on top of the loaded entry, m0 … m3 depends on m5 too.
    let prefix: Vec<String> = (0..4).map(|i| format!("m{i}")).collect();
    assert_eq!(session.compose_names(&prefix).unwrap().plan, vec![2, 1, 1]);
    let _ = session.cache().take_events();
    assert!(checked_invalidation(&session, "m5", || session.invalidate("m5")) >= 2);
    let (invalidations, evictions) = random_provenance_mix(&session, HOPS, 29);
    assert!(invalidations > 20, "too few invalidated entries: {invalidations}");
    assert!(evictions > 20, "too few evictions: {evictions}");
}

/// A seeded random mix of folds over `v0 … v{hops}`, edits and explicit
/// invalidations on a journaled session, every invalidation checked against
/// a brute-force provenance scan ([`checked_invalidation`]) and every fold's
/// drops against its journaled evictions. Returns how many entries the
/// invalidations and the evictions dropped.
fn random_provenance_mix(session: &SharedSession, hops: usize, seed: u64) -> (usize, usize) {
    const HOPS_MAX: usize = 16;
    assert!(hops <= HOPS_MAX);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edited = [false; HOPS_MAX];
    let (mut invalidations, mut evictions) = (0, 0);
    for step in 0..300 {
        let link = rng.gen_range(0..hops);
        let name = format!("m{link}");
        match rng.gen_range(0..10) {
            0 => {
                invalidations += checked_invalidation(session, &name, || session.invalidate(&name));
            }
            1 => {
                // Toggle the link between two contents: an edit.
                edited[link] = !edited[link];
                let extra =
                    if edited[link] { format!("; R{link} <= R{link}") } else { String::new() };
                let text = format!("R{link} <= R{}{extra}", link + 1);
                let constraints = parse_constraints(&text).unwrap();
                invalidations += checked_invalidation(session, &name, || {
                    session.update_mapping(&name, constraints).unwrap().1
                });
            }
            _ => {
                let from = rng.gen_range(0..hops);
                let to = rng.gen_range(from + 1..=hops);
                let before = provenance_scan(session);
                let stats = session.cache().stats();
                session.compose_path(&format!("v{from}"), &format!("v{to}")).unwrap();
                let after = provenance_scan(session);
                // A compose drops entries only by capacity eviction, each
                // one journaled as a removal; an evicted key the same fold
                // composes again is journaled as re-inserted after it.
                let events = session.cache().take_events();
                let mut last = BTreeMap::new();
                for event in &events {
                    match event {
                        CacheEvent::Removed(key) => last.insert(*key, false),
                        CacheEvent::Inserted(key) => last.insert(*key, true),
                    };
                }
                let evicted: BTreeSet<MemoKey> = last
                    .iter()
                    .filter(|(key, live)| !**live && before.contains_key(key))
                    .map(|(key, _)| *key)
                    .collect();
                assert_eq!(dropped(&before, &after), evicted, "step {step}: evicted keys");
                let removed =
                    events.iter().filter(|event| matches!(event, CacheEvent::Removed(_))).count();
                let now = session.cache().stats();
                assert_eq!(now.evictions - stats.evictions, removed, "step {step}");
                assert_eq!(now.invalidated, stats.invalidated, "step {step}");
                evictions += removed;
            }
        }
        let _ = session.cache().take_events();
        assert_dependents_match_scan(session, &format!("m{}", rng.gen_range(0..hops)));
    }
    (invalidations, evictions)
}

#[test]
fn derivation_walk_matches_a_scan_under_heavy_eviction() {
    // Three entries for the whole session, so most folds evict the middle
    // of their own chain and invalidations walk through kept entries.
    const HOPS: usize = 10;
    let config = SessionConfig { cache_capacity: Some(3), ..SessionConfig::default() };
    let session = SharedSession::with_config(copy_chain(HOPS), Registry::standard(), config, 1);
    session.cache().enable_journal();
    let (invalidations, evictions) = random_provenance_mix(&session, HOPS, 31);
    assert!(invalidations > 20, "too few invalidated entries: {invalidations}");
    assert!(evictions > 100, "too few evictions: {evictions}");
}

#[test]
fn a_long_fold_holds_two_index_and_two_path_references_per_entry() {
    const LINKS: usize = 1_000;
    let session = SharedSession::new(copy_chain(LINKS));
    let names: Vec<String> = (0..LINKS).map(|i| format!("m{i}")).collect();
    let cold = session.compose_names(&names).unwrap();
    assert_eq!(cold.compose_calls, LINKS - 1);
    assert_eq!(cold.chain.path.len(), LINKS);
    assert!(cold.chain.path.iter().map(|name| &**name).eq(names.iter().map(String::as_str)));
    let entries = session.cache().len();
    assert_eq!(entries, LINKS - 1);
    let (index_refs, path_refs) = (session.cache().index_refs(), session.cache().path_refs());
    assert!(index_refs <= 2 * entries, "{index_refs} index references for {entries} entries");
    assert!(path_refs <= 2 * entries, "{path_refs} path references for {entries} entries");
    // Dropping every entry unindexes at most its two input references.
    let dropped = session.invalidate("m0");
    assert_eq!(dropped, LINKS - 1);
    assert!(session.cache().is_empty());
    let removed = index_refs - session.cache().index_refs();
    assert!(removed <= 2 * dropped, "{removed} index references removed for {dropped} entries");
}

#[test]
fn an_evicted_middle_segment_still_leads_to_its_descendants() {
    const HOPS: usize = 6;
    // One stripe holding three entries: the fold's first two prefixes are
    // evicted by the time the whole chain is memoised.
    let config = SessionConfig { cache_capacity: Some(3), ..SessionConfig::default() };
    let names: Vec<String> = (0..HOPS).map(|i| format!("m{i}")).collect();
    for (edited, expected) in [("m0", 3), ("m1", 3), ("m3", 3), ("m4", 2), ("m5", 1)] {
        let session = SharedSession::new(copy_chain(HOPS));
        let cache = mapping_composition::catalog::ShardedMemoCache::new(1, config.cache_capacity);
        let folded = mapping_composition::catalog::compose_chain_with(
            session.catalog(),
            &cache,
            &names,
            &Registry::standard(),
            &ComposeConfig::default(),
            &Default::default(),
        )
        .unwrap();
        assert_eq!(folded.compose_calls, HOPS - 1);
        assert_eq!((cache.len(), cache.stats().evictions), (3, 2), "m0∘m1 and m0∘m1∘m2 evicted");
        let deps =
            |cache: &mapping_composition::catalog::ShardedMemoCache| cache.dependents(edited).len();
        assert_eq!(deps(&cache), expected, "dependents of {edited}");
        assert_eq!(cache.invalidate(edited), expected, "invalidating {edited}");
        assert_eq!(cache.len(), 3 - expected);
        if expected == 3 {
            // Nothing is left to consume the evicted prefixes: their edges
            // went with the last entry composed from them.
            assert_eq!(cache.index_refs(), 0);
        }
    }
}
