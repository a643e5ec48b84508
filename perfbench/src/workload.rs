//! Seeded workload generation: the catalogs, the request streams and the
//! reference values replies are checked against. Everything here is a pure
//! function of the seed, so the server only ever receives generated inputs.

use std::collections::HashMap;

use mapcomp_algebra::{ConstraintSet, Instance, Signature, Value};
use mapcomp_catalog::hash::combine;
use mapcomp_catalog::{hash_config, hash_mapping, render_mapping_decl, render_schema_decl};
use mapcomp_compose::{ComposeConfig, Update};
use mapcomp_service::Request;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The three workloads. Why each exists is recorded in `perfbench/README.md`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Two readers over a warm ~1k-mapping catalog: every read is a memo hit.
    ReadWarm,
    /// One editor running the edit cycle beside one reader.
    Evolve,
    /// Two migration sessions receiving single-tuple ± batches.
    Migrate,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::ReadWarm, Workload::Evolve, Workload::Migrate];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|workload| workload.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ReadWarm => "read-warm",
            Workload::Evolve => "evolve",
            Workload::Migrate => "migrate",
        }
    }
}

/// Sizes of one run. `full()` is what the benchmark measures; tests use
/// smaller shapes so they finish in seconds.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Evolution chains in the editing catalog.
    pub chains: usize,
    /// Edits per chain (links per chain, unless the simulator stops early).
    pub edits: usize,
    /// Source rows per migration session, split over two relations.
    pub source_rows: usize,
}

impl Shape {
    pub fn full() -> Shape {
        Shape { chains: 64, edits: 16, source_rows: 16_384 }
    }
}

/// splitmix64: derives independent sub-seeds from the workload seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

// ---------------------------------------------------------------------------
// The editing catalog (read-warm, evolve)
// ---------------------------------------------------------------------------

/// One mapping of an evolution chain, in both of the forms the editor
/// alternates between.
pub struct Link {
    pub name: String,
    pub source: String,
    pub target: String,
    /// `[original, edited variant]`: the variant adds one trivially true
    /// constraint, so the content hash changes and the meaning does not.
    pub forms: [ConstraintSet; 2],
    /// Content hashes of the two forms, as the catalog computes them.
    pub hashes: [u64; 2],
}

/// One replayed evolution chain, schema and mapping names prefixed `cNN_`.
pub struct Chain {
    pub schemas: Vec<(String, Signature)>,
    pub links: Vec<Link>,
}

/// The catalog `read-warm` and `evolve` serve: seeded `replay_editing`
/// chains (schema size 8), one per chain seed.
pub struct EditCatalog {
    pub chains: Vec<Chain>,
    /// Hash of the default compose configuration, part of every chain hash.
    pub config_hash: u64,
}

impl EditCatalog {
    pub fn generate(seed: u64, shape: Shape) -> EditCatalog {
        // A replay can stop early when no primitive applies; such chains
        // are skipped, so every chain has at least two links.
        let chains = (0u64..)
            .map(|attempt| mapcomp_bench::chain_fixture(shape.edits, mix(seed, attempt)))
            .filter(|(_, path)| path.len() >= 2)
            .take(shape.chains)
            .enumerate()
            .map(|(index, (session, path))| {
                let catalog = session.catalog();
                let prefix = format!("c{index:02}_");
                let schema_names: Vec<String> =
                    (0..=path.len()).map(|i| format!("{prefix}v{i}")).collect();
                let schemas = (0..=path.len())
                    .map(|i| {
                        let entry = catalog.schema(&format!("v{i}")).expect("replayed version");
                        (schema_names[i].clone(), entry.signature.clone())
                    })
                    .collect::<Vec<_>>();
                let links = path
                    .iter()
                    .enumerate()
                    .map(|(i, name)| {
                        let entry = catalog.mapping(name).expect("replayed mapping");
                        let variant = mapcomp_bench::edited_variant(&session, name);
                        let variant_hash =
                            hash_mapping(&schemas[i].1, &schemas[i + 1].1, &variant).0;
                        Link {
                            name: format!("{prefix}{name}"),
                            source: schema_names[i].clone(),
                            target: schema_names[i + 1].clone(),
                            forms: [entry.constraints.clone(), variant],
                            hashes: [entry.hash.0, variant_hash],
                        }
                    })
                    .collect();
                Chain { schemas, links }
            })
            .collect();
        EditCatalog { chains, config_hash: hash_config(&ComposeConfig::default()) }
    }

    pub fn mapping_count(&self) -> usize {
        self.chains.iter().map(|chain| chain.links.len()).sum()
    }

    /// One `add-document` text per chain, every link in its original form.
    pub fn documents(&self) -> Vec<String> {
        (0..self.chains.len()).map(|chain| self.chain_document(chain, &[])).collect()
    }

    /// A chain's schemas and mappings, link `i` in form `forms[i]` (an
    /// empty `forms` means every link in its original form).
    pub fn chain_document(&self, chain: usize, forms: &[u8]) -> String {
        let chain = &self.chains[chain];
        let mut text = String::new();
        for (name, signature) in &chain.schemas {
            text.push_str(&render_schema_decl(name, signature));
        }
        for (i, link) in chain.links.iter().enumerate() {
            text.push_str(&link_decl(link, forms.get(i).copied().unwrap_or(0) as usize));
        }
        text
    }

    /// The warm-up, one request list per chain: composing `v_a → v_end` for
    /// every start `a`, in ascending order, caches every span `(a, b)` as one
    /// left-associated memo entry. The order matters: had start `a + 1` been
    /// composed first, start `a` would absorb it as a run and cache only the
    /// right-associated whole.
    pub fn warm_requests(&self) -> Vec<Vec<Request>> {
        self.chains
            .iter()
            .map(|chain| {
                let end = chain.links.len();
                (0..end.saturating_sub(1))
                    .map(|start| Request::ComposePath {
                        from: chain.schemas[start].0.clone(),
                        to: chain.schemas[end].0.clone(),
                    })
                    .collect()
            })
            .collect()
    }

    /// The read of span `(a, b)` of chain `chain`.
    pub fn read(&self, chain: usize, a: usize, b: usize) -> Request {
        let schemas = &self.chains[chain].schemas;
        Request::ComposePath { from: schemas[a].0.clone(), to: schemas[b].0.clone() }
    }

    /// The content hash the chain driver gives a chain starting at link `a`
    /// that it folded as the runs in `plan` (the reply's `plan` field): each
    /// run is a left-associated memo segment, and the runs are folded left.
    /// The hash is a pure function of the link contents and this plan, so
    /// it is the in-process reference a served chain must match. `None`
    /// when the plan runs past the chain's end.
    pub fn plan_hash(&self, chain: usize, a: usize, plan: &[usize], forms: &[u8]) -> Option<u64> {
        let links = &self.chains[chain].links;
        let link = |i: usize| links[i].hashes[forms.get(i).copied().unwrap_or(0) as usize];
        if plan.contains(&0) || a + plan.iter().sum::<usize>() > links.len() {
            return None;
        }
        let mut start = a;
        let mut acc = None;
        for &run in plan {
            let mut hash = link(start);
            for i in start + 1..start + run {
                hash = combine(&[hash, link(i), self.config_hash]);
            }
            start += run;
            acc = Some(acc.map_or(hash, |acc| combine(&[acc, hash, self.config_hash])));
        }
        acc
    }

    /// Every link in its original form.
    pub fn original_forms(&self) -> Vec<Vec<u8>> {
        self.chains.iter().map(|chain| vec![0; chain.links.len()]).collect()
    }

    /// The `add-document` text that puts link `link` of `chain` in `form`.
    pub fn edit_document(&self, chain: usize, link: usize, form: u8) -> String {
        link_decl(&self.chains[chain].links[link], form as usize)
    }
}

fn link_decl(link: &Link, form: usize) -> String {
    render_mapping_decl(&link.name, &link.source, &link.target, &link.forms[form])
}

// ---------------------------------------------------------------------------
// The migration catalog (migrate)
// ---------------------------------------------------------------------------

/// Migration sessions; the connection alternates between them.
pub const MIGRATE_SESSIONS: usize = 2;

/// Relations of a migration session's source schema. Both feed the one
/// target relation, so deleting a tuple present in both leaves its target
/// tuple supported.
pub const SOURCE_RELATIONS: [&str; 2] = ["R", "S"];

/// Two chains `mK_s0 → mK_s1 → mK_s2` per session: `R ⊆ T`, `S ⊆ T`, then
/// `T ⊆ U`. Composing eliminates `T`.
pub fn migrate_document() -> String {
    let mut text = String::new();
    for k in 0..MIGRATE_SESSIONS {
        text.push_str(&format!(
            "schema m{k}_s0 {{ R/2; S/2; }}\n\
             schema m{k}_s1 {{ T/2; }}\n\
             schema m{k}_s2 {{ U/2; }}\n\
             mapping m{k}_load : m{k}_s0 -> m{k}_s1 {{ R <= T; S <= T; }}\n\
             mapping m{k}_copy : m{k}_s1 -> m{k}_s2 {{ T <= U; }}\n"
        ));
    }
    text
}

/// A relation's live keys, with O(1) random choice and removal.
#[derive(Default)]
struct Live {
    keys: Vec<i64>,
    slot: HashMap<i64, usize>,
}

impl Live {
    fn insert(&mut self, key: i64) -> bool {
        if self.slot.contains_key(&key) {
            return false;
        }
        self.slot.insert(key, self.keys.len());
        self.keys.push(key);
        true
    }

    fn remove_at(&mut self, index: usize) -> i64 {
        let key = self.keys.swap_remove(index);
        self.slot.remove(&key);
        if let Some(&moved) = self.keys.get(index) {
            self.slot.insert(moved, index);
        }
        key
    }
}

/// The tuple a key stands for.
fn tuple(key: i64) -> Vec<Value> {
    vec![Value::Int(key), Value::Int(key * 7_919 % 65_521)]
}

/// One migration session's generator: it owns the source the server should
/// hold and emits single-tuple batches that keep the source size constant.
pub struct MigrateSession {
    pub from: String,
    pub to: String,
    relations: [Live; 2],
    /// Key → number of source relations holding it (the target's support).
    union: HashMap<i64, u8>,
    key_space: i64,
    rng: StdRng,
    pending_delete: Option<usize>,
    initial: Vec<String>,
}

impl MigrateSession {
    pub fn new(seed: u64, session: usize, source_rows: usize) -> MigrateSession {
        let per_relation = source_rows / 2;
        // Keys are drawn from four times the relation size, so about a
        // quarter of each relation's tuples also sit in the other one.
        let key_space = (per_relation * 4) as i64;
        let mut generator = MigrateSession {
            from: format!("m{session}_s0"),
            to: format!("m{session}_s2"),
            relations: Default::default(),
            union: HashMap::new(),
            key_space,
            rng: StdRng::seed_from_u64(mix(seed, 3_000 + session as u64)),
            pending_delete: None,
            initial: Vec::new(),
        };
        let mut initial = Vec::new();
        for (relation, name) in SOURCE_RELATIONS.into_iter().enumerate() {
            while generator.relations[relation].keys.len() < per_relation {
                let key = generator.rng.gen_range(0..key_space);
                if generator.add(relation, key) {
                    initial.push(Update::insert(name, tuple(key)).render());
                }
            }
        }
        generator.initial = initial;
        generator
    }

    fn add(&mut self, relation: usize, key: i64) -> bool {
        if !self.relations[relation].insert(key) {
            return false;
        }
        *self.union.entry(key).or_insert(0) += 1;
        true
    }

    /// The one batch that loads the initial source.
    pub fn load_request(&self) -> Request {
        Request::MigrateDelta {
            from: self.from.clone(),
            to: self.to.clone(),
            updates: self.initial.clone(),
        }
    }

    /// The next single-tuple batch: a fresh insert, then a delete of a live
    /// tuple from the same relation, alternately.
    pub fn next_request(&mut self) -> Request {
        let token = match self.pending_delete.take() {
            Some(relation) => {
                let index = self.rng.gen_range(0..self.relations[relation].keys.len());
                let key = self.relations[relation].remove_at(index);
                let count = self.union.get_mut(&key).expect("live key is counted");
                *count -= 1;
                if *count == 0 {
                    self.union.remove(&key);
                }
                Update::delete(SOURCE_RELATIONS[relation], tuple(key)).render()
            }
            None => {
                let relation = self.rng.gen_range(0..2usize);
                let key = loop {
                    let key = self.rng.gen_range(0..self.key_space);
                    if self.add(relation, key) {
                        break key;
                    }
                };
                self.pending_delete = Some(relation);
                Update::insert(SOURCE_RELATIONS[relation], tuple(key)).render()
            }
        };
        Request::MigrateDelta { from: self.from.clone(), to: self.to.clone(), updates: vec![token] }
    }

    /// Source rows the server should hold.
    pub fn source_rows(&self) -> usize {
        self.relations.iter().map(|live| live.keys.len()).sum()
    }

    /// Distinct tuples across both source relations (each is one target
    /// tuple).
    pub fn distinct_rows(&self) -> usize {
        self.union.len()
    }

    /// The net source instance the generator has sent.
    pub fn net_source(&self) -> Instance {
        let mut source = Instance::new();
        for (relation, live) in self.relations.iter().enumerate() {
            for &key in &live.keys {
                source.insert(SOURCE_RELATIONS[relation], tuple(key));
            }
        }
        source
    }
}

// ---------------------------------------------------------------------------
// The request generator
// ---------------------------------------------------------------------------

/// Reads after each edit cycle in `evolve`.
pub const EVOLVE_READS_PER_EDIT: usize = 1;

/// The editing catalog is the same for every workload seed: its size sets
/// the cost of path resolution and of the dry-run snapshot, and seeds that
/// drew a larger catalog would read as slower runs. The seed picks the
/// reads and edits.
pub const CATALOG_SEED: u64 = 0x6d61_7063_6f6d_7000;

/// What a correct reply to one request looks like.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expect {
    /// A chain of `chain` from link `a` over `len` links, its links in
    /// `forms`; its hash must match [`EditCatalog::plan_hash`] for the
    /// reply's own fold plan.
    Chain { chain: usize, a: usize, len: usize, forms: Vec<u8> },
    /// An `added` reply touching this mapping.
    Added { mapping: String },
    /// An analysis of exactly one mapping.
    Analysis,
    /// A one-update batch leaving this many source rows and distinct source
    /// tuples in session `session`.
    Batch { session: usize, source_rows: usize, distinct_rows: usize },
}

/// One request of the stream, with its latency class and expected reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Op {
    pub class: &'static str,
    pub request: Request,
    pub expect: Expect,
}

/// The workload's data plus the seeded state its request stream advances.
enum Source {
    Editing { catalog: EditCatalog, forms: Vec<Vec<u8>>, reads: StdRng, edits: StdRng },
    Migrate { sessions: Vec<MigrateSession> },
}

/// The seeded request stream of one workload, as one closed-loop
/// connection sends it: the end-to-end run and the traced replay both
/// draw from it, so they send the same requests for a seed.
pub struct Generator {
    workload: Workload,
    source: Source,
}

impl Generator {
    pub fn new(workload: Workload, seed: u64, shape: Shape) -> Generator {
        let source = match workload {
            Workload::ReadWarm | Workload::Evolve => {
                let catalog = EditCatalog::generate(CATALOG_SEED, shape);
                Source::Editing {
                    forms: catalog.original_forms(),
                    catalog,
                    reads: StdRng::seed_from_u64(mix(seed, 1_000)),
                    edits: StdRng::seed_from_u64(mix(seed, 2_000)),
                }
            }
            Workload::Migrate => Source::Migrate {
                sessions: (0..MIGRATE_SESSIONS)
                    .map(|k| MigrateSession::new(seed, k, shape.source_rows))
                    .collect(),
            },
        };
        Generator { workload, source }
    }

    /// The editing catalog (`read-warm`, `evolve`).
    pub fn catalog(&self) -> Option<&EditCatalog> {
        match &self.source {
            Source::Editing { catalog, .. } => Some(catalog),
            Source::Migrate { .. } => None,
        }
    }

    /// Each link's current form, per chain (`read-warm`, `evolve`).
    pub fn forms(&self) -> &[Vec<u8>] {
        match &self.source {
            Source::Editing { forms, .. } => forms,
            Source::Migrate { .. } => &[],
        }
    }

    /// The migration sessions (`migrate`).
    pub fn sessions(&self) -> &[MigrateSession] {
        match &self.source {
            Source::Migrate { sessions } => sessions,
            Source::Editing { .. } => &[],
        }
    }

    /// Catalog mappings the server holds.
    pub fn mapping_count(&self) -> usize {
        self.catalog().map_or(4, EditCatalog::mapping_count)
    }

    /// The set-up requests, in order: the catalog, then the warm-up (every
    /// span composed) or the initial source load of each session.
    pub fn setup(&self) -> Vec<Request> {
        match &self.source {
            Source::Editing { catalog, .. } => {
                let mut setup: Vec<Request> = catalog
                    .documents()
                    .into_iter()
                    .map(|text| Request::AddDocument { text })
                    .collect();
                setup.extend(catalog.warm_requests().into_iter().flatten());
                setup
            }
            Source::Migrate { sessions } => {
                let mut setup = vec![Request::AddDocument { text: migrate_document() }];
                setup.extend(sessions.iter().map(MigrateSession::load_request));
                setup
            }
        }
    }

    /// The next operation: a read (`read-warm`); an edit cycle, the
    /// recomposed chain and [`EVOLVE_READS_PER_EDIT`] reads (`evolve`); one
    /// batch per session (`migrate`).
    pub fn next_op(&mut self) -> Vec<Op> {
        let workload = self.workload;
        match &mut self.source {
            Source::Editing { catalog, forms, reads, edits } => {
                let mut ops = Vec::new();
                let mut read_count = 1;
                if workload == Workload::Evolve {
                    read_count = EVOLVE_READS_PER_EDIT;
                    let chain = edits.gen_range(0..catalog.chains.len());
                    let links = &catalog.chains[chain].links;
                    let link = edits.gen_range(0..links.len());
                    forms[chain][link] ^= 1;
                    let schemas = &catalog.chains[chain].schemas;
                    ops.push(Op {
                        class: "add-document",
                        request: Request::AddDocument {
                            text: catalog.edit_document(chain, link, forms[chain][link]),
                        },
                        expect: Expect::Added { mapping: links[link].name.clone() },
                    });
                    ops.push(Op {
                        class: "analyze",
                        request: Request::Analyze { mapping: Some(links[link].name.clone()) },
                        expect: Expect::Analysis,
                    });
                    ops.push(Op {
                        class: "recompose",
                        request: Request::ComposePath {
                            from: schemas[0].0.clone(),
                            to: schemas[schemas.len() - 1].0.clone(),
                        },
                        expect: Expect::Chain {
                            chain,
                            a: 0,
                            len: links.len(),
                            forms: forms[chain].clone(),
                        },
                    });
                }
                for _ in 0..read_count {
                    let chain = reads.gen_range(0..catalog.chains.len());
                    let len = catalog.chains[chain].links.len();
                    let a = reads.gen_range(0..len);
                    let b = reads.gen_range(a + 1..len + 1);
                    ops.push(Op {
                        class: "read",
                        request: catalog.read(chain, a, b),
                        expect: Expect::Chain { chain, a, len: b - a, forms: forms[chain].clone() },
                    });
                }
                ops
            }
            Source::Migrate { sessions } => sessions
                .iter_mut()
                .enumerate()
                .map(|(session, generator)| {
                    let request = generator.next_request();
                    Op {
                        class: "migrate",
                        request,
                        expect: Expect::Batch {
                            session,
                            source_rows: generator.source_rows(),
                            distinct_rows: generator.distinct_rows(),
                        },
                    }
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Shape {
        Shape { chains: 3, edits: 6, source_rows: 64 }
    }

    /// A request's kind plus the sizes of its fields: what must match
    /// between two seeds while the contents differ.
    fn shape_of(op: &Op) -> (&'static str, &'static str, usize) {
        let size = match &op.request {
            Request::MigrateDelta { updates, .. } => updates.len(),
            Request::Analyze { mapping } => mapping.iter().count(),
            _ => 1,
        };
        (op.class, op.request.kind(), size)
    }

    fn stream(workload: Workload, seed: u64) -> (Vec<Request>, Vec<Op>) {
        let mut generator = Generator::new(workload, seed, small());
        let ops = (0..40).flat_map(|_| generator.next_op()).collect();
        (generator.setup(), ops)
    }

    #[test]
    fn two_seeds_give_different_streams_of_the_same_shape() {
        for workload in Workload::ALL {
            let (setup_a, a) = stream(workload, 1);
            let (setup_b, b) = stream(workload, 2);
            assert_eq!(setup_a.len(), setup_b.len(), "{}", workload.name());
            assert_eq!(a.len(), b.len(), "{}", workload.name());
            let shapes = |ops: &[Op]| ops.iter().map(shape_of).collect::<Vec<_>>();
            assert_eq!(shapes(&a), shapes(&b), "{}", workload.name());
            assert_ne!(a, b, "{}: seeds must change the requests", workload.name());
            if workload == Workload::Migrate {
                assert_ne!(setup_a, setup_b, "seeds must change the source rows");
            }
            assert_eq!(
                stream(workload, 1).1,
                a,
                "{}: a seed repeats its requests",
                workload.name()
            );
        }
    }

    #[test]
    fn migrate_batches_keep_the_source_size_constant() {
        let mut session = MigrateSession::new(9, 0, 64);
        let start = session.source_rows();
        assert_eq!(start, 64);
        for step in 0..200 {
            session.next_request();
            let expected = if step % 2 == 0 { start + 1 } else { start };
            assert_eq!(session.source_rows(), expected);
        }
        assert_eq!(session.net_source().total_tuples(), session.source_rows());
        assert!(session.distinct_rows() < session.source_rows(), "relations overlap");
    }

    #[test]
    fn plan_hash_tracks_link_forms_and_association() {
        let catalog = EditCatalog::generate(5, small());
        let mut forms = catalog.original_forms();
        let len = catalog.chains[0].links.len();
        let cold = |n: usize, forms: &[u8]| catalog.plan_hash(0, 0, &vec![1; n], forms);
        let before = cold(len, &forms[0]);
        forms[0][len - 1] = 1;
        assert_ne!(cold(len, &forms[0]), before);
        assert_eq!(cold(len - 1, &forms[0]), cold(len - 1, &[]));
        // One memo run over the whole span is the same left fold as single
        // links; a split plan is a different association.
        assert_eq!(catalog.plan_hash(0, 0, &[len], &[]), cold(len, &[]));
        assert_ne!(catalog.plan_hash(0, 0, &[1, len - 1], &[]), cold(len, &[]));
        assert_eq!(catalog.plan_hash(0, 1, &[len], &[]), None, "past the chain's end");
    }
}
