//! Differential chase: incremental maintenance of an exchanged target
//! instance under signed source updates.
//!
//! [`crate::exchange`](mod@crate::exchange) materialises a target once; this module keeps that
//! materialisation live as the source changes. The initial build and every
//! full rebuild run the shared chase core ([`crate::chase`]); a batch of
//! `+tuple`/`-tuple` edits ([`Update`]) is then normalised into net
//! effective inserts and deletes and propagated through the same compiled
//! premise plans ([`crate::plan::PremisePlan`]):
//!
//! * **Insertions** run the semi-naive path — delta joins anchored at the
//!   new rows, firing premise tuples not yet fired.
//! * **Deletions** run delete-and-rederive (DRed) with exact support
//!   counts: every target tuple records how many active rule firings
//!   derive it; retracting a source row retracts the firings it anchored,
//!   decrements supports, cascades through tuples whose support reaches
//!   zero, then rederives any retracted firing still derivable from the
//!   surviving state ([`crate::plan::PremisePlan::supports`]).
//!
//! # The Skolem chase and byte-identity
//!
//! Incremental maintenance can only be proven *byte-identical* to a cold
//! re-chase if the chase itself is confluent — the result must not depend
//! on firing order, or on which rows arrived first. The engine therefore
//! runs the core under the *oblivious* firing test: every derivable premise
//! tuple fires exactly once (no satisfaction check), and each existential
//! variable is named content-addressably from the firing that invents it —
//! a hash of (rule index, variable, premise tuple) rather than a sequence
//! number. The final state is then the least fixpoint of a monotone
//! operator: a pure function of the source instance, reached in any order.
//! A fresh [`DifferentialChase::new`] over the updated source *is* the
//! oracle, and `tests/differential_chase.rs` holds every batch to that
//! standard.
//!
//! This canonical solution is homomorphically equivalent to the one
//! [`crate::exchange`](crate::exchange()) computes under the *restricted*
//! firing test (sequential nulls, already-satisfied premises skipped) but
//! not byte-equal to it: the firing test is the only difference between
//! the two.
//!
//! On any evaluation error — budget exhaustion, an unplannable premise, a
//! diverging existential cycle hitting `max_nulls` — the engine falls back
//! to a deterministic full recompute over the updated source, so the
//! oracle obligation holds even off the fast path.

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::fmt::Write as _;
use std::ops::Bound;
use std::sync::Arc;

use mapcomp_algebra::{
    escape_field_into, unescape_field, AlgebraError, Constraint, Instance, Relation, Signature,
    Tuple, Value,
};

use crate::chase::{
    chase, compile_rules, fire, index_rows, plan_relations, ChaseRule, ChaseState, Firing, Row,
};
use crate::exchange::ExchangeConfig;
use crate::plan::WorkBudget;
use crate::registry::Registry;

/// Direction of a signed source update.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Sign {
    /// `+rel(...)`: insert the tuple into the source relation.
    Insert,
    /// `-rel(...)`: remove the tuple from the source relation.
    Delete,
}

/// One signed source update: a tuple to add to or remove from a source
/// relation.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Update {
    /// Insert or delete.
    pub sign: Sign,
    /// The source relation the tuple belongs to.
    pub rel: String,
    /// The tuple itself.
    pub tuple: Tuple,
}

impl Update {
    /// An insertion.
    pub fn insert(rel: impl Into<String>, tuple: impl Into<Tuple>) -> Self {
        Update { sign: Sign::Insert, rel: rel.into(), tuple: tuple.into() }
    }

    /// A deletion.
    pub fn delete(rel: impl Into<String>, tuple: impl Into<Tuple>) -> Self {
        Update { sign: Sign::Delete, rel: rel.into(), tuple: tuple.into() }
    }

    /// Render in the signed-update grammar (`+R(1,'a',null)`), the inverse
    /// of [`parse_update`].
    pub fn render(&self) -> String {
        let mut out = String::new();
        write_update(&mut out, self.sign, &self.rel, &self.tuple);
        out
    }
}

/// Append the signed-update spelling of one row (`+rel(v1,...,vn)`) to
/// `out`: what [`Update::render`] writes, without building the update.
pub fn write_update(out: &mut String, sign: Sign, rel: &str, tuple: &[Value]) {
    out.push(match sign {
        Sign::Insert => '+',
        Sign::Delete => '-',
    });
    write_row(out, rel, tuple);
}

/// The net effect of one batch per tuple: an insertion counts +1 and a
/// deletion -1, so a `+t` and a `-t` of the same tuple cancel. The map
/// borrows each update's relation and tuple.
fn net_changes(updates: &[Update]) -> BTreeMap<(&str, &Tuple), i64> {
    let mut net: BTreeMap<(&str, &Tuple), i64> = BTreeMap::new();
    for update in updates {
        *net.entry((&update.rel, &update.tuple)).or_default() += match update.sign {
            Sign::Insert => 1,
            Sign::Delete => -1,
        };
    }
    net
}

/// Fold one batch into a source instance as [`DifferentialChase::apply`]
/// changes its source: per tuple, a positive net count makes it present, a
/// negative one absent, and a zero leaves it as it was. Folding a batch
/// twice changes nothing the first fold did not.
pub fn fold_updates(source: &mut Instance, updates: &[Update]) {
    for ((rel, tuple), sign) in net_changes(updates) {
        if sign > 0 {
            source.insert(rel, tuple.clone());
        } else if sign < 0 {
            source.remove(rel, tuple);
        }
    }
}

impl std::fmt::Display for Update {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

/// Parse one signed update: `+rel(v1,...,vn)` or `-rel(v1,...,vn)` where
/// each value is an integer, a single-quoted string (no embedded quotes),
/// or the keyword `null`. `+R()` inserts a zero-arity tuple.
pub fn parse_update(text: &str) -> Result<Update, String> {
    let text = text.trim();
    let sign = match text.chars().next() {
        Some('+') => Sign::Insert,
        Some('-') => Sign::Delete,
        _ => return Err(format!("update `{text}` must start with '+' or '-'")),
    };
    let rest = &text[1..];
    let open = rest.find('(').ok_or_else(|| format!("update `{text}` is missing '('"))?;
    let rel = rest[..open].trim();
    if rel.is_empty()
        || !rel.chars().next().is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        || !rel.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
    {
        return Err(format!("update `{text}` has an invalid relation name `{rel}`"));
    }
    let close = rest.rfind(')').ok_or_else(|| format!("update `{text}` is missing ')'"))?;
    if close < open || !rest[close + 1..].trim().is_empty() {
        return Err(format!("update `{text}` has trailing input after ')'"));
    }
    let inner = rest[open + 1..close].trim();
    let mut values: Vec<Value> = Vec::new();
    if !inner.is_empty() {
        // An odd quote count leaves a string open (checked before any field
        // parses, so that error wins over a bad field).
        if inner.bytes().filter(|&b| b == b'\'').count() % 2 == 1 {
            return Err(format!("update `{text}` has an unterminated string"));
        }
        // Split on top-level commas, in place; commas inside quoted strings
        // bind to the string.
        let (mut start, mut quoted) = (0, false);
        for (at, byte) in inner.bytes().enumerate() {
            match byte {
                b'\'' => quoted = !quoted,
                b',' if !quoted => {
                    values.push(parse_value(inner[start..at].trim(), text)?);
                    start = at + 1;
                }
                _ => {}
            }
        }
        values.push(parse_value(inner[start..].trim(), text)?);
    }
    Ok(Update { sign, rel: rel.to_string(), tuple: values.into() })
}

/// Parse a sequence of updates, one per input string.
pub fn parse_updates<S: AsRef<str>>(texts: &[S]) -> Result<Vec<Update>, String> {
    texts.iter().map(|text| parse_update(text.as_ref())).collect()
}

fn parse_value(field: &str, context: &str) -> Result<Value, String> {
    if field == "null" {
        return Ok(Value::Null);
    }
    if let Some(body) = field.strip_prefix('\'') {
        let body = body
            .strip_suffix('\'')
            .ok_or_else(|| format!("update `{context}` has an unterminated string"))?;
        if body.contains('\'') {
            return Err(format!("update `{context}` has a quote inside a string value"));
        }
        return Ok(Value::Str(body.to_string()));
    }
    field
        .parse::<i64>()
        .map(Value::Int)
        .map_err(|_| format!("update `{context}` has an unparsable value `{field}`"))
}

/// Append `rel(v1,...,vn)` to `out`: the one spelling of a row, shared by
/// [`render_instance`], the maintained target text (escaped) and
/// [`Update::render`].
/// Values are written in place through their `Display`, with no
/// intermediate `String`.
fn write_row(out: &mut String, rel: &str, tuple: &[Value]) {
    out.push_str(rel);
    out.push('(');
    for (index, value) in tuple.iter().enumerate() {
        if index > 0 {
            out.push(',');
        }
        let _ = write!(out, "{value}");
    }
    out.push(')');
}

/// Render an instance as canonical text: one `rel(v1,...,vn);` line per
/// tuple, relations and tuples in sorted order, empty relations omitted.
/// Byte-identity of two instances is byte-identity of this rendering.
pub fn render_instance(instance: &Instance) -> String {
    let mut out = String::new();
    for (name, relation) in instance.relations() {
        for tuple in relation.iter() {
            write_row(&mut out, name, tuple);
            out.push_str(";\n");
        }
    }
    out
}

/// Most rows one chunk of the maintained target text holds once it is
/// rendered, so a dirty chunk re-renders at most this many rows plus those
/// the batch added to it. A chunk that outgrows it is split as it renders.
const CHUNK_ROWS: usize = 16;

/// The canonical text of a maintained target in wire form: the field
/// codec's escape of [`render_instance`] of it, so every row ends `;%0A`.
/// Escaping works character by character, so the escape of the whole text
/// is the concatenation of the escapes of its rows (for a non-empty text).
/// Each relation's rows are split into sorted runs ("chunks") with their
/// own text, so a batch re-renders only the chunks its added and removed
/// rows fall in.
#[derive(Default)]
pub(crate) struct TargetText {
    /// Per relation in name order, its chunks keyed by lower bound: a chunk
    /// holds the escaped rows from its key up to the next chunk's key. A
    /// relation's first key is `None`, which sorts below every row; every
    /// other key is the target row the chunk starts at, shared with it.
    relations: BTreeMap<String, BTreeMap<ChunkKey, String>>,
    /// Keys of the chunks marked since the last [`refresh`](Self::refresh),
    /// per relation: at most one entry per chunk, however many rows a
    /// batch touches.
    dirty: BTreeMap<String, BTreeSet<ChunkKey>>,
}

/// The lower bound of a chunk of the maintained target text.
type ChunkKey = Option<Tuple>;

impl TargetText {
    /// Render `target` in full.
    fn render(target: &Instance) -> TargetText {
        let mut text = TargetText::default();
        for (name, relation) in target.relations() {
            let chunks = text.relations.entry(name.to_string()).or_default();
            render_chunk(chunks, Some(relation), name, &None);
        }
        text
    }

    /// Mark dirty the chunk that `row` of relation `rel` falls in: the row
    /// was just added to or removed from the target.
    pub(crate) fn mark(&mut self, rel: &str, row: &Tuple) {
        if !self.relations.contains_key(rel) {
            self.relations.insert(rel.to_string(), BTreeMap::from([(None, String::new())]));
        }
        let chunks = &self.relations[rel];
        let (key, _) =
            chunks.range(..=Some(row.clone())).next_back().expect("the first key is minimal");
        match self.dirty.get_mut(rel) {
            Some(keys) if keys.contains(key) => {}
            Some(keys) => {
                keys.insert(key.clone());
            }
            None => {
                self.dirty.insert(rel.to_string(), BTreeSet::from([key.clone()]));
            }
        }
    }

    /// Re-render, once each, the chunks marked since the last refresh from
    /// `target`. Returns the rows rendered and the bytes of text they make.
    fn refresh(&mut self, target: &Instance) -> (usize, usize) {
        let (mut rows, mut bytes) = (0, 0);
        for (rel, keys) in std::mem::take(&mut self.dirty) {
            let chunks = self.relations.get_mut(&rel).expect("marked chunks exist");
            // Ascending order: a dropped chunk's empty range joins its
            // predecessor, which is already up to date.
            for key in &keys {
                let (chunk_rows, chunk_bytes) =
                    render_chunk(chunks, target.get_ref(&rel), &rel, key);
                rows += chunk_rows;
                bytes += chunk_bytes;
            }
        }
        (rows, bytes)
    }

    fn chunks(&self) -> impl Iterator<Item = &String> {
        self.relations.values().flat_map(BTreeMap::values)
    }

    /// The rows the chunk keys hold.
    fn key_rows(&self) -> impl Iterator<Item = &Tuple> {
        let keys = self.relations.values().flat_map(BTreeMap::keys);
        keys.chain(self.dirty.values().flatten()).flatten()
    }

    /// Bytes of the whole text.
    fn len(&self) -> usize {
        self.chunks().map(String::len).sum()
    }

    /// Append the whole text, every chunk in order, or the codec's empty
    /// marker `%e` when the target has no rows.
    fn append_to(&self, out: &mut String) {
        let len = self.len();
        if len == 0 {
            escape_field_into(out, "");
            return;
        }
        out.reserve(len);
        self.chunks().for_each(|chunk| out.push_str(chunk));
    }
}

/// Re-render the chunk of relation `name` keyed `key` from `relation`,
/// splitting it every [`CHUNK_ROWS`] rows; an emptied chunk other than the
/// first is dropped. A chunk other than the first is keyed anew by its
/// first row, so no key outlives the row it was taken from. Returns the
/// rows rendered and the bytes of escaped text they make.
fn render_chunk(
    chunks: &mut BTreeMap<ChunkKey, String>,
    relation: Option<&Relation>,
    name: &str,
    key: &ChunkKey,
) -> (usize, usize) {
    let end = chunks
        .range::<ChunkKey, _>((Bound::Excluded(key), Bound::Unbounded))
        .next()
        .and_then(|(k, _)| k.clone());
    // Each piece is escaped into one reused buffer and stored as an exact
    // copy: a chunk lives until a batch touches it again, so it keeps only
    // its bytes.
    let mut pieces: Vec<(ChunkKey, String)> = Vec::new();
    let mut piece_key = key.clone();
    let (mut piece, mut line) = (String::new(), String::new());
    let mut rows = 0;
    let start = key.as_deref().unwrap_or_default();
    for row in relation.into_iter().flat_map(|relation| relation.range(start, end.as_deref())) {
        if rows == 0 && key.is_some() {
            piece_key = Some(row.clone());
        } else if rows > 0 && rows % CHUNK_ROWS == 0 {
            let next_key = Some(row.clone());
            pieces.push((std::mem::replace(&mut piece_key, next_key), piece.as_str().into()));
            piece.clear();
        }
        line.clear();
        write_row(&mut line, name, row);
        line.push_str(";\n");
        escape_field_into(&mut piece, &line);
        rows += 1;
    }
    pieces.push((piece_key, piece.as_str().into()));
    let bytes = pieces.iter().map(|(_, text)| text.len()).sum();
    if key.is_some() {
        chunks.remove(key);
    }
    if rows > 0 || key.is_none() {
        chunks.extend(pieces);
    }
    (rows, bytes)
}

/// What one [`DifferentialChase::apply`] call did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeltaReport {
    /// Effective updates after net normalisation (a `+t` and a `-t` of the
    /// same tuple in one batch cancel; re-inserting a present tuple or
    /// deleting an absent one is a no-op).
    pub applied: usize,
    /// Source rows inserted.
    pub inserted: usize,
    /// Source rows deleted.
    pub deleted: usize,
    /// Rule firings retracted by the delete cascade (overdeletion).
    pub retracted: usize,
    /// Retracted firings restored by the support check (rederivation).
    pub rederived: usize,
    /// New rule firings from insertion propagation.
    pub fired: usize,
    /// Target rows added by this batch.
    pub target_added: usize,
    /// Target rows removed by this batch.
    pub target_removed: usize,
    /// Did the batch fall back to a full recompute?
    pub fallback: bool,
    /// Binding rows charged while evaluating this batch (the work measure
    /// `fig14` compares against a full re-chase).
    pub work: usize,
    /// Target rows rendered to bring the maintained target text up to
    /// date: the rows of the chunks this batch touched, or the whole target
    /// after a fallback.
    pub render_rows: usize,
    /// Bytes of escaped text those rows make: the text this batch
    /// re-rendered, or all of it after a fallback.
    pub render_bytes: usize,
}

/// An incrementally-maintained data-exchange target.
///
/// Built once from constraints and an initial source instance (the build
/// runs the chase core under the oblivious firing test), then kept current
/// by [`apply`]-ing signed update batches. A fresh `DifferentialChase` over the same constraints
/// and the current source always reproduces the maintained state exactly —
/// the oracle property the differential test suite enforces.
///
/// [`apply`]: DifferentialChase::apply
pub struct DifferentialChase {
    rules: Vec<ChaseRule>,
    full_sig: Signature,
    target_sig: Signature,
    registry: Registry,
    config: ExchangeConfig,
    /// Relations read by any compiled premise plan: the live index covers
    /// exactly these.
    read_rels: BTreeSet<Arc<str>>,
    /// Constraints that could not be chased (with reasons).
    skipped: Vec<(Constraint, String)>,
    /// Any rule outside the plannable fragment? Incremental maintenance is
    /// disabled; every batch recomputes in full.
    unplannable: bool,
    /// Does the premise→conclusion relation graph contain a cycle? A cyclic
    /// rule set lets target rows support each other transitively, and
    /// counting-based retraction can never drive a mutually-supporting
    /// cycle to zero — so batches with effective deletions retreat to the
    /// full re-chase fallback. Insertions are a monotone fixpoint and stay
    /// incremental either way.
    recursive: bool,
    source: Instance,
    /// The chase state; its `text` is always set, and kept up to date by
    /// every build and batch.
    state: ChaseState,
}

impl DifferentialChase {
    /// Build the engine and chase `source` to the initial fixpoint.
    pub fn new(
        constraints: &[Constraint],
        full_sig: &Signature,
        target_sig: &Signature,
        mut source: Instance,
        registry: &Registry,
        config: &ExchangeConfig,
    ) -> Self {
        share_equal_rows(&mut source);
        let (rules, skipped) = compile_rules(constraints, full_sig, target_sig);
        let read_rels = plan_relations(&rules);
        let unplannable = rules.iter().any(|rule| rule.plan.is_none());
        // Relation-level dependency graph: an edge from every relation a
        // rule reads to every relation its conclusion writes. A cycle means
        // some derived row can transitively support itself (e.g. the
        // mutually-containing `S1 <= S2; S2 <= S1`), which is exactly the
        // shape support counting cannot retract.
        let mut edges: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        for rule in &rules {
            let writes: BTreeSet<String> =
                rule.conclusion.atoms.iter().map(|atom| atom.rel.clone()).collect();
            for read in rule.origin.lhs.relations() {
                edges.entry(read).or_default().extend(writes.iter().cloned());
            }
        }
        let recursive = edges.keys().any(|start| reaches(&edges, start, start));
        let mut state = chase(&rules, full_sig, &source, registry, config, Firing::Oblivious);
        state.text = Some(TargetText::render(&state.target));
        DifferentialChase {
            rules,
            full_sig: full_sig.clone(),
            target_sig: target_sig.clone(),
            registry: registry.clone(),
            config: config.clone(),
            read_rels,
            skipped,
            unplannable,
            recursive,
            source,
            state,
        }
    }

    /// The current source instance (initial source plus every applied
    /// batch).
    pub fn source(&self) -> &Instance {
        &self.source
    }

    /// The maintained target instance.
    pub fn target(&self) -> &Instance {
        &self.state.target
    }

    /// The canonical rendering of the maintained target (the byte-identity
    /// oracle compares these): byte-identical to
    /// [`render_instance`]`(self.target())`, but unescaped from the text the
    /// engine keeps up to date batch by batch instead of rendered anew.
    pub fn rendered_target(&self) -> String {
        let mut escaped = String::new();
        self.escaped_target_into(&mut escaped);
        unescape_field(&escaped).expect("the maintained text is escaped by the field codec")
    }

    /// Append the maintained target's text escaped into one token,
    /// byte-identical to [`escape_field_into`]`(out, &self.rendered_target())`
    /// (`%e` for an empty target). The engine keeps the text in this form,
    /// so this is a copy: a reply carrying the target re-escapes nothing.
    pub fn escaped_target_into(&self, out: &mut String) {
        self.text().append_to(out);
    }

    /// The bytes [`escaped_target_into`](Self::escaped_target_into) appends.
    pub fn escaped_target_len(&self) -> usize {
        self.text().len().max("%e".len())
    }

    fn text(&self) -> &TargetText {
        self.state.text.as_ref().expect("every engine state carries its text")
    }

    /// The support table: active derivation count per target tuple. Its
    /// relation names are shared, one allocation per name per engine.
    pub fn support(&self) -> &BTreeMap<(Arc<str>, Tuple), usize> {
        &self.state.support
    }

    /// Distinct row allocations the engine holds, counted by address across
    /// the source, the live index, the fired sets, the support table, the
    /// target and the keys of the maintained text. Each distinct source row
    /// is one allocation; a target row that copies a source row shares it.
    pub fn row_allocations(&self) -> usize {
        let state = &self.state;
        let instances = [&self.source, &state.target].into_iter().flat_map(Instance::relations);
        let rows = instances
            .flat_map(|(_, relation)| relation.iter())
            .chain(state.live.held_rows())
            .chain(state.fired.iter().flatten())
            .chain(state.support.keys().map(|(_, row)| row))
            .chain(self.text().key_rows());
        rows.map(|row| Arc::as_ptr(row).cast::<Value>()).collect::<HashSet<_>>().len()
    }

    /// Labelled nulls currently alive in the target.
    pub fn nulls(&self) -> usize {
        self.state.nulls
    }

    /// Binding rows charged building the current state. After a
    /// [`rebuild`](Self::rebuild) this is the cost of a full re-chase over
    /// the current source — the baseline the `fig14` bench compares
    /// incremental batch cost against.
    pub fn chase_work(&self) -> usize {
        self.state.work
    }

    /// Did the last build or batch reach a fixpoint?
    pub fn converged(&self) -> bool {
        self.state.converged
    }

    /// Constraints that could not be chased, with reasons.
    pub fn skipped(&self) -> &[(Constraint, String)] {
        &self.skipped
    }

    /// Will the next batch take the incremental path (as opposed to a
    /// forced full recompute)?
    pub fn incremental_ready(&self) -> bool {
        !self.unplannable && self.state.dropped.is_empty() && self.state.converged
    }

    /// Can some target relation transitively derive itself? Deletion
    /// batches over a recursive rule graph always take the full-re-chase
    /// fallback (see the field docs); insert-only batches stay incremental.
    pub fn recursive(&self) -> bool {
        self.recursive
    }

    /// Recompute the state from scratch over the current source. The
    /// deterministic fallback for every error path, and the oracle the
    /// incremental path is tested against.
    pub fn rebuild(&mut self) {
        self.state = chase(
            &self.rules,
            &self.full_sig,
            &self.source,
            &self.registry,
            &self.config,
            Firing::Oblivious,
        );
        self.state.text = Some(TargetText::render(&self.state.target));
    }

    /// Build the engine for a session's first batch: the engine and report
    /// that [`new`](Self::new) over an empty source followed by
    /// [`apply_or_undo`](Self::apply_or_undo)`(updates)` give, without
    /// propagating the batch row by row. The batch's net insertions become
    /// the source of one from-scratch chase, which reaches the same state
    /// (the oblivious chase is confluent). The report counts the build's
    /// firings, work and rendered rows.
    ///
    /// When the empty engine would not take the incremental path, or the
    /// chase stops at a limit or drops a rule, the batch is applied as
    /// `apply_or_undo` applies it, so its own limits decide what it
    /// reports. A clean build always reports `fallback: false`, even where
    /// the single work budget `apply` gives a whole batch would have run
    /// out and recomputed the same state.
    pub fn with_batch(
        constraints: &[Constraint],
        full_sig: &Signature,
        target_sig: &Signature,
        updates: &[Update],
        registry: &Registry,
        config: &ExchangeConfig,
    ) -> Result<(Self, DeltaReport), String> {
        let empty = || {
            DifferentialChase::new(
                constraints,
                full_sig,
                target_sig,
                Instance::new(),
                registry,
                config,
            )
        };
        let mut engine = empty();
        engine.check(updates)?;
        let mut source = Instance::new();
        fold_updates(&mut source, updates);
        let rows = source.total_tuples();
        if rows > 0 && engine.incremental_ready() {
            let (before, fired_before) = (engine.target().total_tuples(), engine.fired());
            share_equal_rows(&mut source);
            engine.source = source;
            engine.rebuild();
            if engine.converged() && engine.state.dropped.is_empty() {
                let after = engine.target().total_tuples();
                let report = DeltaReport {
                    applied: rows,
                    inserted: rows,
                    fired: engine.fired() - fired_before,
                    target_added: after.saturating_sub(before),
                    work: engine.state.work,
                    render_rows: after,
                    render_bytes: engine.text().len(),
                    ..DeltaReport::default()
                };
                let metrics = delta_metrics();
                metrics.batches.incr();
                metrics.inserts.add(rows as u64);
                metrics.work.observe(report.work as u64);
                return Ok((engine, report));
            }
            engine = empty();
        }
        let report = engine.apply_or_undo(updates)?;
        Ok((engine, report))
    }

    /// Firings currently recorded, over every rule.
    fn fired(&self) -> usize {
        self.state.fired.iter().map(BTreeSet::len).sum()
    }

    /// The source instance, giving up the engine: what a caller keeps when
    /// it holds a session's net source without an engine over it.
    pub fn into_source(self) -> Instance {
        self.source
    }

    /// Refuse a batch an update of which is malformed with respect to the
    /// schema: an unknown relation, a target relation, or a wrong arity.
    fn check(&self, updates: &[Update]) -> Result<(), String> {
        for update in updates {
            if !self.full_sig.contains(&update.rel) {
                return Err(format!("unknown relation `{}`", update.rel));
            }
            if self.target_sig.contains(&update.rel) {
                return Err(format!(
                    "relation `{}` is a target relation; only source relations can be updated",
                    update.rel
                ));
            }
            let arity = self.full_sig.arity(&update.rel).map_err(|e| e.to_string())?;
            if update.tuple.len() != arity {
                return Err(format!(
                    "relation `{}` has arity {arity}, update `{update}` has {}",
                    update.rel,
                    update.tuple.len()
                ));
            }
        }
        Ok(())
    }

    /// Apply one batch of signed updates, incrementally maintaining the
    /// target. Returns what was done, or an error if an update is malformed
    /// with respect to the schema (unknown relation, target relation, wrong
    /// arity) — rejected batches leave the state untouched.
    pub fn apply(&mut self, updates: &[Update]) -> Result<DeltaReport, String> {
        self.apply_batch(updates, false)
    }

    /// [`apply`](Self::apply) a batch, but keep it in the source only if the
    /// chase reaches a fixpoint over it. A batch that leaves the state
    /// short of one is taken back out of the source from its own net
    /// changes, so [`source`](Self::source) is the source before it. The
    /// state stays truncated ([`converged`](Self::converged) is false)
    /// until a [`rebuild`](Self::rebuild), which rebuilds the state from
    /// before the batch.
    pub fn apply_or_undo(&mut self, updates: &[Update]) -> Result<DeltaReport, String> {
        self.apply_batch(updates, true)
    }

    fn apply_batch(&mut self, updates: &[Update], undo: bool) -> Result<DeltaReport, String> {
        let metrics = delta_metrics();
        self.check(updates)?;
        // Net normalisation: only the net sign survives, and only when it
        // changes membership. A delete names the stored row, so every later
        // step works on the allocation the engine holds.
        let mut deletes: Vec<(&str, Tuple)> = Vec::new();
        let mut inserts: Vec<(&str, Tuple)> = Vec::new();
        for ((rel, tuple), sign) in net_changes(updates) {
            match self.source.get_ref(rel).and_then(|relation| relation.get(tuple)) {
                None if sign > 0 => inserts.push((rel, tuple.clone())),
                Some(stored) if sign < 0 => deletes.push((rel, stored.clone())),
                _ => {}
            }
        }
        let mut report = DeltaReport {
            applied: deletes.len() + inserts.len(),
            inserted: inserts.len(),
            deleted: deletes.len(),
            ..DeltaReport::default()
        };
        metrics.batches.incr();
        metrics.inserts.add(inserts.len() as u64);
        metrics.deletes.add(deletes.len() as u64);
        if report.applied == 0 {
            return Ok(report);
        }
        // Mutate the source first: both the incremental path and the full
        // fallback define their result over the updated source.
        for (rel, tuple) in &deletes {
            self.source.remove(rel, tuple);
        }
        for (rel, tuple) in &mut inserts {
            *tuple = self.shared_row(tuple);
            self.source.insert(rel, tuple.clone());
        }
        let before = self.state.target.total_tuples();
        // Deletions over a recursive rule graph cannot be retracted by
        // support counting (a mutually-supporting cycle keeps every member
        // alive), so they force the fallback; insertions stay incremental.
        let deletions_retractable = deletes.is_empty() || !self.recursive;
        if self.incremental_ready() && deletions_retractable {
            match self.incremental(&deletes, &inserts, &mut report) {
                Ok(()) => {
                    let text =
                        self.state.text.as_mut().expect("every engine state carries its text");
                    (report.render_rows, report.render_bytes) = text.refresh(&self.state.target);
                }
                Err(_) => {
                    // Partial mutations do not matter: the fallback rebuilds
                    // every piece of state from the updated source.
                    report = DeltaReport {
                        retracted: 0,
                        rederived: 0,
                        fired: 0,
                        fallback: true,
                        ..report
                    };
                    self.rebuild();
                    report.work = self.state.work;
                }
            }
        } else {
            report.fallback = true;
            self.rebuild();
            report.work = self.state.work;
        }
        let after = self.state.target.total_tuples();
        report.target_added = after.saturating_sub(before);
        report.target_removed = before.saturating_sub(after);
        if report.fallback {
            // The rebuild rendered the whole target.
            report.render_rows = after;
            report.render_bytes = self.text().len();
            metrics.fallbacks.incr();
        }
        metrics.retracted.add(report.retracted as u64);
        metrics.rederived.add(report.rederived as u64);
        metrics.work.observe(report.work as u64);
        if undo && !self.state.converged {
            for (rel, tuple) in &inserts {
                self.source.remove(rel, tuple);
            }
            for (rel, tuple) in deletes {
                self.source.insert(rel, tuple);
            }
        }
        Ok(report)
    }

    /// The engine's allocation of `tuple`: an equal row some source or
    /// target relation already holds, or else `tuple` itself. Equal rows of
    /// different relations thus share one allocation, which outlives the
    /// deletion of any one of them.
    fn shared_row(&self, tuple: &Tuple) -> Tuple {
        let mut relations =
            [&self.source, &self.state.target].into_iter().flat_map(Instance::relations);
        relations.find_map(|(_, relation)| relation.get(tuple)).unwrap_or(tuple).clone()
    }

    /// The incremental path: support-counted deletion cascade, rederivation,
    /// then semi-naive insertion propagation. Any `Err` aborts to the full
    /// fallback.
    fn incremental(
        &mut self,
        deletes: &[(&str, Tuple)],
        inserts: &[(&str, Tuple)],
        report: &mut DeltaReport,
    ) -> Result<(), AlgebraError> {
        let mut work = WorkBudget::new(self.config.eval_budget);
        let state = &mut self.state;
        let max_nulls = self.config.max_nulls;
        // ---- Overdeletion cascade -------------------------------------
        // Wave 0 is the deleted source rows; each later wave is the target
        // rows whose support reached zero in the previous one. Lost firings
        // are computed with the wave rows still live (their join partners
        // must be visible), then the rows are unindexed.
        let mut lost: BTreeSet<(usize, Tuple)> = BTreeSet::new();
        let read_rels = &self.read_rels;
        let read =
            |(rel, tuple): &(&str, Tuple)| Some((read_rels.get(*rel)?.clone(), tuple.clone()));
        let mut wave: Vec<Row> = deletes.iter().filter_map(read).collect();
        while !wave.is_empty() {
            let delta = index_rows(&wave);
            let mut wave_lost: Vec<(usize, Tuple)> = Vec::new();
            for (index, rule) in self.rules.iter().enumerate() {
                let plan = rule.plan.as_ref().expect("incremental mode has only planned rules");
                if !wave.iter().any(|(rel, _)| plan.relations().contains(&**rel)) {
                    continue;
                }
                for tuple in plan.eval_delta(&state.live, &delta, &mut work)? {
                    if state.fired[index].contains(&tuple) {
                        wave_lost.push((index, tuple));
                    }
                }
            }
            for (rel, row) in &wave {
                state.live.remove_row(rel, row);
            }
            let mut next: Vec<Row> = Vec::new();
            for (index, tuple) in wave_lost {
                if !state.fired[index].remove(&tuple) {
                    continue;
                }
                let mut minted = 0;
                let rule = &self.rules[index];
                let rows = fire(rule, index, &tuple, Firing::Oblivious, &mut minted);
                lost.insert((index, tuple));
                state.nulls = state.nulls.saturating_sub(minted);
                for (rel, row) in rows {
                    let key = (rel, row);
                    let Some(count) = state.support.get_mut(&key) else {
                        // The support table is out of sync: abort to the
                        // full fallback rather than guess.
                        return Err(AlgebraError::EvalBudgetExceeded { budget: 0 });
                    };
                    *count -= 1;
                    if *count == 0 {
                        state.support.remove(&key);
                        let (rel, row) = key;
                        state.target.remove(&rel, &row);
                        if let Some(text) = &mut state.text {
                            text.mark(&rel, &row);
                        }
                        // A row shadowed by an identical source tuple stays
                        // live (and joinable) even with no derivation left.
                        if read_rels.contains(&rel) && !self.source.contains(&rel, &row) {
                            next.push((rel, row));
                        }
                    }
                }
            }
            report.retracted = lost.len();
            wave = next;
        }
        // ---- Rederivation ---------------------------------------------
        // Premises are monotone joins, so a retracted firing is derivable
        // again iff its premise tuple reproduces over the surviving state;
        // firings that need freshly (re)derived rows are caught below by
        // the insertion propagation instead.
        let mut seeds: Vec<Row> = Vec::new();
        for (index, tuple) in &lost {
            if tuple.contains(&Value::Null) {
                // A genuine SQL-style null in a premise head would not
                // rejoin through the indexed plans; take the fallback.
                return Err(AlgebraError::EvalBudgetExceeded { budget: 0 });
            }
            let plan = self.rules[*index].plan.as_ref().expect("planned rule");
            if plan.supports(&state.live, tuple, &mut work)? {
                report.rederived += 1;
                // Past the null cap (a possibly diverging existential
                // cascade) the full fallback truncates deterministically.
                state.fire_oblivious(
                    (*index, &self.rules[*index]),
                    tuple,
                    max_nulls,
                    read_rels,
                    &mut seeds,
                )?;
            }
        }
        // ---- Insertion propagation ------------------------------------
        for row in inserts {
            if let Some((rel, tuple)) = read(row) {
                if state.live.insert_row(&rel, tuple.clone()) {
                    seeds.push((rel, tuple));
                }
            }
        }
        let mut delta_rows = seeds;
        while !delta_rows.is_empty() {
            let delta = index_rows(&delta_rows);
            let mut next: Vec<Row> = Vec::new();
            for (index, rule) in self.rules.iter().enumerate() {
                let plan = rule.plan.as_ref().expect("planned rule");
                if !delta_rows.iter().any(|(rel, _)| plan.relations().contains(&**rel)) {
                    continue;
                }
                for tuple in plan.eval_delta(&state.live, &delta, &mut work)? {
                    if state.fired[index].contains(&tuple) {
                        continue;
                    }
                    report.fired += 1;
                    state.fire_oblivious((index, rule), &tuple, max_nulls, read_rels, &mut next)?;
                }
            }
            delta_rows = next;
        }
        state.work += work.used();
        report.work = work.used();
        Ok(())
    }
}

/// Give the equal rows of different source relations one allocation, as
/// [`DifferentialChase::apply`] does for the rows it inserts.
fn share_equal_rows(source: &mut Instance) {
    let mut first: HashSet<Tuple> = HashSet::new();
    let mut copies: Vec<(String, Tuple)> = Vec::new();
    for (name, relation) in source.relations() {
        for row in relation.iter() {
            match first.get(row) {
                Some(shared) if !Arc::ptr_eq(shared, row) => {
                    copies.push((name.to_string(), shared.clone()));
                }
                Some(_) => {}
                None => {
                    first.insert(row.clone());
                }
            }
        }
    }
    for (name, row) in copies {
        source.remove(&name, &row);
        source.insert(&name, row);
    }
}

/// Is `goal` reachable from `start` by one or more edges of the rule
/// dependency graph? (With `start == goal` this asks whether the relation
/// sits on a cycle.) Iterative worklist — rule graphs are tiny, but the
/// recursion depth should not hang off user input either way.
fn reaches(edges: &BTreeMap<String, BTreeSet<String>>, start: &str, goal: &str) -> bool {
    let mut seen: BTreeSet<&str> = BTreeSet::new();
    let mut work: Vec<&str> =
        edges.get(start).map(|next| next.iter().map(String::as_str).collect()).unwrap_or_default();
    while let Some(node) = work.pop() {
        if node == goal {
            return true;
        }
        if !seen.insert(node) {
            continue;
        }
        if let Some(next) = edges.get(node) {
            work.extend(next.iter().map(String::as_str));
        }
    }
    false
}

/// The `chase_delta_*` metrics, registered on the global registry.
struct DeltaMetrics {
    batches: &'static mapcomp_telemetry::metrics::Counter,
    inserts: &'static mapcomp_telemetry::metrics::Counter,
    deletes: &'static mapcomp_telemetry::metrics::Counter,
    retracted: &'static mapcomp_telemetry::metrics::Counter,
    rederived: &'static mapcomp_telemetry::metrics::Counter,
    fallbacks: &'static mapcomp_telemetry::metrics::Counter,
    work: &'static mapcomp_telemetry::metrics::Histogram,
}

fn delta_metrics() -> DeltaMetrics {
    let registry = mapcomp_telemetry::metrics::global();
    DeltaMetrics {
        batches: registry.counter(
            "chase_delta_batches_total",
            "Signed-update batches applied to differential chase engines.",
            &[],
        ),
        inserts: registry.counter(
            "chase_delta_updates_total",
            "Effective source-tuple updates applied, by operation.",
            &[("op", "insert")],
        ),
        deletes: registry.counter(
            "chase_delta_updates_total",
            "Effective source-tuple updates applied, by operation.",
            &[("op", "delete")],
        ),
        retracted: registry.counter(
            "chase_delta_retracted_total",
            "Rule firings retracted by the overdeletion cascade.",
            &[],
        ),
        rederived: registry.counter(
            "chase_delta_rederived_total",
            "Retracted rule firings restored by the support check.",
            &[],
        ),
        fallbacks: registry.counter(
            "chase_delta_fallbacks_total",
            "Update batches that fell back to a full recompute.",
            &[],
        ),
        work: registry.histogram(
            "chase_delta_apply_work",
            "Binding rows charged per applied update batch.",
            &[],
            mapcomp_telemetry::metrics::SIZE_BOUNDS,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapcomp_algebra::{escape_field, parse_constraints, tuple};

    fn registry() -> Registry {
        Registry::standard()
    }

    fn movies_engine() -> (Vec<Constraint>, Signature, Signature, Instance) {
        let full = Signature::from_arities([("Movies", 4), ("Names", 2), ("Years", 2)]);
        let target = Signature::from_arities([("Names", 2), ("Years", 2)]);
        let constraints = parse_constraints(
            "project[0,1](select[#3 = 5](Movies)) <= Names; \
             project[0,2](select[#3 = 5](Movies)) <= Years",
        )
        .unwrap()
        .into_vec();
        let mut source = Instance::new();
        source.insert("Movies", tuple([1i64, 100, 1999, 5]));
        source.insert("Movies", tuple([2i64, 200, 2001, 3]));
        source.insert("Movies", tuple([3i64, 300, 2003, 5]));
        (constraints, full, target, source)
    }

    /// The oracle check: the maintained state must render byte-identically
    /// to a cold re-chase over the same source.
    fn assert_oracle(engine: &DifferentialChase, constraints: &[Constraint]) {
        let oracle = DifferentialChase::new(
            constraints,
            &engine.full_sig,
            &engine.target_sig,
            engine.source.clone(),
            &engine.registry,
            &engine.config,
        );
        assert_eq!(engine.rendered_target(), oracle.rendered_target());
        assert_eq!(engine.support(), oracle.support());
        assert_eq!(engine.nulls(), oracle.nulls());
    }

    #[test]
    fn a_first_batch_builds_what_an_empty_engine_applying_it_reaches() {
        let (constraints, full, target, _) = movies_engine();
        let (row, cancelled) = (tuple([1i64, 100, 1999, 5]), tuple([3i64, 300, 2003, 5]));
        let batch = [
            Update::insert("Movies", row.clone()),
            Update::insert("Movies", row),
            Update::insert("Movies", cancelled.clone()),
            Update::delete("Movies", cancelled),
            Update::delete("Movies", tuple([9i64, 900, 2009, 5])),
            Update::insert("Movies", tuple([2i64, 200, 2001, 5])),
        ];
        let config = ExchangeConfig::default();
        let (built, report) = DifferentialChase::with_batch(
            &constraints,
            &full,
            &target,
            &batch,
            &registry(),
            &config,
        )
        .unwrap();
        let mut replayed = DifferentialChase::new(
            &constraints,
            &full,
            &target,
            Instance::new(),
            &registry(),
            &config,
        );
        let replay = replayed.apply(&batch).unwrap();
        let counts = |report: &DeltaReport| {
            (report.applied, report.inserted, report.deleted, report.fallback, report.target_added)
        };
        assert_eq!(counts(&report), counts(&replay));
        assert_eq!(counts(&report), (2, 2, 0, false, 4));
        assert_eq!(render_instance(built.source()), render_instance(replayed.source()));
        assert_eq!(built.rendered_target(), replayed.rendered_target());
        assert_eq!(built.support(), replayed.support());
        let mut folded = Instance::new();
        fold_updates(&mut folded, &batch);
        assert_eq!(render_instance(&folded), render_instance(built.source()));
        assert!(DifferentialChase::with_batch(
            &constraints,
            &full,
            &target,
            &[Update::insert("Names", tuple([1i64, 2]))],
            &registry(),
            &config,
        )
        .is_err());
    }

    #[test]
    fn a_batch_short_of_a_fixpoint_is_undone_from_the_source() {
        // `T`'s second column feeds its first through an existential, so
        // an `R` row starts a chain that never ends.
        let full = Signature::from_arities([("R", 1), ("Q", 1), ("T", 2), ("U", 1)]);
        let target = Signature::from_arities([("T", 2), ("U", 1)]);
        let constraints =
            parse_constraints("R <= project[0](T); project[1](T) <= project[0](T); Q <= U")
                .unwrap()
                .into_vec();
        let config = ExchangeConfig { max_nulls: 64, ..ExchangeConfig::default() };
        let mut source = Instance::new();
        source.insert("Q", tuple([5i64]));
        source.insert("Q", tuple([6i64]));
        let mut engine =
            DifferentialChase::new(&constraints, &full, &target, source, &registry(), &config);
        let (source_before, target_before) =
            (render_instance(engine.source()), engine.rendered_target());
        let batch = [Update::insert("R", tuple([1i64])), Update::delete("Q", tuple([5i64]))];
        engine.apply_or_undo(&batch).unwrap();
        assert!(!engine.converged());
        assert_eq!(render_instance(engine.source()), source_before);
        engine.rebuild();
        assert!(engine.converged());
        assert_eq!(engine.rendered_target(), target_before);
        // `apply` keeps the batch in the source, as a cold chase over it
        // (truncated alike) is the oracle.
        engine.apply(&batch).unwrap();
        assert!(!engine.converged());
        assert!(engine.source().contains("R", &[Value::Int(1)]));
        // A first batch that does not converge leaves an empty source.
        let (built, _) = DifferentialChase::with_batch(
            &constraints,
            &full,
            &target,
            &batch,
            &registry(),
            &config,
        )
        .unwrap();
        assert!(!built.converged());
        assert_eq!(built.into_source().total_tuples(), 0);
    }

    #[test]
    fn parse_render_roundtrip() {
        for text in ["+R(1,2)", "-S('a b',null,-7)", "+T()"] {
            let update = parse_update(text).unwrap();
            assert_eq!(update.render(), text);
        }
        assert!(parse_update("R(1)").is_err());
        assert!(parse_update("+R(1").is_err());
        assert!(parse_update("+R(1) x").is_err());
        assert!(parse_update("+R('a)").is_err());
        assert!(parse_update("+1R(1)").is_err());
        assert!(parse_update("+R(x)").is_err());
        // An open string is reported before any bad field.
        let errors = [
            ("+R(x,'a)", "has an unterminated string"),
            ("+R('a'b')", "has an unterminated string"),
            ("+R('a''b')", "has a quote inside a string value"),
            ("+R(1,,2)", "has an unparsable value ``"),
        ];
        for (text, error) in errors {
            assert_eq!(parse_update(text), Err(format!("update `{text}` {error}")));
        }
        let spaced = parse_update(" -R( 1 , 'x, y' ) ").unwrap();
        assert_eq!(spaced.render(), "-R(1,'x, y')");
    }

    #[test]
    fn seeded_render_parse_round_trip() {
        // A fixed-seed xorshift stream of rows: integers (negatives and the
        // extremes included), nulls, and strings over an alphabet with
        // commas, parentheses, spaces and `%`.
        let mut state: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut next = move |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        const ALPHABET: [char; 10] = ['a', 'Z', '0', ',', '(', ')', ' ', '%', '_', '-'];
        for _ in 0..1_000 {
            let arity = next(5);
            let mut values = Vec::new();
            for _ in 0..arity {
                values.push(match next(6) {
                    0 => Value::Null,
                    1 => Value::Int([i64::MIN, i64::MAX][next(2) as usize]),
                    2 | 3 => Value::Int(next(2_001) as i64 - 1_000),
                    _ => Value::Str((0..next(6)).map(|_| ALPHABET[next(10) as usize]).collect()),
                });
            }
            let update = if next(2) == 0 {
                Update::insert("Rel_1", values)
            } else {
                Update::delete("Rel_1", values)
            };
            let text = update.render();
            assert_eq!(parse_update(&text).as_ref(), Ok(&update), "{text}");
        }
    }

    #[test]
    fn insert_then_delete_restores_state() {
        let (constraints, full, target, source) = movies_engine();
        let mut engine = DifferentialChase::new(
            &constraints,
            &full,
            &target,
            source,
            &registry(),
            &ExchangeConfig::default(),
        );
        assert!(engine.incremental_ready());
        let before_target = engine.rendered_target();
        let before_support = engine.support().clone();
        let row = Update::insert("Movies", tuple([9i64, 900, 2009, 5]));
        let report = engine.apply(std::slice::from_ref(&row)).unwrap();
        assert!(!report.fallback);
        assert_eq!(report.inserted, 1);
        assert!(engine.target().get("Names").contains(&tuple([9i64, 900])));
        assert_oracle(&engine, &constraints);
        let report = engine.apply(&[Update::delete("Movies", row.tuple.clone())]).unwrap();
        assert!(!report.fallback);
        assert_eq!(report.deleted, 1);
        assert_eq!(engine.rendered_target(), before_target);
        assert_eq!(engine.support(), &before_support);
        assert_oracle(&engine, &constraints);
    }

    #[test]
    fn net_zero_batch_is_a_no_op() {
        let (constraints, full, target, source) = movies_engine();
        let mut engine = DifferentialChase::new(
            &constraints,
            &full,
            &target,
            source,
            &registry(),
            &ExchangeConfig::default(),
        );
        let before = engine.rendered_target();
        let row = tuple([9i64, 900, 2009, 5]);
        let report = engine
            .apply(&[
                Update::insert("Movies", row.clone()),
                Update::delete("Movies", row.clone()),
                Update::delete("Movies", tuple([4i64, 0, 0, 0])),
            ])
            .unwrap();
        assert_eq!(report.applied, 0);
        assert_eq!(engine.rendered_target(), before);
        assert_oracle(&engine, &constraints);
    }

    #[test]
    fn shared_support_survives_partial_deletion() {
        // Two source rows derive the same premise tuple (the projection
        // dedups them); deleting one retracts the firing and the support
        // check immediately rederives it from the surviving row.
        let full = Signature::from_arities([("R", 2), ("S", 1)]);
        let target = Signature::from_arities([("S", 1)]);
        let constraints = parse_constraints("project[0](R) <= S").unwrap().into_vec();
        let mut source = Instance::new();
        source.insert("R", tuple([1i64, 10]));
        source.insert("R", tuple([1i64, 20]));
        let mut engine = DifferentialChase::new(
            &constraints,
            &full,
            &target,
            source,
            &registry(),
            &ExchangeConfig::default(),
        );
        assert_eq!(engine.support().get(&("S".into(), tuple([1i64]))), Some(&1));
        let report = engine.apply(&[Update::delete("R", tuple([1i64, 10]))]).unwrap();
        assert!(!report.fallback);
        assert_eq!(report.rederived, 1);
        assert!(engine.target().get("S").contains(&tuple([1i64])));
        assert_eq!(engine.support().get(&("S".into(), tuple([1i64]))), Some(&1));
        assert_oracle(&engine, &constraints);
        engine.apply(&[Update::delete("R", tuple([1i64, 20]))]).unwrap();
        assert!(engine.target().get("S").is_empty());
        assert_oracle(&engine, &constraints);
    }

    #[test]
    fn deletion_cascades_through_target_chains() {
        // R <= S, project[0](S) <= T: deleting the R row must retract both
        // derived tuples.
        let full = Signature::from_arities([("R", 2), ("S", 2), ("T", 1)]);
        let target = Signature::from_arities([("S", 2), ("T", 1)]);
        let constraints = parse_constraints("R <= S; project[0](S) <= T").unwrap().into_vec();
        let mut source = Instance::new();
        source.insert("R", tuple([4i64, 40]));
        source.insert("R", tuple([5i64, 50]));
        let mut engine = DifferentialChase::new(
            &constraints,
            &full,
            &target,
            source,
            &registry(),
            &ExchangeConfig::default(),
        );
        let report = engine.apply(&[Update::delete("R", tuple([4i64, 40]))]).unwrap();
        assert!(!report.fallback);
        assert!(report.retracted >= 2);
        assert!(!engine.target().get("S").contains(&tuple([4i64, 40])));
        assert!(!engine.target().get("T").contains(&tuple([4i64])));
        assert!(engine.target().get("T").contains(&tuple([5i64])));
        assert_oracle(&engine, &constraints);
    }

    #[test]
    fn rederivation_restores_alternately_derivable_rows() {
        // S is derivable from either R1 or R2; deleting the R1 row must
        // keep S alive via the R2 derivation (the support check rederives
        // the R2 firing's conclusion rows after the cascade).
        let full = Signature::from_arities([("R1", 1), ("R2", 1), ("S", 1), ("T", 1)]);
        let target = Signature::from_arities([("S", 1), ("T", 1)]);
        let constraints = parse_constraints("R1 <= S; R2 <= S; S <= T").unwrap().into_vec();
        let mut source = Instance::new();
        source.insert("R1", tuple([1i64]));
        source.insert("R2", tuple([1i64]));
        let mut engine = DifferentialChase::new(
            &constraints,
            &full,
            &target,
            source,
            &registry(),
            &ExchangeConfig::default(),
        );
        let report = engine.apply(&[Update::delete("R1", tuple([1i64]))]).unwrap();
        assert!(!report.fallback);
        assert!(engine.target().get("S").contains(&tuple([1i64])));
        assert!(engine.target().get("T").contains(&tuple([1i64])));
        assert_oracle(&engine, &constraints);
    }

    #[test]
    fn existential_nulls_are_content_addressed() {
        let full = Signature::from_arities([("R", 1), ("S", 2)]);
        let target = Signature::from_arities([("S", 2)]);
        let constraints = parse_constraints("R <= project[0](S)").unwrap().into_vec();
        let mut source = Instance::new();
        source.insert("R", tuple([7i64]));
        let mut engine = DifferentialChase::new(
            &constraints,
            &full,
            &target,
            source,
            &registry(),
            &ExchangeConfig::default(),
        );
        let first = engine.rendered_target();
        assert_eq!(engine.nulls(), 1);
        // Insert and retract an unrelated row: the surviving null keeps its
        // name, so the rendering is byte-stable.
        engine.apply(&[Update::insert("R", tuple([8i64]))]).unwrap();
        assert_eq!(engine.nulls(), 2);
        engine.apply(&[Update::delete("R", tuple([8i64]))]).unwrap();
        assert_eq!(engine.rendered_target(), first);
        assert_eq!(engine.nulls(), 1);
        assert_oracle(&engine, &constraints);
    }

    #[test]
    fn unplannable_rules_force_full_recompute() {
        let full = Signature::from_arities([("A", 1), ("B", 1), ("S", 1)]);
        let target = Signature::from_arities([("S", 1)]);
        let constraints = parse_constraints("A - B <= S").unwrap().into_vec();
        let mut source = Instance::new();
        source.insert("A", tuple([1i64]));
        source.insert("A", tuple([2i64]));
        source.insert("B", tuple([2i64]));
        let mut engine = DifferentialChase::new(
            &constraints,
            &full,
            &target,
            source,
            &registry(),
            &ExchangeConfig::default(),
        );
        assert!(!engine.incremental_ready());
        assert!(engine.target().get("S").contains(&tuple([1i64])));
        // Deleting the B row makes A(2) migrate; the non-monotone premise
        // is handled by the fallback.
        let report = engine.apply(&[Update::delete("B", tuple([2i64]))]).unwrap();
        assert!(report.fallback);
        assert!(engine.target().get("S").contains(&tuple([2i64])));
        assert_oracle(&engine, &constraints);
    }

    #[test]
    fn recursive_rule_graphs_fall_back_on_deletion() {
        // `S1 <= S2; S2 <= S1` makes the two target copies support each
        // other, so support counting alone can never retract the cycle.
        // Deletions must retreat to a full re-chase; insert-only batches
        // stay on the incremental path (monotone fixpoints are cycle-safe).
        let full = Signature::from_arities([("R", 1), ("S1", 1), ("S2", 1)]);
        let target = Signature::from_arities([("S1", 1), ("S2", 1)]);
        let constraints = parse_constraints("R <= S1; S1 <= S2; S2 <= S1").unwrap().into_vec();
        let mut source = Instance::new();
        source.insert("R", tuple([1i64]));
        source.insert("R", tuple([2i64]));
        let mut engine = DifferentialChase::new(
            &constraints,
            &full,
            &target,
            source,
            &registry(),
            &ExchangeConfig::default(),
        );
        assert!(engine.recursive());
        assert!(engine.incremental_ready());
        let report = engine.apply(&[Update::insert("R", tuple([3i64]))]).unwrap();
        assert!(!report.fallback);
        assert_oracle(&engine, &constraints);
        // A deletion over the recursive graph forces the fallback; the
        // cyclic supports would otherwise keep S1(1)/S2(1) alive forever.
        let report = engine.apply(&[Update::delete("R", tuple([1i64]))]).unwrap();
        assert!(report.fallback);
        assert!(!engine.target().get("S1").contains(&tuple([1i64])));
        assert!(!engine.target().get("S2").contains(&tuple([1i64])));
        assert_oracle(&engine, &constraints);
    }

    #[test]
    fn updates_to_target_relations_are_rejected() {
        let (constraints, full, target, source) = movies_engine();
        let mut engine = DifferentialChase::new(
            &constraints,
            &full,
            &target,
            source,
            &registry(),
            &ExchangeConfig::default(),
        );
        let before = engine.rendered_target();
        assert!(engine.apply(&[Update::insert("Names", tuple([1i64, 2]))]).is_err());
        assert!(engine.apply(&[Update::insert("Nope", tuple([1i64]))]).is_err());
        assert!(engine.apply(&[Update::insert("Movies", tuple([1i64]))]).is_err());
        assert_eq!(engine.rendered_target(), before);
    }

    #[test]
    fn an_empty_target_escapes_to_the_empty_marker() {
        let (constraints, full, target, _) = movies_engine();
        let mut engine = DifferentialChase::new(
            &constraints,
            &full,
            &target,
            Instance::new(),
            &registry(),
            &ExchangeConfig::default(),
        );
        let escaped = |engine: &DifferentialChase| {
            let mut out = String::new();
            engine.escaped_target_into(&mut out);
            assert_eq!(out.len(), engine.escaped_target_len());
            out
        };
        assert_eq!((escaped(&engine), engine.rendered_target()), ("%e".into(), String::new()));
        let row = tuple([1i64, 100, 1999, 5]);
        engine.apply(&[Update::insert("Movies", row.clone())]).unwrap();
        assert_eq!(escaped(&engine), "Names(1,100);%0AYears(1,1999);%0A");
        let report = engine.apply(&[Update::delete("Movies", row)]).unwrap();
        assert_eq!((report.render_rows, report.render_bytes), (0, 0));
        assert_eq!((escaped(&engine), engine.rendered_target()), ("%e".into(), String::new()));
    }

    #[test]
    fn maintained_text_tracks_every_kind_of_batch() {
        // Three target relations, awkward values (negative integers,
        // `null`, strings with spaces and `%`), a relation emptied and
        // refilled, and batches touching one chunk or every chunk.
        let full = Signature::from_arities([("A", 2), ("B", 1), ("S", 2), ("T", 1), ("U", 1)]);
        let target = Signature::from_arities([("S", 2), ("T", 1), ("U", 1)]);
        let constraints =
            parse_constraints("A <= S; B <= T; project[0](A) <= U").unwrap().into_vec();
        let a_row = |i: i64| vec![Value::Int(i), Value::str(format!("v {i}%"))];
        let mut source = Instance::new();
        for i in -40..40 {
            source.insert("A", a_row(i));
        }
        source.insert("B", vec![Value::Null]);
        source.insert("B", vec![Value::str("a b%c")]);
        source.insert("B", tuple([-7i64]));
        let mut engine = DifferentialChase::new(
            &constraints,
            &full,
            &target,
            source,
            &registry(),
            &ExchangeConfig::default(),
        );
        let check = |engine: &DifferentialChase, label: &str| {
            let rendered = render_instance(engine.target());
            let mut escaped = String::from("target ");
            engine.escaped_target_into(&mut escaped);
            assert_eq!(escaped, format!("target {}", escape_field(&rendered)), "{label}");
            assert_eq!(escaped.len(), "target ".len() + engine.escaped_target_len(), "{label}");
            assert_eq!(engine.rendered_target(), rendered, "{label}");
            assert_oracle(engine, &constraints);
        };
        check(&engine, "initial build");
        assert!(engine.rendered_target().contains("T(null);\nT(-7);\nT('a b%c');\n"));

        // A batch touching every chunk of S and U.
        let batch: Vec<Update> = (-40..40)
            .step_by(4)
            .map(|i| Update::delete("A", a_row(i)))
            .chain((-40..40).step_by(4).map(|i| Update::insert("A", a_row(i * 1000 + 1))))
            .collect();
        let report = engine.apply(&batch).unwrap();
        assert!(!report.fallback);
        assert_eq!(report.render_rows, engine.target().total_tuples() - 3, "every S, U chunk");
        check(&engine, "every-chunk batch");

        // One row: only its chunk in each relation it reaches re-renders.
        let report = engine.apply(&[Update::insert("A", a_row(-100))]).unwrap();
        assert!(!report.fallback);
        assert!(report.render_rows <= 2 * (CHUNK_ROWS + 1), "rendered {}", report.render_rows);
        check(&engine, "one-row batch");

        // Empty T, then refill it in bulk: the one chunk splits as it grows.
        let b_rows: Vec<Tuple> = engine.source().get("B").iter().cloned().collect();
        let drain: Vec<Update> = b_rows.into_iter().map(|row| Update::delete("B", row)).collect();
        engine.apply(&drain).unwrap();
        assert!(engine.target().get("T").is_empty());
        check(&engine, "T emptied");
        let refill: Vec<Update> = (0..50).map(|i| Update::insert("B", tuple([50 - i]))).collect();
        let report = engine.apply(&refill).unwrap();
        assert_eq!(report.render_rows, 50, "each refilled row renders once");
        let t_rows: String = render_instance(engine.target())
            .lines()
            .filter(|line| line.starts_with("T("))
            .map(|line| format!("{line}\n"))
            .collect();
        assert_eq!(report.render_bytes, escape_field(&t_rows).len(), "T's escaped text");
        check(&engine, "T refilled");
        let report = engine.apply(&[Update::insert("B", tuple([-1i64]))]).unwrap();
        assert!(report.render_rows <= CHUNK_ROWS + 1, "rendered {}", report.render_rows);
        check(&engine, "one row into the refilled T");

        // A fallback re-renders, and counts, the whole text.
        let everything: Vec<Update> =
            engine.source().get("A").iter().map(|row| Update::delete("A", row.clone())).collect();
        engine.unplannable = true;
        let report = engine.apply(&everything).unwrap();
        engine.unplannable = false;
        assert!(report.fallback);
        let whole = escape_field(&render_instance(engine.target()));
        assert_eq!((report.render_rows, report.render_bytes), (51, whole.len()));
        check(&engine, "fallback");

        // Refused batches leave the text alone; a rebuild re-renders it.
        let before = engine.rendered_target();
        assert!(engine.apply(&[Update::insert("S", tuple([1i64, 2]))]).is_err());
        assert_eq!(engine.rendered_target(), before);
        engine.rebuild();
        assert_eq!(engine.rendered_target(), before);
        check(&engine, "rebuilt");
    }
}
