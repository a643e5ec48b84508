//! Indexed conjunctive plans for the semi-naive chase engine.
//!
//! A chase rule's premise that converts to conjunctive form (a
//! select–project–join over base relations, the monotone fragment) is
//! compiled once into a [`PremisePlan`]: body atoms over variables, constant
//! bindings, and a head projection. The plan is then evaluated by joining
//! the atoms left to right with hash indexes on the already-bound columns
//! ([`TupleIndex`]), instead of materialising the premise expression's
//! product.
//!
//! Two evaluation modes support the semi-naive discipline of the chase core
//! ([`crate::chase`]):
//!
//! * [`PremisePlan::eval_full`] — the classic join over the full frontier
//!   (used once, when a rule first evaluates);
//! * [`PremisePlan::eval_delta`] — the delta-restricted join: one atom at a
//!   time is bound to the rule's *delta* (tuples inserted since the rule last
//!   evaluated) while the remaining atoms range over the full frontier, so
//!   only premise tuples that are genuinely new can be produced.
//!
//! Work is bounded by a [`WorkBudget`] counting produced binding rows, the
//! same safety valve as the evaluator's tuple budget.
//!
//! Atom join order is chosen greedily per evaluation: start from the
//! smallest relation, then repeatedly take the atom with the most
//! already-bound columns (smallest relation, then source position, on
//! ties). Any order produces the same result set; this one keeps
//! intermediate binding sets — and therefore budget charges — small on wide
//! premises.

use std::cell::{Ref, RefCell};
use std::collections::{BTreeMap, BTreeSet, HashMap};

use mapcomp_algebra::{AlgebraError, Instance, Signature, Tuple, Value};

use crate::cq::{expr_to_conjunctive, Atom, Conjunctive, Term};

/// A store of tuples with lazily built hash indexes on requested column
/// sets.
///
/// One `TupleIndex` holds the chase's live frontier (source ∪ target,
/// updated in place as the chase fires — see [`TupleIndex::insert_row`] /
/// [`TupleIndex::remove_row`]); small transient ones hold per-rule deltas.
/// Indexes are keyed by `(relation, columns)` and built on first use, so a
/// run that touches only a few rules indexes only what those rules join on.
pub struct TupleIndex {
    rows: BTreeMap<String, Vec<Tuple>>,
    indexes: RefCell<HashMap<(String, Vec<usize>), ColumnIndex>>,
    /// Row → position maps, built per relation on first mutation. Only
    /// mutated indexes pay for them; read-only snapshots (delta slices)
    /// never allocate one.
    positions: HashMap<String, HashMap<Tuple, usize>>,
}

/// Join-key values → positions of the rows carrying them.
type ColumnIndex = HashMap<Vec<Value>, Vec<usize>>;

impl TupleIndex {
    /// Snapshot the given relations from a stack of instances (later layers
    /// may duplicate earlier ones; duplicates are dropped). The index shares
    /// the instances' rows.
    pub fn from_layers(
        layers: &[&Instance],
        relations: impl IntoIterator<Item = impl AsRef<str>>,
    ) -> Self {
        let mut rows = BTreeMap::new();
        for name in relations {
            let name = name.as_ref();
            let mut seen: BTreeSet<&Tuple> = BTreeSet::new();
            let mut out: Vec<Tuple> = Vec::new();
            for layer in layers {
                if let Some(rel) = layer.get_ref(name) {
                    for tuple in rel.iter() {
                        if seen.insert(tuple) {
                            out.push(tuple.clone());
                        }
                    }
                }
            }
            rows.insert(name.to_string(), out);
        }
        TupleIndex { rows, indexes: RefCell::new(HashMap::new()), positions: HashMap::new() }
    }

    /// Build from explicit per-relation rows (used for delta slices).
    pub fn from_rows(rows: BTreeMap<String, Vec<Tuple>>) -> Self {
        TupleIndex { rows, indexes: RefCell::new(HashMap::new()), positions: HashMap::new() }
    }

    /// Ensure the row → position map of `rel` exists and return it, along
    /// with the relation's rows (split borrows for the mutators below). The
    /// relation's name is allocated only when the relation is new.
    fn rel_mut(&mut self, rel: &str) -> (&mut Vec<Tuple>, &mut HashMap<Tuple, usize>) {
        if !self.rows.contains_key(rel) {
            self.rows.insert(rel.to_string(), Vec::new());
        }
        let rows = self.rows.get_mut(rel).expect("inserted above");
        if !self.positions.contains_key(rel) {
            let built = rows.iter().enumerate().map(|(position, row)| (row.clone(), position));
            self.positions.insert(rel.to_string(), built.collect());
        }
        let positions = self.positions.get_mut(rel).expect("inserted above");
        (rows, positions)
    }

    /// Membership test (builds the position map of `rel` on first use).
    pub fn contains_row(&mut self, rel: &str, row: &[Value]) -> bool {
        let (_, positions) = self.rel_mut(rel);
        positions.contains_key(row)
    }

    /// Insert a row in place, keeping every already-built hash index of the
    /// relation consistent. Returns `false` (and changes nothing) when the
    /// row is already present — the live chase frontier is a set.
    pub fn insert_row(&mut self, rel: &str, row: Tuple) -> bool {
        let (rows, positions) = self.rel_mut(rel);
        if positions.contains_key(&row) {
            return false;
        }
        let position = rows.len();
        positions.insert(row.clone(), position);
        rows.push(row.clone());
        for ((index_rel, cols), index) in self.indexes.borrow_mut().iter_mut() {
            if index_rel != rel || cols.iter().any(|&c| c >= row.len()) {
                continue;
            }
            let key: Vec<Value> = cols.iter().map(|&c| row[c].clone()).collect();
            index.entry(key).or_default().push(position);
        }
        true
    }

    /// Remove a row in place (swap-remove; the displaced last row's position
    /// and index entries are patched). Returns `false` when the row was not
    /// present.
    pub fn remove_row(&mut self, rel: &str, row: &[Value]) -> bool {
        let (rows, positions) = self.rel_mut(rel);
        let Some(position) = positions.remove(row) else { return false };
        rows.swap_remove(position);
        let moved = (position < rows.len()).then(|| rows[position].clone());
        if let Some(moved_row) = &moved {
            positions.insert(moved_row.clone(), position);
        }
        let last = rows.len();
        for ((index_rel, cols), index) in self.indexes.borrow_mut().iter_mut() {
            if index_rel != rel {
                continue;
            }
            if !cols.iter().any(|&c| c >= row.len()) {
                let key: Vec<Value> = cols.iter().map(|&c| row[c].clone()).collect();
                if let Some(entry) = index.get_mut(&key) {
                    entry.retain(|&p| p != position);
                    if entry.is_empty() {
                        index.remove(&key);
                    }
                }
            }
            // The former last row now lives at `position`.
            if let Some(moved_row) = &moved {
                if cols.iter().any(|&c| c >= moved_row.len()) {
                    continue;
                }
                let key: Vec<Value> = cols.iter().map(|&c| moved_row[c].clone()).collect();
                if let Some(entry) = index.get_mut(&key) {
                    for p in entry.iter_mut() {
                        if *p == last {
                            *p = position;
                        }
                    }
                }
            }
        }
        true
    }

    /// Every row the index holds, once per place it is held (the row lists
    /// and the position maps): for counting the distinct row allocations
    /// behind them.
    pub(crate) fn held_rows(&self) -> impl Iterator<Item = &Tuple> {
        self.rows.values().flatten().chain(self.positions.values().flat_map(HashMap::keys))
    }

    /// Membership test through the position map of `rel`; `None` when the
    /// map is not built (read-only snapshots never build one).
    fn holds_row(&self, rel: &str, row: &[Value]) -> Option<bool> {
        self.positions.get(rel).map(|positions| positions.contains_key(row))
    }

    /// Is there any row for `rel`?
    pub fn has_rows(&self, rel: &str) -> bool {
        self.rows.get(rel).is_some_and(|rows| !rows.is_empty())
    }

    /// Number of rows held for `rel` (the cardinality the greedy join order
    /// ranks atoms by).
    pub fn row_count(&self, rel: &str) -> usize {
        self.rows.get(rel).map_or(0, Vec::len)
    }

    /// All rows of one relation.
    fn scan(&self, rel: &str) -> &[Tuple] {
        self.rows.get(rel).map_or(&[], Vec::as_slice)
    }

    /// Borrow the hash index of `rel` keyed on `cols`, building it on first
    /// use. Resolved once per join stage (the probe columns are static per
    /// stage), then probed per binding row without further allocation.
    fn index(&self, rel: &str, cols: &[usize]) -> Ref<'_, ColumnIndex> {
        let index_key = (rel.to_string(), cols.to_vec());
        if !self.indexes.borrow().contains_key(&index_key) {
            let mut built: ColumnIndex = HashMap::new();
            for (position, tuple) in self.scan(rel).iter().enumerate() {
                // Rows shorter than the probed columns (ragged, out of
                // contract) can never match an atom of the declared arity;
                // leaving them unindexed mirrors the join loop's length
                // check.
                if cols.iter().any(|&c| c >= tuple.len()) {
                    continue;
                }
                let key: Vec<Value> = cols.iter().map(|&c| tuple[c].clone()).collect();
                built.entry(key).or_default().push(position);
            }
            self.indexes.borrow_mut().insert(index_key.clone(), built);
        }
        Ref::map(self.indexes.borrow(), |indexes| {
            indexes.get(&index_key).expect("index built above")
        })
    }

    fn row(&self, rel: &str, position: usize) -> &Tuple {
        &self.rows[rel][position]
    }
}

/// A budget on binding rows produced while evaluating plans.
pub struct WorkBudget {
    used: usize,
    budget: usize,
}

impl WorkBudget {
    /// A budget of `budget` rows.
    pub fn new(budget: usize) -> Self {
        WorkBudget { used: 0, budget }
    }

    /// Binding rows charged so far.
    pub fn used(&self) -> usize {
        self.used
    }

    fn charge(&mut self, amount: usize) -> Result<(), AlgebraError> {
        self.used = self.used.saturating_add(amount);
        if self.used > self.budget {
            return Err(AlgebraError::EvalBudgetExceeded { budget: self.budget });
        }
        Ok(())
    }
}

/// A compiled conjunctive premise: body atoms, constant bindings, and the
/// head projection (all head terms are atom-bound or constant-bound
/// variables).
#[derive(Debug, Clone)]
pub struct PremisePlan {
    atoms: Vec<Atom>,
    const_of: BTreeMap<usize, Value>,
    head: Vec<usize>,
    var_count: usize,
    relations: BTreeSet<String>,
    /// Is the premise one atom over distinct variables, with no constants
    /// and the head its argument list? Every matched row is then its own
    /// head tuple, and the join yields the row itself, not a copy.
    identity: bool,
}

impl PremisePlan {
    /// Compile a premise expression. Returns `None` when the expression is
    /// outside the plannable fragment (non-conjunctive operators, Skolem
    /// terms, head variables unconstrained by any atom — i.e. active-domain
    /// columns — or function-term restrictions); the chase falls back to full
    /// expression evaluation for those rules.
    pub fn compile(premise: &mapcomp_algebra::Expr, sig: &Signature) -> Option<PremisePlan> {
        Self::from_conjunctive(expr_to_conjunctive(premise, sig).ok()?)
    }

    /// Compile a premise already in conjunctive form (see
    /// [`PremisePlan::compile`]).
    pub fn from_conjunctive(cq: Conjunctive) -> Option<PremisePlan> {
        if cq.atoms.is_empty() || !cq.func_eqs.is_empty() {
            return None;
        }
        let body_vars = cq.body_vars();
        let mut head = Vec::with_capacity(cq.head.len());
        for term in &cq.head {
            match term {
                Term::Var(v) if body_vars.contains(v) || cq.const_of.contains_key(v) => {
                    head.push(*v);
                }
                _ => return None,
            }
        }
        let relations = cq.atoms.iter().map(|atom| atom.rel.clone()).collect();
        let identity = match cq.atoms.as_slice() {
            [atom] => {
                let distinct: BTreeSet<&usize> = atom.args.iter().collect();
                cq.const_of.is_empty() && atom.args == head && distinct.len() == head.len()
            }
            _ => false,
        };
        Some(PremisePlan {
            atoms: cq.atoms,
            const_of: cq.const_of,
            head,
            var_count: cq.var_count,
            relations,
            identity,
        })
    }

    /// Relations the premise reads.
    pub fn relations(&self) -> &BTreeSet<String> {
        &self.relations
    }

    /// The atom join order a full evaluation over `full` would use, as
    /// indices into the premise's atoms in source order. Exposed so tests
    /// can assert the greedy order actually reordered a premise.
    pub fn join_order(&self, full: &TupleIndex) -> Vec<usize> {
        self.ordered(None, full)
    }

    /// Pick the greedy atom visit order. `first` forces a leading atom (the
    /// delta-bound atom of [`PremisePlan::eval_delta`]); `full` supplies the
    /// per-relation cardinalities the ranking uses.
    fn ordered(&self, first: Option<usize>, full: &TupleIndex) -> Vec<usize> {
        let mut bound: BTreeSet<usize> = self.const_of.keys().copied().collect();
        let mut order: Vec<usize> = first.into_iter().collect();
        if let Some(lead) = first {
            bound.extend(self.atoms[lead].args.iter().copied());
        }
        let mut remaining: Vec<usize> =
            (0..self.atoms.len()).filter(|&i| first != Some(i)).collect();
        while !remaining.is_empty() {
            let best = remaining
                .iter()
                .copied()
                .min_by_key(|&i| {
                    let atom = &self.atoms[i];
                    let joined = atom.args.iter().filter(|v| bound.contains(v)).count();
                    (std::cmp::Reverse(joined), full.row_count(&atom.rel), i)
                })
                .expect("non-empty remaining set");
            remaining.retain(|&i| i != best);
            bound.extend(self.atoms[best].args.iter().copied());
            order.push(best);
        }
        order
    }

    /// Evaluate the premise over the full frontier.
    pub fn eval_full(
        &self,
        full: &TupleIndex,
        work: &mut WorkBudget,
    ) -> Result<BTreeSet<Tuple>, AlgebraError> {
        let order = self.join_order(full);
        let sources = vec![full; order.len()];
        self.join(&order, &sources, work)
    }

    /// Evaluate the delta-restricted premise: the union, over every atom
    /// position `d` whose relation has delta rows, of the join with atom `d`
    /// bound to the delta and every other atom over the full live state.
    ///
    /// `delta` is the caller's change set (everything since it last
    /// evaluated) and drives the join; `full` must hold the complete live
    /// state, delta rows included, each row exactly once.
    pub fn eval_delta(
        &self,
        full: &TupleIndex,
        delta: &TupleIndex,
        work: &mut WorkBudget,
    ) -> Result<BTreeSet<Tuple>, AlgebraError> {
        let mut out = BTreeSet::new();
        for d in 0..self.atoms.len() {
            if !delta.has_rows(&self.atoms[d].rel) {
                continue;
            }
            // The delta atom is joined first so every binding is anchored in
            // a new tuple; the remaining atoms follow the greedy order.
            let order = self.ordered(Some(d), full);
            let sources: Vec<&TupleIndex> =
                order.iter().map(|&i| if i == d { delta } else { full }).collect();
            out.extend(self.join(&order, &sources, work)?);
        }
        Ok(out)
    }

    /// Is `head` (a previously fired premise tuple) derivable over `full`
    /// right now? Joins the atoms with the head variables pre-bound to the
    /// tuple's values, so every probe is as selective as the tuple itself —
    /// the rederivation check of the differential chase, sublinear in the
    /// instance wherever the head columns are indexed.
    pub fn supports(
        &self,
        full: &TupleIndex,
        head: &[Value],
        work: &mut WorkBudget,
    ) -> Result<bool, AlgebraError> {
        if head.len() != self.head.len() {
            return Ok(false);
        }
        if self.identity {
            // The join would probe an index on every column for the one row
            // equal to `head`; a built position map answers that without
            // such an index. A null never joins; a match charges one unit.
            if let Some(present) = full.holds_row(&self.atoms[0].rel, head) {
                if !present || head.iter().any(Value::is_null) {
                    return Ok(false);
                }
                work.charge(1)?;
                return Ok(true);
            }
        }
        let mut seed: Vec<Option<Value>> = vec![None; self.var_count];
        let mut bound: BTreeSet<usize> = BTreeSet::new();
        for (&var, value) in &self.const_of {
            seed[var] = Some(value.clone());
            bound.insert(var);
        }
        for (&var, value) in self.head.iter().zip(head) {
            match &seed[var] {
                // A repeated head variable (or a constant-bound one) must
                // carry one consistent value; labelled nulls are ordinary
                // values here — the tuple either reproduces or it doesn't.
                Some(existing) if existing != value => return Ok(false),
                _ => {
                    seed[var] = Some(value.clone());
                    bound.insert(var);
                }
            }
        }
        let order = self.join_order(full);
        let sources = vec![full; order.len()];
        let out = self.join_seeded(&order, &sources, seed, bound, work)?;
        Ok(!out.is_empty())
    }

    /// Join the atoms in `order`, each over its source, producing head
    /// tuples.
    fn join(
        &self,
        order: &[usize],
        sources: &[&TupleIndex],
        work: &mut WorkBudget,
    ) -> Result<BTreeSet<Tuple>, AlgebraError> {
        // Initial binding: constant-bound variables.
        let mut initial: Vec<Option<Value>> = vec![None; self.var_count];
        for (&var, value) in &self.const_of {
            initial[var] = Some(value.clone());
        }
        let bound: BTreeSet<usize> = self.const_of.keys().copied().collect();
        self.join_seeded(order, sources, initial, bound, work)
    }

    /// The join loop over an explicit initial binding (`seed`) and its bound
    /// variable set. An identity plan yields the matched rows themselves;
    /// it charges one unit per row, as the general join does.
    fn join_seeded(
        &self,
        order: &[usize],
        sources: &[&TupleIndex],
        seed: Vec<Option<Value>>,
        mut bound: BTreeSet<usize>,
        work: &mut WorkBudget,
    ) -> Result<BTreeSet<Tuple>, AlgebraError> {
        let mut bindings: Vec<Vec<Option<Value>>> = vec![seed];
        let mut shared: BTreeSet<Tuple> = BTreeSet::new();
        // Which variables are bound is static per stage, so the probe columns
        // (and therefore the index) are shared by all rows of a stage.
        for (&atom_index, part) in order.iter().zip(sources) {
            let atom = &self.atoms[atom_index];
            let probe_cols: Vec<usize> = atom
                .args
                .iter()
                .enumerate()
                .filter(|(_, var)| bound.contains(var))
                .map(|(col, _)| col)
                .collect();
            // Resolve the access path once for the whole stage: a slice scan
            // when no columns are bound, a borrowed hash index otherwise
            // (probed per row without allocating).
            let index: Option<Ref<'_, ColumnIndex>> =
                (!probe_cols.is_empty()).then(|| part.index(&atom.rel, &probe_cols));
            let mut next: Vec<Vec<Option<Value>>> = Vec::new();
            for binding in &bindings {
                let key: Vec<Value> = probe_cols
                    .iter()
                    .map(|&col| binding[atom.args[col]].clone().expect("bound variable"))
                    .collect();
                let candidates: Vec<&Tuple> = match &index {
                    None => part.scan(&atom.rel).iter().collect(),
                    Some(index) => index
                        .get(&key)
                        .into_iter()
                        .flatten()
                        .map(|&position| part.row(&atom.rel, position))
                        .collect(),
                };
                'tuples: for tuple in candidates {
                    if tuple.len() != atom.args.len() {
                        continue;
                    }
                    if self.identity {
                        // Distinct variables: only the seed can reject the row.
                        let rejected = atom.args.iter().zip(tuple.iter()).any(|(&var, value)| {
                            binding[var].as_ref().is_some_and(|existing| rejects(existing, value))
                        });
                        if !rejected {
                            work.charge(1)?;
                            shared.insert(tuple.clone());
                        }
                        continue;
                    }
                    let mut extended = binding.clone();
                    for (col, &var) in atom.args.iter().enumerate() {
                        match &extended[var] {
                            Some(existing) if rejects(existing, &tuple[col]) => continue 'tuples,
                            Some(_) => {}
                            None => extended[var] = Some(tuple[col].clone()),
                        }
                    }
                    work.charge(1)?;
                    next.push(extended);
                }
            }
            bound.extend(atom.args.iter().copied());
            bindings = next;
            if bindings.is_empty() {
                break;
            }
        }
        if self.identity {
            return Ok(shared);
        }
        let mut out = BTreeSet::new();
        for binding in &bindings {
            let tuple: Tuple = self
                .head
                .iter()
                .map(|&var| binding[var].clone().expect("head variables are bound"))
                .collect();
            out.insert(tuple);
        }
        Ok(out)
    }
}

/// Does a variable already bound to `existing` reject `value`? Re-bound
/// variables stand for `=` selections, whose null semantics reject
/// `Null = Null`.
fn rejects(existing: &Value, value: &Value) -> bool {
    existing.is_null() || value.is_null() || existing != value
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use mapcomp_algebra::{parse_expr, tuple, Expr, Pred};

    fn sig() -> Signature {
        Signature::from_arities([("R", 2), ("S", 2), ("T", 1)])
    }

    fn index_of(inst: &Instance, rels: &[&str]) -> TupleIndex {
        let names: Vec<String> = rels.iter().map(std::string::ToString::to_string).collect();
        TupleIndex::from_layers(&[inst], names.iter())
    }

    #[test]
    fn compile_rejects_unplannable_shapes() {
        let sig = sig();
        assert!(PremisePlan::compile(&parse_expr("R + S").unwrap(), &sig).is_none());
        assert!(PremisePlan::compile(&parse_expr("skolem:f[0](T)").unwrap(), &sig).is_none());
        // Head variable ranging over the active domain (no atom binds it).
        assert!(PremisePlan::compile(&parse_expr("T * D^1").unwrap(), &sig).is_none());
        assert!(PremisePlan::compile(&parse_expr("project[0](R)").unwrap(), &sig).is_some());
    }

    #[test]
    fn full_evaluation_matches_expression_semantics() {
        let sig = sig();
        let mut inst = Instance::new();
        inst.insert("R", tuple([1i64, 10]));
        inst.insert("R", tuple([2i64, 20]));
        inst.insert("S", tuple([10i64, 100]));
        let expr = parse_expr("project[0,3](select[#1 = #2](R * S))").unwrap();
        let plan = PremisePlan::compile(&expr, &sig).unwrap();
        assert_eq!(plan.relations(), &BTreeSet::from(["R".to_string(), "S".to_string()]));
        let full = index_of(&inst, &["R", "S"]);
        let out = plan.eval_full(&full, &mut WorkBudget::new(1000)).unwrap();
        assert_eq!(out, [tuple([1i64, 100])].into());
    }

    #[test]
    fn constants_and_repeated_variables_filter() {
        let sig = sig();
        let mut inst = Instance::new();
        inst.insert("R", tuple([5i64, 5]));
        inst.insert("R", tuple([5i64, 6]));
        inst.insert("R", tuple([7i64, 7]));
        let expr = parse_expr("project[0](select[#0 = #1 and #0 = 5](R))").unwrap();
        let plan = PremisePlan::compile(&expr, &sig).unwrap();
        let full = index_of(&inst, &["R"]);
        let out = plan.eval_full(&full, &mut WorkBudget::new(1000)).unwrap();
        assert_eq!(out, [tuple([5i64])].into());
    }

    #[test]
    fn delta_evaluation_finds_exactly_the_new_join_results() {
        let sig = sig();
        let mut old = Instance::new();
        old.insert("R", tuple([1i64, 10]));
        old.insert("S", tuple([10i64, 100]));
        let expr = parse_expr("project[0,3](select[#1 = #2](R * S))").unwrap();
        let plan = PremisePlan::compile(&expr, &sig).unwrap();

        // New tuples: one R row joining the old S row, and one S row joining
        // the new R row (a two-new-tuples join must also be found). The full
        // side holds the live state, delta rows included.
        let mut fresh = Instance::new();
        fresh.insert("R", tuple([2i64, 20]));
        fresh.insert("S", tuple([20i64, 200]));
        let delta = index_of(&fresh, &["R", "S"]);
        let names = ["R".to_string(), "S".to_string()];
        let full = TupleIndex::from_layers(&[&old, &fresh], names.iter());
        let out = plan.eval_delta(&full, &delta, &mut WorkBudget::new(1000)).unwrap();
        assert_eq!(out, [tuple([2i64, 200])].into());

        // No delta rows on premise relations: nothing new.
        let empty = TupleIndex::from_rows(BTreeMap::new());
        let out = plan.eval_delta(&full, &empty, &mut WorkBudget::new(1000)).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn greedy_order_starts_with_the_smaller_relation() {
        let sig = sig();
        let mut inst = Instance::new();
        for i in 0..50i64 {
            inst.insert("R", tuple([i, i]));
        }
        inst.insert("S", tuple([0i64, 0]));
        // Source order lists R before S; greedy must flip them.
        let expr = parse_expr("project[0,3](select[#1 = #2](R * S))").unwrap();
        let plan = PremisePlan::compile(&expr, &sig).unwrap();
        let full = index_of(&inst, &["R", "S"]);
        assert_eq!(plan.join_order(&full), vec![1, 0], "greedy starts at the small S");
        let greedy_out = plan.eval_full(&full, &mut WorkBudget::new(10_000)).unwrap();
        assert_eq!(greedy_out, [tuple([0i64, 0])].into());
    }

    #[test]
    fn greedy_order_charges_less_budget_on_skewed_joins() {
        let sig = sig();
        let mut inst = Instance::new();
        for i in 0..50i64 {
            inst.insert("R", tuple([i, i]));
        }
        inst.insert("S", tuple([0i64, 7]));
        let expr = parse_expr("project[0,3](select[#1 = #2](R * S))").unwrap();
        let full = index_of(&inst, &["R", "S"]);
        // Starting from the one-row S, the indexed probe into R touches one
        // binding row per stage; opening on R would scan all 50 rows first.
        let greedy = PremisePlan::compile(&expr, &sig).unwrap();
        assert!(greedy.eval_full(&full, &mut WorkBudget::new(4)).is_ok());
    }

    #[test]
    fn delta_evaluation_joins_new_rows_against_the_live_state() {
        let sig = sig();
        let mut old = Instance::new();
        for i in 0..20i64 {
            old.insert("R", tuple([i, i + 100]));
        }
        old.insert("S", tuple([100i64, 0]));
        let expr = parse_expr("project[0,3](select[#1 = #2](R * S))").unwrap();
        let mut fresh = Instance::new();
        fresh.insert("S", tuple([101i64, 1]));
        let delta = index_of(&fresh, &["S"]);
        let names = ["R".to_string(), "S".to_string()];
        let full = TupleIndex::from_layers(&[&old, &fresh], names.iter());
        let plan = PremisePlan::compile(&expr, &sig).unwrap();
        let out = plan.eval_delta(&full, &delta, &mut WorkBudget::new(1000)).unwrap();
        assert_eq!(out, [tuple([1i64, 1])].into());
    }

    #[test]
    fn identity_path_matches_the_general_join() {
        let sig = sig();
        let mut inst = Instance::new();
        for row in [[1i64, 1], [1, 2], [2, 1], [5, 5], [5, 6]] {
            inst.insert("R", tuple(row));
        }
        inst.insert("R", vec![Value::Null, Value::Int(3)]);
        let mut fresh = Instance::new();
        fresh.insert("R", tuple([7i64, 7]));
        fresh.insert("R", tuple([8i64, 5]));
        let delta = index_of(&fresh, &["R"]);
        let heads = [tuple([1i64, 2]), tuple([2i64, 2]), tuple([5i64, 5]), tuple([7i64, 7])];
        let null_head: Tuple = vec![Value::Null, Value::Int(3)].into();
        for (premise, identity, positions) in [
            ("R", true, false),
            ("R", true, true),
            ("project[0,1](R)", true, false),
            ("project[0,1](R)", true, true),
            ("project[1,0](R)", false, true),
            ("project[0,1](select[#0 = #1](R))", false, true),
            ("select[#0 = 5](R)", false, true),
        ] {
            let mut full = TupleIndex::from_layers(&[&inst, &fresh], ["R"]);
            if positions {
                // A live index builds its position map on first mutation.
                full.contains_row("R", &[]);
            }
            let shared = PremisePlan::compile(&parse_expr(premise).unwrap(), &sig).unwrap();
            assert_eq!(shared.identity, identity, "{premise}");
            let general = PremisePlan { identity: false, ..shared.clone() };
            let run = |plan: &PremisePlan| {
                let mut work = WorkBudget::new(1000);
                let full_out = plan.eval_full(&full, &mut work).unwrap();
                let delta_out = plan.eval_delta(&full, &delta, &mut work).unwrap();
                let supported: Vec<bool> = heads
                    .iter()
                    .chain([&null_head])
                    .map(|head| plan.supports(&full, head, &mut work).unwrap())
                    .collect();
                (full_out, delta_out, supported, work.used())
            };
            let shared_out = run(&shared);
            if identity && positions {
                // Support checks answered from the position map: no index
                // keyed on every column was built.
                assert!(full.indexes.borrow().is_empty(), "{premise}");
            }
            let general_out = run(&general);
            assert_eq!(shared_out, general_out, "{premise}");
            if identity {
                // The identity path yields the index's own rows.
                for row in shared_out.0.iter() {
                    let held = full.scan("R").iter().find(|held| *held == row).unwrap();
                    assert!(Arc::ptr_eq(held, row), "{premise}: {row:?} is a copy");
                }
            }
        }
    }

    #[test]
    fn work_budget_bounds_join_rows() {
        let sig = sig();
        let mut inst = Instance::new();
        for i in 0..20i64 {
            inst.insert("R", tuple([i, i]));
            inst.insert("S", tuple([i, i]));
        }
        // Unconstrained product: 400 binding rows.
        let expr = Expr::rel("R").product(Expr::rel("S")).select(Pred::True);
        let plan = PremisePlan::compile(&expr, &sig).unwrap();
        let full = index_of(&inst, &["R", "S"]);
        let result = plan.eval_full(&full, &mut WorkBudget::new(100));
        assert!(matches!(result, Err(AlgebraError::EvalBudgetExceeded { budget: 100 })));
    }
}
