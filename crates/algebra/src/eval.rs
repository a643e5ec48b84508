//! Set-semantics evaluation of expressions over instances.
//!
//! Evaluation implements the "standard set semantics" of paper §2 and is used
//! by constraint satisfaction, the bounded-model equivalence checker, and the
//! data-migration examples.
//!
//! Two production concerns shape the implementation beyond the textbook
//! semantics:
//!
//! * **Tuple budgets** ([`Evaluator::with_budget`]): active-domain powers and
//!   products grow combinatorially, so long-running callers bound the number
//!   of materialised tuples. User-defined operators participate through the
//!   budgeted [`RowSink`] interface — they are charged per emitted row, so an
//!   expansive operator fails fast at the budget instead of after building
//!   its whole output.
//! * **Indexed joins**: a selection over a product tree whose predicate
//!   contains cross-factor column equalities (the shape conjunctive bodies
//!   compile to) is evaluated as a hash join instead of materialising the
//!   full product. The budget is still charged as if the product had been
//!   materialised, so budget-driven control flow (which rules the chase
//!   engine skips) is identical to the naive evaluator's — only the wall
//!   clock and the memory high-water mark improve.

use std::cell::Cell;
use std::collections::{BTreeSet, HashMap};

use crate::error::AlgebraError;
use crate::expr::Expr;
use crate::instance::{Instance, Relation, RelationSource};
use crate::ops::{OperatorSet, RowSink};
use crate::pred::{CmpOp, Operand, Pred};
use crate::signature::Signature;
use crate::value::{Tuple, Value};

/// Evaluation context: the instance (or layered view) plus the signature and
/// operator set needed to resolve arities and user-defined operators.
pub struct Evaluator<'a, S: RelationSource = Instance> {
    sig: &'a Signature,
    ops: &'a OperatorSet,
    instance: &'a S,
    active_domain: Vec<Value>,
    /// Optional cap on materialised tuples across the whole evaluation.
    budget: Option<usize>,
    used: Cell<usize>,
}

impl<'a, S: RelationSource> Evaluator<'a, S> {
    /// Create an evaluator for one instance.
    pub fn new(sig: &'a Signature, ops: &'a OperatorSet, instance: &'a S) -> Self {
        let active_domain = instance.domain_values().into_iter().collect();
        Evaluator { sig, ops, instance, active_domain, budget: None, used: Cell::new(0) }
    }

    /// Create an evaluator that fails with
    /// [`AlgebraError::EvalBudgetExceeded`] once more than `budget` tuples
    /// have been materialised. Active-domain powers (`D^r`) and products grow
    /// combinatorially with the instance, so long-running callers (the chase
    /// engine, bulk verification) use this to bound work instead of
    /// exhausting memory. User-defined operators are charged per row as they
    /// emit through their [`RowSink`].
    pub fn with_budget(
        sig: &'a Signature,
        ops: &'a OperatorSet,
        instance: &'a S,
        budget: usize,
    ) -> Self {
        let mut evaluator = Evaluator::new(sig, ops, instance);
        evaluator.budget = Some(budget);
        evaluator
    }

    /// Create an evaluator from a precomputed active domain. Callers that
    /// evaluate many expressions over an incrementally growing instance (the
    /// chase engine) maintain the domain themselves instead of rescanning
    /// every value on each construction.
    pub fn with_parts(
        sig: &'a Signature,
        ops: &'a OperatorSet,
        instance: &'a S,
        active_domain: Vec<Value>,
        budget: Option<usize>,
    ) -> Self {
        Evaluator { sig, ops, instance, active_domain, budget, used: Cell::new(0) }
    }

    /// Tuples materialised so far (only tracked when a budget is set).
    pub fn tuples_used(&self) -> usize {
        self.used.get()
    }

    fn charge(&self, amount: usize) -> Result<(), AlgebraError> {
        if let Some(budget) = self.budget {
            let used = self.used.get().saturating_add(amount);
            self.used.set(used);
            if used > budget {
                return Err(AlgebraError::EvalBudgetExceeded { budget });
            }
        }
        Ok(())
    }

    /// The active domain used for `D^r`.
    pub fn active_domain(&self) -> &[Value] {
        &self.active_domain
    }

    /// Evaluate an expression to a relation.
    pub fn eval(&self, expr: &Expr) -> Result<Relation, AlgebraError> {
        match expr {
            Expr::Rel(name) => {
                // Unknown symbols are an error so that typos surface early.
                self.sig.arity(name)?;
                let relation = self.instance.relation(name);
                self.charge(relation.len())?;
                Ok(relation)
            }
            Expr::Domain(r) => self.domain_power(*r),
            Expr::Empty(_) => Ok(Relation::new()),
            Expr::Union(a, b) => {
                self.check_equal_arity(expr, a, b)?;
                Ok(self.eval(a)?.union(&self.eval(b)?))
            }
            Expr::Intersect(a, b) => {
                self.check_equal_arity(expr, a, b)?;
                Ok(self.eval(a)?.intersect(&self.eval(b)?))
            }
            Expr::Difference(a, b) => {
                self.check_equal_arity(expr, a, b)?;
                Ok(self.eval(a)?.difference(&self.eval(b)?))
            }
            Expr::Product(a, b) => {
                let left = self.eval(a)?;
                let right = self.eval(b)?;
                let mut out = Relation::new();
                for lt in left.iter() {
                    self.charge(right.len())?;
                    for rt in right.iter() {
                        out.insert(lt.iter().chain(rt.iter()).cloned().collect::<Tuple>());
                    }
                }
                Ok(out)
            }
            Expr::Project(cols, inner) => {
                let arity = inner.arity(self.sig, self.ops)?;
                for &c in cols {
                    if c >= arity {
                        return Err(AlgebraError::ColumnOutOfRange { column: c, arity });
                    }
                }
                let rel = self.eval(inner)?;
                let mut out = Relation::new();
                for t in rel.iter() {
                    out.insert(cols.iter().map(|&c| t[c].clone()).collect::<Tuple>());
                }
                Ok(out)
            }
            Expr::Select(pred, inner) => {
                if let Some(joined) = self.try_indexed_join(pred, inner)? {
                    return Ok(joined);
                }
                let rel = self.eval(inner)?;
                Ok(rel.iter().filter(|t| pred.eval(t)).cloned().collect())
            }
            Expr::Skolem(f, _) => Err(AlgebraError::SkolemNotEvaluable(f.name.clone())),
            Expr::Apply(name, args) => {
                let def = self
                    .ops
                    .get(name)
                    .ok_or_else(|| AlgebraError::UnknownOperator(name.clone()))?;
                let eval_fn = def
                    .eval
                    .clone()
                    .ok_or_else(|| AlgebraError::OperatorNotEvaluable(name.clone()))?;
                let arities = args
                    .iter()
                    .map(|arg| arg.arity(self.sig, self.ops))
                    .collect::<Result<Vec<_>, _>>()?;
                let rels = args.iter().map(|arg| self.eval(arg)).collect::<Result<Vec<_>, _>>()?;
                let mut sink = match self.budget {
                    Some(budget) => RowSink::with_meter(&self.used, budget),
                    None => RowSink::unbudgeted(),
                };
                eval_fn(&rels, &arities, &mut sink)?;
                Ok(sink.into_relation())
            }
        }
    }

    /// Hash-join fast path for `σ_pred(E1 × E2 × … × Ek)` where `pred`
    /// contains at least one cross-factor column equality: evaluate the
    /// factors, then combine them left to right probing a hash index per
    /// factor instead of materialising the full product. Returns `Ok(None)`
    /// when the shape does not apply (the caller falls back to
    /// filter-after-materialise).
    ///
    /// The budget is charged exactly as the naive product evaluation would
    /// charge it (the running product of factor cardinalities), so which
    /// evaluations exceed a given budget is unchanged.
    fn try_indexed_join(
        &self,
        pred: &Pred,
        inner: &Expr,
    ) -> Result<Option<Relation>, AlgebraError> {
        let mut factors: Vec<&Expr> = Vec::new();
        flatten_product(inner, &mut factors);
        if factors.len() < 2 {
            return Ok(None);
        }
        let arities =
            factors.iter().map(|f| f.arity(self.sig, self.ops)).collect::<Result<Vec<_>, _>>()?;
        let mut offsets = Vec::with_capacity(arities.len());
        let mut width = 0usize;
        for arity in &arities {
            offsets.push(width);
            width += arity;
        }
        let conjuncts = pred.conjuncts();
        // Every conjunct must be in range, otherwise the naive path's
        // out-of-range-is-false semantics would be lost.
        if conjuncts.iter().any(|c| c.max_column().is_some_and(|col| col >= width)) {
            return Ok(None);
        }
        let factor_of = |col: usize| offsets.iter().rposition(|&offset| offset <= col).unwrap_or(0);
        // Cross-factor column equalities drive the join; everything else is
        // applied as a residual filter once its columns are available.
        let has_join_key = conjuncts.iter().any(|conjunct| {
            matches!(
                conjunct,
                Pred::Cmp(Operand::Col(l), CmpOp::Eq, Operand::Col(r))
                    if factor_of(*l) != factor_of(*r)
            )
        });
        if !has_join_key {
            return Ok(None);
        }

        let rels = factors.iter().map(|f| self.eval(f)).collect::<Result<Vec<_>, _>>()?;
        // Ragged rows (length ≠ declared arity) shift later factors' columns
        // in the concatenated product; only materialise-then-filter
        // reproduces that faithfully, so fall back for such degenerate data
        // (re-evaluating the factors; the duplicated leaf charge only
        // affects this out-of-contract shape).
        if rels.iter().zip(&arities).any(|(rel, &arity)| rel.iter().any(|t| t.len() != arity)) {
            return Ok(None);
        }
        // Charge exactly what evaluating the product tree naively would
        // charge: one |left|·|right| charge per Product node, whatever the
        // tree shape.
        self.charge_product_nodes(inner, &rels, &mut 0)?;

        let applicable = |conjunct: &Pred, upto: usize| match conjunct.max_column() {
            Some(col) => col < upto,
            None => true,
        };
        let mut applied = vec![false; conjuncts.len()];
        let mut rows: Vec<Tuple> = rels[0].iter().cloned().collect();
        let mut bound = arities[0];
        for (index, conjunct) in conjuncts.iter().enumerate() {
            if applicable(conjunct, bound) {
                applied[index] = true;
                rows.retain(|row| conjunct.eval(row));
            }
        }
        for (factor, rel) in rels.iter().enumerate().skip(1) {
            // Join keys: equalities between an already-bound column and a
            // column of this factor.
            let mut left_keys: Vec<usize> = Vec::new();
            let mut right_keys: Vec<usize> = Vec::new();
            for (index, conjunct) in conjuncts.iter().enumerate() {
                if applied[index] {
                    continue;
                }
                if let Pred::Cmp(Operand::Col(a), CmpOp::Eq, Operand::Col(b)) = conjunct {
                    let (lo, hi) = (*a.min(b), *a.max(b));
                    if hi >= offsets[factor] && hi < offsets[factor] + arities[factor] && lo < bound
                    {
                        applied[index] = true;
                        left_keys.push(lo);
                        right_keys.push(hi - offsets[factor]);
                    }
                }
            }
            let mut next: Vec<Tuple> = Vec::new();
            if left_keys.is_empty() {
                for row in &rows {
                    for tuple in rel.iter() {
                        next.push(row.iter().chain(tuple.iter()).cloned().collect());
                    }
                }
            } else {
                let mut index: HashMap<Vec<Value>, Vec<&Tuple>> = HashMap::new();
                for tuple in rel.iter() {
                    let key: Vec<Value> = right_keys.iter().map(|&c| tuple[c].clone()).collect();
                    index.entry(key).or_default().push(tuple);
                }
                for row in &rows {
                    let key: Vec<Value> = left_keys.iter().map(|&c| row[c].clone()).collect();
                    // Join keys compare with `=`, whose null semantics reject
                    // null = null; a hash probe would accept it.
                    if key.iter().any(Value::is_null) {
                        continue;
                    }
                    if let Some(matches) = index.get(&key) {
                        for tuple in matches {
                            next.push(row.iter().chain(tuple.iter()).cloned().collect());
                        }
                    }
                }
            }
            bound += arities[factor];
            rows = next;
            for (index, conjunct) in conjuncts.iter().enumerate() {
                if !applied[index] && applicable(conjunct, bound) {
                    applied[index] = true;
                    rows.retain(|row| conjunct.eval(row));
                }
            }
            if rows.is_empty() {
                break;
            }
        }
        Ok(Some(rows.into_iter().collect()))
    }

    /// Walk a product tree charging each node's naive materialisation cost
    /// (`|left| · |right|`), reading leaf cardinalities from `rels` in
    /// flatten order. Returns the subtree's cardinality.
    fn charge_product_nodes(
        &self,
        expr: &Expr,
        rels: &[Relation],
        next: &mut usize,
    ) -> Result<usize, AlgebraError> {
        match expr {
            Expr::Product(a, b) => {
                let left = self.charge_product_nodes(a, rels, next)?;
                let right = self.charge_product_nodes(b, rels, next)?;
                let size = left.saturating_mul(right);
                self.charge(size)?;
                Ok(size)
            }
            _ => {
                let size = rels[*next].len();
                *next += 1;
                Ok(size)
            }
        }
    }

    fn check_equal_arity(&self, parent: &Expr, a: &Expr, b: &Expr) -> Result<(), AlgebraError> {
        let left = a.arity(self.sig, self.ops)?;
        let right = b.arity(self.sig, self.ops)?;
        if left != right {
            return Err(AlgebraError::BinaryArityMismatch {
                op: parent.operator_name(),
                left,
                right,
            });
        }
        Ok(())
    }

    fn domain_power(&self, r: usize) -> Result<Relation, AlgebraError> {
        let mut tuples: BTreeSet<Vec<Value>> = BTreeSet::new();
        tuples.insert(Vec::new());
        for _ in 0..r {
            let mut next = BTreeSet::new();
            self.charge(tuples.len().saturating_mul(self.active_domain.len()))?;
            for t in &tuples {
                for v in &self.active_domain {
                    let mut extended = t.clone();
                    extended.push(v.clone());
                    next.insert(extended);
                }
            }
            tuples = next;
        }
        if r > 0 && self.active_domain.is_empty() {
            return Ok(Relation::new());
        }
        Ok(tuples.into_iter().filter(|t| t.len() == r).map(Tuple::from).collect())
    }
}

fn flatten_product<'e>(expr: &'e Expr, out: &mut Vec<&'e Expr>) {
    match expr {
        Expr::Product(a, b) => {
            flatten_product(a, out);
            flatten_product(b, out);
        }
        other => out.push(other),
    }
}

/// Convenience wrapper: evaluate one expression over an instance.
pub fn eval(
    expr: &Expr,
    sig: &Signature,
    ops: &OperatorSet,
    instance: &Instance,
) -> Result<Relation, AlgebraError> {
    Evaluator::new(sig, ops, instance).eval(expr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::DeltaInstance;
    use crate::ops::OperatorDef;
    use crate::pred::Pred;
    use crate::value::tuple;

    fn setup() -> (Signature, OperatorSet, Instance) {
        let sig = Signature::from_arities([("R", 2), ("S", 2), ("U", 1)]);
        let ops = OperatorSet::new();
        let mut inst = Instance::new();
        inst.insert("R", tuple([1i64, 10]));
        inst.insert("R", tuple([2i64, 20]));
        inst.insert("S", tuple([2i64, 20]));
        inst.insert("S", tuple([3i64, 30]));
        inst.insert("U", tuple([1i64]));
        (sig, ops, inst)
    }

    #[test]
    fn basic_set_operators() {
        let (sig, ops, inst) = setup();
        let ev = Evaluator::new(&sig, &ops, &inst);
        assert_eq!(ev.eval(&Expr::rel("R").union(Expr::rel("S"))).unwrap().len(), 3);
        assert_eq!(ev.eval(&Expr::rel("R").intersect(Expr::rel("S"))).unwrap().len(), 1);
        assert_eq!(ev.eval(&Expr::rel("R").difference(Expr::rel("S"))).unwrap().len(), 1);
    }

    #[test]
    fn product_project_select() {
        let (sig, ops, inst) = setup();
        let ev = Evaluator::new(&sig, &ops, &inst);
        let prod = ev.eval(&Expr::rel("R").product(Expr::rel("U"))).unwrap();
        assert_eq!(prod.len(), 2);
        assert!(prod.contains(&tuple([1i64, 10, 1])));

        let proj = ev.eval(&Expr::rel("R").project(vec![1])).unwrap();
        assert_eq!(proj.len(), 2);
        assert!(proj.contains(&tuple([10i64])));

        let dup = ev.eval(&Expr::rel("U").project(vec![0, 0])).unwrap();
        assert!(dup.contains(&tuple([1i64, 1])));

        let sel = ev.eval(&Expr::rel("R").select(Pred::eq_const(0, 2))).unwrap();
        assert_eq!(sel.len(), 1);
        assert!(sel.contains(&tuple([2i64, 20])));
    }

    #[test]
    fn domain_and_empty() {
        let (sig, ops, inst) = setup();
        let ev = Evaluator::new(&sig, &ops, &inst);
        // Active domain = {1,2,3,10,20,30}.
        assert_eq!(ev.eval(&Expr::domain(1)).unwrap().len(), 6);
        assert_eq!(ev.eval(&Expr::domain(2)).unwrap().len(), 36);
        assert!(ev.eval(&Expr::empty(3)).unwrap().is_empty());
    }

    #[test]
    fn domain_of_empty_instance_is_empty() {
        let sig = Signature::from_arities([("R", 1)]);
        let ops = OperatorSet::new();
        let inst = Instance::new();
        let ev = Evaluator::new(&sig, &ops, &inst);
        assert!(ev.eval(&Expr::domain(2)).unwrap().is_empty());
    }

    #[test]
    fn skolem_and_unknown_operator_fail() {
        let (sig, ops, inst) = setup();
        let ev = Evaluator::new(&sig, &ops, &inst);
        let sk = Expr::rel("U").skolem(crate::expr::SkolemFn::new("f", vec![0]));
        assert!(matches!(ev.eval(&sk), Err(AlgebraError::SkolemNotEvaluable(_))));
        let unknown = Expr::apply("mystery", vec![Expr::rel("U")]);
        assert!(matches!(ev.eval(&unknown), Err(AlgebraError::UnknownOperator(_))));
    }

    #[test]
    fn user_operator_evaluation() {
        let (sig, mut ops, inst) = setup();
        // "swap": reverse the two columns of a binary relation.
        ops.register(OperatorDef::new("swap", 1, |a| (a == [2]).then_some(2)).with_eval(
            |rels, _, sink| {
                for t in rels[0].iter() {
                    sink.push(vec![t[1].clone(), t[0].clone()])?;
                }
                Ok(())
            },
        ));
        let ev = Evaluator::new(&sig, &ops, &inst);
        let out = ev.eval(&Expr::apply("swap", vec![Expr::rel("R")])).unwrap();
        assert!(out.contains(&tuple([10i64, 1])));
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn join_on_semantics() {
        let (sig, ops, inst) = setup();
        let ev = Evaluator::new(&sig, &ops, &inst);
        let join = Expr::rel("R").join_on(Expr::rel("S"), &[(0, 0), (1, 1)], 2, 2);
        let out = ev.eval(&join).unwrap();
        assert_eq!(out.len(), 1);
        assert!(out.contains(&tuple([2i64, 20])));
    }

    #[test]
    fn indexed_join_matches_naive_filtering() {
        let (sig, ops, inst) = setup();
        let ev = Evaluator::new(&sig, &ops, &inst);
        // Join R and S on the first column, with a residual constant filter;
        // the fast path must agree with filter-after-product semantics.
        let pred = Pred::eq_cols(0, 2).and(Pred::eq_const(1, 20));
        let fused = Expr::rel("R").product(Expr::rel("S")).select(pred.clone());
        let out = ev.eval(&fused).unwrap();
        let naive: Relation = {
            let prod = ev.eval(&Expr::rel("R").product(Expr::rel("S"))).unwrap();
            prod.iter().filter(|t| pred.eval(t)).cloned().collect()
        };
        assert_eq!(out, naive);
        assert_eq!(out.len(), 1);
        assert!(out.contains(&tuple([2i64, 20, 2, 20])));

        // Three-way join over a product tree.
        let three = Expr::rel("R")
            .product(Expr::rel("S"))
            .product(Expr::rel("U"))
            .select(Pred::eq_cols(0, 2).and(Pred::eq_cols(0, 4)));
        assert!(ev.eval(&three).unwrap().is_empty());
    }

    #[test]
    fn indexed_join_charges_like_the_naive_product() {
        let (sig, ops, inst) = setup();
        let joined = Expr::rel("R").product(Expr::rel("S")).select(Pred::eq_cols(0, 2));
        // Naive accounting: |R| + |S| + |R|·|S| = 8 tuples; a budget of 8
        // admits the join, 7 refuses it even though the output is 1 row.
        let ev = Evaluator::with_budget(&sig, &ops, &inst, 8);
        assert_eq!(ev.eval(&joined).unwrap().len(), 1);
        assert_eq!(ev.tuples_used(), 8);
        let ev = Evaluator::with_budget(&sig, &ops, &inst, 7);
        assert_eq!(ev.eval(&joined), Err(AlgebraError::EvalBudgetExceeded { budget: 7 }));
    }

    #[test]
    fn indexed_join_charges_bushy_trees_like_the_naive_cascade() {
        // σ over a bushy product (R×S)×(R×S): naive charging is per Product
        // node — |R||S| + |R||S| + |RS||RS| = 4 + 4 + 16 = 24, plus the four
        // leaf evaluations (2 each) = 32 total. The fast path must agree.
        let (sig, ops, inst) = setup();
        let pair = || Expr::rel("R").product(Expr::rel("S"));
        let bushy = pair().product(pair()).select(Pred::eq_cols(0, 4));
        let ev = Evaluator::with_budget(&sig, &ops, &inst, 1_000);
        let fast = ev.eval(&bushy).unwrap();
        assert_eq!(ev.tuples_used(), 32);
        // Same budget boundary as the naive cascade: 32 succeeds, 31 fails.
        let ev = Evaluator::with_budget(&sig, &ops, &inst, 31);
        assert_eq!(ev.eval(&bushy), Err(AlgebraError::EvalBudgetExceeded { budget: 31 }));
        // And the result matches filter-after-materialise.
        let ev = Evaluator::new(&sig, &ops, &inst);
        let naive: Relation = {
            let prod = ev.eval(&pair().product(pair())).unwrap();
            prod.iter().filter(|t| Pred::eq_cols(0, 4).eval(t)).cloned().collect()
        };
        assert_eq!(fast, naive);
    }

    #[test]
    fn ragged_rows_fall_back_without_panicking() {
        // A row shorter than the declared arity must not panic the indexed
        // join; the naive filter-after-product semantics apply instead.
        let (sig, ops, mut inst) = setup();
        inst.insert("R", tuple([99i64]));
        let ev = Evaluator::new(&sig, &ops, &inst);
        let joined = Expr::rel("R").product(Expr::rel("S")).select(Pred::eq_cols(1, 2));
        let fast = ev.eval(&joined).unwrap();
        let naive: Relation = {
            let prod = ev.eval(&Expr::rel("R").product(Expr::rel("S"))).unwrap();
            prod.iter().filter(|t| Pred::eq_cols(1, 2).eval(t)).cloned().collect()
        };
        assert_eq!(fast, naive);
    }

    #[test]
    fn layered_view_evaluates_like_the_merged_instance() {
        let (sig, ops, inst) = setup();
        let mut overlay = Instance::new();
        overlay.insert("S", tuple([1i64, 10]));
        let view = DeltaInstance::new(&inst, &overlay);
        let merged = inst.merge(&overlay);
        let expr = Expr::rel("R").product(Expr::rel("S")).select(Pred::eq_cols(0, 2));
        let from_view = Evaluator::new(&sig, &ops, &view).eval(&expr).unwrap();
        let from_merge = Evaluator::new(&sig, &ops, &merged).eval(&expr).unwrap();
        assert_eq!(from_view, from_merge);
        assert_eq!(from_view.len(), 2);
    }

    #[test]
    fn budget_stops_combinatorial_blowup() {
        let (sig, ops, inst) = setup();
        // D^3 over a 6-value active domain is 216 tuples; a budget of 50
        // must refuse it without materialising the power set.
        let ev = Evaluator::with_budget(&sig, &ops, &inst, 50);
        assert_eq!(ev.eval(&Expr::domain(3)), Err(AlgebraError::EvalBudgetExceeded { budget: 50 }));
        // Small evaluations under the same budget still succeed.
        let ev = Evaluator::with_budget(&sig, &ops, &inst, 50);
        assert_eq!(ev.eval(&Expr::rel("R")).unwrap().len(), 2);
        assert!(ev.tuples_used() >= 2);
        // Products are charged per output row.
        let ev = Evaluator::with_budget(&sig, &ops, &inst, 5);
        assert!(ev.eval(&Expr::rel("R").product(Expr::rel("S"))).is_err());
    }

    #[test]
    fn apply_budget_fails_fast_during_materialisation() {
        let (sig, mut ops, inst) = setup();
        // A deliberately expansive operator: the cross square of its input
        // (quadratic, like transitive closure on a dense graph).
        ops.register(OperatorDef::new("square", 1, |a| (a == [2]).then_some(2)).with_eval(
            |rels, _, sink| {
                for a in rels[0].iter() {
                    for b in rels[0].iter() {
                        sink.push(vec![a[0].clone(), b[1].clone()])?;
                    }
                }
                Ok(())
            },
        ));
        // Populate R with enough rows that the square (100 rows) dwarfs the
        // budget.
        let mut big = inst.clone();
        for i in 0..10i64 {
            big.insert("R", tuple([100 + i, 200 + i]));
        }
        let ev = Evaluator::with_budget(&sig, &ops, &big, 20);
        let expr = Expr::apply("square", vec![Expr::rel("R")]);
        assert!(matches!(ev.eval(&expr), Err(AlgebraError::EvalBudgetExceeded { budget: 20 })));
        // The regression: before the sink interface the operator materialised
        // its full output (≥ 144 rows) before the charge; now evaluation
        // stops within one row of the budget.
        assert!(
            ev.tuples_used() <= 21,
            "operator overshot the budget: {} tuples materialised",
            ev.tuples_used()
        );
    }

    #[test]
    fn arity_errors_propagate() {
        let (sig, ops, inst) = setup();
        let ev = Evaluator::new(&sig, &ops, &inst);
        assert!(ev.eval(&Expr::rel("R").union(Expr::rel("U"))).is_err());
        assert!(ev.eval(&Expr::rel("R").project(vec![9])).is_err());
        assert!(ev.eval(&Expr::rel("Nope")).is_err());
    }
}
