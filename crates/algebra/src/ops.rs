//! User-defined operator support.
//!
//! Paper §2: "We also allow for user-defined operators to appear in
//! expressions. The basic operators should therefore be considered as those
//! which have 'built-in' support, but they are not the only operators
//! supported."
//!
//! The algebra crate records only what is needed to *type* and *evaluate* an
//! operator; composition-specific knowledge (monotonicity tables,
//! normalization and simplification rules, §3.3–§3.5) is layered on top by
//! the `mapcomp-compose` crate, keyed by operator name.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use crate::error::AlgebraError;
use crate::instance::Relation;
use crate::value::Tuple;

/// Computes the output arity of an operator from its argument arities, or
/// `None` if the argument arities are invalid for the operator.
pub type ArityFn = Arc<dyn Fn(&[usize]) -> Option<usize> + Send + Sync>;

/// A budgeted output sink for operator evaluators.
///
/// Operators emit rows through [`RowSink::push`] instead of returning a
/// materialised relation, so the evaluator's tuple budget is charged *as rows
/// are produced*: an expansive operator (transitive closure is quadratic in
/// its input) fails at the budget boundary rather than after materialising
/// its whole output. Iterative operators may read back what they have emitted
/// so far via [`RowSink::relation`].
pub struct RowSink<'a> {
    out: Relation,
    /// Shared materialisation counter and budget of the driving evaluator
    /// (absent for unbudgeted evaluation).
    meter: Option<(&'a Cell<usize>, usize)>,
}

impl<'a> RowSink<'a> {
    /// A sink with no budget (used by direct operator invocation in tests
    /// and by unbudgeted evaluators).
    pub fn unbudgeted() -> RowSink<'static> {
        RowSink { out: Relation::new(), meter: None }
    }

    /// A sink charging each newly inserted row against a shared counter;
    /// `push` fails once the counter exceeds `budget`.
    pub fn with_meter(used: &'a Cell<usize>, budget: usize) -> Self {
        RowSink { out: Relation::new(), meter: Some((used, budget)) }
    }

    /// Emit one output row. Returns whether the row was new (set semantics),
    /// or [`AlgebraError::EvalBudgetExceeded`] if this row pushed the
    /// evaluation over its tuple budget.
    pub fn push(&mut self, tuple: impl Into<Tuple>) -> Result<bool, AlgebraError> {
        if !self.out.insert(tuple) {
            return Ok(false);
        }
        if let Some((used, budget)) = self.meter {
            let total = used.get().saturating_add(1);
            used.set(total);
            if total > budget {
                return Err(AlgebraError::EvalBudgetExceeded { budget });
            }
        }
        Ok(true)
    }

    /// The rows emitted so far (for iterative operators such as `tc`).
    pub fn relation(&self) -> &Relation {
        &self.out
    }

    /// Consume the sink, yielding the emitted relation.
    pub fn into_relation(self) -> Relation {
        self.out
    }
}

/// Evaluates an operator over already-evaluated argument relations, emitting
/// output rows through a budgeted [`RowSink`]. Receives the argument
/// relations together with their arities.
pub type EvalFn =
    Arc<dyn Fn(&[Relation], &[usize], &mut RowSink<'_>) -> Result<(), AlgebraError> + Send + Sync>;

/// Definition of one user-defined operator.
#[derive(Clone)]
pub struct OperatorDef {
    /// Operator name as used in expressions and the textual format.
    pub name: String,
    /// Number of expression arguments the operator takes.
    pub param_count: usize,
    /// Output arity as a function of argument arities.
    pub arity: ArityFn,
    /// Optional evaluator; operators without one can still flow through the
    /// composition algorithm (which tolerates unknown operators) but cannot
    /// be evaluated on instances.
    pub eval: Option<EvalFn>,
}

impl fmt::Debug for OperatorDef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OperatorDef")
            .field("name", &self.name)
            .field("param_count", &self.param_count)
            .field("has_eval", &self.eval.is_some())
            .finish()
    }
}

impl OperatorDef {
    /// Create an operator definition with the given arity function.
    pub fn new(
        name: impl Into<String>,
        param_count: usize,
        arity: impl Fn(&[usize]) -> Option<usize> + Send + Sync + 'static,
    ) -> Self {
        OperatorDef { name: name.into(), param_count, arity: Arc::new(arity), eval: None }
    }

    /// Attach an evaluator that emits rows through a budgeted [`RowSink`].
    pub fn with_eval(
        mut self,
        eval: impl Fn(&[Relation], &[usize], &mut RowSink<'_>) -> Result<(), AlgebraError>
            + Send
            + Sync
            + 'static,
    ) -> Self {
        self.eval = Some(Arc::new(eval));
        self
    }

    /// Attach an evaluator given as a plain `relations -> relation` function.
    /// The output is routed through the sink after the fact, so budget
    /// overshoot is only detected post-materialisation — prefer
    /// [`OperatorDef::with_eval`] for operators whose output can be large.
    pub fn with_simple_eval(
        self,
        eval: impl Fn(&[Relation], &[usize]) -> Relation + Send + Sync + 'static,
    ) -> Self {
        self.with_eval(move |rels, arities, sink| {
            for tuple in eval(rels, arities) {
                sink.push(tuple)?;
            }
            Ok(())
        })
    }
}

/// A set of user-defined operators, keyed by name.
#[derive(Debug, Clone, Default)]
pub struct OperatorSet {
    ops: BTreeMap<String, OperatorDef>,
}

impl OperatorSet {
    /// The empty operator set (only the six basic operators are available).
    pub fn new() -> Self {
        OperatorSet::default()
    }

    /// Register an operator. Replaces any previous definition of the same
    /// name.
    pub fn register(&mut self, def: OperatorDef) -> &mut Self {
        self.ops.insert(def.name.clone(), def);
        self
    }

    /// Look up an operator definition.
    pub fn get(&self, name: &str) -> Option<&OperatorDef> {
        self.ops.get(name)
    }

    /// Is the operator registered?
    pub fn contains(&self, name: &str) -> bool {
        self.ops.contains_key(name)
    }

    /// Names of all registered operators, sorted.
    pub fn names(&self) -> Vec<String> {
        self.ops.keys().cloned().collect()
    }

    /// Number of registered operators.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if no operators are registered.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Output arity of `name` for the given argument arities.
    pub fn arity(&self, name: &str, args: &[usize]) -> Result<usize, AlgebraError> {
        let def =
            self.ops.get(name).ok_or_else(|| AlgebraError::UnknownOperator(name.to_string()))?;
        if def.param_count != args.len() {
            return Err(AlgebraError::OperatorArity { op: name.to_string(), args: args.to_vec() });
        }
        (def.arity)(args).ok_or_else(|| AlgebraError::OperatorArity {
            op: name.to_string(),
            args: args.to_vec(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::tuple;
    use std::collections::BTreeSet;

    #[test]
    fn register_and_type_operator() {
        let mut ops = OperatorSet::new();
        ops.register(OperatorDef::new("tc", 1, |args| (args == [2]).then_some(2)));
        assert!(ops.contains("tc"));
        assert_eq!(ops.arity("tc", &[2]).unwrap(), 2);
        assert!(ops.arity("tc", &[3]).is_err());
        assert!(ops.arity("tc", &[2, 2]).is_err());
        assert!(ops.arity("nope", &[2]).is_err());
    }

    #[test]
    fn operator_with_eval() {
        let mut ops = OperatorSet::new();
        ops.register(
            OperatorDef::new("first", 2, |args| args.first().copied())
                .with_simple_eval(|rels, _| rels.first().cloned().unwrap_or_default()),
        );
        let def = ops.get("first").unwrap();
        let rel: Relation = [tuple([1i64])].into_iter().collect::<BTreeSet<_>>().into();
        let mut sink = RowSink::unbudgeted();
        (def.eval.as_ref().unwrap())(&[rel.clone(), Relation::default()], &[1, 1], &mut sink)
            .unwrap();
        assert_eq!(sink.into_relation(), rel);
        assert_eq!(ops.names(), vec!["first".to_string()]);
        assert_eq!(ops.len(), 1);
        assert!(!ops.is_empty());
    }

    #[test]
    fn sink_charges_only_new_rows_and_stops_at_the_budget() {
        let used = Cell::new(0usize);
        let mut sink = RowSink::with_meter(&used, 2);
        assert!(sink.push(tuple([1i64])).unwrap());
        assert!(!sink.push(tuple([1i64])).unwrap(), "duplicate rows are free");
        assert!(sink.push(tuple([2i64])).unwrap());
        assert_eq!(used.get(), 2);
        assert!(matches!(
            sink.push(tuple([3i64])),
            Err(AlgebraError::EvalBudgetExceeded { budget: 2 })
        ));
        assert_eq!(sink.relation().len(), 3, "the overflowing row is still visible to the caller");
    }
}
