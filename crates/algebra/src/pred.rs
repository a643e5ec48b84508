//! Selection predicates.
//!
//! Paper §2: the selection operator `σ_c(E)` takes "an arbitrary boolean
//! formula on attributes (identified by index) and constants". Predicates are
//! boolean combinations of comparisons between columns and constants.

use std::collections::BTreeSet;
use std::fmt;

use crate::value::Value;

/// One side of a comparison: a column (by index) or a constant.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Operand {
    /// Attribute at the given 0-based position.
    Col(usize),
    /// Constant value.
    Const(Value),
}

impl Operand {
    fn eval<'a>(&'a self, tuple: &'a [Value]) -> Option<&'a Value> {
        match self {
            Operand::Col(i) => tuple.get(*i),
            Operand::Const(v) => Some(v),
        }
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Col(i) => write!(f, "#{i}"),
            Operand::Const(v) => write!(f, "{v}"),
        }
    }
}

/// Comparison operators usable in selection predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Apply the comparison. Any comparison involving `Null` is false,
    /// mirroring SQL three-valued logic collapsed to two values.
    pub fn apply(self, left: &Value, right: &Value) -> bool {
        if left.is_null() || right.is_null() {
            return false;
        }
        match self {
            CmpOp::Eq => left == right,
            CmpOp::Ne => left != right,
            CmpOp::Lt => left < right,
            CmpOp::Le => left <= right,
            CmpOp::Gt => left > right,
            CmpOp::Ge => left >= right,
        }
    }

    /// Symbol used by the textual format.
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// Boolean selection formula over one tuple.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Pred {
    /// Always true.
    True,
    /// Always false.
    False,
    /// Comparison between two operands.
    Cmp(Operand, CmpOp, Operand),
    /// Conjunction.
    And(Box<Pred>, Box<Pred>),
    /// Disjunction.
    Or(Box<Pred>, Box<Pred>),
    /// Negation.
    Not(Box<Pred>),
}

impl Pred {
    /// `#left = #right`.
    pub fn eq_cols(left: usize, right: usize) -> Pred {
        Pred::Cmp(Operand::Col(left), CmpOp::Eq, Operand::Col(right))
    }

    /// `#col = constant`.
    pub fn eq_const(col: usize, value: impl Into<Value>) -> Pred {
        Pred::Cmp(Operand::Col(col), CmpOp::Eq, Operand::Const(value.into()))
    }

    /// Generic comparison.
    pub fn cmp(left: Operand, op: CmpOp, right: Operand) -> Pred {
        Pred::Cmp(left, op, right)
    }

    /// Conjunction of an iterator of predicates (`True` if empty).
    pub fn and_all<I: IntoIterator<Item = Pred>>(preds: I) -> Pred {
        let mut iter = preds.into_iter();
        let first = match iter.next() {
            None => return Pred::True,
            Some(p) => p,
        };
        iter.fold(first, |acc, p| Pred::And(Box::new(acc), Box::new(p)))
    }

    /// Conjoin with another predicate, simplifying `True` away.
    pub fn and(self, other: Pred) -> Pred {
        match (self, other) {
            (Pred::True, p) | (p, Pred::True) => p,
            (Pred::False, _) | (_, Pred::False) => Pred::False,
            (a, b) => Pred::And(Box::new(a), Box::new(b)),
        }
    }

    /// Evaluate the predicate on a tuple. Out-of-range columns make the
    /// comparison false (the arity checker reports those statically).
    pub fn eval(&self, tuple: &[Value]) -> bool {
        match self {
            Pred::True => true,
            Pred::False => false,
            Pred::Cmp(left, op, right) => match (left.eval(tuple), right.eval(tuple)) {
                (Some(l), Some(r)) => op.apply(l, r),
                _ => false,
            },
            Pred::And(a, b) => a.eval(tuple) && b.eval(tuple),
            Pred::Or(a, b) => a.eval(tuple) || b.eval(tuple),
            Pred::Not(a) => !a.eval(tuple),
        }
    }

    /// Largest column index referenced, if any.
    pub fn max_column(&self) -> Option<usize> {
        self.columns().into_iter().max()
    }

    /// All column indexes referenced.
    pub fn columns(&self) -> BTreeSet<usize> {
        let mut cols = BTreeSet::new();
        self.collect_columns(&mut cols);
        cols
    }

    fn collect_columns(&self, cols: &mut BTreeSet<usize>) {
        match self {
            Pred::True | Pred::False => {}
            Pred::Cmp(left, _, right) => {
                if let Operand::Col(i) = left {
                    cols.insert(*i);
                }
                if let Operand::Col(i) = right {
                    cols.insert(*i);
                }
            }
            Pred::And(a, b) | Pred::Or(a, b) => {
                a.collect_columns(cols);
                b.collect_columns(cols);
            }
            Pred::Not(a) => a.collect_columns(cols),
        }
    }

    /// Rewrite every column index through `f` (used when an expression is
    /// re-based onto a wider cross product, e.g. during normalization and
    /// deskolemization).
    pub fn map_columns(&self, f: &impl Fn(usize) -> usize) -> Pred {
        let map_operand = |operand: &Operand| match operand {
            Operand::Col(i) => Operand::Col(f(*i)),
            Operand::Const(v) => Operand::Const(v.clone()),
        };
        match self {
            Pred::True => Pred::True,
            Pred::False => Pred::False,
            Pred::Cmp(left, op, right) => Pred::Cmp(map_operand(left), *op, map_operand(right)),
            Pred::And(a, b) => Pred::And(Box::new(a.map_columns(f)), Box::new(b.map_columns(f))),
            Pred::Or(a, b) => Pred::Or(Box::new(a.map_columns(f)), Box::new(b.map_columns(f))),
            Pred::Not(a) => Pred::Not(Box::new(a.map_columns(f))),
        }
    }

    /// Shift every column index by `offset`.
    pub fn shift_columns(&self, offset: usize) -> Pred {
        self.map_columns(&|i| i + offset)
    }

    /// Flatten a conjunction into its conjuncts (a single non-`And` predicate
    /// yields itself). Used by the conjunctive-form converter.
    pub fn conjuncts(&self) -> Vec<&Pred> {
        let mut out = Vec::new();
        self.collect_conjuncts(&mut out);
        out
    }

    fn collect_conjuncts<'a>(&'a self, out: &mut Vec<&'a Pred>) {
        match self {
            Pred::And(a, b) => {
                a.collect_conjuncts(out);
                b.collect_conjuncts(out);
            }
            other => out.push(other),
        }
    }

    /// Number of atomic comparisons (used for expression-size accounting,
    /// paper §4.2 measures mapping size as total number of operators).
    pub fn atom_count(&self) -> usize {
        match self {
            Pred::True | Pred::False => 0,
            Pred::Cmp(..) => 1,
            Pred::And(a, b) | Pred::Or(a, b) => a.atom_count() + b.atom_count(),
            Pred::Not(a) => a.atom_count(),
        }
    }
}

impl fmt::Display for Pred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Pred::True => write!(f, "true"),
            Pred::False => write!(f, "false"),
            Pred::Cmp(left, op, right) => write!(f, "{left} {op} {right}"),
            Pred::And(a, b) => write!(f, "({a} and {b})"),
            Pred::Or(a, b) => write!(f, "({a} or {b})"),
            Pred::Not(a) => write!(f, "not ({a})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::tuple;

    #[test]
    fn comparisons_behave() {
        let t = tuple([1i64, 5, 5]);
        assert!(Pred::eq_cols(1, 2).eval(&t));
        assert!(!Pred::eq_cols(0, 1).eval(&t));
        assert!(Pred::eq_const(1, 5).eval(&t));
        assert!(Pred::cmp(Operand::Col(0), CmpOp::Lt, Operand::Col(1)).eval(&t));
        assert!(Pred::cmp(Operand::Col(1), CmpOp::Ge, Operand::Col(2)).eval(&t));
        assert!(!Pred::cmp(Operand::Col(1), CmpOp::Ne, Operand::Col(2)).eval(&t));
    }

    #[test]
    fn null_comparisons_are_false() {
        let t = vec![Value::Null, Value::Int(1)];
        assert!(!Pred::eq_cols(0, 0).eval(&t));
        assert!(!Pred::cmp(Operand::Col(0), CmpOp::Ne, Operand::Col(1)).eval(&t));
    }

    #[test]
    fn boolean_connectives() {
        let t = tuple([1i64, 2]);
        let p = Pred::And(
            Box::new(Pred::eq_const(0, 1)),
            Box::new(Pred::Not(Box::new(Pred::eq_const(1, 3)))),
        );
        assert!(p.eval(&t));
        let q = Pred::Or(Box::new(Pred::False), Box::new(Pred::eq_const(1, 2)));
        assert!(q.eval(&t));
    }

    #[test]
    fn out_of_range_column_is_false() {
        let t = tuple([1i64]);
        assert!(!Pred::eq_cols(0, 5).eval(&t));
    }

    #[test]
    fn columns_and_shift() {
        let p = Pred::And(Box::new(Pred::eq_cols(0, 2)), Box::new(Pred::eq_const(4, 7)));
        assert_eq!(p.columns().into_iter().collect::<Vec<_>>(), vec![0, 2, 4]);
        assert_eq!(p.max_column(), Some(4));
        let shifted = p.shift_columns(3);
        assert_eq!(shifted.columns().into_iter().collect::<Vec<_>>(), vec![3, 5, 7]);
    }

    #[test]
    fn and_all_and_simplifying_and() {
        assert_eq!(Pred::and_all([]), Pred::True);
        let p = Pred::True.and(Pred::eq_cols(0, 1));
        assert_eq!(p, Pred::eq_cols(0, 1));
        assert_eq!(Pred::False.and(Pred::eq_cols(0, 1)), Pred::False);
        let combined = Pred::and_all([Pred::eq_cols(0, 1), Pred::eq_cols(1, 2)]);
        assert_eq!(combined.conjuncts().len(), 2);
        assert_eq!(combined.atom_count(), 2);
    }

    #[test]
    fn display_shape() {
        let p = Pred::And(Box::new(Pred::eq_cols(0, 1)), Box::new(Pred::eq_const(2, 5)));
        assert_eq!(p.to_string(), "(#0 = #1 and #2 = 5)");
    }
}
