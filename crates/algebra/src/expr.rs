//! Relational-algebra expressions (unnamed perspective).
//!
//! Paper §2 defines expressions over the six basic operators ∪, ∩, ×, −, π,
//! σ, plus two special relations: the active domain `D` and the empty
//! relation `∅`, the Skolem pseudo-operator used internally by
//! right-normalization, and user-defined operators. Attributes are referenced
//! by 0-based index.
//!
//! Expressions are persistent: the children of a node are `Arc`s, so a
//! clone of a tree copies one node and bumps the reference counts of its
//! children. [`Expr::substitute`] rebuilds only the path from the root to
//! each occurrence of the symbol it replaces and returns every other subtree
//! as the `Arc` it was given, so a rewritten constraint shares its unchanged
//! parts with the original. The argument list of a user-defined operator
//! (`Apply`) is owned by its node and shared with it.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

use crate::error::AlgebraError;
use crate::ops::OperatorSet;
use crate::pred::Pred;
use crate::signature::Signature;

/// A Skolem function symbol: a name plus the positions of the operand that
/// the function depends on (paper §2 and §3.5.3: `f_I(E)` has arity
/// `arity(E) + 1`, the extra column being `f` applied to the columns in `I`).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SkolemFn {
    /// Function name (unique per introduction site).
    pub name: String,
    /// Operand positions the function depends on.
    pub deps: Vec<usize>,
}

impl SkolemFn {
    /// Create a Skolem function symbol.
    pub fn new(name: impl Into<String>, deps: Vec<usize>) -> Self {
        SkolemFn { name: name.into(), deps }
    }
}

impl fmt::Display for SkolemFn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[", self.name)?;
        for (i, d) in self.deps.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

/// A relational-algebra expression.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Expr {
    /// A base relation symbol.
    Rel(String),
    /// `D^r`: the r-fold cross product of the active domain (paper §2). The
    /// arity `r` is at least 1.
    Domain(usize),
    /// `∅` of the given arity.
    Empty(usize),
    /// Set union `E1 ∪ E2` (operands must have equal arity).
    Union(Arc<Expr>, Arc<Expr>),
    /// Set intersection `E1 ∩ E2`.
    Intersect(Arc<Expr>, Arc<Expr>),
    /// Cross product `E1 × E2` (arity is the sum of operand arities).
    Product(Arc<Expr>, Arc<Expr>),
    /// Set difference `E1 − E2`.
    Difference(Arc<Expr>, Arc<Expr>),
    /// Projection `π_I(E)` onto the listed positions (duplicates allowed, so
    /// projection subsumes column permutation and duplication).
    Project(Vec<usize>, Arc<Expr>),
    /// Selection `σ_c(E)`.
    Select(Pred, Arc<Expr>),
    /// Skolem pseudo-operator `f_I(E)`: appends one column holding
    /// `f(columns I of E)`. Only valid between right-normalization and
    /// deskolemization.
    Skolem(SkolemFn, Arc<Expr>),
    /// A user-defined operator applied to argument expressions.
    Apply(String, Vec<Expr>),
}

impl Expr {
    // ------------------------------------------------------------------
    // Constructors
    // ------------------------------------------------------------------

    /// Base relation reference.
    pub fn rel(name: impl Into<String>) -> Expr {
        Expr::Rel(name.into())
    }

    /// `D^r`.
    pub fn domain(arity: usize) -> Expr {
        Expr::Domain(arity)
    }

    /// `∅` of the given arity.
    pub fn empty(arity: usize) -> Expr {
        Expr::Empty(arity)
    }

    /// `self ∪ other`.
    pub fn union(self, other: Expr) -> Expr {
        Expr::Union(Arc::new(self), Arc::new(other))
    }

    /// `self ∩ other`.
    pub fn intersect(self, other: Expr) -> Expr {
        Expr::Intersect(Arc::new(self), Arc::new(other))
    }

    /// `self × other`.
    pub fn product(self, other: Expr) -> Expr {
        Expr::Product(Arc::new(self), Arc::new(other))
    }

    /// `self − other`.
    pub fn difference(self, other: Expr) -> Expr {
        Expr::Difference(Arc::new(self), Arc::new(other))
    }

    /// `π_I(self)`.
    pub fn project(self, positions: Vec<usize>) -> Expr {
        Expr::Project(positions, Arc::new(self))
    }

    /// `σ_c(self)`.
    pub fn select(self, pred: Pred) -> Expr {
        Expr::Select(pred, Arc::new(self))
    }

    /// `f_I(self)`.
    pub fn skolem(self, f: SkolemFn) -> Expr {
        Expr::Skolem(f, Arc::new(self))
    }

    /// User-defined operator application.
    pub fn apply(name: impl Into<String>, args: Vec<Expr>) -> Expr {
        Expr::Apply(name.into(), args)
    }

    /// Natural-join style equi-join, derived from ×, σ and π as the paper
    /// suggests (§2 views ⋈ as a derived operator). `on` pairs `(l, r)` equate
    /// column `l` of `self` with column `r` of `other`; the right-hand join
    /// columns are projected away.
    pub fn join_on(
        self,
        other: Expr,
        on: &[(usize, usize)],
        left_arity: usize,
        right_arity: usize,
    ) -> Expr {
        let pred = Pred::and_all(on.iter().map(|(l, r)| Pred::eq_cols(*l, left_arity + *r)));
        let dropped: BTreeSet<usize> = on.iter().map(|(_, r)| left_arity + *r).collect();
        let keep: Vec<usize> =
            (0..left_arity + right_arity).filter(|i| !dropped.contains(i)).collect();
        self.product(other).select(pred).project(keep)
    }

    // ------------------------------------------------------------------
    // Typing
    // ------------------------------------------------------------------

    /// Compute (and validate) the arity of the expression against a
    /// signature and operator set.
    pub fn arity(&self, sig: &Signature, ops: &OperatorSet) -> Result<usize, AlgebraError> {
        match self {
            Expr::Rel(name) => sig.arity(name),
            Expr::Domain(r) | Expr::Empty(r) => Ok(*r),
            Expr::Union(a, b) | Expr::Intersect(a, b) | Expr::Difference(a, b) => {
                let left = a.arity(sig, ops)?;
                let right = b.arity(sig, ops)?;
                if left != right {
                    return Err(AlgebraError::BinaryArityMismatch {
                        op: self.operator_name(),
                        left,
                        right,
                    });
                }
                Ok(left)
            }
            Expr::Product(a, b) => Ok(a.arity(sig, ops)? + b.arity(sig, ops)?),
            Expr::Project(cols, inner) => {
                let arity = inner.arity(sig, ops)?;
                for &c in cols {
                    if c >= arity {
                        return Err(AlgebraError::ColumnOutOfRange { column: c, arity });
                    }
                }
                Ok(cols.len())
            }
            Expr::Select(pred, inner) => {
                let arity = inner.arity(sig, ops)?;
                if let Some(max) = pred.max_column() {
                    if max >= arity {
                        return Err(AlgebraError::ColumnOutOfRange { column: max, arity });
                    }
                }
                Ok(arity)
            }
            Expr::Skolem(f, inner) => {
                let arity = inner.arity(sig, ops)?;
                for &d in &f.deps {
                    if d >= arity {
                        return Err(AlgebraError::ColumnOutOfRange { column: d, arity });
                    }
                }
                Ok(arity + 1)
            }
            Expr::Apply(name, args) => {
                let arities =
                    args.iter().map(|arg| arg.arity(sig, ops)).collect::<Result<Vec<_>, _>>()?;
                ops.arity(name, &arities)
            }
        }
    }

    /// Short operator name used in error messages.
    pub fn operator_name(&self) -> &'static str {
        match self {
            Expr::Rel(_) => "relation",
            Expr::Domain(_) => "domain",
            Expr::Empty(_) => "empty",
            Expr::Union(..) => "union",
            Expr::Intersect(..) => "intersect",
            Expr::Product(..) => "product",
            Expr::Difference(..) => "difference",
            Expr::Project(..) => "project",
            Expr::Select(..) => "select",
            Expr::Skolem(..) => "skolem",
            Expr::Apply(..) => "apply",
        }
    }

    // ------------------------------------------------------------------
    // Structural queries
    // ------------------------------------------------------------------

    /// Immediate sub-expressions.
    pub fn children(&self) -> Vec<&Expr> {
        let mut out = Vec::new();
        self.for_each_child(|child| out.push(child));
        out
    }

    /// Call `visit` on each immediate sub-expression, in order.
    fn for_each_child<'a>(&'a self, mut visit: impl FnMut(&'a Expr)) {
        match self {
            Expr::Rel(_) | Expr::Domain(_) | Expr::Empty(_) => {}
            Expr::Union(a, b)
            | Expr::Intersect(a, b)
            | Expr::Product(a, b)
            | Expr::Difference(a, b) => {
                visit(a);
                visit(b);
            }
            Expr::Project(_, inner) | Expr::Select(_, inner) | Expr::Skolem(_, inner) => {
                visit(inner);
            }
            Expr::Apply(_, args) => args.iter().for_each(visit),
        }
    }

    /// Does any immediate sub-expression satisfy `test`? Stops at the first
    /// that does.
    fn any_child(&self, mut test: impl FnMut(&Expr) -> bool) -> bool {
        match self {
            Expr::Rel(_) | Expr::Domain(_) | Expr::Empty(_) => false,
            Expr::Union(a, b)
            | Expr::Intersect(a, b)
            | Expr::Product(a, b)
            | Expr::Difference(a, b) => test(a) || test(b),
            Expr::Project(_, inner) | Expr::Select(_, inner) | Expr::Skolem(_, inner) => {
                test(inner)
            }
            Expr::Apply(_, args) => args.iter().any(test),
        }
    }

    /// All base relation symbols mentioned.
    pub fn relations(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        self.collect_relations(&mut out);
        out
    }

    fn collect_relations(&self, out: &mut BTreeSet<String>) {
        if let Expr::Rel(name) = self {
            out.insert(name.clone());
        }
        self.for_each_child(|child| child.collect_relations(out));
    }

    /// Is the expression the bare relation symbol `name`?
    pub fn is_relation(&self, name: &str) -> bool {
        matches!(self, Expr::Rel(r) if r == name)
    }

    /// Does the expression mention the relation symbol `name`?
    pub fn mentions(&self, name: &str) -> bool {
        match self {
            Expr::Rel(r) => r == name,
            _ => self.any_child(|c| c.mentions(name)),
        }
    }

    /// Number of occurrences of the relation symbol `name`.
    pub fn occurrences(&self, name: &str) -> usize {
        let mut count = usize::from(matches!(self, Expr::Rel(r) if r == name));
        self.for_each_child(|c| count += c.occurrences(name));
        count
    }

    /// Does the expression contain any Skolem pseudo-operator?
    pub fn has_skolem(&self) -> bool {
        matches!(self, Expr::Skolem(..)) || self.any_child(Expr::has_skolem)
    }

    /// Names of all Skolem functions appearing in the expression.
    pub fn skolem_names(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        self.collect_skolems(&mut out);
        out
    }

    fn collect_skolems(&self, out: &mut BTreeSet<String>) {
        if let Expr::Skolem(f, _) = self {
            out.insert(f.name.clone());
        }
        self.for_each_child(|child| child.collect_skolems(out));
    }

    /// Does the expression mention the active-domain relation `D`?
    pub fn mentions_domain(&self) -> bool {
        matches!(self, Expr::Domain(_)) || self.any_child(Expr::mentions_domain)
    }

    /// Does the expression mention the empty relation `∅`?
    pub fn mentions_empty(&self) -> bool {
        matches!(self, Expr::Empty(_)) || self.any_child(Expr::mentions_empty)
    }

    /// Does the expression mention any user-defined operator?
    pub fn user_operators(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        self.collect_user_ops(&mut out);
        out
    }

    fn collect_user_ops(&self, out: &mut BTreeSet<String>) {
        if let Expr::Apply(name, _) = self {
            out.insert(name.clone());
        }
        self.for_each_child(|child| child.collect_user_ops(out));
    }

    /// Number of operator nodes in the expression. This is the size measure
    /// used by the paper's blow-up abort and mapping-size statistics (§4.2:
    /// "The size of mappings is measured as the total number of operators
    /// across all constraints"). Base relation references count 1; selection
    /// predicates contribute their comparison atoms.
    pub fn op_count(&self) -> usize {
        let mut count = match self {
            Expr::Select(pred, _) => 1 + pred.atom_count(),
            _ => 1,
        };
        self.for_each_child(|c| count += c.op_count());
        count
    }

    /// Nesting depth of the expression tree.
    pub fn depth(&self) -> usize {
        let mut deepest = 0;
        self.for_each_child(|c| deepest = deepest.max(c.depth()));
        1 + deepest
    }

    // ------------------------------------------------------------------
    // Substitution
    // ------------------------------------------------------------------

    /// Replace every occurrence of the relation symbol `name` in `expr` with
    /// `replacement` (view unfolding and the left/right compose substitution
    /// step). One walk: a subtree that does not mention `name` comes back as
    /// the `Arc` it was (so `expr` itself when nothing changes), every
    /// occurrence becomes a reference to `replacement`, and only the nodes on
    /// a path to an occurrence are rebuilt.
    pub fn substitute(expr: &Arc<Expr>, name: &str, replacement: &Arc<Expr>) -> Arc<Expr> {
        if expr.is_relation(name) {
            Arc::clone(replacement)
        } else {
            Expr::map_children(expr, |child| Expr::substitute(child, name, replacement))
        }
    }

    /// Rename a base relation symbol throughout `expr`, sharing every
    /// subtree that does not mention it.
    pub fn rename(expr: &Arc<Expr>, from: &str, to: &str) -> Arc<Expr> {
        Expr::substitute(expr, from, &Arc::new(Expr::rel(to)))
    }

    /// `expr` with `rewrite` applied to each immediate child: the building
    /// block of every bottom-up rewriter. When every child comes back
    /// pointer-equal, `expr` itself is returned and nothing is allocated;
    /// otherwise only this node is rebuilt, around the children `rewrite`
    /// returned. The arguments of a user-defined operator are owned by their
    /// node, so each is lifted into an `Arc` of its own for `rewrite`.
    pub fn map_children(
        expr: &Arc<Expr>,
        mut rewrite: impl FnMut(&Arc<Expr>) -> Arc<Expr>,
    ) -> Arc<Expr> {
        let mut one = |child: &Arc<Expr>| {
            let new = rewrite(child);
            (!Arc::ptr_eq(child, &new)).then_some(new)
        };
        let mut two = |a: &Arc<Expr>, b: &Arc<Expr>, node: fn(Arc<Expr>, Arc<Expr>) -> Expr| match (
            one(a),
            one(b),
        ) {
            (None, None) => None,
            (a2, b2) => {
                Some(node(a2.unwrap_or_else(|| Arc::clone(a)), b2.unwrap_or_else(|| Arc::clone(b))))
            }
        };
        let rebuilt = match expr.as_ref() {
            Expr::Rel(_) | Expr::Domain(_) | Expr::Empty(_) => None,
            Expr::Union(a, b) => two(a, b, Expr::Union),
            Expr::Intersect(a, b) => two(a, b, Expr::Intersect),
            Expr::Product(a, b) => two(a, b, Expr::Product),
            Expr::Difference(a, b) => two(a, b, Expr::Difference),
            Expr::Project(cols, inner) => one(inner).map(|i| Expr::Project(cols.clone(), i)),
            Expr::Select(pred, inner) => one(inner).map(|i| Expr::Select(pred.clone(), i)),
            Expr::Skolem(f, inner) => one(inner).map(|i| Expr::Skolem(f.clone(), i)),
            Expr::Apply(op, args) => {
                let mut changed = false;
                let args = args
                    .iter()
                    .map(|arg| {
                        let arg = Arc::new(arg.clone());
                        let new = one(&arg);
                        changed |= new.is_some();
                        Expr::clone(new.as_ref().unwrap_or(&arg))
                    })
                    .collect();
                changed.then(|| Expr::Apply(op.clone(), args))
            }
        };
        rebuilt.map_or_else(|| Arc::clone(expr), Arc::new)
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Rel(name) => write!(f, "{name}"),
            Expr::Domain(r) => write!(f, "D^{r}"),
            Expr::Empty(r) => write!(f, "empty^{r}"),
            Expr::Union(a, b) => write!(f, "union({a}, {b})"),
            Expr::Intersect(a, b) => write!(f, "intersect({a}, {b})"),
            Expr::Product(a, b) => write!(f, "product({a}, {b})"),
            Expr::Difference(a, b) => write!(f, "diff({a}, {b})"),
            Expr::Project(cols, inner) => {
                write!(f, "project[")?;
                for (i, c) in cols.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{c}")?;
                }
                write!(f, "]({inner})")
            }
            Expr::Select(pred, inner) => write!(f, "select[{pred}]({inner})"),
            Expr::Skolem(fun, inner) => write!(f, "skolem:{fun}({inner})"),
            Expr::Apply(name, args) => {
                write!(f, "{name}(")?;
                for (i, arg) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{arg}")?;
                }
                write!(f, ")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig() -> Signature {
        Signature::from_arities([("R", 2), ("S", 2), ("T", 3)])
    }

    #[test]
    fn arity_of_basic_operators() {
        let ops = OperatorSet::new();
        let s = sig();
        assert_eq!(Expr::rel("R").arity(&s, &ops).unwrap(), 2);
        assert_eq!(Expr::rel("R").union(Expr::rel("S")).arity(&s, &ops).unwrap(), 2);
        assert_eq!(Expr::rel("R").product(Expr::rel("T")).arity(&s, &ops).unwrap(), 5);
        assert_eq!(Expr::rel("T").project(vec![0, 2]).arity(&s, &ops).unwrap(), 2);
        assert_eq!(Expr::rel("T").select(Pred::eq_cols(0, 2)).arity(&s, &ops).unwrap(), 3);
        assert_eq!(Expr::domain(4).arity(&s, &ops).unwrap(), 4);
        assert_eq!(Expr::empty(2).arity(&s, &ops).unwrap(), 2);
        assert_eq!(Expr::rel("R").skolem(SkolemFn::new("f", vec![0])).arity(&s, &ops).unwrap(), 3);
    }

    #[test]
    fn arity_errors() {
        let ops = OperatorSet::new();
        let s = sig();
        assert!(Expr::rel("R").union(Expr::rel("T")).arity(&s, &ops).is_err());
        assert!(Expr::rel("R").project(vec![5]).arity(&s, &ops).is_err());
        assert!(Expr::rel("R").select(Pred::eq_cols(0, 7)).arity(&s, &ops).is_err());
        assert!(Expr::rel("Missing").arity(&s, &ops).is_err());
        assert!(Expr::rel("R").skolem(SkolemFn::new("f", vec![9])).arity(&s, &ops).is_err());
        assert!(Expr::apply("unknown", vec![Expr::rel("R")]).arity(&s, &ops).is_err());
    }

    #[test]
    fn join_on_builds_product_select_project() {
        let ops = OperatorSet::new();
        let s = sig();
        // R(a,b) join S(a,c) on first columns.
        let join = Expr::rel("R").join_on(Expr::rel("S"), &[(0, 0)], 2, 2);
        assert_eq!(join.arity(&s, &ops).unwrap(), 3);
        assert!(matches!(join, Expr::Project(..)));
    }

    #[test]
    fn structural_queries() {
        let e =
            Expr::rel("R").difference(Expr::rel("S")).select(Pred::eq_const(0, 5)).project(vec![0]);
        assert_eq!(e.relations().into_iter().collect::<Vec<_>>(), vec!["R", "S"]);
        assert!(e.mentions("R"));
        assert!(!e.mentions("T"));
        assert_eq!(e.occurrences("R"), 1);
        assert_eq!(e.op_count(), 1 + 1 + 1 + 1 + 1 + 1); // project, select+atom, diff, R, S
        assert_eq!(e.depth(), 4);
        assert!(!e.has_skolem());
        assert!(e.user_operators().is_empty());
    }

    #[test]
    fn substitution_replaces_all_occurrences() {
        let e = Arc::new(Expr::rel("S").union(Expr::rel("S").product(Expr::rel("R"))));
        let replacement = Arc::new(Expr::rel("T").project(vec![0, 1]));
        let replaced = Expr::substitute(&e, "S", &replacement);
        assert_eq!(replaced.occurrences("S"), 0);
        assert_eq!(replaced.occurrences("T"), 2);
        assert_eq!(replaced.occurrences("R"), 1);
    }

    #[test]
    fn substitution_shares_what_it_does_not_rewrite() {
        // R ∪ π(S × (T − U)): replacing S rebuilds the path root → × only.
        let untouched = Arc::new(Expr::rel("T").difference(Expr::rel("U")));
        let left = Arc::new(Expr::rel("R"));
        let product = Expr::Product(Arc::new(Expr::rel("S")), Arc::clone(&untouched));
        let e = Arc::new(Expr::Union(Arc::clone(&left), Arc::new(product.project(vec![0]))));
        let replacement = Arc::new(Expr::rel("V"));
        let out = Expr::substitute(&e, "S", &replacement);
        let Expr::Union(a, b) = out.as_ref() else { panic!("shape: {out}") };
        assert!(Arc::ptr_eq(a, &left));
        let Expr::Project(_, p) = b.as_ref() else { panic!("shape: {out}") };
        let Expr::Product(s, t) = p.as_ref() else { panic!("shape: {out}") };
        assert!(Arc::ptr_eq(s, &replacement));
        assert!(Arc::ptr_eq(t, &untouched));
        // A tree without the symbol comes back as itself.
        assert!(Arc::ptr_eq(&Expr::substitute(&e, "Nope", &replacement), &e));
        assert!(Arc::ptr_eq(&Expr::rename(&e, "Nope", "X"), &e));
        assert_eq!(Expr::rename(&e, "S", "V"), out);
    }

    #[test]
    fn skolem_queries() {
        let e = Expr::rel("R").skolem(SkolemFn::new("f", vec![0, 1])).project(vec![0, 2]);
        assert!(e.has_skolem());
        assert_eq!(e.skolem_names().into_iter().collect::<Vec<_>>(), vec!["f"]);
    }

    #[test]
    fn display_round_trip_shape() {
        let e = Expr::rel("R").select(Pred::eq_const(1, 5)).project(vec![0]);
        assert_eq!(e.to_string(), "project[0](select[#1 = 5](R))");
        let d = Expr::domain(2).intersect(Expr::empty(2));
        assert_eq!(d.to_string(), "intersect(D^2, empty^2)");
        let sk = Expr::rel("R").skolem(SkolemFn::new("f", vec![0]));
        assert_eq!(sk.to_string(), "skolem:f[0](R)");
    }

    #[test]
    fn mentions_domain_and_empty() {
        let e = Expr::rel("R").union(Expr::domain(2));
        assert!(e.mentions_domain());
        assert!(!e.mentions_empty());
        let e2 = Expr::empty(2).difference(Expr::rel("R"));
        assert!(e2.mentions_empty());
    }
}
