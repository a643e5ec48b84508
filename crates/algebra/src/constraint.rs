//! Constraints: containments and equalities of relational expressions.
//!
//! Paper §2: "A containment constraint is a constraint of the form E1 ⊆ E2
//! ... An equality constraint is a constraint of the form E1 = E2."
//!
//! Both sides are shared expression trees (`Arc<Expr>`): cloning a
//! constraint bumps two reference counts, and a rewrite that leaves a side
//! alone keeps that side's allocation.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

use crate::error::AlgebraError;
use crate::eval::Evaluator;
use crate::expr::Expr;
use crate::instance::Instance;
use crate::ops::OperatorSet;
use crate::signature::Signature;

/// Kind of a constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ConstraintKind {
    /// `lhs ⊆ rhs`.
    Containment,
    /// `lhs = rhs`.
    Equality,
}

/// A single mapping constraint.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Constraint {
    /// Left-hand expression.
    pub lhs: Arc<Expr>,
    /// Right-hand expression.
    pub rhs: Arc<Expr>,
    /// Containment or equality.
    pub kind: ConstraintKind,
}

impl Constraint {
    /// `lhs ⊆ rhs`.
    pub fn containment(lhs: impl Into<Arc<Expr>>, rhs: impl Into<Arc<Expr>>) -> Constraint {
        Constraint { lhs: lhs.into(), rhs: rhs.into(), kind: ConstraintKind::Containment }
    }

    /// `lhs = rhs`.
    pub fn equality(lhs: impl Into<Arc<Expr>>, rhs: impl Into<Arc<Expr>>) -> Constraint {
        Constraint { lhs: lhs.into(), rhs: rhs.into(), kind: ConstraintKind::Equality }
    }

    /// Is this an equality constraint?
    pub fn is_equality(&self) -> bool {
        self.kind == ConstraintKind::Equality
    }

    /// Both sides of the constraint.
    pub fn sides(&self) -> [&Expr; 2] {
        [&self.lhs, &self.rhs].map(AsRef::as_ref)
    }

    /// All relation symbols mentioned on either side.
    pub fn relations(&self) -> BTreeSet<String> {
        let mut out = self.lhs.relations();
        out.extend(self.rhs.relations());
        out
    }

    /// Does either side mention `name`?
    pub fn mentions(&self, name: &str) -> bool {
        self.lhs.mentions(name) || self.rhs.mentions(name)
    }

    /// Total occurrences of `name` on both sides.
    pub fn occurrences(&self, name: &str) -> usize {
        self.lhs.occurrences(name) + self.rhs.occurrences(name)
    }

    /// Does either side contain a Skolem pseudo-operator?
    pub fn has_skolem(&self) -> bool {
        self.lhs.has_skolem() || self.rhs.has_skolem()
    }

    /// Names of all Skolem functions mentioned.
    pub fn skolem_names(&self) -> BTreeSet<String> {
        let mut out = self.lhs.skolem_names();
        out.extend(self.rhs.skolem_names());
        out
    }

    /// Size measure: total operator count of both sides (paper §4.2).
    pub fn op_count(&self) -> usize {
        self.lhs.op_count() + self.rhs.op_count()
    }

    /// Replace every occurrence of `name` with `replacement` on both sides
    /// ([`Expr::substitute`]: whatever does not mention `name` is shared).
    pub fn substitute(&self, name: &str, replacement: &Arc<Expr>) -> Constraint {
        Constraint {
            lhs: Expr::substitute(&self.lhs, name, replacement),
            rhs: Expr::substitute(&self.rhs, name, replacement),
            kind: self.kind,
        }
    }

    /// Split an equality into its two containments; a containment yields
    /// itself (paper §3.1, step 2: "we convert every equality constraint
    /// E1 = E2 that contains S into two containment constraints").
    pub fn as_containments(&self) -> Vec<Constraint> {
        match self.kind {
            ConstraintKind::Containment => vec![self.clone()],
            ConstraintKind::Equality => vec![
                Constraint::containment(self.lhs.clone(), self.rhs.clone()),
                Constraint::containment(self.rhs.clone(), self.lhs.clone()),
            ],
        }
    }

    /// Validate that both sides are well-typed and have equal arity.
    pub fn validate(&self, sig: &Signature, ops: &OperatorSet) -> Result<usize, AlgebraError> {
        let left = self.lhs.arity(sig, ops)?;
        let right = self.rhs.arity(sig, ops)?;
        if left != right {
            return Err(AlgebraError::BinaryArityMismatch {
                op: match self.kind {
                    ConstraintKind::Containment => "containment",
                    ConstraintKind::Equality => "equality",
                },
                left,
                right,
            });
        }
        Ok(left)
    }

    /// Does the instance satisfy the constraint (`A ⊨ ξ`, paper §2)?
    pub fn satisfied_by(
        &self,
        sig: &Signature,
        ops: &OperatorSet,
        instance: &Instance,
    ) -> Result<bool, AlgebraError> {
        let ev = Evaluator::new(sig, ops, instance);
        self.satisfied_with(&ev)
    }

    /// Like [`Constraint::satisfied_by`], but using a caller-supplied
    /// evaluator — typically one with a tuple budget
    /// ([`Evaluator::with_budget`]) so that constraints whose evaluation
    /// would blow up combinatorially report
    /// [`AlgebraError::EvalBudgetExceeded`] instead of exhausting memory.
    pub fn satisfied_with<S: crate::instance::RelationSource>(
        &self,
        ev: &Evaluator<'_, S>,
    ) -> Result<bool, AlgebraError> {
        let left = ev.eval(&self.lhs)?;
        let right = ev.eval(&self.rhs)?;
        Ok(match self.kind {
            ConstraintKind::Containment => left.is_subset(&right),
            ConstraintKind::Equality => left == right,
        })
    }
}

impl fmt::Display for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sep = match self.kind {
            ConstraintKind::Containment => "<=",
            ConstraintKind::Equality => "=",
        };
        write!(f, "{} {} {}", self.lhs, sep, self.rhs)
    }
}

/// A finite set of constraints (Σ in the paper). Order is preserved because
/// the algorithm's output is easier to read when constraints stay where the
/// user wrote them; equality ignores order via the sorted view.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ConstraintSet {
    constraints: Vec<Constraint>,
}

impl ConstraintSet {
    /// The empty constraint set.
    pub fn new() -> Self {
        ConstraintSet::default()
    }

    /// Build from an iterator of constraints.
    pub fn from_constraints<I: IntoIterator<Item = Constraint>>(constraints: I) -> Self {
        ConstraintSet { constraints: constraints.into_iter().collect() }
    }

    /// Append a constraint.
    pub fn push(&mut self, constraint: Constraint) -> &mut Self {
        self.constraints.push(constraint);
        self
    }

    /// Append all constraints of another set.
    pub fn extend(&mut self, other: &ConstraintSet) -> &mut Self {
        self.constraints.extend(other.constraints.iter().cloned());
        self
    }

    /// Number of constraints.
    pub fn len(&self) -> usize {
        self.constraints.len()
    }

    /// True if there are no constraints.
    pub fn is_empty(&self) -> bool {
        self.constraints.is_empty()
    }

    /// Iterate over constraints in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Constraint> {
        self.constraints.iter()
    }

    /// Constraints as a slice.
    pub fn as_slice(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Consume into the underlying vector.
    pub fn into_vec(self) -> Vec<Constraint> {
        self.constraints
    }

    /// All relation symbols mentioned by any constraint.
    pub fn relations(&self) -> BTreeSet<String> {
        self.constraints.iter().flat_map(Constraint::relations).collect()
    }

    /// Constraints mentioning the symbol `name`.
    pub fn mentioning(&self, name: &str) -> Vec<&Constraint> {
        self.constraints.iter().filter(|c| c.mentions(name)).collect()
    }

    /// Does any constraint mention `name`?
    pub fn mentions(&self, name: &str) -> bool {
        self.constraints.iter().any(|c| c.mentions(name))
    }

    /// Does any constraint contain a Skolem pseudo-operator?
    pub fn has_skolem(&self) -> bool {
        self.constraints.iter().any(Constraint::has_skolem)
    }

    /// Size measure: total operator count across all constraints.
    pub fn op_count(&self) -> usize {
        self.constraints.iter().map(Constraint::op_count).sum()
    }

    /// Remove exact duplicate constraints (keeping first occurrences) and
    /// trivially true constraints `E ⊆ E` / `E = E`.
    pub fn dedup(&mut self) -> &mut Self {
        // Survivors are marked over references first, so no constraint is
        // cloned into the seen-set.
        let keep: Vec<bool> = {
            let mut seen = BTreeSet::new();
            self.constraints.iter().map(|c| c.lhs != c.rhs && seen.insert(c)).collect()
        };
        let mut keep = keep.into_iter();
        self.constraints.retain(|_| keep.next() == Some(true));
        self
    }

    /// Validate every constraint.
    pub fn validate(&self, sig: &Signature, ops: &OperatorSet) -> Result<(), AlgebraError> {
        for constraint in &self.constraints {
            constraint.validate(sig, ops)?;
        }
        Ok(())
    }

    /// Does the instance satisfy every constraint (`A ⊨ Σ`)?
    pub fn satisfied_by(
        &self,
        sig: &Signature,
        ops: &OperatorSet,
        instance: &Instance,
    ) -> Result<bool, AlgebraError> {
        for constraint in &self.constraints {
            if !constraint.satisfied_by(sig, ops, instance)? {
                return Ok(false);
            }
        }
        Ok(true)
    }
}

impl FromIterator<Constraint> for ConstraintSet {
    fn from_iter<I: IntoIterator<Item = Constraint>>(iter: I) -> Self {
        ConstraintSet::from_constraints(iter)
    }
}

impl IntoIterator for ConstraintSet {
    type Item = Constraint;
    type IntoIter = std::vec::IntoIter<Constraint>;
    fn into_iter(self) -> Self::IntoIter {
        self.constraints.into_iter()
    }
}

impl fmt::Display for ConstraintSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for constraint in &self.constraints {
            writeln!(f, "{constraint};")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pred::Pred;
    use crate::value::tuple;

    fn sig() -> Signature {
        Signature::from_arities([("R", 1), ("S", 1), ("T", 1)])
    }

    #[test]
    fn dedup_keeps_first_occurrences_in_order_and_drops_trivial_constraints() {
        let parse = |text: &str| crate::parse::parse_constraints(text).unwrap();
        let mut set = parse("S <= T; R <= S; S = S; S <= T; R <= R; T = R; R <= S");
        set.dedup();
        assert_eq!(set, parse("S <= T; R <= S; T = R"));
        assert_eq!(set.to_string(), parse("S <= T; R <= S; T = R").to_string());
    }

    #[test]
    fn example_3_satisfaction() {
        // Σ := {R ⊆ S, S ⊆ T} from the paper's Example 3.
        let ops = OperatorSet::new();
        let sigma = ConstraintSet::from_constraints([
            Constraint::containment(Expr::rel("R"), Expr::rel("S")),
            Constraint::containment(Expr::rel("S"), Expr::rel("T")),
        ]);
        let mut good = Instance::new();
        good.insert("R", tuple([1i64]));
        good.insert("S", tuple([1i64]));
        good.insert("S", tuple([2i64]));
        good.insert("T", tuple([1i64]));
        good.insert("T", tuple([2i64]));
        assert!(sigma.satisfied_by(&sig(), &ops, &good).unwrap());

        let mut bad = Instance::new();
        bad.insert("R", tuple([1i64]));
        assert!(!sigma.satisfied_by(&sig(), &ops, &bad).unwrap());
    }

    #[test]
    fn equality_is_both_containments() {
        let c = Constraint::equality(Expr::rel("R"), Expr::rel("S"));
        let parts = c.as_containments();
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0], Constraint::containment(Expr::rel("R"), Expr::rel("S")));
        assert_eq!(parts[1], Constraint::containment(Expr::rel("S"), Expr::rel("R")));
        let only = Constraint::containment(Expr::rel("R"), Expr::rel("S"));
        assert_eq!(only.as_containments(), vec![only.clone()]);
    }

    #[test]
    fn equality_satisfaction_checks_both_directions() {
        let ops = OperatorSet::new();
        let c = Constraint::equality(Expr::rel("R"), Expr::rel("S"));
        let mut inst = Instance::new();
        inst.insert("R", tuple([1i64]));
        inst.insert("S", tuple([1i64]));
        assert!(c.satisfied_by(&sig(), &ops, &inst).unwrap());
        inst.insert("S", tuple([2i64]));
        assert!(!c.satisfied_by(&sig(), &ops, &inst).unwrap());
    }

    #[test]
    fn key_constraint_encoding_example_2() {
        // Paper Example 2: the first attribute of binary S is a key,
        // expressed as  π_{1,3}(σ_{0=2}(S×S)) ⊆ σ_{0=1}(D²).
        let sig = Signature::from_arities([("S", 2)]);
        let ops = OperatorSet::new();
        let lhs =
            Expr::rel("S").product(Expr::rel("S")).select(Pred::eq_cols(0, 2)).project(vec![1, 3]);
        let rhs = Expr::domain(2).select(Pred::eq_cols(0, 1));
        let key = Constraint::containment(lhs, rhs);

        let mut keyed = Instance::new();
        keyed.insert("S", tuple([1i64, 10]));
        keyed.insert("S", tuple([2i64, 20]));
        assert!(key.satisfied_by(&sig, &ops, &keyed).unwrap());

        let mut violating = Instance::new();
        violating.insert("S", tuple([1i64, 10]));
        violating.insert("S", tuple([1i64, 11]));
        assert!(!key.satisfied_by(&sig, &ops, &violating).unwrap());
    }

    #[test]
    fn constraint_queries_and_substitution() {
        let c = Constraint::containment(
            Expr::rel("R").product(Expr::rel("S")),
            Expr::rel("T").product(Expr::rel("S")),
        );
        assert_eq!(c.occurrences("S"), 2);
        assert!(c.mentions("R"));
        assert_eq!(
            c.relations().into_iter().collect::<Vec<_>>(),
            vec!["R".to_string(), "S".to_string(), "T".to_string()]
        );
        let swapped = c.substitute("S", &Arc::new(Expr::rel("U")));
        assert_eq!(swapped.occurrences("S"), 0);
        assert_eq!(swapped.occurrences("U"), 2);
        assert_eq!(c.op_count(), 6);
    }

    #[test]
    fn constraint_set_dedup() {
        let mut set = ConstraintSet::from_constraints([
            Constraint::containment(Expr::rel("R"), Expr::rel("S")),
            Constraint::containment(Expr::rel("R"), Expr::rel("S")),
            Constraint::containment(Expr::rel("R"), Expr::rel("R")),
        ]);
        set.dedup();
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn validation_rejects_mismatched_sides() {
        let sig = Signature::from_arities([("R", 1), ("S", 2)]);
        let ops = OperatorSet::new();
        let bad = Constraint::containment(Expr::rel("R"), Expr::rel("S"));
        assert!(bad.validate(&sig, &ops).is_err());
        let good = Constraint::containment(Expr::rel("S").project(vec![0]), Expr::rel("R"));
        assert_eq!(good.validate(&sig, &ops).unwrap(), 1);
    }

    #[test]
    fn display_shape() {
        let c = Constraint::containment(Expr::rel("R"), Expr::rel("S"));
        assert_eq!(c.to_string(), "R <= S");
        let e = Constraint::equality(Expr::rel("R"), Expr::rel("S"));
        assert_eq!(e.to_string(), "R = S");
    }
}
