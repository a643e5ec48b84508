//! Mappings and composition tasks.
//!
//! A mapping (paper §2) is given by `(σ1, σ2, Σ12)`: an input signature, an
//! output signature, and a finite set of constraints over their union. A
//! composition task packages two mappings sharing an intermediate signature.

use std::collections::BTreeSet;
use std::fmt;

use crate::constraint::ConstraintSet;
use crate::error::AlgebraError;
use crate::instance::Instance;
use crate::ops::OperatorSet;
use crate::signature::Signature;

/// A mapping `(σ_in, σ_out, Σ)`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Mapping {
    /// Input (source) signature σ1.
    pub input: Signature,
    /// Output (target) signature σ2.
    pub output: Signature,
    /// Constraints over σ1 ∪ σ2.
    pub constraints: ConstraintSet,
}

impl Mapping {
    /// Create a mapping.
    pub fn new(input: Signature, output: Signature, constraints: ConstraintSet) -> Self {
        Mapping { input, output, constraints }
    }

    /// The combined signature σ_in ∪ σ_out.
    pub fn combined_signature(&self) -> Result<Signature, AlgebraError> {
        self.input.union(&self.output)
    }

    /// Validate: the two signatures must be disjoint (paper §2 assumes so),
    /// every constraint must type-check, and every relation symbol mentioned
    /// must be declared.
    pub fn validate(&self, ops: &OperatorSet) -> Result<(), AlgebraError> {
        let combined = self.combined_signature()?;
        self.constraints.validate(&combined, ops)?;
        for name in self.constraints.relations() {
            if !combined.contains(&name) {
                return Err(AlgebraError::UnknownRelation(name));
            }
        }
        Ok(())
    }

    /// Does the pair `(A, B)` of instances belong to the mapping, i.e. does
    /// the merged database satisfy Σ (paper §2)?
    pub fn relates(
        &self,
        ops: &OperatorSet,
        input_instance: &Instance,
        output_instance: &Instance,
    ) -> Result<bool, AlgebraError> {
        let combined_sig = self.combined_signature()?;
        let merged = input_instance.merge(output_instance);
        self.constraints.satisfied_by(&combined_sig, ops, &merged)
    }

    /// Relation symbols mentioned by the constraints but not declared in
    /// either signature (useful diagnostics for hand-written tasks).
    pub fn undeclared_symbols(&self) -> BTreeSet<String> {
        let declared: BTreeSet<String> =
            self.input.names().into_iter().chain(self.output.names()).collect();
        self.constraints.relations().into_iter().filter(|name| !declared.contains(name)).collect()
    }

    /// Size measure of the mapping (total operator count).
    pub fn op_count(&self) -> usize {
        self.constraints.op_count()
    }
}

impl fmt::Display for Mapping {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "input  {}", self.input)?;
        writeln!(f, "output {}", self.output)?;
        write!(f, "{}", self.constraints)
    }
}

/// A composition task: mappings `m12 : σ1 → σ2` and `m23 : σ2 → σ3`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompositionTask {
    /// Source signature σ1.
    pub sigma1: Signature,
    /// Intermediate signature σ2 (the symbols to eliminate).
    pub sigma2: Signature,
    /// Target signature σ3.
    pub sigma3: Signature,
    /// Constraints of the first mapping (over σ1 ∪ σ2).
    pub sigma12: ConstraintSet,
    /// Constraints of the second mapping (over σ2 ∪ σ3).
    pub sigma23: ConstraintSet,
}

impl CompositionTask {
    /// Create a composition task from its five components.
    pub fn new(
        sigma1: Signature,
        sigma2: Signature,
        sigma3: Signature,
        sigma12: ConstraintSet,
        sigma23: ConstraintSet,
    ) -> Self {
        CompositionTask { sigma1, sigma2, sigma3, sigma12, sigma23 }
    }

    /// Create a task from two mappings; the output signature of `m12` is
    /// taken as the intermediate signature and must equal the input
    /// signature of `m23`.
    pub fn from_mappings(m12: &Mapping, m23: &Mapping) -> Result<Self, AlgebraError> {
        // The intermediate signatures must agree on arity for shared symbols.
        let sigma2 = m12.output.union(&m23.input)?;
        Ok(CompositionTask {
            sigma1: m12.input.clone(),
            sigma2,
            sigma3: m23.output.clone(),
            sigma12: m12.constraints.clone(),
            sigma23: m23.constraints.clone(),
        })
    }

    /// The full signature σ1 ∪ σ2 ∪ σ3.
    pub fn full_signature(&self) -> Result<Signature, AlgebraError> {
        Signature::union_all([&self.sigma1, &self.sigma2, &self.sigma3])
    }

    /// The combined constraint set Σ12 ∪ Σ23.
    pub fn combined_constraints(&self) -> ConstraintSet {
        let mut combined = self.sigma12.clone();
        combined.extend(&self.sigma23);
        combined
    }

    /// Symbols of σ2, in the (user-specified) deterministic order in which
    /// the composition algorithm will try to eliminate them.
    pub fn elimination_order(&self) -> Vec<String> {
        self.sigma2.names()
    }

    /// Validate both constraint sets against the full signature.
    pub fn validate(&self, ops: &OperatorSet) -> Result<(), AlgebraError> {
        let full = self.full_signature()?;
        self.sigma12.validate(&full, ops)?;
        self.sigma23.validate(&full, ops)?;
        Ok(())
    }
}

impl fmt::Display for CompositionTask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "sigma1 {}", self.sigma1)?;
        writeln!(f, "sigma2 {}", self.sigma2)?;
        writeln!(f, "sigma3 {}", self.sigma3)?;
        writeln!(f, "sigma12:")?;
        write!(f, "{}", self.sigma12)?;
        writeln!(f, "sigma23:")?;
        write!(f, "{}", self.sigma23)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::Constraint;
    use crate::expr::Expr;
    use crate::value::tuple;

    fn movies_task() -> CompositionTask {
        // Paper Example 1 (simplified arities): Movies evolves to
        // FiveStarMovies, which is split into Names and Years.
        let sigma1 = Signature::from_arities([("Movies", 6)]);
        let sigma2 = Signature::from_arities([("FiveStarMovies", 3)]);
        let sigma3 = Signature::from_arities([("Names", 2), ("Years", 2)]);
        let sigma12 = ConstraintSet::from_constraints([Constraint::containment(
            Expr::rel("Movies").select(crate::pred::Pred::eq_const(3, 5)).project(vec![0, 1, 2]),
            Expr::rel("FiveStarMovies"),
        )]);
        let sigma23 = ConstraintSet::from_constraints([Constraint::containment(
            Expr::rel("FiveStarMovies").project(vec![0, 1, 2]),
            Expr::rel("Names").join_on(Expr::rel("Years"), &[(0, 0)], 2, 2),
        )]);
        CompositionTask::new(sigma1, sigma2, sigma3, sigma12, sigma23)
    }

    #[test]
    fn task_signature_and_order() {
        let task = movies_task();
        let full = task.full_signature().unwrap();
        assert_eq!(full.len(), 4);
        assert_eq!(task.elimination_order(), vec!["FiveStarMovies".to_string()]);
        assert_eq!(task.combined_constraints().len(), 2);
        task.validate(&OperatorSet::new()).unwrap();
    }

    #[test]
    fn mapping_relates_instances() {
        let ops = OperatorSet::new();
        let input = Signature::from_arities([("R", 1)]);
        let output = Signature::from_arities([("V", 1)]);
        let constraints = ConstraintSet::from_constraints([Constraint::containment(
            Expr::rel("R"),
            Expr::rel("V"),
        )]);
        let mapping = Mapping::new(input, output, constraints);
        mapping.validate(&ops).unwrap();

        let mut a = Instance::new();
        a.insert("R", tuple([1i64]));
        let mut b = Instance::new();
        b.insert("V", tuple([1i64]));
        b.insert("V", tuple([2i64]));
        assert!(mapping.relates(&ops, &a, &b).unwrap());
        assert!(!mapping.relates(&ops, &a, &Instance::new()).unwrap());
    }

    #[test]
    fn undeclared_symbols_are_reported() {
        let mapping = Mapping::new(
            Signature::from_arities([("R", 1)]),
            Signature::new(),
            ConstraintSet::from_constraints([Constraint::containment(
                Expr::rel("R"),
                Expr::rel("Ghost"),
            )]),
        );
        let undeclared = mapping.undeclared_symbols();
        assert_eq!(undeclared.into_iter().collect::<Vec<_>>(), vec!["Ghost".to_string()]);
        assert!(mapping.validate(&OperatorSet::new()).is_err());
    }

    #[test]
    fn from_mappings_checks_intermediate_agreement() {
        let m12 = Mapping::new(
            Signature::from_arities([("R", 1)]),
            Signature::from_arities([("S", 2)]),
            ConstraintSet::new(),
        );
        let m23_ok = Mapping::new(
            Signature::from_arities([("S", 2)]),
            Signature::from_arities([("T", 1)]),
            ConstraintSet::new(),
        );
        let m23_bad = Mapping::new(
            Signature::from_arities([("S", 3)]),
            Signature::from_arities([("T", 1)]),
            ConstraintSet::new(),
        );
        assert!(CompositionTask::from_mappings(&m12, &m23_ok).is_ok());
        assert!(CompositionTask::from_mappings(&m12, &m23_bad).is_err());
    }
}
