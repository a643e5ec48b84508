//! Bounded-model equivalence checking.
//!
//! The correctness contract of composition (paper §2) is that the output
//! constraints Σ' over the reduced signature σ' are *equivalent* to the input
//! constraints Σ over σ:
//!
//! * **soundness** — every database over σ satisfying Σ, restricted to σ',
//!   satisfies Σ';
//! * **completeness** — every database over σ' satisfying Σ' can be extended
//!   with relations for σ − σ' so that Σ holds.
//!
//! Proving this in general is undecidable, but it can be *spot-checked* over
//! small domains: this module samples small instances deterministically (a
//! seeded linear-congruential generator, so no external dependency and fully
//! reproducible failures) and reports counterexamples. The test suites of the
//! composition and evolution crates use it to validate every step of the
//! algorithm end to end.

use std::collections::BTreeSet;

use mapcomp_algebra::{Constraint, ConstraintSet, Instance, Relation, Signature, Tuple, Value};

use crate::registry::Registry;

/// Configuration of the bounded-model check.
#[derive(Debug, Clone)]
pub struct VerifyConfig {
    /// Values used to populate random instances.
    pub domain: Vec<Value>,
    /// How many random instances to try for the soundness direction.
    pub soundness_samples: usize,
    /// How many random instances to try for the completeness direction.
    pub completeness_samples: usize,
    /// Maximum number of candidate extensions to enumerate per instance
    /// before giving up on that sample (the search is exponential).
    pub max_extensions: usize,
    /// Maximum tuples generated per relation.
    pub max_tuples_per_relation: usize,
    /// Seed of the deterministic generator.
    pub seed: u64,
}

impl Default for VerifyConfig {
    fn default() -> Self {
        VerifyConfig {
            domain: vec![Value::Int(1), Value::Int(2), Value::Int(5)],
            soundness_samples: 200,
            completeness_samples: 50,
            max_extensions: 4096,
            max_tuples_per_relation: 3,
            seed: 0xC0FFEE,
        }
    }
}

/// Result of a bounded-model equivalence check.
#[derive(Debug, Clone, Default)]
pub struct EquivalenceReport {
    /// Instances satisfying the original constraints that were checked for
    /// soundness.
    pub soundness_checked: usize,
    /// Soundness counterexamples found.
    pub soundness_violations: Vec<Instance>,
    /// Instances satisfying the reduced constraints that were checked for
    /// completeness.
    pub completeness_checked: usize,
    /// Completeness counterexamples found (no extension within the budget).
    pub completeness_violations: Vec<Instance>,
    /// Completeness samples skipped because the extension space exceeded the
    /// budget.
    pub completeness_skipped: usize,
}

impl EquivalenceReport {
    /// No violations were found in either direction.
    pub fn is_equivalent(&self) -> bool {
        self.soundness_violations.is_empty() && self.completeness_violations.is_empty()
    }

    /// Panic with a readable message if a violation was found. Intended for
    /// use inside tests.
    pub fn assert_equivalent(&self) {
        if let Some(witness) = self.soundness_violations.first() {
            panic!("soundness violated by instance:\n{witness}");
        }
        if let Some(witness) = self.completeness_violations.first() {
            panic!("completeness violated by instance:\n{witness}");
        }
    }
}

/// Deterministic linear-congruential generator (Numerical Recipes constants);
/// good enough for sampling test instances and dependency-free.
#[derive(Debug, Clone)]
pub struct Lcg {
    state: u64,
}

impl Lcg {
    /// Create a generator from a seed.
    pub fn new(seed: u64) -> Self {
        Lcg { state: seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407) }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.state ^ (self.state >> 31)
    }

    /// Uniform value in `0..bound` (bound must be non-zero).
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }
}

/// Check equivalence of `original` (over `original_sig`) and `reduced` (over
/// the sub-signature `reduced_sig`) on randomly sampled bounded models.
pub fn check_equivalence(
    original: &[Constraint],
    original_sig: &Signature,
    reduced: &[Constraint],
    reduced_sig: &Signature,
    registry: &Registry,
    config: &VerifyConfig,
) -> EquivalenceReport {
    let ops = registry.operators();
    let original_set = ConstraintSet::from_constraints(original.to_vec());
    let reduced_set = ConstraintSet::from_constraints(reduced.to_vec());
    let mut rng = Lcg::new(config.seed);
    let mut report = EquivalenceReport::default();

    // Soundness direction.
    let mut attempts = 0usize;
    while report.soundness_checked < config.soundness_samples
        && attempts < config.soundness_samples * 20
    {
        attempts += 1;
        let instance = random_instance(original_sig, config, &mut rng);
        let satisfies_original =
            original_set.satisfied_by(original_sig, ops, &instance).unwrap_or(false);
        if !satisfies_original {
            continue;
        }
        report.soundness_checked += 1;
        let restricted = instance.restrict(reduced_sig);
        let satisfies_reduced =
            reduced_set.satisfied_by(original_sig, ops, &restricted).unwrap_or(false);
        if !satisfies_reduced {
            report.soundness_violations.push(instance);
        }
    }

    // Completeness direction.
    let removed: Vec<String> =
        original_sig.names().into_iter().filter(|name| !reduced_sig.contains(name)).collect();
    let mut attempts = 0usize;
    while report.completeness_checked < config.completeness_samples
        && attempts < config.completeness_samples * 20
    {
        attempts += 1;
        let instance = random_instance(reduced_sig, config, &mut rng);
        let satisfies_reduced =
            reduced_set.satisfied_by(original_sig, ops, &instance).unwrap_or(false);
        if !satisfies_reduced {
            continue;
        }
        report.completeness_checked += 1;
        match find_extension(&instance, &removed, original_sig, &original_set, registry, config) {
            Some(true) => {}
            Some(false) => report.completeness_violations.push(instance),
            None => {
                report.completeness_skipped += 1;
                report.completeness_checked -= 1;
            }
        }
    }

    report
}

/// Sample a random instance of a signature.
fn random_instance(sig: &Signature, config: &VerifyConfig, rng: &mut Lcg) -> Instance {
    let mut instance = Instance::new();
    for (name, info) in sig.iter() {
        let count = rng.below(config.max_tuples_per_relation + 1);
        let mut relation = Relation::new();
        for _ in 0..count {
            let tuple: Tuple = (0..info.arity)
                .map(|_| config.domain[rng.below(config.domain.len().max(1))].clone())
                .collect();
            relation.insert(tuple);
        }
        instance.set(name.to_string(), relation);
    }
    instance
}

/// Search for an extension of `instance` over the removed symbols satisfying
/// the original constraints. Returns `Some(true)` if one was found,
/// `Some(false)` if the whole space was searched without success, and `None`
/// if the space exceeded the configured budget.
fn find_extension(
    instance: &Instance,
    removed: &[String],
    original_sig: &Signature,
    original: &ConstraintSet,
    registry: &Registry,
    config: &VerifyConfig,
) -> Option<bool> {
    // "by adding new relations in σ − σ′ (not limited to the domain of A′)":
    // a complete search over an unbounded domain is impossible, so the check
    // uses the instance's active domain plus the generator domain. This keeps
    // the check sound for refutation on the sampled models in practice.
    let mut domain: BTreeSet<Value> = instance.active_domain();
    domain.extend(config.domain.iter().cloned());
    let domain: Vec<Value> = domain.into_iter().collect();

    // Enumerate the candidate tuple space for each removed relation.
    let mut spaces: Vec<(String, Vec<Tuple>)> = Vec::new();
    let mut total: u128 = 1;
    for name in removed {
        let arity = original_sig.arity(name).ok()?;
        let tuples = all_tuples(&domain, arity);
        total = total.saturating_mul(1u128 << tuples.len().min(100));
        spaces.push((name.clone(), tuples));
    }
    if total > config.max_extensions as u128 {
        return None;
    }

    let ops = registry.operators();
    let mut assignment: Vec<u64> = vec![0; spaces.len()];
    loop {
        // Materialize the candidate extension.
        let mut extended = instance.clone();
        for ((name, tuples), mask) in spaces.iter().zip(&assignment) {
            let mut relation = Relation::new();
            for (i, tuple) in tuples.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    relation.insert(tuple.clone());
                }
            }
            extended.set(name.clone(), relation);
        }
        if original.satisfied_by(original_sig, ops, &extended).unwrap_or(false) {
            return Some(true);
        }
        // Advance the multi-radix counter over subsets.
        let mut carry = true;
        for ((_, tuples), slot) in spaces.iter().zip(assignment.iter_mut()) {
            if !carry {
                break;
            }
            *slot += 1;
            if *slot == 1 << tuples.len() {
                *slot = 0;
            } else {
                carry = false;
            }
        }
        if carry {
            return Some(false);
        }
    }
}

/// All tuples of the given arity over a domain.
fn all_tuples(domain: &[Value], arity: usize) -> Vec<Tuple> {
    let mut tuples: Vec<Vec<Value>> = vec![Vec::new()];
    for _ in 0..arity {
        let mut next = Vec::new();
        for t in &tuples {
            for v in domain {
                let mut extended = t.clone();
                extended.push(v.clone());
                next.push(extended);
            }
        }
        tuples = next;
    }
    tuples.into_iter().map(Tuple::from).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapcomp_algebra::parse_constraints;

    fn small_config() -> VerifyConfig {
        VerifyConfig {
            domain: vec![Value::Int(1), Value::Int(2)],
            soundness_samples: 60,
            completeness_samples: 20,
            max_extensions: 1 << 16,
            max_tuples_per_relation: 2,
            seed: 7,
        }
    }

    #[test]
    fn example_3_is_equivalent() {
        // {R ⊆ S, S ⊆ T} over {R,S,T} is equivalent to {R ⊆ T} over {R,T}.
        let original_sig = Signature::from_arities([("R", 1), ("S", 1), ("T", 1)]);
        let reduced_sig = Signature::from_arities([("R", 1), ("T", 1)]);
        let original = parse_constraints("R <= S; S <= T").unwrap().into_vec();
        let reduced = parse_constraints("R <= T").unwrap().into_vec();
        let report = check_equivalence(
            &original,
            &original_sig,
            &reduced,
            &reduced_sig,
            &Registry::standard(),
            &small_config(),
        );
        assert!(report.soundness_checked > 0);
        assert!(report.completeness_checked > 0);
        report.assert_equivalent();
    }

    #[test]
    fn wrong_reduction_is_detected_as_unsound() {
        // Claiming T ⊆ R is not implied by {R ⊆ S, S ⊆ T}.
        let original_sig = Signature::from_arities([("R", 1), ("S", 1), ("T", 1)]);
        let reduced_sig = Signature::from_arities([("R", 1), ("T", 1)]);
        let original = parse_constraints("R <= S; S <= T").unwrap().into_vec();
        let wrong = parse_constraints("T <= R").unwrap().into_vec();
        let report = check_equivalence(
            &original,
            &original_sig,
            &wrong,
            &reduced_sig,
            &Registry::standard(),
            &small_config(),
        );
        assert!(!report.soundness_violations.is_empty());
        assert!(!report.is_equivalent());
    }

    #[test]
    fn dropping_constraints_is_detected_as_incomplete() {
        // The original forces R = ∅ (R ⊆ S and S ⊆ ∅ via S ⊆ T, T = ∅ is not
        // expressible here, so instead): original {R ⊆ S, S ⊆ empty} reduced
        // to the empty set over {R}: every R should be extendable, but R ⊆ S
        // ⊆ ∅ forces R = ∅, so completeness fails for nonempty R.
        let original_sig = Signature::from_arities([("R", 1), ("S", 1)]);
        let reduced_sig = Signature::from_arities([("R", 1)]);
        let original = parse_constraints("R <= S; S <= empty^1").unwrap().into_vec();
        let reduced: Vec<Constraint> = Vec::new();
        let report = check_equivalence(
            &original,
            &original_sig,
            &reduced,
            &reduced_sig,
            &Registry::standard(),
            &small_config(),
        );
        assert!(!report.completeness_violations.is_empty());
    }

    #[test]
    fn lcg_is_deterministic() {
        let mut a = Lcg::new(42);
        let mut b = Lcg::new(42);
        for _ in 0..10 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Lcg::new(43);
        assert_ne!(a.next_u64(), c.next_u64());
        for _ in 0..100 {
            assert!(c.below(7) < 7);
        }
    }

    #[test]
    fn all_tuples_enumerates_the_cube() {
        let domain = vec![Value::Int(0), Value::Int(1)];
        assert_eq!(all_tuples(&domain, 0).len(), 1);
        assert_eq!(all_tuples(&domain, 1).len(), 2);
        assert_eq!(all_tuples(&domain, 3).len(), 8);
    }

    #[test]
    fn random_instance_respects_signature() {
        let sig = Signature::from_arities([("R", 2), ("S", 1)]);
        let config = small_config();
        let mut rng = Lcg::new(1);
        for _ in 0..20 {
            let instance = random_instance(&sig, &config, &mut rng);
            for tuple in instance.get("R").iter() {
                assert_eq!(tuple.len(), 2);
            }
            for tuple in instance.get("S").iter() {
                assert_eq!(tuple.len(), 1);
            }
            assert!(instance.get("R").len() <= config.max_tuples_per_relation);
        }
    }
}
