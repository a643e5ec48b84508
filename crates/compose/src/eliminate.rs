//! The ELIMINATE procedure (paper §3.1).
//!
//! ELIMINATE takes a set of constraints Σ over a schema σ containing the
//! relation symbol S and produces an equivalent set of constraints over
//! σ − {S}, or reports failure. It tries, in order: view unfolding (§3.2),
//! left compose (§3.4) and right compose (§3.5); the first step to succeed
//! wins.
//!
//! Every step rewrites only the constraints that mention the symbol and
//! passes the others through unchanged, so whether ELIMINATE fails depends
//! on that subset alone (`deciding_constraints`). Left and right compose
//! therefore run on the subset first and touch the full set only when that
//! succeeds: a failing attempt clones no unrelated constraint.

use mapcomp_algebra::{Constraint, Signature};

use crate::compose::ComposeConfig;
use crate::left::left_compose;
use crate::outcome::{EliminateFailure, EliminateStep, EliminateSuccess, FailureReason};
use crate::registry::Registry;
use crate::right::right_compose;
use crate::view_unfold::view_unfold;

/// Left or right compose.
type Step =
    fn(&[Constraint], &str, &Signature, &Registry) -> Result<Vec<Constraint>, FailureReason>;

/// Attempt to eliminate `sym` from `constraints`.
///
/// The configuration's ablation switches (used by the experiments of paper
/// §4.2) can disable individual steps; a disabled step reports
/// [`FailureReason::Disabled`].
pub fn eliminate(
    constraints: &[Constraint],
    sym: &str,
    sig: &Signature,
    registry: &Registry,
    config: &ComposeConfig,
) -> Result<EliminateSuccess, EliminateFailure> {
    let view_unfolding = if config.enable_view_unfolding {
        match view_unfold(constraints, sym) {
            Ok(result) => {
                return Ok(finish(result, EliminateStep::ViewUnfolding, sym));
            }
            Err(reason) => reason,
        }
    } else {
        FailureReason::Disabled
    };

    // The subset is worth isolating only when it leaves something out.
    let own: Option<Vec<Constraint>> = deciding_constraints(constraints, sym)
        .filter(|own| own.len() < constraints.len())
        .map(|own| own.into_iter().cloned().collect());
    let attempt = |step: Step| {
        if let Some(own) = &own {
            step(own, sym, sig, registry)?;
        }
        step(constraints, sym, sig, registry)
    };

    let left = if config.enable_left_compose {
        match attempt(left_compose) {
            Ok(result) => {
                return Ok(finish(result, EliminateStep::LeftCompose, sym));
            }
            Err(reason) => reason,
        }
    } else {
        FailureReason::Disabled
    };

    let right = if config.enable_right_compose {
        match attempt(right_compose) {
            Ok(result) => {
                return Ok(finish(result, EliminateStep::RightCompose, sym));
            }
            Err(reason) => reason,
        }
    } else {
        FailureReason::Disabled
    };

    Err(EliminateFailure { view_unfolding, left_compose: left, right_compose: right })
}

/// The constraints that mention `sym`, in order, when they alone decide
/// whether ELIMINATE fails for it: a step fails on the full set exactly when
/// it fails on these, with the same reason. Deskolemization is the one step
/// that also reads other constraints — any Skolem function among them — so
/// the answer is `None` when another constraint carries one.
pub(crate) fn deciding_constraints<'a>(
    constraints: &'a [Constraint],
    sym: &str,
) -> Option<Vec<&'a Constraint>> {
    let mut own = Vec::new();
    for constraint in constraints {
        if constraint.mentions(sym) {
            own.push(constraint);
        } else if constraint.has_skolem() {
            return None;
        }
    }
    Some(own)
}

/// Post-condition guard: the successful step must have removed every
/// occurrence of the symbol (the individual steps already guarantee this;
/// the debug assertion documents the invariant).
fn finish(constraints: Vec<Constraint>, step: EliminateStep, sym: &str) -> EliminateSuccess {
    debug_assert!(
        constraints.iter().all(|c| !c.mentions(sym)),
        "{step} left occurrences of {sym} behind"
    );
    EliminateSuccess { constraints, step }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapcomp_algebra::parse_constraints;

    fn sig() -> Signature {
        Signature::from_arities([("R", 1), ("S", 1), ("T", 1), ("U", 1), ("V", 1)])
    }

    fn config() -> ComposeConfig {
        ComposeConfig::default()
    }

    #[test]
    fn unfolding_preferred_over_composition() {
        // S = R would also be eliminable by left or right compose, but view
        // unfolding (step 1) must win.
        let constraints = parse_constraints("S = R; S <= T").unwrap().into_vec();
        let result =
            eliminate(&constraints, "S", &sig(), &Registry::standard(), &config()).unwrap();
        assert_eq!(result.step, EliminateStep::ViewUnfolding);
        assert!(result.constraints.iter().all(|c| !c.mentions("S")));
    }

    #[test]
    fn example_3_containment_chain() {
        // R ⊆ S, S ⊆ T composes to R ⊆ T (paper Example 3) via left or right
        // compose.
        let constraints = parse_constraints("R <= S; S <= T").unwrap().into_vec();
        let result =
            eliminate(&constraints, "S", &sig(), &Registry::standard(), &config()).unwrap();
        assert_eq!(result.constraints, parse_constraints("R <= T").unwrap().into_vec());
    }

    #[test]
    fn disabled_steps_report_disabled() {
        let constraints = parse_constraints("R <= S; S <= T").unwrap().into_vec();
        let config = ComposeConfig {
            enable_view_unfolding: false,
            enable_left_compose: false,
            enable_right_compose: false,
            ..ComposeConfig::default()
        };
        let failure =
            eliminate(&constraints, "S", &sig(), &Registry::standard(), &config).unwrap_err();
        assert_eq!(failure.view_unfolding, FailureReason::Disabled);
        assert_eq!(failure.left_compose, FailureReason::Disabled);
        assert_eq!(failure.right_compose, FailureReason::Disabled);
    }

    #[test]
    fn left_compose_rescues_cases_right_compose_cannot() {
        // Example 10: R ⊆ S ∪ T with π(S) ⊆ U — right compose fails because
        // R − ... wait, here the blocking constraint for right compose is the
        // anti-monotone occurrence in R − S below; left compose succeeds.
        let constraints = parse_constraints("R - S <= T; project[0](S) <= U").unwrap().into_vec();
        let result =
            eliminate(&constraints, "S", &sig(), &Registry::standard(), &config()).unwrap();
        assert_eq!(result.step, EliminateStep::LeftCompose);
    }

    #[test]
    fn transitive_closure_example_cannot_be_eliminated() {
        // Paper §1.3: R ⊆ S, S = tc(S), S ⊆ T — S cannot be eliminated.
        let constraints = parse_constraints("R <= S; S = tc(S); S <= T").unwrap().into_vec();
        let failure =
            eliminate(&constraints, "S", &sig(), &Registry::standard(), &config()).unwrap_err();
        // View unfolding is blocked because the defining equality mentions S
        // on both sides; left and right compose are blocked by the same
        // constraint.
        assert_eq!(failure.view_unfolding, FailureReason::NoDefiningEquality);
        assert_eq!(failure.left_compose, FailureReason::SymbolOnBothSides);
        assert_eq!(failure.right_compose, FailureReason::SymbolOnBothSides);
    }

    #[test]
    fn unrelated_constraints_change_neither_failure_nor_success() {
        // S is pinned by the transitive closure; U and V are unrelated.
        let own = parse_constraints("R <= S; S = tc(S); S <= T").unwrap().into_vec();
        let mut all = parse_constraints("U <= V").unwrap().into_vec();
        all.extend(own.iter().cloned());
        all.extend(parse_constraints("V - U <= R").unwrap().into_vec());
        let registry = Registry::standard();
        let on_own = eliminate(&own, "S", &sig(), &registry, &config()).unwrap_err();
        let on_all = eliminate(&all, "S", &sig(), &registry, &config()).unwrap_err();
        assert_eq!(on_all, on_own);
        let refs: Vec<&Constraint> = own.iter().collect();
        assert_eq!(deciding_constraints(&all, "S"), Some(refs));

        // A success still rewrites the full set.
        let all = parse_constraints("U <= V; R <= S; S <= T; V - U <= R").unwrap().into_vec();
        let result = eliminate(&all, "S", &sig(), &registry, &config()).unwrap();
        let expected = parse_constraints("U <= V; V - U <= R; R <= T").unwrap().into_vec();
        assert_eq!(result.constraints.len(), 3);
        assert!(expected.iter().all(|c| result.constraints.contains(c)), "{:?}", result);
    }

    #[test]
    fn right_compose_used_when_left_fails() {
        // S ∩ T ⊆ U has no left-normalization rule for ∩, so left compose
        // fails; right compose substitutes the lower bound V for S.
        let constraints = parse_constraints("S & T <= U; V <= S").unwrap().into_vec();
        let failure_free =
            eliminate(&constraints, "S", &sig(), &Registry::standard(), &config()).unwrap();
        assert_eq!(failure_free.step, EliminateStep::RightCompose);
        assert!(failure_free.constraints.iter().all(|c| !c.mentions("S")));
        assert!(failure_free
            .constraints
            .contains(&parse_constraints("V & T <= U").unwrap().into_vec()[0]));
    }
}
