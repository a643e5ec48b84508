//! Rule-level linter with stable diagnostic codes.
//!
//! Each smell the analyzer can flag has a stable kebab-case code, styled
//! after the service layer's wire error-code table: codes round-trip through
//! [`LintCode::as_str`] / [`LintCode::parse`], the full set lives in
//! [`LintCode::ALL`], and `docs/ANALYSIS.md`'s code table is checked against
//! `ALL` by `tests/docs_examples.rs`. Diagnostics sort by
//! `(rule index, code, position)` so output is byte-stable across runs.

use std::collections::BTreeMap;
use std::fmt;

use mapcomp_compose::cq::{Conjunctive, Term};

use crate::rules::RuleSet;

/// Stable lint diagnostic codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LintCode {
    /// A premise head variable bound by neither a premise atom nor a
    /// selection constant: it ranges over the whole active domain, so the
    /// rule's firings grow with every invented null.
    UnboundHead,
    /// A premise variable used exactly once, in a multi-atom join: it
    /// constrains nothing and usually signals a typo in a join column.
    UnusedPremiseVar,
    /// A multi-atom premise whose atoms share no variables: the rule ranges
    /// over a full cartesian product.
    CartesianJoin,
    /// A rule textually identical to an earlier rule.
    DuplicateRule,
    /// A rule whose premise and conclusion are structurally identical to an
    /// earlier rule's (same canonical conjunctive forms) without being
    /// textually identical.
    ShadowedRule,
    /// A relation declared with conflicting arities across the signatures of
    /// a composed chain.
    ArityMismatch,
}

impl LintCode {
    /// Every code, in code-string order.
    pub const ALL: [LintCode; 6] = [
        LintCode::ArityMismatch,
        LintCode::CartesianJoin,
        LintCode::DuplicateRule,
        LintCode::ShadowedRule,
        LintCode::UnboundHead,
        LintCode::UnusedPremiseVar,
    ];

    /// The stable wire/text form of the code.
    pub fn as_str(self) -> &'static str {
        match self {
            LintCode::UnboundHead => "unbound-head",
            LintCode::UnusedPremiseVar => "unused-premise-var",
            LintCode::CartesianJoin => "cartesian-join",
            LintCode::DuplicateRule => "duplicate-rule",
            LintCode::ShadowedRule => "shadowed-rule",
            LintCode::ArityMismatch => "arity-mismatch",
        }
    }

    /// Parse the stable text form back into a code.
    pub fn parse(text: &str) -> Option<LintCode> {
        LintCode::ALL.into_iter().find(|code| code.as_str() == text)
    }
}

impl fmt::Display for LintCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule index the finding is anchored to; `None` for findings about the
    /// rule set as a whole (e.g. signature conflicts).
    pub rule: Option<usize>,
    /// Stable diagnostic code.
    pub code: LintCode,
    /// Position within the rule (`head.2`, `R.0`), empty when the finding
    /// has no position.
    pub position: String,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lint[{}]", self.code)?;
        if let Some(rule) = self.rule {
            write!(f, " rule {rule}")?;
        }
        if !self.position.is_empty() {
            write!(f, " at {}", self.position)?;
        }
        write!(f, ": {}", self.message)
    }
}

/// Sort diagnostics into the stable output order: rule index (rule-set-wide
/// findings last), then code string, then position.
pub fn sort(diagnostics: &mut [Diagnostic]) {
    diagnostics.sort_by(|a, b| {
        let rule_key = |d: &Diagnostic| (d.rule.is_none(), d.rule);
        rule_key(a)
            .cmp(&rule_key(b))
            .then_with(|| a.code.as_str().cmp(b.code.as_str()))
            .then_with(|| a.position.cmp(&b.position))
    });
}

/// A rule-set-wide arity-mismatch finding (conflicting signatures).
pub fn signature_conflict(detail: &str) -> Diagnostic {
    Diagnostic {
        rule: None,
        code: LintCode::ArityMismatch,
        position: String::new(),
        message: format!("signatures declare conflicting arities: {detail}"),
    }
}

/// Run every rule-level lint over an extracted rule set. The result is not
/// yet sorted — callers compose findings from several passes and [`sort`]
/// once.
pub fn lint_rules(rule_set: &RuleSet) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (index, rule) in rule_set.rules.iter().enumerate() {
        if let Some(premise) = &rule.premise {
            lint_unbound_head(index, premise, &mut out);
            lint_unused_premise_vars(index, premise, &mut out);
            lint_cartesian_join(index, premise, &mut out);
        }
        lint_repeats(index, rule_set, &mut out);
    }
    out
}

/// `unbound-head`: a premise head variable with no binding occurrence.
fn lint_unbound_head(index: usize, premise: &Conjunctive, out: &mut Vec<Diagnostic>) {
    let body = premise.body_vars();
    for (col, term) in premise.head.iter().enumerate() {
        let unbound: Vec<usize> = term
            .vars()
            .into_iter()
            .filter(|v| !body.contains(v) && !premise.const_of.contains_key(v))
            .collect();
        if !unbound.is_empty() {
            out.push(Diagnostic {
                rule: Some(index),
                code: LintCode::UnboundHead,
                position: format!("head.{col}"),
                message: "premise head variable is bound by no atom or constant; \
                          it ranges over the whole active domain"
                    .to_string(),
            });
        }
    }
}

/// `unused-premise-var`: a join variable used exactly once.
fn lint_unused_premise_vars(index: usize, premise: &Conjunctive, out: &mut Vec<Diagnostic>) {
    if premise.atoms.len() < 2 {
        // Single-atom premises project columns away idiomatically.
        return;
    }
    let head = premise.head_universal_vars();
    let head_func_vars: std::collections::BTreeSet<usize> =
        premise.head.iter().flat_map(Term::vars).collect();
    let mut occurrence: BTreeMap<usize, Vec<(usize, usize)>> = BTreeMap::new();
    for (a, atom) in premise.atoms.iter().enumerate() {
        for (col, &var) in atom.args.iter().enumerate() {
            occurrence.entry(var).or_default().push((a, col));
        }
    }
    for (var, places) in occurrence {
        if places.len() != 1
            || head.contains(&var)
            || head_func_vars.contains(&var)
            || premise.const_of.contains_key(&var)
        {
            continue;
        }
        let (atom, col) = places[0];
        out.push(Diagnostic {
            rule: Some(index),
            code: LintCode::UnusedPremiseVar,
            position: format!("{}.{col}", premise.atoms[atom].rel),
            message: "premise variable occurs once and constrains nothing".to_string(),
        });
    }
}

/// `cartesian-join`: the premise's variable-sharing graph is disconnected.
fn lint_cartesian_join(index: usize, premise: &Conjunctive, out: &mut Vec<Diagnostic>) {
    if premise.atoms.len() < 2 {
        return;
    }
    // Union-find over atoms, joined when two atoms share a variable that is
    // not fixed to a constant (constant-bound columns are filters, not
    // joins).
    let mut component: Vec<usize> = (0..premise.atoms.len()).collect();
    fn root(component: &mut [usize], mut i: usize) -> usize {
        while component[i] != i {
            component[i] = component[component[i]];
            i = component[i];
        }
        i
    }
    let mut owner: BTreeMap<usize, usize> = BTreeMap::new();
    for (a, atom) in premise.atoms.iter().enumerate() {
        for &var in &atom.args {
            if premise.const_of.contains_key(&var) {
                continue;
            }
            match owner.get(&var) {
                Some(&first) => {
                    let (ra, rb) = (root(&mut component, a), root(&mut component, first));
                    component[ra] = rb;
                }
                None => {
                    owner.insert(var, a);
                }
            }
        }
    }
    let base = root(&mut component, 0);
    for a in 1..premise.atoms.len() {
        if root(&mut component, a) != base {
            out.push(Diagnostic {
                rule: Some(index),
                code: LintCode::CartesianJoin,
                position: format!("{}.0", premise.atoms[a].rel),
                message: "premise atom shares no variable with the rest of the join; \
                          the rule ranges over a cartesian product"
                    .to_string(),
            });
            return; // one finding per rule is enough
        }
    }
}

/// `duplicate-rule` / `shadowed-rule`: textual or structural repeats of an
/// earlier rule.
fn lint_repeats(index: usize, rule_set: &RuleSet, out: &mut Vec<Diagnostic>) {
    let rule = &rule_set.rules[index];
    let text = rule.origin.to_string();
    for (earlier_index, earlier) in rule_set.rules[..index].iter().enumerate() {
        if earlier.origin.to_string() == text {
            out.push(Diagnostic {
                rule: Some(index),
                code: LintCode::DuplicateRule,
                position: String::new(),
                message: format!("rule repeats rule {earlier_index} verbatim"),
            });
            return;
        }
        let same_structure = earlier.conclusion == rule.conclusion
            && match (&earlier.premise, &rule.premise) {
                (Some(a), Some(b)) => a == b,
                (None, None) => earlier.premise_relations() == rule.premise_relations(),
                _ => false,
            };
        if same_structure {
            out.push(Diagnostic {
                rule: Some(index),
                code: LintCode::ShadowedRule,
                position: String::new(),
                message: format!(
                    "rule is structurally identical to rule {earlier_index} and adds nothing"
                ),
            });
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::extract_rules;
    use mapcomp_algebra::{parse_constraints, Signature};

    fn lint(text: &str, rels: &[(&str, usize)], target: &[(&str, usize)]) -> Vec<Diagnostic> {
        let full = Signature::from_arities(rels.iter().map(|&(n, a)| (n.to_string(), a)));
        let target = Signature::from_arities(target.iter().map(|&(n, a)| (n.to_string(), a)));
        let constraints = parse_constraints(text).unwrap();
        let mut out = lint_rules(&extract_rules(constraints.as_slice(), &full, &target));
        sort(&mut out);
        out
    }

    #[test]
    fn codes_round_trip_and_all_is_sorted() {
        for code in LintCode::ALL {
            assert_eq!(LintCode::parse(code.as_str()), Some(code));
        }
        let mut strings: Vec<&str> = LintCode::ALL.iter().map(|c| c.as_str()).collect();
        let original = strings.clone();
        strings.sort_unstable();
        assert_eq!(strings, original, "ALL is in code-string order");
        assert_eq!(LintCode::parse("no-such-code"), None);
    }

    #[test]
    fn clean_rules_produce_no_diagnostics() {
        assert!(lint("R <= S", &[("R", 1), ("S", 1)], &[("S", 1)]).is_empty());
    }

    #[test]
    fn cartesian_products_are_flagged() {
        let out = lint("project[0,2](R * T) <= S", &[("R", 2), ("T", 1), ("S", 2)], &[("S", 2)]);
        assert!(
            out.iter().any(|d| d.code == LintCode::CartesianJoin),
            "expected cartesian-join, got {out:?}"
        );
    }

    #[test]
    fn shared_join_variables_are_not_cartesian() {
        // select col0 = col2 joins R and T on a shared variable.
        let out = lint(
            "project[0,1](select[0=2](R * T)) <= S",
            &[("R", 2), ("T", 1), ("S", 2)],
            &[("S", 2)],
        );
        assert!(
            out.iter().all(|d| d.code != LintCode::CartesianJoin),
            "join on 0=2 connects the atoms: {out:?}"
        );
    }

    #[test]
    fn duplicate_rules_are_flagged_once() {
        let out = lint("R <= S; R <= S", &[("R", 1), ("S", 1)], &[("S", 1)]);
        let dupes: Vec<_> = out.iter().filter(|d| d.code == LintCode::DuplicateRule).collect();
        assert_eq!(dupes.len(), 1);
        assert_eq!(dupes[0].rule, Some(1));
    }

    #[test]
    fn display_renders_all_present_parts() {
        let d = Diagnostic {
            rule: Some(3),
            code: LintCode::UnboundHead,
            position: "head.1".to_string(),
            message: "m".to_string(),
        };
        assert_eq!(d.to_string(), "lint[unbound-head] rule 3 at head.1: m");
        let d = signature_conflict("R: 1 vs 2");
        assert_eq!(
            d.to_string(),
            "lint[arity-mismatch]: signatures declare conflicting arities: R: 1 vs 2"
        );
    }

    #[test]
    fn sort_is_stable_and_total() {
        let mut out = vec![
            signature_conflict("x"),
            Diagnostic {
                rule: Some(1),
                code: LintCode::UnboundHead,
                position: "head.0".into(),
                message: "m".into(),
            },
            Diagnostic {
                rule: Some(0),
                code: LintCode::UnusedPremiseVar,
                position: "R.1".into(),
                message: "m".into(),
            },
        ];
        sort(&mut out);
        assert_eq!(out[0].rule, Some(0));
        assert_eq!(out[1].rule, Some(1));
        assert_eq!(out[2].rule, None, "rule-set-wide findings sort last");
    }
}
