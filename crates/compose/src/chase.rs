//! The chase core: one rule compiler, one firing function and one
//! from-scratch fixpoint driver, shared by [`crate::exchange()`] and
//! [`crate::differential::DifferentialChase`].
//!
//! [`compile_rules`] turns constraints into [`ChaseRule`]s. Every
//! containment direction whose conclusion mentions a target relation and
//! converts to a Skolem-free conjunctive form becomes a rule; its premise is
//! converted to conjunctive form once, and the indexed
//! [`PremisePlan`] is built from that form.
//!
//! The driver runs the rules to a fixpoint under one of two firing tests:
//!
//! * **restricted** (one-shot `exchange()`): a premise tuple fires only
//!   while the conclusion is not yet satisfied for it, and labelled nulls
//!   are numbered sequentially (`_null1`, `_null2`, …);
//! * **oblivious** (maintained `DifferentialChase` sessions, the one chase
//!   the service serves): every derivable premise tuple fires exactly
//!   once, each null is named from the firing that invents it (a hash of
//!   rule, variable and premise tuple), and every target tuple counts its
//!   derivations. The result is the least fixpoint of a monotone operator
//!   — a pure function of the source, reached in any order.
//!
//! Evaluation is semi-naive with per-rule cursors. One persistent
//! hash-indexed frontier (source ∪ target, [`TupleIndex`]) is updated in
//! place as firings land, and every novel row of a plan-read relation is
//! appended to an insertion log. A planned rule evaluates its premise in
//! full once, then only against the log suffix past its cursor; a rule
//! whose premise relations saw no insertions is skipped outright. Premises
//! outside the plannable fragment fall back to full expression evaluation
//! over a copy-free [`DeltaInstance`] view, and the active domain is
//! maintained only when such an evaluation can range over it.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use mapcomp_algebra::{
    AlgebraError, Constraint, DeltaInstance, Evaluator, Expr, Instance, Relation, Signature, Tuple,
    Value,
};

use crate::cq::{expr_to_conjunctive, Conjunctive, Term};
use crate::differential::TargetText;
use crate::exchange::ExchangeConfig;
use crate::plan::{PremisePlan, TupleIndex, WorkBudget};
use crate::registry::Registry;

/// A constraint prepared for chasing: a premise, a conjunctive conclusion
/// over target relations, and everything the chase derives from them once.
#[derive(Debug, Clone)]
pub struct ChaseRule {
    /// The containment this rule was built from; its left-hand side is the
    /// premise expression.
    pub origin: Constraint,
    /// The premise in conjunctive form; `None` outside the fragment
    /// (unions, differences, non-equality selections, user-defined
    /// operators).
    pub premise: Option<Conjunctive>,
    /// The conclusion in conjunctive form.
    pub conclusion: Conjunctive,
    /// Conclusion body variables that take fresh labelled nulls when the
    /// rule fires: bound neither by a head variable nor by a constant.
    pub existentials: Vec<usize>,
    /// Expression recomputing the currently derivable conclusion heads: the
    /// restricted chase's satisfaction check, or why there is none.
    pub check: Result<Expr, String>,
    /// Indexed plan for the premise; `None` when the premise is outside the
    /// plannable fragment.
    pub plan: Option<PremisePlan>,
    /// The conclusion atoms over target relations, in order: the rows a
    /// firing lands. Atoms over source relations cannot be chased into and
    /// act only as conditions.
    pub(crate) writes: Vec<TargetAtom>,
}

/// One conclusion atom over a target relation: a row each firing lands.
#[derive(Debug, Clone)]
pub(crate) struct TargetAtom {
    /// Position of the atom in the conclusion.
    atom: usize,
    /// Its relation: one allocation per name across the rule set, shared by
    /// every row the rule set lands there.
    rel: Arc<str>,
    /// Are the atom's arguments the conclusion head's distinct variables,
    /// in order? A firing then lands the premise tuple itself.
    copies_head: bool,
}

impl ChaseRule {
    /// Relations the premise reads, sorted.
    pub fn premise_relations(&self) -> Vec<String> {
        self.origin.lhs.relations().into_iter().collect()
    }
}

/// Compile the chase rules for `(constraints, full_sig, target_sig)`, in
/// chase order, plus the constraints that cannot be chased with the reason.
///
/// `full_sig` must cover every relation the constraints mention; relations
/// outside `target_sig` are source data. Equalities contribute both
/// directions; only directions whose conclusion mentions a target relation
/// are considered at all.
pub fn compile_rules(
    constraints: &[Constraint],
    full_sig: &Signature,
    target_sig: &Signature,
) -> (Vec<ChaseRule>, Vec<(Constraint, String)>) {
    let mut rules = Vec::new();
    let mut skipped = Vec::new();
    let mut names: BTreeSet<Arc<str>> = BTreeSet::new();
    for containment in constraints.iter().flat_map(Constraint::as_containments) {
        if !containment.rhs.relations().iter().any(|name| target_sig.contains(name)) {
            continue;
        }
        let conclusion = match expr_to_conjunctive(&containment.rhs, full_sig) {
            Ok(conclusion) if conclusion.head.iter().any(Term::has_func) => {
                skipped.push((containment, "conclusion contains Skolem functions".to_string()));
                continue;
            }
            Ok(conclusion) => conclusion,
            Err(reason) => {
                skipped.push((containment, reason));
                continue;
            }
        };
        let premise = expr_to_conjunctive(&containment.lhs, full_sig).ok();
        let plan = premise.clone().and_then(PremisePlan::from_conjunctive);
        let head = conclusion.head_universal_vars();
        let existentials = conclusion
            .body_vars()
            .into_iter()
            .filter(|var| !head.contains(var) && !conclusion.const_of.contains_key(var))
            .collect();
        let head_vars: Vec<usize> = conclusion
            .head
            .iter()
            .map_while(|term| if let Term::Var(var) = term { Some(*var) } else { None })
            .collect();
        let distinct_head = head_vars.len() == conclusion.head.len()
            && head_vars.iter().collect::<BTreeSet<_>>().len() == head_vars.len();
        let writes = conclusion
            .atoms
            .iter()
            .enumerate()
            .filter(|(_, atom)| target_sig.contains(&atom.rel))
            .map(|(index, atom)| {
                let rel = match names.get(atom.rel.as_str()) {
                    Some(name) => name.clone(),
                    None => {
                        let name: Arc<str> = atom.rel.as_str().into();
                        names.insert(name.clone());
                        name
                    }
                };
                let copies_head = distinct_head && atom.args == head_vars;
                TargetAtom { atom: index, rel, copies_head }
            })
            .collect();
        rules.push(ChaseRule {
            check: conclusion.to_expr(),
            origin: containment,
            premise,
            conclusion,
            existentials,
            plan,
            writes,
        });
    }
    (rules, skipped)
}

/// The rule set of the restricted chase: rules without a satisfaction check
/// are moved to `skipped`, with the reason, after the compiler's own skips.
pub fn restricted_rules(
    rules: Vec<ChaseRule>,
    skipped: &mut Vec<(Constraint, String)>,
) -> Vec<ChaseRule> {
    rules
        .into_iter()
        .filter(|rule| match &rule.check {
            Ok(_) => true,
            Err(reason) => {
                skipped.push((rule.origin.clone(), reason.clone()));
                false
            }
        })
        .collect()
}

/// The firing test of a chase run (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Firing {
    /// Fire unsatisfied premise tuples; number nulls sequentially.
    Restricted,
    /// Fire every premise tuple once; name nulls by content; count support.
    Oblivious,
}

impl Firing {
    fn label(self) -> &'static str {
        match self {
            Firing::Restricted => "restricted",
            Firing::Oblivious => "oblivious",
        }
    }
}

/// The tuples one rule firing requires: head variables take the premise
/// tuple's values, constants bind from the conclusion, and every remaining
/// body variable takes a fresh labelled null, counted in `nulls` and named
/// by the firing test. One entry per [`ChaseRule::writes`] atom; an atom
/// that copies the head is the premise tuple itself, not a copy of it.
pub(crate) fn fire(
    rule: &ChaseRule,
    rule_index: usize,
    premise_tuple: &Tuple,
    firing: Firing,
    nulls: &mut usize,
) -> Vec<Row> {
    let mut binding: BTreeMap<usize, Value> = BTreeMap::new();
    for (term, value) in rule.conclusion.head.iter().zip(premise_tuple.iter()) {
        if let Term::Var(var) = term {
            binding.insert(*var, value.clone());
        }
    }
    for (var, constant) in &rule.conclusion.const_of {
        binding.entry(*var).or_insert_with(|| constant.clone());
    }
    for var in rule.conclusion.body_vars() {
        binding.entry(var).or_insert_with(|| {
            *nulls += 1;
            Value::Str(match firing {
                Firing::Restricted => format!("_null{nulls}"),
                Firing::Oblivious => skolem_null(rule_index, var, premise_tuple),
            })
        });
    }
    let copies = premise_tuple.len() == rule.conclusion.head.len();
    rule.writes
        .iter()
        .map(|write| {
            let tuple = if write.copies_head && copies {
                premise_tuple.clone()
            } else {
                let args = &rule.conclusion.atoms[write.atom].args;
                args.iter().map(|var| binding.get(var).cloned().unwrap_or(Value::Null)).collect()
            };
            (write.rel.clone(), tuple)
        })
        .collect()
}

/// The content-addressed labelled-null name for (rule, existential
/// variable, premise tuple): two chained FNV-1a hashes over the rendered
/// firing identity. Stable across engine instances, so a rebuilt or
/// re-chased state names every null identically.
fn skolem_null(rule_index: usize, var: usize, premise_tuple: &[Value]) -> String {
    let mut payload = format!("{rule_index}\u{1f}{var}");
    for value in premise_tuple {
        payload.push('\u{1f}');
        payload.push_str(&value.to_string());
    }
    let h1 = fnv1a(0xcbf2_9ce4_8422_2325, payload.as_bytes());
    let h2 = fnv1a(h1 ^ 0x9e37_79b9_7f4a_7c15, payload.as_bytes());
    format!("_null{h1:016x}{h2:016x}")
}

fn fnv1a(seed: u64, bytes: &[u8]) -> u64 {
    let mut hash = seed;
    for byte in bytes {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Relations read by any compiled premise plan: the live frontier indexes
/// exactly these.
pub(crate) fn plan_relations(rules: &[ChaseRule]) -> BTreeSet<Arc<str>> {
    let plans = rules.iter().filter_map(|rule| rule.plan.as_ref());
    plans.flat_map(PremisePlan::relations).map(|rel| rel.as_str().into()).collect()
}

/// A row in flight between chase steps, with its relation.
pub(crate) type Row = (Arc<str>, Tuple);

/// Index a row list by relation.
pub(crate) fn index_rows<'a>(rows: impl IntoIterator<Item = &'a Row>) -> TupleIndex {
    let mut grouped: BTreeMap<String, Vec<Tuple>> = BTreeMap::new();
    for (rel, tuple) in rows {
        match grouped.get_mut(&**rel) {
            Some(group) => group.push(tuple.clone()),
            None => {
                grouped.insert(rel.to_string(), vec![tuple.clone()]);
            }
        }
    }
    TupleIndex::from_rows(grouped)
}

/// The state a chase run builds (and a differential session maintains).
pub(crate) struct ChaseState {
    pub(crate) target: Instance,
    /// Hash-indexed live rows of every plan-read relation (source ∪
    /// target), updated in place.
    pub(crate) live: TupleIndex,
    /// Oblivious: premise tuples fired, per rule. A firing is active while
    /// its premise tuple is derivable.
    pub(crate) fired: Vec<BTreeSet<Tuple>>,
    /// Oblivious: active derivation count per target tuple, one per (rule,
    /// premise tuple, conclusion atom) occurrence. A tuple lives in the
    /// target iff its support is positive.
    pub(crate) support: BTreeMap<Row, usize>,
    /// Labelled nulls minted (oblivious: minus those retracted since).
    pub(crate) nulls: usize,
    /// Binding rows charged by plan evaluations.
    pub(crate) work: usize,
    /// Rounds executed.
    pub(crate) rounds: usize,
    /// Did the run reach a fixpoint (as opposed to a limit)?
    pub(crate) converged: bool,
    /// Rows materialised into `live`: the one-time source snapshot plus one
    /// in-place insert per novel target row.
    pub(crate) frontier_rows: usize,
    /// Rules dropped at run time (evaluation errors), with the reason.
    pub(crate) dropped: Vec<(Constraint, String)>,
    /// Active domain of source ∪ target; `None` when no evaluation needs it.
    domain: Option<BTreeSet<Value>>,
    /// The differential engine's maintained target text, whose chunks the
    /// rows landing in the target mark dirty; `None` in from-scratch runs,
    /// whose text (if any) is rendered in full afterwards.
    pub(crate) text: Option<TargetText>,
}

impl ChaseState {
    /// Add one derived row: count its support (oblivious), and if it is new
    /// to the target, materialise it into the target, the domain and the
    /// live frontier — appending it to `log` when the frontier gained it —
    /// and mark its chunk of the maintained text dirty.
    pub(crate) fn land(
        &mut self,
        (rel, row): Row,
        firing: Firing,
        read_rels: &BTreeSet<Arc<str>>,
        log: &mut Vec<Row>,
    ) {
        let novel = match firing {
            Firing::Restricted => !self.target.contains(&rel, &row),
            Firing::Oblivious => {
                let support = self.support.entry((rel.clone(), row.clone())).or_insert(0);
                *support += 1;
                *support == 1
            }
        };
        if !novel {
            return;
        }
        if let Some(domain) = &mut self.domain {
            domain.extend(row.iter().cloned());
        }
        // Rows already live (a target tuple duplicating a source tuple) add
        // nothing to any join: they stay out of the frontier and the log.
        if read_rels.contains(&rel) && self.live.insert_row(&rel, row.clone()) {
            self.frontier_rows += 1;
            log.push((rel.clone(), row.clone()));
        }
        if let Some(text) = &mut self.text {
            text.mark(&rel, &row);
        }
        self.target.insert(&rel, row);
    }

    /// Fire `rule` obliviously on `premise_tuple`: record the firing and
    /// land its rows. Fails, changing nothing, when the firing would exceed
    /// `max_nulls`.
    pub(crate) fn fire_oblivious(
        &mut self,
        (rule_index, rule): (usize, &ChaseRule),
        premise_tuple: &Tuple,
        max_nulls: usize,
        read_rels: &BTreeSet<Arc<str>>,
        log: &mut Vec<Row>,
    ) -> Result<(), AlgebraError> {
        let mut nulls = self.nulls;
        let rows = fire(rule, rule_index, premise_tuple, Firing::Oblivious, &mut nulls);
        if nulls > max_nulls {
            return Err(AlgebraError::EvalBudgetExceeded { budget: max_nulls });
        }
        self.nulls = nulls;
        self.fired[rule_index].insert(premise_tuple.clone());
        for row in rows {
            self.land(row, Firing::Oblivious, read_rels, log);
        }
        Ok(())
    }
}

/// Per-rule bookkeeping of one driver run.
#[derive(Default)]
struct Cursor {
    /// Log position up to which the rule has seen the state.
    seen: usize,
    /// Has the premise been evaluated in full at least once?
    initialized: bool,
    /// Set once the rule is dropped, so it is reported once, not retried.
    dropped: bool,
    /// Restricted: planned premise tuples fired but not yet confirmed
    /// satisfied; rechecked (and, for conclusions over source relations,
    /// refired) on the rule's next visit.
    pending: BTreeSet<Tuple>,
}

/// Chase `source` with `rules` from scratch under `firing`, until a
/// fixpoint, `max_rounds`, or `max_nulls`. A round visits every live rule
/// once, in order.
pub(crate) fn chase(
    rules: &[ChaseRule],
    full_sig: &Signature,
    source: &Instance,
    registry: &Registry,
    config: &ExchangeConfig,
    firing: Firing,
) -> ChaseState {
    let read_rels = plan_relations(rules);
    let live = TupleIndex::from_layers(&[source], read_rels.iter());
    let needs_domain = rules.iter().any(|rule| {
        rule.plan.is_none()
            || (firing == Firing::Restricted
                && rule.check.as_ref().is_ok_and(Expr::mentions_domain))
    });
    let mut state = ChaseState {
        target: Instance::new(),
        frontier_rows: read_rels.iter().map(|rel| live.row_count(rel)).sum(),
        live,
        fired: vec![BTreeSet::new(); rules.len()],
        support: BTreeMap::new(),
        nulls: 0,
        work: 0,
        rounds: 0,
        converged: false,
        dropped: Vec::new(),
        domain: needs_domain.then(|| source.active_domain()),
        text: None,
    };
    // Append-only record of rows novel to the live frontier; each rule's
    // delta is the suffix after its own cursor.
    let mut log: Vec<Row> = Vec::new();
    let mut cursors: Vec<Cursor> = rules.iter().map(|_| Cursor::default()).collect();
    let (rounds_metric, frontier_metric) = chase_telemetry(firing);

    while state.rounds < config.max_rounds {
        state.rounds += 1;
        rounds_metric.incr();
        let round_start = log.len();
        let mut changed = false;
        for (index, rule) in rules.iter().enumerate() {
            let cursor = &mut cursors[index];
            if cursor.dropped {
                continue;
            }
            let (candidates, satisfied) = match visit(
                rule, cursor, &log, &mut state, full_sig, source, registry, config, firing,
            ) {
                Ok(found) => found,
                Err(reason) => {
                    cursor.dropped = true;
                    state.dropped.push((rule.origin.clone(), reason));
                    continue;
                }
            };
            // Rows this visit lands are past the cursor: the rule sees its
            // own insertions on its next visit.
            cursor.seen = log.len();
            cursor.initialized = true;
            for tuple in &candidates {
                match firing {
                    Firing::Restricted => {
                        if satisfied.as_ref().is_some_and(|check| check.contains(tuple)) {
                            cursor.pending.remove(tuple);
                            continue;
                        }
                        if state.nulls >= config.max_nulls {
                            return state;
                        }
                        let rows = fire(rule, index, tuple, firing, &mut state.nulls);
                        if rule.plan.is_some() {
                            cursor.pending.insert(tuple.clone());
                        }
                        for row in rows {
                            state.land(row, firing, &read_rels, &mut log);
                        }
                    }
                    Firing::Oblivious => {
                        if state.fired[index].contains(tuple) {
                            continue;
                        }
                        let (max_nulls, rule) = (config.max_nulls, (index, rule));
                        let fired =
                            state.fire_oblivious(rule, tuple, max_nulls, &read_rels, &mut log);
                        if fired.is_err() {
                            return state;
                        }
                    }
                }
                changed = true;
            }
        }
        frontier_metric.observe((log.len() - round_start) as u64);
        if !changed {
            state.converged = true;
            break;
        }
    }
    state
}

/// One rule visit's evaluation: the premise tuples to consider and, for a
/// restricted visit with candidates, the satisfied conclusion heads —
/// decided against the state before any of the visit's firings. `Err` is
/// the reason to drop the rule.
#[allow(clippy::too_many_arguments)]
fn visit(
    rule: &ChaseRule,
    cursor: &Cursor,
    log: &[Row],
    state: &mut ChaseState,
    full_sig: &Signature,
    source: &Instance,
    registry: &Registry,
    config: &ExchangeConfig,
    firing: Firing,
) -> Result<(BTreeSet<Tuple>, Option<Relation>), String> {
    let view = DeltaInstance::new(source, &state.target);
    // Cloning the domain is only needed when an evaluator is actually
    // built; most planned-rule visits never do.
    let evaluator = || {
        Evaluator::with_parts(
            full_sig,
            registry.operators(),
            &view,
            state.domain.iter().flatten().cloned().collect(),
            Some(config.eval_budget),
        )
    };
    let restricted = firing == Firing::Restricted;
    let check = rule.check.as_ref().ok().filter(|_| restricted);
    let check_failed = |reason| format!("satisfaction check not evaluable: {reason}");
    let premise_failed = |reason| format!("premise not evaluable: {reason}");
    let Some(plan) = &rule.plan else {
        // Unplannable premise: full evaluation over the layered view every
        // visit, sharing one budget with the satisfaction check.
        let evaluator = evaluator();
        let premise_tuples = evaluator.eval(&rule.origin.lhs).map_err(premise_failed)?;
        let satisfied = match check {
            Some(check) if !premise_tuples.is_empty() => {
                Some(evaluator.eval(check).map_err(check_failed)?)
            }
            _ => None,
        };
        return Ok((premise_tuples.into_iter().collect(), satisfied));
    };
    let mut work = WorkBudget::new(config.eval_budget);
    let mut delta =
        log[cursor.seen..].iter().filter(|(rel, _)| plan.relations().contains(&**rel)).peekable();
    let evaluated = if !cursor.initialized {
        // First visit: a full indexed join over the live frontier, already
        // up to date with every earlier firing.
        plan.eval_full(&state.live, &mut work)
    } else if delta.peek().is_some() {
        // Non-delta atoms range over the live frontier, which holds each
        // row exactly once; the delta rows anchor the join.
        plan.eval_delta(&state.live, &index_rows(delta), &mut work)
    } else {
        Ok(BTreeSet::new())
    };
    state.work += work.used();
    let mut candidates = evaluated.map_err(premise_failed)?;
    let Some(check) = check else { return Ok((candidates, None)) };
    candidates.extend(cursor.pending.iter().cloned());
    if candidates.is_empty() {
        return Ok((candidates, None));
    }
    Ok((candidates, Some(evaluator().eval(check).map_err(check_failed)?)))
}

/// The chase-progress metrics for one firing test: rounds executed and the
/// per-round frontier size (novel tuples a round hands to the next one).
fn chase_telemetry(
    firing: Firing,
) -> (&'static mapcomp_telemetry::metrics::Counter, &'static mapcomp_telemetry::metrics::Histogram)
{
    let registry = mapcomp_telemetry::metrics::global();
    let labels = [("firing", firing.label())];
    (
        registry.counter("chase_rounds_total", "Chase rounds executed, per firing test.", &labels),
        registry.histogram(
            "chase_frontier_size",
            "Novel tuples produced per chase round, per firing test.",
            &labels,
            mapcomp_telemetry::metrics::SIZE_BOUNDS,
        ),
    )
}
