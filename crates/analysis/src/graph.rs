//! The position dependency graph and the weak-acyclicity decision.
//!
//! Nodes are `(relation, argument-position)` pairs. For every chase rule and
//! every universally quantified value the rule copies from its premise into
//! its conclusion, the graph gets a **regular** edge from each premise
//! position holding the value to each conclusion position receiving it; and
//! for every existential variable of the rule (a conclusion variable that
//! `mapcomp_compose::exchange` fills with a fresh labelled null),
//! a **existential** edge from each of those premise positions to each
//! position the null lands in. A rule set is *weakly acyclic* when no cycle
//! of the graph contains an existential edge — the classical sufficient
//! condition for chase termination, here adapted to the engine's algebraic
//! rules:
//!
//! * premises outside the conjunctive fragment contribute conservative
//!   edges from **every** position of every relation they read;
//! * a premise column fed by the active domain `D` (an unconstrained head
//!   variable) contributes edges from every position of every relation in
//!   the full signature — the active domain grows with every invented null,
//!   so such a rule can re-feed its own existentials and the conservative
//!   edges make that loop visible instead of unsound.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

use mapcomp_algebra::Signature;
use mapcomp_compose::cq::Term;

use crate::rules::RuleSet;

/// A node of the dependency graph: one argument position of one relation.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Position {
    /// Relation symbol.
    pub rel: String,
    /// 0-based column.
    pub col: usize,
}

impl Position {
    fn new(rel: &str, col: usize) -> Position {
        Position { rel: rel.to_string(), col }
    }
}

impl fmt::Display for Position {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.rel, self.col)
    }
}

/// Labels of one edge of the graph (parallel regular/existential edges
/// between the same pair of positions are merged into one record).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EdgeInfo {
    /// Does a regular (value-copying) edge connect the pair?
    pub regular: bool,
    /// Does an existential (null-inventing) edge connect the pair?
    pub existential: bool,
    /// Rules contributing any edge between the pair.
    pub rules: BTreeSet<usize>,
}

/// The position dependency graph of one rule set.
#[derive(Debug, Clone, Default)]
pub struct DepGraph {
    nodes: Vec<Position>,
    edges: BTreeMap<(usize, usize), EdgeInfo>,
}

/// A cycle through at least one existential edge: the witness rendered into
/// [`crate::Termination::Unknown`] diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CycleWitness {
    /// The cycle's positions in order (the first position is not repeated).
    pub positions: Vec<Position>,
    /// Edge kinds around the cycle: `existential[i]` labels the edge from
    /// `positions[i]` to `positions[(i + 1) % len]`.
    pub existential: Vec<bool>,
    /// Rules contributing the cycle's edges, ascending.
    pub rules: Vec<usize>,
}

impl fmt::Display for CycleWitness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, position) in self.positions.iter().enumerate() {
            let arrow = if self.existential[i] { "->*" } else { "->" };
            write!(f, "{position} {arrow} ")?;
        }
        // Close the cycle back at its first position.
        write!(f, "{}", self.positions[0])?;
        write!(f, " (rules")?;
        for rule in &self.rules {
            write!(f, " {rule}")?;
        }
        write!(f, ")")
    }
}

/// Where one premise column draws its values from.
enum Sources {
    /// A fixed constant: no dependency edges.
    None,
    /// Specific premise positions.
    Positions(Vec<Position>),
    /// The whole active domain (an unconstrained `D` column, or a premise
    /// outside the fragment that mentions `D`).
    Domain,
}

/// Build the dependency graph for a rule set.
pub fn build(rule_set: &RuleSet, full_sig: &Signature, target_sig: &Signature) -> DepGraph {
    let mut nodes: BTreeSet<Position> = BTreeSet::new();
    let mut edges: BTreeMap<(Position, Position), EdgeInfo> = BTreeMap::new();
    let all_positions = |sig: &Signature, rels: Option<&[String]>| -> Vec<Position> {
        sig.iter()
            .filter(|(name, _)| rels.is_none_or(|rels| rels.iter().any(|r| r == name)))
            .flat_map(|(name, info)| (0..info.arity).map(move |col| Position::new(name, col)))
            .collect()
    };

    for (index, rule) in rule_set.rules.iter().enumerate() {
        // Every position of every relation the rule touches is a node, so
        // the bound's `positions` parameter counts the live part of the
        // schema even where no edge lands.
        nodes.extend(all_positions(full_sig, Some(&rule.premise_relations())));
        let conclusion_rels: Vec<String> =
            rule.conclusion.atoms.iter().map(|atom| atom.rel.clone()).collect();
        nodes.extend(all_positions(full_sig, Some(&conclusion_rels)));

        // Positions a conclusion variable's value lands in: target-relation
        // atoms only, matching `fire()` (source atoms are never populated).
        let targets_of = |var: usize| -> Vec<Position> {
            rule.conclusion
                .atoms
                .iter()
                .filter(|atom| target_sig.contains(&atom.rel))
                .flat_map(|atom| {
                    atom.args
                        .iter()
                        .enumerate()
                        .filter(move |&(_, &arg)| arg == var)
                        .map(move |(col, _)| Position::new(&atom.rel, col))
                })
                .collect()
        };

        // Per head column: where the premise value comes from.
        let sources_of = |col: usize| -> Sources {
            match &rule.premise {
                Some(premise) => match premise.head.get(col) {
                    Some(Term::Const(_)) | None => Sources::None,
                    Some(term) => {
                        let vars = term.vars();
                        let mut positions = Vec::new();
                        for var in &vars {
                            if premise.const_of.contains_key(var) {
                                continue;
                            }
                            let mut occurrences = premise_positions(premise, *var);
                            if occurrences.is_empty() {
                                // An unconstrained variable: fed by `D`.
                                return Sources::Domain;
                            }
                            positions.append(&mut occurrences);
                        }
                        if positions.is_empty() {
                            Sources::None
                        } else {
                            positions.sort();
                            positions.dedup();
                            Sources::Positions(positions)
                        }
                    }
                },
                None => {
                    if rule.origin.lhs.mentions_domain() {
                        Sources::Domain
                    } else {
                        Sources::Positions(all_positions(full_sig, Some(&rule.premise_relations())))
                    }
                }
            }
        };

        let mut add_edge = |from: &Position, to: &Position, existential: bool| {
            nodes.insert(from.clone());
            nodes.insert(to.clone());
            let info = edges.entry((from.clone(), to.clone())).or_default();
            if existential {
                info.existential = true;
            } else {
                info.regular = true;
            }
            info.rules.insert(index);
        };

        // Regular edges: premise positions of each head column into the
        // positions its conclusion variable lands in.
        let mut all_sources: Vec<Position> = Vec::new();
        let mut domain_fed = false;
        for (col, term) in rule.conclusion.head.iter().enumerate() {
            let Term::Var(var) = term else { continue };
            if rule.conclusion.const_of.contains_key(var) {
                continue;
            }
            let sources = sources_of(col);
            let targets = targets_of(*var);
            match &sources {
                Sources::None => {}
                Sources::Positions(positions) => {
                    for from in positions {
                        for to in &targets {
                            add_edge(from, to, false);
                        }
                    }
                    all_sources.extend(positions.iter().cloned());
                }
                Sources::Domain => {
                    domain_fed = true;
                    for from in all_positions(full_sig, None) {
                        for to in &targets {
                            add_edge(&from, to, false);
                        }
                    }
                }
            }
        }

        // Existential edges: every premise position feeding the rule into
        // every position a fresh null lands in.
        let existential_positions: Vec<Position> = {
            let mut out: Vec<Position> =
                rule.existentials.iter().copied().flat_map(&targets_of).collect();
            out.sort();
            out.dedup();
            out
        };
        if !existential_positions.is_empty() {
            let froms: Vec<Position> = if domain_fed {
                all_positions(full_sig, None)
            } else {
                let mut froms = all_sources;
                froms.sort();
                froms.dedup();
                froms
            };
            for from in &froms {
                for to in &existential_positions {
                    add_edge(from, to, true);
                }
            }
        }
    }

    let nodes: Vec<Position> = nodes.into_iter().collect();
    let index_of: BTreeMap<&Position, usize> =
        nodes.iter().enumerate().map(|(i, p)| (p, i)).collect();
    let edges = edges
        .into_iter()
        .map(|((from, to), info)| ((index_of[&from], index_of[&to]), info))
        .collect();
    DepGraph { nodes, edges }
}

/// The positions a variable occupies in a premise's atoms.
fn premise_positions(premise: &mapcomp_compose::cq::Conjunctive, var: usize) -> Vec<Position> {
    premise
        .atoms
        .iter()
        .flat_map(|atom| {
            atom.args
                .iter()
                .enumerate()
                .filter(move |&(_, &arg)| arg == var)
                .map(move |(col, _)| Position::new(&atom.rel, col))
        })
        .collect()
}

impl DepGraph {
    /// The graph's nodes, sorted.
    pub fn positions(&self) -> &[Position] {
        &self.nodes
    }

    /// Number of position nodes.
    pub fn position_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of (merged) edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Decide weak acyclicity. `Ok(rank)` proves it, where `rank` is the
    /// maximum number of existential edges on any path of the graph (0 when
    /// the rule set invents no nulls at all); `Err(witness)` carries a cycle
    /// through an existential edge.
    pub fn weak_acyclicity(&self) -> Result<usize, CycleWitness> {
        let component = self.strongly_connected_components();
        // A violation is an existential edge inside one component.
        for (&(from, to), info) in &self.edges {
            if info.existential && component[from] == component[to] {
                return Err(self.witness(from, to, &component));
            }
        }
        Ok(self.max_rank(&component))
    }

    /// Iterative Tarjan: component id per node, ids in completion order
    /// (every successor component of a node's component has a smaller id).
    fn strongly_connected_components(&self) -> Vec<usize> {
        let n = self.nodes.len();
        let adjacency = self.adjacency();
        let mut index = vec![usize::MAX; n];
        let mut low = vec![0usize; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<usize> = Vec::new();
        let mut component = vec![usize::MAX; n];
        let mut next_index = 0usize;
        let mut components = 0usize;

        for start in 0..n {
            if index[start] != usize::MAX {
                continue;
            }
            // Explicit DFS frame: (node, next neighbour offset).
            let mut frames: Vec<(usize, usize)> = vec![(start, 0)];
            while let Some(&mut (node, ref mut offset)) = frames.last_mut() {
                if *offset == 0 {
                    index[node] = next_index;
                    low[node] = next_index;
                    next_index += 1;
                    stack.push(node);
                    on_stack[node] = true;
                }
                if let Some(&next) = adjacency[node].get(*offset) {
                    *offset += 1;
                    if index[next] == usize::MAX {
                        frames.push((next, 0));
                    } else if on_stack[next] {
                        low[node] = low[node].min(index[next]);
                    }
                } else {
                    frames.pop();
                    if let Some(&(parent, _)) = frames.last() {
                        low[parent] = low[parent].min(low[node]);
                    }
                    if low[node] == index[node] {
                        loop {
                            let member = stack.pop().expect("tarjan stack underflow");
                            on_stack[member] = false;
                            component[member] = components;
                            if member == node {
                                break;
                            }
                        }
                        components += 1;
                    }
                }
            }
        }
        component
    }

    fn adjacency(&self) -> Vec<Vec<usize>> {
        let mut adjacency = vec![Vec::new(); self.nodes.len()];
        for &(from, to) in self.edges.keys() {
            adjacency[from].push(to);
        }
        adjacency
    }

    /// Maximum number of existential edges on any path, given the component
    /// assignment of an (existential-)acyclic graph. Computed on the
    /// condensation in topological order (descending component id — Tarjan
    /// completes successors first).
    fn max_rank(&self, component: &[usize]) -> usize {
        let components = component.iter().copied().max().map_or(0, |max| max + 1);
        let mut rank = vec![0usize; components];
        // Condensation edges, deduped with the strongest label.
        let mut cond: BTreeMap<(usize, usize), bool> = BTreeMap::new();
        for (&(from, to), info) in &self.edges {
            let (cf, ct) = (component[from], component[to]);
            if cf == ct {
                continue; // regular-only internal edges don't raise the rank
            }
            let existential = cond.entry((cf, ct)).or_default();
            *existential |= info.existential;
        }
        let mut order: Vec<(usize, usize, bool)> =
            cond.into_iter().map(|((f, t), e)| (f, t, e)).collect();
        // Topological: sources have larger ids, so process descending.
        order.sort_by_key(|&(from, _, _)| std::cmp::Reverse(from));
        for (from, to, existential) in order {
            let candidate = rank[from] + usize::from(existential);
            if candidate > rank[to] {
                rank[to] = candidate;
            }
        }
        rank.into_iter().max().unwrap_or(0)
    }

    /// Build the witness for an existential edge `from -> to` inside one
    /// component: the edge itself plus the shortest path `to -> from` within
    /// the component (BFS in node order, so the witness is deterministic).
    fn witness(&self, from: usize, to: usize, component: &[usize]) -> CycleWitness {
        let adjacency = self.adjacency();
        let mut previous = vec![usize::MAX; self.nodes.len()];
        let mut queue = VecDeque::from([to]);
        let mut seen = vec![false; self.nodes.len()];
        seen[to] = true;
        while let Some(node) = queue.pop_front() {
            if node == from {
                break;
            }
            for &next in &adjacency[node] {
                if component[next] == component[to] && !seen[next] {
                    seen[next] = true;
                    previous[next] = node;
                    queue.push_back(next);
                }
            }
        }
        // Reconstruct to -> ... -> from, then prepend the witness edge.
        let mut path = vec![from];
        let mut node = from;
        while node != to {
            node = previous[node];
            path.push(node);
        }
        path.reverse(); // now: to, ..., from
        let mut positions = vec![self.nodes[from].clone()];
        positions.extend(path.iter().take(path.len() - 1).map(|&n| self.nodes[n].clone()));
        // Edge kinds around the cycle and the contributing rules.
        let mut existential = Vec::with_capacity(positions.len());
        let mut rules: BTreeSet<usize> = BTreeSet::new();
        let mut cycle_nodes: Vec<usize> = vec![from];
        cycle_nodes.extend(path.iter().take(path.len() - 1).copied());
        for i in 0..cycle_nodes.len() {
            let a = cycle_nodes[i];
            let b = cycle_nodes[(i + 1) % cycle_nodes.len()];
            let info = &self.edges[&(a, b)];
            // The witness edge is existential by construction; later edges
            // render as regular whenever a regular edge exists.
            existential.push(if i == 0 { true } else { !info.regular });
            rules.extend(info.rules.iter().copied());
        }
        CycleWitness { positions, existential, rules: rules.into_iter().collect() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::extract_rules;
    use mapcomp_algebra::parse_constraints;

    fn sig(pairs: &[(&str, usize)]) -> Signature {
        Signature::from_arities(pairs.iter().map(|&(n, a)| (n.to_string(), a)))
    }

    fn graph(text: &str, full: &[(&str, usize)], target: &[(&str, usize)]) -> DepGraph {
        let constraints = parse_constraints(text).unwrap();
        let full = sig(full);
        let target = sig(target);
        build(&extract_rules(constraints.as_slice(), &full, &target), &full, &target)
    }

    #[test]
    fn copy_rule_edges_are_regular() {
        let g = graph("R <= S", &[("R", 1), ("S", 1)], &[("S", 1)]);
        assert_eq!(g.position_count(), 2);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.weak_acyclicity(), Ok(0));
    }

    #[test]
    fn existential_chain_has_rank_one() {
        let g = graph("R <= project[0](S)", &[("R", 1), ("S", 2)], &[("S", 2)]);
        assert_eq!(g.weak_acyclicity(), Ok(1));
    }

    #[test]
    fn stacked_existentials_raise_the_rank() {
        // R -> S invents a null; S's null column -> T invents another.
        let g = graph(
            "R <= project[0](S); project[1](S) <= project[0](T)",
            &[("R", 1), ("S", 2), ("T", 2)],
            &[("S", 2), ("T", 2)],
        );
        assert_eq!(g.weak_acyclicity(), Ok(2));
    }

    #[test]
    fn self_feeding_existential_is_a_cycle() {
        let g = graph("project[1](S) <= project[0](S)", &[("S", 2)], &[("S", 2)]);
        let witness = g.weak_acyclicity().unwrap_err();
        assert!(witness.existential.iter().any(|&e| e));
        let rendered = witness.to_string();
        assert!(rendered.contains("->*"), "witness renders the existential edge: {rendered}");
        assert!(rendered.contains("(rules 0)"), "witness names the rule: {rendered}");
    }

    #[test]
    fn regular_cycles_are_weakly_acyclic() {
        // S <= T and T <= S: a cycle, but purely regular — terminates.
        let g = graph("S <= T; T <= S", &[("S", 1), ("T", 1)], &[("S", 1), ("T", 1)]);
        assert_eq!(g.weak_acyclicity(), Ok(0));
    }

    #[test]
    fn domain_fed_existential_rule_is_flagged() {
        // Every domain value forces a null, the null joins the domain: loop.
        let g = graph("D^1 <= project[0](S)", &[("S", 2)], &[("S", 2)]);
        assert!(g.weak_acyclicity().is_err());
    }

    #[test]
    fn witness_is_deterministic() {
        let text = "project[1](S) <= project[0](S); project[1](T) <= project[0](T)";
        let full = &[("S", 2), ("T", 2)];
        let a = graph(text, full, full).weak_acyclicity().unwrap_err();
        let b = graph(text, full, full).weak_acyclicity().unwrap_err();
        assert_eq!(a, b);
    }
}
