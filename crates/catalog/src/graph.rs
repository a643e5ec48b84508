//! The composition graph: schemas are nodes, mappings are directed edges.
//!
//! Path resolution answers "compose σ_from → σ_to" by finding a directed
//! path of mappings between the two schemas. Under the default
//! [`PathCost::Hops`] a breadth-first search returns a fewest-hops path
//! (fewer pairwise compositions is both faster and less likely to hit a
//! best-effort failure). Under [`PathCost::OpCount`] a Dijkstra search
//! instead minimises the estimated operator-count growth of the fold — the
//! sum of each traversed mapping's constraint operator count — so a longer
//! path of cheap copy mappings beats a short path through operator-heavy
//! mappings. Ties are broken deterministically (fewest hops, then
//! mapping-name order), so the same catalog always resolves the same path.
//!
//! Both searches (and [`reachable`]) run over one structure, the graph
//! index. [`crate::SharedCatalog`] maintains its index under the same write
//! locks that edit its shards, so a served resolution costs in
//! proportion to the part of the graph it explores, never to the catalog.
//! The single-threaded [`Catalog`] keeps no index: the free functions here
//! build one from it on each call.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use mapcomp_algebra::ConstraintSet;

use crate::error::CatalogError;
use crate::store::Catalog;

/// How path resolution scores candidate paths.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum PathCost {
    /// Fewest hops: every mapping costs 1 (breadth-first search).
    #[default]
    Hops,
    /// Cheapest estimated operator-count growth: every mapping costs
    /// `1 + op_count(constraints)`, so composing through an operator-heavy
    /// mapping is penalised even when it shortens the path.
    OpCount,
}

/// The edge weight of a mapping under [`PathCost::OpCount`]: one (the hop
/// itself) plus the operator count of its constraints, a proxy for how much
/// the pairwise composition through it grows the chain.
pub fn edge_cost(constraints: &ConstraintSet) -> u64 {
    1 + constraints.op_count() as u64
}

/// The composition graph as a maintained adjacency index: every schema
/// name, and for each source schema its outgoing mappings in name order
/// (`source → mapping → (target, weight)`), where the weight is the
/// mapping's [`edge_cost`]. Name order is what breaks ties between equal
/// paths. Self-loops are indexed (so [`GraphIndex::mapping_names`] lists
/// every mapping) but never searched.
///
/// [`crate::SharedCatalog`] keeps one index up to date under its write
/// locks; [`resolve_path`], [`resolve_path_with`] and [`reachable`] build
/// one from a [`Catalog`] on each call.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct GraphIndex {
    schemas: BTreeSet<String>,
    /// mapping → source schema, for re-pointing and removal by name.
    sources: BTreeMap<String, String>,
    adjacency: BTreeMap<String, BTreeMap<String, (String, u64)>>,
}

impl GraphIndex {
    /// Index every schema and mapping of a catalog.
    pub(crate) fn of(catalog: &Catalog) -> Self {
        let mut index = GraphIndex::default();
        for entry in catalog.schemas() {
            index.add_schema(&entry.name);
        }
        for entry in catalog.mappings() {
            index.insert_mapping(
                &entry.name,
                &entry.source,
                &entry.target,
                edge_cost(&entry.constraints),
            );
        }
        index
    }

    /// Record a schema name (idempotent).
    pub(crate) fn add_schema(&mut self, name: &str) {
        if !self.schemas.contains(name) {
            self.schemas.insert(name.to_string());
        }
    }

    /// Insert or re-point the edge of mapping `name`: any earlier edge of
    /// the same name is replaced.
    pub(crate) fn insert_mapping(&mut self, name: &str, source: &str, target: &str, weight: u64) {
        self.remove_mapping(name);
        self.sources.insert(name.to_string(), source.to_string());
        self.adjacency
            .entry(source.to_string())
            .or_default()
            .insert(name.to_string(), (target.to_string(), weight));
    }

    /// Drop the edge of mapping `name`, if indexed.
    pub(crate) fn remove_mapping(&mut self, name: &str) {
        let Some(source) = self.sources.remove(name) else { return };
        if let Some(edges) = self.adjacency.get_mut(&source) {
            edges.remove(name);
            if edges.is_empty() {
                self.adjacency.remove(&source);
            }
        }
    }

    /// Every indexed mapping name, in name order.
    pub(crate) fn mapping_names(&self) -> Vec<String> {
        self.sources.keys().cloned().collect()
    }

    fn require_schema(&self, name: &str) -> Result<(), CatalogError> {
        if self.schemas.contains(name) {
            Ok(())
        } else {
            Err(CatalogError::UnknownSchema(name.to_string()))
        }
    }

    /// The searched out-edges of `node` as `(mapping, target, weight)`, in
    /// mapping-name order; self-loops never shorten or cheapen a path.
    fn out_edges<'a>(&'a self, node: &str) -> impl Iterator<Item = (&'a str, &'a str, u64)> {
        self.adjacency.get_key_value(node).into_iter().flat_map(|(source, edges)| {
            edges
                .iter()
                .filter(move |(_, (target, _))| target != source)
                .map(|(name, (target, weight))| (name.as_str(), target.as_str(), *weight))
        })
    }

    /// Resolve a path under `cost`: [`PathCost::Hops`] runs a breadth-first
    /// search, [`PathCost::OpCount`] a deterministic Dijkstra search.
    ///
    /// Returns [`CatalogError::UnknownSchema`] for an unregistered endpoint
    /// (`from` checked first), [`CatalogError::EmptyPath`] when
    /// `from == to` (there is nothing to compose) and
    /// [`CatalogError::NoPath`] when the target is unreachable.
    pub(crate) fn resolve(
        &self,
        from: &str,
        to: &str,
        cost: PathCost,
    ) -> Result<Vec<String>, CatalogError> {
        self.require_schema(from)?;
        self.require_schema(to)?;
        if from == to {
            return Err(CatalogError::EmptyPath { schema: from.to_string() });
        }
        match cost {
            PathCost::Hops => self.bfs(from, to),
            PathCost::OpCount => self.dijkstra(from, to),
        }
    }

    /// Breadth-first fewest-hops search; edges are visited in mapping-name
    /// order (deterministic tie-breaking).
    fn bfs(&self, from: &str, to: &str) -> Result<Vec<String>, CatalogError> {
        let mut predecessor: BTreeMap<&str, (&str, &str)> = BTreeMap::new(); // schema → (via mapping, from schema)
        let mut queue: VecDeque<&str> = VecDeque::new();
        queue.push_back(from);
        while let Some(node) = queue.pop_front() {
            if node == to {
                break;
            }
            for (mapping, next, _) in self.out_edges(node) {
                if next == from || predecessor.contains_key(next) {
                    continue;
                }
                predecessor.insert(next, (mapping, node));
                queue.push_back(next);
            }
        }

        if !predecessor.contains_key(to) {
            return Err(CatalogError::NoPath { from: from.to_string(), to: to.to_string() });
        }
        let mut path = Vec::new();
        let mut node = to;
        while node != from {
            let (mapping, previous) = predecessor[node];
            path.push(mapping.to_string());
            node = previous;
        }
        path.reverse();
        Ok(path)
    }

    /// Deterministic Dijkstra search: the frontier is a `BTreeSet` keyed
    /// `(cost, hops, node)`, and an equal-cost relaxation only replaces a
    /// recorded predecessor when its `(hops, mapping, previous)` tuple is
    /// lexicographically smaller, so resolution never depends on edge
    /// insertion order.
    fn dijkstra(&self, from: &str, to: &str) -> Result<Vec<String>, CatalogError> {
        // node → (cost, hops, via mapping, previous node)
        let mut best: BTreeMap<&str, (u64, usize, &str, &str)> = BTreeMap::new();
        let mut frontier: BTreeSet<(u64, usize, &str)> = BTreeSet::new();
        let mut settled: BTreeSet<&str> = BTreeSet::new();
        frontier.insert((0, 0, from));
        while let Some((cost, hops, node)) = frontier.pop_first() {
            if !settled.insert(node) {
                continue;
            }
            if node == to {
                break;
            }
            for (mapping, next, weight) in self.out_edges(node) {
                if next == from || settled.contains(next) {
                    continue;
                }
                let candidate = (cost + weight, hops + 1, mapping, node);
                let improves = match best.get(next) {
                    None => true,
                    Some(recorded) => candidate < *recorded,
                };
                if improves {
                    if let Some(&(old_cost, old_hops, _, _)) = best.get(next) {
                        frontier.remove(&(old_cost, old_hops, next));
                    }
                    best.insert(next, candidate);
                    frontier.insert((candidate.0, candidate.1, next));
                }
            }
        }
        if !settled.contains(to) {
            return Err(CatalogError::NoPath { from: from.to_string(), to: to.to_string() });
        }
        let mut path = Vec::new();
        let mut node = to;
        while node != from {
            let (_, _, mapping, previous) = best[node];
            path.push(mapping.to_string());
            node = previous;
        }
        path.reverse();
        Ok(path)
    }

    /// All schemas reachable from `from` (excluding `from` itself), with
    /// the fewest-hops distance.
    pub(crate) fn reachable(&self, from: &str) -> Result<BTreeMap<String, usize>, CatalogError> {
        self.require_schema(from)?;
        let mut distance: BTreeMap<String, usize> = BTreeMap::new();
        let mut queue: VecDeque<(&str, usize)> = VecDeque::new();
        queue.push_back((from, 0));
        while let Some((node, hops)) = queue.pop_front() {
            for (_, next, _) in self.out_edges(node) {
                if next == from || distance.contains_key(next) {
                    continue;
                }
                distance.insert(next.to_string(), hops + 1);
                queue.push_back((next, hops + 1));
            }
        }
        Ok(distance)
    }
}

/// Resolve a fewest-hops path of mapping names from `from` to `to`.
///
/// Returns [`CatalogError::UnknownSchema`] for an unregistered endpoint
/// (`from` checked first), [`CatalogError::EmptyPath`] when `from == to`
/// (there is nothing to compose) and [`CatalogError::NoPath`] when the
/// target is unreachable.
pub fn resolve_path(catalog: &Catalog, from: &str, to: &str) -> Result<Vec<String>, CatalogError> {
    resolve_path_with(catalog, from, to, PathCost::Hops)
}

/// Resolve a path under an explicit cost model: [`PathCost::Hops`] runs a
/// breadth-first search; [`PathCost::OpCount`] runs a deterministic Dijkstra
/// search weighted by [`edge_cost`].
pub fn resolve_path_with(
    catalog: &Catalog,
    from: &str,
    to: &str,
    cost: PathCost,
) -> Result<Vec<String>, CatalogError> {
    GraphIndex::of(catalog).resolve(from, to, cost)
}

/// All schemas reachable from `from` (excluding `from` itself), with the
/// fewest-hops distance — the catalog's "what can I compose to?" query.
pub fn reachable(catalog: &Catalog, from: &str) -> Result<BTreeMap<String, usize>, CatalogError> {
    GraphIndex::of(catalog).reachable(from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapcomp_algebra::Signature;

    fn chain_catalog(n: usize) -> Catalog {
        let mut catalog = Catalog::new();
        for i in 0..n {
            catalog.add_schema(format!("s{i}"), Signature::from_arities([(format!("R{i}"), 1)]));
        }
        for i in 0..n - 1 {
            catalog
                .add_mapping(
                    format!("m{i}"),
                    &format!("s{i}"),
                    &format!("s{}", i + 1),
                    ConstraintSet::new(),
                )
                .unwrap();
        }
        catalog
    }

    #[test]
    fn resolves_multi_hop_paths() {
        let catalog = chain_catalog(5);
        let path = resolve_path(&catalog, "s0", "s4").unwrap();
        assert_eq!(path, vec!["m0", "m1", "m2", "m3"]);
        let path = resolve_path(&catalog, "s1", "s3").unwrap();
        assert_eq!(path, vec!["m1", "m2"]);
    }

    #[test]
    fn prefers_fewest_hops_and_breaks_ties_by_name() {
        let mut catalog = chain_catalog(3);
        // Direct shortcut s0 → s2.
        catalog.add_mapping("zshort", "s0", "s2", ConstraintSet::new()).unwrap();
        assert_eq!(resolve_path(&catalog, "s0", "s2").unwrap(), vec!["zshort"]);
        // A second direct edge with an earlier name wins the tie.
        catalog.add_mapping("ashort", "s0", "s2", ConstraintSet::new()).unwrap();
        assert_eq!(resolve_path(&catalog, "s0", "s2").unwrap(), vec!["ashort"]);
    }

    #[test]
    fn unreachable_and_trivial_paths_error() {
        let catalog = chain_catalog(3);
        // Directed: no backwards path.
        assert!(matches!(resolve_path(&catalog, "s2", "s0"), Err(CatalogError::NoPath { .. })));
        assert!(matches!(resolve_path(&catalog, "s1", "s1"), Err(CatalogError::EmptyPath { .. })));
        assert!(matches!(
            resolve_path(&catalog, "s0", "nope"),
            Err(CatalogError::UnknownSchema(_))
        ));
    }

    /// Two routes s0 → s3: a 2-hop path through an operator-heavy mapping
    /// and a 3-hop path of plain copies.
    fn costed_catalog() -> Catalog {
        use mapcomp_algebra::parse_constraints;
        let mut catalog = Catalog::new();
        for i in 0..4 {
            catalog.add_schema(format!("s{i}"), Signature::from_arities([(format!("R{i}"), 1)]));
        }
        // Cheap 3-hop chain: plain copies, edge cost 1 + 0 each.
        for i in 0..3 {
            catalog
                .add_mapping(
                    format!("copy{i}"),
                    &format!("s{i}"),
                    &format!("s{}", i + 1),
                    parse_constraints(&format!("R{i} <= R{}", i + 1)).unwrap(),
                )
                .unwrap();
        }
        // Expensive 2-hop shortcut through s9: heavy operator trees.
        catalog.add_schema("s9", Signature::from_arities([("R9", 1)]));
        catalog
            .add_mapping(
                "heavy1",
                "s0",
                "s9",
                parse_constraints("project[0](select[#0 = #1](R0 * R0)) <= R9").unwrap(),
            )
            .unwrap();
        catalog
            .add_mapping(
                "heavy2",
                "s9",
                "s3",
                parse_constraints("project[0](select[#0 = #1](R9 * R9)) <= R3").unwrap(),
            )
            .unwrap();
        catalog
    }

    #[test]
    fn op_count_cost_prefers_cheap_three_hops_over_expensive_two() {
        let catalog = costed_catalog();
        // Hop count alone picks the 2-hop shortcut.
        assert_eq!(
            resolve_path_with(&catalog, "s0", "s3", PathCost::Hops).unwrap(),
            vec!["heavy1", "heavy2"]
        );
        // Operator-count cost picks the cheaper 3-hop copy chain: the copies
        // cost 1 each (no operators) while each heavy edge carries a
        // product + selection + projection tree.
        assert_eq!(
            resolve_path_with(&catalog, "s0", "s3", PathCost::OpCount).unwrap(),
            vec!["copy0", "copy1", "copy2"]
        );
    }

    /// An index of `catalog` with every edge weighted 1 (uniform cost).
    fn unit_index(catalog: &Catalog) -> GraphIndex {
        let mut index = GraphIndex::default();
        for entry in catalog.schemas() {
            index.add_schema(&entry.name);
        }
        for entry in catalog.mappings() {
            index.insert_mapping(&entry.name, &entry.source, &entry.target, 1);
        }
        index
    }

    #[test]
    fn costed_resolution_matches_bfs_on_uniform_weights() {
        let catalog = chain_catalog(5);
        let index = unit_index(&catalog);
        assert_eq!(
            index.resolve("s0", "s4", PathCost::OpCount).unwrap(),
            resolve_path(&catalog, "s0", "s4").unwrap()
        );
        assert!(matches!(
            index.resolve("s4", "s0", PathCost::OpCount),
            Err(CatalogError::NoPath { .. })
        ));
        assert!(matches!(
            index.resolve("s1", "s1", PathCost::OpCount),
            Err(CatalogError::EmptyPath { .. })
        ));
        assert!(matches!(
            index.resolve("s0", "nope", PathCost::OpCount),
            Err(CatalogError::UnknownSchema(_))
        ));
    }

    #[test]
    fn costed_ties_break_by_hops_then_name() {
        let mut catalog = chain_catalog(3);
        // A direct edge whose weight equals the 2-hop chain's total: fewer
        // hops wins the tie.
        catalog.add_mapping("direct", "s0", "s2", ConstraintSet::new()).unwrap();
        let mut index = unit_index(&catalog);
        index.insert_mapping("direct", "s0", "s2", 2);
        assert_eq!(index.resolve("s0", "s2", PathCost::OpCount).unwrap(), vec!["direct"]);
        // An equal-cost, equal-hops alternative with an earlier name wins.
        index.insert_mapping("adirect", "s0", "s2", 2);
        assert_eq!(index.resolve("s0", "s2", PathCost::OpCount).unwrap(), vec!["adirect"]);
    }

    #[test]
    fn index_edits_re_point_and_remove_edges() {
        let mut index = GraphIndex::of(&chain_catalog(3));
        index.add_schema("s9");
        // Re-pointing m0 from s0 → s1 to s0 → s9 moves the edge.
        index.insert_mapping("m0", "s0", "s9", 1);
        assert_eq!(index.resolve("s0", "s9", PathCost::Hops).unwrap(), vec!["m0"]);
        assert!(matches!(
            index.resolve("s0", "s1", PathCost::Hops),
            Err(CatalogError::NoPath { .. })
        ));
        // Self-loops are listed but never searched.
        index.insert_mapping("loop", "s1", "s1", 1);
        assert_eq!(index.mapping_names(), vec!["loop", "m0", "m1"]);
        assert_eq!(index.reachable("s1").unwrap().len(), 1);
        index.remove_mapping("m1");
        index.remove_mapping("missing");
        assert!(index.reachable("s1").unwrap().is_empty());
        assert_eq!(index.mapping_names(), vec!["loop", "m0"]);
    }

    #[test]
    fn reachability_reports_distances() {
        let catalog = chain_catalog(4);
        let reach = reachable(&catalog, "s0").unwrap();
        assert_eq!(reach.get("s1"), Some(&1));
        assert_eq!(reach.get("s3"), Some(&3));
        assert_eq!(reach.get("s0"), None);
        assert!(reachable(&catalog, "s3").unwrap().is_empty());
    }
}
