//! Database instances.
//!
//! An instance assigns a finite relation (a set of tuples, set semantics as
//! in paper §2) to each relation symbol of a signature. Instances are used by
//! the evaluator, by constraint satisfaction (`A ⊨ ξ`), and by the
//! bounded-model equivalence checker in the composition crate.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::ops::Bound;

use crate::signature::Signature;
use crate::value::{Tuple, Value};

/// A finite relation: a set of same-arity tuples under set semantics.
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct Relation {
    tuples: BTreeSet<Tuple>,
}

impl Relation {
    /// The empty relation.
    pub fn new() -> Self {
        Relation::default()
    }

    /// Build a relation from tuples.
    pub fn from_tuples<I: IntoIterator<Item = Tuple>>(tuples: I) -> Self {
        Relation { tuples: tuples.into_iter().collect() }
    }

    /// Insert a tuple; returns true if it was not already present.
    pub fn insert(&mut self, tuple: impl Into<Tuple>) -> bool {
        self.tuples.insert(tuple.into())
    }

    /// Remove a tuple; returns true if it was present.
    pub fn remove(&mut self, tuple: &[Value]) -> bool {
        self.tuples.remove(tuple)
    }

    /// Membership test.
    pub fn contains(&self, tuple: &[Value]) -> bool {
        self.tuples.contains(tuple)
    }

    /// The stored row equal to `tuple`, if any: the shared allocation
    /// itself, not a copy.
    pub fn get(&self, tuple: &[Value]) -> Option<&Tuple> {
        self.tuples.get(tuple)
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True if the relation has no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Iterate over tuples in deterministic order.
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> {
        self.tuples.iter()
    }

    /// Iterate, in order, over the tuples from `start` (inclusive) up to
    /// `end` (exclusive; `None` for no upper bound).
    pub fn range<'a>(
        &'a self,
        start: &'a [Value],
        end: Option<&'a [Value]>,
    ) -> impl Iterator<Item = &'a Tuple> + 'a {
        let end = end.map_or(Bound::Unbounded, Bound::Excluded);
        self.tuples.range::<[Value], _>((Bound::Included(start), end))
    }

    /// Is every tuple of `self` also in `other`?
    pub fn is_subset(&self, other: &Relation) -> bool {
        self.tuples.is_subset(&other.tuples)
    }

    /// Set union.
    pub fn union(&self, other: &Relation) -> Relation {
        Relation { tuples: self.tuples.union(&other.tuples).cloned().collect() }
    }

    /// Set intersection.
    pub fn intersect(&self, other: &Relation) -> Relation {
        Relation { tuples: self.tuples.intersection(&other.tuples).cloned().collect() }
    }

    /// Set difference.
    pub fn difference(&self, other: &Relation) -> Relation {
        Relation { tuples: self.tuples.difference(&other.tuples).cloned().collect() }
    }

    /// All values appearing in any tuple.
    pub fn values(&self) -> BTreeSet<Value> {
        self.tuples.iter().flat_map(|t| t.iter().cloned()).collect()
    }
}

impl From<BTreeSet<Tuple>> for Relation {
    fn from(tuples: BTreeSet<Tuple>) -> Self {
        Relation { tuples }
    }
}

impl FromIterator<Tuple> for Relation {
    fn from_iter<I: IntoIterator<Item = Tuple>>(iter: I) -> Self {
        Relation::from_tuples(iter)
    }
}

impl IntoIterator for Relation {
    type Item = Tuple;
    type IntoIter = std::collections::btree_set::IntoIter<Tuple>;
    fn into_iter(self) -> Self::IntoIter {
        self.tuples.into_iter()
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, tuple) in self.tuples.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "(")?;
            for (j, value) in tuple.iter().enumerate() {
                if j > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{value}")?;
            }
            write!(f, ")")?;
        }
        write!(f, "}}")
    }
}

/// A database instance: contents for each relation symbol.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Instance {
    relations: BTreeMap<String, Relation>,
}

impl Instance {
    /// The empty instance (every relation symbol maps to the empty relation).
    pub fn new() -> Self {
        Instance::default()
    }

    /// Replace the contents of one relation.
    pub fn set(&mut self, name: impl Into<String>, relation: Relation) -> &mut Self {
        self.relations.insert(name.into(), relation);
        self
    }

    /// Insert a single tuple into a relation. The relation's name is
    /// allocated only when the relation is new.
    pub fn insert(&mut self, name: &str, tuple: impl Into<Tuple>) -> &mut Self {
        match self.relations.get_mut(name) {
            Some(relation) => relation.insert(tuple),
            None => self.relations.entry(name.to_string()).or_default().insert(tuple),
        };
        self
    }

    /// Remove a single tuple from a relation; returns true if it was
    /// present. An emptied relation stays set (its name remains visible).
    pub fn remove(&mut self, name: &str, tuple: &[Value]) -> bool {
        self.relations.get_mut(name).is_some_and(|relation| relation.remove(tuple))
    }

    /// Does the named relation contain this tuple?
    pub fn contains(&self, name: &str, tuple: &[Value]) -> bool {
        self.relations.get(name).is_some_and(|relation| relation.contains(tuple))
    }

    /// Contents of a relation (`S^A` in the paper); empty if unset.
    pub fn get(&self, name: &str) -> Relation {
        self.relations.get(name).cloned().unwrap_or_default()
    }

    /// Borrowed contents of a relation, if any tuples were set.
    pub fn get_ref(&self, name: &str) -> Option<&Relation> {
        self.relations.get(name)
    }

    /// The relations with explicitly set contents, in name order.
    pub fn relations(&self) -> impl Iterator<Item = (&str, &Relation)> {
        self.relations.iter().map(|(name, relation)| (name.as_str(), relation))
    }

    /// Names of relations with explicitly set contents.
    pub fn names(&self) -> Vec<String> {
        self.relations.keys().cloned().collect()
    }

    /// The active domain: the set of values appearing anywhere in the
    /// instance (paper §2).
    pub fn active_domain(&self) -> BTreeSet<Value> {
        self.relations.values().flat_map(Relation::values).collect()
    }

    /// Restrict the instance to the symbols of a signature (used when
    /// checking the soundness half of constraint-set equivalence).
    pub fn restrict(&self, sig: &Signature) -> Instance {
        let mut out = Instance::new();
        for (name, rel) in &self.relations {
            if sig.contains(name) {
                out.set(name.clone(), rel.clone());
            }
        }
        out
    }

    /// Merge two instances over disjoint signatures (the `(A, B)` database of
    /// paper §2). Relations present in both keep the union of their tuples.
    pub fn merge(&self, other: &Instance) -> Instance {
        let mut out = self.clone();
        for (name, rel) in &other.relations {
            let merged = out.get(name).union(rel);
            out.set(name.clone(), merged);
        }
        out
    }

    /// Total number of tuples across all relations.
    pub fn total_tuples(&self) -> usize {
        self.relations.values().map(Relation::len).sum()
    }
}

/// A read-only supplier of relation contents, abstracting over a plain
/// [`Instance`] and layered views such as [`DeltaInstance`].
///
/// The [`crate::eval::Evaluator`] is generic over this trait so long-running
/// callers (the chase engine) can evaluate over a stack of instances — e.g. an
/// immutable source plus a growing target — without materialising their union
/// with `Instance::merge` on every evaluation.
pub trait RelationSource {
    /// Contents of one relation (empty if unset), as an owned set.
    fn relation(&self, name: &str) -> Relation;

    /// The set of values appearing anywhere in the source (the active
    /// domain of paper §2).
    fn domain_values(&self) -> BTreeSet<Value>;
}

impl RelationSource for Instance {
    fn relation(&self, name: &str) -> Relation {
        self.get(name)
    }

    fn domain_values(&self) -> BTreeSet<Value> {
        self.active_domain()
    }
}

/// A layered, copy-free view over several instances: each relation is the
/// union of its contents across all layers.
///
/// This is the `(A, B)` database of paper §2 without the merge: the chase
/// engine keeps the source instance and the materialised target as separate
/// layers and evaluates premises and satisfaction checks over this view,
/// instead of cloning `source.merge(&target)` once per rule per round.
#[derive(Debug, Clone)]
pub struct DeltaInstance<'a> {
    layers: Vec<&'a Instance>,
}

impl<'a> DeltaInstance<'a> {
    /// View over a base instance and an overlay (base first).
    pub fn new(base: &'a Instance, overlay: &'a Instance) -> Self {
        DeltaInstance { layers: vec![base, overlay] }
    }

    /// View over an arbitrary stack of layers.
    pub fn from_layers(layers: Vec<&'a Instance>) -> Self {
        DeltaInstance { layers }
    }

    /// The layers, base first.
    pub fn layers(&self) -> &[&'a Instance] {
        &self.layers
    }
}

impl RelationSource for DeltaInstance<'_> {
    fn relation(&self, name: &str) -> Relation {
        let mut out = Relation::new();
        for layer in &self.layers {
            if let Some(rel) = layer.get_ref(name) {
                for tuple in rel.iter() {
                    out.insert(tuple.clone());
                }
            }
        }
        out
    }

    fn domain_values(&self) -> BTreeSet<Value> {
        self.layers.iter().flat_map(|layer| layer.active_domain()).collect()
    }
}

impl fmt::Display for Instance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, (name, rel)) in self.relations.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{name} = {rel}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::tuple;

    #[test]
    fn relation_set_operations() {
        let a = Relation::from_tuples([tuple([1i64]), tuple([2i64])]);
        let b = Relation::from_tuples([tuple([2i64]), tuple([3i64])]);
        assert_eq!(a.union(&b).len(), 3);
        assert_eq!(a.intersect(&b).len(), 1);
        assert_eq!(a.difference(&b).len(), 1);
        assert!(a.intersect(&b).is_subset(&a));
        assert!(!a.is_subset(&b));
    }

    #[test]
    fn duplicate_insertion_is_set_semantics() {
        let mut rel = Relation::new();
        assert!(rel.insert(tuple([1i64, 2])));
        assert!(!rel.insert(tuple([1i64, 2])));
        assert_eq!(rel.len(), 1);
        assert!(rel.contains(&tuple([1i64, 2])));
    }

    #[test]
    fn active_domain_collects_all_values() {
        let mut inst = Instance::new();
        inst.insert("R", tuple([1i64, 2]));
        inst.insert("S", tuple(["a"]));
        let dom = inst.active_domain();
        assert_eq!(dom.len(), 3);
        assert!(dom.contains(&Value::Int(1)));
        assert!(dom.contains(&Value::str("a")));
    }

    #[test]
    fn restrict_and_merge() {
        let mut inst = Instance::new();
        inst.insert("R", tuple([1i64]));
        inst.insert("S", tuple([2i64]));
        let sig = Signature::from_arities([("R", 1)]);
        let restricted = inst.restrict(&sig);
        assert_eq!(restricted.names(), vec!["R".to_string()]);

        let mut other = Instance::new();
        other.insert("S", tuple([3i64]));
        other.insert("T", tuple([4i64]));
        let merged = inst.merge(&other);
        assert_eq!(merged.get("S").len(), 2);
        assert_eq!(merged.get("T").len(), 1);
        assert_eq!(merged.total_tuples(), 4);
    }

    #[test]
    fn delta_instance_unions_layers_without_copying_the_base() {
        let mut base = Instance::new();
        base.insert("R", tuple([1i64]));
        base.insert("R", tuple([2i64]));
        let mut overlay = Instance::new();
        overlay.insert("R", tuple([2i64]));
        overlay.insert("R", tuple([3i64]));
        overlay.insert("S", tuple(["x"]));
        let view = DeltaInstance::new(&base, &overlay);
        assert_eq!(view.relation("R").len(), 3);
        assert_eq!(view.relation("S").len(), 1);
        assert!(view.relation("T").is_empty());
        assert_eq!(view.domain_values(), base.merge(&overlay).active_domain());
        assert_eq!(view.layers().len(), 2);
    }

    #[test]
    fn display_is_deterministic() {
        let rel = Relation::from_tuples([tuple([2i64]), tuple([1i64])]);
        assert_eq!(rel.to_string(), "{(1), (2)}");
    }
}
