//! Signatures (schemas).
//!
//! A signature maps relation symbols to arities (paper §2: "A signature is a
//! function from a set of relation symbols to positive integers which give
//! their arities"). The paper uses *signature* and *schema* synonymously; so
//! do we. Relations may additionally carry a key (a set of attribute
//! positions), which the right-normalization step uses to minimise the
//! argument list of introduced Skolem functions (§3.5.1).
//!
//! A signature is copy-on-write: its map sits behind an `Arc`, so a clone
//! is a reference-count bump, and `add`, `remove`, `union` and `without`
//! copy the map only when they change a map that another clone still
//! shares. Value semantics are unchanged: mutating a clone never shows
//! through the original.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use crate::error::AlgebraError;

/// Metadata about one relation symbol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelInfo {
    /// Number of attributes (positions are `0..arity`).
    pub arity: usize,
    /// Optional key: positions that functionally determine the whole tuple.
    pub key: Option<Vec<usize>>,
}

impl RelInfo {
    /// A relation with the given arity and no key.
    pub fn new(arity: usize) -> Self {
        RelInfo { arity, key: None }
    }

    /// A relation with the given arity and key positions.
    pub fn with_key(arity: usize, key: Vec<usize>) -> Self {
        RelInfo { arity, key: Some(key) }
    }
}

/// A schema: relation symbols with arities and optional keys.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Signature {
    relations: Arc<BTreeMap<String, RelInfo>>,
}

impl Signature {
    /// The empty signature.
    pub fn new() -> Self {
        Signature::default()
    }

    /// Build a signature from `(name, arity)` pairs.
    pub fn from_arities<I, S>(pairs: I) -> Self
    where
        I: IntoIterator<Item = (S, usize)>,
        S: Into<String>,
    {
        let mut sig = Signature::new();
        for (name, arity) in pairs {
            sig.add(name, RelInfo::new(arity));
        }
        sig
    }

    /// Add (or replace) a relation symbol.
    pub fn add(&mut self, name: impl Into<String>, info: RelInfo) -> &mut Self {
        Arc::make_mut(&mut self.relations).insert(name.into(), info);
        self
    }

    /// Add a relation with no key.
    pub fn add_relation(&mut self, name: impl Into<String>, arity: usize) -> &mut Self {
        self.add(name, RelInfo::new(arity))
    }

    /// Add a relation with a key.
    pub fn add_keyed(
        &mut self,
        name: impl Into<String>,
        arity: usize,
        key: Vec<usize>,
    ) -> &mut Self {
        self.add(name, RelInfo::with_key(arity, key))
    }

    /// Remove a relation symbol; returns its metadata if present.
    pub fn remove(&mut self, name: &str) -> Option<RelInfo> {
        if !self.relations.contains_key(name) {
            return None;
        }
        Arc::make_mut(&mut self.relations).remove(name)
    }

    /// Does the signature contain this symbol?
    pub fn contains(&self, name: &str) -> bool {
        self.relations.contains_key(name)
    }

    /// Metadata for a symbol.
    pub fn get(&self, name: &str) -> Option<&RelInfo> {
        self.relations.get(name)
    }

    /// Arity of a symbol, or an error naming the missing symbol.
    pub fn arity(&self, name: &str) -> Result<usize, AlgebraError> {
        self.relations
            .get(name)
            .map(|info| info.arity)
            .ok_or_else(|| AlgebraError::UnknownRelation(name.to_string()))
    }

    /// Key of a symbol, if declared.
    pub fn key(&self, name: &str) -> Option<&[usize]> {
        self.relations.get(name).and_then(|info| info.key.as_deref())
    }

    /// Number of relation symbols.
    pub fn len(&self) -> usize {
        self.relations.len()
    }

    /// True if the signature has no symbols.
    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }

    /// Iterate over `(name, info)` in deterministic (sorted) order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &RelInfo)> {
        self.relations.iter().map(|(name, info)| (name.as_str(), info))
    }

    /// Relation names in deterministic (sorted) order.
    pub fn names(&self) -> Vec<String> {
        self.relations.keys().cloned().collect()
    }

    /// Union of two signatures. Symbols present in both must agree on arity;
    /// keys from `self` win (the paper assumes input/output signatures are
    /// disjoint, so conflicts only arise from user error).
    pub fn union(&self, other: &Signature) -> Result<Signature, AlgebraError> {
        Signature::union_all([self, other])
    }

    /// Union of several signatures in one pass, left to right: the same
    /// result, and the same [`AlgebraError::ArityMismatch`], as chaining
    /// [`Signature::union`] over `parts` in order. The first part's map is
    /// shared until a later part adds a symbol, and copied at most once.
    pub fn union_all<'a>(
        parts: impl IntoIterator<Item = &'a Signature>,
    ) -> Result<Signature, AlgebraError> {
        let mut parts = parts.into_iter();
        let mut out = parts.next().cloned().unwrap_or_default();
        for part in parts {
            if Arc::ptr_eq(&out.relations, &part.relations) {
                continue;
            }
            for (name, info) in part.iter() {
                match out.relations.get(name) {
                    None => {
                        Arc::make_mut(&mut out.relations).insert(name.to_string(), info.clone());
                    }
                    Some(existing) if existing.arity == info.arity => {}
                    Some(existing) => {
                        return Err(AlgebraError::ArityMismatch {
                            relation: name.to_string(),
                            expected: existing.arity,
                            found: info.arity,
                        })
                    }
                }
            }
        }
        Ok(out)
    }

    /// Signature restricted to the symbols *not* in `names`.
    pub fn without(&self, names: &[String]) -> Signature {
        let mut out = self.clone();
        for name in names {
            out.remove(name);
        }
        out
    }

    /// Do the two signatures share any symbol?
    pub fn overlaps(&self, other: &Signature) -> bool {
        self.relations.keys().any(|name| other.contains(name))
    }
}

impl fmt::Display for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (name, info)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{name}/{}", info.arity)?;
            if let Some(key) = &info.key {
                write!(f, " key(")?;
                for (j, pos) in key.iter().enumerate() {
                    if j > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{pos}")?;
                }
                write!(f, ")")?;
            }
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arity_lookup_and_error() {
        let sig = Signature::from_arities([("R", 2), ("S", 3)]);
        assert_eq!(sig.arity("R").unwrap(), 2);
        assert_eq!(sig.arity("S").unwrap(), 3);
        assert!(matches!(
            sig.arity("T"),
            Err(AlgebraError::UnknownRelation(name)) if name == "T"
        ));
    }

    #[test]
    fn keys_are_recorded() {
        let mut sig = Signature::new();
        sig.add_keyed("Movies", 6, vec![0]);
        assert_eq!(sig.key("Movies"), Some(&[0usize][..]));
        assert_eq!(sig.key("Nope"), None);
    }

    #[test]
    fn union_detects_arity_mismatch() {
        let a = Signature::from_arities([("R", 2)]);
        let b = Signature::from_arities([("R", 3)]);
        assert!(a.union(&b).is_err());
        let c = Signature::from_arities([("S", 1)]);
        let u = a.union(&c).unwrap();
        assert_eq!(u.len(), 2);
        assert!(u.contains("R") && u.contains("S"));
    }

    #[test]
    fn without_removes_symbols() {
        let sig = Signature::from_arities([("R", 2), ("S", 3), ("T", 1)]);
        let rest = sig.without(&["S".to_string()]);
        assert!(rest.contains("R"));
        assert!(!rest.contains("S"));
        assert_eq!(rest.len(), 2);
    }

    #[test]
    fn display_is_stable() {
        let mut sig = Signature::new();
        sig.add_relation("B", 1);
        sig.add_keyed("A", 2, vec![0, 1]);
        assert_eq!(sig.to_string(), "{A/2 key(0,1); B/1}");
    }

    /// The map-level operations before copy-on-write, as the reference.
    mod reference {
        use super::*;

        pub type Map = BTreeMap<String, RelInfo>;

        pub fn of(sig: &Signature) -> Map {
            sig.iter().map(|(name, info)| (name.to_string(), info.clone())).collect()
        }

        pub fn union(a: &Map, b: &Map) -> Result<Map, AlgebraError> {
            let mut out = a.clone();
            for (name, info) in b {
                match out.get(name) {
                    None => {
                        out.insert(name.clone(), info.clone());
                    }
                    Some(existing) if existing.arity == info.arity => {}
                    Some(existing) => {
                        return Err(AlgebraError::ArityMismatch {
                            relation: name.clone(),
                            expected: existing.arity,
                            found: info.arity,
                        })
                    }
                }
            }
            Ok(out)
        }
    }

    #[test]
    fn clones_keep_value_semantics() {
        let original = Signature::from_arities([("R", 2), ("S", 3)]);
        let mut copy = original.clone();
        assert!(Arc::ptr_eq(&copy.relations, &original.relations), "a clone shares the map");
        copy.add_keyed("T", 1, vec![0]);
        copy.remove("R");
        assert_eq!(original, Signature::from_arities([("R", 2), ("S", 3)]));
        assert_eq!(copy.names(), ["S", "T"]);
        assert_eq!(copy.key("T"), Some(&[0usize][..]));

        // Removing an absent symbol copies nothing.
        let mut again = original.clone();
        assert_eq!(again.remove("Nope"), None);
        assert!(Arc::ptr_eq(&again.relations, &original.relations));
        let unchanged = original.without(&["Nope".to_string()]);
        assert!(Arc::ptr_eq(&unchanged.relations, &original.relations));
    }

    #[test]
    fn union_and_without_match_the_map_reference() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(0x5167);
        let names = ["A", "B", "C", "D", "E", "F"];
        let random = |rng: &mut StdRng| {
            let mut sig = Signature::new();
            for name in names {
                if rng.gen_bool(0.5) {
                    let arity = rng.gen_range(1..4usize);
                    if rng.gen_bool(0.3) {
                        sig.add_keyed(name, arity, vec![0]);
                    } else {
                        sig.add_relation(name, arity);
                    }
                }
            }
            sig
        };
        let (mut conflicts, mut unions) = (0, 0);
        for _ in 0..500 {
            let parts: Vec<Signature> =
                (0..rng.gen_range(1..6usize)).map(|_| random(&mut rng)).collect();
            // Chained reference unions, stopping at the first error.
            let expected = parts[1..].iter().try_fold(reference::of(&parts[0]), |acc, part| {
                reference::union(&acc, &reference::of(part))
            });
            let chained = parts[1..].iter().try_fold(parts[0].clone(), |acc, part| acc.union(part));
            let single = Signature::union_all(&parts);
            match expected {
                Ok(map) => {
                    unions += 1;
                    assert_eq!(reference::of(&chained.unwrap()), map);
                    assert_eq!(reference::of(&single.unwrap()), map);
                }
                Err(error) => {
                    conflicts += 1;
                    assert_eq!(chained.unwrap_err(), error);
                    assert_eq!(single.unwrap_err(), error);
                }
            }
            let drop: Vec<String> =
                names.iter().filter(|_| rng.gen_bool(0.4)).map(ToString::to_string).collect();
            let mut expected = reference::of(&parts[0]);
            expected.retain(|name, _| !drop.contains(name));
            let before = reference::of(&parts[0]);
            assert_eq!(reference::of(&parts[0].without(&drop)), expected);
            assert_eq!(reference::of(&parts[0]), before, "without leaves the original alone");
        }
        assert!(conflicts > 50 && unions > 50, "{conflicts} conflicts, {unions} unions");
    }

    #[test]
    fn overlap_detection() {
        let a = Signature::from_arities([("R", 2)]);
        let b = Signature::from_arities([("R", 2), ("S", 1)]);
        let c = Signature::from_arities([("T", 1)]);
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
    }
}
