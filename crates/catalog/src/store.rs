//! The versioned store of named schemas and mappings.
//!
//! A [`Catalog`] is the persistent half of the subsystem: schemas are named
//! signatures, mappings are named, directed edges between two schemas with a
//! constraint set over their union. Every entry carries a monotonically
//! increasing version and a content hash ([`crate::hash`]); edits bump the
//! version and change the hash, which is what drives memo-cache
//! invalidation upstream. The versioning rules (`upsert_schema`,
//! `rehash_touching`, `upsert_mapping`) are functions over entry maps, so
//! the lock-striped [`crate::SharedCatalog`] applies exactly these rules to
//! its shards.
//!
//! Catalogs round-trip through the plain-text document format of paper §4:
//! [`Catalog::from_document`] ingests a parsed [`Document`], and
//! [`Catalog::to_document_string`] renders the whole catalog back into text
//! that `parse_document` accepts.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

use mapcomp_algebra::{ConstraintSet, Document, Mapping, Signature};

use crate::error::CatalogError;
use crate::hash::{combine_mapping_hash, hash_constraints, hash_signature, ContentHash};

/// A schema or mapping name as the catalog hands it out: one shared
/// allocation per name. Every mapping entry naming a schema, every link
/// materialised from a mapping, every memo segment folded from those links
/// and the memo's dependency index hold a reference to it, never a copy.
pub type Name = Arc<str>;

/// A named, versioned schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemaEntry {
    /// Catalog-wide unique name.
    pub name: Name,
    /// The signature.
    pub signature: Signature,
    /// Version, starting at 1 and bumped by every update.
    pub version: u64,
    /// Content hash of the signature.
    pub hash: ContentHash,
}

/// A named, versioned mapping: a directed edge `source → target` in the
/// composition graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MappingEntry {
    /// Catalog-wide unique name.
    pub name: Name,
    /// Name of the source schema (the schema entry's own allocation).
    pub source: Name,
    /// Name of the target schema (the schema entry's own allocation).
    pub target: Name,
    /// Constraints over source ∪ target.
    pub constraints: ConstraintSet,
    /// Content hash of the constraints alone: with the endpoint schemas'
    /// hashes it recombines into `hash` without rendering anything (see
    /// [`combine_mapping_hash`]).
    pub constraints_hash: u64,
    /// Version, starting at 1 and bumped by every update.
    pub version: u64,
    /// Content hash of (source signature, target signature, constraints).
    pub hash: ContentHash,
    /// Hash history `(version, hash)`, oldest first — cheap provenance for
    /// auditing which revision a cached composition was built from.
    pub history: Vec<(u64, ContentHash)>,
}

impl MappingEntry {
    /// `(content hash, source, target)`: what decides whether a
    /// re-declaration changed the mapping. Equal content re-pointed to
    /// other schemas of the same signatures keeps its hash, so the hash
    /// alone is not enough.
    pub fn edge(&self) -> (ContentHash, Name, Name) {
        (self.hash, self.source.clone(), self.target.clone())
    }

    /// A mapping declaration between two registered schemas, checked
    /// against their signatures and hashed. This is the only place a
    /// mapping's content is rendered to be hashed; every later rehash
    /// recombines stored hashes. Its version and history are assigned when
    /// it is stored (see [`upsert_mapping`]).
    pub(crate) fn new(
        name: &str,
        source: &SchemaEntry,
        target: &SchemaEntry,
        constraints: ConstraintSet,
    ) -> Result<MappingEntry, CatalogError> {
        check_endpoints(&source.signature, &target.signature)?;
        let constraints_hash = hash_constraints(&constraints);
        Ok(MappingEntry {
            name: name.into(),
            source: source.name.clone(),
            target: target.name.clone(),
            constraints,
            constraints_hash,
            version: 0,
            hash: combine_mapping_hash(source.hash, target.hash, constraints_hash),
            history: Vec::new(),
        })
    }

    /// Materialise the mapping `(σ_in, σ_out, Σ)` against the given schemas.
    fn to_mapping(&self, source: &Signature, target: &Signature) -> Mapping {
        Mapping::new(source.clone(), target.clone(), self.constraints.clone())
    }
}

/// The versioned store of schemas and mappings.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    schemas: BTreeMap<Name, SchemaEntry>,
    mappings: BTreeMap<Name, MappingEntry>,
}

impl Catalog {
    /// Create an empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Number of registered schemas.
    pub fn schema_count(&self) -> usize {
        self.schemas.len()
    }

    /// Number of registered mappings.
    pub fn mapping_count(&self) -> usize {
        self.mappings.len()
    }

    /// Iterate over schemas in name order.
    pub fn schemas(&self) -> impl Iterator<Item = &SchemaEntry> {
        self.schemas.values()
    }

    /// Iterate over mappings in name order.
    pub fn mappings(&self) -> impl Iterator<Item = &MappingEntry> {
        self.mappings.values()
    }

    /// Look up a schema.
    pub fn schema(&self, name: &str) -> Result<&SchemaEntry, CatalogError> {
        self.schemas.get(name).ok_or_else(|| CatalogError::UnknownSchema(name.to_string()))
    }

    /// Look up a mapping.
    pub fn mapping(&self, name: &str) -> Result<&MappingEntry, CatalogError> {
        self.mappings.get(name).ok_or_else(|| CatalogError::UnknownMapping(name.to_string()))
    }

    /// Materialise a mapping entry into a [`Mapping`] over its registered
    /// schemas.
    pub fn materialize(&self, name: &str) -> Result<Mapping, CatalogError> {
        let entry = self.mapping(name)?;
        let source = self.schema(&entry.source)?;
        let target = self.schema(&entry.target)?;
        Ok(entry.to_mapping(&source.signature, &target.signature))
    }

    /// Adopt a fully-formed schema entry, preserving its version and hash
    /// (used when assembling a catalog snapshot from shared-catalog shards).
    pub(crate) fn insert_schema_entry(&mut self, entry: SchemaEntry) {
        self.schemas.insert(entry.name.clone(), entry);
    }

    /// Adopt a fully-formed mapping entry, preserving version, hash and
    /// history (used when assembling a catalog snapshot from shared-catalog
    /// shards).
    pub(crate) fn insert_mapping_entry(&mut self, entry: MappingEntry) {
        self.mappings.insert(entry.name.clone(), entry);
    }

    /// Register or update a schema; returns the new version. Updating an
    /// existing schema bumps its version and rehashes every mapping that
    /// touches it (their content includes the schema's signature). The names
    /// of those re-hashed mappings are returned so a session can invalidate
    /// dependent cache entries.
    pub fn add_schema(
        &mut self,
        name: impl Into<String>,
        signature: Signature,
    ) -> (u64, Vec<String>) {
        let name = name.into();
        let (version, changed) = upsert_schema(&mut self.schemas, &name, signature);
        if !changed {
            return (version, Vec::new());
        }
        let schemas = &self.schemas;
        let touched = rehash_touching(self.mappings.values_mut(), &name, |schema| {
            schemas.get(schema).map(|entry| entry.hash)
        });
        (version, touched)
    }

    /// Register or update a mapping between two registered schemas; returns
    /// the new version. Re-registering with identical content and endpoints
    /// is a no-op; re-pointing a mapping to other schemas is an edit even
    /// when its content hash stays the same.
    pub fn add_mapping(
        &mut self,
        name: impl Into<String>,
        source: &str,
        target: &str,
        constraints: ConstraintSet,
    ) -> Result<u64, CatalogError> {
        let entry = MappingEntry::new(
            &name.into(),
            self.schema(source)?,
            self.schema(target)?,
            constraints,
        )?;
        Ok(upsert_mapping(&mut self.mappings, entry).0)
    }

    /// Replace the constraints of an existing mapping (the "edit one link"
    /// operation of the incremental-recomposition scenario); returns the new
    /// version.
    pub fn update_mapping(
        &mut self,
        name: &str,
        constraints: ConstraintSet,
    ) -> Result<u64, CatalogError> {
        let entry = self.mapping(name)?;
        let (source, target) = (entry.source.clone(), entry.target.clone());
        self.add_mapping(name, &source, &target, constraints)
    }

    /// Remove a mapping; returns its entry if it existed.
    pub fn remove_mapping(&mut self, name: &str) -> Option<MappingEntry> {
        self.mappings.remove(name)
    }

    /// Ingest every schema and mapping of a parsed document. Existing entries
    /// with the same names are updated (and their versions bumped if the
    /// content changed). Returns the names of added-or-updated mappings.
    ///
    /// The document is checked first (the same dry run as
    /// [`crate::SharedCatalog::validate_document`]), so a rejected document
    /// leaves the catalog untouched.
    pub fn from_document(&mut self, document: &Document) -> Result<Vec<String>, CatalogError> {
        validate_document(document, |name| {
            self.schemas.get(name).map(|entry| entry.signature.clone())
        })?;
        let mut touched = Vec::new();
        for (name, signature) in &document.schemas {
            let (_, rehashed) = self.add_schema(name.clone(), signature.clone());
            touched.extend(rehashed);
        }
        for (name, (source, target, constraints)) in &document.mappings {
            let before = self.mappings.get(name.as_str()).map(MappingEntry::edge);
            self.add_mapping(name.clone(), source, target, constraints.clone())?;
            if before != Some(self.mapping(name)?.edge()) {
                touched.push(name.clone());
            }
        }
        touched.sort();
        touched.dedup();
        Ok(touched)
    }

    /// Re-apply persisted version counters and hash history (see
    /// [`crate::persist::VersionManifest`]). The document format carries
    /// content only, so a catalog rebuilt from it restarts every entry at
    /// version 1; this adopts the recorded version when the current content
    /// hash matches the recorded one, and treats a mismatch as one further
    /// out-of-session edit (recorded version + 1, history extended). Returns
    /// the number of entries whose version was restored or advanced.
    pub fn restore_versions(&mut self, manifest: &crate::persist::VersionManifest) -> usize {
        let mut adopted = 0;
        for (name, &(version, hash)) in &manifest.schemas {
            if let Some(entry) = self.schemas.get_mut(name.as_str()) {
                entry.version = if entry.hash.0 == hash { version } else { version + 1 };
                adopted += 1;
            }
        }
        for (name, (version, history)) in &manifest.mappings {
            if let Some(entry) = self.mappings.get_mut(name.as_str()) {
                let recorded_current = history.last().map(|(_, hash)| *hash);
                entry.history = history.iter().map(|&(v, h)| (v, ContentHash(h))).collect();
                if recorded_current == Some(entry.hash.0) {
                    entry.version = *version;
                } else {
                    entry.version = version + 1;
                    entry.history.push((entry.version, entry.hash));
                }
                adopted += 1;
            }
        }
        adopted
    }

    /// Render the whole catalog in the plain-text document format; the output
    /// re-parses with `parse_document` into an equivalent catalog.
    pub fn to_document_string(&self) -> String {
        let mut out = String::new();
        for entry in self.schemas.values() {
            // The document grammar requires a `;` after every relation, so
            // the schema body is rendered by hand rather than through
            // `Signature`'s Display (which omits the trailing one).
            let _ = write!(out, "schema {} {{ ", entry.name);
            for (name, info) in entry.signature.iter() {
                let _ = write!(out, "{name}/{}", info.arity);
                if let Some(key) = &info.key {
                    let cols: Vec<String> = key.iter().map(usize::to_string).collect();
                    let _ = write!(out, " key({})", cols.join(","));
                }
                let _ = write!(out, "; ");
            }
            let _ = writeln!(out, "}}");
        }
        for entry in self.mappings.values() {
            let _ =
                writeln!(out, "mapping {} : {} -> {} {{", entry.name, entry.source, entry.target);
            for constraint in entry.constraints.iter() {
                let _ = writeln!(out, "    {constraint};");
            }
            let _ = writeln!(out, "}}");
        }
        out
    }
}

/// The schema version step: stores `signature` under `name` at version 1,
/// or at the next version when it differs from the registered one; an
/// unchanged signature is a no-op. An edited schema keeps its name's
/// allocation, which the mappings naming it share. Returns the stored
/// version and whether anything changed.
pub(crate) fn upsert_schema(
    schemas: &mut BTreeMap<Name, SchemaEntry>,
    name: &str,
    signature: Signature,
) -> (u64, bool) {
    let hash = hash_signature(&signature);
    let (name, version) = match schemas.get(name) {
        Some(existing) if existing.hash == hash => return (existing.version, false),
        Some(existing) => (existing.name.clone(), existing.version + 1),
        None => (Name::from(name), 1),
    };
    let entry = SchemaEntry { name: name.clone(), signature, version, hash };
    schemas.insert(name, entry);
    (version, true)
}

/// The rehash after a schema edit: every mapping with `schema` as an
/// endpoint is rehashed over the schema hashes `hash_of` returns (mappings
/// with an unregistered endpoint are skipped) — recombined from stored
/// hashes, nothing rendered. A changed hash bumps the mapping's version and
/// appends to its history. Returns the rehashed mapping names, sorted.
pub(crate) fn rehash_touching<'m>(
    mappings: impl Iterator<Item = &'m mut MappingEntry>,
    schema: &str,
    hash_of: impl Fn(&str) -> Option<ContentHash>,
) -> Vec<String> {
    let mut touched = Vec::new();
    for entry in mappings.filter(|entry| &*entry.source == schema || &*entry.target == schema) {
        let (Some(source), Some(target)) = (hash_of(&entry.source), hash_of(&entry.target)) else {
            continue;
        };
        let hash = combine_mapping_hash(source, target, entry.constraints_hash);
        if hash != entry.hash {
            entry.version += 1;
            entry.hash = hash;
            entry.history.push((entry.version, hash));
            touched.push(entry.name.to_string());
        }
    }
    touched.sort();
    touched
}

/// The mapping upsert: stores a [`MappingEntry::new`] declaration unless the
/// registered entry has the same [`MappingEntry::edge`], which makes it a
/// no-op. A new mapping starts at version 1 and an edit bumps the version;
/// either way the stored `(version, hash)` is appended to the history. An
/// edit keeps the name's allocation, so segments folded from the old
/// version and the new one share it. Returns the stored version and whether
/// anything changed.
pub(crate) fn upsert_mapping(
    mappings: &mut BTreeMap<Name, MappingEntry>,
    mut declared: MappingEntry,
) -> (u64, bool) {
    match mappings.get_mut(&declared.name) {
        Some(existing)
            if existing.hash == declared.hash
                && existing.source == declared.source
                && existing.target == declared.target =>
        {
            return (existing.version, false)
        }
        Some(existing) => {
            declared.name = existing.name.clone();
            declared.version = existing.version + 1;
            declared.history = std::mem::take(&mut existing.history);
        }
        None => declared.version = 1,
    }
    declared.history.push((declared.version, declared.hash));
    let version = declared.version;
    mappings.insert(declared.name.clone(), declared);
    (version, true)
}

/// The endpoint check of a mapping: symbols its source and target schemas
/// share must agree on arity (overlapping schemas are allowed:
/// schema-evolution chains share every unchanged relation).
pub(crate) fn check_endpoints(source: &Signature, target: &Signature) -> Result<(), CatalogError> {
    source.union(target)?;
    Ok(())
}

/// The dry run of [`Catalog::from_document`] against the schemas `lookup`
/// returns. Ingesting a document can fail in only one way: a mapping whose
/// source or target schema is unknown, or whose endpoints disagree on the
/// arity of a shared symbol. Mappings are checked in document order, each
/// endpoint resolving from the document's own schemas first (ingest applies
/// them before any mapping), and the first failure is returned — the same
/// error `from_document` would fail with. The cost is proportional to the
/// document, not to the catalog behind `lookup`.
pub(crate) fn validate_document(
    document: &Document,
    lookup: impl Fn(&str) -> Option<Signature>,
) -> Result<(), CatalogError> {
    let resolve = |name: &str| -> Result<Signature, CatalogError> {
        match document.schemas.get(name) {
            Some(signature) => Ok(signature.clone()),
            None => lookup(name).ok_or_else(|| CatalogError::UnknownSchema(name.to_string())),
        }
    };
    for (source, target, _) in document.mappings.values() {
        check_endpoints(&resolve(source)?, &resolve(target)?)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapcomp_algebra::{parse_constraints, parse_document};

    fn sample() -> Catalog {
        let mut catalog = Catalog::new();
        catalog.add_schema("s1", Signature::from_arities([("R", 1)]));
        catalog.add_schema("s2", Signature::from_arities([("S", 1)]));
        catalog.add_mapping("m12", "s1", "s2", parse_constraints("R <= S").unwrap()).unwrap();
        catalog
    }

    #[test]
    fn versions_bump_on_edit_only() {
        let mut catalog = sample();
        assert_eq!(catalog.mapping("m12").unwrap().version, 1);
        // Identical re-registration: no bump.
        let v =
            catalog.add_mapping("m12", "s1", "s2", parse_constraints("R <= S").unwrap()).unwrap();
        assert_eq!(v, 1);
        // Edit: bump + new hash.
        let before = catalog.mapping("m12").unwrap().hash;
        let v = catalog.update_mapping("m12", parse_constraints("S <= R").unwrap()).unwrap();
        assert_eq!(v, 2);
        assert_ne!(catalog.mapping("m12").unwrap().hash, before);
        assert_eq!(catalog.mapping("m12").unwrap().history.len(), 2);
    }

    #[test]
    fn schema_updates_rehash_touching_mappings() {
        let mut catalog = sample();
        let before = catalog.mapping("m12").unwrap().hash;
        let (version, touched) =
            catalog.add_schema("s2", Signature::from_arities([("S", 1), ("S2", 2)]));
        assert_eq!(version, 2);
        assert_eq!(touched, vec!["m12".to_string()]);
        assert_ne!(catalog.mapping("m12").unwrap().hash, before);
        // Unrelated schema: nothing rehashed.
        let (_, touched) = catalog.add_schema("s9", Signature::from_arities([("Z", 1)]));
        assert!(touched.is_empty());
    }

    /// Three schemas where `b` and `c` share a signature, so re-pointing
    /// `m : a -> b` at `c` keeps its content hash.
    const REPOINT_BASE: &str =
        "schema a { R/1; } schema b { S/1; } schema c { S/1; } mapping m : a -> b { R <= S; }";
    const REPOINT_EDIT: &str = "mapping m : a -> c { R <= S; }";

    #[test]
    fn re_pointed_mapping_moves_even_with_an_unchanged_hash() {
        let mut catalog = Catalog::new();
        catalog.from_document(&parse_document(REPOINT_BASE).unwrap()).unwrap();
        let hash = catalog.mapping("m").unwrap().hash;
        let touched = catalog.from_document(&parse_document(REPOINT_EDIT).unwrap()).unwrap();
        assert_eq!(touched, vec!["m".to_string()]);
        let entry = catalog.mapping("m").unwrap();
        assert_eq!((&*entry.source, &*entry.target), ("a", "c"));
        assert_eq!(entry.hash, hash);
        assert_eq!(entry.version, 2);
        assert_eq!(entry.history, vec![(1, hash), (2, hash)]);
        assert_eq!(crate::graph::resolve_path(&catalog, "a", "c").unwrap(), vec!["m"]);
        assert!(matches!(
            crate::graph::resolve_path(&catalog, "a", "b"),
            Err(CatalogError::NoPath { .. })
        ));
        // Re-declaring the re-pointed mapping again is a no-op.
        assert_eq!(catalog.add_mapping("m", "a", "c", parse_constraints("R <= S").unwrap()), Ok(2));
    }

    #[test]
    fn rejected_documents_leave_the_catalog_untouched() {
        let mut catalog = sample();
        let before = catalog.to_document_string();
        // The schema redefinition would apply before the failing mapping.
        let document =
            parse_document("schema s2 { S/1; T/1; } mapping bad : s1 -> nope { R <= S; }").unwrap();
        assert_eq!(
            catalog.from_document(&document),
            Err(CatalogError::UnknownSchema("nope".to_string()))
        );
        assert_eq!(catalog.to_document_string(), before);
    }

    #[test]
    fn unknown_names_error() {
        let mut catalog = sample();
        assert!(matches!(catalog.schema("nope"), Err(CatalogError::UnknownSchema(_))));
        assert!(matches!(catalog.mapping("nope"), Err(CatalogError::UnknownMapping(_))));
        assert!(catalog.add_mapping("m", "s1", "nope", ConstraintSet::new()).is_err());
    }

    #[test]
    fn arity_conflicts_are_rejected() {
        let mut catalog = Catalog::new();
        catalog.add_schema("a", Signature::from_arities([("R", 1)]));
        catalog.add_schema("b", Signature::from_arities([("R", 2)]));
        assert!(matches!(
            catalog.add_mapping("m", "a", "b", ConstraintSet::new()),
            Err(CatalogError::Algebra(_))
        ));
    }

    #[test]
    fn document_round_trip() {
        let catalog = sample();
        let text = catalog.to_document_string();
        let document = parse_document(&text).expect("rendered catalog re-parses");
        let mut rebuilt = Catalog::new();
        rebuilt.from_document(&document).unwrap();
        assert_eq!(rebuilt.schema_count(), catalog.schema_count());
        assert_eq!(rebuilt.mapping_count(), catalog.mapping_count());
        assert_eq!(rebuilt.mapping("m12").unwrap().hash, catalog.mapping("m12").unwrap().hash);
        // Round-trip once more: text is a fixpoint.
        assert_eq!(rebuilt.to_document_string(), text);
    }

    #[test]
    fn materialize_builds_the_mapping() {
        let catalog = sample();
        let mapping = catalog.materialize("m12").unwrap();
        assert!(mapping.input.contains("R"));
        assert!(mapping.output.contains("S"));
        assert_eq!(mapping.constraints.len(), 1);
    }
}
