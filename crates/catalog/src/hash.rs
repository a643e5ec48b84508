//! Content hashing for catalog entries and memo-cache keys.
//!
//! The memo cache is keyed by `(left-hash, right-hash, config-hash)`, so the
//! hash must be a pure function of the *content* of a schema or mapping (its
//! canonical textual rendering), not of registration order or pointer
//! identity. A 64-bit FNV-1a over the `Display` form gives that: the
//! pretty-printer is canonical (printing → parsing round-trips), deterministic
//! across platforms, and already exists for every algebra type.
//!
//! Rendering is paid once per declaration: a mapping's hash is a
//! combination of three part hashes ([`combine_mapping_hash`]), the store
//! keeps the schema and constraint hashes, and every later rehash or
//! consistency check recombines stored hashes instead of re-rendering.

use mapcomp_algebra::{ConstraintSet, Signature};
use mapcomp_compose::ComposeConfig;

/// A 64-bit content hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ContentHash(pub u64);

impl std::fmt::Display for ContentHash {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over raw bytes.
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    extend_hash(FNV_OFFSET, bytes)
}

/// FNV-1a over `bytes`, continued from the hash of the bytes before them:
/// `extend_hash(hash_bytes(a), b) == hash_bytes(a ++ b)`.
pub fn extend_hash(mut hash: u64, bytes: &[u8]) -> u64 {
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// FNV-1a over a string.
pub fn hash_str(text: &str) -> u64 {
    hash_bytes(text.as_bytes())
}

/// Order-dependent combination of several hashes (used for composition
/// results: `combine(left, right, config)` identifies one memoised pairwise
/// composition).
pub fn combine(parts: &[u64]) -> u64 {
    let mut hash = FNV_OFFSET;
    for part in parts {
        for byte in part.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(FNV_PRIME);
        }
    }
    hash
}

/// Content hash of a schema (its canonical printed signature).
pub fn hash_signature(sig: &Signature) -> ContentHash {
    ContentHash(hash_str(&sig.to_string()))
}

/// Content hash of a constraint set (its canonical printed form).
pub fn hash_constraints(constraints: &ConstraintSet) -> u64 {
    hash_str(&constraints.to_string())
}

/// Content hash of a mapping from the hashes of its three parts: the
/// source and target signature hashes and the constraint hash. A store
/// that keeps these parts recombines a mapping's hash without rendering
/// anything.
pub fn combine_mapping_hash(
    source: ContentHash,
    target: ContentHash,
    constraints: u64,
) -> ContentHash {
    ContentHash(combine(&[source.0, target.0, constraints]))
}

/// Content hash of a mapping: source schema, target schema, and constraints,
/// all in canonical printed form. Editing any of the three yields a new hash.
pub fn hash_mapping(
    source: &Signature,
    target: &Signature,
    constraints: &ConstraintSet,
) -> ContentHash {
    combine_mapping_hash(
        hash_signature(source),
        hash_signature(target),
        hash_constraints(constraints),
    )
}

/// Content hash of a compose configuration: two configurations with the same
/// hash produce the same composition for the same inputs, so cache entries
/// are shared exactly when that holds.
pub fn hash_config(config: &ComposeConfig) -> u64 {
    let rendered = format!(
        "unfold={} left={} right={} blowup={:?} order={:?}",
        config.enable_view_unfolding,
        config.enable_left_compose,
        config.enable_right_compose,
        config.blowup_factor,
        config.symbol_order,
    );
    hash_str(&rendered)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapcomp_algebra::parse_constraints;

    #[test]
    fn hashes_are_stable_and_content_sensitive() {
        let a = Signature::from_arities([("R", 2), ("S", 1)]);
        let b = Signature::from_arities([("S", 1), ("R", 2)]);
        // BTreeMap ordering makes registration order irrelevant.
        assert_eq!(hash_signature(&a), hash_signature(&b));
        let c = Signature::from_arities([("R", 3), ("S", 1)]);
        assert_ne!(hash_signature(&a), hash_signature(&c));
    }

    #[test]
    fn mapping_hash_tracks_every_component() {
        let src = Signature::from_arities([("R", 1)]);
        let tgt = Signature::from_arities([("S", 1)]);
        let cons = parse_constraints("R <= S").unwrap();
        let base = hash_mapping(&src, &tgt, &cons);
        assert_eq!(base, hash_mapping(&src, &tgt, &cons));
        let edited = parse_constraints("S <= R").unwrap();
        assert_ne!(base, hash_mapping(&src, &tgt, &edited));
        let other_src = Signature::from_arities([("R", 2)]);
        assert_ne!(base, hash_mapping(&other_src, &tgt, &cons));
    }

    #[test]
    fn mapping_hash_recombines_from_its_parts() {
        let src = Signature::from_arities([("R", 1)]);
        let tgt = Signature::from_arities([("S", 1), ("T", 2)]);
        let cons = parse_constraints("R <= S; S <= project[0](T)").unwrap();
        let expected = ContentHash(combine(&[
            hash_str(&src.to_string()),
            hash_str(&tgt.to_string()),
            hash_str(&cons.to_string()),
        ]));
        assert_eq!(hash_mapping(&src, &tgt, &cons), expected);
        let parts = combine_mapping_hash(
            hash_signature(&src),
            hash_signature(&tgt),
            hash_constraints(&cons),
        );
        assert_eq!(parts, expected);
    }

    #[test]
    fn combine_is_order_dependent() {
        assert_ne!(combine(&[1, 2]), combine(&[2, 1]));
        assert_ne!(combine(&[1, 2, 3]), combine(&[1, 2, 4]));
        assert_eq!(combine(&[1, 2, 3]), combine(&[1, 2, 3]));
    }

    #[test]
    fn config_hash_distinguishes_ablations() {
        let full = hash_config(&ComposeConfig::default());
        assert_ne!(full, hash_config(&ComposeConfig::without_view_unfolding()));
        assert_ne!(full, hash_config(&ComposeConfig::without_left_compose()));
        assert_eq!(full, hash_config(&ComposeConfig::default()));
    }
}
