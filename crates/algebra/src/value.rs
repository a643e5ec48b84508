//! Values and tuples.
//!
//! The paper works with abstract relational instances; for evaluation and
//! model-based checking we need concrete values. Values are either integers
//! or strings (constants in selection predicates and in the `D` (add default)
//! schema-evolution primitive are drawn from a small constant pool), plus an
//! explicit `Null` used when exercising the paper's remark that the algorithm
//! "can handle nulls ... in many cases".
//!
//! A row ([`Tuple`]) is an immutable value behind one shared allocation: the
//! whole tuple is its identity, and nothing edits a row in place. Cloning a
//! row bumps a reference count, so every structure that holds the same row
//! (an instance, an index, a chase's fired set and support table) holds it
//! once. Lookups take `&[Value]`, so a probe need not allocate a row.

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// A single attribute value.
///
/// Ordering is total (`Null < Int < Str`) so that relations can be stored in
/// ordered sets and all algorithm output is deterministic.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Value {
    /// SQL-style null marker. Only produced by user-defined operators such as
    /// the left outer join registered by the composition crate.
    Null,
    /// Integer constant.
    Int(i64),
    /// String constant.
    Str(String),
}

impl Value {
    /// Convenience constructor for string values.
    pub fn str(s: impl Into<String>) -> Self {
        Value::Str(s.into())
    }

    /// True if this value is the null marker.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Rank used to order values of different variants.
    fn rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Int(_) => 1,
            Value::Str(_) => 2,
        }
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (Value::Null, Value::Null) => Ordering::Equal,
            _ => self.rank().cmp(&other.rank()),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Str(s) => write!(f, "'{s}'"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

/// A tuple is a fixed-arity sequence of values: an immutable row shared
/// by reference count (see the module docs). Build one from a `Vec<Value>`
/// with `.into()` or with [`tuple()`].
pub type Tuple = Arc<[Value]>;

/// Build a tuple from anything convertible to values.
///
/// ```
/// use mapcomp_algebra::value::{tuple, Value};
/// assert_eq!(tuple([1, 2]), vec![Value::Int(1), Value::Int(2)].into());
/// ```
pub fn tuple<I, V>(items: I) -> Tuple
where
    I: IntoIterator<Item = V>,
    V: Into<Value>,
{
    items.into_iter().map(Into::into).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_total_and_by_rank() {
        assert!(Value::Null < Value::Int(-5));
        assert!(Value::Int(100) < Value::Str(String::new()));
        assert!(Value::Int(1) < Value::Int(2));
        assert!(Value::str("a") < Value::str("b"));
    }

    #[test]
    fn display_round_trips_shape() {
        assert_eq!(Value::Int(42).to_string(), "42");
        assert_eq!(Value::str("movie").to_string(), "'movie'");
        assert_eq!(Value::Null.to_string(), "null");
    }

    #[test]
    fn tuple_builder_converts() {
        let t = tuple(["a", "b"]);
        assert_eq!(t, vec![Value::str("a"), Value::str("b")].into());
    }

    #[test]
    fn from_impls() {
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from("x"), Value::str("x"));
        assert_eq!(Value::from("x".to_string()), Value::str("x"));
        assert!(Value::Null.is_null());
        assert!(!Value::Int(0).is_null());
    }
}
