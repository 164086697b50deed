//! Runtime values and rows.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A single scalar value stored in the database or produced by a query.
///
/// `Value` implements `Eq`, `Ord` and `Hash` (floats via `total_cmp` /
/// `to_bits`) so it can key hash joins, group-by tables and client-side
/// caches directly.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL. Compares equal to itself for grouping purposes; predicates
    /// treat comparisons with NULL as false (see [`Value::sql_cmp`]).
    Null,
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string.
    Str(String),
    /// Boolean.
    Bool(bool),
}

impl Value {
    /// Shorthand for building a string value.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// True if this is SQL NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Coerce to `f64` for arithmetic, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Coerce to `i64` if this is an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Borrow as `&str` if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Coerce to `bool` if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// SQL comparison semantics: `None` when either side is NULL (unknown),
    /// numbers as numbers (an Int with a Float through `f64`, in IEEE
    /// order: `-0.0 = 0.0`), otherwise same-type order.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        use Value::*;
        match (self, other) {
            (Null, _) | (_, Null) => None,
            (Int(a), Int(b)) => Some(a.cmp(b)),
            (Float(a), Float(b)) => Some(cmp_f64(a, b)),
            (Int(a), Float(b)) => Some(cmp_f64(&(*a as f64), b)),
            (Float(a), Int(b)) => Some(cmp_f64(a, &(*b as f64))),
            (Str(a), Str(b)) => Some(a.cmp(b)),
            (Bool(a), Bool(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }

    /// This value as the key of a table that files values by `Eq` and
    /// `Hash` (a hash index, a group table) and must find what
    /// [`Value::sql_cmp`] calls equal: `-0.0` as `0.0`, anything else as
    /// it is.
    pub(crate) fn unsigned_zero(self) -> Value {
        match self {
            Value::Float(f) => Value::Float(f + 0.0),
            v => v,
        }
    }

    /// Rank used for deterministic total ordering across types.
    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Float(_) => 3,
            Value::Str(_) => 4,
        }
    }

    /// In-memory size used when declared column widths are unavailable.
    pub fn approx_bytes(&self) -> u64 {
        match self {
            Value::Null => 1,
            Value::Bool(_) => 1,
            Value::Int(_) => 8,
            Value::Float(_) => 8,
            Value::Str(s) => s.len() as u64,
        }
    }
}

/// The order of two numbers under `=` and `<`: IEEE's, in which `-0.0`
/// equals `0.0`, with NaNs — which IEEE leaves unordered — where
/// `total_cmp` puts them, so that the order stays total.
pub(crate) fn cmp_f64(a: &f64, b: &f64) -> Ordering {
    a.partial_cmp(b).unwrap_or_else(|| a.total_cmp(b))
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    /// Total order: by type rank, then value. Int/Float cross-compare
    /// numerically so that `Int(1) == Float(1.0)` holds for grouping keys
    /// would be surprising — instead the ranks keep them distinct, and the
    /// engine normalizes numeric types per column at insert time.
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Str(a), Str(b)) => a.cmp(b),
            _ => self.type_rank().cmp(&other.type_rank()),
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.type_rank().hash(state);
        match self {
            Value::Null => {}
            Value::Bool(b) => b.hash(state),
            Value::Int(i) => i.hash(state),
            Value::Float(f) => f.to_bits().hash(state),
            Value::Str(s) => s.hash(state),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
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
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

/// A database row: one value per schema column.
pub type Row = Vec<Value>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn equality_and_hash_agree_for_floats() {
        let a = Value::Float(1.5);
        let b = Value::Float(1.5);
        assert_eq!(a, b);
        let mut set = HashSet::new();
        set.insert(a);
        assert!(set.contains(&b));
    }

    #[test]
    fn nan_is_self_equal_under_total_order() {
        let a = Value::Float(f64::NAN);
        let b = Value::Float(f64::NAN);
        assert_eq!(a.cmp(&b), Ordering::Equal);
    }

    #[test]
    fn sql_cmp_null_is_unknown() {
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_cmp(&Value::Null), None);
    }

    #[test]
    fn sql_cmp_cross_numeric() {
        assert_eq!(
            Value::Int(2).sql_cmp(&Value::Float(2.0)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::Float(1.5).sql_cmp(&Value::Int(2)),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn ordering_is_total_across_types() {
        let mut vals = [
            Value::str("z"),
            Value::Int(3),
            Value::Null,
            Value::Bool(true),
            Value::Float(0.5),
        ];
        vals.sort();
        assert_eq!(vals[0], Value::Null);
        assert!(matches!(vals[4], Value::Str(_)));
    }

    #[test]
    fn display_round_trips_simple_values() {
        assert_eq!(Value::Int(42).to_string(), "42");
        assert_eq!(Value::str("hi").to_string(), "hi");
        assert_eq!(Value::Null.to_string(), "NULL");
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from("x"), Value::str("x"));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::Int(7).as_f64(), Some(7.0));
        assert_eq!(Value::str("s").as_f64(), None);
    }
}
