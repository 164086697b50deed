//! Runtime values and rows, and [`EqIndex`], the one map that answers `=`
//! ([`Value::sql_cmp`]) on them: behind a table's hash indexes, the
//! interpreter's column cache and the session's first-level cache.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A single scalar value stored in the database or produced by a query.
///
/// `Value` implements `Eq`, `Ord` and `Hash` (floats via `total_cmp` /
/// `to_bits`): an identity that sorts, groups and keys a program's maps. It
/// is not `=` — that is [`Value::sql_cmp`], and [`EqIndex`] the map by it.
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

    /// The number [`Value::sql_cmp`] compares this value through, if it is
    /// one: an Int's `f64` image, a zero without its sign. Values `=` holds
    /// on have one image; a value without one is its own.
    pub(crate) fn eq_image(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(f + 0.0),
            _ => None,
        }
    }

    /// This value as the key of a table that files by `Eq` and `Hash`: its
    /// image. What shares a key is a candidate for `=` to confirm — two
    /// Ints beyond 2^53 may, a NULL and a NULL do.
    pub(crate) fn into_eq_key(self) -> Value {
        match self.eq_image() {
            Some(image) => Value::Float(image),
            None => self,
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
}

/// The order of two numbers under `=` and `<`: IEEE's, in which `-0.0`
/// equals `0.0`, with NaNs — which IEEE leaves unordered — where
/// `total_cmp` puts them, so that the order stays total.
pub(crate) fn cmp_f64(a: &f64, b: &f64) -> Ordering {
    a.partial_cmp(b).unwrap_or_else(|| a.total_cmp(b))
}

/// Entries filed under database values and found by `=`: `get(key)` is
/// exactly the entries whose value [`Value::sql_cmp`] calls `Equal` to
/// `key`, in the order they were filed. A NULL is never filed, nor found.
#[derive(Debug, Clone)]
pub struct EqIndex<T> {
    /// By image, the values every key of their image equals.
    exact: HashMap<Value, Bucket<T>>,
    /// By image, the numbers from 2^53 on, where several Ints that `=` tells
    /// apart share one: each beside its entry, for a lookup to confirm.
    shared: HashMap<Value, Vec<(Value, T)>>,
}

/// The entries of one image: a key column is mostly unique, so one entry
/// is held inline and a list is allocated from the second on.
#[derive(Debug, Clone)]
enum Bucket<T> {
    One(T),
    Many(Vec<T>),
}

impl<T> Bucket<T> {
    fn push(&mut self, entry: T) {
        *self = match std::mem::replace(self, Bucket::Many(Vec::new())) {
            Bucket::One(first) => Bucket::Many(vec![first, entry]),
            Bucket::Many(mut entries) => {
                entries.push(entry);
                Bucket::Many(entries)
            }
        };
    }

    fn as_slice(&self) -> &[T] {
        match self {
            Bucket::One(entry) => std::slice::from_ref(entry),
            Bucket::Many(entries) => entries,
        }
    }
}

impl<T> Default for EqIndex<T> {
    fn default() -> EqIndex<T> {
        EqIndex {
            exact: HashMap::new(),
            shared: HashMap::new(),
        }
    }
}

impl<T: Clone> EqIndex<T> {
    /// The image `key` is filed under, and whether in `shared`.
    fn image(key: &Value) -> (Cow<'_, Value>, bool) {
        const SHARED: f64 = (1u64 << 53) as f64;
        match key.eq_image() {
            Some(x) => (Cow::Owned(Value::Float(x)), x.abs() >= SHARED),
            None => (Cow::Borrowed(key), false),
        }
    }

    /// File `entry` under `key`; under a NULL, drop it.
    pub fn insert(&mut self, key: &Value, entry: T) {
        if key.is_null() {
            return;
        }
        let (image, shared) = Self::image(key);
        if shared {
            let candidates = self.shared.entry(image.into_owned()).or_default();
            candidates.push((key.clone(), entry));
        } else {
            match self.exact.entry(image.into_owned()) {
                Entry::Occupied(equals) => equals.into_mut().push(entry),
                Entry::Vacant(slot) => {
                    slot.insert(Bucket::One(entry));
                }
            }
        }
    }

    /// The entries filed under a value `= key` holds on.
    pub fn get(&self, key: &Value) -> Cow<'_, [T]> {
        let (image, shared) = Self::image(key);
        if shared {
            let candidates = self.shared.get(&*image).into_iter().flatten();
            let equal = candidates.filter(|(v, _)| v.sql_cmp(key) == Some(Ordering::Equal));
            return equal.map(|(_, entry)| entry.clone()).collect();
        }
        Cow::Borrowed(self.exact.get(&*image).map_or(&[], Bucket::as_slice))
    }

    /// Every entry, in no particular order.
    pub fn entries(&self) -> impl Iterator<Item = &T> {
        let shared = self.shared.values().flatten().map(|(_, entry)| entry);
        self.exact.values().flat_map(Bucket::as_slice).chain(shared)
    }
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
    /// Total order: by type rank, then value; the ranks keep `Int(1)` and
    /// `Float(1.0)` distinct.
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

    /// What `get` must return: the entries whose value `sql_cmp` calls
    /// equal to the key, in filing order.
    fn scan(filed: &[Value], key: &Value) -> Vec<usize> {
        let equal = |i: &usize| filed[*i].sql_cmp(key) == Some(Ordering::Equal);
        (0..filed.len()).filter(equal).collect()
    }

    #[test]
    fn eq_index_finds_what_sql_cmp_calls_equal() {
        const TWO_53: i64 = 1 << 53;
        let filed = [
            Value::Int(1),
            Value::Null,
            Value::Float(1.0),
            Value::Float(-0.0),
            Value::Int(0),
            Value::Float(0.0),
            Value::str("1"),
            Value::Bool(true),
            Value::Float(f64::NAN),
            Value::Float(0.5),
            // Three values of one image: the Float equals both Ints, which
            // differ.
            Value::Int(TWO_53),
            Value::Int(TWO_53 + 1),
            Value::Float(TWO_53 as f64),
            Value::Int(i64::MAX),
            Value::Int(i64::MAX - 1),
            Value::Int(i64::MIN),
            Value::Int(1),
        ];
        let mut index = EqIndex::default();
        for (i, v) in filed.iter().enumerate() {
            index.insert(v, i);
        }
        let mut entries: Vec<usize> = index.entries().copied().collect();
        entries.sort();
        let all_but_the_null: Vec<usize> = (0..filed.len()).filter(|i| *i != 1).collect();
        assert_eq!(entries, all_but_the_null);

        let mut keys = filed.to_vec();
        keys.extend([
            Value::Int(2),
            Value::Float(2.0),
            Value::Float(-1.0),
            Value::str("2"),
            Value::Bool(false),
            Value::Int(TWO_53 + 2),
            Value::Float(i64::MAX as f64),
            Value::Float(f64::INFINITY),
        ]);
        for key in &keys {
            assert_eq!(*index.get(key), scan(&filed, key), "{key:?}");
        }
        assert_eq!(*index.get(&Value::Int(1)), [0, 2, 16]);
        assert_eq!(*index.get(&Value::Float(0.0)), [3, 4, 5]);
        assert_eq!(*index.get(&Value::Int(TWO_53)), [10, 12]);
        assert_eq!(*index.get(&Value::Float(TWO_53 as f64)), [10, 11, 12]);
        assert!(index.get(&Value::Null).is_empty());
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
