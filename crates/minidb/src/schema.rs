//! Column and schema definitions, and how a name finds its column.
//!
//! A schema is built where its node is: a table's, qualified by the table
//! name, once with the table ([`crate::Table::scan_schema`], shared by every
//! unaliased scan); a join's, a projection's and an aggregate's from the
//! input schema the node already holds ([`crate::plan`]). Nothing derives a
//! schema per execution by walking a plan.
//!
//! A reference resolves through [`Schema::resolve_parts`] — qualifier and
//! name apart, as a [`crate::ColRef`] holds them — which allocates nothing
//! unless it fails: `q.name` matches qualifier and name, falls back to the
//! name alone (a projection may have stripped the qualifier), and a bare
//! name must be unique. [`Schema::resolve`] is the same on the written form
//! `"q.name"`, with the same errors, word for word.

use crate::error::{DbError, DbResult};
use std::fmt;

/// Data types supported by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    Int,
    Float,
    Str,
    Bool,
}

impl DataType {
    /// Default storage width for the type when no explicit width is given.
    /// Strings get a nominal VARCHAR-ish width.
    pub fn default_width(self) -> u32 {
        match self {
            DataType::Int => 8,
            DataType::Float => 8,
            DataType::Bool => 1,
            DataType::Str => 16,
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Int => "INT",
            DataType::Float => "FLOAT",
            DataType::Str => "VARCHAR",
            DataType::Bool => "BOOL",
        };
        write!(f, "{s}")
    }
}

/// One column of a schema.
///
/// `byte_width` is the *declared* on-wire width of the column. The paper
/// sizes its Order/Customer rows per the TPC-DS specification; declaring
/// widths makes `S_row(Q)` (result row size) exact and deterministic.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Column {
    /// Unqualified column name, e.g. `c_birth_year`.
    pub name: String,
    /// Optional qualifier (table name or alias), e.g. `c`.
    pub qualifier: Option<String>,
    /// Data type.
    pub dtype: DataType,
    /// Declared on-wire width in bytes.
    pub byte_width: u32,
}

impl Column {
    /// Build a column with the type's default width.
    pub fn new(name: impl Into<String>, dtype: DataType) -> Column {
        Column {
            name: name.into(),
            qualifier: None,
            dtype,
            byte_width: dtype.default_width(),
        }
    }

    /// Build a column with an explicit byte width.
    pub fn with_width(name: impl Into<String>, dtype: DataType, width: u32) -> Column {
        Column {
            name: name.into(),
            qualifier: None,
            dtype,
            byte_width: width,
        }
    }

    /// Return a copy of this column tagged with a qualifier.
    pub fn qualified(mut self, q: impl Into<String>) -> Column {
        self.qualifier = Some(q.into());
        self
    }

    /// `qualifier.name` if qualified, else just the name.
    pub fn full_name(&self) -> String {
        match &self.qualifier {
            Some(q) => format!("{q}.{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// An ordered list of columns.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Schema {
    columns: Vec<Column>,
}

impl Schema {
    /// Build a schema from columns.
    pub fn new(columns: Vec<Column>) -> Schema {
        Schema { columns }
    }

    /// The columns, in order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// True if the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Column at position `i`.
    pub fn column(&self, i: usize) -> &Column {
        &self.columns[i]
    }

    /// Total declared row width in bytes (`S_row` for a full-row result).
    pub fn row_bytes(&self) -> u64 {
        self.columns.iter().map(|c| c.byte_width as u64).sum()
    }

    /// Resolve a possibly-qualified column reference to its index.
    ///
    /// `"c.c_birth_year"` matches qualifier and name; `"c_birth_year"`
    /// matches by name alone and errors if the name is ambiguous.
    pub fn resolve(&self, reference: &str) -> DbResult<usize> {
        self.resolve_parts(None, reference)
    }

    /// [`Schema::resolve`] of `qualifier.name` (or of `name`), without
    /// writing the reference out: nothing is allocated unless it fails.
    pub fn resolve_parts(&self, qualifier: Option<&str>, name: &str) -> DbResult<usize> {
        match qualifier {
            // The written form splits at its first dot, this qualifier's.
            Some(q) if q.contains('.') => self.resolve(&format!("{q}.{name}")),
            _ => self.find(qualifier, name).map_err(Miss::into_error),
        }
    }

    /// [`Schema::resolve_parts`] where a miss is no error, only `None`.
    pub(crate) fn position(&self, qualifier: Option<&str>, name: &str) -> Option<usize> {
        match qualifier {
            Some(q) if q.contains('.') => self.resolve(&format!("{q}.{name}")).ok(),
            _ => self.find(qualifier, name).ok(),
        }
    }

    /// Resolution itself; an unqualified `name` with a dot is `q.name`.
    fn find<'a>(&self, qualifier: Option<&'a str>, name: &'a str) -> Result<usize, Miss<'a>> {
        let (q, name) = match (qualifier, name.split_once('.')) {
            (Some(q), _) => (q, name),
            (None, Some(parts)) => parts,
            (None, None) => {
                let mut named = self
                    .columns
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| c.name == name);
                return match (named.next(), named.next()) {
                    (Some((i, _)), None) => Ok(i),
                    (Some(_), Some(_)) => Err(Miss::Ambiguous(None, name)),
                    (None, _) => Err(Miss::Unknown(name)),
                };
            }
        };
        let is = |c: &&Column| c.name == name && c.qualifier.as_deref() == Some(q);
        let mut matching = self.columns.iter().enumerate().filter(|(_, c)| is(c));
        match (matching.next(), matching.next()) {
            (Some((i, _)), None) => Ok(i),
            (Some(_), Some(_)) => Err(Miss::Ambiguous(Some(q), name)),
            // A projection may have stripped qualifiers while the
            // reference kept one: the name alone.
            (None, _) => self.find(None, name),
        }
    }

    /// Concatenate two schemas (used for join outputs).
    pub fn join(&self, other: &Schema) -> Schema {
        let mut columns = self.columns.clone();
        columns.extend(other.columns.iter().cloned());
        Schema { columns }
    }

    /// Return a copy where every column carries `qualifier`.
    pub fn with_qualifier(&self, qualifier: &str) -> Schema {
        Schema {
            columns: self
                .columns
                .iter()
                .map(|c| c.clone().qualified(qualifier))
                .collect(),
        }
    }
}

/// Why a reference did not resolve, borrowed from it: the error is written
/// only when someone asks for it.
enum Miss<'a> {
    Unknown(&'a str),
    Ambiguous(Option<&'a str>, &'a str),
}

impl Miss<'_> {
    fn into_error(self) -> DbError {
        match self {
            Miss::Unknown(name) => DbError::UnknownColumn(name.to_string()),
            Miss::Ambiguous(None, name) => DbError::AmbiguousColumn(name.to_string()),
            Miss::Ambiguous(Some(q), name) => DbError::AmbiguousColumn(format!("{q}.{name}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Schema {
        Schema::new(vec![
            Column::new("o_id", DataType::Int).qualified("o"),
            Column::new("o_customer_sk", DataType::Int).qualified("o"),
            Column::with_width("c_name", DataType::Str, 30).qualified("c"),
        ])
    }

    #[test]
    fn resolve_unqualified_unique_name() {
        let s = sample();
        assert_eq!(s.resolve("o_id").unwrap(), 0);
        assert_eq!(s.resolve("c_name").unwrap(), 2);
    }

    #[test]
    fn resolve_qualified_name() {
        let s = sample();
        assert_eq!(s.resolve("o.o_customer_sk").unwrap(), 1);
        assert_eq!(s.resolve("c.c_name").unwrap(), 2);
    }

    #[test]
    fn resolve_falls_back_to_name_when_qualifier_missing() {
        // After projection the qualifier may be gone; a qualified lookup
        // should still find the uniquely-named column.
        let s = Schema::new(vec![Column::new("c_name", DataType::Str)]);
        assert_eq!(s.resolve("c.c_name").unwrap(), 0);
    }

    #[test]
    fn resolve_detects_ambiguity() {
        let s = Schema::new(vec![
            Column::new("id", DataType::Int).qualified("a"),
            Column::new("id", DataType::Int).qualified("b"),
        ]);
        assert!(matches!(s.resolve("id"), Err(DbError::AmbiguousColumn(_))));
        assert_eq!(s.resolve("a.id").unwrap(), 0);
        assert_eq!(s.resolve("b.id").unwrap(), 1);
    }

    #[test]
    fn resolve_unknown_column_errors() {
        let s = sample();
        assert!(matches!(s.resolve("nope"), Err(DbError::UnknownColumn(_))));
    }

    #[test]
    fn row_bytes_sums_declared_widths() {
        let s = sample();
        assert_eq!(s.row_bytes(), 8 + 8 + 30);
    }

    #[test]
    fn join_concatenates_preserving_order() {
        let a = Schema::new(vec![Column::new("x", DataType::Int)]);
        let b = Schema::new(vec![Column::new("y", DataType::Str)]);
        let j = a.join(&b);
        assert_eq!(j.len(), 2);
        assert_eq!(j.column(0).name, "x");
        assert_eq!(j.column(1).name, "y");
    }

    #[test]
    fn with_qualifier_tags_all_columns() {
        let s = Schema::new(vec![Column::new("x", DataType::Int)]).with_qualifier("t");
        assert_eq!(s.column(0).qualifier.as_deref(), Some("t"));
        assert_eq!(s.column(0).full_name(), "t.x");
    }
}
