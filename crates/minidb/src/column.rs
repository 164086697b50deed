//! Columnar table storage: typed per-column vectors with null bitmaps.
//!
//! A [`ColumnTable`] is the column-oriented projection of one table's
//! rows: one [`ColumnVec`] per schema column, each a typed vector
//! (`Vec<i64>`, `Vec<f64>`, `Vec<String>`, `Vec<bool>`) paired with a
//! packed null bitmap. Columns whose stored values do not all match the
//! declared type fall back to a [`ColumnVec::Mixed`] vector of [`Value`]s,
//! so the columnar form always round-trips the row form exactly —
//! [`ColumnVec::get`] returns precisely the `Value` that was inserted.
//!
//! The vectorized executor ([`crate::vexec`]) scans these columns
//! zero-copy (each column is `Arc`-shared out of the table's cache) and
//! `ANALYZE` ([`crate::stats::TableStats::analyze_columns`]) computes
//! statistics from them in one typed pass per column.

use crate::schema::{DataType, Schema};
use crate::value::{Row, Value};
use std::sync::Arc;

/// A packed null bitmap: bit set ⇒ the row is NULL.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NullMask {
    bits: Vec<u64>,
    len: usize,
    count: u64,
}

impl NullMask {
    /// An all-valid mask for `len` rows.
    pub fn new(len: usize) -> NullMask {
        NullMask {
            bits: vec![0; len.div_ceil(64)],
            len,
            count: 0,
        }
    }

    /// Number of rows covered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the mask covers zero rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of NULL rows.
    pub fn null_count(&self) -> u64 {
        self.count
    }

    /// Mark row `i` as NULL.
    pub fn set_null(&mut self, i: usize) {
        let word = &mut self.bits[i / 64];
        let bit = 1u64 << (i % 64);
        if *word & bit == 0 {
            *word |= bit;
            self.count += 1;
        }
    }

    /// True when row `i` is NULL.
    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        (self.bits[i / 64] >> (i % 64)) & 1 == 1
    }
}

/// One column of a [`ColumnTable`]: a typed vector plus null bitmap, or a
/// `Mixed` fallback for columns whose values don't share the declared
/// type. At NULL positions the typed `data` holds a type default (`0`,
/// `0.0`, `""`, `false`); the mask is authoritative.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnVec {
    /// 64-bit integers.
    Int {
        /// Values (default 0 at NULL positions).
        data: Vec<i64>,
        /// Null bitmap; `None` when the column has no NULLs.
        nulls: Option<NullMask>,
    },
    /// 64-bit floats.
    Float {
        /// Values (default 0.0 at NULL positions).
        data: Vec<f64>,
        /// Null bitmap; `None` when the column has no NULLs.
        nulls: Option<NullMask>,
    },
    /// UTF-8 strings.
    Str {
        /// Values (empty string at NULL positions).
        data: Vec<String>,
        /// Null bitmap; `None` when the column has no NULLs.
        nulls: Option<NullMask>,
    },
    /// Booleans.
    Bool {
        /// Values (false at NULL positions).
        data: Vec<bool>,
        /// Null bitmap; `None` when the column has no NULLs.
        nulls: Option<NullMask>,
    },
    /// Fallback for columns mixing value types: exact stored values.
    Mixed(Vec<Value>),
}

impl ColumnVec {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            ColumnVec::Int { data, .. } => data.len(),
            ColumnVec::Float { data, .. } => data.len(),
            ColumnVec::Str { data, .. } => data.len(),
            ColumnVec::Bool { data, .. } => data.len(),
            ColumnVec::Mixed(v) => v.len(),
        }
    }

    /// True when the column has zero rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when row `i` is NULL.
    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        match self {
            ColumnVec::Int { nulls, .. }
            | ColumnVec::Float { nulls, .. }
            | ColumnVec::Str { nulls, .. }
            | ColumnVec::Bool { nulls, .. } => nulls.as_ref().is_some_and(|m| m.is_null(i)),
            ColumnVec::Mixed(v) => v[i].is_null(),
        }
    }

    /// Number of NULL rows.
    pub fn null_count(&self) -> u64 {
        match self {
            ColumnVec::Int { nulls, .. }
            | ColumnVec::Float { nulls, .. }
            | ColumnVec::Str { nulls, .. }
            | ColumnVec::Bool { nulls, .. } => nulls.as_ref().map_or(0, |m| m.null_count()),
            ColumnVec::Mixed(v) => v.iter().filter(|x| x.is_null()).count() as u64,
        }
    }

    /// The value at row `i`, exactly as stored in the row form.
    #[inline]
    pub fn get(&self, i: usize) -> Value {
        match self {
            ColumnVec::Int { data, nulls } => {
                if nulls.as_ref().is_some_and(|m| m.is_null(i)) {
                    Value::Null
                } else {
                    Value::Int(data[i])
                }
            }
            ColumnVec::Float { data, nulls } => {
                if nulls.as_ref().is_some_and(|m| m.is_null(i)) {
                    Value::Null
                } else {
                    Value::Float(data[i])
                }
            }
            ColumnVec::Str { data, nulls } => {
                if nulls.as_ref().is_some_and(|m| m.is_null(i)) {
                    Value::Null
                } else {
                    Value::Str(data[i].clone())
                }
            }
            ColumnVec::Bool { data, nulls } => {
                if nulls.as_ref().is_some_and(|m| m.is_null(i)) {
                    Value::Null
                } else {
                    Value::Bool(data[i])
                }
            }
            ColumnVec::Mixed(v) => v[i].clone(),
        }
    }

    /// Build one column from row storage. Tries the declared `dtype`
    /// first; any non-NULL value of a different type demotes the whole
    /// column to [`ColumnVec::Mixed`] (preserving values exactly).
    pub fn from_rows(rows: &[Row], col: usize, dtype: DataType) -> ColumnVec {
        fn typed<T: Default>(
            rows: &[Row],
            col: usize,
            mut extract: impl FnMut(&Value) -> Option<T>,
        ) -> Option<(Vec<T>, Option<NullMask>)> {
            let mut data = Vec::with_capacity(rows.len());
            let mut nulls: Option<NullMask> = None;
            for (i, row) in rows.iter().enumerate() {
                match &row[col] {
                    Value::Null => {
                        nulls
                            .get_or_insert_with(|| NullMask::new(rows.len()))
                            .set_null(i);
                        data.push(T::default());
                    }
                    v => match extract(v) {
                        Some(x) => data.push(x),
                        None => return None,
                    },
                }
            }
            Some((data, nulls))
        }

        let built = match dtype {
            DataType::Int => {
                typed(rows, col, |v| v.as_i64()).map(|(data, nulls)| ColumnVec::Int { data, nulls })
            }
            DataType::Float => typed(rows, col, |v| match v {
                Value::Float(f) => Some(*f),
                _ => None,
            })
            .map(|(data, nulls)| ColumnVec::Float { data, nulls }),
            DataType::Str => typed(rows, col, |v| v.as_str().map(|s| s.to_string()))
                .map(|(data, nulls)| ColumnVec::Str { data, nulls }),
            DataType::Bool => typed(rows, col, |v| v.as_bool())
                .map(|(data, nulls)| ColumnVec::Bool { data, nulls }),
        };
        built.unwrap_or_else(|| ColumnVec::Mixed(rows.iter().map(|r| r[col].clone()).collect()))
    }

    /// Build a column from already-materialized values (used for
    /// intermediate results): typed when every non-NULL value shares one
    /// type, `Mixed` otherwise.
    pub fn from_values(values: Vec<Value>) -> ColumnVec {
        // Pick the candidate type from the first non-null value.
        let dtype = values.iter().find(|v| !v.is_null()).map(|v| match v {
            Value::Int(_) => DataType::Int,
            Value::Float(_) => DataType::Float,
            Value::Str(_) => DataType::Str,
            Value::Bool(_) => DataType::Bool,
            Value::Null => unreachable!(),
        });
        let Some(dtype) = dtype else {
            // All NULL (or empty): an Int column that is entirely null.
            let mut nulls = NullMask::new(values.len());
            for i in 0..values.len() {
                nulls.set_null(i);
            }
            return ColumnVec::Int {
                data: vec![0; values.len()],
                nulls: if values.is_empty() { None } else { Some(nulls) },
            };
        };
        let homogeneous = values.iter().all(|v| {
            v.is_null()
                || matches!(
                    (v, dtype),
                    (Value::Int(_), DataType::Int)
                        | (Value::Float(_), DataType::Float)
                        | (Value::Str(_), DataType::Str)
                        | (Value::Bool(_), DataType::Bool)
                )
        });
        if !homogeneous {
            return ColumnVec::Mixed(values);
        }
        let n = values.len();
        let mut nulls: Option<NullMask> = None;
        macro_rules! build {
            ($variant:ident, $ty:ty, $default:expr, $extract:expr) => {{
                let mut data: Vec<$ty> = Vec::with_capacity(n);
                for (i, v) in values.into_iter().enumerate() {
                    if v.is_null() {
                        nulls.get_or_insert_with(|| NullMask::new(n)).set_null(i);
                        data.push($default);
                    } else {
                        #[allow(clippy::redundant_closure_call)]
                        data.push(($extract)(v));
                    }
                }
                ColumnVec::$variant { data, nulls }
            }};
        }
        match dtype {
            DataType::Int => build!(Int, i64, 0, |v: Value| match v {
                Value::Int(x) => x,
                _ => unreachable!(),
            }),
            DataType::Float => build!(Float, f64, 0.0, |v: Value| match v {
                Value::Float(x) => x,
                _ => unreachable!(),
            }),
            DataType::Str => build!(Str, String, String::new(), |v: Value| match v {
                Value::Str(x) => x,
                _ => unreachable!(),
            }),
            DataType::Bool => build!(Bool, bool, false, |v: Value| match v {
                Value::Bool(x) => x,
                _ => unreachable!(),
            }),
        }
    }
}

/// The columnar projection of one table: one `Arc`-shared [`ColumnVec`]
/// per schema column. Scans clone the `Arc`s, never the data.
#[derive(Debug, Clone)]
pub struct ColumnTable {
    /// One column per schema position.
    pub cols: Vec<Arc<ColumnVec>>,
    /// Row count.
    pub len: usize,
}

impl ColumnTable {
    /// Build the columnar projection of `rows` under `schema`.
    pub fn from_rows(schema: &Schema, rows: &[Row]) -> ColumnTable {
        let cols = (0..schema.len())
            .map(|c| Arc::new(ColumnVec::from_rows(rows, c, schema.column(c).dtype)))
            .collect();
        ColumnTable {
            cols,
            len: rows.len(),
        }
    }

    /// Re-materialize row `i` (exactly the values that were stored).
    pub fn row(&self, i: usize) -> Row {
        self.cols.iter().map(|c| c.get(i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("a", DataType::Int),
            Column::new("f", DataType::Float),
            Column::with_width("s", DataType::Str, 8),
            Column::new("b", DataType::Bool),
        ])
    }

    fn rows() -> Vec<Row> {
        vec![
            vec![
                Value::Int(1),
                Value::Float(1.5),
                Value::str("x"),
                Value::Bool(true),
            ],
            vec![Value::Null, Value::Null, Value::Null, Value::Null],
            vec![
                Value::Int(-3),
                Value::Float(f64::NAN),
                Value::str(""),
                Value::Bool(false),
            ],
        ]
    }

    #[test]
    fn round_trips_rows_exactly() {
        let data = rows();
        let ct = ColumnTable::from_rows(&schema(), &data);
        assert_eq!(ct.len, 3);
        for (i, row) in data.iter().enumerate() {
            assert_eq!(&ct.row(i), row);
        }
    }

    #[test]
    fn null_bitmap_counts_and_probes() {
        let data = rows();
        let ct = ColumnTable::from_rows(&schema(), &data);
        for c in &ct.cols {
            assert_eq!(c.null_count(), 1);
            assert!(!c.is_null(0));
            assert!(c.is_null(1));
            assert!(!c.is_null(2));
        }
    }

    #[test]
    fn mixed_column_falls_back_and_round_trips() {
        let s = Schema::new(vec![Column::new("a", DataType::Int)]);
        let data = vec![
            vec![Value::Int(1)],
            vec![Value::str("oops")],
            vec![Value::Null],
        ];
        let ct = ColumnTable::from_rows(&s, &data);
        assert!(matches!(&*ct.cols[0], ColumnVec::Mixed(_)));
        for (i, row) in data.iter().enumerate() {
            assert_eq!(&ct.row(i), row);
        }
    }

    #[test]
    fn from_values_types_homogeneous_columns() {
        let c = ColumnVec::from_values(vec![Value::Int(1), Value::Null, Value::Int(2)]);
        assert!(matches!(c, ColumnVec::Int { .. }));
        assert_eq!(c.get(1), Value::Null);
        let c = ColumnVec::from_values(vec![Value::Int(1), Value::Float(2.0)]);
        assert!(matches!(c, ColumnVec::Mixed(_)));
        let c = ColumnVec::from_values(vec![Value::Null, Value::Null]);
        assert_eq!(c.get(0), Value::Null);
        assert_eq!(c.null_count(), 2);
        let c = ColumnVec::from_values(Vec::new());
        assert!(c.is_empty());
    }

    #[test]
    fn nan_floats_round_trip_bit_exactly() {
        let c = ColumnVec::from_values(vec![Value::Float(f64::NAN), Value::Float(-0.0)]);
        assert_eq!(c.get(0), Value::Float(f64::NAN)); // Eq via total order
        match c.get(1) {
            Value::Float(f) => assert_eq!(f.to_bits(), (-0.0f64).to_bits()),
            other => panic!("expected float, got {other:?}"),
        }
    }
}
