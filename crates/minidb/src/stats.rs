//! Table and column statistics.
//!
//! Statistics drive COBRA's cost model: result cardinalities (`N_Q`),
//! predicate selectivities, and the probability `p` of a conditional
//! region's predicate (§VI: "If the condition is in terms of a query result
//! attribute, our framework estimates the value of p using database
//! statistics").
//!
//! Beyond min/max/NDV, `ANALYZE` builds a per-column **equi-depth
//! histogram** ([`Histogram`]) for numeric columns: buckets hold roughly
//! equal row counts, so skewed distributions get fine-grained boundaries
//! where the data actually lives. Range selectivities interpolate inside
//! the probe's bucket instead of assuming a fixed fraction.

use crate::column::{ColumnTable, ColumnVec};
use crate::expr::BinOp;
use crate::value::Value;
use std::collections::HashSet;

/// Buckets per equi-depth histogram (fewer when the column has fewer
/// rows). 32 keeps per-bucket error ≈ 3 % of the rows while staying cheap
/// to build and probe.
pub const HISTOGRAM_BUCKETS: usize = 32;

/// An equi-depth histogram over one numeric column's non-null values.
///
/// Buckets cover `[min, max]` contiguously: bucket 0 spans
/// `[lower, bounds[0]]`, bucket `i > 0` spans `(bounds[i-1], bounds[i]]`.
/// Bucket edges always fall *on* data values and a single value never
/// straddles two buckets, so heavy hitters get buckets of their own and
/// `counts` sums exactly to the number of values histogrammed.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Lower edge of the first bucket — the column minimum.
    lower: f64,
    /// Inclusive upper edge per bucket, strictly ascending; the last edge
    /// is the column maximum.
    bounds: Vec<f64>,
    /// Values per bucket; sums to [`Histogram::total`].
    counts: Vec<u64>,
    /// Total values covered (the column's non-null count).
    total: u64,
}

impl Histogram {
    /// Build an equi-depth histogram with at most `buckets` buckets over
    /// `values` (non-finite values are ignored). `None` when no finite
    /// values remain.
    pub fn build(mut values: Vec<f64>, buckets: usize) -> Option<Histogram> {
        values.retain(|v| v.is_finite());
        if values.is_empty() || buckets == 0 {
            return None;
        }
        values.sort_by(f64::total_cmp);
        let n = values.len();
        let depth = n.div_ceil(buckets.min(n));
        let lower = values[0];
        let mut bounds = Vec::new();
        let mut counts = Vec::new();
        let mut in_bucket = 0u64;
        for (i, v) in values.iter().enumerate() {
            in_bucket += 1;
            let run_ends = i + 1 == n || values[i + 1] != *v;
            // Close the bucket at the end of a value run once the target
            // depth is reached (so equal values share one bucket).
            if (in_bucket as usize >= depth && run_ends) || i + 1 == n {
                bounds.push(*v);
                counts.push(in_bucket);
                in_bucket = 0;
            }
        }
        Some(Histogram {
            lower,
            bounds,
            counts,
            total: n as u64,
        })
    }

    /// Number of buckets.
    pub fn buckets(&self) -> usize {
        self.bounds.len()
    }

    /// Values covered.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Lower edge of the first bucket (column minimum).
    pub fn min(&self) -> f64 {
        self.lower
    }

    /// Upper edge of the last bucket (column maximum).
    pub fn max(&self) -> f64 {
        *self.bounds.last().expect("histograms are non-empty")
    }

    /// The bucket upper edges (ascending, ending at the maximum).
    pub fn bucket_bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// The per-bucket value counts (aligned with
    /// [`Histogram::bucket_bounds`]).
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Estimated fraction of values `<= x`, interpolating linearly inside
    /// the bucket containing `x` (continuous-distribution assumption).
    /// Always in `[0, 1]`.
    pub fn le_fraction(&self, x: f64) -> f64 {
        if !x.is_finite() {
            return if x > 0.0 { 1.0 } else { 0.0 };
        }
        if x < self.lower {
            return 0.0;
        }
        let mut below = 0u64;
        let mut lo = self.lower;
        for (&bound, &count) in self.bounds.iter().zip(&self.counts) {
            if x >= bound {
                below += count;
                lo = bound;
                continue;
            }
            // x lies inside this bucket: (lo, bound].
            let frac = if bound > lo {
                (x - lo) / (bound - lo)
            } else {
                1.0
            };
            return ((below as f64 + frac * count as f64) / self.total as f64).clamp(0.0, 1.0);
        }
        1.0
    }

    /// Selectivity of `column ⋈ x` for a comparison operator. `half` is
    /// the continuity-correction offset: `0.5` for integer columns (so
    /// `< 10` and `<= 10` differ by the mass of the value 10), `0.0` for
    /// continuous ones. Non-comparison operators return `None`.
    pub fn range_selectivity(&self, op: BinOp, x: f64, half: f64) -> Option<f64> {
        let sel = match op {
            BinOp::Lt => self.le_fraction(x - half),
            BinOp::Le => self.le_fraction(x + half),
            BinOp::Gt => 1.0 - self.le_fraction(x + half),
            BinOp::Ge => 1.0 - self.le_fraction(x - half),
            _ => return None,
        };
        Some(sel.clamp(0.0, 1.0))
    }
}

/// Statistics for one column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// Number of distinct non-null values.
    pub ndv: u64,
    /// Number of NULLs.
    pub null_count: u64,
    /// Minimum non-null value, if any.
    pub min: Option<Value>,
    /// Maximum non-null value, if any.
    pub max: Option<Value>,
    /// Equi-depth histogram over the non-null values (numeric columns
    /// with at least one value only).
    pub histogram: Option<Histogram>,
}

impl ColumnStats {
    fn empty() -> ColumnStats {
        ColumnStats {
            ndv: 0,
            null_count: 0,
            min: None,
            max: None,
            histogram: None,
        }
    }

    /// Fraction of rows where this column is non-NULL (`1.0` for an empty
    /// column: equality estimation multiplies by it, and an empty input
    /// contributes zero rows anyway).
    pub fn non_null_fraction(&self, row_count: u64) -> f64 {
        if row_count == 0 {
            return 1.0;
        }
        (row_count.saturating_sub(self.null_count)) as f64 / row_count as f64
    }
}

/// Statistics for one table, computed by `ANALYZE`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TableStats {
    /// Number of rows at analyze time.
    pub row_count: u64,
    /// Per-column statistics, aligned with the schema.
    pub columns: Vec<ColumnStats>,
    /// True once `ANALYZE` has run. Distinguishes an *analyzed empty*
    /// table (estimates must say 0 rows) from a never-analyzed one
    /// (estimates fall back to defaults).
    pub analyzed: bool,
}

impl TableStats {
    /// Compute statistics from a columnar projection, one typed pass per
    /// column: distinctness and min/max follow [`Value`] semantics (floats
    /// by total order), a histogram is built for a column whose non-NULL
    /// values are all numeric. (`catalog.rs`'s tests hold this to a
    /// row-at-a-time analyzer.)
    pub fn analyze_columns(table: &ColumnTable) -> TableStats {
        let row_count = table.len as u64;
        let columns = table
            .cols
            .iter()
            .map(|col| Self::analyze_one_column(col, table.len))
            .collect();
        TableStats {
            row_count,
            columns,
            analyzed: true,
        }
    }

    fn analyze_one_column(col: &ColumnVec, rows: usize) -> ColumnStats {
        let mut stats = ColumnStats::empty();
        // Non-null numeric values, in row order, for the histogram.
        let mut numeric: Vec<f64> = Vec::new();
        match col {
            ColumnVec::Int { data, nulls } => {
                stats.null_count = col.null_count();
                let mut distinct: HashSet<i64> = HashSet::new();
                let mut min: Option<i64> = None;
                let mut max: Option<i64> = None;
                numeric.reserve(data.len() - stats.null_count as usize);
                for (i, &v) in data.iter().enumerate() {
                    if nulls.as_ref().is_some_and(|m| m.is_null(i)) {
                        continue;
                    }
                    distinct.insert(v);
                    numeric.push(v as f64);
                    min = Some(min.map_or(v, |m| m.min(v)));
                    max = Some(max.map_or(v, |m| m.max(v)));
                }
                stats.ndv = distinct.len() as u64;
                stats.min = min.map(Value::Int);
                stats.max = max.map(Value::Int);
            }
            ColumnVec::Float { data, nulls } => {
                stats.null_count = col.null_count();
                // Distinctness by bit pattern: `Value::eq` on floats is
                // total-order equality, which holds exactly when the bits
                // match.
                let mut distinct: HashSet<u64> = HashSet::new();
                let mut min: Option<f64> = None;
                let mut max: Option<f64> = None;
                numeric.reserve(data.len() - stats.null_count as usize);
                for (i, &v) in data.iter().enumerate() {
                    if nulls.as_ref().is_some_and(|m| m.is_null(i)) {
                        continue;
                    }
                    distinct.insert(v.to_bits());
                    numeric.push(v);
                    min = Some(min.map_or(v, |m| if v.total_cmp(&m).is_lt() { v } else { m }));
                    max = Some(max.map_or(v, |m| if v.total_cmp(&m).is_gt() { v } else { m }));
                }
                stats.ndv = distinct.len() as u64;
                stats.min = min.map(Value::Float);
                stats.max = max.map(Value::Float);
            }
            ColumnVec::Str { data, nulls } => {
                stats.null_count = col.null_count();
                let mut distinct: HashSet<&str> = HashSet::new();
                let mut min: Option<&str> = None;
                let mut max: Option<&str> = None;
                for (i, v) in data.iter().enumerate() {
                    if nulls.as_ref().is_some_and(|m| m.is_null(i)) {
                        continue;
                    }
                    distinct.insert(v);
                    min = Some(min.map_or(v.as_str(), |m| m.min(v)));
                    max = Some(max.map_or(v.as_str(), |m| m.max(v)));
                }
                stats.ndv = distinct.len() as u64;
                stats.min = min.map(Value::str);
                stats.max = max.map(Value::str);
            }
            ColumnVec::Bool { data, nulls } => {
                stats.null_count = col.null_count();
                let mut seen = [false; 2];
                let mut min: Option<bool> = None;
                let mut max: Option<bool> = None;
                for (i, &v) in data.iter().enumerate() {
                    if nulls.as_ref().is_some_and(|m| m.is_null(i)) {
                        continue;
                    }
                    seen[v as usize] = true;
                    min = Some(min.map_or(v, |m| m & v));
                    max = Some(max.map_or(v, |m| m | v));
                }
                stats.ndv = seen.iter().filter(|&&s| s).count() as u64;
                stats.min = min.map(Value::Bool);
                stats.max = max.map(Value::Bool);
            }
            ColumnVec::Mixed(values) => {
                // Exact mirror of the row-at-a-time analyze loop.
                let mut distinct: HashSet<&Value> = HashSet::new();
                for v in values {
                    if v.is_null() {
                        stats.null_count += 1;
                        continue;
                    }
                    distinct.insert(v);
                    if let Some(x) = v.as_f64() {
                        numeric.push(x);
                    }
                    match &stats.min {
                        Some(m) if v >= m => {}
                        _ => stats.min = Some(v.clone()),
                    }
                    match &stats.max {
                        Some(m) if v <= m => {}
                        _ => stats.max = Some(v.clone()),
                    }
                }
                stats.ndv = distinct.len() as u64;
            }
        }
        // Same pure-numeric gate as the row path: every non-null value
        // must have contributed a numeric sample.
        if !numeric.is_empty() && numeric.len() as u64 + stats.null_count == rows as u64 {
            stats.histogram = Histogram::build(numeric, HISTOGRAM_BUCKETS);
        }
        stats
    }

    /// Selectivity of an equality predicate on column `i`.
    ///
    /// Equality never matches NULLs, so `1 / NDV` is scaled by the
    /// column's non-null fraction. An *analyzed* table with no rows (or an
    /// all-NULL column) estimates 0; the 10 % fallback applies only when
    /// statistics are genuinely missing (never analyzed, or an unknown
    /// column index).
    pub fn eq_selectivity(&self, i: usize) -> f64 {
        match self.columns.get(i) {
            Some(c) if c.ndv > 0 => c.non_null_fraction(self.row_count) / c.ndv as f64,
            // Analyzed but no non-null values: empty table or all-NULL
            // column — equality can match nothing.
            Some(_) if self.analyzed => 0.0,
            None if self.analyzed && self.row_count == 0 && self.columns.is_empty() => 0.0,
            _ => 0.1,
        }
    }

    /// Selectivity of a range predicate `column_i ⋈ v` from the histogram
    /// (or min/max interpolation when no histogram exists). `None` when
    /// the statistics cannot answer — never-analyzed table, unknown
    /// column, non-numeric probe — and the caller should fall back to its
    /// default.
    pub fn range_selectivity(&self, i: usize, op: BinOp, v: &Value) -> Option<f64> {
        if !self.analyzed {
            return None;
        }
        let c = self.columns.get(i)?;
        let x = v.as_f64()?;
        // Continuity correction for *discrete columns*: integer-valued
        // data steps in whole units, so `< k` and `<= k` differ by the
        // mass at k. Keyed on the column (min and max both integers — a
        // continuous column probed with an integer literal must not be
        // shifted by half its unit) and applied only to integer probes
        // (a fractional probe already falls between lattice points).
        let column_integral =
            matches!((&c.min, &c.max), (Some(Value::Int(_)), Some(Value::Int(_))));
        let half = if column_integral && matches!(v, Value::Int(_)) {
            0.5
        } else {
            0.0
        };
        if let Some(h) = &c.histogram {
            return h.range_selectivity(op, x, half);
        }
        // Min/max linear interpolation (uniformity assumption): the
        // fallback when a numeric column has no histogram.
        let (min, max) = (c.min.as_ref()?.as_f64()?, c.max.as_ref()?.as_f64()?);
        let le_at = |p: f64| -> f64 {
            if max > min {
                ((p - min) / (max - min)).clamp(0.0, 1.0)
            } else if p >= min {
                1.0
            } else {
                0.0
            }
        };
        let sel = match op {
            BinOp::Lt => le_at(x - half),
            BinOp::Le => le_at(x + half),
            BinOp::Gt => 1.0 - le_at(x + half),
            BinOp::Ge => 1.0 - le_at(x - half),
            _ => return None,
        };
        Some(sel.clamp(0.0, 1.0))
    }

    /// Distinct-value count of column `i`, at least 1.
    pub fn ndv(&self, i: usize) -> u64 {
        self.columns.get(i).map(|c| c.ndv.max(1)).unwrap_or(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Row;
    use std::sync::Arc;

    /// `rows`, `width` columns wide, through the analyzer `Table::analyze`
    /// runs: each column typed as its values are.
    fn analyze(rows: &[Row], width: usize) -> TableStats {
        let column = |c: usize| ColumnVec::from_values(rows.iter().map(|r| r[c].clone()).collect());
        TableStats::analyze_columns(&ColumnTable {
            cols: (0..width).map(|c| Arc::new(column(c))).collect(),
            len: rows.len(),
        })
    }

    fn rows() -> Vec<Row> {
        vec![
            vec![Value::Int(1), Value::str("a"), Value::Null],
            vec![Value::Int(2), Value::str("b"), Value::Int(10)],
            vec![Value::Int(2), Value::str("a"), Value::Int(20)],
            vec![Value::Int(3), Value::str("c"), Value::Null],
        ]
    }

    #[test]
    fn analyze_counts_rows_and_ndv() {
        let s = analyze(&rows(), 3);
        assert_eq!(s.row_count, 4);
        assert_eq!(s.columns[0].ndv, 3);
        assert_eq!(s.columns[1].ndv, 3);
        assert_eq!(s.columns[2].ndv, 2);
        assert_eq!(s.columns[2].null_count, 2);
        assert!(s.analyzed);
    }

    #[test]
    fn analyze_tracks_min_max() {
        let s = analyze(&rows(), 3);
        assert_eq!(s.columns[0].min, Some(Value::Int(1)));
        assert_eq!(s.columns[0].max, Some(Value::Int(3)));
        assert_eq!(s.columns[2].min, Some(Value::Int(10)));
        assert_eq!(s.columns[2].max, Some(Value::Int(20)));
    }

    #[test]
    fn eq_selectivity_scales_by_non_null_fraction() {
        let s = analyze(&rows(), 3);
        assert!((s.eq_selectivity(0) - 1.0 / 3.0).abs() < 1e-12);
        // Column 2 is half NULL with 2 distinct values: (2/4) / 2 = 0.25.
        assert!((s.eq_selectivity(2) - 0.25).abs() < 1e-12);
        // Missing column index → default selectivity.
        assert!((s.eq_selectivity(9) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn analyzed_empty_table_estimates_zero_not_ten_percent() {
        // Regression: the pre-histogram estimator returned the 10 %
        // fallback for an analyzed `row_count == 0` table.
        let s = analyze(&[], 2);
        assert!(s.analyzed);
        assert_eq!(s.eq_selectivity(0), 0.0);
        assert_eq!(s.eq_selectivity(1), 0.0);
        // A never-analyzed table still falls back.
        let unanalyzed = TableStats::default();
        assert!(!unanalyzed.analyzed);
        assert_eq!(unanalyzed.eq_selectivity(0), 0.1);
    }

    #[test]
    fn all_null_column_eq_selectivity_is_zero() {
        let rows = vec![vec![Value::Null], vec![Value::Null]];
        let s = analyze(&rows, 1);
        assert_eq!(s.eq_selectivity(0), 0.0);
    }

    #[test]
    fn empty_table_stats() {
        let s = analyze(&[], 2);
        assert_eq!(s.row_count, 0);
        assert_eq!(s.columns[0].ndv, 0);
        assert_eq!(s.ndv(0), 1, "ndv clamps to >= 1 for estimation");
    }

    #[test]
    fn histogram_buckets_partition_the_rows() {
        let values: Vec<f64> = (0..1000).map(|i| (i % 97) as f64).collect();
        let h = Histogram::build(values, HISTOGRAM_BUCKETS).unwrap();
        assert_eq!(h.total(), 1000);
        assert_eq!(h.bucket_counts().iter().sum::<u64>(), 1000);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 96.0);
        assert!(h.buckets() <= HISTOGRAM_BUCKETS + 1);
        // Edges strictly ascend.
        for w in h.bucket_bounds().windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn histogram_le_fraction_tracks_uniform_data() {
        let values: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let h = Histogram::build(values, HISTOGRAM_BUCKETS).unwrap();
        for probe in [0.0, 100.0, 499.0, 900.0, 999.0] {
            let actual = (probe + 1.0) / 1000.0;
            let est = h.le_fraction(probe);
            assert!(
                (est - actual).abs() < 0.05,
                "le({probe}): est {est} vs actual {actual}"
            );
        }
        assert_eq!(h.le_fraction(-1.0), 0.0);
        assert_eq!(h.le_fraction(2000.0), 1.0);
    }

    #[test]
    fn histogram_captures_skew() {
        // 90 % of the mass at small values, a long thin tail.
        let mut values: Vec<f64> = (0..900).map(|i| (i % 10) as f64).collect();
        values.extend((0..100).map(|i| 10.0 + i as f64 * 9.9));
        let h = Histogram::build(values, HISTOGRAM_BUCKETS).unwrap();
        let sel = h.range_selectivity(BinOp::Lt, 10.0, 0.5).unwrap();
        assert!(
            (sel - 0.9).abs() < 0.05,
            "90 % of values are < 10, est {sel}"
        );
        // The uniform assumption over [0, ~990] would say ~1 %.
    }

    #[test]
    fn range_selectivity_interpolates_from_min_max_without_histogram() {
        // A table whose stats carry min/max but no histogram (e.g. a
        // mixed-type column would; here we drop it by hand).
        let mut s = analyze(
            &(0..100i64).map(|i| vec![Value::Int(i)]).collect::<Vec<_>>(),
            1,
        );
        s.columns[0].histogram = None;
        let sel = s.range_selectivity(0, BinOp::Gt, &Value::Int(89)).unwrap();
        assert!((sel - 0.1).abs() < 0.02, "top decile, est {sel}");
        // Never-analyzed stats answer nothing.
        assert_eq!(
            TableStats::default().range_selectivity(0, BinOp::Gt, &Value::Int(5)),
            None
        );
    }

    #[test]
    fn range_selectivity_bounds_and_operators() {
        let s = analyze(
            &(0..100i64).map(|i| vec![Value::Int(i)]).collect::<Vec<_>>(),
            1,
        );
        for op in [BinOp::Lt, BinOp::Le, BinOp::Gt, BinOp::Ge] {
            for v in [-5i64, 0, 13, 50, 99, 200] {
                let sel = s.range_selectivity(0, op, &Value::Int(v)).unwrap();
                assert!((0.0..=1.0).contains(&sel), "{op:?} {v}: {sel}");
            }
        }
        // Lt and Le differ by roughly one value's mass at an interior
        // point; Gt + Le ≈ 1.
        let lt = s.range_selectivity(0, BinOp::Lt, &Value::Int(50)).unwrap();
        let le = s.range_selectivity(0, BinOp::Le, &Value::Int(50)).unwrap();
        let gt = s.range_selectivity(0, BinOp::Gt, &Value::Int(50)).unwrap();
        assert!(le >= lt);
        assert!((gt + le - 1.0).abs() < 1e-9);
        // Non-numeric probe → None.
        assert_eq!(s.range_selectivity(0, BinOp::Lt, &Value::str("x")), None);
    }

    #[test]
    fn float_columns_ignore_integer_probe_continuity_correction() {
        // Regression: a float column on [0.1, 0.9] probed with `< 1`
        // must estimate ~100 %, not be shifted by half an integer unit.
        let rows: Vec<Row> = (1..10)
            .map(|i| vec![Value::Float(i as f64 / 10.0)])
            .collect();
        let s = analyze(&rows, 1);
        let lt = s.range_selectivity(0, BinOp::Lt, &Value::Int(1)).unwrap();
        assert!(lt > 0.95, "all values < 1: {lt}");
        let gt = s.range_selectivity(0, BinOp::Gt, &Value::Int(0)).unwrap();
        assert!(gt > 0.95, "all values > 0: {gt}");
    }

    #[test]
    fn analyze_is_deterministic() {
        let data = rows();
        assert_eq!(analyze(&data, 3), analyze(&data, 3));
    }
}
