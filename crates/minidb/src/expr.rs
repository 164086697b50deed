//! Scalar expressions used in predicates and projections.

use crate::error::{DbError, DbResult};
use crate::func::FuncRegistry;
use crate::schema::{DataType, Schema};
use crate::value::{Row, Value};
use std::collections::HashMap;
use std::fmt;

/// A (possibly qualified) column reference, resolved lazily against the
/// input schema at planning/execution time.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ColRef {
    /// Optional qualifier (alias or table name).
    pub qualifier: Option<String>,
    /// Column name.
    pub name: String,
}

impl ColRef {
    /// Parse `"q.name"` or `"name"` into a reference.
    pub fn parse(s: &str) -> ColRef {
        match s.split_once('.') {
            Some((q, n)) => ColRef {
                qualifier: Some(q.to_string()),
                name: n.to_string(),
            },
            None => ColRef {
                qualifier: None,
                name: s.to_string(),
            },
        }
    }

    /// This column's position in `schema`: what [`Schema::resolve`] says of
    /// [`ColRef::to_ref_string`], errors included, with nothing written out.
    pub fn resolve(&self, schema: &Schema) -> DbResult<usize> {
        schema.resolve_parts(self.qualifier.as_deref(), &self.name)
    }

    /// [`ColRef::resolve`] where a miss is only `None`: an access path
    /// asking whether a column is on one side.
    pub(crate) fn position(&self, schema: &Schema) -> Option<usize> {
        schema.position(self.qualifier.as_deref(), &self.name)
    }

    /// The reference as `q.name` or `name`.
    pub fn to_ref_string(&self) -> String {
        match &self.qualifier {
            Some(q) => format!("{q}.{}", self.name),
            None => self.name.clone(),
        }
    }
}

impl fmt::Display for ColRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_ref_string())
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    Add,
    Sub,
    Mul,
    Div,
    And,
    Or,
}

impl BinOp {
    /// True for comparison operators producing booleans.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        )
    }

    /// The comparison with its operands swapped (`a ⋈ b` ⇔ `b ⋈' a`):
    /// `<` ↔ `>`, `<=` ↔ `>=`; symmetric operators map to themselves.
    pub fn mirror(self) -> BinOp {
        match self {
            BinOp::Lt => BinOp::Gt,
            BinOp::Le => BinOp::Ge,
            BinOp::Gt => BinOp::Lt,
            BinOp::Ge => BinOp::Le,
            other => other,
        }
    }

    /// SQL spelling of the operator.
    pub fn sql(self) -> &'static str {
        match self {
            BinOp::Eq => "=",
            BinOp::Ne => "<>",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::And => "and",
            BinOp::Or => "or",
        }
    }
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    Count,
    Sum,
    Min,
    Max,
    Avg,
}

impl AggFunc {
    /// SQL spelling.
    pub fn sql(self) -> &'static str {
        match self {
            AggFunc::Count => "count",
            AggFunc::Sum => "sum",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
            AggFunc::Avg => "avg",
        }
    }
}

/// A scalar expression tree.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ScalarExpr {
    /// Column reference.
    Col(ColRef),
    /// Literal value.
    Lit(Value),
    /// Named parameter (`:name`), bound at execution time. Iterative
    /// queries inside loops (the N+1 pattern) are parameterized this way.
    Param(String),
    /// Binary operation.
    Bin(BinOp, Box<ScalarExpr>, Box<ScalarExpr>),
    /// Logical negation.
    Not(Box<ScalarExpr>),
    /// Registered scalar function call (shared client/server semantics).
    Func(String, Vec<ScalarExpr>),
}

impl ScalarExpr {
    /// Shorthand: column reference from `"q.name"` / `"name"`.
    pub fn col(s: &str) -> ScalarExpr {
        ScalarExpr::Col(ColRef::parse(s))
    }

    /// Shorthand: literal.
    pub fn lit(v: impl Into<Value>) -> ScalarExpr {
        ScalarExpr::Lit(v.into())
    }

    /// Shorthand: named parameter.
    pub fn param(name: impl Into<String>) -> ScalarExpr {
        ScalarExpr::Param(name.into())
    }

    /// Shorthand: binary operation.
    pub fn bin(op: BinOp, l: ScalarExpr, r: ScalarExpr) -> ScalarExpr {
        ScalarExpr::Bin(op, Box::new(l), Box::new(r))
    }

    /// `l = r`.
    pub fn eq(l: ScalarExpr, r: ScalarExpr) -> ScalarExpr {
        ScalarExpr::bin(BinOp::Eq, l, r)
    }

    /// `l and r`.
    pub fn and(l: ScalarExpr, r: ScalarExpr) -> ScalarExpr {
        ScalarExpr::bin(BinOp::And, l, r)
    }

    /// Evaluate against a row of `schema`, with `params` bound.
    pub fn eval(
        &self,
        schema: &Schema,
        row: &Row,
        params: &HashMap<String, Value>,
        funcs: &FuncRegistry,
    ) -> DbResult<Value> {
        match self {
            ScalarExpr::Col(c) => Ok(row[c.resolve(schema)?].clone()),
            ScalarExpr::Lit(v) => Ok(v.clone()),
            ScalarExpr::Param(name) => params
                .get(name)
                .cloned()
                .ok_or_else(|| DbError::UnboundParam(name.clone())),
            ScalarExpr::Bin(op, l, r) => {
                let lv = l.eval(schema, row, params, funcs)?;
                let rv = r.eval(schema, row, params, funcs)?;
                apply_bin_op(*op, &lv, &rv)
            }
            ScalarExpr::Not(e) => {
                let v = e.eval(schema, row, params, funcs)?;
                match v {
                    Value::Bool(b) => Ok(Value::Bool(!b)),
                    Value::Null => Ok(Value::Null),
                    other => Err(DbError::Type(format!("NOT applied to {other}"))),
                }
            }
            ScalarExpr::Func(name, args) => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(a.eval(schema, row, params, funcs)?);
                }
                funcs.call(name, &vals)
            }
        }
    }

    /// True if this expression (transitively) references any column.
    pub fn references_columns(&self) -> bool {
        match self {
            ScalarExpr::Col(_) => true,
            ScalarExpr::Lit(_) | ScalarExpr::Param(_) => false,
            ScalarExpr::Bin(_, l, r) => l.references_columns() || r.references_columns(),
            ScalarExpr::Not(e) => e.references_columns(),
            ScalarExpr::Func(_, args) => args.iter().any(|a| a.references_columns()),
        }
    }

    /// Collect all column references in the expression.
    pub fn collect_columns(&self, out: &mut Vec<ColRef>) {
        match self {
            ScalarExpr::Col(c) => out.push(c.clone()),
            ScalarExpr::Lit(_) | ScalarExpr::Param(_) => {}
            ScalarExpr::Bin(_, l, r) => {
                l.collect_columns(out);
                r.collect_columns(out);
            }
            ScalarExpr::Not(e) => e.collect_columns(out),
            ScalarExpr::Func(_, args) => {
                for a in args {
                    a.collect_columns(out);
                }
            }
        }
    }

    /// Collect the names of all parameters in the expression.
    pub fn collect_params(&self, out: &mut Vec<String>) {
        match self {
            ScalarExpr::Param(p) => out.push(p.clone()),
            ScalarExpr::Col(_) | ScalarExpr::Lit(_) => {}
            ScalarExpr::Bin(_, l, r) => {
                l.collect_params(out);
                r.collect_params(out);
            }
            ScalarExpr::Not(e) => e.collect_params(out),
            ScalarExpr::Func(_, args) => {
                for a in args {
                    a.collect_params(out);
                }
            }
        }
    }

    /// Split a conjunction into its conjuncts (flattens nested ANDs).
    pub fn conjuncts(&self) -> Vec<&ScalarExpr> {
        let mut out = Vec::new();
        fn walk<'a>(e: &'a ScalarExpr, out: &mut Vec<&'a ScalarExpr>) {
            if let ScalarExpr::Bin(BinOp::And, l, r) = e {
                walk(l, out);
                walk(r, out);
            } else {
                out.push(e);
            }
        }
        walk(self, &mut out);
        out
    }

    /// Infer the output type against `schema`. Returns a best-effort type;
    /// unknown functions default to `Float`.
    pub fn infer_type(&self, schema: &Schema, funcs: &FuncRegistry) -> DbResult<DataType> {
        match self {
            ScalarExpr::Col(c) => Ok(schema.column(c.resolve(schema)?).dtype),
            ScalarExpr::Lit(v) => Ok(match v {
                Value::Int(_) => DataType::Int,
                Value::Float(_) => DataType::Float,
                Value::Str(_) => DataType::Str,
                Value::Bool(_) => DataType::Bool,
                Value::Null => DataType::Int,
            }),
            ScalarExpr::Param(_) => Ok(DataType::Int),
            ScalarExpr::Bin(op, l, r) => {
                if op.is_comparison() || matches!(op, BinOp::And | BinOp::Or) {
                    Ok(DataType::Bool)
                } else {
                    let lt = l.infer_type(schema, funcs)?;
                    let rt = r.infer_type(schema, funcs)?;
                    if lt == DataType::Float || rt == DataType::Float {
                        Ok(DataType::Float)
                    } else {
                        Ok(lt)
                    }
                }
            }
            ScalarExpr::Not(_) => Ok(DataType::Bool),
            ScalarExpr::Func(name, _) => Ok(funcs.return_type(name).unwrap_or(DataType::Float)),
        }
    }
}

/// Evaluate a binary operator with SQL NULL semantics.
///
/// Public because the application-language interpreter shares these
/// semantics: a predicate evaluated client-side (after rule N2 pulls a
/// filter out of a query) must agree with the server's evaluation.
pub fn apply_bin_op(op: BinOp, l: &Value, r: &Value) -> DbResult<Value> {
    use BinOp::*;
    match op {
        And | Or => {
            // Three-valued: FALSE decides AND and TRUE decides OR whatever
            // the other side is, a NULL one included.
            let side = |v: &Value| match v {
                Value::Bool(b) => Ok(Some(*b)),
                Value::Null => Ok(None),
                _ => Err(DbError::Type(format!("{} on {l} and {r}", op.sql()))),
            };
            let decides = op == Or;
            Ok(match (side(l)?, side(r)?) {
                (Some(a), Some(b)) => Value::Bool(if decides { a || b } else { a && b }),
                (Some(x), None) | (None, Some(x)) if x == decides => Value::Bool(decides),
                _ => Value::Null,
            })
        }
        Eq | Ne | Lt | Le | Gt | Ge => {
            let ord = match l.sql_cmp(r) {
                Some(o) => o,
                None => return Ok(Value::Null), // NULL comparison is unknown
            };
            let b = match op {
                Eq => ord == std::cmp::Ordering::Equal,
                Ne => ord != std::cmp::Ordering::Equal,
                Lt => ord == std::cmp::Ordering::Less,
                Le => ord != std::cmp::Ordering::Greater,
                Gt => ord == std::cmp::Ordering::Greater,
                Ge => ord != std::cmp::Ordering::Less,
                _ => unreachable!(),
            };
            Ok(Value::Bool(b))
        }
        Add | Sub | Mul | Div => {
            if l.is_null() || r.is_null() {
                return Ok(Value::Null);
            }
            // String concatenation with '+', for convenience.
            if let (Value::Str(a), Value::Str(b), Add) = (l, r, op) {
                return Ok(Value::Str(format!("{a}{b}")));
            }
            match (l, r) {
                (Value::Int(a), Value::Int(b)) => Ok(match op {
                    Add => Value::Int(a.wrapping_add(*b)),
                    Sub => Value::Int(a.wrapping_sub(*b)),
                    Mul => Value::Int(a.wrapping_mul(*b)),
                    Div => {
                        if *b == 0 {
                            Value::Null
                        } else {
                            Value::Int(a.wrapping_div(*b))
                        }
                    }
                    _ => unreachable!(),
                }),
                _ => {
                    let (a, b) = match (l.as_f64(), r.as_f64()) {
                        (Some(a), Some(b)) => (a, b),
                        _ => {
                            return Err(DbError::Type(format!(
                                "arithmetic on non-numeric {l} and {r}"
                            )))
                        }
                    };
                    Ok(match op {
                        Add => Value::Float(a + b),
                        Sub => Value::Float(a - b),
                        Mul => Value::Float(a * b),
                        // As between Ints: no infinity, no NaN.
                        Div if b == 0.0 => Value::Null,
                        Div => Value::Float(a / b),
                        _ => unreachable!(),
                    })
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("a", DataType::Int),
            Column::new("b", DataType::Str),
        ])
    }

    fn eval(e: &ScalarExpr, row: &Row) -> Value {
        e.eval(
            &schema(),
            row,
            &HashMap::new(),
            &FuncRegistry::with_builtins(),
        )
        .unwrap()
    }

    #[test]
    fn column_and_literal_eval() {
        let row = vec![Value::Int(5), Value::str("x")];
        assert_eq!(eval(&ScalarExpr::col("a"), &row), Value::Int(5));
        assert_eq!(eval(&ScalarExpr::lit(9i64), &row), Value::Int(9));
    }

    #[test]
    fn comparison_and_logic() {
        let row = vec![Value::Int(5), Value::str("x")];
        let e = ScalarExpr::and(
            ScalarExpr::bin(BinOp::Gt, ScalarExpr::col("a"), ScalarExpr::lit(3i64)),
            ScalarExpr::eq(ScalarExpr::col("b"), ScalarExpr::lit("x")),
        );
        assert_eq!(eval(&e, &row), Value::Bool(true));
    }

    #[test]
    fn arithmetic_int_and_float_promotion() {
        let row = vec![Value::Int(5), Value::str("x")];
        let e = ScalarExpr::bin(BinOp::Add, ScalarExpr::col("a"), ScalarExpr::lit(2i64));
        assert_eq!(eval(&e, &row), Value::Int(7));
        let e = ScalarExpr::bin(BinOp::Mul, ScalarExpr::col("a"), ScalarExpr::lit(0.5));
        assert_eq!(eval(&e, &row), Value::Float(2.5));
    }

    #[test]
    fn division_by_zero_yields_null() {
        let row = vec![Value::Int(5), Value::str("x")];
        let e = ScalarExpr::bin(BinOp::Div, ScalarExpr::col("a"), ScalarExpr::lit(0i64));
        assert_eq!(eval(&e, &row), Value::Null);
    }

    #[test]
    fn null_propagates_through_comparisons() {
        let row = vec![Value::Null, Value::str("x")];
        let e = ScalarExpr::eq(ScalarExpr::col("a"), ScalarExpr::lit(1i64));
        assert_eq!(eval(&e, &row), Value::Null);
    }

    #[test]
    fn params_bind_or_error() {
        let row = vec![Value::Int(5), Value::str("x")];
        let e = ScalarExpr::eq(ScalarExpr::col("a"), ScalarExpr::param("k"));
        let mut params = HashMap::new();
        params.insert("k".to_string(), Value::Int(5));
        let v = e
            .eval(&schema(), &row, &params, &FuncRegistry::with_builtins())
            .unwrap();
        assert_eq!(v, Value::Bool(true));
        let err = e
            .eval(
                &schema(),
                &row,
                &HashMap::new(),
                &FuncRegistry::with_builtins(),
            )
            .unwrap_err();
        assert!(matches!(err, DbError::UnboundParam(_)));
    }

    #[test]
    fn conjunct_splitting_flattens_nested_ands() {
        let e = ScalarExpr::and(
            ScalarExpr::and(
                ScalarExpr::eq(ScalarExpr::col("a"), ScalarExpr::lit(1i64)),
                ScalarExpr::eq(ScalarExpr::col("b"), ScalarExpr::lit("x")),
            ),
            ScalarExpr::bin(BinOp::Gt, ScalarExpr::col("a"), ScalarExpr::lit(0i64)),
        );
        assert_eq!(e.conjuncts().len(), 3);
    }

    #[test]
    fn type_inference() {
        let funcs = FuncRegistry::with_builtins();
        let s = schema();
        assert_eq!(
            ScalarExpr::col("a").infer_type(&s, &funcs).unwrap(),
            DataType::Int
        );
        assert_eq!(
            ScalarExpr::eq(ScalarExpr::col("a"), ScalarExpr::lit(1i64))
                .infer_type(&s, &funcs)
                .unwrap(),
            DataType::Bool
        );
        assert_eq!(
            ScalarExpr::bin(BinOp::Add, ScalarExpr::col("a"), ScalarExpr::lit(0.5))
                .infer_type(&s, &funcs)
                .unwrap(),
            DataType::Float
        );
    }

    #[test]
    fn string_concat_with_plus() {
        let row = vec![Value::Int(5), Value::str("ab")];
        let e = ScalarExpr::bin(BinOp::Add, ScalarExpr::col("b"), ScalarExpr::lit("cd"));
        assert_eq!(eval(&e, &row), Value::str("abcd"));
    }

    #[test]
    fn a_col_ref_resolves_as_its_written_form_does() {
        // Qualified, unqualified, a qualifier that falls back to the name,
        // ambiguous and unknown references — and the dotted ones no parser
        // writes — against qualified, mixed and duplicated schemas: the
        // same position or the same error, word for word.
        let col = |name: &str, q: Option<&str>| {
            let c = Column::new(name, DataType::Int);
            q.map_or(c.clone(), |q| c.qualified(q))
        };
        let schemas = [
            Schema::new(vec![col("o_id", Some("o")), col("c_name", Some("c"))]),
            Schema::new(vec![
                col("id", Some("a")),
                col("id", Some("b")),
                col("k", None),
            ]),
            Schema::new(vec![
                col("id", Some("a")),
                col("id", Some("a")),
                col("b.c", Some("a")),
            ]),
            Schema::new(vec![col("c", Some("b")), col("c", None), col("x.y", None)]),
        ];
        let mut refs: Vec<ColRef> = [
            "o_id", "o.o_id", "c.o_id", "x.c_name", "id", "a.id", "b.id", "z.id", "k", "a.k",
            "nope", "q.nope", "a.b.c", "x.y", "b.c",
        ]
        .iter()
        .map(|r| ColRef::parse(r))
        .collect();
        for (q, name) in [
            (None, "a.id"),
            (Some("a.b"), "c"),
            (Some("x"), "y.z"),
            (None, "b.c"),
        ] {
            refs.push(ColRef {
                qualifier: q.map(str::to_string),
                name: name.to_string(),
            });
        }
        let (mut found, mut failed) = (0, 0);
        for s in &schemas {
            for c in &refs {
                let text = c.to_ref_string();
                let written = s.resolve(&text);
                assert_eq!(c.resolve(s), written, "{c:?} in {s:?}");
                assert_eq!(c.position(s), written.clone().ok(), "{c:?} in {s:?}");
                match written {
                    Ok(_) => found += 1,
                    Err(e) => {
                        assert_eq!(c.resolve(s).unwrap_err().to_string(), e.to_string());
                        failed += 1;
                    }
                }
            }
        }
        assert!(found > 10 && failed > 10, "{found} found, {failed} failed");
    }

    #[test]
    fn collect_columns_and_params() {
        let e = ScalarExpr::and(
            ScalarExpr::eq(ScalarExpr::col("t.a"), ScalarExpr::param("p")),
            ScalarExpr::bin(BinOp::Lt, ScalarExpr::col("b"), ScalarExpr::lit(2i64)),
        );
        let mut cols = Vec::new();
        e.collect_columns(&mut cols);
        assert_eq!(cols.len(), 2);
        assert_eq!(cols[0].qualifier.as_deref(), Some("t"));
        let mut params = Vec::new();
        e.collect_params(&mut params);
        assert_eq!(params, vec!["p".to_string()]);
    }
}
