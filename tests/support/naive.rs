//! The reference `vexec` is held to: what a query returns, computed the
//! slowest way that is obviously right. A scan copies `Table::rows()`, a
//! filter evaluates its predicate on every row, a join filters the cross
//! product of its inputs, a group is found by comparing a row's key with
//! every group before it. No index, no hash table, no batch, no short cut;
//! and every rule — three-valued logic, comparison, arithmetic,
//! aggregation — is written out here from the SQL rules, not imported: of
//! `minidb` this file uses the plan and expression *types*, `Schema` to
//! resolve a name (the written-out way: a scan qualifies its table's schema
//! afresh and a name is resolved as the string `q.name`) and `FuncRegistry`
//! to call a function. It answers rows and knows nothing of `ExecWork`.
//!
//! A statement is bound before it is run: every column must resolve, every
//! parameter be bound and every function exist, whatever the tables hold.
//! A type error is met when a row meets it.
//!
//! Where the dialect is not SQL's it is followed, and said so: Int
//! arithmetic wraps, `/` by zero is NULL (MySQL's rule, Int or Float), `+`
//! concatenates two strings, and — a column here can hold a value of
//! another type than it declares — comparing a number with a string or a
//! boolean is *unknown*, not an error. The including module provides
//! `minidb` (`use cobra::minidb;`).

use super::minidb::plan::{AggItem, SortDir};
use super::minidb::{
    AggFunc, BinOp, Database, DbError, DbResult, FuncRegistry, LogicalPlan, Row, ScalarExpr,
    Schema, Value,
};
use std::cmp::Ordering;
use std::collections::HashMap;

/// What a statement is run against.
pub struct Naive<'a> {
    pub db: &'a Database,
    pub funcs: &'a FuncRegistry,
    pub params: &'a HashMap<String, Value>,
}

/// SQL's order between two values, `None` for unknown: a NULL on either
/// side, or two kinds. Numbers compare as numbers — an Int with a Float
/// through `f64`, `-0.0 = 0.0` — strings by code point, `false < true`.
pub fn compare(a: &Value, b: &Value) -> Option<Ordering> {
    use Value::*;
    match (a, b) {
        (Int(a), Int(b)) => Some(a.cmp(b)),
        (Int(a), Float(b)) => (*a as f64).partial_cmp(b),
        (Float(a), Int(b)) => a.partial_cmp(&(*b as f64)),
        (Float(a), Float(b)) => a.partial_cmp(b),
        (Str(a), Str(b)) => Some(a.cmp(b)),
        (Bool(a), Bool(b)) => Some(a.cmp(b)),
        _ => None,
    }
}

/// `ORDER BY`'s order: NULL first, then booleans, numbers and strings,
/// each kind in `compare`'s order, so that values `=` calls equal (`-0.0`
/// and `0.0`, `1` and `1.0`) tie and the next key decides. An Int and a
/// Float compare exactly: `compare` rounds an Int from 2^53 on, where `=`
/// stops being transitive, and a sort needs an order that is.
pub fn sort_order(a: &Value, b: &Value) -> Ordering {
    use Value::*;
    let kind = |v: &Value| match v {
        Null => 0,
        Bool(_) => 1,
        Int(_) | Float(_) => 2,
        Str(_) => 3,
    };
    let exact = |i: i64, f: f64| {
        let rounded = (i as f64).partial_cmp(&f);
        rounded.map(|ord| ord.then((i as i128).cmp(&(f as i128))))
    };
    let ord = match (a, b) {
        (Int(i), Float(f)) => exact(*i, *f),
        (Float(f), Int(i)) => exact(*i, *f).map(Ordering::reverse),
        _ => compare(a, b),
    };
    kind(a).cmp(&kind(b)).then(ord.unwrap_or(Ordering::Equal))
}

/// A truth value, `None` for unknown; a type error for anything else.
fn truth(v: &Value) -> DbResult<Option<bool>> {
    match v {
        Value::Bool(b) => Ok(Some(*b)),
        Value::Null => Ok(None),
        other => Err(DbError::Type(format!("{other} is not a truth value"))),
    }
}

fn binary(op: BinOp, a: &Value, b: &Value) -> DbResult<Value> {
    let from_truth = |t: Option<bool>| t.map_or(Value::Null, Value::Bool);
    use BinOp::*;
    use Value::{Float, Int, Null, Str};
    Ok(match op {
        // FALSE decides AND, TRUE decides OR; otherwise a NULL side makes NULL.
        And | Or => {
            let decides = op == Or;
            from_truth(match (truth(a)?, truth(b)?) {
                (Some(x), _) | (_, Some(x)) if x == decides => Some(decides),
                (Some(_), Some(_)) => Some(!decides),
                _ => None,
            })
        }
        Eq | Ne | Lt | Le | Gt | Ge => from_truth(compare(a, b).map(|ord| match op {
            Eq => ord == Ordering::Equal,
            Ne => ord != Ordering::Equal,
            Lt => ord == Ordering::Less,
            Le => ord != Ordering::Greater,
            Gt => ord == Ordering::Greater,
            _ => ord != Ordering::Less,
        })),
        Add | Sub | Mul | Div => match (a, b) {
            (Null, _) | (_, Null) => Null,
            (Str(x), Str(y)) if op == Add => Str(format!("{x}{y}")),
            (Int(x), Int(y)) => match op {
                Add => Int(x.wrapping_add(*y)),
                Sub => Int(x.wrapping_sub(*y)),
                Mul => Int(x.wrapping_mul(*y)),
                _ if *y == 0 => Null,
                _ => Int(x.wrapping_div(*y)),
            },
            (Int(_) | Float(_), Int(_) | Float(_)) => match (op, number(a), number(b)) {
                (Add, x, y) => Float(x + y),
                (Sub, x, y) => Float(x - y),
                (Mul, x, y) => Float(x * y),
                (_, _, 0.0) => Null,
                (_, x, y) => Float(x / y),
            },
            _ => return Err(DbError::Type(format!("{a} {} {b}", op.sql()))),
        },
    })
}

/// A number as `f64`, Int promoted.
fn number(v: &Value) -> f64 {
    match v {
        Value::Int(i) => *i as f64,
        Value::Float(f) => *f,
        other => unreachable!("{other} is not a number"),
    }
}

/// A relation: what its columns are called, and its rows.
type Rel = (Schema, Vec<Row>);

impl Naive<'_> {
    /// The rows of `plan`, in the order SQL and the tables' insertion
    /// order define where they define one.
    pub fn run(&self, plan: &LogicalPlan) -> DbResult<Rel> {
        match plan {
            LogicalPlan::Scan { table, alias } => {
                let t = self.db.table(table)?;
                let schema = t.schema().with_qualifier(alias.as_deref().unwrap_or(table));
                Ok((schema, t.rows().to_vec()))
            }
            LogicalPlan::Select { input, pred } => self.filter(self.run(input)?, pred),
            LogicalPlan::Join { left, right, pred } => {
                let ((ls, l_rows), (rs, r_rows)) = (self.run(left)?, self.run(right)?);
                let pair = |l: &Row, r: &Row| l.iter().chain(r).cloned().collect();
                let with_each = |l| r_rows.iter().map(move |r| pair(l, r));
                let pairs = l_rows.iter().flat_map(with_each).collect();
                self.filter((ls.join(&rs), pairs), pred)
            }
            LogicalPlan::Project { input, items } => {
                let (schema, rows) = self.run(input)?;
                items.iter().try_for_each(|(e, _)| self.bind(e, &schema))?;
                let mut out = Vec::new();
                for row in &rows {
                    let values = items.iter().map(|(e, _)| self.eval(e, &schema, row));
                    out.push(values.collect::<DbResult<Row>>()?);
                }
                Ok(((*plan.output_schema(self.db, self.funcs)?).clone(), out))
            }
            LogicalPlan::Aggregate {
                input,
                group_by,
                aggs,
            } => {
                let (schema, rows) = self.run(input)?;
                let keys = group_by.iter().map(|g| schema.resolve(&g.to_ref_string()));
                let keys = keys.collect::<DbResult<Vec<_>>>()?;
                let args = aggs.iter().filter_map(|a| a.arg.as_ref());
                args.clone().try_for_each(|e| self.bind(e, &schema))?;
                // Two keys name one group when no column tells them apart:
                // NULL beside NULL, or values that compare equal.
                let same = |(a, b): (&Value, &Value)| match (a, b) {
                    (Value::Null, Value::Null) => true,
                    _ => compare(a, b) == Some(Ordering::Equal),
                };
                let mut groups: Vec<(Row, Vec<&Row>)> = Vec::new();
                for row in &rows {
                    let key: Row = keys.iter().map(|&k| row[k].clone()).collect();
                    let group = groups
                        .iter_mut()
                        .find(|(k, _)| k.iter().zip(&key).all(same));
                    match group {
                        Some((_, members)) => members.push(row),
                        None => groups.push((key, vec![row])),
                    }
                }
                // A scalar aggregate has its one group whatever the input.
                if group_by.is_empty() && groups.is_empty() {
                    groups.push((Vec::new(), Vec::new()));
                }
                let mut out = Vec::new();
                for (mut row, members) in groups {
                    for AggItem { func, arg, .. } in aggs {
                        let values = arg.as_ref().map(|e| {
                            let values = members.iter().map(|row| self.eval(e, &schema, row));
                            values.collect::<DbResult<Vec<_>>>()
                        });
                        row.push(aggregate(*func, members.len(), values.transpose()?)?);
                    }
                    out.push(row);
                }
                Ok(((*plan.output_schema(self.db, self.funcs)?).clone(), out))
            }
            LogicalPlan::OrderBy { input, keys } => {
                let (schema, mut rows) = self.run(input)?;
                let by = keys.iter().map(|(c, _)| schema.resolve(&c.to_ref_string()));
                let by = by.collect::<DbResult<Vec<_>>>()?;
                // Stable, NULLs first, rows `=` calls equal tied.
                rows.sort_by(|a, b| {
                    let ords = by.iter().zip(keys).map(|(&i, (_, dir))| match dir {
                        SortDir::Asc => sort_order(&a[i], &b[i]),
                        SortDir::Desc => sort_order(&b[i], &a[i]),
                    });
                    ords.fold(Ordering::Equal, Ordering::then)
                });
                Ok((schema, rows))
            }
            LogicalPlan::Limit { input, n } => {
                let (schema, mut rows) = self.run(input)?;
                rows.truncate(*n as usize);
                Ok((schema, rows))
            }
        }
    }

    /// The rows `pred` is TRUE on.
    fn filter(&self, (schema, rows): Rel, pred: &ScalarExpr) -> DbResult<Rel> {
        self.bind(pred, &schema)?;
        let mut out = Vec::new();
        for row in rows {
            if truth(&self.eval(pred, &schema, &row)?)? == Some(true) {
                out.push(row);
            }
        }
        Ok((schema, out))
    }

    /// Every column of `e` resolves, every parameter is bound, every
    /// function exists: checked before any row is looked at.
    fn bind(&self, e: &ScalarExpr, schema: &Schema) -> DbResult<()> {
        match e {
            ScalarExpr::Col(c) => schema.resolve(&c.to_ref_string()).map(drop),
            ScalarExpr::Lit(_) => Ok(()),
            ScalarExpr::Param(p) if self.params.contains_key(p) => Ok(()),
            ScalarExpr::Param(p) => Err(DbError::UnboundParam(p.clone())),
            ScalarExpr::Bin(_, l, r) => self.bind(l, schema).and(self.bind(r, schema)),
            ScalarExpr::Not(e) => self.bind(e, schema),
            ScalarExpr::Func(f, _) if !self.funcs.contains(f) => {
                Err(DbError::UnknownFunction(f.clone()))
            }
            ScalarExpr::Func(_, args) => args.iter().try_for_each(|a| self.bind(a, schema)),
        }
    }

    /// A bound expression on one row. Both sides of an operator are
    /// evaluated, always: an error on either side is the statement's.
    fn eval(&self, e: &ScalarExpr, schema: &Schema, row: &[Value]) -> DbResult<Value> {
        let eval = |e| self.eval(e, schema, row);
        match e {
            ScalarExpr::Col(c) => Ok(row[schema.resolve(&c.to_ref_string())?].clone()),
            ScalarExpr::Lit(v) => Ok(v.clone()),
            ScalarExpr::Param(p) => Ok(self.params[p].clone()),
            ScalarExpr::Bin(op, l, r) => binary(*op, &eval(l)?, &eval(r)?),
            ScalarExpr::Not(e) => Ok(truth(&eval(e)?)?.map_or(Value::Null, |b| Value::Bool(!b))),
            ScalarExpr::Func(f, args) => {
                let args = args.iter().map(eval).collect::<DbResult<Vec<_>>>()?;
                self.funcs.call(f, &args)
            }
        }
    }
}

/// One aggregate over a group of `rows` rows, `values` being its
/// argument's over them, in order. Every function but `COUNT(*)` looks at
/// the non-NULL values only, and is NULL when there are none.
fn aggregate(func: AggFunc, rows: usize, values: Option<Vec<Value>>) -> DbResult<Value> {
    let mut values = match (values, func) {
        (Some(values), _) => values,
        (None, AggFunc::Count) => return Ok(Value::Int(rows as i64)),
        (None, _) => return Ok(Value::Null),
    };
    values.retain(|v| !matches!(v, Value::Null));
    let extreme = |beyond| {
        let better = |best, v| match compare(v, best) {
            Some(ord) if ord == beyond => v,
            _ => best,
        };
        Ok(values.iter().reduce(better).cloned().unwrap_or(Value::Null))
    };
    let is_number = |v: &Value| matches!(v, Value::Int(_) | Value::Float(_));
    match func {
        AggFunc::Count => Ok(Value::Int(values.len() as i64)),
        AggFunc::Min => extreme(Ordering::Less),
        AggFunc::Max => extreme(Ordering::Greater),
        _ if !values.iter().all(is_number) => {
            Err(DbError::Type(format!("{} of {values:?}", func.sql())))
        }
        _ if values.is_empty() => Ok(Value::Null),
        // An Int sum stays an Int and wraps; with a Float in it, a Float.
        AggFunc::Sum if values.iter().all(|v| matches!(v, Value::Int(_))) => {
            let ints = values.iter().filter_map(Value::as_i64);
            Ok(Value::Int(ints.fold(0, i64::wrapping_add)))
        }
        AggFunc::Sum => Ok(Value::Float(values.iter().map(number).sum())),
        _ => {
            let sum: f64 = values.iter().map(number).sum();
            Ok(Value::Float(sum / values.len() as f64))
        }
    }
}
