//! Registry of pure scalar functions.
//!
//! Transformation rule T3 pushes scalar functions applied to query-result
//! attributes *into* the query (as computed projections). For that to be
//! semantics-preserving, the client (interpreter) and the server (executor)
//! must agree on function semantics — both sides therefore evaluate
//! functions through one shared [`FuncRegistry`].

use crate::error::{DbError, DbResult};
use crate::schema::DataType;
use crate::value::Value;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// A pure scalar function: values in, value out. `Send + Sync` so a
/// registry can be shared across optimizer/interpreter threads.
pub type ScalarFn = Arc<dyn Fn(&[Value]) -> DbResult<Value> + Send + Sync>;

/// A registered function: implementation + declared return type.
#[derive(Clone)]
struct FuncDef {
    body: ScalarFn,
    return_type: DataType,
}

/// Name → pure function mapping shared by client and server.
#[derive(Clone, Default)]
pub struct FuncRegistry {
    funcs: HashMap<String, FuncDef>,
}

impl fmt::Debug for FuncRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut names: Vec<&str> = self.funcs.keys().map(|s| s.as_str()).collect();
        names.sort_unstable();
        f.debug_struct("FuncRegistry")
            .field("funcs", &names)
            .finish()
    }
}

impl FuncRegistry {
    /// An empty registry.
    pub fn new() -> FuncRegistry {
        FuncRegistry::default()
    }

    /// A registry pre-loaded with the built-ins (`abs`, `upper`, `lower`,
    /// `length`, `mod`).
    pub fn with_builtins() -> FuncRegistry {
        let mut r = FuncRegistry::new();
        r.register("abs", DataType::Float, |args| {
            expect_arity("abs", args, 1)?;
            match &args[0] {
                // Wrapping, as Int arithmetic: `i64::MIN` has no positive twin.
                Value::Int(i) => Ok(Value::Int(i.wrapping_abs())),
                Value::Float(f) => Ok(Value::Float(f.abs())),
                Value::Null => Ok(Value::Null),
                v => Err(DbError::Type(format!("abs({v})"))),
            }
        });
        r.register("upper", DataType::Str, |args| {
            expect_arity("upper", args, 1)?;
            match &args[0] {
                Value::Str(s) => Ok(Value::Str(s.to_uppercase())),
                Value::Null => Ok(Value::Null),
                v => Err(DbError::Type(format!("upper({v})"))),
            }
        });
        r.register("lower", DataType::Str, |args| {
            expect_arity("lower", args, 1)?;
            match &args[0] {
                Value::Str(s) => Ok(Value::Str(s.to_lowercase())),
                Value::Null => Ok(Value::Null),
                v => Err(DbError::Type(format!("lower({v})"))),
            }
        });
        r.register("length", DataType::Int, |args| {
            expect_arity("length", args, 1)?;
            match &args[0] {
                Value::Str(s) => Ok(Value::Int(s.len() as i64)),
                Value::Null => Ok(Value::Null),
                v => Err(DbError::Type(format!("length({v})"))),
            }
        });
        r.register("mod", DataType::Int, |args| {
            expect_arity("mod", args, 2)?;
            match (&args[0], &args[1]) {
                (Value::Int(a), Value::Int(b)) if *b != 0 => Ok(Value::Int(a.wrapping_rem(*b))),
                (Value::Int(_), Value::Int(_)) => Ok(Value::Null),
                (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
                (a, b) => Err(DbError::Type(format!("mod({a}, {b})"))),
            }
        });
        // SQL-standard coalesce: the first non-NULL argument. The F-IR
        // aggregation-extraction rule relies on it to reconcile SQL's
        // `sum`-over-empty-is-NULL with the fold's keep-the-initial-value
        // semantics. Like `abs`, the declared type is nominal — the value
        // type follows the arguments at runtime.
        r.register("coalesce", DataType::Int, |args| {
            for a in args {
                if !a.is_null() {
                    return Ok(a.clone());
                }
            }
            Ok(Value::Null)
        });
        r
    }

    /// Register (or replace) a function.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        return_type: DataType,
        f: impl Fn(&[Value]) -> DbResult<Value> + Send + Sync + 'static,
    ) {
        self.funcs.insert(
            name.into(),
            FuncDef {
                body: Arc::new(f),
                return_type,
            },
        );
    }

    /// Call a function by name.
    pub fn call(&self, name: &str, args: &[Value]) -> DbResult<Value> {
        let def = self
            .funcs
            .get(name)
            .ok_or_else(|| DbError::UnknownFunction(name.to_string()))?;
        (def.body)(args)
    }

    /// Declared return type, if registered.
    pub fn return_type(&self, name: &str) -> Option<DataType> {
        self.funcs.get(name).map(|d| d.return_type)
    }

    /// True if `name` is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.funcs.contains_key(name)
    }
}

fn expect_arity(name: &str, args: &[Value], n: usize) -> DbResult<()> {
    if args.len() != n {
        return Err(DbError::Invalid(format!(
            "{name} expects {n} argument(s), got {}",
            args.len()
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtins_work() {
        let r = FuncRegistry::with_builtins();
        assert_eq!(r.call("abs", &[Value::Int(-3)]).unwrap(), Value::Int(3));
        assert_eq!(
            r.call("upper", &[Value::str("ab")]).unwrap(),
            Value::str("AB")
        );
        assert_eq!(
            r.call("length", &[Value::str("abc")]).unwrap(),
            Value::Int(3)
        );
        assert_eq!(
            r.call("mod", &[Value::Int(7), Value::Int(3)]).unwrap(),
            Value::Int(1)
        );
        // `-i64::MIN` and `i64::MIN % -1` overflow: a panic in any profile
        // for the second, under overflow checks for the first.
        let min = Value::Int(i64::MIN);
        assert_eq!(r.call("abs", std::slice::from_ref(&min)).unwrap(), min);
        assert_eq!(
            r.call("mod", &[min, Value::Int(-1)]).unwrap(),
            Value::Int(0)
        );
    }

    #[test]
    fn unknown_function_errors() {
        let r = FuncRegistry::with_builtins();
        assert!(matches!(
            r.call("nope", &[]),
            Err(DbError::UnknownFunction(_))
        ));
    }

    #[test]
    fn arity_checked() {
        let r = FuncRegistry::with_builtins();
        assert!(r.call("abs", &[]).is_err());
    }

    #[test]
    fn custom_function_registration() {
        let mut r = FuncRegistry::new();
        r.register("double", DataType::Int, |args| {
            Ok(Value::Int(args[0].as_i64().unwrap_or(0) * 2))
        });
        assert_eq!(r.call("double", &[Value::Int(21)]).unwrap(), Value::Int(42));
        assert_eq!(r.return_type("double"), Some(DataType::Int));
        assert!(r.contains("double"));
    }

    #[test]
    fn null_passes_through_builtins() {
        let r = FuncRegistry::with_builtins();
        assert_eq!(r.call("abs", &[Value::Null]).unwrap(), Value::Null);
        assert_eq!(r.call("upper", &[Value::Null]).unwrap(), Value::Null);
    }
}
