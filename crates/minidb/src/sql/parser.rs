//! Recursive-descent SQL parser producing [`LogicalPlan`]s.

use super::lexer::{tokenize, Token, TokenKind};
use crate::error::{DbError, DbResult};
use crate::expr::{AggFunc, BinOp, ColRef, ScalarExpr};
use crate::plan::{AggItem, LogicalPlan, SortDir};
use crate::value::Value;

/// Deepest plan/expression tree the parser will build. SQL text reaches
/// [`parse`] from the wire (embedded queries in submitted programs), and
/// everything downstream — fingerprinting, estimation, even `Drop` —
/// recurses over the tree, so unbounded depth is a stack overflow, which
/// aborts the process instead of unwinding. Generated and Wilos queries
/// nest < 20.
const MAX_DEPTH: usize = 128;

/// Parse a SQL `SELECT` statement into a logical plan.
pub fn parse(sql: &str) -> DbResult<LogicalPlan> {
    let tokens = tokenize(sql)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        depth: 0,
    };
    let plan = p.query()?;
    p.expect_eof()?;
    Ok(plan)
}

/// One item of the select list, before aggregate/projection classification.
enum SelectItem {
    Star,
    Expr {
        expr: ScalarExpr,
        alias: Option<String>,
    },
    Agg {
        func: AggFunc,
        arg: Option<ScalarExpr>,
        alias: Option<String>,
    },
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Levels of nesting the tree under construction already has above
    /// the current position (see [`Parser::descend`]).
    depth: usize,
}

impl Parser {
    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn bump(&mut self) -> TokenKind {
        let t = self.tokens[self.pos].kind.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn err(&self, msg: impl Into<String>) -> DbError {
        DbError::Parse(format!(
            "{} (at offset {})",
            msg.into(),
            self.tokens[self.pos].offset
        ))
    }

    /// Enter one more level of the output tree: a recursive production,
    /// or one more link of a left-deep operator/join chain (those loop
    /// rather than recurse, but nest the tree just the same). The caller
    /// gives the levels back once the subtree is built.
    fn descend(&mut self) -> DbResult<()> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(format!("nesting depth exceeds {MAX_DEPTH}")));
        }
        self.depth += 1;
        Ok(())
    }

    /// Case-insensitive keyword check without consuming.
    fn peek_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), TokenKind::Ident(s) if s.eq_ignore_ascii_case(kw))
    }

    /// Consume a keyword if present.
    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek_kw(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> DbResult<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.err(format!("expected keyword {kw:?}, found {:?}", self.peek())))
        }
    }

    fn eat_symbol(&mut self, sym: &str) -> bool {
        if matches!(self.peek(), TokenKind::Symbol(s) if *s == sym) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_symbol(&mut self, sym: &str) -> DbResult<()> {
        if self.eat_symbol(sym) {
            Ok(())
        } else {
            Err(self.err(format!("expected {sym:?}, found {:?}", self.peek())))
        }
    }

    fn expect_eof(&mut self) -> DbResult<()> {
        if matches!(self.peek(), TokenKind::Eof) {
            Ok(())
        } else {
            Err(self.err(format!("trailing input: {:?}", self.peek())))
        }
    }

    fn ident(&mut self) -> DbResult<String> {
        match self.bump() {
            TokenKind::Ident(s) => Ok(s),
            other => Err(self.err(format!("expected identifier, found {other:?}"))),
        }
    }

    /// Keywords that terminate an expression / item context.
    fn at_clause_boundary(&self) -> bool {
        matches!(
            self.peek(),
            TokenKind::Eof | TokenKind::Symbol(")") | TokenKind::Symbol(",")
        ) || [
            "from", "where", "group", "order", "limit", "join", "on", "as", "asc", "desc", "and",
            "or",
        ]
        .iter()
        .any(|kw| self.peek_kw(kw))
    }

    // ---- grammar ----

    fn query(&mut self) -> DbResult<LogicalPlan> {
        self.expect_kw("select")?;
        let items = self.select_list()?;
        self.expect_kw("from")?;
        let mut plan = self.table_ref()?;

        // JOIN chains and comma cross-joins.
        loop {
            if self.eat_kw("join") {
                self.descend()?;
                let right = self.table_ref()?;
                self.expect_kw("on")?;
                let pred = self.expr()?;
                plan = plan.join(right, pred);
            } else if self.eat_symbol(",") {
                self.descend()?;
                let right = self.table_ref()?;
                plan = plan.join(right, ScalarExpr::lit(true));
            } else {
                break;
            }
        }

        if self.eat_kw("where") {
            let pred = self.expr()?;
            plan = plan.select(pred);
        }

        let group_by = if self.eat_kw("group") {
            self.expect_kw("by")?;
            let mut cols = vec![self.colref()?];
            while self.eat_symbol(",") {
                cols.push(self.colref()?);
            }
            Some(cols)
        } else {
            None
        };

        plan = self.apply_select_items(plan, items, group_by)?;

        if self.eat_kw("order") {
            self.expect_kw("by")?;
            let mut keys = Vec::new();
            loop {
                let c = self.colref()?;
                let dir = if self.eat_kw("desc") {
                    SortDir::Desc
                } else {
                    self.eat_kw("asc");
                    SortDir::Asc
                };
                keys.push((c, dir));
                if !self.eat_symbol(",") {
                    break;
                }
            }
            plan = plan.order_by(keys);
        }

        if self.eat_kw("limit") {
            match self.bump() {
                TokenKind::Int(n) if n >= 0 => plan = plan.limit(n as u64),
                other => return Err(self.err(format!("expected LIMIT count, found {other:?}"))),
            }
        }

        Ok(plan)
    }

    fn select_list(&mut self) -> DbResult<Vec<SelectItem>> {
        let mut items = Vec::new();
        loop {
            items.push(self.select_item()?);
            if !self.eat_symbol(",") {
                break;
            }
        }
        Ok(items)
    }

    fn select_item(&mut self) -> DbResult<SelectItem> {
        if self.eat_symbol("*") {
            return Ok(SelectItem::Star);
        }
        // Aggregate call?
        if let TokenKind::Ident(name) = self.peek() {
            let agg = match name.to_ascii_lowercase().as_str() {
                "count" => Some(AggFunc::Count),
                "sum" => Some(AggFunc::Sum),
                "min" => Some(AggFunc::Min),
                "max" => Some(AggFunc::Max),
                "avg" => Some(AggFunc::Avg),
                _ => None,
            };
            if let Some(func) = agg {
                // Only treat as aggregate if followed by '('.
                if matches!(
                    self.tokens.get(self.pos + 1).map(|t| &t.kind),
                    Some(TokenKind::Symbol("("))
                ) {
                    self.bump(); // name
                    self.bump(); // (
                    let arg = if self.eat_symbol("*") {
                        if func != AggFunc::Count {
                            return Err(self.err("only count(*) supports *"));
                        }
                        None
                    } else {
                        Some(self.expr()?)
                    };
                    self.expect_symbol(")")?;
                    let alias = self.optional_alias()?;
                    return Ok(SelectItem::Agg { func, arg, alias });
                }
            }
        }
        let expr = self.expr()?;
        let alias = self.optional_alias()?;
        Ok(SelectItem::Expr { expr, alias })
    }

    fn optional_alias(&mut self) -> DbResult<Option<String>> {
        if self.eat_kw("as") {
            return Ok(Some(self.ident()?));
        }
        // Bare alias: an identifier that is not a clause keyword.
        if matches!(self.peek(), TokenKind::Ident(_)) && !self.at_clause_boundary() {
            return Ok(Some(self.ident()?));
        }
        Ok(None)
    }

    fn table_ref(&mut self) -> DbResult<LogicalPlan> {
        let table = self.ident()?;
        let aliased = self.eat_kw("as")
            || (matches!(self.peek(), TokenKind::Ident(_)) && !self.at_clause_boundary());
        let alias = if aliased { Some(self.ident()?) } else { None };
        Ok(LogicalPlan::Scan { table, alias })
    }

    fn colref(&mut self) -> DbResult<ColRef> {
        let first = self.ident()?;
        if self.eat_symbol(".") {
            let second = self.ident()?;
            Ok(ColRef {
                qualifier: Some(first),
                name: second,
            })
        } else {
            Ok(ColRef {
                qualifier: None,
                name: first,
            })
        }
    }

    /// Turn the select list into Project / Aggregate nodes.
    fn apply_select_items(
        &self,
        plan: LogicalPlan,
        items: Vec<SelectItem>,
        group_by: Option<Vec<ColRef>>,
    ) -> DbResult<LogicalPlan> {
        let has_agg = items.iter().any(|i| matches!(i, SelectItem::Agg { .. }));
        if let Some(group_by) = group_by {
            // GROUP BY present: non-agg items must be column refs.
            let mut aggs = Vec::new();
            for item in &items {
                match item {
                    SelectItem::Agg { func, arg, alias } => aggs.push(AggItem {
                        func: *func,
                        arg: arg.clone(),
                        name: alias
                            .clone()
                            .unwrap_or_else(|| default_agg_name(*func, arg)),
                    }),
                    SelectItem::Expr {
                        expr: ScalarExpr::Col(_),
                        ..
                    } => {}
                    SelectItem::Star => {
                        return Err(DbError::Parse("cannot mix * with GROUP BY".into()))
                    }
                    SelectItem::Expr { .. } => {
                        return Err(DbError::Parse(
                            "non-column select item with GROUP BY".into(),
                        ))
                    }
                }
            }
            return Ok(plan.aggregate(group_by, aggs));
        }
        if has_agg {
            // Scalar aggregation (no GROUP BY): all items must be aggregates.
            let mut aggs = Vec::new();
            for item in &items {
                match item {
                    SelectItem::Agg { func, arg, alias } => aggs.push(AggItem {
                        func: *func,
                        arg: arg.clone(),
                        name: alias
                            .clone()
                            .unwrap_or_else(|| default_agg_name(*func, arg)),
                    }),
                    _ => {
                        return Err(DbError::Parse(
                            "mixing aggregates and plain columns requires GROUP BY".into(),
                        ))
                    }
                }
            }
            return Ok(plan.aggregate(Vec::new(), aggs));
        }
        // Plain projection, unless it's a bare '*'.
        if items.len() == 1 && matches!(items[0], SelectItem::Star) {
            return Ok(plan);
        }
        let mut proj = Vec::new();
        for item in items {
            match item {
                SelectItem::Star => {
                    return Err(DbError::Parse(
                        "'*' cannot be mixed with other items".into(),
                    ))
                }
                SelectItem::Expr { expr, alias } => {
                    let name = alias.unwrap_or_else(|| default_expr_name(&expr));
                    proj.push((expr, name));
                }
                SelectItem::Agg { .. } => unreachable!("handled above"),
            }
        }
        Ok(plan.project(proj))
    }

    // ---- expressions (precedence climbing) ----

    fn expr(&mut self) -> DbResult<ScalarExpr> {
        self.or_expr()
    }

    /// A left-associative chain `next (op next)*`. It loops rather than
    /// recurses, but every link nests the result one level deeper, so
    /// every link is charged to the depth budget.
    fn binary_chain(
        &mut self,
        next: impl Fn(&mut Parser) -> DbResult<ScalarExpr>,
        op_at: impl Fn(&TokenKind) -> Option<BinOp>,
    ) -> DbResult<ScalarExpr> {
        let base = self.depth;
        let mut lhs = next(self)?;
        while let Some(op) = op_at(self.peek()) {
            self.bump();
            self.descend()?;
            let rhs = next(self)?;
            lhs = ScalarExpr::bin(op, lhs, rhs);
        }
        self.depth = base;
        Ok(lhs)
    }

    fn or_expr(&mut self) -> DbResult<ScalarExpr> {
        self.binary_chain(Parser::and_expr, |t| {
            matches!(t, TokenKind::Ident(s) if s.eq_ignore_ascii_case("or")).then_some(BinOp::Or)
        })
    }

    fn and_expr(&mut self) -> DbResult<ScalarExpr> {
        self.binary_chain(Parser::not_expr, |t| {
            matches!(t, TokenKind::Ident(s) if s.eq_ignore_ascii_case("and")).then_some(BinOp::And)
        })
    }

    fn not_expr(&mut self) -> DbResult<ScalarExpr> {
        if self.eat_kw("not") {
            self.descend()?;
            let inner = self.not_expr()?;
            self.depth -= 1;
            return Ok(ScalarExpr::Not(Box::new(inner)));
        }
        self.cmp_expr()
    }

    fn cmp_expr(&mut self) -> DbResult<ScalarExpr> {
        let lhs = self.add_expr()?;
        let op = match self.peek() {
            TokenKind::Symbol("=") => Some(BinOp::Eq),
            TokenKind::Symbol("<>") => Some(BinOp::Ne),
            TokenKind::Symbol("<") => Some(BinOp::Lt),
            TokenKind::Symbol("<=") => Some(BinOp::Le),
            TokenKind::Symbol(">") => Some(BinOp::Gt),
            TokenKind::Symbol(">=") => Some(BinOp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let rhs = self.add_expr()?;
            Ok(ScalarExpr::bin(op, lhs, rhs))
        } else {
            Ok(lhs)
        }
    }

    fn add_expr(&mut self) -> DbResult<ScalarExpr> {
        self.binary_chain(Parser::mul_expr, |t| match t {
            TokenKind::Symbol("+") => Some(BinOp::Add),
            TokenKind::Symbol("-") => Some(BinOp::Sub),
            _ => None,
        })
    }

    fn mul_expr(&mut self) -> DbResult<ScalarExpr> {
        self.binary_chain(Parser::unary_expr, |t| match t {
            TokenKind::Symbol("*") => Some(BinOp::Mul),
            TokenKind::Symbol("/") => Some(BinOp::Div),
            _ => None,
        })
    }

    fn unary_expr(&mut self) -> DbResult<ScalarExpr> {
        if self.eat_symbol("-") {
            self.descend()?;
            let inner = self.unary_expr()?;
            self.depth -= 1;
            return Ok(ScalarExpr::bin(BinOp::Sub, ScalarExpr::lit(0i64), inner));
        }
        self.atom()
    }

    fn atom(&mut self) -> DbResult<ScalarExpr> {
        match self.bump() {
            TokenKind::Int(n) => Ok(ScalarExpr::lit(n)),
            TokenKind::Float(f) => Ok(ScalarExpr::lit(f)),
            TokenKind::Str(s) => Ok(ScalarExpr::Lit(Value::Str(s))),
            TokenKind::Param(p) => Ok(ScalarExpr::Param(p)),
            TokenKind::Symbol("(") => {
                self.descend()?;
                let inner = self.expr()?;
                self.depth -= 1;
                self.expect_symbol(")")?;
                Ok(inner)
            }
            TokenKind::Ident(name) => {
                let lower = name.to_ascii_lowercase();
                if lower == "true" {
                    return Ok(ScalarExpr::lit(true));
                }
                if lower == "false" {
                    return Ok(ScalarExpr::lit(false));
                }
                if lower == "null" {
                    return Ok(ScalarExpr::Lit(Value::Null));
                }
                // Function call?
                if matches!(self.peek(), TokenKind::Symbol("(")) {
                    self.bump();
                    let mut args = Vec::new();
                    if !self.eat_symbol(")") {
                        self.descend()?;
                        loop {
                            args.push(self.expr()?);
                            if !self.eat_symbol(",") {
                                break;
                            }
                        }
                        self.depth -= 1;
                        self.expect_symbol(")")?;
                    }
                    return Ok(ScalarExpr::Func(lower, args));
                }
                // Qualified column?
                if self.eat_symbol(".") {
                    let col = self.ident()?;
                    return Ok(ScalarExpr::Col(ColRef {
                        qualifier: Some(name),
                        name: col,
                    }));
                }
                Ok(ScalarExpr::Col(ColRef {
                    qualifier: None,
                    name,
                }))
            }
            other => Err(self.err(format!("unexpected token {other:?} in expression"))),
        }
    }
}

/// Deterministic default name for an unaliased aggregate.
fn default_agg_name(func: AggFunc, arg: &Option<ScalarExpr>) -> String {
    match arg {
        None => format!("{}_all", func.sql()),
        Some(ScalarExpr::Col(c)) => format!("{}_{}", func.sql(), c.name),
        Some(_) => format!("{}_expr", func.sql()),
    }
}

/// Deterministic default name for an unaliased projection.
fn default_expr_name(expr: &ScalarExpr) -> String {
    match expr {
        ScalarExpr::Col(c) => c.name.clone(),
        _ => "expr".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_star_query() {
        let p = parse("select * from orders").unwrap();
        assert_eq!(p, LogicalPlan::scan("orders"));
    }

    #[test]
    fn parses_alias_and_join() {
        let p =
            parse("select * from orders o join customer c on o.o_customer_sk = c.c_customer_sk")
                .unwrap();
        match p {
            LogicalPlan::Join { left, right, pred } => {
                assert_eq!(*left, LogicalPlan::scan_as("orders", "o"));
                assert_eq!(*right, LogicalPlan::scan_as("customer", "c"));
                assert!(matches!(pred, ScalarExpr::Bin(BinOp::Eq, _, _)));
            }
            other => panic!("expected join, got {other:?}"),
        }
    }

    #[test]
    fn parses_where_group_order_limit() {
        let p = parse(
            "select o_status, count(*) as n from orders where o_amount > 5 \
             group by o_status order by o_status desc limit 3",
        )
        .unwrap();
        // Shape: Limit(OrderBy(Aggregate(Select(Scan))))
        let LogicalPlan::Limit { input, n } = p else {
            panic!("limit")
        };
        assert_eq!(n, 3);
        let LogicalPlan::OrderBy { input, keys } = *input else {
            panic!("order")
        };
        assert_eq!(keys[0].1, SortDir::Desc);
        let LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
        } = *input
        else {
            panic!("agg")
        };
        assert_eq!(group_by.len(), 1);
        assert_eq!(aggs[0].name, "n");
        assert!(matches!(*input, LogicalPlan::Select { .. }));
    }

    #[test]
    fn parses_scalar_aggregate() {
        let p = parse("select sum(sale_amt) from sales").unwrap();
        let LogicalPlan::Aggregate { group_by, aggs, .. } = p else {
            panic!()
        };
        assert!(group_by.is_empty());
        assert_eq!(aggs[0].func, AggFunc::Sum);
        assert_eq!(aggs[0].name, "sum_sale_amt");
    }

    #[test]
    fn parses_projection_with_aliases() {
        let p = parse("select o_id, o_amount * 2 as double_amount from orders").unwrap();
        let LogicalPlan::Project { items, .. } = p else {
            panic!()
        };
        assert_eq!(items[0].1, "o_id");
        assert_eq!(items[1].1, "double_amount");
    }

    #[test]
    fn parses_params_and_functions() {
        let p =
            parse("select * from customer where c_customer_sk = :cust and abs(c_birth_year) > 0")
                .unwrap();
        assert_eq!(p.params(), vec!["cust".to_string()]);
    }

    #[test]
    fn parses_comma_cross_join() {
        let p = parse("select * from a, b where a.x = b.y").unwrap();
        let LogicalPlan::Select { input, .. } = p else {
            panic!()
        };
        assert!(matches!(*input, LogicalPlan::Join { .. }));
    }

    #[test]
    fn precedence_and_parens() {
        let p = parse("select * from t where a = 1 or b = 2 and c = 3").unwrap();
        let LogicalPlan::Select { pred, .. } = p else {
            panic!()
        };
        // OR is outermost: a=1 OR (b=2 AND c=3)
        assert!(matches!(pred, ScalarExpr::Bin(BinOp::Or, _, _)));
        let p2 = parse("select * from t where (a = 1 or b = 2) and c = 3").unwrap();
        let LogicalPlan::Select { pred, .. } = p2 else {
            panic!()
        };
        assert!(matches!(pred, ScalarExpr::Bin(BinOp::And, _, _)));
    }

    #[test]
    fn unary_minus_desugars_to_subtraction() {
        let p = parse("select * from t where a > -5").unwrap();
        let LogicalPlan::Select { pred, .. } = p else {
            panic!()
        };
        let ScalarExpr::Bin(BinOp::Gt, _, rhs) = pred else {
            panic!()
        };
        assert!(matches!(*rhs, ScalarExpr::Bin(BinOp::Sub, _, _)));
    }

    #[test]
    fn nesting_depth_is_bounded_with_a_typed_error() {
        let too_deep = |sql: String| {
            let err = parse(&sql).unwrap_err();
            assert!(
                matches!(&err, DbError::Parse(m) if m.contains("nesting depth")),
                "{err}"
            );
        };
        // Recursive productions: at the budget they parse (and round-trip
        // while the printed form, which parenthesizes nested `not` and
        // unary minus, stays within it); far past it — depths that used
        // to overflow the stack, an abort — they are a parse error.
        for (open, close) in [("(", ")"), ("NOT ", ""), ("- ", "")] {
            let wrap = |n: usize| {
                let (open, close) = (open.repeat(n), close.repeat(n));
                format!("SELECT * FROM t WHERE {open}a = 1{close}")
            };
            parse(&wrap(MAX_DEPTH - 1)).unwrap();
            let plan = parse(&wrap(MAX_DEPTH / 2 - 1)).unwrap();
            assert_eq!(parse(&crate::sql::print(&plan)).unwrap(), plan);
            too_deep(wrap(100_000));
        }
        // Left-deep chains loop instead of recursing, but nest the tree
        // (which fingerprinting and `Drop` recurse over) just the same.
        for sep in [" + ", " * ", " AND ", " OR "] {
            let chain = |n: usize| format!("SELECT * FROM t WHERE {}", vec!["a"; n].join(sep));
            parse(&chain(MAX_DEPTH)).unwrap();
            too_deep(chain(100_000));
        }
        too_deep(format!("SELECT * FROM {}", vec!["t"; 100_000].join(", ")));
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse("select * from t extra garbage here").is_err());
    }

    #[test]
    fn rejects_mixed_star_and_items() {
        assert!(parse("select *, a from t").is_err());
    }

    #[test]
    fn rejects_agg_mixed_with_plain_column_without_group_by() {
        assert!(parse("select a, count(*) from t").is_err());
    }

    #[test]
    fn count_star_only() {
        assert!(parse("select sum(*) from t").is_err());
        assert!(parse("select count(*) from t").is_ok());
    }

    #[test]
    fn order_by_multiple_keys() {
        let p = parse("select * from t order by a asc, b desc").unwrap();
        let LogicalPlan::OrderBy { keys, .. } = p else {
            panic!()
        };
        assert_eq!(keys.len(), 2);
        assert_eq!(keys[0].1, SortDir::Asc);
        assert_eq!(keys[1].1, SortDir::Desc);
    }
}
