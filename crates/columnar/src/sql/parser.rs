//! Recursive-descent SQL parser.

use crate::error::{DbError, DbResult};
use crate::expr::{BinaryOp, UnaryOp};
use crate::sql::ast::*;
use crate::sql::lexer::tokenize;
use crate::sql::token::Token;
use crate::types::{DataType, Value};

/// Parses one SQL statement (an optional trailing `;` is allowed).
pub fn parse(sql: &str) -> DbResult<Statement> {
    let tokens = tokenize(sql)?;
    let mut p = Parser { tokens, pos: 0 };
    let stmt = p.statement()?;
    p.consume_optional_semicolons();
    if !p.at_end() {
        return Err(p.error(format!("unexpected trailing input starting at '{}'", p.peek_text())));
    }
    Ok(stmt)
}

/// Parses a sequence of `;`-separated statements.
pub fn parse_many(sql: &str) -> DbResult<Vec<Statement>> {
    let tokens = tokenize(sql)?;
    let mut p = Parser { tokens, pos: 0 };
    let mut out = Vec::new();
    p.consume_optional_semicolons();
    while !p.at_end() {
        out.push(p.statement()?);
        let before = p.pos;
        p.consume_optional_semicolons();
        if p.pos == before && !p.at_end() {
            return Err(p.error(format!("expected ';' before '{}'", p.peek_text())));
        }
    }
    Ok(out)
}

/// Words that cannot be used as implicit (AS-less) aliases.
const RESERVED: &[&str] = &[
    "select", "from", "where", "group", "having", "order", "limit", "offset", "union", "join",
    "inner", "left", "right", "outer", "cross", "on", "using", "as", "and", "or", "not", "case",
    "when", "then", "else", "end", "values", "set", "insert", "update", "delete", "create", "drop",
    "table", "into", "distinct", "by", "is", "null", "like", "between", "in", "asc", "desc",
    "nulls", "first", "last", "exists",
];

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn peek_at(&self, n: usize) -> Option<&Token> {
        self.tokens.get(self.pos + n)
    }

    fn peek_text(&self) -> String {
        self.peek().map(|t| t.to_string()).unwrap_or_else(|| "<end>".into())
    }

    fn error(&self, message: String) -> DbError {
        DbError::Parse { message, position: self.pos }
    }

    /// True if the current token is the keyword `kw` (already lower-cased).
    fn at_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Token::Ident(s)) if s == kw)
    }

    /// Consumes the keyword if present.
    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.at_keyword(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// Requires the keyword.
    fn expect_keyword(&mut self, kw: &str) -> DbResult<()> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(self.error(format!(
                "expected '{}', found '{}'",
                kw.to_uppercase(),
                self.peek_text()
            )))
        }
    }

    fn eat_token(&mut self, t: &Token) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_token(&mut self, t: &Token) -> DbResult<()> {
        if self.eat_token(t) {
            Ok(())
        } else {
            Err(self.error(format!("expected '{t}', found '{}'", self.peek_text())))
        }
    }

    fn expect_ident(&mut self) -> DbResult<String> {
        match self.peek() {
            Some(Token::Ident(s)) if !RESERVED.contains(&s.as_str()) => {
                let s = s.clone();
                self.pos += 1;
                Ok(s)
            }
            _ => Err(self.error(format!("expected identifier, found '{}'", self.peek_text()))),
        }
    }

    /// Identifier in positions where reserved words are acceptable (e.g.
    /// column names in CREATE TABLE can shadow soft keywords).
    fn expect_any_ident(&mut self) -> DbResult<String> {
        match self.peek() {
            Some(Token::Ident(s)) => {
                let s = s.clone();
                self.pos += 1;
                Ok(s)
            }
            _ => Err(self.error(format!("expected identifier, found '{}'", self.peek_text()))),
        }
    }

    fn consume_optional_semicolons(&mut self) {
        while self.eat_token(&Token::Semicolon) {}
    }

    // ---- statements ------------------------------------------------------

    fn statement(&mut self) -> DbResult<Statement> {
        if self.at_keyword("create") {
            return self.create();
        }
        if self.at_keyword("drop") {
            return self.drop();
        }
        if self.at_keyword("insert") {
            return self.insert();
        }
        if self.at_keyword("delete") {
            return self.delete();
        }
        if self.at_keyword("update") {
            return self.update();
        }
        if self.at_keyword("show") {
            return self.show();
        }
        if self.eat_keyword("checkpoint") {
            return Ok(Statement::Checkpoint);
        }
        if self.at_keyword("save") {
            return self.save();
        }
        if self.at_keyword("select") {
            return Ok(Statement::Query(self.query()?));
        }
        if self.eat_keyword("explain") {
            let analyze = self.eat_keyword("analyze");
            if analyze && self.at_keyword("create") {
                return Ok(Statement::ExplainBuild(Box::new(self.create()?)));
            }
            if analyze && self.at_keyword("insert") {
                return Ok(Statement::ExplainBuild(Box::new(self.insert()?)));
            }
            let q = self.query()?;
            return Ok(Statement::Explain { query: q, analyze });
        }
        Err(self.error(format!("expected a statement, found '{}'", self.peek_text())))
    }

    fn create(&mut self) -> DbResult<Statement> {
        self.expect_keyword("create")?;
        self.expect_keyword("table")?;
        let if_not_exists = if self.eat_keyword("if") {
            self.expect_keyword("not")?;
            self.expect_keyword("exists")?;
            true
        } else {
            false
        };
        let name = self.expect_ident()?;
        if self.eat_keyword("as") {
            let query = self.query()?;
            return Ok(Statement::CreateTableAs { name, query, if_not_exists });
        }
        self.expect_token(&Token::LParen)?;
        let mut columns = Vec::new();
        loop {
            let col_name = self.expect_any_ident()?;
            let ty_name = self.expect_any_ident()?;
            let dtype = DataType::from_sql_name(&ty_name)
                .ok_or_else(|| self.error(format!("unknown type '{ty_name}'")))?;
            let mut nullable = true;
            if self.eat_keyword("not") {
                self.expect_keyword("null")?;
                nullable = false;
            } else if self.eat_keyword("null") {
                // explicit NULL, the default
            }
            columns.push(ColumnDef { name: col_name, dtype, nullable });
            if !self.eat_token(&Token::Comma) {
                break;
            }
        }
        self.expect_token(&Token::RParen)?;
        Ok(Statement::CreateTable { name, columns, if_not_exists })
    }

    fn drop(&mut self) -> DbResult<Statement> {
        self.expect_keyword("drop")?;
        if self.eat_keyword("function") {
            let if_exists = if self.eat_keyword("if") {
                self.expect_keyword("exists")?;
                true
            } else {
                false
            };
            let name = self.expect_ident()?;
            return Ok(Statement::DropFunction { name, if_exists });
        }
        self.expect_keyword("table")?;
        let if_exists = if self.eat_keyword("if") {
            self.expect_keyword("exists")?;
            true
        } else {
            false
        };
        let name = self.expect_ident()?;
        Ok(Statement::DropTable { name, if_exists })
    }

    fn insert(&mut self) -> DbResult<Statement> {
        self.expect_keyword("insert")?;
        self.expect_keyword("into")?;
        let table = self.expect_ident()?;
        let columns = if self.peek() == Some(&Token::LParen)
            && matches!(self.peek_at(1), Some(Token::Ident(s)) if s != "select")
        {
            self.expect_token(&Token::LParen)?;
            let mut cols = Vec::new();
            loop {
                cols.push(self.expect_any_ident()?);
                if !self.eat_token(&Token::Comma) {
                    break;
                }
            }
            self.expect_token(&Token::RParen)?;
            Some(cols)
        } else {
            None
        };
        if self.eat_keyword("values") {
            let mut rows = Vec::new();
            loop {
                self.expect_token(&Token::LParen)?;
                let mut row = Vec::new();
                loop {
                    row.push(self.expr()?);
                    if !self.eat_token(&Token::Comma) {
                        break;
                    }
                }
                self.expect_token(&Token::RParen)?;
                rows.push(row);
                if !self.eat_token(&Token::Comma) {
                    break;
                }
            }
            return Ok(Statement::Insert { table, columns, source: InsertSource::Values(rows) });
        }
        let query = self.query()?;
        Ok(Statement::Insert { table, columns, source: InsertSource::Query(query) })
    }

    fn delete(&mut self) -> DbResult<Statement> {
        self.expect_keyword("delete")?;
        self.expect_keyword("from")?;
        let table = self.expect_ident()?;
        let filter = if self.eat_keyword("where") { Some(self.expr()?) } else { None };
        Ok(Statement::Delete { table, filter })
    }

    fn update(&mut self) -> DbResult<Statement> {
        self.expect_keyword("update")?;
        let table = self.expect_ident()?;
        self.expect_keyword("set")?;
        let mut assignments = Vec::new();
        loop {
            let col = self.expect_any_ident()?;
            self.expect_token(&Token::Eq)?;
            assignments.push((col, self.expr()?));
            if !self.eat_token(&Token::Comma) {
                break;
            }
        }
        let filter = if self.eat_keyword("where") { Some(self.expr()?) } else { None };
        Ok(Statement::Update { table, assignments, filter })
    }

    fn show(&mut self) -> DbResult<Statement> {
        self.expect_keyword("show")?;
        if self.eat_keyword("tables") {
            return Ok(Statement::ShowTables);
        }
        if self.eat_keyword("functions") {
            return Ok(Statement::ShowFunctions);
        }
        Err(self.error("expected TABLES or FUNCTIONS after SHOW".into()))
    }

    fn save(&mut self) -> DbResult<Statement> {
        self.expect_keyword("save")?;
        match self.peek() {
            Some(Token::String(s)) => {
                let path = s.clone();
                self.pos += 1;
                Ok(Statement::Save { path })
            }
            _ => Err(self.error(format!(
                "expected a quoted directory path after SAVE, found '{}'",
                self.peek_text()
            ))),
        }
    }

    // ---- queries ---------------------------------------------------------

    fn query(&mut self) -> DbResult<Query> {
        let body = self.set_expr()?;
        let mut order_by = Vec::new();
        if self.eat_keyword("order") {
            self.expect_keyword("by")?;
            loop {
                let expr = self.expr()?;
                let ascending = if self.eat_keyword("desc") {
                    false
                } else {
                    self.eat_keyword("asc");
                    true
                };
                let nulls_first = if self.eat_keyword("nulls") {
                    if self.eat_keyword("first") {
                        Some(true)
                    } else {
                        self.expect_keyword("last")?;
                        Some(false)
                    }
                } else {
                    None
                };
                order_by.push(OrderItem { expr, ascending, nulls_first });
                if !self.eat_token(&Token::Comma) {
                    break;
                }
            }
        }
        let mut limit = None;
        let mut offset = None;
        if self.eat_keyword("limit") {
            limit = Some(self.expr()?);
        }
        if self.eat_keyword("offset") {
            offset = Some(self.expr()?);
        }
        Ok(Query { body, order_by, limit, offset })
    }

    fn set_expr(&mut self) -> DbResult<SetExpr> {
        let mut left = SetExpr::Select(Box::new(self.select()?));
        while self.at_keyword("union") {
            self.expect_keyword("union")?;
            self.expect_keyword("all")?;
            let right = SetExpr::Select(Box::new(self.select()?));
            left = SetExpr::UnionAll(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn select(&mut self) -> DbResult<Select> {
        self.expect_keyword("select")?;
        let distinct = self.eat_keyword("distinct");
        let mut projection = Vec::new();
        loop {
            if self.eat_token(&Token::Star) {
                projection.push(SelectItem::Wildcard);
            } else if matches!(self.peek(), Some(Token::Ident(_)))
                && self.peek_at(1) == Some(&Token::Dot)
                && self.peek_at(2) == Some(&Token::Star)
            {
                let alias = self.expect_any_ident()?;
                self.expect_token(&Token::Dot)?;
                self.expect_token(&Token::Star)?;
                projection.push(SelectItem::QualifiedWildcard(alias));
            } else {
                let expr = self.expr()?;
                let alias = self.parse_alias()?;
                projection.push(SelectItem::Expr { expr, alias });
            }
            if !self.eat_token(&Token::Comma) {
                break;
            }
        }
        let from = if self.eat_keyword("from") { Some(self.table_ref()?) } else { None };
        let where_clause = if self.eat_keyword("where") { Some(self.expr()?) } else { None };
        let mut group_by = Vec::new();
        if self.eat_keyword("group") {
            self.expect_keyword("by")?;
            loop {
                group_by.push(self.expr()?);
                if !self.eat_token(&Token::Comma) {
                    break;
                }
            }
        }
        let having = if self.eat_keyword("having") { Some(self.expr()?) } else { None };
        Ok(Select { distinct, projection, from, where_clause, group_by, having })
    }

    fn parse_alias(&mut self) -> DbResult<Option<String>> {
        if self.eat_keyword("as") {
            return Ok(Some(self.expect_any_ident()?));
        }
        match self.peek() {
            Some(Token::Ident(s)) if !RESERVED.contains(&s.as_str()) => {
                let s = s.clone();
                self.pos += 1;
                Ok(Some(s))
            }
            _ => Ok(None),
        }
    }

    // ---- FROM clause -----------------------------------------------------

    fn table_ref(&mut self) -> DbResult<TableRef> {
        let mut left = self.table_primary()?;
        loop {
            let join_type = if self.eat_token(&Token::Comma) {
                AstJoinType::Cross
            } else if self.at_keyword("cross") {
                self.expect_keyword("cross")?;
                self.expect_keyword("join")?;
                AstJoinType::Cross
            } else if self.at_keyword("inner") || self.at_keyword("join") {
                self.eat_keyword("inner");
                self.expect_keyword("join")?;
                AstJoinType::Inner
            } else if self.at_keyword("left") {
                self.expect_keyword("left")?;
                self.eat_keyword("outer");
                self.expect_keyword("join")?;
                AstJoinType::Left
            } else {
                break;
            };
            let right = self.table_primary()?;
            let constraint = if join_type == AstJoinType::Cross {
                JoinConstraint::None
            } else if self.eat_keyword("on") {
                JoinConstraint::On(self.expr()?)
            } else if self.eat_keyword("using") {
                self.expect_token(&Token::LParen)?;
                let mut cols = Vec::new();
                loop {
                    cols.push(self.expect_any_ident()?);
                    if !self.eat_token(&Token::Comma) {
                        break;
                    }
                }
                self.expect_token(&Token::RParen)?;
                JoinConstraint::Using(cols)
            } else {
                return Err(self.error("JOIN requires ON or USING".into()));
            };
            left = TableRef::Join {
                left: Box::new(left),
                right: Box::new(right),
                join_type,
                constraint,
            };
        }
        Ok(left)
    }

    fn table_primary(&mut self) -> DbResult<TableRef> {
        if self.eat_token(&Token::LParen) {
            let query = self.query()?;
            self.expect_token(&Token::RParen)?;
            self.eat_keyword("as");
            let alias = self.expect_ident().map_err(|_| {
                self.error("derived table requires an alias: (SELECT …) alias".into())
            })?;
            return Ok(TableRef::Subquery { query: Box::new(query), alias });
        }
        let name = self.expect_ident()?;
        if self.peek() == Some(&Token::LParen) {
            // Table-valued function.
            self.expect_token(&Token::LParen)?;
            let mut args = Vec::new();
            if self.peek() != Some(&Token::RParen) {
                loop {
                    if self.peek() == Some(&Token::LParen)
                        && matches!(self.peek_at(1), Some(Token::Ident(s)) if s == "select")
                    {
                        self.expect_token(&Token::LParen)?;
                        let q = self.query()?;
                        self.expect_token(&Token::RParen)?;
                        args.push(TableFuncArg::Subquery(q));
                    } else {
                        args.push(TableFuncArg::Expr(self.expr()?));
                    }
                    if !self.eat_token(&Token::Comma) {
                        break;
                    }
                }
            }
            self.expect_token(&Token::RParen)?;
            let alias = self.parse_alias()?;
            return Ok(TableRef::TableFunction { name, args, alias });
        }
        let alias = self.parse_alias()?;
        Ok(TableRef::Named { name, alias })
    }

    // ---- expressions -----------------------------------------------------

    fn expr(&mut self) -> DbResult<AstExpr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> DbResult<AstExpr> {
        let mut left = self.and_expr()?;
        while self.eat_keyword("or") {
            let right = self.and_expr()?;
            left =
                AstExpr::Binary { op: BinaryOp::Or, left: Box::new(left), right: Box::new(right) };
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> DbResult<AstExpr> {
        let mut left = self.not_expr()?;
        while self.eat_keyword("and") {
            let right = self.not_expr()?;
            left =
                AstExpr::Binary { op: BinaryOp::And, left: Box::new(left), right: Box::new(right) };
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> DbResult<AstExpr> {
        if self.eat_keyword("not") {
            let inner = self.not_expr()?;
            return Ok(AstExpr::Unary { op: UnaryOp::Not, expr: Box::new(inner) });
        }
        self.comparison()
    }

    fn comparison(&mut self) -> DbResult<AstExpr> {
        let left = self.additive()?;
        // Postfix predicates: IS [NOT] NULL, IN, LIKE, BETWEEN.
        if self.eat_keyword("is") {
            let negated = self.eat_keyword("not");
            self.expect_keyword("null")?;
            return Ok(AstExpr::IsNull { expr: Box::new(left), negated });
        }
        let negated = if self.at_keyword("not")
            && matches!(self.peek_at(1), Some(Token::Ident(s)) if s=="in"||s=="like"||s=="between")
        {
            self.expect_keyword("not")?;
            true
        } else {
            false
        };
        if self.eat_keyword("in") {
            self.expect_token(&Token::LParen)?;
            let mut list = Vec::new();
            loop {
                list.push(self.expr()?);
                if !self.eat_token(&Token::Comma) {
                    break;
                }
            }
            self.expect_token(&Token::RParen)?;
            return Ok(AstExpr::InList { expr: Box::new(left), list, negated });
        }
        if self.eat_keyword("like") {
            let pattern = self.additive()?;
            return Ok(AstExpr::Like { expr: Box::new(left), pattern: Box::new(pattern), negated });
        }
        if self.eat_keyword("between") {
            let low = self.additive()?;
            self.expect_keyword("and")?;
            let high = self.additive()?;
            return Ok(AstExpr::Between {
                expr: Box::new(left),
                low: Box::new(low),
                high: Box::new(high),
                negated,
            });
        }
        if negated {
            return Err(self.error("expected IN, LIKE or BETWEEN after NOT".into()));
        }
        let op = match self.peek() {
            Some(Token::Eq) => BinaryOp::Eq,
            Some(Token::NotEq) => BinaryOp::NotEq,
            Some(Token::Lt) => BinaryOp::Lt,
            Some(Token::LtEq) => BinaryOp::LtEq,
            Some(Token::Gt) => BinaryOp::Gt,
            Some(Token::GtEq) => BinaryOp::GtEq,
            _ => return Ok(left),
        };
        self.pos += 1;
        let right = self.additive()?;
        Ok(AstExpr::Binary { op, left: Box::new(left), right: Box::new(right) })
    }

    fn additive(&mut self) -> DbResult<AstExpr> {
        let mut left = self.multiplicative()?;
        loop {
            let op = match self.peek() {
                Some(Token::Plus) => BinaryOp::Add,
                Some(Token::Minus) => BinaryOp::Sub,
                Some(Token::Concat) => BinaryOp::Concat,
                _ => break,
            };
            self.pos += 1;
            let right = self.multiplicative()?;
            left = AstExpr::Binary { op, left: Box::new(left), right: Box::new(right) };
        }
        Ok(left)
    }

    fn multiplicative(&mut self) -> DbResult<AstExpr> {
        let mut left = self.unary()?;
        loop {
            let op = match self.peek() {
                Some(Token::Star) => BinaryOp::Mul,
                Some(Token::Slash) => BinaryOp::Div,
                Some(Token::Percent) => BinaryOp::Mod,
                _ => break,
            };
            self.pos += 1;
            let right = self.unary()?;
            left = AstExpr::Binary { op, left: Box::new(left), right: Box::new(right) };
        }
        Ok(left)
    }

    fn unary(&mut self) -> DbResult<AstExpr> {
        if self.eat_token(&Token::Minus) {
            // Fold a negative numeric literal directly.
            match self.peek().cloned() {
                Some(Token::Integer(v)) => {
                    self.pos += 1;
                    return Ok(AstExpr::Literal(Value::Int64(-v)));
                }
                Some(Token::Float(v)) => {
                    self.pos += 1;
                    return Ok(AstExpr::Literal(Value::Float64(-v)));
                }
                _ => {}
            }
            let inner = self.unary()?;
            return Ok(AstExpr::Unary { op: UnaryOp::Neg, expr: Box::new(inner) });
        }
        if self.eat_token(&Token::Plus) {
            return self.unary();
        }
        self.primary()
    }

    fn primary(&mut self) -> DbResult<AstExpr> {
        match self.peek().cloned() {
            Some(Token::Integer(v)) => {
                self.pos += 1;
                // Fit into INT32 when possible (the common literal type).
                Ok(AstExpr::Literal(if v >= i32::MIN as i64 && v <= i32::MAX as i64 {
                    Value::Int32(v as i32)
                } else {
                    Value::Int64(v)
                }))
            }
            Some(Token::Float(v)) => {
                self.pos += 1;
                Ok(AstExpr::Literal(Value::Float64(v)))
            }
            Some(Token::String(s)) => {
                self.pos += 1;
                Ok(AstExpr::Literal(Value::Varchar(s)))
            }
            Some(Token::Blob(b)) => {
                self.pos += 1;
                Ok(AstExpr::Literal(Value::Blob(b)))
            }
            Some(Token::LParen) => {
                self.pos += 1;
                if self.at_keyword("select") {
                    let q = self.query()?;
                    self.expect_token(&Token::RParen)?;
                    return Ok(AstExpr::ScalarSubquery(Box::new(q)));
                }
                let e = self.expr()?;
                self.expect_token(&Token::RParen)?;
                Ok(e)
            }
            Some(Token::Ident(word)) => match word.as_str() {
                "null" => {
                    self.pos += 1;
                    Ok(AstExpr::Literal(Value::Null))
                }
                "true" => {
                    self.pos += 1;
                    Ok(AstExpr::Literal(Value::Boolean(true)))
                }
                "false" => {
                    self.pos += 1;
                    Ok(AstExpr::Literal(Value::Boolean(false)))
                }
                "cast" => {
                    self.pos += 1;
                    self.expect_token(&Token::LParen)?;
                    let e = self.expr()?;
                    self.expect_keyword("as")?;
                    let ty = self.expect_any_ident()?;
                    let dtype = DataType::from_sql_name(&ty)
                        .ok_or_else(|| self.error(format!("unknown type '{ty}'")))?;
                    self.expect_token(&Token::RParen)?;
                    Ok(AstExpr::Cast { expr: Box::new(e), to: dtype })
                }
                "case" => {
                    self.pos += 1;
                    let operand =
                        if self.at_keyword("when") { None } else { Some(Box::new(self.expr()?)) };
                    let mut branches = Vec::new();
                    while self.eat_keyword("when") {
                        let w = self.expr()?;
                        self.expect_keyword("then")?;
                        let t = self.expr()?;
                        branches.push((w, t));
                    }
                    if branches.is_empty() {
                        return Err(self.error("CASE requires at least one WHEN".into()));
                    }
                    let else_expr =
                        if self.eat_keyword("else") { Some(Box::new(self.expr()?)) } else { None };
                    self.expect_keyword("end")?;
                    Ok(AstExpr::Case { operand, branches, else_expr })
                }
                _ if RESERVED.contains(&word.as_str()) => {
                    Err(self.error(format!("unexpected keyword '{word}'")))
                }
                _ => {
                    self.pos += 1;
                    if self.eat_token(&Token::Dot) {
                        let col = self.expect_any_ident()?;
                        return Ok(AstExpr::CompoundIdent(word, col));
                    }
                    if self.peek() == Some(&Token::LParen) {
                        self.pos += 1;
                        // COUNT(*) special form.
                        if self.eat_token(&Token::Star) {
                            self.expect_token(&Token::RParen)?;
                            return Ok(AstExpr::Function {
                                name: word,
                                args: Vec::new(),
                                distinct: false,
                                star: true,
                            });
                        }
                        let distinct = self.eat_keyword("distinct");
                        let mut args = Vec::new();
                        if self.peek() != Some(&Token::RParen) {
                            loop {
                                args.push(self.expr()?);
                                if !self.eat_token(&Token::Comma) {
                                    break;
                                }
                            }
                        }
                        self.expect_token(&Token::RParen)?;
                        return Ok(AstExpr::Function { name: word, args, distinct, star: false });
                    }
                    Ok(AstExpr::Ident(word))
                }
            },
            other => Err(self.error(format!(
                "expected an expression, found '{}'",
                other.map(|t| t.to_string()).unwrap_or_else(|| "<end>".into())
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sel(sql: &str) -> Select {
        match parse(sql).unwrap() {
            Statement::Query(q) => match q.body {
                SetExpr::Select(s) => *s,
                other => panic!("expected select, got {other:?}"),
            },
            other => panic!("expected query, got {other:?}"),
        }
    }

    #[test]
    fn parses_create_table() {
        let s = parse("CREATE TABLE t (id INTEGER NOT NULL, name VARCHAR, w DOUBLE)").unwrap();
        match s {
            Statement::CreateTable { name, columns, if_not_exists } => {
                assert_eq!(name, "t");
                assert!(!if_not_exists);
                assert_eq!(columns.len(), 3);
                assert!(!columns[0].nullable);
                assert_eq!(columns[1].dtype, DataType::Varchar);
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            parse("CREATE TABLE IF NOT EXISTS t (x INT)").unwrap(),
            Statement::CreateTable { if_not_exists: true, .. }
        ));
    }

    #[test]
    fn parses_create_table_as() {
        let s = parse("CREATE TABLE t2 AS SELECT * FROM t1").unwrap();
        assert!(matches!(s, Statement::CreateTableAs { .. }));
    }

    #[test]
    fn parses_insert_values() {
        let s = parse("INSERT INTO t (a, b) VALUES (1, 'x'), (2, NULL)").unwrap();
        match s {
            Statement::Insert { table, columns, source: InsertSource::Values(rows) } => {
                assert_eq!(table, "t");
                assert_eq!(columns, Some(vec!["a".into(), "b".into()]));
                assert_eq!(rows.len(), 2);
                assert_eq!(rows[1][1], AstExpr::Literal(Value::Null));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_insert_select() {
        let s = parse("INSERT INTO t SELECT a FROM u").unwrap();
        assert!(matches!(s, Statement::Insert { source: InsertSource::Query(_), .. }));
    }

    #[test]
    fn parses_select_with_everything() {
        let s = sel("SELECT DISTINCT a, t.b AS bb, COUNT(*) c FROM t WHERE a > 1 \
             GROUP BY a, t.b HAVING COUNT(*) > 2");
        assert!(s.distinct);
        assert_eq!(s.projection.len(), 3);
        assert!(s.where_clause.is_some());
        assert_eq!(s.group_by.len(), 2);
        assert!(s.having.is_some());
    }

    #[test]
    fn parses_joins() {
        let s = sel("SELECT * FROM a JOIN b ON a.x = b.y LEFT JOIN c USING (z)");
        match s.from.unwrap() {
            TableRef::Join { join_type, constraint, left, .. } => {
                assert_eq!(join_type, AstJoinType::Left);
                assert!(matches!(constraint, JoinConstraint::Using(_)));
                assert!(matches!(*left, TableRef::Join { .. }));
            }
            other => panic!("{other:?}"),
        }
        let s = sel("SELECT * FROM a, b");
        assert!(matches!(s.from.unwrap(), TableRef::Join { join_type: AstJoinType::Cross, .. }));
    }

    #[test]
    fn parses_table_function_with_subquery_args() {
        let s =
            sel("SELECT * FROM train((SELECT age FROM voters), (SELECT label FROM voters), 16)");
        match s.from.unwrap() {
            TableRef::TableFunction { name, args, .. } => {
                assert_eq!(name, "train");
                assert_eq!(args.len(), 3);
                assert!(matches!(args[0], TableFuncArg::Subquery(_)));
                assert!(matches!(args[2], TableFuncArg::Expr(_)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_scalar_subquery() {
        let s = sel("SELECT predict(age, (SELECT model FROM models LIMIT 1)) FROM voters");
        match &s.projection[0] {
            SelectItem::Expr { expr: AstExpr::Function { name, args, .. }, .. } => {
                assert_eq!(name, "predict");
                assert!(matches!(args[1], AstExpr::ScalarSubquery(_)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_order_limit_offset() {
        let q = match parse("SELECT a FROM t ORDER BY a DESC NULLS LAST, 2 LIMIT 10 OFFSET 5")
            .unwrap()
        {
            Statement::Query(q) => q,
            other => panic!("{other:?}"),
        };
        assert_eq!(q.order_by.len(), 2);
        assert!(!q.order_by[0].ascending);
        assert_eq!(q.order_by[0].nulls_first, Some(false));
        assert_eq!(q.limit, Some(AstExpr::Literal(Value::Int32(10))));
        assert_eq!(q.offset, Some(AstExpr::Literal(Value::Int32(5))));
    }

    #[test]
    fn parses_union_all() {
        let q = match parse("SELECT 1 UNION ALL SELECT 2 UNION ALL SELECT 3").unwrap() {
            Statement::Query(q) => q,
            other => panic!("{other:?}"),
        };
        assert!(matches!(q.body, SetExpr::UnionAll(_, _)));
    }

    #[test]
    fn parses_predicates() {
        let s = sel("SELECT * FROM t WHERE a IS NOT NULL AND b NOT IN (1,2) AND c LIKE 'x%' AND d BETWEEN 1 AND 5");
        assert!(s.where_clause.is_some());
        let s = sel("SELECT * FROM t WHERE NOT (a = 1 OR b = 2)");
        assert!(matches!(s.where_clause.unwrap(), AstExpr::Unary { op: UnaryOp::Not, .. }));
    }

    #[test]
    fn parses_case() {
        let s = sel("SELECT CASE WHEN a > 0 THEN 'pos' ELSE 'neg' END FROM t");
        assert!(matches!(&s.projection[0], SelectItem::Expr { expr: AstExpr::Case { .. }, .. }));
        let s = sel("SELECT CASE a WHEN 1 THEN 'one' END FROM t");
        match &s.projection[0] {
            SelectItem::Expr { expr: AstExpr::Case { operand, .. }, .. } => {
                assert!(operand.is_some())
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_arithmetic_precedence() {
        let s = sel("SELECT 1 + 2 * 3 FROM t");
        match &s.projection[0] {
            SelectItem::Expr { expr: AstExpr::Binary { op: BinaryOp::Add, right, .. }, .. } => {
                assert!(matches!(**right, AstExpr::Binary { op: BinaryOp::Mul, .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn negative_literals_fold() {
        let s = sel("SELECT -5, -2.5 FROM t");
        assert!(matches!(
            &s.projection[0],
            SelectItem::Expr { expr: AstExpr::Literal(Value::Int64(-5)), .. }
        ));
    }

    #[test]
    fn parse_many_statements() {
        let stmts =
            parse_many("CREATE TABLE t (x INT); INSERT INTO t VALUES (1); SELECT * FROM t;")
                .unwrap();
        assert_eq!(stmts.len(), 3);
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse("SELECT FROM t").is_err());
        assert!(parse("SELEC 1").is_err());
        assert!(parse("SELECT 1 extra garbage ,").is_err());
        assert!(parse("CREATE TABLE t (x NOSUCHTYPE)").is_err());
        assert!(parse("SELECT * FROM (SELECT 1)").is_err()); // missing alias
        assert!(parse("SELECT * FROM a JOIN b").is_err()); // missing ON
    }

    #[test]
    fn show_statements() {
        assert_eq!(parse("SHOW TABLES").unwrap(), Statement::ShowTables);
        assert_eq!(parse("SHOW FUNCTIONS").unwrap(), Statement::ShowFunctions);
        assert!(matches!(
            parse("DROP FUNCTION IF EXISTS train").unwrap(),
            Statement::DropFunction { if_exists: true, .. }
        ));
    }

    #[test]
    fn durability_statements() {
        assert_eq!(parse("CHECKPOINT").unwrap(), Statement::Checkpoint);
        assert_eq!(parse("checkpoint;").unwrap(), Statement::Checkpoint);
        assert_eq!(
            parse("SAVE '/tmp/snap'").unwrap(),
            Statement::Save { path: "/tmp/snap".into() }
        );
        assert!(parse("SAVE").is_err()); // missing path
        assert!(parse("SAVE snapdir").is_err()); // path must be quoted
    }

    #[test]
    fn update_and_delete() {
        assert!(matches!(
            parse("DELETE FROM t WHERE x = 1").unwrap(),
            Statement::Delete { filter: Some(_), .. }
        ));
        match parse("UPDATE t SET a = 1, b = b + 1 WHERE c > 0").unwrap() {
            Statement::Update { assignments, filter, .. } => {
                assert_eq!(assignments.len(), 2);
                assert!(filter.is_some());
            }
            other => panic!("{other:?}"),
        }
    }
}
