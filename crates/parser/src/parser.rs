//! Recursive-descent SQL parser.
//!
//! Grammar (simplified):
//!
//! ```text
//! statement   := query | create
//! create      := CREATE TABLE name ( coldefs ) | CREATE TABLE name AS query
//!              | CREATE VIEW name AS query
//! query       := [WITH cte (, cte)*] set_expr [ORDER BY items] [LIMIT n]
//! set_expr    := select ((UNION|INTERSECT|EXCEPT) [ALL] select)*
//! select      := SELECT [DISTINCT] [TOP n] items FROM from [WHERE e]
//!                [GROUP BY es] [HAVING e]
//! from        := table_ref (, table_ref)*
//! table_ref   := primary (join_kind primary [ON e | USING (cols)])*
//! expr        := or_expr   (precedence: OR < AND < NOT < predicate <
//!                add < mul < unary < primary)
//! ```
//!
//! Nesting is bounded: parentheses, `NOT` and sign chains, call, `CASE`
//! and `CAST` arguments, subqueries, derived tables, CTE bodies and
//! parenthesized set operands each open one level, and past
//! [`MAX_NESTING`] open levels parsing stops with
//! [`ParseError::TooDeep`]. That bounds the parser's own recursion and,
//! through it, every later stage that recurses over the AST (printer,
//! binder, analyzer, compiler, both interpreters) — except along a chain
//! of binary operators (`a AND b AND …`), which the parser builds with a
//! loop into a left-deep tree as deep as the chain.

use crate::ast::*;
use crate::error::ParseError;
use squ_lexer::{tokenize_dialect, Dialect, Keyword, Span, Token, TokenKind};

/// Parse a single SQL statement (trailing `;` tolerated) in the default
/// [`Dialect::Squ`].
pub fn parse(sql: &str) -> Result<Statement, ParseError> {
    parse_dialect(sql, Dialect::Squ)
}

/// Parse a single SQL statement under `dialect` rules: the lexer applies
/// the dialect's quote/comment matrix, and the grammar admits `LIMIT` /
/// `TOP` / `||` only where the dialect does.
pub fn parse_dialect(sql: &str, dialect: Dialect) -> Result<Statement, ParseError> {
    let tokens = tokenize_dialect(sql, dialect)?;
    let mut p = Parser::with_dialect(tokens, dialect);
    let stmt = p.parse_statement()?;
    p.eat_semicolons();
    if let Some(t) = p.peek() {
        return Err(ParseError::TrailingTokens {
            found: t.text.clone(),
            word_index: t.word_index,
        });
    }
    Ok(stmt)
}

/// Parse a query (no DDL), convenience for the many call sites that only
/// deal with `SELECT`s.
pub fn parse_query(sql: &str) -> Result<Query, ParseError> {
    parse_query_dialect(sql, Dialect::Squ)
}

/// [`parse_query`] under `dialect` rules.
pub fn parse_query_dialect(sql: &str, dialect: Dialect) -> Result<Query, ParseError> {
    match parse_dialect(sql, dialect)? {
        Statement::Query(q) => Ok(q),
        other => Err(ParseError::Unexpected {
            expected: "a SELECT query".into(),
            found: format!("{:?}", other.query_type()),
            word_index: 0,
        }),
    }
}

/// The most nesting levels a statement may open (see the module doc).
/// Low enough that a statement at the limit goes through parse, bind,
/// lint, analysis and both executors on a 2 MiB thread stack in a debug
/// build.
pub const MAX_NESTING: usize = 64;

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    dialect: Dialect,
    /// Nesting levels open at `pos`.
    depth: usize,
}

impl Parser {
    fn with_dialect(tokens: Vec<Token>, dialect: Dialect) -> Self {
        Parser {
            tokens,
            pos: 0,
            dialect,
            depth: 0,
        }
    }

    /// Run `parse` one nesting level deeper. With [`MAX_NESTING`] levels
    /// already open, fail instead at the token that opened the new level.
    fn nested<T>(
        &mut self,
        parse: fn(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        if self.depth == MAX_NESTING {
            return Err(ParseError::TooDeep {
                limit: MAX_NESTING,
                word_index: self
                    .pos
                    .checked_sub(1)
                    .map_or(0, |i| self.tokens[i].word_index),
            });
        }
        self.depth += 1;
        let out = parse(self);
        self.depth -= 1;
        out
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn peek_kind(&self) -> Option<&TokenKind> {
        self.peek().map(|t| &t.kind)
    }

    fn peek_at(&self, n: usize) -> Option<&Token> {
        self.tokens.get(self.pos + n)
    }

    /// Consume the current token. Its text moves out, since nothing reads
    /// a consumed token's text again (`unexpected` reads the current one,
    /// `prev_span` only spans).
    fn bump(&mut self) -> Option<Token> {
        let t = self.tokens.get_mut(self.pos)?;
        self.pos += 1;
        Some(Token {
            kind: t.kind.clone(),
            text: std::mem::take(&mut t.text),
            span: t.span,
            word_index: t.word_index,
        })
    }

    fn at_kw(&self, kw: Keyword) -> bool {
        matches!(self.peek_kind(), Some(TokenKind::Keyword(k)) if *k == kw)
    }

    fn eat_kw(&mut self, kw: Keyword) -> bool {
        if self.at_kw(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: Keyword) -> Result<(), ParseError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.unexpected(&format!("keyword {}", kw.as_str())))
        }
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.peek_kind() == Some(kind) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: &TokenKind, what: &str) -> Result<(), ParseError> {
        if self.eat(kind) {
            Ok(())
        } else {
            Err(self.unexpected(what))
        }
    }

    fn eat_semicolons(&mut self) {
        while self.eat(&TokenKind::Semicolon) {}
    }

    /// Span of the token about to be consumed (degenerate end-of-input
    /// span after the last token).
    fn cur_span(&self) -> Span {
        self.tokens
            .get(self.pos)
            .map(|t| t.span)
            .unwrap_or_else(|| {
                let end = self.prev_span().end;
                Span::new(end, end)
            })
    }

    /// Span of the most recently consumed token (empty at position 0).
    fn prev_span(&self) -> Span {
        self.pos
            .checked_sub(1)
            .and_then(|i| self.tokens.get(i))
            .map(|t| t.span)
            .unwrap_or_default()
    }

    fn unexpected(&self, expected: &str) -> ParseError {
        match self.peek() {
            Some(t) => ParseError::Unexpected {
                expected: expected.to_string(),
                found: t.text.clone(),
                word_index: t.word_index,
            },
            None => ParseError::UnexpectedEof {
                expected: expected.to_string(),
            },
        }
    }

    fn ident(&mut self, what: &str) -> Result<String, ParseError> {
        match self.peek_kind() {
            Some(TokenKind::Ident) | Some(TokenKind::QuotedIdent) => {
                Ok(self.bump().expect("peeked").text) // lint:allow: caller peeked this token
            }
            _ => Err(self.unexpected(what)),
        }
    }

    fn number_u64(&mut self, what: &str) -> Result<u64, ParseError> {
        match self.peek_kind() {
            Some(TokenKind::Number(v)) if *v >= 0.0 && v.fract() == 0.0 => {
                let v = *v;
                self.bump();
                Ok(v as u64)
            }
            _ => Err(self.unexpected(what)),
        }
    }

    // ---------------- statements ----------------

    fn parse_statement(&mut self) -> Result<Statement, ParseError> {
        if self.at_kw(Keyword::Create) {
            self.parse_create()
        } else {
            Ok(Statement::Query(self.parse_query()?))
        }
    }

    fn parse_create(&mut self) -> Result<Statement, ParseError> {
        self.expect_kw(Keyword::Create)?;
        if self.eat_kw(Keyword::View) {
            let name = self.ident("view name")?;
            self.expect_kw(Keyword::As)?;
            let query = self.parse_query()?;
            return Ok(Statement::CreateView {
                name,
                query: Box::new(query),
            });
        }
        self.expect_kw(Keyword::Table)?;
        let name = self.ident("table name")?;
        if self.eat_kw(Keyword::As) {
            let query = self.parse_query()?;
            return Ok(Statement::CreateTable {
                name,
                columns: Vec::new(),
                source: Some(Box::new(query)),
            });
        }
        self.expect(&TokenKind::LParen, "'(' after table name")?;
        let mut columns = Vec::new();
        loop {
            let col = self.ident("column name")?;
            let ty = self.ident("column type")?;
            // tolerate (n) precision and simple column constraints
            if self.eat(&TokenKind::LParen) {
                let _ = self.number_u64("type precision")?;
                if self.eat(&TokenKind::Comma) {
                    let _ = self.number_u64("type scale")?;
                }
                self.expect(&TokenKind::RParen, "')' after type precision")?;
            }
            while self.eat_kw(Keyword::Primary)
                || self.eat_kw(Keyword::Key)
                || self.eat_kw(Keyword::Not)
                || self.eat_kw(Keyword::Null)
            {}
            columns.push(ColumnDef {
                name: col,
                type_name: ty,
            });
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        self.expect(&TokenKind::RParen, "')' after column definitions")?;
        Ok(Statement::CreateTable {
            name,
            columns,
            source: None,
        })
    }

    // ---------------- queries ----------------

    fn parse_query(&mut self) -> Result<Query, ParseError> {
        let start = self.cur_span().start;
        let mut ctes = Vec::new();
        if self.eat_kw(Keyword::With) {
            loop {
                let name = self.ident("CTE name")?;
                self.expect_kw(Keyword::As)?;
                self.expect(&TokenKind::LParen, "'(' before CTE body")?;
                let q = self.nested(Self::parse_query)?;
                self.expect(&TokenKind::RParen, "')' after CTE body")?;
                ctes.push(Cte {
                    name,
                    query: Box::new(q),
                });
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        let body = self.parse_set_expr()?;
        let mut order_by = Vec::new();
        if self.eat_kw(Keyword::Order) {
            self.expect_kw(Keyword::By)?;
            loop {
                let expr = self.parse_expr()?;
                let desc = if self.eat_kw(Keyword::Desc) {
                    true
                } else {
                    self.eat_kw(Keyword::Asc);
                    false
                };
                order_by.push(OrderItem { expr, desc });
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        let limit = if self.dialect.supports_limit() && self.eat_kw(Keyword::Limit) {
            Some(self.number_u64("LIMIT count")?)
        } else {
            None
        };
        Ok(Query {
            ctes,
            body,
            order_by,
            limit,
            span: Span::new(start, self.prev_span().end),
        })
    }

    fn parse_set_expr(&mut self) -> Result<SetExpr, ParseError> {
        let mut left = self.parse_set_operand()?;
        loop {
            let op = if self.eat_kw(Keyword::Union) {
                SetOp::Union
            } else if self.eat_kw(Keyword::Intersect) {
                SetOp::Intersect
            } else if self.eat_kw(Keyword::Except) {
                SetOp::Except
            } else {
                break;
            };
            let all = self.eat_kw(Keyword::All);
            let right = self.parse_set_operand()?;
            left = SetExpr::SetOp {
                op,
                all,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn parse_set_operand(&mut self) -> Result<SetExpr, ParseError> {
        if self.at_kw(Keyword::Select) {
            return Ok(SetExpr::Select(Box::new(self.parse_select()?)));
        }
        // parenthesized operand: `(SELECT …)` or a nested set-op tree
        if self.peek_kind() == Some(&TokenKind::LParen)
            && matches!(
                self.peek_at(1).map(|t| &t.kind),
                Some(TokenKind::Keyword(Keyword::Select))
            )
        {
            self.bump(); // (
            let inner = self.nested(Self::parse_set_expr)?;
            self.expect(&TokenKind::RParen, "')' after parenthesized query")?;
            return Ok(inner);
        }
        Err(self.unexpected("SELECT"))
    }

    fn parse_select(&mut self) -> Result<Select, ParseError> {
        self.expect_kw(Keyword::Select)?;
        let distinct = if self.eat_kw(Keyword::Distinct) {
            true
        } else {
            self.eat_kw(Keyword::All);
            false
        };
        let top = if self.dialect.supports_top() && self.eat_kw(Keyword::Top) {
            Some(self.number_u64("TOP count")?)
        } else {
            None
        };

        let mut items = Vec::new();
        loop {
            items.push(self.parse_select_item()?);
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }

        let mut from = Vec::new();
        if self.eat_kw(Keyword::From) {
            loop {
                from.push(self.parse_table_ref()?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }

        let selection = if self.eat_kw(Keyword::Where) {
            Some(self.parse_expr()?)
        } else {
            None
        };

        let mut group_by = Vec::new();
        if self.eat_kw(Keyword::Group) {
            self.expect_kw(Keyword::By)?;
            loop {
                group_by.push(self.parse_expr()?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }

        let having = if self.eat_kw(Keyword::Having) {
            Some(self.parse_expr()?)
        } else {
            None
        };

        Ok(Select {
            distinct,
            top,
            items,
            from,
            selection,
            group_by,
            having,
        })
    }

    fn parse_select_item(&mut self) -> Result<SelectItem, ParseError> {
        // `*`
        if self.peek_kind() == Some(&TokenKind::ArithOp('*')) {
            self.bump();
            return Ok(SelectItem::Wildcard);
        }
        // `alias.*`
        if let (Some(TokenKind::Ident), Some(t1), Some(t2)) =
            (self.peek_kind(), self.peek_at(1), self.peek_at(2))
        {
            if t1.kind == TokenKind::Dot && t2.kind == TokenKind::ArithOp('*') {
                let q = self.bump().expect("peeked").text; // lint:allow: caller peeked this token
                self.bump(); // .
                self.bump(); // *
                return Ok(SelectItem::QualifiedWildcard(q));
            }
        }
        let expr = self.parse_expr()?;
        let alias = if self.eat_kw(Keyword::As) {
            Some(self.ident("alias after AS")?)
        } else if matches!(self.peek_kind(), Some(TokenKind::Ident)) {
            // bare alias: `SELECT COUNT(*) cnt`
            Some(self.bump().expect("peeked").text) // lint:allow: caller peeked this token
        } else {
            None
        };
        Ok(SelectItem::Expr { expr, alias })
    }

    // ---------------- FROM / joins ----------------

    fn parse_table_ref(&mut self) -> Result<TableRef, ParseError> {
        let mut left = self.parse_table_primary()?;
        loop {
            let kind = if self.eat_kw(Keyword::Cross) {
                self.expect_kw(Keyword::Join)?;
                JoinKind::Cross
            } else if self.eat_kw(Keyword::Inner) {
                self.expect_kw(Keyword::Join)?;
                JoinKind::Inner
            } else if self.eat_kw(Keyword::Left) {
                self.eat_kw(Keyword::Outer);
                self.expect_kw(Keyword::Join)?;
                JoinKind::Left
            } else if self.eat_kw(Keyword::Right) {
                self.eat_kw(Keyword::Outer);
                self.expect_kw(Keyword::Join)?;
                JoinKind::Right
            } else if self.eat_kw(Keyword::Full) {
                self.eat_kw(Keyword::Outer);
                self.expect_kw(Keyword::Join)?;
                JoinKind::Full
            } else if self.eat_kw(Keyword::Join) {
                JoinKind::Inner
            } else {
                break;
            };
            let right = self.parse_table_primary()?;
            let constraint = if kind == JoinKind::Cross {
                JoinConstraint::None
            } else if self.eat_kw(Keyword::On) {
                JoinConstraint::On(self.parse_expr()?)
            } else if self.eat_kw(Keyword::Using) {
                self.expect(&TokenKind::LParen, "'(' after USING")?;
                let mut cols = Vec::new();
                loop {
                    cols.push(self.ident("column name in USING")?);
                    if !self.eat(&TokenKind::Comma) {
                        break;
                    }
                }
                self.expect(&TokenKind::RParen, "')' after USING columns")?;
                JoinConstraint::Using(cols)
            } else {
                // Joins without a constraint appear in the error-injected
                // corpora; represent them rather than failing.
                JoinConstraint::None
            };
            left = TableRef::Join {
                left: Box::new(left),
                right: Box::new(right),
                kind,
                constraint,
            };
        }
        Ok(left)
    }

    fn parse_table_primary(&mut self) -> Result<TableRef, ParseError> {
        if self.eat(&TokenKind::LParen) {
            let q = self.nested(Self::parse_query)?;
            self.expect(&TokenKind::RParen, "')' after derived table")?;
            let alias = self.parse_opt_alias();
            return Ok(TableRef::Derived {
                query: Box::new(q),
                alias,
            });
        }
        let name = self.ident("table name")?;
        let alias = self.parse_opt_alias();
        Ok(TableRef::Named { name, alias })
    }

    fn parse_opt_alias(&mut self) -> Option<String> {
        if self.eat_kw(Keyword::As) {
            // After AS, accept any identifier.
            match self.peek_kind() {
                Some(TokenKind::Ident) | Some(TokenKind::QuotedIdent) => {
                    Some(self.bump().expect("peeked").text) // lint:allow: caller peeked this token
                }
                _ => None,
            }
        } else if matches!(self.peek_kind(), Some(TokenKind::Ident)) {
            Some(self.bump().expect("peeked").text) // lint:allow: caller peeked this token
        } else {
            None
        }
    }

    // ---------------- expressions ----------------

    fn parse_expr(&mut self) -> Result<Expr, ParseError> {
        self.parse_or()
    }

    fn parse_or(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.parse_and()?;
        while self.eat_kw(Keyword::Or) {
            let right = self.parse_and()?;
            left = Expr::Or(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn parse_and(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.parse_not()?;
        while self.eat_kw(Keyword::And) {
            let right = self.parse_not()?;
            left = Expr::And(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn parse_not(&mut self) -> Result<Expr, ParseError> {
        if self.at_kw(Keyword::Not) && !self.next_is_exists_after_not() {
            self.bump();
            let inner = self.nested(Self::parse_not)?;
            return Ok(Expr::Not(Box::new(inner)));
        }
        self.parse_predicate()
    }

    fn next_is_exists_after_not(&self) -> bool {
        matches!(
            self.peek_at(1).map(|t| &t.kind),
            Some(TokenKind::Keyword(Keyword::Exists))
        )
    }

    fn parse_predicate(&mut self) -> Result<Expr, ParseError> {
        // NOT EXISTS
        if self.at_kw(Keyword::Not) && self.next_is_exists_after_not() {
            self.bump(); // NOT
            self.bump(); // EXISTS
            let sub = self.parse_parenthesized_query()?;
            return Ok(Expr::Exists {
                subquery: Box::new(sub),
                negated: true,
            });
        }
        if self.eat_kw(Keyword::Exists) {
            let sub = self.parse_parenthesized_query()?;
            return Ok(Expr::Exists {
                subquery: Box::new(sub),
                negated: false,
            });
        }

        let left = self.parse_additive()?;

        // IS [NOT] NULL
        if self.eat_kw(Keyword::Is) {
            let negated = self.eat_kw(Keyword::Not);
            self.expect_kw(Keyword::Null)?;
            return Ok(Expr::IsNull {
                expr: Box::new(left),
                negated,
            });
        }

        let negated = self.eat_kw(Keyword::Not);

        if self.eat_kw(Keyword::Between) {
            let low = self.parse_additive()?;
            self.expect_kw(Keyword::And)?;
            let high = self.parse_additive()?;
            return Ok(Expr::Between {
                expr: Box::new(left),
                low: Box::new(low),
                high: Box::new(high),
                negated,
            });
        }

        if self.eat_kw(Keyword::Like) {
            let pattern = self.parse_additive()?;
            return Ok(Expr::Like {
                expr: Box::new(left),
                pattern: Box::new(pattern),
                negated,
            });
        }

        if self.eat_kw(Keyword::In) {
            self.expect(&TokenKind::LParen, "'(' after IN")?;
            if self.at_kw(Keyword::Select) || self.at_kw(Keyword::With) {
                let q = self.nested(Self::parse_query)?;
                self.expect(&TokenKind::RParen, "')' after IN subquery")?;
                return Ok(Expr::InSubquery {
                    expr: Box::new(left),
                    subquery: Box::new(q),
                    negated,
                });
            }
            let mut list = Vec::new();
            loop {
                list.push(self.parse_additive()?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect(&TokenKind::RParen, "')' after IN list")?;
            return Ok(Expr::InList {
                expr: Box::new(left),
                list,
                negated,
            });
        }

        if negated {
            // NOT consumed but no BETWEEN/LIKE/IN followed
            return Err(self.unexpected("BETWEEN, LIKE, or IN after NOT"));
        }

        // comparison
        if let Some(TokenKind::CompareOp(op)) = self.peek_kind().cloned() {
            self.bump();
            let right = self.parse_additive()?;
            return Ok(Expr::Compare {
                op,
                left: Box::new(left),
                right: Box::new(right),
            });
        }

        Ok(left)
    }

    fn parse_additive(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.parse_multiplicative()?;
        loop {
            let op = match self.peek_kind() {
                Some(TokenKind::ArithOp(c @ ('+' | '-'))) => *c,
                Some(TokenKind::Concat) if self.dialect.concat_operator() => {
                    self.bump();
                    let right = self.parse_multiplicative()?;
                    left = Expr::Function {
                        name: "CONCAT".into(),
                        args: vec![left, right],
                        distinct: false,
                    };
                    continue;
                }
                _ => break,
            };
            self.bump();
            let right = self.parse_multiplicative()?;
            left = Expr::Arith {
                op,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn parse_multiplicative(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.parse_unary()?;
        while let Some(TokenKind::ArithOp(c @ ('*' | '/' | '%'))) = self.peek_kind() {
            let op = *c;
            self.bump();
            let right = self.parse_unary()?;
            left = Expr::Arith {
                op,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn parse_unary(&mut self) -> Result<Expr, ParseError> {
        if self.eat(&TokenKind::ArithOp('-')) {
            let inner = self.nested(Self::parse_unary)?;
            return Ok(Expr::Neg(Box::new(inner)));
        }
        if self.eat(&TokenKind::ArithOp('+')) {
            return self.nested(Self::parse_unary);
        }
        self.parse_primary()
    }

    fn parse_parenthesized_query(&mut self) -> Result<Query, ParseError> {
        self.expect(&TokenKind::LParen, "'(' before subquery")?;
        let q = self.nested(Self::parse_query)?;
        self.expect(&TokenKind::RParen, "')' after subquery")?;
        Ok(q)
    }

    fn parse_primary(&mut self) -> Result<Expr, ParseError> {
        match self.peek_kind().cloned() {
            Some(TokenKind::Number(v)) => {
                self.bump();
                Ok(Expr::Literal(Literal::Number(v)))
            }
            Some(TokenKind::String) => {
                let t = self.bump().expect("peeked"); // lint:allow: caller peeked this token
                Ok(Expr::Literal(Literal::String(t.text)))
            }
            Some(TokenKind::Keyword(Keyword::Null)) => {
                self.bump();
                Ok(Expr::Literal(Literal::Null))
            }
            Some(TokenKind::Keyword(Keyword::True)) => {
                self.bump();
                Ok(Expr::Literal(Literal::Bool(true)))
            }
            Some(TokenKind::Keyword(Keyword::False)) => {
                self.bump();
                Ok(Expr::Literal(Literal::Bool(false)))
            }
            Some(TokenKind::Keyword(Keyword::Case)) => self.parse_case(),
            Some(TokenKind::Keyword(Keyword::Cast)) => {
                self.bump();
                self.expect(&TokenKind::LParen, "'(' after CAST")?;
                let expr = self.nested(Self::parse_expr)?;
                self.expect_kw(Keyword::As)?;
                let type_name = self.ident("type name in CAST")?;
                // tolerate (n) precision
                if self.eat(&TokenKind::LParen) {
                    let _ = self.number_u64("precision")?;
                    self.expect(&TokenKind::RParen, "')' after precision")?;
                }
                self.expect(&TokenKind::RParen, "')' after CAST")?;
                Ok(Expr::Cast {
                    expr: Box::new(expr),
                    type_name,
                })
            }
            Some(TokenKind::LParen) => {
                // subquery or parenthesized expression
                if matches!(
                    self.peek_at(1).map(|t| &t.kind),
                    Some(TokenKind::Keyword(Keyword::Select))
                        | Some(TokenKind::Keyword(Keyword::With))
                ) {
                    let q = self.parse_parenthesized_query()?;
                    Ok(Expr::ScalarSubquery(Box::new(q)))
                } else {
                    self.bump();
                    let e = self.nested(Self::parse_expr)?;
                    self.expect(&TokenKind::RParen, "')' after expression")?;
                    Ok(e)
                }
            }
            Some(TokenKind::Ident) | Some(TokenKind::QuotedIdent) => self.parse_ident_expr(),
            // A handful of keywords double as function names in the wild
            // (LEFT(s,1), RIGHT(s,1)); treat keyword-followed-by-( as a call.
            Some(TokenKind::Keyword(kw))
                if matches!(self.peek_at(1).map(|t| &t.kind), Some(TokenKind::LParen)) =>
            {
                self.bump();
                self.parse_call(kw.as_str().to_string())
            }
            _ => Err(self.unexpected("an expression")),
        }
    }

    fn parse_ident_expr(&mut self) -> Result<Expr, ParseError> {
        let tok = self.bump().expect("caller checked ident"); // lint:allow: caller matched an ident token
        let first_span = tok.span;
        let first = tok.text;
        // function call?
        if self.peek_kind() == Some(&TokenKind::LParen) {
            return self.parse_call(first);
        }
        // qualified column?
        if self.eat(&TokenKind::Dot) {
            let name = self.ident("column name after '.'")?;
            return Ok(Expr::Column(ColumnRef {
                qualifier: Some(first),
                name,
                span: Span::new(first_span.start, self.prev_span().end),
            }));
        }
        Ok(Expr::Column(ColumnRef {
            qualifier: None,
            name: first,
            span: first_span,
        }))
    }

    fn parse_call(&mut self, name: String) -> Result<Expr, ParseError> {
        self.expect(&TokenKind::LParen, "'(' in function call")?;
        let mut args = Vec::new();
        let mut distinct = false;
        if self.peek_kind() != Some(&TokenKind::RParen) {
            distinct = self.eat_kw(Keyword::Distinct);
            loop {
                if self.peek_kind() == Some(&TokenKind::ArithOp('*')) {
                    self.bump();
                    args.push(Expr::Wildcard);
                } else {
                    args.push(self.nested(Self::parse_expr)?);
                }
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        self.expect(&TokenKind::RParen, "')' after function arguments")?;
        Ok(Expr::Function {
            name,
            args,
            distinct,
        })
    }

    fn parse_case(&mut self) -> Result<Expr, ParseError> {
        self.expect_kw(Keyword::Case)?;
        let operand = if !self.at_kw(Keyword::When) {
            Some(Box::new(self.nested(Self::parse_expr)?))
        } else {
            None
        };
        let mut branches = Vec::new();
        while self.eat_kw(Keyword::When) {
            let when = self.nested(Self::parse_expr)?;
            self.expect_kw(Keyword::Then)?;
            let then = self.nested(Self::parse_expr)?;
            branches.push((when, then));
        }
        if branches.is_empty() {
            return Err(self.unexpected("WHEN in CASE expression"));
        }
        let else_expr = if self.eat_kw(Keyword::Else) {
            Some(Box::new(self.nested(Self::parse_expr)?))
        } else {
            None
        };
        self.expect_kw(Keyword::End)?;
        Ok(Expr::Case {
            operand,
            branches,
            else_expr,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(sql: &str) -> Query {
        parse_query(sql).unwrap_or_else(|e| panic!("parse failed for {sql:?}: {e}"))
    }

    #[test]
    fn minimal_select() {
        let query = q("SELECT plate FROM SpecObj");
        let s = query.as_select().unwrap();
        assert_eq!(s.items.len(), 1);
        assert_eq!(s.from.len(), 1);
        assert!(s.selection.is_none());
    }

    #[test]
    fn select_star_and_qualified_star() {
        let query = q("SELECT *, s.* FROM SpecObj AS s");
        let s = query.as_select().unwrap();
        assert_eq!(s.items[0], SelectItem::Wildcard);
        assert_eq!(s.items[1], SelectItem::QualifiedWildcard("s".into()));
    }

    #[test]
    fn where_and_or_precedence() {
        let query = q("SELECT x FROM t WHERE a = 1 AND b = 2 OR c = 3");
        let s = query.as_select().unwrap();
        // OR at the top: (a=1 AND b=2) OR c=3
        match s.selection.as_ref().unwrap() {
            Expr::Or(l, _) => assert!(matches!(**l, Expr::And(_, _))),
            other => panic!("expected OR at top, got {other:?}"),
        }
    }

    #[test]
    fn explicit_join_with_on() {
        let query =
            q("SELECT s.plate FROM SpecObj AS s JOIN PhotoObj AS p ON s.bestobjid = p.objid");
        let s = query.as_select().unwrap();
        match &s.from[0] {
            TableRef::Join {
                kind, constraint, ..
            } => {
                assert_eq!(*kind, JoinKind::Inner);
                assert!(matches!(constraint, JoinConstraint::On(_)));
            }
            other => panic!("expected join, got {other:?}"),
        }
    }

    #[test]
    fn left_outer_join() {
        let query = q("SELECT a.x FROM a LEFT OUTER JOIN b ON a.id = b.id");
        match &query.as_select().unwrap().from[0] {
            TableRef::Join { kind, .. } => assert_eq!(*kind, JoinKind::Left),
            _ => panic!(),
        }
    }

    #[test]
    fn implicit_join_from_list() {
        let query = q("SELECT a.x, b.y FROM a, b WHERE a.id = b.id");
        assert_eq!(query.as_select().unwrap().from.len(), 2);
    }

    #[test]
    fn group_by_having() {
        let query =
            q("SELECT plate, COUNT(*) AS n FROM SpecObj GROUP BY plate HAVING COUNT(*) > 10");
        let s = query.as_select().unwrap();
        assert_eq!(s.group_by.len(), 1);
        assert!(s.having.is_some());
        match &s.items[1] {
            SelectItem::Expr { expr, alias } => {
                assert!(expr.is_aggregate_call());
                assert_eq!(alias.as_deref(), Some("n"));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn in_subquery_and_scalar_subquery() {
        let query = q(
            "SELECT fiberid FROM SpecObj WHERE bestobjid IN (SELECT objid FROM PhotoObj WHERE ra > 180)",
        );
        let s = query.as_select().unwrap();
        assert!(matches!(
            s.selection.as_ref().unwrap(),
            Expr::InSubquery { negated: false, .. }
        ));

        let query = q("SELECT x FROM t WHERE y = (SELECT MAX(y) FROM t)");
        assert!(matches!(
            query.as_select().unwrap().selection.as_ref().unwrap(),
            Expr::Compare { .. }
        ));
    }

    #[test]
    fn exists_and_not_exists() {
        let query =
            q("SELECT x FROM t WHERE EXISTS (SELECT 1 FROM u) AND NOT EXISTS (SELECT 2 FROM v)");
        let sel = query.as_select().unwrap().selection.clone().unwrap();
        match sel {
            Expr::And(l, r) => {
                assert!(matches!(*l, Expr::Exists { negated: false, .. }));
                assert!(matches!(*r, Expr::Exists { negated: true, .. }));
            }
            other => panic!("expected AND, got {other:?}"),
        }
    }

    #[test]
    fn between_like_in_list() {
        let query = q(
            "SELECT x FROM t WHERE a BETWEEN 1 AND 5 AND b LIKE 'vol%' AND c IN (1, 2, 3) AND d NOT IN (4)",
        );
        assert!(query.as_select().unwrap().selection.is_some());
    }

    #[test]
    fn cte_parses() {
        let query = q(
            "WITH HighZ AS (SELECT plate, mjd FROM SpecObj WHERE z > 0.5) SELECT plate, mjd FROM HighZ",
        );
        assert_eq!(query.ctes.len(), 1);
        assert_eq!(query.ctes[0].name, "HighZ");
    }

    #[test]
    fn set_ops() {
        let query = q("SELECT x FROM a INTERSECT SELECT x FROM b");
        assert!(matches!(
            query.body,
            SetExpr::SetOp {
                op: SetOp::Intersect,
                ..
            }
        ));
        let query = q("SELECT x FROM a UNION ALL SELECT x FROM b");
        assert!(matches!(query.body, SetExpr::SetOp { all: true, .. }));
    }

    #[test]
    fn order_by_limit_and_top() {
        let query = q("SELECT x FROM t ORDER BY x DESC, y LIMIT 10");
        assert_eq!(query.order_by.len(), 2);
        assert!(query.order_by[0].desc);
        assert!(!query.order_by[1].desc);
        assert_eq!(query.limit, Some(10));

        let query = q("SELECT TOP 5 x FROM t");
        assert_eq!(query.as_select().unwrap().top, Some(5));
    }

    #[test]
    fn arithmetic_precedence() {
        let query = q("SELECT x FROM t WHERE a + b * c = 7");
        match query.as_select().unwrap().selection.as_ref().unwrap() {
            Expr::Compare { left, .. } => match &**left {
                Expr::Arith { op: '+', right, .. } => {
                    assert!(matches!(**right, Expr::Arith { op: '*', .. }))
                }
                other => panic!("expected +, got {other:?}"),
            },
            _ => panic!(),
        }
    }

    #[test]
    fn case_expression() {
        let query = q("SELECT CASE WHEN z > 0.5 THEN 'high' ELSE 'low' END FROM SpecObj");
        match &query.as_select().unwrap().items[0] {
            SelectItem::Expr { expr, .. } => assert!(matches!(expr, Expr::Case { .. })),
            _ => panic!(),
        }
    }

    #[test]
    fn cast_expression() {
        let query = q("SELECT CAST(z AS INT) FROM SpecObj");
        match &query.as_select().unwrap().items[0] {
            SelectItem::Expr { expr, .. } => assert!(matches!(expr, Expr::Cast { .. })),
            _ => panic!(),
        }
    }

    #[test]
    fn create_table_with_columns() {
        let stmt = parse("CREATE TABLE t (id INT, name VARCHAR(20), z FLOAT)").unwrap();
        match stmt {
            Statement::CreateTable {
                name,
                columns,
                source,
            } => {
                assert_eq!(name, "t");
                assert_eq!(columns.len(), 3);
                assert!(source.is_none());
            }
            _ => panic!(),
        }
    }

    #[test]
    fn create_table_as_select() {
        let stmt = parse("CREATE TABLE hot AS SELECT plate FROM SpecObj WHERE z > 1").unwrap();
        match stmt {
            Statement::CreateTable { source, .. } => assert!(source.is_some()),
            _ => panic!(),
        }
    }

    #[test]
    fn create_view() {
        let stmt = parse("CREATE VIEW v AS SELECT x FROM t").unwrap();
        assert!(matches!(stmt, Statement::CreateView { .. }));
    }

    #[test]
    fn derived_table() {
        let query = q("SELECT d.x FROM (SELECT x FROM t WHERE y > 1) AS d");
        assert!(matches!(
            query.as_select().unwrap().from[0],
            TableRef::Derived { .. }
        ));
    }

    #[test]
    fn count_star_and_count_distinct() {
        let query = q("SELECT COUNT(*), COUNT(DISTINCT plate) FROM SpecObj");
        let s = query.as_select().unwrap();
        match (&s.items[0], &s.items[1]) {
            (SelectItem::Expr { expr: e0, .. }, SelectItem::Expr { expr: e1, .. }) => {
                assert!(matches!(
                    e0,
                    Expr::Function { args, distinct: false, .. } if args == &[Expr::Wildcard]
                ));
                assert!(matches!(e1, Expr::Function { distinct: true, .. }));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn trailing_semicolon_ok_trailing_garbage_not() {
        assert!(parse("SELECT x FROM t;").is_ok());
        let err = parse("SELECT x FROM t 42").unwrap_err();
        assert!(matches!(err, ParseError::TrailingTokens { .. }));
    }

    #[test]
    fn missing_from_table_is_error_with_position() {
        let err = parse("SELECT x FROM WHERE y = 1").unwrap_err();
        match err {
            // `WHERE` read as the expected table name position
            ParseError::Unexpected { word_index, .. } => assert_eq!(word_index, 3),
            other => panic!("expected Unexpected, got {other:?}"),
        }
    }

    #[test]
    fn nested_subquery_depth() {
        let query = q("SELECT x FROM t WHERE a IN (SELECT a FROM u WHERE b IN (SELECT b FROM v))");
        assert!(query.as_select().is_some());
    }

    #[test]
    fn not_predicate() {
        let query = q("SELECT x FROM t WHERE NOT a = 1");
        assert!(matches!(
            query.as_select().unwrap().selection.as_ref().unwrap(),
            Expr::Not(_)
        ));
    }

    #[test]
    fn is_null_predicates() {
        let query = q("SELECT x FROM t WHERE a IS NULL AND b IS NOT NULL");
        let sel = query.as_select().unwrap().selection.clone().unwrap();
        match sel {
            Expr::And(l, r) => {
                assert!(matches!(*l, Expr::IsNull { negated: false, .. }));
                assert!(matches!(*r, Expr::IsNull { negated: true, .. }));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn bare_alias_in_projection() {
        let query = q("SELECT COUNT(*) cnt FROM t");
        match &query.as_select().unwrap().items[0] {
            SelectItem::Expr { alias, .. } => assert_eq!(alias.as_deref(), Some("cnt")),
            _ => panic!(),
        }
    }

    #[test]
    fn parenthesized_set_operands() {
        let query = q("(SELECT x FROM a) UNION (SELECT x FROM b)");
        assert!(matches!(
            query.body,
            SetExpr::SetOp {
                op: SetOp::Union,
                ..
            }
        ));
        // right-nested grouping survives
        let query = q("SELECT x FROM a UNION (SELECT x FROM b INTERSECT SELECT x FROM c)");
        match &query.body {
            SetExpr::SetOp {
                op: SetOp::Union,
                right,
                ..
            } => {
                assert!(matches!(
                    **right,
                    SetExpr::SetOp {
                        op: SetOp::Intersect,
                        ..
                    }
                ))
            }
            other => panic!("expected UNION at top, got {other:?}"),
        }
    }

    #[test]
    fn keyword_function_names() {
        // LEFT(s, 1) — LEFT is a keyword but also a function name
        let query = q("SELECT LEFT(name, 1) FROM t");
        match &query.as_select().unwrap().items[0] {
            SelectItem::Expr { expr, .. } => {
                assert!(matches!(expr, Expr::Function { name, .. } if name == "LEFT"))
            }
            _ => panic!(),
        }
    }
}
