//! SQL tokenizer, AST and recursive-descent parser.
//!
//! Covers the statement shapes exercised by the paper's evaluation
//! workloads (Speedtest1 and the §V-D micro-benchmarks).

use crate::value::SqlValue;
use crate::{DbError, DbResult};

// ---------------------------------------------------------------------
// Tokens
// ---------------------------------------------------------------------

/// One token. Names borrow from the statement text; a literal is a slot
/// in the values the lexer pulled out of it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Tok<'a> {
    Ident(&'a str),
    Keyword(&'static str),
    Lit(usize),
    Punct(&'static str),
    Eof,
}

const KEYWORDS: &[&str] = &[
    "select", "from", "where", "insert", "into", "values", "update", "set", "delete", "create",
    "table", "index", "unique", "drop", "begin", "commit", "rollback", "and", "or", "not", "null",
    "like", "between", "in", "is", "order", "by", "group", "asc", "desc", "limit", "offset",
    "distinct", "join", "inner", "on", "as", "primary", "key", "integer", "int", "text", "real",
    "blob", "numeric", "if", "exists", "analyze", "pragma", "transaction", "varchar", "double",
    "float", "bigint", "char", "default", "case", "when", "then", "else", "end",
];

/// Punctuation, two-byte operators first so that `<=` is not read as `<`.
const PUNCTS: &[&str] = &[
    "<=", ">=", "<>", "!=", "||", "(", ")", ",", ";", "=", "<", ">", "+", "-", "*", "/", "%", ".",
];

/// Tags of the shape key, one per token kind.
const SHAPE_KEYWORD: u8 = 1;
const SHAPE_IDENT: u8 = 2;
const SHAPE_PUNCT: u8 = 3;
const SHAPE_LIT: u8 = 4;

/// A lexed statement: its tokens, its shape and its literal values.
///
/// The shape is the token stream with every literal replaced by a slot:
/// keyword and punctuation indexes, length-prefixed names, one tag per
/// literal. Two texts with the same shape parse to the same statement,
/// except where a literal is read outside an expression (see
/// [`parse_tokens`]). `params` holds the literals in lexical order, so
/// `Tok::Lit(i)` is `params[i]`.
pub(crate) struct Lexed<'a> {
    pub(crate) toks: Vec<Tok<'a>>,
    pub(crate) shape: Vec<u8>,
    pub(crate) params: Vec<SqlValue>,
}

impl<'a> Lexed<'a> {
    fn keyword(&mut self, k: usize) {
        self.toks.push(Tok::Keyword(KEYWORDS[k]));
        self.shape.extend_from_slice(&[SHAPE_KEYWORD, k as u8]);
    }

    fn ident(&mut self, name: &'a str) {
        self.toks.push(Tok::Ident(name));
        self.shape.push(SHAPE_IDENT);
        self.shape.extend_from_slice(&name.len().to_le_bytes());
        self.shape.extend_from_slice(name.as_bytes());
    }

    fn punct(&mut self, p: usize) {
        self.toks.push(Tok::Punct(PUNCTS[p]));
        self.shape.extend_from_slice(&[SHAPE_PUNCT, p as u8]);
    }

    fn literal(&mut self, v: SqlValue) {
        self.toks.push(Tok::Lit(self.params.len()));
        self.params.push(v);
        self.shape.push(SHAPE_LIT);
    }
}

/// Tokenize a statement in one pass. Nothing is allocated per token except
/// the values of text and blob literals.
pub(crate) fn lex(sql: &str) -> DbResult<Lexed<'_>> {
    let b = sql.as_bytes();
    let mut out = Lexed {
        toks: Vec::with_capacity(16),
        shape: Vec::with_capacity(64),
        params: Vec::new(),
    };
    // `i` only stops on ASCII bytes, so every slice below is on a char
    // boundary.
    let mut i = 0;
    while i < b.len() {
        match b[i] {
            b' ' | b'\t' | b'\n' | b'\r' => i += 1,
            b'-' if b.get(i + 1) == Some(&b'-') => {
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
            }
            b'\'' => {
                let (text, end) = string_literal(sql, i + 1)?;
                out.literal(SqlValue::Text(text));
                i = end;
            }
            b'"' => {
                let start = i + 1;
                let len = b[start..]
                    .iter()
                    .position(|&c| c == b'"')
                    .ok_or_else(|| DbError::Parse("unterminated quoted identifier".into()))?;
                out.ident(&sql[start..start + len]);
                i = start + len + 1;
            }
            b'x' | b'X' if b.get(i + 1) == Some(&b'\'') => {
                // Blob literal x'AB01'.
                let start = i + 2;
                let len = b[start..]
                    .iter()
                    .position(|&c| c == b'\'')
                    .ok_or_else(|| DbError::Parse("unterminated blob literal".into()))?;
                out.literal(SqlValue::Blob(hex_blob(&b[start..start + len])?));
                i = start + len + 1;
            }
            b'0'..=b'9' => {
                let start = i;
                let mut is_real = false;
                while i < b.len() {
                    match b[i] {
                        b'0'..=b'9' => i += 1,
                        b'.' if !is_real => {
                            is_real = true;
                            i += 1;
                        }
                        b'e' | b'E' => {
                            is_real = true;
                            i += 1;
                            if i < b.len() && (b[i] == b'+' || b[i] == b'-') {
                                i += 1;
                            }
                        }
                        _ => break,
                    }
                }
                let text = &sql[start..i];
                let bad = || DbError::Parse(format!("bad number {text:?}"));
                out.literal(if is_real {
                    SqlValue::Real(text.parse().map_err(|_| bad())?)
                } else {
                    SqlValue::Int(text.parse().map_err(|_| bad())?)
                });
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                let start = i;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                }
                let word = &sql[start..i];
                match KEYWORDS.iter().position(|k| k.eq_ignore_ascii_case(word)) {
                    Some(k) => out.keyword(k),
                    None => out.ident(word),
                }
            }
            _ => {
                let Some(p) = PUNCTS.iter().position(|p| b[i..].starts_with(p.as_bytes())) else {
                    let c = sql[i..].chars().next().unwrap_or(char::REPLACEMENT_CHARACTER);
                    return Err(DbError::Parse(format!("unexpected character {c:?}")));
                };
                out.punct(p);
                i += PUNCTS[p].len();
            }
        }
    }
    out.toks.push(Tok::Eof);
    Ok(out)
}

/// The string literal whose body starts at `start`: its text, with `''`
/// read as one quote, and the index just past its closing quote.
fn string_literal(sql: &str, start: usize) -> DbResult<(String, usize)> {
    let b = sql.as_bytes();
    let mut text = String::new();
    let mut from = start;
    loop {
        let Some(q) = b[from..].iter().position(|&c| c == b'\'').map(|q| from + q) else {
            return Err(DbError::Parse("unterminated string".into()));
        };
        if b.get(q + 1) == Some(&b'\'') {
            text.push_str(&sql[from..=q]);
            from = q + 2;
        } else {
            text.push_str(&sql[from..q]);
            return Ok((text, q + 1));
        }
    }
}

/// The bytes of a blob literal's hex digits, checked byte by byte.
fn hex_blob(hex: &[u8]) -> DbResult<Vec<u8>> {
    if !hex.len().is_multiple_of(2) {
        return Err(DbError::Parse("odd-length blob literal".into()));
    }
    let digit = |c: u8| {
        char::from(c)
            .to_digit(16)
            .ok_or_else(|| DbError::Parse("bad blob literal".into()))
    };
    let mut bytes = Vec::with_capacity(hex.len() / 2);
    for pair in hex.chunks_exact(2) {
        bytes.push(((digit(pair[0])? << 4) | digit(pair[1])?) as u8);
    }
    Ok(bytes)
}

// ---------------------------------------------------------------------
// AST
// ---------------------------------------------------------------------

/// Column type affinity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Affinity {
    /// INTEGER affinity.
    Integer,
    /// REAL affinity.
    Real,
    /// TEXT affinity.
    Text,
    /// BLOB / none.
    Blob,
}

/// A column definition in CREATE TABLE.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDef {
    /// Name.
    pub name: String,
    /// Affinity from the declared type.
    pub affinity: Affinity,
    /// Declared `PRIMARY KEY` on an INTEGER column (rowid alias).
    pub primary_key: bool,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum BinaryOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Concat,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
}

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// `NULL`.
    Null,
    /// A literal of the statement text, bound at execution: slot `i` is
    /// the text's `i`-th literal, so one parsed statement serves every
    /// text of its shape.
    Param(usize),
    /// Column reference, optionally qualified.
    Column {
        /// Table qualifier.
        table: Option<String>,
        /// Column name (or `rowid`).
        name: String,
    },
    /// Unary minus.
    Neg(Box<Expr>),
    /// Logical NOT.
    Not(Box<Expr>),
    /// Binary operation.
    Binary(BinaryOp, Box<Expr>, Box<Expr>),
    /// `expr LIKE pattern`.
    Like {
        /// Tested expression.
        expr: Box<Expr>,
        /// Pattern with `%`/`_`.
        pattern: Box<Expr>,
        /// NOT LIKE.
        negated: bool,
    },
    /// `expr BETWEEN lo AND hi`.
    Between {
        /// Tested expression.
        expr: Box<Expr>,
        /// Lower bound (inclusive).
        lo: Box<Expr>,
        /// Upper bound (inclusive).
        hi: Box<Expr>,
        /// NOT BETWEEN.
        negated: bool,
    },
    /// `expr IN (list)`.
    InList {
        /// Tested expression.
        expr: Box<Expr>,
        /// Candidates.
        list: Vec<Expr>,
        /// NOT IN.
        negated: bool,
    },
    /// `expr IS [NOT] NULL`.
    IsNull {
        /// Tested expression.
        expr: Box<Expr>,
        /// IS NOT NULL.
        negated: bool,
    },
    /// Function call (scalar or aggregate).
    Func {
        /// Lowercase function name.
        name: String,
        /// Arguments.
        args: Vec<Expr>,
        /// `count(*)`.
        star: bool,
    },
    /// `CASE WHEN cond THEN val ... [ELSE e] END`.
    Case {
        /// (condition, result) arms.
        arms: Vec<(Expr, Expr)>,
        /// ELSE result.
        otherwise: Option<Box<Expr>>,
    },
}

/// One selected column.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectCol {
    /// `*`
    Star,
    /// Expression with optional alias.
    Expr(Expr, Option<String>),
}

/// FROM item: table with optional alias.
#[derive(Debug, Clone, PartialEq)]
pub struct FromTable {
    /// Table name.
    pub name: String,
    /// Alias.
    pub alias: Option<String>,
    /// ON condition joining to earlier tables (None for the first table).
    pub on: Option<Expr>,
}

/// A SELECT statement.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStmt {
    /// DISTINCT flag.
    pub distinct: bool,
    /// Projection.
    pub columns: Vec<SelectCol>,
    /// FROM tables (left-deep joins).
    pub from: Vec<FromTable>,
    /// WHERE filter.
    pub where_: Option<Expr>,
    /// GROUP BY expressions.
    pub group_by: Vec<Expr>,
    /// ORDER BY (expr, descending).
    pub order_by: Vec<(Expr, bool)>,
    /// LIMIT.
    pub limit: Option<Expr>,
    /// OFFSET.
    pub offset: Option<Expr>,
}

/// A parsed statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// CREATE TABLE.
    CreateTable {
        /// Table name.
        name: String,
        /// Columns.
        columns: Vec<ColumnDef>,
        /// IF NOT EXISTS.
        if_not_exists: bool,
    },
    /// CREATE \[UNIQUE\] INDEX.
    CreateIndex {
        /// Index name.
        name: String,
        /// Indexed table.
        table: String,
        /// Indexed column names.
        columns: Vec<String>,
        /// UNIQUE.
        unique: bool,
    },
    /// DROP TABLE.
    DropTable {
        /// Name.
        name: String,
    },
    /// DROP INDEX.
    DropIndex {
        /// Name.
        name: String,
    },
    /// INSERT.
    Insert {
        /// Target table.
        table: String,
        /// Explicit column list.
        columns: Option<Vec<String>>,
        /// VALUES rows.
        rows: Vec<Vec<Expr>>,
    },
    /// SELECT.
    Select(SelectStmt),
    /// UPDATE.
    Update {
        /// Target table.
        table: String,
        /// SET assignments.
        sets: Vec<(String, Expr)>,
        /// WHERE filter.
        where_: Option<Expr>,
    },
    /// DELETE.
    Delete {
        /// Target table.
        table: String,
        /// WHERE filter.
        where_: Option<Expr>,
    },
    /// BEGIN \[TRANSACTION\].
    Begin,
    /// COMMIT.
    Commit,
    /// ROLLBACK.
    Rollback,
    /// ANALYZE (statistics gathering, Speedtest1 test 990).
    Analyze,
    /// PRAGMA name [= value] (accepted and ignored; `Connection` refuses
    /// the cache-sizing ones).
    Pragma {
        /// Pragma name.
        name: String,
        /// Optional value.
        value: Option<String>,
    },
}

/// Parse one SQL statement (a trailing `;` is allowed). Each literal in
/// expression position becomes an [`Expr::Param`]; the literals come back
/// beside the statement, in the order the text holds them.
pub fn parse(sql: &str) -> DbResult<(Stmt, Vec<SqlValue>)> {
    let Lexed { toks, params, .. } = lex(sql)?;
    let (stmt, _) = parse_tokens(toks, &params)?;
    Ok((stmt, params))
}

/// Parse a lexed statement. Also says whether the statement may be cached
/// by its shape: not when the parser read a literal outside an expression
/// (a `PRAGMA` value, the skipped length of `VARCHAR(n)`), because the
/// statement would then hold, or ignore, a value that a later text of the
/// same shape changes.
pub(crate) fn parse_tokens(toks: Vec<Tok<'_>>, params: &[SqlValue]) -> DbResult<(Stmt, bool)> {
    let mut p = P {
        toks,
        pos: 0,
        params,
        cacheable: true,
    };
    let stmt = p.stmt()?;
    p.eat_punct(";");
    if !matches!(p.peek(), Tok::Eof) {
        return Err(DbError::Parse(format!(
            "trailing input after statement: {}",
            p.show(p.peek())
        )));
    }
    Ok((stmt, p.cacheable))
}

struct P<'a, 'p> {
    toks: Vec<Tok<'a>>,
    pos: usize,
    params: &'p [SqlValue],
    cacheable: bool,
}

impl<'a> P<'a, '_> {
    fn peek(&self) -> Tok<'a> {
        self.toks[self.pos]
    }

    fn bump(&mut self) -> Tok<'a> {
        let t = self.toks[self.pos];
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    /// A token for an error message, with a literal's value.
    fn show(&self, t: Tok<'_>) -> String {
        match t {
            Tok::Lit(slot) if slot < self.params.len() => format!("{:?}", self.params[slot]),
            other => format!("{other:?}"),
        }
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Tok::Keyword(k) if k == kw) {
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
            Err(DbError::Parse(format!(
                "expected {kw:?}, found {}",
                self.show(self.peek())
            )))
        }
    }

    fn eat_punct(&mut self, p: &str) -> bool {
        if matches!(self.peek(), Tok::Punct(q) if q == p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: &str) -> DbResult<()> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            Err(DbError::Parse(format!(
                "expected {p:?}, found {}",
                self.show(self.peek())
            )))
        }
    }

    /// Identifier (non-reserved keywords also accepted as names).
    fn ident(&mut self) -> DbResult<String> {
        match self.bump() {
            Tok::Ident(s) => Ok(s.to_string()),
            Tok::Keyword(k) => Ok(k.to_string()),
            other => Err(DbError::Parse(format!(
                "expected identifier, found {}",
                self.show(other)
            ))),
        }
    }

    fn stmt(&mut self) -> DbResult<Stmt> {
        if self.eat_kw("create") {
            let unique = self.eat_kw("unique");
            if self.eat_kw("table") {
                if unique {
                    return Err(DbError::Parse("UNIQUE TABLE is not a thing".into()));
                }
                return self.create_table();
            }
            if self.eat_kw("index") {
                return self.create_index(unique);
            }
            return Err(DbError::Parse("expected TABLE or INDEX after CREATE".into()));
        }
        if self.eat_kw("drop") {
            if self.eat_kw("table") {
                return Ok(Stmt::DropTable { name: self.ident()? });
            }
            if self.eat_kw("index") {
                return Ok(Stmt::DropIndex { name: self.ident()? });
            }
            return Err(DbError::Parse("expected TABLE or INDEX after DROP".into()));
        }
        if self.eat_kw("insert") {
            return self.insert();
        }
        if self.eat_kw("select") {
            return Ok(Stmt::Select(self.select()?));
        }
        if self.eat_kw("update") {
            return self.update();
        }
        if self.eat_kw("delete") {
            self.expect_kw("from")?;
            let table = self.ident()?;
            let where_ = self.opt_where()?;
            return Ok(Stmt::Delete { table, where_ });
        }
        if self.eat_kw("begin") {
            self.eat_kw("transaction");
            return Ok(Stmt::Begin);
        }
        if self.eat_kw("commit") {
            return Ok(Stmt::Commit);
        }
        if self.eat_kw("rollback") {
            return Ok(Stmt::Rollback);
        }
        if self.eat_kw("analyze") {
            return Ok(Stmt::Analyze);
        }
        if self.eat_kw("pragma") {
            let name = self.ident()?;
            let value = if self.eat_punct("=") {
                let bad = |p: &Self, t| DbError::Parse(format!("bad pragma value {}", p.show(t)));
                Some(match self.bump() {
                    Tok::Ident(s) => s.to_string(),
                    Tok::Keyword(s) => s.to_string(),
                    t @ Tok::Lit(slot) => {
                        self.cacheable = false;
                        match self.params.get(slot) {
                            Some(SqlValue::Text(s)) => s.clone(),
                            Some(SqlValue::Int(v)) => v.to_string(),
                            _ => return Err(bad(self, t)),
                        }
                    }
                    t => return Err(bad(self, t)),
                })
            } else {
                None
            };
            return Ok(Stmt::Pragma { name, value });
        }
        Err(DbError::Parse(format!("unexpected token {}", self.show(self.peek()))))
    }

    fn create_table(&mut self) -> DbResult<Stmt> {
        let if_not_exists = if self.eat_kw("if") {
            self.expect_kw("not")?;
            self.expect_kw("exists")?;
            true
        } else {
            false
        };
        let name = self.ident()?;
        self.expect_punct("(")?;
        let mut columns = Vec::new();
        loop {
            let col_name = self.ident()?;
            let mut type_words = Vec::new();
            while let Tok::Keyword(k) = self.peek() {
                match k {
                    "integer" | "int" | "bigint" | "text" | "real" | "double" | "float"
                    | "blob" | "numeric" | "varchar" | "char" => {
                        type_words.push(k);
                        self.bump();
                        if self.eat_punct("(") {
                            self.skip_type_args()?;
                        }
                    }
                    _ => break,
                }
            }
            let affinity = affinity_of(&type_words);
            let mut primary_key = false;
            loop {
                if self.eat_kw("primary") {
                    self.expect_kw("key")?;
                    primary_key = true;
                } else if self.eat_kw("not") {
                    self.expect_kw("null")?; // accepted, not enforced
                } else if self.eat_kw("unique") {
                    // accepted; enforced only via explicit unique indexes
                } else if self.eat_kw("default") {
                    let _ = self.expr()?; // accepted, ignored
                } else {
                    break;
                }
            }
            columns.push(ColumnDef {
                name: col_name,
                affinity,
                primary_key,
            });
            if self.eat_punct(")") {
                break;
            }
            self.expect_punct(",")?;
        }
        Ok(Stmt::CreateTable {
            name,
            columns,
            if_not_exists,
        })
    }

    /// Skip a type's `(n)` or `(p, s)` up to its `)`. The values are not
    /// kept, so a statement holding one is not cached.
    fn skip_type_args(&mut self) -> DbResult<()> {
        loop {
            match self.bump() {
                Tok::Punct(")") => return Ok(()),
                Tok::Eof => return Err(DbError::Parse("unterminated type arguments".into())),
                Tok::Lit(_) => self.cacheable = false,
                _ => {}
            }
        }
    }

    fn create_index(&mut self, unique: bool) -> DbResult<Stmt> {
        let name = self.ident()?;
        self.expect_kw("on")?;
        let table = self.ident()?;
        self.expect_punct("(")?;
        let mut columns = Vec::new();
        loop {
            columns.push(self.ident()?);
            self.eat_kw("asc");
            self.eat_kw("desc"); // accepted; order ignored
            if self.eat_punct(")") {
                break;
            }
            self.expect_punct(",")?;
        }
        Ok(Stmt::CreateIndex {
            name,
            table,
            columns,
            unique,
        })
    }

    fn insert(&mut self) -> DbResult<Stmt> {
        self.expect_kw("into")?;
        let table = self.ident()?;
        let columns = if self.eat_punct("(") {
            let mut cols = Vec::new();
            loop {
                cols.push(self.ident()?);
                if self.eat_punct(")") {
                    break;
                }
                self.expect_punct(",")?;
            }
            Some(cols)
        } else {
            None
        };
        self.expect_kw("values")?;
        let mut rows = Vec::new();
        loop {
            self.expect_punct("(")?;
            let mut row = Vec::new();
            loop {
                row.push(self.expr()?);
                if self.eat_punct(")") {
                    break;
                }
                self.expect_punct(",")?;
            }
            rows.push(row);
            if !self.eat_punct(",") {
                break;
            }
        }
        Ok(Stmt::Insert {
            table,
            columns,
            rows,
        })
    }

    fn select(&mut self) -> DbResult<SelectStmt> {
        let distinct = self.eat_kw("distinct");
        let mut columns = Vec::new();
        loop {
            if self.eat_punct("*") {
                columns.push(SelectCol::Star);
            } else {
                let e = self.expr()?;
                let alias = if self.eat_kw("as") {
                    Some(self.ident()?)
                } else if let Tok::Ident(_) = self.peek() {
                    Some(self.ident()?)
                } else {
                    None
                };
                columns.push(SelectCol::Expr(e, alias));
            }
            if !self.eat_punct(",") {
                break;
            }
        }
        let mut from = Vec::new();
        if self.eat_kw("from") {
            loop {
                let name = self.ident()?;
                let alias = match self.peek() {
                    Tok::Ident(_) => Some(self.ident()?),
                    _ => None,
                };
                from.push(FromTable {
                    name,
                    alias,
                    on: None,
                });
                if self.eat_punct(",") {
                    continue; // comma join: condition lives in WHERE
                }
                let joined = if self.eat_kw("inner") {
                    self.expect_kw("join")?;
                    true
                } else {
                    self.eat_kw("join")
                };
                if !joined {
                    break;
                }
                let name = self.ident()?;
                let alias = match self.peek() {
                    Tok::Ident(_) => Some(self.ident()?),
                    _ => None,
                };
                self.expect_kw("on")?;
                let on = self.expr()?;
                from.push(FromTable {
                    name,
                    alias,
                    on: Some(on),
                });
                if !self.eat_punct(",") {
                    // allow chained JOIN via loop continuation below
                }
                if !matches!(self.peek(), Tok::Keyword("join" | "inner")) {
                    break;
                }
            }
        }
        let where_ = self.opt_where()?;
        let mut group_by = Vec::new();
        if self.eat_kw("group") {
            self.expect_kw("by")?;
            loop {
                group_by.push(self.expr()?);
                if !self.eat_punct(",") {
                    break;
                }
            }
        }
        let mut order_by = Vec::new();
        if self.eat_kw("order") {
            self.expect_kw("by")?;
            loop {
                let e = self.expr()?;
                let desc = if self.eat_kw("desc") {
                    true
                } else {
                    self.eat_kw("asc");
                    false
                };
                order_by.push((e, desc));
                if !self.eat_punct(",") {
                    break;
                }
            }
        }
        let mut limit = None;
        let mut offset = None;
        if self.eat_kw("limit") {
            limit = Some(self.expr()?);
            if self.eat_kw("offset") {
                offset = Some(self.expr()?);
            }
        }
        Ok(SelectStmt {
            distinct,
            columns,
            from,
            where_,
            group_by,
            order_by,
            limit,
            offset,
        })
    }

    fn update(&mut self) -> DbResult<Stmt> {
        let table = self.ident()?;
        self.expect_kw("set")?;
        let mut sets = Vec::new();
        loop {
            let col = self.ident()?;
            self.expect_punct("=")?;
            let e = self.expr()?;
            sets.push((col, e));
            if !self.eat_punct(",") {
                break;
            }
        }
        let where_ = self.opt_where()?;
        Ok(Stmt::Update {
            table,
            sets,
            where_,
        })
    }

    fn opt_where(&mut self) -> DbResult<Option<Expr>> {
        if self.eat_kw("where") {
            Ok(Some(self.expr()?))
        } else {
            Ok(None)
        }
    }

    // ---- expressions ------------------------------------------------------

    fn expr(&mut self) -> DbResult<Expr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> DbResult<Expr> {
        let mut lhs = self.and_expr()?;
        while self.eat_kw("or") {
            let rhs = self.and_expr()?;
            lhs = Expr::Binary(BinaryOp::Or, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> DbResult<Expr> {
        let mut lhs = self.not_expr()?;
        while self.eat_kw("and") {
            let rhs = self.not_expr()?;
            lhs = Expr::Binary(BinaryOp::And, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn not_expr(&mut self) -> DbResult<Expr> {
        if self.eat_kw("not") {
            return Ok(Expr::Not(Box::new(self.not_expr()?)));
        }
        self.predicate()
    }

    /// Comparison-level: handles =, <, LIKE, BETWEEN, IN, IS NULL.
    fn predicate(&mut self) -> DbResult<Expr> {
        let lhs = self.additive()?;
        let negated = if matches!(self.peek(), Tok::Keyword("not")) {
            let next = self.toks.get(self.pos + 1);
            if matches!(next, Some(Tok::Keyword("like" | "between" | "in"))) {
                self.bump();
                true
            } else {
                false
            }
        } else {
            false
        };
        if self.eat_kw("like") {
            let pattern = self.additive()?;
            return Ok(Expr::Like {
                expr: Box::new(lhs),
                pattern: Box::new(pattern),
                negated,
            });
        }
        if self.eat_kw("between") {
            let lo = self.additive()?;
            self.expect_kw("and")?;
            let hi = self.additive()?;
            return Ok(Expr::Between {
                expr: Box::new(lhs),
                lo: Box::new(lo),
                hi: Box::new(hi),
                negated,
            });
        }
        if self.eat_kw("in") {
            self.expect_punct("(")?;
            let mut list = Vec::new();
            loop {
                list.push(self.expr()?);
                if self.eat_punct(")") {
                    break;
                }
                self.expect_punct(",")?;
            }
            return Ok(Expr::InList {
                expr: Box::new(lhs),
                list,
                negated,
            });
        }
        if self.eat_kw("is") {
            let negated = self.eat_kw("not");
            self.expect_kw("null")?;
            return Ok(Expr::IsNull {
                expr: Box::new(lhs),
                negated,
            });
        }
        let op = match self.peek() {
            Tok::Punct("=") => Some(BinaryOp::Eq),
            Tok::Punct("<>") | Tok::Punct("!=") => Some(BinaryOp::Ne),
            Tok::Punct("<") => Some(BinaryOp::Lt),
            Tok::Punct("<=") => Some(BinaryOp::Le),
            Tok::Punct(">") => Some(BinaryOp::Gt),
            Tok::Punct(">=") => Some(BinaryOp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let rhs = self.additive()?;
            return Ok(Expr::Binary(op, Box::new(lhs), Box::new(rhs)));
        }
        Ok(lhs)
    }

    fn additive(&mut self) -> DbResult<Expr> {
        let mut lhs = self.multiplicative()?;
        loop {
            let op = match self.peek() {
                Tok::Punct("+") => BinaryOp::Add,
                Tok::Punct("-") => BinaryOp::Sub,
                Tok::Punct("||") => BinaryOp::Concat,
                _ => break,
            };
            self.bump();
            let rhs = self.multiplicative()?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn multiplicative(&mut self) -> DbResult<Expr> {
        let mut lhs = self.unary()?;
        loop {
            let op = match self.peek() {
                Tok::Punct("*") => BinaryOp::Mul,
                Tok::Punct("/") => BinaryOp::Div,
                Tok::Punct("%") => BinaryOp::Rem,
                _ => break,
            };
            self.bump();
            let rhs = self.unary()?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> DbResult<Expr> {
        if self.eat_punct("-") {
            return Ok(Expr::Neg(Box::new(self.unary()?)));
        }
        if self.eat_punct("+") {
            return self.unary();
        }
        self.primary()
    }

    #[allow(clippy::too_many_lines)]
    fn primary(&mut self) -> DbResult<Expr> {
        match self.bump() {
            Tok::Lit(slot) => Ok(Expr::Param(slot)),
            Tok::Keyword("null") => Ok(Expr::Null),
            Tok::Keyword("case") => {
                let mut arms = Vec::new();
                while self.eat_kw("when") {
                    let cond = self.expr()?;
                    self.expect_kw("then")?;
                    let val = self.expr()?;
                    arms.push((cond, val));
                }
                let otherwise = if self.eat_kw("else") {
                    Some(Box::new(self.expr()?))
                } else {
                    None
                };
                self.expect_kw("end")?;
                Ok(Expr::Case { arms, otherwise })
            }
            Tok::Punct("(") => {
                let e = self.expr()?;
                self.expect_punct(")")?;
                Ok(e)
            }
            Tok::Ident(name) => {
                let name = name.to_string();
                if self.eat_punct("(") {
                    if self.eat_punct("*") {
                        self.expect_punct(")")?;
                        return Ok(Expr::Func {
                            name: name.to_ascii_lowercase(),
                            args: vec![],
                            star: true,
                        });
                    }
                    let mut args = Vec::new();
                    if !self.eat_punct(")") {
                        loop {
                            args.push(self.expr()?);
                            if self.eat_punct(")") {
                                break;
                            }
                            self.expect_punct(",")?;
                        }
                    }
                    return Ok(Expr::Func {
                        name: name.to_ascii_lowercase(),
                        args,
                        star: false,
                    });
                }
                if self.eat_punct(".") {
                    let col = self.ident()?;
                    return Ok(Expr::Column {
                        table: Some(name),
                        name: col,
                    });
                }
                Ok(Expr::Column { table: None, name })
            }
            other => Err(DbError::Parse(format!("unexpected token {}", self.show(other)))),
        }
    }
}

fn affinity_of(type_words: &[&str]) -> Affinity {
    let joined = type_words.join(" ");
    if joined.contains("int") {
        Affinity::Integer
    } else if joined.contains("char") || joined.contains("text") || joined.contains("varchar") {
        Affinity::Text
    } else if joined.contains("real") || joined.contains("double") || joined.contains("float") {
        Affinity::Real
    } else if joined.contains("blob") || joined.is_empty() {
        Affinity::Blob
    } else {
        Affinity::Real
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{eval, NoRows};

    /// Parse a statement that must parse, dropping its bound values.
    fn stmt(sql: &str) -> Stmt {
        parse(sql).unwrap().0
    }

    /// The value an expression takes under the statement's bound values.
    fn bound(e: &Expr, params: &[SqlValue]) -> SqlValue {
        eval(e, &NoRows(params)).unwrap()
    }

    #[test]
    fn parse_create_table() {
        let s = stmt(
            "CREATE TABLE t1(a INTEGER PRIMARY KEY, b INT NOT NULL, c VARCHAR(100), d DOUBLE)",
        );
        match s {
            Stmt::CreateTable { name, columns, .. } => {
                assert_eq!(name, "t1");
                assert_eq!(columns.len(), 4);
                assert!(columns[0].primary_key);
                assert_eq!(columns[0].affinity, Affinity::Integer);
                assert_eq!(columns[2].affinity, Affinity::Text);
                assert_eq!(columns[3].affinity, Affinity::Real);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_insert_multi_row() {
        let (s, params) = parse("INSERT INTO t(a,b) VALUES (1,'x'), (2,'y''z')").unwrap();
        match s {
            Stmt::Insert {
                table,
                columns,
                rows,
            } => {
                assert_eq!(table, "t");
                assert_eq!(columns.unwrap(), vec!["a", "b"]);
                assert_eq!(rows.len(), 2);
                assert_eq!(rows[1][1], Expr::Param(3));
                assert_eq!(bound(&rows[1][1], &params), SqlValue::Text("y'z".into()));
                assert_eq!(bound(&rows[1][0], &params), SqlValue::Int(2));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_select_full() {
        let s = stmt(
            "SELECT DISTINCT a, count(*) AS n FROM t WHERE b BETWEEN 1 AND 10 \
             GROUP BY a ORDER BY n DESC, a LIMIT 5 OFFSET 2",
        );
        match s {
            Stmt::Select(sel) => {
                assert!(sel.distinct);
                assert_eq!(sel.columns.len(), 2);
                assert_eq!(sel.group_by.len(), 1);
                assert_eq!(sel.order_by.len(), 2);
                assert!(sel.order_by[0].1);
                assert!(sel.limit.is_some());
                assert!(sel.offset.is_some());
                assert!(matches!(sel.where_, Some(Expr::Between { .. })));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_join() {
        let s = stmt("SELECT t1.a, t2.b FROM t1 JOIN t2 ON t1.id = t2.ref WHERE t2.b > 5");
        match s {
            Stmt::Select(sel) => {
                assert_eq!(sel.from.len(), 2);
                assert!(sel.from[0].on.is_none());
                assert!(sel.from[1].on.is_some());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_update_delete() {
        assert!(matches!(
            stmt("UPDATE t SET a = a + 1, b = 'x' WHERE rowid = 5"),
            Stmt::Update { .. }
        ));
        assert!(matches!(
            stmt("DELETE FROM t WHERE a IN (1,2,3)"),
            Stmt::Delete { .. }
        ));
    }

    #[test]
    fn parse_expression_precedence() {
        let s = stmt("SELECT 1 + 2 * 3");
        match s {
            Stmt::Select(sel) => match &sel.columns[0] {
                SelectCol::Expr(Expr::Binary(BinaryOp::Add, _, rhs), _) => {
                    assert!(matches!(**rhs, Expr::Binary(BinaryOp::Mul, _, _)));
                }
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_not_like_and_is_null() {
        assert!(matches!(
            stmt("SELECT * FROM t WHERE a NOT LIKE '%x%'"),
            Stmt::Select(_)
        ));
        assert!(matches!(
            stmt("SELECT * FROM t WHERE a IS NOT NULL AND b IS NULL"),
            Stmt::Select(_)
        ));
    }

    #[test]
    fn parse_txn_and_misc() {
        assert_eq!(stmt("BEGIN"), Stmt::Begin);
        assert_eq!(stmt("BEGIN TRANSACTION;"), Stmt::Begin);
        assert_eq!(stmt("COMMIT"), Stmt::Commit);
        assert_eq!(stmt("ROLLBACK"), Stmt::Rollback);
        assert_eq!(stmt("ANALYZE"), Stmt::Analyze);
        assert!(matches!(
            stmt("PRAGMA cache_size = 2048"),
            Stmt::Pragma { .. }
        ));
    }

    #[test]
    fn parse_blob_literal() {
        let (s, params) = parse("INSERT INTO t VALUES (x'DEADBEEF')").unwrap();
        match s {
            Stmt::Insert { rows, .. } => {
                assert_eq!(rows[0][0], Expr::Param(0));
                assert_eq!(
                    bound(&rows[0][0], &params),
                    SqlValue::Blob(vec![0xDE, 0xAD, 0xBE, 0xEF])
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_case_expression() {
        assert!(matches!(
            stmt("SELECT CASE WHEN a > 0 THEN 'pos' ELSE 'neg' END FROM t"),
            Stmt::Select(_)
        ));
    }

    #[test]
    fn parse_errors() {
        assert!(parse("SELEC 1").is_err());
        assert!(parse("SELECT 'unterminated").is_err());
        assert!(parse("INSERT INTO").is_err());
        assert!(parse("SELECT 1 SELECT 2").is_err());
        assert!(parse("CREATE UNIQUE TABLE t(a)").is_err());
        assert!(parse("CREATE TABLE t(a VARCHAR(10").is_err());
    }

    #[test]
    fn literals_become_params_and_share_a_shape() {
        let a = lex("select B from T where A = 7 and c = 'x'").unwrap();
        let b = lex("SELECT B FROM T WHERE A = -2.5 AND c = NULL").unwrap();
        let c = lex("SELECT B FROM T WHERE A = x'00' AND c = 'it''s'").unwrap();
        assert_ne!(a.shape, b.shape, "a literal and NULL are different shapes");
        assert_eq!(a.shape, c.shape);
        assert_eq!(c.params, [SqlValue::Blob(vec![0]), SqlValue::Text("it's".into())]);
        // Names keep their case and quoting does not hide a keyword.
        assert_ne!(lex("SELECT b FROM t").unwrap().shape, lex("SELECT B FROM t").unwrap().shape);
        assert_ne!(
            lex("SELECT a FROM t").unwrap().shape,
            lex("SELECT \"select\" FROM t").unwrap().shape
        );
        // Names are length-prefixed: no two token streams share a shape.
        assert_ne!(lex("SELECT \"a b\"").unwrap().shape, lex("SELECT a b").unwrap().shape);
        let (s, params) = parse("SELECT b FROM t WHERE a = 7 LIMIT 3 OFFSET 1").unwrap();
        let Stmt::Select(sel) = s else { panic!("{s:?}") };
        assert_eq!(params, [SqlValue::Int(7), SqlValue::Int(3), SqlValue::Int(1)]);
        assert_eq!(sel.limit, Some(Expr::Param(1)));
        assert_eq!(sel.offset, Some(Expr::Param(2)));
    }

    #[test]
    fn literals_outside_expressions_are_not_cacheable() {
        let cacheable = |sql: &str| {
            let Lexed { toks, params, .. } = lex(sql).unwrap();
            parse_tokens(toks, &params).unwrap().1
        };
        assert!(!cacheable("PRAGMA cache_size = 2048"));
        assert!(!cacheable("PRAGMA journal_mode = 'delete'"));
        assert!(cacheable("PRAGMA journal_mode = delete"));
        assert!(!cacheable("CREATE TABLE t(a VARCHAR(100))"));
        assert!(cacheable("CREATE TABLE t(a TEXT DEFAULT 'x')"));
        assert!(cacheable("SELECT 1"));
        assert!(matches!(
            parse("PRAGMA cache_size = 2048").unwrap().0,
            Stmt::Pragma { value: Some(v), .. } if v == "2048"
        ));
        assert!(parse("PRAGMA cache_size = 1.5").is_err());
    }

    #[test]
    fn non_ascii_text_is_kept_intact() {
        let (s, params) = parse("SELECT 'é', \"naïve\" FROM t WHERE x = 'ü''ß'").unwrap();
        assert_eq!(params, [SqlValue::Text("é".into()), SqlValue::Text("ü'ß".into())]);
        let Stmt::Select(sel) = s else { panic!("{s:?}") };
        assert!(matches!(
            &sel.columns[1],
            SelectCol::Expr(Expr::Column { name, .. }, None) if name == "naïve"
        ));
        let mut db = crate::Connection::open_memory();
        db.execute("CREATE TABLE \"tâble\" (\"cølumn\" TEXT)").unwrap();
        db.execute("INSERT INTO \"tâble\" VALUES ('héllo ''wörld'' — 日本')").unwrap();
        let r = db.execute("SELECT \"cølumn\", 'é' FROM \"tâble\"").unwrap();
        assert_eq!(r.columns[0], "cølumn");
        assert_eq!(
            r.rows,
            [vec![SqlValue::Text("héllo 'wörld' — 日本".into()), SqlValue::Text("é".into())]]
        );
    }

    #[test]
    fn malformed_hex_blobs_are_parse_errors() {
        for sql in [
            "SELECT x'aé0'",
            "SELECT x'é'",
            "SELECT x'0g'",
            "SELECT x'+1'",
            "SELECT x' 1'",
            "SELECT x'abc'",
            "SELECT x'ab",
            "SELECT X'日本'",
        ] {
            assert!(matches!(parse(sql), Err(DbError::Parse(_))), "{sql}");
        }
        assert_eq!(parse("SELECT x'aB0f'").unwrap().1, [SqlValue::Blob(vec![0xab, 0x0f])]);
        assert_eq!(parse("SELECT X''").unwrap().1, [SqlValue::Blob(vec![])]);
    }
}
