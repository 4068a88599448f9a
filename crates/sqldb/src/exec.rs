//! Statement execution: access-path planning, scans, joins, aggregation,
//! and DML with index maintenance.

use std::collections::HashMap;

use crate::btree::{self, Cursor};
use crate::expr::{bound_param, eval, is_aggregate, ColumnResolver, NoRows};
use crate::pager::Pager;
use crate::record::{
    decode_record, encode_index_key, encode_record, index_key_prefix, index_key_rowid,
};
use crate::schema::{self, Column, Index, Schema, Table};
use crate::sql::{Affinity, BinaryOp, ColumnDef, Expr, SelectCol, SelectStmt, Stmt};
use crate::value::{Row, SqlValue};
use crate::{DbError, DbResult};

/// Result of a statement.
#[derive(Debug, Default)]
pub struct ExecResult {
    /// Column labels (SELECT only).
    pub columns: Vec<String>,
    /// Result rows (SELECT only).
    pub rows: Vec<Row>,
    /// Rows affected (DML).
    pub affected: u64,
}

/// Execute one parsed statement with `params` bound to its
/// [`Expr::Param`] slots. Transaction control (`Begin`/`Commit`/
/// `Rollback`) is handled by the connection, not here.
pub fn execute(
    pager: &mut Pager,
    schema: &mut Schema,
    stmt: &Stmt,
    params: &[SqlValue],
) -> DbResult<ExecResult> {
    match stmt {
        Stmt::CreateTable {
            name,
            columns,
            if_not_exists,
        } => create_table(pager, schema, name, columns, *if_not_exists),
        Stmt::CreateIndex {
            name,
            table,
            columns,
            unique,
        } => create_index(pager, schema, name, table, columns, *unique),
        Stmt::DropTable { name } => drop_table(pager, schema, name),
        Stmt::DropIndex { name } => drop_index(pager, schema, name),
        Stmt::Insert {
            table,
            columns,
            rows,
        } => insert(pager, schema, table, columns.as_deref(), rows, params),
        Stmt::Select(sel) => select(pager, schema, sel, params),
        Stmt::Update {
            table,
            sets,
            where_,
        } => update(pager, schema, table, sets, where_.as_ref(), params),
        Stmt::Delete { table, where_ } => delete(pager, schema, table, where_.as_ref(), params),
        Stmt::Analyze => analyze(pager, schema),
        Stmt::Pragma { .. } => Ok(ExecResult::default()),
        Stmt::Begin | Stmt::Commit | Stmt::Rollback => {
            Err(DbError::Unsupported("transaction control handled by connection".into()))
        }
    }
}

// ---------------------------------------------------------------------
// DDL
// ---------------------------------------------------------------------

fn create_table(
    pager: &mut Pager,
    schema: &mut Schema,
    name: &str,
    columns: &[ColumnDef],
    if_not_exists: bool,
) -> DbResult<ExecResult> {
    let lower = name.to_ascii_lowercase();
    if schema.tables.contains_key(&lower) {
        if if_not_exists {
            return Ok(ExecResult::default());
        }
        return Err(DbError::Schema(format!("table {name} already exists")));
    }
    let root = btree::create_table_tree(pager)?;
    let rowid_alias = columns
        .iter()
        .position(|c| c.primary_key && c.affinity == Affinity::Integer);
    let table = Table {
        name: lower.clone(),
        root,
        columns: columns
            .iter()
            .map(|c| Column {
                name: c.name.to_ascii_lowercase(),
                affinity: c.affinity,
            })
            .collect(),
        rowid_alias,
    };
    schema::persist_table(pager, &table, columns)?;
    schema.tables.insert(lower, table);
    Ok(ExecResult::default())
}

fn create_index(
    pager: &mut Pager,
    schema: &mut Schema,
    name: &str,
    table: &str,
    columns: &[String],
    unique: bool,
) -> DbResult<ExecResult> {
    let lower = name.to_ascii_lowercase();
    if schema.indexes.contains_key(&lower) {
        return Err(DbError::Schema(format!("index {name} already exists")));
    }
    let t = schema.table(table)?.clone();
    let col_ids: Vec<usize> = columns
        .iter()
        .map(|c| {
            t.column_index(c)
                .ok_or_else(|| DbError::Schema(format!("no such column: {c}")))
        })
        .collect::<DbResult<_>>()?;
    let root = btree::create_index_tree(pager)?;
    let index = Index {
        name: lower.clone(),
        table: t.name.clone(),
        columns: col_ids,
        unique,
        root,
    };
    // Populate from existing rows.
    let all = Plan::RowidRange { lo: None, hi: None };
    plan_rows(pager, &t, &all, &mut |pager, rowid, vals| add_index_entry(pager, &index, rowid, &vals, true))?;
    schema::persist_index(pager, &index)?;
    schema.indexes.insert(lower, index);
    Ok(ExecResult::default())
}

fn drop_table(pager: &mut Pager, schema: &mut Schema, name: &str) -> DbResult<ExecResult> {
    let t = schema.table(name)?.clone();
    // Drop dependent indexes first.
    let dependent: Vec<String> = schema
        .indexes_of(&t.name)
        .into_iter()
        .map(|i| i.name.clone())
        .collect();
    for idx in dependent {
        drop_index(pager, schema, &idx)?;
    }
    btree::free_tree(pager, t.root)?;
    schema::unpersist(pager, &t.name)?;
    schema.tables.remove(&t.name);
    Ok(ExecResult::default())
}

fn drop_index(pager: &mut Pager, schema: &mut Schema, name: &str) -> DbResult<ExecResult> {
    let lower = name.to_ascii_lowercase();
    let idx = schema
        .indexes
        .get(&lower)
        .ok_or_else(|| DbError::Schema(format!("no such index: {name}")))?
        .clone();
    btree::free_tree(pager, idx.root)?;
    schema::unpersist(pager, &lower)?;
    schema.indexes.remove(&lower);
    Ok(ExecResult::default())
}

// ---------------------------------------------------------------------
// Row materialisation & bindings
// ---------------------------------------------------------------------

/// Substitute the rowid for the INTEGER PRIMARY KEY alias column and pad
/// short records (columns added by older writers default to NULL).
fn materialize(table: &Table, rowid: i64, mut vals: Vec<SqlValue>) -> Vec<SqlValue> {
    vals.resize(table.columns.len(), SqlValue::Null);
    if let Some(i) = table.rowid_alias {
        vals[i] = SqlValue::Int(rowid);
    }
    vals
}

struct Binding<'t> {
    alias: String,
    table: &'t Table,
    /// The join's ON condition (none for the first FROM table, nor for
    /// the one table an UPDATE or DELETE binds).
    on: Option<&'t Expr>,
}

/// A table row: its rowid and its materialised values.
type BoundRow = (i64, Vec<SqlValue>);

/// Evaluation context: one bound row per FROM table, and the statement's
/// parameters.
struct RowCtx<'a> {
    bindings: &'a [Binding<'a>],
    params: &'a [SqlValue],
    /// One row per binding; None while unbound.
    rows: Vec<Option<BoundRow>>,
    /// Aggregate outputs (aggregation phase only), addressed as `#agg.N`.
    agg_values: Vec<SqlValue>,
}

impl<'a> RowCtx<'a> {
    /// A context with no row bound.
    fn new(bindings: &'a [Binding<'a>], params: &'a [SqlValue]) -> Self {
        Self {
            bindings,
            params,
            rows: vec![None; bindings.len()],
            agg_values: Vec::new(),
        }
    }
}

impl ColumnResolver for RowCtx<'_> {
    fn column(&self, table: Option<&str>, name: &str) -> DbResult<SqlValue> {
        if table == Some("#agg") {
            let i: usize = name
                .parse()
                .map_err(|_| DbError::Schema("bad agg ref".into()))?;
            return Ok(self.agg_values[i].clone());
        }
        for (b, row) in self.bindings.iter().zip(self.rows.iter()) {
            if let Some(t) = table {
                if !t.eq_ignore_ascii_case(&b.alias) && !t.eq_ignore_ascii_case(&b.table.name) {
                    continue;
                }
            }
            let Some((rowid, vals)) = row else { continue };
            if name.eq_ignore_ascii_case("rowid") {
                return Ok(SqlValue::Int(*rowid));
            }
            if let Some(i) = b.table.column_index(name) {
                return Ok(vals[i].clone());
            }
            if table.is_some() {
                return Err(DbError::Schema(format!("no such column: {name}")));
            }
        }
        Err(DbError::Schema(format!("no such column: {name}")))
    }

    fn param(&self, slot: usize) -> DbResult<SqlValue> {
        bound_param(self.params, slot)
    }
}

// ---------------------------------------------------------------------
// Access-path planning
// ---------------------------------------------------------------------

enum Plan {
    /// No row can match (a rowid bound past the `i64` range, or a rowid
    /// equal to a value no integer equals).
    Nothing,
    RowidEq(i64),
    /// Rowids in `lo..=hi`; with neither bound, a full scan.
    RowidRange {
        lo: Option<i64>,
        hi: Option<i64>,
    },
    IndexEq {
        index: Index,
        value: SqlValue,
    },
    IndexRange {
        index: Index,
        lo: Option<SqlValue>,
        hi: Option<SqlValue>,
    },
}

/// Split a WHERE tree into AND-ed conjuncts.
fn conjuncts(e: &Expr) -> Vec<&Expr> {
    match e {
        Expr::Binary(BinaryOp::And, a, b) => {
            let mut v = conjuncts(a);
            v.extend(conjuncts(b));
            v
        }
        other => vec![other],
    }
}

/// Is `e` a reference to `col` of the table bound as `alias`?
fn is_col_ref(e: &Expr, alias: &str, table: &Table, col_name: &str) -> bool {
    match e {
        Expr::Column { table: t, name } => {
            let t_ok = match t {
                None => true,
                Some(t) => t.eq_ignore_ascii_case(alias) || t.eq_ignore_ascii_case(&table.name),
            };
            t_ok && name.eq_ignore_ascii_case(col_name)
        }
        _ => false,
    }
}

/// Is `e` the rowid of the table bound as `alias`: `rowid` or the
/// table's INTEGER PRIMARY KEY column?
fn is_rowid_ref(e: &Expr, alias: &str, table: &Table) -> bool {
    is_col_ref(e, alias, table, "rowid")
        || table
            .rowid_alias
            .is_some_and(|i| is_col_ref(e, alias, table, &table.columns[i].name))
}

/// Evaluate an expression that must not reference the target table (it may
/// reference already-bound outer tables via `ctx`).
fn eval_outer(e: &Expr, ctx: &RowCtx<'_>) -> Option<SqlValue> {
    eval(e, ctx).ok()
}

/// Choose an access path for `binding` given the applicable conjuncts.
fn plan_table(
    binding: &Binding<'_>,
    schema: &Schema,
    where_conjuncts: &[&Expr],
    ctx: &RowCtx<'_>,
) -> Plan {
    let table = binding.table;
    let is_rowid = |e: &Expr| is_rowid_ref(e, &binding.alias, table);
    // 1. rowid equality, on a key that equals exactly one `i64`: an
    // integer, or a real that is a whole number below 2^53 in magnitude.
    // A larger real equals every rowid that rounds to it (both
    // `i64::MAX` and `i64::MAX - 1` equal 2^63), so it narrows nothing.
    // A real with a fraction equals no rowid, and neither does a value of
    // any other class (text sorts above every number, and NULL equals
    // nothing).
    const EXACT: f64 = (1u64 << 53) as f64;
    for c in where_conjuncts {
        if let Expr::Binary(BinaryOp::Eq, a, b) = c {
            for (l, r) in [(a, b), (b, a)] {
                if is_rowid(l) {
                    match eval_outer(r, ctx) {
                        Some(SqlValue::Int(v)) => return Plan::RowidEq(v),
                        Some(SqlValue::Real(v)) if v.abs() >= EXACT => {}
                        Some(SqlValue::Real(v)) if v.fract() == 0.0 => {
                            return Plan::RowidEq(v as i64)
                        }
                        Some(_) => return Plan::Nothing,
                        None => {}
                    }
                }
            }
        }
    }
    // 2. rowid range (BETWEEN or inequalities). Only an integer narrows
    // it: `as_i64` would truncate a real toward zero, and text sorts above
    // every integer, so either could leave out rows that the WHERE
    // re-check keeps.
    let int = |e: &Expr| match eval_outer(e, ctx) {
        Some(SqlValue::Int(v)) => Some(v),
        _ => None,
    };
    // (bound, is it a lower bound); `None` is past the `i64` range, which
    // `< i64::MIN` and `> i64::MAX` are, so no rowid matches.
    let mut bounds: Vec<(Option<i64>, bool)> = Vec::new();
    for c in where_conjuncts {
        match c {
            Expr::Between {
                expr,
                lo,
                hi,
                negated: false,
            } if is_rowid(expr) => {
                bounds.extend(int(lo).map(|v| (Some(v), true)));
                bounds.extend(int(hi).map(|v| (Some(v), false)));
            }
            Expr::Binary(op @ (BinaryOp::Lt | BinaryOp::Le | BinaryOp::Gt | BinaryOp::Ge), a, b)
                if is_rowid(a) =>
            {
                bounds.extend(int(b).map(|v| match op {
                    BinaryOp::Lt => (v.checked_sub(1), false),
                    BinaryOp::Le => (Some(v), false),
                    BinaryOp::Gt => (v.checked_add(1), true),
                    _ => (Some(v), true),
                }));
            }
            _ => {}
        }
    }
    if !bounds.is_empty() {
        let mut lo: Option<i64> = None;
        let mut hi: Option<i64> = None;
        for (bound, is_lo) in bounds {
            match (bound, is_lo) {
                (None, _) => return Plan::Nothing,
                (Some(v), true) => lo = Some(lo.map_or(v, |x| x.max(v))),
                (Some(v), false) => hi = Some(hi.map_or(v, |x| x.min(v))),
            }
        }
        return Plan::RowidRange { lo, hi };
    }
    // 3. index equality / range on the first indexed column.
    for index in schema.indexes_of(&table.name) {
        let Some(&first_col) = index.columns.first() else {
            continue;
        };
        let col_name = &table.columns[first_col].name;
        for c in where_conjuncts {
            if let Expr::Binary(BinaryOp::Eq, a, b) = c {
                for (l, r) in [(a, b), (b, a)] {
                    if is_col_ref(l, &binding.alias, table, col_name) {
                        if let Some(v) = eval_outer(r, ctx) {
                            if !matches!(v, SqlValue::Real(_)) {
                                return Plan::IndexEq {
                                    index: index.clone(),
                                    value: v,
                                };
                            }
                        }
                    }
                }
            }
            if let Expr::Between {
                expr,
                lo,
                hi,
                negated: false,
            } = c
            {
                if is_col_ref(expr, &binding.alias, table, col_name) {
                    if let (Some(lv), Some(hv)) = (eval_outer(lo, ctx), eval_outer(hi, ctx)) {
                        if !matches!(lv, SqlValue::Real(_)) && !matches!(hv, SqlValue::Real(_)) {
                            return Plan::IndexRange {
                                index: index.clone(),
                                lo: Some(lv),
                                hi: Some(hv),
                            };
                        }
                    }
                }
            }
        }
    }
    Plan::RowidRange { lo: None, hi: None }
}

/// Where a row source hands each row: `(pager, rowid, materialised values)`.
type RowSink<'s> = dyn FnMut(&mut Pager, i64, Vec<SqlValue>) -> DbResult<()> + 's;

/// Hand each row `plan` selects from `table` to `each`, once and in the
/// plan's order; WHERE is the caller's. A rowid range reads each row from
/// the cursor it walks, a rowid equality is one point lookup, and an index
/// plan looks each rowid up as its index cursor yields it. `each` may read
/// pages and insert into other trees, but must free none: a cursor is open
/// while it runs.
fn plan_rows(
    pager: &mut Pager,
    table: &Table,
    plan: &Plan,
    each: &mut RowSink<'_>,
) -> DbResult<()> {
    match plan {
        Plan::Nothing => Ok(()),
        Plan::RowidEq(rowid) => point_row(pager, table, *rowid, each),
        Plan::RowidRange { lo, hi } => {
            let mut c = Cursor::seek_rowid(pager, table.root, lo.unwrap_or(i64::MIN))?;
            while c.valid() {
                let (rowid, rec) = c.table_entry(pager)?;
                if hi.is_some_and(|h| rowid > h) {
                    break;
                }
                each(pager, rowid, materialize(table, rowid, decode_record(&rec)?))?;
                c.next(pager)?;
            }
            Ok(())
        }
        Plan::IndexEq { index, value } => {
            let first = first_value_key(value);
            index_rows(pager, table, index, &first, |key| !key.starts_with(&first), each)
        }
        Plan::IndexRange { index, lo, hi } => {
            let start = lo.as_ref().map_or_else(Vec::new, first_value_key);
            let end = hi.as_ref().map(first_value_key);
            // Past the end once the key's first value sorts above `hi`.
            let past_end = |key: &[u8]| {
                end.as_ref()
                    .is_some_and(|e| key > e.as_slice() && !key.starts_with(e))
            };
            index_rows(pager, table, index, &start, past_end, each)
        }
    }
}

/// `v` encoded as an index key's first value. Each value's encoding ends
/// itself, so a key starts with it exactly when its first value is `v`,
/// whatever columns and rowid follow.
fn first_value_key(v: &SqlValue) -> Vec<u8> {
    let mut key = encode_index_key(std::slice::from_ref(v), 0);
    key.truncate(index_key_prefix(&key).len());
    key
}

/// Hand row `rowid` of `table` to `each`, if the table holds it.
fn point_row(
    pager: &mut Pager,
    table: &Table,
    rowid: i64,
    each: &mut RowSink<'_>,
) -> DbResult<()> {
    match btree::table_get(pager, table.root, rowid)? {
        Some(rec) => each(pager, rowid, materialize(table, rowid, decode_record(&rec)?)),
        None => Ok(()),
    }
}

/// Hand the rows `index` names from `start` on, up to the first key
/// `past_end` refuses, to `each`.
fn index_rows(
    pager: &mut Pager,
    table: &Table,
    index: &Index,
    start: &[u8],
    past_end: impl Fn(&[u8]) -> bool,
    each: &mut RowSink<'_>,
) -> DbResult<()> {
    let mut c = Cursor::seek_key(pager, index.root, start)?;
    while c.valid() {
        let key = c.index_entry()?;
        if past_end(key) {
            break;
        }
        point_row(pager, table, index_key_rowid(key)?, each)?;
        c.next(pager)?;
    }
    Ok(())
}

// ---------------------------------------------------------------------
// INSERT
// ---------------------------------------------------------------------

fn coerce(affinity: Affinity, v: SqlValue) -> SqlValue {
    match (affinity, v) {
        (Affinity::Integer, SqlValue::Real(f)) if f.fract() == 0.0 && f.abs() < 9e18 => {
            SqlValue::Int(f as i64)
        }
        (Affinity::Integer | Affinity::Real, SqlValue::Text(t)) => {
            if let Ok(i) = t.trim().parse::<i64>() {
                if affinity == Affinity::Integer {
                    SqlValue::Int(i)
                } else {
                    SqlValue::Real(i as f64)
                }
            } else if let Ok(f) = t.trim().parse::<f64>() {
                SqlValue::Real(f)
            } else {
                SqlValue::Text(t)
            }
        }
        (Affinity::Real, SqlValue::Int(i)) => SqlValue::Real(i as f64),
        (Affinity::Text, SqlValue::Int(i)) => SqlValue::Text(i.to_string()),
        (Affinity::Text, SqlValue::Real(f)) => SqlValue::Text(format!("{f}")),
        (_, v) => v,
    }
}

fn check_unique(
    pager: &mut Pager,
    index: &Index,
    key_vals: &[SqlValue],
    exclude_rowid: Option<i64>,
) -> DbResult<()> {
    // NULLs never collide (SQL semantics).
    if key_vals.iter().any(|v| matches!(v, SqlValue::Null)) {
        return Ok(());
    }
    let start = encode_index_key(key_vals, i64::MIN);
    let prefix = index_key_prefix(&start).to_vec();
    let c = Cursor::seek_key(pager, index.root, &start)?;
    if c.valid() {
        let key = c.index_entry()?;
        if index_key_prefix(key) == prefix.as_slice() {
            let existing = index_key_rowid(key)?;
            if Some(existing) != exclude_rowid {
                return Err(DbError::Constraint(format!(
                    "UNIQUE constraint failed: {}",
                    index.name
                )));
            }
        }
    }
    Ok(())
}

/// The values `index` keys a row with.
fn index_key_vals(index: &Index, vals: &[SqlValue]) -> Vec<SqlValue> {
    index.columns.iter().map(|&i| vals[i].clone()).collect()
}

fn add_index_entry(
    pager: &mut Pager,
    index: &Index,
    rowid: i64,
    vals: &[SqlValue],
    check_uniques: bool,
) -> DbResult<()> {
    let key_vals = index_key_vals(index, vals);
    if check_uniques && index.unique {
        check_unique(pager, index, &key_vals, None)?;
    }
    btree::index_insert(pager, index.root, encode_index_key(&key_vals, rowid))?;
    Ok(())
}

fn add_index_entries(
    pager: &mut Pager,
    schema: &Schema,
    table: &Table,
    rowid: i64,
    vals: &[SqlValue],
    check_uniques: bool,
) -> DbResult<()> {
    for index in schema.indexes_of(&table.name) {
        add_index_entry(pager, index, rowid, vals, check_uniques)?;
    }
    Ok(())
}

fn remove_index_entries(
    pager: &mut Pager,
    schema: &Schema,
    table: &Table,
    rowid: i64,
    vals: &[SqlValue],
) -> DbResult<()> {
    for index in schema.indexes_of(&table.name) {
        btree::index_delete(pager, index.root, &encode_index_key(&index_key_vals(index, vals), rowid))?;
    }
    Ok(())
}

/// The next automatic rowid of `table`, or an error once it holds
/// `i64::MAX` (`next` is `None`).
fn take_rowid(table: &Table, next: &mut Option<i64>) -> DbResult<i64> {
    let rowid = next.ok_or_else(|| {
        DbError::Constraint(format!("rowid overflow: {} holds rowid {}", table.name, i64::MAX))
    })?;
    *next = rowid.checked_add(1);
    Ok(rowid)
}

fn insert(
    pager: &mut Pager,
    schema: &Schema,
    table: &str,
    columns: Option<&[String]>,
    rows: &[Vec<Expr>],
    params: &[SqlValue],
) -> DbResult<ExecResult> {
    let t = schema.table(table)?;
    let col_map: Vec<usize> = match columns {
        Some(cols) => cols
            .iter()
            .map(|c| {
                t.column_index(c)
                    .ok_or_else(|| DbError::Schema(format!("no such column: {c}")))
            })
            .collect::<DbResult<_>>()?,
        None => (0..t.columns.len()).collect(),
    };
    let mut affected = 0u64;
    // `None` once a row holds `i64::MAX`: no rowid is left to assign.
    let mut next_rowid = btree::table_max_rowid(pager, t.root)?
        .unwrap_or(0)
        .checked_add(1);
    for row in rows {
        if row.len() != col_map.len() {
            return Err(DbError::Schema(format!(
                "expected {} values, got {}",
                col_map.len(),
                row.len()
            )));
        }
        let mut vals = vec![SqlValue::Null; t.columns.len()];
        for (expr, &col) in row.iter().zip(col_map.iter()) {
            let v = eval(expr, &NoRows(params))?;
            vals[col] = coerce(t.columns[col].affinity, v);
        }
        // Resolve the rowid.
        let rowid = match t.rowid_alias {
            Some(i) => match &vals[i] {
                SqlValue::Null => take_rowid(t, &mut next_rowid)?,
                SqlValue::Int(v) => {
                    let v = *v;
                    if btree::table_get(pager, t.root, v)?.is_some() {
                        return Err(DbError::Constraint(format!(
                            "UNIQUE constraint failed: {}.{}",
                            t.name, t.columns[i].name
                        )));
                    }
                    next_rowid = next_rowid.zip(v.checked_add(1)).map(|(n, w)| n.max(w));
                    v
                }
                other => {
                    return Err(DbError::Schema(format!(
                        "INTEGER PRIMARY KEY must be an integer, got {other:?}"
                    )))
                }
            },
            None => take_rowid(t, &mut next_rowid)?,
        };
        // Store NULL in the alias slot (reconstructed on read).
        let mut stored = vals.clone();
        if let Some(i) = t.rowid_alias {
            stored[i] = SqlValue::Null;
        }
        let materialized = materialize(t, rowid, stored.clone());
        add_index_entries(pager, schema, t, rowid, &materialized, true)?;
        btree::table_insert(pager, t.root, rowid, &encode_record(&stored))?;
        affected += 1;
    }
    Ok(ExecResult {
        affected,
        ..Default::default()
    })
}

// ---------------------------------------------------------------------
// SELECT
// ---------------------------------------------------------------------

/// Aggregate kinds.
#[derive(Debug, Clone)]
struct AggSpec {
    name: String,
    arg: Option<Expr>,
    star: bool,
}

#[derive(Debug, Clone, Default)]
struct AggState {
    count: i64,
    sum_i: i64,
    sum_f: f64,
    all_int: bool,
    min: Option<SqlValue>,
    max: Option<SqlValue>,
    seen: bool,
}

impl AggState {
    fn new() -> Self {
        Self {
            all_int: true,
            ..Default::default()
        }
    }

    fn update(&mut self, v: &SqlValue) {
        if matches!(v, SqlValue::Null) {
            return;
        }
        self.seen = true;
        self.count += 1;
        match v {
            SqlValue::Int(i) => {
                self.sum_i = self.sum_i.wrapping_add(*i);
                self.sum_f += *i as f64;
            }
            SqlValue::Real(f) => {
                self.all_int = false;
                self.sum_f += f;
            }
            _ => {}
        }
        if self.min.as_ref().is_none_or(|m| v.total_cmp(m) == std::cmp::Ordering::Less) {
            self.min = Some(v.clone());
        }
        if self.max.as_ref().is_none_or(|m| v.total_cmp(m) == std::cmp::Ordering::Greater) {
            self.max = Some(v.clone());
        }
    }

    fn result(&self, spec: &AggSpec) -> SqlValue {
        match spec.name.as_str() {
            "count" => SqlValue::Int(self.count),
            "sum" => {
                if !self.seen {
                    SqlValue::Null
                } else if self.all_int {
                    SqlValue::Int(self.sum_i)
                } else {
                    SqlValue::Real(self.sum_f)
                }
            }
            "total" => SqlValue::Real(self.sum_f),
            "avg" => {
                if self.count == 0 {
                    SqlValue::Null
                } else {
                    SqlValue::Real(self.sum_f / self.count as f64)
                }
            }
            "min" => self.min.clone().unwrap_or(SqlValue::Null),
            "max" => self.max.clone().unwrap_or(SqlValue::Null),
            _ => SqlValue::Null,
        }
    }
}

/// Replace aggregate calls with `#agg.N` references, collecting specs.
fn rewrite_aggs(e: &Expr, specs: &mut Vec<AggSpec>) -> Expr {
    match e {
        Expr::Func { name, args, star }
            if is_aggregate(name) && (*star || args.len() <= 1) && !(matches!(name.as_str(), "min" | "max") && args.len() >= 2) =>
        {
            specs.push(AggSpec {
                name: name.clone(),
                arg: args.first().cloned(),
                star: *star,
            });
            Expr::Column {
                table: Some("#agg".into()),
                name: (specs.len() - 1).to_string(),
            }
        }
        Expr::Binary(op, a, b) => Expr::Binary(
            *op,
            Box::new(rewrite_aggs(a, specs)),
            Box::new(rewrite_aggs(b, specs)),
        ),
        Expr::Neg(a) => Expr::Neg(Box::new(rewrite_aggs(a, specs))),
        Expr::Not(a) => Expr::Not(Box::new(rewrite_aggs(a, specs))),
        Expr::Func { name, args, star } => Expr::Func {
            name: name.clone(),
            args: args.iter().map(|a| rewrite_aggs(a, specs)).collect(),
            star: *star,
        },
        Expr::Case { arms, otherwise } => Expr::Case {
            arms: arms
                .iter()
                .map(|(c, v)| (rewrite_aggs(c, specs), rewrite_aggs(v, specs)))
                .collect(),
            otherwise: otherwise
                .as_ref()
                .map(|o| Box::new(rewrite_aggs(o, specs))),
        },
        other => other.clone(),
    }
}

/// Expand `*` and rewrite aggregates; returns (labels, exprs, agg specs).
fn projection(
    sel: &SelectStmt,
    bindings: &[Binding<'_>],
) -> DbResult<(Vec<String>, Vec<Expr>, Vec<AggSpec>)> {
    let mut labels = Vec::new();
    let mut exprs = Vec::new();
    let mut specs = Vec::new();
    for col in &sel.columns {
        match col {
            SelectCol::Star => {
                for b in bindings {
                    for c in &b.table.columns {
                        labels.push(c.name.clone());
                        exprs.push(Expr::Column {
                            table: Some(b.alias.clone()),
                            name: c.name.clone(),
                        });
                    }
                }
            }
            SelectCol::Expr(e, alias) => {
                labels.push(alias.clone().unwrap_or_else(|| expr_label(e)));
                exprs.push(rewrite_aggs(e, &mut specs));
            }
        }
    }
    Ok((labels, exprs, specs))
}

fn expr_label(e: &Expr) -> String {
    match e {
        Expr::Column { name, .. } => name.clone(),
        Expr::Func { name, .. } => format!("{name}()"),
        _ => "expr".to_string(),
    }
}

/// Enumerate joined rows: bind each level's table to the rows its plan
/// selects ([`plan_rows`]), apply its ON as soon as it is bound, and hand
/// each complete binding that passes WHERE to `cb`, which may take the
/// bound rows out of `ctx`.
fn join_rows(
    pager: &mut Pager,
    schema: &Schema,
    where_: Option<&Expr>,
    level: usize,
    ctx: &mut RowCtx<'_>,
    cb: &mut dyn FnMut(&mut Pager, &mut RowCtx<'_>) -> DbResult<()>,
) -> DbResult<()> {
    let bindings = ctx.bindings;
    let Some(binding) = bindings.get(level) else {
        // All bound: apply WHERE.
        if let Some(w) = where_ {
            if !eval(w, ctx)?.is_truthy() {
                return Ok(());
            }
        }
        return cb(pager, ctx);
    };
    // Conditions available at this level: the table's ON plus WHERE
    // conjuncts (used for planning only; full filters re-checked later).
    let planning: Vec<&Expr> = binding.on.into_iter().chain(where_).flat_map(conjuncts).collect();
    let plan = plan_table(binding, schema, &planning, ctx);
    plan_rows(pager, binding.table, &plan, &mut |pager, rowid, vals| {
        ctx.rows[level] = Some((rowid, vals));
        if binding.on.map_or(Ok(true), |on| eval(on, ctx).map(|v| v.is_truthy()))? {
            join_rows(pager, schema, where_, level + 1, ctx, &mut *cb)?;
        }
        ctx.rows[level] = None;
        Ok(())
    })
}

/// One output row: its ORDER BY keys, and its projected values.
type OutRow = (Vec<SqlValue>, Row);

fn project(exprs: &[Expr], order_exprs: &[Expr], ctx: &RowCtx<'_>) -> DbResult<OutRow> {
    let eval_all = |es: &[Expr]| es.iter().map(|e| eval(e, ctx)).collect::<DbResult<Vec<_>>>();
    let row = eval_all(exprs)?;
    Ok((eval_all(order_exprs)?, row))
}

fn select(
    pager: &mut Pager,
    schema: &Schema,
    sel: &SelectStmt,
    params: &[SqlValue],
) -> DbResult<ExecResult> {
    // Bindings.
    let bindings: Vec<Binding> = sel
        .from
        .iter()
        .map(|f| {
            Ok(Binding {
                alias: f
                    .alias
                    .clone()
                    .unwrap_or_else(|| f.name.to_ascii_lowercase()),
                table: schema.table(&f.name)?,
                on: f.on.as_ref(),
            })
        })
        .collect::<DbResult<_>>()?;
    let (labels, exprs, mut specs) = projection(sel, &bindings)?;
    // Rewrite aggregates in ORDER BY too (e.g. ORDER BY count(*)).
    let order_exprs: Vec<Expr> = sel
        .order_by
        .iter()
        .map(|(e, _)| rewrite_aggs(e, &mut specs))
        .collect();
    let grouped = !sel.group_by.is_empty() || !specs.is_empty();

    // Without aggregation each joined row is projected as it comes; with
    // it, rows are grouped and accumulated, and each group is projected
    // from its first row and its aggregates. With no FROM the one empty
    // binding is one row.
    let mut out: Vec<OutRow> = Vec::new();
    let mut groups: Vec<(Vec<AggState>, Vec<Option<BoundRow>>)> = Vec::new();
    let mut group_of: HashMap<Vec<u8>, usize> = HashMap::new();
    let mut ctx = RowCtx::new(&bindings, params);
    join_rows(pager, schema, sel.where_.as_ref(), 0, &mut ctx, &mut |_, ctx| {
        if !grouped {
            out.push(project(&exprs, &order_exprs, ctx)?);
            return Ok(());
        }
        let key_vals: Vec<SqlValue> = sel.group_by.iter().map(|e| eval(e, ctx)).collect::<DbResult<_>>()?;
        let g = *group_of.entry(encode_record(&key_vals)).or_insert_with(|| {
            groups.push((vec![AggState::new(); specs.len()], ctx.rows.clone()));
            groups.len() - 1
        });
        for (spec, state) in specs.iter().zip(groups[g].0.iter_mut()) {
            match spec.arg.as_ref().filter(|_| !spec.star) {
                Some(arg) => state.update(&eval(arg, ctx)?),
                None => {
                    state.count += 1;
                    state.seen = true;
                }
            }
        }
        Ok(())
    })?;
    // Aggregate with no GROUP BY over an empty input: one empty group.
    if grouped && groups.is_empty() && sel.group_by.is_empty() {
        groups.push((vec![AggState::new(); specs.len()], vec![None; bindings.len()]));
    }
    for (states, rows) in groups {
        let agg_values = specs.iter().zip(&states).map(|(spec, st)| st.result(spec)).collect();
        let ctx = RowCtx {
            bindings: &bindings,
            params,
            rows,
            agg_values,
        };
        out.push(project(&exprs, &order_exprs, &ctx)?);
    }

    // DISTINCT.
    if sel.distinct {
        let mut seen = std::collections::HashSet::new();
        out.retain(|(_, row)| seen.insert(encode_record(row)));
    }
    // ORDER BY.
    if !sel.order_by.is_empty() {
        let desc: Vec<bool> = sel.order_by.iter().map(|(_, d)| *d).collect();
        out.sort_by(|a, b| {
            for (i, d) in desc.iter().enumerate() {
                let ord = a.0[i].total_cmp(&b.0[i]);
                let ord = if *d { ord.reverse() } else { ord };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
    }
    // LIMIT / OFFSET.
    let offset = match &sel.offset {
        Some(e) => eval(e, &NoRows(params))?.as_i64().unwrap_or(0).max(0) as usize,
        None => 0,
    };
    let limit = match &sel.limit {
        Some(e) => eval(e, &NoRows(params))?.as_i64().unwrap_or(i64::MAX).max(0) as usize,
        None => usize::MAX,
    };
    let rows: Vec<Row> = out
        .into_iter()
        .skip(offset)
        .take(limit)
        .map(|(_, r)| r)
        .collect();
    Ok(ExecResult {
        columns: labels,
        rows,
        affected: 0,
    })
}

// ---------------------------------------------------------------------
// UPDATE / DELETE / ANALYZE
// ---------------------------------------------------------------------

/// The one table an UPDATE or DELETE changes, bound under its own name.
fn dml_binding(table: &Table) -> Binding<'_> {
    Binding {
        alias: table.name.clone(),
        table,
        on: None,
    }
}

/// The rows of `binding`'s table that `where_` keeps, picked as a SELECT
/// picks them ([`join_rows`]) and all read before the statement changes
/// anything: no cursor is open when a change frees a page. The statement
/// holds every matched row's values until it is done.
fn target_rows(
    pager: &mut Pager,
    schema: &Schema,
    binding: &Binding<'_>,
    where_: Option<&Expr>,
    params: &[SqlValue],
) -> DbResult<Vec<BoundRow>> {
    let mut out = Vec::new();
    let mut ctx = RowCtx::new(std::slice::from_ref(binding), params);
    join_rows(pager, schema, where_, 0, &mut ctx, &mut |_, ctx| {
        out.extend(ctx.rows[0].take());
        Ok(())
    })?;
    Ok(out)
}

fn update(
    pager: &mut Pager,
    schema: &Schema,
    table: &str,
    sets: &[(String, Expr)],
    where_: Option<&Expr>,
    params: &[SqlValue],
) -> DbResult<ExecResult> {
    let t = schema.table(table)?;
    let set_cols: Vec<(usize, &Expr)> = sets
        .iter()
        .map(|(c, e)| {
            let i = t
                .column_index(c)
                .ok_or_else(|| DbError::Schema(format!("no such column: {c}")))?;
            if t.rowid_alias == Some(i) {
                return Err(DbError::Unsupported(
                    "updating the INTEGER PRIMARY KEY is not supported".into(),
                ));
            }
            Ok((i, e))
        })
        .collect::<DbResult<_>>()?;
    let binding = dml_binding(t);
    let targets = target_rows(pager, schema, &binding, where_, params)?;
    let affected = targets.len() as u64;
    for (rowid, old_vals) in targets {
        let mut ctx = RowCtx::new(std::slice::from_ref(&binding), params);
        ctx.rows[0] = Some((rowid, old_vals.clone()));
        let mut new_vals = old_vals.clone();
        for (i, e) in &set_cols {
            new_vals[*i] = coerce(t.columns[*i].affinity, eval(e, &ctx)?);
        }
        remove_index_entries(pager, schema, t, rowid, &old_vals)?;
        // Unique re-checks exclude our own (removed) entries.
        for index in schema.indexes_of(&t.name) {
            if index.unique {
                check_unique(pager, index, &index_key_vals(index, &new_vals), Some(rowid))?;
            }
        }
        add_index_entries(pager, schema, t, rowid, &new_vals, false)?;
        let mut stored = new_vals;
        if let Some(i) = t.rowid_alias {
            stored[i] = SqlValue::Null;
        }
        btree::table_insert(pager, t.root, rowid, &encode_record(&stored))?;
    }
    Ok(ExecResult {
        affected,
        ..Default::default()
    })
}

fn delete(
    pager: &mut Pager,
    schema: &Schema,
    table: &str,
    where_: Option<&Expr>,
    params: &[SqlValue],
) -> DbResult<ExecResult> {
    let t = schema.table(table)?;
    let targets = target_rows(pager, schema, &dml_binding(t), where_, params)?;
    let affected = targets.len() as u64;
    for (rowid, vals) in targets {
        remove_index_entries(pager, schema, t, rowid, &vals)?;
        btree::table_delete(pager, t.root, rowid)?;
    }
    Ok(ExecResult {
        affected,
        ..Default::default()
    })
}

/// ANALYZE: gather row counts per table into `twine_stats` (the
/// `sqlite_stat1` analogue, Speedtest1 test 990).
fn analyze(pager: &mut Pager, schema: &mut Schema) -> DbResult<ExecResult> {
    if schema.table("twine_stats").is_err() {
        create_table(
            pager,
            schema,
            "twine_stats",
            &[
                ColumnDef {
                    name: "tbl".into(),
                    affinity: Affinity::Text,
                    primary_key: false,
                },
                ColumnDef {
                    name: "nrow".into(),
                    affinity: Affinity::Integer,
                    primary_key: false,
                },
            ],
            false,
        )?;
    }
    delete(pager, schema, "twine_stats", None, &[])?;
    let tables: Vec<Table> = schema
        .tables
        .values()
        .filter(|t| t.name != "twine_stats")
        .cloned()
        .collect();
    let stats_root = schema.table("twine_stats")?.root;
    for (rowid, t) in (1i64..).zip(tables) {
        let mut n = 0i64;
        let mut c = Cursor::first(pager, t.root)?;
        while c.valid() {
            n += 1;
            c.next(pager)?;
        }
        let rec = encode_record(&[SqlValue::Text(t.name.clone()), SqlValue::Int(n)]);
        btree::table_insert(pager, stats_root, rowid, &rec)?;
    }
    Ok(ExecResult::default())
}
