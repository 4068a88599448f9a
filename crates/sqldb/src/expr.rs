//! Expression evaluation with SQL semantics (NULL propagation, numeric
//! affinity, LIKE patterns, scalar functions).

use rand::Rng;

use crate::sql::{BinaryOp, Expr};
use crate::value::SqlValue;
use crate::{DbError, DbResult};

/// Longest blob a statement may ask `zeroblob`/`randomblob` for, in bytes:
/// SQLite's `SQLITE_MAX_LENGTH`. The length comes from statement text, so
/// past it the statement is refused instead of allocating.
const MAX_BLOB_LEN: i64 = 1_000_000_000;

/// The byte length argument of `zeroblob`/`randomblob`: negative (or not a
/// number) is 0, above [`MAX_BLOB_LEN`] is refused.
fn blob_len(n: &SqlValue) -> DbResult<usize> {
    let len = n.as_i64().unwrap_or(0).max(0);
    if len > MAX_BLOB_LEN {
        return Err(DbError::Unsupported(format!(
            "blob of {len} bytes exceeds the {MAX_BLOB_LEN}-byte limit"
        )));
    }
    Ok(len as usize)
}

/// Resolves column references and bound parameters during evaluation.
pub trait ColumnResolver {
    /// Value of a (possibly qualified) column in the current row.
    fn column(&self, table: Option<&str>, name: &str) -> DbResult<SqlValue>;
    /// Value bound to [`Expr::Param`] `slot`.
    fn param(&self, slot: usize) -> DbResult<SqlValue>;
}

/// The value of parameter `slot` in a statement's bound values.
pub(crate) fn bound_param(params: &[SqlValue], slot: usize) -> DbResult<SqlValue> {
    params
        .get(slot)
        .cloned()
        .ok_or_else(|| DbError::Parse(format!("parameter {slot} is not bound")))
}

/// A resolver for contexts without rows (INSERT values, LIMIT): only the
/// statement's bound parameters.
pub struct NoRows<'a>(pub &'a [SqlValue]);

impl ColumnResolver for NoRows<'_> {
    fn column(&self, _table: Option<&str>, name: &str) -> DbResult<SqlValue> {
        Err(DbError::Schema(format!(
            "column {name:?} not allowed in this context"
        )))
    }

    fn param(&self, slot: usize) -> DbResult<SqlValue> {
        bound_param(self.0, slot)
    }
}

/// Evaluate an expression. Aggregate functions must have been rewritten
/// away by the executor before this runs.
pub fn eval(expr: &Expr, row: &dyn ColumnResolver) -> DbResult<SqlValue> {
    Ok(match expr {
        Expr::Null => SqlValue::Null,
        Expr::Param(slot) => row.param(*slot)?,
        Expr::Column { table, name } => row.column(table.as_deref(), name)?,
        Expr::Neg(e) => match eval(e, row)? {
            SqlValue::Null => SqlValue::Null,
            SqlValue::Int(v) => SqlValue::Int(v.wrapping_neg()),
            SqlValue::Real(v) => SqlValue::Real(-v),
            other => SqlValue::Int(-other.as_i64().unwrap_or(0)),
        },
        Expr::Not(e) => match eval(e, row)? {
            SqlValue::Null => SqlValue::Null,
            v => SqlValue::Int(i64::from(!v.is_truthy())),
        },
        Expr::Binary(op, a, b) => eval_binary(*op, a, b, row)?,
        Expr::Like {
            expr,
            pattern,
            negated,
        } => {
            let v = eval(expr, row)?;
            let p = eval(pattern, row)?;
            match (&v, &p) {
                (SqlValue::Null, _) | (_, SqlValue::Null) => SqlValue::Null,
                _ => {
                    let matched = like_match(&p.to_display(), &v.to_display());
                    SqlValue::Int(i64::from(matched != *negated))
                }
            }
        }
        Expr::Between {
            expr,
            lo,
            hi,
            negated,
        } => {
            let v = eval(expr, row)?;
            let lo = eval(lo, row)?;
            let hi = eval(hi, row)?;
            if matches!(v, SqlValue::Null)
                || matches!(lo, SqlValue::Null)
                || matches!(hi, SqlValue::Null)
            {
                SqlValue::Null
            } else {
                let inside = v.total_cmp(&lo) != std::cmp::Ordering::Less
                    && v.total_cmp(&hi) != std::cmp::Ordering::Greater;
                SqlValue::Int(i64::from(inside != *negated))
            }
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let v = eval(expr, row)?;
            if matches!(v, SqlValue::Null) {
                return Ok(SqlValue::Null);
            }
            let mut found = false;
            for item in list {
                let item_v = eval(item, row)?;
                if v.sql_eq(&item_v) {
                    found = true;
                    break;
                }
            }
            SqlValue::Int(i64::from(found != *negated))
        }
        Expr::IsNull { expr, negated } => {
            let v = eval(expr, row)?;
            let is_null = matches!(v, SqlValue::Null);
            SqlValue::Int(i64::from(is_null != *negated))
        }
        Expr::Func { name, args, star } => eval_scalar_fn(name, args, *star, row)?,
        Expr::Case { arms, otherwise } => {
            for (cond, val) in arms {
                if eval(cond, row)?.is_truthy() {
                    return eval(val, row);
                }
            }
            match otherwise {
                Some(e) => eval(e, row)?,
                None => SqlValue::Null,
            }
        }
    })
}

fn eval_binary(op: BinaryOp, a: &Expr, b: &Expr, row: &dyn ColumnResolver) -> DbResult<SqlValue> {
    use BinaryOp::*;
    // Short-circuit three-valued AND/OR.
    if op == And {
        let l = eval(a, row)?;
        if !matches!(l, SqlValue::Null) && !l.is_truthy() {
            return Ok(SqlValue::Int(0));
        }
        let r = eval(b, row)?;
        return Ok(match (matches!(l, SqlValue::Null), r) {
            (_, SqlValue::Null) => SqlValue::Null,
            (true, rv) => {
                if rv.is_truthy() {
                    SqlValue::Null
                } else {
                    SqlValue::Int(0)
                }
            }
            (false, rv) => SqlValue::Int(i64::from(rv.is_truthy())),
        });
    }
    if op == Or {
        let l = eval(a, row)?;
        if !matches!(l, SqlValue::Null) && l.is_truthy() {
            return Ok(SqlValue::Int(1));
        }
        let r = eval(b, row)?;
        return Ok(match (matches!(l, SqlValue::Null), r) {
            (_, SqlValue::Null) => SqlValue::Null,
            (true, rv) => {
                if rv.is_truthy() {
                    SqlValue::Int(1)
                } else {
                    SqlValue::Null
                }
            }
            (false, rv) => SqlValue::Int(i64::from(rv.is_truthy())),
        });
    }

    let l = eval(a, row)?;
    let r = eval(b, row)?;
    if matches!(l, SqlValue::Null) || matches!(r, SqlValue::Null) {
        return Ok(SqlValue::Null);
    }
    Ok(match op {
        Add | Sub | Mul | Div | Rem => arith(op, &l, &r)?,
        Concat => SqlValue::Text(format!("{}{}", l.to_display(), r.to_display())),
        Eq => SqlValue::Int(i64::from(l.sql_eq(&r))),
        Ne => SqlValue::Int(i64::from(!l.sql_eq(&r))),
        Lt => SqlValue::Int(i64::from(l.total_cmp(&r) == std::cmp::Ordering::Less)),
        Le => SqlValue::Int(i64::from(l.total_cmp(&r) != std::cmp::Ordering::Greater)),
        Gt => SqlValue::Int(i64::from(l.total_cmp(&r) == std::cmp::Ordering::Greater)),
        Ge => SqlValue::Int(i64::from(l.total_cmp(&r) != std::cmp::Ordering::Less)),
        And | Or => unreachable!("handled above"),
    })
}

fn arith(op: BinaryOp, l: &SqlValue, r: &SqlValue) -> DbResult<SqlValue> {
    use BinaryOp::*;
    // Integer arithmetic stays integral (like SQLite).
    if let (SqlValue::Int(a), SqlValue::Int(b)) = (l, r) {
        return Ok(match op {
            Add => SqlValue::Int(a.wrapping_add(*b)),
            Sub => SqlValue::Int(a.wrapping_sub(*b)),
            Mul => SqlValue::Int(a.wrapping_mul(*b)),
            Div => {
                if *b == 0 {
                    SqlValue::Null
                } else {
                    SqlValue::Int(a.wrapping_div(*b))
                }
            }
            Rem => {
                if *b == 0 {
                    SqlValue::Null
                } else {
                    SqlValue::Int(a.wrapping_rem(*b))
                }
            }
            _ => unreachable!(),
        });
    }
    let (af, bf) = match (l.as_f64(), r.as_f64()) {
        (Some(a), Some(b)) => (a, b),
        _ => return Ok(SqlValue::Null),
    };
    Ok(match op {
        Add => SqlValue::Real(af + bf),
        Sub => SqlValue::Real(af - bf),
        Mul => SqlValue::Real(af * bf),
        Div => {
            if bf == 0.0 {
                SqlValue::Null
            } else {
                SqlValue::Real(af / bf)
            }
        }
        Rem => {
            if bf == 0.0 {
                SqlValue::Null
            } else {
                SqlValue::Real(af % bf)
            }
        }
        _ => unreachable!(),
    })
}

/// SQL LIKE with `%` and `_` (case-insensitive for ASCII, like SQLite).
#[must_use]
pub fn like_match(pattern: &str, text: &str) -> bool {
    fn inner(p: &[u8], t: &[u8]) -> bool {
        if p.is_empty() {
            return t.is_empty();
        }
        match p[0] {
            b'%' => {
                // Try all suffixes.
                for skip in 0..=t.len() {
                    if inner(&p[1..], &t[skip..]) {
                        return true;
                    }
                }
                false
            }
            b'_' => !t.is_empty() && inner(&p[1..], &t[1..]),
            c => {
                !t.is_empty()
                    && t[0].eq_ignore_ascii_case(&c)
                    && inner(&p[1..], &t[1..])
            }
        }
    }
    inner(pattern.as_bytes(), text.as_bytes())
}

/// Names treated as aggregates by the executor.
#[must_use]
pub fn is_aggregate(name: &str) -> bool {
    matches!(name, "count" | "sum" | "avg" | "min" | "max" | "total")
}

fn eval_scalar_fn(
    name: &str,
    args: &[Expr],
    star: bool,
    row: &dyn ColumnResolver,
) -> DbResult<SqlValue> {
    if is_aggregate(name) && (star || args.len() <= 1) {
        // min/max with ≥2 args is the scalar form; otherwise aggregates
        // must be handled by the executor.
        if !(matches!(name, "min" | "max") && args.len() >= 2) {
            return Err(DbError::Schema(format!(
                "aggregate {name}() used outside aggregation"
            )));
        }
    }
    let vals: Vec<SqlValue> = args
        .iter()
        .map(|a| eval(a, row))
        .collect::<DbResult<Vec<_>>>()?;
    Ok(match (name, vals.as_slice()) {
        ("length", [SqlValue::Null]) => SqlValue::Null,
        ("length", [SqlValue::Text(t)]) => SqlValue::Int(t.chars().count() as i64),
        ("length", [SqlValue::Blob(b)]) => SqlValue::Int(b.len() as i64),
        ("length", [v]) => SqlValue::Int(v.to_display().len() as i64),
        ("abs", [SqlValue::Null]) => SqlValue::Null,
        ("abs", [SqlValue::Int(v)]) => SqlValue::Int(v.wrapping_abs()),
        ("abs", [v]) => SqlValue::Real(v.as_f64().unwrap_or(0.0).abs()),
        ("upper", [v]) => SqlValue::Text(v.to_display().to_uppercase()),
        ("lower", [v]) => SqlValue::Text(v.to_display().to_lowercase()),
        ("typeof", [v]) => SqlValue::Text(
            match v {
                SqlValue::Null => "null",
                SqlValue::Int(_) => "integer",
                SqlValue::Real(_) => "real",
                SqlValue::Text(_) => "text",
                SqlValue::Blob(_) => "blob",
            }
            .into(),
        ),
        ("coalesce", vs) => vs
            .iter()
            .find(|v| !matches!(v, SqlValue::Null))
            .cloned()
            .unwrap_or(SqlValue::Null),
        ("min", vs) if vs.len() >= 2 => vs
            .iter()
            .filter(|v| !matches!(v, SqlValue::Null))
            .min_by(|a, b| a.total_cmp(b))
            .cloned()
            .unwrap_or(SqlValue::Null),
        ("max", vs) if vs.len() >= 2 => vs
            .iter()
            .filter(|v| !matches!(v, SqlValue::Null))
            .max_by(|a, b| a.total_cmp(b))
            .cloned()
            .unwrap_or(SqlValue::Null),
        ("substr", [v, start]) => {
            let s = v.to_display();
            let st = (start.as_i64().unwrap_or(1).max(1) - 1) as usize;
            SqlValue::Text(s.chars().skip(st).collect())
        }
        ("substr", [v, start, len]) => {
            let s = v.to_display();
            let st = (start.as_i64().unwrap_or(1).max(1) - 1) as usize;
            let n = len.as_i64().unwrap_or(0).max(0) as usize;
            SqlValue::Text(s.chars().skip(st).take(n).collect())
        }
        ("random", []) => SqlValue::Int(rand::thread_rng().gen()),
        ("randomblob", [n]) => {
            let mut b = vec![0u8; blob_len(n)?];
            rand::thread_rng().fill(&mut b[..]);
            SqlValue::Blob(b)
        }
        ("zeroblob", [n]) => SqlValue::Blob(vec![0u8; blob_len(n)?]),
        ("hex", [SqlValue::Blob(b)]) => {
            SqlValue::Text(b.iter().map(|x| format!("{x:02X}")).collect())
        }
        ("round", [v]) => SqlValue::Real(v.as_f64().unwrap_or(0.0).round()),
        ("round", [v, d]) => {
            let p = 10f64.powi(d.as_i64().unwrap_or(0) as i32);
            SqlValue::Real((v.as_f64().unwrap_or(0.0) * p).round() / p)
        }
        _ => {
            return Err(DbError::Schema(format!(
                "no such function: {name}/{}",
                vals.len()
            )))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sql::parse;
    use crate::sql::Stmt;

    /// Parse `SELECT {sql_expr}` and evaluate the column.
    fn try_eval(sql_expr: &str) -> DbResult<SqlValue> {
        let (stmt, params) = parse(&format!("SELECT {sql_expr}")).unwrap();
        match stmt {
            Stmt::Select(sel) => match &sel.columns[0] {
                crate::sql::SelectCol::Expr(e, _) => eval(e, &NoRows(&params)),
                crate::sql::SelectCol::Star => panic!("star"),
            },
            _ => panic!("not select"),
        }
    }

    fn eval_const(sql_expr: &str) -> SqlValue {
        try_eval(sql_expr).unwrap()
    }

    #[test]
    fn arithmetic() {
        assert_eq!(eval_const("1 + 2 * 3"), SqlValue::Int(7));
        assert_eq!(eval_const("7 / 2"), SqlValue::Int(3));
        assert_eq!(eval_const("7.0 / 2"), SqlValue::Real(3.5));
        assert_eq!(eval_const("7 % 3"), SqlValue::Int(1));
        assert_eq!(eval_const("1 / 0"), SqlValue::Null);
        assert_eq!(eval_const("-(5)"), SqlValue::Int(-5));
    }

    #[test]
    fn null_propagation() {
        assert_eq!(eval_const("NULL + 1"), SqlValue::Null);
        assert_eq!(eval_const("NULL = NULL"), SqlValue::Null);
        assert_eq!(eval_const("NULL AND 1"), SqlValue::Null);
        assert_eq!(eval_const("NULL AND 0"), SqlValue::Int(0));
        assert_eq!(eval_const("NULL OR 1"), SqlValue::Int(1));
        assert_eq!(eval_const("NULL OR 0"), SqlValue::Null);
        assert_eq!(eval_const("NOT NULL"), SqlValue::Null);
        assert_eq!(eval_const("NULL IS NULL"), SqlValue::Int(1));
        assert_eq!(eval_const("1 IS NOT NULL"), SqlValue::Int(1));
    }

    #[test]
    fn comparisons() {
        assert_eq!(eval_const("1 < 2"), SqlValue::Int(1));
        assert_eq!(eval_const("2 <= 2"), SqlValue::Int(1));
        assert_eq!(eval_const("'abc' = 'abc'"), SqlValue::Int(1));
        assert_eq!(eval_const("'abc' < 'abd'"), SqlValue::Int(1));
        assert_eq!(eval_const("1 = 1.0"), SqlValue::Int(1));
        assert_eq!(eval_const("3 BETWEEN 1 AND 5"), SqlValue::Int(1));
        assert_eq!(eval_const("3 NOT BETWEEN 1 AND 5"), SqlValue::Int(0));
        assert_eq!(eval_const("2 IN (1,2,3)"), SqlValue::Int(1));
        assert_eq!(eval_const("9 NOT IN (1,2,3)"), SqlValue::Int(1));
    }

    #[test]
    fn like_patterns() {
        assert!(like_match("%", ""));
        assert!(like_match("abc", "ABC"));
        assert!(like_match("a%c", "abbbc"));
        assert!(like_match("a_c", "abc"));
        assert!(!like_match("a_c", "abbc"));
        assert!(like_match("%middle%", "in the MIDDLE of it"));
        assert!(!like_match("nope%", "yes"));
        assert_eq!(eval_const("'hello' LIKE 'h%o'"), SqlValue::Int(1));
        assert_eq!(eval_const("'hello' NOT LIKE '%z%'"), SqlValue::Int(1));
    }

    #[test]
    fn scalar_functions() {
        assert_eq!(eval_const("length('abcd')"), SqlValue::Int(4));
        assert_eq!(eval_const("abs(-5)"), SqlValue::Int(5));
        assert_eq!(eval_const("upper('ab')"), SqlValue::Text("AB".into()));
        assert_eq!(eval_const("coalesce(NULL, NULL, 3)"), SqlValue::Int(3));
        assert_eq!(eval_const("min(3, 1, 2)"), SqlValue::Int(1));
        assert_eq!(eval_const("max(3, 1, 2)"), SqlValue::Int(3));
        assert_eq!(eval_const("substr('hello', 2, 3)"), SqlValue::Text("ell".into()));
        assert_eq!(eval_const("typeof(1.5)"), SqlValue::Text("real".into()));
        assert_eq!(eval_const("length(zeroblob(10))"), SqlValue::Int(10));
        assert_eq!(eval_const("round(2.567, 2)"), SqlValue::Real(2.57));
        assert_eq!(eval_const("'a' || 'b' || 'c'"), SqlValue::Text("abc".into()));
    }

    #[test]
    fn case_expression() {
        assert_eq!(
            eval_const("CASE WHEN 1 THEN 'a' ELSE 'b' END"),
            SqlValue::Text("a".into())
        );
        assert_eq!(
            eval_const("CASE WHEN 0 THEN 'a' WHEN 1 THEN 'b' END"),
            SqlValue::Text("b".into())
        );
        assert_eq!(eval_const("CASE WHEN 0 THEN 'a' END"), SqlValue::Null);
    }

    #[test]
    fn aggregates_rejected_without_group() {
        assert!(try_eval("count(*)").is_err());
    }

    #[test]
    fn oversized_blobs_are_refused() {
        for n in ["100000000000", "9223372036854775807"] {
            for f in ["zeroblob", "randomblob"] {
                let call = format!("{f}({n})");
                assert!(matches!(try_eval(&call), Err(DbError::Unsupported(_))), "{call}");
            }
        }
        assert_eq!(eval_const("length(zeroblob(-5))"), SqlValue::Int(0));
    }

    #[test]
    fn randomness() {
        let a = eval_const("random()");
        let b = eval_const("random()");
        assert_ne!(a, b, "overwhelmingly likely distinct");
        match eval_const("randomblob(16)") {
            SqlValue::Blob(b) => assert_eq!(b.len(), 16),
            other => panic!("{other:?}"),
        }
    }
}
