//! The connection: statement dispatch, autocommit, plan caching, and
//! configuration.
//!
//! Plans are cached by the statement's *shape*: its token stream with
//! every literal replaced by a slot. `SELECT b FROM kv WHERE a = 7` and
//! `… WHERE a = 8` share one parsed statement; [`Connection::prepare`]
//! lexes the text, looks its shape up and binds the text's literals to
//! the cached statement's [`Expr::Param`](crate::sql::Expr::Param)
//! slots, so a warm statement skips the parser whatever its literals.

use std::collections::HashMap;
use std::sync::Arc;

use crate::exec::{execute, ExecResult};
use crate::pager::{PageHook, Pager, PagerStats};
use crate::schema::{self, Schema};
use crate::sql::{lex, parse_tokens, Lexed, Stmt};
use crate::value::{Row, SqlValue};
use crate::vfs::{MemVfs, Vfs};
use crate::{DbError, DbResult};

/// Default bound on cached statement shapes per connection.
pub const DEFAULT_PLAN_CACHE: usize = 64;

/// Plan-cache counters (the warm-path replanning gauge).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StmtCacheStats {
    /// Executions served from the plan cache (no parser work).
    pub hits: u64,
    /// Executions whose statement shape was not cached.
    pub misses: u64,
    /// Actual parser invocations — tests pin "zero parser work on warm
    /// statements" on this counter.
    pub parses: u64,
    /// Cached plans dropped by the capacity bound.
    pub evictions: u64,
}

/// A statement ready to execute: the parsed statement, shared with the
/// plan cache, and the literals of the text it was prepared from, bound to
/// its parameter slots.
#[derive(Debug, Clone)]
pub struct Prepared {
    stmt: Arc<Stmt>,
    params: Vec<SqlValue>,
}

/// A database connection (single-threaded, like an SQLite handle).
pub struct Connection {
    pager: Pager,
    schema: Schema,
    explicit_txn: bool,
    /// Plan cache: statement shape → (plan, last-use tick). Plans are
    /// schema-independent ASTs (name binding and access paths are worked
    /// out at execution), so no invalidation is needed on DDL.
    plans: HashMap<Box<[u8]>, (Arc<Stmt>, u64)>,
    plan_tick: u64,
    plan_cache_cap: usize,
    stmt_stats: StmtCacheStats,
}

impl Connection {
    /// Open an in-memory database: a database like any other — the
    /// default page cache, a rollback journal — on a fresh [`MemVfs`].
    #[must_use]
    pub fn open_memory() -> Self {
        Self::open(Box::new(MemVfs::new()), "memory.db")
            .expect("a fresh MemVfs holds no database to refuse")
    }

    /// Open (or create) a file-backed database through a VFS.
    pub fn open(vfs: Box<dyn Vfs>, name: &str) -> DbResult<Self> {
        let mut pager = Pager::open_file(vfs, name)?;
        if pager.page_count() < 2 {
            pager.begin()?;
            schema::init_catalog(&mut pager)?;
            pager.commit()?;
        }
        let schema = schema::load_schema(&mut pager)?;
        Ok(Self {
            pager,
            schema,
            explicit_txn: false,
            plans: HashMap::new(),
            plan_tick: 0,
            plan_cache_cap: DEFAULT_PLAN_CACHE,
            stmt_stats: StmtCacheStats::default(),
        })
    }

    /// Configure the page-cache size in pages (SQLite's `PRAGMA
    /// cache_size`, which tenant SQL may not send here).
    pub fn set_cache_pages(&mut self, pages: usize) {
        self.pager.set_cache_pages(pages);
    }

    /// Install a page-access hook (EPC modelling / I/O tracing).
    pub fn set_page_hook(&mut self, hook: Option<PageHook>) {
        self.pager.set_hook(hook);
    }

    /// Pager I/O statistics.
    #[must_use]
    pub fn stats(&self) -> PagerStats {
        self.pager.stats
    }

    /// Total pages in the database file.
    #[must_use]
    pub fn page_count(&self) -> u32 {
        self.pager.page_count()
    }

    /// The current schema (read-only view).
    #[must_use]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Plan-cache counters.
    #[must_use]
    pub fn stmt_cache_stats(&self) -> StmtCacheStats {
        self.stmt_stats
    }

    /// Number of plans (statement shapes) currently cached.
    #[must_use]
    pub fn cached_plans(&self) -> usize {
        self.plans.len()
    }

    /// Bound the plan cache, in statement shapes (0 disables caching
    /// entirely).
    pub fn set_plan_cache_capacity(&mut self, cap: usize) {
        self.plan_cache_cap = cap;
        while self.plans.len() > cap {
            self.evict_oldest();
        }
    }

    /// Drop the least recently used plan.
    fn evict_oldest(&mut self) {
        if let Some(victim) = self
            .plans
            .iter()
            .min_by_key(|(_, (_, t))| *t)
            .map(|(k, _)| k.clone())
        {
            self.plans.remove(&victim);
            self.stmt_stats.evictions += 1;
        }
    }

    /// Prepare one statement. Its text is lexed; when a statement of the
    /// same shape was parsed before, the cached plan is reused with this
    /// text's literals bound, and the parser does not run.
    ///
    /// The cache compares whole shapes, not hashes of them: a collision
    /// must not hand one statement another's plan. Statements whose
    /// parse reads a literal outside an expression (a `PRAGMA` value, a
    /// `VARCHAR(n)` length) are parsed every time and never cached.
    pub fn prepare(&mut self, sql: &str) -> DbResult<Prepared> {
        let Lexed {
            toks,
            shape,
            params,
        } = lex(sql)?;
        self.plan_tick += 1;
        let tick = self.plan_tick;
        if let Some((stmt, last)) = self.plans.get_mut(shape.as_slice()) {
            *last = tick;
            self.stmt_stats.hits += 1;
            return Ok(Prepared {
                stmt: Arc::clone(stmt),
                params,
            });
        }
        self.stmt_stats.misses += 1;
        self.stmt_stats.parses += 1;
        let (stmt, cacheable) = parse_tokens(toks, &params)?;
        let stmt = Arc::new(stmt);
        if cacheable && self.plan_cache_cap > 0 {
            if self.plans.len() >= self.plan_cache_cap {
                self.evict_oldest();
            }
            self.plans
                .insert(shape.into_boxed_slice(), (Arc::clone(&stmt), tick));
        }
        Ok(Prepared { stmt, params })
    }

    /// Execute one statement, returning the full result.
    pub fn execute(&mut self, sql: &str) -> DbResult<ExecResult> {
        let stmt = self.prepare(sql)?;
        self.execute_stmt(&stmt)
    }

    /// Execute a prepared statement (see [`Connection::prepare`]).
    pub fn execute_stmt(&mut self, prepared: &Prepared) -> DbResult<ExecResult> {
        match &*prepared.stmt {
            Stmt::Begin => {
                if self.explicit_txn {
                    return Err(DbError::Unsupported("nested BEGIN".into()));
                }
                self.pager.begin()?;
                self.explicit_txn = true;
                Ok(ExecResult::default())
            }
            Stmt::Commit => {
                if !self.explicit_txn {
                    return Err(DbError::Unsupported("COMMIT outside transaction".into()));
                }
                self.commit()?;
                Ok(ExecResult::default())
            }
            Stmt::Rollback => {
                if !self.explicit_txn {
                    return Err(DbError::Unsupported("ROLLBACK outside transaction".into()));
                }
                self.roll_back()?;
                Ok(ExecResult::default())
            }
            // The caches are enclave memory, sized by the embedder through
            // `set_cache_pages` and `set_plan_cache_capacity`; the SQL text
            // is the tenant's, so it may not resize them.
            Stmt::Pragma { name, .. }
                if name.eq_ignore_ascii_case("cache_size")
                    || name.eq_ignore_ascii_case("plan_cache_size") =>
            {
                Err(DbError::Unsupported(format!(
                    "PRAGMA {name}: cache sizes are set by the embedding"
                )))
            }
            Stmt::Pragma { .. } => Ok(ExecResult::default()),
            other => self.run_dml(other, &prepared.params),
        }
    }

    fn run_dml(&mut self, stmt: &Stmt, params: &[SqlValue]) -> DbResult<ExecResult> {
        if self.explicit_txn {
            return execute(&mut self.pager, &mut self.schema, stmt, params);
        }
        // Autocommit: wrap the statement in its own transaction.
        self.pager.begin()?;
        match execute(&mut self.pager, &mut self.schema, stmt, params) {
            Ok(r) => {
                self.commit()?;
                Ok(r)
            }
            Err(e) => {
                self.roll_back()?;
                Err(e)
            }
        }
    }

    /// Commit the open transaction. A commit that fails is rolled back
    /// (SQLite does the same on an I/O error) and its error returned: the
    /// connection never stays inside a half-committed transaction, so the
    /// next statement starts from the pre-transaction state.
    fn commit(&mut self) -> DbResult<()> {
        self.explicit_txn = false;
        let committed = self.pager.commit();
        if committed.is_err() {
            self.roll_back()?;
        }
        committed
    }

    /// Roll back the open transaction, in-memory schema changes included.
    fn roll_back(&mut self) -> DbResult<()> {
        self.explicit_txn = false;
        self.pager.rollback()?;
        self.schema = schema::load_schema(&mut self.pager)?;
        Ok(())
    }

    /// Execute and return just the rows.
    pub fn query(&mut self, sql: &str) -> DbResult<Vec<Row>> {
        Ok(self.execute(sql)?.rows)
    }

    /// Execute and return the single scalar result.
    pub fn query_scalar(&mut self, sql: &str) -> DbResult<SqlValue> {
        let rows = self.query(sql)?;
        rows.first()
            .and_then(|r| r.first())
            .cloned()
            .ok_or_else(|| DbError::Schema("query returned no rows".into()))
    }

    /// Flush everything to storage — committing a transaction still open,
    /// or rolling it back if that commit fails — and keep the connection,
    /// with its caches, usable.
    pub fn flush(&mut self) -> DbResult<()> {
        if self.explicit_txn {
            self.commit()?;
        }
        self.pager.flush()
    }

    /// Flush everything to storage (close).
    pub fn close(mut self) -> DbResult<()> {
        self.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warm_execution_skips_parser() {
        let mut db = Connection::open_memory();
        db.execute("CREATE TABLE t (a INTEGER)").unwrap();
        let before = db.stmt_cache_stats().parses;
        db.execute("INSERT INTO t VALUES(1)").unwrap();
        assert_eq!(db.stmt_cache_stats().parses, before + 1);
        db.execute("INSERT INTO t VALUES(1)").unwrap();
        assert_eq!(
            db.stmt_cache_stats().parses,
            before + 1,
            "second execution of identical SQL must do zero parser work"
        );
        assert!(db.stmt_cache_stats().hits >= 1);
    }

    #[test]
    fn plan_cache_is_bounded() {
        let mut db = Connection::open_memory();
        db.set_plan_cache_capacity(4);
        db.execute("CREATE TABLE t (a INTEGER)").unwrap();
        // 40 shapes: each alias is a different name.
        for i in 0..40 {
            db.execute(&format!("SELECT a AS c{i} FROM t")).unwrap();
        }
        assert!(db.cached_plans() <= 4);
        assert!(db.stmt_cache_stats().evictions > 0);
        // 40 texts that differ only in a literal are one shape.
        let before = db.stmt_cache_stats();
        for i in 0..40 {
            db.execute(&format!("INSERT INTO t VALUES({i})")).unwrap();
        }
        let after = db.stmt_cache_stats();
        assert_eq!(after.parses - before.parses, 1);
        assert_eq!(after.hits - before.hits, 39);
        assert_eq!(
            db.query_scalar("SELECT sum(a) FROM t").unwrap(),
            SqlValue::Int((0..40).sum())
        );
    }

    #[test]
    fn uncacheable_statements_parse_every_time() {
        let mut db = Connection::open_memory();
        for _ in 0..3 {
            db.execute("PRAGMA journal_mode = 'delete'").unwrap();
            db.execute("CREATE TABLE IF NOT EXISTS t (a VARCHAR(10))").unwrap();
        }
        let stats = db.stmt_cache_stats();
        assert_eq!((stats.hits, stats.parses), (0, 6));
        assert_eq!(db.cached_plans(), 0);
        // A cached plan takes the literals of the text it is run for.
        db.set_plan_cache_capacity(2);
        for v in ["'x'", "2", "NULL", "x'ff'", "'y'"] {
            db.execute(&format!("INSERT INTO t VALUES ({v})")).unwrap();
        }
        assert_eq!(db.stmt_cache_stats().hits, 3, "NULL is a different shape");
        assert_eq!(
            db.query("SELECT a FROM t").unwrap(),
            [
                vec![SqlValue::Text("x".into())],
                vec![SqlValue::Text("2".into())],
                vec![SqlValue::Null],
                vec![SqlValue::Blob(vec![0xff])],
                vec![SqlValue::Text("y".into())],
            ]
        );
    }

    #[test]
    fn cache_size_pragmas_are_unsupported() {
        let mut db = Connection::open_memory();
        for sql in [
            "PRAGMA cache_size = 9223372036854775807",
            "PRAGMA CACHE_SIZE = 2000",
            "PRAGMA plan_cache_size = 9223372036854775807",
            "PRAGMA plan_cache_size",
        ] {
            assert!(matches!(db.execute(sql), Err(DbError::Unsupported(_))), "{sql}");
        }
        db.execute("PRAGMA journal_mode = delete").unwrap();
    }

    #[test]
    fn prepared_statement_reuse() {
        let mut db = Connection::open_memory();
        db.execute("CREATE TABLE t (a INTEGER)").unwrap();
        let ins = db.prepare("INSERT INTO t VALUES(7)").unwrap();
        for _ in 0..3 {
            db.execute_stmt(&ins).unwrap();
        }
        assert_eq!(
            db.query_scalar("SELECT COUNT(*) FROM t").unwrap(),
            SqlValue::Int(3)
        );
    }
}
