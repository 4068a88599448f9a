//! # twine-sqldb
//!
//! An embeddable SQL database engine — the reproduction's stand-in for
//! SQLite v3.32.3, which the paper compiles to Wasm and runs inside Twine as
//! its flagship workload (§V-C/D). Architecturally faithful where the
//! evaluation depends on it:
//!
//! * **VFS abstraction** ([`vfs`]) — exactly like SQLite's VFS, this is the
//!   seam the paper exploits (`test_demovfs` → WASI): the engine performs
//!   all file I/O through a small trait that `twine-baselines` implements
//!   over the protected file system, the host FS, or WASI.
//! * **Pager** ([`pager`]) — 4 KiB pages, a 2048-page clock cache (8 MiB,
//!   the paper's configured SQLite cache), and a delete-mode rollback
//!   journal (the paper's default journal mode), for in-memory databases
//!   too: [`Connection::open_memory`] is the pager over a [`MemVfs`].
//! * **B+trees** ([`btree`]) — table trees keyed by rowid with overflow
//!   chains for large payloads (the 1 KiB blobs of §V-D), plus index trees.
//! * **Record format** ([`record`]) — SQLite-style serial-type encoding.
//! * **SQL front-end** ([`sql`], [`expr`], [`exec`]) — tokenizer, parser,
//!   planner (index selection) and executor covering the statement shapes
//!   of the Speedtest1 suite: CREATE TABLE/INDEX, INSERT, SELECT with
//!   WHERE/JOIN/GROUP BY/ORDER BY/DISTINCT/LIMIT, UPDATE, DELETE,
//!   transactions, and ANALYZE (test 990).
//! * **Speedtest1 clone** ([`speedtest`]) — the workload generator used by
//!   the Figure 4/5 harnesses.
//!
//! ```
//! use twine_sqldb::{Connection, SqlValue};
//!
//! let mut db = Connection::open_memory();
//! db.execute("CREATE TABLE kv(k INTEGER PRIMARY KEY, v TEXT)").unwrap();
//! db.execute("INSERT INTO kv VALUES (1,'hello'), (2,'world')").unwrap();
//! let rows = db.query("SELECT v FROM kv WHERE k = 2").unwrap();
//! assert_eq!(rows[0][0], SqlValue::Text("world".into()));
//! ```
//!
//! **Dependency graph**: depends only on `twine-wasi` (for the
//! [`backend_vfs`] adapter that lets a database live inside a session's
//! file-system backend) and `rand`. Consumed by `twine-core`,
//! `twine-baselines` and `twine-bench`. Paper anchor: §V-C/D.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend_vfs;
pub mod btree;
pub mod db;
pub mod exec;
pub mod expr;
pub mod pager;
pub mod record;
pub mod schema;
pub mod speedtest;
pub mod sql;
pub mod value;
pub mod vfs;

pub use backend_vfs::{BackendVfs, SharedBackend};
pub use db::{Connection, Prepared, StmtCacheStats};
pub use pager::journal_path;
pub use speedtest::SqlExecutor;
pub use value::SqlValue;
pub use vfs::{MemVfs, Vfs, VfsFile};

/// Database errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DbError {
    /// SQL syntax error.
    Parse(String),
    /// Schema violation (unknown table/column, duplicate, type misuse).
    Schema(String),
    /// Constraint violation (unique, primary key).
    Constraint(String),
    /// Storage-level failure (I/O, corruption).
    Storage(String),
    /// Unsupported SQL feature.
    Unsupported(String),
}

impl core::fmt::Display for DbError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DbError::Parse(m) => write!(f, "parse error: {m}"),
            DbError::Schema(m) => write!(f, "schema error: {m}"),
            DbError::Constraint(m) => write!(f, "constraint violation: {m}"),
            DbError::Storage(m) => write!(f, "storage error: {m}"),
            DbError::Unsupported(m) => write!(f, "unsupported: {m}"),
        }
    }
}

impl std::error::Error for DbError {}

/// Shorthand result.
pub type DbResult<T> = Result<T, DbError>;

/// Database page size — 4 KiB, matching both SQLite's default and the SGX
/// EPC page granularity (which is what makes Figure 5's interactions
/// interesting).
pub const PAGE_SIZE: usize = 4096;
