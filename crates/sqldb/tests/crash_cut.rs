//! A transaction larger than the cache, cut at every write.
//!
//! One transaction runs through a 16-page cache: it updates rows, deletes
//! rows (freeing the leaves they emptied), drops a table and re-creates
//! it with more rows than before (reusing the freed pages, then growing
//! the file). A VFS over [`MemVfs`] applies the first `k` mutating calls
//! (`write_at`, `truncate`, `sync`, `delete`) and fails every later one,
//! which is where a crash at that point leaves the storage. For every `k`
//! the connection is dropped and the files are reopened by a fresh one:
//! hot-journal recovery must show the whole database as it was before
//! the transaction or as it is after it, and a write transaction must
//! then commit.

use std::sync::{Arc, Mutex};

use twine_sqldb::{Connection, DbError, DbResult, MemVfs, SqlValue, Vfs, VfsFile};

const DB: &str = "cut.db";

/// Mutating calls the VFS still applies; every later one fails.
type Budget = Arc<Mutex<u64>>;

/// A [`MemVfs`] that applies the first `budget` mutating calls.
struct CutVfs {
    inner: MemVfs,
    budget: Budget,
}

/// Spend one mutating call, or fail once the budget is gone.
fn spend(budget: &Budget) -> DbResult<()> {
    let mut left = budget.lock().unwrap();
    if *left == 0 {
        return Err(DbError::Storage("cut".into()));
    }
    *left -= 1;
    Ok(())
}

impl Vfs for CutVfs {
    fn open(&mut self, name: &str) -> DbResult<Box<dyn VfsFile>> {
        Ok(Box::new(CutFile {
            inner: self.inner.open(name)?,
            budget: self.budget.clone(),
        }))
    }

    fn delete(&mut self, name: &str) -> DbResult<()> {
        spend(&self.budget)?;
        self.inner.delete(name)
    }

    fn exists(&mut self, name: &str) -> bool {
        self.inner.exists(name)
    }
}

struct CutFile {
    inner: Box<dyn VfsFile>,
    budget: Budget,
}

impl VfsFile for CutFile {
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> DbResult<()> {
        self.inner.read_at(offset, buf)
    }

    fn write_at(&mut self, offset: u64, data: &[u8]) -> DbResult<()> {
        spend(&self.budget)?;
        self.inner.write_at(offset, data)
    }

    fn truncate(&mut self, size: u64) -> DbResult<()> {
        spend(&self.budget)?;
        self.inner.truncate(size)
    }

    fn sync(&mut self) -> DbResult<()> {
        spend(&self.budget)?;
        self.inner.sync()
    }

    fn size(&mut self) -> DbResult<u64> {
        self.inner.size()
    }
}

/// `t(a, b)`: 60 rows of about 700 bytes, five to a leaf; `big(a, b)`: 12
/// rows of 3 KiB, each spilling an overflow page.
fn populated() -> MemVfs {
    let vfs = MemVfs::new();
    let mut db = Connection::open(Box::new(vfs.clone()), DB).unwrap();
    db.execute("CREATE TABLE t(a INTEGER PRIMARY KEY, b TEXT)").unwrap();
    db.execute("CREATE TABLE big(a INTEGER PRIMARY KEY, b BLOB)").unwrap();
    db.execute("BEGIN").unwrap();
    for a in 1..=60 {
        db.execute(&format!("INSERT INTO t VALUES ({a}, '{}')", format!("{a:07}").repeat(100)))
            .unwrap();
    }
    for a in 1..=12 {
        db.execute(&format!("INSERT INTO big VALUES ({a}, zeroblob(3072))")).unwrap();
    }
    db.execute("COMMIT").unwrap();
    db.close().unwrap();
    vfs
}

/// The transaction every cut interrupts. The re-created `big` takes 30
/// rows of 3 KiB: more pages than the dropped table and the emptied leaves
/// of `t` freed.
fn script() -> Vec<String> {
    let rows: Vec<String> = (1..=30).map(|a| format!("({a}, zeroblob(3072))")).collect();
    [
        "BEGIN",
        "UPDATE t SET b = 'short' WHERE a % 3 = 0",
        "DELETE FROM t WHERE a > 20 AND a <= 50",
        "DROP TABLE big",
        "CREATE TABLE big(a INTEGER PRIMARY KEY, b BLOB)",
        &format!("INSERT INTO big VALUES {}", rows.join(", ")),
        "UPDATE t SET b = 'again' WHERE a <= 5",
        "COMMIT",
    ]
    .map(String::from)
    .to_vec()
}

/// Run [`script`] on a copy of `base` that applies `budget` mutating calls;
/// returns the files as the run left them and whether it committed.
fn run_cut(base: &MemVfs, budget: u64) -> (MemVfs, bool) {
    let files = copy(base);
    let vfs = CutVfs {
        inner: files.clone(),
        budget: Arc::new(Mutex::new(budget)),
    };
    let Ok(mut db) = Connection::open(Box::new(vfs), DB) else {
        return (files, false);
    };
    db.set_cache_pages(16);
    let committed = script().iter().all(|sql| db.execute(sql).is_ok());
    // A crash: whatever the run left in the files stays there.
    drop(db);
    (files, committed)
}

/// A fresh copy of the database file (no journal is left beside it).
fn copy(base: &MemVfs) -> MemVfs {
    let mut src = base.clone().open(DB).unwrap();
    let mut bytes = vec![0u8; src.size().unwrap() as usize];
    src.read_at(0, &mut bytes).unwrap();
    let copy = MemVfs::new();
    copy.clone().open(DB).unwrap().write_at(0, &bytes).unwrap();
    copy
}

/// Every table's rows, in key order; a missing table reads as `None`.
fn dump(db: &mut Connection) -> Vec<Option<Vec<Vec<SqlValue>>>> {
    ["t", "big"].iter().map(|t| db.query(&format!("SELECT a, b FROM {t} ORDER BY a")).ok()).collect()
}

#[test]
fn every_cut_recovers_to_the_old_or_new_database() {
    let base = populated();
    let pre = dump(&mut Connection::open(Box::new(copy(&base)), DB).unwrap());
    let (done, committed) = run_cut(&base, u64::MAX);
    assert!(committed, "the uncut transaction commits");
    let mut db = Connection::open(Box::new(done), DB).unwrap();
    let post = dump(&mut db);
    assert_ne!(pre, post);
    let grown = db.page_count() > Connection::open(Box::new(copy(&base)), DB).unwrap().page_count();
    assert!(grown, "the transaction grows the file past the pages it freed");

    let (mut saw_pre, mut saw_post) = (false, false);
    for budget in 0.. {
        let (files, committed) = run_cut(&base, budget);
        let mut db = Connection::open(Box::new(files), DB)
            .unwrap_or_else(|e| panic!("cut at {budget}: reopen failed: {e}"));
        let now = dump(&mut db);
        if now == pre {
            saw_pre = true;
        } else if now == post {
            saw_post = true;
        } else {
            panic!("cut at {budget}: the database is neither before nor after the transaction");
        }
        db.set_cache_pages(16);
        db.execute("BEGIN").unwrap();
        db.execute("INSERT INTO t VALUES (1000, 'after')").unwrap();
        db.execute("DELETE FROM t WHERE a = 1").unwrap();
        db.execute("COMMIT")
            .unwrap_or_else(|e| panic!("cut at {budget}: the next transaction failed: {e}"));
        let n = db.query_scalar("SELECT count(*) FROM t WHERE a = 1000").unwrap();
        assert_eq!(n, SqlValue::Int(1), "cut at {budget}");
        if committed {
            break;
        }
    }
    assert!(saw_pre && saw_post);
}
