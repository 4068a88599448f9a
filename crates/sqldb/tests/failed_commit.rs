//! A commit that fails is rolled back: the statement errors, the
//! pre-transaction rows read back, the storage holds them too, and the next
//! statement runs instead of finding the pager still inside the
//! half-committed transaction.
//!
//! Failures are injected by a VFS over [`MemVfs`] that fails the `n`-th
//! `sync` after it is armed. A write transaction's commit syncs twice: the
//! journal at the commit point (`n = 1`, the database file still
//! untouched), then the database file after its pages are written
//! (`n = 2`, so the rollback must put the pre-images back).

use std::sync::{Arc, Mutex};

use twine_sqldb::{Connection, DbError, DbResult, MemVfs, SqlValue, Vfs, VfsFile};

/// Syncs left until the injected failure; `None` when disarmed.
type Countdown = Arc<Mutex<Option<u32>>>;

/// A [`MemVfs`] whose files fail one `sync`, the `n`-th after [`arm`].
///
/// [`arm`]: FailNthSync::arm
#[derive(Clone, Default)]
struct FailNthSync {
    inner: MemVfs,
    countdown: Countdown,
}

impl FailNthSync {
    fn arm(&self, n: u32) {
        *self.countdown.lock().unwrap() = Some(n);
    }
}

impl Vfs for FailNthSync {
    fn open(&mut self, name: &str) -> DbResult<Box<dyn VfsFile>> {
        Ok(Box::new(FailNthSyncFile {
            inner: self.inner.open(name)?,
            countdown: self.countdown.clone(),
        }))
    }

    fn delete(&mut self, name: &str) -> DbResult<()> {
        self.inner.delete(name)
    }

    fn exists(&mut self, name: &str) -> bool {
        self.inner.exists(name)
    }
}

struct FailNthSyncFile {
    inner: Box<dyn VfsFile>,
    countdown: Countdown,
}

impl VfsFile for FailNthSyncFile {
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> DbResult<()> {
        self.inner.read_at(offset, buf)
    }

    fn write_at(&mut self, offset: u64, data: &[u8]) -> DbResult<()> {
        self.inner.write_at(offset, data)
    }

    fn truncate(&mut self, size: u64) -> DbResult<()> {
        self.inner.truncate(size)
    }

    fn sync(&mut self) -> DbResult<()> {
        let mut left = self.countdown.lock().unwrap();
        match *left {
            Some(1) => {
                *left = None;
                return Err(DbError::Storage("injected sync failure".into()));
            }
            Some(n) => *left = Some(n - 1),
            None => {}
        }
        drop(left);
        self.inner.sync()
    }

    fn size(&mut self) -> DbResult<u64> {
        self.inner.size()
    }
}

const DB: &str = "/data/t.db";

/// A database holding `t(a, pad)` with rows 1..=5 of about a kilobyte each
/// and a unique index, so the failed transactions below journal several
/// pages besides the header.
fn populated() -> (FailNthSync, Connection) {
    let vfs = FailNthSync::default();
    let mut db = Connection::open(Box::new(vfs.clone()), DB).unwrap();
    db.execute("CREATE TABLE t(a INTEGER PRIMARY KEY, pad TEXT)").unwrap();
    db.execute("CREATE UNIQUE INDEX t_pad ON t(pad)").unwrap();
    for a in 1..=5 {
        db.execute(&format!("INSERT INTO t VALUES ({a}, '{}')", pad(a))).unwrap();
    }
    (vfs, db)
}

fn pad(a: i64) -> String {
    format!("{a:04}{}", "p".repeat(1000))
}

/// `count(*)`, `min(a)`, `max(a)` of `t`.
fn shape(db: &mut Connection) -> Vec<SqlValue> {
    db.query("SELECT count(*), min(a), max(a) FROM t").unwrap().remove(0)
}

fn ints(v: &[i64]) -> Vec<SqlValue> {
    v.iter().map(|&x| SqlValue::Int(x)).collect()
}

/// The storage holds what the connection reads: reopen from the same files.
fn reopened_shape(vfs: &FailNthSync) -> Vec<SqlValue> {
    let mut db = Connection::open(Box::new(vfs.clone()), DB).unwrap();
    shape(&mut db)
}

#[test]
fn failed_autocommit_rolls_back() {
    for n in [1, 2] {
        let (vfs, mut db) = populated();
        vfs.arm(n);
        let err = db
            .execute("INSERT INTO t VALUES (6, 'six'), (7, 'seven')")
            .expect_err("the commit's sync fails");
        assert!(matches!(err, DbError::Storage(_)), "sync {n}: {err:?}");
        assert_eq!(shape(&mut db), ints(&[5, 1, 5]), "sync {n}: pre-transaction rows");

        // A failed DDL commit takes its in-memory schema change back too.
        vfs.arm(n);
        assert!(db.execute("CREATE TABLE u(x INTEGER)").is_err());
        assert!(db.query("SELECT x FROM u").is_err(), "sync {n}: table u must not exist");

        // The connection is not stuck inside the failed transaction.
        db.execute("INSERT INTO t VALUES (6, 'six')").expect("next statement runs");
        db.execute("CREATE TABLE u(x INTEGER)").expect("DDL runs");
        assert_eq!(shape(&mut db), ints(&[6, 1, 6]));
        db.close().unwrap();
        assert_eq!(reopened_shape(&vfs), ints(&[6, 1, 6]), "sync {n}: storage agrees");
    }
}

#[test]
fn failed_commit_statement_rolls_back() {
    for n in [1, 2] {
        let (vfs, mut db) = populated();
        db.execute("BEGIN").unwrap();
        db.execute("UPDATE t SET pad = 'changed' WHERE a = 3").unwrap();
        db.execute("INSERT INTO t VALUES (6, 'six')").unwrap();
        db.execute("DELETE FROM t WHERE a = 1").unwrap();
        vfs.arm(n);
        assert!(db.execute("COMMIT").is_err(), "sync {n}: COMMIT must fail");
        assert_eq!(shape(&mut db), ints(&[5, 1, 5]), "sync {n}: pre-transaction rows");
        let row = db.query("SELECT pad FROM t WHERE a = 3").unwrap();
        assert_eq!(row, vec![vec![SqlValue::Text(pad(3))]]);

        // The transaction is over: a new one begins and commits.
        db.execute("BEGIN").expect("next BEGIN runs");
        db.execute("DELETE FROM t WHERE a = 5").unwrap();
        db.execute("COMMIT").unwrap();
        assert_eq!(shape(&mut db), ints(&[4, 1, 4]));
        db.close().unwrap();
        assert_eq!(reopened_shape(&vfs), ints(&[4, 1, 4]), "sync {n}: storage agrees");
    }
}

#[test]
fn failed_flush_rolls_back() {
    for n in [1, 2] {
        let (vfs, mut db) = populated();
        db.execute("BEGIN").unwrap();
        db.execute("DELETE FROM t WHERE a <= 2").unwrap();
        vfs.arm(n);
        assert!(db.flush().is_err(), "sync {n}: the settling commit must fail");
        assert_eq!(shape(&mut db), ints(&[5, 1, 5]), "sync {n}: pre-transaction rows");
        assert_eq!(reopened_shape(&vfs), ints(&[5, 1, 5]), "sync {n}: storage agrees");
        db.execute("DELETE FROM t WHERE a = 1").expect("next statement runs");
        db.flush().unwrap();
        assert_eq!(reopened_shape(&vfs), ints(&[4, 2, 5]));
    }
}
