//! VFS-over-backend adapter: routes the pager's I/O through a WASI
//! [`FsBackend`].
//!
//! This is the layering that puts a tenant database *inside* its session:
//! a service session owns a `twine-pfs` backend (every byte sealed before
//! it leaves the enclave), and the database opened through [`BackendVfs`]
//! stores its pages in that same backend. The session's park/evict/restore
//! and durable-park paths then carry the database automatically, because
//! the database *is* backend state. Used on its own, [`BackendVfs`] keeps
//! the rollback journal in the backend too; `twine-core`'s DB sessions
//! route the journal ([`crate::journal_path`]) to enclave memory instead.

use std::sync::{Arc, Mutex};

use twine_wasi::ctx::{FsBackend, WasiFile};
use twine_wasi::errno::Errno;

use crate::vfs::{Vfs, VfsFile};
use crate::{DbError, DbResult};

/// Shared handle to a backend, cloneable so the embedder keeps a handle
/// to the same namespace the database writes into.
pub type SharedBackend = Arc<Mutex<Box<dyn FsBackend>>>;

fn storage_err(op: &str, path: &str, e: Errno) -> DbError {
    DbError::Storage(format!("{op} {path}: {e:?}"))
}

/// A [`Vfs`] serving all file I/O from a WASI [`FsBackend`].
pub struct BackendVfs {
    backend: SharedBackend,
}

impl BackendVfs {
    /// Wrap an owned backend.
    #[must_use]
    pub fn new(backend: Box<dyn FsBackend>) -> Self {
        Self {
            backend: Arc::new(Mutex::new(backend)),
        }
    }

    /// Wrap an already-shared backend.
    #[must_use]
    pub fn from_shared(backend: SharedBackend) -> Self {
        Self { backend }
    }

    /// The shared backend handle (for inspection or reclaiming).
    #[must_use]
    pub fn shared(&self) -> SharedBackend {
        self.backend.clone()
    }
}

impl Vfs for BackendVfs {
    fn open(&mut self, name: &str) -> DbResult<Box<dyn VfsFile>> {
        let inner = self
            .backend
            .lock()
            .unwrap()
            .open(name, true, false)
            .map_err(|e| storage_err("open", name, e))?;
        Ok(Box::new(BackendVfsFile {
            name: name.to_string(),
            inner,
        }))
    }

    fn delete(&mut self, name: &str) -> DbResult<()> {
        self.backend
            .lock()
            .unwrap()
            .unlink(name)
            .map_err(|e| storage_err("unlink", name, e))
    }

    fn exists(&mut self, name: &str) -> bool {
        self.backend.lock().unwrap().exists(name)
    }
}

struct BackendVfsFile {
    name: String,
    inner: Box<dyn WasiFile>,
}

impl VfsFile for BackendVfsFile {
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> DbResult<()> {
        buf.fill(0);
        let size = self.inner.size().map_err(|e| storage_err("size", &self.name, e))?;
        if offset >= size {
            return Ok(());
        }
        self.inner
            .seek(offset)
            .map_err(|e| storage_err("seek", &self.name, e))?;
        let want = buf.len().min((size - offset) as usize);
        let mut done = 0;
        while done < want {
            let n = self
                .inner
                .read(&mut buf[done..want])
                .map_err(|e| storage_err("read", &self.name, e))?;
            if n == 0 {
                break; // remainder stays zero-filled
            }
            done += n;
        }
        Ok(())
    }

    fn write_at(&mut self, offset: u64, data: &[u8]) -> DbResult<()> {
        // Backends reject seeks past EOF; extend first for sparse writes.
        let size = self.inner.size().map_err(|e| storage_err("size", &self.name, e))?;
        if offset > size {
            self.inner
                .set_size(offset)
                .map_err(|e| storage_err("extend", &self.name, e))?;
        }
        self.inner
            .seek(offset)
            .map_err(|e| storage_err("seek", &self.name, e))?;
        let mut done = 0;
        while done < data.len() {
            let n = self
                .inner
                .write(&data[done..])
                .map_err(|e| storage_err("write", &self.name, e))?;
            if n == 0 {
                return Err(DbError::Storage(format!("short write on {}", self.name)));
            }
            done += n;
        }
        Ok(())
    }

    fn truncate(&mut self, size: u64) -> DbResult<()> {
        self.inner
            .set_size(size)
            .map_err(|e| storage_err("truncate", &self.name, e))
    }

    fn sync(&mut self) -> DbResult<()> {
        self.inner
            .sync()
            .map_err(|e| storage_err("sync", &self.name, e))
    }

    fn size(&mut self) -> DbResult<u64> {
        self.inner
            .size()
            .map_err(|e| storage_err("size", &self.name, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Connection;
    use twine_wasi::ctx::MemBackend;

    fn mem_vfs() -> BackendVfs {
        BackendVfs::new(Box::new(MemBackend::default()))
    }

    #[test]
    fn database_over_backend_round_trips() {
        let vfs = mem_vfs();
        let shared = vfs.shared();
        {
            let mut db = Connection::open(Box::new(vfs), "/data/t.db").unwrap();
            db.execute("CREATE TABLE t (a INTEGER, b TEXT)").unwrap();
            db.execute("INSERT INTO t VALUES(1, 'one')").unwrap();
            db.execute("INSERT INTO t VALUES(2, 'two')").unwrap();
            db.close().unwrap();
        }
        // Reopen over the *same* backend: state must persist.
        let vfs2 = BackendVfs::from_shared(shared);
        let mut db = Connection::open(Box::new(vfs2), "/data/t.db").unwrap();
        let rows = db.query("SELECT b FROM t WHERE a = 2").unwrap();
        assert_eq!(rows.len(), 1);
    }

    #[test]
    fn journal_lives_in_backend_too() {
        let vfs = mem_vfs();
        let shared = vfs.shared();
        let mut db = Connection::open(Box::new(vfs), "/data/j.db").unwrap();
        db.execute("CREATE TABLE t (a INTEGER)").unwrap();
        db.execute("BEGIN").unwrap();
        db.execute("INSERT INTO t VALUES(1)").unwrap();
        // Mid-transaction the rollback journal exists in the backend.
        assert!(shared.lock().unwrap().exists("/data/j.db-journal"));
        db.execute("COMMIT").unwrap();
        assert!(!shared.lock().unwrap().exists("/data/j.db-journal"));
    }

    #[test]
    fn sparse_write_and_zero_fill() {
        let mut vfs = mem_vfs();
        let mut f = Vfs::open(&mut vfs, "/data/raw").unwrap();
        f.write_at(100, b"xyz").unwrap();
        assert_eq!(f.size().unwrap(), 103);
        let mut buf = [0xFFu8; 8];
        f.read_at(0, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 8]);
        let mut buf = [0u8; 3];
        f.read_at(100, &mut buf).unwrap();
        assert_eq!(&buf, b"xyz");
        let mut buf = [0xAAu8; 4];
        f.read_at(200, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 4]);
    }
}
