//! The virtual file system seam (SQLite's VFS, §V-C).
//!
//! The engine performs *all* persistent I/O through [`VfsFile`], so the
//! benchmark harness can swap the storage stack per variant: plain host
//! memory (native), WASI-routed (Wasm variants), protected-FS-encrypted
//! (Twine), or a disk-image layer (SGX-LKL baseline).

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use crate::{DbError, DbResult};

/// An open random-access file.
///
/// `Send` so a [`crate::Connection`] (and thus a whole tenant database)
/// can be used by successive caller threads and move out on close.
pub trait VfsFile: Send {
    /// Read exactly `buf.len()` bytes at `offset`; short reads are zero-
    /// filled (SQLite's convention for reads past EOF).
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> DbResult<()>;
    /// Write all of `data` at `offset`, extending as needed.
    fn write_at(&mut self, offset: u64, data: &[u8]) -> DbResult<()>;
    /// Truncate to `size` bytes.
    fn truncate(&mut self, size: u64) -> DbResult<()>;
    /// Durably persist.
    fn sync(&mut self) -> DbResult<()>;
    /// Current size.
    fn size(&mut self) -> DbResult<u64>;
}

/// A file-system namespace (`Send`, like [`VfsFile`]).
pub trait Vfs: Send {
    /// Open (creating if needed) a file.
    fn open(&mut self, name: &str) -> DbResult<Box<dyn VfsFile>>;
    /// Delete a file (journal removal at commit).
    fn delete(&mut self, name: &str) -> DbResult<()>;
    /// Does the file exist? (Hot-journal detection at open.)
    fn exists(&mut self, name: &str) -> bool;
}

/// Shared handle to one file's bytes (every open handle views the same buffer).
pub type FileBytes = Arc<Mutex<Vec<u8>>>;
/// The shared namespace: path → file bytes.
pub type FileMap = Arc<Mutex<HashMap<String, FileBytes>>>;

/// Plain in-memory VFS (the "native" storage of the benchmarks).
#[derive(Default, Clone)]
pub struct MemVfs {
    files: FileMap,
}

impl MemVfs {
    /// Fresh empty namespace.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Total bytes across files (footprint metric).
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.files
            .lock()
            .unwrap()
            .values()
            .map(|f| f.lock().unwrap().len() as u64)
            .sum()
    }
}

struct MemVfsFile {
    data: FileBytes,
}

impl VfsFile for MemVfsFile {
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> DbResult<()> {
        let data = self.data.lock().unwrap();
        let off = offset as usize;
        buf.fill(0);
        if off < data.len() {
            let n = buf.len().min(data.len() - off);
            buf[..n].copy_from_slice(&data[off..off + n]);
        }
        Ok(())
    }

    fn write_at(&mut self, offset: u64, src: &[u8]) -> DbResult<()> {
        let mut data = self.data.lock().unwrap();
        let end = offset as usize + src.len();
        if data.len() < end {
            data.resize(end, 0);
        }
        data[offset as usize..end].copy_from_slice(src);
        Ok(())
    }

    fn truncate(&mut self, size: u64) -> DbResult<()> {
        self.data.lock().unwrap().truncate(size as usize);
        Ok(())
    }

    fn sync(&mut self) -> DbResult<()> {
        Ok(())
    }

    fn size(&mut self) -> DbResult<u64> {
        Ok(self.data.lock().unwrap().len() as u64)
    }
}

impl Vfs for MemVfs {
    fn open(&mut self, name: &str) -> DbResult<Box<dyn VfsFile>> {
        let data = self
            .files
            .lock()
            .unwrap()
            .entry(name.to_string())
            .or_default()
            .clone();
        Ok(Box::new(MemVfsFile { data }))
    }

    fn delete(&mut self, name: &str) -> DbResult<()> {
        self.files
            .lock()
            .unwrap()
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| DbError::Storage(format!("delete: no such file {name}")))
    }

    fn exists(&mut self, name: &str) -> bool {
        self.files.lock().unwrap().contains_key(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_past_eof_zero_fills() {
        let mut vfs = MemVfs::new();
        let mut f = vfs.open("x").unwrap();
        f.write_at(0, b"abc").unwrap();
        let mut buf = [0xFFu8; 6];
        f.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"abc\0\0\0");
        let mut buf = [0xFFu8; 4];
        f.read_at(100, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 4]);
    }

    #[test]
    fn sparse_write_extends() {
        let mut vfs = MemVfs::new();
        let mut f = vfs.open("x").unwrap();
        f.write_at(10, b"z").unwrap();
        assert_eq!(f.size().unwrap(), 11);
        let mut buf = [0xFFu8; 2];
        f.read_at(0, &mut buf).unwrap();
        assert_eq!(buf, [0, 0]);
    }

    #[test]
    fn delete_and_exists() {
        let mut vfs = MemVfs::new();
        assert!(!vfs.exists("j"));
        vfs.open("j").unwrap();
        assert!(vfs.exists("j"));
        vfs.delete("j").unwrap();
        assert!(!vfs.exists("j"));
        assert!(vfs.delete("j").is_err());
    }

    #[test]
    fn handles_share_contents() {
        let mut vfs = MemVfs::new();
        let mut a = vfs.open("x").unwrap();
        let mut b = vfs.open("x").unwrap();
        a.write_at(0, b"shared").unwrap();
        let mut buf = [0u8; 6];
        b.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"shared");
    }
}
