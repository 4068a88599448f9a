//! SQLite-VFS adapters. Twine's trusted path — the database's file I/O
//! routed through the protected file system — is the composition
//! `BackendVfs` over `PfsBackend`, the same adapter the serving plane's
//! database sessions use (so Fig. 4 and the serving plane measure the same
//! code); what lives here is the baseline it is compared against: an
//! SGX-LKL-style encrypted disk image with an in-enclave file cache.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use twine_sgx::Enclave;
use twine_sqldb::vfs::{FileMap, Vfs, VfsFile};
use twine_sqldb::{DbError, DbResult};

// ---------------------------------------------------------------------
// SGX-LKL-style disk image
// ---------------------------------------------------------------------

/// Cycles to encrypt/decrypt one 4 KiB disk-image block (AES-NI, ~1.3
/// cycles/byte at the block layer, dm-crypt style).
const LKL_BLOCK_CRYPTO_CYCLES: u64 = 5_300;

/// The library OS batches block I/O; one enclave exit per this many blocks.
const LKL_BLOCKS_PER_EXIT: u64 = 8;

/// An SGX-LKL-style VFS: files live in an ext4-like image whose blocks are
/// encrypted at the device layer; the guest page cache lives *inside* the
/// enclave (so file reads mostly avoid exits but consume EPC).
pub struct LklVfs {
    enclave: Arc<Enclave>,
    files: FileMap,
    blocks_since_exit: Arc<Mutex<u64>>,
    /// Base page id for EPC accounting of the in-enclave page cache.
    epc_base: u64,
}

impl LklVfs {
    /// New disk-image VFS on `enclave`.
    #[must_use]
    pub fn new(enclave: Arc<Enclave>) -> Self {
        Self {
            enclave,
            files: Arc::new(Mutex::new(HashMap::new())),
            blocks_since_exit: Arc::new(Mutex::new(0)),
            epc_base: 1 << 40,
        }
    }
}

struct LklFile {
    enclave: Arc<Enclave>,
    data: twine_sqldb::vfs::FileBytes,
    blocks_since_exit: Arc<Mutex<u64>>,
    epc_base: u64,
}

impl LklFile {
    fn charge_blocks(&self, offset: u64, len: usize) {
        let first = offset / 4096;
        let last = (offset + len as u64) / 4096;
        let n_blocks = last - first + 1;
        // Device-layer crypto for every block touched.
        self.enclave
            .clock()
            .add_cycles(n_blocks * LKL_BLOCK_CRYPTO_CYCLES);
        // The in-enclave page cache occupies EPC.
        let epc = self.enclave.epc();
        for b in first..=last {
            epc.touch(self.epc_base + b);
        }
        // Batched exits to the host block device.
        let mut counter = self.blocks_since_exit.lock().unwrap();
        *counter += n_blocks;
        if *counter >= LKL_BLOCKS_PER_EXIT {
            *counter = 0;
            drop(counter);
            self.enclave.ocall(4096, || {});
        }
    }
}

impl VfsFile for LklFile {
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> DbResult<()> {
        self.charge_blocks(offset, buf.len());
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
        self.charge_blocks(offset, src.len());
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
        self.enclave.ocall(0, || {});
        Ok(())
    }

    fn size(&mut self) -> DbResult<u64> {
        Ok(self.data.lock().unwrap().len() as u64)
    }
}

impl Vfs for LklVfs {
    fn open(&mut self, name: &str) -> DbResult<Box<dyn VfsFile>> {
        let data = self
            .files
            .lock().unwrap()
            .entry(name.to_string())
            .or_default()
            .clone();
        Ok(Box::new(LklFile {
            enclave: self.enclave.clone(),
            data,
            blocks_since_exit: self.blocks_since_exit.clone(),
            epc_base: self.epc_base,
        }))
    }

    fn delete(&mut self, name: &str) -> DbResult<()> {
        self.files
            .lock().unwrap()
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
    use twine_core::PfsBackend;
    use twine_pfs::PfsMode;
    use twine_sqldb::backend_vfs::BackendVfs;
    use twine_sqldb::Connection;

    /// Twine's pager→PFS path, as `db_variants` and the DB sessions build it.
    fn pfs_vfs(mode: PfsMode) -> BackendVfs {
        BackendVfs::new(Box::new(PfsBackend::new(None, mode, 48, None)))
    }

    #[test]
    fn db_over_pfs_vfs_roundtrips() {
        let mut db = Connection::open(Box::new(pfs_vfs(PfsMode::Intel)), "enc.db").unwrap();
        db.execute("CREATE TABLE t(a INTEGER PRIMARY KEY, b TEXT)").unwrap();
        db.execute("BEGIN").unwrap();
        for i in 0..200 {
            db.execute(&format!("INSERT INTO t VALUES ({i}, 'v{i}')")).unwrap();
        }
        db.execute("COMMIT").unwrap();
        assert_eq!(
            db.query_scalar("SELECT count(*) FROM t").unwrap(),
            twine_sqldb::SqlValue::Int(200)
        );
        assert_eq!(
            db.query_scalar("SELECT b FROM t WHERE a = 123").unwrap(),
            twine_sqldb::SqlValue::Text("v123".into())
        );
    }

    #[test]
    fn pfs_vfs_reopen_persists() {
        let vfs = pfs_vfs(PfsMode::Optimised);
        let backend = vfs.shared();
        {
            let mut db = Connection::open(Box::new(vfs), "p.db").unwrap();
            db.execute("CREATE TABLE t(a INTEGER PRIMARY KEY)").unwrap();
            db.execute("INSERT INTO t VALUES (7)").unwrap();
            db.close().unwrap();
        }
        // New VFS handle over the same backend.
        let vfs2 = BackendVfs::from_shared(backend);
        let mut db = Connection::open(Box::new(vfs2), "p.db").unwrap();
        assert_eq!(
            db.query_scalar("SELECT count(*) FROM t").unwrap(),
            twine_sqldb::SqlValue::Int(1)
        );
    }

    #[test]
    fn lkl_vfs_charges_enclave() {
        use twine_sgx::{EnclaveBuilder, Processor};
        let enclave = Arc::new(EnclaveBuilder::new(b"lkl").build(&Processor::new(1)));
        let clock = enclave.clock().clone();
        let before = clock.cycles();
        let mut vfs = LklVfs::new(enclave);
        let mut f = vfs.open("img").unwrap();
        f.write_at(0, &vec![1u8; 64 * 1024]).unwrap();
        let mut buf = vec![0u8; 64 * 1024];
        f.read_at(0, &mut buf).unwrap();
        assert_eq!(buf[0], 1);
        assert!(clock.cycles() > before, "block crypto + exits charged");
    }
}
