//! The *trusted* WASI file-system backend: every WASI file maps to an
//! Intel-Protected-FS file (paper §IV-D). Data leaving the enclave is
//! ciphertext; integrity is verified on every read.

use std::collections::HashMap;
use std::sync::Arc;

use twine_pfs::{PfsError, PfsMode, PfsOptions, PfsProfiler, SgxFile};
use twine_sgx::Enclave;
use twine_wasi::{Errno, FsBackend, WasiFile};

use crate::shared_store::SharedStorage;

fn map_err(e: &PfsError) -> Errno {
    match e {
        PfsError::Tampered(_) => Errno::Io,
        PfsError::Io(_) => Errno::Io,
        PfsError::Range(_) => Errno::Inval,
    }
}

/// Trusted backend over `twine-pfs` with one storage array per path.
pub struct PfsBackend {
    enclave: Option<Arc<Enclave>>,
    mode: PfsMode,
    cache_nodes: usize,
    profiler: Option<PfsProfiler>,
    files: HashMap<String, SharedStorage>,
}

impl PfsBackend {
    /// New backend. When `enclave` is given, file keys are derived from the
    /// enclave identity (§IV-E automatic key generation) and storage I/O is
    /// charged as OCALLs.
    #[must_use]
    pub fn new(
        enclave: Option<Arc<Enclave>>,
        mode: PfsMode,
        cache_nodes: usize,
        profiler: Option<PfsProfiler>,
    ) -> Self {
        Self {
            enclave,
            mode,
            cache_nodes,
            profiler,
            files: HashMap::new(),
        }
    }

    fn file_key(&self, path: &str) -> [u8; 16] {
        match &self.enclave {
            Some(e) => e.get_key(twine_crypto::kdf::KeyName::ProtectedFs, path.as_bytes()),
            None => {
                // Stand-alone mode: deterministic per-path key.
                let d = twine_crypto::sha256::Sha256::digest(path.as_bytes());
                d[..16].try_into().expect("16 bytes")
            }
        }
    }

    fn options(&self) -> PfsOptions {
        PfsOptions {
            mode: self.mode,
            cache_nodes: self.cache_nodes,
            enclave: self.enclave.clone(),
            profiler: self.profiler.clone(),
            journal: false,
        }
    }

    /// Ciphertext footprint across all files (bytes).
    #[must_use]
    pub fn stored_bytes(&self) -> u64 {
        self.files.values().map(SharedStorage::stored_bytes).sum()
    }

    /// Access a file's untrusted storage (tamper tests / inspection).
    #[must_use]
    pub fn storage_of(&self, path: &str) -> Option<SharedStorage> {
        self.files.get(path).cloned()
    }
}

struct PfsWasiFile {
    inner: SgxFile<SharedStorage>,
}

impl WasiFile for PfsWasiFile {
    fn read(&mut self, buf: &mut [u8]) -> Result<usize, Errno> {
        self.inner.read(buf).map_err(|e| map_err(&e))
    }

    fn write(&mut self, buf: &[u8]) -> Result<usize, Errno> {
        self.inner.write(buf).map_err(|e| map_err(&e))
    }

    fn seek(&mut self, pos: u64) -> Result<u64, Errno> {
        self.inner.seek(pos).map_err(|e| map_err(&e))
    }

    fn tell(&self) -> u64 {
        self.inner.tell()
    }

    fn size(&self) -> Result<u64, Errno> {
        Ok(self.inner.size())
    }

    fn set_size(&mut self, size: u64) -> Result<(), Errno> {
        self.inner.set_size(size).map_err(|e| map_err(&e))
    }

    fn sync(&mut self) -> Result<(), Errno> {
        self.inner.flush().map_err(|e| map_err(&e))
    }
}

impl Drop for PfsWasiFile {
    fn drop(&mut self) {
        // Persist on close, like sgx_fclose.
        let _ = self.inner.flush();
    }
}

impl FsBackend for PfsBackend {
    fn open(
        &mut self,
        path: &str,
        create: bool,
        truncate: bool,
    ) -> Result<Box<dyn WasiFile>, Errno> {
        let key = self.file_key(path);
        let known = self.files.contains_key(path);
        if !create && !known {
            return Err(Errno::Noent);
        }
        let storage = self
            .files
            .entry(path.to_string())
            .or_default()
            .clone();
        let opts = self.options();
        let inner = if !known || truncate {
            SgxFile::create(storage, key, opts).map_err(|e| map_err(&e))?
        } else {
            SgxFile::open(storage, key, opts).map_err(|e| map_err(&e))?
        };
        Ok(Box::new(PfsWasiFile { inner }))
    }

    fn exists(&mut self, path: &str) -> bool {
        self.files.contains_key(path)
    }

    fn filesize(&mut self, path: &str) -> Result<u64, Errno> {
        let storage = self.files.get(path).ok_or(Errno::Noent)?.clone();
        let key = self.file_key(path);
        let f = SgxFile::open(storage, key, self.options()).map_err(|e| map_err(&e))?;
        Ok(f.size())
    }

    fn unlink(&mut self, path: &str) -> Result<(), Errno> {
        self.files.remove(path).map(|_| ()).ok_or(Errno::Noent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twine_pfs::DEFAULT_CACHE_NODES;

    fn backend() -> PfsBackend {
        PfsBackend::new(None, PfsMode::Intel, DEFAULT_CACHE_NODES, None)
    }

    #[test]
    fn create_write_reopen() {
        let mut b = backend();
        {
            let mut f = b.open("/data/x.db", true, false).unwrap();
            f.write(b"persisted through pfs").unwrap();
            f.sync().unwrap();
        }
        assert!(b.exists("/data/x.db"));
        assert_eq!(b.filesize("/data/x.db").unwrap(), 21);
        let mut f = b.open("/data/x.db", false, false).unwrap();
        let mut buf = [0u8; 21];
        f.read(&mut buf).unwrap();
        assert_eq!(&buf, b"persisted through pfs");
    }

    #[test]
    fn missing_file_noent() {
        let mut b = backend();
        assert!(b.open("/data/nope", false, false).is_err());
        assert_eq!(b.filesize("/data/nope").err(), Some(Errno::Noent));
    }

    #[test]
    fn truncate_clears() {
        let mut b = backend();
        {
            let mut f = b.open("/d/t", true, false).unwrap();
            f.write(b"old contents").unwrap();
        }
        let f = b.open("/d/t", true, true).unwrap();
        assert_eq!(f.size().unwrap(), 0);
    }

    #[test]
    fn unlink_removes() {
        let mut b = backend();
        b.open("/d/u", true, false).unwrap();
        b.unlink("/d/u").unwrap();
        assert!(!b.exists("/d/u"));
        assert_eq!(b.unlink("/d/u").err(), Some(Errno::Noent));
    }

    #[test]
    fn storage_holds_only_ciphertext() {
        for mode in [PfsMode::Intel, PfsMode::Optimised] {
            let mut b = PfsBackend::new(None, mode, DEFAULT_CACHE_NODES, None);
            {
                let mut f = b.open("/d/s", true, false).unwrap();
                f.write(b"THE-SECRET-SENTINEL-VALUE").unwrap();
                f.sync().unwrap();
            }
            let storage = b.storage_of("/d/s").unwrap();
            let leaked = storage.with_inner(|m| {
                let snap = m.snapshot();
                snap.into_iter().flatten().any(|n| {
                    n.windows(25).any(|w| w == b"THE-SECRET-SENTINEL-VALUE")
                })
            });
            assert!(!leaked, "{mode:?}");
            assert!(storage.stored_bytes() > 0, "{mode:?}");
        }
    }

    #[test]
    fn drop_flushes() {
        let mut b = backend();
        {
            let mut f = b.open("/d/flush", true, false).unwrap();
            f.write(b"no explicit sync").unwrap();
            // dropped here without sync()
        }
        let mut f = b.open("/d/flush", false, false).unwrap();
        let mut buf = [0u8; 16];
        f.read(&mut buf).unwrap();
        assert_eq!(&buf, b"no explicit sync");
    }
}
