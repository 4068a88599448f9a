//! Untrusted node storage backends.
//!
//! The storage lives *outside* the (simulated) enclave: it only ever sees
//! ciphertext. Reads and writes through it are wrapped in OCALLs by
//! [`crate::file::SgxFile`].

use crate::{PfsError, NODE_SIZE};
use std::io::{Read, Seek, SeekFrom, Write};
use std::sync::Arc;

use twine_sgx::{FaultKind, FaultPlan};

/// A flat array of 4 KiB ciphertext nodes on the untrusted side.
pub trait UntrustedStorage {
    /// Read node `idx` into `buf`. Returns `Ok(false)` if the node has
    /// never been written (treated as absent, not an error).
    fn read_node(&mut self, idx: u64, buf: &mut [u8; NODE_SIZE]) -> Result<bool, PfsError>;
    /// Write node `idx`.
    fn write_node(&mut self, idx: u64, buf: &[u8; NODE_SIZE]) -> Result<(), PfsError>;
    /// Number of nodes (highest written index + 1).
    fn node_count(&self) -> u64;
    /// Remove all nodes at or beyond `nodes`.
    fn truncate(&mut self, nodes: u64) -> Result<(), PfsError>;
}

/// In-memory storage (deterministic benchmarks; also the "attacker's view"
/// in tamper tests).
#[derive(Default)]
pub struct MemStorage {
    nodes: Vec<Option<Box<[u8; NODE_SIZE]>>>,
}

impl MemStorage {
    /// Empty storage.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Direct ciphertext access for tamper tests (the attacker can do this).
    pub fn raw_node_mut(&mut self, idx: u64) -> Option<&mut [u8; NODE_SIZE]> {
        self.nodes
            .get_mut(idx as usize)
            .and_then(|n| n.as_deref_mut())
    }

    /// Snapshot all bytes (for rollback-attack tests).
    #[must_use]
    pub fn snapshot(&self) -> Vec<Option<Box<[u8; NODE_SIZE]>>> {
        self.nodes.clone()
    }

    /// Restore a snapshot (the rollback attack itself).
    pub fn restore(&mut self, snap: Vec<Option<Box<[u8; NODE_SIZE]>>>) {
        self.nodes = snap;
    }

    /// Total bytes held (ciphertext footprint, Table IIIb).
    #[must_use]
    pub fn stored_bytes(&self) -> u64 {
        self.nodes.iter().flatten().count() as u64 * NODE_SIZE as u64
    }
}

impl UntrustedStorage for MemStorage {
    fn read_node(&mut self, idx: u64, buf: &mut [u8; NODE_SIZE]) -> Result<bool, PfsError> {
        match self.nodes.get(idx as usize).and_then(|n| n.as_deref()) {
            Some(node) => {
                buf.copy_from_slice(node);
                Ok(true)
            }
            None => Ok(false),
        }
    }

    fn write_node(&mut self, idx: u64, buf: &[u8; NODE_SIZE]) -> Result<(), PfsError> {
        let idx = idx as usize;
        if idx >= self.nodes.len() {
            self.nodes.resize_with(idx + 1, || None);
        }
        match &mut self.nodes[idx] {
            Some(existing) => existing.copy_from_slice(buf),
            slot => *slot = Some(Box::new(*buf)),
        }
        Ok(())
    }

    fn node_count(&self) -> u64 {
        self.nodes.len() as u64
    }

    fn truncate(&mut self, nodes: u64) -> Result<(), PfsError> {
        self.nodes.truncate(nodes as usize);
        Ok(())
    }
}

/// A storage wrapper that injects write faults from an installed
/// [`FaultPlan`] (see `twine_sgx::fault`): torn writes (only the first
/// half of the node lands), single-bit flips, and lost writes
/// (acknowledged but never durable). Reads pass through untouched — the
/// Merkle tree's node MACs are what detect the damage later, which is
/// exactly the property the crash-recovery battery exercises.
pub struct FaultyStorage<S> {
    inner: S,
    plan: Arc<FaultPlan>,
}

impl<S: UntrustedStorage> FaultyStorage<S> {
    /// Wrap `inner`, consulting `plan` on every write operation.
    pub fn new(inner: S, plan: Arc<FaultPlan>) -> Self {
        Self { inner, plan }
    }

    /// The wrapped storage (e.g. to inspect ciphertext after faults).
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: UntrustedStorage> UntrustedStorage for FaultyStorage<S> {
    fn read_node(&mut self, idx: u64, buf: &mut [u8; NODE_SIZE]) -> Result<bool, PfsError> {
        self.inner.read_node(idx, buf)
    }

    fn write_node(&mut self, idx: u64, buf: &[u8; NODE_SIZE]) -> Result<(), PfsError> {
        match self.plan.storage_fault() {
            None => self.inner.write_node(idx, buf),
            Some(FaultKind::StorageLost) => Ok(()),
            Some(FaultKind::StorageTorn) => {
                // Only the first half of the sector lands; the tail keeps
                // whatever was there before (zeros for a fresh node).
                let mut old = [0u8; NODE_SIZE];
                let had = self.inner.read_node(idx, &mut old)?;
                let mut merged = *buf;
                if had {
                    merged[NODE_SIZE / 2..].copy_from_slice(&old[NODE_SIZE / 2..]);
                } else {
                    merged[NODE_SIZE / 2..].fill(0);
                }
                self.inner.write_node(idx, &merged)
            }
            Some(_bit_flip) => {
                let mut damaged = *buf;
                let at = (self.plan.param() as usize) % (NODE_SIZE * 8);
                damaged[at / 8] ^= 1 << (at % 8);
                self.inner.write_node(idx, &damaged)
            }
        }
    }

    fn node_count(&self) -> u64 {
        self.inner.node_count()
    }

    fn truncate(&mut self, nodes: u64) -> Result<(), PfsError> {
        self.inner.truncate(nodes)
    }
}

/// Real-file storage (used by the examples; node `i` at offset `i × 4096`).
pub struct FileStorage {
    file: std::fs::File,
    nodes: u64,
}

impl FileStorage {
    /// Open or create the backing file.
    pub fn open(path: &std::path::Path) -> Result<Self, PfsError> {
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(|e| PfsError::Io(e.to_string()))?;
        let len = file.metadata().map_err(|e| PfsError::Io(e.to_string()))?.len();
        Ok(Self {
            file,
            nodes: len.div_ceil(NODE_SIZE as u64),
        })
    }
}

impl UntrustedStorage for FileStorage {
    fn read_node(&mut self, idx: u64, buf: &mut [u8; NODE_SIZE]) -> Result<bool, PfsError> {
        if idx >= self.nodes {
            return Ok(false);
        }
        self.file
            .seek(SeekFrom::Start(idx * NODE_SIZE as u64))
            .map_err(|e| PfsError::Io(e.to_string()))?;
        match self.file.read_exact(buf) {
            Ok(()) => Ok(true),
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => Ok(false),
            Err(e) => Err(PfsError::Io(e.to_string())),
        }
    }

    fn write_node(&mut self, idx: u64, buf: &[u8; NODE_SIZE]) -> Result<(), PfsError> {
        self.file
            .seek(SeekFrom::Start(idx * NODE_SIZE as u64))
            .map_err(|e| PfsError::Io(e.to_string()))?;
        self.file
            .write_all(buf)
            .map_err(|e| PfsError::Io(e.to_string()))?;
        self.nodes = self.nodes.max(idx + 1);
        Ok(())
    }

    fn node_count(&self) -> u64 {
        self.nodes
    }

    fn truncate(&mut self, nodes: u64) -> Result<(), PfsError> {
        self.file
            .set_len(nodes * NODE_SIZE as u64)
            .map_err(|e| PfsError::Io(e.to_string()))?;
        self.nodes = nodes;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_storage_roundtrip() {
        let mut s = MemStorage::new();
        let mut node = [0u8; NODE_SIZE];
        node[0] = 7;
        s.write_node(3, &node).unwrap();
        assert_eq!(s.node_count(), 4);
        let mut buf = [0u8; NODE_SIZE];
        assert!(s.read_node(3, &mut buf).unwrap());
        assert_eq!(buf[0], 7);
        assert!(!s.read_node(2, &mut buf).unwrap(), "hole is absent");
        assert!(!s.read_node(100, &mut buf).unwrap());
    }

    #[test]
    fn mem_storage_truncate() {
        let mut s = MemStorage::new();
        let node = [1u8; NODE_SIZE];
        s.write_node(0, &node).unwrap();
        s.write_node(5, &node).unwrap();
        s.truncate(1).unwrap();
        let mut buf = [0u8; NODE_SIZE];
        assert!(s.read_node(0, &mut buf).unwrap());
        assert!(!s.read_node(5, &mut buf).unwrap());
    }

    #[test]
    fn file_storage_roundtrip() {
        let dir = std::env::temp_dir().join(format!("twine-pfs-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("nodes.bin");
        let mut s = FileStorage::open(&path).unwrap();
        let mut node = [0u8; NODE_SIZE];
        node[100] = 0xAB;
        s.write_node(2, &node).unwrap();
        drop(s);
        let mut s = FileStorage::open(&path).unwrap();
        let mut buf = [0u8; NODE_SIZE];
        assert!(s.read_node(2, &mut buf).unwrap());
        assert_eq!(buf[100], 0xAB);
        std::fs::remove_dir_all(&dir).ok();
    }
}
