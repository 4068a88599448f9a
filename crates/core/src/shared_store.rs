//! Shared, reference-counted untrusted storage so protected files persist
//! across open/close cycles within one runtime.

use std::sync::{Arc, Mutex};

use twine_pfs::{MemStorage, PfsError, UntrustedStorage, NODE_SIZE};

/// A clonable handle to one file's untrusted node array. `Arc<Mutex<…>>`
/// so a session's protected files are `Send` — in the sharded service
/// successive callers (different threads) use a session's backend, and
/// close hands it to whichever thread asked.
#[derive(Clone, Default)]
pub struct SharedStorage(Arc<Mutex<MemStorage>>);

impl SharedStorage {
    /// Fresh empty storage.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Ciphertext bytes currently held (Table IIIb disk-footprint metric).
    #[must_use]
    pub fn stored_bytes(&self) -> u64 {
        self.0.lock().unwrap().stored_bytes()
    }

    /// Borrow the inner storage (tamper tests).
    pub fn with_inner<R>(&self, f: impl FnOnce(&mut MemStorage) -> R) -> R {
        f(&mut self.0.lock().unwrap())
    }
}

impl UntrustedStorage for SharedStorage {
    fn read_node(&mut self, idx: u64, buf: &mut [u8; NODE_SIZE]) -> Result<bool, PfsError> {
        self.0.lock().unwrap().read_node(idx, buf)
    }

    fn write_node(&mut self, idx: u64, buf: &[u8; NODE_SIZE]) -> Result<(), PfsError> {
        self.0.lock().unwrap().write_node(idx, buf)
    }

    fn node_count(&self) -> u64 {
        self.0.lock().unwrap().node_count()
    }

    fn truncate(&mut self, nodes: u64) -> Result<(), PfsError> {
        self.0.lock().unwrap().truncate(nodes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_nodes() {
        let mut a = SharedStorage::new();
        let mut b = a.clone();
        let node = [7u8; NODE_SIZE];
        a.write_node(0, &node).unwrap();
        let mut buf = [0u8; NODE_SIZE];
        assert!(b.read_node(0, &mut buf).unwrap());
        assert_eq!(buf[0], 7);
        assert_eq!(a.stored_bytes(), NODE_SIZE as u64);
    }
}
