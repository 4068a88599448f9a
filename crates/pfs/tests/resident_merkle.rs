//! What a protected file reads from untrusted storage, counted.
//!
//! Merkle (L1/L2) nodes stay in enclave memory from their first verified
//! load until the file is closed, so a cache far smaller than the file
//! reads each of them once per open, and re-reading an evicted data node
//! costs that node alone. A write covering a whole aligned data node never
//! reads the old node: it replaces every byte, so there is nothing to
//! verify — while a partial write still loads and verifies it.

use std::cell::Cell;
use std::collections::BTreeSet;
use std::rc::Rc;

use twine_pfs::node::data_phys;
use twine_pfs::{
    MemStorage, PfsError, PfsMode, PfsOptions, SgxFile, UntrustedStorage, ENTRIES_PER_L2,
    NODE_SIZE,
};

const KEY: [u8; 16] = [0x6d; 16];
/// L2 groups the file spans.
const GROUPS: u64 = 4;
const NODES: u64 = GROUPS * ENTRIES_PER_L2;

/// Storage that counts `read_node` calls.
struct Counting {
    inner: MemStorage,
    reads: Rc<Cell<u64>>,
}

impl UntrustedStorage for Counting {
    fn read_node(&mut self, idx: u64, buf: &mut [u8; NODE_SIZE]) -> Result<bool, PfsError> {
        self.reads.set(self.reads.get() + 1);
        self.inner.read_node(idx, buf)
    }

    fn write_node(&mut self, idx: u64, buf: &[u8; NODE_SIZE]) -> Result<(), PfsError> {
        self.inner.write_node(idx, buf)
    }

    fn node_count(&self) -> u64 {
        self.inner.node_count()
    }

    fn truncate(&mut self, nodes: u64) -> Result<(), PfsError> {
        self.inner.truncate(nodes)
    }
}

fn opts(mode: PfsMode) -> PfsOptions {
    PfsOptions {
        mode,
        cache_nodes: 4,
        enclave: None,
        profiler: None,
        journal: false,
    }
}

fn block(d: u64, generation: u8) -> Vec<u8> {
    (0..NODE_SIZE)
        .map(|i| (d as usize * 131 + i * 7 + generation as usize * 29) as u8)
        .collect()
}

/// A flushed file of `NODES` data nodes, node `d` holding `block(d, 0)`.
fn stored_file(mode: PfsMode) -> MemStorage {
    let mut f = SgxFile::create(MemStorage::new(), KEY, opts(mode)).unwrap();
    for d in 0..NODES {
        assert_eq!(f.write(&block(d, 0)).unwrap(), NODE_SIZE);
    }
    f.into_storage().unwrap()
}

/// Open `store` behind a read counter.
fn open_counted(store: MemStorage, mode: PfsMode) -> (SgxFile<Counting>, Rc<Cell<u64>>) {
    let reads = Rc::new(Cell::new(0));
    let counting = Counting {
        inner: store,
        reads: Rc::clone(&reads),
    };
    (SgxFile::open(counting, KEY, opts(mode)).unwrap(), reads)
}

fn read_node(f: &mut SgxFile<Counting>, d: u64) -> Result<Vec<u8>, PfsError> {
    f.seek(d * NODE_SIZE as u64)?;
    let mut buf = vec![0u8; NODE_SIZE];
    assert_eq!(f.read(&mut buf)?, NODE_SIZE);
    Ok(buf)
}

fn write_node(f: &mut SgxFile<Counting>, d: u64, bytes: &[u8]) -> Result<usize, PfsError> {
    f.seek(d * NODE_SIZE as u64)?;
    f.write(bytes)
}

#[test]
fn merkle_nodes_are_read_once_per_open() {
    for mode in [PfsMode::Intel, PfsMode::Optimised] {
        let (mut f, reads) = open_counted(stored_file(mode), mode);
        // 40 distinct data nodes scattered over every group (97 is prime
        // to NODES), far more than the 4-node cache holds.
        let sample: Vec<u64> = (0..40).map(|k| (k * 97 + 13) % NODES).collect();
        let groups: BTreeSet<u64> = sample.iter().map(|d| d / ENTRIES_PER_L2).collect();
        assert_eq!(groups.len() as u64, GROUPS);

        let before = reads.get();
        for &d in &sample {
            assert_eq!(read_node(&mut f, d).unwrap(), block(d, 0), "{mode:?} node {d}");
        }
        // Each data node once, each L2 once, the one L1 once.
        assert_eq!(
            reads.get() - before,
            sample.len() as u64 + groups.len() as u64 + 1,
            "{mode:?}"
        );

        // The first node was evicted long ago; its Merkle path was not.
        let before = reads.get();
        assert_eq!(read_node(&mut f, sample[0]).unwrap(), block(sample[0], 0));
        assert_eq!(reads.get() - before, 1, "{mode:?}: re-reading an evicted node");
    }
}

#[test]
fn whole_node_overwrite_reads_nothing() {
    for mode in [PfsMode::Intel, PfsMode::Optimised] {
        // An aligned 4 KiB overwrite of an uncached node whose Merkle path
        // is resident touches no storage.
        let (mut f, reads) = open_counted(stored_file(mode), mode);
        read_node(&mut f, 5).unwrap();
        let before = reads.get();
        assert_eq!(write_node(&mut f, 7, &block(7, 1)).unwrap(), NODE_SIZE);
        assert_eq!(reads.get() - before, 0, "{mode:?}: whole overwrite read storage");
        assert_eq!(read_node(&mut f, 7).unwrap(), block(7, 1));

        // A corrupted node overwritten whole reads back the new bytes, and
        // the file reopens clean.
        let mut store = stored_file(mode);
        store.raw_node_mut(data_phys(10)).unwrap()[100] ^= 1;
        let (mut f, _) = open_counted(store, mode);
        assert!(matches!(read_node(&mut f, 10), Err(PfsError::Tampered(_))), "{mode:?}");
        assert_eq!(write_node(&mut f, 10, &block(10, 1)).unwrap(), NODE_SIZE);
        assert_eq!(read_node(&mut f, 10).unwrap(), block(10, 1), "{mode:?}");
        let store = f.into_storage().unwrap().inner;
        let (mut f, _) = open_counted(store, mode);
        for d in 0..NODES {
            let generation = u8::from(d == 10);
            assert_eq!(read_node(&mut f, d).unwrap(), block(d, generation), "{mode:?} node {d}");
        }

        // A partial write must merge with the old bytes, so it still
        // loads — and refuses — a corrupted node.
        let mut store = stored_file(mode);
        store.raw_node_mut(data_phys(20)).unwrap()[100] ^= 1;
        let (mut f, _) = open_counted(store, mode);
        f.seek(20 * NODE_SIZE as u64 + 100).unwrap();
        assert!(matches!(f.write(&[0xEE; 50]), Err(PfsError::Tampered(_))), "{mode:?}");
    }
}
