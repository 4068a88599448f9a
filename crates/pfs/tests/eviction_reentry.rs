//! Regression: evicting a dirty node while loading its *parent*.
//!
//! `ensure_loaded(phys)` evicts until the cache has room. Writing back a
//! dirty victim updates the victim's Merkle entry in its parent — and when
//! that parent is `phys` itself (not cached yet: that is why it is being
//! loaded), the write-back loads and inserts `phys` first. The outer call
//! must then not insert it a second time (it used to panic with
//! `NodeCache::insert: duplicate insert`, twine_bench finding 1).
//!
//! The trigger is one flush-free run of writes that dirties more data
//! nodes than the cache holds, spread over several L2 groups so that L2
//! nodes themselves get evicted and reloaded between their children.

use twine_pfs::{MemStorage, PfsMode, PfsOptions, SgxFile, ENTRIES_PER_L2, NODE_SIZE};

const KEY: [u8; 16] = [0x5a; 16];
const GROUPS: u64 = 4;
const PER_GROUP: u64 = 6;

fn opts(mode: PfsMode, journal: bool) -> PfsOptions {
    PfsOptions {
        mode,
        cache_nodes: 8,
        enclave: None,
        profiler: None,
        journal,
    }
}

/// Data-node indices in write order: round-robin over the L2 groups, so
/// consecutive writes never share a parent.
fn write_order() -> Vec<u64> {
    (0..PER_GROUP)
        .flat_map(|k| (0..GROUPS).map(move |g| g * ENTRIES_PER_L2 + k * 7))
        .collect()
}

fn block(node: u64) -> Vec<u8> {
    (0..NODE_SIZE)
        .map(|i| (node as usize * 131 + i * 7) as u8)
        .collect()
}

fn read_block(f: &mut SgxFile<MemStorage>, node: u64) -> Vec<u8> {
    f.seek(node * NODE_SIZE as u64).unwrap();
    let mut buf = vec![0u8; NODE_SIZE];
    let mut done = 0;
    while done < NODE_SIZE {
        let n = f.read(&mut buf[done..]).unwrap();
        assert!(n > 0, "short read in node {node}");
        done += n;
    }
    buf
}

#[test]
fn dirty_eviction_that_loads_the_node_being_loaded() {
    let order = write_order();
    assert!(
        order.len() > 8,
        "must dirty more data nodes than the cache holds"
    );
    for mode in [PfsMode::Intel, PfsMode::Optimised] {
        for journal in [false, true] {
            let mut f = SgxFile::create(MemStorage::new(), KEY, opts(mode, journal)).unwrap();
            // Sparse file: seeks past the end are refused, so size it first.
            f.set_size(GROUPS * ENTRIES_PER_L2 * NODE_SIZE as u64)
                .unwrap();
            for &node in &order {
                f.seek(node * NODE_SIZE as u64).unwrap();
                assert_eq!(f.write(&block(node)).unwrap(), NODE_SIZE);
            }
            // Read back through the same (still unflushed) handle, in an
            // order that again alternates parents.
            for &node in order.iter().rev() {
                assert_eq!(
                    read_block(&mut f, node),
                    block(node),
                    "{mode:?} journal={journal}"
                );
            }
            f.flush().unwrap();
            let store = f.into_storage().unwrap();

            let mut f = SgxFile::open(store, KEY, opts(mode, journal)).unwrap();
            for &node in &order {
                assert_eq!(
                    read_block(&mut f, node),
                    block(node),
                    "after reopen, {mode:?} journal={journal}"
                );
            }
        }
    }
}
