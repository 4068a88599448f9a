//! Protected-file images are byte-reproducible: the same writes produce
//! the same ciphertext on untrusted storage, run after run.
//!
//! Node keys are derived from a per-file counter in flush order, so the
//! order in which `flush` visits same-kind dirty nodes is part of the
//! stored format. It used to follow `HashMap` iteration order (0 of 10
//! repeats of the case below produced identical images); `flush_plain`
//! now orders dirty nodes by `(kind, physical index)`.

use twine_pfs::{MemStorage, PfsMode, PfsOptions, SgxFile, NODE_SIZE};

const KEY: [u8; 16] = [0x3c; 16];
const WRITES: usize = 24;

/// 24 sequential 4 KiB writes and one flush; the resulting storage image.
fn image(mode: PfsMode, cache_nodes: usize, journal: bool) -> Vec<Option<Box<[u8; NODE_SIZE]>>> {
    let opts = PfsOptions {
        mode,
        cache_nodes,
        enclave: None,
        profiler: None,
        journal,
    };
    let mut f = SgxFile::create(MemStorage::new(), KEY, opts).unwrap();
    for i in 0..WRITES {
        let block: Vec<u8> = (0..NODE_SIZE).map(|j| (i * 131 + j * 7) as u8).collect();
        assert_eq!(f.write(&block).unwrap(), NODE_SIZE);
    }
    f.flush().unwrap();
    f.into_storage().unwrap().snapshot()
}

#[test]
fn same_writes_produce_the_same_stored_bytes() {
    // Cache 48 holds every dirty node until the flush (the flush order is
    // the whole story); cache 8 also evicts dirty nodes along the way.
    for cache_nodes in [48, 8] {
        for mode in [PfsMode::Intel, PfsMode::Optimised] {
            for journal in [false, true] {
                let first = image(mode, cache_nodes, journal);
                assert!(first.len() > WRITES, "data nodes plus Merkle nodes are stored");
                for repeat in 1..4 {
                    assert!(
                        image(mode, cache_nodes, journal) == first,
                        "cache {cache_nodes}, {mode:?}, journal={journal}: \
                         repeat {repeat} stored different bytes"
                    );
                }
            }
        }
    }
}
