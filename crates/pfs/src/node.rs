//! Node layout arithmetic and per-node cryptography.
//!
//! Physical node addressing is formula-based (no allocation tables): the
//! file is a sequence of *superblocks*, each holding one L1 MHT node and
//! 100 groups of (1 L2 MHT node + 96 data nodes).
//!
//! ```text
//! phys 0                                  : meta node
//! phys 1 + j·S                            : L1 node j        (S = 9701)
//! phys 1 + j·S + 1 + k·97                 : L2 node of group g = 100j + k
//! phys l2_phys(g) + 1 + r                 : data node d = 96g + r
//! ```

use twine_crypto::ccm::AesCcm;
use twine_crypto::cmac::Cmac;
use twine_crypto::gcm::AesGcm;

use crate::{PfsError, PfsMode, ENTRIES_PER_L1, ENTRIES_PER_L2, NODE_SIZE};

/// Nodes per superblock: 1 L1 + 100 × (1 L2 + 96 data).
pub const SUPERBLOCK_NODES: u64 = 1 + ENTRIES_PER_L1 * (1 + ENTRIES_PER_L2);

/// Nodes per group: 1 L2 + 96 data.
pub const GROUP_NODES: u64 = 1 + ENTRIES_PER_L2;

/// A Merkle entry: per-node AES key and authentication tag.
pub type Entry = [u8; 32];

/// An all-zero entry denotes a node that has never been written.
#[must_use]
pub fn entry_is_empty(e: &Entry) -> bool {
    e.iter().all(|&b| b == 0)
}

/// Split an entry into key and tag.
#[must_use]
pub fn entry_parts(e: &Entry) -> ([u8; 16], [u8; 16]) {
    let mut key = [0u8; 16];
    let mut tag = [0u8; 16];
    key.copy_from_slice(&e[..16]);
    tag.copy_from_slice(&e[16..]);
    (key, tag)
}

/// Build an entry from key and tag.
#[must_use]
pub fn entry_from_parts(key: &[u8; 16], tag: &[u8; 16]) -> Entry {
    let mut e = [0u8; 32];
    e[..16].copy_from_slice(key);
    e[16..].copy_from_slice(tag);
    e
}

/// What a physical node is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// The meta node (physical 0).
    Meta,
    /// L1 MHT node `j`.
    L1(u64),
    /// L2 MHT node of group `g`.
    L2(u64),
    /// Data node `d` (file offset `d × 4096`).
    Data(u64),
}

/// Physical index of L1 node `j`.
#[must_use]
pub fn l1_phys(j: u64) -> u64 {
    1 + j * SUPERBLOCK_NODES
}

/// Physical index of the L2 node of group `g`.
#[must_use]
pub fn l2_phys(g: u64) -> u64 {
    let j = g / ENTRIES_PER_L1;
    let k = g % ENTRIES_PER_L1;
    l1_phys(j) + 1 + k * GROUP_NODES
}

/// Physical index of data node `d`.
#[must_use]
pub fn data_phys(d: u64) -> u64 {
    let g = d / ENTRIES_PER_L2;
    let r = d % ENTRIES_PER_L2;
    l2_phys(g) + 1 + r
}

/// Classify a physical node index.
#[must_use]
pub fn classify(phys: u64) -> NodeKind {
    if phys == 0 {
        return NodeKind::Meta;
    }
    let p = phys - 1;
    let j = p / SUPERBLOCK_NODES;
    let within = p % SUPERBLOCK_NODES;
    if within == 0 {
        return NodeKind::L1(j);
    }
    let q = within - 1;
    let k = q / GROUP_NODES;
    let within_group = q % GROUP_NODES;
    let g = j * ENTRIES_PER_L1 + k;
    if within_group == 0 {
        NodeKind::L2(g)
    } else {
        NodeKind::Data(g * ENTRIES_PER_L2 + (within_group - 1))
    }
}

/// A node's level in the tree, counted from the leaves: data 0, L2 1, L1 2,
/// meta 3. A flush seals level by level from 0 up, so that every parent
/// absorbs its children's fresh entries before it is sealed itself.
#[must_use]
pub fn level(phys: u64) -> u8 {
    match classify(phys) {
        NodeKind::Data(_) => 0,
        NodeKind::L2(_) => 1,
        NodeKind::L1(_) => 2,
        NodeKind::Meta => 3,
    }
}

/// Where a node's Merkle entry lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParentLoc {
    /// Slot `j` of the meta node's L1 table.
    Meta(u64),
    /// Slot within L1 node `j`.
    L1 {
        /// Which L1 node.
        j: u64,
        /// Slot index.
        slot: u64,
    },
    /// Slot within the L2 node of group `g`.
    L2 {
        /// Which group's L2 node.
        g: u64,
        /// Slot index.
        slot: u64,
    },
}

/// Compute the parent entry location of a non-meta node.
#[must_use]
pub fn parent_of(kind: NodeKind) -> ParentLoc {
    match kind {
        NodeKind::Meta => unreachable!("meta has no parent"),
        NodeKind::L1(j) => ParentLoc::Meta(j),
        NodeKind::L2(g) => ParentLoc::L1 {
            j: g / ENTRIES_PER_L1,
            slot: g % ENTRIES_PER_L1,
        },
        NodeKind::Data(d) => ParentLoc::L2 {
            g: d / ENTRIES_PER_L2,
            slot: d % ENTRIES_PER_L2,
        },
    }
}

/// Derive a fresh one-use node key from the file key and an update counter.
/// `file_kdf` is the CMAC context of the file key — expanded once per open
/// file ([`crate::SgxFile`] keeps it), not once per node written.
#[must_use]
pub fn derive_node_key(file_kdf: &Cmac, phys: u64, counter: u64) -> [u8; 16] {
    let mut msg = [0u8; 24];
    msg[..8].copy_from_slice(&phys.to_le_bytes());
    msg[8..16].copy_from_slice(&counter.to_le_bytes());
    msg[16..24].copy_from_slice(b"nodekey\0");
    file_kdf.mac(&msg)
}

/// Encrypt a node in place (`buf` becomes ciphertext); returns the tag.
/// Keys are single-use, so the fixed zero nonce is sound.
#[must_use]
pub fn encrypt_node(mode: PfsMode, key: &[u8; 16], buf: &mut [u8; NODE_SIZE]) -> [u8; 16] {
    let nonce = [0u8; 12];
    match mode {
        PfsMode::Intel => AesGcm::new_128(key).encrypt_in_place(&nonce, b"", buf),
        PfsMode::Optimised => AesCcm::new_128(key).encrypt_in_place(&nonce, b"", buf),
    }
}

/// Decrypt and verify a node in place (`buf` becomes plaintext).
pub fn decrypt_node(
    mode: PfsMode,
    key: &[u8; 16],
    tag: &[u8; 16],
    buf: &mut [u8; NODE_SIZE],
) -> Result<(), PfsError> {
    let nonce = [0u8; 12];
    let r = match mode {
        PfsMode::Intel => AesGcm::new_128(key).decrypt_in_place(&nonce, b"", buf, tag),
        PfsMode::Optimised => AesCcm::new_128(key).decrypt_in_place(&nonce, b"", buf, tag),
    };
    r.map_err(|_| PfsError::Tampered("node authentication failed".into()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_roundtrip() {
        // Every logical node classifies back from its physical index.
        for j in [0u64, 1, 5] {
            assert_eq!(classify(l1_phys(j)), NodeKind::L1(j));
        }
        for g in [0u64, 1, 99, 100, 101, 250] {
            assert_eq!(classify(l2_phys(g)), NodeKind::L2(g));
        }
        for d in [0u64, 1, 95, 96, 97, 9599, 9600, 100_000] {
            assert_eq!(classify(data_phys(d)), NodeKind::Data(d));
        }
        assert_eq!(classify(0), NodeKind::Meta);
    }

    #[test]
    fn physical_indices_unique() {
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        seen.insert(0u64);
        for j in 0..3 {
            assert!(seen.insert(l1_phys(j)));
        }
        for g in 0..300 {
            assert!(seen.insert(l2_phys(g)));
        }
        for d in 0..2000 {
            assert!(seen.insert(data_phys(d)));
        }
    }

    #[test]
    fn parent_relations() {
        assert_eq!(parent_of(NodeKind::L1(3)), ParentLoc::Meta(3));
        assert_eq!(
            parent_of(NodeKind::L2(205)),
            ParentLoc::L1 { j: 2, slot: 5 }
        );
        assert_eq!(
            parent_of(NodeKind::Data(96 * 7 + 13)),
            ParentLoc::L2 { g: 7, slot: 13 }
        );
    }

    #[test]
    fn node_crypto_roundtrip_both_modes() {
        for mode in [PfsMode::Intel, PfsMode::Optimised] {
            let key = derive_node_key(&Cmac::new(&[1u8; 16]), 42, 7);
            let mut buf = [0u8; NODE_SIZE];
            for (i, b) in buf.iter_mut().enumerate() {
                *b = (i % 251) as u8;
            }
            let orig = buf;
            let tag = encrypt_node(mode, &key, &mut buf);
            assert_ne!(buf[..64], orig[..64]);
            decrypt_node(mode, &key, &tag, &mut buf).unwrap();
            assert_eq!(buf, orig, "{mode:?}");
        }
    }

    #[test]
    fn node_crypto_tamper_detected() {
        for mode in [PfsMode::Intel, PfsMode::Optimised] {
            let key = [9u8; 16];
            let mut buf = [7u8; NODE_SIZE];
            let tag = encrypt_node(mode, &key, &mut buf);
            buf[1000] ^= 1;
            assert!(decrypt_node(mode, &key, &tag, &mut buf).is_err(), "{mode:?}");
        }
    }

    #[test]
    fn node_keys_unique() {
        let fk = Cmac::new(&[3u8; 16]);
        assert_ne!(derive_node_key(&fk, 1, 1), derive_node_key(&fk, 1, 2));
        assert_ne!(derive_node_key(&fk, 1, 1), derive_node_key(&fk, 2, 1));
        assert_ne!(derive_node_key(&fk, 1, 1), derive_node_key(&Cmac::new(&[4u8; 16]), 1, 1));
    }

    #[test]
    fn entry_helpers() {
        let e = entry_from_parts(&[1u8; 16], &[2u8; 16]);
        assert!(!entry_is_empty(&e));
        let (k, t) = entry_parts(&e);
        assert_eq!(k, [1u8; 16]);
        assert_eq!(t, [2u8; 16]);
        assert!(entry_is_empty(&[0u8; 32]));
    }
}
