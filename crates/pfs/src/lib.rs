//! # twine-pfs
//!
//! A from-scratch re-implementation of the **Intel Protected File System**
//! (IPFS) the paper builds Twine's trusted file I/O on (§IV-D/E), including
//! the §V-F optimisations as a switchable mode.
//!
//! ## Architecture (mirroring the SGX SDK library)
//!
//! A protected file is stored on the untrusted side as a flat array of
//! 4 KiB nodes forming a Merkle tree:
//!
//! ```text
//! node 0: meta node   — file size, update counter, root (L1) MHT entries;
//!                       encrypted with the file key (tag in the clear
//!                       header of the node)
//! L1 MHT nodes        — 32-byte entries (AES key ‖ tag) for L2 MHT nodes
//! L2 MHT nodes        — 32-byte entries for up to 96 data nodes each
//! data nodes          — 4 KiB of file content, encrypted with a fresh
//!                       per-write key; the GMAC tag lives in the parent
//!                       entry, forming the integrity tree
//! ```
//!
//! Every node is encrypted with AES-GCM (Intel mode) under a key used
//! exactly once, so the fixed zero nonce is safe. Decrypted data nodes live
//! in a bounded LRU cache (default 48 nodes, the SDK's default); Merkle
//! nodes stay in enclave memory from their first verified load until the
//! file is closed (see [`cache`]).
//!
//! ## The two modes of §V-F
//!
//! * [`PfsMode::Intel`] reproduces the stock SDK behaviour the paper
//!   profiles: node structures are **cleared on allocation** (two 4 KiB
//!   buffer memsets), plaintext is **cleared again on eviction**, and disk
//!   reads **copy the ciphertext across the enclave boundary** into enclave
//!   memory before GCM verification (encrypt-then-MAC forbids decrypting
//!   from untrusted memory).
//! * [`PfsMode::Optimised`] applies the paper's fixes: no redundant
//!   clearing, and zero-copy reads that decrypt straight from the untrusted
//!   buffer using **AES-CCM** (MAC-then-encrypt: the MAC is verified over
//!   plaintext already inside the enclave), eliminating the copy.
//!
//! Two departures from the SDK hold in both modes, because they follow from
//! what the code can see (a node's kind, a write's extent), not from a
//! mode: MHT nodes are resident instead of being counted among the 48
//! cached nodes, where data nodes used to evict them; and a write that
//! covers a whole aligned data node installs a fresh buffer instead of
//! reading and verifying the node it replaces. What Intel mode keeps stock
//! is the per-node work the paper profiles — the memsets, the edge copy
//! and GCM — so a cold random read now pays it for about one node instead
//! of one and a half.
//!
//! The profiler ([`PfsProfiler`]) attributes time to the same categories as
//! the paper's Figure 7 (memset / OCALL / read / crypto), so the breakdown
//! and the ~4× random-read speedup are *measured*, not asserted.
//!
//! ## Security properties (and non-properties)
//!
//! Tamper detection and confidentiality are enforced (tests cover node,
//! meta and entry tampering). Exactly like real IPFS, **rollback is not
//! detected** — swapping the whole file for an older version passes
//! verification (§IV-D lists this as a known limitation; a test documents
//! it). While a file is open, a stale node fails its parent's tag — the
//! entry changes with every write-back — and an MHT node is never read
//! from the host again after its first verified load.
//!
//! **Dependency graph**: builds on `twine-crypto` (AES-GCM/CCM) and
//! `twine-sgx` (boundary-cost accounting). Consumed by `twine-core`'s
//! trusted fs backend and `twine-baselines`' SQLite VFS variants.
//! Paper anchor: §IV-D/E, §V-F.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod file;
pub mod node;
pub mod profile;
pub mod storage;

pub use file::{PfsOptions, SgxFile};
pub use profile::{PfsCategory, PfsProfiler, ProfSnapshot};
pub use storage::{FaultyStorage, FileStorage, MemStorage, UntrustedStorage};

/// Node size in bytes (SGX EPC page size; also the IPFS node size).
pub const NODE_SIZE: usize = 4096;

/// Data-node entries per L2 MHT node (mirrors IPFS' 96 attached nodes).
pub const ENTRIES_PER_L2: u64 = 96;

/// L2 entries per L1 MHT node.
pub const ENTRIES_PER_L1: u64 = 100;

/// L1 entries stored in the meta node (caps file size at
/// 100 × 100 × 96 × 4 KiB ≈ 3.7 GiB).
pub const META_L1_ENTRIES: u64 = 100;

/// Default node-cache capacity (the SDK default), in data nodes: Merkle
/// nodes are resident beside them (see [`cache`]).
pub const DEFAULT_CACHE_NODES: usize = 48;

/// Cipher/layout mode of the protected file system.
///
/// The paper measures the stock Intel implementation (§IV-D/E), identifies
/// its overheads, and proposes the §V-F variant; both are reproduced here
/// behind one switch so every experiment can run either way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PfsMode {
    /// Stock Intel SDK behaviour for the work done per node: nodes are
    /// cleared before reuse, node contents cross the enclave boundary
    /// through an extra bounce-buffer copy, and every 4 KiB node is sealed
    /// with AES-GCM. Not stock, in either mode: the SDK counts MHT nodes in
    /// its 48-node cache and reads a node before any write to it; here MHT
    /// nodes are resident and a whole-node write reads nothing.
    Intel,
    /// The paper's §V-F optimised behaviour: redundant clears removed,
    /// zero-copy node access, and AES-CCM (MAC-then-encrypt over data that
    /// is already enclave-resident), trading GCM's parallelism for fewer
    /// passes over the plaintext.
    Optimised,
}

/// Protected file system errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PfsError {
    /// Integrity verification failed — untrusted storage was tampered with.
    Tampered(String),
    /// File or node missing / storage failure.
    Io(String),
    /// Operation out of supported range (file too large, bad seek).
    Range(String),
}

impl core::fmt::Display for PfsError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PfsError::Tampered(m) => write!(f, "integrity violation: {m}"),
            PfsError::Io(m) => write!(f, "i/o error: {m}"),
            PfsError::Range(m) => write!(f, "range error: {m}"),
        }
    }
}

impl std::error::Error for PfsError {}
