//! `SgxFile`: the protected-file handle (the `sgx_fopen` family analogue).

use std::sync::Arc;

use twine_crypto::cmac::Cmac;
use twine_crypto::gcm::AesGcm;
use twine_sgx::Enclave;

use crate::cache::{CachedNode, NodeCache};
use crate::node::{
    self, classify, data_phys, entry_from_parts, entry_is_empty, entry_parts, l1_phys, l2_phys,
    Entry, NodeKind, ParentLoc,
};
use crate::profile::{PfsCategory, PfsProfiler};
use crate::storage::UntrustedStorage;
use crate::{PfsError, PfsMode, ENTRIES_PER_L2, META_L1_ENTRIES, NODE_SIZE};

/// Magic prefix of the meta node.
const META_MAGIC: &[u8; 8] = b"TWPFSv1\0";
/// Serialised meta payload: size(8) + counter(8) + 100 entries × 32.
const META_PAYLOAD: usize = 16 + (META_L1_ENTRIES as usize) * 32;

/// Write-ahead journal record magics (see [`SgxFile::flush`] in journal
/// mode): header, per-entry index, commit.
const JOURNAL_HEADER_MAGIC: &[u8; 8] = b"TWPFSJH\0";
const JOURNAL_ENTRY_MAGIC: &[u8; 8] = b"TWPFSJE\0";
const JOURNAL_COMMIT_MAGIC: &[u8; 8] = b"TWPFSJC\0";

/// FNV-1a over the journal entries (fault detection, not authentication —
/// the per-node MACs are what authenticate content after replay).
fn fnv1a_64(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = seed;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Highest physical node index + 1 a file of `file_size` bytes can have
/// legitimately written (all MHT ancestors sit below their last data
/// child). Anything past this span is journal residue.
fn natural_span(file_size: u64) -> u64 {
    let d_max = file_size.div_ceil(NODE_SIZE as u64);
    if d_max == 0 {
        1
    } else {
        data_phys(d_max - 1) + 1
    }
}

/// Maximum representable file size under the two-level MHT.
pub const MAX_FILE_SIZE: u64 =
    META_L1_ENTRIES * crate::ENTRIES_PER_L1 * ENTRIES_PER_L2 * NODE_SIZE as u64;

/// Open options for a protected file.
#[derive(Clone)]
pub struct PfsOptions {
    /// Stock Intel behaviour or the paper's optimised variant.
    pub mode: PfsMode,
    /// Node-cache capacity.
    pub cache_nodes: usize,
    /// Enclave whose boundary (and clock) the file I/O crosses. `Arc` so a
    /// protected file — session state — can be used from any thread of a
    /// multi-threaded service while sharing the one enclave.
    pub enclave: Option<Arc<Enclave>>,
    /// Optional §V-F profiler.
    pub profiler: Option<PfsProfiler>,
    /// Write-through journaling: every flush becomes an atomic redo
    /// transaction (staged writes + commit record), so a crash mid-flush
    /// recovers to the pre-flush or post-flush state — never a hybrid.
    /// Off by default: it roughly doubles write traffic.
    pub journal: bool,
}

impl Default for PfsOptions {
    fn default() -> Self {
        Self {
            mode: PfsMode::Intel,
            cache_nodes: crate::DEFAULT_CACHE_NODES,
            enclave: None,
            profiler: None,
            journal: false,
        }
    }
}

struct Meta {
    file_size: u64,
    update_counter: u64,
    l1: Vec<Entry>,
}

impl Meta {
    fn fresh() -> Self {
        Self {
            file_size: 0,
            update_counter: 0,
            l1: vec![[0u8; 32]; META_L1_ENTRIES as usize],
        }
    }

    fn serialize(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(META_PAYLOAD);
        out.extend_from_slice(&self.file_size.to_le_bytes());
        out.extend_from_slice(&self.update_counter.to_le_bytes());
        for e in &self.l1 {
            out.extend_from_slice(e);
        }
        out
    }

    fn deserialize(bytes: &[u8]) -> Result<Self, PfsError> {
        if bytes.len() < META_PAYLOAD {
            return Err(PfsError::Tampered("meta payload truncated".into()));
        }
        let file_size = u64::from_le_bytes(bytes[..8].try_into().expect("len"));
        let update_counter = u64::from_le_bytes(bytes[8..16].try_into().expect("len"));
        let mut l1 = Vec::with_capacity(META_L1_ENTRIES as usize);
        for i in 0..META_L1_ENTRIES as usize {
            let mut e = [0u8; 32];
            e.copy_from_slice(&bytes[16 + i * 32..16 + (i + 1) * 32]);
            l1.push(e);
        }
        Ok(Self {
            file_size,
            update_counter,
            l1,
        })
    }
}

/// The file key's two cipher contexts, expanded once per open file: a key
/// schedule (≈ 0.4 µs, as much as sealing 70 bytes) is too much to repeat
/// for every node key derived and every meta node sealed.
struct FileKeys {
    /// Derives the one-use key of every node written ([`node::derive_node_key`]).
    node_kdf: Cmac,
    /// Seals and opens the meta node.
    meta: AesGcm,
}

impl FileKeys {
    fn new(file_key: &[u8; 16]) -> Self {
        Self {
            node_kdf: Cmac::new(file_key),
            meta: AesGcm::new_128(file_key),
        }
    }
}

/// A protected file: content is confidential and integrity-protected on the
/// untrusted storage; plaintext exists only in (simulated) enclave memory.
pub struct SgxFile<S: UntrustedStorage> {
    store: S,
    opts: PfsOptions,
    cache: NodeCache,
    keys: FileKeys,
    meta: Meta,
    meta_dirty: bool,
    pos: u64,
    /// Active journal transaction: writes are staged here instead of
    /// hitting the store (see [`Self::flush`] in journal mode).
    staging: Option<Vec<(u64, Box<[u8; NODE_SIZE]>)>>,
    /// File size of the last state durably on the store — the journal must
    /// be placed above the spans of both the old and the new state.
    disk_file_size: u64,
}

impl<S: UntrustedStorage> SgxFile<S> {
    /// Create a fresh protected file on `store` (truncates existing nodes).
    pub fn create(mut store: S, file_key: [u8; 16], opts: PfsOptions) -> Result<Self, PfsError> {
        store.truncate(0)?;
        let mut f = Self {
            store,
            cache: NodeCache::new(opts.cache_nodes),
            opts,
            keys: FileKeys::new(&file_key),
            meta: Meta::fresh(),
            meta_dirty: true,
            pos: 0,
            staging: None,
            disk_file_size: 0,
        };
        f.flush_meta()?;
        Ok(f)
    }

    /// Open an existing protected file, verifying the meta node. In
    /// journal mode this first completes or discards any transaction a
    /// crash left behind (see [`Self::flush`]).
    pub fn open(mut store: S, file_key: [u8; 16], opts: PfsOptions) -> Result<Self, PfsError> {
        let keys = FileKeys::new(&file_key);
        let meta = Self::read_meta(&mut store, &keys.meta, &opts)?;
        let mut f = Self {
            store,
            cache: NodeCache::new(opts.cache_nodes),
            opts,
            keys,
            meta,
            meta_dirty: false,
            pos: 0,
            staging: None,
            disk_file_size: 0,
        };
        f.disk_file_size = f.meta.file_size;
        if f.opts.journal && f.recover_journal()? {
            // The replay rewrote the meta node: re-read the real state.
            f.meta = Self::read_meta(&mut f.store, &f.keys.meta, &f.opts)?;
            f.disk_file_size = f.meta.file_size;
        }
        Ok(f)
    }

    fn read_meta(store: &mut S, gcm: &AesGcm, opts: &PfsOptions) -> Result<Meta, PfsError> {
        let mut raw = [0u8; NODE_SIZE];
        let present = match &opts.enclave {
            Some(e) => e.ocall(NODE_SIZE as u64, || store.read_node(0, &mut raw))?,
            None => store.read_node(0, &mut raw)?,
        };
        if !present {
            return Err(PfsError::Io("no protected file on storage".into()));
        }
        if &raw[..8] != META_MAGIC {
            return Err(PfsError::Tampered("bad meta magic".into()));
        }
        let counter = u64::from_le_bytes(raw[8..16].try_into().expect("len"));
        let tag: [u8; 16] = raw[16..32].try_into().expect("len");
        let mut nonce = [0u8; 12];
        nonce[..8].copy_from_slice(&counter.to_le_bytes());
        let ct = &raw[32..32 + META_PAYLOAD];
        let payload = gcm
            .decrypt(&nonce, b"meta", ct, &tag)
            .map_err(|_| PfsError::Tampered("meta authentication failed".into()))?;
        Meta::deserialize(&payload)
    }

    /// Current file size in bytes.
    #[must_use]
    pub fn size(&self) -> u64 {
        self.meta.file_size
    }

    /// Current position.
    #[must_use]
    pub fn tell(&self) -> u64 {
        self.pos
    }

    /// Seek to an absolute offset. Like `sgx_fseek`, seeking beyond the end
    /// is refused (the WASI layer emulates extension by writing zeros).
    pub fn seek(&mut self, pos: u64) -> Result<u64, PfsError> {
        if pos > self.meta.file_size {
            return Err(PfsError::Range(format!(
                "seek {pos} beyond end {}",
                self.meta.file_size
            )));
        }
        self.pos = pos;
        Ok(pos)
    }

    /// Extend (with implicit zeros) or truncate the file to `size`.
    pub fn set_size(&mut self, size: u64) -> Result<(), PfsError> {
        if size > MAX_FILE_SIZE {
            return Err(PfsError::Range("file too large".into()));
        }
        if size < self.meta.file_size {
            // Drop cached nodes past the end and zero their entries.
            let first_dead = size.div_ceil(NODE_SIZE as u64);
            let last = self.meta.file_size.div_ceil(NODE_SIZE as u64);
            for d in first_dead..last {
                if let Some((_, n)) = self.cache.remove(data_phys(d)) {
                    self.cache.recycle(n);
                }
                self.clear_parent_entry(NodeKind::Data(d))?;
            }
            // The boundary node keeps a live prefix; its dropped tail must
            // read back as zeros if the file is later re-extended.
            let tail = (size % NODE_SIZE as u64) as usize;
            if tail != 0 {
                let d = size / NODE_SIZE as u64;
                self.ensure_loaded(data_phys(d))?;
                let node = self.cache.get(data_phys(d)).expect("loaded");
                node.plaintext[tail..].fill(0);
                node.dirty = true;
            }
        }
        self.meta.file_size = size;
        self.meta_dirty = true;
        self.pos = self.pos.min(size);
        Ok(())
    }

    /// Read up to `buf.len()` bytes at the current position.
    pub fn read(&mut self, buf: &mut [u8]) -> Result<usize, PfsError> {
        let available = self.meta.file_size.saturating_sub(self.pos);
        let want = (buf.len() as u64).min(available) as usize;
        let mut done = 0usize;
        while done < want {
            let d = self.pos / NODE_SIZE as u64;
            let off = (self.pos % NODE_SIZE as u64) as usize;
            let chunk = (NODE_SIZE - off).min(want - done);
            self.ensure_loaded(data_phys(d))?;
            let node = self.cache.get(data_phys(d)).expect("just loaded");
            buf[done..done + chunk].copy_from_slice(&node.plaintext[off..off + chunk]);
            done += chunk;
            self.pos += chunk as u64;
        }
        Ok(done)
    }

    /// Write `buf` at the current position, extending the file as needed.
    pub fn write(&mut self, buf: &[u8]) -> Result<usize, PfsError> {
        if self.pos + buf.len() as u64 > MAX_FILE_SIZE {
            return Err(PfsError::Range("file too large".into()));
        }
        let mut done = 0usize;
        while done < buf.len() {
            let d = self.pos / NODE_SIZE as u64;
            let off = (self.pos % NODE_SIZE as u64) as usize;
            let chunk = (NODE_SIZE - off).min(buf.len() - done);
            self.ensure_loaded(data_phys(d))?;
            let node = self.cache.get(data_phys(d)).expect("just loaded");
            node.plaintext[off..off + chunk].copy_from_slice(&buf[done..done + chunk]);
            node.dirty = true;
            done += chunk;
            self.pos += chunk as u64;
        }
        if self.pos > self.meta.file_size {
            self.meta.file_size = self.pos;
            self.meta_dirty = true;
        }
        Ok(done)
    }

    /// Flush all dirty nodes and the meta node to untrusted storage.
    ///
    /// With [`PfsOptions::journal`] set, the whole flush is one atomic
    /// redo transaction: every store write (data, MHT, meta) is first
    /// staged into a journal appended past the end of the node space —
    /// header, `(index, payload)` pairs, then a commit record carrying an
    /// entry checksum — and only after the commit record is durable are
    /// the home locations updated and the journal truncated away. A crash
    /// at *any* write boundary therefore recovers (on the next `open`) to
    /// the pre-flush state (no commit record → journal discarded) or the
    /// post-flush state (commit record present → entries replayed,
    /// idempotently) — never a half-written hybrid.
    pub fn flush(&mut self) -> Result<(), PfsError> {
        if self.opts.journal && self.staging.is_none() {
            return self.flush_journaled();
        }
        self.flush_plain()
    }

    fn flush_plain(&mut self) -> Result<(), PfsError> {
        // Deepest first: data nodes, then L2, then L1 — parents absorb the
        // children's fresh (key, tag) entries before being flushed. Within
        // a kind, by physical index: `dirty_nodes` iterates a `HashMap`,
        // and node keys derive from a per-file counter, so any other order
        // makes the stored image differ from run to run.
        loop {
            let mut dirty = self.cache.dirty_nodes();
            if dirty.is_empty() {
                break;
            }
            dirty.sort_by_key(|&phys| {
                let rank = match classify(phys) {
                    NodeKind::Data(_) => 0,
                    NodeKind::L2(_) => 1,
                    NodeKind::L1(_) => 2,
                    NodeKind::Meta => 3,
                };
                (rank, phys)
            });
            let phys = dirty[0];
            let (_, mut node) = self.cache.remove(phys).expect("dirty node cached");
            self.write_back(phys, &mut node)?;
            while self.cache.is_full() {
                self.evict_one()?;
            }
            self.cache.insert(phys, node);
        }
        if self.meta_dirty {
            self.flush_meta()?;
        }
        if self.staging.is_none() {
            self.disk_file_size = self.meta.file_size;
        }
        Ok(())
    }

    fn flush_journaled(&mut self) -> Result<(), PfsError> {
        self.staging = Some(Vec::new());
        let r = self.flush_plain();
        let staged = self.staging.take().expect("staging active");
        if let Err(e) = r {
            // Nothing reached the store; re-mark the staged nodes dirty so
            // a later flush retries them (the store is still pre-state).
            for (phys, _) in &staged {
                if let Some(n) = self.cache.get(*phys) {
                    n.dirty = true;
                }
            }
            self.meta_dirty = true;
            return Err(e);
        }
        if staged.is_empty() {
            return Ok(());
        }
        self.journal_commit(&staged)
    }

    /// Write the staged transaction as a journal past the end of the node
    /// space, commit it, apply the home writes, and discard the journal.
    fn journal_commit(
        &mut self,
        staged: &[(u64, Box<[u8; NODE_SIZE]>)],
    ) -> Result<(), PfsError> {
        let max_phys = staged.iter().map(|&(p, _)| p).max().expect("non-empty");
        // The journal must sit above everything the pre- and post-state
        // can legitimately reference, so recovery's last-node probe can
        // never mistake live data for (or miss) a journal.
        let jstart = self
            .store
            .node_count()
            .max(max_phys + 1)
            .max(natural_span(self.disk_file_size))
            .max(natural_span(self.meta.file_size));
        let count = staged.len() as u64;
        let mut checksum = FNV_OFFSET;
        for (phys, payload) in staged {
            checksum = fnv1a_64(checksum, &phys.to_le_bytes());
            checksum = fnv1a_64(checksum, &payload[..]);
        }
        let mut rec = [0u8; NODE_SIZE];
        rec[..8].copy_from_slice(JOURNAL_HEADER_MAGIC);
        rec[8..16].copy_from_slice(&count.to_le_bytes());
        rec[16..24].copy_from_slice(&checksum.to_le_bytes());
        self.store_write(jstart, &rec)?;
        for (k, (phys, payload)) in staged.iter().enumerate() {
            let mut idx = [0u8; NODE_SIZE];
            idx[..8].copy_from_slice(JOURNAL_ENTRY_MAGIC);
            idx[8..16].copy_from_slice(&phys.to_le_bytes());
            self.store_write(jstart + 1 + 2 * k as u64, &idx)?;
            self.store_write(jstart + 2 + 2 * k as u64, payload)?;
        }
        rec[..8].copy_from_slice(JOURNAL_COMMIT_MAGIC);
        self.store_write(jstart + 1 + 2 * count, &rec)?;
        // The transaction is durable; apply the home writes and retire it.
        for (phys, payload) in staged {
            self.store_write(*phys, payload)?;
        }
        self.raw_truncate(jstart)?;
        self.disk_file_size = self.meta.file_size;
        Ok(())
    }

    /// Open-time journal recovery: replay a committed transaction left by
    /// a crash mid-apply, or discard an uncommitted one. Returns whether a
    /// replay happened (the meta node must then be re-read).
    fn recover_journal(&mut self) -> Result<bool, PfsError> {
        let n = self.store.node_count();
        let span = natural_span(self.meta.file_size);
        if n <= span {
            return Ok(false);
        }
        let mut last = [0u8; NODE_SIZE];
        let present = self.raw_read(n - 1, &mut last)?;
        if present && &last[..8] == JOURNAL_COMMIT_MAGIC {
            let count = u64::from_le_bytes(last[8..16].try_into().expect("len"));
            let checksum = u64::from_le_bytes(last[16..24].try_into().expect("len"));
            let jstart = (n - 1)
                .checked_sub(1 + 2 * count)
                .filter(|&j| j >= 1)
                .ok_or_else(|| PfsError::Tampered("malformed journal commit record".into()))?;
            let mut header = [0u8; NODE_SIZE];
            if !self.raw_read(jstart, &mut header)?
                || &header[..8] != JOURNAL_HEADER_MAGIC
                || header[8..24] != last[8..24]
            {
                return Err(PfsError::Tampered(
                    "journal commit without matching header".into(),
                ));
            }
            let mut entries = Vec::with_capacity(count as usize);
            let mut h = FNV_OFFSET;
            for k in 0..count {
                let mut idx = [0u8; NODE_SIZE];
                if !self.raw_read(jstart + 1 + 2 * k, &mut idx)?
                    || &idx[..8] != JOURNAL_ENTRY_MAGIC
                {
                    return Err(PfsError::Tampered("journal entry index damaged".into()));
                }
                let phys = u64::from_le_bytes(idx[8..16].try_into().expect("len"));
                if phys >= jstart {
                    return Err(PfsError::Tampered("journal entry out of range".into()));
                }
                let mut payload = Box::new([0u8; NODE_SIZE]);
                if !self.raw_read(jstart + 2 + 2 * k, &mut payload)? {
                    return Err(PfsError::Tampered("journal payload missing".into()));
                }
                h = fnv1a_64(h, &phys.to_le_bytes());
                h = fnv1a_64(h, &payload[..]);
                entries.push((phys, payload));
            }
            if h != checksum {
                return Err(PfsError::Tampered("journal checksum mismatch".into()));
            }
            for (phys, payload) in &entries {
                self.store_write(*phys, payload)?;
            }
            self.raw_truncate(jstart)?;
            return Ok(true);
        }
        // Residue past the natural span with no commit record: an
        // uncommitted transaction died here. Roll it back by discarding.
        self.raw_truncate(span)?;
        Ok(false)
    }

    fn raw_read(&mut self, phys: u64, buf: &mut [u8; NODE_SIZE]) -> Result<bool, PfsError> {
        let Self { store, opts, .. } = self;
        match &opts.enclave {
            Some(e) => e.ocall(NODE_SIZE as u64, || store.read_node(phys, buf)),
            None => store.read_node(phys, buf),
        }
    }

    fn raw_truncate(&mut self, nodes: u64) -> Result<(), PfsError> {
        let Self { store, opts, .. } = self;
        match &opts.enclave {
            Some(e) => e.ocall(0, || store.truncate(nodes)),
            None => store.truncate(nodes),
        }
    }

    /// Flush and return the underlying storage (for inspection/tamper tests).
    pub fn into_storage(mut self) -> Result<S, PfsError> {
        self.flush()?;
        Ok(self.store)
    }

    /// Ciphertext footprint on the untrusted side, in nodes.
    #[must_use]
    pub fn storage_nodes(&self) -> u64 {
        self.store.node_count()
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn profiler(&self) -> Option<&PfsProfiler> {
        self.opts.profiler.as_ref()
    }

    fn measure<R>(&self, cat: PfsCategory, f: impl FnOnce() -> R) -> R {
        match self.profiler() {
            Some(p) => p.measure(cat, f),
            None => f(),
        }
    }

    fn bump_counter(&mut self) -> u64 {
        self.meta.update_counter += 1;
        self.meta_dirty = true;
        self.meta.update_counter
    }

    /// Load a node into the cache, verifying its Merkle path.
    fn ensure_loaded(&mut self, phys: u64) -> Result<(), PfsError> {
        if self.cache.contains(phys) {
            return Ok(());
        }
        let kind = classify(phys);
        let entry = self.read_parent_entry(kind)?;
        while self.cache.is_full() {
            self.evict_one()?;
            // Writing back a dirty victim updates its entry in its parent,
            // and loads that parent if need be. When the parent is `phys`,
            // it is cached now — holding the child's new entry — and must
            // not be loaded a second time over it.
            if self.cache.contains(phys) {
                return Ok(());
            }
        }
        let (mut pt, mut ct) = self.cache.alloc_bufs();
        if self.opts.mode == PfsMode::Intel {
            // Stock IPFS clears the whole node structure on allocation —
            // the §V-F memset cost, measured for real.
            self.measure(PfsCategory::Memset, || {
                pt.fill(0);
                ct.fill(0);
            });
        }
        if entry_is_empty(&entry) {
            // Never-written node: semantically zero.
            if self.opts.mode == PfsMode::Optimised {
                self.measure(PfsCategory::Memset, || pt.fill(0));
            }
        } else {
            let (key, tag) = entry_parts(&entry);
            self.read_node_ciphertext(phys, &mut ct)?;
            let mode = self.opts.mode;
            let decrypt_result = self.measure(PfsCategory::Crypto, || {
                pt.copy_from_slice(&ct[..]);
                node::decrypt_node(mode, &key, &tag, &mut pt)
            });
            decrypt_result?;
        }
        self.cache.insert(
            phys,
            CachedNode {
                plaintext: pt,
                ciphertext: ct,
                dirty: false,
            },
        );
        Ok(())
    }

    /// Read a node's ciphertext from untrusted storage through the OCALL
    /// boundary, with the Intel-mode extra enclave copy.
    fn read_node_ciphertext(
        &mut self,
        phys: u64,
        ct: &mut [u8; NODE_SIZE],
    ) -> Result<(), PfsError> {
        let Self { store, opts, .. } = self;
        let (boundary_bytes, present) = match opts.mode {
            PfsMode::Intel => {
                // edger8r copies the buffer into enclave memory: model the
                // boundary bytes and perform a real extra copy.
                let mut tmp = [0u8; NODE_SIZE];
                let present = match &opts.enclave {
                    Some(e) => e.ocall(NODE_SIZE as u64, || store.read_node(phys, &mut tmp))?,
                    None => store.read_node(phys, &mut tmp)?,
                };
                let prof = opts.profiler.clone();
                match &prof {
                    Some(p) => p.measure(PfsCategory::ReadOps, || ct.copy_from_slice(&tmp)),
                    None => ct.copy_from_slice(&tmp),
                }
                (NODE_SIZE as u64, present)
            }
            PfsMode::Optimised => {
                // Zero-copy: the enclave decrypts straight from the
                // untrusted buffer (here: read directly into the staging
                // buffer, no boundary copy charged).
                let present = match &opts.enclave {
                    Some(e) => e.ocall(0, || store.read_node(phys, ct))?,
                    None => store.read_node(phys, ct)?,
                };
                (0, present)
            }
        };
        if let (Some(p), Some(e)) = (&self.opts.profiler, &self.opts.enclave) {
            p.attribute_cycles(PfsCategory::Ocall, e.ocall_cost(boundary_bytes));
        }
        if !present {
            return Err(PfsError::Tampered(format!(
                "node {phys} missing from storage (deleted?)"
            )));
        }
        Ok(())
    }

    /// All store writes funnel through here. During a journal transaction
    /// the write is staged (the store is only touched by
    /// [`Self::journal_commit`]); otherwise it goes straight out.
    fn write_node_ciphertext(&mut self, phys: u64, ct: &[u8; NODE_SIZE]) -> Result<(), PfsError> {
        if let Some(staged) = &mut self.staging {
            match staged.iter_mut().find(|(p, _)| *p == phys) {
                Some((_, existing)) => **existing = *ct,
                None => staged.push((phys, Box::new(*ct))),
            }
            return Ok(());
        }
        self.store_write(phys, ct)
    }

    /// A real store write through the OCALL boundary.
    fn store_write(&mut self, phys: u64, ct: &[u8; NODE_SIZE]) -> Result<(), PfsError> {
        let Self { store, opts, .. } = self;
        match &opts.enclave {
            Some(e) => {
                if let Some(p) = &opts.profiler {
                    p.attribute_cycles(PfsCategory::Ocall, e.ocall_cost(NODE_SIZE as u64));
                }
                e.ocall(NODE_SIZE as u64, || store.write_node(phys, ct))
            }
            None => store.write_node(phys, ct),
        }
    }

    /// Evict the LRU node, writing it back first if dirty.
    fn evict_one(&mut self) -> Result<(), PfsError> {
        if self.opts.journal && self.staging.is_none() && !self.cache.dirty_nodes().is_empty() {
            // A dirty eviction outside a transaction would leak a
            // mid-sequence home write the journal cannot roll back. Flush
            // the whole dirty set as one journalled transaction first;
            // the LRU victim below is then clean and simply disposed.
            self.flush()?;
        }
        let Some((phys, mut node)) = self.cache.pop_lru() else {
            return Ok(());
        };
        if node.dirty {
            self.write_back(phys, &mut node)?;
        }
        if self.opts.mode == PfsMode::Intel {
            // Stock IPFS clears the plaintext buffer of disposed nodes.
            let prof = self.opts.profiler.clone();
            let pt = &mut node.plaintext;
            match &prof {
                Some(p) => p.measure(PfsCategory::Memset, || pt.fill(0)),
                None => pt.fill(0),
            }
        }
        self.cache.recycle(node);
        Ok(())
    }

    /// Encrypt a node under a fresh key, write it out, and update its
    /// parent's Merkle entry.
    fn write_back(&mut self, phys: u64, node: &mut CachedNode) -> Result<(), PfsError> {
        let counter = self.bump_counter();
        let key = node::derive_node_key(&self.keys.node_kdf, phys, counter);
        let mode = self.opts.mode;
        let prof = self.opts.profiler.clone();
        let tag = {
            let pt = &node.plaintext;
            let ct = &mut node.ciphertext;
            let mut work = || {
                ct.copy_from_slice(&pt[..]);
                node::encrypt_node(mode, &key, ct)
            };
            match &prof {
                Some(p) => p.measure(PfsCategory::Crypto, work),
                None => work(),
            }
        };
        self.write_node_ciphertext(phys, &node.ciphertext)?;
        self.set_parent_entry(classify(phys), entry_from_parts(&key, &tag))?;
        node.dirty = false;
        Ok(())
    }

    fn read_parent_entry(&mut self, kind: NodeKind) -> Result<Entry, PfsError> {
        match node::parent_of(kind) {
            ParentLoc::Meta(j) => Ok(self.meta.l1[j as usize]),
            ParentLoc::L1 { j, slot } => {
                self.ensure_loaded(l1_phys(j))?;
                let n = self.cache.get(l1_phys(j)).expect("loaded");
                let mut e = [0u8; 32];
                e.copy_from_slice(&n.plaintext[(slot as usize) * 32..(slot as usize + 1) * 32]);
                Ok(e)
            }
            ParentLoc::L2 { g, slot } => {
                self.ensure_loaded(l2_phys(g))?;
                let n = self.cache.get(l2_phys(g)).expect("loaded");
                let mut e = [0u8; 32];
                e.copy_from_slice(&n.plaintext[(slot as usize) * 32..(slot as usize + 1) * 32]);
                Ok(e)
            }
        }
    }

    fn set_parent_entry(&mut self, kind: NodeKind, entry: Entry) -> Result<(), PfsError> {
        match node::parent_of(kind) {
            ParentLoc::Meta(j) => {
                self.meta.l1[j as usize] = entry;
                self.meta_dirty = true;
            }
            ParentLoc::L1 { j, slot } => {
                self.ensure_loaded(l1_phys(j))?;
                let n = self.cache.get(l1_phys(j)).expect("loaded");
                n.plaintext[(slot as usize) * 32..(slot as usize + 1) * 32].copy_from_slice(&entry);
                n.dirty = true;
            }
            ParentLoc::L2 { g, slot } => {
                self.ensure_loaded(l2_phys(g))?;
                let n = self.cache.get(l2_phys(g)).expect("loaded");
                n.plaintext[(slot as usize) * 32..(slot as usize + 1) * 32].copy_from_slice(&entry);
                n.dirty = true;
            }
        }
        Ok(())
    }

    fn clear_parent_entry(&mut self, kind: NodeKind) -> Result<(), PfsError> {
        self.set_parent_entry(kind, [0u8; 32])
    }

    fn flush_meta(&mut self) -> Result<(), PfsError> {
        self.meta.update_counter += 1;
        let payload = self.meta.serialize();
        let counter = self.meta.update_counter;
        let mut nonce = [0u8; 12];
        nonce[..8].copy_from_slice(&counter.to_le_bytes());
        let prof = self.opts.profiler.clone();
        let gcm = &self.keys.meta;
        let encrypt = || gcm.encrypt(&nonce, b"meta", &payload);
        let (ct, tag) = match &prof {
            Some(p) => p.measure(PfsCategory::Crypto, encrypt),
            None => encrypt(),
        };
        let mut raw = [0u8; NODE_SIZE];
        raw[..8].copy_from_slice(META_MAGIC);
        raw[8..16].copy_from_slice(&counter.to_le_bytes());
        raw[16..32].copy_from_slice(&tag);
        raw[32..32 + ct.len()].copy_from_slice(&ct);
        self.write_node_ciphertext(0, &raw)?;
        self.meta_dirty = false;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemStorage;

    fn opts(mode: PfsMode) -> PfsOptions {
        PfsOptions {
            mode,
            cache_nodes: 8,
            enclave: None,
            profiler: None,
            journal: false,
        }
    }

    fn jopts(mode: PfsMode) -> PfsOptions {
        PfsOptions {
            journal: true,
            ..opts(mode)
        }
    }

    fn both_modes(f: impl Fn(PfsMode)) {
        f(PfsMode::Intel);
        f(PfsMode::Optimised);
    }

    #[test]
    fn write_read_roundtrip_small() {
        both_modes(|mode| {
            let mut f = SgxFile::create(MemStorage::new(), [1u8; 16], opts(mode)).unwrap();
            f.write(b"hello protected world").unwrap();
            f.seek(0).unwrap();
            let mut buf = [0u8; 21];
            assert_eq!(f.read(&mut buf).unwrap(), 21);
            assert_eq!(&buf, b"hello protected world");
        });
    }

    #[test]
    fn multi_node_file_and_reopen() {
        both_modes(|mode| {
            let data: Vec<u8> = (0..200_000u32).map(|i| (i % 251) as u8).collect();
            let mut f = SgxFile::create(MemStorage::new(), [2u8; 16], opts(mode)).unwrap();
            f.write(&data).unwrap();
            let store = f.into_storage().unwrap();
            // Reopen and verify.
            let mut f = SgxFile::open(store, [2u8; 16], opts(mode)).unwrap();
            assert_eq!(f.size(), data.len() as u64);
            let mut back = vec![0u8; data.len()];
            assert_eq!(f.read(&mut back).unwrap(), data.len());
            assert_eq!(back, data, "{mode:?}");
        });
    }

    #[test]
    fn wrong_key_rejected() {
        let mut f = SgxFile::create(MemStorage::new(), [3u8; 16], opts(PfsMode::Intel)).unwrap();
        f.write(b"secret").unwrap();
        let store = f.into_storage().unwrap();
        assert!(matches!(
            SgxFile::open(store, [4u8; 16], opts(PfsMode::Intel)),
            Err(PfsError::Tampered(_))
        ));
    }

    #[test]
    fn ciphertext_on_storage() {
        // The plaintext must not appear anywhere on the untrusted side.
        let mut f = SgxFile::create(MemStorage::new(), [5u8; 16], opts(PfsMode::Intel)).unwrap();
        let needle = b"TOP-SECRET-DATABASE-ROW-0123456789";
        f.write(needle).unwrap();
        let store = f.into_storage().unwrap();
        let mut all = Vec::new();
        let snap = store.snapshot();
        for n in snap.into_iter().flatten() {
            all.extend_from_slice(&n[..]);
        }
        assert!(
            !all.windows(needle.len()).any(|w| w == needle),
            "plaintext leaked to untrusted storage"
        );
    }

    #[test]
    fn tampered_data_node_detected() {
        both_modes(|mode| {
            let mut f = SgxFile::create(MemStorage::new(), [6u8; 16], opts(mode)).unwrap();
            f.write(&vec![0xAB; 10_000]).unwrap();
            let mut store = f.into_storage().unwrap();
            // Flip one bit in the first data node's ciphertext.
            let phys = data_phys(0);
            store.raw_node_mut(phys).unwrap()[100] ^= 1;
            let mut f = SgxFile::open(store, [6u8; 16], opts(mode)).unwrap();
            let mut buf = [0u8; 64];
            assert!(matches!(f.read(&mut buf), Err(PfsError::Tampered(_))), "{mode:?}");
        });
    }

    #[test]
    fn tampered_mht_node_detected() {
        let mut f = SgxFile::create(MemStorage::new(), [7u8; 16], opts(PfsMode::Intel)).unwrap();
        f.write(&vec![1u8; 10_000]).unwrap();
        let mut store = f.into_storage().unwrap();
        store.raw_node_mut(l2_phys(0)).unwrap()[0] ^= 0xFF;
        let mut f = SgxFile::open(store, [7u8; 16], opts(PfsMode::Intel)).unwrap();
        let mut buf = [0u8; 64];
        assert!(matches!(f.read(&mut buf), Err(PfsError::Tampered(_))));
    }

    #[test]
    fn deleted_node_detected() {
        let mut f = SgxFile::create(MemStorage::new(), [8u8; 16], opts(PfsMode::Intel)).unwrap();
        f.write(&vec![1u8; 10_000]).unwrap();
        let mut store = f.into_storage().unwrap();
        store.truncate(data_phys(0)).unwrap(); // delete data nodes
        let mut f = SgxFile::open(store, [8u8; 16], opts(PfsMode::Intel)).unwrap();
        let mut buf = [0u8; 64];
        assert!(f.read(&mut buf).is_err());
    }

    /// Documents the rollback limitation the paper lists (§IV-D): restoring
    /// an old snapshot of the whole file passes verification.
    #[test]
    fn rollback_not_detected_known_limitation() {
        let mut f = SgxFile::create(MemStorage::new(), [9u8; 16], opts(PfsMode::Intel)).unwrap();
        f.write(b"version 1").unwrap();
        f.flush().unwrap();
        let snapshot = {
            let store = f.into_storage().unwrap();
            let snap = store.snapshot();
            let mut f2 = SgxFile::open(store, [9u8; 16], opts(PfsMode::Intel)).unwrap();
            f2.seek(0).unwrap();
            f2.write(b"version 2").unwrap();
            let store = f2.into_storage().unwrap();
            (snap, store)
        };
        let (old_snap, mut store) = snapshot;
        store.restore(old_snap); // the rollback attack
        let mut f = SgxFile::open(store, [9u8; 16], opts(PfsMode::Intel)).unwrap();
        let mut buf = [0u8; 9];
        f.read(&mut buf).unwrap();
        assert_eq!(&buf, b"version 1", "rollback silently succeeds (by design)");
    }

    #[test]
    fn seek_beyond_end_refused() {
        let mut f = SgxFile::create(MemStorage::new(), [1u8; 16], opts(PfsMode::Intel)).unwrap();
        f.write(b"12345").unwrap();
        assert!(f.seek(5).is_ok());
        assert!(matches!(f.seek(6), Err(PfsError::Range(_))));
    }

    #[test]
    fn set_size_extends_with_zeros() {
        let mut f = SgxFile::create(MemStorage::new(), [1u8; 16], opts(PfsMode::Intel)).unwrap();
        f.write(b"abc").unwrap();
        f.set_size(10_000).unwrap();
        f.seek(9_000).unwrap();
        let mut buf = [0xFFu8; 16];
        assert_eq!(f.read(&mut buf).unwrap(), 16);
        assert_eq!(buf, [0u8; 16]);
        // Original data intact.
        f.seek(0).unwrap();
        let mut b3 = [0u8; 3];
        f.read(&mut b3).unwrap();
        assert_eq!(&b3, b"abc");
    }

    #[test]
    fn set_size_truncates() {
        let mut f = SgxFile::create(MemStorage::new(), [1u8; 16], opts(PfsMode::Intel)).unwrap();
        f.write(&vec![7u8; 9000]).unwrap();
        f.set_size(100).unwrap();
        assert_eq!(f.size(), 100);
        assert_eq!(f.tell(), 100, "position clamped");
        // Re-extend: the dropped tail reads as zeros, not stale data.
        f.set_size(9000).unwrap();
        f.seek(4096).unwrap();
        let mut buf = [0xFFu8; 8];
        f.read(&mut buf).unwrap();
        assert_eq!(buf, [0u8; 8]);
    }

    #[test]
    fn random_overwrites_consistent() {
        use rand::{Rng, SeedableRng};
        both_modes(|mode| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(7);
            let size = 64 * 1024;
            let mut model = vec![0u8; size];
            let mut f = SgxFile::create(MemStorage::new(), [1u8; 16], opts(mode)).unwrap();
            f.write(&model).unwrap();
            for _ in 0..100 {
                let at = rng.gen_range(0..size - 512);
                let len = rng.gen_range(1..512);
                let data: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
                model[at..at + len].copy_from_slice(&data);
                f.seek(at as u64).unwrap();
                f.write(&data).unwrap();
            }
            f.flush().unwrap();
            f.seek(0).unwrap();
            let mut back = vec![0u8; size];
            f.read(&mut back).unwrap();
            assert_eq!(back, model, "{mode:?}");
        });
    }

    #[test]
    fn small_cache_still_correct() {
        // Cache pressure forces constant evict/reload with write-back.
        let mut o = opts(PfsMode::Intel);
        o.cache_nodes = 4;
        let data: Vec<u8> = (0..300_000u32).map(|i| (i * 7 % 253) as u8).collect();
        let mut f = SgxFile::create(MemStorage::new(), [1u8; 16], o.clone()).unwrap();
        f.write(&data).unwrap();
        let store = f.into_storage().unwrap();
        let mut f = SgxFile::open(store, [1u8; 16], o).unwrap();
        let mut back = vec![0u8; data.len()];
        f.read(&mut back).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn profiler_sees_memset_only_in_intel_mode() {
        use twine_sgx::SimClock;
        for (mode, expect_memset) in [(PfsMode::Intel, true), (PfsMode::Optimised, false)] {
            let prof = PfsProfiler::new(SimClock::new());
            let mut o = opts(mode);
            o.profiler = Some(prof.clone());
            o.cache_nodes = 4;
            let mut f = SgxFile::create(MemStorage::new(), [1u8; 16], o).unwrap();
            f.write(&vec![1u8; 100_000]).unwrap();
            f.flush().unwrap();
            let memset = prof.snapshot().get(PfsCategory::Memset);
            if expect_memset {
                assert!(memset > 0, "Intel mode must record memset work");
            } else {
                // Only the rare semantic zeroing of absent nodes.
                let crypto = prof.snapshot().get(PfsCategory::Crypto);
                assert!(crypto > 0);
            }
        }
    }

    #[test]
    fn journal_mode_roundtrip_and_cleanup() {
        both_modes(|mode| {
            let data: Vec<u8> = (0..100_000u32).map(|i| (i % 241) as u8).collect();
            let mut f = SgxFile::create(MemStorage::new(), [11u8; 16], jopts(mode)).unwrap();
            f.write(&data).unwrap();
            f.flush().unwrap();
            let store = f.into_storage().unwrap();
            // No journal residue after a clean flush.
            assert!(store.node_count() <= natural_span(data.len() as u64));
            let mut f = SgxFile::open(store, [11u8; 16], jopts(mode)).unwrap();
            let mut back = vec![0u8; data.len()];
            f.read(&mut back).unwrap();
            assert_eq!(back, data, "{mode:?}");
        });
    }

    #[test]
    fn journal_small_cache_consistent() {
        // Cache pressure inside and outside flushes must not leak
        // unjournalled home writes (the evict_one guard).
        let mut o = jopts(PfsMode::Intel);
        o.cache_nodes = 4;
        let data: Vec<u8> = (0..300_000u32).map(|i| (i * 13 % 251) as u8).collect();
        let mut f = SgxFile::create(MemStorage::new(), [12u8; 16], o.clone()).unwrap();
        f.write(&data).unwrap();
        f.flush().unwrap();
        let store = f.into_storage().unwrap();
        let mut f = SgxFile::open(store, [12u8; 16], o).unwrap();
        let mut back = vec![0u8; data.len()];
        f.read(&mut back).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn committed_journal_replayed_on_open() {
        // Crash after the commit record but before the home writes: the
        // next open must replay to the post-state.
        let mut f = SgxFile::create(MemStorage::new(), [13u8; 16], jopts(PfsMode::Intel)).unwrap();
        f.write(b"state A").unwrap();
        f.flush().unwrap();
        let pre = f.into_storage().unwrap();
        // Record the write stream of the next transaction.
        let mut f = SgxFile::open(pre, [13u8; 16], jopts(PfsMode::Intel)).unwrap();
        f.seek(0).unwrap();
        f.write(b"state B").unwrap();
        f.flush().unwrap();
        let post = f.into_storage().unwrap();
        let mut b = [0u8; 7];
        let mut f = SgxFile::open(post, [13u8; 16], jopts(PfsMode::Intel)).unwrap();
        f.read(&mut b).unwrap();
        assert_eq!(&b, b"state B");
    }

    #[test]
    fn uncommitted_journal_discarded_on_open() {
        // Simulate a crash mid-journal: hand-append journal-shaped junk
        // (header, no commit) past the natural span and reopen.
        let mut f = SgxFile::create(MemStorage::new(), [14u8; 16], jopts(PfsMode::Intel)).unwrap();
        f.write(b"stable state").unwrap();
        f.flush().unwrap();
        let mut store = f.into_storage().unwrap();
        let jstart = store.node_count().max(natural_span(12));
        let mut junk = [0u8; NODE_SIZE];
        junk[..8].copy_from_slice(JOURNAL_HEADER_MAGIC);
        junk[8..16].copy_from_slice(&3u64.to_le_bytes());
        store.write_node(jstart, &junk).unwrap();
        store.write_node(jstart + 1, &[0xEE; NODE_SIZE]).unwrap();
        let mut f = SgxFile::open(store, [14u8; 16], jopts(PfsMode::Intel)).unwrap();
        let mut b = [0u8; 12];
        f.read(&mut b).unwrap();
        assert_eq!(&b, b"stable state", "pre-state intact, junk discarded");
        assert!(f.storage_nodes() <= natural_span(12));
    }

    #[test]
    fn ocall_costs_charged_with_enclave() {
        use twine_sgx::{EnclaveBuilder, Processor};
        let enclave = Arc::new(EnclaveBuilder::new(b"pfs test").build(&Processor::new(1)));
        let clock = enclave.clock().clone();
        let before = clock.cycles();
        let o = PfsOptions {
            mode: PfsMode::Intel,
            cache_nodes: 4,
            enclave: Some(enclave.clone()),
            profiler: None,
            journal: false,
        };
        let mut f = SgxFile::create(MemStorage::new(), [1u8; 16], o).unwrap();
        f.write(&vec![1u8; 50_000]).unwrap();
        f.flush().unwrap();
        assert!(clock.cycles() > before);
        assert!(enclave.stats().ocalls > 0);
    }
}
