//! The pager: page cache, transactions, and the delete-mode rollback
//! journal (SQLite's default journal mode, used by the paper's benchmarks).
//!
//! Every database takes the same path: a clock page cache over one
//! [`Vfs`] file, with the rollback journal beside it in the same [`Vfs`].
//! An in-memory database is this pager over a fresh
//! [`MemVfs`](crate::MemVfs), journal included.
//!
//! Every page, the header (page 1) and freelist trunks included, moves
//! through the cache. A page's first change journals its pre-image unless
//! its content is dead: allocated past the file's end, or long free.
//!
//! The cache holds 2048 4-KiB pages by default — the 8 MiB SQLite page
//! cache the paper configures (§V-C). Figure 5b's "sharp increase up to
//! twice the cache size" behaviour comes from exactly this structure.

use std::collections::{HashMap, HashSet};

use crate::vfs::{Vfs, VfsFile};
use crate::{DbError, DbResult, PAGE_SIZE};

/// 1-based page identifier; page 1 is the database header.
pub type PageId = u32;

/// Default page-cache capacity (2048 pages = 8 MiB).
pub const DEFAULT_CACHE_PAGES: usize = 2048;

const HEADER_MAGIC: &[u8; 16] = b"twine-sqldb v1\0\0";
const JOURNAL_MAGIC: &[u8; 8] = b"twjrnl1\0";

/// Maximum freelist entries storable in the header page.
const MAX_FREELIST: usize = (PAGE_SIZE - 64) / 4;

/// Magic tag of a freelist trunk page (overflow freelist storage).
const TRUNK_MAGIC: &[u8; 4] = b"FLT1";

/// Freelist ids per trunk page: 4-byte magic + 4-byte next pointer +
/// 4-byte count, then packed ids.
const TRUNK_CAP: usize = (PAGE_SIZE - 12) / 4;

type PageBuf = Box<[u8; PAGE_SIZE]>;

fn new_page() -> PageBuf {
    Box::new([0u8; PAGE_SIZE])
}

/// Byte offset of page `id` in the database file.
fn page_offset(id: PageId) -> u64 {
    u64::from(id - 1) * PAGE_SIZE as u64
}

/// Byte offset of journal entry `n`: a 16-byte header, then `(page id,
/// pre-image)` entries.
fn journal_entry_offset(n: u32) -> u64 {
    16 + u64::from(n) * (4 + PAGE_SIZE as u64)
}

/// The little-endian `u32` at `buf[at..at + 4]`.
fn le_u32(buf: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([buf[at], buf[at + 1], buf[at + 2], buf[at + 3]])
}

/// The rollback journal's file name for the database named `db` — the one
/// place the name is made, for the pager and for any [`Vfs`] that serves
/// the journal from somewhere other than the database file's home.
#[must_use]
pub fn journal_path(db: &str) -> String {
    format!("{db}-journal")
}

/// Observation hook: `(page_id, is_write)` for every page a caller asks
/// for through [`Pager::get`] or [`Pager::get_mut`], before the cache is
/// consulted — the seam the EPC simulator and I/O accounting attach to.
/// The pager's own header and freelist-trunk accesses are not reported.
/// `Send` so a connection (hook included) can be used by successive
/// caller threads.
pub type PageHook = Box<dyn FnMut(PageId, bool) + Send>;

struct CacheSlot {
    /// The page held; 0 while the slot is being refilled (and after a
    /// refill whose read failed), which no lookup maps to.
    id: PageId,
    buf: PageBuf,
    dirty: bool,
    referenced: bool,
}

/// I/O statistics (drives the harness' virtual-time I/O model).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PagerStats {
    /// Pages read from the VFS.
    pub page_reads: u64,
    /// Pages written to the VFS.
    pub page_writes: u64,
    /// Cache hits.
    pub cache_hits: u64,
    /// fsync calls.
    pub syncs: u64,
    /// Journal page writes.
    pub journal_writes: u64,
    /// Page ids dropped from freelist tracking. The overflow trunk chain
    /// makes the freelist unbounded, so this must stay 0 — it exists as a
    /// regression gauge for the historical `MAX_FREELIST` drop bug.
    pub leaked_pages: u64,
}

/// The pager.
pub struct Pager {
    /// The database file.
    file: Box<dyn VfsFile>,
    /// The namespace the database file and its journal live in.
    vfs: Box<dyn Vfs>,
    journal_name: String,
    /// The rollback journal, open from the first change of a transaction
    /// to its end: a transaction that changes nothing never opens it.
    journal: Option<Box<dyn VfsFile>>,
    /// Entries in the open journal (0 while none is open).
    journal_count: u32,
    /// The entry count the journal's header holds, synced: what a
    /// hot-journal recovery would replay.
    journal_synced: u32,
    /// Clock-hand page cache; every slot holds a page (an evicted slot is
    /// refilled in place), and `map` finds it by id.
    slots: Vec<CacheSlot>,
    map: HashMap<PageId, usize>,
    hand: usize,
    cache_limit: usize,
    n_pages: u32,
    freelist: Vec<PageId>,
    /// Pages currently holding overflow freelist storage (the on-disk
    /// trunk chain); disjoint from `freelist` and never handed out by
    /// `allocate` until `plan_spill` returns them.
    freelist_trunks: Vec<PageId>,
    /// See [`Self::pages_freed`].
    pages_freed: u64,
    in_txn: bool,
    /// Pages that need no journal entry before a change: those whose
    /// pre-image this transaction journaled (with the entry's index), and
    /// those it allocated with dead content (`None`).
    journaled: HashMap<PageId, Option<u32>>,
    /// Pages this transaction freed before journaling them (SQLite's
    /// `pHasContent`): `allocate` journals one before reusing it.
    freed: HashSet<PageId>,
    /// The page count the journal truncates the file back to.
    txn_start_n_pages: u32,
    /// Statistics.
    pub stats: PagerStats,
    hook: Option<PageHook>,
}

impl Pager {
    /// The database named `name` on `vfs` (journal:
    /// [`journal_path`]`(name)`), created empty if the file is; a journal
    /// left by an interrupted transaction is rolled back first.
    pub fn open_file(mut vfs: Box<dyn Vfs>, name: &str) -> DbResult<Self> {
        let journal_name = journal_path(name);
        let hot_journal = vfs.exists(&journal_name);
        let file = vfs.open(name)?;
        let mut p = Self {
            file,
            vfs,
            journal_name,
            journal: None,
            journal_count: 0,
            journal_synced: 0,
            slots: Vec::new(),
            map: HashMap::new(),
            hand: 0,
            cache_limit: DEFAULT_CACHE_PAGES,
            n_pages: 0,
            freelist: Vec::new(),
            freelist_trunks: Vec::new(),
            pages_freed: 0,
            in_txn: false,
            journaled: HashMap::new(),
            freed: HashSet::new(),
            txn_start_n_pages: 0,
            stats: PagerStats::default(),
            hook: None,
        };
        if hot_journal {
            p.recover_hot_journal()?;
        }
        if p.file.size()? == 0 {
            // A fresh file's header is page 1, allocated like any page.
            p.begin()?;
            p.allocate()?;
            p.commit()?;
        } else {
            p.read_header()?;
        }
        Ok(p)
    }

    /// Set the page-cache capacity (in pages).
    pub fn set_cache_pages(&mut self, pages: usize) {
        self.cache_limit = pages.max(16);
    }

    /// Install a page-access hook.
    pub fn set_hook(&mut self, hook: Option<PageHook>) {
        self.hook = hook;
    }

    /// Total pages in the database.
    #[must_use]
    pub fn page_count(&self) -> u32 {
        self.n_pages
    }

    // ------------------------------------------------------------------
    // Header
    // ------------------------------------------------------------------

    /// Rebalance the freelist between header storage and overflow trunk
    /// pages so no id is ever dropped. Trunk pages are drawn from (and
    /// returned to) the freelist itself, so the file never grows just to
    /// record free pages. Idempotent: re-running on a balanced state is a
    /// no-op, which keeps the post-commit in-memory state bit-identical
    /// to what `read_header` reconstructs after a reopen.
    fn plan_spill(&mut self) {
        while self.freelist.len() > MAX_FREELIST + self.freelist_trunks.len() * TRUNK_CAP {
            let Some(t) = self.freelist.pop() else { break };
            self.freelist_trunks.push(t);
        }
        while let Some(&last) = self.freelist_trunks.last() {
            if self.freelist.len() < MAX_FREELIST + (self.freelist_trunks.len() - 1) * TRUNK_CAP {
                self.freelist_trunks.pop();
                self.freelist.push(last);
            } else {
                break;
            }
        }
    }

    /// Write the header and the trunk chain into their cache pages, each
    /// journaled on first touch like a [`Self::get_mut`].
    fn write_header(&mut self) -> DbResult<()> {
        self.plan_spill();
        let slot = self.touch(1)?;
        let buf = &mut self.slots[slot].buf;
        buf.fill(0);
        buf[..16].copy_from_slice(HEADER_MAGIC);
        buf[16..20].copy_from_slice(&self.n_pages.to_le_bytes());
        let in_header = self.freelist.len().min(MAX_FREELIST);
        buf[20..24].copy_from_slice(&(in_header as u32).to_le_bytes());
        let trunk_head = self.freelist_trunks.first().copied().unwrap_or(0);
        buf[24..28].copy_from_slice(&trunk_head.to_le_bytes());
        for (i, id) in self.freelist[..in_header].iter().enumerate() {
            buf[64 + i * 4..64 + i * 4 + 4].copy_from_slice(&id.to_le_bytes());
        }
        // Spill freelist[MAX_FREELIST..] across the trunk chain, in order,
        // so reopen reconstructs the exact allocation order.
        for i in 0..self.freelist_trunks.len() {
            let lo = (MAX_FREELIST + i * TRUNK_CAP).min(self.freelist.len());
            let hi = (MAX_FREELIST + (i + 1) * TRUNK_CAP).min(self.freelist.len());
            let slot = self.touch(self.freelist_trunks[i])?;
            let tb = &mut self.slots[slot].buf;
            tb.fill(0);
            tb[..4].copy_from_slice(TRUNK_MAGIC);
            let next = self.freelist_trunks.get(i + 1).copied().unwrap_or(0);
            tb[4..8].copy_from_slice(&next.to_le_bytes());
            tb[8..12].copy_from_slice(&((hi - lo) as u32).to_le_bytes());
            for (k, id) in self.freelist[lo..hi].iter().enumerate() {
                tb[12 + k * 4..12 + k * 4 + 4].copy_from_slice(&id.to_le_bytes());
            }
        }
        Ok(())
    }

    /// Load the header and the trunk chain through the cache. The file is
    /// host-supplied: every free id must name a page past the header and
    /// within the page count, once across both lists, or the header is
    /// refused — one page handed to two trees would corrupt both.
    fn read_header(&mut self) -> DbResult<()> {
        let slot = self.load(1)?;
        let buf = &self.slots[slot].buf;
        let n_pages = le_u32(&buf[..], 16);
        let n_free = le_u32(&buf[..], 20) as usize;
        if &buf[..16] != HEADER_MAGIC || n_free > MAX_FREELIST {
            return Err(DbError::Storage("bad database header".into()));
        }
        let mut freelist: Vec<PageId> = (0..n_free).map(|i| le_u32(&buf[..], 64 + i * 4)).collect();
        let mut seen = HashSet::new();
        let mut fresh = |id: PageId| (2..=n_pages).contains(&id) && seen.insert(id);
        // Walk the overflow trunk chain. A zero head pointer means no
        // overflow — also the value found in pre-chain files, which keeps
        // them readable.
        let mut trunks = Vec::new();
        let mut t = le_u32(&buf[..], 24);
        while t != 0 {
            if !fresh(t) {
                return Err(DbError::Storage("corrupt freelist trunk chain".into()));
            }
            let slot = self.load(t)?;
            let tb = &self.slots[slot].buf;
            let count = le_u32(&tb[..], 8) as usize;
            if &tb[..4] != TRUNK_MAGIC || count > TRUNK_CAP {
                return Err(DbError::Storage("corrupt freelist trunk page".into()));
            }
            freelist.extend((0..count).map(|k| le_u32(&tb[..], 12 + k * 4)));
            trunks.push(t);
            t = le_u32(&tb[..], 4);
        }
        if !freelist.iter().all(|&id| fresh(id)) {
            return Err(DbError::Storage("corrupt freelist page id".into()));
        }
        self.n_pages = n_pages;
        self.freelist = freelist;
        self.freelist_trunks = trunks;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Page access
    // ------------------------------------------------------------------

    /// Read-only page view.
    pub fn get(&mut self, id: PageId) -> DbResult<&[u8]> {
        self.observe(id, false)?;
        let slot = self.load(id)?;
        Ok(&self.slots[slot].buf[..])
    }

    /// Writable page view (journals the original on first touch).
    pub fn get_mut(&mut self, id: PageId) -> DbResult<&mut [u8]> {
        if !self.in_txn {
            return Err(DbError::Storage("write outside transaction".into()));
        }
        self.observe(id, true)?;
        let slot = self.touch(id)?;
        Ok(&mut self.slots[slot].buf[..])
    }

    /// Check that a caller's page `id` exists and report it to the hook
    /// (the pager's own header and trunk accesses skip this).
    fn observe(&mut self, id: PageId, for_write: bool) -> DbResult<()> {
        if id == 0 || id > self.n_pages {
            return Err(DbError::Storage(format!("page {id} out of range")));
        }
        if let Some(h) = self.hook.as_mut() {
            h(id, for_write);
        }
        Ok(())
    }

    /// Load page `id` for a change: journal its pre-image on first touch,
    /// then mark it dirty. Returns its slot.
    fn touch(&mut self, id: PageId) -> DbResult<usize> {
        let slot = self.load(id)?;
        if !self.journaled.contains_key(&id) {
            let pre = self.slots[slot].buf.clone();
            self.append_journal(id, &pre[..])?;
        }
        self.slots[slot].dirty = true;
        Ok(slot)
    }

    /// Bring page `id` into the cache and return its slot.
    fn load(&mut self, id: PageId) -> DbResult<usize> {
        if let Some(&slot) = self.map.get(&id) {
            self.slots[slot].referenced = true;
            self.stats.cache_hits += 1;
            return Ok(slot);
        }
        let slot = self.take_slot()?;
        self.file.read_at(page_offset(id), &mut self.slots[slot].buf[..])?;
        self.stats.page_reads += 1;
        Ok(self.fill_slot(slot, id))
    }

    /// A slot to refill, unmapped and clean: a new one while the cache has
    /// room, else the clock's victim, written back first if dirty.
    fn take_slot(&mut self) -> DbResult<usize> {
        if self.slots.len() < self.cache_limit {
            self.slots.push(CacheSlot { id: 0, buf: new_page(), dirty: false, referenced: false });
            return Ok(self.slots.len() - 1);
        }
        // Clock (second chance) eviction.
        loop {
            self.hand = (self.hand + 1) % self.slots.len();
            let slot = &mut self.slots[self.hand];
            if slot.referenced {
                slot.referenced = false;
                continue;
            }
            // Victim found.
            let id = slot.id;
            if slot.dirty {
                // Spill: legal mid-transaction because the original page is
                // already in the journal — once the journal's header counts
                // its entry, as a hot-journal recovery replays only those.
                // The page leaves the cache only after it reached the file,
                // so a failed spill leaves it cached and dirty.
                if self.journaled.get(&id).copied().flatten() >= Some(self.journal_synced) {
                    self.sync_journal_count()?;
                }
                self.write_back(self.hand)?;
            }
            self.slots[self.hand].id = 0;
            self.map.remove(&id);
            return Ok(self.hand);
        }
    }

    /// Map `slot`, just filled, to page `id`; returns the slot.
    fn fill_slot(&mut self, slot: usize, id: PageId) -> usize {
        self.slots[slot].id = id;
        self.slots[slot].referenced = true;
        self.map.insert(id, slot);
        slot
    }

    /// Write the dirty page in `slot` to the file; it is clean after.
    fn write_back(&mut self, slot: usize) -> DbResult<()> {
        let s = &mut self.slots[slot];
        self.file.write_at(page_offset(s.id), &s.buf[..])?;
        s.dirty = false;
        self.stats.page_writes += 1;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Allocation
    // ------------------------------------------------------------------

    /// Allocate a page (zeroed) within the current transaction.
    pub fn allocate(&mut self) -> DbResult<PageId> {
        if !self.in_txn {
            return Err(DbError::Storage("allocate outside transaction".into()));
        }
        let id = if let Some(id) = self.freelist.pop() {
            id
        } else {
            self.n_pages += 1;
            self.n_pages
        };
        self.ensure_journal()?; // growth must be recoverable
        if self.freed.remove(&id) {
            // Freed by this transaction with its pre-transaction content:
            // journal that first, as a first `get_mut` would.
            self.touch(id)?;
        }
        // Otherwise fresh or free since before the transaction: its old
        // content is dead and needs no pre-image.
        self.journaled.entry(id).or_insert(None);
        let slot = match self.map.get(&id) {
            Some(&slot) => slot,
            None => {
                let slot = self.take_slot()?;
                self.fill_slot(slot, id)
            }
        };
        let slot = &mut self.slots[slot];
        slot.buf.fill(0);
        slot.dirty = true;
        slot.referenced = true;
        Ok(id)
    }

    /// Return a page to the freelist. Never drops an id: past
    /// `MAX_FREELIST` entries the surplus spills to chained trunk pages
    /// at commit.
    pub fn free_page(&mut self, id: PageId) -> DbResult<()> {
        if !self.in_txn {
            return Err(DbError::Storage("free outside transaction".into()));
        }
        if id == 0 || id > self.n_pages {
            return Err(DbError::Storage(format!("free of page {id} out of range")));
        }
        // The freelist change must reach the header at commit even if no
        // page content was modified this transaction.
        self.ensure_journal()?;
        if !self.journaled.contains_key(&id) {
            self.freed.insert(id);
        }
        self.freelist.push(id);
        self.pages_freed += 1;
        Ok(())
    }

    /// How many times [`Self::free_page`] has succeeded on this pager. It
    /// only ever grows (a rollback does not take it back), so two equal
    /// readings mean every page id held in between still names the page
    /// it named.
    #[must_use]
    pub fn pages_freed(&self) -> u64 {
        self.pages_freed
    }

    /// Free pages currently tracked (header + overflow chain).
    #[must_use]
    pub fn freelist_len(&self) -> usize {
        self.freelist.len()
    }

    /// Pages currently serving as overflow freelist trunk storage.
    #[must_use]
    pub fn freelist_trunk_pages(&self) -> usize {
        self.freelist_trunks.len()
    }

    // ------------------------------------------------------------------
    // Transactions
    // ------------------------------------------------------------------

    /// Begin a transaction. The rollback journal is created lazily on the
    /// first page modification, so read-only transactions (plain SELECTs in
    /// autocommit) cost no journal I/O — matching SQLite's behaviour.
    pub fn begin(&mut self) -> DbResult<()> {
        if self.in_txn {
            return Err(DbError::Storage("nested transaction".into()));
        }
        self.in_txn = true;
        self.txn_start_n_pages = self.n_pages;
        Ok(())
    }

    /// The transaction's journal, opened on its first change.
    fn ensure_journal(&mut self) -> DbResult<&mut Box<dyn VfsFile>> {
        let j = match self.journal.take() {
            Some(j) => j,
            None => {
                let mut j = self.vfs.open(&self.journal_name)?;
                let mut head = [0u8; 16];
                head[..8].copy_from_slice(JOURNAL_MAGIC);
                head[8..12].copy_from_slice(&self.txn_start_n_pages.to_le_bytes());
                // head[12..16]: the entry count, written at the commit point.
                j.write_at(0, &head)?;
                j
            }
        };
        Ok(self.journal.insert(j))
    }

    /// Append `pre`, the pre-transaction image of page `id`, to the journal.
    fn append_journal(&mut self, id: PageId, pre: &[u8]) -> DbResult<()> {
        let off = journal_entry_offset(self.journal_count);
        let j = self.ensure_journal()?;
        j.write_at(off, &id.to_le_bytes())?;
        j.write_at(off + 4, pre)?;
        self.journaled.insert(id, Some(self.journal_count));
        self.journal_count += 1;
        self.stats.journal_writes += 1;
        Ok(())
    }

    /// Write the journal's entry count into its header and sync it, unless
    /// the header already holds that count. Before a changed page reaches
    /// the file — spilled mid-transaction or written at commit — a
    /// hot-journal recovery must replay its pre-image.
    fn sync_journal_count(&mut self) -> DbResult<()> {
        if self.journal_count == self.journal_synced {
            return Ok(());
        }
        let count = self.journal_count;
        let j = self.ensure_journal()?;
        j.write_at(12, &count.to_le_bytes())?;
        j.sync()?;
        self.stats.syncs += 1;
        self.journal_synced = count;
        Ok(())
    }

    /// Commit: header into the cache, sync the journal's count (the commit
    /// point), write every dirty page, sync the file, drop the journal.
    /// Read-only transactions commit for free.
    pub fn commit(&mut self) -> DbResult<()> {
        if !self.in_txn {
            return Err(DbError::Storage("commit outside transaction".into()));
        }
        if self.journal.is_none() {
            return self.end_txn();
        }
        self.write_header()?;
        self.sync_journal_count()?;
        for slot in 0..self.slots.len() {
            if self.slots[slot].dirty {
                self.write_back(slot)?;
            }
        }
        self.file.sync()?;
        self.stats.syncs += 1;
        self.end_txn()
    }

    /// Roll back the current transaction.
    pub fn rollback(&mut self) -> DbResult<()> {
        if !self.in_txn {
            return Err(DbError::Storage("rollback outside transaction".into()));
        }
        if self.journal.is_some() {
            // Restore pre-images from the journal into the file, drop the
            // cache, and reload the header the transaction started from.
            // Every entry is replayed, not only the count the journal's
            // header holds: a page evicted dirty before the commit point
            // is in the file with its change.
            self.replay_journal_into_file(self.journal_count)?;
            self.slots.clear();
            self.map.clear();
            self.hand = 0;
            self.read_header()?;
        }
        self.end_txn()
    }

    /// Close and delete the journal, if one is open, and leave the
    /// transaction — the one way every commit, rollback and hot-journal
    /// recovery ends.
    fn end_txn(&mut self) -> DbResult<()> {
        if self.journal.take().is_some() && self.vfs.exists(&self.journal_name) {
            self.vfs.delete(&self.journal_name)?;
        }
        self.journal_count = 0;
        self.journal_synced = 0;
        self.journaled.clear();
        self.freed.clear();
        self.in_txn = false;
        Ok(())
    }

    /// Write the journal's first `entries` pre-images back into the file
    /// and truncate it to the page count the journal recorded.
    fn replay_journal_into_file(&mut self, entries: u32) -> DbResult<()> {
        let Some(j) = self.journal.as_mut() else {
            return Ok(());
        };
        let mut head = [0u8; 16];
        j.read_at(0, &mut head)?;
        if &head[..8] != JOURNAL_MAGIC {
            return Err(DbError::Storage("bad journal header".into()));
        }
        let mut buf = new_page();
        for i in 0..entries {
            let off = journal_entry_offset(i);
            let mut idb = [0u8; 4];
            j.read_at(off, &mut idb)?;
            j.read_at(off + 4, &mut buf[..])?;
            let id = u32::from_le_bytes(idb);
            self.file.write_at(page_offset(id), &buf[..])?;
            self.stats.page_writes += 1;
        }
        self.file.truncate(u64::from(le_u32(&head, 8)) * PAGE_SIZE as u64)?;
        self.file.sync()?;
        Ok(())
    }

    /// Crash recovery: a journal file exists from an interrupted
    /// transaction — roll the database back before use.
    fn recover_hot_journal(&mut self) -> DbResult<()> {
        let mut j = self.vfs.open(&self.journal_name)?;
        // Only replay if the journal header is complete (a torn journal
        // header means the transaction never reached its commit point and
        // the main file was not yet touched).
        let mut head = [0u8; 16];
        let complete = j.read_at(0, &mut head).is_ok() && &head[..8] == JOURNAL_MAGIC;
        self.journal = Some(j);
        if complete {
            self.replay_journal_into_file(le_u32(&head, 12))?;
        }
        self.end_txn()
    }

    /// Flush everything (used at clean close).
    pub fn flush(&mut self) -> DbResult<()> {
        if self.in_txn {
            self.commit()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    use super::*;
    use crate::vfs::MemVfs;

    fn file_pager() -> (Pager, MemVfs) {
        let vfs = MemVfs::new();
        let p = Pager::open_file(Box::new(vfs.clone()), "test.db").unwrap();
        (p, vfs)
    }

    #[test]
    fn memory_alloc_write_read() {
        let (mut p, _) = file_pager();
        p.begin().unwrap();
        let id = p.allocate().unwrap();
        p.get_mut(id).unwrap()[0] = 0xAB;
        p.commit().unwrap();
        assert_eq!(p.get(id).unwrap()[0], 0xAB);
    }

    #[test]
    fn file_persistence_across_reopen() {
        let vfs = MemVfs::new();
        {
            let mut p = Pager::open_file(Box::new(vfs.clone()), "x.db").unwrap();
            p.begin().unwrap();
            let id = p.allocate().unwrap();
            assert_eq!(id, 2);
            p.get_mut(id).unwrap()[100] = 42;
            p.commit().unwrap();
        }
        let mut p = Pager::open_file(Box::new(vfs), "x.db").unwrap();
        assert_eq!(p.page_count(), 2);
        assert_eq!(p.get(2).unwrap()[100], 42);
    }

    #[test]
    fn rollback_restores_content_memory() {
        let (mut p, _) = file_pager();
        p.begin().unwrap();
        let id = p.allocate().unwrap();
        p.get_mut(id).unwrap()[0] = 1;
        p.commit().unwrap();
        p.begin().unwrap();
        p.get_mut(id).unwrap()[0] = 99;
        p.rollback().unwrap();
        assert_eq!(p.get(id).unwrap()[0], 1);
    }

    #[test]
    fn rollback_restores_content_file() {
        let (mut p, _vfs) = file_pager();
        p.begin().unwrap();
        let id = p.allocate().unwrap();
        p.get_mut(id).unwrap()[7] = 7;
        p.commit().unwrap();
        p.begin().unwrap();
        p.get_mut(id).unwrap()[7] = 70;
        assert_eq!(p.get(id).unwrap()[7], 70);
        p.rollback().unwrap();
        assert_eq!(p.get(id).unwrap()[7], 7);
    }

    /// Pages evicted dirty in the middle of a transaction are in the file
    /// with their change; a rollback must put every one of them back.
    #[test]
    fn rollback_restores_spilled_pages() {
        let (mut p, _) = file_pager();
        p.set_cache_pages(16);
        p.begin().unwrap();
        let ids: Vec<PageId> = (0..100).map(|_| p.allocate().unwrap()).collect();
        for (i, &id) in ids.iter().enumerate() {
            p.get_mut(id).unwrap()[0] = i as u8;
        }
        p.commit().unwrap();
        let written = p.stats.page_writes;
        p.begin().unwrap();
        for &id in &ids {
            p.get_mut(id).unwrap()[0] = 0xEE;
        }
        assert!(p.stats.page_writes > written, "the cache spilled mid-transaction");
        p.rollback().unwrap();
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(p.get(id).unwrap()[0], i as u8, "page {id}");
        }
    }

    /// A crash after pages spilled mid-transaction leaves them in the file
    /// with their change; the hot journal must put every one back, so its
    /// header must count their entries before they are written.
    #[test]
    fn hot_journal_restores_spilled_pages() {
        let vfs = MemVfs::new();
        let ids: Vec<PageId>;
        {
            let mut p = Pager::open_file(Box::new(vfs.clone()), "spill.db").unwrap();
            p.set_cache_pages(16);
            p.begin().unwrap();
            ids = (0..100).map(|_| p.allocate().unwrap()).collect();
            for (i, &id) in ids.iter().enumerate() {
                p.get_mut(id).unwrap()[0] = i as u8;
            }
            p.commit().unwrap();
            let written = p.stats.page_writes;
            p.begin().unwrap();
            for &id in &ids {
                p.get_mut(id).unwrap()[0] = 0xEE;
            }
            assert!(p.stats.page_writes > written, "the cache spilled mid-transaction");
            // Crash: the pager goes without a commit or a rollback.
        }
        let mut p = Pager::open_file(Box::new(vfs), "spill.db").unwrap();
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(p.get(id).unwrap()[0], i as u8, "page {id}");
        }
    }

    /// A transaction that changes more existing pages than the cache
    /// holds syncs the journal once per cache-full of spilled pages, not
    /// once per page: a victim whose entry the header already counts
    /// needs no sync.
    #[test]
    fn spills_sync_only_for_uncounted_entries() {
        let (mut p, _) = file_pager();
        p.set_cache_pages(16);
        p.begin().unwrap();
        let ids: Vec<PageId> = (0..100).map(|_| p.allocate().unwrap()).collect();
        p.commit().unwrap();
        let syncs = p.stats.syncs;
        p.begin().unwrap();
        for &id in &ids {
            p.get_mut(id).unwrap()[0] = 0xEE;
        }
        assert_eq!(p.stats.syncs - syncs, 6, "spill syncs");
        p.commit().unwrap();
    }

    /// A spill whose journal sync fails leaves the page cached and dirty,
    /// so the commit that follows still writes it.
    #[test]
    fn failed_spill_keeps_the_page() {
        let vfs = MemVfs::new();
        let fail = Arc::new(AtomicBool::new(false));
        let mut p = Pager::open_file(
            Box::new(FailSync {
                inner: vfs.clone(),
                fail: fail.clone(),
            }),
            "spill.db",
        )
        .unwrap();
        p.set_cache_pages(16);
        p.begin().unwrap();
        let ids: Vec<PageId> = (0..40).map(|_| p.allocate().unwrap()).collect();
        p.commit().unwrap();
        p.begin().unwrap();
        fail.store(true, Ordering::SeqCst);
        let mut failed = 0;
        for &id in &ids {
            if p.get_mut(id).is_err() {
                failed += 1;
            }
            p.get_mut(id).unwrap()[0] = 0xEE;
        }
        assert_eq!(failed, 1, "one spill failed");
        p.commit().unwrap();
        drop(p);
        let mut p = Pager::open_file(Box::new(vfs), "spill.db").unwrap();
        for &id in &ids {
            assert_eq!(p.get(id).unwrap()[0], 0xEE, "page {id}");
        }
    }

    /// A [`MemVfs`] whose next `sync` fails once `fail` is set.
    struct FailSync {
        inner: MemVfs,
        fail: Arc<AtomicBool>,
    }

    impl Vfs for FailSync {
        fn open(&mut self, name: &str) -> DbResult<Box<dyn VfsFile>> {
            Ok(Box::new(FailSyncFile {
                inner: self.inner.open(name)?,
                fail: self.fail.clone(),
            }))
        }

        fn delete(&mut self, name: &str) -> DbResult<()> {
            self.inner.delete(name)
        }

        fn exists(&mut self, name: &str) -> bool {
            self.inner.exists(name)
        }
    }

    struct FailSyncFile {
        inner: Box<dyn VfsFile>,
        fail: Arc<AtomicBool>,
    }

    impl VfsFile for FailSyncFile {
        fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> DbResult<()> {
            self.inner.read_at(offset, buf)
        }

        fn write_at(&mut self, offset: u64, data: &[u8]) -> DbResult<()> {
            self.inner.write_at(offset, data)
        }

        fn truncate(&mut self, size: u64) -> DbResult<()> {
            self.inner.truncate(size)
        }

        fn sync(&mut self) -> DbResult<()> {
            if self.fail.swap(false, Ordering::SeqCst) {
                return Err(DbError::Storage("injected sync failure".into()));
            }
            self.inner.sync()
        }

        fn size(&mut self) -> DbResult<u64> {
            self.inner.size()
        }
    }

    #[test]
    fn rollback_undoes_allocation() {
        let (mut p, _) = file_pager();
        p.begin().unwrap();
        p.allocate().unwrap();
        p.commit().unwrap();
        let before = p.page_count();
        p.begin().unwrap();
        p.allocate().unwrap();
        p.allocate().unwrap();
        p.rollback().unwrap();
        assert_eq!(p.page_count(), before);
    }

    #[test]
    fn hot_journal_recovery() {
        // Simulate a crash: journal written, data file modified, but the
        // journal never deleted (no commit).
        let vfs = MemVfs::new();
        {
            let mut p = Pager::open_file(Box::new(vfs.clone()), "c.db").unwrap();
            p.begin().unwrap();
            let id = p.allocate().unwrap();
            p.get_mut(id).unwrap()[0] = 5;
            p.commit().unwrap();
            // Start a second txn, modify, and *simulate crash* by dropping
            // the pager after forcing the dirty page to disk via spill.
            p.begin().unwrap();
            p.get_mut(id).unwrap()[0] = 99;
            // Manually persist the journal count and dirty page, as if the
            // crash happened mid-commit (after data write, before journal
            // deletion).
            let count = p.journal_count;
            if let Some(j) = p.journal.as_mut() {
                j.write_at(12, &count.to_le_bytes()).unwrap();
            }
            for slot in &p.slots {
                if slot.dirty {
                    let off = u64::from(slot.id - 1) * PAGE_SIZE as u64;
                    p.file.write_at(off, &slot.buf[..]).unwrap();
                }
            }
            // ... crash: no commit, journal remains.
        }
        let mut p = Pager::open_file(Box::new(vfs), "c.db").unwrap();
        assert_eq!(p.get(2).unwrap()[0], 5, "hot journal rolled back");
    }

    #[test]
    fn freelist_reuse() {
        let (mut p, _) = file_pager();
        p.begin().unwrap();
        let a = p.allocate().unwrap();
        let _b = p.allocate().unwrap();
        p.free_page(a).unwrap();
        let c = p.allocate().unwrap();
        assert_eq!(c, a, "freed page is reused");
        p.commit().unwrap();
    }

    #[test]
    fn cache_eviction_under_pressure() {
        let (mut p, _) = file_pager();
        p.set_cache_pages(16);
        p.begin().unwrap();
        let ids: Vec<PageId> = (0..100).map(|_| p.allocate().unwrap()).collect();
        for (i, &id) in ids.iter().enumerate() {
            p.get_mut(id).unwrap()[0] = i as u8;
        }
        p.commit().unwrap();
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(p.get(id).unwrap()[0], i as u8);
        }
        assert!(p.stats.page_reads > 0, "misses under pressure");
    }

    #[test]
    fn write_outside_txn_rejected() {
        let (mut p, _) = file_pager();
        p.begin().unwrap();
        let id = p.allocate().unwrap();
        p.commit().unwrap();
        assert!(p.get_mut(id).is_err());
        assert!(p.allocate().is_err());
    }

    #[test]
    fn hook_observes_touches() {
        use std::sync::{Arc, Mutex};
        let touches = Arc::new(Mutex::new(Vec::new()));
        let t2 = touches.clone();
        let (mut p, _) = file_pager();
        p.set_hook(Some(Box::new(move |id, w| t2.lock().unwrap().push((id, w)))));
        p.begin().unwrap();
        let id = p.allocate().unwrap();
        p.get_mut(id).unwrap()[0] = 1;
        let _ = p.get(id).unwrap();
        p.commit().unwrap();
        let t = touches.lock().unwrap();
        assert!(t.contains(&(id, true)));
        assert!(t.contains(&(id, false)));
    }

    #[test]
    fn freelist_survives_overflow_and_reopen() {
        // Free far more pages than the header can hold; every id must
        // come back after a reopen (the pre-fix pager silently dropped
        // the tail past MAX_FREELIST).
        let vfs = MemVfs::new();
        let n = MAX_FREELIST + 2 * TRUNK_CAP + 37;
        let before;
        {
            let mut p = Pager::open_file(Box::new(vfs.clone()), "big.db").unwrap();
            p.begin().unwrap();
            let ids: Vec<PageId> = (0..n).map(|_| p.allocate().unwrap()).collect();
            for &id in &ids {
                p.free_page(id).unwrap();
            }
            p.commit().unwrap();
            assert_eq!(p.stats.leaked_pages, 0);
            assert_eq!(p.freelist_len() + p.freelist_trunk_pages(), n);
            before = p.page_count();
        }
        let mut p = Pager::open_file(Box::new(vfs), "big.db").unwrap();
        assert_eq!(p.stats.leaked_pages, 0);
        assert_eq!(p.freelist_len() + p.freelist_trunk_pages(), n);
        // Reuse must drain the freelist before growing the file.
        let reusable = p.freelist_len();
        assert!(reusable > MAX_FREELIST, "overflow ids recovered");
        p.begin().unwrap();
        for _ in 0..reusable {
            let id = p.allocate().unwrap();
            assert!(id <= before, "allocation reuses freed pages");
        }
        p.commit().unwrap();
        assert_eq!(p.page_count(), before);
    }

    #[test]
    fn churn_does_not_leak_pages() {
        // Alloc/free churn across reopen cycles: the file stabilises at
        // its working set (pre-fix it grew by the dropped tail per round).
        let vfs = MemVfs::new();
        let mut high_water = 0;
        for round in 0..6u32 {
            let mut p = Pager::open_file(Box::new(vfs.clone()), "churn.db").unwrap();
            p.begin().unwrap();
            let ids: Vec<PageId> = (0..MAX_FREELIST + 200).map(|_| p.allocate().unwrap()).collect();
            for &id in &ids {
                p.get_mut(id).unwrap()[0] = round as u8;
            }
            for &id in &ids {
                p.free_page(id).unwrap();
            }
            p.commit().unwrap();
            assert_eq!(p.stats.leaked_pages, 0);
            if round == 0 {
                high_water = p.page_count();
            } else {
                // Trunk storage itself costs at most a couple of pages.
                assert!(
                    p.page_count() <= high_water + 2,
                    "round {round}: {} pages vs high water {high_water}",
                    p.page_count()
                );
            }
        }
    }

    #[test]
    fn reopen_preserves_allocation_order() {
        // Allocation order after close/reopen must match a never-closed
        // pager bit for bit — park/restore replay determinism depends on
        // it.
        let n = MAX_FREELIST + TRUNK_CAP + 5;
        fn churn(vfs: MemVfs, n: usize) -> Pager {
            let mut p = Pager::open_file(Box::new(vfs), "ord.db").unwrap();
            p.begin().unwrap();
            let ids: Vec<PageId> = (0..n).map(|_| p.allocate().unwrap()).collect();
            for &id in &ids {
                p.free_page(id).unwrap();
            }
            p.commit().unwrap();
            p
        }
        fn take(p: &mut Pager, k: usize) -> Vec<PageId> {
            p.begin().unwrap();
            let v = (0..k).map(|_| p.allocate().unwrap()).collect();
            p.commit().unwrap();
            v
        }
        let mut continuous = churn(MemVfs::new(), n);
        let order_a = take(&mut continuous, 64);
        let vfs = MemVfs::new();
        drop(churn(vfs.clone(), n));
        let mut reopened = Pager::open_file(Box::new(vfs), "ord.db").unwrap();
        let order_b = take(&mut reopened, 64);
        assert_eq!(order_a, order_b);
    }

    #[test]
    fn rollback_restores_freelist_file() {
        let (mut p, _) = file_pager();
        p.begin().unwrap();
        let a = p.allocate().unwrap();
        let b = p.allocate().unwrap();
        p.get_mut(a).unwrap()[0] = 1;
        p.get_mut(b).unwrap()[0] = 2;
        p.free_page(a).unwrap();
        p.commit().unwrap();
        let free_before = p.freelist_len();
        p.begin().unwrap();
        let re = p.allocate().unwrap();
        assert_eq!(re, a);
        p.get_mut(re).unwrap()[0] = 9;
        p.rollback().unwrap();
        assert_eq!(p.freelist_len(), free_before, "freed page back on the freelist");
        p.begin().unwrap();
        assert_eq!(p.allocate().unwrap(), a, "same page allocated after rollback");
        p.commit().unwrap();
    }

    #[test]
    fn rollback_restores_freelist_memory() {
        let (mut p, _) = file_pager();
        p.begin().unwrap();
        let a = p.allocate().unwrap();
        p.free_page(a).unwrap();
        p.commit().unwrap();
        p.begin().unwrap();
        assert_eq!(p.allocate().unwrap(), a);
        p.rollback().unwrap();
        p.begin().unwrap();
        assert_eq!(p.allocate().unwrap(), a, "rollback returned the page to the freelist");
        p.commit().unwrap();
    }

    /// A page this transaction freed still holds its pre-transaction
    /// content until it is reused: `allocate` must journal it, or once the
    /// cache spills it a rollback leaves the transaction's bytes in it.
    #[test]
    fn reusing_a_page_freed_this_transaction_journals_it() {
        let (mut p, _) = file_pager();
        p.set_cache_pages(16);
        p.begin().unwrap();
        let ids: Vec<PageId> = (0..40).map(|_| p.allocate().unwrap()).collect();
        for &id in &ids {
            p.get_mut(id).unwrap()[0] = 7;
        }
        p.commit().unwrap();
        p.begin().unwrap();
        p.free_page(ids[0]).unwrap();
        assert_eq!(p.allocate().unwrap(), ids[0]);
        for &id in &ids {
            p.get_mut(id).unwrap()[0] = 0xEE;
        }
        p.rollback().unwrap();
        for &id in &ids {
            assert_eq!(p.get(id).unwrap()[0], 7, "page {id}");
        }
    }

    /// A page free since before the transaction holds dead content:
    /// reusing it journals nothing, so a transaction that allocates only
    /// such pages journals the header alone.
    #[test]
    fn reusing_long_free_pages_journals_only_the_header() {
        let (mut p, _) = file_pager();
        p.set_cache_pages(16);
        p.begin().unwrap();
        let ids: Vec<PageId> = (0..40).map(|_| p.allocate().unwrap()).collect();
        for &id in &ids {
            p.free_page(id).unwrap();
        }
        p.commit().unwrap();
        let before = p.stats.journal_writes;
        p.begin().unwrap();
        for _ in &ids {
            let id = p.allocate().unwrap();
            p.get_mut(id).unwrap()[0] = 1;
        }
        p.commit().unwrap();
        assert_eq!(p.stats.journal_writes - before, 1);
    }

    /// A header whose freelist or trunk chain names the header, a page
    /// past the end, or one page twice is refused: reusing such an id
    /// would hand one page to two trees.
    #[test]
    fn forged_freelists_are_storage_errors() {
        let vfs = MemVfs::new();
        let mut p = Pager::open_file(Box::new(vfs.clone()), "f.db").unwrap();
        p.begin().unwrap();
        let ids: Vec<PageId> = (0..MAX_FREELIST + 20).map(|_| p.allocate().unwrap()).collect();
        for &id in &ids {
            p.free_page(id).unwrap();
        }
        p.commit().unwrap();
        assert_eq!(p.freelist_trunk_pages(), 1);
        let n = p.page_count();
        drop(p);
        let mut f = vfs.clone().open("f.db").unwrap();
        let mut image = vec![0u8; f.size().unwrap() as usize];
        f.read_at(0, &mut image).unwrap();
        let trunk = le_u32(&image, 24) as usize;
        let (free0, trunk0) = (64, page_offset(trunk as PageId) as usize + 12);
        let head_id = le_u32(&image, free0);
        let forgeries: [(&str, usize, u32); 9] = [
            ("free id 0", free0, 0),
            ("free id 1", free0, 1),
            ("free id past the end", free0, n + 1),
            ("free id twice", free0 + 4, head_id),
            ("free id that is the trunk", free0, trunk as u32),
            ("trunk id also in the header", trunk0, head_id),
            ("trunk chain cycle", trunk0 - 8, trunk as u32),
            ("trunk head 1", 24, 1),
            ("trunk head past the end", 24, n + 1),
        ];
        for (what, at, id) in forgeries {
            let forged = MemVfs::new();
            let mut bytes = image.clone();
            bytes[at..at + 4].copy_from_slice(&id.to_le_bytes());
            forged.clone().open("f.db").unwrap().write_at(0, &bytes).unwrap();
            let opened = Pager::open_file(Box::new(forged), "f.db");
            assert!(matches!(opened, Err(DbError::Storage(_))), "{what}");
        }
        let honest = MemVfs::new();
        honest.clone().open("f.db").unwrap().write_at(0, &image).unwrap();
        assert!(Pager::open_file(Box::new(honest), "f.db").is_ok());
    }
}
