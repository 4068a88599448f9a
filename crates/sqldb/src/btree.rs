//! B+trees on pages: table trees (rowid → record) and index trees
//! (serialised key → implicit rowid), with overflow chains for payloads
//! that don't fit a page (the 1 KiB blobs of §V-D fit locally; larger
//! values spill).
//!
//! A page has one form: its bytes. One parser reads the node format,
//! `NodeReader`, over the bytes in place, and one small editor writes it:
//! a `Splice` moves the bytes after an edit and writes the new entry (or
//! none) in between, and `write_node` lays out a split's halves and a new
//! root.
//! Pages may come from the host (`FsChoice::UntrustedHost`), so the reader
//! refuses keys that are not strictly ascending — within a page, and from
//! one leaf a cursor leaves to the next it reaches — every descent stops
//! at `MAX_DEPTH` levels, freeing a tree refuses a page it already freed,
//! and an overflow chain is checked whole before any of it is read or
//! freed: a forged page is a `DbError::Storage`, never a wrong answer, a
//! hang, a stack overflow or a page handed out twice.
//!
//! Reads check a page once, when its bytes enter or change in the pager's
//! cache: `index_page` runs the reader over every entry and records where
//! each interior entry starts, and the pager keeps that index beside the
//! bytes and drops it when they are reloaded or changed
//! ([`Pager::get_indexed`]). Lookups, seeks, cursor moves, inserts and
//! deletes then pick each child by bisection over the index (`descend`,
//! `pick`); a point lookup parses its leaf only up to the cell it wants
//! and copies out only a match, and a cursor copies each leaf it stands on
//! once and reads its entries from the copy. A write works its edit out on
//! the leaf the descent holds (`edit_leaf`) and splices it into the leaf's
//! bytes. A page's size is its bytes in use — the 3-byte header, the
//! entries and an interior page's last child — and it fits when they fit
//! the page. A leaf that would overflow is built in a two-page scratch
//! buffer instead, and `store_splitting` writes its halves and carries the
//! split up the path the descent recorded, splicing each separator into
//! its parent. A leaf splits at its byte middle, but an append — an entry
//! past the last of a leaf on the tree's right edge, as rows in key order
//! arrive — leaves the full leaf behind and opens the right sibling with
//! the new entry alone (SQLite's `balance_quick`), so a load in key order
//! fills its pages.

use std::collections::HashSet;
use std::ops::Range;

use crate::pager::{PageId, Pager};
use crate::record::{read_varint, write_varint};
use crate::{DbError, DbResult, PAGE_SIZE};

const TABLE_LEAF: u8 = 0x0D;
const TABLE_INTERIOR: u8 = 0x05;
const INDEX_LEAF: u8 = 0x0A;
const INDEX_INTERIOR: u8 = 0x02;
const OVERFLOW: u8 = 0x0F;
/// The bit that sets a leaf's type apart from its tree's interior type.
const LEAF: u8 = 0x08;

/// Payload bytes kept in-page before spilling to an overflow chain.
pub const MAX_LOCAL: usize = 2000;
/// Usable bytes per overflow page.
const OVERFLOW_CAP: usize = PAGE_SIZE - 9;

// ---------------------------------------------------------------------
// Reading pages in place
// ---------------------------------------------------------------------

struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn u8(&mut self) -> DbResult<u8> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> DbResult<u16> {
        let s = self.take(2)?;
        Ok(u16::from_le_bytes([s[0], s[1]]))
    }
    fn u32(&mut self) -> DbResult<u32> {
        let s = self.take(4)?;
        Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }
    fn varint(&mut self) -> DbResult<u64> {
        let (v, n) = read_varint(&self.data[self.pos..])?;
        self.pos += n;
        Ok(v)
    }
    fn take(&mut self, n: usize) -> DbResult<&'a [u8]> {
        // `n` may be a length read from the page: compare without adding.
        if n > self.data.len() - self.pos {
            return Err(DbError::Storage("page truncated".into()));
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
}

/// The one parser of the node format, borrowing the page bytes: the page
/// type and entry count, then the entries in page order — table-leaf
/// cells, index-leaf keys, or an interior page's `(child, separator)`
/// pairs followed by its last child. Every read is bounds-checked, and a
/// key that is not strictly above the one before it is refused: a lookup
/// that bisects for the first separator ≥ its key, or stops at the first
/// cell at or above it, is only right on an ordered page, and a page from
/// the host may be in any order. [`index_page`] runs it over a whole page
/// before any lookup relies on that order.
struct NodeReader<'a> {
    r: Reader<'a>,
    ty: u8,
    /// Entries on the page (interior pages have one more child).
    len: usize,
    last_rowid: Option<i64>,
    last_key: Option<&'a [u8]>,
}

/// A table-leaf cell as it sits on the page.
struct CellRef<'a> {
    rowid: i64,
    local: &'a [u8],
    overflow_len: u32,
    overflow: PageId,
}

fn out_of_order() -> DbError {
    DbError::Storage("page keys out of order".into())
}

impl<'a> NodeReader<'a> {
    fn new(data: &'a [u8]) -> DbResult<Self> {
        let mut r = Reader { data, pos: 0 };
        let ty = r.u8()?;
        let len = r.u16()? as usize;
        if !matches!(ty, TABLE_LEAF | TABLE_INTERIOR | INDEX_LEAF | INDEX_INTERIOR) {
            return Err(DbError::Storage(format!("bad page type 0x{ty:02x}")));
        }
        Ok(Self {
            r,
            ty,
            len,
            last_rowid: None,
            last_key: None,
        })
    }

    /// A reader of the entry at byte `pos` of a page that a [`Layout`]
    /// has read whole (it has no order to check against).
    fn at(page: &'a [u8], pos: usize) -> Self {
        Self {
            r: Reader { data: page, pos },
            ty: page[0],
            len: 0,
            last_rowid: None,
            last_key: None,
        }
    }

    fn ascending_rowid(&mut self, rowid: i64) -> DbResult<i64> {
        if self.last_rowid.is_some_and(|last| rowid <= last) {
            return Err(out_of_order());
        }
        self.last_rowid = Some(rowid);
        Ok(rowid)
    }

    fn ascending_key(&mut self, key: &'a [u8]) -> DbResult<&'a [u8]> {
        if self.last_key.is_some_and(|last| key <= last) {
            return Err(out_of_order());
        }
        self.last_key = Some(key);
        Ok(key)
    }

    /// Next cell of a table leaf.
    fn cell(&mut self) -> DbResult<CellRef<'a>> {
        let rowid = self.r.varint()? as i64;
        let local_len = self.r.varint()? as usize;
        let overflow_len = self.r.varint()? as u32;
        let overflow = if overflow_len > 0 { self.r.u32()? } else { 0 };
        let local = self.r.take(local_len)?;
        Ok(CellRef {
            rowid: self.ascending_rowid(rowid)?,
            local,
            overflow_len,
            overflow,
        })
    }

    /// Next key of an index leaf.
    fn key(&mut self) -> DbResult<&'a [u8]> {
        let len = self.r.varint()? as usize;
        let key = self.r.take(len)?;
        self.ascending_key(key)
    }

    /// Next `(child, separator)` of a table interior page.
    fn table_sep(&mut self) -> DbResult<(PageId, i64)> {
        let child = self.r.u32()?;
        let key = self.r.varint()? as i64;
        Ok((child, self.ascending_rowid(key)?))
    }

    /// Next `(child, separator)` of an index interior page.
    fn index_sep(&mut self) -> DbResult<(PageId, &'a [u8])> {
        let child = self.r.u32()?;
        let len = self.r.varint()? as usize;
        let key = self.r.take(len)?;
        Ok((child, self.ascending_key(key)?))
    }

    /// The last child of an interior page, after its `len` pairs.
    fn last_child(&mut self) -> DbResult<PageId> {
        self.r.u32()
    }

    /// Step over the next entry of any page.
    fn entry(&mut self) -> DbResult<()> {
        match self.ty {
            TABLE_LEAF => self.cell().map(drop),
            INDEX_LEAF => self.key().map(drop),
            TABLE_INTERIOR => self.table_sep().map(drop),
            _ => self.index_sep().map(drop),
        }
    }

    /// Next entry of a leaf, by its key.
    fn leaf_key(&mut self) -> DbResult<Key<'a>> {
        match self.ty {
            TABLE_LEAF => Ok(Key::Rowid(self.cell()?.rowid)),
            INDEX_LEAF => Ok(Key::Bytes(self.key()?)),
            _ => Err(DbError::Storage("not a leaf".into())),
        }
    }
}

/// A leaf entry's key: a table cell's rowid, or an index key.
#[derive(Clone, Copy, PartialEq, PartialOrd)]
enum Key<'a> {
    Rowid(i64),
    Bytes(&'a [u8]),
}

impl<'a> Key<'a> {
    /// The descent toward the leaf that holds, or would hold, the key.
    fn toward(self) -> Toward<'a> {
        match self {
            Key::Rowid(rowid) => Toward::Rowid(rowid),
            Key::Bytes(key) => Toward::Key(key),
        }
    }
}

/// Where the entries of a page lie, read whole by [`NodeReader`]: what an
/// edit, a split or a cursor works from.
struct Layout {
    ty: u8,
    /// Where each entry starts, then where the last one ends (an interior
    /// page's last child sits there).
    at: Vec<usize>,
    /// Where the page's bytes in use end: the page's size.
    used: usize,
}

impl Layout {
    fn of(page: &[u8]) -> DbResult<Self> {
        let mut r = NodeReader::new(page)?;
        let mut at = Vec::with_capacity(r.len + 1);
        for _ in 0..r.len {
            at.push(r.r.pos);
            r.entry()?;
        }
        at.push(r.r.pos);
        if r.ty & LEAF == 0 {
            r.last_child()?;
        }
        Ok(Self { ty: r.ty, at, used: r.r.pos })
    }

    /// Entries on the page.
    fn len(&self) -> usize {
        self.at.len() - 1
    }

    /// The first entry of leaf `page` whose key is ≥ `target`, found by
    /// bisection, and whether its key is `target`.
    fn find(&self, page: &[u8], target: Key<'_>) -> DbResult<(usize, bool)> {
        let key = |i: usize| NodeReader::at(page, self.at[i]).leaf_key();
        let i = first_at_least(self.len(), |i| Ok(key(i)? >= target))?;
        Ok((i, i < self.len() && key(i)? == target))
    }

    /// The overflow chain `(head, length)` of entry `i`: a table cell's,
    /// else none (length 0).
    fn chain(&self, page: &[u8], i: usize) -> DbResult<(PageId, u32)> {
        if self.ty != TABLE_LEAF {
            return Ok((0, 0));
        }
        let cell = NodeReader::at(page, self.at[i]).cell()?;
        Ok((cell.overflow, cell.overflow_len))
    }
}

/// Where a read-only descent goes at each interior page.
#[derive(Clone, Copy)]
enum Toward<'k> {
    /// The subtree that may hold this rowid (table trees).
    Rowid(i64),
    /// The subtree that may hold this key (index trees).
    Key(&'k [u8]),
    /// Child `i`, or the last child when there are fewer (either tree).
    Child(usize),
    /// The last child (table trees: toward the largest rowid).
    Last,
}

/// Deepest descent any operation makes before it reports a page cycle.
///
/// A tree gains a level only when its root splits, and a node splits only
/// when its bytes overflow its 4 KiB page. An interior page with one more
/// entry than fits holds at least 4 children: an index entry takes at most
/// `6 + MAX_INDEX_KEY` = 1 506 bytes, so it takes 3 separators to
/// overflow the page (table entries take 5–14 bytes, so a table page
/// splits at 293 separators or more). A split cuts at the byte middle,
/// and no entry holds half an overfull page, so each half keeps at
/// least 2 children (table: 146), and a tree grown by inserts has at least
/// 2^(h−1) leaves at height h: with 32-bit page ids, at most 33 levels
/// (table trees: 6). Deletes never add a level. 64 leaves that margin
/// twice over and costs nothing: only a cycle in the pages — a page the
/// host forged or corrupted — descends that far.
const MAX_DEPTH: usize = 64;

fn too_deep() -> DbError {
    DbError::Storage(format!("B-tree deeper than {MAX_DEPTH} levels (a page cycle)"))
}

/// Check a page and index it, for [`Pager::get_indexed`]: read every entry
/// with [`NodeReader`] — so a page is accepted or refused exactly as an
/// edit or a cursor ([`Layout::of`]) accepts or refuses it — and record
/// where each `(child, separator)` of an interior page starts, then where
/// its last child does. A leaf's index is empty.
fn index_page(page: &[u8]) -> DbResult<Vec<u16>> {
    let mut r = NodeReader::new(page)?;
    let mut index = Vec::new();
    match r.ty {
        TABLE_LEAF => {
            for _ in 0..r.len {
                r.cell()?;
            }
        }
        INDEX_LEAF => {
            for _ in 0..r.len {
                r.key()?;
            }
        }
        // An interior page: `NodeReader::new` refused every other type.
        ty => {
            index.reserve_exact(r.len + 1);
            for _ in 0..r.len {
                index.push(r.r.pos as u16);
                if ty == TABLE_INTERIOR {
                    r.table_sep()?;
                } else {
                    r.index_sep()?;
                }
            }
            index.push(r.r.pos as u16);
            r.last_child()?;
        }
    }
    Ok(index)
}

/// The first `i < n` at which `at_least(i)` holds, or `n`, by bisection:
/// `at_least` must be false and then true along `0..n`.
fn first_at_least(n: usize, mut at_least: impl FnMut(usize) -> DbResult<bool>) -> DbResult<usize> {
    let (mut lo, mut hi) = (0, n);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if at_least(mid)? {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    Ok(lo)
}

/// Pick the child `toward` leads to on a page and the `index` that
/// [`index_page`] made of it: `None` at a leaf, else `(index, child
/// page)`. A rowid or key takes the first separator ≥ it (the last child
/// when there is none), found by bisection — right because the page's
/// separators were checked strictly ascending when its bytes entered the
/// cache; `Child` and `Last` pick by position.
fn pick(page: &[u8], index: &[u16], toward: Toward<'_>) -> DbResult<Option<(usize, PageId)>> {
    // A reader at entry `i`; entry `n` is the last child.
    let entry = |i: usize| Reader { data: page, pos: usize::from(index[i]) };
    let n = index.len().saturating_sub(1);
    let at = match (page[0], toward) {
        (TABLE_LEAF, Toward::Rowid(_) | Toward::Child(_) | Toward::Last)
        | (INDEX_LEAF, Toward::Key(_) | Toward::Child(_)) => return Ok(None),
        (TABLE_INTERIOR, Toward::Rowid(rowid)) => first_at_least(n, |i| {
            let mut r = entry(i);
            r.u32()?;
            Ok(r.varint()? as i64 >= rowid)
        })?,
        (INDEX_INTERIOR, Toward::Key(target)) => first_at_least(n, |i| {
            let mut r = entry(i);
            r.u32()?;
            let len = r.varint()? as usize;
            Ok(r.take(len)? >= target)
        })?,
        (TABLE_INTERIOR | INDEX_INTERIOR, Toward::Child(c)) => c.min(n),
        (TABLE_INTERIOR, Toward::Last) => n,
        _ => {
            let tree = if let Toward::Key(_) = toward { "not an index tree" } else { "not a table tree" };
            return Err(DbError::Storage(tree.into()));
        }
    };
    Ok(Some((at, entry(at).u32()?)))
}

/// Walk from `page` down to a leaf along `toward`, picking each child in
/// place with [`pick`], and hand the leaf's id and bytes to `at_leaf` —
/// one page access per level — with whether the walk took the last child
/// at every level (the leaf is on the right edge of the subtree under
/// `page`). Each page, the leaf included, is checked once, by
/// [`index_page`], when its bytes enter or change in the cache. When
/// `path` is given (a cursor's stack, or the path a write carries a split
/// or an unlink up), each `(page, child index)` taken is pushed onto it
/// and the levels already on it count toward [`MAX_DEPTH`].
fn descend<R>(
    pager: &mut Pager,
    mut page: PageId,
    toward: Toward<'_>,
    mut path: Option<&mut Vec<(PageId, usize)>>,
    at_leaf: impl FnOnce(PageId, &[u8], bool) -> DbResult<R>,
) -> DbResult<R> {
    let above = path.as_ref().map_or(0, |p| p.len());
    let mut edge = true;
    for _ in above..MAX_DEPTH {
        let (bytes, index) = pager.get_indexed(page, index_page)?;
        let Some((idx, child)) = pick(bytes, index, toward)? else {
            return at_leaf(page, bytes, edge);
        };
        edge &= idx + 1 == index.len();
        if let Some(p) = path.as_deref_mut() {
            p.push((page, idx));
        }
        page = child;
    }
    Err(too_deep())
}

// ---------------------------------------------------------------------
// Editing pages in place
// ---------------------------------------------------------------------

/// One edit of a page's bytes: `range` gives way to `new`, after which the
/// page holds `count` entries. `used` is where its bytes in use ended.
struct Splice<'n> {
    range: Range<usize>,
    new: &'n [u8],
    used: usize,
    count: usize,
}

/// An edit as [`Splice::plan`] leaves it.
enum Edit<'n> {
    /// The edited page fits: splice it in place.
    Fits(Splice<'n>),
    /// The edited page, built in a two-page scratch buffer, for
    /// [`store_splitting`] to split; `append` when it is a leaf on the
    /// tree's right edge whose last entry was added past its old last, and
    /// the split then falls before that entry ([`halves`]).
    Overfull { buf: Vec<u8>, append: bool },
}

impl<'n> Splice<'n> {
    /// Make the edit in `page`: shift the bytes after `range`, write `new`
    /// and the entry count, and zero what the bytes in use no longer
    /// cover. A page the host padded (long varints) may not have room.
    fn apply(&self, page: &mut [u8]) -> DbResult<()> {
        let Range { start, end } = self.range;
        let used = self.end();
        if used > page.len() {
            return Err(DbError::Storage("edit overflows the page".into()));
        }
        page.copy_within(end..self.used, start + self.new.len());
        page[start..start + self.new.len()].copy_from_slice(self.new);
        if used < self.used {
            page[used..self.used].fill(0);
        }
        page[1..3].copy_from_slice(&(self.count as u16).to_le_bytes());
        Ok(())
    }

    /// Where the page's bytes in use end after the edit.
    fn end(&self) -> usize {
        self.used - self.range.len() + self.new.len()
    }

    /// The edit of `page` in place when its bytes in use then fit the
    /// page, else the edited page built in a scratch buffer of two pages,
    /// marked `append` ([`Edit::Overfull`]).
    fn plan(self, page: &[u8], append: bool) -> DbResult<Edit<'n>> {
        if self.end() <= PAGE_SIZE {
            return Ok(Edit::Fits(self));
        }
        let mut buf = vec![0; 2 * PAGE_SIZE];
        buf[..self.used].copy_from_slice(&page[..self.used]);
        self.apply(&mut buf)?;
        Ok(Edit::Overfull { buf, append })
    }
}

/// Lay out a node over `page`: type `ty`, `count` entries, whose bytes are
/// `parts` one after the other, and zeros after them.
fn write_node(page: &mut [u8], ty: u8, count: usize, parts: &[&[u8]]) -> DbResult<()> {
    let mut pos = 3;
    if pos + parts.iter().map(|p| p.len()).sum::<usize>() > page.len() {
        return Err(DbError::Storage("split half overflows a page".into()));
    }
    page[0] = ty;
    page[1..3].copy_from_slice(&(count as u16).to_le_bytes());
    for part in parts {
        page[pos..pos + part.len()].copy_from_slice(part);
        pos += part.len();
    }
    page[pos..].fill(0);
    Ok(())
}

/// Create an empty table tree; returns its root page.
pub fn create_table_tree(pager: &mut Pager) -> DbResult<PageId> {
    let id = pager.allocate()?;
    write_node(pager.get_mut(id)?, TABLE_LEAF, 0, &[])?;
    Ok(id)
}

/// Create an empty index tree; returns its root page.
pub fn create_index_tree(pager: &mut Pager) -> DbResult<PageId> {
    let id = pager.allocate()?;
    write_node(pager.get_mut(id)?, INDEX_LEAF, 0, &[])?;
    Ok(id)
}

// ---------------------------------------------------------------------
// Overflow chains
// ---------------------------------------------------------------------

fn write_overflow(pager: &mut Pager, data: &[u8]) -> DbResult<PageId> {
    let mut chunks: Vec<&[u8]> = data.chunks(OVERFLOW_CAP).collect();
    let mut next: PageId = 0;
    while let Some(chunk) = chunks.pop() {
        let id = pager.allocate()?;
        let page = pager.get_mut(id)?;
        page.fill(0);
        page[0] = OVERFLOW;
        page[1..5].copy_from_slice(&next.to_le_bytes());
        page[5..9].copy_from_slice(&(chunk.len() as u32).to_le_bytes());
        page[9..9 + chunk.len()].copy_from_slice(chunk);
        next = id;
    }
    Ok(next)
}

/// Walk the overflow chain from `id` of a cell that spills `total` bytes,
/// handing each page's id and bytes to `each`, and check it whole: every
/// page an overflow page holding 1 to `OVERFLOW_CAP` bytes, the bytes
/// adding up to `total`, and no more pages than the file has, so a cycle
/// ends too. The cell and the chain may come from the host: a caller that
/// frees the chain frees nothing until the walk is done.
fn walk_overflow(pager: &mut Pager, mut id: PageId, total: u32, mut each: impl FnMut(PageId, &[u8])) -> DbResult<()> {
    let total = total as usize;
    let mismatch = || DbError::Storage("overflow chain length mismatch".into());
    let mut seen = 0;
    for _ in 0..pager.page_count() {
        if id == 0 {
            break;
        }
        let page = pager.get(id)?;
        if page[0] != OVERFLOW {
            return Err(DbError::Storage("bad overflow page".into()));
        }
        let next = u32::from_le_bytes([page[1], page[2], page[3], page[4]]);
        let len = u32::from_le_bytes([page[5], page[6], page[7], page[8]]) as usize;
        if len == 0 || len > OVERFLOW_CAP || seen + len > total {
            return Err(mismatch());
        }
        each(id, &page[9..9 + len]);
        seen += len;
        id = next;
    }
    if id != 0 {
        return Err(DbError::Storage("overflow chain cycles".into()));
    }
    if seen != total {
        return Err(mismatch());
    }
    Ok(())
}

/// Append the `total` bytes of the overflow chain from `id` to `out`.
fn append_overflow(pager: &mut Pager, id: PageId, total: u32, out: &mut Vec<u8>) -> DbResult<()> {
    // `total` is read from a page the host may supply: reserve no more
    // than the file's pages can hold.
    out.reserve((total as usize).min(pager.page_count() as usize * OVERFLOW_CAP));
    walk_overflow(pager, id, total, |_, chunk| out.extend_from_slice(chunk))
}

/// Free the overflow chain from `id` of a cell that spills `total` bytes.
fn free_overflow(pager: &mut Pager, id: PageId, total: u32) -> DbResult<()> {
    let mut pages = Vec::new();
    walk_overflow(pager, id, total, |page, _| pages.push(page))?;
    pages.into_iter().try_for_each(|page| pager.free_page(page))
}

/// The table cell for `rowid → payload`; a payload past `MAX_LOCAL` bytes
/// spills its tail to a new overflow chain.
fn encode_cell(pager: &mut Pager, rowid: i64, payload: &[u8]) -> DbResult<Vec<u8>> {
    let (local, spill) = payload.split_at(payload.len().min(MAX_LOCAL));
    let mut cell = Vec::with_capacity(21 + local.len());
    write_varint(&mut cell, rowid as u64);
    write_varint(&mut cell, local.len() as u64);
    write_varint(&mut cell, spill.len() as u64);
    if !spill.is_empty() {
        cell.extend(write_overflow(pager, spill)?.to_le_bytes());
    }
    cell.extend_from_slice(local);
    Ok(cell)
}

// ---------------------------------------------------------------------
// Insert (with splits)
// ---------------------------------------------------------------------

/// Insert (or replace) `rowid → payload` in a table tree.
pub fn table_insert(pager: &mut Pager, root: PageId, rowid: i64, payload: &[u8]) -> DbResult<()> {
    let cell = encode_cell(pager, rowid, payload)?;
    write_leaf(pager, root, Key::Rowid(rowid), Some(&cell)).map(drop)
}

/// Largest supported index key (a node must hold at least two keys).
pub const MAX_INDEX_KEY: usize = 1500;

/// Insert a key into an index tree. A key already present is left as it
/// is: every index key ends in its row's rowid, so an equal key is the
/// same entry (uniqueness constraints check the prefix upstream).
pub fn index_insert(pager: &mut Pager, root: PageId, key: Vec<u8>) -> DbResult<()> {
    if key.len() > MAX_INDEX_KEY {
        return Err(DbError::Unsupported(format!(
            "index key of {} bytes exceeds the {MAX_INDEX_KEY}-byte limit",
            key.len()
        )));
    }
    let mut entry = Vec::with_capacity(key.len() + 2);
    write_varint(&mut entry, key.len() as u64);
    entry.extend_from_slice(&key);
    write_leaf(pager, root, Key::Bytes(&key), Some(&entry)).map(drop)
}

/// The edit of `leaf` at `target`'s entry: `put`, an encoded entry, goes
/// in, over a table cell with the same rowid; with no `put`, the entry
/// goes. `None` when there is nothing to do: an index key already present
/// stays, and an entry that is not there cannot go. Also returns the
/// overflow chain `(head, length)` of the cell that goes. An entry put
/// past the last of a leaf on the tree's right `edge` is an append: a
/// leaf it overfills keeps its entries and the new one starts a page.
fn edit_leaf<'n>(
    leaf: &[u8],
    target: Key<'_>,
    put: Option<&'n [u8]>,
    edge: bool,
) -> DbResult<Option<(Edit<'n>, (PageId, u32))>> {
    let lay = Layout::of(leaf)?;
    let (i, found) = lay.find(leaf, target)?;
    let idle = if put.is_some() { found && lay.ty == INDEX_LEAF } else { !found };
    if idle {
        return Ok(None);
    }
    let chain = if found { lay.chain(leaf, i)? } else { (0, 0) };
    let splice = Splice {
        range: lay.at[i]..lay.at[i + usize::from(found)],
        new: put.unwrap_or_default(),
        used: lay.used,
        count: lay.len() + usize::from(put.is_some()) - usize::from(found),
    };
    let append = edge && i == lay.len() && put.is_some();
    Ok(Some((splice.plan(leaf, append)?, chain)))
}

/// Descend toward `target`'s leaf and edit it ([`edit_leaf`]); free the
/// overflow chain of a cell the edit took off, then store the leaf — or
/// split it ([`store_splitting`]), or unlink it when the edit emptied a
/// leaf below the root. Returns whether there was anything to do.
///
/// The edit is worked out on the bytes the descent holds and spliced into
/// them through `get_mut`. Only the chain walk comes between, and a leaf
/// it evicts and reloads from the host gets the same splice: whatever
/// that leaves is checked again at its next read, since `get_mut` drops
/// the page's index.
fn write_leaf(pager: &mut Pager, root: PageId, target: Key<'_>, put: Option<&[u8]>) -> DbResult<bool> {
    let mut path = Vec::new();
    let hit = descend(pager, root, target.toward(), Some(&mut path), |page, leaf, edge| {
        Ok(edit_leaf(leaf, target, put, edge)?.map(|(edit, chain)| (page, edit, chain)))
    })?;
    let Some((page, edit, (head, len))) = hit else {
        return Ok(false);
    };
    if len > 0 {
        free_overflow(pager, head, len)?;
    }
    match edit {
        Edit::Fits(splice) if splice.count == 0 && !path.is_empty() => {
            let ty = if let Key::Rowid(_) = target { TABLE_LEAF } else { INDEX_LEAF };
            unlink_emptied(pager, &path, page, ty)?;
        }
        edit => store_splitting(pager, &path, page, edit)?,
    }
    Ok(true)
}

/// Store `edit` of `page`, which [`descend`] reached through `path` (its
/// `(interior page, child index)` pairs from the root down). An overfull
/// page splits ([`halves`]): its right half goes to a new page, its left
/// half stays, and its parent takes the separator and the new right
/// sibling in ([`adopt`]), spliced in the `get_mut` borrow that holds it
/// when it fits, else built overfull and split in turn. An append leaves
/// its leaf full and opens the right sibling with the new entry alone; the
/// parents split as any page does. The root keeps its page id, which the
/// catalog holds: when it splits, its left half moves to a new page,
/// allocated after the right sibling, and the root becomes the interior
/// node over the two.
fn store_splitting(pager: &mut Pager, path: &[(PageId, usize)], mut page: PageId, edit: Edit<'_>) -> DbResult<()> {
    let (mut buf, mut append) = match edit {
        Edit::Fits(splice) => return splice.apply(pager.get_mut(page)?),
        Edit::Overfull { buf, append } => (buf, append),
    };
    let mut parents = path.iter().rev();
    loop {
        let ty = buf[0];
        let h = halves(&buf, std::mem::take(&mut append))?;
        let right = pager.allocate()?;
        write_node(pager.get_mut(right)?, ty, h.right_len, &[&buf[h.right]])?;
        let Some(&(parent, idx)) = parents.next() else {
            let left = pager.allocate()?;
            write_node(pager.get_mut(left)?, ty, h.left_len, &[&buf[h.left]])?;
            let over = [&left.to_le_bytes()[..], &buf[h.sep], &right.to_le_bytes()];
            return write_node(pager.get_mut(page)?, ty & !LEAF, 1, &over);
        };
        write_node(pager.get_mut(page)?, ty, h.left_len, &[&buf[h.left]])?;
        let mut new = buf[h.sep].to_vec();
        new.extend(right.to_le_bytes());
        let bytes = pager.get_mut(parent)?;
        match adopt(bytes, ty, idx, &new)? {
            Edit::Fits(splice) => return splice.apply(bytes),
            Edit::Overfull { buf: up, .. } => (page, buf) = (parent, up),
        }
    }
}

/// How an overfull page splits, as byte ranges of it: each half's entries
/// (an interior left half ends with the child that becomes its last), and
/// the separator that goes up, encoded as an interior entry holds it.
struct Halves {
    left: Range<usize>,
    left_len: usize,
    right: Range<usize>,
    right_len: usize,
    sep: Range<usize>,
}

/// Split the overfull page in `buf`: a leaf at [`split_point`], or before
/// its last entry when that entry is an `append` ([`Edit::Overfull`]), its
/// left half's largest key copied up; an interior page at
/// [`interior_split_point`]'s separator, which moves up.
fn halves(buf: &[u8], append: bool) -> DbResult<Halves> {
    let lay = Layout::of(buf)?;
    let (at, n) = (&lay.at, lay.len());
    let sizes: Vec<usize> = at.windows(2).map(|w| w[1] - w[0]).collect();
    if lay.ty & LEAF == 0 {
        let mid = interior_split_point(&sizes);
        return Ok(Halves {
            left: 3..at[mid] + 4,
            left_len: mid,
            right: at[mid + 1]..lay.used,
            right_len: n - mid - 1,
            sep: at[mid] + 4..at[mid + 1],
        });
    }
    let cut = if append { n - 1 } else { split_point(&sizes) };
    let last = at[cut - 1];
    let sep_end = if lay.ty == TABLE_LEAF { last + read_varint(&buf[last..])?.1 } else { at[cut] };
    Ok(Halves {
        left: 3..at[cut],
        left_len: cut,
        right: at[cut]..lay.used,
        right_len: n - cut,
        sep: last..sep_end,
    })
}

/// Where to split an overfull leaf whose entries take `sizes` bytes: after
/// the entry that crosses the middle, unless that leaves the left half
/// over a page — a cell of up to `MAX_LOCAL` local bytes can cross it —
/// and then before it. The right half still fits: the entries before the
/// crossing one then hold more than a page less the 3-byte header and one
/// entry, and the leaf held at most a page before the insert added one
/// entry, so the right half holds less than two entries (a cell takes at
/// most 2 021 bytes).
fn split_point(sizes: &[usize]) -> usize {
    let total: usize = sizes.iter().sum();
    let mut acc = 0;
    for (i, s) in sizes.iter().enumerate() {
        acc += s;
        if acc >= total / 2 {
            let cut = if 3 + acc > PAGE_SIZE { i } else { i + 1 };
            return cut.min(sizes.len() - 1).max(1);
        }
    }
    sizes.len() / 2
}

/// The separator that moves up when an overfull interior page whose
/// entries take `sizes` bytes splits: the one whose entry holds the byte
/// middle of the entries — the last one with at most half the bytes
/// before it. Equal entries split at the middle by count. Both halves fit
/// a page: each holds the page's 7 bytes of header and last child and at
/// most half of the entries' bytes, and an overfull page holds at most a
/// page plus one entry of up to `6 + MAX_INDEX_KEY` bytes. (The middle
/// separator by count could leave a half of three keys of `MAX_INDEX_KEY`
/// bytes, over a page.)
fn interior_split_point(sizes: &[usize]) -> usize {
    let total: usize = sizes.iter().sum();
    let mut before = 0;
    for (i, s) in sizes.iter().enumerate() {
        if 2 * (before + s) > total {
            return i;
        }
        before += s;
    }
    sizes.len() - 1
}

/// The edit by which interior page `parent` takes in a split of its child
/// `idx`, a page of type `ty`: before entry `idx` goes `(child idx,
/// separator)`, and the next child — or the last — becomes the new right
/// sibling. `new` is the separator, as an interior entry encodes it,
/// followed by the right sibling's id.
fn adopt<'n>(parent: &[u8], ty: u8, idx: usize, new: &'n [u8]) -> DbResult<Edit<'n>> {
    let lay = Layout::of(parent)?;
    if lay.ty != ty & !LEAF {
        return Err(DbError::Storage("tree type mismatch".into()));
    }
    // The parent's bytes may have been reloaded since the descent.
    let Some(&at) = lay.at.get(idx) else {
        return Err(DbError::Storage("split child is not on its parent".into()));
    };
    let splice = Splice { range: at + 4..at + 4, new, used: lay.used, count: lay.len() + 1 };
    splice.plan(parent, false)
}

// ---------------------------------------------------------------------
// Lookup / delete
// ---------------------------------------------------------------------

/// Fetch the record for `rowid`, if present. The pages are read in place:
/// the leaf, checked when its bytes entered the cache, is parsed up to
/// the first cell at or above `rowid`, and only a match is copied out
/// (with its overflow chain).
pub fn table_get(pager: &mut Pager, root: PageId, rowid: i64) -> DbResult<Option<Vec<u8>>> {
    let hit = descend(pager, root, Toward::Rowid(rowid), None, |_, leaf, _| {
        let mut r = NodeReader::new(leaf)?;
        for _ in 0..r.len {
            let cell = r.cell()?;
            if cell.rowid >= rowid {
                return Ok((cell.rowid == rowid).then(|| (cell.local.to_vec(), cell.overflow_len, cell.overflow)));
            }
        }
        Ok(None)
    })?;
    let Some((mut payload, overflow_len, overflow)) = hit else {
        return Ok(None);
    };
    if overflow_len > 0 {
        append_overflow(pager, overflow, overflow_len, &mut payload)?;
    }
    Ok(Some(payload))
}

/// Delete `rowid`; returns whether it existed.
///
/// Nodes are never merged or rebalanced — a leaf may run down to a single
/// cell and is refilled by later inserts in its key range — but a leaf the
/// delete *empties* is unlinked from its parent and its page returned to
/// the freelist, and so is every ancestor that loses its last child
/// (`unlink_emptied`). Without that, keys that only ever grow (a FIFO
/// queue, an auto-increment table under churn) leave a trail of empty
/// leaves behind and the file grows without bound. Cursors hold page ids:
/// none may be open across a delete ([`Cursor`] asserts it).
pub fn table_delete(pager: &mut Pager, root: PageId, rowid: i64) -> DbResult<bool> {
    write_leaf(pager, root, Key::Rowid(rowid), None)
}

/// Delete an exact key from an index tree; returns whether it existed.
/// Emptied leaves are unlinked and freed as in [`table_delete`].
pub fn index_delete(pager: &mut Pager, root: PageId, key: &[u8]) -> DbResult<bool> {
    write_leaf(pager, root, Key::Bytes(key), None)
}

/// `page` — reached from the root through `path`, a list of (interior
/// page, child index taken) — has just lost its last entry: free it and
/// drop it from its parent ([`drop_child`]). A parent left without
/// children goes the same way, up to the root, whose page id is referenced
/// from the catalog and must stay: it becomes an empty leaf of type `ty`.
/// The path comes from a descent, so it is at most [`MAX_DEPTH`] long.
fn unlink_emptied(pager: &mut Pager, path: &[(PageId, usize)], mut page: PageId, ty: u8) -> DbResult<()> {
    for &(parent, idx) in path.iter().rev() {
        pager.free_page(page)?;
        let bytes = pager.get_mut(parent)?;
        if let Some(splice) = drop_child(bytes, idx)? {
            return splice.apply(bytes);
        }
        page = parent;
    }
    write_node(pager.get_mut(page)?, ty, 0, &[])
}

/// The edit that takes child `idx` off interior page `parent`, together
/// with the separator that bounded it (the last separator when it was the
/// unbounded last child); `None` when it was the only child.
fn drop_child(parent: &[u8], idx: usize) -> DbResult<Option<Splice<'static>>> {
    let lay = Layout::of(parent)?;
    let n = lay.len();
    if lay.ty & LEAF != 0 {
        return Err(DbError::Storage("leaf on the path to a leaf".into()));
    }
    if idx > n {
        return Err(DbError::Storage("emptied child is not on its parent".into()));
    }
    if n == 0 {
        return Ok(None);
    }
    let range = if idx < n { lay.at[idx]..lay.at[idx + 1] } else { lay.at[n - 1] + 4..lay.used };
    Ok(Some(Splice { range, new: &[], used: lay.used, count: n - 1 }))
}

/// Largest rowid in the table (for auto-increment), read in place.
pub fn table_max_rowid(pager: &mut Pager, root: PageId) -> DbResult<Option<i64>> {
    descend(pager, root, Toward::Last, None, |_, leaf, _| {
        let mut r = NodeReader::new(leaf)?;
        let mut max = None;
        for _ in 0..r.len {
            max = Some(r.cell()?.rowid);
        }
        Ok(max)
    })
}

/// Free every page of a tree (DROP TABLE / DROP INDEX). A page reached
/// twice — a forged subtree shared by two parents — is refused before it
/// can go on the freelist twice.
pub fn free_tree(pager: &mut Pager, root: PageId) -> DbResult<()> {
    free_subtree(pager, root, 0, &mut HashSet::new())
}

fn free_subtree(pager: &mut Pager, page: PageId, depth: usize, freed: &mut HashSet<PageId>) -> DbResult<()> {
    if depth == MAX_DEPTH {
        return Err(too_deep());
    }
    if !freed.insert(page) {
        return Err(DbError::Storage(format!("page {page} is in the tree twice")));
    }
    // What hangs below the page, read in place: a leaf's overflow chains,
    // or an interior page's children.
    let bytes = pager.get(page)?;
    let lay = Layout::of(bytes)?;
    let (mut chains, mut children) = (Vec::new(), Vec::new());
    if lay.ty & LEAF != 0 {
        for i in 0..lay.len() {
            chains.push(lay.chain(bytes, i)?);
        }
    } else {
        for &pos in &lay.at {
            children.push(Reader { data: bytes, pos }.u32()?);
        }
    }
    for (head, len) in chains {
        if len > 0 {
            free_overflow(pager, head, len)?;
        }
    }
    for child in children {
        free_subtree(pager, child, depth + 1, freed)?;
    }
    pager.free_page(page)
}

// ---------------------------------------------------------------------
// Cursors
// ---------------------------------------------------------------------

/// A forward cursor over a tree's leaves.
pub struct Cursor {
    /// Path of (page, child index) from the root (interior levels).
    stack: Vec<(PageId, usize)>,
    /// The leaf the cursor stands on.
    leaf: Option<Leaf>,
    /// The buffer of the leaf the cursor left last, for the next copy.
    spare: Vec<u8>,
    /// [`Pager::pages_freed`] when the cursor was opened. The stack and
    /// the leaf name pages by id; a page freed since (an emptied leaf, a
    /// replaced overflow chain) may already hold something else.
    pages_freed_at_open: u64,
}

/// A cursor's leaf: a copy of its checked bytes, taken once from the
/// descent's borrow, and the entry the cursor is at. Entries are read from
/// the copy, so the pager — and Fig. 5's page hook — sees one access per
/// leaf.
struct Leaf {
    page: PageId,
    bytes: Vec<u8>,
    lay: Layout,
    idx: usize,
}

impl Leaf {
    /// Copy leaf `page`'s checked `bytes` into `buf`, a buffer a leaf the
    /// cursor left gave up (so a scan allocates none per leaf).
    fn copy(page: PageId, bytes: &[u8], mut buf: Vec<u8>) -> DbResult<Self> {
        let lay = Layout::of(bytes)?;
        buf.clear();
        buf.extend_from_slice(&bytes[..lay.used]);
        Ok(Self { page, bytes: buf, lay, idx: 0 })
    }

    fn key(&self, i: usize) -> DbResult<Key<'_>> {
        NodeReader::at(&self.bytes, self.lay.at[i]).leaf_key()
    }

    /// Whether every key of `right` is above every key of this leaf (each
    /// already strictly ascending): this leaf's last below `right`'s first.
    fn precedes(&self, right: &Leaf) -> DbResult<bool> {
        let last = self.lay.len().checked_sub(1).map(|i| self.key(i)).transpose()?;
        Ok(self.lay.ty == right.lay.ty && last < Some(right.key(0)?))
    }
}

impl Cursor {
    /// Descend to `target`'s leaf (the first leaf with no target) and stand
    /// on its first entry ≥ `target`, or on the first entry of the next
    /// non-empty leaf when there is none.
    fn open(pager: &mut Pager, root: PageId, target: Option<Key<'_>>) -> DbResult<Self> {
        let pages_freed_at_open = pager.pages_freed();
        let mut stack = Vec::new();
        let toward = target.map_or(Toward::Child(0), Key::toward);
        let copy = |page, bytes: &[u8], _| Leaf::copy(page, bytes, Vec::new());
        let mut leaf = descend(pager, root, toward, Some(&mut stack), copy)?;
        if let Some(target) = target {
            leaf.idx = leaf.lay.find(&leaf.bytes, target)?.0;
        }
        let at_end = leaf.idx >= leaf.lay.len();
        let mut c = Self { stack, leaf: Some(leaf), spare: Vec::new(), pages_freed_at_open };
        if at_end {
            c.advance_leaf(pager)?;
        }
        Ok(c)
    }

    /// Statement execution collects its target rows before it deletes or
    /// replaces anything, so no cursor is ever moved or read after a page
    /// was freed under it. Every page access of a cursor checks that.
    fn assert_no_page_freed_since_open(&self, pager: &Pager) {
        assert_eq!(
            pager.pages_freed(),
            self.pages_freed_at_open,
            "B-tree cursor used after a page was freed under it"
        );
    }

    /// Cursor positioned at the first entry.
    pub fn first(pager: &mut Pager, root: PageId) -> DbResult<Self> {
        Self::open(pager, root, None)
    }

    /// Cursor positioned at the first table entry with `rowid ≥ target`.
    pub fn seek_rowid(pager: &mut Pager, root: PageId, target: i64) -> DbResult<Self> {
        Self::open(pager, root, Some(Key::Rowid(target)))
    }

    /// Cursor positioned at the first index key ≥ `target`.
    pub fn seek_key(pager: &mut Pager, root: PageId, target: &[u8]) -> DbResult<Self> {
        Self::open(pager, root, Some(Key::Bytes(target)))
    }

    /// Move to the first entry of the next non-empty leaf. The interior
    /// pages on the stack pick the next child in place ([`pick`]); only the
    /// leaf is copied. Its first key must be above the last key of the
    /// leaf the cursor leaves: a forged interior page that names one leaf
    /// twice would otherwise replay it (and hide the leaf it stands in
    /// for).
    fn advance_leaf(&mut self, pager: &mut Pager) -> DbResult<()> {
        self.assert_no_page_freed_since_open(pager);
        let left = self.leaf.take();
        while let Some((page, idx)) = self.stack.pop() {
            let (bytes, index) = pager.get_indexed(page, index_page)?;
            let Some((next, child)) = pick(bytes, index, Toward::Child(idx + 1))? else {
                return Err(DbError::Storage("corrupt cursor stack".into()));
            };
            if next != idx + 1 {
                continue; // `idx` was the last child: go up a level
            }
            self.stack.push((page, next));
            let spare = std::mem::take(&mut self.spare);
            let copy = |page, bytes: &[u8], _| Leaf::copy(page, bytes, spare);
            let leaf = descend(pager, child, Toward::Child(0), Some(&mut self.stack), copy)?;
            if leaf.lay.len() == 0 {
                self.spare = leaf.bytes;
                continue;
            }
            if let Some(left) = &left {
                if !left.precedes(&leaf)? {
                    return Err(DbError::Storage(format!("leaf {} repeats keys of an earlier leaf", leaf.page)));
                }
            }
            self.leaf = Some(leaf);
            break;
        }
        if let Some(left) = left {
            self.spare = left.bytes;
        }
        Ok(())
    }

    /// Whether the cursor points at an entry.
    #[must_use]
    pub fn valid(&self) -> bool {
        self.leaf.as_ref().is_some_and(|leaf| leaf.idx < leaf.lay.len())
    }

    /// A reader at the entry the cursor points at, on a leaf of type `ty`.
    fn entry(&self, ty: u8) -> Option<NodeReader<'_>> {
        let leaf = self.leaf.as_ref()?;
        (leaf.lay.ty == ty && leaf.idx < leaf.lay.len()).then(|| NodeReader::at(&leaf.bytes, leaf.lay.at[leaf.idx]))
    }

    /// Current table entry `(rowid, payload)`.
    pub fn table_entry(&self, pager: &mut Pager) -> DbResult<(i64, Vec<u8>)> {
        let Some(mut r) = self.entry(TABLE_LEAF) else {
            return Err(DbError::Storage("cursor not on a table entry".into()));
        };
        self.assert_no_page_freed_since_open(pager);
        let cell = r.cell()?;
        let mut payload = cell.local.to_vec();
        if cell.overflow_len > 0 {
            append_overflow(pager, cell.overflow, cell.overflow_len, &mut payload)?;
        }
        Ok((cell.rowid, payload))
    }

    /// Current index key.
    pub fn index_entry(&self) -> DbResult<&[u8]> {
        match self.entry(INDEX_LEAF) {
            Some(mut r) => r.key(),
            None => Err(DbError::Storage("cursor not on an index entry".into())),
        }
    }

    /// Advance; returns whether the cursor is still valid.
    pub fn next(&mut self, pager: &mut Pager) -> DbResult<bool> {
        let Some(leaf) = &mut self.leaf else {
            return Ok(false);
        };
        leaf.idx += 1;
        if leaf.idx < leaf.lay.len() {
            return Ok(true);
        }
        self.advance_leaf(pager)?;
        Ok(self.valid())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A table-leaf cell of the test model.
    #[derive(Debug, Clone, PartialEq)]
    struct TableCell {
        /// Row key.
        rowid: i64,
        /// Local prefix of the payload.
        local: Vec<u8>,
        /// Remaining payload length beyond `local`.
        overflow_len: u32,
        /// First overflow page, when `overflow_len > 0`.
        overflow: PageId,
    }

    /// A decoded node: the fixture builder of the forged-page tests, and
    /// the model the byte editor is held to.
    #[derive(Debug, Clone, PartialEq)]
    enum Node {
        /// Leaf of a table tree.
        TableLeaf {
            /// Cells sorted by rowid.
            cells: Vec<TableCell>,
        },
        /// Interior of a table tree: `children.len() == keys.len() + 1`;
        /// subtree `i` holds rowids ≤ `keys[i]` (last subtree unbounded).
        TableInterior {
            /// Child pages.
            children: Vec<PageId>,
            /// Separator keys.
            keys: Vec<i64>,
        },
        /// Leaf of an index tree: sorted, unique key blobs.
        IndexLeaf {
            /// Keys.
            keys: Vec<Vec<u8>>,
        },
        /// Interior of an index tree.
        IndexInterior {
            /// Child pages.
            children: Vec<PageId>,
            /// Separator keys (copies of the max key of each left subtree).
            keys: Vec<Vec<u8>>,
        },
    }

    /// The separator a split sends up: the bound of its left half (a leaf's
    /// largest key, or an interior node's middle separator).
    #[derive(Debug)]
    enum Sep {
        Rowid(i64),
        Key(Vec<u8>),
    }

    impl Sep {
        /// The separator as an interior entry encodes it.
        fn encoded(&self) -> Vec<u8> {
            let mut out = Vec::new();
            match self {
                Sep::Rowid(key) => write_varint(&mut out, *key as u64),
                Sep::Key(key) => {
                    write_varint(&mut out, key.len() as u64);
                    out.extend_from_slice(key);
                }
            }
            out
        }
    }

    /// Bytes of `v` as a varint.
    fn varint_len(v: u64) -> usize {
        let mut out = Vec::new();
        write_varint(&mut out, v);
        out.len()
    }

    impl Node {
        /// The bytes each entry takes on the page, in page order (an
        /// interior entry's child included).
        fn entry_sizes(&self) -> Vec<usize> {
            let key = |k: &Vec<u8>| varint_len(k.len() as u64) + k.len();
            match self {
                Node::TableLeaf { cells } => cells
                    .iter()
                    .map(|c| {
                        let chain = if c.overflow_len > 0 { 4 } else { 0 };
                        let lens = varint_len(c.local.len() as u64) + varint_len(u64::from(c.overflow_len));
                        varint_len(c.rowid as u64) + lens + chain + c.local.len()
                    })
                    .collect(),
                Node::TableInterior { keys, .. } => keys.iter().map(|&k| 4 + varint_len(k as u64)).collect(),
                Node::IndexLeaf { keys } => keys.iter().map(key).collect(),
                Node::IndexInterior { keys, .. } => keys.iter().map(|k| 4 + key(k)).collect(),
            }
        }

        /// Serialised size, its bytes in use (must fit `PAGE_SIZE`): the
        /// 3-byte header, the entries and an interior node's last child.
        fn encoded_size(&self) -> usize {
            let last_child = match self {
                Node::TableInterior { .. } | Node::IndexInterior { .. } => 4,
                _ => 0,
            };
            3 + self.entry_sizes().iter().sum::<usize>() + last_child
        }

        /// Encode over `out`, zeroing the rest; returns the bytes written.
        fn encode(&self, out: &mut [u8]) -> usize {
            out.fill(0);
            let mut w = Writer { out, pos: 0 };
            match self {
                Node::TableLeaf { cells } => {
                    w.u8(TABLE_LEAF);
                    w.u16(cells.len() as u16);
                    for c in cells {
                        w.varint(c.rowid as u64);
                        w.varint(c.local.len() as u64);
                        w.varint(u64::from(c.overflow_len));
                        if c.overflow_len > 0 {
                            w.u32(c.overflow);
                        }
                        w.bytes(&c.local);
                    }
                }
                Node::TableInterior { children, keys } => {
                    w.u8(TABLE_INTERIOR);
                    w.u16(keys.len() as u16);
                    for (i, k) in keys.iter().enumerate() {
                        w.u32(children[i]);
                        w.varint(*k as u64);
                    }
                    w.u32(*children.last().expect("interior has children"));
                }
                Node::IndexLeaf { keys } => {
                    w.u8(INDEX_LEAF);
                    w.u16(keys.len() as u16);
                    for k in keys {
                        w.varint(k.len() as u64);
                        w.bytes(k);
                    }
                }
                Node::IndexInterior { children, keys } => {
                    w.u8(INDEX_INTERIOR);
                    w.u16(keys.len() as u16);
                    for (i, k) in keys.iter().enumerate() {
                        w.u32(children[i]);
                        w.varint(k.len() as u64);
                        w.bytes(k);
                    }
                    w.u32(*children.last().expect("interior has children"));
                }
            }
            w.pos
        }

        /// Split an overfull node: keep the left half and return the
        /// separator that goes up with the right half. A leaf splits at
        /// [`split_point`], or before its last entry when that entry is an
        /// `append`, and its largest key is copied up; an interior node
        /// splits at [`interior_split_point`]'s separator, which moves up.
        fn split(&mut self, append: bool) -> (Sep, Node) {
            /// The entries after the separator `mid`, and the separator.
            fn halve<K>(children: &mut Vec<PageId>, keys: &mut Vec<K>, mid: usize) -> (K, Vec<PageId>, Vec<K>) {
                let right_keys = keys.split_off(mid + 1);
                (keys.remove(mid), children.split_off(mid + 1), right_keys)
            }
            let sizes = self.entry_sizes();
            let cut = if append { sizes.len() - 1 } else { split_point(&sizes) };
            let mid = interior_split_point(&sizes);
            match self {
                Node::TableLeaf { cells } => {
                    let right = cells.split_off(cut);
                    (Sep::Rowid(cells[cut - 1].rowid), Node::TableLeaf { cells: right })
                }
                Node::IndexLeaf { keys } => {
                    let right = keys.split_off(cut);
                    (Sep::Key(keys[cut - 1].clone()), Node::IndexLeaf { keys: right })
                }
                Node::TableInterior { children, keys } => {
                    let (sep, children, keys) = halve(children, keys, mid);
                    (Sep::Rowid(sep), Node::TableInterior { children, keys })
                }
                Node::IndexInterior { children, keys } => {
                    let (sep, children, keys) = halve(children, keys, mid);
                    (Sep::Key(sep), Node::IndexInterior { children, keys })
                }
            }
        }

        /// Take in what a split of child `idx` sent up: `sep` now bounds
        /// child `idx`, and `right` follows it.
        fn adopt(&mut self, idx: usize, sep: Sep, right: PageId) {
            fn put<K>(children: &mut Vec<PageId>, keys: &mut Vec<K>, idx: usize, sep: K, right: PageId) {
                keys.insert(idx, sep);
                children.insert(idx + 1, right);
            }
            match (self, sep) {
                (Node::TableInterior { children, keys }, Sep::Rowid(sep)) => put(children, keys, idx, sep, right),
                (Node::IndexInterior { children, keys }, Sep::Key(sep)) => put(children, keys, idx, sep, right),
                (node, sep) => panic!("{sep:?} on {node:?}"),
            }
        }

        /// Drop child `idx` and the separator that bounded it (the last
        /// separator for the last child); returns whether children are left.
        fn remove_child(&mut self, idx: usize) -> bool {
            fn remove<K>(children: &mut Vec<PageId>, keys: &mut Vec<K>, idx: usize) -> bool {
                children.remove(idx);
                if !keys.is_empty() {
                    keys.remove(idx.min(keys.len() - 1));
                }
                !children.is_empty()
            }
            match self {
                Node::TableInterior { children, keys } => remove(children, keys, idx),
                Node::IndexInterior { children, keys } => remove(children, keys, idx),
                leaf => panic!("not an interior node: {leaf:?}"),
            }
        }

        /// Decode a whole page: a collect over [`NodeReader`], so a page is
        /// accepted or refused exactly as the in-place reads accept or
        /// refuse it.
        fn decode(data: &[u8]) -> DbResult<Node> {
            let mut r = NodeReader::new(data)?;
            let n = r.len;
            Ok(match r.ty {
                TABLE_LEAF => Node::TableLeaf {
                    cells: (0..n)
                        .map(|_| {
                            r.cell().map(|c| TableCell {
                                rowid: c.rowid,
                                local: c.local.to_vec(),
                                overflow_len: c.overflow_len,
                                overflow: c.overflow,
                            })
                        })
                        .collect::<DbResult<_>>()?,
                },
                TABLE_INTERIOR => {
                    let mut children = Vec::with_capacity(n + 1);
                    let mut keys = Vec::with_capacity(n);
                    for _ in 0..n {
                        let (child, key) = r.table_sep()?;
                        children.push(child);
                        keys.push(key);
                    }
                    children.push(r.last_child()?);
                    Node::TableInterior { children, keys }
                }
                INDEX_LEAF => Node::IndexLeaf {
                    keys: (0..n).map(|_| r.key().map(<[u8]>::to_vec)).collect::<DbResult<_>>()?,
                },
                _ => {
                    let mut children = Vec::with_capacity(n + 1);
                    let mut keys = Vec::with_capacity(n);
                    for _ in 0..n {
                        let (child, key) = r.index_sep()?;
                        children.push(child);
                        keys.push(key.to_vec());
                    }
                    children.push(r.last_child()?);
                    Node::IndexInterior { children, keys }
                }
            })
        }
    }

    struct Writer<'a> {
        out: &'a mut [u8],
        pos: usize,
    }

    impl Writer<'_> {
        fn u8(&mut self, v: u8) {
            self.out[self.pos] = v;
            self.pos += 1;
        }
        fn u16(&mut self, v: u16) {
            self.out[self.pos..self.pos + 2].copy_from_slice(&v.to_le_bytes());
            self.pos += 2;
        }
        fn u32(&mut self, v: u32) {
            self.out[self.pos..self.pos + 4].copy_from_slice(&v.to_le_bytes());
            self.pos += 4;
        }
        /// [`crate::record::write_varint`]'s encoding, written in place.
        fn varint(&mut self, mut v: u64) {
            loop {
                let b = (v & 0x7F) as u8;
                v >>= 7;
                if v == 0 {
                    return self.u8(b);
                }
                self.u8(b | 0x80);
            }
        }
        fn bytes(&mut self, b: &[u8]) {
            self.out[self.pos..self.pos + b.len()].copy_from_slice(b);
            self.pos += b.len();
        }
    }

    /// Decode a page through the model.
    fn load(pager: &mut Pager, id: PageId) -> DbResult<Node> {
        Node::decode(pager.get(id)?)
    }

    /// Write a model node over a page.
    fn store(pager: &mut Pager, id: PageId, node: &Node) -> DbResult<()> {
        debug_assert!(node.encoded_size() <= PAGE_SIZE, "node overflows page");
        node.encode(pager.get_mut(id)?);
        Ok(())
    }

    fn read_overflow(pager: &mut Pager, id: PageId, total: u32) -> DbResult<Vec<u8>> {
        let mut out = Vec::new();
        append_overflow(pager, id, total, &mut out)?;
        Ok(out)
    }

    /// The full payload of a model cell.
    fn cell_payload(pager: &mut Pager, cell: &TableCell) -> DbResult<Vec<u8>> {
        let mut out = cell.local.clone();
        if cell.overflow_len > 0 {
            append_overflow(pager, cell.overflow, cell.overflow_len, &mut out)?;
        }
        Ok(out)
    }

    /// Every page in `2..=page_count` is either reached exactly once from
    /// `roots` — through tree pages and overflow chains — or free (on the
    /// freelist or one of its trunk pages), and none is both.
    fn assert_pages_accounted(p: &mut Pager, roots: &[PageId]) {
        let mut reached = HashSet::new();
        let mut todo = roots.to_vec();
        while let Some(page) = todo.pop() {
            assert!(reached.insert(page), "page {page} reached twice");
            match load(p, page).unwrap() {
                Node::TableLeaf { cells } => {
                    for c in cells.iter().filter(|c| c.overflow_len > 0) {
                        let mut chain = Vec::new();
                        walk_overflow(p, c.overflow, c.overflow_len, |id, _| chain.push(id)).unwrap();
                        for id in chain {
                            assert!(reached.insert(id), "overflow page {id} reached twice");
                        }
                    }
                }
                Node::TableInterior { children, .. } | Node::IndexInterior { children, .. } => todo.extend(children),
                Node::IndexLeaf { .. } => {}
            }
        }
        let mut free = HashSet::new();
        for page in p.free_pages() {
            assert!(free.insert(page), "page {page} is free twice");
            assert!(!reached.contains(&page), "page {page} is reached and free");
        }
        for page in 2..=p.page_count() {
            assert!(reached.contains(&page) || free.contains(&page), "page {page} is neither reached nor free");
        }
        assert_eq!(1 + reached.len() + free.len(), p.page_count() as usize, "pages out of range");
    }

    fn mem_pager() -> Pager {
        let mut p = Pager::open_file(Box::new(crate::vfs::MemVfs::new()), "btree.db").unwrap();
        p.begin().unwrap();
        p
    }

    #[test]
    fn forged_overflow_lengths_are_storage_errors() {
        let mut p = mem_pager();
        let data = vec![7u8; 3 * OVERFLOW_CAP + 5];
        let head = write_overflow(&mut p, &data).unwrap();
        assert_eq!(read_overflow(&mut p, head, data.len() as u32).unwrap(), data);
        // A cell claiming 4 GiB of overflow must not reserve it.
        for total in [u32::MAX, data.len() as u32 - 1, data.len() as u32 + 1] {
            assert!(matches!(read_overflow(&mut p, head, total), Err(DbError::Storage(_))));
        }
        // A page claiming more bytes than it holds, or none (which would let
        // a chain point at itself forever).
        for len in [OVERFLOW_CAP as u32 + 1, u32::MAX, 0] {
            p.get_mut(head).unwrap()[5..9].copy_from_slice(&len.to_le_bytes());
            assert!(matches!(read_overflow(&mut p, head, u32::MAX), Err(DbError::Storage(_))));
        }
    }

    /// Three cells that fit a leaf, then a full-size local cell between
    /// the last two: the middle falls inside the new cell, and cutting
    /// after it would leave 4 491 bytes on the left page.
    #[test]
    fn leaf_split_never_overflows_a_page() {
        let mut p = mem_pager();
        let root = create_table_tree(&mut p).unwrap();
        for (rowid, len) in [(1, 1500), (2, 976), (4, 1500), (3, MAX_LOCAL)] {
            table_insert(&mut p, root, rowid, &vec![rowid as u8; len]).unwrap();
        }
        for (rowid, len) in [(1, 1500), (2, 976), (3, MAX_LOCAL), (4, 1500)] {
            assert_eq!(table_get(&mut p, root, rowid).unwrap(), Some(vec![rowid as u8; len]));
        }
        assert_no_empty_node_below_root(&mut p, root);
    }

    #[test]
    fn insert_get_small() {
        let mut p = mem_pager();
        let root = create_table_tree(&mut p).unwrap();
        for i in 0..100i64 {
            table_insert(&mut p, root, i, format!("row-{i}").as_bytes()).unwrap();
        }
        for i in 0..100i64 {
            let v = table_get(&mut p, root, i).unwrap().unwrap();
            assert_eq!(v, format!("row-{i}").as_bytes());
        }
        assert_eq!(table_get(&mut p, root, 100).unwrap(), None);
        assert_eq!(table_max_rowid(&mut p, root).unwrap(), Some(99));
    }

    #[test]
    fn insert_many_splits() {
        let mut p = mem_pager();
        let root = create_table_tree(&mut p).unwrap();
        let n = 5000i64;
        for i in 0..n {
            let payload = vec![(i % 251) as u8; 100];
            table_insert(&mut p, root, i, &payload).unwrap();
        }
        assert!(p.page_count() > 50, "tree must have split many times");
        for i in (0..n).step_by(37) {
            let v = table_get(&mut p, root, i).unwrap().unwrap();
            assert_eq!(v[0], (i % 251) as u8);
            assert_eq!(v.len(), 100);
        }
    }

    #[test]
    fn random_order_inserts() {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut p = mem_pager();
        let root = create_table_tree(&mut p).unwrap();
        let mut ids: Vec<i64> = (0..3000).collect();
        ids.shuffle(&mut rng);
        for &i in &ids {
            table_insert(&mut p, root, i, &i.to_le_bytes()).unwrap();
        }
        // Scan must return them sorted.
        let mut c = Cursor::first(&mut p, root).unwrap();
        let mut prev = i64::MIN;
        let mut count = 0;
        while c.valid() {
            let (rowid, payload) = c.table_entry(&mut p).unwrap();
            assert!(rowid > prev);
            assert_eq!(payload, rowid.to_le_bytes());
            prev = rowid;
            count += 1;
            c.next(&mut p).unwrap();
        }
        assert_eq!(count, 3000);
    }

    #[test]
    fn replace_existing() {
        let mut p = mem_pager();
        let root = create_table_tree(&mut p).unwrap();
        table_insert(&mut p, root, 5, b"old").unwrap();
        table_insert(&mut p, root, 5, b"new").unwrap();
        assert_eq!(table_get(&mut p, root, 5).unwrap().unwrap(), b"new");
        let mut c = Cursor::first(&mut p, root).unwrap();
        let mut n = 0;
        while c.valid() {
            n += 1;
            c.next(&mut p).unwrap();
        }
        assert_eq!(n, 1);
    }

    #[test]
    fn delete_and_rescan() {
        let mut p = mem_pager();
        let root = create_table_tree(&mut p).unwrap();
        for i in 0..500i64 {
            table_insert(&mut p, root, i, b"x").unwrap();
        }
        for i in (0..500i64).step_by(2) {
            assert!(table_delete(&mut p, root, i).unwrap());
        }
        assert!(!table_delete(&mut p, root, 0).unwrap());
        let mut c = Cursor::first(&mut p, root).unwrap();
        let mut count = 0;
        while c.valid() {
            let (rowid, _) = c.table_entry(&mut p).unwrap();
            assert_eq!(rowid % 2, 1);
            count += 1;
            c.next(&mut p).unwrap();
        }
        assert_eq!(count, 250);
    }

    #[test]
    fn big_payload_overflow_chain() {
        let mut p = mem_pager();
        let root = create_table_tree(&mut p).unwrap();
        let big: Vec<u8> = (0..20_000u32).map(|i| (i % 253) as u8).collect();
        table_insert(&mut p, root, 1, &big).unwrap();
        table_insert(&mut p, root, 2, b"small").unwrap();
        assert_eq!(table_get(&mut p, root, 1).unwrap().unwrap(), big);
        assert_eq!(table_get(&mut p, root, 2).unwrap().unwrap(), b"small");
        // Delete frees the chain (pages go to the freelist for reuse).
        assert!(table_delete(&mut p, root, 1).unwrap());
        assert_eq!(table_get(&mut p, root, 1).unwrap(), None);
    }

    #[test]
    fn seek_rowid_ge() {
        let mut p = mem_pager();
        let root = create_table_tree(&mut p).unwrap();
        for i in (0..1000i64).step_by(10) {
            table_insert(&mut p, root, i, b"v").unwrap();
        }
        let c = Cursor::seek_rowid(&mut p, root, 55).unwrap();
        assert!(c.valid());
        assert_eq!(c.table_entry(&mut p).unwrap().0, 60);
        let c = Cursor::seek_rowid(&mut p, root, 990).unwrap();
        assert_eq!(c.table_entry(&mut p).unwrap().0, 990);
        let c = Cursor::seek_rowid(&mut p, root, 991).unwrap();
        assert!(!c.valid());
    }

    #[test]
    fn index_tree_basics() {
        let mut p = mem_pager();
        let root = create_index_tree(&mut p).unwrap();
        for i in 0..2000u32 {
            let key = format!("key-{i:05}").into_bytes();
            index_insert(&mut p, root, key).unwrap();
        }
        // Seek in sorted order.
        let c = Cursor::seek_key(&mut p, root, b"key-00100").unwrap();
        assert_eq!(c.index_entry().unwrap(), b"key-00100");
        let c = Cursor::seek_key(&mut p, root, b"key-001005").unwrap();
        assert_eq!(c.index_entry().unwrap(), b"key-00101");
        // Delete.
        assert!(index_delete(&mut p, root, b"key-00100").unwrap());
        assert!(!index_delete(&mut p, root, b"key-00100").unwrap());
        let c = Cursor::seek_key(&mut p, root, b"key-00100").unwrap();
        assert_eq!(c.index_entry().unwrap(), b"key-00101");
    }

    #[test]
    fn index_full_scan_sorted() {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let mut p = mem_pager();
        let root = create_index_tree(&mut p).unwrap();
        let mut keys: Vec<Vec<u8>> = (0..1500u32)
            .map(|i| format!("{:06}", i * 7 % 9973).into_bytes())
            .collect();
        keys.shuffle(&mut rng);
        for k in &keys {
            index_insert(&mut p, root, k.clone()).unwrap();
        }
        let mut c = Cursor::first(&mut p, root).unwrap();
        let mut prev: Vec<u8> = Vec::new();
        let mut n = 0;
        while c.valid() {
            let k = c.index_entry().unwrap().to_vec();
            assert!(k > prev, "sorted order");
            prev = k;
            n += 1;
            c.next(&mut p).unwrap();
        }
        keys.sort();
        keys.dedup();
        assert_eq!(n, keys.len());
    }

    #[test]
    fn free_tree_returns_pages() {
        let mut p = mem_pager();
        let root = create_table_tree(&mut p).unwrap();
        for i in 0..2000i64 {
            table_insert(&mut p, root, i, &[0u8; 200]).unwrap();
        }
        let before = p.page_count();
        free_tree(&mut p, root).unwrap();
        // Allocation now reuses freed pages instead of growing the file.
        let again = create_table_tree(&mut p).unwrap();
        assert!(again <= before, "reused a freed page");
        assert_eq!(p.page_count(), before);
    }

    /// Walk the tree: no empty leaf below the root, no childless interior
    /// node, `children.len() == keys.len() + 1`. Returns the pages reached.
    fn assert_no_empty_node_below_root(p: &mut Pager, root: PageId) -> usize {
        let mut pages = 0;
        let mut todo = vec![root];
        while let Some(page) = todo.pop() {
            pages += 1;
            match load(p, page).unwrap() {
                Node::TableLeaf { cells } => assert!(page == root || !cells.is_empty(), "empty leaf {page}"),
                Node::IndexLeaf { keys } => assert!(page == root || !keys.is_empty(), "empty leaf {page}"),
                Node::TableInterior { children, keys } => {
                    assert_eq!(children.len(), keys.len() + 1, "page {page}");
                    todo.extend(children);
                }
                Node::IndexInterior { children, keys } => {
                    assert_eq!(children.len(), keys.len() + 1, "page {page}");
                    todo.extend(children);
                }
            }
        }
        pages
    }

    fn scan_rowids(p: &mut Pager, root: PageId) -> Vec<i64> {
        let mut out = Vec::new();
        let mut c = Cursor::first(p, root).unwrap();
        while c.valid() {
            out.push(c.table_entry(p).unwrap().0);
            c.next(p).unwrap();
        }
        out
    }

    /// The `sql_write` pattern that used to grow the file by half a page
    /// per transaction: a table of constant size whose keys only move up
    /// (rewrite one row, append `max + 1`, delete `min`), on a file-backed
    /// pager, one transaction per step.
    #[test]
    fn fifo_churn_does_not_grow_the_file() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(19);
        let mut p = Pager::open_file(Box::new(crate::vfs::MemVfs::new()), "fifo.db").unwrap();
        p.begin().unwrap();
        let root = create_table_tree(&mut p).unwrap();
        let row = |i: i64| vec![(i % 251) as u8; 1000];
        let (mut min, mut max) = (0i64, 2000i64);
        for i in min..max {
            table_insert(&mut p, root, i, &row(i)).unwrap();
        }
        p.commit().unwrap();
        let pages_at_start = p.page_count();
        let mut freelist_max = 0;
        for _ in 0..20_000 {
            p.begin().unwrap();
            let hit = rng.gen_range(min..max);
            table_insert(&mut p, root, hit, &row(hit + 1)).unwrap();
            table_insert(&mut p, root, max, &row(max)).unwrap();
            assert!(table_delete(&mut p, root, min).unwrap());
            p.commit().unwrap();
            min += 1;
            max += 1;
            freelist_max = freelist_max.max(p.freelist_len());
        }
        assert!(
            p.page_count() <= pages_at_start + 8,
            "file grew from {pages_at_start} to {} pages",
            p.page_count()
        );
        assert!(freelist_max <= 8, "freelist reached {freelist_max} pages");
        assert_eq!(p.stats.leaked_pages, 0);
        assert_eq!(scan_rowids(&mut p, root), (min..max).collect::<Vec<_>>());
        let reachable = assert_no_empty_node_below_root(&mut p, root);
        // Header page + tree + freelist account for the whole file.
        assert_eq!(1 + reachable + p.freelist_len(), p.page_count() as usize);
        assert_pages_accounted(&mut p, &[root]);
    }

    #[test]
    fn delete_everything_then_reinsert_does_not_grow_the_file() {
        let mut p = mem_pager();
        let root = create_table_tree(&mut p).unwrap();
        let iroot = create_index_tree(&mut p).unwrap();
        let key = |i: i64| format!("key-{i:06}-{}", "x".repeat(40)).into_bytes();
        for i in 0..3000i64 {
            table_insert(&mut p, root, i, &[7u8; 300]).unwrap();
            index_insert(&mut p, iroot, key(i)).unwrap();
        }
        let full = p.page_count();
        for round in 0..3 {
            // Front to back, back to front, then from the middle out.
            let order: Vec<i64> = match round {
                0 => (0..3000).collect(),
                1 => (0..3000).rev().collect(),
                _ => (0..1500).flat_map(|i| [1500 + i, 1499 - i]).collect(),
            };
            for i in order {
                assert!(table_delete(&mut p, root, i).unwrap());
                assert!(index_delete(&mut p, iroot, &key(i)).unwrap());
            }
            // Only the two roots are left: empty leaves under their old ids.
            assert_eq!(assert_no_empty_node_below_root(&mut p, root), 1);
            assert_eq!(assert_no_empty_node_below_root(&mut p, iroot), 1);
            assert!(!Cursor::first(&mut p, root).unwrap().valid());
            assert!(!Cursor::first(&mut p, iroot).unwrap().valid());
            assert_eq!(table_max_rowid(&mut p, root).unwrap(), None);
            // Header page + two roots + freelist account for every page.
            assert_eq!(3 + p.freelist_len(), p.page_count() as usize, "round {round}");
            for i in 0..3000i64 {
                table_insert(&mut p, root, i, &[7u8; 300]).unwrap();
                index_insert(&mut p, iroot, key(i)).unwrap();
            }
            assert!(p.page_count() <= full, "round {round}: {} > {full}", p.page_count());
        }
    }

    /// The lookup the in-place reads replaced: decode every page on the
    /// path and binary-search it.
    fn decoded_table_get(p: &mut Pager, root: PageId, rowid: i64) -> DbResult<Option<Vec<u8>>> {
        let mut page = root;
        loop {
            match load(p, page)? {
                Node::TableLeaf { cells } => {
                    return match cells.binary_search_by_key(&rowid, |c| c.rowid) {
                        Ok(i) => Ok(Some(cell_payload(p, &cells[i])?)),
                        Err(_) => Ok(None),
                    };
                }
                Node::TableInterior { children, keys } => page = children[keys.partition_point(|k| *k < rowid)],
                _ => return Err(DbError::Storage("not a table tree".into())),
            }
        }
    }

    /// Every `(rowid, payload)` of a table tree in key order, through
    /// decoded pages.
    fn decoded_entries(p: &mut Pager, page: PageId, out: &mut Vec<(i64, Vec<u8>)>) {
        match load(p, page).unwrap() {
            Node::TableLeaf { cells } => {
                for c in &cells {
                    out.push((c.rowid, cell_payload(p, c).unwrap()));
                }
            }
            Node::TableInterior { children, .. } => {
                for child in children {
                    decoded_entries(p, child, out);
                }
            }
            _ => panic!("not a table tree"),
        }
    }

    /// A seeded insert/delete mix against a `BTreeMap`, with deletes in
    /// runs so that leaves and whole subtrees empty, some payloads on
    /// overflow chains and some runs at the ends of the `i64` range: scan
    /// order and the shape invariant hold after every step, and every
    /// step's in-place lookups, seeks and maximum agree with the decoded
    /// pages and with the model, on hits and misses alike.
    #[test]
    fn insert_delete_mix_matches_model_and_keeps_no_empty_leaf() {
        use rand::{Rng, SeedableRng};
        use std::collections::BTreeMap;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xB7EE);
        let mut p = mem_pager();
        let root = create_table_tree(&mut p).unwrap();
        let mut model: BTreeMap<i64, Vec<u8>> = BTreeMap::new();
        for step in 0..1500 {
            let at = match rng.gen_range(0..24) {
                0 => i64::MIN,
                1 => i64::MAX - 6,
                2 => -20,
                _ => rng.gen_range(0..400i64),
            };
            let run = |n: i64| (0..n).map_while(move |i| at.checked_add(i));
            if rng.gen_range(0..100) < 45 {
                // Insert a run of fat rows (a handful fill a leaf); one in
                // ten spills into an overflow chain.
                for rowid in run(rng.gen_range(1..12)) {
                    let len = if rng.gen_range(0..10) == 0 {
                        rng.gen_range(MAX_LOCAL + 1..3 * OVERFLOW_CAP)
                    } else {
                        rng.gen_range(1..900)
                    };
                    let seed = rng.gen::<u8>();
                    let payload: Vec<u8> = (0..len).map(|i| seed ^ i as u8).collect();
                    table_insert(&mut p, root, rowid, &payload).unwrap();
                    model.insert(rowid, payload);
                }
            } else {
                for rowid in run(rng.gen_range(1..40)) {
                    let existed = table_delete(&mut p, root, rowid).unwrap();
                    assert_eq!(existed, model.remove(&rowid).is_some(), "step {step} rowid {rowid}");
                }
            }
            assert_no_empty_node_below_root(&mut p, root);
            assert_eq!(scan_rowids(&mut p, root), model.keys().copied().collect::<Vec<_>>(), "step {step}");
            let mut decoded = Vec::new();
            decoded_entries(&mut p, root, &mut decoded);
            let max = table_max_rowid(&mut p, root).unwrap();
            assert_eq!(max, decoded.last().map(|e| e.0), "step {step}");
            assert_eq!(max, model.keys().next_back().copied());
            let mut probes = vec![i64::MIN, i64::MIN + 1, -1, 0, i64::MAX - 1, i64::MAX];
            probes.extend([rng.gen_range(0..440i64), rng.gen_range(-30..0i64)]);
            probes.extend(model.keys().next().copied());
            probes.extend(max);
            for probe in probes {
                let got = table_get(&mut p, root, probe).unwrap();
                assert_eq!(got, decoded_table_get(&mut p, root, probe).unwrap(), "step {step} probe {probe}");
                assert_eq!(got, model.get(&probe).cloned(), "step {step} probe {probe}");
                let c = Cursor::seek_rowid(&mut p, root, probe).unwrap();
                let sought = c.valid().then(|| c.table_entry(&mut p).unwrap());
                let expected = decoded.iter().find(|e| e.0 >= probe).cloned();
                assert_eq!(sought, expected, "step {step} seek {probe}");
            }
        }
        assert_pages_accounted(&mut p, &[root]);
    }

    /// Levels from `root` down to its first leaf (1 for a leaf root).
    fn height(p: &mut Pager, root: PageId) -> usize {
        let mut page = root;
        for level in 1.. {
            match load(p, page).unwrap() {
                Node::TableInterior { children, .. } | Node::IndexInterior { children, .. } => page = children[0],
                _ => return level,
            }
        }
        unreachable!()
    }

    /// The index-tree twin of the mix above: seeded keys of up to
    /// `MAX_INDEX_KEY` bytes (a few to a page, so the tree is soon four
    /// levels deep), duplicates among them, inserted and deleted in runs
    /// of neighbouring keys so that leaves and whole interior pages empty,
    /// against a `BTreeSet`: the shape invariant, the scan and seeks at,
    /// between and around the keys hold after every step.
    #[test]
    fn index_insert_delete_mix_matches_model_and_keeps_no_empty_leaf() {
        use rand::{Rng, SeedableRng};
        use std::collections::BTreeSet;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x1DE7);
        let mut p = mem_pager();
        let root = create_index_tree(&mut p).unwrap();
        let mut model: BTreeSet<Vec<u8>> = BTreeSet::new();
        // Key `(k, variant)`: a sortable prefix and a length that the pair
        // fixes, from a few bytes up to the limit.
        let key = |k: u32, variant: u32| {
            let len = [8, 60, 400, MAX_INDEX_KEY][((k * 7 + variant) % 4) as usize];
            let mut key = format!("{k:05}/{variant}").into_bytes();
            key.resize(len, (k ^ variant) as u8);
            key
        };
        let mut tallest = 0;
        for step in 0..700 {
            let at = rng.gen_range(0..300u32);
            if rng.gen_range(0..100) < 55 {
                // Inserts, a key already present now and then.
                for k in at..at + rng.gen_range(1..10) {
                    let variant = rng.gen_range(0..3);
                    index_insert(&mut p, root, key(k, variant)).unwrap();
                    model.insert(key(k, variant));
                }
            } else {
                for k in at..at + rng.gen_range(1..30) {
                    for variant in 0..3 {
                        let existed = index_delete(&mut p, root, &key(k, variant)).unwrap();
                        assert_eq!(existed, model.remove(&key(k, variant)), "step {step} key {k}/{variant}");
                    }
                }
            }
            tallest = tallest.max(height(&mut p, root));
            assert_no_empty_node_below_root(&mut p, root);
            let mut c = Cursor::first(&mut p, root).unwrap();
            let mut scanned = Vec::new();
            while c.valid() {
                scanned.push(c.index_entry().unwrap().to_vec());
                c.next(&mut p).unwrap();
            }
            assert!(scanned.iter().eq(model.iter()), "step {step}");
            let k = rng.gen_range(0..310u32);
            let mut probes = vec![vec![], vec![0xFF; 4], key(k, 0), key(k, 2), format!("{k:05}").into_bytes()];
            let mut between = key(k, 1);
            between.push(0);
            probes.push(between);
            for probe in probes {
                let c = Cursor::seek_key(&mut p, root, &probe).unwrap();
                let sought = c.valid().then(|| c.index_entry().unwrap().to_vec());
                assert_eq!(sought.as_ref(), model.range(probe.clone()..).next(), "step {step}");
            }
        }
        assert!(tallest >= 4, "the tree reached {tallest} levels");
        assert_pages_accounted(&mut p, &[root]);
    }

    /// Rows of ≈ 1.5 KiB, two to a leaf, in a seeded shuffled order: the
    /// root passes a page of separators (681 of 6 bytes), so interior
    /// pages split and the tree grows a third level. Every row reads back, replaced or
    /// not, and the scan and the maximum match a `BTreeMap`, before and
    /// after deletes of every third row.
    #[test]
    fn shuffled_fat_rows_split_interior_pages_and_match_model() {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        use std::collections::BTreeMap;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xFA7);
        let mut p = mem_pager();
        let root = create_table_tree(&mut p).unwrap();
        let mut model: BTreeMap<i64, Vec<u8>> = BTreeMap::new();
        let row = |rowid: i64, version: u8| vec![(rowid as u8) ^ version; 1500];
        let mut ids: Vec<i64> = (0..1500).collect();
        ids.shuffle(&mut rng);
        for &rowid in &ids {
            table_insert(&mut p, root, rowid, &row(rowid, 0)).unwrap();
            model.insert(rowid, row(rowid, 0));
        }
        // Replace a shuffled tenth.
        for &rowid in ids.iter().step_by(10) {
            table_insert(&mut p, root, rowid, &row(rowid, 1)).unwrap();
            model.insert(rowid, row(rowid, 1));
        }
        assert_eq!(height(&mut p, root), 3);
        // A leaf holds at most two rows.
        assert!(model.len() / 2 >= 682, "{} rows", model.len());
        for round in 0..2 {
            assert_no_empty_node_below_root(&mut p, root);
            assert_eq!(scan_rowids(&mut p, root), model.keys().copied().collect::<Vec<_>>(), "round {round}");
            assert_eq!(table_max_rowid(&mut p, root).unwrap(), model.keys().next_back().copied());
            for rowid in -1..1501 {
                assert_eq!(table_get(&mut p, root, rowid).unwrap().as_ref(), model.get(&rowid), "rowid {rowid}");
            }
            for &rowid in ids.iter().step_by(3) {
                assert_eq!(table_delete(&mut p, root, rowid).unwrap(), model.remove(&rowid).is_some());
            }
        }
        assert_pages_accounted(&mut p, &[root]);
    }

    /// The rowids of each leaf of a table tree, leaves in key order.
    fn leaf_rowids(p: &mut Pager, page: PageId) -> Vec<Vec<i64>> {
        match load(p, page).unwrap() {
            Node::TableLeaf { cells } => vec![cells.iter().map(|c| c.rowid).collect()],
            Node::TableInterior { children, .. } => children.into_iter().flat_map(|c| leaf_rowids(p, c)).collect(),
            node => panic!("not a table tree: {node:?}"),
        }
    }

    /// Rows in key order leave their leaves full: 1 000-byte rows (1 004
    /// bytes a cell) four to a page, 1 024-byte rows (1 028) three, and
    /// only the last leaf holds fewer. A split at the byte middle left two.
    #[test]
    fn rows_in_key_order_fill_their_leaves() {
        for (len, per_leaf) in [(1000, 4), (1024, 3)] {
            let mut p = mem_pager();
            let root = create_table_tree(&mut p).unwrap();
            for rowid in 0..2000i64 {
                table_insert(&mut p, root, rowid, &vec![rowid as u8; len]).unwrap();
            }
            let leaves = leaf_rowids(&mut p, root);
            let (last, full) = leaves.split_last().unwrap();
            let filled = full.iter().filter(|l| l.len() == per_leaf).count();
            assert_eq!(filled, full.len(), "{len}-byte rows: {filled} of {} leaves hold {per_leaf}", leaves.len());
            assert!((1..=per_leaf).contains(&last.len()));
            assert_eq!(leaves.concat(), (0..2000).collect::<Vec<_>>());
            // The header, the leaves and one interior root.
            assert_eq!(p.page_count() as usize, 2 + leaves.len(), "{len}-byte rows");
            assert_pages_accounted(&mut p, &[root]);
        }
    }

    /// Shuffled inserts seldom land past the largest row, but a leaf is
    /// sized by its bytes, so it holds up to four 1 000-byte rows where a
    /// worst case per cell let it hold three: 3 000 seeded shuffled rows
    /// took 1 302 pages then, and take fewer now.
    #[test]
    fn shuffled_rows_take_fewer_pages() {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5F1);
        let mut p = mem_pager();
        let root = create_table_tree(&mut p).unwrap();
        let mut ids: Vec<i64> = (0..3000).collect();
        ids.shuffle(&mut rng);
        for &rowid in &ids {
            table_insert(&mut p, root, rowid, &[rowid as u8; 1000]).unwrap();
        }
        let pages = p.page_count();
        assert!(pages < 1302, "{pages} pages");
        assert_eq!(scan_rowids(&mut p, root), (0..3000).collect::<Vec<_>>());
        assert_pages_accounted(&mut p, &[root]);
    }

    /// A leaf whose bytes in use come to exactly a page — the 3-byte
    /// header and three cells of 1 364, 1 364 and 1 365 bytes — is edited
    /// in place, whether the last cell is appended or replaced; a cell one
    /// byte longer splits it.
    #[test]
    fn a_leaf_of_exactly_a_page_is_edited_in_place() {
        let mut p = mem_pager();
        let root = create_table_tree(&mut p).unwrap();
        // A cell is its rowid, two length varints (1 + 2 + 1 bytes) and
        // the payload.
        for (rowid, len) in [(1, 1360), (2, 1360), (3, 1361)] {
            table_insert(&mut p, root, rowid, &vec![rowid as u8; len]).unwrap();
        }
        let pages = p.page_count();
        assert_eq!(Layout::of(p.get(root).unwrap()).unwrap().used, PAGE_SIZE);
        table_insert(&mut p, root, 3, &[9; 1361]).unwrap();
        table_insert(&mut p, root, 2, &[8; 1360]).unwrap();
        assert_eq!(leaf_rowids(&mut p, root), [vec![1, 2, 3]]);
        assert_eq!(p.page_count(), pages);
        table_insert(&mut p, root, 2, &[8; 1361]).unwrap();
        assert_eq!(leaf_rowids(&mut p, root), [vec![1, 2], vec![3]]);
        assert_eq!(table_get(&mut p, root, 2).unwrap(), Some(vec![8; 1361]));
        assert_pages_accounted(&mut p, &[root]);
    }

    /// An insert past the last row of a leaf below the right edge — the
    /// leaf's largest row was deleted, so its separator is above what it
    /// holds — is no append: the leaf splits at its byte middle, and the
    /// right edge still fills.
    #[test]
    fn an_insert_into_a_gap_below_the_right_edge_splits_at_the_middle() {
        let mut p = mem_pager();
        let root = create_table_tree(&mut p).unwrap();
        for rowid in (0..80).step_by(10) {
            table_insert(&mut p, root, rowid, &[1; 1000]).unwrap();
        }
        assert_eq!(leaf_rowids(&mut p, root), [vec![0, 10, 20, 30], vec![40, 50, 60, 70]]);
        assert!(table_delete(&mut p, root, 30).unwrap());
        for rowid in [22, 24] {
            table_insert(&mut p, root, rowid, &[2; 1000]).unwrap();
        }
        assert_eq!(leaf_rowids(&mut p, root), [vec![0, 10, 20], vec![22, 24], vec![40, 50, 60, 70]]);
        assert_eq!(scan_rowids(&mut p, root), [0, 10, 20, 22, 24, 40, 50, 60, 70]);
        assert_pages_accounted(&mut p, &[root]);
    }

    /// Deleting the largest rows — the last leaf empties and is unlinked,
    /// so the leaf before it becomes the right edge — and appending again
    /// keeps filling leaves four to a page.
    #[test]
    fn appends_after_deleting_the_largest_rows_keep_filling() {
        let mut p = mem_pager();
        let root = create_table_tree(&mut p).unwrap();
        for rowid in 0..13 {
            table_insert(&mut p, root, rowid, &[3; 1000]).unwrap();
        }
        assert_eq!(leaf_rowids(&mut p, root).last(), Some(&vec![12]));
        for rowid in [12, 11] {
            assert!(table_delete(&mut p, root, rowid).unwrap());
        }
        for rowid in 11..40 {
            table_insert(&mut p, root, rowid, &[4; 1000]).unwrap();
        }
        let leaves = leaf_rowids(&mut p, root);
        assert!(leaves.iter().all(|l| l.len() == 4), "{leaves:?}");
        assert_eq!(leaves.concat(), (0..40).collect::<Vec<_>>());
        assert_pages_accounted(&mut p, &[root]);
    }

    /// Run `op` on a fresh thread with a 2 MiB stack and wait at most 10 s
    /// for it: a recursion that never ends aborts the process, and a loop
    /// that never ends fails here instead of hanging the test run.
    fn run_bounded(name: &str, op: impl FnOnce() -> DbResult<()> + Send + 'static) -> DbResult<()> {
        use std::sync::mpsc::RecvTimeoutError;
        let (tx, rx) = std::sync::mpsc::channel();
        let worker = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || tx.send(op()).unwrap())
            .unwrap();
        match rx.recv_timeout(std::time::Duration::from_secs(10)) {
            Ok(got) => {
                worker.join().unwrap();
                got
            }
            // A hung thread cannot be joined; it is left to the process exit.
            Err(RecvTimeoutError::Timeout) => panic!("{name}: no answer within 10 s"),
            Err(RecvTimeoutError::Disconnected) => {
                std::panic::resume_unwind(worker.join().expect_err("sender dropped unsent"))
            }
        }
    }

    /// Move a cursor `open` returns over every entry it can reach.
    fn scan(p: &mut Pager, open: impl FnOnce(&mut Pager) -> DbResult<Cursor>) -> DbResult<()> {
        let mut c = open(p)?;
        while c.valid() {
            c.next(p)?;
        }
        Ok(())
    }

    /// Forged pages a host may serve: an interior root whose only child
    /// is itself, for both tree kinds, and a table root whose second child
    /// is itself behind a real leaf (so a scan reaches the cycle only by
    /// moving on from the leaf). Every lookup, seek, scan, insert, delete
    /// and free stops at `MAX_DEPTH` with a storage error.
    #[test]
    fn page_cycles_are_storage_errors() {
        type Op = fn(&mut Pager, PageId) -> DbResult<()>;
        let table_ops: [(&str, Op); 8] = [
            ("table_get", |p, r| table_get(p, r, 50).map(drop)),
            ("Cursor::first", |p, r| scan(p, |p| Cursor::first(p, r))),
            ("Cursor::seek_rowid", |p, r| scan(p, |p| Cursor::seek_rowid(p, r, 50))),
            ("table_max_rowid", |p, r| table_max_rowid(p, r).map(drop)),
            ("table_insert", |p, r| table_insert(p, r, 50, b"row")),
            ("table_insert (overflow)", |p, r| table_insert(p, r, 50, &[1; 3 * MAX_LOCAL])),
            ("table_delete", |p, r| table_delete(p, r, 50).map(drop)),
            ("free_tree", free_tree),
        ];
        let index_ops: [(&str, Op); 5] = [
            ("Cursor::seek_key", |p, r| scan(p, |p| Cursor::seek_key(p, r, b"k"))),
            ("Cursor::first (index)", |p, r| scan(p, |p| Cursor::first(p, r))),
            ("index_insert", |p, r| index_insert(p, r, b"k".to_vec()).map(drop)),
            ("index_delete", |p, r| index_delete(p, r, b"k").map(drop)),
            ("free_tree (index)", free_tree),
        ];
        type Forge = fn(&mut Pager) -> PageId;
        let self_loop: Forge = |p| {
            let root = create_table_tree(p).unwrap();
            store(p, root, &Node::TableInterior { children: vec![root], keys: vec![] }).unwrap();
            root
        };
        let behind_a_leaf: Forge = |p| {
            let root = create_table_tree(p).unwrap();
            let leaf = create_table_tree(p).unwrap();
            table_insert(p, leaf, 1, b"one").unwrap();
            store(p, root, &Node::TableInterior { children: vec![leaf, root], keys: vec![1] }).unwrap();
            root
        };
        let index_loop: Forge = |p| {
            let root = create_index_tree(p).unwrap();
            store(p, root, &Node::IndexInterior { children: vec![root], keys: vec![] }).unwrap();
            root
        };
        let cases = table_ops
            .iter()
            .flat_map(|&op| [(op, self_loop), (op, behind_a_leaf)])
            .chain(index_ops.iter().map(|&op| (op, index_loop)));
        for ((name, op), forge) in cases {
            let got = run_bounded(name, move || {
                let mut p = mem_pager();
                let root = forge(&mut p);
                op(&mut p, root)
            });
            assert!(matches!(got, Err(DbError::Storage(_))), "{name}: {got:?}");
        }
    }

    /// A forged root whose last child is its first leaf: a DAG, not a
    /// cycle, so every descent ends. A scan used to read that leaf twice
    /// and never reach the one it replaced (for the table here: rowids
    /// 1–36, then 1–3 again, and 37–40 missing), and `free_tree` put it on
    /// the freelist twice (14 entries for 13 pages), for the allocator to
    /// hand out twice. Both now stop at the repeated leaf, for table and
    /// index trees alike.
    #[test]
    fn shared_subtrees_are_storage_errors() {
        type Op = fn(&mut Pager, PageId) -> DbResult<()>;
        type Forge = fn(&mut Pager) -> PageId;
        fn share_first_leaf(p: &mut Pager, root: PageId) -> PageId {
            let node = match load(p, root).unwrap() {
                Node::TableInterior { mut children, keys } => {
                    let last = children.len() - 1;
                    children[last] = children[0];
                    Node::TableInterior { children, keys }
                }
                Node::IndexInterior { mut children, keys } => {
                    let last = children.len() - 1;
                    children[last] = children[0];
                    Node::IndexInterior { children, keys }
                }
                leaf => panic!("root is a leaf: {leaf:?}"),
            };
            store(p, root, &node).unwrap();
            root
        }
        let table: Forge = |p| {
            let root = create_table_tree(p).unwrap();
            for rowid in 1..=40 {
                table_insert(p, root, rowid, &[rowid as u8; 700]).unwrap();
            }
            share_first_leaf(p, root)
        };
        let index: Forge = |p| {
            let root = create_index_tree(p).unwrap();
            for k in 1..=40u8 {
                index_insert(p, root, vec![k; 700]).unwrap();
            }
            share_first_leaf(p, root)
        };
        let cases: [(&str, Op, Forge); 6] = [
            ("Cursor::first", |p, r| scan(p, |p| Cursor::first(p, r)), table),
            ("Cursor::seek_rowid", |p, r| scan(p, |p| Cursor::seek_rowid(p, r, 1)), table),
            ("free_tree", free_tree, table),
            ("Cursor::first (index)", |p, r| scan(p, |p| Cursor::first(p, r)), index),
            ("Cursor::seek_key", |p, r| scan(p, |p| Cursor::seek_key(p, r, &[1])), index),
            ("free_tree (index)", free_tree, index),
        ];
        for (name, op, forge) in cases {
            let got = run_bounded(name, move || {
                let mut p = mem_pager();
                let root = forge(&mut p);
                op(&mut p, root)
            });
            assert!(matches!(got, Err(DbError::Storage(_))), "{name}: {got:?}");
        }
    }

    /// Pages whose keys are not strictly ascending — a hidden or duplicate
    /// row, separators that would send a lookup down the wrong child — are
    /// refused by every read and write, not searched.
    #[test]
    fn out_of_order_pages_are_storage_errors() {
        fn cell(rowid: i64) -> TableCell {
            TableCell { rowid, local: rowid.to_le_bytes().to_vec(), overflow_len: 0, overflow: 0 }
        }
        let storage = |r: DbResult<()>| matches!(r, Err(DbError::Storage(_)));
        for rowids in [vec![1, 3, 2], vec![2, 2], vec![-1, -3], vec![i64::MAX, i64::MIN]] {
            let mut p = mem_pager();
            let root = create_table_tree(&mut p).unwrap();
            let leaf = Node::TableLeaf { cells: rowids.iter().map(|&r| cell(r)).collect() };
            store(&mut p, root, &leaf).unwrap();
            assert!(storage(Node::decode(p.get(root).unwrap()).map(drop)), "{rowids:?}");
            for &rowid in &rowids {
                assert!(storage(table_get(&mut p, root, rowid).map(drop)), "{rowids:?} get {rowid}");
                assert!(storage(Cursor::seek_rowid(&mut p, root, rowid).map(drop)), "{rowids:?}");
            }
            assert!(storage(Cursor::first(&mut p, root).map(drop)), "{rowids:?}");
            assert!(storage(table_max_rowid(&mut p, root).map(drop)), "{rowids:?}");
            assert!(storage(table_insert(&mut p, root, 7, b"x")), "{rowids:?}");
            assert!(storage(table_delete(&mut p, root, rowids[0]).map(drop)), "{rowids:?}");
        }
        // Separators out of order: a binary search over [10, 5] sends
        // rowid 7 to the last child and misses it, a scan for the first
        // separator ≥ 7 finds it in the first; neither may answer.
        let mut p = mem_pager();
        let root = create_table_tree(&mut p).unwrap();
        let (a, b, c) = (create_table_tree(&mut p).unwrap(), create_table_tree(&mut p).unwrap(), create_table_tree(&mut p).unwrap());
        for (page, rowid) in [(a, 7), (b, 3), (c, 20)] {
            table_insert(&mut p, page, rowid, b"row").unwrap();
        }
        store(&mut p, root, &Node::TableInterior { children: vec![a, b, c], keys: vec![10, 5] }).unwrap();
        assert!(storage(table_get(&mut p, root, 7).map(drop)));
        assert!(storage(table_max_rowid(&mut p, root).map(drop)));
        assert!(storage(Cursor::first(&mut p, root).map(drop)));
        assert!(storage(table_insert(&mut p, root, 8, b"x")));
        // Index leaves and separators.
        let mut p = mem_pager();
        let root = create_index_tree(&mut p).unwrap();
        let keys = vec![b"b".to_vec(), b"a".to_vec()];
        store(&mut p, root, &Node::IndexLeaf { keys }).unwrap();
        assert!(storage(Cursor::seek_key(&mut p, root, b"a").map(drop)));
        assert!(storage(Cursor::first(&mut p, root).map(drop)));
        assert!(storage(index_insert(&mut p, root, b"c".to_vec()).map(drop)));
        assert!(storage(index_delete(&mut p, root, b"a").map(drop)));
        let (a, b) = (create_index_tree(&mut p).unwrap(), create_index_tree(&mut p).unwrap());
        let seps = vec![b"m".to_vec(), b"m".to_vec()];
        store(&mut p, root, &Node::IndexInterior { children: vec![a, b, a], keys: seps }).unwrap();
        assert!(storage(Cursor::seek_key(&mut p, root, b"a").map(drop)));
        assert!(storage(Cursor::first(&mut p, root).map(drop)));
        assert!(storage(index_delete(&mut p, root, b"a").map(drop)));
    }

    #[test]
    fn rollback_restores_freed_leaves() {
        let vfs = crate::vfs::MemVfs::new();
        let mut p = Pager::open_file(Box::new(vfs), "rb.db").unwrap();
        p.begin().unwrap();
        let root = create_table_tree(&mut p).unwrap();
        for i in 0..600i64 {
            table_insert(&mut p, root, i, &[(i % 200) as u8; 500]).unwrap();
        }
        p.commit().unwrap();
        let (pages, free) = (p.page_count(), p.freelist_len());

        p.begin().unwrap();
        for i in 100..500i64 {
            assert!(table_delete(&mut p, root, i).unwrap());
        }
        assert!(p.freelist_len() > free + 40, "the deletes freed whole leaves");
        // Reuse some of the freed pages before giving up on the transaction.
        for i in 1000..1050i64 {
            table_insert(&mut p, root, i, &[9u8; 500]).unwrap();
        }
        p.rollback().unwrap();

        assert_eq!((p.page_count(), p.freelist_len()), (pages, free));
        assert_no_empty_node_below_root(&mut p, root);
        assert_eq!(scan_rowids(&mut p, root), (0..600).collect::<Vec<_>>());
        for i in (0..600i64).step_by(7) {
            assert_eq!(table_get(&mut p, root, i).unwrap().unwrap(), vec![(i % 200) as u8; 500]);
        }
    }

    #[test]
    #[should_panic(expected = "cursor used after a page was freed")]
    fn cursor_moved_across_a_leaf_freeing_delete_is_caught() {
        let mut p = mem_pager();
        let root = create_table_tree(&mut p).unwrap();
        for i in 0..200i64 {
            table_insert(&mut p, root, i, &[1u8; 500]).unwrap();
        }
        let mut c = Cursor::first(&mut p, root).unwrap();
        // Empty the first leaves under the cursor, then move it.
        for i in 0..50i64 {
            table_delete(&mut p, root, i).unwrap();
        }
        while c.next(&mut p).unwrap() {}
    }

    #[test]
    fn persistent_across_commit_and_reopen() {
        let vfs = crate::vfs::MemVfs::new();
        let root;
        {
            let mut p = Pager::open_file(Box::new(vfs.clone()), "t.db").unwrap();
            p.begin().unwrap();
            root = create_table_tree(&mut p).unwrap();
            for i in 0..1000i64 {
                table_insert(&mut p, root, i, format!("v{i}").as_bytes()).unwrap();
            }
            p.commit().unwrap();
        }
        let mut p = Pager::open_file(Box::new(vfs), "t.db").unwrap();
        for i in (0..1000i64).step_by(97) {
            assert_eq!(
                table_get(&mut p, root, i).unwrap().unwrap(),
                format!("v{i}").as_bytes()
            );
        }
    }

    /// The child pick [`pick`] replaced, kept as its oracle: read one node
    /// in place — every entry, so the page is checked exactly as
    /// [`Node::decode`] checks it — and pick the first separator ≥ the
    /// target by a linear scan. `None` at a leaf, else `(index, child page)`.
    fn step(page: &[u8], toward: Toward<'_>) -> DbResult<Option<(usize, PageId)>> {
        let mut r = NodeReader::new(page)?;
        let n = r.len;
        let mut pick = None;
        match (r.ty, toward) {
            (TABLE_LEAF, Toward::Rowid(_) | Toward::Child(_) | Toward::Last)
            | (INDEX_LEAF, Toward::Key(_) | Toward::Child(_)) => return Ok(None),
            (TABLE_INTERIOR, Toward::Rowid(_) | Toward::Child(_) | Toward::Last) => {
                for i in 0..n {
                    let (child, key) = r.table_sep()?;
                    let here = match toward {
                        Toward::Rowid(rowid) => key >= rowid,
                        Toward::Child(c) => c == i,
                        _ => false,
                    };
                    if here && pick.is_none() {
                        pick = Some((i, child));
                    }
                }
            }
            (INDEX_INTERIOR, Toward::Key(_) | Toward::Child(_)) => {
                for i in 0..n {
                    let (child, key) = r.index_sep()?;
                    let here = match toward {
                        Toward::Key(target) => key >= target,
                        Toward::Child(c) => c == i,
                        _ => false,
                    };
                    if here && pick.is_none() {
                        pick = Some((i, child));
                    }
                }
            }
            _ => {
                // Refused for its type; a page that is malformed as well
                // reports that first, as it would to the code that decodes it.
                Node::decode(page)?;
                let tree = if let Toward::Key(_) = toward { "not an index tree" } else { "not a table tree" };
                return Err(DbError::Storage(tree.into()));
            }
        }
        let last = r.last_child()?;
        Ok(Some(pick.unwrap_or((n, last))))
    }

    #[test]
    fn in_place_varints_match_the_record_encoding() {
        let values = [0, 127, 128, 1 << 56, u64::MAX, -1i64 as u64, i64::MIN as u64, -300i64 as u64];
        for v in values {
            let mut want = Vec::new();
            crate::record::write_varint(&mut want, v);
            let mut page = [0xAAu8; 16];
            let mut w = Writer { out: &mut page, pos: 3 };
            w.varint(v);
            let end = w.pos;
            assert_eq!(end, 3 + want.len(), "{v}");
            assert_eq!(&page[3..end], &want[..], "{v}");
            assert!(page[end..].iter().all(|&b| b == 0xAA), "{v} wrote past its bytes");
        }
    }

    /// Seeded random valid pages of all four kinds: the bisecting [`pick`]
    /// over [`index_page`]'s index answers every `Toward` exactly as the
    /// linear [`step`] does — the same child, the same error for a tree of
    /// the other kind — for targets below, on, between and above the
    /// separators, the `i64` extremes and negative rowids among them.
    #[test]
    fn bisecting_pick_matches_the_linear_step() {
        use rand::{Rng, SeedableRng};
        use std::collections::BTreeSet;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5E9A);
        let mut pages = 0;
        for round in 0..200 {
            let children = |rng: &mut rand::rngs::StdRng, n: usize| -> Vec<PageId> { (0..=n).map(|_| rng.gen()).collect() };
            // Table trees: separators anywhere in i64, up to a full page.
            let n = [0, 1, 2, rng.gen_range(0..300)][round % 4].min(290);
            let mut keys = BTreeSet::new();
            while keys.len() < n {
                keys.insert(match rng.gen_range(0..8) {
                    0 => i64::MIN + rng.gen_range(0..3),
                    1 => i64::MAX - rng.gen_range(0..3),
                    2 => rng.gen_range(-50..50),
                    _ => rng.gen(),
                });
            }
            let keys: Vec<i64> = keys.into_iter().collect();
            let mut rowids = vec![i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX - 1, i64::MAX, rng.gen()];
            for &k in &keys {
                rowids.extend([k.saturating_sub(1), k, k.saturating_add(1)]);
            }
            let interior = Node::TableInterior { children: children(&mut rng, n), keys: keys.clone() };
            let cells = keys.iter().map(|&rowid| TableCell { rowid, local: vec![1; 3], overflow_len: 0, overflow: 0 });
            let leaf = Node::TableLeaf { cells: cells.take(140).collect() };
            // Index trees: short keys, some prefixes of others.
            let m = [0, 1, 2, rng.gen_range(0..120)][round % 4];
            let mut ikeys = BTreeSet::new();
            while ikeys.len() < m {
                let len = rng.gen_range(0..6);
                ikeys.insert((0..len).map(|_| rng.gen_range(0..4u8) * 0x55).collect::<Vec<u8>>());
            }
            let ikeys: Vec<Vec<u8>> = ikeys.into_iter().collect();
            let mut targets = vec![vec![], vec![0xFF; 8]];
            for k in &ikeys {
                let mut between = k.clone();
                between.push(0x01);
                targets.extend([k.clone(), between, k[..k.len() / 2].to_vec()]);
            }
            let iinterior = Node::IndexInterior { children: children(&mut rng, m), keys: ikeys.clone() };
            let ileaf = Node::IndexLeaf { keys: ikeys };
            for node in [interior, leaf, iinterior, ileaf] {
                let mut page = [0u8; PAGE_SIZE];
                assert!(node.encoded_size() <= PAGE_SIZE);
                node.encode(&mut page);
                // An interior page's index has an entry per child.
                let index = index_page(&page).unwrap();
                let towards = rowids
                    .iter()
                    .map(|&r| Toward::Rowid(r))
                    .chain(targets.iter().map(|k| Toward::Key(k)))
                    .chain((0..index.len() + 2).map(Toward::Child))
                    .chain([Toward::Last]);
                for toward in towards {
                    assert_eq!(pick(&page, &index, toward), step(&page, toward), "round {round} {node:?}");
                }
                pages += 1;
            }
        }
        assert_eq!(pages, 800);
    }

    /// Rowids 1–5 in leaf `a`, 11–15 in `b` and 21–25 in `c`, under a root
    /// that names `children` with separators `keys`.
    fn three_leaves(p: &mut Pager) -> (PageId, [PageId; 3]) {
        let root = create_table_tree(p).unwrap();
        let leaves = [(); 3].map(|()| create_table_tree(p).unwrap());
        for (leaf, base) in leaves.iter().zip([0, 10, 20]) {
            for rowid in base + 1..=base + 5 {
                table_insert(p, *leaf, rowid, &rowid.to_le_bytes()).unwrap();
            }
        }
        (root, leaves)
    }

    fn found(p: &mut Pager, root: PageId, rowid: i64) -> bool {
        table_get(p, root, rowid).unwrap().is_some_and(|v| v == rowid.to_le_bytes())
    }

    /// A checked interior page leaves a small cache, and the host rewrites
    /// its separators out of order in the file: the lookup that loads it
    /// again checks it again and refuses it, and so does every one after.
    /// Lookups in a second tree of the same shape evict it, so every slot
    /// it may come back to held a checked page of that tree.
    #[test]
    fn reloaded_pages_are_checked_again() {
        use crate::vfs::Vfs;
        let mut vfs = crate::vfs::MemVfs::new();
        let mut p = Pager::open_file(Box::new(vfs.clone()), "evict.db").unwrap();
        p.set_cache_pages(16);
        p.begin().unwrap();
        let [root, other] = [(); 2].map(|()| create_table_tree(&mut p).unwrap());
        for rowid in 0..300i64 {
            table_insert(&mut p, root, rowid, &[rowid as u8; 500]).unwrap();
            table_insert(&mut p, other, rowid, &[rowid as u8; 500]).unwrap();
        }
        p.commit().unwrap();
        assert_eq!(table_get(&mut p, root, 150).unwrap(), Some(vec![150; 500]));
        for rowid in 0..300i64 {
            assert_eq!(table_get(&mut p, other, rowid).unwrap(), Some(vec![rowid as u8; 500]));
        }
        let mut file = vfs.open("evict.db").unwrap();
        let at = u64::from(root - 1) * PAGE_SIZE as u64;
        let mut page = [0u8; PAGE_SIZE];
        file.read_at(at, &mut page).unwrap();
        let Node::TableInterior { children, mut keys } = Node::decode(&page).unwrap() else {
            panic!("root is a leaf");
        };
        assert!(keys.len() > 8, "{} separators", keys.len());
        let last = keys.len() - 3;
        keys.swap(2, last);
        Node::TableInterior { children, keys }.encode(&mut page);
        file.write_at(at, &page).unwrap();
        let reads = p.stats.page_reads;
        for rowid in [150, 0, 299, 40, 260] {
            let got = table_get(&mut p, root, rowid);
            assert!(matches!(got, Err(DbError::Storage(_))), "rowid {rowid}: {got:?}");
        }
        assert!(p.stats.page_reads > reads, "the root was still cached");
    }

    /// `store` rewrites a checked root: lookups and scans route by its new
    /// separators, not by where the old ones sat.
    #[test]
    fn rewritten_pages_route_by_their_new_separators() {
        let mut p = mem_pager();
        let (root, [a, b, c]) = three_leaves(&mut p);
        store(&mut p, root, &Node::TableInterior { children: vec![a, c], keys: vec![5] }).unwrap();
        assert!(!found(&mut p, root, 13) && found(&mut p, root, 23));
        store(&mut p, root, &Node::TableInterior { children: vec![a, b, c], keys: vec![5, 15] }).unwrap();
        for rowid in [3, 13, 23] {
            assert!(found(&mut p, root, rowid), "rowid {rowid}");
        }
        let all: Vec<i64> = [1, 11, 21].iter().flat_map(|&lo| lo..lo + 5).collect();
        assert_eq!(scan_rowids(&mut p, root), all);
    }

    /// A ROLLBACK puts a root's committed bytes back after a lookup read
    /// the transaction's: lookups and scans route by the restored bytes.
    #[test]
    fn rolled_back_pages_route_by_their_restored_separators() {
        let mut p = mem_pager();
        let (root, [a, b, c]) = three_leaves(&mut p);
        store(&mut p, root, &Node::TableInterior { children: vec![a, b, c], keys: vec![5, 15] }).unwrap();
        p.commit().unwrap();
        assert!(found(&mut p, root, 13) && found(&mut p, root, 23));
        p.begin().unwrap();
        store(&mut p, root, &Node::TableInterior { children: vec![a, c], keys: vec![5] }).unwrap();
        assert!(!found(&mut p, root, 13) && found(&mut p, root, 23));
        p.rollback().unwrap();
        for rowid in [3, 13, 23] {
            assert!(found(&mut p, root, rowid), "rowid {rowid}");
        }
        let all: Vec<i64> = [1, 11, 21].iter().flat_map(|&lo| lo..lo + 5).collect();
        assert_eq!(scan_rowids(&mut p, root), all);
    }

    /// Check what the byte editor's `edit` of `page` leaves against the
    /// model edited the same way: the page's bytes when it fits, else the
    /// halves and the separator of [`Node::split`], before the new entry
    /// when the edit is an `append`. A half whose bytes are over a page is
    /// refused, where the model's encoder runs past the page. Returns
    /// `[fits, split, of them appends, halves refused]`.
    fn assert_edit_matches(page: &[u8], edit: Edit<'_>, mut model: Node, append: bool) -> [usize; 4] {
        /// The node's bytes, in a buffer of two pages, and their length.
        fn encode(node: &Node) -> ([u8; 2 * PAGE_SIZE], usize) {
            let mut out = [0u8; 2 * PAGE_SIZE];
            let len = node.encode(&mut out);
            (out, len)
        }
        let mut got = [0u8; PAGE_SIZE];
        match edit {
            Edit::Fits(splice) => {
                assert!(model.encoded_size() <= PAGE_SIZE, "{model:?}");
                got.copy_from_slice(page);
                splice.apply(&mut got).unwrap();
                assert_eq!(got[..], encode(&model).0[..PAGE_SIZE], "{model:?}");
                [1, 0, 0, 0]
            }
            Edit::Overfull { buf, append: edit_append } => {
                assert!(model.encoded_size() > PAGE_SIZE, "{model:?}");
                assert_eq!(edit_append, append, "{model:?}");
                let (sep, right) = model.split(append);
                let h = halves(&buf, append).unwrap();
                assert_eq!(buf[h.sep].to_vec(), sep.encoded());
                let mut refused = 0;
                for (bytes, count, half) in [(h.left, h.left_len, &model), (h.right, h.right_len, &right)] {
                    let (want, len) = encode(half);
                    match write_node(&mut got, buf[0], count, &[&buf[bytes]]) {
                        Ok(()) => assert_eq!(got[..], want[..PAGE_SIZE], "{half:?}"),
                        Err(_) => {
                            assert!(len > PAGE_SIZE, "{half:?}");
                            refused += 1;
                        }
                    }
                }
                [0, 1, usize::from(append), refused]
            }
        }
    }

    /// Seeded pages of all four kinds, filled up to a page and often to
    /// the brim — table cells with and without overflow chains, index keys
    /// of up to `MAX_INDEX_KEY` bytes — edited by the byte editor and by
    /// the model (`Node::decode` → edit → `encode`): every insert, replace
    /// and delete on a leaf, every adoption of a split child's separator
    /// and every removal of a child leaves the model's bytes, and an edit
    /// that overfills its page splits into the model's halves and
    /// separator — an insert past the last entry of a leaf on the right
    /// edge before the new entry. A page's size is its bytes in use, the
    /// model's `encoded_size`.
    #[test]
    fn in_place_edits_match_the_decoded_model() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        /// A cell for `rowid`: a short, a mid-size or a full local payload,
        /// one in eight with an overflow chain.
        fn cell(rng: &mut StdRng, rowid: i64) -> TableCell {
            let len = [rng.gen_range(0..40), rng.gen_range(100..900), MAX_LOCAL][rng.gen_range(0..3)];
            let overflow_len = if rng.gen_range(0..8) == 0 { rng.gen_range(1..50_000) } else { 0 };
            let overflow = if overflow_len > 0 { rng.gen_range(1..u32::MAX) } else { 0 };
            TableCell { rowid, local: vec![rng.gen(); len], overflow_len, overflow }
        }
        /// A key of a few bytes, a few hundred or `MAX_INDEX_KEY`, with no
        /// zero byte: `k` followed by a zero sorts right after `k`.
        fn key(rng: &mut StdRng) -> Vec<u8> {
            let len = [rng.gen_range(1..20), rng.gen_range(100..400), MAX_INDEX_KEY][rng.gen_range(0..3)];
            (0..len).map(|_| rng.gen_range(1..=255u8)).collect()
        }
        /// Entries from `next` while `node(entries)` fits in `fill` bytes.
        fn filled<T>(fill: usize, mut next: impl FnMut(usize) -> T, node: impl Fn(Vec<T>) -> Node) -> Node
        where
            T: Clone,
        {
            let mut entries = Vec::new();
            loop {
                entries.push(next(entries.len()));
                if node(entries.clone()).encoded_size() > fill {
                    entries.pop();
                    return node(entries);
                }
            }
        }
        let encode = |node: &Node| {
            let mut page = [0u8; PAGE_SIZE];
            node.encode(&mut page);
            page
        };
        let tally = |seen: &mut [usize; 4], got: [usize; 4]| (0..4).for_each(|i| seen[i] += got[i]);
        let mut rng = StdRng::seed_from_u64(0xED17);
        let mut seen = [0usize; 4];
        for round in 0..300 {
            let fill = if round % 3 == 0 { PAGE_SIZE } else { rng.gen_range(16..=PAGE_SIZE) };
            // Rowids and separators three apart, so one fits between two.
            let base = rng.gen_range(-1000..1000i64) * 3;
            let table_leaf = filled(fill, |i| cell(&mut rng, base + 3 * i as i64), |cells| Node::TableLeaf { cells });
            let table_interior = filled(fill, |i| (base + 3 * i as i64, rng.gen()), |entries: Vec<(i64, PageId)>| {
                let (keys, mut children): (Vec<_>, Vec<_>) = entries.into_iter().unzip();
                children.push(7);
                Node::TableInterior { children, keys }
            });
            let mut ikeys: Vec<Vec<u8>> = (0..300).map(|_| key(&mut rng)).collect();
            ikeys.sort();
            ikeys.dedup();
            let index_leaf = filled(fill, |i| ikeys[i].clone(), |keys| Node::IndexLeaf { keys });
            let index_interior = filled(fill, |i| (ikeys[i].clone(), rng.gen()), |entries: Vec<(Vec<u8>, PageId)>| {
                let (keys, mut children): (Vec<_>, Vec<_>) = entries.into_iter().unzip();
                children.push(7);
                Node::IndexInterior { children, keys }
            });
            for model in [table_leaf, table_interior, index_leaf, index_interior] {
                let page = encode(&model);
                let lay = Layout::of(&page).unwrap();
                assert_eq!(lay.used, model.encoded_size(), "{model:?}");
                let n = lay.len();
                // One edit in four past the last entry, where appends split.
                let at = if rng.gen_range(0..4) == 0 { n } else { rng.gen_range(0..=n) };
                match model.clone() {
                    Node::TableLeaf { cells } => {
                        let bytes = |c: &TableCell| {
                            let mut page = [0u8; PAGE_SIZE];
                            let end = Node::TableLeaf { cells: vec![c.clone()] }.encode(&mut page);
                            page[3..end].to_vec()
                        };
                        // Insert before entry `at` (or last), then replace and
                        // delete entry `at` (when there is one).
                        let rowid = cells.get(at).map_or(base + 3 * n as i64, |c| c.rowid - 1);
                        let mut edits = vec![(Key::Rowid(rowid), Some(cell(&mut rng, rowid)), None)];
                        if let Some(old) = cells.get(at) {
                            edits.push((Key::Rowid(old.rowid), Some(cell(&mut rng, old.rowid)), Some(old)));
                            edits.push((Key::Rowid(old.rowid), None, Some(old)));
                        }
                        let edge = rng.gen();
                        assert!(edit_leaf(&page, Key::Rowid(rowid), None, edge).unwrap().is_none(), "delete of an absent rowid");
                        for (target, put, old) in edits {
                            let new = put.as_ref().map(bytes);
                            let (edit, chain) = edit_leaf(&page, target, new.as_deref(), edge).unwrap().unwrap();
                            assert_eq!(chain, old.map_or((0, 0), |c| (c.overflow, c.overflow_len)));
                            let mut cells = cells.clone();
                            let append = edge && at == n && old.is_none();
                            match (put, old) {
                                (Some(c), Some(_)) => cells[at] = c,
                                (Some(c), None) => cells.insert(at, c),
                                (None, _) => drop(cells.remove(at)),
                            }
                            tally(&mut seen, assert_edit_matches(&page, edit, Node::TableLeaf { cells }, append));
                        }
                    }
                    Node::IndexLeaf { keys } => {
                        let mut new = if at == 0 { Vec::new() } else { keys[at - 1].clone() };
                        if at > 0 {
                            new.push(0);
                        }
                        let mut entry = Vec::new();
                        write_varint(&mut entry, new.len() as u64);
                        entry.extend_from_slice(&new);
                        let edge = rng.gen();
                        let (edit, _) = edit_leaf(&page, Key::Bytes(&new), Some(&entry), edge).unwrap().unwrap();
                        let mut inserted = keys.clone();
                        inserted.insert(at, new.clone());
                        tally(&mut seen, assert_edit_matches(&page, edit, Node::IndexLeaf { keys: inserted }, edge && at == n));
                        assert!(edit_leaf(&page, Key::Bytes(&new), None, edge).unwrap().is_none(), "delete of an absent key");
                        if let Some(old) = keys.get(at) {
                            assert!(edit_leaf(&page, Key::Bytes(old), Some(&entry), edge).unwrap().is_none());
                            let (edit, chain) = edit_leaf(&page, Key::Bytes(old), None, edge).unwrap().unwrap();
                            assert_eq!(chain, (0, 0));
                            let mut kept = keys.clone();
                            kept.remove(at);
                            tally(&mut seen, assert_edit_matches(&page, edit, Node::IndexLeaf { keys: kept }, false));
                        }
                    }
                    interior => {
                        // Adopt a split of child `at`, whose separator sorts
                        // between the ones around it.
                        let sep = match &interior {
                            Node::TableInterior { keys, .. } => Sep::Rowid(keys.get(at).map_or(base + 3 * n as i64, |k| k - 1)),
                            Node::IndexInterior { keys, .. } => {
                                let mut sep = if at == 0 { Vec::new() } else { keys[at - 1].clone() };
                                if at > 0 {
                                    sep.push(0);
                                }
                                Sep::Key(sep)
                            }
                            leaf => unreachable!("{leaf:?}"),
                        };
                        let right: PageId = rng.gen();
                        let mut new = sep.encoded();
                        new.extend(right.to_le_bytes());
                        let child_ty = if rng.gen() { page[0] } else { page[0] | LEAF };
                        let edit = adopt(&page, child_ty, at, &new).unwrap();
                        let mut adopted = interior.clone();
                        adopted.adopt(at, sep, right);
                        tally(&mut seen, assert_edit_matches(&page, edit, adopted, false));
                        assert!(adopt(&page, child_ty, n + 1, &new).is_err(), "a child past the last");
                        // Drop child `at`, with the separator that bounded it.
                        let mut dropped = interior.clone();
                        match drop_child(&page, at).unwrap() {
                            Some(splice) => {
                                assert!(dropped.remove_child(at));
                                assert_eq!(assert_edit_matches(&page, Edit::Fits(splice), dropped, false), [1, 0, 0, 0]);
                            }
                            None => assert!(!dropped.remove_child(at)),
                        }
                    }
                }
            }
        }
        let [fits, split, appended, refused] = seen;
        assert!(
            fits >= 900 && split >= 150 && appended >= 15 && refused == 0,
            "{fits} edits fit, {split} split ({appended} appends), {refused} halves refused"
        );
    }

    /// A cell whose overflow head the host forged — another table's live
    /// root leaf (an empty leaf, whose bytes 1..5 read as "no next page"),
    /// the header page, a live interior page — or whose chain is shorter
    /// or longer than it claims. Deleting or replacing its row is a
    /// storage error that frees nothing: before, a delete put the live
    /// root on the freelist and returned `Ok(true)`, and the next
    /// `allocate` handed it out again. With the cell mended, the delete
    /// frees exactly its chain.
    #[test]
    fn forged_overflow_chains_free_nothing() {
        type Forge = fn(&TableCell, PageId, PageId) -> (PageId, u32);
        let forgeries: [(&str, Forge); 6] = [
            ("a live root leaf", |c, other, _| (other, c.overflow_len)),
            ("the header page", |c, _, _| (1, c.overflow_len)),
            ("a live interior page", |c, _, interior| (interior, c.overflow_len)),
            ("a chain a byte longer than claimed", |c, _, _| (c.overflow, c.overflow_len - 1)),
            ("a chain a byte shorter than claimed", |c, _, _| (c.overflow, c.overflow_len + 1)),
            ("a chain a page shorter than claimed", |c, _, _| (c.overflow, c.overflow_len + OVERFLOW_CAP as u32)),
        ];
        for (name, forge) in forgeries {
            for replace in [false, true] {
                let mut p = mem_pager();
                let [root, other, big] = [(); 3].map(|()| create_table_tree(&mut p).unwrap());
                for rowid in 0..40 {
                    table_insert(&mut p, big, rowid, &[rowid as u8; 500]).unwrap();
                }
                assert!(matches!(load(&mut p, big).unwrap(), Node::TableInterior { .. }));
                let payload = vec![9u8; MAX_LOCAL + 2 * OVERFLOW_CAP + 10];
                table_insert(&mut p, root, 7, &payload).unwrap();
                let honest = load(&mut p, root).unwrap();
                let Node::TableLeaf { mut cells } = honest.clone() else { panic!("root is not a leaf") };
                (cells[0].overflow, cells[0].overflow_len) = forge(&cells[0], other, big);
                store(&mut p, root, &Node::TableLeaf { cells }).unwrap();
                let free = p.freelist_len();
                let got = if replace { table_insert(&mut p, root, 7, b"short") } else { table_delete(&mut p, root, 7).map(drop) };
                assert!(matches!(got, Err(DbError::Storage(_))), "{name}: {got:?}");
                assert_eq!(p.freelist_len(), free, "{name}: pages were freed");
                store(&mut p, root, &honest).unwrap();
                assert_eq!(table_get(&mut p, root, 7).unwrap(), Some(payload), "{name}");
                assert!(table_delete(&mut p, root, 7).unwrap());
                assert_eq!(p.freelist_len(), free + 3, "{name}");
                assert_pages_accounted(&mut p, &[root, other, big]);
            }
        }
    }
}
