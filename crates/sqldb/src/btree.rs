//! B+trees on pages: table trees (rowid → record) and index trees
//! (serialised key → implicit rowid), with overflow chains for payloads
//! that don't fit a page (the 1 KiB blobs of §V-D fit locally; larger
//! values spill).
//!
//! One parser reads the node format, `NodeReader`, over the page bytes
//! in place. `Node::decode` is a collect over it, used only for a page a
//! change edits — the leaf an insert or delete changes, a parent that
//! adopts a split or drops an emptied child, a tree being freed — and for
//! a cursor's current leaf.
//! Pages may come from the host (`FsChoice::UntrustedHost`), so the reader
//! refuses keys that are not strictly ascending — within a page, and from
//! one leaf a cursor leaves to the next it reaches — every descent stops
//! at `MAX_DEPTH` levels, and freeing a tree refuses a page it already
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
//! and copies out only a match. A write decodes its leaf, edits it and
//! hands it to `store_splitting`, which carries a split up the path the
//! descent recorded: an interior page is decoded only when it changes.

use std::collections::HashSet;

use crate::pager::{PageId, Pager};
use crate::record::read_varint;
use crate::{DbError, DbResult, PAGE_SIZE};

const TABLE_LEAF: u8 = 0x0D;
const TABLE_INTERIOR: u8 = 0x05;
const INDEX_LEAF: u8 = 0x0A;
const INDEX_INTERIOR: u8 = 0x02;
const OVERFLOW: u8 = 0x0F;

/// Payload bytes kept in-page before spilling to an overflow chain.
pub const MAX_LOCAL: usize = 2000;
/// Usable bytes per overflow page.
const OVERFLOW_CAP: usize = PAGE_SIZE - 9;

/// A table-leaf cell.
#[derive(Debug, Clone, PartialEq)]
pub struct TableCell {
    /// Row key.
    pub rowid: i64,
    /// Local prefix of the payload.
    pub local: Vec<u8>,
    /// Remaining payload length beyond `local`.
    pub overflow_len: u32,
    /// First overflow page, when `overflow_len > 0`.
    pub overflow: PageId,
}

/// Decoded node.
#[derive(Debug, Clone, PartialEq)]
pub enum Node {
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

impl Node {
    /// Serialised size (must fit `PAGE_SIZE`).
    fn encoded_size(&self) -> usize {
        let mut n = 8;
        match self {
            Node::TableLeaf { cells } => {
                for c in cells {
                    n += 10 + 5 + 5 + c.local.len() + 4;
                }
            }
            Node::TableInterior { children, keys } => {
                n += children.len() * 4 + keys.len() * 10;
            }
            Node::IndexLeaf { keys } => {
                for k in keys {
                    n += 5 + k.len();
                }
            }
            Node::IndexInterior { children, keys } => {
                n += children.len() * 4;
                for k in keys {
                    n += 5 + k.len();
                }
            }
        }
        n
    }

    fn encode(&self, out: &mut [u8]) {
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
    }

    /// Split an overfull node: keep the left half and return the
    /// separator that goes up with the right half. A leaf splits at
    /// [`split_point`] and its largest key is copied up; an interior node
    /// splits at its middle separator, which moves up.
    fn split(&mut self) -> (Sep, Node) {
        /// The entries after the middle separator, and the separator.
        fn halve<K>(children: &mut Vec<PageId>, keys: &mut Vec<K>) -> (K, Vec<PageId>, Vec<K>) {
            let mid = keys.len() / 2;
            let right_keys = keys.split_off(mid + 1);
            (keys.remove(mid), children.split_off(mid + 1), right_keys)
        }
        match self {
            Node::TableLeaf { cells } => {
                let cut = split_point(cells.iter().map(|c| 24 + c.local.len()));
                let right = cells.split_off(cut);
                (Sep::Rowid(cells[cut - 1].rowid), Node::TableLeaf { cells: right })
            }
            Node::IndexLeaf { keys } => {
                let cut = split_point(keys.iter().map(|k| 5 + k.len()));
                let right = keys.split_off(cut);
                (Sep::Key(keys[cut - 1].clone()), Node::IndexLeaf { keys: right })
            }
            Node::TableInterior { children, keys } => {
                let (sep, children, keys) = halve(children, keys);
                (Sep::Rowid(sep), Node::TableInterior { children, keys })
            }
            Node::IndexInterior { children, keys } => {
                let (sep, children, keys) = halve(children, keys);
                (Sep::Key(sep), Node::IndexInterior { children, keys })
            }
        }
    }

    /// Take in what a split of child `idx` sent up: `sep` now bounds child
    /// `idx`, and `right` follows it.
    fn adopt(&mut self, idx: usize, sep: Sep, right: PageId) -> DbResult<()> {
        fn put<K>(children: &mut Vec<PageId>, keys: &mut Vec<K>, idx: usize, sep: K, right: PageId) -> DbResult<()> {
            // The parent's bytes may have been reloaded since the descent.
            if idx >= children.len() {
                return Err(DbError::Storage("split child is not on its parent".into()));
            }
            keys.insert(idx, sep);
            children.insert(idx + 1, right);
            Ok(())
        }
        match (self, sep) {
            (Node::TableInterior { children, keys }, Sep::Rowid(sep)) => put(children, keys, idx, sep, right),
            (Node::IndexInterior { children, keys }, Sep::Key(sep)) => put(children, keys, idx, sep, right),
            _ => Err(DbError::Storage("tree type mismatch".into())),
        }
    }

    /// Decode a whole page: a collect over [`NodeReader`], so a page is
    /// accepted or refused exactly as the in-place reads accept or refuse it.
    fn decode(data: &[u8]) -> DbResult<Node> {
        let mut r = NodeReader::new(data)?;
        let n = r.len;
        Ok(match r.ty {
            TABLE_LEAF => Node::TableLeaf {
                cells: (0..n).map(|_| r.cell().map(CellRef::into_cell)).collect::<DbResult<_>>()?,
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
            // INDEX_INTERIOR: `NodeReader::new` refused every other type.
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

impl CellRef<'_> {
    fn into_cell(self) -> TableCell {
        TableCell {
            rowid: self.rowid,
            local: self.local.to_vec(),
            overflow_len: self.overflow_len,
            overflow: self.overflow,
        }
    }
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
/// when it overflows its 4 KiB page. An interior page with one more entry
/// than fits holds at least 4 children: index keys are at most
/// `MAX_INDEX_KEY` = 1 500 bytes, so 3 separators already overflow the
/// page (table entries take at most 14 bytes, so a table page splits at
/// 292 separators). A split cuts at the middle separator, so each half
/// keeps at least 2 children (table: 146), and a tree grown by inserts has
/// at least 2^(h−1) leaves at height h: with 32-bit page ids, at most 33
/// levels (table trees: 6). Deletes never add a level. 64 leaves that
/// margin twice over and costs nothing: only a cycle in the pages — a page
/// the host forged or corrupted — descends that far.
const MAX_DEPTH: usize = 64;

fn too_deep() -> DbError {
    DbError::Storage(format!("B-tree deeper than {MAX_DEPTH} levels (a page cycle)"))
}

/// Check a page and index it, for [`Pager::get_indexed`]: read every entry
/// with [`NodeReader`] — so a page is accepted or refused exactly as
/// [`Node::decode`] accepts or refuses it — and record where each
/// `(child, separator)` of an interior page starts, then where its last
/// child does. A leaf's index is empty.
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
/// one page access per level. Each page, the leaf included, is checked
/// once, by [`index_page`], when its bytes enter or change in the cache.
/// When `path` is given (a cursor's stack, or the path a write carries a
/// split or an unlink up), each `(page, child index)` taken is pushed
/// onto it and the levels already on it count toward [`MAX_DEPTH`].
fn descend<R>(
    pager: &mut Pager,
    mut page: PageId,
    toward: Toward<'_>,
    mut path: Option<&mut Vec<(PageId, usize)>>,
    at_leaf: impl FnOnce(PageId, &[u8]) -> DbResult<R>,
) -> DbResult<R> {
    let above = path.as_ref().map_or(0, |p| p.len());
    for _ in above..MAX_DEPTH {
        let (bytes, index) = pager.get_indexed(page, index_page)?;
        let Some((idx, child)) = pick(bytes, index, toward)? else {
            return at_leaf(page, bytes);
        };
        if let Some(p) = path.as_deref_mut() {
            p.push((page, idx));
        }
        page = child;
    }
    Err(too_deep())
}

/// Decode a page for code that modifies it (unlinking an emptied child,
/// freeing a tree).
fn load(pager: &mut Pager, id: PageId) -> DbResult<Node> {
    Node::decode(pager.get(id)?)
}

fn store(pager: &mut Pager, id: PageId, node: &Node) -> DbResult<()> {
    debug_assert!(node.encoded_size() <= PAGE_SIZE, "node overflows page");
    node.encode(pager.get_mut(id)?);
    Ok(())
}

/// Create an empty table tree; returns its root page.
pub fn create_table_tree(pager: &mut Pager) -> DbResult<PageId> {
    let id = pager.allocate()?;
    store(pager, id, &Node::TableLeaf { cells: Vec::new() })?;
    Ok(id)
}

/// Create an empty index tree; returns its root page.
pub fn create_index_tree(pager: &mut Pager) -> DbResult<PageId> {
    let id = pager.allocate()?;
    store(pager, id, &Node::IndexLeaf { keys: Vec::new() })?;
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

fn read_overflow(pager: &mut Pager, mut id: PageId, total: u32) -> DbResult<Vec<u8>> {
    // `total` and the chain are read from pages the host may supply: reserve
    // no more than the file's pages can hold, and stop at the first page
    // whose length is empty (never written, so a chain cannot cycle) or
    // overruns the page or the declared total.
    let total = total as usize;
    let fits = pager.page_count() as usize * OVERFLOW_CAP;
    let mut out = Vec::with_capacity(total.min(fits));
    let mismatch = || DbError::Storage("overflow chain length mismatch".into());
    while id != 0 {
        let page = pager.get(id)?;
        if page[0] != OVERFLOW {
            return Err(DbError::Storage("bad overflow page".into()));
        }
        let next = u32::from_le_bytes([page[1], page[2], page[3], page[4]]);
        let len = u32::from_le_bytes([page[5], page[6], page[7], page[8]]) as usize;
        if len == 0 || len > OVERFLOW_CAP || out.len() + len > total {
            return Err(mismatch());
        }
        out.extend_from_slice(&page[9..9 + len]);
        id = next;
    }
    if out.len() != total {
        return Err(mismatch());
    }
    Ok(out)
}

fn free_overflow(pager: &mut Pager, mut id: PageId) -> DbResult<()> {
    // A chain longer than the file has pages can only be a cycle.
    for _ in 0..pager.page_count() {
        if id == 0 {
            return Ok(());
        }
        let page = pager.get(id)?;
        let next = u32::from_le_bytes([page[1], page[2], page[3], page[4]]);
        pager.free_page(id)?;
        id = next;
    }
    Err(DbError::Storage("overflow chain cycles".into()))
}

fn make_cell(pager: &mut Pager, rowid: i64, payload: &[u8]) -> DbResult<TableCell> {
    if payload.len() <= MAX_LOCAL {
        Ok(TableCell {
            rowid,
            local: payload.to_vec(),
            overflow_len: 0,
            overflow: 0,
        })
    } else {
        let overflow = write_overflow(pager, &payload[MAX_LOCAL..])?;
        Ok(TableCell {
            rowid,
            local: payload[..MAX_LOCAL].to_vec(),
            overflow_len: (payload.len() - MAX_LOCAL) as u32,
            overflow,
        })
    }
}

/// Read the full payload of a cell.
pub fn cell_payload(pager: &mut Pager, cell: &TableCell) -> DbResult<Vec<u8>> {
    if cell.overflow_len == 0 {
        return Ok(cell.local.clone());
    }
    let mut out = cell.local.clone();
    out.extend(read_overflow(pager, cell.overflow, cell.overflow_len)?);
    Ok(out)
}

// ---------------------------------------------------------------------
// Insert (with splits)
// ---------------------------------------------------------------------

/// Insert (or replace) `rowid → payload` in a table tree.
pub fn table_insert(pager: &mut Pager, root: PageId, rowid: i64, payload: &[u8]) -> DbResult<()> {
    let cell = make_cell(pager, rowid, payload)?;
    let mut path = Vec::new();
    let (page, mut node) = descend(pager, root, Toward::Rowid(rowid), Some(&mut path), decode_leaf)?;
    let Node::TableLeaf { cells } = &mut node else {
        return Err(DbError::Storage("not a table tree".into()));
    };
    match cells.binary_search_by_key(&rowid, |c| c.rowid) {
        Ok(i) => {
            // Replace: free the old overflow chain.
            let old = std::mem::replace(&mut cells[i], cell);
            if old.overflow_len > 0 {
                free_overflow(pager, old.overflow)?;
            }
        }
        Err(i) => cells.insert(i, cell),
    }
    store_splitting(pager, &path, page, node)
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
    let mut path = Vec::new();
    let (page, mut node) = descend(pager, root, Toward::Key(&key), Some(&mut path), decode_leaf)?;
    let Node::IndexLeaf { keys } = &mut node else {
        return Err(DbError::Storage("not an index tree".into()));
    };
    let Err(i) = keys.binary_search(&key) else {
        return Ok(());
    };
    keys.insert(i, key);
    store_splitting(pager, &path, page, node)
}

/// Store `node`, the edited content of `page`, which [`descend`] reached
/// through `path` (its `(interior page, child index)` pairs from the
/// root down). A node that overflows its page splits ([`Node::split`]),
/// and its parent adopts the separator and the new right sibling: the
/// parent is decoded from the `get_mut` borrow that rewrites it and
/// encoded back into that borrow when it fits, else it splits in turn.
/// The root keeps its page id, which the catalog holds: when it splits,
/// its left half moves to a new page, allocated after the right sibling,
/// and the root becomes the interior node over the two.
fn store_splitting(pager: &mut Pager, path: &[(PageId, usize)], mut page: PageId, mut node: Node) -> DbResult<()> {
    let mut parents = path.iter().rev();
    while node.encoded_size() > PAGE_SIZE {
        let (sep, half) = node.split();
        let right = pager.allocate()?;
        store(pager, right, &half)?;
        let Some(&(parent, idx)) = parents.next() else {
            let left = pager.allocate()?;
            store(pager, left, &node)?;
            return store(pager, page, &sep.root_over(left, right));
        };
        store(pager, page, &node)?;
        let bytes = pager.get_mut(parent)?;
        let mut up = Node::decode(bytes)?;
        up.adopt(idx, sep, right)?;
        if up.encoded_size() <= PAGE_SIZE {
            up.encode(bytes);
            return Ok(());
        }
        (page, node) = (parent, up);
    }
    store(pager, page, &node)
}

/// The separator a split sends up: the bound of its left half (a leaf's
/// largest key, or an interior node's middle separator).
enum Sep {
    Rowid(i64),
    Key(Vec<u8>),
}

impl Sep {
    /// The interior node over a split root's two halves.
    fn root_over(self, left: PageId, right: PageId) -> Node {
        let children = vec![left, right];
        match self {
            Sep::Rowid(key) => Node::TableInterior { children, keys: vec![key] },
            Sep::Key(key) => Node::IndexInterior { children, keys: vec![key] },
        }
    }
}

/// Where to split an overfull leaf whose entries encode to `sizes` bytes:
/// after the entry that crosses the middle, unless that leaves the left
/// half over a page — a cell of up to `MAX_LOCAL` bytes can cross it — and
/// then before it. The right half still fits: the entries before the
/// crossing one then hold more than a page less one entry, and the leaf
/// held at most a page before the insert added one entry, so the right
/// half holds less than two entries (2 × 2 024 bytes).
fn split_point(sizes: impl Iterator<Item = usize>) -> usize {
    let sizes: Vec<usize> = sizes.collect();
    let total: usize = sizes.iter().sum();
    let mut acc = 0;
    for (i, s) in sizes.iter().enumerate() {
        acc += s;
        if acc >= total / 2 {
            let cut = if 8 + acc > PAGE_SIZE { i } else { i + 1 };
            return cut.min(sizes.len() - 1).max(1);
        }
    }
    sizes.len() / 2
}

// ---------------------------------------------------------------------
// Lookup / delete
// ---------------------------------------------------------------------

/// Fetch the record for `rowid`, if present. The pages are read in place:
/// the leaf, checked when its bytes entered the cache, is parsed up to
/// the first cell at or above `rowid`, and only a match is copied out
/// (with its overflow chain).
pub fn table_get(pager: &mut Pager, root: PageId, rowid: i64) -> DbResult<Option<Vec<u8>>> {
    let hit = descend(pager, root, Toward::Rowid(rowid), None, |_, leaf| {
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
        payload.extend(read_overflow(pager, overflow, overflow_len)?);
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
    delete(pager, root, Toward::Rowid(rowid), |pager, leaf| {
        let Node::TableLeaf { cells } = leaf else {
            return Err(DbError::Storage("not a table tree".into()));
        };
        let Ok(i) = cells.binary_search_by_key(&rowid, |c| c.rowid) else {
            return Ok(false);
        };
        let cell = cells.remove(i);
        if cell.overflow_len > 0 {
            free_overflow(pager, cell.overflow)?;
        }
        Ok(true)
    })
}

/// Delete an exact key from an index tree; returns whether it existed.
/// Emptied leaves are unlinked and freed as in [`table_delete`].
pub fn index_delete(pager: &mut Pager, root: PageId, key: &[u8]) -> DbResult<bool> {
    delete(pager, root, Toward::Key(key), |_, leaf| {
        let Node::IndexLeaf { keys } = leaf else {
            return Err(DbError::Storage("not an index tree".into()));
        };
        let Ok(i) = keys.binary_search_by(|k| k.as_slice().cmp(key)) else {
            return Ok(false);
        };
        keys.remove(i);
        Ok(true)
    })
}

/// Descend `toward` a leaf and let `remove` take an entry out of it
/// (returning whether there was one); then store the leaf, or unlink it
/// when that emptied a leaf below the root.
fn delete(
    pager: &mut Pager,
    root: PageId,
    toward: Toward<'_>,
    remove: impl FnOnce(&mut Pager, &mut Node) -> DbResult<bool>,
) -> DbResult<bool> {
    let mut path = Vec::new();
    let (page, mut leaf) = descend(pager, root, toward, Some(&mut path), decode_leaf)?;
    if !remove(pager, &mut leaf)? {
        return Ok(false);
    }
    if leaf_len(&leaf) == 0 && !path.is_empty() {
        unlink_emptied(pager, &path, page, &leaf)?;
    } else {
        store(pager, page, &leaf)?;
    }
    Ok(true)
}

/// `page` — reached from the root through `path`, a list of (interior
/// page, child index taken) — has just lost its last entry: free it and
/// drop it from its parent, together with the separator that bounded it
/// (the last separator when it was the unbounded last child). A parent
/// left without children goes the same way, up to the root, whose page id
/// is referenced from the catalog and must stay: it becomes `empty_leaf`.
/// The path comes from a descent, so it is at most [`MAX_DEPTH`] long.
fn unlink_emptied(
    pager: &mut Pager,
    path: &[(PageId, usize)],
    mut page: PageId,
    empty_leaf: &Node,
) -> DbResult<()> {
    fn remove_child<K>(children: &mut Vec<PageId>, keys: &mut Vec<K>, idx: usize) {
        children.remove(idx);
        if !keys.is_empty() {
            keys.remove(idx.min(keys.len() - 1));
        }
    }
    for &(parent, idx) in path.iter().rev() {
        pager.free_page(page)?;
        let mut node = load(pager, parent)?;
        let childless = match &mut node {
            Node::TableInterior { children, keys } => {
                remove_child(children, keys, idx);
                children.is_empty()
            }
            Node::IndexInterior { children, keys } => {
                remove_child(children, keys, idx);
                children.is_empty()
            }
            _ => return Err(DbError::Storage("leaf on the path to a leaf".into())),
        };
        if !childless {
            return store(pager, parent, &node);
        }
        page = parent;
    }
    store(pager, page, empty_leaf)
}

/// Largest rowid in the table (for auto-increment), read in place.
pub fn table_max_rowid(pager: &mut Pager, root: PageId) -> DbResult<Option<i64>> {
    descend(pager, root, Toward::Last, None, |_, leaf| {
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
    match load(pager, page)? {
        Node::TableLeaf { cells } => {
            for c in cells {
                if c.overflow_len > 0 {
                    free_overflow(pager, c.overflow)?;
                }
            }
        }
        Node::TableInterior { children, .. } | Node::IndexInterior { children, .. } => {
            for child in children {
                free_subtree(pager, child, depth + 1, freed)?;
            }
        }
        Node::IndexLeaf { .. } => {}
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
    /// Current decoded leaf and position.
    leaf: Option<(PageId, Node, usize)>,
    /// [`Pager::pages_freed`] when the cursor was opened. The stack and
    /// the decoded leaf name pages by id; a page freed since (an emptied
    /// leaf, a replaced overflow chain) may already hold something else.
    pages_freed_at_open: u64,
}

impl Cursor {
    fn open(pager: &Pager) -> Self {
        Self {
            stack: Vec::new(),
            leaf: None,
            pages_freed_at_open: pager.pages_freed(),
        }
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
        let mut c = Self::open(pager);
        let (leaf, node) = descend(pager, root, Toward::Child(0), Some(&mut c.stack), decode_leaf)?;
        c.settle(pager, leaf, node, 0)?;
        Ok(c)
    }

    /// Cursor positioned at the first table entry with `rowid ≥ target`.
    pub fn seek_rowid(pager: &mut Pager, root: PageId, target: i64) -> DbResult<Self> {
        let mut c = Self::open(pager);
        let (leaf, node) = descend(pager, root, Toward::Rowid(target), Some(&mut c.stack), decode_leaf)?;
        let Node::TableLeaf { cells } = &node else {
            return Err(DbError::Storage("not a table tree".into()));
        };
        let idx = cells.partition_point(|cell| cell.rowid < target);
        c.settle(pager, leaf, node, idx)?;
        Ok(c)
    }

    /// Cursor positioned at the first index key ≥ `target`.
    pub fn seek_key(pager: &mut Pager, root: PageId, target: &[u8]) -> DbResult<Self> {
        let mut c = Self::open(pager);
        let (leaf, node) = descend(pager, root, Toward::Key(target), Some(&mut c.stack), decode_leaf)?;
        let Node::IndexLeaf { keys } = &node else {
            return Err(DbError::Storage("not an index tree".into()));
        };
        let idx = keys.partition_point(|k| k.as_slice() < target);
        c.settle(pager, leaf, node, idx)?;
        Ok(c)
    }

    /// Stand on entry `idx` of the decoded `leaf`, or on the first entry
    /// of the next non-empty leaf when `idx` is past its end.
    fn settle(&mut self, pager: &mut Pager, leaf: PageId, node: Node, idx: usize) -> DbResult<()> {
        let at_end = idx >= leaf_len(&node);
        self.leaf = Some((leaf, node, idx));
        if at_end {
            self.advance_leaf(pager)?;
        }
        Ok(())
    }

    /// Move to the first entry of the next non-empty leaf. The interior
    /// pages on the stack pick the next child in place ([`pick`]); only the
    /// leaf is decoded. Its first key must be above the last key of the
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
            let (leaf, node) = descend(pager, child, Toward::Child(0), Some(&mut self.stack), decode_leaf)?;
            if leaf_len(&node) > 0 {
                if let Some((_, left, _)) = &left {
                    if !follows(left, &node) {
                        return Err(DbError::Storage(format!("leaf {leaf} repeats keys of an earlier leaf")));
                    }
                }
                self.leaf = Some((leaf, node, 0));
                return Ok(());
            }
        }
        Ok(())
    }

    /// Whether the cursor points at an entry.
    #[must_use]
    pub fn valid(&self) -> bool {
        self.leaf.as_ref().is_some_and(|(_, node, idx)| *idx < leaf_len(node))
    }

    /// Current table entry `(rowid, payload)`.
    pub fn table_entry(&self, pager: &mut Pager) -> DbResult<(i64, Vec<u8>)> {
        match &self.leaf {
            Some((_, Node::TableLeaf { cells }, idx)) if *idx < cells.len() => {
                self.assert_no_page_freed_since_open(pager);
                let cell = &cells[*idx];
                Ok((cell.rowid, cell_payload(pager, cell)?))
            }
            _ => Err(DbError::Storage("cursor not on a table entry".into())),
        }
    }

    /// Current index key.
    pub fn index_entry(&self) -> DbResult<&[u8]> {
        match &self.leaf {
            Some((_, Node::IndexLeaf { keys }, idx)) if *idx < keys.len() => Ok(&keys[*idx]),
            _ => Err(DbError::Storage("cursor not on an index entry".into())),
        }
    }

    /// Advance; returns whether the cursor is still valid.
    pub fn next(&mut self, pager: &mut Pager) -> DbResult<bool> {
        if let Some((_, node, idx)) = &mut self.leaf {
            *idx += 1;
            if *idx < leaf_len(node) {
                return Ok(true);
            }
            self.advance_leaf(pager)?;
            return Ok(self.valid());
        }
        Ok(false)
    }
}

/// The leaf a cursor stands on, or a write edits, decoded.
fn decode_leaf(id: PageId, page: &[u8]) -> DbResult<(PageId, Node)> {
    Ok((id, Node::decode(page)?))
}

/// Whether every key of leaf `right` is above every key of leaf `left`
/// (each already strictly ascending): `left`'s last below `right`'s first.
fn follows(left: &Node, right: &Node) -> bool {
    match (left, right) {
        (Node::TableLeaf { cells: l }, Node::TableLeaf { cells: r }) => {
            l.last().map(|c| c.rowid) < r.first().map(|c| c.rowid)
        }
        (Node::IndexLeaf { keys: l }, Node::IndexLeaf { keys: r }) => l.last() < r.first(),
        _ => false,
    }
}

/// Entries on a decoded leaf (0 for an interior node).
fn leaf_len(node: &Node) -> usize {
    match node {
        Node::TableLeaf { cells } => cells.len(),
        Node::IndexLeaf { keys } => keys.len(),
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// Three cells that just fit a leaf, then a full-size local cell
    /// between the last two: the middle falls inside the new cell, and
    /// cutting after it would leave 4 556 bytes on the left page.
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
    }

    /// Rows of ≈ 1.5 KiB, two to a leaf, in a seeded shuffled order: the
    /// root passes a page of separators (292), so interior pages split
    /// and the tree grows a third level. Every row reads back, replaced or
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
        let mut ids: Vec<i64> = (0..1200).collect();
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
        assert!(model.len() / 2 >= 293, "{} rows", model.len());
        for round in 0..2 {
            assert_no_empty_node_below_root(&mut p, root);
            assert_eq!(scan_rowids(&mut p, root), model.keys().copied().collect::<Vec<_>>(), "round {round}");
            assert_eq!(table_max_rowid(&mut p, root).unwrap(), model.keys().next_back().copied());
            for rowid in -1..1201 {
                assert_eq!(table_get(&mut p, root, rowid).unwrap().as_ref(), model.get(&rowid), "rowid {rowid}");
            }
            for &rowid in ids.iter().step_by(3) {
                assert_eq!(table_delete(&mut p, root, rowid).unwrap(), model.remove(&rowid).is_some());
            }
        }
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
}
