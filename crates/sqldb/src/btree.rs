//! B+trees on pages: table trees (rowid → record) and index trees
//! (serialised key → implicit rowid), with overflow chains for payloads
//! that don't fit a page (the 1 KiB blobs of §V-D fit locally; larger
//! values spill).

use crate::pager::{PageId, Pager};
use crate::record::{read_varint, write_varint};
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
    fn is_leaf(&self) -> bool {
        matches!(self, Node::TableLeaf { .. } | Node::IndexLeaf { .. })
    }

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

    fn decode(data: &[u8]) -> DbResult<Node> {
        let mut r = Reader { data, pos: 0 };
        let ty = r.u8()?;
        let n = r.u16()? as usize;
        Ok(match ty {
            TABLE_LEAF => {
                let mut cells = Vec::with_capacity(n);
                for _ in 0..n {
                    let rowid = r.varint()? as i64;
                    let local_len = r.varint()? as usize;
                    let overflow_len = r.varint()? as u32;
                    let overflow = if overflow_len > 0 { r.u32()? } else { 0 };
                    let local = r.take(local_len)?.to_vec();
                    cells.push(TableCell {
                        rowid,
                        local,
                        overflow_len,
                        overflow,
                    });
                }
                Node::TableLeaf { cells }
            }
            TABLE_INTERIOR => {
                let mut children = Vec::with_capacity(n + 1);
                let mut keys = Vec::with_capacity(n);
                for _ in 0..n {
                    children.push(r.u32()?);
                    keys.push(r.varint()? as i64);
                }
                children.push(r.u32()?);
                Node::TableInterior { children, keys }
            }
            INDEX_LEAF => {
                let mut keys = Vec::with_capacity(n);
                for _ in 0..n {
                    let len = r.varint()? as usize;
                    keys.push(r.take(len)?.to_vec());
                }
                Node::IndexLeaf { keys }
            }
            INDEX_INTERIOR => {
                let mut children = Vec::with_capacity(n + 1);
                let mut keys = Vec::with_capacity(n);
                for _ in 0..n {
                    children.push(r.u32()?);
                    let len = r.varint()? as usize;
                    keys.push(r.take(len)?.to_vec());
                }
                children.push(r.u32()?);
                Node::IndexInterior { children, keys }
            }
            other => return Err(DbError::Storage(format!("bad page type 0x{other:02x}"))),
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
    fn varint(&mut self, v: u64) {
        let mut tmp = Vec::with_capacity(10);
        write_varint(&mut tmp, v);
        self.bytes(&tmp);
    }
    fn bytes(&mut self, b: &[u8]) {
        self.out[self.pos..self.pos + b.len()].copy_from_slice(b);
        self.pos += b.len();
    }
}

struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn u8(&mut self) -> DbResult<u8> {
        let v = *self
            .data
            .get(self.pos)
            .ok_or_else(|| DbError::Storage("page truncated".into()))?;
        self.pos += 1;
        Ok(v)
    }
    fn u16(&mut self) -> DbResult<u16> {
        let s = self.take(2)?;
        Ok(u16::from_le_bytes(s.try_into().expect("2")))
    }
    fn u32(&mut self) -> DbResult<u32> {
        let s = self.take(4)?;
        Ok(u32::from_le_bytes(s.try_into().expect("4")))
    }
    fn varint(&mut self) -> DbResult<u64> {
        let (v, n) = read_varint(&self.data[self.pos..])?;
        self.pos += n;
        Ok(v)
    }
    fn take(&mut self, n: usize) -> DbResult<&'a [u8]> {
        if self.pos + n > self.data.len() {
            return Err(DbError::Storage("page truncated".into()));
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
}

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
        let next = u32::from_le_bytes(page[1..5].try_into().expect("4"));
        let len = u32::from_le_bytes(page[5..9].try_into().expect("4")) as usize;
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
    while id != 0 {
        let next = {
            let page = pager.get(id)?;
            u32::from_le_bytes(page[1..5].try_into().expect("4"))
        };
        pager.free_page(id)?;
        id = next;
    }
    Ok(())
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
// Insert (recursive, with splits)
// ---------------------------------------------------------------------

enum InsertKey {
    Rowid(i64, TableCell),
    Index(Vec<u8>),
}

enum Split {
    None,
    /// (separator, new right sibling) — for table trees the separator is
    /// the max rowid of the left node; for index trees the max key.
    TableAt(i64, PageId),
    IndexAt(Vec<u8>, PageId),
}

/// Insert (or replace) `rowid → payload` in a table tree.
pub fn table_insert(pager: &mut Pager, root: PageId, rowid: i64, payload: &[u8]) -> DbResult<()> {
    let cell = make_cell(pager, rowid, payload)?;
    match insert_rec(pager, root, InsertKey::Rowid(rowid, cell))? {
        Split::None => Ok(()),
        split => split_root(pager, root, split),
    }
}

/// Largest supported index key (a node must hold at least two keys).
pub const MAX_INDEX_KEY: usize = 1500;

/// Insert a key into an index tree. Returns false if the key was already
/// present (duplicate).
pub fn index_insert(pager: &mut Pager, root: PageId, key: Vec<u8>) -> DbResult<bool> {
    if key.len() > MAX_INDEX_KEY {
        return Err(DbError::Unsupported(format!(
            "index key of {} bytes exceeds the {MAX_INDEX_KEY}-byte limit",
            key.len()
        )));
    }
    // Duplicate check first (full key incl. rowid is unique by
    // construction; uniqueness constraints check the prefix upstream).
    match insert_rec(pager, root, InsertKey::Index(key))? {
        Split::None => Ok(true),
        split => {
            split_root(pager, root, split)?;
            Ok(true)
        }
    }
}

/// When the root splits, keep the root page id stable: move the old root's
/// content to a fresh page and make the root an interior node.
fn split_root(pager: &mut Pager, root: PageId, split: Split) -> DbResult<()> {
    let old = load(pager, root)?;
    let left = pager.allocate()?;
    store(pager, left, &old)?;
    let new_root = match split {
        Split::TableAt(sep, right) => Node::TableInterior {
            children: vec![left, right],
            keys: vec![sep],
        },
        Split::IndexAt(sep, right) => Node::IndexInterior {
            children: vec![left, right],
            keys: vec![sep],
        },
        Split::None => unreachable!(),
    };
    store(pager, root, &new_root)
}

#[allow(clippy::too_many_lines)]
fn insert_rec(pager: &mut Pager, page: PageId, key: InsertKey) -> DbResult<Split> {
    let mut node = load(pager, page)?;
    match (&mut node, key) {
        (Node::TableLeaf { cells }, InsertKey::Rowid(rowid, cell)) => {
            match cells.binary_search_by_key(&rowid, |c| c.rowid) {
                Ok(i) => {
                    // Replace: free the old overflow chain first.
                    if cells[i].overflow_len > 0 {
                        let of = cells[i].overflow;
                        free_overflow(pager, of)?;
                    }
                    cells[i] = cell;
                }
                Err(i) => cells.insert(i, cell),
            }
            finish_leaf(pager, page, node)
        }
        (Node::IndexLeaf { keys }, InsertKey::Index(key)) => {
            match keys.binary_search(&key) {
                Ok(_) => return Ok(Split::None), // exact duplicate: no-op
                Err(i) => keys.insert(i, key),
            }
            finish_leaf(pager, page, node)
        }
        (Node::TableInterior { children, keys }, InsertKey::Rowid(rowid, cell)) => {
            let idx = keys.partition_point(|k| *k < rowid);
            let child = children[idx];
            let split = insert_rec(pager, child, InsertKey::Rowid(rowid, cell))?;
            if let Split::TableAt(sep, right) = split {
                keys.insert(idx, sep);
                children.insert(idx + 1, right);
                return finish_interior(pager, page, node);
            }
            // Maintain separator if we inserted past the subtree max.
            if idx < keys.len() && keys[idx] < rowid {
                keys[idx] = rowid;
                store(pager, page, &node)?;
            }
            Ok(Split::None)
        }
        (Node::IndexInterior { children, keys }, InsertKey::Index(key)) => {
            let idx = keys.partition_point(|k| k.as_slice() < key.as_slice());
            let child = children[idx];
            let need_sep_update = idx < keys.len() && keys[idx] < key;
            let key_clone = key.clone();
            let split = insert_rec(pager, child, InsertKey::Index(key))?;
            if let Split::IndexAt(sep, right) = split {
                keys.insert(idx, sep);
                children.insert(idx + 1, right);
                return finish_interior(pager, page, node);
            }
            if need_sep_update {
                keys[idx] = key_clone;
                store(pager, page, &node)?;
            }
            Ok(Split::None)
        }
        _ => Err(DbError::Storage("tree type mismatch".into())),
    }
}

fn finish_leaf(pager: &mut Pager, page: PageId, mut node: Node) -> DbResult<Split> {
    if node.encoded_size() <= PAGE_SIZE {
        store(pager, page, &node)?;
        return Ok(Split::None);
    }
    // Split roughly in half by byte size.
    match &mut node {
        Node::TableLeaf { cells } => {
            let cut = split_point(cells.iter().map(|c| 24 + c.local.len()));
            let right_cells = cells.split_off(cut);
            let sep = cells.last().expect("non-empty left").rowid;
            let right = pager.allocate()?;
            store(pager, right, &Node::TableLeaf { cells: right_cells })?;
            store(pager, page, &node)?;
            Ok(Split::TableAt(sep, right))
        }
        Node::IndexLeaf { keys } => {
            let cut = split_point(keys.iter().map(|k| 5 + k.len()));
            let right_keys = keys.split_off(cut);
            let sep = keys.last().expect("non-empty left").clone();
            let right = pager.allocate()?;
            store(pager, right, &Node::IndexLeaf { keys: right_keys })?;
            store(pager, page, &node)?;
            Ok(Split::IndexAt(sep, right))
        }
        _ => unreachable!(),
    }
}

fn finish_interior(pager: &mut Pager, page: PageId, mut node: Node) -> DbResult<Split> {
    if node.encoded_size() <= PAGE_SIZE {
        store(pager, page, &node)?;
        return Ok(Split::None);
    }
    match &mut node {
        Node::TableInterior { children, keys } => {
            let mid = keys.len() / 2;
            let sep = keys[mid];
            let right_keys = keys.split_off(mid + 1);
            keys.pop(); // the separator moves up
            let right_children = children.split_off(mid + 1);
            let right = pager.allocate()?;
            store(
                pager,
                right,
                &Node::TableInterior {
                    children: right_children,
                    keys: right_keys,
                },
            )?;
            store(pager, page, &node)?;
            Ok(Split::TableAt(sep, right))
        }
        Node::IndexInterior { children, keys } => {
            let mid = keys.len() / 2;
            let sep = keys[mid].clone();
            let right_keys = keys.split_off(mid + 1);
            keys.pop();
            let right_children = children.split_off(mid + 1);
            let right = pager.allocate()?;
            store(
                pager,
                right,
                &Node::IndexInterior {
                    children: right_children,
                    keys: right_keys,
                },
            )?;
            store(pager, page, &node)?;
            Ok(Split::IndexAt(sep, right))
        }
        _ => unreachable!(),
    }
}

fn split_point(sizes: impl Iterator<Item = usize>) -> usize {
    let sizes: Vec<usize> = sizes.collect();
    let total: usize = sizes.iter().sum();
    let mut acc = 0;
    for (i, s) in sizes.iter().enumerate() {
        acc += s;
        if acc >= total / 2 {
            return (i + 1).min(sizes.len() - 1).max(1);
        }
    }
    sizes.len() / 2
}

// ---------------------------------------------------------------------
// Lookup / delete
// ---------------------------------------------------------------------

/// Fetch the record for `rowid`, if present.
pub fn table_get(pager: &mut Pager, root: PageId, rowid: i64) -> DbResult<Option<Vec<u8>>> {
    let mut page = root;
    loop {
        let node = load(pager, page)?;
        match node {
            Node::TableLeaf { cells } => {
                return match cells.binary_search_by_key(&rowid, |c| c.rowid) {
                    Ok(i) => Ok(Some(cell_payload(pager, &cells[i])?)),
                    Err(_) => Ok(None),
                };
            }
            Node::TableInterior { children, keys } => {
                let idx = keys.partition_point(|k| *k < rowid);
                page = children[idx];
            }
            _ => return Err(DbError::Storage("not a table tree".into())),
        }
    }
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
    let mut path = Vec::new();
    let mut page = root;
    loop {
        let mut node = load(pager, page)?;
        match &mut node {
            Node::TableLeaf { cells } => {
                let Ok(i) = cells.binary_search_by_key(&rowid, |c| c.rowid) else {
                    return Ok(false);
                };
                if cells[i].overflow_len > 0 {
                    let of = cells[i].overflow;
                    free_overflow(pager, of)?;
                }
                cells.remove(i);
                if cells.is_empty() && !path.is_empty() {
                    unlink_emptied(pager, &path, page, &node)?;
                } else {
                    store(pager, page, &node)?;
                }
                return Ok(true);
            }
            Node::TableInterior { children, keys } => {
                let idx = keys.partition_point(|k| *k < rowid);
                path.push((page, idx));
                page = children[idx];
            }
            _ => return Err(DbError::Storage("not a table tree".into())),
        }
    }
}

/// Delete an exact key from an index tree; returns whether it existed.
/// Emptied leaves are unlinked and freed as in [`table_delete`].
pub fn index_delete(pager: &mut Pager, root: PageId, key: &[u8]) -> DbResult<bool> {
    let mut path = Vec::new();
    let mut page = root;
    loop {
        let mut node = load(pager, page)?;
        match &mut node {
            Node::IndexLeaf { keys } => {
                let Ok(i) = keys.binary_search_by(|k| k.as_slice().cmp(key)) else {
                    return Ok(false);
                };
                keys.remove(i);
                if keys.is_empty() && !path.is_empty() {
                    unlink_emptied(pager, &path, page, &node)?;
                } else {
                    store(pager, page, &node)?;
                }
                return Ok(true);
            }
            Node::IndexInterior { children, keys } => {
                let idx = keys.partition_point(|k| k.as_slice() < key);
                path.push((page, idx));
                page = children[idx];
            }
            _ => return Err(DbError::Storage("not an index tree".into())),
        }
    }
}

/// `page` — reached from the root through `path`, a list of (interior
/// page, child index taken) — has just lost its last entry: free it and
/// drop it from its parent, together with the separator that bounded it
/// (the last separator when it was the unbounded last child). A parent
/// left without children goes the same way, up to the root, whose page id
/// is referenced from the catalog and must stay: it becomes `empty_leaf`.
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

/// Largest rowid in the table (for auto-increment).
pub fn table_max_rowid(pager: &mut Pager, root: PageId) -> DbResult<Option<i64>> {
    let mut page = root;
    loop {
        let node = load(pager, page)?;
        match node {
            Node::TableLeaf { cells } => return Ok(cells.last().map(|c| c.rowid)),
            Node::TableInterior { children, .. } => {
                page = *children.last().expect("interior has children");
            }
            _ => return Err(DbError::Storage("not a table tree".into())),
        }
    }
}

/// Free every page of a tree (DROP TABLE / DROP INDEX).
pub fn free_tree(pager: &mut Pager, root: PageId) -> DbResult<()> {
    let node = load(pager, root)?;
    match node {
        Node::TableLeaf { cells } => {
            for c in cells {
                if c.overflow_len > 0 {
                    free_overflow(pager, c.overflow)?;
                }
            }
        }
        Node::TableInterior { children, .. } | Node::IndexInterior { children, .. } => {
            for child in children {
                free_tree(pager, child)?;
            }
        }
        Node::IndexLeaf { .. } => {}
    }
    pager.free_page(root)
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

    /// Statement execution collects its target rowids before it deletes or
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
        c.descend_leftmost(pager, root)?;
        Ok(c)
    }

    /// Cursor positioned at the first table entry with `rowid ≥ target`.
    pub fn seek_rowid(pager: &mut Pager, root: PageId, target: i64) -> DbResult<Self> {
        let mut c = Self::open(pager);
        let mut page = root;
        loop {
            let node = load(pager, page)?;
            match node {
                Node::TableInterior { ref children, ref keys } => {
                    let idx = keys.partition_point(|k| *k < target);
                    c.stack.push((page, idx));
                    page = children[idx];
                }
                Node::TableLeaf { ref cells } => {
                    let idx = cells.partition_point(|cell| cell.rowid < target);
                    let at_end = idx >= cells.len();
                    c.leaf = Some((page, node, idx));
                    if at_end {
                        c.advance_leaf(pager)?;
                    }
                    return Ok(c);
                }
                _ => return Err(DbError::Storage("not a table tree".into())),
            }
        }
    }

    /// Cursor positioned at the first index key ≥ `target`.
    pub fn seek_key(pager: &mut Pager, root: PageId, target: &[u8]) -> DbResult<Self> {
        let mut c = Self::open(pager);
        let mut page = root;
        loop {
            let node = load(pager, page)?;
            match node {
                Node::IndexInterior { ref children, ref keys } => {
                    let idx = keys.partition_point(|k| k.as_slice() < target);
                    c.stack.push((page, idx));
                    page = children[idx];
                }
                Node::IndexLeaf { ref keys } => {
                    let idx = keys.partition_point(|k| k.as_slice() < target);
                    let at_end = idx >= keys.len();
                    c.leaf = Some((page, node, idx));
                    if at_end {
                        c.advance_leaf(pager)?;
                    }
                    return Ok(c);
                }
                _ => return Err(DbError::Storage("not an index tree".into())),
            }
        }
    }

    fn descend_leftmost(&mut self, pager: &mut Pager, mut page: PageId) -> DbResult<()> {
        loop {
            let node = load(pager, page)?;
            if node.is_leaf() {
                self.leaf = Some((page, node, 0));
                // Skip empty leaves.
                if self.current_len() == 0 {
                    self.advance_leaf(pager)?;
                }
                return Ok(());
            }
            let child = match &node {
                Node::TableInterior { children, .. } | Node::IndexInterior { children, .. } => {
                    children[0]
                }
                _ => unreachable!(),
            };
            self.stack.push((page, 0));
            page = child;
        }
    }

    fn current_len(&self) -> usize {
        match &self.leaf {
            Some((_, Node::TableLeaf { cells }, _)) => cells.len(),
            Some((_, Node::IndexLeaf { keys }, _)) => keys.len(),
            _ => 0,
        }
    }

    /// Move to the first entry of the next non-empty leaf.
    fn advance_leaf(&mut self, pager: &mut Pager) -> DbResult<()> {
        self.assert_no_page_freed_since_open(pager);
        self.leaf = None;
        while let Some((page, idx)) = self.stack.pop() {
            let node = load(pager, page)?;
            let children = match &node {
                Node::TableInterior { children, .. } | Node::IndexInterior { children, .. } => {
                    children.clone()
                }
                _ => return Err(DbError::Storage("corrupt cursor stack".into())),
            };
            if idx + 1 < children.len() {
                self.stack.push((page, idx + 1));
                let mut child = children[idx + 1];
                // Descend leftmost from this child.
                loop {
                    let node = load(pager, child)?;
                    if node.is_leaf() {
                        let len = match &node {
                            Node::TableLeaf { cells } => cells.len(),
                            Node::IndexLeaf { keys } => keys.len(),
                            _ => 0,
                        };
                        self.leaf = Some((child, node, 0));
                        if len == 0 {
                            break; // empty leaf: continue the outer search
                        }
                        return Ok(());
                    }
                    let first = match &node {
                        Node::TableInterior { children, .. }
                        | Node::IndexInterior { children, .. } => children[0],
                        _ => unreachable!(),
                    };
                    self.stack.push((child, 0));
                    child = first;
                }
                // Fell through on empty leaf: keep popping.
                self.leaf = None;
            }
        }
        Ok(())
    }

    /// Whether the cursor points at an entry.
    #[must_use]
    pub fn valid(&self) -> bool {
        match &self.leaf {
            Some((_, Node::TableLeaf { cells }, idx)) => *idx < cells.len(),
            Some((_, Node::IndexLeaf { keys }, idx)) => *idx < keys.len(),
            _ => false,
        }
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
            let len = match node {
                Node::TableLeaf { cells } => cells.len(),
                Node::IndexLeaf { keys } => keys.len(),
                _ => 0,
            };
            if *idx < len {
                return Ok(true);
            }
            self.advance_leaf(pager)?;
            return Ok(self.valid());
        }
        Ok(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem_pager() -> Pager {
        let mut p = Pager::open_memory();
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

    /// A seeded insert/delete mix against a `BTreeMap`, with deletes in
    /// runs so that leaves and whole subtrees empty: scan order, point
    /// lookups and the shape invariant hold after every step.
    #[test]
    fn insert_delete_mix_matches_model_and_keeps_no_empty_leaf() {
        use rand::{Rng, SeedableRng};
        use std::collections::BTreeMap;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xB7EE);
        let mut p = mem_pager();
        let root = create_table_tree(&mut p).unwrap();
        let mut model: BTreeMap<i64, Vec<u8>> = BTreeMap::new();
        for step in 0..1500 {
            let at = rng.gen_range(0..400i64);
            if rng.gen_range(0..100) < 45 {
                // Insert a run of fat rows (a handful fill a leaf).
                for rowid in at..at + rng.gen_range(1..12) {
                    let payload = vec![rng.gen::<u8>(); rng.gen_range(1..900)];
                    table_insert(&mut p, root, rowid, &payload).unwrap();
                    model.insert(rowid, payload);
                }
            } else {
                for rowid in at..at + rng.gen_range(1..40) {
                    let existed = table_delete(&mut p, root, rowid).unwrap();
                    assert_eq!(existed, model.remove(&rowid).is_some(), "step {step} rowid {rowid}");
                }
            }
            assert_no_empty_node_below_root(&mut p, root);
            assert_eq!(scan_rowids(&mut p, root), model.keys().copied().collect::<Vec<_>>(), "step {step}");
            assert_eq!(table_max_rowid(&mut p, root).unwrap(), model.keys().next_back().copied());
            let probe = rng.gen_range(0..440i64);
            assert_eq!(table_get(&mut p, root, probe).unwrap(), model.get(&probe).cloned(), "step {step}");
        }
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
}
