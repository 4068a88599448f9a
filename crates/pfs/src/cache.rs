//! The cache of decrypted nodes: data nodes in an exact LRU, Merkle nodes
//! resident.
//!
//! Mirrors the IPFS node cache the paper profiles: each cached node owns
//! *two* 4 KiB buffers (ciphertext and plaintext) plus metadata — the
//! structure whose clearing dominates random-read time in stock IPFS
//! (§V-F: "at least two pages must be cleared ... when a node is removed,
//! the plaintext buffer is cleared as well").
//!
//! Unlike the SDK, which counts MHT nodes among its 48 and evicts them like
//! data, an L1 or L2 node stays here from its first verified load until the
//! file is closed; the capacity and the LRU govern data nodes only. So every
//! cached data node has its parent resident, and writing one back never
//! loads a node. The resident set is the file's own tree — one L2 node per
//! 96 data nodes, one L1 node per 9 600, ≈ 2 % of the file counting both
//! buffers (70 nodes, 560 KiB, for a 27 MB table). Like the LRU, it is not
//! charged to the EPC model.
//!
//! Buffer boxes are pooled across allocations so that the Intel-mode
//! clearing cost is real work on recycled dirty memory, exactly like the
//! SDK's allocator reuse.

use std::collections::HashMap;

use crate::node;
use crate::NODE_SIZE;

/// A decrypted node held in enclave memory.
pub struct CachedNode {
    /// Decrypted contents.
    pub plaintext: Box<[u8; NODE_SIZE]>,
    /// Ciphertext staging buffer (kept per node, as in the SDK).
    pub ciphertext: Box<[u8; NODE_SIZE]>,
    /// Needs flushing before eviction.
    pub dirty: bool,
}

/// Recycled buffer pair.
struct PooledBufs {
    plaintext: Box<[u8; NODE_SIZE]>,
    ciphertext: Box<[u8; NODE_SIZE]>,
}

const NIL: u32 = u32::MAX;

struct Slot {
    phys: u64,
    node: Option<CachedNode>,
    prev: u32,
    next: u32,
}

/// Node cache keyed by physical node index: an exact LRU over data nodes,
/// and the Merkle nodes beside it, never evicted.
pub struct NodeCache {
    capacity: usize,
    map: HashMap<u64, u32>,
    slots: Vec<Slot>,
    free: Vec<u32>,
    head: u32,
    tail: u32,
    /// L1 and L2 nodes, off the LRU: resident until the file is closed.
    merkle: HashMap<u64, CachedNode>,
    pool: Vec<PooledBufs>,
}

/// Whether `phys` is a data node (LRU) rather than a Merkle node (resident).
fn is_data(phys: u64) -> bool {
    node::level(phys) == 0
}

impl NodeCache {
    /// Cache holding up to `capacity` data nodes (≥ 1: a read or write
    /// works on one data node at a time) plus every Merkle node loaded.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            map: HashMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            merkle: HashMap::new(),
            pool: Vec::new(),
        }
    }

    /// Number of cached nodes, Merkle nodes included.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len() + self.merkle.len()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Capacity in data nodes.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Whether inserting a data node would require eviction first.
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.map.len() >= self.capacity
    }

    /// Access a node, refreshing a data node's recency.
    pub fn get(&mut self, phys: u64) -> Option<&mut CachedNode> {
        if !is_data(phys) {
            return self.merkle.get_mut(&phys);
        }
        let idx = *self.map.get(&phys)?;
        self.move_to_front(idx);
        self.slots[idx as usize].node.as_mut()
    }

    /// Whether the node is cached (no recency update).
    #[must_use]
    pub fn contains(&self, phys: u64) -> bool {
        if is_data(phys) {
            self.map.contains_key(&phys)
        } else {
            self.merkle.contains_key(&phys)
        }
    }

    /// Take a buffer pair from the pool (or allocate zeroed ones). The
    /// caller decides whether to clear them (Intel mode does, §V-F).
    pub fn alloc_bufs(&mut self) -> (Box<[u8; NODE_SIZE]>, Box<[u8; NODE_SIZE]>) {
        match self.pool.pop() {
            Some(p) => (p.plaintext, p.ciphertext),
            None => (
                vec![0u8; NODE_SIZE].into_boxed_slice().try_into().expect("size"),
                vec![0u8; NODE_SIZE].into_boxed_slice().try_into().expect("size"),
            ),
        }
    }

    /// Return a node's buffers to the pool (after eviction bookkeeping).
    pub fn recycle(&mut self, node: CachedNode) {
        self.pool.push(PooledBufs {
            plaintext: node.plaintext,
            ciphertext: node.ciphertext,
        });
    }

    /// Insert a node. A data node needs a free place (evict first); a
    /// Merkle node always has one.
    ///
    /// # Panics
    /// Panics if a data node is inserted into a full cache, or if `phys`
    /// is already present.
    pub fn insert(&mut self, phys: u64, node: CachedNode) {
        assert!(!self.contains(phys), "duplicate insert");
        if !is_data(phys) {
            self.merkle.insert(phys, node);
            return;
        }
        assert!(!self.is_full(), "evict before inserting");
        let idx = if let Some(idx) = self.free.pop() {
            self.slots[idx as usize] = Slot {
                phys,
                node: Some(node),
                prev: NIL,
                next: NIL,
            };
            idx
        } else {
            self.slots.push(Slot {
                phys,
                node: Some(node),
                prev: NIL,
                next: NIL,
            });
            (self.slots.len() - 1) as u32
        };
        self.push_front(idx);
        self.map.insert(phys, idx);
    }

    /// Remove and return the least-recently-used data node.
    pub fn pop_lru(&mut self) -> Option<(u64, CachedNode)> {
        let tail = self.tail;
        if tail == NIL {
            return None;
        }
        Some(self.remove_idx(tail))
    }

    /// Remove a specific node.
    pub fn remove(&mut self, phys: u64) -> Option<(u64, CachedNode)> {
        if !is_data(phys) {
            return self.merkle.remove(&phys).map(|n| (phys, n));
        }
        let idx = *self.map.get(&phys)?;
        Some(self.remove_idx(idx))
    }

    /// Physical indices of the dirty nodes of one tree level
    /// ([`node::level`]), in ascending order: the order a flush seals them.
    #[must_use]
    pub fn dirty_nodes(&self, level: u8) -> Vec<u64> {
        let mut dirty: Vec<u64> = if level == 0 {
            self.map
                .iter()
                .filter(|(_, &idx)| self.slot_dirty(idx))
                .map(|(&phys, _)| phys)
                .collect()
        } else {
            self.merkle
                .iter()
                .filter(|(&phys, n)| n.dirty && node::level(phys) == level)
                .map(|(&phys, _)| phys)
                .collect()
        };
        dirty.sort_unstable();
        dirty
    }

    /// Whether any cached node is dirty.
    #[must_use]
    pub fn has_dirty(&self) -> bool {
        self.map.values().any(|&idx| self.slot_dirty(idx))
            || self.merkle.values().any(|n| n.dirty)
    }

    fn slot_dirty(&self, idx: u32) -> bool {
        self.slots[idx as usize]
            .node
            .as_ref()
            .is_some_and(|n| n.dirty)
    }

    fn remove_idx(&mut self, idx: u32) -> (u64, CachedNode) {
        self.unlink(idx);
        let slot = &mut self.slots[idx as usize];
        let phys = slot.phys;
        let node = slot.node.take().expect("occupied slot");
        self.map.remove(&phys);
        self.free.push(idx);
        (phys, node)
    }

    fn push_front(&mut self, idx: u32) {
        let old = self.head;
        self.slots[idx as usize].prev = NIL;
        self.slots[idx as usize].next = old;
        if old != NIL {
            self.slots[old as usize].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    fn unlink(&mut self, idx: u32) {
        let (prev, next) = {
            let s = &self.slots[idx as usize];
            (s.prev, s.next)
        };
        if prev != NIL {
            self.slots[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slots[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn move_to_front(&mut self, idx: u32) {
        if self.head == idx {
            return;
        }
        self.unlink(idx);
        self.push_front(idx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{data_phys, l1_phys, l2_phys};

    fn node(cache: &mut NodeCache, fill: u8) -> CachedNode {
        let (mut pt, ct) = cache.alloc_bufs();
        pt.fill(fill);
        CachedNode {
            plaintext: pt,
            ciphertext: ct,
            dirty: false,
        }
    }

    #[test]
    fn insert_get() {
        let mut c = NodeCache::new(4);
        let n = node(&mut c, 7);
        c.insert(10, n);
        assert_eq!(c.get(10).unwrap().plaintext[0], 7);
        assert!(c.get(11).is_none());
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn lru_order() {
        let mut c = NodeCache::new(4);
        for d in 0..4u64 {
            let n = node(&mut c, d as u8);
            c.insert(data_phys(d), n);
        }
        // Touch data node 0 so data node 1 becomes LRU.
        c.get(data_phys(0));
        let (phys, evicted) = c.pop_lru().unwrap();
        assert_eq!(phys, data_phys(1));
        c.recycle(evicted);
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn merkle_nodes_stay_off_the_lru() {
        let mut c = NodeCache::new(2);
        for phys in [l1_phys(0), l2_phys(0), l2_phys(1), l2_phys(2)] {
            let n = node(&mut c, 1);
            c.insert(phys, n);
        }
        assert!(!c.is_full(), "Merkle nodes take no data place");
        for d in 0..2u64 {
            let n = node(&mut c, 2);
            c.insert(data_phys(d), n);
        }
        assert!(c.is_full());
        assert_eq!(c.len(), 6);
        let (phys, _) = c.pop_lru().unwrap();
        assert_eq!(phys, data_phys(0));
        let (phys, _) = c.pop_lru().unwrap();
        assert_eq!(phys, data_phys(1));
        assert!(c.pop_lru().is_none(), "only data nodes are evicted");
        assert!(c.contains(l2_phys(2)));
        c.get(l2_phys(1)).unwrap().dirty = true;
        assert_eq!(c.dirty_nodes(1), vec![l2_phys(1)]);
        assert!(c.dirty_nodes(0).is_empty() && c.dirty_nodes(2).is_empty());
    }

    #[test]
    fn dirty_tracking() {
        let mut c = NodeCache::new(4);
        let mut n = node(&mut c, 0);
        n.dirty = true;
        c.insert(5, n);
        let n2 = node(&mut c, 0);
        c.insert(6, n2);
        assert!(c.has_dirty());
        assert_eq!(c.dirty_nodes(0), vec![5]);
        c.get(5).unwrap().dirty = false;
        assert!(c.dirty_nodes(0).is_empty());
        assert!(!c.has_dirty());
    }

    #[test]
    fn pool_recycles_buffers() {
        let mut c = NodeCache::new(4);
        let n = node(&mut c, 0xAA);
        c.insert(1, n);
        let (_, evicted) = c.remove(1).unwrap();
        c.recycle(evicted);
        // Next alloc returns the dirty buffer (not cleared by the pool).
        let (pt, _) = c.alloc_bufs();
        assert_eq!(pt[0], 0xAA, "pool must hand back dirty memory");
    }

    #[test]
    #[should_panic(expected = "evict before inserting")]
    fn insert_when_full_panics() {
        let mut c = NodeCache::new(4);
        for d in 0..5u64 {
            let n = node(&mut c, 0);
            c.insert(data_phys(d), n);
        }
    }
}
