//! Sandboxed linear memory.
//!
//! The Wasm sandbox guarantee the paper leans on (§IV: the two-way sandbox)
//! is enforced here: every access is bounds-checked against the current
//! memory size, and memory can only grow through `memory.grow` within the
//! declared limits. The 4 KiB *EPC page* access pattern used by the SGX
//! simulator is derived from addresses flowing through this module.

use crate::types::Limits;

/// Size of a WebAssembly page (64 KiB).
pub const PAGE_SIZE: usize = 65_536;

/// Granularity of dirty-page tracking: the 4 KiB EPC page, the same unit
/// the SGX paging simulator accounts in. One Wasm page spans 16 of these.
pub const DIRTY_PAGE_SIZE: usize = 4096;

/// Hard cap on memory size (4 GiB address space / 64 Ki pages).
pub const MAX_PAGES: u32 = 65_536;

/// Sentinel for "no page cached" in the last-dirty-page fast path.
const NO_PAGE: u64 = u64::MAX;

/// A linear memory instance.
///
/// Besides the bounds-checked store, this tracks a **dirty bitmap** at
/// 4 KiB granularity: every mutating entry point (`write`, `slice_mut`,
/// `fill`, `copy_within`) marks the pages it touches. Tracking lives here —
/// not in the dispatch loops' page-transition stream — because `Memory` is
/// the only choke point that sees *every* write: the interpreter's
/// transition events also fire on loads, and host/WASI writes (`fd_read`,
/// `random_get`) never pass through the dispatch loop at all. Virtual-cycle
/// meters are untouched by the bitmap, so metering stays bit-identical.
///
/// The bitmap is *relative to the last [`Memory::clear_dirty`] (or full
/// [`Memory::restore_from`])*: an embedder that clears it while the memory
/// matches some base image gets, at any later point, a superset of the
/// pages that differ from that image — which is what makes O(dirty-pages)
/// snapshot deltas and resets sound.
#[derive(Debug, Clone)]
pub struct Memory {
    data: Vec<u8>,
    limits: Limits,
    /// One bit per 4 KiB page: possibly modified since the last
    /// `clear_dirty`. Sized to cover `data` exactly.
    dirty: Vec<u64>,
    /// Last page marked dirty — consecutive stores to the same page (the
    /// overwhelmingly common pattern) skip the bitmap update entirely.
    last_dirty: u64,
}

/// Bitmap words needed to cover `pages` 4 KiB pages.
#[inline]
fn dirty_words(pages: usize) -> usize {
    pages.div_ceil(64)
}

impl Memory {
    /// Allocate a memory with the given limits.
    #[must_use]
    pub fn new(limits: Limits) -> Self {
        let pages = limits.min.min(MAX_PAGES);
        let bytes = pages as usize * PAGE_SIZE;
        Self {
            data: vec![0; bytes],
            limits,
            dirty: vec![0; dirty_words(bytes / DIRTY_PAGE_SIZE)],
            last_dirty: NO_PAGE,
        }
    }

    /// Mark the 4 KiB pages covering `[start, start + len)` dirty. The
    /// caller guarantees the range is in bounds (it just bounds-checked the
    /// access).
    #[inline]
    fn mark_dirty(&mut self, start: usize, len: usize) {
        if len == 0 {
            return;
        }
        let first = (start / DIRTY_PAGE_SIZE) as u64;
        let last = ((start + len - 1) / DIRTY_PAGE_SIZE) as u64;
        if first == self.last_dirty && last == first {
            return;
        }
        self.last_dirty = first;
        for p in first..=last {
            if let Some(word) = self.dirty.get_mut((p / 64) as usize) {
                *word |= 1 << (p % 64);
            }
        }
    }

    /// The declared limits.
    #[must_use]
    pub fn limits(&self) -> Limits {
        self.limits
    }

    /// Borrow the full backing store (snapshot comparison, full deltas).
    #[must_use]
    pub(crate) fn raw_data(&self) -> &[u8] {
        &self.data
    }

    /// The most pages this memory may ever hold: the declared maximum,
    /// capped at the 4 GiB address space.
    fn max_pages(&self) -> u32 {
        self.limits.max.unwrap_or(MAX_PAGES).min(MAX_PAGES)
    }

    /// Current size in pages.
    #[must_use]
    pub fn size_pages(&self) -> u32 {
        (self.data.len() / PAGE_SIZE) as u32
    }

    /// Current size in bytes.
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        self.data.len()
    }

    /// Grow by `delta` pages. Returns the previous size in pages, or `None`
    /// if the growth exceeds the limits (the Wasm `-1` result).
    pub fn grow(&mut self, delta: u32) -> Option<u32> {
        let old = self.size_pages();
        let new = old.checked_add(delta)?;
        if new > self.max_pages() {
            return None;
        }
        self.data.resize(new as usize * PAGE_SIZE, 0);
        // Fresh pages are zeroed and start *clean*: against a shorter base
        // image they are handled by the recorded memory length, not the
        // bitmap (restoring to the base truncates them away).
        self.dirty
            .resize(dirty_words(self.data.len() / DIRTY_PAGE_SIZE), 0);
        Some(old)
    }

    /// Read `N` bytes at `addr` (+`offset`), bounds-checked.
    pub fn read<const N: usize>(&self, addr: u32, offset: u32) -> Option<[u8; N]> {
        let start = effective_addr(addr, offset, N, self.data.len())?;
        let mut out = [0u8; N];
        out.copy_from_slice(&self.data[start..start + N]);
        Some(out)
    }

    /// Write `N` bytes at `addr` (+`offset`), bounds-checked.
    pub fn write<const N: usize>(&mut self, addr: u32, offset: u32, bytes: [u8; N]) -> Option<()> {
        let start = effective_addr(addr, offset, N, self.data.len())?;
        self.data[start..start + N].copy_from_slice(&bytes);
        self.mark_dirty(start, N);
        Some(())
    }

    /// Borrow a byte range (used by host functions / WASI to read buffers).
    pub fn slice(&self, addr: u32, len: u32) -> Option<&[u8]> {
        let start = effective_addr(addr, 0, len as usize, self.data.len())?;
        Some(&self.data[start..start + len as usize])
    }

    /// Mutably borrow a byte range (used by WASI to fill buffers). The
    /// whole range is conservatively marked dirty — the borrower may write
    /// any of it.
    pub fn slice_mut(&mut self, addr: u32, len: u32) -> Option<&mut [u8]> {
        let start = effective_addr(addr, 0, len as usize, self.data.len())?;
        self.mark_dirty(start, len as usize);
        Some(&mut self.data[start..start + len as usize])
    }

    /// `memory.copy` semantics (overlap-safe). Returns `None` on OOB.
    pub fn copy_within(&mut self, dst: u32, src: u32, len: u32) -> Option<()> {
        let n = len as usize;
        let d = effective_addr(dst, 0, n, self.data.len())?;
        let s = effective_addr(src, 0, n, self.data.len())?;
        self.data.copy_within(s..s + n, d);
        self.mark_dirty(d, n);
        Some(())
    }

    /// `memory.fill` semantics. Returns `None` on OOB.
    pub fn fill(&mut self, dst: u32, value: u8, len: u32) -> Option<()> {
        let n = len as usize;
        let d = effective_addr(dst, 0, n, self.data.len())?;
        self.data[d..d + n].fill(value);
        self.mark_dirty(d, n);
        Some(())
    }

    /// Restore this memory to the exact state of `image` (size and bytes),
    /// reusing the existing allocation when the sizes match. Used by the
    /// instance-recycling path: replaying a post-instantiation snapshot is a
    /// straight `memcpy` instead of a fresh zeroed allocation plus
    /// data-segment copies.
    ///
    /// The dirty bitmap is **cleared**: after a full restore, no page
    /// differs from `image`, making it the new dirty-tracking base.
    pub fn restore_from(&mut self, image: &Memory) {
        self.limits = image.limits;
        if self.data.len() == image.data.len() {
            self.data.copy_from_slice(&image.data);
        } else {
            self.data.clear();
            self.data.extend_from_slice(&image.data);
        }
        self.reset_dirty_for_len();
    }

    /// Restore to the state of `image` touching **only dirty pages**: the
    /// O(dirty) counterpart of [`Memory::restore_from`], valid whenever the
    /// bitmap was last cleared while this memory matched `image` (the
    /// bitmap then over-approximates the pages that differ). Pages the
    /// memory grew past `image`'s size are simply truncated away. Falls
    /// back to a full restore if this memory is smaller than the image
    /// (cannot happen in the grow-only Wasm lifecycle, but stays correct).
    pub fn restore_from_dirty(&mut self, image: &Memory) {
        if self.data.len() < image.data.len() {
            self.restore_from(image);
            return;
        }
        self.limits = image.limits;
        self.data.truncate(image.data.len());
        let n_pages = self.data.len() / DIRTY_PAGE_SIZE;
        for w in 0..self.dirty.len() {
            let mut bits = self.dirty[w];
            while bits != 0 {
                let p = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if p >= n_pages {
                    break;
                }
                let off = p * DIRTY_PAGE_SIZE;
                self.data[off..off + DIRTY_PAGE_SIZE]
                    .copy_from_slice(&image.data[off..off + DIRTY_PAGE_SIZE]);
            }
        }
        self.reset_dirty_for_len();
    }

    /// Clear the dirty bitmap, making the current contents the new
    /// reference point for [`Memory::dirty_pages`] /
    /// [`Memory::restore_from_dirty`].
    pub fn clear_dirty(&mut self) {
        self.reset_dirty_for_len();
    }

    /// Zero the bitmap and re-size it to cover `data` exactly.
    fn reset_dirty_for_len(&mut self) {
        let words = dirty_words(self.data.len() / DIRTY_PAGE_SIZE);
        self.dirty.clear();
        self.dirty.resize(words, 0);
        self.last_dirty = NO_PAGE;
    }

    /// Number of 4 KiB pages currently marked dirty.
    #[must_use]
    pub fn dirty_page_count(&self) -> u64 {
        let n_pages = self.data.len() / DIRTY_PAGE_SIZE;
        self.dirty
            .iter()
            .enumerate()
            .map(|(w, bits)| {
                // Mask off bitmap slack beyond the last real page.
                let valid = n_pages.saturating_sub(w * 64).min(64);
                let mask = if valid == 64 { !0u64 } else { (1u64 << valid) - 1 };
                (bits & mask).count_ones() as u64
            })
            .sum()
    }

    /// Ascending indices of the dirty 4 KiB pages.
    #[must_use]
    pub fn dirty_pages(&self) -> Vec<u64> {
        let n_pages = self.data.len() / DIRTY_PAGE_SIZE;
        let mut out = Vec::new();
        for (w, &word) in self.dirty.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let p = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if p >= n_pages {
                    break;
                }
                out.push(p as u64);
            }
        }
        out
    }

    /// The contents of 4 KiB page `page`, if fully in bounds.
    #[must_use]
    pub(crate) fn dirty_page_bytes(&self, page: u64) -> Option<&[u8]> {
        let off = usize::try_from(page).ok()?.checked_mul(DIRTY_PAGE_SIZE)?;
        self.data.get(off..off + DIRTY_PAGE_SIZE)
    }

    /// Resize to exactly `len` bytes (delta application). New bytes are
    /// zeroed and clean — matching the zeroed pages a real grow would have
    /// produced. `None`, touching nothing, unless `len` is a whole number
    /// of Wasm pages within the declared limits: a length no legal growth
    /// could have reached is refused, not allocated.
    pub(crate) fn resize_raw(&mut self, len: u64) -> Option<()> {
        let pages = u32::try_from(len / PAGE_SIZE as u64).ok()?;
        if !len.is_multiple_of(PAGE_SIZE as u64) || pages < self.limits.min || pages > self.max_pages() {
            return None;
        }
        self.data.resize(len as usize, 0);
        self.dirty
            .resize(dirty_words(self.data.len() / DIRTY_PAGE_SIZE), 0);
        // A shrink may have dropped the cached page's bit.
        self.last_dirty = NO_PAGE;
        Some(())
    }
}

/// Compute the effective start address of an access, checking bounds.
#[inline]
fn effective_addr(addr: u32, offset: u32, width: usize, mem_len: usize) -> Option<usize> {
    let start = u64::from(addr) + u64::from(offset);
    let end = start + width as u64;
    if end > mem_len as u64 {
        return None;
    }
    Some(start as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_read_write() {
        let mut m = Memory::new(Limits::at_least(1));
        m.write::<4>(100, 0, 0xDEAD_BEEFu32.to_le_bytes()).unwrap();
        assert_eq!(
            u32::from_le_bytes(m.read::<4>(100, 0).unwrap()),
            0xDEAD_BEEF
        );
        assert_eq!(u32::from_le_bytes(m.read::<4>(96, 4).unwrap()), 0xDEAD_BEEF);
    }

    #[test]
    fn bounds_checked() {
        let mut m = Memory::new(Limits::at_least(1));
        assert!(m.read::<4>(PAGE_SIZE as u32 - 4, 0).is_some());
        assert!(m.read::<4>(PAGE_SIZE as u32 - 3, 0).is_none());
        assert!(m.write::<8>(PAGE_SIZE as u32 - 7, 0, [0; 8]).is_none());
        // Offset + addr overflow must not wrap.
        assert!(m.read::<1>(u32::MAX, u32::MAX).is_none());
    }

    #[test]
    fn grow_respects_max() {
        let mut m = Memory::new(Limits::bounded(1, 3));
        assert_eq!(m.grow(1), Some(1));
        assert_eq!(m.size_pages(), 2);
        assert_eq!(m.grow(2), None, "would exceed max");
        assert_eq!(m.grow(1), Some(2));
        assert_eq!(m.grow(1), None);
        assert_eq!(m.size_pages(), 3);
    }

    #[test]
    fn grown_memory_zeroed() {
        let mut m = Memory::new(Limits::at_least(0));
        assert_eq!(m.size_pages(), 0);
        assert!(m.read::<1>(0, 0).is_none());
        m.grow(1).unwrap();
        assert_eq!(m.read::<1>(0, 0), Some([0]));
    }

    #[test]
    fn copy_overlapping() {
        let mut m = Memory::new(Limits::at_least(1));
        m.slice_mut(0, 8).unwrap().copy_from_slice(b"abcdefgh");
        m.copy_within(2, 0, 6).unwrap();
        assert_eq!(m.slice(0, 8).unwrap(), b"ababcdef");
    }

    #[test]
    fn dirty_tracking_marks_every_write_path() {
        let mut m = Memory::new(Limits::at_least(2));
        m.clear_dirty();
        assert_eq!(m.dirty_page_count(), 0);
        m.write::<4>(10, 0, [1; 4]).unwrap();
        assert_eq!(m.dirty_pages(), vec![0]);
        // A store spanning a 4 KiB boundary marks both pages.
        m.write::<8>(4092, 0, [2; 8]).unwrap();
        assert_eq!(m.dirty_pages(), vec![0, 1]);
        m.slice_mut(DIRTY_PAGE_SIZE as u32 * 3, 8).unwrap()[0] = 9;
        m.fill(DIRTY_PAGE_SIZE as u32 * 5, 0xAB, 1).unwrap();
        m.copy_within(DIRTY_PAGE_SIZE as u32 * 7, 0, 4).unwrap();
        assert_eq!(m.dirty_pages(), vec![0, 1, 3, 5, 7]);
    }

    #[test]
    fn restore_from_dirty_matches_full_restore() {
        let base = {
            let mut m = Memory::new(Limits::at_least(2));
            m.fill(100, 0x5A, 300).unwrap();
            m
        };
        let mut m = base.clone();
        m.clear_dirty();
        m.write::<8>(40_000, 0, [7; 8]).unwrap();
        m.fill(70_000, 3, 2_000).unwrap();
        assert!(m.dirty_page_count() > 0);
        m.restore_from_dirty(&base);
        assert_eq!(m.raw_data(), base.raw_data());
        assert_eq!(m.dirty_page_count(), 0, "restore re-bases the bitmap");
    }

    #[test]
    fn restore_from_dirty_truncates_grown_memory() {
        let base = Memory::new(Limits::bounded(1, 4));
        let mut m = base.clone();
        m.clear_dirty();
        m.grow(2).unwrap();
        m.write::<4>(2 * PAGE_SIZE as u32, 0, [9; 4]).unwrap();
        m.restore_from_dirty(&base);
        assert_eq!(m.size_pages(), 1);
        assert_eq!(m.raw_data(), base.raw_data());
    }

    #[test]
    fn writes_after_a_shrinking_resize_are_marked_dirty() {
        let mut m = Memory::new(Limits::bounded(4, 5));
        m.grow(1).unwrap();
        // 4 KiB page 70 lives in the second bitmap word, which the shrink
        // below drops along with the page.
        let addr = 70 * DIRTY_PAGE_SIZE as u32;
        m.write::<4>(addr, 0, [1; 4]).unwrap();
        m.resize_raw(4 * PAGE_SIZE as u64).unwrap();
        m.grow(1).unwrap();
        m.write::<4>(addr, 0, [2; 4]).unwrap();
        assert_eq!(m.dirty_pages(), vec![70]);
    }

    #[test]
    fn fill_and_oob_fill() {
        let mut m = Memory::new(Limits::at_least(1));
        m.fill(10, 0xAA, 4).unwrap();
        assert_eq!(m.slice(9, 6).unwrap(), &[0, 0xAA, 0xAA, 0xAA, 0xAA, 0]);
        assert!(m.fill(PAGE_SIZE as u32 - 1, 0xBB, 2).is_none());
    }
}
