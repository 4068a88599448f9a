//! Enclave Page Cache (EPC) simulation.
//!
//! The EPC is the scarce, encrypted physical memory pool backing all enclave
//! pages (§III-A). When the working set exceeds it, the SGX driver swaps
//! pages in and out with costly EWB/ELDU instructions; the paper's Figure 5
//! shows the resulting cliffs once the database outgrows ~93 MiB.
//!
//! The simulator keeps an exact LRU over 4 KiB page identifiers, fed by the
//! real access streams of the workloads (guest loads/stores, database page
//! cache touches, allocator growth), and charges swap cycle costs to the
//! enclave's [`SimClock`].

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::clock::SimClock;
use crate::costs;
use crate::fault::{FaultKind, FaultPlan};

/// Counters exposed for tests and reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EpcStats {
    /// Accesses to resident pages.
    pub hits: u64,
    /// Accesses that required loading the page (ELDU).
    pub faults: u64,
    /// Pages written back to make room (EWB).
    pub evictions: u64,
}

const NIL: u32 = u32::MAX;

#[derive(Clone, Copy)]
struct Node {
    page: u64,
    prev: u32,
    next: u32,
}

/// Exact-LRU page cache simulation.
pub struct Epc {
    limit_pages: usize,
    clock: SimClock,
    map: HashMap<u64, u32>,
    nodes: Vec<Node>,
    free: Vec<u32>,
    head: u32,
    tail: u32,
    stats: EpcStats,
    /// When disabled (SGX simulation mode), touches are free.
    pub enabled: bool,
}

impl Epc {
    /// Create an EPC simulation with a page budget and a clock to charge.
    #[must_use]
    pub fn new(limit_pages: usize, clock: SimClock) -> Self {
        Self {
            limit_pages: limit_pages.max(1),
            clock,
            map: HashMap::with_capacity(limit_pages.min(1 << 20)),
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            stats: EpcStats::default(),
            enabled: true,
        }
    }

    /// The page budget.
    #[must_use]
    pub fn limit_pages(&self) -> usize {
        self.limit_pages
    }

    /// Current resident page count.
    #[must_use]
    pub fn resident_pages(&self) -> usize {
        self.map.len()
    }

    /// Counters.
    #[must_use]
    pub fn stats(&self) -> EpcStats {
        self.stats
    }

    /// Reset counters (not residency).
    pub fn reset_stats(&mut self) {
        self.stats = EpcStats::default();
    }

    /// Record an access to `page`. Charges swap costs on faults.
    pub fn touch(&mut self, page: u64) {
        if !self.enabled {
            return;
        }
        if let Some(&idx) = self.map.get(&page) {
            self.stats.hits += 1;
            self.move_to_front(idx);
            return;
        }
        self.stats.faults += 1;
        self.clock.add_cycles(costs::PAGE_LOAD_CYCLES);
        if self.map.len() >= self.limit_pages {
            self.evict_lru();
        }
        let idx = self.alloc_node(page);
        self.push_front(idx);
        self.map.insert(page, idx);
    }

    /// Touch a contiguous range of pages (e.g. a buffer access).
    pub fn touch_range(&mut self, first_page: u64, n_pages: u64) {
        for p in first_page..first_page + n_pages {
            self.touch(p);
        }
    }

    /// An EPC allocation spike: the untrusted driver steals up to `n`
    /// resident pages, forcing EWB evictions (with the usual charges). The
    /// evicted pages fault back in as their owners touch them again —
    /// global-counter and cycle effects only, never guest-visible state.
    pub fn pressure_evict(&mut self, n: usize) {
        if !self.enabled {
            return;
        }
        for _ in 0..n {
            if self.map.is_empty() {
                return;
            }
            self.evict_lru();
        }
    }

    /// Drop a page from residency without charging (e.g. freed memory).
    pub fn discard(&mut self, page: u64) {
        if let Some(idx) = self.map.remove(&page) {
            self.unlink(idx);
            self.free.push(idx);
        }
    }

    fn evict_lru(&mut self) {
        let tail = self.tail;
        if tail == NIL {
            return;
        }
        let page = self.nodes[tail as usize].page;
        self.unlink(tail);
        self.map.remove(&page);
        self.free.push(tail);
        self.stats.evictions += 1;
        self.clock.add_cycles(costs::PAGE_EVICT_CYCLES);
    }

    fn alloc_node(&mut self, page: u64) -> u32 {
        if let Some(idx) = self.free.pop() {
            self.nodes[idx as usize] = Node {
                page,
                prev: NIL,
                next: NIL,
            };
            idx
        } else {
            self.nodes.push(Node {
                page,
                prev: NIL,
                next: NIL,
            });
            (self.nodes.len() - 1) as u32
        }
    }

    fn push_front(&mut self, idx: u32) {
        let old_head = self.head;
        self.nodes[idx as usize].prev = NIL;
        self.nodes[idx as usize].next = old_head;
        if old_head != NIL {
            self.nodes[old_head as usize].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    fn unlink(&mut self, idx: u32) {
        let Node { prev, next, .. } = self.nodes[idx as usize];
        if prev != NIL {
            self.nodes[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next as usize].prev = prev;
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

/// Shared interior of an [`EpcHandle`]: the exact-LRU under a [`Mutex`],
/// plus lock-free **stat mirrors** so snapshots and configuration never
/// take the residency lock.
struct EpcShared {
    /// The one physical pool. Residency is a global resource (all enclave
    /// threads contend for the same 93 MiB on real hardware), so the LRU
    /// itself stays global — but it is only locked in *batches* (see
    /// [`EpcHandle::fold`]), never per page transition.
    epc: Mutex<Epc>,
    /// Resettable counter mirrors, updated under the lock by whoever
    /// replays touches, read without it. `stats()` therefore cannot stall
    /// (or be stalled by) a shard mid-fold.
    hits: AtomicU64,
    faults: AtomicU64,
    evictions: AtomicU64,
    resident: AtomicU64,
    /// Charging enabled? Checked lock-free on every touch path so SGX
    /// simulation mode skips the lock entirely, and so bench setup can
    /// flip it while workers run without grabbing the residency mutex.
    enabled: AtomicBool,
    /// Immutable page budget (mirrored out of the `Epc`).
    limit_pages: usize,
    /// Instrumentation: how many times the residency mutex was acquired.
    /// The contention regression test asserts this is O(1) per warm
    /// invocation — batched, not O(page transitions).
    lock_acquisitions: AtomicU64,
    /// Installed fault plan (chaos testing): folds consult it for EPC
    /// allocation spikes. Set once at deployment build time.
    fault_plan: OnceLock<Arc<FaultPlan>>,
}

/// Shared handle to an EPC simulation.
///
/// PR 5's handle was `Arc<Mutex<Epc>>` locked on **every page transition**
/// of every guest; with 8 shards feeding one pool the lock (and its cache
/// line) serialised the shards — the top suspect behind `BENCH_fig8`'s
/// flat wall throughput (ROADMAP open item 1). The fix keeps the *one*
/// global exact-LRU (residency semantics unchanged) but moves the hot path
/// off the lock:
///
/// * guests **buffer** their page-transition stream shard-locally (see
///   `twine-core`'s `EpcSink`) and [`fold`](Self::fold) it in one lock
///   acquisition per invocation — the replay applies the identical touch
///   sequence, so faults, evictions and cycle charges are bit-identical
///   to the eager implementation for any serial schedule;
/// * [`stats`](Self::stats), [`resident_pages`](Self::resident_pages),
///   [`set_enabled`](Self::set_enabled) and
///   [`reset_stats`](Self::reset_stats) are served from lock-free mirrors
///   so setup/reporting paths can never stall a mid-invocation shard.
///
/// The immediate [`touch`](Self::touch)/[`touch_range`](Self::touch_range)
/// API remains for single-threaded users (the fig5/fig7 baselines) where
/// an uncontended lock is cheap.
#[derive(Clone)]
pub struct EpcHandle(Arc<EpcShared>);

impl EpcHandle {
    /// Wrap an EPC. The handle's lock-free `enabled` flag takes over from
    /// the inner field (initialised from it), so later `set_enabled` calls
    /// gate all handle traffic without touching the lock.
    #[must_use]
    pub fn new(mut epc: Epc) -> Self {
        let enabled = epc.enabled;
        epc.enabled = true;
        Self(Arc::new(EpcShared {
            enabled: AtomicBool::new(enabled),
            limit_pages: epc.limit_pages(),
            resident: AtomicU64::new(epc.resident_pages() as u64),
            hits: AtomicU64::new(epc.stats().hits),
            faults: AtomicU64::new(epc.stats().faults),
            evictions: AtomicU64::new(epc.stats().evictions),
            lock_acquisitions: AtomicU64::new(0),
            fault_plan: OnceLock::new(),
            epc: Mutex::new(epc),
        }))
    }

    /// Install a fault plan (first install wins): folds will consult it
    /// for EPC allocation spikes.
    pub fn install_faults(&self, plan: Arc<FaultPlan>) {
        let _ = self.0.fault_plan.set(plan);
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Epc> {
        self.0.lock_acquisitions.fetch_add(1, Ordering::Relaxed);
        self.0
            .epc
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Replay `f` under the lock and fold the resulting stat deltas into
    /// the lock-free mirrors.
    fn with_epc(&self, f: impl FnOnce(&mut Epc)) {
        let mut epc = self.lock();
        let before = epc.stats();
        f(&mut epc);
        let after = epc.stats();
        self.0
            .hits
            .fetch_add(after.hits - before.hits, Ordering::Relaxed);
        self.0
            .faults
            .fetch_add(after.faults - before.faults, Ordering::Relaxed);
        self.0
            .evictions
            .fetch_add(after.evictions - before.evictions, Ordering::Relaxed);
        self.0
            .resident
            .store(epc.resident_pages() as u64, Ordering::Relaxed);
    }

    /// Record a page access (immediate path: one lock acquisition).
    pub fn touch(&self, page: u64) {
        if !self.is_enabled() {
            return;
        }
        self.with_epc(|epc| epc.touch(page));
    }

    /// Record a range access (one lock acquisition for the whole range).
    pub fn touch_range(&self, first_page: u64, n_pages: u64) {
        if !self.is_enabled() {
            return;
        }
        self.with_epc(|epc| epc.touch_range(first_page, n_pages));
    }

    /// Drop a contiguous page range from residency without charging, under
    /// **one** lock acquisition. This is the park path of the session
    /// control plane: when a session's state is sealed out of the enclave,
    /// its EPC pages stop being resident — that is the whole point of the
    /// eviction, the pressure signal (`resident_pages`) must drop. The
    /// pages fault back in (with the usual swap charges) as the restored
    /// session touches them again.
    pub fn discard_range(&self, first_page: u64, n_pages: u64) {
        if n_pages == 0 || !self.is_enabled() {
            return;
        }
        self.with_epc(|epc| {
            for p in first_page..first_page.saturating_add(n_pages) {
                epc.discard(p);
            }
        });
    }

    /// Replay a buffered page-transition stream in order under **one**
    /// lock acquisition — the batched accounting path of the sharded
    /// service. Exactly equivalent to calling [`touch`](Self::touch) per
    /// element; only the lock granularity differs.
    pub fn fold(&self, pages: &[u64]) {
        if pages.is_empty() || !self.is_enabled() {
            return;
        }
        // Decide the allocation spike before taking the lock (the plan's
        // LCG is atomic) so the fold still acquires the mutex exactly once.
        let spike = self.0.fault_plan.get().and_then(|plan| {
            plan.should_fire(FaultKind::EpcSpike, 0)
                .then(|| plan.spike_pages())
        });
        self.with_epc(|epc| {
            for &page in pages {
                epc.touch(page);
            }
            if let Some(n) = spike {
                epc.pressure_evict(n);
            }
        });
    }

    /// Counters snapshot — lock-free (served from the mirrors), so
    /// reporting can never stall a shard holding the residency lock.
    #[must_use]
    pub fn stats(&self) -> EpcStats {
        EpcStats {
            hits: self.0.hits.load(Ordering::Relaxed),
            faults: self.0.faults.load(Ordering::Relaxed),
            evictions: self.0.evictions.load(Ordering::Relaxed),
        }
    }

    /// Reset counters (not residency) — lock-free: only the mirrors are
    /// zeroed; the inner LRU's cumulative counters keep running and future
    /// folds add deltas on top of the zeroed mirrors.
    pub fn reset_stats(&self) {
        self.0.hits.store(0, Ordering::Relaxed);
        self.0.faults.store(0, Ordering::Relaxed);
        self.0.evictions.store(0, Ordering::Relaxed);
    }

    /// Enable or disable charging (disabled in SGX simulation mode) —
    /// lock-free: touch paths check the flag before locking, so flipping
    /// it from a setup thread cannot stall a mid-invocation shard.
    pub fn set_enabled(&self, enabled: bool) {
        self.0.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Whether charging is enabled.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.0.enabled.load(Ordering::Relaxed)
    }

    /// Page budget.
    #[must_use]
    pub fn limit_pages(&self) -> usize {
        self.0.limit_pages
    }

    /// Resident pages (lock-free mirror; exact once folds quiesce).
    #[must_use]
    pub fn resident_pages(&self) -> usize {
        self.0.resident.load(Ordering::Relaxed) as usize
    }

    /// How many times the global residency mutex has been acquired through
    /// this pool (all clones share the counter). The contention regression
    /// suite asserts warm invocations acquire it O(1) times — batched —
    /// rather than once per page transition.
    #[must_use]
    pub fn mutex_acquisitions(&self) -> u64 {
        self.0.lock_acquisitions.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn epc(limit: usize) -> (Epc, SimClock) {
        let clock = SimClock::new();
        (Epc::new(limit, clock.clone()), clock)
    }

    #[test]
    fn under_limit_no_evictions() {
        let (mut e, clock) = epc(10);
        for p in 0..10 {
            e.touch(p);
        }
        assert_eq!(e.stats().faults, 10);
        assert_eq!(e.stats().evictions, 0);
        assert_eq!(clock.cycles(), 10 * costs::PAGE_LOAD_CYCLES);
        // Re-touching is free.
        let before = clock.cycles();
        for p in 0..10 {
            e.touch(p);
        }
        assert_eq!(e.stats().hits, 10);
        assert_eq!(clock.cycles(), before);
    }

    #[test]
    fn lru_eviction_order() {
        let (mut e, _clock) = epc(3);
        e.touch(1);
        e.touch(2);
        e.touch(3);
        e.touch(1); // 1 is now MRU; LRU order: 2, 3, 1
        e.touch(4); // evicts 2
        assert_eq!(e.stats().evictions, 1);
        e.touch(2); // fault again
        assert_eq!(e.stats().faults, 5);
        // 3 was evicted when 2 came back (LRU after: 3,1,4 → evict 3)
        e.touch(3);
        assert_eq!(e.stats().faults, 6);
    }

    #[test]
    fn sequential_scan_thrashes_exactly() {
        let (mut e, _clock) = epc(100);
        // Two sequential passes over 200 pages: LRU gives zero reuse.
        for _ in 0..2 {
            for p in 0..200 {
                e.touch(p);
            }
        }
        assert_eq!(e.stats().hits, 0);
        assert_eq!(e.stats().faults, 400);
        assert_eq!(e.stats().evictions, 300);
    }

    #[test]
    fn working_set_within_limit_after_warmup() {
        let (mut e, clock) = epc(50);
        for p in 0..50 {
            e.touch(p);
        }
        let warm = clock.cycles();
        for _ in 0..100 {
            for p in 0..50 {
                e.touch(p);
            }
        }
        assert_eq!(clock.cycles(), warm, "no extra cost within working set");
    }

    #[test]
    fn disabled_is_free() {
        let (mut e, clock) = epc(2);
        e.enabled = false;
        for p in 0..100 {
            e.touch(p);
        }
        assert_eq!(clock.cycles(), 0);
        assert_eq!(e.stats(), EpcStats::default());
    }

    #[test]
    fn discard_frees_residency() {
        let (mut e, _clock) = epc(2);
        e.touch(1);
        e.touch(2);
        e.discard(1);
        assert_eq!(e.resident_pages(), 1);
        e.touch(3); // no eviction needed
        assert_eq!(e.stats().evictions, 0);
    }

    #[test]
    fn handle_shares_state() {
        let clock = SimClock::new();
        let h = EpcHandle::new(Epc::new(4, clock));
        let h2 = h.clone();
        h.touch(1);
        h2.touch(2);
        assert_eq!(h.stats().faults, 2);
        assert_eq!(h.resident_pages(), 2);
    }

    #[test]
    fn fold_equals_eager_touches() {
        // The batched path must produce bit-identical stats and cycle
        // charges to per-transition touches: same LRU, same order.
        let stream: Vec<u64> = (0..40).map(|i| (i * 7) % 13).collect();
        let eager_clock = SimClock::new();
        let eager = EpcHandle::new(Epc::new(5, eager_clock.clone()));
        for &p in &stream {
            eager.touch(p);
        }
        let folded_clock = SimClock::new();
        let folded = EpcHandle::new(Epc::new(5, folded_clock.clone()));
        folded.fold(&stream);
        assert_eq!(eager.stats(), folded.stats());
        assert_eq!(eager.resident_pages(), folded.resident_pages());
        assert_eq!(eager_clock.cycles(), folded_clock.cycles());
    }

    #[test]
    fn fold_is_one_lock_acquisition() {
        let h = EpcHandle::new(Epc::new(8, SimClock::new()));
        let stream: Vec<u64> = (0..1000).collect();
        let before = h.mutex_acquisitions();
        h.fold(&stream);
        assert_eq!(
            h.mutex_acquisitions() - before,
            1,
            "a fold of any length takes the residency lock exactly once"
        );
        // Snapshots and configuration never take it at all.
        let before = h.mutex_acquisitions();
        let _ = h.stats();
        let _ = h.resident_pages();
        h.set_enabled(true);
        h.reset_stats();
        assert_eq!(h.mutex_acquisitions(), before);
    }

    #[test]
    fn handle_reset_stats_is_mirror_only() {
        let clock = SimClock::new();
        let h = EpcHandle::new(Epc::new(4, clock.clone()));
        h.touch(1);
        h.touch(2);
        h.reset_stats();
        assert_eq!(h.stats(), EpcStats::default());
        // Counting resumes cleanly on top of the zeroed mirrors.
        h.touch(1); // hit
        h.touch(9); // fault
        assert_eq!(h.stats().hits, 1);
        assert_eq!(h.stats().faults, 1);
    }

    #[test]
    fn disabled_handle_skips_lock_and_charges() {
        let clock = SimClock::new();
        let h = EpcHandle::new(Epc::new(4, clock.clone()));
        h.set_enabled(false);
        let before = h.mutex_acquisitions();
        h.touch(1);
        h.fold(&[2, 3, 4]);
        h.touch_range(10, 5);
        assert_eq!(h.mutex_acquisitions(), before, "disabled paths never lock");
        assert_eq!(clock.cycles(), 0);
        assert_eq!(h.stats(), EpcStats::default());
        // Re-enabling works even though the inner pool was built enabled.
        h.set_enabled(true);
        h.touch(1);
        assert_eq!(h.stats().faults, 1);
    }

    #[test]
    fn pressure_evict_forces_refaults() {
        let (mut e, _clock) = epc(10);
        for p in 0..5 {
            e.touch(p);
        }
        assert_eq!(e.stats().evictions, 0);
        e.pressure_evict(3);
        assert_eq!(e.stats().evictions, 3);
        assert_eq!(e.resident_pages(), 2);
        // Evicting more than resident stops at empty, no panic.
        e.pressure_evict(100);
        assert_eq!(e.resident_pages(), 0);
        assert_eq!(e.stats().evictions, 5);
    }

    #[test]
    fn epc_spike_fires_in_fold_under_one_lock() {
        use crate::fault::{FaultConfig, FaultKind, FaultPlan};
        let h = EpcHandle::new(Epc::new(64, SimClock::new()));
        h.install_faults(Arc::new(FaultPlan::new(
            FaultConfig::new(5).rate(FaultKind::EpcSpike, 1024),
        )));
        let before = h.mutex_acquisitions();
        h.fold(&[1, 2, 3, 4, 5]);
        assert_eq!(h.mutex_acquisitions() - before, 1, "spike shares the fold's lock");
        assert!(
            h.stats().evictions > 0,
            "a guaranteed spike evicts resident pages even under the limit"
        );
    }

    #[test]
    fn random_vs_sequential_locality() {
        // A random workload over 4× the EPC must fault much more than a
        // sequential window scan of the same length — the Figure 5c effect.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let (mut seq, _c1) = epc(1000);
        let (mut rnd, _c2) = epc(1000);
        // Warm both with the same 4000-page space.
        for p in 0..4000 {
            seq.touch(p);
            rnd.touch(p);
        }
        seq.reset_stats();
        rnd.reset_stats();
        // Sequential: repeated scans of a window that fits.
        for _ in 0..10 {
            for p in 0..900 {
                seq.touch(p);
            }
        }
        // Random: uniform over all 4000 pages.
        for _ in 0..9000 {
            rnd.touch(rng.gen_range(0..4000));
        }
        assert!(seq.stats().faults < 1000, "sequential window mostly hits");
        assert!(
            rnd.stats().faults > 5 * seq.stats().faults.max(1),
            "random access thrashes: {} vs {}",
            rnd.stats().faults,
            seq.stats().faults
        );
    }
}
