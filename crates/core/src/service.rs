//! The multi-tenant session layer: one simulated enclave hosting many named
//! sessions, each with a persistent instance, plus a content-addressed
//! module cache (DESIGN.md §7).
//!
//! The one-shot [`TwineRuntime`](crate::TwineRuntime) rebuilds everything per
//! run; serving heavy traffic needs the standard compile-once /
//! instantiate-many architecture (wasmtime's `Module`/`Store` split, and the
//! long-lived enclave runtime of the 2023 Twine follow-up). This module
//! supplies it in three tiers of reuse:
//!
//! 1. **Module cache** — identical Wasm bytes compile once; every session of
//!    the same application shares one `Arc<CompiledModule>`, keyed by
//!    SHA-256 of the delivered bytes (content-addressed, so the key doubles
//!    as an integrity measurement of what the enclave runs).
//! 2. **Shared linker** — the WASI + libm host-function table is built once
//!    per service and borrowed by every instantiation.
//! 3. **Persistent sessions** — each session owns an [`Instance`] and a
//!    `WasiCtx` that survive across invocations: a *warm* call performs no
//!    decode, validate or instantiate work at all, and a post-instantiation
//!    [`snapshot`](Instance::snapshot) lets a session be recycled to a
//!    fresh-equivalent state without re-running data segments.
//!
//! Isolation between tenants is preserved: every session gets its own EPC
//! base page range (guest pages never alias across sessions), its own fuel
//! budget, its own file-system backend, and its own trusted-clock
//! monotonicity watermark that persists across invocations (§IV-C).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use twine_crypto::kdf::KeyName;
use twine_crypto::Sha256;
use twine_pfs::{PfsMode, PfsProfiler};
use twine_sgx::{Enclave, FaultKind, Processor, SimClock};
use twine_wasi::{FsBackend, Rights, WasiCtx};
use twine_wasm::compile::CompiledModule;
use twine_wasm::{
    ExecTier, Instance, InstanceSnapshot, Linker, ModuleError, SnapshotDelta, Trap, Value,
};

use crate::control::{ControlPlane, ControlStats, RateState};
use crate::pool::InstancePool;
use crate::runtime::{
    base_linker, build_wasi_ctx, invoke_in_enclave, make_backend, wasi_backend_into_box, with_retries,
    EpcSink, FsChoice, Overload, RunReport, TwineBuilder, TwineError, RETRY_BACKOFF_CYCLES, RETRY_MAX,
};

/// One cache slot: a [`OnceLock`] so that when many threads race to open
/// sessions over identical bytes, exactly one performs the compile while
/// the others block on the slot and then share the same
/// `Arc<CompiledModule>` (pointer-identical). A failed compile is recorded
/// in the slot (every concurrent waiter of that attempt sees the error)
/// and the slot is then removed so a later open may retry.
type CacheSlot = Arc<OnceLock<Result<Arc<CompiledModule>, ModuleError>>>;

/// A content-addressed cache of compiled modules: identical Wasm bytes
/// (under the same execution tier) compile once and share one
/// `Arc<CompiledModule>` across all sessions of a service.
///
/// Thread-safe with interior mutability (`&self` everywhere): the sharded
/// service hands one `Arc<ModuleCache>` to every shard. The map lock is
/// held only for slot bookkeeping — compilation itself runs *outside* it,
/// so two shards compiling **different** modules proceed in parallel,
/// while racers on the **same** key serialise on the per-key [`OnceLock`]
/// and compile exactly once.
pub struct ModuleCache {
    tier: ExecTier,
    entries: Mutex<HashMap<[u8; 32], CacheSlot>>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Soft capacity: whenever an insert grows the map past this,
    /// unreferenced entries are evicted *inline* (demand-driven, not
    /// merely on embedder request). `0` = unbounded.
    capacity: AtomicUsize,
    /// Entries dropped by capacity/pressure eviction.
    capacity_evictions: AtomicU64,
}

impl ModuleCache {
    /// Empty cache compiling for `tier`.
    #[must_use]
    pub fn new(tier: ExecTier) -> Self {
        Self {
            tier,
            entries: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            capacity: AtomicUsize::new(0),
            capacity_evictions: AtomicU64::new(0),
        }
    }

    /// Bound the cache: once more than `cap` distinct modules are held,
    /// every insert first evicts all unreferenced entries (entries still
    /// referenced by live sessions are never dropped — pointer sharing is
    /// preserved — so the cache is bounded by `max(cap, live working
    /// set)`). `None` restores the unbounded default.
    pub fn set_capacity(&self, cap: Option<usize>) {
        self.capacity.store(cap.unwrap_or(0), Ordering::Relaxed);
    }

    /// Entries dropped by capacity/pressure eviction so far.
    #[must_use]
    pub fn capacity_evictions(&self) -> u64 {
        self.capacity_evictions.load(Ordering::Relaxed)
    }

    /// The content address of `wasm` under `tier`: SHA-256 over a
    /// tier-domain-separated encoding of the bytes. Two tiers never share an
    /// entry (their lowered code differs even though semantics agree).
    #[must_use]
    pub fn content_key(wasm: &[u8], tier: ExecTier) -> [u8; 32] {
        let mut h = Sha256::new();
        h.update(&[match tier {
            ExecTier::Baseline => 0u8,
            ExecTier::Fused => 1u8,
            ExecTier::Reg => 2u8,
        }]);
        h.update(wasm);
        h.finalize()
    }

    /// Look up `wasm` by content, compiling (decode + validate + AoT lower)
    /// only on a miss. Returns the shared module, its content key, and
    /// whether this was a cache hit.
    ///
    /// Concurrent callers with the same bytes compile **once**: the loser
    /// of the slot race blocks until the winner's compile finishes and
    /// receives the identical `Arc` (a hit). Compilation of *distinct*
    /// modules never serialises — the map lock is not held across compiles.
    pub fn get_or_compile(
        &self,
        wasm: &[u8],
    ) -> Result<(Arc<CompiledModule>, [u8; 32], bool), ModuleError> {
        let key = Self::content_key(wasm, self.tier);
        let slot = {
            let mut map = self.entries.lock().unwrap();
            let slot = Arc::clone(map.entry(key).or_default());
            // Demand-driven capacity enforcement (ROADMAP item 5): a full
            // cache under churn evicts its unreferenced entries as part of
            // the very insert that would grow it, instead of waiting for
            // the embedder to call `evict_unreferenced`. The entry just
            // taken holds a second slot-`Arc` (cloned above), so it always
            // survives its own insert's eviction pass.
            let cap = self.capacity.load(Ordering::Relaxed);
            if cap != 0 && map.len() > cap {
                let evicted = Self::evict_unreferenced_locked(&mut map);
                self.capacity_evictions
                    .fetch_add(evicted as u64, Ordering::Relaxed);
            }
            slot
        };
        let mut compiled_here = false;
        let outcome = slot
            .get_or_init(|| {
                compiled_here = true;
                CompiledModule::from_bytes_with_tier(wasm, self.tier).map(Arc::new)
            })
            .clone();
        match outcome {
            Ok(m) => {
                // Counted only when a module was actually served — a failed
                // compile counts as neither hit nor miss, the same
                // early-return accounting the single-threaded cache had
                // (waiters on a failed attempt were never "served without
                // compiling").
                if compiled_here {
                    self.misses.fetch_add(1, Ordering::Relaxed);
                } else {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                }
                Ok((m, key, !compiled_here))
            }
            Err(e) => {
                // Failed compiles are not cached: retire this slot (only if
                // it is still *this* attempt's slot) so a later open retries.
                let mut map = self.entries.lock().unwrap();
                if map.get(&key).is_some_and(|s| Arc::ptr_eq(s, &slot)) {
                    map.remove(&key);
                }
                Err(e)
            }
        }
    }

    /// The compiled module readily held in a slot, if any.
    fn slot_module(slot: &CacheSlot) -> Option<&Arc<CompiledModule>> {
        slot.get().and_then(|r| r.as_ref().ok())
    }

    /// Number of distinct compiled modules held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.lock().unwrap().len()
    }

    /// Whether the cache holds no modules.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.lock().unwrap().is_empty()
    }

    /// Lookups served without compiling.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to compile.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Drop every cached module no live session references (the cache's
    /// `Arc` is the only one left). Returns how many entries were evicted.
    /// Long-lived services that churn through tenants with distinct
    /// binaries call this to keep the cache bounded by the *live* working
    /// set instead of growing with every binary ever served.
    pub fn evict_unreferenced(&self) -> usize {
        let mut map = self.entries.lock().unwrap();
        Self::evict_unreferenced_locked(&mut map)
    }

    fn evict_unreferenced_locked(map: &mut HashMap<[u8; 32], CacheSlot>) -> usize {
        let before = map.len();
        map.retain(|_, slot| {
            // A racer that looked the slot up but has not yet cloned the
            // inner module Arc holds a clone of the *slot* Arc (taken
            // under this same map lock), so `strong_count(slot) > 1`
            // keeps the entry alive and preserves pointer identity for
            // that in-flight open. In-flight compiles (no module yet) are
            // kept for the same reason.
            Arc::strong_count(slot) > 1
                || Self::slot_module(slot).is_none_or(|m| Arc::strong_count(m) > 1)
        });
        before - map.len()
    }

    /// Drop all entries (sessions already holding an `Arc` are unaffected;
    /// future opens recompile).
    pub fn clear(&self) {
        self.entries.lock().unwrap().clear();
    }

    /// Drop one entry if nothing outside the cache references it. Used to
    /// roll back a compile whose session failed to materialise, so failed
    /// opens cannot grow the cache. The slot-count guard (see
    /// [`evict_unreferenced`](Self::evict_unreferenced)) makes this safe
    /// against a concurrent `get_or_compile` that has taken the slot but
    /// not yet the module: such a racer keeps the entry alive.
    fn evict_if_unreferenced(&self, key: &[u8; 32]) {
        let mut map = self.entries.lock().unwrap();
        if map.get(key).is_some_and(|slot| {
            Arc::strong_count(slot) == 1
                && Self::slot_module(slot).is_some_and(|m| Arc::strong_count(m) == 1)
        }) {
            map.remove(key);
        }
    }
}

/// Public per-session bookkeeping.
#[derive(Debug, Clone)]
pub struct SessionStats {
    /// Content address (SHA-256) of the session's module in the cache.
    pub module_key: [u8; 32],
    /// Size of the delivered Wasm binary in bytes.
    pub wasm_bytes: usize,
    /// Whether opening this session reused an already-compiled module.
    pub cache_hit: bool,
    /// First EPC page of this session's private page range.
    pub epc_base_page: u64,
    /// Warm invocations served so far.
    pub invocations: u64,
}

/// Session state that survives parking: everything except the live
/// [`Instance`] (whose guest-visible state travels through the sealed
/// snapshot) and the `WasiCtx` (which moves between the instance's host
/// data and the parked slot).
struct SessionCommon {
    /// Keeps the compiled module alive and shared; also handy for tests
    /// asserting that sessions share one cache entry.
    compiled: Arc<CompiledModule>,
    /// Post-instantiation state (data segments applied, start function run)
    /// for pool-recycling via [`TwineService::reset_session`] and
    /// post-trap recovery. For pooled sessions this is the module's
    /// **shared** base image (one `Arc` per (module, tier), not one clone
    /// per session); the session's dirty bitmap is re-based against it at
    /// open, so resets and park deltas touch only dirty pages.
    base_snapshot: Arc<InstanceSnapshot>,
    /// Whether this session rides the pooling/memory-image fast path:
    /// `base_snapshot` is the module's shared base image, parks seal
    /// O(dirty pages) deltas against it, and the instance recycles through
    /// the pool. Decided once at open (pooling enabled ∧ module poolable).
    pooled: bool,
    /// Trusted-clock monotonicity watermark (§IV-C), persistent across
    /// invocations, [`TwineService::reset_session`] and park/restore.
    watermark: Arc<AtomicU64>,
    fuel: Option<u64>,
    /// Per-invocation preemption deadline (defaults to the control
    /// plane's; overridable per session).
    deadline: Option<u64>,
    stats: SessionStats,
    /// LRU use sequence (bumped on open/invoke/reset): the eviction policy
    /// parks the live session with the smallest value.
    last_use: u64,
    /// Fuel-rate token-bucket state (persists across parking, so a tenant
    /// cannot launder its debt through an eviction cycle).
    rate: RateState,
    /// The delivered Wasm bytes, kept only when a durable park store is
    /// configured: the durable record embeds them so
    /// [`TwineService::recover`] can recompile after a restart.
    wasm: Option<Arc<Vec<u8>>>,
}

/// One live tenant: a persistent instance + WASI context inside the
/// service's enclave.
pub(crate) struct Session {
    instance: Instance,
    common: SessionCommon,
}

/// One parked tenant: guest state sealed out of the enclave, EPC pages
/// released. The WASI context (with the tenant's protected files) stays
/// with the service — files are independently protected by the PFS layer;
/// what the seal protects is the *guest memory image*.
pub(crate) struct ParkedSession {
    /// `seal(InstanceSnapshot::to_bytes)` of the state at park time.
    sealed: Vec<u8>,
    ctx: WasiCtx,
    common: SessionCommon,
}

/// A session-table slot: live or parked.
// Variant sizes differ by design: a live slot keeps the whole `Session`
// inline and hot (one invoke = one map lookup, no extra chase), and a
// shard holds at most `max_live_sessions` of them.
#[allow(clippy::large_enum_variant)]
pub(crate) enum SessionSlot {
    Live(Session),
    Parked(ParkedSession),
    /// A parked session whose image could not be restored (unsealing kept
    /// failing beyond the retry budget). The sealed state and WASI context
    /// are preserved — nothing is lost, and a fixed blob could in
    /// principle be re-adopted — but invocations are rejected typed
    /// ([`TwineError::Quarantined`]) instead of crashing the service or
    /// serving corrupt state.
    Quarantined(ParkedSession, String),
}

impl SessionSlot {
    fn common(&self) -> &SessionCommon {
        match self {
            SessionSlot::Live(s) => &s.common,
            SessionSlot::Parked(p) => &p.common,
            SessionSlot::Quarantined(p, _) => &p.common,
        }
    }

    fn common_mut(&mut self) -> &mut SessionCommon {
        match self {
            SessionSlot::Live(s) => &mut s.common,
            SessionSlot::Parked(p) => &mut p.common,
            SessionSlot::Quarantined(p, _) => &mut p.common,
        }
    }
}

/// The per-session construction template a builder configures once and a
/// service (or every shard of a [`crate::ShardedService`]) applies to each
/// new session. Plain data, `Clone + Send`.
#[derive(Clone)]
pub(crate) struct SessionTemplate {
    pub(crate) fs: FsChoice,
    pub(crate) pfs_mode: PfsMode,
    pub(crate) pfs_cache_nodes: usize,
    pub(crate) preopen: String,
    pub(crate) rights: Rights,
    pub(crate) args: Vec<String>,
    pub(crate) env: Vec<(String, String)>,
    pub(crate) fuel: Option<u64>,
}

impl SessionTemplate {
    pub(crate) fn from_builder(b: &TwineBuilder) -> Self {
        Self {
            fs: b.fs,
            pfs_mode: b.pfs_mode,
            pfs_cache_nodes: b.pfs_cache_nodes,
            preopen: b.preopen.clone(),
            rights: b.rights,
            args: b.args.clone(),
            env: b.env.clone(),
            fuel: b.fuel,
        }
    }
}

/// A multi-tenant Twine service: many named sessions inside **one**
/// simulated enclave, sharing a module cache and one host-function table.
///
/// ```
/// use twine_core::{FsChoice, TwineBuilder};
/// use twine_wasm::Value;
///
/// let wasm = twine_minicc::compile_to_bytes(
///     "int double_it(int x) { return 2 * x; }").unwrap();
/// let mut svc = TwineBuilder::new()
///     .fs(FsChoice::ProtectedInMemory)
///     .build_service();
/// svc.open_session("tenant-a", &wasm).unwrap();
/// svc.open_session("tenant-b", &wasm).unwrap(); // compiled once, shared
/// assert_eq!(svc.module_cache().len(), 1);
/// // Warm calls: no decode/validate/instantiate.
/// let out = svc.invoke("tenant-a", "double_it", &[Value::I32(21)]).unwrap();
/// assert_eq!(out[0], Value::I32(42));
/// ```
pub struct TwineService {
    pub(crate) enclave: Arc<Enclave>,
    processor: Processor,
    linker: Arc<Linker>,
    cache: Arc<ModuleCache>,
    pub(crate) sessions: HashMap<String, SessionSlot>,
    /// Tenant database sessions (DESIGN.md §13): each owns a private
    /// protected backend holding its database, served through the same
    /// park/evict/restore lifecycle as Wasm sessions. Disjoint namespace
    /// check with `sessions` at open.
    pub(crate) db_sessions: HashMap<String, crate::dbsession::DbSession>,
    /// Shared allocator of private EPC slots; slot `n` covers pages
    /// `[(n+1) << 32, ...)`. Shared (`Arc`) so the shards of a
    /// [`crate::ShardedService`] never hand two sessions aliasing ranges.
    pub(crate) epc_slots: Arc<AtomicU64>,
    /// Per-session construction template (from the builder).
    pub(crate) tpl: SessionTemplate,
    pub(crate) profiler: Option<PfsProfiler>,
    /// Control-plane policy (eviction, preemption, admission). Defaults
    /// are all-off: a default service behaves exactly like before the
    /// control plane existed.
    pub(crate) control: ControlPlane,
    /// Shared epoch counter for asynchronous preemption; one counter is
    /// shared by every shard of a [`crate::ShardedService`].
    epoch: Arc<AtomicU64>,
    /// Monotonic use sequence feeding the LRU eviction policy.
    pub(crate) use_seq: u64,
    pub(crate) control_stats: ControlStats,
    /// Pre-instantiated base-state slots (DESIGN.md §11); shared across
    /// the shards of a [`crate::ShardedService`]. Capacity 0 when pooling
    /// is off — every `put` then drops the instance.
    pool: Arc<InstancePool>,
    /// Whether `control_stats` fills the enclave-global `faults_injected`
    /// gauge. True for a standalone service; false for the shards of a
    /// [`crate::ShardedService`] (the handle fills it exactly once after
    /// merging, so the shared plan's count is not multiplied by the shard
    /// count).
    fill_faults: bool,
}

impl TwineService {
    pub(crate) fn from_builder(b: TwineBuilder) -> Self {
        let enclave = b.launch_enclave();
        let profiler = b
            .with_profiler
            .then(|| PfsProfiler::new(enclave.clock().clone()));
        let tpl = SessionTemplate::from_builder(&b);
        let cache = Arc::new(ModuleCache::new(b.exec_tier));
        cache.set_capacity(b.control.module_cache_capacity);
        let pool = Arc::new(InstancePool::new(
            b.control.pool_slots_per_module.unwrap_or(0),
        ));
        Self {
            enclave,
            processor: b.processor,
            linker: Arc::new(base_linker()),
            cache,
            sessions: HashMap::new(),
            db_sessions: HashMap::new(),
            epc_slots: Arc::new(AtomicU64::new(0)),
            tpl,
            profiler,
            control: b.control,
            epoch: Arc::new(AtomicU64::new(0)),
            use_seq: 0,
            control_stats: ControlStats::default(),
            pool,
            fill_faults: true,
        }
    }

    /// One shard of a [`crate::ShardedService`]: a full `TwineService` over
    /// **shared** immutable artifacts — the one enclave, the one
    /// host-function table, the one module cache, the one EPC-slot
    /// allocator and the one epoch counter — with its own (shard-local,
    /// single-owner) session map.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn shard(
        enclave: Arc<Enclave>,
        processor: Processor,
        linker: Arc<Linker>,
        cache: Arc<ModuleCache>,
        epc_slots: Arc<AtomicU64>,
        tpl: SessionTemplate,
        profiler: Option<PfsProfiler>,
        control: ControlPlane,
        epoch: Arc<AtomicU64>,
        pool: Arc<InstancePool>,
    ) -> Self {
        Self {
            enclave,
            processor,
            linker,
            cache,
            sessions: HashMap::new(),
            db_sessions: HashMap::new(),
            epc_slots,
            tpl,
            profiler,
            control,
            epoch,
            use_seq: 0,
            control_stats: ControlStats::default(),
            pool,
            fill_faults: false,
        }
    }

    /// The enclave hosting every session.
    #[must_use]
    pub fn enclave(&self) -> &Arc<Enclave> {
        &self.enclave
    }

    /// The simulated processor.
    #[must_use]
    pub fn processor(&self) -> &Processor {
        &self.processor
    }

    /// The virtual clock (shared by all sessions; includes launch cost).
    #[must_use]
    pub fn clock(&self) -> &SimClock {
        self.enclave.clock()
    }

    /// The content-addressed module cache (thread-safe: eviction policy
    /// belongs to the embedder, e.g. [`ModuleCache::evict_unreferenced`]
    /// after a wave of [`close_session`](Self::close_session)s).
    #[must_use]
    pub fn module_cache(&self) -> &ModuleCache {
        &self.cache
    }

    /// Number of open sessions (live + parked).
    #[must_use]
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// Number of live (unparked) sessions.
    #[must_use]
    pub fn live_session_count(&self) -> usize {
        self.sessions
            .values()
            .filter(|s| matches!(s, SessionSlot::Live(_)))
            .count()
    }

    /// Number of parked (sealed-out) sessions.
    #[must_use]
    pub fn parked_session_count(&self) -> usize {
        self.sessions
            .values()
            .filter(|s| matches!(s, SessionSlot::Parked(_)))
            .count()
    }

    /// Whether a session is currently parked.
    #[must_use]
    pub fn session_parked(&self, name: &str) -> Option<bool> {
        self.sessions
            .get(name)
            .map(|s| matches!(s, SessionSlot::Parked(_)))
    }

    /// Control-plane counters, with the live/parked gauges filled in at
    /// read time (and, for a standalone service, the enclave-global
    /// fault-injection gauge).
    #[must_use]
    pub fn control_stats(&self) -> ControlStats {
        let mut stats = ControlStats {
            live_sessions: (self.live_session_count() + self.live_db_session_count()) as u64,
            parked_sessions: (self.parked_session_count() + self.parked_db_session_count())
                as u64,
            ..self.control_stats
        };
        if self.fill_faults {
            if let Some(plan) = self.enclave.fault_plan() {
                stats.faults_injected = plan.total_injected();
            }
        }
        stats
    }

    /// Whether a session is quarantined (its parked image failed to
    /// restore; see [`TwineError::Quarantined`]).
    #[must_use]
    pub fn session_quarantined(&self, name: &str) -> Option<bool> {
        self.sessions
            .get(name)
            .map(|s| matches!(s, SessionSlot::Quarantined(..)))
    }

    /// Number of pre-instantiated base-state slots currently parked in the
    /// instance pool (across all modules; shared across shards).
    #[must_use]
    pub fn pooled_slot_count(&self) -> usize {
        self.pool.len()
    }

    /// Bump the shared preemption epoch (see
    /// [`ControlPlane::epoch_slack`]): every in-flight invocation armed
    /// with a smaller slack than the bumps it has survived yields with
    /// [`Trap::DeadlineExceeded`] at its next control transfer.
    pub fn bump_epoch(&self) {
        self.epoch.fetch_add(1, Ordering::Relaxed);
    }

    /// Names of the open sessions (unordered; includes parked).
    #[must_use]
    pub fn session_names(&self) -> Vec<&str> {
        self.sessions.keys().map(String::as_str).collect()
    }

    /// Bookkeeping for one session.
    #[must_use]
    pub fn session_stats(&self, name: &str) -> Option<&SessionStats> {
        self.sessions.get(name).map(|s| &s.common().stats)
    }

    /// The compiled module backing a session (shared across sessions with
    /// identical Wasm bytes).
    #[must_use]
    pub fn session_module(&self, name: &str) -> Option<&Arc<CompiledModule>> {
        self.sessions.get(name).map(|s| &s.common().compiled)
    }

    /// Check a pre-instantiated slot out of the pool, validating it first:
    /// a slot flagged by the fault plan's pool-corruption schedule, or one
    /// genuinely carrying residual dirty pages, is discarded (counted and
    /// logged) instead of being handed to a tenant — the caller falls back
    /// to a fresh instantiation, which is semantically identical.
    fn pool_checkout(&mut self, module_key: &[u8; 32]) -> Option<Instance> {
        let mut attempt = 0u32;
        while let Some(slot) = self.pool.take(module_key) {
            let injected = self
                .enclave
                .fault_plan()
                .is_some_and(|p| p.should_fire(FaultKind::PoolCorrupt, attempt));
            if injected || slot.dirty_page_count() != 0 {
                self.control_stats.pool_discards += 1;
                eprintln!(
                    "twine-core: discarding corrupt pool slot for module {:02x}{:02x}{:02x}{:02x}…",
                    module_key[0], module_key[1], module_key[2], module_key[3]
                );
                attempt += 1;
                continue;
            }
            return Some(slot);
        }
        None
    }

    /// The key protecting durable park-record files: derived from the
    /// processor + measurement (like sealing), so a restarted enclave of
    /// the same identity re-derives it and a different enclave cannot.
    pub(crate) fn record_key(&self) -> [u8; 16] {
        self.enclave.get_key(KeyName::Seal, b"park-records")
    }

    /// Prefix `inner` with the durable freshness wrapper (format byte 3 +
    /// monotonic tag); identity when no durable store is configured.
    pub(crate) fn wrap_freshness(tag: Option<u64>, inner: Vec<u8>) -> Vec<u8> {
        match tag {
            None => inner,
            Some(tag) => {
                let mut out = Vec::with_capacity(inner.len() + 9);
                out.push(3u8);
                out.extend_from_slice(&tag.to_le_bytes());
                out.extend_from_slice(&inner);
                out
            }
        }
    }

    /// Split a parked image into its freshness tag (if wrapped) and inner
    /// snapshot/delta payload.
    pub(crate) fn unwrap_freshness(bytes: &[u8]) -> (Option<u64>, &[u8]) {
        match bytes.split_first() {
            Some((3, rest)) if rest.len() >= 8 => {
                let (tag, inner) = rest.split_at(8);
                (Some(u64::from_le_bytes(tag.try_into().unwrap())), inner)
            }
            _ => (None, bytes),
        }
    }

    /// Open a named session: resolve `wasm` through the module cache
    /// (compiling only on a content miss), copy the bytes into reserved
    /// enclave memory, instantiate against the shared linker, and record the
    /// post-instantiation snapshot. This is the *cold* path — every
    /// subsequent [`invoke`](Self::invoke) on the session is warm.
    ///
    /// # Errors
    /// [`TwineError::Session`] if the name is taken;
    /// [`TwineError::Module`] on decode/validate/instantiate failure.
    pub fn open_session(&mut self, name: &str, wasm: &[u8]) -> Result<&SessionStats, TwineError> {
        if self.sessions.contains_key(name) || self.db_sessions.contains_key(name) {
            return Err(TwineError::Session(format!(
                "session {name:?} already exists"
            )));
        }
        let (compiled, module_key, cache_hit) =
            self.cache.get_or_compile(wasm).map_err(TwineError::Module)?;
        // Copy into reserved memory: charge the boundary copy (one ECALL,
        // exactly like `TwineRuntime::load_wasm`).
        self.enclave.ecall(|| {
            self.enclave.clock().add_cycles(wasm.len() as u64 / 4);
        });

        let backend = make_backend(
            self.tpl.fs,
            &self.enclave,
            self.tpl.pfs_mode,
            self.tpl.pfs_cache_nodes,
            self.profiler.clone(),
        );
        let watermark = Arc::new(AtomicU64::new(0));
        let ctx = build_wasi_ctx(
            backend,
            &self.tpl.preopen,
            self.tpl.rights,
            &self.tpl.args,
            &self.tpl.env,
            &self.enclave,
            &watermark,
        );

        // The pooling fast path (DESIGN.md §11): a poolable module's open
        // checks a pre-instantiated base-state slot out of the pool instead
        // of instantiating, when one is available.
        let pooled = self.control.pool_slots_per_module.is_some() && compiled.poolable();
        let mut instance = match pooled.then(|| self.pool_checkout(&module_key)).flatten() {
            Some(mut slot) => {
                self.control_stats.pool_hits += 1;
                // The slot parks with a placeholder `Box<()>`; hand it the
                // tenant's context. It is already at the base image with a
                // clean dirty bitmap and meter (reset on its way in).
                drop(slot.replace_host_data(Box::new(ctx)));
                slot.fuel = self.tpl.fuel;
                slot
            }
            None => {
                if pooled {
                    self.control_stats.pool_misses += 1;
                }
                // The fuel budget applies to the start function too:
                // tenant-supplied instantiation code cannot run unmetered.
                match Instance::instantiate_shared(
                    Arc::clone(&compiled),
                    &self.linker,
                    Box::new(ctx),
                    self.tpl.fuel,
                ) {
                    Ok(i) => i,
                    Err((e, _ctx)) => {
                        // Roll back the cache entry if this failed open was
                        // the only user, so repeated hostile opens (e.g.
                        // trapping start functions) cannot grow enclave
                        // memory session-lessly.
                        drop(compiled);
                        self.cache.evict_if_unreferenced(&module_key);
                        return Err(TwineError::Module(e));
                    }
                }
            }
        };
        let slot = self.epc_slots.fetch_add(1, Ordering::Relaxed);
        let epc_base_page = (slot + 1) << 32;
        instance.set_page_sink(Some(Box::new(EpcSink::new(
            self.enclave.epc(),
            epc_base_page,
        ))));
        if self.control.epoch_slack.is_some() {
            instance.set_epoch(Some(Arc::clone(&self.epoch)));
        }
        // Pooled sessions share one base image per (module, tier) — captured
        // by whichever open got there first (any racer would capture
        // identical bytes: poolable modules instantiate deterministically).
        // Unpooled sessions keep a private copy, exactly as before pooling.
        let snapshot = if pooled {
            Arc::clone(compiled.base_image_or_init(|| instance.snapshot()))
        } else {
            Arc::new(instance.snapshot())
        };
        // Re-base the dirty bitmap: from here on it over-approximates the
        // pages differing from `snapshot`, which is what makes
        // O(dirty-pages) resets and park deltas sound.
        instance.clear_dirty();
        // Instantiation metering (start function, if any) is not part of any
        // invocation report: every invocation starts from a clean meter.
        instance.meter.reset();

        self.use_seq += 1;
        let session = Session {
            instance,
            common: SessionCommon {
                compiled,
                base_snapshot: snapshot,
                pooled,
                watermark,
                fuel: self.tpl.fuel,
                deadline: self.control.deadline,
                stats: SessionStats {
                    module_key,
                    wasm_bytes: wasm.len(),
                    cache_hit,
                    epc_base_page,
                    invocations: 0,
                },
                last_use: self.use_seq,
                rate: RateState::default(),
                wasm: self
                    .control
                    .durable_parks
                    .is_some()
                    .then(|| Arc::new(wasm.to_vec())),
            },
        };
        let prev = self
            .sessions
            .insert(name.to_string(), SessionSlot::Live(session));
        debug_assert!(prev.is_none(), "session name was checked free above");
        // A fresh session counts against the eviction budget: park LRU
        // peers (never the newcomer) if this open pushed past it.
        self.enforce_pressure(Some(name));
        Ok(&self.sessions[name].common().stats)
    }

    /// Invoke an exported function on a session — the *warm* path: no
    /// decode, validate or instantiate work happens here; per-run WASI state
    /// is recycled in place and guest memory/globals persist from the
    /// previous invocation (tenant state survives across calls).
    pub fn invoke(
        &mut self,
        session: &str,
        func: &str,
        args: &[Value],
    ) -> Result<Vec<Value>, TwineError> {
        self.invoke_raw(session, func, args, false).map(|(_, v)| v)
    }

    /// Run a session's WASI `_start` export.
    pub fn run(&mut self, session: &str) -> Result<RunReport, TwineError> {
        self.invoke_with_report(session, "_start", &[])
            .map(|(report, _)| report)
    }

    /// [`invoke`](Self::invoke), also returning the per-invocation
    /// [`RunReport`] (meter, cycles and EPC counters cover this invocation
    /// only).
    ///
    /// If the guest traps, the session is automatically recycled from its
    /// post-instantiation snapshot — the tenant's next call sees a
    /// fresh-equivalent instance while its protected files survive.
    pub fn invoke_with_report(
        &mut self,
        session: &str,
        func: &str,
        args: &[Value],
    ) -> Result<(RunReport, Vec<Value>), TwineError> {
        self.invoke_raw(session, func, args, true)
            .map(|(report, v)| (report.expect("report requested"), v))
    }

    /// The warm path proper. `build_report` gates the stdout/stderr/meter
    /// clones so plain [`invoke`](Self::invoke) traffic doesn't pay for a
    /// report it discards.
    fn invoke_raw(
        &mut self,
        session: &str,
        func: &str,
        args: &[Value],
        build_report: bool,
    ) -> Result<(Option<RunReport>, Vec<Value>), TwineError> {
        // Admission first — a rate-capped tenant is rejected *before* any
        // restore work, so it cannot force seal traffic while throttled.
        let now_cycles = self.enclave.clock().cycles();
        self.use_seq += 1;
        let use_seq = self.use_seq;
        {
            let common = self
                .sessions
                .get_mut(session)
                .ok_or_else(|| TwineError::Session(format!("no session named {session:?}")))?
                .common_mut();
            common.last_use = use_seq;
            if let Some(rate) = self.control.fuel_rate {
                if !common.rate.admit(rate, now_cycles) {
                    self.control_stats.rate_rejections += 1;
                    return Err(TwineError::Overloaded(Overload::RateLimited {
                        tenant: session.to_string(),
                    }));
                }
            }
        }
        // Restore a parked session warm. Done before `invoke_in_enclave`
        // captures its cycle baseline, so the invocation report covers the
        // invocation only (restore cost lands on the shared clock).
        self.ensure_live(session)?;
        let epoch_deadline = self
            .control
            .epoch_slack
            .map(|s| self.epoch.load(Ordering::Relaxed).saturating_add(s));

        let sess = match self.sessions.get_mut(session) {
            Some(SessionSlot::Live(s)) => s,
            _ => unreachable!("ensure_live leaves the session live"),
        };
        // Recycle per-run state; everything else is warm reuse.
        sess.instance.meter.reset();
        sess.instance.fuel = sess.common.fuel;
        sess.instance.deadline = sess.common.deadline;
        if let Some(d) = epoch_deadline {
            sess.instance.epoch_deadline = d;
        }
        sess.instance.state::<WasiCtx>().reset_for_invocation();

        let outcome = invoke_in_enclave(&self.enclave, &mut sess.instance, func, args);
        self.control_stats.retries += outcome.retries;
        if self.control.fuel_rate.is_some() {
            sess.common.rate.charge(outcome.meter.total());
        }
        let result = match outcome.values {
            Ok(values) => {
                sess.common.stats.invocations += 1;
                let report = build_report.then(|| {
                    let fuel_remaining = sess.instance.fuel;
                    let ctx = sess.instance.state::<WasiCtx>();
                    RunReport {
                        exit_code: ctx.exit_code.unwrap_or(0),
                        // Move, don't copy: the next invocation's reset
                        // would discard these buffers anyway.
                        stdout: std::mem::take(&mut ctx.stdout),
                        stderr: std::mem::take(&mut ctx.stderr),
                        wasi_calls: ctx.call_count,
                        meter: outcome.meter,
                        cycles: outcome.cycles,
                        epc: outcome.epc,
                        fuel_remaining,
                    }
                });
                Ok((report, values))
            }
            Err(t) => {
                match t {
                    // A BadInvoke (typo'd export, wrong arity or argument
                    // types) is rejected *before* any guest code runs, so
                    // the tenant's state is untouched — don't wipe it, and
                    // don't count it as a served invocation.
                    Trap::BadInvoke(_) => {}
                    // Preemption is scheduler policy, not a guest fault:
                    // metering was rolled back exactly and guest state is a
                    // deterministic prefix of the full run, so keep it —
                    // the tenant resumes where it left off on its next
                    // admitted call.
                    Trap::DeadlineExceeded => {
                        sess.common.stats.invocations += 1;
                        self.control_stats.deadline_preemptions += 1;
                    }
                    // Guest state is suspect after a genuine trap: restore
                    // the post-instantiation image so the session stays
                    // servable. O(dirty pages) — the bitmap was re-based
                    // against this snapshot at open.
                    _ => {
                        sess.common.stats.invocations += 1;
                        sess.instance.reset_to_image(&sess.common.base_snapshot);
                    }
                }
                Err(TwineError::Trap(t))
            }
        };
        // The invocation may have grown guest memory / EPC residency.
        self.enforce_pressure(Some(session));
        result
    }

    /// Park a live session: flush its page sink, snapshot its guest state,
    /// **seal** the image (it leaves the enclave, so it leaves encrypted
    /// and integrity-bound — accounted as boundary traffic like a
    /// protected-file write) and release its EPC pages. Idempotent on an
    /// already-parked session. The next invoke restores it warm,
    /// bit-identical to never having been parked.
    pub fn park_session(&mut self, name: &str) -> Result<(), TwineError> {
        match self.sessions.get(name) {
            None => {
                return Err(TwineError::Session(format!("no session named {name:?}")));
            }
            // A quarantined session is already sealed out of the enclave;
            // parking it again is a no-op, like an ordinary parked one.
            Some(SessionSlot::Parked(_) | SessionSlot::Quarantined(..)) => return Ok(()),
            Some(SessionSlot::Live(_)) => {}
        }
        let Some(SessionSlot::Live(sess)) = self.sessions.remove(name) else {
            unreachable!("matched Live above");
        };
        let Session {
            mut instance,
            common,
        } = sess;
        instance.flush_page_sink();
        let mem_bytes = instance.memory().map_or(0, |m| m.size_bytes() as u64);
        // Pooled sessions seal an O(dirty pages) delta against the module's
        // shared base image (format version 2); everything else seals the
        // full snapshot exactly as before pooling existed (version 1). The
        // restore path dispatches on the version byte after unsealing.
        // With a durable store, the image is additionally wrapped with a
        // monotonic freshness tag (format byte 3) before sealing.
        let durable = self.control.durable_parks.clone();
        let tag = durable.as_ref().map(|d| d.peek(name) + 1);
        let mut used_fallback = false;
        let mut bytes = Self::wrap_freshness(
            tag,
            if common.pooled {
                instance.snapshot_delta(&common.base_snapshot).to_bytes()
            } else {
                instance.snapshot().to_bytes()
            },
        );
        // Seal under the bounded-retry policy. A pooled park whose delta
        // seal faults degrades gracefully: the first retry switches to the
        // full image — more boundary traffic, never data loss. A hard
        // failure reinstates the live session untouched.
        let mut retries = 0u64;
        let sealed = {
            let mut attempt = 0u32;
            loop {
                match self.enclave.ecall(|| self.enclave.try_seal(attempt, &bytes)) {
                    Ok(s) => break Ok(s),
                    Err(e) if e.is_transient() && attempt + 1 < RETRY_MAX => {
                        if common.pooled && !used_fallback {
                            used_fallback = true;
                            self.control_stats.fallback_parks += 1;
                            bytes = Self::wrap_freshness(tag, instance.snapshot().to_bytes());
                        }
                        attempt += 1;
                        retries += 1;
                        self.enclave.clock().add_cycles(RETRY_BACKOFF_CYCLES << attempt);
                    }
                    Err(e) => break Err(e),
                }
            }
        };
        self.control_stats.retries += retries;
        let reinstate_live = |svc: &mut Self, instance: Instance, common: SessionCommon| {
            svc.sessions
                .insert(name.to_string(), SessionSlot::Live(Session { instance, common }));
        };
        let sealed = match sealed {
            Ok(s) => s,
            Err(e) => {
                reinstate_live(self, instance, common);
                return Err(TwineError::Sgx(e));
            }
        };
        // The sealed image crosses the boundary outward (an idempotent
        // transfer: a faulted OCALL is simply re-issued).
        let mut retries = 0u64;
        let transfer = with_retries(&self.enclave, &mut retries, |attempt| {
            self.enclave.try_ocall(attempt, sealed.len() as u64, || ())
        });
        self.control_stats.retries += retries;
        if let Err(e) = transfer {
            reinstate_live(self, instance, common);
            return Err(TwineError::Sgx(e));
        }
        // Durable write-through: journalled record first, counter bump
        // second — recovery accepts `tag >= counter`, so a crash between
        // the two still recovers the record just written.
        if let (Some(store), Some(wasm)) = (&durable, &common.wasm) {
            if let Err(e) = store.write_record(name, self.record_key(), wasm, &sealed) {
                reinstate_live(self, instance, common);
                return Err(TwineError::Session(format!(
                    "durable park of {name:?} failed: {e}"
                )));
            }
            store.bump(name);
        }
        // Release the session's resident EPC pages (4 KiB granularity, the
        // same the page sink touches in).
        self.enclave
            .epc()
            .discard_range(common.stats.epc_base_page, mem_bytes.div_ceil(4096));
        self.control_stats.parks += 1;
        self.control_stats.sealed_bytes += sealed.len() as u64;
        let ctx = if common.pooled {
            // Recycle the instance itself: O(dirty pages) reset back to the
            // base image, then into the pool, where the next open (or delta
            // restore) of the same module checks it out — no allocation, no
            // data-segment replay.
            instance.reset_to_image(&common.base_snapshot);
            instance.set_page_sink(None);
            instance.set_epoch(None);
            let ctx = *instance
                .replace_host_data(Box::new(()))
                .downcast::<WasiCtx>()
                .expect("service sessions hold a WasiCtx");
            self.pool.put(common.stats.module_key, instance);
            ctx
        } else {
            instance
                .into_state::<WasiCtx>()
                .expect("service sessions hold a WasiCtx")
        };
        if common.pooled && !used_fallback {
            self.control_stats.delta_sealed_bytes += sealed.len() as u64;
        }
        self.sessions.insert(
            name.to_string(),
            SessionSlot::Parked(ParkedSession {
                sealed,
                ctx,
                common,
            }),
        );
        Ok(())
    }

    /// Restore a parked session to live (no-op when already live): the
    /// sealed image crosses back into the enclave, is unsealed and
    /// rehydrated into a fresh instance at the same EPC base range. On any
    /// failure the parked slot is reinstated untouched.
    fn ensure_live(&mut self, name: &str) -> Result<(), TwineError> {
        match self.sessions.get(name) {
            None => {
                return Err(TwineError::Session(format!("no session named {name:?}")));
            }
            Some(SessionSlot::Live(_)) => return Ok(()),
            Some(SessionSlot::Quarantined(_, reason)) => {
                return Err(TwineError::Quarantined {
                    session: name.to_string(),
                    reason: reason.clone(),
                });
            }
            Some(SessionSlot::Parked(_)) => {}
        }
        let Some(SessionSlot::Parked(parked)) = self.sessions.remove(name) else {
            unreachable!("matched Parked above");
        };
        let ParkedSession {
            sealed,
            ctx,
            common,
        } = parked;
        // The sealed image crosses the boundary inward (idempotent
        // transfer, retried on injected faults).
        let mut retries = 0u64;
        let transfer = with_retries(&self.enclave, &mut retries, |attempt| {
            self.enclave.try_ocall(attempt, sealed.len() as u64, || ())
        });
        let reinstate = |svc: &mut Self, ctx: WasiCtx, common: SessionCommon, sealed: Vec<u8>| {
            svc.sessions.insert(
                name.to_string(),
                SessionSlot::Parked(ParkedSession {
                    sealed,
                    ctx,
                    common,
                }),
            );
        };
        if let Err(e) = transfer {
            self.control_stats.retries += retries;
            reinstate(self, ctx, common, sealed);
            return Err(TwineError::Sgx(e));
        }
        // Unseal under the bounded-retry policy: an injected corruption of
        // the inward copy heals on a re-read. If unsealing still fails —
        // retries exhausted, or a genuinely tampered blob — the session is
        // *quarantined*: its sealed state and files are preserved, but it
        // is typed out of service instead of crashing it.
        let unsealed = {
            let mut attempt = 0u32;
            loop {
                match self.enclave.ecall(|| self.enclave.try_unseal(attempt, &sealed)) {
                    Ok(b) => break Ok(b),
                    Err(e) if e.is_transient() && attempt + 1 < RETRY_MAX => {
                        attempt += 1;
                        retries += 1;
                        self.enclave.clock().add_cycles(RETRY_BACKOFF_CYCLES << attempt);
                    }
                    Err(e) => break Err(e),
                }
            }
        };
        self.control_stats.retries += retries;
        let bytes = match unsealed {
            Ok(b) => b,
            Err(e) => {
                let reason = format!("parked image failed to unseal: {e}");
                self.control_stats.quarantines += 1;
                self.sessions.insert(
                    name.to_string(),
                    SessionSlot::Quarantined(
                        ParkedSession {
                            sealed,
                            ctx,
                            common,
                        },
                        reason.clone(),
                    ),
                );
                return Err(TwineError::Quarantined {
                    session: name.to_string(),
                    reason,
                });
            }
        };
        // Strip the durable freshness wrapper if present (warm restores
        // never leave the service's custody, so the tag is not re-checked
        // here — recover() is where freshness gates admission), then
        // dispatch on the image format version: 2 = delta against the
        // module's shared base image (pooled park), 1 = full snapshot.
        let (_tag, payload) = Self::unwrap_freshness(&bytes);
        let mut instance = if payload.first() == Some(&2) {
            let Some(delta) = SnapshotDelta::from_bytes(payload) else {
                reinstate(self, ctx, common, sealed);
                return Err(TwineError::Session(format!(
                    "session {name:?}: corrupt parked image"
                )));
            };
            // Obtain an instance at the base state: a pool slot if one is
            // parked (likely the very slot this session recycled), else a
            // fresh instantiation (deterministic — poolable modules have no
            // start function).
            let mut instance = match self.pool_checkout(&common.stats.module_key) {
                Some(mut slot) => {
                    self.control_stats.pool_hits += 1;
                    drop(slot.replace_host_data(Box::new(ctx)));
                    slot
                }
                None => {
                    self.control_stats.pool_misses += 1;
                    match Instance::instantiate_shared(
                        Arc::clone(&common.compiled),
                        &self.linker,
                        Box::new(ctx),
                        None,
                    ) {
                        Ok(mut i) => {
                            i.clear_dirty();
                            i.meter.reset();
                            i
                        }
                        Err((e, host_data)) => {
                            let ctx = *host_data.downcast::<WasiCtx>().expect("wasi ctx");
                            reinstate(self, ctx, common, sealed);
                            return Err(TwineError::Module(e));
                        }
                    }
                }
            };
            self.control_stats.dirty_pages_restored += delta.page_count() as u64;
            if !instance.apply_delta(&delta) {
                let ctx = *instance
                    .replace_host_data(Box::new(()))
                    .downcast::<WasiCtx>()
                    .expect("wasi ctx");
                reinstate(self, ctx, common, sealed);
                return Err(TwineError::Session(format!(
                    "session {name:?}: parked delta does not fit its module"
                )));
            }
            instance
        } else {
            let Some(snap) = InstanceSnapshot::from_bytes(payload) else {
                reinstate(self, ctx, common, sealed);
                return Err(TwineError::Session(format!(
                    "session {name:?}: corrupt parked image"
                )));
            };
            match Instance::from_snapshot(
                Arc::clone(&common.compiled),
                &self.linker,
                &snap,
                Box::new(ctx),
            ) {
                Ok(i) => i,
                Err((e, host_data)) => {
                    let ctx = *host_data.downcast::<WasiCtx>().expect("wasi ctx");
                    reinstate(self, ctx, common, sealed);
                    return Err(TwineError::Module(e));
                }
            }
        };
        instance.set_page_sink(Some(Box::new(EpcSink::new(
            self.enclave.epc(),
            common.stats.epc_base_page,
        ))));
        if self.control.epoch_slack.is_some() {
            instance.set_epoch(Some(Arc::clone(&self.epoch)));
        }
        self.control_stats.restores += 1;
        self.control_stats.unsealed_bytes += sealed.len() as u64;
        self.sessions
            .insert(name.to_string(), SessionSlot::Live(Session { instance, common }));
        Ok(())
    }

    /// Whether EPC residency exceeds the configured park watermark.
    fn epc_over_watermark(&self) -> bool {
        let Some(frac) = self.control.epc_park_watermark else {
            return false;
        };
        let epc = self.enclave.epc();
        let limit = epc.limit_pages();
        if limit == 0 {
            return false;
        }
        #[allow(clippy::cast_precision_loss)]
        let threshold = (limit as f64 * frac).max(0.0) as usize;
        epc.resident_pages() > threshold
    }

    /// Whether the eviction policy wants fewer live sessions right now.
    fn over_pressure(&self, live: usize) -> bool {
        self.control.max_live_sessions.is_some_and(|max| live > max)
            || self.epc_over_watermark()
    }

    /// Park least-recently-used live sessions while the eviction policy
    /// reports pressure (live count over budget, or EPC residency over the
    /// watermark). `exclude` protects the session currently being served —
    /// eviction never races the in-flight invoke.
    pub(crate) fn enforce_pressure(&mut self, exclude: Option<&str>) {
        // Pool capacity rides the same pressure signal the eviction policy
        // uses: when EPC residency crosses the watermark, idle
        // pre-instantiated slots are freed *before* any live tenant is
        // parked — spare warm capacity is the cheapest memory to give back.
        if self.epc_over_watermark() {
            self.pool.drain();
        }
        loop {
            let live = self.live_session_count() + self.live_db_session_count();
            if live == 0 || !self.over_pressure(live) {
                return;
            }
            // One LRU policy across both session kinds: the victim is the
            // least-recently-used live session, Wasm or database.
            let wasm_victim = self
                .sessions
                .iter()
                .filter(|(n, s)| {
                    matches!(s, SessionSlot::Live(_)) && exclude != Some(n.as_str())
                })
                .min_by_key(|(_, s)| s.common().last_use)
                .map(|(n, s)| (n.clone(), s.common().last_use));
            let db_victim = self
                .db_sessions
                .iter()
                .filter(|(n, d)| d.is_live() && exclude != Some(n.as_str()))
                .min_by_key(|(_, d)| d.last_use)
                .map(|(n, d)| (n.clone(), d.last_use));
            let parked = match (wasm_victim, db_victim) {
                (Some((w, wu)), Some((_, du))) if wu <= du => self.park_session(&w).is_ok(),
                (_, Some((d, _))) => self.db_park_session(&d).is_ok(),
                (Some((w, _)), None) => self.park_session(&w).is_ok(),
                // Only the excluded session is live: nothing to park.
                (None, None) => return,
            };
            if !parked {
                return;
            }
        }
    }

    /// Recycle a session to its post-instantiation state (pool reuse):
    /// memory image, globals and table are restored from the snapshot and
    /// the WASI per-run state is cleared — **without** re-running decode,
    /// validate, instantiate or the data segments. The file-system backend
    /// and the trusted-clock watermark persist (files survive; the clock
    /// stays monotonic).
    pub fn reset_session(&mut self, name: &str) -> Result<(), TwineError> {
        self.ensure_live(name)?;
        self.use_seq += 1;
        let use_seq = self.use_seq;
        let Some(SessionSlot::Live(sess)) = self.sessions.get_mut(name) else {
            unreachable!("ensure_live leaves the session live");
        };
        sess.common.last_use = use_seq;
        sess.instance.reset_to_image(&sess.common.base_snapshot);
        sess.instance.state::<WasiCtx>().reset_for_invocation();
        Ok(())
    }

    /// Override the per-invocation fuel budget of one session (defaults to
    /// the builder's fuel).
    pub fn set_session_fuel(&mut self, name: &str, fuel: Option<u64>) -> Result<(), TwineError> {
        let slot = self
            .sessions
            .get_mut(name)
            .ok_or_else(|| TwineError::Session(format!("no session named {name:?}")))?;
        slot.common_mut().fuel = fuel;
        Ok(())
    }

    /// Override the per-invocation preemption deadline of one session
    /// (defaults to [`ControlPlane::deadline`]). Like fuel, the deadline
    /// is denominated in baseline-constituent instructions; unlike fuel,
    /// exceeding it is a scheduler yield, not a tenant fault — guest state
    /// is kept, not wiped.
    pub fn set_session_deadline(
        &mut self,
        name: &str,
        deadline: Option<u64>,
    ) -> Result<(), TwineError> {
        let slot = self
            .sessions
            .get_mut(name)
            .ok_or_else(|| TwineError::Session(format!("no session named {name:?}")))?;
        slot.common_mut().deadline = deadline;
        Ok(())
    }

    /// The trusted-clock watermark of a session (last `clock_time_get`
    /// value handed to the guest; 0 if the guest never read the clock).
    #[must_use]
    pub fn session_clock_watermark(&self, name: &str) -> Option<u64> {
        self.sessions
            .get(name)
            .map(|s| s.common().watermark.load(Ordering::Relaxed))
    }

    /// Close a session (live or parked), returning its file-system backend
    /// so the embedder can persist or migrate the tenant's protected
    /// files. The cached compiled module stays in the cache for future
    /// sessions — reclaim orphaned entries with
    /// [`module_cache().evict_unreferenced()`](ModuleCache::evict_unreferenced).
    pub fn close_session(&mut self, name: &str) -> Option<Box<dyn FsBackend>> {
        let slot = self.sessions.remove(name)?;
        // Retire the durable record and bump the session's monotonic
        // counter: a replay of the removed record now carries a stale tag
        // and recover() rejects it.
        if let Some(store) = &self.control.durable_parks {
            store.remove_record(name);
            store.bump(name);
        }
        match slot {
            SessionSlot::Live(mut sess) => {
                // Release the session's EPC pages: a closed tenant must not
                // keep pinning residency. Flush first so buffered page
                // transitions fold before the discard, not after.
                sess.instance.flush_page_sink();
                let mem_bytes = sess.instance.memory().map_or(0, |m| m.size_bytes() as u64);
                self.enclave.epc().discard_range(
                    sess.common.stats.epc_base_page,
                    mem_bytes.div_ceil(4096),
                );
                if sess.common.pooled {
                    // Recycle the instance into the pool: the next open of
                    // this module skips instantiation entirely.
                    let mut instance = sess.instance;
                    instance.reset_to_image(&sess.common.base_snapshot);
                    instance.set_page_sink(None);
                    instance.set_epoch(None);
                    let ctx = *instance
                        .replace_host_data(Box::new(()))
                        .downcast::<WasiCtx>()
                        .expect("service sessions hold a WasiCtx");
                    self.pool.put(sess.common.stats.module_key, instance);
                    return Some(wasi_backend_into_box(ctx));
                }
                sess.instance
                    .into_state::<WasiCtx>()
                    .map(wasi_backend_into_box)
            }
            // A parked session's pages were already discarded at park time;
            // its WASI context is right here. Closing a quarantined session
            // likewise returns its backend — the tenant's protected files
            // were never part of the damaged sealed image.
            SessionSlot::Parked(parked) | SessionSlot::Quarantined(parked, _) => {
                Some(wasi_backend_into_box(parked.ctx))
            }
        }
    }

    /// Rebuild the session table from the durable park store after a
    /// (simulated) enclave crash/restart: for every durable record, verify
    /// journal integrity, unseal the image, check its freshness tag
    /// against the processor monotonic counter, recompile the module and
    /// re-admit the session **parked** — its first invoke restores it
    /// bit-identical to the state it durably parked with.
    ///
    /// Freshness: a record whose tag is `>= counter` is accepted (a crash
    /// between record write and counter bump leaves exactly one record one
    /// ahead) and the counter fast-forwards; a *stale* tag is a
    /// rollback/replay and fails typed with [`TwineError::Rollback`].
    ///
    /// Protected files are **not** recovered — they live in per-session
    /// backend storage outside the park image; a recovered session starts
    /// with a fresh backend, exactly like a new open.
    ///
    /// Returns the recovered session names (sorted — recovery order is
    /// deterministic).
    pub fn recover(&mut self) -> Result<Vec<String>, TwineError> {
        let Some(store) = self.control.durable_parks.clone() else {
            return Err(TwineError::Session(
                "recover() requires ControlPlane::durable_parks".to_string(),
            ));
        };
        let key = self.record_key();
        let mut recovered = Vec::new();
        for name in store.session_names() {
            if self.sessions.contains_key(&name) || self.db_sessions.contains_key(&name) {
                continue;
            }
            let (wasm, sealed) = store.read_record(&name, key).map_err(|e| {
                TwineError::Session(format!("durable record for {name:?}: {e}"))
            })?;
            // The sealed image crosses back into the enclave; unseal it to
            // validate integrity and read the freshness tag. Transient
            // (injected) faults are retried like any warm restore.
            let mut retries = 0u64;
            with_retries(&self.enclave, &mut retries, |attempt| {
                self.enclave.try_ocall(attempt, sealed.len() as u64, || ())
            })
            .map_err(TwineError::Sgx)?;
            let bytes = with_retries(&self.enclave, &mut retries, |attempt| {
                self.enclave.ecall(|| self.enclave.try_unseal(attempt, &sealed))
            })
            .map_err(TwineError::Sgx)?;
            self.control_stats.retries += retries;
            let (tag, payload) = Self::unwrap_freshness(&bytes);
            let Some(tag) = tag else {
                return Err(TwineError::Session(format!(
                    "durable record for {name:?} lacks a freshness tag"
                )));
            };
            let want = store.peek(&name);
            if tag < want {
                self.control_stats.rollback_rejected += 1;
                return Err(TwineError::Rollback {
                    session: name,
                    have: tag,
                    want,
                });
            }
            store.fast_forward(&name, tag);
            // Format byte 4: a database-session manifest. Rebuild the
            // tenant's protected backend from the manifest's file images
            // and re-admit the DB session parked — its first statement
            // reopens the database bit-identical to the parked state.
            if payload.first() == Some(&crate::dbsession::DB_MANIFEST_FORMAT) {
                self.db_recover_record(&name, payload, sealed)?;
                self.control_stats.recovered_sessions += 1;
                recovered.push(name);
                continue;
            }
            let pooled = payload.first() == Some(&2);

            let (compiled, module_key, cache_hit) =
                self.cache.get_or_compile(&wasm).map_err(TwineError::Module)?;
            let backend = make_backend(
                self.tpl.fs,
                &self.enclave,
                self.tpl.pfs_mode,
                self.tpl.pfs_cache_nodes,
                self.profiler.clone(),
            );
            let watermark = Arc::new(AtomicU64::new(0));
            let ctx = build_wasi_ctx(
                backend,
                &self.tpl.preopen,
                self.tpl.rights,
                &self.tpl.args,
                &self.tpl.env,
                &self.enclave,
                &watermark,
            );
            // A throwaway instantiation re-derives the base snapshot the
            // restore path patches against (deterministic: same module,
            // same data segments — and for pooled modules the shared base
            // image is captured once per (module, tier) anyway).
            let fresh = match Instance::instantiate_shared(
                Arc::clone(&compiled),
                &self.linker,
                Box::new(ctx),
                self.tpl.fuel,
            ) {
                Ok(i) => i,
                Err((e, _ctx)) => {
                    self.cache.evict_if_unreferenced(&module_key);
                    return Err(TwineError::Module(e));
                }
            };
            let base_snapshot = if pooled {
                Arc::clone(compiled.base_image_or_init(|| fresh.snapshot()))
            } else {
                Arc::new(fresh.snapshot())
            };
            let ctx = fresh
                .into_state::<WasiCtx>()
                .expect("recover instantiates with a WasiCtx");
            let slot = self.epc_slots.fetch_add(1, Ordering::Relaxed);
            let epc_base_page = (slot + 1) << 32;
            self.use_seq += 1;
            let common = SessionCommon {
                compiled,
                base_snapshot,
                pooled,
                watermark,
                fuel: self.tpl.fuel,
                deadline: self.control.deadline,
                stats: SessionStats {
                    module_key,
                    wasm_bytes: wasm.len(),
                    cache_hit,
                    epc_base_page,
                    invocations: 0,
                },
                last_use: self.use_seq,
                rate: RateState::default(),
                wasm: Some(Arc::new(wasm)),
            };
            self.sessions.insert(
                name.clone(),
                SessionSlot::Parked(ParkedSession {
                    sealed,
                    ctx,
                    common,
                }),
            );
            self.control_stats.recovered_sessions += 1;
            recovered.push(name);
        }
        Ok(recovered)
    }
}
