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

use std::any::Any;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use twine_crypto::kdf::KeyName;
use twine_crypto::Sha256;
use twine_sgx::{Enclave, FaultKind, Processor, SgxError, SimClock};
use twine_wasi::{FsBackend, WasiCtx};
use twine_wasm::compile::CompiledModule;
use twine_wasm::{Instance, InstanceSnapshot, Linker, ModuleError, SnapshotDelta, Trap, Value};

use crate::control::{ControlPlane, ControlStats};
use crate::dbsession::{DbCommon, DbManifest, DbSession, DB_MANIFEST_FORMAT};
use crate::pool::InstancePool;
use crate::runtime::{
    base_linker, build_wasi_ctx, invoke_in_enclave, make_backend, with_retries,
    EpcSink, RunReport, SessionTemplate, TwineBuilder, TwineError,
};

/// One cache slot: a [`OnceLock`] so that when many threads race to open
/// sessions over identical bytes, exactly one performs the compile while
/// the others block on the slot and then share the same
/// `Arc<CompiledModule>` (pointer-identical). A failed compile is recorded
/// in the slot (every concurrent waiter of that attempt sees the error)
/// and the slot is then removed so a later open may retry.
type CacheSlot = Arc<OnceLock<Result<Arc<CompiledModule>, ModuleError>>>;

/// A content-addressed cache of compiled modules: identical Wasm bytes
/// compile once (for the register tier) and share one
/// `Arc<CompiledModule>` across all sessions of a service.
///
/// Thread-safe with interior mutability (`&self` everywhere): the sharded
/// service hands one `Arc<ModuleCache>` to every shard. The map lock is
/// held only for slot bookkeeping — compilation itself runs *outside* it,
/// so two shards compiling **different** modules proceed in parallel,
/// while racers on the **same** key serialise on the per-key [`OnceLock`]
/// and compile exactly once.
#[derive(Default)]
pub struct ModuleCache {
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
    /// Empty, unbounded cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
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

    /// The content address of `wasm`: SHA-256 over the register tier's
    /// domain byte (`2`) followed by the bytes. Keeping the byte keeps
    /// every key (as reported in [`SessionStats::module_key`])
    /// bit-identical to the keys of earlier releases.
    #[must_use]
    pub fn content_key(wasm: &[u8]) -> [u8; 32] {
        let mut h = Sha256::new();
        h.update(&[2u8]);
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
        let key = Self::content_key(wasm);
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
                CompiledModule::from_bytes(wasm).map(Arc::new)
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

/// Wasm-session state that survives parking: everything except the live
/// [`Instance`] (whose guest-visible state travels through the sealed
/// snapshot) and the `WasiCtx` (which moves between the instance's host
/// data and the parked slot).
pub(crate) struct SessionCommon {
    /// Keeps the compiled module alive and shared; also handy for tests
    /// asserting that sessions share one cache entry.
    compiled: Arc<CompiledModule>,
    /// Post-instantiation state (data segments applied, start function run)
    /// for [`TwineService::reset_session`], post-trap recovery and the
    /// base of every restore. For a poolable module this is the module's
    /// **shared** base image (one `Arc` per module, not one clone per
    /// session) and park deltas are taken against it; the session's dirty
    /// bitmap is re-based against it at open, so resets and park deltas
    /// touch only dirty pages. A module with a start function keeps a
    /// private copy, and its parks carry every page.
    base_snapshot: Arc<InstanceSnapshot>,
    /// Whether the session's instance recycles through the pool (pooling
    /// enabled ∧ module poolable). Decided once at open; it changes what
    /// a restore starts from, never what crosses the boundary.
    pooled: bool,
    /// Trusted-clock monotonicity watermark (§IV-C), persistent across
    /// invocations, [`TwineService::reset_session`] and park/restore.
    watermark: Arc<AtomicU64>,
    fuel: Option<u64>,
    stats: SessionStats,
    /// The delivered Wasm bytes, kept only when a durable park store is
    /// configured: the durable record embeds them so
    /// [`TwineService::recover`] can recompile after a restart.
    wasm: Option<Arc<Vec<u8>>>,
}

/// One live Wasm tenant: a persistent instance + WASI context inside the
/// service's enclave.
pub(crate) struct Session {
    instance: Instance,
    common: SessionCommon,
}

/// A live session of either kind. Wasm and database sessions differ in
/// what runs (an instance vs. a connection) and in what their park image
/// holds; everything else — the table, the lifecycle, the eviction policy —
/// is shared.
// Variant sizes differ by design, here and in `SlotState`: a live slot
// keeps the whole `Session` inline and hot (one invoke = one map lookup,
// no extra chase), and a shard holds at most `max_live_sessions` of them.
#[allow(clippy::large_enum_variant)]
pub(crate) enum Live {
    Wasm(Session),
    Db(DbSession),
}

impl Live {
    /// Bring the session to rest — fold a Wasm session's buffered page
    /// transitions into the EPC model, commit what a database connection
    /// still holds and flush its database file — and report how many pages of its private EPC range it
    /// may hold resident, whether or not coming to rest succeeded.
    fn settle(&mut self) -> (u64, Result<(), TwineError>) {
        match self {
            Live::Wasm(s) => {
                s.instance.flush_page_sink();
                // 4 KiB granularity, the same the page sink touches in.
                let mem_bytes = s.instance.memory().map_or(0, |m| m.size_bytes() as u64);
                (mem_bytes.div_ceil(4096), Ok(()))
            }
            Live::Db(d) => d.settle(),
        }
    }

    /// The session's plaintext park image, taken at rest: a Wasm session
    /// images a delta (format 2) — O(dirty pages) against its module's
    /// shared base image, or every page when the module has a start
    /// function and so no base a restarted enclave could rebuild — and a
    /// database its file manifest (format 4).
    fn image(&self) -> Result<Vec<u8>, TwineError> {
        match self {
            Live::Wasm(s) if s.common.compiled.poolable() => {
                Ok(s.instance.snapshot_delta(&s.common.base_snapshot).to_bytes())
            }
            Live::Wasm(s) => Ok(s.instance.full_delta().to_bytes()),
            Live::Db(d) => d.manifest(),
        }
    }

    /// The module bytes a durable park record embeds next to the sealed
    /// image (a database session has none; its manifest is self-contained).
    /// `None` when the session cannot be parked durably.
    fn durable_module(&self) -> Option<&[u8]> {
        match self {
            Live::Wasm(s) => s.common.wasm.as_deref().map(Vec::as_slice),
            Live::Db(_) => Some(&[]),
        }
    }
}

/// What stays with the service while a session's image is sealed out.
#[allow(clippy::large_enum_variant)]
pub(crate) enum ParkedBody {
    /// The WASI context (with the tenant's protected files) — files are
    /// independently protected by the PFS layer; what the seal protects is
    /// the *guest memory image*.
    Wasm(WasiCtx, SessionCommon),
    /// The tenant's backend: the database *is* backend state.
    Db(DbCommon),
}

/// One sealed-out tenant: its image has left the enclave encrypted and
/// integrity-bound, its EPC pages are released.
pub(crate) struct Parked {
    /// `seal` of the image taken at park time (DESIGN.md §11).
    pub(crate) sealed: Vec<u8>,
    pub(crate) body: ParkedBody,
}

/// The three states of the session lifecycle (DESIGN.md §10). A live slot
/// has no sealed image and a sealed-out one has no instance or connection,
/// by construction.
#[allow(clippy::large_enum_variant)]
pub(crate) enum SlotState {
    Live(Live),
    Parked(Parked),
    /// A parked session whose image could not be restored (unsealing kept
    /// failing beyond the retry budget). The sealed state and the tenant's
    /// files are preserved — nothing is lost, and a fixed blob could in
    /// principle be re-adopted — but calls are rejected typed
    /// ([`TwineError::Quarantined`]) instead of crashing the service or
    /// serving corrupt state.
    Quarantined(Parked, String),
}

/// A session-table slot: one tenant of either kind, in one of the three
/// lifecycle states.
pub(crate) struct SessionSlot {
    /// LRU use sequence (bumped on open and on every call): the eviction
    /// policy parks the live session with the smallest value.
    pub(crate) last_use: u64,
    /// First page of the session's private EPC range.
    pub(crate) epc_base_page: u64,
    pub(crate) state: SlotState,
}

impl SessionSlot {
    fn is_live(&self) -> bool {
        matches!(self.state, SlotState::Live(_))
    }

    pub(crate) fn is_db(&self) -> bool {
        self.wasm().is_none()
    }

    /// The Wasm-session state in this slot, live or sealed out; `None`
    /// for a database session.
    fn wasm(&self) -> Option<&SessionCommon> {
        match &self.state {
            SlotState::Live(Live::Wasm(s)) => Some(&s.common),
            SlotState::Live(Live::Db(_)) => None,
            SlotState::Parked(p) | SlotState::Quarantined(p, _) => match &p.body {
                ParkedBody::Wasm(_, common) => Some(common),
                ParkedBody::Db(_) => None,
            },
        }
    }

    fn wasm_mut(&mut self) -> Option<&mut SessionCommon> {
        match &mut self.state {
            SlotState::Live(Live::Wasm(s)) => Some(&mut s.common),
            SlotState::Live(Live::Db(_)) => None,
            SlotState::Parked(p) | SlotState::Quarantined(p, _) => match &mut p.body {
                ParkedBody::Wasm(_, common) => Some(common),
                ParkedBody::Db(_) => None,
            },
        }
    }
}

pub(crate) fn no_session(name: &str) -> TwineError {
    TwineError::Session(format!("no session named {name:?}"))
}

/// Format byte of the durable freshness wrapper around a park image.
const FRESHNESS_FORMAT: u8 = 3;

/// A decoded park image (DESIGN.md §11).
enum Image {
    /// Format 2: a Wasm session's delta against its base state.
    Wasm(SnapshotDelta),
    /// Format 4: a database session's file manifest.
    Db(DbManifest),
}

/// Prefix `inner` with the durable freshness wrapper (format byte 3 +
/// monotonic tag); identity when no durable store is configured.
fn wrap_freshness(tag: Option<u64>, inner: Vec<u8>) -> Vec<u8> {
    match tag {
        None => inner,
        Some(tag) => {
            let mut out = Vec::with_capacity(inner.len() + 9);
            out.push(FRESHNESS_FORMAT);
            out.extend_from_slice(&tag.to_le_bytes());
            out.extend_from_slice(&inner);
            out
        }
    }
}

/// Decode an unsealed park image into its freshness tag (if wrapped) and
/// typed payload — the one place the three format bytes are told apart.
/// `None` on any structural corruption.
fn decode_image(bytes: &[u8]) -> Option<(Option<u64>, Image)> {
    let (tag, payload) = match bytes.split_first() {
        Some((&FRESHNESS_FORMAT, rest)) => {
            let (tag, inner) = rest.split_at_checked(8)?;
            (Some(u64::from_le_bytes(tag.try_into().ok()?)), inner)
        }
        _ => (None, bytes),
    };
    let image = match *payload.first()? {
        2 => Image::Wasm(SnapshotDelta::from_bytes(payload)?),
        DB_MANIFEST_FORMAT => Image::Db(DbManifest::decode(&payload[1..])?),
        _ => return None,
    };
    Some((tag, image))
}

/// Recover the tenant's WASI context from an instance's host data.
fn into_ctx(host_data: Box<dyn Any + Send>) -> WasiCtx {
    *host_data
        .downcast::<WasiCtx>()
        .expect("service sessions hold a WasiCtx")
}

fn corrupt_image(name: &str) -> TwineError {
    TwineError::Session(format!("session {name:?}: corrupt parked image"))
}

/// What a standalone service owns and the shards of a
/// [`crate::ShardedService`] share: the one enclave, the immutable
/// artifacts built once per service, and the allocators that must never
/// hand two shards the same thing.
#[derive(Clone)]
pub(crate) struct Shared {
    pub(crate) enclave: Arc<Enclave>,
    /// The WASI + libm host-function table.
    linker: Arc<Linker>,
    pub(crate) cache: Arc<ModuleCache>,
    /// Allocator of private EPC slots; slot `n` covers pages
    /// `[(n+1) << 32, ...)`. Shared so shards never hand two sessions
    /// aliasing ranges.
    epc_slots: Arc<AtomicU64>,
    /// Per-session construction template (from the builder).
    pub(crate) tpl: SessionTemplate,
    /// Control-plane policy (eviction, preemption, admission). Defaults
    /// are all-off: a default service behaves exactly like before the
    /// control plane existed.
    pub(crate) control: ControlPlane,
    /// Pre-instantiated base-state slots (DESIGN.md §11). Capacity 0 when
    /// pooling is off — every `put` then drops the instance. One pool for
    /// the whole fleet: a slot parked by one shard warms another shard's
    /// cold open (instances carry no shard-local state).
    pool: Arc<InstancePool>,
}

impl Shared {
    /// Launch the enclave `b` describes and build everything its service
    /// shares.
    pub(crate) fn from_builder(b: TwineBuilder) -> Self {
        let enclave = b.launch();
        let cache = Arc::new(ModuleCache::new());
        cache.set_capacity(b.control.module_cache_capacity);
        let pool = Arc::new(InstancePool::new(
            b.control.pool_slots_per_module.unwrap_or(0),
        ));
        Self {
            enclave,
            linker: Arc::new(base_linker()),
            cache,
            epc_slots: Arc::new(AtomicU64::new(0)),
            tpl: b.tpl,
            control: b.control,
            pool,
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
    pub(crate) shared: Shared,
    /// The one session table: Wasm sessions and tenant database sessions
    /// (DESIGN.md §13) share a name space, the lifecycle and the LRU
    /// eviction policy. Shard-local, single-owner.
    pub(crate) sessions: HashMap<String, SessionSlot>,
    /// Monotonic use sequence feeding the LRU eviction policy.
    pub(crate) use_seq: u64,
    pub(crate) control_stats: ControlStats,
    /// Whether `control_stats` fills the enclave-global `faults_injected`
    /// gauge. True for a standalone service; false for the shards of a
    /// [`crate::ShardedService`] (the handle fills it exactly once after
    /// merging, so the shared plan's count is not multiplied by the shard
    /// count).
    fill_faults: bool,
}

impl TwineService {
    /// A service — standalone, or one shard of a
    /// [`crate::ShardedService`] — over `shared`, with its own session
    /// table.
    pub(crate) fn new(shared: Shared, standalone: bool) -> Self {
        Self {
            shared,
            sessions: HashMap::new(),
            use_seq: 0,
            control_stats: ControlStats::default(),
            fill_faults: standalone,
        }
    }

    /// The enclave hosting every session.
    #[must_use]
    pub fn enclave(&self) -> &Arc<Enclave> {
        &self.shared.enclave
    }

    /// The simulated processor.
    #[must_use]
    pub fn processor(&self) -> &Processor {
        self.shared.enclave.processor()
    }

    /// The virtual clock (shared by all sessions; includes launch cost).
    #[must_use]
    pub fn clock(&self) -> &SimClock {
        self.shared.enclave.clock()
    }

    /// The content-addressed module cache (thread-safe: eviction policy
    /// belongs to the embedder, e.g. [`ModuleCache::evict_unreferenced`]
    /// after a wave of [`close_session`](Self::close_session)s).
    #[must_use]
    pub fn module_cache(&self) -> &ModuleCache {
        &self.shared.cache
    }

    /// Number of open sessions of either kind (live, parked or
    /// quarantined).
    #[must_use]
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// Number of live (unparked) sessions.
    #[must_use]
    pub fn live_session_count(&self) -> usize {
        self.sessions.values().filter(|s| s.is_live()).count()
    }

    /// Number of parked (sealed-out) sessions.
    #[must_use]
    pub fn parked_session_count(&self) -> usize {
        self.sessions
            .values()
            .filter(|s| matches!(s.state, SlotState::Parked(_)))
            .count()
    }

    /// Whether a session is currently parked. A quarantined session is
    /// not: it is sealed out, but no call will restore it.
    #[must_use]
    pub fn session_parked(&self, name: &str) -> Option<bool> {
        self.sessions
            .get(name)
            .map(|s| matches!(s.state, SlotState::Parked(_)))
    }

    /// Control-plane counters, with the live/parked gauges filled in at
    /// read time (and, for a standalone service, the enclave-global
    /// fault-injection gauge).
    #[must_use]
    pub fn control_stats(&self) -> ControlStats {
        let mut stats = ControlStats {
            live_sessions: self.live_session_count() as u64,
            parked_sessions: self.parked_session_count() as u64,
            ..self.control_stats
        };
        if self.fill_faults {
            if let Some(plan) = self.shared.enclave.fault_plan() {
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
            .map(|s| matches!(s.state, SlotState::Quarantined(..)))
    }

    /// Number of pre-instantiated base-state slots currently parked in the
    /// instance pool (across all modules; shared across shards).
    #[must_use]
    pub fn pooled_slot_count(&self) -> usize {
        self.shared.pool.len()
    }

    /// Names of the open sessions of either kind (unordered; includes
    /// parked).
    #[must_use]
    pub fn session_names(&self) -> Vec<&str> {
        self.sessions.keys().map(String::as_str).collect()
    }

    /// Bookkeeping for one Wasm session.
    #[must_use]
    pub fn session_stats(&self, name: &str) -> Option<&SessionStats> {
        Some(&self.sessions.get(name)?.wasm()?.stats)
    }

    /// The compiled module backing a session (shared across sessions with
    /// identical Wasm bytes).
    #[must_use]
    pub fn session_module(&self, name: &str) -> Option<&Arc<CompiledModule>> {
        Some(&self.sessions.get(name)?.wasm()?.compiled)
    }

    /// The Wasm-session state behind `name` (a database session has none).
    fn wasm_mut(&mut self, name: &str) -> Result<&mut SessionCommon, TwineError> {
        self.sessions
            .get_mut(name)
            .and_then(SessionSlot::wasm_mut)
            .ok_or_else(|| no_session(name))
    }

    /// Check a pre-instantiated slot out of the pool, validating it first:
    /// a slot flagged by the fault plan's pool-corruption schedule, or one
    /// genuinely carrying residual dirty pages, is discarded (counted in
    /// [`ControlStats::pool_discards`]) instead of being handed to a
    /// tenant — the caller falls back to a fresh instantiation, which is
    /// semantically identical.
    fn pool_checkout(&mut self, module_key: &[u8; 32]) -> Option<Instance> {
        let mut attempt = 0u32;
        while let Some(slot) = self.shared.pool.take(module_key) {
            let injected = self
                .shared
                .enclave
                .fault_plan()
                .is_some_and(|p| p.should_fire(FaultKind::PoolCorrupt, attempt));
            if injected || slot.dirty_page_count() != 0 {
                self.control_stats.pool_discards += 1;
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
    fn record_key(&self) -> [u8; 16] {
        self.shared.enclave.get_key(KeyName::Seal, b"park-records")
    }

    pub(crate) fn check_name_free(&self, name: &str) -> Result<(), TwineError> {
        if self.sessions.contains_key(name) {
            return Err(TwineError::Session(format!(
                "session {name:?} already exists"
            )));
        }
        Ok(())
    }

    /// A fresh private file-system backend from the service's template.
    pub(crate) fn new_backend(&self) -> Box<dyn FsBackend> {
        make_backend(&self.shared.tpl, &self.shared.enclave)
    }

    /// A fresh WASI context over a fresh backend, with its trusted-clock
    /// watermark.
    fn new_ctx(&self) -> (WasiCtx, Arc<AtomicU64>) {
        let watermark = Arc::new(AtomicU64::new(0));
        let (tpl, enclave) = (&self.shared.tpl, &self.shared.enclave);
        (build_wasi_ctx(self.new_backend(), tpl, enclave, &watermark), watermark)
    }

    /// Reserve the next private EPC page range; returns its first page.
    pub(crate) fn take_epc_range(&self) -> u64 {
        (self.shared.epc_slots.fetch_add(1, Ordering::Relaxed) + 1) << 32
    }

    /// Enter a new session into the table, most recently used.
    pub(crate) fn admit(&mut self, name: &str, epc_base_page: u64, state: SlotState) {
        self.use_seq += 1;
        let prev = self.sessions.insert(
            name.to_string(),
            SessionSlot {
                last_use: self.use_seq,
                epc_base_page,
                state,
            },
        );
        debug_assert!(prev.is_none(), "session names are checked free before admission");
    }

    /// Whether sessions of `compiled` recycle their instances through the
    /// pool: pooling is on and the module instantiates deterministically.
    fn pools(&self, compiled: &CompiledModule) -> bool {
        self.shared.control.pool_slots_per_module.is_some() && compiled.poolable()
    }

    /// The parking-proof half of a new Wasm session.
    fn session_common(
        &self,
        (compiled, module_key, cache_hit): (Arc<CompiledModule>, [u8; 32], bool),
        wasm: &[u8],
        base_snapshot: Arc<InstanceSnapshot>,
        watermark: Arc<AtomicU64>,
        epc_base_page: u64,
    ) -> SessionCommon {
        SessionCommon {
            pooled: self.pools(&compiled),
            compiled,
            base_snapshot,
            watermark,
            fuel: self.shared.tpl.fuel,
            stats: SessionStats {
                module_key,
                wasm_bytes: wasm.len(),
                cache_hit,
                epc_base_page,
                invocations: 0,
            },
            wasm: self
                .shared
                .control
                .durable_parks
                .is_some()
                .then(|| Arc::new(wasm.to_vec())),
        }
    }

    /// Instantiate `compiled` over the tenant's `ctx`. The fuel budget
    /// applies to the start function too: tenant-supplied instantiation
    /// code cannot run unmetered.
    fn instantiate(
        &self,
        compiled: &Arc<CompiledModule>,
        ctx: WasiCtx,
    ) -> Result<Instance, (ModuleError, Box<dyn Any + Send>)> {
        let shared = &self.shared;
        Instance::instantiate_shared(Arc::clone(compiled), &shared.linker, Box::new(ctx), shared.tpl.fuel)
    }

    /// An instance of a poolable module at its base state, holding the
    /// tenant's `ctx`: a pool slot if one is parked — it is already at the
    /// base image with a clean dirty bitmap and meter (reset on its way
    /// in), and holds a placeholder `Box<()>` — else a fresh instantiation
    /// (deterministic: poolable modules have no start function).
    fn base_instance(
        &mut self,
        compiled: &Arc<CompiledModule>,
        module_key: &[u8; 32],
        ctx: WasiCtx,
    ) -> Result<Instance, (ModuleError, Box<dyn Any + Send>)> {
        match self.pool_checkout(module_key) {
            Some(mut slot) => {
                self.control_stats.pool_hits += 1;
                drop(slot.replace_host_data(Box::new(ctx)));
                Ok(slot)
            }
            None => {
                self.control_stats.pool_misses += 1;
                self.instantiate(compiled, ctx)
            }
        }
    }

    /// A module that cannot be instantiated must not stay compiled on its
    /// account: roll back the cache entry if this failed open was the only
    /// user, so repeated hostile opens (e.g. trapping start functions)
    /// cannot grow enclave memory session-lessly.
    fn failed_open(
        &self,
        compiled: Arc<CompiledModule>,
        module_key: &[u8; 32],
        e: ModuleError,
    ) -> TwineError {
        drop(compiled);
        self.shared.cache.evict_if_unreferenced(module_key);
        TwineError::Module(e)
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
        self.check_name_free(name)?;
        let (compiled, module_key, cache_hit) = self
            .shared
            .cache
            .get_or_compile(wasm)
            .map_err(TwineError::Module)?;
        // Copy into reserved memory: charge the boundary copy (one ECALL,
        // exactly like `TwineRuntime::load_wasm`).
        let enclave = &self.shared.enclave;
        enclave.ecall(|| {
            enclave.clock().add_cycles(wasm.len() as u64 / 4);
        });
        let (ctx, watermark) = self.new_ctx();

        // The pooling fast path (DESIGN.md §11): a poolable module's open
        // checks a pre-instantiated base-state slot out of the pool instead
        // of instantiating, when one is available.
        let instance = if self.pools(&compiled) {
            self.base_instance(&compiled, &module_key, ctx)
        } else {
            self.instantiate(&compiled, ctx)
        };
        let mut instance = match instance {
            Ok(instance) => instance,
            Err((e, _ctx)) => return Err(self.failed_open(compiled, &module_key, e)),
        };
        let epc_base_page = self.take_epc_range();
        self.attach(&mut instance, epc_base_page);
        let snapshot = base_snapshot(&compiled, &instance);
        // Re-base the dirty bitmap: from here on it over-approximates the
        // pages differing from `snapshot`, which is what makes
        // O(dirty-pages) resets and park deltas sound.
        instance.clear_dirty();
        // Instantiation metering (start function, if any) is not part of any
        // invocation report: every invocation starts from a clean meter.
        instance.meter.reset();

        let module = (compiled, module_key, cache_hit);
        let common = self.session_common(module, wasm, snapshot, watermark, epc_base_page);
        let session = Session { instance, common };
        self.admit(name, epc_base_page, SlotState::Live(Live::Wasm(session)));
        // A fresh session counts against the eviction budget: park LRU
        // peers (never the newcomer) if this open pushed past it.
        self.enforce_pressure(Some(name));
        Ok(self.session_stats(name).expect("admitted above"))
    }

    /// Wire a live instance into the enclave: its page touches fold into
    /// the session's private EPC range.
    fn attach(&self, instance: &mut Instance, epc_base_page: u64) {
        instance.set_page_sink(Some(Box::new(EpcSink::new(
            self.shared.enclave.epc(),
            epc_base_page,
        ))));
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
        self.use_seq += 1;
        let slot = self
            .sessions
            .get_mut(session)
            .ok_or_else(|| no_session(session))?;
        slot.last_use = self.use_seq;
        if slot.is_db() {
            return Err(no_session(session));
        }
        // Restore a parked session warm. Done before `invoke_in_enclave`
        // captures its cycle baseline, so the invocation report covers the
        // invocation only (restore cost lands on the shared clock).
        self.ensure_live(session)?;

        let Some(SessionSlot {
            state: SlotState::Live(Live::Wasm(sess)),
            ..
        }) = self.sessions.get_mut(session)
        else {
            unreachable!("ensure_live leaves the session live");
        };
        // Recycle per-run state; everything else is warm reuse.
        sess.instance.meter.reset();
        sess.instance.fuel = sess.common.fuel;
        sess.instance.deadline = self.shared.control.deadline;
        sess.instance.state::<WasiCtx>().reset_for_invocation();

        let outcome = invoke_in_enclave(&self.shared.enclave, &mut sess.instance, func, args);
        self.control_stats.retries += outcome.retries;
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

    /// Move a sealed image across the enclave boundary (outward at park,
    /// inward at restore and recovery). An idempotent transfer: a faulted
    /// OCALL is simply re-issued, under the bounded-retry policy.
    fn transfer(&mut self, sealed: &[u8]) -> Result<(), TwineError> {
        let enclave = &self.shared.enclave;
        let mut retries = 0u64;
        let transfer = with_retries(enclave, &mut retries, |attempt| {
            enclave.try_ocall(attempt, sealed.len() as u64, || ())
        });
        self.control_stats.retries += retries;
        transfer.map_err(TwineError::Sgx)
    }

    /// Unseal an image that has crossed back into the enclave, under the
    /// bounded-retry policy: an injected corruption of the inward copy
    /// heals on a re-read; a genuinely tampered blob does not.
    fn unseal(&mut self, sealed: &[u8]) -> Result<Vec<u8>, SgxError> {
        let enclave = &self.shared.enclave;
        let mut retries = 0u64;
        let unsealed = with_retries(enclave, &mut retries, |attempt| {
            enclave.ecall(|| enclave.try_unseal(attempt, sealed))
        });
        self.control_stats.retries += retries;
        unsealed
    }

    /// Park a live session of either kind: take its image, **seal** it (it
    /// leaves the enclave, so it leaves encrypted and integrity-bound —
    /// accounted as boundary traffic like a protected-file write), write it
    /// through to the durable store if one is configured, and release the
    /// session's EPC pages. Idempotent on a session that is already sealed
    /// out. The next call restores it warm, bit-identical to never having
    /// been parked.
    ///
    /// # Errors
    /// [`TwineError::Session`] for an unknown name or a failed durable
    /// write, [`TwineError::Sgx`] if sealing or the transfer faults beyond
    /// the retry budget, [`TwineError::Db`] if a database cannot be
    /// committed. Whatever the error, the session is left live and
    /// servable, and nothing of it has been released.
    pub fn park_session(&mut self, name: &str) -> Result<(), TwineError> {
        let (name, mut slot) = self
            .sessions
            .remove_entry(name)
            .ok_or_else(|| no_session(name))?;
        let result;
        (slot.state, result) = match slot.state {
            SlotState::Live(mut live) => match self.seal_out(&name, slot.epc_base_page, &mut live) {
                Ok(sealed) => {
                    let body = self.retire(live);
                    (SlotState::Parked(Parked { sealed, body }), Ok(()))
                }
                Err(e) => (SlotState::Live(live), Err(e)),
            },
            // A parked session is already sealed out of the enclave, and so
            // is a quarantined one: parking it again is a no-op.
            sealed_out => (sealed_out, Ok(())),
        };
        self.sessions.insert(name, slot);
        result
    }

    /// The fallible half of a park, written once for both kinds: settle →
    /// image → freshness wrap → seal → outward transfer → durable write +
    /// counter bump → EPC discard → counters. `live` is only read until the
    /// discard, so an `Err` from any earlier stage leaves it untouched.
    fn seal_out(
        &mut self,
        name: &str,
        epc_base_page: u64,
        live: &mut Live,
    ) -> Result<Vec<u8>, TwineError> {
        let (pages, settled) = live.settle();
        settled?;
        let image = live.image()?;
        // With a durable store, the image is wrapped with a monotonic
        // freshness tag (format byte 3) before sealing.
        let durable = self.shared.control.durable_parks.clone();
        let tag = durable.as_ref().map(|d| d.peek(name) + 1);
        let bytes = wrap_freshness(tag, image);
        // Seal under the bounded-retry policy: a faulted seal retries the
        // same bytes.
        let enclave = &self.shared.enclave;
        let mut retries = 0u64;
        let sealed = with_retries(enclave, &mut retries, |attempt| {
            enclave.ecall(|| enclave.try_seal(attempt, &bytes))
        });
        self.control_stats.retries += retries;
        let sealed = sealed.map_err(TwineError::Sgx)?;
        self.transfer(&sealed)?;
        // Durable write-through: journalled record first, counter bump
        // second — recovery accepts `tag >= counter`, so a crash between
        // the two still recovers the record just written.
        if let (Some(store), Some(module)) = (&durable, live.durable_module()) {
            store
                .write_record(name, self.record_key(), module, &sealed)
                .map_err(|e| {
                    TwineError::Session(format!("durable park of {name:?} failed: {e}"))
                })?;
            store.bump(name);
        }
        self.shared.enclave.epc().discard_range(epc_base_page, pages);
        self.control_stats.parks += 1;
        self.control_stats.sealed_bytes += sealed.len() as u64;
        Ok(sealed)
    }

    /// Second half of a park: give up what only a live session holds and
    /// keep what its sealed-out slot needs.
    fn retire(&mut self, live: Live) -> ParkedBody {
        match live {
            Live::Wasm(Session { instance, common }) => {
                ParkedBody::Wasm(self.recycle(instance, &common), common)
            }
            Live::Db(session) => ParkedBody::Db(session.into_parked()),
        }
    }

    /// Part a Wasm session's instance from its WASI context. A pooled
    /// instance is recycled: O(dirty pages) reset back to the base image,
    /// then into the pool, where the next open (or restore) of the same
    /// module checks it out — no allocation, no data-segment replay.
    fn recycle(&mut self, mut instance: Instance, common: &SessionCommon) -> WasiCtx {
        if !common.pooled {
            return into_ctx(instance.replace_host_data(Box::new(())));
        }
        instance.reset_to_image(&common.base_snapshot);
        instance.set_page_sink(None);
        let ctx = into_ctx(instance.replace_host_data(Box::new(())));
        self.shared.pool.put(common.stats.module_key, instance);
        ctx
    }

    /// Restore a parked session of either kind to live; `Ok(false)` when
    /// it already is. The sealed image crosses back into the enclave, is
    /// unsealed, decoded and rehydrated at the same EPC base range. A
    /// failure of the transfer or of the rehydration leaves the slot
    /// parked, untouched; an image that will not unseal within the retry
    /// budget — or a genuinely tampered blob — **quarantines** the
    /// session: its sealed state and files are preserved, but it is typed
    /// out of service instead of crashing it.
    pub(crate) fn ensure_live(&mut self, name: &str) -> Result<bool, TwineError> {
        match self.sessions.get(name).map(|s| &s.state) {
            None => return Err(no_session(name)),
            Some(SlotState::Live(_)) => return Ok(false),
            Some(SlotState::Quarantined(_, reason)) => {
                return Err(TwineError::Quarantined {
                    session: name.to_string(),
                    reason: reason.clone(),
                });
            }
            Some(SlotState::Parked(_)) => {}
        }
        let Some((name, mut slot)) = self.sessions.remove_entry(name) else {
            unreachable!("matched Parked above");
        };
        let SlotState::Parked(parked) = slot.state else {
            unreachable!("matched Parked above");
        };
        let (state, result) = self.restore(&name, slot.epc_base_page, parked);
        slot.state = state;
        self.sessions.insert(name, slot);
        result.map(|()| true)
    }

    /// The restore pipeline, written once for both kinds: inward transfer
    /// → unseal → quarantine on hard failure → decode → kind-specific
    /// rehydration → counters. Returns the slot's next state.
    fn restore(
        &mut self,
        name: &str,
        epc_base_page: u64,
        parked: Parked,
    ) -> (SlotState, Result<(), TwineError>) {
        if let Err(e) = self.transfer(&parked.sealed) {
            return (SlotState::Parked(parked), Err(e));
        }
        let bytes = match self.unseal(&parked.sealed) {
            Ok(bytes) => bytes,
            Err(e) => {
                let reason = format!("parked image failed to unseal: {e}");
                self.control_stats.quarantines += 1;
                let err = TwineError::Quarantined {
                    session: name.to_string(),
                    reason: reason.clone(),
                };
                return (SlotState::Quarantined(parked, reason), Err(err));
            }
        };
        // Warm restores never leave the service's custody, so a freshness
        // tag is not re-checked here — recover() is where freshness gates
        // admission.
        let Some((_tag, image)) = decode_image(&bytes) else {
            return (SlotState::Parked(parked), Err(corrupt_image(name)));
        };
        let sealed_bytes = parked.sealed.len() as u64;
        let (state, result) = self.rehydrate(name, epc_base_page, parked, image);
        if result.is_ok() {
            self.control_stats.restores += 1;
            self.control_stats.unsealed_bytes += sealed_bytes;
        }
        (state, result)
    }

    /// Bring a sealed-out session back to life from its decoded image —
    /// the kind-specific step of a restore. Returns the slot's next state:
    /// live, or parked as it was.
    fn rehydrate(
        &mut self,
        name: &str,
        epc_base_page: u64,
        Parked { sealed, body }: Parked,
        image: Image,
    ) -> (SlotState, Result<(), TwineError>) {
        let parked = |body, e| (SlotState::Parked(Parked { sealed, body }), Err(e));
        let (common, instance) = match (body, image) {
            // The backend is authoritative for the data; what the unsealed
            // manifest proves is that the park-time image (and thus the
            // durable record, when one exists) is intact.
            (ParkedBody::Db(common), Image::Db(_)) => {
                return match DbSession::connect(&self.shared.enclave, common, epc_base_page) {
                    Ok(session) => (SlotState::Live(Live::Db(session)), Ok(())),
                    Err((e, common)) => parked(ParkedBody::Db(common), e),
                };
            }
            (ParkedBody::Wasm(ctx, common), Image::Wasm(delta)) => {
                let instance = self.instance_from_delta(name, ctx, &common, &delta);
                (common, instance)
            }
            // Not an image this kind of session parks.
            (body, _) => return parked(body, corrupt_image(name)),
        };
        match instance {
            Ok(mut instance) => {
                self.attach(&mut instance, epc_base_page);
                (SlotState::Live(Live::Wasm(Session { instance, common })), Ok(()))
            }
            Err((e, ctx)) => parked(ParkedBody::Wasm(into_ctx(ctx), common), e),
        }
    }

    /// A base-state instance patched with a session's `delta` and holding
    /// the tenant's `ctx`, which is handed back (as host data) on failure.
    /// The base is a pool slot for a pooled session, else the session's
    /// base snapshot rehydrated.
    fn instance_from_delta(
        &mut self,
        name: &str,
        ctx: WasiCtx,
        common: &SessionCommon,
        delta: &SnapshotDelta,
    ) -> Result<Instance, (TwineError, Box<dyn Any + Send>)> {
        let base = if common.pooled {
            self.base_instance(&common.compiled, &common.stats.module_key, ctx)
        } else {
            let (code, linker) = (Arc::clone(&common.compiled), &self.shared.linker);
            Instance::from_snapshot(code, linker, &common.base_snapshot, Box::new(ctx))
        };
        let mut instance = base.map_err(|(e, ctx)| (TwineError::Module(e), ctx))?;
        instance.clear_dirty();
        instance.meter.reset();
        self.control_stats.dirty_pages_restored += delta.page_count() as u64;
        if !instance.apply_delta(delta) {
            let reason = format!("session {name:?}: parked delta does not fit its module");
            let ctx = instance.replace_host_data(Box::new(()));
            return Err((TwineError::Session(reason), ctx));
        }
        Ok(instance)
    }

    /// Park least-recently-used live sessions while more than
    /// [`ControlPlane::max_live_sessions`] are live. `exclude` protects the
    /// session currently being served — eviction never races the in-flight
    /// invoke.
    pub(crate) fn enforce_pressure(&mut self, exclude: Option<&str>) {
        let Some(max) = self.shared.control.max_live_sessions else {
            return;
        };
        while self.live_session_count() > max {
            // One LRU policy across both session kinds: the victim is the
            // least-recently-used live session, Wasm or database.
            let victim = self
                .sessions
                .iter()
                .filter(|(n, s)| s.is_live() && exclude != Some(n.as_str()))
                .min_by_key(|(_, s)| s.last_use)
                .map(|(n, _)| n.clone());
            // `None`: only the excluded session is live, nothing to park.
            if victim.is_none_or(|v| self.park_session(&v).is_err()) {
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
        self.wasm_mut(name)?;
        self.ensure_live(name)?;
        self.use_seq += 1;
        let Some(SessionSlot {
            last_use,
            state: SlotState::Live(Live::Wasm(sess)),
            ..
        }) = self.sessions.get_mut(name)
        else {
            unreachable!("ensure_live leaves the session live");
        };
        *last_use = self.use_seq;
        sess.instance.reset_to_image(&sess.common.base_snapshot);
        sess.instance.state::<WasiCtx>().reset_for_invocation();
        Ok(())
    }

    /// Override the per-invocation fuel budget of one session (defaults to
    /// the builder's fuel).
    pub fn set_session_fuel(&mut self, name: &str, fuel: Option<u64>) -> Result<(), TwineError> {
        self.wasm_mut(name)?.fuel = fuel;
        Ok(())
    }

    /// The trusted-clock watermark of a session (last `clock_time_get`
    /// value handed to the guest; 0 if the guest never read the clock).
    #[must_use]
    pub fn session_clock_watermark(&self, name: &str) -> Option<u64> {
        Some(self.sessions.get(name)?.wasm()?.watermark.load(Ordering::Relaxed))
    }

    /// Close a session of the asked-for kind, live or sealed out, and
    /// return what it would keep while parked — which holds the tenant's
    /// backend. Retires the durable record and bumps the session's
    /// monotonic counter: a replay of the removed record now carries a
    /// stale tag and recover() rejects it.
    pub(crate) fn close(&mut self, name: &str, db: bool) -> Option<ParkedBody> {
        if self.sessions.get(name)?.is_db() != db {
            return None;
        }
        let slot = self.sessions.remove(name)?;
        if let Some(store) = &self.shared.control.durable_parks {
            store.remove_record(name);
            store.bump(name);
        }
        Some(match slot.state {
            // Release the session's EPC pages: a closed tenant must not
            // keep pinning residency. Settled first, so buffered page
            // transitions (and a database's open transaction) land before
            // the discard, not after. A pooled instance goes back to the
            // pool: the next open of its module skips instantiation.
            SlotState::Live(mut live) => {
                let (pages, _) = live.settle();
                self.shared.enclave.epc().discard_range(slot.epc_base_page, pages);
                self.retire(live)
            }
            // A parked session's pages were already discarded at park time.
            // A quarantined session likewise still has its backend — the
            // tenant's protected files were never part of the damaged
            // sealed image.
            SlotState::Parked(parked) | SlotState::Quarantined(parked, _) => parked.body,
        })
    }

    /// Close a session (live or parked), returning its file-system backend
    /// so the embedder can persist or migrate the tenant's protected
    /// files. The cached compiled module stays in the cache for future
    /// sessions — reclaim orphaned entries with
    /// [`module_cache().evict_unreferenced()`](ModuleCache::evict_unreferenced).
    /// (A database session closes through
    /// [`db_close_session`](Self::db_close_session), which hands back the
    /// shared handle its connection used.)
    pub fn close_session(&mut self, name: &str) -> Option<Box<dyn FsBackend>> {
        match self.close(name, false)? {
            ParkedBody::Wasm(ctx, _) => Some(ctx.into_backend()),
            ParkedBody::Db(_) => unreachable!("close checked the kind"),
        }
    }

    /// Rebuild the session table from the durable park store after a
    /// (simulated) enclave crash/restart: for every durable record, verify
    /// journal integrity, unseal the image, check its freshness tag
    /// against the processor monotonic counter, rebuild what the session
    /// keeps while sealed out (a Wasm session's module is recompiled, a
    /// database session's backend rewritten from its manifest) and
    /// re-admit the session **parked** — its first call restores it
    /// bit-identical to the state it durably parked with.
    ///
    /// Freshness: a record whose tag is `>= counter` is accepted (a crash
    /// between record write and counter bump leaves exactly one record one
    /// ahead) and the counter fast-forwards; a *stale* tag is a
    /// rollback/replay and fails typed with [`TwineError::Rollback`].
    ///
    /// A Wasm session's protected files are **not** recovered — they live
    /// in per-session backend storage outside the park image; a recovered
    /// session starts with a fresh backend, exactly like a new open.
    ///
    /// Returns the recovered session names (sorted — recovery order is
    /// deterministic).
    pub fn recover(&mut self) -> Result<Vec<String>, TwineError> {
        let Some(store) = self.shared.control.durable_parks.clone() else {
            return Err(TwineError::Session(
                "recover() requires ControlPlane::durable_parks".to_string(),
            ));
        };
        let key = self.record_key();
        let mut recovered = Vec::new();
        for name in store.session_names() {
            if self.sessions.contains_key(&name) {
                continue;
            }
            let (wasm, sealed) = store.read_record(&name, key).map_err(|e| {
                TwineError::Session(format!("durable record for {name:?}: {e}"))
            })?;
            // The sealed image crosses back into the enclave; unseal it to
            // validate integrity and read the freshness tag. Transient
            // (injected) faults are retried like any warm restore.
            self.transfer(&sealed)?;
            let bytes = self.unseal(&sealed).map_err(TwineError::Sgx)?;
            let Some((tag, image)) = decode_image(&bytes) else {
                return Err(TwineError::Session(format!(
                    "durable record for {name:?} is corrupt"
                )));
            };
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
            let epc_base_page = self.take_epc_range();
            let body = match image {
                Image::Db(manifest) => ParkedBody::Db(manifest.rebuild(self.new_backend())?),
                Image::Wasm(_) => self.recover_wasm(&wasm, epc_base_page)?,
            };
            self.admit(&name, epc_base_page, SlotState::Parked(Parked { sealed, body }));
            self.control_stats.recovered_sessions += 1;
            recovered.push(name);
        }
        Ok(recovered)
    }

    /// What a recovered Wasm session keeps while sealed out: its module
    /// (recompiled from the record's bytes, or shared through the cache),
    /// a fresh WASI context, and the base snapshot its delta restores
    /// onto.
    fn recover_wasm(&mut self, wasm: &[u8], epc_base_page: u64) -> Result<ParkedBody, TwineError> {
        let module = self
            .shared
            .cache
            .get_or_compile(wasm)
            .map_err(TwineError::Module)?;
        let (ctx, watermark) = self.new_ctx();
        // A throwaway instantiation re-derives the base snapshot: for a
        // poolable module the same bytes as before the restart (and shared
        // once per module anyway); for one with a start function a fresh
        // post-start state, which the park image — carrying every page —
        // overwrites whole.
        let fresh = match self.instantiate(&module.0, ctx) {
            Ok(fresh) => fresh,
            Err((e, _ctx)) => return Err(self.failed_open(module.0, &module.1, e)),
        };
        let base = base_snapshot(&module.0, &fresh);
        let ctx = fresh
            .into_state::<WasiCtx>()
            .expect("recover instantiates with a WasiCtx");
        let common = self.session_common(module, wasm, base, watermark, epc_base_page);
        Ok(ParkedBody::Wasm(ctx, common))
    }
}

/// The post-instantiation state of `instance`, which has just been
/// instantiated from `compiled`: the module's shared base image when
/// instantiation is deterministic (whichever session got there first
/// captured it; any racer would capture identical bytes), else a private
/// copy.
fn base_snapshot(compiled: &CompiledModule, instance: &Instance) -> Arc<InstanceSnapshot> {
    if compiled.poolable() {
        Arc::clone(compiled.base_image_or_init(|| instance.snapshot()))
    } else {
        Arc::new(instance.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The format-3 freshness wrapper under mutation: around a real delta
    /// image and around a DB manifest, every truncation is refused, every
    /// single-bit flip decodes or is refused without a panic, and a wrapper
    /// spliced onto another payload decodes as that payload.
    #[test]
    fn mutated_freshness_wrapped_images_decode_or_are_refused() {
        let src = "int n; int step(int x) { n = n * 31 + x; return n; }";
        let wasm = twine_minicc::compile_to_bytes(src).expect("compiles");
        let code = Arc::new(CompiledModule::from_bytes(&wasm).expect("valid module"));
        let mut inst =
            Instance::instantiate(code, Linker::new(), Box::new(())).expect("instantiates");
        let base = inst.snapshot();
        inst.clear_dirty();
        inst.invoke("step", &[Value::I32(7)]).expect("runs");
        let delta = wrap_freshness(Some(41), inst.snapshot_delta(&base).to_bytes());
        assert!(matches!(decode_image(&delta), Some((Some(41), Image::Wasm(_)))));

        let path = [&4u32.to_le_bytes()[..], b"t.db"].concat();
        let manifest = [
            &[DB_MANIFEST_FORMAT][..],
            &path,
            &1u32.to_le_bytes(),
            &path,
            &3u64.to_le_bytes(),
            b"abc",
        ]
        .concat();
        let wrapped = wrap_freshness(Some(42), manifest.clone());
        assert!(matches!(decode_image(&wrapped), Some((Some(42), Image::Db(_)))));

        for image in [&delta, &wrapped] {
            for cut in 0..image.len() {
                assert!(decode_image(&image[..cut]).is_none(), "prefix of {cut} bytes decoded");
            }
            for bit in 0..image.len() * 8 {
                let mut flipped = image.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                let _ = decode_image(&flipped);
            }
        }
        // The Wasm image's wrapper spliced onto the manifest.
        let spliced = [&delta[..9], &manifest[..]].concat();
        assert!(matches!(decode_image(&spliced), Some((Some(41), Image::Db(_)))));
        // A wrapper is never a payload.
        assert!(decode_image(&wrap_freshness(Some(1), wrapped)).is_none());
    }
}
