//! The Twine runtime: configuration, enclave setup, and guest execution.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use twine_pfs::PfsMode;
use twine_sgx::{Enclave, EnclaveBuilder, EpcStats, Processor, SgxError, SgxMode, SimClock};
use twine_wasi::abi::PROC_EXIT_TRAP;
use twine_wasi::{register_wasi, Errno, FsBackend, Rights, WasiCtx, WasiFile};
use twine_wasm::compile::CompiledModule;
use twine_wasm::types::{FuncType, ValType};
use twine_wasm::{Instance, Linker, Meter, ModuleError, PageSink, Trap, Value};

use crate::backend_host::HostBackend;
use crate::backend_pfs::PfsBackend;

/// Which file-system implementation serves WASI fs calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsChoice {
    /// Trusted: Intel-Protected-FS over in-memory untrusted storage
    /// (paper's default Twine configuration).
    ProtectedInMemory,
    /// Untrusted: generic POSIX layer via OCALLs, plaintext on the host.
    UntrustedHost,
    /// Strict mode: the untrusted layer compiled out; all fs calls fail
    /// (paper §IV-C's compilation flag).
    Disabled,
}

/// Why admission control rejected a call — the structured payload of
/// [`TwineError::Overloaded`]. Every variant is backpressure (the caller
/// may retry later), but they name different resources, so a client can
/// react differently to a full shard queue (spread load) than to its own
/// in-flight cap (wait for a reply).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Overload {
    /// A bounded shard command queue was full.
    QueueFull {
        /// Index of the rejecting shard.
        shard: usize,
        /// The configured queue depth it was full at.
        depth: usize,
    },
    /// The tenant is at its cross-shard in-flight command cap.
    InFlight {
        /// Session/tenant name.
        tenant: String,
        /// The configured cap.
        max: u64,
    },
}

impl core::fmt::Display for Overload {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Overload::QueueFull { shard, depth } => {
                write!(f, "shard {shard} queue full (depth {depth})")
            }
            Overload::InFlight { tenant, max } => {
                write!(f, "tenant {tenant:?} at in-flight cap ({max})")
            }
        }
    }
}

/// Errors from the Twine runtime.
#[derive(Debug)]
pub enum TwineError {
    /// Decode/validate/compile failure of the guest module.
    Module(ModuleError),
    /// The guest trapped.
    Trap(Trap),
    /// SGX-level failure (attestation, unsealing, injected boundary
    /// faults that outlasted the bounded retry policy).
    Sgx(SgxError),
    /// Code-provisioning failure.
    Provision(String),
    /// Session-layer failure (unknown or duplicate session name).
    Session(String),
    /// Database-session failure: the tenant's protected database rejected
    /// a statement (syntax, constraint, storage). The session itself stays
    /// servable — DB errors are per-statement, not fatal.
    Db(String),
    /// Admission control rejected the call: a bounded shard queue was
    /// full, or a per-tenant in-flight cap was exceeded.
    /// Backpressure, not failure — the caller may retry later (see
    /// [`Overload`] for which resource pushed back).
    Overloaded(Overload),
    /// The session's parked image could not be restored (unsealing kept
    /// failing beyond the retry budget): the sealed state is preserved
    /// and the session quarantined, but it cannot serve invocations.
    Quarantined {
        /// Session name.
        session: String,
        /// Human-readable cause (the final unseal error).
        reason: String,
    },
    /// A durable park image failed freshness validation during
    /// [`recover`](crate::TwineService::recover): its monotonic-counter
    /// tag is older than the processor's counter — a rollback/replay.
    Rollback {
        /// Session name.
        session: String,
        /// The stale tag carried by the replayed image.
        have: u64,
        /// The minimum tag the processor counter accepts.
        want: u64,
    },
}

impl TwineError {
    /// Is this error worth retrying? `true` for admission-control
    /// backpressure ([`TwineError::Overloaded`]) and for transient SGX
    /// boundary faults; `false` for everything permanent (bad modules,
    /// traps, tampered blobs, quarantines, rollback rejections).
    #[must_use]
    pub fn is_retryable(&self) -> bool {
        match self {
            TwineError::Overloaded(_) => true,
            TwineError::Sgx(e) => e.is_transient(),
            _ => false,
        }
    }
}

impl core::fmt::Display for TwineError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TwineError::Module(e) => write!(f, "module error: {e}"),
            TwineError::Trap(t) => write!(f, "guest trap: {t}"),
            TwineError::Sgx(e) => write!(f, "sgx error: {e}"),
            TwineError::Provision(m) => write!(f, "provisioning error: {m}"),
            TwineError::Session(m) => write!(f, "session error: {m}"),
            TwineError::Db(m) => write!(f, "database error: {m}"),
            TwineError::Overloaded(o) => write!(f, "overloaded: {o}"),
            TwineError::Quarantined { session, reason } => {
                write!(f, "session {session:?} quarantined: {reason}")
            }
            TwineError::Rollback { session, have, want } => {
                write!(
                    f,
                    "rollback rejected for session {session:?}: image tag {have} < counter {want}"
                )
            }
        }
    }
}

impl std::error::Error for TwineError {}

impl From<ModuleError> for TwineError {
    fn from(e: ModuleError) -> Self {
        TwineError::Module(e)
    }
}

impl From<SgxError> for TwineError {
    fn from(e: SgxError) -> Self {
        TwineError::Sgx(e)
    }
}

/// Builder for [`TwineRuntime`] (and, via
/// [`build_service`](TwineBuilder::build_service), for the multi-tenant
/// [`crate::TwineService`]).
pub struct TwineBuilder {
    pub(crate) sgx_mode: SgxMode,
    pub(crate) epc_limit_pages: usize,
    pub(crate) heap_bytes: u64,
    pub(crate) tpl: SessionTemplate,
    pub(crate) processor: Processor,
    pub(crate) control: crate::ControlPlane,
    pub(crate) faults: Option<Arc<twine_sgx::FaultPlan>>,
}

impl Default for TwineBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl TwineBuilder {
    /// Defaults matching the paper's testbed configuration.
    #[must_use]
    pub fn new() -> Self {
        Self {
            sgx_mode: SgxMode::Hardware,
            epc_limit_pages: twine_sgx::costs::epc_usable_pages() as usize,
            heap_bytes: 64 << 20,
            tpl: SessionTemplate {
                fs: FsChoice::ProtectedInMemory,
                pfs_mode: PfsMode::Intel,
                preopen: "/data".to_string(),
                rights: Rights::all(),
                args: vec!["app.wasm".to_string()],
                env: Vec::new(),
                fuel: None,
            },
            processor: Processor::new(0),
            control: crate::ControlPlane::default(),
            faults: None,
        }
    }

    /// SGX hardware vs simulation mode (Figure 6 contrast).
    #[must_use]
    pub fn sgx_mode(mut self, mode: SgxMode) -> Self {
        self.sgx_mode = mode;
        self
    }

    /// Usable EPC limit in MiB (paper default: 93 usable of 128).
    #[must_use]
    pub fn epc_limit_mib(mut self, mib: u64) -> Self {
        self.epc_limit_pages = (mib << 20 >> 12) as usize;
        self
    }

    /// Enclave heap size (drives launch cost).
    #[must_use]
    pub fn heap_bytes(mut self, bytes: u64) -> Self {
        self.heap_bytes = bytes;
        self
    }

    /// Protected-FS mode: stock Intel or §V-F optimised.
    #[must_use]
    pub fn pfs_mode(mut self, mode: PfsMode) -> Self {
        self.tpl.pfs_mode = mode;
        self
    }

    /// File-system choice.
    #[must_use]
    pub fn fs(mut self, fs: FsChoice) -> Self {
        self.tpl.fs = fs;
        self
    }

    /// Preopened directory name and rights (the WASI sandbox).
    #[must_use]
    pub fn preopen(mut self, dir: &str, rights: Rights) -> Self {
        self.tpl.preopen = dir.to_string();
        self.tpl.rights = rights;
        self
    }

    /// Guest argv.
    #[must_use]
    pub fn args(mut self, args: &[&str]) -> Self {
        self.tpl.args = args.iter().map(ToString::to_string).collect();
        self
    }

    /// Guest environment.
    #[must_use]
    pub fn env(mut self, env: &[(&str, &str)]) -> Self {
        self.tpl.env = env
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        self
    }

    /// Host the enclave on a specific simulated processor.
    #[must_use]
    pub fn processor(mut self, p: Processor) -> Self {
        self.processor = p;
        self
    }

    /// Bound guest execution (defence against runaway guests).
    #[must_use]
    pub fn fuel(mut self, fuel: u64) -> Self {
        self.tpl.fuel = Some(fuel);
        self
    }

    /// Install a full control-plane policy (eviction, preemption,
    /// admission control) for the built service. See
    /// [`ControlPlane`](crate::ControlPlane); everything defaults to off.
    #[must_use]
    pub fn control_plane(mut self, control: crate::ControlPlane) -> Self {
        self.control = control;
        self
    }

    /// Install a deterministic fault-injection plan on the enclave (chaos
    /// testing, DESIGN.md §12). Every trust-boundary crossing — ECALL and
    /// OCALL transitions, seal and unseal — consults the plan's seeded
    /// schedule and may fail typed; the runtime's bounded-retry and
    /// graceful-degradation policies absorb the faults without changing
    /// guest-visible semantics. [`crate::ControlStats::faults_injected`]
    /// reports how many fired.
    #[must_use]
    pub fn faults(mut self, plan: Arc<twine_sgx::FaultPlan>) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Create the enclave and runtime (charges launch cycles).
    ///
    /// The WASI + libm host-function table is built **once** here and shared
    /// (`Arc`) by every subsequent guest run, instead of being re-registered
    /// on each call.
    #[must_use]
    pub fn build(self) -> TwineRuntime {
        let enclave = self.launch();
        let backend = make_backend(&self.tpl, &enclave);
        TwineRuntime {
            enclave,
            linker: Arc::new(base_linker()),
            clock_watermark: Arc::new(AtomicU64::new(0)),
            tpl: self.tpl,
            backend: Some(backend),
        }
    }

    /// Create the enclave and a multi-tenant [`crate::TwineService`] hosting
    /// named, persistent sessions (see DESIGN.md §7).
    #[must_use]
    pub fn build_service(self) -> crate::TwineService {
        crate::TwineService::new(crate::service::Shared::from_builder(self), true)
    }

    /// Create the enclave and a multi-threaded [`crate::ShardedService`]:
    /// `threads` shards partitioning the session namespace while sharing
    /// this one enclave, one host-function table and one module cache.
    /// The service spawns no threads — each call runs on its caller's
    /// thread, one caller per shard at a time — so `threads` is how many
    /// client threads can be served in parallel (see DESIGN.md §9).
    #[must_use]
    pub fn build_sharded(self, threads: usize) -> crate::ShardedService {
        crate::ShardedService::from_builder(self, threads)
    }

    /// Launch the simulated enclave described by this builder.
    pub(crate) fn launch(&self) -> Arc<Enclave> {
        let mut builder = EnclaveBuilder::new(TWINE_RUNTIME_IMAGE)
            .heap_bytes(self.heap_bytes)
            .mode(self.sgx_mode)
            .epc_limit_pages(self.epc_limit_pages);
        if let Some(plan) = &self.faults {
            builder = builder.faults(Arc::clone(plan));
        }
        Arc::new(builder.build(&self.processor))
    }
}

/// Build the host-function table every Twine embedding exposes to guests:
/// the WASI snapshot-preview-1 surface plus the `env` libm imports. Built
/// once per runtime/service and shared immutably across all instances.
pub(crate) fn base_linker() -> Linker {
    let mut linker = Linker::new();
    register_wasi(&mut linker);
    register_libm(&mut linker);
    linker
}

/// Bytes standing in for the measured Twine runtime enclave image. Real
/// Twine's enclave is ~567 KiB on disk (Table IIIb); we mirror that size so
/// launch costs are comparable.
pub const TWINE_RUNTIME_IMAGE: &[u8] = &[0x54; 567 * 1024];

/// The per-run / per-session construction template a builder configures
/// once: which file system a guest sees and how its WASI environment
/// looks. Applied by the one-shot runtime to every run and by a service
/// (every shard of a [`crate::ShardedService`]) to every new session.
/// Plain data, `Clone + Send`.
#[derive(Clone)]
pub(crate) struct SessionTemplate {
    pub(crate) fs: FsChoice,
    pub(crate) pfs_mode: PfsMode,
    pub(crate) preopen: String,
    pub(crate) rights: Rights,
    pub(crate) args: Vec<String>,
    pub(crate) env: Vec<(String, String)>,
    pub(crate) fuel: Option<u64>,
}

/// A fresh, empty file-system backend of the template's choosing.
pub(crate) fn make_backend(tpl: &SessionTemplate, enclave: &Arc<Enclave>) -> Box<dyn FsBackend> {
    match tpl.fs {
        FsChoice::ProtectedInMemory => Box::new(PfsBackend::new(
            Some(enclave.clone()),
            tpl.pfs_mode,
            twine_pfs::DEFAULT_CACHE_NODES,
            None,
        )),
        FsChoice::UntrustedHost => Box::new(HostBackend::new(Some(enclave.clone()))),
        FsChoice::Disabled => Box::new(NoFs),
    }
}

/// Strict-mode backend: every fs call fails with `NOTCAPABLE`.
struct NoFs;

impl FsBackend for NoFs {
    fn open(&mut self, _: &str, _: bool, _: bool) -> Result<Box<dyn WasiFile>, Errno> {
        Err(Errno::Notcapable)
    }
    fn exists(&mut self, _: &str) -> bool {
        false
    }
    fn filesize(&mut self, _: &str) -> Result<u64, Errno> {
        Err(Errno::Notcapable)
    }
    fn unlink(&mut self, _: &str) -> Result<(), Errno> {
        Err(Errno::Notcapable)
    }
}

/// A loaded (AoT-compiled, enclave-resident) guest application.
pub struct TwineApp {
    pub(crate) compiled: Arc<CompiledModule>,
    /// Size of the delivered Wasm binary in bytes.
    pub wasm_bytes: usize,
}

/// Everything the embedder learns from one guest run.
pub struct RunReport {
    /// `proc_exit` code (0 when `_start` returned normally).
    pub exit_code: u32,
    /// Captured guest stdout.
    pub stdout: Vec<u8>,
    /// Captured guest stderr.
    pub stderr: Vec<u8>,
    /// Retired-instruction meter of the run.
    pub meter: Meter,
    /// Virtual cycles consumed (transitions, paging, modelled I/O).
    pub cycles: u64,
    /// Number of WASI calls served.
    pub wasi_calls: u64,
    /// EPC paging counters for the run.
    pub epc: EpcStats,
    /// Fuel left after the run (`None` = unlimited budget). Deterministic
    /// per session — the concurrency differential suite asserts it is
    /// bit-identical between sharded and single-threaded serving.
    pub fuel_remaining: Option<u64>,
}

/// Routes Wasm linear-memory page touches into the enclave's EPC model,
/// offset so guest pages don't alias other enclave users (each session in a
/// service gets its own base).
///
/// Touches are **buffered session-locally** and folded into the shared
/// pool in one lock acquisition per invocation (`invoke_in_enclave` calls
/// [`Instance::flush_page_sink`] before it snapshots the counters). PR 5
/// locked the global `Mutex<Epc>` on every page transition of every
/// guest, which serialised the shards of a `ShardedService` — the
/// contention regression test in `crates/core/tests/contention.rs` pins
/// the O(1)-acquisitions-per-invocation behaviour. The replay applies the
/// identical touch sequence, so faults/evictions/cycle charges stay
/// bit-identical on any serial schedule.
pub(crate) struct EpcSink {
    pub(crate) epc: twine_sgx::EpcHandle,
    pub(crate) base_page: u64,
    /// Buffered page-transition stream of the current invocation.
    pub(crate) pending: Vec<u64>,
}

/// Fold the buffer before it outgrows session memory: keeps acquisitions
/// O(transitions / 16384) — still effectively O(1) per warm invocation —
/// while a page-thrashing guest can't pin unbounded buffer space.
const EPC_SINK_FOLD_THRESHOLD: usize = 16 * 1024;

impl EpcSink {
    pub(crate) fn new(epc: twine_sgx::EpcHandle, base_page: u64) -> Self {
        Self {
            epc,
            base_page,
            pending: Vec::new(),
        }
    }
}

impl PageSink for EpcSink {
    fn touch(&mut self, page: u64) {
        self.pending.push(self.base_page + page);
        if self.pending.len() >= EPC_SINK_FOLD_THRESHOLD {
            self.flush();
        }
    }

    fn flush(&mut self) {
        self.epc.fold(&self.pending);
        self.pending.clear();
    }
}

/// The Twine runtime instance (one simulated enclave).
pub struct TwineRuntime {
    enclave: Arc<Enclave>,
    /// Host-function table, built once at [`TwineBuilder::build`] and shared
    /// immutably by every run.
    linker: Arc<Linker>,
    /// Trusted-clock monotonicity watermark (§IV-C). Lives on the runtime so
    /// `clock_time_get` stays monotonic **across** guest runs instead of the
    /// guard restarting at 0 on every call. An [`AtomicU64`] advanced by a
    /// CAS loop, so the guarantee survives sharing across threads (the old
    /// `Cell` silently allowed non-monotonic reads once shared).
    clock_watermark: Arc<AtomicU64>,
    tpl: SessionTemplate,
    backend: Option<Box<dyn FsBackend>>,
}

impl TwineRuntime {
    /// The enclave hosting this runtime.
    #[must_use]
    pub fn enclave(&self) -> &Arc<Enclave> {
        &self.enclave
    }

    /// The simulated processor.
    #[must_use]
    pub fn processor(&self) -> &Processor {
        self.enclave.processor()
    }

    /// The virtual clock (includes launch cost already).
    #[must_use]
    pub fn clock(&self) -> &SimClock {
        self.enclave.clock()
    }

    /// Load a Wasm binary: decode, validate, AoT-compile (all performed on
    /// the already-delivered bytes) and map it into the enclave's reserved
    /// memory (§IV-B). One ECALL.
    pub fn load_wasm(&mut self, wasm: &[u8]) -> Result<TwineApp, TwineError> {
        let compiled = CompiledModule::from_bytes(wasm)?;
        // Copy into reserved memory: charge the boundary copy.
        self.enclave.ecall(|| {
            self.enclave.clock().add_cycles(wasm.len() as u64 / 4);
        });
        Ok(TwineApp {
            compiled: Arc::new(compiled),
            wasm_bytes: wasm.len(),
        })
    }

    /// Run a WASI application: executes the exported `_start` (WASI ABI)
    /// inside a single ECALL.
    pub fn run(&mut self, app: &TwineApp) -> Result<RunReport, TwineError> {
        self.execute(app, "_start", &[]).map(|(report, _)| report)
    }

    /// Invoke an arbitrary exported function (embedding API).
    pub fn invoke(
        &mut self,
        app: &TwineApp,
        func: &str,
        args: &[Value],
    ) -> Result<Vec<Value>, TwineError> {
        self.execute(app, func, args).map(|(_, values)| values)
    }

    /// Invoke an export and also return the run report.
    pub fn invoke_with_report(
        &mut self,
        app: &TwineApp,
        func: &str,
        args: &[Value],
    ) -> Result<(RunReport, Vec<Value>), TwineError> {
        self.execute(app, func, args)
    }

    fn execute(
        &mut self,
        app: &TwineApp,
        func: &str,
        args: &[Value],
    ) -> Result<(RunReport, Vec<Value>), TwineError> {
        // A one-shot run is a transient session: fresh WasiCtx over the
        // runtime's persistent backend, instantiated against the shared
        // host-function table built at `build()` time.
        let backend = self
            .backend
            .take()
            .unwrap_or_else(|| make_backend(&self.tpl, &self.enclave));
        let ctx = build_wasi_ctx(backend, &self.tpl, &self.enclave, &self.clock_watermark);

        let mut instance = match Instance::instantiate_shared(
            Arc::clone(&app.compiled),
            &self.linker,
            Box::new(ctx),
            self.tpl.fuel,
        ) {
            Ok(i) => i,
            Err((e, host_data)) => {
                // The WasiCtx owns the taken-out backend: reclaim it so
                // protected files survive a failed instantiation instead of
                // silently being replaced by an empty backend on the next run.
                if let Ok(ctx) = host_data.downcast::<WasiCtx>() {
                    self.backend = Some(ctx.into_backend());
                }
                return Err(TwineError::Module(e));
            }
        };
        instance.fuel = self.tpl.fuel;
        instance.set_page_sink(Some(Box::new(EpcSink::new(self.enclave.epc(), 1 << 32))));
        // Report the invocation only: instantiation work (a start function,
        // if any) is not part of the run's meter — the same per-invocation
        // contract the session layer keeps, so cold and warm reports stay
        // bit-comparable.
        instance.meter.reset();

        let outcome = invoke_in_enclave(&self.enclave, &mut instance, func, args);
        let values = match outcome.values {
            Ok(v) => v,
            Err(t) => {
                // Preserve backend for subsequent runs even on trap.
                if let Some(ctx) = instance.into_state::<WasiCtx>() {
                    self.backend = Some(ctx.into_backend());
                }
                return Err(TwineError::Trap(t));
            }
        };
        let mut report = RunReport {
            exit_code: 0,
            stdout: Vec::new(),
            stderr: Vec::new(),
            meter: outcome.meter,
            cycles: outcome.cycles,
            wasi_calls: 0,
            epc: outcome.epc,
            fuel_remaining: instance.fuel,
        };
        if let Some(ctx) = instance.into_state::<WasiCtx>() {
            report.exit_code = ctx.exit_code.unwrap_or(0);
            report.stdout = ctx.stdout.clone();
            report.stderr = ctx.stderr.clone();
            report.wasi_calls = ctx.call_count;
            self.backend = Some(ctx.into_backend());
        }
        Ok((report, values))
    }

}

/// Build the per-run/per-session WASI context from the embedding template:
/// backend, preopen + rights, argv/env, and the §IV-C trusted clock. One
/// construction path shared by the one-shot runtime and the session layer,
/// so their guest-visible environments cannot drift apart (the warm-vs-cold
/// differential contract of `tests/session_semantics.rs` depends on it).
pub(crate) fn build_wasi_ctx(
    backend: Box<dyn FsBackend>,
    tpl: &SessionTemplate,
    enclave: &Arc<Enclave>,
    watermark: &Arc<AtomicU64>,
) -> WasiCtx {
    let mut ctx = WasiCtx::new(backend, &tpl.preopen, tpl.rights);
    ctx.args = tpl.args.clone();
    ctx.env = tpl.env.clone();
    install_trusted_clock(&mut ctx, enclave, watermark);
    ctx
}

/// Install the §IV-C trusted clock into a WASI context: leave the enclave
/// for the host time (an OCALL), then enforce monotonicity inside using a
/// watermark owned by the runtime/session — so the guard survives across
/// invocations instead of restarting at 0 on every call.
pub(crate) fn install_trusted_clock(
    ctx: &mut WasiCtx,
    enclave: &Arc<Enclave>,
    watermark: &Arc<AtomicU64>,
) {
    let enclave = enclave.clone();
    let last = Arc::clone(watermark);
    ctx.set_clock(Box::new(move || {
        let host_time = enclave.ocall(8, || {
            // Host "clock": derived from virtual cycles so runs are
            // deterministic.
            enclave.clock().cycles().wrapping_mul(263) / 1_000
        });
        advance_watermark(&last, host_time)
    }));
}

/// Advance a trusted-clock watermark past `host_time`, returning the value
/// to hand to the guest. A compare-and-swap loop (not load-then-store, the
/// old `Cell` behaviour) so that even when one watermark is read from many
/// threads at once every observer sees strictly increasing time: each
/// successful CAS moves the watermark strictly upward, and a loser retries
/// against the fresher value (§IV-C monotonicity, now under concurrency).
///
/// Public so the concurrency suite can proptest the guarantee directly.
pub fn advance_watermark(last: &AtomicU64, host_time: u64) -> u64 {
    let mut prev = last.load(Ordering::Relaxed);
    loop {
        let t = host_time.max(prev + 1);
        match last.compare_exchange_weak(prev, t, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return t,
            Err(newer) => prev = newer,
        }
    }
}

/// Bounded-retry budget for transient boundary faults: at most this many
/// attempts per crossing. The fault schedule's `max_consecutive` bound
/// (default 2) guarantees convergence well inside it.
pub(crate) const RETRY_MAX: u32 = 4;

/// Base virtual-time backoff charged before re-attempting a faulted
/// crossing; doubles per attempt (`base << attempt`). Virtual cycles, so
/// the penalty is modelled and deterministic, not wall-clock sleep.
pub(crate) const RETRY_BACKOFF_CYCLES: u64 = 1_000;

/// Run a fallible boundary crossing under the bounded-retry policy:
/// transient errors are retried up to [`RETRY_MAX`] attempts with
/// exponential virtual-time backoff (each retry counted into `retries`);
/// permanent errors and exhaustion surface to the caller.
pub(crate) fn with_retries<T>(
    enclave: &Arc<Enclave>,
    retries: &mut u64,
    mut f: impl FnMut(u32) -> Result<T, SgxError>,
) -> Result<T, SgxError> {
    let mut attempt = 0u32;
    loop {
        match f(attempt) {
            Ok(v) => return Ok(v),
            Err(e) if e.is_transient() && attempt + 1 < RETRY_MAX => {
                attempt += 1;
                *retries += 1;
                enclave.clock().add_cycles(RETRY_BACKOFF_CYCLES << attempt);
            }
            Err(e) => return Err(e),
        }
    }
}

/// What one in-enclave invocation produced, before the embedder extracts
/// the WASI-visible pieces (stdout, exit code, ...) from the instance.
pub(crate) struct InvocationOutcome {
    /// Guest results; a `proc_exit` trap is already mapped to `Ok(vec![])`.
    pub(crate) values: Result<Vec<Value>, Trap>,
    /// Retired-instruction meter of the run.
    pub(crate) meter: Meter,
    /// Virtual cycles consumed by the ECALL.
    pub(crate) cycles: u64,
    /// EPC paging counters attributable to the run.
    pub(crate) epc: EpcStats,
    /// Boundary retries absorbed by this invocation (injected transient
    /// ECALL faults; 0 without a fault plan).
    pub(crate) retries: u64,
}

/// Run one exported function inside the single ECALL of §IV-C and account
/// for cycles and EPC paging. Shared by the one-shot [`TwineRuntime`] path
/// and the persistent-session [`crate::TwineService`] path, so warm and
/// cold invocations flow through bit-identical metering code.
pub(crate) fn invoke_in_enclave(
    enclave: &Arc<Enclave>,
    instance: &mut Instance,
    func: &str,
    args: &[Value],
) -> InvocationOutcome {
    let epc = enclave.epc();
    let epc_stats_before = epc.stats();
    let cycles_before = enclave.clock().cycles();

    // The single ECALL of §IV-C: the whole guest run happens inside. The
    // page sink buffers its transition stream session-locally; folding it
    // before leaving the ECALL publishes this invocation's EPC accounting
    // (faults, evictions, swap cycle charges) in one lock acquisition, so
    // the counters read below see it.
    //
    // Injected ECALL faults fire at the *entry* transition — the body
    // never runs — so retrying the whole ECALL is always safe. Exhaustion
    // falls through to an unfaultable entry for totality: an invocation
    // is delayed by chaos, never lost to it.
    let mut retries = 0u64;
    let body = |instance: &mut Instance| {
        let r = instance.invoke(func, args);
        instance.flush_page_sink();
        r
    };
    let result = {
        let mut attempt = 0u32;
        loop {
            match enclave.try_ecall(attempt, || body(instance)) {
                Ok(r) => break r,
                Err(_) if attempt + 1 < RETRY_MAX => {
                    attempt += 1;
                    retries += 1;
                    enclave.clock().add_cycles(RETRY_BACKOFF_CYCLES << attempt);
                }
                Err(_) => break enclave.ecall(|| body(instance)),
            }
        }
    };

    let values = match result {
        Ok(v) => Ok(v),
        Err(Trap::Host(m)) if m == PROC_EXIT_TRAP => Ok(Vec::new()),
        Err(t) => Err(t),
    };
    InvocationOutcome {
        values,
        meter: instance.meter.clone(),
        cycles: enclave.clock().cycles() - cycles_before,
        epc: diff_epc(epc.stats(), epc_stats_before),
        retries,
    }
}

pub(crate) fn diff_epc(now: EpcStats, before: EpcStats) -> EpcStats {
    EpcStats {
        hits: now.hits - before.hits,
        faults: now.faults - before.faults,
        evictions: now.evictions - before.evictions,
    }
}

/// Register the `env` math imports the MiniC toolchain uses (libm stand-in,
/// provided natively by the runtime just as WAMR links libm).
pub fn register_libm(linker: &mut Linker) {
    for (name, arity) in twine_minicc_libm() {
        let ty = FuncType::new(vec![ValType::F64; arity], vec![ValType::F64]);
        linker.func("env", name, ty, move |_ctx, args: &[Value]| {
            let xs: Vec<f64> = args.iter().map(|a| a.as_f64().unwrap_or(0.0)).collect();
            let r = match (name, xs.as_slice()) {
                ("exp", [x]) => x.exp(),
                ("log", [x]) => x.ln(),
                ("sin", [x]) => x.sin(),
                ("cos", [x]) => x.cos(),
                ("pow", [x, y]) => x.powf(*y),
                _ => return Err(Trap::Host(format!("unknown libm fn {name}"))),
            };
            Ok(vec![Value::F64(r)])
        });
    }
}

fn twine_minicc_libm() -> [(&'static str, usize); 5] {
    [("exp", 1), ("log", 1), ("sin", 1), ("cos", 1), ("pow", 2)]
}
