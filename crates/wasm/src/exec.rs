//! The execution engine: instantiation, host-function linking, and the
//! dispatch loop over pre-compiled (flattened) code.
//!
//! In the paper's architecture this is "the Wasm runtime \[that\] runs
//! entirely inside the TEE" (§IV). Host functions registered through the
//! [`Linker`] model the WASI boundary: inside Twine they are provided by the
//! trusted WASI layer, which in turn may leave the enclave via OCALLs.

use std::any::Any;
use std::collections::HashMap;
use std::sync::Arc;

use crate::compile::{BranchTarget, CompiledModule, Op};
use crate::instr::{FBinOp, FRelOp, FUnOp, FloatWidth, IBinOp, IRelOp, IUnOp, IntWidth};
use crate::instr::{CvtOp, LoadKind, StoreKind};
use crate::lower::ExecTier;
use crate::memory::{Memory, DIRTY_PAGE_SIZE};
use crate::meter::Meter;
use crate::module::ImportDesc;
use crate::regalloc::RegOp;
use crate::types::{ExternKind, FuncType, Value};
use crate::ModuleError;

/// Maximum call depth before [`Trap::StackExhausted`].
pub const MAX_CALL_DEPTH: usize = 2_048;

/// A runtime trap, terminating execution of the whole instance call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Trap {
    /// `unreachable` executed.
    Unreachable,
    /// Out-of-bounds memory access.
    MemOutOfBounds,
    /// Integer division by zero.
    DivByZero,
    /// Integer overflow (e.g. `i32::MIN / -1`).
    IntOverflow,
    /// Float-to-int conversion of NaN or out-of-range value.
    InvalidConversion,
    /// Call stack exhausted.
    StackExhausted,
    /// `call_indirect` hit a null table slot.
    UndefinedElement,
    /// `call_indirect` signature mismatch.
    IndirectTypeMismatch,
    /// The configured fuel budget ran out.
    OutOfFuel,
    /// The per-invocation deadline expired. Distinct from
    /// [`Trap::OutOfFuel`] so a control plane can tell "tenant exhausted
    /// its paid budget" from
    /// "scheduler preempted the invocation": the former is the guest's
    /// fault, the latter is service policy.
    DeadlineExceeded,
    /// A host function reported an error.
    Host(String),
    /// The invoked export does not exist or has the wrong arguments.
    BadInvoke(String),
}

impl core::fmt::Display for Trap {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Trap::Unreachable => write!(f, "unreachable executed"),
            Trap::MemOutOfBounds => write!(f, "out-of-bounds memory access"),
            Trap::DivByZero => write!(f, "integer division by zero"),
            Trap::IntOverflow => write!(f, "integer overflow"),
            Trap::InvalidConversion => write!(f, "invalid float-to-int conversion"),
            Trap::StackExhausted => write!(f, "call stack exhausted"),
            Trap::UndefinedElement => write!(f, "undefined table element"),
            Trap::IndirectTypeMismatch => write!(f, "indirect call type mismatch"),
            Trap::OutOfFuel => write!(f, "out of fuel"),
            Trap::DeadlineExceeded => write!(f, "invocation deadline exceeded"),
            Trap::Host(m) => write!(f, "host error: {m}"),
            Trap::BadInvoke(m) => write!(f, "bad invoke: {m}"),
        }
    }
}

impl std::error::Error for Trap {}

/// Receives the stream of 4 KiB-page indices touched by guest memory
/// accesses. The SGX simulator implements this to model EPC paging.
///
/// `Send` so an [`Instance`] carrying a sink stays `Send` — sessions of a
/// sharded service are run by whichever caller thread invokes them.
pub trait PageSink: Send {
    /// Called when execution touches a page different from the previous one.
    fn touch(&mut self, page: u64);

    /// Flush any accounting the sink has buffered. Sinks that batch their
    /// page-transition stream (e.g. `twine-core`'s `EpcSink`, which folds
    /// into the shared EPC pool once per invocation instead of locking per
    /// transition) publish here; the embedder calls it at invocation end
    /// via [`Instance::flush_page_sink`]. Default: nothing buffered.
    fn flush(&mut self) {}
}

/// Context passed to host functions.
pub struct HostCtx<'a> {
    /// The guest's linear memory, if it has one.
    pub memory: Option<&'a mut Memory>,
    /// User state registered at instantiation (e.g. the WASI implementation).
    pub data: &'a mut dyn Any,
}

impl HostCtx<'_> {
    /// Downcast the user state. Panics if the type does not match — host
    /// functions and instance creator are part of the same embedding.
    pub fn state<T: 'static>(&mut self) -> &mut T {
        self.data.downcast_mut::<T>().expect("host state type")
    }

    /// The guest memory, or a trap if the module has none.
    pub fn mem(&mut self) -> Result<&mut Memory, Trap> {
        self.memory
            .as_deref_mut()
            .ok_or_else(|| Trap::Host("module has no memory".into()))
    }
}

/// A host (import) function.
///
/// Reference-counted so a [`Linker`] can be built **once** per embedding and
/// shared across many instances ([`Instance::instantiate_shared`]): each
/// instance clones the `Arc`s instead of consuming the table. Host functions
/// are therefore `Fn`, not `FnMut` — per-call mutable state belongs in the
/// instance's host data (see [`HostCtx::state`]). They are additionally
/// `Send + Sync`, so one linker can serve instances on **many threads**
/// concurrently (the sharded service shares a single host-function table
/// across all its workers); captured state must be immutable or
/// thread-safe.
pub type HostFn =
    Arc<dyn Fn(&mut HostCtx<'_>, &[Value]) -> Result<Vec<Value>, Trap> + Send + Sync>;

/// Resolves module imports to host functions.
///
/// Immutable once populated: instantiation borrows the linker and clones the
/// per-function [`Arc`]s, so one linker serves any number of instances (the
/// session layer in `twine-core` builds it once per service).
#[derive(Default)]
pub struct Linker {
    funcs: HashMap<(String, String), (FuncType, HostFn)>,
}

impl Linker {
    /// Empty linker.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a host function under `(module, name)`.
    pub fn func(
        &mut self,
        module: &str,
        name: &str,
        ty: FuncType,
        f: impl Fn(&mut HostCtx<'_>, &[Value]) -> Result<Vec<Value>, Trap> + Send + Sync + 'static,
    ) -> &mut Self {
        self.funcs
            .insert((module.to_string(), name.to_string()), (ty, Arc::new(f)));
        self
    }

    fn get(&self, module: &str, name: &str) -> Option<&(FuncType, HostFn)> {
        self.funcs.get(&(module.to_string(), name.to_string()))
    }
}

struct HostSlot {
    ty: FuncType,
    f: HostFn,
}

/// One activation record.
#[derive(Clone, Copy)]
struct Frame {
    /// Local function index (unified index − imports).
    func: usize,
    /// Resume point.
    pc: usize,
    /// Operand-stack base (args already consumed).
    opd_base: usize,
    /// Locals-arena base.
    locals_base: usize,
}

/// One activation record of the register tier: the frame is a window of
/// the shared register slab starting at `base` (its first `n_params` slots
/// are the caller's argument slots — zero-copy calls).
#[derive(Clone, Copy)]
struct RegFrame {
    /// Local function index (unified index − imports).
    func: usize,
    /// Resume point.
    pc: usize,
    /// First slab slot of this frame.
    base: usize,
}

/// Per-instance grow-only scratch memory reused across invocations, so a
/// warm call performs no frame/locals/operand allocation at all (the
/// serving layer's hot path). `clear()` keeps capacity; the slabs only
/// ever grow to the high-water mark of the instance's workload.
#[derive(Default)]
struct FrameArena {
    /// Operand stack of the reference interpreter (also carries
    /// args/results).
    opds: Vec<u64>,
    /// Locals slab of the reference interpreter.
    locals: Vec<u64>,
    /// Call frames of the reference interpreter.
    frames: Vec<Frame>,
    /// The register slab (all frames of one invocation, overlapped).
    regs: Vec<u64>,
    /// Call frames of the register tier.
    reg_frames: Vec<RegFrame>,
    /// Module-wide region-entry counters (one per charge region): the
    /// register loop bumps one counter per control transfer and the
    /// per-invocation wrapper folds `hits × region classes` into the
    /// meter once at the end — metering a whole region costs a single
    /// increment on the hot path. Kept all-zero *between* invocations
    /// (the fold re-zeroes as it reads), so a warm call never pays a
    /// memset proportional to module size.
    region_hits: Vec<u64>,
}

/// Largest guest-driven slab capacity (in `u64` slots, 512 KiB) the arena
/// retains across invocations. The frame vectors are bounded by
/// [`MAX_CALL_DEPTH`] and the hit counters by module size, but the
/// operand/locals/register slabs grow with guest behaviour (deep
/// recursion × wide frames): without a cap, one pathological invocation
/// would pin hundreds of megabytes per session for the serving lifetime.
/// A spike above the cap costs only its own call, like the WASI layer's
/// scratch cap.
const ARENA_KEEP_MAX_SLOTS: usize = 64 * 1024;

impl FrameArena {
    /// Drop any slab whose grown capacity exceeds [`ARENA_KEEP_MAX_SLOTS`]
    /// (ordinary workloads stay far below it and keep their warm,
    /// allocation-free path).
    fn shrink_to_cap(&mut self) {
        for slab in [&mut self.opds, &mut self.locals, &mut self.regs] {
            if slab.capacity() > ARENA_KEEP_MAX_SLOTS {
                *slab = Vec::new();
            }
        }
    }
}

/// Locally accumulated memory-metering counters of one register-tier
/// invocation, merged into the instance [`Meter`] once per run so the hot
/// loop never read-modify-writes the meter through `self`.
#[derive(Default)]
struct MemStats {
    /// Bytes moved by loads/stores/bulk ops.
    bytes: u64,
    /// 4 KiB page transitions observed.
    pages: u64,
}

/// An instantiated module ready for invocation.
pub struct Instance {
    code: Arc<CompiledModule>,
    memory: Option<Memory>,
    globals: Vec<u64>,
    table: Vec<Option<u32>>,
    host_funcs: Vec<HostSlot>,
    host_data: Box<dyn Any + Send>,
    /// Retired-instruction meter (reset/read by the embedder).
    pub meter: Meter,
    /// Optional instruction budget; `None` = unlimited.
    pub fuel: Option<u64>,
    /// Optional per-invocation preemption deadline, in the same unit as
    /// fuel (baseline-constituent instructions). Orthogonal to `fuel`:
    /// fuel is the tenant's paid budget, the deadline is the scheduler's
    /// time-slice. Execution runs against `min(fuel, deadline)`, so both
    /// decrement in lockstep and the partial-metering/rollback machinery
    /// of the fuel path applies verbatim; when the deadline is the binding
    /// budget the resulting stop surfaces as [`Trap::DeadlineExceeded`]
    /// (ties go to [`Trap::OutOfFuel`]: the tenant was out of budget
    /// regardless of scheduling). Embedders typically re-arm this before
    /// every invocation; like fuel, it is decremented by retired work.
    pub deadline: Option<u64>,
    page_sink: Option<Box<dyn PageSink>>,
    /// Reusable frame/operand arena (see [`FrameArena`]).
    arena: FrameArena,
}

/// The post-instantiation state of an [`Instance`]: the linear-memory image
/// (data segments applied, start function already run), globals and table.
///
/// Recorded once via [`Instance::snapshot`] and replayed with
/// [`Instance::reset_to`], this lets an embedder recycle an instance into a
/// pool without re-running decode/validate/instantiate or the data-segment
/// copies — the wasmtime-style compile-once/instantiate-many serving
/// architecture, applied one level further down (instantiate-once/reset-many).
#[derive(Clone, Debug)]
pub struct InstanceSnapshot {
    memory: Option<Memory>,
    globals: Vec<u64>,
    table: Vec<Option<u32>>,
}

impl InstanceSnapshot {
    /// Bytes held by the recorded memory image.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        self.memory.as_ref().map_or(0, Memory::size_bytes)
    }
}

/// Two snapshots are equal when their guest-visible state is: memory
/// limits and bytes, globals and table. The dirty bitmap is bookkeeping
/// about how the memory got there, not state, so it is not compared.
impl PartialEq for InstanceSnapshot {
    fn eq(&self, other: &Self) -> bool {
        fn mem(s: &InstanceSnapshot) -> Option<(crate::types::Limits, &[u8])> {
            s.memory.as_ref().map(|m| (m.limits(), m.raw_data()))
        }
        mem(self) == mem(other) && self.globals == other.globals && self.table == other.table
    }
}

/// The difference between an instance's current state and a base
/// [`InstanceSnapshot`]: runs of changed bytes inside the 4 KiB pages
/// whose contents actually changed, plus the (small) globals and table in
/// full and the memory length at capture time.
///
/// Captured with [`Instance::snapshot_delta`] and replayed with
/// [`Instance::apply_delta`] onto an instance sitting at the base state.
/// This is the one image a control plane seals when parking a session:
/// against a module's shared base image only the changed words of the
/// dirty working set cross the enclave boundary, and a module whose base
/// cannot be rebuilt carries every page whole instead
/// ([`Instance::full_delta`]).
#[derive(Clone, Debug)]
pub struct SnapshotDelta {
    /// Memory length in bytes at capture (`None` = module has no memory).
    /// Records growth past the base image; applying the delta resizes
    /// first, so never-written grown pages come back zeroed, exactly as
    /// `memory.grow` produced them.
    mem_len: Option<u64>,
    /// Runs of changed bytes, ascending and disjoint, none crossing a
    /// 4 KiB page.
    runs: Vec<Run>,
    /// Concatenated run contents, the sum of the runs' lengths in bytes.
    bytes: Vec<u8>,
    globals: Vec<u64>,
    table: Vec<Option<u32>>,
}

/// One run of a [`SnapshotDelta`]: `len` bytes at `offset` within 4 KiB
/// page `page`.
#[derive(Clone, Copy, Debug)]
struct Run {
    page: u64,
    offset: u16,
    len: u16,
}

/// Serialized size of a run header: page (u64), offset (u16), length
/// (u16). Capture merges two runs whose gap is shorter than this, since
/// carrying the gap's bytes then costs less than a second header.
const RUN_HEADER: usize = 12;

impl Run {
    /// Address of the run's first byte in linear memory.
    fn start(self) -> u64 {
        self.page * DIRTY_PAGE_SIZE as u64 + u64::from(self.offset)
    }
}

/// What a page past the base image's length held before it was written:
/// `memory.grow` zero-fills it, and so does the resize on apply.
static ZERO_PAGE: [u8; DIRTY_PAGE_SIZE] = [0; DIRTY_PAGE_SIZE];

/// Bytes [`diff_page`] screens at once before comparing word by word.
const DIFF_BLOCK: usize = 64;

/// Append to `runs`/`bytes` the runs of 8-byte words in which page `page`
/// (`cur`) differs from the same page of the base image (`old`). Two runs
/// whose gap is shorter than [`RUN_HEADER`] become one.
fn diff_page(page: u64, cur: &[u8], old: &[u8], runs: &mut Vec<Run>, bytes: &mut Vec<u8>) {
    let word = |w: &[u8]| u64::from_le_bytes(w.try_into().expect("8-byte chunk"));
    let mut emit = |start: usize, end: usize| {
        runs.push(Run {
            page,
            offset: start as u16,
            len: (end - start) as u16,
        });
        bytes.extend_from_slice(&cur[start..end]);
    };
    // The open run, as a byte range of the page.
    let mut open: Option<(usize, usize)> = None;
    let blocks = cur.chunks_exact(DIFF_BLOCK).zip(old.chunks_exact(DIFF_BLOCK));
    for (b, (cb, ob)) in blocks.enumerate() {
        // Branch-free (vectorizable) screen of a whole block; few differ.
        if cb.iter().zip(ob).fold(0, |acc, (c, o)| acc | (c ^ o)) == 0 {
            continue;
        }
        for (i, (c, o)) in cb.chunks_exact(8).zip(ob.chunks_exact(8)).enumerate() {
            if word(c) == word(o) {
                continue;
            }
            let at = b * DIFF_BLOCK + i * 8;
            open = match open {
                Some((start, end)) if at - end < RUN_HEADER => Some((start, at + 8)),
                Some((start, end)) => {
                    emit(start, end);
                    Some((at, at + 8))
                }
                None => Some((at, at + 8)),
            };
        }
    }
    if let Some((start, end)) = open {
        emit(start, end);
    }
}

impl SnapshotDelta {
    /// Number of distinct 4 KiB pages the delta's runs touch.
    #[must_use]
    pub fn page_count(&self) -> usize {
        let changes = self.runs.windows(2).filter(|w| w[0].page != w[1].page).count();
        changes + usize::from(!self.runs.is_empty())
    }

    /// The carried runs in ascending order, as `(page, offset, len)`: `len`
    /// bytes at byte `offset` of 4 KiB page `page`.
    pub fn runs(&self) -> impl Iterator<Item = (u64, usize, usize)> + '_ {
        self.runs
            .iter()
            .map(|r| (r.page, usize::from(r.offset), usize::from(r.len)))
    }

    /// Serialize to a self-contained byte image (format byte 2, the tag a
    /// control plane's image decoder dispatches on): the memory length,
    /// each run's header (page u64, offset u16, length u16) followed by its
    /// bytes, then globals and table, all little-endian.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.bytes.len() + RUN_HEADER * self.runs.len() + 64);
        out.push(2u8); // format version: delta image
        match self.mem_len {
            None => out.push(0),
            Some(len) => {
                out.push(1);
                out.extend_from_slice(&len.to_le_bytes());
            }
        }
        out.extend_from_slice(&(self.runs.len() as u64).to_le_bytes());
        let mut off = 0;
        for run in &self.runs {
            out.extend_from_slice(&run.page.to_le_bytes());
            out.extend_from_slice(&run.offset.to_le_bytes());
            out.extend_from_slice(&run.len.to_le_bytes());
            let len = usize::from(run.len);
            out.extend_from_slice(&self.bytes[off..off + len]);
            off += len;
        }
        out.extend_from_slice(&(self.globals.len() as u64).to_le_bytes());
        for g in &self.globals {
            out.extend_from_slice(&g.to_le_bytes());
        }
        out.extend_from_slice(&(self.table.len() as u64).to_le_bytes());
        for t in &self.table {
            out.extend_from_slice(&t.unwrap_or(u32::MAX).to_le_bytes());
        }
        out
    }

    /// Reconstruct a delta serialized by [`SnapshotDelta::to_bytes`].
    /// Returns `None` on any structural corruption: bad version, a memory
    /// length that is not a whole number of Wasm pages or exceeds the
    /// 4 GiB Wasm limit, a run that is empty, crosses its 4 KiB page, lies
    /// past the recorded length or does not start after the end of the run
    /// before it, truncation, or trailing bytes. No allocation is sized by
    /// a count larger than the input could hold.
    #[must_use]
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        struct Rd<'a>(&'a [u8]);
        impl Rd<'_> {
            fn u8(&mut self) -> Option<u8> {
                let (&b, rest) = self.0.split_first()?;
                self.0 = rest;
                Some(b)
            }
            fn u16(&mut self) -> Option<u16> {
                Some(u16::from_le_bytes(self.take(2)?.try_into().ok()?))
            }
            fn u32(&mut self) -> Option<u32> {
                Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
            }
            fn u64(&mut self) -> Option<u64> {
                Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
            }
            fn take(&mut self, n: usize) -> Option<&[u8]> {
                let (head, rest) = self.0.split_at_checked(n)?;
                self.0 = rest;
                Some(head)
            }
            /// An element count, refused unless that many `width`-byte
            /// elements fit in the bytes that remain.
            fn count(&mut self, width: usize) -> Option<usize> {
                let n = usize::try_from(self.u64()?).ok()?;
                (n.checked_mul(width)? <= self.0.len()).then_some(n)
            }
        }
        let mut rd = Rd(bytes);
        if rd.u8()? != 2 {
            return None;
        }
        let max_len = u64::from(crate::memory::MAX_PAGES) * crate::memory::PAGE_SIZE as u64;
        let mem_len = match rd.u8()? {
            0 => None,
            1 => {
                let len = rd.u64()?;
                if len % crate::memory::PAGE_SIZE as u64 != 0 || len > max_len {
                    return None;
                }
                Some(len)
            }
            _ => return None,
        };
        let page_budget = mem_len.unwrap_or(0) / DIRTY_PAGE_SIZE as u64;
        // Each run costs its header plus at least one byte.
        let n_runs = rd.count(RUN_HEADER + 1)?;
        let mut runs = Vec::with_capacity(n_runs);
        let mut data = Vec::new();
        // First address past the previous run.
        let mut end = 0;
        for _ in 0..n_runs {
            let run = Run {
                page: rd.u64()?,
                offset: rd.u16()?,
                len: rd.u16()?,
            };
            if run.len == 0
                || usize::from(run.offset) + usize::from(run.len) > DIRTY_PAGE_SIZE
                || run.page >= page_budget
                || run.start() < end
            {
                return None;
            }
            end = run.start() + u64::from(run.len);
            data.extend_from_slice(rd.take(usize::from(run.len))?);
            runs.push(run);
        }
        let n_globals = rd.count(8)?;
        let mut globals = Vec::with_capacity(n_globals);
        for _ in 0..n_globals {
            globals.push(rd.u64()?);
        }
        let n_table = rd.count(4)?;
        let mut table = Vec::with_capacity(n_table);
        for _ in 0..n_table {
            let v = rd.u32()?;
            table.push(if v == u32::MAX { None } else { Some(v) });
        }
        if !rd.0.is_empty() {
            return None;
        }
        Some(Self {
            mem_len,
            runs,
            bytes: data,
            globals,
            table,
        })
    }
}

/// Resolve a module's function imports against a linker, in import order.
fn resolve_imports(code: &CompiledModule, linker: &Linker) -> Result<Vec<HostSlot>, ModuleError> {
    let module = &code.module;
    let mut host_funcs = Vec::new();
    for imp in &module.imports {
        match &imp.desc {
            ImportDesc::Func(type_idx) => {
                let want = &module.types[*type_idx as usize];
                let Some((ty, f)) = linker.get(&imp.module, &imp.name) else {
                    return Err(ModuleError::Instantiate(format!(
                        "unresolved import {}.{}",
                        imp.module, imp.name
                    )));
                };
                if ty != want {
                    return Err(ModuleError::Instantiate(format!(
                        "import {}.{}: type mismatch (module wants {want}, host provides {ty})",
                        imp.module, imp.name
                    )));
                }
                host_funcs.push(HostSlot {
                    ty: ty.clone(),
                    f: Arc::clone(f),
                });
            }
            ImportDesc::Memory(_) => {
                return Err(ModuleError::Instantiate(
                    "imported memories are not supported; define the memory in-module".into(),
                ));
            }
            _ => unreachable!("rejected by validation"),
        }
    }
    Ok(host_funcs)
}

impl Instance {
    /// Instantiate a compiled module, resolving imports from `linker` and
    /// attaching `host_data` (retrievable in host functions through
    /// [`HostCtx::state`]). Runs the start function if present.
    ///
    /// Convenience wrapper over [`Instance::instantiate_shared`] for
    /// embeddings that build a fresh linker per instance; the host data is
    /// dropped on failure.
    pub fn instantiate(
        code: Arc<CompiledModule>,
        linker: Linker,
        host_data: Box<dyn Any + Send>,
    ) -> Result<Self, ModuleError> {
        Self::instantiate_shared(code, &linker, host_data, None).map_err(|(e, _)| e)
    }

    /// Instantiate a compiled module against a **shared** linker: the host
    /// function table is only borrowed (each resolved import clones its
    /// [`Arc`]), so one linker built once per embedding serves any number of
    /// concurrent instances.
    ///
    /// `fuel` bounds the *start function* too (it runs here, before this
    /// returns): untrusted modules cannot smuggle unmetered work into
    /// instantiation. The remaining fuel stays on the returned instance;
    /// embedders that refill per invocation overwrite it anyway.
    ///
    /// # Errors
    /// On failure the untouched `host_data` is handed back alongside the
    /// error, so an embedder that lent stateful resources to the instance
    /// (e.g. a file-system backend inside a WASI context) can recover them
    /// instead of losing them with the dropped box.
    #[allow(clippy::type_complexity, clippy::missing_panics_doc)]
    pub fn instantiate_shared(
        code: Arc<CompiledModule>,
        linker: &Linker,
        host_data: Box<dyn Any + Send>,
        fuel: Option<u64>,
    ) -> Result<Self, (ModuleError, Box<dyn Any + Send>)> {
        macro_rules! fail {
            ($e:expr) => {
                return Err(($e, host_data))
            };
        }
        let module = &code.module;
        // Resolve function imports, in order.
        let host_funcs = match resolve_imports(&code, linker) {
            Ok(h) => h,
            Err(e) => fail!(e),
        };

        // Memory + data segments.
        let mut memory = module.memory.map(Memory::new);
        for (i, seg) in module.data.iter().enumerate() {
            let Some(mem) = memory.as_mut() else {
                fail!(ModuleError::Instantiate(format!(
                    "data segment {i} without memory"
                )));
            };
            let offset = seg.offset.eval().as_i32().unwrap_or(0) as u32;
            let Some(dst) = mem.slice_mut(offset, seg.bytes.len() as u32) else {
                fail!(ModuleError::Instantiate(format!(
                    "data segment {i} out of bounds"
                )));
            };
            dst.copy_from_slice(&seg.bytes);
        }

        // Globals.
        let globals = module.globals.iter().map(|g| g.init.eval().to_bits()).collect();

        // Table + element segments.
        let mut table: Vec<Option<u32>> = match module.table {
            Some(l) => vec![None; l.min as usize],
            None => Vec::new(),
        };
        for (i, seg) in module.elems.iter().enumerate() {
            let offset = seg.offset.eval().as_i32().unwrap_or(0) as usize;
            if offset + seg.funcs.len() > table.len() {
                fail!(ModuleError::Instantiate(format!(
                    "element segment {i} out of bounds"
                )));
            }
            for (k, f) in seg.funcs.iter().enumerate() {
                table[offset + k] = Some(*f);
            }
        }

        let start = module.start;
        let mut inst = Self {
            code,
            memory,
            globals,
            table,
            host_funcs,
            host_data,
            meter: Meter::new(),
            fuel,
            deadline: None,
            page_sink: None,
            arena: FrameArena::default(),
        };
        if let Some(s) = start {
            if let Err(t) = inst.invoke_index(s, &[]) {
                return Err((
                    ModuleError::Instantiate(format!("start function trapped: {t}")),
                    inst.host_data,
                ));
            }
        }
        Ok(inst)
    }

    /// Rehydrate an instance directly from a snapshot: imports are resolved
    /// against the linker, then memory/globals/table are installed from the
    /// snapshot **without** re-applying data segments or re-running the
    /// start function — no guest instruction retires and the meter stays
    /// zero. This is the base instance of a session control plane's warm
    /// restore when no pooled slot serves: the parked session's
    /// [`SnapshotDelta`] is then applied onto it.
    ///
    /// Fuel, deadline and page sink start unset; the embedder
    /// re-attaches its own (they are service state, not guest state).
    ///
    /// # Errors
    /// Returns the untouched `host_data` alongside the error if an import
    /// cannot be resolved (same contract as [`Instance::instantiate_shared`]).
    #[allow(clippy::type_complexity)]
    pub fn from_snapshot(
        code: Arc<CompiledModule>,
        linker: &Linker,
        snap: &InstanceSnapshot,
        host_data: Box<dyn Any + Send>,
    ) -> Result<Self, (ModuleError, Box<dyn Any + Send>)> {
        let host_funcs = match resolve_imports(&code, linker) {
            Ok(h) => h,
            Err(e) => return Err((e, host_data)),
        };
        Ok(Self {
            code,
            memory: snap.memory.clone(),
            globals: snap.globals.clone(),
            table: snap.table.clone(),
            host_funcs,
            host_data,
            meter: Meter::new(),
            fuel: None,
            deadline: None,
            page_sink: None,
            arena: FrameArena::default(),
        })
    }

    /// Record the current memory image, globals and table so this instance
    /// (or any instance of the same compiled module) can later be recycled
    /// with [`Instance::reset_to`]. Usually taken right after instantiation,
    /// capturing the post-data-segment, post-start-function state.
    #[must_use]
    pub fn snapshot(&self) -> InstanceSnapshot {
        InstanceSnapshot {
            memory: self.memory.clone(),
            globals: self.globals.clone(),
            table: self.table.clone(),
        }
    }

    /// Restore the guest-visible mutable state (memory, globals, table) from
    /// a snapshot and clear the meter, making the instance indistinguishable
    /// from a freshly instantiated one — without re-running decode, validate,
    /// instantiate or the data segments. Host data, fuel and the page sink
    /// are left untouched (they belong to the embedder).
    pub fn reset_to(&mut self, snap: &InstanceSnapshot) {
        match (&mut self.memory, &snap.memory) {
            (Some(mem), Some(img)) => mem.restore_from(img),
            (mem, img) => {
                *mem = img.clone();
                if let Some(m) = mem.as_mut() {
                    // The clone inherited the snapshot's bitmap; the memory
                    // now *is* the snapshot, so nothing is dirty against it.
                    m.clear_dirty();
                }
            }
        }
        self.globals.clear();
        self.globals.extend_from_slice(&snap.globals);
        self.table.clear();
        self.table.extend_from_slice(&snap.table);
        self.meter.reset();
    }

    /// O(dirty pages) counterpart of [`Instance::reset_to`]: restore
    /// memory, globals and table from `snap` touching only the pages the
    /// dirty bitmap says may differ, and clear the meter. Valid whenever
    /// [`Instance::clear_dirty`] was last called while the instance's
    /// memory matched `snap` (the service layer maintains exactly this
    /// invariant for each session's base snapshot) — the result is
    /// bit-identical to a full `reset_to`, which the differential
    /// proptests in `tests/` assert across all execution tiers.
    pub fn reset_to_image(&mut self, snap: &InstanceSnapshot) {
        match (&mut self.memory, &snap.memory) {
            (Some(mem), Some(img)) => mem.restore_from_dirty(img),
            (mem, img) => {
                *mem = img.clone();
                if let Some(m) = mem.as_mut() {
                    m.clear_dirty();
                }
            }
        }
        self.globals.clear();
        self.globals.extend_from_slice(&snap.globals);
        self.table.clear();
        self.table.extend_from_slice(&snap.table);
        self.meter.reset();
    }

    /// Re-base the dirty-page bitmap: the current memory contents become
    /// the reference that [`Instance::snapshot_delta`] and
    /// [`Instance::reset_to_image`] measure against. Embedders call this
    /// right after capturing a base snapshot of the same state.
    pub fn clear_dirty(&mut self) {
        if let Some(mem) = self.memory.as_mut() {
            mem.clear_dirty();
        }
    }

    /// Number of 4 KiB memory pages currently marked dirty.
    #[must_use]
    pub fn dirty_page_count(&self) -> u64 {
        self.memory.as_ref().map_or(0, Memory::dirty_page_count)
    }

    /// Capture the difference between the current state and `base` as a
    /// [`SnapshotDelta`], touching only dirty pages. Pages the bitmap
    /// over-approximates (marked but byte-identical to the base) are
    /// compared and skipped; within a changed page only the runs of
    /// changed 8-byte words travel, so the delta is minimal even after
    /// churny write patterns. A page past the base's length is compared
    /// against zeros, which is what `memory.grow` left there. `base` must
    /// be the snapshot the bitmap was last re-based against
    /// ([`Instance::clear_dirty`]).
    #[must_use]
    pub fn snapshot_delta(&self, base: &InstanceSnapshot) -> SnapshotDelta {
        let mut runs = Vec::new();
        let mut bytes = Vec::new();
        if let Some(mem) = self.memory.as_ref() {
            for p in mem.dirty_pages() {
                let cur = mem
                    .dirty_page_bytes(p)
                    .expect("dirty bitmap only covers in-bounds pages");
                let old = base
                    .memory
                    .as_ref()
                    .and_then(|img| img.dirty_page_bytes(p))
                    .unwrap_or(&ZERO_PAGE);
                if old != cur {
                    diff_page(p, cur, old, &mut runs, &mut bytes);
                }
            }
        }
        SnapshotDelta {
            mem_len: self.memory.as_ref().map(|m| m.size_bytes() as u64),
            runs,
            bytes,
            globals: self.globals.clone(),
            table: self.table.clone(),
        }
    }

    /// The whole current state as a [`SnapshotDelta`] that carries every
    /// 4 KiB page as one whole-page run, so applying it onto *any* instance
    /// of the module reproduces this one. The park image of a module with a
    /// start function, whose base state cannot be rebuilt after a restart.
    #[must_use]
    pub fn full_delta(&self) -> SnapshotDelta {
        let bytes = self.memory.as_ref().map_or_else(Vec::new, |m| m.raw_data().to_vec());
        let runs = (0..(bytes.len() / DIRTY_PAGE_SIZE) as u64)
            .map(|page| Run {
                page,
                offset: 0,
                len: DIRTY_PAGE_SIZE as u16,
            })
            .collect();
        SnapshotDelta {
            mem_len: self.memory.as_ref().map(|m| m.size_bytes() as u64),
            runs,
            bytes,
            globals: self.globals.clone(),
            table: self.table.clone(),
        }
    }

    /// Replay a [`SnapshotDelta`] onto an instance sitting at the delta's
    /// base state: resize memory to the recorded length, write each carried
    /// run (marking its page dirty — it differs from the base again), and
    /// install globals and table. Bytes outside the runs are left as they
    /// are, which is why the instance must sit at the base state (a
    /// [`SnapshotDelta`] from [`Instance::full_delta`] covers every byte
    /// and applies onto any state). Clears the meter, like the reset
    /// paths. Returns `false` without touching anything if the delta does
    /// not fit the module's shape: it carries memory the instance lacks
    /// (or the reverse), a memory length outside the declared limits, or
    /// another number of globals or table slots — impossible through the
    /// sealed-park path, which keys deltas to their module.
    #[must_use]
    pub fn apply_delta(&mut self, delta: &SnapshotDelta) -> bool {
        if delta.globals.len() != self.globals.len() || delta.table.len() != self.table.len() {
            return false;
        }
        match (self.memory.as_mut(), delta.mem_len) {
            (None, None) => {}
            (Some(mem), Some(len)) => {
                if mem.resize_raw(len).is_none() {
                    return false;
                }
                let mut off = 0;
                for run in &delta.runs {
                    // `from_bytes` keeps every run inside `mem_len`, so the
                    // address fits the 4 GiB Wasm space.
                    let Some(dst) = u32::try_from(run.start())
                        .ok()
                        .and_then(|addr| mem.slice_mut(addr, u32::from(run.len)))
                    else {
                        return false;
                    };
                    let len = usize::from(run.len);
                    dst.copy_from_slice(&delta.bytes[off..off + len]);
                    off += len;
                }
            }
            _ => return false,
        }
        self.globals.clear();
        self.globals.extend_from_slice(&delta.globals);
        self.table.clear();
        self.table.extend_from_slice(&delta.table);
        self.meter.reset();
        true
    }

    /// Swap the host state attached to this instance, returning the
    /// previous one. This is how an instance pool hands a recycled slot to
    /// a new tenant: the slot parks with a placeholder `Box<()>` and
    /// checkout installs the tenant's own context.
    pub fn replace_host_data(
        &mut self,
        host_data: Box<dyn Any + Send>,
    ) -> Box<dyn Any + Send> {
        std::mem::replace(&mut self.host_data, host_data)
    }

    /// Attach (or clear) the EPC page sink.
    pub fn set_page_sink(&mut self, sink: Option<Box<dyn PageSink>>) {
        self.page_sink = sink;
    }

    /// Flush the attached page sink's buffered accounting (no-op without a
    /// sink, or for sinks that don't buffer). Embedders that batch shared
    /// EPC accounting call this at the end of each invocation.
    pub fn flush_page_sink(&mut self) {
        if let Some(sink) = self.page_sink.as_deref_mut() {
            sink.flush();
        }
    }

    /// Borrow the guest memory.
    #[must_use]
    pub fn memory(&self) -> Option<&Memory> {
        self.memory.as_ref()
    }

    /// Borrow the host state.
    pub fn state<T: 'static>(&mut self) -> &mut T {
        self.host_data.downcast_mut::<T>().expect("host state type")
    }

    /// Consume the instance and recover the host state (e.g. to reclaim a
    /// file-system backend for the next run).
    pub fn into_state<T: 'static>(self) -> Option<T> {
        self.host_data.downcast::<T>().ok().map(|b| *b)
    }

    /// The compiled module.
    #[must_use]
    pub fn code(&self) -> &CompiledModule {
        &self.code
    }

    /// Read a global by index (for tests and embedding).
    #[must_use]
    pub fn global(&self, idx: u32) -> Option<Value> {
        let g = self.code.module.globals.get(idx as usize)?;
        Some(Value::from_bits(g.ty.ty, self.globals[idx as usize]))
    }

    /// Invoke an exported function by name.
    pub fn invoke(&mut self, name: &str, args: &[Value]) -> Result<Vec<Value>, Trap> {
        let idx = self
            .code
            .module
            .find_export(name, ExternKind::Func)
            .ok_or_else(|| Trap::BadInvoke(format!("no exported function {name:?}")))?;
        self.invoke_index(idx, args)
    }

    /// Invoke a function by unified index.
    pub fn invoke_index(&mut self, func_idx: u32, args: &[Value]) -> Result<Vec<Value>, Trap> {
        let ty = self
            .code
            .module
            .func_type(func_idx)
            .ok_or_else(|| Trap::BadInvoke(format!("function index {func_idx} out of range")))?
            .clone();
        if args.len() != ty.params.len() {
            return Err(Trap::BadInvoke(format!(
                "expected {} arguments, got {}",
                ty.params.len(),
                args.len()
            )));
        }
        for (a, p) in args.iter().zip(ty.params.iter()) {
            if a.ty() != *p {
                return Err(Trap::BadInvoke(format!(
                    "argument type mismatch: expected {p}, got {}",
                    a.ty()
                )));
            }
        }
        let n_imports = self.code.module.num_imported_funcs() as usize;
        if (func_idx as usize) < n_imports {
            // Directly invoking a host import.
            let mut opds: Vec<u64> = args.iter().map(|a| a.to_bits()).collect();
            self.call_host(func_idx as usize, &mut opds)?;
            let results = ty.results.clone();
            return Ok(collect_results(&opds, &results));
        }
        // Reuse the arena's operand vector (grow-only; warm invocations
        // allocate nothing here).
        let mut opds = std::mem::take(&mut self.arena.opds);
        opds.clear();
        for a in args {
            opds.push(a.to_bits());
        }
        let run = self.run(func_idx as usize - n_imports, &mut opds);
        let out = run.map(|()| collect_results(&opds, &ty.results));
        // The operand vector is the reference interpreter's full operand
        // stack and grows with guest behaviour — put it back and let the
        // arena's one retention policy decide what to keep.
        self.arena.opds = opds;
        self.arena.shrink_to_cap();
        out
    }

    // ------------------------------------------------------------------
    // Host calls
    // ------------------------------------------------------------------

    fn call_host(&mut self, import_idx: usize, opds: &mut Vec<u64>) -> Result<(), Trap> {
        let slot = &self.host_funcs[import_idx];
        let n = slot.ty.params.len();
        let base = opds.len() - n;
        let args: Vec<Value> = slot
            .ty
            .params
            .iter()
            .enumerate()
            .map(|(i, t)| Value::from_bits(*t, opds[base + i]))
            .collect();
        opds.truncate(base);
        let mut ctx = HostCtx {
            memory: self.memory.as_mut(),
            data: self.host_data.as_mut(),
        };
        let results = (slot.f)(&mut ctx, &args)?;
        if results.len() != slot.ty.results.len() {
            return Err(Trap::Host(format!(
                "host function returned {} values, expected {}",
                results.len(),
                slot.ty.results.len()
            )));
        }
        for (r, t) in results.iter().zip(slot.ty.results.iter()) {
            if r.ty() != *t {
                return Err(Trap::Host("host function result type mismatch".into()));
            }
            opds.push(r.to_bits());
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // The dispatch loop
    // ------------------------------------------------------------------
    //
    // `run` is the one entry both executors share: it owns fuel, deadline
    // and meter bookkeeping and hands the frame arena to the register
    // tier's loop (`run_reg`) or to the reference interpreter
    // (`run_inner`), which dispatches each function's flattened `ops`
    // one at a time — one metering class and one unit of fuel per op, the
    // stream the register tier must reproduce.

    fn run(&mut self, entry_func: usize, opds: &mut Vec<u64>) -> Result<(), Trap> {
        // Hot-loop bookkeeping lives in locals (a counts array and a fuel
        // copy) and is merged back once per invocation — including on the
        // trap paths, which flow through this wrapper. The frame arena is
        // taken out of the instance for the duration of the run (so the
        // dispatch loop can borrow it and the instance independently) and
        // put back afterwards, preserving its grown capacity.
        //
        // The preemption deadline rides on the fuel machinery instead of
        // adding a second budget check to both dispatch loops: execution
        // runs against min(fuel, deadline), the one budget the loops
        // already decrement with exact partial metering and reg-tier
        // rollback. Afterwards the retired amount is subtracted from both
        // budgets separately, and a budget-exhaustion stop is attributed
        // to whichever budget was binding. Every tier therefore inherits
        // deadline bit-identity from the fuel differential for free.
        let fuel0 = self.fuel;
        let deadline0 = self.deadline;
        let combined0 = match (fuel0, deadline0) {
            (Some(f), Some(d)) => Some(f.min(d)),
            (f, d) => f.or(d),
        };
        let mut counts = [0u64; crate::meter::NUM_CLASSES];
        let mut fuel = combined0;
        let mut arena = std::mem::take(&mut self.arena);
        arena.locals.clear();
        arena.frames.clear();
        arena.regs.clear();
        arena.reg_frames.clear();
        let result = if self.code.tier == ExecTier::Reg {
            let n_regions = self
                .code
                .reg
                .last()
                .map_or(0, |rf| rf.region_base as usize + rf.blocks.len());
            // The counter array is all-zero between invocations (the fold
            // below re-zeroes what it visits), so sizing it is a one-time
            // cost per instance, not a per-call memset.
            if arena.region_hits.len() != n_regions {
                arena.region_hits.clear();
                arena.region_hits.resize(n_regions, 0);
            }
            let mut mem_stats = MemStats::default();
            let result = self.run_reg(
                entry_func,
                opds,
                &mut arena,
                &mut counts,
                &mut fuel,
                &mut mem_stats,
            );
            self.meter.bytes_accessed += mem_stats.bytes;
            self.meter.page_transitions += mem_stats.pages;
            // Fold the region-entry counters into the per-class counts —
            // on the trap paths too: everything retired before the trap
            // was counted — re-zeroing each counter for the next call.
            // This is a sequential 8-bytes-per-region scan; `BlockMeter`
            // data is only dereferenced for regions that actually ran.
            // Deliberate tradeoff: tracking touched regions/functions
            // inside the dispatch loop to shrink this scan was measured
            // at a 5–12% hit on reg-tier throughput, which dwarfs the
            // scan's microseconds for any realistic module.
            for rf in &self.code.reg {
                let hits = &mut arena.region_hits[rf.region_base as usize..];
                for (b, h) in rf.blocks.iter().zip(hits.iter_mut()) {
                    let h = std::mem::take(h);
                    if h > 0 {
                        for &(ci, n) in b.classes.iter() {
                            counts[ci as usize] += h * u64::from(n);
                        }
                    }
                }
            }
            result
        } else {
            self.run_inner(entry_func, opds, &mut arena, &mut counts, &mut fuel)
        };
        arena.shrink_to_cap();
        self.arena = arena;
        if let Some(b0) = combined0 {
            let spent = b0 - fuel.unwrap_or(0);
            self.fuel = fuel0.map(|f| f - spent);
            self.deadline = deadline0.map(|d| d - spent);
        }
        self.meter.add_counts(&counts);
        match result {
            // The combined budget ran dry: the stop belongs to the deadline
            // exactly when the deadline was strictly the smaller budget
            // (ties go to OutOfFuel — the tenant was out of budget no
            // matter how the scheduler sliced it).
            Err(Trap::OutOfFuel) if deadline0.is_some_and(|d| fuel0.is_none_or(|f| d < f)) => {
                Err(Trap::DeadlineExceeded)
            }
            r => r,
        }
    }

    // Out of line: no serving path runs the reference interpreter, and
    // inlined it would sit inside `invoke_index`, which every warm call of
    // the register tier enters.
    #[inline(never)]
    #[allow(clippy::too_many_lines)]
    fn run_inner(
        &mut self,
        entry_func: usize,
        opds: &mut Vec<u64>,
        arena: &mut FrameArena,
        counts: &mut [u64; crate::meter::NUM_CLASSES],
        fuel_slot: &mut Option<u64>,
    ) -> Result<(), Trap> {
        let code = Arc::clone(&self.code);
        let n_imports = code.module.num_imported_funcs() as usize;
        let FrameArena { locals, frames, .. } = arena;
        let mut last_page: u64 = u64::MAX;

        push_frame(&code, entry_func, opds, locals, frames)?;

        'frames: loop {
            let frame = *frames.last().expect("active frame");
            let func = &code.funcs[frame.func];
            let ops = &func.ops;
            let classes = &func.classes;
            let mut pc = frame.pc;
            let lb = frame.locals_base;
            let ob = frame.opd_base;

            macro_rules! pop {
                () => {
                    opds.pop().expect("validated stack")
                };
            }
            macro_rules! top {
                () => {
                    *opds.last().expect("validated stack")
                };
            }
            macro_rules! touch_page {
                ($addr:expr, $off:expr) => {{
                    let page = (u64::from($addr) + u64::from($off)) >> 12;
                    if page != last_page {
                        last_page = page;
                        self.meter.page_transitions += 1;
                        if let Some(sink) = self.page_sink.as_deref_mut() {
                            sink.touch(page);
                        }
                    }
                }};
            }
            // Take a resolved branch: shuffle the operand stack and jump.
            macro_rules! take_branch {
                ($bt:expr) => {{
                    let bt = $bt;
                    do_branch(opds, ob, bt);
                    pc = bt.target as usize;
                    continue;
                }};
            }

            loop {
                if let Some(fuel) = fuel_slot.as_mut() {
                    if *fuel == 0 {
                        return Err(Trap::OutOfFuel);
                    }
                    *fuel -= 1;
                }
                counts[classes[pc].index()] += 1;
                match &ops[pc] {
                    Op::Unreachable => return Err(Trap::Unreachable),
                    Op::Br(bt) => take_branch!(bt),
                    Op::BrIf(bt) => {
                        let cond = pop!();
                        if cond as u32 != 0 {
                            take_branch!(bt);
                        }
                    }
                    Op::BrTable(table) => {
                        let idx = pop!() as u32 as usize;
                        let bt = table.get(idx).unwrap_or_else(|| table.last().expect("default"));
                        take_branch!(bt);
                    }
                    Op::Jump(t) => {
                        pc = *t as usize;
                        continue;
                    }
                    Op::JumpIfZero(t) => {
                        let cond = pop!();
                        if cond as u32 == 0 {
                            pc = *t as usize;
                            continue;
                        }
                    }
                    Op::Return | Op::End => {
                        let n_results = func.n_results;
                        let from = opds.len() - n_results;
                        for k in 0..n_results {
                            opds[ob + k] = opds[from + k];
                        }
                        opds.truncate(ob + n_results);
                        locals.truncate(lb);
                        frames.pop();
                        if frames.is_empty() {
                            return Ok(());
                        }
                        continue 'frames;
                    }
                    Op::Call(g) => {
                        let g = *g as usize;
                        if g < n_imports {
                            self.call_host(g, opds)?;
                        } else {
                            frames.last_mut().expect("frame").pc = pc + 1;
                            push_frame(&code, g - n_imports, opds, locals, frames)?;
                            continue 'frames;
                        }
                    }
                    Op::CallIndirect(type_idx) => {
                        let idx = pop!() as u32 as usize;
                        let g = self
                            .table
                            .get(idx)
                            .copied()
                            .flatten()
                            .ok_or(Trap::UndefinedElement)? as usize;
                        let want = &code.module.types[*type_idx as usize];
                        let got = code
                            .module
                            .func_type(g as u32)
                            .ok_or(Trap::UndefinedElement)?;
                        if want != got {
                            return Err(Trap::IndirectTypeMismatch);
                        }
                        if g < n_imports {
                            self.call_host(g, opds)?;
                        } else {
                            frames.last_mut().expect("frame").pc = pc + 1;
                            push_frame(&code, g - n_imports, opds, locals, frames)?;
                            continue 'frames;
                        }
                    }
                    Op::Drop => {
                        pop!();
                    }
                    Op::Select => {
                        let c = pop!() as u32;
                        let v2 = pop!();
                        let v1 = pop!();
                        opds.push(if c != 0 { v1 } else { v2 });
                    }
                    Op::LocalGet(i) => opds.push(locals[lb + *i as usize]),
                    Op::LocalSet(i) => locals[lb + *i as usize] = pop!(),
                    Op::LocalTee(i) => locals[lb + *i as usize] = top!(),
                    Op::GlobalGet(i) => opds.push(self.globals[*i as usize]),
                    Op::GlobalSet(i) => self.globals[*i as usize] = pop!(),
                    Op::Load(kind, off) => {
                        let addr = pop!() as u32;
                        touch_page!(addr, *off);
                        let mem = self.memory.as_ref().expect("validated memory");
                        opds.push(load_value(mem, *kind, addr, *off).ok_or(Trap::MemOutOfBounds)?);
                        self.meter.bytes_accessed += kind.width() as u64;
                    }
                    Op::Store(kind, off) => {
                        let v = pop!();
                        let addr = pop!() as u32;
                        touch_page!(addr, *off);
                        let mem = self.memory.as_mut().expect("validated memory");
                        store_value(mem, *kind, addr, *off, v).ok_or(Trap::MemOutOfBounds)?;
                        self.meter.bytes_accessed += kind.width() as u64;
                    }
                    Op::MemorySize => {
                        let mem = self.memory.as_ref().expect("validated memory");
                        opds.push(u64::from(mem.size_pages()));
                    }
                    Op::MemoryGrow => {
                        let delta = pop!() as u32;
                        let mem = self.memory.as_mut().expect("validated memory");
                        let r = match mem.grow(delta) {
                            Some(old) => old as i32,
                            None => -1,
                        };
                        opds.push(r as u32 as u64);
                    }
                    Op::MemoryCopy => {
                        let len = pop!() as u32;
                        let src = pop!() as u32;
                        let dst = pop!() as u32;
                        let mem = self.memory.as_mut().expect("validated memory");
                        mem.copy_within(dst, src, len).ok_or(Trap::MemOutOfBounds)?;
                        self.meter.bytes_accessed += u64::from(len) * 2;
                    }
                    Op::MemoryFill => {
                        let len = pop!() as u32;
                        let val = pop!() as u32 as u8;
                        let dst = pop!() as u32;
                        let mem = self.memory.as_mut().expect("validated memory");
                        mem.fill(dst, val, len).ok_or(Trap::MemOutOfBounds)?;
                        self.meter.bytes_accessed += u64::from(len);
                    }
                    Op::Const(bits) => opds.push(*bits),
                    Op::ITestEqz(w) => {
                        let v = pop!();
                        opds.push(u64::from(is_zero(*w, v)));
                    }
                    Op::IUnop(w, op) => {
                        let v = pop!();
                        opds.push(iunop(*w, *op, v));
                    }
                    Op::IBinop(w, op) => {
                        let b = pop!();
                        let a = pop!();
                        opds.push(ibinop(*w, *op, a, b)?);
                    }
                    Op::IRelop(w, op) => {
                        let b = pop!();
                        let a = pop!();
                        opds.push(u64::from(irelop(*w, *op, a, b)));
                    }
                    Op::FUnop(w, op) => {
                        let v = pop!();
                        opds.push(funop(*w, *op, v));
                    }
                    Op::FBinop(w, op) => {
                        let b = pop!();
                        let a = pop!();
                        opds.push(fbinop(*w, *op, a, b));
                    }
                    Op::FRelop(w, op) => {
                        let b = pop!();
                        let a = pop!();
                        opds.push(u64::from(frelop(*w, *op, a, b)));
                    }
                    Op::Cvt(op) => {
                        let v = pop!();
                        opds.push(cvt(*op, v)?);
                    }
                }
                pc += 1;
            }
        }
    }

    // ------------------------------------------------------------------
    // The register-tier dispatch loop
    // ------------------------------------------------------------------
    //
    // Executes the three-address code of `crate::regalloc` against a flat
    // register slab: no operand-stack pushes/pops, zero-copy calls (a
    // callee's frame base is placed on the caller's argument slots), and
    // fuel + metering charged per charge region (`BlockMeter`) at control
    // transfers instead of per op. Every way into a region — frame entry,
    // taken branch, fall-through past a branch, return from a call — goes
    // through `charge!`, which pre-charges the whole region's fuel and
    // sparse class counts; straight-line execution then runs with zero
    // accounting. Two cold paths restore bit-exact baseline accounting: a
    // region that no longer fits the remaining fuel falls back to per-op
    // charging (so the out-of-fuel trap point and partial metering match
    // the baseline exactly), and a trap inside a pre-charged region rolls
    // back the fuel and class counts of the ops after the trap point (see
    // `throw!`).

    fn run_reg(
        &mut self,
        entry_func: usize,
        opds: &mut Vec<u64>,
        arena: &mut FrameArena,
        counts: &mut [u64; crate::meter::NUM_CLASSES],
        fuel_slot: &mut Option<u64>,
        mem_stats: &mut MemStats,
    ) -> Result<(), Trap> {
        // Monomorphize the dispatch loop on whether a fuel budget exists:
        // the unfuelled loop (the common serving configuration) compiles
        // with no per-op accounting at all — region charging is a single
        // counter increment per control transfer.
        if fuel_slot.is_some() {
            self.run_reg_impl::<true>(entry_func, opds, arena, counts, fuel_slot, mem_stats)
        } else {
            self.run_reg_impl::<false>(entry_func, opds, arena, counts, fuel_slot, mem_stats)
        }
    }

    #[allow(clippy::too_many_lines)]
    fn run_reg_impl<const FUELLED: bool>(
        &mut self,
        entry_func: usize,
        opds: &mut Vec<u64>,
        arena: &mut FrameArena,
        counts: &mut [u64; crate::meter::NUM_CLASSES],
        fuel_slot: &mut Option<u64>,
        mem_stats: &mut MemStats,
    ) -> Result<(), Trap> {
        let code = Arc::clone(&self.code);
        let n_imports = code.module.num_imported_funcs() as usize;
        let FrameArena {
            regs,
            reg_frames: frames,
            region_hits: hits,
            ..
        } = arena;
        let mut last_page: u64 = u64::MAX;

        push_reg_frame(&code, entry_func, 0, regs, frames)?;
        regs[..opds.len()].copy_from_slice(opds);
        opds.clear();

        'frames: loop {
            let frame = *frames.last().expect("active frame");
            let rf = &code.reg[frame.func];
            let ops = &rf.ops;
            let costs = &rf.costs;
            let block_of = &rf.block_of;
            let blocks = &rf.blocks;
            let region_base = rf.region_base as usize;
            let fb = frame.base;
            let mut pc = frame.pc;
            // Charge-region state. In charged mode `charged_until` is
            // `usize::MAX` (the region's whole cost is accounted; its end
            // needs no per-op test because only a control transfer can
            // leave it, and every transfer re-charges); in the
            // fuel-starved fallback it is the entry pc, making the per-op
            // check below fire for the rest of the region. `charged_from`
            // and `charged_li` remember the entry point and local region
            // index for exact trap rollback.
            let mut charged_until: usize = 0;
            let mut charged_from: usize = 0;
            let mut charged_li: usize = 0;

            // Frame-relative slot access.
            macro_rules! r {
                ($s:expr) => {
                    regs[fb + $s as usize]
                };
            }
            // Charge the region entered at `pc` (always a leader): deduct
            // its whole fuel up front and count one region entry (folded
            // into per-class counts at the end of the invocation), or fall
            // back to per-op charging if the remaining fuel cannot cover
            // the whole region.
            macro_rules! charge {
                () => {{
                    let li = block_of[pc] as usize - 1;
                    let batched = if !FUELLED {
                        true
                    } else {
                        match fuel_slot.as_mut() {
                            None => true,
                            Some(fuel) => {
                                let need = blocks[li].fuel;
                                if *fuel < need {
                                    false
                                } else {
                                    *fuel -= need;
                                    true
                                }
                            }
                        }
                    };
                    if batched {
                        hits[region_base + li] += 1;
                        charged_from = pc;
                        charged_li = li;
                        if FUELLED {
                            charged_until = usize::MAX;
                        }
                    } else {
                        charged_until = pc;
                    }
                }};
            }
            // Transfer control to `pc` and charge the region it enters.
            macro_rules! enter {
                ($new_pc:expr) => {{
                    pc = $new_pc;
                    charge!();
                    continue;
                }};
            }
            // Abort the invocation with a trap. If the current region was
            // pre-charged, un-count it and re-meter the executed prefix
            // (entry..=trap op) per op, refunding the fuel of the ops
            // after the trap point — bit-exact baseline accounting.
            macro_rules! throw {
                ($t:expr) => {{
                    let t = $t;
                    if !FUELLED || charged_until == usize::MAX {
                        hits[region_base + charged_li] -= 1;
                        let mut spent = 0u64;
                        for cost in &costs[charged_from..=pc] {
                            spent += u64::from(cost.len);
                            for c in &cost.classes[..cost.len as usize] {
                                counts[c.index()] += 1;
                            }
                        }
                        if FUELLED {
                            if let Some(fuel) = fuel_slot.as_mut() {
                                *fuel += blocks[charged_li].fuel - spent;
                            }
                        }
                    }
                    return Err(t);
                }};
            }
            macro_rules! tr {
                ($e:expr) => {
                    match $e {
                        Ok(v) => v,
                        Err(t) => throw!(t),
                    }
                };
            }
            macro_rules! touch_page {
                ($addr:expr, $off:expr) => {{
                    let page = (u64::from($addr) + u64::from($off)) >> 12;
                    if page != last_page {
                        last_page = page;
                        mem_stats.pages += 1;
                        if let Some(sink) = self.page_sink.as_deref_mut() {
                            sink.touch(page);
                        }
                    }
                }};
            }
            // Load `$kind` from `$addr` (+static offset) into slot `$dst`.
            macro_rules! do_load {
                ($kind:expr, $off:expr, $addr:expr, $dst:expr) => {{
                    let addr: u32 = $addr;
                    let kind = $kind;
                    touch_page!(addr, $off);
                    let mem = self.memory.as_ref().expect("validated memory");
                    let v = match load_value(mem, kind, addr, $off) {
                        Some(v) => v,
                        None => throw!(Trap::MemOutOfBounds),
                    };
                    mem_stats.bytes += kind.width() as u64;
                    regs[fb + $dst as usize] = v;
                }};
            }
            // Store `$v` as `$kind` at `$addr` (+static offset).
            macro_rules! do_store {
                ($kind:expr, $off:expr, $addr:expr, $v:expr) => {{
                    let addr: u32 = $addr;
                    let kind = $kind;
                    let v: u64 = $v;
                    touch_page!(addr, $off);
                    let mem = self.memory.as_mut().expect("validated memory");
                    if store_value(mem, kind, addr, $off, v).is_none() {
                        throw!(Trap::MemOutOfBounds);
                    }
                    mem_stats.bytes += kind.width() as u64;
                }};
            }
            // Take a resolved branch: copy the carried values, jump, and
            // charge the region the branch enters.
            macro_rules! take_branch {
                ($br:expr) => {{
                    let br = $br;
                    let from = fb + br.from as usize;
                    let to = fb + br.to as usize;
                    for k in 0..br.arity as usize {
                        regs[to + k] = regs[from + k];
                    }
                    enter!(br.target as usize);
                }};
            }

            // Frame (re-)entry is a control transfer: charge the region at
            // the entry/resume pc (function start, or the op after a call).
            charge!();

            loop {
                if FUELLED && pc >= charged_until {
                    // Per-op fallback: the region charge found too little
                    // fuel for the whole region — replicate the baseline
                    // tier op by op, including the partially-metered
                    // out-of-fuel stop. (On the fully-charged fast path
                    // this is one always-false compare; without a fuel
                    // budget the whole block compiles away.)
                    let cost = &costs[pc];
                    let need = u64::from(cost.len);
                    if let Some(fuel) = fuel_slot.as_mut() {
                        if *fuel < need {
                            for c in &cost.classes[..*fuel as usize] {
                                counts[c.index()] += 1;
                            }
                            *fuel = 0;
                            return Err(Trap::OutOfFuel);
                        }
                        *fuel -= need;
                    }
                    for c in &cost.classes[..cost.len as usize] {
                        counts[c.index()] += 1;
                    }
                }

                match &ops[pc] {
                    RegOp::Nop => {}
                    RegOp::Unreachable => throw!(Trap::Unreachable),
                    RegOp::Br(br) => take_branch!(*br),
                    RegOp::BrIf { cond, br } => {
                        if r!(*cond) as u32 != 0 {
                            take_branch!(*br);
                        }
                        enter!(pc + 1);
                    }
                    RegOp::BrTable { idx, table } => {
                        let i = r!(*idx) as u32 as usize;
                        let br = table.get(i).unwrap_or_else(|| table.last().expect("default"));
                        take_branch!(*br);
                    }
                    RegOp::Jump(t) => enter!(*t as usize),
                    RegOp::JumpIfZero { cond, target } => {
                        if r!(*cond) as u32 == 0 {
                            enter!(*target as usize);
                        }
                        enter!(pc + 1);
                    }
                    RegOp::Ret { from, n } => {
                        let n = *n as usize;
                        let from = fb + *from as usize;
                        for k in 0..n {
                            regs[fb + k] = regs[from + k];
                        }
                        frames.pop();
                        if frames.is_empty() {
                            opds.extend_from_slice(&regs[fb..fb + n]);
                            return Ok(());
                        }
                        continue 'frames;
                    }
                    RegOp::Call { func, base } => {
                        let g = *func as usize;
                        let abs = fb + *base as usize;
                        if g < n_imports {
                            tr!(self.call_host_reg(g, regs, abs));
                            enter!(pc + 1);
                        } else {
                            frames.last_mut().expect("frame").pc = pc + 1;
                            tr!(push_reg_frame(&code, g - n_imports, abs, regs, frames));
                            continue 'frames;
                        }
                    }
                    RegOp::CallIndirect {
                        type_idx,
                        idx,
                        base,
                    } => {
                        let i = r!(*idx) as u32 as usize;
                        let g = match self.table.get(i).copied().flatten() {
                            Some(g) => g as usize,
                            None => throw!(Trap::UndefinedElement),
                        };
                        let want = &code.module.types[*type_idx as usize];
                        let got = match code.module.func_type(g as u32) {
                            Some(t) => t,
                            None => throw!(Trap::UndefinedElement),
                        };
                        if want != got {
                            throw!(Trap::IndirectTypeMismatch);
                        }
                        let abs = fb + *base as usize;
                        if g < n_imports {
                            tr!(self.call_host_reg(g, regs, abs));
                            enter!(pc + 1);
                        } else {
                            frames.last_mut().expect("frame").pc = pc + 1;
                            tr!(push_reg_frame(&code, g - n_imports, abs, regs, frames));
                            continue 'frames;
                        }
                    }
                    RegOp::Select { dst, a, b, cond } => {
                        let v = if r!(*cond) as u32 != 0 { r!(*a) } else { r!(*b) };
                        r!(*dst) = v;
                    }
                    RegOp::Copy { dst, src } => r!(*dst) = r!(*src),
                    RegOp::CopyPair { d1, s1, d2, s2 } => {
                        r!(*d1) = r!(*s1);
                        r!(*d2) = r!(*s2);
                    }
                    RegOp::GlobalGet { dst, idx } => r!(*dst) = self.globals[*idx as usize],
                    RegOp::GlobalSet { src, idx } => self.globals[*idx as usize] = r!(*src),
                    RegOp::Const { dst, bits } => r!(*dst) = *bits,
                    RegOp::MemorySize { dst } => {
                        let mem = self.memory.as_ref().expect("validated memory");
                        r!(*dst) = u64::from(mem.size_pages());
                    }
                    RegOp::MemoryGrow { dst, delta } => {
                        let delta = r!(*delta) as u32;
                        let mem = self.memory.as_mut().expect("validated memory");
                        let v = match mem.grow(delta) {
                            Some(old) => old as i32,
                            None => -1,
                        };
                        r!(*dst) = v as u32 as u64;
                    }
                    RegOp::MemoryCopy { dst, src, len } => {
                        let len = r!(*len) as u32;
                        let src = r!(*src) as u32;
                        let dst = r!(*dst) as u32;
                        let mem = self.memory.as_mut().expect("validated memory");
                        if mem.copy_within(dst, src, len).is_none() {
                            throw!(Trap::MemOutOfBounds);
                        }
                        mem_stats.bytes += u64::from(len) * 2;
                    }
                    RegOp::MemoryFill { dst, val, len } => {
                        let len = r!(*len) as u32;
                        let val = r!(*val) as u32 as u8;
                        let dst = r!(*dst) as u32;
                        let mem = self.memory.as_mut().expect("validated memory");
                        if mem.fill(dst, val, len).is_none() {
                            throw!(Trap::MemOutOfBounds);
                        }
                        mem_stats.bytes += u64::from(len);
                    }
                    RegOp::Eqz { w, dst, src } => {
                        r!(*dst) = u64::from(is_zero(*w, r!(*src)));
                    }
                    RegOp::IUnop { w, op, dst, src } => r!(*dst) = iunop(*w, *op, r!(*src)),
                    RegOp::IBinop { w, op, dst, a, b } => {
                        r!(*dst) = tr!(ibinop(*w, *op, r!(*a), r!(*b)));
                    }
                    RegOp::IBinopImm { w, op, dst, a, rhs } => {
                        r!(*dst) = tr!(ibinop(*w, *op, r!(*a), *rhs));
                    }
                    RegOp::IBinop2Imm {
                        w,
                        op1,
                        op2,
                        dst,
                        a,
                        rhs,
                        b,
                    } => {
                        let inner = tr!(ibinop(*w, *op1, r!(*a), *rhs));
                        r!(*dst) = tr!(ibinop(*w, *op2, inner, r!(*b)));
                    }
                    RegOp::IRelop { w, op, dst, a, b } => {
                        r!(*dst) = u64::from(irelop(*w, *op, r!(*a), r!(*b)));
                    }
                    RegOp::FUnop { w, op, dst, src } => r!(*dst) = funop(*w, *op, r!(*src)),
                    RegOp::FBinop { w, op, dst, a, b } => {
                        r!(*dst) = fbinop(*w, *op, r!(*a), r!(*b));
                    }
                    RegOp::FBinopImm { w, op, dst, a, rhs } => {
                        r!(*dst) = fbinop(*w, *op, r!(*a), *rhs);
                    }
                    RegOp::FBinop2 {
                        w1,
                        op1,
                        w2,
                        op2,
                        dst,
                        c,
                        a,
                        b,
                    } => {
                        let inner = fbinop(*w1, *op1, r!(*a), r!(*b));
                        r!(*dst) = fbinop(*w2, *op2, r!(*c), inner);
                    }
                    RegOp::FRelop { w, op, dst, a, b } => {
                        r!(*dst) = u64::from(frelop(*w, *op, r!(*a), r!(*b)));
                    }
                    RegOp::Cvt { op, dst, src } => r!(*dst) = tr!(cvt(*op, r!(*src))),
                    RegOp::Load {
                        kind,
                        offset,
                        dst,
                        addr,
                    } => {
                        do_load!(*kind, *offset, r!(*addr) as u32, *dst);
                    }
                    RegOp::LoadConstAddr {
                        kind,
                        offset,
                        dst,
                        addr,
                    } => {
                        do_load!(*kind, *offset, *addr as u32, *dst);
                    }
                    RegOp::LoadTee {
                        kind,
                        offset,
                        dst,
                        addr,
                        tee,
                    } => {
                        let a = r!(*addr);
                        r!(*tee) = a;
                        do_load!(*kind, *offset, a as u32, *dst);
                    }
                    RegOp::LoadIdx {
                        w,
                        op,
                        kind,
                        offset,
                        dst,
                        a,
                        b,
                    } => {
                        let addr = tr!(ibinop(*w, *op, r!(*a), r!(*b)));
                        do_load!(*kind, *offset, addr as u32, *dst);
                    }
                    RegOp::LoadIdxImm {
                        w,
                        op,
                        kind,
                        offset,
                        dst,
                        a,
                        rhs,
                    } => {
                        let addr = tr!(ibinop(*w, *op, r!(*a), *rhs));
                        do_load!(*kind, *offset, addr as u32, *dst);
                    }
                    RegOp::Store {
                        kind,
                        offset,
                        addr,
                        val,
                    } => {
                        do_store!(*kind, *offset, r!(*addr) as u32, r!(*val));
                    }
                    RegOp::StoreConst {
                        kind,
                        offset,
                        addr,
                        bits,
                    } => {
                        do_store!(*kind, *offset, r!(*addr) as u32, *bits);
                    }
                    RegOp::StoreI {
                        w,
                        op,
                        kind,
                        offset,
                        addr,
                        a,
                        b,
                    } => {
                        let v = tr!(ibinop(*w, *op, r!(*a), r!(*b)));
                        do_store!(*kind, *offset, r!(*addr) as u32, v);
                    }
                    RegOp::StoreF {
                        w,
                        op,
                        kind,
                        offset,
                        addr,
                        a,
                        b,
                    } => {
                        let v = fbinop(*w, *op, r!(*a), r!(*b));
                        do_store!(*kind, *offset, r!(*addr) as u32, v);
                    }
                    RegOp::StoreFImm {
                        w,
                        op,
                        kind,
                        offset,
                        addr,
                        a,
                        rhs,
                    } => {
                        let v = fbinop(*w, *op, r!(*a), *rhs);
                        do_store!(*kind, *offset, r!(*addr) as u32, v);
                    }
                    RegOp::CmpBr {
                        w,
                        op,
                        a,
                        b,
                        invert,
                        br,
                    } => {
                        if irelop(*w, *op, r!(*a), r!(*b)) != *invert {
                            take_branch!(*br);
                        }
                        enter!(pc + 1);
                    }
                    RegOp::CmpImmBr {
                        w,
                        op,
                        a,
                        rhs,
                        invert,
                        br,
                    } => {
                        if irelop(*w, *op, r!(*a), *rhs) != *invert {
                            take_branch!(*br);
                        }
                        enter!(pc + 1);
                    }
                    RegOp::EqzBr { w, v, br } => {
                        if is_zero(*w, r!(*v)) {
                            take_branch!(*br);
                        }
                        enter!(pc + 1);
                    }
                    RegOp::CmpJumpIfNot { w, op, a, b, target } => {
                        if !irelop(*w, *op, r!(*a), r!(*b)) {
                            enter!(*target as usize);
                        }
                        enter!(pc + 1);
                    }
                    RegOp::CmpImmJumpIfNot {
                        w,
                        op,
                        a,
                        rhs,
                        target,
                    } => {
                        if !irelop(*w, *op, r!(*a), *rhs) {
                            enter!(*target as usize);
                        }
                        enter!(pc + 1);
                    }
                }
                pc += 1;
            }
        }
    }

    /// Host call on the register tier: arguments are read from (and
    /// results written back to) the caller's frame slots at `base` — the
    /// same zero-copy convention guest calls use.
    fn call_host_reg(
        &mut self,
        import_idx: usize,
        regs: &mut [u64],
        base: usize,
    ) -> Result<(), Trap> {
        let slot = &self.host_funcs[import_idx];
        let args: Vec<Value> = slot
            .ty
            .params
            .iter()
            .enumerate()
            .map(|(i, t)| Value::from_bits(*t, regs[base + i]))
            .collect();
        let mut ctx = HostCtx {
            memory: self.memory.as_mut(),
            data: self.host_data.as_mut(),
        };
        let results = (slot.f)(&mut ctx, &args)?;
        if results.len() != slot.ty.results.len() {
            return Err(Trap::Host(format!(
                "host function returned {} values, expected {}",
                results.len(),
                slot.ty.results.len()
            )));
        }
        for (i, (r, t)) in results.iter().zip(slot.ty.results.iter()).enumerate() {
            if r.ty() != *t {
                return Err(Trap::Host("host function result type mismatch".into()));
            }
            regs[base + i] = r.to_bits();
        }
        Ok(())
    }
}

/// Zero test at the given integer width (the `eqz` semantics).
#[inline]
fn is_zero(w: IntWidth, v: u64) -> bool {
    match w {
        IntWidth::W32 => v as u32 == 0,
        IntWidth::W64 => v == 0,
    }
}

fn collect_results(opds: &[u64], results: &[crate::types::ValType]) -> Vec<Value> {
    results
        .iter()
        .enumerate()
        .map(|(i, t)| Value::from_bits(*t, opds[opds.len() - results.len() + i]))
        .collect()
}

fn push_frame(
    code: &CompiledModule,
    local_func: usize,
    opds: &mut Vec<u64>,
    locals: &mut Vec<u64>,
    frames: &mut Vec<Frame>,
) -> Result<(), Trap> {
    if frames.len() >= MAX_CALL_DEPTH {
        return Err(Trap::StackExhausted);
    }
    let func = &code.funcs[local_func];
    let locals_base = locals.len();
    let args_start = opds.len() - func.n_params;
    locals.extend_from_slice(&opds[args_start..]);
    locals.resize(locals_base + func.n_locals, 0);
    opds.truncate(args_start);
    frames.push(Frame {
        func: local_func,
        pc: 0,
        opd_base: opds.len(),
        locals_base,
    });
    Ok(())
}

/// Activate a register-tier frame whose base overlaps the caller's
/// argument slots (zero-copy calls): the slab is grown to cover the new
/// frame and the callee's non-parameter locals are zeroed (the slab is
/// reused across calls and invocations, so stale values must not leak
/// into fresh locals).
fn push_reg_frame(
    code: &CompiledModule,
    local_func: usize,
    base: usize,
    regs: &mut Vec<u64>,
    frames: &mut Vec<RegFrame>,
) -> Result<(), Trap> {
    if frames.len() >= MAX_CALL_DEPTH {
        return Err(Trap::StackExhausted);
    }
    let rf = &code.reg[local_func];
    let f = &code.funcs[local_func];
    let top = base + rf.n_slots as usize;
    if regs.len() < top {
        regs.resize(top, 0);
    }
    for slot in &mut regs[base + f.n_params..base + f.n_locals] {
        *slot = 0;
    }
    frames.push(RegFrame {
        func: local_func,
        pc: 0,
        base,
    });
    Ok(())
}

#[inline]
fn do_branch(opds: &mut Vec<u64>, base: usize, bt: &BranchTarget) {
    let dest = base + bt.height as usize;
    let arity = bt.arity as usize;
    let from = opds.len() - arity;
    for k in 0..arity {
        opds[dest + k] = opds[from + k];
    }
    opds.truncate(dest + arity);
}

// ---------------------------------------------------------------------
// Numeric semantics
// ---------------------------------------------------------------------

fn load_value(mem: &Memory, kind: LoadKind, addr: u32, off: u32) -> Option<u64> {
    use LoadKind::*;
    Some(match kind {
        I32 => u64::from(u32::from_le_bytes(mem.read::<4>(addr, off)?)),
        I64 => u64::from_le_bytes(mem.read::<8>(addr, off)?),
        F32 => u64::from(u32::from_le_bytes(mem.read::<4>(addr, off)?)),
        F64 => u64::from_le_bytes(mem.read::<8>(addr, off)?),
        I32_8S => i64::from(mem.read::<1>(addr, off)?[0] as i8) as u32 as u64,
        I32_8U => u64::from(mem.read::<1>(addr, off)?[0]),
        I32_16S => i64::from(i16::from_le_bytes(mem.read::<2>(addr, off)?)) as u32 as u64,
        I32_16U => u64::from(u16::from_le_bytes(mem.read::<2>(addr, off)?)),
        I64_8S => (i64::from(mem.read::<1>(addr, off)?[0] as i8)) as u64,
        I64_8U => u64::from(mem.read::<1>(addr, off)?[0]),
        I64_16S => i64::from(i16::from_le_bytes(mem.read::<2>(addr, off)?)) as u64,
        I64_16U => u64::from(u16::from_le_bytes(mem.read::<2>(addr, off)?)),
        I64_32S => i64::from(i32::from_le_bytes(mem.read::<4>(addr, off)?)) as u64,
        I64_32U => u64::from(u32::from_le_bytes(mem.read::<4>(addr, off)?)),
    })
}

fn store_value(mem: &mut Memory, kind: StoreKind, addr: u32, off: u32, v: u64) -> Option<()> {
    use StoreKind::*;
    match kind {
        I32 | F32 => mem.write::<4>(addr, off, (v as u32).to_le_bytes()),
        I64 | F64 => mem.write::<8>(addr, off, v.to_le_bytes()),
        I32_8 | I64_8 => mem.write::<1>(addr, off, [v as u8]),
        I32_16 | I64_16 => mem.write::<2>(addr, off, (v as u16).to_le_bytes()),
        I64_32 => mem.write::<4>(addr, off, (v as u32).to_le_bytes()),
    }
}

fn iunop(w: IntWidth, op: IUnOp, v: u64) -> u64 {
    match w {
        IntWidth::W32 => {
            let x = v as u32;
            let r = match op {
                IUnOp::Clz => x.leading_zeros(),
                IUnOp::Ctz => x.trailing_zeros(),
                IUnOp::Popcnt => x.count_ones(),
            };
            u64::from(r)
        }
        IntWidth::W64 => {
            let r = match op {
                IUnOp::Clz => v.leading_zeros(),
                IUnOp::Ctz => v.trailing_zeros(),
                IUnOp::Popcnt => v.count_ones(),
            };
            u64::from(r)
        }
    }
}

fn ibinop(w: IntWidth, op: IBinOp, a: u64, b: u64) -> Result<u64, Trap> {
    use IBinOp::*;
    match w {
        IntWidth::W32 => {
            let x = a as u32;
            let y = b as u32;
            let r: u32 = match op {
                Add => x.wrapping_add(y),
                Sub => x.wrapping_sub(y),
                Mul => x.wrapping_mul(y),
                DivS => {
                    let (x, y) = (x as i32, y as i32);
                    if y == 0 {
                        return Err(Trap::DivByZero);
                    }
                    if x == i32::MIN && y == -1 {
                        return Err(Trap::IntOverflow);
                    }
                    (x / y) as u32
                }
                DivU => {
                    if y == 0 {
                        return Err(Trap::DivByZero);
                    }
                    x / y
                }
                RemS => {
                    let (x, y) = (x as i32, y as i32);
                    if y == 0 {
                        return Err(Trap::DivByZero);
                    }
                    x.wrapping_rem(y) as u32
                }
                RemU => {
                    if y == 0 {
                        return Err(Trap::DivByZero);
                    }
                    x % y
                }
                And => x & y,
                Or => x | y,
                Xor => x ^ y,
                Shl => x.wrapping_shl(y),
                ShrS => ((x as i32).wrapping_shr(y)) as u32,
                ShrU => x.wrapping_shr(y),
                Rotl => x.rotate_left(y & 31),
                Rotr => x.rotate_right(y & 31),
            };
            Ok(u64::from(r))
        }
        IntWidth::W64 => {
            let x = a;
            let y = b;
            let r: u64 = match op {
                Add => x.wrapping_add(y),
                Sub => x.wrapping_sub(y),
                Mul => x.wrapping_mul(y),
                DivS => {
                    let (x, y) = (x as i64, y as i64);
                    if y == 0 {
                        return Err(Trap::DivByZero);
                    }
                    if x == i64::MIN && y == -1 {
                        return Err(Trap::IntOverflow);
                    }
                    (x / y) as u64
                }
                DivU => {
                    if y == 0 {
                        return Err(Trap::DivByZero);
                    }
                    x / y
                }
                RemS => {
                    let (x, y) = (x as i64, y as i64);
                    if y == 0 {
                        return Err(Trap::DivByZero);
                    }
                    x.wrapping_rem(y) as u64
                }
                RemU => {
                    if y == 0 {
                        return Err(Trap::DivByZero);
                    }
                    x % y
                }
                And => x & y,
                Or => x | y,
                Xor => x ^ y,
                Shl => x.wrapping_shl(y as u32),
                ShrS => ((x as i64).wrapping_shr(y as u32)) as u64,
                ShrU => x.wrapping_shr(y as u32),
                Rotl => x.rotate_left((y & 63) as u32),
                Rotr => x.rotate_right((y & 63) as u32),
            };
            Ok(r)
        }
    }
}

fn irelop(w: IntWidth, op: IRelOp, a: u64, b: u64) -> bool {
    use IRelOp::*;
    match w {
        IntWidth::W32 => {
            let (xu, yu) = (a as u32, b as u32);
            let (xs, ys) = (xu as i32, yu as i32);
            match op {
                Eq => xu == yu,
                Ne => xu != yu,
                LtS => xs < ys,
                LtU => xu < yu,
                GtS => xs > ys,
                GtU => xu > yu,
                LeS => xs <= ys,
                LeU => xu <= yu,
                GeS => xs >= ys,
                GeU => xu >= yu,
            }
        }
        IntWidth::W64 => {
            let (xu, yu) = (a, b);
            let (xs, ys) = (xu as i64, yu as i64);
            match op {
                Eq => xu == yu,
                Ne => xu != yu,
                LtS => xs < ys,
                LtU => xu < yu,
                GtS => xs > ys,
                GtU => xu > yu,
                LeS => xs <= ys,
                LeU => xu <= yu,
                GeS => xs >= ys,
                GeU => xu >= yu,
            }
        }
    }
}

fn funop(w: FloatWidth, op: FUnOp, v: u64) -> u64 {
    use FUnOp::*;
    match w {
        FloatWidth::W32 => {
            let x = f32::from_bits(v as u32);
            let r = match op {
                Abs => x.abs(),
                Neg => -x,
                Ceil => x.ceil(),
                Floor => x.floor(),
                Trunc => x.trunc(),
                Nearest => x.round_ties_even(),
                Sqrt => x.sqrt(),
            };
            u64::from(r.to_bits())
        }
        FloatWidth::W64 => {
            let x = f64::from_bits(v);
            let r = match op {
                Abs => x.abs(),
                Neg => -x,
                Ceil => x.ceil(),
                Floor => x.floor(),
                Trunc => x.trunc(),
                Nearest => x.round_ties_even(),
                Sqrt => x.sqrt(),
            };
            r.to_bits()
        }
    }
}

fn fmin<T: num_float::Float>(a: T, b: T) -> T {
    if a.is_nan() || b.is_nan() {
        T::nan()
    } else if a < b {
        a
    } else if b < a {
        b
    } else if a.is_sign_negative() {
        a
    } else {
        b
    }
}

fn fmax<T: num_float::Float>(a: T, b: T) -> T {
    if a.is_nan() || b.is_nan() {
        T::nan()
    } else if a > b {
        a
    } else if b > a {
        b
    } else if a.is_sign_positive() {
        a
    } else {
        b
    }
}

/// Minimal float abstraction so `fmin`/`fmax` are width-generic without an
/// external num crate.
mod num_float {
    pub trait Float: Copy + PartialOrd {
        fn is_nan(self) -> bool;
        fn nan() -> Self;
        fn is_sign_negative(self) -> bool;
        fn is_sign_positive(self) -> bool;
    }
    impl Float for f32 {
        fn is_nan(self) -> bool {
            f32::is_nan(self)
        }
        fn nan() -> Self {
            f32::NAN
        }
        fn is_sign_negative(self) -> bool {
            f32::is_sign_negative(self)
        }
        fn is_sign_positive(self) -> bool {
            f32::is_sign_positive(self)
        }
    }
    impl Float for f64 {
        fn is_nan(self) -> bool {
            f64::is_nan(self)
        }
        fn nan() -> Self {
            f64::NAN
        }
        fn is_sign_negative(self) -> bool {
            f64::is_sign_negative(self)
        }
        fn is_sign_positive(self) -> bool {
            f64::is_sign_positive(self)
        }
    }
}

fn fbinop(w: FloatWidth, op: FBinOp, a: u64, b: u64) -> u64 {
    use FBinOp::*;
    match w {
        FloatWidth::W32 => {
            let x = f32::from_bits(a as u32);
            let y = f32::from_bits(b as u32);
            let r = match op {
                Add => x + y,
                Sub => x - y,
                Mul => x * y,
                Div => x / y,
                Min => fmin(x, y),
                Max => fmax(x, y),
                Copysign => x.copysign(y),
            };
            u64::from(r.to_bits())
        }
        FloatWidth::W64 => {
            let x = f64::from_bits(a);
            let y = f64::from_bits(b);
            let r = match op {
                Add => x + y,
                Sub => x - y,
                Mul => x * y,
                Div => x / y,
                Min => fmin(x, y),
                Max => fmax(x, y),
                Copysign => x.copysign(y),
            };
            r.to_bits()
        }
    }
}

fn frelop(w: FloatWidth, op: FRelOp, a: u64, b: u64) -> bool {
    use FRelOp::*;
    match w {
        FloatWidth::W32 => {
            let x = f32::from_bits(a as u32);
            let y = f32::from_bits(b as u32);
            match op {
                Eq => x == y,
                Ne => x != y,
                Lt => x < y,
                Gt => x > y,
                Le => x <= y,
                Ge => x >= y,
            }
        }
        FloatWidth::W64 => {
            let x = f64::from_bits(a);
            let y = f64::from_bits(b);
            match op {
                Eq => x == y,
                Ne => x != y,
                Lt => x < y,
                Gt => x > y,
                Le => x <= y,
                Ge => x >= y,
            }
        }
    }
}

/// Checked float→int truncation per the spec (traps on NaN/out-of-range).
fn trunc_checked(x: f64, min_excl: f64, max_excl: f64) -> Result<f64, Trap> {
    if x.is_nan() {
        return Err(Trap::InvalidConversion);
    }
    let t = x.trunc();
    if t <= min_excl || t >= max_excl {
        return Err(Trap::IntOverflow);
    }
    Ok(t)
}

fn cvt(op: CvtOp, v: u64) -> Result<u64, Trap> {
    use CvtOp::*;
    Ok(match op {
        I32WrapI64 => v as u32 as u64,
        I64ExtendI32S => (v as u32 as i32 as i64) as u64,
        I64ExtendI32U => u64::from(v as u32),
        I32TruncF32S => {
            let t = trunc_checked(f64::from(f32::from_bits(v as u32)), -2_147_483_649.0, 2_147_483_648.0)?;
            (t as i32) as u32 as u64
        }
        I32TruncF32U => {
            let t = trunc_checked(f64::from(f32::from_bits(v as u32)), -1.0, 4_294_967_296.0)?;
            u64::from(t as u32)
        }
        I32TruncF64S => {
            let t = trunc_checked(f64::from_bits(v), -2_147_483_649.0, 2_147_483_648.0)?;
            (t as i32) as u32 as u64
        }
        I32TruncF64U => {
            let t = trunc_checked(f64::from_bits(v), -1.0, 4_294_967_296.0)?;
            u64::from(t as u32)
        }
        I64TruncF32S | I64TruncF64S => {
            let x = if op == I64TruncF32S {
                f64::from(f32::from_bits(v as u32))
            } else {
                f64::from_bits(v)
            };
            if x.is_nan() {
                return Err(Trap::InvalidConversion);
            }
            let t = x.trunc();
            // 2^63 is exactly representable; i64::MIN too.
            if !(-9_223_372_036_854_775_808.0..9_223_372_036_854_775_808.0).contains(&t) {
                return Err(Trap::IntOverflow);
            }
            (t as i64) as u64
        }
        I64TruncF32U | I64TruncF64U => {
            let x = if op == I64TruncF32U {
                f64::from(f32::from_bits(v as u32))
            } else {
                f64::from_bits(v)
            };
            if x.is_nan() {
                return Err(Trap::InvalidConversion);
            }
            let t = x.trunc();
            if t >= 18_446_744_073_709_551_616.0 || t <= -1.0 {
                return Err(Trap::IntOverflow);
            }
            t as u64
        }
        F32ConvertI32S => u64::from(((v as u32 as i32) as f32).to_bits()),
        F32ConvertI32U => u64::from(((v as u32) as f32).to_bits()),
        F32ConvertI64S => u64::from(((v as i64) as f32).to_bits()),
        F32ConvertI64U => u64::from((v as f32).to_bits()),
        F64ConvertI32S => ((v as u32 as i32) as f64).to_bits(),
        F64ConvertI32U => ((v as u32) as f64).to_bits(),
        F64ConvertI64S => ((v as i64) as f64).to_bits(),
        F64ConvertI64U => (v as f64).to_bits(),
        F32DemoteF64 => u64::from((f64::from_bits(v) as f32).to_bits()),
        F64PromoteF32 => f64::from(f32::from_bits(v as u32)).to_bits(),
        I32ReinterpretF32 | F32ReinterpretI32 => v & 0xFFFF_FFFF,
        I64ReinterpretF64 | F64ReinterpretI64 => v,
        I32Extend8S => (v as u8 as i8 as i32) as u32 as u64,
        I32Extend16S => (v as u16 as i16 as i32) as u32 as u64,
        I64Extend8S => (v as u8 as i8 as i64) as u64,
        I64Extend16S => (v as u16 as i16 as i64) as u64,
        I64Extend32S => (v as u32 as i32 as i64) as u64,
    })
}
