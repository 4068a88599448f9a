//! The sharded, multi-threaded service: N shards, each a [`TwineService`]
//! behind a FIFO-fair gate, all inside **one** simulated enclave
//! (DESIGN.md §9).
//!
//! The Twine follow-up runtime serves many tenants from one long-lived
//! enclave; a single-threaded service caps that at one core. This module
//! partitions the *session namespace* across shards by stable session-key
//! hash, while every expensive immutable artifact stays shared: the
//! enclave (clock, EPC pool, boundary counters), the host-function
//! [`Linker`](twine_wasm::Linker), the content-addressed [`ModuleCache`],
//! and the EPC-slot allocator.
//!
//! # Caller-runs
//!
//! In SGX an ECALL executes on the *calling* thread, which enters the
//! enclave through a TCS slot. A shard is modelled the same way: there
//! are no service threads, every command runs on the thread that issued
//! it, and the shard's gate admits one caller at a time. Per-session
//! mutable state (the `Instance`, its `WasiCtx`, the frame arena) is
//! therefore still **single-owner** — only the caller inside the gate
//! touches it. Concurrency comes from many caller threads addressing
//! different shards.
//!
//! The gate is a ticket lock, not a bare mutex: a caller takes the next
//! ticket on arrival and enters when every earlier ticket has left, so
//! commands run in arrival order and no caller can barge ahead of one
//! that has waited longer. A command that panics unwinds through its own
//! caller and leaves the shard *failed*: every later call to that shard
//! returns a typed [`TwineError::Session`] at once, other shards keep
//! serving.
//!
//! # Determinism
//!
//! Commands for one session always route to the same shard and run in
//! ticket (arrival) order, so a client that issues its calls for a given
//! session sequentially observes exactly the per-session ordering of a
//! single-threaded service. Everything a session computes depends only on
//! its own state: results, traps, per-class meters and fuel are
//! **bit-identical** to a single-threaded replay of the same per-session
//! call sequence (the `concurrent_serving` differential suite enforces
//! this). Only *globally shared counters* — virtual-clock cycles, EPC
//! fault counts, boundary stats — depend on cross-shard interleaving.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

use twine_sgx::{Enclave, SimClock};
use twine_wasi::FsBackend;
use twine_wasm::Value;

use crate::control::ControlStats;
use crate::runtime::{Overload, RunReport, TwineBuilder, TwineError};
use crate::service::{ModuleCache, SessionStats, Shared, TwineService};

/// Per-shard serving counters, for load inspection and the `fig8_serving
/// --threads` harness.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardStats {
    /// Live sessions on this shard.
    pub sessions: usize,
    /// Invocations (including `run`s) served by this shard.
    pub invocations: u64,
    /// Wall-clock nanoseconds callers spent *inside* this shard's gate
    /// (excludes waiting for a turn). Wall time, not CPU time: a caller
    /// descheduled while inside still counts, so the figure is only a
    /// per-core cost where the host has a core per client thread. There,
    /// `max(busy_ns)` across shards models the parallel makespan of the
    /// served work — the modelled-scaling figure of `fig8_serving
    /// --threads` (DESIGN.md §9).
    pub busy_ns: u64,
}

/// What a gate guards: one shard's service and its serving counters.
struct Shard {
    svc: TwineService,
    /// Callers blocked on [`Gate::turn`] (each holds a later ticket).
    parked: usize,
    invocations: u64,
    busy_ns: u64,
}

/// FIFO-fair entry to one shard (a shard is a TCS: one caller inside at a
/// time). `quota.rs`'s isolation bound and DESIGN.md §9's determinism
/// argument both rest on arrival order, which a bare `Mutex` does not
/// give — a releasing thread may re-acquire ahead of a sleeping waiter.
struct Gate {
    /// Next ticket to hand out; the order of `fetch_add`s *is* the
    /// arrival order.
    next: AtomicU64,
    /// Tickets that have left the gate; the holder of ticket `served` is
    /// the one allowed inside. Written and compared only under `shard`'s
    /// lock, which orders those accesses; the unlocked read in
    /// [`Gate::ticket`] is an admission estimate. It publishes no data, so
    /// `Relaxed` suffices everywhere.
    served: AtomicU64,
    /// Wakes parked callers when `served` advances.
    turn: Condvar,
    /// Poisoned ⇔ a command panicked inside: the shard has failed.
    shard: Mutex<Shard>,
}

impl Gate {
    /// Take the next ticket. With a `depth`, refuse (`None`) when that
    /// many callers are already waiting behind the one inside.
    fn ticket(&self, depth: Option<usize>) -> Option<u64> {
        let Some(depth) = depth else {
            return Some(self.next.fetch_add(1, Ordering::Relaxed));
        };
        self.next
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                // One caller inside plus the waiters. `served` may have
                // passed a stale `n`; the exchange then fails and retries.
                let inside = n.saturating_sub(self.served.load(Ordering::Relaxed));
                (inside <= depth.max(1) as u64).then_some(n + 1)
            })
            .ok()
    }
}

/// A caller's turn inside a gate. Leaving (normally or by unwinding)
/// passes the turn on; the lock guard drops last, so a panic has poisoned
/// the mutex by the time a woken waiter re-acquires it.
struct Turn<'a> {
    gate: &'a Gate,
    entered: Instant,
    shard: MutexGuard<'a, Shard>,
}

impl Drop for Turn<'_> {
    fn drop(&mut self) {
        self.shard.busy_ns += self.entered.elapsed().as_nanos() as u64;
        self.gate.served.fetch_add(1, Ordering::Relaxed);
        if self.shard.parked > 0 {
            self.gate.turn.notify_all();
        }
    }
}

/// RAII decrement of a tenant's in-flight count (see
/// [`crate::ControlPlane::max_in_flight`]). Held by the caller across its
/// whole call, so the count covers waiting *and* executing commands; it
/// borrows the caller's session name rather than copying it.
struct InFlightGuard<'a> {
    map: &'a Mutex<HashMap<String, u64>>,
    name: &'a str,
}

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        let mut m = self.map.lock().unwrap();
        if let Some(n) = m.get_mut(self.name) {
            *n -= 1;
            if *n == 0 {
                m.remove(self.name);
            }
        }
    }
}

/// A multi-threaded, sharded Twine service: named sessions partitioned
/// across gated shards by session-key hash, sharing one enclave, one
/// linker and one module cache.
///
/// The handle is `Send + Sync`: any number of client threads may call it
/// concurrently, and each call runs on its caller's thread. Calls for the
/// *same* session issued sequentially by one client keep single-threaded
/// semantics exactly (see the module docs).
///
/// ```
/// use twine_core::TwineBuilder;
/// use twine_wasm::Value;
///
/// let wasm = twine_minicc::compile_to_bytes(
///     "int double_it(int x) { return 2 * x; }").unwrap();
/// let svc = TwineBuilder::new().build_sharded(4);
/// svc.open_session("tenant-a", &wasm).unwrap();
/// svc.open_session("tenant-b", &wasm).unwrap(); // compiled once, shared
/// assert_eq!(svc.module_cache().len(), 1);
/// let out = svc.invoke("tenant-a", "double_it", &[Value::I32(21)]).unwrap();
/// assert_eq!(out[0], Value::I32(42));
/// ```
pub struct ShardedService {
    shards: Vec<Gate>,
    /// What every shard shares: the enclave, the module cache, the
    /// control-plane policy.
    shared: Shared,
    /// Per-tenant in-flight command counts (only consulted when
    /// [`crate::ControlPlane::max_in_flight`] is set).
    in_flight: Mutex<HashMap<String, u64>>,
    queue_rejections: AtomicU64,
    inflight_rejections: AtomicU64,
}

impl ShardedService {
    pub(crate) fn from_builder(b: TwineBuilder, shards: usize) -> Self {
        let shared = Shared::from_builder(b);
        let shards = (0..shards.max(1))
            .map(|_| Gate {
                next: AtomicU64::new(0),
                served: AtomicU64::new(0),
                turn: Condvar::new(),
                shard: Mutex::new(Shard {
                    svc: TwineService::new(shared.clone(), false),
                    parked: 0,
                    invocations: 0,
                    busy_ns: 0,
                }),
            })
            .collect();
        Self {
            shards,
            shared,
            in_flight: Mutex::new(HashMap::new()),
            queue_rejections: AtomicU64::new(0),
            inflight_rejections: AtomicU64::new(0),
        }
    }

    /// Number of shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard a session name routes to: a stable FNV-1a 64 hash of the
    /// name, mod the shard count — independent of process, platform and
    /// `HashMap` seeding, so placement (and thus per-shard load) is
    /// reproducible.
    #[must_use]
    pub fn shard_of(&self, name: &str) -> usize {
        (fnv1a(name.as_bytes()) % self.shards.len() as u64) as usize
    }

    /// The enclave hosting every shard's sessions.
    #[must_use]
    pub fn enclave(&self) -> &Arc<Enclave> {
        &self.shared.enclave
    }

    /// The shared virtual clock (all shards charge it).
    #[must_use]
    pub fn clock(&self) -> &SimClock {
        self.shared.enclave.clock()
    }

    /// The content-addressed module cache shared by all shards.
    #[must_use]
    pub fn module_cache(&self) -> &ModuleCache {
        &self.shared.cache
    }

    /// Run `f` inside `shard`'s gate, on this thread, once every command
    /// that arrived earlier has left it.
    ///
    /// `depth` is `Some` for load-bearing commands (open/invoke/batch/SQL)
    /// under [`crate::ControlPlane::queue_depth`]: when that many callers
    /// already wait, reject with [`TwineError::Overloaded`] instead of
    /// waiting — typed backpressure the caller may retry on.
    /// Control/introspection commands pass `None` and are never load-shed.
    fn enter<R>(
        &self,
        shard: usize,
        depth: Option<usize>,
        f: impl FnOnce(&mut Shard) -> R,
    ) -> Result<R, TwineError> {
        let gate = &self.shards[shard];
        let failed = || {
            TwineError::Session(format!(
                "shard {shard} failed: a command panicked inside it"
            ))
        };
        // Checked before ticketing: on a failed shard nobody advances
        // `served`, so the waiter count only grows.
        if gate.shard.is_poisoned() {
            return Err(failed());
        }
        let Some(ticket) = gate.ticket(depth) else {
            self.queue_rejections.fetch_add(1, Ordering::Relaxed);
            return Err(TwineError::Overloaded(Overload::QueueFull {
                shard,
                depth: depth.unwrap_or(0),
            }));
        };
        let mut guard = gate.shard.lock().map_err(|_| failed())?;
        while gate.served.load(Ordering::Relaxed) != ticket {
            guard.parked += 1;
            guard = gate.turn.wait(guard).map_err(|_| failed())?;
            guard.parked -= 1;
        }
        let mut turn = Turn {
            gate,
            entered: Instant::now(),
            shard: guard,
        };
        Ok(f(&mut turn.shard))
    }

    /// [`enter`](Self::enter) for a control/introspection command on the
    /// shard owning `name`.
    fn admin<R>(
        &self,
        name: &str,
        f: impl FnOnce(&mut TwineService) -> R,
    ) -> Result<R, TwineError> {
        self.enter(self.shard_of(name), None, |s| f(&mut s.svc))
    }

    /// [`enter`](Self::enter) for a warm-path command on `session`:
    /// counted against the tenant's in-flight cap, load-shed on a full
    /// queue.
    fn call<R>(
        &self,
        session: &str,
        f: impl FnOnce(&mut Shard) -> Result<R, TwineError>,
    ) -> Result<R, TwineError> {
        let _guard = self.acquire_in_flight(session)?;
        self.enter(self.shard_of(session), self.shared.control.queue_depth, f)?
    }

    /// Count `name` against its tenant in-flight cap, if one is
    /// configured. The returned guard releases the slot when the caller's
    /// call completes (any exit path). Only a tenant's first concurrent
    /// call allocates, for the map key it inserts.
    fn acquire_in_flight<'a>(
        &'a self,
        name: &'a str,
    ) -> Result<Option<InFlightGuard<'a>>, TwineError> {
        let Some(max) = self.shared.control.max_in_flight else {
            return Ok(None);
        };
        let mut m = self.in_flight.lock().unwrap();
        let n = m.get(name).copied().unwrap_or(0);
        if n >= max {
            self.inflight_rejections.fetch_add(1, Ordering::Relaxed);
            return Err(TwineError::Overloaded(Overload::InFlight {
                tenant: name.to_string(),
                max,
            }));
        }
        match m.get_mut(name) {
            Some(n) => *n += 1,
            None => {
                m.insert(name.to_string(), 1);
            }
        }
        Ok(Some(InFlightGuard {
            map: &self.in_flight,
            name,
        }))
    }

    /// Open a named session on the shard owning `name` (cold path). See
    /// [`TwineService::open_session`].
    pub fn open_session(&self, name: &str, wasm: &[u8]) -> Result<SessionStats, TwineError> {
        self.enter(self.shard_of(name), self.shared.control.queue_depth, |s| {
            s.svc.open_session(name, wasm).cloned()
        })?
    }

    /// Invoke an exported function on a session (warm path). See
    /// [`TwineService::invoke`].
    pub fn invoke(
        &self,
        session: &str,
        func: &str,
        args: &[Value],
    ) -> Result<Vec<Value>, TwineError> {
        self.call(session, |s| {
            s.invocations += 1;
            s.svc.invoke(session, func, args)
        })
    }

    /// [`invoke`](Self::invoke), also returning the per-invocation
    /// [`RunReport`].
    pub fn invoke_with_report(
        &self,
        session: &str,
        func: &str,
        args: &[Value],
    ) -> Result<(RunReport, Vec<Value>), TwineError> {
        self.call(session, |s| {
            s.invocations += 1;
            s.svc.invoke_with_report(session, func, args)
        })
    }

    /// Invoke the same export several times in one gate acquisition — the
    /// pipelined warm path. A batch runs in order on the session's shard
    /// (semantically identical to that many sequential
    /// [`invoke`](Self::invoke)s), but takes one ticket, waits for one
    /// turn and counts as one in-flight command for the whole run, and no
    /// other caller's command can interleave with it. Returns each call's
    /// results, in order; the first trap aborts the remainder of the
    /// batch.
    pub fn invoke_batch(
        &self,
        session: &str,
        func: &str,
        args_list: Vec<Vec<Value>>,
    ) -> Result<Vec<Vec<Value>>, TwineError> {
        self.call(session, |s| {
            let mut out = Vec::with_capacity(args_list.len());
            for args in &args_list {
                s.invocations += 1;
                out.push(s.svc.invoke(session, func, args)?);
            }
            Ok(out)
        })
    }

    /// Run a session's WASI `_start` export.
    pub fn run(&self, session: &str) -> Result<RunReport, TwineError> {
        self.invoke_with_report(session, "_start", &[])
            .map(|(report, _)| report)
    }

    /// Recycle a session to its post-instantiation state. See
    /// [`TwineService::reset_session`].
    pub fn reset_session(&self, name: &str) -> Result<(), TwineError> {
        self.admin(name, |svc| svc.reset_session(name))?
    }

    /// Override one session's per-invocation fuel budget.
    pub fn set_session_fuel(&self, name: &str, fuel: Option<u64>) -> Result<(), TwineError> {
        self.admin(name, |svc| svc.set_session_fuel(name, fuel))?
    }

    /// Park a session (seal its state out of the enclave and release its
    /// EPC pages). See [`TwineService::park_session`].
    pub fn park_session(&self, name: &str) -> Result<(), TwineError> {
        self.admin(name, |svc| svc.park_session(name))?
    }

    /// Control-plane counters summed across every shard, plus the
    /// handle-level admission counters (queue / in-flight rejections).
    #[must_use]
    pub fn control_stats(&self) -> ControlStats {
        let mut total = ControlStats::default();
        for i in 0..self.shards.len() {
            if let Ok(s) = self.enter(i, None, |s| s.svc.control_stats()) {
                total.merge(&s);
            }
        }
        total.queue_rejections += self.queue_rejections.load(Ordering::Relaxed);
        total.inflight_rejections += self.inflight_rejections.load(Ordering::Relaxed);
        // The fault-injection gauge is enclave-global (the plan is shared
        // by every shard); fill it exactly once at the handle instead of
        // summing one full copy per shard.
        if let Some(plan) = self.shared.enclave.fault_plan() {
            total.faults_injected = plan.total_injected();
        }
        total
    }

    /// The trusted-clock watermark of a session.
    #[must_use]
    pub fn session_clock_watermark(&self, name: &str) -> Option<u64> {
        self.admin(name, |svc| svc.session_clock_watermark(name))
            .ok()?
    }

    /// The compiled module backing a session. Pointer-identical across
    /// every session (on every shard) opened over the same Wasm bytes —
    /// the compile-once contract the `compile_race` suite asserts.
    #[must_use]
    pub fn session_module(&self, name: &str) -> Option<Arc<twine_wasm::compile::CompiledModule>> {
        self.admin(name, |svc| svc.session_module(name).cloned())
            .ok()?
    }

    /// Whether a session is currently parked (sealed out of the enclave).
    /// `None` when no session of that name exists or its shard has failed.
    /// See [`TwineService::session_parked`].
    #[must_use]
    pub fn session_parked(&self, name: &str) -> Option<bool> {
        self.admin(name, |svc| svc.session_parked(name)).ok()?
    }

    /// Bookkeeping for one session.
    #[must_use]
    pub fn session_stats(&self, name: &str) -> Option<SessionStats> {
        self.admin(name, |svc| svc.session_stats(name).cloned())
            .ok()?
    }

    /// Close a session, returning its file-system backend.
    ///
    /// `Ok(None)` means no session of that name exists; `Err` means the
    /// owning shard has failed — distinguished so an embedder persisting a
    /// tenant's protected files on close cannot mistake a failed shard for
    /// "nothing to save" and silently drop file state.
    ///
    /// # Errors
    /// [`TwineError::Session`] if the shard has failed.
    pub fn close_session(&self, name: &str) -> Result<Option<Box<dyn FsBackend>>, TwineError> {
        self.admin(name, |svc| svc.close_session(name))
    }

    /// Open a named database session on the shard owning `name` (cold
    /// path). See [`TwineService::db_open_session`].
    pub fn db_open_session(&self, name: &str) -> Result<(), TwineError> {
        self.enter(self.shard_of(name), self.shared.control.queue_depth, |s| {
            s.svc.db_open_session(name)
        })?
    }

    /// Execute one SQL statement on a session's database (warm path).
    /// See [`TwineService::db_execute`].
    pub fn db_execute(&self, name: &str, sql: &str) -> Result<u64, TwineError> {
        self.call(name, |s| {
            s.invocations += 1;
            s.svc.db_execute(name, sql)
        })
    }

    /// Execute one SQL statement and return its result rows. See
    /// [`TwineService::db_query`].
    pub fn db_query(
        &self,
        name: &str,
        sql: &str,
    ) -> Result<Vec<twine_sqldb::value::Row>, TwineError> {
        self.call(name, |s| {
            s.invocations += 1;
            s.svc.db_query(name, sql)
        })
    }

    /// Execute a batch of statements in one gate acquisition (the
    /// transactional warm path: wrap the batch in BEGIN/COMMIT entries to
    /// run it as one database transaction). Counts as one in-flight
    /// command, like [`invoke_batch`](Self::invoke_batch). See
    /// [`TwineService::db_execute_batch`].
    pub fn db_execute_batch(&self, name: &str, stmts: Vec<String>) -> Result<u64, TwineError> {
        self.call(name, |s| {
            s.invocations += stmts.len() as u64;
            s.svc.db_execute_batch(name, &stmts)
        })
    }

    /// Names of the tables in a session's database schema. See
    /// [`TwineService::db_table_names`].
    pub fn db_table_names(&self, name: &str) -> Result<Vec<String>, TwineError> {
        self.call(name, |s| s.svc.db_table_names(name))
    }

    /// Cumulative plan-cache counters for one database session. See
    /// [`TwineService::db_stmt_cache_stats`].
    #[must_use]
    pub fn db_stmt_cache_stats(&self, name: &str) -> Option<twine_sqldb::db::StmtCacheStats> {
        self.admin(name, |svc| svc.db_stmt_cache_stats(name)).ok()?
    }

    /// Close a database session, returning its protected backend (the
    /// tenant's database survives the session). Semantics mirror
    /// [`close_session`](Self::close_session): `Ok(None)` = no such
    /// session, `Err` = failed shard.
    ///
    /// # Errors
    /// [`TwineError::Session`] if the shard has failed.
    pub fn db_close_session(
        &self,
        name: &str,
    ) -> Result<Option<twine_sqldb::SharedBackend>, TwineError> {
        self.admin(name, |svc| svc.db_close_session(name))
    }

    /// Open sessions (live + parked) across all shards.
    #[must_use]
    pub fn session_count(&self) -> usize {
        self.shard_stats().iter().map(|s| s.sessions).sum()
    }

    /// Per-shard serving counters (indexed by shard; all-zero for a
    /// failed shard).
    #[must_use]
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        (0..self.shards.len())
            .map(|i| {
                self.enter(i, None, |s| ShardStats {
                    sessions: s.svc.session_count(),
                    invocations: s.invocations,
                    busy_ns: s.busy_ns,
                })
                .unwrap_or_default()
            })
            .collect()
    }
}

/// Stable 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests;
