//! Control-plane policy configuration and counters (DESIGN.md §10).
//!
//! The paper positions Twine as a *service* substrate — one long-lived
//! enclave serving many tenants (§VI runs SQLite workloads behind it). A
//! serving runtime needs three policies the execution engine itself cannot
//! provide:
//!
//! 1. **Eviction** — EPC is scarce (93 MiB usable, §II-B); idle sessions
//!    must not pin resident pages forever. The control plane parks the
//!    least-recently-used sessions: their state is snapshotted, **sealed**
//!    (it leaves the enclave, so it leaves encrypted and integrity-bound,
//!    exactly like protected files), and their EPC pages are released. The
//!    next invoke restores them warm, bit-identical to never having left.
//! 2. **Preemption** — one guest must not monopolise a shard. A
//!    per-invocation deadline (in fuel units, i.e. baseline-constituent
//!    instructions) stops a runaway invocation with exact metering,
//!    surfaced as
//!    [`Trap::DeadlineExceeded`](twine_wasm::Trap::DeadlineExceeded).
//! 3. **Admission control** — bounded per-shard queues and per-tenant
//!    in-flight caps reject excess load *typed*
//!    ([`TwineError::Overloaded`](crate::TwineError)) instead of queueing
//!    it unboundedly.
//!
//! Everything here is plain data; the mechanisms live in
//! `service.rs`/`sharded.rs` (policy) and `twine-wasm`'s dispatch loops
//! (deadline).

/// Control-plane configuration, set once on the
/// [`TwineBuilder`](crate::TwineBuilder) and applied by every
/// [`TwineService`](crate::TwineService) / shard. All knobs default to
/// `None` — the control plane is fully opt-in and a default-configured
/// service behaves exactly as before it existed. Every knob is set by a
/// test or bench that fails without it
/// (`tests/options_have_customers.rs`).
#[derive(Debug, Clone, Default)]
pub struct ControlPlane {
    /// Park least-recently-used sessions beyond this many live (unparked)
    /// sessions per service/shard.
    pub max_live_sessions: Option<usize>,
    /// Per-invocation preemption deadline, in fuel units
    /// (baseline-constituent instructions). Unlike fuel, exceeding it is
    /// a scheduler yield, not a tenant fault — guest state is kept, not
    /// wiped.
    pub deadline: Option<u64>,
    /// Bound each shard's command queue — the callers waiting at its gate,
    /// not counting the one running — to this depth; invoke/open commands
    /// that find the queue full are rejected with
    /// [`crate::TwineError::Overloaded`] instead of queueing unboundedly.
    pub queue_depth: Option<usize>,
    /// Per-tenant cap on in-flight commands across the sharded service
    /// (an `invoke_batch` counts as one). Excess calls are rejected with
    /// [`crate::TwineError::Overloaded`].
    pub max_in_flight: Option<u64>,
    /// Evict unreferenced module-cache entries whenever the cache holds
    /// more than this many compiled modules (wired to the same pressure
    /// enforcement as session parking).
    pub module_cache_capacity: Option<usize>,
    /// Keep up to this many pre-instantiated instance slots per module in
    /// an instance pool shared by every shard of the service.
    /// With a pool, opening a session over known bytes (and restoring a
    /// parked one) becomes a slot checkout instead of an instantiation
    /// (or a rehydration of the base image). `None` (the default) disables
    /// pooling: instances are dropped, not recycled. Either way a park
    /// seals the same delta image.
    pub pool_slots_per_module: Option<usize>,
    /// Durable park store: when set, every park additionally writes the
    /// sealed image through to rollback-protected untrusted storage (a
    /// journalled record file per session, tagged with a processor
    /// monotonic counter), and [`TwineService::recover`] can rebuild the
    /// session table from it after a simulated enclave crash/restart.
    /// Stale (replayed) images are rejected with
    /// [`crate::TwineError::Rollback`].
    ///
    /// [`TwineService::recover`]: crate::TwineService::recover
    pub durable_parks: Option<crate::DurableParkStore>,
}

/// Control-plane counters. Per-[`TwineService`](crate::TwineService)
/// (per-shard); [`ShardedService::control_stats`] sums them across shards
/// and adds the handle-level admission counters.
///
/// [`ShardedService::control_stats`]: crate::ShardedService::control_stats
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ControlStats {
    /// Sessions parked (sealed out) by the eviction policy or
    /// `park_session`.
    pub parks: u64,
    /// Parked sessions restored warm on demand.
    pub restores: u64,
    /// Bytes of sealed session state written out across the enclave
    /// boundary (also accounted in the enclave's `boundary_bytes`).
    pub sealed_bytes: u64,
    /// Bytes of sealed session state read back in for restores.
    pub unsealed_bytes: u64,
    /// Invocations stopped by the deadline preemption policy.
    pub deadline_preemptions: u64,
    /// Commands rejected because a bounded shard queue was full
    /// (handle-level; always 0 on a single `TwineService`).
    pub queue_rejections: u64,
    /// Commands rejected by the per-tenant in-flight cap (handle-level;
    /// always 0 on a single `TwineService`).
    pub inflight_rejections: u64,
    /// Live (unparked) sessions at read time.
    pub live_sessions: u64,
    /// Parked sessions at read time.
    pub parked_sessions: u64,
    /// Pool-eligible opens/restores served from a pre-instantiated slot.
    pub pool_hits: u64,
    /// Pool-eligible opens/restores that had to instantiate fresh (pool
    /// empty, or slot not yet returned).
    pub pool_misses: u64,
    /// 4 KiB pages patched onto base-state instances by Wasm restores.
    pub dirty_pages_restored: u64,
    /// Faults fired by an installed [`FaultPlan`](twine_sgx::FaultPlan)
    /// across the whole enclave (gauge, read from the plan; a sharded
    /// aggregate fills it once at the handle, not per shard).
    pub faults_injected: u64,
    /// Boundary crossings retried after a transient injected fault
    /// (ECALL/OCALL/seal/unseal attempts beyond the first).
    pub retries: u64,
    /// Sessions quarantined because their parked image could not be
    /// restored (unseal kept failing): state preserved, invocations
    /// rejected typed instead of crashing the service.
    pub quarantines: u64,
    /// Pooled instance slots discarded at checkout because validation
    /// flagged them (injected corruption or residual dirty pages); the
    /// open falls back to a fresh instantiation.
    pub pool_discards: u64,
    /// Sessions rebuilt from durable parks by [`recover`]
    /// (restart recovery, not warm restores).
    ///
    /// [`recover`]: crate::TwineService::recover
    pub recovered_sessions: u64,
    /// Durable park images rejected during [`recover`] because their
    /// freshness tag was older than the processor monotonic counter (a
    /// rollback/replay attempt).
    ///
    /// [`recover`]: crate::TwineService::recover
    pub rollback_rejected: u64,
    /// SQL statements executed across every DB session (each statement of
    /// a batch counts once).
    pub db_statements: u64,
    /// DB-session statements served from a per-session plan cache keyed
    /// by statement shape — zero parser work.
    pub stmt_cache_hits: u64,
    /// DB-session statements that had to be parsed and planned.
    pub stmt_cache_misses: u64,
}

impl ControlStats {
    /// Sum counters (gauges included — the sharded aggregate's gauges are
    /// the across-shard totals).
    pub fn merge(&mut self, other: &ControlStats) {
        // Destructured without `..`: a counter added to the struct and not
        // to the sum below does not compile.
        let ControlStats {
            parks,
            restores,
            sealed_bytes,
            unsealed_bytes,
            deadline_preemptions,
            queue_rejections,
            inflight_rejections,
            live_sessions,
            parked_sessions,
            pool_hits,
            pool_misses,
            dirty_pages_restored,
            faults_injected,
            retries,
            quarantines,
            pool_discards,
            recovered_sessions,
            rollback_rejected,
            db_statements,
            stmt_cache_hits,
            stmt_cache_misses,
        } = *other;
        self.parks += parks;
        self.restores += restores;
        self.sealed_bytes += sealed_bytes;
        self.unsealed_bytes += unsealed_bytes;
        self.deadline_preemptions += deadline_preemptions;
        self.queue_rejections += queue_rejections;
        self.inflight_rejections += inflight_rejections;
        self.live_sessions += live_sessions;
        self.parked_sessions += parked_sessions;
        self.pool_hits += pool_hits;
        self.pool_misses += pool_misses;
        self.dirty_pages_restored += dirty_pages_restored;
        self.faults_injected += faults_injected;
        self.retries += retries;
        self.quarantines += quarantines;
        self.pool_discards += pool_discards;
        self.recovered_sessions += recovered_sessions;
        self.rollback_rejected += rollback_rejected;
        self.db_statements += db_statements;
        self.stmt_cache_hits += stmt_cache_hits;
        self.stmt_cache_misses += stmt_cache_misses;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Field `k` (in declaration order) set to `m * k`: every field distinct
    /// and non-zero, so a merge line that is missing or reads the wrong
    /// field shows up as a wrong sum.
    fn distinct(m: u64) -> ControlStats {
        let mut k = 0;
        let mut n = || {
            k += 1;
            m * k
        };
        ControlStats {
            parks: n(),
            restores: n(),
            sealed_bytes: n(),
            unsealed_bytes: n(),
            deadline_preemptions: n(),
            queue_rejections: n(),
            inflight_rejections: n(),
            live_sessions: n(),
            parked_sessions: n(),
            pool_hits: n(),
            pool_misses: n(),
            dirty_pages_restored: n(),
            faults_injected: n(),
            retries: n(),
            quarantines: n(),
            pool_discards: n(),
            recovered_sessions: n(),
            rollback_rejected: n(),
            db_statements: n(),
            stmt_cache_hits: n(),
            stmt_cache_misses: n(),
        }
    }

    #[test]
    fn merge_sums_all_counters() {
        let mut a = distinct(1);
        a.merge(&distinct(1_000));
        assert_eq!(a, distinct(1_001));
    }
}
