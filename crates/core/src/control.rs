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
//!    instructions) and/or a shared epoch counter stop a runaway
//!    invocation with exact metering, surfaced as
//!    [`Trap::DeadlineExceeded`](twine_wasm::Trap::DeadlineExceeded).
//! 3. **Admission control** — bounded per-shard queues, per-tenant
//!    in-flight caps and fuel-rate buckets reject excess load *typed*
//!    ([`TwineError::Overloaded`](crate::TwineError)) instead of queueing
//!    it unboundedly.
//!
//! Everything here is plain data; the mechanisms live in
//! `service.rs`/`sharded.rs` (policy) and `twine-wasm`'s dispatch loops
//! (deadline/epoch).

/// Per-tenant fuel-rate cap: a token bucket over *virtual time*. A session
/// accrues `fuel_per_mcycle` units of allowance per million virtual-clock
/// cycles; every invocation's retired instructions add to its debt. An
/// invocation is rejected ([`crate::TwineError::Overloaded`]) while the
/// outstanding debt exceeds `burst`.
///
/// Virtual-time based, so the policy is about the *modelled* machine: a
/// tenant that burns simulated cycles is throttled no matter how fast the
/// host executes the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuelRate {
    /// Allowance accrued per 1e6 virtual cycles.
    pub fuel_per_mcycle: u64,
    /// Maximum outstanding debt before invocations are rejected.
    pub burst: u64,
}

/// Control-plane configuration, set once on the
/// [`TwineBuilder`](crate::TwineBuilder) and applied by every
/// [`TwineService`](crate::TwineService) / shard. All knobs default to
/// `None` — the control plane is fully opt-in and a default-configured
/// service behaves exactly as before it existed.
#[derive(Debug, Clone, Default)]
pub struct ControlPlane {
    /// Park least-recently-used sessions beyond this many live (unparked)
    /// sessions per service/shard.
    pub max_live_sessions: Option<usize>,
    /// Park LRU sessions while EPC residency exceeds this fraction of the
    /// EPC page budget (e.g. `0.9` parks once the pool is 90% full). The
    /// pressure signal is the enclave's lock-free resident-page mirror.
    pub epc_park_watermark: Option<f64>,
    /// Default per-invocation preemption deadline, in fuel units
    /// (baseline-constituent instructions). Overridable per session.
    pub deadline: Option<u64>,
    /// Enable epoch preemption: an invocation survives this many epoch
    /// bumps before yielding with `DeadlineExceeded`. Every command
    /// entering a shard bumps the shared epoch once, and an optional ticker
    /// (`epoch_interval_ms`) bumps it on wall-clock time.
    pub epoch_slack: Option<u64>,
    /// Bound each shard's command queue — the callers waiting at its gate,
    /// not counting the one running — to this depth; invoke/open commands
    /// that find the queue full are rejected with
    /// [`crate::TwineError::Overloaded`] instead of queueing unboundedly.
    pub queue_depth: Option<usize>,
    /// Per-tenant cap on in-flight commands across the sharded service
    /// (an `invoke_batch` counts as one). Excess calls are rejected with
    /// [`crate::TwineError::Overloaded`].
    pub max_in_flight: Option<u64>,
    /// Per-tenant fuel-rate token bucket (see [`FuelRate`]).
    pub fuel_rate: Option<FuelRate>,
    /// Evict unreferenced module-cache entries whenever the cache holds
    /// more than this many compiled modules (wired to the same pressure
    /// enforcement as session parking).
    pub module_cache_capacity: Option<usize>,
    /// Spawn a wall-clock epoch ticker bumping the shared epoch counter
    /// every this many milliseconds (only meaningful with `epoch_slack`;
    /// protects even a single busy shard from a runaway guest).
    pub epoch_interval_ms: Option<u64>,
    /// Keep up to this many pre-instantiated instance slots per (module,
    /// tier) in an instance pool shared by every shard of the service.
    /// With a pool, opening a session over known bytes (and
    /// restoring a parked one) becomes a slot checkout plus an
    /// O(dirty-pages) patch, and parking seals only the delta against the
    /// module's shared base image instead of the full memory image. Slots
    /// are drained whenever EPC residency crosses `epc_park_watermark` —
    /// idle pre-instantiated capacity is the first casualty of pressure.
    /// `None` (the default) disables pooling entirely: every park seals
    /// the full image, byte-compatible with the pre-pool control plane.
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
    /// Invocations stopped by the deadline/epoch preemption policy.
    pub deadline_preemptions: u64,
    /// Invocations rejected by the per-tenant fuel-rate bucket.
    pub rate_rejections: u64,
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
    /// empty, drained by pressure, or slot not yet returned).
    pub pool_misses: u64,
    /// 4 KiB pages patched onto base-state instances by delta restores.
    pub dirty_pages_restored: u64,
    /// Bytes of sealed **delta** images written out (also counted in
    /// `sealed_bytes`; the gap between the two is full-image traffic).
    pub delta_sealed_bytes: u64,
    /// Faults fired by an installed [`FaultPlan`](twine_sgx::FaultPlan)
    /// across the whole enclave (gauge, read from the plan; a sharded
    /// aggregate fills it once at the handle, not per shard).
    pub faults_injected: u64,
    /// Boundary crossings retried after a transient injected fault
    /// (ECALL/OCALL/seal/unseal attempts beyond the first).
    pub retries: u64,
    /// Pooled parks that fell back to sealing the full image because the
    /// delta seal kept faulting (graceful degradation, never data loss).
    pub fallback_parks: u64,
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
    /// DB-session statements served from a per-session prepared-statement
    /// cache — zero parser work (the warm path of the plan-cache fix).
    pub stmt_cache_hits: u64,
    /// DB-session statements that had to be parsed and planned.
    pub stmt_cache_misses: u64,
}

impl ControlStats {
    /// Sum counters (gauges included — the sharded aggregate's gauges are
    /// the across-shard totals).
    pub fn merge(&mut self, other: &ControlStats) {
        self.parks += other.parks;
        self.restores += other.restores;
        self.sealed_bytes += other.sealed_bytes;
        self.unsealed_bytes += other.unsealed_bytes;
        self.deadline_preemptions += other.deadline_preemptions;
        self.rate_rejections += other.rate_rejections;
        self.queue_rejections += other.queue_rejections;
        self.inflight_rejections += other.inflight_rejections;
        self.live_sessions += other.live_sessions;
        self.parked_sessions += other.parked_sessions;
        self.pool_hits += other.pool_hits;
        self.pool_misses += other.pool_misses;
        self.dirty_pages_restored += other.dirty_pages_restored;
        self.delta_sealed_bytes += other.delta_sealed_bytes;
        self.faults_injected += other.faults_injected;
        self.retries += other.retries;
        self.fallback_parks += other.fallback_parks;
        self.quarantines += other.quarantines;
        self.pool_discards += other.pool_discards;
        self.recovered_sessions += other.recovered_sessions;
        self.rollback_rejected += other.rollback_rejected;
        self.db_statements += other.db_statements;
        self.stmt_cache_hits += other.stmt_cache_hits;
        self.stmt_cache_misses += other.stmt_cache_misses;
    }
}

/// Per-session fuel-rate bucket state (virtual-time token bucket).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct RateState {
    /// Outstanding debt in fuel units.
    pub(crate) debt: u64,
    /// Virtual-clock cycles at the last admission check.
    pub(crate) last_cycles: u64,
}

impl RateState {
    /// Refill allowance for the elapsed virtual time, then report whether
    /// an invocation may be admitted under `rate`.
    pub(crate) fn admit(&mut self, rate: FuelRate, now_cycles: u64) -> bool {
        let dt = now_cycles.saturating_sub(self.last_cycles);
        let allowance = dt.saturating_mul(rate.fuel_per_mcycle) / 1_000_000;
        self.debt = self.debt.saturating_sub(allowance);
        self.last_cycles = now_cycles;
        self.debt <= rate.burst
    }

    /// Charge retired work to the bucket.
    pub(crate) fn charge(&mut self, fuel_spent: u64) {
        self.debt = self.debt.saturating_add(fuel_spent);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_bucket_refills_with_virtual_time() {
        let rate = FuelRate {
            fuel_per_mcycle: 1_000,
            burst: 500,
        };
        let mut rs = RateState::default();
        assert!(rs.admit(rate, 0));
        rs.charge(1_000);
        // Debt 1000 > burst 500: rejected until time passes.
        assert!(!rs.admit(rate, 0));
        // 400k cycles -> 400 allowance: debt 600, still over burst.
        assert!(!rs.admit(rate, 400_000));
        // Another 200k cycles -> 200 more: debt 400 <= burst.
        assert!(rs.admit(rate, 600_000));
    }

    #[test]
    fn merge_sums_all_counters() {
        let mut a = ControlStats {
            parks: 1,
            restores: 2,
            ..ControlStats::default()
        };
        let b = ControlStats {
            parks: 10,
            queue_rejections: 3,
            ..ControlStats::default()
        };
        a.merge(&b);
        assert_eq!(a.parks, 11);
        assert_eq!(a.restores, 2);
        assert_eq!(a.queue_rejections, 3);
    }
}
