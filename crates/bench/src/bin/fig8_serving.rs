//! Figure 8 (beyond the paper): serving economics of the session layer,
//! now with a multi-threaded scaling axis.
//!
//! The paper's embedding is one-shot — every call pays decode + validate +
//! AoT-lower + instantiate. The `TwineService` session layer amortises all
//! of that: N tenants share one content-addressed compiled module, and each
//! tenant's instance + WASI context persist across calls, so a *warm*
//! invocation runs the guest and nothing else.
//!
//! **Phase 1 (cold vs warm)** opens N sessions over the same Wasm binary and
//! drives M calls per session on a single-threaded service, reporting
//! cold-start vs warm-invocation latency (wall-clock **and** modelled
//! virtual cycles).
//!
//! **Phase 2 (`--threads T`)** sweeps shard counts 1, 2, 4, … up to `T` on
//! the [`ShardedService`]: the same number of sessions and warm calls each
//! time, driven by one client thread per shard. Each configuration reports
//!
//! * real wall-clock throughput (depends on how many host cores this
//!   machine actually has), and
//! * **modelled scaling** — per-shard *busy* nanoseconds are the wall time
//!   callers spent inside each shard's gate; `max(busy)` across shards is
//!   the parallel makespan, and `makespan(1 shard) / makespan(T shards)`
//!   is the scaling figure recorded in `BENCH_fig8.json` (DESIGN.md §9).
//!   It is wall time, not CPU time (`cpu_time_accounting: false`): with
//!   fewer cores than client threads it also counts time a caller sat
//!   descheduled inside the gate, so — like measured wall scaling — its
//!   floor is asserted only on hosts with a core per shard.
//!
//! The sweep also *verifies* serving semantics: per-session results,
//! per-class meters and fuel of the sharded run are asserted bit-identical
//! to a single-threaded replay — the binary panics (and CI fails) on any
//! cross-thread divergence.
//!
//! **Phase 3 (`--churn`)** is the control-plane economics axis
//! (DESIGN.md §10): thousands of sessions arriving, invoking, being
//! revisited and expiring against a sharded service with a *tiny*
//! eviction budget (`max_live_sessions` per shard), so the service is
//! continuously parking LRU sessions (sealed out of the enclave) and
//! restoring them warm. Reports p50/p99 invoke latency plus the
//! park/restore/seal-traffic counters into `BENCH_fig8.json`
//! (`churn_axis`; `null` when the phase is skipped).
//!
//! **`--pool`** enables the instance-pooling/memory-image fast path
//! (DESIGN.md §11) for the cold phase and the churn axis: cold opens
//! become pool-slot checkouts, parks seal O(dirty pages) deltas against
//! the module's shared base image, and restores patch a pooled slot
//! instead of re-instantiating. The churn differential suite proves the
//! two modes observably identical; this harness reports their economics
//! (`pool_hit_rate`, `restore_p50_us`/`restore_p99_us`, delta seal
//! traffic) side by side in `BENCH_fig8.json`.
//!
//! ```sh
//! cargo run -p twine-bench --release --bin fig8_serving \
//!     [--sessions 8] [--calls 32] [--threads 8] \
//!     [--churn] [--churn-sessions 2000] [--churn-budget 16] \
//!     [--pool] [--pool-slots 32] [--faults <seed>]
//! ```
//!
//! **`--faults <seed>`** arms a seeded chaos [`FaultPlan`] on the churn
//! axis (DESIGN.md §12): seal/unseal failures, transient ECALL/OCALL
//! aborts, EPC spikes and corrupt pool slots are injected at
//! trust-boundary crossings while the churn workload runs. Every call must
//! still succeed (the chaos differential suite proves guest-visible
//! semantics are untouched); the fault/retry/discard tallies land in the
//! `churn_axis` of `BENCH_fig8.json` and the throughput floor relaxes to
//! `TWINE_CHAOS_CHURN_FLOOR`.
//!
//! [`FaultPlan`]: twine_sgx::FaultPlan

#![forbid(unsafe_code)]

use std::sync::{Arc, Barrier};
use std::time::Instant;

use twine_bench::{arg_value, has_flag, write_bench_json, write_csv};
use twine_core::{ControlPlane, ControlStats, ShardedService, TwineBuilder};
use twine_wasm::Value;

const GUEST_SRC: &str = r"
    int slots[256];
    int handle(int req) {
        int acc = 7;
        for (int i = 0; i < req % 64 + 64; i += 1) {
            if (i % 2 == 0) { acc = acc * 3 + i; } else { acc = acc - req; }
        }
        slots[req % 256] = acc;
        return acc;
    }
";

struct Phase {
    wall_us: Vec<f64>,
    cycles: Vec<u64>,
}

impl Phase {
    fn new() -> Self {
        Self {
            wall_us: Vec::new(),
            cycles: Vec::new(),
        }
    }
    fn mean_wall_us(&self) -> f64 {
        self.wall_us.iter().sum::<f64>() / self.wall_us.len().max(1) as f64
    }
    fn mean_cycles(&self) -> f64 {
        self.cycles.iter().sum::<u64>() as f64 / self.cycles.len().max(1) as f64
    }
}

/// One `--threads` sweep point.
struct ScalePoint {
    threads: usize,
    wall_s: f64,
    /// Modelled parallel makespan: max per-shard busy nanoseconds.
    makespan_ns: u64,
    calls: usize,
}

impl ScalePoint {
    fn throughput(&self) -> f64 {
        self.calls as f64 / self.wall_s.max(1e-12)
    }
}

/// Session names balanced across `threads` shards: at most
/// `ceil(sessions / threads)` per shard (exact when `threads` divides
/// `sessions`, as in the sweep), so the modelled makespan measures
/// scaling, not hash-placement luck. The ceiling keeps the admission
/// loop terminating for any (sessions, threads) pair.
fn balanced_names(svc: &ShardedService, sessions: usize, threads: usize) -> Vec<String> {
    let per_shard = sessions.div_ceil(threads);
    let mut counts = vec![0usize; threads];
    let mut names = Vec::with_capacity(sessions);
    let mut i = 0usize;
    while names.len() < sessions {
        let name = format!("tenant-{i}");
        let s = svc.shard_of(&name);
        if counts[s] < per_shard {
            counts[s] += 1;
            names.push(name);
        }
        i += 1;
    }
    names
}

/// Warm calls per pipelined batch: amortises the gate acquisition (and,
/// on boxes with fewer cores than shards, scheduler noise inside the
/// measured busy windows) without giving up inter-session interleaving
/// on each shard.
const BATCH: usize = 8;

/// `calls` warm calls per session owned by one client (pipelined in
/// batches of [`BATCH`]).
fn client_calls(svc: &ShardedService, mine: &[String], calls: usize) {
    let mut done = 0;
    while done < calls {
        let n = BATCH.min(calls - done);
        for (k, name) in mine.iter().enumerate() {
            let reqs: Vec<Vec<Value>> = (0..n)
                .map(|c| vec![Value::I32(((done + c) * 7 + k) as i32)])
                .collect();
            let out = svc.invoke_batch(name, "handle", reqs).expect("warm batch");
            assert_eq!(out.len(), n);
        }
        done += n;
    }
}

/// Drive `calls` warm calls per session from one **persistent** client
/// thread per shard; returns (wall seconds, modelled makespan ns).
///
/// The measured window is gated by barriers: clients are spawned and do
/// their `warmup` calls per session *before* the window opens, then park
/// on a start barrier; the clock runs from the barrier release until the
/// last client reaches the finish barrier. PR 5's driver spawned and
/// joined the client threads *inside* the timed window, so at high shard
/// counts the wall figure measured thread setup and teardown as much as
/// serving — one of the compounding causes of the flat wall-clock curve
/// this sweep used to report (ROADMAP open item 1).
fn drive_warm(
    svc: &Arc<ShardedService>,
    names: &[String],
    warmup: usize,
    calls: usize,
) -> (f64, u64) {
    let threads = svc.shard_count();
    let ready = Arc::new(Barrier::new(threads + 1));
    let start = Arc::new(Barrier::new(threads + 1));
    let finish = Arc::new(Barrier::new(threads + 1));
    let handles: Vec<_> = (0..threads)
        .map(|shard| {
            let svc = Arc::clone(svc);
            let (ready, start, finish) =
                (Arc::clone(&ready), Arc::clone(&start), Arc::clone(&finish));
            let mine: Vec<String> = names
                .iter()
                .filter(|n| svc.shard_of(n) == shard)
                .cloned()
                .collect();
            std::thread::spawn(move || {
                client_calls(&svc, &mine, warmup);
                ready.wait();
                // Shards are idle here while the driver snapshots busy_ns.
                start.wait();
                client_calls(&svc, &mine, calls);
                finish.wait();
            })
        })
        .collect();
    ready.wait();
    let busy0: Vec<u64> = svc.shard_stats().iter().map(|s| s.busy_ns).collect();
    // The driver is the (threads + 1)-th barrier participant: the clock
    // starts just before the release that unparks every client at once,
    // and stops when the last client reaches the finish barrier.
    let t0 = Instant::now();
    start.wait();
    finish.wait();
    let wall_s = t0.elapsed().as_secs_f64();
    for h in handles {
        h.join().expect("client thread");
    }
    let makespan_ns = svc
        .shard_stats()
        .iter()
        .zip(&busy0)
        .map(|(s, b0)| s.busy_ns - b0)
        .max()
        .unwrap_or(0);
    (wall_s, makespan_ns)
}

/// Assert per-session serving semantics are thread-count-independent:
/// every (values, meter, fuel) triple of the sharded run must equal the
/// single-threaded service's replay of the same per-session sequence.
fn verify_bit_identity(wasm: &[u8], threads: usize, sessions: usize, calls: usize) {
    let svc = Arc::new(TwineBuilder::new().build_sharded(threads));
    let names = balanced_names(&svc, sessions, threads);
    for name in &names {
        svc.open_session(name, wasm).expect("open");
    }
    let handles: Vec<_> = (0..svc.shard_count())
        .map(|shard| {
            let svc = Arc::clone(&svc);
            let mine: Vec<(usize, String)> = names
                .iter()
                .enumerate()
                .filter(|(_, n)| svc.shard_of(n) == shard)
                .map(|(i, n)| (i, n.clone()))
                .collect();
            std::thread::spawn(move || {
                let mut out = Vec::new();
                for (i, name) in &mine {
                    let mut seq = Vec::new();
                    for call in 0..calls {
                        let req = (i * 13 + call * 5) as i32;
                        let (report, values) = svc
                            .invoke_with_report(name, "handle", &[Value::I32(req)])
                            .expect("verified call");
                        seq.push((values, report.meter, report.fuel_remaining));
                    }
                    out.push((*i, seq));
                }
                out
            })
        })
        .collect();
    let mut sharded: Vec<_> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("verify thread"))
        .collect();
    sharded.sort_by_key(|(i, _)| *i);

    let mut single = TwineBuilder::new().build_service();
    for name in &names {
        single.open_session(name, wasm).expect("open");
    }
    for (i, name) in names.iter().enumerate() {
        for call in 0..calls {
            let req = (i * 13 + call * 5) as i32;
            let (report, values) = single
                .invoke_with_report(name, "handle", &[Value::I32(req)])
                .expect("replay call");
            let (values_t, meter_t, fuel_t) = &sharded[i].1[call];
            assert_eq!(&values, values_t, "results diverged: session {name} call {call}");
            assert_eq!(
                &report.meter, meter_t,
                "cross-thread meter divergence: session {name} call {call}"
            );
            assert_eq!(
                &report.fuel_remaining, fuel_t,
                "fuel diverged: session {name} call {call}"
            );
        }
    }
}

/// Deterministic per-client stream (Knuth MMIX constants) so the churn
/// workload is reproducible across runs and machines.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

/// Outcome of one churn run (phase 3).
struct ChurnOutcome {
    shards: usize,
    sessions: usize,
    budget: usize,
    invokes: usize,
    wall_s: f64,
    p50_us: f64,
    p99_us: f64,
    /// Latency percentiles of the revisit invokes that found their tenant
    /// parked — the calls that pay the unseal + restore path.
    restore_p50_us: f64,
    restore_p99_us: f64,
    pool: Option<usize>,
    /// Chaos fault seed (`--faults`): the churn run doubles as a fault
    /// drill when set.
    faults: Option<u64>,
    stats: ControlStats,
}

impl ChurnOutcome {
    fn throughput(&self) -> f64 {
        self.invokes as f64 / self.wall_s.max(1e-12)
    }
    fn pool_hit_rate(&self) -> f64 {
        let total = self.stats.pool_hits + self.stats.pool_misses;
        if total == 0 {
            0.0
        } else {
            self.stats.pool_hits as f64 / total as f64
        }
    }
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

/// Phase 3 driver: `total` sessions stream through `shards` shards whose
/// eviction budget (`max_live_sessions`) is far below the number of
/// concurrently open sessions, so the control plane parks and restores
/// continuously. Each of the `shards` client threads owns a disjoint
/// tenant subset: a tenant arrives, serves a couple of calls, gets
/// revisited later (usually after eviction parked it — the revisit pays
/// the warm-restore path), and expires once it falls out of its client's
/// keep-alive window. Returns invoke-latency percentiles and the control
/// counters; panics on any failed call, so the bench doubles as a smoke
/// test of the eviction machinery under concurrency.
fn run_churn(
    wasm: &[u8],
    shards: usize,
    total: usize,
    budget: usize,
    pool: Option<usize>,
    faults: Option<u64>,
) -> ChurnOutcome {
    /// Sessions each client keeps open: enough above the per-shard budget
    /// that parking never stops.
    const WINDOW: usize = 48;
    /// Warm calls served on arrival, and revisits of older tenants per
    /// arrival (revisits are the restore path).
    const ARRIVAL_CALLS: usize = 2;
    const REVISITS: usize = 2;

    let control = ControlPlane {
        max_live_sessions: Some(budget),
        pool_slots_per_module: pool,
        ..ControlPlane::default()
    };
    let mut builder = TwineBuilder::new().control_plane(control);
    if let Some(seed) = faults {
        builder = builder.faults(Arc::new(twine_sgx::FaultPlan::new(
            twine_sgx::FaultConfig::chaos(seed),
        )));
    }
    let svc = Arc::new(builder.build_sharded(shards));
    let t0 = Instant::now();
    let handles: Vec<_> = (0..shards)
        .map(|c| {
            let svc = Arc::clone(&svc);
            let wasm = wasm.to_vec();
            std::thread::spawn(move || {
                let mut lcg = Lcg(0x9e3779b97f4a7c15 ^ c as u64);
                let mut lat_us: Vec<f64> = Vec::new();
                let mut restore_us: Vec<f64> = Vec::new();
                let mut open: Vec<usize> = Vec::new();
                let invoke = |svc: &ShardedService, i: usize, req: i32, lat: &mut Vec<f64>| {
                    let t = Instant::now();
                    svc.invoke(&format!("churn-{i}"), "handle", &[Value::I32(req)])
                        .expect("churn invoke");
                    let us = t.elapsed().as_secs_f64() * 1e6;
                    lat.push(us);
                    us
                };
                for i in (c..total).step_by(shards) {
                    // Arrive.
                    svc.open_session(&format!("churn-{i}"), &wasm).expect("open");
                    for k in 0..ARRIVAL_CALLS {
                        invoke(&svc, i, (i + k) as i32, &mut lat_us);
                    }
                    open.push(i);
                    // Revisit older tenants (restore path for parked ones;
                    // revisits that find their tenant sealed are sampled
                    // into the restore-latency percentiles).
                    for _ in 0..REVISITS {
                        let j = open[(lcg.next() as usize) % open.len()];
                        let parked = svc.session_parked(&format!("churn-{j}")) == Some(true);
                        let us = invoke(&svc, j, j as i32, &mut lat_us);
                        if parked {
                            restore_us.push(us);
                        }
                    }
                    // Expire the oldest tenant past the keep-alive window.
                    if open.len() > WINDOW {
                        let gone = open.remove(0);
                        svc.close_session(&format!("churn-{gone}")).expect("close");
                    }
                }
                for gone in open {
                    svc.close_session(&format!("churn-{gone}")).expect("close");
                }
                (lat_us, restore_us)
            })
        })
        .collect();
    let (mut lat_us, mut restore_us) = (Vec::new(), Vec::new());
    for h in handles {
        let (lat, restore) = h.join().expect("churn client");
        lat_us.extend(lat);
        restore_us.extend(restore);
    }
    let wall_s = t0.elapsed().as_secs_f64();
    lat_us.sort_by(f64::total_cmp);
    restore_us.sort_by(f64::total_cmp);
    let stats = svc.control_stats();
    assert!(stats.parks > 0, "churn under a tiny budget must park");
    assert!(stats.restores > 0, "revisits must restore parked sessions");
    assert!(!restore_us.is_empty(), "some revisit must have found its tenant parked");
    assert_eq!(svc.session_count(), 0, "every churned session expired");
    if pool.is_some() {
        assert!(stats.pool_hits > 0, "pooled churn must recycle slots: {stats:?}");
    }
    if faults.is_some() {
        assert!(
            stats.faults_injected > 0,
            "a seeded chaos churn run must actually inject faults: {stats:?}"
        );
        assert_eq!(stats.quarantines, 0, "injected faults are transient: {stats:?}");
    }
    ChurnOutcome {
        shards,
        sessions: total,
        budget,
        invokes: lat_us.len(),
        wall_s,
        p50_us: percentile(&lat_us, 0.50),
        p99_us: percentile(&lat_us, 0.99),
        restore_p50_us: percentile(&restore_us, 0.50),
        restore_p99_us: percentile(&restore_us, 0.99),
        pool,
        faults,
        stats,
    }
}

fn main() {
    let sessions: usize = arg_value("--sessions")
        .and_then(|s| s.parse().ok())
        .unwrap_or(8)
        .max(1);
    let calls: usize = arg_value("--calls")
        .and_then(|s| s.parse().ok())
        .unwrap_or(32)
        .max(1);
    let max_threads: usize = arg_value("--threads")
        .and_then(|s| s.parse().ok())
        .unwrap_or(8)
        .max(1);
    let pool: Option<usize> = has_flag("--pool").then(|| {
        arg_value("--pool-slots")
            .and_then(|s| s.parse().ok())
            .unwrap_or(32)
            .max(1)
    });
    // Seeded chaos fault injection for the churn axis (DESIGN.md §12):
    // the run doubles as a fault drill — every counter still lands in
    // BENCH_fig8.json, plus the fault/retry/fallback tallies.
    let fault_seed: Option<u64> = arg_value("--faults").and_then(|s| s.parse().ok());
    println!(
        "Figure 8 — session serving: {sessions} sessions x {calls} calls (pooling {}{})\n",
        if pool.is_some() { "on" } else { "off" },
        fault_seed.map_or_else(String::new, |s| format!(", chaos faults seed {s}"))
    );

    let wasm = twine_minicc::compile_to_bytes(GUEST_SRC).expect("guest compiles");
    let mut svc = TwineBuilder::new()
        .control_plane(ControlPlane {
            pool_slots_per_module: pool,
            ..ControlPlane::default()
        })
        .build_service();

    // The one-time module compile (decode + validate + AoT-lower) is paid
    // once per module *content*, not per session — report it separately
    // instead of folding it into the first tenant's cold-open figure.
    let compile_t0 = Instant::now();
    let (_, _, cache_hit) = svc
        .module_cache()
        .get_or_compile(&wasm)
        .expect("guest compiles");
    let first_compile_us = compile_t0.elapsed().as_secs_f64() * 1e6;
    assert!(!cache_hit, "first compile cannot be a cache hit");

    // Cold opens: open_session (cache hit + boundary copy + instantiate —
    // or, with --pool, a pool-slot checkout) plus the first invocation.
    // Each probe tenant closes before the next opens, the steady state of
    // a serving fleet (with pooling, close recycles the slot the next
    // open checks out). One unmeasured probe first: it pays the one-time
    // instantiate that seeds the pool (and warms the allocator), so the
    // measured probes see the steady state in both modes.
    svc.open_session("cold-warmup", &wasm).expect("open");
    svc.invoke("cold-warmup", "handle", &[Value::I32(0)]).expect("first call");
    svc.close_session("cold-warmup");
    let mut cold = Phase::new();
    for s in 0..sessions {
        let name = format!("cold-{s}");
        let c0 = svc.clock().cycles();
        let t0 = Instant::now();
        svc.open_session(&name, &wasm).expect("open");
        let out = svc
            .invoke(&name, "handle", &[Value::I32(s as i32)])
            .expect("first call");
        cold.wall_us.push(t0.elapsed().as_secs_f64() * 1e6);
        cold.cycles.push(svc.clock().cycles() - c0);
        assert!(matches!(out[0], Value::I32(_)));
        svc.close_session(&name);
    }

    // The warm tenants (opens not measured).
    for s in 0..sessions {
        svc.open_session(&format!("tenant-{s}"), &wasm).expect("open");
    }
    assert_eq!(
        svc.module_cache().len(),
        1,
        "all sessions share one compiled module"
    );
    assert_eq!(svc.module_cache().hits(), 2 * sessions as u64 + 1);

    // Warm invocations: persistent instance + WasiCtx; no decode, validate
    // or instantiate work at all.
    let mut warm = Phase::new();
    let warm_t0 = Instant::now();
    for call in 0..calls {
        for s in 0..sessions {
            let name = format!("tenant-{s}");
            let c0 = svc.clock().cycles();
            let t0 = Instant::now();
            svc.invoke(&name, "handle", &[Value::I32((s + call) as i32)])
                .expect("warm call");
            warm.wall_us.push(t0.elapsed().as_secs_f64() * 1e6);
            warm.cycles.push(svc.clock().cycles() - c0);
        }
    }
    let warm_wall_s = warm_t0.elapsed().as_secs_f64();
    let warm_calls = (sessions * calls) as f64;

    let throughput = warm_calls / warm_wall_s;
    println!(
        "{:<14} {:>14} {:>16} {:>18}",
        "phase", "mean wall (us)", "mean cycles", "throughput (c/s)"
    );
    println!(
        "{:<14} {:>14.2} {:>16} {:>18}",
        "first-compile", first_compile_us, "-", "-"
    );
    println!(
        "{:<14} {:>14.2} {:>16.0} {:>18}",
        "cold-open",
        cold.mean_wall_us(),
        cold.mean_cycles(),
        "-"
    );
    println!(
        "{:<14} {:>14.2} {:>16.0} {:>18.0}",
        "warm", warm.mean_wall_us(), warm.mean_cycles(), throughput
    );
    println!(
        "\nwarm-call savings: {:.1}x wall-clock, {:.2}x modelled cycles",
        cold.mean_wall_us() / warm.mean_wall_us().max(1e-9),
        cold.mean_cycles() / warm.mean_cycles().max(1e-9)
    );
    println!(
        "module cache: {} modules, {} hits / {} misses",
        svc.module_cache().len(),
        svc.module_cache().hits(),
        svc.module_cache().misses()
    );

    // Soft pooled-mode target (ISSUE: cold-open ≤ 3x a warm call once the
    // compile is amortised and opens are slot checkouts). Env-overridable
    // so slow or noisy hosts can relax it without patching the harness.
    let cold_warm_ratio = cold.mean_wall_us() / warm.mean_wall_us().max(1e-9);
    if pool.is_some() {
        let ratio_ceiling: f64 = std::env::var("TWINE_COLD_WARM_RATIO")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(3.0);
        assert!(
            cold_warm_ratio <= ratio_ceiling,
            "pooled cold-open is {cold_warm_ratio:.2}x a warm call (ceiling \
             {ratio_ceiling}x; override with TWINE_COLD_WARM_RATIO)"
        );
    }

    // -----------------------------------------------------------------
    // Threads axis: warm-throughput scaling of the sharded service.
    // -----------------------------------------------------------------
    let mut sweep: Vec<usize> = Vec::new();
    let mut t = 1;
    while t < max_threads {
        sweep.push(t);
        t *= 2;
    }
    sweep.push(max_threads);
    // The same total work at every point: sessions divisible by every
    // swept shard count, and at least two per shard at the widest point so
    // the makespan is not a single session's tail.
    let lcm = sweep.iter().fold(1usize, |a, &b| a * b / gcd(a, b));
    let scale_sessions = lcm * sessions.div_ceil(lcm).max(2);
    let scale_calls = calls.max(96);

    println!(
        "\nthreads axis: {scale_sessions} sessions x {scale_calls} warm calls per point"
    );
    println!(
        "{:<9} {:>12} {:>18} {:>20} {:>14} {:>16}",
        "threads", "wall (ms)", "makespan (ms)", "throughput (c/s)", "wall scaling", "modelled scaling"
    );
    let mut points: Vec<ScalePoint> = Vec::new();
    for &threads in &sweep {
        let sharded = Arc::new(TwineBuilder::new().build_sharded(threads));
        let names = balanced_names(&sharded, scale_sessions, threads);
        for name in &names {
            sharded.open_session(name, &wasm).expect("open");
        }
        // Two warm-up calls per session (before the timed window opens) so
        // every instance's frame arena has grown and caches are hot.
        let (wall_s, makespan_ns) = drive_warm(&sharded, &names, 2, scale_calls);
        points.push(ScalePoint {
            threads,
            wall_s,
            makespan_ns,
            calls: scale_sessions * scale_calls,
        });
    }
    let base_makespan = points[0].makespan_ns.max(1);
    let base_throughput = points[0].throughput().max(1e-12);
    for p in &points {
        println!(
            "{:<9} {:>12.2} {:>18.2} {:>20.0} {:>13.2}x {:>15.2}x",
            p.threads,
            p.wall_s * 1e3,
            p.makespan_ns as f64 / 1e6,
            p.throughput(),
            p.throughput() / base_throughput,
            base_makespan as f64 / p.makespan_ns.max(1) as f64,
        );
    }

    // Differential verification (small, with reports): the binary fails on
    // any cross-thread meter/result/fuel divergence.
    verify_bit_identity(&wasm, *sweep.last().unwrap(), scale_sessions.min(16), 6);
    println!("\nbit-identity vs single-threaded service: verified");

    // -----------------------------------------------------------------
    // Churn axis (--churn): eviction economics under arrival/expiry.
    // -----------------------------------------------------------------
    let churn = has_flag("--churn").then(|| {
        let churn_sessions: usize = arg_value("--churn-sessions")
            .and_then(|s| s.parse().ok())
            .unwrap_or(2000)
            .max(64);
        let churn_budget: usize = arg_value("--churn-budget")
            .and_then(|s| s.parse().ok())
            .unwrap_or(16)
            .max(1);
        let churn_shards = max_threads.clamp(1, 4);
        println!(
            "\nchurn axis: {churn_sessions} sessions through {churn_shards} shard(s), \
             eviction budget {churn_budget} live sessions/shard, pooling {}{}",
            if pool.is_some() { "on" } else { "off" },
            fault_seed.map_or_else(String::new, |s| format!(", chaos faults seed {s}"))
        );
        let o = run_churn(&wasm, churn_shards, churn_sessions, churn_budget, pool, fault_seed);
        println!(
            "  {} invokes in {:.2}s ({:.0} calls/s): p50 {:.1} us, p99 {:.1} us \
             (restore p50 {:.1} us, p99 {:.1} us)",
            o.invokes,
            o.wall_s,
            o.throughput(),
            o.p50_us,
            o.p99_us,
            o.restore_p50_us,
            o.restore_p99_us
        );
        println!(
            "  evictions: {} parks, {} restores; seal traffic {:.1} MiB out, {:.1} MiB in",
            o.stats.parks,
            o.stats.restores,
            o.stats.sealed_bytes as f64 / (1 << 20) as f64,
            o.stats.unsealed_bytes as f64 / (1 << 20) as f64
        );
        if o.pool.is_some() {
            println!(
                "  pool: {:.0}% hit rate ({} hits / {} misses), {} dirty pages restored",
                o.pool_hit_rate() * 100.0,
                o.stats.pool_hits,
                o.stats.pool_misses,
                o.stats.dirty_pages_restored,
            );
        }
        if o.faults.is_some() {
            println!(
                "  chaos: {} faults injected, {} retries, {} pool discards, {} quarantines",
                o.stats.faults_injected,
                o.stats.retries,
                o.stats.pool_discards,
                o.stats.quarantines
            );
        }
        if o.pool.is_some() && o.faults.is_none() {
            // Soft pooled-churn floor (ISSUE: ≥10x the PR 7 full-image
            // baseline of 470 calls/s on the reference configuration).
            let floor: f64 = std::env::var("TWINE_POOL_CHURN_FLOOR")
                .ok()
                .and_then(|s| s.parse().ok())
                .unwrap_or(4_700.0);
            assert!(
                o.throughput() >= floor,
                "pooled churn throughput {:.0} calls/s is below the floor of \
                 {floor:.0} (override with TWINE_POOL_CHURN_FLOOR)",
                o.throughput()
            );
        } else if o.pool.is_some() {
            // Under injected faults the retry backoffs and pool discards
            // cost real work; hold a separate, softer floor so a chaos
            // regression (e.g. an accidental retry storm) still trips CI.
            let floor: f64 = std::env::var("TWINE_CHAOS_CHURN_FLOOR")
                .ok()
                .and_then(|s| s.parse().ok())
                .unwrap_or(2_000.0);
            assert!(
                o.throughput() >= floor,
                "chaos churn throughput {:.0} calls/s is below the floor of \
                 {floor:.0} (override with TWINE_CHAOS_CHURN_FLOOR)",
                o.throughput()
            );
        }
        o
    });

    let max_point = points.last().expect("sweep non-empty");
    let max_scaling = base_makespan as f64 / max_point.makespan_ns.max(1) as f64;
    let max_wall_scaling = max_point.throughput() / base_throughput;
    let host_cores = std::thread::available_parallelism().map_or(1, usize::from);

    // `ShardStats::busy_ns` is wall time inside the gate by definition,
    // never thread CPU time; recorded so readers of BENCH_fig8.json know
    // what the modelled makespan is made of.
    let cpu_time_accounting = false;

    // Both scaling floors are asserted only when the host has a core per
    // shard. On smaller machines the client threads time-slice: wall
    // throughput physically cannot scale, and busy_ns absorbs the time a
    // caller sat descheduled inside a gate (DESIGN.md §9).
    // `TWINE_WALL_SCALING_FLOOR` overrides the default measured floor of
    // 4.0 (CI uses a conservative 2.5 to absorb runner noise).
    let wall_floor: f64 = std::env::var("TWINE_WALL_SCALING_FLOOR")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(4.0);
    let wall_scaling_asserted = max_point.threads >= 8 && host_cores >= max_point.threads;
    if wall_scaling_asserted {
        assert!(
            max_scaling >= 3.0,
            "modelled warm-throughput scaling at {} threads is {max_scaling:.2}x (< 3x)",
            max_point.threads
        );
        assert!(
            max_wall_scaling >= wall_floor,
            "measured wall-clock scaling at {} threads is {max_wall_scaling:.2}x \
             (< {wall_floor}x) on a {host_cores}-core host",
            max_point.threads
        );
    } else if max_point.threads >= 8 {
        println!(
            "warning: host has {host_cores} core(s) for {} shards; measured \
             wall-clock scaling ({max_wall_scaling:.2}x) and modelled scaling \
             ({max_scaling:.2}x) NOT asserted",
            max_point.threads
        );
    }

    let mut rows = vec![
        format!(
            "cold,1,{sessions},1,{:.3},{:.0},",
            cold.mean_wall_us(),
            cold.mean_cycles()
        ),
        format!(
            "warm,1,{sessions},{calls},{:.3},{:.0},{throughput:.0}",
            warm.mean_wall_us(),
            warm.mean_cycles()
        ),
    ];
    for p in &points {
        rows.push(format!(
            "sharded-warm,{},{scale_sessions},{scale_calls},,,{:.0}",
            p.threads,
            p.calls as f64 / p.wall_s.max(1e-12)
        ));
    }
    write_csv(
        "fig8_serving.csv",
        "phase,threads,sessions,calls,mean_wall_us,mean_cycles,throughput_calls_per_s",
        &rows,
    );

    // Machine-readable perf trajectory (DESIGN.md §8/§9): future PRs diff
    // serving latency and thread scaling against this file.
    let threads_json: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                concat!(
                    "    {{\"threads\": {}, \"wall_ms\": {:.3}, ",
                    "\"modelled_makespan_ms\": {:.3}, ",
                    "\"wall_throughput_calls_per_s\": {:.0}, ",
                    "\"measured_wall_scaling_x\": {:.3}, ",
                    "\"modelled_scaling_x\": {:.3}}}"
                ),
                p.threads,
                p.wall_s * 1e3,
                p.makespan_ns as f64 / 1e6,
                p.throughput(),
                p.throughput() / base_throughput,
                base_makespan as f64 / p.makespan_ns.max(1) as f64,
            )
        })
        .collect();
    // Control-plane churn axis: `null` when `--churn` was not requested,
    // so the file's shape is stable either way.
    let churn_json = churn.as_ref().map_or_else(
        || "null".to_string(),
        |o| {
            format!(
                concat!(
                    "{{\n",
                    "    \"sessions\": {}, \"shards\": {}, \"eviction_budget_per_shard\": {},\n",
                    "    \"invokes\": {}, \"wall_s\": {:.3}, \"throughput_calls_per_s\": {:.0},\n",
                    "    \"p50_us\": {:.3}, \"p99_us\": {:.3},\n",
                    "    \"restore_p50_us\": {:.3}, \"restore_p99_us\": {:.3},\n",
                    "    \"parks\": {}, \"restores\": {},\n",
                    "    \"sealed_bytes\": {}, \"unsealed_bytes\": {},\n",
                    "    \"pool_enabled\": {}, \"pool_slots_per_module\": {},\n",
                    "    \"pool_hits\": {}, \"pool_misses\": {}, \"pool_hit_rate\": {:.4},\n",
                    "    \"dirty_pages_restored\": {},\n",
                    "    \"faults_enabled\": {}, \"fault_seed\": {},\n",
                    "    \"faults_injected\": {}, \"retries\": {},\n",
                    "    \"pool_discards\": {}, \"quarantines\": {}\n  }}"
                ),
                o.sessions,
                o.shards,
                o.budget,
                o.invokes,
                o.wall_s,
                o.throughput(),
                o.p50_us,
                o.p99_us,
                o.restore_p50_us,
                o.restore_p99_us,
                o.stats.parks,
                o.stats.restores,
                o.stats.sealed_bytes,
                o.stats.unsealed_bytes,
                o.pool.is_some(),
                o.pool.map_or_else(|| "null".to_string(), |n| n.to_string()),
                o.stats.pool_hits,
                o.stats.pool_misses,
                o.pool_hit_rate(),
                o.stats.dirty_pages_restored,
                o.faults.is_some(),
                o.faults.map_or_else(|| "null".to_string(), |s| s.to_string()),
                o.stats.faults_injected,
                o.stats.retries,
                o.stats.pool_discards,
                o.stats.quarantines,
            )
        },
    );
    write_bench_json(
        "BENCH_fig8.json",
        &format!(
            concat!(
                "{{\n  \"bench\": \"fig8_serving\",\n  \"exec_tier\": \"reg\",\n",
                "  \"sessions\": {},\n  \"calls\": {},\n",
                "  \"host_cores\": {},\n",
                "  \"cpu_time_accounting\": {},\n",
                "  \"pool_enabled\": {},\n",
                "  \"first_compile_us\": {:.3},\n",
                "  \"cold\": {{\"mean_wall_us\": {:.3}, \"mean_cycles\": {:.0}}},\n",
                "  \"warm\": {{\"mean_wall_us\": {:.3}, \"mean_cycles\": {:.0}}},\n",
                "  \"warm_throughput_calls_per_s\": {:.0},\n",
                "  \"threads_axis\": {{\n",
                "    \"sessions\": {}, \"calls_per_session\": {},\n",
                "    \"max_modelled_scaling_x\": {:.3},\n",
                "    \"max_measured_wall_scaling_x\": {:.3},\n",
                "    \"wall_scaling_asserted\": {},\n",
                "    \"points\": [\n{}\n    ]\n  }},\n",
                "  \"churn_axis\": {}\n}}\n"
            ),
            sessions,
            calls,
            host_cores,
            cpu_time_accounting,
            pool.is_some(),
            first_compile_us,
            cold.mean_wall_us(),
            cold.mean_cycles(),
            warm.mean_wall_us(),
            warm.mean_cycles(),
            throughput,
            scale_sessions,
            scale_calls,
            max_scaling,
            max_wall_scaling,
            wall_scaling_asserted,
            threads_json.join(",\n"),
            churn_json,
        ),
    );
}

fn gcd(mut a: usize, mut b: usize) -> usize {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a.max(1)
}
