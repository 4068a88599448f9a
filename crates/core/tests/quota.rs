//! Quota, admission-control and backpressure tests (control plane,
//! DESIGN.md §10).
//!
//! What the control plane promises under overload:
//!
//! - a full bounded shard queue surfaces as the *typed*
//!   [`TwineError::Overloaded`] — never a panic, never a deadlock, never
//!   an unbounded queue;
//! - a tenant at its in-flight cap is rejected at admission (before any
//!   queueing or restore work) and the cap is released when its call
//!   finishes, without starving *other* tenants;
//! - a noisy tenant running arbitrarily expensive invocations cannot push
//!   a victim's p99 latency — measured in **virtual cycles**, the modelled
//!   machine's own time — anywhere near the cost of one un-preempted
//!   noisy invocation, because the per-invocation deadline slices the
//!   noisy guest into bounded quanta;
//! - `invoke_batch` stays semantically identical to the same sequence of
//!   sequential `invoke`s while eviction, deadlines and bounded queues
//!   are all armed.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

use twine_core::{ControlPlane, Overload, ShardedService, TwineBuilder, TwineError};
use twine_wasm::types::Value;

/// Order-sensitive stateful guest (same as the churn suite): cheap calls,
/// state survives park/restore, final value encodes exact call order.
const STATEFUL_SRC: &str = "
    int acc;
    int step(int x) {
        acc = acc * 31 + x;
        return acc;
    }
";

/// Expensive compute guest: the noisy tenant's weapon of choice.
const COMPUTE_SRC: &str = "
    double A[24][24];
    int run(int seed) {
        for (int i = 0; i < 24; i += 1) {
            for (int j = 0; j < 24; j += 1) {
                A[i][j] = (double)((i * 31 + j * 7 + seed) % 97);
            }
        }
        double acc = 0.0;
        for (int i = 0; i < 24; i += 1) {
            for (int j = 0; j < 24; j += 1) {
                acc += A[i][j] * A[j][i];
            }
        }
        int out = (int)acc;
        return out % 65536;
    }
";

/// Heavyweight noisy guest for the isolation test: enough work per call
/// (64×64 doubles, two passes) that execution cost dominates the fixed
/// per-command enclave-transition cycles — otherwise preemption has
/// nothing meaningful to slice.
const NOISY_SRC: &str = "
    double A[64][64];
    int churn(int seed) {
        for (int i = 0; i < 64; i += 1) {
            for (int j = 0; j < 64; j += 1) {
                A[i][j] = (double)((i * 31 + j * 7 + seed) % 97);
            }
        }
        double acc = 0.0;
        for (int i = 0; i < 64; i += 1) {
            for (int j = 0; j < 64; j += 1) {
                acc += A[i][j] * A[j][i];
            }
        }
        int out = (int)acc;
        return out % 65536;
    }
";

fn stateful_wasm() -> Vec<u8> {
    twine_minicc::compile_to_bytes(STATEFUL_SRC).expect("stateful compiles")
}

fn compute_wasm() -> Vec<u8> {
    twine_minicc::compile_to_bytes(COMPUTE_SRC).expect("compute compiles")
}

/// Full cost of one un-preempted invocation: (fuel units, virtual
/// cycles), measured on an unconstrained single service.
fn full_cost(wasm: &[u8], func: &str) -> (u64, u64) {
    let mut svc = TwineBuilder::new().build_service();
    svc.open_session("probe", wasm).expect("open");
    let t0 = svc.clock().cycles();
    let (report, _) = svc
        .invoke_with_report("probe", func, &[Value::I32(1)])
        .expect("uninterrupted run");
    (report.meter.total(), svc.clock().cycles_since(t0))
}

/// Pick a session name hashing to the given shard.
fn name_on_shard(svc: &ShardedService, shard: usize, stem: &str) -> String {
    (0..)
        .map(|k| format!("{stem}-{k}"))
        .find(|n| svc.shard_of(n) == shard)
        .unwrap()
}

// ---------------------------------------------------------------------
// Bounded queues
// ---------------------------------------------------------------------

/// Hammer a depth-1 shard queue from six concurrent clients: every call
/// must come back as either `Ok` or the typed `Overloaded` — no panics,
/// no deadlocks, no other error — rejections must actually occur (six
/// synchronous senders cannot all fit in a one-slot queue), and the
/// service must still serve normally once the storm passes.
#[test]
fn full_queue_rejects_typed_overloaded_never_deadlocks() {
    const CLIENTS: usize = 6;
    const CALLS: usize = 40;
    let control = ControlPlane {
        queue_depth: Some(1),
        ..ControlPlane::default()
    };
    let svc = Arc::new(
        TwineBuilder::new()
            .control_plane(control)
            .build_sharded(1),
    );
    let wasm = compute_wasm();
    for c in 0..CLIENTS {
        svc.open_session(&format!("tenant-{c}"), &wasm).expect("open");
    }

    let ok = Arc::new(AtomicU64::new(0));
    let rejected = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let svc = Arc::clone(&svc);
            let ok = Arc::clone(&ok);
            let rejected = Arc::clone(&rejected);
            std::thread::spawn(move || {
                let name = format!("tenant-{c}");
                for i in 0..CALLS {
                    match svc.invoke(&name, "run", &[Value::I32(i as i32)]) {
                        Ok(_) => ok.fetch_add(1, Ordering::Relaxed),
                        Err(e @ TwineError::Overloaded(_)) => {
                            assert!(e.is_retryable(), "Overloaded is retryable by contract");
                            match e {
                                TwineError::Overloaded(Overload::QueueFull { shard, depth }) => {
                                    assert_eq!(shard, 0, "single-shard service");
                                    assert_eq!(depth, 1, "configured queue depth surfaces");
                                }
                                other => panic!("queue storm must reject as QueueFull: {other}"),
                            }
                            rejected.fetch_add(1, Ordering::Relaxed)
                        }
                        Err(e) => panic!("full queue must surface Overloaded, got: {e}"),
                    };
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("no client panicked");
    }

    let ok = ok.load(Ordering::Relaxed);
    let rejected = rejected.load(Ordering::Relaxed);
    assert_eq!(ok + rejected, (CLIENTS * CALLS) as u64, "no call lost");
    assert!(rejected > 0, "six clients on a one-slot queue must collide");
    assert!(ok > 0, "backpressure must not starve the system entirely");
    let stats = svc.control_stats();
    assert_eq!(stats.queue_rejections, rejected);

    // The storm is over: a (retried) call goes straight through.
    let mut tries = 0;
    loop {
        match svc.invoke("tenant-0", "run", &[Value::I32(7)]) {
            Ok(_) => break,
            Err(TwineError::Overloaded(_)) => {
                tries += 1;
                assert!(tries < 100, "queue never drained");
            }
            Err(e) => panic!("unexpected error after storm: {e}"),
        }
    }
}

// ---------------------------------------------------------------------
// Per-tenant in-flight caps
// ---------------------------------------------------------------------

/// One tenant saturates its in-flight cap with a long batch; concurrent
/// calls on the *same* tenant are rejected at admission, a tenant on
/// another shard is completely unaffected, and the cap is released the
/// moment the batch completes.
#[test]
fn inflight_cap_rejects_same_tenant_releases_after() {
    const BATCH: usize = 250;
    let control = ControlPlane {
        max_in_flight: Some(1),
        ..ControlPlane::default()
    };
    let svc = Arc::new(
        TwineBuilder::new()
            .control_plane(control)
            .build_sharded(2),
    );
    let noisy = name_on_shard(&svc, 0, "noisy");
    let victim = name_on_shard(&svc, 1, "victim");
    svc.open_session(&noisy, &compute_wasm()).expect("open noisy");
    svc.open_session(&victim, &stateful_wasm()).expect("open victim");

    let done = Arc::new(AtomicBool::new(false));
    let batcher = {
        let svc = Arc::clone(&svc);
        let done = Arc::clone(&done);
        let noisy = noisy.clone();
        std::thread::spawn(move || {
            // The main thread also probes this tenant, so admission may
            // briefly be lost to a probe — retry until the batch holds it.
            let r = loop {
                let args: Vec<Vec<Value>> =
                    (0..BATCH).map(|i| vec![Value::I32(i as i32)]).collect();
                match svc.invoke_batch(&noisy, "run", args) {
                    Err(TwineError::Overloaded(_)) => continue,
                    other => break other,
                }
            };
            done.store(true, Ordering::SeqCst);
            r.expect("batch runs once admitted")
        })
    };

    // While the batch holds the tenant's single in-flight slot, same-tenant
    // calls bounce at admission and the other shard's tenant is untouched.
    let mut overloaded = 0u64;
    let mut victim_calls = 0u64;
    while !done.load(Ordering::SeqCst) {
        match svc.invoke(&noisy, "run", &[Value::I32(0)]) {
            Err(TwineError::Overloaded(o)) => {
                match &o {
                    Overload::InFlight { tenant, max } => {
                        assert_eq!(tenant, &noisy, "rejection names the capped tenant");
                        assert_eq!(*max, 1, "rejection carries the configured cap");
                    }
                    other => panic!("capped tenant must reject as InFlight: {other}"),
                }
                overloaded += 1;
            }
            Ok(_) => {}
            Err(e) => panic!("unexpected error on capped tenant: {e}"),
        }
        svc.invoke(&victim, "step", &[Value::I32(1)])
            .expect("victim on its own shard is never rejected");
        victim_calls += 1;
    }
    assert_eq!(batcher.join().expect("batcher").len(), BATCH);
    assert!(
        overloaded > 0,
        "a 250-call batch must hold the in-flight slot long enough to observe rejections"
    );
    assert!(victim_calls > 0);
    assert!(svc.control_stats().inflight_rejections >= overloaded);

    // Cap released: the tenant serves again immediately.
    svc.invoke(&noisy, "run", &[Value::I32(9)])
        .expect("in-flight slot released after the batch");
}

// ---------------------------------------------------------------------
// Noisy-tenant isolation
// ---------------------------------------------------------------------

/// The headline isolation property: with a per-invocation deadline of
/// ~1/16 of the noisy guest's full cost, a victim sharing the *same
/// shard* keeps its p99 latency (measured in virtual cycles, send →
/// reply) well below the cost of even one un-preempted noisy invocation.
/// Without preemption the victim would routinely queue behind a full
/// noisy run; the deadline slices noisy work into bounded quanta.
#[test]
fn noisy_tenant_cannot_push_victim_p99_past_one_quantum() {
    const SAMPLES: usize = 120;
    let noisy_wasm = twine_minicc::compile_to_bytes(NOISY_SRC).expect("noisy compiles");
    let (full_fuel, full_cycles) = full_cost(&noisy_wasm, "churn");
    let deadline = (full_fuel / 16).max(1);
    let control = ControlPlane {
        deadline: Some(deadline),
        ..ControlPlane::default()
    };
    let svc = Arc::new(
        TwineBuilder::new()
            .control_plane(control)
            .build_sharded(1),
    );
    svc.open_session("noisy", &noisy_wasm).expect("open noisy");
    svc.open_session("victim", &stateful_wasm()).expect("open victim");

    let stop = Arc::new(AtomicBool::new(false));
    // The victim samples only once the noisy tenant's first call has
    // returned: which thread gets a core first must not decide whether
    // the two ever overlap.
    let noisy_running = Arc::new(Barrier::new(2));
    let noisy = {
        let svc = Arc::clone(&svc);
        let stop = Arc::clone(&stop);
        let noisy_running = Arc::clone(&noisy_running);
        std::thread::spawn(move || {
            let mut preempted = 0u64;
            let mut i = 0i32;
            while !stop.load(Ordering::SeqCst) {
                i += 1;
                match svc.invoke("noisy", "churn", &[Value::I32(i)]) {
                    Err(TwineError::Trap(twine_wasm::Trap::DeadlineExceeded)) => preempted += 1,
                    Ok(_) => {}
                    Err(e) => panic!("noisy tenant saw unexpected error: {e}"),
                }
                if i == 1 {
                    noisy_running.wait();
                }
            }
            preempted
        })
    };
    noisy_running.wait();

    let clock = svc.clock();
    let mut latencies: Vec<u64> = (0..SAMPLES)
        .map(|k| {
            let t0 = clock.cycles();
            svc.invoke("victim", "step", &[Value::I32(k as i32)])
                .expect("victim calls always succeed");
            clock.cycles_since(t0)
        })
        .collect();
    stop.store(true, Ordering::SeqCst);
    let preempted = noisy.join().expect("noisy thread");

    latencies.sort_unstable();
    let p99 = latencies[(SAMPLES * 99) / 100];
    let p50 = latencies[SAMPLES / 2];
    assert!(
        preempted > 0,
        "the deadline must actually be preempting the noisy tenant"
    );
    assert!(svc.control_stats().deadline_preemptions >= preempted);
    assert!(
        p99 < full_cycles / 2,
        "victim p99 ({p99} cycles) must stay below half an un-preempted noisy \
         invocation ({full_cycles} cycles) — preemption quantum is ~1/16"
    );
    assert!(p50 <= p99);
}

// ---------------------------------------------------------------------
// Batch ≡ sequential under admission control
// ---------------------------------------------------------------------

fn admission_control() -> ControlPlane {
    ControlPlane {
        max_live_sessions: Some(1), // every cross-session switch parks
        queue_depth: Some(1),       // a batch is one command: always fits
        max_in_flight: Some(1),     // single client: cap armed, never hit
        deadline: Some(1_000_000),  // armed, far above any call here
        ..ControlPlane::default()
    }
}

/// `invoke_batch` must be observably identical to the same calls issued
/// one by one — with eviction, bounded queues, in-flight caps and
/// deadlines all armed. Covers the Ok path (order-sensitive state,
/// park/restore interleaving between two sessions) and the abort path
/// (the batch's first trap is the same error sequential invocation hits,
/// and post-trap session state matches).
#[test]
fn invoke_batch_matches_sequential_under_admission_control() {
    const TRAP_FUEL: u64 = 150;
    let batch_svc = TwineBuilder::new()
        .control_plane(admission_control())
        .build_sharded(1);
    let seq_svc = TwineBuilder::new()
        .control_plane(admission_control())
        .build_sharded(1);

    for svc in [&batch_svc, &seq_svc] {
        svc.open_session("alpha", &stateful_wasm()).expect("open alpha");
        svc.open_session("beta", &compute_wasm()).expect("open beta");
        svc.set_session_fuel("beta", Some(TRAP_FUEL)).expect("fuel");
    }

    // Ok path: order-sensitive batch on alpha (opening beta above parked
    // alpha on both services, so the batch also exercises restore).
    let args: Vec<Vec<Value>> = (1..=6).map(|i| vec![Value::I32(i)]).collect();
    let batched = batch_svc
        .invoke_batch("alpha", "step", args.clone())
        .expect("batch succeeds");
    let sequential: Vec<Vec<Value>> = args
        .iter()
        .map(|a| seq_svc.invoke("alpha", "step", a).expect("sequential ok"))
        .collect();
    assert_eq!(batched, sequential, "batch diverged from sequential");

    // Abort path: beta's first call runs out of fuel; the batch surfaces
    // exactly the error the first sequential invoke surfaces.
    let beta_args: Vec<Vec<Value>> = (0..4).map(|i| vec![Value::I32(i)]).collect();
    let batch_err = batch_svc
        .invoke_batch("beta", "run", beta_args.clone())
        .expect_err("fuel trap aborts the batch");
    let seq_err = seq_svc
        .invoke("beta", "run", &beta_args[0])
        .expect_err("fuel trap on first sequential call");
    assert_eq!(batch_err.to_string(), seq_err.to_string());
    assert!(
        !batch_err.is_retryable(),
        "a guest trap is deterministic — retrying it is useless"
    );

    // Post-trap convergence: alpha's state (it was parked while beta ran)
    // continues identically on both services.
    let a = batch_svc.invoke("alpha", "step", &[Value::I32(7)]).expect("ok");
    let b = seq_svc.invoke("alpha", "step", &[Value::I32(7)]).expect("ok");
    assert_eq!(a, b, "session state diverged after the aborted batch");

    // Both services actually parked/restored along the way — the
    // admission-control config wasn't a no-op.
    for svc in [&batch_svc, &seq_svc] {
        let stats = svc.control_stats();
        assert!(stats.parks > 0 && stats.restores > 0);
    }
}
