//! Chaos differential suite (DESIGN.md §12): the churn battery re-run with
//! a seeded [`FaultPlan`] armed on every trust-boundary crossing — seal
//! and unseal failures, transient ECALL/OCALL aborts, EPC pressure spikes
//! and corrupt pool slots — checked **bit-identically** against an
//! unfaulted single-threaded replay of the same per-session operation
//! sequences.
//!
//! The contract under test: injected faults may perturb everything the
//! runtime meters globally (virtual cycles, EPC traffic, boundary bytes,
//! seal volumes) but must never change anything a tenant can observe —
//! results, traps, stdout, WASI call counts, retired-instruction meters,
//! remaining fuel. The runtime absorbs faults by bounded retry with
//! virtual-time backoff (a faulted seal is retried on the same bytes) and
//! by discarding corrupt pool slots; none of that is allowed to leak into
//! guest semantics.
//!
//! The second half of the suite covers crash recovery: durably-parked
//! sessions survive a simulated enclave crash (`drop` the service, rebuild
//! on the same processor) bit-identically via [`TwineService::recover`],
//! and a replayed stale park image — the classic rollback attack — is
//! rejected typed, because the image's freshness tag lags the processor's
//! monotonic counter.

use std::sync::Arc;

use twine_core::{
    ControlPlane, DurableParkStore, RunReport, TwineBuilder, TwineError, TwineService,
};
use twine_sgx::{FaultConfig, FaultPlan, Processor};
use twine_wasm::types::Value;
use twine_wasm::Meter;

// ---------------------------------------------------------------------
// Guests (trimmed from the churn suite)
// ---------------------------------------------------------------------

/// Order-sensitive stateful guest: its accumulator encodes the exact call
/// order, so any state loss or duplication in the faulted seal/retry
/// machinery shows up immediately.
const STATEFUL_SRC: &str = "
    int acc;
    int step(int x) {
        acc = acc * 31 + x;
        return acc;
    }
";

/// Compute guest; with a tiny fuel budget it always traps mid-run — the
/// trap must surface once, identically, never duplicated by a retry.
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

const TRAP_FUEL: u64 = 150;

fn stateful_wasm() -> Vec<u8> {
    twine_minicc::compile_to_bytes(STATEFUL_SRC).expect("stateful compiles")
}

fn compute_wasm() -> Vec<u8> {
    twine_minicc::compile_to_bytes(COMPUTE_SRC).expect("compute compiles")
}

// ---------------------------------------------------------------------
// Randomized plans (same LCG as the churn suite)
// ---------------------------------------------------------------------

struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 33
    }
}

#[derive(Clone, Copy, PartialEq)]
enum GuestClass {
    Stateful,
    FuelTrap,
}

#[derive(Clone)]
enum Op {
    Open,
    Invoke(i32),
    Close,
}

struct Plan {
    sessions: Vec<(String, GuestClass, Vec<u8>)>,
    ops: Vec<(usize, Op)>,
}

fn build_plan(n_sessions: usize, n_ops: usize, seed: u64) -> Plan {
    let stateful = stateful_wasm();
    let compute = compute_wasm();
    let sessions: Vec<(String, GuestClass, Vec<u8>)> = (0..n_sessions)
        .map(|i| {
            let name = format!("chaos-{i}");
            if i % 2 == 0 {
                (name, GuestClass::Stateful, stateful.clone())
            } else {
                (name, GuestClass::FuelTrap, compute.clone())
            }
        })
        .collect();

    let mut lcg = Lcg(seed);
    let mut open = vec![false; n_sessions];
    let mut ops = Vec::with_capacity(n_ops);
    while ops.len() < n_ops {
        let i = (lcg.next() as usize) % n_sessions;
        let r = lcg.next() % 10;
        if !open[i] {
            ops.push((i, Op::Open));
            open[i] = true;
        } else if r < 7 {
            ops.push((i, Op::Invoke((lcg.next() % 1000) as i32)));
        } else if r < 8 {
            // Idle: age toward the back of the LRU order.
        } else {
            ops.push((i, Op::Close));
            open[i] = false;
        }
    }
    Plan { sessions, ops }
}

// ---------------------------------------------------------------------
// Differential machinery
// ---------------------------------------------------------------------

/// Everything deterministic one operation produces. Virtual cycles, EPC
/// counters and boundary bytes are deliberately absent: faults perturb
/// those by design.
#[derive(Debug, Clone, PartialEq)]
enum Event {
    Opened(bool),
    Ok {
        values: Vec<Value>,
        exit_code: u32,
        stdout: Vec<u8>,
        wasi_calls: u64,
        meter: Meter,
        fuel_remaining: Option<u64>,
    },
    Trap(String),
    Closed,
}

fn invoke_event(res: Result<(RunReport, Vec<Value>), TwineError>) -> Event {
    match res {
        Ok((report, values)) => Event::Ok {
            values,
            exit_code: report.exit_code,
            stdout: report.stdout,
            wasi_calls: report.wasi_calls,
            meter: report.meter,
            fuel_remaining: report.fuel_remaining,
        },
        Err(e) => Event::Trap(e.to_string()),
    }
}

/// Drive the plan against a **faulted** sharded service under a tiny
/// eviction budget with pooling on — maximal churn through the (faulted)
/// seal/unseal/pool paths — from `clients` threads owning disjoint tenant
/// subsets.
fn run_faulted_sharded(
    plan: &Plan,
    shards: usize,
    clients: usize,
    fault_seed: u64,
) -> (Vec<Vec<Event>>, twine_core::ControlStats) {
    let control = ControlPlane {
        max_live_sessions: Some(1),
        pool_slots_per_module: Some(4),
        ..ControlPlane::default()
    };
    let svc = Arc::new(
        TwineBuilder::new()
            .control_plane(control)
            .faults(Arc::new(FaultPlan::new(FaultConfig::chaos(fault_seed))))
            .build_sharded(shards),
    );
    let mut handles = Vec::new();
    for c in 0..clients {
        let svc = Arc::clone(&svc);
        let mine: Vec<usize> = (0..plan.sessions.len()).filter(|i| i % clients == c).collect();
        let ops: Vec<(usize, Op)> = plan
            .ops
            .iter()
            .filter(|(i, _)| mine.contains(i))
            .cloned()
            .collect();
        let sessions: Vec<(String, GuestClass, Vec<u8>)> = plan.sessions.clone();
        handles.push(std::thread::spawn(move || {
            let mut seqs: Vec<(usize, Vec<Event>)> =
                mine.iter().map(|&i| (i, Vec::new())).collect();
            let at = |i: usize| mine.iter().position(|&m| m == i).expect("own tenant");
            for (i, op) in &ops {
                let (name, class, wasm) = &sessions[*i];
                let ev = match op {
                    Op::Open => {
                        let ok = svc.open_session(name, wasm).is_ok();
                        if ok && *class == GuestClass::FuelTrap {
                            svc.set_session_fuel(name, Some(TRAP_FUEL)).expect("fuel");
                        }
                        Event::Opened(ok)
                    }
                    Op::Invoke(x) => {
                        let (func, args) = match class {
                            GuestClass::Stateful => ("step", vec![Value::I32(*x)]),
                            GuestClass::FuelTrap => ("run", vec![Value::I32(*x)]),
                        };
                        invoke_event(svc.invoke_with_report(name, func, &args))
                    }
                    Op::Close => {
                        svc.close_session(name).expect("shard alive");
                        Event::Closed
                    }
                };
                seqs[at(*i)].1.push(ev);
            }
            seqs
        }));
    }
    let mut seqs: Vec<Vec<Event>> = vec![Vec::new(); plan.sessions.len()];
    for h in handles {
        for (i, seq) in h.join().expect("client thread") {
            seqs[i] = seq;
        }
    }
    let stats = svc.control_stats();
    for (i, (name, _, _)) in plan.sessions.iter().enumerate() {
        if let Ok(Some(_)) = svc.close_session(name) {
            seqs[i].push(Event::Closed);
        }
    }
    (seqs, stats)
}

/// The unfaulted, unbounded, single-threaded oracle.
fn run_oracle(plan: &Plan) -> Vec<Vec<Event>> {
    let mut svc: TwineService = TwineBuilder::new().build_service();
    let mut seqs: Vec<Vec<Event>> = vec![Vec::new(); plan.sessions.len()];
    for (i, op) in &plan.ops {
        let (name, class, wasm) = &plan.sessions[*i];
        let ev = match op {
            Op::Open => {
                let ok = svc.open_session(name, wasm).is_ok();
                if ok && *class == GuestClass::FuelTrap {
                    svc.set_session_fuel(name, Some(TRAP_FUEL)).expect("fuel");
                }
                Event::Opened(ok)
            }
            Op::Invoke(x) => {
                let (func, args) = match class {
                    GuestClass::Stateful => ("step", vec![Value::I32(*x)]),
                    GuestClass::FuelTrap => ("run", vec![Value::I32(*x)]),
                };
                invoke_event(svc.invoke_with_report(name, func, &args))
            }
            Op::Close => {
                svc.close_session(name);
                Event::Closed
            }
        };
        seqs[*i].push(ev);
    }
    for (i, (name, _, _)) in plan.sessions.iter().enumerate() {
        if svc.close_session(name).is_some() {
            seqs[i].push(Event::Closed);
        }
    }
    seqs
}

/// The differential: faulted sharded churn vs unfaulted oracle, and the
/// fault machinery actually exercised (injections happened, retries
/// happened) without any guest-visible divergence.
fn assert_chaos_matches(shards: usize, clients: usize, seed: u64) -> twine_core::ControlStats {
    // Enough tenants that shards hold several sessions each — the
    // eviction budget of 1 then forces continuous park/restore churn.
    let n_sessions = (3 * shards).max(7);
    let plan = build_plan(n_sessions, 20 * n_sessions, seed);
    let (faulted, stats) = run_faulted_sharded(&plan, shards, clients, seed ^ 0xC4A0_5EED);
    let oracle = run_oracle(&plan);
    for (i, (name, _, _)) in plan.sessions.iter().enumerate() {
        assert_eq!(
            faulted[i], oracle[i],
            "per-tenant event sequence diverged for {name} under faults \
             ({shards} shards, eviction budget 1)"
        );
    }
    assert!(
        stats.faults_injected > 0,
        "the chaos schedule must actually fire: {stats:?}"
    );
    assert!(
        stats.retries > 0,
        "transient faults must be absorbed by retries: {stats:?}"
    );
    assert!(
        stats.parks > 0 && stats.restores > 0,
        "budget-1 churn must park and restore: {stats:?}"
    );
    stats
}

// ---------------------------------------------------------------------
// Chaos differentials
// ---------------------------------------------------------------------

#[test]
fn chaos_churn_single_shard_is_guest_invisible() {
    assert_chaos_matches(1, 1, 0xD15E_A5E0);
}

#[test]
fn chaos_churn_four_shards_is_guest_invisible() {
    assert_chaos_matches(4, 3, 0xBAD5_EED5);
}

#[test]
fn chaos_churn_eight_shards_is_guest_invisible() {
    assert_chaos_matches(8, 4, 0xFA11_0E8A);
}

/// The same chaos run twice with the same seeds is bit-identical in every
/// guest-visible stream — the fault schedule is deterministic, not merely
/// harmless.
#[test]
fn chaos_schedule_is_reproducible() {
    let plan = build_plan(5, 90, 42);
    let (a, sa) = run_faulted_sharded(&plan, 1, 1, 42);
    let (b, sb) = run_faulted_sharded(&plan, 1, 1, 42);
    assert_eq!(a, b, "same plan + same fault seed must replay identically");
    assert_eq!(sa.faults_injected, sb.faults_injected);
    assert_eq!(sa.retries, sb.retries);
    assert!(sa.faults_injected > 0);
}

// ---------------------------------------------------------------------
// Crash recovery + rollback protection
// ---------------------------------------------------------------------

fn durable_control(store: &DurableParkStore) -> ControlPlane {
    ControlPlane {
        durable_parks: Some(store.clone()),
        ..ControlPlane::default()
    }
}

/// Simulated crash: durably-parked sessions come back bit-identically on
/// a service rebuilt on the same processor (same key hierarchy, same
/// counter bank, same untrusted record store) — even when the recovering
/// service itself runs under an armed chaos fault plan.
#[test]
fn crash_recovery_restores_durable_parks_bit_identically() {
    let wasm = stateful_wasm();
    let store = DurableParkStore::new();
    let processor = Processor::new(7);

    // The uninterrupted oracle: same call sequence, no crash.
    let mut oracle = TwineBuilder::new().build_service();
    oracle.open_session("a", &wasm).expect("oracle open a");
    oracle.open_session("b", &wasm).expect("oracle open b");

    let mut svc = TwineBuilder::new()
        .processor(processor.clone())
        .control_plane(durable_control(&store))
        .build_service();
    svc.open_session("a", &wasm).expect("open a");
    svc.open_session("b", &wasm).expect("open b");
    for (name, xs) in [("a", [3, 11, -4]), ("b", [9, -2, 100])] {
        for x in xs {
            let got = svc.invoke(name, "step", &[Value::I32(x)]).expect("invoke");
            let want = oracle.invoke(name, "step", &[Value::I32(x)]).expect("oracle");
            assert_eq!(got, want);
        }
    }
    svc.park_session("a").expect("park a");
    svc.park_session("b").expect("park b");
    assert_eq!(store.record_count(), 2, "both parks wrote durable records");

    // Crash: the enclave process dies. Only the processor (counters, key
    // roots) and the untrusted record store survive.
    drop(svc);

    let mut revived = TwineBuilder::new()
        .processor(processor)
        .control_plane(durable_control(&store))
        .faults(Arc::new(FaultPlan::new(FaultConfig::chaos(0xC0FF_EE00))))
        .build_service();
    let recovered = revived.recover().expect("recovery succeeds");
    assert_eq!(recovered, vec!["a".to_string(), "b".to_string()]);
    assert_eq!(revived.control_stats().recovered_sessions, 2);
    assert_eq!(revived.session_parked("a"), Some(true));
    assert_eq!(revived.session_parked("b"), Some(true));

    // The recovered sessions continue exactly where the oracle is.
    for (name, xs) in [("a", [17, 5]), ("b", [-1, 8])] {
        for x in xs {
            let got = revived.invoke(name, "step", &[Value::I32(x)]).expect("invoke");
            let want = oracle.invoke(name, "step", &[Value::I32(x)]).expect("oracle");
            assert_eq!(got, want, "recovered {name} diverged from the uncrashed oracle");
        }
    }

    // recover() is idempotent for already-live sessions.
    assert_eq!(revived.recover().expect("second recovery"), Vec::<String>::new());
}

/// The rollback attack: the host snapshots a session's sealed record,
/// lets the enclave park newer state, crashes it, replays the stale
/// ciphertext and asks for recovery. The stale image's freshness tag lags
/// the processor's monotonic counter, so recovery rejects it typed.
#[test]
fn replayed_stale_park_image_is_rejected() {
    let wasm = stateful_wasm();
    let store = DurableParkStore::new();
    let processor = Processor::new(13);

    let mut svc = TwineBuilder::new()
        .processor(processor.clone())
        .control_plane(durable_control(&store))
        .build_service();
    svc.open_session("s", &wasm).expect("open");
    svc.invoke("s", "step", &[Value::I32(1)]).expect("invoke");
    svc.park_session("s").expect("first park");
    let stale = store.snapshot_record("s").expect("host copies the ciphertext");
    svc.invoke("s", "step", &[Value::I32(2)]).expect("restore + invoke");
    svc.park_session("s").expect("second park");
    drop(svc);

    // Host replays last park-but-one and asks the revived enclave to
    // recover from it.
    store.replay_record("s", stale);
    let mut revived = TwineBuilder::new()
        .processor(processor)
        .control_plane(durable_control(&store))
        .build_service();
    match revived.recover() {
        Err(TwineError::Rollback { session, have, want }) => {
            assert_eq!(session, "s");
            assert_eq!(have, 1, "the replayed image carries the first park's tag");
            assert_eq!(want, 2, "the counter remembers the second park");
        }
        other => panic!("stale replay must be rejected typed, got: {other:?}"),
    }
    assert_eq!(revived.control_stats().rollback_rejected, 1);
    assert_eq!(
        revived.session_parked("s"),
        None,
        "the rolled-back session must not be resurrected"
    );
}

/// Closing a durably-parked session removes its record *and* bumps the
/// counter, so replaying the removed record after a crash is rejected —
/// a closed session cannot be resurrected from its last park image.
#[test]
fn closed_session_record_replay_is_rejected() {
    let wasm = stateful_wasm();
    let store = DurableParkStore::new();
    let processor = Processor::new(21);

    let mut svc = TwineBuilder::new()
        .processor(processor.clone())
        .control_plane(durable_control(&store))
        .build_service();
    svc.open_session("s", &wasm).expect("open");
    svc.invoke("s", "step", &[Value::I32(5)]).expect("invoke");
    svc.park_session("s").expect("park");
    let ghost = store.snapshot_record("s").expect("host copies the ciphertext");
    svc.close_session("s");
    assert_eq!(store.record_count(), 0, "close removes the durable record");
    drop(svc);

    store.replay_record("s", ghost);
    let mut revived = TwineBuilder::new()
        .processor(processor)
        .control_plane(durable_control(&store))
        .build_service();
    assert!(
        matches!(
            revived.recover(),
            Err(TwineError::Rollback { ref session, have: 1, want: 2 }) if session == "s"
        ),
        "a closed session's replayed record must be stale"
    );
}
