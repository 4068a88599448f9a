//! Session-churn differential suite (control plane, DESIGN.md §10):
//! thousands of randomized arrive/invoke/idle/expire operations against
//! services running a **tiny eviction budget** — sessions are continuously
//! parked (sealed out of the enclave) and restored warm — checked
//! bit-identically against an **unbounded** single-threaded replay of the
//! same per-session operation sequences.
//!
//! What must be bit-identical per session: results, trap kinds, exit
//! codes, stdout, WASI call counts, per-class retired-instruction meters,
//! remaining fuel, and protected-fs file bytes recovered at close. What is
//! deliberately not compared: virtual-clock cycles, EPC fault counts and
//! cache-hit flags — those meter globally shared state (the seal/restore
//! traffic itself lands there, which is the point of the accounting).

use std::sync::Arc;

use twine_core::{ControlPlane, RunReport, TwineBuilder, TwineError, TwineService};
use twine_wasi::WASI_MODULE;
use twine_wasm::encode::encode;
use twine_wasm::instr::{Instr, LoadKind, MemArg};
use twine_wasm::types::{FuncType, Limits, ValType, Value};
use twine_wasm::{Meter, ModuleBuilder};

// ---------------------------------------------------------------------
// Guests
// ---------------------------------------------------------------------

/// Order-sensitive stateful guest: the global survives warm invocations
/// *and park/restore cycles* — its final value encodes the exact call
/// order, so any state loss in the seal/unseal path shows up immediately.
const STATEFUL_SRC: &str = "
    int acc;
    int step(int x) {
        acc = acc * 31 + x;
        return acc;
    }
";

/// Compute guest; with a tiny fuel budget it always traps mid-run, which
/// exercises the trap-then-reset path under churn.
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

/// Fuel budget low enough that the compute kernel always runs out mid-run.
const TRAP_FUEL: u64 = 150;

// Guest memory layout of the generated WASI-fs module (same convention as
// the concurrent_serving suite).
const PATH_ADDR: i32 = 0;
const PAYLOAD_ADDR: i32 = 256;
const READBUF_ADDR: i32 = 768;
const IOV_WRITE: i32 = 512;
const IOV_READ: i32 = 528;
const IOV_ECHO: i32 = 536;
const OUT_FD: i32 = 640;
const SCRATCH: i32 = 644;

fn iovec(base: i32, len: usize) -> Vec<u8> {
    let mut v = (base as u32).to_le_bytes().to_vec();
    v.extend_from_slice(&(len as u32).to_le_bytes());
    v
}

/// A guest whose `go()` creates/truncates its file, writes a payload,
/// reopens it, reads the payload back and echoes it to stdout — every call
/// exercises the protected-FS write and read paths plus stdout capture.
fn fs_guest(path: &str, payload: &[u8]) -> Vec<u8> {
    use ValType::{I32, I64};
    let mut b = ModuleBuilder::new();
    let path_open = b.import_func(
        WASI_MODULE,
        "path_open",
        FuncType::new(vec![I32, I32, I32, I32, I32, I64, I64, I32, I32], vec![I32]),
    );
    let fd_write = b.import_func(
        WASI_MODULE,
        "fd_write",
        FuncType::new(vec![I32, I32, I32, I32], vec![I32]),
    );
    let fd_read = b.import_func(
        WASI_MODULE,
        "fd_read",
        FuncType::new(vec![I32, I32, I32, I32], vec![I32]),
    );
    b.memory(Limits::at_least(1));
    b.add_data(PATH_ADDR, path.as_bytes().to_vec());
    b.add_data(PAYLOAD_ADDR, payload.to_vec());
    b.add_data(IOV_WRITE, iovec(PAYLOAD_ADDR, payload.len()));
    b.add_data(IOV_READ, iovec(READBUF_ADDR, payload.len()));
    b.add_data(IOV_ECHO, iovec(READBUF_ADDR, payload.len()));

    let open = |oflags: i32| {
        vec![
            Instr::Const(Value::I32(3)), // dirfd: the preopen
            Instr::Const(Value::I32(0)),
            Instr::Const(Value::I32(PATH_ADDR)),
            Instr::Const(Value::I32(path.len() as i32)),
            Instr::Const(Value::I32(oflags)),
            Instr::Const(Value::I64(-1)),
            Instr::Const(Value::I64(0)),
            Instr::Const(Value::I32(0)),
            Instr::Const(Value::I32(OUT_FD)),
            Instr::Call(path_open),
            Instr::Drop,
        ]
    };
    let load_fd = || {
        vec![
            Instr::Const(Value::I32(OUT_FD)),
            Instr::Load(LoadKind::I32, MemArg { offset: 0, align: 2 }),
        ]
    };

    let mut body = open(0x1 | 0x8); // create | trunc
    body.extend(load_fd());
    body.extend([
        Instr::Const(Value::I32(IOV_WRITE)),
        Instr::Const(Value::I32(1)),
        Instr::Const(Value::I32(SCRATCH)),
        Instr::Call(fd_write),
        Instr::Drop,
    ]);
    body.extend(open(0)); // reopen for reading
    body.extend(load_fd());
    body.extend([
        Instr::Const(Value::I32(IOV_READ)),
        Instr::Const(Value::I32(1)),
        Instr::Const(Value::I32(SCRATCH)),
        Instr::Call(fd_read),
        Instr::Drop,
        Instr::Const(Value::I32(1)), // stdout
        Instr::Const(Value::I32(IOV_ECHO)),
        Instr::Const(Value::I32(1)),
        Instr::Const(Value::I32(SCRATCH)),
        Instr::Call(fd_write),
    ]);
    let f = b.add_func(FuncType::new(vec![], vec![ValType::I32]), vec![], body);
    b.export_func("go", f);
    encode(&b.build())
}

// ---------------------------------------------------------------------
// Randomized churn plans
// ---------------------------------------------------------------------

/// Deterministic 64-bit LCG (Knuth MMIX constants): the plan is random in
/// shape but reproducible byte-for-byte across the compared runs.
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
    Fs,
    FuelTrap,
}

#[derive(Clone)]
enum Op {
    Open,
    Invoke(i32),
    Close,
}

struct Plan {
    /// (name, class, wasm) per tenant index.
    sessions: Vec<(String, GuestClass, Vec<u8>)>,
    /// Global operation order; per-tenant subsequences are what the
    /// differential preserves.
    ops: Vec<(usize, Op)>,
}

fn class_of(i: usize) -> GuestClass {
    match i % 3 {
        0 => GuestClass::Stateful,
        1 => GuestClass::Fs,
        _ => GuestClass::FuelTrap,
    }
}

fn build_plan(n_sessions: usize, n_ops: usize, seed: u64) -> Plan {
    let stateful = twine_minicc::compile_to_bytes(STATEFUL_SRC).expect("stateful compiles");
    let compute = twine_minicc::compile_to_bytes(COMPUTE_SRC).expect("compute compiles");
    let sessions: Vec<(String, GuestClass, Vec<u8>)> = (0..n_sessions)
        .map(|i| {
            let name = format!("tenant-{i}");
            let class = class_of(i);
            let wasm = match class {
                GuestClass::Stateful => stateful.clone(),
                GuestClass::FuelTrap => compute.clone(),
                GuestClass::Fs => {
                    let payload = format!("payload-of-{name}-{}", "x".repeat(i + 1));
                    fs_guest(&format!("state-{i}.bin"), payload.as_bytes())
                }
            };
            (name, class, wasm)
        })
        .collect();

    let mut lcg = Lcg(seed);
    let mut open = vec![false; n_sessions];
    let mut ops = Vec::with_capacity(n_ops);
    while ops.len() < n_ops {
        let i = (lcg.next() as usize) % n_sessions;
        let r = lcg.next() % 10;
        if !open[i] {
            // Arrive: a tenant (re)appears; reopening after expiry starts
            // a fresh instance and a fresh protected-fs backend.
            ops.push((i, Op::Open));
            open[i] = true;
        } else if r < 6 {
            ops.push((i, Op::Invoke((lcg.next() % 1000) as i32)));
        } else if r < 8 {
            // Idle: this tenant skips a round, so it ages toward the back
            // of the LRU order and becomes an eviction candidate.
        } else {
            // Expire.
            ops.push((i, Op::Close));
            open[i] = false;
        }
    }
    Plan { sessions, ops }
}

// ---------------------------------------------------------------------
// Differential machinery
// ---------------------------------------------------------------------

/// Everything deterministic one operation produces.
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
    /// Protected-fs bytes recovered from the closed session's backend
    /// (`None` for non-fs tenants or when the file was never written).
    Closed(Option<Vec<u8>>),
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

/// Read a session's protected file back through its reclaimed backend.
fn file_state(backend: &mut dyn twine_wasi::FsBackend, path: &str) -> Option<Vec<u8>> {
    let mut f = backend.open(path, false, false).ok()?;
    let size = f.size().ok()? as usize;
    let mut buf = vec![0u8; size];
    let mut read = 0;
    while read < size {
        let n = f.read(&mut buf[read..]).ok()?;
        if n == 0 {
            break;
        }
        read += n;
    }
    Some(buf)
}

fn close_event(
    backend: Option<Box<dyn twine_wasi::FsBackend>>,
    class: GuestClass,
    i: usize,
) -> Event {
    let bytes = backend.and_then(|mut b| {
        (class == GuestClass::Fs)
            .then(|| file_state(b.as_mut(), &format!("/data/state-{i}.bin")))
            .flatten()
    });
    Event::Closed(bytes)
}

/// Drive the plan against a sharded service under a tiny eviction budget,
/// from `clients` threads each owning a disjoint tenant subset (so every
/// tenant's op order is preserved while shards churn concurrently).
/// Returns per-tenant event sequences plus the summed control counters.
fn run_churn_sharded(
    plan: &Plan,
    shards: usize,
    clients: usize,
    control: &ControlPlane,
) -> (Vec<Vec<Event>>, twine_core::ControlStats) {
    let svc = Arc::new(
        TwineBuilder::new()
            .control_plane(control.clone())
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
            let mut seqs: Vec<(usize, Vec<Event>)> = mine.iter().map(|&i| (i, Vec::new())).collect();
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
                            GuestClass::Fs => ("go", vec![]),
                        };
                        invoke_event(svc.invoke_with_report(name, func, &args))
                    }
                    Op::Close => close_event(
                        svc.close_session(name).expect("shard alive"),
                        *class,
                        *i,
                    ),
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
    // Drain still-open tenants so both runs end fully closed.
    for (i, (name, class, _)) in plan.sessions.iter().enumerate() {
        if let Ok(Some(b)) = svc.close_session(name) {
            seqs[i].push(close_event(Some(b), *class, i));
        }
    }
    (seqs, stats)
}

/// The unbounded single-threaded oracle: same global op order, no control
/// plane at all — nothing is ever parked, preempted or rejected.
fn run_churn_single(plan: &Plan) -> Vec<Vec<Event>> {
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
                    GuestClass::Fs => ("go", vec![]),
                };
                invoke_event(svc.invoke_with_report(name, func, &args))
            }
            Op::Close => close_event(svc.close_session(name), *class, *i),
        };
        seqs[*i].push(ev);
    }
    for (i, (name, class, _)) in plan.sessions.iter().enumerate() {
        if let Some(b) = svc.close_session(name) {
            seqs[i].push(close_event(Some(b), *class, i));
        }
    }
    seqs
}

fn assert_churn_matches(shards: usize, clients: usize, seed: u64) -> twine_core::ControlStats {
    assert_churn_matches_with(shards, clients, seed, None)
}

/// The same differential with instance pooling enabled: restores patch a
/// pooled slot instead of a rehydrated base image — none of which may be
/// observable in any tenant's event stream.
fn assert_churn_matches_pooled(
    shards: usize,
    clients: usize,
    seed: u64,
) -> twine_core::ControlStats {
    let stats = assert_churn_matches_with(shards, clients, seed, Some(4));
    assert!(
        stats.pool_hits > 0,
        "budget-1 churn must recycle pooled slots: {stats:?}"
    );
    // Every guest here is poolable (minicc emits no start function), so
    // every park seals a delta against the shared base image, far below
    // the 64 KiB+ of a whole memory.
    assert!(
        stats.parks == 0 || stats.sealed_bytes / stats.parks < 64 * 1024,
        "mean sealed park must be smaller than one full memory image: {stats:?}"
    );
    assert_eq!(
        stats.pool_discards, 0,
        "without fault injection no pooled slot is ever corrupt: {stats:?}"
    );
    stats
}

fn assert_churn_matches_with(
    shards: usize,
    clients: usize,
    seed: u64,
    pool: Option<usize>,
) -> twine_core::ControlStats {
    let plan = build_plan(9, 120, seed);
    let control = ControlPlane {
        // Tiny eviction budget: at most one live session per shard, so
        // almost every warm invoke restores a parked session and parks
        // another — maximal churn through the seal path.
        max_live_sessions: Some(1),
        pool_slots_per_module: pool,
        ..ControlPlane::default()
    };
    let (sharded, stats) = run_churn_sharded(&plan, shards, clients, &control);
    let single = run_churn_single(&plan);
    for (i, (name, class, _)) in plan.sessions.iter().enumerate() {
        assert_eq!(
            sharded[i], single[i],
            "per-tenant event sequence diverged for {name} \
             (class {:?}, {shards} shards, eviction budget 1)",
            match class {
                GuestClass::Stateful => "stateful",
                GuestClass::Fs => "fs",
                GuestClass::FuelTrap => "fuel-trap",
            }
        );
    }
    // The battery exercised what it claims: traps happened, fs bytes
    // compared non-empty somewhere, and every parked session that was
    // invoked again was restored.
    assert!(
        sharded.iter().flatten().any(|e| matches!(e, Event::Trap(t) if t.contains("out of fuel"))),
        "fuel-trap tenants must trap under churn"
    );
    assert!(
        sharded
            .iter()
            .flatten()
            .any(|e| matches!(e, Event::Closed(Some(b)) if !b.is_empty())),
        "at least one fs tenant must leave protected-file bytes to compare"
    );
    assert!(stats.restores <= stats.parks, "cannot restore more than was parked");
    assert_eq!(stats.sealed_bytes > 0, stats.parks > 0);
    stats
}

// ---------------------------------------------------------------------
// The tests
// ---------------------------------------------------------------------

#[test]
fn churn_1_shard_bit_identical_to_unbounded_replay() {
    let stats = assert_churn_matches(1, 1, 0x5eed_0001);
    // One shard, nine tenants, budget one: parking is guaranteed.
    assert!(stats.parks > 0, "eviction budget 1 must park: {stats:?}");
    assert!(stats.restores > 0, "parked tenants were invoked again: {stats:?}");
    assert!(stats.sealed_bytes > 0 && stats.unsealed_bytes > 0);
}

#[test]
fn churn_4_shards_bit_identical_to_unbounded_replay() {
    assert_churn_matches(4, 3, 0x5eed_0004);
}

#[test]
fn churn_8_shards_bit_identical_to_unbounded_replay() {
    assert_churn_matches(8, 4, 0x5eed_0008);
}

#[test]
fn pooled_churn_1_shard_bit_identical_to_unbounded_replay() {
    let stats = assert_churn_matches_pooled(1, 1, 0x5eed_1001);
    assert!(stats.parks > 0 && stats.restores > 0, "{stats:?}");
    assert!(stats.dirty_pages_restored > 0, "delta restores patch pages: {stats:?}");
}

#[test]
fn pooled_churn_4_shards_bit_identical_to_unbounded_replay() {
    assert_churn_matches_pooled(4, 3, 0x5eed_1004);
}

#[test]
fn pooled_churn_8_shards_bit_identical_to_unbounded_replay() {
    assert_churn_matches_pooled(8, 4, 0x5eed_1008);
}

/// The pool decides whether instances are recycled, never what crosses
/// the boundary: pooled and unpooled runs of the same plan, on one shard
/// driven by one client (so the eviction order is identical), produce the
/// same events, the same parks and the same sealed bytes.
#[test]
fn pooled_and_unpooled_parks_seal_the_same_bytes() {
    let plan = build_plan(9, 120, 0x5eed_2002);
    let unpooled = ControlPlane {
        max_live_sessions: Some(1),
        ..ControlPlane::default()
    };
    let pooled = ControlPlane {
        pool_slots_per_module: Some(4),
        ..unpooled.clone()
    };
    let (seq_u, u) = run_churn_sharded(&plan, 1, 1, &unpooled);
    let (seq_p, p) = run_churn_sharded(&plan, 1, 1, &pooled);
    for (i, (name, _, _)) in plan.sessions.iter().enumerate() {
        assert_eq!(seq_u[i], seq_p[i], "pooling changed {name}'s events");
    }
    assert!(u.parks > 0, "budget-1 churn must park: {u:?}");
    assert_eq!(u.parks, p.parks);
    assert_eq!(u.sealed_bytes, p.sealed_bytes, "the pool changed what was sealed");
    assert!(p.pool_misses + p.pool_hits > 0);
    assert_eq!(u.pool_hits + u.pool_misses, 0, "no pool, no checkouts");
}

/// Explicit park → invoke (auto-restore) → park cycles: guest state
/// (the order-sensitive accumulator) survives every crossing of the seal
/// boundary, and the control counters account each crossing.
#[test]
fn park_restore_park_cycles_preserve_state() {
    let wasm = twine_minicc::compile_to_bytes(STATEFUL_SRC).unwrap();
    let mut svc = TwineBuilder::new().build_service();
    svc.open_session("s", &wasm).unwrap();
    let mut expect = 0i32;
    for (k, x) in [5i32, -2, 11, 7, 0, 3, 42, -9].into_iter().enumerate() {
        svc.park_session("s").expect("park");
        assert_eq!(svc.session_parked("s"), Some(true));
        // Parking is idempotent.
        svc.park_session("s").expect("re-park is a no-op");
        expect = expect.wrapping_mul(31).wrapping_add(x);
        let out = svc.invoke("s", "step", &[Value::I32(x)]).expect("invoke restores");
        assert_eq!(out[0], Value::I32(expect), "state lost at cycle {k}");
        assert_eq!(svc.session_parked("s"), Some(false));
    }
    let stats = svc.control_stats();
    assert_eq!(stats.parks, 8);
    assert_eq!(stats.restores, 8);
    // No pool, but the guest is poolable: each park seals a delta of the
    // few words the accumulator changed, not the 64 KiB+ memory nor the
    // 4 KiB pages those words sit on.
    assert!(
        stats.sealed_bytes < stats.parks * 1024,
        "unpooled parks seal deltas: {stats:?}"
    );
    assert_eq!(stats.live_sessions, 1);
    assert_eq!(stats.parked_sessions, 0);
    // The boundary accounting is real: seal traffic landed on the
    // enclave's OCALL byte counters.
    assert!(svc.enclave().stats().boundary_bytes >= stats.sealed_bytes);
}

/// The pooled counterpart of the cycle test above: state still survives
/// every crossing, but each sealed park is a delta (the stateful guest
/// dirties a few pages at most), the recycled instance comes back through
/// the pool, and cold opens after the first hit pre-instantiated slots.
#[test]
fn pooled_park_restore_cycles_preserve_state_with_delta_seals() {
    let wasm = twine_minicc::compile_to_bytes(STATEFUL_SRC).unwrap();
    let mut svc = TwineBuilder::new()
        .control_plane(ControlPlane {
            pool_slots_per_module: Some(2),
            ..ControlPlane::default()
        })
        .build_service();
    svc.open_session("s", &wasm).unwrap();
    let mut expect = 0i32;
    for (k, x) in [5i32, -2, 11, 7, 0, 3, 42, -9].into_iter().enumerate() {
        svc.park_session("s").expect("park");
        assert_eq!(svc.session_parked("s"), Some(true));
        expect = expect.wrapping_mul(31).wrapping_add(x);
        let out = svc.invoke("s", "step", &[Value::I32(x)]).expect("invoke restores");
        assert_eq!(out[0], Value::I32(expect), "state lost at pooled cycle {k}");
    }
    let stats = svc.control_stats();
    assert_eq!(stats.parks, 8);
    assert_eq!(stats.restores, 8);
    // Every park sealed a delta of changed words, smaller than one page.
    assert!(
        stats.sealed_bytes < stats.parks * 1024,
        "deltas must stay well under the full image: {stats:?}"
    );
    assert!(stats.dirty_pages_restored > 0);
    // Park recycles the instance into the pool; the following restore
    // checks it back out: 8 restores = 8 pool hits, and the very first
    // open was the only instantiation this session ever needed.
    assert_eq!(stats.pool_hits, 8);
    assert_eq!(stats.pool_misses, 1);
    // No fault plan installed: nothing injected, nothing discarded,
    // nothing retried behind the scenes.
    assert_eq!(stats.pool_discards, 0);
    assert_eq!(stats.faults_injected, 0);
    assert_eq!(stats.retries, 0);
}

/// Opening a second session of the same module after the first closed
/// reuses the pooled slot — the cold open becomes a checkout.
#[test]
fn close_recycles_instance_for_next_open() {
    let wasm = twine_minicc::compile_to_bytes(STATEFUL_SRC).unwrap();
    let mut svc = TwineBuilder::new()
        .control_plane(ControlPlane {
            pool_slots_per_module: Some(2),
            ..ControlPlane::default()
        })
        .build_service();
    svc.open_session("a", &wasm).unwrap();
    assert_eq!(svc.invoke("a", "step", &[Value::I32(3)]).unwrap()[0], Value::I32(3));
    svc.close_session("a");
    assert_eq!(svc.pooled_slot_count(), 1, "close parks the slot");
    svc.open_session("b", &wasm).unwrap();
    // "b" starts from the pristine base image, not "a"'s accumulator.
    assert_eq!(svc.invoke("b", "step", &[Value::I32(7)]).unwrap()[0], Value::I32(7));
    let stats = svc.control_stats();
    assert_eq!(stats.pool_hits, 1);
    assert_eq!(stats.pool_misses, 1);
}

/// Eviction racing the in-flight invoke: with an eviction budget of one,
/// every invoke of tenant B restores B and parks A (and vice versa) *as
/// part of the invoke itself* — the in-flight session is never its own
/// victim, and both tenants' state streams stay exact.
#[test]
fn eviction_races_in_flight_invoke_without_corruption() {
    let wasm = twine_minicc::compile_to_bytes(STATEFUL_SRC).unwrap();
    let mut svc = TwineBuilder::new()
        .control_plane(ControlPlane {
            max_live_sessions: Some(1),
            ..ControlPlane::default()
        })
        .build_service();
    svc.open_session("a", &wasm).unwrap();
    svc.open_session("b", &wasm).unwrap();
    let (mut ea, mut eb) = (0i32, 0i32);
    for k in 0..24i32 {
        ea = ea.wrapping_mul(31).wrapping_add(k);
        assert_eq!(
            svc.invoke("a", "step", &[Value::I32(k)]).unwrap()[0],
            Value::I32(ea)
        );
        eb = eb.wrapping_mul(31).wrapping_add(-k);
        assert_eq!(
            svc.invoke("b", "step", &[Value::I32(-k)]).unwrap()[0],
            Value::I32(eb)
        );
        // The budget holds after every call: at most one live.
        assert!(svc.live_session_count() <= 1);
        assert_eq!(svc.session_count(), 2);
    }
    let stats = svc.control_stats();
    assert!(stats.parks >= 47, "every alternation parks the peer: {stats:?}");
    // Opening "b" parked "a" before "a" was ever restored, so parks lead
    // restores by exactly the one session parked at the end.
    assert_eq!(stats.parks, stats.restores + 1);
}
