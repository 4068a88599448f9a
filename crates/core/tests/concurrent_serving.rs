//! The concurrency stress battery (ISSUE 5): N client threads × M sessions
//! hammering a [`ShardedService`] with mixed compute + stateful + WASI-fs +
//! fuel-trap guests, differentially checked against a **single-threaded**
//! [`TwineService`] replay of the same per-session call sequences.
//!
//! What must be bit-identical per session (and is asserted here): result
//! values, trap kinds, exit codes, captured stdout, WASI call counts,
//! per-class retired-instruction meters, remaining fuel, and the
//! protected-fs file state left behind. What is deliberately *not*
//! compared: virtual-clock cycles and EPC fault counts — those meter the
//! one shared enclave and depend on cross-shard interleaving (DESIGN.md
//! §9's determinism argument draws exactly this line).

use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use proptest::prelude::*;
use twine_core::runtime::advance_watermark;
use twine_core::{RunReport, TwineBuilder, TwineError, TwineService};
use twine_wasi::WASI_MODULE;
use twine_wasm::encode::encode;
use twine_wasm::instr::{Instr, LoadKind, MemArg};
use twine_wasm::types::{FuncType, Limits, ValType, Value};
use twine_wasm::{Meter, ModuleBuilder};

// ---------------------------------------------------------------------
// Guests
// ---------------------------------------------------------------------

/// Order-sensitive stateful guest: the global survives warm invocations,
/// so a session's final state encodes the exact order of its calls.
const STATEFUL_SRC: &str = "
    int acc;
    int step(int x) {
        acc = acc * 31 + x;
        return acc;
    }
";

/// PolyBench-flavoured compute guest: 2-D array traffic + float arithmetic.
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

// Guest memory layout of the generated WASI-fs module (same convention as
// the fs_persistence suite).
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
/// exercises the protected-FS write *and* read paths plus stdout capture.
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
// The battery plan
// ---------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq)]
enum GuestClass {
    Stateful,
    Compute,
    Fs,
    FuelTrap,
}

/// Fuel budget low enough that the compute kernel always runs out mid-run.
const TRAP_FUEL: u64 = 150;

struct Plan {
    sessions: Vec<(String, GuestClass, Vec<u8>)>,
    calls: usize,
}

fn build_plan(n_sessions: usize, calls: usize) -> Plan {
    let stateful = twine_minicc::compile_to_bytes(STATEFUL_SRC).expect("stateful compiles");
    let compute = twine_minicc::compile_to_bytes(COMPUTE_SRC).expect("compute compiles");
    let sessions = (0..n_sessions)
        .map(|i| {
            let name = format!("tenant-{i}");
            let class = match i % 4 {
                0 => GuestClass::Stateful,
                1 => GuestClass::Compute,
                2 => GuestClass::Fs,
                _ => GuestClass::FuelTrap,
            };
            let wasm = match class {
                GuestClass::Stateful => stateful.clone(),
                GuestClass::Compute | GuestClass::FuelTrap => compute.clone(),
                GuestClass::Fs => {
                    let payload = format!("payload-of-{name}-{}", "x".repeat(i + 1));
                    fs_guest(&format!("state-{i}.bin"), payload.as_bytes())
                }
            };
            (name, class, wasm)
        })
        .collect();
    Plan { sessions, calls }
}

fn call_args(class: GuestClass, session_idx: usize, call_idx: usize) -> (String, Vec<Value>) {
    let x = (session_idx * 17 + call_idx * 5 + 3) as i32;
    match class {
        GuestClass::Stateful => ("step".into(), vec![Value::I32(x)]),
        GuestClass::Compute | GuestClass::FuelTrap => ("run".into(), vec![Value::I32(x)]),
        GuestClass::Fs => ("go".into(), vec![]),
    }
}

/// Everything deterministic one call produces.
#[derive(Debug, Clone, PartialEq)]
enum CallOutcome {
    Ok {
        values: Vec<Value>,
        exit_code: u32,
        stdout: Vec<u8>,
        wasi_calls: u64,
        meter: Meter,
        fuel_remaining: Option<u64>,
    },
    Trap(String),
}

fn outcome(res: Result<(RunReport, Vec<Value>), TwineError>) -> CallOutcome {
    match res {
        Ok((report, values)) => CallOutcome::Ok {
            values,
            exit_code: report.exit_code,
            stdout: report.stdout,
            wasi_calls: report.wasi_calls,
            meter: report.meter,
            fuel_remaining: report.fuel_remaining,
        },
        Err(e) => CallOutcome::Trap(e.to_string()),
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

/// Run the plan against a sharded service: sessions opened and driven from
/// `clients` concurrent threads (each owning a disjoint subset), per-session
/// call order = ascending call index. Returns per-session outcome
/// sequences + final fs state, in plan order.
fn run_sharded(
    plan: &Plan,
    shards: usize,
    clients: usize,
) -> (Vec<Vec<CallOutcome>>, Vec<Option<Vec<u8>>>) {
    let svc = Arc::new(TwineBuilder::new().build_sharded(shards));
    let mut handles = Vec::new();
    for c in 0..clients {
        let svc = Arc::clone(&svc);
        let mine: Vec<(usize, String, GuestClass, Vec<u8>)> = plan
            .sessions
            .iter()
            .enumerate()
            .filter(|(i, _)| i % clients == c)
            .map(|(i, (n, cl, w))| (i, n.clone(), *cl, w.clone()))
            .collect();
        let calls = plan.calls;
        handles.push(std::thread::spawn(move || {
            for (_, name, class, wasm) in &mine {
                svc.open_session(name, wasm).expect("open");
                if *class == GuestClass::FuelTrap {
                    svc.set_session_fuel(name, Some(TRAP_FUEL)).expect("fuel");
                }
            }
            let mut out: Vec<(usize, Vec<CallOutcome>)> =
                mine.iter().map(|(i, ..)| (*i, Vec::new())).collect();
            for call in 0..calls {
                for (k, (i, name, class, _)) in mine.iter().enumerate() {
                    let (func, args) = call_args(*class, *i, call);
                    out[k].1.push(outcome(svc.invoke_with_report(name, &func, &args)));
                }
            }
            out
        }));
    }
    let mut seqs: Vec<Vec<CallOutcome>> = vec![Vec::new(); plan.sessions.len()];
    for h in handles {
        for (i, seq) in h.join().expect("client thread") {
            seqs[i] = seq;
        }
    }
    let files = plan
        .sessions
        .iter()
        .enumerate()
        .map(|(i, (name, class, _))| {
            let mut backend = svc.close_session(name).expect("shard alive")?;
            (*class == GuestClass::Fs)
                .then(|| file_state(backend.as_mut(), &format!("/data/state-{i}.bin")))
                .flatten()
        })
        .collect();
    (seqs, files)
}

/// The single-threaded oracle: same per-session call sequences on a plain
/// `TwineService`, interleaved round-robin (any cross-session interleaving
/// is equivalent — sessions are independent).
fn run_single(plan: &Plan) -> (Vec<Vec<CallOutcome>>, Vec<Option<Vec<u8>>>) {
    let mut svc: TwineService = TwineBuilder::new().build_service();
    for (i, (name, class, wasm)) in plan.sessions.iter().enumerate() {
        let _ = i;
        svc.open_session(name, wasm).expect("open");
        if *class == GuestClass::FuelTrap {
            svc.set_session_fuel(name, Some(TRAP_FUEL)).expect("fuel");
        }
    }
    let mut seqs: Vec<Vec<CallOutcome>> = vec![Vec::new(); plan.sessions.len()];
    for call in 0..plan.calls {
        for (i, (name, class, _)) in plan.sessions.iter().enumerate() {
            let (func, args) = call_args(*class, i, call);
            seqs[i].push(outcome(svc.invoke_with_report(name, &func, &args)));
        }
    }
    let files = plan
        .sessions
        .iter()
        .enumerate()
        .map(|(i, (name, class, _))| {
            let mut backend = svc.close_session(name)?;
            (*class == GuestClass::Fs)
                .then(|| file_state(backend.as_mut(), &format!("/data/state-{i}.bin")))
                .flatten()
        })
        .collect();
    (seqs, files)
}

fn assert_battery_matches(shards: usize, clients: usize, sessions: usize, calls: usize) {
    let plan = build_plan(sessions, calls);
    let (sharded, sharded_files) = run_sharded(&plan, shards, clients);
    let (single, single_files) = run_single(&plan);
    for (i, (name, class, _)) in plan.sessions.iter().enumerate() {
        assert_eq!(
            sharded[i], single[i],
            "per-session outcome sequence diverged for {name}"
        );
        assert_eq!(sharded[i].len(), calls);
        // Sanity per class: the battery actually exercised what it claims.
        match class {
            GuestClass::FuelTrap => assert!(
                sharded[i]
                    .iter()
                    .all(|o| matches!(o, CallOutcome::Trap(t) if t.contains("out of fuel"))),
                "fuel-trap session {name} must trap every call"
            ),
            GuestClass::Fs => assert!(
                sharded[i].iter().all(|o| matches!(
                    o,
                    CallOutcome::Ok { stdout, wasi_calls, .. }
                        if !stdout.is_empty() && *wasi_calls >= 5
                )),
                "fs session {name} must echo its payload"
            ),
            _ => assert!(
                sharded[i]
                    .iter()
                    .all(|o| matches!(o, CallOutcome::Ok { .. })),
                "{name} must not trap"
            ),
        }
    }
    assert_eq!(sharded_files, single_files, "protected-fs state diverged");
    assert!(
        sharded_files.iter().flatten().any(|f| !f.is_empty()),
        "at least one fs session left file state to compare"
    );
}

// ---------------------------------------------------------------------
// The tests
// ---------------------------------------------------------------------

#[test]
fn battery_4_shards_is_bit_identical_to_single_threaded() {
    assert_battery_matches(4, 4, 12, 10);
}

#[test]
fn battery_8_shards_is_bit_identical_to_single_threaded() {
    assert_battery_matches(8, 8, 16, 6);
}

#[test]
fn battery_more_clients_than_shards() {
    // Clients outnumber shards: several client threads wait at the same
    // shard's gate concurrently; per-session ordering must still hold.
    assert_battery_matches(2, 6, 12, 6);
}

#[test]
fn battery_four_clients_contend_for_one_shard() {
    // Every command from all four clients passes through one gate. Client
    // 0 owns both order-encoding stateful sessions: its results are the
    // oracle's only if no call of its own sequence was reordered.
    assert_battery_matches(1, 4, 8, 40);
}

/// A pipelined batch is semantically identical to the same calls issued
/// one by one: same results in order, same per-session state evolution
/// (asserted via the order-sensitive stateful guest), and the invocation
/// counter advances per call, not per batch.
#[test]
fn invoke_batch_equals_sequential_invokes() {
    let wasm = twine_minicc::compile_to_bytes(STATEFUL_SRC).unwrap();
    let svc = TwineBuilder::new().build_sharded(2);
    svc.open_session("seq", &wasm).unwrap();
    svc.open_session("bat", &wasm).unwrap();
    let args: Vec<i32> = (0..13).map(|k| k * 7 - 20).collect();
    let sequential: Vec<Vec<Value>> = args
        .iter()
        .map(|&x| svc.invoke("seq", "step", &[Value::I32(x)]).unwrap())
        .collect();
    let batched = svc
        .invoke_batch(
            "bat",
            "step",
            args.iter().map(|&x| vec![Value::I32(x)]).collect(),
        )
        .unwrap();
    assert_eq!(sequential, batched);
    assert_eq!(
        svc.session_stats("bat").unwrap().invocations,
        args.len() as u64
    );
}

/// Per-session FIFO semantics pinned by value: a stateful session driven
/// sequentially computes exactly the host-side fold of its argument order.
#[test]
fn stateful_session_observes_program_order() {
    let wasm = twine_minicc::compile_to_bytes(STATEFUL_SRC).unwrap();
    let svc = TwineBuilder::new().build_sharded(3);
    svc.open_session("s", &wasm).unwrap();
    let args = [5, -2, 11, 7, 0, 3, 42, -9];
    let mut expect = 0i32;
    for (k, &x) in args.iter().enumerate() {
        expect = expect.wrapping_mul(31).wrapping_add(x);
        let out = svc.invoke("s", "step", &[Value::I32(x)]).unwrap();
        assert_eq!(out[0], Value::I32(expect), "call {k} out of order");
    }
}

/// Many client threads hammering the *same* session: the owning shard
/// serialises them — every call sees a consistent instance (no torn state,
/// correct result for an idempotent guest), and all calls are counted.
#[test]
fn one_session_hammered_from_many_threads_serialises() {
    let wasm =
        twine_minicc::compile_to_bytes("int sq(int x) { return x * x; }").unwrap();
    let svc = Arc::new(TwineBuilder::new().build_sharded(2));
    svc.open_session("hot", &wasm).unwrap();
    let threads = 6;
    let per_thread = 25;
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let svc = Arc::clone(&svc);
            std::thread::spawn(move || {
                for k in 0..per_thread {
                    let x = (t * per_thread + k) % 1000;
                    let out = svc.invoke("hot", "sq", &[Value::I32(x)]).expect("call");
                    assert_eq!(out[0], Value::I32(x * x));
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let stats = svc.session_stats("hot").expect("stats");
    assert_eq!(stats.invocations, (threads * per_thread) as u64);
}

/// Warm-serving work actually spreads across shards (the throughput story
/// of fig8_serving --threads): with balanced session placement every shard
/// reports busy time and its share of the invocations.
#[test]
fn load_spreads_across_shards() {
    let wasm = twine_minicc::compile_to_bytes(COMPUTE_SRC).unwrap();
    let svc = Arc::new(TwineBuilder::new().build_sharded(4));
    // Pick session names until every shard owns at least two.
    let mut names: Vec<String> = Vec::new();
    let mut per_shard = [0usize; 4];
    let mut i = 0;
    while per_shard.iter().any(|&c| c < 2) {
        let name = format!("lb-{i}");
        let s = svc.shard_of(&name);
        if per_shard[s] < 2 {
            per_shard[s] += 1;
            names.push(name);
        }
        i += 1;
    }
    for name in &names {
        svc.open_session(name, &wasm).unwrap();
    }
    let handles: Vec<_> = names
        .iter()
        .map(|name| {
            let svc = Arc::clone(&svc);
            let name = name.clone();
            std::thread::spawn(move || {
                for k in 0..8 {
                    svc.invoke(&name, "run", &[Value::I32(k)]).expect("call");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let stats = svc.shard_stats();
    assert_eq!(stats.len(), 4);
    for (s, st) in stats.iter().enumerate() {
        assert_eq!(st.sessions, 2, "shard {s} session count");
        assert_eq!(st.invocations, 16, "shard {s} served its own sessions");
        assert!(st.busy_ns > 0, "shard {s} did work");
    }
}

// ---------------------------------------------------------------------
// Trusted-clock watermark monotonicity (ISSUE 5 satellite)
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The §IV-C monotonicity guard under concurrency: for any host-clock
    /// sample sequences (including stalled and *rewinding* host clocks),
    /// every thread sharing one watermark observes strictly increasing
    /// trusted time, and the final watermark dominates every value handed
    /// out. The old `Rc<Cell<u64>>` load-then-store guard violated this
    /// as soon as two shards raced it.
    #[test]
    fn watermark_monotonic_under_concurrency(
        times in proptest::collection::vec(0u64..1_000, 4..48),
        threads in 2usize..5,
    ) {
        let watermark = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let watermark = Arc::clone(&watermark);
                let times = times.clone();
                std::thread::spawn(move || {
                    let mut seen = Vec::with_capacity(times.len());
                    for (k, &h) in times.iter().enumerate() {
                        // Skew each thread's host samples so they disagree.
                        seen.push(advance_watermark(&watermark, h + (t as u64) * (k as u64 % 3)));
                    }
                    seen
                })
            })
            .collect();
        let mut all = Vec::new();
        for h in handles {
            let seen = h.join().expect("thread");
            prop_assert!(
                seen.windows(2).all(|w| w[0] < w[1]),
                "per-thread observations must be strictly increasing: {seen:?}"
            );
            all.extend(seen);
        }
        let final_mark = watermark.load(std::sync::atomic::Ordering::Relaxed);
        prop_assert!(all.iter().all(|&v| v <= final_mark));
        // Values handed out are unique across all threads (each CAS win
        // moves the watermark strictly up).
        all.sort_unstable();
        let len_before = all.len();
        all.dedup();
        prop_assert_eq!(all.len(), len_before, "no two observers share a tick");
    }
}
