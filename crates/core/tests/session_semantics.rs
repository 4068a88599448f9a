//! Differential tests of the session layer (DESIGN.md §7): a *warm*
//! invocation on a persistent session must be observably identical — same
//! results, same traps, same per-class meter counts — to a *cold* one-shot
//! run of the same export, and a pooled/reset instance must be
//! indistinguishable from a freshly instantiated one.
//!
//! Follows the differential style of
//! `crates/wasm/tests/tier_differential.rs`: diverse guest programs ×
//! proptest-driven inputs, comparing every observable.

use std::sync::Arc;

use proptest::prelude::*;

use twine_core::{FsChoice, RunReport, TwineBuilder, TwineError};
use twine_wasm::encode::encode;
use twine_wasm::instr::{IBinOp, Instr, IntWidth, LoadKind, MemArg, StoreKind};
use twine_wasm::meter::InstrClass;
use twine_wasm::types::{FuncType, Limits, ValType, Value};
use twine_wasm::{Meter, ModuleBuilder, Trap};

/// A MiniC guest with several shapes of compute: branchy integer loops,
/// floating point via libm imports, and a division that traps when the
/// divisor is zero.
const GUEST_SRC: &str = r"
    int mix(int a, int b) {
        int acc = 7;
        for (int i = 0; i < a % 31 + 16; i += 1) {
            if (i % 2 == 0) { acc = acc * 3 + b; } else { acc = acc - i; }
        }
        return acc;
    }
    double smooth(int n) {
        double s = 0.0;
        for (int i = 1; i <= n % 15 + 16; i += 1) { s += exp(1.0 / i); }
        return s;
    }
    int divide(int a, int b) { return a / b; }
";

fn guest_wasm() -> Vec<u8> {
    twine_minicc::compile_to_bytes(GUEST_SRC).expect("minicc compile")
}

fn assert_meters_equal(a: &Meter, b: &Meter, what: &str) {
    for c in InstrClass::all() {
        assert_eq!(a.count(c), b.count(c), "{what}: class {c:?} diverged");
    }
    assert_eq!(a.bytes_accessed, b.bytes_accessed, "{what}: bytes_accessed");
    assert_eq!(a.page_transitions, b.page_transitions, "{what}: page_transitions");
}

/// Cold reference: a fresh enclave + runtime per call (the paper's
/// one-shot embedding).
fn cold_run(wasm: &[u8], func: &str, args: &[Value]) -> Result<(RunReport, Vec<Value>), TwineError> {
    let mut twine = TwineBuilder::new().fs(FsChoice::ProtectedInMemory).build();
    let app = twine.load_wasm(wasm).unwrap();
    twine.invoke_with_report(&app, func, args)
}

fn assert_warm_equals_cold(func: &str, args: &[Value]) {
    let wasm = guest_wasm();
    let mut svc = TwineBuilder::new().fs(FsChoice::ProtectedInMemory).build_service();
    svc.open_session("s", &wasm).unwrap();
    // Warm the session with an unrelated call first, so `func` really runs
    // on a reused instance.
    let _ = svc.invoke("s", "mix", &[Value::I32(1), Value::I32(2)]);

    let warm = svc.invoke_with_report("s", func, args);
    let cold = cold_run(&wasm, func, args);
    match (warm, cold) {
        (Ok((wr, wv)), Ok((cr, cv))) => {
            assert_eq!(wv, cv, "results diverged for {func}{args:?}");
            assert_meters_equal(&wr.meter, &cr.meter, func);
            assert_eq!(wr.exit_code, cr.exit_code);
            assert_eq!(wr.stdout, cr.stdout);
            assert_eq!(wr.wasi_calls, cr.wasi_calls);
        }
        (Err(TwineError::Trap(wt)), Err(TwineError::Trap(ct))) => {
            assert_eq!(wt, ct, "traps diverged for {func}{args:?}");
        }
        (w, c) => panic!(
            "warm/cold outcome shapes diverged for {func}{args:?}: warm ok={}, cold ok={}",
            w.is_ok(),
            c.is_ok()
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Integer compute: warm session invocations are bit-identical to cold
    /// one-shot runs, for results and per-class meters alike.
    #[test]
    fn warm_equals_cold_mix(a in any::<i32>(), b in any::<i32>()) {
        assert_warm_equals_cold("mix", &[Value::I32(a), Value::I32(b)]);
    }

    /// Floating point through the shared libm host functions.
    #[test]
    fn warm_equals_cold_smooth(n in any::<i32>()) {
        assert_warm_equals_cold("smooth", &[Value::I32(n)]);
    }

    /// Traps (including division by zero when b == 0) must be identical
    /// between a warm session and a cold run.
    #[test]
    fn warm_equals_cold_divide(a in any::<i32>(), b in -2i32..3) {
        assert_warm_equals_cold("divide", &[Value::I32(a), Value::I32(b)]);
    }
}

/// A hand-built stateful module: `bump()` increments a mutable global and a
/// memory cell, returning the global — so instance-state reuse vs reset is
/// directly observable.
fn stateful_wasm() -> Vec<u8> {
    let mut b = ModuleBuilder::new();
    b.memory(Limits::at_least(1));
    b.add_data(64, b"seed".to_vec());
    let g = b.add_global(ValType::I32, true, Value::I32(0));
    let f = b.add_func(
        FuncType::new(vec![], vec![ValType::I32]),
        vec![],
        vec![
            Instr::GlobalGet(g),
            Instr::Const(Value::I32(1)),
            Instr::IBinop(IntWidth::W32, IBinOp::Add),
            Instr::GlobalSet(g),
            Instr::Const(Value::I32(0)),
            Instr::Const(Value::I32(0)),
            Instr::Load(LoadKind::I32, MemArg { offset: 0, align: 2 }),
            Instr::Const(Value::I32(1)),
            Instr::IBinop(IntWidth::W32, IBinOp::Add),
            Instr::Store(StoreKind::I32, MemArg { offset: 0, align: 2 }),
            Instr::GlobalGet(g),
        ],
    );
    b.export_func("bump", f);
    encode(&b.build())
}

#[test]
fn tenant_state_persists_across_warm_invocations() {
    let mut svc = TwineBuilder::new().build_service();
    svc.open_session("s", &stateful_wasm()).unwrap();
    for expect in 1..=4 {
        let r = svc.invoke("s", "bump", &[]).unwrap();
        assert_eq!(r[0], Value::I32(expect), "globals/memory persist when warm");
    }
}

#[test]
fn reset_session_is_indistinguishable_from_fresh() {
    let wasm = stateful_wasm();
    let mut svc = TwineBuilder::new().build_service();
    svc.open_session("s", &wasm).unwrap();

    // Record the fresh session's first-invocation observables.
    let (fresh_report, fresh_values) = svc.invoke_with_report("s", "bump", &[]).unwrap();

    // Dirty the session, then recycle it.
    for _ in 0..3 {
        svc.invoke("s", "bump", &[]).unwrap();
    }
    svc.reset_session("s").unwrap();

    let (reset_report, reset_values) = svc.invoke_with_report("s", "bump", &[]).unwrap();
    assert_eq!(reset_values, fresh_values, "pooled/reset instance must look fresh");
    assert_meters_equal(&reset_report.meter, &fresh_report.meter, "reset-vs-fresh");

    // And a brand-new session over the same cached module agrees too.
    svc.open_session("s2", &wasm).unwrap();
    let (s2_report, s2_values) = svc.invoke_with_report("s2", "bump", &[]).unwrap();
    assert_eq!(s2_values, fresh_values);
    assert_meters_equal(&s2_report.meter, &fresh_report.meter, "new-session-vs-fresh");
}

#[test]
fn sessions_share_one_cached_module() {
    let wasm = guest_wasm();
    let mut svc = TwineBuilder::new().build_service();
    let a = svc.open_session("a", &wasm).unwrap();
    assert!(!a.cache_hit, "first open compiles");
    let b = svc.open_session("b", &wasm).unwrap();
    assert!(b.cache_hit, "second open reuses the cache");

    assert_eq!(svc.session_count(), 2);
    assert_eq!(svc.module_cache().len(), 1, "one compiled module for two sessions");
    assert_eq!(svc.module_cache().hits(), 1);
    assert_eq!(svc.module_cache().misses(), 1);
    let ma = svc.session_module("a").unwrap();
    let mb = svc.session_module("b").unwrap();
    assert!(Arc::ptr_eq(ma, mb), "both sessions share one Arc<CompiledModule>");
    assert_eq!(
        svc.session_stats("a").unwrap().module_key,
        svc.session_stats("b").unwrap().module_key,
    );
    assert_ne!(
        svc.session_stats("a").unwrap().epc_base_page,
        svc.session_stats("b").unwrap().epc_base_page,
        "tenants never alias EPC pages"
    );

    // Interleaved invocations stay isolated per tenant.
    let ra = svc.invoke("a", "mix", &[Value::I32(5), Value::I32(6)]).unwrap();
    let rb = svc.invoke("b", "mix", &[Value::I32(5), Value::I32(6)]).unwrap();
    assert_eq!(ra, rb, "identical inputs, identical outputs, separate tenants");

    // A different module widens the cache.
    svc.open_session("c", &stateful_wasm()).unwrap();
    assert_eq!(svc.module_cache().len(), 2);
}

/// A module with a *start function* (runs at instantiation, not as part of
/// any invocation): warm and cold reports must still agree, i.e. neither
/// path may leak instantiation metering into an invocation's meter.
fn start_bearing_wasm() -> Vec<u8> {
    let mut b = ModuleBuilder::new();
    b.memory(Limits::at_least(1));
    let g = b.add_global(ValType::I32, true, Value::I32(0));
    // start: g = 20 + 22 (a few metered instructions at instantiation time)
    let start = b.add_func(
        FuncType::new(vec![], vec![]),
        vec![],
        vec![
            Instr::Const(Value::I32(20)),
            Instr::Const(Value::I32(22)),
            Instr::IBinop(IntWidth::W32, IBinOp::Add),
            Instr::GlobalSet(g),
        ],
    );
    b.start(start);
    let f = b.add_func(
        FuncType::new(vec![], vec![ValType::I32]),
        vec![],
        vec![Instr::GlobalGet(g)],
    );
    b.export_func("answer", f);
    encode(&b.build())
}

#[test]
fn start_function_metering_stays_out_of_invocation_reports() {
    let wasm = start_bearing_wasm();

    let mut twine = TwineBuilder::new().build();
    let app = twine.load_wasm(&wasm).unwrap();
    let (cold_report, cold_values) = twine.invoke_with_report(&app, "answer", &[]).unwrap();
    assert_eq!(cold_values[0], Value::I32(42), "start function ran");

    let mut svc = TwineBuilder::new().build_service();
    svc.open_session("s", &wasm).unwrap();
    let (warm_report, warm_values) = svc.invoke_with_report("s", "answer", &[]).unwrap();
    assert_eq!(warm_values, cold_values);
    assert_meters_equal(&warm_report.meter, &cold_report.meter, "start-bearing module");

    // And the snapshot captured the post-start state, so a reset session
    // still sees the start function's effects without re-running it.
    svc.reset_session("s").unwrap();
    assert_eq!(svc.invoke("s", "answer", &[]).unwrap()[0], Value::I32(42));
}

#[test]
fn cache_eviction_reclaims_orphaned_modules() {
    let mut svc = TwineBuilder::new().build_service();
    svc.open_session("a", &guest_wasm()).unwrap();
    svc.open_session("b", &stateful_wasm()).unwrap();
    assert_eq!(svc.module_cache().len(), 2);

    // While sessions are alive, nothing is evictable.
    assert_eq!(svc.module_cache().evict_unreferenced(), 0);

    svc.close_session("b");
    assert_eq!(svc.module_cache().len(), 2, "close keeps the cache warm");
    assert_eq!(svc.module_cache().evict_unreferenced(), 1);
    assert_eq!(svc.module_cache().len(), 1, "orphaned module reclaimed");

    // The survivor still serves new sessions from cache.
    let stats = svc.open_session("a2", &guest_wasm()).unwrap();
    assert!(stats.cache_hit);
}

#[test]
fn session_errors_are_reported() {
    let mut svc = TwineBuilder::new().build_service();
    svc.open_session("dup", &stateful_wasm()).unwrap();
    assert!(matches!(
        svc.open_session("dup", &stateful_wasm()),
        Err(TwineError::Session(_))
    ));
    assert!(matches!(
        svc.invoke("ghost", "bump", &[]),
        Err(TwineError::Session(_))
    ));
    assert!(matches!(svc.reset_session("ghost"), Err(TwineError::Session(_))));
    assert!(svc.close_session("ghost").is_none());
    assert!(svc.close_session("dup").is_some(), "close returns the backend");
    assert_eq!(svc.session_count(), 0);
}

#[test]
fn per_session_fuel_budgets() {
    let mut svc = TwineBuilder::new().build_service();
    let wasm = guest_wasm();
    svc.open_session("small", &wasm).unwrap();
    svc.open_session("big", &wasm).unwrap();
    svc.set_session_fuel("small", Some(10)).unwrap();

    let args = [Value::I32(31), Value::I32(1)];
    match svc.invoke("small", "mix", &args) {
        Err(TwineError::Trap(Trap::OutOfFuel)) => {}
        other => panic!("expected out-of-fuel, got {other:?}"),
    }
    svc.invoke("big", "mix", &args).expect("unlimited tenant unaffected");
    // The budget refills per invocation and is per-session, not global.
    match svc.invoke("small", "mix", &args) {
        Err(TwineError::Trap(Trap::OutOfFuel)) => {}
        other => panic!("expected out-of-fuel again, got {other:?}"),
    }
    svc.set_session_fuel("small", None).unwrap();
    svc.invoke("small", "mix", &args).expect("lifted budget");
}

#[test]
fn trusted_clock_watermark_persists_across_invocations() {
    // A guest that calls clock_time_get twice and returns the two samples'
    // difference sign; here we only need the watermark side effect.
    let mut b = ModuleBuilder::new();
    let clock = b.import_func(
        "wasi_snapshot_preview1",
        "clock_time_get",
        FuncType::new(vec![ValType::I32, ValType::I64, ValType::I32], vec![ValType::I32]),
    );
    b.memory(Limits::at_least(1));
    let f = b.add_func(
        FuncType::new(vec![], vec![ValType::I32]),
        vec![],
        vec![
            Instr::Const(Value::I32(0)),
            Instr::Const(Value::I64(0)),
            Instr::Const(Value::I32(16)),
            Instr::Call(clock),
        ],
    );
    b.export_func("sample", f);
    let wasm = encode(&b.build());

    let mut svc = TwineBuilder::new().build_service();
    svc.open_session("s", &wasm).unwrap();
    assert_eq!(svc.session_clock_watermark("s"), Some(0), "no reads yet");
    svc.invoke("s", "sample", &[]).unwrap();
    let w1 = svc.session_clock_watermark("s").unwrap();
    assert!(w1 > 0);
    svc.invoke("s", "sample", &[]).unwrap();
    let w2 = svc.session_clock_watermark("s").unwrap();
    assert!(w2 > w1, "watermark advances monotonically across invocations");
    // The watermark survives a pool recycle (monotonicity is a security
    // property, not per-run state).
    svc.reset_session("s").unwrap();
    assert_eq!(svc.session_clock_watermark("s"), Some(w2));
}

#[test]
fn bad_invoke_leaves_tenant_state_untouched() {
    // A caller-side mistake (typo'd export, wrong arity, wrong types) is
    // rejected before any guest code runs: it must neither wipe the
    // tenant's persistent state nor count as a served invocation.
    let mut svc = TwineBuilder::new().build_service();
    svc.open_session("s", &stateful_wasm()).unwrap();
    for expect in 1..=3 {
        assert_eq!(svc.invoke("s", "bump", &[]).unwrap()[0], Value::I32(expect));
    }

    for (func, args) in [
        ("bmup", vec![]),                    // typo'd export
        ("bump", vec![Value::I32(1)]),       // wrong arity
    ] {
        match svc.invoke("s", func, &args) {
            Err(TwineError::Trap(Trap::BadInvoke(_))) => {}
            other => panic!("expected BadInvoke, got {other:?}"),
        }
    }

    assert_eq!(
        svc.invoke("s", "bump", &[]).unwrap()[0],
        Value::I32(4),
        "tenant state survived the rejected calls"
    );
    assert_eq!(
        svc.session_stats("s").unwrap().invocations,
        4,
        "rejected calls are not counted as served"
    );
}

#[test]
fn start_functions_cannot_run_unmetered_at_open() {
    // A malicious tenant hides an infinite loop in the start function; a
    // fuelled service must refuse the session instead of hanging.
    let mut b = ModuleBuilder::new();
    let s = b.add_func(
        FuncType::new(vec![], vec![]),
        vec![],
        vec![Instr::Loop(
            twine_wasm::instr::BlockType::Empty,
            vec![Instr::Br(0)],
        )],
    );
    b.start(s);
    let wasm = encode(&b.build());

    let mut svc = TwineBuilder::new().fuel(10_000).build_service();
    match svc.open_session("evil", &wasm) {
        Err(TwineError::Module(_)) => {}
        other => panic!("expected instantiation failure, got {other:?}"),
    }
    assert_eq!(svc.session_count(), 0);
    assert_eq!(
        svc.module_cache().len(),
        0,
        "a failed open must not leave an orphaned cache entry"
    );

    // The service keeps serving well-behaved tenants afterwards.
    svc.open_session("good", &stateful_wasm()).unwrap();
    assert_eq!(svc.invoke("good", "bump", &[]).unwrap()[0], Value::I32(1));
}

/// A module whose start function sets a global, grows memory to two pages
/// and writes into both: its post-instantiation state cannot be rebuilt
/// from the module alone, so every park of it must carry all its pages.
/// `bump` mutates a global and cells in three 4 KiB pages; `glob` and
/// `mem` read the state back.
fn start_grown_wasm() -> Vec<u8> {
    let store = |addr: i32, value: Vec<Instr>| {
        let mut v = vec![Instr::Const(Value::I32(addr))];
        v.extend(value);
        v.push(Instr::Store(StoreKind::I32, MemArg { offset: 0, align: 2 }));
        v
    };
    let load = |addr: Instr| vec![addr, Instr::Load(LoadKind::I32, MemArg { offset: 0, align: 2 })];
    let mut b = ModuleBuilder::new();
    b.memory(Limits::at_least(1));
    let g = b.add_global(ValType::I32, true, Value::I32(0));
    let mut start = vec![
        Instr::Const(Value::I32(42)),
        Instr::GlobalSet(g),
        Instr::Const(Value::I32(1)),
        Instr::MemoryGrow,
        Instr::Drop,
    ];
    start.extend(store(0, vec![Instr::Const(Value::I32(1000))]));
    start.extend(store(70_000, vec![Instr::Const(Value::I32(5))]));
    let start = b.add_func(FuncType::new(vec![], vec![]), vec![], start);
    b.start(start);

    let mut bump = vec![
        Instr::GlobalGet(g),
        Instr::Const(Value::I32(1)),
        Instr::IBinop(IntWidth::W32, IBinOp::Add),
        Instr::GlobalSet(g),
    ];
    let mut acc = load(Instr::Const(Value::I32(0)));
    acc.extend([
        Instr::GlobalGet(g),
        Instr::Const(Value::I32(7)),
        Instr::IBinop(IntWidth::W32, IBinOp::Mul),
        Instr::IBinop(IntWidth::W32, IBinOp::Add),
    ]);
    bump.extend(store(0, acc));
    bump.extend(store(40_000, vec![Instr::GlobalGet(g)]));
    bump.push(Instr::GlobalGet(g));
    let i32_out = || FuncType::new(vec![], vec![ValType::I32]);
    let f = b.add_func(i32_out(), vec![], bump);
    b.export_func("bump", f);
    let f = b.add_func(i32_out(), vec![], vec![Instr::GlobalGet(g)]);
    b.export_func("glob", f);
    let f = b.add_func(
        FuncType::new(vec![ValType::I32], vec![ValType::I32]),
        vec![],
        load(Instr::LocalGet(0)),
    );
    b.export_func("mem", f);
    encode(&b.build())
}

/// Everything a tenant of [`start_grown_wasm`] can observe: the global
/// and the cells the start function and `bump` write.
fn start_grown_state(svc: &mut twine_core::TwineService, name: &str) -> Vec<Value> {
    let mut out = svc.invoke(name, "glob", &[]).expect("glob");
    for addr in [0, 40_000, 70_000] {
        out.extend(svc.invoke(name, "mem", &[Value::I32(addr)]).expect("mem"));
    }
    out
}

/// A start-function module parks, restores warm and recovers from a
/// durable park after a crash, with or without a pool, and after every
/// step its memory, globals and results equal a twin that never parked.
/// Its parks carry every page: each seals at least the whole memory.
#[test]
fn start_function_session_parks_restores_and_recovers_like_a_twin() {
    use twine_core::{ControlPlane, DurableParkStore};
    use twine_sgx::Processor;

    const MEMORY: u64 = 2 * 65_536;
    let wasm = start_grown_wasm();
    for pool in [None, Some(2)] {
        let store = DurableParkStore::new();
        let processor = Processor::new(11);
        let build = || {
            TwineBuilder::new()
                .processor(processor.clone())
                .control_plane(ControlPlane {
                    durable_parks: Some(store.clone()),
                    pool_slots_per_module: pool,
                    ..ControlPlane::default()
                })
                .build_service()
        };
        let mut twin = TwineBuilder::new().build_service();
        twin.open_session("s", &wasm).unwrap();
        let mut svc = build();
        svc.open_session("s", &wasm).unwrap();
        let park = |svc: &mut twine_core::TwineService| {
            let before = svc.control_stats();
            svc.park_session("s").expect("park");
            let after = svc.control_stats();
            assert_eq!(after.parks, before.parks + 1);
            assert!(
                after.sealed_bytes - before.sealed_bytes >= MEMORY,
                "{pool:?}: a start-function park carries every page: {after:?}"
            );
        };

        let mut step = |svc: &mut twine_core::TwineService, what: &str| {
            for _ in 0..3 {
                assert_eq!(
                    svc.invoke("s", "bump", &[]).expect("bump"),
                    twin.invoke("s", "bump", &[]).expect("twin bump"),
                    "{pool:?}: {what}"
                );
            }
            assert_eq!(
                start_grown_state(svc, "s"),
                start_grown_state(&mut twin, "s"),
                "{pool:?}: {what}"
            );
        };
        step(&mut svc, "before any park");
        assert_eq!(start_grown_state(&mut svc, "s")[3], Value::I32(5), "start ran");

        park(&mut svc);
        step(&mut svc, "after a warm restore");

        park(&mut svc);
        drop(svc);
        let mut revived = build();
        assert_eq!(revived.recover().expect("recover"), vec!["s".to_string()]);
        step(&mut revived, "after crash recovery");
        park(&mut revived);
        step(&mut revived, "after a park of the recovered session");
    }
}
