//! Differential property tests: the register-allocated tier must be
//! observably identical to the reference interpreter (the baseline tier) —
//! same results, same traps, same metered instruction-class counts, same
//! bytes/page accounting and same fuel consumption — on randomly generated
//! straight-line and loop-bearing modules, at every fuel budget.
//!
//! This is the executable statement of the register tier's contract
//! (`twine_wasm::regalloc`, DESIGN.md §8): register allocation and
//! block-level fuel batching may only change wall-clock dispatch cost,
//! never anything the virtual-time methodology can see. The fuel sweep in
//! [`out_of_fuel_partial_metering_equivalence`] drives the batched
//! charge through its two cold paths (per-op fallback and mid-region trap
//! rollback) at **every** budget below a program's full cost.

use std::sync::Arc;

use proptest::prelude::*;

use twine_wasm::instr::{BlockType, IBinOp, IRelOp, Instr, IntWidth, LoadKind, MemArg, StoreKind};
use twine_wasm::lower::ExecTier;
use twine_wasm::meter::InstrClass;
use twine_wasm::types::{FuncType, Limits, ValType, Value};
use twine_wasm::{Instance, Linker, Meter, ModuleBuilder, Trap};

const N_LOCALS: u32 = 4;
const ALL_TIERS: [ExecTier; 2] = [ExecTier::Baseline, ExecTier::Reg];

/// Build a stack-safe straight-line i32 body from raw choice pairs. The
/// generator tracks the operand depth so every emitted sequence validates;
/// selectors that are invalid at the current depth are skipped. Writes go
/// to locals `min_writable..N_LOCALS` so a surrounding loop can protect its
/// counter (local 0).
fn straightline_from(choices: &[(u8, i32)], min_writable: u32) -> Vec<Instr> {
    let wr = |v: i32| min_writable + v as u32 % (N_LOCALS - min_writable);
    let mut body = Vec::new();
    let mut depth = 0usize;
    for &(sel, v) in choices {
        match sel % 14 {
            0 | 1 => {
                body.push(Instr::Const(Value::I32(v)));
                depth += 1;
            }
            2 => {
                body.push(Instr::LocalGet(v as u32 % N_LOCALS));
                depth += 1;
            }
            3 if depth >= 1 => {
                body.push(Instr::LocalSet(wr(v)));
                depth -= 1;
            }
            4 if depth >= 1 => {
                body.push(Instr::LocalTee(wr(v)));
            }
            5..=8 if depth >= 2 => {
                let ops = [
                    IBinOp::Add,
                    IBinOp::Sub,
                    IBinOp::Mul,
                    IBinOp::And,
                    IBinOp::Or,
                    IBinOp::Xor,
                    IBinOp::Shl,
                    IBinOp::DivS,
                    IBinOp::RemU,
                ];
                body.push(Instr::IBinop(
                    IntWidth::W32,
                    ops[v as u32 as usize % ops.len()],
                ));
                depth -= 1;
            }
            9 if depth >= 2 => {
                let ops = [IRelOp::Eq, IRelOp::LtS, IRelOp::GtU, IRelOp::LeS];
                body.push(Instr::IRelop(
                    IntWidth::W32,
                    ops[v as u32 as usize % ops.len()],
                ));
                depth -= 1;
            }
            10 if depth >= 1 => {
                body.push(Instr::ITestEqz(IntWidth::W32));
            }
            11 if depth >= 1 => {
                // Masked in-bounds load from the single 64 KiB page.
                body.push(Instr::Const(Value::I32(0xFFF0)));
                body.push(Instr::IBinop(IntWidth::W32, IBinOp::And));
                body.push(Instr::Load(LoadKind::I32, MemArg::offset(v as u32 % 8)));
            }
            12 if depth >= 1 => {
                // Store the top of stack at a masked address.
                body.push(Instr::LocalSet(3));
                body.push(Instr::Const(Value::I32(v & 0xFFF0)));
                body.push(Instr::LocalGet(3));
                body.push(Instr::Store(StoreKind::I32, MemArg::offset(0)));
                depth -= 1;
            }
            13 if depth >= 3 => {
                body.push(Instr::Select);
                depth -= 2;
            }
            _ => {}
        }
    }
    for _ in 0..depth {
        body.push(Instr::Drop);
    }
    body
}

/// Wrap a net-zero body in a counted loop, exercising the register tier's
/// fused loop step and latch forms.
fn counted_loop(n: i32, inner: Vec<Instr>, eqz_latch: bool) -> Vec<Instr> {
    let mut loop_body = inner;
    loop_body.push(Instr::LocalGet(0));
    loop_body.push(Instr::Const(Value::I32(1)));
    loop_body.push(Instr::IBinop(IntWidth::W32, IBinOp::Sub));
    loop_body.push(Instr::LocalSet(0));
    loop_body.push(Instr::LocalGet(0));
    if eqz_latch {
        loop_body.push(Instr::ITestEqz(IntWidth::W32));
        loop_body.push(Instr::BrIf(1));
        loop_body.push(Instr::Br(0));
        vec![
            Instr::Const(Value::I32(n)),
            Instr::LocalSet(0),
            Instr::Block(
                BlockType::Empty,
                vec![Instr::Loop(BlockType::Empty, loop_body)],
            ),
        ]
    } else {
        loop_body.push(Instr::Const(Value::I32(0)));
        loop_body.push(Instr::IRelop(IntWidth::W32, IRelOp::GtS));
        loop_body.push(Instr::BrIf(0));
        vec![
            Instr::Const(Value::I32(n)),
            Instr::LocalSet(0),
            Instr::Loop(BlockType::Empty, loop_body),
        ]
    }
}

fn build_module(body: Vec<Instr>) -> twine_wasm::Module {
    let mut b = ModuleBuilder::new();
    b.memory(Limits::at_least(1));
    let mut full = body;
    full.push(Instr::LocalGet(1)); // result: accumulator local
    let f = b.add_func(
        FuncType::new(vec![], vec![ValType::I32]),
        vec![ValType::I32; N_LOCALS as usize],
        full,
    );
    b.export_func("f", f);
    b.build()
}

struct TierRun {
    result: Result<Vec<Value>, Trap>,
    meter: Meter,
    fuel_left: Option<u64>,
}

fn run_tier(module: &twine_wasm::Module, tier: ExecTier, fuel: Option<u64>) -> TierRun {
    let code = module
        .clone()
        .into_compiled_tier(tier)
        .expect("validated module");
    assert_eq!(code.tier, tier);
    let mut inst =
        Instance::instantiate(Arc::new(code), Linker::new(), Box::new(())).expect("instantiate");
    inst.fuel = fuel;
    let result = inst.invoke("f", &[]);
    TierRun {
        result,
        meter: inst.meter.clone(),
        fuel_left: inst.fuel,
    }
}

/// Assert the register tier is observably identical to the reference
/// interpreter on `module`.
fn assert_tiers_agree(module: &twine_wasm::Module, fuel: Option<u64>) {
    let base = run_tier(module, ExecTier::Baseline, fuel);
    let reg = run_tier(module, ExecTier::Reg, fuel);
    assert_eq!(
        base.result, reg.result,
        "results/traps diverged (fuel {fuel:?})"
    );
    for c in InstrClass::all() {
        assert_eq!(
            base.meter.count(c),
            reg.meter.count(c),
            "metered count diverged for class {c:?} (fuel {fuel:?})"
        );
    }
    assert_eq!(base.meter.total(), reg.meter.total());
    assert_eq!(base.meter.bytes_accessed, reg.meter.bytes_accessed);
    assert_eq!(base.meter.page_transitions, reg.meter.page_transitions);
    assert_eq!(
        base.fuel_left, reg.fuel_left,
        "fuel accounting diverged (budget {fuel:?})"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Straight-line programs: arithmetic (incl. trapping division),
    /// locals, loads, stores, comparisons.
    #[test]
    fn straightline_tiers_agree(
        choices in proptest::collection::vec((any::<u8>(), any::<i32>()), 0..60)
    ) {
        let module = build_module(straightline_from(&choices, 0));
        assert_tiers_agree(&module, None);
    }

    /// The same programs under a tight fuel budget: the out-of-fuel trap
    /// point and the partially-metered stream must match exactly (the
    /// register tier's per-op fallback path).
    #[test]
    fn straightline_tiers_agree_under_fuel(
        choices in proptest::collection::vec((any::<u8>(), any::<i32>()), 0..60),
        fuel in 0u64..120
    ) {
        let module = build_module(straightline_from(&choices, 0));
        assert_tiers_agree(&module, Some(fuel));
    }

    /// Loop-bearing programs with both latch shapes, wrapping a random
    /// net-zero straight-line body.
    #[test]
    fn loops_tiers_agree(
        n in 1i32..24,
        choices in proptest::collection::vec((any::<u8>(), any::<i32>()), 0..24),
        eqz_latch in any::<bool>()
    ) {
        let module = build_module(counted_loop(n, straightline_from(&choices, 1), eqz_latch));
        assert_tiers_agree(&module, None);
    }

    /// Fuelled loops: exhaustion strikes mid-loop, often inside a charged
    /// region of the register tier.
    #[test]
    fn loops_tiers_agree_under_fuel(
        n in 1i32..24,
        choices in proptest::collection::vec((any::<u8>(), any::<i32>()), 0..24),
        eqz_latch in any::<bool>(),
        fuel in 0u64..400
    ) {
        let module = build_module(counted_loop(n, straightline_from(&choices, 1), eqz_latch));
        assert_tiers_agree(&module, Some(fuel));
    }

    /// Exhaustive fuel sweep: for a random loop-bearing program, compute
    /// its full cost, then check tier equivalence at **every** budget
    /// below it (plus the exact budget and one above). Every possible
    /// out-of-fuel stop point — region header, mid-region, loop latch —
    /// is exercised.
    #[test]
    fn out_of_fuel_partial_metering_equivalence(
        n in 1i32..6,
        choices in proptest::collection::vec((any::<u8>(), any::<i32>()), 0..10),
        eqz_latch in any::<bool>()
    ) {
        let module = build_module(counted_loop(n, straightline_from(&choices, 1), eqz_latch));
        let full = run_tier(&module, ExecTier::Baseline, None).meter.total();
        for fuel in 0..=(full + 1) {
            assert_tiers_agree(&module, Some(fuel));
        }
    }
}

/// Deterministic regression: a function call inside a loop, under a fuel
/// sweep — exhaustion can strike at the call op (a region terminator), on
/// frame entry, or inside the callee.
#[test]
fn calls_under_fuel_sweep_agree() {
    let mut b = ModuleBuilder::new();
    b.memory(Limits::at_least(1));
    // callee: add(a, b) = a + b (plus a store so memory metering moves)
    let callee = b.add_func(
        FuncType::new(vec![ValType::I32, ValType::I32], vec![ValType::I32]),
        vec![],
        vec![
            Instr::Const(Value::I32(64)),
            Instr::LocalGet(0),
            Instr::Store(StoreKind::I32, MemArg::offset(0)),
            Instr::LocalGet(0),
            Instr::LocalGet(1),
            Instr::IBinop(IntWidth::W32, IBinOp::Add),
        ],
    );
    // caller: acc = 0; for (i = 4; i > 0; i--) acc = add(acc, i)
    let body = vec![
        Instr::Const(Value::I32(4)),
        Instr::LocalSet(0),
        Instr::Loop(
            BlockType::Empty,
            vec![
                Instr::LocalGet(1),
                Instr::LocalGet(0),
                Instr::Call(callee),
                Instr::LocalSet(1),
                Instr::LocalGet(0),
                Instr::Const(Value::I32(1)),
                Instr::IBinop(IntWidth::W32, IBinOp::Sub),
                Instr::LocalSet(0),
                Instr::LocalGet(0),
                Instr::Const(Value::I32(0)),
                Instr::IRelop(IntWidth::W32, IRelOp::GtS),
                Instr::BrIf(0),
            ],
        ),
        Instr::LocalGet(1),
    ];
    let f = b.add_func(
        FuncType::new(vec![], vec![ValType::I32]),
        vec![ValType::I32; N_LOCALS as usize],
        body,
    );
    b.export_func("f", f);
    let module = b.build();
    let full = run_tier(&module, ExecTier::Baseline, None).meter.total();
    for fuel in 0..=(full + 1) {
        assert_tiers_agree(&module, Some(fuel));
    }
    // Unfuelled: result is 4+3+2+1 = 10 on every tier.
    for tier in ALL_TIERS {
        let run = run_tier(&module, tier, None);
        assert_eq!(run.result, Ok(vec![Value::I32(10)]), "{tier}");
    }
}

/// `acc = 0; for (i = 8; i > 0; i--) acc += i;` then `acc / 0`: every
/// compare-and-branch latch shape the fusion pass recognises, ending in a
/// trapping division after 8+7+…+1 = 36 has been accumulated.
fn sum_then_divide_by_zero() -> twine_wasm::Module {
    build_module(vec![
        Instr::Const(Value::I32(8)),
        Instr::LocalSet(0),
        Instr::Loop(
            BlockType::Empty,
            vec![
                Instr::LocalGet(1),
                Instr::LocalGet(0),
                Instr::IBinop(IntWidth::W32, IBinOp::Add),
                Instr::LocalSet(1),
                Instr::LocalGet(0),
                Instr::Const(Value::I32(1)),
                Instr::IBinop(IntWidth::W32, IBinOp::Sub),
                Instr::LocalSet(0),
                Instr::LocalGet(0),
                Instr::Const(Value::I32(0)),
                Instr::IRelop(IntWidth::W32, IRelOp::GtS),
                Instr::BrIf(0),
            ],
        ),
        Instr::LocalGet(1),
        Instr::Const(Value::I32(0)),
        Instr::IBinop(IntWidth::W32, IBinOp::DivS),
        Instr::Drop,
    ])
}

/// Deterministic regression: the hand-written latch shapes plus a trapping
/// division trap on every tier, at the same architectural point and with
/// the same metered stream.
#[test]
fn latch_and_trap_shapes_agree() {
    let module = sum_then_divide_by_zero();
    for tier in ALL_TIERS {
        let run = run_tier(&module, tier, None);
        assert_eq!(run.result, Err(Trap::DivByZero), "{tier}");
    }
    assert_tiers_agree(&module, None);
}

/// Deterministic regression: a mid-region trap (division by zero) must
/// roll the register tier's batched charge back to exactly the baseline's
/// partially-metered stream — at every fuel budget.
#[test]
fn mid_region_trap_rollback_is_exact() {
    let module = sum_then_divide_by_zero();
    let full = run_tier(&module, ExecTier::Baseline, None).meter.total();
    for fuel in 0..=(full + 1) {
        assert_tiers_agree(&module, Some(fuel));
    }
}

/// The register tier reuses one grow-only frame arena across invocations:
/// repeated warm calls must stay bit-identical to the first (stale slab
/// contents must never leak into locals).
#[test]
fn warm_reinvocation_is_bit_identical() {
    let module = build_module(counted_loop(
        9,
        vec![
            Instr::LocalGet(1),
            Instr::LocalGet(0),
            Instr::IBinop(IntWidth::W32, IBinOp::Add),
            Instr::LocalSet(1),
        ],
        false,
    ));
    let code = module.into_compiled_tier(ExecTier::Reg).expect("compiles");
    let mut inst =
        Instance::instantiate(Arc::new(code), Linker::new(), Box::new(())).expect("instantiate");
    let first = inst.invoke("f", &[]).expect("first run");
    let first_total = inst.meter.total();
    for _ in 0..5 {
        inst.meter.reset();
        let again = inst.invoke("f", &[]).expect("warm run");
        assert_eq!(first, again);
        assert_eq!(inst.meter.total(), first_total);
    }
}
