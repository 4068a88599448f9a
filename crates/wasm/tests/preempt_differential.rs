//! Preemption differential property tests (control plane, DESIGN.md §10):
//! the per-invocation **deadline** rides the fuel machinery, so a
//! deadline-preempted invocation must leave *bit-identical* state — trap
//! kind, per-class meters, memory/globals image, fuel and deadline
//! remainders — across the Baseline and Reg execution tiers, at
//! **every** deadline below a program's full cost. And because the
//! rollback is exact, an application that persists its progress can be
//! preempted any number of times and still converge to the *same* final
//! state as one uninterrupted run.

use std::sync::Arc;

use proptest::prelude::*;

use twine_wasm::instr::{BlockType, IBinOp, IRelOp, Instr, IntWidth, LoadKind, MemArg, StoreKind};
use twine_wasm::lower::ExecTier;
use twine_wasm::meter::InstrClass;
use twine_wasm::types::{FuncType, Limits, ValType, Value};
use twine_wasm::{Instance, InstanceSnapshot, Linker, Meter, ModuleBuilder, Trap};

const N_LOCALS: u32 = 4;
const ALL_TIERS: [ExecTier; 2] = [ExecTier::Baseline, ExecTier::Reg];

// ---------------------------------------------------------------------
// Generators (same family as tier_differential.rs, kept independent)
// ---------------------------------------------------------------------

/// Build a stack-safe straight-line i32 body from raw choice pairs.
/// Writes go to locals `min_writable..N_LOCALS` so a surrounding loop can
/// protect its counter (local 0).
fn straightline_from(choices: &[(u8, i32)], min_writable: u32) -> Vec<Instr> {
    let wr = |v: i32| min_writable + v as u32 % (N_LOCALS - min_writable);
    let mut body = Vec::new();
    let mut depth = 0usize;
    for &(sel, v) in choices {
        match sel % 12 {
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
            5..=7 if depth >= 2 => {
                let ops = [
                    IBinOp::Add,
                    IBinOp::Sub,
                    IBinOp::Mul,
                    IBinOp::And,
                    IBinOp::Or,
                    IBinOp::Xor,
                ];
                body.push(Instr::IBinop(
                    IntWidth::W32,
                    ops[v as u32 as usize % ops.len()],
                ));
                depth -= 1;
            }
            8 if depth >= 2 => {
                let ops = [IRelOp::Eq, IRelOp::LtS, IRelOp::GtU, IRelOp::LeS];
                body.push(Instr::IRelop(
                    IntWidth::W32,
                    ops[v as u32 as usize % ops.len()],
                ));
                depth -= 1;
            }
            9 if depth >= 1 => {
                body.push(Instr::ITestEqz(IntWidth::W32));
            }
            10 if depth >= 1 => {
                // Masked in-bounds load from the single 64 KiB page.
                body.push(Instr::Const(Value::I32(0xFFF0)));
                body.push(Instr::IBinop(IntWidth::W32, IBinOp::And));
                body.push(Instr::Load(LoadKind::I32, MemArg::offset(v as u32 % 8)));
            }
            11 if depth >= 1 => {
                // Store the top of stack at a masked address.
                body.push(Instr::LocalSet(3));
                body.push(Instr::Const(Value::I32((v & 0xFF0) | 0x100)));
                body.push(Instr::LocalGet(3));
                body.push(Instr::Store(StoreKind::I32, MemArg::offset(0)));
                depth -= 1;
            }
            _ => {}
        }
    }
    for _ in 0..depth {
        body.push(Instr::Drop);
    }
    body
}

/// Wrap a net-zero body in a counted loop.
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

// ---------------------------------------------------------------------
// Differential machinery
// ---------------------------------------------------------------------

/// Everything an observer may see after one budgeted invocation.
#[derive(Debug, PartialEq)]
struct RunState {
    result: Result<Vec<Value>, Trap>,
    meter_total: u64,
    bytes_accessed: u64,
    page_transitions: u64,
    fuel_left: Option<u64>,
    deadline_left: Option<u64>,
    /// Memory + globals + table: the state the control plane would park
    /// right after the trap.
    image: InstanceSnapshot,
}

fn compile_all(module: &twine_wasm::Module) -> Vec<Arc<twine_wasm::compile::CompiledModule>> {
    ALL_TIERS
        .iter()
        .map(|&tier| {
            Arc::new(
                module
                    .clone()
                    .into_compiled_tier(tier)
                    .expect("validated module"),
            )
        })
        .collect()
}

fn run_budgeted(
    code: &Arc<twine_wasm::compile::CompiledModule>,
    fuel: Option<u64>,
    deadline: Option<u64>,
) -> (RunState, Meter) {
    let mut inst =
        Instance::instantiate(Arc::clone(code), Linker::new(), Box::new(())).expect("instantiate");
    inst.fuel = fuel;
    inst.deadline = deadline;
    let result = inst.invoke("f", &[]);
    let meter = inst.meter.clone();
    (
        RunState {
            result,
            meter_total: meter.total(),
            bytes_accessed: meter.bytes_accessed,
            page_transitions: meter.page_transitions,
            fuel_left: inst.fuel,
            deadline_left: inst.deadline,
            image: inst.snapshot(),
        },
        meter,
    )
}

/// Assert both tiers leave identical observable state for the given
/// budgets, and return the baseline state.
fn assert_tiers_agree(
    codes: &[Arc<twine_wasm::compile::CompiledModule>],
    fuel: Option<u64>,
    deadline: Option<u64>,
) -> RunState {
    let (base, base_meter) = run_budgeted(&codes[0], fuel, deadline);
    for (k, code) in codes.iter().enumerate().skip(1) {
        let (other, other_meter) = run_budgeted(code, fuel, deadline);
        assert_eq!(
            base, other,
            "preempted state diverged on {} (fuel {fuel:?}, deadline {deadline:?})",
            ALL_TIERS[k]
        );
        for c in InstrClass::all() {
            assert_eq!(
                base_meter.count(c),
                other_meter.count(c),
                "metered count diverged for class {c:?} on {} (deadline {deadline:?})",
                ALL_TIERS[k]
            );
        }
    }
    base
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Exhaustive deadline sweep: for a random loop-bearing program,
    /// every deadline below the full cost preempts with
    /// `DeadlineExceeded`, leaving bit-identical state across both
    /// tiers — and that state equals the out-of-fuel state at the same
    /// budget (the deadline *is* the fuel machinery, only the trap label
    /// differs). At and above full cost the run completes untouched.
    #[test]
    fn deadline_sweep_tiers_agree(
        n in 1i32..5,
        choices in proptest::collection::vec((any::<u8>(), any::<i32>()), 0..10),
        eqz_latch in any::<bool>()
    ) {
        let module = build_module(counted_loop(n, straightline_from(&choices, 1), eqz_latch));
        let codes = compile_all(&module);
        let (uninterrupted, _) = run_budgeted(&codes[0], None, None);
        let full = uninterrupted.meter_total;
        for d in 0..=(full + 1) {
            let state = assert_tiers_agree(&codes, None, Some(d));
            if d < full {
                prop_assert_eq!(
                    state.result.clone().unwrap_err(), Trap::DeadlineExceeded,
                    "deadline {} below full cost {} must preempt", d, full
                );
                prop_assert_eq!(state.deadline_left, Some(0));
                // Same budget spent through the fuel label: identical
                // partial meters and memory image, different trap kind.
                let fuel_state = assert_tiers_agree(&codes, Some(d), None);
                prop_assert_eq!(fuel_state.result.clone().unwrap_err(), Trap::OutOfFuel);
                prop_assert_eq!(state.meter_total, fuel_state.meter_total);
                prop_assert_eq!(state.bytes_accessed, fuel_state.bytes_accessed);
                prop_assert_eq!(state.page_transitions, fuel_state.page_transitions);
                prop_assert_eq!(&state.image, &fuel_state.image);
            } else {
                prop_assert_eq!(&state.result, &uninterrupted.result);
                prop_assert_eq!(state.meter_total, full);
                prop_assert_eq!(state.deadline_left, Some(d - full));
                prop_assert_eq!(&state.image, &uninterrupted.image);
            }
        }
    }

    /// Fuel × deadline interplay: whichever budget is *strictly* smaller
    /// names the trap (ties go to `OutOfFuel` — the tenant's own budget
    /// takes precedence over scheduler policy), and after any outcome the
    /// two remainders decrement in lockstep by the metered total.
    #[test]
    fn deadline_vs_fuel_tiebreak(
        n in 1i32..5,
        choices in proptest::collection::vec((any::<u8>(), any::<i32>()), 0..10),
        fuel in 0u64..160,
        deadline in 0u64..160
    ) {
        let module = build_module(counted_loop(n, straightline_from(&choices, 1), false));
        let codes = compile_all(&module);
        let full = run_budgeted(&codes[0], None, None).0.meter_total;
        let state = assert_tiers_agree(&codes, Some(fuel), Some(deadline));
        let spent = state.meter_total;
        prop_assert_eq!(state.fuel_left, Some(fuel - spent));
        prop_assert_eq!(state.deadline_left, Some(deadline - spent));
        let min = fuel.min(deadline);
        if min >= full {
            prop_assert!(state.result.is_ok());
            prop_assert_eq!(spent, full);
        } else {
            prop_assert_eq!(spent, min);
            let expect = if deadline < fuel {
                Trap::DeadlineExceeded
            } else {
                Trap::OutOfFuel
            };
            prop_assert_eq!(state.result.clone().unwrap_err(), expect);
        }
    }
}

// ---------------------------------------------------------------------
// Resumption after refill
// ---------------------------------------------------------------------

/// A guest that persists its own progress in memory so a preempted
/// invocation can pick up where it left off. Both the loop index and the
/// accumulator are committed by a *single* i64 store —
/// `(acc << 32) | i` at address 0 — because the deadline rolls back at
/// instruction granularity: two separate stores could be split by a
/// preemption, persisting a half-finished iteration.
fn resumable_module(n: i32) -> twine_wasm::Module {
    use twine_wasm::instr::CvtOp;
    use Instr::*;
    let mut b = ModuleBuilder::new();
    b.memory(Limits::at_least(1));
    let body = vec![
        // i = low32(mem64[0]); acc = high32(mem64[0])
        Const(Value::I32(0)),
        Load(LoadKind::I64, MemArg::offset(0)),
        Cvt(CvtOp::I32WrapI64),
        LocalSet(0),
        Const(Value::I32(0)),
        Load(LoadKind::I64, MemArg::offset(0)),
        Const(Value::I64(32)),
        IBinop(IntWidth::W64, IBinOp::ShrU),
        Cvt(CvtOp::I32WrapI64),
        LocalSet(1),
        Block(
            BlockType::Empty,
            vec![Loop(
                BlockType::Empty,
                vec![
                    // while i < n
                    LocalGet(0),
                    Const(Value::I32(n)),
                    IRelop(IntWidth::W32, IRelOp::LtS),
                    ITestEqz(IntWidth::W32),
                    BrIf(1),
                    // acc = acc * 31 + i
                    LocalGet(1),
                    Const(Value::I32(31)),
                    IBinop(IntWidth::W32, IBinOp::Mul),
                    LocalGet(0),
                    IBinop(IntWidth::W32, IBinOp::Add),
                    LocalSet(1),
                    // i += 1
                    LocalGet(0),
                    Const(Value::I32(1)),
                    IBinop(IntWidth::W32, IBinOp::Add),
                    LocalSet(0),
                    // atomic progress commit: mem64[0] = (acc << 32) | i
                    Const(Value::I32(0)),
                    LocalGet(1),
                    Cvt(CvtOp::I64ExtendI32U),
                    Const(Value::I64(32)),
                    IBinop(IntWidth::W64, IBinOp::Shl),
                    LocalGet(0),
                    Cvt(CvtOp::I64ExtendI32U),
                    IBinop(IntWidth::W64, IBinOp::Or),
                    Store(StoreKind::I64, MemArg::offset(0)),
                    Br(0),
                ],
            )],
        ),
        LocalGet(1),
    ];
    let f = b.add_func(
        FuncType::new(vec![], vec![ValType::I32]),
        vec![ValType::I32; 2],
        body,
    );
    b.export_func("f", f);
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Resumption-after-refill: preempt a progress-persisting guest with
    /// a small deadline, re-arm, repeat until it completes. Every tier
    /// takes the identical sequence of preemptions (same number of
    /// attempts, same intermediate images) and converges to exactly the
    /// uninterrupted run's result and final memory image.
    #[test]
    fn resumption_after_refill_matches_uninterrupted(n in 1i32..20, extra in 0u64..40) {
        let module = resumable_module(n);
        let codes = compile_all(&module);
        let (uninterrupted, _) = run_budgeted(&codes[0], None, None);
        prop_assert!(uninterrupted.result.is_ok());
        // Enough budget to always retire at least one new iteration per
        // attempt (a one-iteration run costs the most per iteration).
        let one_iter = run_budgeted(&compile_all(&resumable_module(1))[0], None, None)
            .0
            .meter_total;
        let deadline = one_iter + extra;

        let mut per_tier: Vec<(usize, Vec<InstanceSnapshot>, Vec<Value>)> = Vec::new();
        for code in &codes {
            let mut inst = Instance::instantiate(Arc::clone(code), Linker::new(), Box::new(()))
                .expect("instantiate");
            let mut images = Vec::new();
            let mut attempts = 0usize;
            let values = loop {
                attempts += 1;
                prop_assert!(attempts <= n as usize + 2, "no forward progress");
                inst.deadline = Some(deadline);
                match inst.invoke("f", &[]) {
                    Ok(v) => break v,
                    Err(Trap::DeadlineExceeded) => {
                        images.push(inst.snapshot());
                    }
                    Err(t) => prop_assert!(false, "unexpected trap {t}"),
                }
            };
            per_tier.push((attempts, images, values));
        }
        for w in per_tier.windows(2) {
            prop_assert_eq!(&w[0], &w[1], "tiers diverged on the preemption path");
        }
        let (_, _, values) = &per_tier[0];
        prop_assert_eq!(values, uninterrupted.result.as_ref().unwrap());
    }
}
