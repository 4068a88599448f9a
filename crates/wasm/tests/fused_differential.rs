//! Differential property tests for the fusion windows (`twine_wasm::lower`).
//!
//! The register tier's compile pass cuts each function's compiled ops into
//! fusion windows and emits one register op per window. The windows'
//! contract — fusion may only change dispatch cost, never anything the
//! virtual-time methodology (DESIGN.md §4) can see — is therefore checked
//! in two halves on randomly generated straight-line and loop-bearing
//! modules:
//!
//! * statically, on the register code's per-op costs: they replay the
//!   compiled function's metering-class stream verbatim and in order, no
//!   branch lands inside a window, only a window's last constituent may
//!   trap, and every register op has exactly one cost;
//! * dynamically, through the tier built from it: the register tier is
//!   observably identical to the reference interpreter — same results,
//!   traps, metered class counts, bytes/page accounting and fuel.

use std::sync::Arc;

use proptest::prelude::*;

use twine_wasm::compile::{CompiledFunc, Op};
use twine_wasm::instr::{BlockType, IBinOp, IRelOp, Instr, IntWidth, LoadKind, MemArg, StoreKind};
use twine_wasm::lower::{ibinop_traps, ExecTier};
use twine_wasm::meter::InstrClass;
use twine_wasm::types::{FuncType, Limits, ValType, Value};
use twine_wasm::{CompiledModule, Instance, Linker, Meter, ModuleBuilder, Trap};

const N_LOCALS: u32 = 4;

/// Build a stack-safe straight-line i32 body from raw choice pairs. The
/// generator tracks the operand depth so every emitted sequence validates;
/// selectors that are invalid at the current depth are skipped. Writes go
/// to locals `min_writable..N_LOCALS` so a surrounding loop can protect its
/// counter (local 0) from being clobbered.
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
                // Masked in-bounds load: `top & 0xFFF0` stays a valid i32
                // address within the single 64 KiB page.
                body.push(Instr::Const(Value::I32(0xFFF0)));
                body.push(Instr::IBinop(IntWidth::W32, IBinOp::And));
                body.push(Instr::Load(LoadKind::I32, MemArg::offset(v as u32 % 8)));
            }
            12 if depth >= 1 => {
                // Store the top of stack at a masked address: spill the
                // value to a scratch local, push address, push value back.
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

/// Wrap a net-zero body in a counted loop: `l0 = n; do { body; l0 -= 1 }
/// while (l0 > 0)`, exercising the fused loop step and latch forms.
fn counted_loop(n: i32, inner: Vec<Instr>, eqz_latch: bool) -> Vec<Instr> {
    let mut loop_body = inner;
    loop_body.push(Instr::LocalGet(0));
    loop_body.push(Instr::Const(Value::I32(1)));
    loop_body.push(Instr::IBinop(IntWidth::W32, IBinOp::Sub));
    loop_body.push(Instr::LocalSet(0));
    loop_body.push(Instr::LocalGet(0));
    if eqz_latch {
        // `eqz; br_if 1` exits the enclosing block — MiniC's `while` shape.
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

/// Every op index some branch or jump of `f` lands on.
fn branch_targets(f: &CompiledFunc) -> Vec<u32> {
    let mut t = Vec::new();
    for op in &f.ops {
        match op {
            Op::Br(bt) | Op::BrIf(bt) => t.push(bt.target),
            Op::BrTable(table) => t.extend(table.iter().map(|bt| bt.target)),
            Op::Jump(to) | Op::JumpIfZero(to) => t.push(*to),
            _ => {}
        }
    }
    t
}

/// Can this compiled op trap (as opposed to only touching the operand
/// stack and locals)?
fn may_trap(op: &Op) -> bool {
    match op {
        Op::IBinop(_, b) => ibinop_traps(*b),
        Op::Load(..) | Op::Store(..) | Op::Unreachable => true,
        _ => false,
    }
}

/// Assert the fusion windows' static contract on every function of `code`,
/// which must be compiled for the register tier.
fn assert_fusion_conserves(code: &CompiledModule) {
    assert_eq!(code.tier, ExecTier::Reg);
    assert_eq!(code.reg.len(), code.funcs.len());
    for (f, rf) in code.funcs.iter().zip(&code.reg) {
        assert_eq!(rf.ops.len(), rf.costs.len(), "one cost per register op");
        assert!(rf.ops.len() <= f.ops.len(), "fusion grew the code");
        let covered: usize = rf.costs.iter().map(|c| c.len as usize).sum();
        assert_eq!(covered, f.ops.len(), "constituents not conserved");

        // The window costs, concatenated, are the compiled class stream.
        let replay: Vec<InstrClass> = rf
            .costs
            .iter()
            .flat_map(|c| c.classes[..c.len as usize].iter().copied())
            .collect();
        assert_eq!(replay, f.classes, "fused metering stream diverged");

        // Windows: no branch lands inside one, and only the last
        // constituent may trap.
        let targets = branch_targets(f);
        let mut start = 0usize;
        for c in &rf.costs {
            let end = start + c.len as usize;
            for pc in start + 1..end {
                assert!(
                    !targets.contains(&(pc as u32)),
                    "branch into the interior of fused window {start}..{end}"
                );
            }
            for op in &f.ops[start..end - 1] {
                assert!(!may_trap(op), "{op:?} fused before the end of {start}..{end}");
            }
            start = end;
        }
    }
}

struct TierRun {
    result: Result<Vec<Value>, Trap>,
    meter: Meter,
    fuel_left: Option<u64>,
}

fn run_code(code: Arc<CompiledModule>, fuel: Option<u64>) -> TierRun {
    let mut inst = Instance::instantiate(code, Linker::new(), Box::new(())).expect("instantiate");
    inst.fuel = fuel;
    let result = inst.invoke("f", &[]);
    TierRun {
        result,
        meter: inst.meter.clone(),
        fuel_left: inst.fuel,
    }
}

/// Assert the fusion contract statically, then assert the register tier —
/// the executor built from the windows — is observably identical to the
/// reference interpreter on `module`.
fn assert_tiers_agree(module: &twine_wasm::Module, fuel: Option<u64>) {
    let reg_code = module
        .clone()
        .into_compiled_tier(ExecTier::Reg)
        .expect("validated module");
    assert_fusion_conserves(&reg_code);
    let base_code = module
        .clone()
        .into_compiled_tier(ExecTier::Baseline)
        .expect("validated module");
    let base = run_code(Arc::new(base_code), fuel);
    let reg = run_code(Arc::new(reg_code), fuel);
    assert_eq!(base.result, reg.result, "results/traps diverged");
    for c in InstrClass::all() {
        assert_eq!(
            base.meter.count(c),
            reg.meter.count(c),
            "metered count diverged for class {c:?}"
        );
    }
    assert_eq!(base.meter.total(), reg.meter.total());
    assert_eq!(base.meter.bytes_accessed, reg.meter.bytes_accessed);
    assert_eq!(base.meter.page_transitions, reg.meter.page_transitions);
    assert_eq!(base.fuel_left, reg.fuel_left, "fuel accounting diverged");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

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
    /// point and the partially-metered stream must match exactly.
    #[test]
    fn straightline_tiers_agree_under_fuel(
        choices in proptest::collection::vec((any::<u8>(), any::<i32>()), 0..60),
        fuel in 0u64..120
    ) {
        let module = build_module(straightline_from(&choices, 0));
        assert_tiers_agree(&module, Some(fuel));
    }

    /// Loop-bearing programs with both latch shapes (`cmp; br_if` and
    /// `eqz; br_if`), wrapping a random net-zero straight-line body.
    #[test]
    fn loops_tiers_agree(
        n in 1i32..24,
        choices in proptest::collection::vec((any::<u8>(), any::<i32>()), 0..24),
        eqz_latch in any::<bool>()
    ) {
        // The loop counter (local 0) stays out of the body's reach so the
        // loop terminates.
        let module = build_module(counted_loop(n, straightline_from(&choices, 1), eqz_latch));
        assert_tiers_agree(&module, None);
    }

    /// Fuelled loops: exhaustion strikes mid-loop, often inside a fused
    /// window.
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
}
