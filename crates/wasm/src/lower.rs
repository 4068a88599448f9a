//! Fusion windows — the patterns the register allocator folds into one
//! register op.
//!
//! The [`crate::compile`] pass produces linear, jump-resolved [`Op`] code in
//! which every Wasm instruction is still a separate op; the reference
//! interpreter ([`ExecTier::Baseline`]) dispatches it exactly that way. The
//! register tier's one compile pass ([`crate::regalloc`])
//! cuts that stream into *windows* and emits one [`RegOp`] per window.
//! `try_fuse` recognises the short idiomatic sequences that dominate hot
//! loops and emits their superinstruction directly:
//!
//! * `const` + binop, `local.get` + binop and `local.get local.get` binop
//!   triples (operand fetch folded into the ALU op);
//! * `local.get const <binop> local.set` read-modify-write updates
//!   (the ubiquitous `i += 1` loop step);
//! * compare-and-branch loop latches — `local.get const <cmp> [eqz] br_if`
//!   and their `jump-if-zero` (structured `if`) forms;
//! * address/value computations folded into loads and stores.
//!
//! Any other op is a window of one. Branch targets in the emitted ops are
//! still op indices; the pass remaps them to register-op indices once every
//! window is known, so the register code keeps direct jumps with no label
//! search at run time.
//!
//! ## Virtual time is preserved exactly
//!
//! The whole Figure 3 methodology (DESIGN.md §4) prices *metered
//! instruction-class streams*, so fusion must not change what the meter
//! sees. Every window therefore carries an [`OpCost`]: the ordered
//! metering classes of its constituent baseline instructions, taken verbatim
//! from the per-instruction-class table ([`Op::class`]) that `meter.rs`
//! buckets by. Retiring a superinstruction bumps all of its constituent
//! classes and consumes one fuel unit per constituent, so cycle counts,
//! fuel accounting and [`crate::meter::Meter`] totals are bit-identical to
//! the reference interpreter.
//!
//! Fusion windows never extend across a branch target (nothing may jump
//! into the middle of a superinstruction), and an instruction that can trap
//! (integer division, memory access) is only fused as the *last*
//! constituent of a window. Since all earlier constituents of every pattern
//! are free of externally observable effects (they touch only the operand
//! stack and locals, which are discarded when a trap aborts the
//! invocation), a trap or out-of-fuel stop inside a superinstruction is
//! indistinguishable from the reference interpreter's behaviour.

use crate::compile::Op;
use crate::instr::IBinOp;
use crate::meter::InstrClass;
use crate::regalloc::{Frame, RegOp};

/// Which executor runs a compiled module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecTier {
    /// The reference interpreter: dispatches the compiled [`Op`] stream one
    /// op at a time, one metering class and one unit of fuel per op. The
    /// oracle every differential compares the register tier against.
    Baseline,
    /// Register-allocated three-address code (default): the compiled ops'
    /// operand-stack traffic is mapped onto a flat virtual-register frame
    /// by [`crate::regalloc`], and fuel/metering are charged per basic
    /// block instead of per op. Semantics and virtual-time metering stay
    /// bit-identical to the reference interpreter.
    #[default]
    Reg,
}

impl core::fmt::Display for ExecTier {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ExecTier::Baseline => write!(f, "baseline"),
            ExecTier::Reg => write!(f, "reg"),
        }
    }
}

/// Widest fusion window (constituent baseline instructions) the register
/// tier's compile pass folds into one op.
pub const MAX_FUSED_WIDTH: usize = 5;

/// Metering record of one register op: the ordered [`InstrClass`]es of its
/// window's constituent baseline instructions. Retiring the op bumps each
/// class once and consumes `len` fuel, exactly as the reference interpreter
/// would.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpCost {
    /// Constituent classes, in baseline execution order (`classes[..len]`).
    pub classes: [InstrClass; MAX_FUSED_WIDTH],
    /// Number of constituent baseline instructions (1 for an unfused op).
    pub len: u8,
}

impl OpCost {
    /// Cost covering the given ordered class window.
    #[must_use]
    pub fn of(window: &[InstrClass]) -> Self {
        debug_assert!((1..=MAX_FUSED_WIDTH).contains(&window.len()));
        let mut classes = [InstrClass::Simple; MAX_FUSED_WIDTH];
        classes[..window.len()].copy_from_slice(window);
        Self {
            classes,
            len: window.len() as u8,
        }
    }
}

/// Does this integer binop ever trap? Trapping ops may only terminate a
/// fusion window.
#[must_use]
pub fn ibinop_traps(op: IBinOp) -> bool {
    matches!(
        op,
        IBinOp::DivS | IBinOp::DivU | IBinOp::RemS | IBinOp::RemU
    )
}

/// Mark every op index that is the destination of some branch or jump.
pub(crate) fn mark_targets(ops: &[Op]) -> Vec<bool> {
    let mut t = vec![false; ops.len() + 1];
    for op in ops {
        match op {
            Op::Br(bt) | Op::BrIf(bt) => t[bt.target as usize] = true,
            Op::BrTable(table) => {
                for bt in table.iter() {
                    t[bt.target as usize] = true;
                }
            }
            Op::Jump(x) | Op::JumpIfZero(x) => t[*x as usize] = true,
            _ => {}
        }
    }
    t
}

/// Try to fuse a window starting at `pc`. Returns the superinstruction and
/// the number of baseline ops it covers. `avail` is the number of ops from
/// `pc` that may be merged (limited by the next branch target); `at` places
/// the window's operands in the frame. Branch targets stay op indices.
#[allow(clippy::too_many_lines)]
pub(crate) fn try_fuse(ops: &[Op], pc: usize, avail: usize, at: Frame) -> Option<(RegOp, usize)> {
    use Op as O;
    use RegOp as R;
    let win = &ops[pc..pc + avail.min(MAX_FUSED_WIDTH).min(ops.len() - pc)];
    let top = |k| at.top(k);

    // 5-wide: counted-loop exit latches.
    if let &[O::LocalGet(a), O::Const(rhs), O::IRelop(w, op), O::ITestEqz(_), O::BrIf(bt), ..] = win
    {
        let br = at.br(&bt, 0);
        return Some((R::CmpImmBr { w, op, a, rhs, invert: true, br }, 5));
    }
    if let &[O::LocalGet(a), O::LocalGet(b), O::IRelop(w, op), O::ITestEqz(_), O::BrIf(bt), ..] = win
    {
        let br = at.br(&bt, 0);
        return Some((R::CmpBr { w, op, a, b, invert: true, br }, 5));
    }

    // 5-wide: the 2-D array-index idiom `a*K + b`.
    if let &[O::LocalGet(a), O::Const(rhs), O::IBinop(w, op1), O::LocalGet(b), O::IBinop(w2, op2), ..] =
        win
    {
        if w == w2 && !ibinop_traps(op1) {
            return Some((R::IBinop2Imm { w, op1, op2, dst: top(0), a, rhs, b }, 5));
        }
    }

    // 4-wide: loop steps and direct compare-and-branch forms.
    if let &[O::LocalGet(a), O::Const(rhs), O::IBinop(w, op), O::LocalSet(dst), ..] = win {
        if !ibinop_traps(op) {
            return Some((R::IBinopImm { w, op, dst, a, rhs }, 4));
        }
    }
    if let &[O::LocalGet(a), O::Const(rhs), O::IRelop(w, op), O::BrIf(bt), ..] = win {
        let br = at.br(&bt, 0);
        return Some((R::CmpImmBr { w, op, a, rhs, invert: false, br }, 4));
    }
    if let &[O::LocalGet(a), O::LocalGet(b), O::IRelop(w, op), O::BrIf(bt), ..] = win {
        let br = at.br(&bt, 0);
        return Some((R::CmpBr { w, op, a, b, invert: false, br }, 4));
    }
    if let &[O::LocalGet(a), O::Const(rhs), O::IRelop(w, op), O::JumpIfZero(target), ..] = win {
        return Some((R::CmpImmJumpIfNot { w, op, a, rhs, target }, 4));
    }
    if let &[O::LocalGet(a), O::LocalGet(b), O::IRelop(w, op), O::JumpIfZero(target), ..] = win {
        return Some((R::CmpJumpIfNot { w, op, a, b, target }, 4));
    }

    // 3-wide: two-operand ALU fetch fusion and bare latches.
    if let &[O::LocalGet(a), O::LocalGet(b), O::IBinop(w, op), ..] = win {
        return Some((R::IBinop { w, op, dst: top(0), a, b }, 3));
    }
    if let &[O::LocalGet(a), O::LocalGet(b), O::FBinop(w, op), ..] = win {
        return Some((R::FBinop { w, op, dst: top(0), a, b }, 3));
    }
    if let &[O::LocalGet(a), O::Const(rhs), O::IBinop(w, op), ..] = win {
        return Some((R::IBinopImm { w, op, dst: top(0), a, rhs }, 3));
    }
    if let &[O::LocalGet(a), O::Const(rhs), O::FBinop(w, op), ..] = win {
        return Some((R::FBinopImm { w, op, dst: top(0), a, rhs }, 3));
    }
    if let &[O::IRelop(w, op), O::ITestEqz(_), O::BrIf(bt), ..] = win {
        let br = at.br(&bt, 2);
        return Some((R::CmpBr { w, op, a: top(2), b: top(1), invert: true, br }, 3));
    }
    if let &[O::Const(rhs), O::IBinop(w, op), O::Load(kind, offset), ..] = win {
        if !ibinop_traps(op) {
            let (dst, a) = (top(1), top(1));
            return Some((R::LoadIdxImm { w, op, kind, offset, dst, a, rhs }, 3));
        }
    }
    if let &[O::LocalGet(b), O::IBinop(w, op), O::Load(kind, offset), ..] = win {
        if !ibinop_traps(op) {
            let (dst, a) = (top(1), top(1));
            return Some((R::LoadIdx { w, op, kind, offset, dst, a, b }, 3));
        }
    }
    if let &[O::Const(rhs), O::FBinop(w, op), O::Store(kind, offset), ..] = win {
        let (addr, a) = (top(2), top(1));
        return Some((R::StoreFImm { w, op, kind, offset, addr, a, rhs }, 3));
    }
    if let &[O::LocalGet(b), O::FBinop(w, op), O::Store(kind, offset), ..] = win {
        let (addr, a) = (top(2), top(1));
        return Some((R::StoreF { w, op, kind, offset, addr, a, b }, 3));
    }

    // 2-wide: single-operand fetch fusion, memory folding, short latches.
    if let &[O::Const(rhs), O::IBinop(w, op), ..] = win {
        return Some((R::IBinopImm { w, op, dst: top(1), a: top(1), rhs }, 2));
    }
    if let &[O::Const(rhs), O::FBinop(w, op), ..] = win {
        return Some((R::FBinopImm { w, op, dst: top(1), a: top(1), rhs }, 2));
    }
    if let &[O::LocalGet(b), O::IBinop(w, op), ..] = win {
        return Some((R::IBinop { w, op, dst: top(1), a: top(1), b }, 2));
    }
    if let &[O::LocalGet(b), O::FBinop(w, op), ..] = win {
        return Some((R::FBinop { w, op, dst: top(1), a: top(1), b }, 2));
    }
    if let &[O::Const(bits), O::LocalSet(dst), ..] = win {
        return Some((R::Const { dst, bits }, 2));
    }
    if let &[O::Const(addr), O::Load(kind, offset), ..] = win {
        return Some((R::LoadConstAddr { kind, offset, dst: top(0), addr }, 2));
    }
    if let &[O::LocalGet(addr), O::Load(kind, offset), ..] = win {
        return Some((R::Load { kind, offset, dst: top(0), addr }, 2));
    }
    if let &[O::Const(bits), O::Store(kind, offset), ..] = win {
        return Some((R::StoreConst { kind, offset, addr: top(1), bits }, 2));
    }
    if let &[O::LocalGet(val), O::Store(kind, offset), ..] = win {
        return Some((R::Store { kind, offset, addr: top(1), val }, 2));
    }
    if let &[O::IBinop(w, op), O::Load(kind, offset), ..] = win {
        if !ibinop_traps(op) {
            let (dst, a, b) = (top(2), top(2), top(1));
            return Some((R::LoadIdx { w, op, kind, offset, dst, a, b }, 2));
        }
    }
    if let &[O::IBinop(w, op), O::Store(kind, offset), ..] = win {
        if !ibinop_traps(op) {
            let (addr, a, b) = (top(3), top(2), top(1));
            return Some((R::StoreI { w, op, kind, offset, addr, a, b }, 2));
        }
    }
    if let &[O::FBinop(w, op), O::Store(kind, offset), ..] = win {
        let (addr, a, b) = (top(3), top(2), top(1));
        return Some((R::StoreF { w, op, kind, offset, addr, a, b }, 2));
    }
    if let &[O::IRelop(w, op), O::BrIf(bt), ..] = win {
        let br = at.br(&bt, 2);
        return Some((R::CmpBr { w, op, a: top(2), b: top(1), invert: false, br }, 2));
    }
    if let &[O::ITestEqz(w), O::BrIf(bt), ..] = win {
        return Some((R::EqzBr { w, v: top(1), br: at.br(&bt, 1) }, 2));
    }
    if let &[O::IRelop(w, op), O::JumpIfZero(target), ..] = win {
        return Some((R::CmpJumpIfNot { w, op, a: top(2), b: top(1), target }, 2));
    }
    if let &[O::LocalTee(tee), O::Load(kind, offset), ..] = win {
        return Some((R::LoadTee { kind, offset, dst: top(1), addr: top(1), tee }, 2));
    }
    if let &[O::FBinop(w1, op1), O::FBinop(w2, op2), ..] = win {
        let (dst, c, a, b) = (top(3), top(3), top(2), top(1));
        return Some((R::FBinop2 { w1, op1, w2, op2, dst, c, a, b }, 2));
    }
    if let &[O::IBinop(w, op), O::LocalSet(dst), ..] = win {
        if !ibinop_traps(op) {
            return Some((R::IBinop { w, op, dst, a: top(2), b: top(1) }, 2));
        }
    }
    if let &[O::FBinop(w, op), O::LocalSet(dst), ..] = win {
        return Some((R::FBinop { w, op, dst, a: top(2), b: top(1) }, 2));
    }
    if let &[O::LocalSet(d1), O::LocalGet(s2), ..] = win {
        return Some((R::CopyPair { d1, s1: top(1), d2: top(1), s2 }, 2));
    }

    None
}

#[cfg(test)]
mod tests {
    use crate::compile::CompiledModule;
    use crate::instr::{BlockType, Instr, MemArg};
    use crate::module::ModuleBuilder;
    use crate::regalloc::RegOp;
    use crate::types::{FuncType, Limits, ValType, Value};

    /// Compile `body` (two i32 locals, no params) for the register tier.
    fn compile_body(body: Vec<Instr>, results: Vec<ValType>) -> CompiledModule {
        let mut b = ModuleBuilder::new();
        b.memory(Limits::at_least(1));
        b.add_func(
            FuncType::new(vec![], results),
            vec![ValType::I32, ValType::I32],
            body,
        );
        CompiledModule::compile(b.build()).unwrap()
    }

    /// Baseline instructions covered by the register code's windows.
    fn window_constituents(cm: &CompiledModule) -> usize {
        cm.reg[0].costs.iter().map(|c| c.len as usize).sum()
    }

    fn counted_loop_body() -> Vec<Instr> {
        use crate::instr::{IBinOp, IRelOp, IntWidth};
        // i = 0; do { i += 1 } while (i < 10)   (plus an eqz-latch variant)
        vec![
            Instr::Const(Value::I32(0)),
            Instr::LocalSet(0),
            Instr::Loop(
                BlockType::Empty,
                vec![
                    Instr::LocalGet(0),
                    Instr::Const(Value::I32(1)),
                    Instr::IBinop(IntWidth::W32, IBinOp::Add),
                    Instr::LocalSet(0),
                    Instr::LocalGet(0),
                    Instr::Const(Value::I32(10)),
                    Instr::IRelop(IntWidth::W32, IRelOp::LtS),
                    Instr::BrIf(0),
                ],
            ),
        ]
    }

    #[test]
    fn fused_tier_shrinks_a_counted_loop() {
        let cm = compile_body(counted_loop_body(), vec![]);
        let (base, rf) = (&cm.funcs[0], &cm.reg[0]);
        assert!(
            rf.ops.len() < base.ops.len(),
            "no fusion: {} vs {}",
            rf.ops.len(),
            base.ops.len()
        );
        // Conservation: every baseline op is covered exactly once.
        assert_eq!(window_constituents(&cm), base.ops.len());
        // The loop step (`i += 1`, local to local) and latch fused.
        assert!(rf
            .ops
            .iter()
            .any(|op| matches!(op, RegOp::IBinopImm { dst: 0, a: 0, .. })));
        assert!(rf
            .ops
            .iter()
            .any(|op| matches!(op, RegOp::CmpImmBr { invert: false, .. })));
    }

    #[test]
    fn fused_latch_target_points_at_loop_head() {
        let cm = compile_body(counted_loop_body(), vec![]);
        let rf = &cm.reg[0];
        let latch = rf
            .ops
            .iter()
            .find_map(|op| match op {
                RegOp::CmpImmBr { br, .. } => Some(*br),
                _ => None,
            })
            .expect("fused latch");
        // The loop head is the fused `i += 1` step.
        assert!(matches!(
            rf.ops[latch.target as usize],
            RegOp::IBinopImm { dst: 0, a: 0, .. }
        ));
    }

    #[test]
    fn classes_are_preserved_as_a_multiset() {
        let cm = compile_body(counted_loop_body(), vec![]);
        let base = &cm.funcs[0];
        let mut base_counts = [0u64; crate::meter::NUM_CLASSES];
        for c in &base.classes {
            base_counts[c.index()] += 1;
        }
        let mut reg_counts = [0u64; crate::meter::NUM_CLASSES];
        for cost in &cm.reg[0].costs {
            for c in &cost.classes[..cost.len as usize] {
                reg_counts[c.index()] += 1;
            }
        }
        assert_eq!(base_counts, reg_counts);
    }

    #[test]
    fn branch_targets_block_fusion_windows() {
        use crate::instr::{IBinOp, IntWidth};
        // A block whose end lands between `Const` and `IBinop`: the pair
        // must NOT fuse, because the branch jumps between them.
        let body = vec![
            Instr::Const(Value::I32(1)),
            Instr::Block(
                BlockType::Empty,
                vec![Instr::Const(Value::I32(1)), Instr::BrIf(0)],
            ),
            Instr::Const(Value::I32(2)),
            Instr::IBinop(IntWidth::W32, IBinOp::Add),
            Instr::Drop,
        ];
        let cm = compile_body(body, vec![]);
        let rf = &cm.reg[0];
        // The br_if target must resolve to a real register op (a
        // debug_assert in the pass already guards window interiors).
        let br = rf
            .ops
            .iter()
            .find_map(|op| match op {
                RegOp::EqzBr { br, .. } | RegOp::BrIf { br, .. } => Some(*br),
                _ => None,
            })
            .expect("br_if survives");
        assert!((br.target as usize) < rf.ops.len());
        // The first const stays un-fused with the block interior.
        assert_eq!(window_constituents(&cm), cm.funcs[0].ops.len());
    }

    #[test]
    fn div_never_fuses_into_window_interior() {
        use crate::instr::{IBinOp, IntWidth};
        // local.get 0; const 0; div_s; local.set 1 — the div may trap, so
        // the 4-wide read-modify-write pattern (which writes local 1
        // directly) must not swallow it; the 3-wide local-imm binop (div
        // last, result in a stack slot) is fine.
        let body = vec![
            Instr::LocalGet(0),
            Instr::Const(Value::I32(0)),
            Instr::IBinop(IntWidth::W32, IBinOp::DivS),
            Instr::LocalSet(1),
        ];
        let cm = compile_body(body, vec![]);
        let rf = &cm.reg[0];
        assert!(rf
            .ops
            .iter()
            .all(|op| !matches!(op, RegOp::IBinopImm { dst: 0 | 1, .. })));
        assert!(rf.ops.iter().any(|op| matches!(
            op,
            RegOp::IBinopImm {
                op: IBinOp::DivS,
                dst: 2,
                a: 0,
                ..
            }
        )));
        assert_eq!(rf.costs[0].len, 3);
    }

    #[test]
    fn memory_ops_fold_address_and_value_computations() {
        use crate::instr::{IBinOp, IntWidth, LoadKind, StoreKind};
        let body = vec![
            // store at (8+8) the value loaded from (4+4)
            Instr::Const(Value::I32(8)),
            Instr::Const(Value::I32(8)),
            Instr::IBinop(IntWidth::W32, IBinOp::Add),
            Instr::Const(Value::I32(4)),
            Instr::Const(Value::I32(4)),
            Instr::IBinop(IntWidth::W32, IBinOp::Add),
            Instr::Load(LoadKind::I32, MemArg::offset(0)),
            Instr::Store(StoreKind::I32, MemArg::offset(0)),
        ];
        let cm = compile_body(body, vec![]);
        assert!(cm.reg[0]
            .ops
            .iter()
            .any(|op| matches!(op, RegOp::LoadIdxImm { .. })));
        assert_eq!(window_constituents(&cm), cm.funcs[0].ops.len());
    }

    #[test]
    fn store_value_computations_fold() {
        use crate::instr::{FBinOp, FloatWidth, LoadKind, StoreKind};
        // mem[addr] = mem[addr] * 1.5 — the value tail must fuse into the
        // store, and the scalar load from a constant address must fuse too.
        let body = vec![
            Instr::Const(Value::I32(16)),
            Instr::Const(Value::I32(16)),
            Instr::Load(LoadKind::F64, MemArg::offset(0)),
            Instr::Const(Value::F64(1.5)),
            Instr::FBinop(FloatWidth::W64, FBinOp::Mul),
            Instr::Store(StoreKind::F64, MemArg::offset(0)),
        ];
        let cm = compile_body(body, vec![]);
        let rf = &cm.reg[0];
        assert!(rf
            .ops
            .iter()
            .any(|op| matches!(op, RegOp::LoadConstAddr { .. })));
        assert!(rf
            .ops
            .iter()
            .any(|op| matches!(op, RegOp::StoreFImm { .. })));
    }
}
