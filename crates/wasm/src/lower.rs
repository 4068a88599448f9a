//! Post-validation fusion into superinstructions — the register
//! allocator's input.
//!
//! The [`crate::compile`] pass produces linear, jump-resolved [`Op`] code in
//! which every Wasm instruction is still a separate op; the reference
//! interpreter ([`ExecTier::Baseline`]) dispatches it exactly that way. This
//! module rewrites that stream into a compact IR whose *superinstructions*
//! fuse the short idiomatic sequences that dominate hot loops:
//!
//! * `const` + binop, `local.get` + binop and `local.get local.get` binop
//!   triples (operand fetch folded into the ALU op);
//! * `local.get const <binop> local.set` read-modify-write updates
//!   (the ubiquitous `i += 1` loop step);
//! * compare-and-branch loop latches — `local.get const <cmp> [eqz] br_if`
//!   and their `jump-if-zero` (structured `if`) forms;
//! * address/value computations folded into loads and stores.
//!
//! The fused IR is never executed: [`crate::regalloc`] consumes it during
//! compilation, one register op per fused op, and it is dropped afterwards.
//! Branch targets, already resolved to op indices by the compiler, are
//! remapped to the fused index space, so the register code keeps direct
//! jumps with no label search at run time.
//!
//! ## Virtual time is preserved exactly
//!
//! The whole Figure 3 methodology (DESIGN.md §4) prices *metered
//! instruction-class streams*, so fusion must not change what the meter
//! sees. Every fused op therefore carries an [`OpCost`]: the ordered
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

use crate::compile::{BranchTarget, CompiledFunc, Op};
use crate::instr::{FBinOp, FloatWidth, IBinOp, IRelOp, IntWidth, LoadKind, StoreKind};
use crate::meter::InstrClass;

/// Which executor runs a compiled module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecTier {
    /// The reference interpreter: dispatches the compiled [`Op`] stream one
    /// op at a time, one metering class and one unit of fuel per op. The
    /// oracle every differential compares the register tier against.
    Baseline,
    /// Register-allocated three-address code (default): the fused IR's
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

/// Widest fusion window (constituent baseline instructions) the lowering
/// pass emits.
pub const MAX_FUSED_WIDTH: usize = 5;

/// Metering record of one fused op: the ordered [`InstrClass`]es of its
/// constituent baseline instructions. Retiring the op bumps each class
/// once and consumes `len` fuel, exactly as the reference interpreter
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

/// A fused-IR instruction: either one baseline [`Op`] left unfused or a
/// superinstruction covering several.
#[derive(Debug, Clone, PartialEq)]
pub enum LowOp {
    /// A baseline op no fusion pattern matched (branch targets remapped).
    Op(Op),

    // ---- fused ALU forms ------------------------------------------------
    /// `local.get a; local.get b; binop` — push `binop(local[a], local[b])`.
    LocalsIBinop {
        /// Operand width.
        w: IntWidth,
        /// Operator (may trap: it is the window's last constituent).
        op: IBinOp,
        /// Left-operand local.
        a: u32,
        /// Right-operand local.
        b: u32,
    },
    /// Float form of [`LowOp::LocalsIBinop`].
    LocalsFBinop {
        /// Operand width.
        w: FloatWidth,
        /// Operator.
        op: FBinOp,
        /// Left-operand local.
        a: u32,
        /// Right-operand local.
        b: u32,
    },
    /// `local.get l; const k; binop` — push `binop(local[l], k)`.
    LocalConstIBinop {
        /// Operand width.
        w: IntWidth,
        /// Operator (window-final, may trap).
        op: IBinOp,
        /// Left-operand local.
        local: u32,
        /// Right operand (raw bits).
        rhs: u64,
    },
    /// Float form of [`LowOp::LocalConstIBinop`].
    LocalConstFBinop {
        /// Operand width.
        w: FloatWidth,
        /// Operator.
        op: FBinOp,
        /// Left-operand local.
        local: u32,
        /// Right operand (raw bits).
        rhs: u64,
    },
    /// `const k; binop` — pop `a`, push `binop(a, k)`.
    ConstIBinop {
        /// Operand width.
        w: IntWidth,
        /// Operator (window-final, may trap).
        op: IBinOp,
        /// Right operand (raw bits).
        rhs: u64,
    },
    /// Float form of [`LowOp::ConstIBinop`].
    ConstFBinop {
        /// Operand width.
        w: FloatWidth,
        /// Operator.
        op: FBinOp,
        /// Right operand (raw bits).
        rhs: u64,
    },
    /// `local.get l; binop` — pop `a`, push `binop(a, local[l])`.
    LocalIBinop {
        /// Operand width.
        w: IntWidth,
        /// Operator (window-final, may trap).
        op: IBinOp,
        /// Right-operand local.
        local: u32,
    },
    /// Float form of [`LowOp::LocalIBinop`].
    LocalFBinop {
        /// Operand width.
        w: FloatWidth,
        /// Operator.
        op: FBinOp,
        /// Right-operand local.
        local: u32,
    },
    /// `local.get src; const k; binop; local.set dst` — the `i += k` loop
    /// step. The operator is restricted to non-trapping binops.
    LocalConstIBinopSet {
        /// Operand width.
        w: IntWidth,
        /// Operator (non-trapping only).
        op: IBinOp,
        /// Source local.
        src: u32,
        /// Right operand (raw bits).
        rhs: u64,
        /// Destination local.
        dst: u32,
    },
    /// `const k; local.set dst`.
    ConstLocalSet {
        /// Value (raw bits).
        bits: u64,
        /// Destination local.
        dst: u32,
    },
    /// `local.get a; const k; binop1; local.get b; binop2` — the 2-D array
    /// index idiom `a*K op b`: push `op2(op1(local[a], k), local[b])`.
    LocalConstLocalIBinop2 {
        /// Operand width.
        w: IntWidth,
        /// Inner operator (non-trapping only).
        op1: IBinOp,
        /// Outer operator (window-final, may trap).
        op2: IBinOp,
        /// First operand local.
        a: u32,
        /// Inner right operand (raw bits).
        rhs: u64,
        /// Outer right-operand local.
        b: u32,
    },
    /// Two chained float binops: pop `b`, `a`; then pop `c` and push
    /// `op2(c, op1(a, b))` — the tail of every multiply-accumulate.
    FBinop2 {
        /// Inner operand width.
        w1: FloatWidth,
        /// Inner operator.
        op1: FBinOp,
        /// Outer operand width.
        w2: FloatWidth,
        /// Outer operator.
        op2: FBinOp,
    },
    /// `binop; local.set dst` (integer, non-trapping).
    IBinopLocalSet {
        /// Operand width.
        w: IntWidth,
        /// Operator (non-trapping only).
        op: IBinOp,
        /// Destination local.
        dst: u32,
    },
    /// `fbinop; local.set dst` — float accumulator updates.
    FBinopLocalSet {
        /// Operand width.
        w: FloatWidth,
        /// Operator.
        op: FBinOp,
        /// Destination local.
        dst: u32,
    },
    /// `local.set s; local.get g` — stack-to-local shuffle.
    LocalSetLocalGet {
        /// Local written from the stack top.
        set: u32,
        /// Local pushed afterwards.
        get: u32,
    },

    // ---- fused memory forms ---------------------------------------------
    /// `const a; load` — load from a statically known address (scalar
    /// globals in MiniC-compiled code).
    ConstLoad {
        /// Address (raw const bits; used as u32).
        addr: u64,
        /// Load kind.
        kind: LoadKind,
        /// Static offset folded into the access.
        offset: u32,
    },
    /// `local.get l; load` — load from an address held in a local.
    LocalLoad {
        /// Address local.
        local: u32,
        /// Load kind.
        kind: LoadKind,
        /// Static offset folded into the access.
        offset: u32,
    },
    /// `local.tee l; load` — save the address in a local, then load from
    /// it (the compound-assignment idiom `A[i] op= v`).
    TeeLoad {
        /// Local receiving the address.
        local: u32,
        /// Load kind.
        kind: LoadKind,
        /// Static offset folded into the access.
        offset: u32,
    },
    /// `const k; binop; load` — the tail of an address computation folded
    /// into the load: pop `a`, load from `binop(a, k)`.
    ConstIBinopLoad {
        /// Address-computation width.
        w: IntWidth,
        /// Operator (non-trapping only).
        op: IBinOp,
        /// Right operand (raw bits).
        rhs: u64,
        /// Load kind.
        kind: LoadKind,
        /// Static offset folded into the access.
        offset: u32,
    },
    /// `local.get l; binop; load` — pop `a`, load from
    /// `binop(a, local[l])`.
    LocalIBinopLoad {
        /// Address-computation width.
        w: IntWidth,
        /// Operator (non-trapping only).
        op: IBinOp,
        /// Right-operand local.
        local: u32,
        /// Load kind.
        kind: LoadKind,
        /// Static offset folded into the access.
        offset: u32,
    },
    /// `binop; load` — pop `b`, `a`, load from `binop(a, b)`.
    IBinopLoad {
        /// Address-computation width.
        w: IntWidth,
        /// Operator (non-trapping only).
        op: IBinOp,
        /// Load kind.
        kind: LoadKind,
        /// Static offset folded into the access.
        offset: u32,
    },
    /// `const k; store` — pop the address, store the constant `k`
    /// (array-zeroing loops).
    StoreConst {
        /// Value (raw bits).
        bits: u64,
        /// Store kind.
        kind: StoreKind,
        /// Static offset folded into the access.
        offset: u32,
    },
    /// `local.get l; store` — pop the address, store `local[l]`.
    StoreLocal {
        /// Value local.
        local: u32,
        /// Store kind.
        kind: StoreKind,
        /// Static offset folded into the access.
        offset: u32,
    },
    /// `const k; fbinop; store` — pop `a`, then the address, and store
    /// `fbinop(a, k)`.
    ConstFBinopStore {
        /// Value-computation width.
        w: FloatWidth,
        /// Operator.
        op: FBinOp,
        /// Right operand (raw bits).
        rhs: u64,
        /// Store kind.
        kind: StoreKind,
        /// Static offset folded into the access.
        offset: u32,
    },
    /// `local.get l; fbinop; store` — pop `a`, then the address, and store
    /// `fbinop(a, local[l])`.
    LocalFBinopStore {
        /// Value-computation width.
        w: FloatWidth,
        /// Operator.
        op: FBinOp,
        /// Right-operand local.
        local: u32,
        /// Store kind.
        kind: StoreKind,
        /// Static offset folded into the access.
        offset: u32,
    },
    /// `fbinop; store` — pop `b`, `a`, then the address, and store
    /// `fbinop(a, b)` (the tail of every `lhs op= rhs` float update).
    FBinopStore {
        /// Value-computation width.
        w: FloatWidth,
        /// Operator.
        op: FBinOp,
        /// Store kind.
        kind: StoreKind,
        /// Static offset folded into the access.
        offset: u32,
    },
    /// Integer form of [`LowOp::FBinopStore`].
    IBinopStore {
        /// Value-computation width.
        w: IntWidth,
        /// Operator (non-trapping only).
        op: IBinOp,
        /// Store kind.
        kind: StoreKind,
        /// Static offset folded into the access.
        offset: u32,
    },

    // ---- fused compare-and-branch forms ---------------------------------
    /// `relop; br_if` — pop `b`, `a`; branch if the comparison holds.
    CmpBrIf {
        /// Operand width.
        w: IntWidth,
        /// Comparison.
        op: IRelOp,
        /// Branch descriptor (target already remapped).
        bt: BranchTarget,
    },
    /// `relop; eqz; br_if` — pop `b`, `a`; branch if the comparison fails
    /// (the MiniC `while`/`for` loop latch).
    CmpEqzBrIf {
        /// Operand width.
        w: IntWidth,
        /// Comparison.
        op: IRelOp,
        /// Branch descriptor.
        bt: BranchTarget,
    },
    /// `eqz; br_if` — pop `v`; branch if `v == 0` at the eqz width.
    EqzBrIf {
        /// Width of the zero test.
        w: IntWidth,
        /// Branch descriptor.
        bt: BranchTarget,
    },
    /// `relop; jump-if-zero` — pop `b`, `a`; jump if the comparison fails
    /// (the structured `if` entry test).
    CmpJumpIfNot {
        /// Operand width.
        w: IntWidth,
        /// Comparison.
        op: IRelOp,
        /// Jump destination (already remapped).
        target: u32,
    },
    /// `local.get l; const k; relop; br_if` — branch if `local <cmp> k`.
    LocalConstCmpBrIf {
        /// Operand width.
        w: IntWidth,
        /// Comparison.
        op: IRelOp,
        /// Left-operand local.
        local: u32,
        /// Right operand (raw bits).
        rhs: u64,
        /// Branch descriptor.
        bt: BranchTarget,
    },
    /// `local.get l; const k; relop; eqz; br_if` — branch if the comparison
    /// *fails*: the canonical counted-loop exit latch.
    LocalConstCmpEqzBrIf {
        /// Operand width.
        w: IntWidth,
        /// Comparison.
        op: IRelOp,
        /// Left-operand local.
        local: u32,
        /// Right operand (raw bits).
        rhs: u64,
        /// Branch descriptor.
        bt: BranchTarget,
    },
    /// Two-local form of [`LowOp::LocalConstCmpBrIf`].
    LocalsCmpBrIf {
        /// Operand width.
        w: IntWidth,
        /// Comparison.
        op: IRelOp,
        /// Left-operand local.
        a: u32,
        /// Right-operand local.
        b: u32,
        /// Branch descriptor.
        bt: BranchTarget,
    },
    /// Two-local form of [`LowOp::LocalConstCmpEqzBrIf`].
    LocalsCmpEqzBrIf {
        /// Operand width.
        w: IntWidth,
        /// Comparison.
        op: IRelOp,
        /// Left-operand local.
        a: u32,
        /// Right-operand local.
        b: u32,
        /// Branch descriptor.
        bt: BranchTarget,
    },
    /// `local.get l; const k; relop; jump-if-zero`.
    LocalConstCmpJumpIfNot {
        /// Operand width.
        w: IntWidth,
        /// Comparison.
        op: IRelOp,
        /// Left-operand local.
        local: u32,
        /// Right operand (raw bits).
        rhs: u64,
        /// Jump destination.
        target: u32,
    },
    /// Two-local form of [`LowOp::LocalConstCmpJumpIfNot`].
    LocalsCmpJumpIfNot {
        /// Operand width.
        w: IntWidth,
        /// Comparison.
        op: IRelOp,
        /// Left-operand local.
        a: u32,
        /// Right-operand local.
        b: u32,
        /// Jump destination.
        target: u32,
    },
}

/// A function body in the fused IR, parallel to its [`CompiledFunc`]
/// (frame metadata — params/locals/results — stays on the compiled form).
#[derive(Debug, Clone)]
pub struct LowFunc {
    /// Fused code.
    pub ops: Vec<LowOp>,
    /// Metering record per fused op (parallel to `ops`).
    pub costs: Vec<OpCost>,
}

impl LowFunc {
    /// Total constituent baseline instructions covered — always equals the
    /// baseline op count of the source function (conservation invariant).
    #[must_use]
    pub fn covered_ops(&self) -> usize {
        self.costs.iter().map(|c| c.len as usize).sum()
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
fn mark_targets(ops: &[Op]) -> Vec<bool> {
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
/// `pc` that may be merged (limited by the next branch target).
#[allow(clippy::too_many_lines)]
fn try_fuse(ops: &[Op], pc: usize, avail: usize) -> Option<(LowOp, usize)> {
    use Op as O;
    let win = &ops[pc..pc + avail.min(MAX_FUSED_WIDTH).min(ops.len() - pc)];

    // 5-wide: counted-loop exit latches.
    if let [O::LocalGet(l), O::Const(k), O::IRelop(w, op), O::ITestEqz(_), O::BrIf(bt), ..] = win {
        return Some((
            LowOp::LocalConstCmpEqzBrIf {
                w: *w,
                op: *op,
                local: *l,
                rhs: *k,
                bt: *bt,
            },
            5,
        ));
    }
    if let [O::LocalGet(a), O::LocalGet(b), O::IRelop(w, op), O::ITestEqz(_), O::BrIf(bt), ..] = win
    {
        return Some((
            LowOp::LocalsCmpEqzBrIf {
                w: *w,
                op: *op,
                a: *a,
                b: *b,
                bt: *bt,
            },
            5,
        ));
    }

    // 5-wide: the 2-D array-index idiom `a*K + b`.
    if let [O::LocalGet(a), O::Const(k), O::IBinop(w1, op1), O::LocalGet(b), O::IBinop(w2, op2), ..] =
        win
    {
        if w1 == w2 && !ibinop_traps(*op1) {
            return Some((
                LowOp::LocalConstLocalIBinop2 {
                    w: *w1,
                    op1: *op1,
                    op2: *op2,
                    a: *a,
                    rhs: *k,
                    b: *b,
                },
                5,
            ));
        }
    }

    // 4-wide: loop steps and direct compare-and-branch forms.
    if let [O::LocalGet(src), O::Const(k), O::IBinop(w, op), O::LocalSet(dst), ..] = win {
        if !ibinop_traps(*op) {
            return Some((
                LowOp::LocalConstIBinopSet {
                    w: *w,
                    op: *op,
                    src: *src,
                    rhs: *k,
                    dst: *dst,
                },
                4,
            ));
        }
    }
    if let [O::LocalGet(l), O::Const(k), O::IRelop(w, op), O::BrIf(bt), ..] = win {
        return Some((
            LowOp::LocalConstCmpBrIf {
                w: *w,
                op: *op,
                local: *l,
                rhs: *k,
                bt: *bt,
            },
            4,
        ));
    }
    if let [O::LocalGet(a), O::LocalGet(b), O::IRelop(w, op), O::BrIf(bt), ..] = win {
        return Some((
            LowOp::LocalsCmpBrIf {
                w: *w,
                op: *op,
                a: *a,
                b: *b,
                bt: *bt,
            },
            4,
        ));
    }
    if let [O::LocalGet(l), O::Const(k), O::IRelop(w, op), O::JumpIfZero(t), ..] = win {
        return Some((
            LowOp::LocalConstCmpJumpIfNot {
                w: *w,
                op: *op,
                local: *l,
                rhs: *k,
                target: *t,
            },
            4,
        ));
    }
    if let [O::LocalGet(a), O::LocalGet(b), O::IRelop(w, op), O::JumpIfZero(t), ..] = win {
        return Some((
            LowOp::LocalsCmpJumpIfNot {
                w: *w,
                op: *op,
                a: *a,
                b: *b,
                target: *t,
            },
            4,
        ));
    }

    // 3-wide: two-operand ALU fetch fusion and bare latches.
    if let [O::LocalGet(a), O::LocalGet(b), O::IBinop(w, op), ..] = win {
        return Some((
            LowOp::LocalsIBinop {
                w: *w,
                op: *op,
                a: *a,
                b: *b,
            },
            3,
        ));
    }
    if let [O::LocalGet(a), O::LocalGet(b), O::FBinop(w, op), ..] = win {
        return Some((
            LowOp::LocalsFBinop {
                w: *w,
                op: *op,
                a: *a,
                b: *b,
            },
            3,
        ));
    }
    if let [O::LocalGet(l), O::Const(k), O::IBinop(w, op), ..] = win {
        return Some((
            LowOp::LocalConstIBinop {
                w: *w,
                op: *op,
                local: *l,
                rhs: *k,
            },
            3,
        ));
    }
    if let [O::LocalGet(l), O::Const(k), O::FBinop(w, op), ..] = win {
        return Some((
            LowOp::LocalConstFBinop {
                w: *w,
                op: *op,
                local: *l,
                rhs: *k,
            },
            3,
        ));
    }
    if let [O::IRelop(w, op), O::ITestEqz(_), O::BrIf(bt), ..] = win {
        return Some((
            LowOp::CmpEqzBrIf {
                w: *w,
                op: *op,
                bt: *bt,
            },
            3,
        ));
    }
    if let [O::Const(k), O::IBinop(w, op), O::Load(kind, off), ..] = win {
        if !ibinop_traps(*op) {
            return Some((
                LowOp::ConstIBinopLoad {
                    w: *w,
                    op: *op,
                    rhs: *k,
                    kind: *kind,
                    offset: *off,
                },
                3,
            ));
        }
    }
    if let [O::LocalGet(l), O::IBinop(w, op), O::Load(kind, off), ..] = win {
        if !ibinop_traps(*op) {
            return Some((
                LowOp::LocalIBinopLoad {
                    w: *w,
                    op: *op,
                    local: *l,
                    kind: *kind,
                    offset: *off,
                },
                3,
            ));
        }
    }
    if let [O::Const(k), O::FBinop(w, op), O::Store(kind, off), ..] = win {
        return Some((
            LowOp::ConstFBinopStore {
                w: *w,
                op: *op,
                rhs: *k,
                kind: *kind,
                offset: *off,
            },
            3,
        ));
    }
    if let [O::LocalGet(l), O::FBinop(w, op), O::Store(kind, off), ..] = win {
        return Some((
            LowOp::LocalFBinopStore {
                w: *w,
                op: *op,
                local: *l,
                kind: *kind,
                offset: *off,
            },
            3,
        ));
    }

    // 2-wide: single-operand fetch fusion, memory folding, short latches.
    if let [O::Const(k), O::IBinop(w, op), ..] = win {
        return Some((
            LowOp::ConstIBinop {
                w: *w,
                op: *op,
                rhs: *k,
            },
            2,
        ));
    }
    if let [O::Const(k), O::FBinop(w, op), ..] = win {
        return Some((
            LowOp::ConstFBinop {
                w: *w,
                op: *op,
                rhs: *k,
            },
            2,
        ));
    }
    if let [O::LocalGet(l), O::IBinop(w, op), ..] = win {
        return Some((
            LowOp::LocalIBinop {
                w: *w,
                op: *op,
                local: *l,
            },
            2,
        ));
    }
    if let [O::LocalGet(l), O::FBinop(w, op), ..] = win {
        return Some((
            LowOp::LocalFBinop {
                w: *w,
                op: *op,
                local: *l,
            },
            2,
        ));
    }
    if let [O::Const(k), O::LocalSet(dst), ..] = win {
        return Some((
            LowOp::ConstLocalSet {
                bits: *k,
                dst: *dst,
            },
            2,
        ));
    }
    if let [O::Const(k), O::Load(kind, off), ..] = win {
        return Some((
            LowOp::ConstLoad {
                addr: *k,
                kind: *kind,
                offset: *off,
            },
            2,
        ));
    }
    if let [O::LocalGet(l), O::Load(kind, off), ..] = win {
        return Some((
            LowOp::LocalLoad {
                local: *l,
                kind: *kind,
                offset: *off,
            },
            2,
        ));
    }
    if let [O::Const(k), O::Store(kind, off), ..] = win {
        return Some((
            LowOp::StoreConst {
                bits: *k,
                kind: *kind,
                offset: *off,
            },
            2,
        ));
    }
    if let [O::LocalGet(l), O::Store(kind, off), ..] = win {
        return Some((
            LowOp::StoreLocal {
                local: *l,
                kind: *kind,
                offset: *off,
            },
            2,
        ));
    }
    if let [O::IBinop(w, op), O::Load(kind, off), ..] = win {
        if !ibinop_traps(*op) {
            return Some((
                LowOp::IBinopLoad {
                    w: *w,
                    op: *op,
                    kind: *kind,
                    offset: *off,
                },
                2,
            ));
        }
    }
    if let [O::IBinop(w, op), O::Store(kind, off), ..] = win {
        if !ibinop_traps(*op) {
            return Some((
                LowOp::IBinopStore {
                    w: *w,
                    op: *op,
                    kind: *kind,
                    offset: *off,
                },
                2,
            ));
        }
    }
    if let [O::FBinop(w, op), O::Store(kind, off), ..] = win {
        return Some((
            LowOp::FBinopStore {
                w: *w,
                op: *op,
                kind: *kind,
                offset: *off,
            },
            2,
        ));
    }
    if let [O::IRelop(w, op), O::BrIf(bt), ..] = win {
        return Some((
            LowOp::CmpBrIf {
                w: *w,
                op: *op,
                bt: *bt,
            },
            2,
        ));
    }
    if let [O::ITestEqz(w), O::BrIf(bt), ..] = win {
        return Some((LowOp::EqzBrIf { w: *w, bt: *bt }, 2));
    }
    if let [O::IRelop(w, op), O::JumpIfZero(t), ..] = win {
        return Some((
            LowOp::CmpJumpIfNot {
                w: *w,
                op: *op,
                target: *t,
            },
            2,
        ));
    }
    if let [O::LocalTee(l), O::Load(kind, off), ..] = win {
        return Some((
            LowOp::TeeLoad {
                local: *l,
                kind: *kind,
                offset: *off,
            },
            2,
        ));
    }
    if let [O::FBinop(w1, op1), O::FBinop(w2, op2), ..] = win {
        return Some((
            LowOp::FBinop2 {
                w1: *w1,
                op1: *op1,
                w2: *w2,
                op2: *op2,
            },
            2,
        ));
    }
    if let [O::IBinop(w, op), O::LocalSet(dst), ..] = win {
        if !ibinop_traps(*op) {
            return Some((
                LowOp::IBinopLocalSet {
                    w: *w,
                    op: *op,
                    dst: *dst,
                },
                2,
            ));
        }
    }
    if let [O::FBinop(w, op), O::LocalSet(dst), ..] = win {
        return Some((
            LowOp::FBinopLocalSet {
                w: *w,
                op: *op,
                dst: *dst,
            },
            2,
        ));
    }
    if let [O::LocalSet(s), O::LocalGet(g), ..] = win {
        return Some((
            LowOp::LocalSetLocalGet { set: *s, get: *g },
            2,
        ));
    }

    None
}

/// Fuse one compiled function into superinstructions — the input
/// [`crate::regalloc::regalloc_func`] maps onto frame slots, one
/// [`crate::regalloc::RegOp`] per fused op.
#[must_use]
pub fn fuse(f: &CompiledFunc) -> LowFunc {
    let n = f.ops.len();
    let is_target = mark_targets(&f.ops);
    let mut ops: Vec<LowOp> = Vec::with_capacity(n);
    let mut costs: Vec<OpCost> = Vec::with_capacity(n);
    // Old-pc → new-pc map. Interior pcs of fused windows keep u32::MAX and
    // are provably never branch targets.
    let mut map = vec![u32::MAX; n + 1];

    let mut pc = 0usize;
    while pc < n {
        map[pc] = ops.len() as u32;
        // A window may not contain a branch target after its first op.
        let mut avail = 1;
        while avail < MAX_FUSED_WIDTH && pc + avail < n && !is_target[pc + avail] {
            avail += 1;
        }
        if let Some((op, len)) = try_fuse(&f.ops, pc, avail) {
            debug_assert!(len <= avail);
            costs.push(OpCost::of(&f.classes[pc..pc + len]));
            ops.push(op);
            pc += len;
        } else {
            costs.push(OpCost::of(&f.classes[pc..=pc]));
            ops.push(LowOp::Op(f.ops[pc].clone()));
            pc += 1;
        }
    }
    map[n] = ops.len() as u32;

    // Remap every branch/jump destination into the fused index space.
    let remap = |t: &mut u32| {
        let new = map[*t as usize];
        debug_assert_ne!(new, u32::MAX, "branch into a fused window interior");
        *t = new;
    };
    for op in &mut ops {
        match op {
            LowOp::Op(Op::Br(bt) | Op::BrIf(bt))
            | LowOp::CmpBrIf { bt, .. }
            | LowOp::CmpEqzBrIf { bt, .. }
            | LowOp::EqzBrIf { bt, .. }
            | LowOp::LocalConstCmpBrIf { bt, .. }
            | LowOp::LocalConstCmpEqzBrIf { bt, .. }
            | LowOp::LocalsCmpBrIf { bt, .. }
            | LowOp::LocalsCmpEqzBrIf { bt, .. } => remap(&mut bt.target),
            LowOp::Op(Op::BrTable(table)) => {
                for bt in table.iter_mut() {
                    remap(&mut bt.target);
                }
            }
            LowOp::Op(Op::Jump(t) | Op::JumpIfZero(t))
            | LowOp::CmpJumpIfNot { target: t, .. }
            | LowOp::LocalConstCmpJumpIfNot { target: t, .. }
            | LowOp::LocalsCmpJumpIfNot { target: t, .. } => remap(t),
            _ => {}
        }
    }

    LowFunc { ops, costs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::CompiledModule;
    use crate::instr::{BlockType, Instr, MemArg};
    use crate::module::ModuleBuilder;
    use crate::types::{FuncType, Limits, ValType, Value};

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
        let base = &cm.funcs[0];
        let low = fuse(base);
        assert!(
            low.ops.len() < base.ops.len(),
            "no fusion: {} vs {}",
            low.ops.len(),
            base.ops.len()
        );
        // Conservation: every baseline op is covered exactly once.
        assert_eq!(low.covered_ops(), base.ops.len());
        // The loop step and latch fused.
        assert!(low
            .ops
            .iter()
            .any(|op| matches!(op, LowOp::LocalConstIBinopSet { .. })));
        assert!(low
            .ops
            .iter()
            .any(|op| matches!(op, LowOp::LocalConstCmpBrIf { .. })));
    }

    #[test]
    fn fused_latch_target_points_at_loop_head() {
        let cm = compile_body(counted_loop_body(), vec![]);
        let low = fuse(&cm.funcs[0]);
        let latch = low
            .ops
            .iter()
            .find_map(|op| match op {
                LowOp::LocalConstCmpBrIf { bt, .. } => Some(*bt),
                _ => None,
            })
            .expect("fused latch");
        // The loop head is the fused `i += 1` step.
        assert!(matches!(
            low.ops[latch.target as usize],
            LowOp::LocalConstIBinopSet { .. }
        ));
    }

    #[test]
    fn classes_are_preserved_as_a_multiset() {
        let cm = compile_body(counted_loop_body(), vec![]);
        let base = &cm.funcs[0];
        let low = fuse(base);
        let mut base_counts = [0u64; crate::meter::NUM_CLASSES];
        for c in &base.classes {
            base_counts[c.index()] += 1;
        }
        let mut low_counts = [0u64; crate::meter::NUM_CLASSES];
        for cost in &low.costs {
            for c in &cost.classes[..cost.len as usize] {
                low_counts[c.index()] += 1;
            }
        }
        assert_eq!(base_counts, low_counts);
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
        let low = fuse(&cm.funcs[0]);
        // The br_if target must resolve to a real lowered op (debug_assert
        // in `fuse` already guards the MAX case; check structure here).
        let bt = low
            .ops
            .iter()
            .find_map(|op| match op {
                LowOp::EqzBrIf { bt, .. } | LowOp::Op(Op::BrIf(bt)) => Some(*bt),
                _ => None,
            })
            .expect("br_if survives");
        assert!((bt.target as usize) < low.ops.len());
        // The first const stays un-fused with the block interior.
        assert_eq!(low.covered_ops(), cm.funcs[0].ops.len());
    }

    #[test]
    fn div_never_fuses_into_window_interior() {
        use crate::instr::{IBinOp, IntWidth};
        // local.get 0; const 0; div_s; local.set 1 — the div may trap, so
        // the 4-wide read-modify-write pattern must not swallow it; the
        // 3-wide LocalConstIBinop (div last) is fine.
        let body = vec![
            Instr::LocalGet(0),
            Instr::Const(Value::I32(0)),
            Instr::IBinop(IntWidth::W32, IBinOp::DivS),
            Instr::LocalSet(1),
        ];
        let cm = compile_body(body, vec![]);
        let low = fuse(&cm.funcs[0]);
        assert!(low
            .ops
            .iter()
            .all(|op| !matches!(op, LowOp::LocalConstIBinopSet { .. })));
        assert!(low.ops.iter().any(|op| matches!(
            op,
            LowOp::LocalConstIBinop {
                op: IBinOp::DivS,
                ..
            }
        )));
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
        let low = fuse(&cm.funcs[0]);
        assert!(low
            .ops
            .iter()
            .any(|op| matches!(op, LowOp::ConstIBinopLoad { .. })));
        assert_eq!(low.covered_ops(), cm.funcs[0].ops.len());
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
        let low = fuse(&cm.funcs[0]);
        assert!(low
            .ops
            .iter()
            .any(|op| matches!(op, LowOp::ConstLoad { .. })));
        assert!(low
            .ops
            .iter()
            .any(|op| matches!(op, LowOp::ConstFBinopStore { .. })));
    }
}
