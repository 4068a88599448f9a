//! Register allocation over the fused IR — the register tier, the
//! executor every serving path runs.
//!
//! The reference interpreter ([`crate::lower::ExecTier::Baseline`]) moves
//! every operand through a `Vec` push/pop pair and pays a fuel branch plus
//! a metering update on every op. This pass removes all three costs on
//! straight-line code, the wasm3-style
//! register-interpreter design the runtime survey identifies as the
//! fastest non-JIT tier:
//!
//! 1. **Operand-stack elimination.** Because the module is validated, the
//!    operand-stack depth before every fused op is a static property of
//!    its program point. The pass runs a forward depth analysis over the
//!    fused code and maps stack position `x` to *frame slot*
//!    `n_locals + x` — locals and spill slots unified in one flat `[u64]`
//!    slab. Every fused op becomes a three-address [`RegOp`] with its
//!    source/destination slots encoded inline, so the engine's register
//!    loop performs zero `Vec` traffic: no length updates, no capacity
//!    checks, no push/pop.
//! 2. **Zero-copy calls.** A call's arguments already sit in the caller's
//!    top-of-frame slots; the callee's frame *base* is placed exactly
//!    there, so the caller's argument slots **are** the callee's first
//!    parameter locals and the callee's results land where the caller
//!    expects them — no argument or result copying at all.
//! 3. **Block-level fuel and metering batching.** Every pc a control
//!    transfer can land on (function entry, branch target, the op after a
//!    call or a not-taken branch) is a *leader*; from each leader a
//!    charge *region* extends up to and including the next control op
//!    ([`BlockMeter`]). The engine charges a region's total fuel and
//!    sparse per-class constituent counts once, **at the control transfer
//!    that enters it** — taken branch, fall-through past a branch, call,
//!    return — and then executes the whole region with *no* per-op fuel
//!    branch, metering loop, or leader lookup: straight-line code pays
//!    zero accounting. Exactness is preserved in both cold cases: if a
//!    region's total exceeds the remaining fuel the engine falls back to
//!    per-op charging inside that region (so the out-of-fuel trap point
//!    and the partially metered stream are bit-identical to the baseline
//!    tier), and if an op traps mid-region the engine rolls back the fuel
//!    and class counts of the ops after the trap point (which never
//!    executed). See `run_reg` in [`crate::exec`] and the proof sketch in
//!    DESIGN.md §8.
//!
//! The emitted code is **parallel** to the fused IR — one `RegOp` per
//! fused op, same indices — so branch targets and the per-op [`OpCost`]
//! records carry over unchanged, and the conservation invariant of
//! [`crate::lower`] (every baseline instruction metered exactly once)
//! holds by construction.

use crate::compile::{BranchTarget, CompiledFunc, Op};
use crate::instr::{CvtOp, FBinOp, FRelOp, FUnOp, FloatWidth, IBinOp, IRelOp, IUnOp, IntWidth};
use crate::instr::{LoadKind, StoreKind};
use crate::lower::{LowFunc, LowOp, OpCost};
use crate::meter::NUM_CLASSES;
use crate::module::Module;

/// A resolved branch edge: jump to `target` after copying the `arity`
/// values carried across the branch from slots `from..from+arity` down to
/// `to..to+arity` (both ends statically resolved from the branch point's
/// stack depth and the label's height — the register tier never adjusts a
/// stack length at run time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegBranch {
    /// Destination op index (same index space as the fused IR).
    pub target: u32,
    /// First source slot of the carried values.
    pub from: u32,
    /// First destination slot of the carried values.
    pub to: u32,
    /// Number of values carried (0 or 1 in MVP).
    pub arity: u8,
}

impl RegBranch {
    fn new(bt: &BranchTarget, depth_after_pops: u32, n_locals: u32) -> Self {
        RegBranch {
            target: bt.target,
            from: n_locals + depth_after_pops - u32::from(bt.arity),
            to: n_locals + bt.height,
            arity: bt.arity,
        }
    }

    fn dest_depth(bt: &BranchTarget) -> u32 {
        bt.height + u32::from(bt.arity)
    }
}

/// A three-address register instruction. All `dst`/`a`/`b`/… fields are
/// frame-slot indices (relative to the frame base); locals occupy slots
/// `0..n_locals` and former stack positions follow.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // field meanings are uniform: slot operands + the same payloads as `LowOp`
pub enum RegOp {
    /// No observable effect (a `drop` — the value simply stays dead in its
    /// slot). Metering still applies through the parallel [`OpCost`].
    Nop,
    Unreachable,
    Br(RegBranch),
    BrIf { cond: u32, br: RegBranch },
    BrTable { idx: u32, table: Box<[RegBranch]> },
    Jump(u32),
    JumpIfZero { cond: u32, target: u32 },
    /// Return/end: copy `n` results from `from..` down to frame slot 0
    /// (where the caller's argument slots were) and pop the frame.
    Ret { from: u32, n: u8 },
    /// Call a unified function index; `base` is the slot where the
    /// arguments begin — and, for a guest callee, its new frame base.
    Call { func: u32, base: u32 },
    CallIndirect { type_idx: u32, idx: u32, base: u32 },
    Select { dst: u32, a: u32, b: u32, cond: u32 },
    /// `slab[dst] = slab[src]` — local.get/set/tee collapse to this.
    Copy { dst: u32, src: u32 },
    /// Two back-to-back copies (`local.set s; local.get g`).
    CopyPair { d1: u32, s1: u32, d2: u32, s2: u32 },
    GlobalGet { dst: u32, idx: u32 },
    GlobalSet { src: u32, idx: u32 },
    Const { dst: u32, bits: u64 },
    MemorySize { dst: u32 },
    MemoryGrow { dst: u32, delta: u32 },
    MemoryCopy { dst: u32, src: u32, len: u32 },
    MemoryFill { dst: u32, val: u32, len: u32 },
    Eqz { w: IntWidth, dst: u32, src: u32 },
    IUnop { w: IntWidth, op: IUnOp, dst: u32, src: u32 },
    /// The universal three-address integer ALU form: covers the plain
    /// stack binop and every `local`-operand / `local.set`-destination
    /// fusion.
    IBinop { w: IntWidth, op: IBinOp, dst: u32, a: u32, b: u32 },
    IBinopImm { w: IntWidth, op: IBinOp, dst: u32, a: u32, rhs: u64 },
    /// `slab[dst] = op2(op1(slab[a], rhs), slab[b])` — the 2-D index idiom.
    IBinop2Imm { w: IntWidth, op1: IBinOp, op2: IBinOp, dst: u32, a: u32, rhs: u64, b: u32 },
    IRelop { w: IntWidth, op: IRelOp, dst: u32, a: u32, b: u32 },
    FUnop { w: FloatWidth, op: FUnOp, dst: u32, src: u32 },
    FBinop { w: FloatWidth, op: FBinOp, dst: u32, a: u32, b: u32 },
    FBinopImm { w: FloatWidth, op: FBinOp, dst: u32, a: u32, rhs: u64 },
    /// `slab[dst] = op2(slab[c], op1(slab[a], slab[b]))` — the
    /// multiply-accumulate tail ([`LowOp::FBinop2`]).
    FBinop2 { w1: FloatWidth, op1: FBinOp, w2: FloatWidth, op2: FBinOp, dst: u32, c: u32, a: u32, b: u32 },
    FRelop { w: FloatWidth, op: FRelOp, dst: u32, a: u32, b: u32 },
    Cvt { op: CvtOp, dst: u32, src: u32 },
    Load { kind: LoadKind, offset: u32, dst: u32, addr: u32 },
    LoadConstAddr { kind: LoadKind, offset: u32, dst: u32, addr: u64 },
    /// Load whose address is also teed into a local slot first.
    LoadTee { kind: LoadKind, offset: u32, dst: u32, addr: u32, tee: u32 },
    /// Load from `op(slab[a], slab[b])` (address computation folded in).
    LoadIdx { w: IntWidth, op: IBinOp, kind: LoadKind, offset: u32, dst: u32, a: u32, b: u32 },
    LoadIdxImm { w: IntWidth, op: IBinOp, kind: LoadKind, offset: u32, dst: u32, a: u32, rhs: u64 },
    Store { kind: StoreKind, offset: u32, addr: u32, val: u32 },
    StoreConst { kind: StoreKind, offset: u32, addr: u32, bits: u64 },
    /// Store `op(slab[a], slab[b])` (value computation folded in).
    StoreI { w: IntWidth, op: IBinOp, kind: StoreKind, offset: u32, addr: u32, a: u32, b: u32 },
    StoreF { w: FloatWidth, op: FBinOp, kind: StoreKind, offset: u32, addr: u32, a: u32, b: u32 },
    StoreFImm { w: FloatWidth, op: FBinOp, kind: StoreKind, offset: u32, addr: u32, a: u32, rhs: u64 },
    /// Compare-and-branch; `invert` selects the `eqz`-latch (branch when
    /// the comparison *fails*) forms.
    CmpBr { w: IntWidth, op: IRelOp, a: u32, b: u32, invert: bool, br: RegBranch },
    CmpImmBr { w: IntWidth, op: IRelOp, a: u32, rhs: u64, invert: bool, br: RegBranch },
    EqzBr { w: IntWidth, v: u32, br: RegBranch },
    /// Structured-`if` entry test: jump to `target` when the comparison
    /// fails (no value transfer).
    CmpJumpIfNot { w: IntWidth, op: IRelOp, a: u32, b: u32, target: u32 },
    CmpImmJumpIfNot { w: IntWidth, op: IRelOp, a: u32, rhs: u64, target: u32 },
}

/// Per-region charge, applied once when a control transfer enters the
/// region at a leader: the total fuel (constituent count) and per-class
/// constituent counts of the ops from that leader up to and including the
/// next control op. The class counts are stored **sparsely** (most
/// regions touch 2–4 of the 11 classes), so the charge cost is
/// proportional to the region's class diversity, not to `NUM_CLASSES`.
#[derive(Debug, Clone)]
pub struct BlockMeter {
    /// One past the region's terminating control op.
    pub end: u32,
    /// Total fuel of the region (sum of `OpCost::len`).
    pub fuel: u64,
    /// Sparse per-class constituent counts: `(InstrClass::index, count)`
    /// pairs for the classes the region retires.
    pub classes: Box<[(u8, u32)]>,
}

/// A function body in the register tier, parallel to the fused [`LowFunc`]
/// it was allocated from (same op indices, same branch-target space, same
/// per-op costs).
#[derive(Debug, Clone)]
pub struct RegFunc {
    /// Register code, one op per fused op.
    pub ops: Vec<RegOp>,
    /// Metering record per op (the fused op's [`OpCost`], verbatim).
    pub costs: Vec<OpCost>,
    /// Frame size in slots: locals plus the maximum operand-stack depth.
    pub n_slots: u32,
    /// Per-op region handle: `region_idx + 1` on a leader (the only pcs a
    /// control transfer can land on), 0 elsewhere.
    pub block_of: Vec<u32>,
    /// Charge regions, indexed by `block_of[leader] - 1`.
    pub blocks: Vec<BlockMeter>,
    /// This function's offset into the module-wide region-hit-counter
    /// array (assigned by the compile pass; the engine counts region
    /// entries per invocation and folds `hits × classes` into the meter
    /// once at the end).
    pub region_base: u32,
}

/// Net operand-stack effect of a non-control fused op (pops, pushes).
/// Control ops (branches, calls, returns) are handled explicitly by the
/// depth analysis.
fn stack_effect(op: &LowOp) -> (u32, u32) {
    use LowOp as L;
    match op {
        L::Op(Op::Drop)
        | L::Op(Op::LocalSet(_))
        | L::Op(Op::GlobalSet(_))
        | L::StoreConst { .. }
        | L::StoreLocal { .. }
        | L::IBinopLoad { .. } => (1, 0),
        L::Op(Op::Select) => (3, 1),
        L::Op(Op::LocalGet(_))
        | L::Op(Op::GlobalGet(_))
        | L::Op(Op::MemorySize)
        | L::Op(Op::Const(_))
        | L::LocalsIBinop { .. }
        | L::LocalsFBinop { .. }
        | L::LocalConstIBinop { .. }
        | L::LocalConstFBinop { .. }
        | L::LocalConstLocalIBinop2 { .. }
        | L::ConstLoad { .. }
        | L::LocalLoad { .. } => (0, 1),
        L::Op(Op::LocalTee(_)) | L::LocalConstIBinopSet { .. } | L::ConstLocalSet { .. } => (0, 0),
        L::Op(Op::Load(..))
        | L::Op(Op::MemoryGrow)
        | L::Op(Op::ITestEqz(_))
        | L::Op(Op::IUnop(..))
        | L::Op(Op::FUnop(..))
        | L::Op(Op::Cvt(_))
        | L::ConstIBinop { .. }
        | L::ConstFBinop { .. }
        | L::LocalIBinop { .. }
        | L::LocalFBinop { .. }
        | L::LocalSetLocalGet { .. }
        | L::TeeLoad { .. }
        | L::ConstIBinopLoad { .. }
        | L::LocalIBinopLoad { .. } => (1, 1),
        L::Op(Op::Store(..)) | L::IBinopLocalSet { .. } | L::FBinopLocalSet { .. } => (2, 0),
        L::Op(Op::MemoryCopy)
        | L::Op(Op::MemoryFill)
        | L::FBinopStore { .. }
        | L::IBinopStore { .. } => (3, 0),
        L::Op(Op::IBinop(..) | Op::IRelop(..) | Op::FBinop(..) | Op::FRelop(..)) => (2, 1),
        L::FBinop2 { .. } => (3, 1),
        L::ConstFBinopStore { .. } | L::LocalFBinopStore { .. } => (2, 0),
        // Control ops never reach this function.
        L::Op(
            Op::Unreachable
            | Op::Br(_)
            | Op::BrIf(_)
            | Op::BrTable(_)
            | Op::Jump(_)
            | Op::JumpIfZero(_)
            | Op::Return
            | Op::End
            | Op::Call(_)
            | Op::CallIndirect(_),
        )
        | L::CmpBrIf { .. }
        | L::CmpEqzBrIf { .. }
        | L::EqzBrIf { .. }
        | L::CmpJumpIfNot { .. }
        | L::LocalConstCmpBrIf { .. }
        | L::LocalConstCmpEqzBrIf { .. }
        | L::LocalsCmpBrIf { .. }
        | L::LocalsCmpEqzBrIf { .. }
        | L::LocalConstCmpJumpIfNot { .. }
        | L::LocalsCmpJumpIfNot { .. } => unreachable!("control op in stack_effect"),
    }
}

/// Does this op terminate a basic block (the following op is a leader)?
fn ends_block(op: &LowOp) -> bool {
    matches!(
        op,
        LowOp::Op(
            Op::Unreachable
                | Op::Br(_)
                | Op::BrIf(_)
                | Op::BrTable(_)
                | Op::Jump(_)
                | Op::JumpIfZero(_)
                | Op::Return
                | Op::End
                | Op::Call(_)
                | Op::CallIndirect(_)
        ) | LowOp::CmpBrIf { .. }
            | LowOp::CmpEqzBrIf { .. }
            | LowOp::EqzBrIf { .. }
            | LowOp::CmpJumpIfNot { .. }
            | LowOp::LocalConstCmpBrIf { .. }
            | LowOp::LocalConstCmpEqzBrIf { .. }
            | LowOp::LocalsCmpBrIf { .. }
            | LowOp::LocalsCmpEqzBrIf { .. }
            | LowOp::LocalConstCmpJumpIfNot { .. }
            | LowOp::LocalsCmpJumpIfNot { .. }
    )
}

/// Allocate registers for one fused function body.
///
/// `module` supplies callee signatures (argument/result arities feed the
/// depth analysis and the zero-copy call frame bases).
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn regalloc_func(module: &Module, f: &CompiledFunc, low: &LowFunc) -> RegFunc {
    let n = low.ops.len();
    let nl = f.n_locals as u32;
    let s = |d: u32| nl + d;

    // Forward depth analysis: the operand depth before each reachable op.
    let mut depth: Vec<Option<u32>> = vec![None; n];
    let mut ops: Vec<Option<RegOp>> = vec![None; n];
    let mut work: Vec<usize> = Vec::with_capacity(16);
    let mut max_d = 0u32;
    if n > 0 {
        depth[0] = Some(0);
        work.push(0);
    }
    while let Some(pc) = work.pop() {
        let d = depth[pc].expect("enqueued with a depth");
        max_d = max_d.max(d);
        let mut succs: [Option<(u32, u32)>; 2] = [None, None];
        let mut table_succs: Vec<(u32, u32)> = Vec::new();
        use LowOp as L;
        let rop = match &low.ops[pc] {
            L::Op(Op::Unreachable) => RegOp::Unreachable,
            L::Op(Op::Br(bt)) => {
                succs[0] = Some((bt.target, RegBranch::dest_depth(bt)));
                RegOp::Br(RegBranch::new(bt, d, nl))
            }
            L::Op(Op::BrIf(bt)) => {
                succs[0] = Some((bt.target, RegBranch::dest_depth(bt)));
                succs[1] = Some((pc as u32 + 1, d - 1));
                RegOp::BrIf {
                    cond: s(d - 1),
                    br: RegBranch::new(bt, d - 1, nl),
                }
            }
            L::Op(Op::BrTable(table)) => {
                let regs: Vec<RegBranch> = table
                    .iter()
                    .map(|bt| {
                        table_succs.push((bt.target, RegBranch::dest_depth(bt)));
                        RegBranch::new(bt, d - 1, nl)
                    })
                    .collect();
                RegOp::BrTable {
                    idx: s(d - 1),
                    table: regs.into_boxed_slice(),
                }
            }
            L::Op(Op::Jump(t)) => {
                succs[0] = Some((*t, d));
                RegOp::Jump(*t)
            }
            L::Op(Op::JumpIfZero(t)) => {
                succs[0] = Some((*t, d - 1));
                succs[1] = Some((pc as u32 + 1, d - 1));
                RegOp::JumpIfZero {
                    cond: s(d - 1),
                    target: *t,
                }
            }
            L::Op(Op::Return | Op::End) => {
                let nr = f.n_results as u32;
                RegOp::Ret {
                    from: s(d - nr),
                    n: f.n_results as u8,
                }
            }
            L::Op(Op::Call(g)) => {
                let ty = module.func_type(*g).expect("validated call");
                let (np, nr) = (ty.params.len() as u32, ty.results.len() as u32);
                succs[0] = Some((pc as u32 + 1, d - np + nr));
                RegOp::Call {
                    func: *g,
                    base: s(d - np),
                }
            }
            L::Op(Op::CallIndirect(type_idx)) => {
                let ty = &module.types[*type_idx as usize];
                let (np, nr) = (ty.params.len() as u32, ty.results.len() as u32);
                succs[0] = Some((pc as u32 + 1, d - 1 - np + nr));
                RegOp::CallIndirect {
                    type_idx: *type_idx,
                    idx: s(d - 1),
                    base: s(d - 1 - np),
                }
            }
            L::Op(Op::Drop) => RegOp::Nop,
            L::Op(Op::Select) => RegOp::Select {
                dst: s(d - 3),
                a: s(d - 3),
                b: s(d - 2),
                cond: s(d - 1),
            },
            L::Op(Op::LocalGet(i)) => RegOp::Copy { dst: s(d), src: *i },
            L::Op(Op::LocalSet(i) | Op::LocalTee(i)) => RegOp::Copy {
                dst: *i,
                src: s(d - 1),
            },
            L::Op(Op::GlobalGet(i)) => RegOp::GlobalGet { dst: s(d), idx: *i },
            L::Op(Op::GlobalSet(i)) => RegOp::GlobalSet {
                src: s(d - 1),
                idx: *i,
            },
            L::Op(Op::Load(kind, off)) => RegOp::Load {
                kind: *kind,
                offset: *off,
                dst: s(d - 1),
                addr: s(d - 1),
            },
            L::Op(Op::Store(kind, off)) => RegOp::Store {
                kind: *kind,
                offset: *off,
                addr: s(d - 2),
                val: s(d - 1),
            },
            L::Op(Op::MemorySize) => RegOp::MemorySize { dst: s(d) },
            L::Op(Op::MemoryGrow) => RegOp::MemoryGrow {
                dst: s(d - 1),
                delta: s(d - 1),
            },
            L::Op(Op::MemoryCopy) => RegOp::MemoryCopy {
                dst: s(d - 3),
                src: s(d - 2),
                len: s(d - 1),
            },
            L::Op(Op::MemoryFill) => RegOp::MemoryFill {
                dst: s(d - 3),
                val: s(d - 2),
                len: s(d - 1),
            },
            L::Op(Op::Const(bits)) => RegOp::Const {
                dst: s(d),
                bits: *bits,
            },
            L::Op(Op::ITestEqz(w)) => RegOp::Eqz {
                w: *w,
                dst: s(d - 1),
                src: s(d - 1),
            },
            L::Op(Op::IUnop(w, op)) => RegOp::IUnop {
                w: *w,
                op: *op,
                dst: s(d - 1),
                src: s(d - 1),
            },
            L::Op(Op::IBinop(w, op)) => RegOp::IBinop {
                w: *w,
                op: *op,
                dst: s(d - 2),
                a: s(d - 2),
                b: s(d - 1),
            },
            L::Op(Op::IRelop(w, op)) => RegOp::IRelop {
                w: *w,
                op: *op,
                dst: s(d - 2),
                a: s(d - 2),
                b: s(d - 1),
            },
            L::Op(Op::FUnop(w, op)) => RegOp::FUnop {
                w: *w,
                op: *op,
                dst: s(d - 1),
                src: s(d - 1),
            },
            L::Op(Op::FBinop(w, op)) => RegOp::FBinop {
                w: *w,
                op: *op,
                dst: s(d - 2),
                a: s(d - 2),
                b: s(d - 1),
            },
            L::Op(Op::FRelop(w, op)) => RegOp::FRelop {
                w: *w,
                op: *op,
                dst: s(d - 2),
                a: s(d - 2),
                b: s(d - 1),
            },
            L::Op(Op::Cvt(op)) => RegOp::Cvt {
                op: *op,
                dst: s(d - 1),
                src: s(d - 1),
            },

            // ---- fused ALU forms -----------------------------------------
            L::LocalsIBinop { w, op, a, b } => RegOp::IBinop {
                w: *w,
                op: *op,
                dst: s(d),
                a: *a,
                b: *b,
            },
            L::LocalsFBinop { w, op, a, b } => RegOp::FBinop {
                w: *w,
                op: *op,
                dst: s(d),
                a: *a,
                b: *b,
            },
            L::LocalConstIBinop { w, op, local, rhs } => RegOp::IBinopImm {
                w: *w,
                op: *op,
                dst: s(d),
                a: *local,
                rhs: *rhs,
            },
            L::LocalConstFBinop { w, op, local, rhs } => RegOp::FBinopImm {
                w: *w,
                op: *op,
                dst: s(d),
                a: *local,
                rhs: *rhs,
            },
            L::ConstIBinop { w, op, rhs } => RegOp::IBinopImm {
                w: *w,
                op: *op,
                dst: s(d - 1),
                a: s(d - 1),
                rhs: *rhs,
            },
            L::ConstFBinop { w, op, rhs } => RegOp::FBinopImm {
                w: *w,
                op: *op,
                dst: s(d - 1),
                a: s(d - 1),
                rhs: *rhs,
            },
            L::LocalIBinop { w, op, local } => RegOp::IBinop {
                w: *w,
                op: *op,
                dst: s(d - 1),
                a: s(d - 1),
                b: *local,
            },
            L::LocalFBinop { w, op, local } => RegOp::FBinop {
                w: *w,
                op: *op,
                dst: s(d - 1),
                a: s(d - 1),
                b: *local,
            },
            L::LocalConstIBinopSet {
                w,
                op,
                src,
                rhs,
                dst,
            } => RegOp::IBinopImm {
                w: *w,
                op: *op,
                dst: *dst,
                a: *src,
                rhs: *rhs,
            },
            L::ConstLocalSet { bits, dst } => RegOp::Const {
                dst: *dst,
                bits: *bits,
            },
            L::LocalConstLocalIBinop2 {
                w,
                op1,
                op2,
                a,
                rhs,
                b,
            } => RegOp::IBinop2Imm {
                w: *w,
                op1: *op1,
                op2: *op2,
                dst: s(d),
                a: *a,
                rhs: *rhs,
                b: *b,
            },
            L::FBinop2 { w1, op1, w2, op2 } => RegOp::FBinop2 {
                w1: *w1,
                op1: *op1,
                w2: *w2,
                op2: *op2,
                dst: s(d - 3),
                c: s(d - 3),
                a: s(d - 2),
                b: s(d - 1),
            },
            L::IBinopLocalSet { w, op, dst } => RegOp::IBinop {
                w: *w,
                op: *op,
                dst: *dst,
                a: s(d - 2),
                b: s(d - 1),
            },
            L::FBinopLocalSet { w, op, dst } => RegOp::FBinop {
                w: *w,
                op: *op,
                dst: *dst,
                a: s(d - 2),
                b: s(d - 1),
            },
            L::LocalSetLocalGet { set, get } => RegOp::CopyPair {
                d1: *set,
                s1: s(d - 1),
                d2: s(d - 1),
                s2: *get,
            },

            // ---- fused memory forms --------------------------------------
            L::ConstLoad { addr, kind, offset } => RegOp::LoadConstAddr {
                kind: *kind,
                offset: *offset,
                dst: s(d),
                addr: *addr,
            },
            L::LocalLoad {
                local,
                kind,
                offset,
            } => RegOp::Load {
                kind: *kind,
                offset: *offset,
                dst: s(d),
                addr: *local,
            },
            L::TeeLoad {
                local,
                kind,
                offset,
            } => RegOp::LoadTee {
                kind: *kind,
                offset: *offset,
                dst: s(d - 1),
                addr: s(d - 1),
                tee: *local,
            },
            L::ConstIBinopLoad {
                w,
                op,
                rhs,
                kind,
                offset,
            } => RegOp::LoadIdxImm {
                w: *w,
                op: *op,
                kind: *kind,
                offset: *offset,
                dst: s(d - 1),
                a: s(d - 1),
                rhs: *rhs,
            },
            L::LocalIBinopLoad {
                w,
                op,
                local,
                kind,
                offset,
            } => RegOp::LoadIdx {
                w: *w,
                op: *op,
                kind: *kind,
                offset: *offset,
                dst: s(d - 1),
                a: s(d - 1),
                b: *local,
            },
            L::IBinopLoad {
                w,
                op,
                kind,
                offset,
            } => RegOp::LoadIdx {
                w: *w,
                op: *op,
                kind: *kind,
                offset: *offset,
                dst: s(d - 2),
                a: s(d - 2),
                b: s(d - 1),
            },
            L::StoreConst { bits, kind, offset } => RegOp::StoreConst {
                kind: *kind,
                offset: *offset,
                addr: s(d - 1),
                bits: *bits,
            },
            L::StoreLocal {
                local,
                kind,
                offset,
            } => RegOp::Store {
                kind: *kind,
                offset: *offset,
                addr: s(d - 1),
                val: *local,
            },
            L::ConstFBinopStore {
                w,
                op,
                rhs,
                kind,
                offset,
            } => RegOp::StoreFImm {
                w: *w,
                op: *op,
                kind: *kind,
                offset: *offset,
                addr: s(d - 2),
                a: s(d - 1),
                rhs: *rhs,
            },
            L::LocalFBinopStore {
                w,
                op,
                local,
                kind,
                offset,
            } => RegOp::StoreF {
                w: *w,
                op: *op,
                kind: *kind,
                offset: *offset,
                addr: s(d - 2),
                a: s(d - 1),
                b: *local,
            },
            L::FBinopStore {
                w,
                op,
                kind,
                offset,
            } => RegOp::StoreF {
                w: *w,
                op: *op,
                kind: *kind,
                offset: *offset,
                addr: s(d - 3),
                a: s(d - 2),
                b: s(d - 1),
            },
            L::IBinopStore {
                w,
                op,
                kind,
                offset,
            } => RegOp::StoreI {
                w: *w,
                op: *op,
                kind: *kind,
                offset: *offset,
                addr: s(d - 3),
                a: s(d - 2),
                b: s(d - 1),
            },

            // ---- fused compare-and-branch forms --------------------------
            L::CmpBrIf { w, op, bt } | L::CmpEqzBrIf { w, op, bt } => {
                succs[0] = Some((bt.target, RegBranch::dest_depth(bt)));
                succs[1] = Some((pc as u32 + 1, d - 2));
                RegOp::CmpBr {
                    w: *w,
                    op: *op,
                    a: s(d - 2),
                    b: s(d - 1),
                    invert: matches!(&low.ops[pc], L::CmpEqzBrIf { .. }),
                    br: RegBranch::new(bt, d - 2, nl),
                }
            }
            L::EqzBrIf { w, bt } => {
                succs[0] = Some((bt.target, RegBranch::dest_depth(bt)));
                succs[1] = Some((pc as u32 + 1, d - 1));
                RegOp::EqzBr {
                    w: *w,
                    v: s(d - 1),
                    br: RegBranch::new(bt, d - 1, nl),
                }
            }
            L::CmpJumpIfNot { w, op, target } => {
                succs[0] = Some((*target, d - 2));
                succs[1] = Some((pc as u32 + 1, d - 2));
                RegOp::CmpJumpIfNot {
                    w: *w,
                    op: *op,
                    a: s(d - 2),
                    b: s(d - 1),
                    target: *target,
                }
            }
            L::LocalConstCmpBrIf {
                w,
                op,
                local,
                rhs,
                bt,
            }
            | L::LocalConstCmpEqzBrIf {
                w,
                op,
                local,
                rhs,
                bt,
            } => {
                succs[0] = Some((bt.target, RegBranch::dest_depth(bt)));
                succs[1] = Some((pc as u32 + 1, d));
                RegOp::CmpImmBr {
                    w: *w,
                    op: *op,
                    a: *local,
                    rhs: *rhs,
                    invert: matches!(&low.ops[pc], L::LocalConstCmpEqzBrIf { .. }),
                    br: RegBranch::new(bt, d, nl),
                }
            }
            L::LocalsCmpBrIf { w, op, a, b, bt } | L::LocalsCmpEqzBrIf { w, op, a, b, bt } => {
                succs[0] = Some((bt.target, RegBranch::dest_depth(bt)));
                succs[1] = Some((pc as u32 + 1, d));
                RegOp::CmpBr {
                    w: *w,
                    op: *op,
                    a: *a,
                    b: *b,
                    invert: matches!(&low.ops[pc], L::LocalsCmpEqzBrIf { .. }),
                    br: RegBranch::new(bt, d, nl),
                }
            }
            L::LocalConstCmpJumpIfNot {
                w,
                op,
                local,
                rhs,
                target,
            } => {
                succs[0] = Some((*target, d));
                succs[1] = Some((pc as u32 + 1, d));
                RegOp::CmpImmJumpIfNot {
                    w: *w,
                    op: *op,
                    a: *local,
                    rhs: *rhs,
                    target: *target,
                }
            }
            L::LocalsCmpJumpIfNot { w, op, a, b, target } => {
                succs[0] = Some((*target, d));
                succs[1] = Some((pc as u32 + 1, d));
                RegOp::CmpJumpIfNot {
                    w: *w,
                    op: *op,
                    a: *a,
                    b: *b,
                    target: *target,
                }
            }
        };
        // Non-control ops fall through to pc + 1 with their net effect.
        let is_fallthrough_only = succs[0].is_none() && table_succs.is_empty();
        if is_fallthrough_only
            && !matches!(&low.ops[pc], L::Op(Op::Unreachable | Op::Return | Op::End))
        {
            let (pops, pushes) = stack_effect(&low.ops[pc]);
            succs[0] = Some((pc as u32 + 1, d - pops + pushes));
        }
        ops[pc] = Some(rop);
        for (t, dt) in succs.iter().flatten().copied().chain(table_succs) {
            max_d = max_d.max(dt);
            let t = t as usize;
            match depth[t] {
                None => {
                    depth[t] = Some(dt);
                    work.push(t);
                }
                // Hard assert (compile-time cost only, one compare per
                // edge): a depth mismatch at a join would silently emit
                // wrong slot assignments in release builds otherwise.
                Some(prev) => assert_eq!(prev, dt, "inconsistent depth at join {t}"),
            }
        }
    }

    // Unreachable ops never execute; keep them trapping if they somehow do.
    let ops: Vec<RegOp> = ops
        .into_iter()
        .map(|o| o.unwrap_or(RegOp::Unreachable))
        .collect();

    // Basic blocks: leaders are op 0, every branch/jump target, and the op
    // after any control op.
    let mut leader = vec![false; n];
    if n > 0 {
        leader[0] = true;
    }
    for (pc, op) in low.ops.iter().enumerate() {
        if ends_block(op) && pc + 1 < n {
            leader[pc + 1] = true;
        }
        match op {
            LowOp::Op(Op::Br(bt) | Op::BrIf(bt))
            | LowOp::CmpBrIf { bt, .. }
            | LowOp::CmpEqzBrIf { bt, .. }
            | LowOp::EqzBrIf { bt, .. }
            | LowOp::LocalConstCmpBrIf { bt, .. }
            | LowOp::LocalConstCmpEqzBrIf { bt, .. }
            | LowOp::LocalsCmpBrIf { bt, .. }
            | LowOp::LocalsCmpEqzBrIf { bt, .. } => leader[bt.target as usize] = true,
            LowOp::Op(Op::BrTable(table)) => {
                for bt in table.iter() {
                    leader[bt.target as usize] = true;
                }
            }
            LowOp::Op(Op::Jump(t) | Op::JumpIfZero(t))
            | LowOp::CmpJumpIfNot { target: t, .. }
            | LowOp::LocalConstCmpJumpIfNot { target: t, .. }
            | LowOp::LocalsCmpJumpIfNot { target: t, .. } => leader[*t as usize] = true,
            _ => {}
        }
    }
    // A *region* runs from a leader through any interior leaders (targets
    // that are also reached by fall-through) up to and including the next
    // control op. The engine charges a region's whole fuel/metering at
    // every control transfer (branch taken or not, call return, frame
    // entry) — which always lands on a leader — so straight-line execution
    // pays zero per-op accounting. Regions overlap in their suffixes;
    // every op is still charged exactly once per execution, because the
    // only way past a control op is another control transfer.
    let mut block_of = vec![0u32; n];
    let mut blocks: Vec<BlockMeter> = Vec::new();
    for l in 0..n {
        if !leader[l] {
            continue;
        }
        let mut end = l;
        while !ends_block(&low.ops[end]) {
            end += 1;
        }
        end += 1; // include the control op
        let mut fuel = 0u64;
        let mut dense = [0u32; NUM_CLASSES];
        for cost in &low.costs[l..end] {
            fuel += u64::from(cost.len);
            for c in &cost.classes[..cost.len as usize] {
                dense[c.index()] += 1;
            }
        }
        let classes: Box<[(u8, u32)]> = dense
            .iter()
            .enumerate()
            .filter(|(_, n)| **n > 0)
            .map(|(i, n)| (i as u8, *n))
            .collect();
        block_of[l] = blocks.len() as u32 + 1;
        blocks.push(BlockMeter {
            end: end as u32,
            fuel,
            classes,
        });
    }

    RegFunc {
        ops,
        costs: low.costs.clone(),
        n_slots: nl + max_d,
        block_of,
        blocks,
        region_base: 0, // assigned module-wide by the compile pass
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::CompiledModule;
    use crate::instr::{BlockType, IBinOp, IRelOp, Instr, IntWidth};
    use crate::lower::ExecTier;
    use crate::module::ModuleBuilder;
    use crate::types::{FuncType, Limits, ValType, Value};

    fn compile_reg(body: Vec<Instr>, results: Vec<ValType>) -> CompiledModule {
        let mut b = ModuleBuilder::new();
        b.memory(Limits::at_least(1));
        b.add_func(
            FuncType::new(vec![], results),
            vec![ValType::I32, ValType::I32],
            body,
        );
        CompiledModule::compile_with_tier(b.build(), ExecTier::Reg).unwrap()
    }

    fn counted_loop_body() -> Vec<Instr> {
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
    fn reg_code_is_parallel_to_fused() {
        let cm = compile_reg(counted_loop_body(), vec![]);
        let rf = &cm.reg[0];
        // Re-derive the fused IR (the compiled module drops it).
        let low = crate::lower::fuse(&cm.funcs[0]);
        assert_eq!(rf.ops.len(), low.ops.len());
        assert_eq!(rf.costs.len(), low.costs.len());
        assert_eq!(rf.costs, low.costs, "metering records carry over verbatim");
    }

    #[test]
    fn fused_latch_becomes_imm_compare_branch() {
        let cm = compile_reg(counted_loop_body(), vec![]);
        let rf = &cm.reg[0];
        // The fused loop step (`i += 1`) allocates to an in-place
        // immediate binop on the local's own slot; the latch becomes a
        // local-vs-imm compare-and-branch. Neither touches a stack slot.
        assert!(rf
            .ops
            .iter()
            .any(|op| matches!(op, RegOp::IBinopImm { dst, a, .. } if dst == a && *dst < 2)));
        assert!(rf
            .ops
            .iter()
            .any(|op| matches!(op, RegOp::CmpImmBr { a, .. } if *a < 2)));
    }

    #[test]
    fn regions_cover_every_op_exactly_once_per_entry_suffix() {
        let cm = compile_reg(counted_loop_body(), vec![]);
        let rf = &cm.reg[0];
        // Structural invariants of the charge regions: every leader has a
        // region; every region ends one past a control op; a region's
        // fuel equals the summed cost of its ops.
        let n = rf.ops.len();
        assert!(rf.block_of[0] > 0, "entry is a leader");
        for (pc, &bi) in rf.block_of.iter().enumerate() {
            if bi == 0 {
                continue;
            }
            let b = &rf.blocks[bi as usize - 1];
            let end = b.end as usize;
            assert!(end <= n && end > pc);
            let fuel: u64 = rf.costs[pc..end].iter().map(|c| u64::from(c.len)).sum();
            assert_eq!(fuel, b.fuel, "region fuel mismatch at leader {pc}");
            let total: u64 = b.classes.iter().map(|&(_, c)| u64::from(c)).sum();
            assert_eq!(total, b.fuel, "class counts must sum to fuel");
        }
    }

    #[test]
    fn fused_loop_needs_no_spill_slots() {
        let cm = compile_reg(counted_loop_body(), vec![]);
        let rf = &cm.reg[0];
        // The fused forms of this loop (const→set, i += 1, cmp-branch)
        // never touch the operand stack, so the frame is exactly the two
        // locals — full stack elimination.
        assert_eq!(rf.n_slots, 2, "no spill slots expected");
        // Every slot operand in the emitted code stays within the frame.
        for op in &rf.ops {
            if let RegOp::Const { dst, .. } | RegOp::Copy { dst, .. } = op {
                assert!(*dst < rf.n_slots);
            }
        }
    }

    #[test]
    fn branch_value_transfer_statically_resolved() {
        // block (result i32) const 3; br 0 end; drop — the branch carries
        // one value from the stack top down to the label height.
        let body = vec![
            Instr::Block(
                BlockType::Value(ValType::I32),
                vec![Instr::Const(Value::I32(3)), Instr::Br(0)],
            ),
            Instr::Drop,
        ];
        let cm = compile_reg(body, vec![]);
        let rf = &cm.reg[0];
        let br = rf
            .ops
            .iter()
            .find_map(|op| match op {
                RegOp::Br(br) => Some(*br),
                _ => None,
            })
            .expect("branch survives");
        assert_eq!(br.arity, 1);
        assert!(br.from >= br.to, "values only ever move down-frame");
    }

    #[test]
    fn region_bases_partition_the_module_space() {
        let mut b = ModuleBuilder::new();
        let f0 = b.add_func(
            FuncType::new(vec![], vec![]),
            vec![],
            vec![Instr::Nop],
        );
        b.add_func(FuncType::new(vec![], vec![]), vec![], vec![Instr::Call(f0)]);
        let cm = CompiledModule::compile_with_tier(b.build(), ExecTier::Reg).unwrap();
        let mut expect = 0u32;
        for rf in &cm.reg {
            assert_eq!(rf.region_base, expect);
            expect += rf.blocks.len() as u32;
        }
    }
}
