//! Register allocation — the register tier's one compile pass, from the
//! compiled [`Op`] stream straight to the executor every serving path runs.
//!
//! The reference interpreter ([`crate::lower::ExecTier::Baseline`]) moves
//! every operand through a `Vec` push/pop pair and pays a fuel branch plus
//! a metering update on every op. This pass removes all three costs on
//! straight-line code, the wasm3-style
//! register-interpreter design the runtime survey identifies as the
//! fastest non-JIT tier:
//!
//! 1. **Operand-stack elimination.** Because the module is validated, the
//!    operand-stack depth before every op is a static property of its
//!    program point; the validator records it while it emits the ops
//!    ([`crate::validate`]), `None` for unreachable ones. The pass maps
//!    stack position `x` to *frame slot*
//!    `n_locals + x` — locals and spill slots unified in one flat `[u64]`
//!    slab. Each fusion window (`lower::try_fuse`'s patterns, or one op)
//!    becomes one three-address [`RegOp`] with its source/destination slots
//!    encoded inline, taken from the depth at the window's start, so the
//!    engine's register loop performs zero `Vec` traffic: no length
//!    updates, no capacity checks, no push/pop.
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
//! Every register op carries its window's [`OpCost`], and the windows
//! partition the compiled ops, so the conservation invariant of
//! [`crate::lower`] (every baseline instruction metered exactly once)
//! holds by construction.

use crate::compile::{BranchTarget, CompiledFunc, Op};
use crate::instr::{CvtOp, FBinOp, FRelOp, FUnOp, FloatWidth, IBinOp, IRelOp, IUnOp, IntWidth};
use crate::instr::{LoadKind, StoreKind};
use crate::lower::{mark_targets, try_fuse, OpCost, MAX_FUSED_WIDTH};
use crate::meter::NUM_CLASSES;
use crate::module::Module;

/// A resolved branch edge: jump to `target` after copying the `arity`
/// values carried across the branch from slots `from..from+arity` down to
/// `to..to+arity` (both ends statically resolved from the branch point's
/// stack depth and the label's height — the register tier never adjusts a
/// stack length at run time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegBranch {
    /// Destination register-op index.
    pub target: u32,
    /// First source slot of the carried values.
    pub from: u32,
    /// First destination slot of the carried values.
    pub to: u32,
    /// Number of values carried (0 or 1 in MVP).
    pub arity: u8,
}

/// Where a window's stack operands live: the frame's local count and the
/// operand-stack depth at the window's start (`None` in dead code, whose
/// register ops are replaced by trapping placeholders).
#[derive(Clone, Copy)]
pub(crate) struct Frame {
    n_locals: u32,
    depth: Option<u32>,
}

impl Frame {
    /// The slot `k` places below the window-start stack top: `top(1)` is
    /// the top value, `top(0)` the first free slot.
    pub(crate) fn top(self, k: u32) -> u32 {
        self.depth.map_or(0, |d| self.n_locals + d - k)
    }

    /// The edge of branch `bt` taken once `k` operands are popped (its
    /// target is still an op index).
    pub(crate) fn br(self, bt: &BranchTarget, k: u32) -> RegBranch {
        RegBranch {
            target: bt.target,
            from: self.top(k + u32::from(bt.arity)),
            to: self.n_locals + bt.height,
            arity: bt.arity,
        }
    }
}

/// A three-address register instruction. All `dst`/`a`/`b`/… fields are
/// frame-slot indices (relative to the frame base); locals occupy slots
/// `0..n_locals` and former stack positions follow.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // field meanings are uniform: slot operands + the compiled ops' payloads
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
    /// multiply-accumulate tail (`fbinop; fbinop`).
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

/// A function body in the register tier: one op per fusion window of its
/// [`CompiledFunc`], with parallel per-op costs and charge-region handles.
#[derive(Debug, Clone)]
pub struct RegFunc {
    /// Register code, one op per fusion window.
    pub ops: Vec<RegOp>,
    /// Metering record per op (its window's [`OpCost`]).
    pub costs: Vec<OpCost>,
    /// Frame size in slots: locals plus the deepest operand stack at a
    /// reachable window start.
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

/// Does this op end a basic block (the following op is a leader)?
fn is_control(op: &Op) -> bool {
    matches!(
        op,
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
    )
}

/// The register op of one unfused compiled op (branch targets still op
/// indices).
fn lower_op(module: &Module, f: &CompiledFunc, op: &Op, at: Frame) -> RegOp {
    let top = |k| at.top(k);
    match op {
        Op::Unreachable => RegOp::Unreachable,
        Op::Br(bt) => RegOp::Br(at.br(bt, 0)),
        Op::BrIf(bt) => RegOp::BrIf {
            cond: top(1),
            br: at.br(bt, 1),
        },
        Op::BrTable(table) => RegOp::BrTable {
            idx: top(1),
            table: table.iter().map(|bt| at.br(bt, 1)).collect(),
        },
        Op::Jump(t) => RegOp::Jump(*t),
        Op::JumpIfZero(t) => RegOp::JumpIfZero {
            cond: top(1),
            target: *t,
        },
        Op::Return | Op::End => RegOp::Ret {
            from: top(f.n_results as u32),
            n: f.n_results as u8,
        },
        // Validation resolved both signatures; the arguments start below
        // the parameters (and the table index).
        Op::Call(g) => RegOp::Call {
            func: *g,
            base: top(module.func_type(*g).map_or(0, |t| t.params.len() as u32)),
        },
        Op::CallIndirect(type_idx) => RegOp::CallIndirect {
            type_idx: *type_idx,
            idx: top(1),
            base: top(1 + module.types.get(*type_idx as usize).map_or(0, |t| t.params.len() as u32)),
        },
        Op::Drop => RegOp::Nop,
        Op::Select => RegOp::Select {
            dst: top(3),
            a: top(3),
            b: top(2),
            cond: top(1),
        },
        Op::LocalGet(i) => RegOp::Copy { dst: top(0), src: *i },
        Op::LocalSet(i) | Op::LocalTee(i) => RegOp::Copy { dst: *i, src: top(1) },
        Op::GlobalGet(i) => RegOp::GlobalGet { dst: top(0), idx: *i },
        Op::GlobalSet(i) => RegOp::GlobalSet { src: top(1), idx: *i },
        Op::Load(kind, off) => RegOp::Load {
            kind: *kind,
            offset: *off,
            dst: top(1),
            addr: top(1),
        },
        Op::Store(kind, off) => RegOp::Store {
            kind: *kind,
            offset: *off,
            addr: top(2),
            val: top(1),
        },
        Op::MemorySize => RegOp::MemorySize { dst: top(0) },
        Op::MemoryGrow => RegOp::MemoryGrow {
            dst: top(1),
            delta: top(1),
        },
        Op::MemoryCopy => RegOp::MemoryCopy {
            dst: top(3),
            src: top(2),
            len: top(1),
        },
        Op::MemoryFill => RegOp::MemoryFill {
            dst: top(3),
            val: top(2),
            len: top(1),
        },
        Op::Const(bits) => RegOp::Const {
            dst: top(0),
            bits: *bits,
        },
        Op::ITestEqz(w) => RegOp::Eqz {
            w: *w,
            dst: top(1),
            src: top(1),
        },
        Op::IUnop(w, op) => RegOp::IUnop {
            w: *w,
            op: *op,
            dst: top(1),
            src: top(1),
        },
        Op::IBinop(w, op) => RegOp::IBinop {
            w: *w,
            op: *op,
            dst: top(2),
            a: top(2),
            b: top(1),
        },
        Op::IRelop(w, op) => RegOp::IRelop {
            w: *w,
            op: *op,
            dst: top(2),
            a: top(2),
            b: top(1),
        },
        Op::FUnop(w, op) => RegOp::FUnop {
            w: *w,
            op: *op,
            dst: top(1),
            src: top(1),
        },
        Op::FBinop(w, op) => RegOp::FBinop {
            w: *w,
            op: *op,
            dst: top(2),
            a: top(2),
            b: top(1),
        },
        Op::FRelop(w, op) => RegOp::FRelop {
            w: *w,
            op: *op,
            dst: top(2),
            a: top(2),
            b: top(1),
        },
        Op::Cvt(op) => RegOp::Cvt {
            op: *op,
            dst: top(1),
            src: top(1),
        },
    }
}

/// Compile one function to register code in a single pass over its ops:
/// one register op per fusion window (slots taken from the depth at the
/// window's start), branch targets remapped into the register-op index
/// space, then the charge regions.
///
/// `depth` is the operand-stack depth before each op of `f`, `None` where
/// the op is unreachable, as [`crate::validate`] records it while emitting
/// `f`. `module` supplies callee signatures for the zero-copy call frame
/// bases.
pub(crate) fn regalloc_func(module: &Module, f: &CompiledFunc, depth: &[Option<u32>]) -> RegFunc {
    let n = f.ops.len();
    let nl = f.n_locals as u32;
    let is_target = mark_targets(&f.ops);

    let mut ops: Vec<RegOp> = Vec::with_capacity(n);
    let mut costs: Vec<OpCost> = Vec::with_capacity(n);
    // Per register op: does its window end in a control op?
    let mut ends: Vec<bool> = Vec::with_capacity(n);
    // Op index → register-op index. Window interiors keep u32::MAX and
    // are never branch targets.
    let mut map = vec![u32::MAX; n];
    // Frame depth: the deepest stack at a reachable window start. A
    // window's interior never holds a slot of its own.
    let mut max_d = 0u32;
    let mut pc = 0usize;
    while pc < n {
        map[pc] = ops.len() as u32;
        // A window may not contain a branch target after its first op.
        let mut avail = 1;
        while avail < MAX_FUSED_WIDTH && pc + avail < n && !is_target[pc + avail] {
            avail += 1;
        }
        let at = Frame {
            n_locals: nl,
            depth: depth[pc],
        };
        let (op, len) = try_fuse(&f.ops, pc, avail, at)
            .unwrap_or_else(|| (lower_op(module, f, &f.ops[pc], at), 1));
        debug_assert!(len <= avail);
        costs.push(OpCost::of(&f.classes[pc..pc + len]));
        ends.push(is_control(&f.ops[pc + len - 1]));
        // Dead code never executes; keep it trapping if it somehow does.
        ops.push(match depth[pc] {
            Some(d) => {
                max_d = max_d.max(d);
                op
            }
            None => RegOp::Unreachable,
        });
        pc += len;
    }

    let remap = |t: &mut u32| {
        let new = map[*t as usize];
        debug_assert_ne!(new, u32::MAX, "branch into a window interior");
        *t = new;
    };
    for op in &mut ops {
        match op {
            RegOp::Br(br)
            | RegOp::BrIf { br, .. }
            | RegOp::CmpBr { br, .. }
            | RegOp::CmpImmBr { br, .. }
            | RegOp::EqzBr { br, .. } => remap(&mut br.target),
            RegOp::BrTable { table, .. } => table.iter_mut().for_each(|br| remap(&mut br.target)),
            RegOp::Jump(t)
            | RegOp::JumpIfZero { target: t, .. }
            | RegOp::CmpJumpIfNot { target: t, .. }
            | RegOp::CmpImmJumpIfNot { target: t, .. } => remap(t),
            _ => {}
        }
    }

    // Basic blocks: leaders are op 0, every branch/jump target (dead code's
    // included), and the op after any window that ends in a control op.
    let m = ops.len();
    let mut leader = vec![false; m];
    if m > 0 {
        leader[0] = true;
    }
    for (i, &end) in ends.iter().enumerate() {
        if end && i + 1 < m {
            leader[i + 1] = true;
        }
    }
    for t in (0..n).filter(|&t| is_target[t]) {
        leader[map[t] as usize] = true;
    }
    // A *region* runs from a leader through any interior leaders (targets
    // that are also reached by fall-through) up to and including the next
    // control op. The engine charges a region's whole fuel/metering at
    // every control transfer (branch taken or not, call return, frame
    // entry) — which always lands on a leader — so straight-line execution
    // pays zero per-op accounting. Regions overlap in their suffixes;
    // every op is still charged exactly once per execution, because the
    // only way past a control op is another control transfer.
    let mut block_of = vec![0u32; m];
    let mut blocks: Vec<BlockMeter> = Vec::new();
    for l in 0..m {
        if !leader[l] {
            continue;
        }
        let mut end = l;
        while !ends[end] {
            end += 1;
        }
        end += 1; // include the control op
        let mut fuel = 0u64;
        let mut dense = [0u32; NUM_CLASSES];
        for cost in &costs[l..end] {
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
        costs,
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
        let (f, rf) = (&cm.funcs[0], &cm.reg[0]);
        // One cost and one region handle per register op, and the windows'
        // costs concatenated are the compiled class stream verbatim.
        assert_eq!(rf.ops.len(), rf.costs.len());
        assert_eq!(rf.ops.len(), rf.block_of.len());
        let replay: Vec<_> = rf
            .costs
            .iter()
            .flat_map(|c| c.classes[..c.len as usize].iter().copied())
            .collect();
        assert_eq!(replay, f.classes, "metering records carry over verbatim");
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

    #[test]
    fn dead_code_keeps_its_windows_and_regions() {
        // block { br 1 }; <dead: i += 1; const 7; drop> — the branch leaves
        // the function, so what follows the block is compiled but never
        // reached. The dead `i += 1` still fuses into one window and
        // becomes one trapping placeholder carrying that window's cost,
        // and leaders follow the compiled ops (a placeholder ends no
        // region).
        let body = vec![
            Instr::Block(BlockType::Empty, vec![Instr::Br(1)]),
            Instr::LocalGet(0),
            Instr::Const(Value::I32(1)),
            Instr::IBinop(IntWidth::W32, IBinOp::Add),
            Instr::LocalSet(0),
            Instr::Const(Value::I32(7)),
            Instr::Drop,
        ];
        let cm = compile_reg(body, vec![]);
        let (f, rf) = (&cm.funcs[0], &cm.reg[0]);
        let lens: Vec<u8> = rf.costs.iter().map(|c| c.len).collect();
        assert_eq!(lens, [1, 4, 1, 1, 1], "br, i += 1, const, drop, end");
        assert!(matches!(rf.ops[1..4], [RegOp::Unreachable, RegOp::Unreachable, RegOp::Unreachable]));
        let is_target = crate::lower::mark_targets(&f.ops);
        let mut start = 0usize;
        let mut prev_ends = true; // function entry is a leader
        for (i, cost) in rf.costs.iter().enumerate() {
            let leader = prev_ends || is_target[start];
            assert_eq!(rf.block_of[i] > 0, leader, "leader mismatch at register op {i}");
            start += cost.len as usize;
            prev_ends = is_control(&f.ops[start - 1]);
        }
    }
}
