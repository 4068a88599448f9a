//! Ahead-of-time lowering of validated modules to linear, jump-resolved code.
//!
//! This pass is the functional analogue of WAMR's `wamrc` AoT compiler used
//! by the paper (§IV-B): it runs *outside* the enclave, on the developer's
//! premises, and the enclave only ever executes its output. Structured
//! control flow is flattened into a linear [`Op`] array with pre-computed
//! branch targets and stack-transfer metadata, so the execution engine is a
//! simple dispatch loop with no decoding or label searching at run time.
//!
//! The flattening happens in the validator's walk over each function body
//! ([`crate::validate`]), which emits the ops while it type-checks them and
//! records the operand-stack depth before each. This module defines the
//! code, and [`CompiledModule::compile_with_tier`] runs the module-level
//! checks, then that walk and the register pass ([`crate::regalloc`]) once
//! per function.

use crate::instr::{LoadKind, StoreKind};
use crate::lower::ExecTier;
use crate::meter::InstrClass;
use crate::regalloc::{regalloc_func, RegFunc};
use crate::module::Module;
use crate::ModuleError;
use std::sync::{Arc, OnceLock};

/// Branch descriptor: where to jump and how to fix the operand stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchTarget {
    /// Destination op index.
    pub target: u32,
    /// Operand-stack height (relative to the frame base) of the target label.
    pub height: u32,
    /// Number of values carried across the branch (0 or 1 in MVP).
    pub arity: u8,
}

/// A flattened instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Trap.
    Unreachable,
    /// Unconditional branch with value transfer.
    Br(BranchTarget),
    /// Pop a condition; branch if non-zero.
    BrIf(BranchTarget),
    /// Pop an index; branch through the table (last entry = default).
    BrTable(Box<[BranchTarget]>),
    /// Plain jump (no stack adjustment) — used to skip `else` arms.
    Jump(u32),
    /// Pop a condition; jump if zero (the `if` entry test).
    JumpIfZero(u32),
    /// Return from the function.
    Return,
    /// Call a function by unified index (may be an import).
    Call(u32),
    /// Pop a table index; call through the table, checking the type index.
    CallIndirect(u32),
    /// Pop and discard.
    Drop,
    /// Ternary select.
    Select,
    /// Push local `n`.
    LocalGet(u32),
    /// Pop into local `n`.
    LocalSet(u32),
    /// Copy stack top into local `n`.
    LocalTee(u32),
    /// Push global `n`.
    GlobalGet(u32),
    /// Pop into global `n`.
    GlobalSet(u32),
    /// Memory load (static offset folded in).
    Load(LoadKind, u32),
    /// Memory store (static offset folded in).
    Store(StoreKind, u32),
    /// Push memory size in pages.
    MemorySize,
    /// Grow memory.
    MemoryGrow,
    /// Bulk copy.
    MemoryCopy,
    /// Bulk fill.
    MemoryFill,
    /// Push a constant (raw bits).
    Const(u64),
    /// `i32.eqz`/`i64.eqz`.
    ITestEqz(crate::instr::IntWidth),
    /// Integer unary op.
    IUnop(crate::instr::IntWidth, crate::instr::IUnOp),
    /// Integer binary op.
    IBinop(crate::instr::IntWidth, crate::instr::IBinOp),
    /// Integer comparison.
    IRelop(crate::instr::IntWidth, crate::instr::IRelOp),
    /// Float unary op.
    FUnop(crate::instr::FloatWidth, crate::instr::FUnOp),
    /// Float binary op.
    FBinop(crate::instr::FloatWidth, crate::instr::FBinOp),
    /// Float comparison.
    FRelop(crate::instr::FloatWidth, crate::instr::FRelOp),
    /// Conversion.
    Cvt(crate::instr::CvtOp),
    /// Implicit function end (returns the results on the stack).
    End,
}

impl Op {
    /// Metering class of this op.
    #[must_use]
    pub fn class(&self) -> InstrClass {
        use crate::instr::{FBinOp, FUnOp, IBinOp};
        use InstrClass::*;
        match self {
            Op::Const(_)
            | Op::LocalGet(_)
            | Op::LocalSet(_)
            | Op::LocalTee(_)
            | Op::GlobalGet(_)
            | Op::GlobalSet(_)
            | Op::Drop
            | Op::Select => Simple,
            Op::IBinop(_, IBinOp::DivS | IBinOp::DivU | IBinOp::RemS | IBinOp::RemU) => IntDiv,
            Op::IBinop(..) | Op::IUnop(..) => IntArith,
            Op::FBinop(_, FBinOp::Div) | Op::FUnop(_, FUnOp::Sqrt) => FloatDiv,
            Op::FBinop(..) | Op::FUnop(..) => FloatArith,
            Op::IRelop(..) | Op::FRelop(..) | Op::ITestEqz(_) | Op::Cvt(_) => Compare,
            Op::Load(..) => Load,
            Op::Store(..) => Store,
            Op::Br(_) | Op::BrIf(_) | Op::BrTable(_) | Op::Jump(_) | Op::JumpIfZero(_) => Branch,
            Op::Call(_) | Op::CallIndirect(_) | Op::Return | Op::End => Call,
            Op::MemorySize
            | Op::MemoryGrow
            | Op::MemoryCopy
            | Op::MemoryFill
            | Op::Unreachable => Other,
        }
    }
}

/// A compiled function body.
#[derive(Debug, Clone)]
pub struct CompiledFunc {
    /// Index into the module's type table.
    pub type_idx: u32,
    /// Number of parameters.
    pub n_params: usize,
    /// Total local slots (parameters + declared locals).
    pub n_locals: usize,
    /// Number of results (0 or 1).
    pub n_results: usize,
    /// Flattened code.
    pub ops: Vec<Op>,
    /// Metering class per op (parallel to `ops`).
    pub classes: Vec<InstrClass>,
}

/// A validated, flattened module ready for instantiation.
#[derive(Debug, Clone)]
pub struct CompiledModule {
    /// The source module (types, imports, exports, segments).
    pub module: Module,
    /// Compiled local functions (indexed after imported functions).
    pub funcs: Vec<CompiledFunc>,
    /// Which executor runs this module: the reference interpreter over
    /// `funcs`, or the register tier over `reg`.
    pub tier: ExecTier,
    /// Per-function register code (parallel to `funcs`; empty unless the
    /// tier is [`ExecTier::Reg`] — see [`crate::regalloc`]).
    pub reg: Vec<RegFunc>,
    /// Shared post-instantiation base image, captured at most once per
    /// compiled module by the first instantiation that wants one (see
    /// [`CompiledModule::base_image_or_init`]). Only meaningful for
    /// [poolable](CompiledModule::poolable) modules, where the
    /// post-instantiation state is a pure function of the module bytes and
    /// therefore safe to share across tenants.
    base_image: OnceLock<Arc<crate::exec::InstanceSnapshot>>,
}

impl CompiledModule {
    /// Validate and compile a module for the default (register) execution
    /// tier. This is the only way to obtain executable code, mirroring
    /// Twine's "AoT-only" design.
    pub fn compile(module: Module) -> Result<Self, ModuleError> {
        Self::compile_with_tier(module, ExecTier::default())
    }

    /// Validate and compile a module, selecting the executor: the
    /// reference interpreter (one dispatch per flattened op) or the
    /// register-allocated three-address code. Both have identical
    /// semantics and metering; the tier only changes wall-clock dispatch
    /// cost.
    pub fn compile_with_tier(module: Module, tier: ExecTier) -> Result<Self, ModuleError> {
        crate::validate::check_module(&module)?;
        let mut funcs = Vec::with_capacity(module.funcs.len());
        let mut reg = Vec::new();
        // Lay the per-function charge regions out in one module-wide index
        // space for the engine's region-hit counters.
        let mut region_base = 0u32;
        for i in 0..module.funcs.len() {
            let (f, depths) = crate::validate::func_code(&module, i)?;
            if tier == ExecTier::Reg {
                let mut rf = regalloc_func(&module, &f, &depths);
                rf.region_base = region_base;
                region_base += rf.blocks.len() as u32;
                reg.push(rf);
            }
            funcs.push(f);
        }
        Ok(Self {
            module,
            funcs,
            tier,
            reg,
            base_image: OnceLock::new(),
        })
    }

    /// Whether this module's post-instantiation state may be shared across
    /// instances: true iff it has **no start function**. Without a start
    /// function, instantiation applies only data segments, global
    /// initializers and element segments — all pure functions of the
    /// module — so every instance begins bit-identical and one captured
    /// image can seed them all (wasmtime's memory-image condition). A
    /// start function may call host imports (clock, randomness, I/O),
    /// making its effects ambient; such modules instantiate per-session.
    #[must_use]
    pub fn poolable(&self) -> bool {
        self.module.start.is_none()
    }

    /// The shared base image, if one has been captured.
    #[must_use]
    pub fn base_image(&self) -> Option<&Arc<crate::exec::InstanceSnapshot>> {
        self.base_image.get()
    }

    /// Get the shared base image, capturing it from `f` exactly once under
    /// concurrent callers. Callers only invoke this for
    /// [poolable](CompiledModule::poolable) modules with `f` snapshotting a
    /// freshly instantiated instance, so every racer would capture the
    /// same bytes.
    pub fn base_image_or_init(
        &self,
        f: impl FnOnce() -> crate::exec::InstanceSnapshot,
    ) -> &Arc<crate::exec::InstanceSnapshot> {
        self.base_image.get_or_init(|| Arc::new(f()))
    }

    /// Decode, validate and compile in one step (default tier).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ModuleError> {
        Self::compile(crate::decode::decode(bytes)?)
    }

    /// Decode, validate and compile in one step for a specific tier.
    pub fn from_bytes_with_tier(bytes: &[u8], tier: ExecTier) -> Result<Self, ModuleError> {
        Self::compile_with_tier(crate::decode::decode(bytes)?, tier)
    }

    /// Total number of flattened ops across all functions (a code-size
    /// proxy reported by the Table III harness). Tier-independent: this
    /// counts the reference interpreter's form, not the register code.
    #[must_use]
    pub fn code_size_ops(&self) -> usize {
        self.funcs.iter().map(|f| f.ops.len()).sum()
    }

    /// Total number of ops the engine dispatches for this module: equals
    /// [`Self::code_size_ops`] on the reference interpreter, and counts
    /// the (fewer) register ops on the register tier.
    #[must_use]
    pub fn code_size_lowered_ops(&self) -> usize {
        match self.tier {
            ExecTier::Baseline => self.code_size_ops(),
            ExecTier::Reg => self.reg.iter().map(|f| f.ops.len()).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::{BlockType, IBinOp, Instr, IntWidth, MemArg};
    use crate::module::ModuleBuilder;
    use crate::types::{FuncType, Limits, ValType, Value};

    fn compile_body(body: Vec<Instr>, results: Vec<ValType>) -> CompiledFunc {
        let mut b = ModuleBuilder::new();
        b.memory(Limits::at_least(1));
        b.add_func(FuncType::new(vec![], results), vec![ValType::I32], body);
        let m = b.build();
        let cm = CompiledModule::compile(m).unwrap();
        cm.funcs[0].clone()
    }

    #[test]
    fn straightline_flattens_one_to_one() {
        let f = compile_body(
            vec![
                Instr::Const(Value::I32(1)),
                Instr::Const(Value::I32(2)),
                Instr::IBinop(IntWidth::W32, IBinOp::Add),
            ],
            vec![ValType::I32],
        );
        assert_eq!(f.ops.len(), 4); // 3 + End
        assert!(matches!(f.ops[3], Op::End));
    }

    #[test]
    fn block_branch_resolved_to_end() {
        let f = compile_body(
            vec![Instr::Block(
                BlockType::Empty,
                vec![Instr::Const(Value::I32(1)), Instr::BrIf(0), Instr::Nop],
            )],
            vec![],
        );
        // ops: Const, BrIf(target = after block), End
        match &f.ops[1] {
            Op::BrIf(bt) => assert_eq!(bt.target, 2),
            other => panic!("expected BrIf, got {other:?}"),
        }
    }

    #[test]
    fn loop_branch_resolved_to_start() {
        let f = compile_body(
            vec![Instr::Loop(
                BlockType::Empty,
                vec![Instr::Const(Value::I32(0)), Instr::BrIf(0)],
            )],
            vec![],
        );
        match &f.ops[1] {
            Op::BrIf(bt) => assert_eq!(bt.target, 0),
            other => panic!("expected BrIf, got {other:?}"),
        }
    }

    #[test]
    fn if_else_jumps() {
        let f = compile_body(
            vec![
                Instr::Const(Value::I32(1)),
                Instr::If(
                    BlockType::Value(ValType::I32),
                    vec![Instr::Const(Value::I32(10))],
                    vec![Instr::Const(Value::I32(20))],
                ),
                Instr::Drop,
            ],
            vec![],
        );
        // Const(1), JumpIfZero(->4), Const(10), Jump(->5), Const(20), Drop, End
        match &f.ops[1] {
            Op::JumpIfZero(t) => assert_eq!(*t, 4),
            other => panic!("{other:?}"),
        }
        match &f.ops[3] {
            Op::Jump(t) => assert_eq!(*t, 5),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn dead_code_not_emitted() {
        let f = compile_body(
            vec![
                Instr::Return,
                Instr::Const(Value::I32(1)),
                Instr::Const(Value::I32(2)),
                Instr::IBinop(IntWidth::W32, IBinOp::Add),
                Instr::Drop,
            ],
            vec![],
        );
        assert_eq!(f.ops.len(), 2); // Return + End
    }

    #[test]
    fn memarg_offset_folded() {
        let f = compile_body(
            vec![
                Instr::Const(Value::I32(0)),
                Instr::Load(LoadKind::I32, MemArg { align: 2, offset: 64 }),
                Instr::Drop,
            ],
            vec![],
        );
        assert!(matches!(f.ops[1], Op::Load(LoadKind::I32, 64)));
    }

    #[test]
    fn default_compile_selects_the_reg_tier() {
        use crate::lower::ExecTier;
        let mut b = ModuleBuilder::new();
        b.memory(Limits::at_least(1));
        b.add_func(
            FuncType::new(vec![], vec![ValType::I32]),
            vec![ValType::I32],
            vec![
                Instr::LocalGet(0),
                Instr::Const(Value::I32(7)),
                Instr::IBinop(IntWidth::W32, IBinOp::Add),
            ],
        );
        let cm = b.build().into_compiled().unwrap();
        assert_eq!(cm.tier, ExecTier::Reg);
        assert!(cm.code_size_lowered_ops() < cm.code_size_ops());
        assert_eq!(cm.reg.len(), cm.funcs.len());
    }

    #[test]
    fn stack_tiers_carry_no_reg_code() {
        use crate::lower::ExecTier;
        let mut b = ModuleBuilder::new();
        b.add_func(FuncType::new(vec![], vec![]), vec![], vec![Instr::Nop]);
        let cm = CompiledModule::compile_with_tier(b.build(), ExecTier::Baseline).unwrap();
        assert!(cm.reg.is_empty());
    }

    #[test]
    fn classes_parallel_to_ops() {
        let f = compile_body(
            vec![
                Instr::Const(Value::I32(1)),
                Instr::Const(Value::I32(2)),
                Instr::IBinop(IntWidth::W32, IBinOp::DivS),
                Instr::Drop,
            ],
            vec![],
        );
        assert_eq!(f.ops.len(), f.classes.len());
        assert_eq!(f.classes[2], InstrClass::IntDiv);
    }

    #[test]
    fn br_table_targets_resolved() {
        // Two nested blocks; br_table picks between them and a default to
        // the function end.
        let f = compile_body(
            vec![Instr::Block(
                BlockType::Empty,
                vec![Instr::Block(
                    BlockType::Empty,
                    vec![Instr::Const(Value::I32(1)), Instr::BrTable(vec![0, 1], 1)],
                )],
            )],
            vec![],
        );
        let table = f
            .ops
            .iter()
            .find_map(|op| match op {
                Op::BrTable(t) => Some(t.clone()),
                _ => None,
            })
            .expect("has br_table");
        assert_eq!(table.len(), 3);
        // All targets point at or after the br_table itself and at or
        // before End.
        for bt in table.iter() {
            assert!(bt.target as usize <= f.ops.len());
            assert_ne!(bt.target, u32::MAX, "target must be patched");
        }
        // Inner block's end (slot 0) precedes outer block's end (slot 1).
        assert!(table[0].target <= table[1].target);
    }

    #[test]
    fn branch_with_value_has_arity() {
        let f = compile_body(
            vec![Instr::Block(
                BlockType::Value(ValType::I32),
                vec![Instr::Const(Value::I32(3)), Instr::Br(0)],
            ), Instr::Drop],
            vec![],
        );
        match &f.ops[1] {
            Op::Br(bt) => {
                assert_eq!(bt.arity, 1);
                assert_eq!(bt.height, 0);
            }
            other => panic!("{other:?}"),
        }
    }
}
