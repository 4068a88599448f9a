//! The WebAssembly instruction AST.
//!
//! Instructions are decoded into a *structured* tree (blocks contain their
//! bodies), matching the grammar of the binary format. The validator's walk
//! ([`crate::validate`]) flattens this tree into linear, jump-resolved
//! [`crate::compile::Op`] code for execution.

use crate::types::{ValType, Value};

/// Result type of a block-like construct (MVP: empty or one value).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockType {
    /// `[] -> []`
    Empty,
    /// `[] -> [t]`
    Value(ValType),
}

impl BlockType {
    /// The result value, if any.
    #[must_use]
    pub fn result(self) -> Option<ValType> {
        match self {
            BlockType::Empty => None,
            BlockType::Value(t) => Some(t),
        }
    }
}

/// Alignment/offset immediate of memory instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemArg {
    /// log2 of the alignment hint.
    pub align: u32,
    /// Constant byte offset added to the dynamic address.
    pub offset: u32,
}

impl MemArg {
    /// Offset-only memarg with natural alignment hint 0.
    #[must_use]
    pub fn offset(offset: u32) -> Self {
        Self { align: 0, offset }
    }
}

/// Width selector for integer operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntWidth {
    /// 32-bit.
    W32,
    /// 64-bit.
    W64,
}

/// Width selector for float operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FloatWidth {
    /// 32-bit.
    W32,
    /// 64-bit.
    W64,
}

/// Integer unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IUnOp {
    /// Count leading zeros.
    Clz,
    /// Count trailing zeros.
    Ctz,
    /// Population count.
    Popcnt,
}

/// Integer binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IBinOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Signed division (traps on 0 and overflow).
    DivS,
    /// Unsigned division (traps on 0).
    DivU,
    /// Signed remainder (traps on 0).
    RemS,
    /// Unsigned remainder (traps on 0).
    RemU,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Shift left.
    Shl,
    /// Arithmetic shift right.
    ShrS,
    /// Logical shift right.
    ShrU,
    /// Rotate left.
    Rotl,
    /// Rotate right.
    Rotr,
}

/// Integer comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IRelOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less-than.
    LtS,
    /// Unsigned less-than.
    LtU,
    /// Signed greater-than.
    GtS,
    /// Unsigned greater-than.
    GtU,
    /// Signed less-or-equal.
    LeS,
    /// Unsigned less-or-equal.
    LeU,
    /// Signed greater-or-equal.
    GeS,
    /// Unsigned greater-or-equal.
    GeU,
}

/// Float unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FUnOp {
    /// Absolute value.
    Abs,
    /// Negation.
    Neg,
    /// Round up.
    Ceil,
    /// Round down.
    Floor,
    /// Round toward zero.
    Trunc,
    /// Round to nearest, ties to even.
    Nearest,
    /// Square root.
    Sqrt,
}

/// Float binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FBinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// IEEE minimum (NaN-propagating).
    Min,
    /// IEEE maximum (NaN-propagating).
    Max,
    /// Copy sign.
    Copysign,
}

/// Float comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FRelOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less-than.
    Lt,
    /// Greater-than.
    Gt,
    /// Less-or-equal.
    Le,
    /// Greater-or-equal.
    Ge,
}

/// Conversion and reinterpretation operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // names mirror the spec mnemonics 1:1
pub enum CvtOp {
    I32WrapI64,
    I64ExtendI32S,
    I64ExtendI32U,
    I32TruncF32S,
    I32TruncF32U,
    I32TruncF64S,
    I32TruncF64U,
    I64TruncF32S,
    I64TruncF32U,
    I64TruncF64S,
    I64TruncF64U,
    F32ConvertI32S,
    F32ConvertI32U,
    F32ConvertI64S,
    F32ConvertI64U,
    F64ConvertI32S,
    F64ConvertI32U,
    F64ConvertI64S,
    F64ConvertI64U,
    F32DemoteF64,
    F64PromoteF32,
    I32ReinterpretF32,
    I64ReinterpretF64,
    F32ReinterpretI32,
    F64ReinterpretI64,
    I32Extend8S,
    I32Extend16S,
    I64Extend8S,
    I64Extend16S,
    I64Extend32S,
}

impl CvtOp {
    /// (input type, output type) of the conversion.
    #[must_use]
    pub fn signature(self) -> (ValType, ValType) {
        use CvtOp::*;
        use ValType::*;
        match self {
            I32WrapI64 => (I64, I32),
            I64ExtendI32S | I64ExtendI32U => (I32, I64),
            I32TruncF32S | I32TruncF32U => (F32, I32),
            I32TruncF64S | I32TruncF64U => (F64, I32),
            I64TruncF32S | I64TruncF32U => (F32, I64),
            I64TruncF64S | I64TruncF64U => (F64, I64),
            F32ConvertI32S | F32ConvertI32U => (I32, F32),
            F32ConvertI64S | F32ConvertI64U => (I64, F32),
            F64ConvertI32S | F64ConvertI32U => (I32, F64),
            F64ConvertI64S | F64ConvertI64U => (I64, F64),
            F32DemoteF64 => (F64, F32),
            F64PromoteF32 => (F32, F64),
            I32ReinterpretF32 => (F32, I32),
            I64ReinterpretF64 => (F64, I64),
            F32ReinterpretI32 => (I32, F32),
            F64ReinterpretI64 => (I64, F64),
            I32Extend8S | I32Extend16S => (I32, I32),
            I64Extend8S | I64Extend16S | I64Extend32S => (I64, I64),
        }
    }
}

/// Kind of load instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // names mirror the spec mnemonics 1:1
pub enum LoadKind {
    I32,
    I64,
    F32,
    F64,
    I32_8S,
    I32_8U,
    I32_16S,
    I32_16U,
    I64_8S,
    I64_8U,
    I64_16S,
    I64_16U,
    I64_32S,
    I64_32U,
}

impl LoadKind {
    /// The type the load pushes.
    #[must_use]
    pub fn result_type(self) -> ValType {
        use LoadKind::*;
        match self {
            I32 | I32_8S | I32_8U | I32_16S | I32_16U => ValType::I32,
            I64 | I64_8S | I64_8U | I64_16S | I64_16U | I64_32S | I64_32U => ValType::I64,
            F32 => ValType::F32,
            F64 => ValType::F64,
        }
    }

    /// Number of bytes accessed.
    #[must_use]
    pub fn width(self) -> usize {
        use LoadKind::*;
        match self {
            I32_8S | I32_8U | I64_8S | I64_8U => 1,
            I32_16S | I32_16U | I64_16S | I64_16U => 2,
            I32 | F32 | I64_32S | I64_32U => 4,
            I64 | F64 => 8,
        }
    }
}

/// Kind of store instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // names mirror the spec mnemonics 1:1
pub enum StoreKind {
    I32,
    I64,
    F32,
    F64,
    I32_8,
    I32_16,
    I64_8,
    I64_16,
    I64_32,
}

impl StoreKind {
    /// The type the store pops.
    #[must_use]
    pub fn value_type(self) -> ValType {
        use StoreKind::*;
        match self {
            I32 | I32_8 | I32_16 => ValType::I32,
            I64 | I64_8 | I64_16 | I64_32 => ValType::I64,
            F32 => ValType::F32,
            F64 => ValType::F64,
        }
    }

    /// Number of bytes accessed.
    #[must_use]
    pub fn width(self) -> usize {
        use StoreKind::*;
        match self {
            I32_8 | I64_8 => 1,
            I32_16 | I64_16 => 2,
            I32 | F32 | I64_32 => 4,
            I64 | F64 => 8,
        }
    }
}

/// A structured WebAssembly instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    /// Trap unconditionally.
    Unreachable,
    /// Do nothing.
    Nop,
    /// Structured block; branches to it jump to its end.
    Block(BlockType, Vec<Instr>),
    /// Structured loop; branches to it jump to its start.
    Loop(BlockType, Vec<Instr>),
    /// Two-armed conditional.
    If(BlockType, Vec<Instr>, Vec<Instr>),
    /// Unconditional branch to the given relative label depth.
    Br(u32),
    /// Conditional branch.
    BrIf(u32),
    /// Indexed branch (jump table) with a default label.
    BrTable(Vec<u32>, u32),
    /// Return from the current function.
    Return,
    /// Direct call by function index.
    Call(u32),
    /// Indirect call through the table; immediate is the expected type index.
    CallIndirect(u32),
    /// Pop and discard.
    Drop,
    /// `select`: pop condition and two values, push one of them.
    Select,
    /// Push a local.
    LocalGet(u32),
    /// Pop into a local.
    LocalSet(u32),
    /// Store into a local, keeping the value on the stack.
    LocalTee(u32),
    /// Push a global.
    GlobalGet(u32),
    /// Pop into a (mutable) global.
    GlobalSet(u32),
    /// Memory load.
    Load(LoadKind, MemArg),
    /// Memory store.
    Store(StoreKind, MemArg),
    /// Push current memory size in 64 KiB pages.
    MemorySize,
    /// Grow memory; pushes previous size or -1.
    MemoryGrow,
    /// Bulk `memory.copy` (dst, src, len on the stack).
    MemoryCopy,
    /// Bulk `memory.fill` (dst, value, len on the stack).
    MemoryFill,
    /// Push a constant.
    Const(Value),
    /// `i32.eqz` / `i64.eqz`.
    ITestEqz(IntWidth),
    /// Integer unary operator.
    IUnop(IntWidth, IUnOp),
    /// Integer binary operator.
    IBinop(IntWidth, IBinOp),
    /// Integer comparison.
    IRelop(IntWidth, IRelOp),
    /// Float unary operator.
    FUnop(FloatWidth, FUnOp),
    /// Float binary operator.
    FBinop(FloatWidth, FBinOp),
    /// Float comparison.
    FRelop(FloatWidth, FRelOp),
    /// Conversion operator.
    Cvt(CvtOp),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_widths() {
        assert_eq!(LoadKind::I32_8U.width(), 1);
        assert_eq!(LoadKind::I64.width(), 8);
        assert_eq!(LoadKind::F32.width(), 4);
        assert_eq!(LoadKind::I64_32S.width(), 4);
    }

    #[test]
    fn store_types() {
        assert_eq!(StoreKind::I64_32.value_type(), ValType::I64);
        assert_eq!(StoreKind::F64.value_type(), ValType::F64);
    }

    #[test]
    fn cvt_signatures() {
        assert_eq!(CvtOp::I32WrapI64.signature(), (ValType::I64, ValType::I32));
        assert_eq!(
            CvtOp::F64ConvertI32S.signature(),
            (ValType::I32, ValType::F64)
        );
        assert_eq!(
            CvtOp::I64ReinterpretF64.signature(),
            (ValType::F64, ValType::I64)
        );
    }

    #[test]
    fn blocktype_arity() {
        assert_eq!(BlockType::Empty.result(), None);
        assert_eq!(BlockType::Value(ValType::F64).result(), Some(ValType::F64));
    }
}
