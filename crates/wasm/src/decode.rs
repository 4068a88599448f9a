//! WebAssembly binary format decoder.
//!
//! Parses real `.wasm` bytes into a [`Module`]. The decoder is strict about
//! structure (section ordering, sizes, LEB bounds) because in the paper's
//! deployment model the Wasm binary arrives from an untrusted channel and is
//! the first line of input validation before [`crate::validate`] runs.

use crate::instr::{
    BlockType, CvtOp, FBinOp, FRelOp, FUnOp, FloatWidth, IBinOp, IRelOp, IUnOp, Instr, IntWidth,
    LoadKind, MemArg, StoreKind,
};
use crate::module::{
    ConstExpr, DataSegment, ElemSegment, Export, Func, Global, GlobalType, Import, ImportDesc,
    Module,
};
use crate::types::{ExternKind, FuncType, Limits, ValType, Value};
use crate::ModuleError;

/// Deepest nesting of `block`/`loop`/`if` a function body may have. Real
/// compilers nest `block`s as deep as a `switch` has cases, so the cap is
/// generous; past it a module is refused with [`ModuleError::Decode`].
const MAX_NESTING: usize = 1024;

/// Decode a binary module.
pub fn decode(bytes: &[u8]) -> Result<Module, ModuleError> {
    Decoder::new(bytes).module()
}

struct Decoder<'a> {
    bytes: &'a [u8],
    pos: usize,
}

type DResult<T> = Result<T, ModuleError>;

fn err<T>(msg: impl Into<String>) -> DResult<T> {
    Err(ModuleError::Decode(msg.into()))
}

impl<'a> Decoder<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    fn module(&mut self) -> DResult<Module> {
        let header = self.take(8)?;
        if header != crate::encode::HEADER {
            return err("bad magic/version header");
        }
        let mut module = Module::default();
        let mut func_type_indices: Vec<u32> = Vec::new();
        let mut last_section = 0u8;
        while self.pos < self.bytes.len() {
            let id = self.byte()?;
            let size = self.u32()? as usize;
            let end = self.pos + size;
            if end > self.bytes.len() {
                return err(format!("section {id} overruns module"));
            }
            if id != 0 {
                if id <= last_section {
                    return err(format!("section {id} out of order"));
                }
                last_section = id;
            }
            match id {
                0 => {
                    // Custom section: skip entirely (name + payload).
                    self.pos = end;
                }
                1 => {
                    let n = self.u32()?;
                    for _ in 0..n {
                        if self.byte()? != 0x60 {
                            return err("expected func type tag 0x60");
                        }
                        let params = self.valtype_vec()?;
                        let results = self.valtype_vec()?;
                        if results.len() > 1 {
                            return err("multi-value results not supported");
                        }
                        module.types.push(FuncType::new(params, results));
                    }
                }
                2 => {
                    let n = self.u32()?;
                    for _ in 0..n {
                        let mod_name = self.name()?;
                        let name = self.name()?;
                        let desc = match self.byte()? {
                            0x00 => ImportDesc::Func(self.u32()?),
                            0x01 => {
                                if self.byte()? != 0x70 {
                                    return err("table element type must be funcref");
                                }
                                ImportDesc::Table(self.limits()?)
                            }
                            0x02 => ImportDesc::Memory(self.limits()?),
                            0x03 => {
                                let ty = self.valtype()?;
                                let mutable = match self.byte()? {
                                    0 => false,
                                    1 => true,
                                    _ => return err("bad mutability flag"),
                                };
                                ImportDesc::Global(GlobalType { ty, mutable })
                            }
                            t => return err(format!("bad import desc tag {t}")),
                        };
                        module.imports.push(Import {
                            module: mod_name,
                            name,
                            desc,
                        });
                    }
                }
                3 => {
                    let n = self.u32()?;
                    for _ in 0..n {
                        func_type_indices.push(self.u32()?);
                    }
                }
                4 => {
                    let n = self.u32()?;
                    if n > 1 {
                        return err("at most one table supported");
                    }
                    if n == 1 {
                        if self.byte()? != 0x70 {
                            return err("table element type must be funcref");
                        }
                        module.table = Some(self.limits()?);
                    }
                }
                5 => {
                    let n = self.u32()?;
                    if n > 1 {
                        return err("at most one memory supported");
                    }
                    if n == 1 {
                        module.memory = Some(self.limits()?);
                    }
                }
                6 => {
                    let n = self.u32()?;
                    for _ in 0..n {
                        let ty = self.valtype()?;
                        let mutable = match self.byte()? {
                            0 => false,
                            1 => true,
                            _ => return err("bad mutability flag"),
                        };
                        let init = self.const_expr()?;
                        module.globals.push(Global {
                            ty: GlobalType { ty, mutable },
                            init,
                        });
                    }
                }
                7 => {
                    let n = self.u32()?;
                    for _ in 0..n {
                        let name = self.name()?;
                        let kind = match self.byte()? {
                            0x00 => ExternKind::Func,
                            0x01 => ExternKind::Table,
                            0x02 => ExternKind::Memory,
                            0x03 => ExternKind::Global,
                            t => return err(format!("bad export kind {t}")),
                        };
                        let index = self.u32()?;
                        module.exports.push(Export { name, kind, index });
                    }
                }
                8 => {
                    module.start = Some(self.u32()?);
                }
                9 => {
                    let n = self.u32()?;
                    for _ in 0..n {
                        let flags = self.u32()?;
                        if flags != 0 {
                            return err("only active funcref element segments supported");
                        }
                        let offset = self.const_expr()?;
                        let count = self.u32()?;
                        let mut funcs = self.vec_for(count as usize);
                        for _ in 0..count {
                            funcs.push(self.u32()?);
                        }
                        module.elems.push(ElemSegment { offset, funcs });
                    }
                }
                10 => {
                    let n = self.u32()? as usize;
                    if n != func_type_indices.len() {
                        return err("code count != function count");
                    }
                    for type_idx in func_type_indices.iter().copied() {
                        let body_size = self.u32()? as usize;
                        let body_end = self.pos + body_size;
                        if body_end > self.bytes.len() {
                            return err("code body overruns module");
                        }
                        let mut locals = Vec::new();
                        let runs = self.u32()?;
                        for _ in 0..runs {
                            let count = self.u32()?;
                            let ty = self.valtype()?;
                            if locals.len() + count as usize > 100_000 {
                                return err("too many locals");
                            }
                            locals.extend(std::iter::repeat_n(ty, count as usize));
                        }
                        let body = self.body()?;
                        if self.pos != body_end {
                            return err("code body size mismatch");
                        }
                        module.funcs.push(Func {
                            type_idx,
                            locals,
                            body,
                        });
                    }
                }
                11 => {
                    let n = self.u32()?;
                    for _ in 0..n {
                        let flags = self.u32()?;
                        if flags != 0 {
                            return err("only active data segments for memory 0 supported");
                        }
                        let offset = self.const_expr()?;
                        let len = self.u32()? as usize;
                        let bytes = self.take(len)?.to_vec();
                        module.data.push(DataSegment { offset, bytes });
                    }
                }
                _ => return err(format!("unknown section id {id}")),
            }
            if id != 0 && self.pos != end {
                return err(format!("section {id} size mismatch"));
            }
        }
        if !func_type_indices.is_empty() && module.funcs.len() != func_type_indices.len() {
            return err("function section without matching code section");
        }
        Ok(module)
    }

    // ---- primitives -----------------------------------------------------

    fn take(&mut self, n: usize) -> DResult<&'a [u8]> {
        if self.pos + n > self.bytes.len() {
            return err("unexpected end of input");
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// A vector for `n` elements a LEB count declares. Each element takes
    /// at least one byte, so the reservation is bounded by the bytes that
    /// remain: a forged count cannot make the decoder ask for gigabytes.
    fn vec_for<T>(&self, n: usize) -> Vec<T> {
        Vec::with_capacity(n.min(self.bytes.len() - self.pos))
    }

    fn byte(&mut self) -> DResult<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> DResult<u32> {
        let mut result = 0u64;
        let mut shift = 0;
        loop {
            let b = self.byte()?;
            result |= u64::from(b & 0x7F) << shift;
            if b & 0x80 == 0 {
                break;
            }
            shift += 7;
            if shift >= 35 {
                return err("u32 LEB128 too long");
            }
        }
        if result > u64::from(u32::MAX) {
            return err("u32 LEB128 out of range");
        }
        Ok(result as u32)
    }

    fn i32(&mut self) -> DResult<i32> {
        let v = self.sleb(33)?;
        Ok(v as i32)
    }

    fn i64(&mut self) -> DResult<i64> {
        self.sleb(64)
    }

    fn sleb(&mut self, max_bits: u32) -> DResult<i64> {
        let mut result = 0i64;
        let mut shift = 0u32;
        loop {
            let b = self.byte()?;
            result |= i64::from(b & 0x7F) << shift;
            shift += 7;
            if b & 0x80 == 0 {
                if shift < 64 && b & 0x40 != 0 {
                    result |= -1i64 << shift;
                }
                break;
            }
            if shift >= max_bits + 7 {
                return err("signed LEB128 too long");
            }
        }
        Ok(result)
    }

    fn name(&mut self) -> DResult<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| ModuleError::Decode("bad UTF-8 name".into()))
    }

    fn valtype(&mut self) -> DResult<ValType> {
        let b = self.byte()?;
        ValType::from_byte(b).ok_or_else(|| ModuleError::Decode(format!("bad value type 0x{b:02x}")))
    }

    fn valtype_vec(&mut self) -> DResult<Vec<ValType>> {
        let n = self.u32()? as usize;
        let mut v = self.vec_for(n);
        for _ in 0..n {
            v.push(self.valtype()?);
        }
        Ok(v)
    }

    fn limits(&mut self) -> DResult<Limits> {
        match self.byte()? {
            0x00 => Ok(Limits {
                min: self.u32()?,
                max: None,
            }),
            0x01 => Ok(Limits {
                min: self.u32()?,
                max: Some(self.u32()?),
            }),
            t => err(format!("bad limits flag {t}")),
        }
    }

    fn const_expr(&mut self) -> DResult<ConstExpr> {
        let value = match self.byte()? {
            0x41 => Value::I32(self.i32()?),
            0x42 => Value::I64(self.i64()?),
            0x43 => {
                let b = self.take(4)?;
                Value::F32(f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
            }
            0x44 => {
                let b = self.take(8)?;
                Value::F64(f64::from_le_bytes([
                    b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
                ]))
            }
            op => return err(format!("unsupported const expr opcode 0x{op:02x}")),
        };
        if self.byte()? != 0x0B {
            return err("const expr must end with 0x0B");
        }
        Ok(ConstExpr(value))
    }

    fn blocktype(&mut self) -> DResult<BlockType> {
        let b = self.byte()?;
        if b == 0x40 {
            return Ok(BlockType::Empty);
        }
        match ValType::from_byte(b) {
            Some(t) => Ok(BlockType::Value(t)),
            None => err(format!("bad block type 0x{b:02x}")),
        }
    }

    fn memarg(&mut self) -> DResult<MemArg> {
        Ok(MemArg {
            align: self.u32()?,
            offset: self.u32()?,
        })
    }

    /// Decode a function body up to and including its final `end` (0x0B).
    ///
    /// Nested bodies are built with an explicit stack of open constructs,
    /// not by recursion, and at most [`MAX_NESTING`] may be open at once:
    /// a body's nesting comes from tenant bytes, and must neither overflow
    /// the decoding thread's stack nor build a tree too deep for the
    /// recursive drop that frees it.
    fn body(&mut self) -> DResult<Vec<Instr>> {
        /// A `block`/`loop`/`if` whose `end` has not been read yet.
        struct Open {
            op: u8,
            bt: BlockType,
            /// The enclosing sequence, up to the construct.
            outer: Vec<Instr>,
            /// An `if`'s `then` arm, once its `else` has been read.
            then_arm: Option<Vec<Instr>>,
        }
        let mut open: Vec<Open> = Vec::new();
        let mut seq = Vec::new();
        loop {
            let op = self.byte()?;
            match op {
                0x02..=0x04 => {
                    if open.len() == MAX_NESTING {
                        return err(format!("blocks nested deeper than {MAX_NESTING}"));
                    }
                    let bt = self.blocktype()?;
                    let outer = std::mem::take(&mut seq);
                    open.push(Open { op, bt, outer, then_arm: None });
                }
                0x05 => match open.last_mut() {
                    Some(o) if o.op == 0x04 && o.then_arm.is_none() => {
                        o.then_arm = Some(std::mem::take(&mut seq));
                    }
                    _ => seq.push(self.instr(op)?),
                },
                0x0B => {
                    let Some(o) = open.pop() else {
                        return Ok(seq);
                    };
                    let body = std::mem::replace(&mut seq, o.outer);
                    seq.push(match (o.op, o.then_arm) {
                        (0x02, _) => Instr::Block(o.bt, body),
                        (0x03, _) => Instr::Loop(o.bt, body),
                        (_, Some(then_arm)) => Instr::If(o.bt, then_arm, body),
                        (_, None) => Instr::If(o.bt, body, Vec::new()),
                    });
                }
                _ => seq.push(self.instr(op)?),
            }
        }
    }

    fn instr(&mut self, op: u8) -> DResult<Instr> {
        use Instr as I;
        Ok(match op {
            0x00 => I::Unreachable,
            0x01 => I::Nop,
            0x0C => I::Br(self.u32()?),
            0x0D => I::BrIf(self.u32()?),
            0x0E => {
                let n = self.u32()? as usize;
                let mut targets = self.vec_for(n);
                for _ in 0..n {
                    targets.push(self.u32()?);
                }
                let default = self.u32()?;
                I::BrTable(targets, default)
            }
            0x0F => I::Return,
            0x10 => I::Call(self.u32()?),
            0x11 => {
                let ty = self.u32()?;
                if self.byte()? != 0x00 {
                    return err("call_indirect reserved byte must be 0");
                }
                I::CallIndirect(ty)
            }
            0x1A => I::Drop,
            0x1B => I::Select,
            0x20 => I::LocalGet(self.u32()?),
            0x21 => I::LocalSet(self.u32()?),
            0x22 => I::LocalTee(self.u32()?),
            0x23 => I::GlobalGet(self.u32()?),
            0x24 => I::GlobalSet(self.u32()?),
            0x28..=0x35 => {
                use LoadKind::*;
                let kind = match op {
                    0x28 => I32,
                    0x29 => I64,
                    0x2A => F32,
                    0x2B => F64,
                    0x2C => I32_8S,
                    0x2D => I32_8U,
                    0x2E => I32_16S,
                    0x2F => I32_16U,
                    0x30 => I64_8S,
                    0x31 => I64_8U,
                    0x32 => I64_16S,
                    0x33 => I64_16U,
                    0x34 => I64_32S,
                    _ => I64_32U,
                };
                I::Load(kind, self.memarg()?)
            }
            0x36..=0x3E => {
                use StoreKind::*;
                let kind = match op {
                    0x36 => I32,
                    0x37 => I64,
                    0x38 => F32,
                    0x39 => F64,
                    0x3A => I32_8,
                    0x3B => I32_16,
                    0x3C => I64_8,
                    0x3D => I64_16,
                    _ => I64_32,
                };
                I::Store(kind, self.memarg()?)
            }
            0x3F => {
                if self.byte()? != 0x00 {
                    return err("memory.size reserved byte must be 0");
                }
                I::MemorySize
            }
            0x40 => {
                if self.byte()? != 0x00 {
                    return err("memory.grow reserved byte must be 0");
                }
                I::MemoryGrow
            }
            0x41 => I::Const(Value::I32(self.i32()?)),
            0x42 => I::Const(Value::I64(self.i64()?)),
            0x43 => {
                let b = self.take(4)?;
                I::Const(Value::F32(f32::from_le_bytes([b[0], b[1], b[2], b[3]])))
            }
            0x44 => {
                let b = self.take(8)?;
                I::Const(Value::F64(f64::from_le_bytes([
                    b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
                ])))
            }
            0x45 => I::ITestEqz(IntWidth::W32),
            0x50 => I::ITestEqz(IntWidth::W64),
            0x46..=0x4F => I::IRelop(IntWidth::W32, irelop(op - 0x46)),
            0x51..=0x5A => I::IRelop(IntWidth::W64, irelop(op - 0x51)),
            0x5B..=0x60 => I::FRelop(FloatWidth::W32, frelop(op - 0x5B)),
            0x61..=0x66 => I::FRelop(FloatWidth::W64, frelop(op - 0x61)),
            0x67..=0x69 => I::IUnop(IntWidth::W32, iunop(op - 0x67)),
            0x6A..=0x78 => I::IBinop(IntWidth::W32, ibinop(op - 0x6A)),
            0x79..=0x7B => I::IUnop(IntWidth::W64, iunop(op - 0x79)),
            0x7C..=0x8A => I::IBinop(IntWidth::W64, ibinop(op - 0x7C)),
            0x8B..=0x91 => I::FUnop(FloatWidth::W32, funop(op - 0x8B)),
            0x92..=0x98 => I::FBinop(FloatWidth::W32, fbinop(op - 0x92)),
            0x99..=0x9F => I::FUnop(FloatWidth::W64, funop(op - 0x99)),
            0xA0..=0xA6 => I::FBinop(FloatWidth::W64, fbinop(op - 0xA0)),
            0xA7..=0xC4 => I::Cvt(cvtop(op)?),
            0xFC => {
                let sub = self.u32()?;
                match sub {
                    10 => {
                        if self.byte()? != 0 || self.byte()? != 0 {
                            return err("memory.copy reserved bytes must be 0");
                        }
                        I::MemoryCopy
                    }
                    11 => {
                        if self.byte()? != 0 {
                            return err("memory.fill reserved byte must be 0");
                        }
                        I::MemoryFill
                    }
                    _ => return err(format!("unsupported 0xFC sub-opcode {sub}")),
                }
            }
            _ => return err(format!("unsupported opcode 0x{op:02x}")),
        })
    }
}

fn irelop(off: u8) -> IRelOp {
    use IRelOp::*;
    [Eq, Ne, LtS, LtU, GtS, GtU, LeS, LeU, GeS, GeU][off as usize]
}

fn frelop(off: u8) -> FRelOp {
    use FRelOp::*;
    [Eq, Ne, Lt, Gt, Le, Ge][off as usize]
}

fn iunop(off: u8) -> IUnOp {
    use IUnOp::*;
    [Clz, Ctz, Popcnt][off as usize]
}

fn ibinop(off: u8) -> IBinOp {
    use IBinOp::*;
    [
        Add, Sub, Mul, DivS, DivU, RemS, RemU, And, Or, Xor, Shl, ShrS, ShrU, Rotl, Rotr,
    ][off as usize]
}

fn funop(off: u8) -> FUnOp {
    use FUnOp::*;
    [Abs, Neg, Ceil, Floor, Trunc, Nearest, Sqrt][off as usize]
}

fn fbinop(off: u8) -> FBinOp {
    use FBinOp::*;
    [Add, Sub, Mul, Div, Min, Max, Copysign][off as usize]
}

fn cvtop(op: u8) -> DResult<CvtOp> {
    use CvtOp::*;
    Ok(match op {
        0xA7 => I32WrapI64,
        0xA8 => I32TruncF32S,
        0xA9 => I32TruncF32U,
        0xAA => I32TruncF64S,
        0xAB => I32TruncF64U,
        0xAC => I64ExtendI32S,
        0xAD => I64ExtendI32U,
        0xAE => I64TruncF32S,
        0xAF => I64TruncF32U,
        0xB0 => I64TruncF64S,
        0xB1 => I64TruncF64U,
        0xB2 => F32ConvertI32S,
        0xB3 => F32ConvertI32U,
        0xB4 => F32ConvertI64S,
        0xB5 => F32ConvertI64U,
        0xB6 => F32DemoteF64,
        0xB7 => F64ConvertI32S,
        0xB8 => F64ConvertI32U,
        0xB9 => F64ConvertI64S,
        0xBA => F64ConvertI64U,
        0xBB => F64PromoteF32,
        0xBC => I32ReinterpretF32,
        0xBD => I64ReinterpretF64,
        0xBE => F32ReinterpretI32,
        0xBF => F64ReinterpretI64,
        0xC0 => I32Extend8S,
        0xC1 => I32Extend16S,
        0xC2 => I64Extend8S,
        0xC3 => I64Extend16S,
        0xC4 => I64Extend32S,
        _ => return err(format!("bad conversion opcode 0x{op:02x}")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::encode;
    use crate::module::ModuleBuilder;
    use crate::types::{FuncType, ValType};

    #[test]
    fn reject_bad_header() {
        assert!(decode(b"\0asm\x02\0\0\0").is_err());
        assert!(decode(b"nope").is_err());
        assert!(decode(b"").is_err());
    }

    #[test]
    fn empty_module_roundtrip() {
        let m = Module::default();
        let back = decode(&encode(&m)).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn rich_module_roundtrip() {
        let mut b = ModuleBuilder::new();
        let host = b.import_func(
            "wasi_snapshot_preview1",
            "fd_write",
            FuncType::new(vec![ValType::I32; 4], vec![ValType::I32]),
        );
        b.memory(Limits::bounded(2, 10));
        b.table(Limits::at_least(4));
        let g = b.add_global(ValType::I64, true, Value::I64(-7));
        let f = b.add_func(
            FuncType::new(vec![ValType::I32], vec![ValType::I32]),
            vec![ValType::I64, ValType::I64, ValType::F64],
            vec![
                Instr::Block(
                    BlockType::Value(ValType::I32),
                    vec![
                        Instr::LocalGet(0),
                        Instr::If(
                            BlockType::Value(ValType::I32),
                            vec![Instr::Const(Value::I32(1))],
                            vec![Instr::Const(Value::I32(2))],
                        ),
                    ],
                ),
                Instr::GlobalGet(g),
                Instr::Cvt(CvtOp::I32WrapI64),
                Instr::IBinop(IntWidth::W32, IBinOp::Add),
                Instr::Load(LoadKind::I32_16S, MemArg { align: 1, offset: 4 }),
                Instr::IBinop(IntWidth::W32, IBinOp::Add),
            ],
        );
        b.export_func("run", f);
        b.export_memory("memory");
        b.add_data(16, b"hello world".to_vec());
        b.add_elem(0, vec![host, f]);
        let m = b.build();
        let bytes = encode(&m);
        let back = decode(&bytes).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn truncated_module_rejected() {
        let mut b = ModuleBuilder::new();
        let f = b.add_func(
            FuncType::new(vec![], vec![ValType::I32]),
            vec![],
            vec![Instr::Const(Value::I32(5))],
        );
        b.export_func("f", f);
        let m = b.build();
        let bytes = encode(&m);
        for cut in 1..bytes.len() {
            // A truncated binary must never decode to the original module;
            // cuts at section boundaries may still be valid (smaller)
            // modules, but must not round-trip to the full one.
            match decode(&bytes[..cut]) {
                Err(_) => {}
                Ok(partial) => assert_ne!(partial, m, "truncation at {cut}"),
            }
        }
    }

    #[test]
    fn negative_const_roundtrip() {
        for v in [-1i32, i32::MIN, i32::MAX, 0, 63, 64, -64, -65] {
            let mut b = ModuleBuilder::new();
            b.add_func(
                FuncType::new(vec![], vec![ValType::I32]),
                vec![],
                vec![Instr::Const(Value::I32(v))],
            );
            let m = b.build();
            assert_eq!(decode(&encode(&m)).unwrap(), m, "v={v}");
        }
    }

    #[test]
    fn i64_const_roundtrip() {
        for v in [i64::MIN, i64::MAX, -1, 0, 1 << 40, -(1 << 40)] {
            let mut b = ModuleBuilder::new();
            b.add_func(
                FuncType::new(vec![], vec![ValType::I64]),
                vec![],
                vec![Instr::Const(Value::I64(v))],
            );
            let m = b.build();
            assert_eq!(decode(&encode(&m)).unwrap(), m, "v={v}");
        }
    }

    /// A module of one `[] -> []` function whose body is `code` (after an
    /// empty locals vector and before the closing `end`).
    fn one_func_module(code: &[u8]) -> Vec<u8> {
        let mut body = vec![0]; // no locals
        body.extend_from_slice(code);
        body.push(0x0B);
        let mut bytes = crate::encode::HEADER.to_vec();
        bytes.extend_from_slice(&[1, 4, 1, 0x60, 0, 0]); // type section
        bytes.extend_from_slice(&[3, 2, 1, 0]); // function section
        let mut code_section = vec![1];
        leb(&mut code_section, body.len() as u32);
        code_section.extend_from_slice(&body);
        bytes.push(10);
        leb(&mut bytes, code_section.len() as u32);
        bytes.extend_from_slice(&code_section);
        bytes
    }

    fn leb(out: &mut Vec<u8>, mut v: u32) {
        loop {
            let b = (v & 0x7F) as u8;
            v >>= 7;
            if v == 0 {
                out.push(b);
                return;
            }
            out.push(b | 0x80);
        }
    }

    #[test]
    fn forged_counts_are_refused_without_reserving_them() {
        // br_table declaring u32::MAX targets, then the body ends.
        let table = one_func_module(&[0x41, 0, 0x0E, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F]);
        // An element segment declaring u32::MAX function indices.
        let mut elems = crate::encode::HEADER.to_vec();
        elems.extend_from_slice(&[9, 9, 1, 0, 0x41, 0, 0x0B, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F]);
        elems[9] = (elems.len() - 10) as u8;
        // A parameter vector of u32::MAX value types.
        let mut params = crate::encode::HEADER.to_vec();
        params.extend_from_slice(&[1, 7, 1, 0x60, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F]);
        for bytes in [table, elems, params] {
            assert!(matches!(decode(&bytes), Err(ModuleError::Decode(_))), "{bytes:02x?}");
        }
    }

    #[test]
    fn nesting_is_capped_and_decoded_without_recursion() {
        let nested = |depth: usize| {
            let mut code = [0x02, 0x40].repeat(depth);
            code.extend(std::iter::repeat_n(0x0B, depth));
            one_func_module(&code)
        };
        let (at_cap, past_cap) = (nested(MAX_NESTING), nested(MAX_NESTING + 1));
        // Decode, validate, compile and drop on a small thread stack: none
        // of them may recurse once per nesting level.
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                let cm = crate::CompiledModule::from_bytes(&at_cap).expect("nesting at the cap compiles");
                assert_eq!(cm.funcs[0].ops.len(), 1);
                drop(cm);
                assert!(matches!(decode(&past_cap), Err(ModuleError::Decode(_))));
            })
            .unwrap()
            .join()
            .unwrap();
    }

    #[test]
    fn section_out_of_order_rejected() {
        // Hand-build: memory section (5) then type section (1).
        let mut bytes = crate::encode::HEADER.to_vec();
        bytes.extend_from_slice(&[5, 3, 1, 0x00, 1]); // memory section
        bytes.extend_from_slice(&[1, 1, 0]); // empty type section after — invalid
        assert!(decode(&bytes).is_err());
    }
}
