//! Module validation, and the one walk from a function body to stack code.
//!
//! Validation runs before a module may be compiled or instantiated — the
//! Twine enclave refuses unvalidated code, which is the software half of the
//! paper's double-sandbox argument (§IV): SGX protects the enclave from the
//! host, validation + bounds-checked memory protect the host from the guest.
//!
//! `check_module` makes the module-level index and limit checks. Then
//! `func_code` walks each function body once, with an explicit control
//! stack instead of recursion, and for every instruction:
//!
//! * type-checks it with the spec's stack-polymorphic algorithm;
//! * emits its flattened [`Op`] with branch targets resolved — backward
//!   branches at once, forward ones patched when their construct ends —
//!   and each [`BranchTarget`]'s label height and arity;
//! * records the operand-stack depth before each emitted op, `None` where no
//!   control path reaches it: code after a construct whose end neither falls
//!   through nor is branched to by reachable code.
//!
//! Code after an unconditional transfer (`unreachable`, `br`, `br_table`,
//! `return`) in the same construct is checked but not emitted. The register
//! pass ([`crate::regalloc`]) takes the depths as they are, so no later pass
//! re-derives stack heights or trusts this one through a panic.

use crate::compile::{BranchTarget, CompiledFunc, Op};
use crate::instr::{BlockType, Instr};
use crate::module::{ImportDesc, Module};
use crate::types::{ExternKind, ValType};
use crate::ModuleError;

type VResult<T> = Result<T, ModuleError>;

fn err<T>(msg: impl Into<String>) -> VResult<T> {
    Err(ModuleError::Validate(msg.into()))
}

/// Validate a module. Returns `Ok(())` when the module is type-correct and
/// all indices/limits are in range.
pub fn validate(module: &Module) -> VResult<()> {
    check_module(module)?;
    for i in 0..module.funcs.len() {
        func_code(module, i)?;
    }
    Ok(())
}

/// The module-level checks: types, imports, limits, globals, function type
/// indices, start, exports and segments. Function bodies are checked by
/// [`func_code`], which relies on these.
pub(crate) fn check_module(module: &Module) -> VResult<()> {
    // -- types ------------------------------------------------------------
    for (i, t) in module.types.iter().enumerate() {
        if t.results.len() > 1 {
            return err(format!("type {i}: multi-value results unsupported"));
        }
    }

    // -- imports ----------------------------------------------------------
    for imp in &module.imports {
        match &imp.desc {
            ImportDesc::Func(t) => {
                if *t as usize >= module.types.len() {
                    return err(format!(
                        "import {}.{}: type index {t} out of range",
                        imp.module, imp.name
                    ));
                }
            }
            ImportDesc::Memory(l) => check_limits(l, 65_536, "imported memory")?,
            ImportDesc::Table(_) | ImportDesc::Global(_) => {
                return err(format!(
                    "import {}.{}: only function and memory imports are supported",
                    imp.module, imp.name
                ));
            }
        }
    }
    if module.imports.iter().any(|i| matches!(i.desc, ImportDesc::Memory(_))) && module.memory.is_some()
    {
        return err("module both imports and defines a memory");
    }

    // -- memory / table limits --------------------------------------------
    if let Some(l) = &module.memory {
        check_limits(l, 65_536, "memory")?;
    }
    if let Some(l) = &module.table {
        check_limits(l, 10_000_000, "table")?;
    }

    // -- globals ----------------------------------------------------------
    for (i, g) in module.globals.iter().enumerate() {
        if g.init.eval().ty() != g.ty.ty {
            return err(format!("global {i}: init type mismatch"));
        }
    }

    // -- functions ---------------------------------------------------------
    for (i, f) in module.funcs.iter().enumerate() {
        if f.type_idx as usize >= module.types.len() {
            return err(format!("function {i}: type index out of range"));
        }
    }

    // -- start -------------------------------------------------------------
    if let Some(s) = module.start {
        match module.func_type(s) {
            None => return err("start function index out of range"),
            Some(t) if !t.params.is_empty() || !t.results.is_empty() => {
                return err("start function must have type [] -> []")
            }
            _ => {}
        }
    }

    // -- exports -----------------------------------------------------------
    let mut seen = std::collections::HashSet::new();
    for e in &module.exports {
        if !seen.insert(e.name.as_str()) {
            return err(format!("duplicate export name {:?}", e.name));
        }
        let ok = match e.kind {
            ExternKind::Func => e.index < module.num_funcs(),
            ExternKind::Memory => e.index == 0 && (module.memory.is_some() || module.imports_memory()),
            ExternKind::Table => e.index == 0 && module.table.is_some(),
            ExternKind::Global => (e.index as usize) < module.globals.len(),
        };
        if !ok {
            return err(format!("export {:?}: index out of range", e.name));
        }
    }

    // -- element segments ---------------------------------------------------
    for (i, seg) in module.elems.iter().enumerate() {
        if module.table.is_none() {
            return err(format!("element segment {i} without a table"));
        }
        if seg.offset.eval().ty() != ValType::I32 {
            return err(format!("element segment {i}: offset must be i32"));
        }
        for f in &seg.funcs {
            if *f >= module.num_funcs() {
                return err(format!("element segment {i}: function index {f} out of range"));
            }
        }
    }

    // -- data segments -------------------------------------------------------
    for (i, seg) in module.data.iter().enumerate() {
        if module.memory.is_none() && !module.imports_memory() {
            return err(format!("data segment {i} without a memory"));
        }
        if seg.offset.eval().ty() != ValType::I32 {
            return err(format!("data segment {i}: offset must be i32"));
        }
    }
    Ok(())
}

fn check_limits(l: &crate::types::Limits, hard_max: u32, what: &str) -> VResult<()> {
    if l.min > hard_max {
        return err(format!("{what}: min {} exceeds hard max {hard_max}", l.min));
    }
    if let Some(max) = l.max {
        if max < l.min {
            return err(format!("{what}: max {} < min {}", max, l.min));
        }
        if max > hard_max {
            return err(format!("{what}: max {max} exceeds hard max {hard_max}"));
        }
    }
    Ok(())
}

/// Type-check local function `i` of a module that passed [`check_module`]
/// and emit its stack code, with the operand-stack depth before each op
/// (`None` where the op is unreachable).
pub(crate) fn func_code(module: &Module, i: usize) -> VResult<(CompiledFunc, Vec<Option<u32>>)> {
    let f = &module.funcs[i];
    let ty = &module.types[f.type_idx as usize];
    let mut v = FuncValidator {
        module,
        locals: ty.params.iter().chain(&f.locals).copied().collect(),
        results: ty.results.first().copied(),
        opds: Vec::new(),
        ctrls: Vec::new(),
        cur: CtrlFrame {
            result: ty.results.first().copied(),
            rest: f.body.iter(),
            emit: true,
            ..CtrlFrame::default()
        },
        ops: Vec::with_capacity(f.body.len() + 8),
        depths: Vec::with_capacity(f.body.len() + 8),
        live: true,
    };
    v.walk().map_err(|e| match e {
        ModuleError::Validate(m) => {
            let idx = module.num_imported_funcs() as usize + i;
            ModuleError::Validate(format!("function {i} (idx {idx}): {m}"))
        }
        other => other,
    })?;
    let classes = v.ops.iter().map(Op::class).collect();
    let code = CompiledFunc {
        type_idx: f.type_idx,
        n_params: ty.params.len(),
        n_locals: v.locals.len(),
        n_results: ty.results.len(),
        ops: v.ops,
        classes,
    };
    Ok((code, v.depths))
}

/// `None` stands for the polymorphic "unknown" type that arises after
/// unconditional control transfer.
type OpdType = Option<ValType>;

/// What opened a control frame.
#[derive(Default)]
enum Kind<'a> {
    /// The function body (or a `block`).
    #[default]
    Block,
    /// A `loop`: branches to it go back to `head`, the op index of its body.
    Loop { head: u32 },
    /// An `if` walking its `then` arm: `test` is the op index of its entry
    /// test, `live` whether that test is reachable.
    If { test: usize, live: bool, else_arm: &'a [Instr] },
    /// An `if` walking its `else` arm.
    Else,
}

#[derive(Default)]
struct CtrlFrame<'a> {
    kind: Kind<'a>,
    /// Result type of the construct (MVP: at most one value).
    result: Option<ValType>,
    /// Operand-stack height at entry.
    height: usize,
    /// Set once the remainder of the frame is unreachable.
    unreachable: bool,
    /// The frame's instructions not walked yet.
    rest: std::slice::Iter<'a, Instr>,
    /// Whether the frame's code is emitted: false inside a construct that
    /// follows an unconditional transfer.
    emit: bool,
    /// Forward branches to patch to the construct's end: op index and
    /// `br_table` slot.
    patches: Vec<(usize, usize)>,
    /// Whether reachable code branches to the construct's end.
    reached: bool,
}

impl CtrlFrame<'_> {
    /// The values a branch to this frame's label carries: none for a loop
    /// (its label is its start), else the construct's result.
    fn label_type(&self) -> Option<ValType> {
        match self.kind {
            Kind::Loop { .. } => None,
            _ => self.result,
        }
    }
}

struct FuncValidator<'a> {
    module: &'a Module,
    locals: Vec<ValType>,
    results: Option<ValType>,
    opds: Vec<OpdType>,
    /// The frames enclosing `cur`, outermost first.
    ctrls: Vec<CtrlFrame<'a>>,
    /// The innermost control frame.
    cur: CtrlFrame<'a>,
    ops: Vec<Op>,
    /// Operand-stack depth before each op in `ops`.
    depths: Vec<Option<u32>>,
    /// Whether the next emitted op is reachable.
    live: bool,
}

impl<'a> FuncValidator<'a> {
    /// Walk the body to its final `end`, one instruction or one `end` at a
    /// time.
    fn walk(&mut self) -> VResult<()> {
        loop {
            match self.cur.rest.next() {
                Some(instr) => self.instr(instr)?,
                None if self.end()? => return Ok(()),
                None => {}
            }
        }
    }

    // ---- operand stack ---------------------------------------------------

    fn push(&mut self, t: ValType) {
        self.opds.push(Some(t));
    }

    fn push_opt(&mut self, t: Option<ValType>) {
        if let Some(t) = t {
            self.push(t);
        }
    }

    fn pop_any(&mut self) -> VResult<OpdType> {
        if self.opds.len() == self.cur.height {
            if self.cur.unreachable {
                return Ok(None);
            }
            return err("operand stack underflow");
        }
        Ok(self.opds.pop().flatten())
    }

    fn pop_expect(&mut self, t: ValType) -> VResult<()> {
        match self.pop_any()? {
            None => Ok(()),
            Some(actual) if actual == t => Ok(()),
            Some(actual) => err(format!("expected {t}, found {actual}")),
        }
    }

    fn pop_opt(&mut self, t: Option<ValType>) -> VResult<()> {
        t.map_or(Ok(()), |t| self.pop_expect(t))
    }

    fn pop_many(&mut self, ts: &[ValType]) -> VResult<()> {
        for t in ts.iter().rev() {
            self.pop_expect(*t)?;
        }
        Ok(())
    }

    // ---- control stack -----------------------------------------------------

    /// Whether the instruction being walked is emitted.
    fn emitting(&self) -> bool {
        self.cur.emit && !self.cur.unreachable
    }

    /// Emit `op`, reachable iff `live`, at operand-stack depth `depth`.
    fn emit(&mut self, op: Op, depth: usize) {
        self.ops.push(op);
        self.depths.push(self.live.then_some(depth as u32));
    }

    fn push_ctrl(&mut self, kind: Kind<'a>, bt: BlockType, body: &'a [Instr]) {
        let frame = CtrlFrame {
            kind,
            result: bt.result(),
            height: self.opds.len(),
            rest: body.iter(),
            emit: self.emitting(),
            ..CtrlFrame::default()
        };
        self.ctrls.push(std::mem::replace(&mut self.cur, frame));
    }

    /// The innermost frame's instructions are exhausted: check its results,
    /// then switch an `if` to its `else` arm or close the construct,
    /// patching forward branches to here. Returns true once the function
    /// body closes.
    fn end(&mut self) -> VResult<bool> {
        self.pop_opt(self.cur.result)?;
        if self.opds.len() != self.cur.height {
            return err("values left on stack at end of block");
        }
        let fall = self.emitting() && self.live;
        let end_depth = self.cur.height + usize::from(self.cur.result.is_some());
        if let Kind::If { test, live, else_arm } = self.cur.kind {
            if !else_arm.is_empty() {
                if self.emitting() {
                    // The `then` arm falls through: jump over the `else` arm.
                    self.cur.patches.push((self.ops.len(), 0));
                    self.cur.reached |= fall;
                    self.emit(Op::Jump(u32::MAX), end_depth);
                }
                if self.cur.emit {
                    let else_start = self.ops.len() as u32;
                    if let Op::JumpIfZero(t) = &mut self.ops[test] {
                        *t = else_start;
                    }
                }
                self.cur.kind = Kind::Else;
                self.cur.unreachable = false;
                self.cur.rest = else_arm.iter();
                self.live = live;
                return Ok(false);
            }
            // No `else`: the entry test jumps to the construct's end.
            if self.cur.emit {
                self.cur.patches.push((test, 0));
                self.cur.reached |= live;
            }
        }
        let outermost = self.ctrls.is_empty();
        let frame = std::mem::replace(&mut self.cur, self.ctrls.pop().unwrap_or_default());
        if frame.emit {
            let end = self.ops.len() as u32;
            for &(at, slot) in &frame.patches {
                match &mut self.ops[at] {
                    Op::Br(bt) | Op::BrIf(bt) => bt.target = end,
                    Op::BrTable(table) => table[slot].target = end,
                    Op::Jump(t) | Op::JumpIfZero(t) => *t = end,
                    _ => {}
                }
            }
            self.live = fall || frame.reached;
        }
        self.push_opt(frame.result);
        if outermost {
            self.emit(Op::End, end_depth);
        }
        Ok(outermost)
    }

    fn mark_unreachable(&mut self) {
        self.opds.truncate(self.cur.height);
        self.cur.unreachable = true;
    }

    /// Check that label `depth` exists and return its branch descriptor and
    /// carried type. A forward branch emitted at `(op index, br_table slot)`
    /// is queued on the label's frame for patching; one from reachable code
    /// marks the label's end reached.
    fn branch(&mut self, depth: u32, slot: usize) -> VResult<(BranchTarget, Option<ValType>)> {
        let (emit, live, at) = (self.emitting(), self.live, self.ops.len());
        let n = self.ctrls.len();
        let label = match depth as usize {
            0 => &mut self.cur,
            d if d <= n => &mut self.ctrls[n - d],
            _ => return err(format!("branch depth {depth} out of range")),
        };
        let height = label.height as u32;
        let ty = label.label_type();
        let target = match label.kind {
            Kind::Loop { head } => head,
            _ => {
                if emit {
                    label.patches.push((at, slot));
                    label.reached |= live;
                }
                u32::MAX
            }
        };
        let arity = u8::from(ty.is_some());
        Ok((BranchTarget { target, height, arity }, ty))
    }

    // ---- memory/table presence ------------------------------------------

    fn require_memory(&self) -> VResult<()> {
        if self.module.memory.is_none() && !self.module.imports_memory() {
            return err("memory instruction without memory");
        }
        Ok(())
    }

    // ---- one instruction ---------------------------------------------------

    fn local(&self, i: u32) -> VResult<ValType> {
        self.locals
            .get(i as usize)
            .copied()
            .ok_or_else(|| ModuleError::Validate(format!("local {i} out of range")))
    }

    fn global(&self, i: u32) -> VResult<&'a crate::module::GlobalType> {
        self.module
            .globals
            .get(i as usize)
            .map(|g| &g.ty)
            .ok_or_else(|| ModuleError::Validate(format!("global {i} out of range")))
    }

    /// Type-check `instr` and, unless it follows an unconditional transfer,
    /// emit its op.
    #[allow(clippy::too_many_lines)]
    fn instr(&mut self, instr: &'a Instr) -> VResult<()> {
        use Instr::*;
        use ValType::*;
        let (emit, depth) = (self.emitting(), self.opds.len());
        let op = match instr {
            Unreachable => {
                self.mark_unreachable();
                Op::Unreachable
            }
            Nop => return Ok(()),
            Block(bt, body) => {
                self.push_ctrl(Kind::Block, *bt, body);
                return Ok(());
            }
            Loop(bt, body) => {
                self.push_ctrl(Kind::Loop { head: self.ops.len() as u32 }, *bt, body);
                return Ok(());
            }
            If(bt, then_arm, else_arm) => {
                self.pop_expect(I32)?;
                if *bt != BlockType::Empty && else_arm.is_empty() {
                    return err("if with result type requires an else branch");
                }
                let (test, live) = (self.ops.len(), self.live);
                if emit {
                    self.emit(Op::JumpIfZero(u32::MAX), depth);
                }
                self.push_ctrl(Kind::If { test, live, else_arm }, *bt, then_arm);
                return Ok(());
            }
            Br(label) => {
                let (bt, ty) = self.branch(*label, 0)?;
                self.pop_opt(ty)?;
                self.mark_unreachable();
                Op::Br(bt)
            }
            BrIf(label) => {
                self.pop_expect(I32)?;
                let (bt, ty) = self.branch(*label, 0)?;
                self.pop_opt(ty)?;
                self.push_opt(ty);
                Op::BrIf(bt)
            }
            BrTable(labels, default) => {
                self.pop_expect(I32)?;
                let (default_bt, ty) = self.branch(*default, labels.len())?;
                let mut table = Vec::with_capacity(labels.len() + 1);
                for (slot, label) in labels.iter().enumerate() {
                    let (bt, t) = self.branch(*label, slot)?;
                    if t != ty {
                        return err("br_table label arity mismatch");
                    }
                    table.push(bt);
                }
                table.push(default_bt);
                self.pop_opt(ty)?;
                self.mark_unreachable();
                Op::BrTable(table.into_boxed_slice())
            }
            Return => {
                self.pop_opt(self.results)?;
                self.mark_unreachable();
                Op::Return
            }
            Call(f) => {
                let Some(ty) = self.module.func_type(*f) else {
                    return err(format!("call: function index {f} out of range"));
                };
                self.pop_many(&ty.params)?;
                self.push_opt(ty.results.first().copied());
                Op::Call(*f)
            }
            CallIndirect(type_idx) => {
                if self.module.table.is_none() {
                    return err("call_indirect without a table");
                }
                let Some(ty) = self.module.types.get(*type_idx as usize) else {
                    return err("call_indirect: type index out of range");
                };
                self.pop_expect(I32)?;
                self.pop_many(&ty.params)?;
                self.push_opt(ty.results.first().copied());
                Op::CallIndirect(*type_idx)
            }
            Drop => {
                self.pop_any()?;
                Op::Drop
            }
            Select => {
                self.pop_expect(I32)?;
                let a = self.pop_any()?;
                let b = self.pop_any()?;
                match (a, b) {
                    (Some(x), Some(y)) if x != y => {
                        return err("select operands must have the same type")
                    }
                    (Some(x), _) | (None, Some(x)) => self.push(x),
                    (None, None) => self.opds.push(None),
                }
                Op::Select
            }
            LocalGet(i) => {
                let t = self.local(*i)?;
                self.push(t);
                Op::LocalGet(*i)
            }
            LocalSet(i) => {
                let t = self.local(*i)?;
                self.pop_expect(t)?;
                Op::LocalSet(*i)
            }
            LocalTee(i) => {
                let t = self.local(*i)?;
                self.pop_expect(t)?;
                self.push(t);
                Op::LocalTee(*i)
            }
            GlobalGet(i) => {
                let g = self.global(*i)?;
                self.push(g.ty);
                Op::GlobalGet(*i)
            }
            GlobalSet(i) => {
                let g = self.global(*i)?;
                if !g.mutable {
                    return err(format!("global {i} is immutable"));
                }
                self.pop_expect(g.ty)?;
                Op::GlobalSet(*i)
            }
            Load(kind, memarg) => {
                self.require_memory()?;
                // The alignment is a log2 straight from the binary: compare
                // exponents, since shifting by it overflows from 64 up.
                if memarg.align > kind.width().trailing_zeros() {
                    return err("load alignment exceeds natural alignment");
                }
                self.pop_expect(I32)?;
                self.push(kind.result_type());
                Op::Load(*kind, memarg.offset)
            }
            Store(kind, memarg) => {
                self.require_memory()?;
                if memarg.align > kind.width().trailing_zeros() {
                    return err("store alignment exceeds natural alignment");
                }
                self.pop_expect(kind.value_type())?;
                self.pop_expect(I32)?;
                Op::Store(*kind, memarg.offset)
            }
            MemorySize => {
                self.require_memory()?;
                self.push(I32);
                Op::MemorySize
            }
            MemoryGrow => {
                self.require_memory()?;
                self.pop_expect(I32)?;
                self.push(I32);
                Op::MemoryGrow
            }
            MemoryCopy | MemoryFill => {
                self.require_memory()?;
                self.pop_expect(I32)?;
                self.pop_expect(I32)?;
                self.pop_expect(I32)?;
                if matches!(instr, MemoryCopy) {
                    Op::MemoryCopy
                } else {
                    Op::MemoryFill
                }
            }
            Const(v) => {
                self.push(v.ty());
                Op::Const(v.to_bits())
            }
            ITestEqz(w) => {
                self.pop_expect(int_ty(*w))?;
                self.push(I32);
                Op::ITestEqz(*w)
            }
            IUnop(w, op) => {
                let t = int_ty(*w);
                self.pop_expect(t)?;
                self.push(t);
                Op::IUnop(*w, *op)
            }
            IBinop(w, op) => {
                let t = int_ty(*w);
                self.pop_expect(t)?;
                self.pop_expect(t)?;
                self.push(t);
                Op::IBinop(*w, *op)
            }
            IRelop(w, op) => {
                let t = int_ty(*w);
                self.pop_expect(t)?;
                self.pop_expect(t)?;
                self.push(I32);
                Op::IRelop(*w, *op)
            }
            FUnop(w, op) => {
                let t = float_ty(*w);
                self.pop_expect(t)?;
                self.push(t);
                Op::FUnop(*w, *op)
            }
            FBinop(w, op) => {
                let t = float_ty(*w);
                self.pop_expect(t)?;
                self.pop_expect(t)?;
                self.push(t);
                Op::FBinop(*w, *op)
            }
            FRelop(w, op) => {
                let t = float_ty(*w);
                self.pop_expect(t)?;
                self.pop_expect(t)?;
                self.push(I32);
                Op::FRelop(*w, *op)
            }
            Cvt(op) => {
                let (from, to) = op.signature();
                self.pop_expect(from)?;
                self.push(to);
                Op::Cvt(*op)
            }
        };
        if emit {
            self.emit(op, depth);
        }
        Ok(())
    }
}

fn int_ty(w: crate::instr::IntWidth) -> ValType {
    match w {
        crate::instr::IntWidth::W32 => ValType::I32,
        crate::instr::IntWidth::W64 => ValType::I64,
    }
}

fn float_ty(w: crate::instr::FloatWidth) -> ValType {
    match w {
        crate::instr::FloatWidth::W32 => ValType::F32,
        crate::instr::FloatWidth::W64 => ValType::F64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::{BlockType, IBinOp, IntWidth, MemArg};
    use crate::module::ModuleBuilder;
    use crate::types::{FuncType, Limits, Value};

    fn check(body: Vec<Instr>, params: Vec<ValType>, results: Vec<ValType>) -> VResult<()> {
        let mut b = ModuleBuilder::new();
        b.memory(Limits::at_least(1));
        b.add_func(FuncType::new(params, results), vec![], body);
        validate(&b.build())
    }

    #[test]
    fn simple_arith_ok() {
        check(
            vec![
                Instr::LocalGet(0),
                Instr::Const(Value::I32(1)),
                Instr::IBinop(IntWidth::W32, IBinOp::Add),
            ],
            vec![ValType::I32],
            vec![ValType::I32],
        )
        .unwrap();
    }

    #[test]
    fn stack_underflow_rejected() {
        let e = check(
            vec![Instr::IBinop(IntWidth::W32, IBinOp::Add)],
            vec![],
            vec![ValType::I32],
        );
        assert!(e.is_err());
    }

    #[test]
    fn type_mismatch_rejected() {
        let e = check(
            vec![
                Instr::Const(Value::I64(1)),
                Instr::Const(Value::I32(1)),
                Instr::IBinop(IntWidth::W32, IBinOp::Add),
            ],
            vec![],
            vec![ValType::I32],
        );
        assert!(e.is_err());
    }

    #[test]
    fn leftover_value_rejected() {
        let e = check(
            vec![Instr::Const(Value::I32(1)), Instr::Const(Value::I32(2))],
            vec![],
            vec![ValType::I32],
        );
        assert!(e.is_err());
    }

    #[test]
    fn missing_result_rejected() {
        assert!(check(vec![], vec![], vec![ValType::I32]).is_err());
        assert!(check(vec![], vec![], vec![]).is_ok());
    }

    #[test]
    fn unreachable_is_polymorphic() {
        check(
            vec![Instr::Unreachable, Instr::IBinop(IntWidth::W32, IBinOp::Add)],
            vec![],
            vec![ValType::I32],
        )
        .unwrap();
    }

    #[test]
    fn br_depth_checked() {
        assert!(check(vec![Instr::Br(0)], vec![], vec![]).is_ok());
        assert!(check(vec![Instr::Br(1)], vec![], vec![]).is_err());
        check(
            vec![Instr::Block(BlockType::Empty, vec![Instr::Br(1)])],
            vec![],
            vec![],
        )
        .unwrap();
        assert!(check(
            vec![Instr::Block(BlockType::Empty, vec![Instr::Br(2)])],
            vec![],
            vec![],
        )
        .is_err());
    }

    #[test]
    fn loop_branch_carries_no_values() {
        // br to a loop head expects the loop's parameter types (none), so a
        // loop returning a value via br 0 to itself is invalid...
        let e = check(
            vec![Instr::Loop(
                BlockType::Value(ValType::I32),
                vec![Instr::Const(Value::I32(1)), Instr::Br(0)],
            )],
            vec![],
            vec![ValType::I32],
        );
        // ... the const is consumed by nothing; br 0 targets the loop start
        // with zero label types, leaving a value behind — that is legal
        // (values above the label types are discarded on branch) but the
        // loop's own fallthrough requires an i32, which `br` makes
        // unreachable, so this validates.
        assert!(e.is_ok());
    }

    #[test]
    fn if_without_else_needing_result_rejected() {
        let e = check(
            vec![
                Instr::Const(Value::I32(1)),
                Instr::If(BlockType::Value(ValType::I32), vec![Instr::Const(Value::I32(1))], vec![]),
            ],
            vec![],
            vec![ValType::I32],
        );
        assert!(e.is_err());
    }

    #[test]
    fn select_type_check() {
        check(
            vec![
                Instr::Const(Value::F64(1.0)),
                Instr::Const(Value::F64(2.0)),
                Instr::Const(Value::I32(0)),
                Instr::Select,
            ],
            vec![],
            vec![ValType::F64],
        )
        .unwrap();
        assert!(check(
            vec![
                Instr::Const(Value::F64(1.0)),
                Instr::Const(Value::I32(2)),
                Instr::Const(Value::I32(0)),
                Instr::Select,
            ],
            vec![],
            vec![ValType::F64],
        )
        .is_err());
    }

    #[test]
    fn immutable_global_set_rejected() {
        let mut b = ModuleBuilder::new();
        let g = b.add_global(ValType::I32, false, Value::I32(0));
        b.add_func(
            FuncType::new(vec![], vec![]),
            vec![],
            vec![Instr::Const(Value::I32(1)), Instr::GlobalSet(g)],
        );
        assert!(validate(&b.build()).is_err());
    }

    #[test]
    fn load_without_memory_rejected() {
        let mut b = ModuleBuilder::new();
        b.add_func(
            FuncType::new(vec![], vec![ValType::I32]),
            vec![],
            vec![
                Instr::Const(Value::I32(0)),
                Instr::Load(crate::instr::LoadKind::I32, MemArg::default()),
            ],
        );
        assert!(validate(&b.build()).is_err());
    }

    #[test]
    fn over_aligned_access_rejected() {
        let e = check(
            vec![
                Instr::Const(Value::I32(0)),
                Instr::Load(crate::instr::LoadKind::I32, MemArg { align: 3, offset: 0 }),
                Instr::Drop,
            ],
            vec![],
            vec![],
        );
        assert!(e.is_err());
    }

    #[test]
    fn huge_alignment_exponents_rejected() {
        use crate::instr::{LoadKind, StoreKind};
        for align in [32, 63, 64, u32::MAX] {
            let m = MemArg { align, offset: 0 };
            let load = check(
                vec![Instr::Const(Value::I32(0)), Instr::Load(LoadKind::I64, m), Instr::Drop],
                vec![],
                vec![],
            );
            assert!(matches!(load, Err(ModuleError::Validate(_))), "load align {align}: {load:?}");
            let store = check(
                vec![
                    Instr::Const(Value::I32(0)),
                    Instr::Const(Value::I64(0)),
                    Instr::Store(StoreKind::I64, m),
                ],
                vec![],
                vec![],
            );
            assert!(matches!(store, Err(ModuleError::Validate(_))), "store align {align}: {store:?}");
        }
    }

    #[test]
    fn call_signature_checked() {
        let mut b = ModuleBuilder::new();
        let callee = b.add_func(
            FuncType::new(vec![ValType::I64], vec![ValType::I64]),
            vec![],
            vec![Instr::LocalGet(0)],
        );
        b.add_func(
            FuncType::new(vec![], vec![]),
            vec![],
            vec![Instr::Const(Value::I32(0)), Instr::Call(callee), Instr::Drop],
        );
        assert!(validate(&b.build()).is_err());
    }

    #[test]
    fn duplicate_export_rejected() {
        let mut b = ModuleBuilder::new();
        let f = b.add_func(FuncType::new(vec![], vec![]), vec![], vec![]);
        b.export_func("x", f);
        b.export_func("x", f);
        assert!(validate(&b.build()).is_err());
    }

    #[test]
    fn br_table_ok_and_mismatch() {
        check(
            vec![Instr::Block(
                BlockType::Empty,
                vec![Instr::Block(
                    BlockType::Empty,
                    vec![Instr::Const(Value::I32(1)), Instr::BrTable(vec![0, 1], 1)],
                )],
            )],
            vec![],
            vec![],
        )
        .unwrap();
        // Mismatched arities between target labels.
        let e = check(
            vec![Instr::Block(
                BlockType::Value(ValType::I32),
                vec![
                    Instr::Const(Value::I32(7)),
                    Instr::Block(
                        BlockType::Empty,
                        vec![Instr::Const(Value::I32(1)), Instr::BrTable(vec![0], 1)],
                    ),
                ],
            )],
            vec![],
            vec![ValType::I32],
        );
        assert!(e.is_err());
    }
}
