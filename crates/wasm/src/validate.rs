//! Module validation: full stack-polymorphic type checking per the spec's
//! validation algorithm, plus module-level index/limit checks.
//!
//! Validation runs before a module may be compiled or instantiated — the
//! Twine enclave refuses unvalidated code, which is the software half of the
//! paper's double-sandbox argument (§IV): SGX protects the enclave from the
//! host, validation + bounds-checked memory protect the host from the guest.

use crate::instr::{BlockType, Instr};
use crate::module::{ImportDesc, Module};
use crate::types::{ExternKind, FuncType, ValType};
use crate::ModuleError;

type VResult<T> = Result<T, ModuleError>;

fn err<T>(msg: impl Into<String>) -> VResult<T> {
    Err(ModuleError::Validate(msg.into()))
}

/// Validate a module. Returns `Ok(())` when the module is type-correct and
/// all indices/limits are in range.
pub fn validate(module: &Module) -> VResult<()> {
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

    // -- function bodies -----------------------------------------------------
    let n_imports = module.num_imported_funcs();
    for (i, f) in module.funcs.iter().enumerate() {
        let ty = &module.types[f.type_idx as usize];
        FuncValidator::new(module, ty, &f.locals)
            .check_body(&f.body)
            .map_err(|e| match e {
                ModuleError::Validate(m) => {
                    ModuleError::Validate(format!("function {} (idx {}): {m}", i, n_imports as usize + i))
                }
                other => other,
            })?;
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

/// `None` stands for the polymorphic "unknown" type that arises after
/// unconditional control transfer.
type OpdType = Option<ValType>;

struct CtrlFrame {
    /// True for `loop` (branch target is the start → label types are the
    /// block's *parameter* types, which are empty in MVP).
    is_loop: bool,
    /// Result types of the construct.
    end_types: Vec<ValType>,
    /// Operand-stack height at entry.
    height: usize,
    /// Set once the remainder of the frame is unreachable.
    unreachable: bool,
}

impl CtrlFrame {
    fn label_types(&self) -> &[ValType] {
        if self.is_loop {
            &[]
        } else {
            &self.end_types
        }
    }
}

struct FuncValidator<'m> {
    module: &'m Module,
    locals: Vec<ValType>,
    results: Vec<ValType>,
    opds: Vec<OpdType>,
    ctrls: Vec<CtrlFrame>,
}

impl<'m> FuncValidator<'m> {
    fn new(module: &'m Module, ty: &FuncType, locals: &[ValType]) -> Self {
        let mut all_locals = ty.params.clone();
        all_locals.extend_from_slice(locals);
        Self {
            module,
            locals: all_locals,
            results: ty.results.clone(),
            opds: Vec::new(),
            ctrls: Vec::new(),
        }
    }

    fn check_body(mut self, body: &[Instr]) -> VResult<()> {
        self.ctrls.push(CtrlFrame {
            is_loop: false,
            end_types: self.results.clone(),
            height: 0,
            unreachable: false,
        });
        self.check_seq(body)?;
        let results = self.results.clone();
        self.pop_ctrl_expect(&results)?;
        Ok(())
    }

    // ---- operand stack ---------------------------------------------------

    fn push(&mut self, t: ValType) {
        self.opds.push(Some(t));
    }

    fn push_many(&mut self, ts: &[ValType]) {
        for t in ts {
            self.push(*t);
        }
    }

    fn pop_any(&mut self) -> VResult<OpdType> {
        let frame = self.ctrls.last().expect("ctrl frame");
        if self.opds.len() == frame.height {
            if frame.unreachable {
                return Ok(None);
            }
            return err("operand stack underflow");
        }
        Ok(self.opds.pop().expect("non-empty"))
    }

    fn pop_expect(&mut self, t: ValType) -> VResult<()> {
        match self.pop_any()? {
            None => Ok(()),
            Some(actual) if actual == t => Ok(()),
            Some(actual) => err(format!("expected {t}, found {actual}")),
        }
    }

    fn pop_many(&mut self, ts: &[ValType]) -> VResult<()> {
        for t in ts.iter().rev() {
            self.pop_expect(*t)?;
        }
        Ok(())
    }

    // ---- control stack -----------------------------------------------------

    fn push_ctrl(&mut self, is_loop: bool, end_types: Vec<ValType>) {
        self.ctrls.push(CtrlFrame {
            is_loop,
            end_types,
            height: self.opds.len(),
            unreachable: false,
        });
    }

    fn pop_ctrl_expect(&mut self, expect: &[ValType]) -> VResult<Vec<ValType>> {
        let frame = match self.ctrls.last() {
            Some(f) => f,
            None => return err("control stack underflow"),
        };
        let height = frame.height;
        let end_types = frame.end_types.clone();
        if end_types != expect {
            return err("block result type mismatch");
        }
        self.pop_many(&end_types)?;
        if self.opds.len() != height {
            return err("values left on stack at end of block");
        }
        self.ctrls.pop();
        Ok(end_types)
    }

    fn mark_unreachable(&mut self) {
        let frame = self.ctrls.last_mut().expect("ctrl frame");
        self.opds.truncate(frame.height);
        frame.unreachable = true;
    }

    fn label(&self, depth: u32) -> VResult<&CtrlFrame> {
        let n = self.ctrls.len();
        if depth as usize >= n {
            return err(format!("branch depth {depth} out of range"));
        }
        Ok(&self.ctrls[n - 1 - depth as usize])
    }

    // ---- memory/table presence ------------------------------------------

    fn require_memory(&self) -> VResult<()> {
        if self.module.memory.is_none() && !self.module.imports_memory() {
            return err("memory instruction without memory");
        }
        Ok(())
    }

    // ---- instruction sequence ----------------------------------------------

    fn check_seq(&mut self, instrs: &[Instr]) -> VResult<()> {
        for i in instrs {
            self.check_instr(i)?;
        }
        Ok(())
    }

    #[allow(clippy::too_many_lines)]
    fn check_instr(&mut self, instr: &Instr) -> VResult<()> {
        use Instr::*;
        use ValType::*;
        match instr {
            Unreachable => self.mark_unreachable(),
            Nop => {}
            Block(bt, body) => {
                let end: Vec<ValType> = match bt {
                    BlockType::Empty => vec![],
                    BlockType::Value(t) => vec![*t],
                };
                self.push_ctrl(false, end.clone());
                self.check_seq(body)?;
                let got = self.pop_ctrl_expect(&end)?;
                self.push_many(&got);
            }
            Loop(bt, body) => {
                let end: Vec<ValType> = match bt {
                    BlockType::Empty => vec![],
                    BlockType::Value(t) => vec![*t],
                };
                self.push_ctrl(true, end.clone());
                self.check_seq(body)?;
                let got = self.pop_ctrl_expect(&end)?;
                self.push_many(&got);
            }
            If(bt, then_body, else_body) => {
                self.pop_expect(I32)?;
                let end: Vec<ValType> = match bt {
                    BlockType::Empty => vec![],
                    BlockType::Value(t) => vec![*t],
                };
                if !end.is_empty() && else_body.is_empty() {
                    return err("if with result type requires an else branch");
                }
                self.push_ctrl(false, end.clone());
                self.check_seq(then_body)?;
                self.pop_ctrl_expect(&end)?;
                self.push_ctrl(false, end.clone());
                self.check_seq(else_body)?;
                let got = self.pop_ctrl_expect(&end)?;
                self.push_many(&got);
            }
            Br(depth) => {
                let label_types = self.label(*depth)?.label_types().to_vec();
                self.pop_many(&label_types)?;
                self.mark_unreachable();
            }
            BrIf(depth) => {
                self.pop_expect(I32)?;
                let label_types = self.label(*depth)?.label_types().to_vec();
                self.pop_many(&label_types)?;
                self.push_many(&label_types);
            }
            BrTable(targets, default) => {
                self.pop_expect(I32)?;
                let default_types = self.label(*default)?.label_types().to_vec();
                for t in targets {
                    let tt = self.label(*t)?.label_types();
                    if tt != default_types.as_slice() {
                        return err("br_table label arity mismatch");
                    }
                }
                self.pop_many(&default_types)?;
                self.mark_unreachable();
            }
            Return => {
                let results = self.results.clone();
                self.pop_many(&results)?;
                self.mark_unreachable();
            }
            Call(f) => {
                let ty = match self.module.func_type(*f) {
                    Some(t) => t.clone(),
                    None => return err(format!("call: function index {f} out of range")),
                };
                self.pop_many(&ty.params)?;
                self.push_many(&ty.results);
            }
            CallIndirect(type_idx) => {
                if self.module.table.is_none() {
                    return err("call_indirect without a table");
                }
                let ty = match self.module.types.get(*type_idx as usize) {
                    Some(t) => t.clone(),
                    None => return err("call_indirect: type index out of range"),
                };
                self.pop_expect(I32)?;
                self.pop_many(&ty.params)?;
                self.push_many(&ty.results);
            }
            Drop => {
                self.pop_any()?;
            }
            Select => {
                self.pop_expect(I32)?;
                let a = self.pop_any()?;
                let b = self.pop_any()?;
                match (a, b) {
                    (Some(x), Some(y)) if x != y => {
                        return err("select operands must have the same type")
                    }
                    (Some(x), _) => self.push(x),
                    (None, Some(y)) => self.push(y),
                    (None, None) => self.opds.push(None),
                }
            }
            LocalGet(i) => {
                let t = *self
                    .locals
                    .get(*i as usize)
                    .ok_or_else(|| ModuleError::Validate(format!("local {i} out of range")))?;
                self.push(t);
            }
            LocalSet(i) => {
                let t = *self
                    .locals
                    .get(*i as usize)
                    .ok_or_else(|| ModuleError::Validate(format!("local {i} out of range")))?;
                self.pop_expect(t)?;
            }
            LocalTee(i) => {
                let t = *self
                    .locals
                    .get(*i as usize)
                    .ok_or_else(|| ModuleError::Validate(format!("local {i} out of range")))?;
                self.pop_expect(t)?;
                self.push(t);
            }
            GlobalGet(i) => {
                let g = self
                    .module
                    .globals
                    .get(*i as usize)
                    .ok_or_else(|| ModuleError::Validate(format!("global {i} out of range")))?;
                self.push(g.ty.ty);
            }
            GlobalSet(i) => {
                let g = self
                    .module
                    .globals
                    .get(*i as usize)
                    .ok_or_else(|| ModuleError::Validate(format!("global {i} out of range")))?;
                if !g.ty.mutable {
                    return err(format!("global {i} is immutable"));
                }
                self.pop_expect(g.ty.ty)?;
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
            }
            Store(kind, memarg) => {
                self.require_memory()?;
                if memarg.align > kind.width().trailing_zeros() {
                    return err("store alignment exceeds natural alignment");
                }
                self.pop_expect(kind.value_type())?;
                self.pop_expect(I32)?;
            }
            MemorySize => {
                self.require_memory()?;
                self.push(I32);
            }
            MemoryGrow => {
                self.require_memory()?;
                self.pop_expect(I32)?;
                self.push(I32);
            }
            MemoryCopy | MemoryFill => {
                self.require_memory()?;
                self.pop_expect(I32)?;
                self.pop_expect(I32)?;
                self.pop_expect(I32)?;
            }
            Const(v) => self.push(v.ty()),
            ITestEqz(w) => {
                self.pop_expect(int_ty(*w))?;
                self.push(I32);
            }
            IUnop(w, _) => {
                let t = int_ty(*w);
                self.pop_expect(t)?;
                self.push(t);
            }
            IBinop(w, _) => {
                let t = int_ty(*w);
                self.pop_expect(t)?;
                self.pop_expect(t)?;
                self.push(t);
            }
            IRelop(w, _) => {
                let t = int_ty(*w);
                self.pop_expect(t)?;
                self.pop_expect(t)?;
                self.push(I32);
            }
            FUnop(w, _) => {
                let t = float_ty(*w);
                self.pop_expect(t)?;
                self.push(t);
            }
            FBinop(w, _) => {
                let t = float_ty(*w);
                self.pop_expect(t)?;
                self.pop_expect(t)?;
                self.push(t);
            }
            FRelop(w, _) => {
                let t = float_ty(*w);
                self.pop_expect(t)?;
                self.pop_expect(t)?;
                self.push(I32);
            }
            Cvt(op) => {
                let (from, to) = op.signature();
                self.pop_expect(from)?;
                self.push(to);
            }
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
