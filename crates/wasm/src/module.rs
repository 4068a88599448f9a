//! Structural representation of a WebAssembly module and a builder API.
//!
//! The builder is the back-end target of `twine-minicc` (the Clang/LLVM
//! stand-in): the compiler assembles a [`Module`] programmatically, encodes
//! it to real `.wasm` bytes with [`crate::encode`], and those bytes are what
//! gets shipped to (and decoded inside) the Twine enclave — the same
//! workflow as Figure 1 of the paper.

use crate::instr::Instr;
use crate::types::{ExternKind, FuncType, Limits, ValType, Value};

/// A global's type: value type plus mutability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GlobalType {
    /// Value type.
    pub ty: ValType,
    /// Whether `global.set` is permitted.
    pub mutable: bool,
}

/// A constant initialiser expression (MVP allows consts and imported-global
/// reads; we support consts, which is what every toolchain emits).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConstExpr(pub Value);

impl ConstExpr {
    /// Evaluate the expression.
    #[must_use]
    pub fn eval(&self) -> Value {
        self.0
    }
}

/// What an import provides.
#[derive(Debug, Clone, PartialEq)]
pub enum ImportDesc {
    /// Function with the given type index.
    Func(u32),
    /// Linear memory with limits.
    Memory(Limits),
    /// Table of function references.
    Table(Limits),
    /// Global variable.
    Global(GlobalType),
}

/// An import entry.
#[derive(Debug, Clone, PartialEq)]
pub struct Import {
    /// Module namespace, e.g. `wasi_snapshot_preview1`.
    pub module: String,
    /// Field name, e.g. `fd_write`.
    pub name: String,
    /// Imported entity.
    pub desc: ImportDesc,
}

/// A locally-defined function.
#[derive(Debug, Clone, PartialEq)]
pub struct Func {
    /// Index into [`Module::types`].
    pub type_idx: u32,
    /// Declared local variables (excluding parameters).
    pub locals: Vec<ValType>,
    /// Structured body.
    pub body: Vec<Instr>,
}

/// A global definition.
#[derive(Debug, Clone, PartialEq)]
pub struct Global {
    /// Type and mutability.
    pub ty: GlobalType,
    /// Initial value.
    pub init: ConstExpr,
}

/// An export entry.
#[derive(Debug, Clone, PartialEq)]
pub struct Export {
    /// Public name.
    pub name: String,
    /// Exported entity kind.
    pub kind: ExternKind,
    /// Index in the corresponding index space.
    pub index: u32,
}

/// An element segment initialising the function table.
#[derive(Debug, Clone, PartialEq)]
pub struct ElemSegment {
    /// Table offset.
    pub offset: ConstExpr,
    /// Function indices to place.
    pub funcs: Vec<u32>,
}

/// A data segment initialising linear memory.
#[derive(Debug, Clone, PartialEq)]
pub struct DataSegment {
    /// Memory offset.
    pub offset: ConstExpr,
    /// Bytes to place.
    pub bytes: Vec<u8>,
}

/// A complete WebAssembly module.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Module {
    /// Function signatures.
    pub types: Vec<FuncType>,
    /// Imports, in declaration order.
    pub imports: Vec<Import>,
    /// Locally-defined functions.
    pub funcs: Vec<Func>,
    /// At most one table (MVP).
    pub table: Option<Limits>,
    /// At most one linear memory (MVP).
    pub memory: Option<Limits>,
    /// Global definitions.
    pub globals: Vec<Global>,
    /// Exports.
    pub exports: Vec<Export>,
    /// Optional start function index.
    pub start: Option<u32>,
    /// Table element segments.
    pub elems: Vec<ElemSegment>,
    /// Memory data segments.
    pub data: Vec<DataSegment>,
}

impl Module {
    /// Number of imported functions (they precede local functions in the
    /// function index space).
    #[must_use]
    pub fn num_imported_funcs(&self) -> u32 {
        self.imports
            .iter()
            .filter(|i| matches!(i.desc, ImportDesc::Func(_)))
            .count() as u32
    }

    /// Total number of functions (imported + local).
    #[must_use]
    pub fn num_funcs(&self) -> u32 {
        self.num_imported_funcs() + self.funcs.len() as u32
    }

    /// Type index of the function at `func_idx` in the unified index space.
    #[must_use]
    pub fn func_type_idx(&self, func_idx: u32) -> Option<u32> {
        let n_imports = self.num_imported_funcs();
        if func_idx < n_imports {
            self.imports
                .iter()
                .filter_map(|i| match i.desc {
                    ImportDesc::Func(t) => Some(t),
                    _ => None,
                })
                .nth(func_idx as usize)
        } else {
            self.funcs
                .get((func_idx - n_imports) as usize)
                .map(|f| f.type_idx)
        }
    }

    /// Signature of the function at `func_idx`.
    #[must_use]
    pub fn func_type(&self, func_idx: u32) -> Option<&FuncType> {
        self.func_type_idx(func_idx)
            .and_then(|t| self.types.get(t as usize))
    }

    /// Find an export by name and kind.
    #[must_use]
    pub fn find_export(&self, name: &str, kind: ExternKind) -> Option<u32> {
        self.exports
            .iter()
            .find(|e| e.name == name && e.kind == kind)
            .map(|e| e.index)
    }

    /// Whether the module imports a memory (vs. defining one).
    #[must_use]
    pub fn imports_memory(&self) -> bool {
        self.imports
            .iter()
            .any(|i| matches!(i.desc, ImportDesc::Memory(_)))
    }

    /// Validate and compile this module for the default execution tier
    /// ([`crate::ExecTier::Reg`]) — shorthand for
    /// [`crate::CompiledModule::compile`].
    pub fn into_compiled(self) -> Result<crate::CompiledModule, crate::ModuleError> {
        crate::CompiledModule::compile(self)
    }

    /// Validate and compile this module for a specific execution tier —
    /// shorthand for [`crate::CompiledModule::compile_with_tier`].
    pub fn into_compiled_tier(
        self,
        tier: crate::lower::ExecTier,
    ) -> Result<crate::CompiledModule, crate::ModuleError> {
        crate::CompiledModule::compile_with_tier(self, tier)
    }
}

/// Fluent builder for [`Module`], the programmatic alternative to decoding.
#[derive(Debug, Default)]
pub struct ModuleBuilder {
    module: Module,
}

impl ModuleBuilder {
    /// Start an empty module.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern a function type, deduplicating, and return its index.
    pub fn add_type(&mut self, ty: FuncType) -> u32 {
        if let Some(pos) = self.module.types.iter().position(|t| *t == ty) {
            return pos as u32;
        }
        self.module.types.push(ty);
        (self.module.types.len() - 1) as u32
    }

    /// Import a function; returns its index in the function index space.
    ///
    /// # Panics
    /// Panics if local functions were already added (imports must precede
    /// local definitions in the index space).
    pub fn import_func(&mut self, module: &str, name: &str, ty: FuncType) -> u32 {
        assert!(
            self.module.funcs.is_empty(),
            "imports must be added before local functions"
        );
        let type_idx = self.add_type(ty);
        self.module.imports.push(Import {
            module: module.to_string(),
            name: name.to_string(),
            desc: ImportDesc::Func(type_idx),
        });
        self.module.num_imported_funcs() - 1
    }

    /// Add a local function; returns its index in the function index space.
    pub fn add_func(
        &mut self,
        ty: FuncType,
        locals: Vec<ValType>,
        body: Vec<Instr>,
    ) -> u32 {
        let type_idx = self.add_type(ty);
        self.module.funcs.push(Func {
            type_idx,
            locals,
            body,
        });
        self.module.num_imported_funcs() + (self.module.funcs.len() - 1) as u32
    }

    /// Define the linear memory.
    pub fn memory(&mut self, limits: Limits) -> &mut Self {
        self.module.memory = Some(limits);
        self
    }

    /// Define the function table.
    pub fn table(&mut self, limits: Limits) -> &mut Self {
        self.module.table = Some(limits);
        self
    }

    /// Add a global; returns its index.
    pub fn add_global(&mut self, ty: ValType, mutable: bool, init: Value) -> u32 {
        self.module.globals.push(Global {
            ty: GlobalType { ty, mutable },
            init: ConstExpr(init),
        });
        (self.module.globals.len() - 1) as u32
    }

    /// Export a function by index.
    pub fn export_func(&mut self, name: &str, index: u32) -> &mut Self {
        self.module.exports.push(Export {
            name: name.to_string(),
            kind: ExternKind::Func,
            index,
        });
        self
    }

    /// Export the memory.
    pub fn export_memory(&mut self, name: &str) -> &mut Self {
        self.module.exports.push(Export {
            name: name.to_string(),
            kind: ExternKind::Memory,
            index: 0,
        });
        self
    }

    /// Add a data segment at a constant offset.
    pub fn add_data(&mut self, offset: i32, bytes: Vec<u8>) -> &mut Self {
        self.module.data.push(DataSegment {
            offset: ConstExpr(Value::I32(offset)),
            bytes,
        });
        self
    }

    /// Add an element segment at a constant offset.
    pub fn add_elem(&mut self, offset: i32, funcs: Vec<u32>) -> &mut Self {
        self.module.elems.push(ElemSegment {
            offset: ConstExpr(Value::I32(offset)),
            funcs,
        });
        self
    }

    /// Set the start function.
    pub fn start(&mut self, func_idx: u32) -> &mut Self {
        self.module.start = Some(func_idx);
        self
    }

    /// Finish building.
    #[must_use]
    pub fn build(self) -> Module {
        self.module
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::Instr;

    fn ft(params: Vec<ValType>, results: Vec<ValType>) -> FuncType {
        FuncType::new(params, results)
    }

    #[test]
    fn builder_type_dedup() {
        let mut b = ModuleBuilder::new();
        let t1 = b.add_type(ft(vec![ValType::I32], vec![ValType::I32]));
        let t2 = b.add_type(ft(vec![ValType::I32], vec![ValType::I32]));
        let t3 = b.add_type(ft(vec![], vec![]));
        assert_eq!(t1, t2);
        assert_ne!(t1, t3);
    }

    #[test]
    fn func_index_space_with_imports() {
        let mut b = ModuleBuilder::new();
        let imp = b.import_func("env", "host0", ft(vec![], vec![]));
        let f = b.add_func(ft(vec![], vec![]), vec![], vec![Instr::Nop]);
        assert_eq!(imp, 0);
        assert_eq!(f, 1);
        let m = b.build();
        assert_eq!(m.num_imported_funcs(), 1);
        assert_eq!(m.num_funcs(), 2);
        assert!(m.func_type(0).is_some());
        assert!(m.func_type(1).is_some());
        assert!(m.func_type(2).is_none());
    }

    #[test]
    #[should_panic(expected = "imports must be added before local functions")]
    fn import_after_func_panics() {
        let mut b = ModuleBuilder::new();
        b.add_func(ft(vec![], vec![]), vec![], vec![]);
        b.import_func("env", "late", ft(vec![], vec![]));
    }

    #[test]
    fn find_export() {
        let mut b = ModuleBuilder::new();
        let f = b.add_func(ft(vec![], vec![]), vec![], vec![]);
        b.export_func("run", f);
        let m = b.build();
        assert_eq!(m.find_export("run", ExternKind::Func), Some(0));
        assert_eq!(m.find_export("missing", ExternKind::Func), None);
    }
}
