//! # twine-wasm
//!
//! A from-scratch WebAssembly (MVP + sign-extension + bulk-memory subset)
//! engine: the stand-in for WAMR, the runtime the paper embeds inside SGX
//! enclaves (§III-B, §IV-B).
//!
//! Pipeline, mirroring the WAMR AoT flow the paper uses:
//!
//! ```text
//! .wasm bytes ──decode──▶ Module ──validate──▶ CompiledModule (flattened,
//!      ▲                                        jump-resolved "AoT" code)
//!      │ encode                                     │ ExecTier::Reg (default):
//! ModuleBuilder (used by twine-minicc,              │   regalloc (one pass)
//! the Clang/LLVM stand-in)                          │ ExecTier::Baseline:
//!                                                   │   flattened ops as is
//!                                                   ▼
//!                                            Instance::invoke
//! ```
//!
//! * [`module`] — structural representation of a module and a builder API.
//! * [`instr`] — the instruction AST produced by the decoder.
//! * [`decode`] / [`encode`] — the binary format (LEB128, sections).
//! * [`validate`] — full stack-polymorphic type checking, in one walk per
//!   function body that also emits its flattened ops and their stack depths.
//! * [`compile`] — the linear, jump-resolved opcodes that walk emits, and
//!   [`CompiledModule`]. This is the
//!   functional analogue of WAMR's `wamrc` ahead-of-time compiler: it is run
//!   *before* the module enters the enclave, and the enclave only executes
//!   pre-compiled code (the paper's Twine contains no interpreter, §IV-B).
//! * [`regalloc`] — the register tier's one further AoT pass: maps the
//!   flattened ops' operand-stack traffic onto a flat virtual-register
//!   frame of three-address ops, with per-basic-block fuel/metering
//!   batching — still bit-identical virtual time (DESIGN.md §8).
//! * [`lower`] — the fusion windows that pass folds into one register op
//!   each (superinstructions), whose metering records
//!   ([`lower::OpCost`]) keep virtual time bit-identical.
//! * [`exec`] — the two executors, selected by [`ExecTier`]: the register
//!   tier every serving path runs, and the reference interpreter over the
//!   flattened ops that every differential uses as its oracle. Both meter
//!   per instruction class and feed a page-touch hook that drives the SGX
//!   EPC simulator.
//! * [`memory`] — sandboxed linear memory.
//!
//! Because no offline toolchain can produce native x86 from Wasm here, the
//! engine *executes* compiled code by dispatch, and execution **time** for
//! benchmarking is derived from the metered instruction stream via the cost
//! models in `twine-baselines` (see DESIGN.md §4). Functional semantics are
//! real and extensively tested. The register tier keeps that metering
//! bit-identical while cutting real dispatch cost (DESIGN.md §6, §8).
//!
//! **Dependency graph**: leaf crate (no `twine-*` dependencies). Consumed
//! by `twine-minicc` (module emission), `twine-wasi` (host-function
//! registration), `twine-core` (the embedded runtime), `twine-polybench`
//! and the harnesses. Paper anchor: §III-B, §IV-B.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compile;
pub mod decode;
pub mod encode;
pub mod exec;
pub mod instr;
pub mod lower;
pub mod memory;
pub mod meter;
pub mod module;
pub mod regalloc;
pub mod types;
pub mod validate;

pub use compile::CompiledModule;
pub use exec::{HostCtx, HostFn, Instance, InstanceSnapshot, Linker, PageSink, SnapshotDelta, Trap};
pub use lower::ExecTier;
pub use memory::Memory;
pub use meter::{InstrClass, Meter};
pub use module::{Module, ModuleBuilder};
pub use types::{FuncType, Limits, ValType, Value};

/// Errors arising while handling a module before execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModuleError {
    /// Malformed binary (decoder error) with a description.
    Decode(String),
    /// The module failed validation.
    Validate(String),
    /// Instantiation failed (missing import, limit mismatch, ...).
    Instantiate(String),
}

impl core::fmt::Display for ModuleError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ModuleError::Decode(m) => write!(f, "decode error: {m}"),
            ModuleError::Validate(m) => write!(f, "validation error: {m}"),
            ModuleError::Instantiate(m) => write!(f, "instantiation error: {m}"),
        }
    }
}

impl std::error::Error for ModuleError {}
