//! # twine-core — TWINE: a trusted runtime for WebAssembly
//!
//! The paper's primary contribution (§IV): a lightweight, embeddable Wasm
//! runtime nested inside an SGX enclave, exposing WASI to unmodified guest
//! applications and translating it either to *trusted* implementations
//! (the protected file system of `twine-pfs`) or to a *generic untrusted
//! POSIX layer* that leaves the enclave through OCALLs.
//!
//! ```text
//!          ┌──────────────────── enclave (twine-sgx) ───────────────────┐
//!          │  Wasm app (AoT-compiled, from reserved memory)             │
//!          │      │ WASI imports                                        │
//!          │  ┌───▼────────── twine-wasi ABI ────────────┐              │
//!          │  │ trusted impls          generic POSIX     │              │
//!          │  │  fs → twine-pfs         clock → OCALL    │              │
//!          │  │  random → in-enclave    (monotonic guard)│              │
//!          │  └───────┬──────────────────────┬───────────┘              │
//!          └──────────┼──────────────────────┼──────────────────────────┘
//!                 ciphertext             OCALL boundary
//!                     ▼                      ▼
//!              untrusted storage        host OS services
//! ```
//!
//! ## Usage
//!
//! ```
//! use twine_core::{TwineBuilder, FsChoice};
//!
//! let mut twine = TwineBuilder::new()
//!     .fs(FsChoice::ProtectedInMemory)
//!     .build();
//! let wasm = twine_minicc::compile_to_bytes(
//!     "int add(int a, int b) { return a + b; }").unwrap();
//! let app = twine.load_wasm(&wasm).unwrap();
//! let out = twine.invoke(&app, "add", &[2.into(), 40.into()]).unwrap();
//! assert_eq!(out[0], twine_wasm::Value::I32(42));
//! ```
//!
//! The single ECALL design of §IV-C is preserved: one enclave call runs the
//! whole guest application; all host interaction happens through WASI.
//!
//! **Dependency graph**: the integration crate — composes `twine-wasm`
//! (engine), `twine-wasi` (ABI), `twine-pfs`/`twine-sgx`
//! (trusted fs inside the simulated enclave) and `twine-minicc` (doctests).
//! Consumed by `twine-baselines` and `twine-bench`. Paper anchor: §IV.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend_host;
pub mod backend_pfs;
pub mod control;
mod dbsession;
pub mod durable;
pub(crate) mod pool;
pub mod provision;
pub mod runtime;
pub mod service;
pub mod sharded;
pub mod shared_store;

pub use backend_host::HostBackend;
pub use backend_pfs::PfsBackend;
pub use control::{ControlPlane, ControlStats};
pub use durable::DurableParkStore;
pub use provision::{ApplicationProvider, EncryptedApp};
pub use runtime::{FsChoice, Overload, RunReport, TwineApp, TwineBuilder, TwineError, TwineRuntime};
pub use service::{ModuleCache, SessionStats, TwineService};
pub use sharded::{ShardStats, ShardedService};
pub use twine_sqldb::db::StmtCacheStats;
