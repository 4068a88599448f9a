//! # twine — facade crate
//!
//! Reproduction of *"TWINE: An Embedded Trusted Runtime for WebAssembly"*
//! (ICDE 2021). This crate re-exports the public API of every workspace
//! member so examples and downstream users can depend on a single crate.
//!
//! See `README.md` for the quickstart and crate map, and `DESIGN.md` for
//! the system inventory, the virtual-time methodology and the execution
//! tiers of the Wasm engine.

#![forbid(unsafe_code)]

pub use twine_baselines as baselines;
pub use twine_core as core;
pub use twine_crypto as crypto;
pub use twine_minicc as minicc;
pub use twine_pfs as pfs;
pub use twine_polybench as polybench;
pub use twine_sgx as sgx;
pub use twine_sqldb as sqldb;
pub use twine_wasi as wasi;
pub use twine_wasm as wasm;
