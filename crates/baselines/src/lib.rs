//! # twine-baselines
//!
//! The execution variants the paper compares (§V) and the calibrated cost
//! models that convert metered work into virtual time:
//!
//! * [`model`] — per-instruction-class cycle weights for Native, WAMR-AoT
//!   and Twine-AoT execution. Figure 3's per-kernel variation emerges from
//!   each kernel's real instruction mix under these weights.
//! * [`db_variants`] — the four database stacks of Figures 4–6: Native,
//!   WAMR (Wasm outside the enclave), Twine (Wasm inside + protected FS)
//!   and an SGX-LKL-style library-OS baseline, each over in-memory or
//!   file storage.
//! * [`pfs_vfs`] — the SGX-LKL-style disk-image VFS. (Twine's own
//!   SQLite-VFS-over-protected-FS path — the paper's `test_demovfs` → WASI
//!   → IPFS chain — is `twine_sqldb::backend_vfs::BackendVfs` over
//!   `twine_core::PfsBackend`, shared with the serving plane.)
//! * [`costs`] — Table III cost factors (compile/launch times, artifact
//!   sizes).
//!
//! All calibration constants carry doc comments citing what they mirror;
//! see DESIGN.md §4 for the methodology.
//!
//! **Dependency graph**: sits atop `twine-core`, `twine-sqldb`, `twine-pfs`,
//! `twine-sgx` and `twine-wasm` — it prices their metered
//! event streams. Consumed by `twine-bench`. Paper anchor: §V.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod costs;
pub mod db_variants;
pub mod model;
pub mod pfs_vfs;

pub use db_variants::{DbStorage, DbVariant, VariantDb, VariantReport};
pub use model::{kernel_seconds, ExecMode};
