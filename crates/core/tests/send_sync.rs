//! Static thread-safety assertions (ISSUE 5 satellite): the shared,
//! immutable artifacts of the engine core must be `Send + Sync`, and the
//! per-session state must at least be `Send` (single-owner: used by
//! whichever caller thread is inside its shard's gate).
//!
//! These are *compile-time* tests: reintroducing an `Rc`, `RefCell` or
//! `Cell` anywhere inside one of these types makes this file fail to
//! build, which is exactly the regression guard the multi-threaded
//! service needs — a runtime test could only catch what it happens to
//! execute.

use twine_core::{ModuleCache, ShardedService, TwineService};
use twine_sgx::{Enclave, EpcHandle, SimClock};
use twine_wasi::WasiCtx;
use twine_wasm::compile::CompiledModule;
use twine_wasm::{Instance, Linker};

fn assert_send_sync<T: Send + Sync>() {}
fn assert_send<T: Send>() {}

#[test]
fn shared_artifacts_are_send_and_sync() {
    // The five named by the issue:
    assert_send_sync::<CompiledModule>();
    assert_send_sync::<Linker>();
    assert_send_sync::<ModuleCache>();
    assert_send_sync::<Enclave>();
    assert_send_sync::<ShardedService>();
}

#[test]
fn supporting_shared_state_is_send_and_sync() {
    // The pieces the artifacts above are built from — pinning them
    // individually makes a future regression's compile error point at the
    // culprit, not at the composite.
    assert_send_sync::<SimClock>();
    assert_send_sync::<EpcHandle>();
    assert_send_sync::<twine_sgx::Processor>();
    assert_send_sync::<twine_pfs::PfsProfiler>();
    assert_send_sync::<twine_core::shared_store::SharedStorage>();
}

#[test]
fn per_session_state_is_send() {
    // Single-owner per shard: needs `Send` (successive callers inside the
    // shard's gate are different threads, and close hands state back),
    // deliberately *not* `Sync` — a session is never shared between
    // threads at the same time, so nothing forces locks onto its hot path.
    assert_send::<Instance>();
    assert_send::<WasiCtx>();
    assert_send::<TwineService>();
    assert_send::<Box<dyn twine_wasi::FsBackend>>();
    assert_send::<Box<dyn twine_wasi::WasiFile>>();
    assert_send::<twine_core::RunReport>();
    assert_send::<twine_core::TwineError>();
}
