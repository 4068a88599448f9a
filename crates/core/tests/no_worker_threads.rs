//! Caller-runs shards own no threads (DESIGN.md §9): building and driving
//! a sharded service must not grow the process's thread count.
//!
//! This file holds exactly one test on purpose — the test harness runs the
//! tests of one binary on parallel threads, which would make the count
//! below meaningless.

#![cfg(target_os = "linux")]

use twine_core::TwineBuilder;
use twine_wasm::types::Value;

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .count()
}

#[test]
fn sharded_service_spawns_no_threads() {
    let before = threads();
    let svc = TwineBuilder::new().build_sharded(8);
    assert_eq!(svc.shard_count(), 8);
    assert_eq!(threads(), before, "build_sharded(8) spawned threads");

    let wasm = twine_minicc::compile_to_bytes("int sq(int x) { return x * x; }").unwrap();
    for i in 0..16 {
        let name = format!("tenant-{i}");
        svc.open_session(&name, &wasm).unwrap();
        assert_eq!(
            svc.invoke(&name, "sq", &[Value::I32(i)]).unwrap(),
            [Value::I32(i * i)]
        );
    }
    assert_eq!(threads(), before, "serving spawned threads");
    drop(svc);
    assert_eq!(threads(), before);
}
