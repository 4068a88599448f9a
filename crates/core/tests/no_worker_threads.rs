//! Caller-runs shards own no threads (DESIGN.md §9): building and driving
//! a sharded service must not grow the process's thread count.
//!
//! This file holds exactly one test on purpose — the test harness runs the
//! tests of one binary on parallel threads, which would make the count
//! below meaningless.

#![cfg(target_os = "linux")]

use twine_core::{ControlPlane, DurableParkStore, TwineBuilder};
use twine_wasm::types::Value;

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .count()
}

#[test]
fn sharded_service_spawns_no_threads() {
    let before = threads();
    // Every control-plane option on (no `..`: a new option has to be set
    // here too), so no policy is exempt from the guarantee.
    let control = ControlPlane {
        max_live_sessions: Some(1),
        deadline: Some(1_000_000),
        queue_depth: Some(64),
        max_in_flight: Some(4),
        module_cache_capacity: Some(4),
        pool_slots_per_module: Some(2),
        durable_parks: Some(DurableParkStore::new()),
    };
    let svc = TwineBuilder::new().control_plane(control).build_sharded(8);
    assert_eq!(svc.shard_count(), 8);
    assert_eq!(threads(), before, "build_sharded(8) spawned threads");

    let wasm = twine_minicc::compile_to_bytes("int sq(int x) { return x * x; }").unwrap();
    // Second round: most tenants were parked by a later open and restore.
    for round in 0..2 {
        for i in 0..16 {
            let name = format!("tenant-{i}");
            if round == 0 {
                svc.open_session(&name, &wasm).unwrap();
            }
            assert_eq!(
                svc.invoke(&name, "sq", &[Value::I32(i)]).unwrap(),
                [Value::I32(i * i)]
            );
        }
    }
    let stats = svc.control_stats();
    assert!(stats.parks > 0 && stats.restores > 0 && stats.pool_hits > 0, "{stats:?}");
    assert_eq!(threads(), before, "serving spawned threads");
    drop(svc);
    assert_eq!(threads(), before);
}
