//! Compile-once under contention (ISSUE 5 satellite): many threads
//! concurrently opening sessions over identical Wasm bytes must compile
//! exactly once per content hash, and every session must share the
//! **same** `Arc<CompiledModule>` (pointer equality) — including when the
//! racers arrive mid-compile.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

use twine_core::{ModuleCache, TwineBuilder};
use twine_wasm::Value;

fn guest(src: &str) -> Vec<u8> {
    twine_minicc::compile_to_bytes(src).expect("guest compiles")
}

/// All threads released by a barrier onto one cache: one compile, shared
/// pointer. The barrier maximises the window in which late arrivals find
/// the slot mid-compile and must block on it rather than compile again.
#[test]
fn barrier_race_compiles_once_per_key() {
    let wasm = Arc::new(guest("int f(int x) { return x * x + 1; }"));
    let cache = Arc::new(ModuleCache::new());
    let threads = 8;
    let rounds = 8;
    for round in 0..rounds {
        let barrier = Arc::new(Barrier::new(threads));
        let compiles = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let (wasm, cache, barrier, compiles) = (
                    Arc::clone(&wasm),
                    Arc::clone(&cache),
                    Arc::clone(&barrier),
                    Arc::clone(&compiles),
                );
                std::thread::spawn(move || {
                    barrier.wait();
                    let (m, key, hit) = cache.get_or_compile(&wasm).expect("compiles");
                    if !hit {
                        compiles.fetch_add(1, Ordering::SeqCst);
                    }
                    (Arc::as_ptr(&m) as usize, key)
                })
            })
            .collect();
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let (first_ptr, first_key) = results[0];
        for (ptr, key) in &results {
            assert_eq!(*ptr, first_ptr, "all racers share one module pointer");
            assert_eq!(*key, first_key, "content key is deterministic");
        }
        // Exactly one miss ever (round 0's winner); later rounds are all hits.
        let expected_compiles = usize::from(round == 0);
        assert_eq!(compiles.load(Ordering::SeqCst), expected_compiles);
        assert_eq!(cache.len(), 1);
    }
    assert_eq!(cache.misses(), 1, "one compile across all rounds/threads");
    assert_eq!(cache.hits(), (threads * rounds - 1) as u64);
}

/// Distinct modules racing concurrently: one compile each, no
/// cross-contamination, and the map lock never serialises them into a
/// wrong count.
#[test]
fn distinct_modules_compile_once_each() {
    let cache = Arc::new(ModuleCache::new());
    let sources: Vec<Arc<Vec<u8>>> = (0..4)
        .map(|i| Arc::new(guest(&format!("int f(int x) {{ return x + {i}; }}"))))
        .collect();
    let barrier = Arc::new(Barrier::new(4 * 4));
    let handles: Vec<_> = (0..16)
        .map(|i| {
            let wasm = Arc::clone(&sources[i % 4]);
            let cache = Arc::clone(&cache);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                let (m, key, _) = cache.get_or_compile(&wasm).expect("compiles");
                (i % 4, Arc::as_ptr(&m) as usize, key)
            })
        })
        .collect();
    let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    for want in 0..4usize {
        let group: Vec<_> = results.iter().filter(|(g, _, _)| *g == want).collect();
        assert_eq!(group.len(), 4);
        assert!(
            group.iter().all(|(_, p, k)| *p == group[0].1 && *k == group[0].2),
            "group {want} shares one pointer"
        );
    }
    assert_eq!(cache.len(), 4);
    assert_eq!(cache.misses(), 4, "one compile per distinct module");
    assert_eq!(cache.hits(), 12);
}

/// A module's cache key is SHA-256 over the register tier's domain byte
/// and the bytes: pinned to the value the key has always had, and equal
/// to the key `get_or_compile` reports.
#[test]
fn content_key_is_pinned() {
    let wasm = guest("int g(int x) { return 3 * x; }");
    let key = ModuleCache::content_key(&wasm);
    let hex: String = key.iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(
        hex,
        "b7387004eab593eef3815a8057a5eda1dffc0103e1a00311ea7b6c4a75814214"
    );
    let (_, served, _) = ModuleCache::new().get_or_compile(&wasm).unwrap();
    assert_eq!(served, key);
}

/// A compile failure is observed by every racer of that attempt but is
/// *not* cached: the bytes can be fixed (here: retried as a valid module
/// under the same cache) and a later open compiles fresh.
#[test]
fn failed_compiles_are_not_cached() {
    let cache = Arc::new(ModuleCache::new());
    let junk = Arc::new(vec![0xde, 0xad, 0xbe, 0xef, 0x00, 0x01]);
    let barrier = Arc::new(Barrier::new(4));
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let (junk, cache, barrier) =
                (Arc::clone(&junk), Arc::clone(&cache), Arc::clone(&barrier));
            std::thread::spawn(move || {
                barrier.wait();
                cache.get_or_compile(&junk).is_err()
            })
        })
        .collect();
    assert!(handles.into_iter().all(|h| h.join().unwrap()));
    assert!(cache.is_empty(), "failures leave no entry behind");
    // A failed compile is neither a hit nor a miss — waiters on the failed
    // attempt were not "served without compiling".
    assert_eq!(cache.hits(), 0);
    assert_eq!(cache.misses(), 0);
    // The same cache still compiles valid bytes afterwards.
    let ok = guest("int h(int x) { return x - 1; }");
    assert!(cache.get_or_compile(&ok).is_ok());
    assert_eq!(cache.len(), 1);
    assert_eq!(cache.misses(), 1);
}

/// End-to-end through the sharded service: sessions opened from many
/// client threads across many shards all share one pointer-identical
/// compiled module, with exactly one compile.
#[test]
fn sharded_sessions_share_one_module() {
    let wasm = Arc::new(guest("int serve(int x) { return x + 41; }"));
    let svc = Arc::new(TwineBuilder::new().build_sharded(4));
    let barrier = Arc::new(Barrier::new(8));
    let handles: Vec<_> = (0..8)
        .map(|t| {
            let (wasm, svc, barrier) =
                (Arc::clone(&wasm), Arc::clone(&svc), Arc::clone(&barrier));
            std::thread::spawn(move || {
                barrier.wait();
                for s in 0..4 {
                    let name = format!("tenant-{t}-{s}");
                    svc.open_session(&name, &wasm).expect("open");
                    let out = svc.invoke(&name, "serve", &[Value::I32(1)]).expect("call");
                    assert_eq!(out[0], Value::I32(42));
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(svc.session_count(), 32);
    assert_eq!(svc.module_cache().len(), 1, "one compiled module");
    assert_eq!(svc.module_cache().misses(), 1, "compiled exactly once");
    assert_eq!(svc.module_cache().hits(), 31);
    let first = svc.session_module("tenant-0-0").expect("module");
    for t in 0..8 {
        for s in 0..4 {
            let m = svc.session_module(&format!("tenant-{t}-{s}")).unwrap();
            assert!(
                Arc::ptr_eq(&first, &m),
                "every session shares the cache's Arc"
            );
        }
    }
}

/// ROADMAP item 5 regression: with a capacity set, a cache churned with a
/// stream of distinct binaries (none referenced after use) stays bounded
/// — every insert past capacity sweeps the unreferenced entries as part
/// of the insert itself, no embedder `evict_unreferenced` call needed.
#[test]
fn capacity_bounds_cache_under_churn() {
    const CAP: usize = 4;
    const CHURN: usize = 40;
    let cache = ModuleCache::new();
    cache.set_capacity(Some(CAP));
    for i in 0..CHURN {
        let wasm = guest(&format!("int f(int x) {{ return x * {} + 1; }}", i + 2));
        let (_m, _, hit) = cache.get_or_compile(&wasm).expect("compiles");
        assert!(!hit, "every binary is distinct");
        // `_m` drops here: nothing references the entry any more.
        assert!(
            cache.len() <= CAP,
            "cache grew to {} > capacity {CAP} after churn insert {i}",
            cache.len()
        );
    }
    assert!(
        cache.capacity_evictions() >= (CHURN - CAP) as u64,
        "inserted {CHURN} into capacity {CAP}, only {} evictions",
        cache.capacity_evictions()
    );
    assert_eq!(cache.misses(), CHURN as u64);
}

/// Capacity eviction must never break pointer sharing: entries whose
/// module some session still holds survive any number of over-capacity
/// sweeps (the cache is bounded by `max(capacity, live working set)`),
/// and re-opens keep returning the identical `Arc` as hits.
#[test]
fn referenced_modules_survive_capacity_pressure() {
    const HELD: usize = 5;
    let cache = ModuleCache::new();
    cache.set_capacity(Some(2));
    let sources: Vec<Vec<u8>> = (0..HELD)
        .map(|i| guest(&format!("int keep(int x) {{ return x + {i}; }}")))
        .collect();
    let held: Vec<_> = sources
        .iter()
        .map(|w| cache.get_or_compile(w).expect("compiles").0)
        .collect();
    assert_eq!(cache.len(), HELD, "live working set exceeds capacity");

    // Churn unreferenced binaries through the over-capacity cache: each
    // sweep may keep at most the held set, the entry just inserted, and
    // the previous round's not-yet-swept entry.
    for i in 0..10 {
        let wasm = guest(&format!("int churn(int x) {{ return x - {i}; }}"));
        cache.get_or_compile(&wasm).expect("compiles");
        assert!(cache.len() <= HELD + 2, "held working set was evicted");
    }
    let misses_before = cache.misses();
    for (w, m) in sources.iter().zip(&held) {
        let (again, _, hit) = cache.get_or_compile(w).expect("still cached");
        assert!(hit, "held module must not recompile under pressure");
        assert!(Arc::ptr_eq(m, &again), "pointer identity preserved");
    }
    assert_eq!(cache.misses(), misses_before);

    // Once the sessions let go, the next insert sweeps the backlog.
    drop(held);
    cache.get_or_compile(&guest("int last(int x) { return x; }")).unwrap();
    assert!(cache.len() <= 2, "unreferenced backlog survived the sweep");
}

/// End-to-end: a service configured with `module_cache_capacity` serving
/// a churn of tenants with distinct binaries keeps its cache bounded,
/// while concurrently-open sessions over the same bytes still share one
/// pointer-identical module.
#[test]
fn service_cache_stays_bounded_under_tenant_churn() {
    let control = twine_core::ControlPlane {
        module_cache_capacity: Some(2),
        ..twine_core::ControlPlane::default()
    };
    let mut svc = TwineBuilder::new().control_plane(control).build_service();
    let shared = guest("int s(int x) { return x * 7; }");
    svc.open_session("pinned-a", &shared).expect("open");
    svc.open_session("pinned-b", &shared).expect("open");
    assert!(Arc::ptr_eq(
        svc.session_module("pinned-a").unwrap(),
        svc.session_module("pinned-b").unwrap()
    ));

    for i in 0..12 {
        let wasm = guest(&format!("int t(int x) {{ return x + {}; }}", 100 + i));
        let name = format!("drive-by-{i}");
        svc.open_session(&name, &wasm).expect("open");
        let out = svc.invoke(&name, "t", &[Value::I32(1)]).expect("call");
        assert_eq!(out[0], Value::I32(101 + i));
        svc.close_session(&name);
        assert!(
            svc.module_cache().len() <= 4,
            "service cache unbounded under churn: {}",
            svc.module_cache().len()
        );
    }
    assert!(svc.module_cache().capacity_evictions() > 0);
    // The pinned tenants' shared module survived every sweep.
    let out = svc.invoke("pinned-a", "s", &[Value::I32(6)]).expect("call");
    assert_eq!(out[0], Value::I32(42));
    assert!(Arc::ptr_eq(
        svc.session_module("pinned-a").unwrap(),
        svc.session_module("pinned-b").unwrap()
    ));
}
