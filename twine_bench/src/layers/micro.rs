//! Rungs that do not depend on the workload: direct calls into one layer's
//! public functions, each timed many times and reported as a median. Every
//! traced run takes them, so their numbers sit beside each workload's own.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use twine_core::{ShardedService, TwineBuilder, TwineService};
use twine_crypto::ccm::AesCcm;
use twine_crypto::gcm::AesGcm;
use twine_crypto::sha256::Sha256;
use twine_pfs::{MemStorage, PfsOptions, SgxFile, NODE_SIZE};
use twine_sgx::Enclave;
use twine_wasm::{CompiledModule, Instance, Linker, Value};

use crate::catalog::LayerMetrics;
use crate::guests;
use crate::harness::{drive, names_on_shard, over_slices, Client, ClientLog, Config, Step, SHARDS};
use crate::interpose::{CountingStorage, StorageCounters};
use crate::rng::SplitMix64;
use crate::stats::{ratio, Summary};
use crate::workloads::{churn, sql};

/// Time `f` `n` times; the summary is over the `n` durations in µs.
pub fn time_each<R>(n: usize, mut f: impl FnMut(usize) -> R) -> Summary {
    let us: Vec<f64> = (0..n)
        .map(|i| {
            let t = Instant::now();
            std::hint::black_box(f(i));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    Summary::of(&us)
}

/// twine-crypto on 4 KiB buffers, the way the protected file system uses
/// it: a fresh single-use key per node, so key set-up is part of the call.
pub fn crypto(cfg: &Config, out: &mut LayerMetrics) {
    let n = cfg.scaled(2000, 20);
    let mut rng = SplitMix64::derive(cfg.seed, &[0x6372_7970]);
    let mut key = [0u8; 16];
    rng.fill(&mut key);
    let mut plain = vec![0u8; NODE_SIZE];
    rng.fill(&mut plain);
    let nonce = [0u8; 12];

    let mut buf = plain.clone();
    let mut tag = [0u8; 16];
    out.set(
        "crypto.gcm_4k_seal_us",
        time_each(n, |_| {
            buf.copy_from_slice(&plain);
            tag = AesGcm::new_128(&key).encrypt_in_place(&nonce, b"", &mut buf);
        }),
    );
    let sealed = buf.clone();
    out.set(
        "crypto.gcm_4k_open_us",
        time_each(n, |_| {
            buf.copy_from_slice(&sealed);
            AesGcm::new_128(&key)
                .decrypt_in_place(&nonce, b"", &mut buf, &tag)
                .expect("GCM round trip")
        }),
    );
    assert_eq!(buf, plain, "GCM round trip");

    out.set(
        "crypto.ccm_4k_seal_us",
        time_each(n, |_| {
            buf.copy_from_slice(&plain);
            tag = AesCcm::new_128(&key).encrypt_in_place(&nonce, b"", &mut buf);
        }),
    );
    let sealed = buf.clone();
    out.set(
        "crypto.ccm_4k_open_us",
        time_each(n, |_| {
            buf.copy_from_slice(&sealed);
            AesCcm::new_128(&key)
                .decrypt_in_place(&nonce, b"", &mut buf, &tag)
                .expect("CCM round trip")
        }),
    );
    assert_eq!(buf, plain, "CCM round trip");

    out.set(
        "crypto.sha256_4k_us",
        time_each(n, |_| Sha256::digest(&plain)),
    );
}

/// twine-sgx: the cost of an empty boundary crossing, and of sealing.
pub fn sgx(cfg: &Config, enclave: &Enclave, out: &mut LayerMetrics) {
    // An empty ECALL is tens of nanoseconds: time batches of 1 000.
    let batches = cfg.scaled(200, 5);
    let per_call = time_each(batches, |_| {
        for _ in 0..1000 {
            enclave.ecall(|| std::hint::black_box(()));
        }
    });
    out.set("sgx.ecall_us", per_call.scaled(1e-3));

    // Sealing on 4 KiB and 64 KiB images alternately, per KiB.
    let n = cfg.scaled(64, 4);
    let mut rng = SplitMix64::derive(cfg.seed, &[0x7365_616c]);
    let mut image = vec![0u8; 64 << 10];
    rng.fill(&mut image);
    let (mut seal_us, mut unseal_us) = (Vec::new(), Vec::new());
    for i in 0..n {
        let plain = if i % 2 == 0 {
            &image[..4 << 10]
        } else {
            &image[..]
        };
        let kib = plain.len() as f64 / 1024.0;
        let t = Instant::now();
        let blob = enclave.seal(plain);
        seal_us.push(t.elapsed().as_secs_f64() * 1e6 / kib);
        let t = Instant::now();
        let back = enclave.unseal(&blob).expect("unseal own blob");
        unseal_us.push(t.elapsed().as_secs_f64() * 1e6 / kib);
        assert_eq!(back, plain, "seal round trip");
    }
    out.set("sgx.seal_us_per_kib", Summary::of(&seal_us));
    out.set("sgx.unseal_us_per_kib", Summary::of(&unseal_us));
}

/// twine-pfs: random 4 KiB I/O on a 16 MiB protected file over
/// benchmark-owned counting storage, default options (Intel mode, 48-node
/// cache). Every write is followed by a flush — the pattern the SQL pager's
/// commit produces, and the only one the current node cache survives (see
/// the README's findings).
pub fn pfs(cfg: &Config, out: &mut LayerMetrics) {
    let nodes = cfg.scaled(4096, 128) as u64;
    let n = cfg.scaled(1000, 16);
    let counters = Arc::new(StorageCounters::default());
    let store = CountingStorage::new(MemStorage::new(), Arc::clone(&counters));
    let mut rng = SplitMix64::derive(cfg.seed, &[0x0070_6673]);
    let mut key = [0u8; 16];
    rng.fill(&mut key);
    let mut file = SgxFile::create(store, key, PfsOptions::default()).expect("create");
    let mut block = vec![0u8; NODE_SIZE];
    for i in 0..nodes {
        rng.fill(&mut block);
        file.write(&block).expect("sequential fill");
        if i % 16 == 15 {
            file.flush().expect("flush");
        }
    }
    file.flush().expect("flush");

    let written = |c: &StorageCounters| c.node_writes.load(Ordering::Relaxed);
    let read = |c: &StorageCounters| c.node_reads.load(Ordering::Relaxed);
    let (w0, mut write_us, mut flush_us) = (written(&counters), Vec::new(), Vec::new());
    for _ in 0..n {
        rng.fill(&mut block);
        file.seek(rng.below(nodes) * NODE_SIZE as u64)
            .expect("seek");
        let t = Instant::now();
        file.write(&block).expect("random write");
        write_us.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        file.flush().expect("flush");
        flush_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    out.set("pfs.write_4k_us", Summary::of(&write_us));
    out.set("pfs.flush_us", Summary::of(&flush_us));
    out.set_exact(
        "pfs.nodes_written_per_4k",
        ratio((written(&counters) - w0) as f64, n as f64),
        n,
    );

    // Random reads over a file 85× the node cache: nearly all miss it.
    let (r0, mut read_us) = (read(&counters), Vec::new());
    for _ in 0..n {
        file.seek(rng.below(nodes) * NODE_SIZE as u64)
            .expect("seek");
        let t = Instant::now();
        file.read(&mut block).expect("random read");
        read_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    out.set("pfs.read_4k_miss_us", Summary::of(&read_us));
    out.set_exact(
        "pfs.nodes_read_per_4k_miss",
        ratio((read(&counters) - r0) as f64, n as f64),
        n,
    );
}

/// twine-wasm's park primitives on the stateful guest: capture the delta
/// against the base image after a burst of requests, apply it to a fresh
/// instance.
pub fn wasm_delta(cfg: &Config, out: &mut LayerMetrics) {
    let n = cfg.scaled(64, 8);
    let code = Arc::new(
        CompiledModule::from_bytes(&guests::compile(guests::STATEFUL_SRC)).expect("valid module"),
    );
    let fresh = || {
        Instance::instantiate(Arc::clone(&code), Linker::new(), Box::new(())).expect("instantiates")
    };
    let base = fresh().snapshot();
    let mut rng = SplitMix64::derive(cfg.seed, &[0x6465_6c74]);
    let (mut snap_us, mut apply_us, mut pages) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..n {
        let mut live = fresh();
        live.clear_dirty();
        let mut oracle = guests::StatefulOracle::default();
        let mut last = (0, 0);
        // As many requests as a churn session sees between two parks.
        for _ in 0..4 {
            let req = rng.below(1 << 20) as i32;
            let got = live.invoke("handle", &[Value::I32(req)]).expect("no trap");
            last = (oracle.handle(req), got[0].as_i32().expect("i32 reply"));
        }
        assert_eq!(last.0, last.1, "stateful guest reply");
        let t = Instant::now();
        let delta = live.snapshot_delta(&base);
        snap_us.push(t.elapsed().as_secs_f64() * 1e6);
        pages.push(delta.page_count() as f64);
        let mut restored = fresh();
        let t = Instant::now();
        let applied = restored.apply_delta(&delta);
        apply_us.push(t.elapsed().as_secs_f64() * 1e6);
        assert!(applied, "delta applies to a fresh instance");
        // The restored instance must continue the session's history.
        let req = rng.below(1 << 20) as i32;
        let got = restored
            .invoke("handle", &[Value::I32(req)])
            .expect("no trap");
        assert_eq!(got[0].as_i32(), Some(oracle.handle(req)), "restored state");
    }
    out.set("wasm.snapshot_delta_us", Summary::of(&snap_us));
    out.set("wasm.apply_delta_us", Summary::of(&apply_us));
    out.set("wasm.dirty_pages_per_park", Summary::of(&pages));
}

/// twine-core's session lifecycle, in process (no shard): open with and
/// without a module-cache hit, explicit park and the restoring next call,
/// for a Wasm session and for a database session.
pub fn lifecycle(cfg: &Config, out: &mut LayerMetrics) {
    let n = cfg.scaled(64, 8);
    let wasm = guests::compile(guests::STATEFUL_SRC);
    let build = || {
        TwineBuilder::new()
            .control_plane(churn::control_plane())
            .build_service()
    };

    // First open of a module: decode + validate + compile + instantiate.
    // A fresh service each time, so the module cache is empty.
    let first: Vec<f64> = (0..cfg.scaled(16, 3))
        .map(|_| {
            let mut svc = build();
            let t = Instant::now();
            let hit = svc.open_session("first", &wasm).expect("open").cache_hit;
            let us = t.elapsed().as_secs_f64() * 1e6;
            assert!(!hit, "a fresh service has an empty module cache");
            us
        })
        .collect();
    out.set("core.first_open_us", Summary::of(&first));

    let mut svc = build();
    svc.open_session("seed", &wasm).expect("open");
    let hits0 = (svc.module_cache().hits(), svc.module_cache().misses());
    let open = time_each(n, |i| {
        svc.open_session(&format!("s{i}"), &wasm)
            .expect("open")
            .cache_hit
    });
    out.set("core.open_us", open);
    let (hits, misses) = (
        svc.module_cache().hits() - hits0.0,
        svc.module_cache().misses() - hits0.1,
    );
    out.set_exact(
        "core.module_cache_hit_rate",
        ratio(hits as f64, (hits + misses) as f64),
        n,
    );

    // Park after four requests, then time the next call (which restores).
    let mut rng = SplitMix64::derive(cfg.seed, &[0x6c69_6665]);
    let mut oracles = vec![guests::StatefulOracle::default(); n];
    let mut call = |svc: &mut TwineService, i: usize, oracles: &mut Vec<guests::StatefulOracle>| {
        let req = rng.below(1 << 20) as i32;
        let got = svc
            .invoke(&format!("s{i}"), "handle", &[Value::I32(req)])
            .expect("invoke");
        assert_eq!(got[0].as_i32(), Some(oracles[i].handle(req)), "session {i}");
    };
    let stats0 = svc.control_stats();
    let (mut park_us, mut restore_us) = (Vec::new(), Vec::new());
    for i in 0..n {
        for _ in 0..4 {
            call(&mut svc, i, &mut oracles);
        }
        let name = format!("s{i}");
        let t = Instant::now();
        svc.park_session(&name).expect("park");
        park_us.push(t.elapsed().as_secs_f64() * 1e6);
        assert_eq!(svc.session_parked(&name), Some(true));
        let t = Instant::now();
        call(&mut svc, i, &mut oracles);
        restore_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let stats = svc.control_stats();
    out.set("core.park_us", Summary::of(&park_us));
    out.set("core.restore_us", Summary::of(&restore_us));
    out.set_exact(
        "core.sealed_bytes_per_park",
        ratio(
            (stats.sealed_bytes - stats0.sealed_bytes) as f64,
            (stats.parks - stats0.parks) as f64,
        ),
        n,
    );

    // Database session: a small table, parked and restored by the next
    // statement.
    let mut svc = TwineBuilder::new().build_service();
    svc.db_open_session("db").expect("open database session");
    let rows = cfg.scaled(200, 50);
    for batch in sql::populate_batches(cfg.seed, 0, rows) {
        svc.db_execute_batch("db", &batch).expect("populate");
    }
    let (mut park_us, mut restore_us) = (Vec::new(), Vec::new());
    for _ in 0..n {
        let t = Instant::now();
        svc.db_park_session("db").expect("park database session");
        park_us.push(t.elapsed().as_secs_f64() * 1e6);
        let key = rng.below(rows as u64);
        let t = Instant::now();
        let reply = svc.db_query("db", &sql::read_sql(key)).expect("query");
        restore_us.push(t.elapsed().as_secs_f64() * 1e6);
        assert!(
            sql::row_matches(&reply, cfg.seed, 0, key, 0),
            "row {key} after restore"
        );
    }
    out.set("core.db_park_us", Summary::of(&park_us));
    out.set("core.db_restore_us", Summary::of(&restore_us));
}

/// One client of the shard hand-off rung: `calls` empty invocations.
struct NopClient<'a> {
    svc: &'a ShardedService,
    name: String,
    calls: usize,
}

impl Client for NopClient<'_> {
    fn prepare(&mut self, _rep: u64, _frac: f64) {}

    fn run(&mut self, log: &mut ClientLog) {
        for i in 0..self.calls as i32 {
            log.op(|| {
                self.svc
                    .invoke(&self.name, "nop", &[Value::I32(i)])
                    .is_ok_and(|v| v[0].as_i32() == Some(i))
            });
        }
    }
}

/// twine-core's shard hand-off by itself: an empty invocation (`nop`)
/// through `ShardedService::invoke` minus the same through the in-process
/// `TwineService::invoke`, at 2 clients × 2 shards and at 1 × 1; and the
/// per-call cost of a batch of eight real invocations.
pub fn shard_round_trip(cfg: &Config, out: &mut LayerMetrics) {
    let wasm = guests::compile(guests::HANDLER_SRC);
    let calls = cfg.scaled(20_000, 200);
    let nop = |reply: Result<Vec<Value>, twine_core::TwineError>, req: i32| {
        assert_eq!(reply.expect("nop")[0].as_i32(), Some(req), "nop reply");
    };

    let mut svc = TwineBuilder::new().build_service();
    svc.open_session("nop", &wasm).expect("open");
    let in_process = time_each(calls, |i| {
        nop(svc.invoke("nop", "nop", &[Value::I32(i as i32)]), i as i32);
    });

    // Through the shard: persistent client threads, a warm-up and the
    // median over slices, exactly as the end-to-end metrics are taken —
    // freshly spawned threads spend their first half second in a slower
    // scheduler placement.
    let sharded = |shards: usize| -> Summary {
        let svc = TwineBuilder::new().build_sharded(shards);
        let mut counter = 0;
        let mut clients: Vec<NopClient> = (0..shards)
            .map(|shard| NopClient {
                svc: &svc,
                name: names_on_shard(&svc, "rtt-", shard, 1, &mut counter).remove(0),
                calls,
            })
            .collect();
        for client in &clients {
            svc.open_session(&client.name, &wasm).expect("open");
        }
        let reps = drive(&mut clients, svc.clock(), |done| {
            (done.len() < 4).then_some(Step {
                rep: done.len() as u64,
                frac: 1.0,
                traced: false,
            })
        });
        assert!(reps.iter().all(|r| r.failed == 0), "nop through the shard");
        over_slices(&reps[1..], |s| s.lat_p50_us)
    };
    for (metric, shards) in [
        ("core.shard_rtt_2x2_us", SHARDS),
        ("core.shard_rtt_1x1_us", 1),
    ] {
        let through_shard = sharded(shards);
        out.set_exact(
            metric,
            through_shard.median - in_process.median,
            through_shard.samples,
        );
    }

    let svc = TwineBuilder::new().build_sharded(1);
    svc.open_session("batch", &wasm).expect("open");
    let mut rng = SplitMix64::derive(cfg.seed, &[0x6261_7463]);
    let mut per_call_us = Vec::new();
    for _ in 0..cfg.scaled(2000, 20) {
        let reqs: Vec<i32> = (0..8).map(|_| rng.below(1 << 20) as i32).collect();
        let args: Vec<Vec<Value>> = reqs.iter().map(|&r| vec![Value::I32(r)]).collect();
        let t = Instant::now();
        let got = svc.invoke_batch("batch", "handle", args).expect("batch");
        per_call_us.push(t.elapsed().as_secs_f64() * 1e6 / 8.0);
        for (req, reply) in reqs.iter().zip(&got) {
            assert_eq!(reply[0].as_i32(), Some(guests::handler_oracle(*req)));
        }
    }
    out.set("core.batch8_us_per_call", Summary::of(&per_call_us));
}
