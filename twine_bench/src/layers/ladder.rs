//! The ladder: one workload's seeded op stream replayed against
//! successively deeper public entry points, so a layer's self time is its
//! rung minus the rung below (or, where the benchmark can interpose, its
//! span minus its child spans).

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use twine_core::{PfsBackend, TwineBuilder, TwineService};
use twine_pfs::{PfsCategory, PfsMode, PfsProfiler, DEFAULT_CACHE_NODES};
use twine_sgx::clock::CPU_HZ;
use twine_sqldb::{BackendVfs, Connection, MemVfs, SqlValue, Vfs};
use twine_wasm::{decode, validate, CompiledModule, ExecTier, Instance, Linker, Value};

use crate::catalog::LayerMetrics;
use crate::harness::{ClientLog, Config, WARMUP_FRAC};
use crate::interpose::{Probe, TimedVfs};
use crate::spans::{self_time_by_name, Recorder, Span};
use crate::stats::{ratio, Summary};
use crate::workloads::churn::{self, SessionTarget};
use crate::workloads::sql::{self, Kind, Model, SqlOp, SqlTarget};
use crate::workloads::{wasm_oneshot, wasm_warm};

use super::micro::time_each;

/// The Wasm pipeline stages on each of `modules` (decode → validate →
/// compile → instantiate). A stage's time is the median over modules of its
/// per-module median; `compile` is `compile_with_tier` (which validates
/// first) minus `validate`.
pub fn wasm_stages(cfg: &Config, modules: &[&[u8]], out: &mut LayerMetrics) {
    let n = cfg.scaled(40, 4);
    let mut libm = Linker::new();
    twine_core::runtime::register_libm(&mut libm);
    let (mut dec, mut val, mut comp, mut inst) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for wasm in modules {
        dec.push(time_each(n, |_| decode::decode(wasm).expect("decodes")).median);
        let module = decode::decode(wasm).expect("decodes");
        let validate_us = time_each(n, |_| validate::validate(&module).expect("validates")).median;
        val.push(validate_us);
        // `compile_with_tier` consumes the module: clone outside the timing.
        let with_validate: Vec<f64> = (0..n)
            .map(|_| {
                let m = module.clone();
                let t = Instant::now();
                let code = CompiledModule::compile_with_tier(m, ExecTier::default());
                let us = t.elapsed().as_secs_f64() * 1e6;
                std::hint::black_box(code.expect("compiles"));
                us
            })
            .collect();
        comp.push((Summary::of(&with_validate).median - validate_us).max(0.0));
        let code = Arc::new(CompiledModule::from_bytes(wasm).expect("compiles"));
        inst.push(
            time_each(n, |_| {
                Instance::instantiate_shared(Arc::clone(&code), &libm, Box::new(()), None)
                    .map_err(|(e, _)| e)
                    .expect("instantiates")
            })
            .median,
        );
    }
    out.set("wasm.decode_us", Summary::of(&dec));
    out.set("wasm.validate_us", Summary::of(&val));
    out.set("wasm.compile_us", Summary::of(&comp));
    out.set("wasm.instantiate_us", Summary::of(&inst));
}

/// What a bare-engine replay measured.
struct EngineRun {
    exec_us: Vec<f64>,
    instrs: u64,
    page_transitions: u64,
}

impl EngineRun {
    fn report(&self, out: &mut LayerMetrics) {
        let ops = self.exec_us.len();
        let total_us: f64 = self.exec_us.iter().sum();
        out.set("wasm.exec_us", Summary::of(&self.exec_us));
        out.set_exact(
            "wasm.instrs_per_op",
            ratio(self.instrs as f64, ops as f64),
            ops,
        );
        out.set_exact(
            "wasm.instrs_per_us",
            ratio(self.instrs as f64, total_us),
            ops,
        );
        out.set_exact(
            "wasm.page_transitions_per_op",
            ratio(self.page_transitions as f64, ops as f64),
            ops,
        );
    }
}

/// `wasm_warm`'s call stream on the two rungs below the shard: the bare
/// engine (`Instance::invoke`, metered) and the in-process service
/// (`TwineService::invoke`).
pub fn warm_ladder(cfg: &Config, out: &mut LayerMetrics) {
    let wasm = crate::guests::compile(crate::guests::HANDLER_SRC);
    wasm_stages(cfg, &[&wasm], out);
    let n = cfg.scaled(20_000, 200);
    let calls = wasm_warm::calls(cfg.seed, 0, 1, n);

    // One instance per session, as the service keeps them.
    let code = Arc::new(CompiledModule::from_bytes(&wasm).expect("compiles"));
    let mut sessions: Vec<Instance> = (0..wasm_warm::SESSIONS_PER_SHARD)
        .map(|_| {
            Instance::instantiate(Arc::clone(&code), Linker::new(), Box::new(()))
                .expect("instantiates")
        })
        .collect();
    let mut run = EngineRun {
        exec_us: Vec::with_capacity(n),
        instrs: 0,
        page_transitions: 0,
    };
    for call in &calls {
        let inst = &mut sessions[call.session];
        inst.meter.reset();
        let t = Instant::now();
        let got = inst.invoke("handle", &[Value::I32(call.req)]);
        run.exec_us.push(t.elapsed().as_secs_f64() * 1e6);
        assert_eq!(got.expect("no trap")[0].as_i32(), Some(call.expect));
        run.instrs += inst.meter.total();
        run.page_transitions += inst.meter.page_transitions;
    }
    run.report(out);

    let mut svc = TwineBuilder::new().build_service();
    let names: Vec<String> = (0..wasm_warm::SESSIONS_PER_SHARD)
        .map(|i| format!("warm-{i}"))
        .collect();
    for name in &names {
        svc.open_session(name, &wasm).expect("open");
    }
    let mut log = ClientLog::default();
    wasm_warm::run_calls(&names, &calls, &mut log, |name, req| {
        svc.invoke(name, "handle", &[Value::I32(req)])
            .ok()
            .and_then(|v| v[0].as_i32())
    });
    assert_eq!(log.failed, 0, "in-process service replay");
    let service = log.latencies_us();
    out.set("core.service_invoke_us", service);
    out.set_exact(
        "core.service_self_us",
        service.median - out.get("wasm.exec_us"),
        service.samples,
    );
}

/// `wasm_oneshot`'s kernels on the bare engine: the stages per kernel, and
/// `run()` on a fresh instance in the stream's order.
pub fn oneshot_ladder(cfg: &Config, kernels: &[wasm_oneshot::Kernel], out: &mut LayerMetrics) {
    let modules: Vec<&[u8]> = kernels.iter().map(|k| k.wasm.as_slice()).collect();
    wasm_stages(cfg, &modules, out);
    let mut libm = Linker::new();
    twine_core::runtime::register_libm(&mut libm);
    let codes: Vec<Arc<CompiledModule>> = kernels
        .iter()
        .map(|k| Arc::new(CompiledModule::from_bytes(&k.wasm).expect("compiles")))
        .collect();
    let order = wasm_oneshot::order(cfg.seed, 1, cfg.scaled(10, 1));
    let mut run = EngineRun {
        exec_us: Vec::with_capacity(order.len()),
        instrs: 0,
        page_transitions: 0,
    };
    for k in order {
        let mut inst =
            Instance::instantiate_shared(Arc::clone(&codes[k]), &libm, Box::new(()), None)
                .map_err(|(e, _)| e)
                .expect("instantiates");
        inst.meter.reset();
        let t = Instant::now();
        let got = inst.invoke("run", &[]);
        run.exec_us.push(t.elapsed().as_secs_f64() * 1e6);
        let sum = got.expect("no trap")[0].as_f64().expect("f64 checksum");
        assert_eq!(sum.to_bits(), kernels[k].expect_bits, "{}", kernels[k].name);
        run.instrs += inst.meter.total();
        run.page_transitions += inst.meter.page_transitions;
    }
    run.report(out);
}

/// Open a connection over `vfs`, create and fill tenant 0's table.
fn populated(cfg: &Config, vfs: Box<dyn Vfs>, rows: usize) -> Connection {
    let mut conn = Connection::open(vfs, "/data/tenant.db").expect("open database");
    for batch in sql::populate_batches(cfg.seed, 0, rows) {
        for stmt in batch {
            conn.execute(&stmt).expect("populate");
        }
    }
    conn
}

/// A bare connection as a statement target.
struct OnConnection<'a>(&'a mut Connection);

impl SqlTarget for OnConnection<'_> {
    fn query(&mut self, sql: &str) -> Option<Vec<Vec<SqlValue>>> {
        self.0.query(sql).ok()
    }

    fn batch(&mut self, stmts: Vec<String>) -> Option<u64> {
        let mut affected = 0;
        for stmt in &stmts {
            affected += self.0.execute(stmt).ok()?.affected;
        }
        Some(affected)
    }
}

/// The in-process service's database session `tenant` as a statement target.
struct OnService<'a>(&'a mut TwineService);

impl SqlTarget for OnService<'_> {
    fn query(&mut self, sql: &str) -> Option<Vec<Vec<SqlValue>>> {
        self.0.db_query("tenant", sql).ok()
    }

    fn batch(&mut self, stmts: Vec<String>) -> Option<u64> {
        self.0.db_execute_batch("tenant", &stmts).ok()
    }
}

/// A SQL workload's statement stream on the rungs below the shard:
/// `Connection` over plain memory (parse + plan + B-tree + pager),
/// `Connection` over `TimedVfs(BackendVfs(PfsBackend))` (adds the protected
/// file system; VFS calls are child spans of the statement), and the
/// in-process `TwineService` database session. Returns the traced rung's
/// spans.
pub fn sql_ladder(
    cfg: &Config,
    kind: Kind,
    rows: usize,
    ops: usize,
    out: &mut LayerMetrics,
) -> Vec<Span> {
    let stream = |model: &mut Model, rep: u64, n: usize| sql::ops(cfg.seed, kind, model, rep, n);
    let warm = ((ops as f64) * WARMUP_FRAC).ceil() as usize;
    // Every rung serves tenant 0: warm up on op stream 0, replay stream 1.
    let run = |target: &mut dyn SqlTarget, list: Vec<SqlOp>, log: &mut ClientLog| {
        sql::run_ops(cfg.seed, 0, list, log, target);
    };

    // twine-sqldb by itself: parsing, and whole statements over MemVfs.
    let mut model = Model::new(0, rows);
    let mut conn = populated(cfg, Box::new(MemVfs::new()), rows);
    let texts: Vec<String> = stream(&mut model.clone(), 1, ops.min(2000))
        .into_iter()
        .flat_map(|op| match op {
            SqlOp::Read { sql, .. } => vec![sql],
            SqlOp::Txn { stmts } => stmts,
        })
        .collect();
    // `prepare` caches by text: a second connection sees each text first.
    let mut parser = Connection::open_memory();
    let parse_us: Vec<f64> = texts
        .iter()
        .map(|text| {
            let t = Instant::now();
            let stmt = parser.prepare(text);
            let us = t.elapsed().as_secs_f64() * 1e6;
            stmt.expect("statement parses");
            us
        })
        .collect();
    // Per op: a transaction's statements are parsed one after another.
    let parsed_ops = ops.min(2000);
    out.set_exact(
        "sqldb.parse_us",
        parse_us.iter().sum::<f64>() / parsed_ops as f64,
        parsed_ops,
    );
    let mut log = ClientLog::default();
    run(
        &mut OnConnection(&mut conn),
        stream(&mut model, 0, warm),
        &mut ClientLog::default(),
    );
    run(
        &mut OnConnection(&mut conn),
        stream(&mut model, 1, ops),
        &mut log,
    );
    assert_eq!(log.failed, 0, "MemVfs replay");
    out.set("sqldb.stmt_memvfs_us", log.latencies_us());

    // twine-sqldb over twine-pfs, with the VFS boundary interposed.
    let service = TwineBuilder::new().build_service();
    let enclave = Arc::clone(service.enclave());
    let profiler = PfsProfiler::new(enclave.clock().clone());
    let backend = PfsBackend::new(
        Some(Arc::clone(&enclave)),
        PfsMode::Intel,
        DEFAULT_CACHE_NODES,
        Some(profiler.clone()),
    );
    let probe = Probe {
        counters: Arc::default(),
        recorder: Some(Recorder::new()),
    };
    let vfs = TimedVfs::new(Box::new(BackendVfs::new(Box::new(backend))), probe.clone());
    let mut model = Model::new(0, rows);
    let mut conn = populated(cfg, Box::new(vfs), rows);
    // The service wires the pager's page hook into the session's EPC range.
    let epc = enclave.epc();
    conn.set_page_hook(Some(Box::new(move |page, _write| {
        epc.touch((1 << 32) + u64::from(page))
    })));
    run(
        &mut OnConnection(&mut conn),
        stream(&mut model, 0, warm),
        &mut ClientLog::default(),
    );
    let recorder = probe.recorder.clone().expect("traced rung");
    recorder.take();
    let (vfs0, pager0) = (probe.counters.snapshot(), conn.stats());
    let (prof0, cycles0) = (profiler.raw_snapshot(), enclave.clock().cycles());
    let modelled0 = profiler.snapshot();
    let mut log = ClientLog::traced(recorder.clone());
    run(
        &mut OnConnection(&mut conn),
        stream(&mut model, 1, ops),
        &mut log,
    );
    assert_eq!(log.failed, 0, "PFS replay");
    let (vfs, pager) = (probe.counters.snapshot().since(&vfs0), conn.stats());
    let prof = profiler.raw_snapshot().since(&prof0);
    let spans = recorder.take();
    let n = ops as f64;
    let stmt_pfs = log.latencies_us();
    out.set("sqldb.stmt_pfs_us", stmt_pfs);
    // Mean VFS time per statement, from the child spans of the requests.
    let by_name = self_time_by_name(&spans);
    let vfs_span_ns: u64 = by_name
        .iter()
        .filter(|(name, _)| name.starts_with("vfs."))
        .map(|(_, (ns, _))| ns)
        .sum();
    out.set_exact("sqldb.vfs_us_per_op", vfs_span_ns as f64 / 1e3 / n, ops);
    out.set_exact("sqldb.vfs_reads_per_op", vfs.reads as f64 / n, ops);
    out.set_exact("sqldb.vfs_writes_per_op", vfs.writes as f64 / n, ops);
    out.set_exact("sqldb.vfs_syncs_per_op", vfs.syncs as f64 / n, ops);
    // User bytes of a write transaction: the two payloads it stores.
    let user_bytes = match kind {
        Kind::Write => 2.0 * sql::PAYLOAD_BYTES as f64 * n,
        Kind::ReadHot | Kind::ReadCold => 0.0,
    };
    out.set_exact(
        "sqldb.bytes_written_per_user_byte",
        ratio(vfs.bytes_written as f64, user_bytes),
        ops,
    );
    let page_reads = pager.page_reads - pager0.page_reads;
    let cache_hits = pager.cache_hits - pager0.cache_hits;
    out.set_exact(
        "sqldb.page_cache_hit_rate",
        ratio(cache_hits as f64, (cache_hits + page_reads) as f64),
        ops,
    );
    out.set_exact(
        "sqldb.journal_writes_per_op",
        (pager.journal_writes - pager0.journal_writes) as f64 / n,
        ops,
    );
    out.set_exact("sqldb.leaked_pages", pager.leaked_pages as f64, ops);
    // Fig. 7 categories: measured real time inside the PFS as a share of
    // the time spent below the VFS boundary; the OCALL category is modelled
    // cycles, so its share is of the virtual clock's advance.
    let vfs_s = vfs.ns as f64 / 1e9;
    let share = |cat: PfsCategory| ratio(prof.get(cat) as f64 / CPU_HZ as f64, vfs_s);
    out.set_exact("pfs.crypto_frac", share(PfsCategory::Crypto), ops);
    out.set_exact("pfs.memset_frac", share(PfsCategory::Memset), ops);
    out.set_exact("pfs.read_frac", share(PfsCategory::ReadOps), ops);
    let modelled = profiler.snapshot().since(&modelled0);
    out.set_exact(
        "pfs.ocall_frac",
        ratio(
            modelled.get(PfsCategory::Ocall) as f64,
            (enclave.clock().cycles() - cycles0) as f64,
        ),
        ops,
    );
    drop(conn);

    // twine-core's database session, in process.
    let mut svc: TwineService = TwineBuilder::new().build_service();
    svc.db_open_session("tenant")
        .expect("open database session");
    for batch in sql::populate_batches(cfg.seed, 0, rows) {
        svc.db_execute_batch("tenant", &batch).expect("populate");
    }
    let mut model = Model::new(0, rows);
    run(
        &mut OnService(&mut svc),
        stream(&mut model, 0, warm),
        &mut ClientLog::default(),
    );
    let mut log = ClientLog::default();
    run(
        &mut OnService(&mut svc),
        stream(&mut model, 1, ops),
        &mut log,
    );
    assert_eq!(log.failed, 0, "in-process database session replay");
    let service_us = log.latencies_us();
    out.set_exact(
        "core.db_service_self_us",
        service_us.median - stmt_pfs.median,
        service_us.samples,
    );
    spans
}

/// One bare-engine instance per session, never parked, as a session target.
struct OnEngine {
    code: Arc<CompiledModule>,
    live: HashMap<String, Instance>,
    instrs: u64,
    page_transitions: u64,
}

impl SessionTarget for OnEngine {
    fn open(&mut self, name: &str) -> bool {
        let inst = Instance::instantiate(Arc::clone(&self.code), Linker::new(), Box::new(()));
        inst.is_ok_and(|inst| self.live.insert(name.to_string(), inst).is_none())
    }

    fn invoke(&mut self, name: &str, req: i32) -> Option<i32> {
        let inst = self.live.get_mut(name)?;
        inst.meter.reset();
        let reply = inst.invoke("handle", &[Value::I32(req)]).ok()?[0].as_i32();
        self.instrs += inst.meter.total();
        self.page_transitions += inst.meter.page_transitions;
        reply
    }

    fn close(&mut self, name: &str) -> bool {
        self.live.remove(name).is_some()
    }
}

/// The in-process service as a session target.
struct SessionsOnService<'a>(TwineService, &'a [u8]);

impl SessionTarget for SessionsOnService<'_> {
    fn open(&mut self, name: &str) -> bool {
        self.0.open_session(name, self.1).is_ok()
    }

    fn invoke(&mut self, name: &str, req: i32) -> Option<i32> {
        self.0
            .invoke(name, "handle", &[Value::I32(req)])
            .ok()
            .and_then(|v| v[0].as_i32())
    }

    fn close(&mut self, name: &str) -> bool {
        self.0.close_session(name).is_some()
    }
}

/// `churn`'s plan on the rungs below the shard: the bare engine (one
/// instance per session, never parked) and the in-process service under the
/// same control plane (parks and restores happen, without the hand-off).
pub fn churn_ladder(cfg: &Config, wasm: &[u8], out: &mut LayerMetrics) {
    wasm_stages(cfg, &[wasm], out);
    let names: Vec<String> = (0..churn::arrivals(cfg, WARMUP_FRAC))
        .map(|i| format!("ladder-{i}"))
        .collect();
    let plan = churn::plan(cfg.seed, 0, 1, names);

    let mut engine = OnEngine {
        code: Arc::new(CompiledModule::from_bytes(wasm).expect("compiles")),
        live: HashMap::new(),
        instrs: 0,
        page_transitions: 0,
    };
    let mut log = ClientLog::default();
    churn::run_plan(&plan, &mut log, &mut engine);
    assert_eq!(log.failed, 0, "bare-engine churn replay");
    let exec = log.latencies_us();
    let ops = exec.samples as f64;
    out.set("wasm.exec_us", exec);
    out.set_exact(
        "wasm.instrs_per_op",
        engine.instrs as f64 / ops,
        exec.samples,
    );
    // The timed call includes the session lookup: instructions per µs of it.
    out.set_exact(
        "wasm.instrs_per_us",
        ratio(engine.instrs as f64, exec.median * ops),
        exec.samples,
    );
    out.set_exact(
        "wasm.page_transitions_per_op",
        engine.page_transitions as f64 / ops,
        exec.samples,
    );

    let svc = TwineBuilder::new()
        .control_plane(churn::control_plane())
        .build_service();
    let mut log = ClientLog::default();
    churn::run_plan(&plan, &mut log, &mut SessionsOnService(svc, wasm));
    assert_eq!(log.failed, 0, "in-process service churn replay");
    let service = log.latencies_us();
    out.set("core.service_invoke_us", service);
    out.set_exact(
        "core.service_self_us",
        service.median - exec.median,
        service.samples,
    );
}
