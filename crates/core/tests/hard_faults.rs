//! The failure contract of the session lifecycle (DESIGN.md §10), pinned
//! for both session kinds on the paths the chaos battery never reaches:
//! faults that **outlast** the bounded retry budget.
//!
//! `chaos.rs` arms a fault plan whose `max_consecutive` (2) is below the
//! retry budget (4 attempts), so every crossing converges and neither
//! "reinstate the live session" nor "quarantine" ever runs there. Here
//! `rate(K, 1024).max_consecutive(64)` makes kind `K` fire on *every*
//! attempt, for `K` in seal / outward transfer / unseal, against an
//! unpooled Wasm session, a pooled one and a database session:
//!
//! * a park that returns `Err` leaves the session **live and servable**
//!   and releases nothing (`parks == restores`, EPC residency untouched);
//! * an image that cannot be unsealed within the budget **quarantines**
//!   the session: typed rejections, counted once, "parked" no more, the
//!   co-tenant unaffected, and `close_session` still hands the tenant's
//!   files back.
//!
//! At the parent of the PR that introduced this file (two hand-copied
//! lifecycles) the Wasm rows, pooled and unpooled, already passed. The DB
//! rows did not: a DB park whose seal or transfer failed hard left the
//! session *parked* (`db_session_parked == Some(true)`, not live in the
//! gauges) with `parks == 0`, and its next statement counted a restore
//! that had no park (`restores == 1`); and a quarantined DB session still
//! answered `Some(true)` to "parked?". (EPC residency after a failed DB
//! park read the same there — the pages stayed resident under a session
//! the table called parked.)

use std::sync::Arc;

use twine_core::{ControlPlane, TwineBuilder, TwineError, TwineService};
use twine_sgx::{FaultConfig, FaultKind, FaultPlan};
use twine_sqldb::backend_vfs::BackendVfs;
use twine_sqldb::value::SqlValue;
use twine_sqldb::Connection;
use twine_wasi::WASI_MODULE;
use twine_wasm::encode::encode;
use twine_wasm::instr::{Instr, LoadKind, MemArg};
use twine_wasm::types::{FuncType, Limits, ValType, Value};
use twine_wasm::ModuleBuilder;

/// Which kind of session a row of the contract exercises.
#[derive(Clone, Copy, Debug)]
enum Tenant {
    Wasm { pooled: bool },
    Db,
}

/// A service on which `kind` fires on every attempt of every crossing it
/// guards, so it outlasts the retry budget (4 attempts = 3 retries).
fn service_failing(kind: FaultKind, tenant: Tenant) -> TwineService {
    let plan = FaultPlan::new(FaultConfig::new(7).rate(kind, 1024).max_consecutive(64));
    let mut b = TwineBuilder::new().faults(Arc::new(plan));
    if let Tenant::Wasm { pooled: true } = tenant {
        b = b.control_plane(ControlPlane {
            pool_slots_per_module: Some(2),
            ..ControlPlane::default()
        });
    }
    b.build_service()
}

/// Order-sensitive stateful guest (the chaos suite's): the accumulator
/// encodes the exact call history.
fn stateful_wasm() -> Vec<u8> {
    twine_minicc::compile_to_bytes(
        "int acc;
         int step(int x) { acc = acc * 31 + x; return acc; }",
    )
    .expect("stateful guest compiles")
}

const FILE: &str = "state.bin";
const PAYLOAD: &[u8] = b"tenant file, written before the park";

/// A guest whose `put()` writes [`PAYLOAD`] into the protected file
/// [`FILE`] of its preopen and returns the `fd_write` errno.
fn writer_wasm() -> Vec<u8> {
    use ValType::{I32, I64};
    const PAYLOAD_ADDR: i32 = 256;
    const IOV: i32 = 512;
    const OUT_FD: i32 = 640;
    const SCRATCH: i32 = 644;
    let mut b = ModuleBuilder::new();
    let path_open = b.import_func(
        WASI_MODULE,
        "path_open",
        FuncType::new(vec![I32, I32, I32, I32, I32, I64, I64, I32, I32], vec![I32]),
    );
    let fd_write = b.import_func(
        WASI_MODULE,
        "fd_write",
        FuncType::new(vec![I32, I32, I32, I32], vec![I32]),
    );
    b.memory(Limits::at_least(1));
    b.add_data(0, FILE.as_bytes().to_vec());
    b.add_data(PAYLOAD_ADDR, PAYLOAD.to_vec());
    let mut iov = (PAYLOAD_ADDR as u32).to_le_bytes().to_vec();
    iov.extend_from_slice(&(PAYLOAD.len() as u32).to_le_bytes());
    b.add_data(IOV, iov);
    let body = vec![
        Instr::Const(Value::I32(3)), // dirfd: the preopen
        Instr::Const(Value::I32(0)),
        Instr::Const(Value::I32(0)), // path address
        Instr::Const(Value::I32(FILE.len() as i32)),
        Instr::Const(Value::I32(0x1 | 0x8)), // create | trunc
        Instr::Const(Value::I64(-1)),
        Instr::Const(Value::I64(0)),
        Instr::Const(Value::I32(0)),
        Instr::Const(Value::I32(OUT_FD)),
        Instr::Call(path_open),
        Instr::Drop,
        Instr::Const(Value::I32(OUT_FD)),
        Instr::Load(LoadKind::I32, MemArg { offset: 0, align: 2 }),
        Instr::Const(Value::I32(IOV)),
        Instr::Const(Value::I32(1)),
        Instr::Const(Value::I32(SCRATCH)),
        Instr::Call(fd_write),
    ];
    let put = b.add_func(FuncType::new(vec![], vec![I32]), vec![], body);
    b.export_func("put", put);
    encode(&b.build())
}

fn open(svc: &mut TwineService, tenant: Tenant, name: &str, wasm: &[u8]) {
    match tenant {
        Tenant::Wasm { .. } => {
            svc.open_session(name, wasm).expect("open wasm session");
        }
        Tenant::Db => {
            svc.db_open_session(name).expect("open db session");
            svc.db_execute(name, "CREATE TABLE kv(a INTEGER)").expect("ddl");
        }
    }
}

/// One state-changing call whose reply encodes the tenant's whole call
/// history: the guest's accumulator, or the table's row count.
fn call(svc: &mut TwineService, tenant: Tenant, name: &str, x: i32) -> Result<i64, TwineError> {
    match tenant {
        Tenant::Wasm { .. } => {
            let out = svc.invoke(name, "step", &[Value::I32(x)])?;
            Ok(i64::from(out[0].as_i32().expect("step returns i32")))
        }
        Tenant::Db => {
            svc.db_execute(name, &format!("INSERT INTO kv VALUES({x})"))?;
            match svc.db_query(name, "SELECT count(*) FROM kv")?[0][0] {
                SqlValue::Int(n) => Ok(n),
                ref other => panic!("count(*) returned {other:?}"),
            }
        }
    }
}

/// What [`call`] must return after the calls `xs`, in order.
fn expected(tenant: Tenant, xs: &[i32]) -> i64 {
    match tenant {
        Tenant::Wasm { .. } => {
            i64::from(xs.iter().fold(0i32, |acc, &x| acc.wrapping_mul(31).wrapping_add(x)))
        }
        Tenant::Db => xs.len() as i64,
    }
}

/// Row of the contract: a park whose `kind` crossing fails hard returns
/// `Err(Sgx)`, and the session stays live, servable and fully resident.
fn failed_park_leaves_session_live(kind: FaultKind, tenant: Tenant) {
    let mut svc = service_failing(kind, tenant);
    open(&mut svc, tenant, "t", &stateful_wasm());
    assert_eq!(call(&mut svc, tenant, "t", 5).expect("first call"), expected(tenant, &[5]));
    let resident = svc.enclave().epc().resident_pages();

    match svc.park_session("t") {
        Err(TwineError::Sgx(_)) => {}
        other => panic!("{kind:?}/{tenant:?}: park must fail typed, got {other:?}"),
    }
    assert_eq!(svc.session_parked("t"), Some(false), "{kind:?}/{tenant:?}");
    assert_eq!(svc.session_quarantined("t"), Some(false), "{kind:?}/{tenant:?}");
    assert_eq!(
        svc.enclave().epc().resident_pages(),
        resident,
        "{kind:?}/{tenant:?}: a failed park releases nothing"
    );
    let stats = svc.control_stats();
    assert_eq!((stats.live_sessions, stats.parked_sessions), (1, 0), "{kind:?}/{tenant:?}");

    assert_eq!(
        call(&mut svc, tenant, "t", 9).expect("the session is still servable"),
        expected(tenant, &[5, 9]),
        "{kind:?}/{tenant:?}: state survives the failed park"
    );
    let stats = svc.control_stats();
    assert_eq!(stats.parks, stats.restores, "{kind:?}/{tenant:?}: {stats:?}");
    assert_eq!(stats.parks, 0, "{kind:?}/{tenant:?}: {stats:?}");
    assert_eq!(stats.retries, 3, "{kind:?}/{tenant:?}: {stats:?}");
    assert_eq!(stats.quarantines, 0, "{kind:?}/{tenant:?}: {stats:?}");
}

/// Read a whole file back out of a closed session's backend.
fn read_file(backend: &mut dyn twine_wasi::FsBackend, path: &str) -> Vec<u8> {
    let mut f = backend.open(path, false, false).expect("tenant file exists");
    let mut data = vec![0u8; f.size().expect("size") as usize];
    let mut done = 0;
    while done < data.len() {
        let n = f.read(&mut data[done..]).expect("read");
        assert!(n > 0, "short read of {path}");
        done += n;
    }
    data
}

/// Row of the contract: a parked image that cannot be unsealed within the
/// retry budget quarantines its session — and only that session.
fn failed_unseal_quarantines(tenant: Tenant) {
    let mut svc = service_failing(FaultKind::UnsealCorrupt, tenant);
    match tenant {
        Tenant::Wasm { .. } => {
            open(&mut svc, tenant, "t", &writer_wasm());
            assert_eq!(svc.invoke("t", "put", &[]).expect("put")[0], Value::I32(0));
        }
        Tenant::Db => {
            open(&mut svc, tenant, "t", &[]);
            assert_eq!(call(&mut svc, tenant, "t", 5).expect("insert"), 1);
        }
    }
    open(&mut svc, tenant, "peer", &stateful_wasm());
    assert_eq!(call(&mut svc, tenant, "peer", 3).expect("peer"), expected(tenant, &[3]));

    svc.park_session("t").expect("the park itself succeeds");
    assert_eq!(svc.session_parked("t"), Some(true));
    for attempt in 0..2 {
        let reply = match tenant {
            Tenant::Wasm { .. } => svc.invoke("t", "put", &[]).map(|_| ()),
            Tenant::Db => svc.db_query("t", "SELECT count(*) FROM kv").map(|_| ()),
        };
        match reply {
            Err(TwineError::Quarantined { session, .. }) => assert_eq!(session, "t"),
            other => panic!("{tenant:?}: call {attempt} after the park got {other:?}"),
        }
    }
    assert_eq!(svc.session_quarantined("t"), Some(true), "{tenant:?}");
    assert_eq!(svc.session_parked("t"), Some(false), "{tenant:?}: quarantined is not parked");
    let stats = svc.control_stats();
    assert_eq!(stats.quarantines, 1, "{tenant:?}: counted once, not per rejection: {stats:?}");
    assert_eq!(stats.retries, 3, "{tenant:?}: {stats:?}");
    assert_eq!(
        (stats.live_sessions, stats.parked_sessions),
        (1, 0),
        "{tenant:?}: a quarantined session is neither live nor parked: {stats:?}"
    );
    assert_eq!((stats.parks, stats.restores), (1, 0), "{tenant:?}: {stats:?}");
    svc.park_session("t").expect("parking a quarantined session is a no-op");

    // The co-tenant on the same service keeps answering correctly.
    assert_eq!(
        call(&mut svc, tenant, "peer", 4).expect("peer after the quarantine"),
        expected(tenant, &[3, 4]),
        "{tenant:?}"
    );

    // Closing the quarantined session still hands back the tenant's
    // backend: the files were never part of the damaged image.
    match tenant {
        Tenant::Wasm { .. } => {
            let mut backend = svc.close_session("t").expect("close returns the backend");
            assert_eq!(read_file(backend.as_mut(), &format!("/data/{FILE}")), PAYLOAD);
        }
        Tenant::Db => {
            let backend = svc.db_close_session("t").expect("close returns the backend");
            let mut conn = Connection::open(Box::new(BackendVfs::from_shared(backend)), "/data/tenant.db")
                .expect("reopen the tenant database");
            let rows = conn.execute("SELECT a FROM kv").expect("query").rows;
            assert_eq!(rows, vec![vec![SqlValue::Int(5)]]);
        }
    }
    assert_eq!(svc.session_quarantined("t"), None, "closed");
}

#[test]
fn seal_failure_leaves_a_wasm_session_live() {
    failed_park_leaves_session_live(FaultKind::SealFail, Tenant::Wasm { pooled: false });
}

#[test]
fn seal_failure_leaves_a_pooled_wasm_session_live() {
    failed_park_leaves_session_live(FaultKind::SealFail, Tenant::Wasm { pooled: true });
}

#[test]
fn seal_failure_leaves_a_db_session_live() {
    failed_park_leaves_session_live(FaultKind::SealFail, Tenant::Db);
}

#[test]
fn transfer_failure_leaves_a_wasm_session_live() {
    failed_park_leaves_session_live(FaultKind::OcallTransient, Tenant::Wasm { pooled: false });
}

#[test]
fn transfer_failure_leaves_a_pooled_wasm_session_live() {
    failed_park_leaves_session_live(FaultKind::OcallTransient, Tenant::Wasm { pooled: true });
}

#[test]
fn transfer_failure_leaves_a_db_session_live() {
    failed_park_leaves_session_live(FaultKind::OcallTransient, Tenant::Db);
}

#[test]
fn unseal_failure_quarantines_a_wasm_session() {
    failed_unseal_quarantines(Tenant::Wasm { pooled: false });
}

#[test]
fn unseal_failure_quarantines_a_pooled_wasm_session() {
    failed_unseal_quarantines(Tenant::Wasm { pooled: true });
}

#[test]
fn unseal_failure_quarantines_a_db_session() {
    failed_unseal_quarantines(Tenant::Db);
}
