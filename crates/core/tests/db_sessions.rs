//! DB-as-a-service battery (DESIGN.md §13): multi-tenant isolation and
//! the churn differential for tenant database sessions.
//!
//! Two properties, mirroring what `churn.rs`/`chaos.rs` prove for Wasm
//! sessions:
//!
//! * **Isolation** — a tenant's session can never observe another
//!   tenant's rows or files: every session owns a private protected
//!   backend, and the database file inside it is invisible to every
//!   other session (checked at the SQL surface *and* at the backend
//!   file level).
//! * **Churn differential** — a deterministic multi-tenant SQL workload
//!   driven through [`ShardedService`] under a live-session budget of 1
//!   (so every statement may evict someone, and parked sessions restore
//!   transparently mid-workload) replays **bit-identically** to an
//!   unbounded single-threaded oracle, at 1/4/8 shards, with and
//!   without the chaos fault plan armed at every trust-boundary
//!   crossing.
//!
//! Plus write transactions — one costs a pinned number of OCALLs, and a
//! rolled-back one leaves no trace, also across a park — and crash
//! recovery: a durably-parked DB session survives a simulated enclave
//! restart through [`TwineService::recover`] with its rows intact.

use std::sync::Arc;

use twine_core::{
    ControlPlane, ControlStats, DurableParkStore, ShardedService, TwineBuilder, TwineService,
};
use twine_sgx::{FaultConfig, FaultPlan, Processor};
use twine_sqldb::backend_vfs::BackendVfs;
use twine_sqldb::value::{Row, SqlValue};
use twine_sqldb::Connection;

/// The chaos battery's seeded fault plan (the fig8 CI seed).
const FAULT_SEED: u64 = 20_260_808;

// ---------------------------------------------------------------------
// Deterministic multi-tenant workload plan
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Op {
    Exec(String),
    Batch(Vec<String>),
    Query(String),
    Park,
}

/// One guest-visible outcome; the differential compares these streams.
#[derive(Debug, Clone, PartialEq)]
enum Event {
    Affected(u64),
    Rows(Vec<Row>),
    Parked,
}

struct Plan {
    tenants: Vec<String>,
    /// `(tenant index, op)` in oracle order; per-tenant order is what the
    /// sharded clients preserve.
    ops: Vec<(usize, Op)>,
}

/// A mixed deterministic workload: autocommitted inserts, explicit
/// BEGIN/COMMIT transaction batches, range and aggregate queries, and
/// explicit parks — interleaved round-robin across tenants.
fn build_plan(tenants: usize, rounds: usize) -> Plan {
    let names: Vec<String> = (0..tenants).map(|i| format!("db-{i}")).collect();
    let mut ops = Vec::new();
    for i in 0..tenants {
        ops.push((
            i,
            Op::Exec("CREATE TABLE kv(a INTEGER, b INTEGER, c TEXT)".into()),
        ));
    }
    for j in 0..rounds {
        for i in 0..tenants {
            let op = match (i * 7 + j * 3) % 8 {
                0..=2 => Op::Exec(format!(
                    "INSERT INTO kv VALUES({j}, {}, 'v{i}_{j}')",
                    i as i64 * 1000 + j as i64
                )),
                3 => Op::Batch(vec![
                    "BEGIN".into(),
                    format!("INSERT INTO kv VALUES({}, {i}, 'tx{i}_{j}')", 100_000 + j),
                    format!("UPDATE kv SET b = b + 1 WHERE a = {j}"),
                    "COMMIT".into(),
                ]),
                4..=5 => Op::Query(format!("SELECT a, b, c FROM kv WHERE a <= {j}")),
                6 => Op::Query("SELECT count(*) FROM kv".into()),
                _ => Op::Park,
            };
            ops.push((i, op));
        }
    }
    Plan {
        tenants: names,
        ops,
    }
}

fn apply_single(svc: &mut TwineService, name: &str, op: &Op) -> Event {
    match op {
        Op::Exec(sql) => Event::Affected(svc.db_execute(name, sql).expect("oracle exec")),
        Op::Batch(stmts) => {
            Event::Affected(svc.db_execute_batch(name, stmts).expect("oracle batch"))
        }
        Op::Query(sql) => Event::Rows(svc.db_query(name, sql).expect("oracle query")),
        Op::Park => {
            svc.park_session(name).expect("oracle park");
            Event::Parked
        }
    }
}

fn apply_sharded(svc: &ShardedService, name: &str, op: &Op) -> Event {
    match op {
        Op::Exec(sql) => Event::Affected(svc.db_execute(name, sql).expect("sharded exec")),
        Op::Batch(stmts) => Event::Affected(
            svc.db_execute_batch(name, stmts.clone())
                .expect("sharded batch"),
        ),
        Op::Query(sql) => Event::Rows(svc.db_query(name, sql).expect("sharded query")),
        Op::Park => {
            svc.park_session(name).expect("sharded park");
            Event::Parked
        }
    }
}

/// The unbounded, unfaulted, single-threaded oracle.
fn run_oracle(plan: &Plan) -> Vec<Vec<Event>> {
    let mut svc = TwineBuilder::new().build_service();
    let mut seqs: Vec<Vec<Event>> = vec![Vec::new(); plan.tenants.len()];
    for name in &plan.tenants {
        svc.db_open_session(name).expect("oracle open");
    }
    for (i, op) in &plan.ops {
        seqs[*i].push(apply_single(&mut svc, &plan.tenants[*i], op));
    }
    seqs
}

/// Drive the plan through a sharded fleet under a live-session budget of
/// 1 (maximal eviction churn), from `clients` threads owning disjoint
/// tenant subsets, optionally with the chaos fault plan armed.
fn run_sharded_churn(
    plan: &Plan,
    shards: usize,
    clients: usize,
    fault_seed: Option<u64>,
) -> (Vec<Vec<Event>>, ControlStats) {
    let control = ControlPlane {
        max_live_sessions: Some(1),
        ..ControlPlane::default()
    };
    let mut builder = TwineBuilder::new().control_plane(control);
    if let Some(seed) = fault_seed {
        builder = builder.faults(Arc::new(FaultPlan::new(FaultConfig::chaos(seed))));
    }
    let svc = Arc::new(builder.build_sharded(shards));
    for name in &plan.tenants {
        svc.db_open_session(name).expect("sharded open");
    }
    let mut handles = Vec::new();
    for c in 0..clients {
        let svc = Arc::clone(&svc);
        let mine: Vec<usize> = (0..plan.tenants.len()).filter(|i| i % clients == c).collect();
        let ops: Vec<(usize, Op)> = plan
            .ops
            .iter()
            .filter(|(i, _)| mine.contains(i))
            .cloned()
            .collect();
        let tenants = plan.tenants.clone();
        handles.push(std::thread::spawn(move || {
            let mut seqs: Vec<(usize, Vec<Event>)> =
                mine.iter().map(|&i| (i, Vec::new())).collect();
            let at = |i: usize| mine.iter().position(|&m| m == i).expect("own tenant");
            for (i, op) in &ops {
                let ev = apply_sharded(&svc, &tenants[*i], op);
                seqs[at(*i)].1.push(ev);
            }
            seqs
        }));
    }
    let mut seqs: Vec<Vec<Event>> = vec![Vec::new(); plan.tenants.len()];
    for h in handles {
        for (i, seq) in h.join().expect("client thread") {
            seqs[i] = seq;
        }
    }
    let stats = svc.control_stats();
    (seqs, stats)
}

fn assert_churn_matches(shards: usize, clients: usize, fault_seed: Option<u64>) -> ControlStats {
    // Enough tenants that every shard holds several DB sessions — the
    // eviction budget of 1 then forces continuous park/restore churn.
    let tenants = (2 * shards).max(6);
    let plan = build_plan(tenants, 12);
    let (churned, stats) = run_sharded_churn(&plan, shards, clients, fault_seed);
    let oracle = run_oracle(&plan);
    for (i, name) in plan.tenants.iter().enumerate() {
        assert_eq!(
            churned[i], oracle[i],
            "per-tenant SQL stream diverged for {name} \
             ({shards} shards, eviction budget 1, faults {fault_seed:?})"
        );
    }
    assert!(
        stats.parks > tenants as u64,
        "budget-1 churn must evict beyond the explicit parks: {stats:?}"
    );
    assert!(stats.restores > 0, "parked sessions must restore: {stats:?}");
    // Note: under an eviction budget of 1 nearly every statement follows
    // a park that closed the connection — and with it its plan cache — so
    // cache hits are *not* asserted here (the cache's warm-path behaviour
    // is covered by `stmt_cache_stats_survive_park_and_restore`).
    assert_eq!(stats.quarantines, 0, "no session may be damaged: {stats:?}");
    stats
}

// ---------------------------------------------------------------------
// Churn differentials (1 / 4 / 8 shards, then under the fault seed)
// ---------------------------------------------------------------------

#[test]
fn db_churn_single_shard_is_bit_identical() {
    assert_churn_matches(1, 1, None);
}

#[test]
fn db_churn_four_shards_is_bit_identical() {
    assert_churn_matches(4, 3, None);
}

#[test]
fn db_churn_eight_shards_is_bit_identical() {
    assert_churn_matches(8, 4, None);
}

#[test]
fn db_churn_under_chaos_faults_is_bit_identical() {
    let stats = assert_churn_matches(4, 3, Some(FAULT_SEED));
    assert!(
        stats.faults_injected > 0,
        "the seeded chaos schedule must actually fire: {stats:?}"
    );
    assert!(
        stats.retries > 0,
        "transient faults must be absorbed by retries: {stats:?}"
    );
}

// ---------------------------------------------------------------------
// Multi-tenant isolation
// ---------------------------------------------------------------------

/// Tenant A's statements can never observe tenant B's rows — at the SQL
/// surface (B's tables don't exist for A) and at the file level (each
/// session's database lives in its own private backend).
#[test]
fn tenants_never_observe_each_other() {
    let mut svc = TwineBuilder::new().build_service();
    svc.db_open_session("alice").expect("open alice");
    svc.db_open_session("bob").expect("open bob");

    svc.db_execute("alice", "CREATE TABLE secret(x INTEGER)").expect("ddl");
    svc.db_execute_batch(
        "alice",
        &[
            "BEGIN".into(),
            "INSERT INTO secret VALUES(1)".into(),
            "INSERT INTO secret VALUES(2)".into(),
            "COMMIT".into(),
        ],
    )
    .expect("alice insert");

    // Bob's namespace has no `secret` table at all — Alice's schema is
    // invisible, not merely empty.
    assert!(
        svc.db_query("bob", "SELECT x FROM secret").is_err(),
        "bob must not see alice's table"
    );

    // Same-named tables are fully independent.
    svc.db_execute("bob", "CREATE TABLE secret(x INTEGER)").expect("ddl");
    svc.db_execute("bob", "INSERT INTO secret VALUES(99)").expect("bob insert");
    let bob = svc.db_query("bob", "SELECT x FROM secret").expect("bob query");
    assert_eq!(bob, vec![vec![SqlValue::Int(99)]]);
    let alice = svc.db_query("alice", "SELECT x FROM secret").expect("alice query");
    assert_eq!(alice, vec![vec![SqlValue::Int(1)], vec![SqlValue::Int(2)]]);

    // Parking Alice (sealing her database out of the enclave) leaves Bob
    // untouched, and Alice restores to exactly her own rows.
    svc.park_session("alice").expect("park alice");
    assert_eq!(svc.session_parked("alice"), Some(true));
    let bob = svc.db_query("bob", "SELECT x FROM secret").expect("bob query");
    assert_eq!(bob, vec![vec![SqlValue::Int(99)]]);
    let alice = svc.db_query("alice", "SELECT x FROM secret").expect("alice restore");
    assert_eq!(alice, vec![vec![SqlValue::Int(1)], vec![SqlValue::Int(2)]]);

    // File level: each tenant's database is a different file in a
    // different private backend — reopening each returned backend shows
    // only that tenant's rows.
    let alice_backend = svc.db_close_session("alice").expect("close alice");
    let bob_backend = svc.db_close_session("bob").expect("close bob");
    for (backend, want) in [
        (alice_backend, vec![vec![SqlValue::Int(1)], vec![SqlValue::Int(2)]]),
        (bob_backend, vec![vec![SqlValue::Int(99)]]),
    ] {
        let vfs = BackendVfs::from_shared(backend);
        let mut conn =
            Connection::open(Box::new(vfs), "/data/tenant.db").expect("reopen backend");
        let rows = conn.execute("SELECT x FROM secret").expect("reopen query").rows;
        assert_eq!(rows, want, "backend carries exactly its own tenant's rows");
    }
}

/// DB sessions share the Wasm sessions' name space: a name collision is
/// rejected in both directions.
#[test]
fn db_and_wasm_sessions_share_a_namespace() {
    let wasm = twine_minicc::compile_to_bytes("int f(int x) { return x + 1; }").unwrap();
    let mut svc = TwineBuilder::new().build_service();
    svc.open_session("t", &wasm).expect("wasm open");
    assert!(svc.db_open_session("t").is_err(), "db open must collide");
    svc.db_open_session("u").expect("db open");
    assert!(svc.open_session("u", &wasm).is_err(), "wasm open must collide");
}

// ---------------------------------------------------------------------
// Plan-cache counters across the session lifecycle
// ---------------------------------------------------------------------

/// Per-session plan-cache counters accumulate across park/restore cycles
/// (the park folds the closed connection's counters into the session).
#[test]
fn stmt_cache_stats_survive_park_and_restore() {
    let mut svc = TwineBuilder::new().build_service();
    svc.db_open_session("t").expect("open");
    svc.db_execute("t", "CREATE TABLE kv(a INTEGER)").expect("ddl");
    for _ in 0..5 {
        svc.db_query("t", "SELECT count(*) FROM kv").expect("query");
    }
    let before = svc.db_stmt_cache_stats("t").expect("stats");
    assert!(before.hits >= 4, "repeated text must hit: {before:?}");

    svc.park_session("t").expect("park");
    let parked = svc.db_stmt_cache_stats("t").expect("stats while parked");
    assert_eq!(parked.hits, before.hits, "folded counters survive the park");

    svc.db_query("t", "SELECT count(*) FROM kv").expect("restore query");
    let after = svc.db_stmt_cache_stats("t").expect("stats after restore");
    assert!(
        after.hits + after.misses > parked.hits + parked.misses,
        "post-restore statements keep accumulating: {after:?}"
    );
    let control = svc.control_stats();
    assert!(control.db_statements > 0);
    assert!(control.stmt_cache_hits >= before.hits);
}

// ---------------------------------------------------------------------
// A restored session is an ordinary live session
// ---------------------------------------------------------------------

/// A point read costs the same after a park + restore as before the first
/// park. It did not while DB sessions had a lifecycle of their own: a
/// restored session kept its sealed park manifest, and every later
/// statement cloned it — 2 MB here — before running (4.4 µs → 222 µs per
/// read in a release build, a ratio of 50). A live slot of the shared
/// session table has no sealed image to clone.
#[test]
fn point_reads_cost_the_same_after_park_and_restore() {
    const ROWS: usize = 2_000;
    let mut svc = TwineBuilder::new().build_service();
    svc.db_open_session("t").expect("open");
    svc.db_execute("t", "CREATE TABLE kv(k INTEGER PRIMARY KEY, v TEXT)").expect("ddl");
    // 2 000 rows × 900 B: a 2 MB table, and so a 2 MB park manifest.
    let filler = "x".repeat(900);
    let mut load = vec!["BEGIN".to_string()];
    load.extend((0..ROWS).map(|k| format!("INSERT INTO kv VALUES({k}, '{filler}')")));
    load.push("COMMIT".to_string());
    svc.db_execute_batch("t", &load).expect("load");

    // Best of five passes of 2 000 point reads, in nanoseconds.
    let read_pass = |svc: &mut TwineService| {
        (0..5)
            .map(|_| {
                let start = std::time::Instant::now();
                for k in 0..ROWS {
                    let key = (k * 7) % ROWS;
                    let rows = svc
                        .db_query("t", &format!("SELECT k FROM kv WHERE k = {key}"))
                        .expect("point read");
                    assert_eq!(rows, vec![vec![SqlValue::Int(key as i64)]]);
                }
                start.elapsed().as_nanos()
            })
            .min()
            .expect("five passes")
    };
    let never_parked = read_pass(&mut svc);
    svc.park_session("t").expect("park");
    let restored = read_pass(&mut svc);
    let stats = svc.control_stats();
    assert_eq!((stats.parks, stats.restores), (1, 1), "{stats:?}");
    assert!(
        restored <= never_parked * 5,
        "2 000 point reads took {never_parked} ns before the first park \
         and {restored} ns after a restore"
    );
}

// ---------------------------------------------------------------------
// Write transactions: boundary cost and rollback
// ---------------------------------------------------------------------

/// Rows in the write-transaction tests' table.
const ROWS: i64 = 200;

/// A session `t` holding `kv(a INTEGER PRIMARY KEY, tag TEXT, b TEXT)`
/// with a unique index on `tag` and rows `0..ROWS` of about a kilobyte
/// each — the shape of `twine_bench`'s `sql_write`, smaller.
fn write_session() -> TwineService {
    let mut svc = TwineBuilder::new().build_service();
    svc.db_open_session("t").expect("open");
    svc.db_execute_batch(
        "t",
        &[
            "CREATE TABLE kv(a INTEGER PRIMARY KEY, tag TEXT, b TEXT)".into(),
            "CREATE UNIQUE INDEX kv_tag ON kv(tag)".into(),
        ],
    )
    .expect("ddl");
    let rows: Vec<String> = (0..ROWS).map(row_values).collect();
    for chunk in rows.chunks(25) {
        svc.db_execute("t", &format!("INSERT INTO kv VALUES {}", chunk.join(", ")))
            .expect("populate");
    }
    svc
}

/// The `VALUES` tuple of row `a`.
fn row_values(a: i64) -> String {
    format!("({a}, 't{a}', '{a:04}{}')", "x".repeat(1000))
}

/// `count(*)`/`min`/`max` of `kv`, then a sample of full rows.
fn table_state(svc: &mut TwineService) -> Vec<Row> {
    let mut state = svc
        .db_query("t", "SELECT count(*), min(a), max(a) FROM kv")
        .expect("shape");
    for a in [0, 1, 37, 100, 150, ROWS - 1] {
        state.extend(
            svc.db_query("t", &format!("SELECT a, tag, b FROM kv WHERE a = {a}"))
                .expect("sample"),
        );
    }
    state
}

/// One `sql_write`-shaped transaction on the 200-row table.
fn write_transaction() -> Vec<String> {
    vec![
        "BEGIN".into(),
        format!("UPDATE kv SET b = '{}' WHERE a = 100", "y".repeat(1000)),
        format!("INSERT INTO kv VALUES {}", row_values(ROWS)),
        "DELETE FROM kv WHERE a = 0".into(),
        "COMMIT".into(),
    ]
}

/// One write transaction costs exactly this many OCALLs: the protected
/// file system moves the database's nodes across the boundary — the dirty
/// data nodes, their Merkle path and the meta node sealed once at the
/// commit, plus whatever its node cache misses on the way — one OCALL per
/// node. Merkle nodes stay resident once verified, and a page the pager
/// writes whole is not read first (that took 13 to 11). The rollback
/// journal lives in enclave memory and costs none. Any change to how many
/// nodes a transaction reads or seals moves this number.
#[test]
fn write_transaction_ocalls_are_pinned() {
    let mut svc = write_session();
    let before = svc.enclave().stats().ocalls;
    let affected = svc.db_execute_batch("t", &write_transaction()).expect("transaction");
    let ocalls = svc.enclave().stats().ocalls - before;
    assert_eq!(affected, 3);
    assert_eq!(ocalls, 11, "OCALLs for one write transaction");
    let shape = svc.db_query("t", "SELECT count(*), min(a), max(a) FROM kv").expect("shape");
    assert_eq!(shape, vec![vec![SqlValue::Int(ROWS), SqlValue::Int(1), SqlValue::Int(ROWS)]]);
}

/// A rolled-back transaction leaves no trace — neither an explicit
/// `ROLLBACK` nor a multi-row `INSERT` whose last row violates a unique
/// index — in the rows read back, and none after a park/restore cycle
/// either (the park images the backend, so undone pages must not have
/// reached it).
#[test]
fn rollbacks_leave_no_trace() {
    let mut svc = write_session();
    let pre = table_state(&mut svc);

    let mut rolled_back = write_transaction();
    *rolled_back.last_mut().expect("COMMIT") = "ROLLBACK".into();
    svc.db_execute_batch("t", &rolled_back).expect("rolled-back transaction");
    assert_eq!(table_state(&mut svc), pre, "explicit ROLLBACK");

    let clash = format!(
        "INSERT INTO kv VALUES {}, {}, (999, 't37', 'clash')",
        row_values(ROWS),
        row_values(ROWS + 1)
    );
    let err = svc.db_execute("t", &clash).expect_err("the last row violates kv_tag");
    assert!(err.to_string().contains("constraint"), "{err}");
    assert_eq!(table_state(&mut svc), pre, "failed multi-row INSERT");

    svc.park_session("t").expect("park");
    assert_eq!(svc.session_parked("t"), Some(true));
    assert_eq!(table_state(&mut svc), pre, "after park and restore");

    // Nothing is left half-done: the rolled-back transaction now commits.
    svc.db_execute_batch("t", &write_transaction()).expect("transaction");
    let shape = svc.db_query("t", "SELECT count(*), min(a), max(a) FROM kv").expect("shape");
    assert_eq!(shape, vec![vec![SqlValue::Int(ROWS), SqlValue::Int(1), SqlValue::Int(ROWS)]]);
}

// ---------------------------------------------------------------------
// Crash recovery for durably-parked DB sessions
// ---------------------------------------------------------------------

/// A durably-parked DB session survives a simulated enclave crash: the
/// revived service rebuilds the tenant's protected backend from the
/// sealed manifest and its first statement serves exactly the parked
/// rows.
#[test]
fn durable_db_park_recovers_after_crash() {
    let store = DurableParkStore::new();
    let processor = Processor::new(21);
    let control = ControlPlane {
        durable_parks: Some(store.clone()),
        ..ControlPlane::default()
    };

    let mut svc = TwineBuilder::new()
        .processor(processor.clone())
        .control_plane(control.clone())
        .build_service();
    svc.db_open_session("t").expect("open");
    svc.db_execute("t", "CREATE TABLE kv(a INTEGER, c TEXT)").expect("ddl");
    svc.db_execute_batch(
        "t",
        &[
            "BEGIN".into(),
            "INSERT INTO kv VALUES(1, 'one')".into(),
            "INSERT INTO kv VALUES(2, 'two')".into(),
            "COMMIT".into(),
        ],
    )
    .expect("insert");
    svc.park_session("t").expect("park");
    assert_eq!(store.record_count(), 1, "the park wrote a durable record");

    // Crash: only the processor and the untrusted record store survive.
    drop(svc);

    let mut revived = TwineBuilder::new()
        .processor(processor)
        .control_plane(control)
        .build_service();
    let recovered = revived.recover().expect("recovery succeeds");
    assert_eq!(recovered, vec!["t".to_string()]);
    assert_eq!(revived.control_stats().recovered_sessions, 1);
    assert_eq!(revived.session_parked("t"), Some(true));
    let rows = revived.db_query("t", "SELECT a, c FROM kv").expect("query after recover");
    assert_eq!(
        rows,
        vec![
            vec![SqlValue::Int(1), SqlValue::Text("one".into())],
            vec![SqlValue::Int(2), SqlValue::Text("two".into())],
        ]
    );
    // The recovered session is a full citizen: it parks durably again.
    revived.park_session("t").expect("re-park");
    assert_eq!(store.record_count(), 1);
    // recover() is idempotent for sessions that are already admitted.
    assert_eq!(revived.recover().expect("second recovery"), Vec::<String>::new());
}
