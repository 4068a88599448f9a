//! Figure 4: relative performance of the SQLite Speedtest1 clone —
//! 29 tests × {Native, SGX-LKL, WAMR, Twine} × {memory, file}, normalised
//! to native for each storage class.
//!
//! # `--serve`: the DB-as-a-service axis (DESIGN.md §13)
//!
//! The paper runs Speedtest1 one-shot; the serving plane runs it as
//! **persistent tenant sessions** on [`ShardedService`]: every tenant owns
//! a private protected database (`db_open_session`), statements ride the
//! shard queues (non-query statements batched into `db_execute_batch`
//! round trips, queries individually), warm statement shapes are served
//! from the per-session plan cache, and each tenant is parked and
//! transparently restored mid-workload. The axis sweeps 1→N shards and
//! records, per shard count:
//!
//! * cold open latency per tenant (backend + database initialisation),
//! * warm round-trip p50/p99 per tenant,
//! * statement throughput across the fleet,
//! * the plan-cache hit rate and park/restore counters from
//!   [`ControlStats`](twine_core::ControlStats).
//!
//! Every tenant's final row total is asserted equal to a never-served
//! single-connection oracle running the same seeded workload — the same
//! differential the `db_sessions` test battery proves bit-identically.
//!
//! Results land in `BENCH_fig4.json` at the workspace root (schema in
//! DESIGN.md §13; checked by CI) next to the fig3/fig8 artefacts.

#![forbid(unsafe_code)]

use std::sync::{Arc, Barrier};
use std::time::Instant;

use twine_baselines::{DbStorage, DbVariant, VariantDb};
use twine_bench::{arg_value, has_flag, write_bench_json, write_csv};
use twine_core::{ShardedService, TwineBuilder, TwineError};
use twine_pfs::PfsMode;
use twine_sgx::SgxMode;
use twine_sqldb::speedtest::{integrity_check, test_name, Speedtest, SqlExecutor, TEST_IDS};
use twine_sqldb::value::Row;
use twine_sqldb::{DbError, DbResult};

/// Non-query statements buffered per `db_execute_batch` round trip.
const FLUSH: usize = 64;

fn to_db(e: TwineError) -> DbError {
    DbError::Storage(format!("serve: {e}"))
}

/// [`SqlExecutor`] over the sharded serving plane: one tenant session.
/// Non-query statements are buffered and flushed as a single
/// `db_execute_batch` round trip (transaction state lives in the
/// session's persistent connection, so a BEGIN/COMMIT pair may straddle
/// two batches); queries flush the buffer, then round-trip individually.
struct ServeConn<'a> {
    svc: &'a ShardedService,
    name: &'a str,
    pending: Vec<String>,
    /// Wall microseconds of every shard round trip (the warm latency
    /// samples behind the per-tenant percentiles).
    lat_us: Vec<f64>,
}

impl<'a> ServeConn<'a> {
    fn new(svc: &'a ShardedService, name: &'a str) -> Self {
        Self {
            svc,
            name,
            pending: Vec::new(),
            lat_us: Vec::new(),
        }
    }

    fn round_trip<T>(
        &mut self,
        f: impl FnOnce(&ShardedService) -> Result<T, TwineError>,
    ) -> DbResult<T> {
        let t0 = Instant::now();
        let out = f(self.svc).map_err(to_db);
        self.lat_us.push(t0.elapsed().as_secs_f64() * 1e6);
        out
    }

    fn flush(&mut self) -> DbResult<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let stmts = std::mem::take(&mut self.pending);
        let name = self.name;
        self.round_trip(|svc| svc.db_execute_batch(name, stmts))
            .map(|_| ())
    }
}

impl SqlExecutor for ServeConn<'_> {
    fn execute(&mut self, sql: &str) -> DbResult<()> {
        self.pending.push(sql.to_string());
        if self.pending.len() >= FLUSH {
            self.flush()?;
        }
        Ok(())
    }

    fn query(&mut self, sql: &str) -> DbResult<Vec<Row>> {
        self.flush()?;
        let name = self.name;
        self.round_trip(|svc| svc.db_query(name, sql))
    }

    fn table_names(&mut self) -> DbResult<Vec<String>> {
        self.flush()?;
        let name = self.name;
        self.round_trip(|svc| svc.db_table_names(name))
    }
}

/// `q`-th percentile (nearest-rank) of a sorted sample.
fn pct(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let i = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[i]
}

struct TenantResult {
    name: String,
    total_rows: u64,
    round_trips: usize,
    p50_us: f64,
    p99_us: f64,
}

/// One tenant's warm workload: the full Speedtest1 battery through the
/// serving plane, a park/restore cycle halfway, then repeated identical
/// point queries (the plan-cache warm path) and a full-scan integrity
/// check whose row total the caller compares to the oracle.
fn run_tenant(
    svc: &ShardedService,
    name: &str,
    size: u32,
    point_queries: usize,
) -> TenantResult {
    let mut st = Speedtest::new(size, 42);
    let mut conn = ServeConn::new(svc, name);
    for (i, &id) in TEST_IDS.iter().enumerate() {
        st.run_test(&mut conn, id)
            .unwrap_or_else(|e| panic!("serve tenant {name} test {id}: {e}"));
        if i == TEST_IDS.len() / 2 {
            // Mid-workload eviction: flush at a transaction boundary, park
            // (connection closed, manifest sealed, EPC pages released) —
            // the next statement restores the session transparently.
            conn.flush().expect("flush before park");
            svc.park_session(name).expect("park");
            assert_eq!(svc.session_parked(name), Some(true), "tenant {name} not parked");
        }
    }
    let tables = conn.table_names().expect("table names");
    let point = format!("SELECT count(*) FROM {}", tables[0]);
    for _ in 0..point_queries {
        conn.query(&point).expect("point query");
    }
    let total_rows = integrity_check(&mut conn)
        .unwrap_or_else(|e| panic!("serve tenant {name} integrity check: {e}"));
    conn.flush().expect("final flush");
    let mut lat = conn.lat_us;
    lat.sort_by(|a, b| a.partial_cmp(b).unwrap());
    TenantResult {
        name: name.to_string(),
        total_rows,
        round_trips: lat.len(),
        p50_us: pct(&lat, 0.50),
        p99_us: pct(&lat, 0.99),
    }
}

struct ServePoint {
    shards: usize,
    cold_us: Vec<f64>,
    tenants: Vec<TenantResult>,
    warm_wall_s: f64,
    db_statements: u64,
    stmt_cache_hits: u64,
    stmt_cache_misses: u64,
    parks: u64,
    restores: u64,
}

impl ServePoint {
    fn hit_rate(&self) -> f64 {
        let prepared = self.stmt_cache_hits + self.stmt_cache_misses;
        self.stmt_cache_hits as f64 / prepared.max(1) as f64
    }
    fn throughput(&self) -> f64 {
        self.db_statements as f64 / self.warm_wall_s.max(1e-12)
    }
    fn round_trips(&self) -> usize {
        self.tenants.iter().map(|t| t.round_trips).sum()
    }
}

/// One shard-count sweep point: open `tenants` cold, then drive the warm
/// workloads from one client thread per shard (barrier-gated so the
/// measured wall excludes thread setup), and fold the fleet's control
/// counters.
fn serve_point(
    shards: usize,
    tenants: usize,
    size: u32,
    point_queries: usize,
    oracle_total: u64,
) -> ServePoint {
    let svc = Arc::new(TwineBuilder::new().build_sharded(shards));
    let names: Vec<String> = (0..tenants).map(|i| format!("tenant-{i}")).collect();
    let mut cold_us = Vec::with_capacity(tenants);
    for name in &names {
        let t0 = Instant::now();
        svc.db_open_session(name).expect("open db session");
        cold_us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    let before = svc.control_stats();
    let start = Arc::new(Barrier::new(shards + 1));
    let finish = Arc::new(Barrier::new(shards + 1));
    let handles: Vec<_> = (0..shards)
        .map(|shard| {
            let svc = Arc::clone(&svc);
            let (start, finish) = (Arc::clone(&start), Arc::clone(&finish));
            let mine: Vec<String> = names
                .iter()
                .filter(|n| svc.shard_of(n) == shard)
                .cloned()
                .collect();
            std::thread::spawn(move || {
                start.wait();
                let out: Vec<TenantResult> = mine
                    .iter()
                    .map(|n| run_tenant(&svc, n, size, point_queries))
                    .collect();
                finish.wait();
                out
            })
        })
        .collect();
    start.wait();
    let t0 = Instant::now();
    finish.wait();
    let warm_wall_s = t0.elapsed().as_secs_f64();
    let mut results: Vec<TenantResult> = Vec::with_capacity(tenants);
    for h in handles {
        results.extend(h.join().expect("serve client thread"));
    }
    results.sort_by(|a, b| a.name.cmp(&b.name));
    for t in &results {
        assert_eq!(
            t.total_rows, oracle_total,
            "tenant {} diverged from the single-connection oracle",
            t.name
        );
    }
    let after = svc.control_stats();
    let point = ServePoint {
        shards,
        cold_us,
        tenants: results,
        warm_wall_s,
        db_statements: after.db_statements - before.db_statements,
        stmt_cache_hits: after.stmt_cache_hits - before.stmt_cache_hits,
        stmt_cache_misses: after.stmt_cache_misses - before.stmt_cache_misses,
        parks: after.parks - before.parks,
        restores: after.restores - before.restores,
    };
    // Every tenant parked once mid-workload and was restored on its next
    // statement; the repeated point query must hit the plan cache.
    assert_eq!(point.parks, tenants as u64, "every tenant parks once");
    assert_eq!(point.restores, tenants as u64, "every tenant restores once");
    assert!(point.stmt_cache_hits > 0, "warm statements never hit the plan cache");
    point
}

/// Shard counts swept by `--serve`: powers of two up to `max`, plus `max`.
fn shards_axis(max: usize) -> Vec<usize> {
    let mut axis = Vec::new();
    let mut s = 1;
    while s <= max {
        axis.push(s);
        s *= 2;
    }
    if *axis.last().unwrap() != max {
        axis.push(max);
    }
    axis
}

fn serve_axis_json(
    points: &[ServePoint],
    tenants: usize,
    size: u32,
    point_queries: usize,
) -> String {
    let mut jp = Vec::new();
    for p in points {
        let mut cold = p.cold_us.clone();
        cold.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let jt: Vec<String> = p
            .tenants
            .iter()
            .zip(&p.cold_us)
            .map(|(t, c)| {
                format!(
                    concat!(
                        "        {{\"name\": \"{}\", \"cold_open_us\": {:.1}, ",
                        "\"round_trips\": {}, \"p50_us\": {:.1}, \"p99_us\": {:.1}}}"
                    ),
                    t.name, c, t.round_trips, t.p50_us, t.p99_us
                )
            })
            .collect();
        jp.push(format!(
            concat!(
                "    {{\"shards\": {}, \"cold_open_p50_us\": {:.1}, ",
                "\"cold_open_p99_us\": {:.1}, \"warm_wall_s\": {:.4}, ",
                "\"round_trips\": {}, \"db_statements\": {}, ",
                "\"throughput_stmts_per_s\": {:.1}, ",
                "\"stmt_cache_hits\": {}, \"stmt_cache_misses\": {}, ",
                "\"stmt_cache_hit_rate\": {:.4}, \"parks\": {}, \"restores\": {},\n",
                "      \"tenants\": [\n{}\n      ]}}"
            ),
            p.shards,
            pct(&cold, 0.50),
            pct(&cold, 0.99),
            p.warm_wall_s,
            p.round_trips(),
            p.db_statements,
            p.throughput(),
            p.stmt_cache_hits,
            p.stmt_cache_misses,
            p.hit_rate(),
            p.parks,
            p.restores,
            jt.join(",\n")
        ));
    }
    format!(
        concat!(
            "{{\n    \"tenants\": {}, \"size\": {}, \"point_queries\": {}, ",
            "\"speedtest_tests\": {}, \"oracle_checked\": true,\n",
            "    \"points\": [\n{}\n  ]}}"
        ),
        tenants,
        size,
        point_queries,
        TEST_IDS.len(),
        jp.join(",\n")
    )
}

fn main() {
    let size: u32 = arg_value("--size").and_then(|s| s.parse().ok()).unwrap_or(150);
    println!("Figure 4 — Speedtest1 clone, normalised run time (native = 1), size={size}\n");

    // results[test][variant][storage] = virtual seconds
    let variants = DbVariant::all();
    let storages = [DbStorage::Memory, DbStorage::File];
    let mut seconds = vec![[[0.0f64; 2]; 4]; TEST_IDS.len()];

    for (vi, &variant) in variants.iter().enumerate() {
        for (si, &storage) in storages.iter().enumerate() {
            let mut db = VariantDb::open(variant, storage, SgxMode::Hardware, PfsMode::Intel);
            let mut st = Speedtest::new(size, 42);
            for (ti, &id) in TEST_IDS.iter().enumerate() {
                let (_, report) = db
                    .run(|conn| st.run_test(conn, id))
                    .unwrap_or_else(|e| panic!("{}/{storage:?} test {id}: {e}", variant.label()));
                seconds[ti][vi][si] = report.virtual_seconds;
            }
        }
    }

    println!(
        "{:<5} {:<38} {:>21} {:>21} {:>21}",
        "test", "description", "sgx-lkl (mem/file)", "wamr (mem/file)", "twine (mem/file)"
    );
    let mut rows = Vec::new();
    let mut sums = [[0.0f64; 2]; 4];
    for (ti, &id) in TEST_IDS.iter().enumerate() {
        let native = [seconds[ti][0][0].max(1e-9), seconds[ti][0][1].max(1e-9)];
        let norm = |vi: usize, si: usize| seconds[ti][vi][si] / native[si];
        for (vi, _) in variants.iter().enumerate() {
            sums[vi][0] += norm(vi, 0);
            sums[vi][1] += norm(vi, 1);
        }
        println!(
            "{:<5} {:<38} {:>9.2}/{:<9.2} {:>9.2}/{:<9.2} {:>9.2}/{:<9.2}",
            id,
            test_name(id),
            norm(1, 0),
            norm(1, 1),
            norm(2, 0),
            norm(2, 1),
            norm(3, 0),
            norm(3, 1),
        );
        rows.push(format!(
            "{id},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4}",
            norm(0, 0),
            norm(0, 1),
            norm(1, 0),
            norm(1, 1),
            norm(2, 0),
            norm(2, 1),
            norm(3, 0),
            norm(3, 1),
        ));
    }
    let n = TEST_IDS.len() as f64;
    println!(
        "\naverages vs native:  sgx-lkl mem {:.2}x file {:.2}x | wamr mem {:.2}x file {:.2}x | twine mem {:.2}x file {:.2}x",
        sums[1][0] / n,
        sums[1][1] / n,
        sums[2][0] / n,
        sums[2][1] / n,
        sums[3][0] / n,
        sums[3][1] / n,
    );
    println!(
        "paper: wamr ~4.1x mem / ~3.7x file; twine/wamr ~1.7x mem / ~1.9x file \
         (here: {:.2}x / {:.2}x)",
        sums[3][0] / sums[2][0],
        sums[3][1] / sums[2][1],
    );
    write_csv(
        "fig4_speedtest.csv",
        "test,native_mem,native_file,sgxlkl_mem,sgxlkl_file,wamr_mem,wamr_file,twine_mem,twine_file",
        &rows,
    );

    // ------------------------------------------------------------------
    // --serve: Speedtest1 as persistent tenant DB sessions (DESIGN.md §13)
    // ------------------------------------------------------------------
    let serve_json = if has_flag("--serve") {
        let tenants: usize = arg_value("--tenants")
            .and_then(|s| s.parse().ok())
            .unwrap_or(8)
            .max(1);
        let max_shards: usize = arg_value("--serve-shards")
            .and_then(|s| s.parse().ok())
            .unwrap_or(4)
            .max(1);
        let serve_size: u32 = arg_value("--serve-size")
            .and_then(|s| s.parse().ok())
            .unwrap_or(25)
            .max(1);
        let point_queries: usize = arg_value("--point-queries")
            .and_then(|s| s.parse().ok())
            .unwrap_or(32);

        // Never-served oracle: one direct connection, same seeded
        // workload — every tenant's final row total must match it.
        let mut oracle = VariantDb::open(
            DbVariant::Twine,
            DbStorage::File,
            SgxMode::Hardware,
            PfsMode::Intel,
        );
        let mut st = Speedtest::new(serve_size, 42);
        for &id in &TEST_IDS {
            oracle
                .run(|conn| st.run_test(conn, id))
                .unwrap_or_else(|e| panic!("oracle test {id}: {e}"));
        }
        let (oracle_total, _) = oracle.run(integrity_check).expect("oracle integrity");

        println!(
            "\n--serve: {tenants} tenants × Speedtest1(size={serve_size}) as persistent DB \
             sessions, {point_queries} point queries, park/restore mid-workload\n"
        );
        println!(
            "{:>6} {:>14} {:>14} {:>12} {:>12} {:>12} {:>10}",
            "shards", "cold p50 (us)", "warm p50 (us)", "p99 (us)", "stmts/s", "hit rate", "parks"
        );
        let mut serve_rows = Vec::new();
        let mut points = Vec::new();
        for shards in shards_axis(max_shards) {
            let p = serve_point(shards, tenants, serve_size, point_queries, oracle_total);
            let mut cold = p.cold_us.clone();
            cold.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let mut warm: Vec<f64> = Vec::new();
            for t in &p.tenants {
                warm.push(t.p50_us);
            }
            warm.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let p99 = p
                .tenants
                .iter()
                .map(|t| t.p99_us)
                .fold(0.0f64, f64::max);
            println!(
                "{:>6} {:>14.1} {:>14.1} {:>12.1} {:>12.1} {:>9.1}% {:>10}",
                p.shards,
                pct(&cold, 0.50),
                pct(&warm, 0.50),
                p99,
                p.throughput(),
                p.hit_rate() * 100.0,
                p.parks,
            );
            serve_rows.push(format!(
                "{},{},{:.1},{:.1},{:.1},{:.1},{:.4},{},{}",
                p.shards,
                tenants,
                pct(&cold, 0.50),
                pct(&warm, 0.50),
                p99,
                p.throughput(),
                p.hit_rate(),
                p.parks,
                p.restores,
            ));
            points.push(p);
        }
        println!(
            "\nall {} tenants bit-identical to the single-connection oracle at every shard count",
            tenants
        );
        write_csv(
            "fig4_serve.csv",
            "shards,tenants,cold_open_p50_us,warm_p50_us,warm_p99_us,throughput_stmts_per_s,stmt_cache_hit_rate,parks,restores",
            &serve_rows,
        );
        serve_axis_json(&points, tenants, serve_size, point_queries)
    } else {
        "null".to_string()
    };

    write_bench_json(
        "BENCH_fig4.json",
        &format!(
            concat!(
                "{{\n  \"bench\": \"fig4_speedtest\",\n  \"size\": {},\n",
                "  \"avg_vs_native\": {{\"sgxlkl_mem\": {:.4}, \"sgxlkl_file\": {:.4}, ",
                "\"wamr_mem\": {:.4}, \"wamr_file\": {:.4}, ",
                "\"twine_mem\": {:.4}, \"twine_file\": {:.4}}},\n",
                "  \"twine_over_wamr\": {{\"mem\": {:.4}, \"file\": {:.4}}},\n",
                "  \"serve_axis\": {}\n}}\n"
            ),
            size,
            sums[1][0] / n,
            sums[1][1] / n,
            sums[2][0] / n,
            sums[2][1] / n,
            sums[3][0] / n,
            sums[3][1] / n,
            sums[3][0] / sums[2][0],
            sums[3][1] / sums[2][1],
            serve_json
        ),
    );
}
