//! End-to-end SQL engine tests through the public `Connection` API.

use twine_sqldb::{Connection, DbError, MemVfs, SqlValue};

fn mem() -> Connection {
    Connection::open_memory()
}

fn ints(rows: &[Vec<SqlValue>]) -> Vec<i64> {
    rows.iter().map(|r| r[0].as_i64().unwrap()).collect()
}

#[test]
fn create_insert_select() {
    let mut db = mem();
    db.execute("CREATE TABLE t(a INTEGER PRIMARY KEY, b TEXT)").unwrap();
    db.execute("INSERT INTO t VALUES (1, 'one'), (2, 'two'), (3, 'three')").unwrap();
    let rows = db.query("SELECT b FROM t WHERE a = 2").unwrap();
    assert_eq!(rows, vec![vec![SqlValue::Text("two".into())]]);
    let n = db.query_scalar("SELECT count(*) FROM t").unwrap();
    assert_eq!(n, SqlValue::Int(3));
}

#[test]
fn auto_rowid_assignment() {
    let mut db = mem();
    db.execute("CREATE TABLE t(a INTEGER PRIMARY KEY, b TEXT)").unwrap();
    db.execute("INSERT INTO t(b) VALUES ('x')").unwrap();
    db.execute("INSERT INTO t(b) VALUES ('y')").unwrap();
    db.execute("INSERT INTO t VALUES (10, 'z')").unwrap();
    db.execute("INSERT INTO t(b) VALUES ('w')").unwrap();
    let rows = db.query("SELECT a FROM t ORDER BY a").unwrap();
    assert_eq!(ints(&rows), vec![1, 2, 10, 11]);
}

#[test]
fn primary_key_constraint() {
    let mut db = mem();
    db.execute("CREATE TABLE t(a INTEGER PRIMARY KEY, b TEXT)").unwrap();
    db.execute("INSERT INTO t VALUES (1, 'x')").unwrap();
    let e = db.execute("INSERT INTO t VALUES (1, 'y')");
    assert!(matches!(e, Err(DbError::Constraint(_))));
    // Failed autocommit statement must not leave partial state.
    assert_eq!(db.query_scalar("SELECT count(*) FROM t").unwrap(), SqlValue::Int(1));
}

#[test]
fn unique_index_constraint() {
    let mut db = mem();
    db.execute("CREATE TABLE t(a INTEGER PRIMARY KEY, b TEXT)").unwrap();
    db.execute("CREATE UNIQUE INDEX tb ON t(b)").unwrap();
    db.execute("INSERT INTO t VALUES (1, 'x')").unwrap();
    assert!(matches!(
        db.execute("INSERT INTO t VALUES (2, 'x')"),
        Err(DbError::Constraint(_))
    ));
    db.execute("INSERT INTO t VALUES (2, 'y')").unwrap();
    // NULLs do not collide.
    db.execute("INSERT INTO t(b) VALUES (NULL)").unwrap();
    db.execute("INSERT INTO t(b) VALUES (NULL)").unwrap();
}

#[test]
fn where_filters_and_expressions() {
    let mut db = mem();
    db.execute("CREATE TABLE t(a INTEGER PRIMARY KEY, b INTEGER, c TEXT)").unwrap();
    db.execute("BEGIN").unwrap();
    for i in 0..100 {
        db.execute(&format!("INSERT INTO t VALUES ({i}, {}, 'row{i}')", i * 10)).unwrap();
    }
    db.execute("COMMIT").unwrap();
    assert_eq!(
        db.query_scalar("SELECT count(*) FROM t WHERE b BETWEEN 100 AND 200").unwrap(),
        SqlValue::Int(11)
    );
    assert_eq!(
        db.query_scalar("SELECT count(*) FROM t WHERE c LIKE 'row1%'").unwrap(),
        SqlValue::Int(11) // row1, row10..row19
    );
    assert_eq!(
        db.query_scalar("SELECT count(*) FROM t WHERE a IN (1, 5, 500)").unwrap(),
        SqlValue::Int(2)
    );
    // b = a*10 > 500 → a in 51..=99; odd a's: 51, 53, …, 99 → 25 rows.
    assert_eq!(
        db.query_scalar("SELECT count(*) FROM t WHERE b > 500 AND NOT (a % 2 = 0)").unwrap(),
        SqlValue::Int(25)
    );
}

#[test]
fn order_by_limit_offset() {
    let mut db = mem();
    db.execute("CREATE TABLE t(a INTEGER PRIMARY KEY, b INTEGER)").unwrap();
    for (a, b) in [(1, 30), (2, 10), (3, 20), (4, 40)] {
        db.execute(&format!("INSERT INTO t VALUES ({a}, {b})")).unwrap();
    }
    let rows = db.query("SELECT a FROM t ORDER BY b").unwrap();
    assert_eq!(ints(&rows), vec![2, 3, 1, 4]);
    let rows = db.query("SELECT a FROM t ORDER BY b DESC LIMIT 2").unwrap();
    assert_eq!(ints(&rows), vec![4, 1]);
    let rows = db.query("SELECT a FROM t ORDER BY b LIMIT 2 OFFSET 1").unwrap();
    assert_eq!(ints(&rows), vec![3, 1]);
}

#[test]
fn aggregates_and_group_by() {
    let mut db = mem();
    db.execute("CREATE TABLE t(a INTEGER PRIMARY KEY, grp INTEGER, v INTEGER)").unwrap();
    db.execute("BEGIN").unwrap();
    for i in 0..30 {
        db.execute(&format!("INSERT INTO t VALUES ({i}, {}, {i})", i % 3)).unwrap();
    }
    db.execute("COMMIT").unwrap();
    assert_eq!(db.query_scalar("SELECT sum(v) FROM t").unwrap(), SqlValue::Int(435));
    assert_eq!(db.query_scalar("SELECT avg(v) FROM t").unwrap(), SqlValue::Real(14.5));
    assert_eq!(db.query_scalar("SELECT min(v) FROM t").unwrap(), SqlValue::Int(0));
    assert_eq!(db.query_scalar("SELECT max(v) FROM t").unwrap(), SqlValue::Int(29));
    let rows = db
        .query("SELECT grp, count(*), sum(v) FROM t GROUP BY grp ORDER BY grp")
        .unwrap();
    assert_eq!(rows.len(), 3);
    assert_eq!(rows[0], vec![SqlValue::Int(0), SqlValue::Int(10), SqlValue::Int(135)]);
    // Aggregate over empty input.
    assert_eq!(
        db.query_scalar("SELECT count(*) FROM t WHERE v > 1000").unwrap(),
        SqlValue::Int(0)
    );
    assert_eq!(
        db.query_scalar("SELECT sum(v) FROM t WHERE v > 1000").unwrap(),
        SqlValue::Null
    );
}

#[test]
fn distinct() {
    let mut db = mem();
    db.execute("CREATE TABLE t(a INTEGER PRIMARY KEY, b INTEGER)").unwrap();
    for i in 0..20 {
        db.execute(&format!("INSERT INTO t VALUES ({i}, {})", i % 4)).unwrap();
    }
    let rows = db.query("SELECT DISTINCT b FROM t ORDER BY b").unwrap();
    assert_eq!(ints(&rows), vec![0, 1, 2, 3]);
}

#[test]
fn joins() {
    let mut db = mem();
    db.execute("CREATE TABLE users(id INTEGER PRIMARY KEY, name TEXT)").unwrap();
    db.execute("CREATE TABLE orders(id INTEGER PRIMARY KEY, user_id INTEGER, amount INTEGER)")
        .unwrap();
    db.execute("INSERT INTO users VALUES (1,'ada'), (2,'bob'), (3,'eve')").unwrap();
    db.execute(
        "INSERT INTO orders VALUES (1,1,100), (2,1,200), (3,2,50), (4,9,999)",
    )
    .unwrap();
    let rows = db
        .query(
            "SELECT users.name, sum(orders.amount) FROM users \
             JOIN orders ON orders.user_id = users.id \
             GROUP BY users.name ORDER BY users.name",
        )
        .unwrap();
    assert_eq!(
        rows,
        vec![
            vec![SqlValue::Text("ada".into()), SqlValue::Int(300)],
            vec![SqlValue::Text("bob".into()), SqlValue::Int(50)],
        ]
    );
    // Aliases.
    let rows = db
        .query("SELECT u.name FROM users u JOIN orders o ON o.user_id = u.id WHERE o.amount > 150")
        .unwrap();
    assert_eq!(rows, vec![vec![SqlValue::Text("ada".into())]]);
}

#[test]
fn update_and_delete() {
    let mut db = mem();
    db.execute("CREATE TABLE t(a INTEGER PRIMARY KEY, b INTEGER)").unwrap();
    for i in 0..10 {
        db.execute(&format!("INSERT INTO t VALUES ({i}, {i})")).unwrap();
    }
    let r = db.execute("UPDATE t SET b = b * 10 WHERE a < 5").unwrap();
    assert_eq!(r.affected, 5);
    assert_eq!(db.query_scalar("SELECT b FROM t WHERE a = 3").unwrap(), SqlValue::Int(30));
    assert_eq!(db.query_scalar("SELECT b FROM t WHERE a = 7").unwrap(), SqlValue::Int(7));
    // After the update b = {0,10,20,30,40,5,6,7,8,9}; DELETE b>=30 removes
    // the rows with b=30 and b=40.
    let r = db.execute("DELETE FROM t WHERE b >= 30").unwrap();
    assert_eq!(r.affected, 2);
    let n = db.query_scalar("SELECT count(*) FROM t").unwrap();
    assert_eq!(n, SqlValue::Int(8));
}

#[test]
fn update_maintains_indexes() {
    let mut db = mem();
    db.execute("CREATE TABLE t(a INTEGER PRIMARY KEY, b INTEGER)").unwrap();
    db.execute("CREATE INDEX tb ON t(b)").unwrap();
    for i in 0..50 {
        db.execute(&format!("INSERT INTO t VALUES ({i}, {})", i * 2)).unwrap();
    }
    db.execute("UPDATE t SET b = 1000 WHERE a = 25").unwrap();
    // Index-driven query must see the new value and not the old.
    assert_eq!(
        db.query_scalar("SELECT count(*) FROM t WHERE b = 1000").unwrap(),
        SqlValue::Int(1)
    );
    assert_eq!(
        db.query_scalar("SELECT count(*) FROM t WHERE b = 50").unwrap(),
        SqlValue::Int(0)
    );
}

#[test]
fn explicit_transactions_rollback() {
    let mut db = mem();
    db.execute("CREATE TABLE t(a INTEGER PRIMARY KEY, b INTEGER)").unwrap();
    db.execute("INSERT INTO t VALUES (1, 1)").unwrap();
    db.execute("BEGIN").unwrap();
    db.execute("INSERT INTO t VALUES (2, 2)").unwrap();
    db.execute("UPDATE t SET b = 99 WHERE a = 1").unwrap();
    db.execute("ROLLBACK").unwrap();
    assert_eq!(db.query_scalar("SELECT count(*) FROM t").unwrap(), SqlValue::Int(1));
    assert_eq!(db.query_scalar("SELECT b FROM t WHERE a = 1").unwrap(), SqlValue::Int(1));
    // And commit works.
    db.execute("BEGIN").unwrap();
    db.execute("INSERT INTO t VALUES (2, 2)").unwrap();
    db.execute("COMMIT").unwrap();
    assert_eq!(db.query_scalar("SELECT count(*) FROM t").unwrap(), SqlValue::Int(2));
}

#[test]
fn ddl_rollback_restores_schema() {
    let mut db = mem();
    db.execute("BEGIN").unwrap();
    db.execute("CREATE TABLE temp_t(a INTEGER)").unwrap();
    db.execute("INSERT INTO temp_t VALUES (1)").unwrap();
    db.execute("ROLLBACK").unwrap();
    assert!(db.execute("SELECT * FROM temp_t").is_err());
}

#[test]
fn file_backed_persistence() {
    let vfs = MemVfs::new();
    {
        let mut db = Connection::open(Box::new(vfs.clone()), "test.db").unwrap();
        db.execute("CREATE TABLE t(a INTEGER PRIMARY KEY, b TEXT)").unwrap();
        db.execute("BEGIN").unwrap();
        for i in 0..500 {
            db.execute(&format!("INSERT INTO t VALUES ({i}, 'value-{i}')")).unwrap();
        }
        db.execute("COMMIT").unwrap();
        db.close().unwrap();
    }
    let mut db = Connection::open(Box::new(vfs), "test.db").unwrap();
    assert_eq!(db.query_scalar("SELECT count(*) FROM t").unwrap(), SqlValue::Int(500));
    assert_eq!(
        db.query_scalar("SELECT b FROM t WHERE a = 42").unwrap(),
        SqlValue::Text("value-42".into())
    );
}

#[test]
fn blobs_roundtrip() {
    let mut db = mem();
    db.execute("CREATE TABLE t(a INTEGER PRIMARY KEY, b BLOB)").unwrap();
    db.execute("INSERT INTO t VALUES (1, x'0011FF')").unwrap();
    db.execute("INSERT INTO t VALUES (2, randomblob(1024))").unwrap();
    let rows = db.query("SELECT b FROM t WHERE a = 1").unwrap();
    assert_eq!(rows[0][0], SqlValue::Blob(vec![0x00, 0x11, 0xFF]));
    assert_eq!(
        db.query_scalar("SELECT length(b) FROM t WHERE a = 2").unwrap(),
        SqlValue::Int(1024)
    );
}

#[test]
fn large_blobs_overflow_pages() {
    let mut db = mem();
    db.execute("CREATE TABLE t(a INTEGER PRIMARY KEY, b BLOB)").unwrap();
    db.execute("INSERT INTO t VALUES (1, zeroblob(50000))").unwrap();
    assert_eq!(
        db.query_scalar("SELECT length(b) FROM t").unwrap(),
        SqlValue::Int(50000)
    );
}

#[test]
fn null_semantics_in_where() {
    let mut db = mem();
    db.execute("CREATE TABLE t(a INTEGER PRIMARY KEY, b INTEGER)").unwrap();
    db.execute("INSERT INTO t(b) VALUES (1), (NULL), (3)").unwrap();
    assert_eq!(db.query_scalar("SELECT count(*) FROM t WHERE b = 1").unwrap(), SqlValue::Int(1));
    // NULL never matches =.
    assert_eq!(
        db.query_scalar("SELECT count(*) FROM t WHERE b = NULL").unwrap(),
        SqlValue::Int(0)
    );
    assert_eq!(
        db.query_scalar("SELECT count(*) FROM t WHERE b IS NULL").unwrap(),
        SqlValue::Int(1)
    );
    assert_eq!(db.query_scalar("SELECT count(b) FROM t").unwrap(), SqlValue::Int(2));
    assert_eq!(db.query_scalar("SELECT count(*) FROM t").unwrap(), SqlValue::Int(3));
}

#[test]
fn rowid_queries_without_alias() {
    let mut db = mem();
    db.execute("CREATE TABLE t(x TEXT)").unwrap();
    db.execute("INSERT INTO t VALUES ('a'), ('b')").unwrap();
    let rows = db.query("SELECT rowid, x FROM t ORDER BY rowid").unwrap();
    assert_eq!(rows[0][0], SqlValue::Int(1));
    assert_eq!(rows[1][0], SqlValue::Int(2));
    assert_eq!(
        db.query_scalar("SELECT x FROM t WHERE rowid = 2").unwrap(),
        SqlValue::Text("b".into())
    );
}

#[test]
fn drop_table_and_index() {
    let mut db = mem();
    db.execute("CREATE TABLE t(a INTEGER PRIMARY KEY, b INTEGER)").unwrap();
    db.execute("CREATE INDEX tb ON t(b)").unwrap();
    db.execute("INSERT INTO t VALUES (1, 2)").unwrap();
    db.execute("DROP INDEX tb").unwrap();
    assert!(db.execute("DROP INDEX tb").is_err());
    db.execute("DROP TABLE t").unwrap();
    assert!(db.execute("SELECT * FROM t").is_err());
    // Re-creating reuses the namespace.
    db.execute("CREATE TABLE t(z TEXT)").unwrap();
    db.execute("INSERT INTO t VALUES ('fresh')").unwrap();
    assert_eq!(db.query_scalar("SELECT z FROM t").unwrap(), SqlValue::Text("fresh".into()));
}

#[test]
fn analyze_runs() {
    let mut db = mem();
    db.execute("CREATE TABLE t(a INTEGER PRIMARY KEY)").unwrap();
    for i in 0..10 {
        db.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
    }
    db.execute("ANALYZE").unwrap();
    let rows = db.query("SELECT tbl, nrow FROM twine_stats").unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0][1], SqlValue::Int(10));
    // Re-run refreshes.
    db.execute("INSERT INTO t VALUES (100)").unwrap();
    db.execute("ANALYZE").unwrap();
    let rows = db.query("SELECT nrow FROM twine_stats WHERE tbl = 't'").unwrap();
    assert_eq!(rows[0][0], SqlValue::Int(11));
}

#[test]
fn speedtest_suite_runs_small() {
    use twine_sqldb::speedtest::{Speedtest, TEST_IDS};
    let mut db = mem();
    let mut st = Speedtest::new(60, 42);
    for id in TEST_IDS {
        st.run_test(&mut db, id)
            .unwrap_or_else(|e| panic!("speedtest {id} failed: {e}"));
    }
}

#[test]
fn micro_workloads_run() {
    use rand::SeedableRng;
    use twine_sqldb::speedtest;
    let mut db = mem();
    speedtest::micro_setup(&mut db).unwrap();
    speedtest::micro_insert(&mut db, 100, 1024).unwrap();
    let bytes = speedtest::micro_sequential_read(&mut db).unwrap();
    assert_eq!(bytes, 100 * 1024);
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let bytes = speedtest::micro_random_read(&mut db, 50, &mut rng).unwrap();
    assert_eq!(bytes, 50 * 1024);
}

/// Page accesses (cache hits plus reads) one statement makes.
fn page_accesses(db: &mut Connection, sql: &str) -> u64 {
    let accesses = |db: &Connection| db.stats().cache_hits + db.stats().page_reads;
    let before = accesses(db);
    db.execute(sql).unwrap();
    accesses(db) - before
}

/// A point statement walks the table tree once. Rows of 1 000-byte blobs
/// fit three to a leaf, and a table interior page holds about 290
/// children: 2 rows are one leaf (depth 1), 100 rows sit under one
/// interior root (depth 2), 2 000 rows need a middle level (depth 3). A
/// point SELECT, hit or miss, reads one page per level. An UPDATE or
/// DELETE by rowid reads the row once, to test WHERE and to keep its old
/// values, walks down again to write the leaf (`depth` + 1 accesses), and
/// its commit loads the header page to rewrite it (1 more); a
/// miss stops after the first read.
///
/// A range scan reads each row from the cursor that walks the leaves, not
/// again from the root: it reads every page of the tree once, and an
/// interior page once more for each child the cursor leaves
/// (`2 × pages − 1`; these sequential inserts leave two rows to a leaf).
/// Fig. 5's sequential read grows with the leaf count, not with
/// `rows × depth`.
#[test]
fn point_statements_walk_the_tree_once() {
    for (rows, depth, scan) in [(2u64, 1u64, 1u64), (100, 2, 101), (2_000, 3, 2_013)] {
        let mut db = Connection::open(Box::new(MemVfs::new()), "depth.db").unwrap();
        db.execute("CREATE TABLE kv(a INTEGER PRIMARY KEY, b BLOB)").unwrap();
        db.execute("BEGIN").unwrap();
        for i in 1..=rows {
            db.execute(&format!("INSERT INTO kv VALUES ({i}, zeroblob(1000))")).unwrap();
        }
        db.execute("COMMIT").unwrap();
        let sql = "SELECT sum(length(b)) FROM kv WHERE a >= 0";
        assert_eq!(page_accesses(&mut db, sql), scan, "{rows} rows: {sql}");
        let (hit, miss) = (rows / 2, rows + 10);
        for k in [hit, miss, 1, rows] {
            let sql = format!("SELECT b FROM kv WHERE a = {k}");
            assert_eq!(page_accesses(&mut db, &sql), depth, "{rows} rows: {sql}");
        }
        for sql in [
            format!("UPDATE kv SET b = zeroblob(1000) WHERE a = {hit}"),
            format!("DELETE FROM kv WHERE a = {}", hit + 1),
        ] {
            assert_eq!(page_accesses(&mut db, &sql), 2 * depth + 2, "{rows} rows: {sql}");
        }
        for sql in [
            format!("UPDATE kv SET b = zeroblob(1000) WHERE a = {miss}"),
            format!("DELETE FROM kv WHERE a = {miss}"),
        ] {
            assert_eq!(page_accesses(&mut db, &sql), depth, "{rows} rows: {sql}");
        }
    }
}

/// Rowid bounds past the ends of the `i64` range plan an empty range
/// instead of overflowing, and an INSERT that needs a rowid after a row at
/// `i64::MAX` is refused with a typed error (both used to panic in debug
/// builds).
#[test]
fn rowid_extremes_do_not_overflow() {
    const MAX: i64 = i64::MAX;
    let mut db = mem();
    db.execute("CREATE TABLE t(a INTEGER PRIMARY KEY, b TEXT)").unwrap();
    db.execute("INSERT INTO t VALUES (-9223372036854775807, 'min'), (1, 'one')").unwrap();
    db.execute("INSERT INTO t VALUES (9223372036854775807, 'max')").unwrap();
    for (sql, want) in [
        ("SELECT a FROM t WHERE a > 9223372036854775807", vec![]),
        ("SELECT a FROM t WHERE a > 1e19", vec![]),
        ("SELECT a FROM t WHERE a >= 1e19", vec![]),
        ("SELECT a FROM t WHERE a < -1e19", vec![]),
        ("SELECT a FROM t WHERE a < -9223372036854775807 - 1", vec![]),
        ("SELECT a FROM t WHERE a > 1 AND a > 9223372036854775807", vec![]),
        ("SELECT a FROM t WHERE a > 9223372036854775806", vec![MAX]),
        ("SELECT a FROM t WHERE a >= 9223372036854775807", vec![MAX]),
        ("SELECT a FROM t WHERE a < -9223372036854775806", vec![-MAX]),
        ("SELECT a FROM t WHERE a <= -9223372036854775807", vec![-MAX]),
        ("SELECT a FROM t WHERE a < 2 AND a > -9223372036854775807", vec![1]),
    ] {
        assert_eq!(ints(&db.query(sql).unwrap()), want, "{sql}");
    }
    for sql in [
        "UPDATE t SET b = 'x' WHERE a > 9223372036854775807",
        "DELETE FROM t WHERE a < -9223372036854775807 - 1",
    ] {
        assert_eq!(db.execute(sql).unwrap().affected, 0, "{sql}");
    }
    for sql in [
        "INSERT INTO t(b) VALUES ('next')",
        "INSERT INTO t VALUES (NULL, 'next')",
        "INSERT INTO t VALUES (2, 'two'), (NULL, 'next')",
    ] {
        assert!(matches!(db.execute(sql), Err(DbError::Constraint(_))), "{sql}");
    }
    // An explicit rowid still goes in; the refused statements left nothing.
    db.execute("INSERT INTO t VALUES (5, 'five')").unwrap();
    assert_eq!(ints(&db.query("SELECT a FROM t").unwrap()), [-MAX, 1, 5, MAX]);
    // The last rowid is taken by an explicit insert inside one statement.
    db.execute("CREATE TABLE u(a INTEGER PRIMARY KEY)").unwrap();
    assert!(matches!(
        db.execute("INSERT INTO u VALUES (9223372036854775807), (NULL)"),
        Err(DbError::Constraint(_))
    ));
    assert_eq!(db.query("SELECT a FROM u").unwrap().len(), 0);
}

/// A rowid range planned from a bound that is not an integer keeps every
/// row the WHERE clause accepts: each predicate returns what the same
/// predicate over `a + 0`, which no plan uses, returns from a full scan.
/// (A real bound was truncated toward zero, and text, which sorts above
/// every integer, was read as a number.)
#[test]
fn rowid_ranges_with_non_integer_bounds_match_a_full_scan() {
    let mut db = mem();
    db.execute("CREATE TABLE t(a INTEGER PRIMARY KEY, b TEXT)").unwrap();
    db.execute("INSERT INTO t VALUES (-3, 'p'), (-1, 'q'), (1, 'r'), (2, 's'), (7, 't')").unwrap();
    for (pred, want) in [
        ("{a} < 1.5", vec![-3, -1, 1]),
        ("{a} > -1.5", vec![-1, 1, 2, 7]),
        ("{a} <= '5'", vec![-3, -1, 1, 2, 7]),
        ("{a} > '5'", vec![]),
        ("{a} < x'00'", vec![-3, -1, 1, 2, 7]),
        ("{a} BETWEEN 1 AND '5'", vec![1, 2, 7]),
        ("{a} BETWEEN -1.5 AND 1.5", vec![-1, 1]),
        ("{a} >= 1.0 AND {a} < 2.5", vec![1, 2]),
        ("{a} > 1 AND {a} <= 7.5 AND {a} < 7", vec![2]),
    ] {
        let planned = format!("SELECT a FROM t WHERE {}", pred.replace("{a}", "a"));
        let scanned = format!("SELECT a FROM t WHERE {}", pred.replace("{a}", "(a + 0)"));
        assert_eq!(ints(&db.query(&scanned).unwrap()), want, "{scanned}");
        assert_eq!(ints(&db.query(&planned).unwrap()), want, "{planned}");
    }
    let r = db.execute("UPDATE t SET b = 'u' WHERE a <= '0'").unwrap();
    assert_eq!(r.affected, 5);
    let r = db.execute("DELETE FROM t WHERE a < 1.5").unwrap();
    assert_eq!(r.affected, 3);
}

/// A rowid equality returns what the same equality over `a + 0`, which
/// no plan uses, returns from a full scan — for keys near `±i64::MAX` and
/// `±2^53`, where one real equals several rowids (`a = 9.2e18` matched
/// only `i64::MAX` and missed `i64::MAX - 1`, which rounds to the same
/// real), and for keys that equal no rowid at all.
#[test]
fn rowid_equality_matches_a_full_scan_near_the_ends_of_exact_reals() {
    const MAX: i64 = i64::MAX;
    const EXACT: i64 = 1 << 53;
    let rowids = [
        MAX, MAX - 1, MAX - 2, MAX - 1024, i64::MIN, i64::MIN + 1, i64::MIN + 1024,
        EXACT - 1, EXACT, EXACT + 1, EXACT + 2, -EXACT + 1, -EXACT, -EXACT - 1, -EXACT - 2,
        -1, 0, 1, 2,
    ];
    let mut db = mem();
    db.execute("CREATE TABLE t(a INTEGER PRIMARY KEY, b TEXT)").unwrap();
    for a in rowids {
        // `i64::MIN` has no integer literal: its magnitude is past `i64`.
        let key = if a == i64::MIN { format!("{} - 1", a + 1) } else { a.to_string() };
        db.execute(&format!("INSERT INTO t VALUES ({key}, 'r')")).unwrap();
    }
    let mut keys: Vec<String> = [
        "9.223372036854775807e18", "9223372036854775806.0", "9223372036854775807",
        "9223372036854775806", "-9.223372036854775808e18", "-9223372036854775807.0",
        "-9223372036854775807 - 1", "-9223372036854775807", "9007199254740992.0",
        "9007199254740993.0", "9007199254740991.0", "9007199254740994.0",
        "9007199254740993", "-9007199254740992.0", "-9007199254740993.0",
        "-9007199254740991.0", "-9007199254740993", "1e19", "-1e19", "0.0", "-0.0", "1.0",
        "1.5", "'1'", "x'01'", "NULL", "2 + 0.0",
    ]
    .map(String::from)
    .to_vec();
    keys.extend(rowids.iter().map(|a| format!("{a}.0")));
    for key in &keys {
        for (planned, scanned) in [
            (format!("a = {key}"), format!("(a + 0) = {key}")),
            (format!("{key} = a"), format!("{key} = (a + 0)")),
        ] {
            let select = |w: &str| format!("SELECT a FROM t WHERE {w}");
            let want = ints(&db.query(&select(&scanned)).unwrap());
            assert_eq!(ints(&db.query(&select(&planned)).unwrap()), want, "{planned}");
            let update = |w: &str| format!("UPDATE t SET b = 'u' WHERE {w}");
            let affected = db.execute(&update(&scanned)).unwrap().affected;
            assert_eq!(affected, want.len() as u64, "{scanned}");
            assert_eq!(db.execute(&update(&planned)).unwrap().affected, affected, "{planned}");
        }
    }
    // Every rowid that rounds to 2^63 is matched, and deleted.
    let r = db.execute("DELETE FROM t WHERE a = 9223372036854775806.0").unwrap();
    assert_eq!(r.affected, 3);
    assert_eq!(ints(&db.query("SELECT a FROM t WHERE a > 2").unwrap()), [
        EXACT - 1, EXACT, EXACT + 1, EXACT + 2, MAX - 1024
    ]);
}

/// UPDATE and DELETE change exactly the rows a full scan would: for one
/// predicate per access plan (rowid equality, rowid range, index
/// equality, index range — on a one-column and on a two-column index —,
/// a rowid no row can equal, a comparison no plan takes), the planned statement
/// and the same statement over `(a + 0)`, `(b || '')` and `(c + 0)`, which
/// no plan narrows, report the same count and leave the same table, read
/// in rowid order and through each index.
#[test]
fn dml_agrees_with_an_unplannable_rewrite() {
    fn setup() -> Connection {
        let mut db = mem();
        db.execute("CREATE TABLE t(a INTEGER PRIMARY KEY, b TEXT, c INTEGER)").unwrap();
        db.execute("CREATE INDEX t_b ON t(b)").unwrap();
        db.execute("CREATE INDEX t_cb ON t(c, b)").unwrap();
        for a in 1..=40 {
            let b = if a % 9 == 0 { "NULL".to_string() } else { format!("'k{}'", a % 7) };
            db.execute(&format!("INSERT INTO t VALUES ({a}, {b}, {})", a * 3 % 11)).unwrap();
        }
        db
    }
    fn dump(db: &mut Connection) -> [Vec<Vec<SqlValue>>; 3] {
        let rows = db.query("SELECT a, b, c FROM t").unwrap();
        let by_b = db.query("SELECT a, b FROM t WHERE b BETWEEN '' AND 'z'").unwrap();
        let by_cb = db.query("SELECT a, c FROM t WHERE c BETWEEN 0 AND 1000").unwrap();
        [rows, by_b, by_cb]
    }
    for (pred, want) in [
        ("{a} = 17", 1),
        ("{a} = 99", 0),
        ("{a} > 12 AND {a} <= 30", 18),
        ("{a} BETWEEN 5 AND 9 AND {c} > 3", 4),
        ("{b} = 'k3'", 6),
        ("{b} = 'k3' AND {c} < 6", 2),
        ("{b} BETWEEN 'k2' AND 'k4'", 16),
        ("{a} = 2.5", 0),
        ("{a} > 9223372036854775807", 0),
        ("{c} >= 6", 19),
        ("{c} = 6", 4),
        ("{c} BETWEEN 3 AND 5", 11),
    ] {
        let planned = pred.replace("{a}", "a").replace("{b}", "b").replace("{c}", "c");
        let scanned = pred.replace("{a}", "(a + 0)").replace("{b}", "(b || '')").replace("{c}", "(c + 0)");
        for stmt in ["UPDATE t SET c = c + 100, b = b || '.' WHERE {p}", "DELETE FROM t WHERE {p}"] {
            let (mut p, mut s) = (setup(), setup());
            let planned = stmt.replace("{p}", &planned);
            let scanned = stmt.replace("{p}", &scanned);
            assert_eq!(s.execute(&scanned).unwrap().affected, want, "{scanned}");
            assert_eq!(p.execute(&planned).unwrap().affected, want, "{planned}");
            assert_eq!(dump(&mut p), dump(&mut s), "{planned}");
        }
    }
}

/// A SELECT without FROM is a query over one empty row: WHERE, LIMIT and
/// aggregates apply to it as to any other (an aggregate panicked, and
/// WHERE and LIMIT were ignored, while it took a path of its own).
#[test]
fn select_without_from_is_one_row() {
    let mut db = mem();
    for (sql, want) in [
        ("SELECT 1 + 1", vec![vec![SqlValue::Int(2)]]),
        ("SELECT count(*)", vec![vec![SqlValue::Int(1)]]),
        ("SELECT count(*), max(3) WHERE 0", vec![vec![SqlValue::Int(0), SqlValue::Null]]),
        ("SELECT 1 WHERE 0", vec![]),
        ("SELECT 1 LIMIT 0", vec![]),
    ] {
        assert_eq!(db.query(sql).unwrap(), want, "{sql}");
    }
}

/// Row `a` of `big`: 3 KiB of text, which spills an overflow page.
fn big_text(a: i64) -> String {
    format!("{a:06}").repeat(512)
}

fn big_rows() -> Vec<Vec<SqlValue>> {
    (1..=200).map(|a| vec![SqlValue::Int(a), SqlValue::Text(big_text(a))]).collect()
}

/// A database on `vfs` holding `big`, behind a 16-page cache.
fn with_big_table(vfs: &MemVfs) -> Connection {
    let mut db = Connection::open(Box::new(vfs.clone()), "reuse.db").unwrap();
    db.set_cache_pages(16);
    db.execute("CREATE TABLE big(a INTEGER PRIMARY KEY, b TEXT)").unwrap();
    db.execute("BEGIN").unwrap();
    for a in 1..=200 {
        db.execute(&format!("INSERT INTO big VALUES ({a}, '{}')", big_text(a))).unwrap();
    }
    db.execute("COMMIT").unwrap();
    db
}

/// Drop `big` and fill the pages it freed with a new table's rows, far
/// more pages than the cache holds, inside one open transaction.
fn drop_and_reuse(db: &mut Connection) {
    db.execute("BEGIN").unwrap();
    db.execute("DROP TABLE big").unwrap();
    db.execute("CREATE TABLE x(a INTEGER PRIMARY KEY, b BLOB)").unwrap();
    for a in 1..=200 {
        db.execute(&format!("INSERT INTO x VALUES ({a}, zeroblob(3072))")).unwrap();
    }
}

fn assert_big_intact(db: &mut Connection) {
    assert_eq!(db.query("SELECT a, b FROM big ORDER BY a").unwrap(), big_rows());
    assert!(db.query("SELECT a FROM x").is_err(), "x was never committed");
}

/// A transaction that frees pages and then reuses them holds their
/// pre-transaction content only in the file once the cache spills them;
/// a rollback puts every one back.
#[test]
fn rollback_restores_pages_freed_and_reused_in_one_transaction() {
    let vfs = MemVfs::new();
    let mut db = with_big_table(&vfs);
    drop_and_reuse(&mut db);
    db.execute("ROLLBACK").unwrap();
    assert_big_intact(&mut db);
}

/// The same transaction cut by a crash: the hot journal puts every freed
/// and reused page back when the database is reopened.
#[test]
fn hot_journal_restores_pages_freed_and_reused_in_one_transaction() {
    let vfs = MemVfs::new();
    let mut db = with_big_table(&vfs);
    drop_and_reuse(&mut db);
    drop(db); // crash: no COMMIT, no ROLLBACK, the journal stays
    let mut db = Connection::open(Box::new(vfs), "reuse.db").unwrap();
    assert_big_intact(&mut db);
}

/// An index whose interior page holds a few separators of almost
/// `MAX_INDEX_KEY` bytes ahead of many short ones. Split at its middle
/// separator by count, such a page left its long separators in one half,
/// over a page, and the insert failed with `DbError::Storage`; split at
/// the byte middle, both halves fit and every key stays reachable.
#[test]
fn index_interior_pages_split_at_the_byte_middle() {
    let mut db = mem();
    db.execute("CREATE TABLE t(k TEXT)").unwrap();
    db.execute("CREATE INDEX tk ON t(k)").unwrap();
    // Short keys first: a few leaves, so the root has a few short
    // separators. Then long keys, which sort before them: each pair fills
    // a leaf and sends a long separator up ahead of the short ones.
    let short: Vec<String> = (0..1000).map(|i| format!("z{i:05}")).collect();
    let long: Vec<String> = (0..16).map(|i| format!("a{i:04}{}", "x".repeat(1480))).collect();
    for k in short.iter().chain(&long) {
        db.execute(&format!("INSERT INTO t VALUES ('{k}')"))
            .unwrap_or_else(|e| panic!("insert of a {}-byte key: {e:?}", k.len()));
    }
    for k in long.iter().chain(short.iter().step_by(97)) {
        let n = db.query_scalar(&format!("SELECT count(*) FROM t WHERE k = '{k}'")).unwrap();
        assert_eq!(n, SqlValue::Int(1), "{}", &k[..5]);
    }
    let mut want: Vec<&String> = long.iter().chain(&short).collect();
    want.sort();
    let rows = db.query("SELECT k FROM t WHERE k >= 'a' ORDER BY k").unwrap();
    let want: Vec<Vec<SqlValue>> = want.into_iter().map(|k| vec![SqlValue::Text(k.clone())]).collect();
    assert!(rows == want, "the index scan lost or misordered keys");
}
