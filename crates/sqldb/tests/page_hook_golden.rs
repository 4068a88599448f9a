//! Golden digest of the page-hook stream of an in-memory connection.
//!
//! The page hook is what Fig. 5's EPC model sees of a database: every
//! `(page, is_write)` a caller asks the pager for through `get` and
//! `get_mut`, before its cache is consulted. The pager's own reads and
//! writes of the header and the freelist trunk pages are not in the
//! stream, though those pages pass through the same cache. This test
//! runs one fixed script on `Connection::open_memory()` — a table and a
//! unique index, enough 3 KiB rows (each spills an overflow page) to pass
//! the 2 048-page cache,
//! UPDATEs that shrink rows and free their overflow pages, DELETEs,
//! inserts that reuse the freed pages, a multi-row INSERT that fails on
//! its unique index after changing pages, a BEGIN … ROLLBACK, and DROP
//! TABLE — and folds the stream into one 64-bit FNV-1a digest plus its
//! length.
//!
//! The pin is against pager changes: a change to the pager's storage (how
//! an in-memory database is held, how a transaction is undone) must leave
//! both unchanged, and then every EPC fault Fig. 5 charges is unchanged
//! too. An executor that reads fewer pages moves the stream, and the pin
//! is re-recorded with it.

use std::sync::{Arc, Mutex};

use twine_sqldb::{Connection, SqlValue};

/// `(digest, accesses)` of the script's page-hook stream.
const GOLDEN: (u64, u64) = (0x21e0_1a46_12c3_75b7, 42_227);

const ROWS: i64 = 1_600;

fn run(db: &mut Connection, sql: &str) {
    db.execute(sql).unwrap();
}

fn count(db: &mut Connection) -> i64 {
    db.query_scalar("SELECT count(*) FROM t").unwrap().as_i64().unwrap()
}

#[test]
fn in_memory_page_hook_stream_is_pinned() {
    let trace = Arc::new(Mutex::new((0xcbf2_9ce4_8422_2325u64, 0u64)));
    let sink = Arc::clone(&trace);
    let db = &mut Connection::open_memory();
    db.set_page_hook(Some(Box::new(move |page, write| {
        let mut t = sink.lock().unwrap();
        for b in page.to_le_bytes().into_iter().chain([u8::from(write)]) {
            t.0 ^= u64::from(b);
            t.0 = t.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        t.1 += 1;
    })));

    run(db, "CREATE TABLE t(a INTEGER PRIMARY KEY, b TEXT, c BLOB)");
    run(db, "CREATE UNIQUE INDEX t_b ON t(b)");
    for batch in 0..ROWS / 100 {
        run(db, "BEGIN");
        for a in batch * 100 + 1..=batch * 100 + 100 {
            run(db, &format!("INSERT INTO t VALUES ({a}, 'k{a}', zeroblob(3072))"));
        }
        run(db, "COMMIT");
    }
    assert_eq!(count(db), ROWS);
    assert!(db.page_count() > 2_048, "the rows pass the page cache");

    // Shrink rows (their overflow pages go to the freelist), rename some,
    // delete a range, then insert again onto the freed pages.
    run(db, "UPDATE t SET c = zeroblob(100) WHERE a BETWEEN 100 AND 160");
    for a in (200..260).step_by(3) {
        run(db, &format!("UPDATE t SET b = 'u{a}' WHERE a = {a}"));
    }
    run(db, "DELETE FROM t WHERE a BETWEEN 300 AND 420");
    run(db, "DELETE FROM t WHERE b = 'k7'");
    for a in ROWS + 1..=ROWS + 50 {
        run(db, &format!("INSERT INTO t VALUES ({a}, 'k{a}', zeroblob(3072))"));
    }
    assert_eq!(count(db), ROWS - 122 + 50);

    // The second row collides on the unique index after the first row
    // and the second's table cell were written: the statement rolls back.
    let dup = db.execute(&format!(
        "INSERT INTO t VALUES ({}, 'fresh', zeroblob(3072)), ({}, 'k8', zeroblob(3072))",
        ROWS + 100,
        ROWS + 101
    ));
    assert!(dup.is_err(), "{dup:?}");

    run(db, "BEGIN");
    for a in ROWS + 200..ROWS + 230 {
        run(db, &format!("INSERT INTO t VALUES ({a}, 'r{a}', zeroblob(3072))"));
    }
    run(db, "UPDATE t SET c = zeroblob(10) WHERE a BETWEEN 500 AND 540");
    run(db, "DELETE FROM t WHERE a BETWEEN 600 AND 700");
    run(db, "ROLLBACK");
    assert_eq!(count(db), ROWS - 122 + 50);
    let b = db.query_scalar("SELECT b FROM t WHERE a = 650").unwrap();
    assert_eq!(b, SqlValue::Text("k650".into()));

    run(db, "DROP TABLE t");
    let got = *trace.lock().unwrap();
    assert_eq!(got, GOLDEN, "page-hook stream (digest {:#018x}, {} accesses)", got.0, got.1);
}
