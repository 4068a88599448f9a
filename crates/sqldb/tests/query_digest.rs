//! Golden digest of query results.
//!
//! A seeded database (an INTEGER PRIMARY KEY table with text columns, 1 KiB
//! blobs and blobs long enough to spill into overflow chains, a secondary
//! index, and a second table to join against) is queried by every access
//! path the planner has: rowid equality (hits, misses, negative rowids and
//! the `i64` extremes), rowid ranges, index equality and ranges, full
//! scans, a join and aggregates, then changed by UPDATE and DELETE by
//! rowid. Every statement's columns, rows and affected-row count (or its
//! error), a dump of the final table and `speedtest::integrity_check` are
//! folded into one 64-bit FNV-1a digest.
//!
//! A change to the B-tree, the planner or the executor must leave this
//! digest unchanged: it pins every result, not only the ones a targeted
//! test happens to assert.

use twine_sqldb::speedtest::integrity_check;
use twine_sqldb::{Connection, MemVfs, SqlValue};

const GOLDEN_DIGEST: u64 = 0x2d61_5bb5_b59d_26c0;

/// 64-bit FNV-1a, folded incrementally.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
    fn fold(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// SplitMix64: seeded contents without depending on any RNG's stream.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
    fn blob_literal(&mut self, len: usize) -> String {
        let mut s = String::with_capacity(3 + 2 * len);
        s.push_str("x'");
        for _ in 0..len {
            s.push_str(&format!("{:02x}", self.next() as u8));
        }
        s.push('\'');
        s
    }
}

/// Run one statement and fold what it returned.
fn run(db: &mut Connection, digest: &mut Fnv, sql: &str) {
    digest.fold(sql.as_bytes());
    match db.execute(sql) {
        Ok(r) => {
            digest.fold(format!("{:?}|{}", r.columns, r.affected).as_bytes());
            for row in &r.rows {
                digest.fold(format!("{row:?}").as_bytes());
            }
        }
        Err(e) => digest.fold(format!("error: {e}").as_bytes()),
    }
}

/// An integer as SQL text: `i64::MIN` has no literal (its magnitude
/// overflows before the minus applies), so it is written as an expression.
fn sql_int(v: i64) -> String {
    if v == i64::MIN {
        format!("({} - 1)", i64::MIN + 1)
    } else {
        v.to_string()
    }
}

/// Rowids of the main table: a dense run, a sparse run, negatives and
/// both ends of the `i64` range. The top is `i64::MAX - 1`: an INSERT
/// computes the next free rowid as the largest one plus one.
fn seeded_rowids(mix: &mut Mix) -> Vec<i64> {
    let mut ids: Vec<i64> = (1..=300).collect();
    ids.extend((0..150).map(|i| 1_000 + i * 37));
    ids.extend((1..=40).map(|i| -i * 3));
    ids.extend([i64::MAX - 1, i64::MAX - 2, i64::MIN, i64::MIN + 2, 0]);
    ids.extend((0..20).map(|_| (mix.next() >> 8) as i64));
    ids
}

fn build(db: &mut Connection, digest: &mut Fnv, mix: &mut Mix) -> Vec<i64> {
    run(
        db,
        digest,
        "CREATE TABLE t(a INTEGER PRIMARY KEY, name TEXT, grp INTEGER, body BLOB, big BLOB)",
    );
    run(db, digest, "CREATE INDEX t_grp ON t(grp)");
    run(db, digest, "CREATE TABLE g(id INTEGER PRIMARY KEY, label TEXT)");
    for id in 0..12 {
        run(db, digest, &format!("INSERT INTO g VALUES ({id}, 'group-{id}')"));
    }
    let ids = seeded_rowids(mix);
    run(db, digest, "BEGIN");
    for &id in &ids {
        let grp = mix.below(10);
        let name = format!("name-{}", mix.below(1_000));
        let body = if mix.below(8) == 0 {
            "NULL".to_string()
        } else {
            mix.blob_literal(1_024)
        };
        // One row in six carries a blob past the local limit (2 000 bytes).
        let big = if mix.below(6) == 0 {
            let len = 2_001 + mix.below(9_000) as usize;
            mix.blob_literal(len)
        } else {
            "NULL".to_string()
        };
        run(
            db,
            digest,
            &format!("INSERT INTO t VALUES ({}, '{name}', {grp}, {body}, {big})", sql_int(id)),
        );
    }
    run(db, digest, "COMMIT");
    ids
}

fn point_reads(db: &mut Connection, digest: &mut Fnv, mix: &mut Mix, ids: &[i64]) {
    let mut keys: Vec<String> = ids.iter().step_by(3).map(|&id| sql_int(id)).collect();
    // Misses: gaps, past both ends, negatives that were never inserted.
    keys.extend(["301", "1001", "999999", "-1", "-2", "-121", "-9999"].map(String::from));
    keys.extend((0..20).map(|_| (mix.next() as i64).to_string()));
    // i64::MIN as an expression, i64::MAX and its neighbours, and
    // non-integer keys.
    keys.extend(
        [
            "-9223372036854775807 - 1",
            "-9223372036854775808",
            "9223372036854775807",
            "9223372036854775806",
            "-9223372036854775807",
            "2.0",
            "2.5",
            "'7'",
            "'x'",
            "NULL",
        ]
        .map(String::from),
    );
    for k in &keys {
        run(db, digest, &format!("SELECT a, name, grp, body, big FROM t WHERE a = {k}"));
        run(db, digest, &format!("SELECT rowid, length(big) FROM t WHERE rowid = {k}"));
    }
}

fn ranges_scans_joins(db: &mut Connection, digest: &mut Fnv) {
    for sql in [
        // Rowid ranges.
        "SELECT a, name FROM t WHERE a BETWEEN 10 AND 40",
        "SELECT a, grp FROM t WHERE a > 250 AND a <= 1100",
        "SELECT a FROM t WHERE a < 0",
        "SELECT a FROM t WHERE a >= 9223372036854775806",
        "SELECT a, length(big) FROM t WHERE a BETWEEN 1000 AND 2000 AND grp < 5",
        "SELECT a FROM t WHERE a BETWEEN 500 AND 400",
        // Index equality and ranges.
        "SELECT a, name FROM t WHERE grp = 3",
        "SELECT a FROM t WHERE grp = 42",
        "SELECT a, grp FROM t WHERE grp BETWEEN 2 AND 4",
        "SELECT count(*) FROM t WHERE grp = 7 AND a > 100",
        // Full scans and aggregates.
        "SELECT a, name, length(body), length(big) FROM t",
        "SELECT a FROM t WHERE name = 'name-5' OR length(big) > 9000",
        "SELECT count(*), sum(grp), min(a), max(a), count(big) FROM t",
        "SELECT grp, count(*), min(name), max(length(big)) FROM t GROUP BY grp ORDER BY grp",
        "SELECT DISTINCT grp FROM t ORDER BY grp DESC",
        "SELECT a, name FROM t ORDER BY name, a LIMIT 25 OFFSET 10",
        // A join, probing the inner table by rowid and by index.
        "SELECT t.a, g.label FROM t JOIN g ON g.id = t.grp WHERE t.a < 60",
        "SELECT g.label, count(*) FROM g JOIN t ON t.grp = g.id GROUP BY g.label ORDER BY g.label",
    ] {
        run(db, digest, sql);
    }
}

fn updates_and_deletes(db: &mut Connection, digest: &mut Fnv, mix: &mut Mix, ids: &[i64]) {
    for (i, id) in ids.iter().enumerate().step_by(11) {
        let grp = (i % 10) as i64;
        let id = sql_int(*id);
        run(db, digest, &format!("UPDATE t SET name = 'upd-{i}', grp = {grp} WHERE a = {id}"));
    }
    for k in ["301", "-1", "9223372036854775807", "-9223372036854775807", "-9223372036854775807 - 1"] {
        run(db, digest, &format!("UPDATE t SET big = {} WHERE a = {k}", mix.blob_literal(2_500)));
    }
    for &id in ids.iter().skip(5).step_by(9) {
        run(db, digest, &format!("DELETE FROM t WHERE a = {}", sql_int(id)));
    }
    for k in ["301", "-1", "9223372036854775805", "-9223372036854775807 - 1", "'x'"] {
        run(db, digest, &format!("DELETE FROM t WHERE a = {k}"));
    }
    run(db, digest, "DELETE FROM t WHERE rowid = -9223372036854775807");
    // Read back what the changes left.
    for &id in ids.iter().step_by(4) {
        let id = sql_int(id);
        run(db, digest, &format!("SELECT a, name, grp, length(body), big FROM t WHERE a = {id}"));
    }
    ranges_scans_joins(db, digest);
    run(db, digest, "SELECT a, name, grp, body, big FROM t");
}

#[test]
fn query_results_match_golden_digest() {
    let mut digest = Fnv::new();
    let mut mix = Mix(0x5eed_0d16_e570);
    let mut db = Connection::open(Box::new(MemVfs::new()), "digest.db").unwrap();
    // A cache smaller than the table, so reads also go through misses.
    db.set_cache_pages(64);
    let ids = build(&mut db, &mut digest, &mut mix);
    // Every seeded row went in (i64::MIN included), so the reads below
    // run against the whole table.
    let count = db.query_scalar("SELECT count(*) FROM t").unwrap();
    assert_eq!(count, SqlValue::Int(ids.len() as i64));
    point_reads(&mut db, &mut digest, &mut mix, &ids);
    ranges_scans_joins(&mut db, &mut digest);
    updates_and_deletes(&mut db, &mut digest, &mut mix, &ids);
    let rows = integrity_check(&mut db).unwrap();
    digest.fold(format!("integrity {rows}").as_bytes());
    assert_eq!(
        digest.0, GOLDEN_DIGEST,
        "query results changed: digest 0x{:016x}",
        digest.0
    );
}
