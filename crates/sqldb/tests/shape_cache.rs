//! Differential test of the plan cache keyed by statement shape.
//!
//! The same seeded statement stream runs on two connections, one caching
//! up to 64 shapes and one caching none (every statement parsed afresh).
//! The stream fills a fixed set of shapes — point and range reads, index
//! equality and ranges, IN, LIKE, BETWEEN, CASE, LIMIT/OFFSET, aggregates,
//! INSERT, UPDATE and DELETE — with literals whose type changes from one
//! execution of a shape to the next: integers (negative, zero, the `i64`
//! extremes, one past them), reals, text with quotes and non-ASCII, blobs
//! and NULL. Every result and every error must be identical, so a cached
//! plan never keeps a value from the text it was first parsed from.

use proptest::collection::vec;
use proptest::prelude::*;
use twine_sqldb::speedtest::integrity_check;
use twine_sqldb::Connection;

/// Statement shapes; each `{}` takes one literal.
const SHAPES: &[&str] = &[
    "SELECT a, b, c, d FROM kv WHERE a = {}",
    "SELECT a, b FROM kv WHERE a > {} AND a <= {}",
    "SELECT a FROM kv WHERE a < {} OR a >= {}",
    "SELECT a FROM kv WHERE a BETWEEN {} AND {}",
    "SELECT a, c FROM kv WHERE b = {}",
    "SELECT a FROM kv WHERE b BETWEEN {} AND {} ORDER BY a",
    "SELECT a FROM kv WHERE a IN ({}, {}, {})",
    "SELECT a FROM kv WHERE b NOT IN ({}, {})",
    "SELECT a FROM kv WHERE b LIKE {}",
    "SELECT a, CASE WHEN c > {} THEN {} ELSE {} END FROM kv",
    "SELECT a FROM kv ORDER BY a DESC LIMIT {} OFFSET {}",
    "SELECT count(*), sum(a), max(b), min(c) FROM kv WHERE c > {}",
    "SELECT a + {}, b || {}, -({}) FROM kv WHERE a = {}",
    "SELECT {}, typeof({}), {} = {}",
    "INSERT INTO kv VALUES ({}, {}, {}, {})",
    "INSERT INTO kv(b, c, d) VALUES ({}, {}, {})",
    "UPDATE kv SET c = c + {}, b = {} WHERE a = {}",
    "UPDATE kv SET d = {} WHERE b = {}",
    "DELETE FROM kv WHERE a = {}",
    "DELETE FROM kv WHERE a > {} AND c < {}",
];

/// Literals that are not small integers.
const LITERALS: &[&str] = &[
    "9223372036854775807",
    "-9223372036854775807",
    "9223372036854775808",
    "0",
    "1.5",
    "-2.25",
    "1e19",
    "-1e19",
    "'it''s'",
    "'5'",
    "'abc'",
    "''",
    "'%b%'",
    "'é''日本'",
    "x'00ff'",
    "x''",
    "NULL",
];

fn literal() -> impl Strategy<Value = String> {
    prop_oneof![
        (-8i64..40).prop_map(|v| v.to_string()),
        (0..LITERALS.len()).prop_map(|i| LITERALS[i].to_string()),
    ]
}

/// `shape` with its `{}` replaced by `lits`, in order.
fn fill(shape: &str, lits: &[String]) -> String {
    let mut out = String::new();
    let mut parts = shape.split("{}");
    out.push_str(parts.next().unwrap_or_default());
    for (part, lit) in parts.zip(lits) {
        out.push_str(lit);
        out.push_str(part);
    }
    out
}

/// Run one statement, rendered so that results and errors compare exactly
/// (NaN included).
fn run(db: &mut Connection, sql: &str) -> String {
    format!("{:?}", db.execute(sql))
}

fn connection(plan_cache: usize) -> Connection {
    let mut db = Connection::open_memory();
    db.set_plan_cache_capacity(plan_cache);
    for sql in [
        "CREATE TABLE kv(a INTEGER PRIMARY KEY, b TEXT, c REAL, d BLOB)",
        "CREATE INDEX kv_b ON kv(b)",
        "CREATE UNIQUE INDEX kv_d ON kv(d)",
    ] {
        db.execute(sql).unwrap();
    }
    for k in 1..=24 {
        let sql = format!("INSERT INTO kv VALUES ({k}, 'b{}', {k}.5, x'{k:02x}')", k % 5);
        db.execute(&sql).unwrap();
    }
    db
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24 })]

    #[test]
    fn cached_and_uncached_connections_agree(
        stream in vec((0..SHAPES.len(), vec(literal(), 4..5)), 150..250),
    ) {
        let mut cached = connection(64);
        let mut uncached = connection(0);
        for (i, (shape, lits)) in stream.iter().enumerate() {
            let sql = fill(SHAPES[*shape], lits);
            prop_assert_eq!(run(&mut cached, &sql), run(&mut uncached, &sql), "statement {}: {}", i, sql);
        }
        let dump = "SELECT * FROM kv ORDER BY a";
        prop_assert_eq!(run(&mut cached, dump), run(&mut uncached, dump));
        prop_assert_eq!(integrity_check(&mut cached), integrity_check(&mut uncached));
        let (hot, cold) = (cached.stmt_cache_stats(), uncached.stmt_cache_stats());
        prop_assert!(hot.hits > 0 && hot.parses < cold.parses, "{:?} vs {:?}", hot, cold);
        prop_assert_eq!(cold.hits, 0);
    }
}
