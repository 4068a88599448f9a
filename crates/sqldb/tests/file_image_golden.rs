//! Golden digest of a database file's bytes: the B-tree's on-disk layout.
//!
//! One fixed script runs on a `MemVfs` connection and the file it leaves
//! behind is folded into one 64-bit FNV-1a digest plus its length. The
//! script splits leaves, interior pages and roots of three trees:
//! - a table of ≈ 1.3 KiB rows (three to a leaf), inserted in a seeded
//!   shuffled order until its root holds more than one page of
//!   separators, every 50th row spilling a 5 000-byte blob into an
//!   overflow chain;
//! - a unique index on a ≈ 300-byte text column;
//! - an index on the rows' 1 000-byte blobs (three keys to a page).
//!
//! It then deletes a range of rows, which empties and unlinks leaves and
//! interior pages of all three trees, replaces rows (some shrink off
//! their overflow chains, some grow onto new ones), inserts onto the
//! freed pages and closes the connection.
//!
//! The pin is against B-tree changes that must not show on disk: the
//! split points, which page a split allocates for which half, the order
//! pages are allocated and freed in, and the node encoding. A change to
//! the file format moves it, and says so.

use twine_sqldb::{Connection, MemVfs, Vfs};

/// `(FNV-1a digest, length in bytes)` of the file the script leaves.
const GOLDEN: (u64, u64) = (0x365d_3c82_d2ec_ba11, 7_950_336);

const ROWS: u64 = 1_800;

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
    fn blob(&mut self, len: usize) -> String {
        let mut s = String::with_capacity(3 + 2 * len);
        s.push_str("x'");
        for _ in 0..len {
            s.push_str(&format!("{:02x}", self.next() as u8));
        }
        s.push('\'');
        s
    }
}

/// The text column: unique per row, ≈ 300 bytes.
fn label(a: u64, version: u64) -> String {
    format!("'{a:06}-{version}-{}'", "t".repeat(290))
}

fn run(db: &mut Connection, sql: &str) {
    db.execute(sql).unwrap();
}

fn count(db: &mut Connection) -> i64 {
    db.query_scalar("SELECT count(*) FROM t").unwrap().as_i64().unwrap()
}

#[test]
fn database_file_image_is_pinned() {
    let vfs = MemVfs::new();
    let mut db = Connection::open(Box::new(vfs.clone()), "image.db").unwrap();
    run(&mut db, "CREATE TABLE t(a INTEGER PRIMARY KEY, b TEXT, c BLOB, d BLOB)");
    run(&mut db, "CREATE UNIQUE INDEX t_b ON t(b)");
    run(&mut db, "CREATE INDEX t_c ON t(c)");

    // Rowids in a seeded shuffled order (Fisher–Yates), one transaction
    // per hundred rows; every 50th row carries a blob past a page.
    let mut mix = Mix(0x1a6e);
    let mut order: Vec<u64> = (1..=ROWS).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, (mix.next() % (i as u64 + 1)) as usize);
    }
    for chunk in order.chunks(100) {
        run(&mut db, "BEGIN");
        for &a in chunk {
            let (c, d) = (mix.blob(1_000), if a % 50 == 0 { mix.blob(5_000) } else { "NULL".into() });
            run(&mut db, &format!("INSERT INTO t VALUES ({a}, {}, {c}, {d})", label(a, 0)));
        }
        run(&mut db, "COMMIT");
    }
    assert_eq!(count(&mut db), ROWS as i64);

    // A range that spans whole leaves and interior pages of every tree.
    run(&mut db, "DELETE FROM t WHERE a BETWEEN 300 AND 1100");
    // Replace rows: new labels (index delete + insert), blobs that
    // shrink off their overflow chains and blobs that grow onto new ones.
    run(&mut db, "BEGIN");
    for a in (1..300).step_by(7) {
        let d = if a % 2 == 0 { mix.blob(4_000) } else { "NULL".into() };
        run(&mut db, &format!("UPDATE t SET b = {}, c = {}, d = {d} WHERE a = {a}", label(a, 1), mix.blob(900)));
    }
    run(&mut db, "UPDATE t SET c = x'00', d = NULL WHERE a BETWEEN 1500 AND 1600");
    run(&mut db, "COMMIT");
    // Insert again, onto the freed pages.
    for a in ROWS + 1..=ROWS + 200 {
        run(&mut db, &format!("INSERT INTO t VALUES ({a}, {}, {}, NULL)", label(a, 0), mix.blob(1_000)));
    }
    assert_eq!(count(&mut db), ROWS as i64 - 801 + 200);
    db.close().unwrap();

    let mut file = vfs.clone().open("image.db").unwrap();
    let len = file.size().unwrap();
    let mut bytes = vec![0u8; len as usize];
    file.read_at(0, &mut bytes).unwrap();
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        digest ^= u64::from(b);
        digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
    }
    assert_eq!((digest, len), GOLDEN, "file image (digest {digest:#018x}, {len} bytes)");
}
