//! Figure 7: time breakdown of random reads through the protected file
//! system, stock Intel IPFS vs the paper's §V-F optimised version
//! (no redundant memset, zero-copy OCALL reads + AES-CCM).

#![forbid(unsafe_code)]

use rand::SeedableRng;
use twine_baselines::{DbStorage, DbVariant, VariantDb};
use twine_bench::{arg_value, write_csv};
use twine_pfs::{PfsCategory, PfsMode};
use twine_sgx::clock::CPU_HZ;
use twine_sgx::SgxMode;
use twine_sqldb::speedtest;

struct Breakdown {
    total: f64,
    memset: f64,
    ocall: f64,
    read: f64,
    crypto: f64,
    sql_inner: f64,
}

fn measure(mode: PfsMode, rows: u32, reads: u32) -> Breakdown {
    let mut db = VariantDb::open_with_epc(
        DbVariant::Twine,
        DbStorage::File,
        SgxMode::Hardware,
        mode,
        Some(4096),
    );
    db.run(speedtest::micro_setup).expect("setup");
    db.run(|c| speedtest::micro_insert(c, rows, 1024))
        .expect("insert");
    // Profile only the random-read phase.
    let before = db.profiler().expect("twine profiler").snapshot();
    let mut rng = rand::rngs::StdRng::seed_from_u64(9);
    let (_, report) = db
        .run(|c| speedtest::micro_random_read(c, reads, &mut rng))
        .expect("random read");
    let snap = db.profiler().expect("profiler").snapshot().since(&before);
    let cycles_to_s = |c: u64| c as f64 / CPU_HZ as f64;
    let memset = cycles_to_s(snap.get(PfsCategory::Memset));
    let ocall = cycles_to_s(snap.get(PfsCategory::Ocall));
    let read = cycles_to_s(snap.get(PfsCategory::ReadOps));
    let crypto = cycles_to_s(snap.get(PfsCategory::Crypto));
    let total = report.virtual_seconds;
    Breakdown {
        total,
        memset,
        ocall,
        read,
        crypto,
        sql_inner: (total - memset - ocall - read - crypto).max(0.0),
    }
}

fn main() {
    let rows: u32 = arg_value("--rows").and_then(|s| s.parse().ok()).unwrap_or(8_000);
    let reads: u32 = arg_value("--reads").and_then(|s| s.parse().ok()).unwrap_or(2_000);
    println!("Figure 7 — random-read time breakdown, {rows} rows, {reads} reads\n");
    let stock = measure(PfsMode::Intel, rows, reads);
    let opt = measure(PfsMode::Optimised, rows, reads);

    let print = |label: &str, b: &Breakdown| {
        println!(
            "{label:<10} total {:>8.3}s | sql {:>7.3}s  read {:>7.3}s  crypto {:>7.3}s  ocall {:>7.3}s  memset {:>7.3}s",
            b.total, b.sql_inner, b.read, b.crypto, b.ocall, b.memset
        );
        println!(
            "{:<10}                  | sql {:>6.1}%  read {:>6.1}%  crypto {:>6.1}%  ocall {:>6.1}%  memset {:>6.1}%",
            "",
            100.0 * b.sql_inner / b.total,
            100.0 * b.read / b.total,
            100.0 * b.crypto / b.total,
            100.0 * b.ocall / b.total,
            100.0 * b.memset / b.total
        );
    };
    print("IPFS", &stock);
    print("Optimised", &opt);
    let pfs_stock = stock.memset + stock.ocall + stock.read + stock.crypto;
    let pfs_opt = opt.memset + opt.ocall + opt.read + opt.crypto;
    println!(
        "\nspeedup end-to-end: {:.2}x | protected-FS path only: {:.2}x   (paper: 4.1x)",
        stock.total / opt.total.max(1e-9),
        pfs_stock / pfs_opt.max(1e-9),
    );
    println!(
        "memset eliminated: {} → {:.3}s. Note: our SQL engine parses every query\n\
         (no prepared statements), so its inner share is ~{:.0}% versus SQLite's 2.9%,\n\
         which dilutes the end-to-end ratio — see EXPERIMENTS.md.",
        format_s(stock.memset),
        opt.memset,
        100.0 * stock.sql_inner / stock.total
    );
    write_csv(
        "fig7_breakdown.csv",
        "variant,total,sql_inner,read,crypto,ocall,memset",
        &[
            format!(
                "ipfs,{:.6},{:.6},{:.6},{:.6},{:.6},{:.6}",
                stock.total, stock.sql_inner, stock.read, stock.crypto, stock.ocall, stock.memset
            ),
            format!(
                "optimised,{:.6},{:.6},{:.6},{:.6},{:.6},{:.6}",
                opt.total, opt.sql_inner, opt.read, opt.crypto, opt.ocall, opt.memset
            ),
        ],
    );
}

fn format_s(v: f64) -> String {
    format!("{v:.3}s")
}
