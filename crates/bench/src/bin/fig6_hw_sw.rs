//! Figure 6: SGX hardware mode vs software (simulation) mode for the
//! in-file database — insertion, sequential and random reading, normalised
//! to Twine hardware mode.

#![forbid(unsafe_code)]

use rand::SeedableRng;
use twine_baselines::{DbStorage, DbVariant, VariantDb};
use twine_bench::{arg_value, write_csv};
use twine_pfs::PfsMode;
use twine_sgx::SgxMode;
use twine_sqldb::speedtest;

fn measure(variant: DbVariant, mode: SgxMode, rows: u32) -> [f64; 3] {
    let mut db = VariantDb::open_with_epc(
        variant,
        DbStorage::File,
        mode,
        PfsMode::Intel,
        Some(2048), // 8 MiB EPC keeps the run fast while exercising paging
    );
    db.run(speedtest::micro_setup).expect("setup");
    let (_, ins) = db
        .run(|c| speedtest::micro_insert(c, rows, 1024))
        .expect("insert");
    let (_, seq) = db.run(speedtest::micro_sequential_read).expect("seq");
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let (_, rnd) = db
        .run(|c| speedtest::micro_random_read(c, 400, &mut rng))
        .expect("rand");
    [ins.virtual_seconds, seq.virtual_seconds, rnd.virtual_seconds]
}

fn main() {
    let rows: u32 = arg_value("--rows").and_then(|s| s.parse().ok()).unwrap_or(6_000);
    println!("Figure 6 — SGX HW vs SW mode, in-file database, {rows} rows\n");
    let twine_hw = measure(DbVariant::Twine, SgxMode::Hardware, rows);
    let twine_sw = measure(DbVariant::Twine, SgxMode::Simulation, rows);
    let lkl_hw = measure(DbVariant::SgxLkl, SgxMode::Hardware, rows);
    let lkl_sw = measure(DbVariant::SgxLkl, SgxMode::Simulation, rows);

    let ops = ["Insertion", "Sequential", "Random"];
    println!(
        "{:<12} {:>10} {:>10} {:>10} {:>10}   (normalised to Twine HW)",
        "query", "twine-hw", "twine-sw", "lkl-hw", "lkl-sw"
    );
    let mut rows_csv = Vec::new();
    for i in 0..3 {
        let base = twine_hw[i].max(1e-9);
        println!(
            "{:<12} {:>10.2} {:>10.2} {:>10.2} {:>10.2}",
            ops[i],
            1.0,
            twine_sw[i] / base,
            lkl_hw[i] / base,
            lkl_sw[i] / base
        );
        rows_csv.push(format!(
            "{},{:.4},{:.4},{:.4},{:.4}",
            ops[i],
            1.0,
            twine_sw[i] / base,
            lkl_hw[i] / base,
            lkl_sw[i] / base
        ));
    }
    println!("\npaper shape: SW mode is cheaper than HW everywhere; the HW/SW gap is the");
    println!("cost assignable to SGX memory protection (largest for random reading).");
    write_csv("fig6_hw_sw.csv", "query,twine_hw,twine_sw,lkl_hw,lkl_sw", &rows_csv);
}
