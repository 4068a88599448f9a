//! Figure 5: §V-D micro-benchmarks — insertion, sequential read and random
//! read as the database grows past the EPC limit; 8 series (4 variants ×
//! {memory, file}).
//!
//! Scaling note (EXPERIMENTS.md): the paper sweeps 1k→175k 1-KiB records
//! against a 93 MiB EPC. To keep laptop runs in minutes, the harness
//! defaults to a 16 MiB usable EPC and sweeps 1k→24k records. That is not
//! the paper's ratio of database size to EPC: a page holds four records,
//! as SQLite's does, so 175k records take ≈ 171 MiB (1.8× the paper's
//! EPC) and 24k take ≈ 23.5 MiB (1.5× the default). The in-memory series
//! reach the EPC at 14k of 24k records, 58 % into the sweep; the paper's
//! 93 MiB holds ≈ 95k of its 175k, 54 % into it. Use `--full --epc-mib 93`
//! for the paper's exact parameters.

#![forbid(unsafe_code)]

use rand::SeedableRng;
use twine_baselines::{DbStorage, DbVariant, VariantDb};
use twine_bench::{arg_value, has_flag, write_csv};
use twine_pfs::PfsMode;
use twine_sgx::SgxMode;
use twine_sqldb::speedtest;

fn main() {
    let epc_mib: u64 = arg_value("--epc-mib").and_then(|s| s.parse().ok()).unwrap_or(16);
    let epc_pages = Some((epc_mib << 20 >> 12) as usize);
    let sizes: Vec<u32> = if has_flag("--full") {
        (1..=35).map(|i| i * 5_000).collect() // 5k..175k
    } else {
        vec![1, 2, 4, 6, 8, 10, 12, 14, 16, 20, 24]
            .into_iter()
            .map(|k| k * 1_000)
            .collect()
    };
    let step_random_reads: u32 = 500;
    println!(
        "Figure 5 — micro-benchmarks, EPC {epc_mib} MiB, sizes up to {} records\n",
        sizes.last().unwrap()
    );

    let variants = DbVariant::all();
    let storages = [DbStorage::Memory, DbStorage::File];
    let mut insert_rows = Vec::new();
    let mut seq_rows = Vec::new();
    let mut rand_rows = Vec::new();

    for &variant in &variants {
        for &storage in &storages {
            let label = format!("{}-{}", variant.label(), storage_label(storage));
            // Optimised PFS for Twine-file, as in the paper's Figure 5 note
            // ("based on the enhanced version of IPFS").
            let pfs = if variant == DbVariant::Twine {
                PfsMode::Optimised
            } else {
                PfsMode::Intel
            };
            let mut db = VariantDb::open_with_epc(
                variant,
                storage,
                SgxMode::Hardware,
                pfs,
                epc_pages,
            );
            db.run(speedtest::micro_setup).expect("setup");
            let mut rng = rand::rngs::StdRng::seed_from_u64(7);
            let mut total = 0u32;
            for &target in &sizes {
                let batch = target - total;
                total = target;
                // (a) Insertion: time to add this batch.
                let (_, ins) = db
                    .run(|c| speedtest::micro_insert(c, batch, 1024))
                    .expect("insert");
                // (b) Sequential read of everything.
                let (_, seq) = db
                    .run(speedtest::micro_sequential_read)
                    .expect("seq read");
                // (c) Random reads.
                let (_, rnd) = db
                    .run(|c| speedtest::micro_random_read(c, step_random_reads, &mut rng))
                    .expect("random read");
                println!(
                    "{label:<16} {target:>7} rows  insert {:>8.4}s  seq {:>8.4}s  rand {:>8.4}s  (epc faults {:>7})",
                    ins.virtual_seconds, seq.virtual_seconds, rnd.virtual_seconds, rnd.epc_faults
                );
                insert_rows.push(format!("{label},{target},{:.6}", ins.virtual_seconds));
                seq_rows.push(format!("{label},{target},{:.6}", seq.virtual_seconds));
                rand_rows.push(format!("{label},{target},{:.6}", rnd.virtual_seconds));
            }
        }
    }
    write_csv("fig5a_insert.csv", "series,records,seconds", &insert_rows);
    write_csv("fig5b_seqread.csv", "series,records,seconds", &seq_rows);
    write_csv("fig5c_randread.csv", "series,records,seconds", &rand_rows);
}

fn storage_label(s: DbStorage) -> &'static str {
    match s {
        DbStorage::Memory => "mem",
        DbStorage::File => "file",
    }
}
