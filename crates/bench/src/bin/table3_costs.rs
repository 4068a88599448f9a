//! Table III: cost factors — build/deploy times (IIIa) and artifact sizes
//! (IIIb). Measured on this repository's own artifacts where possible;
//! toolchain costs this environment cannot run use the paper's values
//! (marked `[paper]`).

#![forbid(unsafe_code)]

use std::time::Instant;

use twine_baselines::costs::{table3a, table3b};
use twine_baselines::{DbStorage, DbVariant, VariantDb};
use twine_bench::write_csv;
use twine_pfs::PfsMode;
use twine_polybench::{all_kernels, Scale};
use twine_sgx::SgxMode;
use twine_sqldb::speedtest;
use twine_wasm::compile::CompiledModule;

fn main() {
    println!("Table III — cost factors\n");

    // Measure: MiniC → Wasm compile time and artifact size over the whole
    // PolyBench suite (the repository's "application").
    let kernels = all_kernels(Scale::Small);
    let t0 = Instant::now();
    let wasms: Vec<Vec<u8>> = kernels
        .iter()
        .map(|k| twine_minicc::compile_to_bytes(&k.source).expect("compile"))
        .collect();
    let compile_wasm_ms = t0.elapsed().as_secs_f64() * 1e3;
    let wasm_bytes: u64 = wasms.iter().map(|w| w.len() as u64).sum();

    // Measure: Wasm → flattened-AoT compile time and code size.
    let t1 = Instant::now();
    let compiled: Vec<CompiledModule> = wasms
        .iter()
        .map(|w| CompiledModule::from_bytes(w).expect("aot"))
        .collect();
    let compile_aot_ms = t1.elapsed().as_secs_f64() * 1e3;
    let aot_ops: usize = compiled.iter().map(CompiledModule::code_size_ops).sum();
    let aot_bytes = aot_ops * 16; // flattened op ≈ 16 bytes

    // Measure: ciphertext footprint of a Twine protected database.
    let mut db = VariantDb::open(
        DbVariant::Twine,
        DbStorage::File,
        SgxMode::Hardware,
        PfsMode::Intel,
    );
    db.run(speedtest::micro_setup).expect("setup");
    db.run(|c| speedtest::micro_insert(c, 2_000, 1_024))
        .expect("insert");
    let db_pages = db.conn.page_count();
    let ciphertext_kib = f64::from(db_pages) * 4096.0 * 1.05 / 1024.0; // + MHT overhead

    println!("measured on this build:");
    println!("  wasm artifacts: {} KiB across {} kernels", wasm_bytes / 1024, kernels.len());
    println!("  compile wasm: {compile_wasm_ms:.1} ms, compile AoT: {compile_aot_ms:.1} ms");
    println!("  AoT code: {aot_ops} ops (~{} KiB)", aot_bytes / 1024);
    println!("  protected DB ciphertext: {ciphertext_kib:.0} KiB for 2k records\n");

    let a = table3a(wasm_bytes, compile_wasm_ms, compile_aot_ms);
    let b = table3b(
        wasm_bytes as f64 / 1024.0,
        aot_bytes as f64 / 1024.0,
        ciphertext_kib,
        192_822.0,
        209_920.0,
    );

    println!("(IIIa) Times [ms]          native     sgx-lkl        wamr       twine");
    let mut rows = Vec::new();
    for row in a.iter().chain(b.iter()) {
        let fmt = |v: Option<f64>| match v {
            Some(v) => format!("{v:>11.0}"),
            None => format!("{:>11}", "-"),
        };
        println!(
            "{:<24} {} {} {} {}{}",
            row.metric,
            fmt(row.values[0]),
            fmt(row.values[1]),
            fmt(row.values[2]),
            fmt(row.values[3]),
            if row.modelled { "  [paper]" } else { "" }
        );
        rows.push(format!(
            "{},{},{},{},{},{}",
            row.metric,
            row.values[0].map_or(String::new(), |v| format!("{v:.1}")),
            row.values[1].map_or(String::new(), |v| format!("{v:.1}")),
            row.values[2].map_or(String::new(), |v| format!("{v:.1}")),
            row.values[3].map_or(String::new(), |v| format!("{v:.1}")),
            row.modelled
        ));
    }
    write_csv(
        "table3_costs.csv",
        "metric,native,sgxlkl,wamr,twine,modelled",
        &rows,
    );
}
