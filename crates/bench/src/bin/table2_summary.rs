//! Table II: normalised run time of the technologies, split into the
//! below-EPC and above-EPC regimes (derived from the Figure 5 sweep).

#![forbid(unsafe_code)]

use rand::SeedableRng;
use twine_baselines::{DbStorage, DbVariant, VariantDb};
use twine_bench::{arg_value, write_csv};
use twine_pfs::PfsMode;
use twine_sgx::SgxMode;
use twine_sqldb::speedtest;

struct Cell {
    below: f64,
    above: f64,
}

fn main() {
    let epc_mib: u64 = arg_value("--epc-mib").and_then(|s| s.parse().ok()).unwrap_or(8);
    let epc_pages = Some((epc_mib << 20 >> 12) as usize);
    // Databases of half-EPC and 3×EPC size (1 KiB records ≈ 1.3 KiB stored).
    let below_rows = (epc_mib << 10) as u32 / 3;
    let above_rows = (epc_mib << 10) as u32 * 2;
    println!(
        "Table II — normalised run time (native = 1); EPC {epc_mib} MiB, \
         <EPC at {below_rows} rows, >=EPC at {above_rows} rows\n"
    );

    let mut results: Vec<(String, [Cell; 6])> = Vec::new();
    for &variant in &DbVariant::all() {
        let mut cells = Vec::new();
        for &storage in &[DbStorage::Memory, DbStorage::File] {
            for &rows in &[below_rows, above_rows] {
                let pfs = if variant == DbVariant::Twine {
                    PfsMode::Optimised
                } else {
                    PfsMode::Intel
                };
                let mut db =
                    VariantDb::open_with_epc(variant, storage, SgxMode::Hardware, pfs, epc_pages);
                db.run(speedtest::micro_setup).expect("setup");
                let (_, ins) = db
                    .run(|c| speedtest::micro_insert(c, rows, 1024))
                    .expect("insert");
                let (_, seq) = db.run(speedtest::micro_sequential_read).expect("seq");
                let mut rng = rand::rngs::StdRng::seed_from_u64(3);
                let (_, rnd) = db
                    .run(|c| speedtest::micro_random_read(c, 400, &mut rng))
                    .expect("rand");
                cells.push((rows, storage, ins.virtual_seconds, seq.virtual_seconds, rnd.virtual_seconds));
            }
        }
        // cells: [mem-below, mem-above, file-below, file-above]
        let pack = |op: usize| Cell {
            below: [cells[0].2, cells[0].3, cells[0].4][op],
            above: [cells[1].2, cells[1].3, cells[1].4][op],
        };
        let pack_file = |op: usize| Cell {
            below: [cells[2].2, cells[2].3, cells[2].4][op],
            above: [cells[3].2, cells[3].3, cells[3].4][op],
        };
        results.push((
            variant.label().to_string(),
            [pack(0), pack_file(0), pack(1), pack_file(1), pack(2), pack_file(2)],
        ));
    }

    let metrics = [
        "Insert mem.",
        "Insert file",
        "Seq. read mem.",
        "Seq. read file",
        "Rand. read mem.",
        "Rand. read file",
    ];
    println!(
        "{:<18} {:>9} {:>9} | {:>9} {:>9} | {:>9} {:>9}",
        "(native = 1)", "lkl<EPC", "lkl>=EPC", "twine<EPC", "twine>=EPC", "wamr<", "wamr>="
    );
    let mut rows_csv = Vec::new();
    for (mi, metric) in metrics.iter().enumerate() {
        let native = &results[0].1[mi];
        let lkl = &results[1].1[mi];
        let wamr = &results[2].1[mi];
        let twine = &results[3].1[mi];
        let n = |c: &Cell, above: bool| {
            let (v, base) = if above {
                (c.above, native.above)
            } else {
                (c.below, native.below)
            };
            v / base.max(1e-9)
        };
        println!(
            "{:<18} {:>9.1} {:>9.1} | {:>9.1} {:>9.1} | {:>9.1} {:>9.1}",
            metric,
            n(lkl, false),
            n(lkl, true),
            n(twine, false),
            n(twine, true),
            n(wamr, false),
            n(wamr, true),
        );
        rows_csv.push(format!(
            "{metric},{:.3},{:.3},{:.3},{:.3},{:.3},{:.3}",
            n(lkl, false),
            n(lkl, true),
            n(twine, false),
            n(twine, true),
            n(wamr, false),
            n(wamr, true),
        ));
    }
    println!("\npaper shape: all variants slow down past the EPC; twine tracks wamr plus SGX costs;");
    println!("twine beats sgx-lkl on random-read file (paper marks it with *).");
    write_csv(
        "table2_summary.csv",
        "metric,sgxlkl_below,sgxlkl_above,twine_below,twine_above,wamr_below,wamr_above",
        &rows_csv,
    );
}
