//! Figure 3: PolyBench/C micro-benchmarks, normalised run time
//! (Native = 1) for Native, WAMR and Twine.
//!
//! Each kernel is compiled from MiniC to Wasm, executed once on the metered
//! engine, and the same instruction stream is priced under the three cost
//! models (DESIGN.md §4). `--mem-sweep` additionally reports the EPC
//! behaviour of the memory-hungry kernels the paper singles out
//! (deriche/lu/ludcmp, §V-B). `--tiers` runs every kernel on both
//! executors (the reference interpreter vs the register tier), verifies
//! the metered virtual-time streams are bit-identical, and reports the
//! wall-clock delta.

#![forbid(unsafe_code)]

use twine_baselines::model::{kernel_seconds, ExecMode};
use twine_bench::{arg_value, has_flag, write_csv};
use twine_polybench::{all_kernels, run_kernel, Scale};

fn main() {
    let scale = match arg_value("--scale").as_deref() {
        Some("mini") => Scale::Mini,
        _ => Scale::Small,
    };
    println!("Figure 3 — PolyBench/C, normalised run time (native = 1)\n");
    println!(
        "{:<16} {:>9} {:>9} {:>9}   {:>12} {:>10}",
        "kernel", "native", "wamr", "twine", "instrs", "pages"
    );
    let mut rows = Vec::new();
    let mut wamr_sum = 0.0;
    let mut twine_sum = 0.0;
    let kernels = all_kernels(scale);
    for k in &kernels {
        let run = run_kernel(k).unwrap_or_else(|e| panic!("{e}"));
        let native = kernel_seconds(&run.meter, ExecMode::Native);
        let wamr = kernel_seconds(&run.meter, ExecMode::WamrAot) / native;
        let twine = kernel_seconds(&run.meter, ExecMode::TwineAot) / native;
        wamr_sum += wamr;
        twine_sum += twine;
        println!(
            "{:<16} {:>9.2} {:>9.2} {:>9.2}   {:>12} {:>10}",
            run.name,
            1.0,
            wamr,
            twine,
            run.meter.total(),
            run.page_transitions
        );
        rows.push(format!(
            "{},{:.4},{:.4},{:.4},{},{}",
            run.name,
            1.0,
            wamr,
            twine,
            run.meter.total(),
            run.page_transitions
        ));
    }
    let n = kernels.len() as f64;
    println!(
        "\nmean slowdown: wamr {:.2}x, twine {:.2}x (paper: wamr ~2.1x avg, twine above wamr)",
        wamr_sum / n,
        twine_sum / n
    );
    write_csv(
        "fig3_polybench.csv",
        "kernel,native,wamr,twine,instructions,page_transitions",
        &rows,
    );

    if has_flag("--tiers") {
        tier_comparison(scale);
    }

    if has_flag("--mem-sweep") {
        mem_sweep();
    }
}

/// Execute every kernel on both tiers, check that the metered virtual-time
/// inputs (per-class counts, bytes, page transitions) are bit-identical,
/// and report the wall-clock speedup. Writes both the human CSV
/// (`results/fig3_tier_wallclock.csv`) and the machine-readable perf
/// trajectory (`BENCH_fig3.json` at the workspace root, DESIGN.md §8).
#[allow(clippy::too_many_lines)]
fn tier_comparison(scale: Scale) {
    use std::time::Instant;
    use twine_bench::write_bench_json;
    use twine_polybench::{compile_kernel, run_compiled};
    use twine_wasm::meter::InstrClass;
    use twine_wasm::ExecTier;

    const TIERS: [ExecTier; 2] = [ExecTier::Baseline, ExecTier::Reg];

    println!("\nExecution tiers: reference interpreter vs register-allocated");
    println!(
        "{:<16} {:>10} {:>10} {:>9}  {:>10} {:>10}",
        "kernel", "base_ms", "reg_ms", "reg/base", "base_ops", "reg_ops"
    );
    let mut rows = Vec::new();
    let mut json_kernels = Vec::new();
    // Geometric mean of reg over baseline.
    let mut log_sum = 0.0f64;
    let kernels = all_kernels(scale);
    for k in &kernels {
        let compiled: Vec<_> = TIERS
            .iter()
            .map(|t| compile_kernel(k, *t).unwrap_or_else(|e| panic!("{e}")))
            .collect();
        // One untimed warm-up run per tier, then the minimum of three
        // timed runs: both tiers face the same cache/allocator state and
        // scheduler jitter on a single sample cannot skew the CSV.
        let time_min = |ck: &twine_polybench::CompiledKernel| {
            run_compiled(ck).unwrap_or_else(|e| panic!("{e}"));
            let mut best = f64::INFINITY;
            let mut last = None;
            for _ in 0..3 {
                let t = Instant::now();
                last = Some(run_compiled(ck).unwrap_or_else(|e| panic!("{e}")));
                best = best.min(t.elapsed().as_secs_f64());
            }
            (best, last.expect("three runs"))
        };
        let (base_s, rb) = time_min(&compiled[0]);
        let (reg_s, run) = time_min(&compiled[1]);

        // The whole point of the design: virtual time must be unchanged.
        assert_eq!(
            rb.checksum.to_bits(),
            run.checksum.to_bits(),
            "{} (reg): checksum diverged from baseline",
            k.name
        );
        for c in InstrClass::all() {
            assert_eq!(
                rb.meter.count(c),
                run.meter.count(c),
                "{} (reg): metered class {c:?} diverged from baseline",
                k.name
            );
        }
        assert_eq!(
            rb.meter.bytes_accessed, run.meter.bytes_accessed,
            "{} (reg)",
            k.name
        );
        assert_eq!(
            rb.meter.page_transitions, run.meter.page_transitions,
            "{} (reg)",
            k.name
        );

        let reg_speedup = base_s / reg_s;
        log_sum += reg_speedup.ln();
        let base_ops = compiled[0].code.code_size_lowered_ops();
        let reg_ops = compiled[1].code.code_size_lowered_ops();
        println!(
            "{:<16} {:>10.2} {:>10.2} {:>8.2}x  {:>10} {:>10}",
            k.name,
            base_s * 1e3,
            reg_s * 1e3,
            reg_speedup,
            base_ops,
            reg_ops
        );
        rows.push(format!(
            "{},{:.6},{:.6},{:.4},{},{}",
            k.name, base_s, reg_s, reg_speedup, base_ops, reg_ops
        ));
        json_kernels.push(format!(
            concat!(
                "    {{\"name\": \"{}\", \"wall_seconds\": {{\"baseline\": {:.6}, ",
                "\"reg\": {:.6}}}, \"meter_total\": {}, ",
                "\"page_transitions\": {}}}"
            ),
            k.name,
            base_s,
            reg_s,
            rb.meter.total(),
            rb.meter.page_transitions
        ));
    }
    let geo = (log_sum / kernels.len() as f64).exp();
    println!("\ngeomean wall-clock speedup: reg/baseline {geo:.2}x");
    println!("virtual cycle streams: bit-identical across both tiers (verified per kernel)");
    write_csv(
        "fig3_tier_wallclock.csv",
        "kernel,baseline_seconds,reg_seconds,reg_speedup,baseline_ops,reg_ops",
        &rows,
    );
    write_bench_json(
        "BENCH_fig3.json",
        &format!(
            concat!(
                "{{\n  \"bench\": \"fig3_polybench\",\n  \"scale\": \"{}\",\n",
                "  \"tiers\": [\"baseline\", \"reg\"],\n",
                "  \"meters_identical\": true,\n  \"kernels\": [\n{}\n  ],\n",
                "  \"geomean_speedup\": {{\"reg_over_baseline\": {:.4}}}\n}}\n"
            ),
            match scale {
                Scale::Mini => "mini",
                Scale::Small => "small",
            },
            json_kernels.join(",\n"),
            geo
        ),
    );
}

/// §V-B memory study: attach an EPC model of shrinking size to the kernels
/// the paper calls out and report fault escalation.
fn mem_sweep() {
    use twine_sgx::{Epc, SimClock};

    println!("\nMemory sweep (§V-B): EPC faults vs usable EPC size");
    println!("{:<16} {:>10} {:>12} {:>12}", "kernel", "epc_pages", "faults", "evictions");
    let mut rows = Vec::new();
    for name in ["deriche", "lu", "ludcmp", "gemm"] {
        let kernel = twine_polybench::kernels::Kernel {
            name: "sweep",
            source: twine_polybench::kernels::source_for(name, Scale::Small),
        };
        // Replay the page-touch stream against EPCs of different sizes.
        for pages in [4096usize, 1024, 256, 64] {
            let wasm = twine_minicc::compile_to_bytes(&kernel.source).expect("compile");
            let code = twine_wasm::compile::CompiledModule::from_bytes(&wasm).expect("wasm");
            let mut linker = twine_wasm::Linker::new();
            twine_core::runtime::register_libm(&mut linker);
            let mut inst = twine_wasm::Instance::instantiate(
                std::sync::Arc::new(code),
                linker,
                Box::new(()),
            )
            .expect("instantiate");
            struct Sink(std::sync::Arc<std::sync::Mutex<Epc>>);
            impl twine_wasm::PageSink for Sink {
                fn touch(&mut self, page: u64) {
                    self.0.lock().unwrap().touch(page);
                }
            }
            let epc = std::sync::Arc::new(std::sync::Mutex::new(Epc::new(pages, SimClock::new())));
            inst.set_page_sink(Some(Box::new(Sink(epc.clone()))));
            inst.invoke("init", &[]).expect("init");
            inst.invoke("kernel", &[]).expect("kernel");
            let stats = epc.lock().unwrap().stats();
            println!(
                "{:<16} {:>10} {:>12} {:>12}",
                name, pages, stats.faults, stats.evictions
            );
            rows.push(format!("{name},{pages},{},{}", stats.faults, stats.evictions));
        }
    }
    write_csv("fig3_mem_sweep.csv", "kernel,epc_pages,faults,evictions", &rows);
}
