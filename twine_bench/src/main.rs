//! `twine_bench`: one end-to-end + per-layer benchmark for the serving
//! plane, the one-shot runtime and the trusted database. See `README.md`
//! beside `Cargo.toml`.

#![forbid(unsafe_code)]

mod catalog;
mod guests;
mod harness;
mod host;
mod interpose;
mod layers;
mod report;
mod rng;
mod spans;
mod stats;
mod workloads;

#[cfg(test)]
mod smoke;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use harness::{Config, Metric};

struct Cli {
    workload: Option<String>,
    cfg: Config,
    trace: bool,
    write_benchmark_json: Option<PathBuf>,
}

fn usage() -> ! {
    eprintln!(
        "usage: twine_bench [--workload <name>] [--seed <u64>] [--seconds <n>] [--trace <0|1>]\n\
         \x20                  [--scale <f>] [--out <dir>] [--write-benchmark-json <path>]\n\
         \x20 without --workload every workload runs, each in a process of its own\n\
         \x20 workloads: {}",
        workloads::names().collect::<Vec<_>>().join(", ")
    );
    std::process::exit(2);
}

fn parse_cli() -> Cli {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    let mut cli = Cli {
        workload: None,
        cfg: Config {
            seed: 1,
            seconds: f64::from(RUN_SECONDS),
            scale: 1.0,
            out_dir: target.join("twine_bench"),
        },
        trace: false,
        write_benchmark_json: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()),
            "--seed" => cli.cfg.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => cli.cfg.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--scale" => cli.cfg.scale = value().parse().unwrap_or_else(|_| usage()),
            "--out" => cli.cfg.out_dir = PathBuf::from(value()),
            "--write-benchmark-json" => cli.write_benchmark_json = Some(PathBuf::from(value())),
            "--trace" => {
                cli.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    let known = |w: &String| workloads::names().any(|n| n == w);
    if !cli.workload.as_ref().is_none_or(known) || cli.cfg.seconds < 0.0 || cli.cfg.scale <= 0.0 {
        usage();
    }
    cli
}

/// `run_seconds` of `BENCHMARK.json`, and the default of `--seconds`.
const RUN_SECONDS: u32 = 12;

/// One run of one workload: its metrics, and how many checked replies were
/// wrong.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub reps: usize,
    pub metrics: Vec<Metric>,
}

/// Run workload `name` in this process: the untraced run (end-to-end
/// metrics) or the traced one (per-layer metrics).
pub fn run_workload(name: &str, cfg: &Config, trace: bool) -> Outcome {
    if trace {
        return layers::run(name, cfg);
    }
    let run = workloads::run(name, cfg);
    Outcome {
        attempted: run.attempted(),
        failed: run.failed(),
        reps: run.reps.len(),
        metrics: harness::end_to_end_metrics(&run.reps, &run.setup_s),
    }
}

/// Child mode: run one workload, print its metrics, write its detailed
/// JSON, and end with the driver's result line.
fn run_one(name: &str, cfg: &Config, trace: bool) -> ExitCode {
    if host::degraded() {
        println!(
            "warning: degraded_host — {} core(s) for {} shard threads; wall metrics measure the scheduler",
            host::cores(),
            harness::SHARDS
        );
    }
    let outcome = run_workload(name, cfg, trace);
    let Outcome {
        attempted, failed, ..
    } = outcome;
    println!(
        "{name}: seed {} scale {} trace {} — {} timed repetitions, {attempted} replies checked, {failed} failed \
         (fail_ratio {})",
        cfg.seed,
        cfg.scale,
        u8::from(trace),
        outcome.reps,
        stats::ratio(failed as f64, attempted as f64)
    );
    report::print_metrics(name, &outcome.metrics);
    let detailed =
        report::detailed_json(name, cfg.seed, trace, attempted, failed, &outcome.metrics);
    let path = cfg
        .out_dir
        .join(format!("{name}.trace{}.json", u8::from(trace)));
    if let Err(e) =
        std::fs::create_dir_all(&cfg.out_dir).and_then(|()| std::fs::write(&path, detailed))
    {
        eprintln!("{name}: cannot write {}: {e}", path.display());
    }
    let correct = failed == 0;
    println!(
        "{}",
        report::contract_line(correct, attempted, failed, &outcome.metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Parent mode: every workload in a child process of its own (so
/// `peak_rss_mib` is per workload), untraced and — with `--trace 1` — traced;
/// then one `results.json` with the host fingerprint and every child's
/// detailed JSON.
fn run_all(cli: &Cli) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let mut code = ExitCode::SUCCESS;
    let mut results = Vec::new();
    for name in workloads::names() {
        for trace in [false, true] {
            if trace && !cli.trace {
                continue;
            }
            let status = Command::new(&exe)
                .args(["--workload", name])
                .args(["--seed", &cli.cfg.seed.to_string()])
                .args(["--seconds", &cli.cfg.seconds.to_string()])
                .args(["--scale", &cli.cfg.scale.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .arg("--out")
                .arg(&cli.cfg.out_dir)
                .status()
                .expect("spawn workload process");
            if !status.success() {
                eprintln!("{name} (trace {}): {status}", u8::from(trace));
                code = ExitCode::FAILURE;
            }
            let path = cli
                .cfg
                .out_dir
                .join(format!("{name}.trace{}.json", u8::from(trace)));
            if let Ok(detailed) = std::fs::read_to_string(&path) {
                results.push(detailed);
            }
        }
    }
    let all = format!(
        "{{\n\"host\": {},\n\"seed\": {}, \"seconds\": {}, \"scale\": {},\n\"runs\": [\n{}\n]\n}}\n",
        host::fingerprint_json(),
        cli.cfg.seed,
        cli.cfg.seconds,
        cli.cfg.scale,
        results.join(",\n")
    );
    let path = cli.cfg.out_dir.join("results.json");
    match std::fs::write(&path, all) {
        Ok(()) => println!("results written to {}", path.display()),
        Err(e) => eprintln!("cannot write {}: {e}", path.display()),
    }
    code
}

fn main() -> ExitCode {
    let cli = parse_cli();
    if let Some(path) = &cli.write_benchmark_json {
        return match std::fs::write(path, catalog::benchmark_json(RUN_SECONDS)) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("cannot write {}: {e}", path.display());
                ExitCode::FAILURE
            }
        };
    }
    match &cli.workload {
        Some(name) => run_one(name, &cli.cfg, cli.trace),
        None => run_all(&cli),
    }
}
