//! What the numbers were measured on: core count, compiler, kernel, commit.

use std::process::Command;

/// Cores available to this process. The serving workloads keep at most two
/// threads runnable; with fewer cores they time-slice and every wall metric
/// measures the host's scheduler instead of the program.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

pub fn degraded() -> bool {
    cores() < crate::harness::SHARDS
}

/// Peak resident set size of this process (`VmHWM`), MiB. Each workload runs
/// in a process of its own, so this is per workload.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

/// JSON object naming the host. Fields that cannot be read (no `git`, not a
/// repository — the driver's checkout is not one) read `"unknown"`.
pub fn fingerprint_json() -> String {
    let unknown = || "unknown".to_string();
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| unknown(), |s| s.trim().to_string());
    let rustc = command_line("rustc", &["-V"]).unwrap_or_else(unknown);
    let commit = command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown);
    format!(
        "{{\"nproc\": {}, \"rustc\": {}, \"kernel\": {}, \"git_commit\": {}, \"degraded_host\": {}}}",
        cores(),
        crate::report::json_string(&rustc),
        crate::report::json_string(&kernel),
        crate::report::json_string(&commit),
        degraded()
    )
}
