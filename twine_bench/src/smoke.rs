//! Whole-benchmark tests at ≈1 % size (`--scale 0.01`): every workload runs
//! untraced and traced, every reply is right, every named metric is present
//! and finite, and the counters the README lists as exact repeat exactly.

use std::collections::BTreeMap;

use crate::catalog::{END_TO_END, PER_LAYER};
use crate::harness::{Config, Metric};
use crate::{run_workload, workloads};

fn config(seed: u64) -> Config {
    Config {
        seed,
        seconds: 0.0,
        scale: 0.01,
        out_dir: std::env::temp_dir().join(format!("twine_bench_smoke_{}", std::process::id())),
    }
}

fn by_name(metrics: &[Metric]) -> BTreeMap<&'static str, f64> {
    metrics.iter().map(|m| (m.name, m.summary.median)).collect()
}

/// Counters that depend only on the seeded op stream. `vcycles_per_op` is
/// exact only where a single client drives the program.
fn exact_counters(workload: &str) -> Vec<&'static str> {
    let mut names = vec![
        "wasm.instrs_per_op",
        "wasm.page_transitions_per_op",
        "sgx.ecalls_per_op",
        "core.parks_per_op",
        "core.restores_per_op",
        "sqldb.vfs_reads_per_op",
        "sqldb.vfs_writes_per_op",
        "sqldb.vfs_syncs_per_op",
        "sqldb.journal_writes_per_op",
        "sqldb.leaked_pages",
        "pfs.nodes_written_per_4k",
    ];
    if workload == "wasm_oneshot" {
        names.push("vcycles_per_op");
    }
    names
}

#[test]
fn all_workloads_at_one_percent() {
    let cfg = config(42);
    for name in workloads::names() {
        let untraced = run_workload(name, &cfg, false);
        assert_eq!(untraced.failed, 0, "{name}: fail_ratio must be 0");
        assert!(untraced.attempted > 0 && untraced.reps >= crate::harness::MIN_REPS);
        let e2e = by_name(&untraced.metrics);
        for m in &END_TO_END {
            let v = *e2e
                .get(m.name)
                .unwrap_or_else(|| panic!("{name}: {} missing", m.name));
            assert!(v.is_finite() && v > 0.0, "{name}: {} = {v}", m.name);
        }
        assert_eq!(e2e.len(), END_TO_END.len());

        let first = run_workload(name, &cfg, true);
        let second = run_workload(name, &cfg, true);
        assert_eq!(
            (first.failed, second.failed),
            (0, 0),
            "{name}: traced fail_ratio"
        );
        let (a, b) = (by_name(&first.metrics), by_name(&second.metrics));
        assert_eq!(a.len(), PER_LAYER.len());
        for m in &PER_LAYER {
            let v = *a
                .get(m.name)
                .unwrap_or_else(|| panic!("{name}: {} missing", m.name));
            assert!(v.is_finite(), "{name}: {} = {v}", m.name);
        }
        for counter in exact_counters(name) {
            assert_eq!(
                a[counter], b[counter],
                "{name}: {counter} must repeat exactly"
            );
        }
        if name == "sql_write" {
            assert_eq!(a["sqldb.leaked_pages"], 0.0);
            assert!(a["sqldb.vfs_writes_per_op"] > 0.0 && a["sqldb.journal_writes_per_op"] > 0.0);
        }
        if name == "churn" {
            assert!(a["core.parks_per_op"] > 0.0 && a["core.restores_per_op"] > 0.0);
        }
        assert!(a["wasm.snapshot_delta_us"] > 0.0 && a["crypto.gcm_4k_seal_us"] > 0.0);
    }
    let _ = std::fs::remove_dir_all(&cfg.out_dir);
}

#[test]
fn op_streams_depend_on_the_seed_and_on_nothing_else() {
    for name in workloads::names() {
        let digest = |seed, rep| workloads::stream_digest(name, &config(seed), rep);
        assert_eq!(digest(7, 1), digest(7, 1), "{name}: same seed, same stream");
        assert_ne!(
            digest(7, 1),
            digest(8, 1),
            "{name}: another seed, another stream"
        );
        assert_ne!(
            digest(7, 1),
            digest(7, 2),
            "{name}: another repetition, another stream"
        );
    }
}
