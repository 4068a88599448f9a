//! The benchmark's metric catalogue: every metric by name, with its unit,
//! direction and — for the per-layer ones — the layer it belongs to and what
//! it is expected to move. `BENCHMARK.json` is rendered from these tables,
//! and a traced run emits exactly the per-layer names listed here.

use crate::harness::Metric;
use crate::report::json_string;
use crate::stats::Summary;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen before a
    /// change counts as a regression.
    pub bound: f64,
}

/// What a user of the system sees. The wall metrics carry the contract's
/// widest bound, 0.25: three times the run-to-run spread measured on the
/// 2-core reference host (quartile distance over the median of ten runs, each
/// with another seed) is 0.08–0.20 in a quiet quarter hour and more in a
/// noisy one — see the README's spread table. `fail_ratio` is not listed: it
/// is the result object's `failed`/`attempted` (0 today, and a metric here
/// must never be 0); `vcycles_per_op` is per-layer for the same reason (it is
/// 0 on `sql_read_hot`).
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "lat_p50_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "lat_p99_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: "lower",
        bound: 0.15,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: "lower",
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: "higher",
    }
}

/// Layer = crate. The README's interaction table says, for each, which
/// end-to-end metric it should move on which workload.
pub const PER_LAYER: [PerLayer; 67] = [
    // twine-wasm
    lower("wasm.decode_us", "us"),
    lower("wasm.validate_us", "us"),
    lower("wasm.compile_us", "us"),
    lower("wasm.instantiate_us", "us"),
    lower("wasm.exec_us", "us"),
    lower("wasm.instrs_per_op", "count"),
    higher("wasm.instrs_per_us", "1/us"),
    lower("wasm.page_transitions_per_op", "count"),
    lower("wasm.snapshot_delta_us", "us"),
    lower("wasm.apply_delta_us", "us"),
    lower("wasm.dirty_pages_per_park", "count"),
    // twine-sgx
    lower("sgx.ecall_us", "us"),
    lower("sgx.ecalls_per_op", "count"),
    lower("sgx.ocalls_per_op", "count"),
    lower("sgx.boundary_bytes_per_op", "B"),
    lower("sgx.seal_us_per_kib", "us/KiB"),
    lower("sgx.unseal_us_per_kib", "us/KiB"),
    lower("sgx.epc_faults_per_op", "count"),
    lower("sgx.epc_evictions_per_op", "count"),
    // twine-crypto
    lower("crypto.gcm_4k_seal_us", "us"),
    lower("crypto.gcm_4k_open_us", "us"),
    lower("crypto.ccm_4k_seal_us", "us"),
    lower("crypto.ccm_4k_open_us", "us"),
    lower("crypto.sha256_4k_us", "us"),
    // twine-pfs
    lower("pfs.write_4k_us", "us"),
    lower("pfs.read_4k_miss_us", "us"),
    lower("pfs.flush_us", "us"),
    lower("pfs.nodes_written_per_4k", "count"),
    lower("pfs.nodes_read_per_4k_miss", "count"),
    lower("pfs.crypto_frac", "ratio"),
    lower("pfs.ocall_frac", "ratio"),
    lower("pfs.memset_frac", "ratio"),
    lower("pfs.read_frac", "ratio"),
    // twine-sqldb
    lower("sqldb.parse_us", "us"),
    higher("sqldb.plan_cache_hit_rate", "ratio"),
    lower("sqldb.stmt_memvfs_us", "us"),
    lower("sqldb.stmt_pfs_us", "us"),
    lower("sqldb.vfs_us_per_op", "us"),
    lower("sqldb.vfs_reads_per_op", "count"),
    lower("sqldb.vfs_writes_per_op", "count"),
    lower("sqldb.vfs_syncs_per_op", "count"),
    lower("sqldb.bytes_written_per_user_byte", "ratio"),
    higher("sqldb.page_cache_hit_rate", "ratio"),
    lower("sqldb.journal_writes_per_op", "count"),
    lower("sqldb.leaked_pages", "count"),
    // twine-core
    lower("core.service_invoke_us", "us"),
    lower("core.service_self_us", "us"),
    lower("core.shard_rtt_2x2_us", "us"),
    lower("core.shard_rtt_1x1_us", "us"),
    lower("core.batch8_us_per_call", "us"),
    higher("core.shard_busy_frac", "ratio"),
    lower("core.db_service_self_us", "us"),
    lower("core.open_us", "us"),
    lower("core.first_open_us", "us"),
    higher("core.module_cache_hit_rate", "ratio"),
    lower("core.park_us", "us"),
    lower("core.restore_us", "us"),
    lower("core.db_park_us", "us"),
    lower("core.db_restore_us", "us"),
    lower("core.sealed_bytes_per_park", "B"),
    lower("core.parks_per_op", "count"),
    lower("core.restores_per_op", "count"),
    higher("core.pool_hit_rate", "ratio"),
    // the benchmark itself
    lower("vcycles_per_op", "cycles"),
    higher("ops_per_s_whole_run", "1/s"),
    lower("trace_overhead_frac", "ratio"),
    lower("stage_sum_gap_frac", "ratio"),
];

/// The per-layer metrics of a traced run: every catalogue name, in catalogue
/// order. A layer the workload never enters reports 0.
pub struct LayerMetrics(Vec<Metric>);

impl Default for LayerMetrics {
    fn default() -> Self {
        Self(
            PER_LAYER
                .iter()
                .map(|p| Metric::new(p.name, p.unit, Summary::exact(0.0, 0)))
                .collect(),
        )
    }
}

impl LayerMetrics {
    /// Set a metric. Panics on a name the catalogue does not list, so a
    /// typo cannot silently drop a number.
    pub fn set(&mut self, name: &str, summary: Summary) {
        let slot = self
            .0
            .iter_mut()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{name:?} is not in the per-layer catalogue"));
        slot.summary = summary;
    }

    pub fn set_exact(&mut self, name: &str, value: f64, samples: usize) {
        self.set(name, Summary::exact(value, samples));
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{name:?} is not in the per-layer catalogue"))
            .summary
            .median
    }

    pub fn into_vec(self) -> Vec<Metric> {
        self.0
    }
}

/// `BENCHMARK.json`, in the driver's contract format.
pub fn benchmark_json(run_seconds: u32) -> String {
    let workloads: Vec<String> = crate::workloads::WORKLOADS
        .iter()
        .map(|(name, why)| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json_string(name),
                json_string(why)
            )
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_string(m.name),
                json_string(m.unit),
                json_string(m.better),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_string(m.name),
                json_string(m.unit),
                json_string(m.better)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"twine_bench/Cargo.toml\", \"--\"],\n  \"paths\": [\"twine_bench\"],\n  \
         \"run_seconds\": {run_seconds},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn catalogue_meets_the_contract_limits() {
        let mut names: Vec<&str> = Vec::new();
        for m in &END_TO_END {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25);
            names.push(m.name);
        }
        for m in &PER_LAYER {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(["lower", "higher"].contains(&m.better));
            names.push(m.name);
        }
        for (name, why) in &crate::workloads::WORKLOADS {
            assert!(valid_name(name));
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{name}: {}",
                why.len()
            );
            names.push(name);
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used once");
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
        assert!(PER_LAYER.len() <= 128 && benchmark_json(10).len() < 64 * 1024);
    }

    #[test]
    fn committed_benchmark_json_matches_the_catalogue() {
        let committed = include_str!("../../BENCHMARK.json");
        let run_seconds: u32 = committed
            .split("\"run_seconds\":")
            .nth(1)
            .and_then(|rest| rest.split(',').next())
            .and_then(|v| v.trim().parse().ok())
            .expect("BENCHMARK.json names run_seconds");
        assert_eq!(committed, benchmark_json(run_seconds));
    }

    #[test]
    fn layer_metrics_hold_every_catalogue_name_once() {
        let mut m = LayerMetrics::default();
        m.set_exact("wasm.exec_us", 3.5, 10);
        assert_eq!(m.get("wasm.exec_us"), 3.5);
        assert_eq!(m.get("core.park_us"), 0.0);
        let v = m.into_vec();
        assert_eq!(v.len(), PER_LAYER.len());
        assert!(v
            .iter()
            .zip(&PER_LAYER)
            .all(|(a, b)| a.name == b.name && a.unit == b.unit));
    }
}
