//! The six workloads. Names are fixed: later issues claim gains by them.

pub mod churn;
pub mod sql;
pub mod wasm_oneshot;
pub mod wasm_warm;

use std::sync::Arc;
use std::time::Instant;

use twine_core::ShardedService;
use twine_sgx::Enclave;

use crate::harness::{timed_schedule, Config, Rep, Step, MAX_SETUPS, SETUPS, SETUP_BUDGET_S};

/// `(name, why it exists)` — the `why` is what `BENCHMARK.json` carries.
pub const WORKLOADS: [(&str, &str); 6] = [
    (
        "wasm_warm",
        "Warm unbatched invokes of a ~100-iteration handler at 2 clients x 2 shards: the serving plane (queue hand-off, ECALL, ctx reset) is over half of a call; crypto and SQL must not move it.",
    ),
    (
        "wasm_oneshot",
        "The paper's one-shot embedding (Fig. 3): load_wasm + invoke of 9 PolyBench kernels, interpreter ~85 % of an op, no serving plane; shows decode/compile/interpreter changes.",
    ),
    (
        "sql_read_hot",
        "Point reads on a 2 MB table that fits the pager cache: parse/plan, B-tree and shard round trip dominate, PFS and crypto idle; every statement text is distinct (plan cache misses).",
    ),
    (
        "sql_read_cold",
        "Point reads on a 27 MB table, over 3x the pager cache and far over the PFS node cache (Fig. 5c): most reads pay the PFS Merkle walk and node decryption.",
    ),
    (
        "sql_write",
        "One UPDATE+INSERT+DELETE transaction per op on a constant-size table: journal pre-images, page write-back and PFS flush re-encrypting data and Merkle nodes; the write-side twin of sql_read_cold.",
    ),
    (
        "churn",
        "Session lifecycle under EPC pressure: arrivals, revisits and expiry against 16 live sessions per shard, so sessions are parked (delta + seal) and restored (unseal + pooled slot) all the time.",
    ),
];

pub fn names() -> impl Iterator<Item = &'static str> {
    WORKLOADS.iter().map(|(name, _)| *name)
}

/// A workload after set-up, with the per-layer view of its own state that
/// the traced run needs.
#[allow(clippy::large_enum_variant)] // one value per process, never moved in bulk
pub enum Built {
    WasmWarm(wasm_warm::WasmWarm),
    WasmOneshot(wasm_oneshot::WasmOneshot),
    Sql(sql::Sql),
    Churn(churn::Churn),
}

impl Built {
    /// Drive the workload's clients through the repetitions `next` asks
    /// for (see [`crate::harness::drive`]).
    pub fn drive(&mut self, next: impl FnMut(&[Rep]) -> Option<Step>) -> Vec<Rep> {
        match self {
            Built::WasmWarm(w) => w.drive(next),
            Built::WasmOneshot(w) => w.drive(next),
            Built::Sql(w) => w.drive(next),
            Built::Churn(w) => w.drive(next),
        }
    }

    /// The enclave every session of the workload lives in.
    pub fn enclave(&self) -> Arc<Enclave> {
        match self {
            Built::WasmOneshot(w) => Arc::clone(w.runtime().enclave()),
            _ => Arc::clone(self.service().expect("a serving workload").enclave()),
        }
    }

    /// The serving plane, for the workloads that use one.
    pub fn service(&self) -> Option<Arc<ShardedService>> {
        match self {
            Built::WasmWarm(w) => Some(w.service()),
            Built::WasmOneshot(_) => None,
            Built::Sql(w) => Some(w.service()),
            Built::Churn(w) => Some(w.service()),
        }
    }

    /// Checks made once after the last repetition: `(checked, failed)`.
    pub fn verify_end_state(&self) -> (u64, u64) {
        match self {
            Built::WasmWarm(_) | Built::WasmOneshot(_) => (0, 0),
            Built::Sql(w) => w.verify_end_state(),
            Built::Churn(w) => w.verify_end_state(),
        }
    }
}

fn sql_kind(name: &str) -> Option<sql::Kind> {
    match name {
        "sql_read_hot" => Some(sql::Kind::ReadHot),
        "sql_read_cold" => Some(sql::Kind::ReadCold),
        "sql_write" => Some(sql::Kind::Write),
        _ => None,
    }
}

/// Set up workload `name`. Panics on an unknown name (the CLI checks first).
pub fn setup(name: &str, cfg: &Config) -> Built {
    match name {
        "wasm_warm" => Built::WasmWarm(wasm_warm::WasmWarm::setup(cfg)),
        "wasm_oneshot" => Built::WasmOneshot(wasm_oneshot::WasmOneshot::setup(cfg)),
        "churn" => Built::Churn(churn::Churn::setup(cfg)),
        _ => Built::Sql(sql::Sql::setup(
            cfg,
            sql_kind(name).unwrap_or_else(|| panic!("unknown workload {name:?}")),
        )),
    }
}

/// Digest of the op stream of repetition `rep` of workload `name` — what
/// the generator-determinism tests compare.
#[cfg(test)]
pub fn stream_digest(name: &str, cfg: &Config, rep: u64) -> u64 {
    match name {
        "wasm_warm" => wasm_warm::stream_digest(cfg, rep),
        "wasm_oneshot" => wasm_oneshot::stream_digest(cfg, rep),
        "churn" => churn::stream_digest(cfg, rep),
        _ => sql::stream_digest(
            cfg,
            sql_kind(name).unwrap_or_else(|| panic!("unknown workload {name:?}")),
            rep,
        ),
    }
}

/// A finished untraced run.
pub struct Run {
    pub setup_s: Vec<f64>,
    pub reps: Vec<Rep>,
    /// `(checked, failed)` of the end-state verification.
    pub end_state: (u64, u64),
}

impl Run {
    pub fn attempted(&self) -> u64 {
        self.reps.iter().map(Rep::attempted).sum::<u64>() + self.end_state.0
    }

    pub fn failed(&self) -> u64 {
        self.reps.iter().map(|r| r.failed).sum::<u64>() + self.end_state.1
    }
}

/// Set up at least [`SETUPS`] times (keeping the last), warm up once, then
/// run timed repetitions until `cfg.seconds` have been measured.
pub fn run(name: &str, cfg: &Config) -> Run {
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut built = None;
    while setup_s.len() < SETUPS
        || (setup_s.iter().sum::<f64>() < SETUP_BUDGET_S && setup_s.len() < MAX_SETUPS)
    {
        // Drop the previous set-up first: two live copies would double the
        // peak memory a single set-up needs.
        drop(built.take());
        let t = Instant::now();
        built = Some(setup(name, cfg));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut built = built.expect("SETUPS > 0");
    let mut reps = built.drive(timed_schedule(cfg.seconds));
    let warm = reps.remove(0);
    let end_state = built.verify_end_state();
    // A warm-up failure is a failure of the run, though not a timed op.
    let end_state = (end_state.0 + warm.attempted(), end_state.1 + warm.failed);
    Run {
        setup_s,
        reps,
        end_state,
    }
}
