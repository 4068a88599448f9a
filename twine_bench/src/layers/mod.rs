//! The traced run: per-layer metrics for one workload.
//!
//! Three sources, none inside the program: (a) the workload's end-to-end
//! replay with a request span per call and the program's public counters
//! read before and after; (b) the ladder — the same seeded op stream
//! against deeper public entry points, with benchmark-owned wrappers
//! interposed on public traits; (c) micro rungs that time one layer's public
//! functions directly. End-to-end metrics are never taken from this run.

mod ladder;
mod micro;

use twine_core::{ControlStats, ShardedService};
use twine_sgx::{Enclave, EnclaveStats, EpcStats};

use crate::catalog::LayerMetrics;
use crate::harness::{over_slices, Config, Rep, Step, SHARDS, WARMUP_FRAC};
use crate::spans::{chrome_trace_json, Span};
use crate::stats::{ratio, Summary};
use crate::workloads::{self, Built};
use crate::Outcome;

/// Timed repetitions of the end-to-end replay, alternately untraced and
/// traced (after one warm-up).
const REPLAY_REPS: u64 = 4;
/// Spans a span file holds at most (the first ones recorded).
const SPAN_FILE_CAP: usize = 40_000;

/// The program's public counters, read while no request is in flight.
#[derive(Clone, Copy, Default)]
struct Counters {
    boundary: EnclaveStats,
    epc: EpcStats,
    control: ControlStats,
    shard_busy_ns: u64,
}

impl Counters {
    fn read(enclave: &Enclave, svc: Option<&ShardedService>) -> Self {
        Self {
            boundary: enclave.stats(),
            epc: enclave.epc().stats(),
            control: svc.map(ShardedService::control_stats).unwrap_or_default(),
            shard_busy_ns: svc.map_or(0, |s| s.shard_stats().iter().map(|st| st.busy_ns).sum()),
        }
    }
}

/// Replay the workload end to end — warm-up, then untraced and traced
/// repetitions alternately — and fill in everything that comes from the
/// program's counters and from comparing the two kinds of repetition.
/// Returns the repetitions and the untraced median latency.
fn end_to_end_replay(built: &mut Built, out: &mut LayerMetrics) -> (Vec<Rep>, f64) {
    let (enclave, svc) = (built.enclave(), built.service());
    let mut before = Counters::default();
    let reps = built.drive(|done| {
        let n = done.len() as u64;
        if n == 1 {
            before = Counters::read(&enclave, svc.as_deref());
        }
        (n <= REPLAY_REPS).then_some(Step {
            rep: n,
            frac: if n == 0 { WARMUP_FRAC } else { 1.0 },
            // Repetitions 2 and 4 are traced, 1 and 3 are not.
            traced: n > 0 && n.is_multiple_of(2),
        })
    });
    let after = Counters::read(&enclave, svc.as_deref());
    let timed = &reps[1..];
    let ops: u64 = timed.iter().map(Rep::attempted).sum();
    let per_op = |delta: u64| ratio(delta as f64, ops as f64);
    let n = ops as usize;

    out.set_exact(
        "sgx.ecalls_per_op",
        per_op(after.boundary.ecalls - before.boundary.ecalls),
        n,
    );
    out.set_exact(
        "sgx.ocalls_per_op",
        per_op(after.boundary.ocalls - before.boundary.ocalls),
        n,
    );
    out.set_exact(
        "sgx.boundary_bytes_per_op",
        per_op(after.boundary.boundary_bytes - before.boundary.boundary_bytes),
        n,
    );
    out.set_exact(
        "sgx.epc_faults_per_op",
        per_op(after.epc.faults - before.epc.faults),
        n,
    );
    out.set_exact(
        "sgx.epc_evictions_per_op",
        per_op(after.epc.evictions - before.epc.evictions),
        n,
    );
    let (c1, c0) = (&after.control, &before.control);
    out.set_exact("core.parks_per_op", per_op(c1.parks - c0.parks), n);
    out.set_exact("core.restores_per_op", per_op(c1.restores - c0.restores), n);
    let (hits, misses) = (c1.pool_hits - c0.pool_hits, c1.pool_misses - c0.pool_misses);
    out.set_exact(
        "core.pool_hit_rate",
        ratio(hits as f64, (hits + misses) as f64),
        n,
    );
    let (hits, misses) = (
        c1.stmt_cache_hits - c0.stmt_cache_hits,
        c1.stmt_cache_misses - c0.stmt_cache_misses,
    );
    out.set_exact(
        "sqldb.plan_cache_hit_rate",
        ratio(hits as f64, (hits + misses) as f64),
        n,
    );
    let wall_s: f64 = timed.iter().map(|r| r.wall_s).sum();
    out.set_exact(
        "core.shard_busy_frac",
        ratio(
            (after.shard_busy_ns - before.shard_busy_ns) as f64 / 1e9,
            wall_s * SHARDS as f64,
        ),
        n,
    );
    out.set("vcycles_per_op", crate::harness::vcycles_per_op(timed));
    // The plain mean over whole repetitions, scheduler placements and all —
    // beside the end-to-end `ops_per_s`, which is a median over slices.
    let ok: u64 = timed.iter().map(|r| r.ok).sum();
    out.set_exact("ops_per_s_whole_run", ratio(ok as f64, wall_s), n);

    let (traced, untraced): (Vec<&Rep>, Vec<&Rep>) =
        timed.iter().partition(|r| !r.spans.is_empty());
    let p50 = |reps: Vec<&Rep>| over_slices(reps, |s| s.lat_p50_us).median;
    let (p50_traced, p50_untraced) = (p50(traced), p50(untraced));
    out.set_exact("trace_overhead_frac", p50_traced / p50_untraced - 1.0, n);
    (reps, p50_untraced)
}

/// `|sum of the rungs along the blocking path − end-to-end p50| ÷ p50`.
fn stage_sum_gap(name: &str, p50_us: f64, out: &LayerMetrics) -> f64 {
    let get = |metric: &str| out.get(metric);
    let sum = match name {
        "wasm_oneshot" => {
            get("wasm.decode_us")
                + get("wasm.validate_us")
                + get("wasm.compile_us")
                + get("wasm.instantiate_us")
                + get("wasm.exec_us")
        }
        "wasm_warm" | "churn" => {
            get("wasm.exec_us") + get("core.service_self_us") + get("core.shard_rtt_2x2_us")
        }
        // sqldb's self time is the statement minus its VFS children.
        _ => {
            (get("sqldb.stmt_pfs_us") - get("sqldb.vfs_us_per_op"))
                + get("sqldb.vfs_us_per_op")
                + get("core.db_service_self_us")
                + get("core.shard_rtt_2x2_us")
        }
    };
    (sum - p50_us).abs() / p50_us
}

fn write_spans(cfg: &Config, name: &str, spans: &[Span]) {
    let kept = &spans[..spans.len().min(SPAN_FILE_CAP)];
    let path = cfg.out_dir.join(format!("{name}.spans.json"));
    let written = std::fs::create_dir_all(&cfg.out_dir)
        .and_then(|()| std::fs::write(&path, chrome_trace_json(kept)));
    match written {
        Ok(()) => println!(
            "{name}: {} of {} spans written to {}",
            kept.len(),
            spans.len(),
            path.display()
        ),
        Err(e) => eprintln!("{name}: cannot write {}: {e}", path.display()),
    }
}

/// Run the traced run of workload `name`.
pub fn run(name: &str, cfg: &Config) -> Outcome {
    let mut out = LayerMetrics::default();
    let mut built = workloads::setup(name, cfg);
    let (reps, p50_us) = end_to_end_replay(&mut built, &mut out);
    let end_state = built.verify_end_state();
    let attempted = reps.iter().map(Rep::attempted).sum::<u64>() + end_state.0;
    let failed = reps.iter().map(|r| r.failed).sum::<u64>() + end_state.1;
    let mut spans: Vec<Span> = reps.into_iter().flat_map(|r| r.spans).collect();

    let enclave = built.enclave();
    // The direct rungs first: the thread that takes the ladder below has
    // been idle during the replay, and its first second of work runs slow.
    micro::crypto(cfg, &mut out);
    micro::sgx(cfg, &enclave, &mut out);
    micro::pfs(cfg, &mut out);
    micro::wasm_delta(cfg, &mut out);
    match &built {
        Built::WasmWarm(_) => ladder::warm_ladder(cfg, &mut out),
        Built::WasmOneshot(w) => ladder::oneshot_ladder(cfg, &w.kernels, &mut out),
        Built::Churn(w) => ladder::churn_ladder(cfg, w.wasm(), &mut out),
        Built::Sql(w) => {
            let (kind, rows, ops) = w.shape();
            // Half a repetition's ops per rung keeps the traced run short.
            spans.extend(ladder::sql_ladder(
                cfg,
                kind,
                rows,
                ops.div_ceil(2),
                &mut out,
            ));
        }
    }
    drop(built);
    micro::lifecycle(cfg, &mut out);
    micro::shard_round_trip(cfg, &mut out);

    let gap = stage_sum_gap(name, p50_us, &out);
    out.set("stage_sum_gap_frac", Summary::exact(gap, 1));
    write_spans(cfg, name, &spans);
    Outcome {
        attempted,
        failed,
        reps: REPLAY_REPS as usize,
        metrics: out.into_vec(),
    }
}
