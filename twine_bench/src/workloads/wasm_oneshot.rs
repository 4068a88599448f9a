//! `wasm_oneshot`: the paper's one-shot embedding (Fig. 3). Every op loads
//! a PolyBench kernel from its Wasm bytes (decode → validate → compile),
//! instantiates it and runs `init(); kernel(); checksum()` in one
//! invocation. The interpreter does ≥ 95 % of the work; the serving plane
//! none (one client, no shards).

use std::sync::Arc;

use twine_core::{TwineBuilder, TwineRuntime};
use twine_polybench::kernels::{source_for, Scale};
use twine_polybench::reference::reference_checksum;
use twine_wasm::{CompiledModule, Instance, Linker, Value};

use crate::harness::{drive, Client, ClientLog, Config, Rep, Step};
use crate::rng::SplitMix64;

/// An odd number of kernels spanning 0.17–7.3 ms, so the median latency
/// falls inside one kernel's cluster rather than between two.
pub const KERNELS: [&str; 9] = [
    "durbin",
    "trisolv",
    "atax",
    "cholesky",
    "nussinov",
    "ludcmp",
    "jacobi-1d",
    "seidel-2d",
    "trmm",
];
/// Rounds over all kernels per repetition at scale 1: 112 × 9 = 1 008 ops,
/// so ten samples lie beyond p99.
const ROUNDS: usize = 112;
const ENTRY: &str = "
double run() { init(); kernel(); return checksum(); }
";

pub struct Kernel {
    pub name: &'static str,
    pub wasm: Vec<u8>,
    /// Checksum the bare engine computes (bit pattern).
    pub expect_bits: u64,
}

/// The single client: the one-shot runtime is driven from one thread.
pub struct WasmOneshot {
    cfg: Config,
    runtime: TwineRuntime,
    pub kernels: Vec<Kernel>,
    list: Vec<usize>,
}

impl Client for WasmOneshot {
    fn prepare(&mut self, rep: u64, frac: f64) {
        self.list = order(self.cfg.seed, rep, rounds(&self.cfg, frac));
    }

    fn run(&mut self, log: &mut ClientLog) {
        for &k in &self.list {
            let kernel = &self.kernels[k];
            let runtime = &mut self.runtime;
            log.op(|| load_and_run(runtime, &kernel.wasm) == Some(kernel.expect_bits));
        }
    }
}

/// Checksum from the bare engine — a rung below the runtime under test, and
/// itself checked against the native Rust reference where one exists.
fn engine_checksum(name: &str, wasm: &[u8]) -> u64 {
    let code = CompiledModule::from_bytes(wasm).expect("kernel module is valid");
    let mut linker = Linker::new();
    twine_core::runtime::register_libm(&mut linker);
    let mut inst =
        Instance::instantiate(Arc::new(code), linker, Box::new(())).expect("kernel instantiates");
    let out = inst.invoke("run", &[]).expect("kernel runs");
    let Value::F64(sum) = out[0] else {
        panic!("{name}: checksum is not an f64");
    };
    if let Some(native) = reference_checksum(name, Scale::Small) {
        assert_eq!(
            sum.to_bits(),
            native.to_bits(),
            "{name}: engine {sum} vs native reference {native}"
        );
    }
    assert!(sum.is_finite(), "{name}: checksum {sum}");
    sum.to_bits()
}

/// The kernel order of one repetition: `rounds` seeded permutations.
pub fn order(seed: u64, rep: u64, rounds: usize) -> Vec<usize> {
    let mut rng = SplitMix64::derive(seed, &[0x6f6e_6573, rep]);
    let mut out = Vec::with_capacity(rounds * KERNELS.len());
    for _ in 0..rounds {
        let mut perm: Vec<usize> = (0..KERNELS.len()).collect();
        for i in (1..perm.len()).rev() {
            perm.swap(i, rng.below(i as u64 + 1) as usize);
        }
        out.extend(perm);
    }
    out
}

fn rounds(cfg: &Config, frac: f64) -> usize {
    ((cfg.scaled(ROUNDS, 2) as f64) * frac).ceil() as usize
}

#[cfg(test)]
pub fn stream_digest(cfg: &Config, rep: u64) -> u64 {
    let mut d = crate::rng::Digest::default();
    for k in order(cfg.seed, rep, rounds(cfg, 1.0)) {
        d.u64(k as u64);
    }
    d.value()
}

pub fn compile_kernels() -> Vec<Kernel> {
    KERNELS
        .iter()
        .map(|&name| {
            let source = source_for(name, Scale::Small) + ENTRY;
            let wasm = twine_minicc::compile_to_bytes(&source).expect("kernel compiles");
            let expect_bits = engine_checksum(name, &wasm);
            Kernel {
                name,
                wasm,
                expect_bits,
            }
        })
        .collect()
}

/// One op: load + invoke through the one-shot runtime; the f64 checksum's
/// bit pattern, `None` on any error.
pub fn load_and_run(runtime: &mut TwineRuntime, wasm: &[u8]) -> Option<u64> {
    let app = runtime.load_wasm(wasm).ok()?;
    match runtime.invoke(&app, "run", &[]).ok()?.as_slice() {
        [Value::F64(sum)] => Some(sum.to_bits()),
        _ => None,
    }
}

impl WasmOneshot {
    pub fn setup(cfg: &Config) -> Self {
        Self {
            cfg: cfg.clone(),
            runtime: TwineBuilder::new().build(),
            kernels: compile_kernels(),
            list: Vec::new(),
        }
    }

    pub fn runtime(&self) -> &TwineRuntime {
        &self.runtime
    }

    pub fn drive(&mut self, next: impl FnMut(&[Rep]) -> Option<Step>) -> Vec<Rep> {
        let clock = self.runtime.clock().clone();
        drive(std::slice::from_mut(self), &clock, next)
    }
}
